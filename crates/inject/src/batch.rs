//! The lockstep masking sweep: a measurement of how many of a campaign's
//! faults could never reach observable state.
//!
//! One sweep over the clean trace classifies every test of an index range
//! without executing it.  Each test becomes a *lane* watching the single
//! location its bit flip corrupted; the sweep advances every lane at once
//! and records which lanes ever *read* their corrupted location.  A lane
//! that never does is *masked*: its faulty run is the clean run, with at
//! most one memory cell re-flipped ([`LaneState`]).  No executor acts on
//! the verdicts — every campaign executes every test — so the sweep only
//! measures the share of masked lanes a lockstep executor could skip.
//!
//! # Why a masked verdict is sound
//!
//! Divergence is detected at the *first read* of the corrupted location, not
//! at the first observable difference — deliberately conservative.  While a
//! lane has not diverged, the faulty run executes the exact instruction
//! sequence of the clean run (no input of any executed instruction differs),
//! so:
//!
//! * a lane whose location is **overwritten** before any read reconverges
//!   exactly with the clean run (registers are invisible in a [`RunResult`];
//!   the overwritten cell holds the clean value again);
//! * a fresh stack **allocation zeroes** the cells it covers
//!   (`Memory::alloca`), so a watched flip inside it is erased the same way;
//! * a lane whose corrupted *memory cell* survives the whole sweep unread and
//!   unwritten finishes with the clean final memory image plus that one
//!   flipped cell — the slab never shrinks, so the cell's final clean value
//!   is its value at fault time and one [`Value::flip_bit`] reconstructs it;
//! * a lane whose corrupted *register* survives unread finishes bit-identical
//!   to the clean run outright.
//!
//! A flip that is read but happens not to change behaviour (e.g. a compare
//! result flipped onto the branch actually taken) counts as diverged, never
//! as masked.

use std::collections::BTreeMap;

use ftkr_vm::{EventKind, FaultTarget, LocationId, RunResult, Trace, Value};

use crate::campaign::sample_site_fault;
use crate::plan::IndexRange;
use crate::sites::FaultSite;

/// Everything the lockstep sweep needs about the fault-free execution: the
/// traced clean [`RunResult`] plus a table resolving each interned trace
/// location to its memory cell address (registers resolve to `None`).
pub struct BatchContext<'a> {
    clean: &'a RunResult,
    trace: &'a Trace,
    loc_addr: Vec<Option<u64>>,
}

impl<'a> BatchContext<'a> {
    /// Build the sweep context from a traced clean run.
    ///
    /// # Panics
    /// Panics when `clean` did not complete, carries no trace, or carries a
    /// partial (resumed) trace: the sweep must see *every*
    /// dynamic step of the run to know a lane never diverged.
    pub fn new(clean: &'a RunResult) -> Self {
        assert!(
            clean.outcome.is_completed(),
            "the sweep needs a completed clean run"
        );
        let trace = clean
            .trace
            .as_ref()
            .expect("the sweep needs the traced clean run");
        assert_eq!(
            trace.base_step(),
            0,
            "the sweep needs the full clean trace, not a resumed suffix"
        );
        assert_eq!(
            trace.len(),
            clean.steps as usize,
            "the sweep needs the full clean trace, one event per step"
        );
        let loc_addr = trace.locations().iter().map(|l| l.mem_addr()).collect();
        BatchContext {
            clean,
            trace,
            loc_addr,
        }
    }
}

/// The verdict of one lane after the lockstep sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LaneState {
    /// The flip never reaches observable state: the faulty run is
    /// bit-identical to the clean run (overwritten, zeroed by an allocation,
    /// an unread register, or a fault that never strikes).
    MaskedClean,
    /// The flip lands in a memory cell that is never read or written again:
    /// the faulty run equals the clean run with this one final cell flipped.
    MaskedPoke {
        /// The corrupted cell.
        addr: u64,
        /// Its faulty final value (the clean final value with the bit
        /// re-flipped).
        value: Value,
    },
    /// The faulty run first reads corrupted state at this clean-trace event
    /// index: only executing the faulty run can tell what follows.
    Diverged {
        /// Index into the clean trace's events of the first corrupted read.
        at_event: usize,
    },
}

/// Per-lane watch bookkeeping during the sweep.
#[derive(Clone, Copy)]
enum Pending {
    /// Verdict already final: masked clean.
    Clean,
    /// Watching a register location from event `from` on.
    Reg {
        /// The corrupted register's interned location.
        loc: LocationId,
        /// First event index at which a read counts as divergence.
        from: usize,
    },
    /// Watching a memory cell from event `from` on.
    Mem {
        /// The corrupted cell.
        addr: u64,
        /// First event index at which a read counts as divergence.
        from: usize,
        /// The flipped bit (to reconstruct the faulty final value).
        bit: u8,
    },
    /// Verdict already final: diverged at this event.
    Diverged {
        /// First corrupted read.
        at_event: usize,
    },
}

/// First event index whose dynamic step is `>= step` (equivalently: the
/// number of events strictly before `step`).
fn first_event_at_or_after(trace: &Trace, step: u64) -> usize {
    (step.saturating_sub(trace.base_step()) as usize).min(trace.len())
}

/// The result of one lockstep sweep: per-lane verdicts for a contiguous
/// index range of a campaign.
pub struct BatchScan {
    range: IndexRange,
    lanes: Vec<LaneState>,
}

impl BatchScan {
    /// Derive every lane of `range` from `(seed, index)` and sweep the clean
    /// trace once, producing the per-lane verdicts.
    ///
    /// # Panics
    /// Panics when `sites` is empty and `range` is not (faults cannot be
    /// sampled from an empty population).
    pub fn sweep(
        seed: u64,
        sites: &[FaultSite],
        range: IndexRange,
        ctx: &BatchContext<'_>,
    ) -> BatchScan {
        let trace = ctx.trace;
        let n = range.len() as usize;
        // Dense per-location watcher lists (indexed by interned LocationId)
        // keep the hot read/write probes to a bounds-checked vector index;
        // only memory-cell faults — whose address need not appear as an
        // interned location at all — go through the ordered map, which the
        // allocation-zeroing range scan needs anyway.
        let mut reg_watch: Vec<Vec<usize>> = vec![Vec::new(); ctx.loc_addr.len()];
        let mut mem_watch: BTreeMap<u64, Vec<usize>> = BTreeMap::new();

        // Lane derivation: resolve each sampled fault against the clean
        // trace into the single location it corrupts (or a final verdict).
        let mut pending: Vec<Pending> = (0..n)
            .map(|lane| {
                let fault = sample_site_fault(seed, sites, range.start + lane as u64);
                match fault.target {
                    FaultTarget::InstructionResult => {
                        let pos = first_event_at_or_after(trace, fault.at_step);
                        if pos >= trace.len() {
                            // Past the end of the run: there is no
                            // instruction result to corrupt.
                            return Pending::Clean;
                        }
                        let event = &trace.events[pos];
                        if matches!(event.kind, EventKind::Alloca { .. }) {
                            // Allocation results (fresh stack base pointers)
                            // are not faultable: the VM never applies
                            // `InstructionResult` flips to them.
                            return Pending::Clean;
                        }
                        match event.write {
                            // No result register or cell (branches, outputs,
                            // calls, markers): the flip never lands.
                            None => Pending::Clean,
                            // The event's own reads happened before the flip;
                            // the watch starts at the *next* event.
                            Some((loc, _)) => match ctx.loc_addr[loc.index()] {
                                Some(addr) => Pending::Mem {
                                    addr,
                                    from: pos + 1,
                                    bit: fault.bit,
                                },
                                None => Pending::Reg { loc, from: pos + 1 },
                            },
                        }
                    }
                    FaultTarget::MemoryCell { addr } => {
                        if fault.at_step >= ctx.clean.steps {
                            // The injection hook never fires past the end of
                            // the run.
                            return Pending::Clean;
                        }
                        if addr >= ctx.clean.memory.globals_len() {
                            // A stack cell: its liveness at fault time is not
                            // reconstructible from the final memory image, so
                            // the lane conservatively peels off.
                            return Pending::Diverged {
                                at_event: first_event_at_or_after(trace, fault.at_step),
                            };
                        }
                        // The flip strikes *before* the instruction at
                        // `at_step`: that instruction's own reads already see
                        // it — the watch starts at `at_step` inclusive.
                        Pending::Mem {
                            addr,
                            from: first_event_at_or_after(trace, fault.at_step),
                            bit: fault.bit,
                        }
                    }
                }
            })
            .collect();

        let mut watching = 0usize;
        let mut start = usize::MAX;
        for (lane, p) in pending.iter().enumerate() {
            match *p {
                Pending::Reg { loc, from } => {
                    reg_watch[loc.index()].push(lane);
                    watching += 1;
                    start = start.min(from);
                }
                Pending::Mem { addr, from, .. } => {
                    mem_watch.entry(addr).or_default().push(lane);
                    watching += 1;
                    start = start.min(from);
                }
                Pending::Clean | Pending::Diverged { .. } => {}
            }
        }
        let have_mem = !mem_watch.is_empty();

        // One pass over the clean events advances every lane.  Order within
        // an event matters: reads are processed first (a location both read
        // and overwritten by one event — `x = x + 1` — has already leaked
        // into the faulty run), then allocation zeroing, then the overwrite.
        // No watcher fires before the earliest `from`, and once every lane
        // has settled into a final verdict no later event can change one, so
        // the pass is a window: it opens at `start` and closes as soon as
        // `watching` drains (lanes still pending at the trace's end are the
        // masked survivors and need the full suffix).
        for idx in start..trace.events.len() {
            if watching == 0 {
                break;
            }
            let event = &trace.events[idx];
            for &(loc, _) in trace.reads_of(event) {
                let watchers = &reg_watch[loc.index()];
                if !watchers.is_empty() {
                    for &lane in watchers {
                        if let Pending::Reg { from, .. } = pending[lane] {
                            if from <= idx {
                                pending[lane] = Pending::Diverged { at_event: idx };
                                watching -= 1;
                            }
                        }
                    }
                }
                if have_mem {
                    if let Some(addr) = ctx.loc_addr[loc.index()] {
                        if let Some(watchers) = mem_watch.get(&addr) {
                            for &lane in watchers {
                                if let Pending::Mem { from, .. } = pending[lane] {
                                    if from <= idx {
                                        pending[lane] = Pending::Diverged { at_event: idx };
                                        watching -= 1;
                                    }
                                }
                            }
                        }
                    }
                }
            }
            if have_mem {
                if let EventKind::Alloca { base, size } = &event.kind {
                    // A fresh allocation zeroes the cells it covers: any
                    // watched flip inside it is erased before it could ever
                    // be read.
                    for (_, watchers) in mem_watch.range(*base..base.saturating_add(*size)) {
                        for &lane in watchers {
                            if let Pending::Mem { from, .. } = pending[lane] {
                                if from <= idx {
                                    pending[lane] = Pending::Clean;
                                    watching -= 1;
                                }
                            }
                        }
                    }
                }
            }
            if let Some((loc, _)) = event.write {
                let watchers = &reg_watch[loc.index()];
                if !watchers.is_empty() {
                    for &lane in watchers {
                        if let Pending::Reg { from, .. } = pending[lane] {
                            if from <= idx {
                                pending[lane] = Pending::Clean;
                                watching -= 1;
                            }
                        }
                    }
                }
                if have_mem {
                    if let Some(addr) = ctx.loc_addr[loc.index()] {
                        if let Some(watchers) = mem_watch.get(&addr) {
                            for &lane in watchers {
                                if let Pending::Mem { from, .. } = pending[lane] {
                                    if from <= idx {
                                        pending[lane] = Pending::Clean;
                                        watching -= 1;
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }

        let lanes: Vec<LaneState> = pending
            .iter()
            .map(|p| match *p {
                Pending::Clean | Pending::Reg { .. } => LaneState::MaskedClean,
                Pending::Mem { addr, bit, .. } => match ctx.clean.memory.peek(addr) {
                    // The cell survived unread and unwritten: its final clean
                    // value is its value at fault time, so re-flipping it
                    // reconstructs the faulty final memory image.
                    Some(v) => LaneState::MaskedPoke {
                        addr,
                        value: v.flip_bit(bit),
                    },
                    // A cell that never existed was never flipped (the
                    // injection hook peeks before poking).
                    None => LaneState::MaskedClean,
                },
                Pending::Diverged { at_event } => LaneState::Diverged { at_event },
            })
            .collect();

        BatchScan { range, lanes }
    }

    /// The verdict of campaign test `index`.
    ///
    /// # Panics
    /// Panics when `index` lies outside the scanned range.
    pub fn lane(&self, index: u64) -> &LaneState {
        assert!(
            index >= self.range.start && index < self.range.end,
            "index {index} outside the scanned range {:?}",
            self.range
        );
        &self.lanes[(index - self.range.start) as usize]
    }

    /// Number of lanes that never diverged.
    pub fn masked(&self) -> u64 {
        self.range.len() - self.diverged()
    }

    /// Number of lanes that diverged.
    pub fn diverged(&self) -> u64 {
        let diverged = |lane: &&LaneState| matches!(lane, LaneState::Diverged { .. });
        self.lanes.iter().filter(diverged).count() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::hang_budget;
    use crate::sites::{input_sites, internal_sites};
    use ftkr_ir::prelude::*;
    use ftkr_ir::{Global, Module};
    use ftkr_vm::{DecodedModule, Location, Vm, VmConfig};

    /// The sum16 program of the campaign tests: most internal-site lanes
    /// diverge (every intermediate feeds the next iteration).
    fn sum16() -> Module {
        let mut m = Module::new("sum16");
        let g = m.add_global(Global::zeroed_f64("total", 1));
        let mut b = FunctionBuilder::new("main");
        let gaddr = b.global_addr(g);
        let zero = b.const_i64(0);
        let n = b.const_i64(16);
        b.main_for("accumulate", zero, n, |b, _i| {
            let cur = b.load(gaddr);
            let one = b.const_f64(1.0);
            let next = b.fadd(cur, one);
            b.store(gaddr, next);
        });
        let total = b.load(gaddr);
        b.output(total, OutputFormat::Scientific(6));
        b.ret(None);
        m.add_function(b.finish());
        m
    }

    /// A program rich in masked lanes: a dead intermediate result, a dead
    /// store (overwritten before any load), and a global cell (`out[1]`)
    /// that nothing ever touches — input faults there survive as
    /// `MaskedPoke` lanes.
    fn deadstore() -> Module {
        let mut m = Module::new("deadstore");
        let g = m.add_global(Global::zeroed_f64("out", 2));
        let mut b = FunctionBuilder::new("main");
        let base = b.global_addr(g);
        let a = b.const_f64(1.5);
        let c = b.const_f64(2.5);
        let _dead = b.fadd(a, c);
        let first = b.fadd(a, a);
        b.store(base, first);
        let second = b.fmul(c, c);
        b.store(base, second);
        let out = b.load(base);
        b.output(out, OutputFormat::Full);
        b.ret(None);
        m.add_function(b.finish());
        m
    }

    fn clean_run(module: &Module) -> RunResult {
        Vm::new(VmConfig::tracing()).run(module).unwrap()
    }

    /// Sweep `n` lanes of `sites` and hold every masked verdict to the real
    /// faulty run: a `MaskedClean` lane's run equals the clean run, and a
    /// `MaskedPoke` lane's run equals the clean run with that one cell
    /// poked (the trace aside in both).
    fn assert_sweep_sound(m: &Module, sites: &[FaultSite], seed: u64, n: u64) -> BatchScan {
        let clean = clean_run(m);
        let range = IndexRange::full(n);
        let scan = BatchScan::sweep(seed, sites, range, &BatchContext::new(&clean));
        let untraced = RunResult {
            trace: None,
            ..clean.clone()
        };
        for index in range.start..range.end {
            let fault = sample_site_fault(seed, sites, index);
            let config = VmConfig {
                fault: Some(fault),
                max_steps: hang_budget(clean.steps),
                ..VmConfig::default()
            };
            let real = Vm::new(config).run(m).unwrap();
            match *scan.lane(index) {
                LaneState::MaskedClean => assert_eq!(real, untraced, "lane {index}: {fault:?}"),
                LaneState::MaskedPoke { addr, value } => {
                    let mut poked = untraced.clone();
                    poked.memory.poke(addr, value);
                    assert_eq!(real, poked, "lane {index}: {fault:?}");
                }
                LaneState::Diverged { .. } => {}
            }
        }
        scan
    }

    #[test]
    fn masked_sum16_lanes_equal_their_real_faulty_runs() {
        let m = sum16();
        let clean = clean_run(&m);
        let trace = clean.trace.as_ref().unwrap();
        // Every result feeds the next iteration, so internal faults all
        // diverge; flips of the accumulator cell at every step add lanes
        // the next store overwrites and lanes after the last load.
        let mut sites = internal_sites(trace, 0, trace.len());
        for step in 0..trace.len() {
            sites.extend(input_sites(step, &[(Location::mem(0), Value::F(0.0))]));
        }
        let scan = assert_sweep_sound(&m, &sites, 21, 256);
        let lanes = || (0..256).map(|i| *scan.lane(i));
        assert!(lanes().any(|l| l == LaneState::MaskedClean));
        assert!(lanes().any(|l| matches!(l, LaneState::MaskedPoke { .. })));
        assert!(scan.diverged() > 0, "the accumulator must diverge");
    }

    #[test]
    fn masked_lanes_are_synthesized_and_still_bit_identical() {
        let m = deadstore();
        let clean = clean_run(&m);
        let trace = clean.trace.as_ref().unwrap();
        let sites = internal_sites(trace, 0, trace.len());
        let scan = assert_sweep_sound(&m, &sites, 5, 192);
        // The program is built to have both kinds of lanes.
        assert!(scan.masked() > 0, "dead results/stores must mask");
        assert!(scan.diverged() > 0, "live dataflow must diverge");
        assert_eq!(scan.masked() + scan.diverged(), 192);
    }

    #[test]
    fn surviving_memory_cell_lanes_reconstruct_the_faulty_image() {
        // Input faults on the never-touched cell `out[1]` (addr 1): every
        // lane survives the sweep as `MaskedPoke`, and the real faulty run
        // ends with exactly that cell flipped.
        let m = deadstore();
        let sites = input_sites(0, &[(Location::mem(1), Value::F(0.0))]);
        let scan = assert_sweep_sound(&m, &sites, 7, 64);
        assert_eq!(scan.diverged(), 0, "nothing ever reads out[1]");
        for index in 0..64 {
            assert!(
                matches!(scan.lane(index), LaneState::MaskedPoke { addr: 1, .. }),
                "lane {index}: {:?}",
                scan.lane(index)
            );
        }
    }

    #[test]
    fn empty_sites_yield_an_empty_report_without_sweeping() {
        let m = sum16();
        let clean = clean_run(&m);
        let scan = BatchScan::sweep(3, &[], IndexRange::full(0), &BatchContext::new(&clean));
        assert_eq!(scan.masked(), 0);
        assert_eq!(scan.diverged(), 0);
    }

    #[test]
    #[should_panic(expected = "full clean trace")]
    fn batch_context_rejects_partial_traces() {
        let m = sum16();
        let snap = Vm::new(VmConfig::default())
            .snapshot_at(&m, 2)
            .unwrap()
            .expect("mid-run step");
        let suffix = Vm::new(VmConfig::tracing())
            .resume_from_decoded(&m, &DecodedModule::decode(&m), &snap)
            .unwrap();
        let _ = BatchContext::new(&suffix);
    }
}
