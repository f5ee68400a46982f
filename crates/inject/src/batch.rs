//! Batched lockstep campaign execution against the clean run.
//!
//! A fault-injection campaign spends most of its wall time re-discovering the
//! same fact: the common *masked* fault never influences anything the clean
//! run did not already compute.  This module runs K injections of one site
//! class in lockstep **against the clean trace** instead of as K separate
//! executions.  Each injection becomes a *lane* watching the single location
//! its bit flip corrupted; one sweep over the clean events advances every
//! lane at once, and a per-lane divergence bitmask records which lanes ever
//! *read* their corrupted location.  Lanes that never diverge are classified
//! from a synthesized run result — the clean outcome with at most one memory
//! cell re-flipped — at the cost of a memory clone instead of a whole
//! execution; diverged lanes peel off into the ordinary forked
//! (checkpoint-restoring) or cold executor, so the report stays bit-identical
//! to [`Campaign::run_range`] / [`Campaign::run_range_from`].
//!
//! # Why the sweep is sound
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
//! result flipped onto the branch actually taken) costs a peeled execution,
//! never a wrong verdict.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::OnceLock;

use ftkr_vm::{
    EventKind, FaultSpec, FaultTarget, LocationId, RunResult, Trace, Value, VmSnapshot,
};

use crate::campaign::{sample_site_fault, Campaign, CampaignReport, TestOutcome};
use crate::chaos::FailSite;
use crate::outcome::Outcome;
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
    /// partial (windowed or resumed) trace: the sweep must see *every*
    /// dynamic step of the run to know a lane never diverged.
    pub fn new(clean: &'a RunResult) -> Self {
        assert!(
            clean.outcome.is_completed(),
            "batched campaigns need a completed clean run"
        );
        let trace = clean
            .trace
            .as_ref()
            .expect("batched campaigns need the traced clean run");
        assert_eq!(
            trace.base_step(),
            0,
            "batched campaigns need the full clean trace, not a resumed suffix"
        );
        assert_eq!(
            trace.len(),
            clean.steps as usize,
            "batched campaigns need the full clean trace, not a windowed slice"
        );
        let loc_addr = trace.locations().iter().map(|l| l.mem_addr()).collect();
        BatchContext {
            clean,
            trace,
            loc_addr,
        }
    }

    /// The clean run the sweep compares against.
    pub fn clean(&self) -> &RunResult {
        self.clean
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
    /// index; the lane peels off into real (forked or cold) execution.
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

/// The result of one lockstep sweep: per-lane divergence verdicts for a
/// contiguous index range of a campaign, plus the packed divergence bitmask
/// (bit `(i - range.start) % 64` of word `(i - range.start) / 64` is set when
/// test `i` diverged).
pub struct BatchScan {
    range: IndexRange,
    lanes: Vec<LaneState>,
    masks: Vec<u64>,
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
                                None => Pending::Reg {
                                    loc,
                                    from: pos + 1,
                                },
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

        let mut masks = vec![0u64; n.div_ceil(64)];
        let lanes: Vec<LaneState> = pending
            .iter()
            .enumerate()
            .map(|(lane, p)| match *p {
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
                Pending::Diverged { at_event } => {
                    masks[lane / 64] |= 1u64 << (lane % 64);
                    LaneState::Diverged { at_event }
                }
            })
            .collect();

        BatchScan {
            range,
            lanes,
            masks,
        }
    }

    /// The campaign index range the lanes cover.
    pub fn range(&self) -> IndexRange {
        self.range
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

    /// The packed divergence bitmask: bit `(i - range.start) % 64` of word
    /// `(i - range.start) / 64` is set when test `i` diverged.
    pub fn divergence_masks(&self) -> &[u64] {
        &self.masks
    }

    /// Number of lanes that never diverged (classified without execution).
    pub fn masked(&self) -> u64 {
        self.range.len() - self.diverged()
    }

    /// Number of lanes that diverged (peeled into real execution).
    pub fn diverged(&self) -> u64 {
        self.masks.iter().map(|w| w.count_ones() as u64).sum()
    }
}

impl<'m, F> Campaign<'m, F>
where
    F: Fn(&RunResult) -> bool + Sync,
{
    /// Run one index-range shard of a campaign in batched lockstep mode:
    /// every sampled fault is first swept against the clean run
    /// ([`BatchScan::sweep`]); lanes that never diverge are classified from a
    /// synthesized clean-equivalent result, and diverged lanes peel off into
    /// the forked executor (when `snapshot` is given) or the cold executor.
    /// The report is bit-identical to [`Campaign::run_range`] /
    /// [`Campaign::run_range_from`] over the same sites, range and seed —
    /// including under armed chaos (restore fail points fire per index for
    /// masked lanes exactly as they would for real forked restores).
    ///
    /// # Panics
    /// Panics when the campaign's step budget does not cover the clean run
    /// (a masked lane would then hang in serial mode but complete here), and
    /// — with a snapshot, per test — when a sampled fault precedes the
    /// checkpoint, exactly like [`Campaign::run_range_from`].
    pub fn run_range_batched(
        &self,
        sites: &[FaultSite],
        range: IndexRange,
        ctx: &BatchContext<'_>,
        snapshot: Option<&VmSnapshot>,
    ) -> CampaignReport {
        if sites.is_empty() || range.is_empty() {
            return self.run_range_by(sites, range, |_, _| {
                unreachable!("empty campaigns run no tests")
            });
        }
        assert!(
            self.max_steps >= ctx.clean.steps,
            "batched campaign step budget {} does not cover the {}-step clean run",
            self.max_steps,
            ctx.clean.steps
        );
        let scan = BatchScan::sweep(self.seed, sites, range, ctx);
        // Every `MaskedClean` lane synthesizes the *same* run result — the
        // clean run, byte for byte — so its verifier verdict is computed once
        // and shared across lanes (the verifier is a pure function of the run
        // result; per-index chaos fail points still fire per lane).
        let clean_pass: OnceLock<bool> = OnceLock::new();
        self.run_range_by(sites, range, |index, fault| {
            if let Some(snap) = snapshot {
                // Parity with `run_range_from`: every sampled fault — masked
                // lanes included — must lie at or after the checkpoint.
                assert!(
                    fault.at_step >= snap.step(),
                    "fault at step {} precedes the checkpoint at step {}: \
                     it cannot strike in a forked run",
                    fault.at_step,
                    snap.step()
                );
            }
            match *scan.lane(index) {
                LaneState::Diverged { .. } => match snapshot {
                    Some(snap) => self.test_forked(Some(index), snap, fault),
                    None => self.test_cold(index, fault),
                },
                LaneState::MaskedClean => {
                    self.test_masked(ctx, index, fault, snapshot, None, &clean_pass)
                }
                LaneState::MaskedPoke { addr, value } => {
                    self.test_masked(ctx, index, fault, snapshot, Some((addr, value)), &clean_pass)
                }
            }
        })
    }

    /// Classify a masked lane from a synthesized run result, mirroring the
    /// executor the lane would otherwise have used: with a snapshot the
    /// restore fail point fires per index (and a tripped lane degrades to
    /// the cold executor with the same bookkeeping as a failed real
    /// restore); without one the classification is the cold path's.  A lane
    /// without a poke synthesizes the clean run itself, so its verifier
    /// verdict comes from the shared `clean_pass` cell instead of a fresh
    /// memory clone per lane.
    fn test_masked(
        &self,
        ctx: &BatchContext<'_>,
        index: u64,
        fault: FaultSpec,
        snapshot: Option<&VmSnapshot>,
        poke: Option<(u64, Value)>,
        clean_pass: &OnceLock<bool>,
    ) -> TestOutcome {
        let synthesize = |poke: Option<(u64, Value)>| {
            let mut memory = ctx.clean.memory.clone();
            if let Some((addr, value)) = poke {
                memory.poke(addr, value);
            }
            RunResult {
                outcome: ctx.clean.outcome,
                steps: ctx.clean.steps,
                outputs: ctx.clean.outputs.clone(),
                memory,
                trace: None,
            }
        };
        if snapshot.is_some()
            && catch_unwind(AssertUnwindSafe(|| {
                self.chaos.trip(FailSite::RestoreCheckpoint, index);
            }))
            .is_err()
        {
            let outcome = match self.cold_result(fault) {
                Some(result) => self.classify(result, Some(index)),
                None => Outcome::HarnessError,
            };
            return TestOutcome {
                outcome,
                degraded: true,
            };
        }
        // Mirrors `Campaign::classify` on the synthesized result, whose
        // outcome is always `Completed` (the clean run completed): the
        // verifier fail point fires per index, and a panicking verifier is
        // contained as a harness error.
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            self.chaos.trip(FailSite::Verifier, index);
            let pass = match poke {
                Some(_) => (self.verify)(&synthesize(poke)),
                None => *clean_pass.get_or_init(|| (self.verify)(&synthesize(None))),
            };
            if pass {
                Outcome::VerificationSuccess
            } else {
                Outcome::VerificationFailed
            }
        }))
        .unwrap_or(Outcome::HarnessError);
        outcome.into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::hang_budget_for;
    use crate::chaos::FailPlan;
    use crate::sites::{input_sites, internal_sites};
    use ftkr_ir::prelude::*;
    use ftkr_ir::Global;
    use ftkr_vm::{Location, Vm, VmConfig};

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

    fn verify_sum16(result: &RunResult) -> bool {
        result
            .global_f64("total")
            .map(|v| (v[0] - 16.0).abs() / 16.0 < 0.05)
            .unwrap_or(false)
    }

    /// A program rich in masked lanes: a dead intermediate result, a dead
    /// store (overwritten before any load), and a global cell (`out[1]`)
    /// that nothing ever touches — input faults there survive as
    /// `MaskedPoke` lanes, and the bit-exact verifier below notices them.
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

    /// Bit-exact on the untouched cell: `out[1]` must still be +0.0 — a
    /// synthesized masked result that forgot the poke would wrongly pass.
    fn verify_deadstore(result: &RunResult) -> bool {
        result
            .global_f64("out")
            .map(|v| v[0] == 6.25 && v[1].to_bits() == 0)
            .unwrap_or(false)
    }

    fn clean_run(module: &Module) -> RunResult {
        Vm::new(VmConfig::tracing()).run(module).unwrap()
    }

    #[test]
    fn batched_cold_campaign_is_bit_identical_to_serial() {
        let m = sum16();
        let clean = clean_run(&m);
        let trace = clean.trace.as_ref().unwrap();
        let sites = internal_sites(trace, 0, trace.len());
        let campaign = Campaign::new(&m, verify_sum16)
            .with_seed(21)
            .with_max_steps(hang_budget_for(&clean));
        let ctx = BatchContext::new(&clean);
        let serial = campaign.run_range(&sites, IndexRange::full(160));
        let batched = campaign.run_range_batched(&sites, IndexRange::full(160), &ctx, None);
        assert_eq!(batched, serial);
    }

    #[test]
    fn masked_lanes_are_synthesized_and_still_bit_identical() {
        let m = deadstore();
        let clean = clean_run(&m);
        let trace = clean.trace.as_ref().unwrap();
        let sites = internal_sites(trace, 0, trace.len());
        let campaign = Campaign::new(&m, verify_deadstore)
            .with_seed(5)
            .with_max_steps(hang_budget_for(&clean));
        let ctx = BatchContext::new(&clean);
        let range = IndexRange::full(192);
        let scan = BatchScan::sweep(21, &sites, range, &ctx);
        let _ = scan; // seed below differs; this just exercises sweep reuse
        let scan = BatchScan::sweep(5, &sites, range, &ctx);
        // The program is built to have both kinds of lanes.
        assert!(scan.masked() > 0, "dead results/stores must mask");
        assert!(scan.diverged() > 0, "live dataflow must diverge");
        assert_eq!(scan.masked() + scan.diverged(), range.len());
        let serial = campaign.run_range(&sites, range);
        let batched = campaign.run_range_batched(&sites, range, &ctx, None);
        assert_eq!(batched, serial);
        // Mixed outcomes prove the masked short-cut classifies, not rubber-
        // stamps.
        assert!(serial.counts.success > 0);
        assert!(serial.counts.total() > serial.counts.success);
    }

    #[test]
    fn surviving_memory_cell_lanes_reconstruct_the_faulty_image() {
        let m = deadstore();
        let clean = clean_run(&m);
        // Input faults on the never-touched cell `out[1]` (addr 1): every
        // lane survives the sweep as `MaskedPoke`, and the bit-exact
        // verifier fails exactly as it does for the real executions.
        let sites = input_sites(0, &[(Location::mem(1), Value::F(0.0))]);
        let campaign = Campaign::new(&m, verify_deadstore)
            .with_seed(7)
            .with_max_steps(hang_budget_for(&clean));
        let ctx = BatchContext::new(&clean);
        let range = IndexRange::full(64);
        let scan = BatchScan::sweep(7, &sites, range, &ctx);
        assert_eq!(scan.diverged(), 0, "nothing ever reads out[1]");
        assert!(scan
            .divergence_masks()
            .iter()
            .all(|&w| w == 0));
        let serial = campaign.run_range(&sites, range);
        let batched = campaign.run_range_batched(&sites, range, &ctx, None);
        assert_eq!(batched, serial);
        // A flipped +0.0 is never bit-zero again, so the verifier fails every
        // test on both paths — the poke is load-bearing.
        assert_eq!(serial.counts.failed, 64);
        assert_eq!(serial.counts.success, 0);
    }

    #[test]
    fn batched_forked_campaign_matches_run_range_from() {
        let m = sum16();
        let clean = clean_run(&m);
        let trace = clean.trace.as_ref().unwrap();
        let window_start = trace.len() / 2;
        let sites = internal_sites(trace, window_start, trace.len());
        let fork = sites.iter().map(|s| s.at_step).min().unwrap();
        let snapshot = Vm::new(VmConfig::default())
            .snapshot_at(&m, fork)
            .unwrap()
            .expect("fork step is mid-run");
        let campaign = Campaign::new(&m, verify_sum16)
            .with_seed(99)
            .with_max_steps(hang_budget_for(&clean));
        let ctx = BatchContext::new(&clean);
        let cold = campaign.run_range(&sites, IndexRange::full(120));
        let forked = campaign
            .run_range_from(&sites, IndexRange::full(120), &snapshot)
            .unwrap();
        let batched =
            campaign.run_range_batched(&sites, IndexRange::full(120), &ctx, Some(&snapshot));
        assert_eq!(batched, forked);
        assert_eq!(batched, cold);
        assert_eq!(batched.counts.degraded, 0, "no chaos: no degradation");
    }

    #[test]
    fn batched_shards_merge_bit_identically_to_the_monolithic_report() {
        let m = sum16();
        let clean = clean_run(&m);
        let trace = clean.trace.as_ref().unwrap();
        let sites = internal_sites(trace, 0, trace.len());
        let campaign = Campaign::new(&m, verify_sum16)
            .with_seed(1234)
            .with_max_steps(hang_budget_for(&clean));
        let ctx = BatchContext::new(&clean);
        let monolithic = campaign.run_range_batched(&sites, IndexRange::full(60), &ctx, None);
        let shards = [
            IndexRange::new(0, 1),
            IndexRange::new(1, 44),
            IndexRange::new(44, 60),
        ];
        let merged = shards
            .iter()
            .map(|&r| campaign.run_range_batched(&sites, r, &ctx, None))
            .reduce(|a, b| a.merge(&b))
            .unwrap();
        assert_eq!(merged, monolithic);
        assert_eq!(monolithic, campaign.run_range(&sites, IndexRange::full(60)));
    }

    #[test]
    fn chaos_restore_failures_degrade_masked_lanes_like_real_forks() {
        let m = sum16();
        let clean = clean_run(&m);
        let trace = clean.trace.as_ref().unwrap();
        let window_start = trace.len() / 2;
        let sites = internal_sites(trace, window_start, trace.len());
        let fork = sites.iter().map(|s| s.at_step).min().unwrap();
        let snapshot = Vm::new(VmConfig::default())
            .snapshot_at(&m, fork)
            .unwrap()
            .expect("fork step is mid-run");
        let max_steps = hang_budget_for(&clean);
        let ctx = BatchContext::new(&clean);
        let chaos = FailPlan {
            restore_fail: 512,
            ..FailPlan::uniform(3, 0)
        };
        let reference = Campaign::new(&m, verify_sum16)
            .with_seed(11)
            .with_max_steps(max_steps)
            .with_chaos(chaos)
            .run_range_from(&sites, IndexRange::full(48), &snapshot)
            .unwrap();
        let batched = Campaign::new(&m, verify_sum16)
            .with_seed(11)
            .with_max_steps(max_steps)
            .with_chaos(chaos)
            .run_range_batched(&sites, IndexRange::full(48), &ctx, Some(&snapshot));
        // Same fail schedule → same degradations, same outcomes, bit for bit.
        assert_eq!(batched, reference);
        assert!(batched.counts.degraded > 0, "{:?}", batched.counts);
    }

    #[test]
    fn chaos_verifier_panics_taint_batched_and_serial_identically() {
        let m = deadstore();
        let clean = clean_run(&m);
        let trace = clean.trace.as_ref().unwrap();
        let sites = internal_sites(trace, 0, trace.len());
        let chaos = FailPlan {
            verifier_panic: 512,
            ..FailPlan::uniform(77, 0)
        };
        let campaign = Campaign::new(&m, verify_deadstore)
            .with_seed(5)
            .with_max_steps(hang_budget_for(&clean))
            .with_chaos(chaos);
        let ctx = BatchContext::new(&clean);
        let serial = campaign.run(&sites, 64);
        let batched = campaign.run_range_batched(&sites, IndexRange::full(64), &ctx, None);
        assert_eq!(batched, serial);
        assert!(batched.counts.harness_errors > 0);
    }

    #[test]
    #[should_panic(expected = "precedes the checkpoint")]
    fn batched_forked_mode_rejects_faults_before_the_checkpoint() {
        let m = sum16();
        let clean = clean_run(&m);
        let trace = clean.trace.as_ref().unwrap();
        let sites = internal_sites(trace, 0, trace.len());
        let snapshot = Vm::new(VmConfig::default())
            .snapshot_at(&m, trace.len() as u64 / 2)
            .unwrap()
            .unwrap();
        let campaign =
            Campaign::new(&m, verify_sum16).with_max_steps(hang_budget_for(&clean));
        let ctx = BatchContext::new(&clean);
        // Whole-trace sites sample faults inside the restored prefix; the
        // batched forked mode must reject them as loudly as the serial one.
        let _ =
            campaign.run_range_batched(&sites, IndexRange::full(32), &ctx, Some(&snapshot));
    }

    #[test]
    fn empty_sites_yield_an_empty_report_without_sweeping() {
        let m = sum16();
        let clean = clean_run(&m);
        let campaign = Campaign::new(&m, verify_sum16).with_max_steps(hang_budget_for(&clean));
        let ctx = BatchContext::new(&clean);
        let report = campaign.run_range_batched(&[], IndexRange::full(100), &ctx, None);
        assert_eq!(report.n_tests, 0);
        assert_eq!(report.counts.total(), 0);
    }

    #[test]
    #[should_panic(expected = "full clean trace")]
    fn batch_context_rejects_partial_traces() {
        let m = sum16();
        let windowed = Vm::new(VmConfig::tracing_region(2, 6)).run(&m).unwrap();
        let _ = BatchContext::new(&windowed);
    }
}
