//! The fused per-injection analysis pipeline: ACL taint tracking and all six
//! pattern detectors evaluated in **one** walk over the faulty events.
//!
//! The retired legacy path (`detect_all`, deleted after one deprecation PR)
//! ran six independent detectors, each scanning the full faulty trace and
//! each re-deriving the same aligned-clean lookups and taint queries — seven
//! passes per injection counting the ACL build.  Here a single detector bank
//! consumes each event once, sharing one taint verdict and one aligned-clean
//! resolution per event, with dense [`LocationId`]-indexed state instead of
//! per-detector hash maps.  Two drivers feed it:
//!
//! * [`FusedInjection`] — a [`TraceVisitor`] over a **materialized** faulty
//!   trace that additionally builds the full [`AclTable`] via the exact
//!   [`TaintSweep`]; its table is bit-identical to [`AclTable::build`] and
//!   its instances to the streaming walk, which the workspace property
//!   tests enforce.
//! * [`StreamingDetector`] — a [`TraceVisitor`] for
//!   [`ftkr_vm::Vm::run_with_visitors_decoded`] that tracks taint
//!   forward-only (no future knowledge exists in a live run) and defers
//!   never-used-again deaths to the end of the run; it detects the same
//!   pattern instances *without materializing the faulty trace at all*, in
//!   O(locations) memory.
//!
//! Why forward-only taint is enough for patterns: a location leaves the
//! exact ACL alive-set at its *final* access, so keeping it in the set past
//! that point can never change a later taint query (there are no later
//! accesses) — only the death log differs, and the streaming detector
//! reconstructs exactly those deaths from per-location last-access
//! bookkeeping when the run ends.

use ftkr_acl::{AclTable, DeathCause, TaintSweep};
use ftkr_ir::{FunctionId, OutputFormat};
use ftkr_vm::output::format_value;
use ftkr_vm::{
    EventCtx, EventKind, FaultSpec, FaultTarget, Location, LocationId, Trace, TraceEvent,
    TraceVisitor, Value, WalkEnd, Watch,
};

use crate::kinds::{PatternInstance, PatternKind};

/// Sentinel for "not seen" in the dense per-location tables; also the
/// "no chain" entry a [`Watch`] reads from `chain_of`.
const NEVER: u32 = Watch::NO_CHAIN;

/// The clean-trace event aligned with faulty event `idx`, if the traces
/// still agree on which static instruction executes there.
#[inline]
fn aligned_clean<'a>(clean: &'a Trace, idx: usize, event: &TraceEvent) -> Option<&'a TraceEvent> {
    clean
        .events
        .get(idx)
        .filter(|c| c.inst == event.inst && c.func == event.func)
}

/// What a found instance's `detail` will say.  Kept unformatted until
/// [`DetectorBank::finish`]: a campaign tally needs only the kinds.
#[derive(Clone, Copy)]
enum Detail {
    Text(&'static str),
    Overwritten(Location),
    Aggregated(Location),
    /// Index into [`DetectorBank::chains`].
    Chain(usize),
}

/// One found instance, before formatting.
#[derive(Clone, Copy)]
struct Found {
    kind: PatternKind,
    event: usize,
    line: u32,
    func: FunctionId,
    detail: Detail,
}

fn found(kind: PatternKind, event: usize, line: u32, func: FunctionId, detail: Detail) -> Found {
    Found {
        kind,
        event,
        line,
        func,
        detail,
    }
}

/// One Repeated-Additions chain: read-modify-write updates to a single
/// memory cell while its dataflow is corrupted (dense replacement for the
/// legacy per-address hash map).
#[derive(Clone)]
struct RaChain {
    addr: u64,
    first_err: f64,
    last_err: f64,
    last_event: usize,
    last_line: u32,
    last_func: FunctionId,
    updates: u32,
    saw_self_load: bool,
}

/// All six pattern detectors, fused: one `on_event` call per faulty event
/// plus death notifications from whichever taint tracker drives the bank.
///
/// Instances are collected per kind and assembled by [`DetectorBank::finish`]
/// in the concatenation order the deleted legacy `detect_all` used, so the
/// output ordering contract survives it — pinned today by the
/// golden-snapshot tests in `crates/patterns/tests/golden_scenarios.rs`.
#[derive(Clone)]
struct DetectorBank {
    /// Per location id: last `Load` event that read this memory cell.
    last_load: Vec<u32>,
    /// Per location id: index into `chains`, or `NEVER`.
    chain_of: Vec<u32>,
    /// Bitmap: is location id a memory cell?  Avoids re-resolving locations
    /// on the load-tracking hot path.
    mem_mask: Vec<u64>,
    chains: Vec<RaChain>,
    /// Every instance found so far but Repeated Additions (those come from
    /// `chains` at the end), in the order found.
    found: Vec<Found>,
}

impl DetectorBank {
    fn new() -> DetectorBank {
        DetectorBank {
            last_load: Vec::new(),
            chain_of: Vec::new(),
            mem_mask: Vec::new(),
            chains: Vec::new(),
            found: Vec::new(),
        }
    }

    fn grow(&mut self, locations: &[Location]) {
        let known = self.last_load.len();
        if known < locations.len() {
            self.last_load.resize(locations.len(), NEVER);
            self.chain_of.resize(locations.len(), NEVER);
            self.mem_mask.resize(locations.len().div_ceil(64), 0);
            for (i, loc) in locations.iter().enumerate().skip(known) {
                if loc.is_mem() {
                    self.mem_mask[i / 64] |= 1u64 << (i % 64);
                }
            }
        }
    }

    #[inline]
    fn is_mem(&self, id: LocationId) -> bool {
        let i = id.index();
        self.mem_mask[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Pre-fault fast path: before the first possible seed corruption no
    /// taint exists, so the only bookkeeping a later detector can depend on
    /// is the last-load table (RA's read-modify-write evidence reaches back
    /// before the fault).  The tables grow on every event, so they cover
    /// the whole location table for the [`Watch`]'s `known`.
    #[inline]
    fn track_prefix(
        &mut self,
        idx: usize,
        event: &TraceEvent,
        reads: &[(LocationId, Value)],
        locations: &[Location],
    ) {
        self.grow(locations);
        if matches!(event.kind, EventKind::Load) {
            for &(id, _) in reads {
                if self.is_mem(id) {
                    self.last_load[id.index()] = idx as u32;
                }
            }
        }
    }

    /// Evaluate the inline detectors (RA bookkeeping, CS, Shifting,
    /// Truncation) on one faulty event.  `reads_tainted` is the shared taint
    /// verdict; the aligned clean event is resolved at most once per event,
    /// and only for events that need it.
    fn on_event(
        &mut self,
        idx: usize,
        event: &TraceEvent,
        reads: &[(LocationId, Value)],
        locations: &[Location],
        reads_tainted: bool,
        clean: &Trace,
    ) {
        self.grow(locations);

        match event.kind {
            EventKind::Load => {
                // Remember the last load of each memory cell (RA's
                // read-modify-write evidence).
                for &(id, _) in reads {
                    if self.is_mem(id) {
                        self.last_load[id.index()] = idx as u32;
                    }
                }
            }
            EventKind::Store => {
                self.ra_store(idx, event, locations, reads_tainted, clean);
            }
            _ => {}
        }

        if !reads_tainted {
            return;
        }
        // The clean event at the same dynamic index, if the traces still
        // agree on which static instruction executes there.
        let Some(clean_ev) = aligned_clean(clean, idx, event) else {
            return;
        };

        match (&event.kind, &clean_ev.kind) {
            // Pattern 3 — Conditional Statements: corrupted operand, same
            // comparison/branch outcome as the fault-free run.
            (EventKind::Cmp { result: fr, .. }, EventKind::Cmp { result: cr, .. }) if fr == cr => {
                self.found.push(found(
                    PatternKind::ConditionalStatement,
                    idx,
                    event.line,
                    event.func,
                    Detail::Text("corrupted operand, unchanged comparison outcome"),
                ));
            }
            (EventKind::CondBr { taken: ft }, EventKind::CondBr { taken: ct }) if ft == ct => {
                self.found.push(found(
                    PatternKind::ConditionalStatement,
                    idx,
                    event.line,
                    event.func,
                    Detail::Text("corrupted operand, unchanged comparison outcome"),
                ));
            }
            // Pattern 4 — Shifting: the corrupted bits were shifted out.
            (EventKind::Bin(kind), _) if kind.is_shift() => {
                if let (Some(fv), Some(cv)) = (event.written_value(), clean_ev.written_value()) {
                    if fv.bit_eq(cv) {
                        self.found.push(found(
                            PatternKind::Shifting,
                            idx,
                            event.line,
                            event.func,
                            Detail::Text("corrupted bits eliminated by shift"),
                        ));
                    }
                }
            }
            // Pattern 5 — Truncation: a precision-losing conversion or a
            // formatted output drops the corrupted bits.
            (EventKind::Cast(kind), EventKind::Cast(_)) if kind.is_truncating() => {
                if let (Some(fv), Some(cv)) = (event.written_value(), clean_ev.written_value()) {
                    if fv.bit_eq(cv) {
                        self.found.push(found(
                            PatternKind::Truncation,
                            idx,
                            event.line,
                            event.func,
                            Detail::Text("corrupted bits removed by truncating conversion"),
                        ));
                    }
                }
            }
            (EventKind::Output { format }, EventKind::Output { .. })
                if *format != OutputFormat::Full =>
            {
                if let (Some(&(_, fv)), Some(&(_, cv))) =
                    (reads.first(), clean.reads_of(clean_ev).first())
                {
                    if !fv.bit_eq(cv) && format_value(fv, *format) == format_value(cv, *format) {
                        self.found.push(found(
                            PatternKind::Truncation,
                            idx,
                            event.line,
                            event.func,
                            Detail::Text("corrupted bits not visible in formatted output"),
                        ));
                    }
                }
            }
            _ => {}
        }
    }

    /// Pattern 2 bookkeeping — Repeated Additions: track store chains to
    /// memory cells whose dataflow is corrupted.
    fn ra_store(
        &mut self,
        idx: usize,
        event: &TraceEvent,
        locations: &[Location],
        reads_tainted: bool,
        clean: &Trace,
    ) {
        let Some((wid, stored)) = event.write else {
            return;
        };
        // Common case first: an untainted store to a cell with no chain is
        // free of interest — bail before resolving anything.
        let chain_slot = self.chain_of[wid.index()];
        if !reads_tainted && chain_slot == NEVER {
            return;
        }
        let Some(addr) = locations[wid.index()].mem_addr() else {
            return;
        };
        let Some(clean_ev) = aligned_clean(clean, idx, event) else {
            return;
        };
        let Some(clean_val) = clean_ev.written_value() else {
            return;
        };
        let err = stored.error_magnitude(clean_val);
        let chain_idx = if chain_slot != NEVER {
            chain_slot as usize
        } else {
            self.chain_of[wid.index()] = self.chains.len() as u32;
            self.chains.push(RaChain {
                addr,
                first_err: 0.0,
                last_err: 0.0,
                last_event: 0,
                last_line: 0,
                last_func: event.func,
                updates: 0,
                saw_self_load: false,
            });
            self.chains.len() - 1
        };
        let chain = &mut self.chains[chain_idx];
        // A read-modify-write update loads the same address between the
        // previous store of the chain and this one.
        let prev_store = if chain.updates > 0 {
            chain.last_event
        } else {
            0
        };
        let ll = self.last_load[wid.index()] as usize;
        if ll >= prev_store && ll < idx {
            chain.saw_self_load = true;
        }
        if chain.updates == 0 {
            chain.first_err = err;
        }
        chain.last_err = err;
        chain.last_event = idx;
        chain.last_line = event.line;
        chain.last_func = event.func;
        chain.updates += 1;
    }

    /// Pattern 6 — Data Overwriting: a corrupted location was overwritten
    /// with a value not derived from corrupted data (notified by the taint
    /// tracker at the overwrite event).
    fn on_overwrite_death(
        &mut self,
        event: usize,
        location: Location,
        line: u32,
        func: FunctionId,
    ) {
        self.found.push(found(
            PatternKind::DataOverwriting,
            event,
            line,
            func,
            Detail::Overwritten(location),
        ));
    }

    /// Pattern 1 — Dead Corrupted Locations: a corrupted location died by
    /// never being referenced again.  `consumed_and_aggregated` says whether
    /// the death event read the location and wrote a *different* one (the
    /// aggregation signature); notified in death order by the taint tracker.
    fn on_dead_location(
        &mut self,
        event: usize,
        location: Location,
        line: u32,
        func: FunctionId,
        consumed_and_aggregated: bool,
    ) {
        if consumed_and_aggregated {
            self.found.push(found(
                PatternKind::DeadCorruptedLocations,
                event,
                line,
                func,
                Detail::Aggregated(location),
            ));
        }
    }

    /// The Repeated-Additions chains that amortized their error: two or
    /// more read-modify-write updates and a shrinking error magnitude.
    fn ra_found(&self) -> impl Iterator<Item = Found> + '_ {
        self.chains.iter().enumerate().filter_map(|(i, chain)| {
            let amortized = chain.saw_self_load
                && chain.updates >= 2
                && chain.first_err > 0.0
                && chain.last_err < chain.first_err;
            amortized.then(|| {
                found(
                    PatternKind::RepeatedAdditions,
                    chain.last_event,
                    chain.last_line,
                    chain.last_func,
                    Detail::Chain(i),
                )
            })
        })
    }

    /// How many instances of each kind [`DetectorBank::finish`] would
    /// return, without formatting them.
    fn kind_counts(&self) -> [(PatternKind, usize); 6] {
        let mut counts = PatternKind::ALL.map(|kind| (kind, 0));
        for f in self.found.iter().copied().chain(self.ra_found()) {
            if let Some((_, n)) = counts.iter_mut().find(|(kind, _)| *kind == f.kind) {
                *n += 1;
            }
        }
        counts
    }

    fn instance(&self, f: Found) -> PatternInstance {
        let detail = match f.detail {
            Detail::Text(text) => text.to_string(),
            Detail::Overwritten(location) => {
                format!("corrupted {location} overwritten with clean value")
            }
            Detail::Aggregated(location) => format!("corrupted {location} aggregated and dead"),
            Detail::Chain(i) => {
                let chain = &self.chains[i];
                format!(
                    "m[{}]: error magnitude {:.3e} -> {:.3e} over {} updates",
                    chain.addr, chain.first_err, chain.last_err, chain.updates
                )
            }
        };
        PatternInstance {
            kind: f.kind,
            event: f.event,
            line: f.line,
            func: f.func,
            detail,
        }
    }

    /// Assemble and format the findings in the order the deleted legacy
    /// `detect_all` produced: stably sorted by `(event, kind)`, instances
    /// of one kind at one event in the order found (RA in chain order) —
    /// the ordering the golden-snapshot tests pin.
    fn finish(&self) -> Vec<PatternInstance> {
        let mut out: Vec<Found> = self.found.iter().copied().chain(self.ra_found()).collect();
        out.sort_by_key(|f| (f.event, f.kind));
        out.into_iter().map(|f| self.instance(f)).collect()
    }
}

/// Result of one fused per-injection analysis over a materialized trace
/// pair: the ACL table and the detected pattern instances, from one walk.
#[derive(Debug, Clone)]
pub struct FusedAnalysis {
    /// The ACL table of the faulty run (bit-identical to
    /// [`AclTable::build`]).
    pub acl: AclTable,
    /// The detected pattern instances (bit-identical to a patterns-only
    /// [`StreamingDetector`] walk).
    pub patterns: Vec<PatternInstance>,
}

/// The fused materialized-mode visitor: exact ACL sweep + all six detectors
/// over one [`ftkr_vm::EventCursor`] walk of the faulty trace.
pub struct FusedInjection<'c> {
    clean: &'c Trace,
    sweep: TaintSweep,
    table: AclTable,
    bank: DetectorBank,
}

impl<'c> FusedInjection<'c> {
    /// A fused analysis of `faulty` (to be walked) against the matching
    /// fault-free `clean` trace, with explicit seed corruptions.
    pub fn new(faulty: &Trace, clean: &'c Trace, seeds: &[(usize, Location)]) -> Self {
        FusedInjection {
            clean,
            sweep: TaintSweep::new(faulty, seeds),
            table: AclTable {
                counts: Vec::with_capacity(faulty.len()),
                tainted_reads: Vec::with_capacity(faulty.len()),
                ..Default::default()
            },
            bank: DetectorBank::new(),
        }
    }

    /// Seeds derived from a [`FaultSpec`], as [`AclTable::from_fault`] does.
    pub fn for_fault(faulty: &Trace, clean: &'c Trace, fault: &FaultSpec) -> Self {
        let seeds = AclTable::fault_seeds(faulty, fault);
        FusedInjection::new(faulty, clean, &seeds)
    }

    /// The finished analysis (valid after the cursor delivered `on_finish`).
    pub fn into_analysis(self) -> FusedAnalysis {
        FusedAnalysis {
            acl: self.table,
            patterns: self.bank.finish(),
        }
    }
}

impl TraceVisitor for FusedInjection<'_> {
    fn on_event(&mut self, ctx: &EventCtx<'_>) {
        let st = self.sweep.step(
            ctx.index,
            ctx.event,
            ctx.reads,
            ctx.locations,
            &mut self.table,
        );

        // Death notifications, in the exact order the sweep logged them.
        for d in &self.table.deaths[st.deaths.clone()] {
            match d.cause {
                DeathCause::Overwritten => {
                    self.bank
                        .on_overwrite_death(d.event, d.location, d.line, ctx.event.func)
                }
                DeathCause::NeverUsedAgain => {
                    let consumed = ctx
                        .reads
                        .iter()
                        .any(|&(id, _)| ctx.locations[id.index()] == d.location);
                    let aggregated = matches!(
                        ctx.written_location(),
                        Some(w) if w != d.location
                    );
                    self.bank.on_dead_location(
                        d.event,
                        d.location,
                        d.line,
                        ctx.event.func,
                        consumed && aggregated,
                    );
                }
            }
        }

        self.bank.on_event(
            ctx.index,
            ctx.event,
            ctx.reads,
            ctx.locations,
            st.reads_tainted,
            self.clean,
        );
    }

    fn on_finish(&mut self, end: &WalkEnd<'_>) {
        self.sweep.finish(end.locations, &mut self.table);
    }
}

/// Run the fused analysis over a materialized faulty/clean trace pair: one
/// walk producing the ACL table **and** all pattern instances — the table
/// bit-identical to `AclTable::from_fault`, the instances to a
/// patterns-only [`StreamingDetector`] walk.
pub fn analyze_fused(faulty: &Trace, clean: &Trace, fault: &FaultSpec) -> FusedAnalysis {
    let mut fused = FusedInjection::for_fault(faulty, clean, fault);
    ftkr_vm::EventCursor::new(faulty).run(&mut [&mut fused]);
    fused.into_analysis()
}

/// A growable bitmap over the (still-growing) location id space of a
/// streaming run, with a live counter so an empty set costs nothing to
/// query.
#[derive(Clone, Default)]
struct GrowSet {
    words: Vec<u64>,
    alive: u32,
}

impl GrowSet {
    fn is_empty(&self) -> bool {
        self.alive == 0
    }

    fn contains(&self, id: LocationId) -> bool {
        let i = id.index();
        self.words
            .get(i / 64)
            .is_some_and(|w| w & (1u64 << (i % 64)) != 0)
    }

    fn insert(&mut self, id: LocationId) -> bool {
        let i = id.index();
        if i / 64 >= self.words.len() {
            self.words.resize(i / 64 + 1, 0);
        }
        let word = &mut self.words[i / 64];
        let mask = 1u64 << (i % 64);
        if *word & mask != 0 {
            return false;
        }
        *word |= mask;
        self.alive += 1;
        true
    }

    fn remove(&mut self, id: LocationId) -> bool {
        let i = id.index();
        let Some(word) = self.words.get_mut(i / 64) else {
            return false;
        };
        let mask = 1u64 << (i % 64);
        if *word & mask == 0 {
            return false;
        }
        *word &= !mask;
        self.alive -= 1;
        true
    }

    fn iter_set(&self) -> impl Iterator<Item = LocationId> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &bits)| {
            let mut bits = bits;
            std::iter::from_fn(move || {
                if bits == 0 {
                    return None;
                }
                let b = bits.trailing_zeros();
                bits &= bits - 1;
                Some(LocationId((w * 64) as u32 + b))
            })
        })
    }
}

/// Last-access bookkeeping for one (tainted) location: where a deferred
/// never-used-again death would land, and whether that event carries the
/// Dead-Corrupted-Locations signature.
#[derive(Clone, Copy)]
struct AccessMark {
    event: u32,
    line: u32,
    func: FunctionId,
    consumed_and_aggregated: bool,
}

/// The streaming per-injection detector: consumes events straight from the
/// interpreter ([`ftkr_vm::Vm::run_with_visitors_decoded`]) and detects the
/// six patterns **without materializing the faulty trace**.
///
/// Taint is tracked forward-only: clean overwrites remove locations exactly
/// as the exact sweep does, while never-used-again deaths — which need
/// future knowledge — are reconstructed when the run finishes, from the
/// per-location last-access marks.  The resulting [`PatternInstance`] list is
/// bit-identical to the legacy materialized pipeline for full-scope,
/// marker-recording runs (the configuration campaigns use), which the
/// workspace property tests enforce.
///
/// Memory: O(locations touched), independent of the run length.
///
/// # Settling
///
/// The detector is [settled](TraceVisitor::settled) once all four hold:
/// the fault has struck, no location is tainted, no memory seed is pending,
/// and there is no Repeated-Additions chain.  Its output is then frozen:
///
/// * taint is only born from a seed or copied from a tainted read, and no
///   seed can strike again, so every later event reads and writes clean
///   locations;
/// * `on_event` on a clean event with no RA chain can only update the
///   last-load table, and only the RA store path reads that table, which
///   needs a tainted read or an existing chain to get that far;
/// * `on_finish` has no deaths left to add (they come from the taint set),
///   and the finished lists hold only what was already found.
///
/// So a streamed run may stop delivering events from that point on, as
/// [`ftkr_vm::Vm::run_with_visitors_decoded`] does.
/// [`StreamingDetector::events_seen`] then stops at the detach point.
///
/// # Watch
///
/// Before that, the detector [watches](TraceVisitor::watch) for the events
/// it can act on, and a live run streaming to it alone skips the rest.  The
/// watch is the mirror of the quiet-event test (`is_quiet` is its
/// negation, by construction): it wants the strike event, every event while
/// a memory seed is pending, every event that interns a location the bank's
/// tables do not cover yet, every event that reads or writes a tainted
/// location, and every store to a cell a Repeated-Additions chain follows.
/// An event it does not want is either before the fault or quiet, and the
/// only state such an event changes is the last-load entry of a loaded
/// cell, which [`TraceVisitor::on_skipped_load`] records.  Event counts come
/// from indices, so [`StreamingDetector::events_seen`] is the same whether
/// the run skipped events or not.
pub struct StreamingDetector<'c> {
    clean: &'c Trace,
    fault: FaultSpec,
    bank: DetectorBank,
    tainted: GrowSet,
    /// Per-location last-access marks, maintained while tainted.
    marks: Vec<AccessMark>,
    /// Memory-cell seeds that struck before their cell was ever interned.
    pending_mem: Vec<(u64, usize)>,
    /// How much of the location table has been scanned for pending seeds.
    seen_locations: usize,
    /// Ids seeded at the current event (clean-overwrite exemption).
    seeded_now: Vec<LocationId>,
    outcome: Option<ftkr_vm::RunOutcome>,
    events_seen: usize,
    /// `on_finish` has run: the bank holds the final findings.
    finished: bool,
}

impl<'c> StreamingDetector<'c> {
    /// A streaming detector for one injected fault, comparing against the
    /// materialized fault-free `clean` trace of the same program.
    pub fn new(clean: &'c Trace, fault: FaultSpec) -> Self {
        StreamingDetector {
            clean,
            fault,
            bank: DetectorBank::new(),
            tainted: GrowSet::default(),
            marks: Vec::new(),
            pending_mem: Vec::new(),
            seen_locations: 0,
            seeded_now: Vec::new(),
            outcome: None,
            events_seen: 0,
            finished: false,
        }
    }

    /// A prefix-primed detector for fork-point campaign executors: the
    /// fault-free prefix `clean.events[..prefix_events]` is fed through the
    /// cheap prefix path **once**, against the location table as it stood at
    /// the fork point (`prefix_locations` entries).  The primed detector
    /// carries no fault yet; [`StreamingDetector::fork`] clones it per
    /// injection, so a campaign pays the prefix walk once instead of once
    /// per test.
    ///
    /// The resulting state is behaviourally identical to a cold streaming
    /// run's at the fork: only the last-load table, the event counter and
    /// the scanned-locations cursor carry information before a fault
    /// strikes, and all three depend on the prefix events alone.
    pub fn primed(clean: &'c Trace, prefix_events: usize, prefix_locations: usize) -> Self {
        assert!(
            prefix_events <= clean.len(),
            "prefix exceeds the clean trace"
        );
        let locations = &clean.locations()[..prefix_locations];
        // Sentinel fault: no real injection strikes at u64::MAX, so every
        // prefix event takes the pre-fault path.
        let mut primed = StreamingDetector::new(clean, FaultSpec::in_result(u64::MAX, 0));
        for (index, event) in clean.events[..prefix_events].iter().enumerate() {
            primed.on_prefix_event(index, event, clean.reads_of(event), locations);
        }
        // Cover the whole fork-point table, so a fork's watch does not want
        // the first event of every resumed run.
        primed.bank.grow(locations);
        primed
    }

    /// Clone a primed detector for one injection, arming it with `fault`.
    ///
    /// # Panics
    /// Panics when `fault.at_step` precedes the primed prefix: such a fault
    /// would have to strike inside state this detector (and the fork-point
    /// executor it rides) treats as fault-free — rejecting it loudly beats
    /// silently mis-classifying the injection.
    pub fn fork(&self, fault: FaultSpec) -> StreamingDetector<'c> {
        assert!(
            fault.at_step >= self.events_seen as u64,
            "fault at step {} precedes the checkpoint (primed through event {})",
            fault.at_step,
            self.events_seen
        );
        StreamingDetector {
            clean: self.clean,
            fault,
            bank: self.bank.clone(),
            tainted: self.tainted.clone(),
            marks: self.marks.clone(),
            pending_mem: self.pending_mem.clone(),
            seen_locations: self.seen_locations,
            seeded_now: Vec::new(),
            outcome: None,
            events_seen: self.events_seen,
            finished: false,
        }
    }

    /// How the streamed run ended (available after the run).
    pub fn outcome(&self) -> Option<ftkr_vm::RunOutcome> {
        self.outcome
    }

    /// Number of events observed: one past the index of the last event
    /// delivered, raised at the end of the run to [`WalkEnd::events`], so
    /// events a [watch](TraceVisitor::watch) skipped count too, and a
    /// forked detector counts its primed prefix.  A settled detector stops
    /// observing, so after a detached run this stops at the detach point.
    pub fn events_seen(&self) -> usize {
        self.events_seen
    }

    /// The detected pattern instances (available after the run).
    pub fn into_patterns(self) -> Vec<PatternInstance> {
        assert!(
            self.finished,
            "StreamingDetector consumed before the run finished"
        );
        self.bank.finish()
    }

    /// How many instances of each kind [`StreamingDetector::into_patterns`]
    /// returns, in [`PatternKind::ALL`] order, without formatting their
    /// details (available after the run).
    pub fn kind_counts(&self) -> [(PatternKind, usize); 6] {
        assert!(
            self.finished,
            "StreamingDetector counted before the run finished"
        );
        self.bank.kind_counts()
    }

    /// The tables [`TraceVisitor::watch`] publishes; `is_quiet` is their
    /// negation.
    #[inline]
    fn watch_tables(&self) -> Watch<'_> {
        Watch {
            // An empty set publishes no words, so `wants` skips its reads.
            tainted: if self.tainted.is_empty() {
                &[]
            } else {
                &self.tainted.words
            },
            chains: &self.bank.chain_of,
            strike: self.fault.at_step,
            known: self.bank.last_load.len(),
            all: !self.pending_mem.is_empty(),
        }
    }

    fn grow_marks(&mut self, num_locations: usize) {
        if self.marks.len() < num_locations {
            self.marks.resize(
                num_locations,
                AccessMark {
                    event: 0,
                    line: 0,
                    func: FunctionId(0),
                    consumed_and_aggregated: false,
                },
            );
        }
    }

    /// Feed one **pre-fault** event (walk index strictly below
    /// `fault.at_step`) through the cheap prefix path directly, with no
    /// per-event context: how [`StreamingDetector::primed`] walks the
    /// fault-free prefix.
    #[inline]
    fn on_prefix_event(
        &mut self,
        idx: usize,
        event: &TraceEvent,
        reads: &[(LocationId, Value)],
        locations: &[Location],
    ) {
        debug_assert!((idx as u64) < self.fault.at_step);
        self.events_seen = idx + 1;
        self.bank.track_prefix(idx, event, reads, locations);
        self.seen_locations = locations.len();
    }

    /// Taint a location (birth), initializing its access mark so a location
    /// never accessed again dies at its birth event, like the exact sweep's
    /// born-dead seeds.
    fn taint(&mut self, id: LocationId, event: usize, line: u32, func: FunctionId) {
        if self.tainted.insert(id) {
            self.grow_marks(id.index() + 1);
            self.marks[id.index()] = AccessMark {
                event: event as u32,
                line,
                func,
                consumed_and_aggregated: false,
            };
        }
    }

    /// True when `ctx`, an event at or after the fault, is quiet: the
    /// watch does not want it.  That is, it is not the strike event, no
    /// seed is pending, it interns no location new to the bank's tables,
    /// it reads and writes no tainted location, and it writes no cell with
    /// an RA chain (only stores write cells).  Such an event can only
    /// refresh the last-load table: every taint, mark, death and detector
    /// branch of [`StreamingDetector::on_loud_event`] is a no-op for it.
    #[inline]
    fn is_quiet(&self, ctx: &EventCtx<'_>) -> bool {
        !self.watch_tables().wants(
            ctx.index,
            ctx.reads,
            ctx.event.written_id(),
            ctx.locations.len(),
        )
    }

    /// Every post-fault event that is not quiet: seeding, taint
    /// transitions, last-access marks and the detector bank.
    #[inline(never)]
    fn on_loud_event(&mut self, ctx: &EventCtx<'_>) {
        let idx = ctx.index;
        self.seeded_now.clear();

        // Memory-cell seeds that struck before their cell existed in the
        // location table: resolve them as soon as the cell is interned.
        if !self.pending_mem.is_empty() && self.seen_locations < ctx.locations.len() {
            let new = &ctx.locations[self.seen_locations..];
            let mut resolved = Vec::new();
            for (off, loc) in new.iter().enumerate() {
                if let Some(addr) = loc.mem_addr() {
                    if let Some(pos) = self.pending_mem.iter().position(|&(a, _)| a == addr) {
                        self.pending_mem.swap_remove(pos);
                        resolved.push(LocationId((self.seen_locations + off) as u32));
                    }
                }
            }
            for id in resolved {
                // First access is happening at this very event, so the mark
                // is immediately refreshed below.  No overwrite exemption:
                // the seed struck at an *earlier* event, so if this event
                // cleanly overwrites the cell, the corruption dies here —
                // exactly as the exact sweep decides.
                self.taint(id, idx, ctx.event.line, ctx.event.func);
            }
        }
        self.seen_locations = ctx.locations.len();

        // Seeds striking at this event.
        if self.fault.at_step as usize == idx {
            match self.fault.target {
                FaultTarget::InstructionResult => {
                    if let Some((wid, _)) = ctx.event.write {
                        self.taint(wid, idx, ctx.event.line, ctx.event.func);
                        self.seeded_now.push(wid);
                    }
                }
                FaultTarget::MemoryCell { addr } => {
                    let known = ctx
                        .locations
                        .iter()
                        .position(|l| l.mem_addr() == Some(addr));
                    match known {
                        Some(i) => {
                            let id = LocationId(i as u32);
                            self.taint(id, idx, ctx.event.line, ctx.event.func);
                            self.seeded_now.push(id);
                        }
                        None => self.pending_mem.push((addr, idx)),
                    }
                }
            }
        }

        // Forward taint transitions (identical to the exact sweep for every
        // event that can still be observed — see the module docs).  With an
        // empty taint set — before the fault strikes, and after the error is
        // fully cleaned — nothing below can fire.
        let reads_tainted =
            !self.tainted.is_empty() && ctx.reads.iter().any(|&(id, _)| self.tainted.contains(id));
        if !self.tainted.is_empty() {
            if let Some((wid, _)) = ctx.event.write {
                if reads_tainted {
                    self.taint(wid, idx, ctx.event.line, ctx.event.func);
                } else if !self.seeded_now.contains(&wid) && self.tainted.remove(wid) {
                    self.bank.on_overwrite_death(
                        idx,
                        ctx.location(wid),
                        ctx.event.line,
                        ctx.event.func,
                    );
                }
            }

            // Refresh the last-access marks of every tainted location this
            // event touched: a deferred never-used-again death lands on the
            // final one.
            let written = ctx.event.written_id();
            if reads_tainted {
                for &(id, _) in ctx.reads {
                    if self.tainted.contains(id) {
                        self.grow_marks(id.index() + 1);
                        self.marks[id.index()] = AccessMark {
                            event: idx as u32,
                            line: ctx.event.line,
                            func: ctx.event.func,
                            // The DCL signature: consumed here, aggregated
                            // elsewhere.
                            consumed_and_aggregated: matches!(written, Some(w) if w != id),
                        };
                    }
                }
            }
            if let Some(wid) = written {
                if self.tainted.contains(wid) {
                    self.grow_marks(wid.index() + 1);
                    self.marks[wid.index()] = AccessMark {
                        event: idx as u32,
                        line: ctx.event.line,
                        func: ctx.event.func,
                        // Writing the location itself is never "aggregated
                        // elsewhere", whether or not the event also read it.
                        consumed_and_aggregated: false,
                    };
                }
            }
        }

        self.bank.on_event(
            idx,
            ctx.event,
            ctx.reads,
            ctx.locations,
            reads_tainted,
            self.clean,
        );
    }
}

impl TraceVisitor for StreamingDetector<'_> {
    #[inline]
    fn on_event(&mut self, ctx: &EventCtx<'_>) {
        let idx = ctx.index;
        self.events_seen = idx + 1;

        // Before the fault strikes nothing can be corrupted: skip the taint
        // machinery wholesale and keep only the last-load table warm.
        if (idx as u64) < self.fault.at_step {
            self.bank
                .track_prefix(idx, ctx.event, ctx.reads, ctx.locations);
            self.seen_locations = ctx.locations.len();
            return;
        }
        if !self.is_quiet(ctx) {
            self.on_loud_event(ctx);
        } else if matches!(ctx.event.kind, EventKind::Load) {
            for &(id, _) in ctx.reads {
                if self.bank.is_mem(id) {
                    self.bank.last_load[id.index()] = idx as u32;
                }
            }
        }
    }

    /// See the type's docs, § Watch.
    #[inline]
    fn watch(&self) -> Option<Watch<'_>> {
        Some(self.watch_tables())
    }

    /// The quiet path of a load, for a load the watch skipped.
    #[inline]
    fn on_skipped_load(&mut self, index: usize, cell: LocationId) {
        debug_assert!(self.bank.is_mem(cell));
        self.bank.last_load[cell.index()] = index as u32;
    }

    /// See the type's docs, § Settling.
    #[inline]
    fn settled(&self) -> bool {
        self.events_seen as u64 > self.fault.at_step
            && self.tainted.is_empty()
            && self.pending_mem.is_empty()
            && self.bank.chains.is_empty()
    }

    fn on_finish(&mut self, end: &WalkEnd<'_>) {
        self.outcome = end.outcome;
        self.events_seen = self.events_seen.max(end.events);
        // Deferred never-used-again deaths: everything still tainted died at
        // its recorded final access, in (event, id) order — the order the
        // exact sweep's counting-sort reverse index produces.
        let mut dead: Vec<(u32, LocationId)> = self
            .tainted
            .iter_set()
            .map(|id| (self.marks[id.index()].event, id))
            .collect();
        dead.sort_by_key(|&(event, id)| (event, id));
        for (event, id) in dead {
            let m = self.marks[id.index()];
            self.bank.on_dead_location(
                event as usize,
                end.locations[id.index()],
                m.line,
                m.func,
                m.consumed_and_aggregated,
            );
        }
        self.finished = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftkr_ir::prelude::*;
    use ftkr_ir::Global;
    use ftkr_vm::{RunResult, Vm, VmConfig};

    /// A traced run with `fault` armed.
    fn tracing_with_fault(fault: FaultSpec) -> VmConfig {
        VmConfig {
            fault: Some(fault),
            ..VmConfig::tracing()
        }
    }

    /// The patterns-only forward-taint walk of a materialized faulty trace.
    fn detect_fused_patterns(
        faulty: &Trace,
        clean: &Trace,
        fault: FaultSpec,
    ) -> Vec<PatternInstance> {
        let mut detector = StreamingDetector::new(clean, fault);
        ftkr_vm::EventCursor::new(faulty).run(&mut [&mut detector]);
        detector.into_patterns()
    }

    /// The streaming detector over a live, untraced faulty run of `module`.
    fn detect_streaming(
        module: &Module,
        clean: &Trace,
        fault: FaultSpec,
    ) -> (RunResult, Vec<PatternInstance>) {
        let mut detector = StreamingDetector::new(clean, fault);
        let decoded = ftkr_vm::DecodedModule::decode(module);
        let config = VmConfig {
            fault: Some(fault),
            ..VmConfig::default()
        };
        let result = Vm::new(config)
            .run_with_visitors_decoded(module, &decoded, &mut [&mut detector])
            .unwrap();
        (result, detector.into_patterns())
    }

    /// An accumulation kernel exercising several patterns at once: repeated
    /// additions into a cell, a guarded minimum (conditional), a truncating
    /// output, and temporaries that die after a reduction.
    fn busy_module() -> Module {
        let mut m = Module::new("busy");
        let acc = m.add_global(Global::zeroed_f64("acc", 1));
        let tmp = m.add_global(Global::zeroed_f64("tmp", 4));
        let mut b = FunctionBuilder::new("main");
        b.set_line(10);
        let aaddr = b.global_addr(acc);
        let taddr = b.global_addr(tmp);
        let zero = b.const_i64(0);
        let four = b.const_i64(4);
        b.main_for("fill", zero, four, |b, i| {
            let f = b.sitofp(i);
            let scaled = b.fmul(f, b.const_f64(1.5));
            b.store_idx(taddr, i, scaled);
        });
        let z2 = b.const_i64(0);
        let n = b.const_i64(24);
        b.region_for("accumulate", z2, n, |b, _i| {
            let cur = b.load(aaddr);
            let inc = b.const_f64(0.25);
            let next = b.fadd(cur, inc);
            b.store(aaddr, next);
        });
        let z3 = b.const_i64(0);
        let four3 = b.const_i64(4);
        b.region_for("reduce", z3, four3, |b, i| {
            let t = b.load_idx(taddr, i);
            let cur = b.load(aaddr);
            let next = b.fadd(cur, t);
            b.store(aaddr, next);
        });
        let total = b.load(aaddr);
        let below = b.fcmp(CmpKind::Lt, total, b.const_f64(100.0));
        b.if_then(below, |b| {
            let v = b.load(aaddr);
            b.output(v, OutputFormat::Scientific(3));
        });
        b.ret(None);
        m.add_function(b.finish());
        m
    }

    fn acl_eq(a: &AclTable, b: &AclTable) {
        assert_eq!(a.counts, b.counts);
        assert_eq!(a.tainted_reads, b.tainted_reads);
        assert_eq!(a.births, b.births);
        assert_eq!(a.final_corrupted, b.final_corrupted);
        assert_eq!(a.deaths.len(), b.deaths.len());
        for (x, y) in a.deaths.iter().zip(&b.deaths) {
            assert_eq!(
                (x.event, x.location, x.cause, x.line),
                (y.event, y.location, y.cause, y.line)
            );
        }
    }

    #[test]
    fn fused_walk_matches_the_dense_acl_and_the_patterns_only_walk() {
        let module = busy_module();
        let clean = Vm::new(VmConfig::tracing())
            .run(&module)
            .unwrap()
            .trace
            .unwrap();
        // Sweep a spread of injection points and bit positions.  The ACL
        // side is checked against the standalone dense builder, the pattern
        // side against the forward-taint patterns-only walk — two
        // independent implementations per output.
        for (frac, bit) in [(7usize, 30u8), (3, 52), (2, 3), (5, 61), (4, 12)] {
            let fault = FaultSpec::in_result((clean.len() / frac) as u64, bit);
            let faulty = Vm::new(tracing_with_fault(fault))
                .run(&module)
                .unwrap()
                .trace
                .unwrap();
            let reference_acl = AclTable::from_fault(&faulty, &fault);
            let fused = analyze_fused(&faulty, &clean, &fault);
            acl_eq(&fused.acl, &reference_acl);
            let patterns_only = detect_fused_patterns(&faulty, &clean, fault);
            assert_eq!(fused.patterns, patterns_only, "fault {fault:?}");
            assert!(
                !fused.patterns.is_empty() || fused.acl.births.is_empty(),
                "expected some signal for fault {fault:?}"
            );
        }
    }

    #[test]
    fn streaming_detector_matches_the_materialized_walk_without_a_trace() {
        let module = busy_module();
        let clean = Vm::new(VmConfig::tracing())
            .run(&module)
            .unwrap()
            .trace
            .unwrap();
        for (step, bit) in [(10u64, 40u8), (25, 2), (60, 52), (0, 7), (150, 20)] {
            let fault = FaultSpec::in_result(step % clean.len() as u64, bit);
            let faulty = Vm::new(tracing_with_fault(fault))
                .run(&module)
                .unwrap()
                .trace
                .unwrap();
            let materialized = analyze_fused(&faulty, &clean, &fault).patterns;
            let (result, streamed) = detect_streaming(&module, &clean, fault);
            assert!(result.trace.is_none());
            assert_eq!(streamed, materialized, "fault {fault:?}");
        }
    }

    #[test]
    fn primed_fork_detectors_match_cold_streaming_over_resumed_runs() {
        let module = busy_module();
        let clean = Vm::new(VmConfig::tracing())
            .run(&module)
            .unwrap()
            .trace
            .unwrap();
        let fork = clean.len() as u64 / 3;
        let decoded = ftkr_vm::DecodedModule::decode(&module);
        let snap = Vm::new(VmConfig::default())
            .snapshot_at(&module, fork)
            .unwrap()
            .expect("mid-run step");
        let primed =
            StreamingDetector::primed(&clean, snap.events_emitted() as usize, snap.num_locations());
        let faults = [
            FaultSpec::in_result(fork, 40),
            FaultSpec::in_result(fork + 13, 2),
            FaultSpec::in_result(clean.len() as u64 - 2, 52),
            FaultSpec::in_memory(fork, 0, 30),
            FaultSpec::in_memory(fork + 7, 3, 52),
        ];
        for fault in faults {
            let (cold_result, cold_patterns) = detect_streaming(&module, &clean, fault);
            let mut forked = primed.fork(fault);
            let config = ftkr_vm::VmConfig {
                fault: Some(fault),
                ..ftkr_vm::VmConfig::default()
            };
            let forked_result = Vm::new(config)
                .resume_with_visitors_decoded(&module, &decoded, &snap, &mut [&mut forked])
                .unwrap();
            assert_eq!(
                forked_result.outcome, cold_result.outcome,
                "fault {fault:?}"
            );
            assert_eq!(forked.into_patterns(), cold_patterns, "fault {fault:?}");
        }
    }

    /// A cell rewritten with clean values after a self-load: a fault in one
    /// stored value starts a Repeated-Additions chain that outlives the
    /// taint, so the detector must not settle while the chain can grow.
    fn rewrite_module() -> Module {
        let mut m = Module::new("rewrite");
        let cell = m.add_global(Global::zeroed_f64("cell", 1));
        let mut b = FunctionBuilder::new("main");
        let addr = b.global_addr(cell);
        let zero = b.const_i64(0);
        let n = b.const_i64(12);
        b.main_for("rewrite", zero, n, |b, k| {
            b.load(addr);
            let next = b.sitofp(k);
            b.store(addr, next);
        });
        let last = b.load(addr);
        b.output(last, OutputFormat::Full);
        b.ret(None);
        m.add_function(b.finish());
        m
    }

    /// Every fault step and a spread of bits: the streamed detector — which
    /// detaches once settled — finds exactly what the materialized fused
    /// walk finds, and some runs really detach.
    #[test]
    fn settled_detectors_detach_without_losing_patterns() {
        for module in [rewrite_module(), busy_module()] {
            let decoded = ftkr_vm::DecodedModule::decode(&module);
            let clean = Vm::new(VmConfig::tracing())
                .run(&module)
                .unwrap()
                .trace
                .unwrap();
            // Flipped loop bounds must hang into a small step limit.
            let max_steps = 4 * clean.len() as u64;
            let mut detached = 0;
            for step in 0..clean.len() as u64 {
                for bit in [1u8, 40, 52, 63] {
                    let fault = FaultSpec::in_result(step, bit);
                    let config = VmConfig {
                        fault: Some(fault),
                        max_steps,
                        ..VmConfig::default()
                    };
                    let faulty = Vm::new(VmConfig {
                        record_trace: true,
                        ..config
                    })
                    .run(&module)
                    .unwrap()
                    .trace
                    .unwrap();
                    let want = analyze_fused(&faulty, &clean, &fault).patterns;
                    let mut detector = StreamingDetector::new(&clean, fault);
                    let result = Vm::new(config)
                        .run_with_visitors_decoded(&module, &decoded, &mut [&mut detector])
                        .unwrap();
                    detached += usize::from((detector.events_seen() as u64) < result.steps);
                    assert_eq!(detector.into_patterns(), want, "{} {fault:?}", module.name);
                }
            }
            assert!(detached > 0, "{}: no run detached", module.name);
        }
    }

    #[test]
    #[should_panic(expected = "precedes the checkpoint")]
    fn fork_rejects_faults_that_precede_the_primed_prefix() {
        let module = busy_module();
        let clean = Vm::new(VmConfig::tracing())
            .run(&module)
            .unwrap()
            .trace
            .unwrap();
        let primed = StreamingDetector::primed(&clean, 20, clean.num_locations());
        let _ = primed.fork(FaultSpec::in_result(5, 1));
    }

    #[test]
    fn streaming_detector_handles_memory_faults_and_pending_cells() {
        let module = busy_module();
        let clean = Vm::new(VmConfig::tracing())
            .run(&module)
            .unwrap()
            .trace
            .unwrap();
        // Cell 1 belongs to `tmp`, first touched deep into the run; a fault
        // at step 0 exercises the pending-seed path.
        for (step, addr, bit) in [(0u64, 1u64, 30u8), (0, 0, 40), (40, 2, 52), (9999, 3, 1)] {
            let fault = FaultSpec::in_memory(step.min(clean.len() as u64 - 1), addr, bit);
            let faulty = Vm::new(tracing_with_fault(fault))
                .run(&module)
                .unwrap()
                .trace
                .unwrap();
            let materialized = analyze_fused(&faulty, &clean, &fault).patterns;
            let (_, streamed) = detect_streaming(&module, &clean, fault);
            assert_eq!(streamed, materialized, "fault {fault:?}");
        }
    }
}
