//! Construction of the ACL table from a faulty trace.
//!
//! The builder is the hottest analysis stage of the pipeline (it runs once
//! per injection), so it works entirely in the trace's dense [`LocationId`]
//! space: flat `Vec<u32>` last-access tables, a counting-sort reverse index
//! of death events, and a bitmap taint set — no hash maps.  A hash-based
//! reference implementation lives in the workspace's integration-test
//! support and is compared against this one by the property tests.
//!
//! The sweep itself is incremental ([`TaintSweep`]): one [`TaintSweep::step`]
//! call per dynamic event, in order.  [`AclTable::build`] drives it over a
//! trace through the shared [`ftkr_vm::EventCursor`] visitor machinery, and
//! the fused per-injection pipeline in `ftkr_patterns` drives the *same*
//! sweep while evaluating all six pattern detectors in the same walk — one
//! pass over the events instead of seven.

use ftkr_vm::{FaultSpec, FaultTarget, Location, LocationId, Trace, TraceEvent, Value};

/// Why a corrupted location stopped being alive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeathCause {
    /// It was overwritten by a value not derived from corrupted data
    /// (the Data Overwriting pattern).
    Overwritten,
    /// Its value is never referenced again in the remainder of the trace
    /// (dead corrupted location).
    NeverUsedAgain,
}

/// One corrupted location leaving the alive set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AclDeath {
    /// Dynamic instruction index after which the location is dead.
    pub event: usize,
    /// The location.
    pub location: Location,
    /// Why it died.
    pub cause: DeathCause,
    /// Source line of the instruction at `event`.
    pub line: u32,
}

/// The alive-corrupted-locations table of one faulty run.
#[derive(Debug, Clone, Default)]
pub struct AclTable {
    /// Number of alive corrupted locations *after* each dynamic instruction
    /// (the last row of Figure 3 in the paper).
    pub counts: Vec<u32>,
    /// Every event at which a location became corrupted.
    pub births: Vec<(usize, Location)>,
    /// Every event at which a corrupted location died, with its cause.
    pub deaths: Vec<AclDeath>,
    /// Locations still corrupted (and alive) when the trace ends.
    pub final_corrupted: Vec<Location>,
    /// For every event, whether it read at least one alive corrupted
    /// location (pattern detectors key off this).
    pub tainted_reads: Vec<bool>,
}

/// Sentinel for "never accessed" in the dense last-access table.
const NEVER: u32 = u32::MAX;

/// Dense bitmap over the trace's location-id space, with a live counter —
/// the taint set of the ACL sweep.
struct TaintSet {
    words: Vec<u64>,
    alive: u32,
}

impl TaintSet {
    fn new(num_locations: usize) -> Self {
        TaintSet {
            words: vec![0u64; num_locations.div_ceil(64)],
            alive: 0,
        }
    }

    #[inline]
    fn contains(&self, id: LocationId) -> bool {
        let i = id.index();
        self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Set the bit; true if it was newly set.
    #[inline]
    fn insert(&mut self, id: LocationId) -> bool {
        let i = id.index();
        let word = &mut self.words[i / 64];
        let mask = 1u64 << (i % 64);
        if *word & mask != 0 {
            return false;
        }
        *word |= mask;
        self.alive += 1;
        true
    }

    /// Clear the bit; true if it was set.
    #[inline]
    fn remove(&mut self, id: LocationId) -> bool {
        let i = id.index();
        let word = &mut self.words[i / 64];
        let mask = 1u64 << (i % 64);
        if *word & mask == 0 {
            return false;
        }
        *word &= !mask;
        self.alive -= 1;
        true
    }

    /// Ids of all set bits, ascending.
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

/// A seed corruption with its (optional) interned id: seeds naming locations
/// the trace never touches have no id and are born dead immediately.
#[derive(Clone, Copy)]
struct Seed {
    event: usize,
    location: Location,
    id: Option<LocationId>,
}

/// The taint outcome of one sweep step.
#[derive(Debug, Clone)]
pub struct StepTaint {
    /// True when the event read at least one alive corrupted location.
    pub reads_tainted: bool,
    /// Number of alive corrupted locations *after* the event.
    pub alive: u32,
    /// Range of `AclTable::deaths` entries this event appended (pattern
    /// detectors key off the death log without re-walking it).
    pub deaths: std::ops::Range<usize>,
}

/// The incremental exact ACL sweep: per-event taint tracking with the full
/// trace's last-access knowledge precomputed, so a location leaves the alive
/// set exactly when the paper says it should (clean overwrite, or final
/// access).  One [`TaintSweep::step`] call per event, in order, appending
/// births/deaths/counts to an [`AclTable`]; [`TaintSweep::finish`] seals the
/// table.  [`AclTable::build`] and the fused pattern pipeline are both thin
/// drivers around this type.
pub struct TaintSweep {
    last_access: Vec<u32>,
    die_off: Vec<u32>,
    dying: Vec<u32>,
    sorted_seeds: Vec<Seed>,
    next_seed: usize,
    tainted: TaintSet,
}

impl TaintSweep {
    /// Prepare a sweep over `trace` with the given seed corruptions:
    /// `(event index, location)` pairs stating that `location` becomes
    /// corrupted at the instruction with that dynamic index.
    pub fn new(trace: &Trace, seeds: &[(usize, Location)]) -> TaintSweep {
        let n = trace.len();
        let nloc = trace.num_locations();

        // Backward-pass equivalent, done forward in one scan: last dynamic
        // index at which each location is *accessed* (read, or written — a
        // pending overwrite keeps the location of interest, exactly as in
        // Figure 3 of the paper where Loc_1 stays alive until the
        // instruction that overwrites it).
        let mut last_access: Vec<u32> = vec![NEVER; nloc];
        for (idx, event) in trace.iter() {
            for &(id, _) in trace.reads_of(event) {
                last_access[id.index()] = idx as u32;
            }
            if let Some((id, _)) = event.write {
                last_access[id.index()] = idx as u32;
            }
        }

        // Reverse index as a counting sort: `dying[die_off[i]..die_off[i+1]]`
        // holds the ids whose final access is event `i`.
        let mut die_off: Vec<u32> = vec![0; n + 2];
        for &la in &last_access {
            if la != NEVER {
                die_off[la as usize + 1] += 1;
            }
        }
        for i in 1..die_off.len() {
            die_off[i] += die_off[i - 1];
        }
        let mut dying: Vec<u32> = vec![0; *die_off.last().unwrap_or(&0) as usize];
        {
            let mut cursor = die_off.clone();
            for (id, &la) in last_access.iter().enumerate() {
                if la != NEVER {
                    dying[cursor[la as usize] as usize] = id as u32;
                    cursor[la as usize] += 1;
                }
            }
        }

        // Seeds sorted by event (stable: preserves caller order per event).
        let mut sorted_seeds: Vec<Seed> = seeds
            .iter()
            .map(|&(event, location)| Seed {
                event,
                location,
                id: trace.location_id(&location),
            })
            .collect();
        sorted_seeds.sort_by_key(|s| s.event);

        TaintSweep {
            last_access,
            die_off,
            dying,
            sorted_seeds,
            next_seed: 0,
            tainted: TaintSet::new(nloc),
        }
    }

    /// True when the given location id is currently alive-corrupted.
    pub fn is_tainted(&self, id: LocationId) -> bool {
        self.tainted.contains(id)
    }

    /// A corruption that is never accessed from here on is born dead
    /// ("tainted locations that are never used are excluded").
    fn birth(
        &mut self,
        table: &mut AclTable,
        idx: usize,
        id: Option<LocationId>,
        location: Location,
        line: u32,
    ) {
        let lives = matches!(id, Some(id) if {
            let la = self.last_access[id.index()];
            la != NEVER && la as usize >= idx
        });
        if !lives {
            table.births.push((idx, location));
            table.deaths.push(AclDeath {
                event: idx,
                location,
                cause: DeathCause::NeverUsedAgain,
                line,
            });
            return;
        }
        let id = id.expect("live seed has an id");
        if self.tainted.insert(id) {
            table.births.push((idx, location));
        }
    }

    /// Advance the sweep over the event at index `idx`, appending the taint
    /// bookkeeping of that event to `table`.  `reads` are the event's operand
    /// reads and `locations` the (at least partially) interned location
    /// table — exactly what an [`ftkr_vm::EventCtx`] carries.  Events must be
    /// fed in order, exactly once each.
    pub fn step(
        &mut self,
        idx: usize,
        event: &TraceEvent,
        reads: &[(LocationId, Value)],
        locations: &[Location],
        table: &mut AclTable,
    ) -> StepTaint {
        let deaths_start = table.deaths.len();

        // Seed corruptions strike at this instruction.
        let seed_start = self.next_seed;
        while self.next_seed < self.sorted_seeds.len()
            && self.sorted_seeds[self.next_seed].event == idx
        {
            let s = self.sorted_seeds[self.next_seed];
            self.next_seed += 1;
            self.birth(table, idx, s.id, s.location, event.line);
        }
        let seeded_range = seed_start..self.next_seed;

        // Fast path: with nothing alive-corrupted (before the fault strikes,
        // and after full cleanup) no read can be tainted.
        let reads_tainted =
            self.tainted.alive != 0 && reads.iter().any(|&(id, _)| self.tainted.contains(id));
        table.tainted_reads.push(reads_tainted);

        if let Some((wid, _)) = event.write {
            if reads_tainted {
                self.birth(table, idx, Some(wid), locations[wid.index()], event.line);
            } else if !self.sorted_seeds[seeded_range]
                .iter()
                .any(|s| s.id == Some(wid))
                && self.tainted.remove(wid)
            {
                // Overwritten by a value not derived from corrupted data.
                table.deaths.push(AclDeath {
                    event: idx,
                    location: locations[wid.index()],
                    cause: DeathCause::Overwritten,
                    line: event.line,
                });
            }
        }

        // Corrupted locations whose final access is this instruction will
        // never be referenced again: they die here.
        let dying_here = &self.dying[self.die_off[idx] as usize..self.die_off[idx + 1] as usize];
        for &raw in dying_here {
            let id = LocationId(raw);
            if self.tainted.remove(id) {
                table.deaths.push(AclDeath {
                    event: idx,
                    location: locations[id.index()],
                    cause: DeathCause::NeverUsedAgain,
                    line: event.line,
                });
            }
        }

        table.counts.push(self.tainted.alive);
        StepTaint {
            reads_tainted,
            alive: self.tainted.alive,
            deaths: deaths_start..table.deaths.len(),
        }
    }

    /// Seal the table after the last event: record the locations still
    /// corrupted (and alive) when the trace ends.
    pub fn finish(&self, locations: &[Location], table: &mut AclTable) {
        let mut final_corrupted: Vec<Location> = self
            .tainted
            .iter_set()
            .map(|id| locations[id.index()])
            .collect();
        final_corrupted.sort();
        table.final_corrupted = final_corrupted;
    }
}

impl AclTable {
    /// Build the table given the seed corruptions: `(event index, location)`
    /// pairs stating that `location` becomes corrupted at the instruction
    /// with that dynamic index (for an instruction-result fault this is the
    /// defining instruction; for a memory fault it is the instruction about
    /// to execute when the cell is struck).
    ///
    /// This is a monomorphic [`TaintSweep`] loop; the fused per-injection
    /// pipeline drives the same sweep next to other analyses — fuse it
    /// there instead of calling this next to another full-trace pass.
    pub fn build(trace: &Trace, seeds: &[(usize, Location)]) -> AclTable {
        let mut sweep = TaintSweep::new(trace, seeds);
        let mut table = AclTable {
            counts: Vec::with_capacity(trace.len()),
            tainted_reads: Vec::with_capacity(trace.len()),
            ..Default::default()
        };
        let locations = trace.locations();
        for (idx, event) in trace.iter() {
            sweep.step(idx, event, trace.reads_of(event), locations, &mut table);
        }
        sweep.finish(locations, &mut table);
        table
    }

    /// The seed corruptions a [`FaultSpec`] implies for a given faulty trace.
    pub fn fault_seeds(trace: &Trace, fault: &FaultSpec) -> Vec<(usize, Location)> {
        match fault.target {
            FaultTarget::InstructionResult => {
                let step = fault.at_step as usize;
                trace
                    .events
                    .get(step)
                    .and_then(|e| e.write)
                    .map(|(id, _)| vec![(step, trace.location(id))])
                    .unwrap_or_default()
            }
            FaultTarget::MemoryCell { addr } => {
                vec![(fault.at_step as usize, Location::mem(addr))]
            }
        }
    }

    /// Derive the seed corruption from a [`FaultSpec`] and build the table.
    /// For an instruction-result fault the corrupted location is whatever the
    /// instruction at `at_step` wrote; for a memory fault it is the cell.
    pub fn from_fault(trace: &Trace, fault: &FaultSpec) -> AclTable {
        AclTable::build(trace, &AclTable::fault_seeds(trace, fault))
    }

    /// Largest number of simultaneously alive corrupted locations.
    pub fn max_count(&self) -> u32 {
        self.counts.iter().copied().max().unwrap_or(0)
    }

    /// `(event, count)` series, down-sampled to at most `max_points` points —
    /// the series plotted in Figure 7 of the paper.  The first and last
    /// events are always included (when `max_points >= 2`).
    pub fn series(&self, max_points: usize) -> Vec<(usize, u32)> {
        let len = self.counts.len();
        if len == 0 || max_points == 0 {
            return Vec::new();
        }
        if len <= max_points {
            return self.counts.iter().copied().enumerate().collect();
        }
        if max_points == 1 {
            return vec![(len - 1, self.counts[len - 1])];
        }
        // stride ≥ (len-1)/(max_points-1) guarantees at most max_points-1
        // stride samples in [0, len-2], plus the forced final point.
        let stride = (len - 1).div_ceil(max_points - 1);
        let mut out: Vec<(usize, u32)> = (0..len - 1)
            .step_by(stride)
            .map(|i| (i, self.counts[i]))
            .collect();
        out.push((len - 1, self.counts[len - 1]));
        out
    }

    /// Events at which the alive-corrupted count decreased — the candidate
    /// members of resilience computation patterns (Section III-D).
    pub fn decrease_events(&self) -> Vec<usize> {
        let mut out = Vec::new();
        for i in 1..self.counts.len() {
            if self.counts[i] < self.counts[i - 1] {
                out.push(i);
            }
        }
        out
    }

    /// True when the error is fully gone by the end of the run: no alive
    /// corrupted location remains.
    pub fn fully_cleaned(&self) -> bool {
        self.final_corrupted.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftkr_ir::{BinKind, FunctionId, ValueId};
    use ftkr_vm::{EventKind, ResolvedEvent, Trace, Value};

    fn ev(reads: Vec<Location>, write: Option<Location>) -> ResolvedEvent {
        ResolvedEvent {
            func: FunctionId(0),
            frame: 0,
            inst: ValueId(0),
            line: 1,
            kind: EventKind::Bin(BinKind::FAdd),
            reads: reads.into_iter().map(|l| (l, Value::F(1.0))).collect(),
            write: write.map(|l| (l, Value::F(1.0))),
        }
    }

    /// Reproduce the example of Figure 3 in the paper:
    ///
    /// | instr | effect                                            | ACL |
    /// |-------|---------------------------------------------------|-----|
    /// | 1     | Loc_1 corrupted by the injected error             | 1   |
    /// | 2     | unrelated                                         | 1   |
    /// | 3     | reads Loc_1, corrupts Loc_2                       | 2   |
    /// | 4     | unrelated                                         | 2   |
    /// | 5     | Loc_1 overwritten by a clean value                | 1   |
    /// | 6     | last instruction; Loc_2 never used afterwards     | 0   |
    #[test]
    fn figure3_example_matches_the_paper() {
        let loc1 = Location::mem(1);
        let loc2 = Location::mem(2);
        let other = Location::mem(99);
        let trace = Trace::from_resolved(vec![
            // dynamic instruction 1 (index 0): produces Loc_1 (fault here)
            ev(vec![], Some(loc1)),
            // instruction 2: unrelated
            ev(vec![other], Some(other)),
            // instruction 3: reads Loc_1, writes Loc_2
            ev(vec![loc1, other], Some(loc2)),
            // instruction 4: unrelated
            ev(vec![other], Some(other)),
            // instruction 5: overwrites Loc_1 with clean data; also the
            // last time Loc_2 is of interest is later...
            ev(vec![other], Some(loc1)),
            // instruction 6: reads Loc_2 for the last time
            ev(vec![loc2], Some(other)),
        ]);
        // The injected error corrupts the result of instruction 1 (index 0).
        let table = AclTable::build(&trace, &[(0, loc1)]);
        assert_eq!(table.counts, vec![1, 1, 2, 2, 1, 0]);
        assert_eq!(table.max_count(), 2);
        assert!(table.fully_cleaned());
        // Loc_1 died by overwrite at instruction 5 (index 4); Loc_2 died by
        // never being used again at instruction 6 (index 5).
        assert!(table
            .deaths
            .iter()
            .any(|d| d.location == loc1 && d.cause == DeathCause::Overwritten && d.event == 4));
        assert!(table
            .deaths
            .iter()
            .any(|d| d.location == loc2 && d.cause == DeathCause::NeverUsedAgain && d.event == 5));
        assert_eq!(table.decrease_events(), vec![4, 5]);
        // Only instructions 3 and 6 (indices 2 and 5) read corrupted data.
        assert_eq!(
            table.tainted_reads,
            vec![false, false, true, false, false, true]
        );
    }

    #[test]
    fn corrupted_value_never_read_again_is_born_dead() {
        let loc = Location::mem(5);
        let trace = Trace::from_resolved(vec![
            ev(vec![], Some(loc)),
            ev(vec![Location::mem(9)], None),
        ]);
        let table = AclTable::build(&trace, &[(0, loc)]);
        assert_eq!(table.counts, vec![0, 0]);
        assert_eq!(table.births.len(), 1);
        assert_eq!(table.deaths.len(), 1);
        assert_eq!(table.deaths[0].cause, DeathCause::NeverUsedAgain);
    }

    #[test]
    fn seeds_on_locations_the_trace_never_touches_are_born_dead() {
        let trace = Trace::from_resolved(vec![ev(vec![Location::mem(1)], None)]);
        let ghost = Location::mem(777);
        let table = AclTable::build(&trace, &[(0, ghost)]);
        assert_eq!(table.counts, vec![0]);
        assert_eq!(table.births, vec![(0, ghost)]);
        assert_eq!(table.deaths.len(), 1);
        assert_eq!(table.deaths[0].location, ghost);
        assert!(table.fully_cleaned());
    }

    #[test]
    fn taint_propagates_through_chains_and_survives_at_end() {
        let a = Location::mem(1);
        let b = Location::mem(2);
        let c = Location::mem(3);
        let trace = Trace::from_resolved(vec![
            ev(vec![], Some(a)),
            ev(vec![a], Some(b)),
            ev(vec![b], Some(c)),
            ev(vec![c], None), // c read at the end (e.g. output)
        ]);
        let table = AclTable::build(&trace, &[(0, a)]);
        // a dies after event 1 (its last read), b after event 2, c stays
        // alive through event 3 where it is read by the final event... and
        // then has no further use, so it dies there.
        assert_eq!(table.counts, vec![1, 1, 1, 0]);
        assert!(table.fully_cleaned());
        let t2 = AclTable::build(
            &Trace::from_resolved(vec![
                ev(vec![], Some(a)),
                ev(vec![a], Some(b)),
                ev(vec![b], Some(c)),
                ev(vec![c], Some(b)),
            ]),
            &[(0, a)],
        );
        // b is re-corrupted by the final write but never read => dead; final
        // set must be empty.
        assert!(t2.fully_cleaned());
    }

    #[test]
    fn memory_fault_seeds_from_fault_spec() {
        let loc = Location::mem(7);
        let trace = Trace::from_resolved(vec![
            ev(vec![loc], Some(Location::mem(8))),
            ev(vec![Location::mem(8)], None),
        ]);
        let fault = FaultSpec::in_memory(0, 7, 3);
        let table = AclTable::from_fault(&trace, &fault);
        // m[7] corrupted before event 0; it propagates to m[8].
        assert_eq!(table.counts, vec![1, 0]);
        assert_eq!(table.births.len(), 2);
    }

    #[test]
    fn result_fault_seeds_from_fault_spec() {
        let loc = Location::mem(7);
        let trace = Trace::from_resolved(vec![ev(vec![], Some(loc)), ev(vec![loc], None)]);
        let fault = FaultSpec::in_result(0, 10);
        let table = AclTable::from_fault(&trace, &fault);
        assert_eq!(table.counts, vec![1, 0]);
    }

    #[test]
    fn series_downsamples() {
        let loc = Location::mem(1);
        let mut events = vec![ev(vec![], Some(loc))];
        for _ in 0..99 {
            events.push(ev(vec![loc], None));
        }
        let trace = Trace::from_resolved(events);
        let table = AclTable::build(&trace, &[(0, loc)]);
        assert_eq!(table.counts.len(), 100);
        let series = table.series(10);
        assert!(series.len() <= 12);
        assert_eq!(series.first().unwrap().0, 0);
        assert_eq!(series.last().unwrap().0, 99);
        assert!(table.series(0).is_empty());
    }

    #[test]
    fn series_never_exceeds_max_points() {
        let loc = Location::mem(1);
        for len in [1usize, 2, 3, 9, 10, 11, 97, 100, 101, 1000] {
            let mut events = vec![ev(vec![], Some(loc))];
            for _ in 1..len {
                events.push(ev(vec![loc], None));
            }
            let trace = Trace::from_resolved(events);
            let table = AclTable::build(&trace, &[(0, loc)]);
            for max_points in [1usize, 2, 3, 7, 10, 12, 1000] {
                let series = table.series(max_points);
                assert!(
                    series.len() <= max_points,
                    "len {len}, max_points {max_points}: got {} points",
                    series.len()
                );
                assert!(!series.is_empty());
                // The final count is always present.
                assert_eq!(series.last().unwrap().0, len - 1);
                if max_points >= 2 {
                    assert_eq!(series.first().unwrap().0, 0);
                }
                // Events are strictly increasing.
                assert!(series.windows(2).all(|w| w[0].0 < w[1].0));
            }
        }
    }

    #[test]
    fn clean_overwrite_of_untainted_location_is_not_a_death() {
        let loc = Location::mem(1);
        let trace = Trace::from_resolved(vec![ev(vec![], Some(loc)), ev(vec![loc], None)]);
        let table = AclTable::build(&trace, &[]);
        assert_eq!(table.counts, vec![0, 0]);
        assert!(table.deaths.is_empty());
        assert!(table.births.is_empty());
    }
}
