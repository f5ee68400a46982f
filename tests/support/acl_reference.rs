//! Hash-based reference implementation of the ACL construction, the test
//! oracle of the dense builder.
//!
//! This is the pre-compaction algorithm, kept verbatim in spirit: hash maps
//! keyed by resolved [`Location`]s, a hash-set taint set, and a
//! `HashMap<usize, Vec<Location>>` reverse index of death events.  It exists
//! so the optimized dense builder ([`AclTable::build`]) can be differentially
//! tested against an independent implementation — the property tests assert
//! that both produce identical tables on random traces.  Do not use it on
//! large traces; it is O(hash) per operand where the dense builder is O(1).

use std::collections::{HashMap, HashSet};

use ftkr_vm::{Location, Trace};

use ftkr_acl::{AclDeath, AclTable, DeathCause};

/// Build the ACL table with the retained hash-based algorithm.  Produces the
/// same `counts`, `tainted_reads` and `final_corrupted` as
/// [`AclTable::build`], and the same `births`/`deaths` up to ordering within
/// one event (hash iteration order is unspecified; compare sorted).
pub fn build_reference(trace: &Trace, seeds: &[(usize, Location)]) -> AclTable {
    // Backward pass: last dynamic index at which each location is accessed.
    let mut last_access: HashMap<Location, usize> = HashMap::new();
    for idx in 0..trace.len() {
        let view = trace.view(idx);
        for (loc, _) in view.reads() {
            last_access.insert(loc, idx);
        }
        if let Some((loc, _)) = view.write() {
            last_access.insert(loc, idx);
        }
    }
    // Reverse index: locations whose final access is at event i.
    let mut dies_at: HashMap<usize, Vec<Location>> = HashMap::new();
    for (&loc, &idx) in &last_access {
        dies_at.entry(idx).or_default().push(loc);
    }
    // Seeds grouped by event.
    let mut seeds_at: HashMap<usize, Vec<Location>> = HashMap::new();
    for &(idx, loc) in seeds {
        seeds_at.entry(idx).or_default().push(loc);
    }

    let mut tainted: HashSet<Location> = HashSet::new();
    let mut table = AclTable {
        counts: Vec::with_capacity(trace.len()),
        tainted_reads: Vec::with_capacity(trace.len()),
        ..Default::default()
    };

    let birth = |table: &mut AclTable,
                 tainted: &mut HashSet<Location>,
                 idx: usize,
                 loc: Location,
                 line: u32| {
        // A corrupted value that is never accessed from here on is born
        // dead ("tainted locations that are never used are excluded").
        let lives = matches!(last_access.get(&loc), Some(&lu) if lu >= idx);
        if !lives {
            table.births.push((idx, loc));
            table.deaths.push(AclDeath {
                event: idx,
                location: loc,
                cause: DeathCause::NeverUsedAgain,
                line,
            });
            return;
        }
        if tainted.insert(loc) {
            table.births.push((idx, loc));
        }
    };

    for idx in 0..trace.len() {
        let view = trace.view(idx);
        let line = view.event().line;
        // Seed corruptions strike at this instruction.
        let seeded_here: &[Location] = seeds_at.get(&idx).map(Vec::as_slice).unwrap_or(&[]);
        for &loc in seeded_here {
            birth(&mut table, &mut tainted, idx, loc, line);
        }

        let reads_tainted = view.reads().any(|(l, _)| tainted.contains(&l));
        table.tainted_reads.push(reads_tainted);

        if let Some((wloc, _)) = view.write() {
            if reads_tainted {
                birth(&mut table, &mut tainted, idx, wloc, line);
            } else if !seeded_here.contains(&wloc) && tainted.remove(&wloc) {
                // Overwritten by a value not derived from corrupted data.
                table.deaths.push(AclDeath {
                    event: idx,
                    location: wloc,
                    cause: DeathCause::Overwritten,
                    line,
                });
            }
        }

        // Corrupted locations whose final access is this instruction will
        // never be referenced again: they die here.
        if let Some(locs) = dies_at.get(&idx) {
            for &loc in locs {
                if tainted.remove(&loc) {
                    table.deaths.push(AclDeath {
                        event: idx,
                        location: loc,
                        cause: DeathCause::NeverUsedAgain,
                        line,
                    });
                }
            }
        }

        table.counts.push(tainted.len() as u32);
    }

    let mut final_corrupted: Vec<Location> = tainted.into_iter().collect();
    final_corrupted.sort();
    table.final_corrupted = final_corrupted;
    table
}
