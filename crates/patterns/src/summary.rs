//! Mapping detected pattern instances onto code regions (Table I).

use std::collections::{BTreeMap, BTreeSet};

use ftkr_trace::RegionInstance;

use crate::kinds::{PatternInstance, PatternKind};

/// Per-region pattern summary: one row of the paper's Table I.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct RegionPatternSummary {
    /// Region name (e.g. `cg_b`).
    pub region: String,
    /// Source line range of the region.
    pub lines: (u32, u32),
    /// Dynamic instructions in one main-loop iteration of the region.
    pub instructions: usize,
    /// Patterns found in the region across all analysed injections.
    pub patterns: BTreeSet<PatternKind>,
}

impl RegionPatternSummary {
    /// True if any resilience pattern was found in the region.
    pub fn pattern_found(&self) -> bool {
        !self.patterns.is_empty()
    }

    /// Render the pattern set as the check-mark columns of Table I.
    pub fn pattern_row(&self) -> String {
        PatternKind::ALL
            .iter()
            .map(|k| if self.patterns.contains(k) { "x" } else { "-" })
            .collect::<Vec<_>>()
            .join(" ")
    }
}

/// Assign detected pattern instances to the region instances that contain
/// them; returns, per region name, the union of pattern kinds observed.
pub fn assign_to_regions(
    instances: &[PatternInstance],
    regions: &[RegionInstance],
) -> BTreeMap<String, BTreeSet<PatternKind>> {
    let mut map: BTreeMap<String, BTreeSet<PatternKind>> = BTreeMap::new();
    // Make sure every region appears even if empty.
    for r in regions {
        map.entry(r.key.name.clone()).or_default();
    }
    for p in instances {
        for r in regions {
            if r.contains(p.event) {
                map.entry(r.key.name.clone()).or_default().insert(p.kind);
            }
        }
    }
    map
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftkr_ir::{FunctionId, LoopId};
    use ftkr_trace::RegionKey;

    fn region(name: &str, start: usize, end: usize) -> RegionInstance {
        RegionInstance {
            key: RegionKey {
                func: FunctionId(0),
                loop_id: LoopId(0),
                name: name.to_string(),
            },
            start,
            end,
            instance: 0,
            main_iteration: Some(0),
            lines: (1, 10),
        }
    }

    fn pattern(kind: PatternKind, event: usize) -> PatternInstance {
        PatternInstance {
            kind,
            event,
            line: 5,
            func: FunctionId(0),
            detail: String::new(),
        }
    }

    #[test]
    fn instances_land_in_the_containing_region() {
        let regions = vec![region("a", 0, 10), region("b", 10, 20)];
        let instances = vec![
            pattern(PatternKind::Shifting, 3),
            pattern(PatternKind::DataOverwriting, 15),
            pattern(PatternKind::Truncation, 99), // outside every region
        ];
        let map = assign_to_regions(&instances, &regions);
        assert!(map["a"].contains(&PatternKind::Shifting));
        assert!(!map["a"].contains(&PatternKind::DataOverwriting));
        assert!(map["b"].contains(&PatternKind::DataOverwriting));
        assert!(map
            .values()
            .all(|set| !set.contains(&PatternKind::Truncation)));
    }

    #[test]
    fn summary_row_rendering() {
        let mut patterns = BTreeSet::new();
        patterns.insert(PatternKind::RepeatedAdditions);
        patterns.insert(PatternKind::DataOverwriting);
        let s = RegionPatternSummary {
            region: "mg_a".to_string(),
            lines: (425, 429),
            instructions: 606_145,
            patterns,
        };
        assert!(s.pattern_found());
        let row = s.pattern_row();
        assert_eq!(row.split(' ').count(), 6);
        assert!(row.contains('x'));
        let empty = RegionPatternSummary {
            region: "cg_a".to_string(),
            lines: (434, 439),
            instructions: 21_017,
            patterns: BTreeSet::new(),
        };
        assert!(!empty.pattern_found());
    }
}
