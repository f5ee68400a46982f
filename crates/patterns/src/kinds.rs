//! Pattern kinds and detected instances.

use serde::{Deserialize, Serialize};

use ftkr_ir::FunctionId;

/// The six resilience computation patterns of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum PatternKind {
    /// Pattern 1: Dead Corrupted Locations.
    DeadCorruptedLocations,
    /// Pattern 2: Repeated Additions.
    RepeatedAdditions,
    /// Pattern 3: Conditional Statements.
    ConditionalStatement,
    /// Pattern 4: Shifting.
    Shifting,
    /// Pattern 5: Data Truncation.
    Truncation,
    /// Pattern 6: Data Overwriting.
    DataOverwriting,
}

impl PatternKind {
    /// All six kinds, in the paper's order.
    pub const ALL: [PatternKind; 6] = [
        PatternKind::DeadCorruptedLocations,
        PatternKind::RepeatedAdditions,
        PatternKind::ConditionalStatement,
        PatternKind::Shifting,
        PatternKind::Truncation,
        PatternKind::DataOverwriting,
    ];

    /// Short label used in tables (mirrors Table I's column heads).
    pub fn short_name(self) -> &'static str {
        match self {
            PatternKind::DeadCorruptedLocations => "DCL",
            PatternKind::RepeatedAdditions => "RA",
            PatternKind::ConditionalStatement => "CS",
            PatternKind::Shifting => "Shifting",
            PatternKind::Truncation => "Trunc",
            PatternKind::DataOverwriting => "DO",
        }
    }
}

impl std::fmt::Display for PatternKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.short_name())
    }
}

/// One detected dynamic instance of a pattern.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PatternInstance {
    /// Which pattern.
    pub kind: PatternKind,
    /// Dynamic instruction index (in the faulty trace) at which the pattern
    /// took effect.
    pub event: usize,
    /// Source line of that instruction — what FlipTracker reports back to the
    /// user for further inspection.
    pub line: u32,
    /// Function containing the instruction.
    pub func: FunctionId,
    /// Free-form detail for reports.
    pub detail: String,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_six_patterns_have_distinct_names() {
        use std::collections::HashSet;
        assert_eq!(PatternKind::ALL.len(), 6);
        let shorts: HashSet<_> = PatternKind::ALL.iter().map(|k| k.short_name()).collect();
        assert_eq!(shorts.len(), 6);
        assert_eq!(format!("{}", PatternKind::DeadCorruptedLocations), "DCL");
    }
}
