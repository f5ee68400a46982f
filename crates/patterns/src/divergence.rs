//! Rank-divergence detection for multi-rank (SPMD) fault campaigns.
//!
//! The related work this reproduces (Wu et al., Tan et al. — see PAPERS.md)
//! distinguishes faults whose effects stay inside the injected rank from
//! faults that cross a communicator boundary and corrupt peers.  This module
//! provides the comparison primitive: a compact [`RankDigest`] of one rank's
//! observable execution (final state, exchanged values, combined result),
//! and [`classify_ranks`], which compares each rank's faulty digest against
//! its clean counterpart and buckets the test as *masked*, *contained*, or
//! *spread*.

use ftkr_vm::RunResult;

/// Compact summary of one rank's observable execution under the SPMD
/// exchange protocol.  Floating-point values are compared by their exact bit
/// patterns — the same bar the shard-merge machinery holds reports to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RankDigest {
    /// Dynamic instructions the rank's VM executed.
    pub steps: u64,
    /// Whether the rank's VM trapped (crashed) instead of completing.
    pub trapped: bool,
    /// FNV-1a digest of the rank's output state globals.
    pub state_fnv: u64,
    /// Bit pattern of the rank's local partial (its allreduce contribution).
    pub partial_bits: u64,
    /// Bit pattern of the rank's halo-coupled contribution.
    pub coupled_bits: u64,
    /// Bit pattern of the combined (allreduced) global value the rank
    /// observed.
    pub global_bits: u64,
}

/// How a fault's effects relate to the rank boundaries of an SPMD job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RankDivergence {
    /// No rank's digest differs from clean: the fault was masked before it
    /// became observable anywhere.
    Masked,
    /// Only the injected rank diverges: the fault stayed inside its rank.
    Contained,
    /// At least one non-injected rank diverges: the corruption crossed a
    /// communicator boundary.
    Spread,
}

impl RankDivergence {
    /// Stable lower-case label for tables and JSONL records.
    pub fn label(&self) -> &'static str {
        match self {
            RankDivergence::Masked => "masked",
            RankDivergence::Contained => "contained",
            RankDivergence::Spread => "spread",
        }
    }
}

/// FNV-1a over the named state globals of a finished run — order-sensitive
/// over both the global names and their element bit patterns, so any
/// single-bit state difference changes the digest.
pub fn state_fnv(result: &RunResult, globals: &[&str]) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    let mut eat = |byte: u8| {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    };
    for name in globals {
        for byte in name.bytes() {
            eat(byte);
        }
        eat(0);
        if let Some(values) = result.global_f64(name) {
            for value in values {
                for byte in value.to_bits().to_le_bytes() {
                    eat(byte);
                }
            }
        } else if let Some(values) = result.global_i64(name) {
            for value in values {
                for byte in value.to_le_bytes() {
                    eat(byte);
                }
            }
        }
    }
    hash
}

/// Compare per-rank faulty digests against their clean counterparts and
/// classify the test.  `injected` is the rank the fault logically lands in:
/// the VM-injection target for computation faults, the *receiving* rank for
/// message-payload faults (the corrupted value first becomes part of that
/// rank's state).
///
/// # Panics
///
/// Panics if the two digest slices have different lengths or `injected` is
/// out of range — both indicate executor bugs, not fault effects.
pub fn classify_ranks(
    clean: &[RankDigest],
    faulty: &[RankDigest],
    injected: usize,
) -> RankDivergence {
    assert_eq!(clean.len(), faulty.len(), "rank count mismatch");
    assert!(injected < clean.len(), "injected rank out of range");
    let mut injected_differs = false;
    let mut peer_differs = false;
    for (rank, (c, f)) in clean.iter().zip(faulty).enumerate() {
        if c != f {
            if rank == injected {
                injected_differs = true;
            } else {
                peer_differs = true;
            }
        }
    }
    if peer_differs {
        RankDivergence::Spread
    } else if injected_differs {
        RankDivergence::Contained
    } else {
        RankDivergence::Masked
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digest(state: u64) -> RankDigest {
        RankDigest {
            steps: 100,
            trapped: false,
            state_fnv: state,
            partial_bits: 1,
            coupled_bits: 2,
            global_bits: 3,
        }
    }

    #[test]
    fn identical_digests_classify_as_masked() {
        let clean = vec![digest(7); 4];
        assert_eq!(
            classify_ranks(&clean, &clean.clone(), 2),
            RankDivergence::Masked
        );
    }

    #[test]
    fn only_injected_rank_differing_is_contained() {
        let clean = vec![digest(7); 4];
        let mut faulty = clean.clone();
        faulty[2].state_fnv = 8;
        assert_eq!(
            classify_ranks(&clean, &faulty, 2),
            RankDivergence::Contained
        );
    }

    #[test]
    fn any_peer_differing_is_spread_even_if_injected_rank_matches() {
        let clean = vec![digest(7); 4];
        let mut faulty = clean.clone();
        faulty[0].global_bits = 99;
        assert_eq!(classify_ranks(&clean, &faulty, 2), RankDivergence::Spread);
        faulty[2].state_fnv = 8; // injected rank differing too stays spread
        assert_eq!(classify_ranks(&clean, &faulty, 2), RankDivergence::Spread);
    }

    #[test]
    fn a_trapped_rank_never_classifies_as_masked_even_on_digest_collision() {
        // A trapped rank still completes the exchange with its deterministic
        // (sentinel) values so no peer blocks.  If those values happen to
        // bit-collide with the clean digest fields — a sentinel state FNV
        // equal to the clean one — the `trapped` flag is the last line of
        // defense: the digests compare unequal and the test cannot be
        // classified masked.
        let clean = vec![digest(7); 4];
        let mut faulty = clean.clone();
        faulty[2].trapped = true; // every other field identical to clean
        assert_eq!(
            classify_ranks(&clean, &faulty, 2),
            RankDivergence::Contained
        );
        // The same collision on a non-injected rank is a spread, not masked.
        let mut faulty = clean.clone();
        faulty[0].trapped = true;
        assert_eq!(classify_ranks(&clean, &faulty, 2), RankDivergence::Spread);
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(RankDivergence::Masked.label(), "masked");
        assert_eq!(RankDivergence::Contained.label(), "contained");
        assert_eq!(RankDivergence::Spread.label(), "spread");
    }
}
