//! The in-thread SPMD exchange against its threaded reference.
//!
//! `ftkr_inject::spmd::exchange` evaluates a job's ring halo and scalar
//! allreduce in the calling thread.  It must agree bit for bit with the
//! same protocol run as a thread-per-rank `ftkr_mpi` job
//! (`support::spmd_reference`): every rank's coupled and global value, and
//! the send census, clean and with a fault armed at every census message.

mod support;

use ftkr_inject::spmd::exchange;
use ftkr_mpi::MsgFault;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngCore, RngExt, SeedableRng};
use support::spmd_reference::threaded_exchange;

/// Flipped bits: the lowest, a mantissa bit, the lowest exponent bit, the
/// highest exponent bit and the sign.
const BITS: [u8; 5] = [0, 31, 52, 62, 63];

/// A rank value: mostly ordinary, often a special one (NaN, ±inf, -0.0 or
/// arbitrary bits, NaN payloads included).
fn value(rng: &mut StdRng) -> f64 {
    match rng.random_range(0..8u32) {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => -0.0,
        4 => f64::from_bits(rng.next_u64()),
        _ => rng.random_range(-1e3..1e3),
    }
}

fn bits(ranks: &[(f64, f64)]) -> Vec<(u64, u64)> {
    ranks
        .iter()
        .map(|(c, g)| (c.to_bits(), g.to_bits()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn in_thread_exchange_matches_the_threaded_reference(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        for nranks in 1..=5 {
            let locals: Vec<(f64, f64)> =
                (0..nranks).map(|_| (value(&mut rng), value(&mut rng))).collect();
            let coupling = rng.random_range(-2.0..2.0);
            let (want, census) = threaded_exchange(&locals, coupling, None);
            let (got, got_census) = exchange(&locals, coupling, None);
            prop_assert_eq!(bits(&got), bits(&want), "clean, {} ranks", nranks);
            prop_assert_eq!(&got_census, &census);
            for record in &census {
                for bit in BITS {
                    let fault = MsgFault {
                        site: record.site(),
                        ordinal: record.ordinal,
                        word: rng.random_range(0..4usize),
                        bit,
                    };
                    let (want, want_census) = threaded_exchange(&locals, coupling, Some(fault));
                    let (got, got_census) = exchange(&locals, coupling, Some(fault));
                    prop_assert_eq!(bits(&got), bits(&want), "{:?}, {} ranks", fault, nranks);
                    prop_assert_eq!(&got_census, &want_census);
                }
            }
        }
    }
}
