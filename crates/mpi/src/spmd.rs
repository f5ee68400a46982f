//! SPMD launcher: run one closure per rank on its own thread.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;

use crate::comm::{Communicator, Envelope, PeerPanicked};

/// Errors from [`run_spmd`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpmdError {
    /// `nranks` was zero.
    ZeroRanks,
    /// One or more rank closures panicked; the payload carries the rank ids.
    RankPanicked {
        /// Ranks whose closure panicked, in rank order; not the peers that
        /// stopped because of it.
        ranks: Vec<usize>,
    },
}

impl std::fmt::Display for SpmdError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpmdError::ZeroRanks => write!(f, "run_spmd requires at least one rank"),
            SpmdError::RankPanicked { ranks } => write!(f, "ranks {ranks:?} panicked"),
        }
    }
}

impl std::error::Error for SpmdError {}

/// Run `body` once per rank, each on its own thread, and collect the results
/// in rank order.  The closure receives the rank's [`Communicator`].
///
/// A panicking rank fails the job with [`SpmdError::RankPanicked`], which
/// lists the ranks that panicked themselves.  The job still returns: the
/// panic wakes every peer waiting in [`Communicator::recv`], and those stop
/// unlisted.
///
/// ```
/// use ftkr_mpi::{run_spmd, ReduceOp};
/// let sums = run_spmd(8, |mut comm| {
///     comm.allreduce_scalar(1.0, ReduceOp::Sum)
/// }).unwrap();
/// assert_eq!(sums, vec![8.0; 8]);
/// ```
pub fn run_spmd<R, F>(nranks: usize, body: F) -> Result<Vec<R>, SpmdError>
where
    R: Send,
    F: Fn(Communicator) -> R + Sync,
{
    if nranks == 0 {
        return Err(SpmdError::ZeroRanks);
    }

    // One channel per receiving rank; every rank gets a clone of every
    // sender, and the launcher keeps none.
    let (senders, receivers): (Vec<_>, Vec<_>) =
        (0..nranks).map(|_| mpsc::channel::<Envelope>()).unzip();
    let endpoints = receivers
        .into_iter()
        .zip(std::iter::repeat_n(senders, nranks));

    let body = &body;
    let outcomes: Vec<std::thread::Result<R>> = std::thread::scope(|scope| {
        let handles: Vec<_> = endpoints
            .enumerate()
            .map(|(rank, (rx, senders))| {
                scope.spawn(move || {
                    let comm = Communicator::new(rank, nranks, senders.clone(), rx);
                    let outcome = catch_unwind(AssertUnwindSafe(|| body(comm)));
                    if outcome.is_err() {
                        // Wake every peer blocked in a receive.
                        for tx in &senders {
                            let _ = tx.send(None);
                        }
                    }
                    outcome
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a rank's panic is caught on its thread"))
            .collect()
    });

    let mut results = Vec::with_capacity(nranks);
    let mut panicked = Vec::new();
    for (rank, outcome) in outcomes.into_iter().enumerate() {
        match outcome {
            Ok(r) => results.push(r),
            Err(payload) if payload.is::<PeerPanicked>() => {}
            Err(_) => panicked.push(rank),
        }
    }
    if !panicked.is_empty() {
        return Err(SpmdError::RankPanicked { ranks: panicked });
    }
    Ok(results)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_rank_order() {
        let ranks = run_spmd(6, |comm| comm.rank()).unwrap();
        assert_eq!(ranks, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn zero_ranks_is_an_error() {
        assert_eq!(run_spmd(0, |_c| ()).unwrap_err(), SpmdError::ZeroRanks);
    }

    #[test]
    fn rank_panic_is_reported_not_propagated() {
        let err = run_spmd(3, |comm| {
            if comm.rank() == 1 {
                panic!("boom");
            }
            comm.rank()
        })
        .unwrap_err();
        assert_eq!(err, SpmdError::RankPanicked { ranks: vec![1] });
        assert!(err.to_string().contains('1'));
    }

    #[test]
    fn a_panicking_rank_wakes_the_peer_waiting_on_it() {
        // Rank 0 panics before its send while rank 1 waits for it.  The job
        // runs on its own thread so that a hang fails the test instead of
        // blocking it.
        let (tx, rx) = std::sync::mpsc::channel();
        let launcher = std::thread::spawn(move || {
            let job = run_spmd(2, |mut comm| {
                if comm.rank() == 0 {
                    panic!("rank 0 fails before sending");
                }
                comm.recv(Some(0), None).data
            });
            tx.send(job).expect("the test waits for the job");
        });
        let job = rx
            .recv_timeout(std::time::Duration::from_secs(30))
            .expect("the job hung on a receive from a panicked rank");
        launcher.join().expect("the launcher thread returns");
        assert_eq!(job.unwrap_err(), SpmdError::RankPanicked { ranks: vec![0] });
    }

    #[test]
    fn many_ranks_scale() {
        // 64 ranks mirrors the paper's Figure 4 configuration.
        let n = 64;
        let sums = run_spmd(n, |mut comm| {
            comm.allreduce_scalar(comm.rank() as f64, crate::ReduceOp::Sum)
        })
        .unwrap();
        let expected = (0..n).sum::<usize>() as f64;
        assert!(sums.iter().all(|&s| s == expected));
    }
}
