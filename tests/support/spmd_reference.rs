//! The threaded reference of the SPMD exchange protocol: one `run_spmd`
//! job whose ranks send their halo around the ring and join a scalar
//! sum-allreduce, all over plain `Communicator::send`/`recv` — the protocol
//! SPMD campaigns ran on threads before `ftkr_inject::spmd::exchange`
//! evaluated it in the calling thread.  It shares no code with `exchange`:
//! it keeps its own send census, flips the faulted payload word itself and
//! runs the allreduce's gather, sum and result sends by hand.

use ftkr_inject::spmd::{MsgFault, SendRecord};
use ftkr_mpi::{run_spmd, Communicator};

/// Tag of the ring halo messages.
const TAG_HALO: i64 = 9;
/// Tag of a contribution gathered to rank 0.
const TAG_GATHER: i64 = -1;
/// Tag of the sum rank 0 sends back.
const TAG_RESULT: i64 = -2;

/// One rank's endpoint, recording each send and corrupting the faulted one.
struct Rank {
    comm: Communicator,
    fault: Option<MsgFault>,
    /// Sends so far per destination: the edge ordinal of the next send.
    sent: Vec<u64>,
    census: Vec<SendRecord>,
}

impl Rank {
    fn send(&mut self, to: usize, tag: i64, mut data: Vec<f64>) {
        let from = self.comm.rank();
        let ordinal = self.sent[to];
        self.sent[to] += 1;
        self.census.push(SendRecord {
            from,
            to,
            tag,
            ordinal,
            len: data.len(),
        });
        if let Some(f) = self.fault {
            if (f.site.from, f.site.to, f.ordinal) == (from, to, ordinal) {
                let word = f.word % data.len();
                data[word] = f64::from_bits(data[word].to_bits() ^ (1u64 << f.bit));
            }
        }
        self.comm.send(to, tag, data);
    }

    fn recv(&mut self, from: usize, tag: i64) -> f64 {
        self.comm.recv(Some(from), Some(tag)).data[0]
    }
}

/// `x`, with any NaN replaced by the canonical `f64::NAN`: `exchange`
/// canonicalizes each coupled value and the sum where it computes them.
fn canonical_nan(x: f64) -> f64 {
    if x.is_nan() {
        f64::NAN
    } else {
        x
    }
}

/// Run the protocol over `locals` (each rank's `(boundary, partial)`) with
/// `fault` applied at its send.  Returns each rank's `(coupled, global)`
/// and the census, rank-0-first in send order.
pub fn threaded_exchange(
    locals: &[(f64, f64)],
    coupling: f64,
    fault: Option<MsgFault>,
) -> (Vec<(f64, f64)>, Vec<SendRecord>) {
    let n = locals.len();
    let ranks = run_spmd(n, |comm| {
        let rank = comm.rank();
        let mut r = Rank {
            comm,
            fault,
            sent: vec![0; n],
            census: Vec::new(),
        };
        let (boundary, partial) = locals[rank];
        r.send((rank + 1) % n, TAG_HALO, vec![boundary]);
        let halo = r.recv((rank + n - 1) % n, TAG_HALO);
        let coupled = canonical_nan(partial + coupling * halo);
        // The allreduce: gather to rank 0, sum in rank order, send it back.
        let global = if n == 1 {
            coupled
        } else if rank == 0 {
            let mut sum = coupled;
            for from in 1..n {
                sum += r.recv(from, TAG_GATHER);
            }
            let sum = canonical_nan(sum);
            for to in 1..n {
                r.send(to, TAG_RESULT, vec![sum]);
            }
            sum
        } else {
            r.send(0, TAG_GATHER, vec![coupled]);
            r.recv(0, TAG_RESULT)
        };
        ((coupled, global), r.census)
    })
    .expect("reference job completes");
    let census = ranks.iter().flat_map(|(_, c)| c.clone()).collect();
    (
        ranks.into_iter().map(|(values, _)| values).collect(),
        census,
    )
}
