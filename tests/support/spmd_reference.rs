//! The threaded reference of the SPMD exchange protocol: one `run_spmd`
//! job over `Communicator`s, every rank sending its halo around the ring
//! and joining a scalar sum-allreduce — the protocol SPMD campaigns ran on
//! threads before `ftkr_inject::spmd::exchange` evaluated it in the calling
//! thread.

use ftkr_mpi::{run_spmd, MsgFault, ReduceOp, SendRecord};

/// Tag of the ring halo messages.
const TAG_HALO: i64 = 9;

/// Run the protocol over `locals` (each rank's `(boundary, partial)`) with
/// `fault` armed on its sending rank.  Returns each rank's
/// `(coupled, global)` and the census, rank-0-first in send order.
pub fn threaded_exchange(
    locals: &[(f64, f64)],
    coupling: f64,
    fault: Option<MsgFault>,
) -> (Vec<(f64, f64)>, Vec<SendRecord>) {
    let n = locals.len();
    let ranks = run_spmd(n, |mut comm| {
        let rank = comm.rank();
        comm.record_census();
        if let Some(f) = fault.filter(|f| f.site.from == rank) {
            comm.arm_fault(f);
        }
        let (boundary, partial) = locals[rank];
        comm.send((rank + 1) % n, TAG_HALO, vec![boundary]);
        let halo = comm.recv(Some((rank + n - 1) % n), Some(TAG_HALO)).data[0];
        let coupled = partial + coupling * halo;
        let global = comm.allreduce_scalar(coupled, ReduceOp::Sum);
        ((coupled, global), comm.take_census())
    })
    .expect("reference job completes");
    let census = ranks.iter().flat_map(|(_, c)| c.clone()).collect();
    (
        ranks.into_iter().map(|(values, _)| values).collect(),
        census,
    )
}
