//! Rank-local communicator with point-to-point and collective operations.

use std::collections::VecDeque;

use crossbeam::channel::{Receiver, Sender};

/// A message between ranks: a tag plus a payload of 64-bit floats (the only
/// payload type the benchmark kernels exchange — dot products, residual
/// norms, halo values).
#[derive(Debug, Clone, PartialEq)]
pub struct Message {
    /// Sending rank.
    pub from: usize,
    /// User tag.
    pub tag: i64,
    /// Payload.
    pub data: Vec<f64>,
}

/// A directed send boundary: messages travelling `from → to`.  The unit the
/// message-corruption hook targets — each (site, ordinal) pair names exactly
/// one message of a deterministic SPMD execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MsgSite {
    /// Sending rank.
    pub from: usize,
    /// Receiving rank.
    pub to: usize,
}

/// A single-bit payload corruption armed on the *sending* rank: the
/// `ordinal`-th message this rank sends across `site` has one bit of one
/// payload word flipped at the send boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MsgFault {
    /// The directed edge the corrupted message travels.
    pub site: MsgSite,
    /// Which message on that edge (0-based, counted per edge in send order).
    pub ordinal: u64,
    /// Payload word to corrupt (reduced modulo the payload length).
    pub word: usize,
    /// Bit of the word's IEEE-754 representation to flip (0–63).
    pub bit: u8,
}

/// One observed send, as recorded by a census-enabled communicator.  The
/// per-rank logs, concatenated in rank order, form the canonical message
/// population of a deterministic SPMD execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SendRecord {
    /// Sending rank.
    pub from: usize,
    /// Receiving rank.
    pub to: usize,
    /// Tag the message was sent with.
    pub tag: i64,
    /// Ordinal of the message on its directed edge (0-based).
    pub ordinal: u64,
    /// Payload length in words.
    pub len: usize,
}

impl SendRecord {
    /// The directed edge this send travelled.
    pub fn site(&self) -> MsgSite {
        MsgSite {
            from: self.from,
            to: self.to,
        }
    }
}

/// Reduction operator for [`Communicator::allreduce`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceOp {
    /// Element-wise sum.
    Sum,
    /// Element-wise maximum.
    Max,
    /// Element-wise minimum.
    Min,
}

impl ReduceOp {
    fn apply(self, acc: &mut [f64], other: &[f64]) {
        for (a, b) in acc.iter_mut().zip(other) {
            *a = match self {
                ReduceOp::Sum => *a + *b,
                ReduceOp::Max => a.max(*b),
                ReduceOp::Min => a.min(*b),
            };
        }
    }
}

/// Per-rank endpoint.  One communicator is handed to each rank closure by
/// [`crate::run_spmd`]; it is not `Clone` — exactly one owner per rank.
#[derive(Debug)]
pub struct Communicator {
    rank: usize,
    size: usize,
    senders: Vec<Sender<Message>>,
    receiver: Receiver<Message>,
    pending: VecDeque<Message>,
    /// Per-destination send counts — the edge ordinals of the next sends.
    sent: Vec<u64>,
    /// Armed single-message corruption, applied at the send boundary.
    fault: Option<MsgFault>,
    /// Send log, populated when census recording is enabled.
    census: Option<Vec<SendRecord>>,
}

impl Communicator {
    pub(crate) fn new(
        rank: usize,
        size: usize,
        senders: Vec<Sender<Message>>,
        receiver: Receiver<Message>,
    ) -> Self {
        Communicator {
            rank,
            size,
            senders,
            receiver,
            pending: VecDeque::new(),
            sent: vec![0; size],
            fault: None,
            census: None,
        }
    }

    /// Arm a message corruption on this rank.  The fault must originate here;
    /// it fires at most once, when the matching `(edge, ordinal)` send occurs.
    pub fn arm_fault(&mut self, fault: MsgFault) {
        assert_eq!(
            fault.site.from, self.rank,
            "message fault must be armed on its sending rank"
        );
        self.fault = Some(fault);
    }

    /// Start recording every send this rank performs (see [`SendRecord`]).
    pub fn record_census(&mut self) {
        self.census = Some(Vec::new());
    }

    /// The send log accumulated since [`Self::record_census`], if enabled.
    pub fn take_census(&mut self) -> Vec<SendRecord> {
        self.census.take().unwrap_or_default()
    }

    /// This rank's index.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the job.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Send `data` to rank `to` with a tag.  Sends are buffered
    /// (non-blocking), like MPI's eager protocol for small messages.
    ///
    /// This is also the message-corruption boundary: if a [`MsgFault`] is
    /// armed on this rank and this send is the `ordinal`-th message on the
    /// fault's directed edge, one bit of one payload word is flipped before
    /// the message leaves the rank.
    pub fn send(&mut self, to: usize, tag: i64, mut data: Vec<f64>) {
        assert!(to < self.size, "send to nonexistent rank {to}");
        let ordinal = self.sent[to];
        self.sent[to] += 1;
        if let Some(log) = self.census.as_mut() {
            log.push(SendRecord {
                from: self.rank,
                to,
                tag,
                ordinal,
                len: data.len(),
            });
        }
        if let Some(fault) = self.fault {
            if fault.site.to == to && fault.ordinal == ordinal && !data.is_empty() {
                let word = fault.word % data.len();
                data[word] = f64::from_bits(data[word].to_bits() ^ (1u64 << fault.bit));
            }
        }
        let msg = Message {
            from: self.rank,
            tag,
            data,
        };
        // The receiver can only disappear if its thread panicked; propagating
        // the panic via expect keeps the failure visible.
        self.senders[to].send(msg).expect("receiving rank is alive");
    }

    /// Blocking receive.  `from`/`tag` of `None` match anything.  Messages
    /// that arrive but do not match are buffered for later receives, so
    /// point-to-point ordering per (source, tag) is preserved.
    ///
    /// Wildcard matching order is pinned to **FIFO per sender, earliest
    /// buffered first**: among buffered candidates the one that arrived
    /// first is delivered, and messages from one sender are never reordered
    /// relative to each other (channel FIFO + in-order buffer scan).  The
    /// interleaving *between* senders follows arrival order, which for
    /// concurrent senders is scheduler-dependent — deterministic SPMD
    /// harness code must therefore direct its receives (as the collectives
    /// here do) or tolerate any cross-sender interleaving.
    pub fn recv(&mut self, from: Option<usize>, tag: Option<i64>) -> Message {
        let matches = |m: &Message| {
            from.map(|f| m.from == f).unwrap_or(true) && tag.map(|t| m.tag == t).unwrap_or(true)
        };
        if let Some(pos) = self.pending.iter().position(matches) {
            return self.pending.remove(pos).expect("position is valid");
        }
        loop {
            let msg = self
                .receiver
                .recv()
                .expect("all peer ranks hold senders while alive");
            if matches(&msg) {
                return msg;
            }
            self.pending.push_back(msg);
        }
    }

    /// Element-wise reduction of `data` across all ranks; every rank receives
    /// the reduced vector.  Implemented as gather-to-root + broadcast, which
    /// keeps the result bitwise identical on every rank (reduction order is
    /// fixed by rank index).
    pub fn allreduce(&mut self, data: &[f64], op: ReduceOp) -> Vec<f64> {
        const TAG_GATHER: i64 = -1;
        const TAG_RESULT: i64 = -2;
        if self.size == 1 {
            return data.to_vec();
        }
        if self.rank == 0 {
            let mut acc = data.to_vec();
            for from in 1..self.size {
                let msg = self.recv(Some(from), Some(TAG_GATHER));
                assert_eq!(msg.data.len(), acc.len(), "allreduce length mismatch");
                op.apply(&mut acc, &msg.data);
            }
            for to in 1..self.size {
                self.send(to, TAG_RESULT, acc.clone());
            }
            acc
        } else {
            self.send(0, TAG_GATHER, data.to_vec());
            self.recv(Some(0), Some(TAG_RESULT)).data
        }
    }

    /// Sum-allreduce of a single scalar (the common case in CG/MG dot
    /// products and norms).
    pub fn allreduce_scalar(&mut self, value: f64, op: ReduceOp) -> f64 {
        self.allreduce(&[value], op)[0]
    }

    /// Broadcast `data` from `root` to every rank; returns the received copy.
    pub fn broadcast(&mut self, root: usize, data: &[f64]) -> Vec<f64> {
        const TAG_BCAST: i64 = -3;
        if self.size == 1 {
            return data.to_vec();
        }
        if self.rank == root {
            for to in 0..self.size {
                if to != root {
                    self.send(to, TAG_BCAST, data.to_vec());
                }
            }
            data.to_vec()
        } else {
            self.recv(Some(root), Some(TAG_BCAST)).data
        }
    }

    /// Synchronize all ranks.
    pub fn barrier(&mut self) {
        self.allreduce(&[0.0], ReduceOp::Sum);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spmd::run_spmd;

    #[test]
    fn allreduce_sum_over_ranks() {
        let results = run_spmd(4, |mut comm| {
            comm.allreduce_scalar(comm.rank() as f64 + 1.0, ReduceOp::Sum)
        })
        .unwrap();
        assert_eq!(results, vec![10.0; 4]);
    }

    #[test]
    fn allreduce_max_and_min() {
        let maxes = run_spmd(3, |mut comm| {
            comm.allreduce(&[comm.rank() as f64], ReduceOp::Max)[0]
        })
        .unwrap();
        assert_eq!(maxes, vec![2.0; 3]);
        let mins = run_spmd(3, |mut comm| {
            comm.allreduce(&[comm.rank() as f64], ReduceOp::Min)[0]
        })
        .unwrap();
        assert_eq!(mins, vec![0.0; 3]);
    }

    #[test]
    fn point_to_point_ring() {
        // Each rank sends its rank id to the next rank and receives from the
        // previous one.
        let results = run_spmd(5, |mut comm| {
            let next = (comm.rank() + 1) % comm.size();
            let prev = (comm.rank() + comm.size() - 1) % comm.size();
            comm.send(next, 7, vec![comm.rank() as f64]);
            comm.recv(Some(prev), Some(7)).data[0]
        })
        .unwrap();
        assert_eq!(results, vec![4.0, 0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn recv_buffers_non_matching_messages() {
        let results = run_spmd(2, |mut comm| {
            if comm.rank() == 0 {
                comm.send(1, 1, vec![1.0]);
                comm.send(1, 2, vec![2.0]);
                0.0
            } else {
                // Receive tag 2 first even though tag 1 arrives first.
                let second = comm.recv(Some(0), Some(2)).data[0];
                let first = comm.recv(Some(0), Some(1)).data[0];
                second * 10.0 + first
            }
        })
        .unwrap();
        assert_eq!(results[1], 21.0);
    }

    #[test]
    fn broadcast_from_root() {
        let results = run_spmd(4, |mut comm| {
            let data = if comm.rank() == 2 { vec![42.0] } else { vec![0.0] };
            comm.broadcast(2, &data)[0]
        })
        .unwrap();
        assert_eq!(results, vec![42.0; 4]);
    }

    #[test]
    fn wildcard_recv_from_one_sender_is_fifo() {
        // from: None / tag: None must deliver a single sender's stream in
        // exactly send order, whether the messages are drained live or were
        // buffered by an interleaved directed receive.
        let results = run_spmd(2, |mut comm| {
            if comm.rank() == 0 {
                for (i, tag) in [(1.0, 10), (2.0, 20), (3.0, 30), (4.0, 40)] {
                    comm.send(1, tag, vec![i]);
                }
                vec![]
            } else {
                // Force the first three into the pending buffer by asking for
                // the tail message first.
                let last = comm.recv(None, Some(40)).data[0];
                let mut seen = vec![];
                for _ in 0..3 {
                    seen.push(comm.recv(None, None).data[0]);
                }
                seen.push(last);
                seen
            }
        })
        .unwrap();
        assert_eq!(results[1], vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn wildcard_recv_preserves_per_sender_order_across_senders() {
        // Two senders, three messages each.  A barrier forces every user
        // message into the receiver's pending buffer first (the collective's
        // directed receives skip over them), then a wildcard drain must see
        // each sender's messages as an in-order subsequence.
        let results = run_spmd(3, |mut comm| {
            if comm.rank() > 0 {
                for i in 0..3 {
                    let value = comm.rank() as f64 * 10.0 + i as f64;
                    comm.send(0, comm.rank() as i64, vec![value]);
                }
                comm.barrier();
                vec![]
            } else {
                comm.barrier();
                (0..6).map(|_| comm.recv(None, None).data[0]).collect()
            }
        })
        .unwrap();
        let drained = &results[0];
        for sender in [1.0, 2.0] {
            let stream: Vec<f64> = drained
                .iter()
                .copied()
                .filter(|v| (v / 10.0).trunc() == sender)
                .collect();
            assert_eq!(
                stream,
                vec![sender * 10.0, sender * 10.0 + 1.0, sender * 10.0 + 2.0],
                "sender {sender}'s stream was reordered"
            );
        }
    }

    #[test]
    fn wildcard_source_with_fixed_tag_and_vice_versa() {
        let results = run_spmd(3, |mut comm| {
            match comm.rank() {
                1 => comm.send(0, 7, vec![1.5]),
                2 => comm.send(0, 8, vec![2.5]),
                _ => {}
            }
            if comm.rank() == 0 {
                // Any source, fixed tag; then fixed source, any tag.
                let by_tag = comm.recv(None, Some(8));
                let by_src = comm.recv(Some(1), None);
                assert_eq!((by_tag.from, by_tag.data[0]), (2, 2.5));
                assert_eq!((by_src.tag, by_src.data[0]), (7, 1.5));
                true
            } else {
                false
            }
        })
        .unwrap();
        assert!(results[0]);
    }

    #[test]
    fn armed_fault_flips_one_bit_of_one_message() {
        let fault = MsgFault {
            site: MsgSite { from: 0, to: 1 },
            ordinal: 1,
            word: 0,
            bit: 52,
        };
        let results = run_spmd(2, |mut comm| {
            if comm.rank() == 0 {
                comm.arm_fault(fault);
                comm.send(1, 0, vec![1.0]); // ordinal 0: clean
                comm.send(1, 0, vec![1.0]); // ordinal 1: corrupted
                comm.send(1, 0, vec![1.0]); // ordinal 2: clean again
                vec![]
            } else {
                (0..3).map(|_| comm.recv(Some(0), Some(0)).data[0]).collect()
            }
        })
        .unwrap();
        let expected = f64::from_bits(1.0f64.to_bits() ^ (1 << 52));
        assert_eq!(results[1], vec![1.0, expected, 1.0]);
    }

    #[test]
    fn census_records_every_send_in_order() {
        let results = run_spmd(2, |mut comm| {
            comm.record_census();
            if comm.rank() == 0 {
                comm.send(1, 3, vec![1.0, 2.0]);
                comm.send(1, 4, vec![3.0]);
            } else {
                comm.recv(Some(0), Some(3));
                comm.recv(Some(0), Some(4));
            }
            comm.take_census()
        })
        .unwrap();
        assert_eq!(
            results[0],
            vec![
                SendRecord { from: 0, to: 1, tag: 3, ordinal: 0, len: 2 },
                SendRecord { from: 0, to: 1, tag: 4, ordinal: 1, len: 1 },
            ]
        );
        assert!(results[1].is_empty());
    }

    #[test]
    fn single_rank_collectives_are_identity() {
        let results = run_spmd(1, |mut comm| {
            comm.barrier();
            comm.allreduce(&[3.0, 4.0], ReduceOp::Sum)
        })
        .unwrap();
        assert_eq!(results, vec![vec![3.0, 4.0]]);
    }
}
