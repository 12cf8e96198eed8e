//! **agb-failure** — the failure-detection plane and the byte-level
//! network adversary.
//!
//! The paper's adaptive mechanism reacts to *congestion*; this crate
//! extends the same adaptivity principle to *failure*. It has two halves:
//!
//! * [`PhiDetector`] — a φ-accrual-style adaptive failure detector fed by
//!   per-peer inter-arrival samples taken from normal gossip traffic.
//!   Nothing extra crosses the wire in the common case: every gossip,
//!   graft, or retransmit frame a peer sends doubles as its liveness
//!   signal. A node that has nothing to gossip to a monitored link sends
//!   a lightweight heartbeat fallback (an empty gossip frame) so the
//!   sample stream never dries up. Suspicion levels drive automatic
//!   suspect → evict → rejoin transitions through the existing
//!   `GossipMembership::evict` / TTL'd-unsubscription machinery.
//! * [`ByteAdversary`] — a seed-deterministic byte-level fault injector
//!   (bit flips, truncation, duplication, reordering) used to prove the
//!   frame decode path panic-free and non-confusable: a corrupted frame
//!   is counted and dropped, never misdelivered as a different valid
//!   frame.
//!
//! Both halves are sans-IO and execution-surface agnostic: the
//! deterministic simulator feeds the detector virtual time and drains
//! verdicts in canonical merge order (K-invariant digests), while the
//! threaded runtime feeds it wall-clock timestamps inside the node loop.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adversary;
mod detector;

pub use adversary::{AdversaryConfig, ByteAdversary, Mutation};
pub use detector::{DetectorConfig, PhiDetector, SuspicionState, Verdict};

use agb_types::NodeId;

/// Ring-monitor degree: each node with a detector watches this many
/// id-ring predecessors and owes heartbeats to as many successors.
pub const MONITORS: usize = 2;

/// The ring-monitor assignment: node `me` watches its `k` predecessors
/// and owes heartbeats to its `k` successors on the dense id ring
/// `0..n`.
///
/// Gossip targets are random, so per-link inter-arrival times are
/// geometric with mean `(n-1)/fanout` rounds — too heavy-tailed to judge
/// liveness from without false positives. The ring assignment gives each
/// monitored link a *regular* sample stream (every round, via gossip
/// when the link happens to be a gossip target and via the heartbeat
/// fallback otherwise), which is what lets the φ thresholds stay tight
/// while false positives stay at zero on a quiet network.
pub fn ring_monitors(me: NodeId, n: usize, k: usize) -> Vec<NodeId> {
    neighbors(me, n, k, false)
}

/// The `k` ring successors `me` owes heartbeats to (see
/// [`ring_monitors`]).
pub fn ring_successors(me: NodeId, n: usize, k: usize) -> Vec<NodeId> {
    neighbors(me, n, k, true)
}

fn neighbors(me: NodeId, n: usize, k: usize, forward: bool) -> Vec<NodeId> {
    let n = n as u32;
    if n <= 1 {
        return Vec::new();
    }
    let k = (k as u32).min(n - 1);
    (1..=k)
        .map(|step| {
            let id = if forward {
                (me.as_u32() + step) % n
            } else {
                (me.as_u32() + n - step) % n
            };
            NodeId::new(id)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_neighbors_wrap_and_dedup() {
        let preds = ring_monitors(NodeId::new(0), 5, 2);
        assert_eq!(preds, vec![NodeId::new(4), NodeId::new(3)]);
        let succs = ring_successors(NodeId::new(4), 5, 2);
        assert_eq!(succs, vec![NodeId::new(0), NodeId::new(1)]);
        // k larger than the group clamps to everyone-but-me.
        assert_eq!(ring_successors(NodeId::new(0), 3, 10).len(), 2);
        assert!(ring_monitors(NodeId::new(0), 1, 3).is_empty());
    }

    #[test]
    fn monitor_and_successor_sets_are_duals() {
        // p monitors q exactly when q owes p a heartbeat.
        let n = 7;
        let k = 3;
        for me in 0..n as u32 {
            for pred in ring_monitors(NodeId::new(me), n, k) {
                assert!(
                    ring_successors(pred, n, k).contains(&NodeId::new(me)),
                    "{pred} should owe {me} a heartbeat"
                );
            }
        }
    }
}
