//! Recovery experiment — atomicity under loss × buffer pressure, with and
//! without the pull-based recovery layer (`agb-recovery`).
//!
//! The paper's adaptive mechanism protects reliability against *buffer
//! overflow*; this experiment exercises the orthogonal failure axis it
//! leaves open: events purged before full dissemination (aggressive age
//! cap, small buffers) combined with independent message loss. Push-only
//! lpbcast collapses to near-zero atomicity in this regime; the recovery
//! layer's `IHave`/`Graft` pull path restores it at a measured control
//! overhead (reported as recovery messages per delivered message).

use agb_metrics::Table;
use agb_recovery::RecoveryConfig;
use agb_types::DurationMs;
use agb_workload::{Algorithm, ClusterConfig, GossipCluster};

use crate::common::{measure, quick_mode, RunOutcome, Windows, N_NODES};

/// Loss-probability sweep.
pub const RECOVERY_LOSSES: [f64; 4] = [0.0, 0.1, 0.2, 0.3];
/// Buffer-size sweep (events): aggressive vs. comfortable purging.
pub const RECOVERY_BUFFERS: [usize; 2] = [15, 60];
/// Gossip fanout — reduced from the paper's 4 so redundancy does not mask
/// the loss axis entirely.
pub const RECOVERY_FANOUT: usize = 3;
/// Age cap `k` — aggressive purging: events leave gossip buffers after 3
/// rounds, the regime where lpbcast needs its retransmission path.
pub const RECOVERY_AGE_CAP: u32 = 3;
/// Aggregate offered load, msgs/s.
pub const RECOVERY_RATE: f64 = 20.0;
/// Publisher count.
pub const RECOVERY_SENDERS: usize = 5;

/// One measured cell of the sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryCell {
    /// The measured run aggregates.
    pub outcome: RunOutcome,
    /// Graft requests sent.
    pub requests: u64,
    /// Previously missing events recovered by retransmission.
    pub recovered: u64,
    /// Redundant retransmissions received.
    pub duplicates: u64,
    /// Recovery control messages per delivered message.
    pub overhead_ratio: f64,
}

/// One row of the sweep: the same scenario with recovery off and on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryRow {
    /// Independent per-message loss probability.
    pub loss: f64,
    /// Event-buffer capacity.
    pub buffer: usize,
    /// Push-only lpbcast.
    pub without: RecoveryCell,
    /// lpbcast wrapped in `RecoverableNode`.
    pub with: RecoveryCell,
}

/// The cluster configuration of one sweep cell.
pub fn recovery_cluster(loss: f64, buffer: usize, with_recovery: bool, seed: u64) -> ClusterConfig {
    let mut c = ClusterConfig::lossy(N_NODES, seed, loss);
    c.algorithm = Algorithm::Lpbcast;
    c.gossip.fanout = RECOVERY_FANOUT;
    c.gossip.max_events = buffer;
    c.gossip.age_cap = RECOVERY_AGE_CAP;
    c.n_senders = RECOVERY_SENDERS;
    c.offered_rate = RECOVERY_RATE;
    if with_recovery {
        c.recovery = Some(RecoveryConfig::default());
    }
    c
}

fn run_cell(
    loss: f64,
    buffer: usize,
    with_recovery: bool,
    seed: u64,
    windows: Windows,
) -> RecoveryCell {
    let mut cluster = GossipCluster::build(recovery_cluster(loss, buffer, with_recovery, seed));
    cluster.run_until(windows.total());
    let outcome = measure(&cluster, windows);
    let m = cluster.metrics();
    RecoveryCell {
        outcome,
        requests: m.recovery().requests(),
        recovered: m.recovery().recovered(),
        duplicates: m.recovery().duplicates(),
        overhead_ratio: m.recovery_overhead_ratio(),
    }
}

/// Windows for this experiment (shorter than the paper sweeps; the effect
/// is large and stabilizes quickly).
pub fn recovery_windows() -> Windows {
    if quick_mode() {
        Windows {
            warmup: DurationMs::from_secs(5),
            measure: DurationMs::from_secs(30),
            cooldown: DurationMs::from_secs(15),
        }
    } else {
        Windows {
            warmup: DurationMs::from_secs(10),
            measure: DurationMs::from_secs(60),
            cooldown: DurationMs::from_secs(20),
        }
    }
}

/// Runs the loss × buffer sweep, once without and once with recovery.
pub fn run(seed: u64) -> Vec<RecoveryRow> {
    let windows = recovery_windows();
    let mut rows = Vec::new();
    for &buffer in &RECOVERY_BUFFERS {
        for &loss in &RECOVERY_LOSSES {
            rows.push(RecoveryRow {
                loss,
                buffer,
                without: run_cell(loss, buffer, false, seed, windows),
                with: run_cell(loss, buffer, true, seed, windows),
            });
        }
    }
    rows
}

/// Formats the sweep as a table.
pub fn table(rows: &[RecoveryRow]) -> Table {
    let mut t = Table::new(
        format!(
            "Recovery: 95%-atomicity under loss (lpbcast, fanout = {RECOVERY_FANOUT}, \
             age cap = {RECOVERY_AGE_CAP}, {RECOVERY_RATE} msg/s)"
        ),
        &[
            "buffer",
            "loss (%)",
            "atomic w/o recovery (%)",
            "atomic with recovery (%)",
            "avg receivers w/o (%)",
            "avg receivers with (%)",
            "recovered events",
            "overhead (msgs/delivery)",
        ],
    );
    for r in rows {
        t.row_f64(&[
            r.buffer as f64,
            r.loss * 100.0,
            r.without.outcome.atomic_fraction * 100.0,
            r.with.outcome.atomic_fraction * 100.0,
            r.without.outcome.avg_receiver_fraction * 100.0,
            r.with.outcome.avg_receiver_fraction * 100.0,
            r.with.recovered as f64,
            r.with.overhead_ratio,
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn configs_validate() {
        let c = recovery_cluster(0.2, 30, true, 1);
        assert!(c.gossip.validate().is_ok());
        assert!(c.recovery.expect("recovery config").validate().is_ok());
        let c = recovery_cluster(0.2, 30, false, 1);
        assert!(c.recovery.is_none());
        assert_eq!(c.network.loss, 0.2);
    }

    #[test]
    fn table_has_one_row_per_cell() {
        let cell = RecoveryCell {
            outcome: RunOutcome {
                atomic_fraction: 0.0,
                avg_receiver_fraction: 0.7,
                input_rate: 10.0,
                output_rate: 7.0,
                drop_age: None,
                mean_allowed: 0.0,
                messages: 100,
            },
            requests: 5,
            recovered: 4,
            duplicates: 1,
            overhead_ratio: 0.1,
        };
        let rows = vec![RecoveryRow {
            loss: 0.2,
            buffer: 30,
            without: cell,
            with: cell,
        }];
        let t = table(&rows);
        assert_eq!(t.len(), 1);
        assert!(t.to_string().contains("atomic with recovery"));
    }
}
