//! The post-run trace report: one summary per traced run, JSON-shaped
//! for `TRACE.json` (schema [`TRACE_SCHEMA`]).

use agb_types::json::Json;
use agb_types::Histogram;

use crate::recorder::{Recorder, TraceCounts, FNV_OFFSET, FNV_PRIME};
use crate::tree::TreeStats;

/// Schema identifier written into `TRACE.json`.
pub const TRACE_SCHEMA: &str = "agb-trace/v1";

/// Everything a traced run reports: per-kind counts (the drop taxonomy),
/// the four standard histograms, dissemination-tree statistics, ring
/// accounting, and a stable digest over the whole trace.
///
/// Built from a [`Recorder`] with [`Recorder::summary`]; serialized into
/// `TRACE.json` by the `repro trace` harness.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSummary {
    /// What was traced (e.g. the protocol flavor name).
    pub label: String,
    /// Per-kind record counts.
    pub counts: TraceCounts,
    /// Delivery latency in gossip rounds.
    pub latency: Histogram,
    /// Hops-to-delivery.
    pub hops: Histogram,
    /// Buffer occupancy snapshots.
    pub occupancy: Histogram,
    /// Recovery round-trip time, ms.
    pub recovery_rtt: Histogram,
    /// Dissemination-tree aggregates.
    pub tree: TreeStats,
    /// Raw records still in the ring.
    pub records_retained: usize,
    /// Raw records evicted from the ring (aggregates still saw them).
    pub records_evicted: u64,
    /// Full FNV-1a digest: the recorder's streaming record digest
    /// (which mixes every record's absolute timestamp) folded with
    /// every aggregate. Identical traces yield identical digests
    /// across runs and `AGB_THREADS` settings.
    pub digest: u64,
    /// Timestamp-shift-invariant FNV-1a digest over the aggregates
    /// only: counts, the four histograms (whose observations are all
    /// time *differences* or sizes), and tree statistics. Two traces
    /// of the same behavior whose records differ only by when the
    /// clock started yield the same `stable_digest`. The topology and
    /// resilience reports fold it into their own digests.
    pub stable_digest: u64,
}

impl TraceSummary {
    /// JSON form (stable key order; the digests are hex strings because
    /// JSON numbers lose u64 precision).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("label", Json::Str(self.label.clone())),
            ("counts", self.counts.to_json()),
            (
                "histograms",
                Json::obj(
                    [
                        ("delivery_latency_rounds", &self.latency),
                        ("hops_to_delivery", &self.hops),
                        ("buffer_occupancy", &self.occupancy),
                        ("recovery_rtt_ms", &self.recovery_rtt),
                    ]
                    .map(|(name, h)| (name, histogram_json(name, h))),
                ),
            ),
            ("tree", self.tree.to_json()),
            ("records_retained", Json::from(self.records_retained)),
            ("records_evicted", Json::from(self.records_evicted)),
            ("digest", Json::Str(format!("{:#018x}", self.digest))),
            (
                "stable_digest",
                Json::Str(format!("{:#018x}", self.stable_digest)),
            ),
        ])
    }
}

impl Recorder {
    /// Snapshots this recorder into a [`TraceSummary`] labeled `label`.
    pub fn summary(&self, label: &str) -> TraceSummary {
        let tree = self.trees().stats();
        // The aggregate fold is computed twice: once seeded with the
        // record-stream digest (which mixes absolute timestamps) for
        // the full digest, and once from the bare FNV offset for the
        // shift-invariant stable digest. Every aggregate observes only
        // time *differences* (latency, RTT) or sizes, so the stable
        // fold survives a constant clock offset.
        let fold_aggregates = |seed: u64| {
            let mut digest = seed;
            let mut mix = |w: u64| {
                digest ^= w;
                digest = digest.wrapping_mul(FNV_PRIME);
            };
            self.counts().fold_digest(&mut mix);
            for h in [
                self.latency(),
                self.hops(),
                self.occupancy(),
                self.recovery_rtt(),
            ] {
                fold_histogram(h, &mut mix);
            }
            tree.fold_digest(&mut mix);
            digest
        };
        let digest = fold_aggregates(self.digest());
        let stable_digest = fold_aggregates(FNV_OFFSET);
        TraceSummary {
            label: label.to_string(),
            counts: *self.counts(),
            latency: self.latency().clone(),
            hops: self.hops().clone(),
            occupancy: self.occupancy().clone(),
            recovery_rtt: self.recovery_rtt().clone(),
            tree,
            records_retained: self.records().count(),
            records_evicted: self.evicted(),
            digest,
            stable_digest,
        }
    }
}

/// JSON form of one trace histogram: its name, bounds, per-bucket
/// counts and the running aggregates.
pub(crate) fn histogram_json(name: &str, h: &Histogram) -> Json {
    let opt = |v: Option<f64>| v.map_or(Json::Null, Json::Num);
    Json::obj([
        ("name", Json::Str(name.to_string())),
        (
            "bounds",
            Json::Arr(h.bounds().iter().map(|&b| Json::Num(b)).collect()),
        ),
        (
            "counts",
            Json::Arr(h.counts().iter().map(|&c| Json::from(c)).collect()),
        ),
        ("count", Json::from(h.count())),
        ("sum", Json::Num(h.sum())),
        ("mean", opt(h.mean())),
        ("min", opt(h.min())),
        ("max", opt(h.max())),
        ("p50", opt(h.quantile(0.5))),
        ("p99", opt(h.quantile(0.99))),
    ])
}

/// Folds a histogram's counters into a digest accumulator, in bucket
/// order.
pub(crate) fn fold_histogram(h: &Histogram, mix: &mut impl FnMut(u64)) {
    mix(h.count());
    mix(h.sum().to_bits());
    for &c in h.counts() {
        mix(c);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{TraceKind, TraceRecord, TraceSink};
    use crate::TraceConfig;
    use agb_types::{EventId, NodeId, TimeMs};

    fn sample_recorder() -> Recorder {
        let mut r = Recorder::new(TraceConfig::enabled());
        let id = EventId::new(NodeId::new(0), 0);
        r.record(TraceRecord {
            node: NodeId::new(0),
            at: TimeMs::from_secs(1),
            round: 1,
            kind: TraceKind::Publish { id },
        });
        r.record(TraceRecord {
            node: NodeId::new(2),
            at: TimeMs::from_secs(3),
            round: 3,
            kind: TraceKind::Deliver {
                id,
                from: NodeId::new(0),
                hops: 1,
            },
        });
        r
    }

    #[test]
    fn summary_json_has_schema_shape() {
        let s = sample_recorder().summary("adaptive");
        let j = s.to_json();
        assert_eq!(j.get("label").unwrap().as_str(), Some("adaptive"));
        assert_eq!(
            j.get("counts").unwrap().get("publishes").unwrap().as_u64(),
            Some(1)
        );
        assert!(j
            .get("histograms")
            .unwrap()
            .get("delivery_latency_rounds")
            .is_some());
        assert_eq!(
            j.get("tree").unwrap().get("deliveries").unwrap().as_u64(),
            Some(1)
        );
        for key in ["digest", "stable_digest"] {
            let hex = j.get(key).unwrap().as_str().unwrap();
            assert!(hex.starts_with("0x") && hex.len() == 18, "{key}: {hex}");
        }
    }

    #[test]
    fn histogram_json_has_stable_shape() {
        let mut h = Histogram::new(&[1.0]);
        h.observe(0.5);
        let j = histogram_json("latency_rounds", &h);
        assert_eq!(j.get("name").unwrap().as_str(), Some("latency_rounds"));
        assert_eq!(j.get("count").unwrap().as_u64(), Some(1));
        assert_eq!(j.get("mean").unwrap().as_f64(), Some(0.5));
        assert_eq!(j.get("min").unwrap().as_f64(), Some(0.5));
        assert_eq!(j.get("p50").unwrap().as_f64(), Some(1.0));
        let empty = histogram_json("latency_rounds", &Histogram::new(&[1.0]));
        assert_eq!(empty.get("max"), Some(&Json::Null));
    }

    #[test]
    fn identical_traces_summarize_identically() {
        let a = sample_recorder().summary("x");
        let b = sample_recorder().summary("x");
        assert_eq!(a, b);
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.to_json().pretty(), b.to_json().pretty());
    }

    fn shifted_recorder(offset_secs: u64) -> Recorder {
        let mut r = Recorder::new(TraceConfig::enabled());
        let id = EventId::new(NodeId::new(0), 0);
        r.record(TraceRecord {
            node: NodeId::new(0),
            at: TimeMs::from_secs(1 + offset_secs),
            round: 1,
            kind: TraceKind::Publish { id },
        });
        r.record(TraceRecord {
            node: NodeId::new(2),
            at: TimeMs::from_secs(3 + offset_secs),
            round: 3,
            kind: TraceKind::Deliver {
                id,
                from: NodeId::new(0),
                hops: 1,
            },
        });
        r
    }

    #[test]
    fn stable_digest_survives_a_clock_shift() {
        let base = shifted_recorder(0).summary("x");
        let shifted = shifted_recorder(1_000).summary("x");
        // Same behavior, clock started 1000 s later: the full digest
        // diverges (it mixes absolute timestamps), the stable one holds.
        assert_ne!(base.digest, shifted.digest);
        assert_eq!(base.stable_digest, shifted.stable_digest);
    }

    #[test]
    fn stable_digest_still_sees_behavior_changes() {
        let base = shifted_recorder(0).summary("x");
        let mut other = shifted_recorder(0);
        other.record(TraceRecord {
            node: NodeId::new(4),
            at: TimeMs::from_secs(5),
            round: 5,
            kind: TraceKind::Crash,
        });
        assert_ne!(base.stable_digest, other.summary("x").stable_digest);
    }

    #[test]
    fn summary_digest_depends_on_aggregates_too() {
        let plain = sample_recorder();
        let mut extra = sample_recorder();
        extra.record(TraceRecord {
            node: NodeId::new(5),
            at: TimeMs::from_secs(4),
            round: 4,
            kind: TraceKind::BufferOccupancy {
                len: 3,
                capacity: 30,
            },
        });
        assert_ne!(plain.summary("x").digest, extra.summary("x").digest);
    }
}
