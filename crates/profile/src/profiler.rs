//! Phase accumulators, scoped timers, and shard load-balance stats.
//!
//! All data recorded here is wall-clock (and allocator-count) noise:
//! it varies run to run and thread count to thread count, and must
//! never feed a determinism digest. The engine only *reads* clocks
//! through this module — recording never touches RNG streams, effect
//! ordering, or control flow, which is what keeps engine checksums
//! bit-identical profiler-on vs profiler-off.

use std::time::Instant;

use crate::phase::{Phase, PHASES};

/// Whether profiling is requested for a run.
///
/// A plain on/off toggle kept as a struct so future knobs (sampling
/// rates, phase masks) extend it without breaking call sites.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProfileConfig {
    /// Attach a [`Profiler`] to the engine / runtime when true.
    pub enabled: bool,
}

impl ProfileConfig {
    /// Profiling off (the default — zero overhead).
    pub fn disabled() -> Self {
        Self { enabled: false }
    }

    /// Profiling on.
    pub fn enabled() -> Self {
        Self { enabled: true }
    }
}

/// Per-phase monotonic accumulator.
#[derive(Clone, Debug, Default)]
struct PhaseAcc {
    total_ns: u64,
    count: u64,
    items: u64,
    allocs: u64,
}

impl PhaseAcc {
    fn record(&mut self, ns: u64, items: u64, allocs: u64) {
        self.total_ns += ns;
        self.count += 1;
        self.items += items;
        self.allocs += allocs;
    }
}

/// An open phase scope returned by [`Profiler::enter`].
///
/// Explicit enter/exit tokens rather than a guard: the engine's hot loops
/// split borrows in ways that make a lifetime-carrying guard awkward.
#[derive(Debug)]
pub struct PhaseToken {
    phase: Phase,
    start: Instant,
    allocs0: u64,
}

/// Engine-side profiler: owned by the simulation (or runtime node)
/// while enabled, absent otherwise.
#[derive(Debug)]
pub struct Profiler {
    phases: Vec<PhaseAcc>,
    /// Cumulative busy-ns per shard slot across parallel batches.
    shard_busy_ns: Vec<u64>,
    /// Parallel batches recorded (k >= 2 shards actually used).
    parallel_batches: u64,
    /// Sum of per-batch max/min busy ratios (for the mean).
    ratio_sum: f64,
    /// Worst per-batch max/min busy ratio seen.
    worst_ratio: f64,
    /// Optional allocation counter (wired to the agb-perf counting
    /// allocator by binaries that install it) sampled at phase
    /// boundaries for allocations-per-phase attribution.
    alloc_counter: Option<fn() -> u64>,
}

impl Default for Profiler {
    fn default() -> Self {
        Self::new()
    }
}

impl Profiler {
    /// A fresh profiler with empty accumulators.
    pub fn new() -> Self {
        Self {
            phases: vec![PhaseAcc::default(); PHASES.len()],
            shard_busy_ns: Vec::new(),
            parallel_batches: 0,
            ratio_sum: 0.0,
            worst_ratio: 0.0,
            alloc_counter: None,
        }
    }

    /// Installs an allocation counter (e.g. agb-perf's
    /// `allocation_count`) sampled at phase boundaries. A plain `fn`
    /// pointer keeps this crate dependency-free.
    pub fn set_alloc_counter(&mut self, counter: fn() -> u64) {
        self.alloc_counter = Some(counter);
    }

    /// Opens a phase scope; close it with [`Profiler::exit`].
    pub fn enter(&self, phase: Phase) -> PhaseToken {
        PhaseToken {
            phase,
            start: Instant::now(),
            allocs0: self.alloc_counter.map_or(0, |f| f()),
        }
    }

    /// Closes a phase scope, attributing elapsed wall time,
    /// allocations since [`Profiler::enter`], and `items` units of
    /// work (events, targets, frames — phase-dependent).
    pub fn exit(&mut self, token: PhaseToken, items: u64) {
        let ns = token.start.elapsed().as_nanos() as u64;
        let allocs = self
            .alloc_counter
            .map_or(0, |f| f().saturating_sub(token.allocs0));
        self.phases[token.phase.index()].record(ns, items, allocs);
    }

    /// Attributes externally measured nanoseconds to a phase (used to
    /// harvest routing time accumulated in per-shard effect
    /// buffers, where the profiler itself is not reachable).
    pub fn add_ns(&mut self, phase: Phase, ns: u64, items: u64) {
        if ns > 0 || items > 0 {
            self.phases[phase.index()].record(ns, items, 0);
        }
    }

    /// Records one parallel batch's per-shard busy times, updating
    /// cumulative shard load and the max/min imbalance ratio.
    pub fn record_parallel_batch(&mut self, busy_ns: &[u64]) {
        if busy_ns.len() < 2 {
            return;
        }
        if self.shard_busy_ns.len() < busy_ns.len() {
            self.shard_busy_ns.resize(busy_ns.len(), 0);
        }
        let mut max = 0u64;
        let mut min = u64::MAX;
        for (slot, &ns) in self.shard_busy_ns.iter_mut().zip(busy_ns) {
            *slot += ns;
            max = max.max(ns);
            min = min.min(ns);
        }
        let ratio = max as f64 / min.max(1) as f64;
        self.parallel_batches += 1;
        self.ratio_sum += ratio;
        if ratio > self.worst_ratio {
            self.worst_ratio = ratio;
        }
    }

    /// Immutable snapshot of everything accumulated so far.
    pub fn snapshot(&self) -> ProfilerSnapshot {
        ProfilerSnapshot {
            phases: PHASES
                .iter()
                .map(|&p| {
                    let acc = &self.phases[p.index()];
                    PhaseStat {
                        phase: p,
                        total_ns: acc.total_ns,
                        count: acc.count,
                        items: acc.items,
                        allocs: acc.allocs,
                    }
                })
                .collect(),
            shard_busy_ns: self.shard_busy_ns.clone(),
            parallel_batches: self.parallel_batches,
            mean_balance_ratio: if self.parallel_batches == 0 {
                None
            } else {
                Some(self.ratio_sum / self.parallel_batches as f64)
            },
            worst_balance_ratio: if self.parallel_batches == 0 {
                None
            } else {
                Some(self.worst_ratio)
            },
        }
    }
}

/// Frozen per-phase statistics from [`Profiler::snapshot`].
#[derive(Clone, Debug)]
pub struct PhaseStat {
    /// Which phase.
    pub phase: Phase,
    /// Total wall nanoseconds attributed.
    pub total_ns: u64,
    /// Scope closures recorded.
    pub count: u64,
    /// Work items attributed (events / targets / frames).
    pub items: u64,
    /// Allocations attributed (0 unless an alloc counter is wired).
    pub allocs: u64,
}

/// Frozen profiler state: phase totals plus shard balance.
#[derive(Clone, Debug)]
pub struct ProfilerSnapshot {
    /// Per-phase stats in [`PHASES`] order.
    pub phases: Vec<PhaseStat>,
    /// Cumulative busy-ns per shard slot (empty if never parallel).
    pub shard_busy_ns: Vec<u64>,
    /// Parallel batches recorded.
    pub parallel_batches: u64,
    /// Mean per-batch max/min shard busy ratio (None if never parallel).
    pub mean_balance_ratio: Option<f64>,
    /// Worst per-batch max/min shard busy ratio (None if never parallel).
    pub worst_balance_ratio: Option<f64>,
}

impl ProfilerSnapshot {
    /// Total nanoseconds across top-level (non-nested) phases — the
    /// denominator for "where does the round go" percentages.
    pub fn top_level_total_ns(&self) -> u64 {
        self.phases
            .iter()
            .filter(|s| !s.phase.nested())
            .map(|s| s.total_ns)
            .sum()
    }

    /// Stats for one phase.
    pub fn phase(&self, phase: Phase) -> &PhaseStat {
        &self.phases[phase.index()]
    }

    /// Inferno-compatible collapsed-stack text (`frame;frame count`),
    /// one line per phase with nonzero time, counts in microseconds so
    /// flamegraph renderers get sane magnitudes. Nested phases render
    /// under `engine;shard_exec`.
    pub fn collapsed(&self) -> String {
        let mut out = String::new();
        let mut exec_self_us = self.phase(Phase::ShardExec).total_ns / 1_000;
        for stat in &self.phases {
            let us = stat.total_ns / 1_000;
            if us == 0 {
                continue;
            }
            if stat.phase.nested() {
                exec_self_us = exec_self_us.saturating_sub(us);
                out.push_str(&format!(
                    "engine;shard_exec;{} {}\n",
                    stat.phase.label(),
                    us
                ));
            } else if stat.phase != Phase::ShardExec {
                out.push_str(&format!("engine;{} {}\n", stat.phase.label(), us));
            }
        }
        if exec_self_us > 0 {
            out.push_str(&format!("engine;shard_exec {}\n", exec_self_us));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enter_exit_accumulates() {
        let mut p = Profiler::new();
        let t = p.enter(Phase::Merge);
        p.exit(t, 7);
        let snap = p.snapshot();
        let merge = snap.phase(Phase::Merge);
        assert_eq!(merge.count, 1);
        assert_eq!(merge.items, 7);
    }

    #[test]
    fn balance_ratio_tracks_max_over_min() {
        let mut p = Profiler::new();
        p.record_parallel_batch(&[100, 400]);
        p.record_parallel_batch(&[200, 200]);
        let snap = p.snapshot();
        assert_eq!(snap.parallel_batches, 2);
        assert_eq!(snap.shard_busy_ns, vec![300, 600]);
        assert_eq!(snap.worst_balance_ratio, Some(4.0));
        assert!((snap.mean_balance_ratio.unwrap() - 2.5).abs() < 1e-9);
    }

    #[test]
    fn single_shard_batches_are_ignored_for_balance() {
        let mut p = Profiler::new();
        p.record_parallel_batch(&[500]);
        assert_eq!(p.snapshot().parallel_batches, 0);
        assert_eq!(p.snapshot().mean_balance_ratio, None);
    }

    #[test]
    fn collapsed_nests_subphases_under_shard_exec() {
        let mut p = Profiler::new();
        p.add_ns(Phase::ShardExec, 10_000_000, 5);
        p.add_ns(Phase::Route, 2_000_000, 9);
        p.add_ns(Phase::Merge, 1_000_000, 5);
        let text = p.snapshot().collapsed();
        assert!(text.contains("engine;shard_exec;route 2000"));
        assert!(text.contains("engine;shard_exec 8000"));
        assert!(text.contains("engine;merge 1000"));
        // Every line is `frames space count`.
        for line in text.lines() {
            let (stack, count) = line.rsplit_once(' ').unwrap();
            assert!(!stack.is_empty());
            count.parse::<u64>().unwrap();
        }
    }

    #[test]
    fn top_level_total_excludes_nested() {
        let mut p = Profiler::new();
        p.add_ns(Phase::ShardExec, 100, 1);
        p.add_ns(Phase::Route, 40, 1);
        p.add_ns(Phase::Control, 10, 1);
        assert_eq!(p.snapshot().top_level_total_ns(), 110);
    }

    #[test]
    fn alloc_counter_deltas_are_attributed() {
        fn fake_counter() -> u64 {
            use std::sync::atomic::{AtomicU64, Ordering};
            static N: AtomicU64 = AtomicU64::new(0);
            N.fetch_add(5, Ordering::Relaxed)
        }
        let mut p = Profiler::new();
        p.set_alloc_counter(fake_counter);
        let t = p.enter(Phase::Control);
        p.exit(t, 1);
        assert_eq!(p.snapshot().phase(Phase::Control).allocs, 5);
    }
}
