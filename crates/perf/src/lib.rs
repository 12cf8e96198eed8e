//! `agb-perf` — the large-scale macro-benchmark subsystem.
//!
//! Three pieces:
//!
//! * [`harness`] — runs full adaptive-gossip rounds at 1k / 5k / 10k
//!   (and 50k / 100k in full mode) nodes, with and without the recovery
//!   layer, at the `AGB_THREADS` engine shard count, and produces a
//!   machine-readable bench report (`target/perf.json`, schema
//!   `agb-perf/v3`) alongside a human summary. Invoked as
//!   `repro perf [seed]`; no gate reads it. At `K > 1` each scenario is
//!   re-measured at `K = 1` for the `speedup` column, with checksum
//!   equality asserted.
//!   Every scenario is then re-run with the `agb-profile` profiler
//!   attached for cost attribution (per-phase totals, shard balance,
//!   resident bytes per node); the timed run stays profiler-off, and
//!   the attribution run must reproduce its checksum exactly.
//! * [`compare`](mod@compare) — the CI benchmark gate: runs the
//!   repository benchmark built at a change and at its base in
//!   alternating pairs on one machine, and judges every end-to-end metric
//!   against its `BENCHMARK.json` bound; a regression prints the
//!   per-layer metrics of one traced pair. Invoked as
//!   `repro perf-check <base-benchmark-bin> <change-benchmark-bin>`.
//! * [`alloc`] — a counting global allocator (opt-in per binary; the
//!   `repro` driver installs it) powering the allocations-per-round
//!   metric, the most sensitive canary for hot-path allocation
//!   regressions.
//!
//! [`json`] is the dependency-free JSON model the other modules share —
//! it lives in [`agb_types::json`] (the Maelstrom subsystem speaks it
//! too) and is re-exported here.
//!
//! # Bench JSON schema (`agb-perf/v3`)
//!
//! ```json
//! {
//!   "schema": "agb-perf/v3",
//!   "seed": 42,
//!   "quick": true,
//!   "threads": 4,                     // engine shard count (AGB_THREADS)
//!   "scenarios": [
//!     {
//!       "name": "n10000",            // key: n<nodes>[-recovery]
//!       "n_nodes": 10000,
//!       "recovery": false,
//!       "measure_rounds": 10,
//!       "wall_secs": 1.9,
//!       "rounds_per_sec": 5.2,       // virtual gossip rounds / wall s
//!       "node_rounds_per_sec": 52000,
//!       "messages_per_sec": 210000,  // network messages routed / wall s
//!       "events_per_sec": 430000,    // engine events / wall s
//!       "sends": 400000,
//!       "deliveries": 398000,
//!       "peak_queue_depth": 40500,   // future-event-list high-water mark
//!       "allocations": 1200000,      // via the counting allocator
//!       "allocs_per_round": 120000,
//!       "checksum": "0x…",           // engine determinism checksum
//!       "threads": 4,
//!       "speedup": 3.1,              // wall-clock vs a K=1 re-run (1.0 at K=1)
//!       "phases": {                  // wall-ns totals, profiled re-run
//!         "batch_lift": 1.2e8, "shard_exec": 9.1e8, "merge": 2.4e8,
//!         "control": 3.0e7, "route": 1.1e8, "encode": 0, "decode": 0
//!       },
//!       "shard_balance_ratio": 1.4,  // mean max/min shard busy (1.0 at K=1)
//!       "peak_resident_bytes_per_node": 18432  // deterministic, end of run
//!     }
//!   ],
//!   "encode": {                      // pooled wire-codec micro-leg
//!     "bytes_per_sec": 1.2e9, "frames_per_sec": 230000,
//!     "frames": 5000, "bytes": 2.6e7, "wall_secs": 0.02, "checksum": "0x…"
//!   },
//!   "determinism_checksum": "0x…"    // identical across same-seed runs
//! }
//! ```
//!
//! Wall-clock metrics (`wall_secs`, `*_per_sec`, `speedup`, the
//! `phases` nanoseconds, `shard_balance_ratio`) vary between machines
//! and runs; everything else — counts, checksums, queue depths,
//! `peak_resident_bytes_per_node` — is an exact function of the seed,
//! at every thread count. `peak_queue_depth` covers measured rounds
//! only (peak tracking resets at the warmup/measure boundary).

#![warn(missing_docs)]

pub mod alloc;
pub mod compare;
pub mod harness;

pub use agb_types::json;
pub use agb_types::json::Json;
pub use harness::{
    harness_threads, quick_mode, run_encode_bench, run_scenario, run_scenario_at, scale_points,
    EncodeResult, PerfReport, ScenarioResult, ScenarioSpec, SCHEMA,
};
