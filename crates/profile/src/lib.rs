//! agb-profile: the profiling plane — engine phase timers, shard
//! load-balance stats, memory attribution, and collapsed-stack flame
//! output.
//!
//! The repo has three observability planes with strictly separated
//! determinism contracts:
//!
//! | plane | crate | answers | deterministic? |
//! |---|---|---|---|
//! | trace | agb-trace | *why* did an event reach a node (causality) | yes — in the digest |
//! | telemetry | agb-telemetry | *how is it doing right now* (live ops) | no — wall clock |
//! | profile | agb-profile | *where do rounds and bytes go* (cost) | split — timings no, memory yes |
//!
//! Phase timings ([`Profiler`]) are wall-clock and excluded from every
//! determinism digest; memory attribution ([`MemReport`] / [`MemTable`])
//! is computed from deterministic end-of-run state and *is* digestable.
//! A profiler attached to the engine only reads clocks and accumulates
//! counters — it never perturbs RNG streams or effect ordering, so
//! engine checksums stay bit-identical profiler-on vs profiler-off.
//!
//! ```
//! use agb_profile::{MemTable, MemUsage, Phase, Profiler};
//!
//! let mut profiler = Profiler::new();
//! let token = profiler.enter(Phase::Merge);
//! profiler.exit(token, 42); // merged 42 effects
//! let snapshot = profiler.snapshot();
//! assert_eq!(snapshot.phase(Phase::Merge).items, 42);
//!
//! let mut mem = MemTable::new(1000);
//! mem.record("event_buffer", MemUsage::new(64_000, 500));
//! assert_eq!(mem.bytes_per_node(), 64);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod mem;
mod phase;
mod profiler;

pub use mem::{MemReport, MemTable, MemUsage};
pub use phase::{Phase, PHASES};
pub use profiler::{PhaseStat, PhaseToken, ProfileConfig, Profiler, ProfilerSnapshot};

/// Schema identifier stamped into PROFILE.json.
pub const PROFILE_SCHEMA: &str = "agb-profile/v1";
