//! Shared primitive types for the adaptive gossip broadcast workspace.
//!
//! This crate holds the small vocabulary types used by every other crate in
//! the workspace: node, topic and event identifiers, virtual time, message
//! payloads, deterministic random-number helpers, EWMA and running
//! statistics, and the fixed-bound histogram every observation plane uses.
//!
//! The types are deliberately dependency-light so that the protocol crate
//! ([`agb-core`]), the simulator ([`agb-sim`]) and the threaded runtime
//! ([`agb-runtime`]) can share them without pulling each other in.
//!
//! # Example
//!
//! ```
//! use agb_types::{NodeId, TimeMs, DurationMs};
//!
//! let node = NodeId::new(7);
//! let start = TimeMs::ZERO;
//! let later = start + DurationMs::from_secs(5);
//! assert_eq!(later.as_millis(), 5_000);
//! assert_eq!(format!("{node}"), "n7");
//! ```
//!
//! [`agb-core`]: https://example.org/adaptive-gossip
//! [`agb-sim`]: https://example.org/adaptive-gossip
//! [`agb-runtime`]: https://example.org/adaptive-gossip

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod env;
mod error;
mod fasthash;
mod histogram;
mod id;
pub mod json;
mod pool;
mod rng;
mod shard;
mod stats;
mod time;
pub mod topology;

pub use env::{env_flag, env_usize, parse_flag};
pub use error::{ConfigError, ConfigResult};
pub use fasthash::{FastHashMap, FastHashSet, FastHashState, FastHasher};
pub use histogram::Histogram;
pub use id::{EventId, NodeId, TopicId};
pub use pool::{BytePool, PayloadInterner};
pub use rng::{bernoulli, fnv1a, fork_seed, DetRng, SeedSequence};
pub use shard::ShardMap;
pub use stats::{Ewma, RunningStats};
pub use time::{DurationMs, TimeMs};
pub use topology::Topology;

/// Message payload carried by broadcast events.
///
/// A cheap-to-clone byte buffer; protocols treat it as opaque.
pub type Payload = bytes::Bytes;
