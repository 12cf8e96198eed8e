//! Threaded real-time runtime for the gossip protocols.
//!
//! The paper validated its simulations with "a full implementation, based
//! on Java 2 Standard Edition ... deployed on 60 workstations connected by
//! an Ethernet local area network". This crate is that prototype, rebuilt:
//! each node is an OS thread driving the *same* sans-IO protocol state
//! machines as the simulator, exchanging datagrams over real UDP sockets on
//! the loopback interface (or in-process channels for CI).
//!
//! Because time here is wall-clock, experiments scale the gossip period
//! down (the protocol's dynamics depend on rounds, not on seconds), exactly
//! as one would when porting a 5-second-period LAN deployment into a test
//! harness.
//!
//! # Example
//!
//! ```no_run
//! use std::time::Duration;
//! use agb_runtime::{RuntimeCluster, RuntimeClusterConfig};
//!
//! let cluster = RuntimeCluster::start(RuntimeClusterConfig::quick(8, 1)).unwrap();
//! cluster.run_for(Duration::from_millis(500));
//! let metrics = cluster.stop();
//! println!("{} messages", metrics.deliveries().message_count());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cluster;
mod node;
pub mod telemetry;
mod transport;
pub mod wire;

pub use cluster::{RuntimeCluster, RuntimeClusterConfig, TransportKind};
pub use telemetry::{read_stamp, stamp_payload, NodeTelemetry, STAMP_LEN};
pub use transport::{ChannelTransport, Transport, TransportError, UdpTransport, MAX_DATAGRAM};
