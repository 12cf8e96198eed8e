//! Datagram transports for the threaded runtime.
//!
//! Two implementations behind one trait:
//!
//! * [`UdpTransport`] — one UDP socket per node, the moral equivalent of
//!   the paper's 60 workstations on an Ethernet LAN; binds loopback by
//!   default, any local interface via
//!   [`bind_cluster_on`](UdpTransport::bind_cluster_on);
//! * [`ChannelTransport`] — in-process `std` channels, for fast tests
//!   and CI environments without network access.

use std::io;
use std::net::{IpAddr, Ipv4Addr, SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use agb_types::NodeId;
use bytes::Bytes;

/// Why a datagram could not be handed to the transport.
///
/// Delivery stays best effort — a frame the transport *accepted* may
/// still be lost — but a frame the transport *refused* is observable, so
/// the node loop can count refusals instead of silently swallowing them.
#[derive(Debug)]
pub enum TransportError {
    /// The datagram exceeds the transport's size bound and was refused
    /// before hitting the socket (a UDP `send` of this size would fail
    /// or fragment unpredictably).
    Oversize {
        /// The attempted datagram length.
        len: usize,
        /// The transport's bound ([`MAX_DATAGRAM`]).
        max: usize,
    },
    /// The destination is not a member of this cluster's peer table.
    UnknownPeer(NodeId),
    /// The OS socket send failed (buffer exhaustion, interface down…).
    Io(io::Error),
}

impl TransportError {
    /// A stable short label for the error class — the `cause` label of
    /// the `agb_socket_send_errors_total` telemetry series.
    pub fn cause_label(&self) -> &'static str {
        match self {
            TransportError::Oversize { .. } => "oversize",
            TransportError::UnknownPeer(_) => "unknown_peer",
            TransportError::Io(_) => "io",
        }
    }
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::Oversize { len, max } => {
                write!(f, "datagram of {len} bytes exceeds the {max}-byte bound")
            }
            TransportError::UnknownPeer(n) => write!(f, "unknown peer {}", n.index()),
            TransportError::Io(e) => write!(f, "socket send failed: {e}"),
        }
    }
}

impl std::error::Error for TransportError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TransportError::Io(e) => Some(e),
            _ => None,
        }
    }
}

/// Outcome of one bounded receive wait.
///
/// Distinguishes "the network was quiet" from "this transport can never
/// produce another datagram" — conflating the two turns a torn-down peer
/// channel into an infinite quiet-timeout loop in the node loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecvOutcome {
    /// One datagram arrived.
    Datagram(Bytes),
    /// Nothing arrived within the timeout; try again later.
    Timeout,
    /// The transport is permanently closed (every sender endpoint is
    /// gone). The node loop should exit, not spin.
    Closed,
}

/// A best-effort datagram channel between the nodes of one cluster.
///
/// An accepted send may still be dropped in flight (UDP semantics); a
/// refused send reports why. Receives are bounded waits.
pub trait Transport: Send + 'static {
    /// Sends one datagram to `to` (best effort once accepted).
    ///
    /// # Errors
    ///
    /// [`TransportError`] when the transport refuses the datagram:
    /// oversized, unknown destination, or socket failure.
    fn send(&self, to: NodeId, bytes: Bytes) -> Result<(), TransportError>;

    /// Waits up to `timeout` for one datagram, reporting whether a quiet
    /// wait can ever succeed again.
    fn recv_outcome(&self, timeout: Duration) -> RecvOutcome;

    /// Waits up to `timeout` for one datagram ([`recv_outcome`]
    /// flattened; `Closed` looks like a quiet timeout here).
    ///
    /// [`recv_outcome`]: Transport::recv_outcome
    fn recv_timeout(&self, timeout: Duration) -> Option<Bytes> {
        match self.recv_outcome(timeout) {
            RecvOutcome::Datagram(b) => Some(b),
            RecvOutcome::Timeout | RecvOutcome::Closed => None,
        }
    }
}

/// UDP-socket transport.
#[derive(Debug)]
pub struct UdpTransport {
    socket: UdpSocket,
    peers: Arc<Vec<SocketAddr>>,
    recv_buf_size: usize,
    /// The read timeout currently armed on the socket. `set_read_timeout`
    /// is a syscall per call otherwise — the node loop calls
    /// `recv_outcome` with the same ~5 ms slice thousands of times per
    /// second, so re-arm only when the requested timeout changes.
    armed_timeout: Mutex<Option<Duration>>,
    /// `set_read_timeout` syscalls issued (regression guard).
    rearms: AtomicU64,
}

/// The UDP datagram payload bound used when splitting gossip messages.
pub const MAX_DATAGRAM: usize = 60 * 1024;

impl UdpTransport {
    /// Binds one socket per node on OS-assigned loopback ports and returns
    /// the per-node transports.
    ///
    /// # Errors
    ///
    /// Propagates socket bind/configuration failures.
    pub fn bind_cluster(n_nodes: usize) -> io::Result<Vec<UdpTransport>> {
        Self::bind_cluster_on(IpAddr::V4(Ipv4Addr::LOCALHOST), n_nodes)
    }

    /// Binds one socket per node on `addr` (port OS-assigned) — loopback
    /// for single-host runs, a real interface address to take the cluster
    /// onto a LAN.
    ///
    /// # Errors
    ///
    /// Propagates socket bind/configuration failures.
    pub fn bind_cluster_on(addr: IpAddr, n_nodes: usize) -> io::Result<Vec<UdpTransport>> {
        let mut sockets = Vec::with_capacity(n_nodes);
        let mut addrs = Vec::with_capacity(n_nodes);
        for _ in 0..n_nodes {
            let socket = UdpSocket::bind((addr, 0))?;
            addrs.push(socket.local_addr()?);
            sockets.push(socket);
        }
        let peers = Arc::new(addrs);
        sockets
            .into_iter()
            .map(|socket| {
                socket.set_nonblocking(false)?;
                Ok(UdpTransport {
                    socket,
                    peers: Arc::clone(&peers),
                    recv_buf_size: 64 * 1024,
                    armed_timeout: Mutex::new(None),
                    rearms: AtomicU64::new(0),
                })
            })
            .collect()
    }

    /// This node's bound socket address (the OS-chosen port).
    ///
    /// # Errors
    ///
    /// Propagates `local_addr` failures from the OS.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.socket.local_addr()
    }

    /// The full cluster's socket addresses, indexed by node.
    pub fn peer_addrs(&self) -> &[SocketAddr] {
        &self.peers
    }

    /// How many `set_read_timeout` syscalls this transport has issued.
    /// Steady-state receiving with a constant timeout costs exactly one.
    pub fn rearm_count(&self) -> u64 {
        self.rearms.load(Ordering::Relaxed)
    }

    /// Arms the socket read timeout only when it differs from what is
    /// already armed.
    fn arm_timeout(&self, timeout: Duration) -> io::Result<()> {
        let mut armed = self.armed_timeout.lock().expect("timeout lock");
        if *armed == Some(timeout) {
            return Ok(());
        }
        self.socket.set_read_timeout(Some(timeout))?;
        self.rearms.fetch_add(1, Ordering::Relaxed);
        *armed = Some(timeout);
        Ok(())
    }
}

impl Transport for UdpTransport {
    fn send(&self, to: NodeId, bytes: Bytes) -> Result<(), TransportError> {
        if bytes.len() > MAX_DATAGRAM {
            return Err(TransportError::Oversize {
                len: bytes.len(),
                max: MAX_DATAGRAM,
            });
        }
        let addr = self
            .peers
            .get(to.index())
            .ok_or(TransportError::UnknownPeer(to))?;
        match self.socket.send_to(&bytes, addr) {
            Ok(_) => Ok(()),
            Err(e) => Err(TransportError::Io(e)),
        }
    }

    fn recv_outcome(&self, timeout: Duration) -> RecvOutcome {
        // A zero timeout would put the socket in nonblocking mode forever.
        let timeout = timeout.max(Duration::from_millis(1));
        if self.arm_timeout(timeout).is_err() {
            return RecvOutcome::Timeout;
        }
        let mut buf = vec![0u8; self.recv_buf_size];
        match self.socket.recv_from(&mut buf) {
            Ok((n, _)) => {
                buf.truncate(n);
                RecvOutcome::Datagram(Bytes::from(buf))
            }
            // UDP sockets have no peer lifetime: every error here (the
            // timeout included) is a quiet wait, never terminal.
            Err(_) => RecvOutcome::Timeout,
        }
    }
}

/// In-process channel transport.
#[derive(Debug)]
pub struct ChannelTransport {
    rx: Receiver<Bytes>,
    txs: Arc<Vec<Sender<Bytes>>>,
}

impl ChannelTransport {
    /// Creates a fully connected cluster of channel transports.
    pub fn cluster(n_nodes: usize) -> Vec<ChannelTransport> {
        let mut txs = Vec::with_capacity(n_nodes);
        let mut rxs = Vec::with_capacity(n_nodes);
        for _ in 0..n_nodes {
            let (tx, rx) = mpsc::channel();
            txs.push(tx);
            rxs.push(rx);
        }
        let txs = Arc::new(txs);
        rxs.into_iter()
            .map(|rx| ChannelTransport {
                rx,
                txs: Arc::clone(&txs),
            })
            .collect()
    }
}

impl Transport for ChannelTransport {
    fn send(&self, to: NodeId, bytes: Bytes) -> Result<(), TransportError> {
        // Enforce the same datagram bound as UDP so oversize bugs surface
        // in socket-free CI runs too.
        if bytes.len() > MAX_DATAGRAM {
            return Err(TransportError::Oversize {
                len: bytes.len(),
                max: MAX_DATAGRAM,
            });
        }
        let tx = self
            .txs
            .get(to.index())
            .ok_or(TransportError::UnknownPeer(to))?;
        tx.send(bytes).map_err(|_| {
            TransportError::Io(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "receiver disconnected",
            ))
        })
    }

    fn recv_outcome(&self, timeout: Duration) -> RecvOutcome {
        match self.rx.recv_timeout(timeout) {
            Ok(b) => RecvOutcome::Datagram(b),
            // Every transport shares one sender table (self-send
            // included), so the channel's `Disconnected` can never fire
            // while this receiver is alive. Teardown is detected through
            // the table's reference count instead: when this transport
            // holds the last reference, every peer that could have sent
            // to it is gone and quiet waits can never succeed again.
            Err(RecvTimeoutError::Timeout) => {
                if Arc::strong_count(&self.txs) == 1 {
                    RecvOutcome::Closed
                } else {
                    RecvOutcome::Timeout
                }
            }
            Err(RecvTimeoutError::Disconnected) => RecvOutcome::Closed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn channel_transport_delivers() {
        let cluster = ChannelTransport::cluster(3);
        cluster[0]
            .send(NodeId::new(2), Bytes::from_static(b"hello"))
            .unwrap();
        let got = cluster[2].recv_timeout(Duration::from_millis(100));
        assert_eq!(got, Some(Bytes::from_static(b"hello")));
        // Nothing for node 1.
        assert_eq!(cluster[1].recv_timeout(Duration::from_millis(10)), None);
    }

    #[test]
    fn channel_send_to_unknown_node_reports() {
        let cluster = ChannelTransport::cluster(1);
        let err = cluster[0]
            .send(NodeId::new(9), Bytes::from_static(b"x"))
            .unwrap_err();
        assert!(matches!(err, TransportError::UnknownPeer(n) if n.index() == 9));
        assert_eq!(err.cause_label(), "unknown_peer");
    }

    #[test]
    fn oversized_datagrams_are_refused_not_truncated() {
        let big = Bytes::from(vec![0u8; MAX_DATAGRAM + 1]);
        let channel = ChannelTransport::cluster(2);
        let err = channel[0].send(NodeId::new(1), big.clone()).unwrap_err();
        assert!(matches!(err, TransportError::Oversize { len, max }
            if len == MAX_DATAGRAM + 1 && max == MAX_DATAGRAM));
        assert_eq!(err.cause_label(), "oversize");
        // Nothing partial arrived.
        assert_eq!(channel[1].recv_timeout(Duration::from_millis(10)), None);

        let udp = UdpTransport::bind_cluster(2).expect("bind loopback");
        let err = udp[0].send(NodeId::new(1), big).unwrap_err();
        assert!(matches!(err, TransportError::Oversize { .. }));
        assert_eq!(udp[1].recv_timeout(Duration::from_millis(20)), None);
    }

    #[test]
    fn udp_transport_roundtrip() {
        let cluster = UdpTransport::bind_cluster(2).expect("bind loopback");
        cluster[0]
            .send(NodeId::new(1), Bytes::from_static(b"ping"))
            .unwrap();
        let got = cluster[1].recv_timeout(Duration::from_millis(500));
        assert_eq!(got, Some(Bytes::from_static(b"ping")));
    }

    #[test]
    fn udp_exposes_bound_addresses() {
        let cluster = UdpTransport::bind_cluster_on(IpAddr::V4(Ipv4Addr::LOCALHOST), 3)
            .expect("bind loopback");
        let addrs: Vec<SocketAddr> = cluster[0].peer_addrs().to_vec();
        assert_eq!(addrs.len(), 3);
        for (t, expect) in cluster.iter().zip(&addrs) {
            assert_eq!(t.local_addr().unwrap(), *expect);
            assert!(expect.port() != 0, "OS assigned a real port");
        }
    }

    #[test]
    fn udp_recv_times_out_quietly() {
        let cluster = UdpTransport::bind_cluster(1).expect("bind loopback");
        let got = cluster[0].recv_timeout(Duration::from_millis(20));
        assert_eq!(got, None);
        // And the outcome API agrees: quiet, not closed.
        assert_eq!(
            cluster[0].recv_outcome(Duration::from_millis(10)),
            RecvOutcome::Timeout
        );
    }

    #[test]
    fn udp_rearms_read_timeout_only_on_change() {
        let cluster = UdpTransport::bind_cluster(1).expect("bind loopback");
        let t = &cluster[0];
        assert_eq!(t.rearm_count(), 0);
        for _ in 0..5 {
            let _ = t.recv_timeout(Duration::from_millis(5));
        }
        assert_eq!(t.rearm_count(), 1, "constant timeout arms exactly once");
        let _ = t.recv_timeout(Duration::from_millis(9));
        assert_eq!(t.rearm_count(), 2, "a new timeout re-arms");
        let _ = t.recv_timeout(Duration::from_millis(5));
        let _ = t.recv_timeout(Duration::from_millis(5));
        assert_eq!(
            t.rearm_count(),
            3,
            "returning to a prior timeout re-arms once"
        );
        // Sub-millisecond requests clamp to 1 ms and share one arming.
        let _ = t.recv_timeout(Duration::ZERO);
        let _ = t.recv_timeout(Duration::from_micros(10));
        assert_eq!(t.rearm_count(), 4);
    }

    #[test]
    fn channel_disconnect_is_terminal_not_quiet() {
        let mut cluster = ChannelTransport::cluster(2);
        let receiver = cluster.pop().expect("node 1");
        // While peers hold sender halves the channel is merely quiet.
        assert_eq!(
            receiver.recv_outcome(Duration::from_millis(5)),
            RecvOutcome::Timeout
        );
        // Tear down every other transport: the cluster is gone.
        drop(cluster);
        assert_eq!(
            receiver.recv_outcome(Duration::from_millis(5)),
            RecvOutcome::Closed
        );
        // The flattened legacy view still reads None.
        assert_eq!(receiver.recv_timeout(Duration::from_millis(5)), None);
    }
}
