//! Network models: latency distributions, independent loss and partitions.
//!
//! The paper's analysis assumes "message loss in the network is independently
//! distributed"; [`NetworkConfig`] reproduces exactly that, plus scheduled
//! [`Partition`]s used by the failure-injection tests to show what happens
//! when the assumption is violated.

use agb_failure::{AdversaryConfig, Mutation};
use agb_types::{DetRng, DurationMs, NodeId, TimeMs};
use rand::RngExt;

/// Per-message latency distribution.
///
/// # Example
///
/// ```
/// use agb_sim::LatencyModel;
/// use agb_types::DurationMs;
/// use rand::SeedableRng;
///
/// let mut rng = agb_types::DetRng::seed_from_u64(1);
/// let lat = LatencyModel::Uniform {
///     min: DurationMs::from_millis(10),
///     max: DurationMs::from_millis(20),
/// };
/// let d = lat.sample(&mut rng);
/// assert!(d >= DurationMs::from_millis(10) && d <= DurationMs::from_millis(20));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LatencyModel {
    /// Every message takes exactly this long.
    Constant(DurationMs),
    /// Uniformly distributed in `[min, max]`.
    Uniform {
        /// Minimum latency.
        min: DurationMs,
        /// Maximum latency (inclusive).
        max: DurationMs,
    },
    /// Exponentially distributed with the given mean, shifted by `floor`.
    ///
    /// Approximates a LAN with occasional queueing spikes.
    Exponential {
        /// Minimum (propagation) latency added to every sample.
        floor: DurationMs,
        /// Mean of the exponential component.
        mean: DurationMs,
    },
}

impl LatencyModel {
    /// Draws one latency sample.
    pub fn sample(&self, rng: &mut DetRng) -> DurationMs {
        match *self {
            LatencyModel::Constant(d) => d,
            LatencyModel::Uniform { min, max } => {
                let lo = min.as_millis();
                let hi = max.as_millis().max(lo);
                DurationMs::from_millis(rng.random_range(lo..=hi))
            }
            LatencyModel::Exponential { floor, mean } => {
                let u: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
                let exp = -(u.ln()) * mean.as_millis() as f64;
                DurationMs::from_millis(floor.as_millis() + exp.round() as u64)
            }
        }
    }

    /// The mean of the distribution (used for sanity reporting).
    pub fn mean(&self) -> DurationMs {
        match *self {
            LatencyModel::Constant(d) => d,
            LatencyModel::Uniform { min, max } => {
                DurationMs::from_millis((min.as_millis() + max.as_millis()) / 2)
            }
            LatencyModel::Exponential { floor, mean } => floor + mean,
        }
    }
}

impl Default for LatencyModel {
    /// A LAN-like default: uniform 5–15 ms.
    fn default() -> Self {
        LatencyModel::Uniform {
            min: DurationMs::from_millis(5),
            max: DurationMs::from_millis(15),
        }
    }
}

/// A scheduled network partition separating two sets of nodes.
///
/// While active, messages crossing between `side_a` and the rest of the
/// system are dropped. Nodes listed in `side_a` can still talk to each
/// other.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    /// Nodes on the isolated side.
    pub side_a: Vec<NodeId>,
    /// Partition start (inclusive).
    pub from: TimeMs,
    /// Partition end (exclusive).
    pub until: TimeMs,
}

impl Partition {
    /// Whether a message from `a` to `b` at time `now` crosses the cut.
    pub fn blocks(&self, a: NodeId, b: NodeId, now: TimeMs) -> bool {
        if now < self.from || now >= self.until {
            return false;
        }
        let a_in = self.side_a.contains(&a);
        let b_in = self.side_a.contains(&b);
        a_in != b_in
    }
}

/// A scheduled degradation of the links touching a set of nodes: extra
/// latency and an extra independent loss probability, active during
/// `[from, until)`.
///
/// Unlike a [`Partition`] (a clean cut), a link fault models flapping or
/// congested paths: messages still flow, but slower and less reliably.
/// A message is affected when its sender **or** receiver is in `nodes`.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkFault {
    /// Nodes whose links degrade.
    pub nodes: Vec<NodeId>,
    /// Additional latency applied to affected messages.
    pub extra_latency: DurationMs,
    /// Additional independent drop probability in `[0, 1]`, applied on top
    /// of the base loss.
    pub extra_loss: f64,
    /// Fault start (inclusive).
    pub from: TimeMs,
    /// Fault end (exclusive).
    pub until: TimeMs,
}

impl LinkFault {
    /// Whether a message from `a` to `b` at time `now` rides a degraded
    /// link.
    pub fn affects(&self, a: NodeId, b: NodeId, now: TimeMs) -> bool {
        if now < self.from || now >= self.until {
            return false;
        }
        self.nodes.contains(&a) || self.nodes.contains(&b)
    }
}

/// A scheduled byte-adversary episode: during `[from, until)`, messages
/// riding the affected links suffer the [`AdversaryConfig`] fault draws —
/// bit flips and truncations (the frame is destroyed and counted as
/// corrupted, never misdelivered), duplication (the receiver gets two
/// copies) and reordering (an extra hold-back delay).
///
/// The simulator's messages have no byte representation, so destructive
/// faults model the *receiver-side outcome* of the wire-level adversary:
/// the frame checksum rejects the mangled datagram and the decode path
/// drops it. The threaded runtime applies the identical fault draws to
/// real encoded bytes ([`agb_failure::ByteAdversary`]).
#[derive(Debug, Clone, PartialEq)]
pub struct AdversaryWindow {
    /// Nodes whose links are attacked; empty means every link. A message
    /// is affected when its sender **or** receiver is listed.
    pub nodes: Vec<NodeId>,
    /// The fault rates drawn per affected message.
    pub faults: AdversaryConfig,
    /// Episode start (inclusive).
    pub from: TimeMs,
    /// Episode end (exclusive).
    pub until: TimeMs,
}

impl AdversaryWindow {
    /// Whether a message from `a` to `b` at time `now` is attacked.
    pub fn affects(&self, a: NodeId, b: NodeId, now: TimeMs) -> bool {
        if now < self.from || now >= self.until {
            return false;
        }
        self.nodes.is_empty() || self.nodes.contains(&a) || self.nodes.contains(&b)
    }
}

/// Complete configuration of the simulated network.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct NetworkConfig {
    /// Latency applied to every delivered message.
    pub latency: LatencyModel,
    /// Independent per-message drop probability in `[0, 1]`.
    pub loss: f64,
    /// Scheduled partitions.
    pub partitions: Vec<Partition>,
    /// Scheduled per-link degradations (latency inflation, loss spikes).
    pub link_faults: Vec<LinkFault>,
    /// Scheduled byte-adversary episodes (corruption, truncation,
    /// duplication, reordering).
    pub adversaries: Vec<AdversaryWindow>,
}

impl NetworkConfig {
    /// A perfect network: constant latency, no loss.
    pub fn perfect(latency: DurationMs) -> Self {
        NetworkConfig {
            latency: LatencyModel::Constant(latency),
            loss: 0.0,
            partitions: Vec::new(),
            link_faults: Vec::new(),
            adversaries: Vec::new(),
        }
    }

    /// LAN-like defaults with the given independent loss probability.
    pub fn lossy(loss: f64) -> Self {
        NetworkConfig {
            latency: LatencyModel::default(),
            loss,
            partitions: Vec::new(),
            link_faults: Vec::new(),
            adversaries: Vec::new(),
        }
    }
}

/// The network's verdict on one routed message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RouteOutcome {
    /// Delivered after the given latency.
    Deliver(DurationMs),
    /// Delivered twice (adversary duplication), each copy after its own
    /// latency.
    Duplicate(DurationMs, DurationMs),
    /// Dropped by loss, a partition, or a link fault.
    Drop,
    /// Destroyed by the byte adversary (bit flip / truncation): the frame
    /// checksum rejects it at the receiver, so it is counted separately
    /// from plain loss and never misdelivered.
    Corrupt,
}

impl RouteOutcome {
    /// The first delivery latency, if any copy is delivered.
    pub(crate) fn latency(self) -> Option<DurationMs> {
        match self {
            RouteOutcome::Deliver(d) | RouteOutcome::Duplicate(d, _) => Some(d),
            RouteOutcome::Drop | RouteOutcome::Corrupt => None,
        }
    }
}

/// Routing decision for one message against a configuration and the
/// *sender's* RNG stream.
///
/// Stateless apart from the stream, so shard workers can route their own
/// nodes' traffic concurrently; because every draw comes from the
/// per-sender stream, the draw sequence depends only on that sender's
/// send order — which the canonical merge keeps identical at any thread
/// count. Adversary draws happen only while a window covers the link, so
/// adversary-free configurations consume the exact RNG sequence they
/// always did and their run digests are unchanged.
pub(crate) fn route_decision(
    config: &NetworkConfig,
    rng: &mut DetRng,
    from: NodeId,
    to: NodeId,
    now: TimeMs,
) -> RouteOutcome {
    for p in &config.partitions {
        if p.blocks(from, to, now) {
            return RouteOutcome::Drop;
        }
    }
    if config.loss > 0.0 && rng.random::<f64>() < config.loss {
        return RouteOutcome::Drop;
    }
    let mut extra = DurationMs::ZERO;
    for f in &config.link_faults {
        if f.affects(from, to, now) {
            // One loss draw per active fault: overlapping faults
            // compound, as independent bad hops would.
            if f.extra_loss > 0.0 && rng.random::<f64>() < f.extra_loss {
                return RouteOutcome::Drop;
            }
            extra += f.extra_latency;
        }
    }
    let mut fate = Mutation::None;
    for w in &config.adversaries {
        if w.affects(from, to, now) {
            fate = w.faults.draw(rng);
            // First window to fire claims the datagram; overlapping
            // windows only get a draw if earlier ones passed it through.
            if fate != Mutation::None {
                break;
            }
        }
    }
    match fate {
        Mutation::Corrupted | Mutation::Truncated => RouteOutcome::Corrupt,
        Mutation::Duplicated => RouteOutcome::Duplicate(
            config.latency.sample(rng) + extra,
            config.latency.sample(rng) + extra,
        ),
        Mutation::Reordered(delay) => {
            RouteOutcome::Deliver(config.latency.sample(rng) + extra + delay)
        }
        Mutation::None => RouteOutcome::Deliver(config.latency.sample(rng) + extra),
    }
}

/// The network state the engine routes through: the live configuration
/// and one deterministic RNG stream *per sending node*, all forked from a
/// master seed drawn once at construction.
///
/// A sender's loss/latency draws therefore depend only on its own send
/// sequence — never on how sends from different nodes interleave — which
/// is what lets the sharded engine route traffic on worker threads (see
/// [`route_decision`]) and still reproduce the single-threaded run bit
/// for bit.
#[derive(Debug)]
pub(crate) struct NetworkModel {
    config: NetworkConfig,
    master: u64,
    streams: Vec<DetRng>,
}

impl NetworkModel {
    /// Creates a model from configuration and a dedicated RNG stream
    /// (consumed as the master seed for the per-sender streams).
    pub(crate) fn new(config: NetworkConfig, mut rng: DetRng) -> Self {
        NetworkModel {
            config,
            master: rng.random(),
            streams: Vec::new(),
        }
    }

    /// Pre-creates the per-sender streams for nodes `0..n`.
    pub(crate) fn ensure_streams(&mut self, n: usize) {
        use rand::SeedableRng;
        while self.streams.len() < n {
            let i = self.streams.len() as u64;
            self.streams
                .push(DetRng::seed_from_u64(agb_types::fork_seed(self.master, i)));
        }
    }

    /// The configuration and the per-sender streams as disjoint borrows,
    /// for shard workers.
    pub(crate) fn lanes(&mut self, n: usize) -> (&NetworkConfig, &mut [DetRng]) {
        self.ensure_streams(n);
        (&self.config, &mut self.streams)
    }

    /// Mutable access to the configuration (used by scheduled network
    /// controls: partitions healing early, link faults flapping, loss
    /// spikes).
    pub(crate) fn config_mut(&mut self) -> &mut NetworkConfig {
        &mut self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> DetRng {
        DetRng::seed_from_u64(7)
    }

    /// Routes one message from `from` to `to` on `rng`, the sender's
    /// stream.
    fn route(
        config: &NetworkConfig,
        rng: &mut DetRng,
        from: u32,
        to: u32,
        now: TimeMs,
    ) -> RouteOutcome {
        route_decision(config, rng, NodeId::new(from), NodeId::new(to), now)
    }

    /// The share of `n` messages 0 → 1 at `now` that the network drops.
    fn drop_rate(config: &NetworkConfig, n: usize, now: TimeMs) -> f64 {
        let mut r = rng();
        let dropped = (0..n)
            .filter(|_| route(config, &mut r, 0, 1, now) == RouteOutcome::Drop)
            .count();
        dropped as f64 / n as f64
    }

    #[test]
    fn constant_latency_is_constant() {
        let m = LatencyModel::Constant(DurationMs::from_millis(25));
        let mut r = rng();
        for _ in 0..10 {
            assert_eq!(m.sample(&mut r), DurationMs::from_millis(25));
        }
        assert_eq!(m.mean(), DurationMs::from_millis(25));
    }

    #[test]
    fn uniform_latency_within_bounds() {
        let m = LatencyModel::Uniform {
            min: DurationMs::from_millis(10),
            max: DurationMs::from_millis(30),
        };
        let mut r = rng();
        for _ in 0..1000 {
            let d = m.sample(&mut r);
            assert!(d >= DurationMs::from_millis(10));
            assert!(d <= DurationMs::from_millis(30));
        }
        assert_eq!(m.mean(), DurationMs::from_millis(20));
    }

    #[test]
    fn exponential_latency_respects_floor_and_mean() {
        let m = LatencyModel::Exponential {
            floor: DurationMs::from_millis(5),
            mean: DurationMs::from_millis(20),
        };
        let mut r = rng();
        let mut sum = 0u64;
        let n = 20_000;
        for _ in 0..n {
            let d = m.sample(&mut r);
            assert!(d >= DurationMs::from_millis(5));
            sum += d.as_millis();
        }
        let mean = sum as f64 / n as f64;
        assert!(
            (mean - 25.0).abs() < 1.5,
            "empirical mean {mean} too far from 25"
        );
    }

    #[test]
    fn perfect_network_never_drops() {
        let config = NetworkConfig::perfect(DurationMs::from_millis(1));
        let mut r = rng();
        for i in 0..100 {
            assert_eq!(
                route(&config, &mut r, i, i + 1, TimeMs::ZERO),
                RouteOutcome::Deliver(DurationMs::from_millis(1))
            );
        }
    }

    #[test]
    fn lossy_network_drops_roughly_p() {
        let rate = drop_rate(&NetworkConfig::lossy(0.3), 20_000, TimeMs::ZERO);
        assert!((rate - 0.3).abs() < 0.02, "loss rate {rate}");
    }

    #[test]
    fn partition_blocks_cross_traffic_only_during_interval() {
        let p = Partition {
            side_a: vec![NodeId::new(0), NodeId::new(1)],
            from: TimeMs::from_secs(10),
            until: TimeMs::from_secs(20),
        };
        // Before and after: nothing blocked.
        assert!(!p.blocks(NodeId::new(0), NodeId::new(5), TimeMs::from_secs(5)));
        assert!(!p.blocks(NodeId::new(0), NodeId::new(5), TimeMs::from_secs(20)));
        // During: cross traffic blocked both directions.
        assert!(p.blocks(NodeId::new(0), NodeId::new(5), TimeMs::from_secs(15)));
        assert!(p.blocks(NodeId::new(5), NodeId::new(1), TimeMs::from_secs(15)));
        // During: same-side traffic unaffected.
        assert!(!p.blocks(NodeId::new(0), NodeId::new(1), TimeMs::from_secs(15)));
        assert!(!p.blocks(NodeId::new(4), NodeId::new(5), TimeMs::from_secs(15)));
    }

    #[test]
    fn partitioned_network_drops_cross_messages() {
        let config = NetworkConfig {
            latency: LatencyModel::Constant(DurationMs::from_millis(1)),
            loss: 0.0,
            partitions: vec![Partition {
                side_a: vec![NodeId::new(0)],
                from: TimeMs::ZERO,
                until: TimeMs::from_secs(1),
            }],
            link_faults: vec![],
            adversaries: vec![],
        };
        let mut r = rng();
        assert_eq!(
            route(&config, &mut r, 0, 1, TimeMs::ZERO),
            RouteOutcome::Drop
        );
        assert!(route(&config, &mut r, 1, 2, TimeMs::ZERO)
            .latency()
            .is_some());
        assert!(route(&config, &mut r, 0, 1, TimeMs::from_secs(1))
            .latency()
            .is_some());
    }

    #[test]
    fn link_fault_inflates_latency_within_window() {
        let config = NetworkConfig {
            latency: LatencyModel::Constant(DurationMs::from_millis(5)),
            loss: 0.0,
            partitions: vec![],
            link_faults: vec![LinkFault {
                nodes: vec![NodeId::new(1)],
                extra_latency: DurationMs::from_millis(40),
                extra_loss: 0.0,
                from: TimeMs::from_secs(10),
                until: TimeMs::from_secs(20),
            }],
            adversaries: vec![],
        };
        let mut r = rng();
        let mut latency =
            |from, to, secs| route(&config, &mut r, from, to, TimeMs::from_secs(secs)).latency();
        // Outside the window or off the faulted node: base latency.
        assert_eq!(latency(0, 1, 5), Some(DurationMs::from_millis(5)));
        assert_eq!(latency(0, 2, 15), Some(DurationMs::from_millis(5)));
        // Inside the window, touching the faulted node in either direction.
        assert_eq!(latency(0, 1, 15), Some(DurationMs::from_millis(45)));
        assert_eq!(latency(1, 2, 15), Some(DurationMs::from_millis(45)));
    }

    #[test]
    fn link_fault_loss_spike_drops_roughly_p() {
        let config = NetworkConfig {
            latency: LatencyModel::Constant(DurationMs::from_millis(1)),
            loss: 0.0,
            partitions: vec![],
            link_faults: vec![LinkFault {
                nodes: vec![NodeId::new(0)],
                extra_latency: DurationMs::ZERO,
                extra_loss: 0.4,
                from: TimeMs::ZERO,
                until: TimeMs::from_secs(100),
            }],
            adversaries: vec![],
        };
        let rate = drop_rate(&config, 20_000, TimeMs::from_secs(1));
        assert!((rate - 0.4).abs() < 0.02, "spike loss rate {rate}");
    }

    fn adversary_config(faults: AdversaryConfig, from: u64, until: u64) -> NetworkConfig {
        NetworkConfig {
            latency: LatencyModel::Constant(DurationMs::from_millis(2)),
            loss: 0.0,
            partitions: vec![],
            link_faults: vec![],
            adversaries: vec![AdversaryWindow {
                nodes: vec![],
                faults,
                from: TimeMs::from_secs(from),
                until: TimeMs::from_secs(until),
            }],
        }
    }

    #[test]
    fn corrupting_adversary_destroys_inside_window_only() {
        let faults = AdversaryConfig {
            corrupt: 1.0,
            ..AdversaryConfig::default()
        };
        let config = adversary_config(faults, 10, 20);
        let mut r = rng();
        let outcomes: Vec<RouteOutcome> = [5, 15, 20]
            .into_iter()
            .map(|secs| route(&config, &mut r, 0, 1, TimeMs::from_secs(secs)))
            .collect();
        let delivered = RouteOutcome::Deliver(DurationMs::from_millis(2));
        assert_eq!(outcomes, [delivered, RouteOutcome::Corrupt, delivered]);
    }

    #[test]
    fn duplicating_adversary_yields_two_latencies() {
        let faults = AdversaryConfig {
            duplicate: 1.0,
            ..AdversaryConfig::default()
        };
        let config = adversary_config(faults, 0, 100);
        match route(&config, &mut rng(), 0, 1, TimeMs::from_secs(1)) {
            RouteOutcome::Duplicate(a, b) => {
                assert_eq!(a, DurationMs::from_millis(2));
                assert_eq!(b, DurationMs::from_millis(2));
            }
            other => panic!("expected duplicate, got {other:?}"),
        }
    }

    #[test]
    fn reordering_adversary_inflates_latency() {
        let faults = AdversaryConfig {
            reorder: 1.0,
            reorder_delay: DurationMs::from_millis(40),
            ..AdversaryConfig::default()
        };
        let config = adversary_config(faults, 0, 100);
        match route(&config, &mut rng(), 0, 1, TimeMs::from_secs(1)) {
            RouteOutcome::Deliver(d) => {
                assert!(d > DurationMs::from_millis(2));
                assert!(d <= DurationMs::from_millis(42));
            }
            other => panic!("expected delayed delivery, got {other:?}"),
        }
    }

    #[test]
    fn targeted_adversary_spares_unlisted_links() {
        let faults = AdversaryConfig {
            corrupt: 1.0,
            ..AdversaryConfig::default()
        };
        let config = NetworkConfig {
            adversaries: vec![AdversaryWindow {
                nodes: vec![NodeId::new(3)],
                faults,
                from: TimeMs::ZERO,
                until: TimeMs::from_secs(100),
            }],
            ..adversary_config(AdversaryConfig::default(), 0, 0)
        };
        let mut r = rng();
        let now = TimeMs::from_secs(1);
        assert_eq!(
            route(&config, &mut r, 0, 1, now),
            RouteOutcome::Deliver(DurationMs::from_millis(2))
        );
        assert_eq!(route(&config, &mut r, 0, 3, now), RouteOutcome::Corrupt);
        assert_eq!(route(&config, &mut r, 3, 1, now), RouteOutcome::Corrupt);
    }

    #[test]
    fn inactive_adversary_window_leaves_rng_stream_untouched() {
        // The adversary draws from the sender stream only while a window
        // is active, so a config with a never-active window routes the
        // identical sequence as one with no adversary at all.
        let faults = AdversaryConfig::corrupting(0.5);
        let plain = NetworkConfig::lossy(0.2);
        let windowed = NetworkConfig {
            adversaries: vec![AdversaryWindow {
                nodes: vec![],
                faults,
                from: TimeMs::from_secs(900),
                until: TimeMs::from_secs(1000),
            }],
            ..NetworkConfig::lossy(0.2)
        };
        let (mut plain_rng, mut windowed_rng) = (rng(), rng());
        for i in 0..5000u64 {
            let now = TimeMs::from_millis(i);
            assert_eq!(
                route(&plain, &mut plain_rng, 0, 1, now),
                route(&windowed, &mut windowed_rng, 0, 1, now),
            );
        }
    }
}
