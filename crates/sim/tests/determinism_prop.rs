//! Property-based determinism tests of the simulation engine: for random
//! topologies, workloads and network configurations, the same seed always
//! yields the same checksum, and the event stream respects virtual time.

use agb_sim::{LatencyModel, NetworkConfig, SimCtx, SimNode, SimulationBuilder, TimerId};
use agb_types::{DurationMs, NodeId, TimeMs};
use proptest::prelude::*;

/// A node that gossips a counter to a ring neighbour every period.
struct Ring {
    n: usize,
    period: DurationMs,
    sent: u64,
    received: u64,
    last_receive_at: TimeMs,
}

const TICK: TimerId = TimerId(1);

impl SimNode for Ring {
    type Msg = u64;
    type Slot = ();

    fn on_start(&mut self, ctx: &mut SimCtx<'_, u64>) {
        ctx.set_periodic_timer(TICK, self.period, self.period);
    }

    fn on_timer(&mut self, _t: TimerId, ctx: &mut SimCtx<'_, u64>) {
        self.sent += 1;
        let next = (ctx.self_id().index() + 1) % self.n;
        ctx.send(NodeId::new(next as u32), self.sent);
    }

    fn on_message(&mut self, _from: NodeId, _msg: u64, ctx: &mut SimCtx<'_, u64>) {
        // Virtual time never goes backwards within a node's observations.
        assert!(ctx.now() >= self.last_receive_at);
        self.received += 1;
        self.last_receive_at = ctx.now();
    }
}

fn run(seed: u64, n: usize, period_ms: u64, loss: f64, horizon_s: u64) -> (u64, u64, u64) {
    let nodes: Vec<Ring> = (0..n)
        .map(|_| Ring {
            n,
            period: DurationMs::from_millis(period_ms),
            sent: 0,
            received: 0,
            last_receive_at: TimeMs::ZERO,
        })
        .collect();
    let mut sim = SimulationBuilder::new(seed)
        .network(NetworkConfig {
            latency: LatencyModel::Uniform {
                min: DurationMs::from_millis(1),
                max: DurationMs::from_millis(30),
            },
            loss,
            partitions: vec![],
            link_faults: vec![],
            adversaries: vec![],
        })
        .build(nodes, ());
    sim.run_until(TimeMs::from_secs(horizon_s));
    let stats = sim.stats();
    let received: u64 = sim.nodes().map(|r| r.received).sum();
    (stats.checksum, stats.deliveries, received)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn same_seed_same_everything(
        seed in any::<u64>(),
        n in 2usize..12,
        period in 20u64..500,
        loss in 0.0f64..0.5,
    ) {
        let a = run(seed, n, period, loss, 20);
        let b = run(seed, n, period, loss, 20);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn deliveries_match_node_observations(
        seed in any::<u64>(),
        n in 2usize..10,
        loss in 0.0f64..0.3,
    ) {
        let (_, engine_deliveries, node_received) = run(seed, n, 100, loss, 15);
        prop_assert_eq!(engine_deliveries, node_received);
    }

    #[test]
    fn zero_loss_eventually_delivers_everything_sent(
        seed in any::<u64>(),
        n in 2usize..8,
    ) {
        // Horizon long past the last send + max latency: everything sent
        // by t=idle must arrive.
        let nodes: Vec<Ring> = (0..n)
            .map(|_| Ring {
                n,
                period: DurationMs::from_millis(100),
                sent: 0,
                received: 0,
                last_receive_at: TimeMs::ZERO,
            })
            .collect();
        let mut sim = SimulationBuilder::new(seed)
            .network(NetworkConfig::perfect(DurationMs::from_millis(5)))
            .build(nodes, ());
        sim.run_until(TimeMs::from_secs(10));
        // Stop ticking by crashing everyone, then flush in-flight messages.
        for i in 0..n {
            sim.schedule_crash(TimeMs::from_secs(10), NodeId::new(i as u32));
        }
        sim.run_until(TimeMs::from_secs(11));
        let sent: u64 = sim.nodes().map(|r| r.sent).sum();
        let stats = sim.stats();
        prop_assert_eq!(stats.sends, sent);
        // Crashed receivers drop; before the crash everything was delivered.
        prop_assert!(stats.deliveries + stats.drops == sent);
    }
}
