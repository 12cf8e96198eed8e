//! Sharded batch execution for the simulation engine.
//!
//! The engine processes each virtual instant as a *batch*: every
//! same-timestamp `Deliver`/`Timer` event currently queued is lifted out
//! of the future event list, executed against per-node state, and the
//! resulting effects (queue insertions, checksum mixes, counters) are
//! buffered in an [`EffectBuf`] instead of applied immediately. The
//! buffered effects are then merged back **in canonical order** — the
//! order the events were popped, each event's effects in generation
//! order — which makes the observable outcome independent of *who*
//! executed an event.
//!
//! That independence is the whole trick: a batch can be split across
//! worker threads by node ownership ([`agb_types::ShardMap`] ranges, one
//! [`Lane`] of disjoint `&mut` state per worker) and the merged result is
//! bit-identical to single-threaded execution — same event order, same
//! RNG draws (per-sender network streams), same determinism checksum.

use std::time::Instant;

use agb_types::{DetRng, NodeId, ShardMap, TimeMs};

use crate::engine::{SimCtx, SimNode, TimerId, TimerKind, TimerRequest, TimerSlot};
use crate::network::{route_decision, NetworkConfig, RouteOutcome};

/// Armed timers of one node.
pub(crate) type TimerSlots = Vec<(TimerId, TimerSlot)>;

/// A `Deliver` or `Timer` event lifted out of the queue for batch
/// execution.
pub(crate) enum BatchEvent<M> {
    /// A message delivery to `to`.
    Deliver { from: NodeId, to: NodeId, msg: M },
    /// A timer fire at `node`.
    Timer {
        node: NodeId,
        timer: TimerId,
        gen: u64,
    },
}

impl<M> BatchEvent<M> {
    /// The node whose state this event touches (decides shard ownership).
    pub(crate) fn target(&self) -> NodeId {
        match *self {
            BatchEvent::Deliver { to, .. } => to,
            BatchEvent::Timer { node, .. } => node,
        }
    }
}

/// A future-event-list insertion produced during batch execution,
/// applied at the merge barrier.
pub(crate) enum DeferredPush<M> {
    /// Insert a delivery at `at`.
    Deliver {
        at: TimeMs,
        from: NodeId,
        to: NodeId,
        msg: M,
    },
    /// Insert a timer fire at `at`.
    Timer {
        at: TimeMs,
        node: NodeId,
        timer: TimerId,
        gen: u64,
    },
}

impl<M> DeferredPush<M> {
    /// Dummy value swapped into consumed slots during the merge.
    pub(crate) fn consumed() -> Self {
        DeferredPush::Timer {
            at: TimeMs::ZERO,
            node: NodeId::new(0),
            timer: TimerId(0),
            gen: 0,
        }
    }
}

/// Commutative counters accumulated during batch execution and folded
/// into `NetStats` at the merge barrier.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct Counts {
    pub sends: u64,
    pub deliveries: u64,
    pub drops: u64,
    pub timer_fires: u64,
    /// Frames destroyed by the byte adversary (subset of `drops`).
    pub corrupted: u64,
}

/// End offsets of one executed event's effects within an [`EffectBuf`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct EffectMark {
    pub pushes: u32,
    pub mixes: u32,
    /// Whether a node handler actually ran (stale timers and deliveries
    /// to downed nodes do not invoke).
    pub invoked: bool,
}

/// Ordered, buffered effects of a run of executed events.
///
/// Effects of different event streams are order-sensitive only among
/// themselves (queue insertions among insertions, checksum mixes among
/// mixes), so each stream is a flat vector with per-event end marks.
pub(crate) struct EffectBuf<M> {
    pub pushes: Vec<DeferredPush<M>>,
    pub mixes: Vec<[u64; 4]>,
    pub marks: Vec<EffectMark>,
    pub counts: Counts,
    /// Wall nanoseconds spent routing outbox sends (profiling only —
    /// harvested into the profiler at the merge barrier, never part of
    /// the determinism digest).
    pub route_ns: u64,
}

impl<M> Default for EffectBuf<M> {
    fn default() -> Self {
        EffectBuf {
            pushes: Vec::new(),
            mixes: Vec::new(),
            marks: Vec::new(),
            counts: Counts::default(),
            route_ns: 0,
        }
    }
}

impl<M> EffectBuf<M> {
    /// Records the end-of-effects mark for one executed event.
    pub(crate) fn mark_event(&mut self, invoked: bool) {
        self.marks.push(EffectMark {
            pushes: self.pushes.len() as u32,
            mixes: self.mixes.len() as u32,
            invoked,
        });
    }

    /// Empties the buffers for reuse (capacity retained).
    pub(crate) fn clear(&mut self) {
        self.pushes.clear();
        self.mixes.clear();
        self.marks.clear();
        self.counts = Counts::default();
        self.route_ns = 0;
    }
}

/// Per-event read cursor over an [`EffectBuf`] used by the merge.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct EffectCursor {
    pub pushes: usize,
    pub mixes: usize,
    pub marks: usize,
}

/// One worker's window onto the engine state: exclusive access to a
/// contiguous range of nodes (and their timers, timer generations,
/// network RNG streams and shard slots), shared read access to
/// everything else.
pub(crate) struct Lane<'a, N: SimNode> {
    /// First node index owned by this lane; `nodes[i - base]` is node `i`.
    pub base: usize,
    pub nodes: &'a mut [N],
    pub timers: &'a mut [TimerSlots],
    pub timer_gen: &'a mut [u64],
    /// Per-sender network RNG streams of the owned nodes.
    pub rngs: &'a mut [DetRng],
    /// The engine's shard ranges.
    pub shards: &'a ShardMap,
    /// First shard owned by this lane; `slots[s - first_shard]` is shard
    /// `s`'s slot.
    pub first_shard: usize,
    pub slots: &'a mut [N::Slot],
    /// Up/down flags of *all* nodes (only mutated at merge barriers).
    pub down: &'a [bool],
    pub config: &'a NetworkConfig,
    pub now: TimeMs,
    /// Total node count (for addressing asserts).
    pub n_total: usize,
    /// Whether a profiler is attached (routing time is measured).
    pub profiling: bool,
}

/// Executes one shard's share of a parallel batch (see [`exec_events`]),
/// recording its busy time when profiling.
pub(crate) fn exec_shard<N: SimNode>(lane: &mut Lane<'_, N>, worker: &mut LaneScratch<N::Msg>) {
    // Busy time only feeds the profiler's shard-balance stats, never a
    // result.
    #[allow(clippy::disallowed_methods)]
    let t0 = lane.profiling.then(Instant::now);
    exec_events(
        lane,
        &mut worker.events,
        &mut worker.outbox,
        &mut worker.timer_reqs,
        &mut worker.buf,
    );
    if let Some(t0) = t0 {
        worker.busy_ns = t0.elapsed().as_nanos() as u64;
    }
}

/// Executes a run of batch events against one lane, buffering all
/// effects.
///
/// `outbox`/`timer_reqs` are reusable per-invocation scratch vectors;
/// they are always drained before return.
pub(crate) fn exec_events<N: SimNode>(
    lane: &mut Lane<'_, N>,
    events: &mut Vec<BatchEvent<N::Msg>>,
    outbox: &mut Vec<(NodeId, N::Msg)>,
    timer_reqs: &mut Vec<TimerRequest>,
    buf: &mut EffectBuf<N::Msg>,
) {
    for ev in events.drain(..) {
        match ev {
            BatchEvent::Deliver { from, to, msg } => {
                if lane.down[to.index()] {
                    buf.counts.drops += 1;
                    buf.mark_event(false);
                    continue;
                }
                buf.counts.deliveries += 1;
                buf.mixes.push([
                    2,
                    u64::from(from.as_u32()) << 32 | u64::from(to.as_u32()),
                    lane.now.as_millis(),
                    0,
                ]);
                invoke_on(
                    lane,
                    to,
                    |n, ctx| n.on_message(from, msg, ctx),
                    outbox,
                    timer_reqs,
                    buf,
                );
                buf.mark_event(true);
            }
            BatchEvent::Timer { node, timer, gen } => {
                let local = node.index() - lane.base;
                let slots = &mut lane.timers[local];
                let Some(pos) = slots.iter().position(|&(t, _)| t == timer) else {
                    buf.mark_event(false);
                    continue;
                };
                let slot = slots[pos].1;
                if slot.gen != gen {
                    // Stale: the timer was re-armed.
                    buf.mark_event(false);
                    continue;
                }
                if let Some(period) = slot.period {
                    buf.pushes.push(DeferredPush::Timer {
                        at: lane.now + period,
                        node,
                        timer,
                        gen,
                    });
                } else {
                    slots.swap_remove(pos);
                }
                if lane.down[node.index()] {
                    buf.mark_event(false);
                    continue;
                }
                buf.counts.timer_fires += 1;
                buf.mixes.push([
                    3,
                    u64::from(node.as_u32()),
                    u64::from(timer.0),
                    lane.now.as_millis(),
                ]);
                invoke_on(
                    lane,
                    node,
                    |n, ctx| n.on_timer(timer, ctx),
                    outbox,
                    timer_reqs,
                    buf,
                );
                buf.mark_event(true);
            }
        }
    }
}

/// Invokes one node handler and buffers its effects: timer requests
/// first (exactly the sequential engine's order), then outbox routing
/// through the sender's own network RNG stream.
pub(crate) fn invoke_on<N: SimNode>(
    lane: &mut Lane<'_, N>,
    id: NodeId,
    g: impl FnOnce(&mut N, &mut SimCtx<'_, N::Msg, N::Slot>),
    outbox: &mut Vec<(NodeId, N::Msg)>,
    timer_reqs: &mut Vec<TimerRequest>,
    buf: &mut EffectBuf<N::Msg>,
) {
    let local = id.index() - lane.base;
    {
        let slot = &mut lane.slots[lane.shards.shard_of(id.index()) - lane.first_shard];
        let mut ctx = SimCtx::new(lane.now, id, outbox, timer_reqs, slot);
        g(&mut lane.nodes[local], &mut ctx);
    }
    for TimerRequest {
        timer,
        first_after,
        kind,
    } in timer_reqs.drain(..)
    {
        lane.timer_gen[local] += 1;
        let gen = lane.timer_gen[local];
        let period = match kind {
            TimerKind::Once => None,
            TimerKind::Periodic(p) => Some(p),
        };
        let slots = &mut lane.timers[local];
        match slots.iter_mut().find(|(t, _)| *t == timer) {
            Some((_, slot)) => *slot = TimerSlot { gen, period },
            None => slots.push((timer, TimerSlot { gen, period })),
        }
        buf.pushes.push(DeferredPush::Timer {
            at: lane.now + first_after,
            node: id,
            timer,
            gen,
        });
    }
    // Routing time is measured per handler, not per send: one clock
    // read either side of the drain keeps profiling overhead off the
    // per-message path (and clocks never feed back into routing, so
    // results are identical profiling or not).
    #[allow(clippy::disallowed_methods)]
    let route_t0 = lane.profiling.then(Instant::now);
    for (to, msg) in outbox.drain(..) {
        assert!(
            to.index() < lane.n_total,
            "message addressed to unknown node {to}"
        );
        buf.counts.sends += 1;
        let routed = route_decision(lane.config, &mut lane.rngs[local], id, to, lane.now);
        let deliver_at = routed.latency().map(|lat| lane.now + lat);
        buf.mixes.push([
            1,
            u64::from(id.as_u32()) << 32 | u64::from(to.as_u32()),
            lane.now.as_millis(),
            deliver_at.map_or(u64::MAX, TimeMs::as_millis),
        ]);
        match routed {
            RouteOutcome::Deliver(lat) => buf.pushes.push(DeferredPush::Deliver {
                at: lane.now + lat,
                from: id,
                to,
                msg,
            }),
            RouteOutcome::Duplicate(first, second) => {
                // The adversary's extra copy gets its own checksum mix
                // entry, so the determinism digest still
                // covers every queue insertion one-for-one.
                let copy_at = lane.now + second;
                buf.mixes.push([
                    1,
                    u64::from(id.as_u32()) << 32 | u64::from(to.as_u32()),
                    lane.now.as_millis(),
                    copy_at.as_millis(),
                ]);
                buf.pushes.push(DeferredPush::Deliver {
                    at: lane.now + first,
                    from: id,
                    to,
                    msg: msg.clone(),
                });
                buf.pushes.push(DeferredPush::Deliver {
                    at: copy_at,
                    from: id,
                    to,
                    msg,
                });
            }
            RouteOutcome::Drop => buf.counts.drops += 1,
            RouteOutcome::Corrupt => {
                buf.counts.drops += 1;
                buf.counts.corrupted += 1;
            }
        }
    }
    if let Some(t0) = route_t0 {
        buf.route_ns += t0.elapsed().as_nanos() as u64;
    }
}

/// Reusable per-worker scratch: the worker's event slice, invocation
/// buffers and effect buffers, all retained across batches.
pub(crate) struct LaneScratch<M> {
    pub events: Vec<BatchEvent<M>>,
    pub outbox: Vec<(NodeId, M)>,
    pub timer_reqs: Vec<TimerRequest>,
    pub buf: EffectBuf<M>,
    /// Wall nanoseconds this worker spent executing its share of the
    /// last parallel batch (profiling only; feeds shard load-balance
    /// stats).
    pub busy_ns: u64,
}

impl<M> Default for LaneScratch<M> {
    fn default() -> Self {
        LaneScratch {
            events: Vec::new(),
            outbox: Vec::new(),
            timer_reqs: Vec::new(),
            buf: EffectBuf::default(),
            busy_ns: 0,
        }
    }
}
