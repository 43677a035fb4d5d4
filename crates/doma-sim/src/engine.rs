//! The event loop: actors, contexts, and deterministic dispatch.

use crate::fault::{FaultPlan, FaultState, FaultStats, Judgement};
use crate::network::Network;
use crate::{MsgKind, NetStats, NetworkConfig, SimTime};
use doma_obs::trace::MESSAGE_EVENT;
use std::cmp::Reverse;
use std::collections::hash_map::DefaultHasher;
use std::collections::BinaryHeap;
use std::fmt;
use std::hash::{Hash, Hasher};

/// Identifies a node (actor) in the simulation. For protocol crates these
/// coincide with [`doma_core::ProcessorId`] indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub usize);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "N{}", self.0)
    }
}

/// A protocol participant. Actors receive messages, timers and failure
/// notifications, and emit messages/timers through the [`Context`].
pub trait Actor<M> {
    /// A message arrived.
    fn on_message(&mut self, ctx: &mut Context<M>, from: NodeId, kind: MsgKind, msg: M);

    /// A timer set via [`Context::set_timer`] fired.
    fn on_timer(&mut self, _ctx: &mut Context<M>, _token: u64) {}

    /// The node is about to crash (volatile state is lost by the actor's
    /// own logic; the engine only stops delivering to it).
    fn on_crash(&mut self) {}

    /// The node restarted.
    fn on_recover(&mut self, _ctx: &mut Context<M>) {}
}

/// The per-dispatch effect buffer an actor writes its outputs into.
pub struct Context<M> {
    now: SimTime,
    self_id: NodeId,
    sends: Vec<(NodeId, MsgKind, M)>,
    timers: Vec<(u64, u64)>,
}

impl<M> Context<M> {
    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// This actor's node id.
    pub fn id(&self) -> NodeId {
        self.self_id
    }

    /// Sends a message; it is tallied (and priced) even if the destination
    /// turns out to be crashed — the sender has already paid for the
    /// transmission.
    pub fn send(&mut self, to: NodeId, kind: MsgKind, msg: M) {
        self.sends.push((to, kind, msg));
    }

    /// Schedules `on_timer(token)` after `delay` ticks.
    pub fn set_timer(&mut self, delay: u64, token: u64) {
        self.timers.push((delay, token));
    }

    /// The messages queued by this dispatch so far, in send order. The
    /// buffer is fresh per dispatch, so an actor's instrumentation can
    /// attribute exactly the sends its current handler produced.
    pub fn pending_sends(&self) -> &[(NodeId, MsgKind, M)] {
        &self.sends
    }
}

#[derive(Clone)]
enum EventKind<M> {
    Deliver {
        from: NodeId,
        to: NodeId,
        kind: MsgKind,
        msg: M,
    },
    /// Local injection (a client request arriving at its own node): not a
    /// network message, so not tallied.
    Local {
        to: NodeId,
        msg: M,
    },
    Timer {
        node: NodeId,
        token: u64,
    },
    Crash(NodeId),
    Recover(NodeId),
}

#[derive(Clone)]
struct Event<M> {
    time: SimTime,
    seq: u64,
    kind: EventKind<M>,
}

/// The broad class of a queued event — what a model checker needs to know
/// about a choice point without seeing the message payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PendingClass {
    /// A network message in flight.
    Deliver,
    /// A locally injected client request.
    Local,
    /// A timer due to fire.
    Timer,
    /// A scheduled crash.
    Crash,
    /// A scheduled recovery.
    Recover,
}

/// A snapshot of one schedulable event in the queue: the unit of choice
/// for a model checker driving the engine one delivery at a time via
/// [`Engine::pending_events`] / [`Engine::dispatch_by_seq`].
#[derive(Debug, Clone)]
pub struct PendingEvent {
    seq: u64,
    time: SimTime,
    class: PendingClass,
    target: NodeId,
    source: Option<NodeId>,
    content_hash: u64,
    label: String,
}

impl PendingEvent {
    /// The engine-assigned sequence number identifying this event. Stable
    /// across [`Engine::fork`]: a fork dispatches the same seq to take the
    /// same transition.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// When the event would fire under the natural (latency-ordered)
    /// schedule.
    pub fn time(&self) -> SimTime {
        self.time
    }

    /// The event's class.
    pub fn class(&self) -> PendingClass {
        self.class
    }

    /// The node whose state dispatching this event mutates. Two pending
    /// events with different targets commute (with a point-to-point
    /// medium): dispatching them in either order yields the same state.
    pub fn target(&self) -> NodeId {
        self.target
    }

    /// The sending node, for [`PendingClass::Deliver`] events.
    pub fn source(&self) -> Option<NodeId> {
        self.source
    }

    /// A hash of the event's content (class, endpoints, payload) that
    /// deliberately excludes `seq` and `time`, so states reached along
    /// different schedules fingerprint equal when their queued futures
    /// are equal.
    pub fn content_hash(&self) -> u64 {
        self.content_hash
    }

    /// A human-readable description (for counterexample traces).
    pub fn label(&self) -> &str {
        &self.label
    }
}

impl<M> PartialEq for Event<M> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<M> Eq for Event<M> {}
impl<M> PartialOrd for Event<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Event<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

/// Engine construction parameters.
#[derive(Debug, Clone, Default)]
pub struct EngineConfig {
    /// Network latencies.
    pub network: NetworkConfig,
    /// Safety valve: abort after this many events dispatched without
    /// going idle (0 = no limit). A protocol bug that floods the network
    /// trips this instead of hanging the test suite; a long run of
    /// requests that each settle does not.
    pub max_events: u64,
}

/// The engine's slice of an attached [`doma_obs::Obs`] bundle: the
/// bundle itself plus counters resolved once at attach time, so the
/// per-send hot path pays one atomic add, not a registry lookup.
struct EngineObs {
    bundle: doma_obs::Obs,
    sent_control: doma_obs::Counter,
    sent_data: doma_obs::Counter,
    dropped_crashed: doma_obs::Counter,
    dropped_fault: doma_obs::Counter,
    dropped_partition: doma_obs::Counter,
    faulted: doma_obs::Counter,
}

/// The deterministic discrete-event engine.
pub struct Engine<M, A: Actor<M>> {
    actors: Vec<A>,
    alive: Vec<bool>,
    queue: BinaryHeap<Reverse<Event<M>>>,
    network: Network,
    now: SimTime,
    seq: u64,
    dispatched: u64,
    /// Events dispatched since the queue last drained.
    window: u64,
    max_events: u64,
    overflowed: bool,
    /// Set by [`Engine::trace_messages`]: renders each message for its
    /// `sim.trace` record.
    labeller: Option<fn(&M) -> String>,
    obs: Option<EngineObs>,
    faults: Option<FaultState>,
}

impl<M: Clone, A: Actor<M>> Engine<M, A> {
    /// Creates an engine with the given configuration.
    pub fn new(config: EngineConfig) -> Self {
        Engine {
            actors: Vec::new(),
            alive: Vec::new(),
            queue: BinaryHeap::new(),
            network: Network::new(config.network),
            now: SimTime::ZERO,
            seq: 0,
            dispatched: 0,
            window: 0,
            max_events: config.max_events,
            overflowed: false,
            labeller: None,
            obs: None,
            faults: None,
        }
    }

    /// Turns on message tracing: every delivery, and every message lost
    /// at a crashed node or to a fault, appends one
    /// [`MESSAGE_EVENT`] record (`from`, `to`, `kind`, `delivered`,
    /// `label`) to the attached obs bundle's event log, labelled by
    /// `labeller`. Records nothing while no bundle is attached
    /// ([`Engine::set_obs`]). Opt-in because the records change obs
    /// snapshots; not carried over by [`Engine::fork`].
    pub fn trace_messages(&mut self, labeller: fn(&M) -> String) {
        self.labeller = Some(labeller);
    }

    /// Attaches an observability bundle: message sends, drops (by
    /// cause) and fault actions are counted in the bundle's registry
    /// under component `sim`, and crash/recover/drop lifecycle events
    /// are appended to its event log. The bundle is *not* carried over
    /// by [`Engine::fork`] — a model checker's forks would otherwise
    /// multiply-count into the shared registry.
    pub fn set_obs(&mut self, obs: doma_obs::Obs) {
        let m = obs.metrics();
        self.obs = Some(EngineObs {
            sent_control: m.counter("sim", "msgs_sent", &[("kind", "control")]),
            sent_data: m.counter("sim", "msgs_sent", &[("kind", "data")]),
            dropped_crashed: m.counter("sim", "msgs_dropped", &[("reason", "crashed")]),
            dropped_fault: m.counter("sim", "msgs_dropped", &[("reason", "fault")]),
            dropped_partition: m.counter("sim", "msgs_dropped", &[("reason", "partition")]),
            faulted: m.counter("sim", "msgs_faulted", &[]),
            bundle: obs,
        });
    }

    /// The attached observability bundle, if any.
    pub fn obs(&self) -> Option<&doma_obs::Obs> {
        self.obs.as_ref().map(|o| &o.bundle)
    }

    /// Registers an actor, returning its node id (ids are assigned
    /// densely from 0 in registration order).
    pub fn add_node(&mut self, actor: A) -> NodeId {
        self.actors.push(actor);
        self.alive.push(true);
        NodeId(self.actors.len() - 1)
    }

    /// Number of registered nodes.
    pub fn node_count(&self) -> usize {
        self.actors.len()
    }

    /// Immutable access to an actor (assertions in tests/drivers).
    pub fn actor(&self, node: NodeId) -> &A {
        &self.actors[node.0]
    }

    /// Mutable access to an actor (drivers configuring nodes between
    /// requests).
    pub fn actor_mut(&mut self, node: NodeId) -> &mut A {
        &mut self.actors[node.0]
    }

    /// Whether a node is currently up.
    pub fn is_alive(&self, node: NodeId) -> bool {
        self.alive[node.0]
    }

    /// The message tallies so far.
    pub fn net_stats(&self) -> NetStats {
        self.network.stats()
    }

    /// Cumulative ticks messages spent queueing for the shared bus
    /// (always 0 with a point-to-point medium).
    pub fn bus_queue_wait(&self) -> u64 {
        self.network.total_queue_wait()
    }

    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    fn push(&mut self, time: SimTime, kind: EventKind<M>) -> u64 {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Reverse(Event { time, seq, kind }));
        seq
    }

    /// Injects a client request into `to` after `delay` ticks. Local —
    /// not a network message, not tallied. Returns the queued event's
    /// sequence number (usable with [`Engine::dispatch_by_seq`]).
    pub fn inject(&mut self, to: NodeId, delay: u64, msg: M) -> u64 {
        let time = self.now + delay;
        self.push(time, EventKind::Local { to, msg })
    }

    /// Schedules a crash of `node` after `delay` ticks. Returns the
    /// queued event's sequence number.
    pub fn schedule_crash(&mut self, node: NodeId, delay: u64) -> u64 {
        let time = self.now + delay;
        self.push(time, EventKind::Crash(node))
    }

    /// Schedules a recovery of `node` after `delay` ticks. Returns the
    /// queued event's sequence number.
    pub fn schedule_recover(&mut self, node: NodeId, delay: u64) -> u64 {
        let time = self.now + delay;
        self.push(time, EventKind::Recover(node))
    }

    /// Installs a [`FaultPlan`]: its message-fault rules and partitions
    /// take effect on every subsequent send, and its crash/recover events
    /// are scheduled immediately (`at` is an absolute tick; events in the
    /// past fire at the current instant). Replaces any previous plan and
    /// resets [`Engine::fault_stats`].
    pub fn install_faults(&mut self, plan: FaultPlan) {
        for ev in plan.crashes() {
            let delay = ev.at.saturating_sub(self.now.ticks());
            if ev.recover {
                self.schedule_recover(ev.node, delay);
            } else {
                self.schedule_crash(ev.node, delay);
            }
        }
        self.faults = Some(FaultState::new(plan));
    }

    /// Removes the installed fault plan (already-scheduled crash events
    /// still fire), returning the final injection tallies.
    pub fn clear_faults(&mut self) -> FaultStats {
        self.faults.take().map(|s| s.stats()).unwrap_or_default()
    }

    /// Tallies of the faults injected by the installed plan so far.
    pub fn fault_stats(&self) -> FaultStats {
        self.faults.as_ref().map(|s| s.stats()).unwrap_or_default()
    }

    /// Appends one [`MESSAGE_EVENT`] record to the obs event log when
    /// message tracing is on; `cause` prefixes the label of a message a
    /// fault acted on (`fault-drop:…`).
    fn trace_message(
        &self,
        from: NodeId,
        to: NodeId,
        kind: MsgKind,
        msg: &M,
        delivered: bool,
        cause: Option<fmt::Arguments<'_>>,
    ) {
        let (Some(o), Some(labeller)) = (&self.obs, self.labeller) else {
            return;
        };
        let label = match cause {
            Some(cause) => format!("{cause}:{}", labeller(msg)),
            None => labeller(msg),
        };
        o.bundle.events().record(
            self.now.ticks(),
            MESSAGE_EVENT,
            vec![
                ("from".to_string(), from.0.to_string()),
                ("to".to_string(), to.0.to_string()),
                ("kind".to_string(), format!("{kind:?}")),
                ("delivered".to_string(), delivered.to_string()),
                ("label".to_string(), label),
            ],
        );
    }

    /// Tallies a message lost before delivery and, with obs attached,
    /// counts it under `cause` (`crashed`, `fault` or `partition`) and
    /// logs a `sim.drop` record.
    fn record_drop(&mut self, from: NodeId, to: NodeId, kind: MsgKind, cause: &str) {
        self.network.record_drop();
        let Some(o) = &self.obs else {
            return;
        };
        match cause {
            "crashed" => o.dropped_crashed.inc(),
            "partition" => o.dropped_partition.inc(),
            _ => o.dropped_fault.inc(),
        }
        o.bundle.events().record(
            self.now.ticks(),
            "sim.drop",
            vec![
                ("from".to_string(), from.to_string()),
                ("to".to_string(), to.to_string()),
                ("kind".to_string(), format!("{kind:?}")),
                ("cause".to_string(), cause.to_string()),
            ],
        );
    }

    fn dispatch_to(&mut self, node: NodeId, f: impl FnOnce(&mut A, &mut Context<M>)) {
        let mut ctx = Context {
            now: self.now,
            self_id: node,
            sends: Vec::new(),
            timers: Vec::new(),
        };
        f(&mut self.actors[node.0], &mut ctx);
        for (to, kind, msg) in ctx.sends {
            // The sender pays for the transmission before any fault can
            // eat it — send tallies match the paper's cost model even on
            // lossy runs.
            self.network.record_send(kind);
            if let Some(o) = &self.obs {
                match kind {
                    MsgKind::Control => o.sent_control.inc(),
                    MsgKind::Data => o.sent_data.inc(),
                }
            }
            let natural = SimTime(self.network.schedule_delivery(self.now.ticks(), kind));
            let verdict = match &mut self.faults {
                Some(state) => state.judge(self.now.ticks(), node, to, kind),
                None => Judgement::Deliver,
            };
            match verdict {
                Judgement::Deliver => {
                    self.push(
                        natural,
                        EventKind::Deliver {
                            from: node,
                            to,
                            kind,
                            msg,
                        },
                    );
                }
                Judgement::Lost { partition } => {
                    let (cause, label) = if partition {
                        ("partition", "fault-partition")
                    } else {
                        ("fault", "fault-drop")
                    };
                    self.record_drop(node, to, kind, cause);
                    self.trace_message(node, to, kind, &msg, false, Some(format_args!("{label}")));
                }
                Judgement::Deliveries { extra, action } => {
                    if let Some(o) = &self.obs {
                        o.faulted.inc();
                        o.bundle.events().record(
                            self.now.ticks(),
                            "sim.fault",
                            vec![
                                ("from".to_string(), node.to_string()),
                                ("to".to_string(), to.to_string()),
                                ("action".to_string(), action.to_string()),
                            ],
                        );
                    }
                    self.trace_message(
                        node,
                        to,
                        kind,
                        &msg,
                        true,
                        Some(format_args!("fault-{action}")),
                    );
                    for offset in extra {
                        self.push(
                            natural + offset,
                            EventKind::Deliver {
                                from: node,
                                to,
                                kind,
                                msg: msg.clone(),
                            },
                        );
                    }
                }
            }
        }
        for (delay, token) in ctx.timers {
            let time = self.now + delay;
            self.push(time, EventKind::Timer { node, token });
        }
    }

    fn dispatch_event(&mut self, kind: EventKind<M>) {
        match kind {
            EventKind::Deliver {
                from,
                to,
                kind,
                msg,
            } => {
                let delivered = self.alive[to.0];
                self.trace_message(from, to, kind, &msg, delivered, None);
                if delivered {
                    self.dispatch_to(to, |a, ctx| a.on_message(ctx, from, kind, msg));
                } else {
                    self.record_drop(from, to, kind, "crashed");
                }
            }
            EventKind::Local { to, msg } => {
                if self.alive[to.0] {
                    // Local requests arrive "from" the node itself.
                    self.dispatch_to(to, |a, ctx| a.on_message(ctx, to, MsgKind::Control, msg));
                }
            }
            EventKind::Timer { node, token } => {
                if self.alive[node.0] {
                    self.dispatch_to(node, |a, ctx| a.on_timer(ctx, token));
                }
            }
            EventKind::Crash(node) => {
                if self.alive[node.0] {
                    self.alive[node.0] = false;
                    self.actors[node.0].on_crash();
                    if let Some(o) = &self.obs {
                        let label = node.to_string();
                        o.bundle
                            .metrics()
                            .add("sim", "crashes", &[("node", &label)], 1);
                        o.bundle.events().record(
                            self.now.ticks(),
                            "sim.crash",
                            vec![("node".to_string(), label)],
                        );
                    }
                }
            }
            EventKind::Recover(node) => {
                if !self.alive[node.0] {
                    self.alive[node.0] = true;
                    if let Some(o) = &self.obs {
                        let label = node.to_string();
                        o.bundle
                            .metrics()
                            .add("sim", "recoveries", &[("node", &label)], 1);
                        o.bundle.events().record(
                            self.now.ticks(),
                            "sim.recover",
                            vec![("node".to_string(), label)],
                        );
                    }
                    self.dispatch_to(node, |a, ctx| a.on_recover(ctx));
                }
            }
        }
    }

    /// Runs until the event queue drains (or `max_events` events pass
    /// without it draining, in which case [`Engine::budget_exhausted`]
    /// turns true and the remaining queue is left untouched — the driver
    /// decides how to report it). Returns the number of events
    /// dispatched by this call.
    pub fn run_until_idle(&mut self) -> u64 {
        let start = self.dispatched;
        while let Some(Reverse(event)) = self.queue.pop() {
            if self.window_full() {
                // Put the event back: the state is inspectable, just not
                // runnable any further under this budget.
                self.queue.push(Reverse(event));
                break;
            }
            self.now = event.time;
            self.count_dispatch();
            self.dispatch_event(event.kind);
        }
        self.end_window_if_idle();
        self.dispatched - start
    }

    /// Whether the current window has used up the event budget; trips
    /// the valve if so.
    fn window_full(&mut self) -> bool {
        let full = self.max_events > 0 && self.window >= self.max_events;
        self.overflowed |= full;
        full
    }

    fn count_dispatch(&mut self) {
        self.dispatched += 1;
        self.window += 1;
    }

    /// A drained queue ends the budget window.
    fn end_window_if_idle(&mut self) {
        if self.queue.is_empty() {
            self.window = 0;
        }
    }

    /// Whether a run tripped the `max_events` safety valve (a runaway
    /// protocol, or an exploration budget set deliberately tight).
    /// Sticky until the engine is dropped.
    pub fn budget_exhausted(&self) -> bool {
        self.overflowed
    }

    /// Total events dispatched over the engine's lifetime.
    pub fn dispatched(&self) -> u64 {
        self.dispatched
    }

    /// The per-window event budget (0 = no limit).
    pub fn max_events(&self) -> u64 {
        self.max_events
    }
}

impl<M: Clone + Hash, A: Actor<M>> Engine<M, A> {
    /// Snapshots every queued event as a [`PendingEvent`] choice point,
    /// ordered by the natural schedule (time, then send order). `labeller`
    /// renders message payloads for counterexample traces.
    pub fn pending_events(&self, labeller: impl Fn(&M) -> String) -> Vec<PendingEvent> {
        let mut events: Vec<&Event<M>> = self.queue.iter().map(|Reverse(e)| e).collect();
        events.sort_by_key(|e| (e.time, e.seq));
        events
            .into_iter()
            .map(|e| {
                let mut h = DefaultHasher::new();
                let (class, target, source, label) = match &e.kind {
                    EventKind::Deliver {
                        from,
                        to,
                        kind,
                        msg,
                    } => {
                        0u8.hash(&mut h);
                        from.hash(&mut h);
                        to.hash(&mut h);
                        kind.hash(&mut h);
                        msg.hash(&mut h);
                        (
                            PendingClass::Deliver,
                            *to,
                            Some(*from),
                            format!("{from}->{to} {}", labeller(msg)),
                        )
                    }
                    EventKind::Local { to, msg } => {
                        1u8.hash(&mut h);
                        to.hash(&mut h);
                        msg.hash(&mut h);
                        (
                            PendingClass::Local,
                            *to,
                            None,
                            format!("local@{to} {}", labeller(msg)),
                        )
                    }
                    EventKind::Timer { node, token } => {
                        2u8.hash(&mut h);
                        node.hash(&mut h);
                        token.hash(&mut h);
                        (
                            PendingClass::Timer,
                            *node,
                            None,
                            format!("timer@{node} t{token}"),
                        )
                    }
                    EventKind::Crash(node) => {
                        3u8.hash(&mut h);
                        node.hash(&mut h);
                        (PendingClass::Crash, *node, None, format!("crash@{node}"))
                    }
                    EventKind::Recover(node) => {
                        4u8.hash(&mut h);
                        node.hash(&mut h);
                        (
                            PendingClass::Recover,
                            *node,
                            None,
                            format!("recover@{node}"),
                        )
                    }
                };
                PendingEvent {
                    seq: e.seq,
                    time: e.time,
                    class,
                    target,
                    source,
                    content_hash: h.finish(),
                    label,
                }
            })
            .collect()
    }

    /// Removes the queued event with sequence number `seq` and dispatches
    /// it now, regardless of its scheduled time (virtual time stays
    /// monotone: it only advances, to the event's time if that is later).
    /// Returns `false` if no such event is queued, or the event budget is
    /// already exhausted (the event stays queued).
    pub fn dispatch_by_seq(&mut self, seq: u64) -> bool {
        if self.window_full() {
            return false;
        }
        let mut rest = Vec::with_capacity(self.queue.len());
        let mut chosen = None;
        for Reverse(e) in self.queue.drain() {
            if e.seq == seq && chosen.is_none() {
                chosen = Some(e);
            } else {
                rest.push(Reverse(e));
            }
        }
        self.queue = rest.into();
        match chosen {
            Some(event) => {
                self.now = self.now.max(event.time);
                self.count_dispatch();
                self.dispatch_event(event.kind);
                self.end_window_if_idle();
                true
            }
            None => false,
        }
    }

    /// Whether any event is queued.
    pub fn has_pending(&self) -> bool {
        !self.queue.is_empty()
    }

    /// Number of queued events.
    pub fn pending_len(&self) -> usize {
        self.queue.len()
    }
}

impl<M: Clone, A: Actor<M> + Clone> Engine<M, A> {
    /// Deep-copies the engine: actors, liveness, the event queue, virtual
    /// clock, fault state, budget window and network tallies (mutating
    /// the fork never shows in the original). Neither the obs bundle nor
    /// message tracing is carried over. Sequence numbers continue from the
    /// same counter, so the same `inject`/`dispatch_by_seq` calls on two
    /// forks name the same events — the property a model checker's DFS
    /// relies on.
    pub fn fork(&self) -> Self {
        Engine {
            actors: self.actors.clone(),
            alive: self.alive.clone(),
            queue: self.queue.clone(),
            network: self.network.clone(),
            now: self.now,
            seq: self.seq,
            dispatched: self.dispatched,
            window: self.window,
            max_events: self.max_events,
            overflowed: self.overflowed,
            labeller: None,
            // Forks incrementing the shared registry would multiply-count.
            obs: None,
            faults: self.faults.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A ping-pong actor: replies to `n > 0` with `n - 1`, alternating
    /// message kinds; records everything it saw.
    #[derive(Clone)]
    struct PingPong {
        peer: Option<NodeId>,
        seen: Vec<u32>,
        recovered: u32,
        crashed: u32,
    }

    impl PingPong {
        fn new(peer: Option<NodeId>) -> Self {
            PingPong {
                peer,
                seen: Vec::new(),
                recovered: 0,
                crashed: 0,
            }
        }
    }

    impl Actor<u32> for PingPong {
        fn on_message(&mut self, ctx: &mut Context<u32>, from: NodeId, _kind: MsgKind, msg: u32) {
            self.seen.push(msg);
            if msg > 0 {
                let to = self.peer.unwrap_or(from);
                let kind = if msg.is_multiple_of(2) {
                    MsgKind::Control
                } else {
                    MsgKind::Data
                };
                ctx.send(to, kind, msg - 1);
            }
        }
        fn on_crash(&mut self) {
            self.crashed += 1;
        }
        fn on_recover(&mut self, _ctx: &mut Context<u32>) {
            self.recovered += 1;
        }
    }

    #[test]
    fn ping_pong_counts_messages_exactly() {
        let mut engine: Engine<u32, PingPong> = Engine::new(EngineConfig::default());
        let a = engine.add_node(PingPong::new(Some(NodeId(1))));
        let b = engine.add_node(PingPong::new(Some(NodeId(0))));
        assert_eq!(engine.node_count(), 2);
        engine.inject(a, 0, 4);
        engine.run_until_idle();
        // 4 messages sent on the wire: 3→b, 2→a, 1→b, 0→a... wait: a sees 4
        // (local), sends 3; b sends 2; a sends 1; b sends 0; a sees 0, stops.
        let stats = engine.net_stats();
        assert_eq!(stats.control_sent + stats.data_sent, 4);
        // Kinds alternate with parity of the value sent: 3(data→wait msg=4
        // even→Control carrying 3), 2 is sent while msg=3 odd→Data, etc.
        assert_eq!(stats.control_sent, 2);
        assert_eq!(stats.data_sent, 2);
        assert_eq!(engine.actor(a).seen, vec![4, 2, 0]);
        assert_eq!(engine.actor(b).seen, vec![3, 1]);
    }

    #[test]
    fn virtual_time_advances_by_latency() {
        let mut engine: Engine<u32, PingPong> = Engine::new(EngineConfig {
            network: NetworkConfig {
                control_latency: 5,
                data_latency: 11,
                medium: crate::Medium::PointToPoint,
            },
            max_events: 0,
        });
        let a = engine.add_node(PingPong::new(Some(NodeId(1))));
        let _b = engine.add_node(PingPong::new(Some(NodeId(0))));
        engine.inject(a, 2, 2);
        engine.run_until_idle();
        // t=2 local; a sends Control(1) (+5) → t=7; b sends Data(0) (+11) → 18.
        assert_eq!(engine.now(), SimTime(18));
    }

    #[test]
    fn crashed_nodes_drop_messages_and_recover() {
        let mut engine: Engine<u32, PingPong> = Engine::new(EngineConfig::default());
        let a = engine.add_node(PingPong::new(Some(NodeId(1))));
        let b = engine.add_node(PingPong::new(Some(NodeId(0))));
        engine.schedule_crash(b, 0);
        engine.inject(a, 1, 3); // a replies 2 to b, which is down
        engine.run_until_idle();
        assert_eq!(engine.net_stats().dropped, 1);
        assert!(engine.actor(b).seen.is_empty());
        assert!(!engine.is_alive(b));
        assert_eq!(engine.actor(b).crashed, 1);

        engine.schedule_recover(b, 0);
        engine.inject(a, 1, 1); // a sends 0 to b, which is back up
        engine.run_until_idle();
        assert!(engine.is_alive(b));
        assert_eq!(engine.actor(b).recovered, 1);
        assert_eq!(engine.actor(b).seen, vec![0]);
    }

    struct TimerActor {
        fired: Vec<u64>,
    }
    impl Actor<u32> for TimerActor {
        fn on_message(&mut self, ctx: &mut Context<u32>, _from: NodeId, _k: MsgKind, _msg: u32) {
            ctx.set_timer(10, 7);
            ctx.set_timer(5, 3);
        }
        fn on_timer(&mut self, _ctx: &mut Context<u32>, token: u64) {
            self.fired.push(token);
        }
    }

    #[test]
    fn timers_fire_in_order() {
        let mut engine: Engine<u32, TimerActor> = Engine::new(EngineConfig::default());
        let a = engine.add_node(TimerActor { fired: Vec::new() });
        engine.inject(a, 0, 0);
        engine.run_until_idle();
        assert_eq!(engine.actor(a).fired, vec![3, 7]);
    }

    #[test]
    fn runaway_protocol_trips_the_valve() {
        /// Replies forever.
        struct Flood;
        impl Actor<u32> for Flood {
            fn on_message(&mut self, ctx: &mut Context<u32>, from: NodeId, _k: MsgKind, msg: u32) {
                ctx.send(from, MsgKind::Control, msg);
            }
        }
        let mut engine: Engine<u32, Flood> = Engine::new(EngineConfig {
            network: NetworkConfig::default(),
            max_events: 100,
        });
        let a = engine.add_node(Flood);
        let b = engine.add_node(Flood);
        let _ = b;
        engine.inject(a, 0, 1);
        let dispatched = engine.run_until_idle();
        assert!(engine.budget_exhausted(), "valve must trip");
        assert_eq!(dispatched, 100, "stops exactly at the budget");
        assert_eq!(engine.max_events(), 100);
        assert!(engine.has_pending(), "the undispatched event stays queued");
    }

    #[test]
    fn budget_counts_per_idle_window() {
        let mut engine: Engine<u32, PingPong> = Engine::new(EngineConfig {
            network: NetworkConfig::default(),
            max_events: 10,
        });
        let a = engine.add_node(PingPong::new(Some(NodeId(1))));
        engine.add_node(PingPong::new(Some(NodeId(0))));
        // Each exchange is 5 events (one injection, four deliveries) and
        // drains the queue; ten of them far exceed the budget in total.
        for _ in 0..10 {
            engine.inject(a, 0, 4);
            assert_eq!(engine.run_until_idle(), 5);
        }
        assert!(!engine.budget_exhausted(), "settled windows never trip");
        assert_eq!(engine.dispatched(), 50, "lifetime total still counts");
        // Driving one exchange event by event also resets at idle.
        for _ in 0..3 {
            engine.inject(a, 0, 4);
            while let Some(next) = engine.pending_events(|m| m.to_string()).first() {
                assert!(engine.dispatch_by_seq(next.seq()));
            }
        }
        assert!(!engine.budget_exhausted());
    }

    #[test]
    fn installed_drop_rule_loses_the_message_but_keeps_the_send_tally() {
        use crate::fault::{FaultAction, FaultPlan, FaultRule, LinkFilter};
        let mut engine: Engine<u32, PingPong> = Engine::new(EngineConfig::default());
        let a = engine.add_node(PingPong::new(Some(NodeId(1))));
        let b = engine.add_node(PingPong::new(Some(NodeId(0))));
        engine.install_faults(
            FaultPlan::new(0)
                .rule(FaultRule::always(LinkFilter::link(a, b), FaultAction::Drop).with_budget(1)),
        );
        engine.inject(a, 0, 4);
        engine.run_until_idle();
        // a's first reply (3→b) is eaten; the exchange dies there.
        assert_eq!(engine.actor(a).seen, vec![4]);
        assert!(engine.actor(b).seen.is_empty());
        let stats = engine.net_stats();
        assert_eq!(stats.control_sent + stats.data_sent, 1, "sender still pays");
        assert_eq!(stats.dropped, 1);
        assert_eq!(engine.fault_stats().dropped, 1);
        assert_eq!(engine.clear_faults().dropped, 1);
        assert_eq!(engine.fault_stats(), crate::fault::FaultStats::default());
    }

    #[test]
    fn duplicate_rule_delivers_twice() {
        use crate::fault::{FaultAction, FaultPlan, FaultRule, LinkFilter};
        // One actor type covers both roles: forward if a peer is set,
        // always record.
        struct Both {
            peer: Option<NodeId>,
            got: Vec<u32>,
        }
        impl Actor<u32> for Both {
            fn on_message(&mut self, ctx: &mut Context<u32>, _f: NodeId, _k: MsgKind, msg: u32) {
                self.got.push(msg);
                if let Some(peer) = self.peer {
                    ctx.send(peer, MsgKind::Data, msg);
                }
            }
        }
        let mut engine: Engine<u32, Both> = Engine::new(EngineConfig::default());
        let a = engine.add_node(Both {
            peer: Some(NodeId(1)),
            got: vec![],
        });
        let b = engine.add_node(Both {
            peer: None,
            got: vec![],
        });
        engine.install_faults(FaultPlan::new(0).rule(FaultRule::always(
            LinkFilter::link(a, b),
            FaultAction::Duplicate(4),
        )));
        engine.inject(a, 0, 9);
        engine.run_until_idle();
        assert_eq!(engine.actor(b).got, vec![9, 9], "original plus one copy");
        assert_eq!(engine.fault_stats().duplicated, 1);
        // Exactly one send was tallied: the duplicate is injected, not paid.
        let stats = engine.net_stats();
        assert_eq!(stats.data_sent, 1);
    }

    #[test]
    fn delay_rule_reorders_across_a_faster_message() {
        use crate::fault::{FaultAction, FaultPlan, FaultRule, LinkFilter};
        struct Rec {
            got: Vec<u32>,
        }
        impl Actor<u32> for Rec {
            fn on_message(&mut self, ctx: &mut Context<u32>, _f: NodeId, _k: MsgKind, msg: u32) {
                self.got.push(msg);
                // Node 0 fans out two messages to node 1 on injection.
                if ctx.id() == NodeId(0) {
                    ctx.send(NodeId(1), MsgKind::Control, 1);
                    ctx.send(NodeId(1), MsgKind::Control, 2);
                }
            }
        }
        let mut engine: Engine<u32, Rec> = Engine::new(EngineConfig::default());
        let a = engine.add_node(Rec { got: vec![] });
        let b = engine.add_node(Rec { got: vec![] });
        let _ = (a, b);
        // Delay only the *first* matching message; the second overtakes it.
        engine.install_faults(
            FaultPlan::new(0).rule(
                FaultRule::always(
                    LinkFilter::link(NodeId(0), NodeId(1)),
                    FaultAction::Delay(10),
                )
                .with_budget(1),
            ),
        );
        engine.inject(NodeId(0), 0, 0);
        engine.run_until_idle();
        assert_eq!(engine.actor(NodeId(1)).got, vec![2, 1], "reordered");
        assert_eq!(engine.fault_stats().delayed, 1);
    }

    #[test]
    fn plan_crash_events_fire_at_absolute_ticks() {
        use crate::fault::FaultPlan;
        let mut engine: Engine<u32, PingPong> = Engine::new(EngineConfig::default());
        let a = engine.add_node(PingPong::new(Some(NodeId(1))));
        let b = engine.add_node(PingPong::new(Some(NodeId(0))));
        engine.install_faults(FaultPlan::new(0).crash_at(b, 0).recover_at(b, 5));
        engine.inject(a, 1, 3); // a replies 2 → b at t=2 — b is down until t=5
        engine.run_until_idle();
        assert!(engine.is_alive(b));
        assert_eq!(engine.actor(b).crashed, 1);
        assert_eq!(engine.actor(b).recovered, 1);
        assert!(engine.actor(b).seen.is_empty());
        assert_eq!(engine.net_stats().dropped, 1);
    }

    #[test]
    fn fault_trace_records_are_labelled() {
        use crate::fault::{FaultAction, FaultPlan, FaultRule, LinkFilter};
        let mut engine: Engine<u32, PingPong> = Engine::new(EngineConfig::default());
        let a = engine.add_node(PingPong::new(Some(NodeId(1))));
        let b = engine.add_node(PingPong::new(Some(NodeId(0))));
        let obs = doma_obs::Obs::new(16);
        engine.set_obs(obs.clone());
        engine.trace_messages(|m| format!("m{m}"));
        engine.install_faults(
            FaultPlan::new(0)
                .rule(FaultRule::always(LinkFilter::link(a, b), FaultAction::Drop).with_budget(1)),
        );
        engine.inject(a, 0, 4);
        engine.run_until_idle();
        let records = obs.events().snapshot();
        assert!(
            records.iter().any(|r| r.name == MESSAGE_EVENT
                && r.field("label") == Some("fault-drop:m3")
                && r.field("delivered") == Some("false")),
            "expected a fault-drop trace record, got {records:?}"
        );
    }

    #[test]
    fn deterministic_tiebreak_by_sequence() {
        // Two messages at the same instant are delivered in send order.
        struct Collect {
            got: Vec<u32>,
        }
        impl Actor<u32> for Collect {
            fn on_message(&mut self, _ctx: &mut Context<u32>, _f: NodeId, _k: MsgKind, msg: u32) {
                self.got.push(msg);
            }
        }
        let mut engine: Engine<u32, Collect> = Engine::new(EngineConfig::default());
        let a = engine.add_node(Collect { got: Vec::new() });
        engine.inject(a, 5, 1);
        engine.inject(a, 5, 2);
        engine.inject(a, 5, 3);
        engine.run_until_idle();
        assert_eq!(engine.actor(a).got, vec![1, 2, 3]);
    }

    #[derive(Clone)]
    struct Collect2 {
        got: Vec<u32>,
    }
    impl Actor<u32> for Collect2 {
        fn on_message(&mut self, _ctx: &mut Context<u32>, _f: NodeId, _k: MsgKind, msg: u32) {
            self.got.push(msg);
        }
    }

    #[test]
    fn pending_events_snapshot_and_selective_dispatch() {
        let mut engine: Engine<u32, Collect2> = Engine::new(EngineConfig::default());
        let a = engine.add_node(Collect2 { got: Vec::new() });
        let b = engine.add_node(Collect2 { got: Vec::new() });
        engine.inject(a, 3, 10);
        engine.inject(b, 1, 20);
        let pending = engine.pending_events(|m| format!("m{m}"));
        assert_eq!(pending.len(), 2);
        // Sorted by natural schedule: b's injection (t=1) first.
        assert_eq!(pending[0].target(), b);
        assert_eq!(pending[0].class(), PendingClass::Local);
        assert_eq!(pending[1].target(), a);
        assert!(pending[1].label().contains("m10"));
        // Dispatch out of natural order: a's event first.
        assert!(engine.dispatch_by_seq(pending[1].seq()));
        assert_eq!(engine.actor(a).got, vec![10]);
        assert_eq!(engine.now(), SimTime(3), "clock jumps to the event's time");
        assert!(engine.dispatch_by_seq(pending[0].seq()));
        assert_eq!(engine.now(), SimTime(3), "clock never regresses");
        assert!(!engine.has_pending());
        assert!(!engine.dispatch_by_seq(999), "unknown seq is a no-op");
    }

    #[test]
    fn content_hash_ignores_schedule_position() {
        let mut e1: Engine<u32, Collect2> = Engine::new(EngineConfig::default());
        let a1 = e1.add_node(Collect2 { got: Vec::new() });
        e1.inject(a1, 5, 42);
        let mut e2: Engine<u32, Collect2> = Engine::new(EngineConfig::default());
        let a2 = e2.add_node(Collect2 { got: Vec::new() });
        e2.inject(a2, 0, 7); // consumes seq 0 so the next event differs in seq/time
        e2.inject(a2, 9, 42);
        let p1 = e1.pending_events(|m| format!("{m}"));
        let p2 = e2.pending_events(|m| format!("{m}"));
        let h1 = p1[0].content_hash();
        let h2 = p2
            .iter()
            .find(|p| p.label().contains("42"))
            .unwrap()
            .content_hash();
        assert_eq!(h1, h2, "same payload+endpoints hash equal despite seq/time");
    }

    #[test]
    fn obs_counts_sends_drops_and_lifecycle() {
        let mut engine: Engine<u32, PingPong> = Engine::new(EngineConfig::default());
        let a = engine.add_node(PingPong::new(Some(NodeId(1))));
        let b = engine.add_node(PingPong::new(Some(NodeId(0))));
        let obs = doma_obs::Obs::new(32);
        engine.set_obs(obs.clone());
        engine.schedule_crash(b, 0);
        engine.inject(a, 1, 3); // a replies 2 to b, which is down
        engine.run_until_idle();
        engine.schedule_recover(b, 0);
        engine.run_until_idle();

        let snap = obs.metrics().snapshot();
        assert_eq!(snap.sum_counters("sim", "msgs_sent"), 1);
        assert_eq!(
            snap.counter("sim", "msgs_dropped", &[("reason", "crashed")]),
            1
        );
        assert_eq!(snap.counter("sim", "crashes", &[("node", "N1")]), 1);
        assert_eq!(snap.counter("sim", "recoveries", &[("node", "N1")]), 1);
        let names: Vec<String> = obs
            .events()
            .snapshot()
            .iter()
            .map(|e| e.name.clone())
            .collect();
        assert_eq!(names, vec!["sim.crash", "sim.drop", "sim.recover"]);
        assert!(engine.obs().is_some());

        // Forks do not inherit the bundle: their activity must not leak
        // into the parent's registry.
        let mut fork = engine.fork();
        assert!(fork.obs().is_none());
        fork.inject(a, 1, 3);
        fork.run_until_idle();
        assert_eq!(obs.metrics().snapshot().sum_counters("sim", "msgs_sent"), 1);
    }

    #[test]
    fn fork_is_independent() {
        let mut engine: Engine<u32, Collect2> = Engine::new(EngineConfig::default());
        let a = engine.add_node(Collect2 { got: Vec::new() });
        engine.inject(a, 0, 1);
        engine.inject(a, 0, 2);
        let mut fork = engine.fork();
        fork.run_until_idle();
        assert_eq!(fork.actor(a).got, vec![1, 2]);
        assert!(engine.actor(a).got.is_empty(), "original untouched");
        assert_eq!(engine.pending_len(), 2);
        // Network stats are deep-copied, not shared.
        fork.network.record_drop();
        assert_eq!(engine.net_stats().dropped, 0);
    }
}
