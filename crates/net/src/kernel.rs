//! The deterministic discrete-event kernel hosting the node tasks.
//!
//! There is no wall clock and no thread scheduler anywhere in this
//! crate: one kernel runs one trial on one thread, driving independent
//! node state machines (`node::Node`) through a single
//! time-ordered event queue — message deliveries, link closures, node
//! timers, churn toggles, chaos injections, and supervisor sweeps.
//!
//! Around the protocol the kernel runs the engine's code, as a third
//! driver of its [`Frame`]: seeding, [`Demand`], admission, contact and
//! cache faults, settlement. Its own are the queue, the transport, the
//! node tasks and their request registry, churn and chaos, the
//! supervisor, the deadline sweeps and the conservation audit. So a
//! trial is a pure function of `(config, source, net, seed)`, like the
//! engine's, which is what makes differential verification meaningful.
//!
//! The transport is an *unreliable link* abstraction: a contact from the
//! [`ContactSource`] opens a link for `WINDOW` minutes; messages
//! submitted on an open link arrive after [`MSG_DELAY`] unless the
//! message-fault family ([`MsgFaults`]) loses, duplicates, or reorders
//! them; messages in flight when the link closes are dropped. Every
//! retry, timeout, and backoff in the node layer exists because of this
//! transport.

use std::collections::{BinaryHeap, VecDeque};

use impatience_core::rng::Xoshiro256;
use impatience_obs::{Recorder, Sink};
use impatience_sim::config::{ContactSource, SimConfig};
use impatience_sim::engine::{seed_trial, Demand, Frame, TrialOutcome};
use impatience_sim::faults::MsgFaults;
use impatience_sim::policy::{PolicyKind, QcrConfig, QcrRules};
use impatience_sim::state::SimState;
use impatience_sim::streams;

use crate::config::{
    ChaosKind, NetConfig, CHECKPOINT_EVERY, HEARTBEAT_EVERY, HEARTBEAT_TIMEOUT, MSG_DELAY, RTO_CAP,
    WINDOW,
};
use crate::error::NetError;
use crate::node::{Ctx, Node, Timer, VecMap};
use crate::wire::{self, Lists};

/// Anti-wedge backstop on kernel events per trial: no realistic trial
/// comes near it, and a protocol bug that loops cannot hang the process
/// — the run degrades instead.
const EVENT_CAP: u64 = 20_000_000;

/// Transport/protocol counters of one trial (or, merged, of a batch).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Frames submitted to an open link (duplicates included).
    pub msgs_sent: u64,
    /// Frames delivered to a live node.
    pub msgs_delivered: u64,
    /// Frames destroyed by injected loss.
    pub msgs_lost: u64,
    /// Extra copies injected by duplication faults.
    pub msgs_duplicated: u64,
    /// Sends or deliveries on a closed link / to a dead node.
    pub transport_closed: u64,
    /// Protocol retransmissions (adverts, requests, handoffs).
    pub retries: u64,
    /// Transfers that exhausted their retry budget and parked.
    pub ack_timeouts: u64,
    /// Windows that closed without completing an advert exchange.
    pub handshake_timeouts: u64,
    /// Two-phase mandate transfers initiated.
    pub handoffs_started: u64,
    /// Custody handoffs applied at the receiver.
    pub handoffs_applied: u64,
    /// Acks received back at the escrow holder.
    pub acks_received: u64,
    /// Mandated copies actually written by an execute transfer.
    pub execs_applied: u64,
    /// Node crashes (churn schedule + chaos kills).
    pub crashes: u64,
    /// Node restarts from checkpoint.
    pub restarts: u64,
    /// Nodes condemned by the supervisor's heartbeat timeout.
    pub stalls: u64,
    /// Requests abandoned by the deadline budget.
    pub requests_expired: u64,
    /// Heartbeats observed by the supervisor.
    pub heartbeats: u64,
}

impl NetStats {
    /// Accumulate another trial's counters.
    pub fn merge(&mut self, o: &NetStats) {
        self.msgs_sent += o.msgs_sent;
        self.msgs_delivered += o.msgs_delivered;
        self.msgs_lost += o.msgs_lost;
        self.msgs_duplicated += o.msgs_duplicated;
        self.transport_closed += o.transport_closed;
        self.retries += o.retries;
        self.ack_timeouts += o.ack_timeouts;
        self.handshake_timeouts += o.handshake_timeouts;
        self.handoffs_started += o.handoffs_started;
        self.handoffs_applied += o.handoffs_applied;
        self.acks_received += o.acks_received;
        self.execs_applied += o.execs_applied;
        self.crashes += o.crashes;
        self.restarts += o.restarts;
        self.stalls += o.stalls;
        self.requests_expired += o.requests_expired;
        self.heartbeats += o.heartbeats;
    }
}

/// The quiesce-time mandate audit (exact `u64` arithmetic).
///
/// Invariant: `minted == executed + discarded + pooled + escrowed`.
/// Every mandate that entered a pool is either consumed by a (possibly
/// rejected) execution, destroyed at a documented cap clamp, sitting in
/// some node's pool, or escrowed in a transfer whose ack never arrived.
/// A crash mid-handoff moves mandates between these buckets but can
/// never change the sum — that is the point of the two-phase protocol.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Conservation {
    /// Mandates minted into pools over the trial.
    pub minted: u64,
    /// Mandates consumed by execute transfers.
    pub executed: u64,
    /// Mandates destroyed at pool-cap clamps.
    pub discarded: u64,
    /// Mandates in node pools at quiesce.
    pub pooled: u64,
    /// Mandates outstanding in unacked escrow at quiesce.
    pub escrowed: u64,
}

impl Conservation {
    /// Does the invariant hold?
    pub fn holds(&self) -> bool {
        self.minted == self.executed + self.discarded + self.pooled + self.escrowed
    }
}

/// Running mint/execute/discard tallies (the first three terms of
/// [`Conservation`]; the pool and escrow terms are read at quiesce).
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Ledger {
    pub minted: u64,
    pub executed: u64,
    pub discarded: u64,
}

/// Kernel-side record of one request — the omniscient "user" ledger
/// that books each request's welfare exactly once, whatever the node
/// tasks crash into.
#[derive(Clone, Copy, Debug)]
pub struct ReqRecord {
    /// Arrival time.
    pub created: f64,
    /// Origin node.
    pub node: u32,
    /// Requested item.
    pub item: u32,
    /// Welfare booked by a fulfillment.
    pub fulfilled: bool,
    /// Abandoned (crash without checkpoint, dead origin, or deadline).
    pub lost: bool,
    /// Settlement already recorded (deadline expiry).
    pub settled: bool,
}

/// Result of one distributed trial.
#[derive(Clone, Debug)]
pub struct NetTrialOutcome {
    /// What the engine's trial yields: its metrics, the replica counts at
    /// quiesce, the policy label.
    pub outcome: TrialOutcome,
    /// Transport and protocol counters.
    pub stats: NetStats,
    /// The (passing) mandate audit.
    pub conservation: Conservation,
    /// The run survived but lost capacity (supervisor kill or event-cap
    /// breach) — `impatience netrun` exits 9 on this.
    pub degraded: bool,
}

/// Kernel events. Ordered by time with a monotonic sequence tiebreak,
/// so the queue order is deterministic even at equal times.
#[derive(Clone, Debug)]
enum Ev {
    /// A frame arrives at `to` (decoded at delivery).
    Deliver { to: u32, from: u32, bytes: Vec<u8> },
    /// A contact window closes.
    LinkDown { a: u32, b: u32, window: u64 },
    /// A node-local timer fires (ignored if the incarnation moved on).
    Timer {
        node: u32,
        incarnation: u32,
        timer: Timer,
    },
    /// Churn-schedule crash.
    ChurnDown { node: u32 },
    /// Churn-schedule restart.
    ChurnUp { node: u32 },
    /// A scheduled chaos injection (index into `NetConfig::chaos`).
    Chaos { idx: usize },
    /// Supervisor sweep over heartbeat ages.
    Supervise,
    /// Deadline-budget sweep over outstanding requests.
    DeadlineSweep,
}

impl Ev {
    /// Raised by a message or a contact window, as opposed to the
    /// periodic and scheduled events (heartbeats, checkpoints, sweeps,
    /// churn, chaos).
    fn per_message(&self) -> bool {
        matches!(
            self,
            Ev::Deliver { .. }
                | Ev::LinkDown { .. }
                | Ev::Timer {
                    timer: Timer::WindowRetry { .. } | Timer::XferRetry { .. },
                    ..
                }
        )
    }
}

struct QEntry {
    t: f64,
    seq: u64,
    ev: Ev,
}

impl PartialEq for QEntry {
    fn eq(&self, o: &Self) -> bool {
        self.t == o.t && self.seq == o.seq
    }
}
impl Eq for QEntry {}
impl PartialOrd for QEntry {
    fn partial_cmp(&self, o: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(o))
    }
}
impl Ord for QEntry {
    fn cmp(&self, o: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest event.
        o.t.total_cmp(&self.t).then_with(|| o.seq.cmp(&self.seq))
    }
}

/// Two FIFO lanes and two heaps drawing on one sequence counter, popped
/// by the least `(t, seq)` over their heads. A link closes [`WINDOW`]
/// after its contact and a clean frame lands [`MSG_DELAY`] after its send, so
/// `LinkDown` and `Deliver` entries come in time order: each rides its
/// lane unless its `t` is before the lane tail's (a jittered frame),
/// and then the per-message heap `hot`. The periodic and scheduled events
/// (about two timers per node, firing hourly) go to `slow`, so a
/// per-message push or pop walks a shallow heap or none. `(t, seq)` is a
/// total order with unique `seq` and each lane is sorted by it, so the
/// pops are exactly one heap's.
#[derive(Default)]
struct Queue {
    /// The `Deliver` lane and the `LinkDown` lane.
    lanes: [VecDeque<QEntry>; 2],
    hot: BinaryHeap<QEntry>,
    slow: BinaryHeap<QEntry>,
    seq: u64,
}

impl Queue {
    fn push(&mut self, t: f64, ev: Ev) {
        let seq = self.seq;
        self.seq += 1;
        let entry = QEntry { t, seq, ev };
        let lane = match entry.ev {
            Ev::Deliver { .. } => Some(&mut self.lanes[0]),
            Ev::LinkDown { .. } => Some(&mut self.lanes[1]),
            _ => None,
        };
        if let Some(lane) = lane {
            if lane.back().is_none_or(|tail| tail.t.total_cmp(&t).is_le()) {
                lane.push_back(entry);
                return;
            }
        }
        if entry.ev.per_message() {
            self.hot.push(entry);
        } else {
            self.slow.push(entry);
        }
    }

    /// Arm `timer` of `node`'s `incarnation` to fire at `t`.
    fn timer(&mut self, t: f64, node: u32, incarnation: u32, timer: Timer) {
        let ev = Ev::Timer {
            node,
            incarnation,
            timer,
        };
        self.push(t, ev);
    }

    /// The earliest entry and where it waits (0 and 1: the lanes, 2: `hot`,
    /// 3: `slow`): the greatest head by `QEntry`'s reversed order, any
    /// entry being greater than `None`.
    fn first(&self) -> Option<(usize, &QEntry)> {
        let [delivers, link_downs] = &self.lanes;
        let heads = [
            delivers.front(),
            link_downs.front(),
            self.hot.peek(),
            self.slow.peek(),
        ];
        let (at, head) = heads.into_iter().enumerate().max_by(|a, b| a.1.cmp(&b.1))?;
        head.map(|head| (at, head))
    }

    fn peek(&self) -> Option<&QEntry> {
        self.first().map(|(_, head)| head)
    }

    fn pop(&mut self) -> Option<QEntry> {
        match self.first()?.0 {
            lane @ (0 | 1) => self.lanes[lane].pop_front(),
            2 => self.hot.pop(),
            _ => self.slow.pop(),
        }
    }
}

#[derive(Clone, Copy, Debug)]
struct Link {
    up_until: f64,
    window: u64,
}

/// The unreliable in-process link layer.
struct Transport {
    /// Open links by `link_key`: a handful at a time.
    links: VecMap<(u32, u32), Link>,
    /// Frame buffers handed back by deliveries, for the next sends.
    spare: Vec<Vec<u8>>,
    /// Active message-fault family (None ⇒ clean transport, and the
    /// fault RNG is never consumed — bit-identical to no config at all).
    faults: Option<MsgFaults>,
    fault_rng: Xoshiro256,
}

fn link_key(a: u32, b: u32) -> (u32, u32) {
    (a.min(b), a.max(b))
}

impl Transport {
    fn link_up(&self, t: f64, a: u32, b: u32) -> bool {
        self.links
            .get(&link_key(a, b))
            .is_some_and(|l| t <= l.up_until)
    }

    fn open(&mut self, t: f64, a: u32, b: u32, window: u64, until: f64) {
        self.links.insert(
            link_key(a, b),
            Link {
                up_until: until.max(t),
                window,
            },
        );
    }

    /// Close the link if `window` is still its current window. Returns
    /// whether the link actually closed.
    fn close(&mut self, a: u32, b: u32, window: u64) -> bool {
        let key = link_key(a, b);
        if self.links.get(&key).is_some_and(|l| l.window == window) {
            self.links.remove(&key);
            true
        } else {
            false
        }
    }

    /// Submit an encoded frame. Applies loss/duplication/reordering
    /// faults and schedules the surviving copies as [`Ev::Deliver`]; a
    /// frame that does not leave goes back to the spare list.
    #[allow(clippy::too_many_arguments)]
    fn send<S: Sink>(
        &mut self,
        t: f64,
        from: u32,
        to: u32,
        mut frame: Vec<u8>,
        q: &mut Queue,
        stats: &mut NetStats,
        rec: &mut Recorder<S>,
    ) {
        if !self.link_up(t, from, to) {
            self.spare.push(frame);
            stats.transport_closed += 1;
            return;
        }
        stats.msgs_sent += 1;
        let mut copies = 1u32;
        let extra = |rng: &mut Xoshiro256, m: &MsgFaults| {
            if m.reorder_window > 0 {
                rng.f64() * m.reorder_window as f64 * MSG_DELAY
            } else {
                0.0
            }
        };
        if let Some(m) = self.faults {
            if m.loss_p > 0.0 && self.fault_rng.bernoulli(m.loss_p) {
                self.spare.push(frame);
                stats.msgs_lost += 1;
                rec.fault(t, "net_msg_loss", from, to);
                return;
            }
            if m.dup_p > 0.0 && self.fault_rng.bernoulli(m.dup_p) {
                copies = 2;
                stats.msgs_duplicated += 1;
                rec.fault(t, "net_msg_dup", from, to);
            }
        }
        for copy in 1..=copies {
            let jitter = match self.faults {
                Some(m) => extra(&mut self.fault_rng, &m),
                None => 0.0,
            };
            // The last copy takes the buffer itself, a duplicate another
            // spare one: every buffer is in flight or spare, so there are
            // never more than the most frames in flight at once.
            let bytes = if copy == copies {
                std::mem::take(&mut frame)
            } else {
                let mut dup = self.spare.pop().unwrap_or_default();
                dup.clone_from(&frame);
                dup
            };
            q.push(t + MSG_DELAY + jitter, Ev::Deliver { to, from, bytes });
        }
    }
}

/// Run one distributed trial (uninstrumented).
pub fn run_net_trial(
    config: &SimConfig,
    source: &ContactSource,
    net: &NetConfig,
    seed: u64,
) -> Result<NetTrialOutcome, NetError> {
    run_net_trial_observed(config, source, net, seed, &mut Recorder::disabled())
}

/// Run one distributed trial with instrumentation.
///
/// Deterministic by `(config, source, net, seed)`: the trial begins as the
/// engine's QCR trial on the same seed does ([`seed_trial`],
/// [`Frame::begin`], [`Demand::arrivals`]), then forks one RNG stream per
/// node off the trial RNG; transport chaos runs on a stream of the fault
/// root ([`streams`]) — so results are independent of how many worker
/// threads a batch uses.
#[allow(clippy::too_many_lines)]
pub(crate) fn run_net_trial_observed<S: Sink>(
    config: &SimConfig,
    source: &ContactSource,
    net: &NetConfig,
    seed: u64,
    rec: &mut Recorder<S>,
) -> Result<NetTrialOutcome, NetError> {
    net.validate()?;
    let (rng, mut contacts) = seed_trial(source, seed);
    let (n_nodes, duration) = (contacts.nodes(), contacts.duration());
    let config = config
        .try_resolved(n_nodes)
        .map_err(|e| NetError::Config(e.to_string()))?;
    if let Some(c) = net.chaos.iter().find(|c| c.node as usize >= n_nodes) {
        return Err(NetError::Config(format!(
            "chaos event at minute {} targets node {}, but the population has {n_nodes} nodes",
            c.t, c.node
        )));
    }
    let mut state = SimState::default();
    let mut frame = Frame::begin(
        &config,
        &PolicyKind::qcr_default(),
        n_nodes,
        duration,
        rng,
        seed,
        rec,
        &mut state,
    );
    let mut demand = Demand::arrivals(&config, &mut frame.rng);

    let rules = QcrRules::for_trial(QcrConfig::default(), &config, n_nodes, source.mean_rate());

    // The frame's fault state drives contact admission and cache faults
    // on the engine's own streams, so contacts involving churned-down
    // nodes vanish in both runtimes at the same instants. Churn
    // additionally crashes/restarts the node *tasks* here (the engine
    // only suppresses contacts): same schedule, same seeds.
    let churn_toggles = config
        .faults
        .as_ref()
        .map(|f| f.churn_schedule(n_nodes, duration, seed))
        .unwrap_or_default();
    let msg_faults = config
        .faults
        .as_ref()
        .and_then(|f| f.msg)
        .filter(MsgFaults::is_active);
    let fault_rng = streams::messages(seed, config.faults.as_ref().map_or(0, |f| f.seed));

    // --- node tasks ---
    let mut nodes: Vec<Node> = (0..n_nodes)
        .map(|i| Node::new(i as u32, streams::net_node(&mut frame.rng, i)))
        .collect();
    let mut q = Queue::default();
    for (tt, node, up) in &churn_toggles {
        q.push(
            *tt,
            if *up {
                Ev::ChurnUp { node: *node }
            } else {
                Ev::ChurnDown { node: *node }
            },
        );
    }
    for (idx, c) in net.chaos.iter().enumerate() {
        q.push(c.t, Ev::Chaos { idx });
    }
    q.push(HEARTBEAT_EVERY, Ev::Supervise);
    if let Some(d) = net.deadline {
        q.push(d, Ev::DeadlineSweep);
    }
    for node in nodes.iter_mut() {
        let hb = HEARTBEAT_EVERY * (0.5 + 0.5 * node.rng.f64());
        let ck = CHECKPOINT_EVERY * (0.5 + 0.5 * node.rng.f64());
        q.timer(hb, node.id, 0, Timer::Heartbeat);
        q.timer(ck, node.id, 0, Timer::Checkpoint);
    }

    let mut transport = Transport {
        links: VecMap::default(),
        spare: Vec::new(),
        faults: msg_faults,
        fault_rng,
    };
    let mut stats = NetStats::default();
    let mut ledger = Ledger::default();
    let mut registry: Vec<ReqRecord> = Vec::new();
    let mut last_seen = vec![0.0f64; n_nodes];
    let mut condemned = vec![false; n_nodes];
    let mut next_window: u64 = 0;
    let mut next_xfer: u64 = 0;
    let mut degraded = false;
    let mut out: Vec<(u32, Vec<u8>)> = Vec::new();
    let mut lists = Lists::default();
    // Registry entries before `swept` are fulfilled or settled for good.
    let mut swept = 0;
    let mut timers: Vec<(f64, Timer)> = Vec::new();
    let mut events: u64 = 0;

    // Builds a `Ctx` and calls one node handler, then drains its
    // outgoing messages through the transport and arms its timers.
    macro_rules! dispatch {
        ($t:expr, $node:expr, $call:ident ( $($arg:expr),* )) => {{
            let id = $node as usize;
            {
                let mut c = Ctx {
                    t: $t,
                    state: &mut state,
                    metrics: &mut frame.metrics,
                    stats: &mut stats,
                    ledger: &mut ledger,
                    registry: &mut registry,
                    out: &mut out,
                    spare: &mut transport.spare,
                    timers: &mut timers,
                    rec: &mut *frame.rec,
                    utility: config.utility.as_ref(),
                    rules: &rules,
                    next_xfer: &mut next_xfer,
                };
                nodes[id].$call(&mut c, $($arg),*);
            }
            for (to, bytes) in out.drain(..) {
                transport.send($t, $node, to, bytes, &mut q, &mut stats, frame.rec);
            }
            let inc = nodes[id].incarnation;
            for (ft, timer) in timers.drain(..) {
                q.timer(ft, $node, inc, timer);
            }
        }};
    }

    macro_rules! settle_expired {
        ($t:expr, $ids:expr) => {
            for id in $ids {
                let r = &mut registry[id as usize];
                if !r.fulfilled && !r.settled {
                    r.lost = true;
                    r.settled = true;
                    stats.requests_expired += 1;
                    frame.settle($t, r.node, r.item, $t - r.created);
                }
            }
        };
    }

    // A node task crashes (churn schedule or chaos kill) unless it is
    // down or condemned already; its unsaved requests are lost.
    macro_rules! crash {
        ($t:expr, $node:expr) => {{
            let idx = $node as usize;
            if nodes[idx].alive && !condemned[idx] {
                nodes[idx].stalled = false;
                let lost = nodes[idx].crash();
                for id in &lost {
                    registry[*id as usize].lost = true;
                }
                stats.crashes += 1;
                frame
                    .rec
                    .fault($t, "net_node_crash", $node, lost.len() as u32);
            }
        }};
    }

    loop {
        let next_contact_t = contacts.peek().map_or(f64::INFINITY, |e| e.time);
        let next_heap_t = q.peek().map_or(f64::INFINITY, |e| e.t);
        let next_request =
            demand.next_arrival(next_contact_t.min(next_heap_t), duration, &mut frame.rng);
        let t = next_request.min(next_contact_t).min(next_heap_t);
        if !t.is_finite() || t > duration {
            break;
        }
        events += 1;
        if events > EVENT_CAP {
            degraded = true;
            frame.rec.fault(t, "net_event_cap", 0, 0);
            break;
        }
        frame.cache_faults(t, &mut state);

        if next_request <= next_contact_t && next_request <= next_heap_t {
            // --- request arrival: the engine's; a waiting request is
            // handed to its origin's task ---
            if let Some((created, origin, item)) = frame.arrival(&mut demand, &state) {
                // The deadline sweep's `swept` relies on arrival order.
                debug_assert!(registry.last().is_none_or(|r| r.created <= created));
                let req_id = registry.len() as u64;
                let n = &mut nodes[origin];
                let alive = n.alive && !n.stalled;
                if alive {
                    n.on_request_arrival(req_id, item, created);
                }
                registry.push(ReqRecord {
                    created,
                    node: origin as u32,
                    item,
                    fulfilled: false,
                    // With the origin task down nobody will ever query
                    // for the request: it settles at the horizon.
                    lost: !alive,
                    settled: false,
                });
            }
        } else if next_contact_t <= next_heap_t {
            // --- contact: open a window, wake both endpoints ---
            let Some(e) = contacts.next() else {
                break; // peeked above
            };
            if !frame.contact(e.time, e.a, e.b) {
                continue;
            }
            let window = next_window;
            next_window += 1;
            transport.open(e.time, e.a, e.b, window, e.time + WINDOW);
            q.push(
                e.time + WINDOW,
                Ev::LinkDown {
                    a: e.a,
                    b: e.b,
                    window,
                },
            );
            for id in [e.a, e.b] {
                let n = &nodes[id as usize];
                if n.alive && !n.stalled {
                    dispatch!(
                        e.time,
                        id,
                        on_contact(if id == e.a { e.b } else { e.a }, window)
                    );
                }
            }
        } else {
            // --- kernel event ---
            let Some(QEntry { ev, .. }) = q.pop() else {
                break; // peeked above
            };
            match ev {
                Ev::Deliver { to, from, bytes } => {
                    let head = wire::decode_into(&bytes, &mut lists)?;
                    transport.spare.push(bytes);
                    let alive = {
                        let n = &nodes[to as usize];
                        n.alive && !n.stalled
                    };
                    if !transport.link_up(t, from, to) || !alive {
                        stats.transport_closed += 1;
                    } else {
                        stats.msgs_delivered += 1;
                        dispatch!(t, to, on_msg(from, head, &lists));
                    }
                }
                Ev::LinkDown { a, b, window } => {
                    if transport.close(a, b, window) {
                        for id in [a, b] {
                            let n = &nodes[id as usize];
                            if n.alive && !n.stalled {
                                dispatch!(t, id, on_link_down(if id == a { b } else { a }, window));
                            }
                        }
                    }
                }
                Ev::Timer {
                    node,
                    incarnation,
                    timer,
                } => {
                    let n = &nodes[node as usize];
                    if !n.alive || n.stalled || n.incarnation != incarnation {
                        continue;
                    }
                    match timer {
                        Timer::Heartbeat => {
                            last_seen[node as usize] = t;
                            stats.heartbeats += 1;
                            q.timer(t + HEARTBEAT_EVERY, node, incarnation, timer);
                        }
                        Timer::Checkpoint => {
                            nodes[node as usize].checkpoint();
                            q.timer(t + CHECKPOINT_EVERY, node, incarnation, timer);
                        }
                        Timer::WindowRetry { peer, .. } => {
                            let up = transport.link_up(t, node, peer);
                            dispatch!(t, node, on_timer(timer, up));
                        }
                        Timer::XferRetry { xfer } => {
                            let Some(peer) = nodes[node as usize].escrow.get(&xfer).map(|x| x.peer)
                            else {
                                continue; // acked in the meantime
                            };
                            let up = transport.link_up(t, node, peer);
                            dispatch!(t, node, on_timer(timer, up));
                        }
                    }
                }
                Ev::ChurnDown { node } => crash!(t, node),
                Ev::ChurnUp { node } => {
                    let idx = node as usize;
                    if !nodes[idx].alive && !condemned[idx] {
                        nodes[idx].restart();
                        last_seen[idx] = t;
                        stats.restarts += 1;
                        frame.rec.fault(t, "net_node_restart", node, 0);
                        let inc = nodes[idx].incarnation;
                        q.timer(t + HEARTBEAT_EVERY * 0.5, node, inc, Timer::Heartbeat);
                        q.timer(t + CHECKPOINT_EVERY, node, inc, Timer::Checkpoint);
                        // Re-arm retries for escrow that survived the
                        // crash; the next contact with each peer also
                        // re-drives them.
                        let xfers: Vec<u64> = nodes[idx]
                            .escrow
                            .iter()
                            .filter(|(_, x)| !x.parked)
                            .map(|(&id, _)| id)
                            .collect();
                        for x in xfers {
                            q.timer(t + RTO_CAP * 0.75, node, inc, Timer::XferRetry { xfer: x });
                        }
                    }
                }
                Ev::Chaos { idx } => {
                    let c = net.chaos[idx];
                    let target = c.node as usize;
                    match c.kind {
                        ChaosKind::Kill { down_for } => {
                            crash!(t, c.node);
                            q.push(t + down_for, Ev::ChurnUp { node: c.node });
                        }
                        ChaosKind::Stall => {
                            if nodes[target].alive && !nodes[target].stalled {
                                nodes[target].stalled = true;
                                frame.rec.fault(t, "net_node_stall", c.node, 0);
                            }
                        }
                    }
                }
                Ev::Supervise => {
                    for idx in 0..n_nodes {
                        if nodes[idx].alive
                            && !condemned[idx]
                            && t - last_seen[idx] > HEARTBEAT_TIMEOUT
                        {
                            // Wedged task: remove it and degrade the run
                            // rather than hang waiting for it.
                            nodes[idx].alive = false;
                            nodes[idx].stalled = false;
                            condemned[idx] = true;
                            degraded = true;
                            stats.stalls += 1;
                            frame.rec.fault(t, "net_node_stalled", idx as u32, 0);
                        }
                    }
                    q.push(t + HEARTBEAT_EVERY, Ev::Supervise);
                }
                Ev::DeadlineSweep => {
                    let Some(d) = net.deadline else {
                        continue; // only a deadline schedules sweeps
                    };
                    for node in nodes.iter_mut().take(n_nodes) {
                        if node.alive && !node.stalled {
                            let expired = node.expire_deadline(t, d);
                            settle_expired!(t, expired);
                        }
                    }
                    // Limbo requests at dead/stalled nodes expire too:
                    // the user's patience does not care about servers.
                    // Entries are in arrival order, so the overdue ones
                    // not yet swept are a run from `swept`; this sweep
                    // settles each that is neither fulfilled nor settled.
                    let end = swept + registry[swept..].partition_point(|r| t - r.created > d);
                    settle_expired!(t, swept as u64..end as u64);
                    swept = end;
                    q.push(t + d * 0.5, Ev::DeadlineSweep);
                }
            }
        }
    }

    // --- quiesce: settle, audit, report ---
    frame.metrics.unfulfilled = registry.iter().filter(|r| !r.fulfilled).count() as u64;
    for r in registry.iter().filter(|r| !r.fulfilled && !r.settled) {
        frame.settle(duration, r.node, r.item, duration - r.created);
    }

    let pooled: u64 = nodes.iter().flat_map(|n| n.pool.values()).sum();
    let mut escrowed: u64 = 0;
    for n in &nodes {
        for (id, x) in &n.escrow {
            let consumed = nodes[x.peer as usize].applied.get(id).copied().unwrap_or(0);
            escrowed += x.count - consumed.min(x.count);
        }
    }
    let conservation = Conservation {
        minted: ledger.minted,
        executed: ledger.executed,
        discarded: ledger.discarded,
        pooled,
        escrowed,
    };
    if !conservation.holds() {
        return Err(NetError::ConservationViolation {
            minted: conservation.minted,
            executed: conservation.executed,
            discarded: conservation.discarded,
            pooled: conservation.pooled,
            escrowed: conservation.escrowed,
        });
    }

    Ok(NetTrialOutcome {
        outcome: frame.finish(&state, None),
        stats,
        conservation,
        degraded,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use impatience_core::demand::Popularity;
    use impatience_core::utility::Step;
    use proptest::prelude::*;
    use std::sync::Arc;

    fn small_config(items: usize, rho: usize) -> SimConfig {
        SimConfig::builder(items, rho)
            .demand(Popularity::pareto(items, 1.0).demand_rates(0.5))
            .utility(Arc::new(Step::new(10.0)))
            .bin(100.0)
            .build()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The queue peeks and pops random pushes in the order one heap
        /// of the same entries does. A clock advances by 0–2 per op, and
        /// an entry lands at it (in order, or equal to the tail) or, one
        /// time in four, 3 before it (out of order): `Deliver` and
        /// `LinkDown` ride their lanes in the first case and fall back to
        /// the heap in the second, so a pop that took a lane head over an
        /// earlier heap top would show here.
        #[test]
        fn two_heap_queue_pops_in_one_heaps_order(
            ops in proptest::collection::vec((0u32..3, 0u32..4, 0u32..7), 0..300)
        ) {
            let timer = |timer| Ev::Timer { node: 0, incarnation: 0, timer };
            let mut q = Queue::default();
            let mut one: BinaryHeap<QEntry> = BinaryHeap::new();
            let mut clock = 0u32;
            for (step, late, op) in ops {
                clock += step;
                let ev = match op {
                    0 => Ev::Deliver { to: 0, from: 1, bytes: Vec::new() },
                    1 => Ev::LinkDown { a: 0, b: 1, window: 0 },
                    2 => timer(Timer::XferRetry { xfer: 0 }),
                    3 => timer(Timer::Heartbeat),
                    4 => Ev::Supervise,
                    _ => {
                        prop_assert_eq!(q.pop().map(|e| e.seq), one.pop().map(|e| e.seq));
                        prop_assert_eq!(q.peek().map(|e| e.seq), one.peek().map(|e| e.seq));
                        continue;
                    }
                };
                let t = f64::from(clock) - if late == 3 { 3.0 } else { 0.0 };
                one.push(QEntry { t, seq: q.seq, ev: ev.clone() });
                q.push(t, ev);
                prop_assert_eq!(q.peek().map(|e| e.seq), one.peek().map(|e| e.seq));
            }
            while !one.is_empty() {
                prop_assert_eq!(q.pop().map(|e| e.seq), one.pop().map(|e| e.seq));
            }
            prop_assert!(q.pop().is_none());
        }
    }

    #[test]
    fn clean_trial_fulfills_and_conserves() {
        let config = small_config(10, 2);
        let source = ContactSource::homogeneous(10, 0.1, 2_000.0);
        let out = run_net_trial(&config, &source, &NetConfig::default(), 1).unwrap();
        assert!(out.outcome.metrics.requests_created > 500);
        assert!(
            out.outcome.metrics.fulfillments() > out.outcome.metrics.requests_created / 2,
            "most requests should be fulfilled ({} of {})",
            out.outcome.metrics.fulfillments(),
            out.outcome.metrics.requests_created
        );
        assert!(out.stats.msgs_sent > 0);
        assert!(out.stats.handoffs_started > 0, "mandates should move");
        assert!(out.conservation.minted > 0, "fulfillments should mint");
        assert!(out.conservation.executed > 0, "mandates should execute");
        assert!(!out.degraded);
        assert_eq!(out.stats.msgs_lost, 0, "clean transport loses nothing");
        // The global cache budget and sticky replicas survive.
        let total: u32 = out.outcome.final_replicas.iter().sum();
        assert_eq!(total, 20, "global cache must stay full");
        for (i, &r) in out.outcome.final_replicas.iter().enumerate() {
            assert!(r >= 1, "item {i} lost despite sticky replica");
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let config = small_config(8, 2);
        let source = ContactSource::homogeneous(8, 0.08, 1_500.0);
        let net = NetConfig::default();
        let a = run_net_trial(&config, &source, &net, 7).unwrap();
        let b = run_net_trial(&config, &source, &net, 7).unwrap();
        assert_eq!(a.outcome.final_replicas, b.outcome.final_replicas);
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.conservation, b.conservation);
        assert_eq!(
            a.outcome.metrics.observed_rate_series(),
            b.outcome.metrics.observed_rate_series()
        );
        let c = run_net_trial(&config, &source, &net, 8).unwrap();
        assert_ne!(
            a.outcome.metrics.observed_rate_series(),
            c.outcome.metrics.observed_rate_series()
        );
    }

    #[test]
    fn lossy_transport_terminates_and_conserves() {
        use impatience_sim::faults::{FaultConfig, MsgFaults};
        let mut config = small_config(10, 2);
        config.faults = Some(FaultConfig {
            seed: 41,
            msg: Some(MsgFaults {
                loss_p: 0.10,
                dup_p: 0.02,
                reorder_window: 3,
            }),
            ..FaultConfig::default()
        });
        let source = ContactSource::homogeneous(10, 0.1, 2_000.0);
        let out = run_net_trial(&config, &source, &NetConfig::default(), 3).unwrap();
        assert!(out.stats.msgs_lost > 0, "loss must actually fire");
        assert!(out.stats.msgs_duplicated > 0);
        assert!(out.stats.retries > 0, "loss should force retries");
        assert!(out.conservation.holds());
        assert!(
            out.outcome.metrics.fulfillments() > out.outcome.metrics.requests_created / 3,
            "lossy transport still mostly works ({} of {})",
            out.outcome.metrics.fulfillments(),
            out.outcome.metrics.requests_created
        );
    }

    #[test]
    fn inactive_msg_faults_match_no_faults_exactly() {
        use impatience_sim::faults::{FaultConfig, MsgFaults};
        let source = ContactSource::homogeneous(8, 0.08, 1_000.0);
        let clean = small_config(8, 2);
        let mut zeroed = small_config(8, 2);
        zeroed.faults = Some(FaultConfig {
            seed: 99,
            msg: Some(MsgFaults::default()),
            ..FaultConfig::default()
        });
        let net = NetConfig::default();
        let a = run_net_trial(&clean, &source, &net, 5).unwrap();
        let b = run_net_trial(&zeroed, &source, &net, 5).unwrap();
        assert_eq!(a.outcome.final_replicas, b.outcome.final_replicas);
        assert_eq!(a.stats, b.stats);
        assert_eq!(
            a.outcome.metrics.observed_rate_series(),
            b.outcome.metrics.observed_rate_series()
        );
    }

    #[test]
    fn chaos_kill_preserves_conservation() {
        let config = small_config(10, 2);
        let source = ContactSource::homogeneous(10, 0.1, 2_000.0);
        let net = NetConfig {
            chaos: vec![
                crate::config::ChaosEvent {
                    t: 500.0,
                    node: 3,
                    kind: ChaosKind::Kill { down_for: 200.0 },
                },
                crate::config::ChaosEvent {
                    t: 900.0,
                    node: 7,
                    kind: ChaosKind::Kill { down_for: 50.0 },
                },
            ],
            ..NetConfig::default()
        };
        let out = run_net_trial(&config, &source, &net, 11).unwrap();
        assert_eq!(out.stats.crashes, 2);
        assert_eq!(out.stats.restarts, 2);
        assert!(out.conservation.holds());
        assert!(!out.degraded, "kills with restarts do not degrade");
    }

    #[test]
    fn stalled_node_is_condemned_not_hung() {
        let config = small_config(10, 2);
        let source = ContactSource::homogeneous(10, 0.1, 3_000.0);
        let net = NetConfig {
            chaos: vec![crate::config::ChaosEvent {
                t: 300.0,
                node: 2,
                kind: ChaosKind::Stall,
            }],
            ..NetConfig::default()
        };
        let out = run_net_trial(&config, &source, &net, 13).unwrap();
        assert_eq!(out.stats.stalls, 1, "supervisor must condemn the node");
        assert!(out.degraded, "a condemned node degrades the run");
        assert!(out.conservation.holds());
    }

    #[test]
    fn chaos_against_an_absent_node_is_refused() {
        let config = small_config(10, 2);
        let source = ContactSource::homogeneous(6, 0.1, 200.0);
        for node in [6, 99] {
            let net = NetConfig {
                chaos: vec![crate::config::ChaosEvent {
                    t: 5.0,
                    node,
                    kind: ChaosKind::Stall,
                }],
                ..NetConfig::default()
            };
            let Err(NetError::Config(message)) = run_net_trial(&config, &source, &net, 1) else {
                panic!("chaos against node {node} of 6 must be a config error");
            };
            assert!(message.contains(&format!("node {node}")), "{message}");
            assert!(message.contains("6 nodes"), "{message}");
        }
    }

    #[test]
    fn deadline_budget_expires_requests() {
        // One item, tiny population, very slow contacts: many requests
        // cannot be served before a tight deadline.
        let config = small_config(6, 1);
        let source = ContactSource::homogeneous(6, 0.005, 2_000.0);
        let net = NetConfig {
            deadline: Some(50.0),
            ..NetConfig::default()
        };
        let out = run_net_trial(&config, &source, &net, 17).unwrap();
        assert!(out.stats.requests_expired > 0);
        assert!(out.conservation.holds());
    }
}
