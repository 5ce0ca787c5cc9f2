//! # bess-net — simulated network for the BeSS client-server architecture
//!
//! The paper's BeSS runs on a LAN of workstations (Figure 2). This crate
//! reproduces that substrate in-process: nodes register endpoints on a
//! [`Network`], exchange one-way messages and blocking RPC calls over
//! crossbeam channels, and every message is counted (and optionally
//! delayed) so experiments can report message counts and simulated wire
//! time — the dominant cost the callback-locking and copy-on-access
//! analyses care about.
//!
//! The message type is generic; `bess-server` instantiates it with the
//! BeSS protocol.
//!
//! ```
//! use bess_net::{Network, NodeId};
//! use std::time::Duration;
//!
//! let net = Network::<String>::new(Duration::ZERO);
//! let a = net.register(NodeId(1));
//! let b = net.register(NodeId(2));
//! std::thread::spawn(move || {
//!     let env = b.recv(Duration::from_secs(1)).unwrap();
//!     env.reply("pong".to_string());
//! });
//! let reply = a.call(NodeId(2), "ping".to_string(), Duration::from_secs(1)).unwrap();
//! assert_eq!(reply, "pong");
//! ```
//!
//! ## Deterministic network faults
//!
//! Mirroring the storage layer's `FaultPlan`, a [`NetFaultPlan`] counts
//! outbound messages (optionally only those from one node) and arms exactly
//! one [`NetFaultKind`] at the Nth message: drop it, delay it, deliver it
//! twice, sever the reply channel, or partition the sender. Because the
//! trigger is a message counter — no randomness, no timing dependence — a
//! partition matrix can enumerate every message index of a workload and
//! replay the exact same failure each run. Nodes can also be partitioned
//! and healed explicitly via [`Network::partition`] / [`Network::heal`].

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bess_lock::order::{OrderedMutex, Rank};
use bess_obs::{Counter, Group, LatencyHistogram, Registry};
use crossbeam::channel::{bounded, unbounded, Receiver, Sender};
use parking_lot::Mutex;

/// Identifies a node (machine) in the network.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "node{}", self.0)
    }
}

/// Errors from network operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NetError {
    /// The destination node has no registered endpoint (or a partition
    /// separates the two nodes).
    Unreachable(NodeId),
    /// No reply (or no message) arrived within the timeout.
    Timeout,
    /// The peer dropped the connection mid-call.
    Disconnected,
}

impl NetError {
    /// Whether the error is transient from the caller's point of view: the
    /// request *may or may not* have executed, so an idempotent (or
    /// request-id-deduplicated) retry is safe and worthwhile. Unreachable
    /// destinations are not transient — the request definitely did not run,
    /// but nothing suggests a retry will fare better within one backoff
    /// window either; callers surface it instead.
    pub fn is_transient(&self) -> bool {
        matches!(self, NetError::Timeout | NetError::Disconnected)
    }
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Unreachable(n) => write!(f, "{n} is unreachable"),
            NetError::Timeout => write!(f, "network timeout"),
            NetError::Disconnected => write!(f, "peer disconnected"),
        }
    }
}

impl std::error::Error for NetError {}

/// A delivered message, carrying an optional reply channel.
pub struct Envelope<M> {
    /// The sending node.
    pub from: NodeId,
    /// The payload.
    pub msg: M,
    reply: Option<Sender<M>>,
}

impl<M> Envelope<M> {
    /// Whether the sender expects a reply.
    pub fn wants_reply(&self) -> bool {
        self.reply.is_some()
    }

    /// Replies to an RPC (no-op for one-way messages whose sender went
    /// away).
    pub fn reply(self, msg: M) {
        Replier(self.reply).reply(msg);
    }

    /// Takes the envelope apart, so that a handler can own the payload
    /// (no copy) and answer afterwards.
    pub fn into_parts(self) -> (NodeId, M, Replier<M>) {
        (self.from, self.msg, Replier(self.reply))
    }
}

/// The way back to an RPC's caller, detached from the request (see
/// [`Envelope::into_parts`]).
pub struct Replier<M>(Option<Sender<M>>);

impl<M> Replier<M> {
    /// Replies to the RPC (no-op for a one-way message, or when the sender
    /// went away).
    pub fn reply(self, msg: M) {
        if let Some(tx) = self.0 {
            let _ = tx.send(msg);
        }
    }
}

/// What happens to the armed message (see [`NetFaultPlan`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NetFaultKind {
    /// The request vanishes on the wire. A one-way send reports success (the
    /// sender cannot know); an RPC fails with [`NetError::Timeout`].
    Drop,
    /// The request is delayed by the given duration before delivery.
    Delay(Duration),
    /// The request is delivered **twice** — a retransmission the receiver
    /// must deduplicate.
    Duplicate,
    /// The request is delivered and executed, but the reply is lost: the
    /// callee sees a normal RPC, the caller waits out its timeout. This is
    /// the classic "did my commit land?" ambiguity.
    DropReply,
    /// The sending node is partitioned from the network (as if its cable
    /// were pulled): this message fails with [`NetError::Disconnected`] and
    /// all further traffic to or from the node fails with
    /// [`NetError::Unreachable`] until [`Network::heal`].
    Disconnect,
}

struct ArmedNetFault {
    /// Only messages from this node count (and can fault); `None` counts
    /// every message.
    from: Option<NodeId>,
    /// 0-based index among counted messages.
    at: u64,
    kind: NetFaultKind,
}

/// A deterministic network-fault plan, the wire-level twin of the storage
/// layer's `FaultPlan`: it counts outbound messages (sends and RPC
/// requests) and fires exactly one fault at the Nth counted message, then
/// disarms so retries make progress. Arm a plan on a [`Network`] with
/// [`Network::arm`].
///
/// When built with a `from` filter, only that node's messages are counted,
/// which keeps the index deterministic even while other nodes chatter
/// concurrently.
pub struct NetFaultPlan {
    // LINT: allow(raw-counter) — fault-plan op counter consulted by the armed trigger, not a metric
    count: AtomicU64,
    armed: OrderedMutex<Option<ArmedNetFault>>,
    // LINT: allow(raw-counter) — single-shot fault-plan trip latch, not a metric
    fired: AtomicU64,
}

impl Default for NetFaultPlan {
    fn default() -> Self {
        NetFaultPlan {
            count: AtomicU64::new(0),
            armed: OrderedMutex::new(Rank::NetFaultArmed, "net.fault.armed", None),
            fired: AtomicU64::new(0),
        }
    }
}

impl NetFaultPlan {
    /// A plan with no armed fault (pure message counting).
    pub fn unarmed() -> Arc<Self> {
        Arc::new(NetFaultPlan::default())
    }

    /// A plan that fires `kind` at the `nth` (0-based) message from any
    /// node.
    pub fn armed(nth: u64, kind: NetFaultKind) -> Arc<Self> {
        let plan = NetFaultPlan::default();
        *plan.armed.lock() = Some(ArmedNetFault {
            from: None,
            at: nth,
            kind,
        });
        Arc::new(plan)
    }

    /// A plan that counts only messages sent by `from` and fires `kind` at
    /// the `nth` (0-based) one.
    pub fn armed_from(from: NodeId, nth: u64, kind: NetFaultKind) -> Arc<Self> {
        let plan = NetFaultPlan::default();
        *plan.armed.lock() = Some(ArmedNetFault {
            from: Some(from),
            at: nth,
            kind,
        });
        Arc::new(plan)
    }

    /// Counted messages so far. For a filtered plan this counts only the
    /// filtered node's messages.
    pub fn msgs(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// How many faults have fired (0 or 1; a plan disarms after firing).
    pub fn fired(&self) -> u64 {
        self.fired.load(Ordering::Relaxed)
    }

    /// Counts one outbound message from `from` and returns the fault to
    /// inject, if this is the armed message.
    fn on_msg(&self, from: NodeId) -> Option<NetFaultKind> {
        // Resolve the filter first so an unrelated node's traffic does not
        // advance a filtered plan's counter.
        {
            let armed = self.armed.lock();
            if let Some(f) = armed.as_ref() {
                if f.from.is_some_and(|n| n != from) {
                    return None;
                }
            }
        }
        let n = self.count.fetch_add(1, Ordering::Relaxed);
        let mut armed = self.armed.lock();
        match armed.as_ref() {
            Some(f) if f.at == n => {
                let kind = f.kind;
                *armed = None;
                self.fired.fetch_add(1, Ordering::Relaxed);
                Some(kind)
            }
            _ => None,
        }
    }
}

/// Counters kept by a [`Network`] — [`bess_obs`] handles registered under
/// the `net.` prefix of [`Network::metrics`].
#[derive(Debug)]
pub struct NetStats {
    /// One-way messages sent (`net.sends`).
    pub sends: Counter,
    /// RPC calls completed, request + reply pairs (`net.calls`).
    pub calls: Counter,
    /// Messages dropped for unreachable (or partitioned) nodes
    /// (`net.unreachable`).
    pub unreachable: Counter,
    /// Requests or replies swallowed by an injected fault (`net.faulted`).
    pub faulted: Counter,
    /// Extra copies delivered by injected duplication (`net.duplicated`).
    pub duplicated: Counter,
    /// Control messages that rode an existing frame as piggybacked
    /// trailers instead of travelling standalone (`net.trailers.carried`).
    /// Incremented by the protocol layer at each wrap site.
    pub trailers: Counter,
    /// Standalone heartbeats suppressed because recent traffic already
    /// renewed the lease (`net.heartbeats.suppressed`). Incremented by the
    /// protocol layer's idle tick.
    pub heartbeats_suppressed: Counter,
}

impl NetStats {
    fn new(group: &Group) -> NetStats {
        NetStats {
            sends: group.counter("sends"),
            calls: group.counter("calls"),
            unreachable: group.counter("unreachable"),
            faulted: group.counter("faulted"),
            duplicated: group.counter("duplicated"),
            trailers: group.counter("trailers.carried"),
            heartbeats_suppressed: group.counter("heartbeats.suppressed"),
        }
    }

    /// Messages on the wire right now: a send is one, a call is two
    /// (request + reply).
    pub fn messages(&self) -> u64 {
        self.sends.get() + 2 * self.calls.get()
    }
}

/// The simulated network.
pub struct Network<M> {
    endpoints: Mutex<HashMap<u32, Sender<Envelope<M>>>>,
    partitioned: OrderedMutex<HashSet<u32>>,
    plan: OrderedMutex<Arc<NetFaultPlan>>,
    latency: Duration,
    group: Group,
    stats: NetStats,
    /// Round-trip latency of successful RPCs (`net.rtt.ns`).
    rtt_ns: LatencyHistogram,
}

impl<M: Clone + Send + 'static> Network<M> {
    /// Creates a network whose RPCs incur `latency` per direction.
    pub fn new(latency: Duration) -> Arc<Self> {
        let group = Registry::new().group("net");
        let stats = NetStats::new(&group);
        let rtt_ns = group.histogram("rtt.ns");
        Arc::new(Network {
            endpoints: Mutex::new(HashMap::new()),
            partitioned: OrderedMutex::new(Rank::NetPartition, "net.partitioned", HashSet::new()),
            plan: OrderedMutex::new(Rank::NetPlanSlot, "net.plan", NetFaultPlan::unarmed()),
            latency,
            group,
            stats,
            rtt_ns,
        })
    }

    /// The network's metric group (`net.*` in its registry).
    pub fn metrics(&self) -> &Group {
        &self.group
    }

    /// Message counters.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// The configured one-way latency.
    pub fn latency(&self) -> Duration {
        self.latency
    }

    /// Registers a node, returning its endpoint. Re-registering a node
    /// replaces the previous endpoint (a "rebooted machine").
    pub fn register(self: &Arc<Self>, node: NodeId) -> Endpoint<M> {
        let (tx, rx) = unbounded();
        self.endpoints.lock().insert(node.0, tx);
        Endpoint {
            node,
            net: Arc::clone(self),
            rx,
        }
    }

    /// Removes a node (a crashed machine: its queued messages vanish).
    pub fn unregister(&self, node: NodeId) {
        self.endpoints.lock().remove(&node.0);
    }

    /// Installs a fault plan; the previous plan is discarded. Pass
    /// [`NetFaultPlan::unarmed`] to clear faults (partitions persist until
    /// [`Self::heal`]).
    pub fn arm(&self, plan: Arc<NetFaultPlan>) {
        *self.plan.lock() = plan;
    }

    /// The plan currently consulted on every send.
    pub fn plan(&self) -> Arc<NetFaultPlan> {
        Arc::clone(&self.plan.lock())
    }

    /// Partitions `node`: all traffic to or from it fails with
    /// [`NetError::Unreachable`] until [`Self::heal`]. Messages already in
    /// its receive queue are unaffected (they were on the wire).
    pub fn partition(&self, node: NodeId) {
        self.partitioned.lock().insert(node.0);
    }

    /// Reconnects a previously partitioned node.
    pub fn heal(&self, node: NodeId) {
        self.partitioned.lock().remove(&node.0);
    }

    /// Whether `node` is currently partitioned.
    pub fn is_partitioned(&self, node: NodeId) -> bool {
        self.partitioned.lock().contains(&node.0)
    }

    fn sender_to(&self, to: NodeId) -> Result<Sender<Envelope<M>>, NetError> {
        self.endpoints
            .lock()
            .get(&to.0)
            .cloned()
            .ok_or(NetError::Unreachable(to))
    }

    /// Fails if a partition separates `from` and `to`.
    fn check_partition(&self, from: NodeId, to: NodeId) -> Result<(), NetError> {
        let partitioned = self.partitioned.lock();
        if partitioned.contains(&from.0) || partitioned.contains(&to.0) {
            drop(partitioned);
            self.stats.unreachable.inc();
            return Err(NetError::Unreachable(to));
        }
        Ok(())
    }

    /// The single outbound path for one-way messages. All faults hook here.
    fn do_send(&self, from: NodeId, to: NodeId, msg: M) -> Result<(), NetError> {
        self.check_partition(from, to)?;
        let fault = self.plan().on_msg(from);
        match fault {
            Some(NetFaultKind::Drop) => {
                // The datagram vanishes; a one-way sender cannot tell.
                self.stats.faulted.inc();
                return Ok(());
            }
            Some(NetFaultKind::Disconnect) => {
                self.partition(from);
                self.stats.faulted.inc();
                return Err(NetError::Disconnected);
            }
            Some(NetFaultKind::Delay(d)) => std::thread::sleep(d),
            // DropReply is meaningless for a one-way message.
            Some(NetFaultKind::Duplicate) | Some(NetFaultKind::DropReply) | None => {}
        }
        let tx = self.sender_to(to).inspect_err(|_| {
            self.stats.unreachable.inc();
        })?;
        if fault == Some(NetFaultKind::Duplicate) {
            tx.send(Envelope {
                from,
                msg: msg.clone(),
                reply: None,
            })
            .map_err(|_| NetError::Disconnected)?;
            self.stats.duplicated.inc();
        }
        tx.send(Envelope {
            from,
            msg,
            reply: None,
        })
        .map_err(|_| NetError::Disconnected)?;
        self.stats.sends.inc();
        Ok(())
    }

    /// The single outbound path for RPCs. All faults hook here.
    fn do_call(&self, from: NodeId, to: NodeId, msg: M, timeout: Duration) -> Result<M, NetError> {
        // Recorded into net.rtt.ns only on the success exit below, so
        // injected timeouts and partitions don't pollute the latency tail.
        let started = std::time::Instant::now();
        self.check_partition(from, to)?;
        let fault = self.plan().on_msg(from);
        match fault {
            Some(NetFaultKind::Drop) => {
                // The request never arrives; the caller's wait is the
                // timeout itself, reported without actually sleeping it.
                self.stats.faulted.inc();
                return Err(NetError::Timeout);
            }
            Some(NetFaultKind::Disconnect) => {
                self.partition(from);
                self.stats.faulted.inc();
                return Err(NetError::Disconnected);
            }
            Some(NetFaultKind::Delay(d)) => std::thread::sleep(d),
            Some(NetFaultKind::Duplicate) | Some(NetFaultKind::DropReply) | None => {}
        }
        let tx = self.sender_to(to).inspect_err(|_| {
            self.stats.unreachable.inc();
        })?;
        let (reply_tx, reply_rx) = bounded(1);
        if !self.latency.is_zero() {
            std::thread::sleep(self.latency);
        }
        match fault {
            Some(NetFaultKind::DropReply) => {
                // The callee executes and replies into a severed channel;
                // the caller times out below, none the wiser.
                let (dead_tx, _dead_rx) = bounded(1);
                tx.send(Envelope {
                    from,
                    msg,
                    reply: Some(dead_tx),
                })
                .map_err(|_| NetError::Disconnected)?;
                self.stats.faulted.inc();
            }
            Some(NetFaultKind::Duplicate) => {
                tx.send(Envelope {
                    from,
                    msg: msg.clone(),
                    reply: Some(reply_tx.clone()),
                })
                .map_err(|_| NetError::Disconnected)?;
                tx.send(Envelope {
                    from,
                    msg,
                    reply: Some(reply_tx),
                })
                .map_err(|_| NetError::Disconnected)?;
                self.stats.duplicated.inc();
            }
            _ => {
                tx.send(Envelope {
                    from,
                    msg,
                    reply: Some(reply_tx),
                })
                .map_err(|_| NetError::Disconnected)?;
            }
        }
        let reply = reply_rx.recv_timeout(timeout).map_err(|e| match e {
            crossbeam::channel::RecvTimeoutError::Timeout => NetError::Timeout,
            crossbeam::channel::RecvTimeoutError::Disconnected => NetError::Disconnected,
        })?;
        if !self.latency.is_zero() {
            std::thread::sleep(self.latency);
        }
        self.stats.calls.inc();
        self.rtt_ns.record(started.elapsed().as_nanos() as u64);
        Ok(reply)
    }

    /// Creates an outbound-only handle that sends and calls as `node`
    /// without owning the node's receive queue. Server worker threads use
    /// this to issue callbacks while the main loop owns the endpoint.
    pub fn caller(self: &Arc<Self>, node: NodeId) -> Caller<M> {
        Caller {
            node,
            net: Arc::clone(self),
        }
    }
}

/// An outbound-only attachment: can send and call, cannot receive.
#[derive(Clone)]
pub struct Caller<M> {
    node: NodeId,
    net: Arc<Network<M>>,
}

impl<M: Clone + Send + 'static> Caller<M> {
    /// The identity messages are sent as.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The owning network's message counters (for protocol layers that
    /// account piggybacked trailers and suppressed heartbeats).
    pub fn stats(&self) -> &NetStats {
        self.net.stats()
    }

    /// Sends a one-way message. See [`Endpoint::send`].
    pub fn send(&self, to: NodeId, msg: M) -> Result<(), NetError> {
        self.net.do_send(self.node, to, msg)
    }

    /// Performs a blocking RPC. See [`Endpoint::call`].
    pub fn call(&self, to: NodeId, msg: M, timeout: Duration) -> Result<M, NetError> {
        self.net.do_call(self.node, to, msg, timeout)
    }
}

/// One node's attachment to the network.
pub struct Endpoint<M> {
    node: NodeId,
    net: Arc<Network<M>>,
    rx: Receiver<Envelope<M>>,
}

impl<M: Clone + Send + 'static> Endpoint<M> {
    /// This endpoint's node id.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The owning network.
    pub fn network(&self) -> &Arc<Network<M>> {
        &self.net
    }

    /// Sends a one-way message.
    pub fn send(&self, to: NodeId, msg: M) -> Result<(), NetError> {
        self.net.do_send(self.node, to, msg)
    }

    /// Performs a blocking RPC: sends `msg` to `to` and waits up to
    /// `timeout` for the reply. Each direction incurs the network latency.
    pub fn call(&self, to: NodeId, msg: M, timeout: Duration) -> Result<M, NetError> {
        self.net.do_call(self.node, to, msg, timeout)
    }

    /// Waits up to `timeout` for an incoming message.
    pub fn recv(&self, timeout: Duration) -> Result<Envelope<M>, NetError> {
        self.rx.recv_timeout(timeout).map_err(|e| match e {
            crossbeam::channel::RecvTimeoutError::Timeout => NetError::Timeout,
            crossbeam::channel::RecvTimeoutError::Disconnected => NetError::Disconnected,
        })
    }

    /// Returns a pending message if one is queued.
    pub fn try_recv(&self) -> Option<Envelope<M>> {
        self.rx.try_recv().ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn one_way_send() {
        let net = Network::<u32>::new(Duration::ZERO);
        let a = net.register(NodeId(1));
        let b = net.register(NodeId(2));
        a.send(NodeId(2), 42).unwrap();
        let env = b.recv(Duration::from_secs(1)).unwrap();
        assert_eq!(env.msg, 42);
        assert_eq!(env.from, NodeId(1));
        assert!(!env.wants_reply());
        assert_eq!(net.stats().sends.get(), 1);
    }

    #[test]
    fn rpc_round_trip() {
        let net = Network::<String>::new(Duration::ZERO);
        let a = net.register(NodeId(1));
        let b = net.register(NodeId(2));
        let server = thread::spawn(move || {
            let env = b.recv(Duration::from_secs(5)).unwrap();
            assert!(env.wants_reply());
            let msg = env.msg.clone();
            env.reply(format!("echo:{msg}"));
        });
        let reply = a
            .call(NodeId(2), "hi".into(), Duration::from_secs(5))
            .unwrap();
        assert_eq!(reply, "echo:hi");
        server.join().unwrap();
        assert_eq!(net.stats().calls.get(), 1);
        assert_eq!(net.stats().messages(), 2);
    }

    #[test]
    fn an_envelope_taken_apart_still_answers() {
        let net = Network::<String>::new(Duration::ZERO);
        let a = net.register(NodeId(1));
        let b = net.register(NodeId(2));
        let server = thread::spawn(move || {
            for _ in 0..2 {
                let (from, msg, replier) = b.recv(Duration::from_secs(5)).unwrap().into_parts();
                assert_eq!(from, NodeId(1));
                // One-way the first time: answering is a no-op.
                replier.reply(msg + "!");
            }
        });
        a.send(NodeId(2), "one-way".into()).unwrap();
        let reply = a.call(NodeId(2), "hi".into(), Duration::from_secs(5));
        assert_eq!(reply.unwrap(), "hi!");
        server.join().unwrap();
    }

    #[test]
    fn unreachable_node() {
        let net = Network::<u32>::new(Duration::ZERO);
        let a = net.register(NodeId(1));
        assert_eq!(a.send(NodeId(9), 1), Err(NetError::Unreachable(NodeId(9))));
        assert_eq!(net.stats().unreachable.get(), 1);
    }

    #[test]
    fn call_times_out_when_peer_ignores() {
        let net = Network::<u32>::new(Duration::ZERO);
        let a = net.register(NodeId(1));
        let _b = net.register(NodeId(2)); // never replies
        assert_eq!(
            a.call(NodeId(2), 1, Duration::from_millis(50)),
            Err(NetError::Timeout)
        );
    }

    #[test]
    fn unregister_models_crash() {
        let net = Network::<u32>::new(Duration::ZERO);
        let a = net.register(NodeId(1));
        let _b = net.register(NodeId(2));
        net.unregister(NodeId(2));
        assert!(matches!(a.send(NodeId(2), 1), Err(NetError::Unreachable(_))));
    }

    #[test]
    fn latency_is_applied_to_calls() {
        let net = Network::<u32>::new(Duration::from_millis(20));
        let a = net.register(NodeId(1));
        let b = net.register(NodeId(2));
        thread::spawn(move || {
            let env = b.recv(Duration::from_secs(5)).unwrap();
            env.reply(0);
        });
        let t0 = std::time::Instant::now();
        a.call(NodeId(2), 1, Duration::from_secs(5)).unwrap();
        assert!(t0.elapsed() >= Duration::from_millis(40), "two hops");
    }

    #[test]
    fn concurrent_servers_and_clients() {
        let net = Network::<u64>::new(Duration::ZERO);
        let server_ep = net.register(NodeId(0));
        let server = thread::spawn(move || {
            let mut served = 0;
            while let Ok(env) = server_ep.recv(Duration::from_millis(300)) {
                let v = env.msg;
                env.reply(v * 2);
                served += 1;
            }
            served
        });
        let mut clients = Vec::new();
        for c in 1..=4u32 {
            let ep = net.register(NodeId(c));
            clients.push(thread::spawn(move || {
                for i in 0..25u64 {
                    let r = ep.call(NodeId(0), i, Duration::from_secs(5)).unwrap();
                    assert_eq!(r, i * 2);
                }
            }));
        }
        for c in clients {
            c.join().unwrap();
        }
        assert_eq!(server.join().unwrap(), 100);
    }

    // ---- fault injection ---------------------------------------------------

    #[test]
    fn drop_faults_exactly_the_nth_call() {
        let net = Network::<u32>::new(Duration::ZERO);
        let a = net.register(NodeId(1));
        let b = net.register(NodeId(2));
        let server = thread::spawn(move || {
            let mut served = 0;
            while let Ok(env) = b.recv(Duration::from_millis(300)) {
                let v = env.msg;
                env.reply(v);
                served += 1;
            }
            served
        });
        let plan = NetFaultPlan::armed(1, NetFaultKind::Drop);
        net.arm(Arc::clone(&plan));
        assert_eq!(a.call(NodeId(2), 0, Duration::from_secs(1)), Ok(0));
        assert_eq!(
            a.call(NodeId(2), 1, Duration::from_millis(50)),
            Err(NetError::Timeout),
            "second message dropped"
        );
        assert_eq!(a.call(NodeId(2), 2, Duration::from_secs(1)), Ok(2));
        assert_eq!(plan.fired(), 1);
        assert_eq!(server.join().unwrap(), 2, "dropped request never arrived");
        assert_eq!(net.stats().faulted.get(), 1);
    }

    #[test]
    fn duplicate_delivers_twice() {
        let net = Network::<u32>::new(Duration::ZERO);
        let a = net.register(NodeId(1));
        let b = net.register(NodeId(2));
        let server = thread::spawn(move || {
            let mut served = 0;
            while let Ok(env) = b.recv(Duration::from_millis(300)) {
                let v = env.msg;
                env.reply(v);
                served += 1;
            }
            served
        });
        net.arm(NetFaultPlan::armed(0, NetFaultKind::Duplicate));
        assert_eq!(a.call(NodeId(2), 7, Duration::from_secs(1)), Ok(7));
        assert_eq!(server.join().unwrap(), 2, "one request, two deliveries");
        assert_eq!(net.stats().duplicated.get(), 1);
    }

    #[test]
    fn drop_reply_executes_but_times_out() {
        let net = Network::<u32>::new(Duration::ZERO);
        let a = net.register(NodeId(1));
        let b = net.register(NodeId(2));
        let server = thread::spawn(move || {
            let mut served = 0;
            while let Ok(env) = b.recv(Duration::from_millis(300)) {
                let v = env.msg;
                assert!(env.wants_reply(), "callee sees an ordinary RPC");
                env.reply(v);
                served += 1;
            }
            served
        });
        net.arm(NetFaultPlan::armed(0, NetFaultKind::DropReply));
        assert_eq!(
            a.call(NodeId(2), 9, Duration::from_millis(50)),
            Err(NetError::Timeout),
            "the reply was lost"
        );
        assert_eq!(server.join().unwrap(), 1, "the request WAS executed");
    }

    #[test]
    fn disconnect_partitions_the_sender_until_heal() {
        let net = Network::<u32>::new(Duration::ZERO);
        let a = net.register(NodeId(1));
        let _b = net.register(NodeId(2));
        net.arm(NetFaultPlan::armed_from(NodeId(1), 0, NetFaultKind::Disconnect));
        assert_eq!(a.send(NodeId(2), 1), Err(NetError::Disconnected));
        assert!(net.is_partitioned(NodeId(1)));
        assert_eq!(
            a.send(NodeId(2), 2),
            Err(NetError::Unreachable(NodeId(2))),
            "still cut off"
        );
        // Inbound traffic is cut too.
        let c = net.register(NodeId(3));
        assert_eq!(c.send(NodeId(1), 3), Err(NetError::Unreachable(NodeId(1))));
        net.heal(NodeId(1));
        a.send(NodeId(2), 4).unwrap();
    }

    #[test]
    fn filtered_plan_ignores_other_nodes() {
        let net = Network::<u32>::new(Duration::ZERO);
        let a = net.register(NodeId(1));
        let c = net.register(NodeId(3));
        let b = net.register(NodeId(2));
        let plan = NetFaultPlan::armed_from(NodeId(1), 1, NetFaultKind::Drop);
        net.arm(Arc::clone(&plan));
        // Node 3 chatters; none of it advances node 1's counter.
        for i in 0..5 {
            c.send(NodeId(2), i).unwrap();
        }
        a.send(NodeId(2), 100).unwrap(); // node 1 msg #0: delivered
        a.send(NodeId(2), 101).unwrap(); // node 1 msg #1: dropped (send reports Ok)
        a.send(NodeId(2), 102).unwrap(); // disarmed again
        let mut got = Vec::new();
        while let Some(env) = b.try_recv() {
            if env.from == NodeId(1) {
                got.push(env.msg);
            }
        }
        assert_eq!(got, vec![100, 102]);
        assert_eq!(plan.fired(), 1);
    }

    #[test]
    fn delay_defers_delivery() {
        let net = Network::<u32>::new(Duration::ZERO);
        let a = net.register(NodeId(1));
        let b = net.register(NodeId(2));
        net.arm(NetFaultPlan::armed(
            0,
            NetFaultKind::Delay(Duration::from_millis(30)),
        ));
        thread::spawn(move || {
            let env = b.recv(Duration::from_secs(5)).unwrap();
            env.reply(0);
        });
        let t0 = std::time::Instant::now();
        a.call(NodeId(2), 1, Duration::from_secs(5)).unwrap();
        assert!(t0.elapsed() >= Duration::from_millis(30));
    }
}
