//! The client connection: transactions, lock caching, callbacks.
//!
//! A [`ClientConn`] is one application machine's attachment to the BeSS
//! world. It speaks the [`Msg`] protocol to whichever server owns the data
//! (per the [`Directory`]), caches locks *and the page images they
//! protect* between transactions when `caching` is on (the §3
//! inter-transaction caching that callback locking makes consistent),
//! answers server callbacks from a listener thread, and keeps a local
//! *overlay* of dirty pages so uncommitted state never reaches a server
//! before commit.
//!
//! ## Page images
//!
//! A page image hangs on the cached lock that keeps it valid (see
//! [`bess_lock::LockCache`]): [`ClientConn::fetch_page`] and
//! [`ClientConn::read_page`] return a copy with no message at all when the
//! page lock is cached in a mode that covers `S`, and whatever drops or
//! revokes the lock drops the image in the same step. The connection's own
//! acknowledged commit patches the images of the pages it wrote; a failed
//! or unanswered commit drops them. Non-caching and gateway connections
//! hold no images, and [`RemoteIo`] goes around them: the session's private
//! pool is that client's data cache, and one stack needs one.
//!
//! It also implements [`PageIo`] (cache fills / write-backs for the
//! client's buffer pools) and [`DiskSpace`] (disk allocation and raw byte
//! I/O over RPC), which lets the entire `bess-segment` object machinery run
//! unchanged on a remote client.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bess_cache::{DbPage, PageIo};
use bess_obs::{Counter, Group, LatencyHistogram, Registry};
use bess_lock::{
    CacheDecision, CallbackResponse, ImageStats, LockCache, LockMode, LockName, TxnId,
};
use bess_net::{Caller, NetError, Network, NodeId};
use bess_storage::{AreaId, DiskPtr, DiskSpace, StorageError, StorageResult};
use parking_lot::{Mutex, RwLock};

use crate::directory::Directory;
use crate::proto::{Msg, PageUpdate, LEASE_LOST};

/// Hook invoked when a callback releases a cached lock.
pub type PurgeHook = Arc<dyn Fn(LockName) + Send + Sync>;

/// Errors from client operations.
#[derive(Debug)]
pub enum ClientError {
    /// The network failed.
    Net(NetError),
    /// A lock was denied (deadlock timeout).
    Denied(String),
    /// The server reported an error.
    Server(String),
    /// No transaction is active.
    NoTxn,
    /// No server owns the addressed area.
    NoOwner(u32),
    /// The distributed commit aborted.
    GlobalAbort,
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Net(e) => write!(f, "network error: {e}"),
            ClientError::Denied(m) => write!(f, "lock denied: {m}"),
            ClientError::Server(m) => write!(f, "server error: {m}"),
            ClientError::NoTxn => write!(f, "no active transaction"),
            ClientError::NoOwner(a) => write!(f, "no server owns area {a}"),
            ClientError::GlobalAbort => write!(f, "distributed commit aborted"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<NetError> for ClientError {
    fn from(e: NetError) -> Self {
        ClientError::Net(e)
    }
}

/// Result alias for client operations.
pub type ClientResult<T> = Result<T, ClientError>;

/// Opt-in message-saving behaviours. All default **off**: each one changes
/// the wire conversation, and fault-injection tests pin exact message
/// sequences for the default client.
#[derive(Clone, Copy, Debug, Default)]
pub struct ClientOpts {
    /// Allocate local transaction ids client-side instead of calling
    /// `BeginTxn` at the home server. Ids carry the node in bits 32..63
    /// and a set top bit, so they can never collide with server-issued
    /// ids. Saves a round trip per transaction.
    pub lazy_begin: bool,
    /// At end of transaction (non-caching clients), piggyback `ReleaseAll`
    /// as a trailer on the next message to each touched server instead of
    /// sending it standalone; the listener's idle tick flushes releases
    /// that found no carrier in time.
    pub defer_release: bool,
    /// Enrol every touched server as a 2PC participant and let read-only
    /// participants release this client's locks when they vote, dropping
    /// both the `ReleaseAll` to them and their phase-2 traffic. Only
    /// applied to non-caching connections: a caching client's locks must
    /// survive the transaction, so vote-time release would be unsound.
    pub release_read_locks: bool,
}

impl ClientOpts {
    /// Every message-saving behaviour at once (bench/turbo preset).
    pub fn turbo() -> Self {
        ClientOpts {
            lazy_begin: true,
            defer_release: true,
            release_read_locks: true,
        }
    }
}

/// Client configuration.
#[derive(Clone, Debug)]
pub struct ClientConfig {
    /// This client machine's node id.
    pub node: NodeId,
    /// The first server connected to — the 2PC coordinator for this
    /// client's distributed transactions (§3).
    pub home: NodeId,
    /// Whether data and locks are cached *between* transactions (clients
    /// with a node server / server on their machine). Without caching,
    /// locks are released and the cache is purged at end of transaction
    /// (§3, applications like the one on node 1 of Figure 2).
    pub caching: bool,
    /// RPC timeout.
    pub rpc_timeout: Duration,
    /// Page size (must match the servers').
    pub page_size: usize,
    /// When the application runs on a node with a node server, *every*
    /// request goes through it: "applications running on nodes with a BeSS
    /// server or a node server can access the entire distributed database
    /// space by communicating only with the local BeSS server or node
    /// server" (§3).
    pub gateway: Option<NodeId>,
    /// How often the listener thread renews this client's lease at every
    /// server it has touched. Must be well under the servers'
    /// `lease_duration` or an idle client gets reaped.
    pub heartbeat_interval: Duration,
    /// Transient-failure retries per RPC before giving up.
    pub max_retries: u32,
    /// Base delay for the capped exponential retry backoff.
    pub retry_base: Duration,
    /// Opt-in message-saving behaviours (all off by default).
    pub opts: ClientOpts,
}

impl ClientConfig {
    /// A config with test defaults.
    pub fn new(node: NodeId, home: NodeId) -> Self {
        ClientConfig {
            node,
            home,
            caching: true,
            rpc_timeout: Duration::from_secs(5),
            page_size: bess_storage::PAGE_SIZE,
            gateway: None,
            heartbeat_interval: Duration::from_millis(500),
            max_retries: 3,
            retry_base: Duration::from_millis(10),
            opts: ClientOpts::default(),
        }
    }
}

/// Counters kept by a client connection — [`bess_obs`] handles registered
/// under the `client.` prefix of [`ClientConn::metrics`].
#[derive(Debug)]
pub struct ClientStats {
    /// Lock RPCs sent, cache misses (`client.lock_rpcs`).
    pub lock_rpcs: Counter,
    /// Lock requests served from the lock cache
    /// (`client.lock_cache_hits`).
    pub lock_cache_hits: Counter,
    /// Combined fetch (lock+data) RPCs (`client.fetch_rpcs`).
    pub fetch_rpcs: Counter,
    /// Data-only read RPCs (`client.read_rpcs`).
    pub read_rpcs: Counter,
    /// Commits acknowledged to the caller (`client.commits`). Failed
    /// commit attempts count under [`ClientStats::commit_failures`]
    /// instead — the scenario harness cross-checks acked client commits
    /// against server commits, which a combined counter double-counts.
    pub commits: Counter,
    /// Commit attempts that returned an error — server rejection, global
    /// abort, or exhausted retries (`client.commit_failures`).
    pub commit_failures: Counter,
    /// Aborts performed (`client.aborts`).
    pub aborts: Counter,
    /// Callbacks received (`client.callbacks`).
    pub callbacks: Counter,
    /// RPC retries after transient network failures (`client.retries`).
    pub retries: Counter,
    /// Heartbeats sent (`client.heartbeats`).
    pub heartbeats: Counter,
    /// Times a server reported this connection's lease lost and every
    /// cached lock and image was dropped (`client.leases_lost`).
    pub leases_lost: Counter,
}

impl ClientStats {
    fn new(group: &Group) -> ClientStats {
        ClientStats {
            lock_rpcs: group.counter("lock_rpcs"),
            lock_cache_hits: group.counter("lock_cache_hits"),
            fetch_rpcs: group.counter("fetch_rpcs"),
            read_rpcs: group.counter("read_rpcs"),
            commits: group.counter("commits"),
            commit_failures: group.counter("commit_failures"),
            aborts: group.counter("aborts"),
            callbacks: group.counter("callbacks"),
            retries: group.counter("retries"),
            heartbeats: group.counter("heartbeats"),
            leases_lost: group.counter("leases_lost"),
        }
    }
}

/// A client machine's connection to the BeSS servers.
pub struct ClientConn {
    cfg: ClientConfig,
    dir: Arc<Directory>,
    caller: Caller<Msg>,
    lock_cache: Arc<LockCache>,
    overlay: Mutex<HashMap<DbPage, Vec<u8>>>,
    current_txn: Mutex<Option<u64>>,
    servers_touched: Mutex<HashSet<NodeId>>,
    /// Lock requests currently in flight. A callback that races the grant
    /// of one of these must be deferred, not answered "not cached" — the
    /// server may have granted us the lock an instant ago.
    pending_locks: Mutex<std::collections::HashSet<LockName>>,
    raced_callbacks: Mutex<std::collections::HashSet<LockName>>,
    /// Called when a callback releases a page lock so the owning pool can
    /// drop its copy of the page (cache consistency).
    purge_hook: RwLock<Option<PurgeHook>>,
    /// Lock mode used for implicit read fetches (S by default; IS when the
    /// session runs software object-level locking and serialises on object
    /// locks instead).
    read_mode: Mutex<LockMode>,
    /// This connection's incarnation number, folded into the high bits of
    /// every request id so the server's dedup window — keyed on
    /// `(node, req)` — can never answer a reconnected client with a reply
    /// recorded for a previous incarnation of the same node id.
    incarnation: u64,
    /// Low-bits request counter for the non-idempotent messages (commits);
    /// see [`Self::fresh_req`].
    // LINT: allow(raw-counter) — request-id allocator for idempotent retry, not a metric
    next_req: AtomicU64,
    /// Sequence for client-allocated local transaction ids (`lazy_begin`).
    // LINT: allow(raw-counter) — txn-id allocator, not a metric
    next_local_txn: AtomicU64,
    /// Prefetched global transaction ids: each `CommitGlobal` frame carries
    /// a `BeginGlobal` trailer whose `TxnId` reply refills the pool, so the
    /// next distributed commit skips the explicit `BeginGlobal` round trip.
    gtxn_pool: Mutex<Vec<u64>>,
    /// Servers owed a `ReleaseAll` (`defer_release`), with the time the
    /// debt was incurred; paid as a trailer on the next message there, or
    /// flushed by the listener's idle tick once it has waited a heartbeat
    /// interval without finding a carrier.
    pending_releases: Mutex<HashMap<NodeId, Instant>>,
    /// Servers whose locks a read-only 2PC vote already released
    /// (`release_read_locks`); end-of-transaction skips them.
    released_by_vote: Mutex<HashSet<NodeId>>,
    /// Last time any message went to each server. The listener suppresses
    /// a standalone heartbeat when real traffic already renewed the lease
    /// within the heartbeat interval.
    last_sent: Mutex<HashMap<u32, Instant>>,
    /// The lease id each server last stamped a reply with (see
    /// [`Msg::Leased`]). The locks and images this connection keeps
    /// between transactions are only as good as these leases.
    leases: Mutex<HashMap<NodeId, u64>>,
    /// The transaction (0: none) that was open when a lease was found
    /// lost: it may have read images that were no longer valid, so it
    /// cannot commit.
    // LINT: allow(raw-counter) — a transaction id, not a metric
    doomed_txn: AtomicU64,
    running: Arc<AtomicBool>,
    listener: Mutex<Option<JoinHandle<()>>>,
    group: Group,
    stats: ClientStats,
    /// Full client-observed round-trip of a commit RPC, send to reply
    /// (`client.commit.rtt.ns`).
    commit_rtt_ns: LatencyHistogram,
}

/// Incarnation source for request ids. Every connection — client or node
/// server — draws a distinct value, so a process that crashes and
/// reconnects under the same [`NodeId`] issues request ids disjoint from
/// its previous life and cannot be answered from the server's dedup window
/// with a dead incarnation's recorded reply. Starts at 1 so an id built
/// from it is never 0 (`req == 0` opts out of deduplication). The network
/// is in-process, so a process-wide counter covers every reconnect the
/// fault matrix can produce — deterministically, with no randomness.
// LINT: allow(raw-counter) — process-wide incarnation-id allocator, not a metric
static NEXT_INCARNATION: AtomicU64 = AtomicU64::new(1);

/// Draws a fresh connection incarnation (also used by the node server's
/// shipping path, which carries its own request-id counter).
pub(crate) fn fresh_incarnation() -> u64 {
    NEXT_INCARNATION.fetch_add(1, Ordering::Relaxed)
}

/// Builds a request id from an incarnation and a per-connection sequence
/// number: incarnation in the high 32 bits, sequence in the low 32. The
/// incarnation is nonzero, so the id is never the `req == 0` opt-out.
pub(crate) fn make_req(incarnation: u64, seq: u64) -> u64 {
    ((incarnation & 0xFFFF_FFFF) << 32) | (seq & 0xFFFF_FFFF)
}

/// Capped exponential backoff with deterministic jitter: `base << attempt`
/// clamped to 500ms, spread by a hash of `(node, attempt)` so retrying
/// clients don't stampede in lockstep — with no randomness, so fault
/// schedules stay reproducible.
fn backoff_delay(base: Duration, attempt: u32, node: u32) -> Duration {
    let shift = attempt.saturating_sub(1).min(6);
    let capped = base
        .saturating_mul(1u32 << shift)
        .min(Duration::from_millis(500));
    let mut h = (u64::from(node) << 32) | u64::from(attempt);
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    // LINT: allow(cast) — capped at 500ms, far below u64 microseconds.
    let jitter_us = h % ((capped.as_micros() as u64) / 4 + 1);
    capped + Duration::from_micros(jitter_us)
}

/// The name of `page`'s page lock.
fn page_lock(page: DbPage) -> LockName {
    LockName::Page {
        area: page.area,
        page: page.page,
    }
}

impl ClientConn {
    /// Connects to the network and starts the callback listener.
    pub fn connect(
        net: &Arc<Network<Msg>>,
        dir: Arc<Directory>,
        cfg: ClientConfig,
    ) -> Arc<ClientConn> {
        let endpoint = net.register(cfg.node);
        let group = Registry::new().group("client");
        let conn = Arc::new(ClientConn {
            caller: net.caller(cfg.node),
            cfg,
            dir,
            lock_cache: Arc::new(LockCache::with_image_stats(ImageStats::new(
                &group.sub("page_cache"),
            ))),
            overlay: Mutex::new(HashMap::new()),
            current_txn: Mutex::new(None),
            servers_touched: Mutex::new(HashSet::new()),
            pending_locks: Mutex::new(std::collections::HashSet::new()),
            raced_callbacks: Mutex::new(std::collections::HashSet::new()),
            purge_hook: RwLock::new(None),
            read_mode: Mutex::new(LockMode::S),
            incarnation: fresh_incarnation(),
            next_req: AtomicU64::new(1),
            next_local_txn: AtomicU64::new(1),
            gtxn_pool: Mutex::new(Vec::new()),
            pending_releases: Mutex::new(HashMap::new()),
            released_by_vote: Mutex::new(HashSet::new()),
            last_sent: Mutex::new(HashMap::new()),
            leases: Mutex::new(HashMap::new()),
            doomed_txn: AtomicU64::new(0),
            running: Arc::new(AtomicBool::new(true)),
            listener: Mutex::new(None),
            stats: ClientStats::new(&group),
            commit_rtt_ns: group.histogram("commit.rtt.ns"),
            group,
        });
        // One dump of ClientConn::metrics shows client.* beside the
        // lock.cache.* counters that explain its RPC savings.
        conn.group
            .registry()
            .adopt("", conn.lock_cache.metrics().registry());
        let listener_conn = Arc::clone(&conn);
        let running = Arc::clone(&conn.running);
        let handle = std::thread::spawn(move || {
            let mut last_heartbeat = Instant::now();
            while running.load(Ordering::Relaxed) {
                match endpoint.recv(Duration::from_millis(50)) {
                    Ok(env) => {
                        let reply = listener_conn.handle_callback(env.from, &env.msg);
                        env.reply(reply);
                    }
                    Err(NetError::Timeout) => {
                        // Idle tick: pay release debts that found no
                        // carrier, then renew our lease at every server
                        // that could be holding state for us.
                        listener_conn.flush_stale_releases();
                        if last_heartbeat.elapsed() >= listener_conn.cfg.heartbeat_interval {
                            last_heartbeat = Instant::now();
                            listener_conn.send_heartbeats();
                        }
                    }
                    Err(_) => break,
                }
            }
        });
        *conn.listener.lock() = Some(handle);
        conn
    }

    /// This client's node id.
    pub fn node(&self) -> NodeId {
        self.cfg.node
    }

    /// The page size.
    pub fn page_size(&self) -> usize {
        self.cfg.page_size
    }

    /// The connection's metric group (`client.*` in its registry).
    pub fn metrics(&self) -> &Group {
        &self.group
    }

    /// Activity counters.
    pub fn stats(&self) -> &ClientStats {
        &self.stats
    }

    /// The client's lock cache (for inspection in tests/benches).
    pub fn lock_cache(&self) -> &Arc<LockCache> {
        &self.lock_cache
    }

    /// Registers the hook called when a callback releases a lock (the
    /// session layer evicts the page from its buffer pool here).
    pub fn set_purge_hook(&self, hook: Option<PurgeHook>) {
        *self.purge_hook.write() = hook;
    }

    /// Sets the lock mode used by implicit read fetches ([`RemoteIo`]).
    pub fn set_read_mode(&self, mode: LockMode) {
        *self.read_mode.lock() = mode;
    }

    /// The current implicit read-fetch mode.
    pub fn read_mode(&self) -> LockMode {
        *self.read_mode.lock()
    }

    fn handle_callback(&self, from: NodeId, msg: &Msg) -> Msg {
        match msg {
            // The server's answer to a heartbeat stamped with a lease it
            // no longer has (a heartbeat is one-way: there is no reply for
            // the news to ride on).
            Msg::Leased { lease, .. } => {
                self.note_lease(from, *lease);
                Msg::Ok
            }
            Msg::Callback { name } => {
                self.stats.callbacks.inc();
                // Another client is about to change something on this
                // page under an object or segment lock.
                if let LockName::Object { area, page, .. } | LockName::Segment { area, page } =
                    *name
                {
                    self.lock_cache.drop_image(LockName::Page { area, page });
                }
                if self.defer_if_pending(*name) {
                    return Msg::CallbackDeferred;
                }
                match self.lock_cache.callback(*name) {
                    CallbackResponse::Released | CallbackResponse::NotCached => {
                        if let Some(hook) = self.purge_hook.read().clone() {
                            hook(*name);
                        }
                        Msg::CallbackReleased
                    }
                    CallbackResponse::Deferred => Msg::CallbackDeferred,
                }
            }
            Msg::CallbackDowngrade { name, to } => {
                self.stats.callbacks.inc();
                if self.defer_if_pending(*name) {
                    return Msg::CallbackDeferred;
                }
                if self.lock_cache.callback_downgrade(*name, *to) {
                    // The page content stays valid for reading; no purge.
                    Msg::CallbackReleased
                } else {
                    Msg::CallbackDeferred
                }
            }
            other => Msg::Err(format!("client got unexpected message: {other:?}")),
        }
    }

    /// Defers a callback that races this connection's own in-flight
    /// request for `name`, whatever the cache holds right now. The server
    /// may have granted that request an instant ago — and it releases the
    /// holder's lock *by name* when a callback is answered "released", so
    /// giving up an idle weaker lock here (an S under our own X upgrade)
    /// would wipe the grant that is on its way to us, and two clients would
    /// both believe they hold X. The lock is released when the transaction
    /// that asked for it ends.
    fn defer_if_pending(&self, name: LockName) -> bool {
        // `finish_pending` removes the name under this guard, so it either
        // sees the race recorded or the callback sees the request finished.
        let pending = self.pending_locks.lock();
        if !pending.contains(&name) {
            return false;
        }
        self.raced_callbacks.lock().insert(name);
        drop(pending);
        self.lock_cache.mark_callback_pending(name);
        true
    }

    /// Completes an in-flight lock request: if a callback raced it, mark
    /// the (now cached) lock for release when its users finish.
    fn finish_pending(&self, name: LockName) {
        self.pending_locks.lock().remove(&name);
        if self.raced_callbacks.lock().remove(&name) {
            self.lock_cache.mark_callback_pending(name);
        }
    }

    fn owner_of(&self, area: u32) -> ClientResult<NodeId> {
        if let Some(gw) = self.cfg.gateway {
            return Ok(gw);
        }
        self.dir.owner(area).ok_or(ClientError::NoOwner(area))
    }

    fn owner_of_name(&self, name: &LockName) -> ClientResult<NodeId> {
        if let Some(gw) = self.cfg.gateway {
            return Ok(gw);
        }
        match name {
            LockName::Page { area, .. }
            | LockName::Segment { area, .. }
            | LockName::Object { area, .. } => self.owner_of(*area),
            LockName::Database(_) | LockName::File { .. } => Ok(self.cfg.home),
        }
    }

    /// One-way lease renewals to the home/gateway server and every server
    /// touched so far. A server renews the lease on *every* message, so a
    /// standalone heartbeat is pure overhead whenever real traffic went to
    /// that server recently — those are suppressed and counted under
    /// `net.heartbeats.suppressed`.
    fn send_heartbeats(&self) {
        let mut targets: HashSet<NodeId> = self.servers_touched.lock().clone();
        targets.insert(self.cfg.gateway.unwrap_or(self.cfg.home));
        let now = Instant::now();
        for t in targets {
            let recent = self
                .last_sent
                .lock()
                .get(&t.0)
                .is_some_and(|at| now.duration_since(*at) < self.cfg.heartbeat_interval);
            if recent {
                self.caller.stats().heartbeats_suppressed.inc();
                continue;
            }
            if self.caller.send(t, self.stamp(t, Msg::Heartbeat)).is_ok() {
                self.note_sent(t);
                self.stats.heartbeats.inc();
            }
        }
    }

    /// Records outbound traffic to `to` (feeds heartbeat suppression).
    fn note_sent(&self, to: NodeId) {
        self.last_sent.lock().insert(to.0, Instant::now());
    }

    /// Sends any `ReleaseAll` debts that have waited longer than a
    /// heartbeat interval without a carrier message to ride on.
    fn flush_stale_releases(&self) {
        let now = Instant::now();
        let stale: Vec<NodeId> = {
            let mut pending = self.pending_releases.lock();
            let stale: Vec<NodeId> = pending
                .iter()
                .filter(|(_, since)| {
                    now.duration_since(**since) >= self.cfg.heartbeat_interval
                })
                .map(|(n, _)| *n)
                .collect();
            for n in &stale {
                pending.remove(n);
            }
            stale
        };
        for server in stale {
            // One-way is enough: `ReleaseAll` is idempotent and renews the
            // lease like any other message.
            let _ = self.caller.send(server, Msg::ReleaseAll);
            self.note_sent(server);
        }
    }

    /// Trailers owed to `to` that should ride the next frame there.
    fn take_trailers_for(&self, to: NodeId) -> Vec<Msg> {
        let mut trailers = Vec::new();
        if self.cfg.opts.defer_release && self.pending_releases.lock().remove(&to).is_some() {
            trailers.push(Msg::ReleaseAll);
        }
        trailers
    }

    /// Absorbs what rides on a reply from `from` besides the answer — a
    /// new lease id, trailers (gtxn-pool refills) — and returns the
    /// carrier reply.
    fn absorb_reply(&self, from: NodeId, reply: Msg) -> Msg {
        let reply = match reply {
            Msg::Leased { lease, msg } => {
                self.note_lease(from, lease);
                *msg
            }
            m => m,
        };
        match reply {
            Msg::WithTrailers { msg, trailers } => {
                self.caller.stats().trailers.add(trailers.len() as u64);
                for t in trailers {
                    if let Msg::TxnId(g) = t {
                        self.gtxn_pool.lock().push(g);
                    }
                }
                *msg
            }
            m => m,
        }
    }

    /// Stamps `msg` with the lease this connection believes it holds at
    /// `to` (see [`Msg::Leased`]). What is kept between transactions is
    /// only valid under the lease it was granted under, so only a
    /// connection that keeps anything stamps.
    fn stamp(&self, to: NodeId, msg: Msg) -> Msg {
        if !self.effective_caching() {
            return msg;
        }
        Msg::Leased {
            lease: self.leases.lock().get(&to).copied().unwrap_or(0),
            msg: Box::new(msg),
        }
    }

    /// Records that `server` now knows this connection under `lease`. If
    /// that replaces another lease, every grant under the old one is gone.
    fn note_lease(&self, server: NodeId, lease: u64) {
        let known = self.leases.lock().insert(server, lease);
        if known.is_some_and(|k| k != lease) {
            self.forget_grants();
        }
    }

    /// A server dropped this connection's grants without a callback (its
    /// lease ran out, or the server restarted): nothing kept between
    /// transactions can be trusted, so every cached lock goes, and with it
    /// its image and the owning pool's copy of the page. Locks of other
    /// servers go too — they are re-requested on next use, and a callback
    /// for one of them is answered "released".
    fn forget_grants(&self) {
        self.stats.leases_lost.inc();
        if let Some(txn) = self.current_txn() {
            self.doomed_txn.store(txn, Ordering::SeqCst);
        }
        let hook = self.purge_hook.read().clone();
        for name in self.lock_cache.clear() {
            if let Some(hook) = &hook {
                hook(name);
            }
        }
    }

    /// A fresh request id for a non-idempotent RPC (see [`make_req`]).
    fn fresh_req(&self) -> u64 {
        make_req(self.incarnation, self.next_req.fetch_add(1, Ordering::Relaxed))
    }

    /// Sends one RPC, retrying transient transport failures with capped
    /// exponential backoff. Only requests that are idempotent (reads,
    /// locks, releases, raw I/O replays) or deduplicated by the server
    /// (commits, which carry a request id) are retried. `AllocSegment` and
    /// `FreeSegment` are neither, so they fail fast: a retried alloc whose
    /// first delivery executed leaks a segment, and a retried free can free
    /// a segment another client was handed in the meantime.
    fn rpc(&self, to: NodeId, msg: Msg) -> ClientResult<Msg> {
        self.rpc_with_trailers(to, msg, Vec::new())
    }

    /// [`Self::rpc`] with caller-supplied trailers riding the same frame
    /// (any `ReleaseAll` debt for `to` joins them).
    fn rpc_with_trailers(
        &self,
        to: NodeId,
        msg: Msg,
        mut trailers: Vec<Msg>,
    ) -> ClientResult<Msg> {
        self.servers_touched.lock().insert(to);
        let retryable = !matches!(msg, Msg::AllocSegment { .. } | Msg::FreeSegment { .. });
        // Piggyback any control debt for this server on the frame. A
        // retried frame re-runs non-deduplicated trailers server-side;
        // everything we attach here (`ReleaseAll`) is idempotent, and
        // deduplicated carriers never re-run their trailers at all.
        trailers.extend(self.take_trailers_for(to));
        let msg = Msg::with_trailers(msg, trailers);
        self.note_sent(to);
        let mut attempt = 0u32;
        let mut asked_again = false;
        loop {
            match self.caller.call(to, self.stamp(to, msg.clone()), self.cfg.rpc_timeout) {
                Ok(reply) => {
                    let reply = self.absorb_reply(to, reply);
                    // Refused unexecuted: the stamp named a lease the
                    // server no longer has. Outside a transaction nothing
                    // was read under it, so ask again (once) under the new
                    // one; inside one, the refusal is the answer and the
                    // transaction will not commit.
                    let refused = matches!(&reply, Msg::Err(e) if e == LEASE_LOST);
                    if refused && !asked_again && self.current_txn().is_none() {
                        asked_again = true;
                        continue;
                    }
                    return Ok(reply);
                }
                Err(e) if retryable && e.is_transient() && attempt < self.cfg.max_retries => {
                    attempt += 1;
                    self.stats.retries.inc();
                    std::thread::sleep(backoff_delay(
                        self.cfg.retry_base,
                        attempt,
                        self.cfg.node.0,
                    ));
                }
                Err(e) => return Err(e.into()),
            }
        }
    }

    // ---- transactions ----------------------------------------------------

    /// Begins a transaction. By default the id comes from the home server
    /// (`BeginTxn`); with [`ClientOpts::lazy_begin`] it is allocated
    /// locally — top bit set, node in bits 32..63 — which no server-issued
    /// id can collide with, and the round trip is saved.
    pub fn begin(&self) -> ClientResult<u64> {
        if self.cfg.opts.lazy_begin {
            let seq = self.next_local_txn.fetch_add(1, Ordering::Relaxed);
            let t = (1u64 << 63) | (u64::from(self.cfg.node.0) << 32) | (seq & 0xFFFF_FFFF);
            *self.current_txn.lock() = Some(t);
            return Ok(t);
        }
        match self.rpc(self.cfg.home, Msg::BeginTxn)? {
            Msg::TxnId(t) => {
                *self.current_txn.lock() = Some(t);
                Ok(t)
            }
            Msg::Err(e) => Err(ClientError::Server(e)),
            other => Err(ClientError::Server(format!("bad reply {other:?}"))),
        }
    }

    /// The active transaction, if any.
    pub fn current_txn(&self) -> Option<u64> {
        *self.current_txn.lock()
    }

    /// Acquires `mode` on `name` for the active transaction, consulting the
    /// lock cache first (§3: "data and locks accessed by a transaction
    /// remain cached on the client").
    pub fn lock(&self, name: LockName, mode: LockMode) -> ClientResult<()> {
        let txn = self.current_txn().ok_or(ClientError::NoTxn)?;
        match self.lock_cache.acquire(TxnId(txn), name, mode) {
            CacheDecision::Hit => {
                self.stats.lock_cache_hits.inc();
                Ok(())
            }
            CacheDecision::Miss { need } => {
                self.stats.lock_rpcs.inc();
                let owner = self.owner_of_name(&name)?;
                self.pending_locks.lock().insert(name);
                let reply = self.rpc(owner, Msg::Lock { name, mode: need });
                let out = match reply {
                    Ok(Msg::Granted) => {
                        self.lock_cache.grant(TxnId(txn), name, need);
                        Ok(())
                    }
                    Ok(Msg::Denied(m)) => Err(ClientError::Denied(m)),
                    Ok(Msg::Err(e)) => Err(ClientError::Server(e)),
                    Ok(other) => Err(ClientError::Server(format!("bad reply {other:?}"))),
                    Err(e) => Err(e),
                };
                self.finish_pending(name);
                out
            }
        }
    }

    /// Fetches a page under `mode`, combining lock acquisition and data
    /// transfer in one message on a lock-cache miss. When the lock cache
    /// holds the page in a mode that covers `S` together with its image,
    /// no message is sent at all.
    pub fn fetch_page(&self, page: DbPage, mode: LockMode) -> ClientResult<Vec<u8>> {
        self.fetch_inner(page, mode, self.effective_caching())
    }

    /// [`Self::fetch_page`]; `images` says whether page images are served
    /// and kept (never for [`RemoteIo`]).
    fn fetch_inner(&self, page: DbPage, mode: LockMode, images: bool) -> ClientResult<Vec<u8>> {
        let txn = self.current_txn().ok_or(ClientError::NoTxn)?;
        // Uncommitted local state shadows the server.
        if let Some(data) = self.overlay.lock().get(&page) {
            let data = data.clone();
            self.lock(page_lock(page), mode)?;
            return Ok(data);
        }
        let name = page_lock(page);
        let (decision, image) = if images {
            self.lock_cache.acquire_image(TxnId(txn), name, mode)
        } else {
            (self.lock_cache.acquire(TxnId(txn), name, mode), None)
        };
        match decision {
            CacheDecision::Hit => {
                self.stats.lock_cache_hits.inc();
                if let Some(data) = image {
                    return Ok(data);
                }
                let data = self.read_page_rpc(page)?;
                if images {
                    // This transaction is a user of the lock, so no
                    // callback released it while the read was in flight.
                    self.lock_cache.put_image(name, &data);
                }
                Ok(data)
            }
            CacheDecision::Miss { need } => {
                self.stats.fetch_rpcs.inc();
                let owner = self.owner_of(page.area)?;
                self.pending_locks.lock().insert(name);
                let reply = self.rpc(owner, Msg::FetchPage { page, mode: need });
                let out = match reply {
                    Ok(Msg::PageData(data)) => {
                        self.lock_cache.grant(TxnId(txn), name, need);
                        if images {
                            self.lock_cache.put_image(name, &data);
                        }
                        Ok(data)
                    }
                    Ok(Msg::Denied(m)) => Err(ClientError::Denied(m)),
                    Ok(Msg::Err(e)) => Err(ClientError::Server(e)),
                    Ok(other) => Err(ClientError::Server(format!("bad reply {other:?}"))),
                    Err(e) => Err(e),
                };
                self.finish_pending(name);
                out
            }
        }
    }

    /// Reads a page without locking (the lock is already held/cached);
    /// served from the page's image when the cached lock has one.
    pub fn read_page(&self, page: DbPage) -> ClientResult<Vec<u8>> {
        self.read_inner(page, self.effective_caching())
    }

    /// [`Self::read_page`]; `images` as for [`Self::fetch_inner`].
    fn read_inner(&self, page: DbPage, images: bool) -> ClientResult<Vec<u8>> {
        if let Some(data) = self.overlay.lock().get(&page) {
            return Ok(data.clone());
        }
        if images {
            if let Some(data) = self.lock_cache.image(page_lock(page)) {
                return Ok(data);
            }
        }
        self.read_page_rpc(page)
    }

    fn read_page_rpc(&self, page: DbPage) -> ClientResult<Vec<u8>> {
        self.stats.read_rpcs.inc();
        let owner = self.owner_of(page.area)?;
        match self.rpc(owner, Msg::ReadPage { page })? {
            Msg::PageData(data) => Ok(data),
            Msg::Err(e) => Err(ClientError::Server(e)),
            other => Err(ClientError::Server(format!("bad reply {other:?}"))),
        }
    }

    /// Commits the active transaction with the given page updates. Groups
    /// updates by owning server; multiple owners trigger two-phase commit
    /// through the home server (§3).
    pub fn commit(&self, updates: Vec<PageUpdate>) -> ClientResult<()> {
        let txn = self.current_txn().ok_or(ClientError::NoTxn)?;
        if self.doomed_txn.load(Ordering::SeqCst) == txn {
            self.stats.commit_failures.inc();
            self.abort()?;
            return Err(ClientError::Server(LEASE_LOST.into()));
        }
        // Times the whole commit conversation — single-server fast path or
        // 2PC round — as the client observes it, retries included.
        let _timer = self.commit_rtt_ns.start();
        // What this commit does to the pages, for the images of them this
        // connection may hold (`updates` itself goes out with the message).
        let patches: Vec<(LockName, usize, Vec<u8>)> = if self.effective_caching() {
            updates
                .iter()
                .map(|u| (page_lock(u.page), u.offset as usize, u.after.clone()))
                .collect()
        } else {
            Vec::new()
        };
        let mut by_owner: HashMap<NodeId, Vec<PageUpdate>> = HashMap::new();
        for u in updates {
            by_owner.entry(self.owner_of(u.page.area)?).or_default().push(u);
        }
        // A single write owner normally takes the one-message fast path;
        // with `release_read_locks` on, a transaction that also *read* from
        // other servers goes through 2PC anyway, so those servers join the
        // round as read-only participants and shed their locks at phase 1
        // instead of waiting for a ReleaseAll.
        let enrol_readers = self.cfg.opts.release_read_locks
            && !self.effective_caching()
            && self
                .servers_touched
                .lock()
                .iter()
                .any(|s| !by_owner.contains_key(s));
        let result = match by_owner.len() {
            0 => Ok(()),
            1 if !enrol_readers => {
                let (owner, updates) = by_owner.into_iter().next().expect("one entry");
                let req = self.fresh_req();
                match self.rpc(owner, Msg::Commit { txn, updates, req }) {
                    Ok(Msg::Ok) => Ok(()),
                    Ok(Msg::Err(e)) => Err(ClientError::Server(e)),
                    Ok(other) => Err(ClientError::Server(format!("bad reply {other:?}"))),
                    Err(e) => {
                        // No answer: the transaction stays open for the
                        // caller to abort.
                        self.settle_images(&patches, false);
                        return Err(e);
                    }
                }
            }
            _ => self.commit_global(by_owner),
        };
        // Only an acknowledged commit counts as a commit; a rejection or
        // global abort is a distinct outcome (previously both paths bumped
        // `client.commits`, so the counter drifted from reality under
        // faults).
        if result.is_ok() {
            self.stats.commits.inc();
        } else {
            self.stats.commit_failures.inc();
        }
        self.settle_images(&patches, result.is_ok());
        self.end_txn(txn)?;
        result
    }

    /// Brings the images of the pages a commit wrote in line with its
    /// outcome: an acknowledged commit changed the pages exactly as the
    /// patches change their images; after anything else (rejection, abort,
    /// no answer) the pages are in a state this connection cannot know.
    fn settle_images(&self, patches: &[(LockName, usize, Vec<u8>)], committed: bool) {
        for (name, offset, after) in patches {
            if committed {
                self.lock_cache.patch_image(*name, *offset, after);
            } else {
                self.lock_cache.drop_image(*name);
            }
        }
    }

    /// Distributed commit: one `CommitGlobal` frame to the home server
    /// carries every branch's write set (the coordinator stages its own and
    /// forwards the rest inside each participant's phase-1 entry) plus a
    /// `BeginGlobal` trailer that prefetches the next transaction's id.
    /// With `release_read_locks`, every touched server joins the round so
    /// read-only voters release our locks at phase 1.
    fn commit_global(&self, by_owner: HashMap<NodeId, Vec<PageUpdate>>) -> ClientResult<()> {
        let release_read_locks = self.cfg.opts.release_read_locks && !self.effective_caching();
        // An empty pool (first commit, or a retried frame whose trailer
        // reply was not replayed) falls back to the explicit round trip.
        let gtxn = match self.gtxn_pool.lock().pop() {
            Some(g) => g,
            None => match self.rpc(self.cfg.home, Msg::BeginGlobal)? {
                Msg::TxnId(g) => g,
                other => return Err(ClientError::Server(format!("bad reply {other:?}"))),
            },
        };
        let mut branches: Vec<(u32, Vec<PageUpdate>)> =
            by_owner.into_iter().map(|(owner, updates)| (owner.0, updates)).collect();
        branches.sort_unstable_by_key(|(p, _)| *p);
        let write_owners: Vec<u32> = branches.iter().map(|(p, _)| *p).collect();
        let mut participants = write_owners.clone();
        if release_read_locks {
            // Enrol read-only touched servers: their phase-1 vote releases
            // our locks and drops them from phase 2.
            for s in self.servers_touched.lock().iter() {
                if !participants.contains(&s.0) {
                    participants.push(s.0);
                }
            }
            participants.sort_unstable();
        }
        let commit_trailers = if self.gtxn_pool.lock().is_empty() {
            vec![Msg::BeginGlobal]
        } else {
            Vec::new()
        };
        let req = self.fresh_req();
        let reply = self.rpc_with_trailers(
            self.cfg.home,
            Msg::CommitGlobal {
                gtxn,
                participants: participants.clone(),
                req,
                release_read_locks,
                branches,
            },
            commit_trailers,
        )?;
        match reply {
            Msg::Decision { committed } => {
                if release_read_locks {
                    // Read-only participants released our locks when they
                    // voted — phase 1 ran whatever the outcome, so the
                    // end-of-transaction ReleaseAll can skip them. Write
                    // participants keep our grants until then.
                    let mut released = self.released_by_vote.lock();
                    for p in &participants {
                        if !write_owners.contains(p) {
                            released.insert(NodeId(*p));
                        }
                    }
                }
                if committed {
                    Ok(())
                } else {
                    Err(ClientError::GlobalAbort)
                }
            }
            Msg::Err(e) => Err(ClientError::Server(e)),
            other => Err(ClientError::Server(format!("bad reply {other:?}"))),
        }
    }

    /// Aborts the active transaction: uncommitted pages are discarded and
    /// (for non-caching clients) locks released.
    pub fn abort(&self) -> ClientResult<()> {
        let txn = self.current_txn().ok_or(ClientError::NoTxn)?;
        let _ = self.rpc(self.cfg.home, Msg::Abort { txn });
        self.stats.aborts.inc();
        self.end_txn(txn)
    }

    /// Whether this connection caches locks between transactions. Behind
    /// a node-server gateway the answer is always no: the *node server*
    /// performs the inter-transaction caching (§3), and it releases its
    /// local application locks at end of transaction — a client-side cache
    /// would bypass that and lose serialisation.
    fn effective_caching(&self) -> bool {
        self.cfg.caching && self.cfg.gateway.is_none()
    }

    fn end_txn(&self, txn: u64) -> ClientResult<()> {
        self.overlay.lock().clear();
        *self.current_txn.lock() = None;
        if self.effective_caching() {
            // Locks stay cached; answer deferred callbacks now.
            let released = self.lock_cache.finish_txn(TxnId(txn));
            let mut by_owner: HashMap<NodeId, Vec<LockName>> = HashMap::new();
            for name in released {
                if let Some(hook) = self.purge_hook.read().clone() {
                    hook(name);
                }
                if let Ok(owner) = self.owner_of_name(&name) {
                    by_owner.entry(owner).or_default().push(name);
                }
            }
            for (owner, names) in by_owner {
                let _ = self.rpc(owner, Msg::ReleaseCached { names });
            }
        } else {
            // Transaction-duration caching (§3): drop everything. Servers
            // whose read-only 2PC vote already released our locks are
            // skipped; with `defer_release` the rest become debts paid as
            // trailers on the next frame there (the listener's idle tick
            // is the fallback carrier).
            self.lock_cache.clear();
            let released: HashSet<NodeId> =
                std::mem::take(&mut *self.released_by_vote.lock());
            let touched: Vec<NodeId> = self.servers_touched.lock().drain().collect();
            for server in touched {
                if released.contains(&server) {
                    continue;
                }
                if self.cfg.opts.defer_release {
                    self.pending_releases
                        .lock()
                        .entry(server)
                        .or_insert_with(Instant::now);
                } else {
                    let _ = self.caller.call(server, Msg::ReleaseAll, self.cfg.rpc_timeout);
                    self.note_sent(server);
                }
            }
        }
        Ok(())
    }

    /// Disconnects: stops the listener and releases every cached lock
    /// (deferred release debts are paid immediately).
    pub fn disconnect(&self) {
        let owed: Vec<NodeId> = self
            .pending_releases
            .lock()
            .drain()
            .map(|(n, _)| n)
            .collect();
        for server in owed {
            let _ = self.caller.call(server, Msg::ReleaseAll, self.cfg.rpc_timeout);
        }
        let names = self.lock_cache.clear();
        let mut by_owner: HashMap<NodeId, Vec<LockName>> = HashMap::new();
        for name in names {
            if let Ok(owner) = self.owner_of_name(&name) {
                by_owner.entry(owner).or_default().push(name);
            }
        }
        for (owner, names) in by_owner {
            let _ = self.caller.call(
                owner,
                Msg::ReleaseCached { names },
                self.cfg.rpc_timeout,
            );
        }
        self.running.store(false, Ordering::Relaxed);
        if let Some(h) = self.listener.lock().take() {
            let _ = h.join();
        }
    }

    /// Stores uncommitted page content locally (buffer-pool eviction of a
    /// dirty page mid-transaction lands here, never at the server).
    pub fn overlay_put(&self, page: DbPage, data: Vec<u8>) {
        self.overlay.lock().insert(page, data);
    }

    /// Current overlay content of a page.
    pub fn overlay_get(&self, page: DbPage) -> Option<Vec<u8>> {
        self.overlay.lock().get(&page).cloned()
    }

    /// Pages currently shadowed by the overlay.
    pub fn overlay_pages(&self) -> Vec<DbPage> {
        self.overlay.lock().keys().copied().collect()
    }
}

impl Drop for ClientConn {
    fn drop(&mut self) {
        self.running.store(false, Ordering::Relaxed);
        if let Some(h) = self.listener.lock().take() {
            let _ = h.join();
        }
    }
}

/// [`PageIo`] over a client connection: loads consult the uncommitted
/// overlay, then fetch from the owning server with an S page lock when a
/// transaction is active — never from the connection's page images;
/// write-backs of dirty pages go to the overlay (uncommitted data never
/// reaches a server).
pub struct RemoteIo(pub Arc<ClientConn>);

impl PageIo for RemoteIo {
    fn load(&self, page: DbPage, buf: &mut [u8]) -> Result<(), String> {
        // Around the page images: the pool being filled is this client's
        // data cache already, and its engine pages are shipped as whole
        // images under S locks, which an image kept here would not see.
        let data = if self.0.current_txn().is_some() {
            self.0.fetch_inner(page, self.0.read_mode(), false)
        } else {
            self.0.read_inner(page, false)
        }
        .map_err(|e| e.to_string())?;
        buf.copy_from_slice(&data[..buf.len()]);
        Ok(())
    }

    fn write_back(&self, page: DbPage, data: &[u8]) -> Result<(), String> {
        self.0.overlay_put(page, data.to_vec());
        Ok(())
    }
}

/// [`DiskSpace`] over a client connection: disk allocation and raw byte
/// I/O are served by the owning servers via RPC.
pub struct RemoteSpace(pub Arc<ClientConn>);

impl DiskSpace for RemoteSpace {
    fn page_size(&self) -> usize {
        self.0.cfg.page_size
    }

    fn alloc(&self, area: u32, pages: u32) -> StorageResult<DiskPtr> {
        let owner = self
            .0
            .owner_of(area)
            .map_err(|e| StorageError::Corrupt(e.to_string()))?;
        match self
            .0
            .rpc(owner, Msg::AllocSegment { area, pages })
            .map_err(|e| StorageError::Corrupt(e.to_string()))?
        {
            Msg::DiskSeg {
                area,
                start_page,
                pages,
            } => Ok(DiskPtr {
                area: AreaId(area),
                start_page,
                pages,
            }),
            Msg::Err(e) => Err(StorageError::Corrupt(e)),
            other => Err(StorageError::Corrupt(format!("bad reply {other:?}"))),
        }
    }

    fn free(&self, ptr: DiskPtr) -> StorageResult<()> {
        let owner = self
            .0
            .owner_of(ptr.area.0)
            .map_err(|e| StorageError::Corrupt(e.to_string()))?;
        match self
            .0
            .rpc(
                owner,
                Msg::FreeSegment {
                    area: ptr.area.0,
                    start_page: ptr.start_page,
                    pages: ptr.pages,
                },
            )
            .map_err(|e| StorageError::Corrupt(e.to_string()))?
        {
            Msg::Ok => Ok(()),
            Msg::Err(e) => Err(StorageError::Corrupt(e)),
            other => Err(StorageError::Corrupt(format!("bad reply {other:?}"))),
        }
    }

    fn read_at(&self, area: u32, page: u64, offset: usize, buf: &mut [u8]) -> StorageResult<()> {
        let owner = self
            .0
            .owner_of(area)
            .map_err(|e| StorageError::Corrupt(e.to_string()))?;
        match self
            .0
            .rpc(
                owner,
                Msg::ReadAt {
                    area,
                    page,
                    // LINT: allow(cast) — `offset` lies within one page, far below u32::MAX.
                    offset: offset as u32,
                    len: buf.len() as u32,
                },
            )
            .map_err(|e| StorageError::Corrupt(e.to_string()))?
        {
            Msg::Bytes(data) => {
                buf.copy_from_slice(&data);
                Ok(())
            }
            Msg::Err(e) => Err(StorageError::Corrupt(e)),
            other => Err(StorageError::Corrupt(format!("bad reply {other:?}"))),
        }
    }

    fn write_at(&self, area: u32, page: u64, offset: usize, data: &[u8]) -> StorageResult<()> {
        let owner = self
            .0
            .owner_of(area)
            .map_err(|e| StorageError::Corrupt(e.to_string()))?;
        // A raw write changes the page behind its image's back.
        self.0.lock_cache.drop_image(LockName::Page { area, page });
        match self
            .0
            .rpc(
                owner,
                Msg::WriteAt {
                    area,
                    page,
                    // LINT: allow(cast) — `offset` lies within one page, far below u32::MAX.
                    offset: offset as u32,
                    data: data.to_vec(),
                },
            )
            .map_err(|e| StorageError::Corrupt(e.to_string()))?
        {
            Msg::Ok => Ok(()),
            Msg::Err(e) => Err(StorageError::Corrupt(e)),
            other => Err(StorageError::Corrupt(format!("bad reply {other:?}"))),
        }
    }
}
