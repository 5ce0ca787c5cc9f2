//! The BeSS node server.
//!
//! "A BeSS node server is a BeSS server that does not own any storage
//! areas. Consequently, each BeSS node server is a client of the BeSS
//! servers that acts as a server for the local applications. The BeSS node
//! server establishes a cache on the node it is running and it is
//! responsible for fetching the data requested by the local applications
//! from the BeSS servers that own the data. In addition, the BeSS node
//! server acquires locks on behalf of the local applications and responds
//! to callback requests issued by BeSS servers." (§3)
//!
//! Local applications reach the node server two ways (§4.1):
//!
//! * **copy on access** — over the message protocol (the simulated IPC),
//!   like any remote client, but served from the node's shared cache;
//! * **shared memory** — in-process, through [`NodeServer::shared_cache`]
//!   and the direct `local_*` methods, paying no IPC at all.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bess_obs::{Counter, Group, Registry};
use bess_cache::{DbPage, GetOutcome, PageIo, SharedCache};
use bess_lock::{CacheDecision, CallbackResponse, LockCache, LockManager, LockMode, LockName, TxnId};
use bess_net::{Caller, Endpoint, NetError, Network, NodeId};
use bess_vm::PageStore;
use bess_wal::{LogBody, LogManager, LogPageId, Lsn};
use parking_lot::{Condvar, Mutex};

use crate::directory::Directory;
use crate::proto::{coordinator_of, GTxn, Msg, PageUpdate};

/// Node-server configuration.
#[derive(Clone, Debug)]
pub struct NodeServerConfig {
    /// The node this server runs on.
    pub node: NodeId,
    /// Cache slots in the shared cache.
    pub cache_slots: usize,
    /// Virtual frames (PVMA size) — may exceed `cache_slots` (§4.1.2).
    pub cache_vframes: usize,
    /// Page size.
    pub page_size: usize,
    /// Lock timeout for local lock waits.
    pub lock_timeout: Duration,
    /// RPC timeout towards owning servers.
    pub rpc_timeout: Duration,
    /// How often the node server renews its lease at the owning servers
    /// (it holds cached locks on behalf of its applications, so a silent
    /// node server would be reaped like any other client).
    pub heartbeat_interval: Duration,
}

impl NodeServerConfig {
    /// A config with test defaults.
    pub fn new(node: NodeId) -> Self {
        NodeServerConfig {
            node,
            cache_slots: 256,
            cache_vframes: 1024,
            page_size: bess_storage::PAGE_SIZE,
            lock_timeout: Duration::from_millis(500),
            rpc_timeout: Duration::from_secs(5),
            heartbeat_interval: Duration::from_millis(500),
        }
    }
}

/// Counters kept by a node server — [`bess_obs`] handles registered under
/// the `nodeserver.` prefix of [`NodeServer::metrics`].
#[derive(Debug)]
pub struct NodeServerStats {
    /// Requests served from the shared cache without contacting a server
    /// (`nodeserver.cache_hits`).
    pub cache_hits: Counter,
    /// Pages fetched from owning servers (`nodeserver.remote_fetches`).
    pub remote_fetches: Counter,
    /// Lock requests resolved locally, node-level lock already cached
    /// (`nodeserver.lock_local`).
    pub lock_local: Counter,
    /// Lock requests forwarded to owning servers
    /// (`nodeserver.lock_remote`).
    pub lock_remote: Counter,
    /// Callbacks received from servers (`nodeserver.callbacks`).
    pub callbacks: Counter,
    /// Commits forwarded (`nodeserver.commits`).
    pub commits: Counter,
    /// Distributed (2PC) commits forwarded
    /// (`nodeserver.global_commits`).
    pub global_commits: Counter,
    /// Commits made durable on the node's local log before shipping, §6
    /// client logging (`nodeserver.local_commits`).
    pub local_commits: Counter,
    /// Locally-committed transactions re-shipped after a node restart
    /// (`nodeserver.reshipped`).
    pub reshipped: Counter,
}

impl NodeServerStats {
    fn new(group: &Group) -> NodeServerStats {
        NodeServerStats {
            cache_hits: group.counter("cache_hits"),
            remote_fetches: group.counter("remote_fetches"),
            lock_local: group.counter("lock_local"),
            lock_remote: group.counter("lock_remote"),
            callbacks: group.counter("callbacks"),
            commits: group.counter("commits"),
            global_commits: group.counter("global_commits"),
            local_commits: group.counter("local_commits"),
            reshipped: group.counter("reshipped"),
        }
    }
}

struct NsInner {
    cfg: NodeServerConfig,
    dir: Arc<Directory>,
    caller: Caller<Msg>,
    cache: Arc<SharedCache>,
    /// Local strict-2PL among the node's applications.
    local_locks: LockManager,
    /// Node-level cache of locks granted by the owning servers.
    lock_cache: Arc<LockCache>,
    pending_locks: Mutex<std::collections::HashSet<LockName>>,
    raced_callbacks: Mutex<std::collections::HashSet<LockName>>,
    /// §6 client logging: the node's local write-ahead log. Commits become
    /// durable here first; shipping to the owning servers is write-behind.
    local_log: Option<Arc<LogManager>>,
    /// Transactions locally committed but not yet acknowledged by their
    /// owning servers: `txn -> (commit LSN, updates)`.
    unshipped: Mutex<HashMap<u64, (Lsn, Vec<PageUpdate>)>>,
    ship_done: Condvar,
    // LINT: allow(raw-counter) — local transaction-id allocator, not a metric
    next_txn: AtomicU64,
    /// This node server's incarnation, folded into the high bits of every
    /// shipped request id (see `client::make_req`): a restarted node server
    /// must never be answered from the servers' dedup window with a reply
    /// recorded for its previous life.
    incarnation: u64,
    /// Low-bits request counter for shipped commits (server-side dedup
    /// keys).
    // LINT: allow(raw-counter) — request-id allocator for upstream idempotent retry, not a metric
    next_req: AtomicU64,
    /// Prefetched global transaction ids, refilled by the `BeginGlobal`
    /// trailer on every `CommitGlobal` frame (ids of any coordinator this
    /// node has used).
    gtxn_pool: Mutex<Vec<GTxn>>,
    /// Last time any message went to each owning server; the idle tick
    /// suppresses a standalone heartbeat when real traffic already renewed
    /// the lease within the heartbeat interval.
    last_sent: Mutex<HashMap<u32, Instant>>,
    running: AtomicBool,
    group: Group,
    stats: NodeServerStats,
}

/// A running node server.
pub struct NodeServer {
    inner: Arc<NsInner>,
    handle: Option<JoinHandle<()>>,
}

impl NodeServer {
    /// Starts a node server on the network.
    pub fn start(
        cfg: NodeServerConfig,
        dir: Arc<Directory>,
        net: &Arc<Network<Msg>>,
    ) -> NodeServer {
        Self::start_inner(cfg, dir, net, None).0
    }

    /// Starts a node server with **client logging** (§6 of the paper): the
    /// node's local disk holds a WAL; local transactions commit as soon as
    /// their records are forced there, and the updates ship to the owning
    /// servers write-behind. On restart over an existing log, commits the
    /// servers never acknowledged are re-shipped (the node's cached server
    /// locks still guard them). Returns the server and the number of
    /// transactions re-shipped during recovery.
    pub fn start_with_log(
        cfg: NodeServerConfig,
        dir: Arc<Directory>,
        net: &Arc<Network<Msg>>,
        log: LogManager,
    ) -> (NodeServer, u64) {
        Self::start_inner(cfg, dir, net, Some(Arc::new(log)))
    }

    fn start_inner(
        cfg: NodeServerConfig,
        dir: Arc<Directory>,
        net: &Arc<Network<Msg>>,
        local_log: Option<Arc<LogManager>>,
    ) -> (NodeServer, u64) {
        let cache = SharedCache::new(cfg.cache_slots, cfg.cache_vframes, cfg.page_size);
        let group = Registry::new().group("nodeserver");
        let inner = Arc::new(NsInner {
            caller: net.caller(cfg.node),
            local_locks: LockManager::new(cfg.lock_timeout),
            lock_cache: Arc::new(LockCache::new()),
            pending_locks: Mutex::new(std::collections::HashSet::new()),
            raced_callbacks: Mutex::new(std::collections::HashSet::new()),
            local_log,
            unshipped: Mutex::new(HashMap::new()),
            ship_done: Condvar::new(),
            cache,
            dir,
            next_txn: AtomicU64::new(1),
            incarnation: crate::client::fresh_incarnation(),
            next_req: AtomicU64::new(1),
            gtxn_pool: Mutex::new(Vec::new()),
            last_sent: Mutex::new(HashMap::new()),
            running: AtomicBool::new(true),
            stats: NodeServerStats::new(&group),
            group,
            cfg,
        });
        // Fold the node's subsystem registries into its own: one dump of
        // NodeServer::metrics shows nodeserver.*, cache.shared.*, lock.*,
        // lock.cache.* and (with client logging) wal.* together.
        {
            let reg = inner.group.registry();
            reg.adopt("", inner.cache.metrics().registry());
            reg.adopt("", inner.local_locks.metrics().registry());
            reg.adopt("", inner.lock_cache.metrics().registry());
            if let Some(log) = &inner.local_log {
                reg.adopt("", log.metrics().registry());
            }
        }
        // Node-crash recovery: re-ship locally-committed transactions the
        // owners never acknowledged.
        let reshipped = inner.recover_local_log();
        let endpoint = net.register(inner.cfg.node);
        let loop_inner = Arc::clone(&inner);
        let handle = std::thread::spawn(move || ns_loop(loop_inner, endpoint));
        (
            NodeServer {
                inner,
                handle: Some(handle),
            },
            reshipped,
        )
    }

    /// The node's local log, when client logging is enabled.
    pub fn local_log(&self) -> Option<&Arc<LogManager>> {
        self.inner.local_log.as_ref()
    }

    /// Blocks until every locally-committed transaction has been shipped
    /// to (and acknowledged by) its owning servers.
    pub fn drain_shipments(&self) {
        let mut pending = self.inner.unshipped.lock();
        while !pending.is_empty() {
            self.inner.ship_done.wait(&mut pending);
        }
    }

    /// This node server's node id.
    pub fn node(&self) -> NodeId {
        self.inner.cfg.node
    }

    /// The shared cache (Figure 3) — shared-memory-mode applications attach
    /// [`bess_cache::SharedView`]s to it directly.
    pub fn shared_cache(&self) -> &Arc<SharedCache> {
        &self.inner.cache
    }

    /// A [`PageIo`] that shared-memory-mode views use to fill misses: it
    /// routes through the node server's fetch logic (locks at the owning
    /// server under the node's identity) without any IPC.
    pub fn shared_io(&self) -> Arc<dyn PageIo> {
        Arc::new(NsIo(Arc::clone(&self.inner)))
    }

    /// The node server's metric group (`nodeserver.*` in its registry).
    pub fn metrics(&self) -> &Group {
        &self.inner.group
    }

    /// Activity counters.
    pub fn stats(&self) -> &NodeServerStats {
        &self.inner.stats
    }

    /// The node-level lock cache (inspection).
    pub fn lock_cache(&self) -> &Arc<LockCache> {
        &self.inner.lock_cache
    }

    // ---- the shared-memory (in-process) interface -----------------------
    // "Note also that the interface provided by the node server is the same
    // in both modes, it is just the process boundaries that differ" (§4.1).

    /// Begins a transaction for a local shared-memory application.
    pub fn local_begin(&self) -> u64 {
        let seq = self.inner.next_txn.fetch_add(1, Ordering::Relaxed);
        (u64::from(self.inner.cfg.node.0) << 32) | seq
    }

    /// Acquires a lock for local application transaction `txn`.
    pub fn local_lock(&self, txn: u64, name: LockName, mode: LockMode) -> Result<(), String> {
        self.inner.lock_for(TxnId(txn), name, mode)
    }

    /// Commits a local application transaction with its page updates.
    pub fn local_commit(&self, txn: u64, updates: Vec<PageUpdate>) -> Result<(), String> {
        let r = self.inner.commit_for(txn, updates);
        self.inner.end_local_txn(TxnId(txn));
        r
    }

    /// Aborts a local application transaction.
    pub fn local_abort(&self, txn: u64) {
        // Purge dirty (uncommitted) pages so later readers refetch clean
        // content from the owning servers.
        for (page, _) in self.inner.cache.drain_dirty() {
            self.inner.cache.purge(page);
        }
        self.inner.end_local_txn(TxnId(txn));
    }

    /// A cloneable, owner-independent handle to this node server, for
    /// shared-memory sessions that live in the same process (§4.1.2).
    pub fn handle(&self) -> NodeHandle {
        NodeHandle(Arc::clone(&self.inner))
    }

    /// Stops the node server gracefully: pending shipments drain and every
    /// lock cached at the owning servers is released. (Dropping without
    /// calling this models a node *crash*: the servers keep the node's
    /// locks, which is exactly what §6 re-shipping relies on.)
    pub fn shutdown(mut self) {
        {
            // Bounded drain: shipments that cannot complete (an owner is
            // down) stay in the local log and re-ship at the next start.
            let deadline = std::time::Instant::now() + self.inner.cfg.rpc_timeout;
            let mut pending = self.inner.unshipped.lock();
            while !pending.is_empty() && std::time::Instant::now() < deadline {
                if self
                    .inner
                    .ship_done
                    .wait_until(&mut pending, deadline)
                    .timed_out()
                {
                    break;
                }
            }
            if !pending.is_empty() {
                // Keep the unshipped transactions' locks at the servers:
                // skip the lock release below for safety.
                drop(pending);
                self.inner.running.store(false, Ordering::Relaxed);
                if let Some(h) = self.handle.take() {
                    let _ = h.join();
                }
                return;
            }
        }
        let names = self.inner.lock_cache.clear();
        let mut by_owner: HashMap<NodeId, Vec<LockName>> = HashMap::new();
        for name in names {
            let owner = match name {
                LockName::Page { area, .. }
                | LockName::Segment { area, .. }
                | LockName::Object { area, .. } => self.inner.dir.owner(area),
                _ => self.inner.dir.servers().first().copied(),
            };
            if let Some(owner) = owner {
                by_owner.entry(owner).or_default().push(name);
            }
        }
        for (owner, names) in by_owner {
            let _ = self.inner.caller.call(
                owner,
                Msg::ReleaseCached { names },
                self.inner.cfg.rpc_timeout,
            );
        }
        self.inner.running.store(false, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for NodeServer {
    fn drop(&mut self) {
        self.inner.running.store(false, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

fn ns_loop(inner: Arc<NsInner>, endpoint: Endpoint<Msg>) {
    let mut last_heartbeat = std::time::Instant::now();
    while inner.running.load(Ordering::Relaxed) {
        match endpoint.recv(Duration::from_millis(50)) {
            Ok(env) => {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || {
                    let from = env.from;
                    let msg = env.msg.clone();
                    let reply = inner.handle(from, msg);
                    env.reply(reply);
                });
            }
            Err(NetError::Timeout) => {
                // Idle tick: renew this node's lease at the owning
                // servers so its cached locks aren't reaped. Servers renew
                // on every message, so a heartbeat is suppressed wherever
                // real traffic went recently.
                if last_heartbeat.elapsed() >= inner.cfg.heartbeat_interval {
                    last_heartbeat = std::time::Instant::now();
                    let now = std::time::Instant::now();
                    for server in inner.dir.servers() {
                        let recent = inner
                            .last_sent
                            .lock()
                            .get(&server.0)
                            .is_some_and(|at| {
                                now.duration_since(*at) < inner.cfg.heartbeat_interval
                            });
                        if recent {
                            inner.caller.stats().heartbeats_suppressed.inc();
                            continue;
                        }
                        if inner.caller.send(server, Msg::Heartbeat).is_ok() {
                            inner.note_sent(server);
                        }
                    }
                }
            }
            Err(_) => break,
        }
    }
}

impl NsInner {
    /// Records outbound traffic to `to` (feeds heartbeat suppression).
    fn note_sent(&self, to: NodeId) {
        self.last_sent.lock().insert(to.0, Instant::now());
    }

    /// An upstream call with send-time tracking, so the idle tick knows
    /// which servers real traffic already visited.
    fn call_srv(&self, to: NodeId, msg: Msg) -> Result<Msg, NetError> {
        self.note_sent(to);
        self.caller.call(to, msg, self.cfg.rpc_timeout)
    }

    fn handle(self: &Arc<Self>, from: NodeId, msg: Msg) -> Msg {
        // Unwrap piggybacked trailers from local applications: run them in
        // frame order before the carrier, returning only `TxnId` replies.
        let (msg, trailers) = match msg {
            Msg::WithTrailers { msg, trailers } => {
                self.caller.stats().trailers.add(trailers.len() as u64);
                (*msg, trailers)
            }
            m => (m, Vec::new()),
        };
        if !trailers.is_empty() {
            let mut t_replies = Vec::new();
            for t in trailers {
                let r = self.handle(from, t);
                if matches!(r, Msg::TxnId(_)) {
                    t_replies.push(r);
                }
            }
            let reply = self.handle(from, msg);
            return Msg::with_trailers(reply, t_replies);
        }
        match msg {
            Msg::BeginTxn => {
                let seq = self.next_txn.fetch_add(1, Ordering::Relaxed);
                Msg::TxnId((u64::from(self.cfg.node.0) << 32) | seq)
            }
            Msg::Lock { name, mode } => {
                match self.lock_for(TxnId(u64::from(from.0)), name, mode) {
                    Ok(()) => Msg::Granted,
                    Err(e) => Msg::Denied(e),
                }
            }
            Msg::FetchPage { page, mode } => {
                let name = LockName::Page {
                    area: page.area,
                    page: page.page,
                };
                if let Err(e) = self.lock_for(TxnId(u64::from(from.0)), name, mode) {
                    return Msg::Denied(e);
                }
                match self.page_bytes(page) {
                    Ok(data) => Msg::PageData(data),
                    Err(e) => Msg::Err(e),
                }
            }
            Msg::ReadPage { page } => match self.page_bytes(page) {
                Ok(data) => Msg::PageData(data),
                Err(e) => Msg::Err(e),
            },
            Msg::Commit { txn, updates, .. } => {
                let r = self.commit_for(txn, updates);
                self.end_local_txn(TxnId(u64::from(from.0)));
                match r {
                    Ok(()) => Msg::Ok,
                    Err(e) => Msg::Err(e),
                }
            }
            Msg::Abort { txn } => {
                let _ = txn;
                for (page, _) in self.cache.drain_dirty() {
                    self.cache.purge(page);
                }
                self.end_local_txn(TxnId(u64::from(from.0)));
                Msg::Ok
            }
            Msg::ReleaseAll => {
                self.end_local_txn(TxnId(u64::from(from.0)));
                Msg::Ok
            }
            // Disk-space requests are forwarded to the owning server.
            Msg::AllocSegment { area, .. }
            | Msg::FreeSegment { area, .. }
            | Msg::ReadAt { area, .. }
            | Msg::WriteAt { area, .. } => match self.dir.owner(area) {
                Some(owner) => self
                    .call_srv(owner, msg)
                    .unwrap_or_else(|e| Msg::Err(e.to_string())),
                None => Msg::Err(format!("no owner for area {area}")),
            },
            // A server calls back a lock this node caches.
            Msg::Callback { name } => {
                self.stats.callbacks.inc();
                self.wait_unshipped_for(&name);
                match self.lock_cache.callback(name) {
                    CallbackResponse::Released => {
                        if let LockName::Page { area, page } = name {
                            self.cache.purge(DbPage { area, page });
                        }
                        Msg::CallbackReleased
                    }
                    CallbackResponse::NotCached => {
                        if self.pending_locks.lock().contains(&name) {
                            self.raced_callbacks.lock().insert(name);
                            Msg::CallbackDeferred
                        } else {
                            if let LockName::Page { area, page } = name {
                                self.cache.purge(DbPage { area, page });
                            }
                            Msg::CallbackReleased
                        }
                    }
                    CallbackResponse::Deferred => Msg::CallbackDeferred,
                }
            }
            Msg::CallbackDowngrade { name, to } => {
                self.stats.callbacks.inc();
                self.wait_unshipped_for(&name);
                if self.lock_cache.callback_downgrade(name, to) {
                    Msg::CallbackReleased
                } else {
                    Msg::CallbackDeferred
                }
            }
            other => Msg::Err(format!("node server got unexpected: {other:?}")),
        }
    }

    /// Two-level locking: local strict 2PL among this node's applications,
    /// plus a node-level lock at the owning server (cached between
    /// transactions).
    fn lock_for(&self, txn: TxnId, name: LockName, mode: LockMode) -> Result<(), String> {
        self.local_locks
            .lock(txn, name, mode)
            .map_err(|e| e.to_string())?;
        match self.lock_cache.acquire(txn, name, mode) {
            CacheDecision::Hit => {
                self.stats.lock_local.inc();
                Ok(())
            }
            CacheDecision::Miss { need } => {
                self.stats.lock_remote.inc();
                let owner = match name {
                    LockName::Page { area, .. }
                    | LockName::Segment { area, .. }
                    | LockName::Object { area, .. } => self
                        .dir
                        .owner(area)
                        .ok_or_else(|| format!("no owner for area {area}"))?,
                    _ => self
                        .dir
                        .servers()
                        .first()
                        .copied()
                        .ok_or_else(|| "no servers".to_string())?,
                };
                self.pending_locks.lock().insert(name);
                let reply = self.call_srv(owner, Msg::Lock { name, mode: need });
                let out = match reply {
                    Ok(Msg::Granted) => {
                        self.lock_cache.grant(txn, name, need);
                        Ok(())
                    }
                    Ok(Msg::Denied(m)) => {
                        let _ = self.local_locks.unlock(txn, name);
                        Err(m)
                    }
                    Ok(other) => Err(format!("bad reply {other:?}")),
                    Err(e) => Err(e.to_string()),
                };
                self.pending_locks.lock().remove(&name);
                if self.raced_callbacks.lock().remove(&name) {
                    self.lock_cache.mark_callback_pending(name);
                }
                out
            }
        }
    }

    /// Serves page bytes from the shared cache, fetching from the owning
    /// server on a miss.
    fn page_bytes(&self, page: DbPage) -> Result<Vec<u8>, String> {
        match self.cache.get(page) {
            Ok(GetOutcome::Resident { slot, frame }) => {
                self.stats.cache_hits.inc();
                let mut buf = vec![0u8; self.cfg.page_size];
                self.cache.store().read(frame, 0, &mut buf);
                self.cache.dec_access(slot);
                Ok(buf)
            }
            Ok(GetOutcome::MustLoad {
                slot,
                frame,
                evicted,
            }) => {
                // The node server never holds uncommitted data, so dirty
                // evictions cannot occur; drop clean evictions silently.
                drop(evicted);
                match self.fetch_remote(page) {
                    Ok(data) => {
                        self.cache.store().write(frame, 0, &data);
                        self.cache.finish_load(slot, page);
                        self.cache.dec_access(slot);
                        Ok(data)
                    }
                    Err(e) => {
                        self.cache.abort_load(slot, page);
                        Err(e)
                    }
                }
            }
            Err(e) => {
                // Cache saturated: serve without caching.
                let _ = e;
                self.fetch_remote(page)
            }
        }
    }

    fn fetch_remote(&self, page: DbPage) -> Result<Vec<u8>, String> {
        self.stats.remote_fetches.inc();
        let owner = self
            .dir
            .owner(page.area)
            .ok_or_else(|| format!("no owner for area {}", page.area))?;
        match self.call_srv(owner, Msg::ReadPage { page }) {
            Ok(Msg::PageData(data)) => Ok(data),
            Ok(Msg::Err(e)) => Err(e),
            Ok(other) => Err(format!("bad reply {other:?}")),
            Err(e) => Err(e.to_string()),
        }
    }

    /// Commits a local transaction. With a local log (§6), durability is
    /// local — the updates ship to the owning servers afterwards; without
    /// one, the commit is forwarded synchronously (2PC when several
    /// servers own data).
    fn commit_for(self: &Arc<Self>, txn: u64, updates: Vec<PageUpdate>) -> Result<(), String> {
        if let Some(log) = self.local_log.clone() {
            if !updates.is_empty() {
                // 1. Locally durable commit.
                let begin = log.append(txn, Lsn::NULL, LogBody::Begin);
                let mut prev = begin;
                for u in &updates {
                    prev = log.append(
                        txn,
                        prev,
                        LogBody::Update {
                            page: LogPageId {
                                area: u.page.area,
                                page: u.page.page,
                            },
                            offset: u.offset,
                            before: u.before.clone(),
                            after: u.after.clone(),
                        },
                    );
                }
                let commit = log.append(txn, prev, LogBody::Commit);
                log.flush(commit).map_err(|e| e.to_string())?;
                self.stats.local_commits.inc();
                // 2. Refresh the shared cache now: the node is the
                //    authority for its committed transactions.
                self.refresh_cache(&updates);
                self.unshipped.lock().insert(txn, (commit, updates.clone()));
                // 3. Write-behind shipping.
                let inner = Arc::clone(self);
                std::thread::spawn(move || {
                    let ok = inner.ship(txn, &updates).is_ok();
                    let mut pending = inner.unshipped.lock();
                    if ok {
                        if let Some((commit, _)) = pending.remove(&txn) {
                            log.append(txn, commit, LogBody::End);
                        }
                    }
                    inner.ship_done.notify_all();
                });
                return Ok(());
            }
            return Ok(());
        }
        let r = self.ship(txn, &updates);
        if r.is_ok() {
            self.refresh_cache(&updates);
        }
        r
    }

    fn refresh_cache(&self, updates: &[PageUpdate]) {
        for u in updates {
            if let Some((_, frame)) = self.cache.slot_of(u.page) {
                self.cache
                    .store()
                    .write(frame, u.offset as usize, &u.after);
            }
        }
        self.cache.drain_dirty();
    }

    /// Node-restart recovery for the local log: find locally-committed
    /// transactions without a shipped (`End`) marker and re-ship them.
    fn recover_local_log(self: &Arc<Self>) -> u64 {
        let Some(log) = self.local_log.clone() else {
            return 0;
        };
        let mut txn_updates: HashMap<u64, Vec<PageUpdate>> = HashMap::new();
        let mut committed: HashMap<u64, Lsn> = HashMap::new();
        let mut shipped: std::collections::HashSet<u64> = std::collections::HashSet::new();
        for rec in log.iter() {
            match rec.body {
                LogBody::Update {
                    page,
                    offset,
                    ref before,
                    ref after,
                } => {
                    txn_updates.entry(rec.txn).or_default().push(PageUpdate {
                        page: DbPage {
                            area: page.area,
                            page: page.page,
                        },
                        offset,
                        before: before.clone(),
                        after: after.clone(),
                    });
                }
                LogBody::Commit => {
                    committed.insert(rec.txn, rec.lsn);
                }
                LogBody::End => {
                    shipped.insert(rec.txn);
                }
                _ => {}
            }
        }
        let mut reshipped = 0;
        let mut to_ship: Vec<(u64, Lsn)> = committed
            .iter()
            .filter(|(t, _)| !shipped.contains(t))
            .map(|(&t, &l)| (t, l))
            .collect();
        to_ship.sort_by_key(|&(_, l)| l);
        for (txn, commit) in to_ship {
            let updates = txn_updates.remove(&txn).unwrap_or_default();
            if self.ship(txn, &updates).is_ok() {
                log.append(txn, commit, LogBody::End);
                reshipped += 1;
                self.stats.reshipped.inc();
            }
        }
        let _ = log.flush_all();
        reshipped
    }

    /// Ships a commit to the owning servers (2PC when several own data).
    fn ship(&self, txn: u64, updates: &[PageUpdate]) -> Result<(), String> {
        let updates = updates.to_vec();
        let mut by_owner: HashMap<NodeId, Vec<PageUpdate>> = HashMap::new();
        for u in &updates {
            let owner = self
                .dir
                .owner(u.page.area)
                .ok_or_else(|| format!("no owner for area {}", u.page.area))?;
            by_owner.entry(owner).or_default().push(u.clone());
        }
        let outcome = match by_owner.len() {
            0 => Ok(()),
            1 => {
                self.stats.commits.inc();
                let (owner, ups) = by_owner.into_iter().next().expect("one");
                let req =
                    crate::client::make_req(self.incarnation, self.next_req.fetch_add(1, Ordering::Relaxed));
                match self.call_srv(
                    owner,
                    Msg::Commit {
                        txn,
                        updates: ups,
                        req,
                    },
                ) {
                    Ok(Msg::Ok) => Ok(()),
                    Ok(Msg::Err(e)) => Err(e),
                    Ok(other) => Err(format!("bad reply {other:?}")),
                    Err(e) => Err(e.to_string()),
                }
            }
            _ => {
                self.stats.global_commits.inc();
                let mut branches: Vec<(u32, Vec<PageUpdate>)> =
                    by_owner.into_iter().map(|(owner, ups)| (owner.0, ups)).collect();
                branches.sort_unstable_by_key(|(p, _)| *p);
                // The lowest-numbered owner coordinates.
                let coordinator = NodeId(branches[0].0);
                // A pooled id is only good at the coordinator that issued
                // it (the node is encoded in the id's high bits).
                let pooled = {
                    let mut pool = self.gtxn_pool.lock();
                    pool.iter()
                        .position(|g| coordinator_of(*g) == coordinator.0)
                        .map(|i| pool.swap_remove(i))
                };
                let gtxn = match pooled {
                    Some(g) => g,
                    None => match self.call_srv(coordinator, Msg::BeginGlobal) {
                        Ok(Msg::TxnId(g)) => g,
                        Ok(other) => return Err(format!("bad reply {other:?}")),
                        Err(e) => return Err(e.to_string()),
                    },
                };
                let req =
                    crate::client::make_req(self.incarnation, self.next_req.fetch_add(1, Ordering::Relaxed));
                // Every branch rides the commit frame; the `BeginGlobal`
                // trailer prefetches the id for this coordinator's next
                // round.
                let reply = self.call_srv(
                    coordinator,
                    Msg::with_trailers(
                        Msg::CommitGlobal {
                            gtxn,
                            participants: branches.iter().map(|(p, _)| *p).collect(),
                            req,
                            release_read_locks: false,
                            branches,
                        },
                        vec![Msg::BeginGlobal],
                    ),
                );
                let reply = match reply {
                    Ok(Msg::WithTrailers { msg, trailers }) => {
                        self.caller.stats().trailers.add(trailers.len() as u64);
                        let mut pool = self.gtxn_pool.lock();
                        pool.extend(trailers.into_iter().filter_map(|t| match t {
                            Msg::TxnId(g) => Some(g),
                            _ => None,
                        }));
                        Ok(*msg)
                    }
                    other => other,
                };
                match reply {
                    Ok(Msg::Decision { committed: true }) => Ok(()),
                    Ok(Msg::Decision { committed: false }) => Err("2PC aborted".into()),
                    Ok(other) => Err(format!("bad reply {other:?}")),
                    Err(e) => Err(e.to_string()),
                }
            }
        };
        outcome
    }

    /// Callback safety under write-behind shipping: before releasing a
    /// cached lock back to a server, every locally-committed-but-unshipped
    /// transaction touching that resource must reach the server, or the
    /// next reader would see stale bytes.
    fn wait_unshipped_for(&self, name: &LockName) {
        let LockName::Page { area, page } = *name else {
            // Conservative: wait for everything on non-page names.
            let mut pending = self.unshipped.lock();
            while !pending.is_empty() {
                self.ship_done.wait(&mut pending);
            }
            return;
        };
        let target = DbPage { area, page };
        let mut pending = self.unshipped.lock();
        while pending
            .values()
            .any(|(_, ups)| ups.iter().any(|u| u.page == target))
        {
            self.ship_done.wait(&mut pending);
        }
    }

    fn end_local_txn(&self, txn: TxnId) {
        self.local_locks.unlock_all(txn);
        let released = self.lock_cache.finish_txn(txn);
        let mut by_owner: HashMap<NodeId, Vec<LockName>> = HashMap::new();
        for name in released {
            if let LockName::Page { area, page } = name {
                self.cache.purge(DbPage { area, page });
            }
            let owner = match name {
                LockName::Page { area, .. }
                | LockName::Segment { area, .. }
                | LockName::Object { area, .. } => self.dir.owner(area),
                _ => self.dir.servers().first().copied(),
            };
            if let Some(owner) = owner {
                by_owner.entry(owner).or_default().push(name);
            }
        }
        for (owner, names) in by_owner {
            let _ = self.call_srv(owner, Msg::ReleaseCached { names });
        }
    }
}

/// A cloneable handle to a running node server, exposing the in-process
/// (shared-memory-mode) interface: "the interface provided by the node
/// server is the same in both modes, it is just the process boundaries
/// that differ" (§4.1).
#[derive(Clone)]
pub struct NodeHandle(Arc<NsInner>);

impl NodeHandle {
    /// The node server's shared cache.
    pub fn shared_cache(&self) -> &Arc<SharedCache> {
        &self.0.cache
    }

    /// A page source for shared-memory views (no IPC).
    pub fn shared_io(&self) -> Arc<dyn PageIo> {
        Arc::new(NsIo(Arc::clone(&self.0)))
    }

    /// Begins a local transaction.
    pub fn begin(&self) -> u64 {
        let seq = self.0.next_txn.fetch_add(1, Ordering::Relaxed);
        (u64::from(self.0.cfg.node.0) << 32) | seq
    }

    /// Acquires a lock for a local transaction.
    pub fn lock(&self, txn: u64, name: LockName, mode: LockMode) -> Result<(), String> {
        self.0.lock_for(TxnId(txn), name, mode)
    }

    /// Commits a local transaction with its page updates.
    pub fn commit(&self, txn: u64, updates: Vec<PageUpdate>) -> Result<(), String> {
        let r = self.0.commit_for(txn, updates);
        self.0.end_local_txn(TxnId(txn));
        r
    }

    /// Aborts a local transaction.
    pub fn abort(&self, txn: u64) {
        for (page, _) in self.0.cache.drain_dirty() {
            self.0.cache.purge(page);
        }
        self.0.end_local_txn(TxnId(txn));
    }
}

/// [`PageIo`] for shared-memory views attached to the node server's cache:
/// loads go through the node server's fetch logic (no IPC — this is the
/// in-process path); dirty write-backs never reach the servers directly
/// (commits ship diffs instead), so they are dropped.
struct NsIo(Arc<NsInner>);

impl PageIo for NsIo {
    fn load(&self, page: DbPage, buf: &mut [u8]) -> Result<(), String> {
        let data = self.0.fetch_remote(page)?;
        buf.copy_from_slice(&data[..buf.len()]);
        Ok(())
    }

    fn write_back(&self, page: DbPage, _data: &[u8]) -> Result<(), String> {
        // Uncommitted shared-cache pages must not overwrite server state;
        // the commit path ships diffs. Eviction of a dirty shared page
        // before commit would lose data, so purge-before-evict is enforced
        // by keeping dirty pages accessed (see SharedView).
        let _ = page;
        Ok(())
    }
}
