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
//! * **shared memory** — in-process, through a [`NodeHandle`] and the
//!   shared cache it gives out, paying no IPC at all.
//!
//! The client half is the `Upstream` a [`crate::ClientConn`] is built on
//! too; here is what only a node server has: the shared cache, local
//! strict 2PL, the §6 local log with its write-behind shipping, the loop.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bess_obs::{Counter, Group, Registry};
use bess_cache::{DbPage, GetOutcome, PageIo, SharedCache};
use bess_lock::{CacheDecision, LockCache, LockManager, LockMode, LockName, TxnId};
use bess_net::{Endpoint, Network, NodeId};
use bess_vm::PageStore;
use bess_wal::{LogBody, LogManager, Lsn};
use parking_lot::{Condvar, Mutex};

use crate::client::{ClientError, ClientResult};
use crate::directory::Directory;
use crate::pipeline::{log_write_set, write_sets_of, LoggedWriteSet};
use crate::proto::{granted_prefix, single_page_reply, Msg, PageUpdate};
use crate::serve::{serve, IDLE_TICK};
use crate::upstream::{
    page_lock, reply_for, Shipment, Upstream, UpstreamConfig, UpstreamCounters, MAX_RETRIES,
    RETRY_BASE,
};

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
    /// Messages that fetched them (`nodeserver.fetch_messages`).
    pub fetch_messages: Counter,
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
            fetch_messages: group.counter("fetch_messages"),
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
    /// The node as a client of the owning servers, with the node-level
    /// cache of the locks they granted.
    up: Upstream,
    cache: Arc<SharedCache>,
    /// Local strict-2PL among the node's applications.
    local_locks: LockManager,
    /// §6 client logging: the node's local write-ahead log. Commits become
    /// durable here first; shipping to the owning servers is write-behind.
    local_log: Option<Arc<LogManager>>,
    /// Transactions locally committed but not yet acknowledged by their
    /// owning servers: `txn -> (commit LSN, updates)`.
    unshipped: Mutex<HashMap<u64, (Lsn, Vec<PageUpdate>)>>,
    ship_done: Condvar,
    // LINT: allow(raw-counter) — local transaction-id allocator, not a metric
    next_txn: AtomicU64,
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
        let stats = NodeServerStats::new(&group);
        // Purging a name here means the shared cache forgets the page.
        let purge = {
            let cache = Arc::clone(&cache);
            Box::new(move |name| {
                if let LockName::Page { area, page } = name {
                    cache.purge(DbPage { area, page });
                }
            })
        };
        let up = Upstream::new(
            UpstreamConfig {
                node: cfg.node,
                home: None,
                gateway: None,
                rpc_timeout: cfg.rpc_timeout,
                heartbeat_interval: cfg.heartbeat_interval,
                max_retries: MAX_RETRIES,
                retry_base: RETRY_BASE,
                // No page images (callbacks purge the shared cache, and
                // what a write-behind shipment should do under a lost
                // lease is undecided): no stamp, DESIGN.md §11.
                stamps: false,
            },
            dir,
            net.caller(cfg.node),
            Arc::new(LockCache::new()),
            purge,
            UpstreamCounters {
                lock_hits: stats.lock_local.clone(),
                lock_rpcs: stats.lock_remote.clone(),
                fetch_rpcs: stats.fetch_messages.clone(),
                read_rpcs: stats.fetch_messages.clone(),
                pages_fetched: stats.remote_fetches.clone(),
                callbacks: stats.callbacks.clone(),
                ..UpstreamCounters::default()
            },
        );
        let inner = Arc::new(NsInner {
            up,
            local_locks: LockManager::new(cfg.lock_timeout),
            local_log,
            unshipped: Mutex::new(HashMap::new()),
            ship_done: Condvar::new(),
            cache,
            next_txn: AtomicU64::new(1),
            running: AtomicBool::new(true),
            stats,
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
            reg.adopt("", inner.up.lock_cache().metrics().registry());
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
        self.inner.up.lock_cache()
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
    pub fn shutdown(self) {
        // Bounded drain: shipments that cannot complete (an owner is down)
        // stay in the local log and re-ship at the next start.
        let deadline = Instant::now() + self.inner.cfg.rpc_timeout;
        let mut pending = self.inner.unshipped.lock();
        while !pending.is_empty()
            && !self.inner.ship_done.wait_until(&mut pending, deadline).timed_out()
        {}
        let all_shipped = pending.is_empty();
        drop(pending);
        // The unshipped transactions' locks stay at the servers.
        if all_shipped {
            self.inner.up.close();
        }
        // Dropping `self` stops the serve loop.
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
    let handler = Arc::clone(&inner);
    // Housekeeping renews this node's lease, under load as often as idle.
    let handle = move |from, msg| handler.handle(from, msg);
    serve(&endpoint, &inner.running, handle, IDLE_TICK, || inner.up.tick());
}

impl NsInner {
    fn handle(self: &Arc<Self>, from: NodeId, msg: Msg) -> Msg {
        // Unwrap piggybacked trailers from local applications: run them in
        // frame order before the carrier, returning only `TxnId` replies.
        let (msg, trailers) = msg.into_trailers();
        if !trailers.is_empty() {
            self.up.net_stats().trailers.add(trailers.len() as u64);
            let replies = trailers.into_iter().map(|t| self.handle(from, t));
            let t_replies = replies.filter(|r| matches!(r, Msg::TxnId(_))).collect();
            return Msg::with_trailers(self.handle(from, msg), t_replies);
        }
        // A local application's locks are held under its node's name.
        let app = TxnId(u64::from(from.0));
        match msg {
            // The application's transaction is announced to the owning
            // servers by the first frame this node sends them for it.
            Msg::BeginTxn => {
                self.up.announce(app);
                Msg::Ok
            }
            Msg::Lock { name, mode } => self
                .lock_for(app, name, mode)
                .map_or_else(Msg::Denied, |()| Msg::Granted),
            Msg::FetchPage { page, mode } => {
                single_page_reply(self.fetch_for(app, &[(page, Some(mode))]))
            }
            Msg::ReadPage { page } => single_page_reply(self.fetch_for(app, &[(page, None)])),
            Msg::FetchPages { pages } => match self.fetch_for(app, &pages) {
                Ok(data) => Msg::PagesData(data),
                Err(refusal) => refusal,
            },
            Msg::Commit { txn, updates, .. } => self
                .commit_for(app, txn, updates)
                .map_or_else(Msg::Err, |()| Msg::Ok),
            Msg::Abort { .. } => {
                self.abort_for(app);
                Msg::Ok
            }
            Msg::ReleaseAll => {
                self.end_local_txn(app);
                Msg::Ok
            }
            // Disk-space requests are forwarded to the owning server.
            Msg::AllocSegment { area, .. }
            | Msg::FreeSegment { area, .. }
            | Msg::ReadAt { area, .. }
            | Msg::WriteAt { area, .. } => self
                .up
                .owner_of(area)
                .and_then(|owner| self.up.rpc(owner, msg, None))
                .unwrap_or_else(|e| Msg::Err(e.to_string())),
            // A server calls back a lock this node caches.
            Msg::Callback { name } | Msg::CallbackDowngrade { name, .. } => {
                self.wait_unshipped_for(&name);
                self.up.on_message(from, &msg)
            }
            other => Msg::Err(format!("node server got unexpected: {other:?}")),
        }
    }

    /// A fresh local transaction id.
    fn begin(&self) -> u64 {
        let seq = self.next_txn.fetch_add(1, Ordering::Relaxed);
        (u64::from(self.cfg.node.0) << 32) | seq
    }

    /// Two-level locking: local strict 2PL among this node's applications,
    /// plus a node-level lock at the owning server (cached between
    /// transactions).
    fn lock_for(&self, txn: TxnId, name: LockName, mode: LockMode) -> Result<(), String> {
        self.local_locks
            .lock(txn, name, mode)
            .map_err(|e| e.to_string())?;
        self.up.lock(txn, name, mode).map_err(|e| match e {
            ClientError::Denied(m) => {
                let _ = self.local_locks.unlock(txn, name);
                m
            }
            other => other.to_string(),
        })
    }

    /// Serves `pages` to local transaction `app`: each under the lock mode
    /// given (`None`: the application holds the lock). Local 2PL locks are
    /// taken in request order and the first denial ends the request. Then
    /// the node's lock cache and the shared cache are consulted together,
    /// and each page costs its owner at most one message:
    ///
    /// | node-level lock | page in the shared cache | sent |
    /// |---|---|---|
    /// | missed | absent | lock and page in one ([`Upstream::fetch_pages`]) |
    /// | cached | absent | the page (same message, no mode) |
    /// | missed | resident | the lock ([`Upstream::request_lock`]) |
    /// | cached | resident | nothing |
    ///
    /// The absent pages of one owner travel together. Returns the content
    /// of the pages up to the first that could not be locked or read — or,
    /// when that is the first page, the reply that says why.
    fn fetch_for(
        &self,
        app: TxnId,
        pages: &[(DbPage, Option<LockMode>)],
    ) -> Result<Vec<Vec<u8>>, Msg> {
        let mut locked = 0;
        for &(page, mode) in pages {
            if let Some(mode) = mode {
                if let Err(e) = self.local_locks.lock(app, page_lock(page), mode) {
                    if locked == 0 {
                        return Err(Msg::Denied(e.to_string()));
                    }
                    break;
                }
            }
            locked += 1;
        }
        let served = self.serve_locked(app, &pages[..locked]);
        // What was locked for pages that are not served is given back, as
        // a denied `Lock` gives its local lock back.
        let kept = served.as_ref().map_or(0, Vec::len);
        for &(page, mode) in &pages[kept..locked] {
            if mode.is_some() {
                let _ = self.local_locks.unlock(app, page_lock(page));
            }
        }
        served.map_err(reply_for)
    }

    /// [`Self::fetch_for`] below the local locks.
    fn serve_locked(
        &self,
        app: TxnId,
        pages: &[(DbPage, Option<LockMode>)],
    ) -> ClientResult<Vec<Vec<u8>>> {
        // `pages[..reach]` can still be served. Residency is only peeked
        // at: a slot is claimed after the owners answered, never held
        // across a message, so two requests for overlapping pages cannot
        // wait for each other's loads.
        let mut reach = pages.len();
        let mut absent: Vec<(usize, Option<LockMode>)> = Vec::new();
        for (i, &(page, mode)) in pages.iter().enumerate() {
            let name = page_lock(page);
            let need = mode.and_then(|mode| match self.up.probe(app, name, mode) {
                CacheDecision::Hit => None,
                CacheDecision::Miss { need } => Some(need),
            });
            if self.cache.slot_of(page).is_none() {
                absent.push((i, need));
            } else if let Some(need) = need {
                match self.up.request_lock(app, name, need) {
                    Ok(()) => {}
                    Err(e) if i == 0 => return Err(e),
                    Err(_) => {
                        reach = i;
                        break;
                    }
                }
            }
        }
        let mut fetched = Vec::new();
        if let Some(&(first, _)) = absent.first() {
            let requests: Vec<_> = absent.iter().map(|&(i, need)| (pages[i].0, need)).collect();
            match self.up.fetch_pages(Some(app), &requests) {
                Ok(data) => fetched = data,
                Err(e) if first == 0 => return Err(e),
                Err(_) => {}
            }
            if let Some(&(unfetched, _)) = absent.get(fetched.len()) {
                reach = unfetched;
            }
        }
        let mut fetched = absent.iter().map(|&(i, _)| i).zip(fetched).peekable();
        let served = pages[..reach].iter().enumerate().map(|(i, &(page, _))| {
            match fetched.next_if(|(at, _)| *at == i) {
                Some((_, data)) => {
                    self.install(page, &data);
                    Ok(data)
                }
                None => self.page_bytes(page),
            }
        });
        granted_prefix(served)
    }

    /// Serves page bytes from the shared cache, fetching from the owning
    /// server on a miss; the lock is held.
    fn page_bytes(&self, page: DbPage) -> ClientResult<Vec<u8>> {
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
                let loaded = self.fetch_remote(page);
                match &loaded {
                    Ok(data) => self.complete_load(slot, frame, page, data),
                    Err(_) => self.cache.abort_load(slot, page),
                }
                loaded
            }
            // Cache saturated: serve without caching.
            Err(_) => self.fetch_remote(page),
        }
    }

    /// Completes the load of `page` into the slot [`SharedCache::get`]
    /// handed out.
    fn complete_load(&self, slot: usize, frame: bess_vm::FrameId, page: DbPage, data: &[u8]) {
        self.cache.store().write(frame, 0, data);
        self.cache.finish_load(slot, page);
        self.cache.dec_access(slot);
    }

    /// Keeps `data`, just fetched from `page`'s owner, in the shared cache.
    fn install(&self, page: DbPage, data: &[u8]) {
        match self.cache.get(page) {
            Ok(GetOutcome::MustLoad {
                slot,
                frame,
                evicted,
            }) => {
                drop(evicted);
                self.complete_load(slot, frame, page, data);
            }
            // Another application's fetch of it got here first.
            Ok(GetOutcome::Resident { slot, .. }) => self.cache.dec_access(slot),
            // Cache saturated: served without caching.
            Err(_) => {}
        }
    }

    fn fetch_remote(&self, page: DbPage) -> ClientResult<Vec<u8>> {
        self.up.fetch_page(None, page, None)
    }

    /// Commits the local transaction `app` holds its locks under, as `txn`,
    /// and ends it. With a local log (§6), durability is local — the
    /// updates ship to the owning servers afterwards; without one, the
    /// commit is forwarded synchronously (2PC when several servers own
    /// data).
    fn commit_for(self: &Arc<Self>, app: TxnId, txn: u64, updates: Vec<PageUpdate>) -> Result<(), String> {
        let r = match self.local_log.clone() {
            Some(_) if updates.is_empty() => Ok(()),
            Some(log) => self.commit_locally(&log, txn, updates),
            None => self.ship(app, txn, &updates).map(|()| self.refresh_cache(&updates)),
        };
        self.end_local_txn(app);
        r
    }

    fn commit_locally(
        self: &Arc<Self>,
        log: &Arc<LogManager>,
        txn: u64,
        updates: Vec<PageUpdate>,
    ) -> Result<(), String> {
        // 1. Locally durable commit.
        let (_, commit) = log_write_set(log, txn, &updates, LogBody::Commit);
        log.flush(commit).map_err(|e| e.to_string())?;
        self.stats.local_commits.inc();
        // 2. Refresh the shared cache now: the node is the authority for
        //    its committed transactions.
        self.refresh_cache(&updates);
        self.unshipped.lock().insert(txn, (commit, updates.clone()));
        // 3. Write-behind shipping.
        let (inner, log) = (Arc::clone(self), Arc::clone(log));
        std::thread::spawn(move || {
            let ok = inner.ship(TxnId(txn), txn, &updates).is_ok();
            let mut pending = inner.unshipped.lock();
            if ok {
                if let Some((commit, _)) = pending.remove(&txn) {
                    log.append(txn, commit, LogBody::End);
                }
            }
            inner.ship_done.notify_all();
        });
        Ok(())
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
        let mut unshipped: HashSet<u64> = HashSet::new();
        for rec in log.iter() {
            match rec.body {
                LogBody::Commit => {
                    unshipped.insert(rec.txn);
                }
                LogBody::End => {
                    unshipped.remove(&rec.txn);
                }
                _ => {}
            }
        }
        let mut reshipped = 0;
        let mut to_ship: Vec<(u64, LoggedWriteSet)> =
            write_sets_of(&log, &unshipped).into_iter().collect();
        to_ship.sort_by_key(|(_, set)| set.last);
        for (txn, set) in to_ship {
            if self.ship(TxnId(txn), txn, &set.updates).is_ok() {
                log.append(txn, set.last, LogBody::End);
                reshipped += 1;
                self.stats.reshipped.inc();
            }
        }
        let _ = log.flush_all();
        reshipped
    }

    /// Ships a commit to the owning servers (2PC when several own data);
    /// `holder` as for [`Upstream::ship`] (write-behind shipments have none
    /// any more: they pass the transaction itself).
    fn ship(&self, holder: TxnId, txn: u64, updates: &[PageUpdate]) -> Result<(), String> {
        let shipment = self
            .up
            .route(updates.to_vec(), false)
            .map_err(|e| e.to_string())?;
        match shipment {
            Shipment::Nothing => {}
            Shipment::OneOwner(..) => {
                self.stats.commits.inc();
            }
            Shipment::TwoPhase { .. } => {
                self.stats.global_commits.inc();
            }
        }
        self.up.ship(holder, txn, shipment).map_err(|e| e.to_string())
    }

    /// Callback safety under write-behind shipping: before releasing a
    /// cached lock back to a server, every locally-committed-but-unshipped
    /// transaction touching that resource must reach the server, or the
    /// next reader would see stale bytes.
    fn wait_unshipped_for(&self, name: &LockName) {
        let touches = |updates: &[PageUpdate]| match *name {
            LockName::Page { area, page } => updates.iter().any(|u| u.page == DbPage { area, page }),
            // Conservative: wait for everything on non-page names.
            _ => true,
        };
        let mut pending = self.unshipped.lock();
        while pending.values().any(|(_, updates)| touches(updates)) {
            self.ship_done.wait(&mut pending);
        }
    }

    fn end_local_txn(&self, txn: TxnId) {
        self.local_locks.unlock_all(txn);
        self.up.release_finished(txn);
    }

    /// Aborts a local transaction: its dirty (uncommitted) pages are
    /// purged so later readers refetch clean content from the owning
    /// servers.
    fn abort_for(&self, txn: TxnId) {
        for (page, _) in self.cache.drain_dirty() {
            self.cache.purge(page);
        }
        self.end_local_txn(txn);
    }
}

/// A cloneable handle to a running node server, exposing the in-process
/// (shared-memory-mode) interface: "the interface provided by the node
/// server is the same in both modes, it is just the process boundaries
/// that differ" (§4.1).
#[derive(Clone)]
pub struct NodeHandle(Arc<NsInner>);

impl NodeHandle {
    /// The shared cache (Figure 3) — shared-memory-mode applications attach
    /// [`bess_cache::SharedView`]s to it directly.
    pub fn shared_cache(&self) -> &Arc<SharedCache> {
        &self.0.cache
    }

    /// A [`PageIo`] that shared-memory-mode views use to fill misses: it
    /// routes through the node server's fetch logic (locks at the owning
    /// server under the node's identity) without any IPC.
    pub fn shared_io(&self) -> Arc<dyn PageIo> {
        Arc::new(NsIo(Arc::clone(&self.0)))
    }

    /// Begins a local transaction.
    pub fn begin(&self) -> u64 {
        self.0.begin()
    }

    /// Acquires a lock for a local transaction.
    pub fn lock(&self, txn: u64, name: LockName, mode: LockMode) -> Result<(), String> {
        self.0.lock_for(TxnId(txn), name, mode)
    }

    /// Commits a local transaction with its page updates.
    pub fn commit(&self, txn: u64, updates: Vec<PageUpdate>) -> Result<(), String> {
        self.0.commit_for(TxnId(txn), txn, updates)
    }

    /// Aborts a local transaction.
    pub fn abort(&self, txn: u64) {
        self.0.abort_for(TxnId(txn));
    }
}

/// [`PageIo`] for shared-memory views attached to the node server's cache:
/// loads go through the node server's fetch logic (no IPC — this is the
/// in-process path); dirty write-backs never reach the servers directly
/// (commits ship diffs instead), so they are dropped.
struct NsIo(Arc<NsInner>);

impl PageIo for NsIo {
    fn load(&self, page: DbPage, buf: &mut [u8]) -> Result<(), String> {
        let data = self.0.fetch_remote(page).map_err(|e| e.to_string())?;
        buf.copy_from_slice(&data[..buf.len()]);
        Ok(())
    }

    fn write_back(&self, _page: DbPage, _data: &[u8]) -> Result<(), String> {
        // Uncommitted shared-cache pages must not overwrite server state;
        // the commit path ships diffs. Eviction of a dirty shared page
        // before commit would lose data, so purge-before-evict is enforced
        // by keeping dirty pages accessed (see SharedView).
        Ok(())
    }
}
