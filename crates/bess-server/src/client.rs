//! The client connection: transactions, lock caching, callbacks.
//!
//! A [`ClientConn`] is one application machine's attachment to the BeSS
//! world. What it does towards the servers — speaking the [`Msg`] protocol
//! to whichever server owns the data (per the [`Directory`]), caching
//! locks between transactions, answering server callbacks — is the
//! `Upstream` it shares with the node server. It adds what only a
//! connection with one transaction open at a time has: that transaction,
//! a local *overlay* of dirty pages so uncommitted state never reaches a
//! server before commit, and the *page images* on the cached locks when
//! `caching` is on (the §3 inter-transaction caching that callback locking
//! makes consistent).
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
//! ## Messages
//!
//! [`ClientConn::begin`] sends none: the transaction's first frame to its
//! home (or gateway) announces it. A run of pages a buffer pool asks for
//! together ([`PageIo::load_batch`]) costs one message per owner.
//!
//! It also implements [`PageIo`] (cache fills / write-backs for the
//! client's buffer pools) and [`DiskSpace`] (disk allocation and raw byte
//! I/O over RPC), which lets the entire `bess-segment` object machinery run
//! unchanged on a remote client.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use bess_cache::{DbPage, PageIo};
use bess_obs::{Counter, Group, LatencyHistogram, Registry};
use bess_lock::{CacheDecision, ImageStats, LockCache, LockMode, LockName, TxnId};
use bess_net::{NetError, Network, NodeId};
use bess_storage::{AreaId, DiskPtr, DiskSpace, StorageError, StorageResult};
use parking_lot::{Mutex, RwLock};

use crate::directory::Directory;
use crate::proto::{granted_prefix, Msg, PageUpdate, LEASE_LOST};
use crate::upstream::{
    page_lock, Shipment, Upstream, UpstreamConfig, UpstreamCounters, MAX_RETRIES, RETRY_BASE,
};

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

/// Opt-in message-saving behaviours. Default **off**: it changes the wire
/// conversation, and fault-injection tests pin exact message sequences for
/// the default client.
#[derive(Clone, Copy, Debug, Default)]
pub struct ClientOpts {
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
    /// Opt-in message-saving behaviours (off by default).
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
            max_retries: MAX_RETRIES,
            retry_base: RETRY_BASE,
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
    /// Messages that asked for locks and the pages under them — one page
    /// or several (`client.fetch_rpcs`).
    pub fetch_rpcs: Counter,
    /// Messages that asked for pages only, the locks being held
    /// (`client.read_rpcs`).
    pub read_rpcs: Counter,
    /// Pages those two kinds of message brought back
    /// (`client.pages_fetched`).
    pub pages_fetched: Counter,
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
            pages_fetched: group.counter("pages_fetched"),
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
    up: Upstream,
    overlay: Mutex<HashMap<DbPage, Vec<u8>>>,
    current_txn: Mutex<Option<u64>>,
    /// Called when a callback releases a page lock so the owning pool can
    /// drop its copy of the page (cache consistency).
    purge_hook: Arc<RwLock<Option<PurgeHook>>>,
    /// Lock mode used for implicit read fetches (S by default; IS when the
    /// session runs software object-level locking and serialises on object
    /// locks instead).
    read_mode: Mutex<LockMode>,
    /// Sequence for transaction ids.
    // LINT: allow(raw-counter) — txn-id allocator, not a metric
    next_local_txn: AtomicU64,
    /// [`Upstream::lease_epoch`] when the open transaction began. A
    /// transaction that was open when a lease was found lost may have read
    /// images that were no longer valid, so it cannot commit.
    // LINT: allow(raw-counter) — an epoch compared for equality, not a metric
    txn_lease_epoch: AtomicU64,
    running: Arc<AtomicBool>,
    listener: Mutex<Option<JoinHandle<()>>>,
    group: Group,
    stats: ClientStats,
    /// Full client-observed round-trip of a commit RPC, send to reply
    /// (`client.commit.rtt.ns`).
    commit_rtt_ns: LatencyHistogram,
}

fn space_refusal(reply: Msg) -> StorageError {
    match reply {
        Msg::Err(e) => StorageError::Corrupt(e),
        other => StorageError::Corrupt(format!("bad reply {other:?}")),
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
        let stats = ClientStats::new(&group);
        let lock_cache = Arc::new(LockCache::with_image_stats(ImageStats::new(
            &group.sub("page_cache"),
        )));
        // One dump of ClientConn::metrics shows client.* beside the
        // lock.cache.* counters that explain its RPC savings.
        group.registry().adopt("", lock_cache.metrics().registry());
        let purge_hook: Arc<RwLock<Option<PurgeHook>>> = Arc::default();
        // The session's business (its pool drops the page); the name's
        // image went with its lock.
        let purge = {
            let purge_hook = Arc::clone(&purge_hook);
            Box::new(move |name| {
                let hook = purge_hook.read().clone();
                if let Some(hook) = hook {
                    hook(name);
                }
            })
        };
        let up = Upstream::new(
            UpstreamConfig {
                node: cfg.node,
                home: Some(cfg.home),
                gateway: cfg.gateway,
                rpc_timeout: cfg.rpc_timeout,
                heartbeat_interval: cfg.heartbeat_interval,
                max_retries: cfg.max_retries,
                retry_base: cfg.retry_base,
                stamps: cfg.caching && cfg.gateway.is_none(),
            },
            dir,
            net.caller(cfg.node),
            lock_cache,
            purge,
            UpstreamCounters {
                lock_hits: stats.lock_cache_hits.clone(),
                lock_rpcs: stats.lock_rpcs.clone(),
                fetch_rpcs: stats.fetch_rpcs.clone(),
                read_rpcs: stats.read_rpcs.clone(),
                pages_fetched: stats.pages_fetched.clone(),
                callbacks: stats.callbacks.clone(),
                retries: stats.retries.clone(),
                heartbeats: stats.heartbeats.clone(),
                leases_lost: stats.leases_lost.clone(),
            },
        );
        let conn = Arc::new(ClientConn {
            cfg,
            up,
            overlay: Mutex::new(HashMap::new()),
            current_txn: Mutex::new(None),
            purge_hook,
            read_mode: Mutex::new(LockMode::S),
            next_local_txn: AtomicU64::new(1),
            txn_lease_epoch: AtomicU64::new(0),
            running: Arc::new(AtomicBool::new(true)),
            listener: Mutex::new(None),
            stats,
            commit_rtt_ns: group.histogram("commit.rtt.ns"),
            group,
        });
        let listener_conn = Arc::clone(&conn);
        let running = Arc::clone(&conn.running);
        let handle = std::thread::spawn(move || {
            while running.load(Ordering::Relaxed) {
                match endpoint.recv(Duration::from_millis(50)) {
                    Ok(env) => {
                        let reply = listener_conn.up.on_message(env.from, &env.msg);
                        env.reply(reply);
                    }
                    Err(NetError::Timeout) => listener_conn.up.tick(),
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
        self.up.lock_cache()
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

    // ---- transactions ----------------------------------------------------

    /// Begins a transaction, with no message: the id is allocated here —
    /// top bit set, node in bits 32..63, which no server-issued (global)
    /// id can collide with — and the transaction's first frame to the home
    /// server (or the gateway) announces it. That frame is what a draining
    /// server refuses.
    pub fn begin(&self) -> ClientResult<u64> {
        let seq = self.next_local_txn.fetch_add(1, Ordering::Relaxed);
        let txn = (1u64 << 63) | (u64::from(self.cfg.node.0) << 32) | (seq & 0xFFFF_FFFF);
        self.up.announce(TxnId(txn));
        self.txn_lease_epoch.store(self.up.lease_epoch(), Ordering::SeqCst);
        *self.current_txn.lock() = Some(txn);
        Ok(txn)
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
        self.up.lock(TxnId(txn), name, mode)
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
        let lock_cache = self.up.lock_cache();
        let (decision, image) = if images {
            lock_cache.acquire_image(TxnId(txn), name, mode)
        } else {
            (lock_cache.acquire(TxnId(txn), name, mode), None)
        };
        let need = match decision {
            CacheDecision::Hit => {
                self.stats.lock_cache_hits.inc();
                if let Some(data) = image {
                    return Ok(data);
                }
                None
            }
            CacheDecision::Miss { need } => Some(need),
        };
        let data = self.up.fetch_page(Some(TxnId(txn)), page, need)?;
        if images {
            // This transaction is a user of the lock, so no callback
            // released it since the server read the page.
            lock_cache.put_image(name, &data);
        }
        Ok(data)
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
            if let Some(data) = self.up.lock_cache().image(page_lock(page)) {
                return Ok(data);
            }
        }
        self.read_page_rpc(page)
    }

    fn read_page_rpc(&self, page: DbPage) -> ClientResult<Vec<u8>> {
        self.up.fetch_page(self.current_txn().map(TxnId), page, None)
    }

    /// [`Self::fetch_page`] under the read mode for several pages at once,
    /// around the page images: the pages' lock-cache misses and the pages
    /// themselves in one message per owner. Returns the content of the
    /// pages up to the first whose lock was denied — at least the first
    /// page's, or its error.
    pub(crate) fn fetch_pages(&self, pages: &[DbPage]) -> ClientResult<Vec<Vec<u8>>> {
        let txn = self.current_txn().ok_or(ClientError::NoTxn)?;
        let mode = self.read_mode();
        let shadowed = {
            let overlay = self.overlay.lock();
            pages.iter().any(|p| overlay.contains_key(p))
        };
        if shadowed {
            // Uncommitted local state shadows the server, page by page.
            return granted_prefix(pages.iter().map(|&page| self.fetch_inner(page, mode, false)));
        }
        let lock_cache = self.up.lock_cache();
        let requests: Vec<(DbPage, Option<LockMode>)> = pages
            .iter()
            .map(|&page| match lock_cache.acquire(TxnId(txn), page_lock(page), mode) {
                CacheDecision::Hit => {
                    self.stats.lock_cache_hits.inc();
                    (page, None)
                }
                CacheDecision::Miss { need } => (page, Some(need)),
            })
            .collect();
        self.up.fetch_pages(Some(TxnId(txn)), &requests)
    }

    /// Commits the active transaction with the given page updates. Groups
    /// updates by owning server; multiple owners trigger two-phase commit
    /// through the home server (§3).
    pub fn commit(&self, updates: Vec<PageUpdate>) -> ClientResult<()> {
        let txn = self.current_txn().ok_or(ClientError::NoTxn)?;
        if self.up.lease_epoch() != self.txn_lease_epoch.load(Ordering::SeqCst) {
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
        // Only applied to non-caching connections: a caching client's
        // locks must survive the transaction.
        let release_read_locks = self.cfg.opts.release_read_locks && !self.effective_caching();
        let shipment = self.up.route(updates, release_read_locks)?;
        let one_owner = matches!(shipment, Shipment::OneOwner(..));
        let result = self.up.ship(TxnId(txn), txn, shipment);
        if one_owner && matches!(result, Err(ClientError::Net(_))) {
            // No answer: the transaction stays open for the caller to
            // abort.
            self.settle_images(&patches, false);
            return result;
        }
        // Only an acknowledged commit counts as a commit; a rejection or
        // global abort is a distinct outcome.
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
                self.up.lock_cache().patch_image(*name, *offset, after);
            } else {
                self.up.lock_cache().drop_image(*name);
            }
        }
    }

    /// Aborts the active transaction: uncommitted pages are discarded and
    /// (for non-caching clients) locks released. The servers are told only
    /// of a transaction they have heard of.
    pub fn abort(&self) -> ClientResult<()> {
        let txn = self.current_txn().ok_or(ClientError::NoTxn)?;
        self.up.abort(TxnId(txn));
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
            self.up.release_finished(TxnId(txn));
        } else {
            // Transaction-duration caching (§3): drop everything. The
            // servers hear of it with the next frame, or the next tick.
            self.up.release_all();
        }
        Ok(())
    }

    /// Disconnects: stops the listener and releases every cached lock
    /// (release debts are paid now).
    pub fn disconnect(&self) {
        self.up.close();
        self.stop_listener();
    }

    /// The listener's idle tick, now.
    #[cfg(test)]
    pub(crate) fn tick_now(&self) {
        self.up.tick();
    }

    fn stop_listener(&self) {
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

    /// One disk-space request to the owner of `area`.
    fn space_rpc(&self, area: u32, msg: Msg) -> StorageResult<Msg> {
        self.up
            .owner_of(area)
            .and_then(|owner| self.up.rpc(owner, msg, self.current_txn().map(TxnId)))
            .map_err(|e| StorageError::Corrupt(e.to_string()))
    }
}

impl Drop for ClientConn {
    fn drop(&mut self) {
        self.stop_listener();
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

    fn load_batch(&self, pages: &[DbPage], page_size: usize) -> Vec<Result<Vec<u8>, String>> {
        if self.0.current_txn().is_none() {
            // No locks to ask for: nothing is saved by asking together.
            let load = |&page| {
                let mut buf = vec![0u8; page_size];
                self.load(page, &mut buf).map(|()| buf)
            };
            return pages.iter().map(load).collect();
        }
        match self.0.fetch_pages(pages) {
            Ok(fetched) => {
                let unfetched = pages.iter().skip(fetched.len());
                let fetched = fetched.into_iter().map(|mut data| {
                    data.truncate(page_size);
                    Ok(data)
                });
                let unfetched = unfetched.map(|p| Err(format!("{p}: the fetch ended before it")));
                fetched.chain(unfetched).collect()
            }
            Err(e) => vec![Err(e.to_string()); pages.len()],
        }
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
        match self.0.space_rpc(area, Msg::AllocSegment { area, pages })? {
            Msg::DiskSeg {
                area,
                start_page,
                pages,
            } => Ok(DiskPtr {
                area: AreaId(area),
                start_page,
                pages,
            }),
            other => Err(space_refusal(other)),
        }
    }

    fn free(&self, ptr: DiskPtr) -> StorageResult<()> {
        let request = Msg::FreeSegment {
            area: ptr.area.0,
            start_page: ptr.start_page,
            pages: ptr.pages,
        };
        match self.0.space_rpc(ptr.area.0, request)? {
            Msg::Ok => Ok(()),
            other => Err(space_refusal(other)),
        }
    }

    fn read_at(&self, area: u32, page: u64, offset: usize, buf: &mut [u8]) -> StorageResult<()> {
        let request = Msg::ReadAt {
            area,
            page,
            // LINT: allow(cast) — `offset` lies within one page, far below u32::MAX.
            offset: offset as u32,
            len: buf.len() as u32,
        };
        match self.0.space_rpc(area, request)? {
            Msg::Bytes(data) => {
                buf.copy_from_slice(&data);
                Ok(())
            }
            other => Err(space_refusal(other)),
        }
    }

    fn write_at(&self, area: u32, page: u64, offset: usize, data: &[u8]) -> StorageResult<()> {
        // A raw write changes the page behind its image's back.
        self.0.up.lock_cache().drop_image(LockName::Page { area, page });
        let request = Msg::WriteAt {
            area,
            page,
            // LINT: allow(cast) — `offset` lies within one page, far below u32::MAX.
            offset: offset as u32,
            data: data.to_vec(),
        };
        match self.0.space_rpc(area, request)? {
            Msg::Ok => Ok(()),
            other => Err(space_refusal(other)),
        }
    }
}
