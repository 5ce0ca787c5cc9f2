//! The upstream connection: what a node does *towards the owning servers*.
//!
//! "Each BeSS node server is a client of the BeSS servers that acts as a
//! server for the local applications" (§3) — so the client half exists
//! once, here, under both [`crate::ClientConn`] and [`crate::NodeServer`].
//! Every method takes the transaction explicitly: an [`Upstream`] does not
//! know whether one transaction or many are open above it, nor where the
//! pages it locks are kept. What *purging* a released name means, where
//! the traffic is counted and whether requests carry a lease stamp are
//! fixed by the owner when it builds the upstream.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use bess_cache::DbPage;
use bess_lock::{CacheDecision, CallbackResponse, LockCache, LockMode, LockName, TxnId};
use bess_net::{Caller, NetError, NetStats, NodeId};
use bess_obs::Counter;
use parking_lot::{Condvar, Mutex};

use crate::client::{ClientError, ClientResult};
use crate::directory::Directory;
use crate::proto::{GTxn, Msg, PageUpdate, DRAINING, LEASE_LOST};

/// Retries per RPC, and the base delay of their backoff, where the owner's
/// configuration does not say.
pub(crate) const MAX_RETRIES: u32 = 3;
pub(crate) const RETRY_BASE: Duration = Duration::from_millis(10);

/// What the owner does with a name whose lock went back to its server.
pub(crate) type Purge = Box<dyn Fn(LockName) + Send + Sync>;

/// Where the owner counts the upstream's traffic: handles from its own
/// [`bess_obs`] group (the default: unregistered, for what it does not
/// report). Lock requests are hits in the lock cache or RPCs; a message
/// that brings pages is a fetch when it also asks for a lock and a read
/// when it does not.
#[derive(Default)]
pub(crate) struct UpstreamCounters {
    pub lock_hits: Counter,
    pub lock_rpcs: Counter,
    pub fetch_rpcs: Counter,
    pub read_rpcs: Counter,
    pub pages_fetched: Counter,
    pub callbacks: Counter,
    pub retries: Counter,
    pub heartbeats: Counter,
    pub leases_lost: Counter,
}

/// The fixed facts of one upstream connection (the fields of the same
/// name in [`crate::ClientConfig`] say more).
pub(crate) struct UpstreamConfig {
    pub node: NodeId,
    /// The 2PC coordinator for this node's distributed commits and the
    /// owner of its `Database`/`File` lock names. `None`: the
    /// lowest-numbered server of the directory, looked up at first need.
    pub home: Option<NodeId>,
    pub gateway: Option<NodeId>,
    pub rpc_timeout: Duration,
    pub heartbeat_interval: Duration,
    pub max_retries: u32,
    pub retry_base: Duration,
    /// Whether requests carry the lease they rely on ([`Msg::Leased`]):
    /// true exactly for a connection that serves page images.
    pub stamps: bool,
}

/// Incarnation source for request ids. Every upstream — a client's or a
/// node server's — draws a distinct value, so a process that crashes and
/// reconnects under the same [`NodeId`] issues request ids disjoint from
/// its previous life and cannot be answered from the server's dedup window
/// with a dead incarnation's recorded reply. Starts at 1 so an id built
/// from it is never 0 (`req == 0` opts out of deduplication). The network
/// is in-process, so a process-wide counter covers every reconnect the
/// fault matrix can produce — deterministically, with no randomness.
// LINT: allow(raw-counter) — process-wide incarnation-id allocator, not a metric
static NEXT_INCARNATION: AtomicU64 = AtomicU64::new(1);

/// Draws a fresh incarnation (servers also draw their lease ids here).
pub(crate) fn fresh_incarnation() -> u64 {
    NEXT_INCARNATION.fetch_add(1, Ordering::Relaxed)
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
pub(crate) fn page_lock(page: DbPage) -> LockName {
    LockName::Page {
        area: page.area,
        page: page.page,
    }
}

/// The error a reply that is not the expected answer stands for.
pub(crate) fn refusal(reply: Msg) -> ClientError {
    match reply {
        Msg::Denied(m) => ClientError::Denied(m),
        Msg::Err(e) => ClientError::Server(e),
        other => ClientError::Server(format!("bad reply {other:?}")),
    }
}

/// The reply that passes `e` on to a local application: [`refusal`] undoes
/// it, so the application sees what this node saw.
pub(crate) fn reply_for(e: ClientError) -> Msg {
    match e {
        ClientError::Denied(m) => Msg::Denied(m),
        ClientError::Server(m) => Msg::Err(m),
        other => Msg::Err(other.to_string()),
    }
}

/// What an upstream keeps track of, behind one guard that is never held
/// across a message.
#[derive(Default)]
struct State {
    /// Lock requests sent and not yet answered — counted, because a node
    /// server's local transactions can ask for one name at the same time
    /// (see [`Upstream::defer_if_in_flight`]).
    in_flight: HashMap<LockName, usize>,
    /// The names of those such a callback came for. Under the guard of
    /// `in_flight`, so a finishing request either sees the race recorded
    /// or the callback sees the request finished.
    raced: HashSet<LockName>,
    /// Prefetched global transaction ids: each `CommitGlobal` frame carries
    /// a `BeginGlobal` trailer whose `TxnId` reply refills the pool, so the
    /// next distributed commit skips the explicit `BeginGlobal` round trip.
    gtxn_pool: Vec<GTxn>,
    /// Servers a request went to (since the last [`Upstream::release_all`]).
    touched: HashSet<NodeId>,
    /// Servers that already released this node's locks — by their
    /// read-only 2PC vote ([`Shipment::TwoPhase`]'s readers) or, a gateway,
    /// by executing the transaction's `Commit`; `release_all` skips them.
    released: HashSet<NodeId>,
    /// Transactions begun here that no server has heard of yet (see
    /// [`Upstream::announce`]).
    unannounced: HashSet<TxnId>,
    /// Servers owed a `ReleaseAll` ([`Upstream::release_all`]): paid as a
    /// trailer on the next frame there, by the next [`Upstream::tick`], or
    /// by [`Upstream::close`] — whichever comes first.
    release_debts: HashSet<NodeId>,
    /// Servers whose debt a tick is paying right now: its `ReleaseAll` is
    /// out and not yet answered. No frame leaves for such a server
    /// ([`Upstream::paid`]).
    paying: HashSet<NodeId>,
    /// Last time any message went to each server. A standalone heartbeat is
    /// suppressed when real traffic already renewed the lease within the
    /// heartbeat interval.
    last_sent: HashMap<NodeId, Instant>,
    /// The lease id each server last stamped a reply with (see
    /// [`Msg::Leased`]). The locks and images kept between transactions
    /// are only as good as these leases.
    leases: HashMap<NodeId, u64>,
}

/// A transaction's page updates, routed (see [`Upstream::route`]).
pub(crate) enum Shipment {
    /// No updates: nothing is sent.
    Nothing,
    /// One owner and nobody else to enrol: the one-message `Commit`.
    OneOwner(NodeId, Vec<PageUpdate>),
    /// Two-phase commit through the home server: each write owner's
    /// updates by ascending node, and the touched servers that own none,
    /// enrolled so their read-only vote releases this node's locks there.
    TwoPhase {
        branches: Vec<(u32, Vec<PageUpdate>)>,
        readers: Vec<u32>,
        release_read_locks: bool,
    },
}

/// One node's connection to the servers that own the data.
pub(crate) struct Upstream {
    cfg: UpstreamConfig,
    home: OnceLock<NodeId>,
    dir: Arc<Directory>,
    caller: Caller<Msg>,
    lock_cache: Arc<LockCache>,
    purge: Purge,
    counters: UpstreamCounters,
    /// Folded into the high bits of every request id (the server's dedup
    /// window is keyed on `(node, req)`); see [`NEXT_INCARNATION`].
    incarnation: u64,
    /// Low-bits request counter for the non-idempotent messages (commits);
    /// see [`Self::fresh_req`].
    // LINT: allow(raw-counter) — request-id allocator for idempotent retry, not a metric
    next_req: AtomicU64,
    state: Mutex<State>,
    /// Signalled when a server leaves [`State::paying`].
    paid: Condvar,
    last_heartbeat: Mutex<Instant>,
    /// Leases found lost so far (see [`Self::lease_epoch`]).
    // LINT: allow(raw-counter) — an epoch compared for equality, not a metric
    lease_epoch: AtomicU64,
}

impl Upstream {
    pub(crate) fn new(
        cfg: UpstreamConfig,
        dir: Arc<Directory>,
        caller: Caller<Msg>,
        lock_cache: Arc<LockCache>,
        purge: Purge,
        counters: UpstreamCounters,
    ) -> Upstream {
        Upstream {
            home: cfg.home.map(OnceLock::from).unwrap_or_default(),
            cfg,
            dir,
            caller,
            lock_cache,
            purge,
            counters,
            incarnation: fresh_incarnation(),
            next_req: AtomicU64::new(1),
            state: Mutex::default(),
            paid: Condvar::new(),
            last_heartbeat: Mutex::new(Instant::now()),
            lease_epoch: AtomicU64::new(0),
        }
    }

    /// The cache of locks the owning servers granted this node.
    pub(crate) fn lock_cache(&self) -> &Arc<LockCache> {
        &self.lock_cache
    }

    pub(crate) fn net_stats(&self) -> &NetStats {
        self.caller.stats()
    }

    /// The home server; once looked up it never changes, so a name locked
    /// there is released there.
    pub(crate) fn home(&self) -> ClientResult<NodeId> {
        if let Some(h) = self.home.get() {
            return Ok(*h);
        }
        let first = self.dir.servers().first().copied();
        let first = first.ok_or_else(|| ClientError::Server("no servers known".into()))?;
        Ok(*self.home.get_or_init(|| first))
    }

    /// The server to ask about `area`.
    pub(crate) fn owner_of(&self, area: u32) -> ClientResult<NodeId> {
        if let Some(gw) = self.cfg.gateway {
            return Ok(gw);
        }
        self.dir.owner(area).ok_or(ClientError::NoOwner(area))
    }

    fn owner_of_name(&self, name: &LockName) -> ClientResult<NodeId> {
        match name {
            LockName::Page { area, .. }
            | LockName::Segment { area, .. }
            | LockName::Object { area, .. } => self.owner_of(*area),
            LockName::Database(_) | LockName::File { .. } => {
                self.cfg.gateway.map_or_else(|| self.home(), Ok)
            }
        }
    }

    /// One unstamped, unretried call, for an idempotent release on the way
    /// out of a transaction or of the network.
    fn call_once(&self, to: NodeId, msg: Msg) -> Result<Msg, NetError> {
        self.state.lock().last_sent.insert(to, Instant::now());
        self.caller.call(to, msg, self.cfg.rpc_timeout)
    }

    /// Stamps `msg` with the lease this node believes it holds at `to`
    /// (see [`Msg::Leased`]). What is kept between transactions is only
    /// valid under the lease it was granted under, so only a connection
    /// that serves from what it keeps stamps.
    fn stamp(&self, to: NodeId, msg: Msg) -> Msg {
        if !self.cfg.stamps {
            return msg;
        }
        Msg::Leased {
            lease: self.state.lock().leases.get(&to).copied().unwrap_or(0),
            msg: Box::new(msg),
        }
    }

    /// A fresh request id for a non-idempotent RPC: incarnation in the
    /// high 32 bits, sequence in the low 32. The incarnation is nonzero,
    /// so the id is never the `req == 0` opt-out.
    fn fresh_req(&self) -> u64 {
        let seq = self.next_req.fetch_add(1, Ordering::Relaxed);
        ((self.incarnation & 0xFFFF_FFFF) << 32) | (seq & 0xFFFF_FFFF)
    }

    /// Sends one RPC, retrying transient transport failures with capped
    /// exponential backoff. Only requests that are idempotent (reads,
    /// locks, releases, raw I/O replays) or deduplicated by the server
    /// (commits, which carry a request id) are retried. `AllocSegment` and
    /// `FreeSegment` are neither, so they fail fast: a retried alloc whose
    /// first delivery executed leaks a segment, and a retried free can free
    /// a segment another client was handed in the meantime.
    ///
    /// `txn`: the transaction the request is for, if the caller has one
    /// open (see the refusal and the announcement below).
    pub(crate) fn rpc(&self, to: NodeId, msg: Msg, txn: Option<TxnId>) -> ClientResult<Msg> {
        self.rpc_with_trailers(to, msg, Vec::new(), txn)
    }

    /// [`Self::rpc`] with caller-supplied trailers riding the same frame
    /// (any `ReleaseAll` debt for `to` joins them, and the `BeginTxn` of a
    /// transaction this is the first frame of). Waits out a tick that is
    /// paying `to`'s debt: a server hands two frames of one sender to two
    /// threads, so a release still in flight could run after this frame
    /// and take the locks it is about to be granted.
    fn rpc_with_trailers(
        &self,
        to: NodeId,
        msg: Msg,
        mut trailers: Vec<Msg>,
        txn: Option<TxnId>,
    ) -> ClientResult<Msg> {
        let retryable = !matches!(msg, Msg::AllocSegment { .. } | Msg::FreeSegment { .. });
        let announces = self.announce_target().ok() == Some(to);
        let (owes_release, announced) = {
            let mut state = self.state.lock();
            while state.paying.contains(&to) {
                self.paid.wait(&mut state);
            }
            state.touched.insert(to);
            // Feeds heartbeat suppression.
            state.last_sent.insert(to, Instant::now());
            (
                state.release_debts.remove(&to),
                txn.filter(|t| announces && state.unannounced.remove(t)),
            )
        };
        // Piggyback any control debt for this server on the frame. A
        // retried frame re-runs non-deduplicated trailers server-side;
        // what we attach here is idempotent (`ReleaseAll`) or only counted
        // (`BeginTxn`), and deduplicated carriers never re-run their
        // trailers at all. The release is the previous transaction's, so
        // it goes first.
        if owes_release {
            trailers.push(Msg::ReleaseAll);
        }
        if announced.is_some() {
            trailers.push(Msg::BeginTxn);
        }
        let msg = Msg::with_trailers(msg, trailers);
        let mut attempt = 0u32;
        let mut asked_again = false;
        let outcome = loop {
            match self.caller.call(to, self.stamp(to, msg.clone()), self.cfg.rpc_timeout) {
                Ok(reply) => {
                    let reply = self.absorb_reply(to, reply);
                    // Refused unexecuted: the stamp named a lease the
                    // server no longer has. Outside a transaction nothing
                    // was read under it, so ask again (once) under the new
                    // one; inside one, the refusal is the answer and the
                    // transaction will not commit.
                    let refused = matches!(&reply, Msg::Err(e) if e == LEASE_LOST);
                    if refused && !asked_again && txn.is_none() {
                        asked_again = true;
                        continue;
                    }
                    break Ok(reply);
                }
                Err(e) if retryable && e.is_transient() && attempt < self.cfg.max_retries => {
                    attempt += 1;
                    self.counters.retries.inc();
                    std::thread::sleep(backoff_delay(
                        self.cfg.retry_base,
                        attempt,
                        self.cfg.node.0,
                    ));
                }
                Err(e) => break Err(e.into()),
            }
        };
        // A transaction stays unannounced until a server has admitted it:
        // its next frame announces it again when this one got no answer,
        // and when a draining server refused it — so that it is refused
        // for as long as the server drains. A release is owed until a
        // frame that carried it was answered (the refusal comes after the
        // trailers before the announcement have run).
        let unanswered = outcome.is_err();
        if unanswered || matches!(&outcome, Ok(Msg::Err(e)) if e == DRAINING) {
            let mut state = self.state.lock();
            if owes_release && unanswered {
                state.release_debts.insert(to);
            }
            state.unannounced.extend(announced);
        }
        outcome
    }

    /// Records that `txn` began at this node. No message is sent: the
    /// transaction's first frame to [`Self::announce_target`] carries a
    /// [`Msg::BeginTxn`] trailer, which is what the server counts and what
    /// its drain mode refuses. A transaction that ends without having sent
    /// one ([`Self::release_finished`], [`Self::release_all`]) is never
    /// heard of.
    pub(crate) fn announce(&self, txn: TxnId) {
        self.state.lock().unannounced.insert(txn);
    }

    /// Where transactions are announced: the gateway, or the home server.
    fn announce_target(&self) -> ClientResult<NodeId> {
        self.cfg.gateway.map_or_else(|| self.home(), Ok)
    }

    /// Absorbs what rides on a reply from `from` besides the answer — a
    /// new lease id, trailers (gtxn-pool refills) — and returns the
    /// carrier reply.
    fn absorb_reply(&self, from: NodeId, mut reply: Msg) -> Msg {
        if let Msg::Leased { lease, msg } = reply {
            self.note_lease(from, lease);
            reply = *msg;
        }
        if let Msg::WithTrailers { msg, trailers } = reply {
            self.net_stats().trailers.add(trailers.len() as u64);
            let ids = trailers.into_iter().filter_map(|t| match t {
                Msg::TxnId(g) => Some(g),
                _ => None,
            });
            self.state.lock().gtxn_pool.extend(ids);
            reply = *msg;
        }
        reply
    }

    /// Records that `server` now knows this node under `lease`. If that
    /// replaces another lease, every grant under the old one is gone.
    fn note_lease(&self, server: NodeId, lease: u64) {
        let known = self.state.lock().leases.insert(server, lease);
        if known.is_some_and(|k| k != lease) {
            self.forget_grants();
        }
    }

    /// A server dropped this node's grants without a callback (its lease
    /// ran out, or the server restarted): nothing kept between
    /// transactions can be trusted, so every cached lock goes, and with it
    /// its image and the owner's copy of the page. Locks of other servers
    /// go too — they are re-requested on next use, and a callback for one
    /// of them is answered "released".
    fn forget_grants(&self) {
        self.counters.leases_lost.inc();
        self.lease_epoch.fetch_add(1, Ordering::SeqCst);
        for name in self.lock_cache.clear() {
            (self.purge)(name);
        }
    }

    /// Leases found lost so far. A transaction during which this moves may
    /// have read under a grant that was already gone.
    pub(crate) fn lease_epoch(&self) -> u64 {
        self.lease_epoch.load(Ordering::SeqCst)
    }

    /// Probes the lock cache for `mode` on `name` on behalf of `txn` and
    /// counts the outcome; a miss is this node's to resolve with the owner
    /// ([`Self::request_lock`], or a [`Self::fetch_pages`] entry).
    pub(crate) fn probe(&self, txn: TxnId, name: LockName, mode: LockMode) -> CacheDecision {
        let decision = self.lock_cache.acquire(txn, name, mode);
        match decision {
            CacheDecision::Hit => self.counters.lock_hits.inc(),
            CacheDecision::Miss { .. } => self.counters.lock_rpcs.inc(),
        };
        decision
    }

    /// Acquires `mode` on `name` for `txn`, consulting the lock cache first
    /// (§3: "data and locks accessed by a transaction remain cached on the
    /// client").
    pub(crate) fn lock(&self, txn: TxnId, name: LockName, mode: LockMode) -> ClientResult<()> {
        match self.probe(txn, name, mode) {
            CacheDecision::Hit => Ok(()),
            CacheDecision::Miss { need } => self.request_lock(txn, name, need),
        }
    }

    /// The lock-cache miss: asks `name`'s owner for `need`.
    pub(crate) fn request_lock(&self, txn: TxnId, name: LockName, need: LockMode) -> ClientResult<()> {
        let owner = self.owner_of_name(&name)?;
        self.in_flight(&[name], || {
            match self.rpc(owner, Msg::Lock { name, mode: need }, Some(txn))? {
                Msg::Granted => {
                    self.lock_cache.grant(txn, name, need);
                    Ok(())
                }
                other => Err(refusal(other)),
            }
        })
    }

    /// Runs `request` — one message to an owner and the recording of what
    /// it granted — with `names` in flight from before the message leaves
    /// until the grants are in the cache, so that a callback racing it is
    /// deferred ([`Self::defer_if_in_flight`]) and honoured when the users
    /// of the lock finish.
    fn in_flight<T>(&self, names: &[LockName], request: impl FnOnce() -> T) -> T {
        {
            let mut state = self.state.lock();
            for name in names {
                *state.in_flight.entry(*name).or_insert(0) += 1;
            }
        }
        let out = request();
        let mut raced = Vec::new();
        {
            let mut guard = self.state.lock();
            let state = &mut *guard;
            for name in names {
                if state.raced.contains(name) {
                    raced.push(*name);
                }
                if let Entry::Occupied(mut requests) = state.in_flight.entry(*name) {
                    *requests.get_mut() -= 1;
                    if *requests.get() == 0 {
                        requests.remove();
                        state.raced.remove(name);
                    }
                }
            }
        }
        for name in raced {
            self.lock_cache.mark_callback_pending(name);
        }
        out
    }

    /// Fetches `pages` from their owners for `txn`: each with the lock mode
    /// its cache miss needs (`None`: the lock is held or cached — and must
    /// be for every page when there is no transaction). Pages of one owner
    /// that follow each other travel in one message, [`Msg::FetchPages`], a
    /// single page in its [`Msg::FetchPage`] or [`Msg::ReadPage`]. Returns
    /// the content of the pages up to the first the owner would not lock —
    /// at least one, or that refusal — and records the grants of exactly
    /// those.
    pub(crate) fn fetch_pages(
        &self,
        txn: Option<TxnId>,
        pages: &[(DbPage, Option<LockMode>)],
    ) -> ClientResult<Vec<Vec<u8>>> {
        let mut out = Vec::with_capacity(pages.len());
        let owner = |&(page, _): &(DbPage, _)| self.owner_of(page.area).ok();
        for run in pages.chunk_by(|a, b| owner(a) == owner(b)) {
            match self.owner_of(run[0].0.area).and_then(|owner| self.fetch_run(txn, owner, run)) {
                Ok(data) => {
                    let short = data.len() < run.len();
                    out.extend(data);
                    if short {
                        break;
                    }
                }
                Err(e) if out.is_empty() => return Err(e),
                Err(_) => break,
            }
        }
        Ok(out)
    }

    /// [`Self::fetch_pages`] for one page.
    pub(crate) fn fetch_page(
        &self,
        txn: Option<TxnId>,
        page: DbPage,
        need: Option<LockMode>,
    ) -> ClientResult<Vec<u8>> {
        let mut data = self.fetch_pages(txn, &[(page, need)])?;
        data.pop().ok_or_else(|| ClientError::Server(format!("no content for {page}")))
    }

    /// One message of [`Self::fetch_pages`].
    fn fetch_run(
        &self,
        txn: Option<TxnId>,
        owner: NodeId,
        run: &[(DbPage, Option<LockMode>)],
    ) -> ClientResult<Vec<Vec<u8>>> {
        let request = match *run {
            [(page, Some(mode))] => Msg::FetchPage { page, mode },
            [(page, None)] => Msg::ReadPage { page },
            _ => Msg::FetchPages { pages: run.to_vec() },
        };
        if run.iter().any(|(_, mode)| mode.is_some()) {
            self.counters.fetch_rpcs.inc();
        } else {
            self.counters.read_rpcs.inc();
        }
        let names: Vec<LockName> = run.iter().map(|&(page, _)| page_lock(page)).collect();
        self.in_flight(&names, || {
            let data = match self.rpc(owner, request, txn)? {
                Msg::PageData(data) if run.len() == 1 => vec![data],
                Msg::PagesData(data) if (1..=run.len()).contains(&data.len()) => data,
                other => return Err(refusal(other)),
            };
            for &(page, mode) in &run[..data.len()] {
                if let (Some(need), Some(txn)) = (mode, txn) {
                    self.lock_cache.grant(txn, page_lock(page), need);
                }
            }
            self.counters.pages_fetched.add(data.len() as u64);
            Ok(data)
        })
    }

    /// Decides how `updates` reach their owners: grouped by owning server;
    /// several owners mean two-phase commit through the home server (§3).
    /// A single write owner normally takes the one-message fast path; with
    /// `release_read_locks`, a transaction that also *read* from other
    /// servers goes through 2PC anyway, so those servers join the round as
    /// read-only participants and shed this node's locks at phase 1
    /// instead of waiting for a `ReleaseAll`.
    pub(crate) fn route(
        &self,
        updates: Vec<PageUpdate>,
        release_read_locks: bool,
    ) -> ClientResult<Shipment> {
        let mut by_owner: HashMap<NodeId, Vec<PageUpdate>> = HashMap::new();
        for u in updates {
            by_owner.entry(self.owner_of(u.page.area)?).or_default().push(u);
        }
        let mut readers: Vec<u32> = Vec::new();
        if release_read_locks {
            let state = self.state.lock();
            readers.extend(state.touched.iter().filter(|s| !by_owner.contains_key(s)).map(|s| s.0));
        }
        let mut branches: Vec<(u32, Vec<PageUpdate>)> =
            by_owner.into_iter().map(|(owner, updates)| (owner.0, updates)).collect();
        branches.sort_unstable_by_key(|(p, _)| *p);
        Ok(match branches.pop() {
            None => Shipment::Nothing,
            Some((owner, updates)) if branches.is_empty() && readers.is_empty() => {
                Shipment::OneOwner(NodeId(owner), updates)
            }
            Some(last) => {
                branches.push(last);
                Shipment::TwoPhase {
                    branches,
                    readers,
                    release_read_locks,
                }
            }
        })
    }

    /// Ships `txn`'s routed updates and returns the outcome: the owner's
    /// answer to the `Commit`, or the coordinator's decision. `holder` is
    /// the name the transaction's locks are held under here.
    ///
    /// Distributed commit: one `CommitGlobal` frame to the home server
    /// carries every branch's write set (the coordinator stages its own and
    /// forwards the rest inside each participant's phase-1 entry) plus a
    /// `BeginGlobal` trailer that prefetches the next transaction's id.
    /// Every reader joins the round so its read-only vote releases this
    /// node's locks at phase 1.
    pub(crate) fn ship(&self, holder: TxnId, txn: u64, shipment: Shipment) -> ClientResult<()> {
        let (branches, readers, release_read_locks) = match shipment {
            Shipment::Nothing => return Ok(()),
            Shipment::OneOwner(owner, updates) => {
                let req = self.fresh_req();
                return match self.rpc(owner, Msg::Commit { txn, updates, req }, Some(holder))? {
                    Msg::Ok => {
                        // A gateway ends the local transaction with the
                        // commit it executes; no `ReleaseAll` is owed.
                        if self.cfg.gateway == Some(owner) {
                            self.state.lock().released.insert(owner);
                        }
                        Ok(())
                    }
                    other => Err(refusal(other)),
                };
            }
            Shipment::TwoPhase {
                branches,
                readers,
                release_read_locks,
            } => (branches, readers, release_read_locks),
        };
        let home = self.home()?;
        // An empty pool (first commit, or a retried frame whose trailer
        // reply was not replayed) falls back to the explicit round trip;
        // a pool this commit empties is refilled by its trailer.
        let (gtxn, refill) = {
            let pool = &mut self.state.lock().gtxn_pool;
            (pool.pop(), pool.is_empty())
        };
        let gtxn = match gtxn {
            Some(g) => g,
            None => match self.rpc(home, Msg::BeginGlobal, Some(holder))? {
                Msg::TxnId(g) => g,
                other => return Err(refusal(other)),
            },
        };
        let mut participants: Vec<u32> =
            branches.iter().map(|(p, _)| *p).chain(readers.iter().copied()).collect();
        participants.sort_unstable();
        let req = self.fresh_req();
        let commit = Msg::CommitGlobal {
            gtxn,
            participants,
            req,
            release_read_locks,
            branches,
        };
        let trailers = if refill { vec![Msg::BeginGlobal] } else { Vec::new() };
        match self.rpc_with_trailers(home, commit, trailers, Some(holder))? {
            Msg::Decision { committed } => {
                // Phase 1 ran, whatever the outcome: the readers released
                // this node's locks when they voted. Write participants
                // keep its grants until the transaction ends.
                self.state.lock().released.extend(readers.into_iter().map(NodeId));
                committed.then_some(()).ok_or(ClientError::GlobalAbort)
            }
            other => Err(refusal(other)),
        }
    }

    /// Tells the home server (or the gateway) that `txn` is aborted —
    /// unless no server has heard of it, and then nothing is sent. A
    /// gateway ends the local transaction with the `Abort` it acknowledges,
    /// as with a `Commit`; no `ReleaseAll` is owed.
    pub(crate) fn abort(&self, txn: TxnId) {
        if self.state.lock().unannounced.contains(&txn) {
            return;
        }
        let Ok(to) = self.announce_target() else {
            return;
        };
        let acked = matches!(self.rpc(to, Msg::Abort { txn: txn.0 }, Some(txn)), Ok(Msg::Ok));
        if acked && self.cfg.gateway == Some(to) {
            self.state.lock().released.insert(to);
        }
    }

    /// Ends `txn`'s use of the cached locks. They stay cached, but for the
    /// ones a deferred callback waits for: purged and handed back now.
    pub(crate) fn release_finished(&self, txn: TxnId) {
        self.state.lock().unannounced.remove(&txn);
        let released = self.lock_cache.finish_txn(txn);
        for name in &released {
            (self.purge)(*name);
        }
        for (owner, names) in self.by_owner(released) {
            let _ = self.rpc(owner, Msg::ReleaseCached { names }, None);
        }
    }

    fn by_owner(&self, names: Vec<LockName>) -> HashMap<NodeId, Vec<LockName>> {
        let mut by_owner: HashMap<NodeId, Vec<LockName>> = HashMap::new();
        for name in names {
            if let Ok(owner) = self.owner_of_name(&name) {
                by_owner.entry(owner).or_default().push(name);
            }
        }
        by_owner
    }

    /// Transaction-duration caching (§3), for a node with one transaction
    /// at a time: drops every cached lock, and owes each server touched
    /// since the last call, but for those that released already, a
    /// `ReleaseAll`. Nothing is sent: the debt rides the next frame to that
    /// server ahead of the next transaction's announcement, and what finds
    /// no frame is paid by [`Self::tick`] or [`Self::close`].
    pub(crate) fn release_all(&self) {
        self.lock_cache.clear();
        let mut guard = self.state.lock();
        let state = &mut *guard;
        state.unannounced.clear();
        let already = std::mem::take(&mut state.released);
        let owed = state.touched.drain().filter(|s| !already.contains(s));
        state.release_debts.extend(owed);
    }

    /// Answers what an owning server sends unasked: callbacks, lease news.
    pub(crate) fn on_message(&self, from: NodeId, msg: &Msg) -> Msg {
        match msg {
            // The server's answer to a heartbeat stamped with a lease it
            // no longer has (a heartbeat is one-way: there is no reply for
            // the news to ride on).
            Msg::Leased { lease, .. } => {
                self.note_lease(from, *lease);
                Msg::Ok
            }
            Msg::Callback { name } => {
                self.counters.callbacks.inc();
                // Another client is about to change something on this
                // page under an object or segment lock.
                if let LockName::Object { area, page, .. } | LockName::Segment { area, page } =
                    *name
                {
                    self.lock_cache.drop_image(LockName::Page { area, page });
                }
                if self.defer_if_in_flight(*name) {
                    return Msg::CallbackDeferred;
                }
                match self.lock_cache.callback(*name) {
                    CallbackResponse::Released | CallbackResponse::NotCached => {
                        (self.purge)(*name);
                        Msg::CallbackReleased
                    }
                    CallbackResponse::Deferred => Msg::CallbackDeferred,
                }
            }
            Msg::CallbackDowngrade { name, to } => {
                self.counters.callbacks.inc();
                if self.defer_if_in_flight(*name) {
                    return Msg::CallbackDeferred;
                }
                if self.lock_cache.callback_downgrade(*name, *to) {
                    // The page content stays valid for reading; no purge.
                    Msg::CallbackReleased
                } else {
                    Msg::CallbackDeferred
                }
            }
            other => Msg::Err(format!("unexpected message from a server: {other:?}")),
        }
    }

    /// Defers a callback that races this node's own in-flight request for
    /// `name`, whatever the cache holds right now. The server may have
    /// granted that request an instant ago — and it releases the holder's
    /// lock *by name* when a callback is answered "released", so giving up
    /// an idle weaker lock here (an S under our own X upgrade) would wipe
    /// the grant that is on its way to us, and two nodes would both believe
    /// they hold X. The lock is released when the transaction that asked
    /// for it ends.
    fn defer_if_in_flight(&self, name: LockName) -> bool {
        let mut state = self.state.lock();
        if !state.in_flight.contains_key(&name) {
            return false;
        }
        state.raced.insert(name);
        drop(state);
        self.lock_cache.mark_callback_pending(name);
        true
    }

    /// The owner's idle tick: pays every release debt that found no
    /// carrier yet, then — once per heartbeat interval — renews this
    /// node's lease at the home (or gateway) server and every server
    /// touched. A server renews the lease on *every* message, so a
    /// standalone heartbeat is pure overhead whenever real traffic went to
    /// that server recently — those are suppressed and counted under
    /// `net.heartbeats.suppressed`.
    ///
    /// A debt is paid with a call, and the server is in [`State::paying`]
    /// until the answer is in (or is given up on, which puts the debt
    /// back): see [`Self::rpc_with_trailers`].
    pub(crate) fn tick(&self) {
        let owed: Vec<NodeId> = self.state.lock().release_debts.iter().copied().collect();
        for server in owed {
            {
                let mut state = self.state.lock();
                // A frame that left since took the debt along.
                if !state.release_debts.remove(&server) {
                    continue;
                }
                state.paying.insert(server);
            }
            let paid = self.call_once(server, Msg::ReleaseAll).is_ok();
            {
                let mut state = self.state.lock();
                state.paying.remove(&server);
                if !paid {
                    state.release_debts.insert(server);
                }
            }
            self.paid.notify_all();
        }
        let interval = self.cfg.heartbeat_interval;
        {
            let mut last = self.last_heartbeat.lock();
            if last.elapsed() < interval {
                return;
            }
            *last = Instant::now();
        }
        let mut targets: HashSet<NodeId> = self.state.lock().touched.clone();
        targets.extend(self.cfg.gateway.or_else(|| self.home().ok()));
        for t in targets {
            let now = Instant::now();
            let recent = |at: &Instant| now.duration_since(*at) < interval;
            if self.state.lock().last_sent.get(&t).is_some_and(recent) {
                self.net_stats().heartbeats_suppressed.inc();
            } else if self.caller.send(t, self.stamp(t, Msg::Heartbeat)).is_ok() {
                self.state.lock().last_sent.insert(t, now);
                self.counters.heartbeats.inc();
            }
        }
    }

    /// Pays the release debts and hands every cached lock back.
    pub(crate) fn close(&self) {
        let owed: Vec<NodeId> = self.state.lock().release_debts.drain().collect();
        for server in owed {
            let _ = self.call_once(server, Msg::ReleaseAll);
        }
        for (owner, names) in self.by_owner(self.lock_cache.clear()) {
            let _ = self.call_once(owner, Msg::ReleaseCached { names });
        }
    }
}
