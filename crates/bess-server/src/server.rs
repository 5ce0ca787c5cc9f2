//! The BeSS server.
//!
//! "Each BeSS server manages a number of storage areas and it provides
//! distributed transaction management, concurrency control and recovery
//! for the databases stored in these areas. The two phase commit (2PC)
//! protocol is employed for distributed commits and timeouts are used for
//! distributed deadlock detection. The strict two phase locking algorithm
//! is used for concurrency control and recovery is based on an ARIES-like
//! write-ahead log (WAL) protocol. Moreover, client-server interaction is
//! minimized by caching data and locks between transactions running on the
//! same client. Cache consistency is provided by employing the callback
//! locking algorithm." (§3)
//!
//! All of that lives here. Locks are granted to *client nodes* (the
//! callback-locking ownership model); when a conflicting request arrives
//! the server calls the holding clients back, releasing idle cached locks
//! immediately and waiting (bounded by the deadlock timeout) for locks in
//! use. Commits log physical byte-range updates, force the log, then apply
//! the after-images to the storage areas — through the
//! [`CommitPipeline`], as a participant's prepared branches do.
//! Distributed commits run presumed-commit 2PC with the client's first
//! server as coordinator.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bess_obs::{Counter, Group, LatencyHistogram, Registry};
use bess_cache::{AreaSet, DbPage};
use bess_lock::{LockManager, LockMode, LockName, OrderedMutex, Rank, TxnId};
use bess_net::{Caller, Endpoint, Network, NodeId};
use bess_storage::{AreaId, DiskPtr};
use bess_wal::{GroupCommitConfig, LogBody, LogManager, Lsn, RecoveryReport};
use parking_lot::{Condvar, Mutex};

use crate::directory::Directory;
use crate::proto::{
    coordinator_of, granted_prefix, single_page_reply, GTxn, Msg, PageUpdate, PrepareItem, Vote,
    DRAINING, LEASE_LOST,
};
use crate::pipeline::{Accounting, CommitError, CommitPipeline, Resolution};
use crate::scrub::{IntegrityStats, MediaGate, ScrubConfig, ScrubPassReport, Scrubber};
use crate::serve::serve;

/// Server configuration.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// This server's node id.
    pub node: NodeId,
    /// Deadlock timeout for lock waits (§3: "timeouts are used for
    /// distributed deadlock detection").
    pub lock_timeout: Duration,
    /// Timeout for server-initiated RPCs (callbacks, 2PC rounds).
    pub rpc_timeout: Duration,
    /// How long a client's lease stays valid after its last message. A
    /// client that stays silent longer is presumed dead and reaped: its
    /// locks and callback copies are released, its unshipped updates
    /// dropped, and its prepared 2PC branches resolved by presumed abort.
    pub lease_duration: Duration,
    /// How long a prepared 2PC branch must sit undecided before the reaper
    /// asks the coordinator for a verdict. This only rate-limits the
    /// queries; correctness does not depend on it — a coordinator answers
    /// [`Msg::DecisionPending`] for a round still in flight, and presumed
    /// abort applies only when it affirmatively has no record of the
    /// transaction at all.
    pub coordinator_grace: Duration,
    /// Consecutive storage-write failures tolerated before the server
    /// drops into read-only mode (media-failure containment).
    pub media_error_threshold: u64,
    /// Group-commit tuning applied to the server's WAL at startup: how
    /// concurrent commit forces batch into one device sync.
    pub group_commit: GroupCommitConfig,
    /// Background integrity scrubbing (off by default; see
    /// [`ScrubConfig`]). [`BessServer::scrub_once`] works even when the
    /// background thread is disabled.
    pub scrub: ScrubConfig,
}

impl ServerConfig {
    /// A config with sensible test defaults.
    pub fn new(node: NodeId) -> Self {
        ServerConfig {
            node,
            lock_timeout: Duration::from_millis(500),
            rpc_timeout: Duration::from_secs(2),
            lease_duration: Duration::from_secs(10),
            coordinator_grace: Duration::from_secs(1),
            media_error_threshold: 3,
            group_commit: GroupCommitConfig::default(),
            scrub: ScrubConfig::default(),
        }
    }
}

/// Counters kept by a server — [`bess_obs`] handles registered under the
/// `server.` prefix of [`BessServer::metrics`].
#[derive(Debug)]
pub struct ServerStats {
    /// Transactions announced by their first frame here (`server.txns`).
    pub txns: Counter,
    /// Local commits (`server.commits`).
    pub commits: Counter,
    /// Aborts processed (`server.aborts`).
    pub aborts: Counter,
    /// Pages locked and shipped in one request (`server.fetches`).
    pub fetches: Counter,
    /// Pages shipped under a lock the requester held (`server.reads`).
    pub reads: Counter,
    /// Lock requests granted (`server.locks_granted`).
    pub locks_granted: Counter,
    /// Lock requests denied — deadlock timeouts
    /// (`server.locks_denied`).
    pub locks_denied: Counter,
    /// Callbacks sent to clients (`server.callbacks_sent`).
    pub callbacks_sent: Counter,
    /// Callbacks answered with an immediate release
    /// (`server.callback_releases`).
    pub callback_releases: Counter,
    /// Callbacks deferred by clients (`server.callback_deferred`).
    pub callback_deferred: Counter,
    /// Downgrade callbacks answered with a downgrade — callback-read
    /// (`server.callback_downgrades`).
    pub callback_downgrades: Counter,
    /// 2PC prepares voted yes (`server.prepares`).
    pub prepares: Counter,
    /// 2PC transactions coordinated (`server.coordinated`).
    pub coordinated: Counter,
    /// Client leases that expired — dead-client reclamation runs
    /// (`server.leases_expired`).
    pub leases_expired: Counter,
    /// Requests refused because they were stamped with a lease that no
    /// longer exists (`server.lease_lost_rejections`).
    pub lease_lost_rejections: Counter,
    /// In-flight transactions reaped on behalf of dead clients: dropped
    /// unshipped update sets plus force-resolved prepared branches
    /// (`server.txns_reaped`).
    pub txns_reaped: Counter,
    /// Retried requests answered from the dedup window instead of being
    /// re-executed (`server.dedup_hits`).
    pub dedup_hits: Counter,
    /// New transactions rejected while draining
    /// (`server.drain_rejections`).
    pub drain_rejections: Counter,
    /// Mutating requests rejected while read-only
    /// (`server.read_only_rejections`).
    pub read_only_rejections: Counter,
    /// Log forces that failed (`server.log_force_failures`). Each one also
    /// counts toward the media-error threshold, so a persistently failing
    /// log device trips auto read-only like a failing storage area does.
    pub log_force_failures: Counter,
    /// Read-only votes cast by this server as a participant
    /// (`server.2pc.readonly_votes`): nothing was shipped here, so the
    /// branch is forgotten at phase 1 and drops out of phase 2.
    pub two_pc_readonly_votes: Counter,
    /// Coordinated rounds where *every* participant voted read-only
    /// (`server.2pc.readonly_rounds`): no decision record, no phase 2.
    pub two_pc_readonly_rounds: Counter,
    /// `PrepareBatch` frames sent while coordinating
    /// (`server.2pc.prepare_batches`).
    pub two_pc_prepare_batches: Counter,
    /// Prepare requests that rode those frames
    /// (`server.2pc.batched_prepares`); minus `prepare_batches`, the
    /// messages batching saved.
    pub two_pc_batched_prepares: Counter,
    /// Commit verdicts delivered as unacknowledged one-way sends
    /// (`server.2pc.oneway_decides`) — the presumed-commit saving: no
    /// participant ack round for commits.
    pub two_pc_oneway_decides: Counter,
    /// Commit verdicts re-sent at restart for rounds whose decision was
    /// forced but whose `End` never made the log
    /// (`server.2pc.decide_resends`).
    pub two_pc_decide_resends: Counter,
}

impl ServerStats {
    fn new(group: &Group) -> ServerStats {
        ServerStats {
            txns: group.counter("txns"),
            commits: group.counter("commits"),
            aborts: group.counter("aborts"),
            fetches: group.counter("fetches"),
            reads: group.counter("reads"),
            locks_granted: group.counter("locks_granted"),
            locks_denied: group.counter("locks_denied"),
            callbacks_sent: group.counter("callbacks_sent"),
            callback_releases: group.counter("callback_releases"),
            callback_deferred: group.counter("callback_deferred"),
            callback_downgrades: group.counter("callback_downgrades"),
            prepares: group.counter("prepares"),
            coordinated: group.counter("coordinated"),
            leases_expired: group.counter("leases_expired"),
            lease_lost_rejections: group.counter("lease_lost_rejections"),
            txns_reaped: group.counter("txns_reaped"),
            dedup_hits: group.counter("dedup_hits"),
            drain_rejections: group.counter("drain_rejections"),
            read_only_rejections: group.counter("read_only_rejections"),
            log_force_failures: group.counter("log_force_failures"),
            two_pc_readonly_votes: group.counter("2pc.readonly_votes"),
            two_pc_readonly_rounds: group.counter("2pc.readonly_rounds"),
            two_pc_prepare_batches: group.counter("2pc.prepare_batches"),
            two_pc_batched_prepares: group.counter("2pc.batched_prepares"),
            two_pc_oneway_decides: group.counter("2pc.oneway_decides"),
            two_pc_decide_resends: group.counter("2pc.decide_resends"),
        }
    }
}

/// Per-participant phase-1 gather state. Concurrent coordinated rounds
/// preparing at the same participant enqueue here; a dedicated pump
/// thread (started lazily per participant) drains up to
/// [`PREP_BATCH_MAX`] items into a single [`Msg::PrepareBatch`] frame and
/// distributes the votes. While every pump for a participant has a frame
/// in flight,
/// later rounds pile up in the queue — the WAL group commit's
/// accumulation pattern applied to 2PC messaging.
#[derive(Default)]
struct PrepSlot {
    queue: Vec<PrepareItem>,
    votes: HashMap<GTxn, Vote>,
}

/// Pump threads — and therefore `PrepareBatch` frames possibly on the
/// wire — per participant. A single frame at a time maximises merging
/// but makes every item that misses the departing frame wait a full
/// round trip; a shallow pipeline keeps the batching (items still pile
/// up whenever all frames are out) while cutting that queueing delay
/// under concurrent coordinators.
const PREP_PIPELINE: u32 = 4;

/// Most concurrent global transactions gathered into one
/// [`Msg::PrepareBatch`] wire frame per participant.
const PREP_BATCH_MAX: usize = 16;

/// Per-participant phase-2 outbox. Commit verdicts are one-way under
/// presumed commit, so the only coordination needed is merging whatever
/// piles up behind an in-flight send into the next `DecideBatch` frame.
#[derive(Default)]
struct DecideOutbox {
    queue: Vec<(GTxn, bool)>,
    sending: bool,
}

/// One node's lease: the grants (locks, callback copies) the server holds
/// for it live exactly as long as this entry.
struct Lease {
    /// Last time the node was heard from.
    renewed: Instant,
    /// Names this lease among all leases of all server incarnations, so a
    /// [`Msg::Leased`] request can say which one it relies on.
    id: u64,
}

/// State of one entry in the at-most-once dedup window.
enum DedupState {
    /// The first delivery is still executing; duplicates wait for it.
    InFlight,
    /// The recorded reply; duplicates get a clone instead of re-execution.
    Done(Msg),
}

/// Recent non-idempotent requests keyed by `(client node, request id)`,
/// bounded FIFO. A retried commit whose first delivery already executed
/// is answered from here, making commit exactly-once under retry.
struct DedupWindow {
    entries: HashMap<(u32, u64), DedupState>,
    order: VecDeque<(u32, u64)>,
}

/// Entries kept in the dedup window before the oldest completed ones are
/// evicted. Clients retry within seconds, so a small window is plenty.
const DEDUP_WINDOW: usize = 1024;

struct ServerInner {
    cfg: ServerConfig,
    areas: Arc<AreaSet>,
    locks: LockManager,
    log: Arc<LogManager>,
    /// Commit, prepare, resolve and checkpoint over `areas` and `log`;
    /// holds the prepared branches, the media gate (read-only fallback)
    /// and the corruption accounting, the last two shared with the
    /// background scrubber so unrepairable corruption degrades the server
    /// exactly like a failing write path.
    pipeline: CommitPipeline,
    caller: Caller<Msg>,
    decisions: Mutex<HashMap<GTxn, bool>>,
    /// 2PC rounds this server is coordinating right now: registered before
    /// phase 1 starts, removed once the decision is durably recorded (or
    /// the round dies without one). `QueryDecision` answers
    /// [`Msg::DecisionPending`] for these — a participant's reaper must
    /// not read a mid-round "no decision yet" as "no record: presumed
    /// abort" and undo a branch the round is about to commit.
    coordinating: Mutex<std::collections::HashSet<GTxn>>,
    /// Write sets staged for phase 1 (see `stage`), keyed by global
    /// transaction, tagged with the committing client node so the reaper
    /// can drop a dead client's unprepared branches.
    pending: Mutex<HashMap<GTxn, (u32, Vec<PageUpdate>)>>,
    /// Phase-1 gather queues, one slot per participant node.
    prep_slots: Mutex<HashMap<u32, PrepSlot>>,
    /// Wakes phase-1 waiters when a pump finishes (or new work lands).
    prep_cv: Condvar,
    /// Participants whose phase-1 pump threads are already running.
    prep_pumps: Mutex<std::collections::HashSet<u32>>,
    /// Back-reference for spawning pump threads that outlive a request.
    self_ref: std::sync::Weak<ServerInner>,
    /// Phase-2 one-way decide outboxes, one per participant node.
    decide_outboxes: Mutex<HashMap<u32, DecideOutbox>>,
    /// Callbacks currently awaiting a client's answer. A new request from
    /// the *called-back holder* for the same resource must wait until the
    /// answer is processed, otherwise its covered-mode re-grant races the
    /// release and a lock can be silently lost.
    callbacks_in_flight: Mutex<std::collections::HashSet<(LockName, TxnId)>>,
    /// Lock requests being served right now, with the mode each asks for
    /// (see [`Self::upgrade_deadlock`]).
    lock_requests: Mutex<HashMap<(LockName, TxnId), LockMode>>,
    /// Every node heard from within `lease_duration`. Never held across
    /// calls into the lock manager, the log, or the network.
    leases: OrderedMutex<HashMap<u32, Lease>>,
    /// The at-most-once window. Never held across request execution.
    dedup: OrderedMutex<DedupWindow>,
    /// Drain mode: finish in-flight work, reject new transactions.
    draining: AtomicBool,
    // LINT: allow(raw-counter) — transaction-id allocator, not a metric
    next_txn: AtomicU64,
    running: AtomicBool,
    group: Group,
    stats: ServerStats,
    /// Server-side latency of a local commit: log force + page apply
    /// (`server.commit.ns`).
    commit_ns: LatencyHistogram,
    /// Server-side latency of a coordinated 2PC round
    /// (`server.commit.global.ns`).
    commit_global_ns: LatencyHistogram,
}

/// A running BeSS server.
pub struct BessServer {
    inner: Arc<ServerInner>,
    handle: Option<JoinHandle<()>>,
    scrubber: Arc<Scrubber>,
    scrub_handle: Option<JoinHandle<()>>,
}

impl BessServer {
    /// Recovers from `log` and starts serving. Returns the server and the
    /// restart-recovery report.
    pub fn start(
        cfg: ServerConfig,
        areas: Arc<AreaSet>,
        log: LogManager,
        net: &Arc<Network<Msg>>,
    ) -> (BessServer, RecoveryReport) {
        let log = Arc::new(log);
        log.set_group_commit(cfg.group_commit);
        let group = Registry::new().group("server");
        let stats = ServerStats::new(&group);
        let accounting = Accounting {
            media: Arc::new(MediaGate::new(cfg.media_error_threshold)),
            integrity: Arc::new(IntegrityStats::new(
                &group.registry().group("storage.corruption"),
            )),
            log_force_failures: stats.log_force_failures.clone(),
        };
        let opened = CommitPipeline::open(Arc::clone(&areas), Arc::clone(&log), accounting);
        // LINT: allow(panic) — a server that cannot recover its log must not serve, and `start` has no error to return
        let (pipeline, report) = opened.expect("restart recovery");

        // Rebuild the 2PC decision table. Under presumed commit, a
        // `GlobalDecision` without a closing `End` means the coordinator
        // may have crashed before its one-way commit verdicts reached
        // every write participant — those are re-sent below once the
        // network caller exists.
        let mut decisions = HashMap::new();
        let mut undelivered: HashMap<GTxn, (bool, Vec<u32>, Lsn)> = HashMap::new();
        for rec in log.iter() {
            match &rec.body {
                LogBody::Commit => {
                    decisions.insert(rec.txn, true);
                }
                LogBody::Abort => {
                    decisions.insert(rec.txn, false);
                }
                LogBody::GlobalDecision {
                    commit,
                    participants,
                } => {
                    decisions.insert(rec.txn, *commit);
                    undelivered.insert(rec.txn, (*commit, participants.clone(), rec.lsn));
                }
                LogBody::End => {
                    // Closes a coordinator round (participant-branch `End`s
                    // for the same gtxn come later in the log, after the
                    // round's, so this never hides an unsent verdict).
                    undelivered.remove(&rec.txn);
                }
                _ => {}
            }
        }

        let inner = Arc::new_cyclic(|self_ref| ServerInner {
            locks: LockManager::new(cfg.lock_timeout),
            caller: net.caller(cfg.node),
            cfg,
            areas,
            log,
            pipeline,
            decisions: Mutex::new(decisions),
            coordinating: Mutex::new(std::collections::HashSet::new()),
            pending: Mutex::new(HashMap::new()),
            prep_slots: Mutex::new(HashMap::new()),
            prep_cv: Condvar::new(),
            prep_pumps: Mutex::new(std::collections::HashSet::new()),
            self_ref: self_ref.clone(),
            decide_outboxes: Mutex::new(HashMap::new()),
            callbacks_in_flight: Mutex::new(std::collections::HashSet::new()),
            lock_requests: Mutex::new(HashMap::new()),
            leases: OrderedMutex::new(Rank::ServerLeases, "server.leases", HashMap::new()),
            dedup: OrderedMutex::new(
                Rank::ServerDedup,
                "server.dedup",
                DedupWindow {
                    entries: HashMap::new(),
                    order: VecDeque::new(),
                },
            ),
            draining: AtomicBool::new(false),
            next_txn: AtomicU64::new(1),
            running: AtomicBool::new(true),
            stats,
            commit_ns: group.histogram("commit.ns"),
            commit_global_ns: group.histogram("commit.global.ns"),
            group,
        });

        // Fold the subsystem registries into the server's, so one dump of
        // BessServer::metrics shows server.*, lock.*, wal.* and
        // storage.a*.* side by side (live handles, not copies).
        {
            let reg = inner.group.registry();
            reg.adopt("", inner.locks.metrics().registry());
            reg.adopt("", inner.log.metrics().registry());
            for id in inner.areas.ids() {
                if let Some(area) = inner.areas.get(id) {
                    reg.adopt("", area.metrics().registry());
                }
            }
        }

        // In-doubt transactions keep exclusive locks on the pages they
        // updated until the coordinator's verdict arrives.
        for branch in inner.pipeline.branches() {
            for page in branch.pages {
                let name = LockName::Page {
                    area: page.area,
                    page: page.page,
                };
                let _ = inner.locks.try_lock(TxnId(branch.gtxn), name, LockMode::X);
            }
        }

        // Presumed-commit restart duty: re-send the verdict for every
        // round whose decision was forced but never closed by an `End`.
        // Best-effort one-way sends — a participant that is unreachable
        // right now resolves via its reaper's `QueryDecision` instead
        // (our decision table, rebuilt above, is authoritative forever).
        for (gtxn, (commit, parts, decision_lsn)) in undelivered {
            for p in &parts {
                inner.stats.two_pc_decide_resends.inc();
                let _ = inner.caller.send(
                    NodeId(*p),
                    Msg::DecideBatch {
                        decisions: vec![(gtxn, commit)],
                    },
                );
            }
            inner.log.append(gtxn, decision_lsn, LogBody::End);
        }

        // The scrubber exists even when the background thread is off, so
        // `scrub_once` stays available for deterministic tests and tools.
        let scrubber = Arc::new(Scrubber::new(
            Arc::clone(&inner.areas),
            Arc::clone(&inner.log),
            inner.cfg.scrub,
            Arc::clone(&inner.pipeline.accounting().media),
            Arc::clone(&inner.pipeline.accounting().integrity),
            &inner.group.registry().group("storage.scrub"),
        ));
        let scrub_handle = if inner.cfg.scrub.enabled {
            let s = Arc::clone(&scrubber);
            Some(std::thread::spawn(move || s.run()))
        } else {
            None
        };

        let endpoint = net.register(inner.cfg.node);
        let loop_inner = Arc::clone(&inner);
        let handle = std::thread::spawn(move || serve_loop(loop_inner, endpoint));
        (
            BessServer {
                inner,
                handle: Some(handle),
                scrubber,
                scrub_handle,
            },
            report,
        )
    }

    /// This server's node id.
    pub fn node(&self) -> NodeId {
        self.inner.cfg.node
    }

    /// The server's storage areas.
    pub fn areas(&self) -> &Arc<AreaSet> {
        &self.inner.areas
    }

    /// The server's log (for checkpoint/crash tooling in tests and
    /// benches).
    pub fn log(&self) -> &Arc<LogManager> {
        &self.inner.log
    }

    /// The server's metric group (`server.*` in its registry).
    pub fn metrics(&self) -> &Group {
        &self.inner.group
    }

    /// Activity counters.
    pub fn stats(&self) -> &ServerStats {
        &self.inner.stats
    }

    /// Currently in-doubt global transactions.
    pub fn in_doubt(&self) -> Vec<GTxn> {
        self.inner.pipeline.in_doubt()
    }

    /// Takes a checkpoint, safe to call while the server is committing
    /// (see [`CommitPipeline::checkpoint`]).
    pub fn checkpoint(&self) -> bess_wal::WalResult<()> {
        self.inner.pipeline.checkpoint()
    }

    /// Asks coordinators for verdicts on every in-doubt transaction,
    /// applying presumed abort when the coordinator has no record.
    pub fn resolve_in_doubt(&self) {
        for gtxn in self.inner.pipeline.in_doubt() {
            let coord = coordinator_of(gtxn);
            let verdict = if coord == self.inner.cfg.node.0 {
                self.inner.decisions.lock().get(&gtxn).copied()
            } else {
                match self.inner.caller.call(
                    NodeId(coord),
                    Msg::QueryDecision { gtxn },
                    self.inner.cfg.rpc_timeout,
                ) {
                    Ok(Msg::Decision { committed }) => Some(committed),
                    Ok(Msg::Unknown) => Some(false), // presumed abort
                    Ok(Msg::DecisionPending) => None, // round running: stay in doubt
                    _ => None,                        // coordinator unreachable: stay in doubt
                }
            };
            if let Some(commit) = verdict {
                self.inner.decide(gtxn, commit);
            }
        }
    }

    /// Runs one reaper pass immediately (normally driven by idle ticks of
    /// the serve loop). Deterministic hook for tests and tooling.
    pub fn reap_expired(&self) {
        self.inner.reap_expired();
    }

    /// Forcibly expires `node`'s lease and reaps it now, regardless of how
    /// recently it was heard from. Deterministic dead-client injection.
    pub fn expire_lease(&self, node: NodeId) {
        self.inner.leases.lock().remove(&node.0);
        self.inner.reap_node(node.0);
        self.inner.resolve_stale_prepared();
    }

    /// Whether `node` currently holds a live lease.
    pub fn has_lease(&self, node: NodeId) -> bool {
        self.inner.leases.lock().contains_key(&node.0)
    }

    /// Every lock currently granted to client `node` (cached copies
    /// included — the server cannot tell them apart, which is the point:
    /// reclamation must release both).
    pub fn locks_held_by(&self, node: NodeId) -> Vec<LockName> {
        self.inner.locks.held_by(TxnId(u64::from(node.0)))
    }

    /// Global transactions with staged-but-unprepared updates.
    pub fn pending_gtxns(&self) -> Vec<GTxn> {
        let mut v: Vec<GTxn> = self.inner.pending.lock().keys().copied().collect();
        v.sort_unstable();
        v
    }

    /// Enters or leaves drain mode: in-flight transactions complete, new
    /// `BeginTxn`/`BeginGlobal` requests are rejected.
    pub fn set_draining(&self, on: bool) {
        self.inner.draining.store(on, Ordering::Relaxed);
    }

    /// Whether the server is draining.
    pub fn is_draining(&self) -> bool {
        self.inner.draining.load(Ordering::Relaxed)
    }

    /// Forces (or clears) read-only mode. Entered automatically after
    /// `media_error_threshold` consecutive storage-write failures (or
    /// unrepairable corruption findings).
    pub fn set_read_only(&self, on: bool) {
        self.inner.media().set_read_only(on);
    }

    /// Whether the server is read-only.
    pub fn is_read_only(&self) -> bool {
        self.inner.media().is_read_only()
    }

    /// Runs one deterministic scrub pass (regardless of whether the
    /// background scrub thread is enabled) and reports what it did.
    pub fn scrub_once(&self) -> ScrubPassReport {
        self.scrubber.scrub_once()
    }

    /// Stops the server loop (the "machine" stays reachable until the
    /// network entry is dropped).
    pub fn shutdown(mut self) {
        self.stop_threads();
    }

    fn stop_threads(&mut self) {
        self.inner.running.store(false, Ordering::Relaxed);
        // Wake parked phase-1 pumps so they observe the flag and exit.
        self.inner.prep_cv.notify_all();
        self.scrubber.halt();
        if let Some(h) = self.scrub_handle.take() {
            let _ = h.join();
        }
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for BessServer {
    fn drop(&mut self) {
        self.stop_threads();
    }
}

fn serve_loop(inner: Arc<ServerInner>, endpoint: Endpoint<Msg>) {
    let handler = Arc::clone(&inner);
    // A quarter of the lease: expiry is noticed promptly under load too.
    let reap_every = inner.cfg.lease_duration / 4;
    let handle = move |from, msg| handler.handle(from, msg);
    serve(&endpoint, &inner.running, handle, reap_every, || inner.reap_expired());
}

impl ServerInner {
    /// Media-failure containment: the read-only fallback.
    fn media(&self) -> &MediaGate {
        &self.pipeline.accounting().media
    }

    fn handle(&self, from: NodeId, msg: Msg) -> Msg {
        let (claim, msg) = match msg {
            Msg::Leased { lease, msg } => (Some(lease), *msg),
            m => (None, m),
        };
        // Any message is proof of life: renew the sender's lease, or open
        // one. The guard is dropped before dispatch — leases rank below
        // nothing this request will take.
        let lease = {
            let now = Instant::now();
            let mut leases = self.leases.lock();
            let lease = leases.entry(from.0).or_insert_with(|| Lease {
                renewed: now,
                id: crate::upstream::fresh_incarnation(),
            });
            lease.renewed = now;
            lease.id
        };
        // A sender relying on a lease that is gone holds nothing here any
        // more: refuse the request and say which lease it has now.
        let lost = claim.is_some_and(|c| c != 0 && c != lease);
        if lost && msg == Msg::Heartbeat {
            // One-way: no reply will carry the news, so send it.
            let news = Msg::Leased {
                lease,
                msg: Box::new(Msg::Heartbeat),
            };
            let _ = self.caller.send(from, news);
        }
        let reply = self.handle_request(from, msg, lost);
        match claim {
            Some(c) if c != lease => Msg::Leased {
                lease,
                msg: Box::new(reply),
            },
            _ => reply,
        }
    }

    /// [`Self::handle`] below the lease stamp. `lease_lost` refuses
    /// everything that was not already executed (a retried commit is still
    /// answered from the dedup window).
    fn handle_request(&self, from: NodeId, msg: Msg, lease_lost: bool) -> Msg {
        // Unwrap piggybacked control traffic. Trailers execute only when
        // this delivery owns execution (i.e. after the dedup gate admits
        // the carrier), so a network-duplicated frame cannot run its
        // trailers twice or re-allocate a trailer-prefetched txn id.
        let (msg, trailers) = msg.into_trailers();
        self.caller.stats().trailers.add(trailers.len() as u64);

        // At-most-once execution for the non-idempotent requests: a
        // retried commit with the same request id gets the recorded reply
        // instead of applying twice. `req == 0` opts out. The dedup lookup
        // runs *before* the degraded-mode gate: a retried commit whose
        // first delivery already committed must be acknowledged from the
        // window even if the server has since gone read-only or draining —
        // rejecting it would report failure for a durably committed
        // transaction. Only the *carrier* reply is recorded and replayed;
        // a retry never repeats the trailers, so the client must treat
        // missing trailer replies on a retried frame as "fall back to an
        // explicit call".
        let dedup_key = match &msg {
            Msg::Commit { req, .. } | Msg::CommitGlobal { req, .. } if *req != 0 => {
                Some((from.0, *req))
            }
            _ => None,
        };
        if let Some(key) = dedup_key {
            if let Some(replayed) = self.dedup_begin(key) {
                return replayed;
            }
            let (reply, t_replies) = self.execute(from, msg, trailers, lease_lost);
            self.dedup_finish(key, reply.clone());
            return Msg::with_trailers(reply, t_replies);
        }
        let (reply, t_replies) = self.execute(from, msg, trailers, lease_lost);
        Msg::with_trailers(reply, t_replies)
    }

    /// Runs the trailers, then the carrier, unless a degraded mode or a
    /// lost lease forbids it. Returns the carrier's reply and the
    /// trailers' replies.
    fn execute(
        &self,
        from: NodeId,
        msg: Msg,
        trailers: Vec<Msg>,
        lease_lost: bool,
    ) -> (Msg, Vec<Msg>) {
        if lease_lost {
            self.stats.lease_lost_rejections.inc();
            return (Msg::Err(LEASE_LOST.into()), Vec::new());
        }
        let t_replies = match self.run_trailers(from, trailers) {
            Ok(replies) => replies,
            Err(refusal) => return (refusal, Vec::new()),
        };
        let reply = match self.check_degraded(&msg) {
            Some(reject) => reject,
            None => self.dispatch(from, msg),
        };
        (reply, t_replies)
    }

    /// Executes piggybacked trailers in frame order, before the carrier
    /// message. Only [`Msg::TxnId`] replies ride back (the id-prefetch
    /// case); everything else a trailer produces — `Ok`s from lease
    /// renewals and lock releases, degraded-mode rejections — is dropped,
    /// and the sender falls back to an explicit call when it needed the
    /// answer. But for one: a `BeginTxn` the drain gate rejects is the
    /// answer to the whole frame (`Err`), whose carrier — the new
    /// transaction's first request — must not run.
    fn run_trailers(&self, from: NodeId, trailers: Vec<Msg>) -> Result<Vec<Msg>, Msg> {
        let mut replies = Vec::new();
        for t in trailers {
            let r = match self.check_degraded(&t) {
                Some(reject) if matches!(t, Msg::BeginTxn) => return Err(reject),
                Some(reject) => reject,
                None => self.dispatch(from, t),
            };
            if matches!(r, Msg::TxnId(_)) {
                replies.push(r);
            }
        }
        Ok(replies)
    }

    /// Rejects requests the server's degraded modes forbid: new
    /// transactions while draining, mutations while read-only.
    fn check_degraded(&self, msg: &Msg) -> Option<Msg> {
        if self.draining.load(Ordering::Relaxed)
            && matches!(msg, Msg::BeginTxn | Msg::BeginGlobal)
        {
            self.stats.drain_rejections.inc();
            return Some(Msg::Err(DRAINING.into()));
        }
        if self.media().is_read_only() {
            match msg {
                Msg::WriteAt { .. }
                | Msg::Commit { .. }
                | Msg::CommitGlobal { .. }
                | Msg::AllocSegment { .. }
                | Msg::FreeSegment { .. } => {
                    self.stats.read_only_rejections.inc();
                    return Some(Msg::Err(
                        "server read-only after repeated media errors".into(),
                    ));
                }
                Msg::PrepareBatch { items } => {
                    self.stats.read_only_rejections.inc();
                    return Some(Msg::VoteBatch {
                        votes: items.iter().map(|i| (i.gtxn, Vote::No)).collect(),
                    });
                }
                _ => {}
            }
        }
        None
    }

    /// First half of the dedup protocol. Returns `Some(reply)` when this
    /// request is a duplicate (answered from the window, possibly after
    /// waiting out a concurrent first delivery); `None` when the caller
    /// owns execution and must call [`Self::dedup_finish`].
    fn dedup_begin(&self, key: (u32, u64)) -> Option<Msg> {
        {
            let mut w = self.dedup.lock();
            match w.entries.get(&key) {
                None => {
                    w.entries.insert(key, DedupState::InFlight);
                    w.order.push_back(key);
                    // Evict completed entries beyond the window; in-flight
                    // entries are never evicted (their owner still needs
                    // to record a reply).
                    while w.order.len() > DEDUP_WINDOW {
                        let Some(old) = w.order.front().copied() else {
                            break;
                        };
                        if matches!(w.entries.get(&old), Some(DedupState::InFlight)) {
                            break;
                        }
                        w.order.pop_front();
                        w.entries.remove(&old);
                    }
                    return None;
                }
                Some(DedupState::Done(reply)) => {
                    self.stats.dedup_hits.inc();
                    return Some(reply.clone());
                }
                Some(DedupState::InFlight) => {}
            }
        }
        // A duplicate arrived while the first delivery is still executing
        // (the network duplicated the request). Wait for its reply rather
        // than executing a second time.
        let deadline = Instant::now() + self.cfg.rpc_timeout;
        loop {
            std::thread::sleep(Duration::from_millis(1));
            {
                let w = self.dedup.lock();
                match w.entries.get(&key) {
                    Some(DedupState::Done(reply)) => {
                        self.stats.dedup_hits.inc();
                        return Some(reply.clone());
                    }
                    Some(DedupState::InFlight) => {}
                    None => return Some(Msg::Err("duplicate request evicted".into())),
                }
            }
            if Instant::now() > deadline {
                return Some(Msg::Err("duplicate request still in flight".into()));
            }
        }
    }

    /// Records the reply for a request admitted by [`Self::dedup_begin`].
    fn dedup_finish(&self, key: (u32, u64), reply: Msg) {
        self.dedup.lock().entries.insert(key, DedupState::Done(reply));
    }

    /// Reaps every node whose lease has expired.
    fn reap_expired(&self) {
        let now = Instant::now();
        let dead: Vec<u32> = {
            let mut leases = self.leases.lock();
            let dead: Vec<u32> = leases
                .iter()
                .filter(|(_, l)| now.duration_since(l.renewed) >= self.cfg.lease_duration)
                .map(|(n, _)| *n)
                .collect();
            for n in &dead {
                leases.remove(n);
            }
            dead
        };
        for node in dead {
            self.reap_node(node);
        }
        self.resolve_stale_prepared();
    }

    /// Dead-client reclamation: release the node's locks and callback
    /// copies, and drop its unprepared shipped updates. Prepared branches
    /// are left to [`Self::resolve_stale_prepared`], which honours the
    /// coordinator grace period.
    fn reap_node(&self, node: u32) {
        self.stats.leases_expired.inc();
        // Unshipped/unprepared branches: nothing was logged, so dropping
        // the buffered updates aborts them.
        let dropped: Vec<GTxn> = {
            let mut pending = self.pending.lock();
            let gone: Vec<GTxn> = pending
                .iter()
                .filter(|(_, (shipper, _))| *shipper == node)
                .map(|(g, _)| *g)
                .collect();
            for g in &gone {
                pending.remove(g);
            }
            gone
        };
        self.stats.txns_reaped.add(dropped.len() as u64);
        // Locks and callback copies are both grants to the client node;
        // one sweep releases them all and wakes any waiters.
        self.locks.unlock_all(TxnId(u64::from(node)));
    }

    /// Resolves prepared branches whose shipping client is no longer
    /// leased and whose coordinator grace has elapsed: ask the
    /// coordinator; no record means presumed abort.
    fn resolve_stale_prepared(&self) {
        let now = Instant::now();
        let stale: Vec<(GTxn, u32)> = {
            let leased: std::collections::HashSet<u32> =
                self.leases.lock().keys().copied().collect();
            self.pipeline
                .branches()
                .into_iter()
                .filter_map(|b| {
                    let shipper = b.shipper?;
                    (!leased.contains(&shipper)
                        && now.duration_since(b.prepared_at) >= self.cfg.coordinator_grace)
                        .then_some((b.gtxn, shipper))
                })
                .collect()
        };
        for (gtxn, _) in stale {
            let coord = coordinator_of(gtxn);
            let verdict = if coord == self.cfg.node.0 {
                // We are the coordinator: our durable decision table is
                // authoritative — but only once the round is over. A round
                // still collecting votes has no decision *yet*; presuming
                // abort here would undo a branch it may be about to commit.
                let decided = self.decisions.lock().get(&gtxn).copied();
                match decided {
                    Some(c) => Some(c),
                    None if self.coordinating.lock().contains(&gtxn) => None,
                    // Affirmatively no record and no in-flight round: the
                    // round never decided — presumed abort.
                    None => Some(false),
                }
            } else {
                match self.caller.call(
                    NodeId(coord),
                    Msg::QueryDecision { gtxn },
                    self.cfg.rpc_timeout,
                ) {
                    Ok(Msg::Decision { committed }) => Some(committed),
                    Ok(Msg::Unknown) => Some(false),  // presumed abort
                    Ok(Msg::DecisionPending) => None, // round running: retry next tick
                    _ => None,                        // unreachable: retry next tick
                }
            };
            if let Some(commit) = verdict {
                self.stats.txns_reaped.inc();
                self.decide(gtxn, commit);
            }
        }
    }

    fn dispatch(&self, from: NodeId, msg: Msg) -> Msg {
        match msg {
            Msg::BeginTxn => {
                self.stats.txns.inc();
                Msg::Ok
            }
            Msg::Heartbeat => Msg::Ok,
            Msg::BeginGlobal => {
                let seq = self.next_txn.fetch_add(1, Ordering::Relaxed);
                Msg::TxnId((u64::from(self.cfg.node.0) << 32) | seq)
            }
            Msg::FetchPage { page, mode } => {
                single_page_reply(self.fetch_pages(from, &[(page, Some(mode))]))
            }
            Msg::ReadPage { page } => single_page_reply(self.fetch_pages(from, &[(page, None)])),
            Msg::FetchPages { pages } => match self.fetch_pages(from, &pages) {
                Ok(data) => Msg::PagesData(data),
                Err(refusal) => refusal,
            },
            Msg::Lock { name, mode } => self.do_lock(from, name, mode),
            Msg::ReleaseCached { names } => {
                let owner = TxnId(u64::from(from.0));
                for name in names {
                    let _ = self.locks.unlock(owner, name);
                }
                Msg::Ok
            }
            Msg::ReleaseAll => {
                self.locks.unlock_all(TxnId(u64::from(from.0)));
                Msg::Ok
            }
            Msg::AllocSegment { area, pages } => match self.areas.get(area) {
                Some(a) => match a.alloc(pages) {
                    Ok(seg) => Msg::DiskSeg {
                        area: seg.area.0,
                        start_page: seg.start_page,
                        pages: seg.pages,
                    },
                    Err(e) => Msg::Err(e.to_string()),
                },
                None => Msg::Err(format!("no area {area}")),
            },
            Msg::FreeSegment {
                area,
                start_page,
                pages,
            } => match self.areas.get(area) {
                Some(a) => match a.free(DiskPtr {
                    area: AreaId(area),
                    start_page,
                    pages,
                }) {
                    Ok(()) => Msg::Ok,
                    Err(e) => Msg::Err(e.to_string()),
                },
                None => Msg::Err(format!("no area {area}")),
            },
            Msg::ReadAt {
                area,
                page,
                offset,
                len,
            } => match self.areas.get(area) {
                Some(a) => {
                    let mut buf = vec![0u8; len as usize];
                    match self.pipeline.verified(&a, page, || a.read_at(page, offset as usize, &mut buf))
                    {
                        Ok(()) => Msg::Bytes(buf),
                        Err(e) => Msg::Err(e.to_string()),
                    }
                }
                None => Msg::Err(format!("no area {area}")),
            },
            Msg::WriteAt {
                area,
                page,
                offset,
                data,
            } => match self.areas.get(area) {
                Some(a) => {
                    match self.pipeline.verified(&a, page, || a.write_at(page, offset as usize, &data)) {
                        Ok(()) => {
                            self.media().note(true);
                            Msg::Ok
                        }
                        Err(e) => {
                            self.media().note(false);
                            Msg::Err(e.to_string())
                        }
                    }
                }
                None => Msg::Err(format!("no area {area}")),
            },
            Msg::Commit { txn, updates, .. } => self.do_commit(txn, &updates),
            Msg::Abort { .. } => {
                self.stats.aborts.inc();
                Msg::Ok
            }
            Msg::CommitGlobal {
                gtxn,
                participants,
                release_read_locks,
                branches,
                ..
            } => self.do_commit_global(from, gtxn, &participants, release_read_locks, branches),
            Msg::PrepareBatch { items } => Msg::VoteBatch {
                votes: items
                    .into_iter()
                    .map(|i| {
                        self.stage(i.gtxn, i.locker, i.updates);
                        (i.gtxn, self.do_prepare(i.gtxn, i.locker, i.release_locks))
                    })
                    .collect(),
            },
            Msg::DecideBatch { decisions } => {
                for (gtxn, commit) in decisions {
                    self.decide(gtxn, commit);
                }
                Msg::Ok
            }
            Msg::QueryDecision { gtxn } => {
                let decided = self.decisions.lock().get(&gtxn).copied();
                match decided {
                    Some(committed) => Msg::Decision { committed },
                    // Phase 1 in flight, or the decision record mid-force:
                    // the querier must keep its prepared branch and retry.
                    None if self.coordinating.lock().contains(&gtxn) => Msg::DecisionPending,
                    None => Msg::Unknown,
                }
            }
            other => Msg::Err(format!("unexpected request: {other:?}")),
        }
    }

    /// Locks (where a mode is given) and reads `pages` for client node
    /// `from`. Locks are taken in request order and the first denial ends
    /// the request; the pages locked by then are read — pages of one area
    /// that follow each other in one batched submission — and returned up
    /// to the first that cannot be read. `Err`: the answer when not even
    /// the first page can be served.
    fn fetch_pages(&self, from: NodeId, pages: &[(DbPage, Option<LockMode>)]) -> Result<Vec<Vec<u8>>, Msg> {
        let mut granted = 0;
        for &(page, mode) in pages {
            match mode {
                Some(mode) => {
                    let name = LockName::Page {
                        area: page.area,
                        page: page.page,
                    };
                    match self.do_lock(from, name, mode) {
                        Msg::Granted => {}
                        denied if granted == 0 => return Err(denied),
                        _ => break,
                    }
                    self.stats.fetches.inc();
                }
                None => {
                    self.stats.reads.inc();
                }
            }
            granted += 1;
        }
        let runs = pages[..granted].chunk_by(|(a, _), (b, _)| a.area == b.area);
        granted_prefix(runs.flat_map(|run| self.read_run(run))).map_err(Msg::Err)
    }

    /// Reads the pages of `run`, all of one area, in one batched
    /// submission. A page whose read fails verification goes through the
    /// repair ladder alone: rebuilt from the log, then read once more.
    fn read_run(&self, run: &[(DbPage, Option<LockMode>)]) -> Vec<Result<Vec<u8>, String>> {
        let area = run.first().map_or(0, |(p, _)| p.area);
        let Some(a) = self.areas.get(area) else {
            return run.iter().map(|_| Err(format!("no area {area}"))).collect();
        };
        let numbers: Vec<u64> = run.iter().map(|(p, _)| p.page).collect();
        numbers
            .iter()
            .zip(a.read_pages_batch(&numbers))
            .map(|(&page, batched)| {
                let mut batched = Some(batched);
                let read = || match batched.take() {
                    Some(first) => first,
                    None => {
                        let mut buf = vec![0u8; a.page_size()];
                        a.read_page(page, &mut buf).map(|()| buf)
                    }
                };
                self.pipeline.verified(&a, page, read).map_err(|e| e.to_string())
            })
            .collect()
    }

    /// Grants `mode` on `name` to client node `from`, running the callback
    /// protocol against conflicting holders first.
    fn do_lock(&self, from: NodeId, name: LockName, mode: LockMode) -> Msg {
        let owner = TxnId(u64::from(from.0));
        self.lock_requests.lock().insert((name, owner), mode);
        let reply = self.serve_lock(owner, name, mode);
        self.lock_requests.lock().remove(&(name, owner));
        reply
    }

    /// Whether `owner`, whose callback `holder` has just deferred, waits
    /// for it in vain and must give way: `holder` has a request of its own
    /// for `name` in progress here that conflicts with what `owner` holds —
    /// two clients upgrading the same lock. A holder defers a callback
    /// that races its own request until its transaction ends, the
    /// transaction cannot end before the request is granted, and the
    /// request cannot be granted before `owner` lets go. Both sides may see
    /// the cycle at once; the first to decide takes its request off the
    /// table under the same guard, so the other no longer sees one.
    fn upgrade_deadlock(&self, name: LockName, owner: TxnId, holder: TxnId) -> bool {
        let held = self.locks.holders(name);
        let mut requests = self.lock_requests.lock();
        let Some(&wanted) = requests.get(&(name, holder)) else {
            return false;
        };
        let cycle = held
            .iter()
            .any(|(h, mode)| *h == owner && !mode.compatible(wanted));
        if cycle {
            requests.remove(&(name, owner));
        }
        cycle
    }

    fn serve_lock(&self, owner: TxnId, name: LockName, mode: LockMode) -> Msg {
        // If this very client is being called back for this resource right
        // now, wait until that callback's answer lands — a covered-mode
        // re-grant here would race the release and be silently undone.
        let wait_deadline = std::time::Instant::now() + self.cfg.rpc_timeout;
        while self.callbacks_in_flight.lock().contains(&(name, owner)) {
            if std::time::Instant::now() > wait_deadline {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        if self.locks.try_lock(owner, name, mode) {
            self.stats.locks_granted.inc();
            return Msg::Granted;
        }
        // Callback every conflicting holder (§3).
        for (holder, hmode) in self.locks.holders(name) {
            if holder == owner || hmode.compatible(mode) {
                continue;
            }
            self.stats.callbacks_sent.inc();
            self.callbacks_in_flight.lock().insert((name, holder));
            // The callback-read optimisation: an S requester facing an X
            // holder asks for a *downgrade* — the holder keeps S cached
            // (its data stays valid for reading) instead of losing the
            // lock entirely.
            let downgrade = mode == LockMode::S && !hmode.compatible(LockMode::S);
            let reply = if downgrade {
                self.caller.call(
                    NodeId(holder.0 as u32),
                    Msg::CallbackDowngrade {
                        name,
                        to: LockMode::S,
                    },
                    self.cfg.rpc_timeout,
                )
            } else {
                self.caller.call(
                    NodeId(holder.0 as u32),
                    Msg::Callback { name },
                    self.cfg.rpc_timeout,
                )
            };
            match reply {
                Ok(Msg::CallbackReleased) => {
                    if downgrade {
                        self.stats.callback_downgrades.inc();
                        let _ = self.locks.downgrade(holder, name, LockMode::S);
                    } else {
                        self.stats.callback_releases.inc();
                        let _ = self.locks.unlock(holder, name);
                    }
                }
                Ok(Msg::CallbackDeferred) => {
                    self.stats.callback_deferred.inc();
                    // The holder will send ReleaseCached when its local
                    // transaction finishes; we wait below — unless that
                    // transaction is itself waiting for us. Whoever sees
                    // the cycle gives way at once instead of both sitting
                    // out `lock_timeout`.
                    if self.upgrade_deadlock(name, owner, holder) {
                        self.callbacks_in_flight.lock().remove(&(name, holder));
                        self.stats.locks_denied.inc();
                        return Msg::Denied(format!(
                            "deadlock: {holder:?} is upgrading {name:?} too"
                        ));
                    }
                }
                _ => {
                    // Holder unreachable (crashed client) or an in-doubt
                    // transaction: the wait below resolves or times out.
                }
            }
            self.callbacks_in_flight.lock().remove(&(name, holder));
        }
        match self
            .locks
            .lock_timeout(owner, name, mode, self.cfg.lock_timeout)
        {
            Ok(()) => {
                self.stats.locks_granted.inc();
                Msg::Granted
            }
            Err(e) => {
                self.stats.locks_denied.inc();
                Msg::Denied(e.to_string())
            }
        }
    }

    /// Single-server commit: WAL (force) then apply.
    fn do_commit(&self, txn: u64, updates: &[PageUpdate]) -> Msg {
        let _timer = self.commit_ns.start();
        let _span = self.group.registry().span("commit", txn);
        match self.pipeline.commit(txn, updates) {
            Ok(_) => {
                self.stats.commits.inc();
                Msg::Ok
            }
            Err(e) => Msg::Err(e.to_string()),
        }
    }

    /// Stages a branch's write set for [`Self::do_prepare`], tagged with
    /// the client node whose locks cover it. An empty set stages nothing:
    /// that participant is read-only for the transaction.
    fn stage(&self, gtxn: GTxn, shipper: u32, updates: Vec<PageUpdate>) {
        if !updates.is_empty() {
            self.pending
                .lock()
                .entry(gtxn)
                .or_insert_with(|| (shipper, Vec::new()))
                .1
                .extend(updates);
        }
    }

    /// 2PC phase 1 at a participant.
    ///
    /// A participant with no shipped updates is **read-only** for this
    /// transaction: it has nothing to log, nothing to keep in doubt, and
    /// no stake in the outcome — it votes [`Vote::ReadOnly`], forgets the
    /// transaction immediately, and drops out of phase 2. When the client
    /// opted in (`release_locks`), its read locks on `locker`'s behalf are
    /// released right here, saving the trailing `ReleaseAll` message.
    fn do_prepare(&self, gtxn: GTxn, locker: u32, release_locks: bool) -> Vote {
        let (shipper, updates) = match self.pending.lock().remove(&gtxn) {
            Some(staged) => staged,
            None => {
                self.stats.two_pc_readonly_votes.inc();
                if release_locks && locker != 0 {
                    self.locks.unlock_all(TxnId(u64::from(locker)));
                }
                return Vote::ReadOnly;
            }
        };
        match self.pipeline.prepare(gtxn, updates, Some(shipper)) {
            Ok(()) => {
                self.stats.prepares.inc();
                Vote::Yes
            }
            Err(_) => Vote::No,
        }
    }

    /// 2PC phase 2 at a participant. Idempotent.
    fn decide(&self, gtxn: GTxn, commit: bool) {
        match self.pipeline.resolve(gtxn, commit) {
            Ok(Resolution::NotPrepared) => return,
            // The Commit record could not be forced: the branch is still
            // prepared (locks stay held, still in doubt) and the reaper
            // re-queries the coordinator once the log heals.
            Err(CommitError::LogForce(_) | CommitError::NoLog) => return,
            // Durably committed, whether or not every page took the write.
            Ok(Resolution::Committed) | Err(CommitError::Apply(_)) => self.stats.commits.inc(),
            Ok(Resolution::Aborted) => self.stats.aborts.inc(),
        };
        // Release the in-doubt page locks, if recovery took them.
        self.locks.unlock_all(TxnId(gtxn));
    }

    /// Coordinates a 2PC round (this server is "the first BeSS server the
    /// application establishes a connection with", §3).
    ///
    /// Presumed **commit**: the decision is force-logged exactly once as a
    /// [`LogBody::GlobalDecision`] listing the write participants, then
    /// commit verdicts go out as unacknowledged one-way sends — no
    /// participant ack round. Recovery closes the loop: a restarting
    /// coordinator re-sends verdicts for decisions without a closing
    /// `End`, and the decision table (never pruned) still answers
    /// `QueryDecision` exactly as before, so "no record" keeps meaning
    /// presumed abort. Aborts are acknowledged calls — they are the rare
    /// case, and acking them lets the round confirm the undo happened.
    fn do_commit_global(
        &self,
        from: NodeId,
        gtxn: GTxn,
        participants: &[u32],
        release_read_locks: bool,
        branches: Vec<(u32, Vec<PageUpdate>)>,
    ) -> Msg {
        let _timer = self.commit_global_ns.start();
        let _span = self.group.registry().span("commit.global", gtxn);
        self.stats.coordinated.inc();
        // Register the round before phase 1 starts: from here until the
        // decision is recorded, `QueryDecision` answers "in progress", so
        // a participant's reaper cannot mistake a mid-round silence for
        // "no record" and presume abort on a branch this round commits.
        self.coordinating.lock().insert(gtxn);
        let locker = from.0;

        // The write sets ride the commit frame: stage the coordinator's
        // own branch here; remote branches are forwarded inside each
        // participant's phase-1 entry.
        let mut remote_branches: HashMap<u32, Vec<PageUpdate>> = HashMap::new();
        for (p, updates) in branches {
            if p == self.cfg.node.0 {
                self.stage(gtxn, locker, updates);
            } else {
                remote_branches.entry(p).or_default().extend(updates);
            }
        }

        // Phase 1: issue every prepare before collecting any vote. Queue
        // every remote branch first — the participants' pump threads fan
        // the frames out concurrently, and concurrent rounds share
        // `PrepareBatch` frames — then prepare the local branch on this
        // thread while those are on the wire, and only then sit down to
        // collect votes.
        for &p in participants {
            if p != self.cfg.node.0 {
                self.enqueue_prepare(
                    p,
                    PrepareItem {
                        gtxn,
                        locker,
                        release_locks: release_read_locks,
                        updates: remote_branches.remove(&p).unwrap_or_default(),
                    },
                );
            }
        }
        let votes: Vec<Vote> = participants
            .iter()
            .map(|&p| {
                if p == self.cfg.node.0 {
                    self.do_prepare(gtxn, locker, release_read_locks)
                } else {
                    self.await_vote(p, gtxn)
                }
            })
            .collect();

        let all_yes = !votes.contains(&Vote::No);
        // Write participants: everyone who voted Yes (and therefore holds
        // a prepared branch). Read-only voters already forgot the
        // transaction and are owed nothing.
        let write_parts: Vec<u32> = participants
            .iter()
            .zip(&votes)
            .filter(|(_, v)| **v == Vote::Yes)
            .map(|(p, _)| *p)
            .collect();

        if all_yes && write_parts.is_empty() {
            // Fully read-only round: nothing was written anywhere and
            // every participant has already forgotten the transaction. No
            // decision record, no phase 2 — the commit is free.
            self.stats.two_pc_readonly_rounds.inc();
            self.coordinating.lock().remove(&gtxn);
            return Msg::Decision { committed: true };
        }

        let remote_writers: Vec<u32> = write_parts
            .iter()
            .copied()
            .filter(|&p| p != self.cfg.node.0)
            .collect();

        // Durable decision at the coordinator: the one force of the round.
        let body = LogBody::GlobalDecision {
            commit: all_yes,
            participants: if all_yes {
                remote_writers.clone()
            } else {
                Vec::new() // aborts are acked below; restart owes nothing
            },
        };
        let l = self.log.append(gtxn, Lsn::NULL, body);
        if self.log.flush(l).is_err() {
            // The round dies with no durable decision; once it is
            // deregistered, presumed abort legitimately applies.
            self.pipeline.note_log_force_failure();
            self.coordinating.lock().remove(&gtxn);
            return Msg::Err("coordinator log force failed".into());
        }
        self.decisions.lock().insert(gtxn, all_yes);
        self.coordinating.lock().remove(&gtxn);

        // Phase 2. The `End` record (not forced) closes the round so
        // restart knows the verdicts went out; the local branch resolves
        // before we reply, keeping the client's read-your-writes view.
        for &p in &remote_writers {
            if all_yes {
                // One-way, merged opportunistically into shared frames.
                self.send_decide(p, gtxn, true);
            } else {
                let _ = self.caller.call(
                    NodeId(p),
                    Msg::DecideBatch {
                        decisions: vec![(gtxn, false)],
                    },
                    self.cfg.rpc_timeout,
                );
            }
        }
        self.log.append(gtxn, l, LogBody::End);
        if write_parts.contains(&self.cfg.node.0) {
            self.decide(gtxn, all_yes);
        }
        Msg::Decision {
            committed: all_yes,
        }
    }

    /// Enqueues a phase-1 prepare for participant `p` on its gather
    /// queue, starting the participant's pump threads on first use. The
    /// caller collects the vote afterwards with [`Self::await_vote`];
    /// queueing every participant before waiting on any is what makes the
    /// fan-out concurrent without spawning per-round threads.
    fn enqueue_prepare(&self, p: u32, item: PrepareItem) {
        self.ensure_prep_pumps(p);
        self.prep_slots.lock().entry(p).or_default().queue.push(item);
        self.prep_cv.notify_all();
    }

    /// Waits for participant `p`'s vote on `gtxn`, previously enqueued
    /// with [`Self::enqueue_prepare`]. A pump that dies or times out
    /// resolves to [`Vote::No`].
    fn await_vote(&self, p: u32, gtxn: GTxn) -> Vote {
        let deadline = Instant::now() + self.cfg.rpc_timeout + self.cfg.rpc_timeout;
        let mut slots = self.prep_slots.lock();
        loop {
            if let Some(v) = slots.entry(p).or_default().votes.remove(&gtxn) {
                return v;
            }
            if Instant::now() > deadline {
                return Vote::No; // pump lost / timed out: vote abort
            }
            // LINT: allow(blocking-under-lock) — condvar wait releases
            // the mutex while blocked (the group-commit idiom).
            self.prep_cv.wait_for(&mut slots, Duration::from_millis(5));
        }
    }

    /// Starts the [`PREP_PIPELINE`] pump threads for participant `p` the
    /// first time a round prepares there. Pumps are persistent — spawning
    /// threads per commit round costs more than every other per-message
    /// overhead combined — and hold an `Arc` on the server, exiting when
    /// `running` drops at shutdown.
    fn ensure_prep_pumps(&self, p: u32) {
        {
            let mut started = self.prep_pumps.lock();
            if !started.insert(p) {
                return;
            }
        }
        let Some(me) = self.self_ref.upgrade() else {
            return;
        };
        for _ in 0..PREP_PIPELINE {
            let inner = Arc::clone(&me);
            std::thread::spawn(move || inner.prep_pump(p));
        }
    }

    /// One phase-1 pump: gathers queued prepares for participant `p` into
    /// [`Msg::PrepareBatch`] frames, sends each frame outside the lock, and
    /// distributes the votes; committers wake on the condvar. Batching
    /// happens whenever every pump's frame is in flight — later rounds
    /// pile up behind them and the next free pump takes the queue (up to
    /// [`PREP_BATCH_MAX`]) at once, without adding latency to an
    /// uncontended round.
    fn prep_pump(&self, p: u32) {
        loop {
            let batch: Vec<PrepareItem> = {
                let mut slots = self.prep_slots.lock();
                loop {
                    if !self.running.load(Ordering::Relaxed) {
                        return;
                    }
                    if !slots.entry(p).or_default().queue.is_empty() {
                        break;
                    }
                    // LINT: allow(blocking-under-lock) — condvar wait
                    // releases the mutex while blocked.
                    self.prep_cv
                        .wait_for(&mut slots, Duration::from_millis(100));
                }
                let slot = slots.entry(p).or_default();
                let take = slot.queue.len().min(PREP_BATCH_MAX);
                slot.queue.drain(..take).collect()
            };
            if batch.is_empty() {
                continue;
            }
            self.stats.two_pc_prepare_batches.inc();
            self.stats.two_pc_batched_prepares.add(batch.len() as u64);
            let reply = self.caller.call(
                NodeId(p),
                Msg::PrepareBatch {
                    items: batch.clone(),
                },
                self.cfg.rpc_timeout,
            );
            let votes: Vec<(GTxn, Vote)> = match reply {
                Ok(Msg::VoteBatch { votes }) => votes,
                // Unreachable participant or a malformed reply: every
                // transaction in the frame votes abort.
                _ => batch.iter().map(|i| (i.gtxn, Vote::No)).collect(),
            };
            {
                let mut slots = self.prep_slots.lock();
                let slot = slots.entry(p).or_default();
                for (g, v) in votes {
                    slot.votes.insert(g, v);
                }
            }
            self.prep_cv.notify_all();
        }
    }

    /// Queues a one-way commit verdict for participant `p`. If a send to
    /// `p` is already in flight, the current sender picks this verdict up
    /// into its next `DecideBatch` frame; otherwise this thread drains the
    /// outbox itself. Unacknowledged by design — restart re-send and the
    /// participant reaper's `QueryDecision` cover losses.
    fn send_decide(&self, p: u32, gtxn: GTxn, commit: bool) {
        {
            let mut boxes = self.decide_outboxes.lock();
            let slot = boxes.entry(p).or_default();
            slot.queue.push((gtxn, commit));
            if slot.sending {
                return;
            }
            slot.sending = true;
        }
        loop {
            let batch: Vec<(GTxn, bool)> = {
                let mut boxes = self.decide_outboxes.lock();
                let slot = boxes.entry(p).or_default();
                if slot.queue.is_empty() {
                    slot.sending = false;
                    return;
                }
                std::mem::take(&mut slot.queue)
            };
            self.stats.two_pc_oneway_decides.add(batch.len() as u64);
            let _ = self
                .caller
                .send(NodeId(p), Msg::DecideBatch { decisions: batch });
        }
    }
}

/// Builds a directory entry set for one server owning `areas`.
pub fn register_areas(dir: &Directory, server: NodeId, areas: &AreaSet) {
    for id in areas.ids() {
        dir.set_owner(id, server);
    }
}
