//! Deterministic network-fault matrix for the client–server layer — the
//! wire-level twin of `tests/crash_matrix.rs`.
//!
//! A scripted client runs a fixed two-transaction workload against two
//! BeSS servers (one distributed 2PC commit, one single-server commit).
//! The harness first runs it clean to learn the exact outbound message
//! count, then replays it with a [`NetFaultPlan`] armed at every message
//! index × every fault kind: the request vanishes, is delayed, is
//! duplicated, loses its reply, or the client's cable is pulled.
//!
//! After every run the client is declared dead ([`BessServer::expire_lease`])
//! and the failure-containment invariants are asserted:
//!
//! * no lock or callback copy is still owned by the dead client;
//! * no staged-but-unprepared update set survives it;
//! * every prepared 2PC branch is resolved (presumed abort);
//! * the durable pages are atomic — the distributed transaction's two
//!   writes land together or not at all — and byte-identical to the
//!   clean-run oracle whenever the client observed both commits;
//! * a duplicated or reply-dropped commit executes **exactly once**
//!   (request-id dedup), never twice;
//! * a fresh client can immediately lock everything the dead one held.
//!
//! The default run keeps the cheap full sweeps (Disconnect, Duplicate)
//! plus targeted commit-ambiguity cases; the slow sweeps (Drop, DropReply,
//! Delay — each faulted RPC costs a real client timeout) run under
//! `--features crash-tests`, like the crash matrix.

use std::sync::Arc;
use std::time::Duration;

use bess_cache::{AreaSet, DbPage};
use bess_lock::{LockMode, LockName};
use bess_net::{NetFaultKind, NetFaultPlan, Network, NodeId};
use bess_server::{
    register_areas, BessServer, ClientConfig, ClientConn, ClientError, ClientOpts, ClientResult,
    Directory, Msg, NodeServer, NodeServerConfig, PageUpdate, RemoteSpace, ServerConfig, Vote,
    DRAINING,
};
use bess_storage::{AreaConfig, AreaId, StorageArea};
use bess_wal::{LogBody, LogManager, Lsn};

const CLIENT: NodeId = NodeId(1);
const CHECKER: NodeId = NodeId(2);
const SRV0: NodeId = NodeId(100);
const SRV1: NodeId = NodeId(101);

/// The scripted workload's outbound client messages under the shipped
/// default client, in order:
///
/// | idx | message                                         | txn |
/// |-----|-------------------------------------------------|-----|
/// | 0   | FetchPage p0 (X) → srv0 [+BeginTxn]             | A   |
/// | 1   | FetchPage p1 (X) → srv1                         | A   |
/// | 2   | BeginGlobal → srv0              (pool is empty) | A   |
/// | 3   | CommitGlobal → srv0 [+branches, +prefetch]      | A   |
/// | 4   | FetchPage p0 (X) → srv0 [+ReleaseAll, BeginTxn] | B   |
/// | 5   | Commit → srv0                                   | B   |
///
/// `begin` sends nothing: the `BeginTxn` trailer on a transaction's first
/// frame to its home server announces it. Both write branches of txn A
/// ride the `CommitGlobal` frame (srv0 forwards srv1's inside its phase-1
/// `PrepareBatch` entry), and the `BeginGlobal` trailer on that frame
/// prefetches the next global id. The end of a transaction sends nothing
/// either: A's release at srv0 rides B's first frame; A's at srv1 and B's
/// at srv0 find no frame and are left to the listener's tick (every 50 ms,
/// many times the length of this workload, so it is not among the
/// messages counted here) or to `disconnect` — which here comes after the
/// cable is pulled, so the lease reaper collects those locks.
///
/// The control run asserts this count so a protocol change updates the
/// targeted indices below instead of silently skewing the sweep.
const WORKLOAD_MSGS: u64 = 6;
const IDX_COMMIT_GLOBAL: u64 = 3;
const IDX_COMMIT: u64 = 5;

/// The same workload against a client with every message-saving opt on
/// ([`ClientOpts::turbo`]): read-only participants release locks at their
/// phase-1 vote — which sends txn B, here reading p1 as well, through 2PC
/// too.
///
/// | idx | message                                         | txn |
/// |-----|-------------------------------------------------|-----|
/// | 0   | FetchPage p0 (X) → srv0 [+BeginTxn]             | A   |
/// | 1   | FetchPage p1 (X) → srv1                         | A   |
/// | 2   | BeginGlobal → srv0              (pool is empty) | A   |
/// | 3   | CommitGlobal → srv0 [+branches, +prefetch]      | A   |
/// | 4   | FetchPage p0 (X) → srv0 [+ReleaseAll, BeginTxn] | B   |
/// | 5   | FetchPage p1 (S) → srv1 [+ReleaseAll]           | B   |
/// | 6   | CommitGlobal → srv0 [+branches, +prefetch]      | B   |
///
/// No second `BeginGlobal` (prefetched by the trailer on message 3), and
/// srv1 — read-only in txn B — votes at phase 1 and is never contacted
/// again.
const TURBO_WORKLOAD_MSGS: u64 = 7;
const TURBO_IDX_COMMIT_A: u64 = 3;
const TURBO_IDX_COMMIT_B: u64 = 6;

/// One client configuration the matrix certifies. Everything else — the
/// cluster, transaction A, the fault plan, the kill, every invariant — is
/// shared.
struct Profile {
    name: &'static str,
    opts: fn() -> ClientOpts,
    txn_b: fn(&ClientConn, DbPage, DbPage) -> ClientResult<()>,
    /// Client messages in a clean run (the table above).
    msgs: u64,
    /// 2PC rounds srv0 may coordinate: one per global commit, never more.
    max_coordinated: u64,
}

const DEFAULT: Profile = Profile {
    name: "default",
    opts: ClientOpts::default,
    txn_b,
    msgs: WORKLOAD_MSGS,
    max_coordinated: 1,
};

const TURBO: Profile = Profile {
    name: "turbo",
    opts: ClientOpts::turbo,
    txn_b: txn_b_turbo,
    msgs: TURBO_WORKLOAD_MSGS,
    max_coordinated: 2,
};

struct Cluster {
    net: Arc<Network<Msg>>,
    dir: Arc<Directory>,
    servers: Vec<BessServer>,
    p0: DbPage,
    p1: DbPage,
}

fn build() -> Cluster {
    let net = Network::new(Duration::ZERO);
    let dir = Arc::new(Directory::new());
    let mut servers = Vec::new();
    for (i, area) in [0u32, 1].iter().enumerate() {
        let set = Arc::new(AreaSet::new());
        set.add(Arc::new(
            StorageArea::create_mem(AreaId(*area), AreaConfig::default()).unwrap(),
        ));
        // LINT: allow(cast) — two servers.
        let node = NodeId(SRV0.0 + i as u32);
        register_areas(&dir, node, &set);
        let mut cfg = ServerConfig::new(node);
        // The matrix injects death explicitly via `expire_lease`; a long
        // lease keeps the serve loop's own reaper out of the way, and a
        // zero grace makes prepared-branch resolution immediate.
        cfg.lease_duration = Duration::from_secs(60);
        cfg.coordinator_grace = Duration::ZERO;
        let (s, _) = BessServer::start(cfg, set, LogManager::create_mem(), &net);
        servers.push(s);
    }
    let p0 = {
        let seg = servers[0].areas().get(0).unwrap().alloc(1).unwrap();
        DbPage { area: 0, page: seg.start_page }
    };
    let p1 = {
        let seg = servers[1].areas().get(1).unwrap().alloc(1).unwrap();
        DbPage { area: 1, page: seg.start_page }
    };
    Cluster { net, dir, servers, p0, p1 }
}

fn connect_with(cluster: &Cluster, node: NodeId, opts: ClientOpts) -> Arc<ClientConn> {
    let mut cfg = ClientConfig::new(node, SRV0);
    cfg.caching = false;
    // Short timeout so a faulted RPC resolves quickly; heartbeats pushed
    // out of the way so the fault plan's message index stays deterministic
    // (the dedicated lease tests below turn them back on).
    cfg.rpc_timeout = Duration::from_millis(200);
    cfg.heartbeat_interval = Duration::from_secs(60);
    cfg.retry_base = Duration::from_millis(1);
    cfg.opts = opts;
    ClientConn::connect(&cluster.net, Arc::clone(&cluster.dir), cfg)
}

fn connect(cluster: &Cluster, node: NodeId) -> Arc<ClientConn> {
    connect_with(cluster, node, ClientOpts::default())
}

fn upd(p: DbPage, before: &[u8], after: &[u8]) -> PageUpdate {
    PageUpdate { page: p, offset: 0, before: before.to_vec(), after: after.to_vec() }
}

/// Transaction A: a two-writer distributed commit (`aa` to both pages) —
/// batched phase 1 and the one-way presumed-commit phase 2 towards srv1.
fn txn_a(c: &ClientConn, p0: DbPage, p1: DbPage) -> ClientResult<()> {
    c.begin()?;
    c.fetch_page(p0, LockMode::X)?;
    c.fetch_page(p1, LockMode::X)?;
    c.commit(vec![upd(p0, &[0; 2], b"aa"), upd(p1, &[0; 2], b"aa")])
}

/// Transaction B: a single-server commit writing `bb` over p0.
fn txn_b(c: &ClientConn, p0: DbPage, _p1: DbPage) -> ClientResult<()> {
    c.begin()?;
    c.fetch_page(p0, LockMode::X)?;
    c.commit(vec![upd(p0, b"aa", b"bb")])
}

/// Turbo transaction B: reads p1, writes p0 — srv1 is enrolled as a
/// read-only participant, votes [`Vote::ReadOnly`], releases the client's
/// locks at phase 1, and drops out of phase 2.
fn txn_b_turbo(c: &ClientConn, p0: DbPage, p1: DbPage) -> ClientResult<()> {
    c.begin()?;
    c.fetch_page(p0, LockMode::X)?;
    c.fetch_page(p1, LockMode::S)?;
    c.commit(vec![upd(p0, b"aa", b"bb")])
}

struct CaseResult {
    /// The client observed transaction A (B) commit.
    a_ok: bool,
    b_ok: bool,
    /// Client messages counted by the plan (meaningful in the control run
    /// only — once a plan fires it disarms and counts everyone).
    msgs: u64,
    fired: u64,
    /// `server.dedup_hits` at SRV0 after the case ran.
    dedup_hits0: u64,
    /// `server.coordinated` at SRV0 after the case ran.
    coordinated0: u64,
    client_retries: u64,
    /// `server.2pc.readonly_votes` at SRV1 / `server.2pc.oneway_decides`
    /// at SRV0 after the case ran.
    readonly_votes1: u64,
    oneway_decides0: u64,
    /// Durable page images after reclamation.
    d0: Vec<u8>,
    d1: Vec<u8>,
}

fn read_page_bytes(srv: &BessServer, p: DbPage) -> Vec<u8> {
    let area = srv.areas().get(p.area).unwrap();
    let mut buf = vec![0u8; area.page_size()];
    area.read_page(p.page, &mut buf).unwrap();
    buf
}

/// Runs the scripted workload with `kind` armed at client message `at`,
/// kills the client, reclaims it, and asserts every containment invariant.
fn run_case(profile: &Profile, kind: NetFaultKind, at: u64) -> CaseResult {
    let cluster = build();
    let label = format!("{} {kind:?} at client message {at}", profile.name);
    let plan = NetFaultPlan::armed_from(CLIENT, at, kind);
    cluster.net.arm(Arc::clone(&plan));

    let client = connect_with(&cluster, CLIENT, (profile.opts)());
    let mut a_ok = false;
    let mut a_aborted = false;
    let mut b_ok = false;
    let mut died = false;
    match txn_a(&client, cluster.p0, cluster.p1) {
        Ok(()) => a_ok = true,
        // A transport failure the retry policy could not absorb: the
        // client stops mid-protocol, exactly like a crashed process.
        Err(ClientError::Net(_)) => died = true,
        // A server-side abort of the global transaction; the client
        // lives on.
        Err(_) => a_aborted = true,
    }
    if !died && (profile.txn_b)(&client, cluster.p0, cluster.p1).is_ok() {
        b_ok = true;
    }
    let msgs = plan.msgs();
    let fired = plan.fired();
    let client_retries = client.stats().retries.get();

    // The client machine goes away — whatever it was doing stays behind
    // on the servers until lease reclamation collects it.
    cluster.net.partition(CLIENT);
    client.disconnect();
    for s in &cluster.servers {
        s.expire_lease(CLIENT);
    }

    // ---- containment invariants ---------------------------------------
    for s in &cluster.servers {
        assert!(
            !s.has_lease(CLIENT),
            "[{label}] dead client still holds a lease at {}",
            s.node()
        );
        let leaked = s.locks_held_by(CLIENT);
        assert!(
            leaked.is_empty(),
            "[{label}] dead client leaked locks at {}: {leaked:?}",
            s.node()
        );
        let pending = s.pending_gtxns();
        assert!(
            pending.is_empty(),
            "[{label}] staged updates survived reclamation at {}: {pending:?}",
            s.node()
        );
        let in_doubt = s.in_doubt();
        assert!(
            in_doubt.is_empty(),
            "[{label}] unresolved prepared branches at {}: {in_doubt:?}",
            s.node()
        );
    }

    // ---- durable atomicity ----------------------------------------------
    let d0 = read_page_bytes(&cluster.servers[0], cluster.p0);
    let d1 = read_page_bytes(&cluster.servers[1], cluster.p1);
    let a_durable = &d1[0..2] == b"aa";
    let b_durable = &d0[0..2] == b"bb";
    if a_durable {
        assert!(
            &d0[0..2] == b"aa" || b_durable,
            "[{label}] 2PC atomicity violated: p1 committed, p0 = {:?}",
            &d0[0..2]
        );
    } else {
        // Without A, p0 is untouched — or carries B alone, which takes a
        // client that outlived a server-side abort of A.
        assert!(
            d0[0..2] == [0, 0] || (b_durable && a_aborted),
            "[{label}] 2PC atomicity violated: p1 aborted, p0 = {:?}",
            &d0[0..2]
        );
    }
    if a_ok {
        assert!(a_durable, "[{label}] client saw global commit, updates lost");
    }
    if b_ok {
        assert!(b_durable, "[{label}] client saw commit B, update lost");
    }

    // ---- exactly-once commits ------------------------------------------
    // `commits` counts local commits plus committed 2PC branches, so each
    // server's total is pinned exactly by what is durably on disk: a
    // duplicated or retried commit that executed twice — one-way decides
    // and replayed trailers included — would overshoot.
    let snap0 = cluster.servers[0].stats();
    let snap1 = cluster.servers[1].stats();
    assert_eq!(
        snap0.commits.get(),
        u64::from(a_durable) + u64::from(b_durable),
        "[{label}] commit applied more than once at {}",
        SRV0
    );
    assert_eq!(
        snap1.commits.get(),
        u64::from(a_durable),
        "[{label}] commit applied more than once at {}",
        SRV1
    );
    assert!(
        snap0.coordinated.get() <= profile.max_coordinated,
        "[{label}] global commits coordinated {} times",
        snap0.coordinated.get()
    );

    // ---- a fresh client inherits the world cleanly ----------------------
    let checker = connect(&cluster, CHECKER);
    checker.begin().unwrap();
    checker
        .fetch_page(cluster.p0, LockMode::X)
        .unwrap_or_else(|e| panic!("[{label}] ghost lock on p0: {e}"));
    checker
        .fetch_page(cluster.p1, LockMode::X)
        .unwrap_or_else(|e| panic!("[{label}] ghost lock on p1: {e}"));
    checker.abort().unwrap();
    checker.disconnect();

    CaseResult {
        a_ok,
        b_ok,
        msgs,
        fired,
        dedup_hits0: snap0.dedup_hits.get(),
        coordinated0: snap0.coordinated.get(),
        client_retries,
        readonly_votes1: snap1.two_pc_readonly_votes.get(),
        oneway_decides0: snap0.two_pc_oneway_decides.get(),
        d0,
        d1,
    }
}

/// Fault-free control: the workload commits both transactions, produces
/// the oracle page images, pins the message-index layout the targeted
/// cases below rely on, and proves the 2PC machinery actually ran — a
/// one-way decide from srv0, and a read-only vote at srv1 exactly when
/// the profile enrols readers.
fn control(profile: &Profile) -> CaseResult {
    // Armed far past the workload so the plan counts but never fires (and
    // keeps its from-filter for the whole run).
    let r = run_case(profile, NetFaultKind::Drop, u64::MAX);
    assert_eq!(r.fired, 0);
    assert!(r.a_ok && r.b_ok, "clean {} run must commit both transactions", profile.name);
    assert_eq!(
        r.msgs, profile.msgs,
        "{} workload message layout changed; update the index table",
        profile.name
    );
    assert_eq!(&r.d0[0..2], b"bb");
    assert_eq!(&r.d1[0..2], b"aa");
    assert_eq!(
        r.readonly_votes1,
        u64::from((profile.opts)().release_read_locks),
        "srv1 votes read-only once (txn B) iff readers are enrolled"
    );
    assert!(r.oneway_decides0 >= 1, "txn A's decide should be a one-way send");
    r
}

/// Sweeps `kind` over every client message index, comparing survivors
/// against the oracle.
fn sweep(profile: &Profile, kind: NetFaultKind) {
    let oracle = control(profile);
    for at in 0..profile.msgs {
        let r = run_case(profile, kind, at);
        assert_eq!(r.fired, 1, "{} {kind:?} at {at} never fired", profile.name);
        if r.a_ok && r.b_ok {
            // Both commits observed: the durable image must be exactly the
            // clean run's, whatever the fault did on the way.
            assert_eq!(r.d0, oracle.d0, "{} {kind:?} at {at} corrupted p0", profile.name);
            assert_eq!(r.d1, oracle.d1, "{} {kind:?} at {at} corrupted p1", profile.name);
        }
    }
}

#[test]
fn control_workload_is_clean() {
    control(&DEFAULT);
}

#[test]
fn turbo_control_workload_is_clean() {
    control(&TURBO);
}

/// The cable-pull sweep: the client is partitioned at every message index
/// in turn. Fails fast (no timeouts), so the full sweep runs by default.
#[test]
fn disconnect_at_every_message_index() {
    sweep(&DEFAULT, NetFaultKind::Disconnect);
}

#[test]
fn turbo_disconnect_at_every_message_index() {
    sweep(&TURBO, NetFaultKind::Disconnect);
}

/// The retransmission sweep: every message is delivered twice at every
/// index in turn. Commits must apply exactly once (request-id dedup).
#[test]
fn duplicate_at_every_message_index() {
    sweep(&DEFAULT, NetFaultKind::Duplicate);
}

#[test]
fn turbo_duplicate_at_every_message_index() {
    sweep(&TURBO, NetFaultKind::Duplicate);
}

/// A duplicated commit request is answered from the dedup window: the
/// server executes it once and replays the recorded reply.
#[test]
fn duplicated_commit_applies_exactly_once() {
    // (`run_case` itself pins the commit counters to the durable state;
    // these cases additionally prove the dedup window was what saved us.)
    let r = run_case(&DEFAULT, NetFaultKind::Duplicate, IDX_COMMIT);
    assert!(r.a_ok && r.b_ok);
    assert!(r.dedup_hits0 >= 1, "duplicate commit missed the dedup window");

    let r = run_case(&DEFAULT, NetFaultKind::Duplicate, IDX_COMMIT_GLOBAL);
    assert!(r.a_ok && r.b_ok);
    assert_eq!(r.coordinated0, 1);
    assert!(r.dedup_hits0 >= 1, "duplicate global commit missed the dedup window");
}

/// The classic "did my commit land?" ambiguity: the commit executes but
/// its reply is lost. The client retries with the same request id and the
/// server answers from the dedup window instead of committing twice.
#[test]
fn lost_commit_reply_resolves_by_idempotent_retry() {
    let r = run_case(&DEFAULT, NetFaultKind::DropReply, IDX_COMMIT);
    assert!(r.b_ok, "retried commit should have been acknowledged");
    assert!(r.dedup_hits0 >= 1);
    assert!(r.client_retries >= 1);

    let r = run_case(&DEFAULT, NetFaultKind::DropReply, IDX_COMMIT_GLOBAL);
    assert!(r.a_ok, "retried global commit should have been acknowledged");
    assert_eq!(r.coordinated0, 1, "reply-dropped global commit ran 2PC twice");
    assert!(r.dedup_hits0 >= 1);
    assert!(r.client_retries >= 1);
}

/// A duplicated or reply-dropped `CommitGlobal` frame must not re-run its
/// trailers: the piggybacked `BeginGlobal` and `ReleaseAll` ride the dedup
/// window with their carrier, so the round commits exactly once.
#[test]
fn turbo_duplicated_and_retried_commits_apply_exactly_once() {
    for idx in [TURBO_IDX_COMMIT_A, TURBO_IDX_COMMIT_B] {
        let r = run_case(&TURBO, NetFaultKind::Duplicate, idx);
        assert!(r.a_ok && r.b_ok, "duplicate at {idx} broke the workload");
        let r = run_case(&TURBO, NetFaultKind::DropReply, idx);
        assert!(
            r.a_ok && r.b_ok,
            "reply-dropped commit at {idx} was not resolved by retry"
        );
    }
}

/// A vanished request is invisible end-to-end: the retry layer absorbs it
/// (representative indices; the full sweep runs under `crash-tests`).
#[test]
fn dropped_request_is_absorbed_by_retry_representative() {
    for at in [0, 1, IDX_COMMIT_GLOBAL, IDX_COMMIT] {
        let r = run_case(&DEFAULT, NetFaultKind::Drop, at);
        assert_eq!(r.fired, 1);
        assert!(r.a_ok && r.b_ok, "Drop at {at} was not absorbed");
        assert!(r.client_retries >= 1);
    }
}

#[cfg_attr(not(feature = "crash-tests"), ignore)]
#[test]
fn drop_at_every_message_index_full() {
    sweep(&DEFAULT, NetFaultKind::Drop);
}

#[cfg_attr(not(feature = "crash-tests"), ignore)]
#[test]
fn turbo_drop_at_every_message_index_full() {
    sweep(&TURBO, NetFaultKind::Drop);
}

#[cfg_attr(not(feature = "crash-tests"), ignore)]
#[test]
fn drop_reply_at_every_message_index_full() {
    sweep(&DEFAULT, NetFaultKind::DropReply);
}

#[cfg_attr(not(feature = "crash-tests"), ignore)]
#[test]
fn turbo_drop_reply_at_every_message_index_full() {
    sweep(&TURBO, NetFaultKind::DropReply);
}

// Shorter than the client's RPC timeout: pure latency, no failure.
const SHORT_DELAY: NetFaultKind = NetFaultKind::Delay(Duration::from_millis(50));

#[cfg_attr(not(feature = "crash-tests"), ignore)]
#[test]
fn delay_at_every_message_index_full() {
    sweep(&DEFAULT, SHORT_DELAY);
}

#[cfg_attr(not(feature = "crash-tests"), ignore)]
#[test]
fn turbo_delay_at_every_message_index_full() {
    sweep(&TURBO, SHORT_DELAY);
}

// ---- presumed commit: the one-way decide can vanish -------------------------

/// Presumed commit's bargain: the commit decide is an unacknowledged send,
/// so it can be lost — and the participant's branch must still commit,
/// because the coordinator's force-logged decision is never pruned and
/// `QueryDecision` serves it to the participant's reaper.
#[test]
fn dropped_oneway_decide_resolves_via_decision_query() {
    let cluster = build();
    // Fault the *coordinator's* outbound traffic: message 0 is the
    // PrepareBatch call to srv1, message 1 the one-way DecideBatch.
    let plan = NetFaultPlan::armed_from(SRV0, 1, NetFaultKind::Drop);
    cluster.net.arm(Arc::clone(&plan));

    let client = connect_with(&cluster, CLIENT, ClientOpts::turbo());
    txn_a(&client, cluster.p0, cluster.p1).expect("commit must succeed");
    assert_eq!(plan.fired(), 1, "the decide send was not faulted");

    // The client was told "committed" (the coordinator's decision is
    // durable), but srv1 never heard phase 2: its branch is in doubt.
    assert_eq!(cluster.servers[1].in_doubt().len(), 1);

    // The client dies; srv1's reaper resolves the branch by asking the
    // coordinator — presumed *commit* means the answer is served from the
    // never-pruned decision table, not guessed.
    cluster.net.partition(CLIENT);
    client.disconnect();
    for s in &cluster.servers {
        s.expire_lease(CLIENT);
    }
    assert!(cluster.servers[1].in_doubt().is_empty());
    assert_eq!(
        &read_page_bytes(&cluster.servers[1], cluster.p1)[0..2],
        b"aa",
        "lost decide must not lose the committed branch"
    );
    assert_eq!(cluster.servers[1].stats().commits.get(), 1);
    assert_eq!(&read_page_bytes(&cluster.servers[0], cluster.p0)[0..2], b"aa");
}

/// A coordinator that crashes after force-logging its commit decision but
/// before (or while) delivering phase 2 re-sends the decides at restart:
/// `GlobalDecision` without a matching `End` is exactly the undelivered
/// window.
#[test]
fn coordinator_restart_resends_undelivered_decides() {
    let net: Arc<Network<Msg>> = Network::new(Duration::ZERO);
    let dir = Arc::new(Directory::new());
    let set = Arc::new(AreaSet::new());
    set.add(Arc::new(
        StorageArea::create_mem(AreaId(0), AreaConfig::default()).unwrap(),
    ));
    register_areas(&dir, SRV0, &set);

    // The participant is a bare endpoint so the re-sent decide is observable.
    let participant = net.register(SRV1);

    // Seed the coordinator's log as the crash left it: decision forced,
    // no End.
    let gtxn = (u64::from(SRV0.0) << 32) | 42;
    let log = LogManager::create_mem();
    let lsn = log.append(
        gtxn,
        Lsn::NULL,
        LogBody::GlobalDecision { commit: true, participants: vec![SRV1.0] },
    );
    log.flush(lsn).unwrap();

    let (srv, _) = BessServer::start(ServerConfig::new(SRV0), set, log, &net);
    assert_eq!(srv.stats().two_pc_decide_resends.get(), 1);
    let env = participant.recv(Duration::from_secs(2)).expect("re-sent decide");
    match env.msg {
        Msg::DecideBatch { ref decisions } => {
            assert_eq!(decisions, &vec![(gtxn, true)]);
        }
        other => panic!("expected re-sent DecideBatch, got {other:?}"),
    }

    // The decision survives restart for late queries (presumed commit
    // never prunes), and an unknown transaction is still presumed abort.
    let q = net.register(CHECKER);
    let t = Duration::from_secs(2);
    assert_eq!(
        q.call(SRV0, Msg::QueryDecision { gtxn }, t).unwrap(),
        Msg::Decision { committed: true }
    );
    assert_eq!(
        q.call(SRV0, Msg::QueryDecision { gtxn: gtxn + 1 }, t).unwrap(),
        Msg::Unknown
    );
}

// ---- lease lifecycle -----------------------------------------------------

/// Heartbeats keep an idle client alive through many reaper passes; once
/// the client vanishes, the serve loop reaps it on its own (no manual
/// `expire_lease`) and releases its locks.
#[test]
fn heartbeats_sustain_lease_and_silence_is_reaped() {
    // One server with a short lease (the shared `build()` uses a long one
    // precisely to keep the automatic reaper out of the fault matrix).
    let net = Network::new(Duration::ZERO);
    let dir = Arc::new(Directory::new());
    let set = Arc::new(AreaSet::new());
    set.add(Arc::new(
        StorageArea::create_mem(AreaId(0), AreaConfig::default()).unwrap(),
    ));
    register_areas(&dir, SRV0, &set);
    let mut scfg = ServerConfig::new(SRV0);
    scfg.lease_duration = Duration::from_millis(300);
    let (srv, _) = BessServer::start(scfg, set, LogManager::create_mem(), &net);
    let seg = srv.areas().get(0).unwrap().alloc(1).unwrap();
    let p0 = DbPage { area: 0, page: seg.start_page };

    let mut cfg = ClientConfig::new(CLIENT, SRV0);
    cfg.caching = false;
    // The listener renews on its ~50 ms idle tick; 6× inside the lease.
    cfg.heartbeat_interval = Duration::from_millis(10);
    let client = ClientConn::connect(&net, Arc::clone(&dir), cfg);
    client.begin().unwrap();
    client.fetch_page(p0, LockMode::X).unwrap();

    // Far longer than the lease: only heartbeats keep the client alive.
    std::thread::sleep(Duration::from_millis(900));
    assert!(srv.has_lease(CLIENT), "heartbeats failed to renew the lease");
    assert!(
        !srv.locks_held_by(CLIENT).is_empty(),
        "live client's locks were reaped"
    );
    assert!(client.stats().heartbeats.get() > 0);

    // Pull the cable; the serve loop's own reaper must collect the client.
    net.partition(CLIENT);
    std::thread::sleep(Duration::from_millis(900));
    assert!(!srv.has_lease(CLIENT), "silent client's lease survived");
    assert!(
        srv.locks_held_by(CLIENT).is_empty(),
        "silent client's locks survived"
    );
    assert!(srv.stats().leases_expired.get() >= 1);
    client.disconnect();
}

/// Lease reclamation frees a dead lock-holder's resources for waiters.
#[test]
fn dead_lock_holder_is_reclaimed_for_the_next_client() {
    let cluster = build();
    let victim = connect(&cluster, CLIENT);
    victim.begin().unwrap();
    victim.fetch_page(cluster.p0, LockMode::X).unwrap();
    cluster.net.partition(CLIENT);

    cluster.servers[0].expire_lease(CLIENT);
    assert!(cluster.servers[0].locks_held_by(CLIENT).is_empty());

    let next = connect(&cluster, CHECKER);
    next.begin().unwrap();
    next.fetch_page(cluster.p0, LockMode::X)
        .expect("reclaimed lock must be grantable immediately");
    next.abort().unwrap();
    next.disconnect();
    victim.disconnect();
}

// ---- graceful degradation -------------------------------------------------

/// Drain mode: in-flight transactions finish, new ones are turned away —
/// at their first request, which announces them (`begin` sends nothing),
/// and before that request takes a lock. The release of the finished
/// transaction rides that refused frame ahead of the announcement, and has
/// run: a draining server still sheds the old transaction's locks.
#[test]
fn draining_server_finishes_old_work_and_rejects_new() {
    let cluster = build();
    let client = connect(&cluster, CLIENT);
    client.begin().unwrap();
    client.fetch_page(cluster.p0, LockMode::X).unwrap();

    cluster.servers[0].set_draining(true);
    // The in-flight transaction runs to completion...
    client.commit(vec![upd(cluster.p0, &[0; 2], b"dd")]).unwrap();
    // ...but a new one is refused, for as long as the server drains.
    client.begin().unwrap();
    for _ in 0..2 {
        let refused = client.fetch_page(cluster.p0, LockMode::X);
        assert!(
            matches!(&refused, Err(ClientError::Server(why)) if why == DRAINING),
            "{refused:?}"
        );
    }
    assert!(cluster.servers[0].stats().drain_rejections.get() >= 2);
    assert_eq!(cluster.servers[0].locks_held_by(CLIENT), []);
    client.abort().unwrap();

    cluster.servers[0].set_draining(false);
    client.begin().unwrap();
    client.fetch_page(cluster.p0, LockMode::X).unwrap();
    client.abort().unwrap();
    client.disconnect();
}

/// The same through a node server, which passes the announcement on with
/// the first frame the new transaction makes it send: the owner refuses
/// that frame, and the node server is left with no lock and no page from
/// it. (What the node server can serve from its own caches it serves; a
/// draining owner never hears of that.)
#[test]
fn draining_server_rejects_new_work_behind_a_node_server() {
    const NODE_SERVER: NodeId = NodeId(50);
    let cluster = build();
    let p2 = {
        let seg = cluster.servers[0].areas().get(0).unwrap().alloc(1).unwrap();
        DbPage { area: 0, page: seg.start_page }
    };
    let ns = NodeServer::start(
        NodeServerConfig::new(NODE_SERVER),
        Arc::clone(&cluster.dir),
        &cluster.net,
    );
    let client = {
        let mut cfg = ClientConfig::new(CLIENT, NODE_SERVER);
        cfg.gateway = Some(NODE_SERVER);
        ClientConn::connect(&cluster.net, Arc::clone(&cluster.dir), cfg)
    };
    client.begin().unwrap();
    client.fetch_page(cluster.p0, LockMode::X).unwrap();

    let srv0 = &cluster.servers[0];
    srv0.set_draining(true);
    client.commit(vec![upd(cluster.p0, &[0; 2], b"dd")]).unwrap();
    assert_eq!(&read_page_bytes(srv0, cluster.p0)[0..2], b"dd");

    let shipped = srv0.stats().fetches.get() + srv0.stats().reads.get();
    client.begin().unwrap();
    let refused = client.fetch_page(p2, LockMode::S);
    assert!(
        matches!(&refused, Err(ClientError::Server(why)) if why == DRAINING),
        "{refused:?}"
    );
    assert!(srv0.stats().drain_rejections.get() >= 1);
    let p2_lock = LockName::Page { area: p2.area, page: p2.page };
    assert!(!srv0.locks_held_by(NODE_SERVER).contains(&p2_lock));
    assert_eq!(ns.lock_cache().cached_mode(p2_lock), None);
    assert_eq!(srv0.stats().fetches.get() + srv0.stats().reads.get(), shipped);
    client.abort().unwrap();

    srv0.set_draining(false);
    client.begin().unwrap();
    client.fetch_page(p2, LockMode::S).unwrap();
    client.commit(vec![]).unwrap();
    client.disconnect();
    ns.shutdown();
}

/// Read-only fallback: reads keep flowing, every mutation is refused.
#[test]
fn read_only_server_serves_reads_and_refuses_writes() {
    let cluster = build();
    let client = connect(&cluster, CLIENT);

    client.begin().unwrap();
    client.fetch_page(cluster.p0, LockMode::X).unwrap();
    client.commit(vec![upd(cluster.p0, &[0; 2], b"rr")]).unwrap();

    cluster.servers[0].set_read_only(true);
    client.begin().unwrap();
    let data = client.fetch_page(cluster.p0, LockMode::S).unwrap();
    assert_eq!(&data[0..2], b"rr");
    assert!(matches!(
        client.commit(vec![upd(cluster.p0, b"rr", b"xx")]),
        Err(ClientError::Server(_))
    ));
    assert!(cluster.servers[0].stats().read_only_rejections.get() >= 1);
    // The refused commit changed nothing.
    assert_eq!(&read_page_bytes(&cluster.servers[0], cluster.p0)[0..2], b"rr");

    cluster.servers[0].set_read_only(false);
    client.begin().unwrap();
    client.fetch_page(cluster.p0, LockMode::X).unwrap();
    client.commit(vec![upd(cluster.p0, b"rr", b"xx")]).unwrap();
    assert_eq!(&read_page_bytes(&cluster.servers[0], cluster.p0)[0..2], b"xx");
    client.disconnect();
}

// ---- presumed-abort vs in-flight coordinator rounds ------------------------

/// The atomicity race of presumed abort: a participant's reaper queries the
/// coordinator about a dead client's prepared branch *while the coordinator
/// is still collecting phase-1 votes*. The coordinator must answer
/// `DecisionPending` — not `Unknown` — so the branch stays prepared and
/// commits when the round's `DecideBatch` arrives. Reading the mid-round silence
/// as "no record" would abort and undo a branch every other node commits.
#[test]
fn prepared_branch_survives_reaper_while_coordinator_round_runs() {
    const STALL: NodeId = NodeId(102);
    const OBSERVER: NodeId = NodeId(3);
    let cluster = build(); // coordinator_grace is zero: reaper queries immediately
    let t = Duration::from_secs(5);
    let gtxn = (u64::from(SRV0.0) << 32) | 7;
    let p1 = cluster.p1;

    // A third participant that votes yes only after a long think, pinning
    // the coordinator's round mid-phase-1 for a deterministic window, and
    // leaves once the one-way presumed-commit decide arrives.
    let stall_ep = cluster.net.register(STALL);
    let stall = std::thread::spawn(move || loop {
        let Ok(env) = stall_ep.recv(Duration::from_secs(5)) else {
            return;
        };
        match &env.msg {
            Msg::PrepareBatch { items } => {
                let votes: Vec<(u64, Vote)> =
                    items.iter().map(|i| (i.gtxn, Vote::Yes)).collect();
                std::thread::sleep(Duration::from_millis(400));
                env.reply(Msg::VoteBatch { votes });
            }
            Msg::DecideBatch { .. } => {
                return;
            }
            _ => env.reply(Msg::Ok),
        }
    });

    // The doomed client sends the round — srv1's branch rides the commit
    // frame — and "crashes" while it runs; srv1 prepares at once (votes
    // yes), then the stalled participant holds phase 1 open.
    let driver_net = Arc::clone(&cluster.net);
    let driver = std::thread::spawn(move || {
        let ep = driver_net.register(CLIENT);
        ep.call(
            SRV0,
            Msg::CommitGlobal {
                gtxn,
                participants: vec![SRV1.0, STALL.0],
                req: 0,
                release_read_locks: false,
                branches: vec![(SRV1.0, vec![upd(p1, &[0; 2], b"zz")])],
            },
            t,
        )
        .unwrap()
    });
    let cl = cluster.net.register(OBSERVER);

    // Mid-round: srv1 is prepared, the coordinator has no decision yet.
    std::thread::sleep(Duration::from_millis(100));
    assert_eq!(
        cl.call(SRV0, Msg::QueryDecision { gtxn }, t).unwrap(),
        Msg::DecisionPending,
        "mid-round query must report the round as in progress"
    );

    // The committing client dies; srv1's reaper resolves its prepared branch
    // right now (zero grace). It must be told "retry later", not abort.
    cluster.servers[1].expire_lease(CLIENT);
    assert_eq!(
        cluster.servers[1].in_doubt(),
        vec![gtxn],
        "reaper presumed abort on a branch whose round is still running"
    );
    assert_eq!(cluster.servers[1].stats().aborts.get(), 0);

    // The stalled vote lands, the round commits, and the branch follows.
    // The decide towards srv1 is a one-way presumed-commit send, so the
    // branch lands shortly after the coordinator's reply, not before it.
    assert_eq!(driver.join().unwrap(), Msg::Decision { committed: true });
    stall.join().unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        if cluster.servers[1].in_doubt().is_empty()
            && &read_page_bytes(&cluster.servers[1], p1)[0..2] == b"zz"
            && cluster.servers[1].stats().commits.get() == 1
        {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "committed branch lost at the participant: in_doubt={:?} bytes={:?} commits={}",
            cluster.servers[1].in_doubt(),
            &read_page_bytes(&cluster.servers[1], p1)[0..2],
            cluster.servers[1].stats().commits.get()
        );
        std::thread::sleep(Duration::from_millis(1));
    }

    // With the round over and the client dead, an unknown transaction is
    // still presumed abort — `DecisionPending` must not linger.
    assert_eq!(
        cl.call(SRV0, Msg::QueryDecision { gtxn: gtxn + 1 }, t).unwrap(),
        Msg::Unknown
    );
}

// ---- dedup across client incarnations --------------------------------------

/// A client that crashes and reconnects under the same node id starts a new
/// request-id incarnation: its first commits must execute, not be answered
/// with the previous life's recorded replies from the dedup window.
#[test]
fn reconnected_client_commits_are_not_replayed_from_old_incarnation() {
    let cluster = build();
    let first = connect(&cluster, CLIENT);
    first.begin().unwrap();
    first.fetch_page(cluster.p0, LockMode::X).unwrap();
    first.commit(vec![upd(cluster.p0, &[0; 2], b"11")]).unwrap();
    first.disconnect();

    // Same node id, fresh connection — its first request id must not
    // collide with the dead incarnation's.
    let second = connect(&cluster, CLIENT);
    second.begin().unwrap();
    second.fetch_page(cluster.p0, LockMode::X).unwrap();
    second.commit(vec![upd(cluster.p0, b"11", b"22")]).unwrap();
    second.disconnect();

    assert_eq!(
        &read_page_bytes(&cluster.servers[0], cluster.p0)[0..2],
        b"22",
        "reconnected client's commit was swallowed by a stale dedup entry"
    );
    let snap = cluster.servers[0].stats();
    assert_eq!(snap.dedup_hits.get(), 0, "fresh commit hit a dead incarnation's entry");
    assert_eq!(snap.commits.get(), 2);
}

/// A retried commit whose first delivery already committed is acknowledged
/// from the dedup window even if the server went read-only in between: the
/// transaction is durable, and rejecting the retry would report a false
/// failure. New mutations stay refused.
#[test]
fn degraded_mode_still_replays_recorded_commit_replies() {
    let cluster = build();
    let t = Duration::from_secs(2);
    let ep = cluster.net.register(NodeId(7));
    let txn = (7 << 32) | 1;
    let commit = Msg::Commit {
        txn,
        updates: vec![upd(cluster.p0, &[0; 2], b"cc")],
        req: (9 << 32) | 1,
    };
    assert_eq!(ep.call(SRV0, commit.clone(), t).unwrap(), Msg::Ok);

    cluster.servers[0].set_read_only(true);
    assert_eq!(
        ep.call(SRV0, commit, t).unwrap(),
        Msg::Ok,
        "read-only gate rejected a retry of a durably committed transaction"
    );
    let snap = cluster.servers[0].stats();
    assert!(snap.dedup_hits.get() >= 1);
    assert_eq!(snap.commits.get(), 1, "replayed commit applied twice");

    // A commit the window has never seen is still refused.
    let fresh = Msg::Commit {
        txn,
        updates: vec![upd(cluster.p0, b"cc", b"dd")],
        req: (9 << 32) | 2,
    };
    assert!(matches!(ep.call(SRV0, fresh, t).unwrap(), Msg::Err(_)));
    assert_eq!(&read_page_bytes(&cluster.servers[0], cluster.p0)[0..2], b"cc");
}

// ---- non-idempotent segment RPCs are never retried --------------------------

/// `AllocSegment` and `FreeSegment` carry no request id and are not
/// idempotent, so the transient-failure retry must not touch them: a
/// retried free that already executed could free a segment handed to
/// another client, and a retried alloc leaks the first segment.
#[test]
fn segment_rpcs_fail_fast_instead_of_retrying() {
    use bess_storage::DiskSpace;

    let cluster = build();
    let client = connect(&cluster, CLIENT);
    let space = RemoteSpace(Arc::clone(&client));
    let ptr = space.alloc(0, 1).unwrap();

    // The free executes but its reply is lost (the plan counts from its
    // arming, so the next client message is index 0): the ambiguity must
    // surface as an error, never as a blind re-send.
    cluster
        .net
        .arm(NetFaultPlan::armed_from(CLIENT, 0, NetFaultKind::DropReply));
    assert!(space.free(ptr).is_err(), "lost free reply must surface");
    assert_eq!(client.stats().retries.get(), 0, "FreeSegment was retried");

    // A dropped alloc request likewise fails fast.
    cluster
        .net
        .arm(NetFaultPlan::armed_from(CLIENT, 0, NetFaultKind::Drop));
    assert!(space.alloc(0, 1).is_err(), "dropped alloc must surface");
    assert_eq!(client.stats().retries.get(), 0, "AllocSegment was retried");
    client.disconnect();
}

// ---- reaping under continuous load ------------------------------------------

/// Lease reaping must not depend on the serve loop going idle: a server
/// under continuous traffic (its `recv` never times out) still collects a
/// dead client's locks on the time-based reap budget.
#[test]
fn busy_server_still_reaps_expired_leases() {
    let net = Network::new(Duration::ZERO);
    let dir = Arc::new(Directory::new());
    let set = Arc::new(AreaSet::new());
    set.add(Arc::new(
        StorageArea::create_mem(AreaId(0), AreaConfig::default()).unwrap(),
    ));
    register_areas(&dir, SRV0, &set);
    let mut scfg = ServerConfig::new(SRV0);
    scfg.lease_duration = Duration::from_millis(200);
    let (srv, _) = BessServer::start(scfg, set, LogManager::create_mem(), &net);
    let seg = srv.areas().get(0).unwrap().alloc(1).unwrap();
    let p0 = DbPage { area: 0, page: seg.start_page };

    let mut cfg = ClientConfig::new(CLIENT, SRV0);
    cfg.caching = false;
    cfg.heartbeat_interval = Duration::from_secs(60);
    let victim = ClientConn::connect(&net, Arc::clone(&dir), cfg);
    victim.begin().unwrap();
    victim.fetch_page(p0, LockMode::X).unwrap();
    net.partition(CLIENT);

    // Hammer the server from another node so its recv loop never idles;
    // the victim's lease expires under load and must still be reaped.
    let pump = net.register(CHECKER);
    let deadline = std::time::Instant::now() + Duration::from_secs(2);
    let mut reaped = false;
    while std::time::Instant::now() < deadline {
        let _ = pump.call(SRV0, Msg::ReadPage { page: p0 }, Duration::from_millis(200));
        if srv.locks_held_by(CLIENT).is_empty() {
            reaped = true;
            break;
        }
    }
    assert!(reaped, "busy server never reaped the dead client's lease");
    assert!(!srv.has_lease(CLIENT));
    assert!(srv.stats().leases_expired.get() >= 1);
    victim.disconnect();
}
