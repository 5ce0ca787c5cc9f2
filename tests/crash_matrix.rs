//! The crash-recovery matrix: a scripted workload over fault-injecting
//! disks, crashed at every interesting I/O, then recovered and checked.
//!
//! Both seams run on [`FaultDisk`]s — the storage area through
//! `StorageArea::create_faulty` and the WAL through
//! `LogManager::create_faulty` — so a single [`FaultPlan`] can fail the
//! Nth read/write/sync deterministically. The harness:
//!
//! 1. builds a tiny area + log on faulty disks (setup is fault-free);
//! 2. arms one `(op class, n, kind)` fault and runs a fixed workload of
//!    six transactions (commits and a 2PC prepare through the
//!    `CommitPipeline` that ships, a scripted runtime abort with CLRs, a
//!    fuzzy checkpoint, and a scripted loser stolen to the platter);
//! 3. crashes both disks (unsynced bytes are lost), reopens them fresh,
//!    and runs `recover_embedded`;
//! 4. checks the **oracle invariants**: every byte range equals the
//!    replay of exactly the durably-committed (and in-doubt) updates,
//!    losers are rolled back, in-doubt transactions are reported but not
//!    resolved, and a second recovery is a no-op (idempotence).
//!
//! Because the oracle is computed from the reopened log's durable prefix
//! alone, the same checker validates every fault point — whichever
//! prefix of the workload survived. Double-crash tests arm a second
//! fault *during recovery* and assert the third run still converges. A
//! second, smaller workload drives the same pipeline from above: three
//! commits of an embedded `Session`, killed at every device op.
//!
//! The full sweeps (every write index × several tear points, etc.) run
//! with `--features crash-tests`; the default run keeps a representative
//! subset so `cargo test` stays quick.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use bess_cache::{AreaSet, DbPage};
use bess_core::{recover_embedded, Database, RawBytes, Ref, Session, SessionConfig};
use bess_server::{CommitPipeline, PageUpdate};
use bess_storage::{
    AreaConfig, AreaId, FaultDisk, FaultKind, FaultPlan, OpClass, StorageArea,
};
use bess_wal::{
    take_checkpoint, undo_transactions, LogBody, LogManager, LogPageId, Lsn, RecoveryReport,
    LOG_START, RESTART_LOG_BYTES,
};

// ---------------------------------------------------------------------------
// Rig: a small area + log on faulty disks, with three tracked pages.
// ---------------------------------------------------------------------------

const PAGE_SIZE: usize = 256;
/// Bytes tracked (and asserted) at the head of each page.
const TRACKED: usize = 24;

const VAL_T1: u8 = 0xA1; // committed, synced          -> A[0..8]
const VAL_T2A: u8 = 0xA2; // committed, applied unsynced -> A[8..16]
const VAL_T2B: u8 = 0xB2; // committed, applied unsynced -> B[0..8]
const VAL_T3: u8 = 0xB3; // aborted at runtime (CLRs)  -> B[8..16], net zero
const VAL_T4: u8 = 0xC4; // prepared (in doubt)        -> C[0..8]
const VAL_T5: u8 = 0xC5; // committed, applied unsynced -> C[8..16]
const VAL_T6: u8 = 0xB6; // loser, stolen to platter   -> B[16..24]

struct Rig {
    area_disk: Arc<FaultDisk>,
    log_disk: Arc<FaultDisk>,
    set: Arc<AreaSet>,
    log: Arc<LogManager>,
    /// Allocated page numbers for A, B, C.
    pages: [u64; 3],
}

fn small_area() -> AreaConfig {
    AreaConfig {
        page_size: PAGE_SIZE,
        extent_pages_log2: 4,
        initial_extents: 1,
        expandable: true,
    }
}

/// Builds the rig fault-free: formatting the area, allocating the pages,
/// and writing the log header all complete and are synced durably before
/// any plan is armed, so fault indices count from the workload's first I/O.
fn build_rig() -> Rig {
    build_rig_on(small_area())
}

/// [`build_rig`] over an area of geometry `cfg`.
fn build_rig_on(cfg: AreaConfig) -> Rig {
    let area_disk = FaultDisk::new(FaultPlan::unarmed());
    let log_disk = FaultDisk::new(FaultPlan::unarmed());
    let area = StorageArea::create_faulty(AreaId(0), cfg, Arc::clone(&area_disk)).unwrap();
    let ptr = area.alloc(4).unwrap();
    let pages = [ptr.start_page, ptr.start_page + 1, ptr.start_page + 2];
    area.sync().unwrap();
    let log = Arc::new(LogManager::create_faulty(Arc::clone(&log_disk)).unwrap());
    // Make the fresh header (master = null) durable, like mkfs would.
    log.set_master(Lsn::NULL).unwrap();
    let set = AreaSet::new();
    set.add(Arc::new(area));
    Rig {
        area_disk,
        log_disk,
        set: Arc::new(set),
        log,
        pages,
    }
}

impl Rig {
    fn page_id(&self, i: usize) -> LogPageId {
        LogPageId {
            area: 0,
            page: self.pages[i],
        }
    }
}

/// The same update as [`upd`] (before-image zeros) in the pipeline's form.
fn pupd(page: LogPageId, offset: u32, after: u8) -> PageUpdate {
    PageUpdate {
        page: DbPage {
            area: page.area,
            page: page.page,
        },
        offset,
        before: vec![0; 8],
        after: vec![after; 8],
    }
}

fn upd(page: LogPageId, offset: u32, before: u8, after: u8) -> LogBody {
    LogBody::Update {
        page,
        offset,
        before: vec![before; 8],
        after: vec![after; 8],
    }
}

// ---------------------------------------------------------------------------
// The scripted workload. Stops at the first I/O error (the injected fault
// is the moment the "process" dies).
// ---------------------------------------------------------------------------

fn run_workload(rig: &Rig) -> Result<(), String> {
    let (a, b, c) = (rig.page_id(0), rig.page_id(1), rig.page_id(2));
    let area = rig.set.get(0).unwrap();
    let log = &rig.log;
    let e = |m: String| m;
    // t1, t2, t4 and t5 go through the pipeline the server and the embedded
    // session commit through; the steal/abort legs (t3, t6) stay scripted
    // record by record — they test the WAL, not the pipeline.
    let pipeline = CommitPipeline::new(Arc::clone(&rig.set), Some(Arc::clone(&rig.log)));

    // t1: commit, then force A to the platter.
    pipeline
        .commit(1, &[pupd(a, 0, VAL_T1)])
        .map_err(|x| e(x.to_string()))?;
    area.sync().map_err(|x| e(x.to_string()))?;

    // t2: commit on A and B; applied, not synced (no-force: until t3's
    // steal syncs the area, redo must repair both).
    let t2_begin = log.next_lsn();
    pipeline
        .commit(2, &[pupd(a, 8, VAL_T2A), pupd(b, 0, VAL_T2B)])
        .map_err(|x| e(x.to_string()))?;

    // t3: update B, steal the dirty page, then abort at runtime — the undo
    // writes a CLR chained by undo_next and an End, and restores the bytes.
    let t3_begin = log.append(3, Lsn::NULL, LogBody::Begin);
    let t3_upd = log.append(3, t3_begin, upd(b, 8, 0, VAL_T3));
    log.flush_all().map_err(|x| e(x.to_string()))?; // WAL rule before the steal
    area.write_at(rig.pages[1], 8, &[VAL_T3; 8])
        .map_err(|x| e(x.to_string()))?;
    area.sync().map_err(|x| e(x.to_string()))?;
    let abort = log.append(3, t3_upd, LogBody::Abort);
    let mut target = bess_server::AreaTarget(Arc::clone(&rig.set));
    undo_transactions(log, vec![(3, abort)], &mut target).map_err(|x| e(x.to_string()))?;
    log.flush_all().map_err(|x| e(x.to_string()))?;

    // Fuzzy checkpoint naming B dirty since t2 (conservative: t3's steal
    // synced t2's write, the undo's write is still volatile).
    take_checkpoint(log, vec![(b, t2_begin)], vec![]).map_err(|x| e(x.to_string()))?;

    // t4: prepared — in doubt until the coordinator's verdict.
    pipeline
        .prepare(4, vec![pupd(c, 0, VAL_T4)], None)
        .map_err(|x| e(x.to_string()))?;

    // t5: commit on the same page as t4, disjoint bytes; applied, not synced.
    pipeline
        .commit(5, &[pupd(c, 8, VAL_T5)])
        .map_err(|x| e(x.to_string()))?;

    // t6: a loser — still active at the crash, its dirty page stolen.
    let prev = log.append(6, Lsn::NULL, LogBody::Begin);
    let _ = log.append(6, prev, upd(b, 16, 0, VAL_T6));
    log.flush_all().map_err(|x| e(x.to_string()))?; // WAL rule
    area.write_at(rig.pages[1], 16, &[VAL_T6; 8])
        .map_err(|x| e(x.to_string()))?;
    area.sync().map_err(|x| e(x.to_string()))?;
    Ok(())
}

// Operation counts the fault-free workload issues, verified by
// `dry_run_op_counts` so the sweeps below cannot silently shrink.
const LOG_WRITES: u64 = 9;
const LOG_SYNCS: u64 = 9;
const AREA_WRITES: u64 = 7;
const AREA_SYNCS: u64 = 3;

// ---------------------------------------------------------------------------
// The oracle: classify transactions from the durable log prefix and compute
// the byte image recovery must produce.
// ---------------------------------------------------------------------------

#[derive(Debug, Default)]
struct Classified {
    winners: BTreeSet<u64>,
    in_doubt: BTreeSet<u64>,
    /// Rolled back completely before the crash (`End` without `Commit`).
    ended: BTreeSet<u64>,
    losers: BTreeSet<u64>,
}

fn classify(log: &LogManager) -> Classified {
    #[derive(Default)]
    struct Flags {
        commit: bool,
        prepare: bool,
        abort: bool,
        end: bool,
    }
    let mut txns: BTreeMap<u64, Flags> = BTreeMap::new();
    for rec in log.iter() {
        if rec.txn == 0 {
            continue; // checkpoint records
        }
        let f = txns.entry(rec.txn).or_default();
        match rec.body {
            LogBody::Commit => f.commit = true,
            LogBody::Prepare => f.prepare = true,
            LogBody::Abort => f.abort = true,
            LogBody::End => f.end = true,
            _ => {}
        }
    }
    let mut out = Classified::default();
    for (txn, f) in txns {
        if f.commit {
            out.winners.insert(txn);
        } else if f.end {
            out.ended.insert(txn);
        } else if f.prepare && !f.abort {
            out.in_doubt.insert(txn);
        } else {
            out.losers.insert(txn);
        }
    }
    out
}

/// The page bytes recovery must produce: the after-images of winners and
/// in-doubt transactions applied in log order over `base` (the pages as
/// they durably stood before the workload); everything else rolled back
/// to `base`. (Byte ranges of distinct transactions never overlap in the
/// workloads, mirroring strict 2PL.)
fn expected_pages(
    log: &LogManager,
    classes: &Classified,
    mut pages: BTreeMap<u64, Vec<u8>>,
) -> BTreeMap<u64, Vec<u8>> {
    for rec in log.iter() {
        let keep = classes.winners.contains(&rec.txn) || classes.in_doubt.contains(&rec.txn);
        if !keep {
            continue;
        }
        if let LogBody::Update {
            page,
            offset,
            ref after,
            ..
        } = rec.body
        {
            if let Some(image) = pages.get_mut(&page.page) {
                let start = offset as usize;
                let end = (start + after.len()).min(image.len());
                if start < end {
                    image[start..end].copy_from_slice(&after[..end - start]);
                }
            }
        }
    }
    pages
}

/// The first `len` bytes of each of `pages`, as area 0 of `set` holds them.
fn actual_pages(set: &AreaSet, pages: impl Iterator<Item = u64>, len: usize) -> BTreeMap<u64, Vec<u8>> {
    let area = set.get(0).unwrap();
    pages
        .map(|p| {
            let mut buf = vec![0u8; len];
            area.read_at(p, 0, &mut buf).unwrap();
            (p, buf)
        })
        .collect()
}

/// Reopens both disks fresh (unsynced bytes lost), recovers, and checks
/// every invariant against `base`, the tracked pages as they durably stood
/// before the workload. Returns the first recovery's report.
fn verify_recovery_over(
    area_disk: &Arc<FaultDisk>,
    log_disk: &Arc<FaultDisk>,
    base: &BTreeMap<u64, Vec<u8>>,
) -> RecoveryReport {
    area_disk.reopen(FaultPlan::unarmed());
    log_disk.reopen(FaultPlan::unarmed());
    let area = StorageArea::open_faulty(AreaId(0), Arc::clone(area_disk), true)
        .expect("area reopens after crash");
    let set = AreaSet::new();
    set.add(Arc::new(area));
    let set = Arc::new(set);
    let log = LogManager::open_faulty(Arc::clone(log_disk)).expect("log reopens after crash");
    let tracked = base.values().next().map_or(0, Vec::len);
    let actual = |set: &AreaSet| actual_pages(set, base.keys().copied(), tracked);

    // Oracle from the durable prefix, before recovery appends anything.
    let classes = classify(&log);
    let expected = expected_pages(&log, &classes, base.clone());

    let report = recover_embedded(&log, &set).expect("recovery succeeds");

    // Committed data byte-identical; losers rolled back; in-doubt retained.
    assert_eq!(
        actual(&set),
        expected,
        "recovered bytes disagree with the durable-log oracle\nclasses: {classes:?}\nreport: {report:?}"
    );
    // Losers and in-doubt reported exactly (they all postdate the
    // checkpoint, so the analysis window sees every one).
    let losers: BTreeSet<u64> = report.losers.iter().copied().collect();
    assert_eq!(losers, classes.losers, "loser set\nreport: {report:?}");
    let in_doubt: BTreeSet<u64> = report.in_doubt.iter().copied().collect();
    assert_eq!(in_doubt, classes.in_doubt, "in-doubt set\nreport: {report:?}");
    // Winners the analysis window saw really did commit.
    for w in &report.winners {
        assert!(classes.winners.contains(w), "phantom winner {w}");
    }
    // In-doubt transactions are reported, not resolved: no End was
    // appended for them, so a second recovery still sees them.
    let report2 = recover_embedded(&log, &set).expect("second recovery");
    assert!(
        report2.losers.is_empty(),
        "first recovery left losers behind: {report2:?}"
    );
    let in_doubt2: BTreeSet<u64> = report2.in_doubt.iter().copied().collect();
    assert_eq!(in_doubt2, classes.in_doubt, "in-doubt must survive recovery");
    assert_eq!(actual(&set), expected, "recovery is not idempotent");
    report
}

/// [`verify_recovery_over`] for the scripted rig: its three pages' tracked
/// heads, all zeros before the workload.
fn verify_recovery(rig: &Rig) -> RecoveryReport {
    let base = rig.pages.iter().map(|&p| (p, vec![0u8; TRACKED])).collect();
    verify_recovery_over(&rig.area_disk, &rig.log_disk, &base)
}

#[derive(Clone, Copy, Debug)]
enum Target {
    Area,
    Log,
}

/// One matrix cell: arm `(class, nth, kind)` on one disk, run the workload
/// to its natural death, crash, recover, check. Returns whether the fault
/// actually fired (indices past the workload's op count never fire).
fn run_case(target: Target, class: OpClass, nth: u64, kind: FaultKind) -> bool {
    let rig = build_rig();
    let plan = FaultPlan::armed(class, nth, kind);
    match target {
        Target::Area => rig.area_disk.arm(Arc::clone(&plan)),
        Target::Log => rig.log_disk.arm(Arc::clone(&plan)),
    }
    let res = run_workload(&rig);
    let fired = plan.fired() > 0;
    if !fired {
        assert!(
            res.is_ok(),
            "workload failed with no injected fault: {res:?}"
        );
    }
    rig.area_disk.crash();
    rig.log_disk.crash();
    verify_recovery(&rig);
    fired
}

// ---------------------------------------------------------------------------
// Op-count calibration.
// ---------------------------------------------------------------------------

#[test]
fn dry_run_op_counts() {
    let rig = build_rig();
    let area_plan = FaultPlan::unarmed();
    let log_plan = FaultPlan::unarmed();
    rig.area_disk.arm(Arc::clone(&area_plan));
    rig.log_disk.arm(Arc::clone(&log_plan));
    run_workload(&rig).unwrap();
    assert_eq!(log_plan.ops(OpClass::Write), LOG_WRITES, "log writes");
    assert_eq!(log_plan.ops(OpClass::Sync), LOG_SYNCS, "log syncs");
    assert_eq!(area_plan.ops(OpClass::Write), AREA_WRITES, "area writes");
    assert_eq!(area_plan.ops(OpClass::Sync), AREA_SYNCS, "area syncs");
    // And with no fault at all, recovery of the clean crash still holds.
    rig.area_disk.crash();
    rig.log_disk.crash();
    let report = verify_recovery(&rig);
    assert_eq!(report.losers, vec![6]);
    assert_eq!(report.in_doubt, vec![4]);
}

// ---------------------------------------------------------------------------
// Workload-time fault sweeps.
// ---------------------------------------------------------------------------

#[test]
fn log_write_eio_sweep() {
    let mut fired = 0;
    for nth in 0..LOG_WRITES {
        if run_case(Target::Log, OpClass::Write, nth, FaultKind::Eio) {
            fired += 1;
        }
    }
    assert_eq!(fired, LOG_WRITES, "every log write index must be exercised");
}

#[test]
fn log_write_crash_sweep() {
    let mut fired = 0;
    for nth in 0..LOG_WRITES {
        if run_case(Target::Log, OpClass::Write, nth, FaultKind::Crash) {
            fired += 1;
        }
    }
    assert_eq!(fired, LOG_WRITES);
}

/// Torn log flushes: a prefix of the flushed tail lands durably, tearing
/// mid-frame or between frames depending on `keep`; the reopen scan must
/// truncate at the tear and recovery must treat the suffix as never
/// written. The full tear grid runs under `--features crash-tests`.
#[test]
fn log_torn_write_representative() {
    let mut fired = 0;
    for (nth, keep) in [(0u64, 5usize), (3, 40), (8, 21)] {
        if run_case(Target::Log, OpClass::Write, nth, FaultKind::Torn { keep }) {
            fired += 1;
        }
    }
    assert_eq!(fired, 3);
}

#[cfg_attr(not(feature = "crash-tests"), ignore)]
#[test]
fn log_torn_write_full_sweep() {
    let mut fired = 0;
    for nth in 0..LOG_WRITES {
        for keep in [0usize, 5, 21, 40, 72, 150] {
            if run_case(Target::Log, OpClass::Write, nth, FaultKind::Torn { keep }) {
                fired += 1;
            }
        }
    }
    assert_eq!(fired, LOG_WRITES * 6);
}

#[test]
fn log_sync_eio_sweep() {
    let mut fired = 0;
    for nth in 0..LOG_SYNCS {
        if run_case(Target::Log, OpClass::Sync, nth, FaultKind::Eio) {
            fired += 1;
        }
    }
    assert_eq!(fired, LOG_SYNCS);
}

/// A lying fsync anywhere but the final flush is healed by the next real
/// sync (the durable image catches up wholesale), so recovery stays clean.
#[test]
fn log_drop_sync_sweep() {
    let mut fired = 0;
    for nth in 0..LOG_SYNCS - 1 {
        if run_case(Target::Log, OpClass::Sync, nth, FaultKind::DropSync) {
            fired += 1;
        }
    }
    assert_eq!(fired, LOG_SYNCS - 1);
}

/// The negative result the matrix documents: if the *final* log flush lies
/// and the dirty page is then stolen, WAL's premise (log hits the platter
/// before the page) is violated and no recovery algorithm can roll the
/// loser back — its log record never existed durably. This is why fsync
/// integrity is a prerequisite, not something recovery can compensate for.
#[test]
fn lying_fsync_before_steal_defeats_wal() {
    let rig = build_rig();
    let plan = FaultPlan::armed(OpClass::Sync, LOG_SYNCS - 1, FaultKind::DropSync);
    rig.log_disk.arm(Arc::clone(&plan));
    run_workload(&rig).unwrap(); // the lie goes unnoticed
    assert_eq!(plan.fired(), 1);
    rig.area_disk.crash();
    rig.log_disk.crash();

    rig.area_disk.reopen(FaultPlan::unarmed());
    rig.log_disk.reopen(FaultPlan::unarmed());
    let area = StorageArea::open_faulty(AreaId(0), Arc::clone(&rig.area_disk), true).unwrap();
    let set = AreaSet::new();
    set.add(Arc::new(area));
    let set = Arc::new(set);
    let log = LogManager::open_faulty(Arc::clone(&rig.log_disk)).unwrap();
    // t6's records evaporated with the dropped sync …
    assert!(classify(&log).losers.is_empty());
    recover_embedded(&log, &set).unwrap();
    // … so its stolen bytes survive recovery: durable corruption.
    let mut buf = [0u8; 8];
    set.get(0).unwrap().read_at(rig.pages[1], 16, &mut buf).unwrap();
    assert_eq!(buf, [VAL_T6; 8], "the lost loser cannot be undone");
}

#[test]
fn area_write_eio_sweep() {
    let mut fired = 0;
    for nth in 0..AREA_WRITES {
        if run_case(Target::Area, OpClass::Write, nth, FaultKind::Eio) {
            fired += 1;
        }
    }
    assert_eq!(fired, AREA_WRITES);
}

#[test]
fn area_write_torn_representative() {
    let mut fired = 0;
    for (nth, keep) in [(0u64, 3usize), (4, 5)] {
        if run_case(Target::Area, OpClass::Write, nth, FaultKind::Torn { keep }) {
            fired += 1;
        }
    }
    assert_eq!(fired, 2);
}

#[cfg_attr(not(feature = "crash-tests"), ignore)]
#[test]
fn area_write_fault_full_sweep() {
    let mut fired = 0;
    for nth in 0..AREA_WRITES {
        for kind in [
            FaultKind::Eio,
            FaultKind::Crash,
            FaultKind::Torn { keep: 0 },
            FaultKind::Torn { keep: 3 },
            FaultKind::Torn { keep: 7 },
        ] {
            if run_case(Target::Area, OpClass::Write, nth, kind) {
                fired += 1;
            }
        }
    }
    assert_eq!(fired, AREA_WRITES * 5);
}

#[test]
fn area_sync_fault_sweep() {
    let mut fired = 0;
    for nth in 0..AREA_SYNCS {
        for kind in [FaultKind::Eio, FaultKind::DropSync] {
            if run_case(Target::Area, OpClass::Sync, nth, kind) {
                fired += 1;
            }
        }
    }
    assert_eq!(fired, AREA_SYNCS * 2);
}

// ---------------------------------------------------------------------------
// The embedded session: the same pipeline under the object layer. Three
// committed updates through `Session::commit`, killed at every log write,
// log sync and area write the fault-free run issues.
// ---------------------------------------------------------------------------

/// An embedded session over faulty disks with three committed objects;
/// `base` is every data page of the area as setup left it, durably.
struct SessionRig {
    area_disk: Arc<FaultDisk>,
    log_disk: Arc<FaultDisk>,
    session: Arc<Session>,
    objs: Vec<Ref<RawBytes>>,
    base: BTreeMap<u64, Vec<u8>>,
}

fn build_session_rig() -> SessionRig {
    let area_disk = FaultDisk::new(FaultPlan::unarmed());
    let log_disk = FaultDisk::new(FaultPlan::unarmed());
    let area =
        StorageArea::create_faulty(AreaId(0), AreaConfig::default(), Arc::clone(&area_disk))
            .unwrap();
    let set = AreaSet::new();
    set.add(Arc::new(area));
    let set = Arc::new(set);
    let log = Arc::new(LogManager::create_faulty(Arc::clone(&log_disk)).unwrap());
    log.set_master(Lsn::NULL).unwrap();
    let db = Database::create(&*Arc::clone(&set), "matrix", 1, 1, 0).unwrap();
    let session = Session::embedded(
        db,
        Arc::clone(&set),
        Some(Arc::clone(&log)),
        None,
        SessionConfig::default(),
    );
    session.begin().unwrap();
    let seg = session.create_segment(0, 32, 4).unwrap();
    let objs = (0..3)
        .map(|_| session.create_bytes(seg, &[0u8; 64]).unwrap())
        .collect();
    session.commit().unwrap();
    session.save_db().unwrap();
    let area = set.get(0).unwrap();
    area.sync().unwrap();
    let pages = (0..area.num_pages()).filter(|&p| area.is_data_page(p));
    let base = actual_pages(&set, pages, area.page_size());
    SessionRig {
        area_disk,
        log_disk,
        session,
        objs,
        base,
    }
}

/// Three transactions, each rewriting the head of one object; stops at the
/// first commit that fails (the injected fault is where the process dies).
fn run_session_workload(rig: &SessionRig) -> Result<(), String> {
    for (i, &obj) in rig.objs.iter().enumerate() {
        rig.session.begin().map_err(|e| e.to_string())?;
        rig.session
            .put_bytes(obj, 0, &[0xD0 + i as u8; 8])
            .map_err(|e| e.to_string())?;
        rig.session.commit().map_err(|e| e.to_string())?;
    }
    Ok(())
}

#[test]
fn embedded_session_crash_sweep() {
    // Calibrate: the ops a fault-free run issues after setup.
    let rig = build_session_rig();
    let (area_plan, log_plan) = (FaultPlan::unarmed(), FaultPlan::unarmed());
    rig.area_disk.arm(Arc::clone(&area_plan));
    rig.log_disk.arm(Arc::clone(&log_plan));
    run_session_workload(&rig).unwrap();
    rig.area_disk.crash();
    rig.log_disk.crash();
    let report = verify_recovery_over(&rig.area_disk, &rig.log_disk, &rig.base);
    assert!(report.losers.is_empty() && report.in_doubt.is_empty());
    // The oracle had something to check: the three updates are on the pages.
    let set = AreaSet::new();
    set.add(Arc::new(
        StorageArea::open_faulty(AreaId(0), Arc::clone(&rig.area_disk), true).unwrap(),
    ));
    let len = set.get(0).unwrap().page_size();
    let changed = actual_pages(&set, rig.base.keys().copied(), len)
        .iter()
        .filter(|(p, image)| rig.base[*p] != **image)
        .count();
    assert!(changed >= 1, "the workload changed no page");
    let cells = [
        (Target::Log, OpClass::Write, log_plan.ops(OpClass::Write)),
        (Target::Log, OpClass::Sync, log_plan.ops(OpClass::Sync)),
        (Target::Area, OpClass::Write, area_plan.ops(OpClass::Write)),
    ];
    for (target, class, ops) in cells {
        assert!(ops >= 3, "{target:?} {class:?}: three commits issue at least three, not {ops}");
        for nth in 0..ops {
            let rig = build_session_rig();
            let plan = FaultPlan::armed(class, nth, FaultKind::Crash);
            match target {
                Target::Area => rig.area_disk.arm(Arc::clone(&plan)),
                Target::Log => rig.log_disk.arm(Arc::clone(&plan)),
            }
            let res = run_session_workload(&rig);
            assert_eq!(plan.fired(), 1, "{target:?} {class:?} {nth} never fired");
            assert!(res.is_err(), "{target:?} {class:?} {nth}: a commit survived a dead device");
            rig.area_disk.crash();
            rig.log_disk.crash();
            verify_recovery_over(&rig.area_disk, &rig.log_disk, &rig.base);
        }
    }
}

// ---------------------------------------------------------------------------
// The automatic checkpoint: commits through the pipeline until the log
// passes `RESTART_LOG_BYTES`, and the commit that finds it so takes a
// checkpoint. Between its begin record and its master header the checkpoint
// issues three I/Os of its own — the area sync, the `CheckpointEnd` force
// and the header write — and the process dies at each.
// ---------------------------------------------------------------------------

/// Bytes each commit of the checkpoint workload rewrites at the head of
/// one of the rig's pages: about a hundred and thirty commits pass the
/// threshold.
const CKPT_UPDATE: usize = 4000;

/// Commits through one pipeline, each rewriting the head of one of the
/// rig's pages, until the log has passed `RESTART_LOG_BYTES` — the last
/// commit is the one that took the automatic checkpoint — or until a
/// device died (the process dies with it). Returns the acknowledged
/// transactions.
fn run_checkpoint_workload(rig: &Rig) -> BTreeSet<u64> {
    let pipeline = CommitPipeline::new(Arc::clone(&rig.set), Some(Arc::clone(&rig.log)));
    let mut heads = [0u8; 3];
    let mut acked = BTreeSet::new();
    let threshold = LOG_START.0 + RESTART_LOG_BYTES as u64;
    let mut txn = 0;
    while rig.log.next_lsn().0 < threshold {
        txn += 1;
        let i = txn as usize % 3;
        let update = PageUpdate {
            page: DbPage {
                area: 0,
                page: rig.pages[i],
            },
            offset: 0,
            before: vec![heads[i]; CKPT_UPDATE],
            after: vec![txn as u8; CKPT_UPDATE],
        };
        pipeline
            .commit(txn, &[update])
            .expect("a commit returns its own result, not its checkpoint's");
        heads[i] = txn as u8;
        acked.insert(txn);
        if rig.area_disk.is_poisoned() || rig.log_disk.is_poisoned() {
            break;
        }
    }
    acked
}

/// Crash points inside the automatic checkpoint, reached by committing
/// past the threshold: after `CheckpointBegin` and before the area sync,
/// after the sync and before `CheckpointEnd` is forced, and after the
/// force and before the master header is written. The commit that took
/// the checkpoint is acknowledged in each; after the crash the restart
/// scans from the start of the log, and exactly the acknowledged commits
/// are there, on their pages.
#[test]
fn automatic_checkpoint_crash_points() {
    // Calibrate: each commit forces once (one log write, one log sync)
    // and syncs no area; the checkpoint syncs the area once, forces its
    // end record and writes the master header.
    let rig = build_rig_on(AreaConfig::default());
    let (area_plan, log_plan) = (FaultPlan::unarmed(), FaultPlan::unarmed());
    rig.area_disk.arm(Arc::clone(&area_plan));
    rig.log_disk.arm(Arc::clone(&log_plan));
    let commits = run_checkpoint_workload(&rig).len() as u64;
    assert!(!rig.log.master().is_null(), "the fault-free run checkpointed");
    assert_eq!(area_plan.ops(OpClass::Sync), 1, "the checkpoint's area sync");
    assert_eq!(log_plan.ops(OpClass::Write), commits + 2, "log writes");
    let base: BTreeMap<u64, Vec<u8>> =
        rig.pages.iter().map(|&p| (p, vec![0u8; CKPT_UPDATE])).collect();
    rig.area_disk.crash();
    rig.log_disk.crash();
    let report = verify_recovery_over(&rig.area_disk, &rig.log_disk, &base);
    assert_eq!(
        (report.scanned, report.redone),
        (2, 0),
        "after the checkpoint a restart reads its two records and redoes nothing"
    );

    let cells = [
        ("before the area sync", Target::Area, OpClass::Sync, 0),
        ("before CheckpointEnd is forced", Target::Log, OpClass::Write, commits),
        ("before the master header is written", Target::Log, OpClass::Write, commits + 1),
    ];
    for (point, target, class, nth) in cells {
        let rig = build_rig_on(AreaConfig::default());
        let plan = FaultPlan::armed(class, nth, FaultKind::Crash);
        match target {
            Target::Area => rig.area_disk.arm(Arc::clone(&plan)),
            Target::Log => rig.log_disk.arm(Arc::clone(&plan)),
        }
        let acked = run_checkpoint_workload(&rig);
        assert_eq!(plan.fired(), 1, "{point}: never reached");
        assert_eq!(acked.len() as u64, commits, "{point}: the commit that took the checkpoint");
        rig.area_disk.crash();
        rig.log_disk.crash();
        verify_recovery_over(&rig.area_disk, &rig.log_disk, &base);
        let log = LogManager::open_faulty(Arc::clone(&rig.log_disk)).unwrap();
        assert!(log.master().is_null(), "{point}: the checkpoint never completed");
        assert_eq!(classify(&log).winners, acked, "{point}: durable commits");
    }
}

// ---------------------------------------------------------------------------
// Recovery-time faults: the double-crash tier. The first recovery attempt
// runs under an armed plan; whatever it manages (or fails) to do, a second
// crash and a clean recovery must still converge to the oracle.
// ---------------------------------------------------------------------------

/// Area writes the redo pass of a fault-free recovery issues: one per dirty
/// page, whatever the number of records redone onto it.
const REDO_WRITES: u64 = 2;

/// Runs the fault-free workload, crashes, then attempts recovery with
/// `(class, nth, kind)` armed on one disk. Returns `(fired, first attempt
/// succeeded)` after verifying the follow-up clean recovery.
fn run_recovery_fault_case(
    target: Target,
    class: OpClass,
    nth: u64,
    kind: FaultKind,
) -> (bool, bool) {
    let rig = build_rig();
    run_workload(&rig).expect("fault-free workload");
    rig.area_disk.crash();
    rig.log_disk.crash();

    let plan = FaultPlan::armed(class, nth, kind);
    let (area_plan, log_plan) = match target {
        Target::Area => (Arc::clone(&plan), FaultPlan::unarmed()),
        Target::Log => (FaultPlan::unarmed(), Arc::clone(&plan)),
    };
    rig.area_disk.reopen(area_plan);
    rig.log_disk.reopen(log_plan);
    let attempt = (|| -> Result<RecoveryReport, String> {
        let area = StorageArea::open_faulty(AreaId(0), Arc::clone(&rig.area_disk), true)
            .map_err(|e| e.to_string())?;
        let set = AreaSet::new();
        set.add(Arc::new(area));
        let set = Arc::new(set);
        let log = LogManager::open_faulty(Arc::clone(&rig.log_disk)).map_err(|e| e.to_string())?;
        recover_embedded(&log, &set).map_err(|e| e.to_string())
    })();
    let fired = plan.fired() > 0;

    // Second crash — then recovery must succeed cleanly, no matter how far
    // the first attempt got.
    rig.area_disk.crash();
    rig.log_disk.crash();
    verify_recovery(&rig);
    (fired, attempt.is_ok())
}

#[test]
fn recovery_log_read_eio_then_clean_retry() {
    let mut fired = 0;
    for nth in [0u64, 1, 3, 7, 15, 30] {
        let (f, ok) = run_recovery_fault_case(Target::Log, OpClass::Read, nth, FaultKind::Eio);
        if f {
            fired += 1;
            assert!(!ok, "an EIO'd log read must fail the recovery attempt");
        }
    }
    assert!(fired >= 4, "only {fired} log-read fault points fired");
}

/// Short reads are not failures: the accumulating read loops in both
/// backends retry, so recovery *succeeds* despite the fault.
#[test]
fn recovery_survives_short_reads() {
    let mut fired = 0;
    for (target, nth) in [
        (Target::Log, 0u64),
        (Target::Log, 2),
        (Target::Log, 9),
        (Target::Area, 0),
        (Target::Area, 1),
    ] {
        let (f, ok) =
            run_recovery_fault_case(target, OpClass::Read, nth, FaultKind::Short { len: 3 });
        if f {
            fired += 1;
            assert!(ok, "a short read must be retried, not fatal");
        }
    }
    assert!(fired >= 4, "only {fired} short-read fault points fired");
}

/// A fire-once read EIO on the *area* disk is transient by definition, and
/// the storage backend's bounded retry absorbs it: the first recovery
/// attempt succeeds despite the fault.
#[test]
fn recovery_area_read_eio_absorbed_by_retry() {
    let mut fired = 0;
    for nth in [0u64, 1, 2] {
        let (f, ok) = run_recovery_fault_case(Target::Area, OpClass::Read, nth, FaultKind::Eio);
        if f {
            fired += 1;
            assert!(ok, "a transient EIO'd area read must be retried, not fatal");
        }
    }
    assert!(fired >= 2, "only {fired} area-read fault points fired");
}

/// Crash *during* redo or undo: the area writes recovery itself issues are
/// killed one by one. The failed attempt may have partially repeated
/// history or partially rolled back the loser; repeating recovery from
/// scratch must converge because redo is idempotent and CLR application is
/// bounded by `undo_next`.
#[test]
fn recovery_crash_during_redo_and_undo_sweep() {
    // Fault-free recovery redoes six records, coalesced into one write per
    // dirty page (B, then C), then issues 1 undo write (t6's before-image);
    // nth = REDO_WRITES therefore dies mid-undo.
    let mut fired = 0;
    let mut failed_attempts = 0;
    for nth in 0..=REDO_WRITES {
        let (f, ok) = run_recovery_fault_case(Target::Area, OpClass::Write, nth, FaultKind::Crash);
        if f {
            fired += 1;
            if !ok {
                failed_attempts += 1;
            }
        }
    }
    assert_eq!(
        fired,
        REDO_WRITES + 1,
        "every recovery-time area write must be exercised"
    );
    assert_eq!(
        failed_attempts,
        REDO_WRITES + 1,
        "a crashed apply must surface as a recovery error"
    );
    let (f, ok) =
        run_recovery_fault_case(Target::Area, OpClass::Write, REDO_WRITES + 1, FaultKind::Crash);
    assert!(!f && ok, "recovery issued an area write the sweep does not cover");
}

/// The final log flush of recovery (the one making CLRs durable) dies;
/// the rerun must re-derive and re-log the undo.
#[test]
fn recovery_log_flush_failure_then_clean_retry() {
    let (fired, ok) = run_recovery_fault_case(Target::Log, OpClass::Write, 0, FaultKind::Eio);
    assert!(fired);
    assert!(!ok, "a failed CLR flush must fail recovery");
}

// ---------------------------------------------------------------------------
// Directed edge cases (the satellite scenarios).
// ---------------------------------------------------------------------------

/// An in-doubt transaction survives recovery — and a double crash — still
/// in doubt: reported each time, its updates repeated by redo, never
/// rolled back and never ended.
#[test]
fn in_doubt_survives_double_crash() {
    let rig = build_rig();
    run_workload(&rig).unwrap();
    rig.area_disk.crash();
    rig.log_disk.crash();
    let report = verify_recovery(&rig); // first crash + recovery (+ idempotence)
    assert_eq!(report.in_doubt, vec![4]);

    // Crash again after the successful recovery and recover once more.
    rig.area_disk.crash();
    rig.log_disk.crash();
    let report = verify_recovery(&rig);
    assert_eq!(report.in_doubt, vec![4], "still awaiting the coordinator");
    assert!(report.losers.is_empty(), "losers were resolved first time");
}

/// Analysis starts at the fuzzy checkpoint, and redo starts at the
/// checkpoint's dirty-page recLSN — mid-log, not LOG_START.
#[test]
fn redo_starts_mid_log_after_checkpoint() {
    let rig = build_rig();
    run_workload(&rig).unwrap();
    rig.area_disk.crash();
    rig.log_disk.crash();
    let report = verify_recovery(&rig);
    assert!(
        report.redo_start > LOG_START,
        "redo began at {:?}, expected the checkpointed recLSN",
        report.redo_start
    );
    // The analysis window is bounded by the checkpoint: t1..t3 finished
    // before it, so only the checkpoint's two records and those of t4..t6
    // (t5's `End` included) are scanned — far fewer than the whole log.
    assert!(
        report.scanned <= 11,
        "scanned {} records despite the checkpoint",
        report.scanned
    );
    // t1/t2 committed before the checkpoint: invisible to analysis, yet
    // their data survived (verified against the oracle in verify_recovery).
    assert!(!report.winners.contains(&1));
    assert!(!report.winners.contains(&2));
}

/// Repeated crashes in the middle of undo: each attempt is killed at the
/// loser's before-image write, and the final clean pass must still roll
/// t6 back exactly once (CLRs chained by undo_next keep undo idempotent).
#[test]
fn repeated_crash_mid_undo_converges() {
    let rig = build_rig();
    run_workload(&rig).unwrap();
    rig.area_disk.crash();
    rig.log_disk.crash();

    // Three consecutive recovery attempts, each dying at the undo write
    // (the area write after the redo writes).
    for attempt in 0..3 {
        rig.area_disk
            .reopen(FaultPlan::armed(OpClass::Write, REDO_WRITES, FaultKind::Crash));
        rig.log_disk.reopen(FaultPlan::unarmed());
        let area = StorageArea::open_faulty(AreaId(0), Arc::clone(&rig.area_disk), true).unwrap();
        let set = AreaSet::new();
        set.add(Arc::new(area));
        let set = Arc::new(set);
        let log = LogManager::open_faulty(Arc::clone(&rig.log_disk)).unwrap();
        let err = recover_embedded(&log, &set);
        assert!(err.is_err(), "attempt {attempt} should die mid-undo");
        rig.area_disk.crash();
        rig.log_disk.crash();
    }

    let report = verify_recovery(&rig);
    assert_eq!(report.losers, vec![6]);
    assert_eq!(report.undone, 1, "t6 rolled back exactly once");
}

// ---------------------------------------------------------------------------
// Group-commit fault points (PR 5): a concurrent commit workload crashed at
// exact steps of the leader's force protocol, via the WAL's force hook.
// Group commit must be crash-equivalent to per-commit forcing: an
// acknowledged flush is always in the durable image, and a failed or
// killed force never acknowledges anyone.
// ---------------------------------------------------------------------------

/// Spawns `n` committer threads against `log`; each appends
/// Begin/Update/Commit for its own transaction, forces the commit, and
/// appends End on success. Returns each thread's `(txn, flush result)`.
fn concurrent_commits(
    log: &Arc<LogManager>,
    n: u64,
) -> Vec<(u64, Result<(), String>)> {
    let barrier = Arc::new(std::sync::Barrier::new(n as usize));
    let workers: Vec<_> = (1..=n)
        .map(|txn| {
            let log = Arc::clone(log);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                let b = log.append(txn, Lsn::NULL, LogBody::Begin);
                let u = log.append(
                    txn,
                    b,
                    LogBody::Update {
                        page: LogPageId { area: 0, page: txn },
                        offset: 0,
                        before: vec![0; 8],
                        after: vec![txn as u8; 8],
                    },
                );
                let c = log.append(txn, u, LogBody::Commit);
                let res = log.flush(c).map_err(|e| e.to_string());
                if res.is_ok() {
                    log.append(txn, c, LogBody::End);
                }
                (txn, res)
            })
        })
        .collect();
    workers.into_iter().map(|w| w.join().unwrap()).collect()
}

/// Transactions with a durable Commit record in the reopened log.
fn durable_committers(log: &LogManager) -> BTreeSet<u64> {
    log.iter()
        .filter(|r| r.body == LogBody::Commit)
        .map(|r| r.txn)
        .collect()
}

/// Crash between the buffer swap and the device sync: the group's bytes
/// never reach the durable image, so every member must be failed and the
/// reopened log must contain only what was durable before — exactly the
/// per-commit-forcing outcome of dying before fsync returns.
#[test]
fn group_commit_crash_between_swap_and_sync() {
    use std::sync::atomic::{AtomicBool, Ordering};

    let disk = FaultDisk::new(FaultPlan::unarmed());
    let log = Arc::new(LogManager::create_faulty(Arc::clone(&disk)).unwrap());
    log.set_master(Lsn::NULL).unwrap();

    // One transaction committed durably before the fault point.
    let b = log.append(100, Lsn::NULL, LogBody::Begin);
    let c = log.append(100, b, LogBody::Commit);
    log.flush(c).unwrap();

    // The next force dies after swapping buffers, before writing: the
    // "process" is killed mid-protocol.
    let fired = Arc::new(AtomicBool::new(false));
    {
        let disk = Arc::clone(&disk);
        let fired = Arc::clone(&fired);
        log.set_force_hook(Some(Box::new(move |p| {
            if p == bess_wal::ForcePoint::AfterSwap
                && !fired.swap(true, Ordering::Relaxed)
            {
                disk.crash();
            }
        })));
    }

    let results = concurrent_commits(&log, 4);
    assert!(fired.load(Ordering::Relaxed), "fault point never reached");
    // Every committer died with the group (later groups hit the poisoned
    // disk); nobody was acked.
    for (txn, res) in &results {
        assert!(res.is_err(), "txn {txn} acked by a force that never synced");
    }

    // Reopen: only the pre-fault commit survived, and recovery over the
    // durable prefix is clean and idempotent.
    disk.reopen(FaultPlan::unarmed());
    let log2 = LogManager::open_faulty(Arc::clone(&disk)).unwrap();
    assert_eq!(
        durable_committers(&log2),
        BTreeSet::from([100]),
        "the killed group must be absent from the durable image"
    );
    let set = Arc::new(AreaSet::new()); // updates target no mounted area
    let report = recover_embedded(&log2, &set).unwrap();
    assert!(report.in_doubt.is_empty());
    let report2 = recover_embedded(&log2, &set).unwrap();
    assert!(report2.losers.is_empty(), "recovery idempotent");
}

/// Crash after the sync but before followers wake: the group *is* durable
/// (the sync completed) even though, had the process died there, no
/// client would have seen the ack. Recovery must honor the durable
/// Commit records exactly once; commits whose bytes missed that final
/// sync must not be acked and must be absent after the crash.
#[test]
fn group_commit_crash_after_sync_before_wakeup() {
    use std::sync::atomic::{AtomicBool, Ordering};

    let disk = FaultDisk::new(FaultPlan::unarmed());
    let log = Arc::new(LogManager::create_faulty(Arc::clone(&disk)).unwrap());
    log.set_master(Lsn::NULL).unwrap();

    // The first completed sync is also the disk's last: the crash lands
    // after the durable image caught up, before any waiter is woken.
    let fired = Arc::new(AtomicBool::new(false));
    {
        let disk = Arc::clone(&disk);
        let fired = Arc::clone(&fired);
        log.set_force_hook(Some(Box::new(move |p| {
            if p == bess_wal::ForcePoint::AfterSync
                && !fired.swap(true, Ordering::Relaxed)
            {
                disk.crash();
            }
        })));
    }

    let results = concurrent_commits(&log, 4);
    assert!(fired.load(Ordering::Relaxed), "fault point never reached");
    let acked: BTreeSet<u64> = results
        .iter()
        .filter(|(_, r)| r.is_ok())
        .map(|(t, _)| *t)
        .collect();
    assert!(!acked.is_empty(), "the synced group's members were acked");

    // Crash-equivalence both ways: acked == durable, exactly.
    disk.reopen(FaultPlan::unarmed());
    let log2 = LogManager::open_faulty(Arc::clone(&disk)).unwrap();
    assert_eq!(
        durable_committers(&log2),
        acked,
        "durable commits must be exactly the acknowledged ones"
    );
    let set = Arc::new(AreaSet::new());
    let report = recover_embedded(&log2, &set).unwrap();
    for txn in &acked {
        assert!(
            !report.losers.contains(txn),
            "acked txn {txn} rolled back by recovery"
        );
    }
    let report2 = recover_embedded(&log2, &set).unwrap();
    assert!(report2.losers.is_empty(), "recovery idempotent");
}

/// The full write-index sweep over a *concurrent* group-commit workload:
/// arm a kill at each log write. Whatever interleaving the scheduler
/// produced, acked commits must survive the crash and unacked ones whose
/// group died must not leak an ack.
#[test]
fn group_commit_concurrent_write_crash_sweep() {
    for nth in 0..4 {
        let disk = FaultDisk::new(FaultPlan::unarmed());
        let log = Arc::new(LogManager::create_faulty(Arc::clone(&disk)).unwrap());
        log.set_master(Lsn::NULL).unwrap();
        disk.arm(FaultPlan::armed(OpClass::Write, nth, FaultKind::Crash));

        let results = concurrent_commits(&log, 6);
        let acked: BTreeSet<u64> = results
            .iter()
            .filter(|(_, r)| r.is_ok())
            .map(|(t, _)| *t)
            .collect();

        disk.reopen(FaultPlan::unarmed());
        let log2 = LogManager::open_faulty(Arc::clone(&disk)).unwrap();
        let durable = durable_committers(&log2);
        // Acks imply durability; a commit killed before its sync is not
        // durable and must not have been acked.
        for txn in &acked {
            assert!(
                durable.contains(txn),
                "nth={nth}: txn {txn} acked but not durable"
            );
        }
        for txn in &durable {
            // The converse need not hold (a group can be durable yet
            // unacked if the crash raced the wakeup), but any durable
            // commit must at least have been submitted.
            assert!(*txn >= 1 && *txn <= 6);
        }
    }
}
