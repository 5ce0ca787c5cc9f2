//! Durability over *real files*: storage areas and the WAL live on disk,
//! the "process" dies, and a fresh one recovers everything — plus the
//! server-side fuzzy checkpoint bounding restart work.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bess_cache::{AreaSet, DbPage};
use bess_core::{recover_embedded, Database, RawBytes, Ref, Session, SessionConfig};
use bess_lock::{LockManager, LockMode, TxnId};
use bess_net::{Network, NodeId};
use bess_server::{
    register_areas, BessServer, ClientConfig, ClientConn, Directory, Msg, PageUpdate, PrepareItem,
    ServerConfig, Vote,
};
use bess_storage::{AreaConfig, AreaId, FaultDisk, FaultKind, FaultPlan, OpClass, StorageArea};
use bess_wal::{LogBody, LogManager, RESTART_LOG_BYTES};

fn temp_dir(tag: &str) -> std::path::PathBuf {
    static N: AtomicU32 = AtomicU32::new(0);
    let dir = std::env::temp_dir().join(format!(
        "bess-durability-{}-{}-{}",
        std::process::id(),
        tag,
        N.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn file_backed_database_survives_process_restart() {
    let dir = temp_dir("restart");
    let area_path = dir.join("area0.bess");
    let log_path = dir.join("wal.bess");

    // ---- process 1: create, populate, commit, "exit" --------------------
    {
        let set = Arc::new(AreaSet::new());
        set.add(Arc::new(
            StorageArea::create_file(AreaId(0), &area_path, AreaConfig::default()).unwrap(),
        ));
        let log = Arc::new(LogManager::create_file(&log_path).unwrap());
        let db = Database::create(&*Arc::clone(&set), "durable-db", 1, 1, 0).unwrap();
        let s = Session::embedded(
            db,
            Arc::clone(&set),
            Some(Arc::clone(&log)),
            None,
            SessionConfig::default(),
        );
        s.begin().unwrap();
        let seg = s.create_segment(0, 32, 4).unwrap();
        let obj = s.create_bytes(seg, b"written to a real file").unwrap();
        s.set_root("it", obj).unwrap();
        s.commit().unwrap();
        s.save_db().unwrap();
        set.get(0).unwrap().sync().unwrap();
        // Everything dropped here: the "process" exits.
    }

    // ---- process 2: reopen the files, recover, read ----------------------
    {
        let set = Arc::new(AreaSet::new());
        set.add(Arc::new(
            StorageArea::open_file(AreaId(0), &area_path, true).unwrap(),
        ));
        let log = LogManager::open_file(&log_path).unwrap();
        let report = recover_embedded(&log, &set).unwrap();
        assert!(report.losers.is_empty());

        let db = Database::open(&*Arc::clone(&set), 0).unwrap();
        assert_eq!(db.name(), "durable-db");
        let s = Session::embedded(db, set, None, None, SessionConfig::default());
        let obj: Ref<RawBytes> = s.root("it").unwrap().unwrap();
        assert_eq!(s.get_bytes(obj).unwrap(), b"written to a real file");
    }

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn server_checkpoint_bounds_restart_analysis() {
    let net = Network::new(Duration::ZERO);
    let dir = Arc::new(Directory::new());
    let set = Arc::new(AreaSet::new());
    set.add(Arc::new(
        StorageArea::create_mem(AreaId(0), AreaConfig::default()).unwrap(),
    ));
    register_areas(&dir, NodeId(100), &set);
    let (server, _) = BessServer::start(
        ServerConfig::new(NodeId(100)),
        Arc::clone(&set),
        LogManager::create_mem(),
        &net,
    );
    let seg = set.get(0).unwrap().alloc(1).unwrap();
    let page = DbPage {
        area: 0,
        page: seg.start_page,
    };

    // 60 committed transactions, a checkpoint, then 3 more.
    let c = ClientConn::connect(&net, Arc::clone(&dir), ClientConfig::new(NodeId(1), NodeId(100)));
    let run_txn = |v: u64| {
        c.begin().unwrap();
        let d = c.fetch_page(page, LockMode::X).unwrap();
        c.commit(vec![PageUpdate {
            page,
            offset: 0,
            before: d[0..8].to_vec(),
            after: v.to_le_bytes().to_vec(),
        }])
        .unwrap();
    };
    for v in 0..60 {
        run_txn(v);
    }
    server.checkpoint().unwrap();
    for v in 60..63 {
        run_txn(v);
    }

    // Crash + restart.
    let crashed = server.log().simulate_crash().unwrap();
    server.shutdown();
    net.unregister(NodeId(100));
    let (server2, report) =
        BessServer::start(ServerConfig::new(NodeId(100)), Arc::clone(&set), crashed, &net);

    // Analysis started at the checkpoint: only the checkpoint-end plus the
    // 3 post-checkpoint transactions' records were scanned (4 records per
    // committed txn), not the 60 earlier ones.
    assert!(
        report.scanned < 20,
        "scanned {} records despite the checkpoint",
        report.scanned
    );
    // The data is intact.
    let area = server2.areas().get(0).unwrap();
    let mut buf = vec![0u8; area.page_size()];
    area.read_page(page.page, &mut buf).unwrap();
    assert_eq!(u64::from_le_bytes(buf[0..8].try_into().unwrap()), 62);
}

/// A checkpoint on a device with a volatile write cache: the area and the
/// log sit on [`FaultDisk`]s, whose crash discards every write since the
/// last sync, and nothing on the commit path syncs an area. Everything
/// acknowledged before the crash must be there after the restart — the
/// commits older than the checkpoint (the checkpoint has to make their area
/// writes durable before it lets redo start past them), the commits after
/// it, and a branch that was prepared before the checkpoint and decided
/// after it (its pages have to be in the checkpoint's dirty page table).
#[test]
fn checkpoint_on_a_volatile_write_cache_loses_nothing() {
    let net = Network::new(Duration::ZERO);
    let dir = Arc::new(Directory::new());
    let area_disk = FaultDisk::new(FaultPlan::unarmed());
    let log_disk = FaultDisk::new(FaultPlan::unarmed());
    let area =
        StorageArea::create_faulty(AreaId(0), AreaConfig::default(), Arc::clone(&area_disk))
            .unwrap();
    let seg = area.alloc(4).unwrap();
    area.sync().unwrap();
    let set = Arc::new(AreaSet::new());
    set.add(Arc::new(area));
    register_areas(&dir, NodeId(100), &set);
    let (server, _) = BessServer::start(
        ServerConfig::new(NodeId(100)),
        Arc::clone(&set),
        LogManager::create_faulty(Arc::clone(&log_disk)).unwrap(),
        &net,
    );
    let page = |i: u64| DbPage {
        area: 0,
        page: seg.start_page + i,
    };

    let c = ClientConn::connect(&net, Arc::clone(&dir), ClientConfig::new(NodeId(1), NodeId(100)));
    let run_txn = |p: DbPage, v: u64| {
        c.begin().unwrap();
        let d = c.fetch_page(p, LockMode::X).unwrap();
        c.commit(vec![PageUpdate {
            page: p,
            offset: 0,
            before: d[0..8].to_vec(),
            after: v.to_le_bytes().to_vec(),
        }])
        .unwrap();
    };
    for v in 1..=10 {
        run_txn(page(0), v); // last written before the checkpoint
        run_txn(page(1), v);
    }
    // A 2PC branch on page 2, prepared by hand before the checkpoint...
    let driver = net.register(NodeId(7));
    let call = |msg: Msg| driver.call(NodeId(100), msg, Duration::from_secs(2)).unwrap();
    let Msg::TxnId(gtxn) = call(Msg::BeginGlobal) else {
        panic!("no global transaction id");
    };
    let branch = PrepareItem {
        gtxn,
        locker: 0,
        release_locks: false,
        updates: vec![PageUpdate {
            page: page(2),
            offset: 0,
            before: vec![0; 8],
            after: 77u64.to_le_bytes().to_vec(),
        }],
    };
    assert_eq!(
        call(Msg::PrepareBatch { items: vec![branch] }),
        Msg::VoteBatch { votes: vec![(gtxn, Vote::Yes)] }
    );

    server.checkpoint().unwrap();

    // ...and committed after it; page 1 moves on, page 3 is new.
    assert_eq!(call(Msg::DecideBatch { decisions: vec![(gtxn, true)] }), Msg::Ok);
    for v in 11..=13 {
        run_txn(page(1), v);
        run_txn(page(3), v);
    }
    c.disconnect();

    // Power loss: both devices drop what they had not synced.
    area_disk.crash();
    log_disk.crash();
    server.shutdown();
    net.unregister(NodeId(100));
    area_disk.reopen(FaultPlan::unarmed());
    log_disk.reopen(FaultPlan::unarmed());
    let set = Arc::new(AreaSet::new());
    set.add(Arc::new(
        StorageArea::open_faulty(AreaId(0), Arc::clone(&area_disk), true).unwrap(),
    ));
    let (server2, report) = BessServer::start(
        ServerConfig::new(NodeId(100)),
        Arc::clone(&set),
        LogManager::open_faulty(Arc::clone(&log_disk)).unwrap(),
        &net,
    );
    assert!(report.losers.is_empty() && report.in_doubt.is_empty(), "{report:?}");

    let area = server2.areas().get(0).unwrap();
    for (i, want) in [(0, 10u64), (1, 13), (2, 77), (3, 13)] {
        let mut buf = vec![0u8; area.page_size()];
        area.read_page(page(i).page, &mut buf).unwrap();
        assert_eq!(
            u64::from_le_bytes(buf[0..8].try_into().unwrap()),
            want,
            "page {i} after restart"
        );
    }
}

/// Checkpoints taken while clients commit, on the same volatile devices.
/// `BessServer::checkpoint` appends its begin record with no commit
/// between log and apply, and syncs the areas only afterwards: whichever
/// side of the checkpoint a commit falls on, its update is either synced
/// or found by restart analysis. (With the sync ahead of the begin record,
/// or without the gate, a commit that lands in between is in neither
/// place; this test then loses a page within a few hundred checkpoints.)
#[test]
fn checkpoints_racing_commits_lose_nothing() {
    let stop = std::sync::atomic::AtomicBool::new(false);
    racing_commits_lose_nothing(
        8,
        &|_| stop.load(Ordering::Relaxed),
        |server| {
            for _ in 0..300 {
                server.checkpoint().unwrap();
            }
            stop.store(true, Ordering::Relaxed);
        },
    );
}

/// The same race with no explicit checkpoint: the commit pipeline takes
/// one every `RESTART_LOG_BYTES` of log, on whichever committer's thread
/// passes the threshold, while the other committer keeps committing. The
/// clients rewrite nearly a page each time and stop after the third.
#[test]
fn automatic_checkpoints_racing_commits_lose_nothing() {
    const UPDATE: usize = 4000;
    let report = racing_commits_lose_nothing(
        UPDATE,
        &|log| log.stats().checkpoints.get() >= 3,
        |_| {},
    );
    // One threshold holds four records per commit of two images.
    let one_threshold = 4 * RESTART_LOG_BYTES / (2 * UPDATE);
    assert!(
        (report.scanned as usize) < one_threshold,
        "scanned {} records after three checkpoints; one threshold holds {one_threshold}",
        report.scanned
    );
}

/// Two clients commit `update_bytes` at the head of pages of their own
/// until `done(log)`, while `checkpoints` runs on this thread; then both
/// devices crash and the server restarts. Every page must hold the last
/// value acknowledged for it. Returns the restart's recovery report.
fn racing_commits_lose_nothing(
    update_bytes: usize,
    done: &(dyn Fn(&LogManager) -> bool + Sync),
    checkpoints: impl FnOnce(&BessServer),
) -> bess_wal::RecoveryReport {
    const WRITERS: u64 = 2;
    const PAGES_EACH: u64 = 4;
    let net = Network::new(Duration::ZERO);
    let dir = Arc::new(Directory::new());
    let area_disk = FaultDisk::new(FaultPlan::unarmed());
    let log_disk = FaultDisk::new(FaultPlan::unarmed());
    let area =
        StorageArea::create_faulty(AreaId(0), AreaConfig::default(), Arc::clone(&area_disk))
            .unwrap();
    let seg = area.alloc((WRITERS * PAGES_EACH) as u32).unwrap();
    area.sync().unwrap();
    let set = Arc::new(AreaSet::new());
    set.add(Arc::new(area));
    register_areas(&dir, NodeId(100), &set);
    let (server, _) = BessServer::start(
        ServerConfig::new(NodeId(100)),
        Arc::clone(&set),
        LogManager::create_faulty(Arc::clone(&log_disk)).unwrap(),
        &net,
    );

    let log = Arc::clone(server.log());
    // Per writer: the last acknowledged value of each of its pages.
    let acked: Vec<Vec<u64>> = std::thread::scope(|s| {
        let writers: Vec<_> = (0..WRITERS)
            .map(|w| {
                let (net, dir, log) = (&net, &dir, &log);
                s.spawn(move || {
                    let cfg = ClientConfig::new(NodeId(1 + w as u32), NodeId(100));
                    let c = ClientConn::connect(net, Arc::clone(dir), cfg);
                    let mut last = vec![0u64; PAGES_EACH as usize];
                    let mut v = 0u64;
                    while !done(log) {
                        v += 1;
                        let i = v % PAGES_EACH;
                        let p = DbPage {
                            area: 0,
                            page: seg.start_page + w * PAGES_EACH + i,
                        };
                        c.begin().unwrap();
                        let d = c.fetch_page(p, LockMode::X).unwrap();
                        let mut after = vec![0u8; update_bytes];
                        after[..8].copy_from_slice(&v.to_le_bytes());
                        c.commit(vec![PageUpdate {
                            page: p,
                            offset: 0,
                            before: d[..update_bytes].to_vec(),
                            after,
                        }])
                        .unwrap();
                        last[i as usize] = v;
                    }
                    c.disconnect();
                    last
                })
            })
            .collect();
        checkpoints(&server);
        writers.into_iter().map(|w| w.join().unwrap()).collect()
    });
    assert!(acked.iter().flatten().all(|&v| v > 0), "writers ran: {acked:?}");

    area_disk.crash();
    log_disk.crash();
    server.shutdown();
    net.unregister(NodeId(100));
    area_disk.reopen(FaultPlan::unarmed());
    log_disk.reopen(FaultPlan::unarmed());
    let set = Arc::new(AreaSet::new());
    set.add(Arc::new(
        StorageArea::open_faulty(AreaId(0), Arc::clone(&area_disk), true).unwrap(),
    ));
    let (server2, report) = BessServer::start(
        ServerConfig::new(NodeId(100)),
        Arc::clone(&set),
        LogManager::open_faulty(Arc::clone(&log_disk)).unwrap(),
        &net,
    );
    assert!(report.losers.is_empty() && report.in_doubt.is_empty(), "{report:?}");
    let area = server2.areas().get(0).unwrap();
    for (w, last) in acked.iter().enumerate() {
        for (i, &want) in last.iter().enumerate() {
            let page = seg.start_page + w as u64 * PAGES_EACH + i as u64;
            let mut buf = vec![0u8; area.page_size()];
            area.read_page(page, &mut buf).unwrap();
            assert_eq!(
                u64::from_le_bytes(buf[0..8].try_into().unwrap()),
                want,
                "writer {w} page {i} after restart"
            );
        }
    }
    report
}

// ---------------------------------------------------------------------------
// The embedded session commits through the same pipeline as the server.
// ---------------------------------------------------------------------------

/// An embedded session with a lock manager over one area and a log, both
/// on [`FaultDisk`]s, with one committed object to update.
struct EmbeddedRig {
    area_disk: Arc<FaultDisk>,
    log_disk: Arc<FaultDisk>,
    set: Arc<AreaSet>,
    log: Arc<LogManager>,
    locks: Arc<LockManager>,
    session: Arc<Session>,
    obj: Ref<RawBytes>,
}

fn embedded_rig() -> EmbeddedRig {
    let area_disk = FaultDisk::new(FaultPlan::unarmed());
    let log_disk = FaultDisk::new(FaultPlan::unarmed());
    let set = Arc::new(AreaSet::new());
    set.add(Arc::new(
        StorageArea::create_faulty(AreaId(0), AreaConfig::default(), Arc::clone(&area_disk))
            .unwrap(),
    ));
    let log = Arc::new(LogManager::create_faulty(Arc::clone(&log_disk)).unwrap());
    let locks = Arc::new(LockManager::new(Duration::from_millis(100)));
    let db = Database::create(&*Arc::clone(&set), "embedded", 1, 1, 0).unwrap();
    let session = Session::embedded(
        db,
        Arc::clone(&set),
        Some(Arc::clone(&log)),
        Some(Arc::clone(&locks)),
        SessionConfig::default(),
    );
    session.begin().unwrap();
    let seg = session.create_segment(0, 32, 4).unwrap();
    let obj = session.create_bytes(seg, b"committed").unwrap();
    session.commit().unwrap();
    EmbeddedRig {
        area_disk,
        log_disk,
        set,
        log,
        locks,
        session,
        obj,
    }
}

impl EmbeddedRig {
    /// Updates the object in a fresh transaction and commits; returns the
    /// transaction id and the commit's outcome.
    fn update_and_commit(&self) -> (u64, Result<(), String>) {
        let txn = self.session.begin().unwrap();
        self.session.put_bytes(self.obj, 0, b"UPDATED").unwrap();
        assert!(
            !self.locks.held_by(TxnId(txn)).is_empty(),
            "the update took a page lock"
        );
        (txn, self.session.commit().map_err(|e| e.to_string()))
    }

    /// Whatever the commit did, the transaction is over.
    fn assert_transaction_over(&self, txn: u64) {
        assert_eq!(self.locks.held_by(TxnId(txn)), vec![], "locks leaked");
        assert_eq!(self.session.current_txn(), None, "transaction still open");
        let next = self.session.begin().expect("the session can begin again");
        self.session.abort().unwrap();
        assert_eq!(self.locks.held_by(TxnId(next)), vec![]);
    }

    /// `(txn, kind)` of the log's records, in order.
    fn log_shape(&self) -> Vec<(u64, &'static str)> {
        self.log
            .iter()
            .filter_map(|r| match r.body {
                LogBody::Commit => Some((r.txn, "commit")),
                LogBody::End => Some((r.txn, "end")),
                _ => None,
            })
            .collect()
    }
}

#[test]
fn embedded_commit_whose_log_force_fails_holds_nothing() {
    let rig = embedded_rig();
    rig.log_disk
        .arm(FaultPlan::armed(OpClass::Write, 0, FaultKind::Eio));
    let (txn, res) = rig.update_and_commit();
    assert!(res.is_err(), "the force failed, the commit must say so");
    rig.assert_transaction_over(txn);
}

#[test]
fn embedded_commit_whose_area_write_fails_holds_nothing() {
    // The device dies at the commit's first page write.
    let rig = embedded_rig();
    rig.area_disk
        .arm(FaultPlan::armed(OpClass::Write, 0, FaultKind::Crash));
    let (txn, res) = rig.update_and_commit();
    assert!(res.is_err(), "no page could be written");
    rig.assert_transaction_over(txn);
    // `End` means "on its pages": the commit record is there, `End` is not.
    let shape = rig.log_shape();
    assert!(shape.contains(&(txn, "commit")), "{shape:?}");
    assert!(!shape.contains(&(txn, "end")), "End before the apply: {shape:?}");

    // One failed write is retried page by page and absorbed.
    let rig = embedded_rig();
    rig.area_disk
        .arm(FaultPlan::armed(OpClass::Write, 0, FaultKind::Eio));
    let (txn, res) = rig.update_and_commit();
    assert_eq!(res, Ok(()));
    rig.assert_transaction_over(txn);
    assert!(rig.session.begin().is_ok());
    assert_eq!(&rig.session.get_bytes(rig.obj).unwrap()[..7], b"UPDATED");
}

/// The page-LSN invariant (DESIGN.md §16) holds for embedded commits too:
/// every page a commit wrote carries its commit record's LSN, and `End`
/// follows the commit record only once the pages are written.
#[test]
fn embedded_commit_stamps_pages_and_ends_after_apply() {
    let rig = embedded_rig();
    let (txn, res) = rig.update_and_commit();
    assert_eq!(res, Ok(()));
    let records: Vec<_> = rig.log.iter().filter(|r| r.txn == txn).collect();
    let commit = records
        .iter()
        .find(|r| r.body == LogBody::Commit)
        .expect("a commit record");
    let written: Vec<u64> = records
        .iter()
        .filter_map(|r| match &r.body {
            LogBody::Update { page, .. } => Some(page.page),
            _ => None,
        })
        .collect();
    assert!(!written.is_empty(), "the update logged a page");
    let area = rig.set.get(0).unwrap();
    for page in written {
        assert_eq!(area.verify_page(page).unwrap(), commit.lsn.0, "page {page}");
    }
    let last = records.last().unwrap();
    assert!(last.body == LogBody::End && last.prev_lsn == commit.lsn);
}
