//! The silent-corruption matrix: BitRot, Misdirected and LostWrite faults
//! swept across read/write fault points on both seams — data pages under
//! a live server, and the WAL under reopen + recovery.
//!
//! Unlike the crash matrix (which kills the process and checks recovery),
//! every fault here is *silent*: the disk acknowledges the operation and
//! lies. The invariant under test is therefore different:
//!
//! 1. **No silent wrong bytes.** A read either returns exactly the last
//!    acknowledged commit's bytes or fails with a typed corruption error —
//!    never rotted, misdirected or stale data.
//! 2. **Acknowledged commits are recoverable.** After detection, the
//!    repair ladder (re-read → WAL reconstruction) plus a deep scrub pass
//!    restores every data page to its committed image; nothing ends up
//!    quarantined while committed history exists.
//! 3. **WAL corruption is typed, not absorbed.** A complete frame that
//!    fails its checksum (or sits at the wrong LSN) surfaces as
//!    `WalError::CorruptRecord`, distinct from benign torn-tail
//!    truncation. The one undetectable case — a lost log flush, which is
//!    indistinguishable from a torn tail — is pinned as a documented
//!    negative result, exactly like the lying-fsync test in the crash
//!    matrix.
//!
//! Representative subsets run by default; the full sweeps run with
//! `--features crash-tests` alongside the crash matrix in CI.

use std::sync::Arc;
use std::time::Duration;

use bess_cache::{AreaSet, DbPage};
use bess_lock::LockMode;
use bess_net::{Network, NodeId};
use bess_server::{
    register_areas, BessServer, ClientConfig, ClientConn, Directory, Msg, PageUpdate,
    ServerConfig,
};
use bess_storage::{
    AreaConfig, AreaId, FaultDisk, FaultKind, FaultPlan, OpClass, StorageArea, PAGE_HDR,
};
use bess_wal::{LogBody, LogManager, LogPageId, Lsn, WalError, LOG_START};

const PAGE_SIZE: usize = 256;
/// Data pages committed in the rig; fault indices sweep over them.
const K: usize = 3;

fn small_area() -> AreaConfig {
    AreaConfig {
        page_size: PAGE_SIZE,
        extent_pages_log2: 4,
        initial_extents: 1,
        expandable: true,
    }
}

fn gen1(i: usize) -> Vec<u8> {
    vec![0x10 + i as u8; 8]
}

fn gen2(i: usize) -> Vec<u8> {
    vec![0x60 + i as u8; 8]
}

// ---------------------------------------------------------------------------
// Data-page seam: a live server over a fault-injecting area.
// ---------------------------------------------------------------------------

struct Rig {
    net: Arc<Network<Msg>>,
    dir: Arc<Directory>,
    server: BessServer,
    disk: Arc<FaultDisk>,
    area: Arc<StorageArea>,
    pages: [u64; K],
}

/// Builds a server over a faulty area and commits generation-1 bytes to
/// `K` pages fault-free, so every page has committed WAL history before
/// any plan is armed. Scrubbing is manual (`scrub_once`) and deep.
fn rig() -> Rig {
    let net = Network::new(Duration::ZERO);
    let dir = Arc::new(Directory::new());
    let disk = FaultDisk::new(FaultPlan::unarmed());
    let area =
        Arc::new(StorageArea::create_faulty(AreaId(1), small_area(), Arc::clone(&disk)).unwrap());
    let ptr = area.alloc(K as u32).unwrap();
    let pages = [ptr.start_page, ptr.start_page + 1, ptr.start_page + 2];
    let set = Arc::new(AreaSet::new());
    set.add(Arc::clone(&area));
    let node = NodeId(100);
    register_areas(&dir, node, &set);
    let mut cfg = ServerConfig::new(node);
    cfg.scrub.deep = true;
    cfg.scrub.pages_per_pass = 1024;
    let (server, report) = BessServer::start(cfg, set, LogManager::create_mem(), &net);
    assert!(report.losers.is_empty());
    let r = Rig { net, dir, server, disk, area, pages };
    for i in 0..K {
        commit(&r, i, &gen1(i)).unwrap();
    }
    r
}

fn client(r: &Rig) -> Arc<ClientConn> {
    let mut cfg = ClientConfig::new(NodeId(1), r.server.node());
    cfg.caching = false;
    ClientConn::connect(&r.net, Arc::clone(&r.dir), cfg)
}

fn slot_off(r: &Rig, i: usize) -> u64 {
    r.pages[i] * (PAGE_HDR + PAGE_SIZE) as u64
}

/// Commits `bytes` at offset 0 of page `i` through the normal WAL path.
fn commit(r: &Rig, i: usize, bytes: &[u8]) -> Result<(), String> {
    let c = client(r);
    let p = DbPage { area: 1, page: r.pages[i] };
    c.begin().map_err(|e| format!("{e:?}"))?;
    c.fetch_page(p, LockMode::X).map_err(|e| format!("{e:?}"))?;
    c.commit(vec![PageUpdate {
        page: p,
        offset: 0,
        before: vec![0; bytes.len()],
        after: bytes.to_vec(),
    }])
    .map_err(|e| format!("{e:?}"))
}

/// Reads page `i` through the server. `Ok` bytes are the page head;
/// `Err` is the typed failure.
fn read(r: &Rig, i: usize) -> Result<Vec<u8>, String> {
    let c = client(r);
    let p = DbPage { area: 1, page: r.pages[i] };
    c.begin().map_err(|e| format!("{e:?}"))?;
    let data = c.fetch_page(p, LockMode::S).map_err(|e| format!("{e:?}"))?;
    let _ = c.commit(vec![]);
    Ok(data[..8].to_vec())
}

/// The matrix invariant for the data seam: every probe read is either the
/// oracle bytes or a typed corruption error, and after deep scrubbing the
/// whole area converges to the oracle with nothing quarantined.
fn check_convergence(r: &Rig, oracle: &dyn Fn(usize) -> Vec<u8>) {
    // Two passes: the first may both detect and repair; the second
    // verifies a clean steady state (and the cursor has wrapped).
    r.server.scrub_once();
    let steady = r.server.scrub_once();
    assert_eq!(steady.corrupt, 0, "second scrub pass still found corruption");
    for i in 0..K {
        assert_eq!(
            read(r, i).expect("post-scrub read"),
            oracle(i),
            "page {i} diverged from its committed bytes"
        );
    }
    assert!(
        r.area.quarantined_pages().is_empty(),
        "pages with committed history must be repairable, not quarantined"
    );
}

/// One write-seam cell: arm `(Write, nth, kind)`, commit generation-2
/// bytes to every page (the nth slot write is the faulted one), then
/// check detection + convergence. Every commit must be acknowledged —
/// these faults are silent by construction.
fn run_write_case(nth: u64, kind: FaultKind) -> bool {
    let r = rig();
    let plan = FaultPlan::armed(OpClass::Write, nth, kind);
    r.disk.arm(Arc::clone(&plan));
    for i in 0..K {
        commit(&r, i, &gen2(i)).unwrap_or_else(|e| panic!("silent fault broke commit {i}: {e}"));
    }
    let fired = plan.fired() > 0;
    // Probe reads before any scrub: never silent wrong bytes.
    for i in 0..K {
        if let Ok(bytes) = read(&r, i) {
            assert!(
                bytes == gen2(i) || bytes == gen1(i),
                "page {i} returned bytes that were never committed: {bytes:?}"
            );
        }
        // A stale-but-valid page (lost/misdirected write) may legally read
        // as generation 1 here — that is exactly what the deep scrub's
        // page-LSN floor exists to catch below.
    }
    check_convergence(&r, &gen2);
    fired
}

#[test]
fn data_write_bit_rot_repaired_from_wal() {
    let mut fired = 0;
    for nth in 0..K as u64 {
        // Rot one byte inside the nth slot write (page `nth`'s data).
        let r_probe = rig(); // offsets are deterministic; compute off a probe rig
        let off = slot_off(&r_probe, nth as usize) + PAGE_HDR as u64 + 2;
        drop(r_probe);
        if run_write_case(nth, FaultKind::BitRot { offset: off, mask: 0x40 }) {
            fired += 1;
        }
    }
    assert_eq!(fired, K as u64, "every write index must be exercised");
}

#[test]
fn data_misdirected_write_detected_and_healed() {
    let mut fired = 0;
    for nth in 0..K as u64 {
        // The nth slot write lands wholesale on a *different* page's slot:
        // the victim gets a wrong-identity page (caught by the header
        // identity check), the intended page keeps stale bytes (caught by
        // the deep scrub's LSN floor).
        let victim = (nth as usize + 1) % K;
        let r_probe = rig();
        let to = slot_off(&r_probe, victim);
        drop(r_probe);
        if run_write_case(nth, FaultKind::Misdirected { to }) {
            fired += 1;
        }
    }
    assert_eq!(fired, K as u64);
}

#[test]
fn data_lost_write_caught_by_deep_scrub() {
    let mut fired = 0;
    for nth in 0..K as u64 {
        // The write is acknowledged and never applied: the page keeps its
        // generation-1 bytes under a perfectly valid checksum. Only the
        // page-LSN floor can see it.
        if run_write_case(nth, FaultKind::LostWrite) {
            fired += 1;
        }
    }
    assert_eq!(fired, K as u64);
}

#[test]
fn data_transient_read_rot_cured_by_reread() {
    // A flip in the *returned buffer* (the platter is fine): the verified
    // read detects the bad checksum and its immediate re-read cures it.
    let mut fired = 0;
    for nth in 0..K as u64 {
        let r = rig();
        let off = slot_off(&r, nth as usize) + PAGE_HDR as u64 + 5;
        let plan = FaultPlan::armed(
            OpClass::Read,
            nth,
            FaultKind::BitRot { offset: off, mask: 0x08 },
        );
        r.disk.arm(Arc::clone(&plan));
        for i in 0..K {
            assert_eq!(read(&r, i).expect("transient rot must be cured"), gen1(i));
        }
        if plan.fired() > 0 {
            fired += 1;
        }
        assert!(r.area.quarantined_pages().is_empty());
    }
    assert!(fired >= 1, "the read fault never fired");
}

#[cfg_attr(not(feature = "crash-tests"), ignore)]
#[test]
fn data_write_fault_full_sweep() {
    // Every write index × every silent kind, including rot in the page
    // *header* (identity/checksum fields) rather than the data.
    let mut fired = 0;
    let mut cells = 0;
    for nth in 0..K as u64 {
        let r_probe = rig();
        let slot = slot_off(&r_probe, nth as usize);
        let victim = slot_off(&r_probe, (nth as usize + 1) % K);
        drop(r_probe);
        for kind in [
            FaultKind::BitRot { offset: slot + PAGE_HDR as u64 + 2, mask: 0x40 },
            FaultKind::BitRot { offset: slot + 1, mask: 0x01 }, // header: area id
            FaultKind::BitRot { offset: slot + 26, mask: 0x80 }, // header: checksum
            FaultKind::Misdirected { to: victim },
            FaultKind::LostWrite,
        ] {
            cells += 1;
            if run_write_case(nth, kind) {
                fired += 1;
            }
        }
    }
    assert_eq!(fired, cells, "every full-sweep cell must fire");
}

// ---------------------------------------------------------------------------
// WAL seam: silent corruption of the log, surfaced at reopen + recovery.
// ---------------------------------------------------------------------------

/// Three committed transactions, one flush each: flush `k` carries txn
/// `k+1`'s Begin/Update/Commit frames. Returns every record's LSN in
/// append order.
fn wal_workload(log: &LogManager) -> Vec<Lsn> {
    let mut lsns = Vec::new();
    for txn in 1..=3u64 {
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
        log.flush_all().unwrap();
        lsns.extend([b, u, c]);
    }
    lsns
}

fn wal_rig() -> (Arc<FaultDisk>, LogManager) {
    let disk = FaultDisk::new(FaultPlan::unarmed());
    let log = LogManager::create_faulty(Arc::clone(&disk)).unwrap();
    log.set_master(Lsn::NULL).unwrap();
    (disk, log)
}

/// Iterates the whole log, returning the committed txns seen and the
/// iterator's verdict (`Ok` = clean or torn tail, `Err` = typed
/// mid-log corruption).
fn scan(log: &LogManager) -> (Vec<u64>, Result<(), WalError>) {
    let mut commits = Vec::new();
    let mut iter = log.iter();
    for rec in iter.by_ref() {
        if rec.body == LogBody::Commit {
            commits.push(rec.txn);
        }
    }
    (commits, iter.finish())
}

/// What reopening a damaged log yields. Corruption may surface at open
/// time (the tail scan validates frames) or during iteration; both are
/// the same typed verdict from the caller's point of view.
#[derive(Debug)]
enum Outcome {
    /// Clean scan (possibly torn-truncated): the committed txns served.
    Clean(Vec<u64>),
    /// Typed mid-log corruption at this LSN.
    Typed(Lsn),
}

fn reopen_outcome(disk: &Arc<FaultDisk>) -> Outcome {
    match LogManager::open_faulty(Arc::clone(disk)) {
        Err(WalError::CorruptRecord(at)) => Outcome::Typed(at),
        Err(e) => panic!("unexpected open error: {e:?}"),
        Ok(log) => {
            let (commits, verdict) = scan(&log);
            match verdict {
                Ok(()) => Outcome::Clean(commits),
                Err(WalError::CorruptRecord(at)) => Outcome::Typed(at),
                Err(e) => panic!("unexpected scan error: {e:?}"),
            }
        }
    }
}

#[test]
fn wal_payload_rot_is_a_typed_error() {
    // Durably rot one payload byte of each record in turn: a complete
    // frame that fails its checksum is CorruptRecord at that LSN — never
    // a silent record, never a quiet truncation.
    let probe = {
        let (_, log) = wal_rig();
        wal_workload(&log)
    };
    let targets: &[usize] = if cfg!(feature = "crash-tests") {
        &[0, 1, 2, 3, 4, 5, 6, 7, 8]
    } else {
        &[0, 4, 8]
    };
    for &t in targets {
        let (disk, log) = wal_rig();
        assert_eq!(wal_workload(&log), probe, "workload must be deterministic");
        drop(log);
        // Flip one payload byte in place (the fault-disk image is the
        // platter; everything was synced by the per-txn flushes).
        let off = probe[t].0 + 12; // first payload byte
        let mut b = [0u8; 1];
        disk.read_at(&mut b, off).unwrap();
        disk.write_at(&[b[0] ^ 0x10], off).unwrap();
        match reopen_outcome(&disk) {
            Outcome::Typed(at) => assert_eq!(at, probe[t], "record {t}"),
            other => panic!("record {t}: rot must surface as typed corruption, got {other:?}"),
        }
    }
}

#[test]
fn wal_frame_head_rot_never_yields_wrong_records() {
    // Rot in the frame *head* (length or checksum field). Depending on
    // the bit, the scan sees either a failed checksum (typed) or an
    // implausible length (indistinguishable from a torn tail, so it
    // truncates). Both are safe; silently decoding a wrong record is not.
    let probe = {
        let (_, log) = wal_rig();
        wal_workload(&log)
    };
    for (t, bit) in [(3usize, 0u8), (3, 1), (6, 2)] {
        let (disk, log) = wal_rig();
        wal_workload(&log);
        drop(log);
        let off = probe[t].0 + u64::from(bit); // inside the 4-byte length
        let mut b = [0u8; 1];
        disk.read_at(&mut b, off).unwrap();
        disk.write_at(&[b[0] ^ 0x80], off).unwrap();
        match reopen_outcome(&disk) {
            Outcome::Clean(commits) => assert!(
                commits.len() <= t / 3,
                "a truncating head rot must not keep later records: {commits:?}"
            ),
            Outcome::Typed(at) => assert_eq!(at, probe[t]),
        }
    }
}

/// The documented negative result of this matrix: a lost log *flush* is
/// physically indistinguishable from a torn tail (the hole reads as
/// zeros, exactly like never-written space), so the scan truncates there
/// and every acknowledged commit after the hole is gone. Like the lying
/// fsync in the crash matrix, this is why WAL durability is a premise
/// about the device, not something detection can recover.
#[test]
fn wal_lost_flush_truncates_at_the_hole() {
    for k in 0..3u64 {
        let (disk, log) = wal_rig();
        disk.arm(FaultPlan::armed(OpClass::Write, k, FaultKind::LostWrite));
        wal_workload(&log); // every flush acks, including the lost one
        drop(log);
        disk.crash();
        disk.reopen(FaultPlan::unarmed());
        let log = LogManager::open_faulty(Arc::clone(&disk)).unwrap();
        let (commits, verdict) = scan(&log);
        assert!(
            verdict.is_ok(),
            "a hole is a torn tail, not typed corruption: {verdict:?}"
        );
        assert_eq!(
            commits,
            (1..=k).collect::<Vec<_>>(),
            "exactly the flushes before the hole survive"
        );
    }
}

#[test]
fn wal_misdirected_flush_is_detected_or_truncated() {
    // Flush k's bytes land at the wrong log offset. Overwriting earlier
    // frames puts valid-looking frames at the wrong LSN — caught by the
    // frame's self-identifying LSN. Redirecting past the tail leaves a
    // hole — truncated like a torn tail. Neither yields a wrong record.
    for (k, to) in [
        (1u64, LOG_START.0),          // over txn 1's frames
        (2, LOG_START.0),             // over txn 1's frames, later flush
        (0, LOG_START.0 + 4096),      // into the void: hole at LOG_START
    ] {
        let (disk, log) = wal_rig();
        disk.arm(FaultPlan::armed(
            OpClass::Write,
            k,
            FaultKind::Misdirected { to },
        ));
        wal_workload(&log);
        drop(log);
        disk.crash();
        disk.reopen(FaultPlan::unarmed());
        match reopen_outcome(&disk) {
            Outcome::Typed(_) => {} // wrong-LSN frame, typed
            Outcome::Clean(commits) => assert!(
                commits.len() <= k as usize,
                "flush {k} misdirected to {to}: records after the damage survived a plain scan"
            ),
        }
    }
}

#[test]
fn wal_transient_read_rot_during_reopen_is_cured() {
    // A one-shot flip in a *read* (the platter is fine): the frame
    // reader's single re-read cures it, and the reopened log serves the
    // full history.
    let (disk, log) = wal_rig();
    wal_workload(&log);
    drop(log);
    disk.crash();
    disk.reopen(FaultPlan::armed(
        OpClass::Read,
        0,
        FaultKind::BitRot { offset: LOG_START.0 + 4, mask: 0x20 },
    ));
    let log = LogManager::open_faulty(Arc::clone(&disk)).unwrap();
    let (commits, verdict) = scan(&log);
    assert!(verdict.is_ok(), "cured read must scan clean: {verdict:?}");
    assert_eq!(commits, vec![1, 2, 3]);
}
