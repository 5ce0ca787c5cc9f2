//! Concurrency semantics of the group-committing log force.
//!
//! These tests interleave appenders and flushers across real threads and
//! check the three contract points of DESIGN.md §13:
//!
//!   (a) `flushed_lsn` is monotone under concurrent forces;
//!   (b) a returned `flush(upto)` implies every byte `<= upto` is in the
//!       backend's *durable* image (checked against the fault disk's
//!       post-crash view, not its volatile one);
//!   (c) a fault injected during a group force errors **every** waiter in
//!       that group — no member is ever told "durable" on the strength of
//!       a sync that failed.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

use bess_storage::{FaultDisk, FaultKind, FaultPlan, OpClass};
use bess_wal::{ForcePoint, GroupCommitConfig, LogBody, LogManager, LogPageId, Lsn, WalResult, LOG_START};

fn upd(page: u64, len: usize) -> LogBody {
    LogBody::Update {
        page: LogPageId { area: 0, page },
        offset: 0,
        before: vec![0; len],
        after: vec![1; len],
    }
}

/// One committed transaction: Begin, one update, Commit, force, End.
/// Returns the Commit LSN and the force's result.
fn commit_txn(log: &LogManager, txn: u64, page: u64) -> (Lsn, WalResult<()>) {
    let b = log.append(txn, Lsn::NULL, LogBody::Begin);
    let u = log.append(txn, b, upd(page, 8));
    let c = log.append(txn, u, LogBody::Commit);
    let res = log.flush(c);
    if res.is_ok() {
        log.append(txn, c, LogBody::End);
    }
    (c, res)
}

/// (a) + (b): hammer the log from many committers over a fault disk (no
/// faults armed) and check, per acknowledged commit, that the commit
/// record's bytes are already in the durable image; a sampler thread
/// checks the watermark never moves backwards; and a post-crash reopen
/// sees every acknowledged commit.
#[test]
fn concurrent_commits_are_durable_when_acked() {
    const THREADS: u64 = 8;
    const TXNS: u64 = 40;

    let disk = FaultDisk::new(FaultPlan::unarmed());
    let log = Arc::new(LogManager::create_faulty(Arc::clone(&disk)).unwrap());
    let stop = Arc::new(AtomicBool::new(false));

    // Monotonicity sampler.
    let sampler = {
        let log = Arc::clone(&log);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut last = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let now = log.flushed_lsn().0;
                assert!(now >= last, "flushed_lsn went backwards: {last} -> {now}");
                last = now;
            }
        })
    };

    let barrier = Arc::new(Barrier::new(THREADS as usize));
    let workers: Vec<_> = (0..THREADS)
        .map(|t| {
            let log = Arc::clone(&log);
            let disk = Arc::clone(&disk);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                for i in 0..TXNS {
                    let txn = t * TXNS + i + 1;
                    let (c, res) = commit_txn(&log, txn, txn);
                    res.unwrap();
                    // (b): the ack means the commit record is durable —
                    // visible in the post-crash image, not merely in the
                    // volatile one.
                    let durable = disk.durable_image().len() as u64;
                    assert!(
                        durable > c.0,
                        "flush({}) acked but durable image ends at {durable}",
                        c.0
                    );
                    assert!(log.flushed_lsn().0 > c.0);
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    sampler.join().unwrap();

    // Every force was led by exactly one member.
    let stats = log.stats();
    assert_eq!(stats.group_leaders.get(), stats.flushes.get());

    // Crash and reopen: every acknowledged commit survived.
    disk.crash();
    disk.reopen(FaultPlan::unarmed());
    let reopened = LogManager::open_faulty(disk).unwrap();
    let commits = reopened
        .iter()
        .filter(|r| r.body == LogBody::Commit)
        .count() as u64;
    assert_eq!(commits, THREADS * TXNS);
}

/// Amortization: when all records are appended before anyone forces, the
/// whole batch rides one device sync, whoever wins leadership.
#[test]
fn batched_commits_share_one_sync() {
    const THREADS: usize = 4;
    let disk = FaultDisk::new(FaultPlan::unarmed());
    let log = Arc::new(LogManager::create_faulty(Arc::clone(&disk)).unwrap());

    // Appends all land before any flush starts.
    let commits: Vec<Lsn> = (0..THREADS as u64)
        .map(|t| {
            let b = log.append(t + 1, Lsn::NULL, LogBody::Begin);
            log.append(t + 1, b, LogBody::Commit)
        })
        .collect();

    let barrier = Arc::new(Barrier::new(THREADS));
    let workers: Vec<_> = commits
        .iter()
        .map(|&c| {
            let log = Arc::clone(&log);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                log.flush(c).unwrap();
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }

    // The first force covered every record; later flush calls either rode
    // it or found the watermark already past them. Exactly one sync.
    assert_eq!(log.stats().flushes.get(), 1, "batch should share one sync");
    assert_eq!(log.stats().group_leaders.get(), 1);
    assert_eq!(log.flushed_lsn(), log.next_lsn());
}

/// (c): a sync error during a group force fails every member of the
/// group, leaves the watermark untouched, and the restored tail makes a
/// retry force the same bytes successfully.
#[test]
fn fault_during_group_force_fails_every_waiter() {
    const THREADS: u64 = 4;
    let disk = FaultDisk::new(FaultPlan::unarmed());
    let log = Arc::new(LogManager::create_faulty(Arc::clone(&disk)).unwrap());
    // Make the fresh header durable (like mkfs) so the armed fault below
    // is the workload's first sync and the durable baseline is LOG_START.
    log.set_master(Lsn::NULL).unwrap();
    // A long gather window holds the leader back so every thread joins
    // one group; the main thread releases the group deterministically by
    // pushing the tail past max_group_bytes once all followers are in.
    const GROUP_BYTES: usize = 4096;
    log.set_group_commit(GroupCommitConfig {
        max_group_bytes: GROUP_BYTES,
        max_wait: Duration::from_secs(10),
    });
    // The very next device sync fails (single-shot).
    disk.arm(FaultPlan::armed(OpClass::Sync, 0, FaultKind::Eio));

    let barrier = Arc::new(Barrier::new(THREADS as usize + 1));
    let workers: Vec<_> = (0..THREADS)
        .map(|t| {
            let log = Arc::clone(&log);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let b = log.append(t + 1, Lsn::NULL, LogBody::Begin);
                let c = log.append(t + 1, b, LogBody::Commit);
                barrier.wait();
                log.flush(c)
            })
        })
        .collect();
    barrier.wait();

    // Wait until one leader and three followers are committed to this
    // group, then wake the gathering leader by crossing max_group_bytes.
    let deadline = Instant::now() + Duration::from_secs(10);
    while log.stats().group_followers.get() < THREADS - 1 {
        assert!(Instant::now() < deadline, "followers never joined");
        std::thread::sleep(Duration::from_millis(1));
    }
    log.append(99, Lsn::NULL, upd(99, GROUP_BYTES));

    let results: Vec<WalResult<()>> = workers.into_iter().map(|w| w.join().unwrap()).collect();
    assert!(
        results.iter().all(|r| r.is_err()),
        "every waiter of the failed group must see the error: {results:?}"
    );
    assert_eq!(log.flushed_lsn(), LOG_START, "no spurious durability ack");
    assert_eq!(log.stats().flushes.get(), 0);
    assert_eq!(log.stats().group_leaders.get(), 1);
    assert_eq!(log.stats().group_followers.get(), THREADS - 1);
    assert_eq!(disk.durable_image().len() as u64, LOG_START.0);

    // The tail was restored in order: a retry forces the same bytes.
    log.flush_all().unwrap();
    assert_eq!(log.flushed_lsn(), log.next_lsn());
    let durable = disk.durable_image();
    assert_eq!(durable.len() as u64, log.flushed_lsn().0);
    let commits = log.iter().filter(|r| r.body == LogBody::Commit).count() as u64;
    assert_eq!(commits, THREADS);
}

/// (c), the interleaving behind the old flake: the gather notify wakes a
/// follower while its leader's force is still in flight, and the follower
/// gets back to the group lock only after the leader has published the
/// failure and stepped down. It must still fail with its group — not lead
/// the next round, re-force the spliced-back tail (the fault is
/// single-shot) and report success. The force hook pins the order: the
/// leader parks after its swap until the follower is out of the wait, and
/// the follower stays off the lock until the leader has returned.
#[test]
fn follower_woken_before_failure_is_published_still_fails() {
    let disk = FaultDisk::new(FaultPlan::unarmed());
    let log = Arc::new(LogManager::create_faulty(Arc::clone(&disk)).unwrap());
    log.set_master(Lsn::NULL).unwrap();
    const GROUP_BYTES: usize = 4096;
    log.set_group_commit(GroupCommitConfig {
        max_group_bytes: GROUP_BYTES,
        max_wait: Duration::from_secs(60),
    });
    disk.arm(FaultPlan::armed(OpClass::Sync, 0, FaultKind::Eio));

    let (woke_tx, woke_rx) = mpsc::channel::<()>();
    let (resume_tx, resume_rx) = mpsc::channel::<()>();
    let (woke_tx, woke_rx, resume_rx) = (Mutex::new(woke_tx), Mutex::new(woke_rx), Mutex::new(resume_rx));
    let leader_parked = AtomicBool::new(false);
    log.set_force_hook(Some(Box::new(move |p| match p {
        // Only the failing leader parks; if the follower wrongly led a
        // second round it must run through so the assertions can see it.
        ForcePoint::AfterSwap if !leader_parked.swap(true, Ordering::SeqCst) => {
            woke_rx.lock().unwrap().recv().unwrap();
        }
        ForcePoint::FollowerWoke => {
            woke_tx.lock().unwrap().send(()).unwrap();
            resume_rx.lock().unwrap().recv().unwrap();
        }
        _ => {}
    })));

    let committer = |txn: u64| {
        let log = Arc::clone(&log);
        std::thread::spawn(move || {
            let b = log.append(txn, Lsn::NULL, LogBody::Begin);
            log.flush(log.append(txn, b, LogBody::Commit))
        })
    };
    // Waiting for a role to be taken is waiting for a state, not a race:
    // the 60 s gather window keeps the leader put until the append below.
    let leader = committer(1);
    while log.stats().group_leaders.get() < 1 {
        std::thread::yield_now();
    }
    let follower = committer(2);
    while log.stats().group_followers.get() < 1 {
        std::thread::yield_now();
    }
    // Crossing max_group_bytes notifies the shared condvar: the leader
    // leaves its gather window and the follower wakes early.
    log.append(99, Lsn::NULL, upd(99, GROUP_BYTES));

    assert!(leader.join().unwrap().is_err(), "the armed sync fault fails the leader");
    resume_tx.send(()).unwrap();
    assert!(
        follower.join().unwrap().is_err(),
        "a member of the failed group reported success"
    );
    assert_eq!(log.stats().group_leaders.get(), 1, "the follower led a round of its own");
    assert_eq!(log.stats().flushes.get(), 0);
    assert_eq!(log.flushed_lsn(), LOG_START, "no spurious durability ack");

    log.set_force_hook(None);
    log.flush_all().unwrap();
    assert_eq!(log.flushed_lsn(), log.next_lsn());
}

/// A lone committer is a group of one, under the same no-spurious-ack
/// contract: a failed sync restores the tail and the watermark.
#[test]
fn lone_committer_force_failure_is_retryable() {
    let disk = FaultDisk::new(FaultPlan::unarmed());
    let log = LogManager::create_faulty(Arc::clone(&disk)).unwrap();

    let b = log.append(1, Lsn::NULL, LogBody::Begin);
    let c = log.append(1, b, LogBody::Commit);
    disk.arm(FaultPlan::armed(OpClass::Sync, 0, FaultKind::Eio));
    assert!(log.flush(c).is_err());
    assert_eq!(log.flushed_lsn(), LOG_START);

    log.flush(c).unwrap();
    assert_eq!(log.flushed_lsn(), log.next_lsn());
    assert_eq!(disk.durable_image().len() as u64, log.flushed_lsn().0);
}

/// Records of an in-flight group stay readable during the force: a reader
/// must be able to walk the log while another thread's sync is running
/// (the undo path does exactly this under concurrent commits).
#[test]
fn in_flight_group_records_stay_readable() {
    let disk = FaultDisk::new(FaultPlan::unarmed());
    let log = Arc::new(LogManager::create_faulty(Arc::clone(&disk)).unwrap());
    log.set_group_commit(GroupCommitConfig {
        max_group_bytes: usize::MAX,
        max_wait: Duration::from_millis(200),
    });

    let b = log.append(1, Lsn::NULL, LogBody::Begin);
    let u = log.append(1, b, upd(7, 16));
    let c = log.append(1, u, LogBody::Commit);

    // The flusher gathers for up to 200ms; meanwhile the reader walks the
    // log. With the buffer swapped into `flushing`, reads must still see
    // all three records.
    let flusher = {
        let log = Arc::clone(&log);
        std::thread::spawn(move || log.flush(c).unwrap())
    };
    let deadline = Instant::now() + Duration::from_secs(5);
    while Instant::now() < deadline {
        assert_eq!(log.iter().count(), 3);
        if log.flushed_lsn().0 > c.0 {
            break;
        }
    }
    flusher.join().unwrap();
    assert_eq!(log.iter().count(), 3);
    assert_eq!(log.read_record_at(u).unwrap().unwrap().body, upd(7, 16));
}

mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// A single-threaded schedule step; the interleaving of appends and
    /// partial/full forces exercises the watermark and swap bookkeeping.
    #[derive(Debug, Clone)]
    enum Op {
        Append { txn: u8, len: u8 },
        /// Flush up to the LSN of the i-th appended record (mod count).
        FlushAt(u8),
        FlushAll,
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0u8..4, 1u8..32).prop_map(|(txn, len)| Op::Append { txn, len }),
            any::<u8>().prop_map(Op::FlushAt),
            Just(Op::FlushAll),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        /// Random append/flush schedules keep the watermark monotone and
        /// within bounds, keep every appended record readable, and a
        /// crash keeps exactly the records below the watermark.
        #[test]
        fn schedules_keep_watermark_and_crash_consistent(
            ops in prop::collection::vec(op_strategy(), 1..40),
        ) {
            let log = LogManager::create_mem();
            let mut lsns: Vec<Lsn> = Vec::new();
            let mut watermark = log.flushed_lsn().0;
            for op in &ops {
                match *op {
                    Op::Append { txn, len } => {
                        let l = log.append(
                            u64::from(txn) + 1,
                            Lsn::NULL,
                            upd(u64::from(txn), usize::from(len)),
                        );
                        lsns.push(l);
                    }
                    Op::FlushAt(i) => {
                        if !lsns.is_empty() {
                            let l = lsns[usize::from(i) % lsns.len()];
                            log.flush(l).unwrap();
                            prop_assert!(log.flushed_lsn().0 > l.0);
                        }
                    }
                    Op::FlushAll => {
                        log.flush_all().unwrap();
                        prop_assert_eq!(log.flushed_lsn(), log.next_lsn());
                    }
                }
                let now = log.flushed_lsn().0;
                prop_assert!(now >= watermark);
                prop_assert!(now <= log.next_lsn().0);
                watermark = now;
                prop_assert_eq!(log.iter().count(), lsns.len());
            }
            // Crash: exactly the records below the watermark survive.
            let survivors = lsns.iter().filter(|l| l.0 < watermark).count();
            let crashed = log.simulate_crash().unwrap();
            prop_assert_eq!(crashed.iter().count(), survivors);
        }
    }
}
