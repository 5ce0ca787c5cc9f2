//! Lock-order validated synchronisation primitives.
//!
//! BeSS holds many short critical sections across layers — the lock
//! manager's shards, the buffer pools, the WAL state, the fault-injection
//! disk — and the only thing standing between them and an ABBA deadlock is
//! a documented acquisition order. This module makes that order executable:
//!
//! * Every tracked lock is declared here as a [`Rank`] (mirrored in the
//!   repo-root `lock_order.toml`, which `bess-lint` cross-checks against
//!   this enum and enforces statically).
//! * [`OrderedMutex`] / [`OrderedRwLock`] wrap the `parking_lot` shim and,
//!   in debug builds only, maintain a thread-local stack of held ranks.
//!   Acquiring a lock whose rank is not strictly greater than every rank
//!   already held panics with **both** acquisition backtraces — the held
//!   lock's and the offending one's.
//!
//! Release builds compile the bookkeeping away entirely: the wrappers cost
//! one `u16` + one `&'static str` per lock object and nothing per
//! operation.
//!
//! # Registering a new lock
//!
//! 1. Pick where it sits in the hierarchy and add a variant to [`Rank`]
//!    (equal ranks may never be held together, so give each lock class its
//!    own value and leave gaps for future layers).
//! 2. Add the same name/value pair to `lock_order.toml` under `[ranks]`,
//!    and a `[[lock]]` entry binding the field name to the rank so the
//!    static scan can see it.
//! 3. Construct the field with `OrderedMutex::new(Rank::…, "label", value)`.

use std::fmt;
use std::ops::{Deref, DerefMut};

/// The global lock hierarchy, smallest rank first.
///
/// A thread may only acquire a lock whose rank is **strictly greater** than
/// every rank it already holds (so two locks of equal rank can never be
/// held together). The values are spaced out to leave room for future
/// layers; they are mirrored in `lock_order.toml` and cross-checked by
/// `bess-lint`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u16)]
pub enum Rank {
    /// `LockManager::held` — the per-transaction held-lock registry. Only
    /// ever taken with no other tracked lock held.
    LockManagerHeld = 10,
    /// `LockManager::shards[i]` — a lock-table shard. At most one shard is
    /// held at a time (equal ranks conflict, which enforces that).
    LockManagerShard = 12,
    /// `LockManager::waits` — the waits-for graph (Detect policy), taken
    /// under a shard while classifying blockers.
    LockManagerWaits = 14,
    /// `Waiter::state` — a waiter's grant flag, signalled under a shard.
    LockWaiter = 16,
    /// `LockCache::table` — the client-side cached-lock table.
    LockCache = 18,
    /// `SharedView::mapped` — a process's vframe→slot map. Held across
    /// `SharedCache` calls in the fault handler, so it ranks *below* the
    /// shared pool.
    ViewMap = 19,
    /// `SharedCache::inner` — the multi-process shared buffer pool.
    SharedPool = 20,
    /// `PrivatePool::inner` — a client's private page cache. Held across
    /// `PageIo::write_back` during eviction, so all storage-side locks rank
    /// above it.
    PrivatePool = 24,
    /// `MapIo::pages` — the in-memory test backing store for pools.
    TestPageIo = 28,
    /// `AreaSet::areas` — the area-id → `StorageArea` routing table.
    AreaSet = 30,
    /// `LogManager::gc` — group-commit coordination (leader election and
    /// follower wakeup). A leader holds it while taking the WAL state
    /// lock to swap tail buffers, so it ranks below `WalLog`. Followers
    /// condvar-wait on it (the rank stays registered across the wait).
    WalGroup = 38,
    /// `LogManager::state` — WAL append/flush state. Held only for short
    /// critical sections (append framing, buffer swap); the group-commit
    /// leader performs device I/O with no log locks held.
    WalLog = 40,
    /// `StorageArea::extents` — the buddy-allocator extent table, held
    /// across backend growth when expanding an area.
    AreaExtents = 44,
    /// `StorageArea::quarantined` — the set of pages whose integrity
    /// verification failed unrepairably. Checked before every backend
    /// read and never held across I/O (blocking-under-lock enforces
    /// that statically).
    AreaQuarantine = 45,
    /// `IoQueue::state` — the submission/completion bookkeeping of the
    /// async I/O runtime. Taken briefly at submit and completion; never
    /// held across a device call. Ranks above every lock a submitter may
    /// hold (WAL state, area extents) and below the device-side leaves.
    IoQueue = 48,
    /// `MemDevice::bytes` — the in-memory disk image behind an
    /// [`bess-io`] memory device (storage areas, the WAL's memory log).
    /// A device-side leaf: nothing is acquired under it.
    IoMemDevice = 49,
    /// `FaultDisk::images` — the two-image (durable/volatile) state of the
    /// fault-injection disk; `reopen` takes the plan slot under it.
    FaultImages = 50,
    /// `FaultDisk::plan` — the armed-plan slot.
    FaultPlanSlot = 52,
    /// `FaultPlan::armed` — the single-shot armed fault inside a plan.
    FaultArmed = 54,
    /// `Scrubber::cursor` — the background scrubber's walk position and
    /// bookkeeping. Ranks *above* every storage/WAL/fault lock so that
    /// holding it across a page verification (which acquires those) is
    /// itself a reported inversion: the scrubber must snapshot its cursor,
    /// drop the guard, then do I/O.
    ServerScrub = 55,
    /// `Leases::table` — the per-client lease table. Taken briefly on
    /// every received message and by the reaper; never held across lock
    /// manager, log, or network calls.
    ServerLeases = 56,
    /// `Dedup::window` — the request-id dedup window. Taken briefly
    /// around commit dispatch; never held across the commit itself.
    ServerDedup = 58,
    /// `Network::partitioned` — the set of partitioned nodes, checked on
    /// every send. A leaf: nothing is acquired under it.
    NetPartition = 60,
    /// `Network::plan` — the armed network-fault-plan slot.
    NetPlanSlot = 62,
    /// `NetFaultPlan::armed` — the single-shot armed fault inside a plan.
    NetFaultArmed = 64,
    /// `Registry::metrics` — the bess-obs metric name table. Taken on
    /// registration and snapshot only (recording is lock-free); a leaf.
    ObsRegistry = 66,
    /// `Journal::events` — the bess-obs trace ring buffer. A leaf, taken
    /// per traced event under any of the locks above.
    ObsJournal = 68,
}

impl Rank {
    /// Every variant, in hierarchy order — used by tests and by the
    /// `lock_order.toml` consistency check.
    pub const ALL: &'static [Rank] = &[
        Rank::LockManagerHeld,
        Rank::LockManagerShard,
        Rank::LockManagerWaits,
        Rank::LockWaiter,
        Rank::LockCache,
        Rank::ViewMap,
        Rank::SharedPool,
        Rank::PrivatePool,
        Rank::TestPageIo,
        Rank::AreaSet,
        Rank::WalGroup,
        Rank::WalLog,
        Rank::AreaExtents,
        Rank::AreaQuarantine,
        Rank::IoQueue,
        Rank::IoMemDevice,
        Rank::FaultImages,
        Rank::FaultPlanSlot,
        Rank::FaultArmed,
        Rank::ServerScrub,
        Rank::ServerLeases,
        Rank::ServerDedup,
        Rank::NetPartition,
        Rank::NetPlanSlot,
        Rank::NetFaultArmed,
        Rank::ObsRegistry,
        Rank::ObsJournal,
    ];

    /// The numeric rank value (as written in `lock_order.toml`).
    pub fn value(self) -> u16 {
        self as u16
    }

    /// The variant name (as written in `lock_order.toml`).
    pub fn name(self) -> &'static str {
        match self {
            Rank::LockManagerHeld => "LockManagerHeld",
            Rank::LockManagerShard => "LockManagerShard",
            Rank::LockManagerWaits => "LockManagerWaits",
            Rank::LockWaiter => "LockWaiter",
            Rank::LockCache => "LockCache",
            Rank::ViewMap => "ViewMap",
            Rank::SharedPool => "SharedPool",
            Rank::PrivatePool => "PrivatePool",
            Rank::TestPageIo => "TestPageIo",
            Rank::AreaSet => "AreaSet",
            Rank::WalGroup => "WalGroup",
            Rank::WalLog => "WalLog",
            Rank::AreaExtents => "AreaExtents",
            Rank::AreaQuarantine => "AreaQuarantine",
            Rank::IoQueue => "IoQueue",
            Rank::IoMemDevice => "IoMemDevice",
            Rank::FaultImages => "FaultImages",
            Rank::FaultPlanSlot => "FaultPlanSlot",
            Rank::FaultArmed => "FaultArmed",
            Rank::ServerScrub => "ServerScrub",
            Rank::ServerLeases => "ServerLeases",
            Rank::ServerDedup => "ServerDedup",
            Rank::NetPartition => "NetPartition",
            Rank::NetPlanSlot => "NetPlanSlot",
            Rank::NetFaultArmed => "NetFaultArmed",
            Rank::ObsRegistry => "ObsRegistry",
            Rank::ObsJournal => "ObsJournal",
        }
    }
}

#[cfg(debug_assertions)]
mod validator {
    use super::Rank;
    use std::backtrace::Backtrace;
    use std::cell::RefCell;
    use std::sync::atomic::{AtomicU64, Ordering};

    // LINT: allow(raw-counter) — debug-validator token allocator, not a metric
    static NEXT_TOKEN: AtomicU64 = AtomicU64::new(1);

    struct Held {
        rank: Rank,
        label: &'static str,
        token: u64,
        // Captured lazily by the runtime: with `RUST_BACKTRACE` unset this
        // is a cheap "disabled" placeholder, so the validator stays almost
        // free in ordinary debug runs.
        acquired_at: Backtrace,
    }

    thread_local! {
        static HELD: RefCell<Vec<Held>> = const { RefCell::new(Vec::new()) };
    }

    /// Checks `rank` against every lock this thread already holds and
    /// records the acquisition. Runs *before* blocking on the lock so an
    /// inversion panics instead of deadlocking.
    pub(super) fn acquire(rank: Rank, label: &'static str) -> u64 {
        let token = NEXT_TOKEN.fetch_add(1, Ordering::Relaxed);
        HELD.with(|held| {
            let mut held = held.borrow_mut();
            if let Some(conflict) = held.iter().find(|h| h.rank >= rank) {
                let msg = format!(
                    "lock-order violation: acquiring \"{label}\" (rank {} {:?}) while \
                     holding \"{}\" (rank {} {:?})\n\
                     --- held lock acquired at ---\n{}\n\
                     --- offending acquisition at ---\n{}",
                    rank.value(),
                    rank,
                    conflict.label,
                    conflict.rank.value(),
                    conflict.rank,
                    conflict.acquired_at,
                    Backtrace::force_capture(),
                );
                drop(held);
                panic!("{msg}");
            }
            held.push(Held {
                rank,
                label,
                token,
                acquired_at: Backtrace::capture(),
            });
        });
        token
    }

    /// Removes the acquisition identified by `token`. Tokens (not a plain
    /// pop) let guards be dropped in any order.
    pub(super) fn release(token: u64) {
        HELD.with(|held| {
            let mut held = held.borrow_mut();
            if let Some(pos) = held.iter().rposition(|h| h.token == token) {
                held.remove(pos);
            }
        });
    }
}

/// RAII registration of one acquisition on the thread-local stack.
/// Zero-sized (and wholly inert) in release builds.
struct HeldToken {
    #[cfg(debug_assertions)]
    token: u64,
}

impl HeldToken {
    #[inline]
    fn acquire(_rank: Rank, _label: &'static str) -> Self {
        HeldToken {
            #[cfg(debug_assertions)]
            token: validator::acquire(_rank, _label),
        }
    }
}

impl Drop for HeldToken {
    #[inline]
    fn drop(&mut self) {
        #[cfg(debug_assertions)]
        validator::release(self.token);
    }
}

/// A [`parking_lot::Mutex`] that participates in the global lock hierarchy.
pub struct OrderedMutex<T> {
    rank: Rank,
    label: &'static str,
    inner: parking_lot::Mutex<T>,
}

impl<T> OrderedMutex<T> {
    /// Creates a mutex at `rank`; `label` names it in violation reports.
    pub const fn new(rank: Rank, label: &'static str, value: T) -> Self {
        OrderedMutex {
            rank,
            label,
            inner: parking_lot::Mutex::new(value),
        }
    }

    /// Acquires the mutex, first checking the hierarchy (debug builds).
    pub fn lock(&self) -> OrderedMutexGuard<'_, T> {
        let held = HeldToken::acquire(self.rank, self.label);
        OrderedMutexGuard {
            guard: self.inner.lock(),
            _held: held,
        }
    }

    /// Attempts to acquire without blocking. A `try_lock` cannot deadlock,
    /// but a successful one still *holds* the lock, so it registers on the
    /// stack and is checked like any acquisition.
    pub fn try_lock(&self) -> Option<OrderedMutexGuard<'_, T>> {
        let held = HeldToken::acquire(self.rank, self.label);
        self.inner
            .try_lock()
            .map(|guard| OrderedMutexGuard { guard, _held: held })
    }

    /// Mutable access without locking (requires `&mut self`).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut()
    }

    /// Consumes the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner()
    }

    /// This lock's rank.
    pub fn rank(&self) -> Rank {
        self.rank
    }
}

impl<T: fmt::Debug> fmt::Debug for OrderedMutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OrderedMutex")
            .field("rank", &self.rank)
            .field("label", &self.label)
            .finish_non_exhaustive()
    }
}

/// RAII guard for [`OrderedMutex`].
pub struct OrderedMutexGuard<'a, T> {
    guard: parking_lot::MutexGuard<'a, T>,
    _held: HeldToken,
}

impl<'a, T> OrderedMutexGuard<'a, T> {
    /// The underlying `parking_lot` guard, for [`parking_lot::Condvar`]
    /// waits. The hierarchy entry stays registered across the wait: the
    /// thread is blocked for the whole gap, so it cannot acquire anything
    /// out of order while the mutex is temporarily released.
    pub fn raw(&mut self) -> &mut parking_lot::MutexGuard<'a, T> {
        &mut self.guard
    }
}

impl<T> Deref for OrderedMutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T> DerefMut for OrderedMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

/// A [`parking_lot::RwLock`] that participates in the global lock
/// hierarchy. Read and write acquisitions are ranked identically — a
/// same-thread read-while-reading recursion is reported too, since under
/// a writer-priority implementation it can deadlock just the same.
pub struct OrderedRwLock<T> {
    rank: Rank,
    label: &'static str,
    inner: parking_lot::RwLock<T>,
}

impl<T> OrderedRwLock<T> {
    /// Creates a reader-writer lock at `rank`.
    pub const fn new(rank: Rank, label: &'static str, value: T) -> Self {
        OrderedRwLock {
            rank,
            label,
            inner: parking_lot::RwLock::new(value),
        }
    }

    /// Acquires shared read access, first checking the hierarchy.
    pub fn read(&self) -> OrderedRwLockReadGuard<'_, T> {
        let held = HeldToken::acquire(self.rank, self.label);
        OrderedRwLockReadGuard {
            guard: self.inner.read(),
            _held: held,
        }
    }

    /// Acquires exclusive write access, first checking the hierarchy.
    pub fn write(&self) -> OrderedRwLockWriteGuard<'_, T> {
        let held = HeldToken::acquire(self.rank, self.label);
        OrderedRwLockWriteGuard {
            guard: self.inner.write(),
            _held: held,
        }
    }

    /// Mutable access without locking (requires `&mut self`).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut()
    }

    /// Consumes the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner()
    }

    /// This lock's rank.
    pub fn rank(&self) -> Rank {
        self.rank
    }
}

impl<T: fmt::Debug> fmt::Debug for OrderedRwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OrderedRwLock")
            .field("rank", &self.rank)
            .field("label", &self.label)
            .finish_non_exhaustive()
    }
}

/// Shared-read RAII guard for [`OrderedRwLock`].
pub struct OrderedRwLockReadGuard<'a, T> {
    guard: parking_lot::RwLockReadGuard<'a, T>,
    _held: HeldToken,
}

impl<T> Deref for OrderedRwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

/// Exclusive-write RAII guard for [`OrderedRwLock`].
pub struct OrderedRwLockWriteGuard<'a, T> {
    guard: parking_lot::RwLockWriteGuard<'a, T>,
    _held: HeldToken,
}

impl<T> Deref for OrderedRwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T> DerefMut for OrderedRwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn ranks_are_strictly_increasing_and_names_match() {
        for pair in Rank::ALL.windows(2) {
            assert!(
                pair[0].value() < pair[1].value(),
                "{:?} must rank below {:?}",
                pair[0],
                pair[1]
            );
        }
        for &r in Rank::ALL {
            assert_eq!(format!("{r:?}"), r.name());
        }
    }

    #[test]
    fn correct_order_is_silent() {
        let a = OrderedMutex::new(Rank::SharedPool, "a", 0u32);
        let b = OrderedMutex::new(Rank::AreaSet, "b", 0u32);
        let c = OrderedRwLock::new(Rank::WalLog, "c", 0u32);
        let ga = a.lock();
        let gb = b.lock();
        let gc = c.read();
        drop((ga, gb, gc));
        // Re-acquire after full release: the stack must be empty again.
        let _ga = a.lock();
    }

    #[test]
    fn guards_may_drop_in_any_order() {
        let a = OrderedMutex::new(Rank::SharedPool, "a", ());
        let b = OrderedMutex::new(Rank::AreaSet, "b", ());
        let ga = a.lock();
        let gb = b.lock();
        drop(ga); // out-of-order release: tokens, not a strict pop
        let c = OrderedMutex::new(Rank::WalLog, "c", ());
        let _gc = c.lock();
        drop(gb);
        // After releasing everything the low rank is acquirable again.
        drop(_gc);
        let _ga = a.lock();
    }

    #[cfg(debug_assertions)]
    #[test]
    fn inversion_panics_with_both_ranks_named() {
        // Seeded A→B / B→A inversion: thread 1 takes SharedPool→AreaSet
        // (legal); this thread takes AreaSet→SharedPool and must die.
        let err = thread::Builder::new()
            .name("inversion".into())
            .spawn(|| {
                let a = OrderedMutex::new(Rank::SharedPool, "pool", ());
                let b = OrderedMutex::new(Rank::AreaSet, "areas", ());
                {
                    let _ga = a.lock();
                    let _gb = b.lock(); // legal: 20 then 30
                }
                let _gb = b.lock();
                let _ga = a.lock(); // illegal: 20 while holding 30
            })
            .expect("spawn")
            .join()
            .expect_err("inversion must panic");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(msg.contains("lock-order violation"), "{msg}");
        assert!(msg.contains("pool") && msg.contains("areas"), "{msg}");
        assert!(
            msg.contains("held lock acquired at") && msg.contains("offending acquisition at"),
            "{msg}"
        );
    }

    #[cfg(debug_assertions)]
    #[test]
    fn equal_rank_is_rejected() {
        let err = thread::spawn(|| {
            let a = OrderedMutex::new(Rank::LockManagerShard, "shard-a", ());
            let b = OrderedMutex::new(Rank::LockManagerShard, "shard-b", ());
            let _ga = a.lock();
            let _gb = b.lock(); // two shards at once: forbidden
        })
        .join()
        .expect_err("equal ranks must panic");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(msg.contains("lock-order violation"), "{msg}");
    }

    #[cfg(debug_assertions)]
    #[test]
    fn rwlock_participates_in_ordering() {
        let err = thread::spawn(|| {
            let rw = OrderedRwLock::new(Rank::AreaSet, "areas", ());
            let m = OrderedMutex::new(Rank::ViewMap, "mapped", ());
            let _g = rw.read();
            let _m = m.lock(); // 19 while holding 30
        })
        .join()
        .expect_err("rwlock inversion must panic");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(msg.contains("lock-order violation"), "{msg}");
    }

    #[test]
    fn condvar_interop_via_raw_guard() {
        use std::sync::Arc;
        use std::time::Duration;
        let pair = Arc::new((
            OrderedMutex::new(Rank::LockWaiter, "state", false),
            parking_lot::Condvar::new(),
        ));
        let p2 = Arc::clone(&pair);
        let t = thread::spawn(move || {
            let (m, cv) = &*p2;
            let mut g = m.lock();
            while !*g {
                cv.wait(g.raw());
            }
        });
        thread::sleep(Duration::from_millis(10));
        *pair.0.lock() = true;
        pair.1.notify_all();
        t.join().expect("waiter exits");
    }
}
