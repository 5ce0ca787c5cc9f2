//! The append-only log manager.
//!
//! LSNs are byte offsets. Records are framed `len | checksum | payload` so
//! recovery can detect a torn tail after a crash and stop there. The log
//! keeps an in-memory tail of records not yet forced; [`LogManager::flush`]
//! implements the WAL rule (force the log up to an LSN before the
//! corresponding page leaves the cache, and at commit).

use std::fs::OpenOptions;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bess_io::{FileDevice, IoDevice, IoOp, IoOutput, IoQueue, IoRuntimeConfig, MemDevice};
use bess_lock::order::{OrderedMutex, Rank};
use bess_obs::{Counter, Group, LatencyHistogram, Registry};
use bess_storage::fault::FaultDisk;
use parking_lot::{Condvar, Mutex};

use crate::enc::checksum;
use crate::lsn::Lsn;
use crate::record::{LogBody, LogRecord};

const LOG_MAGIC: u32 = 0x4245_534C; // "BESL"
const LOG_VERSION: u32 = 1;
/// Byte offset of the first record.
pub const LOG_START: Lsn = Lsn(32);

/// Errors raised by the log manager.
#[derive(Debug)]
pub enum WalError {
    /// Underlying I/O failed.
    Io(std::io::Error),
    /// A structure failed validation.
    Corrupt(String),
    /// An LSN addressed no record.
    BadLsn(Lsn),
    /// A redo/undo target refused to apply an image during recovery.
    RedoFailed(String),
    /// A fully-framed record in the *middle* of the log failed its
    /// checksum or decode. Unlike a torn tail (an incomplete frame where
    /// the crash interrupted the final append — expected, truncated
    /// silently), this is silent corruption of durable history and must
    /// surface rather than be treated as end-of-log.
    CorruptRecord(Lsn),
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "log I/O error: {e}"),
            WalError::Corrupt(m) => write!(f, "corrupt log: {m}"),
            WalError::BadLsn(l) => write!(f, "no record at {l}"),
            WalError::RedoFailed(m) => write!(f, "recovery apply failed: {m}"),
            WalError::CorruptRecord(l) => {
                write!(f, "corrupt log record at {l} (not a torn tail)")
            }
        }
    }
}

impl std::error::Error for WalError {}

impl From<std::io::Error> for WalError {
    fn from(e: std::io::Error) -> Self {
        WalError::Io(e)
    }
}

/// Result alias for log operations.
pub type WalResult<T> = Result<T, WalError>;

/// The log's seat on the async I/O runtime: an [`IoQueue`] with exactly
/// one registered device. The legacy blocking entry points shim through
/// one-element batches ([`IoQueue::run_one`]), preserving the exact device
/// op sequence the crash matrices are calibrated to; the group-commit
/// force submits its whole round as a single chained
/// [`IoOp::WriteSync`] — one ticket, write then sync, fail-fast.
struct LogBackend {
    queue: IoQueue,
    file: bess_io::FileId,
    /// In-memory device handle, kept so [`LogManager::simulate_crash`] can
    /// snapshot the volatile image out-of-band (not a queue op — no
    /// fault-plan count impact).
    mem: Option<Arc<MemDevice>>,
}

impl LogBackend {
    fn new(dev: Arc<dyn IoDevice>, mem: Option<Arc<MemDevice>>, group: &Group) -> Self {
        let queue = IoQueue::new(IoRuntimeConfig, group);
        let file = queue.register(dev, Counter::unregistered());
        LogBackend { queue, file, mem }
    }

    fn read_at(&self, buf: &mut [u8], offset: u64) -> WalResult<usize> {
        match self.queue.run_one(IoOp::Read {
            file: self.file,
            offset,
            len: buf.len(),
            exact: false,
        })? {
            IoOutput::Read { data, n } => {
                buf[..n].copy_from_slice(&data[..n]);
                Ok(n)
            }
            other => Err(WalError::Io(std::io::Error::other(format!(
                "io queue returned {other:?} for a read op"
            )))),
        }
    }

    fn write_at(&self, data: &[u8], offset: u64) -> WalResult<()> {
        self.queue.run_one(IoOp::Write {
            file: self.file,
            offset,
            data: data.to_vec(),
        })?;
        Ok(())
    }

    fn sync(&self) -> WalResult<()> {
        self.queue.run_one(IoOp::Sync { file: self.file })?;
        Ok(())
    }

    /// The group-commit force: the round's write and sync as one chained
    /// submission under a single ticket. The device still observes
    /// write-then-sync (fail-fast), so fault plans armed on either op
    /// class fire exactly as they did on the two-call path.
    fn write_sync(&self, data: Vec<u8>, offset: u64) -> WalResult<()> {
        self.queue.run_one(IoOp::WriteSync {
            file: self.file,
            offset,
            data,
        })?;
        Ok(())
    }
}

/// Little-endian `u32` from the first four bytes of `b`; shorter input is
/// zero-extended, so header parsing never panics on a truncated log.
fn le_u32(b: &[u8]) -> u32 {
    let mut raw = [0u8; 4];
    for (dst, src) in raw.iter_mut().zip(b) {
        *dst = *src;
    }
    u32::from_le_bytes(raw)
}

/// Little-endian `u64` from the first eight bytes of `b` (zero-extended).
fn le_u64(b: &[u8]) -> u64 {
    let mut raw = [0u8; 8];
    for (dst, src) in raw.iter_mut().zip(b) {
        *dst = *src;
    }
    u64::from_le_bytes(raw)
}

struct LogState {
    /// Framed bytes of records not yet forced: the *active* buffer of the
    /// double-buffered tail. Appends always land here.
    tail: Vec<u8>,
    /// The swapped-out buffer a group-commit leader is writing right now
    /// (`Some` exactly while a force is in flight). Its bytes start at
    /// `flushed_lsn`; keeping them here lets `read_record_at` serve
    /// in-flight records while the device works.
    flushing: Option<Arc<Vec<u8>>>,
    /// LSN the next record will receive.
    next_lsn: u64,
    /// Everything below this byte offset is durable.
    flushed_lsn: u64,
    /// LSN of the last checkpoint's `CheckpointBegin`, or null.
    master: Lsn,
}

/// Tuning for the group-commit log force (DESIGN.md §13).
///
/// Concurrent [`LogManager::flush`] calls form a *commit group*: one
/// leader performs a single `write` + `sync` for every member. `max_wait` optionally holds the leader back so late committers
/// can pile in; `max_group_bytes` releases it early once the batch is big
/// enough.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GroupCommitConfig {
    /// A gathering leader forces immediately once the active buffer holds
    /// this many bytes.
    pub max_group_bytes: usize,
    /// How long a leader may wait for more committers before forcing.
    /// Zero (the default) adds no commit latency: batching still emerges
    /// whenever a force is already in flight, because arrivals during the
    /// device sync share the next leader's write.
    pub max_wait: Duration,
}

impl Default for GroupCommitConfig {
    fn default() -> Self {
        GroupCommitConfig {
            max_group_bytes: 256 << 10,
            max_wait: Duration::ZERO,
        }
    }
}

/// Group-commit coordination, under its own lock (rank `WalGroup`, *below*
/// `WalLog`: the leader holds this while taking the state lock to swap
/// buffers).
struct GroupState {
    cfg: GroupCommitConfig,
    /// A leader is between claiming the round and waking its group.
    force_in_progress: bool,
    /// Exclusive end (LSN) of the in-flight group. `u64::MAX` while the
    /// leader is still gathering — everything appended before the swap
    /// will be covered, so any waiter arriving in that window may join.
    force_upto: u64,
    /// Completed forces, success or failure. A waiter snapshots this when
    /// it joins a group and matches it against `failed` after wakeup.
    generation: u64,
    /// Generation and message of the most recent failed force. A failed
    /// sync must fail **every** member of its group — durability is never
    /// acked on the strength of a force that did not finish.
    failed: Option<(u64, String)>,
    /// Flush calls riding the in-flight group, leader included.
    members: u64,
}

/// Labelled points inside a group force where crash tests may intervene
/// (see [`LogManager::set_force_hook`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ForcePoint {
    /// The leader swapped buffers and released every lock, but has not
    /// written or synced yet. A crash here loses the whole group.
    AfterSwap,
    /// The device sync finished, but `flushed_lsn` is not yet published
    /// and no waiter has been woken. A crash here leaves the group
    /// durable yet unacknowledged.
    AfterSync,
    /// A follower came out of its condvar wait (its group finished, or
    /// the gather notify woke it early) and has released every lock, but
    /// has not yet looked at the outcome.
    FollowerWoke,
}

/// A test hook called at [`ForcePoint`]s with no log locks held.
pub type ForceHook = Box<dyn Fn(ForcePoint) + Send + Sync>;

/// Counters kept by the log manager — [`bess_obs`] handles registered
/// under the `wal.` prefix of [`LogManager::metrics`].
#[derive(Debug)]
pub struct WalStats {
    /// Records appended (`wal.appends`).
    pub appends: Counter,
    /// Bytes appended, framed (`wal.append_bytes`).
    pub bytes_appended: Counter,
    /// Log forces (`wal.flushes`).
    pub flushes: Counter,
    /// Records read back for undo/recovery (`wal.reads`).
    pub reads: Counter,
    /// Commit groups led — one device sync each (`wal.group.leaders`).
    pub group_leaders: Counter,
    /// Flush calls that rode another thread's force instead of syncing
    /// themselves (`wal.group.followers`).
    pub group_followers: Counter,
    /// Pages restart redo handed to its target, one read-modify-write each
    /// (`wal.recovery.pages_restored`); `redone` records in the
    /// [`crate::RecoveryReport`] over this is the coalescing factor.
    pub recovery_pages_restored: Counter,
    /// Checkpoints completed, master record moved (`wal.checkpoints`).
    pub checkpoints: Counter,
}

impl WalStats {
    fn new(group: &Group) -> WalStats {
        WalStats {
            appends: group.counter("appends"),
            bytes_appended: group.counter("append_bytes"),
            flushes: group.counter("flushes"),
            reads: group.counter("reads"),
            group_leaders: group.counter("group.leaders"),
            group_followers: group.counter("group.followers"),
            recovery_pages_restored: group.counter("recovery.pages_restored"),
            checkpoints: group.counter("checkpoints"),
        }
    }
}

/// The write-ahead log.
pub struct LogManager {
    backend: LogBackend,
    state: OrderedMutex<LogState>,
    /// Group-commit coordination; rank `WalGroup` (below `WalLog`).
    gc: OrderedMutex<GroupState>,
    /// Wakes a group's followers when its force completes, and a gathering
    /// leader when the tail reaches `max_group_bytes`.
    group_cv: Condvar,
    /// True while a leader sits in its gather window. Mirrored out of
    /// `GroupState` so `append` — which holds the higher-ranked state
    /// lock — can decide to wake the leader without taking `gc`.
    gather_active: AtomicBool,
    /// Mirror of `GroupCommitConfig::max_group_bytes`, same reason.
    gather_bytes: AtomicUsize,
    /// Crash-test seam: called at labelled force points, no locks held.
    force_hook: Mutex<Option<Arc<ForceHook>>>,
    group: Group,
    stats: WalStats,
    append_ns: LatencyHistogram,
    flush_ns: LatencyHistogram,
    /// Flush calls served per device sync (`wal.group.size`).
    group_size: LatencyHistogram,
}

fn log_parts(
    dev: Arc<dyn IoDevice>,
    mem: Option<Arc<MemDevice>>,
    state: OrderedMutex<LogState>,
) -> LogManager {
    let group = Registry::new().group("wal");
    let backend = LogBackend::new(dev, mem, &group);
    let stats = WalStats::new(&group);
    let append_ns = group.histogram("append.ns");
    let flush_ns = group.histogram("flush.ns");
    let group_size = group.histogram("group.size");
    let cfg = GroupCommitConfig::default();
    LogManager {
        backend,
        state,
        gc: OrderedMutex::new(
            Rank::WalGroup,
            "wal.group",
            GroupState {
                cfg,
                force_in_progress: false,
                force_upto: 0,
                generation: 0,
                failed: None,
                members: 0,
            },
        ),
        group_cv: Condvar::new(),
        gather_active: AtomicBool::new(false),
        gather_bytes: AtomicUsize::new(cfg.max_group_bytes),
        force_hook: Mutex::new(None),
        group,
        stats,
        append_ns,
        flush_ns,
        group_size,
    }
}

fn log_state(next_lsn: u64, flushed_lsn: u64, master: Lsn) -> OrderedMutex<LogState> {
    OrderedMutex::new(
        Rank::WalLog,
        "wal.state",
        LogState {
            tail: Vec::new(),
            flushing: None,
            next_lsn,
            flushed_lsn,
            master,
        },
    )
}

impl LogManager {
    /// Creates an in-memory log (tests, benchmarks, volatile scratch).
    pub fn create_mem() -> Self {
        Self::create_mem_slow(Duration::ZERO)
    }

    /// An in-memory log whose `sync` sleeps for `sync_delay` — an fsync
    /// latency proxy for benchmarks (E21): group commit's value is sync
    /// amortization, which a zero-cost sync would hide entirely.
    pub fn create_mem_slow(sync_delay: Duration) -> Self {
        let mem = MemDevice::with_sync_delay(Vec::new(), sync_delay);
        let mgr = log_parts(
            Arc::clone(&mem) as Arc<dyn IoDevice>,
            Some(mem),
            log_state(LOG_START.0, LOG_START.0, Lsn::NULL),
        );
        // Writes to the memory device are infallible (a Vec resize), so
        // this cannot panic; file/faulty constructors return the error
        // instead.
        // LINT: allow(panic) — mem device writes are infallible
        mgr.write_header(Lsn::NULL).expect("mem header");
        mgr
    }

    /// Creates a new log file at `path`, failing if it exists.
    pub fn create_file(path: &Path) -> WalResult<Self> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create_new(true)
            .open(path)?;
        let mgr = log_parts(
            FileDevice::new(file),
            None,
            log_state(LOG_START.0, LOG_START.0, Lsn::NULL),
        );
        mgr.write_header(Lsn::NULL)?;
        Ok(mgr)
    }

    /// Creates a new log on a fault-injecting disk (crash testing).
    pub fn create_faulty(disk: Arc<FaultDisk>) -> WalResult<Self> {
        let mgr = log_parts(disk, None, log_state(LOG_START.0, LOG_START.0, Lsn::NULL));
        mgr.write_header(Lsn::NULL)?;
        Ok(mgr)
    }

    /// Opens an existing log, scanning forward to find the valid end (a
    /// torn tail from a crash is truncated here).
    pub fn open_file(path: &Path) -> WalResult<Self> {
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        Self::open_device(FileDevice::new(file), None)
    }

    /// Opens an existing log living on a fault-injecting disk (typically
    /// after [`FaultDisk::reopen`] following a simulated crash). The same
    /// torn-tail scan as [`Self::open_file`] applies.
    pub fn open_faulty(disk: Arc<FaultDisk>) -> WalResult<Self> {
        Self::open_device(disk, None)
    }

    fn open_device(dev: Arc<dyn IoDevice>, mem: Option<Arc<MemDevice>>) -> WalResult<Self> {
        // Bootstrap: read the header through a throwaway queue (one device
        // read op, exactly as before the redesign); the manager's own
        // queue takes over once its metric group exists.
        let bootstrap = IoQueue::unregistered();
        let boot_file = bootstrap.register(Arc::clone(&dev), Counter::unregistered());
        let mut head = [0u8; 32];
        let n = match bootstrap.run_one(IoOp::Read {
            file: boot_file,
            offset: 0,
            len: head.len(),
            exact: false,
        })? {
            IoOutput::Read { data, n } => {
                head[..n].copy_from_slice(&data[..n]);
                n
            }
            _ => 0,
        };
        drop(bootstrap);
        if n < 16 {
            return Err(WalError::Corrupt("log shorter than header".into()));
        }
        let magic = le_u32(&head[0..4]);
        if magic != LOG_MAGIC {
            return Err(WalError::Corrupt("bad log magic".into()));
        }
        let version = le_u32(&head[4..8]);
        if version != LOG_VERSION {
            return Err(WalError::Corrupt(format!("unsupported log version {version}")));
        }
        let master = Lsn(le_u64(&head[8..16]));
        // Until the valid end is known, let reads range over every byte
        // present in the backend.
        let backend_len = dev.len()?.max(LOG_START.0);
        let mgr = log_parts(dev, mem, log_state(backend_len, backend_len, master));
        // Scan to the valid end.
        let mut lsn = LOG_START;
        while let Some(rec) = mgr.read_record_at(lsn)? {
            lsn = Lsn(lsn.0 + rec.framed_len());
        }
        {
            let mut state = mgr.state.lock();
            state.next_lsn = lsn.0;
            state.flushed_lsn = lsn.0;
        }
        Ok(mgr)
    }

    /// Simulates a crash: returns a fresh manager seeing only the bytes
    /// that were flushed. Memory-backed logs only (file-backed logs are
    /// crash-tested by reopening the file).
    pub fn simulate_crash(&self) -> WalResult<Self> {
        let Some(mem) = &self.backend.mem else {
            return Err(WalError::Corrupt(
                "simulate_crash only supported on memory logs".into(),
            ));
        };
        let flushed = self.state.lock().flushed_lsn;
        let mut snapshot = mem.image();
        snapshot.truncate(flushed as usize);
        let dev = MemDevice::with_contents(snapshot);
        Self::open_device(Arc::clone(&dev) as Arc<dyn IoDevice>, Some(dev))
    }

    fn write_header(&self, master: Lsn) -> WalResult<()> {
        let mut head = [0u8; 32];
        head[0..4].copy_from_slice(&LOG_MAGIC.to_le_bytes());
        head[4..8].copy_from_slice(&LOG_VERSION.to_le_bytes());
        head[8..16].copy_from_slice(&master.0.to_le_bytes());
        self.backend.write_at(&head, 0)
    }

    /// Activity counters.
    pub fn stats(&self) -> &WalStats {
        &self.stats
    }

    /// The log's metric group (`wal.*`), including `wal.append.ns` (sampled
    /// 1-in-16), `wal.flush.ns`, and `wal.group.size` histograms.
    pub fn metrics(&self) -> &Group {
        &self.group
    }

    /// Replaces the group-commit tuning. Normally set once at startup
    /// (servers and sessions plumb it from their own config structs);
    /// switching modes is safe at any time, but takes effect per `flush`
    /// call.
    pub fn set_group_commit(&self, cfg: GroupCommitConfig) {
        self.gather_bytes.store(cfg.max_group_bytes, Ordering::Relaxed);
        self.gc.lock().cfg = cfg;
    }

    /// The current group-commit tuning.
    pub fn group_commit(&self) -> GroupCommitConfig {
        self.gc.lock().cfg
    }

    /// Installs (or clears) a hook called at labelled points of a group
    /// force, with no log locks held. Crash tests use it to kill the
    /// backing disk at exact protocol steps (between swap and sync, or
    /// after sync but before waiters wake).
    pub fn set_force_hook(&self, hook: Option<ForceHook>) {
        *self.force_hook.lock() = hook.map(Arc::new);
    }

    fn at_force_point(&self, p: ForcePoint) {
        // Cloned out so the hook runs without the slot locked: a hook
        // parked at one point must not block another thread's point.
        let hook = self.force_hook.lock().clone();
        if let Some(h) = hook {
            (*h)(p);
        }
    }

    /// Appends a record, returning its LSN. The record is *not* durable
    /// until [`Self::flush`] covers it.
    pub fn append(&self, txn: u64, prev_lsn: Lsn, body: LogBody) -> Lsn {
        // Sampled 1-in-16: two clock reads would dominate the append itself.
        let prev = self.stats.appends.inc();
        let _timer = self.append_ns.start_if(prev & 15 == 0);
        let mut state = self.state.lock();
        let lsn = Lsn(state.next_lsn);
        let rec = LogRecord {
            lsn,
            txn,
            prev_lsn,
            body,
        };
        let framed = rec.frame();
        state.next_lsn += framed.len() as u64;
        state.tail.extend_from_slice(&framed);
        let tail_len = state.tail.len();
        drop(state);
        self.stats.bytes_appended.add(framed.len() as u64);
        // A leader waiting out its gather window is woken early once the
        // batch is big enough. (Atomics, not `gc`: append holds the
        // higher-ranked state lock just above, and this is the hot path.)
        if self.gather_active.load(Ordering::Relaxed)
            && tail_len >= self.gather_bytes.load(Ordering::Relaxed)
        {
            self.group_cv.notify_all();
        }
        lsn
    }

    /// Forces the log so every record with `lsn <= upto` is durable.
    ///
    /// Concurrent callers form a *commit group*: the first becomes the
    /// leader, swaps the tail buffer out of the append path, and performs
    /// one `write` + `sync` on behalf of everyone; the rest wait on a
    /// condvar and share the outcome. An I/O error fails every member of
    /// the group — durability is never acknowledged spuriously.
    pub fn flush(&self, upto: Lsn) -> WalResult<()> {
        self.force(Some(upto.0))
    }

    /// Forces everything appended so far.
    pub fn flush_all(&self) -> WalResult<()> {
        self.force(None)
    }

    /// The force protocol. `upto = None` means "everything appended so
    /// far" (`flush_all`), resolved under the same state acquisition as
    /// the first watermark check.
    fn force(&self, upto: Option<u64>) -> WalResult<()> {
        // Resolve the target and take the fast exit in one state
        // acquisition.
        let want = {
            let state = self.state.lock();
            let want = upto.unwrap_or(state.next_lsn);
            if want < state.flushed_lsn
                || (state.tail.is_empty() && state.flushing.is_none())
            {
                return Ok(());
            }
            want
        };
        // Generation of the in-flight group this call joined, if any.
        let mut joined: Option<u64> = None;
        let mut counted_follower = false;
        loop {
            let mut g = self.gc.lock();
            // A failed force fails every member of its group. Checked on
            // every pass, not only right after the wait: a follower woken
            // early (the gather notify shares the condvar) may get back
            // here only after its leader published the failure and cleared
            // `force_in_progress` — it must not lead the next round and
            // report the re-forced tail as its own success.
            if let (Some(mine), Some((gen, msg))) = (joined, g.failed.as_ref()) {
                if mine == *gen {
                    return Err(WalError::Io(std::io::Error::other(format!(
                        "group force failed: {msg}"
                    ))));
                }
            }
            // Re-check the watermark under `gc`, so the check and the
            // join-or-lead decision are one atomic step.
            {
                let state = self.state.lock();
                if want < state.flushed_lsn
                    || (state.tail.is_empty() && state.flushing.is_none())
                {
                    return Ok(());
                }
            }
            if g.force_in_progress {
                // Follower. Ride the in-flight group if it covers this
                // call's bytes (it always does when the leader is still
                // gathering); otherwise just wait for the next round.
                let in_group = want < g.force_upto;
                if in_group && joined != Some(g.generation) {
                    joined = Some(g.generation);
                    g.members += 1;
                    if !counted_follower {
                        self.stats.group_followers.inc();
                        counted_follower = true;
                    }
                }
                // LINT: allow(blocking-under-lock) — condvar wait atomically releases `gc` via raw().
                self.group_cv.wait(g.raw());
                drop(g);
                self.at_force_point(ForcePoint::FollowerWoke);
                continue;
            }

            // Leader. Claim the round; waiters arriving from here on
            // join this group (force_upto = MAX: everything appended
            // before the swap below will be covered).
            g.force_in_progress = true;
            g.force_upto = u64::MAX;
            g.members = 1;
            let my_gen = g.generation;
            let cfg = g.cfg;
            self.stats.group_leaders.inc();

            // Optional gather window: wait for more committers, leave
            // early once the batch reaches max_group_bytes. The condvar
            // wait releases `gc`, so joiners get in.
            if !cfg.max_wait.is_zero() {
                let deadline = Instant::now() + cfg.max_wait;
                self.gather_active.store(true, Ordering::Relaxed);
                loop {
                    if self.state.lock().tail.len() >= cfg.max_group_bytes {
                        break;
                    }
                    // LINT: allow(blocking-under-lock) — condvar wait atomically releases `gc` via raw().
                    if self.group_cv.wait_until(g.raw(), deadline).timed_out() {
                        break;
                    }
                }
                self.gather_active.store(false, Ordering::Relaxed);
            }

            // Swap: the group's bytes leave the append path but stay
            // readable through `LogState::flushing` until durable.
            let (offset, target, buf) = {
                let mut state = self.state.lock();
                let offset = state.flushed_lsn;
                let target = state.next_lsn;
                let buf = Arc::new(std::mem::take(&mut state.tail));
                state.flushing = Some(Arc::clone(&buf));
                (offset, target, buf)
            };
            g.force_upto = target;
            drop(g);

            self.at_force_point(ForcePoint::AfterSwap);

            // The whole group as ONE chained write+sync submission, no
            // locks held: appends and new flush arrivals proceed while
            // the device works, and the queue delivers a single
            // completion for the round.
            let timer = self.flush_ns.start();
            let res = self.backend.write_sync((*buf).clone(), offset);
            drop(timer);
            if res.is_ok() {
                self.at_force_point(ForcePoint::AfterSync);
            }

            // Publish the outcome and wake the group.
            let mut g = self.gc.lock();
            {
                let mut state = self.state.lock();
                state.flushing = None;
                match &res {
                    Ok(()) => {
                        state.flushed_lsn = target;
                        self.stats.flushes.inc();
                        self.group_size.record(g.members);
                    }
                    Err(e) => {
                        // Failed force: splice the group's bytes back in
                        // front of the tail. The in-memory log is exactly
                        // as if the force never started — no hole, and a
                        // later force (or recovery from the durable
                        // prefix) stays consistent.
                        let mut restored = match Arc::try_unwrap(buf) {
                            Ok(v) => v,
                            Err(shared) => (*shared).clone(),
                        };
                        restored.extend_from_slice(&state.tail);
                        state.tail = restored;
                        g.failed = Some((my_gen, e.to_string()));
                    }
                }
            }
            g.generation += 1;
            g.force_in_progress = false;
            g.members = 0;
            drop(g);
            self.group_cv.notify_all();
            return res;
        }
    }

    /// The LSN below which all records are durable.
    pub fn flushed_lsn(&self) -> Lsn {
        Lsn(self.state.lock().flushed_lsn)
    }

    /// The LSN the next appended record will receive.
    pub fn next_lsn(&self) -> Lsn {
        Lsn(self.state.lock().next_lsn)
    }

    /// The last recorded checkpoint (its `CheckpointBegin` LSN), or null.
    pub fn master(&self) -> Lsn {
        self.state.lock().master
    }

    /// Durably records `lsn` as the checkpoint to start recovery from.
    pub fn set_master(&self, lsn: Lsn) -> WalResult<()> {
        self.write_header(lsn)?;
        self.backend.sync()?;
        self.state.lock().master = lsn;
        Ok(())
    }

    /// Reads the record at `lsn`, whether flushed or still in the tail.
    ///
    /// Returns `Ok(None)` at (or past) the end of the log and where a
    /// *torn tail* begins — an incomplete frame (short header, implausible
    /// length, short payload), the expected shape of a crash mid-append.
    /// A frame that reads back **complete** but fails its checksum, fails
    /// to decode, or carries the wrong LSN is silent corruption of durable
    /// history: the frame is re-read once (curing a transient transfer
    /// flip), then [`WalError::CorruptRecord`] surfaces.
    pub fn read_record_at(&self, lsn: Lsn) -> WalResult<Option<LogRecord>> {
        self.stats.reads.inc();
        match self.read_record_attempt(lsn)? {
            Attempt::End => Ok(None),
            Attempt::Record(rec) => Ok(Some(rec)),
            Attempt::Corrupt => match self.read_record_attempt(lsn)? {
                Attempt::Record(rec) => Ok(Some(rec)), // transient flip
                _ => Err(WalError::CorruptRecord(lsn)),
            },
        }
    }

    fn read_record_attempt(&self, lsn: Lsn) -> WalResult<Attempt> {
        let next = self.state.lock().next_lsn;
        if lsn.0 >= next {
            return Ok(Attempt::End);
        }
        let read_bytes = |offset: u64, buf: &mut [u8]| -> WalResult<usize> {
            {
                let state = self.state.lock();
                if offset >= state.flushed_lsn {
                    // In memory: the in-flight group (if a force is
                    // running) followed by the active tail, addressed as
                    // one virtual byte string starting at `flushed_lsn`.
                    let mut skip = (offset - state.flushed_lsn) as usize;
                    let flushing: &[u8] = match &state.flushing {
                        Some(b) => b,
                        None => &[],
                    };
                    let mut done = 0;
                    for chunk in [flushing, state.tail.as_slice()] {
                        if done == buf.len() {
                            break;
                        }
                        if skip >= chunk.len() {
                            skip -= chunk.len();
                            continue;
                        }
                        let n = (chunk.len() - skip).min(buf.len() - done);
                        buf[done..done + n].copy_from_slice(&chunk[skip..skip + n]);
                        done += n;
                        skip = 0;
                    }
                    return Ok(done);
                }
            }
            self.backend.read_at(buf, offset)
        };
        let mut head = [0u8; 12];
        if read_bytes(lsn.0, &mut head)? < 12 {
            return Ok(Attempt::End); // torn: frame header incomplete
        }
        let len = le_u32(&head[0..4]) as usize;
        let sum = le_u64(&head[4..12]);
        if len == 0 || len > 1 << 24 {
            return Ok(Attempt::End); // torn: no plausible frame here
        }
        let mut payload = vec![0u8; len];
        if read_bytes(lsn.0 + 12, &mut payload)? < len {
            return Ok(Attempt::End); // torn: payload cut off by the crash
        }
        // From here the frame is complete: any failure is corruption of
        // bytes that were durably written, not an interrupted append.
        if checksum(&payload) != sum {
            return Ok(Attempt::Corrupt);
        }
        match LogRecord::decode(&payload) {
            Ok(rec) if rec.lsn == lsn => Ok(Attempt::Record(rec)),
            _ => Ok(Attempt::Corrupt),
        }
    }

    /// Iterates records starting at `from` until the end of the log.
    pub fn iter_from(&self, from: Lsn) -> LogIter<'_> {
        LogIter {
            log: self,
            next: from,
            error: None,
        }
    }

    /// Iterates all records from the beginning.
    pub fn iter(&self) -> LogIter<'_> {
        self.iter_from(LOG_START)
    }
}

/// One parse attempt at a frame: the log ends (or tears) here, a valid
/// record, or a complete-but-invalid frame (silent corruption).
enum Attempt {
    End,
    Record(LogRecord),
    Corrupt,
}

/// Iterator over log records. Stops at the end of the log, at a torn
/// tail, or at the first corrupt mid-log record — callers that must
/// distinguish the last case check [`LogIter::finish`] after draining.
pub struct LogIter<'a> {
    log: &'a LogManager,
    next: Lsn,
    error: Option<WalError>,
}

impl LogIter<'_> {
    /// `Err` if iteration stopped on a corrupt mid-log record (rather
    /// than the end of the log or a torn tail). Recovery's analysis and
    /// redo passes call this after each scan so silent log corruption is
    /// never mistaken for a clean end-of-log.
    pub fn finish(&mut self) -> WalResult<()> {
        match self.error.take() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

impl Iterator for LogIter<'_> {
    type Item = LogRecord;

    fn next(&mut self) -> Option<LogRecord> {
        if self.error.is_some() {
            return None;
        }
        match self.log.read_record_at(self.next) {
            Ok(Some(rec)) => {
                self.next = Lsn(self.next.0 + rec.framed_len());
                Some(rec)
            }
            Ok(None) => None,
            Err(e) => {
                self.error = Some(e);
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::LogPageId;
    use std::sync::atomic::{AtomicU32, Ordering};

    fn temp_path(name: &str) -> std::path::PathBuf {
        static COUNTER: AtomicU32 = AtomicU32::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("bess-wal-{}-{}-{}", std::process::id(), name, n))
    }

    fn upd(page: u64, before: u8, after: u8) -> LogBody {
        LogBody::Update {
            page: LogPageId { area: 0, page },
            offset: 0,
            before: vec![before],
            after: vec![after],
        }
    }

    #[test]
    fn append_and_iterate() {
        let log = LogManager::create_mem();
        let l1 = log.append(1, Lsn::NULL, LogBody::Begin);
        let l2 = log.append(1, l1, upd(5, 0, 1));
        let l3 = log.append(1, l2, LogBody::Commit);
        assert!(l1 < l2 && l2 < l3);
        let records: Vec<_> = log.iter().collect();
        assert_eq!(records.len(), 3);
        assert_eq!(records[0].body, LogBody::Begin);
        assert_eq!(records[2].body, LogBody::Commit);
        assert_eq!(records[1].prev_lsn, l1);
    }

    #[test]
    fn read_reaches_unflushed_tail() {
        let log = LogManager::create_mem();
        let l1 = log.append(1, Lsn::NULL, LogBody::Begin);
        assert_eq!(log.read_record_at(l1).unwrap().unwrap().body, LogBody::Begin);
    }

    #[test]
    fn crash_loses_unflushed_records() {
        let log = LogManager::create_mem();
        let l1 = log.append(1, Lsn::NULL, LogBody::Begin);
        log.flush(l1).unwrap();
        log.append(1, l1, LogBody::Commit); // not flushed
        let recovered = log.simulate_crash().unwrap();
        let records: Vec<_> = recovered.iter().collect();
        assert_eq!(records.len(), 1, "commit was lost as expected");
    }

    #[test]
    fn flush_is_cumulative() {
        let log = LogManager::create_mem();
        let mut prev = Lsn::NULL;
        for i in 0..10 {
            prev = log.append(1, prev, upd(i, 0, 1));
        }
        log.flush(prev).unwrap();
        assert_eq!(log.flushed_lsn(), log.next_lsn());
        let recovered = log.simulate_crash().unwrap();
        assert_eq!(recovered.iter().count(), 10);
    }

    #[test]
    fn file_log_survives_reopen() {
        let path = temp_path("reopen");
        let (l1, l2);
        {
            let log = LogManager::create_file(&path).unwrap();
            l1 = log.append(1, Lsn::NULL, LogBody::Begin);
            l2 = log.append(1, l1, LogBody::Commit);
            log.flush(l2).unwrap();
            log.set_master(l1).unwrap();
        }
        {
            let log = LogManager::open_file(&path).unwrap();
            assert_eq!(log.master(), l1);
            assert_eq!(log.iter().count(), 2);
            // New appends continue after the old end.
            let l3 = log.append(2, Lsn::NULL, LogBody::Begin);
            assert!(l3 > l2);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_is_truncated_on_open() {
        let path = temp_path("torn");
        {
            let log = LogManager::create_file(&path).unwrap();
            let l1 = log.append(1, Lsn::NULL, LogBody::Begin);
            log.flush(l1).unwrap();
        }
        // Corrupt: append garbage that looks like a record start.
        {
            use std::io::Write;
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&[0xFF; 20]).unwrap();
        }
        {
            let log = LogManager::open_file(&path).unwrap();
            assert_eq!(log.iter().count(), 1, "garbage tail ignored");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mid_log_corruption_is_a_typed_error_not_a_torn_tail() {
        use bess_storage::fault::FaultPlan;
        let disk = FaultDisk::new(FaultPlan::unarmed());
        let log = LogManager::create_faulty(Arc::clone(&disk)).unwrap();
        let l1 = log.append(1, Lsn::NULL, LogBody::Begin);
        let l2 = log.append(1, l1, upd(5, 0, 1));
        let l3 = log.append(1, l2, LogBody::Commit);
        log.flush(l3).unwrap();

        // Durably flip one payload byte of the *middle* record: a complete
        // frame that fails its checksum, i.e. silent corruption — not a
        // crash-torn tail.
        let mut b = [0u8; 1];
        disk.read_at(&mut b, l2.0 + 12).unwrap();
        disk.write_at(&[b[0] ^ 0x01], l2.0 + 12).unwrap();

        match log.read_record_at(l2) {
            Err(WalError::CorruptRecord(l)) => assert_eq!(l, l2),
            other => panic!("expected CorruptRecord, got {other:?}"),
        }
        // Iteration stops at the bad record and finish() reports why.
        let mut it = log.iter();
        assert_eq!(it.by_ref().count(), 1, "only the record before the rot");
        assert!(matches!(it.finish(), Err(WalError::CorruptRecord(l)) if l == l2));
        // Recovery refuses to mistake the corruption for end-of-log.
        let mut target = crate::recovery::MemTarget::default();
        assert!(matches!(
            crate::recovery::recover(&log, &mut target),
            Err(WalError::CorruptRecord(_))
        ));
    }

    #[test]
    fn transient_read_flip_is_cured_by_reread() {
        use bess_storage::fault::{FaultKind, FaultPlan, OpClass};
        let disk = FaultDisk::new(FaultPlan::unarmed());
        let log = LogManager::create_faulty(Arc::clone(&disk)).unwrap();
        let l1 = log.append(1, Lsn::NULL, LogBody::Begin);
        let l2 = log.append(1, l1, LogBody::Commit);
        log.flush(l2).unwrap();

        // Arm a one-shot bit flip on the next read — the 12-byte frame
        // head: the first attempt sees a bad checksum, the retry reads
        // clean bytes.
        disk.arm(FaultPlan::armed(
            OpClass::Read,
            0,
            FaultKind::BitRot {
                offset: l1.0 + 4,
                mask: 0x20,
            },
        ));
        let rec = log.read_record_at(l1).unwrap().unwrap();
        assert_eq!(rec.body, LogBody::Begin);
    }

    #[test]
    fn clean_log_iteration_finishes_ok() {
        let log = LogManager::create_mem();
        let l1 = log.append(1, Lsn::NULL, LogBody::Begin);
        log.append(1, l1, LogBody::Commit);
        let mut it = log.iter();
        assert_eq!(it.by_ref().count(), 2);
        assert!(it.finish().is_ok(), "end-of-log is not an error");
    }

    #[test]
    fn master_checkpoint_pointer_round_trips() {
        let log = LogManager::create_mem();
        assert!(log.master().is_null());
        let l1 = log.append(0, Lsn::NULL, LogBody::CheckpointBegin);
        log.set_master(l1).unwrap();
        assert_eq!(log.master(), l1);
    }

    #[test]
    fn iter_from_midpoint() {
        let log = LogManager::create_mem();
        let l1 = log.append(1, Lsn::NULL, LogBody::Begin);
        let l2 = log.append(1, l1, upd(1, 0, 1));
        let _l3 = log.append(1, l2, LogBody::Commit);
        let from_l2: Vec<_> = log.iter_from(l2).collect();
        assert_eq!(from_l2.len(), 2);
        assert_eq!(from_l2[0].lsn, l2);
    }
}
