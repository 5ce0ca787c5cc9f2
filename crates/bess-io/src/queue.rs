//! The submission/completion queue.
//!
//! [`IoQueue::submit`] enqueues a batch of [`IoOp`]s and returns one
//! [`IoTicket`] per op; [`IoQueue::complete`] blocks until a ticket's op
//! has executed and returns its typed result; [`IoQueue::drain`] waits
//! for everything outstanding. Two executors share the same API:
//!
//! * **inline** (`workers == 0`): ops execute synchronously inside
//!   `submit`, on the caller's thread, in submission order. Fully
//!   deterministic — the device observes exactly the submission sequence,
//!   which is what the fault-injection matrices calibrate against.
//! * **thread pool** (`workers > 0`): workers dequeue up to
//!   [`IoRuntimeConfig::max_batch`] eligible ops at a time and execute
//!   them concurrently, subject to the per-file ordering contract (see
//!   the crate docs): write-class ops are a per-file FIFO that reads
//!   never cross; reads reorder freely with other reads.
//!
//! Tickets are move-only: completing one consumes it, so each completion
//! is delivered exactly once by construction.

use std::collections::{BTreeMap, HashSet, VecDeque};
use std::sync::Arc;

use bess_lock::order::{OrderedMutex, Rank};
use bess_obs::{Counter, Gauge, Group, LatencyHistogram};
use parking_lot::Condvar;

use crate::device::IoDevice;
use crate::retry;

/// Handle to a device registered with a queue (its submission-queue slot).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FileId(pub u32);

/// One device operation.
#[derive(Clone, Debug)]
pub enum IoOp {
    /// Read `len` bytes at `offset`. With `exact`, the buffer must fill
    /// completely (short reads accumulate, transient errors retry — the
    /// storage-area policy); without it, the op reports however many
    /// bytes the store held (the log-tail policy).
    Read {
        /// Target device.
        file: FileId,
        /// Byte offset.
        offset: u64,
        /// Bytes to read.
        len: usize,
        /// Whether a short result is an error (see above).
        exact: bool,
    },
    /// Write all of `data` at `offset`.
    Write {
        /// Target device.
        file: FileId,
        /// Byte offset.
        offset: u64,
        /// Bytes to write.
        data: Vec<u8>,
    },
    /// Force everything previously written to `file` to stable storage.
    Sync {
        /// Target device.
        file: FileId,
    },
    /// Grow `file` to at least `len` bytes.
    Grow {
        /// Target device.
        file: FileId,
        /// New minimum size.
        len: u64,
    },
    /// Chained write-then-sync under a single ticket (fail-fast): the
    /// group-commit force submits its whole round as one of these.
    WriteSync {
        /// Target device.
        file: FileId,
        /// Byte offset.
        offset: u64,
        /// Bytes to write.
        data: Vec<u8>,
    },
}

impl IoOp {
    /// The device this op targets.
    pub fn file(&self) -> FileId {
        match self {
            IoOp::Read { file, .. }
            | IoOp::Write { file, .. }
            | IoOp::Sync { file }
            | IoOp::Grow { file, .. }
            | IoOp::WriteSync { file, .. } => *file,
        }
    }

    /// Whether this is a read (reads may reorder with each other; all
    /// other classes are per-file FIFO).
    pub fn is_read(&self) -> bool {
        matches!(self, IoOp::Read { .. })
    }
}

/// The typed success payload of one completed op.
#[derive(Clone, Debug)]
pub enum IoOutput {
    /// A completed read: `data[..n]` is what the store held.
    Read {
        /// The read buffer (`len` bytes for exact reads).
        data: Vec<u8>,
        /// Bytes actually served.
        n: usize,
    },
    /// A completed write.
    Write,
    /// A completed sync.
    Sync,
    /// A completed grow.
    Grow,
    /// A completed chained write+sync.
    WriteSync,
}

/// Per-op result delivered at completion.
pub type IoResult = std::io::Result<IoOutput>;

/// Receipt for one submitted op. Move-only: redeeming it through
/// [`IoQueue::complete`] consumes it, making double completion
/// unrepresentable.
#[derive(Debug)]
pub struct IoTicket {
    id: u64,
}

impl IoTicket {
    /// The ticket's queue-unique id (diagnostics only).
    pub fn id(&self) -> u64 {
        self.id
    }
}

/// Executor tuning for an [`IoQueue`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IoRuntimeConfig {
    /// Worker threads. `0` selects the inline executor: ops run
    /// synchronously at submit, in submission order, on the caller's
    /// thread — the deterministic default every test matrix runs against.
    pub workers: usize,
    /// Most ops a worker dequeues (and a batch submission coalesces)
    /// at once.
    pub max_batch: usize,
}

impl Default for IoRuntimeConfig {
    fn default() -> Self {
        IoRuntimeConfig {
            workers: 0,
            max_batch: 16,
        }
    }
}

impl IoRuntimeConfig {
    /// The deterministic inline executor.
    pub fn inline() -> Self {
        IoRuntimeConfig::default()
    }

    /// A thread-pool executor with `workers` threads.
    pub fn pool(workers: usize) -> Self {
        IoRuntimeConfig {
            workers: workers.max(1),
            ..IoRuntimeConfig::default()
        }
    }

    /// Executor selection from the environment: `BESS_IO_EXEC=pool`
    /// (with optional `BESS_IO_WORKERS=n`, default 4) selects the
    /// thread-pool executor; anything else (including unset) selects
    /// inline. CI's crash-matrix job runs the whole suite under both.
    pub fn from_env() -> Self {
        match std::env::var("BESS_IO_EXEC").as_deref() {
            Ok("pool") => {
                let workers = std::env::var("BESS_IO_WORKERS")
                    .ok()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or(4);
                IoRuntimeConfig::pool(workers)
            }
            _ => IoRuntimeConfig::inline(),
        }
    }
}

/// A device slot: the device plus the counter transient read retries are
/// charged to (each adapter wires its own stats counter in here).
#[derive(Clone)]
struct Registered {
    dev: Arc<dyn IoDevice>,
    retries: Counter,
}

struct QueueState {
    devices: Vec<Registered>,
    /// Submitted, not yet picked up by a worker (pool executor only).
    pending: VecDeque<(u64, IoOp)>,
    /// Ops currently executing: `(ticket, file, is_read)`.
    running: Vec<(u64, FileId, bool)>,
    /// Executed, result not yet claimed. A `BTreeMap` so [`IoQueue::drain`]
    /// returns results in ticket (= submission) order.
    done: BTreeMap<u64, IoResult>,
    /// Tickets handed out and not yet redeemed or drained.
    live: HashSet<u64>,
    next_ticket: u64,
    shutdown: bool,
}

struct QueueInner {
    cfg: IoRuntimeConfig,
    state: OrderedMutex<QueueState>,
    /// Wakes workers when ops are submitted or ordering unblocks.
    work_cv: Condvar,
    /// Wakes completion waiters when a result is published.
    done_cv: Condvar,
    /// Outstanding ops (submitted, not yet executed): `io.queue.depth`.
    depth: Gauge,
    /// Ops per submission/dequeue batch: `io.batch.size`.
    batch_size: LatencyHistogram,
    /// Device-side execution time per op: `io.op.ns`.
    op_ns: LatencyHistogram,
}

impl QueueInner {
    fn registered(&self, file: FileId) -> std::io::Result<Registered> {
        self.state
            .lock()
            .devices
            .get(file.0 as usize)
            .cloned()
            .ok_or_else(|| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidInput,
                    format!("no device registered at slot {}", file.0),
                )
            })
    }

    /// Runs one op against its device (no queue locks held).
    fn execute(&self, op: &IoOp) -> IoResult {
        let reg = self.registered(op.file())?;
        let _timer = self.op_ns.start();
        match op {
            IoOp::Read {
                offset, len, exact, ..
            } => {
                let mut data = vec![0u8; *len];
                if *exact {
                    retry::read_exact_retrying(
                        |b, off| reg.dev.read_at(b, off),
                        &mut data,
                        *offset,
                        &reg.retries,
                    )?;
                    Ok(IoOutput::Read { n: *len, data })
                } else {
                    let n =
                        retry::read_accumulating(|b, off| reg.dev.read_at(b, off), &mut data, *offset)?;
                    Ok(IoOutput::Read { n, data })
                }
            }
            IoOp::Write { offset, data, .. } => {
                reg.dev.write_at(data, *offset)?;
                Ok(IoOutput::Write)
            }
            IoOp::Sync { .. } => {
                reg.dev.sync()?;
                Ok(IoOutput::Sync)
            }
            IoOp::Grow { len, .. } => {
                reg.dev.grow_to(*len)?;
                Ok(IoOutput::Grow)
            }
            IoOp::WriteSync { offset, data, .. } => {
                reg.dev.write_at(data, *offset)?;
                reg.dev.sync()?;
                Ok(IoOutput::WriteSync)
            }
        }
    }
}

/// Pool-executor dequeue: how many of the pending ops could start right
/// now under the per-file ordering contract.
fn eligible_count(state: &QueueState) -> usize {
    scan_eligible(state, usize::MAX, |_| {})
}

/// Walks `pending` in submission order, calling `take(index)` for each op
/// that may start (up to `limit`), and returns how many were eligible.
/// An op may start iff no earlier op (running or pending) on the same
/// file conflicts with it; only read/read pairs don't conflict.
fn scan_eligible(state: &QueueState, limit: usize, mut take: impl FnMut(usize)) -> usize {
    let mut seen_read: HashSet<FileId> = HashSet::new();
    let mut seen_write: HashSet<FileId> = HashSet::new();
    for (_, file, is_read) in &state.running {
        if *is_read {
            seen_read.insert(*file);
        } else {
            seen_write.insert(*file);
        }
    }
    let mut taken = 0;
    for (i, (_, op)) in state.pending.iter().enumerate() {
        let file = op.file();
        let ok = if op.is_read() {
            !seen_write.contains(&file)
        } else {
            !seen_write.contains(&file) && !seen_read.contains(&file)
        };
        if ok && taken < limit {
            take(i);
            taken += 1;
        }
        // Whether taken or merely passed over, this op now orders
        // everything behind it on the same file.
        if op.is_read() {
            seen_read.insert(file);
        } else {
            seen_write.insert(file);
        }
    }
    taken
}

fn worker_loop(inner: &QueueInner) {
    loop {
        // Select a batch under the state lock, then execute with no
        // locks held.
        let batch: Vec<(u64, IoOp)> = {
            let mut state = inner.state.lock();
            loop {
                if state.shutdown {
                    return;
                }
                let avail = eligible_count(&state);
                if avail > 0 {
                    // Fair share: a burst splits across the pool instead
                    // of one worker draining it serially — that split is
                    // where a batched submission's overlap comes from.
                    let share = avail.div_ceil(inner.cfg.workers.max(1));
                    let take = inner.cfg.max_batch.min(share.max(1));
                    let mut indices = Vec::new();
                    scan_eligible(&state, take, |i| indices.push(i));
                    let mut batch = Vec::with_capacity(indices.len());
                    // Back-to-front so earlier indices stay valid.
                    for &i in indices.iter().rev() {
                        // The index came from the scan just above, under
                        // the same guard, so remove cannot fail.
                        if let Some(entry) = state.pending.remove(i) {
                            batch.push(entry);
                        }
                    }
                    batch.reverse();
                    for (id, op) in &batch {
                        state.running.push((*id, op.file(), op.is_read()));
                    }
                    break batch;
                }
                // LINT: allow(blocking-under-lock) — condvar wait atomically releases the queue lock via raw().
                inner.work_cv.wait(state.raw());
            }
        };
        inner.batch_size.record(batch.len() as u64);
        for (id, op) in batch {
            let res = inner.execute(&op);
            {
                let mut state = inner.state.lock();
                state.running.retain(|(rid, _, _)| *rid != id);
                // Under the guard that publishes the result: whoever sees
                // the op done (`complete`, `drain`) sees it off the gauge.
                inner.depth.sub(1);
                state.done.insert(id, res);
            }
            inner.done_cv.notify_all();
            // A completed write-class op may unblock ops queued behind it.
            inner.work_cv.notify_all();
        }
    }
}

/// An io_uring-style submission/completion queue over registered
/// [`IoDevice`]s. See the module docs for the executor modes and the
/// ordering contract.
pub struct IoQueue {
    inner: Arc<QueueInner>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl IoQueue {
    /// Creates a queue with `cfg`, registering its metrics
    /// (`io.queue.depth`, `io.batch.size`, `io.op.ns`) in `group`.
    pub fn new(cfg: IoRuntimeConfig, group: &Group) -> Self {
        let inner = Arc::new(QueueInner {
            cfg,
            state: OrderedMutex::new(
                Rank::IoQueue,
                "io.queue.state",
                QueueState {
                    devices: Vec::new(),
                    pending: VecDeque::new(),
                    running: Vec::new(),
                    done: BTreeMap::new(),
                    live: HashSet::new(),
                    next_ticket: 0,
                    shutdown: false,
                },
            ),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            depth: group.gauge("io.queue.depth"),
            batch_size: group.histogram("io.batch.size"),
            op_ns: group.histogram("io.op.ns"),
        });
        let workers = (0..cfg.workers)
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("bess-io-w{i}"))
                    .spawn(move || worker_loop(&inner))
                    // Thread spawn only fails when the process is out of
                    // resources; nothing useful can continue from there.
                    // LINT: allow(panic) — unrecoverable resource exhaustion at startup
                    .expect("spawn io worker")
            })
            .collect();
        IoQueue { inner, workers }
    }

    /// A queue with unregistered metrics (tests, tools).
    pub fn unregistered(cfg: IoRuntimeConfig) -> Self {
        Self::new(cfg, &bess_obs::Registry::new().group("io"))
    }

    /// This queue's executor configuration.
    pub fn config(&self) -> IoRuntimeConfig {
        self.inner.cfg
    }

    /// Registers a device, returning its submission slot. Transient read
    /// retries against this device are charged to `retries` (adapters
    /// pass their own stats counter; pass [`Counter::unregistered`] to
    /// discard).
    pub fn register(&self, dev: Arc<dyn IoDevice>, retries: Counter) -> FileId {
        let mut state = self.inner.state.lock();
        state.devices.push(Registered { dev, retries });
        // Slot count is bounded by registrations (a handful per queue).
        // LINT: allow(cast) — device slots are far below u32::MAX.
        FileId(state.devices.len() as u32 - 1)
    }

    /// Direct access to a registered device. This is *not* a queue op —
    /// it exists for out-of-band introspection (store length, crash-image
    /// snapshots) that must not perturb fault-plan op counts.
    pub fn device(&self, file: FileId) -> Option<Arc<dyn IoDevice>> {
        self.inner
            .state
            .lock()
            .devices
            .get(file.0 as usize)
            .map(|r| Arc::clone(&r.dev))
    }

    /// The registered device's current length (out-of-band; see
    /// [`Self::device`]).
    pub fn device_len(&self, file: FileId) -> std::io::Result<u64> {
        self.inner.registered(file)?.dev.len()
    }

    /// Submits a batch of ops, returning one ticket per op in order.
    ///
    /// Inline executor: the ops execute before this returns (in
    /// submission order); `complete` then just collects results. Pool
    /// executor: ops are queued for the workers and execute subject to
    /// the per-file ordering contract.
    pub fn submit(&self, ops: &[IoOp]) -> Vec<IoTicket> {
        self.submit_owned(ops.to_vec())
    }

    /// [`Self::submit`] without the defensive copy (hot paths hand the
    /// op buffers over).
    pub fn submit_owned(&self, ops: Vec<IoOp>) -> Vec<IoTicket> {
        if ops.is_empty() {
            return Vec::new();
        }
        self.inner.depth.add(ops.len() as i64);
        self.inner.batch_size.record(ops.len() as u64);
        if self.inner.cfg.workers == 0 {
            // Inline: assign tickets, then execute in submission order on
            // this thread with no queue locks held.
            let first = {
                let mut state = self.inner.state.lock();
                let first = state.next_ticket;
                state.next_ticket += ops.len() as u64;
                for i in 0..ops.len() as u64 {
                    state.live.insert(first + i);
                }
                first
            };
            let results: Vec<IoResult> = ops.iter().map(|op| self.inner.execute(op)).collect();
            let mut state = self.inner.state.lock();
            for (i, res) in results.into_iter().enumerate() {
                state.done.insert(first + i as u64, res);
            }
            self.inner.depth.sub(ops.len() as i64);
            (0..ops.len() as u64).map(|i| IoTicket { id: first + i }).collect()
        } else {
            let tickets = {
                let mut state = self.inner.state.lock();
                let first = state.next_ticket;
                state.next_ticket += ops.len() as u64;
                for (i, op) in ops.into_iter().enumerate() {
                    let id = first + i as u64;
                    state.live.insert(id);
                    state.pending.push_back((id, op));
                }
                let last = state.next_ticket;
                (first..last).map(|id| IoTicket { id }).collect()
            };
            self.inner.work_cv.notify_all();
            tickets
        }
    }

    /// Submits a single op and waits for its result — the one-element
    /// batch the legacy blocking entry points shim through.
    pub fn run_one(&self, op: IoOp) -> IoResult {
        let mut tickets = self.submit_owned(vec![op]);
        // submit_owned returns exactly one ticket per op.
        // LINT: allow(panic) — one op in, one ticket out, by construction
        self.complete(tickets.pop().expect("one ticket per op"))
    }

    /// Blocks until `ticket`'s op has executed and returns its result.
    /// Consuming the ticket makes completion exactly-once; a ticket
    /// invalidated by [`Self::drain`] fails with `InvalidInput`.
    pub fn complete(&self, ticket: IoTicket) -> IoResult {
        let mut state = self.inner.state.lock();
        if !state.live.remove(&ticket.id) {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("ticket {} is not outstanding (drained?)", ticket.id),
            ));
        }
        loop {
            if let Some(res) = state.done.remove(&ticket.id) {
                return res;
            }
            if state.shutdown {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::BrokenPipe,
                    "io queue shut down with ops outstanding",
                ));
            }
            // LINT: allow(blocking-under-lock) — condvar wait atomically releases the queue lock via raw().
            self.inner.done_cv.wait(state.raw());
        }
    }

    /// Waits for every outstanding op and returns all unclaimed results
    /// in ticket (= submission) order, invalidating their tickets. After
    /// a fault-injection episode this is how a caller guarantees nothing
    /// is left in flight — no leaked tickets, an empty queue.
    pub fn drain(&self) -> Vec<IoResult> {
        let mut state = self.inner.state.lock();
        while !(state.pending.is_empty() && state.running.is_empty()) {
            if state.shutdown {
                break;
            }
            // LINT: allow(blocking-under-lock) — condvar wait atomically releases the queue lock via raw().
            self.inner.done_cv.wait(state.raw());
        }
        state.live.clear();
        let done = std::mem::take(&mut state.done);
        done.into_values().collect()
    }

    /// Ops submitted but not yet executed (the `io.queue.depth` gauge).
    pub fn depth(&self) -> i64 {
        self.inner.depth.get()
    }

    /// Whether any ticket is outstanding (unclaimed submit).
    pub fn has_outstanding(&self) -> bool {
        let state = self.inner.state.lock();
        !state.live.is_empty() || !state.pending.is_empty() || !state.running.is_empty()
    }
}

impl Drop for IoQueue {
    fn drop(&mut self) {
        {
            let mut state = self.inner.state.lock();
            state.shutdown = true;
        }
        self.inner.work_cv.notify_all();
        self.inner.done_cv.notify_all();
        for h in std::mem::take(&mut self.workers) {
            let _ = h.join();
        }
    }
}

impl std::fmt::Debug for IoQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IoQueue")
            .field("cfg", &self.inner.cfg)
            .field("depth", &self.depth())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::MemDevice;

    fn queue_with_mem(cfg: IoRuntimeConfig) -> (IoQueue, FileId) {
        let q = IoQueue::unregistered(cfg);
        let f = q.register(MemDevice::new(), Counter::unregistered());
        (q, f)
    }

    fn read_back(q: &IoQueue, f: FileId, offset: u64, len: usize) -> Vec<u8> {
        match q.run_one(IoOp::Read {
            file: f,
            offset,
            len,
            exact: true,
        }) {
            Ok(IoOutput::Read { data, n }) => {
                assert_eq!(n, len);
                data
            }
            other => panic!("expected read output, got {other:?}"),
        }
    }

    #[test]
    fn inline_round_trip() {
        let (q, f) = queue_with_mem(IoRuntimeConfig::inline());
        let tickets = q.submit(&[
            IoOp::Grow { file: f, len: 64 },
            IoOp::Write {
                file: f,
                offset: 8,
                data: b"payload".to_vec(),
            },
            IoOp::Sync { file: f },
        ]);
        assert_eq!(tickets.len(), 3);
        for t in tickets {
            q.complete(t).unwrap();
        }
        assert_eq!(read_back(&q, f, 8, 7), b"payload");
        assert_eq!(q.depth(), 0);
        assert!(!q.has_outstanding());
    }

    #[test]
    fn pool_round_trip_and_ordering() {
        let (q, f) = queue_with_mem(IoRuntimeConfig::pool(4));
        // A chain of dependent writes to one file: per-file FIFO makes the
        // last value win regardless of worker scheduling.
        let ops: Vec<IoOp> = (0u8..32)
            .map(|i| IoOp::Write {
                file: f,
                offset: 0,
                data: vec![i; 16],
            })
            .collect();
        let tickets = q.submit(&ops);
        for t in tickets {
            q.complete(t).unwrap();
        }
        assert_eq!(read_back(&q, f, 0, 16), vec![31u8; 16]);
    }

    #[test]
    fn write_sync_is_one_chained_ticket() {
        let (q, f) = queue_with_mem(IoRuntimeConfig::inline());
        let res = q
            .run_one(IoOp::WriteSync {
                file: f,
                offset: 0,
                data: b"chained".to_vec(),
            })
            .unwrap();
        assert!(matches!(res, IoOutput::WriteSync));
        assert_eq!(read_back(&q, f, 0, 7), b"chained");
    }

    #[test]
    fn unknown_file_fails_only_its_ticket() {
        let (q, f) = queue_with_mem(IoRuntimeConfig::inline());
        let tickets = q.submit(&[
            IoOp::Write {
                file: FileId(99),
                offset: 0,
                data: vec![1],
            },
            IoOp::Write {
                file: f,
                offset: 0,
                data: vec![2],
            },
        ]);
        let mut it = tickets.into_iter();
        // First op targets an unregistered slot and fails alone.
        // LINT: allow(panic) — two ops were submitted just above
        let bad = q.complete(it.next().expect("two tickets"));
        assert_eq!(bad.unwrap_err().kind(), std::io::ErrorKind::InvalidInput);
        // LINT: allow(panic) — two ops were submitted just above
        q.complete(it.next().expect("two tickets")).unwrap();
        assert_eq!(read_back(&q, f, 0, 1), vec![2]);
    }

    #[test]
    fn drain_returns_everything_in_ticket_order_and_invalidates() {
        let (q, f) = queue_with_mem(IoRuntimeConfig::pool(2));
        let tickets = q.submit(&[
            IoOp::Write {
                file: f,
                offset: 0,
                data: vec![7; 4],
            },
            IoOp::Read {
                file: f,
                offset: 0,
                len: 4,
                exact: true,
            },
        ]);
        let results = q.drain();
        assert_eq!(results.len(), 2);
        assert!(matches!(results[0], Ok(IoOutput::Write)));
        match &results[1] {
            Ok(IoOutput::Read { data, n }) => {
                assert_eq!(*n, 4);
                assert_eq!(data, &vec![7u8; 4]);
            }
            other => panic!("expected read, got {other:?}"),
        }
        assert!(!q.has_outstanding(), "drain leaves no leaked tickets");
        // The drained tickets are dead.
        for t in tickets {
            assert_eq!(
                q.complete(t).unwrap_err().kind(),
                std::io::ErrorKind::InvalidInput
            );
        }
    }

    #[test]
    fn inexact_read_reports_short_count() {
        let (q, f) = queue_with_mem(IoRuntimeConfig::inline());
        q.run_one(IoOp::Write {
            file: f,
            offset: 0,
            data: vec![9; 10],
        })
        .unwrap();
        match q
            .run_one(IoOp::Read {
                file: f,
                offset: 4,
                len: 64,
                exact: false,
            })
            .unwrap()
        {
            IoOutput::Read { n, data } => {
                assert_eq!(n, 6);
                assert_eq!(&data[..6], &[9u8; 6]);
            }
            other => panic!("expected read, got {other:?}"),
        }
        // The exact flavor treats the same short read as an error.
        let err = q
            .run_one(IoOp::Read {
                file: f,
                offset: 4,
                len: 64,
                exact: true,
            })
            .unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn from_env_defaults_to_inline() {
        // The test runner doesn't set BESS_IO_EXEC; guard the default.
        if std::env::var("BESS_IO_EXEC").is_err() {
            assert_eq!(IoRuntimeConfig::from_env().workers, 0);
        }
    }
}
