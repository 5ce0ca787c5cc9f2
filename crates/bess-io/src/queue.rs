//! The submission/completion queue.
//!
//! [`IoQueue::submit`] executes a batch of [`IoOp`]s and returns one
//! [`IoTicket`] per op; [`IoQueue::complete`] redeems a ticket for its
//! op's typed result; [`IoQueue::drain`] hands back every unclaimed
//! result. There is one executor: a submission runs on its caller's
//! thread, in submission order, and every op has executed by the time
//! `submit` returns, so neither `complete` nor `drain` ever waits.
//!
//! The one exception is a run of two or more consecutive reads on a
//! queue whose device reads are measured slow (`FAN_OUT_MIN_READ_NS`):
//! the caller does one read of the run and scoped helper threads do the
//! rest, at most `FAN_OUT_WIDTH` in flight, and the run has finished
//! before the op behind it starts. Write-class ops never overlap anything.
//!
//! Tickets are move-only: completing one consumes it, so each completion
//! is delivered exactly once by construction.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use bess_lock::order::{OrderedMutex, Rank};
use bess_obs::{Counter, Gauge, Group, LatencyHistogram};

use crate::device::IoDevice;
use crate::retry;

/// A run of reads fans out only while the queue's running mean device
/// read time is at least this. Spawning scoped threads costs ~20–30 µs for
/// one helper and ~150 µs for seven (p50 over 2 000 spawns, 2-core host),
/// so below it the helpers cost more than the waits they overlap: an
/// in-memory device never fans out, a device that sleeps 100 µs per read
/// does.
const FAN_OUT_MIN_READ_NS: u64 = 50_000;

/// Most reads of one run in flight at once: the caller and seven helpers.
const FAN_OUT_WIDTH: usize = 8;

/// The most one read adds to the running mean: a sample counts at most
/// this, at weight 1/8, so one stalled read (a preemption) of an
/// in-memory device lifts the mean by under 40 µs and never to
/// [`FAN_OUT_MIN_READ_NS`], while two reads of a device that sleeps this
/// long lift it to 70 µs.
const READ_SAMPLE_MAX_NS: u64 = 300_000;

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

    /// Whether this is a read (reads may overlap each other; all other
    /// classes run alone, in submission order).
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

/// What [`IoQueue::new`] takes. It has no settings — there is one
/// executor — and stays, with [`Self::from_env`], only for the benchmark
/// package's probe queue, until that package's next refresh.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IoRuntimeConfig;

impl IoRuntimeConfig {
    /// The one executor; reads no environment.
    pub fn from_env() -> Self {
        IoRuntimeConfig
    }
}

/// A device slot: the device plus the counter transient read retries are
/// charged to (each adapter wires its own stats counter in here).
#[derive(Clone)]
struct Registered {
    dev: Arc<dyn IoDevice>,
    retries: Counter,
}

impl Registered {
    /// Executes `op` against this slot's device.
    fn perform(&self, op: &IoOp) -> IoResult {
        match op {
            IoOp::Read {
                offset, len, exact, ..
            } => {
                let mut data = vec![0u8; *len];
                if *exact {
                    retry::read_exact_retrying(
                        |b, off| self.dev.read_at(b, off),
                        &mut data,
                        *offset,
                        &self.retries,
                    )?;
                    Ok(IoOutput::Read { n: *len, data })
                } else {
                    let n =
                        retry::read_accumulating(|b, off| self.dev.read_at(b, off), &mut data, *offset)?;
                    Ok(IoOutput::Read { n, data })
                }
            }
            IoOp::Write { offset, data, .. } => {
                self.dev.write_at(data, *offset)?;
                Ok(IoOutput::Write)
            }
            IoOp::Sync { .. } => {
                self.dev.sync()?;
                Ok(IoOutput::Sync)
            }
            IoOp::Grow { len, .. } => {
                self.dev.grow_to(*len)?;
                Ok(IoOutput::Grow)
            }
            IoOp::WriteSync { offset, data, .. } => {
                self.dev.write_at(data, *offset)?;
                self.dev.sync()?;
                Ok(IoOutput::WriteSync)
            }
        }
    }
}

struct QueueState {
    devices: Vec<Registered>,
    /// Executed, result not yet claimed: exactly the live tickets. A
    /// `BTreeMap` so [`IoQueue::drain`] returns results in ticket (=
    /// submission) order.
    done: BTreeMap<u64, IoResult>,
    next_ticket: u64,
}

/// An io_uring-style submission/completion queue over registered
/// [`IoDevice`]s. See the module docs for the executor and the crate
/// docs for the ordering contract.
pub struct IoQueue {
    state: OrderedMutex<QueueState>,
    /// Ops submitted and not yet executed: `io.queue.depth`.
    depth: Gauge,
    /// Ops per submission: `io.batch.size`.
    batch_size: LatencyHistogram,
    /// Device-side execution time per op: `io.op.ns`.
    op_ns: LatencyHistogram,
    /// Running mean time of one read op, in ns: exponentially weighted,
    /// 1/8 per read, starting at 0, so a device whose delays switch on (or
    /// off) is seen within a few reads.
    // LINT: allow(raw-counter) — the executor's read-time estimate, not a metric
    read_ns: AtomicU64,
}

impl IoQueue {
    /// Creates a queue, registering its metrics (`io.queue.depth`,
    /// `io.batch.size`, `io.op.ns`) in `group`.
    pub fn new(_cfg: IoRuntimeConfig, group: &Group) -> Self {
        IoQueue {
            state: OrderedMutex::new(
                Rank::IoQueue,
                "io.queue.state",
                QueueState {
                    devices: Vec::new(),
                    done: BTreeMap::new(),
                    next_ticket: 0,
                },
            ),
            depth: group.gauge("io.queue.depth"),
            batch_size: group.histogram("io.batch.size"),
            op_ns: group.histogram("io.op.ns"),
            read_ns: AtomicU64::new(0),
        }
    }

    /// A queue with unregistered metrics (tests, tools).
    pub fn unregistered() -> Self {
        Self::new(IoRuntimeConfig, &bess_obs::Registry::new().group("io"))
    }

    /// Registers a device, returning its submission slot. Transient read
    /// retries against this device are charged to `retries` (adapters
    /// pass their own stats counter; pass [`Counter::unregistered`] to
    /// discard).
    pub fn register(&self, dev: Arc<dyn IoDevice>, retries: Counter) -> FileId {
        let mut state = self.state.lock();
        state.devices.push(Registered { dev, retries });
        // Slot count is bounded by registrations (a handful per queue).
        // LINT: allow(cast) — device slots are far below u32::MAX.
        FileId(state.devices.len() as u32 - 1)
    }

    /// Direct access to a registered device. This is *not* a queue op —
    /// it exists for out-of-band introspection (store length, crash-image
    /// snapshots) that must not perturb fault-plan op counts.
    pub fn device(&self, file: FileId) -> Option<Arc<dyn IoDevice>> {
        self.state
            .lock()
            .devices
            .get(file.0 as usize)
            .map(|r| Arc::clone(&r.dev))
    }

    /// The registered device's current length (out-of-band; see
    /// [`Self::device`]).
    pub fn device_len(&self, file: FileId) -> std::io::Result<u64> {
        self.registered(file)?.dev.len()
    }

    /// Executes a batch of ops and returns one ticket per op, in order.
    /// Every op has executed when this returns.
    pub fn submit(&self, ops: &[IoOp]) -> Vec<IoTicket> {
        self.submit_owned(ops.to_vec())
    }

    /// [`Self::submit`] without the defensive copy (hot paths hand the
    /// op buffers over). Ops run on this thread in submission order, but
    /// for a run of reads on a slow queue, which `fan_out` overlaps.
    pub fn submit_owned(&self, ops: Vec<IoOp>) -> Vec<IoTicket> {
        if ops.is_empty() {
            return Vec::new();
        }
        let n = ops.len();
        self.depth.add(n as i64);
        self.batch_size.record(n as u64);
        let mut results = Vec::with_capacity(n);
        let mut rest = &ops[..];
        while !rest.is_empty() {
            let reads = rest.iter().take_while(|op| op.is_read()).count();
            let (run, tail) = rest.split_at(reads.clamp(1, FAN_OUT_WIDTH));
            if run.len() >= 2 && self.read_ns.load(Ordering::Relaxed) >= FAN_OUT_MIN_READ_NS {
                results.extend(self.fan_out(run));
            } else {
                results.extend(run.iter().map(|op| self.execute(op)));
            }
            rest = tail;
        }
        let mut state = self.state.lock();
        let first = state.next_ticket;
        state.next_ticket += n as u64;
        for (id, res) in (first..).zip(results) {
            state.done.insert(id, res);
        }
        // Under the guard that publishes the results: whoever sees an op
        // done (`complete`, `drain`) sees it off the gauge.
        self.depth.sub(n as i64);
        (first..state.next_ticket).map(|id| IoTicket { id }).collect()
    }

    /// Submits a single op and returns its result — the one-element
    /// batch the blocking entry points shim through.
    pub fn run_one(&self, op: IoOp) -> IoResult {
        let mut tickets = self.submit_owned(vec![op]);
        // submit_owned returns exactly one ticket per op.
        // LINT: allow(panic) — one op in, one ticket out, by construction
        self.complete(tickets.pop().expect("one ticket per op"))
    }

    /// Redeems `ticket` for its op's result; never waits. Consuming the
    /// ticket makes completion exactly-once; a ticket invalidated by
    /// [`Self::drain`] fails with `InvalidInput`.
    pub fn complete(&self, ticket: IoTicket) -> IoResult {
        let res = self.state.lock().done.remove(&ticket.id);
        res.unwrap_or_else(|| {
            Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("ticket {} is not outstanding (drained?)", ticket.id),
            ))
        })
    }

    /// Returns every unclaimed result in ticket (= submission) order,
    /// invalidating their tickets. After a fault-injection episode this
    /// is how a caller guarantees nothing is left behind — no leaked
    /// tickets, an empty queue.
    pub fn drain(&self) -> Vec<IoResult> {
        let done = std::mem::take(&mut self.state.lock().done);
        done.into_values().collect()
    }

    /// Ops submitted but not yet executed (the `io.queue.depth` gauge).
    pub fn depth(&self) -> i64 {
        self.depth.get()
    }

    /// Whether any ticket is outstanding (unclaimed submit).
    pub fn has_outstanding(&self) -> bool {
        !self.state.lock().done.is_empty()
    }

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

    /// Executes a run of reads at once: this thread does the first, one
    /// scoped helper each does the others. Results come back in run order, and
    /// the run has finished when this returns.
    fn fan_out(&self, run: &[IoOp]) -> Vec<IoResult> {
        std::thread::scope(|s| {
            let helpers: Vec<_> = run[1..]
                .iter()
                .map(|op| s.spawn(move || self.execute(op)))
                .collect();
            let mut results = vec![self.execute(&run[0])];
            for helper in helpers {
                results.push(helper.join().unwrap_or_else(|p| std::panic::resume_unwind(p)));
            }
            results
        })
    }

    /// Runs one op against its device (no queue locks held), timing it
    /// into `io.op.ns` and, for a read, into the running mean read time.
    fn execute(&self, op: &IoOp) -> IoResult {
        let reg = self.registered(op.file())?;
        let started = Instant::now();
        let res = reg.perform(op);
        let ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        if self.op_ns.timing() {
            self.op_ns.record(ns);
        }
        if op.is_read() {
            // Load-then-store: two racing reads may drop one sample, which
            // an estimate can afford.
            let mean = self.read_ns.load(Ordering::Relaxed);
            let sample = ns.min(READ_SAMPLE_MAX_NS);
            self.read_ns.store(mean - mean / 8 + sample / 8, Ordering::Relaxed);
        }
        res
    }
}

impl std::fmt::Debug for IoQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IoQueue")
            .field("depth", &self.depth())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::MemDevice;

    fn queue_with_mem() -> (IoQueue, FileId) {
        let q = IoQueue::unregistered();
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
        let (q, f) = queue_with_mem();
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
    fn write_sync_is_one_chained_ticket() {
        let (q, f) = queue_with_mem();
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
        let (q, f) = queue_with_mem();
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
    fn inexact_read_reports_short_count() {
        let (q, f) = queue_with_mem();
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
}
