//! Property tests for the submission/completion queue's one executor:
//!
//! * on a fast device, each file observes exactly its submission order —
//!   reads included, since a fast queue never fans a run of reads out;
//! * every submitted op's result is delivered exactly once — through its
//!   ticket or through `drain()`, never both, never zero;
//! * a failed op fails only its own ticket — everything else in the batch
//!   completes normally;
//! * `drain()` after fault injection leaves the queue empty: no leaked
//!   tickets, no outstanding ops, and drained tickets are dead;
//! * on a slow device a run of reads is in flight at once, and a write
//!   submitted behind the run starts only after the whole run is done.

use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use bess_io::{IoDevice, IoOp, IoOutput, IoQueue, MemDevice, SlowDevice};
use bess_obs::Counter;
use proptest::prelude::*;

/// Offsets are page-aligned small integers so generated ops collide often.
const PAGE: u64 = 64;

/// One observed device call, for order assertions.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Observed {
    Read(u64),
    Write(u64),
    Sync,
    Grow(u64),
}

/// A device that records the order ops arrive in and fails any write whose
/// payload starts with the poison byte — the fault-injection stand-in.
struct RecordingDevice {
    inner: Arc<MemDevice>,
    log: Mutex<Vec<Observed>>,
}

const POISON: u8 = 0xFF;

impl RecordingDevice {
    fn new() -> Arc<Self> {
        Arc::new(RecordingDevice {
            inner: MemDevice::new(),
            log: Mutex::new(Vec::new()),
        })
    }

    fn observed(&self) -> Vec<Observed> {
        self.log.lock().unwrap().clone()
    }
}

impl IoDevice for RecordingDevice {
    fn read_at(&self, buf: &mut [u8], offset: u64) -> std::io::Result<usize> {
        self.log.lock().unwrap().push(Observed::Read(offset));
        self.inner.read_at(buf, offset)
    }

    fn write_at(&self, data: &[u8], offset: u64) -> std::io::Result<()> {
        self.log.lock().unwrap().push(Observed::Write(offset));
        if data.first() == Some(&POISON) {
            return Err(std::io::Error::other("injected write fault"));
        }
        self.inner.write_at(data, offset)
    }

    fn grow_to(&self, bytes: u64) -> std::io::Result<()> {
        self.log.lock().unwrap().push(Observed::Grow(bytes));
        self.inner.grow_to(bytes)
    }

    fn sync(&self) -> std::io::Result<()> {
        self.log.lock().unwrap().push(Observed::Sync);
        self.inner.sync()
    }

    fn len(&self) -> std::io::Result<u64> {
        self.inner.len()
    }
}

/// A generated op spec: which of the two files, what kind, whether poisoned.
#[derive(Clone, Debug)]
enum Spec {
    Read { file: usize, page: u64 },
    Write { file: usize, page: u64, poison: bool },
    Sync { file: usize },
    Grow { file: usize, pages: u64 },
    WriteSync { file: usize, page: u64, poison: bool },
}

impl Spec {
    fn file(&self) -> usize {
        match self {
            Spec::Read { file, .. }
            | Spec::Write { file, .. }
            | Spec::Sync { file }
            | Spec::Grow { file, .. }
            | Spec::WriteSync { file, .. } => *file,
        }
    }

    fn poisoned(&self) -> bool {
        matches!(
            self,
            Spec::Write { poison: true, .. } | Spec::WriteSync { poison: true, .. }
        )
    }

    /// The device calls this op makes, in order. Every store length is a
    /// whole number of pages, so a page read is one `read_at`; a poisoned
    /// `WriteSync` fails fast and never issues its sync.
    fn device_calls(&self) -> Vec<Observed> {
        match *self {
            Spec::Read { page, .. } => vec![Observed::Read(page * PAGE)],
            Spec::Write { page, .. } => vec![Observed::Write(page * PAGE)],
            Spec::Sync { .. } => vec![Observed::Sync],
            Spec::Grow { pages, .. } => vec![Observed::Grow(pages * PAGE)],
            Spec::WriteSync { page, poison: true, .. } => vec![Observed::Write(page * PAGE)],
            Spec::WriteSync { page, poison: false, .. } => {
                vec![Observed::Write(page * PAGE), Observed::Sync]
            }
        }
    }

    fn to_op(&self, files: &[bess_io::FileId]) -> IoOp {
        let payload = |page: u64, poison: bool| {
            let mut d = vec![(page % 251) as u8 + 1; PAGE as usize];
            if poison {
                d[0] = POISON;
            }
            d
        };
        match *self {
            Spec::Read { file, page } => IoOp::Read {
                file: files[file],
                offset: page * PAGE,
                len: PAGE as usize,
                exact: false,
            },
            Spec::Write { file, page, poison } => IoOp::Write {
                file: files[file],
                offset: page * PAGE,
                data: payload(page, poison),
            },
            Spec::Sync { file } => IoOp::Sync { file: files[file] },
            Spec::Grow { file, pages } => IoOp::Grow {
                file: files[file],
                len: pages * PAGE,
            },
            Spec::WriteSync { file, page, poison } => IoOp::WriteSync {
                file: files[file],
                offset: page * PAGE,
                data: payload(page, poison),
            },
        }
    }
}

fn spec_strategy() -> impl Strategy<Value = Spec> {
    prop_oneof![
        (0usize..2, 0u64..8).prop_map(|(file, page)| Spec::Read { file, page }),
        (0usize..2, 0u64..8, any::<bool>()).prop_map(|(file, page, p)| Spec::Write {
            file,
            page,
            poison: p,
        }),
        (0usize..2).prop_map(|file| Spec::Sync { file }),
        (0usize..2, 1u64..16).prop_map(|(file, pages)| Spec::Grow { file, pages }),
        (0usize..2, 0u64..8, any::<bool>()).prop_map(|(file, page, p)| Spec::WriteSync {
            file,
            page,
            poison: p,
        }),
    ]
}

/// Builds a queue over two recording devices and submits `specs` split
/// into `splits + 1` batches.
fn run(
    specs: &[Spec],
    splits: &[usize],
) -> (IoQueue, Vec<Arc<RecordingDevice>>, Vec<bess_io::IoTicket>) {
    let q = IoQueue::unregistered();
    let devs: Vec<Arc<RecordingDevice>> = (0..2).map(|_| RecordingDevice::new()).collect();
    let files: Vec<bess_io::FileId> = devs
        .iter()
        .map(|d| q.register(Arc::clone(d) as Arc<dyn IoDevice>, Counter::unregistered()))
        .collect();
    let ops: Vec<IoOp> = specs.iter().map(|s| s.to_op(&files)).collect();
    let mut tickets = Vec::with_capacity(ops.len());
    let mut rest = ops;
    // Split points carve the op list into several submit() calls so batch
    // boundaries vary.
    let mut cuts: Vec<usize> = splits.iter().map(|&s| s % (rest.len() + 1)).collect();
    cuts.sort_unstable();
    let mut taken = 0;
    for cut in cuts {
        let k = cut.saturating_sub(taken).min(rest.len());
        let batch: Vec<IoOp> = rest.drain(..k).collect();
        taken += k;
        tickets.extend(q.submit_owned(batch));
    }
    tickets.extend(q.submit_owned(rest));
    (q, devs, tickets)
}

/// On a fast device the device sees each file's ops exactly in submission
/// order: every class, reads included.
fn assert_order(file: usize, specs: &[Spec], observed: &[Observed]) {
    let submitted: Vec<Observed> = specs
        .iter()
        .filter(|s| s.file() == file)
        .flat_map(Spec::device_calls)
        .collect();
    assert_eq!(
        observed,
        &submitted[..],
        "file {file}: the device must see exactly the submission order"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Exactly-once delivery, failure isolation and submission order:
    /// every ticket redeems to exactly one result, a poisoned op fails
    /// alone, afterwards the queue holds nothing, and each file saw its
    /// ops in the order they were submitted.
    #[test]
    fn completions_are_exactly_once_and_faults_isolated(
        specs in prop::collection::vec(spec_strategy(), 1..24),
        splits in prop::collection::vec(0usize..24, 0..3),
    ) {
        let (q, devs, tickets) = run(&specs, &splits);
        prop_assert_eq!(tickets.len(), specs.len());
        for (spec, ticket) in specs.iter().zip(tickets) {
            let res = q.complete(ticket);
            if spec.poisoned() {
                prop_assert!(res.is_err(), "poisoned op must fail: {spec:?}");
            } else {
                prop_assert!(res.is_ok(), "clean op must succeed: {spec:?} -> {res:?}");
            }
        }
        prop_assert!(!q.has_outstanding(), "all tickets redeemed, queue empty");
        prop_assert_eq!(q.depth(), 0);
        for (file, dev) in devs.iter().enumerate() {
            assert_order(file, &specs, &dev.observed());
        }
    }

    /// `drain()` after fault injection: every unclaimed result comes back
    /// in ticket order, nothing is leaked, and drained tickets are dead.
    #[test]
    fn drain_after_faults_leaves_no_leaked_tickets(
        specs in prop::collection::vec(spec_strategy(), 1..24),
        claim in 0usize..24,
    ) {
        let (q, _devs, tickets) = run(&specs, &[]);
        let claim = claim.min(tickets.len());
        let mut it = tickets.into_iter();
        // Redeem a prefix through tickets, leave the rest for drain().
        for (spec, ticket) in specs.iter().take(claim).zip(it.by_ref()) {
            let res = q.complete(ticket);
            prop_assert_eq!(res.is_err(), spec.poisoned());
        }
        let drained = q.drain();
        prop_assert_eq!(drained.len(), specs.len() - claim,
            "drain returns exactly the unclaimed results");
        // Drained results come back in submission order: they line up
        // with the unclaimed specs one-to-one.
        for (spec, res) in specs.iter().skip(claim).zip(&drained) {
            prop_assert_eq!(res.is_err(), spec.poisoned(),
                "drained result must match its op: {:?} -> {:?}", spec, res);
        }
        prop_assert!(!q.has_outstanding(), "no leaked tickets after drain");
        prop_assert_eq!(q.depth(), 0);
        // Tickets invalidated by the drain are dead, not dangling.
        for ticket in it {
            let err = q.complete(ticket).unwrap_err();
            prop_assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        }
    }

    /// Read results reflect the per-file write order: after a chain of
    /// writes to one page, the image is the last-submitted write.
    #[test]
    fn last_write_wins_per_file(values in prop::collection::vec(1u8..251, 1..12)) {
        let q = IoQueue::unregistered();
        let dev = MemDevice::new();
        let f = q.register(dev, Counter::unregistered());
        let ops: Vec<IoOp> = values
            .iter()
            .map(|&v| IoOp::Write { file: f, offset: 0, data: vec![v; 16] })
            .collect();
        for t in q.submit_owned(ops) {
            q.complete(t).unwrap();
        }
        match q.run_one(IoOp::Read { file: f, offset: 0, len: 16, exact: true }).unwrap() {
            IoOutput::Read { data, .. } => {
                prop_assert_eq!(data, vec![*values.last().unwrap(); 16]);
            }
            other => prop_assert!(false, "expected read output, got {:?}", other),
        }
    }
}

/// In-flight bookkeeping of [`InFlightDevice`].
#[derive(Default)]
struct Flight {
    in_flight: usize,
    most_in_flight: usize,
    reads_done: usize,
    /// `(reads in flight, reads done)` when each write started.
    at_write: Vec<(usize, usize)>,
    /// While set, a read waits for a second read to join it, so a run
    /// that fans out is seen with two in flight on any schedule.
    rendezvous: bool,
}

/// A recorder over a slow device that counts the reads in flight.
struct InFlightDevice {
    inner: Arc<dyn IoDevice>,
    flight: Mutex<Flight>,
    joined: Condvar,
}

/// How long a read waits for a second one before going on alone — only
/// reached when the run did not fan out, which the test then reports.
const RENDEZVOUS_GIVE_UP: Duration = Duration::from_secs(10);

impl IoDevice for InFlightDevice {
    fn read_at(&self, buf: &mut [u8], offset: u64) -> std::io::Result<usize> {
        {
            let mut f = self.flight.lock().unwrap();
            f.in_flight += 1;
            f.most_in_flight = f.most_in_flight.max(f.in_flight);
            if f.most_in_flight >= 2 {
                f.rendezvous = false;
                self.joined.notify_all();
            }
            let (_f, _) = self
                .joined
                .wait_timeout_while(f, RENDEZVOUS_GIVE_UP, |f| f.rendezvous)
                .unwrap();
        }
        let res = self.inner.read_at(buf, offset);
        let mut f = self.flight.lock().unwrap();
        f.in_flight -= 1;
        f.reads_done += 1;
        res
    }

    fn write_at(&self, data: &[u8], offset: u64) -> std::io::Result<()> {
        {
            let mut f = self.flight.lock().unwrap();
            let at = (f.in_flight, f.reads_done);
            f.at_write.push(at);
        }
        self.inner.write_at(data, offset)
    }

    fn grow_to(&self, bytes: u64) -> std::io::Result<()> {
        self.inner.grow_to(bytes)
    }

    fn sync(&self) -> std::io::Result<()> {
        self.inner.sync()
    }

    fn len(&self) -> std::io::Result<u64> {
        self.inner.len()
    }
}

/// On a device whose reads take 2 ms, the queue learns from two warm-up
/// reads that a run of reads is worth overlapping: a run of eight then has
/// more than one read in flight (the recorder holds the run's first read
/// until a second joins it, so no schedule can hide the overlap), and the
/// write submitted behind it starts with every read of the run done and
/// none in flight.
#[test]
fn slow_reads_fan_out_and_a_write_waits_for_the_run() {
    let slow = SlowDevice::new(
        MemDevice::with_contents(vec![5u8; 8 * PAGE as usize]),
        Duration::from_millis(2),
        Duration::ZERO,
        Duration::ZERO,
    );
    let dev = Arc::new(InFlightDevice {
        inner: slow,
        flight: Mutex::new(Flight::default()),
        joined: Condvar::new(),
    });
    let q = IoQueue::unregistered();
    let f = q.register(Arc::clone(&dev) as Arc<dyn IoDevice>, Counter::unregistered());
    let read = |page: u64| IoOp::Read {
        file: f,
        offset: page * PAGE,
        len: PAGE as usize,
        exact: true,
    };

    // One stalled read of a fast device must not be mistaken for a slow
    // device, so one warm-up read is not enough and two are.
    for page in 0..2 {
        q.run_one(read(page)).unwrap();
    }
    assert_eq!(dev.flight.lock().unwrap().most_in_flight, 1, "warm-up reads run alone");
    dev.flight.lock().unwrap().rendezvous = true;

    let mut ops: Vec<IoOp> = (0..8).map(read).collect();
    ops.push(IoOp::Write {
        file: f,
        offset: 0,
        data: vec![9u8; PAGE as usize],
    });
    let tickets = q.submit_owned(ops);
    let results: Vec<_> = tickets.into_iter().map(|t| q.complete(t)).collect();
    for (page, res) in results[..8].iter().enumerate() {
        match res {
            Ok(IoOutput::Read { data, n }) => {
                assert_eq!(*n, PAGE as usize, "page {page}");
                assert_eq!(data, &vec![5u8; PAGE as usize], "page {page} read before the write");
            }
            other => panic!("page {page}: expected a read, got {other:?}"),
        }
    }
    assert!(matches!(results[8], Ok(IoOutput::Write)), "{:?}", results[8]);

    let flight = dev.flight.lock().unwrap();
    assert!(
        flight.most_in_flight >= 2,
        "a run of 8 slow reads must overlap, most in flight {}",
        flight.most_in_flight
    );
    assert!(flight.most_in_flight <= 8, "width is 8, saw {}", flight.most_in_flight);
    assert_eq!(
        flight.at_write,
        vec![(0, 2 + 8)],
        "the write starts after the whole run (and the warm-up) is done"
    );
    assert!(!q.has_outstanding());
    assert_eq!(q.depth(), 0);
}
