//! Property tests for the submission/completion queue, run against both
//! executors:
//!
//! * every submitted op's result is delivered exactly once — through its
//!   ticket or through `drain()`, never both, never zero;
//! * per-file write-class ops reach the device in submission order, and
//!   reads never cross a write-class op, under any worker count;
//! * a failed op fails only its own ticket — everything else in the batch
//!   completes normally;
//! * `drain()` after fault injection leaves the queue empty: no leaked
//!   tickets, no outstanding ops, and drained tickets are dead.

use std::sync::{Arc, Mutex};

use bess_io::{IoDevice, IoOp, IoOutput, IoQueue, IoRuntimeConfig, MemDevice};
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

fn exec_strategy() -> impl Strategy<Value = IoRuntimeConfig> {
    prop_oneof![
        Just(IoRuntimeConfig::inline()),
        (1usize..4, 1usize..8).prop_map(|(workers, max_batch)| IoRuntimeConfig {
            workers,
            max_batch,
        }),
    ]
}

/// Builds a queue over two recording devices and submits `specs` split
/// into `splits + 1` batches.
fn run(
    cfg: IoRuntimeConfig,
    specs: &[Spec],
    splits: &[usize],
) -> (IoQueue, Vec<Arc<RecordingDevice>>, Vec<bess_io::IoTicket>) {
    let q = IoQueue::unregistered(cfg);
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

/// The device-observed op order per file must respect the contract: the
/// subsequence of write-class ops equals the submitted write-class order,
/// and each read happens between the same two write-class ops it was
/// submitted between (reads only reorder with reads).
fn assert_order(file: usize, specs: &[Spec], observed: &[Observed]) {
    // Expected write-class subsequence, in submission order.
    let submitted_writes: Vec<Observed> = specs
        .iter()
        .filter(|s| s.file() == file)
        .filter_map(|s| match *s {
            Spec::Write { page, .. } => Some(vec![Observed::Write(page * PAGE)]),
            Spec::Sync { .. } => Some(vec![Observed::Sync]),
            Spec::Grow { pages, .. } => Some(vec![Observed::Grow(pages * PAGE)]),
            // WriteSync reaches the device as write then sync — but a
            // poisoned write fails fast, so its sync is never issued.
            Spec::WriteSync { page, poison: true, .. } => Some(vec![Observed::Write(page * PAGE)]),
            Spec::WriteSync { page, poison: false, .. } => {
                Some(vec![Observed::Write(page * PAGE), Observed::Sync])
            }
            Spec::Read { .. } => None,
        })
        .flatten()
        .collect();
    let observed_writes: Vec<Observed> = observed
        .iter()
        .filter(|o| !matches!(o, Observed::Read(_)))
        .cloned()
        .collect();
    assert_eq!(
        observed_writes, submitted_writes,
        "file {file}: write-class ops must reach the device in submission order"
    );

    // Reads: count write-class device ops preceding each read, observed vs
    // submitted. Equal counts mean no read crossed a write-class op.
    let submitted_read_positions: Vec<usize> = {
        let mut wc = 0;
        let mut v = Vec::new();
        for s in specs.iter().filter(|s| s.file() == file) {
            match s {
                Spec::Read { .. } => v.push(wc),
                Spec::Write { .. } | Spec::Sync { .. } | Spec::Grow { .. } => wc += 1,
                Spec::WriteSync { poison, .. } => wc += if *poison { 1 } else { 2 },
            }
        }
        v
    };
    let observed_read_positions: Vec<usize> = {
        let mut wc = 0;
        let mut v = Vec::new();
        for o in observed {
            match o {
                Observed::Read(_) => v.push(wc),
                _ => wc += 1,
            }
        }
        v
    };
    let mut want = submitted_read_positions;
    let mut got = observed_read_positions;
    // Reads between the same pair of write-class ops may reorder freely,
    // so compare as multisets of positions.
    want.sort_unstable();
    got.sort_unstable();
    assert_eq!(
        got, want,
        "file {file}: reads must not cross write-class ops"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Exactly-once delivery + failure isolation: every ticket redeems to
    /// exactly one result, a poisoned op fails alone, and afterwards the
    /// queue holds nothing.
    #[test]
    fn completions_are_exactly_once_and_faults_isolated(
        specs in prop::collection::vec(spec_strategy(), 1..24),
        splits in prop::collection::vec(0usize..24, 0..3),
        cfg in exec_strategy(),
    ) {
        let (q, devs, tickets) = run(cfg, &specs, &splits);
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
        // Per-file order held regardless of faults.
        for (file, dev) in devs.iter().enumerate() {
            assert_order(file, &specs, &dev.observed());
        }
    }

    /// `drain()` after fault injection: every unclaimed result comes back
    /// (in ticket order), nothing is leaked, and drained tickets are dead.
    #[test]
    fn drain_after_faults_leaves_no_leaked_tickets(
        specs in prop::collection::vec(spec_strategy(), 1..24),
        claim in 0usize..24,
        cfg in exec_strategy(),
    ) {
        let (q, _devs, tickets) = run(cfg, &specs, &[]);
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
        // BTreeMap keys put drained results in submission order: they line
        // up with the unclaimed specs one-to-one.
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
    /// writes to one page interleaved with reads elsewhere, the final
    /// image is the last-submitted write.
    #[test]
    fn last_write_wins_per_file(
        values in prop::collection::vec(1u8..251, 1..12),
        workers in 0usize..4,
    ) {
        let cfg = if workers == 0 {
            IoRuntimeConfig::inline()
        } else {
            IoRuntimeConfig { workers, max_batch: 3 }
        };
        let q = IoQueue::unregistered(cfg);
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
