//! The production workload harness (§E22): a scenario-diverse load driver
//! with SLO regression gates.
//!
//! Each scenario in [`run_all`] drives the real `bess-server` client–server
//! stack — many simulated client machines multiplexed over a pool of worker
//! threads — through one access pattern the BeSS paper's deployment story
//! implies: zipf-skewed point reads/writes, range scans through a node
//! server's shared cache, 2PC bulk loads, large-object aging against the
//! buddy allocator, node-server cold start, and a mid-run crash with
//! recovery. Every scenario:
//!
//! - is **deterministic**: schedules are generated up front from
//!   [`crate::workload::rng`] seeded by [`ScenarioCfg::seed`], and a FNV
//!   [`Digest`] of the schedule is reported so two runs with the same seed
//!   can be compared byte-for-byte (thread interleaving never changes the
//!   digest, only latencies);
//! - declares **SLOs** ([`crate::slo`]) against the `bess-obs` histograms
//!   the run produced (`client.commit.rtt.ns`, `cache.shared.lookup.ns`,
//!   `wal.flush.ns`, scenario-owned timers) plus scalar invariants
//!   (zero lost acks, zero post-drain fragmentation);
//! - reports a [`ScenarioResult`] that `report.rs` renders into the `§E22`
//!   block of `BENCH_report.json` and the `scenarios` binary turns into a
//!   process exit code for CI gating.
//!
//! Latency ceilings are calibrated from a healthy in-memory build with an
//! order of magnitude of headroom (see `EXPERIMENTS.md` §E22): they catch
//! a lost fast path, not scheduler jitter.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bess_cache::{AreaSet, DbPage};
use bess_lock::LockMode;
use bess_net::{NetFaultKind, NetFaultPlan, Network, NodeId};
use bess_obs::{json_string, LatencyHistogram, Registry, RegistrySnapshot};
use bess_server::{
    register_areas, BessServer, ClientConfig, ClientConn, Directory, Msg, PageUpdate,
    ServerConfig,
};
use bess_storage::{AreaConfig, AreaId, FaultDisk, FaultPlan, StorageArea, PAGE_HDR};
use bess_wal::LogManager;
use rand::Rng;

use crate::slo::{check_histogram, Slo, SloCheck};
use crate::workload::{rng, Zipf};
use crate::{make_areas, World};

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

/// How big a run is: `Smoke` finishes in seconds and gates CI; `Full` is
/// the paper-scale run (thousands of simulated clients, millions of object
/// slots).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Profile {
    /// CI-sized: a few worker threads, tens of thousands of objects.
    Smoke,
    /// Paper-sized: 16 worker threads multiplexing 2048 simulated clients
    /// over two million object slots.
    Full,
}

impl Profile {
    /// Parses `"smoke"` / `"full"`.
    pub fn parse(s: &str) -> Option<Profile> {
        match s {
            "smoke" => Some(Profile::Smoke),
            "full" => Some(Profile::Full),
            _ => None,
        }
    }

    /// The name as it appears in reports.
    pub fn name(self) -> &'static str {
        match self {
            Profile::Smoke => "smoke",
            Profile::Full => "full",
        }
    }
}

/// Harness configuration: the profile plus the RNG seed every schedule
/// derives from.
#[derive(Clone, Copy, Debug)]
pub struct ScenarioCfg {
    /// Run size.
    pub profile: Profile,
    /// Master seed; same seed → same schedules, digests, and verdicts.
    pub seed: u64,
}

impl ScenarioCfg {
    /// A config with the default CI seed.
    pub fn new(profile: Profile) -> ScenarioCfg {
        ScenarioCfg { profile, seed: 42 }
    }
}

/// Per-profile knob block. Private: scenarios read it, callers pick a
/// [`Profile`].
struct Scale {
    /// Real connections (worker threads) per scenario.
    conns: usize,
    /// Simulated client machines multiplexed over the connections.
    clients: usize,
    /// Object slots in the point-op farm (64 B each).
    objects: usize,
    /// Transactions per simulated client.
    txns_per_client: usize,
    /// Range scans issued in total.
    scan_txns: usize,
    /// Pages per range scan.
    scan_run: usize,
    /// Bulk-load batches (each one distributed transaction).
    bulk_batches: usize,
    /// Pages written per bulk batch, split across two owners.
    bulk_batch_pages: usize,
    /// Large-object aging cycles.
    aging_cycles: usize,
    /// Live-object ceiling during aging.
    aging_pool: usize,
    /// Pages preloaded for the cold-start scenario.
    cold_pages: usize,
    /// Transactions in the crash+recovery leg (half before the crash).
    crash_txns: usize,
    /// Object slots in the scrub-under-load point-op farm.
    scrub_objects: usize,
    /// Cold pages bit-rotted while the scrub scenario's load runs.
    scrub_rots: usize,
}

impl Scale {
    fn of(profile: Profile) -> Scale {
        match profile {
            Profile::Smoke => Scale {
                conns: 4,
                clients: 64,
                objects: 1 << 14,
                txns_per_client: 4,
                scan_txns: 32,
                scan_run: 32,
                bulk_batches: 16,
                bulk_batch_pages: 8,
                aging_cycles: 240,
                aging_pool: 48,
                cold_pages: 96,
                crash_txns: 24,
                scrub_objects: 1 << 12,
                scrub_rots: 24,
            },
            Profile::Full => Scale {
                conns: 16,
                clients: 2048,
                objects: 1 << 21,
                txns_per_client: 16,
                scan_txns: 512,
                scan_run: 32,
                bulk_batches: 256,
                bulk_batch_pages: 8,
                aging_cycles: 5000,
                aging_pool: 96,
                cold_pages: 224,
                crash_txns: 400,
                scrub_objects: 1 << 15,
                scrub_rots: 200,
            },
        }
    }
}

// ---------------------------------------------------------------------------
// Determinism: schedule digests
// ---------------------------------------------------------------------------

/// FNV-1a over the generated schedule. Two runs with the same seed must
/// produce the same digest; the crash-matrix style determinism test pins
/// this.
#[derive(Clone, Copy, Debug)]
pub struct Digest(u64);

impl Digest {
    /// Fresh digest (FNV offset basis).
    #[allow(clippy::new_without_default)]
    pub fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    /// Folds one value in.
    pub fn mix(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The current digest value.
    pub fn value(self) -> u64 {
        self.0
    }
}

fn salt(name: &str) -> u64 {
    let mut d = Digest::new();
    for b in name.bytes() {
        d.mix(u64::from(b));
    }
    d.value()
}

// ---------------------------------------------------------------------------
// Results
// ---------------------------------------------------------------------------

/// One scenario's outcome: throughput-side facts plus every SLO verdict.
#[derive(Clone, Debug)]
pub struct ScenarioResult {
    /// Scenario name (stable key in §E22).
    pub name: &'static str,
    /// Operations completed (committed work only).
    pub ops: u64,
    /// Wall-clock of the measured phase, in milliseconds.
    pub wall_ms: u64,
    /// Schedule digest (seed-stable).
    pub digest: u64,
    /// Evaluated SLOs, in declaration order.
    pub checks: Vec<SloCheck>,
    /// Fragmentation-over-time curve `(cycle, permille)` — only the aging
    /// scenario fills this.
    pub curve: Vec<(u64, u64)>,
}

impl ScenarioResult {
    /// True when every check passed.
    pub fn passed(&self) -> bool {
        self.checks.iter().all(|c| c.pass)
    }

    /// `"pass"` / `"fail"` for §E22.
    pub fn verdict(&self) -> &'static str {
        if self.passed() {
            "pass"
        } else {
            "fail"
        }
    }
}

// ---------------------------------------------------------------------------
// Scenario-owned metrics
// ---------------------------------------------------------------------------

/// Every histogram the harness itself registers (under the `scenario.`
/// prefix). `tests/obs_golden.rs` pins the qualified names; add here first
/// when a scenario grows a new timer.
pub const SCENARIO_HISTOGRAMS: &[&str] = &[
    "txn.ns",
    "scan.ns",
    "aging.op.ns",
    "cold.fetch.ns",
    "warm.fetch.ns",
    "recovery.ns",
];

fn scenario_hist(reg: &Arc<Registry>, name: &str) -> LatencyHistogram {
    debug_assert!(
        SCENARIO_HISTOGRAMS.contains(&name),
        "unpinned scenario histogram {name}"
    );
    reg.group("scenario").histogram(name)
}

/// Registers every scenario-owned histogram into a fresh registry without
/// running any workload — the golden-name test uses this to pin the
/// namespace.
pub fn register_all_metrics() -> Arc<Registry> {
    let reg = Registry::new();
    for name in SCENARIO_HISTOGRAMS {
        scenario_hist(&reg, name);
    }
    reg
}

// ---------------------------------------------------------------------------
// The object farm
// ---------------------------------------------------------------------------

const SLOT_BYTES: usize = 64;

/// Maps dense object ids onto 64-byte slots of buddy-allocated pages, so
/// the point-op scenarios address "millions of objects" while the wire
/// protocol stays page-granular (§2 of the paper: objects live in pages of
/// storage areas).
pub struct PageFarm {
    area: u32,
    pages: Vec<u64>,
    slots_per_page: usize,
}

impl PageFarm {
    /// Allocates enough pages from `area` to hold `objects` slots.
    pub fn provision(area: &StorageArea, objects: usize) -> PageFarm {
        let slots_per_page = area.page_size() / SLOT_BYTES;
        let need = objects.div_ceil(slots_per_page);
        let mut pages = Vec::with_capacity(need);
        while pages.len() < need {
            let ptr = area.alloc(64).unwrap();
            for p in 0..u64::from(ptr.pages) {
                pages.push(ptr.start_page + p);
            }
        }
        PageFarm {
            area: area.id().0,
            pages,
            slots_per_page,
        }
    }

    /// The page and byte offset of an object slot.
    pub fn locate(&self, obj: usize) -> (DbPage, u32) {
        let page = DbPage {
            area: self.area,
            page: self.pages[obj / self.slots_per_page],
        };
        let offset = (obj % self.slots_per_page) * SLOT_BYTES;
        (page, offset as u32)
    }
}

// ---------------------------------------------------------------------------
// Point-op transactions
// ---------------------------------------------------------------------------

/// One point operation of a scheduled transaction.
type Op = (usize, bool); // (object id, is_write)

/// Runs one transaction: pages are locked in sorted order (deadlock
/// freedom by ordered acquisition), each fetched once with the strongest
/// mode any of its ops needs. Returns ops completed.
fn run_txn(conn: &ClientConn, farm: &PageFarm, ops: &[Op]) -> Result<u64, bess_server::ClientError> {
    conn.begin()?;
    let mut by_page: BTreeMap<(u32, u64), Vec<(u32, bool)>> = BTreeMap::new();
    for &(obj, write) in ops {
        let (page, off) = farm.locate(obj);
        by_page.entry((page.area, page.page)).or_default().push((off, write));
    }
    let mut updates = Vec::new();
    for (&(area, pageno), slot_ops) in &by_page {
        let page = DbPage { area, page: pageno };
        let mode = if slot_ops.iter().any(|&(_, w)| w) {
            LockMode::X
        } else {
            LockMode::S
        };
        let data = conn.fetch_page(page, mode)?;
        for &(off, write) in slot_ops {
            if write {
                let off = off as usize;
                let before = data[off..off + 8].to_vec();
                let mut after = before.clone();
                after[0] = after[0].wrapping_add(1);
                updates.push(PageUpdate {
                    page,
                    offset: off as u32,
                    before,
                    after,
                });
            }
        }
    }
    conn.commit(updates)?;
    Ok(ops.len() as u64)
}

/// Shared shape of the two zipf point-op scenarios.
fn zipf_point(name: &'static str, write_pct: u32, cfg: &ScenarioCfg, scale: &Scale) -> ScenarioResult {
    let world = World::new(&[&[0]], Duration::ZERO);
    let area = world.area_sets[0].get(0).unwrap();
    let farm = PageFarm::provision(&area, scale.objects);
    let zipf = Zipf::new(scale.objects, 0.99);

    // Schedules first, single-threaded: the digest covers every op of
    // every simulated client and cannot depend on thread interleaving.
    let mut digest = Digest::new();
    digest.mix(cfg.seed);
    digest.mix(u64::from(write_pct));
    let mut schedules: Vec<Vec<Vec<Op>>> = Vec::with_capacity(scale.clients);
    for lc in 0..scale.clients {
        let mut r = rng(cfg.seed ^ salt(name) ^ (lc as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let mut txns = Vec::with_capacity(scale.txns_per_client);
        for _ in 0..scale.txns_per_client {
            let mut ops: Vec<Op> = Vec::with_capacity(4);
            while ops.len() < 4 {
                let obj = zipf.sample(&mut r);
                if ops.iter().any(|&(o, _)| o == obj) {
                    continue; // one lock mode per object per txn
                }
                let write = r.gen_range(0..100) < write_pct;
                digest.mix(obj as u64);
                digest.mix(u64::from(write));
                ops.push((obj, write));
            }
            txns.push(ops);
        }
        schedules.push(txns);
    }

    let reg = Registry::new();
    let txn_ns = scenario_hist(&reg, "txn.ns");
    let world_before = world.metrics().snapshot();
    let started = Instant::now();
    // Each worker owns one real connection and plays the simulated clients
    // `lc ≡ c (mod conns)`, round-robin by transaction index so the
    // clients interleave instead of running back-to-back.
    let per_conn: Vec<(RegistrySnapshot, u64, u64)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..scale.conns)
            .map(|c| {
                let world = &world;
                let schedules = &schedules;
                let farm = &farm;
                let txn_ns = &txn_ns;
                s.spawn(move || {
                    let conn = world.client(1 + c as u32, true);
                    let mut aborts = 0u64;
                    let mut ops_done = 0u64;
                    // Round-robin by txn index, not per-client batches; `t`
                    // indexes a different schedule each inner iteration, so
                    // clippy's iterator rewrite does not apply.
                    #[allow(clippy::needless_range_loop)]
                    for t in 0..scale.txns_per_client {
                        for lc in (c..scale.clients).step_by(scale.conns) {
                            let _timer = txn_ns.start();
                            match run_txn(&conn, farm, &schedules[lc][t]) {
                                Ok(n) => ops_done += n,
                                Err(_) => {
                                    let _ = conn.abort();
                                    aborts += 1;
                                }
                            }
                        }
                    }
                    let snap = conn.metrics().registry().snapshot();
                    conn.disconnect();
                    (snap, aborts, ops_done)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let wall_ms = started.elapsed().as_millis() as u64;

    let mut merged = reg.snapshot();
    let mut aborts = 0u64;
    let mut ops = 0u64;
    for (snap, a, o) in &per_conn {
        merged.absorb("", snap);
        aborts += a;
        ops += o;
    }
    merged.absorb("", &world.metrics().snapshot().delta(&world_before));

    let total_txns = (scale.clients * scale.txns_per_client) as u64;
    let mut checks = check_histogram(
        &merged,
        &Slo::p50_p99("client.commit.rtt.ns", 4_194_304, 134_217_728),
    );
    // The txn bound must sit above the 500 ms deadlock timeout: under zipf
    // contention a victim legitimately waits out the whole timeout before
    // aborting, so the tail is lock-timeout-bounded, not commit-bounded.
    checks.extend(check_histogram(&merged, &Slo::p99("scenario.txn.ns", 1_073_741_824)));
    checks.push(SloCheck::at_most("client.aborts", aborts, total_txns / 4));

    ScenarioResult {
        name,
        ops,
        wall_ms,
        digest: digest.value(),
        checks,
        curve: vec![],
    }
}

// ---------------------------------------------------------------------------
// Range scans through a node server
// ---------------------------------------------------------------------------

fn range_scan(cfg: &ScenarioCfg, scale: &Scale) -> ScenarioResult {
    let name = "range_scan";
    let world = World::new(&[&[0]], Duration::ZERO);
    let area = world.area_sets[0].get(0).unwrap();
    // One extent's worth of contiguous segment pages to scan over.
    let mut pages: Vec<u64> = Vec::new();
    while pages.len() < scale.scan_run * 4 {
        let ptr = area.alloc(64).unwrap();
        for p in 0..u64::from(ptr.pages) {
            pages.push(ptr.start_page + p);
        }
    }
    let ns = world.node_server(50);

    let mut digest = Digest::new();
    digest.mix(cfg.seed);
    let mut r = rng(cfg.seed ^ salt(name));
    let starts: Vec<usize> = (0..scale.scan_txns)
        .map(|_| {
            let s = r.gen_range(0..pages.len() - scale.scan_run);
            digest.mix(s as u64);
            s
        })
        .collect();

    let reg = Registry::new();
    let scan_ns = scenario_hist(&reg, "scan.ns");
    let ns_before = ns.metrics().registry().snapshot();
    let started = Instant::now();
    let per_conn: Vec<(RegistrySnapshot, u64)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..scale.conns)
            .map(|c| {
                let world = &world;
                let ns = &ns;
                let pages = &pages;
                let starts = &starts;
                let scan_ns = &scan_ns;
                s.spawn(move || {
                    let mut ccfg = ClientConfig::new(NodeId(60 + c as u32), ns.node());
                    ccfg.caching = true;
                    ccfg.gateway = Some(ns.node());
                    let conn = ClientConn::connect(&world.net, Arc::clone(&world.dir), ccfg);
                    let mut ops = 0u64;
                    for t in (c..starts.len()).step_by(scale.conns) {
                        let _timer = scan_ns.start();
                        conn.begin().unwrap();
                        for p in &pages[starts[t]..starts[t] + scale.scan_run] {
                            conn.fetch_page(DbPage { area: 0, page: *p }, LockMode::S).unwrap();
                            ops += 1;
                        }
                        conn.commit(vec![]).unwrap();
                    }
                    let snap = conn.metrics().registry().snapshot();
                    conn.disconnect();
                    (snap, ops)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let wall_ms = started.elapsed().as_millis() as u64;

    let mut merged = reg.snapshot();
    let mut ops = 0u64;
    for (snap, o) in &per_conn {
        merged.absorb("", snap);
        ops += o;
    }
    merged.absorb("", &ns.metrics().registry().snapshot().delta(&ns_before));

    let mut checks = check_histogram(&merged, &Slo::p99("scenario.scan.ns", 268_435_456));
    checks.extend(check_histogram(&merged, &Slo::p99("cache.shared.lookup.ns", 16_777_216)));
    checks.push(SloCheck::at_least(
        "nodeserver.cache_hits",
        merged.counter("nodeserver.cache_hits"),
        1,
    ));
    ns.shutdown();

    ScenarioResult {
        name,
        ops,
        wall_ms,
        digest: digest.value(),
        checks,
        curve: vec![],
    }
}

// ---------------------------------------------------------------------------
// Bulk load across two owners (2PC)
// ---------------------------------------------------------------------------

/// Wire messages per `bulk_load` 2PC commit, ×100, under the retired
/// presumed-abort protocol (serial ship-then-commit client, acked
/// decides): 34.00 in both profiles, recorded at commit 9ad1de4 — the
/// last one that could still run it.
const BULK_LOAD_BASELINE_MSGS_PER_COMMIT_X100: u64 = 3400;

fn bulk_load(cfg: &ScenarioCfg, scale: &Scale) -> ScenarioResult {
    let name = "bulk_load";
    let world = World::new(&[&[0], &[1]], Duration::ZERO);
    // Pre-allocate fresh pages on both owners; each batch takes half its
    // pages from each, so every batch commit is a coordinated 2PC round.
    let mut batches: Vec<Vec<DbPage>> = Vec::with_capacity(scale.bulk_batches);
    for _ in 0..scale.bulk_batches {
        let mut batch = Vec::with_capacity(scale.bulk_batch_pages);
        for half in 0..2u32 {
            let area = world.area_sets[half as usize].get(half).unwrap();
            let ptr = area.alloc(scale.bulk_batch_pages as u32 / 2).unwrap();
            for p in 0..u64::from(ptr.pages).min(scale.bulk_batch_pages as u64 / 2) {
                batch.push(DbPage { area: half, page: ptr.start_page + p });
            }
        }
        batches.push(batch);
    }
    let mut digest = Digest::new();
    digest.mix(cfg.seed);
    for batch in &batches {
        for page in batch {
            digest.mix(u64::from(page.area));
            digest.mix(page.page);
        }
    }

    let reg = Registry::new();
    let txn_ns = scenario_hist(&reg, "txn.ns");
    let started = Instant::now();
    // Every batch through `conns` connections.
    let wreg = world.metrics();
    let before = wreg.snapshot();
    let per_conn: Vec<(RegistrySnapshot, u64)> = std::thread::scope(|s| {
        let (world, batches, txn_ns) = (&world, &batches, &txn_ns);
        let handles: Vec<_> = (0..scale.conns)
            .map(|c| {
                s.spawn(move || {
                    let conn = world.client(1 + c as u32, false);
                    let mut ops = 0u64;
                    for b in (c..batches.len()).step_by(scale.conns) {
                        let _timer = txn_ns.start();
                        conn.begin().unwrap();
                        let mut updates = Vec::new();
                        for page in &batches[b] {
                            let data = conn.fetch_page(*page, LockMode::X).unwrap();
                            updates.push(PageUpdate {
                                page: *page,
                                offset: 0,
                                before: data[0..SLOT_BYTES].to_vec(),
                                after: vec![0xb5; SLOT_BYTES],
                            });
                        }
                        conn.commit(updates).unwrap();
                        ops += batches[b].len() as u64;
                    }
                    let snap = conn.metrics().registry().snapshot();
                    conn.disconnect();
                    (snap, ops)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let world_delta = wreg.snapshot().delta(&before);
    // A one-way send counts one wire message, a call two.
    let msgs = world_delta.counter("net.sends") + 2 * world_delta.counter("net.calls");
    let wall_ms = started.elapsed().as_millis() as u64;

    let mut merged = reg.snapshot();
    let mut ops = 0u64;
    for (snap, o) in &per_conn {
        merged.absorb("", snap);
        ops += o;
    }
    merged.absorb("", &world_delta);

    let mut checks = check_histogram(&merged, &Slo::p99("client.commit.rtt.ns", 268_435_456));
    checks.extend(check_histogram(&merged, &Slo::p99("s0.wal.flush.ns", 67_108_864)));
    checks.push(SloCheck::at_least(
        "s0.server.coordinated",
        merged.counter("s0.server.coordinated"),
        1,
    ));
    // The distributed-commit smoke gate: the protocol must spend strictly
    // fewer wire messages per 2PC commit than the recorded presumed-abort
    // baseline, and the presumed-commit machinery must actually have run
    // (at least one unacked decide).
    let commits = scale.bulk_batches as u64;
    checks.push(SloCheck::at_most(
        "2pc.msgs_per_commit_x100",
        msgs * 100 / commits,
        BULK_LOAD_BASELINE_MSGS_PER_COMMIT_X100 - 1,
    ));
    checks.push(SloCheck::at_least(
        "s0.server.2pc.oneway_decides",
        merged.counter("s0.server.2pc.oneway_decides"),
        1,
    ));

    ScenarioResult {
        name,
        ops,
        wall_ms,
        digest: digest.value(),
        checks,
        curve: vec![],
    }
}

// ---------------------------------------------------------------------------
// Large-object aging against the buddy allocator
// ---------------------------------------------------------------------------

fn permille(f: f64) -> u64 {
    (f * 1000.0).round() as u64
}

fn largeobj_aging(cfg: &ScenarioCfg, scale: &Scale) -> ScenarioResult {
    use bess_largeobj::{LargeObject, LoConfig};
    let name = "largeobj_aging";
    // Small pages so objects span segments and the buddy tree actually
    // splits/coalesces. The geometry is chosen so an extent can never
    // overflow its on-page allocation table: 64 pages/extent means at most
    // 64 allocated blocks, below the (512-8)/5 = 100-entry capacity of a
    // 512-byte metadata page even if every block is a single page.
    let area = Arc::new(
        StorageArea::create_mem(
            AreaId(0),
            AreaConfig {
                page_size: 512,
                extent_pages_log2: 6,
                initial_extents: 2,
                expandable: true,
            },
        )
        .unwrap(),
    );

    let reg = Registry::new();
    let op_ns = scenario_hist(&reg, "aging.op.ns");
    let mut r = rng(cfg.seed ^ salt(name));
    let mut digest = Digest::new();
    digest.mix(cfg.seed);
    let mut pool: Vec<LargeObject> = Vec::new();
    let mut curve: Vec<(u64, u64)> = Vec::new();
    let mut peak = 0u64;
    let sample_every = (scale.aging_cycles / 16).max(1);
    let mut ops = 0u64;
    let started = Instant::now();
    for cycle in 0..scale.aging_cycles {
        let action = r.gen_range(0..100u32);
        let size = r.gen_range(64..2048usize);
        digest.mix(u64::from(action));
        digest.mix(size as u64);
        let _timer = op_ns.start();
        if pool.len() < scale.aging_pool / 2 || (action < 40 && pool.len() < scale.aging_pool) {
            let mut lo = LargeObject::create(Arc::clone(&area), LoConfig::default());
            lo.append(&vec![0xa6; size]).unwrap();
            pool.push(lo);
        } else if action < 70 {
            // Grow, but recycle oversized objects through truncate so the
            // area's footprint stays bounded over arbitrarily many cycles
            // (truncate is also the free-list coalescing exercise).
            let i = r.gen_range(0..pool.len());
            if pool[i].len() > 16 * 1024 {
                pool[i].truncate(2048).unwrap();
            } else {
                pool[i].append(&vec![0xa7; size]).unwrap();
            }
        } else {
            let i = r.gen_range(0..pool.len());
            pool.swap_remove(i).destroy().unwrap();
        }
        ops += 1;
        drop(_timer);
        if cycle % sample_every == 0 {
            let f = permille(area.fragmentation());
            peak = peak.max(f);
            curve.push((cycle as u64, f));
        }
    }
    // Drain: every object freed back. The buddy trees must coalesce to
    // fully-free extents (fragmentation exactly 0) and tile exactly.
    for lo in pool.drain(..) {
        lo.destroy().unwrap();
    }
    area.check_allocator_invariants();
    let final_frag = permille(area.fragmentation());
    curve.push((scale.aging_cycles as u64, final_frag));
    let wall_ms = started.elapsed().as_millis() as u64;

    let mut merged = reg.snapshot();
    merged.absorb("", &area.metrics().registry().snapshot());

    let mut checks = check_histogram(&merged, &Slo::p99("scenario.aging.op.ns", 67_108_864));
    checks.push(SloCheck::at_most("storage.frag.peak_permille", peak, 900));
    checks.push(SloCheck::at_most("storage.frag.final_permille", final_frag, 0));
    // The live gauge must agree with the drained allocator.
    checks.push(SloCheck::at_most(
        "storage.a0.frag_permille",
        merged.gauge("storage.a0.frag_permille").max(0) as u64,
        0,
    ));

    ScenarioResult {
        name,
        ops,
        wall_ms,
        digest: digest.value(),
        checks,
        curve,
    }
}

// ---------------------------------------------------------------------------
// Node-server cold start
// ---------------------------------------------------------------------------

fn cold_start(cfg: &ScenarioCfg, scale: &Scale) -> ScenarioResult {
    let name = "cold_start";
    let world = World::new(&[&[0]], Duration::ZERO);
    let area = world.area_sets[0].get(0).unwrap();
    let mut pages: Vec<u64> = Vec::new();
    let mut digest = Digest::new();
    digest.mix(cfg.seed);
    while pages.len() < scale.cold_pages {
        let ptr = area.alloc(32).unwrap();
        for p in 0..u64::from(ptr.pages) {
            pages.push(ptr.start_page + p);
        }
    }
    pages.truncate(scale.cold_pages);
    let buf = vec![0xc0u8; area.page_size()];
    for &p in &pages {
        digest.mix(p);
        area.write_page(p, &buf).unwrap();
    }

    // The node server starts with an empty shared cache: the cold pass
    // forces one remote fetch per page, the warm pass (a second client on
    // the same node) must be served entirely from the shared cache.
    let ns = world.node_server(50);
    let reg = Registry::new();
    let cold_ns = scenario_hist(&reg, "cold.fetch.ns");
    let warm_ns = scenario_hist(&reg, "warm.fetch.ns");
    let started = Instant::now();

    let run_pass = |node: u32, hist: &LatencyHistogram| {
        let mut ccfg = ClientConfig::new(NodeId(node), ns.node());
        ccfg.caching = true;
        ccfg.gateway = Some(ns.node());
        let conn = ClientConn::connect(&world.net, Arc::clone(&world.dir), ccfg);
        conn.begin().unwrap();
        for &p in &pages {
            let _timer = hist.start();
            let d = conn.fetch_page(DbPage { area: 0, page: p }, LockMode::S).unwrap();
            assert_eq!(d[0], 0xc0, "preloaded byte must survive the cache path");
        }
        conn.commit(vec![]).unwrap();
        let snap = conn.metrics().registry().snapshot();
        conn.disconnect();
        snap
    };

    let cold_snap = run_pass(60, &cold_ns);
    let ns_after_cold = ns.metrics().registry().snapshot();
    let warm_snap = run_pass(61, &warm_ns);
    let warm_delta = ns.metrics().registry().snapshot().delta(&ns_after_cold);
    let wall_ms = started.elapsed().as_millis() as u64;

    let mut merged = reg.snapshot();
    merged.absorb("", &cold_snap);
    merged.absorb("", &warm_snap);
    merged.absorb("", &ns.metrics().registry().snapshot());

    let mut checks = check_histogram(&merged, &Slo::p99("scenario.cold.fetch.ns", 67_108_864));
    checks.extend(check_histogram(&merged, &Slo::p99("scenario.warm.fetch.ns", 16_777_216)));
    checks.extend(check_histogram(&merged, &Slo::p99("cache.shared.lookup.ns", 16_777_216)));
    checks.push(SloCheck::at_most(
        "nodeserver.remote_fetches.warm",
        warm_delta.counter("nodeserver.remote_fetches"),
        0,
    ));
    ns.shutdown();

    ScenarioResult {
        name,
        ops: 2 * pages.len() as u64,
        wall_ms,
        digest: digest.value(),
        checks,
        curve: vec![],
    }
}

// ---------------------------------------------------------------------------
// Mid-run crash + recovery
// ---------------------------------------------------------------------------

/// What the crash leg saw, for the durable-atomicity oracle test
/// (`crates/bess-bench/tests/scenario_crash.rs`): every acked commit and
/// what the recovered store actually holds at that ack's page.
pub struct CrashLegReport {
    /// The scenario result (checks include `recovery.lost_acks == 0`).
    pub result: ScenarioResult,
    /// `(page, marker)` pairs acknowledged to the client before the crash.
    pub acked: Vec<(u64, u64)>,
    /// The marker actually read back from each acked page after recovery.
    pub recovered: Vec<(u64, u64)>,
    /// In-doubt transactions left after restart (must be 0 single-server).
    pub in_doubt: usize,
}

/// Runs the crash+recovery scenario and returns the full oracle evidence.
/// A `NetFaultPlan` drops one commit *reply* mid-phase-A (the client
/// retries into the server's dedup window), then the server crashes with
/// `simulate_crash` — losing any unflushed log tail — and restarts over
/// the same areas. Phase B continues against the restarted server; the
/// check that gates CI is that **no acked commit is ever lost**.
pub fn run_crash_leg(cfg: &ScenarioCfg) -> CrashLegReport {
    let scale = Scale::of(cfg.profile);
    let name = "crash_recovery";
    let net: Arc<Network<Msg>> = Network::new(Duration::ZERO);
    let dir = Arc::new(Directory::new());
    let set = make_areas(&[0]);
    register_areas(&dir, NodeId(100), &set);
    let (server, _) = BessServer::start(
        ServerConfig::new(NodeId(100)),
        Arc::clone(&set),
        LogManager::create_mem(),
        &net,
    );
    let area = set.get(0).unwrap();
    let mut pages: Vec<u64> = Vec::new();
    while pages.len() < scale.crash_txns {
        let ptr = area.alloc(32).unwrap();
        for p in 0..u64::from(ptr.pages) {
            pages.push(ptr.start_page + p);
        }
    }
    pages.truncate(scale.crash_txns);
    let mut digest = Digest::new();
    digest.mix(cfg.seed);
    for &p in &pages {
        digest.mix(p);
    }

    // Non-caching message layout per txn: Fetch (which announces the
    // transaction and releases the one before), Commit. Drop the commit
    // *reply* of the txn a quarter in.
    let phase_a = scale.crash_txns / 2;
    let faulted_txn = phase_a / 2;
    net.arm(NetFaultPlan::armed_from(
        NodeId(1),
        2 * faulted_txn as u64 + 1,
        NetFaultKind::DropReply,
    ));

    let connect = |node: u32| {
        let mut ccfg = ClientConfig::new(NodeId(node), NodeId(100));
        ccfg.caching = false;
        ccfg.rpc_timeout = Duration::from_millis(200);
        ccfg.retry_base = Duration::from_millis(1);
        ccfg.heartbeat_interval = Duration::from_secs(60);
        ClientConn::connect(&net, Arc::clone(&dir), ccfg)
    };

    let reg = Registry::new();
    let recovery_ns = scenario_hist(&reg, "recovery.ns");
    let mut acked: Vec<(u64, u64)> = Vec::new();
    let started = Instant::now();

    let run_phase = |conn: &ClientConn, range: std::ops::Range<usize>, acked: &mut Vec<(u64, u64)>| {
        for t in range {
            let page = DbPage { area: 0, page: pages[t] };
            let marker = 0xace0_0000 + t as u64;
            let committed = (|| -> Result<(), bess_server::ClientError> {
                conn.begin()?;
                let d = conn.fetch_page(page, LockMode::X)?;
                conn.commit(vec![PageUpdate {
                    page,
                    offset: 0,
                    before: d[0..8].to_vec(),
                    after: marker.to_le_bytes().to_vec(),
                }])
            })()
            .is_ok();
            if committed {
                acked.push((pages[t], marker));
            }
        }
    };

    let conn_a = connect(1);
    run_phase(&conn_a, 0..phase_a, &mut acked);
    let conn_a_snap = conn_a.metrics().registry().snapshot();
    conn_a.disconnect();

    // Crash: the flushed log survives, the server process does not.
    let crashed_log = server.log().simulate_crash().unwrap();
    server.shutdown();
    net.unregister(NodeId(100));
    let timer = recovery_ns.start();
    let (server2, _) = BessServer::start(
        ServerConfig::new(NodeId(100)),
        Arc::clone(&set),
        crashed_log,
        &net,
    );
    drop(timer);
    let in_doubt = server2.in_doubt().len();

    let conn_b = connect(2);
    run_phase(&conn_b, phase_a..scale.crash_txns, &mut acked);
    let conn_b_snap = conn_b.metrics().registry().snapshot();
    conn_b.disconnect();
    let wall_ms = started.elapsed().as_millis() as u64;

    // The oracle read-back: every acked marker must be on its page.
    let area2 = server2.areas().get(0).unwrap();
    let mut buf = vec![0u8; area2.page_size()];
    let mut recovered = Vec::with_capacity(acked.len());
    let mut lost = 0u64;
    for &(page, marker) in &acked {
        area2.read_page(page, &mut buf).unwrap();
        let got = u64::from_le_bytes(buf[0..8].try_into().unwrap());
        recovered.push((page, got));
        if got != marker {
            lost += 1;
        }
    }

    let mut merged = reg.snapshot();
    merged.absorb("", &conn_a_snap);
    merged.absorb("", &conn_b_snap);
    merged.absorb("", &server2.metrics().registry().snapshot());

    // RTT ceiling covers the one deliberate 200 ms timeout+retry.
    let mut checks = check_histogram(&merged, &Slo::p99("client.commit.rtt.ns", 1_073_741_824));
    checks.extend(check_histogram(&merged, &Slo::p99("scenario.recovery.ns", 1_073_741_824)));
    checks.push(SloCheck::at_most("recovery.lost_acks", lost, 0));
    checks.push(SloCheck::at_least(
        "client.commits.acked",
        acked.len() as u64,
        scale.crash_txns as u64,
    ));
    checks.push(SloCheck::at_most("server.in_doubt", in_doubt as u64, 0));

    CrashLegReport {
        result: ScenarioResult {
            name,
            ops: acked.len() as u64,
            wall_ms,
            digest: digest.value(),
            checks,
            curve: vec![],
        },
        acked,
        recovered,
        in_doubt,
    }
}

// ---------------------------------------------------------------------------
// Scrub under load: zipf traffic + silent bit rot + the background scrubber
// ---------------------------------------------------------------------------

/// Zipf point traffic against a server whose **background scrubber is on**,
/// while a gremlin thread silently rots bytes of cold committed pages on
/// the (fault-injectable) disk under it. Gates three things at once:
///
/// - the scrubber finds and repairs every rotted page from WAL history
///   without any foreground read ever touching those pages
///   (`storage.corruption.repaired ≥` rotted pages, `unrepairable == 0`,
///   and an exact byte-for-byte read-back of every rotted page);
/// - scrubbing never invents damage: nothing ends up quarantined and the
///   area converges to a clean steady state (two consecutive clean passes);
/// - foreground latency SLOs still hold with the scrubber competing for
///   the disk (commit RTT and txn ceilings below).
fn scrub_under_load(cfg: &ScenarioCfg, scale: &Scale) -> ScenarioResult {
    let name = "scrub_under_load";
    // Hand-built world (like the crash leg): the area must sit on a
    // `FaultDisk` so rot can be injected under the live server, and the
    // server config must switch the scrubber thread on.
    let net: Arc<Network<Msg>> = Network::new(Duration::ZERO);
    let dir = Arc::new(Directory::new());
    let disk = FaultDisk::new(FaultPlan::unarmed());
    let area = Arc::new(
        StorageArea::create_faulty(AreaId(0), AreaConfig::default(), Arc::clone(&disk)).unwrap(),
    );
    let page_size = area.page_size();
    let farm = PageFarm::provision(&area, scale.scrub_objects);
    // Rot targets live *outside* the farm: cold pages only the scrubber
    // will ever visit, so healing is attributable to the scrubber alone.
    let mut rot_pages: Vec<u64> = Vec::new();
    while rot_pages.len() < scale.scrub_rots {
        let ptr = area.alloc(32).unwrap();
        for p in 0..u64::from(ptr.pages) {
            rot_pages.push(ptr.start_page + p);
        }
    }
    rot_pages.truncate(scale.scrub_rots);

    let set = Arc::new(AreaSet::new());
    set.add(Arc::clone(&area));
    register_areas(&dir, NodeId(100), &set);
    let mut scfg = ServerConfig::new(NodeId(100));
    scfg.scrub.enabled = true;
    scfg.scrub.interval = Duration::from_millis(1);
    scfg.scrub.pages_per_pass = 1 << 12;
    let (server, _) = BessServer::start(scfg, Arc::clone(&set), LogManager::create_mem(), &net);

    let zipf = Zipf::new(scale.scrub_objects, 0.99);
    let marker = |i: usize| 0x5eed_0000_0000_0000u64 + i as u64;

    // Schedules and the rot plan, single-threaded and digested up front:
    // which pages rot, where, and what the load does are all seed-stable;
    // only *when* a flip lands relative to the traffic is scheduling.
    let mut digest = Digest::new();
    digest.mix(cfg.seed);
    let mut rot_plan: Vec<(u64, usize)> = Vec::new();
    {
        let mut r = rng(cfg.seed ^ salt(name));
        for &p in &rot_pages {
            let off = r.gen_range(0..page_size);
            digest.mix(p);
            digest.mix(off as u64);
            rot_plan.push((p, off));
        }
    }
    let mut schedules: Vec<Vec<Vec<Op>>> = Vec::with_capacity(scale.clients);
    for lc in 0..scale.clients {
        let mut r = rng(cfg.seed ^ salt(name) ^ (lc as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let mut txns = Vec::with_capacity(scale.txns_per_client);
        for _ in 0..scale.txns_per_client {
            let mut ops: Vec<Op> = Vec::with_capacity(4);
            while ops.len() < 4 {
                let obj = zipf.sample(&mut r);
                if ops.iter().any(|&(o, _)| o == obj) {
                    continue;
                }
                let write = r.gen_range(0..100) < 50;
                digest.mix(obj as u64);
                digest.mix(u64::from(write));
                ops.push((obj, write));
            }
            txns.push(ops);
        }
        schedules.push(txns);
    }

    let connect = |node: u32| {
        let ccfg = ClientConfig::new(NodeId(node), NodeId(100));
        ClientConn::connect(&net, Arc::clone(&dir), ccfg)
    };

    // Seed every rot target with a committed marker through the normal WAL
    // path, so each has reconstructable history *before* any byte rots.
    let setup = connect(99);
    for (i, &p) in rot_pages.iter().enumerate() {
        let page = DbPage { area: 0, page: p };
        setup.begin().unwrap();
        let d = setup.fetch_page(page, LockMode::X).unwrap();
        setup
            .commit(vec![PageUpdate {
                page,
                offset: 0,
                before: d[0..8].to_vec(),
                after: marker(i).to_le_bytes().to_vec(),
            }])
            .unwrap();
    }
    setup.disconnect();

    let reg = Registry::new();
    let txn_ns = scenario_hist(&reg, "txn.ns");
    let started = Instant::now();
    let per_conn: Vec<(RegistrySnapshot, u64, u64)> = std::thread::scope(|s| {
        // The gremlin: one silent XOR flip per target page, spread over
        // the run, landing in the page *data* past the sealed header. The
        // server is never told; only verify-on-read / the scrubber can
        // notice.
        {
            let disk = &disk;
            let rot_plan = &rot_plan;
            s.spawn(move || {
                for &(p, off) in rot_plan.iter() {
                    let at = p * (PAGE_HDR + page_size) as u64 + (PAGE_HDR + off) as u64;
                    let mut b = [0u8; 1];
                    disk.read_at(&mut b, at).unwrap();
                    b[0] ^= 0x40;
                    disk.write_at(&b, at).unwrap();
                    std::thread::sleep(Duration::from_micros(300));
                }
            });
        }
        let handles: Vec<_> = (0..scale.conns)
            .map(|c| {
                let schedules = &schedules;
                let farm = &farm;
                let txn_ns = &txn_ns;
                let connect = &connect;
                s.spawn(move || {
                    let conn = connect(1 + c as u32);
                    let mut aborts = 0u64;
                    let mut ops_done = 0u64;
                    #[allow(clippy::needless_range_loop)]
                    for t in 0..scale.txns_per_client {
                        for lc in (c..scale.clients).step_by(scale.conns) {
                            let _timer = txn_ns.start();
                            match run_txn(&conn, farm, &schedules[lc][t]) {
                                Ok(n) => ops_done += n,
                                Err(_) => {
                                    let _ = conn.abort();
                                    aborts += 1;
                                }
                            }
                        }
                    }
                    let snap = conn.metrics().registry().snapshot();
                    conn.disconnect();
                    (snap, aborts, ops_done)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // Drain: let the scrubber converge to a clean steady state — two
    // consecutive full passes that find nothing corrupt.
    let mut clean = 0;
    for _ in 0..64 {
        if server.scrub_once().corrupt == 0 {
            clean += 1;
            if clean >= 2 {
                break;
            }
        } else {
            clean = 0;
        }
    }
    let wall_ms = started.elapsed().as_millis() as u64;

    // Oracle read-back through the server: every rotted page must carry
    // exactly its committed marker again, byte for byte.
    let check_conn = connect(98);
    let mut lost = 0u64;
    for (i, &p) in rot_pages.iter().enumerate() {
        let page = DbPage { area: 0, page: p };
        check_conn.begin().unwrap();
        let ok = match check_conn.fetch_page(page, LockMode::S) {
            Ok(d) => {
                d[0..8] == marker(i).to_le_bytes()
                    && d[8..].iter().all(|&b| b == 0)
            }
            Err(_) => false,
        };
        let _ = check_conn.commit(vec![]);
        if !ok {
            lost += 1;
        }
    }
    let check_snap = check_conn.metrics().registry().snapshot();
    check_conn.disconnect();

    let sreg = server.metrics().registry();
    let detected = sreg.counter("storage.corruption.detected").get();
    let repaired = sreg.counter("storage.corruption.repaired").get();
    let unrepairable = sreg.counter("storage.corruption.unrepairable").get();
    let passes = sreg.counter("storage.scrub.passes").get();
    let quarantined = area.quarantined_pages().len() as u64;

    let mut merged = reg.snapshot();
    let mut aborts = 0u64;
    let mut ops = 0u64;
    for (snap, a, o) in &per_conn {
        merged.absorb("", snap);
        aborts += a;
        ops += o;
    }
    merged.absorb("", &check_snap);
    merged.absorb("", &server.metrics().registry().snapshot());
    server.shutdown();

    let total_txns = (scale.clients * scale.txns_per_client) as u64;
    // Ceilings sit above the zipf baselines: the scrubber shares the disk
    // with the foreground, and a txn that trips over fresh rot pays one
    // in-line repair. Still bounded by the same lock-timeout logic as
    // zipf (§E22 calibration).
    let mut checks = check_histogram(
        &merged,
        &Slo::p50_p99("client.commit.rtt.ns", 16_777_216, 268_435_456),
    );
    checks.extend(check_histogram(&merged, &Slo::p99("scenario.txn.ns", 1_073_741_824)));
    checks.push(SloCheck::at_most("client.aborts", aborts, total_txns / 4));
    checks.push(SloCheck::at_least(
        "storage.corruption.detected",
        detected,
        rot_pages.len() as u64,
    ));
    checks.push(SloCheck::at_least(
        "storage.corruption.repaired",
        repaired,
        rot_pages.len() as u64,
    ));
    checks.push(SloCheck::at_most("storage.corruption.unrepairable", unrepairable, 0));
    checks.push(SloCheck::at_least("storage.scrub.passes", passes, 1));
    checks.push(SloCheck::at_most("storage.quarantined_pages", quarantined, 0));
    checks.push(SloCheck::at_most("scrub.lost_pages", lost, 0));

    ScenarioResult {
        name,
        ops,
        wall_ms,
        digest: digest.value(),
        checks,
        curve: vec![],
    }
}

// ---------------------------------------------------------------------------
// The library of scenarios
// ---------------------------------------------------------------------------

/// Names of every scenario, in run order.
pub const SCENARIO_NAMES: &[&str] = &[
    "zipf_90_10",
    "zipf_50_50",
    "range_scan",
    "bulk_load",
    "largeobj_aging",
    "cold_start",
    "crash_recovery",
    "scrub_under_load",
];

/// Runs one scenario by name.
pub fn run_one(name: &str, cfg: &ScenarioCfg) -> Option<ScenarioResult> {
    let scale = Scale::of(cfg.profile);
    Some(match name {
        "zipf_90_10" => zipf_point("zipf_90_10", 10, cfg, &scale),
        "zipf_50_50" => zipf_point("zipf_50_50", 50, cfg, &scale),
        "range_scan" => range_scan(cfg, &scale),
        "bulk_load" => bulk_load(cfg, &scale),
        "largeobj_aging" => largeobj_aging(cfg, &scale),
        "cold_start" => cold_start(cfg, &scale),
        "crash_recovery" => run_crash_leg(cfg).result,
        "scrub_under_load" => scrub_under_load(cfg, &scale),
        _ => return None,
    })
}

/// Runs the whole library in declaration order.
pub fn run_all(cfg: &ScenarioCfg) -> Vec<ScenarioResult> {
    SCENARIO_NAMES
        .iter()
        .map(|n| run_one(n, cfg).unwrap())
        .collect()
}

// ---------------------------------------------------------------------------
// §E22 rendering
// ---------------------------------------------------------------------------

/// Flattens the results into the `§E22` key space: raw JSON values keyed
/// by dotted names, ready for `BENCH_report.json` (via `report.rs`) or
/// [`render_e22`].
pub fn e22_entries(cfg: &ScenarioCfg, results: &[ScenarioResult]) -> BTreeMap<String, String> {
    let mut out = BTreeMap::new();
    out.insert("profile".into(), json_string(cfg.profile.name()));
    out.insert("seed".into(), cfg.seed.to_string());
    let all_pass = results.iter().all(|r| r.passed());
    out.insert(
        "verdict".into(),
        json_string(if all_pass { "pass" } else { "fail" }),
    );
    for r in results {
        out.insert(format!("{}.ops", r.name), r.ops.to_string());
        out.insert(format!("{}.wall_ms", r.name), r.wall_ms.to_string());
        out.insert(
            format!("{}.digest", r.name),
            json_string(&format!("{:016x}", r.digest)),
        );
        out.insert(format!("{}.verdict", r.name), json_string(r.verdict()));
        for c in &r.checks {
            let base = format!("{}.{}.{}", r.name, c.metric, c.quantity);
            out.insert(base.clone(), c.measured.to_string());
            out.insert(format!("{base}.limit"), c.limit.to_string());
            out.insert(format!("{base}.verdict"), json_string(c.verdict()));
        }
        for &(cycle, frag) in &r.curve {
            out.insert(format!("{}.frag.c{cycle}", r.name), frag.to_string());
        }
    }
    out
}

/// Renders an entry map as a JSON object, one key per line (the same
/// shape `report.rs` emits inside `BENCH_report.json`).
pub fn render_e22(entries: &BTreeMap<String, String>) -> String {
    let mut s = String::from("{\n");
    let mut first = true;
    for (k, v) in entries {
        if !first {
            s.push_str(",\n");
        }
        first = false;
        s.push_str(&format!("  {}: {v}", json_string(k)));
    }
    s.push_str("\n}");
    s
}

/// Parses what [`render_e22`] produced back into the entry map — the
/// round-trip half of the report-diff machinery's contract.
pub fn parse_e22(json: &str) -> Option<BTreeMap<String, String>> {
    let body = json.trim().strip_prefix('{')?.strip_suffix('}')?;
    let mut out = BTreeMap::new();
    for line in body.lines() {
        let line = line.trim().trim_end_matches(',');
        if line.is_empty() {
            continue;
        }
        let rest = line.strip_prefix('"')?;
        let (key, rest) = rest.split_once('"')?;
        let value = rest.trim().strip_prefix(':')?.trim();
        out.insert(key.to_string(), value.to_string());
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_stable_and_order_sensitive() {
        let mut a = Digest::new();
        a.mix(1);
        a.mix(2);
        let mut b = Digest::new();
        b.mix(1);
        b.mix(2);
        assert_eq!(a.value(), b.value());
        let mut c = Digest::new();
        c.mix(2);
        c.mix(1);
        assert_ne!(a.value(), c.value());
    }

    #[test]
    fn farm_locates_distinct_slots() {
        let area = StorageArea::create_mem(AreaId(0), AreaConfig::default()).unwrap();
        let farm = PageFarm::provision(&area, 1000);
        let spp = area.page_size() / SLOT_BYTES;
        let (p0, o0) = farm.locate(0);
        let (p1, o1) = farm.locate(1);
        assert_eq!(p0.page, p1.page);
        assert_eq!(o1 - o0, SLOT_BYTES as u32);
        let (pn, _) = farm.locate(spp);
        assert_ne!(p0.page, pn.page, "slot {spp} must roll to the next page");
    }

    #[test]
    fn e22_round_trips_through_render_and_parse() {
        let cfg = ScenarioCfg::new(Profile::Smoke);
        let result = ScenarioResult {
            name: "zipf_90_10",
            ops: 1024,
            wall_ms: 17,
            digest: 0xdead_beef_cafe_f00d,
            checks: vec![
                SloCheck::at_most("client.aborts", 3, 64),
                SloCheck::at_least("nodeserver.cache_hits", 0, 1),
            ],
            curve: vec![(0, 0), (120, 412)],
        };
        let entries = e22_entries(&cfg, &[result]);
        let rendered = render_e22(&entries);
        let parsed = parse_e22(&rendered).expect("rendered block must parse");
        assert_eq!(parsed, entries);
        assert_eq!(parsed["verdict"], "\"fail\"");
        assert_eq!(parsed["zipf_90_10.digest"], "\"deadbeefcafef00d\"");
        assert_eq!(parsed["zipf_90_10.frag.c120"], "412");
        assert_eq!(
            parsed["zipf_90_10.nodeserver.cache_hits.min.verdict"],
            "\"fail\""
        );
    }

    #[test]
    fn scenario_metric_registry_covers_pinned_names() {
        let dump = register_all_metrics().dump();
        for name in SCENARIO_HISTOGRAMS {
            let want = format!("scenario.{name}");
            assert!(
                dump.lines().any(|l| l.split_whitespace().next() == Some(want.as_str())),
                "{want} missing from dump:\n{dump}"
            );
        }
    }
}
