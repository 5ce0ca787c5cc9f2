//! The experiment report harness: regenerates every *counting* experiment
//! of DESIGN.md §4 (E2-E5, E8-E10, E17-E21) and prints the tables recorded
//! in EXPERIMENTS.md. Timing experiments (E1, E6, E7, E11-E14) live in the
//! criterion benches.
//!
//! Every experiment measures an interval the same way: take a
//! [`bess_obs::Registry`] snapshot, run the workload, and diff with
//! [`bess_obs::RegistrySnapshot::delta`] — one generic helper instead of a
//! hand-written before/after block per stats struct. Each experiment also
//! records its headline numbers into a [`JsonReport`], written to
//! `BENCH_report.json` at the end for machine consumption (CI uploads it
//! as an artifact).
//!
//! Run with: `cargo run --release -p bess-bench --bin report`

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bess_bench::workload::{rng, HotCold, Scan, Zipf};
use bess_bench::{make_manager, segment_env, World};
use bess_cache::{DbPage, MapIo, PageIo, PrivatePool};
use bess_lock::LockMode;
use bess_obs::{json_string, RegistrySnapshot};
use bess_segment::{ProtectionPolicy, TypeDesc, TYPE_BYTES};
use bess_server::PageUpdate;
use bess_vm::{AddressSpace, Protect, VRange};
use rand::rngs::StdRng;

/// Machine-readable companion to the printed tables: a two-level map of
/// `experiment -> key -> value`, serialised to `BENCH_report.json`.
#[derive(Default)]
struct JsonReport {
    sections: BTreeMap<String, BTreeMap<String, String>>,
}

impl JsonReport {
    /// Records an integer metric.
    fn int(&mut self, section: &str, key: &str, v: u64) {
        self.raw(section, key, v.to_string());
    }

    /// Records a float metric (two decimals is plenty for a report).
    fn num(&mut self, section: &str, key: &str, v: f64) {
        self.raw(section, key, format!("{v:.3}"));
    }

    /// Records a string metric.
    fn text(&mut self, section: &str, key: &str, v: &str) {
        self.raw(section, key, json_string(v));
    }

    fn raw(&mut self, section: &str, key: &str, v: String) {
        self.sections
            .entry(section.to_string())
            .or_default()
            .insert(key.to_string(), v);
    }

    fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let mut first_s = true;
        for (section, entries) in &self.sections {
            if !first_s {
                out.push_str(",\n");
            }
            first_s = false;
            out.push_str(&format!("  {}: {{", json_string(section)));
            let mut first_e = true;
            for (k, v) in entries {
                if !first_e {
                    out.push(',');
                }
                first_e = false;
                out.push_str(&format!("\n    {}: {v}", json_string(k)));
            }
            out.push_str("\n  }");
        }
        out.push_str("\n}\n");
        out
    }
}

/// Prints one `| metric | count | p50 | p99 |` row per `*.ns` histogram in
/// the snapshot, and records the quantiles into the report.
fn latency_rows(snap: &RegistrySnapshot, report: &mut JsonReport, section: &str) {
    for (name, value) in &snap.entries {
        let bess_obs::MetricValue::Histogram(h) = value else {
            continue;
        };
        if !name.ends_with(".ns") || h.count() == 0 {
            continue;
        }
        println!(
            "| {name} | {} | {}ns | {}ns |",
            h.count(),
            h.p50(),
            h.p99()
        );
        report.int(section, &format!("{name}.count"), h.count());
        report.int(section, &format!("{name}.p50"), h.p50());
        report.int(section, &format!("{name}.p99"), h.p99());
    }
}

fn main() {
    let mut report = JsonReport::default();
    let r = &mut report;
    println!("# BeSS experiment report\n");
    e2_reservation(r);
    e3_waves(r);
    e4_reorg(r);
    e5_protection(r);
    e8_hit_rates(r);
    e9_callback(r);
    e10_two_pc(r);
    e17_deadlock_policy(r);
    e18_recovery_under_faults(r);
    e19_failure_containment(r);
    e20_obs_overhead(r);
    e21_group_commit(r);
    hot_path_latencies(r);
    e22_scenarios(r);
    e24_batched_io(r);
    e25_sublinear_2pc(r);
    let json = report.to_json();
    std::fs::write("BENCH_report.json", &json).expect("write BENCH_report.json");
    println!("\nreport complete ({} experiment sections in BENCH_report.json).",
        report.sections.len());
}

// ---------------------------------------------------------------------------
// E2 — address-space greed: lazy (BeSS) vs greedy (ObjectStore-style).
// ---------------------------------------------------------------------------
fn e2_reservation(report: &mut JsonReport) {
    println!("## E2 — address-space reservation: lazy (BeSS) vs greedy\n");
    const SEGMENTS: usize = 64;
    const OBJS_PER_SEG: usize = 16;

    let (_areas, types, catalog, mgr) = segment_env(ProtectionPolicy::Protected, 8192);
    let node = types.register(TypeDesc {
        name: "E2Node".into(),
        size: 32,
        ref_offsets: vec![24],
    });
    let mut roots = Vec::new();
    for s in 0..SEGMENTS {
        let seg = mgr.create_segment(0, 64, 4).unwrap();
        let mut prev = None;
        for _ in 0..OBJS_PER_SEG {
            let o = mgr.create_object(seg, node, 32).unwrap();
            if let Some(p) = prev {
                mgr.store_ref(o.addr, 24, Some(p)).unwrap();
            }
            prev = Some(o.addr);
        }
        if s == 0 {
            roots.push(mgr.oid_of(prev.unwrap()).unwrap());
        }
    }
    mgr.flush_all().expect("flush_all");

    // Fresh epoch, BeSS-lazy: touch ONE object.
    let areas = _areas;
    let mgr2 = make_manager(&areas, &types, &catalog, ProtectionPolicy::Protected, 8192);
    let before = mgr2.metrics().registry().snapshot();
    let addr = mgr2.resolve_oid(roots[0]).unwrap();
    let _ = mgr2.read_object(addr).unwrap();
    let d = mgr2.metrics().registry().snapshot().delta(&before);
    let lazy_reserved = d.counter("vm.reserved_bytes");
    let lazy_mapped = d.counter("vm.map_calls") * 4096;

    // Greedy baseline: reserve every known segment's ranges up front, as
    // the reserve-on-open schemes of [19,30,34] would.
    let mgr3 = make_manager(&areas, &types, &catalog, ProtectionPolicy::Protected, 8192);
    let before = mgr3.metrics().registry().snapshot();
    for seg in catalog.list() {
        mgr3.load_segment(seg).unwrap(); // maps slotted + reserves data
    }
    let addr = mgr3.resolve_oid(roots[0]).unwrap();
    let _ = mgr3.read_object(addr).unwrap();
    let d = mgr3.metrics().registry().snapshot().delta(&before);
    let greedy_reserved = d.counter("vm.reserved_bytes");
    let greedy_mapped = d.counter("vm.map_calls") * 4096;

    println!("| scheme | segments touched | bytes reserved | bytes mapped |");
    println!("|---|---|---|---|");
    println!("| BeSS lazy | 1 of {SEGMENTS} | {lazy_reserved} | {lazy_mapped} |");
    println!("| greedy (reserve-all) | 1 of {SEGMENTS} | {greedy_reserved} | {greedy_mapped} |");
    println!(
        "| ratio | | {:.1}x | {:.1}x |\n",
        greedy_reserved as f64 / lazy_reserved as f64,
        greedy_mapped as f64 / lazy_mapped.max(1) as f64
    );
    report.int("E2", "lazy_reserved_bytes", lazy_reserved);
    report.int("E2", "greedy_reserved_bytes", greedy_reserved);
    report.num(
        "E2",
        "reservation_ratio",
        greedy_reserved as f64 / lazy_reserved as f64,
    );
}

// ---------------------------------------------------------------------------
// E3 — the three fault waves (§2.1).
// ---------------------------------------------------------------------------
fn e3_waves(report: &mut JsonReport) {
    println!("## E3 — three-wave faulting: cold vs warm traversal\n");
    const CHAIN: usize = 10;

    let (areas, types, catalog, mgr) = segment_env(ProtectionPolicy::Protected, 8192);
    let node = types.register(TypeDesc {
        name: "E3Node".into(),
        size: 32,
        ref_offsets: vec![24],
    });
    // A chain crossing CHAIN distinct segments.
    let mut prev = None;
    let mut head = None;
    for _ in 0..CHAIN {
        let seg = mgr.create_segment(0, 8, 2).unwrap();
        let o = mgr.create_object(seg, node, 32).unwrap();
        if let Some(p) = prev {
            mgr.store_ref(p, 24, Some(o.addr)).unwrap();
        } else {
            head = Some(mgr.oid_of(o.addr).unwrap());
        }
        prev = Some(o.addr);
    }
    mgr.flush_all().expect("flush_all");

    let mgr2 = make_manager(&areas, &types, &catalog, ProtectionPolicy::Protected, 8192);
    let walk = |mgr: &Arc<bess_segment::SegmentManager>, start: bess_vm::VAddr| {
        let mut cursor = Some(start);
        let mut n = 0;
        while let Some(a) = cursor {
            n += 1;
            cursor = mgr.load_ref(a, 24).unwrap();
        }
        n
    };

    // The manager and its address space share one registry, so a single
    // snapshot covers both the vm.* fault counters and the seg.* waves.
    let reg = mgr2.metrics().registry();
    let before = reg.snapshot();
    let start = mgr2.resolve_oid(head.unwrap()).unwrap();
    let n = walk(&mgr2, start);
    let cold = reg.snapshot().delta(&before);
    assert_eq!(n, CHAIN);

    println!("| traversal | faults | wave1 reservations | wave2 slotted loads | wave3 data loads | DP fixups | refs swizzled |");
    println!("|---|---|---|---|---|---|---|");
    println!(
        "| cold ({CHAIN}-segment chain) | {} | {} | {} | {} | {} | {} |",
        cold.counter("vm.read_faults") + cold.counter("vm.write_faults"),
        cold.counter("seg.slotted_reserved"),
        cold.counter("seg.slotted_loads"),
        cold.counter("seg.data_loads"),
        cold.counter("seg.dp_fixups"),
        cold.counter("seg.refs_swizzled"),
    );
    let before = reg.snapshot();
    let n = walk(&mgr2, start);
    assert_eq!(n, CHAIN);
    let warm = reg.snapshot().delta(&before);
    let warm_faults = warm.counter("vm.read_faults") + warm.counter("vm.write_faults");
    println!("| warm (same chain) | {warm_faults} | 0 | 0 | 0 | 0 | 0 |\n");
    report.int(
        "E3",
        "cold_faults",
        cold.counter("vm.read_faults") + cold.counter("vm.write_faults"),
    );
    report.int("E3", "cold_wave1", cold.counter("seg.slotted_reserved"));
    report.int("E3", "cold_wave2", cold.counter("seg.slotted_loads"));
    report.int("E3", "cold_wave3", cold.counter("seg.data_loads"));
    report.int("E3", "warm_faults", warm_faults);
}

// ---------------------------------------------------------------------------
// E4 — on-the-fly reorganisation (§2.1).
// ---------------------------------------------------------------------------
fn e4_reorg(report: &mut JsonReport) {
    println!("## E4 — reorganisation with live references\n");
    let (_areas, types, catalog, mgr) = segment_env(ProtectionPolicy::Protected, 8192);
    let _ = (&types, &catalog);
    let seg = mgr.create_segment(0, 512, 32).unwrap();
    let mut objs = Vec::new();
    for i in 0..400u32 {
        let o = mgr.create_object(seg, TYPE_BYTES, 200).unwrap();
        mgr.write_object(o.addr, 0, &i.to_le_bytes()).unwrap();
        objs.push(o);
    }
    // Delete half to create holes.
    for o in objs.iter().step_by(2) {
        mgr.delete_object(o.addr).unwrap();
    }
    let verify = |tag: &str| {
        for (i, o) in objs.iter().enumerate() {
            if i % 2 == 1 {
                let d = mgr.read_object(o.addr).unwrap();
                assert_eq!(u32::from_le_bytes(d[0..4].try_into().unwrap()), i as u32, "{tag}");
            }
        }
    };

    println!("| operation | wall time | refs valid after |");
    println!("|---|---|---|");
    for (name, op) in [
        ("compact", Box::new(|| mgr.compact_segment(seg).unwrap()) as Box<dyn Fn()>),
        ("move to area 1", Box::new(|| mgr.move_data_segment(seg, 1).unwrap())),
        ("move back to area 0", Box::new(|| mgr.move_data_segment(seg, 0).unwrap())),
        ("resize (grow 2x)", Box::new(|| mgr.resize_data(seg, 32).unwrap())),
    ] {
        let t = Instant::now();
        op();
        let dt = t.elapsed();
        verify(name);
        println!("| {name} | {dt:?} | yes (200/200 objects) |");
        report.num(
            "E4",
            &format!("{}_ms", name.replace(' ', "_")),
            dt.as_secs_f64() * 1e3,
        );
    }
    println!();
}

// ---------------------------------------------------------------------------
// E5 — corruption prevention cost (§2.2).
// ---------------------------------------------------------------------------
fn e5_protection(report: &mut JsonReport) {
    println!("## E5 — protection: cost and coverage\n");
    println!("(workload: 2000 object create+delete pairs — every slot mutation");
    println!("unprotects and reprotects the slotted segment, §2.2)\n");
    println!("| policy | protect syscalls | protect cycles | stray writes caught | wall time |");
    println!("|---|---|---|---|---|");
    for policy in [ProtectionPolicy::Protected, ProtectionPolicy::Unprotected] {
        let (_areas, _t, _c, mgr) = segment_env(policy, 8192);
        let seg = mgr.create_segment(0, 128, 16).unwrap();
        let probe = mgr.create_object(seg, TYPE_BYTES, 64).unwrap();
        // One registry covers the manager (seg.*) and its address space
        // (vm.*), so a single delta yields both columns.
        let reg = mgr.metrics().registry();
        let before = reg.snapshot();
        let t = Instant::now();
        for k in 0..2000u64 {
            let o = mgr.create_object(seg, TYPE_BYTES, 64).unwrap();
            mgr.write_object(o.addr, 0, &k.to_le_bytes()).unwrap();
            mgr.delete_object(o.addr).unwrap();
        }
        let dt = t.elapsed();
        let d = reg.snapshot().delta(&before);
        // Fault-inject: one stray write aimed at a slot header.
        let caught = mgr.space().write_u64(probe.addr, 0xBAD).is_err();
        println!(
            "| {policy:?} | {} | {} | {} | {dt:?} |",
            d.counter("vm.protect_calls"),
            d.counter("seg.protect_cycles"),
            if caught { "yes" } else { "NO (silent corruption)" },
        );
        let tag = format!("{policy:?}").to_lowercase();
        report.int(
            "E5",
            &format!("{tag}_protect_calls"),
            d.counter("vm.protect_calls"),
        );
        report.num("E5", &format!("{tag}_ms"), dt.as_secs_f64() * 1e3);
    }
    println!();
}

// ---------------------------------------------------------------------------
// E8 — replacement hit rates: frame-state clock vs LRU vs FIFO.
// ---------------------------------------------------------------------------
struct LruSim {
    cap: usize,
    queue: Vec<usize>, // front = LRU
}

impl LruSim {
    fn access(&mut self, p: usize) -> bool {
        if let Some(pos) = self.queue.iter().position(|&q| q == p) {
            self.queue.remove(pos);
            self.queue.push(p);
            true
        } else {
            if self.queue.len() >= self.cap {
                self.queue.remove(0);
            }
            self.queue.push(p);
            false
        }
    }
}

struct FifoSim {
    cap: usize,
    queue: Vec<usize>,
}

impl FifoSim {
    fn access(&mut self, p: usize) -> bool {
        if self.queue.contains(&p) {
            true
        } else {
            if self.queue.len() >= self.cap {
                self.queue.remove(0);
            }
            self.queue.push(p);
            false
        }
    }
}

fn e8_hit_rates(report: &mut JsonReport) {
    println!("## E8 — replacement: frame-state clock vs LRU vs FIFO (cap 256 of 1024 pages, 20k accesses)\n");
    const N: usize = 1024;
    const CAP: usize = 256;
    const ACCESSES: usize = 20_000;

    let trace = |name: &str,
                 mut next: Box<dyn FnMut(&mut StdRng) -> usize>,
                 report: &mut JsonReport| {
        let mut r = rng(2024);
        // Clock (the real pool).
        let space = Arc::new(AddressSpace::new());
        let io = Arc::new(MapIo::new());
        let pool = PrivatePool::new(Arc::clone(&space), Arc::clone(&io) as Arc<dyn PageIo>, CAP);
        let ranges: Vec<VRange> = (0..N).map(|_| space.reserve(4096, None)).collect();
        for k in 0..ACCESSES {
            let i = next(&mut r);
            let _ = k;
            pool.fault_in(
                DbPage { area: 0, page: i as u64 },
                ranges[i].start(),
                Protect::Read,
            )
            .unwrap();
        }
        let snap = pool.metrics().registry().snapshot();
        let (hits, loads) = (
            snap.counter("cache.private.hits"),
            snap.counter("cache.private.loads"),
        );
        let clock_hit = hits as f64 / (hits + loads) as f64;

        // LRU and FIFO models on the same trace.
        let mut r = rng(2024);
        let mut lru = LruSim { cap: CAP, queue: Vec::new() };
        let mut lru_hits = 0;
        for _ in 0..ACCESSES {
            if lru.access(next(&mut r)) {
                lru_hits += 1;
            }
        }
        let mut r = rng(2024);
        let mut fifo = FifoSim { cap: CAP, queue: Vec::new() };
        let mut fifo_hits = 0;
        for _ in 0..ACCESSES {
            if fifo.access(next(&mut r)) {
                fifo_hits += 1;
            }
        }
        println!(
            "| {name} | {:.1}% | {:.1}% | {:.1}% |",
            clock_hit * 100.0,
            lru_hits as f64 / ACCESSES as f64 * 100.0,
            fifo_hits as f64 / ACCESSES as f64 * 100.0
        );
        report.num(
            "E8",
            &format!("{}_clock_hit_pct", name.replace(' ', "_")),
            clock_hit * 100.0,
        );
    };

    println!("| workload | clock (BeSS) | LRU | FIFO |");
    println!("|---|---|---|---|");
    let zipf = Zipf::new(N, 0.99);
    trace("zipf 0.99", Box::new(move |r| zipf.sample(r)), report);
    let hot = HotCold::new(N, 0.1, 0.8);
    trace("hotcold 80/10", Box::new(move |r| hot.sample(r)), report);
    trace(
        "uniform",
        Box::new(move |r| {
            use rand::Rng;
            r.gen_range(0..N)
        }),
        report,
    );
    let mut scan = Scan::new(N);
    trace("scan", Box::new(move |_| scan.sample()), report);
    println!();
}

// ---------------------------------------------------------------------------
// E9 — callback locking: inter-transaction caching vs per-transaction locks.
// ---------------------------------------------------------------------------
fn e9_callback(report: &mut JsonReport) {
    // Full sessions: inter-transaction caching covers data (pool) AND
    // locks (lock cache); callbacks keep both consistent (§3). The
    // shared-hot-object caching figure recorded in BENCH_report.json at
    // commit f445557 — the loss ROADMAP item 5 lists — stays pinned here: a
    // session's data cache is its private pool, which the page images of
    // `ClientConn` go around, so this experiment must not get *worse* and
    // whoever closes the loss shows it against this number.
    const SHARED_CACHING_RECORDED: f64 = 23.4;
    println!("## E9 — callback locking: messages per transaction (100 txns, 8 object reads + 1 write)\n");
    println!("| sharing | client mode | messages/txn | callbacks | server locks granted |");
    println!("|---|---|---|---|---|");

    for (label, shared_writer) in [("private (no sharing)", false), ("shared hot object", true)] {
        for caching in [true, false] {
            let world = World::new(&[&[0]], Duration::ZERO);
            // Bootstrap a database with 64 objects, embedded at the server.
            let set = Arc::clone(&world.area_sets[0]);
            let db = bess_core::Database::create(&*set, "e9", 1, 1, 0).unwrap();
            let boot = bess_core::Session::embedded(
                Arc::clone(&db),
                Arc::clone(&set),
                None,
                None,
                bess_core::SessionConfig::default(),
            );
            boot.begin().unwrap();
            let seg = boot.create_segment(0, 128, 32).unwrap();
            let objs: Vec<_> = (0..64)
                .map(|_| boot.create_bytes(seg, &[0u8; 512]).unwrap())
                .collect();
            let oids: Vec<_> = objs
                .iter()
                .map(|r| boot.global(*r).unwrap().oid())
                .collect();
            boot.commit().unwrap();
            boot.save_db().unwrap();

            let mk_session = |node: u32, caching: bool| {
                let db = bess_core::Database::open(&*set, 0).unwrap();
                let mut cfg = bess_server::ClientConfig::new(
                    bess_net::NodeId(node),
                    world.servers[0].node(),
                );
                cfg.caching = caching;
                let conn = bess_server::ClientConn::connect(
                    &world.net,
                    Arc::clone(&world.dir),
                    cfg,
                );
                bess_core::Session::remote(db, conn, bess_core::SessionConfig::default())
            };
            let s = mk_session(1, caching);
            let competitor = shared_writer.then(|| mk_session(2, true));

            let mut r = rng(7);
            let hot = HotCold::new(64, 0.25, 0.9);
            let wreg = world.metrics();
            let before = wreg.snapshot();
            const TXNS: usize = 100;
            for t in 0..TXNS {
                loop {
                    s.begin().unwrap();
                    let run = (|| -> Result<(), bess_core::BessError> {
                        let mut touched = Vec::new();
                        for _ in 0..8 {
                            let oid = oids[hot.sample(&mut r)];
                            let addr = s.manager().resolve_oid(oid)?;
                            let _ = s.manager().read_object(addr)?;
                            touched.push(addr);
                        }
                        s.manager()
                            .write_object(touched[0], 0, &(t as u64).to_le_bytes())?;
                        Ok(())
                    })();
                    match run {
                        Ok(()) => {
                            if s.commit().is_ok() {
                                break;
                            }
                        }
                        Err(_) => {
                            let _ = s.abort();
                        }
                    }
                }
                if let Some(comp) = &competitor {
                    if t % 10 == 0 {
                        comp.begin().unwrap();
                        if let Ok(addr) = comp.manager().resolve_oid(oids[0]) {
                            let _ =
                                comp.manager().write_object(addr, 8, &(t as u64).to_le_bytes());
                        }
                        let _ = comp.commit();
                    }
                }
            }
            let snap = wreg.snapshot();
            let d = snap.delta(&before);
            // A call is two messages on the wire (request + reply).
            let messages = d.counter("net.sends") + 2 * d.counter("net.calls");
            println!(
                "| {label} | {} | {:.1} | {} | {} |",
                if caching { "callback caching" } else { "per-txn locks (C2PL)" },
                messages as f64 / TXNS as f64,
                snap.counter("s0.server.callbacks_sent"),
                snap.counter("s0.server.locks_granted") + snap.counter("s0.server.fetches"),
            );
            report.num(
                "E9",
                &format!(
                    "{}_{}_msgs_per_txn",
                    if shared_writer { "shared" } else { "private" },
                    if caching { "caching" } else { "c2pl" }
                ),
                messages as f64 / TXNS as f64,
            );
            if shared_writer && caching {
                let per_txn = messages as f64 / TXNS as f64;
                assert!(
                    per_txn <= SHARED_CACHING_RECORDED,
                    "E9 gate: shared hot object under callback caching costs {per_txn:.1} \
                     msgs/txn, recorded baseline {SHARED_CACHING_RECORDED:.1}"
                );
            }
        }
    }
    println!(
        "\nRecorded baseline for shared hot object / callback caching: \
         {SHARED_CACHING_RECORDED:.1} msgs/txn (gated: not above it).\n"
    );
}

// ---------------------------------------------------------------------------
// E17 (ablation) — deadlock resolution: the paper's timeouts vs a
// waits-for-graph detector.
// ---------------------------------------------------------------------------
fn e17_deadlock_policy(report: &mut JsonReport) {
    use bess_lock::{DeadlockPolicy, LockManager, LockMode, LockName, TxnId};
    println!("## E17 — deadlock resolution: timeout (paper) vs waits-for detection (ablation)\n");
    println!("| policy | resolution latency (2-txn cycle) | victim work wasted |");
    println!("|---|---|---|");
    for (label, policy, timeout) in [
        ("timeout 100ms (paper §3)", DeadlockPolicy::Timeout, Duration::from_millis(100)),
        ("timeout 500ms (paper §3)", DeadlockPolicy::Timeout, Duration::from_millis(500)),
        ("waits-for detection", DeadlockPolicy::Detect, Duration::from_secs(5)),
    ] {
        let mut total = Duration::ZERO;
        const ROUNDS: u32 = 5;
        for r in 0..ROUNDS {
            let m = Arc::new(LockManager::with_policy(timeout, policy));
            let p1 = LockName::Page { area: 0, page: u64::from(r) * 2 };
            let p2 = LockName::Page { area: 0, page: u64::from(r) * 2 + 1 };
            m.lock(TxnId(1), p1, LockMode::X).unwrap();
            m.lock(TxnId(2), p2, LockMode::X).unwrap();
            let m1 = Arc::clone(&m);
            let h = std::thread::spawn(move || {
                let _ = m1.lock(TxnId(1), p2, LockMode::X);
            });
            std::thread::sleep(Duration::from_millis(20));
            let t0 = Instant::now();
            let _ = m.lock(TxnId(2), p1, LockMode::X); // closes the cycle
            total += t0.elapsed();
            m.unlock_all(TxnId(2));
            h.join().unwrap();
            m.unlock_all(TxnId(1));
        }
        println!(
            "| {label} | {:?} | {} |",
            total / ROUNDS,
            if policy == DeadlockPolicy::Detect {
                "none (refused before waiting)"
            } else {
                "one full timeout of blocking"
            }
        );
        report.int(
            "E17",
            &format!(
                "{}_resolution_ns",
                if policy == DeadlockPolicy::Detect {
                    "detect".to_string()
                } else {
                    format!("timeout{}ms", timeout.as_millis())
                }
            ),
            (total / ROUNDS).as_nanos() as u64,
        );
    }
    println!();
}

// ---------------------------------------------------------------------------
// E10 — two-phase commit across servers.
// ---------------------------------------------------------------------------
fn e10_two_pc(report: &mut JsonReport) {
    // Recorded in BENCH_report.json at commit f445557, when the caching
    // client kept its X locks between transactions but re-read every page
    // it had the lock for. With the page image on the cached lock that
    // `ReadPage` round trip per server is gone.
    const LOCKS_ONLY_RECORDED: [f64; 4] = [6.0, 11.1, 16.1, 21.1];
    println!("## E10 — distributed commit: cost vs participating servers (30us wire latency)\n");
    println!("| servers | recorded msgs/commit (locks cached, data re-read) | messages/commit | wall time/commit |");
    println!("|---|---|---|---|");
    for (n_servers, base) in (1usize..).zip(LOCKS_ONLY_RECORDED) {
        let area_lists: Vec<Vec<u32>> = (0..n_servers).map(|i| vec![i as u32]).collect();
        let refs: Vec<&[u32]> = area_lists.iter().map(|v| v.as_slice()).collect();
        let world = World::new(&refs, Duration::from_micros(30));
        let pages: Vec<DbPage> = (0..n_servers)
            .map(|i| {
                let seg = world.area_sets[i].get(i as u32).unwrap().alloc(1).unwrap();
                DbPage { area: i as u32, page: seg.start_page }
            })
            .collect();
        let c = world.client(1, true);
        const TXNS: usize = 20;
        let wreg = world.metrics();
        let before = wreg.snapshot();
        let t0 = Instant::now();
        for t in 0..TXNS {
            c.begin().unwrap();
            let mut updates = Vec::new();
            for p in &pages {
                let d = c.fetch_page(*p, LockMode::X).unwrap();
                updates.push(PageUpdate {
                    page: *p,
                    offset: 0,
                    before: d[0..8].to_vec(),
                    after: (t as u64).to_le_bytes().to_vec(),
                });
            }
            c.commit(updates).unwrap();
        }
        let wall = t0.elapsed() / TXNS as u32;
        let d = wreg.snapshot().delta(&before);
        let messages = d.counter("net.sends") + 2 * d.counter("net.calls");
        let per_commit = messages as f64 / TXNS as f64;
        println!("| {n_servers} | {base:.1} | {per_commit:.1} | {wall:?} |");
        assert!(
            per_commit < base,
            "E10 gate: {per_commit:.1} msgs/commit at {n_servers} servers, recorded baseline {base:.1}"
        );
        report.num(
            "E10",
            &format!("servers{n_servers}_msgs_per_commit"),
            messages as f64 / TXNS as f64,
        );
        report.int(
            "E10",
            &format!("servers{n_servers}_wall_ns_per_commit"),
            wall.as_nanos() as u64,
        );
    }
    println!();
}

// ---------------------------------------------------------------------------
// E18 — restart recovery under deterministic crash injection.
// ---------------------------------------------------------------------------
fn e18_recovery_under_faults(report: &mut JsonReport) {
    use bess_storage::{FaultDisk, FaultKind, FaultPlan, OpClass};
    use bess_wal::{recover, take_checkpoint, LogBody, LogManager, LogPageId, Lsn, MemTarget};

    println!("## E18 — restart recovery under injected crashes\n");
    println!(
        "Eight transactions (seven commit, one loser), a fuzzy checkpoint \
         after the fourth; the log runs on a fault-injecting disk and is \
         crashed at every write. Restart then eats an injected read EIO on \
         its first attempt wherever the log is long enough to reach it.\n"
    );

    let page = |p: u64| LogPageId { area: 0, page: p };
    let workload = |log: &LogManager| -> Result<(), bess_wal::WalError> {
        for t in 1..=8u64 {
            let b = log.append(t, Lsn::NULL, LogBody::Begin);
            let u = log.append(
                t,
                b,
                LogBody::Update {
                    page: page(t % 4),
                    offset: 0,
                    before: vec![0; 8],
                    after: vec![t as u8; 8],
                },
            );
            if t != 8 {
                log.append(t, u, LogBody::Commit);
            }
            log.flush_all()?;
            if t == 4 {
                take_checkpoint(log, vec![], vec![])?;
            }
        }
        Ok(())
    };

    // Calibrate: how many log writes does the fault-free workload issue?
    let total_writes = {
        let disk = FaultDisk::new(FaultPlan::unarmed());
        let log = LogManager::create_faulty(Arc::clone(&disk)).unwrap();
        log.set_master(Lsn::NULL).unwrap();
        let plan = FaultPlan::unarmed();
        disk.arm(Arc::clone(&plan));
        workload(&log).unwrap();
        plan.ops(OpClass::Write)
    };

    println!("| crash at log write | scanned | winners | losers | redone | undone | restart attempts |");
    println!("|---|---|---|---|---|---|---|");
    for nth in 0..total_writes {
        let disk = FaultDisk::new(FaultPlan::unarmed());
        let log = LogManager::create_faulty(Arc::clone(&disk)).unwrap();
        log.set_master(Lsn::NULL).unwrap();
        disk.arm(FaultPlan::armed(OpClass::Write, nth, FaultKind::Crash));
        let _ = workload(&log); // dies at the injected crash
        disk.crash();

        // Restart: the first attempt runs with a read fault armed; every
        // failure is followed by another crash and a clean retry.
        disk.reopen(FaultPlan::armed(OpClass::Read, 2, FaultKind::Eio));
        let mut attempts = 1u32;
        let rep = loop {
            let res = LogManager::open_faulty(Arc::clone(&disk)).and_then(|log| {
                let mut target = MemTarget::default();
                recover(&log, &mut target)
            });
            match res {
                Ok(r) => break r,
                Err(_) => {
                    attempts += 1;
                    disk.crash();
                    disk.reopen(FaultPlan::unarmed());
                }
            }
        };
        println!(
            "| {nth} | {} | {} | {} | {} | {} | {attempts} |",
            rep.scanned,
            rep.winners.len(),
            rep.losers.len(),
            rep.redone,
            rep.undone,
        );
    }

    // And one crash *after* the final flush: the loser's records are
    // durable, so restart must actually undo it.
    let disk = FaultDisk::new(FaultPlan::unarmed());
    let log = LogManager::create_faulty(Arc::clone(&disk)).unwrap();
    log.set_master(Lsn::NULL).unwrap();
    workload(&log).unwrap();
    disk.crash();
    disk.reopen(FaultPlan::unarmed());
    let log = LogManager::open_faulty(Arc::clone(&disk)).unwrap();
    let mut target = MemTarget::default();
    let rep = recover(&log, &mut target).unwrap();
    println!(
        "| after final flush | {} | {} | {} | {} | {} | 1 |",
        rep.scanned,
        rep.winners.len(),
        rep.losers.len(),
        rep.redone,
        rep.undone,
    );
    report.int("E18", "crash_points", total_writes);
    report.int("E18", "final_scanned", rep.scanned);
    report.int("E18", "final_winners", rep.winners.len() as u64);
    report.int("E18", "final_losers", rep.losers.len() as u64);
    report.int("E18", "final_redone", rep.redone);
    report.int("E18", "final_undone", rep.undone);
    println!();
}

// ---------------------------------------------------------------------------
// E19 — failure containment in the client-server layer: idempotent retry,
// commit dedup, and dead-client lease reclamation.
// ---------------------------------------------------------------------------
fn e19_failure_containment(report: &mut JsonReport) {
    use bess_net::{NetFaultKind, NetFaultPlan, NodeId};
    use bess_server::{ClientConfig, ClientConn, PageUpdate};
    use std::time::Duration;

    println!("## E19 — failure containment: retry, commit dedup, dead-client reclamation\n");
    println!(
        "One client runs `begin; fetch(X); commit` against one server with a \
         deterministic network fault armed at a chosen outbound message \
         (msg 1 is the commit). After the workload the client's lease is \
         force-expired, standing in for a crashed workstation.\n"
    );

    // Client message layout for this workload: 0 FetchPage (announcing the
    // transaction), 1 Commit. The release is owed, and the cable is pulled
    // before the tick or the disconnect could pay it.
    let run = |fault: Option<(u64, NetFaultKind)>, die_before_commit: bool| {
        let world = World::new(&[&[0]], Duration::ZERO);
        let seg = world.area_sets[0].get(0).unwrap().alloc(1).unwrap();
        let page = bess_cache::DbPage { area: 0, page: seg.start_page };
        let plan = match fault {
            Some((at, kind)) => NetFaultPlan::armed_from(NodeId(1), at, kind),
            None => NetFaultPlan::unarmed(),
        };
        world.net.arm(Arc::clone(&plan));
        let mut cfg = ClientConfig::new(NodeId(1), world.servers[0].node());
        cfg.caching = false;
        cfg.rpc_timeout = Duration::from_millis(200);
        cfg.heartbeat_interval = Duration::from_secs(60);
        cfg.retry_base = Duration::from_millis(1);
        let client = ClientConn::connect(&world.net, Arc::clone(&world.dir), cfg);
        let committed = (|| -> Result<(), bess_server::ClientError> {
            client.begin()?;
            client.fetch_page(page, bess_lock::LockMode::X)?;
            if die_before_commit {
                return Ok(());
            }
            client.commit(vec![PageUpdate {
                page,
                offset: 0,
                before: vec![0; 2],
                after: b"cc".to_vec(),
            }])
        })()
        .is_ok()
            && !die_before_commit;
        // The "machine" goes away; the server reclaims whatever is left.
        world.net.partition(NodeId(1));
        client.disconnect();
        world.servers[0].expire_lease(NodeId(1));
        let srv = world.metrics().snapshot();
        let cli = client.metrics().registry().snapshot();
        (committed, cli, srv, world)
    };

    println!("| scenario | committed | client retries | dedup hits | server commits | locks reclaimed |");
    println!("|---|---|---|---|---|---|");
    for (label, fault, die) in [
        ("clean run", None, false),
        ("commit request dropped", Some((1, NetFaultKind::Drop)), false),
        ("commit reply lost", Some((1, NetFaultKind::DropReply)), false),
        ("commit duplicated on the wire", Some((1, NetFaultKind::Duplicate)), false),
        ("client dies holding an X lock", None, true),
    ] {
        let (committed, cli, srv, world) = run(fault, die);
        println!(
            "| {label} | {} | {} | {} | {} | {} |",
            if committed { "yes" } else { "no (reaped)" },
            cli.counter("client.retries"),
            srv.counter("s0.server.dedup_hits"),
            srv.counter("s0.server.commits"),
            world.servers[0].locks_held_by(bess_net::NodeId(1)).is_empty(),
        );
        let tag = label.replace(' ', "_");
        report.int("E19", &format!("{tag}.committed"), u64::from(committed));
        report.int("E19", &format!("{tag}.retries"), cli.counter("client.retries"));
        report.int(
            "E19",
            &format!("{tag}.dedup_hits"),
            srv.counter("s0.server.dedup_hits"),
        );
    }
    println!();

    // Graceful degradation: the two rejection ladders.
    let world = World::new(&[&[0]], Duration::ZERO);
    let client = {
        let mut cfg = ClientConfig::new(NodeId(1), world.servers[0].node());
        cfg.caching = false;
        ClientConn::connect(&world.net, Arc::clone(&world.dir), cfg)
    };
    let seg = world.area_sets[0].get(0).unwrap().alloc(1).unwrap();
    let page = bess_cache::DbPage { area: 0, page: seg.start_page };
    // A new transaction is refused at its first request, which announces it.
    world.servers[0].set_draining(true);
    client.begin().unwrap();
    let drained = client.fetch_page(page, bess_lock::LockMode::X).is_err();
    client.abort().unwrap();
    world.servers[0].set_draining(false);
    world.servers[0].set_read_only(true);
    client.begin().unwrap();
    client.fetch_page(page, bess_lock::LockMode::X).unwrap();
    let rejected = client
        .commit(vec![PageUpdate { page, offset: 0, before: vec![0; 2], after: b"xx".to_vec() }])
        .is_err();
    world.servers[0].set_read_only(false);
    client.disconnect();
    let srv = world.metrics().snapshot();
    println!("| degraded mode | new txn rejected | mutation rejected | counter |");
    println!("|---|---|---|---|");
    println!(
        "| draining | {drained} | n/a | drain_rejections = {} |",
        srv.counter("s0.server.drain_rejections")
    );
    println!(
        "| read-only | n/a | {rejected} | read_only_rejections = {} |",
        srv.counter("s0.server.read_only_rejections")
    );
    println!();
}

// ---------------------------------------------------------------------------
// E20 — instrumentation overhead: the observability layer's own cost.
// ---------------------------------------------------------------------------
fn e20_obs_overhead(report: &mut JsonReport) {
    use bess_wal::{LogBody, LogManager, LogPageId, Lsn};
    println!("## E20 — instrumentation overhead: WAL append with timing on vs off\n");
    const OPS: u64 = 200_000;
    let run = |timing: bool| -> f64 {
        let log = LogManager::create_mem();
        log.metrics().registry().set_timing(timing);
        let t0 = Instant::now();
        let mut prev = Lsn::NULL;
        for i in 0..OPS {
            prev = log.append(
                1,
                prev,
                LogBody::Update {
                    page: LogPageId { area: 0, page: i % 64 },
                    offset: 0,
                    before: vec![0; 8],
                    after: vec![1; 8],
                },
            );
        }
        OPS as f64 / t0.elapsed().as_secs_f64()
    };
    // Alternate the two configurations and keep the best pass of each, so
    // scheduler noise doesn't masquerade as instrumentation cost.
    let _ = run(true);
    let _ = run(false);
    let (mut on, mut off) = (0.0f64, 0.0f64);
    for _ in 0..5 {
        on = on.max(run(true));
        off = off.max(run(false));
    }
    let overhead = ((off - on) / off * 100.0).max(0.0);
    println!("| timing | appends/sec |");
    println!("|---|---|");
    println!("| on (sampled 1-in-16) | {on:.0} |");
    println!("| off (`set_timing(false)`) | {off:.0} |");
    println!(
        "| overhead | {overhead:.1}% (target <=5%) |\n"
    );
    report.num("E20", "appends_per_sec_timing_on", on);
    report.num("E20", "appends_per_sec_timing_off", off);
    report.num("E20", "overhead_pct", overhead);
    report.text("E20", "target", "<=5%");
}

// ---------------------------------------------------------------------------
// E21 — group commit: multi-threaded commit throughput of the leader-elected
// batched log force, beside the recorded per-commit-forcing figures.
// ---------------------------------------------------------------------------
fn e21_group_commit(report: &mut JsonReport) {
    use bess_wal::{LogBody, LogManager, LogPageId, Lsn};

    println!("## E21 — group commit: batched log force vs per-commit fsync\n");
    // The memory backend charges a fixed latency per sync — the proxy for a
    // device fsync, so batching shows up in wall-clock and not only in the
    // fsync count.
    const SYNC_COST: Duration = Duration::from_micros(100);
    const COMMITS_PER_THREAD: u64 = 200;
    // Per-commit forcing (one write + sync per `flush`, serialized under
    // the log's state lock) is gone from the tree; its figures are the ones
    // recorded in BENCH_report.json at commit 3f73e35, the last that could
    // run it: (threads, commits/sec, fsyncs/commit). The throughput is that
    // machine's and is printed for scale, not gated.
    const SOLO: [(u64, f64, f64); 4] = [
        (1, 5542.0, 1.000),
        (4, 5779.0, 0.956),
        (16, 5528.0, 0.932),
        (64, 5527.0, 0.925),
    ];

    // One thread-count's run; returns (tps, fsyncs/commit).
    let run = |threads: u64| -> (f64, f64) {
        let log = Arc::new(LogManager::create_mem_slow(SYNC_COST));
        let barrier = Arc::new(std::sync::Barrier::new(threads as usize + 1));
        let workers: Vec<_> = (0..threads)
            .map(|t| {
                let log = Arc::clone(&log);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    let mut prev = Lsn::NULL;
                    let txn = t + 1;
                    for _ in 0..COMMITS_PER_THREAD {
                        let u = log.append(
                            txn,
                            prev,
                            LogBody::Update {
                                page: LogPageId { area: 0, page: t % 64 },
                                offset: 0,
                                before: vec![0; 16],
                                after: vec![1; 16],
                            },
                        );
                        let c = log.append(txn, u, LogBody::Commit);
                        log.flush(c).unwrap();
                        prev = c;
                    }
                })
            })
            .collect();
        barrier.wait();
        let t0 = Instant::now();
        for w in workers {
            w.join().unwrap();
        }
        let secs = t0.elapsed().as_secs_f64();
        let commits = (threads * COMMITS_PER_THREAD) as f64;
        let fsyncs = log.stats().flushes.get() as f64;
        (commits / secs, fsyncs / commits)
    };

    println!("| threads | recorded solo tps | group tps | speedup | recorded solo fsync/commit | group fsync/commit |");
    println!("|---|---|---|---|---|---|");
    for (threads, solo_tps, solo_ratio) in SOLO {
        let (group_tps, group_ratio) = run(threads);
        let speedup = group_tps / solo_tps;
        println!(
            "| {threads} | {solo_tps:.0} | {group_tps:.0} | {speedup:.2}x | \
             {solo_ratio:.3} | {group_ratio:.3} |"
        );
        let sec = "E21";
        report.num(sec, &format!("t{threads}.solo_commits_per_sec"), solo_tps);
        report.num(sec, &format!("t{threads}.group_commits_per_sec"), group_tps);
        report.num(sec, &format!("t{threads}.speedup"), speedup);
        report.num(sec, &format!("t{threads}.solo_fsyncs_per_commit"), solo_ratio);
        report.num(sec, &format!("t{threads}.group_fsyncs_per_commit"), group_ratio);
        // Committers per sync is a count, not a speed: the one figure here
        // that does not depend on the host.
        assert!(
            threads < 16 || group_ratio < 0.5,
            "E21 gate: {group_ratio:.3} fsyncs/commit at {threads} threads (budget <0.5)"
        );
    }
    report.text(
        "E21",
        "target",
        "<0.5 fsyncs/commit at 16+ threads (gated); solo columns recorded at 3f73e35",
    );
    println!(
        "\n(fsync proxy: {}us charged per sync on the memory backend; \
         solo = per-commit forcing as recorded, group = leader-elected batched force)\n",
        SYNC_COST.as_micros()
    );
}

// ---------------------------------------------------------------------------
// Hot-path latency summary: drive each instrumented path briefly, merge the
// registries' snapshots, and print p50/p99 for every `*.ns` histogram.
// ---------------------------------------------------------------------------
// ---------------------------------------------------------------------------
// E22 — the production workload harness (smoke profile): scenario-diverse
// load with SLO verdicts. `DESIGN.md` §14 describes the harness; the
// standalone `scenarios` binary runs the full profile and gates CI.
// ---------------------------------------------------------------------------
fn e22_scenarios(report: &mut JsonReport) {
    use bess_bench::scenario::{e22_entries, run_all, Profile, ScenarioCfg};

    println!("## E22 — workload harness: scenario SLO verdicts (smoke profile)\n");
    let cfg = ScenarioCfg::new(Profile::Smoke);
    let results = run_all(&cfg);
    println!("| scenario | ops | wall ms | digest | verdict |");
    println!("|---|---|---|---|---|");
    for r in &results {
        println!(
            "| {} | {} | {} | {:016x} | {} |",
            r.name,
            r.ops,
            r.wall_ms,
            r.digest,
            r.verdict()
        );
    }
    println!();
    for (key, value) in e22_entries(&cfg, &results) {
        report.raw("E22", &key, value);
    }
}

fn e24_batched_io(report: &mut JsonReport) {
    use bess_io::{MemDevice, SlowDevice};
    use bess_storage::{AreaConfig, AreaId, StorageArea};

    println!("## E24 — batched reads on a slow backend: one submission vs N serial waits (gate ≥ 2x)\n");
    const BATCH: usize = 8;
    const READ_DELAY: Duration = Duration::from_millis(2);

    // An area on the latency-injecting proxy. Its queue measures the
    // injected per-read wait and, above 50 µs, fans a run of reads out.
    let dev = SlowDevice::new(
        MemDevice::new(),
        READ_DELAY,
        Duration::ZERO,
        Duration::ZERO,
    );
    let area = StorageArea::create_on_device(AreaId(0), AreaConfig::default(), dev).unwrap();

    let mut pages = Vec::with_capacity(BATCH);
    while pages.len() < BATCH {
        let ptr = area.alloc(64).unwrap();
        for p in 0..u64::from(ptr.pages) {
            pages.push(ptr.start_page + p);
        }
    }
    pages.truncate(BATCH);
    let data = vec![7u8; area.page_size()];
    for &p in &pages {
        area.write_page(p, &data).unwrap();
    }

    // Best-of-three per shape: the delays dominate, so one clean
    // observation of each is representative.
    let sequential_ms = (0..3)
        .map(|_| {
            let mut buf = vec![0u8; area.page_size()];
            let started = Instant::now();
            for &p in &pages {
                area.read_page(p, &mut buf).unwrap();
            }
            started.elapsed().as_secs_f64() * 1e3
        })
        .fold(f64::MAX, f64::min);
    let batched_ms = (0..3)
        .map(|_| {
            let started = Instant::now();
            for res in area.read_pages_batch(&pages) {
                res.unwrap();
            }
            started.elapsed().as_secs_f64() * 1e3
        })
        .fold(f64::MAX, f64::min);

    let speedup = sequential_ms / batched_ms;
    let verdict = if speedup >= 2.0 { "pass" } else { "fail" };
    println!("| shape | wall time |");
    println!("|---|---|");
    println!("| {BATCH} serial read_page ({}ms injected each) | {sequential_ms:.1}ms |", READ_DELAY.as_millis());
    println!("| read_pages_batch of {BATCH} (one executor) | {batched_ms:.1}ms |");
    println!("\nspeedup {speedup:.1}x, gate 2x: {verdict}\n");

    report.num("E24", "batch_size", BATCH as f64);
    report.num("E24", "read_delay_ms", READ_DELAY.as_millis() as f64);
    report.num("E24", "sequential.ms", sequential_ms);
    report.num("E24", "batched.ms", batched_ms);
    report.num("E24", "speedup", speedup);
    report.text("E24", "verdict", verdict);
}

fn hot_path_latencies(report: &mut JsonReport) {
    use bess_cache::{GetOutcome, SharedCache};
    use bess_lock::{LockManager, LockName, TxnId};
    use bess_wal::{LogBody, LogManager, LogPageId, Lsn};

    println!("## Hot-path latencies (bess-obs histograms, p50/p99)\n");
    let mut merged = RegistrySnapshot::default();

    // WAL: appends (sampled 1-in-16) and flushes.
    let log = LogManager::create_mem();
    let mut prev = Lsn::NULL;
    for i in 0..4096u64 {
        prev = log.append(
            1,
            prev,
            LogBody::Update {
                page: LogPageId { area: 0, page: i % 64 },
                offset: 0,
                before: vec![0; 8],
                after: vec![1; 8],
            },
        );
        if i % 256 == 255 {
            log.flush_all().unwrap();
        }
    }
    merged.merge("", &log.metrics().registry().snapshot());

    // VM fault waves + private-pool fault-ins: a cold chain traversal.
    {
        let (areas, types, catalog, mgr) = segment_env(ProtectionPolicy::Protected, 8192);
        let node = types.register(TypeDesc {
            name: "HotNode".into(),
            size: 32,
            ref_offsets: vec![24],
        });
        let mut prev = None;
        let mut head = None;
        for _ in 0..32 {
            let seg = mgr.create_segment(0, 8, 2).unwrap();
            let o = mgr.create_object(seg, node, 32).unwrap();
            if let Some(p) = prev {
                mgr.store_ref(p, 24, Some(o.addr)).unwrap();
            } else {
                head = Some(mgr.oid_of(o.addr).unwrap());
            }
            prev = Some(o.addr);
        }
        mgr.flush_all().unwrap();
        let mgr2 = make_manager(&areas, &types, &catalog, ProtectionPolicy::Protected, 8192);
        let mut cursor = Some(mgr2.resolve_oid(head.unwrap()).unwrap());
        while let Some(a) = cursor {
            cursor = mgr2.load_ref(a, 24).unwrap();
        }
        merged.merge("", &mgr2.metrics().registry().snapshot());
    }

    // Lock waits: two threads trading an exclusive page lock.
    {
        let m = Arc::new(LockManager::new(Duration::from_secs(5)));
        let name = LockName::Page { area: 0, page: 0 };
        for round in 0..32u64 {
            m.lock(TxnId(1), name, LockMode::X).unwrap();
            let m2 = Arc::clone(&m);
            let h = std::thread::spawn(move || {
                m2.lock(TxnId(2), name, LockMode::X).unwrap();
                m2.unlock_all(TxnId(2));
            });
            std::thread::sleep(Duration::from_micros(50 + round % 7));
            m.unlock_all(TxnId(1));
            h.join().unwrap();
        }
        merged.merge("", &m.metrics().registry().snapshot());
    }

    // Shared-cache lookups (sampled 1-in-8).
    {
        // Vframes are PVMA-style permanent assignments, so size the table
        // for every distinct page the loop touches.
        let cache = SharedCache::new(64, 128, 4096);
        for i in 0..2048u64 {
            let page = DbPage { area: 0, page: i % 96 };
            let slot = match cache.get(page).unwrap() {
                GetOutcome::Resident { slot, .. } => slot,
                GetOutcome::MustLoad { slot, .. } => {
                    cache.finish_load(slot, page);
                    slot
                }
            };
            // Drop the access reference right away (first-level clock
            // invalidation) so the slot stays evictable.
            cache.dec_access(slot);
        }
        merged.merge("", &cache.metrics().registry().snapshot());
    }

    // Client/server round-trips and commits.
    {
        let world = World::new(&[&[0]], Duration::ZERO);
        let seg = world.area_sets[0].get(0).unwrap().alloc(1).unwrap();
        let page = DbPage { area: 0, page: seg.start_page };
        let client = world.client(1, true);
        for t in 0..64u64 {
            client.begin().unwrap();
            let d = client.fetch_page(page, LockMode::X).unwrap();
            client
                .commit(vec![PageUpdate {
                    page,
                    offset: 0,
                    before: d[0..8].to_vec(),
                    after: t.to_le_bytes().to_vec(),
                }])
                .unwrap();
        }
        merged.merge("", &world.metrics().snapshot());
        merged.merge("", &client.metrics().registry().snapshot());
    }

    println!("| metric | samples | p50 | p99 |");
    println!("|---|---|---|---|");
    latency_rows(&merged, report, "hot_paths");
    println!();
}

// ---------------------------------------------------------------------------
// E25 — sublinear distributed commit: presumed commit, read-only voters,
// coordinator batching, piggybacked control traffic.
// ---------------------------------------------------------------------------
fn e25_sublinear_2pc(report: &mut JsonReport) {
    use bess_server::ClientOpts;

    // The presumed-abort protocol this experiment was first measured
    // against (serial ship-then-commit client, serial unbatched phase 1,
    // acked decides) is gone from the tree; its figures are the ones
    // recorded in BENCH_report.json at commit 9ad1de4, the last that could
    // run it. Message counts are exact; the throughput figure is that
    // machine's and is printed for scale, not gated.
    const BASE_WRITTEN_MSGS: [f64; 4] = [8.0, 22.0, 32.0, 42.0];
    const BASE_READ_MOSTLY_MSGS: [f64; 4] = [8.0, 12.0, 16.0, 20.0];
    const BASE_COMMITS_PER_SEC: f64 = 374.0;

    println!("## E25 — sublinear distributed commit\n");
    println!(
        "Presumed-commit one-way decides, batched concurrent phase 1, \
         read-only participant votes, every branch and the next global id \
         riding the `CommitGlobal` frame, plus the client opts \
         (`ClientOpts::turbo`): deferred release trailers, \
         read-only participants releasing locks at their vote. \
         Non-caching clients throughout. Baseline columns are the \
         recorded figures of the retired presumed-abort protocol.\n"
    );

    // ---- A: messages per commit vs participating servers -----------------
    let run_msgs = |n_servers: usize, read_mostly: bool| -> (f64, Duration) {
        let area_lists: Vec<Vec<u32>> = (0..n_servers).map(|i| vec![i as u32]).collect();
        let refs: Vec<&[u32]> = area_lists.iter().map(|v| v.as_slice()).collect();
        let world = World::new(&refs, Duration::from_micros(30));
        let pages: Vec<DbPage> = (0..n_servers)
            .map(|i| {
                let seg = world.area_sets[i].get(i as u32).unwrap().alloc(1).unwrap();
                DbPage { area: i as u32, page: seg.start_page }
            })
            .collect();
        let c = world.client_with_opts(1, false, ClientOpts::turbo());
        const WARMUP: usize = 3;
        const TXNS: usize = 16;
        let wreg = world.metrics();
        let mut before = wreg.snapshot();
        let mut t0 = Instant::now();
        for t in 0..WARMUP + TXNS {
            if t == WARMUP {
                before = wreg.snapshot();
                t0 = Instant::now();
            }
            c.begin().unwrap();
            let mut updates = Vec::new();
            for (i, p) in pages.iter().enumerate() {
                let write = !read_mostly || i == 0;
                let mode = if write { LockMode::X } else { LockMode::S };
                let d = c.fetch_page(*p, mode).unwrap();
                if write {
                    updates.push(PageUpdate {
                        page: *p,
                        offset: 0,
                        before: d[0..8].to_vec(),
                        after: (t as u64).to_le_bytes().to_vec(),
                    });
                }
            }
            c.commit(updates).unwrap();
        }
        let wall = t0.elapsed() / TXNS as u32;
        let d = wreg.snapshot().delta(&before);
        let msgs = d.counter("net.sends") + 2 * d.counter("net.calls");
        c.disconnect();
        (msgs as f64 / TXNS as f64, wall)
    };

    println!("### E25a — every server written (the E10 workload, 30us wire latency)\n");
    println!("| servers | recorded baseline msgs/commit | msgs/commit | wall |");
    println!("|---|---|---|---|");
    for (n, base) in (1usize..).zip(BASE_WRITTEN_MSGS) {
        let (opt, wall) = run_msgs(n, false);
        println!("| {n} | {base:.1} | {opt:.1} | {wall:?} |");
        report.num("E25", &format!("servers{n}_base_msgs_per_commit"), base);
        report.num("E25", &format!("servers{n}_opt_msgs_per_commit"), opt);
        assert!(
            opt < base,
            "E25a gate: {opt:.1} msgs/commit at {n} servers, recorded baseline {base:.1}"
        );
    }
    println!();

    println!("### E25a' — one write (coordinator), reads everywhere else\n");
    println!("| servers | recorded baseline msgs/commit | msgs/commit |");
    println!("|---|---|---|");
    for (n, base) in (1usize..).zip(BASE_READ_MOSTLY_MSGS) {
        let (opt, _) = run_msgs(n, true);
        println!("| {n} | {base:.1} | {opt:.1} |");
        report.num("E25", &format!("servers{n}_base_readonly_msgs_per_commit"), base);
        report.num("E25", &format!("servers{n}_opt_readonly_msgs_per_commit"), opt);
        assert!(
            opt < base,
            "E25a' gate: {opt:.1} msgs/commit at {n} servers, recorded baseline {base:.1}"
        );
        if n == 4 {
            report.num("E25", "servers4_readonly_msgs_per_commit", opt);
            assert!(
                opt <= 16.0,
                "E25a gate: read-only-participant commit costs {opt:.1} msgs at 4 servers (budget 16)"
            );
        }
    }
    println!();

    // ---- B: concurrent distributed commit throughput ----------------------
    // Eight clients, disjoint write sets spanning all four servers, one
    // shared coordinator, 500us one-way wire latency (a period LAN hop).
    // Every branch rides the CommitGlobal frame, phase-1 fan-out overlaps,
    // and concurrent rounds' prepares merge into shared PrepareBatch
    // frames; phase 2 is a one-way send.
    const N: usize = 4;
    const CLIENTS: usize = 8;
    const TXNS: usize = 12;
    let area_lists: Vec<Vec<u32>> = (0..N).map(|i| vec![i as u32]).collect();
    let refs: Vec<&[u32]> = area_lists.iter().map(|v| v.as_slice()).collect();
    let world = World::new(&refs, Duration::from_micros(500));
    let mut pages: Vec<Vec<DbPage>> = Vec::new();
    for _c in 0..CLIENTS {
        let mut row = Vec::new();
        for s in 0..N {
            let seg = world.area_sets[s].get(s as u32).unwrap().alloc(1).unwrap();
            row.push(DbPage { area: s as u32, page: seg.start_page });
        }
        pages.push(row);
    }
    let clients: Vec<_> = (0..CLIENTS)
        .map(|c| world.client_with_opts(1 + c as u32, false, ClientOpts::turbo()))
        .collect();
    let commit_once = |ci: usize, t: usize| {
        let c = &clients[ci];
        c.begin().unwrap();
        let updates: Vec<PageUpdate> = pages[ci]
            .iter()
            .map(|p| PageUpdate {
                page: *p,
                offset: 0,
                before: vec![0; 8],
                after: (t as u64).to_le_bytes().to_vec(),
            })
            .collect();
        c.commit(updates).unwrap();
    };
    // Warmup primes the prefetched gtxn pool and the release debts.
    for ci in 0..CLIENTS {
        commit_once(ci, 0);
    }
    let wreg = world.metrics();
    let before = wreg.snapshot();
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for ci in 0..CLIENTS {
            let commit_once = &commit_once;
            scope.spawn(move || {
                for t in 1..=TXNS {
                    commit_once(ci, t);
                }
            });
        }
    });
    let tps = (CLIENTS * TXNS) as f64 / t0.elapsed().as_secs_f64();
    let d = wreg.snapshot().delta(&before);
    let batches = d.counter("s0.server.2pc.prepare_batches");
    let batched = d.counter("s0.server.2pc.batched_prepares");
    let avg_batch = if batches > 0 { batched as f64 / batches as f64 } else { 0.0 };
    for c in clients {
        c.disconnect();
    }

    println!("### E25b — concurrent commit throughput, 4 servers x 8 clients, 500us wire latency (gate: prepares batch)\n");
    println!("| protocol | commits/sec | avg prepares per batch frame |");
    println!("|---|---|---|");
    println!("| presumed abort, serial, unbatched (recorded) | {BASE_COMMITS_PER_SEC:.0} | - |");
    println!("| presumed commit, concurrent, batched | {tps:.0} | {avg_batch:.2} |");
    println!();
    report.num("E25", "base_commits_per_sec", BASE_COMMITS_PER_SEC);
    report.num("E25", "opt_commits_per_sec", tps);
    report.num("E25", "avg_prepare_batch", avg_batch);
    assert!(
        avg_batch > 1.0,
        "E25b gate: concurrent rounds shared no PrepareBatch frame (avg {avg_batch:.2})"
    );
}
