//! The metric tables (they mirror `BENCHMARK.json`, and a test holds them
//! to it) and the arithmetic that turns a workload's outcome into them.

use std::collections::BTreeMap;

use bess_obs::{MetricValue, RegistrySnapshot};

use crate::stats::{calm_decile, Recorder};
use crate::trace::Span;
use crate::workloads::Outcome;

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// What a user of the system sees. Every one is defined, and never 0, on
/// every workload; the four the issue lists that are not (commit latency
/// needs a commit, the log ratio needs a log) are on the per-layer sheet,
/// and so are `cpu_us_per_op` and `op_p99_us`: the first moves by a quarter
/// from run to run with the host's other tenants on the three workloads
/// that mostly wait, the second by a fifth on `embedded_hot` even on a calm
/// host, more than any bound may be.
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s", "lower"),
    m("ops_per_s", "1/s", "higher"),
    m("op_p50_us", "us", "lower"),
    m("op_p90_us", "us", "lower"),
    m("peak_rss_mib", "MiB", "lower"),
    m("space_bytes_per_user_byte", "ratio", "lower"),
    m("recovery_ms", "ms", "lower"),
];

/// One layer each; the layer is the crate the name starts with. A time on
/// this sheet is measured on every workload (the probes); a count or a
/// ratio is 0 on a workload that bypasses its layer.
pub const PER_LAYER: &[MetricDef] = &[
    // end-to-end figures that not every workload has
    m("failed_share", "ratio", "lower"),
    m("wal_bytes_per_user_byte", "ratio", "lower"),
    m("cpu_us_per_op", "us", "lower"),
    m("op_p99_us", "us", "lower"),
    // bess-net
    m("net.msgs_per_op", "count", "lower"),
    m("net.calls_per_op", "count", "lower"),
    m("net.trailers_per_op", "count", "higher"),
    m("net.probe.call_rtt_ns", "ns", "lower"),
    // bess-server, client side
    m("client.fetch_rpcs_per_op", "count", "lower"),
    m("client.lock_rpcs_per_op", "count", "lower"),
    m("client.lock_cache_hit_ratio", "ratio", "higher"),
    m("client.callbacks_per_op", "count", "lower"),
    m("client.retries", "count", "lower"),
    // bess-server, server side
    m("server.fetches_per_op", "count", "lower"),
    m("server.callbacks_per_op", "count", "lower"),
    m("server.commits_per_op", "count", "lower"),
    m("server.aborts", "count", "lower"),
    m("server.dedup_hits", "count", "lower"),
    m("server.2pc.prepare_batches_per_commit", "count", "lower"),
    m("server.2pc.oneway_decides_per_commit", "count", "lower"),
    m("server.2pc.readonly_votes_per_commit", "count", "higher"),
    // bess-server, node server
    m("nodeserver.cache_hit_ratio", "ratio", "higher"),
    m("nodeserver.remote_fetches_per_op", "count", "lower"),
    // bess-lock
    m("lock.requests_per_op", "count", "lower"),
    m("lock.wait_ratio", "ratio", "lower"),
    m("lock.upgrades_per_op", "count", "lower"),
    m("lock.timeouts", "count", "lower"),
    m("lock.probe.acquire_release_ns", "ns", "lower"),
    // bess-wal
    m("wal.appends_per_commit", "count", "lower"),
    m("wal.bytes_per_commit", "B", "lower"),
    m("wal.flushes_per_commit", "count", "lower"),
    m("wal.group.size_mean", "count", "higher"),
    m("wal.probe.append_ns", "ns", "lower"),
    m("wal.probe.force_ns", "ns", "lower"),
    m("wal.recovery.scanned", "count", "lower"),
    m("wal.recovery.redone", "count", "lower"),
    // bess-io
    m("io.batch_size_mean", "count", "higher"),
    m("io.probe.submit_complete_1_ns", "ns", "lower"),
    m("io.probe.submit_complete_8_ns", "ns", "lower"),
    // bess-storage
    m("storage.page_reads_per_op", "count", "lower"),
    m("storage.page_writes_per_op", "count", "lower"),
    m("storage.syncs_per_commit", "count", "lower"),
    m("storage.read_retries", "count", "lower"),
    m("storage.corruption.detected", "count", "lower"),
    m("storage.frag_permille_peak", "permille", "lower"),
    m("storage.frag_permille_final", "permille", "lower"),
    m("storage.probe.read_page_verify_ns", "ns", "lower"),
    m("storage.probe.write_batch_ns_per_page", "ns", "lower"),
    m("storage.probe.alloc_free_ns", "ns", "lower"),
    // the device seam
    m("dev.reads_per_op", "count", "lower"),
    m("dev.read_bytes_per_op", "B", "lower"),
    m("dev.writes_per_op", "count", "lower"),
    m("dev.write_bytes_per_op", "B", "lower"),
    m("dev.syncs_per_op", "count", "lower"),
    m("dev.busy_share", "ratio", "lower"),
    // bess-cache
    m("cache.private.hit_ratio", "ratio", "higher"),
    m("cache.private.evictions_per_op", "count", "lower"),
    m("cache.private.write_backs_per_op", "count", "lower"),
    m("cache.shared.hit_ratio", "ratio", "higher"),
    m("cache.shared.evictions_per_op", "count", "lower"),
    m("cache.probe.shared_get_hit_ns", "ns", "lower"),
    m("cache.probe.private_fault_in_hit_ns", "ns", "lower"),
    // bess-vm
    m("vm.read_faults_per_op", "count", "lower"),
    m("vm.write_faults_per_op", "count", "lower"),
    m("vm.protect_calls_per_op", "count", "lower"),
    m("vm.reserved_bytes", "B", "lower"),
    // bess-segment
    m("seg.slotted_loads_per_op", "count", "lower"),
    m("seg.data_loads_per_op", "count", "lower"),
    m("seg.refs_swizzled_per_op", "count", "lower"),
    m("seg.write_detections_per_op", "count", "lower"),
    m("seg.protect_cycles_per_op", "count", "lower"),
    m("seg.probe.deref_warm_ns", "ns", "lower"),
    m("seg.probe.resolve_oid_ns", "ns", "lower"),
    // bess-largeobj
    m("lo.tree_depth_max", "count", "lower"),
    m("lo.leaves_per_mib", "count", "lower"),
    m("lo.probe.append_ns_per_kib", "ns", "lower"),
    m("lo.probe.read_ns_per_kib", "ns", "lower"),
    // bess-core: where an operation's time goes, from the spans
    m("span.begin_share", "ratio", "lower"),
    m("span.read_share", "ratio", "lower"),
    m("span.write_share", "ratio", "lower"),
    m("span.commit_share", "ratio", "lower"),
    m("span.self_share", "ratio", "lower"),
    // process and tracing
    m("proc.user_cpu_s", "s", "lower"),
    m("proc.sys_cpu_s", "s", "lower"),
    m("proc.vol_ctx_switches_per_op", "count", "lower"),
    m("trace.spans", "count", "lower"),
    m("trace.overhead_pct", "%", "lower"),
];

/// Whether a per-layer metric needs the traced run (probes and spans);
/// the others are registry deltas and come out of every run.
pub fn needs_trace(name: &str) -> bool {
    name.contains(".probe.") || name.starts_with("span.") || name.starts_with("trace.")
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Sum and count of every histogram whose name ends with `suffix`.
fn histogram_mean(snap: &RegistrySnapshot, suffix: &str) -> f64 {
    let (mut sum, mut count) = (0u64, 0u64);
    for (name, value) in &snap.entries {
        if let (true, MetricValue::Histogram(h)) = (name.ends_with(suffix), value) {
            sum += h.sum;
            count += h.count();
        }
    }
    ratio(sum as f64, count as f64)
}

fn gauge_max(snap: &RegistrySnapshot, suffix: &str) -> f64 {
    snap.entries
        .iter()
        .filter_map(|(name, value)| match value {
            MetricValue::Gauge(g) if name.ends_with(suffix) => Some(*g as f64),
            _ => None,
        })
        .fold(0.0, f64::max)
}

pub fn end_to_end(o: &Outcome) -> BTreeMap<&'static str, f64> {
    let p = &o.phase;
    BTreeMap::from([
        ("setup_s", calm_decile(&o.setup_s, false)),
        ("ops_per_s", p.ops_per_s()),
        ("op_p50_us", p.op_p50_us()),
        ("op_p90_us", p.op_p90_us()),
        ("peak_rss_mib", p.peak_rss_mib),
        ("space_bytes_per_user_byte", o.space_ratio),
        ("recovery_ms", calm_decile(&o.recovery_ms, false)),
    ])
}

/// The count-based part of the per-layer sheet.
pub fn per_layer_counts(o: &Outcome) -> BTreeMap<&'static str, f64> {
    let p = &o.phase;
    let c = &p.counters;
    let ops = p.attempted as f64;
    // Operations that committed; nothing commits on `blob_churn`.
    let commits = if c.counter("wal.appends") > 0 || c.counter("client.commits") > 0 {
        (p.attempted - p.failed) as f64
    } else {
        0.0
    };
    let n = |name: &str| c.counter(name) as f64;
    let sum = |suffix: &str| c.counter_sum(suffix) as f64;
    let per_op = |v: f64| ratio(v, ops);
    let rounds = n("server.coordinated");
    let mut out = BTreeMap::from([
        (
            "failed_share",
            ratio((p.failed + o.oracle_failed) as f64, ops),
        ),
        (
            "wal_bytes_per_user_byte",
            ratio(n("wal.append_bytes"), o.user_bytes_updated as f64),
        ),
        ("cpu_us_per_op", p.cpu_us_per_op()),
        ("op_p99_us", p.op_ns.us(99.0)),
        (
            "net.msgs_per_op",
            per_op(n("net.sends") + 2.0 * n("net.calls")),
        ),
        ("net.calls_per_op", per_op(n("net.calls"))),
        ("net.trailers_per_op", per_op(n("net.trailers.carried"))),
        ("client.fetch_rpcs_per_op", per_op(n("client.fetch_rpcs"))),
        ("client.lock_rpcs_per_op", per_op(n("client.lock_rpcs"))),
        (
            "client.lock_cache_hit_ratio",
            ratio(
                n("lock.cache.hits"),
                n("lock.cache.hits") + n("lock.cache.misses"),
            ),
        ),
        ("client.callbacks_per_op", per_op(n("client.callbacks"))),
        ("client.retries", n("client.retries")),
        ("server.fetches_per_op", per_op(n("server.fetches"))),
        (
            "server.callbacks_per_op",
            per_op(n("server.callbacks_sent")),
        ),
        ("server.commits_per_op", per_op(n("server.commits"))),
        ("server.aborts", n("server.aborts")),
        ("server.dedup_hits", n("server.dedup_hits")),
        (
            "server.2pc.prepare_batches_per_commit",
            ratio(n("server.2pc.prepare_batches"), rounds),
        ),
        (
            "server.2pc.oneway_decides_per_commit",
            ratio(n("server.2pc.oneway_decides"), rounds),
        ),
        (
            "server.2pc.readonly_votes_per_commit",
            ratio(n("server.2pc.readonly_votes"), rounds),
        ),
        (
            "nodeserver.cache_hit_ratio",
            ratio(
                n("nodeserver.cache_hits"),
                n("nodeserver.cache_hits") + n("nodeserver.remote_fetches"),
            ),
        ),
        (
            "nodeserver.remote_fetches_per_op",
            per_op(n("nodeserver.remote_fetches")),
        ),
        ("lock.requests_per_op", per_op(n("lock.requests"))),
        (
            "lock.wait_ratio",
            ratio(n("lock.waits"), n("lock.requests")),
        ),
        ("lock.upgrades_per_op", per_op(n("lock.upgrades"))),
        ("lock.timeouts", n("lock.timeouts")),
        ("wal.appends_per_commit", ratio(n("wal.appends"), commits)),
        (
            "wal.bytes_per_commit",
            ratio(n("wal.append_bytes"), commits),
        ),
        ("wal.flushes_per_commit", ratio(n("wal.flushes"), commits)),
        ("wal.group.size_mean", histogram_mean(c, "wal.group.size")),
        ("io.batch_size_mean", histogram_mean(c, "io.batch.size")),
        ("storage.page_reads_per_op", per_op(sum("page_reads"))),
        ("storage.page_writes_per_op", per_op(sum("page_writes"))),
        ("storage.syncs_per_commit", ratio(sum("syncs"), commits)),
        ("storage.read_retries", sum("read_retries")),
        (
            "storage.corruption.detected",
            n("storage.corruption.detected"),
        ),
        ("storage.frag_permille_peak", gauge_max(c, ".frag_permille")),
        (
            "storage.frag_permille_final",
            gauge_max(c, ".frag_permille"),
        ),
        ("dev.reads_per_op", per_op(p.device.reads as f64)),
        ("dev.read_bytes_per_op", per_op(p.device.read_bytes as f64)),
        ("dev.writes_per_op", per_op(p.device.writes as f64)),
        (
            "dev.write_bytes_per_op",
            per_op(p.device.write_bytes as f64),
        ),
        ("dev.syncs_per_op", per_op(p.device.syncs as f64)),
        (
            "dev.busy_share",
            ratio(p.device.busy_ns as f64, p.elapsed.as_nanos() as f64),
        ),
        (
            "cache.private.hit_ratio",
            ratio(
                n("cache.private.hits"),
                n("cache.private.hits") + n("cache.private.loads"),
            ),
        ),
        (
            "cache.private.evictions_per_op",
            per_op(n("cache.private.evictions")),
        ),
        (
            "cache.private.write_backs_per_op",
            per_op(n("cache.private.write_backs")),
        ),
        (
            "cache.shared.hit_ratio",
            ratio(
                n("cache.shared.hits"),
                n("cache.shared.hits") + n("cache.shared.loads"),
            ),
        ),
        (
            "cache.shared.evictions_per_op",
            per_op(n("cache.shared.evictions")),
        ),
        ("vm.read_faults_per_op", per_op(n("vm.read_faults"))),
        ("vm.write_faults_per_op", per_op(n("vm.write_faults"))),
        ("vm.protect_calls_per_op", per_op(n("vm.protect_calls"))),
        ("vm.reserved_bytes", 0.0),
        ("seg.slotted_loads_per_op", per_op(n("seg.slotted_loads"))),
        ("seg.data_loads_per_op", per_op(n("seg.data_loads"))),
        ("seg.refs_swizzled_per_op", per_op(n("seg.refs_swizzled"))),
        (
            "seg.write_detections_per_op",
            per_op(n("seg.write_detections")),
        ),
        ("seg.protect_cycles_per_op", per_op(n("seg.protect_cycles"))),
        ("lo.tree_depth_max", 0.0),
        ("lo.leaves_per_mib", 0.0),
        ("wal.recovery.scanned", 0.0),
        ("wal.recovery.redone", 0.0),
        ("proc.user_cpu_s", p.cpu.user_s),
        ("proc.sys_cpu_s", p.cpu.sys_s),
        (
            "proc.vol_ctx_switches_per_op",
            per_op(p.vol_ctx_switches as f64),
        ),
    ]);
    // What the workload measured itself replaces the registry's view.
    for def in PER_LAYER {
        if let Some(&v) = o.extra.get(def.name) {
            out.insert(def.name, v);
        }
    }
    out
}

/// Which share of an operation a child span counts towards.
fn span_class(name: &str) -> Option<&'static str> {
    Some(match name {
        "begin" => "span.begin_share",
        "fetch_page" | "get" | "get.cold" | "deref_global" | "lo.read" => "span.read_share",
        "put" | "lo.create" | "lo.append" | "lo.truncate" | "lo.destroy" => "span.write_share",
        "commit" | "abort" => "span.commit_share",
        _ => return None,
    })
}

/// The span-derived part of the per-layer sheet: where the time of the
/// traced operations went. The five shares sum to 1.
pub fn span_shares(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::from([
        ("span.begin_share", 0.0),
        ("span.read_share", 0.0),
        ("span.write_share", 0.0),
        ("span.commit_share", 0.0),
        ("span.self_share", 0.0),
    ]);
    let root_ns: u64 = spans
        .iter()
        .filter(|s| s.name == "op")
        .map(|s| s.end_ns - s.start_ns)
        .sum();
    if root_ns == 0 {
        return out;
    }
    let mut children = 0.0;
    for s in spans.iter().filter(|s| s.parent != 0) {
        if let Some(class) = span_class(s.name) {
            let share = (s.end_ns - s.start_ns) as f64 / root_ns as f64;
            *out.get_mut(class).expect("class is a key") += share;
            children += share;
        }
    }
    out.insert("span.self_share", (1.0 - children).max(0.0));
    out
}

/// Median duration of the spans called `name`, per call they cover, in
/// nanoseconds, with the sample count. For the timings only some workloads
/// have, which are printed but are not part of `BENCHMARK.json`.
pub fn span_p50_ns(spans: &[Span], name: &str) -> Option<(f64, usize)> {
    let mut r = Recorder::with_capacity(1024);
    for s in spans.iter().filter(|s| s.name == name) {
        r.push((s.end_ns - s.start_ns) / u64::from(s.calls.max(1)));
    }
    let summary = r.summary();
    summary
        .percentile(50.0)
        .map(|ns| (ns as f64, summary.count()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            op: 1,
            name,
            start_ns,
            end_ns,
            calls: 1,
            area: 0,
        }
    }

    #[test]
    fn shares_sum_to_the_whole_operation() {
        let spans = [
            span(1, 0, "op", 0, 1000),
            span(2, 1, "begin", 0, 100),
            span(3, 1, "get", 100, 400),
            span(4, 1, "commit", 500, 1000),
            span(5, 0, "dev.read", 150, 250), // a device span is nobody's child
        ];
        let shares = span_shares(&spans);
        assert_eq!(shares["span.begin_share"], 0.1);
        assert_eq!(shares["span.read_share"], 0.3);
        assert_eq!(shares["span.commit_share"], 0.5);
        assert!((shares["span.self_share"] - 0.1).abs() < 1e-12);
        assert!((shares.values().sum::<f64>() - 1.0).abs() < 1e-12);
        assert_eq!(span_p50_ns(&spans, "get"), Some((300.0, 1)));
    }

    /// `BENCHMARK.json` names exactly the metrics of the two tables, with
    /// their units and directions.
    #[test]
    fn tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let start = json.find(&format!("\"{key}\"")).expect("section present");
            let section = &json[start..start + json[start..].find(']').expect("section ends")];
            assert_eq!(
                section.matches("\"name\"").count(),
                table.len(),
                "{key} length"
            );
            for def in table {
                let entry = format!(
                    "\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
                    def.name, def.unit, def.better
                );
                assert!(section.contains(&entry), "{key} lacks {entry}");
            }
        }
        for name in crate::workloads::NAMES {
            assert!(
                json.contains(&format!("\"name\": \"{name}\"")),
                "workload {name}"
            );
        }
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for def in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(def.name), "{} twice", def.name);
            assert!(def.name.len() <= 64 && def.unit.len() <= 16);
            assert!(def
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(matches!(def.better, "lower" | "higher"));
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }
}
