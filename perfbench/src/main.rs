//! `bench`: five long, seeded, oracle-checked workloads over the real BeSS
//! stack, seven end-to-end metrics, a per-layer sheet and a traced run.
//! See README.md beside this package for every definition.
//!
//! ```text
//! bench --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]
//!       [--ops N] [--smoke] [--out FILE] [--calibrate N]
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`, the
//! end-to-end metrics with `--trace 0` and the per-layer metrics with
//! `--trace 1`. The exit code is non-zero when an oracle fails.

mod calibrate;
mod device;
mod gen;
mod metrics;
mod probes;
mod proc;
mod stack;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use metrics::{MetricDef, END_TO_END, PER_LAYER};
use workloads::{Outcome, RunCfg};

const USAGE: &str = "usage: bench --workload NAME|all [--seed N] [--seconds S] [--trace 0|1] \
[--ops N] [--smoke] [--out FILE] [--calibrate N]";

#[derive(Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub ops: Option<u64>,
    pub smoke: bool,
    pub out: Option<PathBuf>,
    pub calibrate: Option<usize>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: "all".into(),
        seed: 1,
        seconds: 15.0,
        trace: false,
        ops: None,
        smoke: false,
        out: None,
        calibrate: None,
    };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().cloned().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = value("a name")?,
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
            }
            "--ops" => {
                args.ops = Some(
                    value("a count")?
                        .parse()
                        .map_err(|e| format!("--ops: {e}"))?,
                )
            }
            "--calibrate" => {
                args.calibrate = Some(
                    value("a count")?
                        .parse()
                        .map_err(|e| format!("--calibrate: {e}"))?,
                )
            }
            "--out" => args.out = Some(PathBuf::from(value("a path")?)),
            "--smoke" => args.smoke = true,
            // `--trace 0|1` for the driver, a bare `--trace` for people.
            "--trace" => {
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--help" | "-h" => return Err(USAGE.into()),
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    if args.workload != "all" && !workloads::NAMES.contains(&args.workload.as_str()) {
        return Err(format!(
            "unknown workload {}; one of {:?} or all",
            args.workload,
            workloads::NAMES
        ));
    }
    Ok(args)
}

/// Measured operations per client under `--smoke`: enough to reach every
/// kind of operation, few enough for all five workloads to finish in
/// seconds in a debug build.
fn smoke_ops(workload: &str) -> u64 {
    match workload {
        "bulk_ingest" => 60,
        "blob_churn" => 600,
        "cold_traverse" => 400,
        _ => 200,
    }
}

fn run_cfg(args: &Args) -> RunCfg {
    RunCfg {
        seed: args.seed,
        measure: Duration::from_secs_f64(args.seconds),
        // The first tenth is untimed warm-up.
        warmup: Duration::from_secs_f64((args.seconds / 10.0).max(0.5)),
        max_ops: args.ops.or(args.smoke.then(|| smoke_ops(&args.workload))),
        trace: args.trace,
        smoke: args.smoke,
    }
}

fn trace_path(args: &Args) -> PathBuf {
    match &args.out {
        Some(out) => out.with_extension("trace.jsonl"),
        None => PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
            .join(format!("{}.trace.jsonl", args.workload)),
    }
}

/// Everything one run measured, by metric name.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub end_to_end: BTreeMap<&'static str, f64>,
    pub per_layer: BTreeMap<&'static str, f64>,
}

fn json_metrics<'a>(
    table: impl IntoIterator<Item = &'a MetricDef>,
    values: &BTreeMap<&'static str, f64>,
) -> String {
    let fields: Vec<String> = table
        .into_iter()
        .map(|def| {
            let v = values.get(def.name).copied().unwrap_or(0.0);
            let v = if v.is_finite() { v } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                def.name, def.unit
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn result_line(report: &Report, traced: bool) -> String {
    let metrics = if traced {
        json_metrics(PER_LAYER, &report.per_layer)
    } else {
        json_metrics(END_TO_END, &report.end_to_end)
    };
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        report.correct, report.attempted, report.failed
    )
}

fn print_metric(name: &str, value: f64, unit: &str, n: usize) {
    println!("  {name:<42} {value:>16.4} {unit:<9} n={n}");
}

/// The per-layer metrics this run measured: all of them when traced, the
/// registry deltas otherwise.
fn per_layer_shown(traced: bool) -> impl Iterator<Item = &'static MetricDef> {
    PER_LAYER
        .iter()
        .filter(move |d| traced || !metrics::needs_trace(d.name))
}

/// Runs one workload in this process and prints its report.
fn run_one(args: &Args) -> Result<Report, String> {
    let cfg = run_cfg(args);
    println!(
        "workload {} seed {} measure {:.1}s warm-up {:.1}s trace {} nproc {}{}",
        args.workload,
        cfg.seed,
        cfg.measure.as_secs_f64(),
        cfg.warmup.as_secs_f64(),
        u8::from(cfg.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        cfg.max_ops
            .map_or(String::new(), |n| format!(" ops/client {n}")),
    );
    println!(
        "device model: wire {:?} one way, area read {:?} write {:?} sync {:?}, log sync {:?} \
         (networked workloads; embedded_hot and blob_churn run with every delay at zero), \
         timer slack {} ns; \
         log forced at every commit, areas not synced on the commit path; inline I/O executor; \
         closed loop, {} client threads networked, 1 otherwise",
        stack::WIRE_LATENCY,
        device::DeviceModel::NETWORKED.read,
        device::DeviceModel::NETWORKED.write,
        device::DeviceModel::NETWORKED.sync,
        stack::WAL_SYNC,
        proc::timer_slack_ns(),
        workloads::NET_CLIENTS,
    );
    if cfg.trace {
        trace::reserve(1 << 20);
    }
    let o: Outcome = workloads::run(&args.workload, &cfg)
        .expect("workload name was checked")
        .map_err(|e| format!("{}: {e}", args.workload))?;
    let p = &o.phase;
    println!(
        "schedule digest {:016x}; inputs generated in {:.3}s; set-ups {:?}s",
        o.digest, o.gen_s, o.setup_s
    );
    println!(
        "measured {:.3}s: {} operations attempted, {} failed, {} oracle failures",
        p.elapsed.as_secs_f64(),
        p.attempted,
        p.failed,
        o.oracle_failed
    );
    println!(
        "operation latency over the whole phase (us): p50 {:.1}  p90 {:.1}  p95 {:.1}  p99 {:.1}  p99.9 {:.1}  max {:.1}  n={}",
        p.op_ns.us(50.0),
        p.op_ns.us(90.0),
        p.op_ns.us(95.0),
        p.op_ns.us(99.0),
        p.op_ns.us(99.9),
        p.op_ns.us(100.0),
        p.op_ns.count()
    );
    let rounded = |takes: &[f64]| takes.iter().map(|t| t.round()).collect::<Vec<f64>>();
    println!(
        "takes the calm decile is over: slice rates (1/s) {:?}; window p50 (us) {:?}; window p90 (us) {:?}",
        rounded(&p.slices.iter().map(|s| s.ops as f64 / s.seconds).collect::<Vec<f64>>()),
        rounded(&p.p50_windows_us),
        rounded(&p.p90_windows_us),
    );
    println!("oracle: {}", o.oracle_note);
    println!("restarts (ms): {:?}", o.recovery_ms);

    let end_to_end = metrics::end_to_end(&o);
    let mut per_layer = metrics::per_layer_counts(&o);
    println!("end-to-end");
    for def in END_TO_END {
        print_metric(def.name, end_to_end[def.name], def.unit, p.op_ns.count());
    }
    if !p.op_ns.supports(99.0) {
        println!(
            "  (only {} samples beyond p99; a tail needs 10)",
            p.op_ns.beyond(99.0)
        );
    }
    if p.commit_ns.count() > 0 {
        print_metric(
            "commit_p50_us",
            p.commit_ns.us(50.0),
            "us",
            p.commit_ns.count(),
        );
        print_metric(
            "commit_p99_us",
            p.commit_ns.us(99.0),
            "us",
            p.commit_ns.count(),
        );
    }
    for (name, value) in &o.extra {
        if !PER_LAYER.iter().any(|d| d.name == *name) {
            println!("  {name:<42} {value:>16.4}");
        }
    }

    if cfg.trace {
        let spans = trace::drain();
        per_layer.extend(metrics::span_shares(&spans));
        per_layer.insert("trace.spans", spans.len() as f64);
        per_layer.insert("trace.overhead_pct", p.trace_overhead_pct());
        per_layer.extend(probes::run_all().map_err(|e| format!("probe: {e}"))?);
        println!(
            "log time is reported from the wal.* counts and probes: the log device has no public \
             seam (`create_mem_slow` only), so it records no spans"
        );
        for (metric, span, per_call_unit) in [
            ("begin_us_p50", "begin", 1e3),
            ("fetch_us_p50", "fetch_page", 1e3),
            ("deref_global_us_p50", "deref_global", 1e3),
            ("deref_warm_ns_p50", "get", 1.0),
            ("deref_cold_us_p50", "get.cold", 1e3),
            ("put_us_p50", "put", 1e3),
            ("commit_us_p50", "commit", 1e3),
        ] {
            if let Some((ns, n)) = metrics::span_p50_ns(&spans, span) {
                println!("  span {metric:<37} {:>16.4} n={n}", ns / per_call_unit);
            }
        }
        let path = trace_path(args);
        trace::write_jsonl(&path, &spans).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("{} spans written to {}", spans.len(), path.display());
    }
    println!(
        "per-layer{}",
        if cfg.trace {
            ""
        } else {
            " (counts; probes and spans need --trace 1)"
        }
    );
    for def in per_layer_shown(cfg.trace) {
        let v = per_layer.get(def.name).copied().unwrap_or(0.0);
        print_metric(def.name, v, def.unit, p.attempted as usize);
    }

    Ok(Report {
        correct: o.oracle_failed == 0,
        attempted: p.attempted.max(1),
        failed: p.failed + o.oracle_failed,
        end_to_end,
        per_layer,
    })
}

fn write_out(path: &std::path::Path, args: &Args, report: &Report) -> std::io::Result<()> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(
        path,
        format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"correct\": {}, \"attempted\": {}, \"failed\": {},\n \
             \"end_to_end\": {},\n \"per_layer\": {}}}\n",
            args.workload,
            args.seed,
            report.correct,
            report.attempted,
            report.failed,
            json_metrics(END_TO_END, &report.end_to_end),
            json_metrics(per_layer_shown(args.trace), &report.per_layer)
        ),
    )
}

fn main() -> ExitCode {
    // Before any thread exists, because threads inherit it.
    proc::tighten_timer_slack();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if std::env::var_os("BESS_IO_EXEC").is_some() {
        eprintln!("BESS_IO_EXEC is set: the benchmark measures the shipped default (inline) executor only");
        return ExitCode::from(2);
    }
    if cfg!(debug_assertions) && !args.smoke {
        eprintln!("this is a debug build: build with --release (only --smoke runs unoptimised)");
        return ExitCode::from(2);
    }
    if let Some(sets) = args.calibrate {
        return calibrate::run(&args, sets);
    }
    if args.workload == "all" {
        return calibrate::run_all(&args);
    }
    match run_one(&args) {
        Ok(report) => {
            if let Some(path) = &args.out {
                if let Err(e) = write_out(path, &args, &report) {
                    eprintln!("{}: {e}", path.display());
                    return ExitCode::FAILURE;
                }
            }
            println!("{}", result_line(&report, args.trace));
            if report.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_args(workload: &str, seed: u64) -> Args {
        Args {
            workload: workload.into(),
            seed,
            seconds: 1.0,
            trace: false,
            ops: None,
            smoke: true,
            out: None,
            calibrate: None,
        }
    }

    /// Every workload runs and every oracle is green at 1/50 of the sizes;
    /// no timing is asserted.
    #[test]
    fn smoke_every_workload_passes_its_oracle() {
        for name in workloads::NAMES {
            let report = run_one(&smoke_args(name, 3)).unwrap_or_else(|e| panic!("{e}"));
            assert!(report.correct, "{name}: oracle failed");
            assert_eq!(report.failed, 0, "{name}: operations failed");
            for def in END_TO_END {
                assert!(
                    report.end_to_end[def.name] > 0.0,
                    "{name}: {} is 0",
                    def.name
                );
            }
        }
    }

    /// The same seed gives the same inputs, and on the two single-thread
    /// workloads the same counts, whatever the timing was.
    #[test]
    fn same_seed_same_digest_and_same_counts() {
        for name in workloads::NAMES {
            // The digest covers the generated inputs, not what ran: two
            // operations per client are enough.
            let cfg = RunCfg {
                max_ops: Some(2),
                ..run_cfg(&smoke_args(name, 11))
            };
            let digest = |cfg: &RunCfg| {
                workloads::run(name, cfg)
                    .expect("known workload")
                    .expect("runs")
                    .digest
            };
            let first = digest(&cfg);
            assert_eq!(first, digest(&cfg), "{name}: digest differs between runs");
            let other = RunCfg { seed: 12, ..cfg };
            assert_ne!(first, digest(&other), "{name}: digest ignores the seed");
        }
        for name in ["embedded_hot", "blob_churn"] {
            let counts = || {
                let report = run_one(&smoke_args(name, 11)).expect("runs");
                let timed = |n: &str| {
                    n.starts_with("proc.")
                        || ["dev.busy_share", "cpu_us_per_op", "op_p99_us"].contains(&n)
                };
                report
                    .per_layer
                    .iter()
                    .filter(|(n, _)| {
                        !timed(n) && !n.ends_with("_ns_per_kib") && !n.ends_with("_us_p50")
                    })
                    .map(|(n, v)| format!("{n}={v}"))
                    .collect::<Vec<_>>()
            };
            assert_eq!(counts(), counts(), "{name}: counts differ between runs");
        }
    }

    #[test]
    fn arguments_parse_as_the_driver_passes_them() {
        let argv: Vec<String> = "--workload oltp_zipf --seed 7 --seconds 12 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let a = parse_args(&argv).expect("parses");
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("oltp_zipf", 7, 12.0, true)
        );
        let argv: Vec<String> = "--trace 0 --workload all"
            .split(' ')
            .map(String::from)
            .collect();
        assert!(!parse_args(&argv).expect("parses").trace);
        assert!(parse_args(&["--workload".into(), "nope".into()]).is_err());
        assert!(parse_args(&["--seconds".into(), "0".into()]).is_err());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let report = Report {
            correct: true,
            attempted: 10,
            failed: 0,
            end_to_end: END_TO_END.iter().map(|d| (d.name, 1.5)).collect(),
            per_layer: BTreeMap::new(),
        };
        let line = result_line(&report, false);
        assert!(line
            .starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {"));
        assert_eq!(line.matches("\"value\"").count(), END_TO_END.len());
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        assert_eq!(
            result_line(&report, true).matches("\"value\"").count(),
            PER_LAYER.len()
        );
    }
}
