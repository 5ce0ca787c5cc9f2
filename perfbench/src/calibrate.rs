//! `--workload all` and `--calibrate N`: both re-execute this binary once
//! per workload, so that peak memory, CPU time and allocator state never
//! leak from one workload into the next.

use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};

use crate::metrics::END_TO_END;
use crate::stats::{iqr_share, quartiles};
use crate::workloads::NAMES;
use crate::{device::DeviceModel, stack, Args};

fn child(args: &Args, workload: &str, seed: u64) -> Command {
    let mut cmd = Command::new(std::env::current_exe().expect("own path"));
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }]);
    if let Some(ops) = args.ops {
        cmd.args(["--ops", &ops.to_string()]);
    }
    if args.smoke {
        cmd.arg("--smoke");
    }
    cmd
}

/// Runs every workload, each in a process of its own; the exit code is
/// non-zero when any of them failed.
pub fn run_all(args: &Args) -> ExitCode {
    let mut failed = Vec::new();
    for name in NAMES {
        let mut cmd = child(args, name, args.seed);
        if let Some(out) = &args.out {
            cmd.arg("--out")
                .arg(out.with_extension(format!("{name}.json")));
        }
        println!("==== {name} ====");
        match cmd.status() {
            Ok(status) if status.success() => {}
            Ok(status) => failed.push(format!("{name}: {status}")),
            Err(e) => failed.push(format!("{name}: {e}")),
        }
    }
    if failed.is_empty() {
        println!("all {} workloads passed their oracles", NAMES.len());
        ExitCode::SUCCESS
    } else {
        eprintln!("failed: {}", failed.join("; "));
        ExitCode::FAILURE
    }
}

/// `"name": {"value": v, ...}` pairs of a result line.
fn parse_values(line: &str) -> BTreeMap<String, f64> {
    const MARK: &str = "\": {\"value\": ";
    line.match_indices(MARK)
        .filter_map(|(at, _)| {
            let name = line[..at].rsplit('"').next()?;
            let rest = &line[at + MARK.len()..];
            let number = rest.split([',', '}']).next()?;
            Some((name.to_string(), number.trim().parse().ok()?))
        })
        .collect()
}

fn tool_version(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".into(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_string()
        })
}

/// The bound each end-to-end metric may not fall below, as a share of the
/// parent's median.
fn floor_of(metric: &str) -> f64 {
    match metric {
        "setup_s" => 0.25,
        "op_p90_us" | "recovery_ms" => 0.20,
        "space_bytes_per_user_byte" => 0.05,
        _ => 0.10,
    }
}

/// Runs `sets` full sets with seeds `seed..seed+sets`, prints the spread of
/// every (metric, workload) pair as the acceptance rule computes it, and
/// the bounds block for `BENCHMARK.json`.
pub fn run(args: &Args, sets: usize) -> ExitCode {
    let model = DeviceModel::NETWORKED;
    println!(
        "calibrating: {sets} sets, seeds {}..{}, {}s measured; nproc {}; {}; commit {}; wire {:?}, \
         read {:?}, write {:?}, sync {:?}, log sync {:?}",
        args.seed,
        args.seed + sets as u64,
        args.seconds,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        tool_version("rustc", &["--version"]),
        tool_version("git", &["rev-parse", "HEAD"]),
        stack::WIRE_LATENCY,
        model.read,
        model.write,
        model.sync,
        stack::WAL_SYNC,
    );
    // values[workload][metric] = one value per set
    let mut values: BTreeMap<&str, BTreeMap<String, Vec<f64>>> = BTreeMap::new();
    for set in 0..sets as u64 {
        for name in NAMES {
            let untraced = Args {
                trace: false,
                ..args.clone()
            };
            let output = match child(&untraced, name, args.seed + set)
                .stderr(Stdio::inherit())
                .output()
            {
                Ok(o) if o.status.success() => o,
                Ok(o) => {
                    eprintln!(
                        "{name} seed {}: {}\n{}",
                        args.seed + set,
                        o.status,
                        String::from_utf8_lossy(&o.stdout)
                    );
                    return ExitCode::FAILURE;
                }
                Err(e) => {
                    eprintln!("{name}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let stdout = String::from_utf8_lossy(&output.stdout);
            let line = stdout.lines().last().unwrap_or_default();
            for (metric, v) in parse_values(line) {
                values
                    .entry(name)
                    .or_default()
                    .entry(metric)
                    .or_default()
                    .push(v);
            }
            println!("set {set} {name}: {line}");
        }
    }

    println!(
        "\n{:<28} {:<14} {:>14} {:>14} {:>14} {:>8} {:>8}",
        "metric", "workload", "q1", "median", "q3", "iqr/med", "maxdev"
    );
    let mut worst: BTreeMap<&str, f64> = BTreeMap::new();
    for def in END_TO_END {
        for name in NAMES {
            let Some(v) = values.get(name).and_then(|m| m.get(def.name)) else {
                continue;
            };
            let Some([q1, q2, q3]) = quartiles(v) else {
                println!("{:<28} {name:<14} needs two sets", def.name);
                continue;
            };
            let spread = iqr_share(v).unwrap_or(0.0);
            let max_dev = v
                .iter()
                .map(|x| (x - q2).abs() / q2.abs())
                .fold(0.0, f64::max);
            println!(
                "{:<28} {name:<14} {q1:>14.4} {q2:>14.4} {q3:>14.4} {spread:>8.4} {max_dev:>8.4}",
                def.name
            );
            let w = worst.entry(def.name).or_default();
            *w = w.max(spread);
        }
    }
    println!("\nbounds: three times the widest spread over the workloads, at least the floor, at most 0.25");
    println!("  \"end_to_end\": [");
    for (i, def) in END_TO_END.iter().enumerate() {
        let spread = worst.get(def.name).copied().unwrap_or(0.0);
        let bound = (3.0 * spread).max(floor_of(def.name));
        let note = if bound > 0.25 {
            "  <- spread too wide for a bound of 0.25"
        } else {
            ""
        };
        println!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {:.2}}}{}{note}",
            def.name,
            def.unit,
            def.better,
            bound.min(0.25),
            if i + 1 < END_TO_END.len() { "," } else { "" },
        );
    }
    println!("  ]");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_lines_parse_back() {
        let line = "{\"correct\": true, \"attempted\": 5, \"failed\": 0, \"metrics\": \
                    {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \
                    \"server.2pc.x\": {\"value\": 1e-3, \"unit\": \"count\"}}}";
        let v = parse_values(line);
        assert_eq!(v.len(), 2);
        assert_eq!(v["setup_s"], 0.25);
        assert_eq!(v["server.2pc.x"], 0.001);
    }
}
