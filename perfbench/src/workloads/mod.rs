//! The five workloads and the closed-loop driver they share.
//!
//! Load is closed-loop: every client thread issues its next operation only
//! after the previous one returned, as an application waiting for its
//! reply does. A run is: generate inputs from the seed, set the world up,
//! warm up untimed, measure for `--seconds`, then crash, restart and check
//! the oracle, and last set up several times more for a steady `setup_s`.
//!
//! The host is shared: for seconds to minutes at a time a neighbour slows
//! everything by a tenth to a third. So every timing is taken many times in
//! a run (slices of the measured phase, windows of each client's
//! operations, set-ups, restarts) and the run reports the decile on the
//! calm side (`stats::calm_decile`).

pub mod blob_churn;
pub mod bulk_ingest;
pub mod cold_traverse;
pub mod embedded_hot;
pub mod oltp_zipf;

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use bess_obs::RegistrySnapshot;

use crate::proc::{self, CpuTimes};
use crate::stack::Result;
use crate::stats::{calm_decile, Recorder, Summary};
use crate::trace;

pub const NAMES: [&str; 5] = [
    "oltp_zipf",
    "cold_traverse",
    "bulk_ingest",
    "embedded_hot",
    "blob_churn",
];

/// Client threads of the networked workloads. Fixed rather than `nproc`,
/// so that a seed means the same load on every machine.
pub const NET_CLIENTS: usize = 2;

pub fn run(name: &str, cfg: &RunCfg) -> Option<Result<Outcome>> {
    Some(match name {
        "oltp_zipf" => oltp_zipf::run(cfg),
        "cold_traverse" => cold_traverse::run(cfg),
        "bulk_ingest" => bulk_ingest::run(cfg),
        "embedded_hot" => embedded_hot::run(cfg),
        "blob_churn" => blob_churn::run(cfg),
        _ => return None,
    })
}

#[derive(Clone)]
pub struct RunCfg {
    pub seed: u64,
    /// Length of the measured phase.
    pub measure: Duration,
    /// Untimed warm-up before it.
    pub warmup: Duration,
    /// Stop each client after this many measured operations instead of at
    /// the deadline (`--ops`, `--smoke`): counts then repeat exactly.
    pub max_ops: Option<u64>,
    /// Record spans in alternating slices of the measured phase.
    pub trace: bool,
    /// 1/50 of the data sizes, for the test that keeps every workload
    /// compiling and every oracle green.
    pub smoke: bool,
}

impl RunCfg {
    /// Restarts timed from the same crashed state.
    pub fn restarts(&self) -> usize {
        if self.smoke {
            1
        } else {
            3
        }
    }

    /// `full` scaled down by 50 under `--smoke`, never below `floor`.
    pub fn scaled(&self, full: usize, floor: usize) -> usize {
        if self.smoke {
            (full / 50).max(floor)
        } else {
            full
        }
    }
}

/// Which operation the driver asks a client for.
#[derive(Clone, Copy)]
pub struct Tick {
    pub client: usize,
    /// Position in the client's schedule, warm-up included.
    pub index: u64,
    /// False during the untimed warm-up.
    pub measured: bool,
}

/// What one operation reports back to the driver.
pub struct OpReport {
    /// False when the operation errored, aborted, timed out or failed its
    /// inline oracle.
    pub ok: bool,
    /// `commit()` call to acknowledgement, for operations that wrote.
    pub commit_ns: Option<u64>,
}

impl OpReport {
    pub fn ok() -> OpReport {
        OpReport {
            ok: true,
            commit_ns: None,
        }
    }

    pub fn failed() -> OpReport {
        OpReport {
            ok: false,
            commit_ns: None,
        }
    }
}

/// The measured phase as the driver saw it.
pub struct Phase {
    pub elapsed: Duration,
    pub attempted: u64,
    pub failed: u64,
    pub op_ns: Summary,
    pub commit_ns: Summary,
    pub cpu: CpuTimes,
    pub vol_ctx_switches: u64,
    /// `VmHWM` when the last measured operation returned: set-up and the
    /// measured phase, without the copies of the crashed log the restarts
    /// make afterwards.
    pub peak_rss_mib: f64,
    /// Registry deltas over the phase, every registry of the workload
    /// absorbed into one snapshot (gauges keep their value at its end).
    pub counters: RegistrySnapshot,
    /// Device counts over the phase, summed over the devices.
    pub device: DeviceDelta,
    /// The measured phase cut into `SLICE`s.
    pub slices: Vec<Slice>,
    /// Median and 90th percentile of each of the `WINDOWS` windows of each
    /// client's operations, in microseconds.
    pub p50_windows_us: Vec<f64>,
    pub p90_windows_us: Vec<f64>,
    /// Operations and busy nanoseconds of the traced and untraced slices.
    pub traced: (u64, u64),
    pub untraced: (u64, u64),
}

/// What one slice of the measured phase saw.
#[derive(Clone, Copy)]
pub struct Slice {
    pub seconds: f64,
    /// Operations that returned in the slice, failed ones included.
    pub ops: u64,
    pub cpu_s: f64,
}

impl Phase {
    /// Successful operations per second: the upper decile of the slices'
    /// rates, or the whole phase's rate when it has fewer than 4 slices.
    pub fn ops_per_s(&self) -> f64 {
        let ok = (self.attempted - self.failed) as f64;
        if self.slices.len() < 4 {
            return ok / self.elapsed.as_secs_f64();
        }
        let rates: Vec<f64> = self
            .slices
            .iter()
            .map(|s| s.ops as f64 / s.seconds)
            .collect();
        calm_decile(&rates, true) * ok / self.attempted.max(1) as f64
    }

    /// Operation latency at the median and at the 90th percentile: the
    /// lower decile over the windows, or the whole phase's percentile
    /// when it is too short to have windows.
    pub fn op_p50_us(&self) -> f64 {
        self.calm_latency(&self.p50_windows_us, 50.0)
    }

    pub fn op_p90_us(&self) -> f64 {
        self.calm_latency(&self.p90_windows_us, 90.0)
    }

    fn calm_latency(&self, windows: &[f64], p: f64) -> f64 {
        if windows.len() < 4 {
            self.op_ns.us(p)
        } else {
            calm_decile(windows, false)
        }
    }

    /// Process CPU microseconds per operation: the lower decile over the
    /// same slices.
    pub fn cpu_us_per_op(&self) -> f64 {
        let busy: Vec<&Slice> = self.slices.iter().filter(|s| s.ops > 0).collect();
        if busy.len() < 4 {
            return self.cpu.total_s() * 1e6 / self.attempted.max(1) as f64;
        }
        let per_op: Vec<f64> = busy.iter().map(|s| s.cpu_s * 1e6 / s.ops as f64).collect();
        calm_decile(&per_op, false)
    }

    /// Throughput lost in the traced slices, in percent of the untraced
    /// slices' throughput; 0 when the run was not traced.
    pub fn trace_overhead_pct(&self) -> f64 {
        let rate = |(ops, ns): (u64, u64)| (ns > 0).then(|| ops as f64 / ns as f64);
        match (rate(self.traced), rate(self.untraced)) {
            (Some(on), Some(off)) if off > 0.0 => 100.0 * (1.0 - on / off),
            _ => 0.0,
        }
    }
}

/// Length of one throughput slice.
const SLICE: Duration = Duration::from_millis(500);

/// Windows each client's measured operations are cut into, of equally many
/// operations each: about as long as a slice in a run of 12 to 15 s.
const WINDOWS: usize = 24;

/// Set-ups per run: at least `MIN_SETUPS`, then more while they have taken
/// less than `SETUP_BUDGET` together, at most `MAX_SETUPS`.
const MIN_SETUPS: usize = 5;
const MAX_SETUPS: usize = 15;
const SETUP_BUDGET: Duration = Duration::from_millis(1500);

/// Length of one tracing slice: short enough that both kinds of slice see
/// the same cache and allocator state, long enough to hold many operations.
const TRACE_SLICE: Duration = Duration::from_millis(250);

/// Runs `op` closed-loop on one thread per client: warm-up, then the
/// measured phase. `snapshot` reads the registries and device counts of
/// the world; it runs on the calling thread after the warm-up and again when
/// the last measured operation returned, and the phase carries the
/// difference.
pub fn drive<C: Send>(
    cfg: &RunCfg,
    clients: &mut [C],
    samples_hint: usize,
    op: impl Fn(&mut C, Tick) -> OpReport + Sync,
    snapshot: impl Fn() -> (RegistrySnapshot, DeviceDelta),
) -> Phase {
    let parties = clients.len() + 1;
    let (warmed, go, done, release) = (
        Barrier::new(parties),
        Barrier::new(parties),
        Barrier::new(parties),
        Barrier::new(parties),
    );
    let measuring = AtomicBool::new(false);
    // Relaxed: both are statistics the sampling thread reads.
    let (completed, finished) = (AtomicU64::new(0), AtomicUsize::new(0));
    let op = &op;
    std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                let (warmed, go, done, release) = (&warmed, &go, &done, &release);
                let (completed, finished) = (&completed, &finished);
                s.spawn(move || {
                    let mut next = 0u64;
                    let warm_until = Instant::now() + cfg.warmup;
                    // Under --ops the warm-up is a tenth of the schedule.
                    let warm_ops = cfg.max_ops.map(|n| n / 10);
                    while warm_ops.map_or(Instant::now() < warm_until, |n| next < n) {
                        op(
                            client,
                            Tick {
                                client: c,
                                index: next,
                                measured: false,
                            },
                        );
                        next += 1;
                    }
                    warmed.wait();
                    go.wait();
                    let mut ops = Recorder::with_capacity(samples_hint);
                    let mut commits = Recorder::with_capacity(samples_hint);
                    let (mut failed, mut on, mut off) = (0u64, (0u64, 0u64), (0u64, 0u64));
                    let first = next;
                    let until = Instant::now() + cfg.measure;
                    while cfg
                        .max_ops
                        .map_or(Instant::now() < until, |n| next - first < n)
                    {
                        let traced = trace::is_on();
                        let start = Instant::now();
                        let report = {
                            let _root = trace::op(((c as u64) << 40) | next);
                            op(
                                client,
                                Tick {
                                    client: c,
                                    index: next,
                                    measured: true,
                                },
                            )
                        };
                        let ns = start.elapsed().as_nanos() as u64;
                        ops.push(ns);
                        if let Some(c_ns) = report.commit_ns {
                            commits.push(c_ns);
                        }
                        failed += u64::from(!report.ok);
                        let slice = if traced { &mut on } else { &mut off };
                        slice.0 += 1;
                        slice.1 += ns;
                        next += 1;
                        completed.fetch_add(1, Ordering::Relaxed);
                    }
                    finished.fetch_add(1, Ordering::Relaxed);
                    done.wait();
                    release.wait();
                    (ops, commits, next - first, failed, on, off)
                })
            })
            .collect();

        warmed.wait();
        let before = snapshot();
        let cpu0 = proc::cpu_times();
        let ctx0 = proc::voluntary_ctx_switches();
        measuring.store(true, Ordering::Relaxed);
        let toggler = cfg.trace.then(|| {
            let measuring = &measuring;
            s.spawn(move || {
                let mut on = false;
                while measuring.load(Ordering::Relaxed) {
                    on = !on;
                    trace::set_on(on);
                    std::thread::sleep(TRACE_SLICE);
                }
                trace::set_on(false);
            })
        });
        go.wait();
        let start = Instant::now();
        let mut slices = Vec::with_capacity(64);
        let (mut at, mut ops_at, mut cpu_at) = (start, 0, cpu0.total_s());
        while finished.load(Ordering::Relaxed) < parties - 1 {
            // Short naps, so that the phase's end is seen promptly.
            std::thread::sleep(Duration::from_millis(5));
            if at.elapsed() >= SLICE {
                let (now, ops_now, cpu_now) = (
                    Instant::now(),
                    completed.load(Ordering::Relaxed),
                    proc::cpu_times().total_s(),
                );
                slices.push(Slice {
                    seconds: (now - at).as_secs_f64(),
                    ops: ops_now - ops_at,
                    cpu_s: cpu_now - cpu_at,
                });
                (at, ops_at, cpu_at) = (now, ops_now, cpu_now);
            }
        }
        done.wait();
        let elapsed = start.elapsed();
        measuring.store(false, Ordering::Relaxed);
        let cpu = proc::cpu_times().since(cpu0);
        let vol_ctx_switches = proc::voluntary_ctx_switches().saturating_sub(ctx0);
        let peak_rss_mib = proc::peak_rss_mib();
        let after = snapshot();
        release.wait();
        if let Some(t) = toggler {
            t.join().expect("trace toggler");
        }

        let mut phase = Phase {
            elapsed,
            attempted: 0,
            failed: 0,
            op_ns: Recorder::with_capacity(0).summary(),
            commit_ns: Recorder::with_capacity(0).summary(),
            cpu,
            vol_ctx_switches,
            peak_rss_mib,
            counters: after.0.delta(&before.0),
            device: after.1.since(before.1),
            slices,
            p50_windows_us: Vec::new(),
            p90_windows_us: Vec::new(),
            traced: (0, 0),
            untraced: (0, 0),
        };
        let (mut ops, mut commits) = (Recorder::with_capacity(0), Recorder::with_capacity(0));
        for h in handles {
            let (o, c, attempted, failed, on, off) = h.join().expect("client thread");
            phase.p50_windows_us
                .extend(o.window_percentiles_us(WINDOWS, 50.0));
            phase.p90_windows_us
                .extend(o.window_percentiles_us(WINDOWS, 90.0));
            ops.absorb(o);
            commits.absorb(c);
            phase.attempted += attempted;
            phase.failed += failed;
            phase.traced = (phase.traced.0 + on.0, phase.traced.1 + on.1);
            phase.untraced = (phase.untraced.0 + off.0, phase.untraced.1 + off.1);
        }
        phase.op_ns = ops.summary();
        phase.commit_ns = commits.summary();
        phase
    })
}

/// Sets the world up once, timed, for the run.
pub fn timed_setup<W>(setup: impl FnOnce() -> Result<W>) -> Result<(W, Vec<f64>)> {
    let start = Instant::now();
    let world = setup()?;
    Ok((world, vec![start.elapsed().as_secs_f64()]))
}

/// Sets the world up several more times once the run is over (none under
/// `--smoke`) and tears each down again, so that `setup_s` is a decile of
/// many. They come last so that the peak resident set is that of one
/// world, not of what the allocator kept of several.
pub fn more_setups<W>(
    cfg: &RunCfg,
    times: &mut Vec<f64>,
    mut setup: impl FnMut() -> Result<W>,
    mut teardown: impl FnMut(W),
) -> Result<()> {
    let begun = Instant::now();
    while !cfg.smoke
        && (times.len() < MIN_SETUPS
            || (times.len() < MAX_SETUPS && begun.elapsed() < SETUP_BUDGET))
    {
        let start = Instant::now();
        let world = setup()?;
        times.push(start.elapsed().as_secs_f64());
        teardown(world);
    }
    Ok(())
}

/// What the last restart's recovery did, as per-layer metrics.
pub fn note_recovery(extra: &mut BTreeMap<&'static str, f64>, report: &bess_wal::RecoveryReport) {
    extra.insert("wal.recovery.scanned", report.scanned as f64);
    extra.insert("wal.recovery.redone", report.redone as f64);
}

/// Everything a workload hands back to `main` for reporting.
pub struct Outcome {
    pub digest: u64,
    pub gen_s: f64,
    pub setup_s: Vec<f64>,
    pub phase: Phase,
    /// Failures the end-of-run oracle found, beyond `phase.failed`.
    pub oracle_failed: u64,
    /// What the oracle checked, for the human-readable report.
    pub oracle_note: String,
    /// Each timed restart, in milliseconds.
    pub recovery_ms: Vec<f64>,
    /// Allocated bytes over live user bytes.
    pub space_ratio: f64,
    /// Bytes the measured phase's updates changed, as the schedule counts
    /// them (0 on a workload without a log).
    pub user_bytes_updated: u64,
    /// Values the workload computes itself (gauges, peaks, recovery
    /// counts), by per-layer metric name.
    pub extra: BTreeMap<&'static str, f64>,
}

#[derive(Clone, Copy, Default)]
pub struct DeviceDelta {
    pub reads: u64,
    pub read_bytes: u64,
    pub writes: u64,
    pub write_bytes: u64,
    pub syncs: u64,
    pub busy_ns: u64,
}

impl DeviceDelta {
    pub fn read(devices: &[&crate::device::BenchDevice]) -> DeviceDelta {
        let mut d = DeviceDelta::default();
        for dev in devices {
            let c = &dev.counts;
            d.reads += c.reads.load(Ordering::Relaxed);
            d.read_bytes += c.read_bytes.load(Ordering::Relaxed);
            d.writes += c.writes.load(Ordering::Relaxed);
            d.write_bytes += c.write_bytes.load(Ordering::Relaxed);
            d.syncs += c.syncs.load(Ordering::Relaxed);
            d.busy_ns += c.busy_ns.load(Ordering::Relaxed);
        }
        d
    }

    pub fn since(self, earlier: DeviceDelta) -> DeviceDelta {
        DeviceDelta {
            reads: self.reads - earlier.reads,
            read_bytes: self.read_bytes - earlier.read_bytes,
            writes: self.writes - earlier.writes,
            write_bytes: self.write_bytes - earlier.write_bytes,
            syncs: self.syncs - earlier.syncs,
            busy_ns: self.busy_ns - earlier.busy_ns,
        }
    }
}
