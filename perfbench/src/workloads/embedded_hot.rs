//! `embedded_hot`: the paper's headline fast path with the wire and the
//! device absent.
//!
//! One thread, `Session::embedded` with a memory log and a `LockManager`,
//! 256 segments of 32 nodes, all resident in the default private pool. An
//! operation is a transaction of 1 024 warm swizzled dereferences; every
//! eighth transaction also rewrites one node (write fault, update
//! detection, log, commit). What is measured is the CPU cost of bess-vm,
//! bess-segment and bess-core. An updating transaction logs about 8 KiB for
//! its 8 user bytes, which is why only one in eight updates: the memory log
//! has to stay well below 256 MiB over a run.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use bess_cache::AreaSet;
use bess_core::Session;
use bess_segment::Oid;
use bess_wal::LogManager;

use super::{
    drive, more_setups, note_recovery, timed_setup, DeviceDelta, OpReport, Outcome, RunCfg, Tick,
};
use crate::device::{BenchDevice, DeviceModel};
use crate::gen::{Digest, Rng};
use crate::stack::{self, Result};
use crate::trace;

const NAME: &str = "embedded_hot";
const SEGMENTS: usize = 256;
const PER_SEGMENT: usize = 32;
const HOPS: usize = 1024;
const UPDATE_EVERY: u64 = 8;
/// Transactions generated; a run that outlasts them wraps.
const SCHEDULE: usize = 1 << 18;

struct World {
    areas: Arc<AreaSet>,
    dev: Arc<BenchDevice>,
    log: Arc<LogManager>,
    session: Arc<Session>,
    oids: Vec<Oid>,
}

struct Client {
    session: Arc<Session>,
    /// `(start node, sum of the node ids the walk reads)`.
    schedule: Vec<(u32, u64)>,
    /// Acknowledged rewrites per node.
    bumps: Vec<u32>,
    measured_bumps: u64,
}

fn setup(segments: usize, next: &[u32]) -> Result<World> {
    let (area, dev) = stack::new_area(0, DeviceModel::ZERO)?;
    let areas = Arc::new(AreaSet::new());
    areas.add(area.clone());
    let db = stack::create_db(&areas, NAME)?;
    let loader = stack::embedded_session(db, &areas, None, stack::default_pool_frames());
    let oids = stack::load_graph(&loader, segments, PER_SEGMENT, next)?;
    drop(loader);
    stack::sync_area(&area)?;
    let log = stack::mem_log();
    let session = stack::embedded_session(
        stack::open_db(&areas)?,
        &areas,
        Some(log.clone()),
        stack::default_pool_frames(),
    );
    Ok(World {
        areas,
        dev,
        log,
        session,
        oids,
    })
}

fn run_txn(client: &Client, oids: &[Oid], start: u32, update: bool) -> Result<(u64, Option<u64>)> {
    let session = &client.session;
    {
        let _s = trace::call("begin", 1);
        session.begin()?;
    }
    let at = {
        let _s = trace::call("deref_global", 1);
        stack::deref_global(session, oids[start as usize])?
    };
    let (sum, _) = {
        let _s = trace::call("get", HOPS as u32);
        stack::walk(session, at, HOPS)?
    };
    if update {
        let _s = trace::call("put", 1);
        stack::bump(session, at)?;
    }
    let commit_start = Instant::now();
    let _s = trace::call("commit", 1);
    session.commit()?;
    Ok((
        sum,
        update.then(|| commit_start.elapsed().as_nanos() as u64),
    ))
}

pub fn run(cfg: &RunCfg) -> Result<Outcome> {
    let segments = cfg.scaled(SEGMENTS, 8);
    let nodes = segments * PER_SEGMENT;
    let gen_start = Instant::now();
    let mut rng = Rng::stream(cfg.seed, NAME, 0);
    // A successor anywhere in the graph: it is all resident, so locality
    // would change nothing.
    let next: Vec<u32> = (0..nodes).map(|_| rng.below(nodes as u64) as u32).collect();
    let mut digest = Digest::new();
    let schedule: Vec<(u32, u64)> = (0..cfg.scaled(SCHEDULE, 512))
        .map(|_| {
            let start = rng.below(nodes as u64) as u32;
            let mut at = start as usize;
            let sum = (0..HOPS).fold(0u64, |sum, _| {
                let here = at as u64;
                at = next[at] as usize;
                sum + here
            });
            digest.mix(u64::from(start));
            digest.mix(sum);
            (start, sum)
        })
        .collect();
    let gen_s = gen_start.elapsed().as_secs_f64();

    let (world, mut setup_s) = timed_setup(|| setup(segments, &next))?;
    let area = world.areas.get(0).expect("area 0");
    let space_ratio = stack::allocated_bytes(&area) as f64 / (nodes * stack::NODE_BYTES) as f64;
    let mut clients = vec![Client {
        session: world.session.clone(),
        schedule,
        bumps: vec![0; nodes],
        measured_bumps: 0,
    }];

    let oids = &world.oids;
    let snapshot = |world: &World| {
        (
            stack::session_snapshot(&world.session),
            DeviceDelta::read(&[&world.dev]),
        )
    };
    let phase = drive(
        cfg,
        &mut clients,
        1 << 18,
        |client, tick: Tick| {
            let (start, want) = client.schedule[tick.index as usize % client.schedule.len()];
            let update = tick.index % UPDATE_EVERY == UPDATE_EVERY - 1;
            match run_txn(client, oids, start, update) {
                Ok((sum, commit_ns)) => {
                    if update {
                        client.bumps[start as usize] += 1;
                        client.measured_bumps += u64::from(tick.measured);
                    }
                    OpReport {
                        ok: sum == want,
                        commit_ns,
                    }
                }
                Err(_) => {
                    let _s = trace::call("abort", 1);
                    let _ = client.session.abort();
                    OpReport::failed()
                }
            }
        },
        || snapshot(&world),
    );
    let mut extra = BTreeMap::new();
    extra.insert(
        "vm.reserved_bytes",
        snapshot(&world).0.counter("vm.reserved_bytes") as f64,
    );

    // ---- crash, recover, read every node back -----------------------------------
    let client = clients.pop().expect("one client");
    // A restart is a second of processor work here with nothing modelled to
    // wait for, so the host's slow spells reach all of it: two more takes.
    let logs = (0..cfg.restarts() + 2 * usize::from(!cfg.smoke))
        .map(|_| stack::crashed_log(&world.log))
        .collect::<Result<Vec<_>>>()?;
    let World {
        areas, dev, oids, ..
    } = world;
    drop(client.session);
    let mut recovery_ms = Vec::new();
    let mut oracle_failed = 0u64;
    let restarts = logs.len();
    for (r, log) in logs.into_iter().enumerate() {
        dev.crash();
        let start = Instant::now();
        let report = stack::recover_embedded(&log, &areas)?;
        let session = stack::embedded_session(
            stack::open_db(&areas)?,
            &areas,
            None,
            stack::default_pool_frames(),
        );
        let first = stack::get(&session, stack::deref_global(&session, oids[0])?)?;
        recovery_ms.push(start.elapsed().as_secs_f64() * 1e3);
        oracle_failed += u64::from(first.id != 0);
        note_recovery(&mut extra, &report);
        if r + 1 == restarts {
            for (i, &oid) in oids.iter().enumerate() {
                let node = stack::get(&session, stack::deref_global(&session, oid)?)?;
                let follows = node
                    .next
                    .map(|n| stack::get(&session, n).map(|t| t.id))
                    .transpose()?;
                if node.id != i as u64
                    || node.counter != u64::from(client.bumps[i])
                    || follows != Some(u64::from(next[i]))
                {
                    oracle_failed += 1;
                }
            }
        }
    }
    let oracle_note = format!(
        "every walk's node-id sum checked; after recovery from the crashed log all {nodes} nodes hold \
         their id, successor and the count of their {} acknowledged rewrites",
        client.bumps.iter().map(|&b| u64::from(b)).sum::<u64>()
    );
    drop((areas, dev));
    more_setups(cfg, &mut setup_s, || setup(segments, &next), drop)?;

    Ok(Outcome {
        digest: digest.value(),
        gen_s,
        setup_s,
        phase,
        oracle_failed,
        oracle_note,
        recovery_ms,
        space_ratio,
        // A rewrite changes the node's 8-byte counter.
        user_bytes_updated: 8 * client.measured_bumps,
        extra,
    })
}
