//! `cold_traverse`: cold dereference through the three fault waves.
//!
//! Two `Session::remote` clients reach the owning server through one
//! `NodeServer` gateway. The graph has 2 048 segments of 32 64-byte nodes
//! (about 17 MiB of pages) against a 256-frame private pool (16 times
//! smaller) and a 1 024-slot shared cache (4 times smaller). A node's
//! `next` stays in its segment 75 % of the time, in its 16-segment cluster
//! 20 %, and goes anywhere 5 %. An operation is a read-only transaction of
//! eight dereferences: seven of eight operations start at a node of a
//! zipf-chosen cluster and follow `next` (a node of the cluster, not its
//! head: from the head there is one path per cluster, and which pages it
//! crosses would be the seed's luck); one of eight continues a sequential
//! cursor, the scan that should not evict the hot clusters. Each client
//! has its own half of the graph: two remote sessions that walk the same
//! segments fail today with `vm error: address ... is not reserved` (a
//! read-only commit ships the pages its own swizzling dirtied, and the
//! other session then reads pointers that mean nothing in its address
//! space), and a benchmark must run workloads on which no operation fails. bess-vm, bess-segment, both levels of bess-cache, the node
//! server and the verifying read path of bess-storage do the work. Nothing
//! is logged, so a change to the log must not move this workload.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use bess_core::Session;
use bess_obs::Counter;
use bess_segment::Oid;
use bess_server::NodeServer;

use super::{
    drive, more_setups, note_recovery, timed_setup, DeviceDelta, OpReport, Outcome, RunCfg, Tick,
    NET_CLIENTS,
};
use crate::gen::{Digest, Rng, Zipf};
use crate::stack::{self, Cluster, Result};
use crate::trace;

const NAME: &str = "cold_traverse";
const SEGMENTS: usize = 2048;
const PER_SEGMENT: usize = 32;
const CLUSTER_SEGMENTS: usize = 16;
const CLUSTER_NODES: usize = CLUSTER_SEGMENTS * PER_SEGMENT;
const HOPS: usize = 8;
const POOL_FRAMES: usize = 256;
const SHARED_SLOTS: usize = 1024;
/// Skew of the cluster choice. 0.99 kept nine dereferences in ten inside
/// the shared cache; the generator is tuned so that both cache levels hit
/// between 0.2 and 0.9 of the time.
const CLUSTER_THETA: f64 = 0.99;
/// Operations generated per client; a run that outlasts them wraps.
const SCHEDULE: usize = 1 << 16;

#[derive(Clone, Copy)]
enum Op {
    /// Walk from this node.
    Walk(u32),
    /// Read the next `HOPS` nodes of the client's cursor.
    Scan,
}

struct World {
    cluster: Cluster,
    gateway: NodeServer,
    sessions: Vec<Arc<Session>>,
    oids: Vec<Oid>,
}

struct Client {
    session: Arc<Session>,
    read_faults: Counter,
    schedule: Vec<Op>,
    /// The client's half of the node ids, and its scan position in it.
    half: std::ops::Range<usize>,
    cursor: usize,
}

/// The successor of every node, by node id. "Anywhere" is anywhere in the
/// half of the graph the node's client walks.
fn graph(segments: usize, rng: &mut Rng) -> Vec<u32> {
    let nodes = segments * PER_SEGMENT;
    let cluster_nodes = CLUSTER_NODES;
    let half = nodes / NET_CLIENTS;
    (0..nodes)
        .map(|i| {
            let roll = rng.below(100);
            let (base, span) = if roll < 75 {
                (i / PER_SEGMENT * PER_SEGMENT, PER_SEGMENT)
            } else if roll < 95 {
                (i / cluster_nodes * cluster_nodes, cluster_nodes)
            } else {
                (i / half * half, half)
            };
            (base + rng.below(span as u64) as usize) as u32
        })
        .collect()
}

fn setup(segments: usize, next: &[u32]) -> Result<World> {
    let mut cluster = Cluster::new(1)?;
    let areas = cluster.servers[0].areas.clone();
    // The load runs embedded at the server machine, as trusted code does.
    let db = stack::create_db(&areas, NAME)?;
    let loader = stack::embedded_session(db, &areas, None, stack::default_pool_frames());
    let oids = stack::load_graph(&loader, segments, PER_SEGMENT, next)?;
    drop(loader);
    cluster.start_servers()?;
    let gateway = cluster.node_server(50, SHARED_SLOTS);
    let mut sessions = Vec::with_capacity(NET_CLIENTS);
    for c in 0..NET_CLIENTS as u32 {
        let conn = cluster.client_via(60 + c, &gateway);
        sessions.push(stack::remote_session(
            stack::open_db(&areas)?,
            conn,
            POOL_FRAMES,
        ));
    }
    Ok(World {
        cluster,
        gateway,
        sessions,
        oids,
    })
}

fn teardown(world: World) {
    drop(world.sessions);
    world.gateway.shutdown();
    world.cluster.shutdown();
}

/// One read-only transaction; returns the sum of the node ids it read.
fn run_op(client: &mut Client, oids: &[Oid], op: Op) -> Result<u64> {
    let session = &client.session;
    {
        let _s = trace::call("begin", 1);
        session.begin()?;
    }
    let traced = trace::is_on();
    let mut sum = 0u64;
    let get = |at| -> Result<stack::Node> {
        let faults = if traced { client.read_faults.get() } else { 0 };
        let mut span = trace::call("get", 1);
        let node = stack::get(session, at)?;
        if traced && client.read_faults.get() != faults {
            span.rename("get.cold");
        }
        Ok(node)
    };
    match op {
        Op::Walk(start) => {
            let mut at = {
                let _s = trace::call("deref_global", 1);
                stack::deref_global(session, oids[start as usize])?
            };
            for _ in 0..HOPS {
                let node = get(at)?;
                sum = sum.wrapping_add(node.id);
                at = node.next.ok_or("graph node without successor")?;
            }
        }
        Op::Scan => {
            for j in 0..HOPS {
                let at = {
                    let _s = trace::call("deref_global", 1);
                    stack::deref_global(session, oids[client.half.start + client.cursor + j])?
                };
                sum = sum.wrapping_add(get(at)?.id);
            }
            client.cursor = (client.cursor + HOPS) % client.half.len();
        }
    }
    let _s = trace::call("commit", 1);
    session.commit()?;
    Ok(sum)
}

/// What the shadow graph says the operation reads.
fn expected(next: &[u32], scan_from: usize, op: Op) -> u64 {
    match op {
        Op::Walk(start) => {
            let mut at = start as usize;
            (0..HOPS).fold(0u64, |sum, _| {
                let here = at as u64;
                at = next[at] as usize;
                sum + here
            })
        }
        Op::Scan => (0..HOPS).map(|j| (scan_from + j) as u64).sum(),
    }
}

pub fn run(cfg: &RunCfg) -> Result<Outcome> {
    let segments = cfg.scaled(SEGMENTS, 2 * NET_CLIENTS * CLUSTER_SEGMENTS);
    let gen_start = Instant::now();
    let next = graph(segments, &mut Rng::stream(cfg.seed, NAME, u64::MAX));
    let clusters = segments / CLUSTER_SEGMENTS;
    let own_clusters = clusters / NET_CLIENTS;
    let zipf = Zipf::new(own_clusters, CLUSTER_THETA);
    let mut digest = Digest::new();
    for &n in &next {
        digest.mix(u64::from(n));
    }
    let schedules: Vec<Vec<Op>> = (0..NET_CLIENTS as u64)
        .map(|c| {
            let mut rng = Rng::stream(cfg.seed, NAME, c);
            (0..cfg.scaled(SCHEDULE, 256))
                .map(|i| {
                    if i % 8 == 7 {
                        digest.mix(u64::MAX);
                        Op::Scan
                    } else {
                        let cluster = c as usize * own_clusters + zipf.sample(&mut rng);
                        let start =
                            (cluster * CLUSTER_NODES) as u64 + rng.below(CLUSTER_NODES as u64);
                        digest.mix(start);
                        Op::Walk(start as u32)
                    }
                })
                .collect()
        })
        .collect();
    let gen_s = gen_start.elapsed().as_secs_f64();

    let (world, mut setup_s) = timed_setup(|| setup(segments, &next))?;
    let space_ratio = stack::allocated_bytes(&world.cluster.servers[0].area) as f64
        / (next.len() * stack::NODE_BYTES) as f64;
    let mut clients: Vec<Client> = world
        .sessions
        .iter()
        .zip(schedules)
        .enumerate()
        .map(|(c, (session, schedule))| Client {
            session: session.clone(),
            read_faults: stack::session_counter(session, "vm.read_faults"),
            schedule,
            half: c * next.len() / NET_CLIENTS..(c + 1) * next.len() / NET_CLIENTS,
            cursor: 0,
        })
        .collect();

    world.cluster.set_delays(true);
    let oids = &world.oids;
    let snapshot = |world: &World| {
        let mut snap = world.cluster.snapshot();
        snap.absorb("", &stack::node_server_snapshot(&world.gateway));
        for session in &world.sessions {
            snap.absorb("", &stack::session_snapshot(session));
        }
        (snap, DeviceDelta::read(&[&world.cluster.servers[0].dev]))
    };
    let phase = drive(
        cfg,
        &mut clients,
        1 << 16,
        |client, tick: Tick| {
            let op = client.schedule[tick.index as usize % client.schedule.len()];
            let want = expected(&next, client.half.start + client.cursor, op);
            match run_op(client, oids, op) {
                Ok(sum) if sum == want => OpReport::ok(),
                Ok(_) => OpReport::failed(),
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
        snapshot(&world).0.counter("vm.reserved_bytes") as f64 / NET_CLIENTS as f64,
    );

    // ---- crash the owner, restart, walk every cluster once ---------------------
    drop(clients);
    let World {
        mut cluster,
        gateway,
        sessions,
        oids,
    } = world;
    drop(sessions);
    gateway.shutdown();
    let areas = cluster.servers[0].areas.clone();
    let logs = cluster.crashed_logs(0, cfg.restarts())?;
    let mut recovery_ms = Vec::new();
    let mut oracle_failed = 0u64;
    let restarts = logs.len();
    for (r, log) in logs.into_iter().enumerate() {
        cluster.crash_server(0);
        let start = Instant::now();
        let report = cluster.restart_server(0, log);
        let conn = cluster.client(90, false);
        let session = stack::remote_session(stack::open_db(&areas)?, conn, POOL_FRAMES);
        session.begin()?;
        let (sum, _) = stack::walk(&session, stack::deref_global(&session, oids[0])?, HOPS)?;
        session.commit()?;
        recovery_ms.push(start.elapsed().as_secs_f64() * 1e3);
        oracle_failed += u64::from(sum != expected(&next, 0, Op::Walk(0)));
        note_recovery(&mut extra, &report);
        if r + 1 == restarts {
            cluster.set_delays(false);
            for c in 0..clusters {
                session.begin()?;
                let head = c * CLUSTER_NODES;
                let (sum, _) =
                    stack::walk(&session, stack::deref_global(&session, oids[head])?, HOPS)?;
                session.commit()?;
                oracle_failed += u64::from(sum != expected(&next, 0, Op::Walk(head as u32)));
            }
        }
    }
    let oracle_note = format!(
        "every walk's node-id sum checked against the shadow graph of {} nodes; all {clusters} cluster \
         heads walked again after the owner crashed and restarted",
        next.len()
    );

    cluster.shutdown();
    more_setups(cfg, &mut setup_s, || setup(segments, &next), teardown)?;
    Ok(Outcome {
        digest: digest.value(),
        gen_s,
        setup_s,
        phase,
        oracle_failed,
        oracle_note,
        recovery_ms,
        space_ratio,
        user_bytes_updated: 0,
        extra,
    })
}
