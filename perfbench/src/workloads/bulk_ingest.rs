//! `bulk_ingest`: the write-heavy use of the lock, log and storage layers
//! that `oltp_zipf` uses read-mostly, and the only workload where the 2PC
//! phases and the batched fan-out do work.
//!
//! Two non-caching clients, three servers. A transaction X-fetches eight
//! consecutive pages of its client's pre-allocated ring, which is striped
//! over all three owners, and writes a 512-byte record into each, so every
//! commit is a presumed-commit 2PC round coordinated by server 0. The run
//! ends with a crash and restart of participant 1 and a read-back of every
//! ring page.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bess_server::ClientConn;

use super::{
    drive, more_setups, note_recovery, timed_setup, DeviceDelta, OpReport, Outcome, RunCfg, Tick,
    NET_CLIENTS,
};
use crate::gen::{Digest, Rng};
use crate::stack::{self, Cluster, Result};
use crate::trace;

const NAME: &str = "bulk_ingest";
const SERVERS: usize = 3;
const PAGES_PER_TXN: usize = 8;
const RECORD_BYTES: usize = 512;
/// Ring pages per client: 384 transactions per lap.
const RING: usize = 3072;
/// The participant that crashes at the end of the run.
const VICTIM: usize = 1;

struct World {
    cluster: Cluster,
    /// `rings[client][k]` is `(area, page)`; position `k` lives on area
    /// `k % SERVERS`.
    rings: Vec<Vec<(u32, u64)>>,
    conns: Vec<Arc<ClientConn>>,
}

struct Client {
    conn: Arc<ClientConn>,
    ring: Vec<(u32, u64)>,
    salt: u64,
    /// Per transaction index: `Some(true)` acknowledged, `Some(false)`
    /// fate unknown.
    fate: Vec<Option<bool>>,
    measured_acked: u64,
}

/// The record transaction `seq` of `client` writes at ring position `pos`.
fn record(salt: u64, client: u64, seq: u64, pos: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(RECORD_BYTES);
    // seq + 1 so that no record is all zeroes, the never-written state.
    for v in [client, seq + 1, pos] {
        out.extend_from_slice(&v.to_le_bytes());
    }
    let mut x = salt ^ (client << 48) ^ (seq << 16) ^ pos | 1;
    while out.len() < RECORD_BYTES {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        out.extend_from_slice(&x.to_le_bytes());
    }
    out
}

fn setup(ring: usize) -> Result<World> {
    let mut cluster = Cluster::new(SERVERS)?;
    let per_area = ring.div_ceil(SERVERS);
    let mut area_pages = Vec::with_capacity(SERVERS);
    for s in &cluster.servers {
        area_pages.push(stack::alloc_pages(&s.area, NET_CLIENTS * per_area)?);
    }
    let rings = (0..NET_CLIENTS)
        .map(|c| {
            (0..ring)
                .map(|k| {
                    let area = k % SERVERS;
                    (area as u32, area_pages[area][c * per_area + k / SERVERS])
                })
                .collect()
        })
        .collect();
    cluster.start_servers()?;
    let conns = (0..NET_CLIENTS as u32)
        .map(|c| cluster.client(1 + c, false))
        .collect();
    Ok(World {
        cluster,
        rings,
        conns,
    })
}

fn teardown(world: World) {
    for conn in &world.conns {
        conn.disconnect();
    }
    world.cluster.shutdown();
}

fn positions(seq: u64, ring: usize) -> impl Iterator<Item = usize> {
    let first = seq as usize * PAGES_PER_TXN % ring;
    (0..PAGES_PER_TXN).map(move |j| (first + j) % ring)
}

fn run_txn(client: &Client, c: u64, seq: u64) -> Result<u64> {
    let conn = &client.conn;
    {
        let _s = trace::call("begin", 1);
        conn.begin()?;
    }
    let mut updates = Vec::with_capacity(PAGES_PER_TXN);
    for pos in positions(seq, client.ring.len()) {
        let (area, page_no) = client.ring[pos];
        let page = stack::page(area, page_no);
        let data = {
            let _s = trace::call("fetch_page", 1);
            conn.fetch_page(page, stack::lock_mode(true))?
        };
        updates.push(stack::page_update(
            page,
            0,
            &data[..RECORD_BYTES],
            record(client.salt, c, seq, pos as u64),
        ));
    }
    let start = Instant::now();
    let _s = trace::call("commit", 1);
    conn.commit(updates)?;
    Ok(start.elapsed().as_nanos() as u64)
}

pub fn run(cfg: &RunCfg) -> Result<Outcome> {
    let ring = cfg
        .scaled(RING, 96)
        .next_multiple_of(PAGES_PER_TXN * SERVERS);
    // The schedule is the ring order; the seed picks the record contents.
    let gen_start = Instant::now();
    let salts: Vec<u64> = (0..NET_CLIENTS as u64)
        .map(|c| Rng::stream(cfg.seed, NAME, c).next_u64())
        .collect();
    let mut digest = Digest::new();
    for (c, &salt) in salts.iter().enumerate() {
        digest.mix_bytes(&record(salt, c as u64, 0, 0));
    }
    let gen_s = gen_start.elapsed().as_secs_f64();

    let (mut world, mut setup_s) = timed_setup(|| setup(ring))?;
    let allocated: u64 = world
        .cluster
        .servers
        .iter()
        .map(|s| stack::allocated_bytes(&s.area))
        .sum();
    let space_ratio = allocated as f64 / (NET_CLIENTS * ring * RECORD_BYTES) as f64;
    let mut clients: Vec<Client> = (0..NET_CLIENTS)
        .map(|c| Client {
            conn: world.conns[c].clone(),
            ring: world.rings[c].clone(),
            salt: salts[c],
            fate: Vec::new(),
            measured_acked: 0,
        })
        .collect();

    world.cluster.set_delays(true);
    let snapshot = |world: &World| {
        let mut snap = world.cluster.snapshot();
        for conn in &world.conns {
            snap.absorb("", &stack::client_snapshot(conn));
        }
        let devs: Vec<_> = world.cluster.servers.iter().map(|s| &*s.dev).collect();
        (snap, DeviceDelta::read(&devs))
    };
    let phase = drive(
        cfg,
        &mut clients,
        1 << 13,
        |client, tick: Tick| {
            debug_assert_eq!(client.fate.len() as u64, tick.index);
            match run_txn(client, tick.client as u64, tick.index) {
                Ok(commit_ns) => {
                    client.fate.push(Some(true));
                    client.measured_acked += u64::from(tick.measured);
                    OpReport {
                        ok: true,
                        commit_ns: Some(commit_ns),
                    }
                }
                Err(_) => {
                    client.fate.push(Some(false));
                    let _s = trace::call("abort", 1);
                    let _ = client.conn.abort();
                    OpReport::failed()
                }
            }
        },
        || snapshot(&world),
    );

    // ---- crash one participant, restart, read back ---------------------------
    for conn in &world.conns {
        conn.disconnect();
    }
    let logs = world.cluster.crashed_logs(VICTIM, cfg.restarts())?;
    let victim_page = world.rings[0][VICTIM];
    let mut recovery_ms = Vec::new();
    let mut extra = BTreeMap::new();
    for log in logs {
        let probe = stack::page(victim_page.0, victim_page.1);
        let (ms, report) = world.cluster.timed_restart(VICTIM, log, probe)?;
        recovery_ms.push(ms);
        note_recovery(&mut extra, &report);
    }
    // A branch that was prepared but undecided at the crash asks the
    // coordinator for its verdict.
    let victim = world.cluster.servers[VICTIM].server();
    let settle_until = Instant::now() + Duration::from_secs(5);
    while !victim.in_doubt().is_empty() && Instant::now() < settle_until {
        victim.resolve_in_doubt();
    }
    world.cluster.set_delays(false);

    let mut oracle_failed = 0u64;
    let mut acked_txns = 0u64;
    for (c, client) in clients.iter().enumerate() {
        let mut by_area: Vec<Vec<u64>> = vec![Vec::new(); SERVERS];
        for &(area, page) in &client.ring {
            by_area[area as usize].push(page);
        }
        let mut images: Vec<std::vec::IntoIter<Vec<u8>>> = Vec::with_capacity(SERVERS);
        for (s, pages) in by_area.iter().enumerate() {
            images.push(stack::read_pages(&world.cluster.servers[s].area, pages)?.into_iter());
        }
        let held: Vec<Vec<u8>> = (0..client.ring.len())
            .map(|k| images[k % SERVERS].next().expect("one image per ring page"))
            .collect();
        oracle_failed += check_ring(client, c as u64, &held);
        acked_txns += client.fate.iter().filter(|f| **f == Some(true)).count() as u64;
    }
    let oracle_note = format!(
        "{} ring pages read back after participant {VICTIM} crashed and restarted: every one of \
         {acked_txns} acknowledged transactions has its {PAGES_PER_TXN} records, unacknowledged ones are all-or-nothing",
        NET_CLIENTS * ring
    );
    let user_bytes_updated = (PAGES_PER_TXN * RECORD_BYTES) as u64
        * clients.iter().map(|c| c.measured_acked).sum::<u64>();

    teardown(world);
    more_setups(cfg, &mut setup_s, || setup(ring), teardown)?;
    Ok(Outcome {
        digest: digest.value(),
        gen_s,
        setup_s,
        phase,
        oracle_failed,
        oracle_note,
        recovery_ms,
        space_ratio,
        user_bytes_updated,
        extra,
    })
}

/// Counts the transactions of `client` that the ring contradicts. Each
/// ring page must hold the record of its last acknowledged writer, or of a
/// later writer whose fate is unknown; and a transaction of unknown fate
/// shows on all of the pages it wrote last, or on none.
fn check_ring(client: &Client, c: u64, held: &[Vec<u8>]) -> u64 {
    let ring = client.ring.len();
    // Per ring position, the transactions that wrote it, oldest first.
    let mut writers: Vec<Vec<u64>> = vec![Vec::new(); ring];
    for seq in 0..client.fate.len() as u64 {
        for pos in positions(seq, ring) {
            writers[pos].push(seq);
        }
    }
    let mut bad = std::collections::BTreeSet::new();
    let mut shown: BTreeMap<u64, (u32, u32)> = BTreeMap::new(); // unknown seq -> (shown, hidden)
    for (pos, seqs) in writers.iter().enumerate() {
        let image = &held[pos][..RECORD_BYTES];
        let last_acked = seqs
            .iter()
            .rposition(|&s| client.fate[s as usize] == Some(true));
        let candidates = &seqs[last_acked.unwrap_or(0)..];
        let holder = candidates
            .iter()
            .rev()
            .find(|&&s| image == record(client.salt, c, s, pos as u64));
        match (holder, last_acked) {
            (Some(_), _) => {}
            (None, None) if image.iter().all(|&b| b == 0) => {}
            (None, Some(i)) => {
                bad.insert(seqs[i]);
            }
            (None, None) => {
                bad.insert(seqs.first().copied().unwrap_or(0));
            }
        }
        // All-or-nothing only binds a transaction on pages nobody wrote after it.
        if let Some(&last) = seqs.last() {
            if client.fate[last as usize] == Some(false) {
                let e = shown.entry(last).or_default();
                if holder == Some(&last) {
                    e.0 += 1;
                } else {
                    e.1 += 1;
                }
            }
        }
    }
    for (seq, (shows, hides)) in shown {
        if shows > 0 && hides > 0 {
            bad.insert(seq);
        }
    }
    bad.len() as u64
}
