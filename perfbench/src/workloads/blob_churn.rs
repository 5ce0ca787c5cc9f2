//! `blob_churn`: bess-largeobj and the buddy allocator under aging, which
//! every other workload bypasses.
//!
//! One thread, `LargeObject` over one storage area with 4 KiB pages on a
//! zero-delay device: create, append, truncate, read and destroy with
//! log-uniform sizes from 4 KiB to 1 MiB around a live set of 256 objects
//! that set-up loads, then a drain. It is the place where a change of size classes or of
//! coalescing shows, in `space_bytes_per_user_byte`. The aging method
//! follows *Fragmentation in Large Object Repositories* (PAPERS.md).

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use bess_largeobj::LargeObject;
use bess_storage::StorageArea;

use super::{drive, more_setups, timed_setup, DeviceDelta, OpReport, Outcome, RunCfg, Tick};
use crate::device::{BenchDevice, DeviceModel};
use crate::gen::{log_uniform_at, permutation, Digest, Rng};
use crate::stack::{self, Result};
use crate::stats::Recorder;
use crate::trace;

const NAME: &str = "blob_churn";
const LIVE_SET: usize = 256;
const MIN_BYTES: u64 = 4 << 10;
const MAX_BYTES: u64 = 1 << 20;
/// A blob that an append would take past this is truncated instead, so
/// that the area's footprint stays bounded however long the run is.
const BLOB_CAP: u64 = 2 << 20;
/// Operations generated; a run that outlasts them wraps.
const SCHEDULE: usize = 1 << 19;
/// Bytes read back after a restart before the store counts as
/// serving, in chunks of `RESTART_CHUNK` taken from the blobs in turn. A
/// fixed amount, so that the restart time does not depend on how large
/// the seed let the live set grow.
const RESTART_READ: u64 = 32 << 20;
const RESTART_CHUNK: u64 = 64 << 10;
/// How often the space and fragmentation peaks are sampled, in operations.
const SAMPLE_EVERY: u64 = 64;

#[derive(Clone, Copy)]
struct Step {
    roll: u8,
    bytes: u32,
    pick: u32,
}

struct World {
    area: Arc<StorageArea>,
    dev: Arc<BenchDevice>,
    /// The initial live set.
    live: Vec<Blob>,
}

struct Blob {
    /// Where in the pattern the blob's byte 0 sits.
    shift: usize,
    lo: LargeObject,
}

#[derive(Default)]
struct KindCost {
    ns: u64,
    bytes: u64,
}

struct Client {
    area: Arc<StorageArea>,
    schedule: Vec<Step>,
    /// Every blob's content is a window of this buffer, so that writes
    /// cost no generation and reads need no shadow copy.
    pattern: Vec<u8>,
    live: Vec<Blob>,
    live_bytes: u64,
    created: u64,
    append: KindCost,
    read: KindCost,
    destroy_ns: Recorder,
    depth_max: usize,
    peak_space: f64,
    peak_frag: u64,
    measured_user_bytes: u64,
}

/// Where in the pattern the `n`th blob's byte 0 sits: word-aligned, with
/// room for a full blob after it.
fn shift_of(n: u64) -> usize {
    (n as usize * 4099 * 8) % BLOB_CAP as usize
}

/// A fresh area loaded with one blob per entry of `sizes`.
fn setup(sizes: &[u32], pattern: &[u8]) -> Result<World> {
    let (area, dev) = stack::new_area(0, DeviceModel::ZERO)?;
    let mut live = Vec::with_capacity(LIVE_SET + 1);
    for (n, &bytes) in sizes.iter().enumerate() {
        let shift = shift_of(n as u64);
        let mut lo = stack::blob_create(&area);
        lo.append(&pattern[shift..shift + bytes as usize])?;
        live.push(Blob { shift, lo });
    }
    Ok(World { area, dev, live })
}

/// What `len` bytes of `blob` at `offset` must read as.
fn window<'a>(pattern: &'a [u8], blob: &Blob, offset: u64, len: usize) -> &'a [u8] {
    let at = blob.shift + offset as usize;
    &pattern[at..at + len]
}

impl Client {
    fn step(&mut self, step: Step, tick: Tick) -> Result<bool> {
        let bytes = u64::from(step.bytes);
        let low = self.live.len() < LIVE_SET / 2;
        let kind = match step.roll {
            r if low || (r < 30 && self.live.len() < LIVE_SET) => 0,
            r if r < 30 => 4,
            r if r < 55 => 1,
            r if r < 70 => 2,
            r if r < 85 => 3,
            _ => 4,
        };
        let pick = step.pick as usize % self.live.len().max(1);
        let started = Instant::now();
        let ok = match kind {
            0 => {
                let _s = trace::call("lo.create", 1);
                let shift = shift_of(self.created);
                self.created += 1;
                let mut blob = Blob {
                    shift,
                    lo: stack::blob_create(&self.area),
                };
                blob.lo
                    .append(&self.pattern[shift..shift + bytes as usize])?;
                self.live.push(blob);
                self.grew(bytes, started, tick);
                true
            }
            1 if self.live[pick].lo.len() + bytes <= BLOB_CAP => {
                let _s = trace::call("lo.append", 1);
                let at = self.live[pick].shift + self.live[pick].lo.len() as usize;
                self.live[pick]
                    .lo
                    .append(&self.pattern[at..at + bytes as usize])?;
                self.grew(bytes, started, tick);
                true
            }
            1 | 2 => {
                let _s = trace::call("lo.truncate", 1);
                let blob = &mut self.live[pick];
                let keep = blob.lo.len() * u64::from(step.bytes % 97) / 97;
                self.live_bytes -= blob.lo.len() - keep;
                blob.lo.truncate(keep)?;
                true
            }
            3 => {
                let _s = trace::call("lo.read", 1);
                let blob = &self.live[pick];
                let len = bytes.min(blob.lo.len());
                let offset = (blob.lo.len() - len) * u64::from(step.pick % 101) / 101;
                let got = blob.lo.read_vec(offset, len as usize)?;
                self.read.ns += started.elapsed().as_nanos() as u64;
                self.read.bytes += len;
                got == window(&self.pattern, blob, offset, len as usize)
            }
            _ => {
                let _s = trace::call("lo.destroy", 1);
                let blob = self.live.swap_remove(pick);
                self.live_bytes -= blob.lo.len();
                blob.lo.destroy()?;
                self.destroy_ns.push_since(started);
                true
            }
        };
        if tick.index.is_multiple_of(SAMPLE_EVERY) && self.live_bytes > 0 {
            let space = stack::allocated_bytes(&self.area) as f64 / self.live_bytes as f64;
            self.peak_space = self.peak_space.max(space);
            self.peak_frag = self.peak_frag.max(stack::frag_permille(&self.area));
        }
        Ok(ok)
    }

    fn grew(&mut self, bytes: u64, started: Instant, tick: Tick) {
        self.append.ns += started.elapsed().as_nanos() as u64;
        self.append.bytes += bytes;
        self.live_bytes += bytes;
        self.measured_user_bytes += if tick.measured { bytes } else { 0 };
        let depth = self.live.last().map_or(0, |b| b.lo.depth());
        self.depth_max = self.depth_max.max(depth);
    }
}

/// One restart: reopens the area from its device and every blob from its
/// descriptor, and reads `RESTART_READ` bytes back. Returns the time in
/// milliseconds, the chunks that did not read as written, and what it
/// reopened.
fn restart(
    dev: &Arc<BenchDevice>,
    descriptors: &[(usize, Vec<u8>)],
    pattern: &[u8],
) -> Result<(f64, u64, Arc<StorageArea>, Vec<Blob>)> {
    let start = Instant::now();
    let area = stack::reopen_area(0, dev)?;
    let blobs = descriptors
        .iter()
        .map(|(shift, d)| {
            Ok(Blob {
                shift: *shift,
                lo: stack::blob_reopen(&area, d)?,
            })
        })
        .collect::<Result<Vec<Blob>>>()?;
    // Serving again means the blobs answer: read them chunk by chunk,
    // every blob's first chunk, then every second one, and so on.
    let (mut read, mut offset, mut mismatches) = (0, 0, 0);
    while read < RESTART_READ && blobs.iter().any(|b| b.lo.len() > offset) {
        for blob in blobs.iter().filter(|b| b.lo.len() > offset) {
            let len = (blob.lo.len() - offset).min(RESTART_CHUNK) as usize;
            let got = blob.lo.read_vec(offset, len)?;
            mismatches += u64::from(got != window(pattern, blob, offset, len));
            read += len as u64;
            if read >= RESTART_READ {
                break;
            }
        }
        offset += RESTART_CHUNK;
    }
    Ok((start.elapsed().as_secs_f64() * 1e3, mismatches, area, blobs))
}

pub fn run(cfg: &RunCfg) -> Result<Outcome> {
    let gen_start = Instant::now();
    let mut rng = Rng::stream(cfg.seed, NAME, 0);
    let mut digest = Digest::new();
    // Under --smoke the largest append is 1/50 of a MiB too.
    let max_bytes = cfg.scaled(MAX_BYTES as usize, 4 * MIN_BYTES as usize) as u64;
    let schedule: Vec<Step> = (0..cfg.scaled(SCHEDULE, 2048))
        .map(|_| {
            let step = Step {
                roll: rng.below(100) as u8,
                bytes: rng.log_uniform(MIN_BYTES, max_bytes) as u32,
                pick: rng.next_u64() as u32,
            };
            digest.mix(u64::from(step.roll) << 32 | u64::from(step.bytes));
            digest.mix(u64::from(step.pick));
            step
        })
        .collect();
    let mut pattern = vec![0u8; 2 * BLOB_CAP as usize];
    for word in pattern.chunks_exact_mut(8) {
        word.copy_from_slice(&rng.next_u64().to_le_bytes());
    }
    // One size from each of as many equal strata of the distribution, in
    // random order: what set-up loads then differs by a percent between
    // seeds instead of by a tenth, and `setup_s` with it.
    let live = cfg.scaled(LIVE_SET, 16);
    let initial: Vec<u32> = permutation(live, &mut rng)
        .into_iter()
        .map(|stratum| {
            let u = (f64::from(stratum) + rng.unit()) / live as f64;
            let bytes = log_uniform_at(MIN_BYTES, max_bytes, u) as u32;
            digest.mix(u64::from(bytes));
            bytes
        })
        .collect();
    let gen_s = gen_start.elapsed().as_secs_f64();

    let (mut world, mut setup_s) = timed_setup(|| setup(&initial, &pattern))?;
    let mut clients = vec![Client {
        area: world.area.clone(),
        schedule,
        pattern,
        live: std::mem::take(&mut world.live),
        live_bytes: initial.iter().map(|&b| u64::from(b)).sum(),
        created: initial.len() as u64,
        append: KindCost::default(),
        read: KindCost::default(),
        destroy_ns: Recorder::with_capacity(1 << 16),
        depth_max: 0,
        peak_space: 0.0,
        peak_frag: 0,
        measured_user_bytes: 0,
    }];

    let snapshot = |world: &World| {
        (
            stack::area_snapshot(&world.area),
            DeviceDelta::read(&[&world.dev]),
        )
    };
    let phase = drive(
        cfg,
        &mut clients,
        1 << 18,
        |client, tick: Tick| {
            let step = client.schedule[tick.index as usize % client.schedule.len()];
            match client.step(step, tick) {
                Ok(true) => OpReport::ok(),
                Ok(false) | Err(_) => OpReport::failed(),
            }
        },
        || snapshot(&world),
    );

    // ---- reopen from the device, check every blob, drain ------------------------
    let mut client = clients.pop().expect("one client");
    let descriptors: Vec<(usize, Vec<u8>)> = client
        .live
        .iter()
        .map(|b| (b.shift, b.lo.to_descriptor()))
        .collect();
    let leaves: usize = client.live.iter().map(|b| b.lo.num_leaves()).sum();
    let live_mib = client.live_bytes as f64 / (1 << 20) as f64;
    client.live.clear();
    let World { area, dev, .. } = world;
    drop(client.area);
    drop(area);
    let mut recovery_ms = Vec::new();
    let mut oracle_failed = 0u64;
    let mut reopened = None;
    let mut timed_restart = || match restart(&dev, &descriptors, &client.pattern) {
        Ok((ms, mismatches, area, blobs)) => {
            recovery_ms.push(ms);
            oracle_failed += mismatches;
            reopened = Some((area, blobs));
        }
        Err(e) => {
            eprintln!("{NAME}: restart: {e}");
            oracle_failed += 1;
        }
    };
    // A restart takes milliseconds here, so many are timed: one now and one
    // after each further set-up, which spreads them over more than a
    // second; the host's slow spells last a few hundred milliseconds.
    timed_restart();
    more_setups(
        cfg,
        &mut setup_s,
        || setup(&initial, &client.pattern),
        |world| {
            drop(world);
            timed_restart();
        },
    )?;
    let (area, blobs) = reopened.expect("at least one restart");
    let checked = blobs.len();
    for blob in blobs {
        let len = blob.lo.len() as usize;
        oracle_failed +=
            u64::from(blob.lo.read_vec(0, len)? != window(&client.pattern, &blob, 0, len));
        blob.lo.destroy()?;
    }
    stack::check_allocator(&area);
    let final_frag = stack::frag_permille(&area);
    oracle_failed += u64::from(final_frag != 0) + u64::from(stack::allocated_bytes(&area) != 0);
    let oracle_note = format!(
        "every read compared with the pattern; {checked} live blobs ({live_mib:.1} MiB) reopened from \
         their descriptors and compared in full; after the drain the allocator invariants hold, \
         nothing is allocated and fragmentation is {final_frag} permille"
    );

    let mut extra = BTreeMap::new();
    let per_kib = |c: &KindCost| {
        if c.bytes == 0 {
            0.0
        } else {
            c.ns as f64 * 1024.0 / c.bytes as f64
        }
    };
    extra.insert("lo.append_ns_per_kib", per_kib(&client.append));
    extra.insert("lo.read_ns_per_kib", per_kib(&client.read));
    extra.insert("lo.destroy_us_p50", client.destroy_ns.summary().us(50.0));
    extra.insert("lo.tree_depth_max", client.depth_max as f64);
    extra.insert(
        "lo.leaves_per_mib",
        if live_mib > 0.0 {
            leaves as f64 / live_mib
        } else {
            0.0
        },
    );
    extra.insert("storage.frag_permille_peak", client.peak_frag as f64);
    extra.insert("storage.frag_permille_final", final_frag as f64);
    drop((area, dev));

    Ok(Outcome {
        digest: digest.value(),
        gen_s,
        setup_s,
        phase,
        oracle_failed,
        oracle_note,
        recovery_ms,
        space_ratio: client.peak_space,
        user_bytes_updated: client.measured_user_bytes,
        extra,
    })
}
