//! Aging regression tests (§E22 satellite): a deterministic
//! allocate/free/grow churn over large objects must keep buddy
//! fragmentation under a pinned bound, coalesce completely when drained,
//! and leave the allocator's invariants intact after every cycle burst.
//!
//! The geometry mirrors the harness's `largeobj_aging` scenario: 512-byte
//! pages and 64-page extents, so an extent's allocation table can never
//! overflow its metadata page even if every block is a single page.

use std::sync::Arc;

use bess_largeobj::{LargeObject, LoConfig};
use bess_storage::{AreaConfig, AreaId, StorageArea};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn aging_area() -> Arc<StorageArea> {
    Arc::new(
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
    )
}

/// One churn cycle: mostly creates while the pool is small, then a mix of
/// grows (with truncate recycling) and destroys. Returns the fragmentation
/// in permille after the cycle.
fn churn(
    area: &Arc<StorageArea>,
    pool: &mut Vec<LargeObject>,
    r: &mut StdRng,
    pool_cap: usize,
) -> u64 {
    let action = r.gen_range(0..100u32);
    let size = r.gen_range(64..2048usize);
    if pool.len() < pool_cap / 2 || (action < 40 && pool.len() < pool_cap) {
        let mut lo = LargeObject::create(Arc::clone(area), LoConfig::default());
        lo.append(&vec![0x11; size]).unwrap();
        pool.push(lo);
    } else if action < 70 {
        let i = r.gen_range(0..pool.len());
        if pool[i].len() > 16 * 1024 {
            pool[i].truncate(2048).unwrap();
        } else {
            pool[i].append(&vec![0x22; size]).unwrap();
        }
    } else {
        let i = r.gen_range(0..pool.len());
        pool.swap_remove(i).destroy().unwrap();
    }
    (area.fragmentation() * 1000.0).round() as u64
}

/// N churn cycles never push mean external fragmentation past the pinned
/// bound, and the tree + allocator invariants hold at every burst edge.
#[test]
fn fragmentation_stays_under_pinned_bound() {
    let area = aging_area();
    let mut pool = Vec::new();
    let mut r = StdRng::seed_from_u64(0xa61);
    let mut peak = 0u64;
    for cycle in 0..2000 {
        let frag = churn(&area, &mut pool, &mut r, 48);
        peak = peak.max(frag);
        if cycle % 250 == 249 {
            area.check_allocator_invariants();
            for lo in &pool {
                lo.check_invariants();
            }
        }
    }
    // Pinned from measured behaviour (peaks ~500-600 permille): mean
    // fragmentation beyond 900 means coalescing has regressed.
    assert!(peak <= 900, "fragmentation peaked at {peak} permille");
    assert!(peak > 0, "churn never fragmented — the workload is inert");
    for lo in pool.drain(..) {
        lo.destroy().unwrap();
    }
}

/// Draining every object returns each extent to one maximal free block:
/// fragmentation exactly zero and all pages free again.
#[test]
fn full_drain_coalesces_to_zero_fragmentation() {
    let area = aging_area();
    let mut pool = Vec::new();
    let mut r = StdRng::seed_from_u64(0xa62);
    for _ in 0..600 {
        churn(&area, &mut pool, &mut r, 32);
    }
    assert!(area.allocated_pages() > 0);
    for lo in pool.drain(..) {
        lo.destroy().unwrap();
    }
    area.check_allocator_invariants();
    assert_eq!(
        area.allocated_pages(),
        0,
        "a destroyed object must return every page"
    );
    assert_eq!(
        area.fragmentation(),
        0.0,
        "fully-free extents must coalesce to a single block"
    );
}

/// The same seed must produce the same fragmentation trajectory — the
/// harness depends on this to chart comparable aging curves across runs.
#[test]
fn aging_trajectory_is_deterministic() {
    let run = |seed: u64| -> Vec<u64> {
        let area = aging_area();
        let mut pool = Vec::new();
        let mut r = StdRng::seed_from_u64(seed);
        let curve: Vec<u64> = (0..400).map(|_| churn(&area, &mut pool, &mut r, 32)).collect();
        for lo in pool.drain(..) {
            lo.destroy().unwrap();
        }
        curve
    };
    assert_eq!(run(7), run(7));
    assert_ne!(run(7), run(8), "different seeds should diverge");
}

/// The fragmentation and free-page gauges track the allocator live: after
/// churn they match the area's computed state, and after a drain the
/// fragmentation gauge reads zero.
#[test]
fn fragmentation_gauges_track_allocator() {
    let area = aging_area();
    let mut pool = Vec::new();
    let mut r = StdRng::seed_from_u64(0xa63);
    for _ in 0..300 {
        churn(&area, &mut pool, &mut r, 32);
    }
    let snap = area.metrics().registry().snapshot();
    assert_eq!(
        snap.gauge("storage.a0.frag_permille"),
        (area.fragmentation() * 1000.0).round() as i64,
        "gauge must be refreshed on every alloc/free"
    );
    assert_eq!(snap.gauge("storage.a0.free_pages"), area.free_pages() as i64);
    for lo in pool.drain(..) {
        lo.destroy().unwrap();
    }
    let snap = area.metrics().registry().snapshot();
    assert_eq!(snap.gauge("storage.a0.frag_permille"), 0);
}
