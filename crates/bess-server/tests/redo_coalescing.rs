//! Restart redo through [`AreaTarget`] restores one page at a time. It must
//! leave exactly what redo record by record leaves — the same bytes and the
//! same page LSNs — and pay one device read and one device write per page.

use std::sync::Arc;

use bess_cache::AreaSet;
use bess_server::AreaTarget;
use bess_storage::{AreaConfig, AreaId, FaultDisk, FaultPlan, OpClass, StorageArea};
use bess_wal::{recover, LogBody, LogManager, LogPageId, Lsn, RedoTarget};
use proptest::prelude::*;

const PAGE: usize = 256;
const PAGES: u64 = 4;

fn config() -> AreaConfig {
    AreaConfig {
        page_size: PAGE,
        extent_pages_log2: 3,
        ..AreaConfig::default()
    }
}

/// Area 0 with `PAGES` allocated pages holding `0xEE`; returns the first.
fn loaded(area: StorageArea) -> (Arc<AreaSet>, u64) {
    let first = area.alloc(PAGES as u32).unwrap().start_page;
    for p in 0..PAGES {
        area.write_page(first + p, &[0xEE; PAGE]).unwrap();
    }
    let set = AreaSet::new();
    set.add(Arc::new(area));
    (Arc::new(set), first)
}

/// The reference: the same target, redoing record by record (the trait's
/// default `redo_page`).
struct PerRecord(AreaTarget);

impl RedoTarget for PerRecord {
    fn apply(&mut self, page: LogPageId, offset: u32, bytes: &[u8]) -> Result<(), String> {
        self.0.apply(page, offset, bytes)
    }

    fn apply_lsn(
        &mut self,
        page: LogPageId,
        offset: u32,
        bytes: &[u8],
        lsn: Lsn,
    ) -> Result<(), String> {
        self.0.apply_lsn(page, offset, bytes, lsn)
    }
}

#[derive(Clone, Debug)]
struct Step {
    txn: u64,
    clr: bool,
    page: u64,
    offset: usize,
    len: usize,
    byte: u8,
}

fn step() -> impl Strategy<Value = Step> {
    (
        (1u64..5, any::<bool>()),
        (0..PAGES, 0usize..PAGE, 1usize..PAGE + 1, any::<u8>()),
    )
        .prop_map(|((txn, clr), (page, offset, len, byte))| Step {
            txn,
            clr,
            page,
            offset,
            len: len.min(PAGE - offset),
            byte,
        })
}

/// Writes `steps` as chained update/CLR records of up to four transactions,
/// commits those in `committed`, and flushes.
fn write_log(log: &LogManager, first: u64, steps: &[Step], committed: &[bool]) {
    let mut last = [Lsn::NULL; 5];
    for s in steps {
        let t = s.txn as usize;
        if last[t].is_null() {
            last[t] = log.append(s.txn, Lsn::NULL, LogBody::Begin);
        }
        let page = LogPageId {
            area: 0,
            page: first + s.page,
        };
        let body = if s.clr {
            LogBody::Clr {
                page,
                offset: s.offset as u32,
                image: vec![s.byte; s.len],
                undo_next: Lsn::NULL,
            }
        } else {
            LogBody::Update {
                page,
                offset: s.offset as u32,
                before: vec![0xEE; s.len],
                after: vec![s.byte; s.len],
            }
        };
        last[t] = log.append(s.txn, last[t], body);
    }
    for t in 1..5 {
        if committed[t - 1] && !last[t].is_null() {
            log.append(t as u64, last[t], LogBody::Commit);
        }
    }
    log.flush_all().unwrap();
}

fn contents(set: &AreaSet, first: u64) -> Vec<(Vec<u8>, u64)> {
    let area = set.get(0).unwrap();
    (0..PAGES)
        .map(|p| {
            let mut buf = vec![0u8; PAGE];
            area.read_page(first + p, &mut buf).unwrap();
            (buf, area.verify_page(first + p).unwrap())
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn coalesced_redo_equals_per_record_redo(
        steps in prop::collection::vec(step(), 1..40),
        committed in prop::collection::vec(any::<bool>(), 4..5),
    ) {
        let (coalesced, first) = loaded(StorageArea::create_mem(AreaId(0), config()).unwrap());
        let (serial, same) = loaded(StorageArea::create_mem(AreaId(0), config()).unwrap());
        prop_assert_eq!(first, same);
        let log = LogManager::create_mem();
        write_log(&log, first, &steps, &committed);

        let (log_a, log_b) = (log.simulate_crash().unwrap(), log.simulate_crash().unwrap());
        let a = recover(&log_a, &mut AreaTarget(Arc::clone(&coalesced))).unwrap();
        let b = recover(&log_b, &mut PerRecord(AreaTarget(Arc::clone(&serial)))).unwrap();

        prop_assert_eq!(&a, &b, "the two recoveries did different things");
        prop_assert_eq!(a.redone, steps.len() as u64);
        let distinct: std::collections::BTreeSet<u64> = steps.iter().map(|s| s.page).collect();
        prop_assert_eq!(
            log_a.stats().recovery_pages_restored.get(),
            distinct.len() as u64
        );
        prop_assert_eq!(contents(&coalesced, first), contents(&serial, first));

        // Idempotence: a second restart over the recovered log changes nothing.
        let before = contents(&coalesced, first);
        let again = log_a.simulate_crash().unwrap();
        recover(&again, &mut AreaTarget(Arc::clone(&coalesced))).unwrap();
        prop_assert_eq!(contents(&coalesced, first), before);
    }
}

/// N records on one page cost one device read and one device write; a page
/// of an area this server does not mount is skipped, not an error.
#[test]
fn many_records_on_one_page_cost_one_read_and_one_write() {
    let disk = FaultDisk::new(FaultPlan::unarmed());
    let (set, first) =
        loaded(StorageArea::create_faulty(AreaId(0), config(), Arc::clone(&disk)).unwrap());
    let log = LogManager::create_mem();
    let n = 50;
    let steps: Vec<Step> = (0..n)
        .map(|i| Step {
            txn: 1,
            clr: false,
            page: 2,
            offset: (i * 5) % 200,
            len: 8,
            byte: i as u8,
        })
        .collect();
    write_log(&log, first, &steps, &[true; 4]);
    let elsewhere = log.append(2, Lsn::NULL, LogBody::Begin);
    let elsewhere = log.append(
        2,
        elsewhere,
        LogBody::Update {
            page: LogPageId { area: 9, page: 1 },
            offset: 0,
            before: vec![0],
            after: vec![1],
        },
    );
    log.append(2, elsewhere, LogBody::Commit);
    log.flush_all().unwrap();

    let plan = FaultPlan::unarmed();
    disk.arm(Arc::clone(&plan));
    let crashed = log.simulate_crash().unwrap();
    let report = recover(&crashed, &mut AreaTarget(Arc::clone(&set))).unwrap();
    assert_eq!(report.redone, n as u64 + 1);
    assert_eq!(crashed.stats().recovery_pages_restored.get(), 2);
    assert_eq!(
        (plan.ops(OpClass::Read), plan.ops(OpClass::Write)),
        (1, 1),
        "one read-modify-write for {n} records"
    );
    let (bytes, lsn) = contents(&set, first).swap_remove(2);
    assert_eq!(&bytes[(49 * 5) % 200..][..8], &[49; 8]);
    assert!(lsn > 0, "resealed at the last record's LSN");
}
