//! An evicted segment comes back in one batched load: the page the fault is
//! for, and with it the segment's other evicted pages nearest to it, up to
//! a cap — where only the first page's failure is the fault's.

use std::collections::HashSet;
use std::sync::Arc;

use bess_cache::{AreaSet, DbPage, PageIo, PrivatePool};
use bess_segment::{
    Oid, ProtectionPolicy, SegmentCatalog, SegmentManager, TypeRegistry, TYPE_BYTES,
};
use bess_storage::{AreaConfig, AreaId, DiskSpace, StorageArea};
use bess_vm::AddressSpace;
use parking_lot::Mutex;

/// The areas, with every load recorded — a single load as a batch of one —
/// and pages that fail their next load.
struct CountingIo {
    areas: Arc<AreaSet>,
    loads: Mutex<Vec<Vec<DbPage>>>,
    fail_once: Mutex<HashSet<DbPage>>,
}

impl PageIo for CountingIo {
    fn load(&self, page: DbPage, buf: &mut [u8]) -> Result<(), String> {
        let data = self.load_batch(&[page], buf.len()).remove(0)?;
        buf.copy_from_slice(&data);
        Ok(())
    }

    fn write_back(&self, page: DbPage, data: &[u8]) -> Result<(), String> {
        self.areas.write_back(page, data)
    }

    fn load_batch(&self, pages: &[DbPage], page_size: usize) -> Vec<Result<Vec<u8>, String>> {
        self.loads.lock().push(pages.to_vec());
        let mut failing = self.fail_once.lock();
        let loaded = self.areas.load_batch(pages, page_size);
        let fail = |(page, data)| match failing.remove(page) {
            true => Err(format!("{page} fails this once")),
            false => data,
        };
        pages.iter().zip(loaded).map(fail).collect()
    }
}

struct Rig {
    io: Arc<CountingIo>,
    pool: Arc<PrivatePool>,
    mgr: Arc<SegmentManager>,
}

impl Rig {
    /// A manager over `io` in an address space of its own (a new mapping
    /// epoch), with room for everything the tests load.
    fn epoch(areas: &Arc<AreaSet>, types: &Arc<TypeRegistry>, catalog: &Arc<SegmentCatalog>) -> Rig {
        let io = Arc::new(CountingIo {
            areas: Arc::clone(areas),
            loads: Mutex::default(),
            fail_once: Mutex::default(),
        });
        let space = Arc::new(AddressSpace::new());
        let pool = Arc::new(PrivatePool::new(
            Arc::clone(&space),
            Arc::clone(&io) as Arc<dyn PageIo>,
            512,
        ));
        let mgr = SegmentManager::new(
            space,
            Arc::clone(&pool),
            Arc::clone(areas) as Arc<dyn DiskSpace>,
            Arc::clone(types),
            Arc::clone(catalog),
            ProtectionPolicy::Protected,
            1,
            1,
        );
        Rig { io, pool, mgr }
    }

    /// The loads since the last call.
    fn loads(&self) -> Vec<Vec<DbPage>> {
        std::mem::take(&mut *self.io.loads.lock())
    }

    /// Evicts `pages`: what the fault waves wrote into them goes to the
    /// areas first, as an eviction writes a dirty page back.
    fn evict(&self, pages: &[DbPage]) {
        self.mgr.flush_all().unwrap();
        for &page in pages {
            self.pool.discard(page);
        }
    }

    fn read(&self, oid: Oid) -> Vec<u8> {
        let addr = self.mgr.resolve_oid(oid).unwrap();
        self.mgr.read_object(addr).unwrap()
    }
}

/// A segment of `objects` objects of `size` bytes (object `i` filled with
/// byte `i`) in `data_pages` data pages, written by one manager and loaded
/// by the next: returns that one, the objects, and the segment's slotted
/// and data pages as waves 2 and 3 asked for them.
fn loaded_segment(objects: u8, size: u32, data_pages: u32) -> (Rig, Vec<Oid>, Vec<DbPage>, Vec<DbPage>) {
    let areas = Arc::new(AreaSet::new());
    areas.add(Arc::new(
        StorageArea::create_mem(AreaId(0), AreaConfig::default()).unwrap(),
    ));
    let types = Arc::new(TypeRegistry::new());
    let catalog = Arc::new(SegmentCatalog::new());
    let writer = Rig::epoch(&areas, &types, &catalog);
    let seg = writer.mgr.create_segment(0, 64, data_pages).unwrap();
    let oids: Vec<Oid> = (0..objects)
        .map(|i| {
            let obj = writer.mgr.create_object(seg, TYPE_BYTES, size).unwrap();
            writer.mgr.write_object(obj.addr, 0, &vec![i; size as usize]).unwrap();
            obj.oid
        })
        .collect();
    writer.mgr.flush_all().unwrap();

    let rig = Rig::epoch(&areas, &types, &catalog);
    assert_eq!(rig.read(oids[0])[0], 0);
    let waves = rig.loads();
    let [slotted, data] = &waves[..] else {
        panic!("wave 2 and wave 3 are one load each: {waves:?}");
    };
    assert_eq!(data.len(), data_pages as usize);
    (rig, oids, slotted.clone(), data.clone())
}

#[test]
fn both_pages_of_an_evicted_segment_come_back_in_one_load() {
    let (rig, oids, slotted, data) = loaded_segment(4, 64, 1);
    let both = [slotted.clone(), data.clone()].concat();
    assert_eq!(both.len(), 2, "one slotted page, one data page");
    rig.evict(&both);

    assert_eq!(rig.read(oids[3]), vec![3; 64]);
    assert_eq!(rig.loads(), [both], "one get, one load of two pages");

    // Resident again, both of them: nothing more to load.
    assert_eq!(rig.read(oids[1]), vec![1; 64]);
    assert_eq!(rig.loads(), [] as [Vec<DbPage>; 0]);
}

#[test]
fn only_the_faulting_pages_failure_fails_the_fault() {
    let (rig, oids, slotted, data) = loaded_segment(4, 64, 1);
    let both = [slotted.clone(), data.clone()].concat();
    rig.evict(&both);

    // The data page rides along with the slotted page's fault and fails:
    // the fault is served all the same, and the data page faults on its
    // own a moment later.
    rig.io.fail_once.lock().insert(data[0]);
    assert_eq!(rig.read(oids[2]), vec![2; 64]);
    assert_eq!(rig.loads(), [both.clone(), data.clone()]);

    // The page the fault is for fails: so does the fault.
    rig.evict(&both);
    rig.io.fail_once.lock().insert(slotted[0]);
    let addr = rig.mgr.resolve_oid(oids[2]);
    assert!(addr.is_err(), "{addr:?}");
    assert_eq!(rig.read(oids[2]), vec![2; 64], "and the next try is served");
}

#[test]
fn the_batch_is_capped_and_starts_with_the_faulting_page() {
    // Two 2 KiB objects per 4 KiB page: object `i` lives in data page `i / 2`.
    let (rig, oids, _, data) = loaded_segment(32, 2048, 16);
    rig.evict(&data);

    assert_eq!(rig.read(oids[21]), vec![21; 2048]);
    let nearest = [10, 9, 11, 8, 12, 7, 13, 6].map(|i: usize| data[i]);
    assert_eq!(rig.loads(), [nearest.to_vec()], "page 10, then outwards, eight in all");

    assert_eq!(rig.read(oids[0]), vec![0; 2048]);
    let rest = [0, 1, 2, 3, 4, 5, 14, 15].map(|i: usize| data[i]);
    assert_eq!(rig.loads(), [rest.to_vec()], "what is left, still nearest first");

    for (i, &oid) in oids.iter().enumerate() {
        assert_eq!(rig.read(oid)[0], i as u8);
    }
    assert_eq!(rig.loads(), [] as [Vec<DbPage>; 0]);
}
