//! The segment manager: mapping, fault waves, swizzling, object lifecycle.
//!
//! This module reproduces the core §2.1 machinery of the paper:
//!
//! * **Wave 1** — a reference to an object in a not-yet-seen segment causes
//!   the segment's slotted range to be *reserved and access-protected*; no
//!   data moves.
//! * **Wave 2** — the first touch of a slotted segment faults: its pages
//!   are fetched, a range for its data segment is reserved and protected,
//!   and every slot's `DP` is adjusted to the new data base with "just two
//!   arithmetic operations".
//! * **Wave 3** — the first touch of the data segment faults: the data is
//!   fetched and, guided by the type descriptors, every outgoing reference
//!   is swizzled to the current virtual address of the target's slot —
//!   reserving further slotted segments (wave 1) as needed.
//!
//! References are virtual addresses of *slots*, never of data, so data
//! segments can be compacted, resized, or moved across storage areas
//! without touching a single reference (§2.1's headline property). Each
//! segment's **reference table** records, per target segment, the virtual
//! base its stored references are expressed against, so they can be
//! re-interpreted in any later mapping epoch or process.
//!
//! Corruption prevention (§2.2) and update detection (§2.3) also live
//! here: slotted ranges are write-protected (stray user writes are denied
//! at the faulting instruction), and the first user write to a data page
//! traps, notifies the registered [`WriteObserver`] (which acquires locks
//! and logs), and then grants write access.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::{Arc, Weak};

use bess_obs::{Counter, Group, LatencyHistogram};
use bess_cache::{DbPage, PoolError, PrivatePool};
use bess_largeobj::{LargeObject, LoConfig, LoError};
use bess_storage::{DiskPtr, DiskSpace, StorageError};
use bess_vm::{
    Access, AddressSpace, Fault, FaultHandler, FaultOutcome, FrameState, Protect, VAddr, VRange,
    VmError, VmResult,
};
use parking_lot::{Mutex, RwLock};

use crate::catalog::{CatalogEntry, SegmentCatalog};
use crate::layout::{slotted_pages, RefEntry, Slot, SlotKind, SlottedView, NO_SLOT, SLOT_SIZE};
use crate::oid::{Oid, SegId};
use crate::types::{TypeId, TypeRegistry};

/// Errors from segment operations.
#[derive(Debug)]
pub enum SegError {
    /// Virtual-memory failure (including caught stray pointers).
    Vm(VmError),
    /// Storage failure.
    Storage(StorageError),
    /// Buffer-pool failure.
    Pool(PoolError),
    /// Large-object failure.
    Lo(LoError),
    /// The segment has no free slots.
    SegmentFull(SegId),
    /// The object does not fit the remaining data space and the data
    /// segment cannot grow further.
    DataFull(SegId),
    /// The segment is not in the catalog.
    UnknownSegment(SegId),
    /// An OID's uniquifier did not match (the slot was reused).
    StaleOid(Oid),
    /// The address is not a live object header.
    NotAnObject(VAddr),
    /// An on-disk structure failed validation.
    Corrupt(String),
}

impl std::fmt::Display for SegError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SegError::Vm(e) => write!(f, "vm error: {e}"),
            SegError::Storage(e) => write!(f, "storage error: {e}"),
            SegError::Pool(e) => write!(f, "pool error: {e}"),
            SegError::Lo(e) => write!(f, "large object error: {e}"),
            SegError::SegmentFull(s) => write!(f, "segment {s} has no free slots"),
            SegError::DataFull(s) => write!(f, "segment {s} data space exhausted"),
            SegError::UnknownSegment(s) => write!(f, "segment {s} not in catalog"),
            SegError::StaleOid(o) => write!(f, "stale oid {o}"),
            SegError::NotAnObject(a) => write!(f, "no live object at {a}"),
            SegError::Corrupt(m) => write!(f, "corrupt segment: {m}"),
        }
    }
}

impl std::error::Error for SegError {}

impl From<VmError> for SegError {
    fn from(e: VmError) -> Self {
        SegError::Vm(e)
    }
}
impl From<StorageError> for SegError {
    fn from(e: StorageError) -> Self {
        SegError::Storage(e)
    }
}
impl From<PoolError> for SegError {
    fn from(e: PoolError) -> Self {
        SegError::Pool(e)
    }
}
impl From<LoError> for SegError {
    fn from(e: LoError) -> Self {
        SegError::Lo(e)
    }
}

/// Result alias for segment operations.
pub type SegResult<T> = Result<T, SegError>;

/// Most pages one re-fault brings back: the page it is for and its nearest
/// evicted neighbours in the segment (see `SegmentManager::refault`).
const REFAULT_BATCH: usize = 8;

/// Whether BeSS protects its control structures with the VM hardware
/// (§2.2). `Unprotected` is the ablation baseline for the protection-cost
/// experiment: stray writes are *not* caught, and no protect system calls
/// are issued around engine updates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProtectionPolicy {
    /// Slotted segments are write-protected; engine updates unprotect and
    /// reprotect around themselves.
    Protected,
    /// No protection (an Exodus-style trusting layout).
    Unprotected,
}

/// Observer of first writes to data pages — the hook where the transaction
/// layer acquires locks and writes log records (§2.3).
pub trait WriteObserver: Send + Sync {
    /// Called once per page per write-enable, *before* the write proceeds.
    /// Returning `Err` (e.g. a lock denied by a deadlock timeout) turns the
    /// faulting access into a protection violation instead of granting it.
    fn on_first_write(&self, page: DbPage) -> Result<(), String>;
}

/// Counters kept by a [`SegmentManager`] — [`bess_obs`] handles registered
/// under the `seg.` prefix of the owning address space's registry, so one
/// [`SegmentManager::metrics`] dump shows the segment activity beside the
/// `vm.*` fault counters it drives.
#[derive(Debug)]
pub struct SegStats {
    /// Wave-1 reservations of slotted ranges (`seg.slotted_reserved`).
    pub slotted_reserved: Counter,
    /// Wave-2 loads: slotted segments fetched + DPs fixed
    /// (`seg.slotted_loads`).
    pub slotted_loads: Counter,
    /// Wave-3 loads: data segments fetched + refs swizzled
    /// (`seg.data_loads`).
    pub data_loads: Counter,
    /// DP fields adjusted, two arithmetic ops each (`seg.dp_fixups`).
    pub dp_fixups: Counter,
    /// References swizzled to current addresses (`seg.refs_swizzled`).
    pub refs_swizzled: Counter,
    /// References that resolved to no known segment — corruption
    /// (`seg.refs_unresolved`).
    pub refs_unresolved: Counter,
    /// Protect/unprotect cycles around engine updates, each two `mprotect`
    /// system calls, §2.2 (`seg.protect_cycles`).
    pub protect_cycles: Counter,
    /// Stray writes into protected structures that were denied
    /// (`seg.stray_writes_denied`).
    pub stray_writes_denied: Counter,
    /// First-write notifications delivered — update detection, §2.3
    /// (`seg.write_detections`).
    pub write_detections: Counter,
    /// Objects created (`seg.objects_created`).
    pub objects_created: Counter,
    /// Objects deleted (`seg.objects_deleted`).
    pub objects_deleted: Counter,
}

impl SegStats {
    fn new(group: &Group) -> SegStats {
        SegStats {
            slotted_reserved: group.counter("slotted_reserved"),
            slotted_loads: group.counter("slotted_loads"),
            data_loads: group.counter("data_loads"),
            dp_fixups: group.counter("dp_fixups"),
            refs_swizzled: group.counter("refs_swizzled"),
            refs_unresolved: group.counter("refs_unresolved"),
            protect_cycles: group.counter("protect_cycles"),
            stray_writes_denied: group.counter("stray_writes_denied"),
            write_detections: group.counter("write_detections"),
            objects_created: group.counter("objects_created"),
            objects_deleted: group.counter("objects_deleted"),
        }
    }
}

/// A handle to a live object: the virtual address of its header (slot) —
/// exactly what a `ref<T>` wraps — plus its OID.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ObjRef {
    /// Virtual address of the object's slot. Inter-object references store
    /// this value.
    pub addr: VAddr,
    /// The object's OID (for `global_ref<T>` and inter-database refs).
    pub oid: Oid,
}

/// Decoded information about an object, returned by dereference.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ObjInfo {
    /// Virtual address of the object's data (the slot's DP).
    pub data: VAddr,
    /// Size in bytes.
    pub size: u32,
    /// The object's type.
    pub type_id: TypeId,
    /// What kind of object this is.
    pub kind: SlotKind,
}

#[derive(Debug)]
enum SegState {
    /// Wave 1 done: address range reserved, nothing fetched.
    Reserved,
    /// Wave 2 done: slotted pages resident (at least initially), data range
    /// reserved. `data_loaded` flips when wave 3 completes.
    Loaded {
        data_range: VRange,
        data_disk: DiskPtr,
        data_loaded: bool,
    },
}

struct SegRuntime {
    id: SegId,
    slotted_disk: DiskPtr,
    slot_cap: u32,
    ref_cap: u32,
    slotted_range: VRange,
    state: Mutex<SegState>,
}

impl SegRuntime {
    fn slotted_db_page(&self, index: u64) -> DbPage {
        DbPage {
            area: self.id.area,
            page: self.slotted_disk.start_page + index,
        }
    }
}

struct MgrInner {
    segs: HashMap<SegId, Arc<SegRuntime>>,
    /// Current slotted mapping: range start -> (seg, range len).
    by_slotted_base: BTreeMap<u64, (SegId, u64)>,
    /// Current data mapping: range start -> (seg, range len).
    by_data_base: BTreeMap<u64, (SegId, u64)>,
}

/// The per-process segment manager.
pub struct SegmentManager {
    space: Arc<AddressSpace>,
    pool: Arc<PrivatePool>,
    disk: Arc<dyn DiskSpace>,
    types: Arc<TypeRegistry>,
    catalog: Arc<SegmentCatalog>,
    policy: ProtectionPolicy,
    host: u16,
    db: u16,
    inner: Mutex<MgrInner>,
    observer: RwLock<Option<Arc<dyn WriteObserver>>>,
    group: Group,
    stats: SegStats,
    /// Wave-1 latency: reserve + register the slotted range
    /// (`vm.fault.wave1.ns`).
    wave1_ns: LatencyHistogram,
    /// Wave-2 latency: fetch slotted pages + fix DPs (`vm.fault.wave2.ns`).
    wave2_ns: LatencyHistogram,
    /// Wave-3 latency: fetch data segment + swizzle refs
    /// (`vm.fault.wave3.ns`).
    wave3_ns: LatencyHistogram,
}

struct SlottedHandler {
    mgr: Weak<SegmentManager>,
    seg: SegId,
}

impl FaultHandler for SlottedHandler {
    fn handle(&self, _space: &AddressSpace, fault: Fault) -> FaultOutcome {
        match self.mgr.upgrade() {
            Some(mgr) => mgr.slotted_fault(self.seg, fault),
            None => FaultOutcome::Deny,
        }
    }
}

struct DataHandler {
    mgr: Weak<SegmentManager>,
    seg: SegId,
}

impl FaultHandler for DataHandler {
    fn handle(&self, _space: &AddressSpace, fault: Fault) -> FaultOutcome {
        match self.mgr.upgrade() {
            Some(mgr) => mgr.data_fault(self.seg, fault),
            None => FaultOutcome::Deny,
        }
    }
}

struct BigFixedHandler {
    mgr: Weak<SegmentManager>,
    disk: DiskPtr,
}

impl FaultHandler for BigFixedHandler {
    fn handle(&self, _space: &AddressSpace, fault: Fault) -> FaultOutcome {
        match self.mgr.upgrade() {
            Some(mgr) => mgr.bigfixed_fault(self.disk, fault),
            None => FaultOutcome::Deny,
        }
    }
}

impl SegmentManager {
    /// Creates a manager bound to one process's address space and private
    /// pool.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        space: Arc<AddressSpace>,
        pool: Arc<PrivatePool>,
        disk: Arc<dyn DiskSpace>,
        types: Arc<TypeRegistry>,
        catalog: Arc<SegmentCatalog>,
        policy: ProtectionPolicy,
        host: u16,
        db: u16,
    ) -> Arc<SegmentManager> {
        // Both the seg.* counters and the vm.fault.wave*.ns histograms live
        // in the address space's registry, so the fault-wave latencies sit
        // beside the vm.* fault counters they explain.
        let group = space.metrics().registry().group("seg");
        // The private pool keeps its own registry; alias its handles here
        // so the manager's dump includes cache.private.* too.
        group.registry().adopt("", pool.metrics().registry());
        let stats = SegStats::new(&group);
        let fault = space.metrics().sub("fault");
        let wave1_ns = fault.histogram("wave1.ns");
        let wave2_ns = fault.histogram("wave2.ns");
        let wave3_ns = fault.histogram("wave3.ns");
        Arc::new(SegmentManager {
            space,
            pool,
            disk,
            types,
            catalog,
            policy,
            host,
            db,
            inner: Mutex::new(MgrInner {
                segs: HashMap::new(),
                by_slotted_base: BTreeMap::new(),
                by_data_base: BTreeMap::new(),
            }),
            observer: RwLock::new(None),
            group,
            stats,
            wave1_ns,
            wave2_ns,
            wave3_ns,
        })
    }

    /// The manager's address space.
    pub fn space(&self) -> &Arc<AddressSpace> {
        &self.space
    }

    /// The type registry.
    pub fn types(&self) -> &Arc<TypeRegistry> {
        &self.types
    }

    /// The segment catalog.
    pub fn catalog(&self) -> &Arc<SegmentCatalog> {
        &self.catalog
    }

    /// The manager's metric group (`seg.*` in the address space's
    /// registry, beside `vm.*`).
    pub fn metrics(&self) -> &Group {
        &self.group
    }

    /// Activity counters.
    pub fn stats(&self) -> &SegStats {
        &self.stats
    }

    /// Registers the update-detection observer (§2.3).
    pub fn set_write_observer(&self, obs: Option<Arc<dyn WriteObserver>>) {
        *self.observer.write() = obs;
    }

    fn psz(&self) -> u64 {
        self.space.page_size()
    }

    // ---- wave 1: reservation -------------------------------------------

    /// Reserves (and access-protects) the slotted range of `id` — wave 1.
    /// Idempotent. Returns the base of the reserved slotted range (slot 0's
    /// page).
    pub fn open_segment(self: &Arc<Self>, id: SegId) -> SegResult<VAddr> {
        Ok(self.reserve_segment(id)?.slotted_range.start())
    }

    /// Wave 1 (internal): reserve + register the slotted range.
    fn reserve_segment(self: &Arc<Self>, id: SegId) -> SegResult<Arc<SegRuntime>> {
        {
            let inner = self.inner.lock();
            if let Some(rt) = inner.segs.get(&id) {
                return Ok(Arc::clone(rt));
            }
        }
        // Timed from here (past the idempotent fast path) so re-opens of an
        // already-reserved segment don't flood the wave-1 histogram.
        let _timer = self.wave1_ns.start();
        let _span = self.group.registry().span("fault.wave1", id.start_page);
        let entry = self
            .catalog
            .get(id)
            .ok_or(SegError::UnknownSegment(id))?;
        let len = u64::from(entry.slotted.pages) * self.psz();
        let handler: Arc<dyn FaultHandler> = Arc::new(SlottedHandler {
            mgr: Arc::downgrade(self),
            seg: id,
        });
        let range = self.space.reserve(len, Some(handler));
        let rt = Arc::new(SegRuntime {
            id,
            slotted_disk: entry.slotted,
            slot_cap: entry.slot_cap,
            ref_cap: entry.ref_cap,
            slotted_range: range,
            state: Mutex::new(SegState::Reserved),
        });
        let mut inner = self.inner.lock();
        // A racing reserve may have beaten us; keep the first one and
        // release ours.
        if let Some(existing) = inner.segs.get(&id) {
            let existing = Arc::clone(existing);
            drop(inner);
            self.space.unreserve(range).ok();
            return Ok(existing);
        }
        inner.segs.insert(id, Arc::clone(&rt));
        inner
            .by_slotted_base
            .insert(range.start().raw(), (id, range.len()));
        drop(inner);
        self.stats.slotted_reserved.inc();
        Ok(rt)
    }

    fn runtime(&self, id: SegId) -> SegResult<Arc<SegRuntime>> {
        self.inner
            .lock()
            .segs
            .get(&id)
            .cloned()
            .ok_or(SegError::UnknownSegment(id))
    }

    // ---- wave 2: slotted load -------------------------------------------

    fn slotted_fault(self: &Arc<Self>, id: SegId, fault: Fault) -> FaultOutcome {
        let Ok(rt) = self.runtime(id) else {
            return FaultOutcome::Deny;
        };
        // Stray writes into the write-protected slotted segment are caught
        // here — the §2.2 corruption prevention.
        if fault.access == Access::Write && self.policy == ProtectionPolicy::Protected {
            self.stats.stray_writes_denied.inc();
            return FaultOutcome::Deny;
        }
        let mut state = rt.state.lock();
        match &*state {
            SegState::Reserved => match self.load_slotted(&rt, &mut state) {
                Ok(()) => FaultOutcome::Resume,
                Err(_) => FaultOutcome::Deny,
            },
            SegState::Loaded { .. } => {
                // A page was demoted or evicted.
                let page_idx =
                    fault.addr.offset_from(rt.slotted_range.start()) / self.psz();
                let page = rt.slotted_db_page(page_idx);
                let addr = fault.addr.page_base(self.psz());
                let data = Self::swizzled_data(&state);
                match self.refault(&rt, data, page, addr, self.slotted_prot()) {
                    Ok(()) => FaultOutcome::Resume,
                    Err(_) => FaultOutcome::Deny,
                }
            }
        }
    }

    /// Wave 2: fetch the slotted pages, reserve the data range, fix DPs.
    /// Caller holds the segment's state lock (must be `Reserved`).
    fn load_slotted(
        self: &Arc<Self>,
        rt: &Arc<SegRuntime>,
        state: &mut SegState,
    ) -> SegResult<()> {
        let _timer = self.wave2_ns.start();
        let _span = self
            .group
            .registry()
            .span("fault.wave2", rt.id.start_page);
        let prot = self.slotted_prot();
        // Prefetch pipelining: the whole slotted run goes to the pool as
        // one batch, which the I/O queue submits as a single
        // scatter-gather read instead of one device wait per page.
        let pages: Vec<(DbPage, VAddr)> = (0..u64::from(rt.slotted_disk.pages))
            .map(|i| {
                (
                    rt.slotted_db_page(i),
                    rt.slotted_range.start().add(i * self.psz()),
                )
            })
            .collect();
        self.pool.fault_in_batch(&pages, prot)?;
        let view = SlottedView::new(&self.space, rt.slotted_range.start());
        if !view.is_initialised()? {
            return Err(SegError::Corrupt(format!(
                "segment {} has no magic — not initialised",
                rt.id
            )));
        }
        // Reserve the data range (its size comes from the header).
        let data_ptr = view.data_ptr()?;
        let data_len = u64::from(data_ptr.pages) * self.psz();
        let handler: Arc<dyn FaultHandler> = Arc::new(DataHandler {
            mgr: Arc::downgrade(self),
            seg: rt.id,
        });
        let data_range = self.space.reserve(data_len, Some(handler));
        {
            let mut inner = self.inner.lock();
            inner
                .by_data_base
                .insert(data_range.start().raw(), (rt.id, data_range.len()));
        }

        // The §2.1 DP fixup: two arithmetic operations per slot.
        let old_base = view.last_data_base()?;
        let new_base = data_range.start().raw();
        let num_slots = view.num_slots()?;
        for i in 0..num_slots {
            let slot = view.slot(i)?;
            if !slot.used {
                continue;
            }
            match slot.kind {
                SlotKind::Small | SlotKind::Forward => {
                    let dp = slot.dp - old_base + new_base;
                    view.set_slot_dp(i, dp)?;
                    self.stats.dp_fixups.inc();
                }
                SlotKind::BigFixed => {
                    // Reserve a fresh protected range sized for the object;
                    // its pages fetch on demand (§2.1 large objects).
                    let disk = DiskPtr {
                        area: bess_storage::AreaId((slot.aux0 & 0xFFFF_FFFF) as u32),
                        // LINT: allow(cast) — `aux0 >> 32` leaves exactly the upper 32 bits.
                        pages: (slot.aux0 >> 32) as u32,
                        start_page: slot.aux1,
                    };
                    let handler: Arc<dyn FaultHandler> = Arc::new(BigFixedHandler {
                        mgr: Arc::downgrade(self),
                        disk,
                    });
                    let range = self
                        .space
                        .reserve(u64::from(disk.pages) * self.psz(), Some(handler));
                    view.set_slot_dp(i, range.start().raw())?;
                    self.stats.dp_fixups.inc();
                }
                SlotKind::Huge => {}
            }
        }
        view.set_last_data_base(new_base)?;
        self.mark_slotted_dirty(rt);
        *state = SegState::Loaded {
            data_range,
            data_disk: data_ptr,
            data_loaded: false,
        };
        self.stats.slotted_loads.inc();
        Ok(())
    }

    /// Ensures wave 2 has run for `id` (fetch slotted pages, fix DPs).
    pub fn load_segment(self: &Arc<Self>, id: SegId) -> SegResult<()> {
        self.ensure_slotted_loaded(id).map(|_| ())
    }

    /// Wave 2 (internal).
    fn ensure_slotted_loaded(self: &Arc<Self>, id: SegId) -> SegResult<Arc<SegRuntime>> {
        let rt = self.reserve_segment(id)?;
        let mut state = rt.state.lock();
        if matches!(*state, SegState::Reserved) {
            self.load_slotted(&rt, &mut state)?;
        }
        drop(state);
        Ok(rt)
    }

    // ---- wave 3: data load + swizzle -------------------------------------

    fn data_fault(self: &Arc<Self>, id: SegId, fault: Fault) -> FaultOutcome {
        let Ok(rt) = self.runtime(id) else {
            return FaultOutcome::Deny;
        };
        let mut state = rt.state.lock();
        let SegState::Loaded {
            data_range,
            data_loaded,
            ..
        } = &mut *state
        else {
            return FaultOutcome::Deny; // data range cannot fault before wave 2
        };
        let data_range = *data_range;
        if !*data_loaded {
            if self.load_data(&rt, data_range).is_err() {
                return FaultOutcome::Deny;
            }
            *data_loaded = true;
        }
        let data = Self::swizzled_data(&state);
        drop(state);
        let Some((data_disk, _)) = data else {
            return FaultOutcome::Deny;
        };
        // Grant the faulted page (and detect the update on writes).
        let addr = fault.addr.page_base(self.psz());
        let page_idx = addr.offset_from(data_range.start()) / self.psz();
        let db_page = DbPage {
            area: data_disk.area.0,
            page: data_disk.start_page + page_idx,
        };
        let granted = match fault.access {
            Access::Read => self.refault(&rt, data, db_page, addr, Protect::Read),
            Access::Write => self.grant_write(db_page, addr),
        };
        match granted {
            Ok(()) => FaultOutcome::Resume,
            Err(_) => FaultOutcome::Deny,
        }
    }

    /// The first write to a data page: the observer hears of it (and can
    /// refuse it), then the page becomes writable.
    fn grant_write(&self, page: DbPage, addr: VAddr) -> Result<(), PoolError> {
        if let Some(obs) = self.observer.read().clone() {
            if obs.on_first_write(page).is_err() {
                return Err(PoolError::LoadFailed { page });
            }
        }
        self.stats.write_detections.inc();
        self.pool.fault_in(page, addr, Protect::ReadWrite).map(drop)
    }

    /// Wave 3: fetch the whole data segment and swizzle outgoing refs.
    fn load_data(self: &Arc<Self>, rt: &Arc<SegRuntime>, data_range: VRange) -> SegResult<()> {
        let _timer = self.wave3_ns.start();
        let _span = self
            .group
            .registry()
            .span("fault.wave3", rt.id.start_page);
        let view = SlottedView::new(&self.space, rt.slotted_range.start());
        let data_ptr = view.data_ptr()?;
        // Same prefetch pipelining as wave 2: one batched submission for
        // the whole data run.
        let pages: Vec<(DbPage, VAddr)> = (0..u64::from(data_ptr.pages))
            .map(|i| {
                (
                    DbPage {
                        area: data_ptr.area.0,
                        page: data_ptr.start_page + i,
                    },
                    data_range.start().add(i * self.psz()),
                )
            })
            .collect();
        self.pool.fault_in_batch(&pages, Protect::Read)?;
        self.swizzle_segment(rt, &view)?;
        self.stats.data_loads.inc();
        Ok(())
    }

    /// Rewrites every reference in the data segment to the current virtual
    /// addresses of the target slots, reserving target segments (wave 1)
    /// as needed, then refreshes the reference table.
    fn swizzle_segment(
        self: &Arc<Self>,
        rt: &Arc<SegRuntime>,
        view: &SlottedView<'_>,
    ) -> SegResult<()> {
        let ref_table = view.ref_table()?;
        // Resolver over the *recorded* old bases.
        let mut old_bases: Vec<(u64, u64, SegId)> = Vec::with_capacity(ref_table.len());
        for e in &ref_table {
            let Some(entry) = self.catalog.get(e.target) else {
                continue;
            };
            let len = u64::from(entry.slotted.pages) * self.psz();
            old_bases.push((e.base, e.base + len, e.target));
        }
        old_bases.sort_unstable_by_key(|&(b, _, _)| b);

        let mut touched_targets: HashSet<SegId> = HashSet::new();
        let num_slots = view.num_slots()?;
        for i in 0..num_slots {
            let slot = view.slot(i)?;
            if !slot.used || slot.kind != SlotKind::Small {
                continue;
            }
            for off in self.types.ref_offsets(slot.type_id) {
                if u64::from(off) + 8 > u64::from(slot.size) {
                    continue; // descriptor larger than instance: skip
                }
                let ref_addr = VAddr::from_raw(slot.dp).add(u64::from(off));
                let mut raw = [0u8; 8];
                self.space.read_unchecked(ref_addr, &mut raw)?;
                let old = u64::from_le_bytes(raw);
                if old == 0 {
                    continue;
                }
                // The recorded bases are authoritative: every stored
                // reference went through `store_ref` or a previous
                // swizzle, both of which record the target's base in the
                // table.
                let found = old_bases
                    .iter()
                    .rev()
                    .find(|&&(b, e, _)| old >= b && old < e)
                    .copied();
                match found {
                    Some((base, _, target)) => {
                        let target_rt = self.reserve_segment(target)?; // wave 1
                        let new = target_rt.slotted_range.start().raw() + (old - base);
                        if new != old {
                            self.space
                                .write_unchecked(ref_addr, &new.to_le_bytes())?;
                            self.stats.refs_swizzled.inc();
                        }
                        touched_targets.insert(target);
                    }
                    // Fallback: the address already lies inside a live
                    // mapping (a reference created this epoch).
                    None => match self.seg_of_slotted_addr(old) {
                        Some(seg) => {
                            touched_targets.insert(seg);
                        }
                        None => {
                            self.stats.refs_unresolved.inc();
                        }
                    },
                }
            }
        }
        // Refresh the reference table with current bases.
        let mut new_table = Vec::with_capacity(touched_targets.len());
        for target in touched_targets {
            if let Ok(target_rt) = self.runtime(target) {
                new_table.push(RefEntry {
                    target,
                    base: target_rt.slotted_range.start().raw(),
                });
            }
        }
        new_table.sort_unstable_by_key(|e| e.target);
        new_table.truncate(rt.ref_cap as usize);
        self.with_unprotected(rt, || view.set_ref_table(&new_table))?;
        self.mark_slotted_dirty(rt);
        // Data pages were rewritten in place.
        self.mark_data_dirty(rt)?;
        Ok(())
    }

    /// Ensures wave 3 has run for `id` (fetch + swizzle the data segment).
    pub fn load_segment_data(self: &Arc<Self>, id: SegId) -> SegResult<()> {
        self.ensure_data_loaded(id).map(|_| ())
    }

    /// Wave 3 (internal).
    fn ensure_data_loaded(self: &Arc<Self>, id: SegId) -> SegResult<Arc<SegRuntime>> {
        let rt = self.ensure_slotted_loaded(id)?;
        let mut state = rt.state.lock();
        if let SegState::Loaded {
            data_range,
            data_loaded,
            ..
        } = &mut *state
        {
            if !*data_loaded {
                let dr = *data_range;
                self.load_data(&rt, dr)?;
                *data_loaded = true;
            }
        }
        drop(state);
        Ok(rt)
    }

    fn bigfixed_fault(self: &Arc<Self>, disk: DiskPtr, fault: Fault) -> FaultOutcome {
        // Fetch the whole object "in one step" (§2.1).
        let base = fault.region.start();
        let written = (fault.access == Access::Write).then(|| fault.addr.page_base(self.psz()));
        let (mut read, mut write) = (Vec::new(), None);
        for i in 0..u64::from(disk.pages) {
            let addr = base.add(i * self.psz());
            let db_page = DbPage {
                area: disk.area.0,
                page: disk.start_page + i,
            };
            if written == Some(addr) {
                write = Some((db_page, addr));
            } else {
                read.push((db_page, addr));
            }
        }
        let fetched = self.pool.fault_in_batch(&read, Protect::Read);
        let granted = fetched.and_then(|()| write.map_or(Ok(()), |(p, a)| self.grant_write(p, a)));
        match granted {
            Ok(()) => FaultOutcome::Resume,
            Err(_) => FaultOutcome::Deny,
        }
    }

    // ---- helpers ---------------------------------------------------------

    fn seg_of_slotted_addr(&self, raw: u64) -> Option<SegId> {
        let inner = self.inner.lock();
        inner
            .by_slotted_base
            .range(..=raw)
            .next_back()
            .filter(|(&start, &(_, len))| raw >= start && raw < start + len)
            .map(|(_, &(seg, _))| seg)
    }

    fn seg_of_data_addr(&self, raw: u64) -> Option<SegId> {
        let inner = self.inner.lock();
        inner
            .by_data_base
            .range(..=raw)
            .next_back()
            .filter(|(&start, &(_, len))| raw >= start && raw < start + len)
            .map(|(_, &(seg, _))| seg)
    }

    /// Runs `f` with the slotted segment unprotected, reprotecting after —
    /// the §2.2 protect/update/reprotect dance, costing two protection
    /// system calls.
    fn with_unprotected<T>(
        &self,
        rt: &SegRuntime,
        f: impl FnOnce() -> VmResult<T>,
    ) -> SegResult<T> {
        if self.policy == ProtectionPolicy::Protected {
            self.space.protect(rt.slotted_range, Protect::ReadWrite)?;
            let out = f();
            self.space.protect(rt.slotted_range, Protect::Read)?;
            self.stats.protect_cycles.inc();
            Ok(out?)
        } else {
            Ok(f()?)
        }
    }

    /// How a slotted page is mapped when the engine is not updating it.
    fn slotted_prot(&self) -> Protect {
        match self.policy {
            ProtectionPolicy::Protected => Protect::Read,
            ProtectionPolicy::Unprotected => Protect::ReadWrite,
        }
    }

    /// The data segment of a segment whose wave 3 has run — on disk and in
    /// memory. Before that its pages are not the re-fault helper's to load.
    fn swizzled_data(state: &SegState) -> Option<(DiskPtr, VRange)> {
        match state {
            SegState::Loaded {
                data_range,
                data_disk,
                data_loaded: true,
            } => Some((*data_disk, *data_range)),
            _ => None,
        }
    }

    /// Makes `page` of loaded segment `rt` accessible again at `addr`. If
    /// it was evicted, the same batched load also brings back the
    /// segment's other evicted pages that map with the same protection —
    /// slotted and (`data`: see [`Self::swizzled_data`]) data pages,
    /// nearest page index first, at most [`REFAULT_BATCH`] in all: a
    /// segment is evicted piecemeal and wanted back together. Only `page`
    /// is what the caller asked for, so only its failure is one.
    fn refault(
        &self,
        rt: &SegRuntime,
        data: Option<(DiskPtr, VRange)>,
        page: DbPage,
        addr: VAddr,
        prot: Protect,
    ) -> Result<(), PoolError> {
        let evicted = |at: VAddr| self.space.frame_state(at) == FrameState::Invalid;
        if !evicted(addr) {
            // Demoted by the clock: nothing to load.
            return self.pool.fault_in(page, addr, prot).map(drop);
        }
        let psz = self.psz();
        let slotted = (0..u64::from(rt.slotted_disk.pages)).map(|i| {
            let at = rt.slotted_range.start().add(i * psz);
            (i, rt.slotted_db_page(i), at, self.slotted_prot())
        });
        let data = data.into_iter().flat_map(|(disk, range)| {
            (0..u64::from(disk.pages)).map(move |i| {
                let page = DbPage {
                    area: disk.area.0,
                    page: disk.start_page + i,
                };
                (i, page, range.start().add(i * psz), Protect::Read)
            })
        });
        let all: Vec<(u64, DbPage, VAddr, Protect)> = slotted.chain(data).collect();
        let index = all.iter().find(|c| c.2 == addr).map_or(0, |c| c.0);
        let mut near: Vec<_> = all
            .into_iter()
            .filter(|&(_, _, at, p)| at != addr && p == prot && evicted(at))
            .collect();
        near.sort_by_key(|&(i, ..)| i.abs_diff(index));
        let batch: Vec<(DbPage, VAddr)> = std::iter::once((page, addr))
            .chain(near.into_iter().map(|(_, p, at, _)| (p, at)))
            .take(REFAULT_BATCH)
            .collect();
        let loaded = self.pool.fault_in_batch(&batch, prot);
        match self.space.frame_state(addr) {
            FrameState::Accessible => Ok(()),
            FrameState::Invalid if loaded.is_err() => loaded,
            // A pool smaller than the batch demoted or evicted the page
            // while mapping the others.
            _ => self.pool.fault_in(page, addr, prot).map(drop),
        }
    }

    /// Re-materialises any slotted pages the pool evicted; engine-internal
    /// (unchecked) accesses require the pages to be mapped.
    fn ensure_slotted_resident(&self, rt: &SegRuntime) -> SegResult<()> {
        let data = Self::swizzled_data(&rt.state.lock());
        for i in 0..u64::from(rt.slotted_disk.pages) {
            let addr = rt.slotted_range.start().add(i * self.psz());
            if self.space.frame_state(addr) == FrameState::Invalid {
                self.refault(rt, data, rt.slotted_db_page(i), addr, self.slotted_prot())?;
            }
        }
        Ok(())
    }

    /// Re-materialises any data pages the pool evicted.
    fn ensure_data_resident(&self, rt: &SegRuntime) -> SegResult<()> {
        let Some((disk, range)) = Self::swizzled_data(&rt.state.lock()) else {
            return Err(SegError::Corrupt(format!(
                "segment {} data range requested before load",
                rt.id
            )));
        };
        for i in 0..u64::from(disk.pages) {
            let addr = range.start().add(i * self.psz());
            if self.space.frame_state(addr) == FrameState::Invalid {
                let page = DbPage {
                    area: disk.area.0,
                    page: disk.start_page + i,
                };
                self.refault(rt, Some((disk, range)), page, addr, Protect::Read)?;
            }
        }
        Ok(())
    }

    fn mark_slotted_dirty(&self, rt: &SegRuntime) {
        for i in 0..u64::from(rt.slotted_disk.pages) {
            self.pool.mark_dirty(rt.slotted_db_page(i));
        }
    }

    fn mark_data_dirty(&self, rt: &SegRuntime) -> SegResult<()> {
        let view = SlottedView::new(&self.space, rt.slotted_range.start());
        let data_ptr = view.data_ptr()?;
        for i in 0..u64::from(data_ptr.pages) {
            self.pool.mark_dirty(DbPage {
                area: data_ptr.area.0,
                page: data_ptr.start_page + i,
            });
        }
        Ok(())
    }

    fn data_range_of(&self, rt: &SegRuntime) -> SegResult<VRange> {
        match &*rt.state.lock() {
            SegState::Loaded { data_range, .. } => Ok(*data_range),
            SegState::Reserved => Err(SegError::Corrupt(format!(
                "segment {} data range requested before load",
                rt.id
            ))),
        }
    }

    // ---- segment creation -------------------------------------------------

    /// Creates a fresh object segment in `area` with room for `slot_cap`
    /// objects and `data_pages` pages of object data.
    pub fn create_segment(
        self: &Arc<Self>,
        area: u32,
        slot_cap: u32,
        data_pages: u32,
    ) -> SegResult<SegId> {
        let ref_cap = 32.min(slot_cap.max(4));
        let s_pages = slotted_pages(slot_cap, ref_cap, self.psz() as usize);
        let slotted = self.disk.alloc(area, s_pages)?;
        let data = self.disk.alloc(area, data_pages.max(1))?;
        let id = SegId {
            area,
            start_page: slotted.start_page,
        };
        self.catalog.add(
            id,
            CatalogEntry {
                slotted,
                slot_cap,
                ref_cap,
            },
        );
        let rt = self.reserve_segment(id)?;
        // Fault the (zeroed) pages in and initialise the header in place.
        let pages: Vec<(DbPage, VAddr)> = (0..u64::from(s_pages))
            .map(|i| (rt.slotted_db_page(i), rt.slotted_range.start().add(i * self.psz())))
            .collect();
        self.pool.fault_in_batch(&pages, self.slotted_prot())?;
        // Reserve the data range now; it is "loaded" (all zeroes are
        // valid fresh content).
        let data_len = u64::from(data.pages) * self.psz();
        let handler: Arc<dyn FaultHandler> = Arc::new(DataHandler {
            mgr: Arc::downgrade(self),
            seg: id,
        });
        let data_range = self.space.reserve(data_len, Some(handler));
        {
            let mut inner = self.inner.lock();
            inner
                .by_data_base
                .insert(data_range.start().raw(), (id, data_range.len()));
        }
        let view = SlottedView::new(&self.space, rt.slotted_range.start());
        self.with_unprotected(&rt, || {
            view.set_initialised()?;
            view.set_slot_cap(slot_cap)?;
            view.set_num_slots(0)?;
            view.set_free_head(NO_SLOT)?;
            view.set_live_objects(0)?;
            view.set_data_used(0)?;
            view.set_data_ptr(data)?;
            view.set_last_data_base(data_range.start().raw())?;
            view.set_overflow_ptr(None)?;
            view.set_overflow_used(0)?;
            view.set_ref_table(&[])
        })?;
        self.mark_slotted_dirty(&rt);
        *rt.state.lock() = SegState::Loaded {
            data_range,
            data_disk: data,
            data_loaded: true,
        };
        Ok(id)
    }

    // ---- object lifecycle --------------------------------------------------

    fn alloc_slot(&self, rt: &SegRuntime, view: &SlottedView<'_>) -> SegResult<(u32, u32)> {
        let free = view.free_head()?;
        if free != NO_SLOT {
            let slot = view.slot(free)?;
            debug_assert!(!slot.used);
            view.set_free_head(slot.dp as u32)?;
            return Ok((free, slot.uniq.wrapping_add(1)));
        }
        let hw = view.num_slots()?;
        if hw >= rt.slot_cap {
            return Err(SegError::SegmentFull(rt.id));
        }
        view.set_num_slots(hw + 1)?;
        Ok((hw, 0))
    }

    /// Allocates `size` bytes in the data segment, growing it if needed.
    fn alloc_data(
        self: &Arc<Self>,
        rt: &Arc<SegRuntime>,
        view: &SlottedView<'_>,
        size: u32,
    ) -> SegResult<u64> {
        let aligned = u64::from(size).div_ceil(8) * 8;
        let used = u64::from(view.data_used()?);
        let data_ptr = view.data_ptr()?;
        let cap = u64::from(data_ptr.pages) * self.psz();
        if used + aligned > cap {
            self.grow_data(rt, view, used + aligned)?;
        }
        let used = u64::from(view.data_used()?);
        view.set_data_used((used + aligned) as u32)?;
        let base = self.data_range_of(rt)?.start().raw();
        Ok(base + used)
    }

    /// Grows (or relocates) the data segment to hold at least `need`
    /// bytes. Existing references are unaffected: they point at slots, and
    /// DPs are rewritten here (§2.1's relocation-without-invalidation).
    fn grow_data(
        self: &Arc<Self>,
        rt: &Arc<SegRuntime>,
        view: &SlottedView<'_>,
        need: u64,
    ) -> SegResult<()> {
        let old_ptr = view.data_ptr()?;
        let new_pages = (u64::from(old_ptr.pages) * 2)
            .max(need.div_ceil(self.psz()))
            .max(1) as u32;
        self.move_data(rt, view, old_ptr.area.0, new_pages, false)
    }

    /// Moves the data segment to a fresh disk segment of `new_pages` pages
    /// in `target_area`, copying live bytes and fixing DPs. This is the
    /// §2.1 reorganisation primitive behind compaction, resizing, and
    /// cross-area moves. With `compact`, live objects are re-laid out
    /// without holes.
    fn move_data(
        self: &Arc<Self>,
        rt: &Arc<SegRuntime>,
        view: &SlottedView<'_>,
        target_area: u32,
        new_pages: u32,
        compact: bool,
    ) -> SegResult<()> {
        self.ensure_data_resident(rt)?;
        let old_ptr = view.data_ptr()?;
        let old_range = self.data_range_of(rt)?;
        let used = u64::from(view.data_used()?);
        // Gather live small/forward objects (needed for both DP fixing and
        // compaction).
        let num_slots = view.num_slots()?;
        let mut live: Vec<(u32, u64, u32)> = Vec::new(); // (slot, dp, size)
        for i in 0..num_slots {
            let slot = view.slot(i)?;
            if slot.used && matches!(slot.kind, SlotKind::Small | SlotKind::Forward) {
                live.push((i, slot.dp, slot.size));
            }
        }
        let compact_bytes: u64 = live
            .iter()
            .map(|&(_, _, s)| u64::from(s.max(1)).div_ceil(8) * 8)
            .sum();
        let new_pages = if compact {
            compact_bytes.div_ceil(self.psz()).max(1) as u32
        } else {
            new_pages
        };
        let new_disk = self.disk.alloc(target_area, new_pages)?;
        let new_len = u64::from(new_pages) * self.psz();
        assert!(
            if compact { compact_bytes } else { used } <= new_len,
            "data does not fit the new segment"
        );

        // Reserve the new range and materialise its (zero) pages.
        let handler: Arc<dyn FaultHandler> = Arc::new(DataHandler {
            mgr: Arc::downgrade(self),
            seg: rt.id,
        });
        let new_range = self.space.reserve(new_len, Some(handler));
        let pages: Vec<(DbPage, VAddr)> = (0..u64::from(new_pages))
            .map(|i| {
                let page = DbPage {
                    area: target_area,
                    page: new_disk.start_page + i,
                };
                (page, new_range.start().add(i * self.psz()))
            })
            .collect();
        self.pool.fault_in_batch(&pages, Protect::Read)?;
        let old_base = old_range.start().raw();
        let new_base = new_range.start().raw();
        if compact {
            // Re-lay live objects contiguously, fixing each DP.
            let mut cursor = 0u64;
            self.with_unprotected(rt, || {
                for &(i, dp, size) in &live {
                    let aligned = u64::from(size.max(1)).div_ceil(8) * 8;
                    let mut buf = vec![0u8; size.max(1) as usize];
                    self.space.read_unchecked(VAddr::from_raw(dp), &mut buf)?;
                    self.space
                        .write_unchecked(VAddr::from_raw(new_base + cursor), &buf)?;
                    view.set_slot_dp(i, new_base + cursor)?;
                    cursor += aligned;
                }
                view.set_data_used(cursor as u32)?;
                view.set_data_ptr(new_disk)?;
                view.set_last_data_base(new_base)
            })?;
        } else {
            // Copy the used prefix verbatim and shift every DP.
            if used > 0 {
                let mut buf = vec![0u8; used as usize];
                self.space.read_unchecked(old_range.start(), &mut buf)?;
                self.space.write_unchecked(new_range.start(), &buf)?;
            }
            self.with_unprotected(rt, || {
                for &(i, dp, _) in &live {
                    view.set_slot_dp(i, dp - old_base + new_base)?;
                }
                view.set_data_ptr(new_disk)?;
                view.set_last_data_base(new_base)
            })?;
        }
        // Install the new range, retire the old.
        {
            let mut inner = self.inner.lock();
            inner.by_data_base.remove(&old_base);
            inner
                .by_data_base
                .insert(new_base, (rt.id, new_range.len()));
        }
        {
            let mut state = rt.state.lock();
            *state = SegState::Loaded {
                data_range: new_range,
                data_disk: new_disk,
                data_loaded: true,
            };
        }
        // Drop old pages from the pool without writing them back, release
        // the address range and the old disk segment.
        for i in 0..u64::from(old_ptr.pages) {
            let db_page = DbPage {
                area: old_ptr.area.0,
                page: old_ptr.start_page + i,
            };
            self.pool.discard(db_page);
        }
        self.space.unreserve(old_range).ok();
        self.disk.free(old_ptr)?;
        self.mark_slotted_dirty(rt);
        self.mark_data_dirty(rt)?;
        Ok(())
    }

    /// Creates a small object of `size` bytes and type `type_id` in
    /// segment `seg`, returning its reference.
    pub fn create_object(
        self: &Arc<Self>,
        seg: SegId,
        type_id: TypeId,
        size: u32,
    ) -> SegResult<ObjRef> {
        let rt = self.ensure_data_loaded(seg)?;
        self.ensure_slotted_resident(&rt)?;
        self.ensure_data_resident(&rt)?;
        let view = SlottedView::new(&self.space, rt.slotted_range.start());
        let (idx, uniq) = self.with_unprotected(&rt, || {
            match self.alloc_slot(&rt, &view) {
                Ok(v) => Ok(v),
                Err(SegError::SegmentFull(_)) => {
                    // Re-raise as a VmError-free path: encode as sentinel.
                    Ok((NO_SLOT, 0))
                }
                Err(e) => match e {
                    SegError::Vm(v) => Err(v),
                    other => panic!("unexpected alloc_slot error: {other}"),
                },
            }
        })?;
        if idx == NO_SLOT {
            return Err(SegError::SegmentFull(seg));
        }
        let dp = {
            // alloc_data may relocate the data segment; keep it outside the
            // protect cycle and re-wrap its own mutations.
            let dp = self.alloc_data(&rt, &view, size.max(1))?;
            self.with_unprotected(&rt, || {
                view.set_slot(
                    idx,
                    Slot {
                        used: true,
                        kind: SlotKind::Small,
                        type_id,
                        uniq,
                        size,
                        dp,
                        aux0: 0,
                        aux1: 0,
                    },
                )?;
                view.set_live_objects(view.live_objects()? + 1)
            })?;
            dp
        };
        let _ = dp;
        self.mark_slotted_dirty(&rt);
        self.stats.objects_created.inc();
        Ok(ObjRef {
            addr: view.slot_addr(idx),
            oid: Oid {
                host: self.host,
                db: self.db,
                seg,
                slot: idx,
                uniq,
            },
        })
    }

    /// Deletes the object at `addr`. Its slot joins the free list with a
    /// bumped uniquifier, so stale OIDs are detectable.
    pub fn delete_object(self: &Arc<Self>, addr: VAddr) -> SegResult<()> {
        let (rt, idx) = self.locate_slot(addr)?;
        self.ensure_slotted_resident(&rt)?;
        let view = SlottedView::new(&self.space, rt.slotted_range.start());
        let slot = view.slot(idx)?;
        if !slot.used {
            return Err(SegError::NotAnObject(addr));
        }
        if slot.kind == SlotKind::BigFixed {
            let disk = DiskPtr {
                area: bess_storage::AreaId((slot.aux0 & 0xFFFF_FFFF) as u32),
                // LINT: allow(cast) — `aux0 >> 32` leaves exactly the upper 32 bits.
                pages: (slot.aux0 >> 32) as u32,
                start_page: slot.aux1,
            };
            for i in 0..u64::from(disk.pages) {
                // The object is being deleted: drop its pages without
                // writing stale content back to a segment about to be freed.
                self.pool.discard(DbPage {
                    area: disk.area.0,
                    page: disk.start_page + i,
                });
            }
            self.disk.free(disk)?;
        }
        self.with_unprotected(&rt, || {
            let free = view.free_head()?;
            view.set_slot(idx, Slot::free(free, slot.uniq.wrapping_add(1)))?;
            view.set_free_head(idx)?;
            view.set_live_objects(view.live_objects()?.saturating_sub(1))
        })?;
        self.mark_slotted_dirty(&rt);
        self.stats.objects_deleted.inc();
        Ok(())
    }

    fn locate_slot(&self, addr: VAddr) -> SegResult<(Arc<SegRuntime>, u32)> {
        let seg = self
            .seg_of_slotted_addr(addr.raw())
            .ok_or(SegError::NotAnObject(addr))?;
        let rt = self.runtime(seg)?;
        self.ensure_slotted_resident(&rt)?;
        let view = SlottedView::new(&self.space, rt.slotted_range.start());
        let idx = view
            .slot_of_addr(addr, rt.slot_cap)
            .ok_or(SegError::NotAnObject(addr))?;
        Ok((rt, idx))
    }

    // ---- dereference -------------------------------------------------------

    /// Dereferences an object reference: reads the slot through the normal
    /// faulting path (driving waves 1-2 if needed) and returns where the
    /// data lives. This is the `ref<T>` fast path — no hashing, no lookup,
    /// just a protected load.
    pub fn deref(&self, addr: VAddr) -> SegResult<ObjInfo> {
        // A checked read of the slot triggers the slotted-segment fault if
        // the segment has only been reserved.
        let mut raw = [0u8; SLOT_SIZE as usize];
        self.space.read(addr, &mut raw)?;
        let flags = u32::from_le_bytes(raw[0..4].try_into().unwrap());
        if flags & 1 == 0 {
            return Err(SegError::NotAnObject(addr));
        }
        let kind = match (flags >> 8) & 0xFF {
            0 => SlotKind::Small,
            1 => SlotKind::BigFixed,
            2 => SlotKind::Huge,
            _ => SlotKind::Forward,
        };
        let type_id = TypeId(u32::from_le_bytes(raw[4..8].try_into().unwrap()));
        let size = u32::from_le_bytes(raw[12..16].try_into().unwrap());
        let dp = u64::from_le_bytes(raw[16..24].try_into().unwrap());
        // Huge objects carry no DP — their bytes live in the large-object
        // tree, reached through the class interface.
        let data = match kind {
            SlotKind::Huge => VAddr::new(dp).unwrap_or(addr),
            _ => VAddr::new(dp).ok_or(SegError::NotAnObject(addr))?,
        };
        Ok(ObjInfo {
            data,
            size,
            type_id,
            kind,
        })
    }

    /// Reads the whole object at `addr` (driving wave 3 on first touch).
    pub fn read_object(&self, addr: VAddr) -> SegResult<Vec<u8>> {
        let info = self.deref(addr)?;
        let mut buf = vec![0u8; info.size as usize];
        self.space.read(info.data, &mut buf)?;
        Ok(buf)
    }

    /// Writes `data` at byte `offset` of the object at `addr` through the
    /// faulting path (first write per page traps for update detection).
    pub fn write_object(&self, addr: VAddr, offset: u32, data: &[u8]) -> SegResult<()> {
        let info = self.deref(addr)?;
        if u64::from(offset) + data.len() as u64 > u64::from(info.size) {
            return Err(SegError::Corrupt(format!(
                "write of {} bytes at {offset} exceeds object size {}",
                data.len(),
                info.size
            )));
        }
        self.space.write(info.data.add(u64::from(offset)), data)?;
        Ok(())
    }

    /// Stores an inter-object reference: writes `target`'s slot address at
    /// byte `ref_offset` of the object at `src`, and records the target's
    /// current base in the segment's reference table so the reference can
    /// be swizzled in later epochs.
    pub fn store_ref(
        self: &Arc<Self>,
        src: VAddr,
        ref_offset: u32,
        target: Option<VAddr>,
    ) -> SegResult<()> {
        let info = self.deref(src)?;
        let raw = target.map(|t| t.raw()).unwrap_or(0);
        self.space
            .write(info.data.add(u64::from(ref_offset)), &raw.to_le_bytes())?;
        if let Some(t) = target {
            let src_seg = self
                .seg_of_data_addr(info.data.raw())
                .ok_or(SegError::NotAnObject(src))?;
            let target_seg = self
                .seg_of_slotted_addr(t.raw())
                .ok_or(SegError::NotAnObject(t))?;
            let src_rt = self.runtime(src_seg)?;
            let target_rt = self.runtime(target_seg)?;
            self.ensure_slotted_resident(&src_rt)?;
            let view = SlottedView::new(&self.space, src_rt.slotted_range.start());
            let mut table = view.ref_table()?;
            let base = target_rt.slotted_range.start().raw();
            match table.iter_mut().find(|e| e.target == target_seg) {
                Some(e) => e.base = base,
                None => {
                    if table.len() < src_rt.ref_cap as usize {
                        table.push(RefEntry {
                            target: target_seg,
                            base,
                        });
                    }
                }
            }
            self.with_unprotected(&src_rt, || view.set_ref_table(&table))?;
            self.mark_slotted_dirty(&src_rt);
        }
        Ok(())
    }

    /// Follows the reference stored at byte `ref_offset` of the object at
    /// `src`, returning the target slot address (or `None` for null).
    pub fn load_ref(&self, src: VAddr, ref_offset: u32) -> SegResult<Option<VAddr>> {
        let info = self.deref(src)?;
        let mut raw = [0u8; 8];
        self.space
            .read(info.data.add(u64::from(ref_offset)), &mut raw)?;
        Ok(VAddr::new(u64::from_le_bytes(raw)))
    }

    // ---- OIDs ---------------------------------------------------------------

    /// The OID of the object at `addr`.
    pub fn oid_of(&self, addr: VAddr) -> SegResult<Oid> {
        let (rt, idx) = self.locate_slot(addr)?;
        let view = SlottedView::new(&self.space, rt.slotted_range.start());
        let slot = view.slot(idx)?;
        if !slot.used {
            return Err(SegError::NotAnObject(addr));
        }
        Ok(Oid {
            host: self.host,
            db: self.db,
            seg: rt.id,
            slot: idx,
            uniq: slot.uniq,
        })
    }

    /// Resolves an OID to the current slot address, validating the
    /// uniquifier. This is the slower `global_ref<T>` path (§2.5).
    pub fn resolve_oid(self: &Arc<Self>, oid: Oid) -> SegResult<VAddr> {
        let rt = self.ensure_slotted_loaded(oid.seg)?;
        self.ensure_slotted_resident(&rt)?;
        let view = SlottedView::new(&self.space, rt.slotted_range.start());
        if oid.slot >= rt.slot_cap {
            return Err(SegError::StaleOid(oid));
        }
        let slot = view.slot(oid.slot)?;
        if !slot.used || slot.uniq != oid.uniq {
            return Err(SegError::StaleOid(oid));
        }
        Ok(view.slot_addr(oid.slot))
    }

    // ---- large objects --------------------------------------------------------

    /// Creates a transparent fixed-size large object (≤ 64 KB, §2.1): its
    /// data lives in its own disk segment, mapped at a dedicated reserved
    /// range, fetched on first touch.
    pub fn create_big_object(
        self: &Arc<Self>,
        seg: SegId,
        type_id: TypeId,
        size: u32,
    ) -> SegResult<ObjRef> {
        const MAX_BIG: u32 = 64 * 1024;
        if size > MAX_BIG {
            return Err(SegError::Corrupt(format!(
                "fixed large object of {size} bytes exceeds the {MAX_BIG} limit; use a huge object"
            )));
        }
        let rt = self.ensure_slotted_loaded(seg)?;
        // LINT: allow(cast) — `size <= MAX_BIG` was checked above, so the page count fits.
        let pages = u64::from(size).div_ceil(self.psz()).max(1) as u32;
        let disk = self.disk.alloc(seg.area, pages)?;
        let handler: Arc<dyn FaultHandler> = Arc::new(BigFixedHandler {
            mgr: Arc::downgrade(self),
            disk,
        });
        let range = self
            .space
            .reserve(u64::from(pages) * self.psz(), Some(handler));
        let view = SlottedView::new(&self.space, rt.slotted_range.start());
        let (idx, uniq) = self.with_unprotected(&rt, || match self.alloc_slot(&rt, &view) {
            Ok(v) => Ok(v),
            Err(SegError::SegmentFull(_)) => Ok((NO_SLOT, 0)),
            Err(SegError::Vm(v)) => Err(v),
            Err(other) => panic!("unexpected alloc_slot error: {other}"),
        })?;
        if idx == NO_SLOT {
            self.disk.free(disk)?;
            self.space.unreserve(range).ok();
            return Err(SegError::SegmentFull(seg));
        }
        self.with_unprotected(&rt, || {
            view.set_slot(
                idx,
                Slot {
                    used: true,
                    kind: SlotKind::BigFixed,
                    type_id,
                    uniq,
                    size,
                    dp: range.start().raw(),
                    aux0: u64::from(disk.area.0) | (u64::from(disk.pages) << 32),
                    aux1: disk.start_page,
                },
            )?;
            view.set_live_objects(view.live_objects()? + 1)
        })?;
        self.mark_slotted_dirty(&rt);
        self.stats.objects_created.inc();
        Ok(ObjRef {
            addr: view.slot_addr(idx),
            oid: Oid {
                host: self.host,
                db: self.db,
                seg,
                slot: idx,
                uniq,
            },
        })
    }

    /// Creates a *huge* object: an EOS byte-tree accessed through the
    /// class interface (§2.1), with its descriptor in the overflow segment.
    /// Returns the object reference; manipulate it via
    /// [`Self::open_huge_object`] / [`Self::save_huge_object`].
    pub fn create_huge_object(
        self: &Arc<Self>,
        seg: SegId,
        type_id: TypeId,
        config: LoConfig,
    ) -> SegResult<(ObjRef, LargeObject)> {
        let rt = self.ensure_slotted_loaded(seg)?;
        let lo = LargeObject::create_in(Arc::clone(&self.disk), seg.area, config);
        let view = SlottedView::new(&self.space, rt.slotted_range.start());
        let (idx, uniq) = self.with_unprotected(&rt, || match self.alloc_slot(&rt, &view) {
            Ok(v) => Ok(v),
            Err(SegError::SegmentFull(_)) => Ok((NO_SLOT, 0)),
            Err(SegError::Vm(v)) => Err(v),
            Err(other) => panic!("unexpected alloc_slot error: {other}"),
        })?;
        if idx == NO_SLOT {
            return Err(SegError::SegmentFull(seg));
        }
        self.with_unprotected(&rt, || {
            view.set_slot(
                idx,
                Slot {
                    used: true,
                    kind: SlotKind::Huge,
                    type_id,
                    uniq,
                    size: 0,
                    dp: 0,
                    aux0: 0,
                    aux1: 0,
                },
            )?;
            view.set_live_objects(view.live_objects()? + 1)
        })?;
        let objref = ObjRef {
            addr: view.slot_addr(idx),
            oid: Oid {
                host: self.host,
                db: self.db,
                seg,
                slot: idx,
                uniq,
            },
        };
        self.save_huge_object(objref.addr, &lo)?;
        self.stats.objects_created.inc();
        Ok((objref, lo))
    }

    /// Persists a huge object's descriptor into the overflow segment
    /// ("the root of the tree is placed in the overflow segment", §2.1).
    pub fn save_huge_object(self: &Arc<Self>, addr: VAddr, lo: &LargeObject) -> SegResult<()> {
        let (rt, idx) = self.locate_slot(addr)?;
        let view = SlottedView::new(&self.space, rt.slotted_range.start());
        let slot = view.slot(idx)?;
        if !slot.used || slot.kind != SlotKind::Huge {
            return Err(SegError::NotAnObject(addr));
        }
        let desc = lo.to_descriptor();
        // Bump-allocate descriptor space in the overflow segment, growing
        // it as needed.
        let mut ovf = view.overflow_ptr()?;
        let mut used = view.overflow_used()? as u64;
        let need = desc.len() as u64 + 8;
        let cap = ovf
            .map(|p| u64::from(p.pages) * self.psz())
            .unwrap_or(0);
        if used + need > cap {
            // LINT: allow(cast) — overflow tables are a few pages; doubling stays far below u32::MAX.
            let new_pages = ((cap * 2).max(used + need).div_ceil(self.psz())).max(1) as u32;
            let new_ovf = self.disk.alloc(rt.id.area, new_pages)?;
            if let Some(old) = ovf {
                // Copy the old overflow content.
                let mut buf = vec![0u8; used as usize];
                if used > 0 {
                    bess_largeobj::seg_read(self.disk.as_ref(), old, 0, &mut buf)?;
                    bess_largeobj::seg_write(self.disk.as_ref(), new_ovf, 0, &buf)?;
                }
                self.disk.free(old)?;
            }
            ovf = Some(new_ovf);
            self.with_unprotected(&rt, || view.set_overflow_ptr(ovf))?;
        }
        let ovf = ovf.expect("overflow allocated");
        let mut framed = Vec::with_capacity(desc.len() + 8);
        framed.extend_from_slice(&(desc.len() as u64).to_le_bytes());
        framed.extend_from_slice(&desc);
        bess_largeobj::seg_write(self.disk.as_ref(), ovf, used, &framed)?;
        let desc_off = used;
        used += framed.len() as u64;
        self.with_unprotected(&rt, || {
            view.set_overflow_used(used as u32)?;
            let mut s = view.slot(idx)?;
            s.aux0 = desc_off;
            s.aux1 = framed.len() as u64;
            view.set_slot(idx, s)
        })?;
        self.mark_slotted_dirty(&rt);
        Ok(())
    }

    /// Opens a huge object from its persisted descriptor.
    pub fn open_huge_object(self: &Arc<Self>, addr: VAddr) -> SegResult<LargeObject> {
        // Checked read drives the waves if needed.
        let _ = self.deref(addr)?;
        let (rt, idx) = self.locate_slot(addr)?;
        let view = SlottedView::new(&self.space, rt.slotted_range.start());
        let slot = view.slot(idx)?;
        if !slot.used || slot.kind != SlotKind::Huge {
            return Err(SegError::NotAnObject(addr));
        }
        let ovf = view
            .overflow_ptr()?
            .ok_or_else(|| SegError::Corrupt("huge object without overflow segment".into()))?;
        let mut framed = vec![0u8; slot.aux1 as usize];
        bess_largeobj::seg_read(self.disk.as_ref(), ovf, slot.aux0, &mut framed)?;
        let len = u64::from_le_bytes(framed[0..8].try_into().unwrap()) as usize;
        if len + 8 != framed.len() {
            return Err(SegError::Corrupt("huge descriptor length mismatch".into()));
        }
        Ok(LargeObject::from_descriptor_in(
            Arc::clone(&self.disk),
            rt.id.area,
            &framed[8..],
        )?)
    }

    // ---- forward objects (inter-database references, §2.1) -------------------

    /// Creates a forward object holding the OID of an object in another
    /// database. Intra-database references can then point at the forward
    /// object's slot, and BeSS resolves the indirection transparently.
    pub fn create_forward_object(self: &Arc<Self>, seg: SegId, remote: Oid) -> SegResult<ObjRef> {
        let objref = self.create_object(seg, TypeId(0), 20)?;
        let info = self.deref(objref.addr)?;
        self.space.write(info.data, &remote.to_bytes())?;
        // Mark the slot as a forward object.
        let (rt, idx) = self.locate_slot(objref.addr)?;
        let view = SlottedView::new(&self.space, rt.slotted_range.start());
        self.with_unprotected(&rt, || {
            let mut s = view.slot(idx)?;
            s.kind = SlotKind::Forward;
            view.set_slot(idx, s)
        })?;
        self.mark_slotted_dirty(&rt);
        Ok(objref)
    }

    /// Reads the remote OID held by a forward object.
    pub fn read_forward(&self, addr: VAddr) -> SegResult<Oid> {
        let info = self.deref(addr)?;
        if info.kind != SlotKind::Forward {
            return Err(SegError::NotAnObject(addr));
        }
        let mut raw = [0u8; 20];
        self.space.read(info.data, &mut raw)?;
        Ok(Oid::from_bytes(&raw))
    }

    // ---- maintenance ------------------------------------------------------------

    /// Flushes every dirty cached page to its storage area. On failure the
    /// page that could not be written back stays dirty for a retry.
    pub fn flush_all(&self) -> SegResult<()> {
        self.pool.flush_dirty().map_err(SegError::Pool)
    }

    /// Lists every live object in `seg` (the file-scan primitive: "a BeSS
    /// file groups objects so that they could be retrieved later on via a
    /// cursor mechanism", §2).
    pub fn objects_in(self: &Arc<Self>, seg: SegId) -> SegResult<Vec<ObjRef>> {
        let rt = self.ensure_slotted_loaded(seg)?;
        self.ensure_slotted_resident(&rt)?;
        let view = SlottedView::new(&self.space, rt.slotted_range.start());
        let num = view.num_slots()?;
        let mut out = Vec::new();
        for i in 0..num {
            let slot = view.slot(i)?;
            if slot.used {
                out.push(ObjRef {
                    addr: view.slot_addr(i),
                    oid: Oid {
                        host: self.host,
                        db: self.db,
                        seg,
                        slot: i,
                        uniq: slot.uniq,
                    },
                });
            }
        }
        Ok(out)
    }

    /// Live-object count of a segment.
    pub fn live_objects(self: &Arc<Self>, seg: SegId) -> SegResult<u32> {
        let rt = self.ensure_slotted_loaded(seg)?;
        let view = SlottedView::new(&self.space, rt.slotted_range.start());
        Ok(view.live_objects()?)
    }

    // ---- cache-consistency invalidation ---------------------------------------

    /// Invalidates the mapping epoch of the segment owning `page` (if any):
    /// every cached page of the segment is discarded and the segment drops
    /// back to the *reserved* state, so the next touch re-runs waves 2-3
    /// against the authoritative store. Called when a callback revokes a
    /// cached page lock — the refetched bytes will carry another client's
    /// swizzled pointers and reference bases, which only a full re-fixup
    /// can interpret.
    pub fn invalidate_page(&self, page: DbPage) {
        let seg = {
            let inner = self.inner.lock();
            inner.segs.values().find_map(|rt| {
                let slotted = rt.slotted_disk;
                if page.area == rt.id.area
                    && page.page >= slotted.start_page
                    && page.page < slotted.start_page + u64::from(slotted.pages)
                {
                    return Some(rt.id);
                }
                if let SegState::Loaded { data_disk, .. } = &*rt.state.lock() {
                    if page.area == data_disk.area.0
                        && page.page >= data_disk.start_page
                        && page.page < data_disk.start_page + u64::from(data_disk.pages)
                    {
                        return Some(rt.id);
                    }
                }
                None
            })
        };
        if let Some(seg) = seg {
            self.invalidate_segment(seg);
        }
    }

    /// See [`Self::invalidate_page`].
    pub fn invalidate_segment(&self, id: SegId) {
        let Ok(rt) = self.runtime(id) else {
            return;
        };
        let mut state = rt.state.lock();
        let SegState::Loaded {
            data_range,
            data_disk,
            ..
        } = &*state
        else {
            return;
        };
        let data_range = *data_range;
        let data_disk = *data_disk;
        // Drop every cached page of the segment without writing back —
        // the authoritative copy lives at the server/areas.
        for i in 0..u64::from(rt.slotted_disk.pages) {
            self.pool.discard(rt.slotted_db_page(i));
        }
        for i in 0..u64::from(data_disk.pages) {
            self.pool.discard(DbPage {
                area: data_disk.area.0,
                page: data_disk.start_page + i,
            });
        }
        {
            let mut inner = self.inner.lock();
            inner.by_data_base.remove(&data_range.start().raw());
        }
        self.space.unreserve(data_range).ok();
        *state = SegState::Reserved;
    }

    // ---- reorganisation (§2.1) ----------------------------------------------

    /// Moves the data segment to another storage area, preserving every
    /// existing reference: "objects within a BeSS file can be moved to
    /// another storage area ... without affecting existing object
    /// references" (§2).
    pub fn move_data_segment(self: &Arc<Self>, seg: SegId, target_area: u32) -> SegResult<()> {
        let rt = self.ensure_data_loaded(seg)?;
        let view = SlottedView::new(&self.space, rt.slotted_range.start());
        let pages = view.data_ptr()?.pages;
        self.move_data(&rt, &view, target_area, pages, false)
    }

    /// Compacts the data segment, reclaiming the holes left by deleted
    /// objects. References are unaffected (they point at slots).
    pub fn compact_segment(self: &Arc<Self>, seg: SegId) -> SegResult<()> {
        let rt = self.ensure_data_loaded(seg)?;
        let view = SlottedView::new(&self.space, rt.slotted_range.start());
        let area = view.data_ptr()?.area.0;
        self.move_data(&rt, &view, area, 0, true)
    }

    /// Resizes the data segment to `new_pages` pages (which must hold the
    /// currently used bytes).
    pub fn resize_data(self: &Arc<Self>, seg: SegId, new_pages: u32) -> SegResult<()> {
        let rt = self.ensure_data_loaded(seg)?;
        let view = SlottedView::new(&self.space, rt.slotted_range.start());
        let used = u64::from(view.data_used()?);
        if used > u64::from(new_pages) * self.psz() {
            return Err(SegError::DataFull(seg));
        }
        let area = view.data_ptr()?.area.0;
        self.move_data(&rt, &view, area, new_pages, false)
    }
}

impl std::fmt::Debug for SegmentManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SegmentManager")
            .field("segments", &self.inner.lock().segs.len())
            .field("policy", &self.policy)
            .finish()
    }
}
