//! Storage areas: the physical layer of a BeSS database.
//!
//! "At the physical level, the database consists of a number of *storage
//! areas*, which are UNIX files or disk raw partitions. Storage areas are
//! partitioned into a number of *extents*, and allocation of disk segments
//! from one of these extents is based on the binary buddy system. Storage
//! areas that correspond to UNIX files may expand in size by one extent at a
//! time." (§2)
//!
//! ## On-disk layout
//!
//! Every page (header, metadata, and data alike) occupies a *slot* of
//! `PAGE_HDR + page_size` bytes: a 32-byte integrity header (checksum,
//! page LSN, page identity — see [`crate::integrity`]) followed by the
//! page's bytes. Slots are sealed on write and verified on read, so bit
//! rot, lost writes, and misdirected writes surface as typed
//! [`StorageError::CorruptPage`] errors instead of garbage.
//!
//! ```text
//! slot 0                 area header (magic, geometry, extent count)
//! slots 1 + i*(E+1)      metadata page of extent i (allocation table)
//! following E slots      data pages of extent i
//! ```
//!
//! Keeping each extent's allocation table on its own metadata page bounds
//! metadata size per extent and lets the allocator state be rebuilt page by
//! page on open.
//!
//! ## Read verification and repair hooks
//!
//! A verified read that fails re-reads the slot once (transient transfer
//! corruption cures itself; `storage.a<id>.reread_repairs` counts those)
//! before surfacing `CorruptPage`. Higher layers (bess-server) may then
//! attempt WAL reconstruction and write the page back through
//! [`StorageArea::restore_page`] — the only write path that does not
//! verify the existing slot first. Ordinary [`StorageArea::write_at`] is a
//! verified read-modify-write precisely so resealing can never launder a
//! corrupt slot into a "valid" one. Pages that cannot be repaired are
//! quarantined: further reads and writes fail fast without touching the
//! backend.

use std::collections::HashSet;
use std::fs::OpenOptions;
use std::path::Path;
use std::sync::Arc;

use bess_io::{FileDevice, IoDevice, IoOp, IoOutput, IoQueue, IoResult, IoRuntimeConfig, MemDevice};
use bess_lock::order::{OrderedMutex, Rank};
use bess_obs::{Counter, Group, Registry};

use crate::buddy::BuddyExtent;
use crate::error::{CorruptKind, StorageError, StorageResult};
use crate::fault::FaultDisk;
use crate::integrity::{self, PAGE_HDR};
use crate::page::{order_for_pages, AreaId, DiskPtr};
use crate::stats::IoStats;

const AREA_MAGIC: u32 = 0x42455341; // "BESA"
const EXTENT_MAGIC: u32 = 0x42455854; // "BEXT"
/// Version 2: every page occupies a `PAGE_HDR + page_size` slot with a
/// sealed integrity header. Version-1 images (raw pages, no headers) are
/// rejected with a typed error.
const FORMAT_VERSION: u32 = 2;

/// Geometry and policy for a storage area.
#[derive(Clone, Copy, Debug)]
pub struct AreaConfig {
    /// Bytes per page. Must match the `bess-vm` page size when pages are
    /// mapped into an address space.
    pub page_size: usize,
    /// log2 of the number of data pages per extent (e.g. 8 → 256 pages,
    /// 1 MiB extents with 4 KiB pages).
    pub extent_pages_log2: u8,
    /// Extents to create eagerly.
    pub initial_extents: u32,
    /// Whether the area may grow one extent at a time when full. `false`
    /// models a raw disk partition of fixed size.
    pub expandable: bool,
}

impl Default for AreaConfig {
    fn default() -> Self {
        AreaConfig {
            page_size: crate::page::PAGE_SIZE,
            extent_pages_log2: 8,
            initial_extents: 1,
            expandable: true,
        }
    }
}

impl AreaConfig {
    fn extent_pages(&self) -> u32 {
        1 << self.extent_pages_log2
    }

    /// Pages occupied by one extent including its metadata page.
    fn extent_footprint(&self) -> u64 {
        u64::from(self.extent_pages()) + 1
    }
}

/// One sub-page patch of a transactional apply batch — the unit of
/// [`StorageArea::write_at_lsn_batch`].
#[derive(Clone, Copy, Debug)]
pub struct PageUpdate<'a> {
    /// Absolute page number.
    pub page: u64,
    /// Byte offset within the page.
    pub offset: usize,
    /// Replacement bytes.
    pub data: &'a [u8],
    /// Recovery LSN sealed into the page's integrity header.
    pub lsn: u64,
}

/// Little-endian `u32` from the first four bytes of `b`. Shorter input is
/// zero-extended so header parsing never panics on truncated pages — the
/// magic/length checks reject such pages with a typed error instead.
fn le_u32(b: &[u8]) -> u32 {
    let mut raw = [0u8; 4];
    for (dst, src) in raw.iter_mut().zip(b) {
        *dst = *src;
    }
    u32::from_le_bytes(raw)
}

/// Whether the `(offset, bytes)` patches together cover every byte of a
/// `page_size`-byte page.
fn covers_page(patches: &[(usize, &[u8])], page_size: usize) -> bool {
    let mut spans: Vec<(usize, usize)> = patches
        .iter()
        .map(|(offset, data)| (*offset, offset + data.len()))
        .collect();
    spans.sort_unstable();
    let mut covered = 0;
    for (start, end) in spans {
        if start > covered {
            return false;
        }
        covered = covered.max(end);
    }
    covered >= page_size
}

/// The area's seat on the async I/O runtime: an [`IoQueue`] with exactly
/// one registered device. The legacy blocking entry points shim through
/// one-element batches ([`IoQueue::run_one`]), so the device observes the
/// same op sequence as before the redesign — which is what keeps the
/// fault-injection matrices (calibrated to the Nth device op per class)
/// valid. The batched entry points ([`StorageArea::read_pages_batch`],
/// [`StorageArea::write_at_lsn_batch`]) submit real multi-op batches,
/// whose runs of reads the queue overlaps on a slow device.
struct Backend {
    queue: IoQueue,
    file: bess_io::FileId,
}

impl Backend {
    /// Builds the queue and registers `dev`, charging transient read
    /// retries to `retries`.
    fn new(dev: Arc<dyn IoDevice>, group: &Group, retries: Counter) -> Self {
        let queue = IoQueue::new(IoRuntimeConfig, group);
        let file = queue.register(dev, retries);
        Backend { queue, file }
    }

    fn read_op(&self, offset: u64, len: usize) -> IoOp {
        IoOp::Read {
            file: self.file,
            offset,
            len,
            exact: true,
        }
    }

    /// Unwraps a read completion into its buffer.
    fn expect_read(res: IoResult) -> StorageResult<Vec<u8>> {
        match res? {
            IoOutput::Read { data, .. } => Ok(data),
            other => Err(StorageError::Io(std::io::Error::other(format!(
                "io queue returned {other:?} for a read op"
            )))),
        }
    }

    fn read_at(&self, buf: &mut [u8], offset: u64) -> StorageResult<()> {
        let data = Self::expect_read(self.queue.run_one(self.read_op(offset, buf.len())))?;
        buf.copy_from_slice(&data[..buf.len()]);
        Ok(())
    }

    fn write_at(&self, data: &[u8], offset: u64) -> StorageResult<()> {
        self.queue.run_one(IoOp::Write {
            file: self.file,
            offset,
            data: data.to_vec(),
        })?;
        Ok(())
    }

    fn grow_to(&self, bytes: u64) -> StorageResult<()> {
        self.queue.run_one(IoOp::Grow {
            file: self.file,
            len: bytes,
        })?;
        Ok(())
    }

    fn sync(&self) -> StorageResult<()> {
        self.queue.run_one(IoOp::Sync { file: self.file })?;
        Ok(())
    }
}

/// A storage area: a page-addressed, extent-growing persistent byte store
/// with a buddy allocator for disk segments.
///
/// Thread-safe: page I/O takes no allocator locks, allocation serialises on
/// an internal mutex.
pub struct StorageArea {
    id: AreaId,
    config: AreaConfig,
    backend: Backend,
    extents: OrderedMutex<Vec<BuddyExtent>>,
    /// Pages whose verification failed unrepairably. Checked (and released)
    /// under its own short-lived lock, never held across backend I/O.
    quarantined: OrderedMutex<HashSet<u64>>,
    group: Group,
    stats: IoStats,
}

fn area_obs(id: AreaId) -> (Group, IoStats) {
    let group = Registry::new().group(&format!("storage.a{}", id.0));
    let stats = IoStats::new(&group);
    (group, stats)
}

impl StorageArea {
    /// Creates a new in-memory area (used for tests and volatile caches).
    pub fn create_mem(id: AreaId, config: AreaConfig) -> StorageResult<Self> {
        Self::create_on_device(id, config, MemDevice::new())
    }

    /// Creates a new file-backed area at `path`, failing if the file exists.
    pub fn create_file(id: AreaId, path: &Path, config: AreaConfig) -> StorageResult<Self> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create_new(true)
            .open(path)?;
        Self::create_on_device(id, config, FileDevice::new(file))
    }

    /// Creates a new area on a fault-injecting disk (crash testing).
    pub fn create_faulty(
        id: AreaId,
        config: AreaConfig,
        disk: Arc<FaultDisk>,
    ) -> StorageResult<Self> {
        Self::create_on_device(id, config, disk)
    }

    /// Creates a new area on an arbitrary [`IoDevice`] — the seam the
    /// benchmarks use to put an area on a latency-injecting
    /// [`bess_io::SlowDevice`] proxy.
    pub fn create_on_device(
        id: AreaId,
        config: AreaConfig,
        dev: Arc<dyn IoDevice>,
    ) -> StorageResult<Self> {
        assert!(config.page_size >= 64, "page size too small for headers");
        assert!(config.initial_extents >= 1, "area needs at least one extent");
        let (group, stats) = area_obs(id);
        let backend = Backend::new(dev, &group, stats.read_retries.clone());
        let area = StorageArea {
            id,
            config,
            backend,
            extents: OrderedMutex::new(Rank::AreaExtents, "area.extents", Vec::new()),
            quarantined: OrderedMutex::new(Rank::AreaQuarantine, "area.quarantined", HashSet::new()),
            group,
            stats,
        };
        // Room for header + initial extents.
        let total_pages = 1 + config.extent_footprint() * u64::from(config.initial_extents);
        area.backend.grow_to(total_pages * area.slot_bytes())?;
        {
            let mut extents = area.extents.lock();
            for _ in 0..config.initial_extents {
                extents.push(BuddyExtent::new(config.extent_pages_log2));
            }
            area.refresh_alloc_gauges(&extents);
        }
        area.write_header()?;
        for i in 0..config.initial_extents {
            area.write_extent_meta(i)?;
        }
        Ok(area)
    }

    /// Opens an existing file-backed area, rebuilding allocator state from
    /// the persisted per-extent allocation tables.
    pub fn open_file(id: AreaId, path: &Path, expandable: bool) -> StorageResult<Self> {
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        Self::open_device(id, FileDevice::new(file), expandable)
    }

    /// Opens an existing area living on a fault-injecting disk (typically
    /// after [`FaultDisk::reopen`] following a simulated crash).
    pub fn open_faulty(id: AreaId, disk: Arc<FaultDisk>, expandable: bool) -> StorageResult<Self> {
        Self::open_device(id, disk, expandable)
    }

    /// Opens an existing area on an arbitrary [`IoDevice`].
    pub fn open_device(
        id: AreaId,
        dev: Arc<dyn IoDevice>,
        expandable: bool,
    ) -> StorageResult<Self> {
        // Bootstrap: the area header lives *inside* slot 0, after the
        // integrity header, so read enough raw bytes to learn the page
        // size, then verify the whole slot below. The area's stats object
        // doesn't exist yet; header-read retries go to a throwaway counter,
        // exactly as before the queue redesign.
        let bootstrap = IoQueue::unregistered();
        let boot_file = bootstrap.register(Arc::clone(&dev), Counter::unregistered());
        let mut head = [0u8; PAGE_HDR + 24];
        let data = Backend::expect_read(bootstrap.run_one(IoOp::Read {
            file: boot_file,
            offset: 0,
            len: head.len(),
            exact: true,
        }))?;
        let head_len = head.len();
        head.copy_from_slice(&data[..head_len]);
        drop(bootstrap);
        let body = &head[PAGE_HDR..];
        let magic = le_u32(&body[0..4]);
        if magic != AREA_MAGIC {
            return Err(StorageError::Corrupt("bad area magic".into()));
        }
        let version = le_u32(&body[4..8]);
        if version != FORMAT_VERSION {
            return Err(StorageError::Corrupt(format!("unsupported version {version}")));
        }
        let page_size = le_u32(&body[8..12]) as usize;
        if !(64..=1 << 24).contains(&page_size) {
            return Err(StorageError::Corrupt(format!(
                "implausible page size {page_size}"
            )));
        }
        let extent_pages_log2 = body[12];
        let num_extents = le_u32(&body[16..20]);
        let config = AreaConfig {
            page_size,
            extent_pages_log2,
            initial_extents: num_extents.max(1),
            expandable,
        };
        let (group, stats) = area_obs(id);
        let backend = Backend::new(dev, &group, stats.read_retries.clone());
        let area = StorageArea {
            id,
            config,
            backend,
            extents: OrderedMutex::new(Rank::AreaExtents, "area.extents", Vec::new()),
            quarantined: OrderedMutex::new(Rank::AreaQuarantine, "area.quarantined", HashSet::new()),
            group,
            stats,
        };
        // Now that the geometry is known, verify the header slot proper.
        let mut slot = vec![0u8; PAGE_HDR + page_size];
        area.read_slot_verified(0, &mut slot)?;
        let mut extents = Vec::with_capacity(num_extents as usize);
        for i in 0..num_extents {
            extents.push(area.load_extent_meta(i)?);
        }
        area.refresh_alloc_gauges(&extents);
        *area.extents.lock() = extents;
        Ok(area)
    }

    /// The area's identifier.
    pub fn id(&self) -> AreaId {
        self.id
    }

    /// Bytes per page.
    pub fn page_size(&self) -> usize {
        self.config.page_size
    }

    /// Data pages per extent.
    pub fn extent_pages(&self) -> u32 {
        self.config.extent_pages()
    }

    /// Number of extents currently in the area.
    pub fn num_extents(&self) -> u32 {
        u32::try_from(self.extents.lock().len()).unwrap_or(u32::MAX)
    }

    /// Total pages in the area (header + metadata + data), i.e. the
    /// exclusive upper bound on addressable page numbers. The scrubber
    /// walks `0..num_pages()`.
    pub fn num_pages(&self) -> u64 {
        1 + self.config.extent_footprint() * u64::from(self.num_extents())
    }

    /// Whether `page` is a data page (not the area header or an extent
    /// metadata page) inside the current geometry.
    pub fn is_data_page(&self, page: u64) -> bool {
        self.locate(page).is_ok()
    }

    /// Total free data pages across all extents.
    pub fn free_pages(&self) -> u64 {
        self.extents
            .lock()
            .iter()
            .map(|e| u64::from(e.free_pages()))
            .sum()
    }

    /// Total allocated data pages across all extents.
    pub fn allocated_pages(&self) -> u64 {
        self.extents
            .lock()
            .iter()
            .map(|e| u64::from(e.allocated_pages()))
            .sum()
    }

    /// Mean external fragmentation across extents (see
    /// [`BuddyExtent::fragmentation`]).
    pub fn fragmentation(&self) -> f64 {
        let extents = self.extents.lock();
        if extents.is_empty() {
            return 0.0;
        }
        extents.iter().map(|e| e.fragmentation()).sum::<f64>() / extents.len() as f64
    }

    /// The area's metric group (`storage.a<id>.*` in its registry).
    pub fn metrics(&self) -> &Group {
        &self.group
    }

    /// Recomputes the fragmentation and free-page gauges from the extent
    /// list. Called with the extents lock held so the published values
    /// always correspond to a consistent allocator state.
    fn refresh_alloc_gauges(&self, extents: &[BuddyExtent]) {
        // LINT: allow(callgraph) — `e` is a BuddyExtent slice element; the fallback would match StorageArea's locking wrapper of the same name.
        let free: u64 = extents.iter().map(|e| u64::from(e.free_pages())).sum();
        let frag = if extents.is_empty() {
            0.0
        } else {
            // LINT: allow(callgraph) — `e` is a BuddyExtent slice element; the fallback would match StorageArea's locking wrapper of the same name.
            extents.iter().map(|e| e.fragmentation()).sum::<f64>() / extents.len() as f64
        };
        // LINT: allow(cast) — permille of a [0,1] ratio fits in i64.
        self.stats.frag_permille.set((frag * 1000.0).round() as i64);
        // LINT: allow(cast) — page counts are far below i64::MAX.
        self.stats.free_pages.set(free as i64);
    }

    /// Test hook: asserts every extent's buddy free lists and allocation
    /// table tile the extent exactly (see [`BuddyExtent::check_invariants`]).
    #[doc(hidden)]
    pub fn check_allocator_invariants(&self) {
        for e in self.extents.lock().iter() {
            e.check_invariants();
        }
    }

    /// I/O counters.
    pub fn stats(&self) -> &IoStats {
        &self.stats
    }

    // ---- geometry ------------------------------------------------------

    /// Bytes one page occupies on the backend: integrity header + data.
    fn slot_bytes(&self) -> u64 {
        (PAGE_HDR + self.config.page_size) as u64
    }

    fn slot_offset(&self, page: u64) -> u64 {
        page * self.slot_bytes()
    }

    fn first_data_page(&self, extent: u32) -> u64 {
        1 + u64::from(extent) * self.config.extent_footprint() + 1
    }

    fn meta_page(&self, extent: u32) -> u64 {
        1 + u64::from(extent) * self.config.extent_footprint()
    }

    /// Maps an absolute data page to `(extent, offset)`.
    fn locate(&self, page: u64) -> StorageResult<(u32, u32)> {
        if page == 0 {
            return Err(StorageError::BadPage(page));
        }
        let footprint = self.config.extent_footprint();
        let extent = (page - 1) / footprint;
        let within = (page - 1) % footprint;
        if within == 0 {
            return Err(StorageError::BadPage(page)); // metadata page
        }
        if extent >= u64::from(self.num_extents()) {
            return Err(StorageError::BadPage(page));
        }
        // Both fit after the bounds check above, but keep the conversions
        // fallible so a corrupt pointer surfaces as a typed error.
        let extent = u32::try_from(extent).map_err(|_| StorageError::BadPage(page))?;
        let within = u32::try_from(within - 1).map_err(|_| StorageError::BadPage(page))?;
        Ok((extent, within))
    }

    // ---- allocation ------------------------------------------------------

    /// Allocates a disk segment of `pages` contiguous pages.
    ///
    /// Segments never span extents (the paper allocates "from one of these
    /// extents"); requesting more pages than an extent holds fails with
    /// [`StorageError::SegmentTooLarge`]. When every extent is full the
    /// area grows by one extent if expandable, else fails with
    /// [`StorageError::OutOfSpace`].
    pub fn alloc(&self, pages: u32) -> StorageResult<DiskPtr> {
        let order = order_for_pages(pages);
        if order > self.config.extent_pages_log2 {
            return Err(StorageError::SegmentTooLarge {
                requested: pages,
                max: self.config.extent_pages(),
            });
        }
        let mut extents = self.extents.lock();
        for (i, extent) in extents.iter_mut().enumerate() {
            if let Some(offset) = extent.alloc(order) {
                let i = u32::try_from(i).map_err(|_| StorageError::OutOfSpace)?;
                let start_page = self.first_data_page(i) + u64::from(offset);
                self.refresh_alloc_gauges(&extents);
                drop(extents);
                self.write_extent_meta(i)?;
                return Ok(DiskPtr {
                    area: self.id,
                    start_page,
                    pages,
                });
            }
        }
        if !self.config.expandable {
            return Err(StorageError::OutOfSpace);
        }
        // Expand by one extent.
        let new_index = u32::try_from(extents.len()).map_err(|_| StorageError::OutOfSpace)?;
        let mut extent = BuddyExtent::new(self.config.extent_pages_log2);
        // `order` was bounds-checked against the extent size above, so a
        // fresh extent always satisfies it — but surface a typed error
        // rather than aborting if that invariant is ever broken.
        let offset = extent.alloc(order).ok_or(StorageError::OutOfSpace)?;
        extents.push(extent);
        let total_pages = 1 + self.config.extent_footprint() * (u64::from(new_index) + 1);
        self.backend.grow_to(total_pages * self.slot_bytes())?;
        IoStats::bump(&self.stats.extends);
        self.refresh_alloc_gauges(&extents);
        drop(extents);
        self.write_header()?;
        self.write_extent_meta(new_index)?;
        Ok(DiskPtr {
            area: self.id,
            start_page: self.first_data_page(new_index) + u64::from(offset),
            pages,
        })
    }

    /// Frees a disk segment previously returned by [`Self::alloc`].
    pub fn free(&self, ptr: DiskPtr) -> StorageResult<()> {
        if ptr.area != self.id {
            return Err(StorageError::BadBlock(format!(
                "segment {ptr} belongs to a different area"
            )));
        }
        let (extent, offset) = self.locate(ptr.start_page)?;
        {
            let mut extents = self.extents.lock();
            // LINT: allow(callgraph) — indexed receiver is a BuddyExtent; the any-callee fallback would match AreaSet/client `free`.
            extents[extent as usize].free(offset, ptr.order())?;
            self.refresh_alloc_gauges(&extents);
        }
        self.write_extent_meta(extent)
    }

    // ---- quarantine ------------------------------------------------------

    /// Fails with [`CorruptKind::Quarantined`] if `page` is quarantined.
    /// The quarantine guard is released before any backend I/O.
    fn check_quarantine(&self, page: u64) -> StorageResult<()> {
        if self.quarantined.lock().contains(&page) {
            return Err(StorageError::CorruptPage {
                area: self.id.0,
                page,
                reason: CorruptKind::Quarantined,
            });
        }
        Ok(())
    }

    /// Marks `page` unreadable/unwritable until [`Self::unquarantine`].
    /// Used when verification failed and repair was impossible.
    pub fn quarantine(&self, page: u64) {
        self.quarantined.lock().insert(page);
    }

    /// Lifts a quarantine, typically after [`Self::restore_page`] followed
    /// by a successful verified read-back.
    pub fn unquarantine(&self, page: u64) {
        self.quarantined.lock().remove(&page);
    }

    /// Whether `page` is currently quarantined.
    pub fn is_quarantined(&self, page: u64) -> bool {
        self.quarantined.lock().contains(&page)
    }

    /// The currently quarantined pages, in ascending order.
    pub fn quarantined_pages(&self) -> Vec<u64> {
        let mut pages: Vec<u64> = self.quarantined.lock().iter().copied().collect();
        pages.sort_unstable();
        pages
    }

    // ---- page I/O --------------------------------------------------------

    fn read_slot_raw(&self, page: u64, slot: &mut [u8]) -> StorageResult<()> {
        self.backend.read_at(slot, self.slot_offset(page))
    }

    /// Reads `page`'s full slot and verifies it, re-reading once on a
    /// verification failure (a flip in transfer, not on the platter, cures
    /// itself). Returns the page LSN from the header.
    fn read_slot_verified(&self, page: u64, slot: &mut [u8]) -> StorageResult<u64> {
        self.check_quarantine(page)?;
        self.read_slot_raw(page, slot)?;
        self.verify_with_reread(page, slot)
    }

    /// The verification half of a verified read: checks the already-read
    /// `slot`, re-reading it once on failure. Shared between the single-op
    /// path and [`Self::read_pages_batch`], where the first read arrives
    /// via a batched completion instead of a blocking call.
    fn verify_with_reread(&self, page: u64, slot: &mut [u8]) -> StorageResult<u64> {
        match integrity::verify(self.id.0, page, slot) {
            Ok(lsn) => Ok(lsn),
            Err(first) => {
                self.read_slot_raw(page, slot)?;
                match integrity::verify(self.id.0, page, slot) {
                    Ok(lsn) => {
                        IoStats::bump(&self.stats.reread_repairs);
                        Ok(lsn)
                    }
                    Err(_) => {
                        IoStats::bump(&self.stats.verify_failures);
                        Err(first)
                    }
                }
            }
        }
    }

    fn seal_and_write(&self, page: u64, lsn: u64, slot: &mut [u8]) -> StorageResult<()> {
        integrity::reseal(self.id.0, page, lsn, slot);
        self.backend.write_at(slot, self.slot_offset(page))?;
        IoStats::bump(&self.stats.page_writes);
        Ok(())
    }

    /// Reads an absolute page into `buf` (`buf.len() == page_size`),
    /// verifying its integrity header first. A page never written since
    /// its extent grew reads as zeros.
    pub fn read_page(&self, page: u64, buf: &mut [u8]) -> StorageResult<()> {
        assert_eq!(buf.len(), self.config.page_size, "buffer must be one page");
        let mut slot = vec![0u8; PAGE_HDR + self.config.page_size];
        self.read_slot_verified(page, &mut slot)?;
        buf.copy_from_slice(&slot[PAGE_HDR..]);
        IoStats::bump(&self.stats.page_reads);
        Ok(())
    }

    /// Reads many absolute pages in one scatter-gather submission: every
    /// slot read enters the [`IoQueue`] as a single batch — a run of
    /// reads the queue overlaps on a slow device, turning N serial device
    /// waits into one — then each completion is verified independently
    /// with the same single re-read repair as [`Self::read_page`]. Returns
    /// one result per requested page, in request order; each failure is
    /// per-page (a corrupt or quarantined page never poisons its
    /// neighbors).
    pub fn read_pages_batch(&self, pages: &[u64]) -> Vec<StorageResult<Vec<u8>>> {
        let slot_len = PAGE_HDR + self.config.page_size;
        // Quarantined pages fail fast without touching the backend; the
        // rest go out as one submission.
        let gate: Vec<StorageResult<()>> =
            pages.iter().map(|&p| self.check_quarantine(p)).collect();
        let ops: Vec<IoOp> = pages
            .iter()
            .zip(&gate)
            .filter(|(_, g)| g.is_ok())
            .map(|(&p, _)| self.backend.read_op(self.slot_offset(p), slot_len))
            .collect();
        let mut tickets = self.backend.queue.submit_owned(ops).into_iter();
        pages
            .iter()
            .zip(gate)
            .map(|(&page, gate)| {
                gate?;
                let ticket = tickets.next().ok_or_else(|| {
                    StorageError::Io(std::io::Error::other("io queue lost a submitted read"))
                })?;
                let mut slot = Backend::expect_read(self.backend.queue.complete(ticket))?;
                self.verify_with_reread(page, &mut slot)?;
                IoStats::bump(&self.stats.page_reads);
                Ok(slot.split_off(PAGE_HDR))
            })
            .collect()
    }

    /// Writes an absolute page from `data` (`data.len() == page_size`),
    /// sealing it with page LSN 0 (an out-of-log write, e.g. cache
    /// write-back of a page whose recovery LSN the caller doesn't track).
    pub fn write_page(&self, page: u64, data: &[u8]) -> StorageResult<()> {
        self.write_page_lsn(page, data, 0)
    }

    /// Writes an absolute page, sealing `lsn` into the integrity header as
    /// the page's recovery LSN.
    pub fn write_page_lsn(&self, page: u64, data: &[u8], lsn: u64) -> StorageResult<()> {
        assert_eq!(data.len(), self.config.page_size, "buffer must be one page");
        self.check_quarantine(page)?;
        let mut slot = vec![0u8; PAGE_HDR + data.len()];
        slot[PAGE_HDR..].copy_from_slice(data);
        self.seal_and_write(page, lsn, &mut slot)
    }

    /// Reads `buf.len()` bytes starting at byte `offset` of `page`. The
    /// whole slot is read and verified; the requested range is copied out.
    pub fn read_at(&self, page: u64, offset: usize, buf: &mut [u8]) -> StorageResult<()> {
        assert!(offset + buf.len() <= self.config.page_size);
        let mut slot = vec![0u8; PAGE_HDR + self.config.page_size];
        self.read_slot_verified(page, &mut slot)?;
        buf.copy_from_slice(&slot[PAGE_HDR + offset..PAGE_HDR + offset + buf.len()]);
        IoStats::bump(&self.stats.page_reads);
        Ok(())
    }

    /// Writes `data` at byte `offset` of `page`, preserving the page LSN
    /// already sealed in the slot.
    ///
    /// This is a *verified* read-modify-write: the existing slot must pass
    /// verification before it is patched and resealed, so a sub-page write
    /// can never launder a corrupt page into a freshly-checksummed one.
    pub fn write_at(&self, page: u64, offset: usize, data: &[u8]) -> StorageResult<()> {
        assert!(offset + data.len() <= self.config.page_size);
        let mut slot = vec![0u8; PAGE_HDR + self.config.page_size];
        let lsn = self.read_slot_verified(page, &mut slot)?;
        slot[PAGE_HDR + offset..PAGE_HDR + offset + data.len()].copy_from_slice(data);
        self.seal_and_write(page, lsn, &mut slot)
    }

    /// Applies a batch of sub-page patches as scatter-gather I/O: one
    /// verified read per *distinct* page (all reads submitted as a single
    /// batch), every patch for a page applied to its slot in memory, then
    /// one sealed write per page (again a single batch). Patches to the
    /// same page coalesce into one read-modify-write, the last patch's
    /// `lsn` winning — exactly what the serial per-update loop would leave
    /// on disk, in half the device ops.
    ///
    /// Returns one result per distinct page in first-appearance order, so
    /// a caller can repair-and-retry exactly the pages that failed.
    pub fn write_at_lsn_batch(
        &self,
        updates: &[PageUpdate<'_>],
    ) -> Vec<(u64, StorageResult<()>)> {
        for u in updates {
            assert!(u.offset + u.data.len() <= self.config.page_size);
        }
        // Distinct pages, first-appearance order.
        let mut pages: Vec<u64> = Vec::new();
        for u in updates {
            if !pages.contains(&u.page) {
                pages.push(u.page);
            }
        }
        let slot_len = PAGE_HDR + self.config.page_size;
        let gate: Vec<StorageResult<()>> =
            pages.iter().map(|&p| self.check_quarantine(p)).collect();
        let read_ops: Vec<IoOp> = pages
            .iter()
            .zip(&gate)
            .filter(|(_, g)| g.is_ok())
            .map(|(&p, _)| self.backend.read_op(self.slot_offset(p), slot_len))
            .collect();
        let mut read_tickets = self.backend.queue.submit_owned(read_ops).into_iter();

        // Phase 1: complete each read, verify, patch, reseal. Slots that
        // survive queue up as write ops; failures keep their per-page error.
        let mut results: Vec<(u64, StorageResult<()>)> = Vec::with_capacity(pages.len());
        let mut write_ops: Vec<IoOp> = Vec::new();
        let mut write_pages: Vec<usize> = Vec::new(); // index into `results`
        for (&page, gate) in pages.iter().zip(gate) {
            let prepared = gate.and_then(|()| {
                let ticket = read_tickets.next().ok_or_else(|| {
                    StorageError::Io(std::io::Error::other("io queue lost a submitted read"))
                })?;
                let mut slot = Backend::expect_read(self.backend.queue.complete(ticket))?;
                let mut lsn = self.verify_with_reread(page, &mut slot)?;
                for u in updates.iter().filter(|u| u.page == page) {
                    slot[PAGE_HDR + u.offset..PAGE_HDR + u.offset + u.data.len()]
                        .copy_from_slice(u.data);
                    lsn = u.lsn;
                }
                integrity::reseal(self.id.0, page, lsn, &mut slot);
                Ok(slot)
            });
            match prepared {
                Ok(slot) => {
                    write_pages.push(results.len());
                    write_ops.push(IoOp::Write {
                        file: self.backend.file,
                        offset: self.slot_offset(page),
                        data: slot,
                    });
                    results.push((page, Ok(())));
                }
                Err(e) => results.push((page, Err(e))),
            }
        }

        // Phase 2: all surviving writes as one submission.
        let tickets = self.backend.queue.submit_owned(write_ops);
        for (idx, ticket) in write_pages.into_iter().zip(tickets) {
            match self.backend.queue.complete(ticket) {
                Ok(_) => IoStats::bump(&self.stats.page_writes),
                Err(e) => results[idx].1 = Err(e.into()),
            }
        }
        results
    }

    /// Verifies `page` without returning its contents; `Ok(lsn)` on
    /// success. The scrubber's unit of work.
    pub fn verify_page(&self, page: u64) -> StorageResult<u64> {
        let mut slot = vec![0u8; PAGE_HDR + self.config.page_size];
        self.read_slot_verified(page, &mut slot)
    }

    /// Recovery/repair write: seals `data` with `lsn` and writes the slot
    /// **without** verifying what it overwrites. This is the only full-page
    /// path allowed to clobber a corrupt slot (WAL redo resealing a torn
    /// page, read-repair installing a reconstructed image). Does not check
    /// or lift quarantine — callers unquarantine after a verified read-back.
    pub fn restore_page(&self, page: u64, data: &[u8], lsn: u64) -> StorageResult<()> {
        assert_eq!(data.len(), self.config.page_size, "buffer must be one page");
        let mut slot = vec![0u8; PAGE_HDR + data.len()];
        slot[PAGE_HDR..].copy_from_slice(data);
        self.seal_and_write(page, lsn, &mut slot)
    }

    /// Recovery sub-page write: patches `offset..offset+data.len()` of the
    /// raw (unverified) slot and reseals it with `lsn`. WAL undo goes
    /// through here — the slot it is repairing may be torn, so its old
    /// checksum legitimately doesn't match; the images restore the bytes
    /// and the reseal restores the header.
    pub fn restore_at(&self, page: u64, offset: usize, data: &[u8], lsn: u64) -> StorageResult<()> {
        self.restore_patches(page, &[(offset, data)], lsn)
    }

    /// Recovery write of a whole redo history for one page: one raw
    /// (unverified) read, every `(offset, bytes)` patch applied in order,
    /// one reseal with `lsn` and one write — what [`Self::restore_at`] per
    /// patch would leave, for one read-modify-write instead of one per
    /// patch. When the patches cover every byte of the page nothing of the
    /// old slot survives, so the read is skipped too (as
    /// [`Self::restore_page`] does).
    pub fn restore_patches(
        &self,
        page: u64,
        patches: &[(usize, &[u8])],
        lsn: u64,
    ) -> StorageResult<()> {
        let page_size = self.config.page_size;
        for (offset, data) in patches {
            assert!(offset + data.len() <= page_size);
        }
        let mut slot = vec![0u8; PAGE_HDR + page_size];
        if !covers_page(patches, page_size) {
            self.read_slot_raw(page, &mut slot)?;
        }
        for (offset, data) in patches {
            slot[PAGE_HDR + offset..PAGE_HDR + offset + data.len()].copy_from_slice(data);
        }
        self.seal_and_write(page, lsn, &mut slot)
    }

    /// Forces all written pages to stable storage.
    pub fn sync(&self) -> StorageResult<()> {
        self.backend.sync()?;
        IoStats::bump(&self.stats.syncs);
        Ok(())
    }

    // ---- metadata persistence ---------------------------------------------

    fn write_header(&self) -> StorageResult<()> {
        let mut page = vec![0u8; self.config.page_size];
        page[0..4].copy_from_slice(&AREA_MAGIC.to_le_bytes());
        page[4..8].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
        // LINT: allow(cast) — page sizes are small powers of two, far below u32::MAX.
        page[8..12].copy_from_slice(&(self.config.page_size as u32).to_le_bytes());
        page[12] = self.config.extent_pages_log2;
        page[16..20].copy_from_slice(&self.num_extents().to_le_bytes());
        page[20..24].copy_from_slice(&self.id.0.to_le_bytes());
        let mut slot = vec![0u8; PAGE_HDR + self.config.page_size];
        slot[PAGE_HDR..].copy_from_slice(&page);
        integrity::reseal(self.id.0, 0, 0, &mut slot);
        self.backend.write_at(&slot, 0)
    }

    fn write_extent_meta(&self, extent: u32) -> StorageResult<()> {
        let blocks: Vec<(u32, u8)> = {
            let extents = self.extents.lock();
            extents[extent as usize].allocated_blocks().collect()
        };
        let mut page = vec![0u8; self.config.page_size];
        let count = u32::try_from(blocks.len())
            .map_err(|_| StorageError::Corrupt("allocation table too large".into()))?;
        page[0..4].copy_from_slice(&EXTENT_MAGIC.to_le_bytes());
        page[4..8].copy_from_slice(&count.to_le_bytes());
        let mut pos = 8;
        for (offset, order) in blocks {
            if pos + 5 > page.len() {
                return Err(StorageError::Corrupt(
                    "extent allocation table overflows metadata page".into(),
                ));
            }
            page[pos..pos + 4].copy_from_slice(&offset.to_le_bytes());
            page[pos + 4] = order;
            pos += 5;
        }
        let meta = self.meta_page(extent);
        let mut slot = vec![0u8; PAGE_HDR + self.config.page_size];
        slot[PAGE_HDR..].copy_from_slice(&page);
        integrity::reseal(self.id.0, meta, 0, &mut slot);
        self.backend.write_at(&slot, self.slot_offset(meta))
    }

    fn load_extent_meta(&self, extent: u32) -> StorageResult<BuddyExtent> {
        let mut slot = vec![0u8; PAGE_HDR + self.config.page_size];
        self.read_slot_verified(self.meta_page(extent), &mut slot)?;
        let page = &slot[PAGE_HDR..];
        let magic = le_u32(&page[0..4]);
        if magic != EXTENT_MAGIC {
            return Err(StorageError::Corrupt(format!(
                "bad extent magic on extent {extent}"
            )));
        }
        let count = le_u32(&page[4..8]) as usize;
        let mut rebuilt = BuddyExtent::new(self.config.extent_pages_log2);
        let mut pos = 8;
        for _ in 0..count {
            if pos + 5 > page.len() {
                return Err(StorageError::Corrupt("truncated allocation table".into()));
            }
            let offset = le_u32(&page[pos..pos + 4]);
            let order = page[pos + 4];
            rebuilt.carve(offset, order).map_err(|e| {
                StorageError::Corrupt(format!("allocation table inconsistent: {e}"))
            })?;
            pos += 5;
        }
        Ok(rebuilt)
    }
}

impl std::fmt::Debug for StorageArea {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StorageArea")
            .field("id", &self.id)
            .field("extents", &self.num_extents())
            .field("free_pages", &self.free_pages())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultKind, FaultPlan, OpClass};
    use std::sync::atomic::{AtomicU32, Ordering};

    fn temp_path(name: &str) -> std::path::PathBuf {
        static COUNTER: AtomicU32 = AtomicU32::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "bess-storage-test-{}-{}-{}",
            std::process::id(),
            name,
            n
        ))
    }

    #[test]
    fn mem_area_alloc_write_read() {
        let area = StorageArea::create_mem(AreaId(1), AreaConfig::default()).unwrap();
        let seg = area.alloc(3).unwrap();
        assert_eq!(seg.pages, 3);
        let mut page = vec![0u8; area.page_size()];
        page[..5].copy_from_slice(b"hello");
        area.write_page(seg.start_page, &page).unwrap();
        let mut back = vec![0u8; area.page_size()];
        area.read_page(seg.start_page, &mut back).unwrap();
        assert_eq!(&back[..5], b"hello");
        area.free(seg).unwrap();
    }

    #[test]
    fn segments_do_not_overlap() {
        let area = StorageArea::create_mem(AreaId(1), AreaConfig::default()).unwrap();
        let mut segs = Vec::new();
        for pages in [1u32, 2, 3, 5, 8, 16, 4, 1] {
            segs.push(area.alloc(pages).unwrap());
        }
        for (i, a) in segs.iter().enumerate() {
            for b in &segs[i + 1..] {
                let a_end = a.start_page + u64::from(1u32 << a.order());
                let b_end = b.start_page + u64::from(1u32 << b.order());
                assert!(
                    a_end <= b.start_page || b_end <= a.start_page,
                    "{a} overlaps {b}"
                );
            }
        }
    }

    #[test]
    fn area_expands_by_one_extent() {
        let config = AreaConfig {
            extent_pages_log2: 2, // 4 pages per extent
            ..AreaConfig::default()
        };
        let area = StorageArea::create_mem(AreaId(1), config).unwrap();
        assert_eq!(area.num_extents(), 1);
        let _a = area.alloc(4).unwrap();
        let _b = area.alloc(4).unwrap(); // forces expansion
        assert_eq!(area.num_extents(), 2);
        assert_eq!(area.stats().extends.get(), 1);
    }

    #[test]
    fn fixed_size_area_reports_out_of_space() {
        let config = AreaConfig {
            extent_pages_log2: 2,
            expandable: false,
            ..AreaConfig::default()
        };
        let area = StorageArea::create_mem(AreaId(1), config).unwrap();
        let _a = area.alloc(4).unwrap();
        assert!(matches!(area.alloc(1), Err(StorageError::OutOfSpace)));
    }

    #[test]
    fn oversized_segment_rejected() {
        let config = AreaConfig {
            extent_pages_log2: 3,
            ..AreaConfig::default()
        };
        let area = StorageArea::create_mem(AreaId(1), config).unwrap();
        assert!(matches!(
            area.alloc(9),
            Err(StorageError::SegmentTooLarge { .. })
        ));
    }

    #[test]
    fn metadata_pages_are_not_allocatable_or_addressable() {
        let config = AreaConfig {
            extent_pages_log2: 2,
            ..AreaConfig::default()
        };
        let area = StorageArea::create_mem(AreaId(1), config).unwrap();
        let seg = area.alloc(4).unwrap();
        // First data page of extent 0 is page 2 (0 header, 1 metadata).
        assert_eq!(seg.start_page, 2);
        // Freeing a pointer aimed at a metadata page fails.
        let bogus = DiskPtr {
            area: AreaId(1),
            start_page: 1,
            pages: 1,
        };
        assert!(area.free(bogus).is_err());
    }

    #[test]
    fn file_area_persists_across_reopen() {
        let path = temp_path("persist");
        let seg;
        {
            let area = StorageArea::create_file(AreaId(7), &path, AreaConfig::default()).unwrap();
            seg = area.alloc(2).unwrap();
            let mut page = vec![0u8; area.page_size()];
            page[..4].copy_from_slice(b"BeSS");
            area.write_page(seg.start_page, &page).unwrap();
            area.sync().unwrap();
        }
        {
            let area = StorageArea::open_file(AreaId(7), &path, true).unwrap();
            let mut back = vec![0u8; area.page_size()];
            area.read_page(seg.start_page, &mut back).unwrap();
            assert_eq!(&back[..4], b"BeSS");
            // Allocator state survived: the old segment's block is still
            // allocated, so a fresh allocation must not overlap it.
            let fresh = area.alloc(2).unwrap();
            assert_ne!(fresh.start_page, seg.start_page);
            // And the old segment can be freed exactly once.
            area.free(seg).unwrap();
            assert!(area.free(seg).is_err());
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn reopen_after_expansion_preserves_geometry() {
        let path = temp_path("expand");
        let config = AreaConfig {
            extent_pages_log2: 2,
            ..AreaConfig::default()
        };
        let (a, b);
        {
            let area = StorageArea::create_file(AreaId(9), &path, config).unwrap();
            a = area.alloc(4).unwrap();
            b = area.alloc(4).unwrap();
            assert_eq!(area.num_extents(), 2);
        }
        {
            let area = StorageArea::open_file(AreaId(9), &path, true).unwrap();
            assert_eq!(area.num_extents(), 2);
            assert_eq!(area.free_pages(), 0);
            area.free(a).unwrap();
            area.free(b).unwrap();
            assert_eq!(area.free_pages(), 8);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn open_rejects_garbage() {
        let path = temp_path("garbage");
        std::fs::write(&path, vec![0xAB; 8192]).unwrap();
        assert!(matches!(
            StorageArea::open_file(AreaId(1), &path, true),
            Err(StorageError::Corrupt(_))
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn io_stats_count() {
        let area = StorageArea::create_mem(AreaId(1), AreaConfig::default()).unwrap();
        let seg = area.alloc(1).unwrap();
        let s = area.stats();
        let (r0, w0, s0) = (s.page_reads.get(), s.page_writes.get(), s.syncs.get());
        let mut page = vec![0u8; area.page_size()];
        area.read_page(seg.start_page, &mut page).unwrap();
        area.write_page(seg.start_page, &page).unwrap();
        area.sync().unwrap();
        assert_eq!(s.page_reads.get() - r0, 1);
        assert_eq!(s.page_writes.get() - w0, 1);
        assert_eq!(s.syncs.get() - s0, 1);
    }

    #[test]
    fn transient_read_eio_is_absorbed_by_retry() {
        let disk = FaultDisk::new(FaultPlan::unarmed());
        let area =
            StorageArea::create_faulty(AreaId(3), AreaConfig::default(), Arc::clone(&disk))
                .unwrap();
        let seg = area.alloc(1).unwrap();
        let mut page = vec![0u8; area.page_size()];
        page[..5].copy_from_slice(b"hello");
        area.write_page(seg.start_page, &page).unwrap();

        // Arm an EIO on the very next read: the first attempt eats the
        // fault, the bounded retry's second attempt succeeds, and the
        // caller never sees an error.
        let plan = FaultPlan::armed(OpClass::Read, 0, FaultKind::Eio);
        disk.arm(Arc::clone(&plan));
        let mut back = vec![0u8; area.page_size()];
        area.read_page(seg.start_page, &mut back).unwrap();
        assert_eq!(&back[..5], b"hello");
        assert_eq!(plan.fired(), 1, "the injected fault fired");
        assert_eq!(area.stats().read_retries.get(), 1);
    }

    #[test]
    fn persistent_read_eio_propagates_after_retry_budget() {
        // The retry loop itself lives in bess-io now; this pins the
        // budget the storage read path inherits from it.
        use bess_io::{read_exact_retrying, MAX_READ_RETRIES};
        let mut buf = vec![0u8; 64];
        let retries = Counter::unregistered();
        let err = read_exact_retrying(
            |_b: &mut [u8], _off| Err(std::io::Error::other("injected: read EIO")),
            &mut buf,
            0,
            &retries,
        );
        assert!(err.is_err(), "persistent EIO propagates after retries");
        assert_eq!(retries.get(), u64::from(MAX_READ_RETRIES));
    }

    // ---- integrity ------------------------------------------------------

    /// Absolute backend offset of byte `off` inside `page`'s data.
    fn data_byte(area: &StorageArea, page: u64, off: u64) -> u64 {
        page * area.slot_bytes() + PAGE_HDR as u64 + off
    }

    #[test]
    fn unwritten_page_reads_as_zeros() {
        let area = StorageArea::create_mem(AreaId(1), AreaConfig::default()).unwrap();
        let seg = area.alloc(1).unwrap();
        let mut buf = vec![0xFFu8; area.page_size()];
        area.read_page(seg.start_page, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0));
    }

    #[test]
    fn durable_bit_rot_is_detected_on_read() {
        let disk = FaultDisk::new(FaultPlan::unarmed());
        let area =
            StorageArea::create_faulty(AreaId(3), AreaConfig::default(), Arc::clone(&disk))
                .unwrap();
        let seg = area.alloc(1).unwrap();
        let page = vec![0x5Au8; area.page_size()];
        // Rot one data byte of the page as its write-back lands.
        disk.arm(FaultPlan::armed(
            OpClass::Write,
            0,
            FaultKind::BitRot {
                offset: data_byte(&area, seg.start_page, 9),
                mask: 0x10,
            },
        ));
        area.write_page(seg.start_page, &page).unwrap();
        let mut back = vec![0u8; area.page_size()];
        match area.read_page(seg.start_page, &mut back) {
            Err(StorageError::CorruptPage {
                area: 3,
                reason: CorruptKind::Checksum,
                ..
            }) => {}
            other => panic!("expected CorruptPage, got {other:?}"),
        }
        assert_eq!(area.stats().verify_failures.get(), 1);
    }

    #[test]
    fn transient_bit_rot_is_cured_by_reread() {
        let disk = FaultDisk::new(FaultPlan::unarmed());
        let area =
            StorageArea::create_faulty(AreaId(3), AreaConfig::default(), Arc::clone(&disk))
                .unwrap();
        let seg = area.alloc(1).unwrap();
        let page = vec![0x5Au8; area.page_size()];
        area.write_page(seg.start_page, &page).unwrap();
        // Rot a byte in transfer on the next read only.
        disk.arm(FaultPlan::armed(
            OpClass::Read,
            0,
            FaultKind::BitRot {
                offset: data_byte(&area, seg.start_page, 0),
                mask: 0x01,
            },
        ));
        let mut back = vec![0u8; area.page_size()];
        area.read_page(seg.start_page, &mut back).unwrap();
        assert_eq!(back, page, "the re-read served clean data");
        let snap = area.stats();
        assert_eq!(snap.reread_repairs.get(), 1);
        assert_eq!(snap.verify_failures.get(), 0);
    }

    #[test]
    fn misdirected_write_clobbers_victim_detectably() {
        let disk = FaultDisk::new(FaultPlan::unarmed());
        let area =
            StorageArea::create_faulty(AreaId(3), AreaConfig::default(), Arc::clone(&disk))
                .unwrap();
        let a = area.alloc(1).unwrap();
        let b = area.alloc(1).unwrap();
        let page = vec![0x11u8; area.page_size()];
        area.write_page(b.start_page, &page).unwrap();
        // Page a's write is misdirected onto page b's slot.
        disk.arm(FaultPlan::armed(
            OpClass::Write,
            0,
            FaultKind::Misdirected {
                to: b.start_page * area.slot_bytes(),
            },
        ));
        let page_a = vec![0x22u8; area.page_size()];
        area.write_page(a.start_page, &page_a).unwrap(); // acked, misdirected
        // The victim's slot now carries page a's identity: WrongPage.
        let mut buf = vec![0u8; area.page_size()];
        match area.read_page(b.start_page, &mut buf) {
            Err(StorageError::CorruptPage {
                reason: CorruptKind::WrongPage { found_page, .. },
                ..
            }) => assert_eq!(found_page, a.start_page),
            other => panic!("expected WrongPage, got {other:?}"),
        }
    }

    #[test]
    fn write_at_refuses_to_launder_a_corrupt_slot() {
        let disk = FaultDisk::new(FaultPlan::unarmed());
        let area =
            StorageArea::create_faulty(AreaId(3), AreaConfig::default(), Arc::clone(&disk))
                .unwrap();
        let seg = area.alloc(1).unwrap();
        let page = vec![0x5Au8; area.page_size()];
        disk.arm(FaultPlan::armed(
            OpClass::Write,
            0,
            FaultKind::BitRot {
                offset: data_byte(&area, seg.start_page, 3),
                mask: 0x80,
            },
        ));
        area.write_page(seg.start_page, &page).unwrap();
        // The RMW verifies before resealing, so the rot is not laundered.
        assert!(matches!(
            area.write_at(seg.start_page, 0, b"zz"),
            Err(StorageError::CorruptPage { .. })
        ));
        // restore_page is the designated repair path.
        area.restore_page(seg.start_page, &page, 7).unwrap();
        assert_eq!(area.verify_page(seg.start_page).unwrap(), 7);
        let mut back = vec![0u8; area.page_size()];
        area.read_page(seg.start_page, &mut back).unwrap();
        assert_eq!(back, page);
    }

    #[test]
    fn write_at_preserves_lsn_and_write_at_lsn_batch_stamps_it() {
        let area = StorageArea::create_mem(AreaId(1), AreaConfig::default()).unwrap();
        let seg = area.alloc(1).unwrap();
        let page = vec![0u8; area.page_size()];
        area.write_page_lsn(seg.start_page, &page, 41).unwrap();
        area.write_at(seg.start_page, 4, b"keep").unwrap();
        assert_eq!(area.verify_page(seg.start_page).unwrap(), 41);
        let bump = PageUpdate {
            page: seg.start_page,
            offset: 4,
            data: b"bump",
            lsn: 42,
        };
        for (_, res) in area.write_at_lsn_batch(&[bump]) {
            res.unwrap();
        }
        assert_eq!(area.verify_page(seg.start_page).unwrap(), 42);
        let mut back = vec![0u8; area.page_size()];
        area.read_page(seg.start_page, &mut back).unwrap();
        assert_eq!(&back[4..8], b"bump");
    }

    #[test]
    fn quarantined_page_refuses_io_without_touching_backend() {
        let area = StorageArea::create_mem(AreaId(1), AreaConfig::default()).unwrap();
        let seg = area.alloc(1).unwrap();
        let page = vec![1u8; area.page_size()];
        area.write_page(seg.start_page, &page).unwrap();
        area.quarantine(seg.start_page);
        assert!(area.is_quarantined(seg.start_page));
        assert_eq!(area.quarantined_pages(), vec![seg.start_page]);
        let s = area.stats();
        let (r0, w0) = (s.page_reads.get(), s.page_writes.get());
        let mut buf = vec![0u8; area.page_size()];
        assert!(matches!(
            area.read_page(seg.start_page, &mut buf),
            Err(StorageError::CorruptPage {
                reason: CorruptKind::Quarantined,
                ..
            })
        ));
        assert!(matches!(
            area.write_page(seg.start_page, &page),
            Err(StorageError::CorruptPage {
                reason: CorruptKind::Quarantined,
                ..
            })
        ));
        assert_eq!(s.page_reads.get() - r0 + s.page_writes.get() - w0, 0);
        // Repair ladder: restore, verify, release.
        area.restore_page(seg.start_page, &page, 0).unwrap();
        area.unquarantine(seg.start_page);
        area.read_page(seg.start_page, &mut buf).unwrap();
        assert_eq!(buf, page);
    }

    #[test]
    fn restore_at_reseals_a_torn_slot() {
        let disk = FaultDisk::new(FaultPlan::unarmed());
        let area =
            StorageArea::create_faulty(AreaId(3), AreaConfig::default(), Arc::clone(&disk))
                .unwrap();
        let seg = area.alloc(1).unwrap();
        let old = vec![0xAAu8; area.page_size()];
        area.write_page(seg.start_page, &old).unwrap();
        area.sync().unwrap();
        // Tear the next full-slot write halfway through.
        disk.arm(FaultPlan::armed(
            OpClass::Write,
            0,
            FaultKind::Torn {
                keep: area.page_size() / 2,
            },
        ));
        let new = vec![0xBBu8; area.page_size()];
        assert!(area.write_page(seg.start_page, &new).is_err());
        disk.reopen(FaultPlan::unarmed());
        let area = StorageArea::open_faulty(AreaId(3), Arc::clone(&disk), true).unwrap();
        // The torn slot fails verification...
        assert!(matches!(
            area.verify_page(seg.start_page),
            Err(StorageError::CorruptPage { .. })
        ));
        // ...and a redo-style restore_at reseals it.
        area.restore_at(seg.start_page, 0, &new, 5).unwrap();
        assert_eq!(area.verify_page(seg.start_page).unwrap(), 5);
    }

    #[test]
    fn restore_patches_is_one_read_and_one_write_however_many_patches() {
        let disk = FaultDisk::new(FaultPlan::unarmed());
        let area =
            StorageArea::create_faulty(AreaId(3), AreaConfig::default(), Arc::clone(&disk))
                .unwrap();
        let seg = area.alloc(1).unwrap();
        let old = vec![0xAAu8; area.page_size()];
        area.write_page(seg.start_page, &old).unwrap();
        let ops = |plan: &FaultPlan| (plan.ops(OpClass::Read), plan.ops(OpClass::Write));

        // Forty patches on one page.
        let plan = FaultPlan::unarmed();
        disk.arm(Arc::clone(&plan));
        let images: Vec<[u8; 8]> = (0..40u8).map(|i| [i; 8]).collect();
        let patches: Vec<(usize, &[u8])> = images
            .iter()
            .enumerate()
            .map(|(i, image)| ((i % 25) * 16, &image[..]))
            .collect();
        area.restore_patches(seg.start_page, &patches, 9).unwrap();
        assert_eq!(ops(&plan), (1, 1));
        assert_eq!(area.verify_page(seg.start_page).unwrap(), 9);
        let mut back = vec![0u8; area.page_size()];
        area.read_page(seg.start_page, &mut back).unwrap();
        assert_eq!(&back[0..8], &[25; 8], "the later patch at an offset wins");
        assert_eq!(&back[8..16], &[0xAA; 8], "bytes no patch names survive");

        // Patches that cover the page between them: nothing to read.
        let plan = FaultPlan::unarmed();
        disk.arm(Arc::clone(&plan));
        let half = area.page_size() / 2;
        let (lo, hi) = (vec![1u8; half + 3], vec![2u8; half]);
        area.restore_patches(seg.start_page, &[(half, &hi), (0, &lo)], 10)
            .unwrap();
        assert_eq!(ops(&plan), (0, 1));
        area.read_page(seg.start_page, &mut back).unwrap();
        assert!(back[..half + 3].iter().all(|&b| b == 1) && back[half + 3..].iter().all(|&b| b == 2));

        // One byte short of covering it: the read stays.
        let plan = FaultPlan::unarmed();
        disk.arm(Arc::clone(&plan));
        area.restore_patches(seg.start_page, &[(1, &lo[..half - 1]), (half, &hi)], 11)
            .unwrap();
        assert_eq!(ops(&plan), (1, 1));
        area.read_page(seg.start_page, &mut back).unwrap();
        assert_eq!(back[0], 1, "the uncovered byte is the old one");
        assert_eq!(area.verify_page(seg.start_page).unwrap(), 11);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    const PAGE: usize = 256;

    fn small_area() -> (StorageArea, u64) {
        let config = AreaConfig {
            page_size: PAGE,
            extent_pages_log2: 2,
            ..AreaConfig::default()
        };
        let area = StorageArea::create_mem(AreaId(0), config).unwrap();
        let page = area.alloc(1).unwrap().start_page;
        (area, page)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        /// One `restore_patches` leaves the bytes and the page LSN that
        /// `restore_at` patch by patch leaves, whether or not the patches
        /// cover the page (and so skip the read).
        #[test]
        fn restore_patches_equals_restore_at_in_order(
            old in any::<u8>(),
            patches in prop::collection::vec((0usize..PAGE, 1usize..PAGE + 1, any::<u8>()), 1..12),
        ) {
            let patches: Vec<(usize, Vec<u8>)> = patches
                .into_iter()
                .map(|(offset, len, byte)| (offset, vec![byte; len.min(PAGE - offset)]))
                .collect();
            let (serial, p) = small_area();
            let (batched, q) = small_area();
            prop_assert_eq!(p, q);
            serial.write_page(p, &[old; PAGE]).unwrap();
            batched.write_page(p, &[old; PAGE]).unwrap();

            for (i, (offset, bytes)) in patches.iter().enumerate() {
                serial.restore_at(p, *offset, bytes, 100 + i as u64).unwrap();
            }
            let parts: Vec<(usize, &[u8])> =
                patches.iter().map(|(o, b)| (*o, b.as_slice())).collect();
            batched
                .restore_patches(p, &parts, 99 + patches.len() as u64)
                .unwrap();

            let (mut a, mut b) = (vec![0u8; PAGE], vec![0u8; PAGE]);
            serial.read_page(p, &mut a).unwrap();
            batched.read_page(p, &mut b).unwrap();
            prop_assert_eq!(a, b);
            prop_assert_eq!(serial.verify_page(p).unwrap(), batched.verify_page(p).unwrap());
        }
    }
}
