//! Sessions: the application-facing BeSS interface.
//!
//! A [`Session`] is one application's attachment to a database. It wires
//! together the per-process machinery of the paper — address space, private
//! buffer pool (§4.1.1), segment manager with the three-wave reference
//! mechanism (§2.1) — and drives transactions with **automatic update
//! detection** (§2.3): the first write to a page traps, acquires the X
//! lock, and snapshots the before-image; commit diffs the touched pages
//! into byte-range updates that are logged (embedded) or shipped to the
//! owning servers (remote).
//!
//! Two attachments exist, mirroring the paper's §4 process structures:
//!
//! * [`Session::embedded`] — the application is linked with the server
//!   ("sophisticated users can link with the BeSS server a trusted piece
//!   of code", §1): storage areas and the WAL are local;
//! * [`Session::remote`] — copy-on-access over the (simulated) network via
//!   a [`ClientConn`], with callback-consistent inter-transaction caching.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};

use bess_cache::{AreaSet, DbPage, PageIo, PrivatePool};
use bess_largeobj::{LargeObject, LoConfig, LoError};
use bess_lock::{LockManager, LockMode, LockName, TxnId};
use bess_segment::{
    ObjRef, ProtectionPolicy, SegError, SegId, SegmentManager, TypeId, WriteObserver, TYPE_BYTES,
};
use bess_server::{
    ClientConn, ClientError, CommitError, CommitPipeline, PageUpdate, RemoteIo, RemoteSpace,
};
use bess_storage::DiskSpace;
use bess_vm::{AddressSpace, VAddr, VmError};
use bess_wal::{LogManager, WalError};
use parking_lot::Mutex;

use crate::database::{Database, DbError};
use crate::hooks::{Event, EventKind, HookRegistry};
use crate::persist::{GlobalRef, Persist, RawBytes, Ref};

/// Errors from session operations.
#[derive(Debug)]
pub enum BessError {
    /// Segment/object layer failure.
    Seg(SegError),
    /// Database metadata failure.
    Db(DbError),
    /// Client/server failure.
    Client(ClientError),
    /// Virtual-memory failure (including caught stray pointers).
    Vm(VmError),
    /// Large-object failure.
    Lo(LoError),
    /// Log failure.
    Wal(WalError),
    /// No transaction is active.
    NoTxn,
    /// A transaction is already active.
    TxnActive,
    /// A lock was denied (deadlock timeout).
    Deadlock(String),
    /// Anything else.
    Other(String),
}

impl std::fmt::Display for BessError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BessError::Seg(e) => write!(f, "{e}"),
            BessError::Db(e) => write!(f, "{e}"),
            BessError::Client(e) => write!(f, "{e}"),
            BessError::Vm(e) => write!(f, "{e}"),
            BessError::Lo(e) => write!(f, "{e}"),
            BessError::Wal(e) => write!(f, "{e}"),
            BessError::NoTxn => write!(f, "no active transaction"),
            BessError::TxnActive => write!(f, "a transaction is already active"),
            BessError::Deadlock(m) => write!(f, "deadlock: {m}"),
            BessError::Other(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for BessError {}

impl From<SegError> for BessError {
    fn from(e: SegError) -> Self {
        BessError::Seg(e)
    }
}
impl From<DbError> for BessError {
    fn from(e: DbError) -> Self {
        BessError::Db(e)
    }
}
impl From<ClientError> for BessError {
    fn from(e: ClientError) -> Self {
        BessError::Client(e)
    }
}
impl From<VmError> for BessError {
    fn from(e: VmError) -> Self {
        BessError::Vm(e)
    }
}
impl From<LoError> for BessError {
    fn from(e: LoError) -> Self {
        BessError::Lo(e)
    }
}
impl From<WalError> for BessError {
    fn from(e: WalError) -> Self {
        BessError::Wal(e)
    }
}
impl From<CommitError> for BessError {
    fn from(e: CommitError) -> Self {
        match e {
            CommitError::LogForce(e) => BessError::Wal(e),
            other => BessError::Other(other.to_string()),
        }
    }
}

/// Result alias for session operations.
pub type BessResult<T> = Result<T, BessError>;

/// Session tuning.
#[derive(Clone, Copy, Debug)]
pub struct SessionConfig {
    /// Frames in the private buffer pool (§4.1.1).
    pub pool_frames: usize,
    /// Whether control structures are VM-protected (§2.2).
    pub policy: ProtectionPolicy,
    /// Software-based **object-level locking** (the §2.3 future-work item):
    /// reads take `S` on the *object* and `IS` on its page; writes take `X`
    /// on the object and `IX` on the page, so transactions updating
    /// different objects of the same page run concurrently (their commits
    /// merge as disjoint byte-range diffs). Object creation, deletion, and
    /// reference-table updates serialise on a segment lock. Off by default
    /// (page-level hardware locking, as shipped in the paper).
    pub object_locking: bool,
    /// Group-commit tuning applied to an embedded session's WAL: how
    /// concurrent commit forces batch into one device sync. Ignored for
    /// remote sessions (the server's config governs its log).
    pub group_commit: bess_wal::GroupCommitConfig,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            pool_frames: 1024,
            policy: ProtectionPolicy::Protected,
            object_locking: false,
            group_commit: bess_wal::GroupCommitConfig::default(),
        }
    }
}

/// An overlay page store for embedded sessions: dirty pool evictions land
/// here (never on disk mid-transaction — uncommitted bytes must not reach
/// the storage areas before the log does), and loads prefer it.
struct OverlayIo {
    base: Arc<dyn PageIo>,
    overlay: Mutex<HashMap<DbPage, Vec<u8>>>,
}

impl PageIo for OverlayIo {
    fn load(&self, page: DbPage, buf: &mut [u8]) -> Result<(), String> {
        if let Some(data) = self.overlay.lock().get(&page) {
            buf.copy_from_slice(&data[..buf.len()]);
            return Ok(());
        }
        self.base.load(page, buf)
    }

    fn write_back(&self, page: DbPage, data: &[u8]) -> Result<(), String> {
        self.overlay.lock().insert(page, data.to_vec());
        Ok(())
    }
}

enum Backing {
    Embedded {
        areas: Arc<AreaSet>,
        /// Logs, forces and applies this session's commits.
        pipeline: CommitPipeline,
        locks: Option<Arc<LockManager>>,
        overlay: Arc<OverlayIo>,
    },
    Remote {
        conn: Arc<ClientConn>,
    },
}

struct TxnState {
    id: u64,
    /// Before-images of every page written this transaction (§2.3's
    /// automatically-maintained write set).
    snapshots: HashMap<DbPage, Vec<u8>>,
}

/// An application session over a BeSS database.
pub struct Session {
    db: Arc<Database>,
    backing: Backing,
    disk: Arc<dyn DiskSpace>,
    mgr: Arc<SegmentManager>,
    pool: Arc<PrivatePool>,
    hooks: Arc<HookRegistry>,
    txn: Mutex<Option<TxnState>>,
    // LINT: allow(raw-counter) — local transaction-id allocator, not a metric
    next_local_txn: AtomicU64,
    type_ids: Mutex<HashMap<&'static str, TypeId>>,
    object_locking: bool,
    /// The session-wide metric registry: every subsystem this session
    /// composes (segment manager, VM, pools, and the embedded WAL/locks or
    /// the remote connection) aliased into one namespace.
    registry: Arc<bess_obs::Registry>,
}

struct SessionObserver(Weak<Session>);

impl WriteObserver for SessionObserver {
    fn on_first_write(&self, page: DbPage) -> Result<(), String> {
        match self.0.upgrade() {
            Some(session) => session.observe_write(page),
            None => Err("session gone".into()),
        }
    }
}

impl Session {
    /// Opens an embedded session: the application is linked with the
    /// storage manager, areas and WAL are local. Pass a log for full
    /// transactional durability; without one, commits apply but are not
    /// logged (useful for benchmarks isolating other costs).
    pub fn embedded(
        db: Arc<Database>,
        areas: Arc<AreaSet>,
        log: Option<Arc<LogManager>>,
        locks: Option<Arc<LockManager>>,
        config: SessionConfig,
    ) -> Arc<Session> {
        if let Some(log) = &log {
            log.set_group_commit(config.group_commit);
        }
        let overlay = Arc::new(OverlayIo {
            base: Arc::clone(&areas) as Arc<dyn PageIo>,
            overlay: Mutex::new(HashMap::new()),
        });
        let disk: Arc<dyn DiskSpace> = Arc::clone(&areas) as Arc<dyn DiskSpace>;
        let io: Arc<dyn PageIo> = Arc::clone(&overlay) as Arc<dyn PageIo>;
        let pipeline = CommitPipeline::new(Arc::clone(&areas), log);
        Self::build(
            db,
            Backing::Embedded {
                areas,
                pipeline,
                locks,
                overlay,
            },
            disk,
            io,
            config,
        )
    }

    /// Opens a remote (copy-on-access) session over a client connection.
    pub fn remote(db: Arc<Database>, conn: Arc<ClientConn>, config: SessionConfig) -> Arc<Session> {
        let disk: Arc<dyn DiskSpace> = Arc::new(RemoteSpace(Arc::clone(&conn)));
        let io: Arc<dyn PageIo> = Arc::new(RemoteIo(Arc::clone(&conn)));
        Self::build(db, Backing::Remote { conn }, disk, io, config)
    }

    fn build(
        db: Arc<Database>,
        backing: Backing,
        disk: Arc<dyn DiskSpace>,
        io: Arc<dyn PageIo>,
        config: SessionConfig,
    ) -> Arc<Session> {
        let space = Arc::new(AddressSpace::with_page_size(disk.page_size() as u64));
        let pool = Arc::new(PrivatePool::new(Arc::clone(&space), io, config.pool_frames));
        let mgr = SegmentManager::new(
            space,
            Arc::clone(&pool),
            Arc::clone(&disk),
            Arc::clone(db.types()),
            Arc::clone(db.catalog()),
            config.policy,
            db.host(),
            db.db_id(),
        );
        // One registry for the whole session: the manager's (vm.*, seg.*,
        // cache.private.*) plus whatever the backing contributes —
        // embedded areas/WAL/locks, or the client connection's client.*
        // and lock.cache.*.
        let registry = bess_obs::Registry::new();
        registry.adopt("", mgr.metrics().registry());
        match &backing {
            Backing::Embedded {
                areas,
                pipeline,
                locks,
                ..
            } => {
                for id in areas.ids() {
                    if let Some(area) = areas.get(id) {
                        registry.adopt("", area.metrics().registry());
                    }
                }
                if let Some(log) = pipeline.log() {
                    registry.adopt("", log.metrics().registry());
                }
                if let Some(locks) = locks {
                    registry.adopt("", locks.metrics().registry());
                }
            }
            Backing::Remote { conn } => {
                registry.adopt("", conn.metrics().registry());
            }
        }
        let session = Arc::new_cyclic(|weak: &Weak<Session>| {
            mgr.set_write_observer(Some(Arc::new(SessionObserver(weak.clone()))));
            Session {
                db,
                backing,
                disk,
                mgr,
                pool,
                hooks: Arc::new(HookRegistry::new()),
                txn: Mutex::new(None),
                next_local_txn: AtomicU64::new(1),
                type_ids: Mutex::new(HashMap::new()),
                object_locking: config.object_locking,
                registry,
            }
        });
        // Cache consistency: callbacks from servers evict pages from this
        // session's pool.
        if let Backing::Remote { conn } = &session.backing {
            let mgr = Arc::clone(&session.mgr);
            conn.set_purge_hook(Some(Arc::new(move |name| {
                // Another client will modify this data: drop the whole
                // segment's mapping epoch so the next touch re-runs the
                // fixup waves against the server's new content.
                match name {
                    LockName::Page { area, page } => {
                        mgr.invalidate_page(DbPage { area, page });
                    }
                    LockName::Object { area, page, .. } => {
                        mgr.invalidate_page(DbPage { area, page });
                    }
                    LockName::Segment { area, page } => {
                        mgr.invalidate_page(DbPage { area, page });
                    }
                    _ => {}
                }
            })));
            if config.object_locking {
                conn.set_read_mode(LockMode::IS);
            }
        }
        session.hooks.fire(EventKind::DatabaseOpen, &Event::default());
        session
    }

    /// The database.
    pub fn db(&self) -> &Arc<Database> {
        &self.db
    }

    /// The hook registry (§2.4).
    pub fn hooks(&self) -> &Arc<HookRegistry> {
        &self.hooks
    }

    /// The session-wide metric registry: one namespace spanning every
    /// subsystem the session composes (`vm.*`, `seg.*`, `cache.private.*`,
    /// plus `storage.a*.*`/`wal.*`/`lock.*` when embedded or
    /// `client.*`/`lock.cache.*` when remote). Handles are live aliases —
    /// `metrics().snapshot()` then [`bess_obs::RegistrySnapshot::delta`]
    /// measures an interval.
    pub fn metrics(&self) -> &Arc<bess_obs::Registry> {
        &self.registry
    }

    /// The underlying segment manager (advanced use, benches).
    pub fn manager(&self) -> &Arc<SegmentManager> {
        &self.mgr
    }

    /// The private buffer pool (inspection).
    pub fn pool(&self) -> &Arc<PrivatePool> {
        &self.pool
    }

    /// The disk-space handle (local areas or the RPC façade).
    pub fn disk(&self) -> &Arc<dyn DiskSpace> {
        &self.disk
    }

    // ---- update detection (§2.3) -----------------------------------------

    fn observe_write(&self, page: DbPage) -> Result<(), String> {
        let mut txn = self.txn.lock();
        let Some(state) = txn.as_mut() else {
            return Err("write outside a transaction".into());
        };
        if state.snapshots.contains_key(&page) {
            return Ok(()); // already detected, locked and snapshotted
        }
        // Acquire the page lock before granting write access: exclusive in
        // page-granularity mode, intention-exclusive when object-level
        // locking carries the real conflicts (§2.3's software approach).
        let page_mode = if self.object_locking {
            LockMode::IX
        } else {
            LockMode::X
        };
        let lock_result: Result<(), String> = match &self.backing {
            Backing::Remote { conn } => conn
                .lock(
                    LockName::Page {
                        area: page.area,
                        page: page.page,
                    },
                    page_mode,
                )
                .map_err(|e| e.to_string()),
            Backing::Embedded { locks, .. } => match locks {
                Some(mgr) => mgr
                    .lock(
                        TxnId(state.id),
                        LockName::Page {
                            area: page.area,
                            page: page.page,
                        },
                        page_mode,
                    )
                    .map_err(|e| e.to_string()),
                None => Ok(()),
            },
        };
        if let Err(e) = lock_result {
            self.hooks.fire(
                EventKind::Deadlock,
                &Event {
                    txn: Some(state.id),
                    page: Some(page),
                    detail: Some(e.clone()),
                    ..Event::default()
                },
            );
            return Err(e);
        }
        // Snapshot the clean (committed) content as the before-image.
        let before = match &self.backing {
            Backing::Remote { conn } => conn.read_page(page).map_err(|e| e.to_string())?,
            Backing::Embedded { areas, .. } => {
                let area = areas
                    .get(page.area)
                    .ok_or_else(|| format!("no area {}", page.area))?;
                let mut buf = vec![0u8; area.page_size()];
                area.read_page(page.page, &mut buf)
                    .map_err(|e| e.to_string())?;
                buf
            }
        };
        state.snapshots.insert(page, before);
        if self.hooks.wants(EventKind::PageWrite) {
            self.hooks.fire(
                EventKind::PageWrite,
                &Event {
                    txn: Some(state.id),
                    page: Some(page),
                    ..Event::default()
                },
            );
        }
        Ok(())
    }

    // ---- transactions ------------------------------------------------------

    /// Begins a transaction.
    pub fn begin(&self) -> BessResult<u64> {
        let mut txn = self.txn.lock();
        if txn.is_some() {
            return Err(BessError::TxnActive);
        }
        let id = match &self.backing {
            Backing::Remote { conn } => conn.begin()?,
            Backing::Embedded { .. } => self.next_local_txn.fetch_add(1, Ordering::Relaxed),
        };
        *txn = Some(TxnState {
            id,
            snapshots: HashMap::new(),
        });
        drop(txn);
        self.hooks.fire(
            EventKind::TxnBegin,
            &Event {
                txn: Some(id),
                ..Event::default()
            },
        );
        Ok(id)
    }

    /// The active transaction id, if any.
    pub fn current_txn(&self) -> Option<u64> {
        self.txn.lock().as_ref().map(|t| t.id)
    }

    /// Computes the byte-range updates of the active transaction:
    /// snapshotted pages are diffed against their current content, and any
    /// other dirty page (engine metadata written through the trusted
    /// internal path — slotted headers, catalogs) ships as a full-page
    /// image whose before equals its after (redo-complete, undo-neutral).
    fn collect_updates(&self, state: &TxnState) -> BessResult<Vec<PageUpdate>> {
        let mut updates = Vec::new();
        // Engine pages: everything dirty that update detection did not see.
        let mut engine_pages: Vec<DbPage> = self.pool.dirty_pages();
        match &self.backing {
            Backing::Remote { conn } => engine_pages.extend(conn.overlay_pages()),
            Backing::Embedded { overlay, .. } => {
                engine_pages.extend(overlay.overlay.lock().keys().copied())
            }
        }
        engine_pages.sort_unstable();
        engine_pages.dedup();
        for page in engine_pages {
            if state.snapshots.contains_key(&page) {
                continue;
            }
            let Some(current) = self.pool.read_page_copy(page).or_else(|| match &self.backing {
                Backing::Remote { conn } => conn.overlay_get(page),
                Backing::Embedded { overlay, .. } => overlay.overlay.lock().get(&page).cloned(),
            }) else {
                continue;
            };
            updates.push(PageUpdate {
                page,
                offset: 0,
                before: current.clone(),
                after: current,
            });
        }
        for (&page, before) in &state.snapshots {
            let current = self
                .pool
                .read_page_copy(page)
                .or_else(|| match &self.backing {
                    Backing::Remote { conn } => conn.overlay_get(page),
                    Backing::Embedded { overlay, .. } => overlay.overlay.lock().get(&page).cloned(),
                })
                .unwrap_or_else(|| before.clone());
            debug_assert_eq!(before.len(), current.len());
            // One spanning diff range per page.
            let differs = |(a, b): (&u8, &u8)| a != b;
            let Some(first) = before.iter().zip(current.iter()).position(differs) else {
                continue; // written but unchanged
            };
            let last = before
                .iter()
                .zip(current.iter())
                .rposition(differs)
                .unwrap_or(first);
            updates.push(PageUpdate {
                page,
                // LINT: allow(cast) — `first` indexes into one page, far below u32::MAX.
                offset: first as u32,
                before: before[first..=last].to_vec(),
                after: current[first..=last].to_vec(),
            });
        }
        updates.sort_by_key(|u| (u.page.area, u.page.page, u.offset));
        Ok(updates)
    }

    /// Commits the active transaction: the page diffs are logged and
    /// applied (embedded) or shipped to the owning servers (remote; two
    /// servers trigger 2PC).
    pub fn commit(&self) -> BessResult<()> {
        let state = self.txn.lock().take().ok_or(BessError::NoTxn)?;
        let updates = self.collect_updates(&state)?;
        // Write-protect the written pages again so the next transaction's
        // first write re-traps (the write set is per transaction, §2.3).
        for &page in state.snapshots.keys() {
            self.pool
                .protect_page(page, bess_vm::Protect::Read);
        }
        match &self.backing {
            Backing::Remote { conn } => {
                conn.commit(updates)?;
                self.pool.clear_dirty_flags();
            }
            Backing::Embedded {
                pipeline,
                locks,
                overlay,
                ..
            } => {
                let committed = pipeline.commit(state.id, &updates);
                // Whatever the outcome, the transaction is over: retire
                // the overlay and the dirty flags (after a commit the
                // pool's content equals disk) and let go of its locks.
                self.pool.clear_dirty_flags();
                overlay.overlay.lock().clear();
                if let Some(mgr) = locks {
                    mgr.unlock_all(TxnId(state.id));
                }
                committed?;
            }
        }
        self.hooks.fire(
            EventKind::TxnCommit,
            &Event {
                txn: Some(state.id),
                ..Event::default()
            },
        );
        Ok(())
    }

    /// Aborts the active transaction, discarding every uncommitted page.
    pub fn abort(&self) -> BessResult<()> {
        let state = self.txn.lock().take().ok_or(BessError::NoTxn)?;
        for &page in state.snapshots.keys() {
            self.pool.discard(page);
        }
        match &self.backing {
            Backing::Remote { conn } => {
                conn.abort()?;
            }
            Backing::Embedded {
                overlay, locks, ..
            } => {
                overlay.overlay.lock().clear();
                if let Some(mgr) = locks {
                    mgr.unlock_all(TxnId(state.id));
                }
            }
        }
        self.hooks.fire(
            EventKind::TxnAbort,
            &Event {
                txn: Some(state.id),
                ..Event::default()
            },
        );
        Ok(())
    }

    // ---- software object-level locking (§2.3 future work) ---------------

    fn object_lock_name(&self, addr: VAddr) -> BessResult<LockName> {
        let oid = self.mgr.oid_of(addr)?;
        Ok(LockName::Object {
            area: oid.seg.area,
            page: oid.seg.start_page,
            slot: oid.slot,
        })
    }

    fn segment_lock_name(seg: SegId) -> LockName {
        LockName::Segment {
            area: seg.area,
            page: seg.start_page,
        }
    }

    /// Acquires `mode` on `name` in the current transaction (no-op when
    /// object locking is disabled or — embedded — no lock manager is
    /// configured). Returns whether the grant needed a server round trip
    /// (a cache miss), which signals possibly-stale local page copies.
    fn lock_logical(&self, name: LockName, mode: LockMode) -> BessResult<bool> {
        if !self.object_locking {
            return Ok(false);
        }
        let txn = self.current_txn().ok_or(BessError::NoTxn)?;
        match &self.backing {
            Backing::Remote { conn } => {
                let was_cached = conn
                    .lock_cache()
                    .cached_mode(name)
                    .is_some_and(|m| m.covers(mode));
                conn.lock(name, mode)
                    .map_err(|e| BessError::Deadlock(e.to_string()))?;
                Ok(!was_cached)
            }
            Backing::Embedded { locks, .. } => {
                if let Some(mgr) = locks {
                    mgr.lock(TxnId(txn), name, mode)
                        .map_err(|e| BessError::Deadlock(e.to_string()))?;
                }
                Ok(false)
            }
        }
    }

    /// Object-granularity lock for a read or write of the object at
    /// `addr`; on a cache miss the segment's local pages may be stale
    /// (no page-level callback fires under IS/IX), so the mapping epoch is
    /// invalidated and re-fetched.
    fn lock_object(&self, addr: VAddr, mode: LockMode) -> BessResult<()> {
        if !self.object_locking {
            return Ok(());
        }
        let name = self.object_lock_name(addr)?;
        let missed = self.lock_logical(name, mode)?;
        if missed {
            if let LockName::Object { area, page, .. } = name {
                self.mgr.invalidate_page(DbPage { area, page });
            }
        }
        Ok(())
    }

    /// Segment-granularity lock for structural changes (object creation,
    /// deletion, reference-table updates).
    fn lock_segment(&self, seg: SegId, mode: LockMode) -> BessResult<()> {
        if !self.object_locking {
            return Ok(());
        }
        let name = Self::segment_lock_name(seg);
        let missed = self.lock_logical(name, mode)?;
        if missed {
            self.mgr.invalidate_segment(seg);
        }
        Ok(())
    }

    // ---- types ----------------------------------------------------------------

    /// Registers (or looks up) the type of `T`, returning its id.
    pub fn register_type<T: Persist>(&self) -> TypeId {
        let name: &'static str = std::any::type_name::<T>();
        if let Some(&id) = self.type_ids.lock().get(name) {
            return id;
        }
        let id = self.db.types().register(T::type_desc());
        self.type_ids.lock().insert(name, id);
        id
    }

    // ---- object lifecycle --------------------------------------------------------

    /// Creates an object segment in `area`.
    pub fn create_segment(&self, area: u32, slot_cap: u32, data_pages: u32) -> BessResult<SegId> {
        let seg = self.mgr.create_segment(area, slot_cap, data_pages)?;
        self.hooks.fire(
            EventKind::SegmentCreated,
            &Event {
                seg: Some(seg),
                ..Event::default()
            },
        );
        Ok(seg)
    }

    /// Creates an object of type `T` in `seg` — one of the §2.5 overloaded
    /// creation functions ("in a database, in a specific file, or in a
    /// specific object segment").
    pub fn create<T: Persist>(&self, seg: SegId, value: &T) -> BessResult<Ref<T>> {
        self.lock_segment(seg, LockMode::X)?;
        let type_id = self.register_type::<T>();
        let desc = T::type_desc();
        let obj = self.mgr.create_object(seg, type_id, desc.size)?;
        let r = Ref::new(obj.addr);
        self.put(r, value)?;
        self.hooks.fire(
            EventKind::ObjectCreated,
            &Event {
                oid: Some(obj.oid),
                seg: Some(seg),
                ..Event::default()
            },
        );
        Ok(r)
    }

    /// Creates an untyped byte object.
    pub fn create_bytes(&self, seg: SegId, data: &[u8]) -> BessResult<Ref<RawBytes>> {
        self.lock_segment(seg, LockMode::X)?;
        let obj = self
            .mgr
            .create_object(seg, TYPE_BYTES, data.len() as u32)?;
        self.mgr.write_object(obj.addr, 0, data)?;
        self.hooks.fire(
            EventKind::ObjectCreated,
            &Event {
                oid: Some(obj.oid),
                seg: Some(seg),
                ..Event::default()
            },
        );
        Ok(Ref::new(obj.addr))
    }

    /// Reads an object (the `ref<T>` dereference path: one protected load
    /// for the header, one for the data).
    pub fn get<T: Persist>(&self, r: Ref<T>) -> BessResult<T> {
        self.lock_object(r.addr(), LockMode::S)?;
        let bytes = self.mgr.read_object(r.addr())?;
        Ok(T::decode(&bytes))
    }

    /// Rewrites an object, maintaining its outgoing references' bases.
    pub fn put<T: Persist>(&self, r: Ref<T>, value: &T) -> BessResult<()> {
        self.lock_object(r.addr(), LockMode::X)?;
        // Types with reference fields update the segment's reference
        // table, which is segment-structural.
        if !T::type_desc().ref_offsets.is_empty() {
            let oid = self.mgr.oid_of(r.addr())?;
            self.lock_segment(oid.seg, LockMode::X)?;
        }
        let image = value.encode();
        let desc = T::type_desc();
        debug_assert_eq!(image.len() as u32, desc.size, "encode size mismatch");
        self.mgr.write_object(r.addr(), 0, &image)?;
        for off in &desc.ref_offsets {
            let raw = u64::from_le_bytes(
                image[*off as usize..*off as usize + 8].try_into().unwrap(),
            );
            self.mgr.store_ref(r.addr(), *off, VAddr::new(raw))?;
        }
        Ok(())
    }

    /// Reads an untyped byte object.
    pub fn get_bytes(&self, r: Ref<RawBytes>) -> BessResult<Vec<u8>> {
        self.lock_object(r.addr(), LockMode::S)?;
        Ok(self.mgr.read_object(r.addr())?)
    }

    /// Overwrites part of a byte object.
    pub fn put_bytes(&self, r: Ref<RawBytes>, offset: u32, data: &[u8]) -> BessResult<()> {
        self.lock_object(r.addr(), LockMode::X)?;
        Ok(self.mgr.write_object(r.addr(), offset, data)?)
    }

    /// Deletes an object. If it was a named root, the name goes too
    /// (referential integrity, §2.5).
    pub fn delete(&self, addr: VAddr) -> BessResult<()> {
        let oid = self.mgr.oid_of(addr)?;
        self.lock_segment(oid.seg, LockMode::X)?;
        self.db.forget_root_of(oid);
        self.mgr.delete_object(addr)?;
        self.hooks.fire(
            EventKind::ObjectDeleted,
            &Event {
                oid: Some(oid),
                ..Event::default()
            },
        );
        Ok(())
    }

    // ---- references ---------------------------------------------------------------

    /// Stores a reference field: `obj.field_at(offset) = target`.
    pub fn set_ref<T, U>(
        &self,
        obj: Ref<T>,
        offset: u32,
        target: Option<Ref<U>>,
    ) -> BessResult<()> {
        // Reference stores touch the segment's reference table.
        let oid = self.mgr.oid_of(obj.addr())?;
        self.lock_segment(oid.seg, LockMode::X)?;
        self.lock_object(obj.addr(), LockMode::X)?;
        Ok(self
            .mgr
            .store_ref(obj.addr(), offset, target.map(|t| t.addr()))?)
    }

    /// Follows a reference field.
    pub fn get_ref<T, U>(&self, obj: Ref<T>, offset: u32) -> BessResult<Option<Ref<U>>> {
        Ok(self.mgr.load_ref(obj.addr(), offset)?.map(Ref::new))
    }

    /// The OID-based reference for an object (§2.5's `global_ref<T>`).
    pub fn global<T>(&self, r: Ref<T>) -> BessResult<GlobalRef<T>> {
        Ok(GlobalRef::new(self.mgr.oid_of(r.addr())?))
    }

    /// Resolves a global reference (slower: segment + slot + uniquifier
    /// check).
    pub fn deref_global<T>(&self, g: GlobalRef<T>) -> BessResult<Ref<T>> {
        Ok(Ref::new(self.mgr.resolve_oid(g.oid())?))
    }

    // ---- named roots -----------------------------------------------------------------

    /// Names an object (§2.5: "any BeSS object can be given a name").
    pub fn set_root<T>(&self, name: &str, r: Ref<T>) -> BessResult<()> {
        let oid = self.mgr.oid_of(r.addr())?;
        self.db.set_root(name, oid)?;
        Ok(())
    }

    /// Retrieves a named root.
    pub fn root<T>(&self, name: &str) -> BessResult<Option<Ref<T>>> {
        match self.db.get_root(name) {
            Some(oid) => Ok(Some(Ref::new(self.mgr.resolve_oid(oid)?))),
            None => Ok(None),
        }
    }

    // ---- files and multifiles -----------------------------------------------------------

    /// Creates a BeSS file (or multifile when several areas are given).
    pub fn create_file(
        &self,
        name: &str,
        areas: Vec<u32>,
        slot_cap: u32,
        data_pages: u32,
    ) -> BessResult<()> {
        self.db.create_file(name, areas, slot_cap, data_pages)?;
        Ok(())
    }

    /// Creates an object in a file, appending a new segment (in the next
    /// round-robin area for multifiles) when the current one is full.
    pub fn create_in_file<T: Persist>(&self, file: &str, value: &T) -> BessResult<Ref<T>> {
        let type_id = self.register_type::<T>();
        let desc = T::type_desc();
        let seg = self.file_segment_for_insert(file)?;
        let obj = match self.mgr.create_object(seg, type_id, desc.size) {
            Ok(o) => o,
            Err(SegError::SegmentFull(_)) | Err(SegError::DataFull(_)) => {
                let seg = self.grow_file(file)?;
                self.mgr.create_object(seg, type_id, desc.size)?
            }
            Err(e) => return Err(e.into()),
        };
        let r = Ref::new(obj.addr);
        self.put(r, value)?;
        self.hooks.fire(
            EventKind::ObjectCreated,
            &Event {
                oid: Some(obj.oid),
                seg: Some(seg),
                ..Event::default()
            },
        );
        Ok(r)
    }

    /// Creates an untyped byte object in a file (segment chosen/grown like
    /// [`Self::create_in_file`]).
    pub fn create_bytes_in_file(&self, file: &str, data: &[u8]) -> BessResult<Ref<RawBytes>> {
        let seg = self.file_segment_for_insert(file)?;
        match self.create_bytes(seg, data) {
            Ok(r) => Ok(r),
            Err(BessError::Seg(SegError::SegmentFull(_)))
            | Err(BessError::Seg(SegError::DataFull(_))) => {
                let seg = self.grow_file(file)?;
                self.create_bytes(seg, data)
            }
            Err(e) => Err(e),
        }
    }

    fn file_segment_for_insert(&self, file: &str) -> BessResult<SegId> {
        let meta = self.db.file(file)?;
        match meta.segments.last() {
            Some(&seg) => Ok(seg),
            None => self.grow_file(file),
        }
    }

    fn grow_file(&self, file: &str) -> BessResult<SegId> {
        let meta = self.db.file(file)?;
        // Spill-over: if the chosen area cannot hold a new segment (full
        // fixed-size area), try the file's other areas — a multifile's
        // size "is not limited by the operating system" (§2).
        let mut last_err: Option<BessError> = None;
        for _ in 0..meta.areas.len() {
            let area = self.db.next_file_area(file)?;
            match self.create_segment(area, meta.slot_cap, meta.data_pages) {
                Ok(seg) => {
                    self.db.record_file_segment(file, seg)?;
                    return Ok(seg);
                }
                Err(e) => {
                    last_err = Some(e);
                    self.db.skip_file_area(file)?;
                }
            }
        }
        Err(last_err.unwrap_or(BessError::Other(format!("file '{file}' has no areas"))))
    }

    /// Scans a file: every live object, segment by segment ("a BeSS file
    /// groups objects so that they could be retrieved later on via a
    /// cursor mechanism", §2).
    pub fn scan(&self, file: &str) -> BessResult<Vec<ObjRef>> {
        let meta = self.db.file(file)?;
        let mut out = Vec::new();
        for seg in meta.segments {
            out.extend(self.mgr.objects_in(seg)?);
        }
        Ok(out)
    }

    /// The segments of a file, for per-area parallel scans of multifiles
    /// (§2's "convenient mechanism for parallel I/O processing").
    pub fn file_segments(&self, file: &str) -> BessResult<Vec<SegId>> {
        Ok(self.db.file(file)?.segments)
    }

    // ---- large objects ------------------------------------------------------------------

    /// Creates a transparent fixed-size large object (≤ 64 KB).
    pub fn create_big(&self, seg: SegId, data: &[u8]) -> BessResult<Ref<RawBytes>> {
        let obj = self
            .mgr
            .create_big_object(seg, TYPE_BYTES, data.len() as u32)?;
        self.mgr.write_object(obj.addr, 0, data)?;
        Ok(Ref::new(obj.addr))
    }

    /// Creates a huge object (EOS byte-tree) with a size hint, returning
    /// its reference and the open handle.
    pub fn create_huge(
        &self,
        seg: SegId,
        size_hint: u64,
    ) -> BessResult<(Ref<RawBytes>, LargeObject)> {
        let config = LoConfig::with_size_hint(size_hint, self.disk.page_size());
        let (obj, lo) = self.mgr.create_huge_object(seg, TYPE_BYTES, config)?;
        Ok((Ref::new(obj.addr), lo))
    }

    /// Opens a huge object for byte-range operations (§2.1's class
    /// interface).
    pub fn open_huge(&self, r: Ref<RawBytes>) -> BessResult<LargeObject> {
        Ok(self.mgr.open_huge_object(r.addr())?)
    }

    /// Persists a huge object's tree descriptor after mutating it.
    pub fn save_huge(&self, r: Ref<RawBytes>, lo: &LargeObject) -> BessResult<()> {
        Ok(self.mgr.save_huge_object(r.addr(), lo)?)
    }

    /// Stores a blob as a huge object, applying the registered compression
    /// hook (§2.4). The stored image is `[1, compressed...]` or
    /// `[0, raw...]`.
    pub fn store_blob(&self, seg: SegId, data: &[u8]) -> BessResult<Ref<RawBytes>> {
        self.hooks.fire(
            EventKind::BlobStore,
            &Event {
                seg: Some(seg),
                detail: Some(format!("{} bytes", data.len())),
                ..Event::default()
            },
        );
        let (flag, payload) = match self.hooks.compress(data) {
            Some(packed) => (1u8, packed),
            None => (0u8, data.to_vec()),
        };
        let (r, mut lo) = self.create_huge(seg, payload.len() as u64 + 1)?;
        lo.append(&[flag])?;
        lo.append(&payload)?;
        self.save_huge(r, &lo)?;
        Ok(r)
    }

    /// Fetches a blob stored by [`Self::store_blob`], applying the
    /// decompression hook when the image is compressed.
    pub fn fetch_blob(&self, r: Ref<RawBytes>) -> BessResult<Vec<u8>> {
        self.hooks.fire(EventKind::BlobFetch, &Event::default());
        let lo = self.open_huge(r)?;
        let flag = lo.read_vec(0, 1)?[0];
        let payload = lo.read_vec(1, (lo.len() - 1) as usize)?;
        match flag {
            0 => Ok(payload),
            1 => self
                .hooks
                .decompress(&payload)
                .ok_or_else(|| BessError::Other("compressed blob but no decompression hook".into())),
            other => Err(BessError::Other(format!("bad blob flag {other}"))),
        }
    }

    // ---- reorganisation (§2.1) -----------------------------------------------------------

    /// Moves a segment's data to another storage area without touching any
    /// reference.
    pub fn move_data_segment(&self, seg: SegId, target_area: u32) -> BessResult<()> {
        Ok(self.mgr.move_data_segment(seg, target_area)?)
    }

    /// Compacts a segment's data, reclaiming deletion holes.
    pub fn compact_segment(&self, seg: SegId) -> BessResult<()> {
        Ok(self.mgr.compact_segment(seg)?)
    }

    /// Resizes a segment's data to `new_pages` pages.
    pub fn resize_data(&self, seg: SegId, new_pages: u32) -> BessResult<()> {
        Ok(self.mgr.resize_data(seg, new_pages)?)
    }

    // ---- persistence of the database descriptor --------------------------------------------

    /// Saves the database descriptor (catalog, types, roots, files) and
    /// flushes every dirty page. Call after DDL and before shutdown.
    pub fn save_db(&self) -> BessResult<()> {
        self.mgr.flush_all()?;
        self.db.save(self.disk.as_ref())?;
        self.hooks.fire(EventKind::DatabaseClose, &Event::default());
        Ok(())
    }
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("db", &self.db.name())
            .field(
                "mode",
                &match self.backing {
                    Backing::Embedded { .. } => "embedded",
                    Backing::Remote { .. } => "remote (copy-on-access)",
                },
            )
            .field("txn", &self.current_txn())
            .finish()
    }
}
