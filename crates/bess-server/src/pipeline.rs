//! The commit pipeline: log it, force it, apply it — once.
//!
//! A local transaction manager in the sense of §3/§4: whoever holds a
//! [`CommitPipeline`] — a [`crate::BessServer`] for its clients' commits
//! and its 2PC branches, an embedded session for its own — hands it a
//! write set and gets the ARIES discipline in one place:
//!
//! * **commit gate vs checkpoint** — a commit holds the gate shared from
//!   its first log record until its pages are applied; a checkpoint holds
//!   it exclusively while it appends `CheckpointBegin`. Every commit is
//!   therefore applied before the checkpoint's area sync, or logged after
//!   its begin record, where restart analysis finds it;
//! * **a checkpoint every [`RESTART_LOG_BYTES`]** — once that much log has
//!   been appended since the last checkpoint began, the `commit`, `prepare`
//!   or `resolve` that finds it so takes the next one, after releasing the
//!   gate, so a restart reads about that much log;
//! * **logged and prepared, or neither** — a branch enters the prepared
//!   table under the gate only after its `Prepare` record is forced, and
//!   leaves it under the gate when it is resolved;
//! * **page-LSN stamp** — every applied page is sealed with the commit
//!   record's LSN (what the deep scrubber's lost-write check compares);
//! * **`End` after apply** — `End` means the transaction is on its pages;
//! * **repair, then retry once** — a destination page that fails
//!   verification is rebuilt from the log (the commit record is already
//!   durable, so the rebuild replays this transaction too) and the write
//!   retried exactly once; an unrepairable page is quarantined and feeds
//!   the media gate.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use bess_cache::{AreaSet, DbPage};
use bess_obs::{Counter, Registry};
use bess_storage::{CorruptKind, StorageArea, StorageError};
use bess_wal::{
    begin_checkpoint, end_checkpoint, recover, undo_transactions, LogBody, LogManager, LogPageId,
    Lsn, RecoveryReport, RedoPatch, RedoTarget, TxnStatus, WalError, WalResult, LOG_START,
    RESTART_LOG_BYTES,
};
use parking_lot::{Mutex, RwLock};

use crate::proto::PageUpdate;
use crate::scrub::{repair_page, IntegrityStats, MediaGate};

/// Applies redo/undo images to the server's storage areas.
pub struct AreaTarget(pub Arc<AreaSet>);

impl RedoTarget for AreaTarget {
    fn apply(&mut self, page: LogPageId, offset: u32, bytes: &[u8]) -> Result<(), String> {
        self.apply_lsn(page, offset, bytes, Lsn::NULL)
    }

    fn apply_lsn(
        &mut self,
        page: LogPageId,
        offset: u32,
        bytes: &[u8],
        lsn: Lsn,
    ) -> Result<(), String> {
        // Pages for unregistered areas are skipped: the log may describe
        // areas this server no longer mounts, and recovery must not fail
        // on them. Mounted areas must accept the write, or recovery fails.
        let Some(area) = self.0.get(page.area) else {
            return Ok(());
        };
        // Recovery writes go through the *restore* path: the slot being
        // repaired may be torn or rotted, so its old checksum legitimately
        // fails — redo's after-image restores the bytes and the reseal
        // (stamped with the record's LSN) restores the header. The
        // verified-RMW `write_at` would refuse exactly the slots recovery
        // exists to fix.
        area.restore_at(page.page, offset as usize, bytes, lsn.0)
            .map_err(|e| format!("redo write to {page:?} failed: {e}"))
    }

    /// One unverified read-modify-write for the page's whole redo history,
    /// resealed at the last record's LSN; unmounted areas are skipped as in
    /// `apply_lsn`.
    fn redo_page(&mut self, page: LogPageId, patches: &[RedoPatch]) -> Result<(), String> {
        let (Some(area), Some(last)) = (self.0.get(page.area), patches.last()) else {
            return Ok(());
        };
        let parts: Vec<(usize, &[u8])> = patches
            .iter()
            .map(|p| (p.offset as usize, p.bytes.as_slice()))
            .collect();
        area.restore_patches(page.page, &parts, last.lsn.0)
            .map_err(|e| format!("redo write to {page:?} failed: {e}"))
    }
}

/// Appends `Begin`, one `Update` per entry of `updates`, and `terminator`
/// (`Commit` or `Prepare`) for `txn`, chained by `prev_lsn`. Returns the
/// LSNs of the `Begin` and of the terminator; nothing is forced.
pub(crate) fn log_write_set(
    log: &LogManager,
    txn: u64,
    updates: &[PageUpdate],
    terminator: LogBody,
) -> (Lsn, Lsn) {
    let first = log.append(txn, Lsn::NULL, LogBody::Begin);
    let mut prev = first;
    for u in updates {
        prev = log.append(
            txn,
            prev,
            LogBody::Update {
                page: LogPageId {
                    area: u.page.area,
                    page: u.page.page,
                },
                offset: u.offset,
                before: u.before.clone(),
                after: u.after.clone(),
            },
        );
    }
    (first, log.append(txn, prev, terminator))
}

/// A write set read back from the log by [`write_sets_of`].
#[derive(Debug, Default)]
pub(crate) struct LoggedWriteSet {
    /// The transaction's updates, in log order.
    pub(crate) updates: Vec<PageUpdate>,
    /// Its oldest record.
    pub(crate) first: Lsn,
    /// Its `Commit` or `Prepare` record.
    pub(crate) last: Lsn,
}

/// Rebuilds from `log` what [`log_write_set`] wrote for each of `txns`
/// (one entry per requested transaction, empty when the log holds
/// nothing of it). One scan of the log; none when `txns` is empty.
pub(crate) fn write_sets_of(log: &LogManager, txns: &HashSet<u64>) -> HashMap<u64, LoggedWriteSet> {
    let mut sets: HashMap<u64, LoggedWriteSet> = txns
        .iter()
        .map(|t| (*t, LoggedWriteSet::default()))
        .collect();
    if sets.is_empty() {
        return sets;
    }
    for rec in log.iter() {
        let Some(set) = sets.get_mut(&rec.txn) else {
            continue;
        };
        if set.first.is_null() {
            set.first = rec.lsn;
        }
        match rec.body {
            LogBody::Update {
                page,
                offset,
                before,
                after,
            } => set.updates.push(PageUpdate {
                page: DbPage {
                    area: page.area,
                    page: page.page,
                },
                offset,
                before,
                after,
            }),
            LogBody::Commit | LogBody::Prepare => set.last = rec.lsn,
            _ => {}
        }
    }
    sets
}

/// Why a [`CommitPipeline`] operation did not complete.
#[derive(Debug)]
pub enum CommitError {
    /// The log force failed: the transaction is neither committed nor
    /// prepared (a branch being resolved stays prepared).
    LogForce(WalError),
    /// The commit record is durable but a page could not be written, even
    /// after the repair ladder; restart redo will repeat it.
    Apply(String),
    /// A branch cannot be prepared without a log to hold it.
    NoLog,
}

impl std::fmt::Display for CommitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommitError::LogForce(e) => write!(f, "log force failed: {e}"),
            CommitError::Apply(m) => write!(f, "{m}"),
            CommitError::NoLog => write!(f, "no log to prepare a branch in"),
        }
    }
}

impl std::error::Error for CommitError {}

/// What [`CommitPipeline::resolve`] did with a branch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Resolution {
    /// No such prepared branch (already resolved, or never prepared here).
    NotPrepared,
    /// Committed and applied.
    Committed,
    /// Rolled back.
    Aborted,
}

/// What the repair ladder and failed log forces feed: the media gate that
/// trips read-only, the corruption counters, and the failed-force count.
/// A server shares these with its scrubber and exports them; a pipeline
/// built with [`CommitPipeline::new`] keeps detached ones.
pub(crate) struct Accounting {
    pub(crate) media: Arc<MediaGate>,
    pub(crate) integrity: Arc<IntegrityStats>,
    pub(crate) log_force_failures: Counter,
}

impl Accounting {
    fn detached() -> Accounting {
        Accounting {
            media: Arc::new(MediaGate::new(u64::MAX)),
            integrity: Arc::new(IntegrityStats::new(
                &Registry::new().group("storage.corruption"),
            )),
            log_force_failures: Counter::unregistered(),
        }
    }
}

struct PreparedBranch {
    updates: Vec<PageUpdate>,
    /// The branch's oldest log record: where a checkpoint must let redo
    /// start for the pages in `updates`.
    first_lsn: Lsn,
    last_lsn: Lsn,
    /// The client node that shipped this branch's updates, when known.
    /// `None` for branches rebuilt by restart recovery.
    shipper: Option<u32>,
    prepared_at: Instant,
}

/// A prepared branch as its owner needs to see it: to lock its pages
/// after a restart and to decide when to ask the coordinator about it.
pub(crate) struct BranchInfo {
    pub(crate) gtxn: u64,
    pub(crate) shipper: Option<u32>,
    pub(crate) prepared_at: Instant,
    pub(crate) pages: Vec<DbPage>,
}

/// One node's path from a write set to durable, applied pages (see the
/// module docs for the invariants it keeps).
///
/// The commit gate belongs to the pipeline, not to the log: a checkpoint
/// excludes only the commits of its own pipeline. One log must therefore
/// have exactly one pipeline.
pub struct CommitPipeline {
    areas: Arc<AreaSet>,
    log: Option<Arc<LogManager>>,
    /// Shared by commit/prepare/resolve, exclusive for `CheckpointBegin`.
    gate: RwLock<()>,
    /// Set while an automatic checkpoint runs; a second caller past the
    /// threshold skips rather than queue a checkpoint behind it.
    checkpointing: AtomicBool,
    prepared: Mutex<HashMap<u64, PreparedBranch>>,
    accounting: Accounting,
}

impl CommitPipeline {
    /// A pipeline over `areas` and `log` as they stand — no recovery is
    /// run (an embedded deployment calls `recover_embedded` first).
    /// Without a log, commits are applied and nothing else.
    pub fn new(areas: Arc<AreaSet>, log: Option<Arc<LogManager>>) -> CommitPipeline {
        CommitPipeline {
            areas,
            log,
            gate: RwLock::new(()),
            checkpointing: AtomicBool::new(false),
            prepared: Mutex::new(HashMap::new()),
            accounting: Accounting::detached(),
        }
    }

    /// Runs restart recovery over `log` and rebuilds the in-doubt
    /// branches it reports, write sets included, as prepared.
    pub(crate) fn open(
        areas: Arc<AreaSet>,
        log: Arc<LogManager>,
        accounting: Accounting,
    ) -> WalResult<(CommitPipeline, RecoveryReport)> {
        let report = recover(&log, &mut AreaTarget(Arc::clone(&areas)))?;
        let in_doubt: HashSet<u64> = report.in_doubt.iter().copied().collect();
        let prepared = write_sets_of(&log, &in_doubt)
            .into_iter()
            .map(|(gtxn, set)| {
                let branch = PreparedBranch {
                    updates: set.updates,
                    first_lsn: set.first,
                    last_lsn: set.last,
                    shipper: None,
                    prepared_at: Instant::now(),
                };
                (gtxn, branch)
            })
            .collect();
        let pipeline = CommitPipeline {
            prepared: Mutex::new(prepared),
            accounting,
            ..CommitPipeline::new(areas, Some(log))
        };
        Ok((pipeline, report))
    }

    /// Commits `updates` as `txn`: log the write set, force the commit
    /// record, apply, then `End`. Returns the commit record's LSN (null
    /// without a log). May take a checkpoint afterwards (see
    /// [`Self::checkpoint`]).
    pub fn commit(&self, txn: u64, updates: &[PageUpdate]) -> Result<Lsn, CommitError> {
        self.gated(|| {
            let Some(log) = &self.log else {
                self.apply(updates, Lsn::NULL)?;
                return Ok(Lsn::NULL);
            };
            let (_, commit) = log_write_set(log, txn, updates, LogBody::Commit);
            self.force(log, commit)?;
            self.apply(updates, commit)?;
            log.append(txn, commit, LogBody::End);
            Ok(commit)
        })
    }

    /// 2PC phase 1 for one branch: log the write set, force the `Prepare`
    /// record, keep the branch until [`Self::resolve`]. `shipper` is the
    /// client node whose locks cover it. May take a checkpoint afterwards.
    pub fn prepare(
        &self,
        gtxn: u64,
        updates: Vec<PageUpdate>,
        shipper: Option<u32>,
    ) -> Result<(), CommitError> {
        let log = self.log.as_ref().ok_or(CommitError::NoLog)?;
        self.gated(|| {
            let (first_lsn, last_lsn) = log_write_set(log, gtxn, &updates, LogBody::Prepare);
            self.force(log, last_lsn)?;
            self.prepared.lock().insert(
                gtxn,
                PreparedBranch {
                    updates,
                    first_lsn,
                    last_lsn,
                    shipper,
                    prepared_at: Instant::now(),
                },
            );
            Ok(())
        })
    }

    /// 2PC phase 2 for one branch. Idempotent: a branch that is not
    /// prepared is left alone. May take a checkpoint afterwards.
    ///
    /// A commit whose `Commit` record cannot be forced goes back to
    /// prepared — the coordinator's decision is already durable, so the
    /// owner retries — rather than applying pages whose commit the next
    /// crash could lose. An abort survives a failed force: presumed abort
    /// re-aborts on recovery.
    pub fn resolve(&self, gtxn: u64, commit: bool) -> Result<Resolution, CommitError> {
        self.gated(|| {
            let (Some(log), Some(branch)) = (&self.log, self.prepared.lock().remove(&gtxn)) else {
                return Ok(Resolution::NotPrepared);
            };
            if commit {
                let c = log.append(gtxn, branch.last_lsn, LogBody::Commit);
                if let Err(e) = self.force(log, c) {
                    self.prepared.lock().insert(gtxn, branch);
                    return Err(e);
                }
                self.apply(&branch.updates, c)?;
                log.append(gtxn, c, LogBody::End);
                Ok(Resolution::Committed)
            } else {
                let a = log.append(gtxn, branch.last_lsn, LogBody::Abort);
                let mut target = AreaTarget(Arc::clone(&self.areas));
                let _ = undo_transactions(log, vec![(gtxn, a)], &mut target);
                if log.flush_all().is_err() {
                    self.note_log_force_failure();
                }
                Ok(Resolution::Aborted)
            }
        })
    }

    /// Runs `op` under the shared side of the commit gate, then, with the
    /// gate released, takes a checkpoint if one is due. `op`'s result is
    /// returned whatever the checkpoint does.
    fn gated<T>(&self, op: impl FnOnce() -> T) -> T {
        let done = {
            let _gate = self.gate.read();
            op()
        };
        self.checkpoint_if_due();
        done
    }

    /// Takes a checkpoint once [`RESTART_LOG_BYTES`] of log have been
    /// appended since the master's `CheckpointBegin` (since the start of
    /// the log if there is none). Must not be called under the gate:
    /// [`Self::checkpoint`] takes it exclusively.
    ///
    /// One automatic checkpoint runs at a time; a caller that finds one
    /// running skips. A failed one (area sync or log force) feeds the
    /// media gate like a failed area write, and leaves the master where it
    /// was, so the next caller past the threshold tries again.
    fn checkpoint_if_due(&self) {
        let Some(log) = &self.log else {
            return;
        };
        let due = || {
            let since = log.master().max(LOG_START);
            log.next_lsn().0.saturating_sub(since.0) >= RESTART_LOG_BYTES as u64
        };
        if !due() || self.checkpointing.swap(true, Ordering::Acquire) {
            return;
        }
        // Checked again: the checkpoint that finished between the first
        // check and the claim may have been the one that was due.
        if due() && self.checkpoint().is_err() {
            self.accounting.media.note(false);
        }
        self.checkpointing.store(false, Ordering::Release);
    }

    /// Takes a checkpoint, safe to call while commits are running. The
    /// pipeline takes one on its own every [`RESTART_LOG_BYTES`] of log;
    /// an explicit call is not skipped for one already running.
    ///
    /// Committed updates are applied write-through but the areas are not
    /// synced on the commit path, so a checkpoint is what makes them
    /// durable: it appends `CheckpointBegin` with no commit between its
    /// first log record and its apply (the gate), *then* syncs every area,
    /// then writes the tables. The one kind of update that is logged
    /// before the begin record and not applied is a prepared branch's: its
    /// pages go into the dirty page table at the branch's first LSN, so
    /// that a commit decided after the checkpoint is still redone after a
    /// crash, and the branch itself into the transaction table.
    pub fn checkpoint(&self) -> WalResult<()> {
        let mut dirty: Vec<(LogPageId, Lsn)> = Vec::new();
        let mut active: Vec<(u64, Lsn, TxnStatus)> = Vec::new();
        let begin = self.log.as_ref().map(|log| {
            let _no_commit_in_flight = self.gate.write();
            for (g, p) in self.prepared.lock().iter() {
                active.push((*g, p.last_lsn, TxnStatus::Prepared));
                for u in &p.updates {
                    dirty.push((
                        LogPageId {
                            area: u.page.area,
                            page: u.page.page,
                        },
                        p.first_lsn,
                    ));
                }
            }
            (log, begin_checkpoint(log))
        });
        for id in self.areas.ids() {
            if let Some(area) = self.areas.get(id) {
                area.sync().map_err(|e| {
                    std::io::Error::other(format!("checkpoint could not sync area {id}: {e}"))
                })?;
            }
        }
        match begin {
            Some((log, begin)) => end_checkpoint(log, begin, dirty, active),
            None => Ok(()),
        }
    }

    /// Prepared branches awaiting their coordinator's verdict, sorted.
    pub fn in_doubt(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self.prepared.lock().keys().copied().collect();
        v.sort_unstable();
        v
    }

    /// Every prepared branch, for the owner's lock table and reaper.
    pub(crate) fn branches(&self) -> Vec<BranchInfo> {
        self.prepared
            .lock()
            .iter()
            .map(|(gtxn, p)| BranchInfo {
                gtxn: *gtxn,
                shipper: p.shipper,
                prepared_at: p.prepared_at,
                pages: p.updates.iter().map(|u| u.page).collect(),
            })
            .collect()
    }

    /// The log commits are forced to, if there is one.
    pub fn log(&self) -> Option<&Arc<LogManager>> {
        self.log.as_ref()
    }

    pub(crate) fn accounting(&self) -> &Accounting {
        &self.accounting
    }

    /// Records a failed log force: counted, and fed into the media-error
    /// threshold, so a persistently failing log device trips read-only
    /// exactly like a failing storage area. (Successful forces do not
    /// reset the streak themselves — the next applied commit does.)
    pub(crate) fn note_log_force_failure(&self) {
        self.accounting.log_force_failures.inc();
        self.accounting.media.note(false);
    }

    fn force(&self, log: &LogManager, upto: Lsn) -> Result<(), CommitError> {
        log.flush(upto).map_err(|e| {
            self.note_log_force_failure();
            CommitError::LogForce(e)
        })
    }

    /// Applies `updates`, sealing each touched page with `lsn`: one
    /// scatter-gather submission per area (each distinct page read once,
    /// patched, written once); pages the batch could not apply go through
    /// the repair ladder one at a time.
    fn apply(&self, updates: &[PageUpdate], lsn: Lsn) -> Result<(), CommitError> {
        let mut by_area: Vec<(u32, Vec<bess_storage::PageUpdate<'_>>)> = Vec::new();
        for u in updates {
            let patch = bess_storage::PageUpdate {
                page: u.page.page,
                offset: u.offset as usize,
                data: &u.after,
                lsn: lsn.0,
            };
            match by_area.iter_mut().find(|(a, _)| *a == u.page.area) {
                Some((_, v)) => v.push(patch),
                None => by_area.push((u.page.area, vec![patch])),
            }
        }
        for (area_id, batch) in by_area {
            let area = self
                .areas
                .get(area_id)
                .ok_or_else(|| CommitError::Apply(format!("no area {area_id}")))?;
            for (page, res) in area.write_at_lsn_batch(&batch) {
                if res.is_ok() {
                    continue;
                }
                let one: Vec<bess_storage::PageUpdate<'_>> =
                    batch.iter().filter(|u| u.page == page).copied().collect();
                let retried = self.verified(&area, page, || {
                    area.write_at_lsn_batch(&one)
                        .into_iter()
                        .try_for_each(|(_, r)| r)
                });
                if let Err(e) = retried {
                    self.accounting.media.note(false);
                    return Err(CommitError::Apply(e.to_string()));
                }
            }
        }
        self.accounting.media.note(true);
        Ok(())
    }

    /// Runs a verified storage operation with the detect-and-repair
    /// ladder: the area itself already re-read once, so a surviving
    /// checksum/identity failure is escalated to WAL-based page
    /// reconstruction and the operation retried exactly once.
    /// Unrepairable pages are quarantined inside [`repair_page`] and the
    /// failure feeds the media-error threshold; already-quarantined pages
    /// are never re-repaired here (the error passes straight through), and
    /// without a log there is nothing to repair from.
    pub(crate) fn verified<T>(
        &self,
        area: &StorageArea,
        page: u64,
        mut op: impl FnMut() -> Result<T, StorageError>,
    ) -> Result<T, StorageError> {
        let first = op();
        let repairable = matches!(
            &first,
            Err(StorageError::CorruptPage { reason, .. })
                if !matches!(reason, CorruptKind::Quarantined)
        );
        let (true, Some(log)) = (repairable, &self.log) else {
            return first;
        };
        let repaired = repair_page(area, log, page, &self.accounting.integrity);
        self.accounting.media.note(repaired);
        if repaired {
            op()
        } else {
            first
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bess_storage::{AreaConfig, AreaId};

    /// Mem areas 0 and 1 with one allocated page each, a mem log, and a
    /// pipeline over them — no server, no network.
    struct Rig {
        set: Arc<AreaSet>,
        log: Arc<LogManager>,
        pipeline: CommitPipeline,
        pages: [DbPage; 2],
    }

    fn rig() -> Rig {
        let set = Arc::new(AreaSet::new());
        let mut pages = [DbPage { area: 0, page: 0 }; 2];
        for (id, slot) in pages.iter_mut().enumerate() {
            let area = StorageArea::create_mem(AreaId(id as u32), AreaConfig::default()).unwrap();
            *slot = DbPage {
                area: id as u32,
                page: area.alloc(1).unwrap().start_page,
            };
            set.add(Arc::new(area));
        }
        let log = Arc::new(LogManager::create_mem());
        let pipeline = CommitPipeline::new(Arc::clone(&set), Some(Arc::clone(&log)));
        Rig {
            set,
            log,
            pipeline,
            pages,
        }
    }

    fn upd(page: DbPage, offset: u32, after: &[u8]) -> PageUpdate {
        PageUpdate {
            page,
            offset,
            before: vec![0; after.len()],
            after: after.to_vec(),
        }
    }

    fn bytes(set: &AreaSet, page: DbPage, offset: usize, len: usize) -> Vec<u8> {
        let mut buf = vec![0u8; len];
        set.get(page.area)
            .unwrap()
            .read_at(page.page, offset, &mut buf)
            .unwrap();
        buf
    }

    fn page_lsn(set: &AreaSet, page: DbPage) -> u64 {
        set.get(page.area).unwrap().verify_page(page.page).unwrap()
    }

    /// `(txn, body discriminant)` of every record, in log order.
    fn shape(log: &LogManager) -> Vec<(u64, &'static str)> {
        log.iter()
            .map(|r| {
                let kind = match r.body {
                    LogBody::Begin => "begin",
                    LogBody::Update { .. } => "update",
                    LogBody::Commit => "commit",
                    LogBody::Prepare => "prepare",
                    LogBody::Abort => "abort",
                    LogBody::Clr { .. } => "clr",
                    LogBody::End => "end",
                    LogBody::CheckpointBegin => "ckpt-begin",
                    LogBody::CheckpointEnd { .. } => "ckpt-end",
                    LogBody::GlobalDecision { .. } => "decision",
                };
                (r.txn, kind)
            })
            .collect()
    }

    #[test]
    fn commit_logs_forces_stamps_and_ends() {
        let r = rig();
        let [a, b] = r.pages;
        let lsn = r
            .pipeline
            .commit(7, &[upd(a, 0, b"aa"), upd(a, 8, b"bb"), upd(b, 4, b"cc")])
            .unwrap();
        assert_eq!(bytes(&r.set, a, 0, 2), b"aa");
        assert_eq!(bytes(&r.set, a, 8, 2), b"bb");
        assert_eq!(bytes(&r.set, b, 4, 2), b"cc");
        // Every written page carries the commit record's LSN.
        assert_eq!(page_lsn(&r.set, a), lsn.0);
        assert_eq!(page_lsn(&r.set, b), lsn.0);
        assert!(r.log.flushed_lsn() > lsn, "the commit record is forced");
        assert_eq!(
            shape(&r.log),
            [
                (7, "begin"),
                (7, "update"),
                (7, "update"),
                (7, "update"),
                (7, "commit"),
                (7, "end")
            ]
        );
        // Three updates over two pages: one write per page.
        for p in [a, b] {
            let area = r.set.get(p.area).unwrap();
            assert_eq!(area.stats().page_writes.get(), 1);
        }
    }

    #[test]
    fn commit_without_a_log_applies_and_logs_nothing() {
        let r = rig();
        let unlogged = CommitPipeline::new(Arc::clone(&r.set), None);
        assert_eq!(unlogged.commit(1, &[upd(r.pages[0], 0, b"x")]).unwrap(), Lsn::NULL);
        assert_eq!(bytes(&r.set, r.pages[0], 0, 1), b"x");
        assert!(shape(&r.log).is_empty());
        assert!(matches!(
            unlogged.prepare(2, vec![], None),
            Err(CommitError::NoLog)
        ));
        unlogged.checkpoint().unwrap();
    }

    #[test]
    fn prepared_branch_is_logged_not_applied_until_resolved() {
        let r = rig();
        let [a, b] = r.pages;
        r.pipeline.prepare(40, vec![upd(a, 0, b"yes")], Some(9)).unwrap();
        r.pipeline.prepare(41, vec![upd(b, 0, b"no")], None).unwrap();
        assert_eq!(r.pipeline.in_doubt(), [40, 41]);
        assert_eq!(bytes(&r.set, a, 0, 3), [0; 3]);
        let info = r.pipeline.branches();
        let of_40 = info.iter().find(|i| i.gtxn == 40).unwrap();
        assert_eq!((of_40.shipper, of_40.pages.as_slice()), (Some(9), &[a][..]));

        assert_eq!(r.pipeline.resolve(40, true).unwrap(), Resolution::Committed);
        assert_eq!(r.pipeline.resolve(41, false).unwrap(), Resolution::Aborted);
        assert_eq!(r.pipeline.resolve(40, true).unwrap(), Resolution::NotPrepared);
        assert!(r.pipeline.in_doubt().is_empty());
        assert_eq!(bytes(&r.set, a, 0, 3), b"yes");
        assert_eq!(bytes(&r.set, b, 0, 2), [0; 2]);
        let log = shape(&r.log);
        let at = |what| log.iter().position(|e| *e == what).unwrap();
        assert!(at((40, "prepare")) < at((40, "commit")));
        assert!(at((40, "commit")) < at((40, "end")));
        assert!(at((41, "abort")) < at((41, "clr")));
        // The committed branch's page is stamped with its Commit record.
        let commit_lsn = r
            .log
            .iter()
            .find(|rec| rec.txn == 40 && rec.body == LogBody::Commit)
            .unwrap()
            .lsn;
        assert_eq!(page_lsn(&r.set, a), commit_lsn.0);
    }

    /// A checkpoint between prepare and decide names the branch's pages
    /// dirty at its first record, so the decided commit survives a crash
    /// that loses the (unsynced) apply.
    #[test]
    fn checkpoint_carries_prepared_branches_across_a_crash() {
        let r = rig();
        let [a, b] = r.pages;
        r.pipeline.commit(1, &[upd(b, 0, b"kept")]).unwrap();
        r.pipeline.prepare(50, vec![upd(a, 0, b"late")], None).unwrap();
        r.pipeline.checkpoint().unwrap();
        assert!(!r.log.master().is_null());

        // Restart: the branch is in doubt again, write set and all.
        let crashed = Arc::new(r.log.simulate_crash().unwrap());
        let (reopened, report) =
            CommitPipeline::open(Arc::clone(&r.set), Arc::clone(&crashed), Accounting::detached())
                .unwrap();
        assert_eq!(report.in_doubt, [50]);
        assert_eq!(reopened.in_doubt(), [50]);
        assert_eq!(reopened.branches()[0].pages, [a]);
        assert_eq!(bytes(&r.set, b, 0, 4), b"kept");

        assert_eq!(reopened.resolve(50, true).unwrap(), Resolution::Committed);
        assert_eq!(bytes(&r.set, a, 0, 4), b"late");
        let (_, report) = CommitPipeline::open(
            Arc::clone(&r.set),
            Arc::new(crashed.simulate_crash().unwrap()),
            Accounting::detached(),
        )
        .unwrap();
        assert!(report.in_doubt.is_empty() && report.losers.is_empty());
    }

    #[test]
    fn write_sets_of_reads_back_what_log_write_set_wrote() {
        let r = rig();
        let [a, b] = r.pages;
        let ups = vec![upd(a, 0, b"one"), upd(b, 16, b"two")];
        let (first, last) = log_write_set(&r.log, 5, &ups, LogBody::Commit);
        log_write_set(&r.log, 6, &[upd(a, 32, b"other")], LogBody::Prepare);
        let mut sets = write_sets_of(&r.log, &HashSet::from([5, 99]));
        let five = sets.remove(&5).unwrap();
        assert_eq!((five.first, five.last), (first, last));
        assert_eq!(five.updates, ups);
        let absent = sets.remove(&99).unwrap();
        assert!(absent.updates.is_empty() && absent.last.is_null());
        assert!(sets.is_empty(), "only the requested transactions");
    }

    /// A rotted destination page is rebuilt from the log — this commit's
    /// own record included — and the write retried once.
    #[test]
    fn commit_repairs_a_rotted_destination_page() {
        use bess_storage::{FaultKind, FaultPlan, OpClass, PAGE_HDR};

        let (disk, set, page) = faulty_area(1);
        let page = DbPage { area: 0, page };
        let slot = (PAGE_HDR + set.get(0).unwrap().page_size()) as u64;
        let log = Arc::new(LogManager::create_mem());
        let pipeline = CommitPipeline::new(Arc::clone(&set), Some(log));

        // The first commit's page write rots on the platter.
        disk.arm(FaultPlan::armed(
            OpClass::Write,
            0,
            FaultKind::BitRot {
                offset: page.page * slot + PAGE_HDR as u64 + 100,
                mask: 0x10,
            },
        ));
        pipeline.commit(1, &[upd(page, 0, b"first")]).unwrap();
        assert!(set.get(0).unwrap().verify_page(page.page).is_err());

        let lsn = pipeline.commit(2, &[upd(page, 8, b"second")]).unwrap();
        assert_eq!(bytes(&set, page, 0, 5), b"first");
        assert_eq!(bytes(&set, page, 8, 6), b"second");
        assert_eq!(page_lsn(&set, page), lsn.0);
        let acc = pipeline.accounting();
        assert_eq!(acc.integrity.detected.get(), 1);
        assert_eq!(acc.integrity.repaired.get(), 1);
    }

    /// Update length of the checkpoint tests: about half a default page, so
    /// a few hundred commits pass [`RESTART_LOG_BYTES`].
    const HALF_PAGE: usize = 2000;

    /// Area 0 on a [`bess_storage::FaultDisk`] with `pages` allocated pages,
    /// synced; returns the disk, the area set and the first page.
    fn faulty_area(pages: u32) -> (Arc<bess_storage::FaultDisk>, Arc<AreaSet>, u64) {
        use bess_storage::{FaultDisk, FaultPlan};
        let disk = FaultDisk::new(FaultPlan::unarmed());
        let cfg = AreaConfig::default();
        let area = StorageArea::create_faulty(AreaId(0), cfg, Arc::clone(&disk)).unwrap();
        let first = area.alloc(pages).unwrap().start_page;
        area.sync().unwrap();
        let set = Arc::new(AreaSet::new());
        set.add(Arc::new(area));
        (disk, set, first)
    }

    /// Commits worth 2.5 × [`RESTART_LOG_BYTES`] of log move the master
    /// exactly twice, each time a threshold past the last, and a restart
    /// then analyses fewer records than one threshold's worth.
    #[test]
    fn commits_checkpoint_every_restart_log_bytes() {
        let r = rig();
        let threshold = RESTART_LOG_BYTES as u64;
        let mut masters = vec![r.log.master()];
        let mut txn = 0;
        while r.log.next_lsn().0 < LOG_START.0 + threshold * 5 / 2 {
            txn += 1;
            let page = r.pages[txn as usize % 2];
            r.pipeline.commit(txn, &[upd(page, 0, &[txn as u8; HALF_PAGE])]).unwrap();
            if r.log.master() != masters[masters.len() - 1] {
                masters.push(r.log.master());
            }
        }
        assert_eq!(masters.len(), 3, "the master moved exactly twice: {masters:?}");
        assert_eq!(r.log.stats().checkpoints.get(), 2);
        assert!(masters[1].0 >= LOG_START.0 + threshold, "{masters:?}");
        assert!(masters[2].0 >= masters[1].0 + threshold, "{masters:?}");

        let one_threshold = r
            .log
            .iter()
            .take_while(|rec| rec.lsn.0 < LOG_START.0 + threshold)
            .count() as u64;
        let crashed = r.log.simulate_crash().unwrap();
        let report = recover(&crashed, &mut bess_wal::MemTarget::default()).unwrap();
        assert!(
            report.scanned < one_threshold,
            "scanned {} records; one threshold holds {one_threshold}",
            report.scanned
        );
    }

    /// Four committers across several thresholds. The automatic
    /// checkpoints never overlap: in log order every `CheckpointEnd`
    /// follows its own begin with no other begin between. And every
    /// acknowledged commit is on its page after a crash that loses every
    /// area write no checkpoint synced.
    #[test]
    fn concurrent_commits_checkpoint_one_at_a_time_and_lose_nothing() {
        const THREADS: u64 = 4;
        let (disk, set, first) = faulty_area(THREADS as u32);
        let log = Arc::new(LogManager::create_mem());
        let pipeline = CommitPipeline::new(Arc::clone(&set), Some(Arc::clone(&log)));
        let end = LOG_START.0 + 4 * RESTART_LOG_BYTES as u64;
        let start = std::sync::Barrier::new(THREADS as usize);
        // Per committer: the last value it was acknowledged for its page.
        let acked: Vec<u64> = std::thread::scope(|s| {
            let committers: Vec<_> = (0..THREADS)
                .map(|t| {
                    let (pipeline, log, start) = (&pipeline, &log, &start);
                    s.spawn(move || {
                        let page = DbPage {
                            area: 0,
                            page: first + t,
                        };
                        start.wait();
                        let mut last = 0u64;
                        while log.next_lsn().0 < end {
                            let v = last + 1;
                            let mut after = vec![0u8; HALF_PAGE];
                            after[..8].copy_from_slice(&v.to_le_bytes());
                            pipeline.commit(t << 32 | v, &[upd(page, 0, &after)]).unwrap();
                            last = v;
                        }
                        last
                    })
                })
                .collect();
            committers.into_iter().map(|c| c.join().unwrap()).collect()
        });

        let mut open: Option<Lsn> = None;
        let mut ends = 0;
        for rec in log.iter() {
            match rec.body {
                LogBody::CheckpointBegin => {
                    assert_eq!(open, None, "a checkpoint began inside another");
                    open = Some(rec.lsn);
                }
                LogBody::CheckpointEnd { .. } => {
                    assert_eq!(Some(rec.prev_lsn), open.take(), "an end without its begin");
                    ends += 1;
                }
                _ => {}
            }
        }
        assert!(ends >= 3, "{ends} checkpoints over four thresholds");
        assert_eq!(log.stats().checkpoints.get(), ends);

        disk.crash();
        disk.reopen(bess_storage::FaultPlan::unarmed());
        let set = Arc::new(AreaSet::new());
        set.add(Arc::new(StorageArea::open_faulty(AreaId(0), disk, true).unwrap()));
        let crashed = log.simulate_crash().unwrap();
        let report = recover(&crashed, &mut AreaTarget(Arc::clone(&set))).unwrap();
        assert!(report.losers.is_empty(), "{report:?}");
        for (t, &want) in acked.iter().enumerate() {
            assert!(want > 0, "committer {t} ran");
            let page = DbPage {
                area: 0,
                page: first + t as u64,
            };
            let got = u64::from_le_bytes(bytes(&set, page, 0, 8).try_into().unwrap());
            assert_eq!(got, want, "committer {t}'s page after the crash");
        }
    }

    /// An automatic checkpoint whose area sync fails: the commit that took
    /// it still succeeds, the failure reaches the media gate, the master
    /// stays where it was, and the next commit past the threshold takes
    /// the checkpoint again.
    #[test]
    fn a_failed_automatic_checkpoint_feeds_the_media_gate_and_is_retried() {
        use bess_storage::{FaultKind, FaultPlan, OpClass};
        let (disk, set, page) = faulty_area(1);
        let page = DbPage { area: 0, page };
        let log = Arc::new(LogManager::create_mem());
        let pipeline = CommitPipeline {
            accounting: Accounting {
                media: Arc::new(MediaGate::new(1)),
                ..Accounting::detached()
            },
            ..CommitPipeline::new(set, Some(Arc::clone(&log)))
        };
        disk.arm(FaultPlan::armed(OpClass::Sync, 0, FaultKind::Eio));
        let mut txn = 0;
        while log.next_lsn().0 < LOG_START.0 + RESTART_LOG_BYTES as u64 {
            txn += 1;
            pipeline
                .commit(txn, &[upd(page, 0, &[txn as u8; HALF_PAGE])])
                .expect("a commit returns its own result, not its checkpoint's");
        }
        assert!(pipeline.accounting().media.is_read_only(), "the failure was noted");
        assert!(log.master().is_null(), "no checkpoint completed");
        assert_eq!(log.stats().checkpoints.get(), 0);

        pipeline.commit(txn + 1, &[upd(page, 0, b"again")]).unwrap();
        assert!(!log.master().is_null(), "the next commit checkpointed");
        assert_eq!(log.stats().checkpoints.get(), 1);
    }
}
