//! ARIES-style restart recovery: analysis, redo, undo.
//!
//! Recovery proceeds in the three classic passes over the log:
//!
//! 1. **Analysis** — from the last checkpoint, rebuild the active
//!    transaction table (ATT) and dirty page table (DPT).
//! 2. **Redo** — from the minimum recovery LSN in the DPT, re-apply the
//!    after-images of updates and CLR images ("repeating history"). The
//!    scan buffers each dirty page's images in log order and hands the
//!    target one page at a time ([`RedoTarget::redo_page`]), so a page
//!    costs one read-modify-write however many records touched it. The
//!    buffer is a bounded window ([`RESTART_LOG_BYTES`]), emptied whenever
//!    it fills and before undo starts.
//! 3. **Undo** — roll back loser transactions newest-record-first, writing
//!    compensation records (CLRs) chained with `undo_next` so undo itself
//!    is idempotent across repeated crashes.
//!
//! Updates are physical byte-range images, so redo/undo application is
//! idempotent at the byte level. Transactions that logged `Prepare` but no
//! outcome are **in doubt** and are neither redone away nor undone; they are
//! reported to the caller (the 2PC participant) for resolution.

use std::collections::HashMap;

use crate::log::{LogManager, WalError, WalResult, LOG_START};
use crate::lsn::Lsn;
use crate::record::{LogBody, LogPageId, TxnStatus};

/// How much log a restart should have to read, in bytes. It sets two
/// things that go together: a commit pipeline takes a checkpoint once this
/// much log has been appended since the last one, and the redo scan buffers
/// this many bytes of images (plus bookkeeping) before it hands the
/// buffered pages to the target. A restart after a checkpoint therefore
/// analyses about this much log and redoes it in about one window.
pub const RESTART_LOG_BYTES: usize = 1 << 20;

/// One buffered redo image: an update's after-image or a CLR's image.
#[derive(Debug)]
pub struct RedoPatch {
    /// Byte offset within the page.
    pub offset: u32,
    /// The bytes to write there.
    pub bytes: Vec<u8>,
    /// The LSN of the record that logged them.
    pub lsn: Lsn,
}

/// Where redo/undo images are applied: the buffer cache or storage layer.
pub trait RedoTarget {
    /// Writes `bytes` at byte `offset` of `page`.
    ///
    /// An `Err` aborts recovery with [`WalError::RedoFailed`] — a target
    /// that cannot persist an image must not let recovery report success.
    fn apply(&mut self, page: LogPageId, offset: u32, bytes: &[u8]) -> Result<(), String>;

    /// Like [`RedoTarget::apply`], but carries the log record's LSN.
    /// Targets that seal per-page integrity headers (storage areas) stamp
    /// it as the page's recovery LSN; the default ignores it.
    fn apply_lsn(
        &mut self,
        page: LogPageId,
        offset: u32,
        bytes: &[u8],
        lsn: Lsn,
    ) -> Result<(), String> {
        let _ = lsn;
        self.apply(page, offset, bytes)
    }

    /// Redoes `page` from `patches`, which are in log order: the outcome
    /// must be that of [`RedoTarget::apply_lsn`] on each in turn, the last
    /// one's LSN ending up as the page's. Storage targets override this to
    /// restore the page with one read and one write. An `Err` fails
    /// recovery like one from `apply`.
    fn redo_page(&mut self, page: LogPageId, patches: &[RedoPatch]) -> Result<(), String> {
        for p in patches {
            self.apply_lsn(page, p.offset, &p.bytes, p.lsn)?;
        }
        Ok(())
    }
}

/// The redo scan's buffer: the images of each dirty page in log order,
/// pages in the order the scan first met them.
#[derive(Default)]
struct RedoWindow {
    pages: Vec<(LogPageId, Vec<RedoPatch>)>,
    index: HashMap<LogPageId, usize>,
    bytes: usize,
}

impl RedoWindow {
    fn push(&mut self, page: LogPageId, patch: RedoPatch) {
        self.bytes += patch.bytes.len() + std::mem::size_of::<RedoPatch>();
        let at = *self.index.entry(page).or_insert_with(|| {
            self.pages.push((page, Vec::new()));
            self.pages.len() - 1
        });
        self.pages[at].1.push(patch);
    }

    /// Hands every buffered page to `target` and empties the window.
    fn flush(&mut self, log: &LogManager, target: &mut dyn RedoTarget) -> WalResult<()> {
        for (page, patches) in self.pages.drain(..) {
            target
                .redo_page(page, &patches)
                .map_err(WalError::RedoFailed)?;
            log.stats().recovery_pages_restored.inc();
        }
        self.index.clear();
        self.bytes = 0;
        Ok(())
    }
}

/// A trivial in-memory [`RedoTarget`] keyed by page, used in tests and by
/// the recovery benchmarks.
#[derive(Debug, Default)]
pub struct MemTarget {
    /// Page images (sized on demand).
    pub pages: HashMap<LogPageId, Vec<u8>>,
}

impl RedoTarget for MemTarget {
    fn apply(&mut self, page: LogPageId, offset: u32, bytes: &[u8]) -> Result<(), String> {
        let image = self.pages.entry(page).or_default();
        let end = offset as usize + bytes.len();
        if image.len() < end {
            image.resize(end, 0);
        }
        image[offset as usize..end].copy_from_slice(bytes);
        Ok(())
    }
}

/// What restart recovery did.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Records scanned during analysis.
    pub scanned: u64,
    /// Update/CLR images re-applied during redo.
    pub redone: u64,
    /// Updates rolled back during undo.
    pub undone: u64,
    /// CLRs written during undo.
    pub clrs: u64,
    /// Transactions found committed (their `End` is written if missing).
    pub winners: Vec<u64>,
    /// Transactions rolled back.
    pub losers: Vec<u64>,
    /// Prepared transactions awaiting the 2PC coordinator's verdict.
    pub in_doubt: Vec<u64>,
    /// Where redo began.
    pub redo_start: Lsn,
}

#[derive(Clone, Copy, Debug)]
struct AttEntry {
    last_lsn: Lsn,
    status: TxnStatus,
}

/// Runs full restart recovery over `log`, applying images to `target`.
///
/// Afterwards the log contains the CLRs and `End` records written during
/// undo, and has been flushed.
pub fn recover(log: &LogManager, target: &mut dyn RedoTarget) -> WalResult<RecoveryReport> {
    let mut report = RecoveryReport::default();

    // ---- Analysis ------------------------------------------------------
    let start = if log.master().is_null() {
        LOG_START
    } else {
        log.master()
    };
    let mut att: HashMap<u64, AttEntry> = HashMap::new();
    let mut dpt: HashMap<LogPageId, Lsn> = HashMap::new();
    let mut scan = log.iter_from(start);
    for rec in scan.by_ref() {
        report.scanned += 1;
        match &rec.body {
            LogBody::Begin => {
                att.insert(
                    rec.txn,
                    AttEntry {
                        last_lsn: rec.lsn,
                        status: TxnStatus::Active,
                    },
                );
            }
            LogBody::Update { page, .. } | LogBody::Clr { page, .. } => {
                let entry = att.entry(rec.txn).or_insert(AttEntry {
                    last_lsn: rec.lsn,
                    status: TxnStatus::Active,
                });
                entry.last_lsn = rec.lsn;
                dpt.entry(*page).or_insert(rec.lsn);
            }
            LogBody::Prepare => {
                if let Some(entry) = att.get_mut(&rec.txn) {
                    entry.status = TxnStatus::Prepared;
                    entry.last_lsn = rec.lsn;
                }
            }
            LogBody::Commit => {
                if let Some(entry) = att.get_mut(&rec.txn) {
                    entry.status = TxnStatus::Committed;
                    entry.last_lsn = rec.lsn;
                }
            }
            LogBody::Abort => {
                if let Some(entry) = att.get_mut(&rec.txn) {
                    entry.status = TxnStatus::Active; // undo still required
                    entry.last_lsn = rec.lsn;
                }
            }
            // A 2PC coordinator's decision record. Coordinator rounds log
            // no `Begin` and carry no page images, so there is normally no
            // ATT entry to touch — the record matters to the *server's*
            // restart pass (rebuilding the decision table and re-sending
            // unacknowledged commit verdicts), not to redo/undo. Mirror
            // the bare Commit/Abort handling for robustness.
            LogBody::GlobalDecision { commit, .. } => {
                if let Some(entry) = att.get_mut(&rec.txn) {
                    entry.status = if *commit {
                        TxnStatus::Committed
                    } else {
                        TxnStatus::Active
                    };
                    entry.last_lsn = rec.lsn;
                }
            }
            LogBody::End => {
                att.remove(&rec.txn);
            }
            LogBody::CheckpointBegin => {}
            LogBody::CheckpointEnd {
                dirty_pages,
                active_txns,
            } => {
                for (page, rec_lsn) in dirty_pages {
                    dpt.entry(*page).or_insert(*rec_lsn);
                }
                for (txn, last_lsn, status) in active_txns {
                    att.entry(*txn).or_insert(AttEntry {
                        last_lsn: *last_lsn,
                        status: *status,
                    });
                }
            }
        }
    }
    // An iterator stopping early because a mid-log record is corrupt must
    // abort recovery, not silently truncate history at the bad record.
    scan.finish()?;

    // ---- Redo ----------------------------------------------------------
    let redo_start = dpt.values().min().copied().unwrap_or(Lsn::NULL);
    report.redo_start = redo_start;
    if !dpt.is_empty() {
        let mut redo = log.iter_from(redo_start);
        let mut window = RedoWindow::default();
        for rec in redo.by_ref() {
            let (page, offset, bytes) = match rec.body {
                LogBody::Update {
                    page,
                    offset,
                    after,
                    ..
                } => (page, offset, after),
                LogBody::Clr {
                    page,
                    offset,
                    image,
                    ..
                } => (page, offset, image),
                _ => continue,
            };
            // Not dirty, or already on disk as of this record.
            if dpt.get(&page).is_none_or(|&rl| rec.lsn < rl) {
                continue;
            }
            window.push(
                page,
                RedoPatch {
                    offset,
                    bytes,
                    lsn: rec.lsn,
                },
            );
            report.redone += 1;
            if window.bytes >= RESTART_LOG_BYTES {
                window.flush(log, target)?;
            }
        }
        redo.finish()?;
        // Undo reads and rewrites these pages: history first.
        window.flush(log, target)?;
    }

    // ---- Classify ------------------------------------------------------
    let mut losers: Vec<(u64, Lsn)> = Vec::new();
    for (&txn, entry) in &att {
        match entry.status {
            TxnStatus::Active => {
                report.losers.push(txn);
                losers.push((txn, entry.last_lsn));
            }
            TxnStatus::Prepared => report.in_doubt.push(txn),
            TxnStatus::Committed => report.winners.push(txn),
        }
    }
    report.winners.sort_unstable();
    report.losers.sort_unstable();
    report.in_doubt.sort_unstable();

    // Winners just need their End written.
    for &txn in &report.winners {
        let Some(entry) = att.get(&txn) else {
            return Err(crate::log::WalError::Corrupt(format!(
                "winner txn {txn} vanished from the transaction table"
            )));
        };
        log.append(txn, entry.last_lsn, LogBody::End);
    }

    // ---- Undo ----------------------------------------------------------
    let (undone, clrs) = undo_transactions(log, losers, target)?;
    report.undone = undone;
    report.clrs = clrs;

    log.flush_all()?;
    Ok(report)
}

/// Rolls back the given transactions (each with its newest LSN), applying
/// before-images via `target` and writing CLRs and `End` records. Returns
/// `(updates undone, CLRs written)`.
///
/// This routine is shared between restart recovery and runtime abort.
pub fn undo_transactions(
    log: &LogManager,
    losers: Vec<(u64, Lsn)>,
    target: &mut dyn RedoTarget,
) -> WalResult<(u64, u64)> {
    let mut undone = 0;
    let mut clrs = 0;
    // Track each loser's latest log record (for CLR prev_lsn chaining).
    let mut last_lsn: HashMap<u64, Lsn> = losers.iter().map(|&(t, l)| (t, l)).collect();
    // Undo newest-first across all losers.
    let mut heap: std::collections::BinaryHeap<(Lsn, u64)> = losers
        .into_iter()
        .filter(|(_, l)| !l.is_null())
        .map(|(t, l)| (l, t))
        .collect();

    while let Some((lsn, txn)) = heap.pop() {
        let Some(rec) = log.read_record_at(lsn)? else {
            return Err(crate::log::WalError::BadLsn(lsn));
        };
        debug_assert_eq!(rec.txn, txn, "undo followed a foreign chain");
        match rec.body {
            LogBody::Update {
                page,
                offset,
                before,
                ..
            } => {
                // CLR first, apply second: the page is stamped with the
                // CLR's LSN (ARIES page-LSN discipline), and if the apply
                // fails recovery aborts — a logged-but-unapplied CLR is
                // harmless because redo repeats its image.
                let clr = log.append(
                    txn,
                    chain_lsn(&last_lsn, txn)?,
                    LogBody::Clr {
                        page,
                        offset,
                        image: before.clone(),
                        undo_next: rec.prev_lsn,
                    },
                );
                target
                    .apply_lsn(page, offset, &before, clr)
                    .map_err(crate::log::WalError::RedoFailed)?;
                undone += 1;
                last_lsn.insert(txn, clr);
                clrs += 1;
                push_or_end(log, &mut heap, txn, rec.prev_lsn, &last_lsn)?;
            }
            LogBody::Clr { undo_next, .. } => {
                push_or_end(log, &mut heap, txn, undo_next, &last_lsn)?;
            }
            LogBody::Begin => {
                log.append(txn, chain_lsn(&last_lsn, txn)?, LogBody::End);
            }
            // Abort/Prepare/Commit records in a loser chain: skip backwards.
            _ => {
                push_or_end(log, &mut heap, txn, rec.prev_lsn, &last_lsn)?;
            }
        }
    }
    Ok((undone, clrs))
}

/// The newest LSN logged for `txn` during undo. Every transaction in the
/// heap was seeded into `last_lsn`, so a miss means the undo chains were
/// corrupted (e.g. a CLR pointing into a foreign transaction).
fn chain_lsn(last_lsn: &HashMap<u64, Lsn>, txn: u64) -> WalResult<Lsn> {
    last_lsn.get(&txn).copied().ok_or_else(|| {
        crate::log::WalError::Corrupt(format!("undo reached untracked txn {txn}"))
    })
}

fn push_or_end(
    log: &LogManager,
    heap: &mut std::collections::BinaryHeap<(Lsn, u64)>,
    txn: u64,
    next: Lsn,
    last_lsn: &HashMap<u64, Lsn>,
) -> WalResult<()> {
    if next.is_null() {
        log.append(txn, chain_lsn(last_lsn, txn)?, LogBody::End);
    } else {
        heap.push((next, txn));
    }
    Ok(())
}

/// Takes a fuzzy checkpoint: logs the dirty page table and active
/// transaction table, flushes, and durably updates the master pointer.
/// Returns the checkpoint's `CheckpointBegin` LSN.
pub fn take_checkpoint(
    log: &LogManager,
    dirty_pages: Vec<(LogPageId, Lsn)>,
    active_txns: Vec<(u64, Lsn, TxnStatus)>,
) -> WalResult<Lsn> {
    let begin = begin_checkpoint(log);
    end_checkpoint(log, begin, dirty_pages, active_txns)?;
    Ok(begin)
}

/// First half of [`take_checkpoint`], for a caller that has work to do
/// between the two records (making data pages durable): appends
/// `CheckpointBegin` and returns its LSN. Restart analysis scans from
/// here, so the tables passed to [`end_checkpoint`] need only describe
/// what was logged *before* this record.
pub fn begin_checkpoint(log: &LogManager) -> Lsn {
    log.append(0, Lsn::NULL, LogBody::CheckpointBegin)
}

/// Second half of [`take_checkpoint`]: logs the tables, flushes, and
/// durably points the master record at `begin`. Counts the checkpoint in
/// `wal.checkpoints` once the master has moved.
pub fn end_checkpoint(
    log: &LogManager,
    begin: Lsn,
    dirty_pages: Vec<(LogPageId, Lsn)>,
    active_txns: Vec<(u64, Lsn, TxnStatus)>,
) -> WalResult<()> {
    let end = log.append(
        0,
        begin,
        LogBody::CheckpointEnd {
            dirty_pages,
            active_txns,
        },
    );
    log.flush(end)?;
    log.set_master(begin)?;
    log.stats().checkpoints.inc();
    Ok(())
}

/// Convenience for tests: the latest state of `page` after applying a
/// sequence of log records in order (what a correct redo should produce).
pub fn replay_all(log: &LogManager) -> MemTarget {
    let mut target = MemTarget::default();
    let mut committed: std::collections::HashSet<u64> = std::collections::HashSet::new();
    for rec in log.iter() {
        if let LogBody::Commit = rec.body {
            committed.insert(rec.txn);
        }
    }
    for rec in log.iter() {
        match rec.body {
            LogBody::Update {
                page,
                offset,
                ref after,
                ..
            } if committed.contains(&rec.txn) => {
                // LINT: allow(panic) — MemTarget::apply always returns Ok
                target
                    .apply(page, offset, after)
                    .expect("MemTarget apply is infallible");
            }
            _ => {}
        }
    }
    target
}

/// The LSN of the newest *committed* update record touching each page,
/// from a full (error-checked) log scan.
///
/// A correctly written page carries a header LSN **at or above** this
/// floor: the server stamps the commit LSN (which is newer than every
/// update it covers) on apply, and recovery stamps each redone update's
/// own LSN. A page whose header LSN is *below* the floor never saw its
/// newest committed update hit the disk — a lost write, which the deep
/// scrub pass flags even though the stale image checksums perfectly.
pub fn committed_page_lsns(log: &LogManager) -> WalResult<HashMap<LogPageId, Lsn>> {
    let mut commit_lsn: HashMap<u64, Lsn> = HashMap::new();
    let mut scan = log.iter();
    for rec in scan.by_ref() {
        if let LogBody::Commit = rec.body {
            commit_lsn.insert(rec.txn, rec.lsn);
        }
    }
    scan.finish()?;

    let mut pages: HashMap<LogPageId, Lsn> = HashMap::new();
    let mut scan = log.iter();
    for rec in scan.by_ref() {
        if let LogBody::Update { page, .. } = rec.body {
            // Only updates covered by a *later* commit of the same txn
            // count — guards against transaction-id reuse across runs.
            if let Some(&c) = commit_lsn.get(&rec.txn) {
                if c > rec.lsn {
                    let entry = pages.entry(page).or_insert(Lsn::NULL);
                    if rec.lsn > *entry {
                        *entry = rec.lsn;
                    }
                }
            }
        }
    }
    scan.finish()?;
    Ok(pages)
}

/// Rebuilds the committed image of one page by replaying every committed
/// update to it in log order over a zeroed `page_size` buffer — the last
/// rung of the read-repair ladder, used when both the cached and durable
/// copies of a page fail verification.
///
/// Returns the image together with the commit LSN of the newest
/// transaction that touched the page (the LSN to reseal the slot with),
/// or `None` if no committed update covers the page — in which case the
/// log cannot vouch for any content and the page must be quarantined.
///
/// Sound only for pages whose every mutation is logged (the server's
/// transactional data pages); pages written outside the log's view cannot
/// be reconstructed from it.
pub fn reconstruct_page(
    log: &LogManager,
    page: LogPageId,
    page_size: usize,
) -> WalResult<Option<(Vec<u8>, Lsn)>> {
    let mut commit_lsn: HashMap<u64, Lsn> = HashMap::new();
    let mut scan = log.iter();
    for rec in scan.by_ref() {
        if let LogBody::Commit = rec.body {
            commit_lsn.insert(rec.txn, rec.lsn);
        }
    }
    scan.finish()?;

    let mut image = vec![0u8; page_size];
    let mut newest = Lsn::NULL;
    let mut touched = false;
    let mut scan = log.iter();
    for rec in scan.by_ref() {
        let LogBody::Update {
            page: p,
            offset,
            ref after,
            ..
        } = rec.body
        else {
            continue;
        };
        if p != page {
            continue;
        }
        let Some(&c) = commit_lsn.get(&rec.txn) else {
            continue;
        };
        if c < rec.lsn {
            continue; // update from a later, uncommitted reuse of the id
        }
        let start = offset as usize;
        let end = start.saturating_add(after.len());
        if end > page_size {
            return Err(WalError::Corrupt(format!(
                "update at {} overflows the {page_size}-byte page",
                rec.lsn
            )));
        }
        image[start..end].copy_from_slice(after);
        touched = true;
        if c > newest {
            newest = c;
        }
    }
    scan.finish()?;
    Ok(if touched { Some((image, newest)) } else { None })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page(p: u64) -> LogPageId {
        LogPageId { area: 0, page: p }
    }

    /// Runs a transaction that writes `values` to pages, optionally
    /// committing and flushing.
    fn run_txn(
        log: &LogManager,
        target: &mut MemTarget,
        txn: u64,
        writes: &[(u64, u8, u8)],
        commit: bool,
        flush: bool,
    ) -> Lsn {
        let mut prev = log.append(txn, Lsn::NULL, LogBody::Begin);
        for &(p, before, after) in writes {
            target.apply(page(p), 0, &[after]).unwrap();
            prev = log.append(
                txn,
                prev,
                LogBody::Update {
                    page: page(p),
                    offset: 0,
                    before: vec![before],
                    after: vec![after],
                },
            );
        }
        if commit {
            prev = log.append(txn, prev, LogBody::Commit);
        }
        if flush {
            log.flush(prev).unwrap();
        }
        prev
    }

    #[test]
    fn committed_txn_survives_crash() {
        let log = LogManager::create_mem();
        let mut cache = MemTarget::default();
        run_txn(&log, &mut cache, 1, &[(1, 0, 7), (2, 0, 8)], true, true);

        // Crash: cache lost, only the log survives.
        let recovered_log = log.simulate_crash().unwrap();
        let mut disk = MemTarget::default(); // pages never made it to disk
        let report = recover(&recovered_log, &mut disk).unwrap();
        assert_eq!(report.winners, vec![1]);
        assert!(report.losers.is_empty());
        assert_eq!(disk.pages[&page(1)][0], 7);
        assert_eq!(disk.pages[&page(2)][0], 8);
        assert_eq!(report.redone, 2);
    }

    #[test]
    fn uncommitted_txn_is_undone() {
        let log = LogManager::create_mem();
        let mut cache = MemTarget::default();
        // Dirty page 1 was flushed to disk before the crash (steal).
        run_txn(&log, &mut cache, 1, &[(1, 0, 7)], false, true);
        let recovered_log = log.simulate_crash().unwrap();
        let mut disk = MemTarget::default();
        disk.apply(page(1), 0, &[7]).unwrap(); // the stolen page made it to disk
        let report = recover(&recovered_log, &mut disk).unwrap();
        assert_eq!(report.losers, vec![1]);
        assert_eq!(report.undone, 1);
        assert_eq!(report.clrs, 1);
        assert_eq!(disk.pages[&page(1)][0], 0, "before-image restored");
        // An End record was written for the loser.
        assert!(recovered_log
            .iter()
            .any(|r| r.txn == 1 && r.body == LogBody::End));
    }

    #[test]
    fn mixed_winners_and_losers() {
        let log = LogManager::create_mem();
        let mut cache = MemTarget::default();
        run_txn(&log, &mut cache, 1, &[(1, 0, 10)], true, true);
        run_txn(&log, &mut cache, 2, &[(2, 0, 20)], false, true);
        run_txn(&log, &mut cache, 3, &[(3, 0, 30), (1, 10, 11)], true, true);

        let recovered_log = log.simulate_crash().unwrap();
        let mut disk = MemTarget::default();
        let report = recover(&recovered_log, &mut disk).unwrap();
        assert_eq!(report.winners, vec![1, 3]);
        assert_eq!(report.losers, vec![2]);
        assert_eq!(disk.pages[&page(1)][0], 11, "txn3 overwrote txn1");
        assert_eq!(disk.pages[&page(2)][0], 0, "txn2 rolled back");
        assert_eq!(disk.pages[&page(3)][0], 30);
    }

    #[test]
    fn unflushed_commit_is_a_loser() {
        let log = LogManager::create_mem();
        let mut cache = MemTarget::default();
        let mut prev = log.append(1, Lsn::NULL, LogBody::Begin);
        prev = log.append(
            1,
            prev,
            LogBody::Update {
                page: page(1),
                offset: 0,
                before: vec![0],
                after: vec![9],
            },
        );
        log.flush(prev).unwrap();
        log.append(1, prev, LogBody::Commit); // never flushed
        let _ = &mut cache;

        let recovered_log = log.simulate_crash().unwrap();
        let mut disk = MemTarget::default();
        disk.apply(page(1), 0, &[9]).unwrap();
        let report = recover(&recovered_log, &mut disk).unwrap();
        assert_eq!(report.losers, vec![1], "commit record did not survive");
        assert_eq!(disk.pages[&page(1)][0], 0);
    }

    #[test]
    fn prepared_txn_is_in_doubt_and_untouched() {
        let log = LogManager::create_mem();
        let mut prev = log.append(1, Lsn::NULL, LogBody::Begin);
        prev = log.append(
            1,
            prev,
            LogBody::Update {
                page: page(1),
                offset: 0,
                before: vec![0],
                after: vec![5],
            },
        );
        prev = log.append(1, prev, LogBody::Prepare);
        log.flush(prev).unwrap();

        let recovered_log = log.simulate_crash().unwrap();
        let mut disk = MemTarget::default();
        let report = recover(&recovered_log, &mut disk).unwrap();
        assert_eq!(report.in_doubt, vec![1]);
        assert!(report.losers.is_empty());
        assert_eq!(disk.pages[&page(1)][0], 5, "in-doubt effects redone, not undone");
    }

    #[test]
    fn checkpoint_shortens_analysis() {
        let log = LogManager::create_mem();
        let mut cache = MemTarget::default();
        for t in 0..20 {
            run_txn(&log, &mut cache, t, &[(t, 0, 1)], true, true);
        }
        // All pages clean (pretend they were flushed); empty tables.
        take_checkpoint(&log, vec![], vec![]).unwrap();
        assert_eq!(log.stats().checkpoints.get(), 1);
        run_txn(&log, &mut cache, 100, &[(50, 0, 4)], true, true);

        let recovered_log = log.simulate_crash().unwrap();
        let mut disk = MemTarget::default();
        let report = recover(&recovered_log, &mut disk).unwrap();
        // Analysis started at the checkpoint: only ckpt-end + 3 records of
        // txn 100 scanned.
        assert!(report.scanned <= 5, "scanned {} records", report.scanned);
        assert_eq!(report.winners, vec![100]);
        assert_eq!(disk.pages[&page(50)][0], 4);
        assert!(!disk.pages.contains_key(&page(3)), "pre-checkpoint pages not redone");
    }

    #[test]
    fn checkpoint_carries_active_txn() {
        let log = LogManager::create_mem();
        let mut cache = MemTarget::default();
        // Txn 1 starts, updates, then a checkpoint records it as active.
        let mut prev = log.append(1, Lsn::NULL, LogBody::Begin);
        prev = log.append(
            1,
            prev,
            LogBody::Update {
                page: page(1),
                offset: 0,
                before: vec![0],
                after: vec![3],
            },
        );
        cache.apply(page(1), 0, &[3]).unwrap();
        take_checkpoint(
            &log,
            vec![(page(1), prev)],
            vec![(1, prev, TxnStatus::Active)],
        )
        .unwrap();
        log.flush_all().unwrap();

        let recovered_log = log.simulate_crash().unwrap();
        let mut disk = MemTarget::default();
        let report = recover(&recovered_log, &mut disk).unwrap();
        assert_eq!(report.losers, vec![1]);
        assert_eq!(disk.pages[&page(1)][0], 0, "undone via checkpoint ATT");
    }

    #[test]
    fn double_crash_during_undo_is_idempotent() {
        // Crash once, recover (writing CLRs), crash again before any page
        // flush, recover again: the CLRs make the second undo skip the
        // already-undone updates.
        let log = LogManager::create_mem();
        let mut cache = MemTarget::default();
        run_txn(&log, &mut cache, 1, &[(1, 0, 7), (2, 0, 8)], false, true);

        let log2 = log.simulate_crash().unwrap();
        let mut disk = MemTarget::default();
        disk.apply(page(1), 0, &[7]).unwrap();
        disk.apply(page(2), 0, &[8]).unwrap();
        let r1 = recover(&log2, &mut disk).unwrap();
        assert_eq!(r1.undone, 2);

        // Second crash after recovery flushed its log but disk state from
        // the first recovery was lost.
        let log3 = log2.simulate_crash().unwrap();
        let mut disk2 = MemTarget::default();
        disk2.apply(page(1), 0, &[7]).unwrap();
        disk2.apply(page(2), 0, &[8]).unwrap();
        let r2 = recover(&log3, &mut disk2).unwrap();
        assert_eq!(r2.undone, 0, "CLRs prevent re-undo");
        // But redo of CLR images still restores the before state.
        assert_eq!(disk2.pages[&page(1)][0], 0);
        assert_eq!(disk2.pages[&page(2)][0], 0);
    }

    #[test]
    fn runtime_abort_uses_undo_path() {
        let log = LogManager::create_mem();
        let mut cache = MemTarget::default();
        let last = run_txn(&log, &mut cache, 1, &[(1, 0, 7)], false, false);
        let abort_lsn = log.append(1, last, LogBody::Abort);
        let (undone, clrs) = undo_transactions(&log, vec![(1, abort_lsn)], &mut cache).unwrap();
        assert_eq!((undone, clrs), (1, 1));
        assert_eq!(cache.pages[&page(1)][0], 0);
    }

    #[test]
    fn reconstruct_page_replays_committed_updates_only() {
        let log = LogManager::create_mem();
        let mut cache = MemTarget::default();
        run_txn(&log, &mut cache, 1, &[(1, 0, 7), (2, 0, 3)], true, true);
        run_txn(&log, &mut cache, 2, &[(1, 7, 9)], false, true); // loser

        let (image, lsn) = reconstruct_page(&log, page(1), 16).unwrap().unwrap();
        assert_eq!(image.len(), 16);
        assert_eq!(image[0], 7, "committed write replayed, loser's excluded");
        assert!(image[1..].iter().all(|&b| b == 0));

        let lsns = committed_page_lsns(&log).unwrap();
        assert!(
            lsns[&page(1)] < lsn,
            "reconstruction stamp (commit LSN) sits above the update floor"
        );
        assert!(!lsns[&page(1)].is_null());
        assert!(lsns.contains_key(&page(2)));
        assert!(
            reconstruct_page(&log, page(5), 16).unwrap().is_none(),
            "a page with no committed history cannot be vouched for"
        );
    }

    /// Records what recovery asked of it, in order.
    #[derive(Default)]
    struct Recorder {
        mem: MemTarget,
        /// `(page, LSNs of the patches)` per `redo_page` call.
        redo_calls: Vec<(LogPageId, Vec<Lsn>)>,
        /// `(page, lsn)` per `apply_lsn` call that did not come from redo.
        undo_calls: Vec<(LogPageId, Lsn)>,
    }

    impl RedoTarget for Recorder {
        fn apply(&mut self, page: LogPageId, offset: u32, bytes: &[u8]) -> Result<(), String> {
            self.mem.apply(page, offset, bytes)
        }

        fn apply_lsn(
            &mut self,
            page: LogPageId,
            offset: u32,
            bytes: &[u8],
            lsn: Lsn,
        ) -> Result<(), String> {
            self.undo_calls.push((page, lsn));
            self.mem.apply(page, offset, bytes)
        }

        fn redo_page(&mut self, page: LogPageId, patches: &[RedoPatch]) -> Result<(), String> {
            self.redo_calls
                .push((page, patches.iter().map(|p| p.lsn).collect()));
            for p in patches {
                self.mem.apply(page, p.offset, &p.bytes)?;
            }
            Ok(())
        }
    }

    #[test]
    fn redo_hands_over_each_page_once_in_log_order_before_undo() {
        let log = LogManager::create_mem();
        let mut cache = MemTarget::default();
        run_txn(&log, &mut cache, 1, &[(1, 0, 7), (2, 0, 8), (1, 7, 9)], true, true);
        run_txn(&log, &mut cache, 2, &[(2, 8, 3), (3, 0, 4)], false, true); // loser

        let crashed = log.simulate_crash().unwrap();
        let mut disk = Recorder::default();
        let report = recover(&crashed, &mut disk).unwrap();
        assert_eq!(report.redone, 5);
        assert_eq!(crashed.stats().recovery_pages_restored.get(), 3);
        // One call per page, pages as the scan met them, patches in LSN order.
        let pages: Vec<u64> = disk.redo_calls.iter().map(|(p, _)| p.page).collect();
        assert_eq!(pages, vec![1, 2, 3]);
        for (_, lsns) in &disk.redo_calls {
            assert!(lsns.windows(2).all(|w| w[0] < w[1]), "{lsns:?}");
        }
        assert_eq!(disk.redo_calls[0].1.len(), 2);
        // Undo ran afterwards, through `apply_lsn`, newest first.
        let undone: Vec<u64> = disk.undo_calls.iter().map(|(p, _)| p.page).collect();
        assert_eq!(undone, vec![3, 2]);
        assert_eq!(disk.mem.pages[&page(1)][0], 9);
        assert_eq!(disk.mem.pages[&page(2)][0], 8, "loser rolled back to txn 1's value");
        assert_eq!(disk.mem.pages[&page(3)][0], 0);
    }

    #[test]
    fn redo_window_is_bounded() {
        // More after-image bytes on one page than the window holds: the
        // page is handed over more than once, in order, and ends up right.
        let log = LogManager::create_mem();
        let image = 4096;
        let records = RESTART_LOG_BYTES / image + 10;
        let mut prev = log.append(1, Lsn::NULL, LogBody::Begin);
        for i in 0..records {
            prev = log.append(
                1,
                prev,
                LogBody::Update {
                    page: page(1),
                    offset: 0,
                    before: vec![0; image],
                    after: vec![(i % 251) as u8; image],
                },
            );
        }
        let commit = log.append(1, prev, LogBody::Commit);
        log.flush(commit).unwrap();

        let crashed = log.simulate_crash().unwrap();
        let mut disk = Recorder::default();
        let report = recover(&crashed, &mut disk).unwrap();
        assert_eq!(report.redone, records as u64);
        assert_eq!(disk.redo_calls.len(), 2, "one full window, then the rest");
        let most = disk.redo_calls.iter().map(|(_, l)| l.len()).max().unwrap();
        assert!(most * image <= RESTART_LOG_BYTES, "{most} images buffered");
        let lsns: Vec<Lsn> = disk.redo_calls.iter().flat_map(|(_, l)| l.clone()).collect();
        assert!(lsns.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(disk.mem.pages[&page(1)], vec![((records - 1) % 251) as u8; image]);
    }

    #[test]
    fn recovery_of_empty_log() {
        let log = LogManager::create_mem();
        let mut disk = MemTarget::default();
        let report = recover(&log, &mut disk).unwrap();
        assert_eq!(report, RecoveryReport::default());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::log::LogManager;
    use proptest::prelude::*;
    use std::collections::HashMap;

    /// One scripted step of a multi-transaction history.
    #[derive(Debug, Clone)]
    enum Step {
        Begin(u8),
        Update { txn: u8, page: u8, value: u8 },
        Commit(u8),
        Abort(u8),
        Flush,
    }

    fn step_strategy() -> impl Strategy<Value = Step> {
        prop_oneof![
            (0u8..6).prop_map(Step::Begin),
            (0u8..6, 0u8..8, any::<u8>())
                .prop_map(|(txn, page, value)| Step::Update { txn, page, value }),
            (0u8..6).prop_map(Step::Commit),
            (0u8..6).prop_map(Step::Abort),
            Just(Step::Flush),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]
        /// Crash-anywhere soundness: run a random multi-transaction
        /// history with random flushes, crash (losing the unflushed tail),
        /// recover against a disk that saw *every* pre-crash write (an
        /// aggressive steal/no-force cache), and check that the result is
        /// exactly "committed-and-flushed transactions applied in order,
        /// everything else rolled back".
        #[test]
        fn crash_anywhere_recovers_committed_state(
            steps in prop::collection::vec(step_strategy(), 1..60),
        ) {
            let log = LogManager::create_mem();
            let mut disk = MemTarget::default();
            // Runtime transaction state.
            let mut last_lsn: HashMap<u64, Lsn> = HashMap::new();
            let mut alive: HashMap<u64, bool> = HashMap::new();
            // The shadow model: page -> value, applied only at commit,
            // tracked together with the commit record's LSN so we can
            // decide flushed-ness at crash time.
            let mut pending: HashMap<u64, Vec<(u8, u8)>> = HashMap::new();
            let mut commits: Vec<(Lsn, Vec<(u8, u8)>)> = Vec::new();
            // Physical before-image undo is sound only under write
            // isolation — which the real system enforces with strict 2PL.
            // The model enforces the same: one writer per page at a time.
            let mut page_owner: HashMap<u8, u64> = HashMap::new();

            for step in &steps {
                match *step {
                    Step::Begin(t) => {
                        let t = u64::from(t) + 1;
                        if alive.get(&t).copied().unwrap_or(false) {
                            continue;
                        }
                        let l = log.append(t, Lsn::NULL, LogBody::Begin);
                        last_lsn.insert(t, l);
                        alive.insert(t, true);
                        pending.insert(t, Vec::new());
                    }
                    Step::Update { txn, page, value } => {
                        let t = u64::from(txn) + 1;
                        if !alive.get(&t).copied().unwrap_or(false) {
                            continue;
                        }
                        // Strict 2PL: the page's X lock must be free or ours.
                        if page_owner.get(&page).is_some_and(|&o| o != t) {
                            continue;
                        }
                        page_owner.insert(page, t);
                        let p = LogPageId { area: 0, page: u64::from(page) };
                        // Before-image = current disk content (steal cache
                        // writes through immediately in this model).
                        let before = disk
                            .pages
                            .get(&p)
                            .map(|v| v[0])
                            .unwrap_or(0);
                        let l = log.append(
                            t,
                            last_lsn[&t],
                            LogBody::Update {
                                page: p,
                                offset: 0,
                                before: vec![before],
                                after: vec![value],
                            },
                        );
                        last_lsn.insert(t, l);
                        // The WAL rule: a stolen dirty page may reach disk
                        // only after its undo information is durable.
                        log.flush(l).unwrap();
                        disk.apply(p, 0, &[value]).unwrap();
                        pending.get_mut(&t).unwrap().push((page, value));
                    }
                    Step::Commit(t) => {
                        let t = u64::from(t) + 1;
                        if !alive.get(&t).copied().unwrap_or(false) {
                            continue;
                        }
                        let l = log.append(t, last_lsn[&t], LogBody::Commit);
                        log.flush(l).unwrap(); // commit forces the log
                        log.append(t, l, LogBody::End);
                        alive.insert(t, false);
                        page_owner.retain(|_, o| *o != t);
                        commits.push((l, pending.remove(&t).unwrap()));
                    }
                    Step::Abort(t) => {
                        let t = u64::from(t) + 1;
                        if !alive.get(&t).copied().unwrap_or(false) {
                            continue;
                        }
                        let l = log.append(t, last_lsn[&t], LogBody::Abort);
                        // Runtime rollback through the shared undo path.
                        undo_transactions(&log, vec![(t, l)], &mut disk).unwrap();
                        alive.insert(t, false);
                        page_owner.retain(|_, o| *o != t);
                        pending.remove(&t);
                    }
                    Step::Flush => log.flush_all().unwrap(),
                }
            }

            // ---- crash ---------------------------------------------------
            let flushed = log.flushed_lsn();
            let crashed = log.simulate_crash().unwrap();
            // The disk saw every write (aggressive steal); recovery must
            // undo losers and keep flushed winners.
            let report = recover(&crashed, &mut disk).unwrap();
            let _ = report;

            // ---- the oracle ---------------------------------------------
            // Expected page values: replay committed transactions whose
            // commit record survived the crash, in commit (LSN) order.
            let mut expected: HashMap<u8, u8> = HashMap::new();
            let mut survivors: Vec<&(Lsn, Vec<(u8, u8)>)> = commits
                .iter()
                .filter(|(l, _)| l.0 < flushed.0)
                .collect();
            survivors.sort_by_key(|(l, _)| *l);
            for (_, writes) in survivors {
                for &(page, value) in writes {
                    expected.insert(page, value);
                }
            }
            for page in 0u8..8 {
                let got = disk
                    .pages
                    .get(&LogPageId { area: 0, page: u64::from(page) })
                    .map(|v| v[0])
                    .unwrap_or(0);
                let want = expected.get(&page).copied().unwrap_or(0);
                prop_assert_eq!(
                    got, want,
                    "page {} after recovery: got {}, want {}",
                    page, got, want
                );
            }
        }
    }
}
