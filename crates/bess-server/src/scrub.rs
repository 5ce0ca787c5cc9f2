//! Background integrity scrubbing and the shared read-repair ladder.
//!
//! Detection alone leaves silent corruption sitting on disk until a
//! client happens to read the page, which may be never. The scrubber walks
//! every registered area in the background, a bounded batch of pages per
//! pass, verifying integrity headers and repairing (or quarantining) what
//! it finds, so corruption is surfaced on the server's schedule rather
//! than the workload's.
//!
//! The **repair ladder** (shared with the foreground read path) runs, in
//! order:
//!
//! 1. *re-read* — already inside [`bess_storage::StorageArea`]: a verified
//!    read retries once, curing flips that happened in transfer;
//! 2. *reconstruct from the log* — [`bess_wal::reconstruct_page`] replays
//!    every committed update to the page, the image is restored with
//!    [`StorageArea::restore_page`] and read back verified. This relies on
//!    the log never being truncated: a checkpoint moves where restart
//!    starts, not where the log starts;
//! 3. *quarantine* — the page is fenced off (reads and writes refuse it
//!    without touching the backend) and the failure feeds the server's
//!    media-error threshold, degrading it to read-only like any other
//!    persistent media fault.
//!
//! The optional **deep pass** also compares each healthy page's header
//! LSN against the log's committed-update floor
//! ([`bess_wal::committed_page_lsns`]): a page *below* its floor
//! checksums perfectly but never saw its newest committed update — a
//! lost write — and goes through the same ladder.
//!
//! Lock discipline: the scan cursor is an [`OrderedMutex`] at
//! [`Rank::ServerScrub`], above every storage and WAL rank, so *holding
//! it across page I/O would be an ordering violation by construction*.
//! The scrubber therefore copies the cursor out, scans, and writes the
//! position back — the guard never outlives a lock-free region.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bess_cache::AreaSet;
use bess_lock::{OrderedMutex, Rank};
use bess_obs::{Counter, Group};
use bess_storage::{StorageArea, StorageError};
use bess_wal::{committed_page_lsns, reconstruct_page, LogManager, LogPageId, Lsn};

/// Background scrubber configuration (part of
/// [`crate::ServerConfig`]). Disabled by default: scrubbing is a
/// configurable service in the spirit of the paper's §2 storage options,
/// not a tax on every deployment.
#[derive(Clone, Copy, Debug)]
pub struct ScrubConfig {
    /// Run the background scrub thread.
    pub enabled: bool,
    /// Pause between passes — the rate limiter that keeps scrubbing at
    /// low priority relative to foreground I/O.
    pub interval: Duration,
    /// Pages verified per pass.
    pub pages_per_pass: u64,
    /// Also run the lost-write detection pass (header LSN vs the log's
    /// committed-update floor). Costs a full log scan per pass.
    pub deep: bool,
}

impl Default for ScrubConfig {
    fn default() -> Self {
        ScrubConfig {
            enabled: false,
            interval: Duration::from_millis(20),
            pages_per_pass: 64,
            deep: false,
        }
    }
}

/// Media-failure containment shared between the request path and the
/// scrubber: consecutive storage-write failures trip read-only mode.
#[derive(Debug)]
pub(crate) struct MediaGate {
    read_only: AtomicBool,
    // LINT: allow(raw-counter) — fail-stop latch consulted on every request, not an exported metric
    errors: AtomicU64,
    threshold: u64,
}

impl MediaGate {
    pub(crate) fn new(threshold: u64) -> Self {
        MediaGate {
            read_only: AtomicBool::new(false),
            errors: AtomicU64::new(0),
            threshold,
        }
    }

    /// Tracks a storage outcome; repeated failures trip read-only.
    pub(crate) fn note(&self, ok: bool) {
        if ok {
            self.errors.store(0, Ordering::Relaxed);
        } else {
            let n = self.errors.fetch_add(1, Ordering::Relaxed) + 1;
            if n >= self.threshold {
                self.read_only.store(true, Ordering::Relaxed);
            }
        }
    }

    pub(crate) fn is_read_only(&self) -> bool {
        self.read_only.load(Ordering::Relaxed)
    }

    pub(crate) fn set_read_only(&self, on: bool) {
        self.read_only.store(on, Ordering::Relaxed);
        if !on {
            self.errors.store(0, Ordering::Relaxed);
        }
    }
}

/// Corruption accounting (`storage.corruption.*` in the server registry),
/// shared by the foreground read-repair path and the scrubber.
#[derive(Debug)]
pub(crate) struct IntegrityStats {
    /// Verification failures that reached the repair ladder
    /// (`storage.corruption.detected`).
    pub(crate) detected: Counter,
    /// Pages rebuilt from the log and verified back healthy
    /// (`storage.corruption.repaired`).
    pub(crate) repaired: Counter,
    /// Pages the log could not vouch for: quarantined
    /// (`storage.corruption.unrepairable`).
    pub(crate) unrepairable: Counter,
}

impl IntegrityStats {
    pub(crate) fn new(group: &Group) -> IntegrityStats {
        IntegrityStats {
            detected: group.counter("detected"),
            repaired: group.counter("repaired"),
            unrepairable: group.counter("unrepairable"),
        }
    }
}

/// Runs the repair ladder for one page that failed verification. Returns
/// `true` when the page was restored and reads back healthy; `false`
/// leaves it quarantined. The caller feeds the outcome into its
/// [`MediaGate`].
pub(crate) fn repair_page(
    area: &StorageArea,
    log: &LogManager,
    page: u64,
    stats: &IntegrityStats,
) -> bool {
    stats.detected.inc();
    let lp = LogPageId {
        area: area.id().0,
        page,
    };
    if let Ok(Some((image, lsn))) = reconstruct_page(log, lp, area.page_size()) {
        let restored = area.restore_page(page, &image, lsn.0).is_ok();
        if restored && area.verify_page(page).is_ok() {
            // Verified read-back passed: safe to lift any quarantine.
            area.unquarantine(page);
            stats.repaired.inc();
            return true;
        }
    }
    // The log cannot vouch for this page (no committed history, or the
    // restored image still fails — the medium is rewriting our bytes).
    area.quarantine(page);
    stats.unrepairable.inc();
    false
}

/// What one scrub pass did (deterministic; see [`Scrubber::scrub_once`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScrubPassReport {
    /// Data pages verified.
    pub scanned: u64,
    /// Pages that failed verification or sat below their committed floor.
    pub corrupt: u64,
    /// Pages restored from the log.
    pub repaired: u64,
    /// Pages newly quarantined.
    pub quarantined: u64,
}

/// Scrub-activity counters (`storage.scrub.*` in the server registry).
#[derive(Debug)]
struct ScrubStats {
    /// Passes completed (`storage.scrub.passes`).
    passes: Counter,
    /// Data pages verified (`storage.scrub.pages`).
    pages: Counter,
    /// Healthy-looking pages flagged stale by the deep LSN pass
    /// (`storage.scrub.stale`).
    stale: Counter,
}

/// Where the next pass resumes.
#[derive(Clone, Copy, Debug, Default)]
struct Cursor {
    area_idx: usize,
    page: u64,
}

/// The background scrubber. Owned by [`crate::BessServer`]; tests and the
/// bench harness drive it deterministically through
/// [`Scrubber::scrub_once`].
pub(crate) struct Scrubber {
    areas: Arc<AreaSet>,
    log: Arc<LogManager>,
    cfg: ScrubConfig,
    media: Arc<MediaGate>,
    integrity: Arc<IntegrityStats>,
    stats: ScrubStats,
    /// Scan position. [`Rank::ServerScrub`] sits above every storage and
    /// WAL rank, so holding this guard across page I/O is an ordering
    /// violation — the pass copies the position out and writes it back.
    cursor: OrderedMutex<Cursor>,
    stop: AtomicBool,
}

impl Scrubber {
    pub(crate) fn new(
        areas: Arc<AreaSet>,
        log: Arc<LogManager>,
        cfg: ScrubConfig,
        media: Arc<MediaGate>,
        integrity: Arc<IntegrityStats>,
        group: &Group,
    ) -> Scrubber {
        Scrubber {
            areas,
            log,
            cfg,
            media,
            integrity,
            stats: ScrubStats {
                passes: group.counter("passes"),
                pages: group.counter("pages"),
                stale: group.counter("stale"),
            },
            cursor: OrderedMutex::new(Rank::ServerScrub, "server.scrub.cursor", Cursor::default()),
            stop: AtomicBool::new(false),
        }
    }

    /// The rate-limited background loop; exits when [`Self::halt`] is
    /// called.
    pub(crate) fn run(&self) {
        while !self.stop.load(Ordering::Relaxed) {
            self.scrub_once();
            // Sleep in small slices so shutdown is prompt even with a
            // long scrub interval.
            let mut left = self.cfg.interval;
            while !left.is_zero() && !self.stop.load(Ordering::Relaxed) {
                let slice = left.min(Duration::from_millis(10));
                std::thread::sleep(slice);
                left = left.saturating_sub(slice);
            }
        }
    }

    pub(crate) fn halt(&self) {
        self.stop.store(true, Ordering::Relaxed);
    }

    /// Verifies the next `pages_per_pass` data pages (round-robin across
    /// areas, resuming at the saved cursor), running the repair ladder on
    /// anything that fails. Deterministic: tests and benches call this
    /// directly instead of racing the background thread.
    pub(crate) fn scrub_once(&self) -> ScrubPassReport {
        self.stats.passes.inc();
        let mut report = ScrubPassReport::default();
        let ids = self.areas.ids();
        if ids.is_empty() {
            return report;
        }
        // The deep pass needs the committed-update floor per page; a log
        // scan failing (corrupt log) just downgrades this pass to shallow.
        let floors: Option<HashMap<LogPageId, Lsn>> = if self.cfg.deep {
            committed_page_lsns(&self.log).ok()
        } else {
            None
        };
        let (mut area_idx, mut page) = {
            let cursor = self.cursor.lock();
            (cursor.area_idx, cursor.page)
        };
        let mut budget = self.cfg.pages_per_pass;
        while budget > 0 {
            if area_idx >= ids.len() {
                area_idx = 0;
            }
            let Some(area) = self.areas.get(ids[area_idx]) else {
                // Area vanished mid-pass: costs budget so the loop always
                // terminates.
                budget -= 1;
                area_idx += 1;
                page = 0;
                continue;
            };
            if page >= area.num_pages() {
                area_idx += 1;
                page = 0;
                continue;
            }
            budget -= 1;
            self.scrub_page(&area, page, floors.as_ref(), &mut report);
            page += 1;
        }
        {
            let mut cursor = self.cursor.lock();
            cursor.area_idx = area_idx;
            cursor.page = page;
        }
        report
    }

    fn scrub_page(
        &self,
        area: &StorageArea,
        page: u64,
        floors: Option<&HashMap<LogPageId, Lsn>>,
        report: &mut ScrubPassReport,
    ) {
        // Metadata pages are not WAL-covered (the ladder could not repair
        // them) and quarantined pages already failed it: skip both.
        if !area.is_data_page(page) || area.is_quarantined(page) {
            return;
        }
        report.scanned += 1;
        self.stats.pages.inc();
        match area.verify_page(page) {
            Ok(lsn) => {
                let Some(floors) = floors else { return };
                let key = LogPageId {
                    area: area.id().0,
                    page,
                };
                if floors.get(&key).is_some_and(|&floor| Lsn(lsn) < floor) {
                    // Checksums fine, but the newest committed update
                    // never reached the platter: a lost write.
                    self.stats.stale.inc();
                    report.corrupt += 1;
                    self.repair(area, page, report);
                }
            }
            Err(StorageError::CorruptPage { .. }) => {
                report.corrupt += 1;
                self.repair(area, page, report);
            }
            // A plain I/O error is the device failing loudly, not silent
            // corruption; it feeds containment but not the ladder.
            Err(_) => self.media.note(false),
        }
    }

    fn repair(&self, area: &StorageArea, page: u64, report: &mut ScrubPassReport) {
        if repair_page(area, &self.log, page, &self.integrity) {
            report.repaired += 1;
            self.media.note(true);
        } else {
            report.quarantined += 1;
            self.media.note(false);
        }
    }
}

impl std::fmt::Debug for Scrubber {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scrubber").field("cfg", &self.cfg).finish()
    }
}
