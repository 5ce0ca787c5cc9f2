//! # bess-wal — ARIES-style write-ahead logging for BeSS
//!
//! "Recovery is based on an ARIES-like write-ahead log (WAL) protocol"
//! (§3 of "A High Performance Configurable Storage Manager", Biliris &
//! Panagos, ICDE 1995, citing Mohan et al.). This crate provides:
//!
//! * [`LogManager`] — an append-only, checksummed, force-on-demand log
//!   over a file or memory, with torn-tail detection on reopen;
//! * [`LogRecord`]/[`LogBody`] — physical byte-range update records,
//!   CLRs with `undo_next` chaining, commit/abort/prepare/end, and fuzzy
//!   checkpoint records;
//! * [`recover`] — the analysis / redo ("repeating history") / undo passes,
//!   reporting winners, losers, and 2PC **in-doubt** transactions;
//! * [`undo_transactions`] — the shared rollback path used both by restart
//!   recovery and by runtime aborts;
//! * [`take_checkpoint`] — fuzzy checkpoints with a durable master pointer.
//!
//! ```
//! use bess_wal::{LogBody, LogManager, LogPageId, Lsn, MemTarget, recover};
//!
//! let log = LogManager::create_mem();
//! let p = LogPageId { area: 0, page: 1 };
//! let b = log.append(1, Lsn::NULL, LogBody::Begin);
//! let u = log.append(1, b, LogBody::Update {
//!     page: p, offset: 0, before: vec![0], after: vec![42],
//! });
//! let c = log.append(1, u, LogBody::Commit);
//! log.flush(c).unwrap();
//!
//! let after_crash = log.simulate_crash().unwrap();
//! let mut disk = MemTarget::default();
//! let report = recover(&after_crash, &mut disk).unwrap();
//! assert_eq!(report.winners, vec![1]);
//! assert_eq!(disk.pages[&p][0], 42);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod enc;
mod log;
mod lsn;
mod record;
mod recovery;

pub use enc::{checksum, DecodeError};
pub use log::{
    ForceHook, ForcePoint, GroupCommitConfig, LogIter, LogManager, WalError, WalResult, WalStats,
    LOG_START,
};
pub use lsn::Lsn;
pub use record::{LogBody, LogPageId, LogRecord, TxnStatus};
pub use recovery::{
    begin_checkpoint, committed_page_lsns, end_checkpoint, reconstruct_page, recover, replay_all,
    take_checkpoint, undo_transactions, MemTarget, RecoveryReport, RedoPatch, RedoTarget,
    RESTART_LOG_BYTES,
};
