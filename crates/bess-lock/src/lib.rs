//! # bess-lock — concurrency control for BeSS
//!
//! Implements the locking machinery of §3 of "A High Performance
//! Configurable Storage Manager" (Biliris & Panagos, ICDE 1995):
//!
//! * [`LockManager`] — strict two-phase locking over hierarchical modes
//!   (IS/IX/S/SIX/X) with FIFO queues, in-place upgrades and **timeout
//!   based deadlock detection**, exactly the paper's policy;
//! * [`LockCache`] — the per-client cache of *locks* retained between
//!   transactions, with the **callback locking** responses (release /
//!   defer) the servers drive cache consistency with, and the page images
//!   ("data") those locks keep valid.
//!
//! ```
//! use std::time::Duration;
//! use bess_lock::{LockManager, LockMode, LockName, TxnId};
//!
//! let mgr = LockManager::new(Duration::from_millis(100));
//! let page = LockName::Page { area: 0, page: 7 };
//! mgr.lock(TxnId(1), page, LockMode::S).unwrap();
//! mgr.lock(TxnId(2), page, LockMode::S).unwrap(); // shared: both granted
//! mgr.unlock_all(TxnId(1));
//! mgr.unlock_all(TxnId(2));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod cache;
mod manager;
mod mode;
mod name;
pub mod order;

pub use cache::{
    CacheDecision, CacheStats, CallbackResponse, ImageStats, LockCache, IMAGE_CAPACITY,
};
pub use order::{OrderedMutex, OrderedRwLock, Rank};
pub use manager::{DeadlockPolicy, LockError, LockManager, LockResult, LockStats};
pub use mode::LockMode;
pub use name::{LockName, TxnId};
