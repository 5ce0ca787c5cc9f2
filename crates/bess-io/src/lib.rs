//! The async batched I/O runtime of the BeSS workspace.
//!
//! The paper's §2 multifile scatter-gather I/O and §3 client–server
//! architecture assume a storage manager that keeps many device
//! operations in flight. This crate is the seam that makes that possible:
//! an io_uring-style submission/completion API ([`IoQueue::submit`] /
//! [`IoQueue::complete`] / [`IoQueue::drain`]) over pluggable
//! [`IoDevice`]s, with one executor: a submission runs on its caller's
//! thread, in submission order, and only a run of reads on a device
//! measured slow overlaps (DESIGN.md §17). On an in-memory device the op
//! sequence a device observes is exactly the submission sequence, which
//! the fault-injection matrices rely on.
//!
//! ## Layering
//!
//! Devices compose by wrapping (middleware): the fault-injection disk is
//! itself an `IoDevice` (its two-image durable/volatile model sits beneath
//! whatever op stream the queue issues), and [`SlowDevice`] wraps any
//! device with per-op latency — the slow-backend proxy the benchmarks use.
//! Integrity verify/seal hooks live one layer up, in `bess-storage`, which
//! seals slots before submission and verifies completions; see DESIGN.md
//! §17 for the full stack.
//!
//! ## Ordering and durability contract
//!
//! Within one submission:
//! * ops execute in submission order, and each has executed when
//!   [`IoQueue::submit`] returns;
//! * the one exception is a run of two or more consecutive [`IoOp::Read`]s
//!   on a queue whose running mean device read time is at least 50 µs:
//!   up to eight of them run at once, in any order, and the whole run has
//!   finished before the op behind it starts;
//! * so write-class ops ([`IoOp::Write`], [`IoOp::Sync`], [`IoOp::Grow`],
//!   [`IoOp::WriteSync`]) never overlap each other or a read, on any file;
//! * a `Sync` fences every earlier write to its file — when the sync's
//!   completion is observed, those writes are durable.
//!
//! Submissions from different threads are not ordered with respect to
//! each other. A failed op fails only its own ticket; [`IoOp::WriteSync`]
//! is one chained submission (write then sync, fail-fast) under a single
//! ticket.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod device;
pub mod queue;
pub mod retry;

pub use device::{FileDevice, IoDevice, MemDevice, SlowDevice};
pub use queue::{FileId, IoOp, IoOutput, IoQueue, IoResult, IoRuntimeConfig, IoTicket};
pub use retry::{read_accumulating, read_exact_retrying, MAX_READ_RETRIES};
