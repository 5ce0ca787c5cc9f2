//! The BeSS client-server wire protocol.
//!
//! One message enum covers client→server requests, the 2PC coordination
//! traffic between servers, and the server→client **callback** messages of
//! the callback locking algorithm (§3).
//!
//! Failure containment adds four things to the protocol:
//!
//! * [`Msg::Heartbeat`] — a one-way lease renewal. A server that stops
//!   hearing from a client reaps its locks, callback copies, and in-flight
//!   transactions (see `server::BessServer`).
//! * [`Msg::Leased`] — the lease id on the requests of a client that keeps
//!   locks and page images between transactions, so that a client whose
//!   grants the server dropped without a callback (lease expiry, restart)
//!   is refused and told, instead of going on trusting them.
//! * Request ids (`req`) on [`Msg::Commit`] and [`Msg::CommitGlobal`] — the
//!   non-idempotent requests. A client that times out retries with the
//!   *same* id; the server's dedup window returns the recorded reply
//!   instead of applying the commit twice (at-most-once execution).
//! * A compact binary codec ([`Msg::encode`] / [`Msg::decode`]) so every
//!   variant has an explicit, property-tested wire form.

use bess_cache::DbPage;
use bess_lock::{LockMode, LockName};

/// A global (distributed) transaction id: `(coordinator_node << 32) | seq`.
pub type GTxn = u64;

/// The coordinator node encoded in a global transaction id.
pub fn coordinator_of(gtxn: GTxn) -> u32 {
    (gtxn >> 32) as u32
}

/// A participant's phase-1 vote, as carried in [`Msg::VoteBatch`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Vote {
    /// The participant logged a prepare record and awaits phase 2.
    Yes,
    /// The participant cannot commit; the round must abort.
    No,
    /// The participant made no updates: it forgets the transaction at
    /// once (optionally releasing the requester's locks) and must be
    /// dropped from phase 2 entirely.
    ReadOnly,
}

/// One entry of a [`Msg::PrepareBatch`]: a phase-1 request for a single
/// global transaction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PrepareItem {
    /// Global transaction.
    pub gtxn: GTxn,
    /// The node whose locks cover this branch (the committing client),
    /// or `0` when unknown/irrelevant.
    pub locker: u32,
    /// If the participant turns out to be read-only, release `locker`'s
    /// locks at vote time (sound only for non-caching, one-transaction-
    /// at-a-time clients that opted in).
    pub release_locks: bool,
    /// This branch's page updates, forwarded from the client's
    /// [`Msg::CommitGlobal`] (see its `branches` field) so the participant
    /// stages and prepares in one wire frame. Empty for a participant the
    /// transaction only read from.
    pub updates: Vec<PageUpdate>,
}

/// A physical byte-range page update shipped at commit: the client's
/// write-detection machinery captured the before-image at the first write
/// fault (§2.3); the after-image is the page diff at commit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PageUpdate {
    /// The updated page.
    pub page: DbPage,
    /// Byte offset within the page.
    pub offset: u32,
    /// Overwritten bytes.
    pub before: Vec<u8>,
    /// New bytes.
    pub after: Vec<u8>,
}

/// The [`Msg::Err`] text answering a request stamped with a lease that no
/// longer exists (see [`Msg::Leased`]); also what a client reports for a
/// transaction it will not commit because the lease went during it.
pub const LEASE_LOST: &str = "lease lost: the locks this transaction relied on were released";

/// The [`Msg::Err`] text of a draining server refusing new work: a
/// standalone [`Msg::BeginTxn`], a [`Msg::BeginGlobal`], or a whole frame
/// whose `BeginTxn` trailer announced a transaction it will not admit.
pub const DRAINING: &str = "server draining: not accepting new transactions";

/// The granted prefix of a request for several pages ([`Msg::FetchPages`]):
/// what `results` yields up to its first error — or that error, when it is
/// the first thing yielded. Nothing after the error is evaluated.
pub(crate) fn granted_prefix<T, E>(
    results: impl IntoIterator<Item = Result<T, E>>,
) -> Result<Vec<T>, E> {
    let mut granted = Vec::new();
    for result in results {
        match result {
            Ok(page) => granted.push(page),
            Err(e) if granted.is_empty() => return Err(e),
            Err(_) => break,
        }
    }
    Ok(granted)
}

/// The reply of the single forms ([`Msg::FetchPage`], [`Msg::ReadPage`])
/// from what the batch implementation served for their one page.
pub(crate) fn single_page_reply(served: Result<Vec<Vec<u8>>, Msg>) -> Msg {
    match served.map(|mut pages| pages.pop()) {
        Ok(Some(data)) => Msg::PageData(data),
        Ok(None) => Msg::Err("no page served".into()),
        Err(refusal) => refusal,
    }
}

/// Protocol messages.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Msg {
    // ---- client -> server requests -----------------------------------
    /// Announces a transaction the sender began on its own (it allocates
    /// the id itself); reply: [`Msg::Ok`]. Sent as a trailer on the
    /// transaction's first frame, never alone: a draining server refuses
    /// the frame that carries it whole, so new work is turned away before
    /// it holds a lock.
    BeginTxn,
    /// Acquire a lock (owner = requesting node) and return the page bytes;
    /// reply: [`Msg::PageData`] or [`Msg::Denied`].
    FetchPage {
        /// The page.
        page: DbPage,
        /// Requested mode.
        mode: LockMode,
    },
    /// Return page bytes without locking (the lock is already cached);
    /// reply: [`Msg::PageData`].
    ReadPage {
        /// The page.
        page: DbPage,
    },
    /// [`Msg::FetchPage`] and [`Msg::ReadPage`] for several pages in one
    /// conversation. Locks are taken in request order and the first denial
    /// ends the request; reply: [`Msg::PagesData`] with the pages up to
    /// there, or what the first page's single form would have answered
    /// when not even that one can be served.
    FetchPages {
        /// Each page with the lock mode to acquire first (`None`: the
        /// sender holds the lock already).
        pages: Vec<(DbPage, Option<LockMode>)>,
    },
    /// Acquire a lock (owner = requesting node); reply: [`Msg::Granted`] or
    /// [`Msg::Denied`].
    Lock {
        /// Resource.
        name: LockName,
        /// Mode.
        mode: LockMode,
    },
    /// Drop cached locks after a deferred callback; reply: [`Msg::Ok`].
    ReleaseCached {
        /// The resources to release.
        names: Vec<LockName>,
    },
    /// Release every lock held by the requesting node (transaction-duration
    /// caching clients, §3); reply: [`Msg::Ok`].
    ReleaseAll,
    /// Allocate a disk segment; reply: [`Msg::DiskSeg`].
    AllocSegment {
        /// Storage area.
        area: u32,
        /// Pages.
        pages: u32,
    },
    /// Free a disk segment; reply: [`Msg::Ok`].
    FreeSegment {
        /// Storage area.
        area: u32,
        /// First page.
        start_page: u64,
        /// Requested page count at allocation.
        pages: u32,
    },
    /// Raw byte read (overflow segments, large objects); reply:
    /// [`Msg::Bytes`].
    ReadAt {
        /// Storage area.
        area: u32,
        /// Page.
        page: u64,
        /// Byte offset in page.
        offset: u32,
        /// Bytes wanted.
        len: u32,
    },
    /// Raw byte write; reply: [`Msg::Ok`].
    WriteAt {
        /// Storage area.
        area: u32,
        /// Page.
        page: u64,
        /// Byte offset in page.
        offset: u32,
        /// Bytes to write.
        data: Vec<u8>,
    },
    /// Single-server commit: log + apply the updates; reply: [`Msg::Ok`].
    Commit {
        /// The sender's transaction id.
        txn: u64,
        /// The page updates.
        updates: Vec<PageUpdate>,
        /// Client-assigned request id for at-most-once retry; `0` opts out
        /// of deduplication.
        req: u64,
    },
    /// Abort notice (client discards its own state); reply: [`Msg::Ok`].
    Abort {
        /// Transaction id.
        txn: u64,
    },
    /// One-way lease renewal: "this client is alive". No reply. A server
    /// reaps clients whose lease expires (dead-client reclamation).
    Heartbeat,

    // ---- two-phase commit (§3) ----------------------------------------
    /// Ask the coordinator (the client's first server, §3) to run 2PC;
    /// reply: [`Msg::Decision`].
    CommitGlobal {
        /// Global transaction.
        gtxn: GTxn,
        /// Participant nodes (may include the coordinator).
        participants: Vec<u32>,
        /// Client-assigned request id for at-most-once retry; `0` opts out
        /// of deduplication.
        req: u64,
        /// Ask read-only participants to release the requester's locks at
        /// phase 1 (the read-only-participant optimisation; sound only
        /// for non-caching, one-transaction-at-a-time clients).
        release_read_locks: bool,
        /// Per-participant write sets (`(node, updates)`): the coordinator
        /// stages its own branch and forwards each remote branch inside
        /// that participant's [`PrepareItem`]. A participant without an
        /// entry is read-only for this transaction.
        branches: Vec<(u32, Vec<PageUpdate>)>,
    },
    /// Coordinator → participant batched phase 1: one wire frame carrying
    /// the prepare requests of several concurrent global transactions;
    /// reply: [`Msg::VoteBatch`].
    PrepareBatch {
        /// One phase-1 request per concurrent global transaction.
        items: Vec<PrepareItem>,
    },
    /// Coordinator → participant batched phase 2. Sent **one-way** when
    /// every decision in the batch is a commit (presumed commit: no ack
    /// round); sent as a call otherwise.
    DecideBatch {
        /// `(gtxn, commit)` verdicts.
        decisions: Vec<(GTxn, bool)>,
    },
    /// Recovering participant asks the coordinator for a verdict; reply:
    /// [`Msg::Decision`], [`Msg::DecisionPending`] (the round is still
    /// running — ask again later), or [`Msg::Unknown`] (no record at all —
    /// presumed abort applies).
    QueryDecision {
        /// Global transaction.
        gtxn: GTxn,
    },
    /// Allocate a fresh global transaction id; reply: [`Msg::TxnId`].
    BeginGlobal,

    // ---- server -> client ----------------------------------------------
    /// Callback request: give back the cached lock on `name` (§3); reply:
    /// [`Msg::CallbackReleased`] or [`Msg::CallbackDeferred`].
    Callback {
        /// The contested resource.
        name: LockName,
    },
    /// Downgrade callback (the callback-read optimisation): weaken the
    /// cached lock on `name` to `to` instead of giving it up entirely, so
    /// the holder keeps read permission cached; reply:
    /// [`Msg::CallbackReleased`] (downgraded) or [`Msg::CallbackDeferred`].
    CallbackDowngrade {
        /// The contested resource.
        name: LockName,
        /// The weaker mode to keep (usually `S`).
        to: LockMode,
    },

    // ---- replies ---------------------------------------------------------
    /// Generic success.
    Ok,
    /// Generic failure.
    Err(String),
    /// A transaction id.
    TxnId(u64),
    /// Page content.
    PageData(Vec<u8>),
    /// The content of the first `n >= 1` pages of a [`Msg::FetchPages`],
    /// in request order; exactly these were locked for the sender.
    PagesData(Vec<Vec<u8>>),
    /// Lock granted.
    Granted,
    /// Lock denied (timeout — possible deadlock).
    Denied(String),
    /// An allocated disk segment.
    DiskSeg {
        /// Storage area.
        area: u32,
        /// First page.
        start_page: u64,
        /// Requested page count.
        pages: u32,
    },
    /// Raw bytes.
    Bytes(Vec<u8>),
    /// The callback released the lock.
    CallbackReleased,
    /// The lock is in use; release will follow via
    /// [`Msg::ReleaseCached`].
    CallbackDeferred,
    /// Participant's batched phase-1 votes, one per [`Msg::PrepareBatch`]
    /// entry, in the same order.
    VoteBatch {
        /// `(gtxn, vote)` pairs.
        votes: Vec<(GTxn, Vote)>,
    },
    /// Coordinator's 2PC verdict.
    Decision {
        /// Whether the transaction committed.
        committed: bool,
    },
    /// The coordinator has no record of the transaction.
    Unknown,
    /// The coordinator's 2PC round for the queried transaction is still in
    /// progress (phase 1 votes are being collected, or the decision record
    /// is being forced). The querier must keep its prepared branch and ask
    /// again — presumed abort applies only to [`Msg::Unknown`].
    DecisionPending,

    // ---- piggybacking ----------------------------------------------------
    /// A message with piggybacked control traffic ("trailers") riding the
    /// same wire frame. The receiver processes each trailer first (no
    /// individual replies), then dispatches `msg` as usual. A reply may
    /// itself be `WithTrailers` carrying the values some trailers produce
    /// (e.g. [`Msg::TxnId`] for a piggybacked [`Msg::BeginGlobal`]), in
    /// trailer order. Deduplicated retries replay only the inner reply:
    /// trailers are ephemeral control traffic and are never replayed.
    WithTrailers {
        /// The primary message.
        msg: Box<Msg>,
        /// Piggybacked control messages (lease renewals, deferred lock
        /// releases, id prefetches, batched decides, ...).
        trailers: Vec<Msg>,
    },

    // ---- lease identity --------------------------------------------------
    /// A message stamped with the id of the lease it belongs to. A client
    /// that keeps locks and page images between transactions stamps every
    /// request with the lease id the server last told it (`0`: none yet).
    /// The server executes the request only if that is `0` or its current
    /// lease for the sender; otherwise the grants the sender is relying on
    /// are gone (lease expiry, server restart) and the request is answered
    /// [`Msg::Err`] unexecuted. Either way a reply to a stamp that is not
    /// the current lease comes back stamped with the current id, which is
    /// how the client learns it. Senders that never stamp are never
    /// refused and never see a stamped reply.
    Leased {
        /// The lease id (request: as the sender knows it; reply: current).
        lease: u64,
        /// The stamped request or reply.
        msg: Box<Msg>,
    },
}

// ---- binary codec --------------------------------------------------------
//
// Little-endian, length-prefixed, one tag byte per variant. The in-process
// network ships `Msg` values directly, so the codec is not on the hot path;
// it exists so the wire form is explicit and every variant round-trips
// under the property tests in `tests/proto_roundtrip.rs`. Tags are never
// reused: 12, 14, 15, 30, 31 and 36 belonged to retired 2PC messages and
// decode as errors.

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_bytes(buf: &mut Vec<u8>, v: &[u8]) {
    // LINT: allow(cast) — message payloads are page-sized, far below u32::MAX.
    put_u32(buf, v.len() as u32);
    buf.extend_from_slice(v);
}

fn put_mode(buf: &mut Vec<u8>, mode: LockMode) {
    buf.push(match mode {
        LockMode::IS => 0,
        LockMode::IX => 1,
        LockMode::S => 2,
        LockMode::SIX => 3,
        LockMode::X => 4,
    });
}

fn put_name(buf: &mut Vec<u8>, name: &LockName) {
    match name {
        LockName::Database(db) => {
            buf.push(0);
            put_u32(buf, *db);
        }
        LockName::File { db, file } => {
            buf.push(1);
            put_u32(buf, *db);
            put_u32(buf, *file);
        }
        LockName::Segment { area, page } => {
            buf.push(2);
            put_u32(buf, *area);
            put_u64(buf, *page);
        }
        LockName::Page { area, page } => {
            buf.push(3);
            put_u32(buf, *area);
            put_u64(buf, *page);
        }
        LockName::Object { area, page, slot } => {
            buf.push(4);
            put_u32(buf, *area);
            put_u64(buf, *page);
            put_u32(buf, *slot);
        }
    }
}

fn put_update(buf: &mut Vec<u8>, u: &PageUpdate) {
    put_u32(buf, u.page.area);
    put_u64(buf, u.page.page);
    put_u32(buf, u.offset);
    put_bytes(buf, &u.before);
    put_bytes(buf, &u.after);
}

fn put_vote(buf: &mut Vec<u8>, vote: Vote) {
    buf.push(match vote {
        Vote::Yes => 0,
        Vote::No => 1,
        Vote::ReadOnly => 2,
    });
}

fn put_prepare_item(buf: &mut Vec<u8>, item: &PrepareItem) {
    put_u64(buf, item.gtxn);
    put_u32(buf, item.locker);
    buf.push(u8::from(item.release_locks));
    put_updates(buf, &item.updates);
}

fn put_updates(buf: &mut Vec<u8>, updates: &[PageUpdate]) {
    // LINT: allow(cast) — a commit carries at most a few thousand updates.
    put_u32(buf, updates.len() as u32);
    for u in updates {
        put_update(buf, u);
    }
}

/// Sequential reader over an encoded message.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn u8(&mut self) -> Result<u8, String> {
        let v = *self
            .buf
            .get(self.pos)
            .ok_or_else(|| "truncated message".to_string())?;
        self.pos += 1;
        Ok(v)
    }

    fn u32(&mut self) -> Result<u32, String> {
        let end = self.pos + 4;
        let raw: [u8; 4] = self
            .buf
            .get(self.pos..end)
            .ok_or_else(|| "truncated message".to_string())?
            .try_into()
            // LINT: allow(panic) — the slice is exactly 4 bytes by construction.
            .expect("4-byte slice");
        self.pos = end;
        Ok(u32::from_le_bytes(raw))
    }

    fn u64(&mut self) -> Result<u64, String> {
        let end = self.pos + 8;
        let raw: [u8; 8] = self
            .buf
            .get(self.pos..end)
            .ok_or_else(|| "truncated message".to_string())?
            .try_into()
            // LINT: allow(panic) — the slice is exactly 8 bytes by construction.
            .expect("8-byte slice");
        self.pos = end;
        Ok(u64::from_le_bytes(raw))
    }

    fn bool(&mut self) -> Result<bool, String> {
        Ok(self.u8()? != 0)
    }

    fn bytes(&mut self) -> Result<Vec<u8>, String> {
        let len = self.u32()? as usize;
        let end = self.pos + len;
        let v = self
            .buf
            .get(self.pos..end)
            .ok_or_else(|| "truncated message".to_string())?
            .to_vec();
        self.pos = end;
        Ok(v)
    }

    fn string(&mut self) -> Result<String, String> {
        String::from_utf8(self.bytes()?).map_err(|e| format!("bad utf8: {e}"))
    }

    fn mode(&mut self) -> Result<LockMode, String> {
        Ok(match self.u8()? {
            0 => LockMode::IS,
            1 => LockMode::IX,
            2 => LockMode::S,
            3 => LockMode::SIX,
            4 => LockMode::X,
            t => return Err(format!("bad lock mode tag {t}")),
        })
    }

    fn name(&mut self) -> Result<LockName, String> {
        Ok(match self.u8()? {
            0 => LockName::Database(self.u32()?),
            1 => LockName::File {
                db: self.u32()?,
                file: self.u32()?,
            },
            2 => LockName::Segment {
                area: self.u32()?,
                page: self.u64()?,
            },
            3 => LockName::Page {
                area: self.u32()?,
                page: self.u64()?,
            },
            4 => LockName::Object {
                area: self.u32()?,
                page: self.u64()?,
                slot: self.u32()?,
            },
            t => return Err(format!("bad lock name tag {t}")),
        })
    }

    fn page(&mut self) -> Result<DbPage, String> {
        Ok(DbPage {
            area: self.u32()?,
            page: self.u64()?,
        })
    }

    fn update(&mut self) -> Result<PageUpdate, String> {
        Ok(PageUpdate {
            page: self.page()?,
            offset: self.u32()?,
            before: self.bytes()?,
            after: self.bytes()?,
        })
    }

    fn updates(&mut self) -> Result<Vec<PageUpdate>, String> {
        let n = self.u32()? as usize;
        let mut v = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            v.push(self.update()?);
        }
        Ok(v)
    }

    fn vote(&mut self) -> Result<Vote, String> {
        Ok(match self.u8()? {
            0 => Vote::Yes,
            1 => Vote::No,
            2 => Vote::ReadOnly,
            t => return Err(format!("bad vote tag {t}")),
        })
    }

    fn prepare_item(&mut self) -> Result<PrepareItem, String> {
        Ok(PrepareItem {
            gtxn: self.u64()?,
            locker: self.u32()?,
            release_locks: self.bool()?,
            updates: self.updates()?,
        })
    }
}

/// Maximum envelope ([`Msg::WithTrailers`], [`Msg::Leased`]) nesting the
/// decoder accepts — trailers may themselves be envelopes in principle,
/// but unbounded nesting from a hostile peer must not recurse the stack
/// away.
const MAX_TRAILER_DEPTH: u32 = 4;

impl Msg {
    /// Wraps `msg` in a [`Msg::WithTrailers`] envelope, collapsing to the
    /// bare message when there is nothing to piggyback.
    pub fn with_trailers(msg: Msg, trailers: Vec<Msg>) -> Msg {
        if trailers.is_empty() {
            msg
        } else {
            Msg::WithTrailers {
                msg: Box::new(msg),
                trailers,
            }
        }
    }

    /// Undoes [`Self::with_trailers`]: the carrier and what rode with it.
    pub(crate) fn into_trailers(self) -> (Msg, Vec<Msg>) {
        match self {
            Msg::WithTrailers { msg, trailers } => (*msg, trailers),
            bare => (bare, Vec::new()),
        }
    }

    /// Encodes the message into its binary wire form.
    pub fn encode(&self) -> Vec<u8> {
        let mut b = Vec::new();
        match self {
            Msg::BeginTxn => b.push(0),
            Msg::FetchPage { page, mode } => {
                b.push(1);
                put_u32(&mut b, page.area);
                put_u64(&mut b, page.page);
                put_mode(&mut b, *mode);
            }
            Msg::ReadPage { page } => {
                b.push(2);
                put_u32(&mut b, page.area);
                put_u64(&mut b, page.page);
            }
            Msg::Lock { name, mode } => {
                b.push(3);
                put_name(&mut b, name);
                put_mode(&mut b, *mode);
            }
            Msg::ReleaseCached { names } => {
                b.push(4);
                // LINT: allow(cast) — a release batch is bounded by the lock cache size.
                put_u32(&mut b, names.len() as u32);
                for n in names {
                    put_name(&mut b, n);
                }
            }
            Msg::ReleaseAll => b.push(5),
            Msg::AllocSegment { area, pages } => {
                b.push(6);
                put_u32(&mut b, *area);
                put_u32(&mut b, *pages);
            }
            Msg::FreeSegment {
                area,
                start_page,
                pages,
            } => {
                b.push(7);
                put_u32(&mut b, *area);
                put_u64(&mut b, *start_page);
                put_u32(&mut b, *pages);
            }
            Msg::ReadAt {
                area,
                page,
                offset,
                len,
            } => {
                b.push(8);
                put_u32(&mut b, *area);
                put_u64(&mut b, *page);
                put_u32(&mut b, *offset);
                put_u32(&mut b, *len);
            }
            Msg::WriteAt {
                area,
                page,
                offset,
                data,
            } => {
                b.push(9);
                put_u32(&mut b, *area);
                put_u64(&mut b, *page);
                put_u32(&mut b, *offset);
                put_bytes(&mut b, data);
            }
            Msg::Commit { txn, updates, req } => {
                b.push(10);
                put_u64(&mut b, *txn);
                put_u64(&mut b, *req);
                put_updates(&mut b, updates);
            }
            Msg::Abort { txn } => {
                b.push(11);
                put_u64(&mut b, *txn);
            }
            Msg::CommitGlobal {
                gtxn,
                participants,
                req,
                release_read_locks,
                branches,
            } => {
                b.push(13);
                put_u64(&mut b, *gtxn);
                put_u64(&mut b, *req);
                // LINT: allow(cast) — participant lists are node counts.
                put_u32(&mut b, participants.len() as u32);
                for p in participants {
                    put_u32(&mut b, *p);
                }
                b.push(u8::from(*release_read_locks));
                // LINT: allow(cast) — one branch per participant node.
                put_u32(&mut b, branches.len() as u32);
                for (p, updates) in branches {
                    put_u32(&mut b, *p);
                    put_updates(&mut b, updates);
                }
            }
            Msg::QueryDecision { gtxn } => {
                b.push(16);
                put_u64(&mut b, *gtxn);
            }
            Msg::BeginGlobal => b.push(17),
            Msg::Callback { name } => {
                b.push(18);
                put_name(&mut b, name);
            }
            Msg::CallbackDowngrade { name, to } => {
                b.push(19);
                put_name(&mut b, name);
                put_mode(&mut b, *to);
            }
            Msg::Ok => b.push(20),
            Msg::Err(e) => {
                b.push(21);
                put_bytes(&mut b, e.as_bytes());
            }
            Msg::TxnId(t) => {
                b.push(22);
                put_u64(&mut b, *t);
            }
            Msg::PageData(d) => {
                b.push(23);
                put_bytes(&mut b, d);
            }
            Msg::Granted => b.push(24),
            Msg::Denied(m) => {
                b.push(25);
                put_bytes(&mut b, m.as_bytes());
            }
            Msg::DiskSeg {
                area,
                start_page,
                pages,
            } => {
                b.push(26);
                put_u32(&mut b, *area);
                put_u64(&mut b, *start_page);
                put_u32(&mut b, *pages);
            }
            Msg::Bytes(d) => {
                b.push(27);
                put_bytes(&mut b, d);
            }
            Msg::CallbackReleased => b.push(28),
            Msg::CallbackDeferred => b.push(29),
            Msg::Decision { committed } => {
                b.push(32);
                b.push(u8::from(*committed));
            }
            Msg::Unknown => b.push(33),
            Msg::Heartbeat => b.push(34),
            Msg::DecisionPending => b.push(35),
            Msg::PrepareBatch { items } => {
                b.push(37);
                // LINT: allow(cast) — a batch is capped by the server's PREP_BATCH_MAX.
                put_u32(&mut b, items.len() as u32);
                for item in items {
                    put_prepare_item(&mut b, item);
                }
            }
            Msg::VoteBatch { votes } => {
                b.push(38);
                // LINT: allow(cast) — one vote per batched prepare.
                put_u32(&mut b, votes.len() as u32);
                for (gtxn, vote) in votes {
                    put_u64(&mut b, *gtxn);
                    put_vote(&mut b, *vote);
                }
            }
            Msg::DecideBatch { decisions } => {
                b.push(39);
                // LINT: allow(cast) — one verdict per round in flight, far below u32::MAX.
                put_u32(&mut b, decisions.len() as u32);
                for (gtxn, commit) in decisions {
                    put_u64(&mut b, *gtxn);
                    b.push(u8::from(*commit));
                }
            }
            Msg::WithTrailers { msg, trailers } => {
                b.push(40);
                put_bytes(&mut b, &msg.encode());
                // LINT: allow(cast) — a frame carries a handful of trailers.
                put_u32(&mut b, trailers.len() as u32);
                for t in trailers {
                    put_bytes(&mut b, &t.encode());
                }
            }
            Msg::Leased { lease, msg } => {
                b.push(41);
                put_u64(&mut b, *lease);
                put_bytes(&mut b, &msg.encode());
            }
            Msg::FetchPages { pages } => {
                b.push(42);
                // LINT: allow(cast) — a fetch names a handful of pages.
                put_u32(&mut b, pages.len() as u32);
                for (page, mode) in pages {
                    put_u32(&mut b, page.area);
                    put_u64(&mut b, page.page);
                    b.push(u8::from(mode.is_some()));
                    if let Some(mode) = mode {
                        put_mode(&mut b, *mode);
                    }
                }
            }
            Msg::PagesData(pages) => {
                b.push(43);
                // LINT: allow(cast) — one entry per fetched page.
                put_u32(&mut b, pages.len() as u32);
                for data in pages {
                    put_bytes(&mut b, data);
                }
            }
        }
        b
    }

    /// Decodes a message from its binary wire form.
    pub fn decode(buf: &[u8]) -> Result<Msg, String> {
        Self::decode_at(buf, 0)
    }

    fn decode_at(buf: &[u8], depth: u32) -> Result<Msg, String> {
        if depth > MAX_TRAILER_DEPTH {
            return Err("trailer nesting too deep".to_string());
        }
        let mut c = Cursor { buf, pos: 0 };
        let msg = match c.u8()? {
            0 => Msg::BeginTxn,
            1 => Msg::FetchPage {
                page: c.page()?,
                mode: c.mode()?,
            },
            2 => Msg::ReadPage { page: c.page()? },
            3 => Msg::Lock {
                name: c.name()?,
                mode: c.mode()?,
            },
            4 => {
                let n = c.u32()? as usize;
                let mut names = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    names.push(c.name()?);
                }
                Msg::ReleaseCached { names }
            }
            5 => Msg::ReleaseAll,
            6 => Msg::AllocSegment {
                area: c.u32()?,
                pages: c.u32()?,
            },
            7 => Msg::FreeSegment {
                area: c.u32()?,
                start_page: c.u64()?,
                pages: c.u32()?,
            },
            8 => Msg::ReadAt {
                area: c.u32()?,
                page: c.u64()?,
                offset: c.u32()?,
                len: c.u32()?,
            },
            9 => Msg::WriteAt {
                area: c.u32()?,
                page: c.u64()?,
                offset: c.u32()?,
                data: c.bytes()?,
            },
            10 => Msg::Commit {
                txn: c.u64()?,
                req: c.u64()?,
                updates: c.updates()?,
            },
            11 => Msg::Abort { txn: c.u64()? },
            13 => {
                let gtxn = c.u64()?;
                let req = c.u64()?;
                let n = c.u32()? as usize;
                let mut participants = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    participants.push(c.u32()?);
                }
                let release_read_locks = c.bool()?;
                let nb = c.u32()? as usize;
                let mut branches = Vec::with_capacity(nb.min(1024));
                for _ in 0..nb {
                    let p = c.u32()?;
                    branches.push((p, c.updates()?));
                }
                Msg::CommitGlobal {
                    gtxn,
                    participants,
                    req,
                    release_read_locks,
                    branches,
                }
            }
            16 => Msg::QueryDecision { gtxn: c.u64()? },
            17 => Msg::BeginGlobal,
            18 => Msg::Callback { name: c.name()? },
            19 => Msg::CallbackDowngrade {
                name: c.name()?,
                to: c.mode()?,
            },
            20 => Msg::Ok,
            21 => Msg::Err(c.string()?),
            22 => Msg::TxnId(c.u64()?),
            23 => Msg::PageData(c.bytes()?),
            24 => Msg::Granted,
            25 => Msg::Denied(c.string()?),
            26 => Msg::DiskSeg {
                area: c.u32()?,
                start_page: c.u64()?,
                pages: c.u32()?,
            },
            27 => Msg::Bytes(c.bytes()?),
            28 => Msg::CallbackReleased,
            29 => Msg::CallbackDeferred,
            32 => Msg::Decision {
                committed: c.bool()?,
            },
            33 => Msg::Unknown,
            34 => Msg::Heartbeat,
            35 => Msg::DecisionPending,
            37 => {
                let n = c.u32()? as usize;
                let mut items = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    items.push(c.prepare_item()?);
                }
                Msg::PrepareBatch { items }
            }
            38 => {
                let n = c.u32()? as usize;
                let mut votes = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    votes.push((c.u64()?, c.vote()?));
                }
                Msg::VoteBatch { votes }
            }
            39 => {
                let n = c.u32()? as usize;
                let mut decisions = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    decisions.push((c.u64()?, c.bool()?));
                }
                Msg::DecideBatch { decisions }
            }
            40 => {
                let inner = c.bytes()?;
                let msg = Box::new(Msg::decode_at(&inner, depth + 1)?);
                let n = c.u32()? as usize;
                let mut trailers = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    let raw = c.bytes()?;
                    trailers.push(Msg::decode_at(&raw, depth + 1)?);
                }
                Msg::WithTrailers { msg, trailers }
            }
            41 => {
                let lease = c.u64()?;
                let inner = c.bytes()?;
                Msg::Leased {
                    lease,
                    msg: Box::new(Msg::decode_at(&inner, depth + 1)?),
                }
            }
            42 => {
                let n = c.u32()? as usize;
                let mut pages = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    let page = c.page()?;
                    let mode = if c.bool()? { Some(c.mode()?) } else { None };
                    pages.push((page, mode));
                }
                Msg::FetchPages { pages }
            }
            43 => {
                let n = c.u32()? as usize;
                let mut pages = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    pages.push(c.bytes()?);
                }
                Msg::PagesData(pages)
            }
            t => return Err(format!("bad message tag {t}")),
        };
        if c.pos != buf.len() {
            return Err(format!(
                "{} trailing byte(s) after message",
                buf.len() - c.pos
            ));
        }
        Ok(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gtxn_encoding() {
        let gtxn: GTxn = (7u64 << 32) | 99;
        assert_eq!(coordinator_of(gtxn), 7);
    }

    #[test]
    fn codec_round_trips_a_commit() {
        let msg = Msg::Commit {
            txn: 42,
            updates: vec![PageUpdate {
                page: DbPage { area: 1, page: 7 },
                offset: 64,
                before: vec![0, 1, 2],
                after: vec![3, 4, 5],
            }],
            req: 9,
        };
        assert_eq!(Msg::decode(&msg.encode()), Ok(msg));
    }

    #[test]
    fn codec_round_trips_trailers() {
        let msg = Msg::with_trailers(
            Msg::CommitGlobal {
                gtxn: (100u64 << 32) | 5,
                participants: vec![100, 101],
                req: 3,
                release_read_locks: true,
                branches: vec![(
                    101,
                    vec![PageUpdate {
                        page: DbPage { area: 2, page: 9 },
                        offset: 0,
                        before: vec![7],
                        after: vec![8],
                    }],
                )],
            },
            vec![
                Msg::BeginGlobal,
                Msg::ReleaseAll,
                Msg::DecideBatch {
                    decisions: vec![((100u64 << 32) | 4, true)],
                },
            ],
        );
        assert_eq!(Msg::decode(&msg.encode()), Ok(msg));
        // Empty trailer lists collapse to the bare message.
        assert_eq!(Msg::with_trailers(Msg::Ok, vec![]), Msg::Ok);
    }

    #[test]
    fn codec_rejects_runaway_trailer_nesting() {
        let mut msg = Msg::Ok;
        for _ in 0..8 {
            msg = Msg::WithTrailers {
                msg: Box::new(msg),
                trailers: vec![],
            };
        }
        assert!(Msg::decode(&msg.encode()).is_err(), "nesting past the depth cap");
    }

    #[test]
    fn codec_rejects_garbage() {
        assert!(Msg::decode(&[]).is_err());
        assert!(Msg::decode(&[250]).is_err());
        assert!(Msg::decode(&[10, 1]).is_err(), "truncated commit");
        let mut ok = Msg::Ok.encode();
        ok.push(0);
        assert!(Msg::decode(&ok).is_err(), "trailing bytes rejected");
    }
}
