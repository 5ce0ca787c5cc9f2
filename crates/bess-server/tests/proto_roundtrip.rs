//! Property-based round-trip coverage for the wire codec.
//!
//! Every [`Msg`] variant — including the failure-containment additions
//! ([`Msg::Heartbeat`], [`Msg::DecisionPending`] and the `req` request ids
//! on [`Msg::Commit`] / [`Msg::CommitGlobal`], and the sublinear-commit
//! additions [`Msg::PrepareBatch`], [`Msg::VoteBatch`],
//! [`Msg::DecideBatch`] and [`Msg::WithTrailers`], and the batched fetch
//! [`Msg::FetchPages`] / [`Msg::PagesData`]) — must satisfy
//! `decode(encode(m)) == Ok(m)`. The strategy below gives each of the 38
//! variants equal weight so a few hundred cases exercise all of them many
//! times over.

use bess_cache::DbPage;
use bess_lock::{LockMode, LockName};
use bess_server::{Msg, PageUpdate, PrepareItem, Vote};
use proptest::prelude::*;

fn mode_strategy() -> impl Strategy<Value = LockMode> {
    prop_oneof![
        Just(LockMode::IS),
        Just(LockMode::IX),
        Just(LockMode::S),
        Just(LockMode::SIX),
        Just(LockMode::X),
    ]
}

/// A lock mode to acquire, or `None`: the lock is held.
fn held_or(mode: impl Strategy<Value = LockMode>) -> impl Strategy<Value = Option<LockMode>> {
    (any::<bool>(), mode).prop_map(|(held, mode)| (!held).then_some(mode))
}

fn page_strategy() -> impl Strategy<Value = DbPage> {
    (any::<u32>(), any::<u64>()).prop_map(|(area, page)| DbPage { area, page })
}

fn name_strategy() -> impl Strategy<Value = LockName> {
    prop_oneof![
        any::<u32>().prop_map(LockName::Database),
        (any::<u32>(), any::<u32>()).prop_map(|(db, file)| LockName::File { db, file }),
        (any::<u32>(), any::<u64>()).prop_map(|(area, page)| LockName::Segment { area, page }),
        (any::<u32>(), any::<u64>()).prop_map(|(area, page)| LockName::Page { area, page }),
        (any::<u32>(), any::<u64>(), any::<u32>())
            .prop_map(|(area, page, slot)| LockName::Object { area, page, slot }),
    ]
}

fn bytes_strategy() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(any::<u8>(), 0..48)
}

/// The vendored proptest shim has no `String` strategy; build short ASCII
/// strings from a byte vector (lossless for bytes < 0x80).
fn string_strategy() -> impl Strategy<Value = String> {
    prop::collection::vec(0x20u8..0x7f, 0..24)
        .prop_map(|v| String::from_utf8_lossy(&v).into_owned())
}

fn update_strategy() -> impl Strategy<Value = PageUpdate> {
    (page_strategy(), any::<u32>(), bytes_strategy(), bytes_strategy())
        .prop_map(|(page, offset, before, after)| PageUpdate { page, offset, before, after })
}

fn updates_strategy() -> impl Strategy<Value = Vec<PageUpdate>> {
    prop::collection::vec(update_strategy(), 0..4)
}

fn vote_strategy() -> impl Strategy<Value = Vote> {
    prop_oneof![Just(Vote::Yes), Just(Vote::No), Just(Vote::ReadOnly)]
}

fn prepare_item_strategy() -> impl Strategy<Value = PrepareItem> {
    (any::<u64>(), any::<u32>(), any::<bool>(), updates_strategy()).prop_map(
        |(gtxn, locker, release_locks, updates)| PrepareItem {
            gtxn,
            locker,
            release_locks,
            updates,
        },
    )
}

fn branches_strategy() -> impl Strategy<Value = Vec<(u32, Vec<PageUpdate>)>> {
    prop::collection::vec((any::<u32>(), updates_strategy()), 0..3)
}

/// A small pool of simple messages used as trailer payloads / carriers for
/// [`Msg::WithTrailers`], so the strategy stays non-recursive.
fn leaf_msg_strategy() -> impl Strategy<Value = Msg> {
    prop_oneof![
        Just(Msg::Heartbeat),
        Just(Msg::ReleaseAll),
        Just(Msg::BeginTxn),
        Just(Msg::BeginGlobal),
        any::<u64>().prop_map(Msg::TxnId),
        (any::<u64>(), any::<bool>())
            .prop_map(|(gtxn, commit)| Msg::DecideBatch { decisions: vec![(gtxn, commit)] }),
    ]
}

fn msg_strategy() -> impl Strategy<Value = Msg> {
    prop_oneof![
        // ---- client -> server requests --------------------------------
        Just(Msg::BeginTxn),
        (page_strategy(), mode_strategy()).prop_map(|(page, mode)| Msg::FetchPage { page, mode }),
        page_strategy().prop_map(|page| Msg::ReadPage { page }),
        prop::collection::vec((page_strategy(), held_or(mode_strategy())), 0..5)
            .prop_map(|pages| Msg::FetchPages { pages }),
        (name_strategy(), mode_strategy()).prop_map(|(name, mode)| Msg::Lock { name, mode }),
        prop::collection::vec(name_strategy(), 0..5)
            .prop_map(|names| Msg::ReleaseCached { names }),
        Just(Msg::ReleaseAll),
        (any::<u32>(), any::<u32>()).prop_map(|(area, pages)| Msg::AllocSegment { area, pages }),
        (any::<u32>(), any::<u64>(), any::<u32>())
            .prop_map(|(area, start_page, pages)| Msg::FreeSegment { area, start_page, pages }),
        (any::<u32>(), any::<u64>(), any::<u32>(), any::<u32>())
            .prop_map(|(area, page, offset, len)| Msg::ReadAt { area, page, offset, len }),
        (any::<u32>(), any::<u64>(), any::<u32>(), bytes_strategy())
            .prop_map(|(area, page, offset, data)| Msg::WriteAt { area, page, offset, data }),
        (any::<u64>(), updates_strategy(), any::<u64>())
            .prop_map(|(txn, updates, req)| Msg::Commit { txn, updates, req }),
        any::<u64>().prop_map(|txn| Msg::Abort { txn }),
        Just(Msg::Heartbeat),
        // ---- two-phase commit ------------------------------------------
        (
            (any::<u64>(), prop::collection::vec(any::<u32>(), 0..5)),
            (any::<u64>(), any::<bool>(), branches_strategy())
        )
            .prop_map(|((gtxn, participants), (req, release_read_locks, branches))| {
                Msg::CommitGlobal {
                    gtxn,
                    participants,
                    req,
                    release_read_locks,
                    branches,
                }
            }),
        prop::collection::vec(prepare_item_strategy(), 0..5)
            .prop_map(|items| Msg::PrepareBatch { items }),
        prop::collection::vec((any::<u64>(), any::<bool>()), 0..5)
            .prop_map(|decisions| Msg::DecideBatch { decisions }),
        any::<u64>().prop_map(|gtxn| Msg::QueryDecision { gtxn }),
        Just(Msg::BeginGlobal),
        // ---- server -> client ------------------------------------------
        name_strategy().prop_map(|name| Msg::Callback { name }),
        (name_strategy(), mode_strategy())
            .prop_map(|(name, to)| Msg::CallbackDowngrade { name, to }),
        // ---- replies ----------------------------------------------------
        Just(Msg::Ok),
        string_strategy().prop_map(Msg::Err),
        any::<u64>().prop_map(Msg::TxnId),
        bytes_strategy().prop_map(Msg::PageData),
        prop::collection::vec(bytes_strategy(), 0..4).prop_map(Msg::PagesData),
        Just(Msg::Granted),
        string_strategy().prop_map(Msg::Denied),
        (any::<u32>(), any::<u64>(), any::<u32>())
            .prop_map(|(area, start_page, pages)| Msg::DiskSeg { area, start_page, pages }),
        bytes_strategy().prop_map(Msg::Bytes),
        Just(Msg::CallbackReleased),
        Just(Msg::CallbackDeferred),
        prop::collection::vec((any::<u64>(), vote_strategy()), 0..5)
            .prop_map(|votes| Msg::VoteBatch { votes }),
        any::<bool>().prop_map(|committed| Msg::Decision { committed }),
        Just(Msg::Unknown),
        Just(Msg::DecisionPending),
        // ---- piggybacked control traffic -------------------------------
        (leaf_msg_strategy(), prop::collection::vec(leaf_msg_strategy(), 0..3))
            .prop_map(|(msg, trailers)| Msg::WithTrailers { msg: Box::new(msg), trailers }),
        // ---- lease identity ---------------------------------------------
        (any::<u64>(), leaf_msg_strategy())
            .prop_map(|(lease, msg)| Msg::Leased { lease, msg: Box::new(msg) }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]
    #[test]
    fn every_variant_round_trips(msg in msg_strategy()) {
        let wire = msg.encode();
        prop_assert_eq!(Msg::decode(&wire), Ok(msg));
    }

    /// A truncated frame must decode to an error, never panic or
    /// mis-decode into a different message.
    #[test]
    fn truncation_never_round_trips(msg in msg_strategy(), cut in 1usize..8) {
        let wire = msg.encode();
        if wire.len() > cut {
            let truncated = &wire[..wire.len() - cut];
            prop_assert!(Msg::decode(truncated).is_err());
        }
    }
}

/// Deterministic spot-check that the strategy above really can emit every
/// tag: decode must reject an unknown tag byte, and the highest known tags
/// (WithTrailers = 40, Leased = 41) must round-trip, one inside the other
/// as a stamped frame with trailers travels.
#[test]
fn unknown_tag_is_rejected() {
    assert!(Msg::decode(&[200u8]).is_err());
    assert_eq!(Msg::decode(&Msg::Heartbeat.encode()), Ok(Msg::Heartbeat));
    let wrapped = Msg::WithTrailers {
        msg: Box::new(Msg::DecisionPending),
        trailers: vec![Msg::Heartbeat, Msg::ReleaseAll],
    };
    assert_eq!(Msg::decode(&wrapped.encode()), Ok(wrapped.clone()));
    let stamped = Msg::Leased {
        lease: 7,
        msg: Box::new(wrapped),
    };
    assert_eq!(stamped.encode()[0], 41);
    assert_eq!(Msg::decode(&stamped.encode()), Ok(stamped));
}

/// A transaction's first frame as it travels: the request, the previous
/// transaction's deferred release and the `BeginTxn` that announces the
/// new one as trailers, under a caching client's lease stamp. The two
/// newest tags are the batched fetch's.
#[test]
fn a_first_frame_with_its_announcement_round_trips() {
    let pages = vec![
        (DbPage { area: 0, page: 7 }, Some(LockMode::S)),
        (DbPage { area: 0, page: 8 }, None),
    ];
    let request = Msg::FetchPages { pages };
    assert_eq!(request.encode()[0], 42);
    let frame = Msg::Leased {
        lease: 3,
        msg: Box::new(Msg::with_trailers(request, vec![Msg::ReleaseAll, Msg::BeginTxn])),
    };
    assert_eq!(Msg::decode(&frame.encode()), Ok(frame));
    let reply = Msg::PagesData(vec![vec![1, 2, 3], vec![]]);
    assert_eq!(reply.encode()[0], 43);
    assert_eq!(Msg::decode(&reply.encode()), Ok(reply));
}

/// The wire format outlives the messages it once carried: the six retired
/// 2PC tags stay retired (an old peer's frame is an error, never a
/// different message), and retiring them renumbered nothing.
#[test]
fn retired_tags_stay_dead_and_survivors_keep_their_bytes() {
    for tag in [12u8, 14, 15, 30, 31, 36] {
        // Long enough for any of the retired layouts, so the tag itself —
        // not truncation — is what the decoder rejects.
        let mut frame = vec![0u8; 32];
        frame[0] = tag;
        assert_eq!(Msg::decode(&frame), Err(format!("bad message tag {tag}")));
    }
    let survivors: [(u8, Msg); 10] = [
        (11, Msg::Abort { txn: 1 }),
        (13, Msg::CommitGlobal {
            gtxn: 1,
            participants: vec![],
            req: 0,
            release_read_locks: false,
            branches: vec![],
        }),
        (16, Msg::QueryDecision { gtxn: 1 }),
        (17, Msg::BeginGlobal),
        (29, Msg::CallbackDeferred),
        (32, Msg::Decision { committed: true }),
        (35, Msg::DecisionPending),
        (37, Msg::PrepareBatch { items: vec![] }),
        (38, Msg::VoteBatch { votes: vec![] }),
        (39, Msg::DecideBatch { decisions: vec![] }),
    ];
    for (tag, msg) in survivors {
        assert_eq!(msg.encode()[0], tag, "{msg:?} moved off tag {tag}");
    }
}
