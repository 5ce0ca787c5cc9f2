//! Golden registry-dump test: every counter that the twelve pre-`bess-obs`
//! snapshot structs exposed must still appear in `Registry::dump()` of the
//! unified views. This is the API-migration safety net — if a counter is
//! renamed or dropped from the registry, this list is where the change has
//! to be acknowledged.

use std::sync::Arc;
use std::time::Duration;

use bess_core::{Database, Session, SessionConfig};
use bess_net::{Network, NodeId};
use bess_server::{
    register_areas, BessServer, ClientConfig, ClientConn, Directory, Msg, NodeServer,
    NodeServerConfig, ServerConfig,
};
use bess_storage::{AreaConfig, AreaId, StorageArea};
use bess_wal::LogManager;

/// Every metric name the old `*StatsSnapshot` structs carried, as it must
/// appear in a dump of the matching unified registry. Grouped by the struct
/// it replaced.
const EMBEDDED_GOLDEN: &[&str] = &[
    // MemStats (bess-vm)
    "vm.reserve_calls",
    "vm.reserved_bytes",
    "vm.unreserve_calls",
    "vm.protect_calls",
    "vm.map_calls",
    "vm.unmap_calls",
    "vm.read_faults",
    "vm.write_faults",
    "vm.denied_faults",
    "vm.read_bytes",
    "vm.write_bytes",
    // SegStats (bess-segment)
    "seg.slotted_reserved",
    "seg.slotted_loads",
    "seg.data_loads",
    "seg.dp_fixups",
    "seg.refs_swizzled",
    "seg.refs_unresolved",
    "seg.protect_cycles",
    "seg.stray_writes_denied",
    "seg.write_detections",
    "seg.objects_created",
    "seg.objects_deleted",
    // PoolStats (bess-cache private)
    "cache.private.loads",
    "cache.private.hits",
    "cache.private.evictions",
    "cache.private.write_backs",
    "cache.private.clock_protected",
    // IoStats (bess-storage, per area)
    "storage.a0.page_reads",
    "storage.a0.page_writes",
    "storage.a0.syncs",
    "storage.a0.extends",
    "storage.a0.read_retries",
    // Allocator health gauges (§E22 harness): fragmentation and free
    // pages, refreshed on every alloc/free.
    "storage.a0.frag_permille",
    "storage.a0.free_pages",
    // WalStats (bess-wal)
    "wal.appends",
    "wal.append_bytes",
    "wal.flushes",
    "wal.reads",
    // Group commit (PR 5): the batched log force.
    "wal.group.leaders",
    "wal.group.followers",
    "wal.group.size",
    // Restart redo, one read-modify-write per page (PR 13).
    "wal.recovery.pages_restored",
    // Checkpoints completed, the pipeline's automatic ones included.
    "wal.checkpoints",
    // LockStats (bess-lock manager)
    "lock.requests",
    "lock.immediate",
    "lock.waits",
    "lock.timeouts",
    "lock.upgrades",
];

const SERVER_GOLDEN: &[&str] = &[
    // ServerStats (bess-server)
    "server.txns",
    "server.commits",
    "server.aborts",
    "server.fetches",
    "server.reads",
    "server.locks_granted",
    "server.locks_denied",
    "server.callbacks_sent",
    "server.callback_releases",
    "server.callback_deferred",
    "server.callback_downgrades",
    "server.prepares",
    "server.coordinated",
    "server.leases_expired",
    "server.lease_lost_rejections",
    "server.txns_reaped",
    "server.dedup_hits",
    "server.drain_rejections",
    "server.read_only_rejections",
    "server.log_force_failures",
    // Sublinear distributed commit (PR 10): presumed-commit 2PC,
    // read-only participants, and coordinator batching.
    "server.2pc.readonly_votes",
    "server.2pc.readonly_rounds",
    "server.2pc.prepare_batches",
    "server.2pc.batched_prepares",
    "server.2pc.oneway_decides",
    "server.2pc.decide_resends",
    // End-to-end integrity (PR 8): detect-and-repair reads plus the
    // background scrubber.
    "storage.corruption.detected",
    "storage.corruption.repaired",
    "storage.corruption.unrepairable",
    "storage.scrub.passes",
    "storage.scrub.pages",
    "storage.scrub.stale",
    // The server's adopted subsystems.
    "lock.requests",
    "wal.appends",
    "wal.group.size",
    "wal.recovery.pages_restored",
    "wal.checkpoints",
    "storage.a0.page_reads",
];

const CLIENT_GOLDEN: &[&str] = &[
    // ClientStats (bess-server client)
    "client.lock_rpcs",
    "client.lock_cache_hits",
    "client.fetch_rpcs",
    "client.read_rpcs",
    "client.pages_fetched",
    "client.commits",
    "client.commit_failures",
    "client.aborts",
    "client.callbacks",
    "client.retries",
    "client.heartbeats",
    "client.leases_lost",
    // Page images kept on the cached page locks (PR 13); ImageStats lives
    // in bess-lock, registered by the connection under its own prefix.
    "client.page_cache.hits",
    "client.page_cache.misses",
    "client.page_cache.evictions",
    "client.page_cache.invalidations",
    // LockCacheStats (bess-lock cache), adopted into the client registry.
    "lock.cache.hits",
    "lock.cache.misses",
    "lock.cache.callbacks",
    "lock.cache.callback_released",
    "lock.cache.callback_deferred",
];

const NODESERVER_GOLDEN: &[&str] = &[
    // NodeServerStats (bess-server nodeserver)
    "nodeserver.cache_hits",
    "nodeserver.remote_fetches",
    "nodeserver.fetch_messages",
    "nodeserver.lock_local",
    "nodeserver.lock_remote",
    "nodeserver.callbacks",
    "nodeserver.commits",
    "nodeserver.global_commits",
    "nodeserver.local_commits",
    "nodeserver.reshipped",
    // SharedStats (bess-cache shared), adopted into the node server.
    "cache.shared.hits",
    "cache.shared.loads",
    "cache.shared.evictions",
    "cache.shared.dirty_evictions",
    "cache.shared.vframe_assigns",
];

const NET_GOLDEN: &[&str] = &[
    // NetStats (bess-net)
    "net.sends",
    "net.calls",
    "net.unreachable",
    "net.faulted",
    "net.duplicated",
    // Piggybacked control traffic (PR 10).
    "net.trailers.carried",
    "net.heartbeats.suppressed",
];

fn assert_all_present(dump: &str, golden: &[&str], what: &str) {
    let names: Vec<&str> = dump
        .lines()
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    for want in golden {
        assert!(
            names.contains(want),
            "{what}: metric `{want}` missing from registry dump:\n{dump}"
        );
    }
}

fn make_areas(ids: &[u32]) -> Arc<bess_cache::AreaSet> {
    let set = Arc::new(bess_cache::AreaSet::new());
    for &id in ids {
        set.add(Arc::new(
            StorageArea::create_mem(AreaId(id), AreaConfig::default()).unwrap(),
        ));
    }
    set
}

/// The embedded session's unified registry carries every counter from the
/// six single-process stats structs.
#[test]
fn embedded_session_dump_covers_old_snapshots() {
    let set = make_areas(&[0]);
    let db = Database::create(&*Arc::clone(&set), "golden", 1, 1, 0).unwrap();
    let session = Session::embedded(
        db,
        Arc::clone(&set),
        Some(Arc::new(LogManager::create_mem())),
        Some(Arc::new(bess_lock::LockManager::new(Duration::from_secs(5)))),
        SessionConfig::default(),
    );
    // Exercise a little so the dump is not a page of zeros.
    session.begin().unwrap();
    let seg = session.create_segment(0, 16, 4).unwrap();
    session.create_bytes(seg, b"golden").unwrap();
    session.commit().unwrap();

    let dump = session.metrics().dump();
    assert_all_present(&dump, EMBEDDED_GOLDEN, "embedded session");
    // ViewStats lives in the multi-process shared-memory path, which an
    // embedded session does not construct; it is covered separately below.
}

/// The server-side unified registry carries ServerStats plus its adopted
/// lock manager, WAL, and storage areas.
#[test]
fn server_and_client_dumps_cover_old_snapshots() {
    let net: Arc<Network<Msg>> = Network::new(Duration::ZERO);
    let dir = Arc::new(Directory::new());
    let set = make_areas(&[0]);
    register_areas(&dir, NodeId(100), &set);
    let (server, _) = BessServer::start(
        ServerConfig::new(NodeId(100)),
        Arc::clone(&set),
        LogManager::create_mem(),
        &net,
    );
    let client = ClientConn::connect(
        &net,
        Arc::clone(&dir),
        ClientConfig::new(NodeId(1), server.node()),
    );
    client.begin().unwrap();
    client.commit(vec![]).unwrap();

    assert_all_present(
        &server.metrics().registry().dump(),
        SERVER_GOLDEN,
        "server",
    );
    assert_all_present(
        &client.metrics().registry().dump(),
        CLIENT_GOLDEN,
        "client",
    );
    assert_all_present(&net.metrics().registry().dump(), NET_GOLDEN, "network");
    client.disconnect();
}

/// The node server's unified registry carries NodeServerStats plus the
/// shared cache it fronts.
#[test]
fn nodeserver_dump_covers_old_snapshots() {
    let net: Arc<Network<Msg>> = Network::new(Duration::ZERO);
    let dir = Arc::new(Directory::new());
    let set = make_areas(&[0]);
    register_areas(&dir, NodeId(100), &set);
    let (_server, _) = BessServer::start(
        ServerConfig::new(NodeId(100)),
        Arc::clone(&set),
        LogManager::create_mem(),
        &net,
    );
    let ns = NodeServer::start(NodeServerConfig::new(NodeId(50)), Arc::clone(&dir), &net);
    assert_all_present(
        &ns.metrics().registry().dump(),
        NODESERVER_GOLDEN,
        "node server",
    );
    ns.shutdown();
}

/// ViewStats (the SMT-style shared view) in its own registry.
#[test]
fn shared_view_dump_covers_old_snapshot() {
    let cache = bess_cache::SharedCache::new(4, 8, 256);
    let space = Arc::new(bess_vm::AddressSpace::with_page_size(256));
    let io = Arc::new(bess_cache::MapIo::new()) as Arc<dyn bess_cache::PageIo>;
    let view = bess_cache::SharedView::attach(space, Arc::clone(&cache), io);
    let dump = view.metrics().registry().dump();
    for want in [
        "cache.view.revalidations",
        "cache.view.attach_hits",
        "cache.view.attach_loads",
        "cache.view.clock_protected",
        "cache.view.clock_invalidated",
    ] {
        assert!(
            dump.lines().any(|l| l.split_whitespace().next() == Some(want)),
            "shared view: metric `{want}` missing from dump:\n{dump}"
        );
    }
}

/// The workload harness's own `scenario.*` histogram namespace is pinned:
/// every timer the scenarios register must be declared in
/// `bess_bench::scenario::SCENARIO_HISTOGRAMS` (renames have to be
/// acknowledged both there and here).
#[test]
fn scenario_harness_names_are_pinned() {
    const SCENARIO_GOLDEN: &[&str] = &[
        "scenario.txn.ns",
        "scenario.scan.ns",
        "scenario.aging.op.ns",
        "scenario.cold.fetch.ns",
        "scenario.warm.fetch.ns",
        "scenario.recovery.ns",
    ];
    let dump = bess_bench::scenario::register_all_metrics().dump();
    assert_all_present(&dump, SCENARIO_GOLDEN, "scenario harness");
    assert_eq!(
        bess_bench::scenario::SCENARIO_HISTOGRAMS.len(),
        SCENARIO_GOLDEN.len(),
        "a scenario histogram was added without pinning it here"
    );
}

/// JSON exposition parses and covers the same names as the text dump.
#[test]
fn json_exposition_matches_text_dump() {
    let set = make_areas(&[0]);
    let db = Database::create(&*Arc::clone(&set), "golden2", 1, 1, 0).unwrap();
    let session = Session::embedded(
        db,
        Arc::clone(&set),
        Some(Arc::new(LogManager::create_mem())),
        Some(Arc::new(bess_lock::LockManager::new(Duration::from_secs(5)))),
        SessionConfig::default(),
    );
    let json = session.metrics().dump_json();
    for want in EMBEDDED_GOLDEN {
        assert!(
            json.contains(&format!("\"{want}\"")),
            "JSON exposition missing `{want}`:\n{json}"
        );
    }
}
