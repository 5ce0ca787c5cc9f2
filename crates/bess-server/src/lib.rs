//! # bess-server — the BeSS multi-client multi-server architecture
//!
//! Implements §3 of "A High Performance Configurable Storage Manager"
//! (Biliris & Panagos, ICDE 1995):
//!
//! * [`BessServer`] — owns storage areas; strict 2PL with timeout deadlock
//!   detection, ARIES-like WAL with restart recovery, **callback locking**
//!   towards clients, and presumed-commit **two-phase commit** (coordinator
//!   and participant roles);
//! * [`NodeServer`] — a diskless BeSS server: client of the real servers,
//!   server for its node's applications, with the shared client cache of
//!   Figure 3 and the two operation modes of §4 (copy-on-access over the
//!   message protocol, shared memory in-process);
//! * [`ClientConn`] — an application machine's connection: transactions,
//!   inter-transaction lock caching, callbacks, uncommitted-page overlay,
//!   and `PageIo`/`DiskSpace` adapters that let the whole object layer run
//!   remotely;
//! * [`CommitPipeline`] — log it, force it, apply it: the one path from a
//!   write set to durable pages, under the server, its 2PC branches and an
//!   embedded session alike;
//! * [`Directory`] — which server owns which storage area;
//! * [`Msg`] — the wire protocol.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod client;
mod directory;
mod nodeserver;
mod pipeline;
mod proto;
mod scrub;
mod serve;
mod server;
mod upstream;

pub use client::{
    ClientConfig, ClientConn, ClientError, ClientOpts, ClientResult,
    ClientStats, RemoteIo, RemoteSpace,
};
pub use directory::Directory;
pub use nodeserver::{NodeHandle, NodeServer, NodeServerConfig, NodeServerStats};
pub use proto::{coordinator_of, GTxn, Msg, PageUpdate, PrepareItem, Vote, DRAINING, LEASE_LOST};
pub use scrub::{ScrubConfig, ScrubPassReport};
pub use pipeline::{AreaTarget, CommitError, CommitPipeline, Resolution};
pub use server::{register_areas, BessServer, ServerConfig, ServerStats};

#[cfg(test)]
mod tests {
    use super::*;
    use bess_cache::{AreaSet, DbPage};
    use bess_lock::{LockMode, LockName};
    use bess_net::{Network, NodeId};
    use bess_storage::{AreaConfig, AreaId, StorageArea};
    use bess_wal::LogManager;
    use std::sync::Arc;
    use std::time::Duration;

    fn make_area_set(ids: &[u32]) -> Arc<AreaSet> {
        let set = Arc::new(AreaSet::new());
        for &id in ids {
            set.add(Arc::new(
                StorageArea::create_mem(AreaId(id), AreaConfig::default()).unwrap(),
            ));
        }
        set
    }

    struct World {
        net: Arc<Network<Msg>>,
        dir: Arc<Directory>,
        servers: Vec<BessServer>,
    }

    /// One server per entry; entry i owns the listed areas.
    fn world(server_areas: &[&[u32]]) -> World {
        let net = Network::new(Duration::ZERO);
        let dir = Arc::new(Directory::new());
        let mut servers = Vec::new();
        for (i, areas) in server_areas.iter().enumerate() {
            let node = NodeId(100 + i as u32);
            let set = make_area_set(areas);
            register_areas(&dir, node, &set);
            let (server, report) = BessServer::start(
                ServerConfig::new(node),
                set,
                LogManager::create_mem(),
                &net,
            );
            assert!(report.losers.is_empty());
            servers.push(server);
        }
        World { net, dir, servers }
    }

    fn client(w: &World, node: u32, caching: bool) -> Arc<ClientConn> {
        let mut cfg = ClientConfig::new(NodeId(node), w.servers[0].node());
        cfg.caching = caching;
        ClientConn::connect(&w.net, Arc::clone(&w.dir), cfg)
    }

    fn page(area: u32, p: u64) -> DbPage {
        DbPage { area, page: p }
    }

    fn seg_page(w: &World, server: usize) -> DbPage {
        let areas = w.servers[server].areas();
        let id = areas.ids()[0];
        let seg = areas.get(id).unwrap().alloc(1).unwrap();
        page(id, seg.start_page)
    }

    fn update(p: DbPage, offset: u32, before: &[u8], after: &[u8]) -> PageUpdate {
        PageUpdate {
            page: p,
            offset,
            before: before.to_vec(),
            after: after.to_vec(),
        }
    }

    #[test]
    fn begin_fetch_commit_roundtrip() {
        let w = world(&[&[0]]);
        let c = client(&w, 1, true);
        let p = seg_page(&w, 0);
        c.begin().unwrap();
        let data = c.fetch_page(p, LockMode::X).unwrap();
        assert_eq!(data[0], 0);
        c.commit(vec![update(p, 0, &[0, 0], b"hi")]).unwrap();

        // A second transaction reads the committed bytes.
        c.begin().unwrap();
        let data = c.fetch_page(p, LockMode::S).unwrap();
        assert_eq!(&data[0..2], b"hi");
        c.commit(vec![]).unwrap();
        assert_eq!(w.servers[0].stats().commits.get(), 1);
    }

    #[test]
    fn lock_cache_avoids_second_rpc() {
        let w = world(&[&[0]]);
        let c = client(&w, 1, true);
        let p = seg_page(&w, 0);
        c.begin().unwrap();
        c.fetch_page(p, LockMode::S).unwrap();
        c.commit(vec![]).unwrap();
        let (rpcs0, hits0) = (c.stats().lock_rpcs.get(), c.stats().lock_cache_hits.get());
        c.begin().unwrap();
        // Lock is cached from the previous transaction: no lock RPC.
        c.lock(
            LockName::Page {
                area: p.area,
                page: p.page,
            },
            LockMode::S,
        )
        .unwrap();
        c.commit(vec![]).unwrap();
        assert_eq!(c.stats().lock_rpcs.get(), rpcs0);
        assert_eq!(c.stats().lock_cache_hits.get(), hits0 + 1);
    }

    #[test]
    fn callback_revokes_idle_cached_lock() {
        let w = world(&[&[0]]);
        let a = client(&w, 1, true);
        let b = client(&w, 2, true);
        let p = seg_page(&w, 0);

        a.begin().unwrap();
        a.fetch_page(p, LockMode::X).unwrap();
        a.commit(vec![update(p, 0, &[0], &[7])]).unwrap();
        // A's X lock is cached but idle.
        assert!(a
            .lock_cache()
            .cached_mode(LockName::Page {
                area: p.area,
                page: p.page
            })
            .is_some());

        b.begin().unwrap();
        let data = b.fetch_page(p, LockMode::S).unwrap();
        assert_eq!(data[0], 7);
        b.commit(vec![]).unwrap();

        // The callback-read optimisation: A's cached X was *downgraded* to
        // S (its data stays readable), not revoked.
        assert_eq!(
            a.lock_cache().cached_mode(LockName::Page {
                area: p.area,
                page: p.page
            }),
            Some(LockMode::S)
        );
        assert!(w.servers[0].stats().callbacks_sent.get() >= 1);
        assert!(w.servers[0].stats().callback_downgrades.get() >= 1);
        assert!(a.stats().callbacks.get() >= 1);

        // A full revocation still happens when B wants X.
        b.begin().unwrap();
        let data = b.fetch_page(p, LockMode::X).unwrap();
        b.commit(vec![update(p, 0, &data[0..1], &[8])]).unwrap();
        assert!(a
            .lock_cache()
            .cached_mode(LockName::Page {
                area: p.area,
                page: p.page
            })
            .is_none());
    }

    #[test]
    fn callback_defers_while_lock_in_use() {
        let w = world(&[&[0]]);
        let a = client(&w, 1, true);
        let b = client(&w, 2, true);
        let p = seg_page(&w, 0);

        a.begin().unwrap();
        a.fetch_page(p, LockMode::X).unwrap();
        // A's transaction is still running; B's conflicting fetch is
        // deferred until A commits.
        b.begin().unwrap();
        let b2 = Arc::clone(&b);
        let fetcher = std::thread::spawn(move || b2.fetch_page(p, LockMode::S));
        std::thread::sleep(Duration::from_millis(100));
        // A commits, releasing its server lock via the deferred callback.
        a.commit(vec![update(p, 0, &[0], &[9])]).unwrap();
        let data = fetcher.join().unwrap().unwrap();
        assert_eq!(data[0], 9);
        b.commit(vec![]).unwrap();
        assert!(w.servers[0].stats().callback_deferred.get() >= 1);
    }

    #[test]
    fn conflicting_writers_are_serialized() {
        let w = world(&[&[0]]);
        let p = seg_page(&w, 0);
        let mut handles = Vec::new();
        for i in 0..4u32 {
            let net = Arc::clone(&w.net);
            let dir = Arc::clone(&w.dir);
            let home = w.servers[0].node();
            handles.push(std::thread::spawn(move || {
                let mut cfg = ClientConfig::new(NodeId(10 + i), home);
                cfg.caching = true;
                let c = ClientConn::connect(&net, dir, cfg);
                for _ in 0..5 {
                    loop {
                        c.begin().unwrap();
                        match c.fetch_page(p, LockMode::X) {
                            Ok(data) => {
                                let v = u32::from_le_bytes(data[0..4].try_into().unwrap());
                                let new = (v + 1).to_le_bytes();
                                c.commit(vec![update(p, 0, &data[0..4], &new)]).unwrap();
                                break;
                            }
                            Err(_) => {
                                // Deadlock timeout under contention: retry.
                                let _ = c.abort();
                            }
                        }
                    }
                }
                c.disconnect();
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // Count survives: 4 clients * 5 increments, fully serialized.
        let area = w.servers[0].areas().get(p.area).unwrap();
        let mut buf = vec![0u8; area.page_size()];
        area.read_page(p.page, &mut buf).unwrap();
        assert_eq!(u32::from_le_bytes(buf[0..4].try_into().unwrap()), 20);
    }

    #[test]
    fn committed_data_survives_server_crash() {
        let net = Network::new(Duration::ZERO);
        let dir = Arc::new(Directory::new());
        let set = make_area_set(&[0]);
        let node = NodeId(100);
        register_areas(&dir, node, &set);
        let log = LogManager::create_mem();
        let (server, _) = BessServer::start(ServerConfig::new(node), Arc::clone(&set), log, &net);

        let c = ClientConn::connect(&net, Arc::clone(&dir), ClientConfig::new(NodeId(1), node));
        let seg = set.get(0).unwrap().alloc(1).unwrap();
        let p = page(0, seg.start_page);
        c.begin().unwrap();
        c.fetch_page(p, LockMode::X).unwrap();
        c.commit(vec![update(p, 0, &[0; 7], b"durable")]).unwrap();

        // Crash the server process; areas and flushed log survive.
        let crashed_log = server.log().simulate_crash().unwrap();
        server.shutdown();
        net.unregister(node);
        let (server2, report) =
            BessServer::start(ServerConfig::new(node), Arc::clone(&set), crashed_log, &net);
        assert!(!report.winners.is_empty());
        let area = server2.areas().get(0).unwrap();
        let mut buf = vec![0u8; area.page_size()];
        area.read_page(p.page, &mut buf).unwrap();
        assert_eq!(&buf[0..7], b"durable");
    }

    #[test]
    fn two_phase_commit_across_servers() {
        let w = world(&[&[0], &[1]]);
        let c = client(&w, 1, true);
        let p0 = seg_page(&w, 0);
        let p1 = seg_page(&w, 1);
        c.begin().unwrap();
        c.fetch_page(p0, LockMode::X).unwrap();
        c.fetch_page(p1, LockMode::X).unwrap();
        c.commit(vec![
            update(p0, 0, &[0; 4], b"2pc0"),
            update(p1, 0, &[0; 4], b"2pc1"),
        ])
        .unwrap();

        // Commit decides are one-way under presumed commit: the remote
        // branch lands shortly after the client's ack, not before it.
        for (i, p) in [(0usize, p0), (1usize, p1)] {
            let area = w.servers[i].areas().get(p.area).unwrap();
            let mut buf = vec![0u8; area.page_size()];
            let deadline = std::time::Instant::now() + Duration::from_secs(5);
            loop {
                area.read_page(p.page, &mut buf).unwrap();
                if &buf[0..4] == format!("2pc{i}").as_bytes() {
                    break;
                }
                assert!(
                    std::time::Instant::now() < deadline,
                    "server {i} never applied its branch: {:?}",
                    &buf[0..4]
                );
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        assert!(w.servers[0].stats().coordinated.get() >= 1);
        assert_eq!(w.servers[1].stats().prepares.get(), 1);
    }

    /// Phase 1 at participant 101, driven by hand: one branch, one frame.
    fn prepare(driver: &bess_net::Endpoint<Msg>, gtxn: GTxn, u: PageUpdate) -> Msg {
        let items = vec![PrepareItem { gtxn, locker: 0, release_locks: false, updates: vec![u] }];
        driver
            .call(NodeId(101), Msg::PrepareBatch { items }, Duration::from_secs(2))
            .unwrap()
    }

    #[test]
    fn in_doubt_participant_resolves_with_coordinator() {
        // Participant crashes after Prepare, before the decision arrives;
        // on restart it asks the coordinator and commits.
        let net = Network::new(Duration::ZERO);
        let dir = Arc::new(Directory::new());
        let set0 = make_area_set(&[0]);
        let set1 = make_area_set(&[1]);
        register_areas(&dir, NodeId(100), &set0);
        register_areas(&dir, NodeId(101), &set1);
        let (coord, _) = BessServer::start(
            ServerConfig::new(NodeId(100)),
            Arc::clone(&set0),
            LogManager::create_mem(),
            &net,
        );
        let (part, _) = BessServer::start(
            ServerConfig::new(NodeId(101)),
            Arc::clone(&set1),
            LogManager::create_mem(),
            &net,
        );
        let seg = set1.get(1).unwrap().alloc(1).unwrap();
        let p = page(1, seg.start_page);

        // Drive prepare directly (no client machinery needed).
        let driver = net.register(NodeId(7));
        let gtxn: u64 = match driver
            .call(NodeId(100), Msg::BeginGlobal, Duration::from_secs(2))
            .unwrap()
        {
            Msg::TxnId(g) => g,
            other => panic!("{other:?}"),
        };
        assert_eq!(
            prepare(&driver, gtxn, update(p, 0, &[0; 5], b"doubt")),
            Msg::VoteBatch { votes: vec![(gtxn, Vote::Yes)] }
        );
        // Coordinator decides commit durably, but the participant crashes
        // before hearing it. Restart the coordinator so its decision table
        // is rebuilt from its log.
        let l = coord
            .log()
            .append(gtxn, bess_wal::Lsn::NULL, bess_wal::LogBody::Commit);
        coord.log().flush(l).unwrap();
        let coord_log = coord.log().simulate_crash().unwrap();
        coord.shutdown();
        net.unregister(NodeId(100));
        let (_coord2, _) = BessServer::start(ServerConfig::new(NodeId(100)), set0, coord_log, &net);

        let part_log = part.log().simulate_crash().unwrap();
        part.shutdown();
        net.unregister(NodeId(101));
        let (part2, report) = BessServer::start(
            ServerConfig::new(NodeId(101)),
            Arc::clone(&set1),
            part_log,
            &net,
        );
        assert_eq!(report.in_doubt, vec![gtxn]);
        assert_eq!(part2.in_doubt(), vec![gtxn]);
        part2.resolve_in_doubt();
        assert!(part2.in_doubt().is_empty());
        let area = part2.areas().get(1).unwrap();
        let mut buf = vec![0u8; area.page_size()];
        area.read_page(p.page, &mut buf).unwrap();
        assert_eq!(&buf[0..5], b"doubt");
    }

    #[test]
    fn in_doubt_presumed_abort_when_coordinator_forgot() {
        let net = Network::new(Duration::ZERO);
        let dir = Arc::new(Directory::new());
        let set0 = make_area_set(&[0]);
        let set1 = make_area_set(&[1]);
        register_areas(&dir, NodeId(100), &set0);
        register_areas(&dir, NodeId(101), &set1);
        let (_coord, _) = BessServer::start(
            ServerConfig::new(NodeId(100)),
            set0,
            LogManager::create_mem(),
            &net,
        );
        let (part, _) = BessServer::start(
            ServerConfig::new(NodeId(101)),
            Arc::clone(&set1),
            LogManager::create_mem(),
            &net,
        );
        let seg = set1.get(1).unwrap().alloc(1).unwrap();
        let p = page(1, seg.start_page);

        let driver = net.register(NodeId(7));
        let gtxn = (100u64 << 32) | 999; // coordinator never heard of it
        prepare(&driver, gtxn, update(p, 0, &[0; 3], b"bad"));

        let part_log = part.log().simulate_crash().unwrap();
        part.shutdown();
        net.unregister(NodeId(101));
        let (part2, report) = BessServer::start(
            ServerConfig::new(NodeId(101)),
            Arc::clone(&set1),
            part_log,
            &net,
        );
        assert_eq!(report.in_doubt, vec![gtxn]);
        part2.resolve_in_doubt();
        assert!(part2.in_doubt().is_empty());
        // Presumed abort: the page is untouched.
        let area = part2.areas().get(1).unwrap();
        let mut buf = vec![0u8; area.page_size()];
        area.read_page(p.page, &mut buf).unwrap();
        assert_eq!(&buf[0..3], &[0, 0, 0]);
    }

    #[test]
    fn node_server_serves_and_caches() {
        let w = world(&[&[0]]);
        let ns = NodeServer::start(
            NodeServerConfig::new(NodeId(50)),
            Arc::clone(&w.dir),
            &w.net,
        );
        let p = seg_page(&w, 0);
        // A local app connects to the node server as its "home".
        let mut cfg = ClientConfig::new(NodeId(51), ns.node());
        cfg.caching = true;
        cfg.gateway = Some(ns.node());
        let app = ClientConn::connect(&w.net, Arc::clone(&w.dir), cfg);

        app.begin().unwrap();
        let d1 = app.fetch_page(p, LockMode::S).unwrap();
        assert_eq!(d1[0], 0);
        app.commit(vec![]).unwrap();

        app.begin().unwrap();
        let _d2 = app.fetch_page(p, LockMode::S).unwrap();
        app.commit(vec![]).unwrap();
        let s = ns.stats();
        assert_eq!(s.remote_fetches.get(), 1, "second fetch served from node cache");
        assert!(s.cache_hits.get() >= 1);
    }

    #[test]
    fn node_server_commit_updates_shared_cache() {
        let w = world(&[&[0]]);
        let ns = NodeServer::start(
            NodeServerConfig::new(NodeId(50)),
            Arc::clone(&w.dir),
            &w.net,
        );
        let p = seg_page(&w, 0);
        let mut cfg = ClientConfig::new(NodeId(51), ns.node());
        cfg.caching = true;
        cfg.gateway = Some(ns.node());
        let app = ClientConn::connect(&w.net, Arc::clone(&w.dir), cfg);

        app.begin().unwrap();
        app.fetch_page(p, LockMode::X).unwrap();
        app.commit(vec![update(p, 0, &[0; 5], b"local")]).unwrap();

        // The committed bytes are on the owning server...
        let area = w.servers[0].areas().get(p.area).unwrap();
        let mut buf = vec![0u8; area.page_size()];
        area.read_page(p.page, &mut buf).unwrap();
        assert_eq!(&buf[0..5], b"local");
        // ...and visible through the node server without refetch.
        app.begin().unwrap();
        let data = app.fetch_page(p, LockMode::S).unwrap();
        assert_eq!(&data[0..5], b"local");
        app.commit(vec![]).unwrap();
    }

    #[test]
    fn node_server_answers_server_callbacks() {
        let w = world(&[&[0]]);
        let ns = NodeServer::start(
            NodeServerConfig::new(NodeId(50)),
            Arc::clone(&w.dir),
            &w.net,
        );
        let p = seg_page(&w, 0);
        // Local app (through node server) takes and caches an X lock.
        let mut cfg = ClientConfig::new(NodeId(51), ns.node());
        cfg.caching = true;
        cfg.gateway = Some(ns.node());
        let app = ClientConn::connect(&w.net, Arc::clone(&w.dir), cfg);
        app.begin().unwrap();
        app.fetch_page(p, LockMode::X).unwrap();
        app.commit(vec![update(p, 0, &[0], &[3])]).unwrap();

        // A direct client of the server now wants the page: the server
        // calls the node server back, which releases its idle cached lock.
        let direct = client(&w, 60, true);
        direct.begin().unwrap();
        let data = direct.fetch_page(p, LockMode::X).unwrap();
        assert_eq!(data[0], 3);
        direct.commit(vec![update(p, 0, &[3], &[4])]).unwrap();
        assert!(ns.stats().callbacks.get() >= 1);
    }

    #[test]
    fn deadlock_between_clients_times_out() {
        let w = world(&[&[0]]);
        let p1 = seg_page(&w, 0);
        let p2 = seg_page(&w, 0);
        let a = client(&w, 1, false);
        let b = client(&w, 2, false);
        a.begin().unwrap();
        b.begin().unwrap();
        a.fetch_page(p1, LockMode::X).unwrap();
        b.fetch_page(p2, LockMode::X).unwrap();
        let a2 = Arc::clone(&a);
        let t1 = std::thread::spawn(move || a2.fetch_page(p2, LockMode::X));
        let b2 = Arc::clone(&b);
        let t2 = std::thread::spawn(move || b2.fetch_page(p1, LockMode::X));
        let r1 = t1.join().unwrap();
        let r2 = t2.join().unwrap();
        assert!(
            r1.is_err() || r2.is_err(),
            "timeout must break the distributed deadlock"
        );
        let _ = a.abort();
        let _ = b.abort();
    }

    /// The end of a transaction sends nothing: the server sheds the locks
    /// with the client's next frame, or with its next tick.
    #[test]
    fn non_caching_client_releases_locks_at_txn_end() {
        let w = world(&[&[0]]);
        let a = client(&w, 1, false);
        let b = client(&w, 2, false);
        let (p, q) = (seg_page(&w, 0), seg_page(&w, 0));
        let held = || w.servers[0].locks_held_by(a.node());
        a.begin().unwrap();
        a.fetch_page(p, LockMode::X).unwrap();
        a.commit(vec![update(p, 0, &[0], &[1])]).unwrap();
        // The next frame: the release runs ahead of what the frame asks.
        a.begin().unwrap();
        a.fetch_page(q, LockMode::S).unwrap();
        assert_eq!(held(), [crate::upstream::page_lock(q)]);
        a.commit(vec![]).unwrap();
        // No frame follows: one tick.
        a.tick_now();
        assert_eq!(held(), []);
        // No callback needed: B acquires immediately.
        b.begin().unwrap();
        b.fetch_page(p, LockMode::X).unwrap();
        b.commit(vec![update(p, 0, &[1], &[2])]).unwrap();
        assert_eq!(w.servers[0].stats().callbacks_sent.get(), 0);
    }

    /// An application behind a node server that ends a transaction and
    /// goes idle keeps its local locks for one tick at most: the waiter
    /// behind it is let in by that tick, not by the lock timeout.
    #[test]
    fn an_idle_holders_tick_lets_the_waiter_in() {
        let w = world(&[&[0]]);
        let ns = NodeServer::start(NodeServerConfig::new(NodeId(50)), Arc::clone(&w.dir), &w.net);
        let via = |node| {
            let mut cfg = ClientConfig::new(NodeId(node), ns.node());
            cfg.gateway = Some(ns.node());
            ClientConn::connect(&w.net, Arc::clone(&w.dir), cfg)
        };
        let (a, b) = (via(51), via(52));
        let p = seg_page(&w, 0);
        a.begin().unwrap();
        a.fetch_page(p, LockMode::S).unwrap();
        a.commit(vec![]).unwrap();
        let counter = |name| ns.metrics().registry().snapshot().counter(name);
        std::thread::scope(|s| {
            let waiter = s.spawn(|| {
                b.begin().unwrap();
                b.lock(crate::upstream::page_lock(p), LockMode::X)
            });
            // B is queued behind A's S — or A's listener has ticked by
            // itself already, and B is through.
            let deadline = std::time::Instant::now() + Duration::from_secs(5);
            while counter("lock.waits") == 0 && !waiter.is_finished() {
                assert!(std::time::Instant::now() < deadline, "B's request never got there");
                std::thread::yield_now();
            }
            a.tick_now();
            waiter.join().unwrap().expect("granted once A's tick has paid");
        });
        assert_eq!(counter("lock.timeouts"), 0);
        b.abort().unwrap();
        a.disconnect();
        b.disconnect();
        ns.shutdown();
    }
}

#[cfg(test)]
mod client_logging_tests {
    //! §6 of the paper — "exploiting client disks": the node server commits
    //! local transactions on its own log, ships write-behind, and recovers
    //! unshipped commits after a node crash.
    use super::*;
    use bess_cache::{AreaSet, DbPage};
    use bess_lock::LockMode;
    use bess_net::{Network, NodeId};
    use bess_storage::{AreaConfig, AreaId, StorageArea};
    use bess_wal::LogManager;
    use std::sync::Arc;
    use std::time::Duration;

    fn world() -> (
        Arc<Network<Msg>>,
        Arc<Directory>,
        Arc<AreaSet>,
        BessServer,
        DbPage,
    ) {
        let net = Network::new(Duration::ZERO);
        let dir = Arc::new(Directory::new());
        let set = Arc::new(AreaSet::new());
        set.add(Arc::new(
            StorageArea::create_mem(AreaId(0), AreaConfig::default()).unwrap(),
        ));
        register_areas(&dir, NodeId(100), &set);
        let (server, _) = BessServer::start(
            ServerConfig::new(NodeId(100)),
            Arc::clone(&set),
            LogManager::create_mem(),
            &net,
        );
        let seg = set.get(0).unwrap().alloc(1).unwrap();
        let page = DbPage {
            area: 0,
            page: seg.start_page,
        };
        (net, dir, set, server, page)
    }

    fn app(net: &Arc<Network<Msg>>, dir: &Arc<Directory>, ns: &NodeServer, node: u32) -> Arc<ClientConn> {
        let mut cfg = ClientConfig::new(NodeId(node), ns.node());
        cfg.gateway = Some(ns.node());
        ClientConn::connect(net, Arc::clone(dir), cfg)
    }

    fn upd(page: DbPage, before: &[u8], after: &[u8]) -> PageUpdate {
        PageUpdate {
            page,
            offset: 0,
            before: before.to_vec(),
            after: after.to_vec(),
        }
    }

    #[test]
    fn write_behind_ship_completes() {
        let (net, dir, set, _server, page) = world();
        let (ns, reshipped) = NodeServer::start_with_log(
            NodeServerConfig::new(NodeId(50)),
            Arc::clone(&dir),
            &net,
            LogManager::create_mem(),
        );
        assert_eq!(reshipped, 0);
        let a = app(&net, &dir, &ns, 51);
        a.begin().unwrap();
        a.fetch_page(page, LockMode::X).unwrap();
        a.commit(vec![upd(page, &[0; 4], b"ship")]).unwrap();
        ns.drain_shipments();
        // The owner server has the bytes.
        let area = set.get(0).unwrap();
        let mut buf = vec![0u8; area.page_size()];
        area.read_page(page.page, &mut buf).unwrap();
        assert_eq!(&buf[0..4], b"ship");
        assert_eq!(ns.stats().local_commits.get(), 1);
    }

    #[test]
    fn local_commit_survives_owner_outage_and_node_crash() {
        let (net, dir, set, server, page) = world();
        let (ns, _) = NodeServer::start_with_log(
            NodeServerConfig::new(NodeId(50)),
            Arc::clone(&dir),
            &net,
            LogManager::create_mem(),
        );
        let a = app(&net, &dir, &ns, 51);
        // Take the lock while the owner is still reachable.
        a.begin().unwrap();
        a.fetch_page(page, LockMode::X).unwrap();

        // The owner server "goes down" before the commit.
        net.unregister(server.node());

        // The commit still succeeds: it is durable on the node's log (§6:
        // "the BeSS node server will be able to commit local transactions").
        a.commit(vec![upd(page, &[0; 7], b"durable")]).unwrap();
        assert_eq!(ns.stats().local_commits.get(), 1);

        // Node crashes before ever shipping. Keep only the flushed log.
        let node_log = ns.local_log().unwrap().simulate_crash().unwrap();
        ns.shutdown();
        net.unregister(NodeId(50));

        // Owner comes back (same storage, fresh process).
        let (server2, _) = BessServer::start(
            ServerConfig::new(NodeId(100)),
            Arc::clone(&set),
            LogManager::create_mem(),
            &net,
        );
        let _ = server2;

        // Node restarts over its log: recovery re-ships the commit.
        let (ns2, reshipped) = NodeServer::start_with_log(
            NodeServerConfig::new(NodeId(50)),
            Arc::clone(&dir),
            &net,
            node_log,
        );
        assert_eq!(reshipped, 1);
        assert_eq!(ns2.stats().reshipped.get(), 1);
        let area = set.get(0).unwrap();
        let mut buf = vec![0u8; area.page_size()];
        area.read_page(page.page, &mut buf).unwrap();
        assert_eq!(&buf[0..7], b"durable");
    }

    #[test]
    fn commit_latency_is_independent_of_owner_latency() {
        // The §6 payoff: with client logging, commit latency is the local
        // log force, not the server round trip.
        let net: Arc<Network<Msg>> = Network::new(Duration::from_millis(5));
        let dir = Arc::new(Directory::new());
        let set = Arc::new(AreaSet::new());
        set.add(Arc::new(
            StorageArea::create_mem(AreaId(0), AreaConfig::default()).unwrap(),
        ));
        register_areas(&dir, NodeId(100), &set);
        let (_server, _) = BessServer::start(
            ServerConfig::new(NodeId(100)),
            Arc::clone(&set),
            LogManager::create_mem(),
            &net,
        );
        let seg = set.get(0).unwrap().alloc(1).unwrap();
        let page = DbPage {
            area: 0,
            page: seg.start_page,
        };

        let time_commits = |with_log: bool| -> Duration {
            let node = if with_log { 60 } else { 61 };
            let ns = if with_log {
                NodeServer::start_with_log(
                    NodeServerConfig::new(NodeId(node)),
                    Arc::clone(&dir),
                    &net,
                    LogManager::create_mem(),
                )
                .0
            } else {
                NodeServer::start(
                    NodeServerConfig::new(NodeId(node)),
                    Arc::clone(&dir),
                    &net,
                )
            };
            // Shared-memory app: commit goes through the node server
            // in-process, so the only wire cost is the ship.
            let h = ns.handle();
            // Warm: fault the page in and take the lock once.
            let txn = h.begin();
            h.lock(
                txn,
                bess_lock::LockName::Page {
                    area: page.area,
                    page: page.page,
                },
                LockMode::X,
            )
            .unwrap();
            let t0 = std::time::Instant::now();
            h.commit(txn, vec![upd(page, &[0], &[1])]).unwrap();
            let dt = t0.elapsed();
            ns.drain_shipments();
            // Graceful shutdown releases the cached server locks so the
            // next node server acquires them without callbacks.
            ns.shutdown();
            dt
        };

        let with_log = time_commits(true);
        let without = time_commits(false);
        assert!(
            with_log < without / 2,
            "local-log commit {with_log:?} should be much faster than synchronous ship {without:?}"
        );
    }
}

#[cfg(test)]
mod integrity_tests {
    //! End-to-end data-integrity tests (§16): silent corruption injected
    //! under the server, detected by checksummed reads, repaired from the
    //! WAL — foreground on the read path and background by the scrubber.

    use super::*;
    use bess_cache::{AreaSet, DbPage};
    use bess_lock::LockMode;
    use bess_net::{Network, NodeId};
    use bess_storage::fault::{FaultDisk, FaultPlan};
    use bess_storage::{AreaConfig, AreaId, StorageArea, PAGE_HDR};
    use bess_wal::LogManager;
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    struct Rig {
        net: Arc<Network<Msg>>,
        dir: Arc<Directory>,
        server: BessServer,
        disk: Arc<FaultDisk>,
        area: Arc<StorageArea>,
    }

    /// One server over a single fault-injectable area.
    fn rig(tune: impl FnOnce(&mut ServerConfig)) -> Rig {
        let net = Network::new(Duration::ZERO);
        let dir = Arc::new(Directory::new());
        let disk = FaultDisk::new(FaultPlan::unarmed());
        let area = Arc::new(
            StorageArea::create_faulty(AreaId(1), AreaConfig::default(), Arc::clone(&disk))
                .unwrap(),
        );
        let set = Arc::new(AreaSet::new());
        set.add(Arc::clone(&area));
        let node = NodeId(100);
        register_areas(&dir, node, &set);
        let mut cfg = ServerConfig::new(node);
        tune(&mut cfg);
        let (server, report) = BessServer::start(cfg, set, LogManager::create_mem(), &net);
        assert!(report.losers.is_empty());
        Rig { net, dir, server, disk, area }
    }

    fn client(r: &Rig) -> Arc<ClientConn> {
        let mut cfg = ClientConfig::new(NodeId(1), r.server.node());
        cfg.caching = false;
        ClientConn::connect(&r.net, Arc::clone(&r.dir), cfg)
    }

    fn slot_off(r: &Rig, page: u64) -> u64 {
        page * (PAGE_HDR + r.area.page_size()) as u64
    }

    /// Durably flips one data byte inside the page's slot, behind the
    /// server's back — the signature of silent media corruption.
    fn rot(r: &Rig, page: u64, byte: u64) {
        let off = slot_off(r, page) + PAGE_HDR as u64 + byte;
        let mut b = [0u8; 1];
        r.disk.read_at(&mut b, off).unwrap();
        r.disk.write_at(&[b[0] ^ 0x40], off).unwrap();
    }

    fn counter(r: &Rig, name: &str) -> u64 {
        r.server.metrics().registry().counter(name).get()
    }

    /// Allocates a page and commits `bytes` at offset 0 through the
    /// normal WAL path, so the page has committed history to rebuild from.
    fn committed_page(r: &Rig, bytes: &[u8]) -> DbPage {
        let seg = r.area.alloc(1).unwrap();
        let p = DbPage { area: 1, page: seg.start_page };
        let c = client(r);
        c.begin().unwrap();
        c.fetch_page(p, LockMode::X).unwrap();
        c.commit(vec![PageUpdate {
            page: p,
            offset: 0,
            before: vec![0; bytes.len()],
            after: bytes.to_vec(),
        }])
        .unwrap();
        p
    }

    #[test]
    fn silent_bit_rot_is_repaired_on_read() {
        let r = rig(|_| {});
        let p = committed_page(&r, b"hi");
        rot(&r, p.page, 0);

        let c = client(&r);
        c.begin().unwrap();
        let data = c.fetch_page(p, LockMode::S).unwrap();
        assert_eq!(&data[0..2], b"hi", "read must return repaired bytes, never rot");
        c.commit(vec![]).unwrap();

        assert!(counter(&r, "storage.corruption.detected") >= 1);
        assert!(counter(&r, "storage.corruption.repaired") >= 1);
        assert_eq!(counter(&r, "storage.corruption.unrepairable"), 0);
        assert!(!r.server.is_read_only());
        assert!(!r.area.is_quarantined(p.page));
    }

    #[test]
    fn unrepairable_corruption_quarantines_and_trips_read_only() {
        let r = rig(|cfg| cfg.media_error_threshold = 1);
        let seg = r.area.alloc(1).unwrap();
        let page = seg.start_page;
        // Written behind the WAL's back: no committed history to rebuild.
        r.area.write_page(page, &vec![0x5A; r.area.page_size()]).unwrap();
        rot(&r, page, 7);

        let c = client(&r);
        c.begin().unwrap();
        let err = c.fetch_page(DbPage { area: 1, page }, LockMode::S).unwrap_err();
        assert!(
            format!("{err:?}").contains("corrupt page"),
            "want typed corruption error, got: {err:?}"
        );
        assert!(r.area.is_quarantined(page));
        assert!(counter(&r, "storage.corruption.unrepairable") >= 1);
        assert!(r.server.is_read_only(), "unrepairable corruption must count toward read-only");

        // A quarantined page fails fast: no second repair attempt.
        let detected = counter(&r, "storage.corruption.detected");
        let c2 = client(&r);
        c2.begin().unwrap();
        let err = c2.fetch_page(DbPage { area: 1, page }, LockMode::S).unwrap_err();
        assert!(format!("{err:?}").contains("corrupt page"), "got: {err:?}");
        assert_eq!(counter(&r, "storage.corruption.detected"), detected);
    }

    #[test]
    fn scrub_pass_repairs_rotted_page() {
        let r = rig(|_| {});
        let p = committed_page(&r, b"scrubbed");
        rot(&r, p.page, 2);

        let mut repaired = 0;
        for _ in 0..64 {
            repaired += r.server.scrub_once().repaired;
            if repaired > 0 {
                break;
            }
        }
        assert!(repaired >= 1, "scrubber never reached the rotted page");
        assert!(counter(&r, "storage.scrub.passes") >= 1);
        assert!(counter(&r, "storage.scrub.pages") >= 1);
        assert!(counter(&r, "storage.corruption.repaired") >= 1);

        let c = client(&r);
        c.begin().unwrap();
        let data = c.fetch_page(p, LockMode::S).unwrap();
        assert_eq!(&data[..8], b"scrubbed");
    }

    #[test]
    fn deep_scrub_catches_lost_write() {
        let r = rig(|cfg| cfg.scrub.deep = true);
        let seg = r.area.alloc(1).unwrap();
        let p = DbPage { area: 1, page: seg.start_page };

        // Snapshot the slot before the commit, then put it back after: a
        // lost write — stale content under a perfectly valid checksum,
        // invisible to the shallow checksum pass.
        let slot = slot_off(&r, p.page);
        let mut stale = vec![0u8; PAGE_HDR + r.area.page_size()];
        r.disk.read_at(&mut stale, slot).unwrap();

        let c = client(&r);
        c.begin().unwrap();
        c.fetch_page(p, LockMode::X).unwrap();
        c.commit(vec![PageUpdate {
            page: p,
            offset: 0,
            before: vec![0; 4],
            after: b"deep".to_vec(),
        }])
        .unwrap();
        r.disk.write_at(&stale, slot).unwrap();

        for _ in 0..64 {
            r.server.scrub_once();
            if counter(&r, "storage.scrub.stale") >= 1 {
                break;
            }
        }
        assert!(counter(&r, "storage.scrub.stale") >= 1, "lost write never flagged");
        assert!(counter(&r, "storage.corruption.repaired") >= 1);

        c.begin().unwrap();
        let data = c.fetch_page(p, LockMode::S).unwrap();
        assert_eq!(&data[..4], b"deep", "deep scrub must reinstall the committed image");
    }

    #[test]
    fn background_scrubber_repairs_without_reads() {
        let r = rig(|cfg| {
            cfg.scrub.enabled = true;
            cfg.scrub.interval = Duration::from_millis(2);
            cfg.scrub.pages_per_pass = 256;
        });
        let p = committed_page(&r, b"bg");
        rot(&r, p.page, 1);

        let deadline = Instant::now() + Duration::from_secs(10);
        while counter(&r, "storage.corruption.repaired") == 0 {
            assert!(Instant::now() < deadline, "background scrubber never repaired the page");
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(!r.area.is_quarantined(p.page));
    }
}
