//! Coherence of the page images a caching [`ClientConn`] keeps on its
//! cached page locks, and the callback that races a node's own in-flight
//! lock request — the node being a [`ClientConn`] or a [`NodeServer`] — and
//! what a cold page costs on the wire: one message per hop, or one for
//! several pages.
//!
//! No test here sleeps or depends on thread timing: the races are forced by
//! a server endpoint the test drives by hand, and the only waits are the
//! client's own (short) RPC timeout where a reply is withheld on purpose.

use std::sync::Arc;
use std::time::Duration;

use bess_cache::{AreaSet, DbPage, PageIo};
use bess_lock::{LockCache, LockMode, LockName, IMAGE_CAPACITY};
use bess_net::{Endpoint, NetFaultKind, NetFaultPlan, Network, NodeId};
use bess_server::{
    register_areas, BessServer, ClientConfig, ClientConn, Directory, Msg, NodeServer,
    NodeServerConfig, PageUpdate, RemoteIo, ServerConfig, LEASE_LOST,
};
use bess_storage::{AreaConfig, AreaId, StorageArea};
use bess_wal::LogManager;

const SERVER: NodeId = NodeId(100);

struct World {
    net: Arc<Network<Msg>>,
    dir: Arc<Directory>,
    set: Arc<AreaSet>,
    server: BessServer,
}

/// One server owning area 0.
fn world() -> World {
    let net = Network::new(Duration::ZERO);
    let dir = Arc::new(Directory::new());
    let set = Arc::new(AreaSet::new());
    set.add(Arc::new(
        StorageArea::create_mem(AreaId(0), AreaConfig::default()).unwrap(),
    ));
    register_areas(&dir, SERVER, &set);
    let (server, _) = BessServer::start(
        ServerConfig::new(SERVER),
        Arc::clone(&set),
        LogManager::create_mem(),
        &net,
    );
    World {
        net,
        dir,
        set,
        server,
    }
}

impl World {
    /// The server process dies and a new one starts over the same areas
    /// and the flushed log: every lease and every lock is forgotten.
    fn restart(self) -> World {
        let log = self.server.log().simulate_crash().unwrap();
        self.server.shutdown();
        self.net.unregister(SERVER);
        let (server, _) =
            BessServer::start(ServerConfig::new(SERVER), Arc::clone(&self.set), log, &self.net);
        World { server, ..self }
    }

    fn client(&self, node: u32, tune: impl FnOnce(&mut ClientConfig)) -> Arc<ClientConn> {
        let mut cfg = ClientConfig::new(NodeId(node), SERVER);
        tune(&mut cfg);
        ClientConn::connect(&self.net, Arc::clone(&self.dir), cfg)
    }

    /// `n` freshly allocated pages of area 0.
    fn pages(&self, n: u32) -> Vec<DbPage> {
        let area = self.server.areas().get(0).unwrap();
        let mut out = Vec::new();
        while out.len() < n as usize {
            let seg = area.alloc(64.min(n)).unwrap();
            out.extend((0..u64::from(seg.pages)).map(|i| DbPage {
                area: 0,
                page: seg.start_page + i,
            }));
        }
        out.truncate(n as usize);
        out
    }

    /// `(net.calls, server.reads + server.fetches)`: any message, and any
    /// page the server shipped.
    fn traffic(&self) -> (u64, u64) {
        let s = self.server.stats();
        (
            self.net.stats().calls.get(),
            s.reads.get() + s.fetches.get(),
        )
    }
}

fn update(page: DbPage, offset: u32, before: &[u8], after: &[u8]) -> PageUpdate {
    PageUpdate {
        page,
        offset,
        before: before.to_vec(),
        after: after.to_vec(),
    }
}

fn lock_name(page: DbPage) -> LockName {
    LockName::Page {
        area: page.area,
        page: page.page,
    }
}

/// One transaction that fetches `page` under `mode` and commits `updates`.
fn txn(c: &ClientConn, page: DbPage, mode: LockMode, updates: Vec<PageUpdate>) -> Vec<u8> {
    c.begin().unwrap();
    let data = c.fetch_page(page, mode).unwrap();
    c.commit(updates).unwrap();
    data
}

fn counter(c: &ClientConn, name: &str) -> u64 {
    c.metrics().registry().snapshot().counter(name)
}

#[test]
fn lock_hit_with_an_image_sends_nothing() {
    let w = world();
    let p = w.pages(1)[0];
    let c = w.client(1, |_| {});
    txn(&c, p, LockMode::S, vec![]);
    assert_eq!(c.lock_cache().images(), 1);

    c.begin().unwrap();
    let before = (
        w.traffic(),
        c.stats().read_rpcs.get(),
        c.stats().fetch_rpcs.get(),
    );
    let data = c.fetch_page(p, LockMode::S).unwrap();
    let again = c.read_page(p).unwrap();
    assert_eq!(
        (
            w.traffic(),
            c.stats().read_rpcs.get(),
            c.stats().fetch_rpcs.get()
        ),
        before,
        "a lock hit with an image must not reach the server"
    );
    assert_eq!(data, again);
    assert_eq!(data.len(), c.page_size());
    c.commit(vec![]).unwrap();
    assert_eq!(counter(&c, "client.page_cache.hits"), 2);
    assert_eq!(
        counter(&c, "client.page_cache.misses"),
        1,
        "the first fetch"
    );
    c.disconnect();
}

#[test]
fn another_clients_write_purges_the_image() {
    let w = world();
    let p = w.pages(1)[0];
    let a = w.client(1, |_| {});
    let b = w.client(2, |_| {});
    txn(&a, p, LockMode::S, vec![]);
    assert_eq!(a.lock_cache().images(), 1);

    // B's X request calls A's idle S back: lock and image go together.
    txn(&b, p, LockMode::X, vec![update(p, 0, &[0; 4], b"from")]);
    assert_eq!(a.lock_cache().cached_mode(lock_name(p)), None);
    assert_eq!(a.lock_cache().images(), 0);
    assert_eq!(counter(&a, "client.page_cache.invalidations"), 1);

    // A's next fetch is a miss and sees B's committed bytes.
    let data = txn(&a, p, LockMode::S, vec![]);
    assert_eq!(&data[0..4], b"from");
    a.disconnect();
    b.disconnect();
}

#[test]
fn downgrade_keeps_the_image_valid() {
    let w = world();
    let p = w.pages(1)[0];
    let a = w.client(1, |_| {});
    let b = w.client(2, |_| {});
    txn(&a, p, LockMode::X, vec![update(p, 0, &[0; 4], b"mine")]);

    // B reads: the server asks A to downgrade X to S, not to release.
    let seen = txn(&b, p, LockMode::S, vec![]);
    assert_eq!(&seen[0..4], b"mine");
    assert_eq!(a.lock_cache().cached_mode(lock_name(p)), Some(LockMode::S));
    assert_eq!(a.lock_cache().images(), 1, "S still vouches for the bytes");

    a.begin().unwrap();
    let before = w.traffic();
    assert_eq!(&a.fetch_page(p, LockMode::S).unwrap()[0..4], b"mine");
    assert_eq!(w.traffic(), before);
    a.commit(vec![]).unwrap();
    a.disconnect();
    b.disconnect();
}

#[test]
fn own_commit_patches_and_a_refused_commit_drops() {
    let w = world();
    let p = w.pages(1)[0];
    let c = w.client(1, |_| {});
    txn(&c, p, LockMode::X, vec![update(p, 8, &[0; 3], b"one")]);

    // Acknowledged: the image carries the after-bytes, without a refetch.
    let before = w.traffic().1;
    c.begin().unwrap();
    let data = c.fetch_page(p, LockMode::X).unwrap();
    assert_eq!(&data[8..11], b"one");
    assert_eq!(w.traffic().1, before);

    // Refused (`Msg::Err`): whatever the page holds now, the image is not it.
    w.server.set_read_only(true);
    let refused = c.commit(vec![update(p, 8, b"one", b"two")]);
    assert!(refused.is_err());
    assert_eq!(c.lock_cache().images(), 0);
    assert_eq!(
        c.lock_cache().cached_mode(lock_name(p)),
        Some(LockMode::X),
        "the lock stays"
    );
    w.server.set_read_only(false);

    let data = txn(&c, p, LockMode::S, vec![]);
    assert_eq!(&data[8..11], b"one", "refetched from the server");
    assert_eq!(w.traffic().1, before + 1);
    c.disconnect();
}

#[test]
fn a_commit_without_an_answer_drops_the_written_images() {
    let w = world();
    let pages = w.pages(2);
    let (p, q) = (pages[0], pages[1]);
    let c = w.client(1, |cfg| {
        cfg.max_retries = 0;
        // Waited out once, by the commit whose reply is dropped.
        cfg.rpc_timeout = Duration::from_secs(1);
    });
    txn(&c, p, LockMode::X, vec![]);
    txn(&c, q, LockMode::S, vec![]);
    assert_eq!(c.lock_cache().images(), 2);

    // Both locks are cached, so the commit is this client's next message;
    // its reply is lost.
    c.begin().unwrap();
    c.fetch_page(p, LockMode::X).unwrap();
    c.fetch_page(q, LockMode::S).unwrap();
    let plan = NetFaultPlan::armed_from(c.node(), 0, NetFaultKind::DropReply);
    w.net.arm(Arc::clone(&plan));
    let lost = c.commit(vec![update(p, 0, &[0; 4], b"lost")]);
    assert!(lost.is_err());
    assert_eq!(plan.fired(), 1);
    assert_eq!(c.lock_cache().image(lock_name(p)), None, "fate unknown: dropped");
    assert!(c.lock_cache().image(lock_name(q)).is_some(), "only read: kept");
    c.abort().unwrap();

    // The commit did land; the refetch shows it.
    let data = txn(&c, p, LockMode::S, vec![]);
    assert_eq!(&data[0..4], b"lost");
    c.disconnect();
}

#[test]
fn intention_modes_are_never_served_from_an_image() {
    let w = world();
    let p = w.pages(1)[0];
    let c = w.client(1, |_| {});
    for mode in [LockMode::IS, LockMode::IX] {
        let shipped = w.traffic().1;
        txn(&c, p, mode, vec![]);
        txn(&c, p, mode, vec![]);
        assert_eq!(
            c.lock_cache().images(),
            0,
            "{mode:?} must not keep an image"
        );
        assert_eq!(
            w.traffic().1,
            shipped + 2,
            "{mode:?} must ask the server every time"
        );
    }
    assert_eq!(counter(&c, "client.page_cache.hits"), 0);
    c.disconnect();
}

#[test]
fn image_count_stops_at_the_capacity_while_locks_keep_growing() {
    let w = world();
    let extra = 40;
    let pages = w.pages(IMAGE_CAPACITY as u32 + extra);
    let c = w.client(1, |_| {});
    c.begin().unwrap();
    for (i, &p) in pages.iter().enumerate() {
        c.fetch_page(p, LockMode::S).unwrap();
        assert_eq!(c.lock_cache().len(), i + 1);
        assert_eq!(c.lock_cache().images(), (i + 1).min(IMAGE_CAPACITY));
    }
    c.commit(vec![]).unwrap();
    assert_eq!(counter(&c, "client.page_cache.evictions"), u64::from(extra));

    // The oldest image went, its lock did not: a lock hit plus one read.
    let oldest = pages[0];
    assert_eq!(
        c.lock_cache().cached_mode(lock_name(oldest)),
        Some(LockMode::S)
    );
    let (fetches, reads) = (c.stats().fetch_rpcs.get(), c.stats().read_rpcs.get());
    txn(&c, oldest, LockMode::S, vec![]);
    assert_eq!(
        (c.stats().fetch_rpcs.get(), c.stats().read_rpcs.get()),
        (fetches, reads + 1)
    );
    c.disconnect();
}

#[test]
fn non_caching_and_gateway_connections_hold_no_images() {
    let w = world();
    let p = w.pages(1)[0];
    let plain = w.client(1, |cfg| cfg.caching = false);
    let ns = NodeServer::start(
        NodeServerConfig::new(NodeId(50)),
        Arc::clone(&w.dir),
        &w.net,
    );
    let via = {
        let mut cfg = ClientConfig::new(NodeId(51), ns.node());
        cfg.gateway = Some(ns.node());
        ClientConn::connect(&w.net, Arc::clone(&w.dir), cfg)
    };
    for c in [&plain, &via] {
        c.begin().unwrap();
        c.fetch_page(p, LockMode::S).unwrap();
        assert_eq!(c.lock_cache().images(), 0);
        c.commit(vec![]).unwrap();
        txn(c, p, LockMode::S, vec![]);
        assert_eq!(c.lock_cache().images(), 0);
        for name in ["hits", "misses", "evictions", "invalidations"] {
            assert_eq!(
                counter(c, &format!("client.page_cache.{name}")),
                0,
                "{name}"
            );
        }
        c.disconnect();
    }
    ns.shutdown();
}

/// A node server retries like any client: the lost reply to its `Commit`
/// is absorbed, and the server's dedup window keeps the retry from applying
/// the updates a second time.
#[test]
fn a_node_servers_commit_survives_a_lost_reply() {
    let w = world();
    let p = w.pages(1)[0];
    let mut cfg = NodeServerConfig::new(NodeId(50));
    // Nothing of the node server's but the commit is counted; its reply is
    // waited for once.
    cfg.heartbeat_interval = NO_HEARTBEATS;
    cfg.rpc_timeout = Duration::from_millis(250);
    let ns = NodeServer::start(cfg, Arc::clone(&w.dir), &w.net);
    let app = w.client(51, |cfg| {
        cfg.home = ns.node();
        cfg.gateway = Some(ns.node());
    });
    app.begin().unwrap();
    app.fetch_page(p, LockMode::X).unwrap();

    let commits = w.server.stats().commits.get();
    let plan = NetFaultPlan::armed_from(ns.node(), 0, NetFaultKind::DropReply);
    w.net.arm(Arc::clone(&plan));
    app.commit(vec![update(p, 0, &[0; 4], b"once")]).unwrap();
    assert_eq!(plan.fired(), 1);
    assert_eq!(w.server.stats().commits.get(), commits + 1);
    assert_eq!(w.server.stats().dedup_hits.get(), 1);
    assert_eq!(&txn(&app, p, LockMode::S, vec![])[0..4], b"once");
    app.disconnect();
    ns.shutdown();
}

// ---- grants the server dropped without a callback ------------------------

/// No heartbeat gets in before the request the test means to be refused.
fn quiet(cfg: &mut ClientConfig) {
    cfg.heartbeat_interval = NO_HEARTBEATS;
}

/// A has an image of `p`; then `lose` makes the server forget A's lease
/// (no callback reaches A) and B commits new bytes to `p`.
fn image_outlives_its_lock(
    tune: fn(&mut ClientConfig),
    lose: impl FnOnce(World, &ClientConn) -> World,
) -> (World, Arc<ClientConn>, DbPage) {
    let w = world();
    let p = w.pages(1)[0];
    let a = w.client(1, tune);
    txn(&a, p, LockMode::S, vec![]);
    assert_eq!(a.lock_cache().images(), 1);
    let w = lose(w, &a);
    assert!(w.server.locks_held_by(a.node()).is_empty());
    let b = w.client(2, |_| {});
    txn(&b, p, LockMode::X, vec![update(p, 0, &[0; 4], b"newer")]);
    b.disconnect();
    (w, a, p)
}

fn expire(w: World, a: &ClientConn) -> World {
    w.server.expire_lease(a.node());
    w
}

/// A's next message, outside any transaction (`begin` sends none): a read
/// of a page it has no image of.
fn read_another_page(w: &World, a: &ClientConn) {
    let q = w.pages(1)[0];
    a.read_page(q).unwrap();
}

/// The next request A sends is refused unexecuted, A drops every lock and
/// image, and — no transaction being open — asks again under its new lease.
#[test]
fn an_expired_lease_takes_every_image_with_it() {
    let (w, a, p) = image_outlives_its_lock(quiet, expire);
    assert_eq!(a.lock_cache().images(), 1, "nobody told A");
    read_another_page(&w, &a);
    assert_eq!(a.lock_cache().images(), 0);
    let data = txn(&a, p, LockMode::S, vec![]);
    assert_eq!(&data[0..5], b"newer");
    assert_eq!(a.stats().leases_lost.get(), 1);
    assert_eq!(w.server.stats().lease_lost_rejections.get(), 1);
    assert_eq!(counter(&a, "client.page_cache.invalidations"), 1);
    // One loss, one refusal: the new lease is as good as the first was.
    let before = w.traffic();
    a.begin().unwrap();
    assert_eq!(&a.fetch_page(p, LockMode::S).unwrap()[0..5], b"newer");
    a.commit(vec![]).unwrap();
    assert_eq!(w.traffic().1, before.1, "served from the new image");
    assert_eq!(a.stats().leases_lost.get(), 1);
    a.disconnect();
}

#[test]
fn a_restarted_server_takes_every_image_with_it() {
    let (w, a, p) = image_outlives_its_lock(quiet, |w, _| w.restart());
    read_another_page(&w, &a);
    let data = txn(&a, p, LockMode::S, vec![]);
    assert_eq!(&data[0..5], b"newer");
    assert_eq!(a.stats().leases_lost.get(), 1);
    assert_eq!(w.server.stats().lease_lost_rejections.get(), 1);
    a.disconnect();
}

/// A transaction that is open when the loss comes to light may already
/// have read a stale image: the refused request fails, and so does the
/// commit, whatever the application does in between.
#[test]
fn a_transaction_open_when_the_lease_is_found_lost_cannot_commit() {
    let (w, a, p) = image_outlives_its_lock(quiet, expire);
    let q = w.pages(1)[0];
    a.begin().unwrap();
    let stale = a.fetch_page(p, LockMode::S).unwrap();
    assert_eq!(&stale[0..5], &[0; 5], "no message yet, so no way to know");
    assert!(a.fetch_page(q, LockMode::S).is_err(), "refused");
    assert_eq!(a.lock_cache().len(), 0);
    // Under the new lease the same request is served, but it is too late.
    a.fetch_page(q, LockMode::S).unwrap();
    let commits = w.server.stats().commits.get();
    let lost = a.commit(vec![update(p, 0, b"newer", b"stale")]);
    assert!(lost.is_err());
    assert_eq!(a.current_txn(), None, "aborted");
    assert_eq!(w.server.stats().commits.get(), commits);
    assert_eq!(&txn(&a, p, LockMode::S, vec![])[0..5], b"newer");
    a.disconnect();
}

/// The commit message itself can be the first the server sees: refused,
/// not applied.
#[test]
fn a_commit_stamped_with_a_lost_lease_is_not_applied() {
    let (w, a, p) = image_outlives_its_lock(quiet, expire);
    a.begin().unwrap();
    a.fetch_page(p, LockMode::S).unwrap();
    let commits = w.server.stats().commits.get();
    assert!(a.commit(vec![update(p, 0, &[0; 5], b"stale")]).is_err());
    assert_eq!(w.server.stats().commits.get(), commits);
    assert_eq!(&txn(&a, p, LockMode::S, vec![])[0..5], b"newer");
    a.disconnect();
}

/// A connection that sends nothing but heartbeats still learns: the server
/// answers a heartbeat stamped with a lease it no longer has. (The only
/// wait in this file that is not forced: a bounded poll for the listener's
/// next idle tick.)
#[test]
fn a_heartbeat_brings_the_news_to_an_idle_connection() {
    fn quick(cfg: &mut ClientConfig) {
        cfg.heartbeat_interval = Duration::from_millis(1);
    }
    let (w, a, p) = image_outlives_its_lock(quick, expire);
    let deadline = std::time::Instant::now() + WAIT;
    while a.stats().leases_lost.get() == 0 {
        assert!(std::time::Instant::now() < deadline, "no news in {WAIT:?}");
        std::thread::yield_now();
    }
    assert_eq!(a.lock_cache().len(), 0);
    let calls = w.net.stats().calls.get();
    a.begin().unwrap();
    assert_eq!(&a.fetch_page(p, LockMode::S).unwrap()[0..5], b"newer");
    a.commit(vec![]).unwrap();
    assert_eq!(w.net.stats().calls.get(), calls + 1, "one fetch, never refused");
    a.disconnect();
}

/// Two clients hold S on a page and both ask for X. Each defers the
/// other's callback until its own transaction ends, and neither can end:
/// the server sees the cycle when the second request's callback comes back
/// deferred, and that request gives way at once instead of both sitting out
/// the lock timeout.
#[test]
fn the_second_of_two_upgraders_gives_way_at_once() {
    let w = world();
    let p = w.pages(1)[0];
    let a = w.client(1, quiet);
    let b = w.client(2, quiet);
    for c in [&a, &b] {
        c.begin().unwrap();
        c.fetch_page(p, LockMode::S).unwrap();
    }
    std::thread::scope(|s| {
        let first = s.spawn(|| a.fetch_page(p, LockMode::X).map(drop));
        // A's request is being served once its callback to B (whose S is
        // in use) has been deferred.
        let deadline = std::time::Instant::now() + WAIT;
        while w.server.stats().callback_deferred.get() == 0 {
            assert!(std::time::Instant::now() < deadline, "A's request never got there");
            std::thread::yield_now();
        }
        match b.fetch_page(p, LockMode::X) {
            Err(bess_server::ClientError::Denied(why)) => {
                assert!(why.starts_with("deadlock: "), "not the timeout: {why}")
            }
            other => panic!("B must give way, got {other:?}"),
        }
        b.abort().unwrap();
        first.join().unwrap().expect("A is granted X once B lets go");
    });
    a.commit(vec![update(p, 0, &[0; 4], b"mine")]).unwrap();
    assert_eq!(&txn(&b, p, LockMode::S, vec![])[0..4], b"mine");
    a.disconnect();
    b.disconnect();
}

// ---- the callback that races the node's own in-flight request -----------

/// A server the test plays by hand: it owns area 0 on a network of its own.
struct HandServer {
    net: Arc<Network<Msg>>,
    endpoint: Endpoint<Msg>,
    client: Arc<ClientConn>,
    /// When the client reaches this server through a node server: that is
    /// then the node this server grants locks to and calls back.
    gateway: Option<NodeServer>,
}

const PAGE: DbPage = DbPage { area: 0, page: 7 };
const WAIT: Duration = Duration::from_secs(5);
const NODE_SERVER: NodeId = NodeId(50);

/// An interval no test outlasts (the hand-played server answers no
/// heartbeats, and a counted message must not be one).
const NO_HEARTBEATS: Duration = Duration::from_secs(3600);

/// `request` without the `BeginTxn` trailer of a transaction's first frame.
fn unannounced(request: &Msg) -> &Msg {
    match request {
        Msg::WithTrailers { msg, trailers } if trailers == &[Msg::BeginTxn] => msg,
        other => other,
    }
}

fn hand_server(through_a_node_server: bool) -> HandServer {
    let net: Arc<Network<Msg>> = Network::new(Duration::ZERO);
    let dir = Arc::new(Directory::new());
    dir.set_owner(0, SERVER);
    let endpoint = net.register(SERVER);
    let gateway = through_a_node_server.then(|| {
        let mut cfg = NodeServerConfig::new(NODE_SERVER);
        cfg.heartbeat_interval = NO_HEARTBEATS;
        NodeServer::start(cfg, Arc::clone(&dir), &net)
    });
    let gateway_node = gateway.as_ref().map(NodeServer::node);
    let mut cfg = ClientConfig::new(NodeId(1), gateway_node.unwrap_or(SERVER));
    cfg.gateway = gateway_node;
    cfg.heartbeat_interval = NO_HEARTBEATS;
    let client = ClientConn::connect(&net, dir, cfg);
    HandServer {
        net,
        endpoint,
        client,
        gateway,
    }
}

impl HandServer {
    /// The node that holds locks here, and its lock cache.
    fn holder(&self) -> (NodeId, &Arc<LockCache>) {
        match &self.gateway {
            Some(ns) => (ns.node(), ns.lock_cache()),
            None => (self.client.node(), self.client.lock_cache()),
        }
    }

    /// Receives the holder's next request, which must satisfy `expect`. A
    /// caching client stamps every request with its lease (this server
    /// never tells it a lease id, so the stamp stays 0 and nothing is ever
    /// refused); a node server never stamps. The announcement of a new
    /// transaction that rides a transaction's first frame is taken off.
    fn next_request(&self, expect: impl FnOnce(&Msg) -> bool) -> bess_net::Envelope<Msg> {
        let env = self.endpoint.recv(WAIT).expect("the holder sent nothing");
        let request = match (&env.msg, &self.gateway) {
            (Msg::Leased { lease: 0, msg }, None) => msg,
            (Msg::Leased { .. }, _) | (_, None) => panic!("wrong stamp: {:?}", env.msg),
            (unstamped, Some(_)) => unstamped,
        };
        let request = unannounced(request);
        assert!(expect(request), "unexpected request {request:?}");
        env
    }

    fn page_data(&self) -> Msg {
        Msg::PageData(vec![0; self.client.page_size()])
    }

    /// Leaves the holder with an idle cached S on `PAGE`, for one message:
    /// a node server whose shared cache is cold asks for lock and page
    /// together, as a client does.
    fn cache_an_idle_s(&self) {
        std::thread::scope(|s| {
            let app = s.spawn(|| txn(&self.client, PAGE, LockMode::S, vec![]));
            let asked = |m: &Msg| *m == Msg::FetchPage { page: PAGE, mode: LockMode::S };
            self.next_request(asked).reply(self.page_data());
            app.join().unwrap();
        });
        assert!(self.endpoint.try_recv().is_none(), "a cold page is one message");
        assert_eq!(
            self.holder().1.cached_mode(lock_name(PAGE)),
            Some(LockMode::S)
        );
    }

    /// Receives the holder's request for X on `PAGE`, whose S it caches,
    /// and returns it unanswered with the answer that grants it: a client
    /// asks for lock and page in one message, a node server — the page is
    /// in its shared cache — for the lock alone.
    fn upgrade_request(&self) -> (bess_net::Envelope<Msg>, Msg) {
        if self.gateway.is_some() {
            let name = lock_name(PAGE);
            let asked = |m: &Msg| *m == Msg::Lock { name, mode: LockMode::X };
            (self.next_request(asked), Msg::Granted)
        } else {
            let asked = |m: &Msg| *m == Msg::FetchPage { page: PAGE, mode: LockMode::X };
            (self.next_request(asked), self.page_data())
        }
    }

    /// The race itself: the holder's X upgrade is in flight (received, not
    /// yet answered) when `callback` arrives. The holder must defer it,
    /// keep the X it is then granted for its transaction, and hand the lock
    /// back when the transaction ends.
    fn callback_races_the_upgrade(&self, callback: Msg) {
        self.cache_an_idle_s();
        let (holder, lock_cache) = self.holder();
        std::thread::scope(|s| {
            let app = s.spawn(|| {
                self.client.begin().unwrap();
                self.client.fetch_page(PAGE, LockMode::X).unwrap();
                // Still the holder, as far as the holder knows.
                let mode = lock_cache.cached_mode(lock_name(PAGE));
                self.client.commit(vec![]).unwrap();
                mode
            });
            let (upgrade, grant) = self.upgrade_request();
            let answer = self.endpoint.call(holder, callback, WAIT).unwrap();
            assert_eq!(
                answer,
                Msg::CallbackDeferred,
                "a callback that races the holder's own request must be deferred"
            );
            upgrade.reply(grant);
            // The transaction ends: the deferred release arrives.
            self.next_request(
                |m| matches!(m, Msg::ReleaseCached { names } if names == &[lock_name(PAGE)]),
            )
            .reply(Msg::Ok);
            assert_eq!(app.join().unwrap(), Some(LockMode::X));
        });
        assert_eq!(lock_cache.cached_mode(lock_name(PAGE)), None);
        assert_eq!(lock_cache.images(), 0);
    }

    /// Calls an idle cached lock back, so that leaving sends nothing. A
    /// node server may not have heard yet that the application's
    /// transaction is over (the release rides the application's next frame
    /// or its listener's next tick): it then defers, and hands the lock
    /// back when it hears.
    fn call_back(&self, page: DbPage) {
        let name = lock_name(page);
        let answer = self.endpoint.call(self.holder().0, Msg::Callback { name }, WAIT).unwrap();
        if answer == Msg::CallbackDeferred && self.gateway.is_some() {
            self.next_request(|m| matches!(m, Msg::ReleaseCached { names } if names == &[name]))
                .reply(Msg::Ok);
        } else {
            assert_eq!(answer, Msg::CallbackReleased);
        }
    }

    /// What the client's pool gets for `pages`, asked for together inside
    /// a transaction that then commits nothing.
    fn load_together(&self, pages: &[DbPage]) -> Vec<Result<Vec<u8>, String>> {
        self.client.begin().unwrap();
        let io = RemoteIo(Arc::clone(&self.client));
        let loaded = io.load_batch(pages, self.client.page_size());
        self.client.commit(vec![]).unwrap();
        loaded
    }

    fn hang_up(self) {
        // Nothing is cached any more, so leaving sends nothing.
        self.client.disconnect();
        if let Some(ns) = self.gateway {
            ns.shutdown();
        }
        assert!(self.endpoint.try_recv().is_none());
        self.net.unregister(SERVER);
    }
}

#[test]
fn release_callback_racing_an_upgrade_is_deferred() {
    for through_a_node_server in [false, true] {
        let hs = hand_server(through_a_node_server);
        hs.callback_races_the_upgrade(Msg::Callback {
            name: lock_name(PAGE),
        });
        hs.hang_up();
    }
}

#[test]
fn downgrade_callback_racing_an_upgrade_is_deferred() {
    for through_a_node_server in [false, true] {
        let hs = hand_server(through_a_node_server);
        hs.callback_races_the_upgrade(Msg::CallbackDowngrade {
            name: lock_name(PAGE),
            to: LockMode::S,
        });
        hs.hang_up();
    }
}

/// Without a request in flight the same callbacks are answered at once, and
/// a release takes the image with it.
#[test]
fn callbacks_on_an_idle_lock_are_answered_at_once() {
    let hs = hand_server(false);
    hs.cache_an_idle_s();
    let name = lock_name(PAGE);
    let call = |msg| hs.endpoint.call(hs.client.node(), msg, WAIT).unwrap();
    assert_eq!(
        call(Msg::CallbackDowngrade {
            name,
            to: LockMode::S
        }),
        Msg::CallbackReleased
    );
    assert_eq!(hs.client.lock_cache().images(), 1);
    assert_eq!(call(Msg::Callback { name }), Msg::CallbackReleased);
    assert_eq!(hs.client.lock_cache().images(), 0);
    hs.hang_up();
}

/// An object- or segment-level callback on a page drops that page's image,
/// whatever happens to the lock it names.
#[test]
fn object_and_segment_callbacks_drop_the_pages_image() {
    let hs = hand_server(false);
    let call = |msg| hs.endpoint.call(hs.client.node(), msg, WAIT).unwrap();
    for name in [
        LockName::Object {
            area: 0,
            page: PAGE.page,
            slot: 3,
        },
        LockName::Segment {
            area: 0,
            page: PAGE.page,
        },
    ] {
        hs.cache_an_idle_s();
        assert_eq!(hs.client.lock_cache().images(), 1);
        assert_eq!(call(Msg::Callback { name }), Msg::CallbackReleased);
        assert_eq!(hs.client.lock_cache().images(), 0);
        assert_eq!(
            hs.client.lock_cache().cached_mode(lock_name(PAGE)),
            Some(LockMode::S),
            "the page lock itself was not called back"
        );
        // Release it so the next round starts from nothing.
        assert_eq!(
            call(Msg::Callback {
                name: lock_name(PAGE)
            }),
            Msg::CallbackReleased
        );
    }
    hs.hang_up();
}

// ---- several pages in one conversation ------------------------------------

const PAGE_2: DbPage = DbPage { area: 0, page: 8 };

/// The one message that asks for S on both pages and the pages.
fn fetch_both(m: &Msg) -> bool {
    let both = [PAGE, PAGE_2].map(|page| (page, Some(LockMode::S)));
    matches!(m, Msg::FetchPages { pages } if pages[..] == both)
}

fn image(byte: u8, c: &ClientConn) -> Vec<u8> {
    vec![byte; c.page_size()]
}

/// The owner grants the first lock and denies the second: the first page
/// is served and only its lock is cached.
#[test]
fn a_denial_on_the_second_page_grants_only_the_first() {
    let hs = hand_server(false);
    std::thread::scope(|s| {
        let app = s.spawn(|| hs.load_together(&[PAGE, PAGE_2]));
        hs.next_request(fetch_both)
            .reply(Msg::PagesData(vec![image(7, &hs.client)]));
        let loaded = app.join().unwrap();
        assert_eq!(loaded[0], Ok(image(7, &hs.client)));
        assert!(loaded[1].is_err(), "the page the request ended before");
    });
    let cache = hs.client.lock_cache();
    assert_eq!(cache.cached_mode(lock_name(PAGE)), Some(LockMode::S));
    assert_eq!(cache.cached_mode(lock_name(PAGE_2)), None);
    let stats = hs.client.stats();
    assert_eq!((stats.fetch_rpcs.get(), stats.pages_fetched.get()), (1, 1));
    hs.call_back(PAGE);
    hs.hang_up();
}

/// A callback that arrives between the request and its reply is deferred
/// for every name the request asked for, and honoured when the transaction
/// ends.
#[test]
fn a_callback_racing_a_fetch_of_several_pages_is_deferred_for_each() {
    for through_a_node_server in [false, true] {
        let hs = hand_server(through_a_node_server);
        let (holder, lock_cache) = hs.holder();
        let names = [lock_name(PAGE), lock_name(PAGE_2)];
        std::thread::scope(|s| {
            let app = s.spawn(|| hs.load_together(&[PAGE, PAGE_2]));
            let request = hs.next_request(fetch_both);
            for name in names {
                let answer = hs.endpoint.call(holder, Msg::Callback { name }, WAIT).unwrap();
                assert_eq!(answer, Msg::CallbackDeferred, "{name:?}");
            }
            request.reply(Msg::PagesData(vec![image(1, &hs.client), image(2, &hs.client)]));
            let released = |m: &Msg| {
                matches!(m, Msg::ReleaseCached { names: n }
                    if n.len() == 2 && names.iter().all(|name| n.contains(name)))
            };
            hs.next_request(released).reply(Msg::Ok);
            let loaded = app.join().unwrap();
            assert_eq!(loaded, [Ok(image(1, &hs.client)), Ok(image(2, &hs.client))]);
        });
        assert_eq!(lock_cache.len(), 0);
        hs.hang_up();
    }
}

/// A request refused for its lease grants nothing, whatever it asked for.
#[test]
fn a_refused_fetch_of_several_pages_grants_nothing() {
    let hs = hand_server(false);
    std::thread::scope(|s| {
        let app = s.spawn(|| {
            hs.client.begin().unwrap();
            let io = RemoteIo(Arc::clone(&hs.client));
            let loaded = io.load_batch(&[PAGE, PAGE_2], hs.client.page_size());
            // The transaction is over; the server hears of it.
            hs.client.abort().unwrap();
            loaded
        });
        hs.next_request(fetch_both).reply(Msg::Leased {
            lease: 9,
            msg: Box::new(Msg::Err(LEASE_LOST.into())),
        });
        let abort = hs.endpoint.recv(WAIT).expect("the abort");
        abort.reply(Msg::Ok);
        let loaded = app.join().unwrap();
        assert!(loaded.iter().all(Result::is_err), "{loaded:?}");
    });
    assert_eq!(hs.client.lock_cache().len(), 0);
    assert_eq!(hs.client.stats().pages_fetched.get(), 0);
    hs.hang_up();
}

/// A node server sends its owners only what it lacks: nothing for a page
/// whose lock and content it holds, the single form for one absent page,
/// one `FetchPages` for several.
#[test]
fn a_node_server_forwards_only_the_absent_pages() {
    const PAGE_3: DbPage = DbPage { area: 0, page: 9 };
    let hs = hand_server(true);
    hs.cache_an_idle_s();
    std::thread::scope(|s| {
        let app = s.spawn(|| hs.load_together(&[PAGE, PAGE_2]));
        let asked = |m: &Msg| *m == Msg::FetchPage { page: PAGE_2, mode: LockMode::S };
        hs.next_request(asked).reply(Msg::PageData(image(2, &hs.client)));
        let loaded = app.join().unwrap();
        assert_eq!(loaded, [Ok(image(0, &hs.client)), Ok(image(2, &hs.client))]);
    });
    hs.call_back(PAGE);
    hs.call_back(PAGE_2);
    std::thread::scope(|s| {
        let app = s.spawn(|| hs.load_together(&[PAGE, PAGE_2, PAGE_3]));
        let all = [PAGE, PAGE_2, PAGE_3].map(|page| (page, Some(LockMode::S)));
        let asked = |m: &Msg| matches!(m, Msg::FetchPages { pages } if pages[..] == all);
        let data = (4..7).map(|b| image(b, &hs.client)).collect();
        hs.next_request(asked).reply(Msg::PagesData(data));
        let loaded = app.join().unwrap();
        assert_eq!(loaded[2], Ok(image(6, &hs.client)));
    });
    assert!(hs.endpoint.try_recv().is_none(), "one message each time");
    let ns = hs.gateway.as_ref().unwrap().stats();
    assert_eq!(
        (ns.fetch_messages.get(), ns.remote_fetches.get(), ns.cache_hits.get()),
        (3, 5, 1),
        "(messages, pages, served from the shared cache)"
    );
    for page in [PAGE, PAGE_2, PAGE_3] {
        hs.call_back(page);
    }
    hs.hang_up();
}

// ---- what ends a transaction ------------------------------------------------

/// A node the test plays by hand (a gateway, or an owning server) and one
/// client of it that keeps nothing between transactions.
fn hand_played(
    peer: NodeId,
    tune: impl FnOnce(&mut ClientConfig),
) -> (Endpoint<Msg>, Arc<ClientConn>) {
    let net: Arc<Network<Msg>> = Network::new(Duration::ZERO);
    let dir = Arc::new(Directory::new());
    dir.set_owner(0, peer);
    let endpoint = net.register(peer);
    let mut cfg = ClientConfig::new(NodeId(1), peer);
    cfg.caching = false;
    cfg.heartbeat_interval = NO_HEARTBEATS;
    cfg.retry_base = Duration::from_millis(1);
    tune(&mut cfg);
    (endpoint, ClientConn::connect(&net, dir, cfg))
}

/// A transaction's first frame: `trailers`, then the fetch of `page`.
fn first_frame(page: DbPage, mode: LockMode, trailers: &[Msg]) -> Msg {
    Msg::WithTrailers {
        msg: Box::new(Msg::FetchPage { page, mode }),
        trailers: trailers.to_vec(),
    }
}

/// `client` leaves `peer`, owing it the release of its last transaction:
/// one standalone `ReleaseAll`, from the listener's tick or from the
/// disconnect, whichever comes first.
fn leave_owing_a_release(client: &ClientConn, peer: &Endpoint<Msg>) {
    std::thread::scope(|s| {
        s.spawn(|| client.disconnect());
        let release = peer.recv(WAIT).expect("the release");
        assert_eq!(release.msg, Msg::ReleaseAll);
        release.reply(Msg::Ok);
    });
    assert!(peer.try_recv().is_none());
}

/// A gateway ends the local transaction with the `Commit` or the `Abort` it
/// acknowledges, so that frame is the transaction's last. A read-only
/// transaction, which ships nothing, ends with no frame at all: the release
/// it owes rides the next transaction's first frame, ahead of the
/// announcement. `begin` sends nothing, and neither does the abort of a
/// transaction no frame announced.
#[test]
fn a_commit_through_a_gateway_is_the_transactions_last_frame() {
    let (gateway, client) = hand_played(NODE_SERVER, |cfg| cfg.gateway = Some(NODE_SERVER));
    let next = || gateway.recv(WAIT).expect("the client sent nothing");
    let serve_fetch = |mode, trailers: &[Msg]| {
        let fetch = next();
        assert_eq!(fetch.msg, first_frame(PAGE, mode, trailers));
        fetch.reply(Msg::PageData(image(0, &client)));
    };
    std::thread::scope(|s| {
        let app = s.spawn(|| {
            txn(&client, PAGE, LockMode::X, vec![update(PAGE, 0, &[0; 2], b"up")]);
            client.begin().unwrap();
            client.fetch_page(PAGE, LockMode::S).unwrap();
            client.abort().unwrap();
            txn(&client, PAGE, LockMode::S, vec![]);
            txn(&client, PAGE, LockMode::S, vec![]);
            client.begin().unwrap();
            client.abort().unwrap();
        });
        serve_fetch(LockMode::X, &[Msg::BeginTxn]);
        let commit = next();
        assert!(matches!(commit.msg, Msg::Commit { .. }), "{:?}", commit.msg);
        commit.reply(Msg::Ok);
        // No release after the commit: the next frame is the next
        // transaction.
        serve_fetch(LockMode::S, &[Msg::BeginTxn]);
        let abort = next();
        assert!(matches!(abort.msg, Msg::Abort { .. }), "{:?}", abort.msg);
        abort.reply(Msg::Ok);
        // Nor after the abort. This transaction reads only, and ends with
        // no frame...
        serve_fetch(LockMode::S, &[Msg::BeginTxn]);
        // ...so the next one's first frame says so first.
        serve_fetch(LockMode::S, &[Msg::ReleaseAll, Msg::BeginTxn]);
        app.join().unwrap();
    });
    // The last transaction was never announced: nobody hears of its abort.
    leave_owing_a_release(&client, &gateway);
}

/// The same through a real node server: the application's release is a
/// trailer of its next first frame, and the owner hears nothing of it.
#[test]
fn a_release_behind_a_node_server_rides_the_next_first_frame() {
    let hs = hand_server(true);
    std::thread::scope(|s| {
        let app = s.spawn(|| {
            txn(&hs.client, PAGE, LockMode::S, vec![]);
            txn(&hs.client, PAGE_2, LockMode::S, vec![]);
        });
        for page in [PAGE, PAGE_2] {
            let asked = |m: &Msg| *m == Msg::FetchPage { page, mode: LockMode::S };
            hs.next_request(asked).reply(hs.page_data());
        }
        app.join().unwrap();
    });
    // Two frames from the application, one from the node server for each;
    // `[BeginTxn]`, then `[ReleaseAll, BeginTxn]` (the hand-played owner
    // counts no trailers).
    let stats = hs.net.stats();
    assert_eq!((stats.calls.get(), stats.trailers.get()), (4, 3));
    assert!(hs.endpoint.try_recv().is_none(), "the owner hears nothing of a release");
    hs.call_back(PAGE);
    hs.call_back(PAGE_2);
    hs.hang_up();
}

/// A release the listener's tick pays is a call, and until it is answered
/// no frame leaves for that server: the server hands two frames of one
/// sender to two threads, and a release overtaken by the next transaction's
/// fetch would take that transaction's lock. (The one wait here that is not
/// forced is for nothing to arrive.)
#[test]
fn no_frame_leaves_while_a_tick_pays_the_release() {
    let (server, client) = hand_played(SERVER, |_| {});
    let read = |page| txn(&client, page, LockMode::S, vec![]);
    std::thread::scope(|s| {
        let app = s.spawn(|| read(PAGE));
        let fetch = server.recv(WAIT).expect("the fetch");
        assert_eq!(fetch.msg, first_frame(PAGE, LockMode::S, &[Msg::BeginTxn]));
        fetch.reply(Msg::PageData(image(0, &client)));
        app.join().unwrap();

        // No frame follows, so the next tick pays.
        let release = server.recv(WAIT).expect("the tick's release");
        assert_eq!(release.msg, Msg::ReleaseAll);
        assert!(release.wants_reply(), "a call: the node must know when it ran");
        let app = s.spawn(|| read(PAGE_2));
        let early = server.recv(Duration::from_millis(100));
        assert!(early.is_err(), "a frame overtook the release: {:?}", early.map(|e| e.msg));
        release.reply(Msg::Ok);
        // Paid: the frame that waited carries no second release.
        let fetch = server.recv(WAIT).expect("the fetch that waited");
        assert_eq!(fetch.msg, first_frame(PAGE_2, LockMode::S, &[Msg::BeginTxn]));
        fetch.reply(Msg::PageData(image(0, &client)));
        app.join().unwrap();
    });
    leave_owing_a_release(&client, &server);
}

/// A release is owed until a frame that carried it was answered: when the
/// first frame of the next transaction gets no answer after every retry,
/// the debt is back in place — beside the announcement — and the frame
/// after that carries both. Nobody is told of the abort in between: no
/// server has heard of that transaction.
#[test]
fn a_release_whose_frame_got_no_answer_is_still_owed() {
    let (server, client) = hand_played(SERVER, |cfg| cfg.max_retries = 1);
    let owing = first_frame(PAGE_2, LockMode::S, &[Msg::ReleaseAll, Msg::BeginTxn]);
    std::thread::scope(|s| {
        let app = s.spawn(|| {
            txn(&client, PAGE, LockMode::S, vec![]);
            client.begin().unwrap();
            let lost = client.fetch_page(PAGE_2, LockMode::S);
            assert!(matches!(lost, Err(bess_server::ClientError::Net(_))), "{lost:?}");
            client.abort().unwrap();
            txn(&client, PAGE_2, LockMode::S, vec![]);
        });
        let fetch = server.recv(WAIT).expect("the fetch");
        assert_eq!(fetch.msg, first_frame(PAGE, LockMode::S, &[Msg::BeginTxn]));
        fetch.reply(Msg::PageData(image(0, &client)));
        // The frame and its one retry: hung up on, unanswered.
        for _ in 0..2 {
            assert_eq!(server.recv(WAIT).expect("the frame").msg, owing);
        }
        let fetch = server.recv(WAIT).expect("the next transaction");
        assert_eq!(fetch.msg, owing);
        fetch.reply(Msg::PageData(image(0, &client)));
        app.join().unwrap();
    });
    assert_eq!(client.stats().retries.get(), 1);
    leave_owing_a_release(&client, &server);
}
