//! The one adapter between the benchmark and the BeSS stack. Every public
//! API the benchmark touches is called from this file (README.md lists
//! them), so a later change to an API is a change to one file here. It
//! stays clear of what ROADMAP item 4 plans to delete: the blocking
//! `read_page`/`write_at` shims, `compat_presumed_abort`, `ShipUpdates` and
//! `concurrent_ship`.

use std::sync::Arc;
use std::time::Duration;

use bess_cache::{AreaSet, DbPage};
use bess_core::{codec, Database, GlobalRef, Persist, Ref, Session, SessionConfig};
use bess_largeobj::{LargeObject, LoConfig};
use bess_lock::{LockManager, LockMode};
use bess_net::{Network, NodeId};
use bess_obs::RegistrySnapshot;
use bess_segment::{Oid, TypeDesc};
use bess_server::{
    register_areas, BessServer, ClientConfig, ClientConn, Directory, Msg, NodeServer,
    NodeServerConfig, PageUpdate, ServerConfig,
};
use bess_storage::{AreaConfig, AreaId, StorageArea};
use bess_wal::{LogManager, RecoveryReport};

use crate::device::{BenchDevice, DeviceModel};

/// One-way wire latency of the networked workloads.
pub const WIRE_LATENCY: Duration = Duration::from_micros(100);
/// Log sync latency of the networked workloads.
pub const WAL_SYNC: Duration = Duration::from_micros(500);
/// Bytes per page of every area the benchmark creates (the shipped default).
pub const PAGE_BYTES: usize = bess_storage::PAGE_SIZE;

pub type Error = Box<dyn std::error::Error + Send + Sync>;
pub type Result<T> = std::result::Result<T, Error>;

fn err(e: impl std::fmt::Display) -> Error {
    e.to_string().into()
}

// ---- storage areas ------------------------------------------------------

/// A storage area with the shipped default geometry on its own
/// `BenchDevice`.
pub fn new_area(id: u32, model: DeviceModel) -> Result<(Arc<StorageArea>, Arc<BenchDevice>)> {
    let dev = BenchDevice::new(id, model);
    let area = StorageArea::create_on_device(AreaId(id), AreaConfig::default(), dev.clone())?;
    Ok((Arc::new(area), dev))
}

/// Reopens an area from what its device holds.
pub fn reopen_area(id: u32, dev: &Arc<BenchDevice>) -> Result<Arc<StorageArea>> {
    Ok(Arc::new(StorageArea::open_device(
        AreaId(id),
        dev.clone(),
        true,
    )?))
}

/// Allocates `pages` single data pages, 64 at a time.
pub fn alloc_pages(area: &StorageArea, pages: usize) -> Result<Vec<u64>> {
    let mut out = Vec::with_capacity(pages + 64);
    while out.len() < pages {
        let ptr = area.alloc(64)?;
        out.extend((0..u64::from(ptr.pages)).map(|p| ptr.start_page + p));
    }
    out.truncate(pages);
    Ok(out)
}

/// Writes whole pages through the batched apply path, 64 per submission;
/// `image(i)` is the content of `pages[i]`.
pub fn write_pages(
    area: &StorageArea,
    pages: &[u64],
    image: impl Fn(usize) -> Vec<u8>,
) -> Result<()> {
    for (c, chunk) in pages.chunks(64).enumerate() {
        let images: Vec<Vec<u8>> = (0..chunk.len()).map(|i| image(c * 64 + i)).collect();
        let updates: Vec<bess_storage::PageUpdate<'_>> = chunk
            .iter()
            .zip(&images)
            .map(|(&page, data)| bess_storage::PageUpdate {
                page,
                offset: 0,
                data,
                lsn: 0,
            })
            .collect();
        for (_, result) in area.write_at_lsn_batch(&updates) {
            result?;
        }
    }
    Ok(())
}

/// Reads whole pages through the batched, verifying read path.
pub fn read_pages(area: &StorageArea, pages: &[u64]) -> Result<Vec<Vec<u8>>> {
    let mut out = Vec::with_capacity(pages.len());
    for chunk in pages.chunks(64) {
        for page in area.read_pages_batch(chunk) {
            out.push(page?);
        }
    }
    Ok(out)
}

/// Makes everything written to the area so far durable.
pub fn sync_area(area: &StorageArea) -> Result<()> {
    Ok(area.sync()?)
}

pub fn allocated_bytes(area: &StorageArea) -> u64 {
    area.allocated_pages() * area.page_size() as u64
}

/// Fragmentation in permille, as the `storage.a<id>.frag_permille` gauge
/// rounds it.
pub fn frag_permille(area: &StorageArea) -> u64 {
    (area.fragmentation() * 1000.0).round() as u64
}

// ---- the client-server cluster -------------------------------------------

pub struct ServerNode {
    pub node: NodeId,
    pub area: Arc<StorageArea>,
    pub areas: Arc<AreaSet>,
    pub dev: Arc<BenchDevice>,
    server: Option<BessServer>,
}

impl ServerNode {
    pub fn server(&self) -> &BessServer {
        self.server.as_ref().expect("server is running")
    }
}

/// Servers (server `i` is node `100 + i` and owns area `i`), the network
/// and the directory. Everything is the shipped default except the wire
/// latency, the log sync latency and the device the areas sit on.
pub struct Cluster {
    pub net: Arc<Network<Msg>>,
    pub dir: Arc<Directory>,
    pub servers: Vec<ServerNode>,
}

impl Cluster {
    /// Creates the areas and registers their owners; servers are started
    /// by [`Cluster::start_servers`] once the areas are loaded.
    pub fn new(servers: usize) -> Result<Cluster> {
        let net = Network::new(WIRE_LATENCY);
        let dir = Arc::new(Directory::new());
        let mut nodes = Vec::with_capacity(servers);
        for i in 0..servers as u32 {
            let (area, dev) = new_area(i, DeviceModel::NETWORKED)?;
            let areas = Arc::new(AreaSet::new());
            areas.add(area.clone());
            let node = NodeId(100 + i);
            register_areas(&dir, node, &areas);
            nodes.push(ServerNode {
                node,
                area,
                areas,
                dev,
                server: None,
            });
        }
        Ok(Cluster {
            net,
            dir,
            servers: nodes,
        })
    }

    /// Makes the loaded areas durable and starts every server on a fresh
    /// slow-sync memory log.
    pub fn start_servers(&mut self) -> Result<()> {
        for s in &mut self.servers {
            s.area.sync()?;
            let (server, _) = BessServer::start(
                ServerConfig::new(s.node),
                s.areas.clone(),
                LogManager::create_mem_slow(WAL_SYNC),
                &self.net,
            );
            s.server = Some(server);
        }
        Ok(())
    }

    pub fn set_delays(&self, on: bool) {
        for s in &self.servers {
            s.dev.set_delays(on);
        }
    }

    /// A client machine talking to the servers directly; server 0 is its
    /// home (and 2PC coordinator).
    pub fn client(&self, node: u32, caching: bool) -> Arc<ClientConn> {
        let mut cfg = ClientConfig::new(NodeId(node), self.servers[0].node);
        cfg.caching = caching;
        ClientConn::connect(&self.net, self.dir.clone(), cfg)
    }

    /// A client machine whose every request goes through a node server.
    pub fn client_via(&self, node: u32, gateway: &NodeServer) -> Arc<ClientConn> {
        let mut cfg = ClientConfig::new(NodeId(node), gateway.node());
        cfg.gateway = Some(gateway.node());
        ClientConn::connect(&self.net, self.dir.clone(), cfg)
    }

    /// A node server (diskless gateway with the shared cache).
    pub fn node_server(&self, node: u32, cache_slots: usize) -> NodeServer {
        let mut cfg = NodeServerConfig::new(NodeId(node));
        cfg.cache_slots = cache_slots;
        cfg.cache_vframes = cfg.cache_vframes.max(4 * cache_slots);
        NodeServer::start(cfg, self.dir.clone(), &self.net)
    }

    /// `copies` independent logs holding exactly what server `i` had
    /// flushed: the same crashed log, once per restart to be timed.
    pub fn crashed_logs(&self, i: usize, copies: usize) -> Result<Vec<LogManager>> {
        let log = self.servers[i].server().log();
        (0..copies)
            .map(|_| log.simulate_crash().map_err(err))
            .collect()
    }

    /// Kills server `i`: the process is gone and its area loses every
    /// write since the last sync.
    pub fn crash_server(&mut self, i: usize) {
        let s = &mut self.servers[i];
        if let Some(server) = s.server.take() {
            server.shutdown();
        }
        self.net.unregister(s.node);
        s.dev.crash();
    }

    /// Restarts server `i` over a crashed log; returns what recovery did.
    pub fn restart_server(&mut self, i: usize, log: LogManager) -> RecoveryReport {
        let s = &mut self.servers[i];
        let (server, report) =
            BessServer::start(ServerConfig::new(s.node), s.areas.clone(), log, &self.net);
        s.server = Some(server);
        report
    }

    /// Crashes server `i`, restarts it over `log`, and times the restart up
    /// to the first page a fresh client is served from `probe`, in
    /// milliseconds.
    pub fn timed_restart(
        &mut self,
        i: usize,
        log: LogManager,
        probe: DbPage,
    ) -> Result<(f64, RecoveryReport)> {
        self.crash_server(i);
        let start = std::time::Instant::now();
        let report = self.restart_server(i, log);
        let client = self.client(90, false);
        client.begin()?;
        client.fetch_page(probe, LockMode::S)?;
        client.commit(Vec::new())?;
        let ms = start.elapsed().as_secs_f64() * 1e3;
        client.disconnect();
        Ok((ms, report))
    }

    /// `net.*` plus every running server's registry, counters summed.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let mut snap = self.net.metrics().registry().snapshot();
        for s in &self.servers {
            if let Some(server) = &s.server {
                snap.absorb("", &server.metrics().registry().snapshot());
            }
        }
        snap
    }

    pub fn shutdown(mut self) {
        for s in &mut self.servers {
            if let Some(server) = s.server.take() {
                server.shutdown();
            }
        }
    }
}

pub fn node_server_snapshot(ns: &NodeServer) -> RegistrySnapshot {
    ns.metrics().registry().snapshot()
}

pub fn client_snapshot(conn: &ClientConn) -> RegistrySnapshot {
    conn.metrics().registry().snapshot()
}

pub fn page(area: u32, page: u64) -> DbPage {
    DbPage { area, page }
}

/// A sub-page update shipped at commit.
pub fn page_update(page: DbPage, offset: usize, before: &[u8], after: Vec<u8>) -> PageUpdate {
    PageUpdate {
        page,
        offset: offset as u32,
        before: before.to_vec(),
        after,
    }
}

pub fn lock_mode(exclusive: bool) -> LockMode {
    if exclusive {
        LockMode::X
    } else {
        LockMode::S
    }
}

// ---- sessions and the object graph -----------------------------------------

/// The 64-byte graph node of the traversal workloads.
pub struct Node {
    pub id: u64,
    /// Bumped by every committed `put`.
    pub counter: u64,
    pub next: Option<Ref<Node>>,
}

pub const NODE_BYTES: usize = 64;
const NODE_NEXT_AT: usize = 56;

impl Persist for Node {
    fn type_desc() -> TypeDesc {
        TypeDesc {
            name: "perfbench::Node".into(),
            size: NODE_BYTES as u32,
            ref_offsets: vec![NODE_NEXT_AT as u32],
        }
    }

    fn encode(&self) -> Vec<u8> {
        let mut b = vec![0u8; NODE_BYTES];
        codec::put_u64(&mut b, 0, self.id);
        codec::put_u64(&mut b, 8, self.counter);
        codec::put_ref(&mut b, NODE_NEXT_AT, self.next);
        b
    }

    fn decode(bytes: &[u8]) -> Self {
        Node {
            id: codec::get_u64(bytes, 0),
            counter: codec::get_u64(bytes, 8),
            next: codec::get_ref(bytes, NODE_NEXT_AT),
        }
    }
}

/// A fresh database on area 0 of `areas`.
pub fn create_db(areas: &Arc<AreaSet>, name: &str) -> Result<Arc<Database>> {
    Ok(Database::create(&**areas, name, 1, 1, 0)?)
}

/// Opens the database whose descriptor is the first allocation of area 0.
pub fn open_db(areas: &Arc<AreaSet>) -> Result<Arc<Database>> {
    Ok(Database::open(&**areas, 0)?)
}

/// An embedded session; `durable` gives it a log and a lock manager.
pub fn embedded_session(
    db: Arc<Database>,
    areas: &Arc<AreaSet>,
    log: Option<Arc<LogManager>>,
    pool_frames: usize,
) -> Arc<Session> {
    let locks = log
        .is_some()
        .then(|| Arc::new(LockManager::new(ServerConfig::new(NodeId(0)).lock_timeout)));
    let cfg = SessionConfig {
        pool_frames,
        ..SessionConfig::default()
    };
    Session::embedded(db, areas.clone(), log, locks, cfg)
}

/// A remote (copy-on-access) session with a private pool of `pool_frames`.
pub fn remote_session(
    db: Arc<Database>,
    conn: Arc<ClientConn>,
    pool_frames: usize,
) -> Arc<Session> {
    let cfg = SessionConfig {
        pool_frames,
        ..SessionConfig::default()
    };
    Session::remote(db, conn, cfg)
}

pub fn default_pool_frames() -> usize {
    SessionConfig::default().pool_frames
}

/// Loads a graph of `segments x per_segment` nodes into area 0 through
/// `session`, one transaction per 64 segments, wiring `next[i]` as the
/// successor of node `i`. Node `i` lives in segment `i / per_segment`.
pub fn load_graph(
    session: &Session,
    segments: usize,
    per_segment: usize,
    next: &[u32],
) -> Result<Vec<Oid>> {
    let mut refs: Vec<Ref<Node>> = Vec::with_capacity(segments * per_segment);
    for chunk in 0..segments.div_ceil(64) {
        session.begin()?;
        for s in chunk * 64..((chunk + 1) * 64).min(segments) {
            let seg = session.create_segment(0, per_segment as u32, 1)?;
            for i in 0..per_segment {
                let node = Node {
                    id: (s * per_segment + i) as u64,
                    counter: 0,
                    next: None,
                };
                refs.push(session.create(seg, &node)?);
            }
        }
        session.commit()?;
    }
    for chunk in 0..segments.div_ceil(64) {
        session.begin()?;
        for i in chunk * 64 * per_segment..((chunk + 1) * 64 * per_segment).min(refs.len()) {
            session.set_ref(refs[i], NODE_NEXT_AT as u32, Some(refs[next[i] as usize]))?;
        }
        session.commit()?;
    }
    let oids = refs
        .iter()
        .map(|&r| session.global(r).map(|g| g.oid()))
        .collect::<std::result::Result<Vec<_>, _>>()?;
    session.save_db()?;
    Ok(oids)
}

/// Resolves an OID to a swizzled reference (the slower, explicit path).
pub fn deref_global(session: &Session, oid: Oid) -> Result<Ref<Node>> {
    Ok(session.deref_global(GlobalRef::<Node>::new(oid))?)
}

/// Dereferences a swizzled reference (the fast path).
pub fn get(session: &Session, at: Ref<Node>) -> Result<Node> {
    Ok(session.get(at)?)
}

/// Follows `hops` references starting at `at`; returns the sum of the node
/// ids visited (start included) and where the walk stopped.
pub fn walk(session: &Session, mut at: Ref<Node>, hops: usize) -> Result<(u64, Ref<Node>)> {
    let mut sum = 0u64;
    for _ in 0..hops {
        let node = session.get(at)?;
        sum = sum.wrapping_add(node.id);
        at = node.next.ok_or("graph node without successor")?;
    }
    Ok((sum, at))
}

/// A live handle on one counter of the session's registry.
pub fn session_counter(session: &Session, name: &str) -> bess_obs::Counter {
    session.metrics().counter(name)
}

/// Rewrites a node with its counter bumped (write fault, update detection).
pub fn bump(session: &Session, at: Ref<Node>) -> Result<()> {
    let mut node = session.get(at)?;
    node.counter += 1;
    Ok(session.put(at, &node)?)
}

pub fn session_snapshot(session: &Session) -> RegistrySnapshot {
    session.metrics().snapshot()
}

/// Restart recovery of an embedded deployment over a crashed log.
pub fn recover_embedded(log: &LogManager, areas: &Arc<AreaSet>) -> Result<RecoveryReport> {
    Ok(bess_core::recover_embedded(log, areas)?)
}

pub fn mem_log() -> Arc<LogManager> {
    Arc::new(LogManager::create_mem())
}

pub fn crashed_log(log: &LogManager) -> Result<LogManager> {
    log.simulate_crash().map_err(err)
}

// ---- large objects --------------------------------------------------------

pub fn area_snapshot(area: &StorageArea) -> RegistrySnapshot {
    area.metrics().registry().snapshot()
}

/// Panics unless every extent's free lists and allocation table tile it.
pub fn check_allocator(area: &StorageArea) {
    area.check_allocator_invariants();
}

pub fn blob_create(area: &Arc<StorageArea>) -> LargeObject {
    LargeObject::create(area.clone(), LoConfig::default())
}

pub fn blob_reopen(area: &Arc<StorageArea>, descriptor: &[u8]) -> Result<LargeObject> {
    Ok(LargeObject::from_descriptor(area.clone(), descriptor)?)
}
