//! Shared environments and workload generators for the BeSS experiment
//! suite.
//!
//! The published paper contains no numeric tables (its figures are
//! architecture diagrams; §6 only mentions "a preliminary performance
//! evaluation of the operation modes"), so the experiments here regenerate
//! the *claims* the text makes, against the baselines the paper itself
//! names — see `DESIGN.md` §4 for the experiment index and
//! `EXPERIMENTS.md` for results.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod scenario;
pub mod slo;

use std::sync::Arc;
use std::time::Duration;

use bess_cache::{AreaSet, PageIo, PrivatePool};
use bess_core::{Database, Session, SessionConfig};
use bess_net::{Network, NodeId};
use bess_segment::{
    ProtectionPolicy, SegmentCatalog, SegmentManager, TypeRegistry,
};
use bess_server::{
    register_areas, BessServer, ClientConfig, ClientConn, ClientOpts, Directory, Msg,
    NodeServer, NodeServerConfig, ServerConfig,
};
use bess_storage::{AreaConfig, AreaId, DiskSpace, StorageArea};
use bess_vm::AddressSpace;
use bess_wal::LogManager;

/// Builds an [`AreaSet`] of in-memory storage areas.
pub fn make_areas(ids: &[u32]) -> Arc<AreaSet> {
    let set = Arc::new(AreaSet::new());
    for &id in ids {
        set.add(Arc::new(
            StorageArea::create_mem(AreaId(id), AreaConfig::default()).unwrap(),
        ));
    }
    set
}

/// An embedded session over fresh in-memory areas.
pub fn embedded_session(areas: &[u32]) -> (Arc<AreaSet>, Arc<Session>) {
    let set = make_areas(areas);
    let db = Database::create(&*Arc::clone(&set), "bench", 1, 1, areas[0]).unwrap();
    let session = Session::embedded(db, Arc::clone(&set), None, None, SessionConfig::default());
    (set, session)
}

/// A bare segment manager (no session layer) for micro-experiments.
pub fn segment_env(
    policy: ProtectionPolicy,
    pool_frames: usize,
) -> (Arc<AreaSet>, Arc<TypeRegistry>, Arc<SegmentCatalog>, Arc<SegmentManager>) {
    let areas = make_areas(&[0, 1]);
    let types = Arc::new(TypeRegistry::new());
    let catalog = Arc::new(SegmentCatalog::new());
    let mgr = make_manager(&areas, &types, &catalog, policy, pool_frames);
    (areas, types, catalog, mgr)
}

/// A fresh manager ("process"/mapping epoch) over existing storage.
pub fn make_manager(
    areas: &Arc<AreaSet>,
    types: &Arc<TypeRegistry>,
    catalog: &Arc<SegmentCatalog>,
    policy: ProtectionPolicy,
    pool_frames: usize,
) -> Arc<SegmentManager> {
    let space = Arc::new(AddressSpace::new());
    let pool = Arc::new(PrivatePool::new(
        Arc::clone(&space),
        Arc::clone(areas) as Arc<dyn PageIo>,
        pool_frames,
    ));
    SegmentManager::new(
        space,
        pool,
        Arc::clone(areas) as Arc<dyn DiskSpace>,
        Arc::clone(types),
        Arc::clone(catalog),
        policy,
        1,
        1,
    )
}

/// A simulated multi-server world for distributed experiments.
pub struct World {
    /// The network (message counters live here).
    pub net: Arc<Network<Msg>>,
    /// Area ownership.
    pub dir: Arc<Directory>,
    /// The servers, one per entry of `server_areas`.
    pub servers: Vec<BessServer>,
    /// Their area sets, parallel to `servers`.
    pub area_sets: Vec<Arc<AreaSet>>,
}

impl World {
    /// Builds a world with one server per area list, with the given wire
    /// latency.
    pub fn new(server_areas: &[&[u32]], latency: Duration) -> World {
        let net = Network::new(latency);
        let dir = Arc::new(Directory::new());
        let mut servers = Vec::new();
        let mut area_sets = Vec::new();
        for (i, areas) in server_areas.iter().enumerate() {
            let node = NodeId(100 + i as u32);
            let set = make_areas(areas);
            register_areas(&dir, node, &set);
            let (server, _) = BessServer::start(
                ServerConfig::new(node),
                Arc::clone(&set),
                LogManager::create_mem(),
                &net,
            );
            servers.push(server);
            area_sets.push(set);
        }
        World {
            net,
            dir,
            servers,
            area_sets,
        }
    }

    /// Connects a caching client.
    pub fn client(&self, node: u32, caching: bool) -> Arc<ClientConn> {
        self.client_with_opts(node, caching, ClientOpts::default())
    }

    /// Connects a client with explicit message-saving opts.
    pub fn client_with_opts(
        &self,
        node: u32,
        caching: bool,
        opts: ClientOpts,
    ) -> Arc<ClientConn> {
        let mut cfg = ClientConfig::new(NodeId(node), self.servers[0].node());
        cfg.caching = caching;
        cfg.opts = opts;
        ClientConn::connect(&self.net, Arc::clone(&self.dir), cfg)
    }

    /// Starts a node server on this world.
    pub fn node_server(&self, node: u32) -> NodeServer {
        NodeServer::start(NodeServerConfig::new(NodeId(node)), Arc::clone(&self.dir), &self.net)
    }

    /// One registry over the whole world: `net.*` plus every server's
    /// metrics under `s<i>.` (live aliases, so snapshot/delta over it
    /// measures an experiment interval across all nodes at once).
    pub fn metrics(&self) -> Arc<bess_obs::Registry> {
        let reg = bess_obs::Registry::new();
        reg.adopt("", self.net.metrics().registry());
        for (i, server) in self.servers.iter().enumerate() {
            reg.adopt(&format!("s{i}"), server.metrics().registry());
        }
        reg
    }
}

/// Workload generators.
pub mod workload {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A deterministic RNG for reproducible experiments.
    pub fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    /// Zipf-distributed indices over `[0, n)` with skew `theta`
    /// (theta = 0 is uniform; ~0.99 is the classic hot-skewed workload).
    pub struct Zipf {
        cdf: Vec<f64>,
    }

    impl Zipf {
        /// Builds the sampler.
        pub fn new(n: usize, theta: f64) -> Zipf {
            let mut weights: Vec<f64> = (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).collect();
            let total: f64 = weights.iter().sum();
            let mut acc = 0.0;
            for w in weights.iter_mut() {
                acc += *w / total;
                *w = acc;
            }
            Zipf { cdf: weights }
        }

        /// Samples an index.
        pub fn sample(&self, rng: &mut StdRng) -> usize {
            let u: f64 = rng.gen();
            self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
        }
    }

    /// The HOTCOLD access pattern of the client-caching literature (Carey
    /// et al.): probability `hot_prob` of hitting a page in the first
    /// `hot_frac` of the range.
    pub struct HotCold {
        n: usize,
        hot: usize,
        hot_prob: f64,
    }

    impl HotCold {
        /// Builds the sampler.
        pub fn new(n: usize, hot_frac: f64, hot_prob: f64) -> HotCold {
            HotCold {
                n,
                hot: ((n as f64 * hot_frac) as usize).max(1),
                hot_prob,
            }
        }

        /// Samples an index.
        pub fn sample(&self, rng: &mut StdRng) -> usize {
            if rng.gen::<f64>() < self.hot_prob {
                rng.gen_range(0..self.hot)
            } else {
                rng.gen_range(self.hot..self.n.max(self.hot + 1))
            }
        }
    }

    /// A sequential scan cycle over `[0, n)`.
    pub struct Scan {
        n: usize,
        at: usize,
    }

    impl Scan {
        /// Builds the scanner.
        pub fn new(n: usize) -> Scan {
            Scan { n, at: 0 }
        }

        /// Next index.
        pub fn sample(&mut self) -> usize {
            let v = self.at;
            self.at = (self.at + 1) % self.n;
            v
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_is_skewed() {
        let z = workload::Zipf::new(1000, 0.99);
        let mut rng = workload::rng(42);
        let mut top10 = 0;
        for _ in 0..10_000 {
            if z.sample(&mut rng) < 10 {
                top10 += 1;
            }
        }
        assert!(top10 > 2000, "top-10 hit {top10}/10000 times");
    }

    #[test]
    fn hotcold_is_hot() {
        let h = workload::HotCold::new(1000, 0.1, 0.8);
        let mut rng = workload::rng(7);
        let mut hot = 0;
        for _ in 0..10_000 {
            if h.sample(&mut rng) < 100 {
                hot += 1;
            }
        }
        assert!((7000..9000).contains(&hot), "hot hits {hot}");
    }

    #[test]
    fn world_builds() {
        let w = World::new(&[&[0], &[1]], Duration::ZERO);
        assert_eq!(w.servers.len(), 2);
        let c = w.client(1, true);
        c.begin().unwrap();
        c.commit(vec![]).unwrap();
    }
}
