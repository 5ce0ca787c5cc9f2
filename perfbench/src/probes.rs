//! `probe.*` micro-drivers: each calls one layer's public functions alone,
//! on one thread, over memory devices with no modelled delay, and reports
//! nanoseconds per call as the median of several batches. They run in every
//! traced run, whatever the workload, so that a layer's unit cost is on
//! the per-layer sheet even of a workload that bypasses the layer.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bess_cache::{AreaSet, DbPage, GetOutcome, PageIo, PrivatePool, SharedCache};
use bess_io::{IoOp, IoQueue, IoRuntimeConfig, MemDevice};
use bess_lock::{LockManager, LockMode, LockName, TxnId};
use bess_net::{Network, NodeId};
use bess_obs::{Counter, Registry};
use bess_storage::{AreaConfig, AreaId, PageUpdate, StorageArea};
use bess_vm::{AddressSpace, Protect};
use bess_wal::{LogBody, LogManager, LogPageId, Lsn};

use crate::stack::{self, Result, PAGE_BYTES};
use crate::stats::median;

const BATCHES: usize = 7;

/// Median over `BATCHES` batches of the nanoseconds one of `calls` calls
/// took.
fn ns_per_call(calls: usize, mut f: impl FnMut()) -> f64 {
    let per_batch: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..calls {
                f();
            }
            start.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    median(&per_batch)
}

/// Runs every probe; keys are per-layer metric names.
pub fn run_all() -> Result<BTreeMap<&'static str, f64>> {
    let mut out = BTreeMap::new();
    out.insert("net.probe.call_rtt_ns", net_call()?);
    out.insert("lock.probe.acquire_release_ns", lock_cycle());
    let (append, force) = wal();
    out.insert("wal.probe.append_ns", append);
    out.insert("wal.probe.force_ns", force);
    out.insert("io.probe.submit_complete_1_ns", io_submit(1)?);
    out.insert("io.probe.submit_complete_8_ns", io_submit(8)?);
    let (read, write, alloc) = storage()?;
    out.insert("storage.probe.read_page_verify_ns", read);
    out.insert("storage.probe.write_batch_ns_per_page", write);
    out.insert("storage.probe.alloc_free_ns", alloc);
    out.insert("cache.probe.shared_get_hit_ns", shared_get()?);
    out.insert("cache.probe.private_fault_in_hit_ns", private_fault_in()?);
    let (deref, resolve) = segment()?;
    out.insert("seg.probe.deref_warm_ns", deref);
    out.insert("seg.probe.resolve_oid_ns", resolve);
    let (append, read) = largeobj()?;
    out.insert("lo.probe.append_ns_per_kib", append);
    out.insert("lo.probe.read_ns_per_kib", read);
    Ok(out)
}

/// One RPC over the zero-latency in-process network: the channel hop.
fn net_call() -> Result<f64> {
    let net: Arc<Network<u64>> = Network::new(Duration::ZERO);
    let server = net.register(NodeId(1));
    let echo = std::thread::spawn(move || {
        while let Ok(env) = server.recv(Duration::from_secs(5)) {
            let msg = env.msg;
            if msg == u64::MAX {
                break;
            }
            env.reply(msg);
        }
    });
    let caller = net.caller(NodeId(2));
    let mut failed = false;
    let ns = ns_per_call(300, || {
        failed |= caller.call(NodeId(1), 7, Duration::from_secs(5)).is_err();
    });
    caller.send(NodeId(1), u64::MAX)?;
    echo.join().map_err(|_| "echo thread panicked")?;
    if failed {
        return Err("probe call failed".into());
    }
    Ok(ns)
}

fn lock_cycle() -> f64 {
    let locks = LockManager::new(Duration::from_millis(500));
    let mut page = 0u64;
    ns_per_call(5000, || {
        page += 1;
        let name = LockName::Page {
            area: 0,
            page: page % 64,
        };
        locks
            .lock(TxnId(1), name, LockMode::X)
            .expect("uncontended lock");
        locks.unlock_all(TxnId(1));
    })
}

fn update_record() -> LogBody {
    LogBody::Update {
        page: LogPageId { area: 0, page: 1 },
        offset: 0,
        before: vec![0; 64],
        after: vec![1; 64],
    }
}

fn wal() -> (f64, f64) {
    let log = LogManager::create_mem();
    let append = ns_per_call(5000, || {
        log.append(1, Lsn::NULL, update_record());
    });
    let force = ns_per_call(2000, || {
        let lsn = log.append(1, Lsn::NULL, update_record());
        log.flush(lsn).expect("memory log force");
    });
    // The force figure includes one append; take it out.
    (append, (force - append).max(0.0))
}

fn io_submit(batch: usize) -> Result<f64> {
    let queue = IoQueue::new(IoRuntimeConfig::from_env(), &Registry::new().group("probe"));
    let dev = MemDevice::with_contents(vec![0u8; 64 * PAGE_BYTES]);
    let file = queue.register(dev, Counter::unregistered());
    let mut failed = false;
    let ns = ns_per_call(2000, || {
        let ops: Vec<IoOp> = (0..batch)
            .map(|i| IoOp::Read {
                file,
                offset: (i * PAGE_BYTES) as u64,
                len: PAGE_BYTES,
                exact: true,
            })
            .collect();
        for ticket in queue.submit_owned(ops) {
            failed |= queue.complete(ticket).is_err();
        }
    });
    if failed {
        return Err("probe read failed".into());
    }
    Ok(ns)
}

fn storage() -> Result<(f64, f64, f64)> {
    let area = StorageArea::create_mem(AreaId(0), AreaConfig::default())?;
    let pages = stack::alloc_pages(&area, 64)?;
    stack::write_pages(&area, &pages, |i| vec![i as u8 | 1; PAGE_BYTES])?;
    let mut i = 0;
    let mut failed = false;
    let read = ns_per_call(2000, || {
        i += 1;
        failed |= area.read_pages_batch(&[pages[i % 64]])[0].is_err();
    });
    let patch = [7u8; 64];
    let write = ns_per_call(300, || {
        i += 8;
        let updates: Vec<PageUpdate<'_>> = (0..8)
            .map(|j| PageUpdate {
                page: pages[(i + j) % 64],
                offset: 128,
                data: &patch,
                lsn: 0,
            })
            .collect();
        failed |= area
            .write_at_lsn_batch(&updates)
            .iter()
            .any(|(_, r)| r.is_err());
    }) / 8.0;
    let alloc = ns_per_call(2000, || match area.alloc(4) {
        Ok(ptr) => failed |= area.free(ptr).is_err(),
        Err(_) => failed = true,
    });
    if failed {
        return Err("storage probe failed".into());
    }
    Ok((read, write, alloc))
}

fn shared_get() -> Result<f64> {
    let cache = SharedCache::new(64, 256, PAGE_BYTES);
    let page = DbPage { area: 0, page: 9 };
    match cache.get(page).map_err(|e| e.to_string())? {
        GetOutcome::MustLoad { slot, .. } => {
            cache.finish_load(slot, page);
            cache.dec_access(slot);
        }
        GetOutcome::Resident { slot, .. } => cache.dec_access(slot),
    }
    let mut failed = false;
    let ns = ns_per_call(20_000, || match cache.get(page) {
        Ok(GetOutcome::Resident { slot, .. }) => cache.dec_access(slot),
        _ => failed = true,
    });
    if failed {
        return Err("shared cache probe missed".into());
    }
    Ok(ns)
}

fn private_fault_in() -> Result<f64> {
    let areas = Arc::new(AreaSet::new());
    let area = Arc::new(StorageArea::create_mem(AreaId(0), AreaConfig::default())?);
    let page = DbPage {
        area: 0,
        page: stack::alloc_pages(&area, 1)?[0],
    };
    areas.add(area);
    let space = Arc::new(AddressSpace::new());
    let pool = PrivatePool::new(space.clone(), areas as Arc<dyn PageIo>, 16);
    let addr = space.reserve(PAGE_BYTES as u64, None).start();
    pool.fault_in(page, addr, Protect::Read)
        .map_err(|e| e.to_string())?;
    let mut failed = false;
    let ns = ns_per_call(20_000, || {
        failed |= pool.fault_in(page, addr, Protect::Read).is_err();
    });
    if failed {
        return Err("private pool probe failed".into());
    }
    Ok(ns)
}

fn segment() -> Result<(f64, f64)> {
    let (area, _dev) = stack::new_area(0, crate::device::DeviceModel::ZERO)?;
    let areas = Arc::new(AreaSet::new());
    areas.add(area);
    let db = stack::create_db(&areas, "probe")?;
    let session = stack::embedded_session(db, &areas, None, stack::default_pool_frames());
    let next: Vec<u32> = (0..32).map(|i| (i + 1) % 32).collect();
    let oids = stack::load_graph(&session, 1, 32, &next)?;
    let mgr = session.manager();
    let addrs = oids
        .iter()
        .map(|&oid| mgr.resolve_oid(oid))
        .collect::<std::result::Result<Vec<_>, _>>()?;
    let mut i = 0;
    let mut failed = false;
    let deref = ns_per_call(50_000, || {
        i += 1;
        failed |= mgr.read_object(addrs[i % 32]).is_err();
    });
    let resolve = ns_per_call(50_000, || {
        i += 1;
        failed |= mgr.resolve_oid(oids[i % 32]).is_err();
    });
    if failed {
        return Err("segment probe failed".into());
    }
    Ok((deref, resolve))
}

fn largeobj() -> Result<(f64, f64)> {
    const CHUNK: usize = 64 << 10;
    const CHUNKS: usize = 16;
    let area = Arc::new(StorageArea::create_mem(AreaId(0), AreaConfig::default())?);
    let data = vec![0xa5u8; CHUNK];
    let (mut append, mut read) = (Vec::new(), Vec::new());
    for _ in 0..BATCHES {
        let mut blob = stack::blob_create(&area);
        let start = Instant::now();
        for _ in 0..CHUNKS {
            blob.append(&data)?;
        }
        append.push(start.elapsed().as_nanos() as f64 / (CHUNKS * CHUNK / 1024) as f64);
        let start = Instant::now();
        for c in 0..CHUNKS {
            std::hint::black_box(blob.read_vec((c * CHUNK) as u64, CHUNK)?);
        }
        read.push(start.elapsed().as_nanos() as f64 / (CHUNKS * CHUNK / 1024) as f64);
        blob.destroy()?;
    }
    Ok((median(&append), median(&read)))
}
