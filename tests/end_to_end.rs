//! End-to-end distributed scenarios spanning every crate: typed object
//! graphs over the network, crash + restart + recovery, callbacks between
//! competing clients, and 2PC under failure.

use std::sync::Arc;
use std::time::Duration;

use bess_cache::AreaSet;
use bess_core::{
    codec, Database, Persist, RawBytes, Ref, Session, SessionConfig,
};
use bess_net::{Network, NodeId};
use bess_segment::TypeDesc;
use bess_server::{
    register_areas, BessServer, ClientConfig, ClientConn, Directory, Msg, ServerConfig,
};
use bess_storage::{AreaConfig, AreaId, StorageArea};
use bess_wal::LogManager;

struct Account {
    owner: String,
    balance: u64,
    next: Option<Ref<Account>>,
}

impl Persist for Account {
    fn type_desc() -> TypeDesc {
        TypeDesc {
            name: "e2e::Account".into(),
            size: 48,
            ref_offsets: vec![40],
        }
    }

    fn encode(&self) -> Vec<u8> {
        let mut b = vec![0u8; 48];
        codec::put_str(&mut b, 0, 32, &self.owner);
        codec::put_u64(&mut b, 32, self.balance);
        codec::put_ref(&mut b, 40, self.next);
        b
    }

    fn decode(bytes: &[u8]) -> Self {
        Account {
            owner: codec::get_str(bytes, 0, 32),
            balance: codec::get_u64(bytes, 32),
            next: codec::get_ref(bytes, 40),
        }
    }
}

fn make_world() -> (
    Arc<Network<Msg>>,
    Arc<Directory>,
    Arc<AreaSet>,
    BessServer,
) {
    let net = Network::new(Duration::ZERO);
    let dir = Arc::new(Directory::new());
    let set = Arc::new(AreaSet::new());
    set.add(Arc::new(
        StorageArea::create_mem(AreaId(0), AreaConfig::default()).unwrap(),
    ));
    register_areas(&dir, NodeId(100), &set);
    let mut cfg = ServerConfig::new(NodeId(100));
    // Short deadlock timeout: the transfer test intentionally provokes
    // upgrade deadlocks; victims must be chosen quickly so retries (with
    // much longer backoff) make progress.
    cfg.lock_timeout = Duration::from_millis(100);
    let (server, _) = BessServer::start(cfg, Arc::clone(&set), LogManager::create_mem(), &net);
    (net, dir, set, server)
}

fn bootstrap_accounts(set: &Arc<AreaSet>) -> Arc<Database> {
    let db = Database::create(&**set, "bank", 1, 1, 0).unwrap();
    let boot = Session::embedded(
        Arc::clone(&db),
        Arc::clone(set),
        None,
        None,
        SessionConfig::default(),
    );
    boot.begin().unwrap();
    let seg = boot.create_segment(0, 64, 4).unwrap();
    let b = boot
        .create(
            seg,
            &Account {
                owner: "bob".into(),
                balance: 500,
                next: None,
            },
        )
        .unwrap();
    let a = boot
        .create(
            seg,
            &Account {
                owner: "alice".into(),
                balance: 500,
                next: Some(b),
            },
        )
        .unwrap();
    boot.set_root("alice", a).unwrap();
    boot.set_root("bob", b).unwrap();
    boot.commit().unwrap();
    boot.save_db().unwrap();
    db
}

#[test]
fn concurrent_transfers_preserve_the_invariant() {
    let (net, dir, set, _server) = make_world();
    bootstrap_accounts(&set);

    // Remote clients transfer money back and forth; balances must always
    // sum to 1000. Deadlock timeouts abort victims, which back off and
    // retry — the paper's §3 resolution policy in action.
    let mut handles = Vec::new();
    for i in 0..2u32 {
        let net = Arc::clone(&net);
        let dir = Arc::clone(&dir);
        let set = Arc::clone(&set);
        handles.push(std::thread::spawn(move || {
            let db = Database::open(&*set, 0).unwrap();
            let conn = ClientConn::connect(
                &net,
                dir,
                ClientConfig::new(NodeId(10 + i), NodeId(100)),
            );
            let s = Session::remote(db, conn, SessionConfig::default());
            let mut done = 0;
            let mut attempt = 0u64;
            while done < 4 {
                attempt += 1;
                assert!(attempt < 500, "no progress after {attempt} attempts");
                // Backoff much longer than the deadlock timeout, jittered
                // per client, so one of two read-then-upgrade competitors
                // regularly gets an uncontended window.
                std::thread::sleep(Duration::from_millis(
                    (attempt * 241 + u64::from(i) * 613) % 1200,
                ));
                if s.begin().is_err() {
                    continue;
                }
                let run = (|| -> Result<(), bess_core::BessError> {
                    let alice: Ref<Account> = s.root("alice")?.unwrap();
                    let bob: Ref<Account> = s.root("bob")?.unwrap();
                    let mut a = s.get(alice)?;
                    let mut b = s.get(bob)?;
                    let amount = 10 + u64::from(i);
                    if a.balance >= amount {
                        a.balance -= amount;
                        b.balance += amount;
                    } else {
                        b.balance -= amount;
                        a.balance += amount;
                    }
                    s.put(alice, &a)?;
                    s.put(bob, &b)?;
                    Ok(())
                })();
                match run {
                    Ok(()) => {
                        if s.commit().is_ok() {
                            done += 1;
                        }
                    }
                    Err(_) => {
                        let _ = s.abort();
                    }
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }

    // Check the invariant from a fresh session.
    let db = Database::open(&*set, 0).unwrap();
    let check = Session::embedded(db, Arc::clone(&set), None, None, SessionConfig::default());
    let alice: Ref<Account> = check.root("alice").unwrap().unwrap();
    let a = check.get(alice).unwrap();
    let b = check.get(a.next.unwrap()).unwrap();
    assert_eq!(
        a.balance + b.balance,
        1000,
        "alice={} bob={}",
        a.balance,
        b.balance
    );
}

#[test]
fn server_crash_preserves_committed_transfers() {
    let (net, dir, set, server) = make_world();
    let db = bootstrap_accounts(&set);
    let _ = db;

    // A client commits a transfer through the server (so it is WAL-logged
    // there), then the server crashes and restarts.
    let db_c = Database::open(&*set, 0).unwrap();
    let conn = ClientConn::connect(&net, Arc::clone(&dir), ClientConfig::new(NodeId(1), NodeId(100)));
    let s = Session::remote(db_c, Arc::clone(&conn), SessionConfig::default());
    s.begin().unwrap();
    let alice: Ref<Account> = s.root("alice").unwrap().unwrap();
    let mut a = s.get(alice).unwrap();
    a.balance -= 123;
    s.put(alice, &a).unwrap();
    s.commit().unwrap();
    // The session's private pool is its data cache: the connection under
    // it caches the locks, and no page images beside the pool's frames.
    assert!(!conn.lock_cache().is_empty());
    assert_eq!(conn.lock_cache().images(), 0);

    // Crash the server process: keep the flushed log, restart over the
    // same storage areas.
    let crashed_log = server.log().simulate_crash().unwrap();
    server.shutdown();
    net.unregister(NodeId(100));
    let (server2, report) = BessServer::start(
        ServerConfig::new(NodeId(100)),
        Arc::clone(&set),
        crashed_log,
        &net,
    );
    assert!(report.losers.is_empty());
    let _ = server2;

    // A fresh client reads the post-crash state.
    let db2 = Database::open(&*set, 0).unwrap();
    let conn2 = ClientConn::connect(&net, dir, ClientConfig::new(NodeId(2), NodeId(100)));
    let s2 = Session::remote(db2, conn2, SessionConfig::default());
    s2.begin().unwrap();
    let alice2: Ref<Account> = s2.root("alice").unwrap().unwrap();
    assert_eq!(s2.get(alice2).unwrap().balance, 377);
    s2.commit().unwrap();
}

#[test]
fn big_and_huge_objects_round_trip_remotely() {
    let (net, dir, set, _server) = make_world();
    let db = Database::create(&*set, "blobs", 1, 1, 0).unwrap();
    {
        // Bootstrap a segment embedded, then save.
        let boot = Session::embedded(
            Arc::clone(&db),
            Arc::clone(&set),
            None,
            None,
            SessionConfig::default(),
        );
        boot.begin().unwrap();
        boot.create_segment(0, 32, 4).unwrap();
        boot.commit().unwrap();
        boot.save_db().unwrap();
    }
    // A remote session creates large objects: the disk allocations and
    // byte I/O all travel over the protocol (RemoteSpace).
    let db_r = Database::open(&*set, 0).unwrap();
    let seg = db_r.catalog().list()[0];
    let conn = ClientConn::connect(&net, dir, ClientConfig::new(NodeId(5), NodeId(100)));
    let s = Session::remote(db_r, conn, SessionConfig::default());
    s.begin().unwrap();
    let big = s.create_big(seg, &vec![0x42; 30_000]).unwrap();
    let (huge_ref, mut lo) = s.create_huge(seg, 1 << 20).unwrap();
    lo.append(&vec![0x17; 400_000]).unwrap();
    lo.insert(5, b"MARK").unwrap();
    s.save_huge(huge_ref, &lo).unwrap();
    s.commit().unwrap();

    s.begin().unwrap();
    assert_eq!(s.get_bytes(big.cast::<RawBytes>()).unwrap(), vec![0x42; 30_000]);
    let lo2 = s.open_huge(huge_ref).unwrap();
    assert_eq!(lo2.len(), 400_004);
    assert_eq!(lo2.read_vec(5, 4).unwrap(), b"MARK");
    s.commit().unwrap();
}
