//! The at-most-once window, at both kinds of server: of the deliveries of
//! one non-idempotent request — retries with the same request id, copies
//! the network made — the first executes and the rest get its reply.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::time::{Duration, Instant};

use bess_lock::{OrderedMutex, Rank};
use bess_net::NodeId;
use bess_obs::Counter;
use parking_lot::Condvar;

use crate::proto::Msg;

/// `(client node, request id)`.
type Key = (u32, u64);

/// State of one entry in the dedup window.
enum DedupState {
    /// The first delivery is still executing; duplicates wait for it.
    InFlight,
    /// The recorded reply; duplicates get a clone instead of re-execution.
    Done(Msg),
}

/// Recent non-idempotent requests, bounded FIFO.
struct DedupWindow {
    entries: HashMap<Key, DedupState>,
    order: VecDeque<Key>,
}

/// Entries kept in the dedup window before the oldest completed ones are
/// evicted. Clients retry within seconds, so a small window is plenty.
const DEDUP_WINDOW: usize = 1024;

/// The window, and the condition a waiting duplicate sleeps on. The mutex
/// is never held across request execution.
pub(crate) struct Dedup {
    window: OrderedMutex<DedupWindow>,
    recorded: Condvar,
    /// How long a duplicate waits for the first delivery's reply.
    wait: Duration,
    hits: Counter,
}

impl Dedup {
    /// A window whose duplicates wait at most `wait` for a reply and count
    /// each replay on `hits`.
    pub(crate) fn new(wait: Duration, hits: Counter) -> Dedup {
        let window = DedupWindow { entries: HashMap::new(), order: VecDeque::new() };
        let window = OrderedMutex::new(Rank::ServerDedup, "server.dedup", window);
        Dedup { window, recorded: Condvar::new(), wait, hits }
    }

    /// The key `msg` from `from` is deduplicated under, if it is one of
    /// the non-idempotent requests. `req == 0` opts out.
    pub(crate) fn key(from: NodeId, msg: &Msg) -> Option<Key> {
        match msg {
            Msg::Commit { req, .. } | Msg::CommitGlobal { req, .. } if *req != 0 => {
                Some((from.0, *req))
            }
            _ => None,
        }
    }

    /// First half of the protocol. Returns `Some(reply)` when this
    /// delivery is a duplicate (answered from the window, after waiting
    /// out a concurrent first delivery if need be); `None` when the caller
    /// owns execution and must call [`Self::finish`].
    pub(crate) fn begin(&self, key: Key) -> Option<Msg> {
        let mut w = self.window.lock();
        if let Entry::Vacant(entry) = w.entries.entry(key) {
            entry.insert(DedupState::InFlight);
            w.order.push_back(key);
            // Evict completed entries beyond the window; in-flight entries
            // are never evicted (their owner still needs to record a reply).
            while w.order.len() > DEDUP_WINDOW {
                let Some(old) = w.order.front().copied() else {
                    break;
                };
                if matches!(w.entries.get(&old), Some(DedupState::InFlight)) {
                    break;
                }
                w.order.pop_front();
                w.entries.remove(&old);
            }
            return None;
        }
        // A duplicate arrived while the first delivery may still be
        // executing: wait for its reply rather than executing a second time.
        let deadline = Instant::now() + self.wait;
        let mut timed_out = false;
        loop {
            match w.entries.get(&key) {
                Some(DedupState::Done(reply)) => {
                    self.hits.inc();
                    return Some(reply.clone());
                }
                None => return Some(Msg::Err("duplicate request evicted".into())),
                Some(DedupState::InFlight) if timed_out => {
                    return Some(Msg::Err("duplicate request still in flight".into()))
                }
                Some(DedupState::InFlight) => {}
            }
            // LINT: allow(blocking-under-lock) — condvar wait releases the mutex while blocked.
            timed_out = self.recorded.wait_until(w.raw(), deadline).timed_out();
        }
    }

    /// Records the reply for a request admitted by [`Self::begin`] and
    /// wakes the duplicates waiting for it.
    pub(crate) fn finish(&self, key: Key, reply: Msg) {
        self.window.lock().entries.insert(key, DedupState::Done(reply));
        self.recorded.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;

    const WAIT: Duration = Duration::from_secs(5);

    #[test]
    fn a_duplicate_of_a_delivery_still_executing_waits_for_its_reply() {
        let dedup = Dedup::new(WAIT, Counter::unregistered());
        let executed = AtomicUsize::new(0);
        let key = (7, 42);
        let (started_tx, started_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let (dup_tx, dup_rx) = mpsc::channel();
        let (dedup, executed) = (&dedup, &executed);
        std::thread::scope(|s| {
            s.spawn(move || {
                assert!(dedup.begin(key).is_none(), "the first delivery executes");
                executed.fetch_add(1, Ordering::SeqCst);
                started_tx.send(()).unwrap();
                release_rx.recv().unwrap();
                dedup.finish(key, Msg::TxnId(9));
            });
            started_rx.recv().unwrap();
            s.spawn(move || {
                let reply = dedup.begin(key);
                if reply.is_none() {
                    executed.fetch_add(1, Ordering::SeqCst);
                }
                dup_tx.send(reply).unwrap();
            });
            // The duplicate neither executes nor answers while the first
            // delivery is still executing.
            let early = dup_rx.recv_timeout(Duration::from_millis(100));
            assert_eq!(early, Err(mpsc::RecvTimeoutError::Timeout));
            release_tx.send(()).unwrap();
            assert_eq!(dup_rx.recv_timeout(WAIT).unwrap(), Some(Msg::TxnId(9)));
        });
        assert_eq!(executed.load(Ordering::SeqCst), 1);
        assert_eq!(dedup.hits.get(), 1);
        // A later retry is answered from the window as well.
        assert_eq!(dedup.begin(key), Some(Msg::TxnId(9)));
    }

    #[test]
    fn only_commits_with_a_request_id_are_deduplicated() {
        let commit = |req| Msg::Commit { txn: 1, updates: vec![], req };
        assert_eq!(Dedup::key(NodeId(3), &commit(5)), Some((3, 5)));
        assert_eq!(Dedup::key(NodeId(3), &commit(0)), None);
        assert_eq!(Dedup::key(NodeId(3), &Msg::BeginTxn), None);
    }
}
