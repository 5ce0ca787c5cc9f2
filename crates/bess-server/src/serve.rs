//! The dispatcher: who serves a frame.
//!
//! A [`crate::BessServer`] and a [`crate::NodeServer`] receive frames the
//! same way: one loop owns the endpoint and hands each message to a handler
//! thread, so that a handler blocked in a lock wait, a callback or an
//! upstream RPC never delays a later frame — the one that would unblock it
//! included. The handler and the housekeeping between messages differ.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bess_net::{Endpoint, Envelope, NetError, NodeId};

/// Warm handler threads kept parked per loop. Steady-state traffic is
/// handed to one of these instead of paying a thread spawn per message;
/// bursts (or messages arriving while every warm worker is busy in a
/// long-blocking handler — a lock callback, a coordinator round, a fetch
/// from an owning server) overflow to a transient spawn, so liveness never
/// depends on the pool size.
pub(crate) const SERVE_POOL: usize = 4;

/// How long the loop waits for a message before it does its housekeeping
/// unasked.
pub(crate) const IDLE_TICK: Duration = Duration::from_millis(50);

fn run<M>(handler: &impl Fn(NodeId, M) -> M, env: Envelope<M>) {
    let (from, msg, replier) = env.into_parts();
    replier.reply(handler(from, msg));
}

/// Serves `endpoint` until `running` is cleared or the network goes away:
/// every message runs `handler` on a thread of its own and its result is
/// the reply (dropped for a one-way message). `housekeeping` runs on every
/// idle tick and, under continuous traffic, once per `every` — it must not
/// depend on the loop going idle, or a busy server would never reap a dead
/// client's lease. Returns once the warm workers have finished.
pub(crate) fn serve<M, H>(
    endpoint: &Endpoint<M>,
    running: &AtomicBool,
    handler: H,
    every: Duration,
    mut housekeeping: impl FnMut(),
) where
    M: Clone + Send + 'static,
    H: Fn(NodeId, M) -> M + Send + Sync + 'static,
{
    let handler = Arc::new(handler);
    // `idle` counts workers parked in `recv`. This loop, the only sender,
    // hands a message to the pool only after reserving a parked worker by
    // decrementing the count, so a message can never queue behind a blocked
    // handler — exactly one of handoff or spawn.
    let (work_tx, work_rx) = crossbeam::channel::unbounded::<Envelope<M>>();
    let idle = AtomicUsize::new(0);
    std::thread::scope(|pool| {
        for _ in 0..SERVE_POOL {
            pool.spawn(|| {
                idle.fetch_add(1, Ordering::SeqCst);
                while let Ok(env) = work_rx.recv() {
                    run(&*handler, env);
                    idle.fetch_add(1, Ordering::SeqCst);
                }
            });
        }
        let mut last_kept = Instant::now();
        while running.load(Ordering::Relaxed) {
            match endpoint.recv(IDLE_TICK) {
                Ok(env) => {
                    let overflow = if idle.load(Ordering::SeqCst) > 0 {
                        idle.fetch_sub(1, Ordering::SeqCst);
                        work_tx.send(env).err().map(|back| back.0)
                    } else {
                        Some(env)
                    };
                    if let Some(env) = overflow {
                        let handler = Arc::clone(&handler);
                        std::thread::spawn(move || run(&*handler, env));
                    }
                    if last_kept.elapsed() >= every {
                        last_kept = Instant::now();
                        housekeeping();
                    }
                }
                Err(NetError::Timeout) => {
                    last_kept = Instant::now();
                    housekeeping();
                }
                Err(_) => break,
            }
        }
        // The workers leave when nothing can be handed to them any more.
        drop(work_tx);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use bess_net::Network;
    use std::sync::atomic::AtomicU64;
    use std::sync::{mpsc, Barrier, Mutex};

    const SERVER: NodeId = NodeId(100);
    const WAIT: Duration = Duration::from_secs(5);
    /// A request whose handler parks on the test's barrier.
    const PARK: u64 = u64::MAX;

    /// Runs `serve` over a fresh network with `handler` until `body` is
    /// done, then clears `running` and waits for the loop to return.
    fn with_loop<H>(
        handler: H,
        every: Duration,
        housekeeping: impl FnMut() + Send,
        body: impl FnOnce(&Arc<Network<u64>>),
    ) where
        H: Fn(NodeId, u64) -> u64 + Send + Sync + 'static,
    {
        let net = Network::<u64>::new(Duration::ZERO);
        let endpoint = net.register(SERVER);
        let running = AtomicBool::new(true);
        std::thread::scope(|s| {
            let served = s.spawn(|| serve(&endpoint, &running, handler, every, housekeeping));
            body(&net);
            running.store(false, Ordering::Relaxed);
            served.join().unwrap();
        });
    }

    #[test]
    fn every_message_gets_its_reply() {
        with_loop(|from, n| n * 2 + u64::from(from.0), WAIT, || {}, |net| {
            std::thread::scope(|s| {
                for node in 1..=3u32 {
                    let caller = net.caller(NodeId(node));
                    s.spawn(move || {
                        for n in 0..50u64 {
                            let reply = caller.call(SERVER, n, WAIT).unwrap();
                            assert_eq!(reply, n * 2 + u64::from(node));
                        }
                    });
                }
            });
            assert_eq!(net.stats().calls.get(), 150);
        });
    }

    #[test]
    fn a_full_pool_of_blocked_handlers_does_not_delay_the_next_message() {
        let barrier = Arc::new(Barrier::new(SERVE_POOL + 1));
        let (parked_tx, parked_rx) = mpsc::channel();
        let parked_tx = Mutex::new(parked_tx);
        let handler = {
            let barrier = Arc::clone(&barrier);
            move |_, n| {
                if n == PARK {
                    parked_tx.lock().unwrap().send(()).unwrap();
                    barrier.wait();
                }
                n
            }
        };
        with_loop(handler, WAIT, || {}, |net| {
            std::thread::scope(|s| {
                for _ in 0..SERVE_POOL {
                    let caller = net.caller(NodeId(1));
                    s.spawn(move || assert_eq!(caller.call(SERVER, PARK, WAIT), Ok(PARK)));
                }
                for _ in 0..SERVE_POOL {
                    parked_rx.recv_timeout(WAIT).expect("a handler never started");
                }
                // Every parked handler is still parked: nothing released
                // the barrier. The next frame must find a thread anyway.
                assert_eq!(net.caller(NodeId(2)).call(SERVER, 7, WAIT), Ok(7));
                barrier.wait();
            });
        });
    }

    #[test]
    fn a_one_way_message_runs_and_answers_nothing() {
        let (ran_tx, ran_rx) = mpsc::channel();
        let ran_tx = Mutex::new(ran_tx);
        let handler = move |from, n| {
            ran_tx.lock().unwrap().send((from, n)).unwrap();
            n
        };
        with_loop(handler, WAIT, || {}, |net| {
            net.caller(NodeId(1)).send(SERVER, 42).unwrap();
            assert_eq!(ran_rx.recv_timeout(WAIT), Ok((NodeId(1), 42)));
            assert_eq!((net.stats().sends.get(), net.stats().calls.get()), (1, 0));
        });
    }

    #[test]
    fn clearing_running_joins_every_worker() {
        // Each worker holds the handler, and the handler this token: the
        // loop has returned only when all of them are gone.
        let token = Arc::new(());
        let held = Arc::clone(&token);
        let handler = move |_, n| {
            let _ = &held;
            n
        };
        with_loop(handler, WAIT, || {}, |net| {
            assert_eq!(net.caller(NodeId(1)).call(SERVER, 1, WAIT), Ok(1));
            assert!(Arc::strong_count(&token) > 1);
        });
        assert_eq!(Arc::strong_count(&token), 1);
    }

    #[test]
    fn housekeeping_runs_under_continuous_traffic() {
        // No budget at all: every message pays for one round, whether or
        // not the loop ever goes idle.
        let kept = AtomicU64::new(0);
        let keep = || {
            kept.fetch_add(1, Ordering::SeqCst);
        };
        with_loop(|_, n| n, Duration::ZERO, keep, |net| {
            let caller = net.caller(NodeId(1));
            for n in 0..100 {
                assert_eq!(caller.call(SERVER, n, WAIT), Ok(n));
            }
        });
        assert!(kept.load(Ordering::SeqCst) >= 100);
    }
}
