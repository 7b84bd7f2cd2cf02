//! Conservative parallel simulation: a coordinator for shard-local
//! engines synchronized by lookahead windows.
//!
//! The single-queue [`Engine`](crate::Engine) executes every event of a
//! simulation on one thread. For fleet-scale scenarios (100k+ ranks)
//! the event volume outgrows one core, but the workloads we simulate
//! have a natural partition: the TBON overlay's links carry a minimum
//! per-hop latency, so an event executing in one subtree cannot affect
//! another subtree sooner than that latency. That bound — the
//! *lookahead* — is exactly the classical conservative-PDES window
//! condition (Chandy/Misra/Bryant): if every cross-shard interaction is
//! delayed by at least `L`, all shards can safely execute the window
//! `[t, t_min + L)` in parallel, where `t_min` is the globally earliest
//! pending event.
//!
//! [`ShardedEngine`] drives that loop:
//!
//! 1. collect each shard's next local event time (and the delivery
//!    times of in-flight boundary messages),
//! 2. compute `window_end = min(next) + lookahead`,
//! 3. hand every shard its inbound boundary messages in a canonical
//!    order and let all shards run local events strictly before
//!    `window_end` on their own worker threads,
//! 4. gather outbound boundary messages at the barrier and repeat.
//!
//! Shard state is **thread-confined, not `Send`**: each shard sim is
//! constructed *inside* its worker thread from a `Send` builder, so
//! `Rc`-based hot-path structures (routes, modules, payloads) never
//! cross threads. Only the boundary messages — plain `Send` envelope
//! values — travel between shards, and only at window barriers.
//!
//! # Determinism contract
//!
//! For a fixed shard count the run is bit-reproducible, and a workload
//! whose cross-shard sends honor the lookahead and whose same-timestamp
//! message folds are commutative produces the *same merged event
//! stream for every shard count* (see `DESIGN.md` §9):
//!
//! * window boundaries derive only from virtual times, never from
//!   wall-clock or thread scheduling;
//! * inbound messages are delivered to each shard sorted by
//!   `(delivery time, source shard, per-source sequence)` — a total
//!   order independent of which worker finished first;
//! * each shard's local execution is a deterministic single-threaded
//!   [`Engine`](crate::Engine) run.
//!
//! The coordinator *verifies* the lookahead contract at runtime: an
//! outbound message whose delivery time lands inside the window that
//! produced it would be a causality violation and panics immediately
//! rather than silently reordering events.

use crate::time::{SimDuration, SimTime};
use std::sync::mpsc::{channel, Receiver, Sender};

/// A boundary message leaving a shard: deliver `msg` to `to_shard` at
/// virtual time `at`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outbound<M> {
    /// Virtual delivery time (must be at or after the end of the
    /// window in which the message was produced).
    pub at: SimTime,
    /// Destination shard index.
    pub to_shard: usize,
    /// The payload crossing the boundary.
    pub msg: M,
}

/// An inbound boundary message as a shard receives it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Inbound<M> {
    /// Virtual delivery time.
    pub at: SimTime,
    /// Shard that produced the message.
    pub from_shard: usize,
    /// The payload.
    pub msg: M,
}

/// A shard-local simulation driven by [`ShardedEngine`].
///
/// Implementations typically wrap an [`Engine`](crate::Engine) plus the
/// shard's slice of world state; they are built inside the worker
/// thread and never cross it, so they need not be `Send`.
pub trait ShardSim {
    /// Boundary-message payload exchanged with other shards.
    type Boundary: Send + 'static;
    /// Per-shard result returned to the caller after the run.
    type Output: Send + 'static;

    /// Virtual time of the earliest pending local event, or `None`
    /// when the shard is idle (boundary deliveries may still wake it).
    fn next_time(&self) -> Option<SimTime>;

    /// Enqueue a boundary message for local execution at `msg.at`.
    /// Called only at window barriers, with `msg.at` at or after the
    /// end of the last executed window.
    fn deliver(&mut self, msg: Inbound<Self::Boundary>);

    /// Execute every local event with time strictly before `end`,
    /// pushing any messages bound for other shards into `out`.
    /// Returns the number of events executed (for load stats).
    fn run_window(&mut self, end: SimTime, out: &mut Vec<Outbound<Self::Boundary>>) -> u64;

    /// Consume the shard and produce its result (event stream, stats —
    /// whatever the workload merges).
    fn finish(self) -> Self::Output;
}

/// Aggregate statistics for one sharded run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardedRunStats {
    /// Number of synchronization windows executed.
    pub windows: u64,
    /// Total boundary messages exchanged between shards.
    pub boundary_msgs: u64,
    /// Total events executed across all shards.
    pub events: u64,
    /// Virtual time reached when the run went quiescent.
    pub end_time: SimTime,
}

/// The conservative window coordinator. See the module docs for the
/// protocol and determinism contract.
#[derive(Debug, Clone, Copy)]
pub struct ShardedEngine {
    /// The lookahead window: a lower bound on the virtual latency of
    /// every cross-shard interaction. Must be at least one tick
    /// (1 µs) for the window loop to make progress.
    pub lookahead: SimDuration,
    /// Optional virtual-time horizon: events at or after this instant
    /// are not executed.
    pub horizon: Option<SimTime>,
}

enum Cmd<M> {
    Window {
        end: SimTime,
        inbox: Vec<Inbound<M>>,
    },
    Finish,
}

struct Report<M> {
    outbox: Vec<Outbound<M>>,
    next: Option<SimTime>,
    events: u64,
}

/// An undelivered boundary message held by the coordinator:
/// `(delivery time, source shard, per-source sequence, payload)`.
type PendingMsg<M> = (SimTime, usize, u64, M);

impl ShardedEngine {
    /// A coordinator with the given lookahead and no horizon.
    pub fn new(lookahead: SimDuration) -> ShardedEngine {
        assert!(
            !lookahead.is_zero(),
            "conservative windows need a positive lookahead"
        );
        ShardedEngine {
            lookahead,
            horizon: None,
        }
    }

    /// Stop executing events at or after `t`.
    pub fn with_horizon(mut self, t: SimTime) -> ShardedEngine {
        self.horizon = Some(t);
        self
    }

    /// Run one simulation: `builders[i]` constructs shard `i`'s sim on
    /// its own worker thread; the coordinator synchronizes windows
    /// until every shard is quiescent (or the horizon is reached), then
    /// returns the per-shard outputs in shard order plus run stats.
    pub fn run<S, F>(&self, builders: Vec<F>) -> (Vec<S::Output>, ShardedRunStats)
    where
        S: ShardSim,
        F: FnOnce(usize) -> S + Send,
    {
        let shards = builders.len();
        assert!(shards > 0, "at least one shard");
        let lookahead = self.lookahead;
        let horizon = self.horizon;

        let mut cmd_txs: Vec<Sender<Cmd<S::Boundary>>> = Vec::with_capacity(shards);
        let mut cmd_rxs: Vec<Receiver<Cmd<S::Boundary>>> = Vec::with_capacity(shards);
        let mut rep_txs: Vec<Sender<Report<S::Boundary>>> = Vec::with_capacity(shards);
        let mut rep_rxs: Vec<Receiver<Report<S::Boundary>>> = Vec::with_capacity(shards);
        for _ in 0..shards {
            let (ct, cr) = channel();
            let (rt, rr) = channel();
            cmd_txs.push(ct);
            cmd_rxs.push(cr);
            rep_txs.push(rt);
            rep_rxs.push(rr);
        }
        let (out_tx, out_rx) = channel::<(usize, S::Output)>();

        let mut stats = ShardedRunStats::default();

        std::thread::scope(|scope| {
            for (shard, builder) in builders.into_iter().enumerate() {
                let cmd_rx = cmd_rxs.remove(0);
                let rep_tx = rep_txs.remove(0);
                let out_tx = out_tx.clone();
                scope.spawn(move || {
                    // The sim is built *here*, inside the worker: its
                    // !Send internals never leave this thread.
                    let mut sim = builder(shard);
                    let mut outbox = Vec::new();
                    loop {
                        // invariant: `cmd_txs` outlives the thread scope.
                        match cmd_rx.recv().expect("coordinator alive") {
                            Cmd::Window { end, inbox } => {
                                for m in inbox {
                                    sim.deliver(m);
                                }
                                // The bootstrap probe (end = 0) only
                                // collects next-event times; a window
                                // executes events strictly before its
                                // end, so a zero-length one runs none.
                                let events = if end == SimTime::ZERO {
                                    0
                                } else {
                                    sim.run_window(end, &mut outbox)
                                };
                                for o in &outbox {
                                    assert!(
                                        o.at >= end,
                                        "lookahead violation: shard {shard} produced a \
                                         boundary message for t={} inside its window \
                                         (end t={})",
                                        o.at,
                                        end
                                    );
                                    assert!(
                                        o.to_shard != shard,
                                        "shard {shard} routed a boundary message to itself"
                                    );
                                }
                                let report = Report {
                                    outbox: std::mem::take(&mut outbox),
                                    next: sim.next_time(),
                                    events,
                                };
                                // invariant: `rep_rxs` outlives the thread scope.
                                rep_tx.send(report).expect("coordinator alive");
                            }
                            Cmd::Finish => {
                                // invariant: `out_rx` outlives the thread scope.
                                out_tx.send((shard, sim.finish())).expect("caller alive");
                                return;
                            }
                        }
                    }
                });
            }
            drop(out_tx);

            // Coordinator state: each shard's earliest local event (as
            // of its last report) and the undelivered boundary
            // messages per destination, tagged (at, src, seq) so the
            // delivery order is canonical.
            let mut next: Vec<Option<SimTime>> = vec![None; shards];
            let mut pending: Vec<Vec<PendingMsg<S::Boundary>>> =
                (0..shards).map(|_| Vec::new()).collect();
            let mut seq_per_src: Vec<u64> = vec![0; shards];

            // Bootstrap round: an empty zero-length window makes every
            // shard report its initial next-event time.
            for tx in &cmd_txs {
                let probe = Cmd::Window {
                    end: SimTime::ZERO,
                    inbox: Vec::new(),
                };
                // invariant: a worker hangs up only after `Finish` or by panicking.
                tx.send(probe).expect("worker alive");
            }
            for (i, rx) in rep_rxs.iter().enumerate() {
                // invariant: a worker hangs up only after `Finish` or by panicking.
                let r = rx.recv().expect("worker alive");
                assert!(r.outbox.is_empty(), "no sends before t=0");
                next[i] = r.next;
                stats.events += r.events;
            }

            loop {
                // Earliest actionable virtual time across local queues
                // and in-flight boundary messages.
                let t_min = next
                    .iter()
                    .flatten()
                    .copied()
                    .chain(pending.iter().flatten().map(|p| p.0))
                    .min();
                let Some(t_min) = t_min else { break };
                if horizon.is_some_and(|h| t_min >= h) {
                    stats.end_time = h_clamp(horizon, t_min);
                    break;
                }
                let mut end = t_min + lookahead;
                if let Some(h) = horizon {
                    end = end.min(h);
                }

                // Ship each shard its due messages in canonical order.
                for (i, tx) in cmd_txs.iter().enumerate() {
                    let mut inbox_raw = std::mem::take(&mut pending[i]);
                    inbox_raw.sort_by_key(|a| (a.0, a.1, a.2));
                    let inbox = inbox_raw
                        .into_iter()
                        .map(|(at, src, _, msg)| Inbound {
                            at,
                            from_shard: src,
                            msg,
                        })
                        .collect();
                    // invariant: a worker hangs up only after `Finish` or by panicking.
                    tx.send(Cmd::Window { end, inbox }).expect("worker alive");
                }
                for (i, rx) in rep_rxs.iter().enumerate() {
                    // invariant: a worker hangs up only after `Finish` or by panicking.
                    let r = rx.recv().expect("worker alive");
                    next[i] = r.next;
                    stats.events += r.events;
                    for o in r.outbox {
                        assert!(o.to_shard < shards, "boundary message to unknown shard");
                        stats.boundary_msgs += 1;
                        let seq = seq_per_src[i];
                        seq_per_src[i] += 1;
                        pending[o.to_shard].push((o.at, i, seq, o.msg));
                    }
                }
                stats.windows += 1;
                stats.end_time = end;
            }

            for tx in &cmd_txs {
                // invariant: a worker hangs up only after `Finish` or by panicking.
                tx.send(Cmd::Finish).expect("worker alive");
            }
        });

        let mut outputs: Vec<(usize, S::Output)> = out_rx.iter().collect();
        assert_eq!(outputs.len(), shards, "every shard reports an output");
        outputs.sort_by_key(|(i, _)| *i);
        (outputs.into_iter().map(|(_, o)| o).collect(), stats)
    }
}

fn h_clamp(horizon: Option<SimTime>, t: SimTime) -> SimTime {
    horizon.map_or(t, |h| h.min(t))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;

    /// A toy shard: `ranks` counters that ping their peers on other
    /// shards with a fixed latency, recording every execution.
    struct Toy {
        shard: usize,
        shards: usize,
        eng: Engine<ToyWorld>,
        world: ToyWorld,
    }

    #[derive(Default)]
    struct ToyWorld {
        log: Vec<(u64, usize, u64)>, // (time_us, from_shard, value)
        outbox: Vec<Outbound<u64>>,
    }

    const LAT: u64 = 50;

    impl Toy {
        fn new(shard: usize, shards: usize) -> Toy {
            let mut eng = Engine::new();
            // Each shard emits 5 values at t = 10, 20, 30, 40, 50 and
            // forwards each to the next shard (delivery +50 µs).
            for k in 1..=5u64 {
                let at = SimTime::from_micros(10 * k);
                eng.schedule(at, move |w: &mut ToyWorld, eng| {
                    let v = k * 100;
                    w.log.push((eng.now().as_micros(), usize::MAX, v));
                    w.outbox.push(Outbound {
                        at: eng.now() + SimDuration::from_micros(LAT),
                        to_shard: 0, // patched in run_window
                        msg: v,
                    });
                });
            }
            Toy {
                shard,
                shards,
                eng,
                world: ToyWorld::default(),
            }
        }
    }

    impl ShardSim for Toy {
        type Boundary = u64;
        type Output = Vec<(u64, usize, u64)>;

        fn next_time(&self) -> Option<SimTime> {
            self.eng.next_event_time()
        }

        fn deliver(&mut self, msg: Inbound<u64>) {
            let from = msg.from_shard;
            let v = msg.msg;
            self.eng.schedule(msg.at, move |w: &mut ToyWorld, eng| {
                w.log.push((eng.now().as_micros(), from, v));
            });
        }

        fn run_window(&mut self, end: SimTime, out: &mut Vec<Outbound<u64>>) -> u64 {
            let before = self.eng.executed();
            self.eng
                .run_until(&mut self.world, SimTime(end.as_micros().saturating_sub(1)));
            let to = (self.shard + 1) % self.shards;
            for mut o in self.world.outbox.drain(..) {
                if to == self.shard {
                    continue; // single shard: nothing crosses
                }
                o.to_shard = to;
                out.push(o);
            }
            self.eng.executed() - before
        }

        fn finish(self) -> Vec<(u64, usize, u64)> {
            self.world.log
        }
    }

    type ToyLog = Vec<(u64, usize, u64)>;

    fn run(shards: usize) -> (Vec<ToyLog>, ShardedRunStats) {
        let eng = ShardedEngine::new(SimDuration::from_micros(LAT));
        let builders: Vec<_> = (0..shards)
            .map(|_| move |shard| Toy::new(shard, shards))
            .collect();
        eng.run::<Toy, _>(builders)
    }

    #[test]
    fn single_shard_runs_to_quiescence() {
        let (outs, stats) = run(1);
        assert_eq!(outs.len(), 1);
        // 5 local emissions, no boundary traffic.
        assert_eq!(outs[0].len(), 5);
        assert_eq!(stats.boundary_msgs, 0);
        assert!(stats.windows >= 1);
    }

    #[test]
    fn boundary_messages_arrive_in_timestamp_order() {
        let (outs, stats) = run(3);
        assert_eq!(stats.boundary_msgs, 15, "5 sends from each of 3 shards");
        for log in &outs {
            // 5 local + 5 received.
            assert_eq!(log.len(), 10);
            let mut last = 0;
            for &(t, _, _) in log {
                assert!(t >= last, "per-shard log is time-ordered");
                last = t;
            }
            // Every received value arrives exactly LAT after its send.
            for &(t, from, v) in log.iter().filter(|(_, f, _)| *f != usize::MAX) {
                assert_eq!(t, (v / 100) * 10 + LAT);
                assert_ne!(from, usize::MAX);
            }
        }
    }

    #[test]
    fn fixed_shard_count_is_reproducible() {
        let a = run(4);
        let b = run(4);
        assert_eq!(a.0, b.0);
        assert_eq!(a.1, b.1);
    }

    #[test]
    fn horizon_cuts_the_run_short() {
        let eng = ShardedEngine::new(SimDuration::from_micros(LAT))
            .with_horizon(SimTime::from_micros(35));
        let builders: Vec<_> = (0..2).map(|_| move |shard| Toy::new(shard, 2)).collect();
        let (outs, _) = eng.run::<Toy, _>(builders);
        for log in &outs {
            assert!(log.iter().all(|&(t, _, _)| t < 35));
            // Only the t=10,20,30 local emissions fit; no deliveries
            // (earliest at t=60).
            assert_eq!(log.len(), 3);
        }
    }

    #[test]
    #[should_panic(expected = "positive lookahead")]
    fn zero_lookahead_is_rejected() {
        let _ = ShardedEngine::new(SimDuration::ZERO);
    }
}
