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
//!    `window_end` — shard 0 on the calling thread, which is also the
//!    coordinator's, and every other shard on a worker thread of its own,
//! 4. gather outbound boundary messages at the barrier and repeat.
//!
//! Shard state is **thread-confined, not `Send`**: each shard sim is
//! constructed on the thread that runs it, from a `Send` builder, so
//! `Rc`-based hot-path structures (routes, modules, payloads) never
//! cross threads. Only the boundary messages — plain `Send` envelope
//! values — travel between shards, and only at window barriers. A
//! one-shard run starts no thread and hands nothing over.
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
//! rather than silently reordering events. A panic on any shard ends
//! the run with that panic, raised on the calling thread.

use crate::time::{SimDuration, SimTime};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::ScopedJoinHandle;

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
/// shard's slice of world state; each is built on the thread that runs
/// it and never leaves it, so they need not be `Send`.
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

/// One window as a worker receives it: deliver `inbox`, then run every
/// local event before `end`.
struct Window<M> {
    end: SimTime,
    inbox: Vec<Inbound<M>>,
}

/// What a shard reports at the barrier that closes a window.
struct Report<M> {
    outbox: Vec<Outbound<M>>,
    next: Option<SimTime>,
    events: u64,
}

/// A shard on a worker thread of its own, as the coordinator holds it.
/// Dropping `windows` hangs the worker up: it finishes its sim and
/// returns the output through `thread`.
struct Worker<'scope, M, O> {
    windows: Sender<Window<M>>,
    reports: Receiver<Report<M>>,
    thread: ScopedJoinHandle<'scope, O>,
}

/// An undelivered boundary message held by the coordinator:
/// `(delivery time, source shard, per-source sequence, payload)`.
type PendingMsg<M> = (SimTime, usize, u64, M);

/// What the coordinator knows between windows: each shard's earliest
/// local event (as of its last report) and the undelivered boundary
/// messages per destination, tagged `(at, src, seq)` so the delivery
/// order is canonical.
struct Ledger<M> {
    next: Vec<Option<SimTime>>,
    pending: Vec<Vec<PendingMsg<M>>>,
    seq_per_src: Vec<u64>,
}

impl<M> Ledger<M> {
    fn new(shards: usize) -> Ledger<M> {
        Ledger {
            next: vec![None; shards],
            pending: (0..shards).map(|_| Vec::new()).collect(),
            seq_per_src: vec![0; shards],
        }
    }

    /// Everything bound for `shard`, in canonical order.
    fn inbox(&mut self, shard: usize) -> Vec<Inbound<M>> {
        let mut due = std::mem::take(&mut self.pending[shard]);
        due.sort_by_key(|p| (p.0, p.1, p.2));
        due.into_iter()
            .map(|(at, from_shard, _, msg)| Inbound {
                at,
                from_shard,
                msg,
            })
            .collect()
    }

    /// Take in `shard`'s report. Reports are folded in shard order, so
    /// the per-source sequence numbers do not depend on which shard
    /// finished first.
    fn fold(&mut self, shard: usize, report: Report<M>, stats: &mut ShardedRunStats) {
        self.next[shard] = report.next;
        stats.events += report.events;
        for o in report.outbox {
            assert!(
                o.to_shard < self.pending.len(),
                "boundary message to unknown shard"
            );
            stats.boundary_msgs += 1;
            let seq = self.seq_per_src[shard];
            self.seq_per_src[shard] += 1;
            self.pending[o.to_shard].push((o.at, shard, seq, o.msg));
        }
    }

    /// Earliest actionable virtual time across local queues and
    /// in-flight boundary messages.
    fn t_min(&self) -> Option<SimTime> {
        self.next
            .iter()
            .flatten()
            .copied()
            .chain(self.pending.iter().flatten().map(|p| p.0))
            .min()
    }
}

/// Execute one window on shard `shard` — shard 0 on the coordinator's
/// thread, every other shard on its worker: deliver `inbox`, run every
/// local event before `end`, check what the shard sent against the
/// lookahead contract, and report.
fn execute_window<S: ShardSim>(
    shard: usize,
    sim: &mut S,
    end: SimTime,
    inbox: Vec<Inbound<S::Boundary>>,
) -> Report<S::Boundary> {
    for m in inbox {
        sim.deliver(m);
    }
    let mut outbox = Vec::new();
    // The bootstrap probe (end = 0) only collects next-event times; a
    // window executes events strictly before its end, so a zero-length
    // one runs none.
    let events = if end == SimTime::ZERO {
        0
    } else {
        sim.run_window(end, &mut outbox)
    };
    for o in &outbox {
        assert!(
            o.at >= end,
            "lookahead violation: shard {shard} produced a boundary message for \
             t={} inside its window (end t={})",
            o.at,
            end
        );
        assert!(
            o.to_shard != shard,
            "shard {shard} routed a boundary message to itself"
        );
    }
    Report {
        outbox,
        next: sim.next_time(),
        events,
    }
}

/// A worker thread's life: build shard `shard` here, so its `!Send`
/// internals never leave this thread; execute each window it is sent;
/// finish once the coordinator hangs up — at the end of the run, or
/// because the coordinator is unwinding.
fn work<S, F>(
    shard: usize,
    build: F,
    windows: Receiver<Window<S::Boundary>>,
    reports: Sender<Report<S::Boundary>>,
) -> S::Output
where
    S: ShardSim,
    F: FnOnce(usize) -> S,
{
    let mut sim = build(shard);
    for Window { end, inbox } in windows {
        // A send fails only once the coordinator has hung up, which
        // also ends this loop.
        let _ = reports.send(execute_window(shard, &mut sim, end, inbox));
    }
    sim.finish()
}

/// A worker's output, or its panic re-raised on this thread.
fn join<O>(thread: ScopedJoinHandle<'_, O>) -> O {
    thread
        .join()
        .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
}

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
    /// the thread that runs it — shard 0 on the calling thread, every
    /// other shard on a worker thread of its own. The coordinator
    /// synchronizes windows until every shard is quiescent (or the
    /// horizon is reached), then returns the per-shard outputs in shard
    /// order plus run stats. A panic in any shard ends the run with
    /// that shard's own panic, raised on the calling thread.
    pub fn run<S, F>(&self, builders: Vec<F>) -> (Vec<S::Output>, ShardedRunStats)
    where
        S: ShardSim,
        F: FnOnce(usize) -> S + Send,
    {
        let shards = builders.len();
        let mut builders = builders.into_iter();
        let Some(build0) = builders.next() else {
            panic!("at least one shard");
        };
        let mut stats = ShardedRunStats::default();

        let outputs = std::thread::scope(|scope| {
            // The channels are made and owned in here: a coordinator
            // that unwinds drops them, which hangs every worker up, so
            // the scope's join never waits on a worker blocked for its
            // next window.
            let mut workers: Vec<Worker<'_, S::Boundary, S::Output>> = builders
                .enumerate()
                .map(|(i, build)| {
                    let (windows, window_rx) = channel();
                    let (report_tx, reports) = channel();
                    let thread = scope.spawn(move || work(i + 1, build, window_rx, report_tx));
                    Worker {
                        windows,
                        reports,
                        thread,
                    }
                })
                .collect();
            let mut sim = build0(0);
            let mut ledger = Ledger::new(shards);

            // The first round is the bootstrap probe: a zero-length
            // window makes every shard report its first event time.
            let mut end = SimTime::ZERO;
            loop {
                for (i, w) in workers.iter().enumerate() {
                    // A worker that died is re-raised when its report
                    // is due, below.
                    let _ = w.windows.send(Window {
                        end,
                        inbox: ledger.inbox(i + 1),
                    });
                }
                let own = execute_window(0, &mut sim, end, ledger.inbox(0));
                ledger.fold(0, own, &mut stats);
                for i in 1..shards {
                    let Ok(report) = workers[i - 1].reports.recv() else {
                        // A worker stops reporting only by panicking.
                        join(workers.swap_remove(i - 1).thread);
                        unreachable!("shard {i} hung up without panicking");
                    };
                    ledger.fold(i, report, &mut stats);
                }
                if end > SimTime::ZERO {
                    stats.windows += 1;
                    stats.end_time = end;
                }

                let Some(t_min) = ledger.t_min() else { break };
                if let Some(h) = self.horizon.filter(|&h| t_min >= h) {
                    stats.end_time = h;
                    break;
                }
                end = t_min + self.lookahead;
                if let Some(h) = self.horizon {
                    end = end.min(h);
                }
            }

            // Hanging up tells every worker to finish its shard; they
            // do so while shard 0 finishes here.
            let threads: Vec<_> = workers.into_iter().map(|w| w.thread).collect();
            let mut outputs = Vec::with_capacity(shards);
            outputs.push(sim.finish());
            outputs.extend(threads.into_iter().map(join));
            outputs
        });
        (outputs, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use std::thread::ThreadId;

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

    /// A `Toy` that records the thread it is built on, each thread that
    /// runs one of its windows, and the thread that finishes it.
    struct Placed {
        toy: Toy,
        threads: Vec<ThreadId>,
    }

    impl ShardSim for Placed {
        type Boundary = u64;
        type Output = Vec<ThreadId>;

        fn next_time(&self) -> Option<SimTime> {
            self.toy.next_time()
        }

        fn deliver(&mut self, msg: Inbound<u64>) {
            self.toy.deliver(msg);
        }

        fn run_window(&mut self, end: SimTime, out: &mut Vec<Outbound<u64>>) -> u64 {
            self.threads.push(std::thread::current().id());
            self.toy.run_window(end, out)
        }

        fn finish(mut self) -> Vec<ThreadId> {
            self.threads.push(std::thread::current().id());
            self.threads
        }
    }

    /// Per shard, the one thread its sim saw: the builder's, every
    /// window's and the finish's.
    fn placement(shards: usize) -> Vec<ThreadId> {
        let eng = ShardedEngine::new(SimDuration::from_micros(LAT));
        let builders: Vec<_> = (0..shards)
            .map(|_| {
                move |shard| Placed {
                    toy: Toy::new(shard, shards),
                    threads: vec![std::thread::current().id()],
                }
            })
            .collect();
        let (outs, _) = eng.run::<Placed, _>(builders);
        for threads in &outs {
            assert!(threads.len() >= 3, "built, ran a window, finished");
            assert!(threads.iter().all(|t| *t == threads[0]), "{threads:?}");
        }
        outs.iter().map(|t| t[0]).collect()
    }

    #[test]
    fn one_shard_runs_on_the_calling_thread() {
        let me = std::thread::current().id();
        assert_eq!(placement(1), vec![me]);
    }

    #[test]
    fn shard_zero_runs_on_the_caller_and_the_rest_on_threads_of_their_own() {
        let me = std::thread::current().id();
        let placed = placement(3);
        assert_eq!(placed[0], me);
        assert!(placed[1] != me && placed[2] != me && placed[1] != placed[2]);
    }

    /// A shard that sends one boundary message in its first window, to
    /// the next of three shards and at the window's end. Only shard
    /// `rogue` breaks the contract: into its own window, or to itself.
    struct Rogue {
        shard: usize,
        rogue: usize,
        to_self: bool,
        sent: bool,
    }

    impl ShardSim for Rogue {
        type Boundary = u64;
        type Output = ();

        fn next_time(&self) -> Option<SimTime> {
            (!self.sent).then_some(SimTime::from_micros(10))
        }

        fn deliver(&mut self, _: Inbound<u64>) {}

        fn run_window(&mut self, end: SimTime, out: &mut Vec<Outbound<u64>>) -> u64 {
            if std::mem::replace(&mut self.sent, true) {
                return 0;
            }
            let (mut at, mut to_shard) = (end, (self.shard + 1) % 3);
            if self.shard == self.rogue {
                if self.to_self {
                    to_shard = self.shard;
                } else {
                    at = SimTime(end.as_micros() - 1);
                }
            }
            out.push(Outbound {
                at,
                to_shard,
                msg: 0,
            });
            1
        }

        fn finish(self) {}
    }

    fn run_rogue(rogue: usize, to_self: bool) {
        let eng = ShardedEngine::new(SimDuration::from_micros(LAT));
        let builders: Vec<_> = (0..3)
            .map(|_| {
                move |shard| Rogue {
                    shard,
                    rogue,
                    to_self,
                    sent: false,
                }
            })
            .collect();
        eng.run::<Rogue, _>(builders);
    }

    // Each of these must end with the shard's own panic rather than
    // hang: a worker's is re-raised on the calling thread, and a
    // coordinator that unwinds hangs its workers up.

    #[test]
    #[should_panic(expected = "lookahead violation: shard 1")]
    fn a_worker_shard_that_breaks_the_lookahead_ends_the_run() {
        run_rogue(1, false);
    }

    #[test]
    #[should_panic(expected = "lookahead violation: shard 0")]
    fn shard_zero_breaking_the_lookahead_ends_the_run() {
        run_rogue(0, false);
    }

    #[test]
    #[should_panic(expected = "shard 2 routed a boundary message to itself")]
    fn a_shard_that_routes_to_itself_ends_the_run() {
        run_rogue(2, true);
    }
}
