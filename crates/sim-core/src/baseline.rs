//! The original event engine, kept as a reference implementation.
//!
//! This is the pre-optimization queue: a `BinaryHeap` of `(time, seq)`
//! keys with event bodies in a `HashMap` and lazy deletion at pop time.
//! It stays in the tree for two reasons:
//!
//! * the determinism regression suite runs the same seeded workload
//!   through both engines and asserts identical execution traces, so
//!   any ordering change in the optimized engine is caught against
//!   this one rather than against a frozen text file only;
//! * the benchmark suite measures the optimized engine's speedup
//!   against it live, on the same seeds, instead of trusting a number
//!   recorded once.
//!
//! Semantics are identical to [`crate::Engine`] by construction; see
//! the cross-check tests in `tests/engine_equivalence.rs`.

use crate::time::{SimDuration, SimTime};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::ops::ControlFlow;

/// Opaque handle to a scheduled event; used for cancellation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BaselineEventId(u64);

type OnceFn<W> = Box<dyn FnOnce(&mut W, &mut BaselineEngine<W>)>;
type PeriodicFn<W> = Box<dyn FnMut(&mut W, &mut BaselineEngine<W>) -> ControlFlow<()>>;

enum EventBody<W> {
    Once(OnceFn<W>),
    Every {
        interval: SimDuration,
        f: PeriodicFn<W>,
    },
}

/// The reference discrete-event engine (binary heap + body map with
/// lazy deletion). See the module docs for why it is kept.
pub struct BaselineEngine<W> {
    now: SimTime,
    seq: u64,
    queue: BinaryHeap<Reverse<(SimTime, u64)>>,
    bodies: HashMap<u64, EventBody<W>>,
    executed: u64,
    horizon: Option<SimTime>,
}

impl<W> Default for BaselineEngine<W> {
    fn default() -> Self {
        Self::new()
    }
}

impl<W> BaselineEngine<W> {
    /// Create an empty engine with the clock at zero.
    pub fn new() -> Self {
        BaselineEngine {
            now: SimTime::ZERO,
            seq: 0,
            queue: BinaryHeap::new(),
            bodies: HashMap::new(),
            executed: 0,
            horizon: None,
        }
    }

    /// The current simulated instant.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events executed so far.
    pub fn executed(&self) -> u64 {
        self.executed
    }

    /// Number of events still pending.
    pub fn pending(&self) -> usize {
        self.bodies.len()
    }

    /// Set a hard horizon: `run` stops once the next event would fire
    /// strictly after this instant.
    pub fn set_horizon(&mut self, t: SimTime) {
        self.horizon = Some(t);
    }

    /// Schedule `f` to run at the absolute instant `at`. Scheduling in
    /// the past is clamped to "now".
    pub fn schedule(
        &mut self,
        at: SimTime,
        f: impl FnOnce(&mut W, &mut BaselineEngine<W>) + 'static,
    ) -> BaselineEventId {
        let at = at.max(self.now);
        let id = self.seq;
        self.seq += 1;
        self.queue.push(Reverse((at, id)));
        self.bodies.insert(id, EventBody::Once(Box::new(f)));
        BaselineEventId(id)
    }

    /// Schedule `f` to run after the given delay.
    pub fn schedule_in(
        &mut self,
        delay: SimDuration,
        f: impl FnOnce(&mut W, &mut BaselineEngine<W>) + 'static,
    ) -> BaselineEventId {
        self.schedule(self.now + delay, f)
    }

    /// Schedule a periodic task: first firing at `start`, then every
    /// `interval` until the closure returns `ControlFlow::Break` or the
    /// task is cancelled.
    pub fn schedule_every(
        &mut self,
        start: SimTime,
        interval: SimDuration,
        f: impl FnMut(&mut W, &mut BaselineEngine<W>) -> ControlFlow<()> + 'static,
    ) -> BaselineEventId {
        assert!(!interval.is_zero(), "periodic interval must be > 0");
        let at = start.max(self.now);
        let id = self.seq;
        self.seq += 1;
        self.queue.push(Reverse((at, id)));
        self.bodies.insert(
            id,
            EventBody::Every {
                interval,
                f: Box::new(f),
            },
        );
        BaselineEventId(id)
    }

    /// Cancel a pending event. Returns true if the event existed and
    /// had not fired.
    pub fn cancel(&mut self, id: BaselineEventId) -> bool {
        self.bodies.remove(&id.0).is_some()
    }

    /// Execute the single next event, if any.
    pub fn step(&mut self, world: &mut W) -> Option<SimTime> {
        loop {
            let Reverse((at, id)) = self.queue.pop()?;
            let Some(body) = self.bodies.remove(&id) else {
                continue; // lazily-deleted (cancelled) entry
            };
            if let Some(h) = self.horizon {
                if at > h {
                    self.queue.clear();
                    self.bodies.clear();
                    return None;
                }
            }
            debug_assert!(at >= self.now, "time must be monotone");
            self.now = at;
            self.executed += 1;
            match body {
                EventBody::Once(f) => f(world, self),
                EventBody::Every { interval, mut f } => {
                    if f(world, self).is_continue() {
                        // Re-arm under the same id: the original
                        // sequence number stays the tie-breaker.
                        self.queue.push(Reverse((at + interval, id)));
                        self.bodies.insert(id, EventBody::Every { interval, f });
                    }
                }
            }
            return Some(at);
        }
    }

    /// Run until the queue drains (or the horizon is reached).
    pub fn run(&mut self, world: &mut W) -> SimTime {
        while self.step(world).is_some() {}
        self.now
    }

    /// Run until the given instant (inclusive); later events stay
    /// queued and the clock advances to `until`.
    ///
    /// Guarded by `next_event_time`, not a raw heap peek: a
    /// lazily-deleted entry before the cutoff must not trick `step`
    /// into executing a live event *past* it. (The shipped map-based
    /// engine had exactly that bug; no production code path ever called
    /// `run_until` with pending cancels, and the cross-check suite
    /// requires the corrected semantics on both sides.)
    pub fn run_until(&mut self, world: &mut W, until: SimTime) -> SimTime {
        while self.next_event_time().is_some_and(|t| t <= until) {
            self.step(world);
        }
        self.now = self.now.max(until);
        self.now
    }

    /// Instant of the next pending event, if any. O(n): scans past
    /// lazily-deleted entries — this is one of the costs the optimized
    /// engine removes (its queues keep a live head, so it looks at the
    /// heap root and the lane heads only).
    pub fn next_event_time(&self) -> Option<SimTime> {
        self.queue
            .iter()
            .map(|Reverse((t, id))| (*t, *id))
            .filter(|(_, id)| self.bodies.contains_key(id))
            .map(|(t, _)| t)
            .min()
    }
}
