//! Guard the engine's steady state, don't just benchmark it: once the
//! slab, the heap and the lanes have their working size, a simulated
//! second of timer traffic — periodic re-arms, constant-offset
//! one-shots, cancelled deadlines — touches the allocator zero times. A
//! re-arm reuses its slot, a lane is a ring that has already grown, a
//! zero-sized closure boxes to no block, and a typed event — here the
//! second hop, which carries 96 bytes as a delivery does — is a value in
//! a slab that has already grown.
//!
//! A counting `#[global_allocator]` wraps the system allocator; counters
//! are thread-local so the measurement is immune to other test threads
//! allocating concurrently (the `crates/hw-models/tests/alloc_free.rs`
//! harness).

use fluxpm_sim::{Engine, Event, EventId, SimDuration, SimTime};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::VecDeque;
use std::ops::ControlFlow;

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations performed by `f` on this thread.
fn allocs_during<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCS.with(|c| c.get());
    let r = f();
    let after = ALLOCS.with(|c| c.get());
    (after - before, r)
}

const TASKS: u64 = 4_096;
const HOP: SimDuration = SimDuration::from_micros(20);
const SEC: SimDuration = SimDuration::from_secs(1);

/// What the events mutate. Deadline ids travel through the world, not
/// through closure captures, so that every event body is zero-sized and
/// the only blocks in play are the queue's own.
#[derive(Default)]
struct World {
    firings: u64,
    hops: u64,
    cancelled: u64,
    expired: u64,
    deadlines: VecDeque<EventId>,
}

/// The second hop of a firing's message, as wide as a message in flight.
struct SecondHop([u64; 12]);

impl Event<World> for SecondHop {
    fn fire(self, w: &mut World, e: &mut Engine<World, SecondHop>) {
        w.hops += self.0[11];
        let deadline = w.deadlines.pop_front().expect("armed by the firing");
        if w.hops % 5 < 3 {
            w.cancelled += u64::from(e.cancel(deadline));
        }
    }
}

#[test]
fn a_simulated_minute_of_timers_allocates_nothing_in_the_queue() {
    let mut eng: Engine<World, SecondHop> = Engine::new();
    for i in 0..TASKS {
        // Two periods at one phase. A firing arms a deadline at
        // now + 1 s and sends a message over two constant-latency hops;
        // the second hop answers three deadlines in five (mid-lane
        // tombstones, head cancels, compaction), the rest expire.
        let interval = if i % 3 == 2 { SEC + SEC } else { SEC };
        eng.schedule_every(SimTime::from_secs(1), interval, |w: &mut World, e| {
            w.firings += 1;
            let deadline = e.schedule_in(SEC, |w: &mut World, _| w.expired += 1);
            w.deadlines.push_back(deadline);
            e.schedule_in(HOP, |w: &mut World, e| {
                w.hops += 1;
                e.schedule_event(e.now() + HOP, 0, SecondHop([1; 12]));
            });
            ControlFlow::Continue(())
        });
    }
    // One-offs on offsets of their own, out of order with everything
    // else: the heap side has its working size too.
    for i in 0..64 {
        eng.schedule(SimTime::from_micros(2_500_000 - 7 * i), |w, _| w.hops += 1);
    }
    let mut world = World::default();
    // Warm-up: both periods have fired, re-armed and seen deadlines
    // cancelled and expire.
    eng.run_until(&mut world, SimTime::from_secs(4) + HOP + HOP);
    let warm = world.firings;

    let (allocs, ()) = allocs_during(|| {
        eng.run_until(&mut world, SimTime::from_secs(64) + HOP + HOP);
    });
    assert_eq!(allocs, 0, "steady-state timer traffic must not allocate");
    // 60 s: two thirds of the tasks fire 60 times, one third 30.
    assert_eq!(
        world.firings - warm,
        60 * (TASKS - TASKS / 3) + 30 * (TASKS / 3)
    );
    assert!(world.cancelled > world.expired && world.expired > 50_000);
    assert!(world.deadlines.is_empty());
}
