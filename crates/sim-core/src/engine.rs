//! The event engine.
//!
//! Total order is `(SimTime, key, sequence)`: two events scheduled for
//! the same instant fire in ordering-key order, then in the order they
//! were scheduled, which keeps broker message handling deterministic.
//! Every plain `schedule`/`schedule_every` call uses key 0, so for
//! ordinary workloads the order is exactly the classic
//! `(time, schedule order)`. [`Engine::schedule_keyed`] exists for
//! partitioned simulations that need a *partition-invariant* order
//! among same-instant events: a sharded run can tag message deliveries
//! with a canonical key (e.g. origin rank and per-origin sequence) so
//! the execution order at any instant is the same no matter which
//! shard scheduled the event, while key-0 events (timers, periodic
//! tasks) always run first. A periodic task keeps its *original*
//! sequence number across re-arms, so its position among same-instant
//! events never drifts — these properties are what make seeded runs
//! replay byte-for-byte.
//!
//! ## Two kinds of event body
//!
//! *An event scheduled by the million is a value in a slab; a closure is
//! the fallback for everything rare.* A closure is boxed: one `malloc`
//! when it is scheduled, one `free` when it has run, and a second cache
//! stream beside the slab. An engine user whose hot events are few in
//! kind names them in an enum, implements [`Event`] for it and schedules
//! them with [`Engine::schedule_event`]: the value is stored in the slab
//! slot itself and moved out to [`Event::fire`]. `Engine<W>` is
//! `Engine<W, NoEvent>` — closures only — so a user with nothing hot
//! never sees the parameter. Both kinds share the clock, the sequence
//! counter and the queue, and pop in the one total order above.
//!
//! ## Hot-path layout
//!
//! Event bodies live in generation-tagged slabs (a `Vec` of slots
//! threaded with an intrusive free list): scheduling reuses freed slots
//! instead of rehashing into a map, and an [`EventId`] packs the slot
//! index with the slot's generation so a stale handle can never cancel
//! the slot's next tenant. There are two slabs, one per kind of body —
//! closure slots stay 40 bytes however wide the typed event is, and a
//! typed event is one touched line stream, not a narrow slot plus a side
//! table — told apart by the top bit of the slot index (DESIGN.md §17.1
//! has the layouts that were measured and lost).
//!
//! The queue is an indexed 4-ary min-heap over `(time, key, seq)` with
//! a back-pointer from each slot to its heap position, behind a small
//! fixed set of FIFO **lanes**. A 4-ary layout trades slightly more
//! comparisons per level for half the depth and better cache behavior
//! than a binary heap; cancelling a heap entry removes it eagerly in
//! O(log n).
//!
//! Lanes exist because most of what a simulated machine schedules is
//! already sorted when it is produced: `now` never decreases and fresh
//! sequence numbers only grow, so events scheduled at `now + d` for one
//! fixed `d` — a periodic re-arm, a hop latency, an RPC deadline —
//! arrive in `(time, key, seq)` order and need no sifting. A key-0 entry
//! is appended to the first lane that is keyed by its offset `at − now`
//! *and* whose tail it does not sort before. An entry no lane admits goes
//! to the heap, like every entry with a nonzero key; but an offset that
//! misses twice in short order is one that repeats, and takes over a
//! lane that holds at most one entry (which moves to the heap, so a lone
//! far-off timer cannot sit on a lane). The choice is made from what the
//! engine observes, per entry; nothing configures it. Each lane is
//! sorted, the next event is the least of the heap root and the lane
//! heads, and pop order is the total order above whichever queue an
//! entry sat in.
//!
//! Two invariants keep the lanes as exact as the heap. *A lane's head is
//! always live*: cancelling a laned entry frees its slot at once and
//! leaves the entry behind as a tombstone (its recorded generation no
//! longer matches the slot's), and tombstones are trimmed from the head
//! on every cancel and pop — so [`Engine::next_event_time`] reads the
//! heap root and one head per lane and [`Engine::pending`] counts
//! exactly the live events. *Tombstones are bounded*: a lane more than half dead is
//! compacted in place, so scheduling and cancelling far-off deadlines in
//! a loop holds no more memory than eager removal did. Steady-state
//! operation allocates nothing beyond the boxed closures themselves; a
//! typed event allocates nothing at all.
//!
//! `tests/engine_equivalence.rs` checks every one of these choices
//! against the total order written down: a `Vec` kept sorted by
//! `(time, key, sequence)` that runs the same random programs.

use crate::time::{SimDuration, SimTime};
use std::collections::VecDeque;
use std::ops::ControlFlow;

/// Opaque handle to a scheduled event; used for cancellation.
///
/// Packs the slab slot index (low 32 bits; the top one says which slab)
/// with the slot's generation (high 32 bits): a handle kept across the
/// event's execution or cancellation — or across a horizon clear — goes
/// stale rather than aliasing whatever event reuses the slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventId(u64);

impl EventId {
    fn pack(generation: u32, index: u32) -> Self {
        EventId((u64::from(generation) << 32) | u64::from(index))
    }

    fn unpack(self) -> (u32, u32) {
        ((self.0 >> 32) as u32, self.0 as u32)
    }
}

/// An event stored by value: what an engine user schedules too often to
/// box. The engine moves the value out of its slab slot — which is free
/// again before `fire` runs, so a cancel of its own id from inside
/// misses, as it does for a one-shot closure — and hands it the world
/// and the engine.
pub trait Event<W>: Sized {
    /// Run the event at `eng.now()`.
    fn fire(self, world: &mut W, eng: &mut Engine<W, Self>);
}

/// The typed event of an engine that schedules closures only.
pub enum NoEvent {}

impl<W> Event<W> for NoEvent {
    fn fire(self, _: &mut W, _: &mut Engine<W, Self>) {
        match self {}
    }
}

/// A one-shot event body.
type OnceFn<W, E> = Box<dyn FnOnce(&mut W, &mut Engine<W, E>)>;

/// A repeating event body. Return `ControlFlow::Break(())` to stop the
/// periodic task.
pub type Periodic<W, E = NoEvent> = Box<dyn FnMut(&mut W, &mut Engine<W, E>) -> ControlFlow<()>>;

/// Heap arity. Children of `i` are `4i + 1 ..= 4i + 4`.
const D: usize = 4;
/// Free-list / back-pointer sentinel.
const NONE: u32 = u32::MAX;
/// FIFO lanes in front of the heap (DESIGN.md §17: why eight).
const LANES: usize = 8;
/// A [`Slot::pos`] of `LANE_BASE + l` says "queued in lane `l`".
const LANE_BASE: u32 = NONE - LANES as u32;
/// Set in a slot index that points into the typed-event slab.
const TYPED: u32 = 1 << 31;

/// A boxed event body.
enum Closure<W, E> {
    Once(OnceFn<W, E>),
    Every {
        interval: SimDuration,
        f: Periodic<W, E>,
    },
}

enum SlotState<T> {
    /// On the free list; `next` is the next free slot (or [`NONE`]).
    Free { next: u32 },
    /// Queued.
    Full(T),
    /// Body taken out while its callback runs (periodic tasks only);
    /// the slot stays reserved so events scheduled *by* the callback
    /// cannot reuse it before the re-arm.
    Running,
}

struct Slot<T> {
    /// Bumped every time the slot is freed; part of the [`EventId`].
    generation: u32,
    /// Index into `heap` while queued there, [`LANE_BASE`]` + l` while
    /// queued in lane `l`, [`NONE`] otherwise.
    pos: u32,
    state: SlotState<T>,
}

/// Generation-tagged slots threaded with an intrusive free list.
///
/// A freed slot is the next one reused — it is the warmest — until the
/// slab *drains*: when the last body leaves, the free list is forgotten
/// and the slab fills again from index 0. A burst of events scheduled
/// into a drained slab therefore lies in memory in schedule order, which
/// is nearly the order it fires in, and the pops walk the slab forwards
/// instead of chasing a free list that earlier bursts shuffled.
struct Slab<T> {
    slots: Vec<Slot<T>>,
    free_head: u32,
    /// Slots from here up are free and not on the free list.
    fresh: u32,
    /// Slots holding a body or running.
    live: u32,
}

impl<T> Slab<T> {
    fn new() -> Self {
        Slab {
            slots: Vec::new(),
            free_head: NONE,
            fresh: 0,
            live: 0,
        }
    }

    /// Fill a slot: the head of the free list, else the lowest slot not
    /// used since the slab drained, else a new one.
    fn alloc(&mut self, body: T) -> u32 {
        self.live += 1;
        if self.free_head != NONE {
            let idx = self.free_head;
            let slot = &mut self.slots[idx as usize];
            let SlotState::Free { next } = slot.state else {
                unreachable!("free list points at a live slot");
            };
            self.free_head = next;
            slot.state = SlotState::Full(body);
            return idx;
        }
        let idx = self.fresh;
        if let Some(slot) = self.slots.get_mut(idx as usize) {
            slot.state = SlotState::Full(body);
        } else {
            assert!(idx & TYPED == 0, "slab capacity");
            self.slots.push(Slot {
                generation: 0,
                pos: NONE,
                state: SlotState::Full(body),
            });
        }
        self.fresh = idx + 1;
        idx
    }

    /// Free a slot, invalidating its [`EventId`]s, and hand back the
    /// body it held (none while it was running).
    fn free(&mut self, idx: u32) -> Option<T> {
        let slot = &mut self.slots[idx as usize];
        slot.generation = slot.generation.wrapping_add(1);
        slot.pos = NONE;
        self.live -= 1;
        let next = if self.live == 0 {
            // Drained: every slot is free, so none needs the list.
            self.fresh = 0;
            self.free_head = NONE;
            NONE
        } else {
            std::mem::replace(&mut self.free_head, idx)
        };
        match std::mem::replace(&mut slot.state, SlotState::Free { next }) {
            SlotState::Full(body) => Some(body),
            SlotState::Running => None,
            SlotState::Free { .. } => unreachable!("slot freed twice"),
        }
    }

    /// Free every slot still in use: ids from before go stale, and the
    /// slots are reused rather than the slab regrown.
    fn free_all(&mut self) {
        for idx in 0..self.slots.len() as u32 {
            if !matches!(self.slots[idx as usize].state, SlotState::Free { .. }) {
                self.free(idx);
            }
        }
    }
}

/// The two slabs behind one tagged slot index: closure bodies, and typed
/// events under [`TYPED`].
struct Slabs<W, E> {
    closures: Slab<Closure<W, E>>,
    events: Slab<E>,
}

impl<W, E> Slabs<W, E> {
    /// `(generation, pos)` of a slot, if the index names one.
    fn meta(&self, slot: u32) -> Option<(u32, u32)> {
        if slot & TYPED == 0 {
            let s = self.closures.slots.get(slot as usize)?;
            Some((s.generation, s.pos))
        } else {
            let s = self.events.slots.get((slot ^ TYPED) as usize)?;
            Some((s.generation, s.pos))
        }
    }

    /// Generation of a slot the queue holds an entry for.
    #[inline]
    fn generation(&self, slot: u32) -> u32 {
        if slot & TYPED == 0 {
            self.closures.slots[slot as usize].generation
        } else {
            self.events.slots[(slot ^ TYPED) as usize].generation
        }
    }

    #[inline]
    fn set_pos(&mut self, slot: u32, pos: u32) {
        if slot & TYPED == 0 {
            self.closures.slots[slot as usize].pos = pos;
        } else {
            self.events.slots[(slot ^ TYPED) as usize].pos = pos;
        }
    }

    /// Free a slot and drop the body it held.
    fn discard(&mut self, slot: u32) {
        if slot & TYPED == 0 {
            self.closures.free(slot);
        } else {
            self.events.free(slot ^ TYPED);
        }
    }
}

#[derive(Clone, Copy)]
struct HeapEntry {
    at: SimTime,
    key: u64,
    seq: u64,
    /// Index into the closure slab, or [`TYPED`]` | index` into the
    /// typed-event slab.
    slot: u32,
    /// The slot's generation when queued. A lane entry is live while
    /// the slot still has it; the heap never reads it.
    generation: u32,
}

impl HeapEntry {
    #[inline]
    fn key(&self) -> (SimTime, u64, u64) {
        (self.at, self.key, self.seq)
    }
}

/// A queue of key-0 entries that all had the same `at − now` when they
/// were queued, in `(at, key, seq)` order.
struct Lane {
    offset: SimDuration,
    q: VecDeque<HeapEntry>,
    /// Cancelled entries still in `q`; never its head.
    dead: usize,
}

/// The discrete-event engine. Generic over the world type `W` that
/// events mutate and the typed event `E` it stores by value
/// ([`NoEvent`]: none, closures only).
pub struct Engine<W, E = NoEvent> {
    now: SimTime,
    seq: u64,
    heap: Vec<HeapEntry>,
    lanes: [Lane; LANES],
    /// Live entries across all lanes.
    laned: usize,
    /// The last two offsets no lane admitted (two: at a busy instant
    /// misses of two periods alternate, and a memory of one starves both).
    missed: [SimDuration; 2],
    slabs: Slabs<W, E>,
    /// Total events executed (for diagnostics / ablation benches).
    executed: u64,
    /// Hard stop; events scheduled after this instant are dropped at pop.
    horizon: Option<SimTime>,
    /// Bumped when the horizon clears the queue mid-step, so a periodic
    /// task unwinding through a nested `run` leaves its slot, freed
    /// under it, alone.
    clear_epoch: u64,
}

impl<W, E: Event<W>> Default for Engine<W, E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<W, E: Event<W>> Engine<W, E> {
    /// Create an empty engine with the clock at zero.
    pub fn new() -> Self {
        Engine {
            now: SimTime::ZERO,
            seq: 0,
            heap: Vec::new(),
            lanes: std::array::from_fn(|_| Lane {
                offset: SimDuration::ZERO,
                q: VecDeque::new(),
                dead: 0,
            }),
            laned: 0,
            missed: [SimDuration::ZERO; 2],
            slabs: Slabs {
                closures: Slab::new(),
                events: Slab::new(),
            },
            executed: 0,
            horizon: None,
            clear_epoch: 0,
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

    /// Number of live pending events. Cancelled events leave the queue
    /// immediately and are never counted.
    pub fn pending(&self) -> usize {
        self.heap.len() + self.laned
    }

    /// Set a hard horizon: `run` stops once the next event would fire
    /// strictly after this instant.
    pub fn set_horizon(&mut self, t: SimTime) {
        self.horizon = Some(t);
    }

    /// Instant of the next pending event, if any: the earliest of the
    /// heap root and the lane heads, all of which are live.
    pub fn next_event_time(&self) -> Option<SimTime> {
        self.peek().map(|(_, e)| e.at)
    }

    /// Schedule `f` to run at the absolute instant `at`. Scheduling in the
    /// past is clamped to "now" (fires before any later event).
    pub fn schedule(
        &mut self,
        at: SimTime,
        f: impl FnOnce(&mut W, &mut Engine<W, E>) + 'static,
    ) -> EventId {
        self.schedule_keyed(at, 0, f)
    }

    /// Schedule `f` at `at` with an explicit same-instant ordering key.
    /// Among events at one instant, lower keys fire first; equal keys
    /// fall back to schedule order. Plain [`Engine::schedule`] uses
    /// key 0, so keyed events with nonzero keys run *after* every
    /// same-instant plain event. Sharded runs use this to impose a
    /// partition-invariant delivery order (see the module docs).
    pub fn schedule_keyed(
        &mut self,
        at: SimTime,
        key: u64,
        f: impl FnOnce(&mut W, &mut Engine<W, E>) + 'static,
    ) -> EventId {
        let slot = self.slabs.closures.alloc(Closure::Once(Box::new(f)));
        self.enqueue(at, key, slot)
    }

    /// Schedule the typed event `ev` at `at` under the ordering key
    /// `key` (0: in schedule order among the plain events of its
    /// instant). Time, key and cancellation behave exactly as for
    /// [`Engine::schedule_keyed`]; the difference is that `ev` is stored
    /// in the engine's slab rather than boxed.
    pub fn schedule_event(&mut self, at: SimTime, key: u64, ev: E) -> EventId {
        let slot = TYPED | self.slabs.events.alloc(ev);
        self.enqueue(at, key, slot)
    }

    /// Schedule `f` to run after the given delay.
    pub fn schedule_in(
        &mut self,
        delay: SimDuration,
        f: impl FnOnce(&mut W, &mut Engine<W, E>) + 'static,
    ) -> EventId {
        self.schedule(self.now + delay, f)
    }

    /// Schedule a periodic task: first firing at `start`, then every
    /// `interval` until the closure returns `ControlFlow::Break` or the
    /// task is cancelled. A zero interval is rejected (it would livelock).
    pub fn schedule_every(
        &mut self,
        start: SimTime,
        interval: SimDuration,
        f: impl FnMut(&mut W, &mut Engine<W, E>) -> ControlFlow<()> + 'static,
    ) -> EventId {
        assert!(!interval.is_zero(), "periodic interval must be > 0");
        let slot = self.slabs.closures.alloc(Closure::Every {
            interval,
            f: Box::new(f),
        });
        self.enqueue(start, 0, slot)
    }

    /// Queue a freshly filled slot under the next sequence number.
    fn enqueue(&mut self, at: SimTime, key: u64, slot: u32) -> EventId {
        let seq = self.seq;
        self.seq += 1;
        self.push(at.max(self.now), key, seq, slot);
        EventId::pack(self.slabs.generation(slot), slot)
    }

    /// Cancel a pending event. Returns true if the event existed and had
    /// not fired (for periodic tasks: stops all future firings). The
    /// slot is freed at once; stale or double cancels are no-ops.
    pub fn cancel(&mut self, id: EventId) -> bool {
        let (generation, slot) = id.unpack();
        // A live generation on a slot with no queue position is a
        // periodic task cancelling itself from its own callback: its
        // entry is already off the queue, so the cancel misses and the
        // re-arm stands.
        let pos = match self.slabs.meta(slot) {
            Some((g, pos)) if g == generation && pos != NONE => pos,
            _ => return false,
        };
        // For a laned entry the generation bump *is* the removal: it
        // turns the entry into a tombstone.
        self.slabs.discard(slot);
        if pos < LANE_BASE {
            self.heap_remove(pos as usize);
        } else {
            self.lane_bury((pos - LANE_BASE) as usize);
        }
        true
    }

    /// Execute the single next event, if any. Returns the instant it fired.
    pub fn step(&mut self, world: &mut W) -> Option<SimTime> {
        self.step_until(world, SimTime(u64::MAX))
    }

    /// [`Engine::step`], unless the next event is later than `until`.
    fn step_until(&mut self, world: &mut W, until: SimTime) -> Option<SimTime> {
        let (src, &HeapEntry { at, seq, slot, .. }) = self.peek()?;
        if at > until {
            return None;
        }
        if let Some(h) = self.horizon {
            if at > h {
                // Past the horizon: drop this and everything later.
                self.clear_all();
                return None;
            }
        }
        if src == LANES {
            self.heap_remove(0);
        } else {
            self.lane_pop(src);
        }
        debug_assert!(at >= self.now, "time must be monotone");
        self.now = at;
        self.executed += 1;
        // A one-shot's slot is freed before the call: a self-cancel
        // inside misses (the id is stale by then).
        if slot & TYPED != 0 {
            let ev = self.slabs.events.free(slot ^ TYPED);
            // invariant: a queued slot is `Full` (peek returns live entries only).
            ev.expect("queued event has a body").fire(world, self);
            return Some(at);
        }
        let state = &mut self.slabs.closures.slots[slot as usize].state;
        match std::mem::replace(state, SlotState::Running) {
            SlotState::Full(Closure::Once(f)) => {
                self.slabs.closures.free(slot);
                f(world, self);
            }
            SlotState::Full(Closure::Every { interval, mut f }) => {
                let epoch = self.clear_epoch;
                let again = f(world, self).is_continue();
                if epoch != self.clear_epoch {
                    // A nested run hit the horizon and freed the slot;
                    // the task is over along with everything else.
                } else if again {
                    // Swapped in, not assigned: an assignment drops the
                    // old state first, so the new one is built on the
                    // stack and copied over — a wide reload of narrow
                    // stores, which waits for the store buffer to drain
                    // on every re-arm (DESIGN.md §17.1).
                    let state = &mut self.slabs.closures.slots[slot as usize].state;
                    let body = SlotState::Full(Closure::Every { interval, f });
                    let running = std::mem::replace(state, body);
                    debug_assert!(matches!(running, SlotState::Running));
                    // Under the sequence number it was armed with, which
                    // the popped entry carried.
                    self.push(at + interval, 0, seq, slot);
                } else {
                    self.slabs.closures.free(slot);
                }
            }
            SlotState::Free { .. } | SlotState::Running => unreachable!("queued event has a body"),
        }
        Some(at)
    }

    /// Run until the queue drains (or the horizon is reached).
    pub fn run(&mut self, world: &mut W) -> SimTime {
        while self.step(world).is_some() {}
        self.now
    }

    /// Run until the given instant (inclusive); later events stay queued
    /// and the clock advances to `until`.
    pub fn run_until(&mut self, world: &mut W, until: SimTime) -> SimTime {
        while self.step_until(world, until).is_some() {}
        self.now = self.now.max(until);
        self.now
    }

    /// Drop every queued event (horizon reached).
    fn clear_all(&mut self) {
        self.heap.clear();
        for lane in &mut self.lanes {
            lane.q.clear();
            lane.dead = 0;
        }
        self.laned = 0;
        self.slabs.closures.free_all();
        self.slabs.events.free_all();
        self.clear_epoch += 1;
    }

    // --- Queue: lanes in front of the heap --------------------------

    /// The next entry in `(at, key, seq)` order and where it sits: a
    /// lane index, or [`LANES`] for the heap root.
    fn peek(&self) -> Option<(usize, &HeapEntry)> {
        let mut best = self.heap.first().map(|e| (LANES, e));
        if self.laned == 0 {
            return best;
        }
        for (l, lane) in self.lanes.iter().enumerate() {
            if let Some(head) = lane.q.front() {
                if best.is_none_or(|(_, b)| head.key() < b.key()) {
                    best = Some((l, head));
                }
            }
        }
        best
    }

    /// Queue an entry: on a lane if one admits it, on the heap otherwise.
    fn push(&mut self, at: SimTime, key: u64, seq: u64, slot: u32) {
        let generation = self.slabs.generation(slot);
        let entry = HeapEntry {
            at,
            key,
            seq,
            slot,
            generation,
        };
        match self.lane_for(&entry) {
            Some(l) => {
                self.slabs.set_pos(slot, LANE_BASE + l as u32);
                self.lanes[l].q.push_back(entry);
                self.laned += 1;
            }
            None => self.heap_push(entry),
        }
    }

    /// The lane that admits `e`, if one does: the first lane keyed by
    /// `e`'s offset from now — measured on the entry as queued,
    /// past-clamped and saturated — whose tail `e` does not sort before.
    /// Equal offsets nearly always arrive in order; the tail check makes
    /// every lane sorted unconditionally.
    ///
    /// An entry no lane admits (a new offset; a periodic re-arm, old
    /// `seq`, behind a fresh one-shot for the same instant) goes to the
    /// heap and leaves its offset in `missed`: most never repeat. One
    /// that misses while marked takes over a lane holding at most one
    /// entry, which moves to the heap — a lone far-off timer does not
    /// keep a lane — preferring the smallest ring, so that a newcomer
    /// does not inherit the buffer a busy lane grew.
    fn lane_for(&mut self, e: &HeapEntry) -> Option<usize> {
        if e.key != 0 {
            return None;
        }
        let offset = e.at - self.now;
        let admits = |lane: &Lane| {
            lane.offset == offset && lane.q.back().is_none_or(|tail| tail.key() <= e.key())
        };
        if let Some(l) = self.lanes.iter().position(admits) {
            return Some(l);
        }
        if !self.missed.contains(&offset) {
            self.missed = [offset, self.missed[0]];
            return None;
        }
        let spare = |l: &usize| self.lanes[*l].offset != offset && self.lanes[*l].q.len() <= 1;
        let l = (0..LANES)
            .filter(spare)
            .min_by_key(|&l| self.lanes[l].q.capacity())?;
        // A lone entry is a lane's head, so it is live.
        if let Some(lone) = self.lanes[l].q.pop_front() {
            self.laned -= 1;
            self.heap_push(lone);
        }
        self.lanes[l].offset = offset;
        Some(l)
    }

    /// Remove lane `l`'s head (the entry [`Engine::peek`] returned).
    fn lane_pop(&mut self, l: usize) {
        // invariant: `peek` just returned this lane's head.
        let head = self.lanes[l].q.pop_front().expect("peeked lane head");
        self.slabs.set_pos(head.slot, NONE);
        self.laned -= 1;
        self.lane_trim(l);
    }

    /// Account for one entry of lane `l` whose slot was just freed: a
    /// tombstone now, unless it is at the head. A lane more than half
    /// dead is compacted, so tombstones never outnumber live entries.
    fn lane_bury(&mut self, l: usize) {
        self.laned -= 1;
        self.lanes[l].dead += 1;
        self.lane_trim(l);
        let (lane, slabs) = (&mut self.lanes[l], &self.slabs);
        if lane.dead * 2 > lane.q.len() {
            lane.q.retain(|e| slabs.generation(e.slot) == e.generation);
            lane.dead = 0;
        }
    }

    /// Drop tombstones from lane `l`'s head: a lane's head is always
    /// live, which is what keeps `peek` exact.
    fn lane_trim(&mut self, l: usize) {
        let lane = &mut self.lanes[l];
        while lane.dead > 0 {
            match lane.q.front() {
                Some(h) if self.slabs.generation(h.slot) != h.generation => {
                    lane.q.pop_front();
                    lane.dead -= 1;
                }
                _ => break,
            }
        }
    }

    // --- Indexed d-ary heap ----------------------------------------

    fn heap_push(&mut self, entry: HeapEntry) {
        let pos = self.heap.len();
        self.slabs.set_pos(entry.slot, pos as u32);
        self.heap.push(entry);
        self.sift_up(pos);
    }

    /// Remove the entry at `pos`, keeping back-pointers consistent.
    fn heap_remove(&mut self, pos: usize) {
        let last = self.heap.len() - 1;
        self.slabs.set_pos(self.heap[pos].slot, NONE);
        if pos != last {
            self.heap.swap(pos, last);
            self.heap.pop();
            self.slabs.set_pos(self.heap[pos].slot, pos as u32);
            // The moved element may be smaller than its new parent or
            // larger than its new children; restore whichever way.
            if pos > 0 && self.heap[pos].key() < self.heap[(pos - 1) / D].key() {
                self.sift_up(pos);
            } else {
                self.sift_down(pos);
            }
        } else {
            self.heap.pop();
        }
    }

    fn sift_up(&mut self, mut pos: usize) {
        while pos > 0 {
            let parent = (pos - 1) / D;
            if self.heap[pos].key() < self.heap[parent].key() {
                self.heap_swap(pos, parent);
                pos = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut pos: usize) {
        loop {
            let first = pos * D + 1;
            if first >= self.heap.len() {
                break;
            }
            let end = (first + D).min(self.heap.len());
            let mut best = first;
            for c in first + 1..end {
                if self.heap[c].key() < self.heap[best].key() {
                    best = c;
                }
            }
            if self.heap[best].key() < self.heap[pos].key() {
                self.heap_swap(pos, best);
                pos = best;
            } else {
                break;
            }
        }
    }

    #[inline]
    fn heap_swap(&mut self, a: usize, b: usize) {
        self.heap.swap(a, b);
        self.slabs.set_pos(self.heap[a].slot, a as u32);
        self.slabs.set_pos(self.heap[b].slot, b as u32);
    }
}

#[cfg(test)]
mod lane_tests;
#[cfg(test)]
mod more_tests;
#[cfg(test)]
mod slab_tests;
#[cfg(test)]
mod tests;
#[cfg(test)]
mod typed_tests;
