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
mod tests {
    use super::*;

    type World = Vec<(u64, &'static str)>;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn events_fire_in_time_order() {
        let mut eng: Engine<World> = Engine::new();
        eng.schedule(t(3), |w, e| w.push((e.now().as_micros(), "c")));
        eng.schedule(t(1), |w, e| w.push((e.now().as_micros(), "a")));
        eng.schedule(t(2), |w, e| w.push((e.now().as_micros(), "b")));
        let mut w = Vec::new();
        eng.run(&mut w);
        let labels: Vec<_> = w.iter().map(|(_, l)| *l).collect();
        assert_eq!(labels, vec!["a", "b", "c"]);
    }

    #[test]
    fn same_time_events_fire_fifo() {
        let mut eng: Engine<World> = Engine::new();
        for label in ["first", "second", "third"] {
            eng.schedule(t(5), move |w, _| w.push((0, label)));
        }
        let mut w = Vec::new();
        eng.run(&mut w);
        let labels: Vec<_> = w.iter().map(|(_, l)| *l).collect();
        assert_eq!(labels, vec!["first", "second", "third"]);
    }

    #[test]
    fn scheduling_in_past_clamps_to_now() {
        let mut eng: Engine<World> = Engine::new();
        eng.schedule(t(10), |w, e| {
            e.schedule(t(1), |w, e| {
                assert_eq!(e.now(), t(10));
                w.push((0, "clamped"));
            });
            w.push((0, "outer"));
        });
        let mut w = Vec::new();
        eng.run(&mut w);
        assert_eq!(w.len(), 2);
    }

    #[test]
    fn nested_scheduling_from_events() {
        let mut eng: Engine<World> = Engine::new();
        eng.schedule(t(1), |_, e| {
            e.schedule_in(SimDuration::from_secs(2), |w, e| {
                assert_eq!(e.now(), t(3));
                w.push((e.now().as_micros(), "nested"));
            });
        });
        let mut w = Vec::new();
        let end = eng.run(&mut w);
        assert_eq!(end, t(3));
        assert_eq!(w.len(), 1);
    }

    #[test]
    fn cancel_prevents_execution() {
        let mut eng: Engine<World> = Engine::new();
        let id = eng.schedule(t(1), |w, _| w.push((0, "no")));
        assert!(eng.cancel(id));
        assert!(!eng.cancel(id), "double-cancel is a no-op");
        let mut w = Vec::new();
        eng.run(&mut w);
        assert!(w.is_empty());
    }

    #[test]
    fn periodic_fires_until_break() {
        let mut eng: Engine<Vec<u64>> = Engine::new();
        let mut count = 0;
        eng.schedule_every(t(0), SimDuration::from_secs(2), move |w, e| {
            count += 1;
            w.push(e.now().as_micros());
            if count == 4 {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        });
        let mut w = Vec::new();
        eng.run(&mut w);
        assert_eq!(
            w,
            vec![0, 2_000_000, 4_000_000, 6_000_000],
            "fires at 0,2,4,6s then stops"
        );
    }

    #[test]
    fn periodic_can_be_cancelled_externally() {
        let mut eng: Engine<Vec<u64>> = Engine::new();
        let id = eng.schedule_every(t(0), SimDuration::from_secs(1), |w, e| {
            w.push(e.now().as_micros());
            ControlFlow::Continue(())
        });
        eng.schedule(t(3), move |_, e| {
            e.cancel(id);
        });
        let mut w = Vec::new();
        eng.run(&mut w);
        // Fires at 0,1,2,3 — the cancel event at t=3 was scheduled after
        // the periodic task, so the periodic firing at t=3 happens first.
        assert_eq!(w.len(), 4);
    }

    #[test]
    fn run_until_leaves_later_events_queued() {
        let mut eng: Engine<Vec<u64>> = Engine::new();
        eng.schedule(t(1), |w, _| w.push(1));
        eng.schedule(t(5), |w, _| w.push(5));
        let mut w = Vec::new();
        eng.run_until(&mut w, t(3));
        assert_eq!(w, vec![1]);
        assert_eq!(eng.pending(), 1);
        eng.run(&mut w);
        assert_eq!(w, vec![1, 5]);
    }

    #[test]
    fn horizon_stops_execution() {
        let mut eng: Engine<Vec<u64>> = Engine::new();
        eng.set_horizon(t(2));
        eng.schedule(t(1), |w, _| w.push(1));
        eng.schedule(t(3), |w, _| w.push(3));
        let mut w = Vec::new();
        eng.run(&mut w);
        assert_eq!(w, vec![1]);
    }

    #[test]
    fn executed_counter() {
        let mut eng: Engine<Vec<u64>> = Engine::new();
        for s in 0..10 {
            eng.schedule(t(s), |_, _| {});
        }
        let mut w = Vec::new();
        eng.run(&mut w);
        assert_eq!(eng.executed(), 10);
    }

    #[test]
    #[should_panic(expected = "periodic interval must be > 0")]
    fn zero_interval_rejected() {
        let mut eng: Engine<Vec<u64>> = Engine::new();
        eng.schedule_every(t(0), SimDuration::ZERO, |_, _| ControlFlow::Continue(()));
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn next_event_time_skips_cancelled() {
        let mut eng: Engine<Vec<u64>> = Engine::new();
        let early = eng.schedule(t(1), |_, _| {});
        eng.schedule(t(5), |_, _| {});
        assert_eq!(eng.next_event_time(), Some(t(1)));
        eng.cancel(early);
        assert_eq!(eng.next_event_time(), Some(t(5)));
    }

    #[test]
    fn next_event_time_empty() {
        let eng: Engine<Vec<u64>> = Engine::new();
        assert_eq!(eng.next_event_time(), None);
    }

    #[test]
    fn periodic_self_cancel_via_break_frees_slot() {
        let mut eng: Engine<u64> = Engine::new();
        let id = eng.schedule_every(t(0), SimDuration::from_secs(1), |w, _| {
            *w += 1;
            ControlFlow::Break(())
        });
        let mut w = 0u64;
        eng.run(&mut w);
        assert_eq!(w, 1);
        assert!(!eng.cancel(id), "task already gone after Break");
        assert_eq!(eng.pending(), 0);
    }

    #[test]
    fn events_scheduled_during_run_until_respect_cutoff() {
        let mut eng: Engine<Vec<u64>> = Engine::new();
        eng.schedule(t(1), |w, e| {
            w.push(1);
            e.schedule(t(2), |w, _| w.push(2));
            e.schedule(t(10), |w, _| w.push(10));
        });
        let mut w = Vec::new();
        eng.run_until(&mut w, t(5));
        assert_eq!(w, vec![1, 2], "the t=10 event waits");
        eng.run(&mut w);
        assert_eq!(w, vec![1, 2, 10]);
    }

    #[test]
    fn interleaved_oneshot_and_periodic_order() {
        let mut eng: Engine<Vec<&'static str>> = Engine::new();
        eng.schedule_every(t(2), SimDuration::from_secs(2), |w, e| {
            w.push("periodic");
            if e.now() >= t(6) {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        });
        eng.schedule(t(3), |w, _| w.push("oneshot"));
        let mut w = Vec::new();
        eng.run(&mut w);
        assert_eq!(w, vec!["periodic", "oneshot", "periodic", "periodic"]);
    }
}

#[cfg(test)]
mod slab_tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn pending_excludes_cancelled_immediately() {
        let mut eng: Engine<Vec<u64>> = Engine::new();
        let a = eng.schedule(t(1), |_, _| {});
        let _b = eng.schedule(t(2), |_, _| {});
        assert_eq!(eng.pending(), 2);
        eng.cancel(a);
        assert_eq!(eng.pending(), 1, "cancelled events leave the queue eagerly");
    }

    #[test]
    fn stale_id_cannot_cancel_slot_reuser() {
        let mut eng: Engine<Vec<u64>> = Engine::new();
        let a = eng.schedule(t(1), |_, _| {});
        assert!(eng.cancel(a));
        // The freed slot is reused by the next schedule; the stale
        // handle must miss it.
        let _b = eng.schedule(t(2), |w, _| w.push(2));
        assert!(!eng.cancel(a), "stale id is generation-checked");
        let mut w = Vec::new();
        eng.run(&mut w);
        assert_eq!(w, vec![2], "the reuser still fired");
    }

    #[test]
    fn a_drained_slab_fills_again_from_the_bottom() {
        let mut eng: Engine<Vec<u64>> = Engine::new();
        let indices = |ids: &[EventId]| ids.iter().map(|id| id.unpack().1).collect::<Vec<_>>();
        let first: Vec<_> = (0..4).map(|i| eng.schedule(t(4 - i), |_, _| {})).collect();
        assert_eq!(indices(&first), [0, 1, 2, 3]);
        // While anything is pending, the slot freed last is reused first.
        assert!(eng.cancel(first[1]) && eng.cancel(first[2]));
        let refill: Vec<_> = (0..3).map(|_| eng.schedule(t(9), |_, _| {})).collect();
        assert_eq!(indices(&refill), [2, 1, 4]);
        // Fired in an order unrelated to the indices; once the last one
        // is gone the next burst lies in schedule order again, and no id
        // from before it names one of its events.
        let mut w = Vec::new();
        eng.run(&mut w);
        let second: Vec<_> = (0..5)
            .map(|i| eng.schedule(t(20), move |w: &mut Vec<u64>, _| w.push(i)))
            .collect();
        assert_eq!(indices(&second), [0, 1, 2, 3, 4]);
        for stale in first.iter().chain(&refill) {
            assert!(!eng.cancel(*stale));
        }
        eng.run(&mut w);
        assert_eq!(w, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn slot_reuse_does_not_perturb_order() {
        // Fill, drain, and refill the slab: ordering is governed by
        // (time, schedule order) alone, never by slot index.
        let mut eng: Engine<Vec<u64>> = Engine::new();
        let ids: Vec<_> = (0..8).map(|i| eng.schedule(t(50 + i), |_, _| {})).collect();
        for id in ids {
            assert!(eng.cancel(id));
        }
        // Schedule in reverse time order so freed slots are claimed by
        // late events first.
        for i in (0..8u64).rev() {
            eng.schedule(t(1 + i), move |w: &mut Vec<u64>, _| w.push(i));
        }
        let mut w = Vec::new();
        eng.run(&mut w);
        assert_eq!(w, vec![0, 1, 2, 3, 4, 5, 6, 7]);
    }

    #[test]
    fn periodic_keeps_original_seq_across_rearms() {
        // A periodic armed before a one-shot must keep firing before it
        // when their instants collide, on every re-arm — the re-armed
        // entry keeps the original sequence number.
        let mut eng: Engine<Vec<&'static str>> = Engine::new();
        eng.schedule_every(t(1), SimDuration::from_secs(1), |w, e| {
            w.push("periodic");
            if e.now() >= t(3) {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        });
        for s in 1..=3 {
            eng.schedule(t(s), |w: &mut Vec<&'static str>, _| w.push("oneshot"));
        }
        let mut w = Vec::new();
        eng.run(&mut w);
        assert_eq!(
            w,
            vec!["periodic", "oneshot", "periodic", "oneshot", "periodic", "oneshot"]
        );
    }

    #[test]
    fn periodic_self_cancel_from_callback_misses() {
        // The entry is off the queue while the body runs, so a
        // self-cancel returns false and the re-arm stands; Break is the
        // way to stop from inside.
        use std::cell::Cell;
        use std::rc::Rc;
        let mut eng: Engine<Vec<u64>> = Engine::new();
        let slot: Rc<Cell<Option<EventId>>> = Rc::new(Cell::new(None));
        let slot2 = Rc::clone(&slot);
        let id = eng.schedule_every(t(1), SimDuration::from_secs(1), move |w, e| {
            w.push(e.now().as_micros());
            assert!(!e.cancel(slot2.get().unwrap()), "self-cancel misses");
            if w.len() == 2 {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        });
        slot.set(Some(id));
        let mut w = Vec::new();
        eng.run(&mut w);
        assert_eq!(w.len(), 2, "re-arm survived the self-cancel");
    }

    #[test]
    fn heavy_cancel_storm_keeps_heap_consistent() {
        // Interleave schedules and cancels at scale; every survivor
        // fires exactly once, in order.
        let mut eng: Engine<Vec<u64>> = Engine::new();
        let mut keep = Vec::new();
        let mut drop_ids = Vec::new();
        for i in 0..500u64 {
            // Spread times so the heap actually reshuffles on removal.
            let at = t(1 + (i * 37) % 101);
            let id = eng.schedule(at, move |w: &mut Vec<u64>, _| w.push((i * 37) % 101));
            if i % 3 == 0 {
                keep.push(((i * 37) % 101, id));
            } else {
                drop_ids.push(id);
            }
        }
        for id in drop_ids {
            assert!(eng.cancel(id));
        }
        assert_eq!(eng.pending(), keep.len());
        let mut w = Vec::new();
        eng.run(&mut w);
        let mut expect: Vec<u64> = keep.iter().map(|&(s, _)| s).collect();
        expect.sort_unstable();
        let mut got = w.clone();
        got.sort_unstable();
        assert_eq!(got, expect);
        let mut sorted = w.clone();
        sorted.sort_unstable();
        assert_eq!(w, sorted, "fired in time order");
    }

    #[test]
    fn keyed_events_order_by_key_then_seq() {
        // At one instant: key-0 events first in schedule order, then
        // keyed events by ascending key — regardless of schedule order.
        let mut eng: Engine<Vec<&'static str>> = Engine::new();
        eng.schedule_keyed(t(5), 30, |w, _| w.push("k30"));
        eng.schedule(t(5), |w, _| w.push("plain-a"));
        eng.schedule_keyed(t(5), 10, |w, _| w.push("k10"));
        eng.schedule_keyed(t(5), 20, |w, _| w.push("k20"));
        eng.schedule(t(5), |w, _| w.push("plain-b"));
        let mut w = Vec::new();
        eng.run(&mut w);
        assert_eq!(w, vec!["plain-a", "plain-b", "k10", "k20", "k30"]);
    }

    #[test]
    fn keyed_order_is_schedule_order_invariant() {
        // The execution order of same-instant keyed events depends only
        // on their keys: two engines that schedule the same keyed set
        // in different orders run them identically. This is the
        // property sharded Worlds rely on for partition invariance.
        let run_with = |perm: &[u64]| -> Vec<u64> {
            let mut eng: Engine<Vec<u64>> = Engine::new();
            for &k in perm {
                eng.schedule_keyed(t(1), k, move |w, _| w.push(k));
            }
            let mut w = Vec::new();
            eng.run(&mut w);
            w
        };
        assert_eq!(run_with(&[3, 1, 4, 2]), vec![1, 2, 3, 4]);
        assert_eq!(run_with(&[4, 3, 2, 1]), vec![1, 2, 3, 4]);
    }

    #[test]
    fn keyed_ties_fall_back_to_schedule_order() {
        let mut eng: Engine<Vec<&'static str>> = Engine::new();
        eng.schedule_keyed(t(1), 7, |w, _| w.push("first"));
        eng.schedule_keyed(t(1), 7, |w, _| w.push("second"));
        let mut w = Vec::new();
        eng.run(&mut w);
        assert_eq!(w, vec!["first", "second"]);
    }

    #[test]
    fn keyed_events_respect_time_before_key() {
        let mut eng: Engine<Vec<&'static str>> = Engine::new();
        eng.schedule_keyed(t(1), u64::MAX, |w, _| w.push("early-big-key"));
        eng.schedule(t(2), |w, _| w.push("late-plain"));
        let mut w = Vec::new();
        eng.run(&mut w);
        assert_eq!(w, vec!["early-big-key", "late-plain"]);
    }

    #[test]
    fn keyed_events_can_be_cancelled() {
        let mut eng: Engine<Vec<u64>> = Engine::new();
        let id = eng.schedule_keyed(t(1), 5, |w, _| w.push(5));
        eng.schedule_keyed(t(1), 6, |w, _| w.push(6));
        assert!(eng.cancel(id));
        let mut w = Vec::new();
        eng.run(&mut w);
        assert_eq!(w, vec![6]);
    }

    #[test]
    fn horizon_clear_resets_slab() {
        let mut eng: Engine<Vec<u64>> = Engine::new();
        eng.set_horizon(t(2));
        eng.schedule(t(1), |w, _| w.push(1));
        eng.schedule(t(5), |_, _| {});
        eng.schedule_every(t(4), SimDuration::from_secs(1), |_, _| {
            ControlFlow::Continue(())
        });
        let mut w = Vec::new();
        eng.run(&mut w);
        assert_eq!(w, vec![1]);
        assert_eq!(eng.pending(), 0, "horizon clears everything");
        // The engine still works after the clear.
        eng.schedule(t(2), |w, _| w.push(2));
        eng.run(&mut w);
        assert_eq!(w, vec![1, 2]);
    }

    #[test]
    fn an_id_from_before_the_horizon_cannot_cancel_a_later_event() {
        let mut eng: Engine<Vec<u64>> = Engine::new();
        eng.set_horizon(t(2));
        let early = eng.schedule(t(1), |w, _| w.push(1));
        let dropped = eng.schedule(t(5), |_, _| {});
        let mut w = Vec::new();
        eng.run(&mut w);
        assert_eq!(eng.pending(), 0, "the horizon cleared the queue");
        // The slab hands the same two indices out again.
        let a = eng.schedule(t(2), |w, _| w.push(2));
        let b = eng.schedule(t(2), |w, _| w.push(3));
        let reused = [a.unpack().1, b.unpack().1];
        assert!(reused.contains(&early.unpack().1) && reused.contains(&dropped.unpack().1));
        assert!(!eng.cancel(early), "fired before the clear");
        assert!(!eng.cancel(dropped), "dropped by the clear");
        assert_eq!(eng.pending(), 2);
        eng.run(&mut w);
        assert_eq!(w, vec![1, 2, 3]);
    }
}

#[cfg(test)]
mod typed_tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    /// Logs its label; a `Chain` schedules its successor a second later.
    enum Ev {
        Log(u64),
        Chain(u64),
    }

    impl Event<Vec<u64>> for Ev {
        fn fire(self, w: &mut Vec<u64>, eng: &mut Engine<Vec<u64>, Ev>) {
            match self {
                Ev::Log(label) => w.push(label),
                Ev::Chain(label) => {
                    w.push(label);
                    let at = eng.now() + SimDuration::from_secs(1);
                    eng.schedule_event(at, 0, Ev::Log(label + 1));
                }
            }
        }
    }

    #[test]
    fn typed_events_and_closures_pop_in_one_total_order() {
        let mut eng: Engine<Vec<u64>, Ev> = Engine::new();
        eng.schedule_event(t(2), 9, Ev::Log(5));
        eng.schedule(t(2), |w, _| w.push(3));
        eng.schedule_event(t(2), 0, Ev::Log(4));
        eng.schedule_keyed(t(2), 9, |w, _| w.push(6));
        eng.schedule_event(t(1), 7, Ev::Chain(1));
        eng.schedule_every(t(2), SimDuration::from_secs(5), |w, _| {
            w.push(7);
            ControlFlow::Break(())
        });
        assert_eq!(eng.pending(), 6);
        let mut w = Vec::new();
        eng.run(&mut w);
        // t=1: the chain; t=2: its successor was scheduled last of the
        // key-0 events, the two key-9 events tie on key and fall back
        // to schedule order.
        assert_eq!(w, vec![1, 3, 4, 7, 2, 5, 6]);
        assert_eq!((eng.executed(), eng.pending()), (7, 0));
    }

    #[test]
    fn an_id_from_one_slab_cannot_cancel_the_same_index_in_the_other() {
        let mut eng: Engine<Vec<u64>, Ev> = Engine::new();
        let closure = eng.schedule(t(1), |w, _| w.push(1));
        let typed = eng.schedule_event(t(1), 0, Ev::Log(2));
        assert_eq!(closure.unpack(), (0, 0));
        assert_eq!(typed.unpack(), (0, TYPED), "same index, same generation");
        assert!(eng.cancel(closure));
        assert!(!eng.cancel(closure), "and only once");
        assert_eq!(eng.pending(), 1, "the typed event at index 0 stands");
        let closure = eng.schedule(t(1), |w, _| w.push(3));
        assert!(eng.cancel(typed));
        assert!(!eng.cancel(typed));
        assert_eq!(closure.unpack(), (1, 0), "the closure slot was reused");
        let mut w = Vec::new();
        eng.run(&mut w);
        assert_eq!(w, vec![3]);
    }

    #[test]
    fn a_typed_event_is_cancelled_from_a_lane_and_from_the_heap() {
        let mut eng: Engine<Vec<u64>, Ev> = Engine::new();
        let ids: Vec<_> = (0..6)
            .map(|i| eng.schedule_event(t(1), 0, Ev::Log(i)))
            .collect();
        let keyed = eng.schedule_event(t(1), 4, Ev::Log(9));
        assert_eq!((eng.heap.len(), eng.laned), (2, 5));
        assert!(eng.cancel(ids[0]), "the heap root");
        assert!(eng.cancel(ids[3]), "mid-lane: a tombstone");
        assert!(eng.cancel(keyed));
        // The freed slots go to the next typed events, whose ids differ
        // from the stale ones by generation alone.
        let again = eng.schedule_event(t(1), 0, Ev::Log(6));
        assert_eq!(again.unpack().1, keyed.unpack().1);
        assert!(!eng.cancel(keyed));
        let mut w = Vec::new();
        eng.run(&mut w);
        assert_eq!(w, vec![1, 2, 4, 5, 6]);
        assert_eq!(eng.slabs.events.slots.len(), 7);
        assert!(eng.slabs.closures.slots.is_empty());
    }

    #[test]
    fn the_horizon_frees_both_slabs() {
        let mut eng: Engine<Vec<u64>, Ev> = Engine::new();
        eng.set_horizon(t(2));
        eng.schedule_event(t(1), 0, Ev::Chain(1));
        let late_typed = eng.schedule_event(t(5), 0, Ev::Log(0));
        let late_closure = eng.schedule(t(5), |w, _| w.push(0));
        let mut w = Vec::new();
        eng.run(&mut w);
        assert_eq!(w, vec![1, 2]);
        assert_eq!(eng.pending(), 0);
        // Both slabs hand out the old indices again, under new
        // generations: the ids from before the clear stay stale.
        let typed = [3, 4].map(|l| eng.schedule_event(t(2), 0, Ev::Log(l)));
        let closure = eng.schedule(t(2), |w, _| w.push(5));
        assert!(typed
            .iter()
            .any(|id| id.unpack().1 == late_typed.unpack().1));
        assert_eq!(closure.unpack().1, late_closure.unpack().1);
        assert!(!eng.cancel(late_typed) && !eng.cancel(late_closure));
        assert_eq!(eng.pending(), 3);
        eng.run(&mut w);
        assert_eq!(w, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn a_closure_slot_is_forty_bytes_whatever_the_typed_event() {
        assert_eq!(std::mem::size_of::<Slot<Closure<u64, NoEvent>>>(), 40);
        assert_eq!(std::mem::size_of::<Slot<Closure<u64, [u64; 12]>>>(), 40);
    }
}

#[cfg(test)]
mod lane_tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    /// Entries (live or dead) held in lanes.
    fn laned_entries<W, E>(eng: &Engine<W, E>) -> usize {
        eng.lanes.iter().map(|l| l.q.len()).sum()
    }

    #[test]
    fn an_offset_earns_a_lane_by_repeating() {
        let mut eng: Engine<Vec<u64>> = Engine::new();
        // Offsets that never repeat never see a lane.
        for i in 0..100 {
            eng.schedule(t(100 + i), |_, _| {});
        }
        assert_eq!((eng.laned, eng.heap.len()), (0, 100));
        // Two offsets missing in turn are both still remembered.
        for _ in 0..3 {
            eng.schedule(t(1), |w, _| w.push(1));
            eng.schedule(t(2), |w, _| w.push(2));
        }
        assert_eq!((eng.laned, eng.heap.len()), (4, 102));
        let mut w = Vec::new();
        eng.run(&mut w);
        assert_eq!(w, vec![1, 1, 1, 2, 2, 2]);
    }

    #[test]
    fn mid_lane_cancel_keeps_counts_and_head_exact() {
        let mut eng: Engine<Vec<u64>> = Engine::new();
        let ids: Vec<_> = (0..6u64)
            .map(|i| eng.schedule(t(1), move |w: &mut Vec<u64>, _| w.push(i)))
            .collect();
        assert_eq!((eng.heap.len(), eng.laned), (1, 5));
        assert!(eng.cancel(ids[3]));
        assert_eq!(eng.pending(), 5);
        assert_eq!(eng.next_event_time(), Some(t(1)));
        assert_eq!(laned_entries(&eng), 5, "the tombstone stays mid-lane");
        assert!(!eng.cancel(ids[3]), "double cancel misses");
        let mut w = Vec::new();
        eng.run(&mut w);
        assert_eq!(w, vec![0, 1, 2, 4, 5]);
        assert_eq!((eng.pending(), laned_entries(&eng)), (0, 0));
    }

    #[test]
    fn cancelling_the_head_exposes_the_next_live_entry() {
        let mut eng: Engine<Vec<u64>> = Engine::new();
        let sec = SimDuration::from_secs(1);
        // One lane of offset 1 s: [a @1 s, b @1 s, c @1.5 s]; the heap
        // holds 1.2 s.
        let first = eng.schedule_in(sec, |w, _| w.push(0));
        let a = eng.schedule_in(sec, |w, _| w.push(0));
        let b = eng.schedule_in(sec, |w, _| w.push(0));
        eng.cancel(first);
        eng.schedule(SimTime::from_millis(500), move |_, e| {
            e.schedule_in(sec, |w: &mut Vec<u64>, _| w.push(15));
        });
        eng.schedule(SimTime::from_millis(1_200), |w, _| w.push(12));
        let mut w = Vec::new();
        eng.run_until(&mut w, SimTime::from_millis(500));
        assert_eq!((eng.laned, eng.heap.len()), (3, 1));
        assert!(eng.cancel(b), "mid-lane: a tombstone");
        assert!(eng.cancel(a), "the head: it and the tombstone behind it go");
        assert_eq!(eng.pending(), 2);
        assert_eq!(laned_entries(&eng), 1);
        assert_eq!(eng.next_event_time(), Some(SimTime::from_millis(1_200)));
        eng.run_until(&mut w, SimTime::from_millis(1_200));
        assert_eq!(w, vec![12], "run_until stops at the cut-off, not past it");
        eng.run(&mut w);
        assert_eq!(w, vec![12, 15]);
    }

    #[test]
    fn tombstones_are_bounded_by_the_live_entries() {
        let mut eng: Engine<Vec<u64>> = Engine::new();
        let hour = SimDuration::from_secs(3_600);
        // Live entries at the lane's head keep it from draining by
        // trimming alone.
        for _ in 0..5 {
            eng.schedule_in(hour, |w, _| w.push(1));
        }
        assert_eq!(eng.laned, 4);
        for _ in 0..100_000 {
            let id = eng.schedule_in(hour, |w, _| w.push(0));
            assert!(eng.cancel(id));
            assert!(laned_entries(&eng) <= 2 * eng.laned + 1);
        }
        assert_eq!(eng.pending(), 5);
        assert_eq!(
            eng.slabs.closures.slots.len(),
            6,
            "cancelled slots are reused at once"
        );
        let mut w = Vec::new();
        eng.run(&mut w);
        assert_eq!(w, vec![1; 5]);
    }

    #[test]
    fn horizon_clears_populated_lanes_and_the_engine_is_reusable() {
        let mut eng: Engine<Vec<u64>> = Engine::new();
        eng.set_horizon(t(2));
        eng.schedule(t(1), |w, _| w.push(1));
        let late: Vec<_> = (0..4).map(|_| eng.schedule(t(5), |_, _| {})).collect();
        eng.cancel(late[2]);
        eng.schedule_every(t(3), SimDuration::from_secs(1), |_, _| {
            ControlFlow::Continue(())
        });
        assert!(eng.laned == 2 && eng.lanes.iter().any(|l| l.dead == 1));
        let mut w = Vec::new();
        eng.run(&mut w);
        assert_eq!(w, vec![1]);
        assert_eq!((eng.pending(), eng.next_event_time()), (0, None));
        assert_eq!(laned_entries(&eng), 0);
        assert!(eng.lanes.iter().all(|l| l.dead == 0));
        assert!(!eng.cancel(late[0]), "ids from before the clear are gone");
        for i in 2..5 {
            eng.schedule(t(2), move |w: &mut Vec<u64>, _| w.push(i));
        }
        assert_eq!(eng.laned, 2);
        eng.run(&mut w);
        assert_eq!(w, vec![1, 2, 3, 4]);
    }

    #[test]
    fn nested_run_to_the_horizon_drops_the_laned_rearm() {
        // The periodic is popped from a lane; a nested `run` inside its
        // callback reaches the horizon and frees its slot under it —
        // whichever way the callback then answers, the slot is not its
        // to re-arm or to free.
        for answer in [ControlFlow::Continue(()), ControlFlow::Break(())] {
            let mut eng: Engine<u64> = Engine::new();
            eng.set_horizon(t(3));
            eng.schedule_every(t(1), SimDuration::from_secs(1), move |w, e| {
                *w += 1;
                if *w == 2 {
                    e.schedule(t(10), |_, _| {});
                    e.run(w);
                    return answer;
                }
                ControlFlow::Continue(())
            });
            let mut w = 0;
            eng.run_until(&mut w, t(1));
            assert_eq!((w, eng.laned), (1, 1), "re-armed onto a lane");
            eng.run(&mut w);
            assert_eq!(w, 2);
            assert_eq!((eng.pending(), laned_entries(&eng)), (0, 0));
        }
    }

    #[test]
    fn stale_id_of_a_laned_entry_misses_the_slots_next_tenant() {
        let mut eng: Engine<Vec<u64>> = Engine::new();
        eng.schedule(t(1), |w, _| w.push(1));
        eng.schedule(t(1), |w, _| w.push(2));
        let a = eng.schedule(t(1), |w, _| w.push(0));
        assert!(eng.cancel(a));
        let b = eng.schedule(t(1), |w, _| w.push(3));
        assert_eq!(a.unpack().1, b.unpack().1, "the slot was reused");
        assert_eq!(laned_entries(&eng), 3, "tombstone and tenant share a lane");
        assert!(!eng.cancel(a), "stale id is generation-checked");
        assert_eq!(eng.pending(), 3);
        let mut w = Vec::new();
        eng.run(&mut w);
        assert_eq!(w, vec![1, 2, 3], "the tombstone does not fire the tenant");
    }

    #[test]
    fn a_rearm_behind_a_fresh_one_shot_opens_a_second_lane() {
        // Same period, same instant: the deadline scheduled from the
        // first task's callback has a fresh seq, the second task's
        // re-arm an old one — it must not queue behind the deadline.
        let mut eng: Engine<Vec<&'static str>> = Engine::new();
        let sec = SimDuration::from_secs(1);
        eng.schedule_every(t(1), sec, move |w, e| {
            w.push("a");
            e.schedule_in(sec, |w: &mut Vec<&'static str>, _| w.push("deadline"));
            ControlFlow::Continue(())
        });
        eng.schedule_every(t(1), sec, |w, _| {
            w.push("b");
            ControlFlow::Continue(())
        });
        let mut w = Vec::new();
        eng.run_until(&mut w, t(3));
        assert_eq!(
            w,
            ["a", "b", "a", "b", "deadline", "a", "b", "deadline"],
            "(at, key, seq): both tasks before the deadline at every instant"
        );
        assert!(eng.heap.is_empty(), "two lanes of one offset, no heap");
        assert_eq!(eng.lanes.iter().filter(|l| l.offset == sec).count(), 2);
    }

    #[test]
    fn offsets_are_measured_after_clamping() {
        let mut eng: Engine<Vec<u64>> = Engine::new();
        eng.schedule(t(10), |w, e| {
            w.push(0);
            // In the past and at now: both are offset 0 once clamped.
            e.schedule(t(1), |w: &mut Vec<u64>, _| w.push(1));
            e.schedule(t(10), |w: &mut Vec<u64>, _| w.push(2));
            let zero = e.lanes.iter().find(|l| !l.q.is_empty()).expect("laned");
            assert_eq!((zero.offset, zero.q.len()), (SimDuration::ZERO, 2));
            assert_eq!(e.next_event_time(), Some(t(10)));
        });
        let mut w = Vec::new();
        eng.run(&mut w);
        assert_eq!(w, vec![0, 1, 2]);
        // A saturated re-arm is keyed by where it landed, not by the
        // interval that sent it there.
        let mut eng: Engine<Vec<u64>> = Engine::new();
        for i in 0..3 {
            eng.schedule_every(t(1), SimDuration::MAX, move |w, _| {
                w.push(i);
                ControlFlow::Continue(())
            });
        }
        eng.run_until(&mut w, t(20));
        assert_eq!(w, vec![0, 1, 2, 0, 1, 2]);
        let far = SimTime(u64::MAX);
        assert_eq!((eng.pending(), eng.next_event_time()), (3, Some(far)));
        let lane = eng.lanes.iter().find(|l| !l.q.is_empty()).expect("laned");
        assert_eq!((lane.offset, lane.q.len()), (far - t(1), 2));
    }

    #[test]
    fn with_every_lane_queueing_a_new_offset_goes_to_the_heap() {
        let mut eng: Engine<Vec<u64>> = Engine::new();
        let n = LANES as u64 + 4;
        // Three entries per offset — the first on the heap, two queueing
        // — fill the lanes with the first LANES offsets; the rest find
        // none to take over.
        for i in (1..=n).rev() {
            for _ in 0..3 {
                eng.schedule(t(i), move |w: &mut Vec<u64>, _| w.push(i));
            }
        }
        assert_eq!((eng.laned, eng.heap.len()), (2 * LANES, LANES + 12));
        let mut w = Vec::new();
        eng.run(&mut w);
        let want: Vec<u64> = (1..=n).flat_map(|i| [i, i, i]).collect();
        assert_eq!(w, want);
    }

    #[test]
    fn a_lone_entry_does_not_hold_a_lane() {
        // Every lane holds one far-off timer when the hot traffic
        // starts: it takes a lane over, the displaced timer fires in
        // order from the heap.
        let mut eng: Engine<Vec<u64>> = Engine::new();
        for i in 0..LANES as u64 {
            for _ in 0..2 {
                eng.schedule(t(10 + i), move |w: &mut Vec<u64>, _| w.push(10 + i));
            }
        }
        assert_eq!((eng.laned, eng.heap.len()), (LANES, LANES));
        for i in 0..100u64 {
            eng.schedule(t(1), move |w: &mut Vec<u64>, _| w.push(i));
        }
        assert_eq!((eng.laned, eng.heap.len()), (LANES + 98, LANES + 2));
        let hot = eng.lanes.iter().find(|l| l.q.len() == 99).expect("laned");
        assert_eq!(hot.offset, SimDuration::from_secs(1));
        let mut w = Vec::new();
        eng.run(&mut w);
        let want: Vec<u64> = (0..100)
            .chain((10..10 + LANES as u64).flat_map(|i| [i, i]))
            .collect();
        assert_eq!(w, want);
    }

    #[test]
    fn an_entry_is_thirty_two_bytes() {
        assert_eq!(std::mem::size_of::<HeapEntry>(), 32);
    }
}
