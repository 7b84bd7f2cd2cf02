#![cfg(test)]
//! Engine unit tests: typed events beside closures: one total order, cancellation, slab sizes.

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
