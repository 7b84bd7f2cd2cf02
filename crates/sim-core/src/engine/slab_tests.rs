#![cfg(test)]
//! Engine unit tests: the slab: slot reuse, stale ids, keyed order and the horizon.

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
