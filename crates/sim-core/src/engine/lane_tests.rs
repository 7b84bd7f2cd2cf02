#![cfg(test)]
//! Engine unit tests: the periodic lanes: when an offset earns a lane, cancellation inside one, tombstones.

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
