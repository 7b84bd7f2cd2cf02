#![cfg(test)]
//! Engine unit tests: the engine's basic contract: time order, FIFO ties, cancellation, periodic events and the horizon.

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
