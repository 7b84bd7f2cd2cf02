#![cfg(test)]
//! Engine unit tests: run_until cut-offs, next-event times and periodic self-cancellation.

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
