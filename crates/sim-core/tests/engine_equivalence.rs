//! Dual-engine cross-check: the optimized slab/d-ary-heap engine must
//! execute any program *identically* to the reference map-based engine
//! ([`fluxpm_sim::BaselineEngine`]) — same events, same instants, same
//! order, same cancel outcomes, same counters. Random programs of
//! one-shots, periodics, nested schedules, mid-run cancels, run-until
//! chunks, and horizons are interpreted against both and the full
//! execution logs compared.
//!
//! The optimized engine chooses between two queues by what it observes
//! — FIFO lanes for entries that repeat an offset from now, the heap for
//! the rest — so the programs must land on both sides: half of all
//! instants, intervals and delays are drawn from a short palette of the
//! offsets the stack really uses (and small multiples), the other half
//! uniformly.

use fluxpm_sim::{BaselineEngine, Engine, SimDuration, SimTime};
use proptest::prelude::*;
use std::ops::ControlFlow;

/// `(fired_at_us, label)` per executed event, plus synthetic probe rows.
type Log = Vec<(u64, u32)>;

#[derive(Debug, Clone)]
enum Op {
    /// One-shot at `at_us`; optionally schedules a nested child
    /// `nested_in_us` after it fires (exercises in-execution scheduling
    /// and past-clamping when the delay is zero).
    Once {
        at_us: u64,
        nested_in_us: Option<u64>,
    },
    /// Periodic from `at_us` every `interval_us`, breaking after
    /// `fires` firings. A firing can schedule a one-shot `hop_us` later
    /// (the message a timer sends), and a deadline [`DEADLINE_US`] later
    /// together with a one-shot `cancel_in_us` later that cancels it
    /// (the RPC a timer issues; the cancel misses if it comes too late).
    Every {
        at_us: u64,
        interval_us: u64,
        fires: u32,
        hop_us: Option<u64>,
        cancel_in_us: Option<u64>,
    },
    /// One-shot at `at_us` that cancels the `target_raw % i`-th created
    /// event (skipped for the first op); logs whether the cancel hit.
    Cancel { at_us: u64, target_raw: usize },
}

/// How long after a firing its deadline falls due.
const DEADLINE_US: u64 = 1_000_000;

/// Offsets the stack schedules at — same instant, TBON hop, congested
/// hop, push period, sample period.
const PALETTE_US: [u64; 5] = [0, 20, 120, 1_000_000, 2_000_000];

/// Microseconds: half the time uniform in `range`, half the time a
/// palette entry times 1..=4, so programs pile onto shared offsets.
fn micros(range: std::ops::Range<u64>) -> impl Strategy<Value = u64> {
    prop_oneof![
        range,
        (0..PALETTE_US.len(), 1u64..5).prop_map(|(i, k)| PALETTE_US[i] * k),
    ]
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (micros(0..40_000_000), prop::option::of(micros(0..3_000_000)))
            .prop_map(|(at_us, nested_in_us)| Op::Once { at_us, nested_in_us }),
        1 => (
            micros(0..30_000_000),
            micros(1..8_000_000),
            1u32..5,
            prop::option::of(micros(0..3_000_000)),
            prop::option::of(micros(0..3_000_000)),
        )
            .prop_map(|(at_us, interval_us, fires, hop_us, cancel_in_us)| Op::Every {
                at_us,
                interval_us: interval_us.max(1),
                fires,
                hop_us,
                cancel_in_us,
            }),
        1 => (micros(0..40_000_000), 0usize..64)
            .prop_map(|(at_us, target_raw)| Op::Cancel { at_us, target_raw }),
    ]
}

/// Expand an interpreter for one engine type. The two engines have
/// structurally identical APIs but closures are typed per-engine, so a
/// generic fn cannot cover both without a unifying trait; a macro keeps
/// the two interpreters textually identical instead.
macro_rules! interpreter {
    ($name:ident, $engine:ty) => {
        fn $name(program: &[Op], horizon_us: Option<u64>, cuts_us: [u64; 3]) -> (Log, u64, usize) {
            let mut eng: $engine = <$engine>::new();
            if let Some(h) = horizon_us {
                eng.set_horizon(SimTime::from_micros(h));
            }
            let mut ids = Vec::new();
            for (i, op) in program.iter().enumerate() {
                let label = i as u32;
                match *op {
                    Op::Once {
                        at_us,
                        nested_in_us,
                    } => {
                        let id =
                            eng.schedule(SimTime::from_micros(at_us), move |w: &mut Log, e| {
                                w.push((e.now().as_micros(), label));
                                if let Some(d) = nested_in_us {
                                    e.schedule_in(
                                        SimDuration::from_micros(d),
                                        move |w: &mut Log, e| {
                                            w.push((e.now().as_micros(), 10_000 + label));
                                        },
                                    );
                                }
                            });
                        ids.push(id);
                    }
                    Op::Every {
                        at_us,
                        interval_us,
                        fires,
                        hop_us,
                        cancel_in_us,
                    } => {
                        let mut left = fires;
                        let id = eng.schedule_every(
                            SimTime::from_micros(at_us),
                            SimDuration::from_micros(interval_us),
                            move |w: &mut Log, e| {
                                w.push((e.now().as_micros(), 20_000 + label));
                                if let Some(d) = hop_us {
                                    e.schedule_in(
                                        SimDuration::from_micros(d),
                                        move |w: &mut Log, e| {
                                            w.push((e.now().as_micros(), 60_000 + label));
                                        },
                                    );
                                }
                                if let Some(d) = cancel_in_us {
                                    let deadline = e.schedule_in(
                                        SimDuration::from_micros(DEADLINE_US),
                                        move |w: &mut Log, e| {
                                            w.push((e.now().as_micros(), 70_000 + label));
                                        },
                                    );
                                    e.schedule_in(
                                        SimDuration::from_micros(d),
                                        move |w: &mut Log, e| {
                                            let tag =
                                                if e.cancel(deadline) { 80_000 } else { 90_000 };
                                            w.push((e.now().as_micros(), tag + label));
                                        },
                                    );
                                }
                                left -= 1;
                                if left == 0 {
                                    ControlFlow::Break(())
                                } else {
                                    ControlFlow::Continue(())
                                }
                            },
                        );
                        ids.push(id);
                    }
                    Op::Cancel { at_us, target_raw } => {
                        let target = ids.get(target_raw % i.max(1)).copied();
                        let id =
                            eng.schedule(SimTime::from_micros(at_us), move |w: &mut Log, e| {
                                let hit = target.map(|t| e.cancel(t)).unwrap_or(false);
                                let tag = if hit { 30_000 } else { 40_000 };
                                w.push((e.now().as_micros(), tag + label));
                            });
                        ids.push(id);
                    }
                }
            }
            let mut log = Log::new();
            // Run in chunks with a probe after each: run_until
            // semantics (a cut-off behind the clock included), live
            // pending counts and next_event_time — a scan of the heap
            // root and the lane heads on one side, of every pending
            // event on the other — must all agree.
            for cut_us in cuts_us {
                eng.run_until(&mut log, SimTime::from_micros(cut_us));
                log.push((
                    eng.next_event_time()
                        .map(SimTime::as_micros)
                        .unwrap_or(u64::MAX),
                    50_000 + eng.pending() as u32,
                ));
            }
            eng.run(&mut log);
            (log, eng.executed(), eng.pending())
        }
    };
}

interpreter!(run_new, Engine<Log>);
interpreter!(run_baseline, BaselineEngine<Log>);

proptest! {
    #[test]
    fn engines_execute_identically(
        program in prop::collection::vec(op_strategy(), 1..40),
        horizon_us in prop::option::of(5_000_000u64..60_000_000),
        cuts_us in (micros(0..45_000_000), micros(0..45_000_000), micros(0..45_000_000)),
    ) {
        let cuts_us = [cuts_us.0, cuts_us.1, cuts_us.2];
        let new = run_new(&program, horizon_us, cuts_us);
        let old = run_baseline(&program, horizon_us, cuts_us);
        prop_assert_eq!(new, old);
    }
}

/// A dense same-instant pile-up: FIFO among one-shots, periodics
/// keeping their original arming position across re-arms.
#[test]
fn same_instant_pileup_matches_baseline() {
    let program: Vec<Op> = (0..20)
        .map(|i| {
            if i % 4 == 0 {
                Op::Every {
                    at_us: 1_000_000,
                    interval_us: 1_000_000,
                    fires: 4,
                    hop_us: None,
                    cancel_in_us: None,
                }
            } else {
                Op::Once {
                    at_us: 1_000_000 + (i % 3) * 1_000_000,
                    nested_in_us: Some(0),
                }
            }
        })
        .collect();
    let cuts = [1_000_000, 2_500_000, 2_000_000];
    assert_eq!(
        run_new(&program, None, cuts),
        run_baseline(&program, None, cuts)
    );
}

/// The traffic the stackbench workloads were measured to produce
/// (DESIGN.md §17), scaled down: periodics on two periods at one phase,
/// each firing sending a constant-latency hop and arming a now + 1 s
/// deadline that is cancelled 60 % of the time — mid-lane and, for the
/// first deadlines of an instant, at the lane's head. Around them, what
/// pushes entries off the lanes: a re-arm (old seq) behind a fresh
/// one-shot for the same instant, a same-period task armed later at an
/// earlier phase, more distinct offsets than there are lanes, a lane
/// that drains and is re-keyed, and a horizon in mid-run.
#[test]
fn measured_mix_matches_baseline() {
    let mut program = Vec::new();
    for i in 0..30u64 {
        program.push(Op::Every {
            at_us: 1_000_000,
            interval_us: if i % 3 == 2 { 2_000_000 } else { 1_000_000 },
            fires: 9,
            hop_us: Some(if i % 2 == 0 { 20 } else { 120 }),
            // Cancelled half a second in (a hit), 1.5 s in (too late),
            // or never: 18 of 30 deadlines go, the first three of every
            // instant from the head of their lane.
            cancel_in_us: match i % 5 {
                0..=2 => Some(500_000),
                3 => Some(1_500_000),
                _ => None,
            },
        });
    }
    // Armed after the others, same period, half a second ahead of them.
    program.push(Op::Every {
        at_us: 500_000,
        interval_us: 1_000_000,
        fires: 9,
        hop_us: Some(20),
        cancel_in_us: Some(500_000),
    });
    // Twelve distinct offsets pending at once, armed latest-first, each
    // with a nested child on yet another offset; then cancels of events
    // on both queues, early enough to hit.
    for i in (0..12u64).rev() {
        program.push(Op::Once {
            at_us: 3_000_000 + i * 70_001,
            nested_in_us: Some(300 + i),
        });
    }
    for (k, target_raw) in [0usize, 7, 31, 33, 40, 41].into_iter().enumerate() {
        program.push(Op::Cancel {
            at_us: 2_999_999 + k as u64 % 2,
            target_raw,
        });
    }
    let n_every = program
        .iter()
        .filter(|op| matches!(op, Op::Every { .. }))
        .count();
    // Cut-offs on a busy instant, between two, and behind the clock.
    let cuts = [2_000_000, 4_500_020, 3_000_000];
    for horizon_us in [None, Some(6_000_119), Some(6_500_000)] {
        let new = run_new(&program, horizon_us, cuts);
        assert_eq!(new, run_baseline(&program, horizon_us, cuts));
        let hits = new.0.iter().filter(|(_, l)| (80_000..90_000).contains(l));
        assert!(hits.count() >= 2 * n_every, "deadlines were cancelled");
        assert_eq!(new.2, 0, "drained, or cleared by the horizon");
    }
}
