//! The engine against a written-down total order: any program must
//! execute on [`Engine`] exactly as on `Model`, a `Vec` kept sorted by
//! `(at, key, seq)` that lives in this file — same events, same instants,
//! same order, same cancel outcomes, same counters.
//!
//! Two program families are interpreted against both and the full
//! execution logs compared:
//!
//! * closures only — one-shots, periodics, nested schedules, mid-run
//!   cancels, `run_until` chunks with a `next_event_time`/`pending` probe
//!   after each, and horizons;
//! * typed events interleaved with keyed closures, periodics and cancels
//!   across the engine's two slabs (the last section of this file).
//!
//! The engine chooses between two queues by what it observes — FIFO
//! lanes for entries that repeat an offset from now, the heap for the
//! rest — so the programs must land on both sides: half of all instants,
//! intervals and delays are drawn from a short palette of the offsets
//! the stack really uses (and small multiples), the other half
//! uniformly.

use fluxpm_sim::{Engine, Event, EventId, SimDuration, SimTime};
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

/// Interpret `program` on the engine.
fn run_engine(program: &[Op], horizon_us: Option<u64>, cuts_us: [u64; 3]) -> (Log, u64, usize) {
    let mut eng: Engine<Log> = Engine::new();
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
                let id = eng.schedule(SimTime::from_micros(at_us), move |w: &mut Log, e| {
                    w.push((e.now().as_micros(), label));
                    if let Some(d) = nested_in_us {
                        e.schedule_in(SimDuration::from_micros(d), move |w: &mut Log, e| {
                            w.push((e.now().as_micros(), 10_000 + label));
                        });
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
                            e.schedule_in(SimDuration::from_micros(d), move |w: &mut Log, e| {
                                w.push((e.now().as_micros(), 60_000 + label));
                            });
                        }
                        if let Some(d) = cancel_in_us {
                            let deadline = e.schedule_in(
                                SimDuration::from_micros(DEADLINE_US),
                                move |w: &mut Log, e| {
                                    w.push((e.now().as_micros(), 70_000 + label));
                                },
                            );
                            e.schedule_in(SimDuration::from_micros(d), move |w: &mut Log, e| {
                                let tag = if e.cancel(deadline) { 80_000 } else { 90_000 };
                                w.push((e.now().as_micros(), tag + label));
                            });
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
                let id = eng.schedule(SimTime::from_micros(at_us), move |w: &mut Log, e| {
                    let hit = target.is_some_and(|t| e.cancel(t));
                    let tag = if hit { 30_000 } else { 40_000 };
                    w.push((e.now().as_micros(), tag + label));
                });
                ids.push(id);
            }
        }
    }
    let mut log = Log::new();
    // Run in chunks with a probe after each: run_until semantics (a
    // cut-off behind the clock included), live pending counts and
    // next_event_time — a read of the heap root and the lane heads on
    // the engine, of the first entry of a sorted `Vec` on the model —
    // must all agree.
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

/// Interpret `program` on the model, step for step as [`run_engine`].
fn run_model(program: &[Op], horizon_us: Option<u64>, cuts_us: [u64; 3]) -> (Log, u64, usize) {
    let mut model = Model::new(horizon_us);
    let mut seqs = Vec::new();
    for (i, op) in program.iter().enumerate() {
        let label = i as u32;
        let (at_us, action) = match *op {
            Op::Once {
                at_us,
                nested_in_us,
            } => (
                at_us,
                Action::Log {
                    label,
                    nested_in_us,
                },
            ),
            Op::Every {
                at_us,
                interval_us,
                fires,
                hop_us,
                cancel_in_us,
            } => (
                at_us,
                Action::Every {
                    label,
                    interval_us,
                    left: fires,
                    hop_us,
                    cancel_in_us,
                },
            ),
            Op::Cancel { at_us, target_raw } => (
                at_us,
                Action::Cancel {
                    hit: 30_000 + label,
                    target: seqs.get(target_raw % i.max(1)).copied(),
                },
            ),
        };
        seqs.push(model.schedule(at_us, 0, action));
    }
    for cut_us in cuts_us {
        model.run_until(cut_us);
        model.probe();
    }
    model.run()
}

proptest! {
    #[test]
    fn engines_execute_identically(
        program in prop::collection::vec(op_strategy(), 1..40),
        horizon_us in prop::option::of(5_000_000u64..60_000_000),
        cuts_us in (micros(0..45_000_000), micros(0..45_000_000), micros(0..45_000_000)),
    ) {
        let cuts_us = [cuts_us.0, cuts_us.1, cuts_us.2];
        prop_assert_eq!(
            run_engine(&program, horizon_us, cuts_us),
            run_model(&program, horizon_us, cuts_us)
        );
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
        run_engine(&program, None, cuts),
        run_model(&program, None, cuts)
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
        let got = run_engine(&program, horizon_us, cuts);
        assert_eq!(got, run_model(&program, horizon_us, cuts));
        let hits = got.0.iter().filter(|(_, l)| (80_000..90_000).contains(l));
        assert!(hits.count() >= 2 * n_every, "deadlines were cancelled");
        assert_eq!(got.2, 0, "drained, or cleared by the horizon");
    }
}

// ---------------------------------------------------------------------
// The model: the total order written down
// ---------------------------------------------------------------------

/// What a pending entry of the model does when it is popped.
#[derive(Clone, Copy)]
enum Action {
    /// Log `label`; a child `nested_in_us` later logs `10_000 + label`
    /// under the same key.
    Log {
        label: u32,
        nested_in_us: Option<u64>,
    },
    /// Log `20_000 + label`, send the hop and arm the deadline, re-arm
    /// while firings are `left`.
    Every {
        label: u32,
        interval_us: u64,
        left: u32,
        hop_us: Option<u64>,
        cancel_in_us: Option<u64>,
    },
    /// Cancel `target` — the sequence number it was created under,
    /// unique for the life of an event, like its id — and log `hit`, or
    /// `hit + 10_000` on a miss.
    Cancel { hit: u32, target: Option<u64> },
}

/// The queue as a `Vec` kept sorted by `(at, key, seq)`, with nothing of
/// the engine's in it.
struct Model {
    now_us: u64,
    seq: u64,
    pending: Vec<((u64, u64, u64), Action)>,
    horizon_us: Option<u64>,
    log: Log,
    executed: u64,
}

impl Model {
    fn new(horizon_us: Option<u64>) -> Model {
        Model {
            now_us: 0,
            seq: 0,
            pending: Vec::new(),
            horizon_us,
            log: Log::new(),
            executed: 0,
        }
    }

    fn schedule(&mut self, at_us: u64, key: u64, action: Action) -> u64 {
        let seq = self.seq;
        self.seq += 1;
        self.insert((at_us.max(self.now_us), key, seq), action);
        seq
    }

    fn insert(&mut self, order: (u64, u64, u64), action: Action) {
        let at = self.pending.partition_point(|(o, _)| *o < order);
        self.pending.insert(at, (order, action));
    }

    /// Run the first entry unless it is later than `until_us`; one past
    /// the horizon clears the queue instead. Returns whether one ran.
    fn step_until(&mut self, until_us: u64) -> bool {
        let Some(&((at_us, key, seq), action)) = self.pending.first() else {
            return false;
        };
        if at_us > until_us {
            return false;
        }
        if self.horizon_us.is_some_and(|h| at_us > h) {
            self.pending.clear();
            return false;
        }
        self.pending.remove(0);
        self.now_us = at_us;
        self.executed += 1;
        match action {
            Action::Log {
                label,
                nested_in_us,
            } => {
                self.log.push((at_us, label));
                if let Some(d) = nested_in_us {
                    let child = Action::Log {
                        label: 10_000 + label,
                        nested_in_us: None,
                    };
                    self.schedule(at_us + d, key, child);
                }
            }
            Action::Every {
                label,
                interval_us,
                left,
                hop_us,
                cancel_in_us,
            } => {
                self.log.push((at_us, 20_000 + label));
                if let Some(d) = hop_us {
                    let hop = Action::Log {
                        label: 60_000 + label,
                        nested_in_us: None,
                    };
                    self.schedule(at_us + d, 0, hop);
                }
                if let Some(d) = cancel_in_us {
                    let deadline = Action::Log {
                        label: 70_000 + label,
                        nested_in_us: None,
                    };
                    let deadline = self.schedule(at_us + DEADLINE_US, 0, deadline);
                    let cancel = Action::Cancel {
                        hit: 80_000 + label,
                        target: Some(deadline),
                    };
                    self.schedule(at_us + d, 0, cancel);
                }
                if left > 1 {
                    let again = Action::Every {
                        label,
                        interval_us,
                        left: left - 1,
                        hop_us,
                        cancel_in_us,
                    };
                    // A re-arm keeps the sequence number it was armed
                    // with.
                    self.insert((at_us + interval_us, 0, seq), again);
                }
            }
            Action::Cancel { hit, target } => {
                let found =
                    target.and_then(|t| self.pending.iter().position(|((_, _, s), _)| *s == t));
                if let Some(at) = found {
                    self.pending.remove(at);
                }
                let tag = if found.is_some() { hit } else { hit + 10_000 };
                self.log.push((at_us, tag));
            }
        }
        true
    }

    /// Run every entry up to `until_us` inclusive; the clock advances to
    /// it.
    fn run_until(&mut self, until_us: u64) {
        while self.step_until(until_us) {}
        self.now_us = self.now_us.max(until_us);
    }

    /// Log the next instant (`u64::MAX`: none) and `50_000 + pending`.
    fn probe(&mut self) {
        let next = self.pending.first().map_or(u64::MAX, |((at, _, _), _)| *at);
        self.log.push((next, 50_000 + self.pending.len() as u32));
    }

    /// Run to the end (or the horizon): the log, events executed and
    /// events left.
    fn run(mut self) -> (Log, u64, usize) {
        while self.step_until(u64::MAX) {}
        (self.log, self.executed, self.pending.len())
    }
}

// ---------------------------------------------------------------------
// Typed events: one total order over two slabs
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum TypedOp {
    /// `schedule_event(at, key, ..)`; the event can schedule a typed
    /// child `nested_in_us` later under its own key.
    Event {
        at_us: u64,
        key: u64,
        nested_in_us: Option<u64>,
    },
    /// `schedule_keyed(at, key, closure)`.
    Closure { at_us: u64, key: u64 },
    /// A periodic closure; every firing schedules a key-0 typed event
    /// `hop_us` later.
    Every {
        at_us: u64,
        interval_us: u64,
        fires: u32,
        hop_us: u64,
    },
    /// Cancels the `target_raw % i`-th created event — from a typed
    /// event or from a closure, whichever slab the target sits in.
    Cancel {
        at_us: u64,
        key: u64,
        target_raw: usize,
        typed: bool,
    },
}

/// Few instants and fewer keys, so that most events tie on the instant
/// and many on the key; `1 << 63` is where a delivery key starts.
fn typed_op_strategy() -> impl Strategy<Value = TypedOp> {
    let at = || prop_oneof![(0u64..6).prop_map(|s| s * 1_000_000), micros(0..6_000_000)];
    let key = || {
        prop_oneof![
            3 => 0u64..1,
            2 => 1u64..4,
            1 => (0u64..3).prop_map(|k| (1 << 63) | k),
        ]
    };
    prop_oneof![
        4 => (at(), key(), prop::option::of(micros(0..2_000_000)))
            .prop_map(|(at_us, key, nested_in_us)| TypedOp::Event { at_us, key, nested_in_us }),
        2 => (at(), key()).prop_map(|(at_us, key)| TypedOp::Closure { at_us, key }),
        1 => (at(), micros(1..3_000_000), 1u32..5, micros(0..2_000_000))
            .prop_map(|(at_us, interval_us, fires, hop_us)| TypedOp::Every {
                at_us,
                interval_us: interval_us.max(1),
                fires,
                hop_us,
            }),
        2 => (at(), key(), 0usize..64, any::<bool>())
            .prop_map(|(at_us, key, target_raw, typed)| TypedOp::Cancel {
                at_us,
                key,
                target_raw,
                typed,
            }),
    ]
}

enum Ev {
    Log {
        label: u32,
        key: u64,
        nested_in_us: Option<u64>,
    },
    Cancel {
        label: u32,
        target: Option<EventId>,
    },
}

fn log_cancel(w: &mut Log, e: &mut Engine<Log, Ev>, label: u32, target: Option<EventId>) {
    let hit = target.is_some_and(|t| e.cancel(t));
    let tag = if hit { 30_000 } else { 40_000 };
    w.push((e.now().as_micros(), tag + label));
}

impl Event<Log> for Ev {
    fn fire(self, w: &mut Log, e: &mut Engine<Log, Ev>) {
        match self {
            Ev::Log {
                label,
                key,
                nested_in_us,
            } => {
                w.push((e.now().as_micros(), label));
                if let Some(d) = nested_in_us {
                    let child = Ev::Log {
                        label: 10_000 + label,
                        key,
                        nested_in_us: None,
                    };
                    e.schedule_event(e.now() + SimDuration::from_micros(d), key, child);
                }
            }
            Ev::Cancel { label, target } => log_cancel(w, e, label, target),
        }
    }
}

fn run_typed(program: &[TypedOp], horizon_us: Option<u64>) -> (Log, u64, usize) {
    let mut eng: Engine<Log, Ev> = Engine::new();
    if let Some(h) = horizon_us {
        eng.set_horizon(SimTime::from_micros(h));
    }
    let mut ids = Vec::new();
    for (i, op) in program.iter().enumerate() {
        let label = i as u32;
        let id = match *op {
            TypedOp::Event {
                at_us,
                key,
                nested_in_us,
            } => {
                let ev = Ev::Log {
                    label,
                    key,
                    nested_in_us,
                };
                eng.schedule_event(SimTime::from_micros(at_us), key, ev)
            }
            TypedOp::Closure { at_us, key } => {
                eng.schedule_keyed(SimTime::from_micros(at_us), key, move |w: &mut Log, e| {
                    w.push((e.now().as_micros(), label));
                })
            }
            TypedOp::Every {
                at_us,
                interval_us,
                fires,
                hop_us,
            } => {
                let mut left = fires;
                eng.schedule_every(
                    SimTime::from_micros(at_us),
                    SimDuration::from_micros(interval_us),
                    move |w: &mut Log, e| {
                        w.push((e.now().as_micros(), 20_000 + label));
                        let hop = Ev::Log {
                            label: 60_000 + label,
                            key: 0,
                            nested_in_us: None,
                        };
                        e.schedule_event(e.now() + SimDuration::from_micros(hop_us), 0, hop);
                        left -= 1;
                        if left == 0 {
                            ControlFlow::Break(())
                        } else {
                            ControlFlow::Continue(())
                        }
                    },
                )
            }
            TypedOp::Cancel {
                at_us,
                key,
                target_raw,
                typed,
            } => {
                let target = ids.get(target_raw % i.max(1)).copied();
                let at = SimTime::from_micros(at_us);
                if typed {
                    eng.schedule_event(at, key, Ev::Cancel { label, target })
                } else {
                    eng.schedule_keyed(at, key, move |w: &mut Log, e| {
                        log_cancel(w, e, label, target)
                    })
                }
            }
        };
        ids.push(id);
    }
    let mut log = Log::new();
    eng.run(&mut log);
    (log, eng.executed(), eng.pending())
}

fn run_typed_model(program: &[TypedOp], horizon_us: Option<u64>) -> (Log, u64, usize) {
    let mut model = Model::new(horizon_us);
    let mut seqs = Vec::new();
    for (i, op) in program.iter().enumerate() {
        let label = i as u32;
        let seq = match *op {
            TypedOp::Event {
                at_us,
                key,
                nested_in_us,
            } => model.schedule(
                at_us,
                key,
                Action::Log {
                    label,
                    nested_in_us,
                },
            ),
            TypedOp::Closure { at_us, key } => model.schedule(
                at_us,
                key,
                Action::Log {
                    label,
                    nested_in_us: None,
                },
            ),
            TypedOp::Every {
                at_us,
                interval_us,
                fires,
                hop_us,
            } => model.schedule(
                at_us,
                0,
                Action::Every {
                    label,
                    interval_us,
                    left: fires,
                    hop_us: Some(hop_us),
                    cancel_in_us: None,
                },
            ),
            TypedOp::Cancel {
                at_us,
                key,
                target_raw,
                ..
            } => {
                let target = seqs.get(target_raw % i.max(1)).copied();
                let cancel = Action::Cancel {
                    hit: 30_000 + label,
                    target,
                };
                model.schedule(at_us, key, cancel)
            }
        };
        seqs.push(seq);
    }
    model.run()
}

proptest! {
    #[test]
    fn typed_events_interleave_in_the_total_order(
        program in prop::collection::vec(typed_op_strategy(), 1..48),
        horizon_us in prop::option::of(1_000_000u64..9_000_000),
    ) {
        prop_assert_eq!(run_typed(&program, horizon_us), run_typed_model(&program, horizon_us));
    }
}

/// Same-instant ties, spelled out: at one microsecond, key-0 events in
/// schedule order whichever slab holds them, then keys ascending, equal
/// keys in schedule order again; a typed cancel takes a closure out of
/// the pile and a closure cancel a typed event.
#[test]
fn same_instant_keyed_ties_match_the_model() {
    let at_us = 1_000_000;
    let event = |key| TypedOp::Event {
        at_us,
        key,
        nested_in_us: Some(0),
    };
    let closure = |key| TypedOp::Closure { at_us, key };
    let program = vec![
        event(1 << 63),
        closure(2),
        event(2),
        closure(0),
        event(0),
        TypedOp::Every {
            at_us,
            interval_us: 1_000_000,
            fires: 3,
            hop_us: 0,
        },
        closure(1 << 63),
        event(2),
        TypedOp::Cancel {
            at_us,
            key: 1,
            target_raw: 1,
            typed: true,
        },
        TypedOp::Cancel {
            at_us,
            key: 1,
            target_raw: 7,
            typed: false,
        },
        TypedOp::Cancel {
            at_us: 2_000_000,
            key: 0,
            target_raw: 5,
            typed: true,
        },
    ];
    let got = run_typed(&program, None);
    assert_eq!(got, run_typed_model(&program, None));
    let labels: Vec<u32> = got.0.iter().map(|&(_, label)| label).collect();
    assert_eq!(
        labels,
        [
            3, 4, 20_005, 10_004, 60_005, 30_008, 30_009, 2, 10_002, 0, 6, 10_000, 20_005, 30_010,
            60_005
        ]
    );
}
