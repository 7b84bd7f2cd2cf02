//! Deterministic workloads shared by the `sim_hot_path` and
//! `congestion` bench targets and by stackbench (`benchmark/`).

use fluxpm_flux::{
    payload, FaultPlan, FluxEngine, Message, Module, ModuleCtx, MsgKind, Rank, Topic, World,
};
use fluxpm_hw::MachineKind;
use fluxpm_sim::{Engine, SimDuration, SimTime, Xoshiro256pp};
use std::cell::RefCell;
use std::ops::ControlFlow;
use std::rc::Rc;

/// Mixed schedule/cancel/periodic churn: `n` events at random instants
/// over 10 simulated seconds, every seventh a periodic task, half the
/// one-shots scheduling a nested follow-up, and every third op
/// cancelling a random earlier event. Returns events executed.
pub fn churn(n: usize, seed: u64) -> u64 {
    let mut eng: Engine<u64> = Engine::new();
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let mut ids = Vec::with_capacity(n);
    for i in 0..n {
        let at = SimTime::from_micros(rng.below(10_000_000));
        if i % 7 == 6 {
            // Periodic task: four firings, then stop.
            let interval = SimDuration::from_micros(1 + rng.below(500_000));
            let mut left = 4u32;
            ids.push(eng.schedule_every(at, interval, move |w: &mut u64, _e| {
                *w += 1;
                left -= 1;
                if left == 0 {
                    ControlFlow::Break(())
                } else {
                    ControlFlow::Continue(())
                }
            }));
        } else {
            // One-shot; half of them schedule a nested follow-up
            // (in-execution scheduling, the module-timer pattern).
            let nested = i % 2 == 0;
            ids.push(eng.schedule(at, move |w: &mut u64, e| {
                *w += 1;
                if nested {
                    e.schedule_in(SimDuration::from_micros(1000), |w: &mut u64, _e| {
                        *w += 1;
                    });
                }
            }));
        }
        if i % 3 == 0 {
            let victim = ids[rng.below(ids.len() as u64) as usize];
            eng.cancel(victim);
        }
    }
    let mut world = 0u64;
    eng.run(&mut world);
    eng.executed()
}

/// The experiment-driver pattern of polling
/// [`next_event_time`](Engine::next_event_time) to advance tick by
/// tick: schedules `n` one-shots over 10 simulated seconds, cancels a
/// third of them, then drains in `slices` cutoff steps, polling
/// `next_event_time` before every event. Returns events executed.
pub fn sliced_drain(n: usize, slices: u64, seed: u64) -> u64 {
    let mut eng: Engine<u64> = Engine::new();
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let mut ids = Vec::with_capacity(n);
    for i in 0..n {
        let at = SimTime::from_micros(rng.below(10_000_000));
        ids.push(eng.schedule(at, |w: &mut u64, _e| *w += 1));
        if i % 3 == 0 {
            let victim = ids[rng.below(ids.len() as u64) as usize];
            eng.cancel(victim);
        }
    }
    let mut world = 0u64;
    for s in 1..=slices {
        let cut = SimTime::from_micros(s * 10_000_000 / slices);
        while eng.next_event_time().is_some_and(|t| t <= cut) {
            eng.step(&mut world);
        }
    }
    eng.executed()
}

/// The traffic the stackbench workloads were measured to put on the
/// event queue (DESIGN.md §17), which the two workloads above — a unique
/// random instant per event — are the opposite of. Every event repeats
/// one of a few offsets from now: periodic re-arms, constant-latency
/// hops, and RPC deadlines that mostly never fire.
///
/// `nodes` periodic tasks, two thirds on a 1 s period and one third on
/// 2 s, all first firing at t = 1 s. Each firing arms a deadline at
/// now + 1 s and sends a message over two 20 µs hops; 60 % of the time
/// (drawn from `seed`) the message is answered and its last hop cancels
/// the deadline. Runs to a horizon at `seconds`; returns events
/// executed.
pub fn timer_mix(nodes: usize, seconds: u64, seed: u64) -> u64 {
    const HOP: SimDuration = SimDuration::from_micros(20);
    const SEC: SimDuration = SimDuration::from_secs(1);
    let mut eng: Engine<u64> = Engine::new();
    eng.set_horizon(SimTime::from_secs(seconds));
    let mut seeds = Xoshiro256pp::seed_from_u64(seed);
    for i in 0..nodes {
        let mut rng = Xoshiro256pp::seed_from_u64(seeds.next_u64());
        let interval = if i % 3 == 2 { SEC + SEC } else { SEC };
        eng.schedule_every(SimTime::from_secs(1), interval, move |w: &mut u64, e| {
            *w += 1;
            let deadline = e.schedule_in(SEC, |w: &mut u64, _e| *w += 1);
            let answered = rng.below(10) < 6;
            e.schedule_in(HOP, move |w: &mut u64, e| {
                *w += 1;
                e.schedule_in(HOP, move |w: &mut u64, e| {
                    *w += 1;
                    if answered {
                        e.cancel(deadline);
                    }
                });
            });
            ControlFlow::Continue(())
        });
    }
    let mut world = 0u64;
    eng.run(&mut world);
    eng.executed()
}

/// A module that answers `bench.echo` requests with their own payload —
/// the minimal responder for measuring raw overlay delivery cost.
struct BenchEcho {
    echo: Topic,
}

impl Module for BenchEcho {
    fn name(&self) -> &'static str {
        "bench-echo"
    }
    fn topics(&self) -> Vec<Topic> {
        vec![self.echo.clone()]
    }
    fn load(&mut self, _ctx: &mut ModuleCtx<'_>) {}
    fn handle(&mut self, ctx: &mut ModuleCtx<'_>, msg: &Message) {
        if msg.kind == MsgKind::Request {
            ctx.world.respond(ctx.eng, msg, Rc::clone(&msg.payload));
        }
    }
}

/// A world + engine pair wired for delivery benchmarks: `nnodes` Lassen
/// nodes in a binary TBON with a `BenchEcho` responder on the last
/// (deepest) rank.
pub struct DeliveryRig {
    /// The Flux instance.
    pub world: World,
    /// Its engine.
    pub eng: FluxEngine,
    /// The echo responder's rank (the deepest rank of the tree).
    pub target: Rank,
    /// The echo topic, interned once like any module's (so a round trip
    /// prices the overlay, not the intern table).
    echo: Topic,
}

impl DeliveryRig {
    /// Build the rig.
    pub fn new(nnodes: u32) -> DeliveryRig {
        let mut world = World::new(MachineKind::Lassen, nnodes, 1);
        let mut eng: FluxEngine = Engine::new();
        let target = Rank(nnodes - 1);
        let echo = Topic::intern("bench.echo");
        let responder = Rc::new(RefCell::new(BenchEcho { echo: echo.clone() }));
        assert!(world.load_module(&mut eng, target, responder));
        DeliveryRig {
            world,
            eng,
            target,
            echo,
        }
    }

    /// Hop count of the root → target route.
    pub fn hops(&self) -> u32 {
        let route = self
            .world
            .tbon
            .route(Rank(0), self.target)
            .expect("routable");
        route.len() as u32 - 1
    }

    /// Build the rig with the target's uplink congested at `severity`
    /// for the first simulated hour. Echo round trips then pay the
    /// link's serialization + queueing delay on the last hop both ways,
    /// which prices the congestion-aware delivery path (queue
    /// bookkeeping, severity lookup, EWMA updates) against the clean
    /// rig's fast path.
    pub fn congested(nnodes: u32, severity: f64) -> DeliveryRig {
        let mut rig = DeliveryRig::new(nnodes);
        let parent = rig
            .world
            .tbon
            .parent(rig.target)
            .expect("target has an uplink");
        let plan = FaultPlan::uniform(0.0, SimDuration::ZERO).with_congestion(
            parent,
            rig.target,
            SimTime::ZERO..SimTime::from_secs(3_600),
            severity,
        );
        rig.world.install_fault_plan(plan);
        rig
    }

    /// Issue one root → target echo RPC and drain the engine; panics if
    /// the response does not arrive (nothing in this rig drops traffic).
    pub fn roundtrip(&mut self) {
        let done = Rc::new(RefCell::new(false));
        let done2 = Rc::clone(&done);
        self.world.rpc(self.target, &self.echo, payload(7u64)).send(
            &mut self.eng,
            move |_w, _e, resp| {
                assert!(resp.is_ok());
                *done2.borrow_mut() = true;
            },
        );
        self.eng.run(&mut self.world);
        assert!(*done.borrow(), "echo response lost");
    }
}

/// A warm 256-rank world with the monitor stack loaded, for pricing one
/// message of the telemetry plane: a `relay-deltas` event from the root
/// to its first child, sent and delivered (route, link model, event
/// queue, topic dispatch, typed decode, relay ingest). The node agents
/// are configured never to sample, so nothing else runs.
pub struct MsgPathRig {
    /// The Flux instance.
    pub world: World,
    /// Its engine.
    pub eng: FluxEngine,
    /// The relay-deltas topic, as a sending module holds it.
    pub topic: Topic,
    batch: fluxpm_flux::Payload,
}

impl MsgPathRig {
    /// Ranks in the rig.
    pub const RANKS: u32 = 256;

    /// Build the rig and deliver one batch, so the route is cached and
    /// every buffer on the way has its working size.
    pub fn new() -> MsgPathRig {
        use fluxpm_flux::Protocol;
        use fluxpm_monitor::{MonitorConfig, MonitorRequest, RelayDeltaBatch, TelemetryDelta};
        let mut world = World::new(MachineKind::Lassen, Self::RANKS, 1);
        let mut eng: FluxEngine = Engine::new();
        let config =
            MonitorConfig::default().with_sample_interval(SimDuration::from_secs(1_000_000_000));
        assert!(fluxpm_monitor::load(&mut world, &mut eng, config));
        let delta = TelemetryDelta {
            seq: 0,
            node: 0,
            timestamp_us: 0,
            node_w: 900.0,
            job: None,
            link: None,
        };
        let batch = MonitorRequest::RelayDeltas(RelayDeltaBatch {
            deltas: std::iter::once(std::sync::Arc::new(delta)).collect(),
            shed: 0,
        })
        .encode();
        let mut rig = MsgPathRig {
            world,
            eng,
            topic: Topic::intern(fluxpm_monitor::relay::TOPIC_RELAY_DELTAS),
            batch,
        };
        rig.send_and_deliver();
        rig
    }

    /// Send the batch root → rank 1 and run the engine until it has
    /// been handled. Returns the engine's executed-event count (one more
    /// per call), for the caller to black-box.
    pub fn send_and_deliver(&mut self) -> u64 {
        let msg = Message::event(Rank(0), Rank(1), &self.topic, Rc::clone(&self.batch));
        self.world.send(&mut self.eng, msg);
        let until = self.eng.now() + SimDuration::from_millis(1);
        self.eng.run_until(&mut self.world, until);
        self.eng.executed()
    }
}

impl Default for MsgPathRig {
    fn default() -> MsgPathRig {
        MsgPathRig::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn msg_path_rig_delivers_one_event_per_call() {
        let mut rig = MsgPathRig::new();
        let before = rig.send_and_deliver();
        assert_eq!(rig.send_and_deliver(), before + 1);
        assert!(rig.world.brokers[1].route(&rig.topic).is_some());
    }

    #[test]
    fn delivery_rig_round_trips() {
        let mut rig = DeliveryRig::new(8);
        assert_eq!(rig.hops(), 3, "rank 7 sits three hops deep");
        rig.roundtrip();
        rig.roundtrip();
        assert_eq!(rig.world.pending_rpc_count(), 0);
    }

    #[test]
    fn congested_rig_pays_queueing_delay_on_the_last_hop() {
        let mut clean = DeliveryRig::new(8);
        let mut hot = DeliveryRig::congested(8, 0.999);
        clean.roundtrip();
        hot.roundtrip();
        assert!(
            hot.eng.now() > clean.eng.now(),
            "a 0.999-severity uplink must inflate the echo round trip \
             (clean {:?}, congested {:?})",
            clean.eng.now(),
            hot.eng.now()
        );
        assert_eq!(hot.world.pending_rpc_count(), 0);
    }
}
