#![cfg(test)]
//! Unit tests of the world: jobs, the executor, RPC round trips and
//! pub/sub.

use super::*;
use crate::message::payload;
use crate::module::Module;
use fluxpm_hw::{Lanes, PowerDemand};
use std::cell::RefCell;
use std::rc::Rc;

/// A program that draws fixed power and finishes after `duration`
/// seconds of progress.
struct FixedApp {
    duration: f64,
    progress: f64,
    gpu_w: f64,
}

impl FixedApp {
    fn new(duration: f64, gpu_w: f64) -> FixedApp {
        FixedApp {
            duration,
            progress: 0.0,
            gpu_w,
        }
    }
    fn set_demand(&self, ctx: &mut StepCtx<'_>) {
        for node in &mut ctx.nodes {
            let arch = node.arch.clone();
            node.set_demand(PowerDemand {
                cpu: Lanes::filled(Watts(120.0), arch.sockets),
                memory: Watts(70.0),
                gpu: Lanes::filled(Watts(self.gpu_w), arch.gpus),
                other: arch.other,
            });
        }
    }
}

impl JobProgram for FixedApp {
    fn app_name(&self) -> &str {
        "fixed"
    }
    fn on_start(&mut self, ctx: &mut StepCtx<'_>) {
        self.set_demand(ctx);
    }
    fn step(&mut self, ctx: &mut StepCtx<'_>) -> StepOutcome {
        self.progress += ctx.dt;
        if self.progress >= self.duration {
            StepOutcome::Done {
                leftover_seconds: self.progress - self.duration,
            }
        } else {
            self.set_demand(ctx);
            StepOutcome::Running
        }
    }
}

fn world(n: u32) -> (World, FluxEngine) {
    let mut w = World::new(MachineKind::Lassen, n, 7);
    w.autostop_after = Some(u64::MAX); // default: no autostop
    (w, Engine::new())
}

#[test]
fn submit_runs_and_completes() {
    let (mut w, mut eng) = world(4);
    w.autostop_after = Some(1);
    w.install_executor(&mut eng);
    let id = w.submit(
        &mut eng,
        JobSpec::new("fixed", 2),
        Box::new(FixedApp::new(10.0, 200.0)),
    );
    eng.run(&mut w);
    let job = w.jobs.get(id).unwrap();
    assert_eq!(job.state, JobState::Completed);
    let rt = job.runtime_seconds().unwrap();
    assert!((rt - 10.0).abs() < 1e-6, "runtime {rt}");
    assert_eq!(w.sched.free_count(), 4, "nodes released");
    assert!(w.halted);
}

#[test]
fn fcfs_queueing_orders_jobs() {
    let (mut w, mut eng) = world(4);
    w.autostop_after = Some(3);
    w.install_executor(&mut eng);
    let a = w.submit(
        &mut eng,
        JobSpec::new("a", 3),
        Box::new(FixedApp::new(5.0, 150.0)),
    );
    let b = w.submit(
        &mut eng,
        JobSpec::new("b", 3),
        Box::new(FixedApp::new(5.0, 150.0)),
    );
    let c = w.submit(
        &mut eng,
        JobSpec::new("c", 1),
        Box::new(FixedApp::new(5.0, 150.0)),
    );
    // c fits alongside a, but FCFS without backfill makes it wait
    // behind b.
    assert_eq!(w.jobs.get(a).unwrap().state, JobState::Running);
    assert_eq!(w.jobs.get(b).unwrap().state, JobState::Pending);
    assert_eq!(w.jobs.get(c).unwrap().state, JobState::Pending);
    eng.run(&mut w);
    let sa = w.jobs.get(a).unwrap().started_at.unwrap();
    let sb = w.jobs.get(b).unwrap().started_at.unwrap();
    let sc = w.jobs.get(c).unwrap().started_at.unwrap();
    assert!(sa < sb);
    // b and c start together once a's 3 nodes free up.
    assert_eq!(sb, sc);
    assert!(w.jobs.makespan_seconds().unwrap() >= 10.0);
}

#[test]
fn energy_integrates_during_run() {
    let (mut w, mut eng) = world(2);
    w.autostop_after = Some(1);
    w.install_executor(&mut eng);
    w.submit(
        &mut eng,
        JobSpec::new("fixed", 1),
        Box::new(FixedApp::new(20.0, 250.0)),
    );
    eng.run(&mut w);
    // Node 0 ran a ~1280 W app for 20 s then idled; node 1 idled.
    let e0 = w.nodes[0].meter.total.get();
    let e1 = w.nodes[1].meter.total.get();
    assert!(e0 > e1, "busy node used more energy");
    assert!(e1 > 0.0, "idle node still draws idle power");
    let draw0 = 2.0 * 120.0 + 4.0 * 250.0 + 70.0 + 40.0;
    assert!((e0 - draw0 * 20.0).abs() / (draw0 * 20.0) < 0.05, "e0 {e0}");
}

#[test]
fn overhead_slows_nothing_but_is_drained() {
    let (mut w, mut eng) = world(2);
    w.autostop_after = Some(1);
    w.install_executor(&mut eng);
    w.submit(
        &mut eng,
        JobSpec::new("fixed", 1),
        Box::new(FixedApp::new(3.0, 150.0)),
    );
    w.charge_overhead(NodeId(0), 0.5);
    assert_eq!(w.pending_overhead(NodeId(0)), 0.5);
    eng.run(&mut w);
    assert_eq!(w.pending_overhead(NodeId(0)), 0.0, "drained by executor");
}

/// Module that counts events and answers one RPC topic.
struct Echo {
    seen_events: Rc<RefCell<Vec<String>>>,
}

impl Module for Echo {
    fn name(&self) -> &'static str {
        "echo"
    }
    fn topics(&self) -> Rc<[Topic]> {
        crate::topic_list!["echo.ping", EVENT_JOB_START, EVENT_JOB_FINISH]
    }
    fn load(&mut self, _ctx: &mut ModuleCtx<'_>) {}
    fn handle(&mut self, ctx: &mut ModuleCtx<'_>, msg: &Message) {
        match msg.kind {
            MsgKind::Request => {
                let n = *msg.payload_as::<u32>().unwrap();
                ctx.world.respond(ctx.eng, msg, payload(n + 1));
            }
            MsgKind::Event => {
                self.seen_events.borrow_mut().push(msg.topic.to_string());
            }
            MsgKind::Response => {}
        }
    }
}

#[test]
fn rpc_round_trip_with_latency() {
    let (mut w, mut eng) = world(4);
    let seen = Rc::new(RefCell::new(Vec::new()));
    let m = Rc::new(RefCell::new(Echo {
        seen_events: Rc::clone(&seen),
    }));
    w.load_module(&mut eng, Rank(3), m);
    let got = Rc::new(RefCell::new(None));
    let got2 = Rc::clone(&got);
    w.rpc(Rank(3), "echo.ping", payload(41u32))
        .send(&mut eng, move |_, eng, resp| {
            *got2.borrow_mut() = Some((*resp.payload_as::<u32>().unwrap(), eng.now()));
        });
    eng.run(&mut w);
    let (val, at) = got.borrow().unwrap();
    assert_eq!(val, 42);
    // Rank 0 -> 3 is 2 hops each way at 20 µs/hop.
    assert_eq!(at.as_micros(), 80);
    assert_eq!(w.pending_rpc_count(), 0);
}

#[test]
fn unknown_service_yields_error_response() {
    let (mut w, mut eng) = world(2);
    let got = Rc::new(RefCell::new(None));
    let got2 = Rc::clone(&got);
    w.rpc(Rank(1), "nope.nothing", payload(()))
        .send(&mut eng, move |_, _, resp| {
            *got2.borrow_mut() = Some(resp.error.clone());
        });
    eng.run(&mut w);
    let err = got.borrow().clone().unwrap().unwrap();
    assert!(err.contains("unknown service"));
}

#[test]
fn events_reach_subscribed_modules() {
    let (mut w, mut eng) = world(2);
    w.autostop_after = Some(1);
    let seen = Rc::new(RefCell::new(Vec::new()));
    let m = Rc::new(RefCell::new(Echo {
        seen_events: Rc::clone(&seen),
    }));
    w.load_module(&mut eng, Rank::ROOT, m);
    w.install_executor(&mut eng);
    w.submit(
        &mut eng,
        JobSpec::new("fixed", 1),
        Box::new(FixedApp::new(2.0, 150.0)),
    );
    eng.run(&mut w);
    let events = seen.borrow();
    assert!(events.contains(&EVENT_JOB_START.to_string()));
    assert!(events.contains(&EVENT_JOB_FINISH.to_string()));
}

#[test]
fn duplicate_module_load_rejected() {
    let (mut w, mut eng) = world(1);
    let seen = Rc::new(RefCell::new(Vec::new()));
    let m1 = Rc::new(RefCell::new(Echo {
        seen_events: Rc::clone(&seen),
    }));
    let m2 = Rc::new(RefCell::new(Echo {
        seen_events: Rc::clone(&seen),
    }));
    assert!(w.load_module(&mut eng, Rank::ROOT, m1));
    assert!(!w.load_module(&mut eng, Rank::ROOT, m2));
}

#[test]
#[should_panic(expected = "nodes on a")]
fn oversized_job_rejected() {
    let (mut w, mut eng) = world(2);
    w.submit(
        &mut eng,
        JobSpec::new("big", 3),
        Box::new(FixedApp::new(1.0, 150.0)),
    );
}

#[test]
fn job_runs_use_correct_node_count() {
    let (mut w, mut eng) = world(8);
    w.autostop_after = Some(2);
    w.install_executor(&mut eng);
    let a = w.submit(
        &mut eng,
        JobSpec::new("a", 6),
        Box::new(FixedApp::new(4.0, 150.0)),
    );
    let b = w.submit(
        &mut eng,
        JobSpec::new("b", 2),
        Box::new(FixedApp::new(4.0, 150.0)),
    );
    assert_eq!(w.jobs.get(a).unwrap().nodes.len(), 6);
    assert_eq!(w.jobs.get(b).unwrap().nodes.len(), 2);
    assert_eq!(w.jobs.get(b).unwrap().nodes, vec![NodeId(6), NodeId(7)]);
    eng.run(&mut w);
    assert!(w.jobs.all_complete());
}

#[test]
fn cluster_power_sums_nodes() {
    let (mut w, _eng) = world(3);
    let total = w.cluster_power();
    assert!(
        total.approx_eq(Watts(1200.0), 1e-6),
        "3 idle Lassen nodes at 400 W"
    );
}

fn shard_plan(w: &World, shards: usize) -> std::sync::Arc<crate::shard::ShardPlan> {
    std::sync::Arc::new(crate::shard::ShardPlan::for_tbon(&w.tbon, shards))
}

#[test]
fn enable_sharding_twice_is_refused() {
    let (mut w, _eng) = world(8);
    let plan = shard_plan(&w, 2);
    assert_eq!(
        w.enable_sharding(0, std::sync::Arc::clone(&plan), 7),
        Ok(())
    );
    assert_eq!(
        w.enable_sharding(1, plan, 7),
        Err(ShardingError::AlreadyEnabled)
    );
    assert!(w.owns(Rank::ROOT), "the first enable stands");
}

#[test]
fn enable_sharding_refuses_a_shard_out_of_range() {
    let (mut w, _eng) = world(8);
    let plan = shard_plan(&w, 2);
    let err = w.enable_sharding(2, plan, 7).unwrap_err();
    assert_eq!(
        err,
        ShardingError::ShardOutOfRange {
            shard: 2,
            shards: 2
        }
    );
    assert_eq!(err.to_string(), "shard index 2 out of range for 2 shard(s)");
    assert!(w.shard_ctx.is_none(), "world left unsharded");
}

#[test]
fn enable_sharding_refuses_a_stream_fault_plan() {
    let (mut w, _eng) = world(8);
    w.install_fault_plan(FaultPlan::uniform(0.1, SimDuration::ZERO));
    let plan = shard_plan(&w, 2);
    assert_eq!(
        w.enable_sharding(0, std::sync::Arc::clone(&plan), 7),
        Err(ShardingError::NondeterministicFaults)
    );
    assert!(w.shard_ctx.is_none(), "world left unsharded");
    // The same plan in deterministic mode is accepted.
    w.install_fault_plan(FaultPlan::uniform(0.1, SimDuration::ZERO).deterministic(7));
    assert_eq!(w.enable_sharding(0, plan, 7), Ok(()));
}

#[test]
fn register_wire_type_before_sharding_is_refused() {
    let (mut w, _eng) = world(8);
    assert_eq!(
        w.register_wire_type::<u32>(),
        Err(ShardingError::NotEnabled)
    );
    let plan = shard_plan(&w, 2);
    assert_eq!(w.enable_sharding(0, plan, 7), Ok(()));
    assert_eq!(w.register_wire_type::<u32>(), Ok(()));
}
