//! Production failure modes, end to end — the anomalies the paper's §V
//! reports from real operations, reproduced and survived:
//!
//! 1. NVML power capping failing intermittently at low node caps (stale
//!    or default caps),
//! 2. telemetry ring-buffer wrap (partial-data flags in the client CSV),
//! 3. a node failure mid-job (job killed, node withheld, monitor
//!    aggregation degrades gracefully).
//!
//! Run with: `cargo run --example failure_injection`

use fluxpm::experiments::{PowerSetup, Scenario};
use fluxpm::prelude::*;
use fluxpm::sim::SimTime;

fn main() {
    // --- 1. NVML intermittent cap failures (§V) ------------------------
    let arch = fluxpm::hw::lassen();
    let mut node = NodeHardware::new(NodeId(0), arch, 7).with_nvml_failure_injection(0.25);
    node.set_node_cap(Watts(1200.0)).unwrap();
    let mut outcomes = (0, 0, 0);
    for i in 0..100 {
        match node.set_gpu_cap(i % 4, Watts(150.0)).unwrap() {
            fluxpm::hw::CapOutcome::Applied(_) => outcomes.0 += 1,
            fluxpm::hw::CapOutcome::StalePrevious(_) => outcomes.1 += 1,
            fluxpm::hw::CapOutcome::ResetToDefault(_) => outcomes.2 += 1,
        }
    }
    println!(
        "NVML at a 1200 W node cap: {} applied, {} stale, {} reset-to-default of 100 sets",
        outcomes.0, outcomes.1, outcomes.2
    );
    println!("(paper §V: \"NVIDIA GPU power capping failed intermittently, either picking\n up the last set power cap or defaulting to the maximum power cap\")\n");

    // --- 2. Buffer wrap -> partial data ---------------------------------
    // A deliberately tiny 15-record buffer (30 s window at 2 s sampling).
    let (mut world, mut eng, _) = Scenario::new(MachineKind::Lassen, 2)
        .with_seed(11)
        .with_monitor(MonitorConfig::default().with_buffer_capacity(15))
        .build();
    world.autostop_after = Some(1);
    let app = App::with_jitter(laghos(), MachineKind::Lassen, 1, 3, JitterModel::none())
        .with_work_seconds(90.0);
    let id = world.submit(&mut eng, JobSpec::new("Laghos", 1), Box::new(app));
    eng.run(&mut world);

    let mut eng2: FluxEngine = Engine::new();
    let query = MonitorQuery::job_data(id).send(&mut world, &mut eng2);
    eng2.run(&mut world);
    let reply = query.job_data().unwrap().unwrap();
    println!(
        "90 s job, 30 s buffer: {} samples retained, complete = {}",
        reply.sample_count(),
        reply.all_complete()
    );
    let csv = job_data_to_csv(&reply);
    println!("first CSV row: {}", csv.lines().nth(1).unwrap_or("-"));
    println!("(the 'partial' flag is the paper's completeness column)\n");

    // --- 3. Node failure mid-job ----------------------------------------
    let (mut world, mut eng, _) = Scenario::new(MachineKind::Lassen, 4)
        .with_seed(13)
        .with_power(PowerSetup::Managed {
            static_node_cap: None,
            config: ManagerConfig::proportional(Watts(4800.0)),
        })
        .with_monitor(MonitorConfig::default())
        .build();
    world.autostop_after = Some(2);
    let victim = world.submit(
        &mut eng,
        JobSpec::new("Laghos", 2),
        Box::new(
            App::with_jitter(laghos(), MachineKind::Lassen, 2, 1, JitterModel::none())
                .with_work_seconds(500.0),
        ),
    );
    let survivor = world.submit(
        &mut eng,
        JobSpec::new("Laghos", 2),
        Box::new(
            App::with_jitter(laghos(), MachineKind::Lassen, 2, 2, JitterModel::none())
                .with_work_seconds(60.0),
        ),
    );
    eng.schedule(SimTime::from_secs(30), |w: &mut World, eng| {
        println!("t=30 s: node 1 fails");
        w.fail_node(eng, NodeId(1));
    });
    eng.run(&mut world);
    println!(
        "victim job:   {:?} (its power was reclaimed for the others)",
        world.jobs.get(victim).unwrap().state
    );
    println!(
        "survivor job: {:?}",
        world.jobs.get(survivor).unwrap().state
    );
    println!(
        "failed node withheld from scheduling: {}",
        !world.sched.is_free(NodeId(1))
    );
    let mut eng3: FluxEngine = Engine::new();
    let query = MonitorQuery::job_data(victim).send(&mut world, &mut eng3);
    eng3.run(&mut world);
    let reply = query.job_data().unwrap().unwrap();
    println!(
        "victim telemetry: {} of {} node replies populated, complete = {}",
        reply.nodes.iter().filter(|n| !n.records.is_empty()).count(),
        reply.nodes.len(),
        reply.all_complete()
    );
    println!("(the downed rank is flagged partial; the survivor still reports)");
}
