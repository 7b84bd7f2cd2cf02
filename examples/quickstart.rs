//! Quickstart: stand up a simulated Lassen cluster, load
//! `flux-power-monitor`, run a job, and fetch its power telemetry as CSV
//! — the end-to-end flow of the paper's §III-A.
//!
//! Run with: `cargo run --example quickstart`

use fluxpm::experiments::Scenario;
use fluxpm::flux::{Engine, FluxEngine, JobSpec};
use fluxpm::hw::MachineKind;
use fluxpm::monitor::{job_data_to_csv, MonitorConfig, MonitorQuery};
use fluxpm::workloads::{quicksilver, App, JitterModel};

fn main() {
    // A 4-node IBM AC922 (Lassen) cluster with the monitor loaded: a
    // stateless node agent on every rank (2 s sampling into a
    // 100k-record ring buffer) plus the root aggregator. Seed 42 makes
    // the run bit-reproducible.
    let (mut world, mut eng, _) = Scenario::new(MachineKind::Lassen, 4)
        .with_seed(42)
        .with_monitor(MonitorConfig::default())
        .build();
    world.autostop_after = Some(1);

    // Submit Quicksilver on 2 nodes (a 10x problem so the periodic phase
    // behaviour is clearly visible in the telemetry).
    let app = App::with_jitter(
        quicksilver(),
        MachineKind::Lassen,
        2,
        7,
        JitterModel::none(),
    )
    .with_work_scale(10.0);
    let job = world.submit(&mut eng, JobSpec::new("Quicksilver", 2), Box::new(app));
    eng.run(&mut world);

    let record = world.jobs.get(job).expect("job exists");
    println!(
        "job {:?} ({}) ran on {} nodes for {:.1} s",
        job,
        record.spec.name,
        record.nodes.len(),
        record.runtime_seconds().expect("completed")
    );

    // The external client: job id -> nodes & window -> per-node CSV.
    let mut eng2: FluxEngine = Engine::new();
    let query = MonitorQuery::job_data(job).send(&mut world, &mut eng2);
    eng2.run(&mut world);
    let reply = query.job_data().expect("reply").expect("no error");
    println!(
        "telemetry: {} samples across {} nodes (complete: {})",
        reply.sample_count(),
        reply.nodes.len(),
        reply.all_complete()
    );
    println!(
        "average node power {:.0} W, peak {:.0} W",
        reply.average_node_power(),
        reply.max_node_power()
    );

    let csv = job_data_to_csv(&reply);
    println!("\nfirst CSV rows:");
    for line in csv.lines().take(6) {
        println!("  {line}");
    }
}
