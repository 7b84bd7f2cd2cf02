//! Vendor-neutral telemetry across two very different machines — the
//! paper's core portability claim (§IV-A).
//!
//! The same LAMMPS job runs on a Lassen (IBM AC922: OCC sensors report
//! node, CPU, memory, and per-GPU power; OPAL + NVML capping available)
//! and on a Tioga (HPE EX235a: MSR/E-SMI sensors report CPU and per-OAM
//! only, capping disabled for users). The monitor code is identical; the
//! telemetry records simply carry fewer keys on Tioga, and its node power
//! is a conservative CPU+OAM sum.
//!
//! Run with: `cargo run --example cross_vendor_telemetry`

use fluxpm::experiments::Scenario;
use fluxpm::flux::{Engine, FluxEngine, JobSpec};
use fluxpm::hw::MachineKind;
use fluxpm::monitor::{MonitorConfig, MonitorQuery};
use fluxpm::variorum::get_node_power_domain_info;
use fluxpm::workloads::{lammps, App, JitterModel};

fn run_on(machine: MachineKind) {
    let (mut world, mut eng, _) = Scenario::new(machine, 4)
        .with_seed(17)
        .with_monitor(MonitorConfig::default())
        .build();
    world.autostop_after = Some(1);

    let info = get_node_power_domain_info(&world.nodes[0]);
    println!(
        "## {} ({} sockets, {} GPUs per node)",
        machine.name(),
        info.num_sockets,
        info.num_gpus
    );
    println!(
        "   capping: node={} gpu={} enabled-for-users={}",
        info.direct_node_cap, info.gpu_cap, info.capping_enabled
    );

    let app = App::with_jitter(lammps(), machine, 4, 3, JitterModel::none());
    let job = world.submit(&mut eng, JobSpec::new("LAMMPS", 4), Box::new(app));
    eng.run(&mut world);

    let mut eng2: FluxEngine = Engine::new();
    let query = MonitorQuery::job_data(job).send(&mut world, &mut eng2);
    eng2.run(&mut world);
    let reply = query.job_data().unwrap().unwrap();

    let record = world.jobs.get(job).unwrap();
    let mid = &reply.nodes[0].records[reply.nodes[0].records.len() / 2];
    // The per-socket / per-GPU values live in the stored JSON only.
    let sample = mid.sample().expect("stored JSON decodes");
    println!(
        "   LAMMPS: runtime {:.1} s, avg node power {:.0} W",
        record.runtime_seconds().unwrap(),
        reply.average_node_power()
    );
    println!(
        "   mid-run sample keys: node={} cpu_sockets={} mem={} gpu_readings={}",
        sample
            .power_node_watts
            .map(|w| format!("{w:.0}W"))
            .unwrap_or("ABSENT".into()),
        sample.power_cpu_watts.len(),
        sample
            .power_mem_watts
            .map(|w| format!("{w:.0}W"))
            .unwrap_or("ABSENT".into()),
        sample.power_gpu_watts.len(),
    );
    println!(
        "   raw Variorum JSON: {}\n",
        String::from_utf8_lossy(mid.raw_json())
    );
}

fn main() {
    println!("same monitor, two vendors — only the sensor surface differs:\n");
    run_on(MachineKind::Lassen);
    run_on(MachineKind::Tioga);
    println!(
        "paper shape: Tioga's visible power exceeds Lassen's for the same job\n\
         (8 GCDs vs 4 GPUs) even though its node estimate omits memory/uncore."
    );
}
