//! User-level Flux instances with a custom power policy — the paper's
//! hierarchical-scheduling claim (§I/§II-B): a user's allocation is its
//! own Flux instance, inside which they may run their own scheduler and
//! their own power policy, no system privileges required.
//!
//! A user gets 4 Lassen nodes from the system instance and runs two
//! workloads inside: a high-priority GEMM and a background Quicksilver.
//! Their private policy gives GEMM 3x the power weight of Quicksilver
//! out of a self-imposed 4 kW budget.
//!
//! Run with: `cargo run --example user_level_instance`

use fluxpm::experiments::Scenario;
use fluxpm::flux::{InstancePowerPolicy, JobSpec, SubInstance};
use fluxpm::hw::{MachineKind, Watts};
use fluxpm::workloads::{gemm, quicksilver, App, JitterModel};

fn main() {
    // The system instance: an 8-node cluster.
    let (mut world, mut eng, _) = Scenario::new(MachineKind::Lassen, 8).with_seed(23).build();
    world.autostop_after = Some(1);

    // The user's jobs, built with the normal application models.
    let g = App::with_jitter(gemm(), MachineKind::Lassen, 2, 1, JitterModel::none());
    let q = App::with_jitter(
        quicksilver(),
        MachineKind::Lassen,
        2,
        2,
        JitterModel::none(),
    )
    .with_work_scale(8.0);

    // The user-level instance: their own FCFS queue + power policy.
    let instance = SubInstance::new("user-instance", 4)
        .with_child("GEMM (priority)", 2, Box::new(g))
        .with_child("Quicksilver (background)", 2, Box::new(q))
        .with_power_policy(InstancePowerPolicy {
            total: Watts(4000.0),
            weights: vec![3.0, 1.0],
        });

    // The system instance schedules the whole thing as one 4-node job.
    let id = world.submit(
        &mut eng,
        JobSpec::new("user-instance", 4),
        Box::new(instance),
    );
    eng.run(&mut world);

    let job = world.jobs.get(id).expect("job exists");
    println!(
        "user instance ran on nodes {:?} for {:.1} s",
        job.nodes,
        job.runtime_seconds().unwrap()
    );

    // The user's policy left its marks: GEMM's nodes were capped at the
    // weighted high share, Quicksilver's at the weighted low share.
    for (i, node) in world.nodes.iter().take(4).enumerate() {
        let cap = node.nvml.gpu_cap(0);
        let energy = node.meter.total.kilojoules();
        println!(
            "  node {i}: last user GPU cap {:?}, energy {energy:.0} kJ",
            cap.map(|c| c.to_string())
        );
    }
    println!(
        "\nWeighted power sharing inside one allocation, enforced by the user\n\
         through per-GPU caps on their own nodes (3:1 in favour of GEMM of a\n\
         4 kW budget: 1500 W/node -> 275 W GPU caps vs 500 W/node -> 100 W)."
    );
}
