//! Scale smoke tests: the stack at cluster sizes well beyond the paper's
//! 8/16-node experiments, exercising the TBON depth, scheduler, monitor
//! fan-out, and manager reallocation paths together.

use fluxpm::experiments::{JobRequest, PowerSetup, Scenario};
use fluxpm::flux::{Engine, FluxEngine, JobSpec};
use fluxpm::hw::{MachineKind, Watts};
use fluxpm::manager::ManagerConfig;
use fluxpm::monitor::{MonitorConfig, MonitorQuery};
use fluxpm::workloads::{laghos, App, JitterModel};

/// 128 nodes, 24 jobs, both power modules loaded: everything completes,
/// the bound holds, and the tree query answers over a 7-level TBON.
#[test]
fn full_stack_at_128_nodes() {
    let bound = 128.0 * 1200.0;
    let mut scenario = Scenario::new(MachineKind::Lassen, 128)
        .with_label("scale-128")
        .with_monitor(MonitorConfig::default())
        .with_power(PowerSetup::Managed {
            static_node_cap: Some(1950.0),
            config: ManagerConfig::proportional(Watts(bound)),
        });
    let apps = ["LAMMPS", "GEMM", "Quicksilver", "Laghos"];
    for i in 0..24u64 {
        let app = apps[(i % 4) as usize];
        let nnodes = 4 + (i % 5) as u32 * 8; // 4..36 nodes
        scenario = scenario.with_job(
            JobRequest::new(app, nnodes)
                .with_work_seconds(40.0 + (i % 7) as f64 * 15.0)
                .submit_at(i as f64 * 5.0),
        );
    }
    let report = scenario.run();
    assert_eq!(report.jobs.len(), 24);
    assert!(
        report.cluster_max_w <= bound * 1.02,
        "bound holds at scale: {:.0} of {bound:.0}",
        report.cluster_max_w
    );
    // Nothing starved: every job ran and finished.
    for j in &report.jobs {
        assert!(j.runtime_s > 0.0, "{} ran", j.name);
    }
}

/// The in-tree stats reduction on a deep TBON returns the right node
/// count and plausible power for a wide job.
#[test]
fn tree_reduction_on_deep_tbon() {
    let (mut world, mut eng, _) = Scenario::new(MachineKind::Lassen, 96)
        .with_seed(71)
        .with_monitor(MonitorConfig::default())
        .build();
    world.autostop_after = Some(1);
    let app = App::with_jitter(laghos(), MachineKind::Lassen, 60, 9, JitterModel::none())
        .with_work_scale(5.0);
    let id = world.submit(&mut eng, JobSpec::new("Laghos", 60), Box::new(app));
    eng.run(&mut world);

    let mut eng2: FluxEngine = Engine::new();
    let query = MonitorQuery::job_stats_tree(id).send(&mut world, &mut eng2);
    eng2.run(&mut world);
    let stats = query.subtree_stats().unwrap().unwrap();
    assert_eq!(stats.nodes, 60);
    assert!(stats.all_complete);
    // Laghos nodes: ~490 W each.
    assert!(
        (stats.mean_w() - 490.0).abs() < 30.0,
        "mean {}",
        stats.mean_w()
    );
}
