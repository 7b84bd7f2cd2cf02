//! Chaos-soak driver: one seeded failure storm, summarized on stdout.
//!
//! Runs the same kind of storm as `tests/chaos_soak.rs` — per-link burst
//! faults, batched interior failures, a root death, random fail/recover
//! ticks, periodic re-balancing — against the live monitor + manager
//! stack, then prints what the overlay survived.
//!
//! ```text
//! cargo run --example chaos_soak [seed]
//! ```

use fluxpm::experiments::{PowerSetup, Scenario};
use fluxpm::flux::{FaultPlan, GilbertElliott, JobSpec, JobState, LinkProfile, Rank, Tbon, World};
use fluxpm::hw::{MachineKind, NodeId, Watts};
use fluxpm::manager::ManagerConfig;
use fluxpm::monitor::MonitorConfig;
use fluxpm::sim::{SimDuration, SimTime, TraceLevel, Xoshiro256pp};
use fluxpm::workloads::{laghos, App, JitterModel};

const NODES: u32 = 16;

fn main() {
    let seed: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(11);

    let (mut w, mut eng, _) = Scenario::new(MachineKind::Lassen, NODES)
        .with_seed(seed)
        .with_trace(TraceLevel::Info)
        .with_power(PowerSetup::Managed {
            static_node_cap: None,
            config: ManagerConfig::proportional(Watts(16.0 * 1500.0)),
        })
        .with_monitor(MonitorConfig::default())
        .build();
    w.autostop_after = Some(3);
    eng.set_horizon(SimTime::from_secs(400));

    let ge = GilbertElliott {
        p_good_to_bad: 0.01,
        p_bad_to_good: 0.2,
        good_drop_prob: 0.0,
        bad_drop_prob: 0.5,
    };
    w.install_fault_plan(
        FaultPlan::uniform(0.02, SimDuration::from_micros(20))
            .with_burst(ge)
            .with_link(
                Rank(0),
                Rank(1),
                LinkProfile::uniform(0.08, SimDuration::from_micros(40)).with_burst(ge),
            ),
    );
    w.schedule_rebalance(&mut eng, SimDuration::from_secs(7));

    // Two long jobs ride the storm; a third probes the healed overlay.
    let app_a = App::with_jitter(laghos(), MachineKind::Lassen, 8, 1, JitterModel::none())
        .with_work_seconds(300.0);
    let a = w.submit(&mut eng, JobSpec::new("Laghos", 8), Box::new(app_a));
    let app_b = App::with_jitter(laghos(), MachineKind::Lassen, 4, 2, JitterModel::none())
        .with_work_seconds(60.0);
    let b = w.submit(&mut eng, JobSpec::new("Laghos", 4), Box::new(app_b));

    // Scripted prefix: a batched interior kill, then the root.
    eng.schedule(SimTime::from_secs(15), |w: &mut World, eng| {
        w.fail_nodes(eng, &[NodeId(1), NodeId(2)]);
    });
    eng.schedule(SimTime::from_secs(30), |w: &mut World, eng| {
        assert!(w.recover_node(eng, NodeId(1)), "node 1 was down");
        assert!(w.recover_node(eng, NodeId(2)), "node 2 was down");
    });
    eng.schedule(SimTime::from_secs(35), |w: &mut World, eng| {
        let root = w.root();
        w.fail_nodes(eng, &[NodeId(root.0)]);
    });

    // Random storm ticks, never dropping below 6 live brokers.
    for k in 0..10u64 {
        eng.schedule(SimTime::from_secs(40 + 5 * k), move |w: &mut World, eng| {
            let mut rng = Xoshiro256pp::seed_from_u64(seed ^ 0xC0FFEE ^ (k << 32));
            for i in 0..w.size() {
                if !w.broker_up(Rank(i)) && rng.chance(0.45) {
                    assert!(w.recover_node(eng, NodeId(i)), "guarded: broker was down");
                }
            }
            let mut up: Vec<u32> = (0..w.size()).filter(|&i| w.broker_up(Rank(i))).collect();
            let spare = up.len().saturating_sub(6);
            let kill = spare.min(1 + rng.below(2) as usize);
            let mut victims = Vec::new();
            for _ in 0..kill {
                let idx = rng.below(up.len() as u64) as usize;
                victims.push(NodeId(up.remove(idx)));
            }
            if !victims.is_empty() {
                w.fail_nodes(eng, &victims);
            }
        });
    }

    // Storm over: bring everyone home and probe the healed overlay.
    eng.schedule(SimTime::from_secs(95), |w: &mut World, eng| {
        for i in 0..w.size() {
            if !w.broker_up(Rank(i)) {
                assert!(w.recover_node(eng, NodeId(i)), "guarded: broker was down");
            }
        }
    });
    eng.schedule(SimTime::from_secs(100), |w: &mut World, eng| {
        let app = App::with_jitter(laghos(), MachineKind::Lassen, 6, 9, JitterModel::none())
            .with_work_seconds(30.0);
        w.submit(eng, JobSpec::new("Laghos", 6), Box::new(app));
    });
    let end = eng.run(&mut w);

    let trace: String = w.trace.entries().iter().map(|e| format!("{e}\n")).collect();
    let count = |needle: &str| trace.matches(needle).count();
    let live = w.tbon.attached_ranks().len() as u32;
    println!("chaos soak (seed {seed}) ran to {end}");
    println!("  failures injected     : {}", count(" failed"));
    println!("  recoveries            : {}", count(" recovered"));
    println!("  orphan re-parentings  : {}", count("re-parented"));
    println!("  root failovers        : {}", count("root failover:"));
    println!("  re-balance passes     : {}", count("re-balanced:"));
    println!("  messages dropped      : {}", w.fault_drops());
    println!(
        "  rpc timeouts/retries  : {}/{}",
        w.rpc_timeout_count(),
        w.rpc_retry_count()
    );
    println!("  pending matchtags     : {}", w.pending_rpc_count());
    println!("  topology epoch        : {}", w.tbon.epoch());
    println!(
        "  tree depth            : {} (fresh k-ary: {})",
        w.tbon.max_depth(),
        Tbon::ideal_depth(live, w.tbon.fanout())
    );
    println!(
        "  job A/B states        : {:?}/{:?}",
        w.jobs.get(a).unwrap().state,
        w.jobs.get(b).unwrap().state
    );
    assert_eq!(w.pending_rpc_count(), 0, "leaked matchtags");
    assert_ne!(w.jobs.get(a).unwrap().state, JobState::Running);
}
