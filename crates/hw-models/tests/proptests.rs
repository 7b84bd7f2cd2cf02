//! Property-based tests for the hardware power model.

use fluxpm_hw::capping::OpalState;
use fluxpm_hw::power::{resolve, PowerDemand};
use fluxpm_hw::{lassen, tioga, Lanes, Watts};
use proptest::prelude::*;

prop_compose! {
    fn lassen_demand()(
        cpu in 60.0f64..190.0,
        gpu in 50.0f64..300.0,
        mem in 40.0f64..120.0,
    ) -> PowerDemand {
        let a = lassen();
        PowerDemand {
            cpu: Lanes::filled(Watts(cpu), a.sockets),
            memory: Watts(mem),
            gpu: Lanes::filled(Watts(gpu), a.gpus),
            other: a.other,
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Draw never exceeds demand (capping only removes power).
    #[test]
    fn draw_never_exceeds_demand(
        d in lassen_demand(),
        gpu_cap in prop::option::of(100.0f64..300.0),
        node_cap in prop::option::of(500.0f64..3050.0),
    ) {
        let a = lassen();
        let caps: Vec<_> = (0..a.gpus).map(|_| gpu_cap.map(Watts)).collect();
        let draw = resolve(&a, &d, &caps, node_cap.map(Watts));
        prop_assert!(draw.total().get() <= d.total().get() + 1e-9);
    }

    /// Draw never falls below the architecture's idle floor.
    #[test]
    fn draw_never_below_idle(
        d in lassen_demand(),
        gpu_cap in prop::option::of(100.0f64..300.0),
        node_cap in prop::option::of(500.0f64..3050.0),
    ) {
        let a = lassen();
        let caps: Vec<_> = (0..a.gpus).map(|_| gpu_cap.map(Watts)).collect();
        let draw = resolve(&a, &d, &caps, node_cap.map(Watts));
        prop_assert!(draw.total().get() >= a.idle_node_power().get() - 1e-9);
    }

    /// A hard node cap at or above the hard minimum is honoured whenever
    /// the fixed (uncappable) components leave room.
    #[test]
    fn node_cap_honoured_when_feasible(
        d in lassen_demand(),
        node_cap in 1000.0f64..3050.0,
    ) {
        let a = lassen();
        // OPAL first derives GPU caps from the node cap, as on Lassen.
        let mut opal = OpalState::for_arch(&a).unwrap();
        opal.set_node_cap(Watts(node_cap));
        let derived = opal.derived_gpu_cap();
        let caps: Vec<_> = (0..a.gpus).map(|_| derived).collect();
        let draw = resolve(&a, &d, &caps, Some(Watts(node_cap)));
        // The only uncappable slack is memory+other+idle floors; with the
        // 936 W reserve the cap is always met at >= 1000 W.
        prop_assert!(
            draw.total().get() <= node_cap + 1e-9,
            "draw {} exceeds cap {node_cap}",
            draw.total()
        );
    }

    /// Throttle factors are in (0, 1] and consistent: throttled draw is
    /// strictly below demand only when throttle < 1.
    #[test]
    fn throttle_consistency(
        d in lassen_demand(),
        gpu_cap in 100.0f64..300.0,
    ) {
        let a = lassen();
        let caps: Vec<_> = (0..a.gpus).map(|_| Some(Watts(gpu_cap))).collect();
        let draw = resolve(&a, &d, &caps, None);
        for (i, &th) in draw.gpu_throttle.iter().enumerate() {
            prop_assert!((0.0..=1.0).contains(&th));
            if th < 1.0 {
                prop_assert!(draw.gpu[i] < d.gpu[i]);
            }
        }
        prop_assert!(draw.throttle.gpu_min <= draw.throttle.mean_gpu + 1e-12);
    }

    /// OPAL's derived GPU cap is monotone in the node cap and clamped.
    #[test]
    fn opal_monotone(caps in prop::collection::vec(500.0f64..3050.0, 2..20)) {
        let a = lassen();
        let mut opal = OpalState::for_arch(&a).unwrap();
        let mut pairs: Vec<(f64, f64)> = caps
            .iter()
            .map(|&c| {
                opal.set_node_cap(Watts(c));
                (c, opal.derived_gpu_cap().unwrap().get())
            })
            .collect();
        pairs.sort_by(|x, y| x.0.partial_cmp(&y.0).unwrap());
        for w in pairs.windows(2) {
            prop_assert!(w[0].1 <= w[1].1 + 1e-9);
        }
        for (_, g) in pairs {
            prop_assert!((100.0..=300.0).contains(&g));
        }
    }

    /// Tioga's conservative node estimate never exceeds the true draw.
    #[test]
    fn tioga_estimate_conservative(cpu in 90.0f64..280.0, gpu in 45.0f64..280.0) {
        use fluxpm_hw::{NodeHardware, NodeId, Sensors};
        let mut n = NodeHardware::new(NodeId(0), tioga(), 3);
        n.sensors = Sensors::new(&n.arch, 0).with_noise(0.0);
        let arch = n.arch.clone();
        n.set_demand(PowerDemand {
            cpu: Lanes::filled(Watts(cpu), arch.sockets),
            memory: arch.mem_idle,
            gpu: Lanes::filled(Watts(gpu), arch.gpus),
            other: arch.other,
        });
        let truth = n.draw().total();
        let est = n.read_sensors().node_power_estimate();
        prop_assert!(est.get() <= truth.get() + 1e-9);
    }

    /// The node's one resolved draw never goes stale: after any sequence
    /// of demand and cap changes — including a demand equal to the one in
    /// force, which keeps the resolution — `draw()` is what resolving the
    /// node's current demand under its current caps from scratch gives.
    #[test]
    fn resolved_draw_tracks_demand_and_caps(
        ops in prop::collection::vec((0u8..12, 0usize..4, 0.0f64..1.0), 1..40),
    ) {
        use fluxpm_hw::{resolve_with_sockets, NodeHardware, NodeId};
        let mut n = NodeHardware::new(NodeId(0), lassen(), 9);
        let arch = n.arch.clone();
        // A palette of 27 demands (three levels per component, varied
        // independently), so consecutive demands are sometimes equal and
        // often differ in one component only.
        let palette = |pick: f64| {
            let k = (pick * 27.0) as usize;
            let mut d = PowerDemand {
                cpu: Lanes::filled(Watts([80.0, 150.0, 190.0][k % 3]), arch.sockets),
                memory: Watts([40.0, 80.0, 120.0][k / 3 % 3]),
                gpu: Lanes::filled(Watts([60.0, 180.0, 290.0][k / 9]), arch.gpus),
                other: arch.other,
            };
            d.gpu[k % 3] = Watts(250.0);
            d
        };
        for (kind, device, x) in ops {
            match kind {
                0..=3 => n.set_demand(palette(x)),
                4 => n.set_idle(),
                5 => { n.set_gpu_cap(device, Watts(100.0 + 200.0 * x)).unwrap(); }
                6 => { n.set_node_cap(Watts(500.0 + 2500.0 * x)).unwrap(); }
                7 => n.clear_node_cap().unwrap(),
                8 => { n.set_memory_cap(Watts(40.0 + 80.0 * x)).unwrap(); }
                9 => n.clear_memory_cap(),
                10 => { n.set_socket_cap(device % 2, Watts(60.0 + 130.0 * x)).unwrap(); }
                _ => n.clear_socket_cap(device % 2).unwrap(),
            }
            let mut demand = *n.demand();
            if let Some(cap) = n.dram.cap() {
                demand.memory = demand.memory.min(cap.max(arch.mem_idle));
            }
            let fresh = resolve_with_sockets(
                &arch,
                &demand,
                &n.effective_gpu_caps(),
                n.rapl.caps(),
                n.node_cap(),
            );
            prop_assert_eq!(*n.draw(), fresh, "after op {} on device {}", kind, device);
            prop_assert_eq!(n.tick(1.0), fresh);
            let seen = n.read_sensors().node_power_estimate();
            prop_assert!(seen.approx_eq(fresh.total(), 0.05 * fresh.total().get()));
        }
    }
}
