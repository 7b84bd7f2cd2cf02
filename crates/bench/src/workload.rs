//! The overlay delivery rig stackbench (`benchmark/`) prices
//! `flux.hop_ns` and `flux.hop_congested_ns` with.

use fluxpm_flux::{
    payload, FaultPlan, FluxEngine, Message, Module, ModuleCtx, MsgKind, Rank, Topic, World,
};
use fluxpm_hw::MachineKind;
use fluxpm_sim::{Engine, SimDuration, SimTime};
use std::cell::RefCell;
use std::rc::Rc;

/// A module that answers `bench.echo` requests with their own payload —
/// the minimal responder for measuring raw overlay delivery cost.
struct BenchEcho {
    echo: Topic,
}

impl Module for BenchEcho {
    fn name(&self) -> &'static str {
        "bench-echo"
    }
    fn topics(&self) -> Rc<[Topic]> {
        Rc::from([self.echo.clone()])
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
        self.world.tbon.hops(Rank(0), self.target)
    }

    /// Build the rig with the target's uplink congested at `severity`
    /// for the first simulated hour. Echo round trips then pay the
    /// link's serialization + queueing delay on the last hop both ways,
    /// which prices the congestion-aware delivery path (queue
    /// bookkeeping, severity lookup, EWMA updates) against the clean
    /// rig's fast path. Panics below two nodes, where the target is the
    /// root and has no uplink.
    pub fn congested(nnodes: u32, severity: f64) -> DeliveryRig {
        let mut rig = DeliveryRig::new(nnodes);
        let Some(parent) = rig.world.tbon.parent(rig.target) else {
            panic!("DeliveryRig::congested needs at least two nodes");
        };
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

#[cfg(test)]
mod tests {
    use super::*;

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
