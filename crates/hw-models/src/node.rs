//! One simulated node: architecture + capping state + sensors + meter.
//!
//! `NodeHardware` is the unit the Variorum layer talks to. It owns the
//! OPAL/NVML capping state, resolves workload demand into actual draw, and
//! integrates energy.

use crate::arch::NodeArch;
use crate::capping::{CapError, CapOutcome, DramCapState, NvmlState, OpalState, RaplState};
use crate::energy::EnergyMeter;
use crate::lanes::Lanes;
use crate::power::{resolve, resolve_with_sockets, PowerDemand, PowerDraw};
use crate::sensors::{SensorReading, Sensors};
use crate::units::Watts;
use fluxpm_sim::Xoshiro256pp;

/// Dense node identifier within a cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Index into cluster vectors.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The full hardware state of one node.
#[derive(Debug)]
pub struct NodeHardware {
    /// This node's id.
    pub id: NodeId,
    /// Static architecture description.
    pub arch: NodeArch,
    /// OPAL node capping (Lassen only).
    pub opal: Option<OpalState>,
    /// NVML/per-GPU capping state.
    pub nvml: NvmlState,
    /// Per-socket CPU capping state (RAPL/OCC/HSMP).
    pub rapl: RaplState,
    /// Memory-subsystem capping state (DRAM RAPL).
    pub dram: DramCapState,
    /// Sensor complex.
    pub sensors: Sensors,
    /// Energy integration.
    pub meter: EnergyMeter,
    /// Current workload demand (idle when no job is running).
    demand: PowerDemand,
    /// RNG for capping failure injection.
    cap_rng: Xoshiro256pp,
    /// The node's one resolved draw: what `demand` draws under the caps
    /// in force, unless `stale`.
    resolved: PowerDraw,
    /// A demand or cap changed since `resolved` was computed.
    stale: bool,
}

impl NodeHardware {
    /// Build a node of the given architecture. `seed` decorrelates the
    /// node's stochastic models from its siblings.
    ///
    /// Panics on an architecture with more sockets or GPUs than a
    /// [`Lanes`] holds: per-component values are stored inline.
    pub fn new(id: NodeId, arch: NodeArch, seed: u64) -> NodeHardware {
        let widest = Lanes::<Watts>::CAPACITY;
        assert!(
            arch.sockets <= widest && arch.gpus <= widest,
            "{} has {} sockets and {} GPUs; a node is modelled with at most {widest} of either",
            arch.model,
            arch.sockets,
            arch.gpus,
        );
        let mut root = Xoshiro256pp::seed_from_u64(seed);
        let sensors = Sensors::new(&arch, root.next_u64());
        let cap_rng = root.child(id.0 as u64);
        let demand = PowerDemand::idle(&arch);
        NodeHardware {
            id,
            opal: OpalState::for_arch(&arch),
            nvml: NvmlState::for_arch(&arch),
            rapl: RaplState::for_arch(&arch),
            dram: DramCapState::for_arch(&arch),
            sensors,
            meter: EnergyMeter::new(),
            resolved: resolve(&arch, &demand, &Lanes::filled(None, arch.gpus), None),
            stale: false,
            demand,
            cap_rng,
            arch,
        }
    }

    /// Enable the NVML intermittent-failure model.
    pub fn with_nvml_failure_injection(mut self, rate: f64) -> NodeHardware {
        self.nvml = NvmlState::for_arch(&self.arch).with_failure_injection(rate);
        self
    }

    /// Replace the current workload demand. Resolution is a pure
    /// function of architecture × demand × caps, so a demand equal to the
    /// one in force keeps the resolved draw (a flat-phase application
    /// republishes the same demand every executor slice).
    pub fn set_demand(&mut self, demand: PowerDemand) {
        self.stale |= demand != self.demand;
        self.demand = demand;
    }

    /// Reset demand to idle (job ended).
    pub fn set_idle(&mut self) {
        self.set_demand(PowerDemand::idle(&self.arch));
    }

    /// The current demand.
    pub fn demand(&self) -> &PowerDemand {
        &self.demand
    }

    /// Effective per-GPU caps: the tighter of the NVML software cap and
    /// the OPAL-derived cap (None = uncapped).
    pub fn effective_gpu_caps(&self) -> Lanes<Option<Watts>> {
        let derived = self.opal.as_ref().and_then(|o| o.derived_gpu_cap());
        self.nvml
            .caps()
            .iter()
            .map(|nvml_cap| match (nvml_cap, derived) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (Some(a), None) => Some(*a),
                (None, Some(b)) => Some(b),
                (None, None) => None,
            })
            .collect()
    }

    /// The node cap currently enforced by OPAL, if any.
    pub fn node_cap(&self) -> Option<Watts> {
        self.opal.as_ref().and_then(|o| o.node_cap())
    }

    /// The actual draw of the current demand under the current caps: a
    /// reference to the node's one resolved draw, re-resolved first if a
    /// demand or cap changed since the last call. Reads between changes
    /// (the executor ticks every node every slice, samplers scan every
    /// node every period) cost a flag test.
    pub fn draw(&mut self) -> &PowerDraw {
        self.refresh();
        &self.resolved
    }

    /// Bring `resolved` up to date with the demand and caps in force.
    fn refresh(&mut self) {
        if self.stale {
            // The DRAM cap clamps memory demand before resolution (no
            // throttle feedback: none of the modelled apps is
            // memory-bound).
            let mut demand = self.demand;
            if let Some(c) = self.dram.cap() {
                demand.memory = demand.memory.min(c.max(self.arch.mem_idle));
            }
            self.resolved = resolve_with_sockets(
                &self.arch,
                &demand,
                &self.effective_gpu_caps(),
                self.rapl.caps(),
                self.node_cap(),
            );
            self.stale = false;
        }
    }

    /// Set the OPAL node cap. Errors on architectures without node
    /// capping or where capping is administratively disabled.
    pub fn set_node_cap(&mut self, cap: Watts) -> Result<Watts, CapError> {
        if !self.arch.capping.user_enabled {
            return Err(CapError::Disabled);
        }
        let opal = self.opal.as_mut().ok_or(CapError::Unsupported)?;
        self.stale = true;
        Ok(opal.set_node_cap(cap))
    }

    /// Clear the OPAL node cap.
    pub fn clear_node_cap(&mut self) -> Result<(), CapError> {
        let opal = self.opal.as_mut().ok_or(CapError::Unsupported)?;
        opal.clear_node_cap();
        self.stale = true;
        Ok(())
    }

    /// Set a per-GPU cap through NVML. Subject to failure injection in
    /// the low-node-cap regime.
    pub fn set_gpu_cap(&mut self, gpu: usize, cap: Watts) -> Result<CapOutcome, CapError> {
        if !self.arch.capping.user_enabled {
            return Err(CapError::Disabled);
        }
        if !self.arch.capping.gpu_cap {
            return Err(CapError::Unsupported);
        }
        let node_ctx = self.node_cap();
        self.stale = true;
        self.nvml.set_gpu_cap(gpu, cap, node_ctx, &mut self.cap_rng)
    }

    /// Set the memory-subsystem cap (DRAM RAPL).
    pub fn set_memory_cap(&mut self, cap: Watts) -> Result<Watts, CapError> {
        if !self.arch.capping.user_enabled {
            return Err(CapError::Disabled);
        }
        self.stale = true;
        Ok(self.dram.set_cap(cap))
    }

    /// Clear the memory-subsystem cap.
    pub fn clear_memory_cap(&mut self) {
        self.stale = true;
        self.dram.clear();
    }

    /// Set a per-socket CPU cap (RAPL-style). Subject to the same
    /// administrative gating as the other dials.
    pub fn set_socket_cap(&mut self, socket: usize, cap: Watts) -> Result<Watts, CapError> {
        if !self.arch.capping.user_enabled {
            return Err(CapError::Disabled);
        }
        if !self.arch.capping.socket_cap {
            return Err(CapError::Unsupported);
        }
        self.stale = true;
        self.rapl.set_socket_cap(socket, cap)
    }

    /// Clear a per-socket CPU cap.
    pub fn clear_socket_cap(&mut self, socket: usize) -> Result<(), CapError> {
        self.stale = true;
        self.rapl.clear_socket_cap(socket)
    }

    /// Integrate energy assuming the current draw held for `dt_seconds`.
    pub fn tick(&mut self, dt_seconds: f64) -> PowerDraw {
        self.refresh();
        self.meter.accumulate(&self.resolved, dt_seconds);
        self.resolved
    }

    /// Full sensor scan of the current draw.
    pub fn read_sensors(&mut self) -> SensorReading {
        self.refresh();
        self.sensors.read(&self.arch, &self.resolved)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::{lassen, tioga};

    fn busy_demand(arch: &NodeArch) -> PowerDemand {
        PowerDemand {
            cpu: Lanes::filled(Watts(150.0), arch.sockets),
            memory: Watts(80.0),
            gpu: Lanes::filled(Watts(260.0), arch.gpus),
            other: arch.other,
        }
    }

    #[test]
    fn idle_node_draws_idle_power() {
        let mut n = NodeHardware::new(NodeId(0), lassen(), 1);
        assert_eq!(n.draw().total(), Watts(400.0));
    }

    #[test]
    fn demand_changes_draw() {
        let mut n = NodeHardware::new(NodeId(0), lassen(), 1);
        let arch = n.arch.clone();
        n.set_demand(busy_demand(&arch));
        assert!(n.draw().total() > Watts(1000.0));
        n.set_idle();
        assert_eq!(n.draw().total(), Watts(400.0));
    }

    #[test]
    fn effective_caps_take_the_tighter_of_nvml_and_opal() {
        let mut n = NodeHardware::new(NodeId(0), lassen(), 1);
        // OPAL 1950 derives ~253.5 W.
        n.set_node_cap(Watts(1950.0)).unwrap();
        assert!(n.effective_gpu_caps()[0]
            .unwrap()
            .approx_eq(Watts(253.5), 0.1));
        // NVML 150 is tighter.
        n.set_gpu_cap(0, Watts(150.0)).unwrap();
        assert_eq!(n.effective_gpu_caps()[0], Some(Watts(150.0)));
        // NVML 280 is looser than OPAL's derived cap.
        n.set_gpu_cap(1, Watts(280.0)).unwrap();
        assert!(n.effective_gpu_caps()[1]
            .unwrap()
            .approx_eq(Watts(253.5), 0.1));
    }

    #[test]
    fn ibm_default_1200_caps_gpus_at_100() {
        // Paper Table III: IBM default at 1200 W node cap.
        let mut n = NodeHardware::new(NodeId(0), lassen(), 1);
        let arch = n.arch.clone();
        n.set_node_cap(Watts(1200.0)).unwrap();
        n.set_demand(busy_demand(&arch));
        let draw = n.draw();
        for g in &draw.gpu {
            assert_eq!(*g, Watts(100.0));
        }
        // 2×150 + 4×100 + 80 + 40 = 820 W — well under the 1200 W cap,
        // the under-utilization the paper reports.
        assert!(draw.total().approx_eq(Watts(820.0), 0.1));
    }

    #[test]
    fn tioga_rejects_all_capping() {
        let mut n = NodeHardware::new(NodeId(0), tioga(), 1);
        assert_eq!(n.set_node_cap(Watts(1000.0)), Err(CapError::Disabled));
        assert_eq!(
            n.set_gpu_cap(0, Watts(200.0)).unwrap_err(),
            CapError::Disabled
        );
    }

    #[test]
    fn tick_accumulates_energy() {
        let mut n = NodeHardware::new(NodeId(0), lassen(), 1);
        let arch = n.arch.clone();
        n.set_demand(busy_demand(&arch));
        let d1 = n.tick(2.0);
        n.tick(2.0);
        assert!((n.meter.total.get() - d1.total().get() * 4.0).abs() < 1e-6);
        assert_eq!(n.meter.peak, d1.total());
    }

    #[test]
    fn sensor_read_reflects_caps() {
        let mut n = NodeHardware::new(NodeId(0), lassen(), 1);
        n.sensors = Sensors::new(&n.arch, 0).with_noise(0.0);
        let arch = n.arch.clone();
        n.set_demand(busy_demand(&arch));
        let before = n.read_sensors().node.unwrap();
        n.set_node_cap(Watts(1200.0)).unwrap();
        let after = n.read_sensors().node.unwrap();
        assert!(after < before);
    }

    #[test]
    fn cache_invalidation_on_cap_change() {
        let mut n = NodeHardware::new(NodeId(0), lassen(), 1);
        let arch = n.arch.clone();
        n.set_demand(busy_demand(&arch));
        let a = n.draw().total();
        n.set_gpu_cap(0, Watts(100.0)).unwrap();
        let b = n.draw().total();
        assert!(b < a, "cap change must invalidate the cached draw");
        n.clear_node_cap().unwrap();
        let _ = n.draw();
    }

    #[test]
    fn memory_cap_clamps_memory_draw() {
        let mut n = NodeHardware::new(NodeId(0), lassen(), 1);
        let arch = n.arch.clone();
        n.set_demand(busy_demand(&arch));
        assert_eq!(n.draw().memory, Watts(80.0));
        let set = n.set_memory_cap(Watts(60.0)).unwrap();
        assert_eq!(set, Watts(60.0));
        assert_eq!(n.draw().memory, Watts(60.0));
        n.clear_memory_cap();
        assert_eq!(n.draw().memory, Watts(80.0));
        // Tioga refuses, as with every other dial.
        let mut t = NodeHardware::new(NodeId(1), tioga(), 1);
        assert_eq!(t.set_memory_cap(Watts(50.0)), Err(CapError::Disabled));
    }

    #[test]
    fn unchanged_demand_keeps_the_resolution_and_a_changed_one_drops_it() {
        let mut n = NodeHardware::new(NodeId(0), lassen(), 1);
        let busy = busy_demand(&n.arch);
        n.set_demand(busy);
        let first = *n.draw();
        n.set_demand(busy);
        assert!(!n.stale, "same demand: nothing to re-resolve");
        assert_eq!(*n.draw(), first);
        let mut lighter = busy;
        lighter.gpu[3] = Watts(120.0);
        n.set_demand(lighter);
        assert!(n.stale);
        assert_eq!(n.draw().gpu[3], Watts(120.0));
    }

    #[test]
    #[should_panic(expected = "at most 8 of either")]
    fn a_node_wider_than_the_inline_lists_is_refused_by_name() {
        let mut wide = tioga();
        wide.gpus = 9;
        NodeHardware::new(NodeId(0), wide, 1);
    }

    #[test]
    fn node_id_index() {
        assert_eq!(NodeId(7).index(), 7);
    }
}
