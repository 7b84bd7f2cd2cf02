//! User-level Flux instances.
//!
//! When a Flux user is allocated nodes, they receive their *own* Flux
//! instance and may run their own scheduler and their own power policy
//! inside it (paper §I/§II-B: "different users can choose different
//! power-aware scheduling policies within their respective allocations").
//!
//! [`SubInstance`] reproduces that: it is itself a [`JobProgram`] — the
//! system instance schedules it like any job — and inside its allocation
//! it runs
//!
//! * its own FCFS mini-scheduler over its child jobs, and
//! * an optional *user power policy* ([`InstancePowerPolicy`]): a private
//!   power budget divided among concurrently running children by
//!   user-chosen weights, enforced with per-GPU caps on the user's own
//!   nodes — no system privileges required.

use crate::job::{JobProgram, StepCtx, StepOutcome};
use fluxpm_hw::{NodeHardware, Watts};
use std::collections::BTreeSet;

/// A user-level power policy: a budget split across running children by
/// weight.
#[derive(Debug, Clone, PartialEq)]
pub struct InstancePowerPolicy {
    /// The user's self-imposed power budget across their whole
    /// allocation.
    pub total: Watts,
    /// Relative weight per child (index-aligned with the children).
    /// Children with higher weights receive proportionally more of the
    /// budget while they run.
    pub weights: Vec<f64>,
}

/// One child job inside the instance.
struct Child {
    name: String,
    nnodes: u32,
    program: Box<dyn JobProgram>,
    /// Offsets into the instance's node allocation, assigned at start.
    offsets: Vec<usize>,
    state: ChildState,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum ChildState {
    Pending,
    Running,
    Done,
}

/// A user-level instance: a queue of child jobs scheduled FCFS over the
/// instance's allocation, with an optional user power policy.
pub struct SubInstance {
    name: String,
    children: Vec<Child>,
    policy: Option<InstancePowerPolicy>,
    /// Free node offsets within the allocation.
    free: BTreeSet<usize>,
    nnodes: u32,
    started: bool,
    /// Caps must be (re)applied when the running set changes.
    caps_dirty: bool,
}

impl SubInstance {
    /// Create an empty instance expecting `nnodes` allocated nodes.
    pub fn new(name: impl Into<String>, nnodes: u32) -> SubInstance {
        SubInstance {
            name: name.into(),
            children: Vec::new(),
            policy: None,
            free: (0..nnodes as usize).collect(),
            nnodes,
            started: false,
            caps_dirty: false,
        }
    }

    /// Queue a child job (FCFS order = call order). `nnodes` must fit
    /// within the instance's allocation.
    pub fn with_child(
        mut self,
        name: impl Into<String>,
        nnodes: u32,
        program: Box<dyn JobProgram>,
    ) -> SubInstance {
        assert!(
            nnodes >= 1 && nnodes <= self.nnodes,
            "child wants {nnodes} of {} instance nodes",
            self.nnodes
        );
        self.children.push(Child {
            name: name.into(),
            nnodes,
            program,
            offsets: Vec::new(),
            state: ChildState::Pending,
        });
        self
    }

    /// Install a user power policy. `weights` must match the child count
    /// (enforced at start).
    pub fn with_power_policy(mut self, policy: InstancePowerPolicy) -> SubInstance {
        self.policy = Some(policy);
        self
    }

    /// Names and states of children (for tests/reports):
    /// `(name, running, done)`.
    pub fn child_states(&self) -> Vec<(String, bool, bool)> {
        self.children
            .iter()
            .map(|c| {
                (
                    c.name.clone(),
                    c.state == ChildState::Running,
                    c.state == ChildState::Done,
                )
            })
            .collect()
    }

    /// FCFS without backfill, like the system scheduler.
    fn try_schedule(&mut self, ctx: &mut StepCtx<'_>) {
        loop {
            let Some(child_idx) = self
                .children
                .iter()
                .position(|c| c.state == ChildState::Pending)
            else {
                return;
            };
            let want = self.children[child_idx].nnodes as usize;
            if self.free.len() < want {
                return;
            }
            let offsets: Vec<usize> = self.free.iter().copied().take(want).collect();
            for o in &offsets {
                self.free.remove(o);
            }
            {
                let child = &mut self.children[child_idx];
                child.offsets = offsets;
                child.state = ChildState::Running;
            }
            self.caps_dirty = true;
            // Give the child its start callback on its node subset.
            self.with_child_ctx(ctx, child_idx, |program, sub| program.on_start(sub));
        }
    }

    /// Run `f` with a child-scoped step context (the child's node subset
    /// and per-node lost time).
    fn with_child_ctx(
        &mut self,
        ctx: &mut StepCtx<'_>,
        child_idx: usize,
        f: impl FnOnce(&mut dyn JobProgram, &mut StepCtx<'_>),
    ) {
        let offsets = self.children[child_idx].offsets.clone();
        let lost: Vec<f64> = offsets
            .iter()
            .map(|&o| ctx.lost_cpu_seconds.get(o).copied().unwrap_or(0.0))
            .collect();
        let wanted: BTreeSet<usize> = offsets.iter().copied().collect();
        let mut picked: Vec<(usize, &mut NodeHardware)> = ctx
            .nodes
            .iter_mut()
            .enumerate()
            .filter(|(i, _)| wanted.contains(i))
            .map(|(i, n)| (i, &mut **n))
            .collect();
        // Order by the child's allocation order (every picked index is
        // one of the offsets, so no key is `None`).
        picked.sort_by_key(|(i, _)| offsets.iter().position(|o| o == i));
        let nodes: Vec<&mut NodeHardware> = picked.into_iter().map(|(_, n)| n).collect();
        let mut sub = StepCtx {
            now: ctx.now,
            dt: ctx.dt,
            nodes,
            lost_cpu_seconds: lost,
        };
        f(self.children[child_idx].program.as_mut(), &mut sub);
    }

    /// Apply the user power policy: divide the budget among running
    /// children by weight and enforce per-GPU caps on their nodes.
    fn apply_power_policy(&mut self, ctx: &mut StepCtx<'_>) {
        let Some(policy) = self.policy.clone() else {
            return;
        };
        let running: Vec<usize> = (0..self.children.len())
            .filter(|&i| self.children[i].state == ChildState::Running)
            .collect();
        if running.is_empty() {
            return;
        }
        let total_weight: f64 = running
            .iter()
            .map(|&i| policy.weights.get(i).copied().unwrap_or(1.0))
            .sum();
        for &i in &running {
            let w = policy.weights.get(i).copied().unwrap_or(1.0);
            let child_share = policy.total * (w / total_weight.max(1e-9));
            let per_node = child_share / self.children[i].nnodes as f64;
            let offsets = self.children[i].offsets.clone();
            for &o in &offsets {
                let node = &mut *ctx.nodes[o];
                let arch = node.arch.clone();
                if !arch.capping.user_enabled || !arch.capping.gpu_cap {
                    continue;
                }
                let budget = (per_node - arch.idle_node_power()).max(Watts::ZERO);
                let per_gpu = (budget / arch.gpus.max(1) as f64)
                    .clamp(arch.capping.min_gpu_cap, arch.capping.max_gpu_cap);
                for gpu in 0..arch.gpus {
                    // User-level capping inside the allocation; failures
                    // are tolerated (a stale cap self-heals next change).
                    let _ = node.set_gpu_cap(gpu, per_gpu);
                }
            }
        }
        self.caps_dirty = false;
    }
}

impl JobProgram for SubInstance {
    fn app_name(&self) -> &str {
        &self.name
    }

    fn on_start(&mut self, ctx: &mut StepCtx<'_>) {
        assert!(!self.started, "instance started twice");
        assert_eq!(
            ctx.nodes.len(),
            self.nnodes as usize,
            "allocation must match the instance size"
        );
        if let Some(p) = &self.policy {
            assert_eq!(p.weights.len(), self.children.len(), "one weight per child");
        }
        self.started = true;
        self.try_schedule(ctx);
        self.apply_power_policy(ctx);
    }

    fn step(&mut self, ctx: &mut StepCtx<'_>) -> StepOutcome {
        // If the instance completes in this slice, its true end is when
        // the *last* child finished — the smallest leftover among the
        // children that finish here.
        let mut final_leftover = f64::INFINITY;
        for i in 0..self.children.len() {
            if self.children[i].state != ChildState::Running {
                continue;
            }
            let mut outcome = StepOutcome::Running;
            self.with_child_ctx(ctx, i, |program, sub| {
                outcome = program.step(sub);
            });
            if let StepOutcome::Done { leftover_seconds } = outcome {
                final_leftover = final_leftover.min(leftover_seconds);
                let offsets = std::mem::take(&mut self.children[i].offsets);
                for &o in &offsets {
                    ctx.nodes[o].set_idle();
                    self.free.insert(o);
                }
                self.children[i].state = ChildState::Done;
                self.caps_dirty = true;
            }
        }
        self.try_schedule(ctx);
        if self.caps_dirty {
            self.apply_power_policy(ctx);
        }
        if self.children.iter().all(|c| c.state == ChildState::Done) {
            let leftover = if final_leftover.is_finite() {
                final_leftover
            } else {
                0.0
            };
            StepOutcome::Done {
                leftover_seconds: leftover,
            }
        } else {
            StepOutcome::Running
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobSpec;
    use crate::world::World;
    use fluxpm_hw::{Lanes, MachineKind, PowerDemand};
    use fluxpm_sim::Engine;

    /// Fixed-duration child drawing a constant GPU load.
    pub(super) struct Burn {
        secs: f64,
        done: f64,
        gpu_w: f64,
    }

    impl Burn {
        pub(super) fn new(secs: f64, gpu_w: f64) -> Burn {
            Burn {
                secs,
                done: 0.0,
                gpu_w,
            }
        }
        fn demand(&self, ctx: &mut StepCtx<'_>) {
            for n in &mut ctx.nodes {
                let arch = n.arch.clone();
                n.set_demand(PowerDemand {
                    cpu: Lanes::filled(Watts(120.0), arch.sockets),
                    memory: Watts(70.0),
                    gpu: Lanes::filled(Watts(self.gpu_w), arch.gpus),
                    other: arch.other,
                });
            }
        }
    }

    impl JobProgram for Burn {
        fn app_name(&self) -> &str {
            "burn"
        }
        fn on_start(&mut self, ctx: &mut StepCtx<'_>) {
            self.demand(ctx);
        }
        fn step(&mut self, ctx: &mut StepCtx<'_>) -> StepOutcome {
            self.done += ctx.dt;
            if self.done >= self.secs {
                StepOutcome::Done {
                    leftover_seconds: self.done - self.secs,
                }
            } else {
                self.demand(ctx);
                StepOutcome::Running
            }
        }
    }

    fn run_instance(inst: SubInstance, nnodes: u32) -> (World, crate::job::JobId) {
        let mut w = World::new(MachineKind::Lassen, nnodes, 3);
        w.autostop_after = Some(1);
        let mut eng = Engine::new();
        w.install_executor(&mut eng);
        let id = w.submit(
            &mut eng,
            JobSpec::new("user-instance", nnodes),
            Box::new(inst),
        );
        eng.run(&mut w);
        (w, id)
    }

    #[test]
    fn children_schedule_fcfs_within_allocation() {
        // 4-node instance: a 3-node child blocks a 2-node child (FCFS,
        // no backfill), which then runs; total = 10 + 10 s.
        let inst = SubInstance::new("ui", 4)
            .with_child("a", 3, Box::new(Burn::new(10.0, 150.0)))
            .with_child("b", 2, Box::new(Burn::new(10.0, 150.0)));
        let (w, id) = run_instance(inst, 4);
        let rt = w.jobs.get(id).unwrap().runtime_seconds().unwrap();
        assert!((rt - 20.0).abs() < 1.5, "sequential children: {rt}");
    }

    #[test]
    fn concurrent_children_share_the_allocation() {
        let inst = SubInstance::new("ui", 4)
            .with_child("a", 2, Box::new(Burn::new(10.0, 150.0)))
            .with_child("b", 2, Box::new(Burn::new(10.0, 150.0)));
        let (w, id) = run_instance(inst, 4);
        let rt = w.jobs.get(id).unwrap().runtime_seconds().unwrap();
        assert!((rt - 10.0).abs() < 1.5, "parallel children: {rt}");
    }

    #[test]
    fn user_power_policy_weights_gpu_caps() {
        // Two concurrent 1-node children under a 2 kW user budget with
        // 3:1 weights: child a's node gets 1500 W -> GPU caps
        // (1500-400)/4 = 275; child b's node gets 500 -> floor 100 W.
        let inst = SubInstance::new("ui", 2)
            .with_child("a", 1, Box::new(Burn::new(30.0, 290.0)))
            .with_child("b", 1, Box::new(Burn::new(30.0, 290.0)))
            .with_power_policy(InstancePowerPolicy {
                total: Watts(2000.0),
                weights: vec![3.0, 1.0],
            });
        let (mut w, _) = run_instance(inst, 2);
        // After the run caps remain at their last applied values.
        let cap_a = w.nodes[0].nvml.gpu_cap(0).unwrap();
        let cap_b = w.nodes[1].nvml.gpu_cap(0).unwrap();
        assert!(cap_a.approx_eq(Watts(275.0), 1.0), "weighted high: {cap_a}");
        assert!(cap_b.approx_eq(Watts(100.0), 1.0), "weighted low: {cap_b}");
        // And the capped node actually drew less.
        let e_a = w.nodes[0].meter.total.get();
        let e_b = w.nodes[1].meter.total.get();
        assert!(e_a > e_b, "favoured child used more energy: {e_a} vs {e_b}");
        let _ = w.cluster_power();
    }

    #[test]
    fn finished_child_frees_nodes_for_the_next() {
        // 2-node instance, three 1-node children: c starts when a ends.
        let inst = SubInstance::new("ui", 2)
            .with_child("a", 1, Box::new(Burn::new(5.0, 150.0)))
            .with_child("b", 1, Box::new(Burn::new(15.0, 150.0)))
            .with_child("c", 1, Box::new(Burn::new(5.0, 150.0)));
        let (w, id) = run_instance(inst, 2);
        let rt = w.jobs.get(id).unwrap().runtime_seconds().unwrap();
        // a: 0-5, c: 5-10, b: 0-15 => instance ends ~15.
        assert!((rt - 15.0).abs() < 1.5, "{rt}");
    }

    #[test]
    #[should_panic(expected = "child wants")]
    fn oversized_child_rejected() {
        SubInstance::new("ui", 2).with_child("x", 3, Box::new(Burn::new(1.0, 100.0)));
    }
}

#[cfg(test)]
mod more_subinstance_tests {
    use super::tests::Burn;
    use super::*;
    use crate::job::JobSpec;
    use crate::world::World;
    use fluxpm_hw::MachineKind;
    use fluxpm_sim::Engine;

    #[test]
    fn child_states_track_lifecycle() {
        let inst = SubInstance::new("ui", 2)
            .with_child("a", 2, Box::new(Burn::new(5.0, 150.0)))
            .with_child("b", 2, Box::new(Burn::new(5.0, 150.0)));
        let states = inst.child_states();
        assert_eq!(states.len(), 2);
        assert!(states.iter().all(|(_, running, done)| !running && !done));
        assert_eq!(states[0].0, "a");
    }

    #[test]
    fn power_policy_skips_uncappable_machines() {
        // On Tioga the user policy cannot set caps; the instance must
        // still schedule and complete its children.
        let inst = SubInstance::new("ui", 2)
            .with_child("a", 1, Box::new(Burn::new(8.0, 100.0)))
            .with_child("b", 1, Box::new(Burn::new(8.0, 100.0)))
            .with_power_policy(InstancePowerPolicy {
                total: Watts(2000.0),
                weights: vec![2.0, 1.0],
            });
        let mut w = World::new(MachineKind::Tioga, 2, 5);
        w.autostop_after = Some(1);
        let mut eng = Engine::new();
        w.install_executor(&mut eng);
        let id = w.submit(&mut eng, JobSpec::new("ui", 2), Box::new(inst));
        eng.run(&mut w);
        let rt = w.jobs.get(id).unwrap().runtime_seconds().unwrap();
        assert!((rt - 8.0).abs() < 1.5, "{rt}");
        assert_eq!(w.nodes[0].nvml.gpu_cap(0), None, "no caps on Tioga");
    }

    #[test]
    #[should_panic(expected = "one weight per child")]
    fn mismatched_weights_rejected_at_start() {
        let inst = SubInstance::new("ui", 2)
            .with_child("a", 1, Box::new(Burn::new(1.0, 100.0)))
            .with_power_policy(InstancePowerPolicy {
                total: Watts(1000.0),
                weights: vec![1.0, 2.0, 3.0],
            });
        let mut w = World::new(MachineKind::Lassen, 2, 5);
        w.autostop_after = Some(1);
        let mut eng = Engine::new();
        w.install_executor(&mut eng);
        w.submit(&mut eng, JobSpec::new("ui", 2), Box::new(inst));
        eng.run(&mut w);
    }
}
