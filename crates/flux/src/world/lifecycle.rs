//! The lifecycle layer: node failure (single and batched), root
//! failover, recovery, whole-instance resurrection from the state log,
//! TBON re-balancing, and the topology-change notification every heal
//! ends with.

use super::{FluxEngine, World};
use crate::job::{JobId, JobState};
use crate::module::{ModuleCtx, SharedModule};
use crate::state::StateValue;
use crate::tbon::Rank;
use fluxpm_hw::NodeId;
use fluxpm_sim::{EventId, SimDuration, SimTime, TraceLevel};
use std::collections::BTreeMap;
use std::ops::ControlFlow;
use std::rc::Rc;

/// The lifecycle layer's state: what only this file reads and writes.
#[derive(Default)]
pub(super) struct Lifecycle {
    /// Factories for per-rank modules, replayed by
    /// [`World::recover_node`] to reload a rejoining broker.
    module_factories: Vec<Box<dyn Fn(Rank) -> SharedModule>>,
    /// Factories for *root-service* modules, used only when the whole
    /// instance died and a recovering rank resurrects it: each factory
    /// builds a fresh module whose state is then replayed from
    /// [`World::state`].
    root_service_factories: Vec<Box<dyn Fn() -> SharedModule>>,
    /// Whether topology changes are notified: set, once and for good,
    /// by [`World::engage_topology_watch`].
    topology_watch: bool,
}

impl World {
    /// Register a factory for a *per-rank* module. When a failed node
    /// rejoins via [`World::recover_node`], every registered factory is
    /// invoked to reload the broker's modules (fresh state — the node
    /// rebooted). Root-service modules migrate at failover instead and
    /// must not be registered here.
    pub fn register_module_factory(&mut self, factory: impl Fn(Rank) -> SharedModule + 'static) {
        self.lifecycle.module_factories.push(Box::new(factory));
    }

    /// Register a factory for a *root-service* module. Live root
    /// failovers migrate the module instance itself and never touch
    /// these; they exist for full instance death, where
    /// [`World::recover_node`] rebuilds each root service from its
    /// factory and replays its state from the [event log](World::state)
    /// (latest snapshot + tail events) back to the exact pre-crash
    /// state, then runs [`Module::on_migrate`](crate::Module::on_migrate)
    /// so in-flight work resumes under the new topology epoch.
    pub fn register_root_service_factory(&mut self, factory: impl Fn() -> SharedModule + 'static) {
        self.lifecycle
            .root_service_factories
            .push(Box::new(factory));
    }

    /// Fold the current state of every snapshotting root-service module
    /// into the [event log](World::state) and truncate its tail. Called
    /// periodically via [`World::schedule_state_snapshots`], or directly
    /// by tests and operators.
    pub fn take_state_snapshot(&mut self, eng: &FluxEngine) {
        let root = self.root();
        let broker = &self.brokers[root.index()];
        let mut modules: BTreeMap<&'static str, StateValue> = BTreeMap::new();
        for name in broker.module_names() {
            let Some(m) = broker.module(name) else {
                continue;
            };
            let m = m.borrow();
            if !m.root_service() {
                continue;
            }
            if let Some(v) = m.snapshot() {
                modules.insert(name, v);
            }
        }
        self.state.install_snapshot(eng.now().as_micros(), modules);
    }

    /// Take a state snapshot every `interval` starting at `start` — the
    /// periodic snapshot cadence that keeps the event log's tail bounded
    /// on long-running instances. Stops when the world halts.
    pub fn schedule_state_snapshots(
        &mut self,
        eng: &mut FluxEngine,
        start: SimTime,
        interval: SimDuration,
    ) -> EventId {
        eng.schedule_every(start, interval, move |world: &mut World, eng| {
            if world.halted {
                return ControlFlow::Break(());
            }
            world.take_state_snapshot(eng);
            ControlFlow::Continue(())
        })
    }

    /// Rebuild every registered root service on `rank` (the freshly
    /// promoted root of a resurrected instance) and replay each one from
    /// the event log. Two phases, mirroring `fail_root`: register and
    /// replay all modules first, then run the migration hooks — a hook
    /// may immediately RPC a sibling root service, which must already be
    /// routable and restored.
    fn resurrect_root_services(&mut self, eng: &mut FluxEngine, rank: Rank) {
        let factories = std::mem::take(&mut self.lifecycle.root_service_factories);
        let mut revived: Vec<SharedModule> = Vec::new();
        for f in &factories {
            let m = f();
            let name = m.borrow().name();
            if self.brokers[rank.index()].register(Rc::clone(&m)) {
                self.subscribe(rank, &m);
                {
                    let mut module = m.borrow_mut();
                    if let Some(v) = self.state.snapshot().and_then(|s| s.modules.get(name)) {
                        module.restore(v);
                    }
                    for ev in self.state.tail_for(name) {
                        module.apply_event(ev);
                    }
                }
                self.trace.emit(
                    eng.now(),
                    TraceLevel::Info,
                    "tbon",
                    format_args!("resurrected {name} on {rank} from state log"),
                );
                revived.push(m);
            }
        }
        self.lifecycle.root_service_factories = factories;
        self.migrate_in(eng, rank, revived);
    }

    /// Run [`Module::on_migrate`](crate::Module::on_migrate) for modules
    /// that just arrived on `rank`, after all of them are registered.
    fn migrate_in(&mut self, eng: &mut FluxEngine, rank: Rank, modules: Vec<SharedModule>) {
        for m in modules {
            let mut ctx = ModuleCtx {
                world: self,
                eng,
                rank,
            };
            m.borrow_mut().on_migrate(&mut ctx);
        }
    }

    /// Whether a rank's broker is up.
    pub fn broker_up(&self, rank: Rank) -> bool {
        self.brokers[rank.index()].is_up()
    }

    /// Fail one node: [`World::fail_nodes`] with a batch of one.
    pub fn fail_node(&mut self, eng: &mut FluxEngine, node: NodeId) {
        self.fail_nodes(eng, &[node]);
    }

    /// Simulate node failures as one *overlapping* event. Each broker
    /// goes down — it no longer originates, receives, or relays overlay
    /// traffic — its in-flight outbound RPCs are cancelled (their
    /// callbacks never fire), and any job running on the node fails. The
    /// node is withheld from the scheduler until [`World::recover_node`]
    /// brings it back.
    ///
    /// The overlay *heals* instead of partitioning: an interior rank's
    /// orphaned children re-attach to its parent
    /// ([`Tbon::detach`](crate::Tbon::detach)), and a dying root hands
    /// the root role to the lowest surviving rank
    /// ([`Tbon::promote_root`](crate::Tbon::promote_root)), migrating
    /// every [root-service](crate::Module::root_service) module — state
    /// and all — onto the successor. Messages already in flight keep the
    /// route they were launched on and are dropped if it transits a dead
    /// rank; messages sent afterwards use the healed topology.
    ///
    /// The batch is the storm case: several interior deaths in one tick,
    /// possibly including the node adopting another's orphans or the
    /// root itself. Every member goes down *before* any healing, so
    /// neither re-parenting nor the root election can land on a rank
    /// dying in the same batch. Already-down members are skipped, so the
    /// batch converges to one consistent epoch whatever the overlap with
    /// an in-progress recovery.
    pub fn fail_nodes(&mut self, eng: &mut FluxEngine, nodes: &[NodeId]) {
        let mut batch: Vec<NodeId> = nodes.to_vec();
        batch.sort_unstable_by_key(|n| n.0);
        batch.dedup();
        batch.retain(|n| self.brokers[n.index()].is_up());
        if batch.is_empty() {
            return;
        }
        let root = self.tbon.root();
        let root_dying = batch.iter().any(|&n| n.0 == root.0) && self.tbon.is_attached(root);
        // Root failover migrates root-service modules to the lowest
        // surviving rank — which may belong to another shard's subtree,
        // where this replica cannot re-home live module state. Sharded
        // scenarios must keep the root alive (see DESIGN.md §12).
        assert!(
            self.shard_ctx.is_none() || !root_dying,
            "sharded worlds do not support root failover: scenario killed the root rank"
        );
        // Root services survive the root's death: capture them before
        // the broker's module table is torn down.
        let mut migrants: Vec<SharedModule> = Vec::new();
        if root_dying {
            for name in self.brokers[root.index()].module_names() {
                if let Some(m) = self.brokers[root.index()].module(name) {
                    if m.borrow().root_service() {
                        migrants.push(m);
                    }
                }
            }
        }
        // Phase 1: every member goes down and loses its modules first.
        for &node in &batch {
            self.trace.emit(
                eng.now(),
                TraceLevel::Warn,
                "node",
                format_args!("{node:?} failed"),
            );
            self.brokers[node.index()].set_down();
            let names: Vec<&'static str> = self.brokers[node.index()].module_names();
            for name in names {
                self.brokers[node.index()].unregister(name);
            }
            self.unsubscribe(Rank(node.0));
        }
        // Cancel the dead ranks' pending outbound RPCs so reductions
        // they were driving cannot complete from the grave.
        for &node in &batch {
            let rank = Rank(node.0);
            let cancelled = self.rpcs.cancel_from(eng, rank);
            if cancelled > 0 {
                self.trace.emit(
                    eng.now(),
                    TraceLevel::Info,
                    "node",
                    format_args!("{rank}: cancelled {cancelled} pending rpc(s)"),
                );
            }
        }
        // Phase 2: heal the overlay before tearing jobs down, so job
        // exception events publish from a live root. Non-root members
        // detach in rank order; orphans adopted by a member later in
        // the batch simply move up again when that member detaches.
        // The root failover runs last, when the election can only see
        // brokers that survive the whole batch.
        for &node in &batch {
            let rank = Rank(node.0);
            if rank == self.tbon.root() || !self.tbon.is_attached(rank) {
                continue;
            }
            let orphans = self.tbon.detach(rank);
            if let Some(parent) = orphans.first().and_then(|&o| self.tbon.parent(o)) {
                self.trace.emit(
                    eng.now(),
                    TraceLevel::Info,
                    "tbon",
                    format_args!(
                        "re-parented {} orphan(s) of {rank} under {parent} (epoch {})",
                        orphans.len(),
                        self.tbon.epoch()
                    ),
                );
            }
        }
        if root_dying {
            self.fail_root(eng, root, migrants);
        }
        // Phase 3: scheduler/job teardown. Withhold every idle member
        // *before* any job finishes — finishing a job runs the
        // scheduler, which must not place new work on a node dying in
        // this same batch.
        for &node in &batch {
            self.nodes[node.index()].set_idle();
            if self.jobs.job_on_node(node).is_none() && self.sched.is_free(node) {
                let _ = self.sched.allocate_specific(node);
            }
        }
        let mut failed_jobs: Vec<JobId> = Vec::new();
        for &node in &batch {
            if let Some(job) = self.jobs.job_on_node(node) {
                if !failed_jobs.contains(&job) {
                    failed_jobs.push(job);
                }
            }
        }
        for job in failed_jobs {
            // The job's processes are gone: drop the program so no
            // stale executor slice can ever step the job again.
            if let Some(j) = self.jobs.get_mut(job) {
                j.program = None;
            }
            // Tear the job down without returning any failed node.
            self.finish_job(eng, job, eng.now(), JobState::Failed, &batch);
        }
        // The overlay healed above (detach re-parenting, root
        // failover): let surviving modules refresh cached tree-shape
        // state now that the batch's full effect is in place.
        self.notify_topology_change(eng);
    }

    /// Root failover: elect the lowest live rank, promote it in the
    /// topology, and migrate the root-service modules onto it.
    fn fail_root(&mut self, eng: &mut FluxEngine, old_root: Rank, migrants: Vec<SharedModule>) {
        let successor = self
            .tbon
            .attached()
            .find(|&r| r != old_root && self.brokers[r.index()].is_up());
        let Some(successor) = successor else {
            self.trace.emit(
                eng.now(),
                TraceLevel::Warn,
                "tbon",
                format_args!("{old_root} failed with no live successor; instance is dead"),
            );
            return;
        };
        self.tbon.promote_root(successor);
        self.trace.emit(
            eng.now(),
            TraceLevel::Warn,
            "tbon",
            format_args!(
                "root failover: {old_root} -> {successor} (epoch {})",
                self.tbon.epoch()
            ),
        );
        // Two phases: re-register every migrant first, then run the
        // migration hooks — a hook may immediately RPC a sibling root
        // service (e.g. the cluster manager re-pushing limits through
        // the job manager), which must already be routable.
        let mut migrated: Vec<SharedModule> = Vec::new();
        for m in migrants {
            let name = m.borrow().name();
            if self.brokers[successor.index()].register(Rc::clone(&m)) {
                self.subscribe(successor, &m);
                self.trace.emit(
                    eng.now(),
                    TraceLevel::Info,
                    "tbon",
                    format_args!("migrated {name} to {successor}"),
                );
                migrated.push(m);
            }
        }
        self.migrate_in(eng, successor, migrated);
    }

    /// Bring a failed node back: the broker rejoins the overlay as a
    /// *leaf* under its nearest live original ancestor (falling back to
    /// the current root — a recovered ex-root does *not* reclaim the
    /// root role), the node returns to the scheduler pool, and every
    /// registered [module factory](World::register_module_factory)
    /// reloads the broker's per-rank modules with fresh state — the node
    /// rebooted, so e.g. monitor ring buffers restart empty and report
    /// partial history for windows spanning the outage. Returns `false`
    /// (a no-op) if the node is already up.
    ///
    /// The result is `#[must_use]`: a recovery that silently no-ops is
    /// precisely the failure mode chaos tests exist to catch, so call
    /// sites must either assert the outcome or explicitly guard on the
    /// node being down first.
    #[must_use = "recover_node returns false when the node was already up — assert or guard the outcome"]
    pub fn recover_node(&mut self, eng: &mut FluxEngine, node: NodeId) -> bool {
        if self.brokers[node.index()].is_up() {
            return false;
        }
        let rank = Rank(node.0);
        self.brokers[node.index()].set_up();
        let cur_root = self.tbon.root();
        let resurrected = !self.tbon.is_attached(rank) && !self.brokers[cur_root.index()].is_up();
        let now = eng.now();
        if resurrected {
            // The instance died entirely (the root failed with no live
            // successor, so it kept the root role while down). The
            // first rank to recover resurrects the instance as its new
            // root. The old root-service module instances died with the
            // instance; per-rank module factories reload below, and
            // registered root services are rebuilt afterwards and
            // replayed from the event log to their pre-crash state.
            self.tbon.attach(rank, cur_root);
            self.tbon.promote_root(rank);
            self.trace.emit(
                now,
                TraceLevel::Warn,
                "tbon",
                format_args!(
                    "{node:?} recovered; instance resurrected with {rank} as root (epoch {})",
                    self.tbon.epoch()
                ),
            );
        } else if !self.tbon.is_attached(rank) {
            // Nearest live ancestor in the original k-ary shape; the
            // current root catches everything else (including an
            // ex-root, which has no original ancestors at all).
            let fanout = self.tbon.fanout();
            let mut probe = rank;
            let mut parent = None;
            while probe != Rank::ROOT {
                probe = Rank((probe.0 - 1) / fanout);
                if self.tbon.is_attached(probe) && self.brokers[probe.index()].is_up() {
                    parent = Some(probe);
                    break;
                }
            }
            let parent = parent.unwrap_or_else(|| self.tbon.root());
            self.tbon.attach(rank, parent);
            self.trace.emit(
                now,
                TraceLevel::Info,
                "tbon",
                format_args!(
                    "{node:?} recovered; {rank} rejoined under {parent} (epoch {})",
                    self.tbon.epoch()
                ),
            );
        } else {
            self.trace.emit(
                now,
                TraceLevel::Info,
                "tbon",
                format_args!("{node:?} recovered"),
            );
        }
        // Return the node to the free pool (it was withheld at failure)
        // unless something already holds it.
        if !self.sched.is_free(node) && self.jobs.job_on_node(node).is_none() {
            self.sched.release(&[node]);
        }
        // Reload per-rank modules with fresh state.
        let factories = std::mem::take(&mut self.lifecycle.module_factories);
        for f in &factories {
            self.load_module(eng, rank, f(rank));
        }
        self.lifecycle.module_factories = factories;
        // Root services replay *after* the per-rank reload: their
        // migration hooks may RPC per-rank peers (e.g. re-pushed node
        // limits), which must already be routable.
        if resurrected {
            self.resurrect_root_services(eng, rank);
        }
        self.notify_topology_change(eng);
        true
    }

    /// One post-churn re-balance pass: if fail/recover churn has pushed
    /// some attached rank deeper than the fresh k-ary depth for the
    /// current live-rank count, restore k-ary shape over the live ranks
    /// ([`Tbon::rebalance`](crate::Tbon::rebalance); epoch-bumped, so
    /// route caches drop and new sends route against the re-balanced
    /// tree). Returns whether the topology changed. A balanced tree is
    /// left untouched — no epoch churn, no trace.
    #[must_use = "rebalance_tbon returns false when the tree was already balanced — assert or guard the outcome"]
    pub fn rebalance_tbon(&mut self, eng: &mut FluxEngine) -> bool {
        if self.tbon.is_balanced() {
            return false;
        }
        let before = self.tbon.max_depth();
        let changed = self.tbon.rebalance();
        if changed {
            self.trace.emit(
                eng.now(),
                TraceLevel::Info,
                "tbon",
                format_args!(
                    "re-balanced: depth {before} -> {} over {} live rank(s) (epoch {})",
                    self.tbon.max_depth(),
                    self.tbon.attached().count(),
                    self.tbon.epoch()
                ),
            );
            self.notify_topology_change(eng);
        }
        changed
    }

    /// Install a periodic post-churn re-balance pass (stops when the
    /// world halts). Each tick runs [`World::rebalance_tbon`], so a
    /// long fail/recover churn cannot permanently flatten the TBON into
    /// a leaf-heavy tree.
    pub fn schedule_rebalance(&mut self, eng: &mut FluxEngine, interval: SimDuration) {
        let start = eng.now() + interval;
        eng.schedule_every(start, interval, move |world: &mut World, eng| {
            if world.halted {
                return ControlFlow::Break(());
            }
            // Periodic pass: a balanced tree legitimately makes this a
            // no-op, so the result carries no signal here.
            let _changed = world.rebalance_tbon(eng);
            ControlFlow::Continue(())
        });
    }

    /// Opt this world into topology-change notification: from now on,
    /// every topology-epoch bump invokes
    /// [`Module::on_topology_change`](crate::Module::on_topology_change)
    /// on every live broker's modules. Modules call this the moment
    /// they first cache tree-shape state worth refreshing (a relay
    /// accepting its first subscription or child advert); until then
    /// the per-event notification scan is skipped entirely, so worlds
    /// with no such state pay one branch per membership change instead
    /// of an all-ranks module walk. Monotone by design — there is no
    /// disengage, which keeps the flag trivially consistent across
    /// sharded replicas (a replica that never hosts watcher state
    /// skips only calls that would have been no-ops on its ranks).
    pub fn engage_topology_watch(&mut self) {
        self.lifecycle.topology_watch = true;
    }

    /// Invoke [`Module::on_topology_change`](crate::Module::on_topology_change)
    /// on every live, attached broker's modules after a topology-epoch
    /// bump. Iteration order is deterministic (rank order, then sorted
    /// module names) so sharded replicas — which only host modules on
    /// ranks they own — stay byte-identical regardless of partitioning.
    /// Free until the first [`World::engage_topology_watch`] call.
    pub(super) fn notify_topology_change(&mut self, eng: &mut FluxEngine) {
        if !self.lifecycle.topology_watch {
            return;
        }
        let mut targets: Vec<(Rank, SharedModule)> = Vec::new();
        for r in 0..self.size() {
            let rank = Rank(r);
            if !self.brokers[r as usize].is_up() || !self.tbon.is_attached(rank) {
                continue;
            }
            for name in self.brokers[r as usize].module_names() {
                if let Some(m) = self.brokers[r as usize].module(name) {
                    targets.push((rank, m));
                }
            }
        }
        for (rank, module) in targets {
            let mut ctx = ModuleCtx {
                world: self,
                eng,
                rank,
            };
            module.borrow_mut().on_topology_change(&mut ctx);
        }
    }
}
