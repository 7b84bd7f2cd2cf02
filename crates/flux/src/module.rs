//! Broker modules (Flux RFC 5).
//!
//! A module is a dynamically loaded broker plugin with its own thread of
//! control that interacts with Flux exclusively via messages. In the
//! simulation a module is a `Rc<RefCell<dyn Module>>`: the broker
//! dispatches messages into it, and the module uses the [`ModuleCtx`] to
//! send messages, issue RPCs, and schedule timers (its "thread").

use crate::message::Message;
use crate::state::{StateEvent, StateValue};
use crate::tbon::Rank;
use crate::topic::Topic;
use crate::world::{FluxEngine, World};
use std::cell::RefCell;
use std::rc::Rc;

/// A dynamically loadable broker module.
pub trait Module: 'static {
    /// The module's service name, e.g. `"power-monitor"`.
    fn name(&self) -> &'static str;

    /// Topics this module's handlers serve (exact-match). Registered at
    /// load time.
    fn topics(&self) -> Vec<Topic>;

    /// Called once after the module is registered on a rank. Typical use:
    /// start periodic work (sampling loops) via `ctx.eng`.
    fn load(&mut self, ctx: &mut ModuleCtx<'_>);

    /// Handle a message addressed to one of this module's topics.
    fn handle(&mut self, ctx: &mut ModuleCtx<'_>, msg: &Message);

    /// Timer callback, driven by
    /// [`World::schedule_module_timer`](crate::World::schedule_module_timer)
    /// (periodic) or [`World::wake_module`](crate::World::wake_module)
    /// (once). `tag` distinguishes multiple timers on one module.
    /// Default: no-op.
    fn timer(&mut self, ctx: &mut ModuleCtx<'_>, tag: u64) {
        let _ = (ctx, tag);
    }

    /// Whether this module is a *root service*: cluster-singleton state
    /// that must survive root-rank death. When the root broker fails,
    /// [`World::fail_node`](crate::World::fail_node) migrates every
    /// root-service module (its `Rc`, state and all) onto the elected
    /// successor and calls [`Module::on_migrate`] there. Default: false
    /// (per-rank modules die with their broker).
    fn root_service(&self) -> bool {
        false
    }

    /// Called after a root-service module has been re-registered on the
    /// failover successor. `ctx.rank` is the new root. Typical use:
    /// re-issue in-flight pushes under the new topology epoch. Default:
    /// no-op.
    fn on_migrate(&mut self, ctx: &mut ModuleCtx<'_>) {
        let _ = ctx;
    }

    /// Called on every live broker's modules after the TBON topology
    /// epoch changes — congestion re-parenting, node death (including
    /// root failover), broker rejoin, and `rebalance_tbon`. Modules
    /// that cache tree-shape state (a parent to advertise to, per-child
    /// routing filters) refresh it here. `ctx.rank` is the rank the
    /// module runs on; the new topology is already in place. Default:
    /// no-op.
    ///
    /// Notification is gated: the world skips the all-ranks walk until
    /// some module calls
    /// [`World::engage_topology_watch`](crate::World::engage_topology_watch)
    /// — do that the moment the first tree-shape state worth refreshing
    /// appears, or this hook will never fire.
    fn on_topology_change(&mut self, ctx: &mut ModuleCtx<'_>) {
        let _ = ctx;
    }

    /// Downcast support for co-located module collaboration. A module
    /// that wants same-rank peers to reach its concrete type (e.g. a
    /// relay handing work to a root service on the same broker) returns
    /// `Some(self)`; the default opts out.
    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        None
    }

    /// Fold this module's current derived state into one [`StateValue`]
    /// for the instance [state log](crate::StateLog). Root services that
    /// record [`StateEvent`]s implement this so periodic snapshots can
    /// truncate the log; `None` (the default) opts out of snapshotting.
    ///
    /// Contract: `restore(snapshot())` on a fresh instance must
    /// reproduce this module's state exactly — the replay-equivalence
    /// proptests hold implementations to it.
    fn snapshot(&self) -> Option<StateValue> {
        None
    }

    /// Reset this module's state from a snapshot previously produced by
    /// [`Module::snapshot`]. Called on a factory-fresh instance during
    /// instance resurrection, before the tail events are applied.
    /// Default: no-op.
    fn restore(&mut self, snapshot: &StateValue) {
        let _ = snapshot;
    }

    /// Apply one logged state transition during replay. Must mutate
    /// state only — no messages, no timers, and **no appending** (the
    /// event being applied is already in the log; re-recording it would
    /// double state on the next replay). Default: no-op.
    fn apply_event(&mut self, event: &StateEvent) {
        let _ = event;
    }
}

/// Shared handle to a loaded module.
pub type SharedModule = Rc<RefCell<dyn Module>>;

/// Execution context passed into module callbacks: mutable access to the
/// instance state and the event engine, plus the rank the module runs on.
pub struct ModuleCtx<'a> {
    /// The Flux instance (brokers, jobs, node hardware).
    pub world: &'a mut World,
    /// The event engine (for timers and follow-up work).
    pub eng: &'a mut FluxEngine,
    /// The rank this callback executes on.
    pub rank: Rank,
}

impl ModuleCtx<'_> {
    /// Convenience: the simulation clock.
    pub fn now(&self) -> fluxpm_sim::SimTime {
        self.eng.now()
    }
}
