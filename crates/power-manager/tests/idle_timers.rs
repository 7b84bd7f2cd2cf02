//! A periodic event must name its reader (DESIGN.md §17.2): only FPP's
//! controllers consume the node manager's sample and epoch ticks, so a
//! proportional or unconstrained manager keeps the engine empty — at
//! load, through a factory reload, and over an idle run — and the FPP
//! sampling tick never touches the heap.

use fluxpm_flux::{FluxEngine, Message, Module, ModuleCtx, Protocol, Rank, SharedModule, World};
use fluxpm_hw::{MachineKind, NodeId, Watts};
use fluxpm_manager::{
    proto::TOPIC_SET_NODE_LIMIT, FppConfig, ManagerRequest, NodeLevelManager, NodeLimitMsg,
    PolicyKind,
};
use fluxpm_sim::{Engine, SimTime};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

const RANKS: u32 = 64;

/// A world whose only modules are node-level managers, reloaded by
/// factory on recovery as `fluxpm_manager::load` arranges it.
fn world_with_node_managers(policy: Option<PolicyKind>) -> (World, FluxEngine) {
    let mut w = World::new(MachineKind::Lassen, RANKS, 7);
    let mut eng: FluxEngine = Engine::new();
    if let Some(policy) = policy {
        let make = move |_rank: Rank| -> SharedModule {
            NodeLevelManager::shared(policy, FppConfig::default())
        };
        for rank in w.tbon.ranks().collect::<Vec<_>>() {
            w.load_module(&mut eng, rank, make(rank));
        }
        w.register_module_factory(make);
    }
    (w, eng)
}

/// Timers a world of `RANKS` managers may keep armed.
fn expected_timers(policy: PolicyKind) -> usize {
    match policy {
        PolicyKind::Fpp => 2 * RANKS as usize,
        PolicyKind::Proportional | PolicyKind::Unconstrained => 0,
    }
}

#[test]
fn only_fpp_arms_timers_at_load_and_at_reload() {
    for policy in [
        PolicyKind::Proportional,
        PolicyKind::Unconstrained,
        PolicyKind::Fpp,
    ] {
        let (mut w, mut eng) = world_with_node_managers(Some(policy));
        assert_eq!(eng.pending(), expected_timers(policy), "{policy:?} at load");

        // A leaf, an interior rank and the root die together and reboot;
        // the run that follows lets the dead incarnations' timers fire
        // once and retire, and carries every reloaded one past an epoch.
        let victims = [NodeId(0), NodeId(5), NodeId(RANKS - 1)];
        eng.run_until(&mut w, SimTime::from_secs(10));
        w.fail_nodes(&mut eng, &victims);
        eng.run_until(&mut w, SimTime::from_secs(20));
        for v in victims {
            assert!(w.recover_node(&mut eng, v), "{policy:?}: {v:?} was down");
        }
        eng.run_until(&mut w, SimTime::from_secs(300));
        assert_eq!(
            eng.pending(),
            expected_timers(policy),
            "{policy:?} after fail + recover"
        );
    }
}

#[test]
fn an_idle_proportional_manager_costs_no_events() {
    let executed = |policy| {
        let (mut w, mut eng) = world_with_node_managers(policy);
        w.install_executor(&mut eng);
        eng.run_until(&mut w, SimTime::from_secs(30));
        eng.executed()
    };
    let bare = executed(None);
    assert_eq!(executed(Some(PolicyKind::Proportional)), bare);
    assert_eq!(executed(Some(PolicyKind::Unconstrained)), bare);
    // One sample per rank per second; the first epoch is 90 s away.
    assert_eq!(executed(Some(PolicyKind::Fpp)), bare + 30 * RANKS as u64);
}

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The sampling tick's tag (`TIMER_SAMPLE` in `node_mgr.rs`).
const SAMPLE: u64 = 0;

#[test]
fn a_steady_state_fpp_sample_allocates_nothing() {
    let mut w = World::new(MachineKind::Lassen, 2, 7);
    let mut eng: FluxEngine = Engine::new();
    let rank = Rank(1);
    let mut mgr = NodeLevelManager::new(PolicyKind::Fpp, FppConfig::default());
    let mut ctx = ModuleCtx {
        world: &mut w,
        eng: &mut eng,
        rank,
    };
    let limit = ManagerRequest::SetNodeLimit(NodeLimitMsg {
        limit: Watts(1200.0),
    });
    let msg = Message::request(Rank(0), rank, TOPIC_SET_NODE_LIMIT, limit.encode());
    mgr.handle(&mut ctx, &msg);
    assert_eq!(mgr.controllers().len(), 4, "one controller per Lassen GPU");

    // Each controller's ring doubles up to four epochs of samples (360);
    // past that a tick overwrites in place.
    for _ in 0..400 {
        mgr.timer(&mut ctx, SAMPLE);
    }
    let before = ALLOCS.with(|c| c.get());
    for _ in 0..1000 {
        mgr.timer(&mut ctx, SAMPLE);
    }
    let allocs = ALLOCS.with(|c| c.get()) - before;
    assert_eq!(allocs, 0, "1,000 sampling ticks on a warm manager");
    assert!(mgr.controllers().iter().all(|c| c.buffered() == 360));
}
