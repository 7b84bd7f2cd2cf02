//! Property-based tests for the Flux framework substrate.

use fluxpm_flux::{FcfsScheduler, Rank, Tbon};
use fluxpm_hw::NodeId;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Parent/children are mutually consistent for any tree shape.
    #[test]
    fn tbon_parent_child_consistency(size in 1u32..200, fanout in 1u32..8) {
        let t = Tbon::new(size, fanout);
        for r in t.ranks() {
            for c in t.children(r) {
                prop_assert_eq!(t.parent(c), Some(r));
            }
            if let Some(p) = t.parent(r) {
                prop_assert!(t.children(p).contains(&r));
            } else {
                prop_assert_eq!(r, Rank::ROOT);
            }
        }
    }

    /// Every non-root rank reaches the root in `depth` hops; hop counts
    /// are symmetric and zero only on the diagonal.
    #[test]
    fn tbon_hops_properties(size in 2u32..100, fanout in 1u32..6, a in 0u32..100, b in 0u32..100) {
        let t = Tbon::new(size, fanout);
        let a = Rank(a % size);
        let b = Rank(b % size);
        prop_assert_eq!(t.hops(a, b), t.hops(b, a));
        prop_assert_eq!(t.hops(a, a), 0);
        if a != b {
            prop_assert!(t.hops(a, b) >= 1);
        }
        prop_assert_eq!(t.hops(Rank::ROOT, a), t.depth(a));
        // Bounded by twice the tree height.
        let height = t.depth(Rank(size - 1));
        prop_assert!(t.hops(a, b) <= 2 * height);
    }

    /// Random fail/recover/re-balance sequences — interleaved in the
    /// same op stream, the way a storm interleaves them — preserve the
    /// healing invariants: every attached rank routes to the current
    /// root, parent/children stay mutually consistent, there are no
    /// cycles, detached ranks are fully unlinked, every cached route is
    /// coherent with the current membership (no hop through a detached
    /// rank), and the topology epoch only moves forward.
    #[test]
    fn tbon_healing_preserves_reachability(
        size in 2u32..64,
        fanout in 1u32..5,
        ops in prop::collection::vec((0u32..64, 0u32..8), 1..60),
    ) {
        let mut t = Tbon::new(size, fanout);
        let mut last_epoch = t.epoch();
        for (pick, kind) in ops {
            let r = Rank(pick % size);
            if kind < 3 {
                if !t.is_attached(r) {
                    // recover_node's rule: rejoin as a leaf under the
                    // nearest live original ancestor, else the root.
                    let mut probe = r;
                    let mut parent = None;
                    while probe != Rank::ROOT {
                        probe = Rank((probe.0 - 1) / fanout);
                        if t.is_attached(probe) {
                            parent = Some(probe);
                            break;
                        }
                    }
                    t.attach(r, parent.unwrap_or_else(|| t.root()));
                }
            } else if kind < 6 {
                if t.is_attached(r) && t.attached().nth(1).is_some() {
                    if t.root() == r {
                        let succ = t
                            .attached()
                            .find(|&x| x != r)
                            .expect("another rank is attached");
                        t.promote_root(succ);
                    } else {
                        t.detach(r);
                    }
                }
            } else {
                // Post-churn re-balance pass (World::rebalance_tbon's
                // rule: leave a balanced tree untouched). An unbalanced
                // tree must change; the result is always within the
                // fresh k-ary depth for the live count.
                if !t.is_balanced() {
                    prop_assert!(t.rebalance(), "unbalanced tree must change");
                }
                prop_assert!(t.is_balanced(), "re-balance restores k-ary shape");
                let live = t.attached().count() as u32;
                prop_assert!(t.max_depth() <= Tbon::ideal_depth(live, fanout));
            }
            prop_assert!(t.epoch() >= last_epoch, "epoch is monotonic");
            last_epoch = t.epoch();

            let root = t.root();
            prop_assert!(t.is_attached(root), "the root is attached");
            for a in t.attached() {
                // Walks up to the current root without cycling.
                let mut cur = a;
                let mut hops = 0u32;
                while let Some(p) = t.parent(cur) {
                    prop_assert!(t.is_attached(p), "parent of {} attached", a);
                    hops += 1;
                    prop_assert!(hops <= size, "cycle walking up from {}", a);
                    cur = p;
                }
                prop_assert_eq!(cur, root, "{} reaches the current root", a);
                // Route-cache coherence: the cached route (in both
                // directions) only crosses currently attached ranks.
                let up = t.route(a, root);
                prop_assert!(up.is_some());
                for &hop in up.unwrap().iter() {
                    prop_assert!(t.is_attached(hop), "route hop {} attached", hop);
                }
                if let Some(down) = t.route(root, a) {
                    for &hop in down.iter() {
                        prop_assert!(t.is_attached(hop), "route hop {} attached", hop);
                    }
                }
                // Parent/children stay mutually consistent.
                for c in t.children(a) {
                    prop_assert_eq!(t.parent(c), Some(a));
                }
                if let Some(p) = t.parent(a) {
                    prop_assert!(t.children(p).contains(&a));
                }
            }
            for d in t.ranks().filter(|&x| !t.is_attached(x)).collect::<Vec<_>>() {
                prop_assert_eq!(t.parent(d), None, "detached rank is unlinked");
                prop_assert!(t.children(d).is_empty(), "detached rank is childless");
                prop_assert!(t.route(d, root).is_none(), "no route to a dead rank");
            }
        }
    }

    /// The scheduler never double-allocates and conserves the node pool
    /// under arbitrary allocate/release interleavings.
    #[test]
    fn scheduler_conserves_pool(
        total in 1u32..64,
        ops in prop::collection::vec((0u32..65, any::<bool>()), 1..100),
    ) {
        let mut s = FcfsScheduler::new(total);
        let mut live: Vec<Vec<NodeId>> = Vec::new();
        let mut in_use = 0u32;
        for (n, release_first) in ops {
            if release_first && !live.is_empty() {
                let a = live.remove(0);
                in_use -= a.len() as u32;
                s.release(&a);
            }
            let want = n % (total + 1);
            if want == 0 {
                continue;
            }
            match s.allocate(want) {
                Some(a) => {
                    prop_assert_eq!(a.len() as u32, want);
                    // No overlap with any live allocation.
                    for other in &live {
                        for id in &a {
                            prop_assert!(!other.contains(id), "double allocation");
                        }
                    }
                    in_use += want;
                    live.push(a);
                }
                None => {
                    prop_assert!(s.free_count() < want, "refusal only when short");
                }
            }
            prop_assert_eq!(s.free_count(), total - in_use);
        }
    }
}

mod subinstance_props {
    use super::*;
    use fluxpm_flux::{FluxEngine, JobProgram, JobSpec, StepCtx, StepOutcome, SubInstance, World};
    use fluxpm_hw::MachineKind;

    struct Sleep {
        secs: f64,
        done: f64,
    }
    impl JobProgram for Sleep {
        fn app_name(&self) -> &str {
            "sleep"
        }
        fn on_start(&mut self, _ctx: &mut StepCtx<'_>) {}
        fn step(&mut self, ctx: &mut StepCtx<'_>) -> StepOutcome {
            self.done += ctx.dt;
            if self.done >= self.secs {
                StepOutcome::Done {
                    leftover_seconds: self.done - self.secs,
                }
            } else {
                StepOutcome::Running
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// A sub-instance completes any feasible child mix, and its
        /// runtime is at least the critical path (max child duration)
        /// and at most the serial sum.
        #[test]
        fn subinstance_runtime_bounds(
            children in prop::collection::vec((1u32..4, 2.0f64..20.0), 1..6),
        ) {
            let nnodes = 4u32;
            let mut inst = SubInstance::new("ui", nnodes);
            let mut max_child = 0.0f64;
            let mut sum = 0.0f64;
            for (i, &(n, secs)) in children.iter().enumerate() {
                inst = inst.with_child(format!("c{i}"), n, Box::new(Sleep { secs, done: 0.0 }));
                max_child = max_child.max(secs);
                sum += secs;
            }
            let mut w = World::new(MachineKind::Lassen, nnodes, 1);
            w.autostop_after = Some(1);
            let mut eng = FluxEngine::new();
            w.install_executor(&mut eng);
            let id = w.submit(&mut eng, JobSpec::new("ui", nnodes), Box::new(inst));
            eng.run(&mut w);
            let rt = w.jobs.get(id).unwrap().runtime_seconds().unwrap();
            prop_assert!(rt >= max_child - 1e-6, "critical path: {rt} vs {max_child}");
            prop_assert!(rt <= sum + children.len() as f64, "serial bound: {rt} vs {sum}");
        }
    }
}

mod state_replay_props {
    use super::*;
    use fluxpm_flux::{StateEvent, StateLog, StateValue};
    use std::cell::RefCell;
    use std::collections::BTreeMap;

    /// Two toy root services folding the same log — keyed counters with
    /// set/add/del transitions, the same shape as budgets and mirrors.
    const MODULES: [&str; 2] = ["alpha", "beta"];

    type Counters = BTreeMap<u64, i64>;

    fn encode(state: &Counters) -> StateValue {
        StateValue::List(
            state
                .iter()
                .map(|(k, v)| {
                    StateValue::record([("k", StateValue::U64(*k)), ("v", StateValue::I64(*v))])
                })
                .collect(),
        )
    }

    fn decode(v: &StateValue) -> Counters {
        v.as_list()
            .unwrap_or_default()
            .iter()
            .filter_map(|e| {
                let k = e.u64_field("k")?;
                let v = match e.get("v") {
                    Some(StateValue::I64(v)) => *v,
                    _ => return None,
                };
                Some((k, v))
            })
            .collect()
    }

    fn apply_op(state: &mut Counters, kind: &str, k: u64, v: i64) {
        match kind {
            "set" => {
                state.insert(k, v);
            }
            "add" => {
                *state.entry(k).or_insert(0) += v;
            }
            _ => {
                state.remove(&k);
            }
        }
    }

    fn apply_event(state: &mut Counters, ev: &StateEvent) {
        let k = ev.data.u64_field("k").unwrap_or(u64::MAX);
        let v = match ev.data.get("v") {
            Some(StateValue::I64(v)) => *v,
            _ => 0,
        };
        apply_op(state, ev.kind, k, v);
    }

    /// Replay through the log's own recovery entry point.
    fn replay_state(log: &StateLog, module: &str) -> Counters {
        let state = RefCell::new(Counters::new());
        log.replay(
            module,
            |v| *state.borrow_mut() = decode(v),
            |ev| apply_event(&mut state.borrow_mut(), ev),
        );
        state.into_inner()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The recovery contract: for any event sequence and any
        /// snapshot cut point, `replay(snapshot + tail)` equals
        /// `replay(full log)` equals the live fold — byte for byte —
        /// and replay is idempotent.
        #[test]
        fn snapshot_plus_tail_equals_full_log(
            ops in prop::collection::vec(
                (0usize..2, 0usize..3, 0u64..8, -100i64..100),
                0..120,
            ),
            cut_frac in 0.0f64..1.1,
        ) {
            let cut = ((ops.len() + 1) as f64 * cut_frac) as usize;
            let mut log_full = StateLog::new(); // never snapshotted
            let mut log_cut = StateLog::new();  // snapshot at `cut`
            let mut live = [Counters::new(), Counters::new()];

            let install = |log: &mut StateLog, live: &[Counters; 2], t: u64| {
                let modules: BTreeMap<&'static str, StateValue> = MODULES
                    .iter()
                    .zip(live.iter())
                    .map(|(name, s)| (*name, encode(s)))
                    .collect();
                log.install_snapshot(t, modules);
            };

            for (i, &(m, op, k, v)) in ops.iter().enumerate() {
                if i == cut {
                    install(&mut log_cut, &live, i as u64);
                }
                let (kind, data) = match op {
                    0 => ("set", StateValue::record([
                        ("k", StateValue::U64(k)),
                        ("v", StateValue::I64(v)),
                    ])),
                    1 => ("add", StateValue::record([
                        ("k", StateValue::U64(k)),
                        ("v", StateValue::I64(v)),
                    ])),
                    _ => ("del", StateValue::record([("k", StateValue::U64(k))])),
                };
                log_full.append(i as u64, MODULES[m], kind, data.clone());
                log_cut.append(i as u64, MODULES[m], kind, data);
                apply_op(&mut live[m], kind, k, v);
            }
            if cut >= ops.len() {
                // Cut lands after the last event: snapshot folds
                // everything and the tail is empty.
                install(&mut log_cut, &live, ops.len() as u64);
                prop_assert_eq!(log_cut.tail_len(), 0);
            }

            for (name, want) in MODULES.iter().zip(live.iter()) {
                let full = replay_state(&log_full, name);
                let cut_replay = replay_state(&log_cut, name);
                prop_assert_eq!(
                    format!("{full:?}"),
                    format!("{cut_replay:?}"),
                    "snapshot+tail diverged from full log for {}", name
                );
                prop_assert_eq!(&full, want, "replay diverged from live fold");
                // Replay mutates nothing: a second pass is identical.
                prop_assert_eq!(replay_state(&log_cut, name), cut_replay);
            }
            // Truncation really happened: the cut log retains only the
            // post-snapshot suffix.
            prop_assert_eq!(
                log_cut.tail_len(),
                ops.len().saturating_sub(cut.min(ops.len())),
                "tail holds exactly the post-cut events"
            );
            prop_assert_eq!(log_full.total_appended(), ops.len() as u64);
            prop_assert_eq!(log_cut.total_appended(), ops.len() as u64);
        }
    }
}
