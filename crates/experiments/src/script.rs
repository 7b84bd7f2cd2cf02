//! A storm as data: a world, its network weather, and an ordered list
//! of timed actions, with the one runner that schedules them.
//!
//! The plain storm ([`crate::chaos::storm`]) and every replica of the
//! sharded storm ([`crate::full_shard`]) build their world from
//! [`Script::scenario`], install [`FaultProfile::plan`] (the replicas in
//! its hashed, `deterministic` form), and call [`Script::start`].
//!
//! Event order is part of every fingerprint, and the engine breaks ties
//! between same-instant events by schedule order, so the runner keeps
//! the list's order and never sorts it by time. It arms the periodic
//! rebalance, then walks the list: an action at `t = 0` runs when the
//! walk reaches it, and each run of consecutive entries at one later
//! instant is scheduled then as one closure, its actions in list order.

use crate::chaos::topology_invariants;
use crate::scenario::{PowerSetup, Scenario};
use fluxpm_flux::shard::rec::RELAY_DELIVER;
use fluxpm_flux::{
    CongestionBurst, FaultPlan, FluxEngine, JobId, JobProgram, JobSpec, JobState, LinkProfile,
    Rank, World,
};
use fluxpm_hw::{MachineKind, NodeId, Watts};
use fluxpm_manager::{ClusterLevelManager, ManagerConfig};
use fluxpm_monitor::{MonitorConfig, MonitorQuery, QueryHandle, SubscriptionFilter};
use fluxpm_sim::{SimDuration, SimTime, Xoshiro256pp};
use std::cell::{Cell, OnceCell, RefCell};
use std::collections::BTreeMap;
use std::ops::Range;
use std::rc::Rc;

/// A congestion window: the link, when it is active, and its burst
/// shape (`None`: a sustained 0.999 squeeze).
pub(crate) type Window = (Rank, Rank, Range<SimTime>, Option<CongestionBurst>);

/// Per-link loss, jitter and congestion of one storm.
pub(crate) struct FaultProfile {
    /// Loss, jitter and burst channel of every link but 0–1.
    pub link: LinkProfile,
    /// Those of the root's first link, 0–1.
    pub root_link: LinkProfile,
    /// Congestion windows, in the order the plan layers them.
    pub congestion: Vec<Window>,
}

impl FaultProfile {
    /// The fault plan, drawing from the world's RNG stream.
    pub fn plan(&self) -> FaultPlan {
        let mut plan = FaultPlan::uniform(0.0, SimDuration::ZERO);
        plan.default_link = self.link;
        let mut plan = plan.with_link(Rank(0), Rank(1), self.root_link);
        for (a, b, window, burst) in &self.congestion {
            plan = match burst {
                Some(burst) => plan.with_bursty_congestion(*a, *b, window.clone(), *burst),
                None => plan.with_congestion(*a, *b, window.clone(), 0.999),
            };
        }
        plan
    }
}

/// The three congestion regimes both storms can layer over the death
/// storm, placed by its first and last random tick: a sustained squeeze
/// on root link 0–2 before the storm (re-parent bait), a flapping window
/// on the lossy root link 0–1 riding the ticks, and a mid-tree squeeze on
/// 1–3 inside the storm proper.
pub(crate) fn storm_congestion(first_tick_s: u64, last_tick_s: u64) -> Vec<Window> {
    let s = SimTime::from_secs;
    let flapping = CongestionBurst {
        p_calm_to_congested: 0.2,
        p_congested_to_calm: 0.25,
        calm_severity: 0.0,
        congested_severity: 0.999,
    };
    let t0 = first_tick_s;
    vec![
        (Rank(0), Rank(2), s(5)..s(13), None),
        (Rank(0), Rank(1), s(t0)..s(last_tick_s + 10), Some(flapping)),
        (Rank(1), Rank(3), s(t0 + 10)..s(t0 + 20), None),
    ]
}

/// A random fail/recover tick: it recovers each down rank with
/// probability 0.45 (so a just-recovered rank can die again in the same
/// tick), then kills `1 + below(kill_width)` of the live ranks at or
/// above `first` (1 spares the root), never leaving fewer than
/// `min_live` of those up. Its RNG is seeded with `world seed ^ salt`.
pub(crate) struct Tick {
    pub salt: u64,
    pub first: u32,
    pub min_live: usize,
    pub kill_width: u64,
}

/// `count` ticks 5 s apart from `start_s`, the `k`-th salted with
/// `salt ^ (k << 32)`, with the live floor and kill width scaled from
/// `nodes` (6 and 2 at 16 nodes).
pub(crate) fn ticks(
    nodes: u32,
    start_s: u64,
    count: u64,
    salt: u64,
    first: u32,
) -> impl Iterator<Item = (SimTime, Action)> {
    (0..count).map(move |k| {
        let tick = Tick {
            salt: salt ^ (k << 32),
            first,
            min_live: (nodes as usize) * 3 / 8,
            kill_width: 1 + u64::from(nodes / 16),
        };
        (SimTime::from_secs(start_s + 5 * k), Action::Tick(tick))
    })
}

/// One step of a storm.
pub(crate) enum Action {
    /// Submit a job: a Laghos `App` or a `PhaseApp`. Jobs are numbered
    /// in the order they are submitted.
    Submit(JobSpec, Box<dyn JobProgram>),
    /// Fail these ranks at once.
    Fail(Vec<u32>),
    /// Recover these ranks in order; each must have been down.
    Recover(Vec<u32>),
    /// Fail whichever rank is the root.
    KillRoot,
    Tick(Tick),
    /// Recover every down rank at or above this one.
    RecoverFrom(u32),
    /// Replace the fault plan with a lossless one.
    ClearFaults,
    /// Send a job-stats tree reduction for the job of this number.
    Reduce(usize),
    /// Subscribe to every delta at this rank's relay, unless an earlier
    /// attempt there has landed. The handshake rides fire-and-forget
    /// tree events, so a script retries by listing the action again.
    Subscribe(u32),
    /// Poll this rank's subscription, if one landed, and 900 ms later
    /// record each delta the poll returned, stamped with its instant.
    Poll(u32),
    /// Arm the per-second topology sweep ([`topology_invariants`]).
    Sweep,
    /// Budgets re-converged: the newest job holds a budget, every budget
    /// belongs to a running or completed job, and they sum to no more
    /// than the global bound.
    CheckBudgets,
}

/// A whole storm: a Lassen world of `nodes` brokers under a proportional
/// bound of 1,500 W a node, its monitor, its faults and its actions.
pub(crate) struct Script {
    pub nodes: u32,
    /// World seed; every random tick is seeded from it too.
    pub seed: u64,
    pub monitor: MonitorConfig,
    pub faults: FaultProfile,
    /// Timed actions, in schedule order.
    pub actions: Vec<(SimTime, Action)>,
}

impl Script {
    /// The world the script runs on. The manager's `load` registers the
    /// module factory that brings recovered brokers back with a live
    /// node-level manager.
    pub fn scenario(&self) -> Scenario {
        Scenario::new(MachineKind::Lassen, self.nodes)
            .with_seed(self.seed)
            .with_power(PowerSetup::Managed {
                static_node_cap: None,
                config: ManagerConfig::proportional(Watts(self.bound_w())),
            })
            .with_monitor(self.monitor.clone())
    }

    fn bound_w(&self) -> f64 {
        f64::from(self.nodes) * 1500.0
    }

    /// Start the script on a world built from [`Script::scenario`] with
    /// its fault plan installed, as the module docs describe. The world
    /// halts once every job the script submits is terminal.
    pub fn start(
        self,
        w: &mut World,
        eng: &mut FluxEngine,
        cluster: Option<Rc<RefCell<ClusterLevelManager>>>,
    ) -> Rc<Run> {
        let jobs = self.actions.iter();
        let jobs = jobs.filter(|(_, a)| matches!(a, Action::Submit(..)));
        w.autostop_after = Some(jobs.count() as u64);
        w.schedule_rebalance(eng, SimDuration::from_secs(7));
        let run = Rc::new(Run {
            seed: self.seed,
            bound_w: self.bound_w(),
            cluster,
            jobs: RefCell::default(),
            reductions: RefCell::default(),
            subscriptions: RefCell::default(),
            sweeps: OnceCell::new(),
        });
        let mut actions = self.actions.into_iter().peekable();
        while let Some((at, first)) = actions.next() {
            let mut group = vec![first];
            while let Some((_, next)) = actions.next_if(|(t, _)| *t == at) {
                group.push(next);
            }
            let run = Rc::clone(&run);
            let act = move |w: &mut World, eng: &mut FluxEngine| {
                group.into_iter().for_each(|a| run.act(a, w, eng));
            };
            if at == SimTime::ZERO {
                act(w, eng);
            } else {
                eng.schedule(at, act);
            }
        }
        run
    }
}

/// What a running script has produced, shared by its closures.
pub(crate) struct Run {
    seed: u64,
    bound_w: f64,
    cluster: Option<Rc<RefCell<ClusterLevelManager>>>,
    /// Submitted jobs, by number.
    pub jobs: RefCell<Vec<JobId>>,
    /// Reductions, in the order they were sent.
    pub reductions: RefCell<Vec<QueryHandle>>,
    /// Subscribe attempts, per rank.
    subscriptions: RefCell<BTreeMap<u32, Vec<QueryHandle>>>,
    /// The sweep counter, once [`Action::Sweep`] has armed it.
    pub sweeps: OnceCell<Rc<Cell<u64>>>,
}

impl Run {
    fn act(&self, action: Action, w: &mut World, eng: &mut FluxEngine) {
        match action {
            Action::Submit(spec, program) => {
                let id = w.submit(eng, spec, program);
                self.jobs.borrow_mut().push(id);
            }
            Action::Fail(ranks) => {
                let victims: Vec<NodeId> = ranks.into_iter().map(NodeId).collect();
                w.fail_nodes(eng, &victims);
            }
            Action::Recover(ranks) => {
                for i in ranks {
                    assert!(w.recover_node(eng, NodeId(i)));
                }
            }
            Action::KillRoot => {
                let root = w.root();
                w.fail_nodes(eng, &[NodeId(root.0)]);
            }
            Action::Tick(tick) => self.tick(&tick, w, eng),
            Action::RecoverFrom(first) => {
                for i in first..w.size() {
                    if !w.broker_up(Rank(i)) {
                        assert!(w.recover_node(eng, NodeId(i)), "guarded: broker was down");
                    }
                }
            }
            Action::ClearFaults => w.install_fault_plan(FaultPlan::uniform(0.0, SimDuration::ZERO)),
            Action::Reduce(job) => {
                let job = self.jobs.borrow()[job];
                let q = MonitorQuery::job_stats_tree(job).send(w, eng);
                self.reductions.borrow_mut().push(q);
            }
            Action::Subscribe(rank) => {
                let mut subs = self.subscriptions.borrow_mut();
                let attempts = subs.entry(rank).or_default();
                if !attempts
                    .iter()
                    .any(|q| matches!(q.subscription(), Some(Ok(_))))
                {
                    let filter = SubscriptionFilter::all();
                    attempts.push(MonitorQuery::subscribe(filter).at(Rank(rank)).send(w, eng));
                }
            }
            Action::Poll(rank) => {
                let subs = self.subscriptions.borrow();
                let mut attempts = subs.get(&rank).into_iter().flatten();
                let id = attempts.find_map(|q| q.subscription()?.ok());
                // A poll whose serving broker is down, or whose relay was
                // rebuilt and forgot the id, errors and records nothing.
                let Some(id) = id else { return };
                let at = eng.now();
                let q = MonitorQuery::poll(id, 4096).at(Rank(rank)).send(w, eng);
                let record = move |w: &mut World, _: &mut FluxEngine| {
                    if let Some(Ok(batch)) = q.deltas() {
                        for d in &batch.deltas {
                            w.record(at, rank, RELAY_DELIVER, d.seq, u64::from(d.node));
                        }
                    }
                };
                eng.schedule(at + SimDuration::from_millis(900), record);
            }
            Action::Sweep => {
                let _ = self.sweeps.set(topology_invariants(eng));
            }
            Action::CheckBudgets => self.check_budgets(w),
        }
    }

    fn tick(&self, tick: &Tick, w: &mut World, eng: &mut FluxEngine) {
        let mut rng = Xoshiro256pp::seed_from_u64(self.seed ^ tick.salt);
        for i in 0..w.size() {
            if !w.broker_up(Rank(i)) && rng.chance(0.45) {
                assert!(w.recover_node(eng, NodeId(i)), "guarded: broker was down");
            }
        }
        let mut up: Vec<u32> = (tick.first..w.size())
            .filter(|&i| w.broker_up(Rank(i)))
            .collect();
        let spare = up.len().saturating_sub(tick.min_live);
        let kill = spare.min(1 + rng.below(tick.kill_width) as usize);
        let mut victims = Vec::new();
        for _ in 0..kill {
            let idx = rng.below(up.len() as u64) as usize;
            victims.push(NodeId(up.remove(idx)));
        }
        if !victims.is_empty() {
            w.fail_nodes(eng, &victims);
        }
    }

    fn check_budgets(&self, w: &World) {
        // invariant: a script that checks budgets runs in a plain world,
        // whose managed power setup loads the cluster manager.
        let cluster = self.cluster.as_ref().expect("a managed plain world");
        let limits = cluster.borrow().job_limits();
        let probe = self.jobs.borrow().last().copied();
        assert!(
            limits.iter().any(|&(id, _)| Some(id) == probe),
            "probe job must be budgeted after the storm: {limits:?}"
        );
        let mut sum = 0.0;
        for &(id, watts) in &limits {
            assert!(watts.get() > 0.0, "zero budget for {id:?}");
            let state = w.jobs.get(id).map(|j| j.state);
            assert!(
                matches!(state, Some(JobState::Running | JobState::Completed)),
                "budget held by a {state:?} job {id:?}"
            );
            sum += watts.get();
        }
        assert!(sum <= self.bound_w + 1e-6, "over the global bound: {sum}");
    }
}
