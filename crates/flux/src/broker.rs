//! Per-node broker: the module registry, message dispatch table, and the
//! uplink-degradation detector.

use crate::module::SharedModule;
use crate::tbon::Rank;
use crate::topic::Topic;
use fluxpm_sim::SimDuration;
use std::rc::Rc;
use std::sync::Arc;

/// Tuning for the sustained-congestion detector each broker runs on its
/// *uplink* — the TBON edge to its current parent.
///
/// Once per `window` the world feeds each broker's detector the window's
/// crossing counters for its uplink. The link is **hot** in a window when
/// it carried at least `min_crossings` messages (enough to judge) and
/// either the fraction of crossings whose queueing + serialization delay
/// exceeded `hot_delay_us` was above `hot_fraction` (an order-statistic
/// proxy: fraction > 0.05 ⇔ p95 > threshold) or the queue reached
/// `hot_depth` entries. `trigger_windows` *consecutive* hot windows make
/// the link **degraded** — the caller should route the subtree around it.
/// After a congestion re-parent the detector sits out `cooldown_windows`
/// windows, so one sustained event causes at most one re-parent per link
/// and a flapping link cannot thrash the topology epoch.
#[derive(Debug, Clone, Copy)]
pub struct LinkHealthConfig {
    /// Observation window length.
    pub window: SimDuration,
    /// Per-crossing queueing + serialization delay that counts as slow.
    pub hot_delay_us: u64,
    /// Fraction of slow crossings above which the window is hot.
    pub hot_fraction: f64,
    /// Queue occupancy that makes the window hot regardless of delay.
    pub hot_depth: u32,
    /// Minimum crossings per window before the link is judged at all.
    pub min_crossings: u32,
    /// Consecutive hot windows before the link is declared degraded.
    pub trigger_windows: u32,
    /// Windows to sit out after a congestion re-parent (hysteresis).
    pub cooldown_windows: u32,
}

impl Default for LinkHealthConfig {
    fn default() -> LinkHealthConfig {
        LinkHealthConfig {
            window: SimDuration::from_millis(500),
            hot_delay_us: 200,
            hot_fraction: 0.05,
            hot_depth: 8,
            min_crossings: 4,
            trigger_windows: 3,
            cooldown_windows: 6,
        }
    }
}

/// One window's verdict from [`LinkDetector::observe`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkVerdict {
    /// Too little traffic this window to judge the link.
    Idle,
    /// Carried traffic within thresholds.
    Healthy,
    /// Over threshold, but not yet for `trigger_windows` windows.
    Hot,
    /// Sustained congestion: the caller should route around this uplink.
    Degraded,
    /// Sitting out the post-re-parent hysteresis period.
    Cooldown,
}

/// Per-broker uplink health state machine (see [`LinkHealthConfig`] for
/// the windowing semantics). Pure state — the world owns the counters
/// and the routing response.
#[derive(Debug, Clone, Copy, Default)]
pub struct LinkDetector {
    consec_hot: u32,
    cooldown: u32,
    reparents: u64,
}

impl LinkDetector {
    /// Fold one window's uplink counters into the state machine:
    /// `crossings` messages crossed the link, `over` of them saw
    /// queueing + serialization delay above `cfg.hot_delay_us`, and the
    /// queue peaked at `max_depth`.
    pub fn observe(
        &mut self,
        cfg: &LinkHealthConfig,
        crossings: u32,
        over: u32,
        max_depth: u32,
    ) -> LinkVerdict {
        if self.cooldown > 0 {
            self.cooldown -= 1;
            self.consec_hot = 0;
            return LinkVerdict::Cooldown;
        }
        if crossings < cfg.min_crossings {
            self.consec_hot = 0;
            return LinkVerdict::Idle;
        }
        let hot =
            f64::from(over) > cfg.hot_fraction * f64::from(crossings) || max_depth >= cfg.hot_depth;
        if !hot {
            self.consec_hot = 0;
            return LinkVerdict::Healthy;
        }
        self.consec_hot += 1;
        if self.consec_hot >= cfg.trigger_windows {
            LinkVerdict::Degraded
        } else {
            LinkVerdict::Hot
        }
    }

    /// Record that the world re-parented this broker's subtree away from
    /// the congested uplink: arms the cooldown and clears the hot streak.
    pub fn note_reparent(&mut self, cfg: &LinkHealthConfig) {
        self.reparents += 1;
        self.cooldown = cfg.cooldown_windows;
        self.consec_hot = 0;
    }

    /// Forget the hot streak without arming cooldown — the uplink changed
    /// identity for an unrelated reason (death re-parent, rebalance), so
    /// the streak's history no longer describes the new wire.
    pub fn reset(&mut self) {
        self.consec_hot = 0;
    }

    /// How many congestion re-parents this broker's subtree has taken.
    pub fn reparents(&self) -> u64 {
        self.reparents
    }
}

/// One `flux-broker` process (one per node).
pub struct Broker {
    /// This broker's rank.
    pub rank: Rank,
    /// Node hostname (e.g. `"lassen12"`): the node's one copy of the
    /// string, which samplers and replies hold references to.
    pub hostname: Arc<str>,
    /// Loaded modules, in load order, each with the topics it serves: the
    /// broker's whole dispatch table. A vector scanned by `route` and
    /// `module`: a broker holds a handful of modules, and a message's
    /// interned topic resolves on the address pass without touching the
    /// text. Sized exactly, as it only changes when a module loads or
    /// unloads.
    modules: Vec<Loaded>,
    /// Liveness: a downed broker neither originates, receives, nor
    /// relays overlay traffic. [`crate::World::fail_node`] takes it
    /// down; [`crate::World::recover_node`] brings it back.
    up: bool,
    /// Bumped on every down→up transition. Periodic module timers
    /// capture it at schedule time and stop when it moves, so a timer
    /// scheduled before an outage can never adopt the same-named module
    /// reloaded after recovery (which schedules its own timer) — fast
    /// fail/recover churn would otherwise stack timers.
    incarnation: u64,
    /// Sustained-congestion detector for this broker's uplink.
    pub uplink: LinkDetector,
}

/// One loaded module and the topics it serves.
struct Loaded {
    name: &'static str,
    module: SharedModule,
    /// The module type's topic list ([`Module::topics`](crate::Module::topics)),
    /// shared with every other broker on this thread. Exact-match, and the
    /// latest registration of a topic wins: a module that loses a topic
    /// to a later one gets a list of its own without it, so unloading the
    /// winner leaves the topic unserved.
    topics: Rc<[Topic]>,
}

impl Broker {
    /// Create an empty broker.
    pub fn new(rank: Rank, hostname: String) -> Broker {
        Broker {
            rank,
            hostname: hostname.into(),
            modules: Vec::new(),
            up: true,
            incarnation: 0,
            uplink: LinkDetector::default(),
        }
    }

    /// Whether this broker is alive on the overlay.
    pub fn is_up(&self) -> bool {
        self.up
    }

    /// This broker's life number: 0 at boot, +1 per recovery. Module
    /// timers use it to detect that the module they were driving died
    /// (even if a same-named replacement has been reloaded since).
    pub fn incarnation(&self) -> u64 {
        self.incarnation
    }

    /// Take the broker down (node failure). Idempotent; undone by
    /// [`Broker::set_up`] when the node rejoins.
    pub fn set_down(&mut self) {
        self.up = false;
    }

    /// Bring the broker back up (node recovery), starting a new
    /// [incarnation](Broker::incarnation). Idempotent (a no-op while
    /// already up). Modules are *not* restored — the recovered broker
    /// starts empty and the world reloads them from its module
    /// factories.
    pub fn set_up(&mut self) {
        if !self.up {
            self.up = true;
            self.incarnation += 1;
            // A recovered node rejoins as a leaf under a (possibly) new
            // parent — its old uplink streak describes a dead wire.
            self.uplink.reset();
        }
    }

    /// Register a module and its topic routes. Returns `false` (and
    /// changes nothing) if a module with the same name is already loaded
    /// or the broker is down. A topic some loaded module already serves
    /// moves to this one.
    pub fn register(&mut self, module: SharedModule) -> bool {
        let (name, topics) = {
            let m = module.borrow();
            (m.name(), m.topics())
        };
        if !self.up || self.position(name).is_some() {
            return false;
        }
        for loaded in &mut self.modules {
            if loaded.topics.iter().any(|t| topics.contains(t)) {
                loaded.topics = loaded
                    .topics
                    .iter()
                    .filter(|t| !topics.contains(t))
                    .cloned()
                    .collect();
            }
        }
        self.modules.reserve_exact(1);
        self.modules.push(Loaded {
            name,
            module,
            topics,
        });
        true
    }

    /// Unload a module by name, removing the routes it serves. Returns
    /// true if it was loaded.
    pub fn unregister(&mut self, name: &str) -> bool {
        let Some(at) = self.position(name) else {
            return false;
        };
        self.modules.remove(at);
        self.modules.shrink_to_fit();
        true
    }

    /// The module serving `topic`, if any. Pass a message's
    /// [`Topic`] (it dereferences to `str`) and the lookup is a scan of
    /// addresses; any other string is compared by text and never
    /// interned.
    pub fn route(&self, topic: &str) -> Option<SharedModule> {
        by_address_then_text(|same| {
            self.modules
                .iter()
                .find(|m| m.topics.iter().any(|t| same(t, topic)))
        })
        .map(|m| Rc::clone(&m.module))
    }

    /// A loaded module by name.
    pub fn module(&self, name: &str) -> Option<SharedModule> {
        self.position(name)
            .map(|at| Rc::clone(&self.modules[at].module))
    }

    /// Names of loaded modules (sorted, for deterministic iteration).
    pub fn module_names(&self) -> Vec<&'static str> {
        let mut names: Vec<_> = self.modules.iter().map(|m| m.name).collect();
        names.sort_unstable();
        names
    }

    /// The topic list the broker routes to a loaded module: the module
    /// type's own list unless a later module took some of its topics.
    #[cfg(test)]
    fn served(&self, name: &str) -> Option<&Rc<[Topic]>> {
        self.position(name).map(|at| &self.modules[at].topics)
    }

    /// Where the module `name` is loaded.
    fn position(&self, name: &str) -> Option<usize> {
        by_address_then_text(|same| self.modules.iter().position(|m| same(m.name, name)))
    }
}

/// Run a search of a broker's table with strings compared by address
/// first — an interned topic or a `'static` module name is the very
/// string the table holds — and by text only when no address matches (a
/// handle interned on another shard thread, a string built at run time).
fn by_address_then_text<T>(
    mut search: impl FnMut(fn(&str, &str) -> bool) -> Option<T>,
) -> Option<T> {
    search(|a, b| std::ptr::eq(a, b)).or_else(|| search(|a, b| a == b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Message;
    use crate::module::{Module, ModuleCtx};
    use std::cell::RefCell;

    struct Dummy {
        name: &'static str,
        topics: Rc<[Topic]>,
    }

    impl Module for Dummy {
        fn name(&self) -> &'static str {
            self.name
        }
        fn topics(&self) -> Rc<[Topic]> {
            Rc::clone(&self.topics)
        }
        fn load(&mut self, _ctx: &mut ModuleCtx<'_>) {}
        fn handle(&mut self, _ctx: &mut ModuleCtx<'_>, _msg: &Message) {}
    }

    fn dummy(name: &'static str, topics: &[&str]) -> SharedModule {
        Rc::new(RefCell::new(Dummy {
            name,
            topics: topics.iter().map(|s| Topic::intern(s)).collect(),
        }))
    }

    #[test]
    fn register_and_route() {
        let mut b = Broker::new(Rank(0), "lassen0".into());
        assert!(b.register(dummy("mon", &["mon.get", "mon.put"])));
        assert!(b.route("mon.get").is_some());
        assert!(b.route("mon.other").is_none());
        assert!(b.module("mon").is_some());
    }

    #[test]
    fn duplicate_registration_rejected() {
        let mut b = Broker::new(Rank(0), "h".into());
        assert!(b.register(dummy("mon", &["a"])));
        assert!(!b.register(dummy("mon", &["b"])));
        assert!(
            b.route("b").is_none(),
            "second registration must not take effect"
        );
    }

    #[test]
    fn unregister_removes_routes() {
        let mut b = Broker::new(Rank(0), "h".into());
        b.register(dummy("mon", &["a", "b"]));
        b.register(dummy("mgr", &["c"]));
        assert!(b.unregister("mon"));
        assert!(b.route("a").is_none());
        assert!(b.route("c").is_some());
        assert!(!b.unregister("mon"), "double unload is a no-op");
    }

    #[test]
    fn downed_broker_rejects_registration() {
        let mut b = Broker::new(Rank(0), "h".into());
        assert!(b.is_up());
        b.register(dummy("mon", &["a"]));
        b.set_down();
        assert!(!b.is_up());
        assert!(!b.register(dummy("mgr", &["c"])), "no loads while down");
        // Existing state is still inspectable (for post-mortem checks).
        assert!(b.module("mon").is_some());
        b.set_down(); // idempotent
        assert!(!b.is_up());
    }

    #[test]
    fn incarnation_counts_recoveries_only() {
        let mut b = Broker::new(Rank(0), "h".into());
        assert_eq!(b.incarnation(), 0);
        b.set_up(); // already up: no new life
        assert_eq!(b.incarnation(), 0);
        b.set_down();
        b.set_down(); // idempotent
        assert_eq!(b.incarnation(), 0, "going down is not a new life");
        b.set_up();
        assert_eq!(b.incarnation(), 1);
        b.set_up(); // idempotent
        assert_eq!(b.incarnation(), 1);
        b.set_down();
        b.set_up();
        assert_eq!(b.incarnation(), 2);
    }

    #[test]
    fn detector_requires_sustained_heat() {
        let cfg = LinkHealthConfig {
            trigger_windows: 3,
            ..LinkHealthConfig::default()
        };
        let mut d = LinkDetector::default();
        // Fraction over threshold: 2/10 > 5% ⇒ hot.
        assert_eq!(d.observe(&cfg, 10, 2, 0), LinkVerdict::Hot);
        assert_eq!(d.observe(&cfg, 10, 2, 0), LinkVerdict::Hot);
        assert_eq!(d.observe(&cfg, 10, 2, 0), LinkVerdict::Degraded);
        // One healthy window resets the streak.
        assert_eq!(d.observe(&cfg, 10, 0, 0), LinkVerdict::Healthy);
        assert_eq!(d.observe(&cfg, 10, 2, 0), LinkVerdict::Hot);
    }

    #[test]
    fn detector_judges_occupancy_and_ignores_idle_links() {
        let cfg = LinkHealthConfig::default();
        let mut d = LinkDetector::default();
        // Depth alone is enough to be hot.
        assert_eq!(d.observe(&cfg, 10, 0, cfg.hot_depth), LinkVerdict::Hot);
        // Under min_crossings: no judgement, streak cleared.
        assert_eq!(
            d.observe(&cfg, cfg.min_crossings - 1, 1, cfg.hot_depth),
            LinkVerdict::Idle
        );
        assert_eq!(d.observe(&cfg, 10, 0, cfg.hot_depth), LinkVerdict::Hot);
    }

    #[test]
    fn detector_cooldown_blocks_immediate_retrigger() {
        let cfg = LinkHealthConfig {
            trigger_windows: 2,
            cooldown_windows: 3,
            ..LinkHealthConfig::default()
        };
        let mut d = LinkDetector::default();
        assert_eq!(d.observe(&cfg, 10, 10, 0), LinkVerdict::Hot);
        assert_eq!(d.observe(&cfg, 10, 10, 0), LinkVerdict::Degraded);
        d.note_reparent(&cfg);
        assert_eq!(d.reparents(), 1);
        // Even fully saturated windows don't re-trigger during cooldown.
        for _ in 0..3 {
            assert_eq!(d.observe(&cfg, 10, 10, 0), LinkVerdict::Cooldown);
        }
        // After cooldown, the streak must be rebuilt from scratch.
        assert_eq!(d.observe(&cfg, 10, 10, 0), LinkVerdict::Hot);
        assert_eq!(d.observe(&cfg, 10, 10, 0), LinkVerdict::Degraded);
    }

    #[test]
    fn latest_registration_of_a_topic_wins() {
        let mut b = Broker::new(Rank(0), "h".into());
        assert!(b.register(dummy("early", &["t.shared", "t.early"])));
        assert!(b.register(dummy("late", &["t.shared"])));
        let served_by = |b: &Broker, t: &str| b.route(t).map(|m| m.borrow().name());
        assert_eq!(served_by(&b, "t.shared"), Some("late"));
        assert_eq!(served_by(&b, "t.early"), Some("early"));
        // A third registration takes it again.
        assert!(b.register(dummy("later", &["t.shared"])));
        assert_eq!(served_by(&b, "t.shared"), Some("later"));
    }

    #[test]
    fn unloading_the_winner_leaves_its_topic_unserved() {
        let mut b = Broker::new(Rank(0), "h".into());
        assert!(b.register(dummy("early", &["t.shared", "t.early"])));
        assert!(b.register(dummy("late", &["t.shared"])));
        assert!(b.unregister("late"));
        assert!(
            b.route("t.shared").is_none(),
            "the loser does not get it back"
        );
        assert!(b.route("t.early").is_some());
        // Reloading the loser gives it back.
        assert!(b.unregister("early"));
        assert!(b.register(dummy("early", &["t.shared", "t.early"])));
        assert!(b.route("t.shared").is_some());
    }

    /// A module type whose topic list is made once per thread.
    struct Fixed;

    impl Module for Fixed {
        fn name(&self) -> &'static str {
            "fixed"
        }
        fn topics(&self) -> Rc<[Topic]> {
            crate::topic_list!["fixed.get", "fixed.put"]
        }
        fn load(&mut self, _ctx: &mut ModuleCtx<'_>) {}
        fn handle(&mut self, _ctx: &mut ModuleCtx<'_>, _msg: &Message) {}
    }

    #[test]
    fn brokers_share_one_topic_list_per_module_type() {
        let mut brokers: Vec<Broker> = (0..2).map(|r| Broker::new(Rank(r), "h".into())).collect();
        for b in &mut brokers {
            assert!(b.register(Rc::new(RefCell::new(Fixed))));
        }
        let (first, second) = (
            brokers[0].served("fixed").unwrap(),
            brokers[1].served("fixed").unwrap(),
        );
        assert!(Rc::ptr_eq(first, second), "one list, not a copy per rank");
        assert!(brokers[1].route("fixed.put").is_some());
        // A broker whose module lost a topic holds a list of its own.
        assert!(brokers[1].register(dummy("taker", &["fixed.put"])));
        let narrowed = brokers[1].served("fixed").unwrap();
        assert!(!Rc::ptr_eq(brokers[0].served("fixed").unwrap(), narrowed));
        assert_eq!(narrowed.len(), 1);
        assert_eq!(brokers[0].served("fixed").unwrap().len(), 2);
    }

    #[test]
    fn module_names_sorted() {
        let mut b = Broker::new(Rank(0), "h".into());
        b.register(dummy("zeta", &[]));
        b.register(dummy("alpha", &[]));
        assert_eq!(b.module_names(), vec!["alpha", "zeta"]);
    }
}
