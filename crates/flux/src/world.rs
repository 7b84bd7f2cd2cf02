//! The Flux instance: brokers + node hardware + job state + messaging.
//!
//! `World` is the single mutable state threaded through every simulation
//! event. It owns the TBON, one [`Broker`] and one
//! [`fluxpm_hw::NodeHardware`] per rank, the job registry and scheduler,
//! and the plumbing for requests/responses/events between modules.
//!
//! The **job executor** is a periodic engine task that integrates node
//! energy and advances every running [`crate::JobProgram`] by
//! one time slice. It also drains the per-node *overhead accumulator* —
//! host CPU time stolen from applications by in-band sensor reads — which
//! is how `flux-power-monitor`'s overhead becomes measurable application
//! slowdown (paper Fig. 3).

use crate::broker::{Broker, LinkHealthConfig, LinkVerdict};
use crate::job::{JobId, JobProgram, JobRegistry, JobSpec, JobState, StepCtx, StepOutcome};
use crate::message::{payload, Message, MsgKind, Payload};
use crate::module::{ModuleCtx, SharedModule};
use crate::sched::FcfsScheduler;
use crate::state::{StateLog, StateValue};
use crate::tbon::{IntMap, Rank, Tbon};
use crate::topic::Topic;
use fluxpm_hw::{lassen, tioga, MachineKind, NodeHardware, NodeId, Watts};
use fluxpm_sim::{Engine, Event, EventId, SimDuration, SimTime, Trace, TraceLevel, Xoshiro256pp};
use std::collections::{BTreeMap, VecDeque};
use std::ops::ControlFlow;
use std::rc::Rc;

/// The engine type every Flux simulation runs on.
pub type FluxEngine = Engine<World, FluxEvent>;

/// The events the overlay schedules by the million, which the engine
/// stores by value in its slab: a message in flight and an armed RPC
/// deadline allocate nothing. Everything rarer — module timers, the
/// executor, retry backoff — is a closure.
pub enum FluxEvent {
    /// A message in flight, with the route it was launched on;
    /// [`World::send`] schedules it for the instant it arrives.
    Deliver {
        /// The message, handed to the destination's handler.
        msg: Message,
        /// The TBON route captured at send time.
        route: Rc<[Rank]>,
    },
    /// The deadline of the RPC `tag`. It keeps the request's header —
    /// what the timeout response and its trace line read — not the
    /// request: an armed deadline holds no reference to the payload.
    Deadline {
        /// The request's topic.
        topic: Topic,
        /// The requester, which the timeout response goes to.
        from: Rank,
        /// The rank that did not answer.
        to: Rank,
        /// The request's matchtag.
        tag: u64,
        /// How long the requester waited.
        deadline: SimDuration,
    },
}

impl Event<World> for FluxEvent {
    fn fire(self, world: &mut World, eng: &mut FluxEngine) {
        match self {
            FluxEvent::Deliver { msg, route } => deliver(world, eng, msg, &route),
            FluxEvent::Deadline {
                topic,
                from,
                to,
                tag,
                deadline,
            } => {
                let Some(pending) = world.pending_rpcs.remove(&tag) else {
                    return; // answered in time; lazily-cancelled event
                };
                world.topic_stats.entry(topic.clone()).or_default().timeouts += 1;
                world.trace.emit(
                    eng.now(),
                    TraceLevel::Warn,
                    "rpc",
                    format!(
                        "timeout after {deadline}: {from} -> {to} topic {topic} (matchtag {tag})"
                    ),
                );
                let resp = Message::timeout_response(&topic, from, to, tag);
                (pending.callback)(world, eng, &resp);
            }
        }
    }
}

/// Why the overlay dropped a message; each cause has its own Warn line.
enum DropCause {
    /// The sender's broker is down.
    DownedOrigin,
    /// An endpoint is detached: no route under this topology epoch.
    NoRoute(u64),
    /// Injected loss on a hop.
    Lost,
    /// Tail-dropped by the full FIFO of this congested link.
    TailDrop(Rank, Rank),
    /// A rank on the in-flight route died.
    DeadHop(Rank),
}

/// Callback invoked when an RPC response arrives.
type RpcCallback = Box<dyn FnOnce(&mut World, &mut FluxEngine, &Message)>;

/// One in-flight RPC awaiting its response.
struct PendingRpc {
    /// The requesting rank (so a node failure can cancel its RPCs).
    from: Rank,
    /// Invoked with the (real or synthesized) response.
    callback: RpcCallback,
    /// The deadline event, if the RPC was issued with one; cancelled
    /// when the real response arrives first.
    timeout: Option<EventId>,
}

/// Retry schedule for [`RpcBuilder::retry`]: each attempt gets a
/// deadline, and failed attempts are re-sent with exponential backoff.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts, including the first (>= 1).
    pub max_attempts: u32,
    /// Per-attempt response deadline.
    pub deadline: SimDuration,
    /// Delay before the second attempt.
    pub backoff: SimDuration,
    /// Backoff multiplier between consecutive attempts.
    pub backoff_factor: u64,
}

impl Default for RetryPolicy {
    /// 3 attempts, 1 s deadline, 50 ms initial backoff, doubling.
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            deadline: SimDuration::from_secs(1),
            backoff: SimDuration::from_millis(50),
            backoff_factor: 2,
        }
    }
}

impl RetryPolicy {
    /// The default policy with a different per-attempt deadline.
    pub fn with_deadline(deadline: SimDuration) -> RetryPolicy {
        RetryPolicy {
            deadline,
            ..RetryPolicy::default()
        }
    }
}

/// Per-topic RPC health counters, exposed through [`World::rpc_stats`]
/// (the ROADMAP's "retry budget telemetry"). Keyed by topic in a
/// `BTreeMap` so snapshots iterate deterministically.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct TopicStats {
    /// Deadlines that expired before a response arrived.
    pub timeouts: u64,
    /// Attempts re-sent by the retry machinery.
    pub retries: u64,
    /// Messages dropped (downed origin, severed route, injected loss).
    pub drops: u64,
}

/// A pending RPC under construction: created by [`World::rpc`], armed
/// with [`RpcBuilder::deadline`] / [`RpcBuilder::retry`] /
/// [`RpcBuilder::from`], and launched by [`RpcBuilder::send`].
///
/// ```no_run
/// # use fluxpm_flux::{payload, Rank, RetryPolicy, World, FluxEngine};
/// # use fluxpm_sim::{Engine, SimDuration};
/// # let mut world = World::new(fluxpm_hw::MachineKind::Lassen, 4, 1);
/// # let mut eng: FluxEngine = Engine::new();
/// world
///     .rpc(Rank(3), "power-monitor.node-data", payload(()))
///     .deadline(SimDuration::from_secs(1))
///     .retry(RetryPolicy::default())
///     .send(&mut eng, |_world, _eng, _resp| {});
/// ```
#[must_use = "an RPC does nothing until .send() is called"]
pub struct RpcBuilder<'w> {
    world: &'w mut World,
    from: Rank,
    to: Rank,
    topic: Topic,
    payload: Payload,
    deadline: Option<SimDuration>,
    retry: Option<RetryPolicy>,
}

impl<'w> RpcBuilder<'w> {
    /// Override the requesting rank. Defaults to the current root (the
    /// external-client vantage point); modules issuing RPCs should pass
    /// their own `ctx.rank`.
    #[allow(clippy::should_implement_trait)]
    pub fn from(mut self, rank: Rank) -> Self {
        self.from = rank;
        self
    }

    /// Arm a response deadline: if no response arrives in time the
    /// callback fires with a synthesized timeout error
    /// ([`Message::is_timeout`]) and any late real response is dropped
    /// as an orphan. With [`RpcBuilder::retry`] this sets the
    /// *per-attempt* deadline, overriding the policy's.
    pub fn deadline(mut self, deadline: SimDuration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Retry timed-out attempts with exponential backoff per `policy`.
    /// The callback fires exactly once: with the first real response or
    /// the final attempt's timeout.
    pub fn retry(mut self, policy: RetryPolicy) -> Self {
        self.retry = Some(policy);
        self
    }

    /// Launch the RPC. Without a deadline or retry policy the callback
    /// never fires if the responder dies — arm one on any path that must
    /// survive failures.
    pub fn send(
        self,
        eng: &mut FluxEngine,
        callback: impl FnOnce(&mut World, &mut FluxEngine, &Message) + 'static,
    ) {
        let RpcBuilder {
            world,
            from,
            to,
            topic,
            payload,
            deadline,
            retry,
        } = self;
        if let Some(mut policy) = retry {
            if let Some(d) = deadline {
                policy.deadline = d;
            }
            assert!(policy.max_attempts >= 1, "at least one attempt");
            retry_attempt(
                world,
                eng,
                RetryState {
                    from,
                    to,
                    topic,
                    payload,
                    policy,
                    attempt: 1,
                    prev_delay_us: 0,
                    callback: Box::new(callback),
                },
            );
        } else if let Some(d) = deadline {
            world.rpc_deadline_inner(eng, from, to, topic, payload, d, Box::new(callback));
        } else {
            world.rpc_plain_inner(eng, from, to, topic, payload, Box::new(callback));
        }
    }
}

/// Loss/jitter/capacity shaping for one (undirected) TBON link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkProfile {
    /// Probability a message is lost crossing the link (ignored while a
    /// [`GilbertElliott`] burst model governs the link — the per-state
    /// drop probabilities take over).
    pub drop_prob: f64,
    /// Maximum extra latency added per crossing (uniform in `[0, max]` µs).
    pub jitter_max_us: u64,
    /// Optional two-state burst-loss channel producing *correlated*
    /// loss: once a link enters the bad state, consecutive messages are
    /// dropped together until it recovers.
    pub burst: Option<GilbertElliott>,
    /// Link bandwidth in bytes/s, charged per [`Message::size_bytes`]
    /// crossing (`None` = [`World::link_bandwidth_bps`]).
    pub bandwidth_bps: Option<u64>,
    /// Bounded-FIFO capacity: messages still serializing when the next
    /// one arrives queue up to this depth, then tail-drop (`None` =
    /// [`World::link_queue_capacity`]).
    pub queue_capacity: Option<u32>,
}

impl LinkProfile {
    /// Uniform (memoryless) loss + jitter — the pre-storm global model.
    pub fn uniform(drop_prob: f64, jitter_max: SimDuration) -> LinkProfile {
        LinkProfile {
            drop_prob,
            jitter_max_us: jitter_max.as_micros(),
            burst: None,
            bandwidth_bps: None,
            queue_capacity: None,
        }
    }

    /// A perfectly clean link.
    pub fn lossless() -> LinkProfile {
        LinkProfile {
            drop_prob: 0.0,
            jitter_max_us: 0,
            burst: None,
            bandwidth_bps: None,
            queue_capacity: None,
        }
    }

    /// Govern this link with a [`GilbertElliott`] burst channel.
    pub fn with_burst(mut self, burst: GilbertElliott) -> LinkProfile {
        self.burst = Some(burst);
        self
    }

    /// Override the link's bandwidth (bytes/s).
    pub fn with_bandwidth(mut self, bytes_per_sec: u64) -> LinkProfile {
        self.bandwidth_bps = Some(bytes_per_sec);
        self
    }

    /// Override the link's bounded-FIFO capacity.
    pub fn with_queue_capacity(mut self, capacity: u32) -> LinkProfile {
        self.queue_capacity = Some(capacity);
        self
    }
}

/// A seeded Gilbert–Elliott burst-loss channel: a two-state Markov
/// chain (good/bad) stepped once per message crossing the link, with a
/// per-state drop probability. With `p_good_to_bad` small and
/// `p_bad_to_good` moderate the long-run loss rate can match a uniform
/// channel while the losses arrive in *bursts* — the correlated-failure
/// pattern real links flap with.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GilbertElliott {
    /// Per-crossing probability of entering the bad state.
    pub p_good_to_bad: f64,
    /// Per-crossing probability of leaving the bad state.
    pub p_bad_to_good: f64,
    /// Drop probability while good (usually ~0).
    pub good_drop_prob: f64,
    /// Drop probability while bad (usually ~1).
    pub bad_drop_prob: f64,
}

impl GilbertElliott {
    /// The long-run stationary loss rate of this channel.
    pub fn stationary_loss(&self) -> f64 {
        let denom = self.p_good_to_bad + self.p_bad_to_good;
        if denom == 0.0 {
            return self.good_drop_prob;
        }
        let p_bad = self.p_good_to_bad / denom;
        p_bad * self.bad_drop_prob + (1.0 - p_bad) * self.good_drop_prob
    }
}

/// One seeded congestion window on a link: while the simulation clock is
/// inside `[start_us, end_us)`, the link's effective bandwidth is scaled
/// by `1 − severity` — the link turns *slow*, not lossy. Serialization
/// stretches, the bounded FIFO fills, queueing delay rises, and only at
/// full queue do messages tail-drop. An optional [`CongestionBurst`]
/// makes the severity flap inside the window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CongestionEvent {
    /// Window start (inclusive), in simulation microseconds.
    pub start_us: u64,
    /// Window end (exclusive), in simulation microseconds.
    pub end_us: u64,
    /// Fraction of the link's bandwidth taken away (clamped to
    /// `[0, 0.999]` at crossing time so a link is never fully stalled).
    pub severity: f64,
    /// Optional two-state flapping model; when set, the per-state
    /// severities replace the flat `severity` above.
    pub burst: Option<CongestionBurst>,
}

/// Gilbert–Elliott-shaped bursty congestion: a two-state Markov chain
/// (calm/congested) stepped once per message crossing while the owning
/// [`CongestionEvent`]'s window is active, modulating *bandwidth* the way
/// [`GilbertElliott`] modulates loss. State evolution draws from the
/// fault-plan RNG, so only links that actually carry bursty congestion
/// consume RNG — runs without congestion keep identical random streams.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CongestionBurst {
    /// Per-crossing probability of entering the congested state.
    pub p_calm_to_congested: f64,
    /// Per-crossing probability of returning to calm.
    pub p_congested_to_calm: f64,
    /// Bandwidth fraction taken away while calm (usually ~0).
    pub calm_severity: f64,
    /// Bandwidth fraction taken away while congested (e.g. 0.95).
    pub congested_severity: f64,
}

/// Deterministic chaos injection over TBON links: per-hop message loss
/// and latency jitter, drawn from a dedicated RNG stream derived from
/// the world seed so runs replay byte-identically. One default
/// [`LinkProfile`] governs every link, with optional per-link
/// overrides and [`GilbertElliott`] burst channels (whose good/bad
/// state evolves per message crossing, per link).
///
/// Build with [`FaultPlan::uniform`] + builder methods, then arm via
/// [`World::install_fault_plan`] (which seeds the RNG from the world
/// seed). [`World::inject_faults`] remains the one-call uniform path.
#[derive(Debug)]
pub struct FaultPlan {
    /// Profile applied to links without a per-link override.
    pub default_link: LinkProfile,
    /// Per-link overrides, keyed by the normalized (lo, hi) rank pair.
    per_link: IntMap<(u32, u32), LinkProfile>,
    /// Current burst-channel state per link (`true` = bad). Lazily
    /// created; only read per-link, never iterated, so the map's order
    /// cannot perturb determinism.
    burst_bad: IntMap<(u32, u32), bool>,
    /// Seeded congestion windows per link, in insertion order.
    congestion: IntMap<(u32, u32), Vec<CongestionEvent>>,
    /// Current [`CongestionBurst`] state per (link, event index)
    /// (`true` = congested). Same determinism discipline as `burst_bad`.
    burst_congested: IntMap<((u32, u32), u32), bool>,
    rng: Xoshiro256pp,
    dropped: u64,
    /// When set, the plan runs in *deterministic* (partition-invariant)
    /// mode: loss, jitter, and burst-chain evolution are pure hash
    /// functions of `(seed, link, message identity, time)` instead of
    /// draws from the shared sequential RNG stream. Sharded worlds
    /// require this — a shared stream's consumption order depends on
    /// which shard sends first, so it cannot replay identically across
    /// shard counts.
    det_seed: Option<u64>,
    /// Memoized burst-chain states for deterministic mode, keyed by
    /// `(link, chain index)` where chain 0 is the link's
    /// [`GilbertElliott`] loss channel and `1 + i` is congestion event
    /// `i`'s [`CongestionBurst`]. Each entry holds the per-window state
    /// sequence, extended on demand — a pure function of the window
    /// index, so every shard that asks sees the same answer.
    det_chains: IntMap<((u32, u32), u32), Vec<bool>>,
}

/// Deterministic-mode burst chains advance once per fixed sub-window
/// instead of once per message crossing (100 ms: long enough that a
/// congestion flap spans many crossings, short next to the multi-second
/// windows chaos plans use).
const DET_BURST_WINDOW_US: u64 = 100_000;

/// SplitMix64 finalizer — the mixing core of the deterministic fault
/// hash. Public within the crate so retry jitter and the sharded
/// harness can share one mixer.
pub(crate) fn det_mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Fold a word list into one hash with [`det_mix`].
pub(crate) fn det_hash(words: &[u64]) -> u64 {
    let mut h = 0x243F_6A88_85A3_08D3u64;
    for &w in words {
        h = det_mix(h ^ w);
    }
    h
}

/// Map a hash to a uniform f64 in `[0, 1)`.
fn det_unit(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

impl FaultPlan {
    /// A plan applying one uniform profile to every link. The RNG is
    /// re-seeded from the world seed when the plan is installed.
    pub fn uniform(drop_prob: f64, jitter_max: SimDuration) -> FaultPlan {
        FaultPlan {
            default_link: LinkProfile::uniform(drop_prob, jitter_max),
            per_link: IntMap::default(),
            burst_bad: IntMap::default(),
            congestion: IntMap::default(),
            burst_congested: IntMap::default(),
            rng: Xoshiro256pp::seed_from_u64(0),
            dropped: 0,
            det_seed: None,
            det_chains: IntMap::default(),
        }
    }

    /// Switch the plan to deterministic (partition-invariant) mode: all
    /// stochastic decisions become pure hash functions of `seed`, the
    /// link, the message identity, and time. Required for sharded
    /// worlds; also usable single-threaded, where it produces the same
    /// chaos for any shard count.
    pub fn deterministic(mut self, seed: u64) -> FaultPlan {
        self.det_seed = Some(seed);
        self
    }

    /// Whether the plan runs in deterministic (partition-invariant) mode.
    pub fn is_deterministic(&self) -> bool {
        self.det_seed.is_some()
    }

    /// Override the profile of the link between `a` and `b` (undirected).
    pub fn with_link(mut self, a: Rank, b: Rank, profile: LinkProfile) -> FaultPlan {
        self.per_link.insert(Self::link_key(a, b), profile);
        self
    }

    /// Put every link (without a per-link override) on a burst channel.
    pub fn with_burst(mut self, burst: GilbertElliott) -> FaultPlan {
        self.default_link.burst = Some(burst);
        self
    }

    /// Congest the `a`–`b` link for the given window: its effective
    /// bandwidth is scaled by `1 − severity` while the window is active,
    /// so traffic slows (and eventually tail-drops) instead of vanishing.
    /// Windows may overlap — the worst active severity wins per crossing.
    pub fn with_congestion(
        mut self,
        a: Rank,
        b: Rank,
        window: std::ops::Range<SimTime>,
        severity: f64,
    ) -> FaultPlan {
        self.congestion
            .entry(Self::link_key(a, b))
            .or_default()
            .push(CongestionEvent {
                start_us: window.start.as_micros(),
                end_us: window.end.as_micros(),
                severity,
                burst: None,
            });
        self
    }

    /// Congest the `a`–`b` link for the given window with a
    /// [`CongestionBurst`] flapping channel instead of a flat severity.
    pub fn with_bursty_congestion(
        mut self,
        a: Rank,
        b: Rank,
        window: std::ops::Range<SimTime>,
        burst: CongestionBurst,
    ) -> FaultPlan {
        self.congestion
            .entry(Self::link_key(a, b))
            .or_default()
            .push(CongestionEvent {
                start_us: window.start.as_micros(),
                end_us: window.end.as_micros(),
                severity: burst.congested_severity,
                burst: Some(burst),
            });
        self
    }

    /// The profile governing the link between `a` and `b`.
    pub fn link_profile(&self, a: Rank, b: Rank) -> LinkProfile {
        self.per_link
            .get(&Self::link_key(a, b))
            .copied()
            .unwrap_or(self.default_link)
    }

    /// Messages this plan has dropped.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    fn link_key(a: Rank, b: Rank) -> (u32, u32) {
        (a.0.min(b.0), a.0.max(b.0))
    }

    /// One message crossing the `a`–`b` link at simulation time
    /// `now_us`: evolve the link's burst state (if any), decide loss,
    /// draw the jitter, and sample the active congestion severity.
    /// Returns `(lost, jitter_us, severity)`. RNG consumption is
    /// strictly per-crossing in route order — and congestion windows
    /// only consume RNG when they carry a [`CongestionBurst`] — so
    /// same-seed runs replay byte-identically.
    fn traverse(&mut self, a: Rank, b: Rank, now_us: u64) -> (bool, u64, f64) {
        let profile = self.link_profile(a, b);
        let drop_prob = match profile.burst {
            None => profile.drop_prob,
            Some(ge) => {
                let bad = self.burst_bad.entry(Self::link_key(a, b)).or_insert(false);
                if *bad {
                    if self.rng.chance(ge.p_bad_to_good) {
                        *bad = false;
                    }
                } else if self.rng.chance(ge.p_good_to_bad) {
                    *bad = true;
                }
                if *bad {
                    ge.bad_drop_prob
                } else {
                    ge.good_drop_prob
                }
            }
        };
        if self.rng.chance(drop_prob) {
            self.dropped += 1;
            return (true, 0, 0.0);
        }
        let jitter = self.rng.below(profile.jitter_max_us + 1);
        (false, jitter, self.congestion_severity(a, b, now_us))
    }

    /// The worst congestion severity active on the `a`–`b` link at
    /// `now_us`, stepping any [`CongestionBurst`] channels whose window
    /// is open. Links with no configured congestion return 0.0 without
    /// touching the RNG.
    fn congestion_severity(&mut self, a: Rank, b: Rank, now_us: u64) -> f64 {
        let key = Self::link_key(a, b);
        let n = self.congestion.get(&key).map_or(0, |v| v.len());
        let mut severity = 0.0f64;
        for i in 0..n {
            let ev = self.congestion[&key][i];
            if now_us < ev.start_us || now_us >= ev.end_us {
                continue;
            }
            let sev = match ev.burst {
                None => ev.severity,
                Some(cb) => {
                    let congested = self.burst_congested.entry((key, i as u32)).or_insert(false);
                    if *congested {
                        if self.rng.chance(cb.p_congested_to_calm) {
                            *congested = false;
                        }
                    } else if self.rng.chance(cb.p_calm_to_congested) {
                        *congested = true;
                    }
                    if *congested {
                        cb.congested_severity
                    } else {
                        cb.calm_severity
                    }
                }
            };
            severity = severity.max(sev);
        }
        severity
    }

    // ------------------------------------------------------------------
    // Deterministic (partition-invariant) mode
    // ------------------------------------------------------------------

    /// The state of a two-state burst chain at `now_us` in deterministic
    /// mode. The chain advances once per [`DET_BURST_WINDOW_US`]
    /// sub-window from `origin_us`; each step draws from a hash chained
    /// on `(seed, link, chain, window)`, so the state at any time is a
    /// pure function of time — every shard computes the same answer no
    /// matter which messages it routes. States are memoized per
    /// `(link, chain)` and extended on demand.
    fn det_chain_state(
        &mut self,
        key: (u32, u32),
        chain: u32,
        origin_us: u64,
        now_us: u64,
        p_enter: f64,
        p_exit: f64,
    ) -> bool {
        let seed = self.det_seed.expect("det mode");
        let window = (now_us.saturating_sub(origin_us) / DET_BURST_WINDOW_US) as usize;
        let states = self.det_chains.entry((key, chain)).or_default();
        while states.len() <= window {
            let prev = states.last().copied().unwrap_or(false);
            let draw = det_unit(det_hash(&[
                seed,
                (key.0 as u64) << 32 | key.1 as u64,
                chain as u64,
                states.len() as u64,
            ]));
            let next = if prev { draw >= p_exit } else { draw < p_enter };
            states.push(next);
        }
        states[window]
    }

    /// Deterministic-mode counterpart of [`FaultPlan::traverse`]: one
    /// message crossing the `a`–`b` link at `now_us`. Loss and jitter
    /// hash on the message identity `(origin rank, origin seq, hop)`;
    /// burst and congestion chains are windowed pure functions of time
    /// ([`FaultPlan::det_chain_state`]). No shared RNG is consumed, so
    /// the outcome is identical whichever shard computes it.
    fn det_traverse(
        &mut self,
        a: Rank,
        b: Rank,
        now_us: u64,
        origin: u32,
        origin_seq: u64,
        hop: u32,
    ) -> (bool, u64, f64) {
        let seed = self.det_seed.expect("det mode");
        let key = Self::link_key(a, b);
        let link_word = (key.0 as u64) << 32 | key.1 as u64;
        let profile = self.link_profile(a, b);
        let drop_prob = match profile.burst {
            None => profile.drop_prob,
            Some(ge) => {
                let bad =
                    self.det_chain_state(key, 0, 0, now_us, ge.p_good_to_bad, ge.p_bad_to_good);
                if bad {
                    ge.bad_drop_prob
                } else {
                    ge.good_drop_prob
                }
            }
        };
        let ident = det_hash(&[seed, link_word, origin as u64, origin_seq, hop as u64]);
        if det_unit(ident) < drop_prob {
            self.dropped += 1;
            return (true, 0, 0.0);
        }
        let jitter = det_mix(ident) % (profile.jitter_max_us + 1);
        (false, jitter, self.det_congestion_severity(key, now_us))
    }

    /// Deterministic-mode congestion severity on a link at `now_us`:
    /// the worst severity among active windows, with
    /// [`CongestionBurst`] flapping resolved through the windowed chain
    /// (anchored at the event's start, so the flap pattern is a pure
    /// function of time).
    fn det_congestion_severity(&mut self, key: (u32, u32), now_us: u64) -> f64 {
        let n = self.congestion.get(&key).map_or(0, |v| v.len());
        let mut severity = 0.0f64;
        for i in 0..n {
            let ev = self.congestion[&key][i];
            if now_us < ev.start_us || now_us >= ev.end_us {
                continue;
            }
            let sev = match ev.burst {
                None => ev.severity,
                Some(cb) => {
                    let congested = self.det_chain_state(
                        key,
                        1 + i as u32,
                        ev.start_us,
                        now_us,
                        cb.p_calm_to_congested,
                        cb.p_congested_to_calm,
                    );
                    if congested {
                        cb.congested_severity
                    } else {
                        cb.calm_severity
                    }
                }
            };
            severity = severity.max(sev);
        }
        severity
    }
}

/// State carried across the attempts of one retried RPC.
struct RetryState {
    from: Rank,
    to: Rank,
    topic: Topic,
    payload: Payload,
    policy: RetryPolicy,
    attempt: u32,
    /// The previous attempt's backoff delay (0 before the first retry) —
    /// the anchor for the decorrelated-jitter draw.
    prev_delay_us: u64,
    callback: RpcCallback,
}

/// Issue attempt `st.attempt` of a retried RPC; on a timeout response
/// with attempts left (and the requester still up), schedule the next
/// attempt after a backoff with *decorrelated jitter*: the delay is
/// drawn uniformly from `[base, min(cap, 3·prev)]`, where `base` is the
/// policy's initial backoff and `cap` the pure-exponential final delay
/// (`backoff · factor^(max_attempts−1)`). Synchronized requesters that
/// all timed out against the same congested link thereby spread their
/// re-sends instead of re-congesting it in lockstep. Draws come from the
/// world's dedicated retry RNG stream, so same-seed runs replay
/// byte-identically.
fn retry_attempt(world: &mut World, eng: &mut FluxEngine, st: RetryState) {
    let RetryState {
        from,
        to,
        topic,
        payload,
        policy,
        attempt,
        prev_delay_us,
        callback,
    } = st;
    let topic_next = topic.clone();
    let payload_next = Rc::clone(&payload);
    world.rpc_deadline_inner(
        eng,
        from,
        to,
        topic,
        payload,
        policy.deadline,
        Box::new(move |world, eng, resp| {
            let retry = resp.is_timeout()
                && attempt < policy.max_attempts
                && world.brokers[from.index()].is_up();
            if !retry {
                return callback(world, eng, resp);
            }
            world
                .topic_stats
                .entry(topic_next.clone())
                .or_default()
                .retries += 1;
            let base = policy.backoff.as_micros().max(1);
            let cap = base.saturating_mul(
                policy
                    .backoff_factor
                    .max(1)
                    .saturating_pow(policy.max_attempts.saturating_sub(1)),
            );
            // The draw is additionally capped at the attempt deadline:
            // a backoff longer than the deadline would schedule the
            // retry after its own deadline timer fires, spending more
            // budget waiting than a whole attempt costs.
            let deadline_us = policy.deadline.as_micros().max(1);
            let lo = base.min(deadline_us);
            let hi = prev_delay_us
                .max(base)
                .saturating_mul(3)
                .clamp(base, cap.max(base))
                .min(deadline_us);
            // Sharded replicas replace the shared retry-RNG stream with
            // a pure hash of the retry identity: a shared stream's
            // consumption order depends on which shard retries first,
            // so it cannot replay identically across shard counts.
            let delay_us = match &world.shard_ctx {
                None => world.retry_rng.range_inclusive(lo, hi),
                Some(ctx) => {
                    let h = det_hash(&[
                        ctx.salt,
                        0x7E_781,
                        from.0 as u64,
                        to.0 as u64,
                        attempt as u64,
                        eng.now().as_micros(),
                    ]);
                    lo + h % (hi - lo + 1)
                }
            };
            let delay = SimDuration::from_micros(delay_us);
            world.trace.emit(
                eng.now(),
                TraceLevel::Warn,
                "rpc",
                format!(
                    "retrying {topic_next} {from} -> {to} in {delay} (attempt {attempt} timed out)"
                ),
            );
            let next = RetryState {
                from,
                to,
                topic: topic_next,
                payload: payload_next,
                policy,
                attempt: attempt + 1,
                prev_delay_us: delay_us,
                callback,
            };
            // A backoff timer is rare (one per failed attempt): a
            // closure, not a `FluxEvent`.
            eng.schedule_in(delay, move |world, eng| retry_attempt(world, eng, next));
        }),
    );
}

/// Default per-link bandwidth: 10 GB/s, a modern HPC management-network
/// class link. At this rate a default-sized control message serializes
/// in well under a microsecond, so the uncongested integer-microsecond
/// delivery timing is identical to the pure `hop_latency` model.
pub const DEFAULT_LINK_BANDWIDTH_BPS: u64 = 10_000_000_000;

/// Default bounded-FIFO capacity per link: messages queued behind
/// in-flight serialization beyond this depth are tail-dropped.
pub const DEFAULT_LINK_QUEUE_CAPACITY: u32 = 64;

/// EWMA smoothing factor for per-link delay/depth telemetry.
const LINK_EWMA_ALPHA: f64 = 0.2;

/// Per-uplink transmission state, keyed by the *child* rank of the tree
/// edge it models. `parent` records which wire the state describes; when
/// the child re-parents (death heal, rebalance, congestion re-route) the
/// first crossing of the new edge sees the mismatch and resets — stale
/// queue backlog never carries over to a different physical link.
#[derive(Debug, Clone, Default)]
struct LinkQueue {
    /// The parent endpoint this state was accumulated against.
    parent: Option<Rank>,
    /// Departure times (µs) of messages still serializing or queued;
    /// `front` leaves first, `back` is when the link next goes idle.
    departures: VecDeque<u64>,
    /// EWMA of per-crossing queueing + serialization delay (µs).
    ewma_delay_us: f64,
    /// EWMA of queue depth observed at arrival.
    ewma_depth: f64,
    /// Messages that crossed this link.
    delivered: u64,
    /// Messages tail-dropped by the full FIFO.
    congestion_drops: u64,
    /// Window counters for the degradation detector (reset every
    /// monitor window): crossings, crossings over the hot-delay
    /// threshold, and the deepest queue seen.
    win_crossings: u32,
    win_over: u32,
    win_max_depth: u32,
}

/// One link's telemetry snapshot, from [`World::link_stats`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkStats {
    /// Child endpoint of the tree edge (the link's key).
    pub child: u32,
    /// Parent endpoint under the current topology.
    pub parent: u32,
    /// EWMA of per-crossing queueing + serialization delay (µs).
    pub ewma_delay_us: f64,
    /// EWMA of queue depth observed at arrival.
    pub ewma_depth: f64,
    /// Messages that crossed the link.
    pub delivered: u64,
    /// Messages tail-dropped by the full FIFO.
    pub congestion_drops: u64,
    /// Congestion-triggered re-parents this child's subtree has taken.
    pub reparents: u64,
}

/// Topic published when a job is submitted (payload: [`JobId`]).
pub const EVENT_JOB_SUBMIT: &str = "job.event.submit";
/// Topic published when a job starts running (payload: [`JobId`]).
pub const EVENT_JOB_START: &str = "job.event.start";
/// Topic published when a job completes (payload: [`JobId`]).
pub const EVENT_JOB_FINISH: &str = "job.event.finish";
/// Topic published when a job fails or is cancelled (payload: [`JobId`]).
pub const EVENT_JOB_EXCEPTION: &str = "job.event.exception";

/// One Flux instance over a simulated cluster.
pub struct World {
    /// Overlay topology.
    pub tbon: Tbon,
    /// Which machine the nodes model.
    pub machine: MachineKind,
    /// Node hardware, indexed by rank.
    pub nodes: Vec<NodeHardware>,
    /// Brokers, indexed by rank.
    pub brokers: Vec<Broker>,
    /// Job table.
    pub jobs: JobRegistry,
    /// Node allocator.
    pub sched: FcfsScheduler,
    /// Simulation trace.
    pub trace: Trace,
    /// Root RNG for world-level stochastic models; children are derived
    /// deterministically.
    pub rng: Xoshiro256pp,
    /// Executor tick length (default 1 s).
    pub exec_tick: SimDuration,
    /// Set once the executor decides all work is done; long-running
    /// module loops (sampling threads) should observe this and stop.
    pub halted: bool,
    /// Executor auto-halts once at least this many jobs have been
    /// submitted and all are complete. `None` disables auto-halt.
    pub autostop_after: Option<u64>,
    /// Stolen host-CPU seconds per node since the last executor slice.
    overhead: Vec<f64>,
    /// In-flight RPCs by matchtag.
    pending_rpcs: IntMap<u64, PendingRpc>,
    next_matchtag: u64,
    /// Chaos injection over TBON links, if enabled.
    faults: Option<FaultPlan>,
    /// Per-uplink queue/telemetry state, indexed by the child rank of
    /// each tree edge.
    links: Vec<LinkQueue>,
    /// Default link bandwidth (bytes/s) where no [`LinkProfile`]
    /// overrides it.
    pub link_bandwidth_bps: u64,
    /// Default bounded-FIFO capacity where no [`LinkProfile`] overrides
    /// it.
    pub link_queue_capacity: u32,
    /// Tuning shared by every broker's uplink degradation detector (and
    /// the hot-delay threshold the per-crossing window counters use).
    pub link_health: LinkHealthConfig,
    /// Messages tail-dropped by full link queues.
    congestion_drops: u64,
    /// Congestion-triggered re-parents performed by the link monitor.
    congestion_reparents: u64,
    /// Whether any module has cached tree-shape state that
    /// [`Module::on_topology_change`] must refresh (see
    /// [`World::engage_topology_watch`]). Monotone: stays `false` —
    /// and topology-change notification stays free — until the first
    /// module opts in.
    topology_watch_engaged: bool,
    /// Dedicated RNG stream for retry-backoff jitter, derived from the
    /// world seed — retries stay decorrelated *and* replayable.
    retry_rng: Xoshiro256pp,
    /// Per-topic timeout/retry/drop counters ([`World::rpc_stats`]); the
    /// world-wide counts are their sums.
    topic_stats: BTreeMap<Topic, TopicStats>,
    /// Factories for per-rank modules, replayed by
    /// [`World::recover_node`] to reload a rejoining broker.
    module_factories: Vec<Box<dyn Fn(Rank) -> SharedModule>>,
    /// Factories for *root-service* modules, used only when the whole
    /// instance died and a recovering rank resurrects it: each factory
    /// builds a fresh module whose state is then replayed from
    /// [`World::state`].
    root_service_factories: Vec<Box<dyn Fn() -> SharedModule>>,
    /// The instance's durable event log of root-service state (survives
    /// full instance death, like the production deployment's store).
    pub state: StateLog,
    /// End of the last executor slice.
    last_exec: SimTime,
    executor_installed: bool,
    /// The executor slice's snapshot of running job ids, kept between
    /// slices for its storage.
    slice_jobs: Vec<JobId>,
    /// Sharded-replica context, when this world is one shard of a
    /// full-fidelity sharded run (see [`crate::world_shard`]). `None`
    /// for classic single-threaded worlds — every sharded branch in the
    /// hot paths is behind this option, so they cost one predictable
    /// test when unsharded.
    pub(crate) shard_ctx: Option<Box<crate::world_shard::ShardCtx>>,
}

impl World {
    /// Build a cluster of `nnodes` nodes of the given machine type with a
    /// binary TBON. `seed` drives every stochastic model in the world.
    pub fn new(machine: MachineKind, nnodes: u32, seed: u64) -> World {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let arch = match machine {
            MachineKind::Lassen => lassen(),
            MachineKind::Tioga => tioga(),
        };
        let nodes: Vec<NodeHardware> = (0..nnodes)
            .map(|i| NodeHardware::new(NodeId(i), arch.clone(), rng.next_u64()))
            .collect();
        let brokers: Vec<Broker> = (0..nnodes)
            .map(|i| Broker::new(Rank(i), format!("{}{}", machine.name(), i)))
            .collect();
        let retry_rng = rng.child(0x7E_781);
        World {
            tbon: Tbon::binary(nnodes),
            machine,
            nodes,
            brokers,
            jobs: JobRegistry::new(),
            sched: FcfsScheduler::new(nnodes),
            trace: Trace::disabled(),
            rng,
            exec_tick: SimDuration::from_secs(1),
            halted: false,
            autostop_after: None,
            overhead: vec![0.0; nnodes as usize],
            pending_rpcs: IntMap::default(),
            next_matchtag: 1,
            faults: None,
            links: vec![LinkQueue::default(); nnodes as usize],
            link_bandwidth_bps: DEFAULT_LINK_BANDWIDTH_BPS,
            link_queue_capacity: DEFAULT_LINK_QUEUE_CAPACITY,
            link_health: LinkHealthConfig::default(),
            congestion_drops: 0,
            congestion_reparents: 0,
            topology_watch_engaged: false,
            retry_rng,
            topic_stats: BTreeMap::new(),
            module_factories: Vec::new(),
            root_service_factories: Vec::new(),
            state: StateLog::new(),
            last_exec: SimTime::ZERO,
            executor_installed: false,
            slice_jobs: Vec::new(),
            shard_ctx: None,
        }
    }

    // ------------------------------------------------------------------
    // Sharded replicas
    // ------------------------------------------------------------------

    /// Turn this world into shard `shard` of a full-fidelity sharded
    /// run (see [`crate::world_shard`] for the replica model). Every
    /// shard builds the *same* world from the same seed and scripted
    /// scenario; after this call, modules only load on owned ranks and
    /// [`World::send`] suppresses messages whose origin this shard does
    /// not own, so each rank's side effects happen exactly once across
    /// the fleet. `salt` seeds the deterministic retry-jitter hash and
    /// must equal the world seed on every shard.
    pub fn enable_sharding(
        &mut self,
        shard: usize,
        plan: std::sync::Arc<crate::shard::ShardPlan>,
        salt: u64,
    ) {
        assert!(self.shard_ctx.is_none(), "sharding already enabled");
        assert!(shard < plan.shards(), "shard index out of range");
        if let Some(fp) = &self.faults {
            assert!(
                fp.is_deterministic(),
                "sharded worlds require FaultPlan::deterministic"
            );
        }
        let nranks = self.size() as usize;
        self.shard_ctx = Some(Box::new(crate::world_shard::ShardCtx::new(
            shard, plan, salt, nranks,
        )));
    }

    /// Register a payload type for cross-shard transport. Sharded
    /// worlds move message payloads between threads, so any payload
    /// that can cross a shard boundary must be `Send + Clone` and
    /// registered here — in the *same order* on every shard (the wire
    /// format carries the registry index). Unregistered payloads
    /// crossing a boundary panic with the topic name.
    pub fn register_wire_type<T: std::any::Any + Send + Clone>(&mut self) {
        self.shard_ctx
            .as_mut()
            .expect("register_wire_type requires enable_sharding")
            .register::<T>();
    }

    /// Whether this world instance owns `rank`: true for every rank in
    /// a classic world, and only for the shard's own ranks in a sharded
    /// replica. Module loads, message origination, and canonical record
    /// emission are all gated on ownership.
    pub fn owns(&self, rank: Rank) -> bool {
        match &self.shard_ctx {
            None => true,
            Some(ctx) => ctx.plan.owner(rank) == ctx.shard,
        }
    }

    /// Append a canonical record to the shard's record stream (no-op on
    /// classic worlds). The merged, sorted record stream is the
    /// byte-comparable output of a sharded run — unlike the trace,
    /// whose interleaving and matchtags are partition-dependent.
    pub fn record(&mut self, at: SimTime, rank: u32, code: u8, a: u64, b: u64) {
        if let Some(ctx) = &mut self.shard_ctx {
            ctx.records.push(crate::shard::ShardRecord {
                at_us: at.as_micros(),
                rank,
                code,
                a,
                b,
            });
        }
    }

    /// The current root rank: rank 0 until a root failure promotes the
    /// lowest surviving rank. Cluster singletons (the monitor root agent,
    /// the cluster-level manager) live here, and external clients should
    /// address their queries to it.
    pub fn root(&self) -> Rank {
        self.tbon.root()
    }

    /// Register a factory for a *per-rank* module. When a failed node
    /// rejoins via [`World::recover_node`], every registered factory is
    /// invoked to reload the broker's modules (fresh state — the node
    /// rebooted). Root-service modules migrate at failover instead and
    /// must not be registered here.
    pub fn register_module_factory(&mut self, factory: impl Fn(Rank) -> SharedModule + 'static) {
        self.module_factories.push(Box::new(factory));
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
        self.root_service_factories.push(Box::new(factory));
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
        let factories = std::mem::take(&mut self.root_service_factories);
        let mut revived: Vec<SharedModule> = Vec::new();
        for f in &factories {
            let m = f();
            let name = m.borrow().name();
            if self.brokers[rank.index()].register(Rc::clone(&m)) {
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
                    format!("resurrected {name} on {rank} from state log"),
                );
                revived.push(m);
            }
        }
        self.root_service_factories = factories;
        for m in revived {
            let mut ctx = ModuleCtx {
                world: self,
                eng,
                rank,
            };
            m.borrow_mut().on_migrate(&mut ctx);
        }
    }

    /// Number of nodes/brokers.
    pub fn size(&self) -> u32 {
        self.tbon.size()
    }

    /// Hostname of a rank.
    pub fn hostname(&self, rank: Rank) -> &str {
        &self.brokers[rank.index()].hostname
    }

    /// Load a module on one rank: register its routes and invoke `load`.
    ///
    /// On a sharded replica, loads on ranks this shard does not own are
    /// silently skipped (returning `false`): the owning shard's replica
    /// performs the real load. Harness code and module factories can
    /// therefore address *all* ranks uniformly — the guard keeps each
    /// module single-homed.
    pub fn load_module(&mut self, eng: &mut FluxEngine, rank: Rank, module: SharedModule) -> bool {
        if !self.owns(rank) {
            return false;
        }
        if !self.brokers[rank.index()].register(std::rc::Rc::clone(&module)) {
            return false;
        }
        let mut ctx = ModuleCtx {
            world: self,
            eng,
            rank,
        };
        module.borrow_mut().load(&mut ctx);
        true
    }

    /// Load one instance of a module per rank, via a factory.
    pub fn load_module_on_all(
        &mut self,
        eng: &mut FluxEngine,
        mut factory: impl FnMut(Rank) -> SharedModule,
    ) {
        for rank in self.tbon.ranks() {
            let m = factory(rank);
            self.load_module(eng, rank, m);
        }
    }

    /// Start a periodic timer for a loaded module — the simulation's
    /// equivalent of a module's own thread of control. The timer looks
    /// the module up by name on every tick (so unloading the module stops
    /// it) and stops when the world halts.
    ///
    /// The timer is pinned to the broker's current
    /// [incarnation](crate::Broker::incarnation): if the node fails and
    /// recovers between two ticks, the name lookup would otherwise find
    /// the factory-reloaded module — which schedules its *own* timer at
    /// load — and every fast fail/recover cycle would stack another
    /// timer onto the same module, multiplying its cadence and
    /// corrupting gap accounting. A stale-incarnation tick breaks
    /// instead.
    pub fn schedule_module_timer(
        &mut self,
        eng: &mut FluxEngine,
        rank: Rank,
        module_name: &'static str,
        start: SimTime,
        interval: SimDuration,
        tag: u64,
    ) -> fluxpm_sim::EventId {
        let incarnation = self.brokers[rank.index()].incarnation();
        eng.schedule_every(start, interval, move |world: &mut World, eng| {
            if world.halted {
                return ControlFlow::Break(());
            }
            if world.brokers[rank.index()].incarnation() != incarnation {
                return ControlFlow::Break(());
            }
            let Some(module) = world.brokers[rank.index()].module(module_name) else {
                return ControlFlow::Break(());
            };
            let mut ctx = ModuleCtx { world, eng, rank };
            module.borrow_mut().timer(&mut ctx, tag);
            ControlFlow::Continue(())
        })
    }

    // ------------------------------------------------------------------
    // Messaging
    // ------------------------------------------------------------------

    /// Send a message over the overlay; it is delivered after the TBON
    /// route latency (plus any injected jitter). The route is resolved
    /// against the *current* topology epoch and travels with the
    /// message: messages from a downed rank, to a detached rank, or lost
    /// to an active [`FaultPlan`] are dropped here; messages routed
    /// *through* a rank that dies while they are in flight are dropped
    /// at delivery time instead. Messages sent after the topology heals
    /// take the re-parented route.
    ///
    /// The message is moved, with its route, into the
    /// [`FluxEvent::Deliver`] that delivers it: a message in flight is an
    /// entry of the engine's slab, not a heap block, and nothing else
    /// holds it (or its payload) once it is delivered.
    pub fn send(&mut self, eng: &mut FluxEngine, msg: Message) {
        if self.shard_ctx.is_some() {
            return self.send_sharded(eng, msg);
        }
        let Some(route) = self.launch_route(eng.now(), &msg) else {
            return;
        };
        // Store-and-forward over the route: at each hop the message
        // pays queueing + serialization on the link (per its bandwidth
        // and bounded FIFO, evaluated at the hop's *arrival* time) plus
        // the fixed propagation latency and any injected jitter.
        // Self-sends (0 hops) cross no link and are unaffected.
        enum Died {
            Fault,
            Congestion(Rank, Rank),
        }
        let now_us = eng.now().as_micros();
        let mut arrive_us = now_us;
        let hop_latency_us = self.tbon.hop_latency.as_micros();
        let mut died: Option<Died> = None;
        if self.faults.is_none()
            && (msg.size_bytes as u64).saturating_mul(1_000_000) < self.link_bandwidth_bps
        {
            // Ideal network (no fault plan installed) carrying a message
            // whose serialization is below the µs clock at the default
            // bandwidth: every `link_cross` would return 0 (no loss, no
            // jitter, no severity, FIFO bypass), so skip the per-hop
            // queue bookkeeping entirely. Plan-less worlds pay nothing
            // for the congestion machinery — and report no per-link
            // telemetry, since their links never do anything.
            arrive_us += hop_latency_us * (route.len() as u64 - 1);
        } else {
            for hop in route.windows(2) {
                let (hop_lost, jitter_us, severity) = match &mut self.faults {
                    Some(fp) => fp.traverse(hop[0], hop[1], arrive_us),
                    None => (false, 0, 0.0),
                };
                if hop_lost {
                    died = Some(Died::Fault);
                    break;
                }
                match self.link_cross(hop[0], hop[1], arrive_us, msg.size_bytes, severity) {
                    Some(link_us) => arrive_us += link_us + hop_latency_us + jitter_us,
                    None => {
                        died = Some(Died::Congestion(hop[0], hop[1]));
                        break;
                    }
                }
            }
        }
        match died {
            None => {}
            Some(Died::Fault) => return self.drop_message(eng.now(), &msg, DropCause::Lost),
            Some(Died::Congestion(a, b)) => {
                self.congestion_drops += 1;
                return self.drop_message(eng.now(), &msg, DropCause::TailDrop(a, b));
            }
        }
        let delay = SimDuration::from_micros(arrive_us - now_us);
        if self.trace.accepts(TraceLevel::Debug) {
            self.trace.emit(
                eng.now(),
                TraceLevel::Debug,
                "tbon",
                format!(
                    "{:?} {} -> {} topic {}",
                    msg.kind, msg.from, msg.to, msg.topic
                ),
            );
        }
        eng.schedule_event(eng.now() + delay, 0, FluxEvent::Deliver { msg, route });
    }

    /// The sharded-replica send path. Three differences from the
    /// classic path, each load-bearing for partition invariance:
    ///
    /// 1. **Origin suppression.** A message whose `from` this shard
    ///    does not own is dropped silently — the owning shard's replica
    ///    of the same event emits the real one. No counters, no trace,
    ///    no sequence number: replicas must leave zero observable state
    ///    behind.
    /// 2. **Stateless network model.** Per-hop loss/jitter/congestion
    ///    come from the fault plan's deterministic mode (pure hashes of
    ///    the message identity), and serialization is charged against
    ///    the congestion-scaled bandwidth with *no* shared FIFO — link
    ///    queue state would couple messages routed by different shards.
    ///    Every hop costs at least `hop_latency`, which is what lets
    ///    the sharded coordinator use the hop latency as its lookahead.
    /// 3. **Canonical delivery order.** Deliveries are scheduled with
    ///    [`Engine::schedule_event`] under the `(origin, origin seq)`
    ///    key, so same-microsecond deliveries execute in one canonical
    ///    order whether they arrived locally or through the coordinator
    ///    inbox — and after every key-0 (timer/executor) event at that
    ///    instant, in every partition.
    fn send_sharded(&mut self, eng: &mut FluxEngine, msg: Message) {
        let ctx = self.shard_ctx.as_ref().expect("sharded send");
        if ctx.plan.owner(msg.from) != ctx.shard {
            return;
        }
        let Some(route) = self.launch_route(eng.now(), &msg) else {
            return;
        };
        let origin = msg.from.0;
        let origin_seq = {
            let ctx = self.shard_ctx.as_mut().expect("sharded send");
            let seq = ctx.msg_seq[msg.from.index()];
            ctx.msg_seq[msg.from.index()] += 1;
            seq
        };
        let now_us = eng.now().as_micros();
        let hop_latency_us = self.tbon.hop_latency.as_micros();
        let default_bw = self.link_bandwidth_bps;
        let mut arrive_us = now_us;
        for (i, hop) in route.windows(2).enumerate() {
            let (lost, jitter_us, severity) = match &mut self.faults {
                Some(fp) => {
                    fp.det_traverse(hop[0], hop[1], arrive_us, origin, origin_seq, i as u32)
                }
                None => (false, 0, 0.0),
            };
            if lost {
                return self.drop_message(eng.now(), &msg, DropCause::Lost);
            }
            let bw = match &self.faults {
                Some(fp) => fp
                    .link_profile(hop[0], hop[1])
                    .bandwidth_bps
                    .unwrap_or(default_bw),
                None => default_bw,
            };
            let eff_bw = ((bw as f64) * (1.0 - severity.clamp(0.0, 0.999))).max(1.0) as u64;
            let ser_us = ((msg.size_bytes as u128) * 1_000_000 / (eff_bw as u128)) as u64;
            arrive_us += hop_latency_us + jitter_us + ser_us;
        }
        let at = SimTime::from_micros(arrive_us);
        let key = crate::world_shard::delivery_key(origin, origin_seq);
        let ctx = self.shard_ctx.as_ref().expect("sharded send");
        let dest_shard = ctx.plan.owner(msg.to);
        if dest_shard == ctx.shard {
            eng.schedule_event(at, key, FluxEvent::Deliver { msg, route });
        } else {
            let wire = self
                .shard_ctx
                .as_mut()
                .expect("sharded send")
                .encode(&msg, &route, origin_seq);
            self.shard_ctx.as_mut().expect("sharded send").outbox.push(
                fluxpm_sim::sharded::Outbound {
                    at,
                    to_shard: dest_shard,
                    msg: wire,
                },
            );
        }
    }

    /// Start building an RPC to `to`. The requester defaults to the
    /// current [`World::root`] (the external-client vantage); modules
    /// must override it with [`RpcBuilder::from`]`(ctx.rank)`. Arm
    /// [`RpcBuilder::deadline`] and/or [`RpcBuilder::retry`] on paths
    /// that must survive failures, then launch with
    /// [`RpcBuilder::send`]. `topic` is a [`Topic`] handle (or a
    /// reference to one) for a module that calls this repeatedly; a
    /// string is interned on the spot.
    pub fn rpc(&mut self, to: Rank, topic: impl Into<Topic>, p: Payload) -> RpcBuilder<'_> {
        let from = self.root();
        RpcBuilder {
            world: self,
            from,
            to,
            topic: topic.into(),
            payload: p,
            deadline: None,
            retry: None,
        }
    }

    /// Plain RPC: register the matchtag and send the request.
    fn rpc_plain_inner(
        &mut self,
        eng: &mut FluxEngine,
        from: Rank,
        to: Rank,
        topic: Topic,
        p: Payload,
        callback: RpcCallback,
    ) {
        let mut msg = Message::request(from, to, topic, p);
        msg.matchtag = self.next_matchtag;
        self.next_matchtag += 1;
        self.pending_rpcs.insert(
            msg.matchtag,
            PendingRpc {
                from,
                callback,
                timeout: None,
            },
        );
        self.send(eng, msg);
    }

    /// Deadline RPC: if no response arrives within `deadline`, the
    /// matchtag is retired and the callback is invoked with a
    /// synthesized timeout error response ([`Message::is_timeout`]); a
    /// late real response is then dropped as an orphan, exactly as Flux
    /// drops unmatched matchtags.
    #[allow(clippy::too_many_arguments)]
    fn rpc_deadline_inner(
        &mut self,
        eng: &mut FluxEngine,
        from: Rank,
        to: Rank,
        topic: Topic,
        p: Payload,
        deadline: SimDuration,
        callback: RpcCallback,
    ) {
        let mut msg = Message::request(from, to, topic, p);
        msg.matchtag = self.next_matchtag;
        self.next_matchtag += 1;
        let tag = msg.matchtag;
        let ev = eng.schedule_event(
            eng.now() + deadline,
            0,
            FluxEvent::Deadline {
                topic: msg.topic.clone(),
                from,
                to,
                tag,
                deadline,
            },
        );
        self.pending_rpcs.insert(
            tag,
            PendingRpc {
                from,
                callback,
                timeout: Some(ev),
            },
        );
        self.send(eng, msg);
    }

    /// Respond to a request with a payload.
    pub fn respond(&mut self, eng: &mut FluxEngine, req: &Message, p: Payload) {
        let resp = Message::respond_to(req, p);
        self.send(eng, resp);
    }

    /// Respond to a request with an error.
    pub fn respond_error(&mut self, eng: &mut FluxEngine, req: &Message, error: impl Into<String>) {
        let resp = Message::respond_error(req, error);
        self.send(eng, resp);
    }

    /// Publish an event: delivered to every rank whose broker has a
    /// handler registered for the topic. The topic is interned once;
    /// each subscriber's copy shares it (and the payload).
    pub fn publish(
        &mut self,
        eng: &mut FluxEngine,
        from: Rank,
        topic: impl Into<Topic>,
        p: Payload,
    ) {
        let topic = topic.into();
        let subscribers: Vec<Rank> = self
            .tbon
            .ranks()
            .filter(|r| self.brokers[r.index()].route(&topic).is_some())
            .collect();
        // Sharded replicas only see their own subscribers (modules load
        // owner-only), and sends from unowned publishers are suppressed
        // — so pub/sub works exactly when every subscriber is co-sharded
        // with its publisher. The real power stack satisfies this (all
        // job-event subscribers are root services, sharing the root
        // shard); a local subscriber to a remote publisher would
        // silently miss events, so fail loudly instead.
        if self.shard_ctx.is_some() && !self.owns(from) && !subscribers.is_empty() {
            panic!(
                "sharded pub/sub requires subscribers co-sharded with the publisher: \
                 topic {topic} published from unowned {from} has local subscribers"
            );
        }
        for rank in subscribers {
            let msg = Message::event(from, rank, topic.clone(), std::rc::Rc::clone(&p));
            self.send(eng, msg);
        }
    }

    /// Number of RPCs awaiting responses (diagnostics).
    pub fn pending_rpc_count(&self) -> usize {
        self.pending_rpcs.len()
    }

    /// Enable deterministic chaos injection: every subsequent message
    /// crossing a TBON link is lost with probability `drop_prob` per hop
    /// and delayed by a uniform jitter of up to `jitter_max` per hop.
    /// The fault RNG is derived from the world seed, so identical runs
    /// stay byte-identical. For per-link profiles or burst loss, build a
    /// [`FaultPlan`] and call [`World::install_fault_plan`].
    pub fn inject_faults(&mut self, drop_prob: f64, jitter_max: SimDuration) {
        self.install_fault_plan(FaultPlan::uniform(drop_prob, jitter_max));
    }

    /// Arm a [`FaultPlan`], re-seeding its RNG from the world seed so
    /// the chaos replays byte-identically for the same world seed.
    pub fn install_fault_plan(&mut self, mut plan: FaultPlan) {
        assert!(
            self.shard_ctx.is_none() || plan.is_deterministic(),
            "sharded worlds require FaultPlan::deterministic"
        );
        plan.rng = self.rng.child(0xFA_017);
        // The loss tally is cumulative across plan swaps: lifting chaos
        // at the end of a storm (by installing a lossless plan) must not
        // erase the storm's count.
        plan.dropped += self.faults.as_ref().map_or(0, |f| f.dropped);
        self.faults = Some(plan);
    }

    /// Messages lost to installed [`FaultPlan`]s so far (cumulative
    /// across plan swaps).
    pub fn fault_drops(&self) -> u64 {
        self.faults.as_ref().map_or(0, |f| f.dropped)
    }

    /// Messages dropped for any reason (downed ranks + injected loss).
    pub fn dropped_message_count(&self) -> u64 {
        self.topic_stats.values().map(|s| s.drops).sum()
    }

    /// RPC deadlines that expired before a response arrived.
    pub fn rpc_timeout_count(&self) -> u64 {
        self.topic_stats.values().map(|s| s.timeouts).sum()
    }

    /// RPC attempts re-sent by the retry machinery.
    pub fn rpc_retry_count(&self) -> u64 {
        self.topic_stats.values().map(|s| s.retries).sum()
    }

    /// Snapshot of the per-topic timeout/retry/drop counters, keyed by
    /// topic in deterministic (sorted) order. Topics appear once they
    /// record their first incident.
    pub fn rpc_stats(&self) -> BTreeMap<Topic, TopicStats> {
        self.topic_stats.clone()
    }

    /// The route `msg` launches on, or `None` after dropping it: its
    /// origin is down, or one endpoint is detached from the overlay, so
    /// no route exists under the current epoch.
    fn launch_route(&mut self, now: SimTime, msg: &Message) -> Option<Rc<[Rank]>> {
        if !self.brokers[msg.from.index()].is_up() {
            self.drop_message(now, msg, DropCause::DownedOrigin);
            return None;
        }
        let route = self.tbon.route(msg.from, msg.to);
        if route.is_none() {
            let epoch = self.tbon.epoch();
            self.drop_message(now, msg, DropCause::NoRoute(epoch));
        }
        route
    }

    /// Count a dropped message against its topic and trace why.
    fn drop_message(&mut self, now: SimTime, msg: &Message, cause: DropCause) {
        self.topic_stats.entry(msg.topic.clone()).or_default().drops += 1;
        if !self.trace.accepts(TraceLevel::Warn) {
            return;
        }
        let Message {
            kind,
            from,
            to,
            topic,
            ..
        } = msg;
        let (subsystem, line) = match cause {
            DropCause::DownedOrigin => (
                "tbon",
                format!("drop from downed {from}: {kind:?} -> {to} topic {topic}"),
            ),
            DropCause::NoRoute(epoch) => (
                "tbon",
                format!("sever: no route {kind:?} {from} -> {to} topic {topic} (epoch {epoch})"),
            ),
            DropCause::Lost => (
                "fault",
                format!("lost {kind:?} {from} -> {to} topic {topic}"),
            ),
            DropCause::TailDrop(a, b) => (
                "link",
                format!(
                    "congested: tail-drop {kind:?} {from} -> {to} topic {topic} at link {a}-{b}"
                ),
            ),
            DropCause::DeadHop(dead) => (
                "tbon",
                format!("sever: {kind:?} {from} -> {to} topic {topic} dropped at {dead}"),
            ),
        };
        self.trace.emit(now, TraceLevel::Warn, subsystem, line);
    }

    // ------------------------------------------------------------------
    // Link queueing + health
    // ------------------------------------------------------------------

    /// One message crossing the undirected `a`–`b` tree edge at
    /// `arrive_us`: charge serialization against the link's (possibly
    /// congestion-scaled) bandwidth, queue behind messages still
    /// serializing, and tail-drop when the bounded FIFO is full.
    /// Returns the queueing + serialization microseconds, or `None` on
    /// tail-drop. All arithmetic is integer-µs, so delivery timing is
    /// exactly replayable.
    fn link_cross(
        &mut self,
        a: Rank,
        b: Rank,
        arrive_us: u64,
        size_bytes: u32,
        severity: f64,
    ) -> Option<u64> {
        // The edge is keyed by its child endpoint under the current tree.
        let child = if self.tbon.parent(a) == Some(b) { a } else { b };
        let parent = self.tbon.parent(child);
        let (bw, cap) = match &self.faults {
            Some(fp) => {
                let p = fp.link_profile(a, b);
                (
                    p.bandwidth_bps.unwrap_or(self.link_bandwidth_bps),
                    p.queue_capacity.unwrap_or(self.link_queue_capacity),
                )
            }
            None => (self.link_bandwidth_bps, self.link_queue_capacity),
        };
        let hot_delay_us = self.link_health.hot_delay_us;
        let lq = &mut self.links[child.index()];
        if lq.parent != parent {
            // The edge changed identity (re-parent, rebalance,
            // recovery): stale backlog describes a wire that no longer
            // exists.
            *lq = LinkQueue {
                parent,
                ..LinkQueue::default()
            };
        }
        while lq.departures.front().is_some_and(|&d| d <= arrive_us) {
            lq.departures.pop_front();
        }
        let depth = lq.departures.len() as u32;
        let eff_bw = ((bw as f64) * (1.0 - severity.clamp(0.0, 0.999))).max(1.0) as u64;
        let ser_us = ((size_bytes as u128) * 1_000_000 / (eff_bw as u128)) as u64;
        if ser_us == 0 {
            // Serialization below the integer-µs clock resolution: the
            // message never occupies the wire long enough to queue, so it
            // bypasses the FIFO. Crossings are computed at send time, so
            // per-hop jitter delivers them to this edge out of order — if
            // zero-cost crossings occupied slots, that reordering would
            // fabricate backlog on busy healthy links and trip the
            // degradation detector with no congestion anywhere.
            lq.delivered += 1;
            lq.ewma_delay_us += LINK_EWMA_ALPHA * (0.0 - lq.ewma_delay_us);
            lq.ewma_depth += LINK_EWMA_ALPHA * (f64::from(depth) - lq.ewma_depth);
            lq.win_crossings = lq.win_crossings.saturating_add(1);
            lq.win_max_depth = lq.win_max_depth.max(depth);
            return Some(0);
        }
        if depth >= cap {
            lq.congestion_drops += 1;
            return None;
        }
        let start_us = lq.departures.back().copied().unwrap_or(0).max(arrive_us);
        let link_us = (start_us - arrive_us) + ser_us;
        lq.departures.push_back(start_us + ser_us);
        lq.delivered += 1;
        lq.ewma_delay_us += LINK_EWMA_ALPHA * (link_us as f64 - lq.ewma_delay_us);
        lq.ewma_depth += LINK_EWMA_ALPHA * (f64::from(depth) - lq.ewma_depth);
        lq.win_crossings = lq.win_crossings.saturating_add(1);
        if link_us > hot_delay_us {
            lq.win_over = lq.win_over.saturating_add(1);
        }
        lq.win_max_depth = lq.win_max_depth.max(depth + 1);
        Some(link_us)
    }

    /// Messages tail-dropped by full link queues so far.
    pub fn congestion_drop_count(&self) -> u64 {
        self.congestion_drops
    }

    /// Congestion-triggered re-parents the link monitor has performed.
    pub fn congestion_reparent_count(&self) -> u64 {
        self.congestion_reparents
    }

    /// Per-link telemetry snapshot in child-rank order (deterministic).
    /// Only links that have carried or dropped traffic appear; `parent`
    /// reflects the edge the stats were accumulated against, which is
    /// the current topology unless the child re-parented since its last
    /// crossing.
    pub fn link_stats(&self) -> Vec<LinkStats> {
        (0..self.size())
            .filter_map(|r| {
                let lq = &self.links[r as usize];
                let parent = lq.parent?;
                if lq.delivered == 0 && lq.congestion_drops == 0 {
                    return None;
                }
                Some(LinkStats {
                    child: r,
                    parent: parent.0,
                    ewma_delay_us: lq.ewma_delay_us,
                    ewma_depth: lq.ewma_depth,
                    delivered: lq.delivered,
                    congestion_drops: lq.congestion_drops,
                    reparents: self.brokers[r as usize].uplink.reparents(),
                })
            })
            .collect()
    }

    /// Start the periodic uplink-health monitor: every `config.window`
    /// each live broker's [`crate::LinkDetector`] folds in its uplink's
    /// window counters, and a sustained-degraded verdict re-parents that
    /// broker's subtree away from the congested link (grandparent first,
    /// else the lowest-ranked live sibling) — the same epoch-bumping
    /// heal as death, but the congested rank keeps its children. The
    /// detector's cooldown provides the hysteresis: one sustained event
    /// re-parents a link at most once. Stops when the world halts.
    pub fn schedule_link_monitor(
        &mut self,
        eng: &mut FluxEngine,
        config: LinkHealthConfig,
    ) -> EventId {
        self.link_health = config;
        let window = config.window;
        eng.schedule_every(eng.now() + window, window, move |world: &mut World, eng| {
            if world.halted {
                return ControlFlow::Break(());
            }
            world.link_monitor_tick(eng);
            ControlFlow::Continue(())
        })
    }

    /// One monitor window: harvest every link's window counters (always,
    /// so stale windows never leak into later verdicts) and let each
    /// live, attached, non-root broker judge its uplink.
    fn link_monitor_tick(&mut self, eng: &mut FluxEngine) {
        let cfg = self.link_health;
        for r in 0..self.size() {
            let rank = Rank(r);
            let (crossings, over, max_depth, wire_parent) = {
                let lq = &mut self.links[r as usize];
                (
                    std::mem::take(&mut lq.win_crossings),
                    std::mem::take(&mut lq.win_over),
                    std::mem::take(&mut lq.win_max_depth),
                    lq.parent,
                )
            };
            if wire_parent.is_none()
                || wire_parent != self.tbon.parent(rank)
                || !self.tbon.is_attached(rank)
                || !self.brokers[r as usize].is_up()
            {
                continue;
            }
            let verdict = self.brokers[r as usize]
                .uplink
                .observe(&cfg, crossings, over, max_depth);
            if verdict == LinkVerdict::Degraded {
                self.route_around_congestion(eng, rank);
            }
        }
    }

    /// Re-parent `child`'s subtree away from its sustainedly congested
    /// uplink. Grandparent preferred (one level past the hot link); a
    /// live sibling otherwise; no-op when the topology offers no
    /// alternative (the detector will simply keep reporting).
    fn route_around_congestion(&mut self, eng: &mut FluxEngine, child: Rank) {
        let cfg = self.link_health;
        let Some(parent) = self.tbon.parent(child) else {
            return;
        };
        let target = self
            .tbon
            .parent(parent)
            .filter(|gp| self.brokers[gp.index()].is_up())
            .or_else(|| {
                self.tbon
                    .children(parent)
                    .into_iter()
                    .find(|&s| s != child && self.brokers[s.index()].is_up())
            });
        let Some(new_parent) = target else {
            return;
        };
        if self.tbon.reattach(child, new_parent) {
            self.congestion_reparents += 1;
            self.brokers[child.index()].uplink.note_reparent(&cfg);
            self.trace.emit(
                eng.now(),
                TraceLevel::Warn,
                "link",
                format!(
                    "congestion: re-parented {child} (subtree) from {parent} to {new_parent} (epoch {})",
                    self.tbon.epoch()
                ),
            );
            self.notify_topology_change(eng);
        }
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
        self.topology_watch_engaged = true;
    }

    /// Invoke [`Module::on_topology_change`] on every live, attached
    /// broker's modules after a topology-epoch bump. Iteration order is
    /// deterministic (rank order, then sorted module names) so sharded
    /// replicas — which only host modules on ranks they own — stay
    /// byte-identical regardless of partitioning. Free until the first
    /// [`World::engage_topology_watch`] call.
    fn notify_topology_change(&mut self, eng: &mut FluxEngine) {
        if !self.topology_watch_engaged {
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

    /// Whether a rank's broker is up.
    pub fn broker_up(&self, rank: Rank) -> bool {
        self.brokers[rank.index()].is_up()
    }

    // ------------------------------------------------------------------
    // Overhead accounting
    // ------------------------------------------------------------------

    /// Charge stolen host-CPU time to a node; the executor converts it
    /// into application slowdown on the next slice.
    pub fn charge_overhead(&mut self, node: NodeId, cpu_seconds: f64) {
        self.overhead[node.index()] += cpu_seconds.max(0.0);
    }

    /// Currently accumulated (undrained) overhead on a node.
    pub fn pending_overhead(&self, node: NodeId) -> f64 {
        self.overhead[node.index()]
    }

    // ------------------------------------------------------------------
    // Jobs
    // ------------------------------------------------------------------

    /// Submit a job; it starts immediately if nodes are free (FCFS).
    pub fn submit(
        &mut self,
        eng: &mut FluxEngine,
        spec: JobSpec,
        program: Box<dyn JobProgram>,
    ) -> JobId {
        assert!(
            spec.nnodes >= 1 && spec.nnodes <= self.size(),
            "job requests {} nodes on a {}-node cluster",
            spec.nnodes,
            self.size()
        );
        let id = self.jobs.add(spec, program, eng.now());
        self.trace
            .emit(eng.now(), TraceLevel::Info, "job", format!("submit {id:?}"));
        let root = self.root();
        if self.owns(root) {
            self.record(eng.now(), root.0, crate::shard::rec::JOB_EVENT, id.0, 0);
        }
        self.publish(eng, root, EVENT_JOB_SUBMIT, payload(id));
        self.try_schedule(eng);
        id
    }

    /// Start as many pending jobs as fit, in FCFS order (no backfill).
    fn try_schedule(&mut self, eng: &mut FluxEngine) {
        loop {
            let Some(head) = self.jobs.pending().next() else {
                break;
            };
            let nnodes = self.jobs.get(head).expect("pending job exists").spec.nnodes;
            let Some(alloc) = self.sched.allocate(nnodes) else {
                break;
            };
            let now = eng.now();
            {
                let job = self.jobs.get_mut(head).expect("job exists");
                job.state = JobState::Running;
                job.nodes = alloc.clone();
                job.started_at = Some(now);
                job.last_step = now;
            }
            // Give the program its start callback with a zero-length
            // slice so it can set initial demand.
            self.step_job(eng, head, now, 0.0, true);
            self.trace.emit(
                now,
                TraceLevel::Info,
                "job",
                format!("start {head:?} on {alloc:?}"),
            );
            let root = self.root();
            if self.owns(root) {
                self.record(now, root.0, crate::shard::rec::JOB_EVENT, head.0, 1);
            }
            self.publish(eng, root, EVENT_JOB_START, payload(head));
        }
    }

    /// Mutable references to a set of nodes, in the order given. The
    /// ids must be distinct (two `&mut` to one node cannot exist); an id
    /// past the cluster yields nothing. Costs O(k log k) in the size of
    /// the set, not a walk over the cluster.
    pub fn nodes_mut(&mut self, ids: &[NodeId]) -> Vec<&mut NodeHardware> {
        pick_nodes(&mut self.nodes, ids)
    }

    /// Run one program slice. `starting` selects `on_start` vs `step`.
    /// Returns the outcome for running jobs.
    fn step_job(
        &mut self,
        eng: &mut FluxEngine,
        id: JobId,
        now: SimTime,
        dt: f64,
        starting: bool,
    ) -> Option<StepOutcome> {
        // Take the program out to sidestep the aliasing between the job
        // table and the node array; the allocation is read in place.
        let mut program = self.jobs.take_program(id)?;
        let node_ids = &self.jobs.get(id).expect("program taken from it").nodes;
        let lost: Vec<f64> = node_ids
            .iter()
            .map(|n| std::mem::take(&mut self.overhead[n.index()]))
            .collect();
        let outcome = {
            let nodes = pick_nodes(&mut self.nodes, node_ids);
            let mut ctx = StepCtx {
                now,
                dt,
                nodes,
                lost_cpu_seconds: lost,
            };
            if starting {
                program.on_start(&mut ctx);
                StepOutcome::Running
            } else {
                program.step(&mut ctx)
            }
        };
        self.jobs.put_program(id, program, now);
        match &outcome {
            StepOutcome::Done { leftover_seconds } => {
                let end = SimTime::from_micros(
                    now.as_micros()
                        .saturating_sub((leftover_seconds.max(0.0) * 1e6) as u64),
                );
                self.complete_job(eng, id, end);
            }
            StepOutcome::Crashed { reason } => {
                self.trace.emit(
                    now,
                    TraceLevel::Warn,
                    "job",
                    format!("{id:?} crashed: {reason}"),
                );
                self.finish_job(eng, id, now, JobState::Failed);
            }
            StepOutcome::Running => {}
        }
        Some(outcome)
    }

    /// Transition a job to Completed, idle its nodes, release them, and
    /// publish the finish event.
    fn complete_job(&mut self, eng: &mut FluxEngine, id: JobId, end: SimTime) {
        self.finish_job(eng, id, end, JobState::Completed);
    }

    fn finish_job(&mut self, eng: &mut FluxEngine, id: JobId, end: SimTime, state: JobState) {
        self.finish_job_withholding(eng, id, end, state, &[]);
    }

    /// Finish a job, withholding a set of nodes (failed nodes must not
    /// return to the scheduler pool — a batch failure may take several
    /// of a job's nodes at once).
    fn finish_job_withholding(
        &mut self,
        eng: &mut FluxEngine,
        id: JobId,
        end: SimTime,
        state: JobState,
        withhold: &[NodeId],
    ) {
        let node_ids = {
            let job = self.jobs.get_mut(id).expect("finishing job exists");
            job.state = state;
            job.finished_at = Some(end);
            std::mem::take(&mut job.nodes)
        };
        for n in self.nodes_mut(&node_ids) {
            n.set_idle();
        }
        let releasable: Vec<NodeId> = node_ids
            .iter()
            .copied()
            .filter(|n| !withhold.contains(n))
            .collect();
        self.sched.release(&releasable);
        // Restore the allocation record for reporting.
        self.jobs.get_mut(id).expect("job exists").nodes = node_ids;
        let (word, topic) = if state == JobState::Completed {
            ("finish", EVENT_JOB_FINISH)
        } else {
            ("exception", EVENT_JOB_EXCEPTION)
        };
        self.trace
            .emit(eng.now(), TraceLevel::Info, "job", format!("{word} {id:?}"));
        let root = self.root();
        if self.owns(root) {
            let outcome = if state == JobState::Completed { 2 } else { 3 };
            self.record(
                eng.now(),
                root.0,
                crate::shard::rec::JOB_EVENT,
                id.0,
                outcome,
            );
        }
        self.publish(eng, root, topic, payload(id));
        self.try_schedule(eng);
    }

    /// Cancel a job. A pending job is simply marked failed; a running
    /// job is torn down and its nodes reclaimed. Returns false if the
    /// job does not exist or has already finished.
    pub fn cancel_job(&mut self, eng: &mut FluxEngine, id: JobId) -> bool {
        match self.jobs.get(id).map(|j| j.state) {
            Some(JobState::Pending) => {
                let job = self.jobs.get_mut(id).expect("job exists");
                job.state = JobState::Failed;
                job.finished_at = Some(eng.now());
                let root = self.root();
                self.publish(eng, root, EVENT_JOB_EXCEPTION, payload(id));
                self.try_schedule(eng);
                true
            }
            Some(JobState::Running) => {
                self.finish_job(eng, id, eng.now(), JobState::Failed);
                true
            }
            _ => false,
        }
    }

    /// Simulate a node failure: the broker goes down — it no longer
    /// originates, receives, or relays overlay traffic — its in-flight
    /// outbound RPCs are cancelled (their callbacks never fire), and any
    /// job running on the node fails. The node is withheld from the
    /// scheduler (it is not returned to the free pool) until
    /// [`World::recover_node`] brings it back.
    ///
    /// The overlay *heals* instead of partitioning: an interior rank's
    /// orphaned children re-attach to its parent
    /// ([`Tbon::detach`](crate::Tbon::detach)), and a dying root hands
    /// the root role to the lowest surviving rank
    /// ([`Tbon::promote_root`](crate::Tbon::promote_root)), migrating
    /// every [root-service](crate::Module::root_service) module — state
    /// and all — onto the successor. Messages already in flight keep the
    /// route they were launched on and are dropped if it transits the
    /// dead rank; messages sent afterwards use the healed topology.
    pub fn fail_node(&mut self, eng: &mut FluxEngine, node: NodeId) {
        self.fail_nodes(eng, &[node]);
    }

    /// Fail several nodes as one *overlapping* event — the storm case
    /// where multiple interior deaths land in the same tick, possibly
    /// including the node currently adopting another's orphans or the
    /// root itself mid-failover. Every member is taken down *before*
    /// any healing, so orphan re-parenting and the root election can
    /// never land on a rank that is dying in the same batch. Already
    /// -down members are skipped (failing a failed node is a no-op), so
    /// the batch converges to one consistent epoch regardless of
    /// ordering or overlap with an in-progress recovery.
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
                format!("{node:?} failed"),
            );
            self.brokers[node.index()].set_down();
            let names: Vec<&'static str> = self.brokers[node.index()].module_names();
            for name in names {
                self.brokers[node.index()].unregister(name);
            }
        }
        // Cancel the dead ranks' pending outbound RPCs so reductions
        // they were driving cannot complete from the grave. Tags are
        // sorted for deterministic processing (the map iterates in hash
        // order).
        for &node in &batch {
            let rank = Rank(node.0);
            let mut dead_tags: Vec<u64> = self
                .pending_rpcs
                .iter()
                .filter(|(_, p)| p.from == rank)
                .map(|(&tag, _)| tag)
                .collect();
            dead_tags.sort_unstable();
            for tag in &dead_tags {
                if let Some(pending) = self.pending_rpcs.remove(tag) {
                    if let Some(ev) = pending.timeout {
                        eng.cancel(ev);
                    }
                }
            }
            if !dead_tags.is_empty() {
                self.trace.emit(
                    eng.now(),
                    TraceLevel::Info,
                    "node",
                    format!("{rank}: cancelled {} pending rpc(s)", dead_tags.len()),
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
            if rank == self.tbon.root() {
                continue;
            }
            if self.tbon.is_attached(rank) {
                let orphans = self.tbon.detach(rank);
                if !orphans.is_empty() {
                    let parent = self
                        .tbon
                        .parent(orphans[0])
                        .expect("orphans were re-parented");
                    self.trace.emit(
                        eng.now(),
                        TraceLevel::Info,
                        "tbon",
                        format!(
                            "re-parented {} orphan(s) of {rank} under {parent} (epoch {})",
                            orphans.len(),
                            self.tbon.epoch()
                        ),
                    );
                }
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
            self.finish_job_withholding(eng, job, eng.now(), JobState::Failed, &batch);
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
            .attached_ranks()
            .into_iter()
            .find(|&r| r != old_root && self.brokers[r.index()].is_up());
        let Some(successor) = successor else {
            self.trace.emit(
                eng.now(),
                TraceLevel::Warn,
                "tbon",
                format!("{old_root} failed with no live successor; instance is dead"),
            );
            return;
        };
        self.tbon.promote_root(successor);
        self.trace.emit(
            eng.now(),
            TraceLevel::Warn,
            "tbon",
            format!(
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
                self.trace.emit(
                    eng.now(),
                    TraceLevel::Info,
                    "tbon",
                    format!("migrated {name} to {successor}"),
                );
                migrated.push(m);
            }
        }
        for m in migrated {
            let mut ctx = ModuleCtx {
                world: self,
                eng,
                rank: successor,
            };
            m.borrow_mut().on_migrate(&mut ctx);
        }
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
        let mut resurrected = false;
        if !self.tbon.is_attached(rank) && !self.brokers[cur_root.index()].is_up() {
            // The instance died entirely (the root failed with no live
            // successor, so it kept the root role while down). The
            // first rank to recover resurrects the instance as its new
            // root. The old root-service module instances died with the
            // instance; per-rank module factories reload below, and
            // registered root services are rebuilt afterwards and
            // replayed from the event log to their pre-crash state.
            resurrected = true;
            self.tbon.attach(rank, cur_root);
            self.tbon.promote_root(rank);
            self.trace.emit(
                eng.now(),
                TraceLevel::Warn,
                "tbon",
                format!(
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
                eng.now(),
                TraceLevel::Info,
                "tbon",
                format!(
                    "{node:?} recovered; {rank} rejoined under {parent} (epoch {})",
                    self.tbon.epoch()
                ),
            );
        } else {
            self.trace.emit(
                eng.now(),
                TraceLevel::Info,
                "tbon",
                format!("{node:?} recovered"),
            );
        }
        // Return the node to the free pool (it was withheld at failure)
        // unless something already holds it.
        if !self.sched.is_free(node) && self.jobs.job_on_node(node).is_none() {
            self.sched.release(&[node]);
        }
        // Reload per-rank modules with fresh state.
        let factories = std::mem::take(&mut self.module_factories);
        for f in &factories {
            self.load_module(eng, rank, f(rank));
        }
        self.module_factories = factories;
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
    /// ([`Tbon::rebalance`]; epoch-bumped, so route caches drop and new
    /// sends route against the re-balanced tree). Returns whether the
    /// topology changed. A balanced tree is left untouched — no epoch
    /// churn, no trace.
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
                format!(
                    "re-balanced: depth {before} -> {} over {} live rank(s) (epoch {})",
                    self.tbon.max_depth(),
                    self.tbon.attached_ranks().len(),
                    self.tbon.epoch()
                ),
            );
            self.notify_topology_change(eng);
        }
        changed
    }

    /// Cut this world's overlay into `shards` subtree shards (see
    /// [`crate::shard::ShardPlan`]): the partition the sharded runner
    /// uses to confine each subtree's events to one worker thread.
    pub fn shard_plan(&self, shards: usize) -> crate::shard::ShardPlan {
        crate::shard::ShardPlan::for_tbon(&self.tbon, shards)
    }

    /// Install a periodic post-churn re-balance pass (stops when the
    /// world halts). Each tick runs [`World::rebalance_tbon`], so a
    /// long fail/recover churn cannot permanently flatten the TBON into
    /// a leaf-heavy tree.
    pub fn schedule_rebalance(&mut self, eng: &mut FluxEngine, interval: SimDuration) {
        eng.schedule_every(
            eng.now() + interval,
            interval,
            move |world: &mut World, eng| {
                if world.halted {
                    return ControlFlow::Break(());
                }
                // Periodic pass: a balanced tree legitimately makes
                // this a no-op, so the result carries no signal here.
                let _changed = world.rebalance_tbon(eng);
                ControlFlow::Continue(())
            },
        );
    }

    /// Install the job executor (idempotent). Must be called once before
    /// `Engine::run`.
    pub fn install_executor(&mut self, eng: &mut FluxEngine) {
        if self.executor_installed {
            return;
        }
        self.executor_installed = true;
        self.last_exec = eng.now();
        let tick = self.exec_tick;
        eng.schedule_every(eng.now() + tick, tick, |world, eng| {
            world.executor_slice(eng)
        });
    }

    /// One executor slice: integrate energy, advance programs, handle
    /// completions, decide auto-halt.
    fn executor_slice(&mut self, eng: &mut FluxEngine) -> ControlFlow<()> {
        let now = eng.now();
        let dt = (now - self.last_exec).as_secs_f64();
        self.last_exec = now;

        // Integrate energy for the elapsed slice with the demand that was
        // in force during it (before programs update demand below).
        for node in &mut self.nodes {
            node.tick(dt);
        }

        // Advance every job that is running now: the ids are
        // snapshotted (into a buffer kept across slices), so a job that
        // a completion below starts is first stepped next slice.
        let mut running = std::mem::take(&mut self.slice_jobs);
        running.clear();
        running.extend(self.jobs.running());
        for &id in &running {
            self.step_job(eng, id, now, dt, false);
        }
        self.slice_jobs = running;

        // Drop overhead charged to idle nodes (nothing to slow down).
        for (i, oh) in self.overhead.iter_mut().enumerate() {
            if self.jobs.job_on_node(NodeId(i as u32)).is_none() {
                *oh = 0.0;
            }
        }

        if let Some(n) = self.autostop_after {
            if self.jobs.all().len() as u64 >= n && self.jobs.all_complete() {
                self.halted = true;
                self.trace
                    .emit(now, TraceLevel::Info, "exec", "halt: all jobs complete");
                return ControlFlow::Break(());
            }
        }
        ControlFlow::Continue(())
    }

    /// Instantaneous total cluster power draw.
    pub fn cluster_power(&mut self) -> Watts {
        let mut total = Watts::ZERO;
        for n in &mut self.nodes {
            total += n.draw().total();
        }
        total
    }
}

/// [`World::nodes_mut`] over the node array alone, so a caller can hold
/// other fields of the world while it has the references.
fn pick_nodes<'a>(nodes: &'a mut [NodeHardware], ids: &[NodeId]) -> Vec<&'a mut NodeHardware> {
    // Visit the wanted nodes in index order with one cursor over the
    // node array, dropping each reference into its caller's position.
    let mut by_index: Vec<(usize, usize)> = ids
        .iter()
        .enumerate()
        .map(|(pos, n)| (n.index(), pos))
        .collect();
    by_index.sort_unstable();
    debug_assert!(
        by_index.windows(2).all(|w| w[0].0 != w[1].0),
        "nodes_mut: duplicate node id in {ids:?}"
    );
    let mut picked: Vec<Option<&mut NodeHardware>> = Vec::new();
    picked.resize_with(ids.len(), || None);
    let mut rest = nodes.iter_mut();
    let mut next = 0;
    for (index, pos) in by_index {
        // `None`: a repeated id, already handed out.
        let Some(skip) = index.checked_sub(next) else {
            continue;
        };
        picked[pos] = rest.nth(skip);
        next = index + 1;
    }
    picked.into_iter().flatten().collect()
}

/// Deliver a message at its destination rank. `route` is the TBON route
/// the message was launched on (captured at send time — the overlay may
/// have healed since, but a packet in flight cannot switch wires). The
/// message arrives by value, out of the event that carried it, and is
/// lent to the handler; it is dropped — payload reference included —
/// when the handler returns.
fn deliver(world: &mut World, eng: &mut FluxEngine, msg: Message, route: &[Rank]) {
    // A downed rank neither receives nor relays: drop any message whose
    // route transits a dead broker (including the endpoints).
    if let Some(dead) = route
        .iter()
        .copied()
        .find(|r| !world.brokers[r.index()].is_up())
    {
        return world.drop_message(eng.now(), &msg, DropCause::DeadHop(dead));
    }
    if world.trace.accepts(TraceLevel::Debug) {
        world.trace.emit(
            eng.now(),
            TraceLevel::Debug,
            "tbon",
            format!(
                "deliver {} -> {} {:?} topic {}",
                msg.from, msg.to, msg.kind, msg.topic
            ),
        );
    }
    if msg.kind == MsgKind::Response {
        if let Some(pending) = world.pending_rpcs.remove(&msg.matchtag) {
            if let Some(ev) = pending.timeout {
                eng.cancel(ev);
            }
            (pending.callback)(world, eng, &msg);
            return;
        }
        // Orphan response (the requester gave up — its deadline expired
        // or its rank died): drop silently, as Flux does for unmatched
        // matchtags.
        return;
    }
    let Some(module) = world.brokers[msg.to.index()].route(&msg.topic) else {
        if msg.kind == MsgKind::Request {
            world.respond_error(eng, &msg, format!("unknown service {}", msg.topic));
        }
        return;
    };
    let rank = msg.to;
    let mut ctx = ModuleCtx { world, eng, rank };
    module.borrow_mut().handle(&mut ctx, &msg);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::payload;
    use crate::module::Module;
    use fluxpm_hw::{Lanes, PowerDemand};
    use std::cell::RefCell;
    use std::rc::Rc;

    /// A program that draws fixed power and finishes after `duration`
    /// seconds of progress.
    struct FixedApp {
        duration: f64,
        progress: f64,
        gpu_w: f64,
    }

    impl FixedApp {
        fn new(duration: f64, gpu_w: f64) -> FixedApp {
            FixedApp {
                duration,
                progress: 0.0,
                gpu_w,
            }
        }
        fn set_demand(&self, ctx: &mut StepCtx<'_>) {
            for node in &mut ctx.nodes {
                let arch = node.arch.clone();
                node.set_demand(PowerDemand {
                    cpu: Lanes::filled(Watts(120.0), arch.sockets),
                    memory: Watts(70.0),
                    gpu: Lanes::filled(Watts(self.gpu_w), arch.gpus),
                    other: arch.other,
                });
            }
        }
    }

    impl JobProgram for FixedApp {
        fn app_name(&self) -> &str {
            "fixed"
        }
        fn on_start(&mut self, ctx: &mut StepCtx<'_>) {
            self.set_demand(ctx);
        }
        fn step(&mut self, ctx: &mut StepCtx<'_>) -> StepOutcome {
            self.progress += ctx.dt;
            if self.progress >= self.duration {
                StepOutcome::Done {
                    leftover_seconds: self.progress - self.duration,
                }
            } else {
                self.set_demand(ctx);
                StepOutcome::Running
            }
        }
    }

    fn world(n: u32) -> (World, FluxEngine) {
        let mut w = World::new(MachineKind::Lassen, n, 7);
        w.autostop_after = Some(u64::MAX); // default: no autostop
        (w, Engine::new())
    }

    #[test]
    fn submit_runs_and_completes() {
        let (mut w, mut eng) = world(4);
        w.autostop_after = Some(1);
        w.install_executor(&mut eng);
        let id = w.submit(
            &mut eng,
            JobSpec::new("fixed", 2),
            Box::new(FixedApp::new(10.0, 200.0)),
        );
        eng.run(&mut w);
        let job = w.jobs.get(id).unwrap();
        assert_eq!(job.state, JobState::Completed);
        let rt = job.runtime_seconds().unwrap();
        assert!((rt - 10.0).abs() < 1e-6, "runtime {rt}");
        assert_eq!(w.sched.free_count(), 4, "nodes released");
        assert!(w.halted);
    }

    #[test]
    fn fcfs_queueing_orders_jobs() {
        let (mut w, mut eng) = world(4);
        w.autostop_after = Some(3);
        w.install_executor(&mut eng);
        let a = w.submit(
            &mut eng,
            JobSpec::new("a", 3),
            Box::new(FixedApp::new(5.0, 150.0)),
        );
        let b = w.submit(
            &mut eng,
            JobSpec::new("b", 3),
            Box::new(FixedApp::new(5.0, 150.0)),
        );
        let c = w.submit(
            &mut eng,
            JobSpec::new("c", 1),
            Box::new(FixedApp::new(5.0, 150.0)),
        );
        // c fits alongside a, but FCFS without backfill makes it wait
        // behind b.
        assert_eq!(w.jobs.get(a).unwrap().state, JobState::Running);
        assert_eq!(w.jobs.get(b).unwrap().state, JobState::Pending);
        assert_eq!(w.jobs.get(c).unwrap().state, JobState::Pending);
        eng.run(&mut w);
        let sa = w.jobs.get(a).unwrap().started_at.unwrap();
        let sb = w.jobs.get(b).unwrap().started_at.unwrap();
        let sc = w.jobs.get(c).unwrap().started_at.unwrap();
        assert!(sa < sb);
        // b and c start together once a's 3 nodes free up.
        assert_eq!(sb, sc);
        assert!(w.jobs.makespan_seconds().unwrap() >= 10.0);
    }

    #[test]
    fn energy_integrates_during_run() {
        let (mut w, mut eng) = world(2);
        w.autostop_after = Some(1);
        w.install_executor(&mut eng);
        w.submit(
            &mut eng,
            JobSpec::new("fixed", 1),
            Box::new(FixedApp::new(20.0, 250.0)),
        );
        eng.run(&mut w);
        // Node 0 ran a ~1280 W app for 20 s then idled; node 1 idled.
        let e0 = w.nodes[0].meter.total.get();
        let e1 = w.nodes[1].meter.total.get();
        assert!(e0 > e1, "busy node used more energy");
        assert!(e1 > 0.0, "idle node still draws idle power");
        let draw0 = 2.0 * 120.0 + 4.0 * 250.0 + 70.0 + 40.0;
        assert!((e0 - draw0 * 20.0).abs() / (draw0 * 20.0) < 0.05, "e0 {e0}");
    }

    #[test]
    fn overhead_slows_nothing_but_is_drained() {
        let (mut w, mut eng) = world(2);
        w.autostop_after = Some(1);
        w.install_executor(&mut eng);
        w.submit(
            &mut eng,
            JobSpec::new("fixed", 1),
            Box::new(FixedApp::new(3.0, 150.0)),
        );
        w.charge_overhead(NodeId(0), 0.5);
        assert_eq!(w.pending_overhead(NodeId(0)), 0.5);
        eng.run(&mut w);
        assert_eq!(w.pending_overhead(NodeId(0)), 0.0, "drained by executor");
    }

    /// Module that counts events and answers one RPC topic.
    struct Echo {
        seen_events: Rc<RefCell<Vec<String>>>,
    }

    impl Module for Echo {
        fn name(&self) -> &'static str {
            "echo"
        }
        fn topics(&self) -> Vec<Topic> {
            vec![
                "echo.ping".into(),
                EVENT_JOB_START.into(),
                EVENT_JOB_FINISH.into(),
            ]
        }
        fn load(&mut self, _ctx: &mut ModuleCtx<'_>) {}
        fn handle(&mut self, ctx: &mut ModuleCtx<'_>, msg: &Message) {
            match msg.kind {
                MsgKind::Request => {
                    let n = *msg.payload_as::<u32>().unwrap();
                    ctx.world.respond(ctx.eng, msg, payload(n + 1));
                }
                MsgKind::Event => {
                    self.seen_events.borrow_mut().push(msg.topic.to_string());
                }
                MsgKind::Response => {}
            }
        }
    }

    #[test]
    fn rpc_round_trip_with_latency() {
        let (mut w, mut eng) = world(4);
        let seen = Rc::new(RefCell::new(Vec::new()));
        let m = Rc::new(RefCell::new(Echo {
            seen_events: Rc::clone(&seen),
        }));
        w.load_module(&mut eng, Rank(3), m);
        let got = Rc::new(RefCell::new(None));
        let got2 = Rc::clone(&got);
        w.rpc(Rank(3), "echo.ping", payload(41u32))
            .send(&mut eng, move |_, eng, resp| {
                *got2.borrow_mut() = Some((*resp.payload_as::<u32>().unwrap(), eng.now()));
            });
        eng.run(&mut w);
        let (val, at) = got.borrow().unwrap();
        assert_eq!(val, 42);
        // Rank 0 -> 3 is 2 hops each way at 20 µs/hop.
        assert_eq!(at.as_micros(), 80);
        assert_eq!(w.pending_rpc_count(), 0);
    }

    #[test]
    fn unknown_service_yields_error_response() {
        let (mut w, mut eng) = world(2);
        let got = Rc::new(RefCell::new(None));
        let got2 = Rc::clone(&got);
        w.rpc(Rank(1), "nope.nothing", payload(()))
            .send(&mut eng, move |_, _, resp| {
                *got2.borrow_mut() = Some(resp.error.clone());
            });
        eng.run(&mut w);
        let err = got.borrow().clone().unwrap().unwrap();
        assert!(err.contains("unknown service"));
    }

    #[test]
    fn events_reach_subscribed_modules() {
        let (mut w, mut eng) = world(2);
        w.autostop_after = Some(1);
        let seen = Rc::new(RefCell::new(Vec::new()));
        let m = Rc::new(RefCell::new(Echo {
            seen_events: Rc::clone(&seen),
        }));
        w.load_module(&mut eng, Rank::ROOT, m);
        w.install_executor(&mut eng);
        w.submit(
            &mut eng,
            JobSpec::new("fixed", 1),
            Box::new(FixedApp::new(2.0, 150.0)),
        );
        eng.run(&mut w);
        let events = seen.borrow();
        assert!(events.contains(&EVENT_JOB_START.to_string()));
        assert!(events.contains(&EVENT_JOB_FINISH.to_string()));
    }

    #[test]
    fn duplicate_module_load_rejected() {
        let (mut w, mut eng) = world(1);
        let seen = Rc::new(RefCell::new(Vec::new()));
        let m1 = Rc::new(RefCell::new(Echo {
            seen_events: Rc::clone(&seen),
        }));
        let m2 = Rc::new(RefCell::new(Echo {
            seen_events: Rc::clone(&seen),
        }));
        assert!(w.load_module(&mut eng, Rank::ROOT, m1));
        assert!(!w.load_module(&mut eng, Rank::ROOT, m2));
    }

    #[test]
    #[should_panic(expected = "nodes on a")]
    fn oversized_job_rejected() {
        let (mut w, mut eng) = world(2);
        w.submit(
            &mut eng,
            JobSpec::new("big", 3),
            Box::new(FixedApp::new(1.0, 150.0)),
        );
    }

    #[test]
    fn job_runs_use_correct_node_count() {
        let (mut w, mut eng) = world(8);
        w.autostop_after = Some(2);
        w.install_executor(&mut eng);
        let a = w.submit(
            &mut eng,
            JobSpec::new("a", 6),
            Box::new(FixedApp::new(4.0, 150.0)),
        );
        let b = w.submit(
            &mut eng,
            JobSpec::new("b", 2),
            Box::new(FixedApp::new(4.0, 150.0)),
        );
        assert_eq!(w.jobs.get(a).unwrap().nodes.len(), 6);
        assert_eq!(w.jobs.get(b).unwrap().nodes.len(), 2);
        assert_eq!(w.jobs.get(b).unwrap().nodes, vec![NodeId(6), NodeId(7)]);
        eng.run(&mut w);
        assert!(w.jobs.all_complete());
    }

    #[test]
    fn cluster_power_sums_nodes() {
        let (mut w, _eng) = world(3);
        let total = w.cluster_power();
        assert!(
            total.approx_eq(Watts(1200.0), 1e-6),
            "3 idle Lassen nodes at 400 W"
        );
    }
}

#[cfg(test)]
mod failure_tests {
    use super::*;
    use crate::job::{JobProgram, JobSpec, StepCtx, StepOutcome};

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

    fn world(n: u32) -> (World, FluxEngine) {
        let mut w = World::new(MachineKind::Lassen, n, 7);
        w.autostop_after = Some(u64::MAX);
        (w, Engine::new())
    }

    #[test]
    fn cancel_pending_job_unblocks_queue() {
        let (mut w, mut eng) = world(2);
        w.autostop_after = Some(3);
        w.install_executor(&mut eng);
        let a = w.submit(
            &mut eng,
            JobSpec::new("a", 2),
            Box::new(Sleep {
                secs: 10.0,
                done: 0.0,
            }),
        );
        let b = w.submit(
            &mut eng,
            JobSpec::new("b", 2),
            Box::new(Sleep {
                secs: 5.0,
                done: 0.0,
            }),
        );
        let c = w.submit(
            &mut eng,
            JobSpec::new("c", 1),
            Box::new(Sleep {
                secs: 5.0,
                done: 0.0,
            }),
        );
        // Cancel b while it waits: c should start right after a.
        assert!(w.cancel_job(&mut eng, b));
        eng.run(&mut w);
        assert_eq!(w.jobs.get(a).unwrap().state, JobState::Completed);
        assert_eq!(w.jobs.get(b).unwrap().state, JobState::Failed);
        assert_eq!(w.jobs.get(c).unwrap().state, JobState::Completed);
        let sc = w.jobs.get(c).unwrap().started_at.unwrap();
        assert!(
            (sc.as_secs_f64() - 10.0).abs() < 1.5,
            "c starts after a: {sc}"
        );
    }

    #[test]
    fn cancel_running_job_frees_nodes() {
        let (mut w, mut eng) = world(2);
        w.autostop_after = Some(1);
        w.install_executor(&mut eng);
        let a = w.submit(
            &mut eng,
            JobSpec::new("a", 2),
            Box::new(Sleep {
                secs: 1e6,
                done: 0.0,
            }),
        );
        eng.schedule(SimTime::from_secs(5), move |w: &mut World, eng| {
            assert!(w.cancel_job(eng, a));
        });
        eng.run(&mut w);
        assert_eq!(w.jobs.get(a).unwrap().state, JobState::Failed);
        assert_eq!(w.sched.free_count(), 2);
        assert!(w.halted, "failed jobs count toward completion");
        // Double-cancel is a no-op.
        assert!(!w.cancel_job(&mut eng, a));
    }

    #[test]
    fn node_failure_kills_job_and_withholds_node() {
        let (mut w, mut eng) = world(3);
        w.autostop_after = Some(2);
        w.install_executor(&mut eng);
        let a = w.submit(
            &mut eng,
            JobSpec::new("a", 2),
            Box::new(Sleep {
                secs: 1e6,
                done: 0.0,
            }),
        );
        // A 2-node job queued behind it.
        let b = w.submit(
            &mut eng,
            JobSpec::new("b", 2),
            Box::new(Sleep {
                secs: 5.0,
                done: 0.0,
            }),
        );
        eng.schedule(SimTime::from_secs(3), |w: &mut World, eng| {
            w.fail_node(eng, NodeId(0));
        });
        eng.run(&mut w);
        assert_eq!(w.jobs.get(a).unwrap().state, JobState::Failed);
        assert_eq!(w.jobs.get(b).unwrap().state, JobState::Completed);
        // The failed node never returns to the pool: b ran on nodes 1-2.
        assert_eq!(w.jobs.get(b).unwrap().nodes, vec![NodeId(1), NodeId(2)]);
        assert!(!w.sched.is_free(NodeId(0)));
        // The downed broker routes nothing.
        assert!(w.brokers[0].module_names().is_empty());
    }

    /// A service that answers `slow.ping` after a configurable delay
    /// (the response is scheduled, not sent inline).
    struct SlowEcho {
        delay: SimDuration,
    }

    impl crate::module::Module for SlowEcho {
        fn name(&self) -> &'static str {
            "slow-echo"
        }
        fn topics(&self) -> Vec<Topic> {
            vec!["slow.ping".into()]
        }
        fn load(&mut self, _ctx: &mut ModuleCtx<'_>) {}
        fn handle(&mut self, ctx: &mut ModuleCtx<'_>, msg: &Message) {
            if msg.kind != MsgKind::Request {
                return;
            }
            let req = msg.clone();
            ctx.eng.schedule_in(self.delay, move |w: &mut World, eng| {
                w.respond(eng, &req, payload(99u32));
            });
        }
    }

    fn load_slow_echo(w: &mut World, eng: &mut FluxEngine, rank: Rank, delay: SimDuration) {
        let m = std::rc::Rc::new(std::cell::RefCell::new(SlowEcho { delay }));
        assert!(w.load_module(eng, rank, m));
    }

    #[test]
    fn a_message_in_flight_is_ninety_six_bytes() {
        // What one slot of the engine's typed slab holds, beside its
        // eight-byte header: a wider `Message` widens every delivery.
        assert_eq!(std::mem::size_of::<FluxEvent>(), 96);
    }

    #[test]
    fn rpc_deadline_times_out_and_orphans_late_response() {
        let (mut w, mut eng) = world(2);
        w.trace = fluxpm_sim::Trace::enabled(TraceLevel::Debug);
        load_slow_echo(&mut w, &mut eng, Rank(1), SimDuration::from_secs(2));
        let got = std::rc::Rc::new(std::cell::RefCell::new(None));
        let got2 = std::rc::Rc::clone(&got);
        w.rpc(Rank(1), "slow.ping", payload(()))
            .deadline(SimDuration::from_secs(1))
            .send(&mut eng, move |_, eng, resp| {
                *got2.borrow_mut() = Some((resp.is_timeout(), eng.now()));
            });
        eng.run(&mut w);
        let (timed_out, at) = got.borrow().unwrap();
        assert!(timed_out, "callback saw the synthesized timeout");
        assert_eq!(at, SimTime::from_secs(1), "fired exactly at the deadline");
        assert_eq!(w.rpc_timeout_count(), 1);
        assert_eq!(w.pending_rpc_count(), 0, "matchtag retired");
        // The real response arrived ~1 s later and was orphan-dropped
        // without re-invoking anything.
        assert!(
            eng.now() >= SimTime::from_secs(2),
            "late response delivered"
        );
    }

    #[test]
    fn timely_response_cancels_the_deadline() {
        let (mut w, mut eng) = world(2);
        load_slow_echo(&mut w, &mut eng, Rank(1), SimDuration::from_millis(10));
        let got = std::rc::Rc::new(std::cell::RefCell::new(None));
        let got2 = std::rc::Rc::clone(&got);
        w.rpc(Rank(1), "slow.ping", payload(()))
            .deadline(SimDuration::from_secs(1))
            .send(&mut eng, move |_, _, resp| {
                *got2.borrow_mut() = Some(*resp.payload_as::<u32>().unwrap());
            });
        eng.run(&mut w);
        assert_eq!(got.borrow().unwrap(), 99);
        assert_eq!(w.rpc_timeout_count(), 0, "deadline never fired");
        assert_eq!(w.pending_rpc_count(), 0);
    }

    #[test]
    fn failing_rank_cancels_its_pending_rpcs() {
        let (mut w, mut eng) = world(4);
        load_slow_echo(&mut w, &mut eng, Rank(3), SimDuration::from_secs(5));
        let fired = std::rc::Rc::new(std::cell::RefCell::new(false));
        let fired2 = std::rc::Rc::clone(&fired);
        // Rank 1 asks its child rank 3; rank 1 dies before any response
        // (or even its own deadline) can fire.
        w.rpc(Rank(3), "slow.ping", payload(()))
            .from(Rank(1))
            .deadline(SimDuration::from_secs(10))
            .send(&mut eng, move |_, _, _| {
                *fired2.borrow_mut() = true;
            });
        assert_eq!(w.pending_rpc_count(), 1);
        eng.schedule(SimTime::from_millis(1), |w: &mut World, eng| {
            w.fail_node(eng, NodeId(1));
        });
        eng.run(&mut w);
        assert!(!*fired.borrow(), "dead rank's callback never fires");
        assert_eq!(w.pending_rpc_count(), 0, "matchtag reclaimed at failure");
        assert_eq!(w.rpc_timeout_count(), 0, "deadline event was cancelled");
    }

    #[test]
    fn retry_exhausts_against_a_dead_rank() {
        let (mut w, mut eng) = world(2);
        w.fail_node(&mut eng, NodeId(1));
        let got = std::rc::Rc::new(std::cell::RefCell::new(None));
        let got2 = std::rc::Rc::clone(&got);
        let policy = RetryPolicy {
            max_attempts: 3,
            deadline: SimDuration::from_millis(100),
            backoff: SimDuration::from_millis(10),
            backoff_factor: 2,
        };
        w.rpc(Rank(1), "slow.ping", payload(())).retry(policy).send(
            &mut eng,
            move |_, eng, resp| {
                *got2.borrow_mut() = Some((resp.is_timeout(), eng.now()));
            },
        );
        eng.run(&mut w);
        let (timed_out, at) = got.borrow().unwrap();
        assert!(timed_out, "final attempt surfaced the timeout");
        // Three 100 ms deadlines plus two jittered backoffs. With a
        // 10 ms base and factor-2 cap of 40 ms, the first backoff is
        // uniform in [10, 30] ms and the second in [10, min(40, 3·d1)]
        // ms, so completion lands in [320, 370] ms.
        assert!(
            at >= SimTime::from_millis(320) && at <= SimTime::from_millis(370),
            "retry schedule out of the decorrelated-jitter envelope: {at:?}"
        );
        assert_eq!(w.rpc_retry_count(), 2, "two re-sends");
        assert_eq!(w.rpc_timeout_count(), 3, "every attempt timed out");
        assert_eq!(w.pending_rpc_count(), 0);
        // Same seed ⇒ byte-identical retry schedule on replay.
        let (mut w2, mut eng2) = world(2);
        w2.fail_node(&mut eng2, NodeId(1));
        let got_b = std::rc::Rc::new(std::cell::RefCell::new(None));
        let got_b2 = std::rc::Rc::clone(&got_b);
        w2.rpc(Rank(1), "slow.ping", payload(()))
            .retry(policy)
            .send(&mut eng2, move |_, eng, resp| {
                *got_b2.borrow_mut() = Some((resp.is_timeout(), eng.now()));
            });
        eng2.run(&mut w2);
        assert_eq!(got.borrow().unwrap(), got_b.borrow().unwrap());
    }

    #[test]
    fn retry_succeeds_once_the_responder_answers() {
        // First attempt outlives a 50 ms deadline (responder takes
        // 80 ms); the second attempt finds the same slow responder, but
        // the *first* request's response arrives during the second
        // attempt's window... so instead make the responder fast and the
        // deadline generous: a plain sanity check that attempt 1 wins.
        let (mut w, mut eng) = world(2);
        load_slow_echo(&mut w, &mut eng, Rank(1), SimDuration::from_millis(5));
        let got = std::rc::Rc::new(std::cell::RefCell::new(None));
        let got2 = std::rc::Rc::clone(&got);
        w.rpc(Rank(1), "slow.ping", payload(()))
            .retry(RetryPolicy::default())
            .send(&mut eng, move |_, _, resp| {
                *got2.borrow_mut() = Some(*resp.payload_as::<u32>().unwrap());
            });
        eng.run(&mut w);
        assert_eq!(got.borrow().unwrap(), 99);
        assert_eq!(w.rpc_retry_count(), 0, "no retry needed");
        assert_eq!(w.pending_rpc_count(), 0);
    }

    #[test]
    fn interior_failure_severs_the_subtree() {
        let (mut w, mut eng) = world(7);
        w.trace = fluxpm_sim::Trace::enabled(TraceLevel::Debug);
        load_slow_echo(&mut w, &mut eng, Rank(3), SimDuration::ZERO);
        // Root -> rank 3 transits rank 1. Kill rank 1 while the request
        // is in flight: the request is dropped at delivery time.
        let fired = std::rc::Rc::new(std::cell::RefCell::new(false));
        let fired2 = std::rc::Rc::clone(&fired);
        w.rpc(Rank(3), "slow.ping", payload(()))
            .send(&mut eng, move |_, _, _| {
                *fired2.borrow_mut() = true;
            });
        eng.schedule(SimTime::from_micros(10), |w: &mut World, eng| {
            w.fail_node(eng, NodeId(1));
        });
        eng.run(&mut w);
        assert!(!*fired.borrow(), "request never crossed the dead rank");
        assert_eq!(w.dropped_message_count(), 1);
        let severed = w
            .trace
            .for_subsystem("tbon")
            .filter(|e| e.message.starts_with("sever:"))
            .count();
        assert_eq!(severed, 1);
        // The orphaned matchtag leaks without a deadline — exactly why
        // fan-out paths attach `.deadline(..)` to their RPCs.
        assert_eq!(w.pending_rpc_count(), 1);
    }

    #[test]
    fn fault_injection_is_deterministic_and_drops_traffic() {
        let run = |seed: u64| {
            let mut w = World::new(MachineKind::Lassen, 7, seed);
            w.autostop_after = Some(u64::MAX);
            let mut eng = Engine::new();
            w.trace = fluxpm_sim::Trace::enabled(TraceLevel::Debug);
            w.inject_faults(0.4, SimDuration::from_micros(30));
            load_slow_echo(&mut w, &mut eng, Rank(3), SimDuration::ZERO);
            load_slow_echo(&mut w, &mut eng, Rank(6), SimDuration::ZERO);
            for _ in 0..20 {
                for to in [Rank(3), Rank(6)] {
                    w.rpc(to, "slow.ping", payload(()))
                        .deadline(SimDuration::from_millis(500))
                        .send(&mut eng, |_, _, _| {});
                }
            }
            eng.run(&mut w);
            let trace: Vec<String> = w.trace.entries().iter().map(|e| e.to_string()).collect();
            (
                trace,
                w.fault_drops(),
                w.rpc_timeout_count(),
                w.pending_rpc_count(),
            )
        };
        let (t1, drops1, timeouts1, pending1) = run(42);
        let (t2, drops2, timeouts2, pending2) = run(42);
        assert_eq!(t1, t2, "same seed replays byte-identically");
        assert_eq!(drops1, drops2);
        assert_eq!(timeouts1, timeouts2);
        assert!(drops1 > 0, "40% per-hop loss must drop something");
        assert!(timeouts1 > 0, "lost requests must surface as timeouts");
        assert_eq!(pending1, 0, "every matchtag resolved");
        assert_eq!(pending2, 0);
        // A different seed takes a different path.
        let (t3, ..) = run(43);
        assert_ne!(t1, t3, "different seed, different chaos");
    }

    #[test]
    fn failed_job_is_never_stepped_on_a_tick_boundary() {
        // The failure lands at exactly t = 3 s, the same instant as an
        // executor slice. Whichever runs first, the Failed job must not
        // be stepped again (its program is gone).
        let (mut w, mut eng) = world(3);
        w.autostop_after = Some(1);
        w.install_executor(&mut eng);
        let a = w.submit(
            &mut eng,
            JobSpec::new("a", 2),
            Box::new(Sleep {
                secs: 1e6,
                done: 0.0,
            }),
        );
        eng.schedule(SimTime::from_secs(3), |w: &mut World, eng| {
            w.fail_node(eng, NodeId(0));
        });
        eng.run(&mut w);
        let job = w.jobs.get(a).unwrap();
        assert_eq!(job.state, JobState::Failed);
        assert!(job.program.is_none(), "program dropped at failure");
        assert_eq!(job.finished_at, Some(SimTime::from_secs(3)));
        // last_step never advances past the failure instant.
        assert!(job.last_step <= SimTime::from_secs(3));
        assert!(w.halted, "failed job still counts toward completion");
    }

    #[test]
    fn interior_failure_heals_for_new_traffic() {
        // Kill rank 1 *before* sending: the topology re-parents rank 3
        // under the root, so a fresh request takes the healed route and
        // round-trips in 2 hops instead of being severed.
        let (mut w, mut eng) = world(7);
        load_slow_echo(&mut w, &mut eng, Rank(3), SimDuration::ZERO);
        w.fail_node(&mut eng, NodeId(1));
        assert_eq!(w.tbon.parent(Rank(3)), Some(Rank(0)));
        let got = std::rc::Rc::new(std::cell::RefCell::new(None));
        let got2 = std::rc::Rc::clone(&got);
        w.rpc(Rank(3), "slow.ping", payload(()))
            .send(&mut eng, move |_, eng, resp| {
                *got2.borrow_mut() = Some((*resp.payload_as::<u32>().unwrap(), eng.now()));
            });
        eng.run(&mut w);
        let (val, at) = got.borrow().unwrap();
        assert_eq!(val, 99);
        // 0 -> 3 is now a single hop each way at 20 µs/hop.
        assert_eq!(at.as_micros(), 40);
        assert_eq!(w.dropped_message_count(), 0, "nothing severed");
    }

    #[test]
    fn recover_node_rejoins_reloads_and_answers() {
        let (mut w, mut eng) = world(4);
        w.register_module_factory(|_rank| -> SharedModule {
            std::rc::Rc::new(std::cell::RefCell::new(SlowEcho {
                delay: SimDuration::ZERO,
            }))
        });
        w.fail_node(&mut eng, NodeId(1));
        assert!(!w.broker_up(Rank(1)));
        assert!(!w.tbon.is_attached(Rank(1)));
        assert!(!w.sched.is_free(NodeId(1)), "failed node withheld");
        let epoch = w.tbon.epoch();

        assert!(w.recover_node(&mut eng, NodeId(1)));
        assert!(w.broker_up(Rank(1)));
        assert!(w.tbon.is_attached(Rank(1)));
        assert_eq!(w.tbon.parent(Rank(1)), Some(Rank(0)));
        assert!(w.sched.is_free(NodeId(1)), "node back in the pool");
        assert!(w.tbon.epoch() > epoch);
        assert_eq!(w.brokers[1].module_names(), vec!["slow-echo"]);
        // And the reloaded module answers again.
        let got = std::rc::Rc::new(std::cell::RefCell::new(None));
        let got2 = std::rc::Rc::clone(&got);
        w.rpc(Rank(1), "slow.ping", payload(()))
            .send(&mut eng, move |_, _, resp| {
                *got2.borrow_mut() = Some(*resp.payload_as::<u32>().unwrap());
            });
        eng.run(&mut w);
        assert_eq!(got.borrow().unwrap(), 99);
        // Recovering an up node is a no-op.
        assert!(!w.recover_node(&mut eng, NodeId(1)));
    }

    /// A root service with observable state: counts its migrations and
    /// answers `root.count` with a constant.
    struct RootCounter {
        migrations: std::rc::Rc<std::cell::RefCell<u32>>,
    }

    impl crate::module::Module for RootCounter {
        fn name(&self) -> &'static str {
            "root-counter"
        }
        fn topics(&self) -> Vec<Topic> {
            vec!["root.count".into()]
        }
        fn load(&mut self, _ctx: &mut ModuleCtx<'_>) {}
        fn handle(&mut self, ctx: &mut ModuleCtx<'_>, msg: &Message) {
            if msg.kind == MsgKind::Request {
                ctx.world.respond(ctx.eng, msg, payload(7u32));
            }
        }
        fn root_service(&self) -> bool {
            true
        }
        fn on_migrate(&mut self, _ctx: &mut ModuleCtx<'_>) {
            *self.migrations.borrow_mut() += 1;
        }
    }

    #[test]
    fn root_failure_promotes_successor_and_migrates_services() {
        let (mut w, mut eng) = world(7);
        let migrations = std::rc::Rc::new(std::cell::RefCell::new(0u32));
        let m = std::rc::Rc::new(std::cell::RefCell::new(RootCounter {
            migrations: std::rc::Rc::clone(&migrations),
        }));
        assert!(w.load_module(&mut eng, Rank::ROOT, m));

        w.fail_node(&mut eng, NodeId(0));
        assert_eq!(w.root(), Rank(1), "lowest live rank elected");
        assert_eq!(*migrations.borrow(), 1);
        assert!(w.brokers[1].module("root-counter").is_some());
        assert!(w.brokers[0].module_names().is_empty());
        assert!(
            w.tbon.route(Rank(1), Rank(0)).is_none(),
            "old root detached"
        );

        // Clients addressing the *current* root (the builder's default
        // origin) still reach the migrated service.
        let got = std::rc::Rc::new(std::cell::RefCell::new(None));
        let got2 = std::rc::Rc::clone(&got);
        let root = w.root();
        w.rpc(root, "root.count", payload(()))
            .send(&mut eng, move |_, _, resp| {
                *got2.borrow_mut() = Some(*resp.payload_as::<u32>().unwrap());
            });
        eng.run(&mut w);
        assert_eq!(got.borrow().unwrap(), 7);

        // A recovered ex-root rejoins as a plain leaf; the promoted
        // root keeps the role and the service.
        assert!(w.recover_node(&mut eng, NodeId(0)));
        assert_eq!(w.root(), Rank(1));
        assert_eq!(w.tbon.parent(Rank(0)), Some(Rank(1)));
        assert!(w.brokers[0].module("root-counter").is_none());
    }

    #[test]
    fn rpc_stats_track_per_topic_counters() {
        let (mut w, mut eng) = world(2);
        w.fail_node(&mut eng, NodeId(1));
        let policy = RetryPolicy {
            max_attempts: 2,
            deadline: SimDuration::from_millis(50),
            backoff: SimDuration::from_millis(10),
            backoff_factor: 2,
        };
        w.rpc(Rank(1), "stats.ping", payload(()))
            .retry(policy)
            .send(&mut eng, |_, _, _| {});
        eng.run(&mut w);
        let stats = w.rpc_stats();
        let s = stats.get("stats.ping").expect("topic recorded");
        assert_eq!(s.timeouts, 2, "both attempts timed out");
        assert_eq!(s.retries, 1, "one re-send");
        assert_eq!(s.drops, 2, "both requests had no route");
        assert_eq!(w.rpc_timeout_count(), 2, "aggregates stay consistent");
    }

    /// Every attached rank must reach the root through attached, live
    /// parents within `size` hops (reachable + acyclic).
    fn assert_converged(w: &World) {
        let root = w.tbon.root();
        assert!(w.tbon.is_attached(root), "root attached");
        assert!(w.broker_up(root), "root alive");
        let size = w.tbon.ranks().count();
        for r in w.tbon.attached_ranks() {
            assert!(w.broker_up(r), "{r} attached but down");
            assert!(w.tbon.route(r, root).is_some(), "{r} unroutable");
            let mut probe = r;
            let mut hops = 0;
            while probe != root {
                probe = w.tbon.parent(probe).expect("attached rank has a parent");
                assert!(w.tbon.is_attached(probe), "parent of {r} detached");
                hops += 1;
                assert!(hops <= size, "cycle walking up from {r}");
            }
        }
    }

    #[test]
    fn overlapping_interior_failures_converge_in_one_batch() {
        // Ranks 1 and 3 die in the same tick. 3 is 1's child: detaching
        // 1 re-parents 3 under the root *while 3 is itself dying* — the
        // adopting-node-death overlap. The batch must still converge.
        let (mut w, mut eng) = world(15);
        w.fail_nodes(&mut eng, &[NodeId(1), NodeId(3)]);
        assert!(!w.tbon.is_attached(Rank(1)));
        assert!(!w.tbon.is_attached(Rank(3)));
        // 1's surviving orphan and 3's orphans all land under the root.
        assert_eq!(w.tbon.parent(Rank(4)), Some(Rank(0)));
        assert_eq!(w.tbon.parent(Rank(7)), Some(Rank(0)));
        assert_eq!(w.tbon.parent(Rank(8)), Some(Rank(0)));
        assert_converged(&w);
        assert_eq!(w.tbon.attached_ranks().len(), 13);
        // Re-running the same batch is a no-op (all members down).
        let epoch = w.tbon.epoch();
        w.fail_nodes(&mut eng, &[NodeId(1), NodeId(3)]);
        assert_eq!(w.tbon.epoch(), epoch, "failing failed nodes is a no-op");
    }

    #[test]
    fn batch_with_dying_root_elects_a_surviving_rank() {
        // Root and its would-be successor die together: the election
        // must skip every batch member and land on rank 2.
        let (mut w, mut eng) = world(7);
        let migrations = std::rc::Rc::new(std::cell::RefCell::new(0u32));
        let m = std::rc::Rc::new(std::cell::RefCell::new(RootCounter {
            migrations: std::rc::Rc::clone(&migrations),
        }));
        assert!(w.load_module(&mut eng, Rank::ROOT, m));
        w.fail_nodes(&mut eng, &[NodeId(0), NodeId(1)]);
        assert_eq!(w.root(), Rank(2), "election skips dying batch members");
        assert_eq!(*migrations.borrow(), 1);
        assert!(w.brokers[2].module("root-counter").is_some());
        assert_converged(&w);
        assert_eq!(w.tbon.attached_ranks().len(), 5);
    }

    #[test]
    fn failure_during_active_recovery_converges() {
        // Rank 1 recovers (freshly re-attached as a leaf) and the root
        // dies in the same tick: the election sees the recovered rank
        // and promotes it.
        let (mut w, mut eng) = world(7);
        w.fail_node(&mut eng, NodeId(1));
        assert!(w.recover_node(&mut eng, NodeId(1)));
        w.fail_nodes(&mut eng, &[NodeId(0)]);
        assert_eq!(w.root(), Rank(1), "mid-recovery rank is electable");
        assert!(!w.tbon.is_attached(Rank(0)));
        assert_converged(&w);
    }

    #[test]
    fn batch_failure_resolves_or_cancels_every_matchtag() {
        let (mut w, mut eng) = world(7);
        load_slow_echo(&mut w, &mut eng, Rank(3), SimDuration::from_secs(2));
        // An RPC *from* rank 1 (which dies) — cancelled with it — and a
        // deadline RPC from the root to dying rank 3 — surfaces as a
        // timeout.
        w.rpc(Rank(3), "slow.ping", payload(()))
            .from(Rank(1))
            .send(&mut eng, |_, _, _| panic!("cancelled rpc must not fire"));
        w.rpc(Rank(3), "slow.ping", payload(()))
            .deadline(SimDuration::from_secs(1))
            .send(&mut eng, |_, _, _| {});
        eng.schedule(SimTime::from_micros(100), |w: &mut World, eng| {
            w.fail_nodes(eng, &[NodeId(1), NodeId(3)]);
        });
        eng.run(&mut w);
        assert_eq!(w.pending_rpc_count(), 0, "no leaked matchtags");
        assert_eq!(w.rpc_timeout_count(), 1, "root's deadline RPC timed out");
    }

    #[test]
    fn dead_instance_resurrects_with_first_recovered_rank_as_root() {
        let (mut w, mut eng) = world(3);
        w.trace = fluxpm_sim::Trace::enabled(TraceLevel::Debug);
        w.fail_nodes(&mut eng, &[NodeId(0), NodeId(1), NodeId(2)]);
        let all: String = w.trace.entries().iter().map(|e| format!("{e}\n")).collect();
        assert!(
            all.contains("failed with no live successor"),
            "instance death traced"
        );
        // First recovery resurrects the instance with that rank as root.
        assert!(w.recover_node(&mut eng, NodeId(2)));
        assert_eq!(w.root(), Rank(2));
        assert!(!w.tbon.is_attached(Rank(0)), "dead ex-root displaced");
        let all: String = w.trace.entries().iter().map(|e| format!("{e}\n")).collect();
        assert!(all.contains("instance resurrected with rank2 as root"));
        // Later recoveries rejoin under the resurrected root.
        assert!(w.recover_node(&mut eng, NodeId(1)));
        assert_eq!(w.tbon.parent(Rank(1)), Some(Rank(2)));
        assert!(w.recover_node(&mut eng, NodeId(0)));
        assert_eq!(w.root(), Rank(2), "ex-root rejoins as a leaf");
        assert_converged(&w);
    }

    #[test]
    fn world_rebalance_restores_depth_and_bumps_epoch_once() {
        // Kill everything except the 0-1-3-7 spine of a 15-rank binary
        // tree: 4 live ranks, but rank 7 still sits at depth 3 where a
        // fresh 4-rank tree is depth 2 — the bounded-depth invariant is
        // violated until a re-balance pass runs.
        let (mut w, mut eng) = world(15);
        let dead: Vec<NodeId> = [2u32, 4, 5, 6, 8, 9, 10, 11, 12, 13, 14]
            .into_iter()
            .map(NodeId)
            .collect();
        w.fail_nodes(&mut eng, &dead);
        assert_eq!(w.tbon.attached_ranks().len(), 4);
        assert_eq!(w.tbon.max_depth(), 3, "spine survives at full depth");
        assert!(!w.tbon.is_balanced());

        let epoch = w.tbon.epoch();
        assert!(w.rebalance_tbon(&mut eng));
        assert_eq!(w.tbon.epoch(), epoch + 1, "re-balance bumps the epoch");
        assert_eq!(w.tbon.max_depth(), Tbon::ideal_depth(4, 2));
        assert!(w.tbon.is_balanced());
        assert_converged(&w);
        // Steady state: a second pass must not churn the epoch.
        assert!(!w.rebalance_tbon(&mut eng), "balanced tree untouched");
        assert_eq!(w.tbon.epoch(), epoch + 1);
    }

    #[test]
    fn per_link_profile_overrides_the_default() {
        let (mut w, mut eng) = world(3);
        // Only the 0-1 link is lossy (always drops); 0-2 is clean.
        w.install_fault_plan(FaultPlan::uniform(0.0, SimDuration::ZERO).with_link(
            Rank(0),
            Rank(1),
            LinkProfile::uniform(1.0, SimDuration::ZERO),
        ));
        load_slow_echo(&mut w, &mut eng, Rank(1), SimDuration::ZERO);
        load_slow_echo(&mut w, &mut eng, Rank(2), SimDuration::ZERO);
        let got = std::rc::Rc::new(std::cell::RefCell::new(0u32));
        let got2 = std::rc::Rc::clone(&got);
        w.rpc(Rank(1), "slow.ping", payload(()))
            .deadline(SimDuration::from_secs(1))
            .send(&mut eng, |_, _, resp| {
                assert!(resp.is_timeout(), "lossy link must eat the request");
            });
        w.rpc(Rank(2), "slow.ping", payload(()))
            .deadline(SimDuration::from_secs(1))
            .send(&mut eng, move |_, _, resp| {
                *got2.borrow_mut() = *resp.payload_as::<u32>().unwrap();
            });
        eng.run(&mut w);
        assert_eq!(*got.borrow(), 99, "clean link delivers");
        assert_eq!(w.fault_drops(), 1, "exactly the 0-1 request lost");
    }

    #[test]
    fn burst_loss_is_correlated_and_deterministic() {
        // Drive N crossings of one link through (a) a uniform channel
        // and (b) a Gilbert–Elliott channel with the same long-run loss
        // rate. The burst channel must produce much longer consecutive
        // -drop runs at a comparable total loss.
        let ge = GilbertElliott {
            p_good_to_bad: 0.02,
            p_bad_to_good: 0.25,
            good_drop_prob: 0.0,
            bad_drop_prob: 1.0,
        };
        let rate = ge.stationary_loss();
        assert!((rate - 0.02 / 0.27).abs() < 1e-12);

        let run = |burst: bool, seed: u64| -> Vec<bool> {
            let mut plan = if burst {
                FaultPlan::uniform(0.0, SimDuration::ZERO).with_burst(ge)
            } else {
                FaultPlan::uniform(rate, SimDuration::ZERO)
            };
            plan.rng = Xoshiro256pp::seed_from_u64(seed);
            (0..4000)
                .map(|_| plan.traverse(Rank(0), Rank(1), 0).0)
                .collect()
        };
        let longest = |drops: &[bool]| {
            let (mut best, mut cur) = (0usize, 0usize);
            for &d in drops {
                cur = if d { cur + 1 } else { 0 };
                best = best.max(cur);
            }
            best
        };

        let uni = run(false, 42);
        let ge_drops = run(true, 42);
        assert_eq!(uni, run(false, 42), "uniform channel replays");
        assert_eq!(ge_drops, run(true, 42), "burst channel replays");
        assert_ne!(ge_drops, run(true, 43), "different seed, different chaos");

        let (uni_total, ge_total) = (
            uni.iter().filter(|&&d| d).count(),
            ge_drops.iter().filter(|&&d| d).count(),
        );
        assert!(uni_total > 100, "uniform lost {uni_total}");
        assert!(ge_total > 100, "burst lost {ge_total}");
        let (uni_run, ge_run) = (longest(&uni), longest(&ge_drops));
        // Expected longest runs: ~3-4 for the memoryless channel, ~16
        // for the burst channel (geometric bad-state dwell of mean 4
        // over ~80 episodes). Assert with wide margins.
        assert!(uni_run <= 5, "uniform longest run {uni_run}");
        assert!(
            ge_run >= 6 && ge_run > uni_run,
            "burst runs ({ge_run}) must dwarf uniform runs ({uni_run})"
        );
    }

    #[test]
    fn congestion_slows_delivery_and_replays_byte_identically() {
        let run = || {
            let (mut w, mut eng) = world(2);
            load_slow_echo(&mut w, &mut eng, Rank(1), SimDuration::ZERO);
            // 1 KiB at 10 GB/s serializes sub-µs; at severity 0.999 the
            // effective 10 MB/s link takes ~102 µs per crossing.
            w.install_fault_plan(FaultPlan::uniform(0.0, SimDuration::ZERO).with_congestion(
                Rank(0),
                Rank(1),
                SimTime::ZERO..SimTime::from_secs(10),
                0.999,
            ));
            let got = std::rc::Rc::new(std::cell::RefCell::new(None));
            let got2 = std::rc::Rc::clone(&got);
            w.rpc(Rank(1), "slow.ping", payload(()))
                .send(&mut eng, move |_, eng, resp| {
                    *got2.borrow_mut() = Some((resp.is_ok(), eng.now()));
                });
            eng.run(&mut w);
            let out = got.borrow().unwrap();
            out
        };
        let (ok, at) = run();
        assert!(ok, "congestion slows traffic, it does not lose it");
        // Clean round trip is 2 × 20 µs; congested adds ~102 µs/crossing.
        assert!(
            at > SimTime::from_micros(200),
            "congested link must be slow: {at:?}"
        );
        assert_eq!(run(), (ok, at), "same seed replays byte-identically");
    }

    #[test]
    fn congested_queue_tail_drops_and_surfaces_in_link_stats() {
        let (mut w, mut eng) = world(2);
        w.install_fault_plan(
            FaultPlan::uniform(0.0, SimDuration::ZERO)
                .with_link(
                    Rank(0),
                    Rank(1),
                    LinkProfile::lossless().with_queue_capacity(2),
                )
                .with_congestion(
                    Rank(0),
                    Rank(1),
                    SimTime::ZERO..SimTime::from_secs(1),
                    0.999,
                ),
        );
        // A same-instant burst of 8: two fit the bounded FIFO, the rest
        // tail-drop — slow-but-alive, not lossy, until the queue fills.
        for _ in 0..8 {
            let m = Message::event(Rank(0), Rank(1), "e.burst", payload(()));
            w.send(&mut eng, m);
        }
        eng.run(&mut w);
        assert_eq!(w.congestion_drop_count(), 6);
        let stats = w.link_stats();
        assert_eq!(stats.len(), 1);
        let ls = stats[0];
        assert_eq!((ls.child, ls.parent), (1, 0));
        assert_eq!(ls.delivered, 2);
        assert_eq!(ls.congestion_drops, 6);
        assert!(ls.ewma_delay_us > 0.0, "queueing delay visible in EWMA");
        assert_eq!(
            w.dropped_message_count(),
            6,
            "congestion drops count as drops"
        );
        assert_eq!(w.fault_drops(), 0, "but not as fault-plan losses");
    }

    #[test]
    fn link_monitor_reparents_sustained_congestion_exactly_once() {
        let (mut w, mut eng) = world(7);
        w.trace = fluxpm_sim::Trace::enabled(TraceLevel::Warn);
        // Congest rank 3's uplink (the 1–3 edge) hard for 5 s.
        w.install_fault_plan(FaultPlan::uniform(0.0, SimDuration::ZERO).with_congestion(
            Rank(1),
            Rank(3),
            SimTime::ZERO..SimTime::from_secs(5),
            0.999,
        ));
        let cfg = LinkHealthConfig {
            window: SimDuration::from_millis(100),
            hot_delay_us: 50,
            min_crossings: 2,
            trigger_windows: 3,
            cooldown_windows: 5,
            ..LinkHealthConfig::default()
        };
        w.schedule_link_monitor(&mut eng, cfg);
        // Steady telemetry from rank 3 toward the root for 3 s.
        eng.schedule_every(
            SimTime::ZERO,
            SimDuration::from_millis(10),
            |w: &mut World, eng| {
                if eng.now() >= SimTime::from_secs(3) {
                    return ControlFlow::Break(());
                }
                let m = Message::event(Rank(3), Rank(0), "e.tick", payload(()));
                w.send(eng, m);
                ControlFlow::Continue(())
            },
        );
        eng.schedule(SimTime::from_secs(4), |w: &mut World, _| w.halted = true);
        eng.run(&mut w);
        assert_eq!(
            w.congestion_reparent_count(),
            1,
            "one sustained event, one re-parent — no epoch thrash"
        );
        assert_eq!(
            w.tbon.parent(Rank(3)),
            Some(Rank(0)),
            "re-parented to the grandparent, past the hot link"
        );
        let reparent_lines = w
            .trace
            .for_subsystem("link")
            .filter(|e| e.message.starts_with("congestion: re-parented rank3"))
            .count();
        assert_eq!(reparent_lines, 1);
        // The re-routed uplink carries traffic and reports healthy stats.
        let uplink = w
            .link_stats()
            .into_iter()
            .find(|l| l.child == 3)
            .expect("rank 3's uplink saw traffic");
        assert_eq!(uplink.parent, 0, "stats follow the new wire");
        assert_eq!(uplink.reparents, 1);
        assert!(
            uplink.ewma_delay_us < 50.0,
            "recovered route is fast again: {}",
            uplink.ewma_delay_us
        );
    }
}
