//! The fault layer: seeded loss, jitter, burst channels and congestion
//! windows over TBON links. [`FaultPlan`] owns every draw; the send
//! paths ask it, once per hop, what the crossing suffers.

use super::World;
use crate::tbon::{IntMap, Rank};
use fluxpm_sim::{SimDuration, SimTime, Xoshiro256pp};

/// Loss and jitter shaping for one (undirected) TBON link.
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
}

impl LinkProfile {
    /// Uniform (memoryless) loss + jitter — the pre-storm global model.
    pub fn uniform(drop_prob: f64, jitter_max: SimDuration) -> LinkProfile {
        LinkProfile {
            drop_prob,
            jitter_max_us: jitter_max.as_micros(),
            burst: None,
        }
    }

    /// Govern this link with a [`GilbertElliott`] burst channel.
    pub fn with_burst(mut self, burst: GilbertElliott) -> LinkProfile {
        self.burst = Some(burst);
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
    /// The long-run stationary loss rate of this channel (the oracle a
    /// failure test holds the sampled loss to).
    #[cfg(test)]
    pub(crate) fn stationary_loss(&self) -> f64 {
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
/// seed).
#[derive(Debug)]
pub struct FaultPlan {
    /// Profile applied to links without a per-link override.
    pub default_link: LinkProfile,
    /// Per-link overrides, keyed by the normalized (lo, hi) rank pair.
    per_link: IntMap<(u32, u32), LinkProfile>,
    /// Seeded congestion windows per link, in insertion order.
    congestion: IntMap<(u32, u32), Vec<CongestionEvent>>,
    /// Current state of each two-state chain stepped from the RNG
    /// stream, keyed by `(link, chain)`: chain 0 is the link's
    /// [`GilbertElliott`] loss channel (`true` = bad), `1 + i` is
    /// congestion event `i`'s [`CongestionBurst`] (`true` = congested).
    /// Lazily created; only read per key, never iterated, so the map's
    /// order cannot perturb determinism.
    chains: IntMap<((u32, u32), u32), bool>,
    pub(super) rng: Xoshiro256pp,
    dropped: u64,
    /// When set, the plan runs in *deterministic* (partition-invariant)
    /// mode: loss, jitter, and burst-chain evolution are pure hash
    /// functions of `(seed, link, message identity, time)` instead of
    /// draws from the shared sequential RNG stream. Sharded worlds
    /// require this — a shared stream's consumption order depends on
    /// which shard sends first, so it cannot replay identically across
    /// shard counts.
    det_seed: Option<u64>,
    /// Hashed chains for deterministic mode, keyed like `chains`: each
    /// is a [`ChainMemo`] of 24 bytes, extended on demand. A chain's
    /// state is a pure function of the window index, so every shard
    /// that asks sees the same answer.
    det_chains: IntMap<((u32, u32), u32), ChainMemo>,
}

/// One hashed chain's memo: the draws' common prefix and the states of
/// the newest 64 windows computed, with no history on the heap.
#[derive(Debug)]
struct ChainMemo {
    /// `det_hash(&[seed, link, chain])`: window `w`'s draw is
    /// `det_mix(prefix ^ w)`, which is `det_hash(&[seed, link, chain, w])`.
    prefix: u64,
    /// Windows computed so far.
    len: u64,
    /// Their states, newest in bit 0: bit `i` is window `len − 1 − i`.
    recent: u64,
}

impl ChainMemo {
    /// Window `w`'s state, given window `w − 1`'s.
    fn step(&self, prev: bool, w: u64, p_enter: f64, p_exit: f64) -> bool {
        let u = det_unit(det_mix(self.prefix ^ w));
        if prev {
            u >= p_exit
        } else {
            u < p_enter
        }
    }

    /// Window `w`'s state. Past the newest window, the memo steps
    /// forward to it; within the last 64 it reads a bit; further back,
    /// it recomputes from window 0 (a route's hops span well under one
    /// window, so this is the rare path, kept only to be correct).
    fn state(&mut self, w: u64, p_enter: f64, p_exit: f64) -> bool {
        while self.len <= w {
            let prev = self.recent & 1 == 1;
            let next = self.step(prev, self.len, p_enter, p_exit);
            self.recent = self.recent << 1 | next as u64;
            self.len += 1;
        }
        let back = self.len - 1 - w;
        if back < 64 {
            return self.recent >> back & 1 == 1;
        }
        (0..=w).fold(false, |prev, i| self.step(prev, i, p_enter, p_exit))
    }
}

/// Deterministic-mode burst chains advance once per fixed sub-window
/// instead of once per message crossing (100 ms: long enough that a
/// congestion flap spans many crossings, short next to the multi-second
/// windows chaos plans use).
const DET_BURST_WINDOW_US: u64 = 100_000;

/// SplitMix64 finalizer — the mixing core of the deterministic fault
/// hash, shared with the sharded retry jitter.
pub(super) fn det_mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Fold a word list into one hash with [`det_mix`].
pub(super) fn det_hash(words: &[u64]) -> u64 {
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

/// Where one crossing's random draws come from: the plan's RNG stream,
/// or hashes — `seed` keys the windowed chains, and `ident`, the hash
/// of the crossing's message identity, decides loss and jitter.
#[derive(Clone, Copy)]
enum Draw {
    Stream,
    Hash { seed: u64, ident: u64 },
}

impl FaultPlan {
    /// A plan applying one uniform profile to every link. The RNG is
    /// re-seeded from the world seed when the plan is installed.
    pub fn uniform(drop_prob: f64, jitter_max: SimDuration) -> FaultPlan {
        FaultPlan {
            default_link: LinkProfile::uniform(drop_prob, jitter_max),
            per_link: IntMap::default(),
            congestion: IntMap::default(),
            chains: IntMap::default(),
            rng: Xoshiro256pp::seed_from_u64(0),
            dropped: 0,
            det_seed: None,
            det_chains: IntMap::default(),
        }
    }

    /// Switch the plan to deterministic (partition-invariant) mode: all
    /// stochastic decisions become pure hash functions of `seed`, the
    /// link, the message identity, and time. Required for sharded
    /// worlds, where it produces the same chaos for any shard count.
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
        self,
        a: Rank,
        b: Rank,
        window: std::ops::Range<SimTime>,
        severity: f64,
    ) -> FaultPlan {
        self.with_window(a, b, window, severity, None)
    }

    /// Congest the `a`–`b` link for the given window with a
    /// [`CongestionBurst`] flapping channel instead of a flat severity.
    pub fn with_bursty_congestion(
        self,
        a: Rank,
        b: Rank,
        window: std::ops::Range<SimTime>,
        burst: CongestionBurst,
    ) -> FaultPlan {
        self.with_window(a, b, window, burst.congested_severity, Some(burst))
    }

    fn with_window(
        mut self,
        a: Rank,
        b: Rank,
        window: std::ops::Range<SimTime>,
        severity: f64,
        burst: Option<CongestionBurst>,
    ) -> FaultPlan {
        self.congestion
            .entry(Self::link_key(a, b))
            .or_default()
            .push(CongestionEvent {
                start_us: window.start.as_micros(),
                end_us: window.end.as_micros(),
                severity,
                burst,
            });
        self
    }

    fn link_key(a: Rank, b: Rank) -> (u32, u32) {
        (a.0.min(b.0), a.0.max(b.0))
    }

    /// One message crossing the `a`–`b` link at simulation time
    /// `now_us`: evolve the link's burst state (if any), decide loss,
    /// draw the jitter, and sample the active congestion severity.
    /// Returns `(lost, jitter_us, severity)`.
    ///
    /// `ident` — `(origin rank, origin seq, hop)` — picks the draws. On a
    /// deterministic plan, a crossing with an identity hashes it for loss
    /// and jitter, and burst and congestion chains are windowed pure
    /// functions of time ([`FaultPlan::chain_state`]): no shared RNG is
    /// consumed, so every shard computes the same outcome. Otherwise the
    /// draws come from the RNG stream, strictly per crossing in route
    /// order — congestion windows only consume it when they carry a
    /// [`CongestionBurst`] — so same-seed runs replay byte-identically.
    pub(super) fn traverse(
        &mut self,
        a: Rank,
        b: Rank,
        now_us: u64,
        ident: Option<(u32, u64, u32)>,
    ) -> (bool, u64, f64) {
        let key = Self::link_key(a, b);
        let draw = match (self.det_seed, ident) {
            (Some(seed), Some((origin, origin_seq, hop))) => {
                let link_word = (key.0 as u64) << 32 | key.1 as u64;
                Draw::Hash {
                    seed,
                    ident: det_hash(&[seed, link_word, origin as u64, origin_seq, hop as u64]),
                }
            }
            _ => Draw::Stream,
        };
        let profile = self
            .per_link
            .get(&key)
            .copied()
            .unwrap_or(self.default_link);
        let drop_prob = match profile.burst {
            None => profile.drop_prob,
            Some(ge) => {
                if self.chain_state(draw, key, 0, now_us, ge.p_good_to_bad, ge.p_bad_to_good) {
                    ge.bad_drop_prob
                } else {
                    ge.good_drop_prob
                }
            }
        };
        let jitter = match draw {
            Draw::Stream if self.rng.chance(drop_prob) => None,
            Draw::Stream => Some(self.rng.below(profile.jitter_max_us + 1)),
            Draw::Hash { ident, .. } if det_unit(ident) < drop_prob => None,
            Draw::Hash { ident, .. } => Some(det_mix(ident) % (profile.jitter_max_us + 1)),
        };
        let Some(jitter) = jitter else {
            self.dropped += 1;
            return (true, 0, 0.0);
        };
        (false, jitter, self.congestion_severity(draw, key, now_us))
    }

    /// The worst congestion severity active on the link `key` at
    /// `now_us`, stepping any [`CongestionBurst`] channels whose window
    /// is open (a windowed chain is anchored at its event's start).
    /// Links with no configured congestion return 0.0 without a draw.
    fn congestion_severity(&mut self, draw: Draw, key: (u32, u32), now_us: u64) -> f64 {
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
                    let congested = self.chain_state(
                        draw,
                        key,
                        1 + i as u32,
                        now_us.saturating_sub(ev.start_us),
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

    /// The state of two-state chain `chain` on link `key` (`true` = bad /
    /// congested), entered with `p_enter` and left with `p_exit`. From
    /// the stream, the chain steps once per crossing. From the hash, it
    /// advances once per [`DET_BURST_WINDOW_US`] sub-window of
    /// `elapsed_us` (time since the chain's origin), each step a hash of
    /// `(seed, link, chain, window)`: the state at any time is a pure
    /// function of time, so every shard computes the same answer
    /// whichever messages it routes. Hashed states are memoized per
    /// `(link, chain)` in a [`ChainMemo`] and extended on demand.
    fn chain_state(
        &mut self,
        draw: Draw,
        key: (u32, u32),
        chain: u32,
        elapsed_us: u64,
        p_enter: f64,
        p_exit: f64,
    ) -> bool {
        let Draw::Hash { seed, .. } = draw else {
            let state = self.chains.entry((key, chain)).or_insert(false);
            let flip = if *state {
                self.rng.chance(p_exit)
            } else {
                self.rng.chance(p_enter)
            };
            *state ^= flip;
            return *state;
        };
        self.det_chains
            .entry((key, chain))
            .or_insert_with(|| ChainMemo {
                prefix: det_hash(&[seed, (key.0 as u64) << 32 | key.1 as u64, chain as u64]),
                len: 0,
                recent: 0,
            })
            .state(elapsed_us / DET_BURST_WINDOW_US, p_enter, p_exit)
    }
}

impl World {
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
        plan.dropped += self.fault_drops();
        self.faults = Some(plan);
    }

    /// Messages lost to installed [`FaultPlan`]s so far (cumulative
    /// across plan swaps).
    pub fn fault_drops(&self) -> u64 {
        self.faults.as_ref().map_or(0, |f| f.dropped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The oracle: every window's state from window 0, kept in a `Vec`,
    /// each draw hashed from the full word list.
    fn naive_chain(seed: u64, link: u64, chain: u32, upto: u64, p: (f64, f64)) -> Vec<bool> {
        let mut states = Vec::new();
        let mut state = false;
        for w in 0..=upto {
            let u = det_unit(det_hash(&[seed, link, chain as u64, w]));
            state = if state { u >= p.1 } else { u < p.0 };
            states.push(state);
        }
        states
    }

    #[test]
    fn a_chain_memo_is_24_bytes() {
        assert_eq!(std::mem::size_of::<ChainMemo>(), 24);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// `chain_state` on a hashed plan answers every query like the
        /// naive chain: windows in order, out of order within the last
        /// 64, more than 64 back, window 0, and far ahead — over
        /// several links, the loss chain (0) and congestion chains.
        #[test]
        fn hashed_chains_match_the_naive_chain(
            seed in any::<u64>(),
            p_enter in 0.05f64..0.6,
            p_exit in 0.05f64..0.6,
            queries in prop::collection::vec((0usize..6, 0u8..5, 0u64..400), 1..80),
        ) {
            let keys: [((u32, u32), u32); 6] = [
                ((0, 1), 0),
                ((0, 1), 1),
                ((0, 2), 0),
                ((3, 9), 0),
                ((3, 9), 2),
                ((7, 100), 1),
            ];
            let mut plan = FaultPlan::uniform(0.0, SimDuration::ZERO).deterministic(seed);
            let draw = Draw::Hash { seed, ident: 0 };
            let mut newest = [0u64; 6];
            let mut deep = 0;
            for (k, kind, n) in queries {
                let w = match kind {
                    0 => newest[k] + n % 3,
                    1 => newest[k].saturating_sub(n % 64),
                    2 => newest[k].saturating_sub(65 + n),
                    3 => 0,
                    _ => newest[k] + 65 + n,
                };
                newest[k] = newest[k].max(w);
                deep += usize::from(newest[k] - w >= 64);
                let (link, chain) = keys[k];
                let link_word = (link.0 as u64) << 32 | link.1 as u64;
                let elapsed_us = w * DET_BURST_WINDOW_US + n % DET_BURST_WINDOW_US;
                let got = plan.chain_state(draw, link, chain, elapsed_us, p_enter, p_exit);
                let want = naive_chain(seed, link_word, chain, w, (p_enter, p_exit))[w as usize];
                prop_assert_eq!(got, want, "link {:?} chain {} window {}", link, chain, w);
            }
            // Count only the cases that reached back more than 64
            // windows, so each counted case took the recompute path.
            prop_assume!(deep > 0);
        }
    }
}
