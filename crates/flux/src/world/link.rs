//! The link layer: one bounded FIFO per TBON edge, its telemetry
//! ([`LinkStats`]), and the monitor that routes subtrees around a link
//! that stays congested.

use super::{FluxEngine, World};
use crate::broker::{LinkHealthConfig, LinkVerdict};
use crate::tbon::Rank;
use fluxpm_sim::{EventId, TraceLevel};
use std::collections::VecDeque;
use std::ops::ControlFlow;

/// Per-link bandwidth: 10 GB/s, a modern HPC management-network class
/// link. At this rate a default-sized control message serializes in
/// well under a microsecond, so the uncongested integer-microsecond
/// delivery timing is identical to the pure `hop_latency` model.
pub const DEFAULT_LINK_BANDWIDTH_BPS: u64 = 10_000_000_000;

/// Bounded-FIFO capacity per link: messages queued behind in-flight
/// serialization beyond this depth are tail-dropped.
pub const DEFAULT_LINK_QUEUE_CAPACITY: u32 = 64;

/// EWMA smoothing factor for per-link delay/depth telemetry.
const LINK_EWMA_ALPHA: f64 = 0.2;

/// Microseconds to serialize `size_bytes` onto a link whose bandwidth
/// congestion has scaled by `1 − severity` (clamped to `[0, 0.999]`, so
/// a link is never fully stalled). Integer µs, so delivery timing is
/// exactly replayable.
pub(super) fn serialization_us(size_bytes: u32, severity: f64) -> u64 {
    let bw = DEFAULT_LINK_BANDWIDTH_BPS as f64;
    let eff_bw = (bw * (1.0 - severity.clamp(0.0, 0.999))).max(1.0) as u64;
    ((size_bytes as u128) * 1_000_000 / (eff_bw as u128)) as u64
}

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

/// The link layer's state: what only this file reads and writes.
pub(super) struct Links {
    /// Queue/telemetry state, indexed by the child rank of each edge.
    queues: Vec<LinkQueue>,
    /// Messages tail-dropped by full link queues, world-wide (a
    /// queue's own count resets with its edge).
    tail_drops: u64,
}

impl Links {
    pub(super) fn new(nranks: usize) -> Links {
        Links {
            queues: vec![LinkQueue::default(); nranks],
            tail_drops: 0,
        }
    }
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

impl World {
    /// One message crossing the undirected `a`–`b` tree edge at
    /// `arrive_us`: charge [`serialization_us`] at the link's
    /// (possibly congestion-scaled) bandwidth, queue behind messages
    /// still serializing, and tail-drop when the bounded FIFO is full.
    /// Returns the queueing + serialization microseconds, or `None` on
    /// tail-drop.
    pub(super) fn link_cross(
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
        let hot_delay_us = self.link_health.hot_delay_us;
        let lq = &mut self.links.queues[child.index()];
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
        let ser_us = serialization_us(size_bytes, severity);
        // Serialization below the integer-µs clock resolution: the
        // message never occupies the wire long enough to queue, so it
        // bypasses the FIFO. Crossings are computed at send time, so
        // per-hop jitter delivers them to this edge out of order — if
        // zero-cost crossings occupied slots, that reordering would
        // fabricate backlog on busy healthy links and trip the
        // degradation detector with no congestion anywhere.
        let (link_us, depth_seen) = if ser_us == 0 {
            (0, depth)
        } else if depth >= DEFAULT_LINK_QUEUE_CAPACITY {
            lq.congestion_drops += 1;
            self.links.tail_drops += 1;
            return None;
        } else {
            let start_us = lq.departures.back().copied().unwrap_or(0).max(arrive_us);
            lq.departures.push_back(start_us + ser_us);
            ((start_us - arrive_us) + ser_us, depth + 1)
        };
        lq.delivered += 1;
        lq.ewma_delay_us += LINK_EWMA_ALPHA * (link_us as f64 - lq.ewma_delay_us);
        lq.ewma_depth += LINK_EWMA_ALPHA * (f64::from(depth) - lq.ewma_depth);
        lq.win_crossings = lq.win_crossings.saturating_add(1);
        if link_us > hot_delay_us {
            lq.win_over = lq.win_over.saturating_add(1);
        }
        lq.win_max_depth = lq.win_max_depth.max(depth_seen);
        Some(link_us)
    }

    /// Messages tail-dropped by full link queues so far.
    pub fn congestion_drop_count(&self) -> u64 {
        self.links.tail_drops
    }

    /// Congestion-triggered re-parents the link monitor has performed:
    /// the sum of every broker's [`crate::LinkDetector::reparents`].
    pub fn congestion_reparent_count(&self) -> u64 {
        self.brokers.iter().map(|b| b.uplink.reparents()).sum()
    }

    /// Per-link telemetry snapshot in child-rank order (deterministic).
    /// Only links that have carried or dropped traffic appear; `parent`
    /// reflects the edge the stats were accumulated against, which is
    /// the current topology unless the child re-parented since its last
    /// crossing.
    pub fn link_stats(&self) -> Vec<LinkStats> {
        (0..self.size())
            .filter_map(|r| {
                let lq = &self.links.queues[r as usize];
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
                let lq = &mut self.links.queues[r as usize];
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
            self.brokers[child.index()].uplink.note_reparent(&cfg);
            self.trace.emit(
                eng.now(),
                TraceLevel::Warn,
                "link",
                format_args!(
                    "congestion: re-parented {child} (subtree) from {parent} to {new_parent} (epoch {})",
                    self.tbon.epoch()
                ),
            );
            self.notify_topology_change(eng);
        }
    }
}
