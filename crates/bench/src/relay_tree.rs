//! Relay-topology workload: an in-memory TBON of [`RelayPlane`] +
//! [`TelemetryHub`] pairs, driving the exact per-edge fan-out code the
//! broker relays run in simulation — minus the event engine, so the
//! numbers isolate the relay hot path itself.
//!
//! The tree is the standard k-ary heap layout (children of `i` are
//! `k*i + 1 ..= k*i + k`). Subscribers attach round-robin at the
//! leaves with match-everything filters; aggregates are computed
//! bottom-up exactly as the in-sim advert climb would settle them. A
//! publish sweep offers one delta per tree node at the root and
//! cascades each flushed [`fluxpm_monitor::RelayDeltaBatch`]
//! breadth-first down the
//! interested edges, dispatching into every hub along the way.
//!
//! The property the unit test below pins: the root's egress is per
//! *edge*, not per subscriber — at most `fanout` wire messages per
//! published delta, whether 1 000 or 10 000 subscribers sit below.

use fluxpm_monitor::{
    AggregateFilter, RelayDeltaBatch, RelayPlane, SubscriptionConfig, SubscriptionFilter,
    TelemetryDelta, TelemetryHub,
};
use std::collections::VecDeque;
use std::sync::Arc;

struct TreeNode {
    hub: TelemetryHub,
    plane: RelayPlane,
    depth: u32,
    subscribers: usize,
}

/// An in-memory relay tree with subscribers parked at its leaves.
pub struct RelayTree {
    nodes: Vec<TreeNode>,
    fanout: usize,
    subscribers: usize,
    next_seq: u64,
    now_us: u64,
}

impl RelayTree {
    /// Build a `node_count`-broker tree with the given fanout and park
    /// `subscribers` match-everything subscribers round-robin at the
    /// leaves. `queue_capacity` sizes each subscriber's bounded queue;
    /// eviction is disabled (shed-oldest is the scenario under
    /// sustained overrun, eviction is a hub concern measured
    /// elsewhere).
    pub fn new(
        node_count: usize,
        fanout: usize,
        subscribers: usize,
        queue_capacity: usize,
    ) -> RelayTree {
        assert!(node_count >= 1 && fanout >= 1);
        let config = SubscriptionConfig {
            queue_capacity,
            evict_after_drops: u64::MAX,
        };
        let mut nodes: Vec<TreeNode> = (0..node_count)
            .map(|i| TreeNode {
                hub: TelemetryHub::new(config),
                plane: RelayPlane::new(1024),
                depth: {
                    let mut d = 0;
                    let mut at = i;
                    while at > 0 {
                        at = (at - 1) / fanout;
                        d += 1;
                    }
                    d
                },
                subscribers: 0,
            })
            .collect();
        let leaves: Vec<usize> = (0..node_count)
            .filter(|&i| fanout * i + 1 >= node_count)
            .collect();
        for s in 0..subscribers {
            let leaf = leaves[s % leaves.len()];
            nodes[leaf].hub.subscribe(SubscriptionFilter::all(), &[], 0);
            nodes[leaf].subscribers += 1;
        }
        // Settle the aggregates bottom-up, as the in-sim advert climb
        // would: a subtree's edge carries everything iff some leaf
        // below it holds a subscriber.
        let mut aggs: Vec<AggregateFilter> = nodes
            .iter()
            .map(|n| {
                if n.subscribers > 0 {
                    AggregateFilter::everything()
                } else {
                    AggregateFilter::empty()
                }
            })
            .collect();
        for i in (1..node_count).rev() {
            let parent = (i - 1) / fanout;
            let agg = aggs[i].clone();
            aggs[parent].union(&agg);
            nodes[parent].plane.set_child(i as u32, agg);
        }
        RelayTree {
            nodes,
            fanout,
            subscribers,
            next_seq: 0,
            now_us: 0,
        }
    }

    /// One publish sweep: a delta per tree node, each offered at the
    /// root and cascaded down every interested edge. Returns total
    /// subscriber-queue deliveries.
    pub fn publish_sweep(&mut self) -> u64 {
        self.now_us += 2_000_000;
        let mut deliveries = 0u64;
        let mut queue: VecDeque<(usize, RelayDeltaBatch)> = VecDeque::new();
        for node in 0..self.nodes.len() as u32 {
            let delta = Arc::new(TelemetryDelta {
                seq: self.next_seq,
                node,
                timestamp_us: self.now_us,
                node_w: 900.0,
                job: None,
                link: None,
            });
            self.next_seq += 1;
            deliveries += self.nodes[0].hub.dispatch(&delta) as u64;
            self.nodes[0].plane.offer(&delta);
            // What `TelemetryRelay::ingest` does at every hop: the root
            // was handed a bare delta and flushes it, every relay below
            // it hands the batch its edge was sent to its hub as one
            // page and passes it on — whole to every edge that wants all
            // of it.
            self.nodes[0]
                .plane
                .flush_with(|b| b, |c, b| queue.push_back((c as usize, b)));
            while let Some((at, batch)) = queue.pop_front() {
                let n = &mut self.nodes[at];
                deliveries += n.hub.dispatch_batch(&batch.deltas, 0) as u64;
                n.plane.pass_on(
                    &batch,
                    &batch,
                    0,
                    |b| b,
                    |c, b| queue.push_back((c as usize, b)),
                );
            }
        }
        deliveries
    }

    /// Deliveries a full sweep enqueues (every subscriber sees every
    /// node's delta).
    pub fn deliveries_per_sweep(&self) -> u64 {
        self.nodes.len() as u64 * self.subscribers as u64
    }

    /// Root egress counters: (wire messages, deltas carried, deltas
    /// offered).
    pub fn root_egress(&self) -> (u64, u64, u64) {
        let p = &self.nodes[0].plane;
        (p.egress_msgs(), p.egress_deltas(), p.offered())
    }

    /// The tree's fanout.
    pub fn fanout(&self) -> usize {
        self.fanout
    }

    /// Deepest broker level.
    pub fn depth(&self) -> u32 {
        self.nodes.iter().map(|n| n.depth).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_reaches_every_subscriber_with_per_edge_egress() {
        for (brokers, depth, subscribers) in [(64, 2, 1_000), (64, 2, 10_000), (256, 3, 10_000)] {
            let mut tree = RelayTree::new(brokers, 8, subscribers, brokers);
            assert_eq!(tree.depth(), depth);
            let delivered = tree.publish_sweep();
            assert_eq!(delivered, tree.deliveries_per_sweep());
            let (msgs, deltas, offered) = tree.root_egress();
            assert_eq!(offered, brokers as u64);
            assert_eq!(deltas, offered * tree.fanout() as u64);
            assert!(
                msgs <= offered * tree.fanout() as u64,
                "{brokers} brokers, {subscribers} subscribers: egress is per edge, \
                 got {msgs} msgs for {offered} deltas"
            );
        }
    }
}
