//! In-tree reduction for job statistics.
//!
//! The direct stats query ([`crate::root_agent`]) has the root RPC every
//! node of the job individually: N requests, each crossing up to
//! 2·height tree links. The TBON exists precisely to avoid that: this
//! module reduces *inside the tree* — each broker asks only its own
//! children, combines their subtree summaries with its local one, and
//! returns a single mergeable record. Per reduction, every tree link
//! carries at most one request and one response, and the root does O(k)
//! work instead of O(N).
//!
//! This is the scalability story of the paper's architecture ("scalable
//! production-grade power telemetry") made concrete.

use crate::node_agent::NodeAgent;
use crate::proto::{MonitorReply, MonitorRequest, NodeStats};
use fluxpm_flux::{FluxEngine, Message, ModuleCtx, Protocol, Rank, World};
use fluxpm_sim::SimDuration;
use std::cell::RefCell;
use std::rc::Rc;

/// Topic served by every node agent for subtree reduction.
pub const TOPIC_SUBTREE_STATS: &str = "power-monitor.subtree-stats";

/// Request: reduce stats over `targets ∩ subtree(self)` for a window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubtreeStatsRequest {
    /// Window start (inclusive), microseconds.
    pub start_us: u64,
    /// Window end (inclusive), microseconds.
    pub end_us: u64,
    /// The job's ranks (only these contribute).
    pub targets: Vec<u32>,
}

/// A mergeable stats summary — the monoid carried up the tree.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SubtreeStats {
    /// Contributing nodes.
    pub nodes: usize,
    /// Total samples.
    pub samples: usize,
    /// Sum of node-power estimates over all samples (for the mean).
    pub sum_w: f64,
    /// Maximum single sample.
    pub max_w: f64,
    /// Minimum single sample.
    pub min_w: f64,
    /// Whether every contributing node's window was fully retained.
    pub all_complete: bool,
}

impl SubtreeStats {
    /// The empty summary (identity element).
    pub fn empty() -> SubtreeStats {
        SubtreeStats {
            nodes: 0,
            samples: 0,
            sum_w: 0.0,
            max_w: f64::NEG_INFINITY,
            min_w: f64::INFINITY,
            all_complete: true,
        }
    }

    /// Lift a per-node summary.
    pub fn from_node(s: &NodeStats) -> SubtreeStats {
        SubtreeStats {
            nodes: 1,
            samples: s.samples,
            sum_w: s.mean_w * s.samples as f64,
            max_w: if s.samples == 0 {
                f64::NEG_INFINITY
            } else {
                s.max_w
            },
            min_w: if s.samples == 0 {
                f64::INFINITY
            } else {
                s.min_w
            },
            all_complete: s.complete,
        }
    }

    /// Merge two summaries (associative, commutative, `empty` identity).
    pub fn merge(self, other: SubtreeStats) -> SubtreeStats {
        SubtreeStats {
            nodes: self.nodes + other.nodes,
            samples: self.samples + other.samples,
            sum_w: self.sum_w + other.sum_w,
            max_w: self.max_w.max(other.max_w),
            min_w: self.min_w.min(other.min_w),
            all_complete: self.all_complete && other.all_complete,
        }
    }

    /// Mean node power over all contributing samples.
    pub fn mean_w(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.sum_w / self.samples as f64
        }
    }
}

/// In-flight reduction state at one rank: the client/parent request,
/// the running merge, and how many child replies are still outstanding.
struct Pending {
    request: Message,
    start_us: u64,
    end_us: u64,
    base_deadline: SimDuration,
    acc: SubtreeStats,
    remaining: usize,
    /// Topology epochs this reduction has already re-fanned in. A storm
    /// can detach several children of the same reduction; re-fanning
    /// once per epoch routes around all of them, while re-fanning once
    /// per *timeout* would double-query the surviving children.
    refanned_epochs: std::collections::HashSet<u64>,
}

/// The current children of `rank` that cover at least one target, each
/// paired with the targets inside its subtree (computed against the
/// *current* topology epoch, so a healed tree re-routes naturally).
fn children_covering(world: &World, rank: Rank, targets: &[u32]) -> Vec<(Rank, Vec<u32>)> {
    world
        .tbon
        .children(rank)
        .into_iter()
        .filter_map(|c| {
            let covered: Vec<u32> = targets
                .iter()
                .copied()
                .filter(|&t| world.tbon.is_ancestor(c, Rank(t)))
                .collect();
            if covered.is_empty() {
                None
            } else {
                Some((c, covered))
            }
        })
        .collect()
}

/// Issue one child sub-request for a reduction. Free function (not a
/// method) so the timeout callback can re-fan from plain `&mut World` /
/// `&mut FluxEngine` when the topology has healed underneath it.
fn issue_child(
    world: &mut World,
    eng: &mut FluxEngine,
    self_rank: Rank,
    child: Rank,
    covered: Vec<u32>,
    pending: &Rc<RefCell<Pending>>,
) {
    // Scale the deadline by the child's subtree height so this rank
    // outlives its child's own per-grandchild deadlines: a leaf gets
    // the base deadline, its parent 2x, and so on up the tree.
    // The sub-request travels on the topic the request arrived on: the
    // handle is already in hand.
    let (deadline, sub_req, topic) = {
        let mut p = pending.borrow_mut();
        p.remaining += 1;
        let deadline = p
            .base_deadline
            .mul(u64::from(world.tbon.subtree_height(child)) + 1);
        let sub_req = SubtreeStatsRequest {
            start_us: p.start_us,
            end_us: p.end_us,
            targets: covered.clone(),
        };
        (deadline, sub_req, p.request.topic.clone())
    };
    let pending = Rc::clone(pending);
    world
        .rpc(child, topic, MonitorRequest::SubtreeStats(sub_req).encode())
        .from(self_rank)
        .deadline(deadline)
        .send(eng, move |world, eng, resp| {
            let contribution = match MonitorReply::decode_ref(resp) {
                Ok(&MonitorReply::SubtreeStats(s)) => Some(s),
                _ => None,
            };
            {
                let mut p = pending.borrow_mut();
                match contribution {
                    Some(s) => p.acc = p.acc.merge(s),
                    // Timeout (or garbled reply): whatever this child
                    // held is gone — the merge is incomplete.
                    None => {
                        p.acc = p.acc.merge(SubtreeStats {
                            all_complete: false,
                            ..SubtreeStats::empty()
                        })
                    }
                }
            }
            // If the child was detached (it died and the overlay healed)
            // its orphans are our own children now: re-fan to whichever
            // current children cover the still-attached targets, so the
            // reduction completes with only the dead rank missing. At
            // most once per topology epoch — a storm killing several
            // children of this reduction in the same epoch heals them
            // all under one re-fan, and re-fanning again would
            // double-query the survivors.
            if contribution.is_none() && !world.tbon.is_attached(child) {
                let refan = pending
                    .borrow_mut()
                    .refanned_epochs
                    .insert(world.tbon.epoch());
                if refan {
                    let survivors: Vec<u32> = covered
                        .iter()
                        .copied()
                        .filter(|&t| t != child.0 && world.tbon.is_attached(Rank(t)))
                        .collect();
                    for (c2, cov2) in children_covering(world, self_rank, &survivors) {
                        issue_child(world, eng, self_rank, c2, cov2, &pending);
                    }
                }
            }
            let mut p = pending.borrow_mut();
            p.remaining -= 1;
            if p.remaining == 0 {
                let acc = p.acc;
                world.respond(eng, &p.request, MonitorReply::SubtreeStats(acc).encode());
            }
        });
}

/// Handle a subtree-stats request at one node agent: compute the local
/// contribution (if this rank is a target), recurse into the children
/// whose subtrees intersect the targets, merge, respond. A child that
/// dies mid-reduction is routed around once the topology heals (the
/// deadline handler re-fans to the re-parented children); only its own
/// samples stay missing.
pub fn handle_subtree_stats(
    agent: &mut NodeAgent,
    ctx: &mut ModuleCtx<'_>,
    msg: &Message,
    req: &SubtreeStatsRequest,
) {
    let rank = ctx.rank;
    let mut local = if req.targets.contains(&rank.0) {
        SubtreeStats::from_node(&agent.local_stats(req.start_us, req.end_us))
    } else {
        SubtreeStats::empty()
    };

    let children = children_covering(ctx.world, rank, &req.targets);
    // A target no current child reaches (a rank already detached when the
    // query was issued) must flag the reduction incomplete — its data is
    // missing, not silently dropped.
    for &t in &req.targets {
        if t != rank.0 && !children.iter().any(|(_, cov)| cov.contains(&t)) {
            local = local.merge(SubtreeStats {
                all_complete: false,
                ..SubtreeStats::empty()
            });
        }
    }
    if children.is_empty() {
        ctx.world
            .respond(ctx.eng, msg, MonitorReply::SubtreeStats(local).encode());
        return;
    }

    // Fan out one hop; merge asynchronously; respond when all children
    // have reported. A downed child contributes an incomplete empty
    // summary rather than stalling the reduction.
    let pending = Rc::new(RefCell::new(Pending {
        request: msg.clone(),
        start_us: req.start_us,
        end_us: req.end_us,
        base_deadline: crate::RPC_DEADLINE,
        acc: local,
        remaining: 0,
        refanned_epochs: std::collections::HashSet::new(),
    }));
    for (child, covered) in children {
        issue_child(ctx.world, ctx.eng, rank, child, covered, &pending);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ns(samples: usize, mean: f64, max: f64, min: f64, complete: bool) -> NodeStats {
        NodeStats {
            hostname: "h".into(),
            samples,
            mean_w: mean,
            max_w: max,
            min_w: min,
            complete,
        }
    }

    #[test]
    fn merge_is_monoid() {
        let a = SubtreeStats::from_node(&ns(4, 100.0, 120.0, 80.0, true));
        let b = SubtreeStats::from_node(&ns(2, 200.0, 210.0, 190.0, true));
        let e = SubtreeStats::empty();
        // Identity.
        assert_eq!(a.merge(e), a);
        assert_eq!(e.merge(a), a);
        // Commutative.
        assert_eq!(a.merge(b), b.merge(a));
        // Values.
        let m = a.merge(b);
        assert_eq!(m.nodes, 2);
        assert_eq!(m.samples, 6);
        assert!((m.mean_w() - (400.0 + 400.0) / 6.0).abs() < 1e-9);
        assert_eq!(m.max_w, 210.0);
        assert_eq!(m.min_w, 80.0);
        assert!(m.all_complete);
    }

    #[test]
    fn merge_tracks_completeness() {
        let a = SubtreeStats::from_node(&ns(1, 100.0, 100.0, 100.0, true));
        let b = SubtreeStats::from_node(&ns(1, 100.0, 100.0, 100.0, false));
        assert!(!a.merge(b).all_complete);
    }

    #[test]
    fn empty_node_contributes_nothing() {
        let z = SubtreeStats::from_node(&ns(0, 0.0, 0.0, 0.0, true));
        let a = SubtreeStats::from_node(&ns(3, 50.0, 60.0, 40.0, true));
        let m = z.merge(a);
        assert_eq!(m.samples, 3);
        assert_eq!(m.max_w, 60.0);
        assert_eq!(m.min_w, 40.0);
        assert_eq!(m.nodes, 2, "node count still counts the empty node");
    }
}
