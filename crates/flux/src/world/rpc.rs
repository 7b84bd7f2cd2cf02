//! The RPC layer: the pending table keyed by matchtag, deadlines,
//! retries with decorrelated-jitter backoff, and the per-topic counters
//! ([`TopicStats`]) every drop, timeout and retry lands in.

use super::fault::det_hash;
use super::{FluxEngine, FluxEvent, World};
use crate::message::{Message, Payload};
use crate::tbon::{IntMap, Rank};
use crate::topic::Topic;
use fluxpm_sim::{EventId, SimDuration, TraceLevel, Xoshiro256pp};
use std::collections::BTreeMap;
use std::rc::Rc;

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

/// The RPC layer's state: what only this file reads and writes.
pub(super) struct RpcTable {
    /// In-flight RPCs by matchtag.
    pending: IntMap<u64, PendingRpc>,
    next_matchtag: u64,
    /// Dedicated RNG stream for retry-backoff jitter, derived from the
    /// world seed — retries stay decorrelated *and* replayable.
    retry_rng: Xoshiro256pp,
    /// Per-topic timeout/retry/drop counters ([`World::rpc_stats`]); the
    /// world-wide counts are their sums.
    topic_stats: BTreeMap<Topic, TopicStats>,
}

impl RpcTable {
    pub(super) fn new(retry_rng: Xoshiro256pp) -> RpcTable {
        RpcTable {
            pending: IntMap::default(),
            next_matchtag: 1,
            retry_rng,
            topic_stats: BTreeMap::new(),
        }
    }

    /// Count a dropped message against its topic.
    pub(super) fn note_drop(&mut self, topic: &Topic) {
        self.topic_stats.entry(topic.clone()).or_default().drops += 1;
    }

    /// Cancel every RPC `rank` issued (it died): retire the matchtags in
    /// sorted order (the map iterates in hash order) and their deadline
    /// events. Their callbacks never fire. Returns how many there were.
    pub(super) fn cancel_from(&mut self, eng: &mut FluxEngine, rank: Rank) -> usize {
        let mut dead_tags: Vec<u64> = self
            .pending
            .iter()
            .filter(|(_, p)| p.from == rank)
            .map(|(&tag, _)| tag)
            .collect();
        dead_tags.sort_unstable();
        for tag in &dead_tags {
            if let Some(ev) = self.pending.remove(tag).and_then(|p| p.timeout) {
                eng.cancel(ev);
            }
        }
        dead_tags.len()
    }
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
        let Some(mut policy) = retry else {
            let req = Message::request(from, to, topic, payload);
            return world.launch_rpc(eng, req, deadline, Box::new(callback));
        };
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
fn retry_attempt(world: &mut World, eng: &mut FluxEngine, mut st: RetryState) {
    let req = Message::request(st.from, st.to, st.topic.clone(), Rc::clone(&st.payload));
    let deadline = st.policy.deadline;
    let on_response: RpcCallback = Box::new(move |world, eng, resp| {
        let RetryState {
            from,
            to,
            policy,
            attempt,
            prev_delay_us,
            ..
        } = st;
        let retry = resp.is_timeout()
            && attempt < policy.max_attempts
            && world.brokers[from.index()].is_up();
        if !retry {
            return (st.callback)(world, eng, resp);
        }
        world
            .rpcs
            .topic_stats
            .entry(st.topic.clone())
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
            None => world.rpcs.retry_rng.range_inclusive(lo, hi),
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
        let topic = &st.topic;
        world.trace.emit(
            eng.now(),
            TraceLevel::Warn,
            "rpc",
            format_args!(
                "retrying {topic} {from} -> {to} in {delay} (attempt {attempt} timed out)"
            ),
        );
        st.attempt += 1;
        st.prev_delay_us = delay_us;
        // A backoff timer is rare (one per failed attempt): a
        // closure, not a `FluxEvent`.
        eng.schedule_in(delay, move |world, eng| retry_attempt(world, eng, st));
    });
    world.launch_rpc(eng, req, Some(deadline), on_response);
}

impl World {
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

    /// Register the request's matchtag and send it. With a `deadline`,
    /// a response that has not arrived in time retires the matchtag and
    /// the callback is invoked with a synthesized timeout error response
    /// ([`Message::is_timeout`]); a late real response is then dropped
    /// as an orphan, exactly as Flux drops unmatched matchtags.
    fn launch_rpc(
        &mut self,
        eng: &mut FluxEngine,
        mut req: Message,
        deadline: Option<SimDuration>,
        callback: RpcCallback,
    ) {
        let tag = self.rpcs.next_matchtag;
        self.rpcs.next_matchtag += 1;
        req.matchtag = tag;
        let (from, to) = (req.from, req.to);
        let timeout = deadline.map(|deadline| {
            let topic = req.topic.clone();
            let deadline_event = FluxEvent::Deadline {
                topic,
                from,
                to,
                tag,
                deadline,
            };
            eng.schedule_event(eng.now() + deadline, 0, deadline_event)
        });
        self.rpcs.pending.insert(
            tag,
            PendingRpc {
                from,
                callback,
                timeout,
            },
        );
        self.send(eng, req);
    }

    /// Hand a response to the RPC awaiting its matchtag, cancelling that
    /// RPC's deadline. An orphan (the requester gave up — its deadline
    /// expired or its rank died) is dropped silently, as Flux does for
    /// unmatched matchtags.
    pub(super) fn resolve_rpc(&mut self, eng: &mut FluxEngine, resp: &Message) {
        if let Some(pending) = self.rpcs.pending.remove(&resp.matchtag) {
            if let Some(ev) = pending.timeout {
                eng.cancel(ev);
            }
            (pending.callback)(self, eng, resp);
        }
    }

    /// The deadline of RPC `tag` fired: unless it was answered in time
    /// (a lazily-cancelled event), count the timeout and hand the
    /// requester a synthesized timeout response.
    pub(super) fn expire_rpc(
        &mut self,
        eng: &mut FluxEngine,
        topic: Topic,
        from: Rank,
        to: Rank,
        tag: u64,
        deadline: SimDuration,
    ) {
        let Some(pending) = self.rpcs.pending.remove(&tag) else {
            return;
        };
        self.rpcs
            .topic_stats
            .entry(topic.clone())
            .or_default()
            .timeouts += 1;
        self.trace.emit(
            eng.now(),
            TraceLevel::Warn,
            "rpc",
            format_args!("timeout after {deadline}: {from} -> {to} topic {topic} (matchtag {tag})"),
        );
        let resp = Message::timeout_response(&topic, from, to, tag);
        (pending.callback)(self, eng, &resp);
    }

    /// Number of RPCs awaiting responses (diagnostics).
    pub fn pending_rpc_count(&self) -> usize {
        self.rpcs.pending.len()
    }

    /// RPC deadlines that expired before a response arrived.
    pub fn rpc_timeout_count(&self) -> u64 {
        self.rpcs.topic_stats.values().map(|s| s.timeouts).sum()
    }

    /// RPC attempts re-sent by the retry machinery.
    pub fn rpc_retry_count(&self) -> u64 {
        self.rpcs.topic_stats.values().map(|s| s.retries).sum()
    }

    /// Snapshot of the per-topic timeout/retry/drop counters, keyed by
    /// topic in deterministic (sorted) order. Topics appear once they
    /// record their first incident.
    pub fn rpc_stats(&self) -> BTreeMap<Topic, TopicStats> {
        self.rpcs.topic_stats.clone()
    }
}

#[cfg(test)]
impl World {
    /// Messages dropped for any reason (downed ranks + injected loss).
    pub(crate) fn dropped_message_count(&self) -> u64 {
        self.rpcs.topic_stats.values().map(|s| s.drops).sum()
    }
}
