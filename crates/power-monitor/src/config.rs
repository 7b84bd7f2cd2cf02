//! Monitor configuration.

use fluxpm_sim::SimDuration;

/// Base per-RPC response deadline for aggregation fan-outs and sample
/// pushes. The in-tree reduction scales this by subtree height so a
/// parent never gives up before its children have had the chance to.
pub const RPC_DEADLINE: SimDuration = SimDuration::from_secs(1);

/// User-configurable monitor parameters (paper §III-A: "The size of the
/// buffer, as well as the sampling rate, are configurable by the user").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MonitorConfig {
    /// Sampling period. Paper default: 2 seconds.
    pub sample_interval: SimDuration,
    /// Circular-buffer capacity in records. Paper default: 100,000
    /// Variorum JSON objects (~43.4 MB).
    pub buffer_capacity: usize,
    /// Whether sensor-read CPU cost is charged to the co-located
    /// application. On (the physical truth) by default; the overhead
    /// experiment's "monitor unloaded" baseline simply does not load the
    /// module.
    pub charge_overhead: bool,
    /// When set, every node agent pushes its newest sample to the root
    /// agent on this cadence, feeding the subscription fan-out (see
    /// [`crate::subscription`]). `None` (the default) disables pushes —
    /// the monitor stays pull-only and its message traffic is unchanged.
    pub push_interval: Option<SimDuration>,
    /// When set, the root agent publishes every active overlay link's
    /// queueing health ([`crate::subscription::LinkSample`]) into the
    /// subscription hub on this cadence. `None` (the default) keeps the
    /// push stream power-only, exactly as before link telemetry existed.
    pub link_export_interval: Option<SimDuration>,
    /// Per-subscriber bounded delta-queue capacity; the oldest delta is
    /// shed when a slow consumer overflows it.
    pub subscriber_queue_capacity: usize,
    /// Cumulative shed deltas after which a slow consumer is evicted
    /// outright (it re-subscribes to resume from the latest snapshot).
    pub subscriber_evict_after_drops: u64,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        MonitorConfig {
            sample_interval: SimDuration::from_secs(2),
            buffer_capacity: 100_000,
            charge_overhead: true,
            push_interval: None,
            link_export_interval: None,
            subscriber_queue_capacity: 64,
            subscriber_evict_after_drops: 256,
        }
    }
}

impl MonitorConfig {
    /// Override the sampling period.
    pub fn with_sample_interval(mut self, interval: SimDuration) -> Self {
        assert!(!interval.is_zero());
        self.sample_interval = interval;
        self
    }

    /// Override the buffer capacity (records).
    pub fn with_buffer_capacity(mut self, capacity: usize) -> Self {
        assert!(capacity > 0);
        self.buffer_capacity = capacity;
        self
    }

    /// Enable sample pushes from node agents on the given cadence.
    pub fn with_push_interval(mut self, interval: SimDuration) -> Self {
        assert!(!interval.is_zero());
        self.push_interval = Some(interval);
        self
    }

    /// Enable periodic link-health publication into the hub.
    pub fn with_link_export_interval(mut self, interval: SimDuration) -> Self {
        assert!(!interval.is_zero());
        self.link_export_interval = Some(interval);
        self
    }

    /// Override the per-subscriber bounded queue capacity.
    pub fn with_subscriber_queue_capacity(mut self, capacity: usize) -> Self {
        assert!(capacity > 0);
        self.subscriber_queue_capacity = capacity;
        self
    }

    /// Override the slow-consumer eviction threshold (cumulative drops).
    pub fn with_subscriber_evict_after_drops(mut self, drops: u64) -> Self {
        self.subscriber_evict_after_drops = drops;
        self
    }

    /// The subscription tuning derived from this config.
    pub fn subscription_config(&self) -> crate::subscription::SubscriptionConfig {
        crate::subscription::SubscriptionConfig {
            queue_capacity: self.subscriber_queue_capacity,
            evict_after_drops: self.subscriber_evict_after_drops,
        }
    }

    /// Sampling rate in Hz.
    pub fn sample_rate_hz(&self) -> f64 {
        1.0 / self.sample_interval.as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = MonitorConfig::default();
        assert_eq!(c.sample_interval, SimDuration::from_secs(2));
        assert_eq!(c.buffer_capacity, 100_000);
        assert!(c.charge_overhead);
        assert_eq!(c.sample_rate_hz(), 0.5);
    }

    #[test]
    fn builders() {
        let c = MonitorConfig::default()
            .with_sample_interval(SimDuration::from_millis(500))
            .with_buffer_capacity(10);
        assert_eq!(c.sample_rate_hz(), 2.0);
        assert_eq!(c.buffer_capacity, 10);
    }

    #[test]
    #[should_panic]
    fn zero_interval_rejected() {
        MonitorConfig::default().with_sample_interval(SimDuration::ZERO);
    }
}
