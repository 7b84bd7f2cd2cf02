//! Manager message payloads and policy identifiers.
//!
//! The limit-push traffic travels as the typed [`ManagerRequest`] /
//! [`ManagerReply`] enums (one [`Protocol`] variant per topic); the
//! plain structs are their per-variant payloads. Job lifecycle *events*
//! are published by the flux layer itself and stay raw `JobId` payloads.

use fluxpm_flux::{JobId, Protocol};
use fluxpm_hw::Watts;

/// Which power management policy the stack runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyKind {
    /// No cluster constraint: every node may draw its nameplate power.
    Unconstrained,
    /// Proportional sharing (paper §III-B1): the global bound is divided
    /// per node; node managers enforce the per-node limit statically via
    /// derived GPU caps.
    Proportional,
    /// FPP (paper §III-B2): proportional sharing plus the FFT-based
    /// per-GPU dynamic controller.
    Fpp,
}

impl PolicyKind {
    /// Display name used in experiment tables.
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::Unconstrained => "unconstrained",
            PolicyKind::Proportional => "proportional",
            PolicyKind::Fpp => "fpp",
        }
    }
}

/// Which device class the FPP controllers drive. The algorithm is
/// device-agnostic (paper §III-B2); the paper evaluates GPUs and notes
/// the socket-level extension.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FppTarget {
    /// Per-GPU capping via NVML (the paper's evaluation).
    Gpu,
    /// Per-socket CPU capping via RAPL/OCC — for CPU-bound workloads
    /// (e.g. the Charm++ NQueens).
    Socket,
    /// Memory-subsystem capping via DRAM RAPL (one controller per node;
    /// the paper's "memory-level power capping" extension).
    Memory,
}

/// Cluster manager → job manager: a job's total power limit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobLimitMsg {
    /// The job.
    pub job: JobId,
    /// Maximum power the whole job may draw.
    pub limit: Watts,
}

/// Job manager → node manager: one node's power limit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeLimitMsg {
    /// Maximum power this node may draw.
    pub limit: Watts,
}

/// Topic: cluster manager → job manager.
pub const TOPIC_JOB_LIMIT: &str = "power-manager.job-limit";
/// Topic: job manager → node manager.
pub const TOPIC_SET_NODE_LIMIT: &str = "power-manager.set-node-limit";

/// Every request the manager stack sends, one variant per topic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ManagerRequest {
    /// Cluster manager → job manager ([`TOPIC_JOB_LIMIT`]).
    JobLimit(JobLimitMsg),
    /// Job manager → node manager ([`TOPIC_SET_NODE_LIMIT`]).
    SetNodeLimit(NodeLimitMsg),
}

impl Protocol for ManagerRequest {
    fn topic(&self) -> &'static str {
        match self {
            ManagerRequest::JobLimit(_) => TOPIC_JOB_LIMIT,
            ManagerRequest::SetNodeLimit(_) => TOPIC_SET_NODE_LIMIT,
        }
    }
}

/// Every reply the manager stack sends: bare acknowledgements that let
/// the pusher's retry loop settle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ManagerReply {
    /// Ack for a [`ManagerRequest::JobLimit`] push.
    JobLimitAck,
    /// Ack for a [`ManagerRequest::SetNodeLimit`] push.
    SetNodeLimitAck,
}

impl Protocol for ManagerReply {
    fn topic(&self) -> &'static str {
        match self {
            ManagerReply::JobLimitAck => TOPIC_JOB_LIMIT,
            ManagerReply::SetNodeLimitAck => TOPIC_SET_NODE_LIMIT,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_names() {
        assert_eq!(PolicyKind::Unconstrained.name(), "unconstrained");
        assert_eq!(PolicyKind::Proportional.name(), "proportional");
        assert_eq!(PolicyKind::Fpp.name(), "fpp");
    }

    #[test]
    fn request_round_trip_checks_topic() {
        use fluxpm_flux::{Message, Rank};
        let req = ManagerRequest::SetNodeLimit(NodeLimitMsg {
            limit: Watts(1200.0),
        });
        let msg = Message::request(Rank(0), Rank(1), req.topic(), req.encode());
        assert_eq!(ManagerRequest::decode(&msg), Ok(req));
        let wrong = Message::request(Rank(0), Rank(1), TOPIC_JOB_LIMIT, req.encode());
        assert!(ManagerRequest::decode(&wrong).is_err());
    }
}
