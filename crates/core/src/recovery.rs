//! Failure-recovery accounting (paper Section 5.4, Fig. 12).
//!
//! Compares the durable-RPC recovery path — replay incomplete log entries
//! from PM, no client involvement — with the traditional path, where the
//! client times out and re-sends the data after the RDMA re-transfer
//! interval.

use prdma_simnet::SimDuration;

use crate::log::LogEntry;

/// What recovery found and what it will cost.
#[derive(Debug, Clone)]
pub struct RecoveryOutcome {
    /// Entries recovered from the redo log (replayed server-side).
    pub replayed: Vec<LogEntry>,
    /// Requests lost in volatile buffers (must be re-sent by clients under
    /// any scheme; durable RPCs only lose requests whose flush had not yet
    /// been ACKed).
    pub lost: u64,
}

/// Aggregate statistics across a faulty run.
#[derive(Debug, Clone, Copy, Default)]
pub struct RecoveryStats {
    /// Number of crashes injected.
    pub crashes: u64,
    /// Operations replayed from the log.
    pub replayed_ops: u64,
    /// Operations re-sent by the client.
    pub resent_ops: u64,
    /// Total downtime (restart latency).
    pub downtime: SimDuration,
    /// Total re-transfer waiting (traditional path only).
    pub retransfer_wait: SimDuration,
    /// Transactions found in doubt (staged prepare, no in-band decision)
    /// during replay.
    pub in_doubt_txns: u64,
    /// In-doubt transactions resolved from the coordinator's decided
    /// record in the logs — i.e. without any client retransmit.
    pub in_doubt_resolved: u64,
}
