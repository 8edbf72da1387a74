//! End-to-end benchmark of the composed PRDMA-RS fleet.
//!
//! Four workloads (see [`workloads::Workload`]) drive the sharded,
//! replicated, cached and transactional fleet through its public API
//! only. Each run reports simulated-time end-to-end metrics, the host
//! cost of simulating them, and per-layer metrics, and fails when an
//! output check does: acknowledged puts must survive (read back from
//! every replica), transaction counts must add up, and a traced run's
//! journal must pass the I1–I6 audit.

pub mod check;
pub mod driver;
pub mod host;
pub mod report;
pub mod workloads;
