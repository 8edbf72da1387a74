//! Structured event journal with causal IDs.
//!
//! While [`crate::trace`] aggregates per-phase latency totals (the Fig. 20
//! layer), this module records *individual* simulated state transitions —
//! doorbell rings, WQE fetches, wire segments, DMA bursts into staging
//! SRAM, PM media writes, redo-log appends, flush issue/ACK pairs, RPC
//! dispatch/complete edges, and recovery replays — as typed [`Record`]s in
//! a bounded per-node ring buffer.
//!
//! Three consumers sit on top of the raw stream:
//!
//! * [`gauges`] — resource-utilization histograms sampled from the journal
//!   (staging-SRAM occupancy, DMA queue depth, PCIe busy fraction, PM
//!   write bandwidth);
//! * [`to_chrome_trace`] / [`to_jsonl`] — a Chrome-trace-event JSON
//!   export (loadable in Perfetto / `chrome://tracing`, one track per
//!   node×subsystem, flow arrows per `rpc_id`) and a machine-readable
//!   JSONL dump;
//! * [`audit`] — a durability auditor that replays the journal and checks
//!   the paper's ordering invariants (no flush-ACK before the DMA bursts
//!   it covers have completed into PM, no RPC completion before its
//!   redo-log append, recovery replays exactly the un-done suffix).
//!
//! Emission is synchronous and consumes **zero simulated time and zero
//! randomness**, so enabling the journal never perturbs a schedule: a
//! fixed seed yields a byte-identical export. Components emit through
//! the node's [`Obs`](crate::Obs), which holds an `Option<Journal>`;
//! when disabled nothing is allocated on the hot path.

use crate::executor::SimHandle;
use crate::stats::Histogram;
use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;
use std::rc::Rc;

/// Sentinel for "no id" in [`Record::rpc_id`] / [`Record::wr_id`]
/// (rendered as `null` in the JSONL export).
pub const NO_ID: u64 = u64::MAX;

/// First id handed out by [`Journal::next_rpc_id`]. Durable designs use
/// `(lane << 40) | log_index` (always below this base) as the put rpc_id,
/// so allocator-assigned ids can never collide with log-derived ids.
pub const RPC_ID_BASE: u64 = 1 << 32;

/// Per-node stride of the [`Journal::next_rpc_id`] allocator: node `n`
/// hands out ids starting at `RPC_ID_BASE + n * NODE_RPC_SPAN`, so ids
/// stay unique across a *merged* fleet stream (each client node runs its
/// own journal), up to 16M allocations per node.
pub const NODE_RPC_SPAN: u64 = 1 << 24;

/// Default ring capacity, in records, per node.
pub const DEFAULT_CAPACITY: usize = 1 << 20;

/// The component a record was emitted from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Subsystem {
    /// RNIC internals: SRAM staging, DMA engine, WQE/CQE traffic.
    Nic,
    /// Queue-pair / wire level: doorbells and MTU segments.
    Qp,
    /// Persistent-memory device: media writes.
    Pm,
    /// Redo log: appends and done marks.
    Log,
    /// Flush primitives: issue/ACK of persistence barriers.
    Flush,
    /// RPC layer: dispatch/complete edges.
    Rpc,
    /// Post-crash recovery scan.
    Recovery,
    /// Fault injector: crash/restart/loss events from a `FaultPlan`.
    Fault,
}

impl Subsystem {
    /// All subsystems, in track order for the Chrome-trace export.
    pub const ALL: [Subsystem; 8] = [
        Subsystem::Qp,
        Subsystem::Nic,
        Subsystem::Pm,
        Subsystem::Log,
        Subsystem::Flush,
        Subsystem::Rpc,
        Subsystem::Recovery,
        Subsystem::Fault,
    ];

    /// Stable lower-case name (used in both exports).
    pub fn name(self) -> &'static str {
        match self {
            Subsystem::Nic => "nic",
            Subsystem::Qp => "qp",
            Subsystem::Pm => "pm",
            Subsystem::Log => "log",
            Subsystem::Flush => "flush",
            Subsystem::Rpc => "rpc",
            Subsystem::Recovery => "recovery",
            Subsystem::Fault => "fault",
        }
    }

    /// Stable track index for the Chrome-trace export.
    pub fn track(self) -> u32 {
        Subsystem::ALL.iter().position(|s| *s == self).unwrap() as u32
    }
}

/// What happened. One variant per simulated state transition the paper's
/// analysis cares about.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EventKind {
    /// MMIO doorbell ring for a posted work request (sender CPU → NIC).
    Doorbell,
    /// RNIC fetched a receive WQE over PCIe (send/recv path only).
    WqeFetch,
    /// One MTU-or-smaller segment put on the wire.
    WireSegment,
    /// Payload admitted into the RNIC's volatile staging SRAM.
    SramAdmit,
    /// Payload released from the staging SRAM after DMA drain.
    SramRelease,
    /// DMA burst issued from staging SRAM toward host memory
    /// (`wr_id` = PCIe posted-write ticket).
    DmaIssue,
    /// DMA burst completed (for the direct path this is the point the
    /// bytes are durable in PM; for DDIO they land in volatile LLC).
    DmaComplete,
    /// Completion-queue entry DMA'd to host memory.
    CqeWrite,
    /// Bytes committed to persistent media (DMA durability point or
    /// an explicit clflush commit).
    PmWrite,
    /// Redo-log slot append issued by a client (`rpc_id` = lane|index).
    LogAppend,
    /// Redo-log entry marked done by the server worker.
    LogDone,
    /// Persistence barrier issued (`wr_id` = posted-write barrier
    /// ticket: every DMA ticket below it is covered by the barrier).
    FlushIssue,
    /// Persistence barrier acknowledged: all covered DMA must be done.
    FlushAck,
    /// RPC handed to the transport (client side).
    RpcDispatch,
    /// RPC observed complete by the client.
    RpcComplete,
    /// Recovery scan started (`wr_id` = persisted head index).
    RecoveryStart,
    /// Recovery replayed one incomplete log entry (`rpc_id` = lane|index).
    RecoveryReplay,
    /// Recovery skipped a log slot as torn or stale.
    RecoveryLost,
    /// Injected full-node crash (NIC down, volatile state lost).
    NodeCrash,
    /// Injected node restart (NIC back up, PM contents intact).
    NodeRestart,
    /// Injected service crash (software down; NIC + PM keep running).
    ServiceCrash,
    /// Injected service restart (software back up after recovery).
    ServiceRestart,
    /// Injected NIC staging-SRAM loss (dirty lines + in-flight DMA
    /// dropped while the NIC stays up).
    SramLoss,
    /// Injected packet-loss burst began (`wr_id` = burst length in ns).
    LossBurst,
    /// Injected ingress-link degradation began (`wr_id` = length in ns).
    LinkDegrade,
    /// One replica's durable append resolved for a replicated put
    /// (`rpc_id` = causal put id shared by every replica, `wr_id` =
    /// replica slot within the group).
    ReplAppend,
    /// A replicated put acknowledged to the caller (`rpc_id` = causal
    /// put id, `wr_id` = number of replicas whose appends the ACK
    /// claims). Checked by auditor invariant I4.
    ReplAck,
    /// A backup was promoted to primary (`wr_id` = new epoch,
    /// `bytes` = new primary's node id).
    Promote,
    /// Links a replicated put's causal root id (`rpc_id`) to one of its
    /// per-replica sub-puts (`wr_id` = the sub-put's log-derived rpc id).
    /// Emitted at sub-put dispatch so span analyzers can stitch the
    /// client → primary → backup fan-out into one tree.
    ReplLink,
    /// A server granted (or renewed) a read lease on a key when serving
    /// a durable GET (`wr_id` = globally unique lease key id, `bytes` =
    /// granted epoch, `rpc_id` = the GET's rpc id).
    LeaseGrant,
    /// A durable put bumped a key's lease epoch *before* its flush was
    /// acknowledged, revoking every outstanding lease on the key
    /// (`wr_id` = lease key id, `bytes` = the new epoch, `rpc_id` = the
    /// put's rpc id). Checked by auditor invariant I5.
    LeaseInvalidate,
    /// A client served a GET from its lease-protected DRAM cache without
    /// a server round trip (`wr_id` = lease key id, `bytes` = the epoch
    /// the entry was validated against). Checked by invariant I5.
    CacheRead,
    /// A client served a GET with a one-sided RDMA READ of the server's
    /// DRAM mirror region (`wr_id` = lease key id, `bytes` = the epoch
    /// read back from the mirror slot header). Checked by invariant I5.
    MirrorRead,
    /// One participant shard's durable `prepare` record was appended and
    /// flush-ACKed for a multi-shard transaction (`rpc_id` = txn id,
    /// `wr_id` = the participant's shard index). Checked by invariant I6.
    TxnPrepare,
    /// The coordinator shard's durable `decided` record was appended and
    /// flush-ACKed (`rpc_id` = txn id, `wr_id` = the coordinator's shard
    /// index, `bytes` = 1 for commit / 0 for abort). Checked by I6.
    TxnDecide,
    /// A transaction acknowledged committed to the caller (`rpc_id` =
    /// txn id, `wr_id` = participant count the ACK claims prepares for).
    /// Invariant I6: preceded by `TxnPrepare` on that many distinct
    /// shards plus a `TxnDecide`.
    TxnAck,
    /// A participant applied a committed transaction's staged writes to
    /// its object store (`rpc_id` = txn id, `wr_id` = shard/node,
    /// `bytes` = bytes applied). Invariant I6: never emitted for a txn
    /// that also journals a `TxnAbort`.
    TxnApply,
    /// A transaction aborted before deciding commit (`rpc_id` = txn id,
    /// `wr_id` = prepares appended before the abort). Checked by I6.
    TxnAbort,
}

impl EventKind {
    /// Stable name (used in both exports).
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Doorbell => "doorbell",
            EventKind::WqeFetch => "wqe_fetch",
            EventKind::WireSegment => "wire_segment",
            EventKind::SramAdmit => "sram_admit",
            EventKind::SramRelease => "sram_release",
            EventKind::DmaIssue => "dma_issue",
            EventKind::DmaComplete => "dma_complete",
            EventKind::CqeWrite => "cqe_write",
            EventKind::PmWrite => "pm_write",
            EventKind::LogAppend => "log_append",
            EventKind::LogDone => "log_done",
            EventKind::FlushIssue => "flush_issue",
            EventKind::FlushAck => "flush_ack",
            EventKind::RpcDispatch => "rpc_dispatch",
            EventKind::RpcComplete => "rpc_complete",
            EventKind::RecoveryStart => "recovery_start",
            EventKind::RecoveryReplay => "recovery_replay",
            EventKind::RecoveryLost => "recovery_lost",
            EventKind::NodeCrash => "node_crash",
            EventKind::NodeRestart => "node_restart",
            EventKind::ServiceCrash => "service_crash",
            EventKind::ServiceRestart => "service_restart",
            EventKind::SramLoss => "sram_loss",
            EventKind::LossBurst => "loss_burst",
            EventKind::LinkDegrade => "link_degrade",
            EventKind::ReplAppend => "repl_append",
            EventKind::ReplAck => "repl_ack",
            EventKind::Promote => "promote",
            EventKind::ReplLink => "repl_link",
            EventKind::LeaseGrant => "lease_grant",
            EventKind::LeaseInvalidate => "lease_invalidate",
            EventKind::CacheRead => "cache_read",
            EventKind::MirrorRead => "mirror_read",
            EventKind::TxnPrepare => "txn_prepare",
            EventKind::TxnDecide => "txn_decide",
            EventKind::TxnAck => "txn_ack",
            EventKind::TxnApply => "txn_apply",
            EventKind::TxnAbort => "txn_abort",
        }
    }
}

/// One journal record: a typed event at a virtual timestamp.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// Virtual timestamp, nanoseconds since simulation start.
    pub ts_ns: u64,
    /// Node the emitting component belongs to.
    pub node: u32,
    /// Per-node emission sequence number (tie-breaker for merges: many
    /// records share a timestamp because emission takes zero sim time).
    pub seq: u64,
    /// Emitting component.
    pub subsystem: Subsystem,
    /// What happened.
    pub kind: EventKind,
    /// Causal RPC id threading an operation across nodes ([`NO_ID`] if
    /// the event is not attributable to one RPC).
    pub rpc_id: u64,
    /// Work-request / ticket / index id local to the subsystem
    /// ([`NO_ID`] if not applicable).
    pub wr_id: u64,
    /// Bytes moved by this transition (0 for pure control events).
    pub bytes: u64,
}

struct JournalInner {
    node: u32,
    handle: SimHandle,
    capacity: usize,
    seq: Cell<u64>,
    dropped: Cell<u64>,
    next_rpc: Cell<u64>,
    ring: RefCell<VecDeque<Record>>,
}

/// A per-node handle to the bounded event ring. Cheap to clone
/// (reference-counted); all clones feed the same ring.
#[derive(Clone)]
pub struct Journal {
    inner: Rc<JournalInner>,
}

impl fmt::Debug for Journal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Journal")
            .field("node", &self.inner.node)
            .field("len", &self.len())
            .field("dropped", &self.dropped())
            .finish()
    }
}

impl Journal {
    /// A journal for `node` with the [`DEFAULT_CAPACITY`] ring.
    pub fn new(handle: SimHandle, node: u32) -> Self {
        Journal::with_capacity(handle, node, DEFAULT_CAPACITY)
    }

    /// A journal with an explicit ring capacity (oldest records are
    /// dropped, and counted, once the ring is full).
    pub fn with_capacity(handle: SimHandle, node: u32, capacity: usize) -> Self {
        Journal {
            inner: Rc::new(JournalInner {
                node,
                handle,
                capacity: capacity.max(1),
                seq: Cell::new(0),
                dropped: Cell::new(0),
                next_rpc: Cell::new(RPC_ID_BASE + node as u64 * NODE_RPC_SPAN),
                ring: RefCell::new(VecDeque::new()),
            }),
        }
    }

    /// Emit one record at the current virtual time. Synchronous, no
    /// simulated time consumed, no randomness drawn.
    pub fn record(
        &self,
        subsystem: Subsystem,
        kind: EventKind,
        rpc_id: u64,
        wr_id: u64,
        bytes: u64,
    ) {
        let seq = self.inner.seq.get();
        self.inner.seq.set(seq + 1);
        let rec = Record {
            ts_ns: self.inner.handle.now().as_nanos(),
            node: self.inner.node,
            seq,
            subsystem,
            kind,
            rpc_id,
            wr_id,
            bytes,
        };
        let mut ring = self.inner.ring.borrow_mut();
        if ring.len() == self.inner.capacity {
            ring.pop_front();
            self.inner.dropped.set(self.inner.dropped.get() + 1);
        }
        ring.push_back(rec);
    }

    /// Allocate a fresh causal RPC id (starts at [`RPC_ID_BASE`] plus
    /// this node's [`NODE_RPC_SPAN`] slice, so it collides neither with
    /// log-derived `(lane << 40) | index` ids nor with ids allocated by
    /// another node's journal in a merged fleet stream).
    pub fn next_rpc_id(&self) -> u64 {
        let id = self.inner.next_rpc.get();
        self.inner.next_rpc.set(id + 1);
        id
    }

    /// Records currently held (oldest may have been dropped).
    pub fn len(&self) -> usize {
        self.inner.ring.borrow().len()
    }

    /// True when nothing has been recorded (or everything was dropped).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Records dropped due to the capacity bound.
    pub fn dropped(&self) -> u64 {
        self.inner.dropped.get()
    }

    /// Snapshot the ring contents in emission order.
    pub fn records(&self) -> Vec<Record> {
        self.inner.ring.borrow().iter().cloned().collect()
    }
}

/// Merge several per-node journals into one globally ordered stream
/// (sorted by timestamp, then node, then per-node sequence — a total,
/// deterministic order).
pub fn merge(journals: &[Journal]) -> Vec<Record> {
    let mut all: Vec<Record> = journals.iter().flat_map(|j| j.records()).collect();
    all.sort_by_key(|r| (r.ts_ns, r.node, r.seq));
    all
}

/// Renders an id as its decimal value, or `null` for [`NO_ID`], without
/// allocating an intermediate `String` per field.
struct JsonId(u64);

impl std::fmt::Display for JsonId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.0 == NO_ID {
            f.write_str("null")
        } else {
            write!(f, "{}", self.0)
        }
    }
}

/// Serialize records as JSON Lines: one object per record, fixed field
/// order, `null` for absent ids. Byte-deterministic for a fixed seed.
pub fn to_jsonl(records: &[Record]) -> String {
    use std::fmt::Write;
    let mut out = String::with_capacity(records.len() * 112);
    for r in records {
        let _ = writeln!(
            out,
            "{{\"ts_ns\":{},\"node\":{},\"subsystem\":\"{}\",\"kind\":\"{}\",\"rpc_id\":{},\"wr_id\":{},\"bytes\":{}}}",
            r.ts_ns,
            r.node,
            r.subsystem.name(),
            r.kind.name(),
            JsonId(r.rpc_id),
            JsonId(r.wr_id),
            r.bytes,
        );
    }
    out
}

/// Chrome trace timestamps are microseconds; keep nanosecond precision
/// with three fixed decimals for determinism.
struct ChromeTs(u64);

impl std::fmt::Display for ChromeTs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.3}", self.0 as f64 / 1000.0)
    }
}

/// Serialize records in the Chrome trace-event JSON format, loadable in
/// Perfetto (`ui.perfetto.dev`) or `chrome://tracing`.
///
/// Layout: one process per node, one thread (track) per subsystem, every
/// record an instant event, and a flow arrow per `rpc_id` from its
/// `RpcDispatch` to its `RpcComplete`.
pub fn to_chrome_trace(records: &[Record]) -> String {
    use std::fmt::Write;
    let mut nodes: BTreeSet<u32> = BTreeSet::new();
    for r in records {
        nodes.insert(r.node);
    }
    // ~150 bytes per instant event plus metadata/flow rows; one
    // capacity-reserved output string, events separated by ",\n" exactly
    // as the previous `Vec<String>` + `join` implementation emitted them.
    let mut out = String::with_capacity(64 + records.len() * 176 + nodes.len() * 640);
    out.push_str("{\"traceEvents\":[\n");
    let mut first = true;
    macro_rules! event {
        ($($fmt:tt)*) => {{
            if !first {
                out.push_str(",\n");
            }
            first = false;
            let _ = write!(out, $($fmt)*);
        }};
    }
    for n in &nodes {
        event!(
            "{{\"ph\":\"M\",\"pid\":{n},\"tid\":0,\"name\":\"process_name\",\"args\":{{\"name\":\"node{n}\"}}}}"
        );
        for s in Subsystem::ALL {
            event!(
                "{{\"ph\":\"M\",\"pid\":{n},\"tid\":{},\"name\":\"thread_name\",\"args\":{{\"name\":\"{}\"}}}}",
                s.track(),
                s.name()
            );
        }
    }
    // Flow arrows: rpc dispatch -> complete, keyed by rpc_id.
    let mut dispatched: BTreeSet<u64> = BTreeSet::new();
    for r in records {
        if r.kind == EventKind::RpcDispatch && r.rpc_id != NO_ID {
            dispatched.insert(r.rpc_id);
        }
    }
    for r in records {
        let ts = ChromeTs(r.ts_ns);
        let tid = r.subsystem.track();
        event!(
            "{{\"ph\":\"i\",\"s\":\"t\",\"pid\":{},\"tid\":{},\"ts\":{},\"name\":\"{}\",\"cat\":\"{}\",\"args\":{{\"rpc_id\":{},\"wr_id\":{},\"bytes\":{}}}}}",
            r.node,
            tid,
            ts,
            r.kind.name(),
            r.subsystem.name(),
            JsonId(r.rpc_id),
            JsonId(r.wr_id),
            r.bytes,
        );
        if r.rpc_id != NO_ID && dispatched.contains(&r.rpc_id) {
            match r.kind {
                EventKind::RpcDispatch => event!(
                    "{{\"ph\":\"s\",\"pid\":{},\"tid\":{},\"ts\":{},\"name\":\"rpc\",\"cat\":\"rpc\",\"id\":{}}}",
                    r.node, tid, ts, r.rpc_id
                ),
                EventKind::RpcComplete => event!(
                    "{{\"ph\":\"f\",\"bp\":\"e\",\"pid\":{},\"tid\":{},\"ts\":{},\"name\":\"rpc\",\"cat\":\"rpc\",\"id\":{}}}",
                    r.node, tid, ts, r.rpc_id
                ),
                _ => {}
            }
        }
    }
    out.push_str("\n]}\n");
    out
}

/// Resource-utilization gauges derived from a merged record stream.
pub struct Gauges {
    /// Staging-SRAM occupancy in bytes, sampled after every
    /// admit/release transition (all nodes).
    pub sram_occupancy: Histogram,
    /// DMA queue depth (posted, not yet completed bursts), sampled after
    /// every issue/complete transition (all nodes).
    pub dma_queue_depth: Histogram,
    /// Fraction of the journal's time span during which at least one DMA
    /// burst was in flight on some PCIe link.
    pub pcie_busy_frac: f64,
    /// Aggregate PM media write bandwidth over the journal span, Gbit/s.
    pub pm_write_gbps: f64,
}

impl fmt::Debug for Gauges {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Gauges")
            .field("sram_occupancy", &self.sram_occupancy.summary())
            .field("dma_queue_depth", &self.dma_queue_depth.summary())
            .field("pcie_busy_frac", &self.pcie_busy_frac)
            .field("pm_write_gbps", &self.pm_write_gbps)
            .finish()
    }
}

/// Fold a merged record stream into utilization gauges.
pub fn gauges(records: &[Record]) -> Gauges {
    let mut sram = Histogram::new();
    let mut depth = Histogram::new();
    let mut sram_now: BTreeMap<u32, u64> = BTreeMap::new();
    let mut depth_now: BTreeMap<u32, u64> = BTreeMap::new();
    // PCIe busy: union of intervals during which any node's DMA queue is
    // non-empty. Records are time-sorted, so a running scan suffices.
    let mut busy_ns = 0u64;
    let mut busy_since: Option<u64> = None;
    let mut inflight_total = 0u64;
    let mut pm_bytes = 0u64;
    for r in records {
        match r.kind {
            EventKind::SramAdmit => {
                let v = sram_now.entry(r.node).or_insert(0);
                *v += r.bytes;
                sram.record(*v);
            }
            EventKind::SramRelease => {
                let v = sram_now.entry(r.node).or_insert(0);
                *v = v.saturating_sub(r.bytes);
                sram.record(*v);
            }
            EventKind::DmaIssue => {
                let v = depth_now.entry(r.node).or_insert(0);
                *v += 1;
                depth.record(*v);
                inflight_total += 1;
                if inflight_total == 1 {
                    busy_since = Some(r.ts_ns);
                }
            }
            EventKind::DmaComplete => {
                let v = depth_now.entry(r.node).or_insert(0);
                *v = v.saturating_sub(1);
                depth.record(*v);
                inflight_total = inflight_total.saturating_sub(1);
                if inflight_total == 0 {
                    if let Some(s) = busy_since.take() {
                        busy_ns += r.ts_ns - s;
                    }
                }
            }
            EventKind::PmWrite => pm_bytes += r.bytes,
            _ => {}
        }
    }
    let span_ns = match (records.first(), records.last()) {
        (Some(a), Some(b)) if b.ts_ns > a.ts_ns => b.ts_ns - a.ts_ns,
        _ => 0,
    };
    if let Some(s) = busy_since {
        if let Some(last) = records.last() {
            busy_ns += last.ts_ns - s;
        }
    }
    Gauges {
        sram_occupancy: sram,
        dma_queue_depth: depth,
        pcie_busy_frac: if span_ns == 0 {
            0.0
        } else {
            busy_ns as f64 / span_ns as f64
        },
        pm_write_gbps: if span_ns == 0 {
            0.0
        } else {
            pm_bytes as f64 * 8.0 / span_ns as f64
        },
    }
}

/// Outcome of a durability audit over a merged record stream.
#[derive(Debug, Default)]
pub struct AuditReport {
    /// Records examined.
    pub records: usize,
    /// Flush barriers checked (invariant 1).
    pub flush_acks: usize,
    /// RPC append/complete pairs checked (invariant 2).
    pub rpcs_checked: usize,
    /// Recovery scans checked (invariant 3).
    pub recoveries: usize,
    /// Replicated put ACKs checked (invariant 4).
    pub repl_acks: usize,
    /// Lease invalidations checked against their put's ACK (invariant 5).
    pub lease_invalidations: usize,
    /// Cached / mirror reads checked for lease coverage (invariant 5).
    pub cached_reads: usize,
    /// Transaction ACKs checked for prepare/decide coverage (invariant 6).
    pub txn_acks: usize,
    /// Human-readable invariant violations (empty ⇒ audit passed).
    pub violations: Vec<String>,
}

impl AuditReport {
    /// True when no invariant was violated.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// Panic with the violation list unless the audit passed.
    pub fn assert_ok(&self) {
        assert!(
            self.ok(),
            "durability audit failed ({} violations):\n{}",
            self.violations.len(),
            self.violations.join("\n")
        );
    }
}

impl fmt::Display for AuditReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "audit: {} records, {} flush barriers, {} rpcs, {} recoveries, {} repl acks, {} lease invalidations, {} cached reads, {} txn acks — {}",
            self.records,
            self.flush_acks,
            self.rpcs_checked,
            self.recoveries,
            self.repl_acks,
            self.lease_invalidations,
            self.cached_reads,
            self.txn_acks,
            if self.ok() {
                "PASS".to_string()
            } else {
                format!("{} VIOLATIONS", self.violations.len())
            }
        )
    }
}

/// Replay a merged record stream and check the paper's ordering
/// invariants:
///
/// 1. **Flush covers placement** — a `FlushAck` whose barrier ticket is
///    `b` must not appear before the `DmaComplete` of every DMA burst
///    ticketed below `b` on that node (no flush-ACK before the PM
///    placement of the bytes it covers).
/// 2. **Completion after logging** — an RPC's `RpcComplete` must not
///    precede its `LogAppend` (durability ACK only after the redo-log
///    slot was appended).
/// 3. **Recovery exactness** — each recovery scan on a log lane replays
///    exactly the entries appended at-or-after the persisted head and
///    before the scan (minus slots explicitly reported lost).
/// 4. **Replication coverage** — a `ReplAck` claiming `n` replicas
///    (`wr_id = n`) must be preceded by `ReplAppend`s for the same
///    causal put id (`rpc_id`) on at least `n` distinct replica slots.
///    Each `ReplAppend` is only emitted after that replica's own durable
///    RPC resolved, whose completion invariant 2 already ties to its
///    redo-log append — together: no replicated ACK before *every*
///    counted replica's log append.
/// 5. **Lease freshness** — (a) every `LeaseInvalidate` must be emitted
///    no later than its put's `RpcComplete` (the epoch bump precedes the
///    durability ACK, so a lease can never outlive the data it covers);
///    (b) every `CacheRead` / `MirrorRead` at epoch `e` must be covered
///    by a `LeaseGrant` of exactly epoch `e` (or by the `LeaseInvalidate`
///    that moved the key *to* `e` — the bump republishes the mirror slot
///    header), and no invalidation that
///    moved the key past `e` may strictly precede the read — together: a
///    cached read can never return bytes newer than the last
///    flush-ACKed put, nor serve a lease revoked by one.
/// 6. **Transaction atomicity** — a `TxnAck` claiming `n` participants
///    (`wr_id = n`) must be preceded by `TxnPrepare` records for the
///    same txn id on at least `n` distinct shards *and* by the
///    coordinator's `TxnDecide` (no txn ACK before every participant's
///    prepare append and the decided append); and no txn that journals
///    a `TxnAbort` may ever journal a `TxnApply` (aborted transactions
///    apply nowhere). A `TxnAck` also stands in for `RpcComplete` in
///    invariant 5a: the lease bumps a committing txn performs for its
///    write set must precede the txn's ACK.
pub fn audit(records: &[Record]) -> AuditReport {
    let mut rep = AuditReport {
        records: records.len(),
        ..Default::default()
    };

    // --- Invariant 1: per node, FlushAck(barrier b) implies all
    // DmaIssue tickets < b have a DmaComplete no later than the ACK.
    let mut issue_ts: BTreeMap<(u32, u64), u64> = BTreeMap::new();
    let mut complete_ts: BTreeMap<(u32, u64), u64> = BTreeMap::new();
    for r in records {
        match r.kind {
            EventKind::DmaIssue => {
                issue_ts.insert((r.node, r.wr_id), r.ts_ns);
            }
            EventKind::DmaComplete => {
                complete_ts.insert((r.node, r.wr_id), r.ts_ns);
            }
            _ => {}
        }
    }
    for r in records {
        // A FlushAck without a barrier ticket is informational (a
        // client-side observation of a flush round trip); only acks
        // carrying the remote NIC's barrier are checkable.
        if r.kind != EventKind::FlushAck || r.wr_id == NO_ID {
            continue;
        }
        rep.flush_acks += 1;
        let barrier = r.wr_id;
        for ((node, ticket), t_issue) in issue_ts.range((r.node, 0)..(r.node, barrier)) {
            debug_assert_eq!(*node, r.node);
            if *t_issue > r.ts_ns {
                // Ticket allocated after this ACK: a later barrier's work.
                continue;
            }
            match complete_ts.get(&(r.node, *ticket)) {
                Some(t_done) if *t_done <= r.ts_ns => {}
                Some(t_done) => rep.violations.push(format!(
                    "node {}: flush ACK at {} ns (barrier {}) precedes DMA ticket {} completion at {} ns",
                    r.node, r.ts_ns, barrier, ticket, t_done
                )),
                None => rep.violations.push(format!(
                    "node {}: flush ACK at {} ns (barrier {}) covers DMA ticket {} that never completed",
                    r.node, r.ts_ns, barrier, ticket
                )),
            }
        }
    }

    // --- Invariant 2: RpcComplete not before the rpc's LogAppend.
    let mut append_ts: BTreeMap<u64, u64> = BTreeMap::new();
    for r in records {
        if r.kind == EventKind::LogAppend && r.rpc_id != NO_ID {
            append_ts.entry(r.rpc_id).or_insert(r.ts_ns);
        }
    }
    for r in records {
        if r.kind != EventKind::RpcComplete || r.rpc_id == NO_ID {
            continue;
        }
        if let Some(t_append) = append_ts.get(&r.rpc_id) {
            rep.rpcs_checked += 1;
            if r.ts_ns < *t_append {
                rep.violations.push(format!(
                    "rpc {}: completion at {} ns precedes its redo-log append at {} ns",
                    r.rpc_id, r.ts_ns, t_append
                ));
            }
        }
    }

    // --- Invariant 3: recovery replays exactly the un-done suffix.
    // Ids are (lane << 40) | index; a RecoveryStart carries the persisted
    // head index in wr_id and the lane in rpc_id >> 40.
    for r in records {
        if r.kind != EventKind::RecoveryStart {
            continue;
        }
        rep.recoveries += 1;
        let lane = r.rpc_id >> 40;
        let head = r.wr_id;
        let appended: BTreeSet<u64> = records
            .iter()
            .filter(|a| {
                a.kind == EventKind::LogAppend
                    && a.rpc_id != NO_ID
                    && a.rpc_id >> 40 == lane
                    && (a.rpc_id & ((1 << 40) - 1)) >= head
                    && (a.ts_ns, a.node, a.seq) < (r.ts_ns, r.node, r.seq)
            })
            .map(|a| a.rpc_id & ((1 << 40) - 1))
            .collect();
        let mut replayed: BTreeSet<u64> = BTreeSet::new();
        let mut lost: BTreeSet<u64> = BTreeSet::new();
        for p in records {
            if p.rpc_id == NO_ID
                || p.rpc_id >> 40 != lane
                || (p.ts_ns, p.node, p.seq) <= (r.ts_ns, r.node, r.seq)
            {
                continue;
            }
            let idx = p.rpc_id & ((1 << 40) - 1);
            match p.kind {
                EventKind::RecoveryReplay => {
                    replayed.insert(idx);
                }
                EventKind::RecoveryLost => {
                    lost.insert(idx);
                }
                // A later recovery scan on this lane ends this one's
                // replay window.
                EventKind::RecoveryStart => break,
                _ => {}
            }
        }
        for idx in &appended {
            if !replayed.contains(idx) && !lost.contains(idx) {
                rep.violations.push(format!(
                    "lane {lane}: recovery from head {head} neither replayed nor reported lost appended entry {idx}"
                ));
            }
        }
        for idx in &replayed {
            if !appended.contains(idx) {
                rep.violations.push(format!(
                    "lane {lane}: recovery from head {head} replayed entry {idx} that was never appended (or was already done before the persisted head)"
                ));
            }
        }
    }

    // --- Invariant 4: a ReplAck claiming n replicas must be covered by
    // ReplAppends for the same causal put id on ≥ n distinct replica
    // slots, all at-or-before the ACK.
    for r in records {
        if r.kind != EventKind::ReplAck || r.rpc_id == NO_ID {
            continue;
        }
        rep.repl_acks += 1;
        let claimed = r.wr_id as usize;
        let slots: BTreeSet<u64> = records
            .iter()
            .filter(|a| {
                a.kind == EventKind::ReplAppend
                    && a.rpc_id == r.rpc_id
                    && (a.ts_ns, a.node, a.seq) <= (r.ts_ns, r.node, r.seq)
            })
            .map(|a| a.wr_id)
            .collect();
        if slots.len() < claimed {
            rep.violations.push(format!(
                "repl put {:#x}: ACK at {} ns claims {} replicas but only {} replica appends precede it",
                r.rpc_id,
                r.ts_ns,
                claimed,
                slots.len()
            ));
        }
    }

    // --- Invariant 5a: a lease invalidation precedes its put's ACK. A
    // committing transaction's write-set bumps carry the txn id, so a
    // TxnAck stands in for RpcComplete as the durability ACK.
    let mut complete_ts_by_rpc: BTreeMap<u64, u64> = BTreeMap::new();
    for r in records {
        if matches!(r.kind, EventKind::RpcComplete | EventKind::TxnAck) && r.rpc_id != NO_ID {
            complete_ts_by_rpc.entry(r.rpc_id).or_insert(r.ts_ns);
        }
    }
    for r in records {
        if r.kind != EventKind::LeaseInvalidate || r.rpc_id == NO_ID {
            continue;
        }
        rep.lease_invalidations += 1;
        if let Some(t_ack) = complete_ts_by_rpc.get(&r.rpc_id) {
            if r.ts_ns > *t_ack {
                rep.violations.push(format!(
                    "lease key {:#x}: invalidation at {} ns follows its put {:#x} ACK at {} ns",
                    r.wr_id, r.ts_ns, r.rpc_id, t_ack
                ));
            }
        }
    }

    // --- Invariant 5b: every cached/mirror read at epoch e is covered
    // by a grant of exactly e, and no invalidation moved the key past e
    // strictly before the read. Grants and invalidations are emitted
    // synchronously (zero sim time), so events sharing a timestamp are
    // concurrent — only a *strictly earlier* revocation is a violation.
    let mut grant_ts: BTreeMap<(u64, u64), u64> = BTreeMap::new();
    let mut invalidations_by_key: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for r in records {
        match r.kind {
            EventKind::LeaseGrant => {
                grant_ts.entry((r.wr_id, r.bytes)).or_insert(r.ts_ns);
            }
            EventKind::LeaseInvalidate => {
                invalidations_by_key
                    .entry(r.wr_id)
                    .or_default()
                    .push((r.bytes, r.ts_ns));
            }
            _ => {}
        }
    }
    for r in records {
        if !matches!(r.kind, EventKind::CacheRead | EventKind::MirrorRead) {
            continue;
        }
        rep.cached_reads += 1;
        let (key, epoch) = (r.wr_id, r.bytes);
        // Coverage: an explicit grant at epoch e, or the invalidation
        // record that *moved* the key to e — the epoch bump refreshes the
        // server's mirror slot header, so the bump record doubles as the
        // publication of epoch e (a one-sided READ validates against it
        // and may refill the client entry without a fresh RPC grant).
        let granted = grant_ts
            .get(&(key, epoch))
            .is_some_and(|t_grant| *t_grant <= r.ts_ns);
        let published = invalidations_by_key.get(&key).is_some_and(|invs| {
            invs.iter()
                .any(|(new_epoch, t_inv)| *new_epoch == epoch && *t_inv <= r.ts_ns)
        });
        if !granted && !published {
            rep.violations.push(format!(
                "lease key {key:#x}: {} at {} ns for epoch {epoch} without a covering lease grant",
                r.kind.name(),
                r.ts_ns
            ));
        }
        if let Some(invs) = invalidations_by_key.get(&key) {
            for (new_epoch, t_inv) in invs {
                if *new_epoch > epoch && *t_inv < r.ts_ns {
                    rep.violations.push(format!(
                        "lease key {key:#x}: {} at {} ns serves epoch {epoch} revoked by an invalidation to epoch {new_epoch} at {t_inv} ns",
                        r.kind.name(),
                        r.ts_ns
                    ));
                    break;
                }
            }
        }
    }

    // --- Invariant 6: a TxnAck claiming n participants must be covered
    // by TxnPrepare records on ≥ n distinct shards and by a TxnDecide,
    // all at-or-before the ACK; and no aborted txn may apply anywhere.
    for r in records {
        if r.kind != EventKind::TxnAck || r.rpc_id == NO_ID {
            continue;
        }
        rep.txn_acks += 1;
        let claimed = r.wr_id as usize;
        let shards: BTreeSet<u64> = records
            .iter()
            .filter(|a| {
                a.kind == EventKind::TxnPrepare
                    && a.rpc_id == r.rpc_id
                    && (a.ts_ns, a.node, a.seq) <= (r.ts_ns, r.node, r.seq)
            })
            .map(|a| a.wr_id)
            .collect();
        if shards.len() < claimed {
            rep.violations.push(format!(
                "txn {:#x}: ACK at {} ns claims {} participants but only {} distinct shards' prepare appends precede it",
                r.rpc_id,
                r.ts_ns,
                claimed,
                shards.len()
            ));
        }
        let decided = records.iter().any(|a| {
            a.kind == EventKind::TxnDecide
                && a.rpc_id == r.rpc_id
                && (a.ts_ns, a.node, a.seq) <= (r.ts_ns, r.node, r.seq)
        });
        if !decided {
            rep.violations.push(format!(
                "txn {:#x}: ACK at {} ns precedes the coordinator's decided append",
                r.rpc_id, r.ts_ns
            ));
        }
    }
    let aborted_txns: BTreeSet<u64> = records
        .iter()
        .filter(|r| r.kind == EventKind::TxnAbort && r.rpc_id != NO_ID)
        .map(|r| r.rpc_id)
        .collect();
    for r in records {
        if r.kind == EventKind::TxnApply && aborted_txns.contains(&r.rpc_id) {
            rep.violations.push(format!(
                "txn {:#x}: aborted yet applied staged writes on node {} at {} ns",
                r.rpc_id, r.node, r.ts_ns
            ));
        }
    }

    rep
}

pub mod json {
    //! A minimal in-tree JSON parser, used to validate the journal's
    //! Chrome-trace export round-trips (no external dependencies).

    /// A parsed JSON value.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Value {
        /// `null`.
        Null,
        /// `true` / `false`.
        Bool(bool),
        /// Any number (parsed as `f64`).
        Num(f64),
        /// A string (escapes decoded).
        Str(String),
        /// An array.
        Arr(Vec<Value>),
        /// An object, preserving member order.
        Obj(Vec<(String, Value)>),
    }

    impl Value {
        /// Member lookup on an object; `None` otherwise.
        pub fn get(&self, key: &str) -> Option<&Value> {
            match self {
                Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
                _ => None,
            }
        }

        /// The string payload, if this is a string.
        pub fn as_str(&self) -> Option<&str> {
            match self {
                Value::Str(s) => Some(s),
                _ => None,
            }
        }

        /// The elements, if this is an array.
        pub fn as_arr(&self) -> Option<&[Value]> {
            match self {
                Value::Arr(items) => Some(items),
                _ => None,
            }
        }
    }

    struct Parser<'a> {
        bytes: &'a [u8],
        pos: usize,
    }

    /// Parse a complete JSON document. Returns a human-readable error
    /// with a byte offset on malformed input or trailing garbage.
    pub fn parse(input: &str) -> Result<Value, String> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
        };
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing input at byte {}", p.pos));
        }
        Ok(v)
    }

    impl<'a> Parser<'a> {
        fn skip_ws(&mut self) {
            while self.pos < self.bytes.len()
                && matches!(self.bytes[self.pos], b' ' | b'\t' | b'\n' | b'\r')
            {
                self.pos += 1;
            }
        }

        fn peek(&self) -> Option<u8> {
            self.bytes.get(self.pos).copied()
        }

        fn expect(&mut self, b: u8) -> Result<(), String> {
            if self.peek() == Some(b) {
                self.pos += 1;
                Ok(())
            } else {
                Err(format!(
                    "expected '{}' at byte {}, found {:?}",
                    b as char,
                    self.pos,
                    self.peek().map(|c| c as char)
                ))
            }
        }

        fn literal(&mut self, lit: &str, v: Value) -> Result<Value, String> {
            if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
                self.pos += lit.len();
                Ok(v)
            } else {
                Err(format!("invalid literal at byte {}", self.pos))
            }
        }

        fn value(&mut self) -> Result<Value, String> {
            self.skip_ws();
            match self.peek() {
                Some(b'{') => self.object(),
                Some(b'[') => self.array(),
                Some(b'"') => Ok(Value::Str(self.string()?)),
                Some(b't') => self.literal("true", Value::Bool(true)),
                Some(b'f') => self.literal("false", Value::Bool(false)),
                Some(b'n') => self.literal("null", Value::Null),
                Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
                other => Err(format!("unexpected {:?} at byte {}", other, self.pos)),
            }
        }

        fn object(&mut self) -> Result<Value, String> {
            self.expect(b'{')?;
            let mut members = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b'}') {
                self.pos += 1;
                return Ok(Value::Obj(members));
            }
            loop {
                self.skip_ws();
                let key = self.string()?;
                self.skip_ws();
                self.expect(b':')?;
                let val = self.value()?;
                members.push((key, val));
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b'}') => {
                        self.pos += 1;
                        return Ok(Value::Obj(members));
                    }
                    other => {
                        return Err(format!(
                            "expected ',' or '}}' at byte {}, found {:?}",
                            self.pos,
                            other.map(|c| c as char)
                        ))
                    }
                }
            }
        }

        fn array(&mut self) -> Result<Value, String> {
            self.expect(b'[')?;
            let mut items = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b']') {
                self.pos += 1;
                return Ok(Value::Arr(items));
            }
            loop {
                items.push(self.value()?);
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b']') => {
                        self.pos += 1;
                        return Ok(Value::Arr(items));
                    }
                    other => {
                        return Err(format!(
                            "expected ',' or ']' at byte {}, found {:?}",
                            self.pos,
                            other.map(|c| c as char)
                        ))
                    }
                }
            }
        }

        fn string(&mut self) -> Result<String, String> {
            self.expect(b'"')?;
            let mut out = String::new();
            loop {
                match self.peek() {
                    None => return Err("unterminated string".to_string()),
                    Some(b'"') => {
                        self.pos += 1;
                        return Ok(out);
                    }
                    Some(b'\\') => {
                        self.pos += 1;
                        match self.peek() {
                            Some(b'"') => out.push('"'),
                            Some(b'\\') => out.push('\\'),
                            Some(b'/') => out.push('/'),
                            Some(b'n') => out.push('\n'),
                            Some(b't') => out.push('\t'),
                            Some(b'r') => out.push('\r'),
                            Some(b'b') => out.push('\u{8}'),
                            Some(b'f') => out.push('\u{c}'),
                            Some(b'u') => {
                                if self.pos + 4 >= self.bytes.len() {
                                    return Err("truncated \\u escape".to_string());
                                }
                                let hex =
                                    std::str::from_utf8(&self.bytes[self.pos + 1..self.pos + 5])
                                        .map_err(|_| "bad \\u escape".to_string())?;
                                let code = u32::from_str_radix(hex, 16)
                                    .map_err(|_| "bad \\u escape".to_string())?;
                                out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                                self.pos += 4;
                            }
                            other => {
                                return Err(format!("bad escape {:?}", other.map(|c| c as char)))
                            }
                        }
                        self.pos += 1;
                    }
                    Some(_) => {
                        // Consume one UTF-8 scalar (multi-byte safe).
                        let rest = std::str::from_utf8(&self.bytes[self.pos..])
                            .map_err(|_| "invalid utf-8".to_string())?;
                        let ch = rest.chars().next().unwrap();
                        out.push(ch);
                        self.pos += ch.len_utf8();
                    }
                }
            }
        }

        fn number(&mut self) -> Result<Value, String> {
            let start = self.pos;
            if self.peek() == Some(b'-') {
                self.pos += 1;
            }
            while matches!(
                self.peek(),
                Some(b'0'..=b'9') | Some(b'.') | Some(b'e') | Some(b'E') | Some(b'+') | Some(b'-')
            ) {
                self.pos += 1;
            }
            let text = std::str::from_utf8(&self.bytes[start..self.pos])
                .map_err(|_| "invalid number".to_string())?;
            text.parse::<f64>()
                .map(Value::Num)
                .map_err(|e| format!("invalid number {text:?}: {e}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Sim;

    #[allow(clippy::too_many_arguments)]
    fn rec(
        ts_ns: u64,
        node: u32,
        seq: u64,
        subsystem: Subsystem,
        kind: EventKind,
        rpc_id: u64,
        wr_id: u64,
        bytes: u64,
    ) -> Record {
        Record {
            ts_ns,
            node,
            seq,
            subsystem,
            kind,
            rpc_id,
            wr_id,
            bytes,
        }
    }

    #[test]
    fn ring_bounds_and_sequences() {
        let sim = Sim::new(1);
        let j = Journal::with_capacity(sim.handle(), 3, 4);
        for i in 0..6 {
            j.record(Subsystem::Nic, EventKind::DmaIssue, NO_ID, i, 64);
        }
        assert_eq!(j.len(), 4);
        assert_eq!(j.dropped(), 2);
        let recs = j.records();
        assert_eq!(recs[0].wr_id, 2);
        assert_eq!(recs[3].wr_id, 5);
        assert!(recs.windows(2).all(|w| w[0].seq < w[1].seq));
        assert!(recs.iter().all(|r| r.node == 3));
    }

    #[test]
    fn rpc_id_allocator_starts_above_log_ids() {
        let sim = Sim::new(1);
        let j = Journal::new(sim.handle(), 0);
        let a = j.next_rpc_id();
        let b = j.next_rpc_id();
        assert_eq!(a, RPC_ID_BASE);
        assert_eq!(b, RPC_ID_BASE + 1);
    }

    #[test]
    fn rpc_id_allocators_are_disjoint_across_nodes() {
        let sim = Sim::new(1);
        let j3 = Journal::new(sim.handle(), 3);
        let j4 = Journal::new(sim.handle(), 4);
        assert_eq!(j3.next_rpc_id(), RPC_ID_BASE + 3 * NODE_RPC_SPAN);
        assert_eq!(j4.next_rpc_id(), RPC_ID_BASE + 4 * NODE_RPC_SPAN);
    }

    #[test]
    fn jsonl_renders_no_id_as_null() {
        let r = rec(10, 0, 0, Subsystem::Pm, EventKind::PmWrite, NO_ID, 7, 64);
        let line = to_jsonl(&[r]);
        assert_eq!(
            line,
            "{\"ts_ns\":10,\"node\":0,\"subsystem\":\"pm\",\"kind\":\"pm_write\",\"rpc_id\":null,\"wr_id\":7,\"bytes\":64}\n"
        );
    }

    #[test]
    fn chrome_trace_parses_and_names_tracks() {
        let records = vec![
            rec(
                1000,
                0,
                0,
                Subsystem::Rpc,
                EventKind::RpcDispatch,
                RPC_ID_BASE,
                NO_ID,
                64,
            ),
            rec(
                2000,
                1,
                0,
                Subsystem::Nic,
                EventKind::DmaIssue,
                RPC_ID_BASE,
                1,
                64,
            ),
            rec(
                5000,
                0,
                1,
                Subsystem::Rpc,
                EventKind::RpcComplete,
                RPC_ID_BASE,
                NO_ID,
                64,
            ),
        ];
        let text = to_chrome_trace(&records);
        let doc = json::parse(&text).expect("chrome trace must be valid JSON");
        let events = doc
            .get("traceEvents")
            .and_then(|v| v.as_arr())
            .expect("traceEvents array");
        // Metadata names both processes; instants carry the records; the
        // rpc flow has a begin and an end.
        let phases: Vec<&str> = events
            .iter()
            .filter_map(|e| e.get("ph").and_then(|v| v.as_str()))
            .collect();
        assert_eq!(phases.iter().filter(|p| **p == "i").count(), 3);
        assert_eq!(phases.iter().filter(|p| **p == "s").count(), 1);
        assert_eq!(phases.iter().filter(|p| **p == "f").count(), 1);
        assert!(events.iter().any(|e| {
            e.get("name").and_then(|v| v.as_str()) == Some("process_name")
                && e.get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(|v| v.as_str())
                    == Some("node1")
        }));
    }

    #[test]
    fn merge_orders_by_time_then_node_then_seq() {
        let sim = Sim::new(1);
        let j0 = Journal::new(sim.handle(), 0);
        let j1 = Journal::new(sim.handle(), 1);
        j1.record(Subsystem::Nic, EventKind::DmaIssue, NO_ID, 0, 1);
        j0.record(Subsystem::Nic, EventKind::DmaIssue, NO_ID, 1, 1);
        j0.record(Subsystem::Nic, EventKind::DmaComplete, NO_ID, 1, 1);
        let merged = merge(&[j1, j0]);
        // All at ts 0: node breaks the tie, then seq.
        assert_eq!(merged[0].node, 0);
        assert_eq!(merged[0].wr_id, 1);
        assert_eq!(merged[1].kind, EventKind::DmaComplete);
        assert_eq!(merged[2].node, 1);
    }

    #[test]
    fn gauges_fold_occupancy_and_bandwidth() {
        let records = vec![
            rec(
                0,
                0,
                0,
                Subsystem::Nic,
                EventKind::SramAdmit,
                NO_ID,
                NO_ID,
                100,
            ),
            rec(10, 0, 1, Subsystem::Nic, EventKind::DmaIssue, NO_ID, 0, 100),
            rec(
                50,
                0,
                2,
                Subsystem::Nic,
                EventKind::DmaComplete,
                NO_ID,
                0,
                100,
            ),
            rec(
                50,
                0,
                3,
                Subsystem::Pm,
                EventKind::PmWrite,
                NO_ID,
                NO_ID,
                100,
            ),
            rec(
                60,
                0,
                4,
                Subsystem::Nic,
                EventKind::SramRelease,
                NO_ID,
                NO_ID,
                100,
            ),
            rec(
                100,
                0,
                5,
                Subsystem::Rpc,
                EventKind::RpcComplete,
                1,
                NO_ID,
                0,
            ),
        ];
        let g = gauges(&records);
        assert_eq!(g.sram_occupancy.count(), 2);
        assert_eq!(g.sram_occupancy.max(), 100);
        assert_eq!(g.dma_queue_depth.max(), 1);
        // DMA in flight 10..50 of a 0..100 span.
        assert!((g.pcie_busy_frac - 0.4).abs() < 1e-9);
        // 100 bytes over 100 ns = 8 Gbit/s.
        assert!((g.pm_write_gbps - 8.0).abs() < 1e-9);
    }

    #[test]
    fn audit_passes_well_ordered_stream() {
        let records = vec![
            rec(
                0,
                1,
                0,
                Subsystem::Rpc,
                EventKind::RpcDispatch,
                5,
                NO_ID,
                64,
            ),
            rec(5, 1, 1, Subsystem::Log, EventKind::LogAppend, 5, 5, 64),
            rec(10, 0, 0, Subsystem::Nic, EventKind::DmaIssue, NO_ID, 0, 64),
            rec(
                20,
                0,
                1,
                Subsystem::Nic,
                EventKind::DmaComplete,
                NO_ID,
                0,
                64,
            ),
            rec(
                21,
                0,
                2,
                Subsystem::Flush,
                EventKind::FlushIssue,
                NO_ID,
                1,
                0,
            ),
            rec(30, 0, 3, Subsystem::Flush, EventKind::FlushAck, NO_ID, 1, 0),
            rec(
                40,
                1,
                2,
                Subsystem::Rpc,
                EventKind::RpcComplete,
                5,
                NO_ID,
                64,
            ),
        ];
        let rep = audit(&records);
        rep.assert_ok();
        assert_eq!(rep.flush_acks, 1);
        assert_eq!(rep.rpcs_checked, 1);
    }

    #[test]
    fn audit_catches_injected_early_ack() {
        // The WC-precedes-placement hazard: the barrier ACK arrives
        // before the covered DMA burst has completed into PM.
        let records = vec![
            rec(10, 0, 0, Subsystem::Nic, EventKind::DmaIssue, NO_ID, 0, 64),
            rec(
                12,
                0,
                1,
                Subsystem::Flush,
                EventKind::FlushIssue,
                NO_ID,
                1,
                0,
            ),
            rec(15, 0, 2, Subsystem::Flush, EventKind::FlushAck, NO_ID, 1, 0),
            rec(
                40,
                0,
                3,
                Subsystem::Nic,
                EventKind::DmaComplete,
                NO_ID,
                0,
                64,
            ),
        ];
        let rep = audit(&records);
        assert!(!rep.ok());
        assert!(rep.violations[0].contains("flush ACK"));
    }

    #[test]
    fn audit_checks_replicated_ack_coverage() {
        let put_id = (1u64 << 60) | 7;
        // Both replica slots appended before the ACK claiming 2: pass.
        let records = vec![
            rec(
                5,
                1,
                0,
                Subsystem::Rpc,
                EventKind::ReplAppend,
                put_id,
                0,
                64,
            ),
            rec(
                9,
                1,
                1,
                Subsystem::Rpc,
                EventKind::ReplAppend,
                put_id,
                1,
                64,
            ),
            rec(12, 1, 2, Subsystem::Rpc, EventKind::ReplAck, put_id, 2, 64),
        ];
        let rep = audit(&records);
        rep.assert_ok();
        assert_eq!(rep.repl_acks, 1);

        // An ACK claiming 2 replicas with only one preceding append (the
        // second lands after the ACK): violation.
        let records = vec![
            rec(
                5,
                1,
                0,
                Subsystem::Rpc,
                EventKind::ReplAppend,
                put_id,
                0,
                64,
            ),
            rec(12, 1, 1, Subsystem::Rpc, EventKind::ReplAck, put_id, 2, 64),
            rec(
                20,
                1,
                2,
                Subsystem::Rpc,
                EventKind::ReplAppend,
                put_id,
                1,
                64,
            ),
        ];
        let rep = audit(&records);
        assert!(!rep.ok());
        assert!(rep.violations[0].contains("claims 2 replicas"));

        // Two appends on the SAME slot must not count as two replicas.
        let records = vec![
            rec(
                5,
                1,
                0,
                Subsystem::Rpc,
                EventKind::ReplAppend,
                put_id,
                0,
                64,
            ),
            rec(
                9,
                1,
                1,
                Subsystem::Rpc,
                EventKind::ReplAppend,
                put_id,
                0,
                64,
            ),
            rec(12, 1, 2, Subsystem::Rpc, EventKind::ReplAck, put_id, 2, 64),
        ];
        assert!(!audit(&records).ok());
    }

    #[test]
    fn audit_catches_completion_before_append() {
        let records = vec![
            rec(
                0,
                1,
                0,
                Subsystem::Rpc,
                EventKind::RpcDispatch,
                9,
                NO_ID,
                64,
            ),
            rec(
                5,
                1,
                1,
                Subsystem::Rpc,
                EventKind::RpcComplete,
                9,
                NO_ID,
                64,
            ),
            rec(9, 1, 2, Subsystem::Log, EventKind::LogAppend, 9, 9, 64),
        ];
        let rep = audit(&records);
        assert!(!rep.ok());
        assert!(rep.violations[0].contains("precedes its redo-log append"));
    }

    #[test]
    fn audit_catches_lost_recovery_entry() {
        let lane_base = 2u64 << 40;
        let records = vec![
            rec(
                0,
                1,
                0,
                Subsystem::Log,
                EventKind::LogAppend,
                lane_base,
                0,
                64,
            ),
            rec(
                5,
                1,
                1,
                Subsystem::Log,
                EventKind::LogAppend,
                lane_base | 1,
                1,
                64,
            ),
            rec(
                100,
                0,
                0,
                Subsystem::Recovery,
                EventKind::RecoveryStart,
                lane_base,
                0,
                0,
            ),
            rec(
                110,
                0,
                1,
                Subsystem::Recovery,
                EventKind::RecoveryReplay,
                lane_base,
                0,
                64,
            ),
            // Entry 1 neither replayed nor reported lost: a dropped
            // acknowledged put.
        ];
        let rep = audit(&records);
        assert!(!rep.ok());
        assert!(rep.violations[0].contains("neither replayed nor reported lost"));

        // Reporting it lost (torn slot) satisfies the invariant.
        let mut ok_records = records.clone();
        ok_records.push(rec(
            111,
            0,
            2,
            Subsystem::Recovery,
            EventKind::RecoveryLost,
            lane_base | 1,
            1,
            0,
        ));
        audit(&ok_records).assert_ok();
    }

    #[test]
    fn audit_scopes_recovery_to_lane_and_time() {
        let lane0 = 0u64;
        let lane1 = 1u64 << 40;
        let records = vec![
            rec(0, 1, 0, Subsystem::Log, EventKind::LogAppend, lane0, 0, 64),
            rec(
                1,
                2,
                0,
                Subsystem::Log,
                EventKind::LogAppend,
                lane1 | 7,
                7,
                64,
            ),
            rec(
                50,
                0,
                0,
                Subsystem::Recovery,
                EventKind::RecoveryStart,
                lane0,
                0,
                0,
            ),
            rec(
                55,
                0,
                1,
                Subsystem::Recovery,
                EventKind::RecoveryReplay,
                lane0,
                0,
                64,
            ),
            // Appended after the scan: not this recovery's business.
            rec(
                60,
                1,
                1,
                Subsystem::Log,
                EventKind::LogAppend,
                lane0 | 1,
                1,
                64,
            ),
        ];
        audit(&records).assert_ok();
    }

    #[test]
    fn audit_checks_lease_invalidation_precedes_put_ack() {
        let key = (3u64 << 44) | 7;
        let put_id = 2u64 << 40;
        // Invalidation before the put's completion: pass.
        let records = vec![
            rec(
                0,
                1,
                0,
                Subsystem::Rpc,
                EventKind::RpcDispatch,
                put_id,
                NO_ID,
                64,
            ),
            rec(
                5,
                1,
                1,
                Subsystem::Rpc,
                EventKind::LeaseInvalidate,
                put_id,
                key,
                1,
            ),
            rec(
                20,
                1,
                2,
                Subsystem::Rpc,
                EventKind::RpcComplete,
                put_id,
                NO_ID,
                64,
            ),
        ];
        let rep = audit(&records);
        rep.assert_ok();
        assert_eq!(rep.lease_invalidations, 1);

        // Invalidation after the ACK: the window where a cached read can
        // return bytes newer than the last flush-ACKed put. Violation.
        let records = vec![
            rec(
                20,
                1,
                0,
                Subsystem::Rpc,
                EventKind::RpcComplete,
                put_id,
                NO_ID,
                64,
            ),
            rec(
                25,
                1,
                1,
                Subsystem::Rpc,
                EventKind::LeaseInvalidate,
                put_id,
                key,
                1,
            ),
        ];
        let rep = audit(&records);
        assert!(!rep.ok());
        assert!(rep.violations[0].contains("follows its put"));
    }

    #[test]
    fn audit_checks_cached_read_lease_coverage() {
        let key = (1u64 << 44) | 9;
        // Grant at epoch 0, read at epoch 0: pass.
        let records = vec![
            rec(5, 1, 0, Subsystem::Rpc, EventKind::LeaseGrant, 100, key, 0),
            rec(9, 1, 1, Subsystem::Rpc, EventKind::CacheRead, 101, key, 0),
        ];
        let rep = audit(&records);
        rep.assert_ok();
        assert_eq!(rep.cached_reads, 1);

        // A read with no covering grant: violation.
        let records = vec![rec(
            9,
            1,
            0,
            Subsystem::Rpc,
            EventKind::MirrorRead,
            101,
            key,
            3,
        )];
        let rep = audit(&records);
        assert!(!rep.ok());
        assert!(rep.violations[0].contains("without a covering lease grant"));

        // Grant(0) → invalidate(→1) → read(0) strictly later: a revoked
        // lease was served. Violation.
        let records = vec![
            rec(5, 1, 0, Subsystem::Rpc, EventKind::LeaseGrant, 100, key, 0),
            rec(
                8,
                2,
                0,
                Subsystem::Rpc,
                EventKind::LeaseInvalidate,
                200,
                key,
                1,
            ),
            rec(12, 1, 1, Subsystem::Rpc, EventKind::CacheRead, 101, key, 0),
        ];
        let rep = audit(&records);
        assert!(!rep.ok());
        assert!(rep.violations[0].contains("revoked by an invalidation"));

        // Same-timestamp invalidate and read are concurrent (zero-time
        // emission): not a violation. Re-grant at the new epoch then a
        // read at that epoch is clean.
        let records = vec![
            rec(5, 1, 0, Subsystem::Rpc, EventKind::LeaseGrant, 100, key, 0),
            rec(
                8,
                2,
                0,
                Subsystem::Rpc,
                EventKind::LeaseInvalidate,
                200,
                key,
                1,
            ),
            rec(8, 1, 1, Subsystem::Rpc, EventKind::CacheRead, 101, key, 0),
            rec(11, 1, 2, Subsystem::Rpc, EventKind::LeaseGrant, 102, key, 1),
            rec(15, 1, 3, Subsystem::Rpc, EventKind::CacheRead, 103, key, 1),
        ];
        audit(&records).assert_ok();
    }

    #[test]
    fn json_parser_handles_nesting_and_rejects_garbage() {
        let v = json::parse(r#"{"a":[1,2.5,-3e2],"b":{"c":"x\ny"},"d":null,"e":true}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_str(), Some("x\ny"));
        assert_eq!(v.get("d"), Some(&json::Value::Null));
        assert!(json::parse("{\"a\":1,}").is_err());
        assert!(json::parse("[1,2] trailing").is_err());
        assert!(json::parse("").is_err());
    }
}
