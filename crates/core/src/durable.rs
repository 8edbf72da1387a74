//! The paper's durable RPCs (Section 4.2, Fig. 4): `WFlush-RPC`,
//! `SFlush-RPC`, `W-RFlush-RPC`, and `S-RFlush-RPC`.
//!
//! All four share one structure: a `Put` appends a redo-log entry in the
//! server's PM and returns to the caller as soon as **persistence is
//! visible** — via the flush ACK (sender-initiated kinds) or via a
//! receiver persist-ACK (receiver-initiated kinds). RPC *processing*
//! (the paper injects up to 100 µs) happens in a server worker pool,
//! fully overlapped with the client's next requests. A crash after the
//! persistence point loses nothing: recovery replays the incomplete log
//! entries without any client re-transmission.
//!
//! The four kinds are a 2×2 grid, and the client has that shape: every
//! logging entry point (put, tagged put, record append, batched puts)
//! runs one persist step, `DurableClient::persist`, which picks the append
//! by transport in one place and the wait by initiator in another.
//!
//! | | sender-initiated (flush ACK) | receiver-initiated (persist-ACK) |
//! |---|---|---|
//! | **one-sided write** | `WFlush`: `append_write_batch`, then `wflush` on the last probe | `W-RFlush`: `append_write_batch`, then the arrival channel feeds `ServerCore::deliver`, which persists and ACKs |
//! | **two-sided send**  | `SFlush`: `append_send` per entry, then `sflush` on the last probe | `S-RFlush`: `append_send` per entry, then the recv loop feeds `ServerCore::deliver`, which persists and ACKs |

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use prdma_node::{Cluster, Node};
use prdma_rnic::{MemTarget, Payload, Qp, QpMode};
use prdma_simnet::fault::FaultKind;
use prdma_simnet::journal::{EventKind, Subsystem, NO_ID};
use prdma_simnet::metrics::{Counter, Gauge, Key, Window};
use prdma_simnet::rng::SmallRng;
use prdma_simnet::trace::{Phase, Role};
use prdma_simnet::{
    channel, OneshotPool, OneshotReceiver, OneshotSender, Receiver, Sender, SimDuration,
};

use crate::flush::{FlushImpl, FlushOps};
use crate::log::{
    entry_data_part, entry_index_from_image, Appended, LogCursor, LogLayout, OpCode, RedoLog,
    RemoteLogWriter, RpcOperator, ENTRY_FOOTER, ENTRY_HEADER, LOG_HEADER_BYTES, REPL_ID_BYTES,
};
use crate::rpc::{
    Request, Response, RetryPolicy, RpcClient, RpcError, RpcFuture, RpcResult, ServerProfile,
};
use crate::store::ObjectStore;

/// Which durable RPC variant to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DurableKind {
    /// One-sided write + sender-initiated flush.
    WFlush,
    /// Two-sided send + sender-initiated flush.
    SFlush,
    /// One-sided write + receiver-initiated flush.
    WRFlush,
    /// Two-sided send + receiver-initiated flush.
    SRFlush,
}

impl DurableKind {
    /// All four variants, in the paper's presentation order.
    pub const ALL: [DurableKind; 4] = [
        DurableKind::SRFlush,
        DurableKind::SFlush,
        DurableKind::WRFlush,
        DurableKind::WFlush,
    ];

    /// Whether entries travel by RDMA send (vs one-sided write).
    pub fn is_send_based(self) -> bool {
        matches!(self, DurableKind::SFlush | DurableKind::SRFlush)
    }

    /// Whether the receiver CPU acknowledges persistence.
    pub fn is_receiver_initiated(self) -> bool {
        matches!(self, DurableKind::WRFlush | DurableKind::SRFlush)
    }

    /// Display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            DurableKind::WFlush => "WFlush-RPC",
            DurableKind::SFlush => "SFlush-RPC",
            DurableKind::WRFlush => "W-RFlush-RPC",
            DurableKind::SRFlush => "S-RFlush-RPC",
        }
    }
}

/// Configuration for one durable RPC connection.
#[derive(Debug, Clone)]
pub struct DurableConfig {
    /// Variant.
    pub kind: DurableKind,
    /// Flush realization (the paper's emulation by default).
    pub flush_impl: FlushImpl,
    /// Server behaviour (processing time, worker threads).
    pub profile: ServerProfile,
    /// Log ring slots.
    pub log_slots: u64,
    /// Max payload bytes per log entry.
    pub slot_payload: u64,
    /// Object-store slot size.
    pub object_slot: u64,
    /// Object-store region size in PM.
    pub store_capacity: u64,
    /// Flow control: throttle when this many entries are outstanding.
    pub throttle_threshold: u64,
    /// Flow control: how long the sender backs off.
    pub throttle_backoff: SimDuration,
    /// Persist the log head every N completions (1 = every completion).
    /// Larger values keep PM media work off the completion path at the
    /// cost of replaying up to N idempotent entries after a crash. The
    /// effective interval is clamped to `max(1, log_slots / 2)`: the
    /// sender never reuses a slot beyond the durable head, so a ring of
    /// `log_slots ≤ N + 1` could never complete enough entries to persist
    /// the head and would stall the sender.
    pub head_persist_interval: u64,
    /// Client-side per-request timeout and bounded retry, used to ride
    /// out packet loss and server crashes. The defaults never fire on a
    /// healthy run.
    pub retry: RetryPolicy,
}

impl Default for DurableConfig {
    fn default() -> Self {
        DurableConfig {
            kind: DurableKind::WFlush,
            flush_impl: FlushImpl::Emulated,
            profile: ServerProfile::default(),
            log_slots: 256,
            slot_payload: 64 * 1024,
            object_slot: 64 * 1024,
            store_capacity: 32 * 1024 * 1024,
            throttle_threshold: 128,
            throttle_backoff: SimDuration::from_micros(20),
            head_persist_interval: 16,
            retry: RetryPolicy::default(),
        }
    }
}

impl DurableConfig {
    /// A config for the given variant with defaults otherwise.
    pub fn for_kind(kind: DurableKind) -> Self {
        DurableConfig {
            kind,
            ..Default::default()
        }
    }
}

/// Per-shard state only the fleet builders wire into a connection.
#[derive(Clone, Default)]
pub(crate) struct Wiring {
    /// Object-store PM region (`"objects"` when `None`). Connections
    /// sharing a name on one node share the store; replicated shard
    /// groups each get their own, so co-hosted groups stay apart.
    pub(crate) store_region: Option<String>,
    /// Shard lease table: every put bumps its key's lease epoch *before*
    /// the flush wait, revoking cached reads ahead of the durability ACK
    /// (auditor invariant I5).
    pub(crate) lease: Option<crate::cache::LeaseState>,
    /// Shard transaction table for durable 2PC: the server processes
    /// `TxnPrepare`/`TxnDecide`/`TxnCommit`/`TxnAbort` entries against it.
    pub(crate) txn: Option<crate::txn::TxnState>,
}

/// Work items flowing from arrival paths to the worker pool.
enum Work {
    /// A logged entry to process (and mark done).
    Entry { index: u64, data: Payload },
    /// A read request to serve.
    Get {
        obj: u64,
        len: u64,
        count: u32,
        reply: OneshotSender<Payload>,
    },
}

/// A write-based entry arrival (DMA landed in the log).
struct Arrival {
    /// Global log index the entry was written to (tokens can resolve out
    /// of order under batching, so the counter cannot be trusted).
    index: u64,
    data: Payload,
    durable: bool,
}

/// Client DRAM layout.
const ACK_ADDR: u64 = 0;
const RESP_ADDR: u64 = 64;
/// Server DRAM layout: per-lane GET descriptor slots.
const REQ_SLOT_BYTES: u64 = 256;
/// GET descriptor size on the wire.
const GET_DESC_BYTES: u64 = 24;

struct Shared {
    kind: DurableKind,
    work_tx: Sender<Work>,
    arrival_tx: Sender<Arrival>,
    /// Pending persist-ack waiter (receiver-initiated kinds; one
    /// outstanding Put or Put-batch per connection by construction).
    ack_waiter: RefCell<Option<OneshotSender<()>>>,
    /// The waiter fires once `puts_logged` reaches this index (lets a
    /// batched Put wait for its *last* entry's persist-ACK).
    ack_after: Cell<u64>,
    puts_logged: Cell<u64>,
    puts_processed: Cell<u64>,
    /// Replicated-put retry duplicates skipped at apply time (the entry
    /// was appended again by a retry, but its causal put id had already
    /// been applied).
    puts_deduped: Cell<u64>,
    /// Next log index the send-based recv ring will arm a WQE for.
    /// Shared so node-crash recovery can flush and re-arm the ring from
    /// the recovered tail (see [`DurableServer::recover`]).
    next_recv_index: Cell<u64>,
    /// Shard transaction table (see `Wiring::txn`).
    txn: Option<crate::txn::TxnState>,
    /// Pre-resolved server-node metric handles (None when metrics off).
    m_puts_logged: Option<Counter>,
    m_puts_processed: Option<Counter>,
}

/// The client endpoint of a durable RPC connection.
pub struct DurableClient {
    kind: DurableKind,
    writer: RemoteLogWriter,
    /// Separate QP for GET descriptors under send-based kinds (so GET
    /// sends don't consume log-slot recv buffers).
    get_qp: Qp,
    shared: Rc<Shared>,
    client_node: Node,
    lane: usize,
    retry: RetryPolicy,
    /// Shard lease table (see `Wiring::lease`); bumped on the put path
    /// before the flush wait when present.
    lease: Option<crate::cache::LeaseState>,
    /// Per-connection jitter stream for retry backoff: seeded from the
    /// connection identity, advanced only when a retry actually sleeps —
    /// a healthy run draws nothing, keeping its schedule byte-identical.
    retry_rng: RefCell<SmallRng>,
    /// Pre-resolved fleet-metric handles, if metrics are enabled.
    metrics: Option<ClientMetrics>,
    /// Per-connection recycler for the persist-ack waiter oneshot minted
    /// on every receiver-initiated put: the channel resolves within the
    /// RPC, so steady state reuses one heap cell instead of allocating
    /// per operation.
    ack_pool: OneshotPool<()>,
    /// Per-connection recycler for the GET reply oneshot (same lifetime
    /// argument as `ack_pool`, payload-typed).
    reply_pool: OneshotPool<Payload>,
    /// Next per-op causal id for batched puts (see [`BATCH_ID_BASE`]):
    /// allocated once per logical op *before* the retry loop, so a
    /// whole-batch retry re-appends the same ids and apply-time dedup
    /// makes the batch exactly-once.
    next_batch_id: Cell<u64>,
}

/// Causal-id namespace for batched puts: distinct from replication ids
/// (`1 << 60 | ...`), transaction ids (`1 << 59 | ...`), log-derived rpc
/// ids (`lane << 40 | index`), and allocator ids (`1 << 32 + ...`).
/// Layout: `BATCH_ID_BASE | client_node << 36 | lane << 24 | counter`.
pub const BATCH_ID_BASE: u64 = 1 << 58;

/// Per-connection metric handles, resolved once at build time so the
/// hot path never performs a key lookup. Series are labeled with the
/// server's node index (`shard`) and the durable kind.
struct ClientMetrics {
    puts: Counter,
    put_bytes: Counter,
    gets: Counter,
    rpc_ok: Counter,
    rpc_failed: Counter,
    rpc_retries: Counter,
    rpc_timeouts: Counter,
    inflight: Gauge,
    latency: Window,
}

/// The server endpoint of a durable RPC connection.
pub struct DurableServer {
    core: Rc<ServerCore>,
    log_qp_server: Qp,
    get_qp_server: Qp,
    /// The worker-pool and write-arrival queues, taken by [`start`].
    ///
    /// [`start`]: DurableServer::start
    queues: RefCell<Option<(Receiver<Work>, Receiver<Arrival>)>>,
}

/// What the server's arrival loops and worker tasks share.
struct ServerCore {
    node: Node,
    log: RedoLog,
    store: ObjectStore,
    resp_qp: Qp,
    shared: Rc<Shared>,
    profile: ServerProfile,
}

/// Build a durable RPC connection between `client_idx` and `server_idx`
/// (server owns the log and the object store). `lane` distinguishes
/// concurrent client connections to one server.
pub fn build_durable(
    cluster: &Cluster,
    client_idx: usize,
    server_idx: usize,
    lane: usize,
    cfg: DurableConfig,
) -> (DurableClient, DurableServer) {
    connect(
        cluster,
        client_idx,
        server_idx,
        lane,
        &cfg,
        Wiring::default(),
    )
}

/// The one per-connection step of every builder: [`build_durable`] plus
/// the per-shard `wiring` only fleet builders set. The server is not
/// started.
pub(crate) fn connect(
    cluster: &Cluster,
    client_idx: usize,
    server_idx: usize,
    lane: usize,
    cfg: &DurableConfig,
    wiring: Wiring,
) -> (DurableClient, DurableServer) {
    let server = cluster.node(server_idx).clone();
    let client = cluster.node(client_idx).clone();
    // Latency breakdown: software time on the client node is sender-side,
    // on the server node receiver-side.
    client.tracer().set_role(Role::Sender);
    server.tracer().set_role(Role::Receiver);

    // Log region: one ring per connection (paper: per-connection log with
    // connection info in the header). Every ring reserves REPL_ID_BYTES
    // of headroom beyond the configured payload so causal-id-prefixed
    // entries (RPut, batched puts) fit a full `slot_payload`-sized value.
    let slot_size = align8(cfg.slot_payload + REPL_ID_BYTES) + ENTRY_HEADER + ENTRY_FOOTER;
    let log_bytes = LOG_HEADER_BYTES + cfg.log_slots * slot_size;
    let log_region = server
        .alloc
        .alloc(&format!("log-{lane}"), log_bytes, 64)
        .expect("PM too small for log region");
    let layout = LogLayout::new(log_region, slot_size);

    // Object store: shared across lanes (per region name).
    let region_name = wiring.store_region.as_deref().unwrap_or("objects");
    let store_region = match server.alloc.lookup(region_name) {
        Some(r) => r,
        None => server
            .alloc
            .alloc(
                region_name,
                cfg.store_capacity.min(server.alloc.remaining()),
                64,
            )
            .expect("PM too small for object store"),
    };
    let store = ObjectStore::new(server.pm.clone(), store_region, cfg.object_slot);

    let cursor = LogCursor::new();
    let log = RedoLog::new(server.pm.clone(), layout, cursor.clone());
    // Clamp the head-persist interval to half the ring: the sender's wrap
    // guard waits for the *durable* head, so an interval the ring cannot
    // hold in completions would stall it for good.
    log.set_head_persist_interval(cfg.head_persist_interval.min((cfg.log_slots / 2).max(1)));
    // Journal id namespace: a log's identity is (server, lane), not lane
    // alone — two shards each serving the same client reuse lane numbers,
    // and the auditor's recovery invariant must never conflate their
    // appends. Server 0 keeps the bare lane, so single-server journals
    // are unchanged byte for byte.
    let journal_lane = ((server_idx as u64) << 12) | lane as u64;
    assert!(lane < 1 << 12, "lane exceeds the journal id namespace");
    log.set_journal_lane(journal_lane);

    let (log_qp_client, log_qp_server) = cluster.connect(client_idx, server_idx, QpMode::Rc);
    let (get_qp_client, get_qp_server) = cluster.connect(client_idx, server_idx, QpMode::Rc);
    let (resp_qp, _resp_qp_client) = cluster.connect(server_idx, client_idx, QpMode::Rc);

    let flush = FlushOps::new(log_qp_client.clone(), cfg.flush_impl);
    let writer = RemoteLogWriter::new(
        log_qp_client,
        flush,
        layout,
        cursor.clone(),
        cfg.throttle_threshold,
        cfg.throttle_backoff,
    );
    writer.set_journal_lane(journal_lane);

    // Fleet metrics: sample this connection's log depth and flow-control
    // stalls at every snapshot tick. Keys are labeled with the server's
    // node index (the shard the dashboard groups by); if one client opens
    // several lanes to the same server, the last-registered lane's
    // provider wins for that key.
    if let Some(m) = client.metrics() {
        let shard = server_idx as u32;
        let c = cursor;
        m.register_provider(Key::new("log_outstanding").shard(shard), move || {
            c.outstanding() as i64
        });
        let stalls = writer.stall_cell();
        m.register_provider(Key::new("log_stalls").shard(shard), move || {
            stalls.get() as i64
        });
    }

    let (work_tx, work_rx) = channel();
    let (arrival_tx, arrival_rx) = channel();
    let shared = Rc::new(Shared {
        kind: cfg.kind,
        work_tx,
        arrival_tx,
        ack_waiter: RefCell::new(None),
        ack_after: Cell::new(0),
        puts_logged: Cell::new(0),
        puts_processed: Cell::new(0),
        puts_deduped: Cell::new(0),
        next_recv_index: Cell::new(0),
        txn: wiring.txn,
        m_puts_logged: server
            .metrics()
            .map(|m| m.counter_handle(Key::new("puts_logged"))),
        m_puts_processed: server
            .metrics()
            .map(|m| m.counter_handle(Key::new("puts_processed"))),
    });

    let metrics = client.metrics().map(|m| {
        let k = |name: &'static str| {
            Key::new(name)
                .shard(server_idx as u32)
                .kind(cfg.kind.name())
        };
        ClientMetrics {
            puts: m.counter_handle(k("puts")),
            put_bytes: m.counter_handle(k("put_bytes")),
            gets: m.counter_handle(k("gets")),
            rpc_ok: m.counter_handle(k("rpc_ok")),
            rpc_failed: m.counter_handle(k("rpc_failed")),
            rpc_retries: m.counter_handle(k("rpc_retries")),
            rpc_timeouts: m.counter_handle(k("rpc_timeouts")),
            inflight: m.gauge_handle(k("rpc_inflight")),
            latency: m.window_handle(k("rpc_latency_ns")),
        }
    });
    let client_ep = DurableClient {
        kind: cfg.kind,
        writer,
        get_qp: get_qp_client,
        shared: Rc::clone(&shared),
        metrics,
        retry_rng: RefCell::new(RetryPolicy::jitter_rng(client.id.0 as u64, lane as u64)),
        client_node: client,
        lane,
        retry: cfg.retry,
        lease: wiring.lease,
        ack_pool: OneshotPool::new(),
        reply_pool: OneshotPool::new(),
        next_batch_id: Cell::new(0),
    };
    let server_ep = DurableServer {
        core: Rc::new(ServerCore {
            node: server,
            log,
            store,
            resp_qp,
            shared,
            profile: cfg.profile.clone(),
        }),
        log_qp_server,
        get_qp_server,
        queues: RefCell::new(Some((work_rx, arrival_rx))),
    };
    (client_ep, server_ep)
}

#[inline]
fn align8(v: u64) -> u64 {
    (v + 7) & !7
}

impl DurableServer {
    /// The redo log (tests, recovery drills).
    pub fn log(&self) -> &RedoLog {
        &self.core.log
    }

    /// The object store.
    pub fn store(&self) -> &ObjectStore {
        &self.core.store
    }

    /// Puts processed (applied + marked done) so far.
    pub fn puts_processed(&self) -> u64 {
        self.core.shared.puts_processed.get()
    }

    /// Entries logged (arrived durable-or-staged) so far.
    pub fn puts_logged(&self) -> u64 {
        self.core.shared.puts_logged.get()
    }

    /// Replicated-put retry duplicates skipped at apply time.
    pub fn puts_deduped(&self) -> u64 {
        self.core.shared.puts_deduped.get()
    }

    /// Start the server loops: arrival listeners and the worker pool.
    pub fn start(&self) {
        let h = self.log_qp_server.local().handle().clone();
        let (mut work_rx, mut arrival_rx) = self
            .queues
            .borrow_mut()
            .take()
            .expect("server already started");

        if self.core.shared.kind.is_send_based() {
            // Recv loop over the log QP, pre-posting recv buffers at
            // upcoming slots (models the SFlush RNIC resolving the
            // destination address from the packet itself).
            let qp = self.log_qp_server.clone();
            let layout = *self.core.log.layout();
            let core = Rc::clone(&self.core);
            let window = (layout.slots / 2).max(1);
            for i in 0..window {
                qp.post_recv(MemTarget::Pm(layout.slot_addr(i)));
            }
            core.shared.next_recv_index.set(window);
            h.spawn(async move {
                loop {
                    let c = qp.recv().await;
                    let next = core.shared.next_recv_index.get();
                    qp.post_recv(MemTarget::Pm(layout.slot_addr(next)));
                    core.shared.next_recv_index.set(next + 1);
                    // The packet identifies its own entry (the SFlush
                    // RNIC resolves the destination from the message).
                    // Counting completions instead would desynchronise
                    // across a node crash: a send in flight at the crash
                    // consumes a recv WQE that never completes.
                    let Some(index) = entry_index_from_image(&c.payload) else {
                        continue;
                    };
                    // The NIC-side absorption above (recv into PM slots)
                    // keeps running while the service is down — that is
                    // the log-absorption property.
                    core.deliver(index, c.payload, c.durable).await;
                }
            });

            // GET descriptor recv loop.
            let get_qp = self.get_qp_server.clone();
            for i in 0..16u64 {
                get_qp.post_recv(MemTarget::Dram(i % 16 * REQ_SLOT_BYTES));
            }
            let mut slot = 16u64;
            h.spawn(async move {
                loop {
                    let _c = get_qp.recv().await;
                    get_qp.post_recv(MemTarget::Dram(slot % 16 * REQ_SLOT_BYTES));
                    slot += 1;
                    // No CPU charge here: the matching Work::Get was
                    // enqueued by the client stub (descriptor bytes only
                    // model the wire), and detection + dispatch is charged
                    // once, in serve_get — same as the write-based path.
                }
            });
        } else {
            // Write-based kinds: the server polls the log tail; the
            // arrival channel fires when an entry's DMA lands. One-sided
            // appends land regardless of software liveness; *noticing*
            // them needs a live service.
            let core = Rc::clone(&self.core);
            h.spawn(async move {
                while let Some(a) = arrival_rx.recv().await {
                    core.deliver(a.index, a.data, a.durable).await;
                }
            });
        }

        // Worker pool: a dispatcher spawns one handler task per RPC (the
        // paper: "a thread is created to handle the RPC requests"), with
        // concurrency bounded by a semaphore of `worker_threads`.
        // Each handler marks entries done on its own clone of the log as
        // it stood here. `RedoLog` clones do not share their persisted-head
        // cell, so handlers persist the head on every completion once it
        // is `head_persist_interval` past its value at start; the pinned
        // fingerprints and fig tables depend on that cadence.
        let pool = prdma_simnet::Semaphore::new(self.core.profile.worker_threads.max(1));
        let core = Rc::clone(&self.core);
        let log = self.core.log.clone();
        h.clone().spawn(async move {
            while let Some(work) = work_rx.recv().await {
                core.node.wait_service_up().await;
                let permit = pool.acquire().await;
                let (core, log) = (Rc::clone(&core), log.clone());
                h.spawn(async move {
                    let _permit = permit;
                    core.serve(&log, work).await;
                });
            }
        });
    }

    /// Recover from `fault` at its restart point and return the number of
    /// log entries re-enqueued for processing — with no client
    /// re-transmission, the paper's headline recovery property. This is
    /// the one call every recovery hook makes:
    ///
    /// - `NodeCrash`: the volatile done-flags and cursors are gone, so
    ///   rewind to the persisted head and replay every incomplete entry
    ///   after it (send-based kinds also re-arm the recv ring).
    /// - `ServiceCrash`: replay the un-done log suffix *without*
    ///   rewinding cursors. A service-only crash preserves the NIC, PM
    ///   and the shared cursor, and clients keep appending one-sided
    ///   entries while the service is away, so a tail rewind would
    ///   reissue indices the client already used. Entries a queued
    ///   arrival also delivers are applied once: the processing path
    ///   skips already-done entries.
    /// - any other fault leaves the log alone and returns 0.
    pub fn recover(&self, fault: &FaultKind) -> usize {
        let core = &self.core;
        let pending = match fault {
            FaultKind::NodeCrash { .. } => {
                let pending = core.log.recover();
                core.shared.puts_logged.set(core.log.cursor().tail());
                if let Some(m) = core.node.metrics() {
                    m.incr(Key::new("log_replayed"), pending.len() as u64);
                }
                if core.shared.kind.is_send_based() {
                    // Re-arm the recv ring. A send in flight at the crash
                    // consumed a recv WQE that can never complete (the NIC
                    // that would have written its CQE lost power), so the
                    // surviving pre-posted ring is offset from the
                    // recovered log tail: every later entry would DMA into
                    // the wrong slot and be dropped as invalid, wedging the
                    // connection for good. Flush the ring — QP-error
                    // semantics — and re-post a full window starting at
                    // the slot the client will append next.
                    let layout = *core.log.layout();
                    let window = (layout.slots / 2).max(1);
                    let tail = core.log.cursor().tail();
                    self.log_qp_server.flush_recvs();
                    for i in tail..tail + window {
                        self.log_qp_server
                            .post_recv(MemTarget::Pm(layout.slot_addr(i)));
                    }
                    core.shared.next_recv_index.set(tail + window);
                }
                pending
            }
            FaultKind::ServiceCrash { .. } => core.log.scan_pending(),
            _ => return 0,
        };
        // Hand the recovered entries to the worker pool in log order.
        for e in &pending {
            let _ = core.shared.work_tx.send(Work::Entry {
                index: e.index,
                data: Payload::from_bytes(e.payload.clone()),
            });
        }
        pending.len()
    }
}

impl ServerCore {
    /// The tail both arrival loops share (each detects arrivals its own
    /// way): notice the entry once the service is up. Under
    /// receiver-initiated kinds the client waits for the persist-ACK this
    /// produces, so it is on the critical path; under sender-initiated
    /// kinds the client returned at its flush ACK, so it is off-path.
    async fn deliver(&self, index: u64, image: Payload, durable_on_arrival: bool) {
        self.node.wait_service_up().await;
        let arrival = self.handle_arrival(index, image, durable_on_arrival);
        if self.shared.kind.is_receiver_initiated() {
            arrival.await;
        } else {
            self.node.tracer().offpath_scope(arrival).await;
        }
    }

    /// Handle an arrived log entry: receiver-initiated kinds persist and
    /// ACK; all kinds enqueue processing work.
    async fn handle_arrival(&self, index: u64, image: Payload, durable_on_arrival: bool) {
        let shared = &self.shared;
        // An arrival whose slot never became a valid committed entry (its DMA
        // was aborted by a crash) or that was already applied (a stale
        // notification after a recovery replay) must not be counted, ACKed,
        // or processed — recovery accounts for it instead.
        match self.log.read_entry(index) {
            Some(e) if !e.done => {}
            _ => return,
        }
        shared.puts_logged.set(shared.puts_logged.get() + 1);
        if let Some(c) = &shared.m_puts_logged {
            c.incr(1);
        }
        let data = entry_data_part(&image);

        // The receiver CPU notices the message by polling.
        self.node.cpu.poll_dispatch().await;

        if shared.kind.is_receiver_initiated() {
            // RFlush: ensure durability, then ACK persistence immediately.
            if !durable_on_arrival {
                // DDIO routed it into the LLC: flush the entry range.
                let layout = self.log.layout();
                let addr = layout.slot_addr(index);
                let len = ENTRY_HEADER + align8(data.len()) + ENTRY_FOOTER;
                if self.node.pm.is_persisted(addr, len) {
                    // Synthetic payload path: charge the flush time.
                    self.node.pm.simulate_clflush_time(len).await;
                } else {
                    let _ = self.node.pm.clflush(addr, len).await;
                }
            }
            // Persist-ACK: small write into the client's ack slot. The client
            // waiter fires only on the entry it is waiting for (the last of a
            // batch).
            if let Ok(tok) = self
                .resp_qp
                .write(MemTarget::Dram(ACK_ADDR), Payload::synthetic(8, index))
                .await
            {
                let waiter = if shared.puts_logged.get() >= shared.ack_after.get() {
                    shared.ack_waiter.borrow_mut().take()
                } else {
                    None
                };
                let h = self.resp_qp.local().handle().clone();
                h.spawn(async move {
                    tok.wait().await;
                    if let Some(w) = waiter {
                        w.send(());
                    }
                });
            }
        }

        let _ = shared.work_tx.send(Work::Entry { index, data });
    }

    /// Run one work item on a pool thread, against the handler's `log`.
    async fn serve(&self, log: &RedoLog, work: Work) {
        match work {
            Work::Entry { index, data } => {
                // Processing is decoupled from the durability ACK under
                // every kind — off the critical path.
                self.node
                    .tracer()
                    .offpath_scope(self.process_entry(log, index, data))
                    .await;
                let shared = &self.shared;
                shared.puts_processed.set(shared.puts_processed.get() + 1);
                if let Some(c) = &shared.m_puts_processed {
                    c.incr(1);
                }
            }
            Work::Get {
                obj,
                len,
                count,
                reply,
            } => self.serve_get(obj, len, count, reply).await,
        }
    }

    /// Process one logged entry: thread dispatch, the injected RPC
    /// processing time, apply to the object store, and durable completion
    /// marking.
    async fn process_entry(&self, log: &RedoLog, index: u64, data: Payload) {
        // Idempotence guard: a service-restart replay can race an
        // already-queued arrival (or a retried client append) for the same
        // entry; only the first processing applies it.
        let Some(entry) = log.read_entry(index) else {
            return;
        };
        if entry.done {
            return;
        }
        self.node.cpu.dispatch_thread().await;
        let body = match entry.op.opcode {
            OpCode::TxnPrepare | OpCode::TxnDecide | OpCode::TxnCommit | OpCode::TxnAbort => {
                crate::txn::process_txn_entry(
                    &self.node,
                    log,
                    &self.store,
                    self.shared.txn.as_ref(),
                    &entry,
                )
                .await;
                return;
            }
            OpCode::RPut => {
                // Replicated put: the payload's first REPL_ID_BYTES are the
                // causal put id. A retry after a partial replication failure
                // re-appends the same id; only the first apply hits the store
                // (exactly-once apply under at-least-once append).
                let id = u64::from_le_bytes(
                    entry.payload[..REPL_ID_BYTES as usize]
                        .try_into()
                        .expect("RPut payload shorter than its id prefix"),
                );
                if !log.note_applied(id) {
                    self.shared
                        .puts_deduped
                        .set(self.shared.puts_deduped.get() + 1);
                    let _ = log.mark_done(index).await;
                    return;
                }
                Payload::from_bytes(entry.payload[REPL_ID_BYTES as usize..].to_vec())
            }
            // Apply: the operator comes from the log entry, the data
            // travelled with the work item.
            _ => data,
        };
        if self.profile.processing_time > SimDuration::ZERO {
            self.node.cpu.compute(self.profile.processing_time).await;
        }
        let _ = self.store.put(entry.op.obj_id, &body).await;
        let _ = log.mark_done(index).await;
    }

    /// Serve a Get/Scan: processing time, media reads, response write.
    async fn serve_get(&self, obj: u64, len: u64, count: u32, reply: OneshotSender<Payload>) {
        // Read-only requests are served run-to-completion on the polling core
        // (FaRM/HERD-style); only logged updates take the handler-pool hop.
        self.node.cpu.poll_dispatch().await;
        if self.profile.processing_time > SimDuration::ZERO {
            self.node.cpu.compute(self.profile.processing_time).await;
        }
        let mut total = 0u64;
        for i in 0..count.max(1) as u64 {
            let p = self
                .store
                .get(obj + i, len)
                .await
                .unwrap_or(Payload::synthetic(0, 0));
            total += p.len();
        }
        let payload = Payload::synthetic(total, obj);
        if let Ok(tok) = self
            .resp_qp
            .write(MemTarget::Dram(RESP_ADDR), payload.clone())
            .await
        {
            let h = self.resp_qp.local().handle().clone();
            h.spawn(async move {
                tok.wait().await;
                reply.send(payload);
            });
        } else {
            // Server->client path failed (client down?): the dropped reply
            // resolves the caller's oneshot to None and surfaces an error.
            drop(reply);
        }
    }
}

/// One redo-log entry handed to [`DurableClient::persist`].
struct LogItem {
    op: RpcOperator,
    data: Payload,
    /// Causal root of a replicated put, journaled as a `ReplLink` to the
    /// entry's rpc id.
    link: Option<u64>,
}

impl LogItem {
    fn new(opcode: OpCode, obj_id: u64, data: Payload) -> Self {
        LogItem {
            op: RpcOperator { opcode, obj_id },
            data,
            link: None,
        }
    }

    /// A put carrying causal id `id`: logged as [`OpCode::RPut`] with the
    /// id prefixed to the payload, so apply-time dedup makes a retried
    /// append exactly-once.
    fn with_id(obj: u64, data: Payload, id: u64) -> Self {
        let data = Payload::composite(vec![Payload::from_bytes(id.to_le_bytes().to_vec()), data]);
        LogItem::new(OpCode::RPut, obj, data)
    }

    fn is_put(&self) -> bool {
        matches!(self.op.opcode, OpCode::Put | OpCode::RPut)
    }
}

/// How the persist step learns its entries are durable, fixed before the
/// first entry is appended.
enum Wait {
    /// Sender-initiated kinds: the client's own `WFlush` / `SFlush` on the
    /// last entry's probe.
    Flush,
    /// Receiver-initiated kinds: the server's persist-ACK of the last entry.
    Ack(OneshotReceiver<()>),
}

/// The acknowledgement of a durable put.
fn durable_ack() -> Response {
    Response {
        payload: None,
        durable: true,
    }
}

impl DurableClient {
    /// The variant this client speaks.
    pub fn kind(&self) -> DurableKind {
        self.kind
    }

    /// The persist step behind every logging entry point: put, tagged put,
    /// record append and batched puts. Appends `items` (n ≥ 1) to the
    /// server's redo log and returns once all of them are durable, with
    /// the last entry's journal rpc id. Callers never pass an empty batch.
    /// Three stages:
    ///
    /// 1. **Register.** Receiver-initiated kinds arm the persist-ACK
    ///    waiter for the n-th entry from now, before anything can arrive.
    /// 2. **Append by transport.** Writes post all n entries behind one
    ///    doorbell; sends post one per entry, in order. Each entry then
    ///    journals its dispatch (and replication link), puts revoke cached
    ///    leases on their key, and written entries get an arrival
    ///    notifier for the server's polling thread.
    /// 3. **Wait by initiator.** The sender's flush on the last probe, or
    ///    the receiver's persist-ACK of the last entry.
    ///
    /// Puts count into the `puts` / `put_bytes` metrics; records do not.
    async fn persist(&self, items: Vec<LogItem>) -> RpcResult<u64> {
        let wait = if self.kind.is_receiver_initiated() {
            let (tx, rx) = self.ack_pool.oneshot();
            *self.shared.ack_waiter.borrow_mut() = Some(tx);
            self.shared
                .ack_after
                .set(self.shared.puts_logged.get() + items.len() as u64);
            Wait::Ack(rx)
        } else {
            Wait::Flush
        };
        // Composite span: the whole log-append + persistence-wait leg.
        let _persist = self.client_node.tracer().span(Phase::LogPersist);

        let mut logged = Vec::with_capacity(items.len());
        let mut probe = None;
        if self.kind.is_send_based() {
            for item in items {
                let appended = self.writer.append_send(item.op, &item.data).await?;
                probe = Some(appended.probe);
                logged.push(self.on_logged(&item, appended.index));
            }
        } else {
            let batch = items.iter().map(|i| (i.op, i.data.clone())).collect();
            let receipts = self.writer.append_write_batch(batch).await?;
            for (item, appended) in items.into_iter().zip(receipts) {
                probe = Some(appended.probe);
                logged.push(self.on_logged(&item, appended.index));
                self.notify_arrival(appended, item.data);
            }
        }

        match wait {
            Wait::Flush => {
                let flush = self.writer.flush();
                if let Some(probe) = probe {
                    if self.kind.is_send_based() {
                        flush.sflush(probe).await?;
                    } else {
                        flush.wflush(probe).await?;
                    }
                }
            }
            Wait::Ack(rx) => {
                let wait = self.client_node.tracer().span(Phase::FlushWait);
                rx.await.ok_or(RpcError::ServerDown)?;
                wait.end();
                self.client_node.cpu.poll_dispatch().await;
            }
        }

        let (mut puts, mut put_bytes, mut rpc_id) = (0, 0, NO_ID);
        for (id, bytes, is_put) in logged {
            self.client_node
                .obs()
                .event(Subsystem::Rpc, EventKind::RpcComplete, id, NO_ID, bytes);
            if is_put {
                puts += 1;
                put_bytes += bytes;
            }
            rpc_id = id;
        }
        if let (true, Some(m)) = (puts > 0, &self.metrics) {
            m.puts.incr(puts);
            m.put_bytes.incr(put_bytes);
        }
        Ok(rpc_id)
    }

    /// Journal one just-appended entry: its dispatch under the log-derived
    /// rpc id and, for a replicated put, the span-tree edge from the causal
    /// root to this leg. A put then revokes outstanding leases on its key —
    /// between the append and the persistence wait, so the journaled
    /// invalidation precedes the put's completion (invariant I5a) and no
    /// cached read can outlive the data it covers. Returns
    /// `(rpc_id, bytes, is_put)`.
    fn on_logged(&self, item: &LogItem, index: u64) -> (u64, u64, bool) {
        let obs = self.client_node.obs();
        let rpc_id = self.writer.journal_id(index);
        let bytes = item.data.len();
        obs.event(Subsystem::Rpc, EventKind::RpcDispatch, rpc_id, NO_ID, bytes);
        if let Some(root) = item.link {
            obs.event(Subsystem::Rpc, EventKind::ReplLink, root, rpc_id, bytes);
        }
        let is_put = item.is_put();
        if let (true, Some(lease)) = (is_put, &self.lease) {
            lease.bump(item.op.obj_id, rpc_id, obs);
        }
        (rpc_id, bytes, is_put)
    }

    /// Hand a written entry to the server's polling thread once its DMA
    /// lands (see [`ServerCore::handle_arrival`]).
    fn notify_arrival(&self, appended: Appended, data: Payload) {
        let shared = Rc::clone(&self.shared);
        let h = self.get_qp.local().handle().clone();
        h.spawn(async move {
            let durable = appended.token.wait().await;
            let _ = shared.arrival_tx.send(Arrival {
                index: appended.index,
                data,
                durable,
            });
        });
    }

    /// A put carrying a causal replication id: logged as [`OpCode::RPut`]
    /// with the id prefixed to the payload, deduplicated at apply time so
    /// a retry after a partial replication failure never double-applies
    /// on a replica that already ACKed. Runs under this client's
    /// [`RetryPolicy`] like [`RpcClient::call`].
    pub async fn put_tagged(&self, obj: u64, data: Payload, put_id: u64) -> RpcResult<Response> {
        self.retry_loop(|| {
            let mut item = LogItem::with_id(obj, data.clone(), put_id);
            item.link = Some(put_id);
            self.persist(vec![item])
        })
        .await?;
        Ok(durable_ack())
    }

    /// Durably append an arbitrary log record (transaction prepare /
    /// decide / commit / abort) under this connection's [`RetryPolicy`]
    /// and wait for its persistence signal — the flush ACK or the
    /// receiver persist-ACK, per the configured durable kind. Returns the
    /// record's journal rpc id. The record is *not* applied to the object
    /// store here; the server's worker pool interprets it (see
    /// `process_txn_entry`). Appends are at-least-once under retry;
    /// interpreters must tolerate duplicate records for one txn id.
    pub async fn append_record(
        &self,
        opcode: OpCode,
        obj_id: u64,
        data: Payload,
    ) -> RpcResult<u64> {
        self.retry_loop(|| self.persist(vec![LogItem::new(opcode, obj_id, data.clone())]))
            .await
    }

    async fn do_get(&self, obj: u64, len: u64, count: u32) -> RpcResult<Response> {
        let obs = self.client_node.obs();
        let rpc_id = obs.next_rpc_id();
        obs.event(
            Subsystem::Rpc,
            EventKind::RpcDispatch,
            rpc_id,
            NO_ID,
            GET_DESC_BYTES,
        );
        let (tx, rx) = self.reply_pool.oneshot();
        if self.kind.is_send_based() {
            self.get_qp
                .send(Payload::synthetic(GET_DESC_BYTES, obj))
                .await?;
            let _ = self.shared.work_tx.send(Work::Get {
                obj,
                len,
                count,
                reply: tx,
            });
        } else {
            // One-sided descriptor write into the server's request slot,
            // detected by the server's polling thread when the DMA lands.
            let req_addr = self.lane as u64 * REQ_SLOT_BYTES;
            let token = self
                .get_qp
                .write(
                    MemTarget::Dram(req_addr),
                    Payload::synthetic(GET_DESC_BYTES, obj),
                )
                .await?;
            let shared = Rc::clone(&self.shared);
            let h = self.get_qp.local().handle().clone();
            h.spawn(async move {
                let _ = token.wait().await;
                let _ = shared.work_tx.send(Work::Get {
                    obj,
                    len,
                    count,
                    reply: tx,
                });
            });
        }
        let payload = rx.await.ok_or(RpcError::ServerDown)?;
        self.client_node.cpu.poll_dispatch().await;
        let bytes = payload.len();
        obs.event(Subsystem::Rpc, EventKind::RpcComplete, rpc_id, NO_ID, bytes);
        if let Some(m) = &self.metrics {
            m.gets.incr(1);
        }
        Ok(Response {
            payload: Some(payload),
            durable: true,
        })
    }

    /// Allocate the next per-op causal id for a batched put. Allocated
    /// once per logical op in `call_batch` *before* its retry loop, so a
    /// whole-batch retry after a mid-batch crash re-appends the same ids
    /// and the server's `note_applied` dedup makes each op exactly-once.
    fn alloc_batch_id(&self) -> u64 {
        let n = self.next_batch_id.get();
        self.next_batch_id.set(n + 1);
        BATCH_ID_BASE | ((self.client_node.id.0 as u64) << 36) | ((self.lane as u64) << 24) | n
    }

    /// Batched puts (paper Fig. 19 / Section 4.3) under the retry policy:
    /// one doorbell for the writes, one coalesced flush (sender-initiated
    /// kinds) or one final persist-ACK (receiver-initiated kinds). Each
    /// item carries its caller-allocated causal id, so apply-time dedup
    /// survives whole-batch retries.
    async fn put_batch(&self, puts: Vec<(u64, Payload, u64)>) -> RpcResult<Vec<Response>> {
        if puts.is_empty() {
            return Ok(Vec::new());
        }
        let k = puts.len();
        self.retry_loop(|| {
            let items = puts
                .iter()
                .map(|(obj, data, id)| LogItem::with_id(*obj, data.clone(), *id))
                .collect();
            self.persist(items)
        })
        .await?;
        Ok(vec![durable_ack(); k])
    }

    /// Run `attempt` under the configured [`RetryPolicy`]: each attempt
    /// gets `request_timeout` of budget; retryable failures (transport
    /// errors, server outages, timeouts) back off and re-send. Durable-RPC
    /// retries are idempotent: a retried put re-appends a fresh log entry
    /// and the second application of the same object write is a no-op.
    async fn retry_loop<T, Fut, F>(&self, mut attempt: F) -> RpcResult<T>
    where
        Fut: std::future::Future<Output = RpcResult<T>>,
        F: FnMut() -> Fut,
    {
        let h = self.get_qp.local().handle().clone();
        let start = h.now();
        if let Some(m) = &self.metrics {
            m.inflight.add(1);
        }
        let mut retries = 0u32;
        let result = loop {
            match prdma_simnet::timeout(&h, self.retry.request_timeout, attempt()).await {
                Ok(Ok(resp)) => break Ok(resp),
                Ok(Err(e)) if !e.is_retryable() => break Err(e),
                Ok(Err(e)) => {
                    if let Some(m) = &self.metrics {
                        m.rpc_retries.incr(1);
                    }
                    if retries >= self.retry.max_retries {
                        break Err(e);
                    }
                }
                Err(_elapsed) => {
                    if let Some(m) = &self.metrics {
                        m.rpc_timeouts.incr(1);
                    }
                    if retries >= self.retry.max_retries {
                        break Err(RpcError::TimedOut);
                    }
                }
            }
            retries += 1;
            let delay = self
                .retry
                .delay(retries - 1, &mut self.retry_rng.borrow_mut());
            h.sleep(delay).await;
        };
        if let Some(m) = &self.metrics {
            m.inflight.add(-1);
            m.latency.observe_duration(h.now() - start);
            if result.is_ok() {
                m.rpc_ok.incr(1);
            } else {
                m.rpc_failed.incr(1);
            }
        }
        result
    }

    async fn dispatch_one(&self, req: Request) -> RpcResult<Response> {
        match req {
            Request::Put { obj, data } => {
                self.persist(vec![LogItem::new(OpCode::Put, obj, data)])
                    .await?;
                Ok(durable_ack())
            }
            Request::Get { obj, len } => self.do_get(obj, len, 1).await,
            Request::Scan { start, count, len } => self.do_get(start, len, count).await,
        }
    }
}

impl RpcClient for DurableClient {
    fn call(&self, req: Request) -> RpcFuture<'_> {
        Box::pin(async move { self.retry_loop(|| self.dispatch_one(req.clone())).await })
    }

    fn call_batch(&self, reqs: Vec<Request>) -> crate::rpc::RpcBatchFuture<'_> {
        Box::pin(async move {
            // Batch contiguous puts; other requests run individually.
            // Causal ids are fixed here, outside the retry loop, so a
            // whole-batch re-send after a mid-batch crash deduplicates at
            // apply time (exactly-once per logical op).
            let mut out = Vec::with_capacity(reqs.len());
            let mut puts = Vec::new();
            for req in reqs {
                match req {
                    Request::Put { obj, data } => puts.push((obj, data, self.alloc_batch_id())),
                    other => {
                        out.extend(self.put_batch(std::mem::take(&mut puts)).await?);
                        out.push(self.call(other).await?);
                    }
                }
            }
            out.extend(self.put_batch(puts).await?);
            Ok(out)
        })
    }

    fn name(&self) -> &'static str {
        self.kind.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prdma_node::ClusterConfig;
    use prdma_simnet::Sim;

    fn setup(
        sim: &Sim,
        kind: DurableKind,
        profile: ServerProfile,
    ) -> (DurableClient, DurableServer, Cluster) {
        let cluster = Cluster::new(sim.handle(), ClusterConfig::with_nodes(2));
        let cfg = DurableConfig {
            kind,
            profile,
            slot_payload: 4096,
            object_slot: 4096,
            store_capacity: 1 << 20,
            log_slots: 64,
            ..Default::default()
        };
        let (c, s) = build_durable(&cluster, 1, 0, 0, cfg);
        s.start();
        (c, s, cluster)
    }

    #[test]
    fn put_round_trips_for_every_kind() {
        for kind in DurableKind::ALL {
            let mut sim = Sim::new(11);
            let (client, server, _cluster) = setup(&sim, kind, ServerProfile::light());
            let store = server.store().clone();
            sim.block_on(async move {
                let resp = client
                    .call(Request::Put {
                        obj: 3,
                        data: Payload::from_bytes(b"durable bytes".to_vec()),
                    })
                    .await
                    .unwrap();
                assert!(resp.durable, "{kind:?}");
            });
            // Drain remaining processing.
            sim.run();
            assert_eq!(
                store.persistent_bytes(3, 13),
                b"durable bytes",
                "{kind:?} must apply the put"
            );
        }
    }

    #[test]
    fn get_returns_requested_length() {
        for kind in [DurableKind::WFlush, DurableKind::SFlush] {
            let mut sim = Sim::new(7);
            let (client, _server, _cluster) = setup(&sim, kind, ServerProfile::light());
            let got = sim.block_on(async move {
                client
                    .call(Request::Put {
                        obj: 9,
                        data: Payload::synthetic(1024, 9),
                    })
                    .await
                    .unwrap();
                client
                    .call(Request::Get { obj: 9, len: 1024 })
                    .await
                    .unwrap()
            });
            assert_eq!(got.payload.unwrap().len(), 1024, "{kind:?}");
        }
    }

    #[test]
    fn scan_aggregates_objects() {
        let mut sim = Sim::new(7);
        let (client, _server, _cluster) = setup(&sim, DurableKind::WFlush, ServerProfile::light());
        let got = sim.block_on(async move {
            client
                .call(Request::Scan {
                    start: 0,
                    count: 8,
                    len: 100,
                })
                .await
                .unwrap()
        });
        assert_eq!(got.payload.unwrap().len(), 800);
    }

    #[test]
    fn heavy_load_put_returns_before_processing_completes() {
        // The decoupling property: with 100us processing, the durable put
        // must resolve in far less than 100us.
        for kind in DurableKind::ALL {
            let mut sim = Sim::new(3);
            let (client, server, _cluster) = setup(&sim, kind, ServerProfile::heavy());
            let h = sim.handle();
            let t = sim.block_on(async move {
                client
                    .call(Request::Put {
                        obj: 0,
                        data: Payload::synthetic(1024, 0),
                    })
                    .await
                    .unwrap();
                h.now()
            });
            assert!(
                t.as_nanos() < 60_000,
                "{kind:?} put took {t}, not decoupled from processing"
            );
            assert_eq!(server.puts_processed(), 0, "{kind:?} processed too early");
            sim.run();
            assert_eq!(
                server.puts_processed(),
                1,
                "{kind:?} must finish eventually"
            );
        }
    }

    /// `recover` dispatches on the fault: a node crash replays the
    /// incomplete suffix, a service crash requeues it with the cursors
    /// untouched, and every other fault leaves the log alone.
    #[test]
    fn recover_dispatches_on_the_fault_kind() {
        let mut sim = Sim::new(13);
        let mut ccfg = ClusterConfig::with_nodes(2);
        ccfg.journal = true;
        let cluster = Cluster::new(sim.handle(), ccfg);
        let cfg = DurableConfig {
            // 100 µs dispatch: every put is still unprocessed below.
            profile: ServerProfile::heavy(),
            slot_payload: 4096,
            object_slot: 4096,
            store_capacity: 1 << 20,
            log_slots: 64,
            ..Default::default()
        };
        let (client, server) = build_durable(&cluster, 1, 0, 0, cfg);
        server.start();
        sim.block_on(async move {
            for obj in 0..3 {
                let data = Payload::synthetic(256, obj);
                client.call(Request::Put { obj, data }).await.unwrap();
            }
        });
        let brief = SimDuration::from_micros(1);
        for fault in [
            FaultKind::SramLoss,
            FaultKind::LossBurst {
                rate: 0.5,
                duration: brief,
            },
            FaultKind::LinkDegrade {
                factor: 2.0,
                duration: brief,
            },
        ] {
            let journaled = cluster.journal_records().len();
            assert_eq!(server.recover(&fault), 0, "{}", fault.name());
            assert_eq!(
                cluster.journal_records().len(),
                journaled,
                "{} must journal nothing",
                fault.name()
            );
        }
        let node = cluster.node(0);
        let cursor = server.log().cursor();
        node.crash_service();
        node.restart_service();
        let (head, tail) = (cursor.head(), cursor.tail());
        let service = FaultKind::ServiceCrash { down_for: brief };
        assert_eq!(server.recover(&service), 3);
        assert_eq!((cursor.head(), cursor.tail()), (head, tail));
        node.crash();
        node.restart();
        let crash = FaultKind::NodeCrash { down_for: brief };
        assert!(server.recover(&crash) > 0, "node crash replays the suffix");
    }

    #[test]
    fn crash_after_put_recovers_from_log_without_resend() {
        for kind in [DurableKind::WFlush, DurableKind::SRFlush] {
            let mut sim = Sim::new(5);
            // Heavy processing so the entry is still unprocessed at crash.
            let (client, server, cluster) = setup(&sim, kind, ServerProfile::heavy());
            let node = cluster.node(0).clone();
            let store = server.store().clone();
            let log = server.log().clone();
            sim.block_on(async move {
                client
                    .call(Request::Put {
                        obj: 5,
                        data: Payload::from_bytes(vec![0x5A; 256]),
                    })
                    .await
                    .unwrap();
                // Persistence was ACKed; crash before processing finishes.
                node.crash();
                node.restart();
            });
            // Old tasks are stale; recover directly from the log.
            let pending = log.recover();
            assert_eq!(pending.len(), 1, "{kind:?}");
            assert_eq!(pending[0].op.obj_id, 5);
            assert_eq!(pending[0].payload, vec![0x5A; 256]);
            // Replay applies the put with no client involvement.
            let sim2_store = store;
            let replayed = pending[0].clone();
            let mut sim = sim; // reuse the same sim to apply
            sim.block_on(async move {
                sim2_store
                    .put(replayed.op.obj_id, &Payload::from_bytes(replayed.payload))
                    .await
                    .unwrap();
            });
        }
    }

    #[test]
    fn wflush_is_not_slower_than_wrflush_under_idle_network() {
        // Paper: sender- and receiver-initiated variants perform similarly.
        let time_for = |kind| {
            let mut sim = Sim::new(9);
            let (client, _s, _c) = setup(&sim, kind, ServerProfile::light());
            let h = sim.handle();
            sim.block_on(async move {
                for _ in 0..10 {
                    client
                        .call(Request::Put {
                            obj: 1,
                            data: Payload::synthetic(1024, 1),
                        })
                        .await
                        .unwrap();
                }
                h.now()
            })
        };
        let t_w = time_for(DurableKind::WFlush);
        let t_wr = time_for(DurableKind::WRFlush);
        let ratio = t_w.as_nanos() as f64 / t_wr.as_nanos() as f64;
        assert!((0.5..2.0).contains(&ratio), "w {t_w} vs wr {t_wr}");
    }

    #[test]
    fn batched_puts_count_their_bytes() {
        for kind in DurableKind::ALL {
            let mut sim = Sim::new(19);
            let (client, _server, cluster) = setup(&sim, kind, ServerProfile::light());
            let metrics = cluster.node(1).metrics().unwrap().clone();
            sim.block_on(async move {
                let puts = (0..4)
                    .map(|i| Request::Put {
                        obj: i,
                        data: Payload::synthetic(1000, i),
                    })
                    .collect();
                client.call_batch(puts).await.unwrap();
            });
            let counter = |name| metrics.counter(Key::new(name).shard(0).kind(kind.name()));
            assert_eq!(counter("puts"), 4, "{kind:?}");
            // Each batched entry is logged with its causal id ahead of the value.
            assert_eq!(counter("put_bytes"), 4 * (1000 + REPL_ID_BYTES), "{kind:?}");
        }
    }

    #[test]
    fn small_ring_clamps_head_persist_interval() {
        // 16 slots at the default interval of 16: without the clamp the
        // wrap guard waits for a head persist that needs more completions
        // than the ring can hold.
        let mut sim = Sim::new(17);
        let cluster = Cluster::new(sim.handle(), ClusterConfig::with_nodes(2));
        let cfg = DurableConfig {
            log_slots: 16,
            slot_payload: 4096,
            object_slot: 4096,
            store_capacity: 1 << 20,
            ..Default::default()
        };
        assert_eq!(cfg.head_persist_interval, 16);
        let (client, server) = build_durable(&cluster, 1, 0, 0, cfg);
        server.start();
        let h = sim.handle();
        let t = sim.block_on(async move {
            for i in 0..200 {
                client
                    .call(Request::Put {
                        obj: i % 8,
                        data: Payload::synthetic(1024, i),
                    })
                    .await
                    .unwrap();
            }
            h.now()
        });
        assert!(t.as_nanos() < 5_000_000, "200 puts took {t}");
    }

    #[test]
    fn pipelined_puts_overlap_processing() {
        // 10 heavy puts: total time must be far less than 10 * 100us.
        let mut sim = Sim::new(13);
        let (client, server, _cluster) = setup(&sim, DurableKind::WFlush, ServerProfile::heavy());
        let h = sim.handle();
        let t = sim.block_on(async move {
            for i in 0..10 {
                client
                    .call(Request::Put {
                        obj: i,
                        data: Payload::synthetic(1024, i),
                    })
                    .await
                    .unwrap();
            }
            h.now()
        });
        assert!(
            t.as_nanos() < 500_000,
            "puts did not pipeline with processing: {t}"
        );
        sim.run();
        assert_eq!(server.puts_processed(), 10);
    }
}
