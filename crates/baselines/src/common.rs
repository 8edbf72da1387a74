//! Shared machinery for the nine baseline RPC systems (paper Table 1,
//! Fig. 2).
//!
//! Every baseline couples remote persistence to RPC completion: the client
//! gets no signal until the server has parsed the request, copied and
//! persisted the data, run the (possibly 100 µs) RPC processing, and sent
//! a reply. Because the client blocks for the full round trip, each
//! baseline's `call()` models the entire exchange inline — server-side
//! costs are charged against the *server's* CPU/PM/NIC resources, so
//! contention across concurrent clients is still captured.

use prdma::{ObjectStore, Request, Response, RpcResult, ServerProfile};
use prdma_node::{Cluster, Node};
use prdma_rnic::{MemTarget, Payload, Qp, QpMode};
use prdma_simnet::journal::{EventKind, Subsystem, NO_ID};

/// Wire header bytes on every baseline request/response.
pub const MSG_HEADER: u64 = 32;

/// Per-lane message slot pitch in the server's DRAM ring (fits a 64 KB
/// object plus headers).
pub const SLOT_PITCH: u64 = 144 * 1024;

/// Client-side DRAM offsets.
pub const CLIENT_RESP_ADDR: u64 = 0;

/// Server-side endpoints and cost model shared by baseline
/// implementations.
pub struct ServerCtx {
    /// The server node (CPU, PM, DRAM).
    pub node: Node,
    /// The shared object store in the server's PM.
    pub store: ObjectStore,
    /// Load profile (processing time).
    pub profile: ServerProfile,
    /// This connection's lane (message-slot selector).
    pub lane: usize,
}

impl ServerCtx {
    /// Build (or join) the server context: allocates the shared object
    /// store on first use.
    pub fn new(
        cluster: &Cluster,
        server_idx: usize,
        lane: usize,
        profile: ServerProfile,
        object_slot: u64,
        store_capacity: u64,
    ) -> Self {
        let node = cluster.node(server_idx).clone();
        let region = match node.alloc.lookup("objects") {
            Some(r) => r,
            None => node
                .alloc
                .alloc("objects", store_capacity.min(node.alloc.remaining()), 64)
                .expect("PM too small for object store"),
        };
        let store = ObjectStore::new(node.pm.clone(), region, object_slot);
        ServerCtx {
            node,
            store,
            profile,
            lane,
        }
    }

    /// DRAM address of this lane's request message slot.
    pub fn req_slot(&self) -> u64 {
        self.lane as u64 * SLOT_PITCH
    }

    /// Server-side handling of a `Put`: copy out of the message buffer,
    /// persist into the PM store (durable before any reply — this is what
    /// makes every baseline a *durable* RPC), then the injected processing.
    pub async fn handle_put(&self, obj: u64, data: &Payload) {
        self.node.cpu.memcpy(data.len()).await;
        let _ = self.store.put(obj, data).await;
        self.process().await;
    }

    /// Server-side handling of a `Get`/`Scan`: processing + media reads.
    /// Returns the response payload.
    pub async fn handle_get(&self, obj: u64, len: u64, count: u32) -> Payload {
        self.process().await;
        let mut total = 0u64;
        for i in 0..count.max(1) as u64 {
            let p = self
                .store
                .get(obj + i, len)
                .await
                .unwrap_or(Payload::synthetic(0, 0));
            total += p.len();
        }
        Payload::synthetic(total, obj)
    }

    /// The injected RPC processing time (100 µs under the heavy profile).
    pub async fn process(&self) {
        if self.profile.processing_time > prdma_simnet::SimDuration::ZERO {
            self.node.cpu.compute(self.profile.processing_time).await;
        }
    }
}

/// The wire image of a request: a real-time header plus the data.
pub fn request_image(req: &Request) -> Payload {
    match req {
        Request::Put { data, .. } => {
            Payload::composite(vec![Payload::synthetic(MSG_HEADER, 0), data.clone()])
        }
        _ => Payload::synthetic(MSG_HEADER, 0),
    }
}

/// Decompose a request for server-side handling.
pub fn request_parts(req: &Request) -> (bool, u64, u64, u32, Option<Payload>) {
    match req {
        Request::Put { obj, data } => (true, *obj, data.len(), 1, Some(data.clone())),
        Request::Get { obj, len } => (false, *obj, *len, 1, None),
        Request::Scan { start, count, len } => (false, *start, *len, *count, None),
    }
}

/// Standard QP bundle used by most baselines: a client→server QP and a
/// server→client QP (the latter posts through the *server's* CPU).
pub struct QpPair {
    /// Client-side endpoint of the forward QP.
    pub fwd: Qp,
    /// Server-side endpoint of the forward QP (for `post_recv`/`recv`).
    pub fwd_server: Qp,
    /// Server-side endpoint of the reverse QP (server posts replies here).
    pub rev: Qp,
    /// Client-side endpoint of the reverse QP.
    pub rev_client: Qp,
}

/// Connect the standard pair with the given forward transport mode; the
/// reverse path uses `rev_mode`.
pub fn qp_pair(
    cluster: &Cluster,
    client_idx: usize,
    server_idx: usize,
    fwd_mode: QpMode,
    rev_mode: QpMode,
) -> QpPair {
    let (fwd, fwd_server) = cluster.connect(client_idx, server_idx, fwd_mode);
    let (rev, rev_client) = cluster.connect(server_idx, client_idx, rev_mode);
    QpPair {
        fwd,
        fwd_server,
        rev,
        rev_client,
    }
}

/// Model the client noticing a completion by polling its own memory.
pub async fn client_poll(node: &Node) {
    node.cpu.poll_dispatch().await;
}

/// Deliver a reply of `len` bytes by RDMA write into the client's response
/// buffer and wait until its DMA lands (the client polls its memory).
pub async fn reply_by_write(pair_rev: &Qp, client_node: &Node, len: u64) -> RpcResult<()> {
    let tok = pair_rev
        .write(
            MemTarget::Dram(CLIENT_RESP_ADDR),
            Payload::synthetic(MSG_HEADER + len, 0),
        )
        .await?;
    tok.wait().await;
    client_poll(client_node).await;
    Ok(())
}

/// Deliver a reply via two-sided send (the client posts a recv and blocks
/// on the completion). Returns whether the reply was actually delivered —
/// `false` only on lossy unreliable transports, where the caller should
/// retry the operation.
pub async fn reply_by_send(
    rev: &Qp,
    rev_client: &Qp,
    client_node: &Node,
    len: u64,
) -> RpcResult<bool> {
    rev_client.post_recv(MemTarget::Dram(CLIENT_RESP_ADDR));
    let tok = rev.send(Payload::synthetic(MSG_HEADER + len, 0)).await?;
    let outcome = tok.wait_outcome().await;
    let _ = rev_client.try_recv();
    if !outcome.delivered {
        return Ok(false);
    }
    // The client's recv path pays full two-sided dispatch, not a poll.
    client_node.cpu.parse_request().await;
    Ok(true)
}

/// Journal the start of one baseline RPC on the client node: allocates an
/// rpc id and emits `RpcDispatch`. Returns [`NO_ID`] (and records nothing)
/// when journaling is disabled.
pub fn rpc_begin(client_node: &Node, bytes: u64) -> u64 {
    match client_node.journal() {
        Some(j) => {
            let id = j.next_rpc_id();
            j.record(Subsystem::Rpc, EventKind::RpcDispatch, id, NO_ID, bytes);
            id
        }
        None => NO_ID,
    }
}

/// Journal the completion of a baseline RPC begun with [`rpc_begin`].
pub fn rpc_end(client_node: &Node, rpc_id: u64, bytes: u64) {
    if rpc_id == NO_ID {
        return;
    }
    if let Some(j) = client_node.journal() {
        j.record(Subsystem::Rpc, EventKind::RpcComplete, rpc_id, NO_ID, bytes);
    }
}

/// Run one baseline roundtrip bracketed by [`rpc_begin`]/[`rpc_end`]
/// records (a no-op when journaling is disabled).
pub async fn journaled_call<F>(
    client_node: &Node,
    req_bytes: u64,
    roundtrip: F,
) -> RpcResult<Response>
where
    F: std::future::Future<Output = RpcResult<Response>>,
{
    let id = rpc_begin(client_node, req_bytes);
    let r = roundtrip.await;
    if let Ok(resp) = &r {
        rpc_end(
            client_node,
            id,
            resp.payload.as_ref().map_or(0, Payload::len),
        );
    }
    r
}
