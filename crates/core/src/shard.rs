//! Sharded KV routing: a shard map over object ids plus a client-side
//! router that spreads one logical KV service across several server
//! nodes, each with its own CPU, PM, RNIC, and redo log.
//!
//! The paper's durable RPCs are the substrate for partitioned services
//! (its YCSB/Octopus evaluations); this module supplies the partitioning.
//! Every shard is an independent failure domain: a crash of one shard's
//! server stalls only the requests routed there — the other shards' logs,
//! stores, and connections never see it.
//!
//! Routing translates a *global* object id into `(shard, local id)`.
//! Local ids must stay dense per shard so each shard's
//! [`ObjectStore`](crate::store::ObjectStore) region can be sized to its
//! share of the keyspace and never wraps (see the aliasing guard in
//! `store.rs`).

use std::cell::Cell;
use std::rc::Rc;

use crate::cache::{CacheConfig, CachedClient, LeaseState};
use crate::durable::{connect, DurableConfig, DurableServer, Wiring};
use crate::replication::{build_replicated_group, GroupView, ReplicaGroup};
use crate::rpc::{Request, Response, RpcBatchFuture, RpcClient, RpcError, RpcFuture, RpcResult};
use crate::store::MirrorRegion;
use prdma_node::{Cluster, FaultInjector};
use prdma_rnic::QpMode;

/// How global object ids map onto shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardPolicy {
    /// `shard = id % shards`, `local = id / shards`. Consecutive ids
    /// round-robin across shards — zipfian-hot key prefixes spread out,
    /// scans decompose into one dense run per shard, and local ids stay
    /// packed in `[0, ids/shards]`, so per-shard regions never wrap.
    Striped,
    /// `shard = mix64(id) % shards`, `local = id`. A fixed hash ring
    /// (what consistent hashing degenerates to with a static shard
    /// count). Placement is oblivious to id structure, but local ids
    /// span the whole global id space — per-shard stores must be sized
    /// for it, or rely on the aliasing guard to catch wraps.
    Hashed,
}

/// A static map from global object ids to `(shard, local id)`.
#[derive(Debug, Clone, Copy)]
pub struct ShardMap {
    shards: usize,
    policy: ShardPolicy,
}

/// SplitMix64 finalizer: a well-mixed 64-bit permutation.
#[inline]
fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

impl ShardMap {
    /// A striped map over `shards` shards (the default policy).
    pub fn new(shards: usize) -> Self {
        ShardMap::with_policy(shards, ShardPolicy::Striped)
    }

    /// A map with an explicit policy.
    pub fn with_policy(shards: usize, policy: ShardPolicy) -> Self {
        assert!(shards >= 1, "need at least one shard");
        ShardMap { shards, policy }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The shard serving global id `obj`.
    pub fn shard_of(&self, obj: u64) -> usize {
        match self.policy {
            ShardPolicy::Striped => (obj % self.shards as u64) as usize,
            ShardPolicy::Hashed => (mix64(obj) % self.shards as u64) as usize,
        }
    }

    /// Route global id `obj` to `(shard, local id)`.
    pub fn route(&self, obj: u64) -> (usize, u64) {
        match self.policy {
            ShardPolicy::Striped => (
                (obj % self.shards as u64) as usize,
                obj / self.shards as u64,
            ),
            ShardPolicy::Hashed => ((mix64(obj) % self.shards as u64) as usize, obj),
        }
    }

    /// Local ids needed per shard to hold `objects` global ids without
    /// slot reuse (region sizing for benches: objects × slot bytes per
    /// shard under striping; the full id space under hashing).
    pub fn local_span(&self, objects: u64) -> u64 {
        match self.policy {
            ShardPolicy::Striped => objects.div_ceil(self.shards as u64).max(1),
            ShardPolicy::Hashed => objects.max(1),
        }
    }

    /// Decompose the global scan `[start, start + count)` into per-shard
    /// runs of consecutive *local* ids, in global id order: each element
    /// is `(shard, local start, run length)`. Striped maps yield at most
    /// one run per shard; hashed maps yield one run per shard transition.
    pub fn split_scan(&self, start: u64, count: u32) -> Vec<(usize, u64, u32)> {
        let mut runs: Vec<(usize, u64, u32)> = Vec::new();
        for g in start..start.saturating_add(count as u64) {
            let (shard, local) = self.route(g);
            match runs.last_mut() {
                Some((s, l, n)) if *s == shard && *l + *n as u64 == local => *n += 1,
                _ => runs.push((shard, local, 1)),
            }
        }
        // Coalesce non-adjacent repeats of the same shard's dense run
        // (striping visits shards cyclically: shard s appears once per
        // cycle, with consecutive locals).
        let mut merged: Vec<(usize, u64, u32)> = Vec::new();
        for (shard, local, n) in runs {
            match merged.iter_mut().find(|(s, ..)| *s == shard) {
                Some((_, l, m)) if *l + *m as u64 == local => *m += n,
                Some(_) => merged.push((shard, local, n)),
                None => merged.push((shard, local, n)),
            }
        }
        merged
    }
}

/// A client endpoint that routes each request to the owning shard's
/// underlying [`RpcClient`]. Implements [`RpcClient`] itself, so every
/// workload driver (micro, YCSB, PageRank) runs sharded unchanged.
pub struct ShardedClient {
    map: ShardMap,
    shards: Vec<Box<dyn RpcClient>>,
    /// Per-shard replica-group views (replicated topologies only):
    /// routing is promotion-aware — each shard's endpoint fails over
    /// internally, and these views expose which epoch/primary the
    /// routing currently targets.
    views: Vec<GroupView>,
}

impl ShardedClient {
    /// Wrap one client per shard (index = shard id) under `map`.
    pub fn new(map: ShardMap, shards: Vec<Box<dyn RpcClient>>) -> Self {
        assert_eq!(map.shards(), shards.len(), "one client endpoint per shard");
        ShardedClient {
            map,
            shards,
            views: Vec::new(),
        }
    }

    /// The promotion epoch shard `shard`'s routing is on (`None` for
    /// unreplicated topologies).
    pub fn shard_epoch(&self, shard: usize) -> Option<u64> {
        self.views.get(shard).map(GroupView::epoch)
    }

    /// The node currently serving shard `shard` as primary (`None` for
    /// unreplicated topologies).
    pub fn primary_of(&self, shard: usize) -> Option<usize> {
        self.views.get(shard).map(GroupView::primary_node)
    }

    /// Batched call with structured per-shard outcomes: one shard's
    /// failure never discards another shard's completed responses (and
    /// the failed positions are reported, not panicked over). Within a
    /// shard's sub-batch, puts and gets always go through the shard's
    /// batched path (doorbell batching, coalesced flushes); only scans —
    /// which must split across shards — take the per-call path.
    pub async fn call_batch_outcomes(&self, reqs: Vec<Request>) -> ShardBatchOutcome {
        // Partition the batch by owning shard (preserving each shard's
        // sub-order); responses are restored to request order by
        // position.
        let mut per_shard: Vec<Vec<(usize, Request)>> =
            (0..self.map.shards()).map(|_| Vec::new()).collect();
        let mut total = 0usize;
        for (pos, req) in reqs.into_iter().enumerate() {
            total += 1;
            let routed = match req {
                Request::Put { obj, data } => {
                    let (shard, local) = self.map.route(obj);
                    (shard, Request::Put { obj: local, data })
                }
                Request::Get { obj, len } => {
                    let (shard, local) = self.map.route(obj);
                    (shard, Request::Get { obj: local, len })
                }
                // Scans split across shards; route through `call` on
                // the shard owning the range start.
                Request::Scan { start, count, len } => (
                    self.map.shard_of(start),
                    Request::Scan { start, count, len },
                ),
            };
            per_shard[routed.0].push((pos, routed.1));
        }
        let mut out = ShardBatchOutcome {
            responses: (0..total).map(|_| None).collect(),
            failures: Vec::new(),
        };
        for (shard, items) in per_shard.into_iter().enumerate() {
            if items.is_empty() {
                continue;
            }
            // Scans take the per-call path; everything else stays in the
            // shard's batched path, even when co-batched with a scan.
            type Positioned = Vec<(usize, Request)>;
            let (scans, batched): (Positioned, Positioned) = items
                .into_iter()
                .partition(|(_, r)| matches!(r, Request::Scan { .. }));
            let mut shard_errors: Vec<(RpcError, Vec<usize>)> = Vec::new();
            if !batched.is_empty() {
                let (positions, sub): (Vec<usize>, Vec<Request>) = batched.into_iter().unzip();
                match self.shards[shard].call_batch(sub).await {
                    Ok(resps) => {
                        for (pos, resp) in positions.into_iter().zip(resps) {
                            out.responses[pos] = Some(resp);
                        }
                    }
                    Err(e) => shard_errors.push((e, positions)),
                }
            }
            for (pos, scan) in scans {
                match self.dispatch(scan).await {
                    Ok(resp) => out.responses[pos] = Some(resp),
                    Err(e) => shard_errors.push((e, vec![pos])),
                }
            }
            if let Some((error, _)) = shard_errors.first().cloned() {
                let mut positions: Vec<usize> =
                    shard_errors.into_iter().flat_map(|(_, p)| p).collect();
                positions.sort_unstable();
                out.failures.push(ShardFailure {
                    shard,
                    error,
                    positions,
                });
            }
        }
        out
    }

    async fn dispatch(&self, req: Request) -> RpcResult<Response> {
        match req {
            Request::Put { obj, data } => {
                let (shard, local) = self.map.route(obj);
                self.shards[shard]
                    .call(Request::Put { obj: local, data })
                    .await
            }
            Request::Get { obj, len } => {
                let (shard, local) = self.map.route(obj);
                self.shards[shard]
                    .call(Request::Get { obj: local, len })
                    .await
            }
            Request::Scan { start, count, len } => {
                // Fan the range across the owning shards; the closed-loop
                // client walks the runs in global order and aggregates.
                let mut total = 0u64;
                let mut durable = true;
                for (shard, local, n) in self.map.split_scan(start, count) {
                    let r = self.shards[shard]
                        .call(Request::Scan {
                            start: local,
                            count: n,
                            len,
                        })
                        .await?;
                    total += r.payload.as_ref().map_or(0, |p| p.len());
                    durable &= r.durable;
                }
                Ok(Response {
                    payload: Some(prdma_rnic::Payload::synthetic(total, start)),
                    durable,
                })
            }
        }
    }
}

impl RpcClient for ShardedClient {
    fn call(&self, req: Request) -> RpcFuture<'_> {
        Box::pin(self.dispatch(req))
    }

    fn call_batch(&self, reqs: Vec<Request>) -> RpcBatchFuture<'_> {
        Box::pin(async move { self.call_batch_outcomes(reqs).await.into_result() })
    }

    fn name(&self) -> &'static str {
        self.shards[0].name()
    }
}

/// One shard's failure within a batched call: which shard, the error,
/// and the request positions it covers. The other shards' completed
/// responses live on in [`ShardBatchOutcome::responses`].
#[derive(Debug, Clone)]
pub struct ShardFailure {
    /// The shard whose sub-batch (or scan) failed.
    pub shard: usize,
    /// The first error that shard produced.
    pub error: RpcError,
    /// Original batch positions left unanswered by this failure, sorted.
    pub positions: Vec<usize>,
}

/// Structured result of [`ShardedClient::call_batch_outcomes`]:
/// per-position responses (`None` exactly at failed positions) plus one
/// [`ShardFailure`] per shard that errored.
#[derive(Debug)]
pub struct ShardBatchOutcome {
    /// Response per original request position; `None` where a failure
    /// left the request unanswered.
    pub responses: Vec<Option<Response>>,
    /// One entry per shard that failed, in shard order.
    pub failures: Vec<ShardFailure>,
}

impl ShardBatchOutcome {
    /// `true` when every request was answered.
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }

    /// Collapse into the legacy all-or-nothing result: the complete
    /// response vector, or the first shard failure's error.
    pub fn into_result(self) -> RpcResult<Vec<Response>> {
        if let Some(f) = self.failures.into_iter().next() {
            return Err(f.error);
        }
        Ok(self
            .responses
            .into_iter()
            .map(|r| r.expect("outcome with no failures has every response"))
            .collect())
    }
}

/// A sharded durable KV service: one router per client node plus the
/// per-shard server side that recovery wiring needs. Unreplicated shards
/// keep their connections' servers in `servers`; replicated shards keep
/// their replica groups in `groups`. The other table is empty per shard.
pub struct ShardedDurable {
    /// One sharded router per client node, in `client_nodes` order
    /// (promotion-aware when the shards are replicated).
    pub clients: Vec<ShardedClient>,
    /// `servers[shard][client]`: the server endpoint of the connection
    /// between `client_nodes[client]` and unreplicated shard `shard`
    /// (each connection owns its per-connection redo log on the shard's
    /// PM, as in the paper; the object store is shared per shard).
    pub servers: Vec<Vec<Rc<DurableServer>>>,
    /// `groups[shard][client]`: the replica group behind the connection
    /// between `client_nodes[client]` and replicated shard `shard`.
    pub groups: Vec<Vec<ReplicaGroup>>,
    /// Entries replayed on unreplicated shards (groups count their own).
    replayed: Rc<Cell<usize>>,
}

impl ShardedDurable {
    /// Wire crash recovery into the fault injector. A replicated shard
    /// fails over (instant promotion at crash time, replay + rejoin +
    /// catch-up at restart; see [`ReplicaGroup::wire_failover`]). An
    /// unreplicated shard `s` runs [`DurableServer::recover`] on every
    /// per-connection log of its server when server node `s` restarts —
    /// and only that server: the other shards never see the fault.
    pub fn wire_failover(&self, inj: &FaultInjector) {
        for g in self.groups.iter().flatten() {
            g.wire_failover(inj);
        }
        let servers = self.servers.clone();
        let replayed = Rc::clone(&self.replayed);
        inj.on_recovery(move |node, kind| {
            for s in servers.get(node).into_iter().flatten() {
                replayed.set(replayed.get() + s.recover(&kind));
            }
        });
    }

    /// Log entries replayed by recovery hooks so far, across all shards.
    pub fn replayed(&self) -> usize {
        let groups: usize = self
            .groups
            .iter()
            .flatten()
            .map(ReplicaGroup::replayed)
            .sum();
        self.replayed.get() + groups
    }
}

/// Build a sharded durable KV service: shards live on server nodes
/// `0..shards` (the cluster must have at least that many servers), and
/// every node in `client_nodes` gets one connection — with its own
/// per-connection redo log — to every shard. Per-shard object-store
/// regions are sized from `cfg.store_capacity` as configured by the
/// caller (size it to `map.local_span(objects) * object_slot` so slots
/// never wrap). All server loops are started; call
/// [`ShardedDurable::wire_failover`] to attach crash recovery to a fault
/// injector.
pub fn build_sharded_durable(
    cluster: &Cluster,
    map: ShardMap,
    client_nodes: &[usize],
    cfg: &DurableConfig,
) -> ShardedDurable {
    build_fleet(cluster, map, client_nodes, 0, cfg, None).0
}

/// Like [`build_sharded_durable`], but each shard is served by a
/// primary–backup group of `replicas` server nodes — shard `s` on nodes
/// `[s, (s+1) % shards, …]`, so every node hosts one primary and backups
/// for its neighbours — and the routers learn each shard's promotion
/// epoch. Each shard group keeps its own object-store region
/// (`objects-s<shard>`): a node hosting shard `s`'s primary and shard
/// `s−1`'s backup never mixes their object spaces.
pub fn build_replicated_sharded(
    cluster: &Cluster,
    map: ShardMap,
    client_nodes: &[usize],
    replicas: usize,
    cfg: &DurableConfig,
) -> ShardedDurable {
    assert!(replicas > 0, "need at least one replica per shard");
    build_fleet(cluster, map, client_nodes, replicas, cfg, None).0
}

/// Like [`build_sharded_durable`], with the hot-key lease cache and the
/// adaptive one-sided READ fast path in front of every shard endpoint:
/// each shard gets one [`LeaseState`] (and, when `cache.mirror` is on, a
/// server-DRAM [`MirrorRegion`] plus one RC
/// QP per client for one-sided reads) shared by all clients, and every
/// durable put bumps the key's lease epoch before its flush ACK
/// (invariant I5). Returns the service plus the per-shard lease tables
/// (index = shard id) for tests and dashboards.
pub fn build_sharded_durable_cached(
    cluster: &Cluster,
    map: ShardMap,
    client_nodes: &[usize],
    cfg: &DurableConfig,
    cache: &CacheConfig,
) -> (ShardedDurable, Vec<LeaseState>) {
    build_fleet(cluster, map, client_nodes, 0, cfg, Some(cache))
}

/// Like [`build_replicated_sharded`], with the hot-key lease cache in
/// front of every shard's replica group. The one-sided mirror tier is
/// always disabled here — a mirror QP targets one fixed member, so a
/// promotion would leave it reading a demoted node — and instead every
/// promotion of a backup revokes all leases a client holds on the shard
/// (tracked through the group's view epoch). Returns the service plus the
/// per-shard lease tables (index = shard id).
pub fn build_replicated_sharded_cached(
    cluster: &Cluster,
    map: ShardMap,
    client_nodes: &[usize],
    replicas: usize,
    cfg: &DurableConfig,
    cache: &CacheConfig,
) -> (ShardedDurable, Vec<LeaseState>) {
    assert!(replicas > 0, "need at least one replica per shard");
    build_fleet(cluster, map, client_nodes, replicas, cfg, Some(cache))
}

/// Build one shard's lease table: when the one-sided tier is enabled the
/// table is backed by a mirror region carved out of the *top half* of the
/// shard server's DRAM (the bottom is owned by the per-lane GET
/// descriptor slots), shared by every client of the shard.
fn shard_lease(cluster: &Cluster, shard: usize, cache: &CacheConfig) -> LeaseState {
    if cache.mirror {
        let dram = cluster.node(shard).dram.clone();
        let base = dram.capacity() / 2;
        let mirror = MirrorRegion::new(dram, base, cache.mirror_slot_bytes(), cache.mirror_slots);
        LeaseState::with_mirror(shard as u64, mirror)
    } else {
        LeaseState::new(shard as u64)
    }
}

/// The one construction loop behind the sharded builders: one connection
/// per (client, shard) pair, client-major. `replicas == 0` connects to
/// shard `s`'s server node `s` on lane = client position; otherwise shard
/// `s` is a replica group on nodes `[s, (s+1) % shards, …]` whose lanes
/// start at `(client * shards + s) * replicas`. `cache`, when given, puts
/// a [`CachedClient`] over each endpoint; replicated shards never get the
/// mirror tier. Returns the per-shard lease tables (empty without cache).
fn build_fleet(
    cluster: &Cluster,
    map: ShardMap,
    client_nodes: &[usize],
    replicas: usize,
    cfg: &DurableConfig,
    cache: Option<&CacheConfig>,
) -> (ShardedDurable, Vec<LeaseState>) {
    let shards = map.shards();
    assert!(
        cluster.servers() >= shards,
        "cluster has {} server nodes, need {shards}",
        cluster.servers()
    );
    assert!(
        replicas <= shards,
        "need at most {shards} replicas per shard, got {replicas}"
    );
    let cache = cache.map(|c| CacheConfig {
        mirror: c.mirror && replicas == 0,
        ..*c
    });
    let leases: Vec<LeaseState> = match &cache {
        Some(c) => (0..shards).map(|s| shard_lease(cluster, s, c)).collect(),
        None => Vec::new(),
    };
    let mut servers: Vec<Vec<Rc<DurableServer>>> = (0..shards).map(|_| Vec::new()).collect();
    let mut groups: Vec<Vec<ReplicaGroup>> = (0..shards).map(|_| Vec::new()).collect();
    let mut clients = Vec::with_capacity(client_nodes.len());
    for (c, &client_idx) in client_nodes.iter().enumerate() {
        let mut per_shard: Vec<Box<dyn RpcClient>> = Vec::with_capacity(shards);
        let mut views = Vec::new();
        for shard in 0..shards {
            let wiring = Wiring {
                lease: cache.map(|_| leases[shard].clone()),
                ..Wiring::default()
            };
            let (endpoint, view, mirror_qp): (Box<dyn RpcClient>, _, _) = if replicas == 0 {
                let (dc, s) = connect(cluster, client_idx, shard, c, cfg, wiring);
                s.start();
                servers[shard].push(Rc::new(s));
                let mirror_qp = cache
                    .filter(|k| k.mirror)
                    .map(|_| cluster.connect(client_idx, shard, QpMode::Rc).0);
                (Box::new(dc), None, mirror_qp)
            } else {
                let members: Vec<usize> = (0..replicas).map(|r| (shard + r) % shards).collect();
                let tag = c * shards + shard;
                let wiring = Wiring {
                    store_region: Some(format!("objects-s{shard}")),
                    ..wiring
                };
                let (rc, group) = build_replicated_group(
                    cluster,
                    client_idx,
                    &members,
                    cfg,
                    tag * replicas,
                    tag as u64,
                    wiring,
                );
                groups[shard].push(group);
                views.push(rc.view());
                (Box::new(rc), views.last().cloned(), None)
            };
            per_shard.push(match cache {
                Some(k) => Box::new(CachedClient::new(
                    endpoint,
                    leases[shard].clone(),
                    k,
                    cluster.node(client_idx).clone(),
                    shard as u32,
                    mirror_qp,
                    view,
                )),
                None => endpoint,
            });
        }
        let mut router = ShardedClient::new(map, per_shard);
        router.views = views;
        clients.push(router);
    }
    let fleet = ShardedDurable {
        clients,
        servers,
        groups,
        replayed: Rc::default(),
    };
    (fleet, leases)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rpc::ServerProfile;
    use prdma_node::ClusterConfig;
    use prdma_rnic::Payload;
    use prdma_simnet::Sim;

    #[test]
    fn striped_map_routes_densely() {
        let m = ShardMap::new(4);
        for g in 0..64u64 {
            let (s, l) = m.route(g);
            assert_eq!(s, (g % 4) as usize);
            assert_eq!(l, g / 4);
            assert_eq!(m.shard_of(g), s);
        }
        assert_eq!(m.local_span(50_000), 12_500);
    }

    #[test]
    fn hashed_map_is_balanced_and_stable() {
        let m = ShardMap::with_policy(8, ShardPolicy::Hashed);
        let mut counts = [0u64; 8];
        for g in 0..8_000u64 {
            let (s, l) = m.route(g);
            assert_eq!(l, g, "hashed policy keeps the global id");
            assert_eq!(m.route(g).0, s, "routing is deterministic");
            counts[s] += 1;
        }
        for (s, &c) in counts.iter().enumerate() {
            assert!(
                (700..=1300).contains(&c),
                "shard {s} got {c} of 8000 ids — unbalanced hash"
            );
        }
    }

    #[test]
    fn split_scan_covers_the_range_exactly() {
        for policy in [ShardPolicy::Striped, ShardPolicy::Hashed] {
            let m = ShardMap::with_policy(3, policy);
            let runs = m.split_scan(10, 17);
            let total: u32 = runs.iter().map(|(_, _, n)| n).sum();
            assert_eq!(total, 17, "{policy:?}");
            // Every global id in the range appears in exactly one run.
            for g in 10..27u64 {
                let (shard, local) = m.route(g);
                let hits = runs
                    .iter()
                    .filter(|(s, l, n)| *s == shard && (*l..*l + *n as u64).contains(&local))
                    .count();
                assert_eq!(hits, 1, "{policy:?} id {g}");
            }
        }
        // Striping coalesces to one dense run per shard.
        let m = ShardMap::new(4);
        assert_eq!(m.split_scan(0, 16).len(), 4);
    }

    fn sharded_fixture(sim: &Sim, shards: usize, clients: usize) -> ShardedDurable {
        let cluster = Cluster::new(sim.handle(), ClusterConfig::with_servers(shards, clients));
        let cfg = DurableConfig {
            profile: ServerProfile::light(),
            slot_payload: 1024,
            object_slot: 1024,
            store_capacity: 1 << 20,
            log_slots: 64,
            ..Default::default()
        };
        let client_nodes: Vec<usize> = (shards..shards + clients).collect();
        build_sharded_durable(&cluster, ShardMap::new(shards), &client_nodes, &cfg)
    }

    #[test]
    fn sharded_put_get_roundtrip_spans_shards() {
        let mut sim = Sim::new(17);
        let svc = sharded_fixture(&sim, 3, 1);
        let client = svc.clients.into_iter().next().unwrap();
        let servers = svc.servers;
        sim.block_on(async move {
            for obj in 0..9u64 {
                let data = Payload::from_bytes(vec![0x40 + obj as u8; 64]);
                let r = client.call(Request::Put { obj, data }).await.unwrap();
                assert!(r.durable);
            }
            for obj in 0..9u64 {
                let r = client.call(Request::Get { obj, len: 64 }).await.unwrap();
                assert_eq!(r.payload.unwrap().len(), 64, "obj {obj}");
            }
        });
        sim.run();
        // Striping spread 9 objects as 3 per shard, applied to each
        // shard's own store under *local* ids 0..3.
        for (shard, per_client) in servers.iter().enumerate() {
            let server = &per_client[0];
            assert_eq!(server.puts_processed(), 3, "shard {shard}");
            for local in 0..3u64 {
                let global = local * 3 + shard as u64;
                assert_eq!(
                    server.store().persistent_bytes(local, 64),
                    vec![0x40 + global as u8; 64],
                    "shard {shard} local {local}"
                );
            }
        }
    }

    #[test]
    fn replicated_sharded_mirrors_each_shard_to_its_backup() {
        let mut sim = Sim::new(29);
        let cluster = Cluster::new(sim.handle(), ClusterConfig::with_servers(2, 1));
        let cfg = DurableConfig {
            profile: ServerProfile::light(),
            slot_payload: 1024,
            object_slot: 1024,
            store_capacity: 1 << 20,
            log_slots: 64,
            ..Default::default()
        };
        let svc = build_replicated_sharded(&cluster, ShardMap::new(2), &[2], 2, &cfg);
        let client = svc.clients.into_iter().next().unwrap();
        assert_eq!(client.shard_epoch(0), Some(0));
        assert_eq!(client.primary_of(0), Some(0));
        assert_eq!(client.primary_of(1), Some(1));
        let groups = svc.groups;
        sim.block_on(async move {
            for obj in 0..8u64 {
                let data = Payload::from_bytes(vec![0x40 + obj as u8; 64]);
                let r = client.call(Request::Put { obj, data }).await.unwrap();
                assert!(r.durable);
            }
        });
        sim.run();
        // Each shard's 4 objects are applied on BOTH its replicas'
        // stores (different nodes, same local ids); the co-hosted other
        // shard's objects never leak into this shard's region.
        for (shard, shard_groups) in groups.iter().enumerate() {
            for (slot, server) in shard_groups[0].servers.iter().enumerate() {
                for local in 0..4u64 {
                    let global = local * 2 + shard as u64;
                    assert_eq!(
                        server.store().persistent_bytes(local, 64),
                        vec![0x40 + global as u8; 64],
                        "shard {shard} replica {slot} local {local}"
                    );
                }
            }
        }
    }

    #[test]
    fn sharded_scan_aggregates_across_shards() {
        let mut sim = Sim::new(19);
        let svc = sharded_fixture(&sim, 2, 1);
        let client = svc.clients.into_iter().next().unwrap();
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
    fn cached_sharded_gets_hit_the_client_cache() {
        let mut sim = Sim::new(31);
        let cluster = Cluster::new(sim.handle(), ClusterConfig::with_servers(2, 1));
        let cfg = DurableConfig {
            profile: ServerProfile::light(),
            slot_payload: 1024,
            object_slot: 1024,
            store_capacity: 1 << 20,
            log_slots: 64,
            ..Default::default()
        };
        let cache = CacheConfig {
            hot_threshold: 1,
            mirror: false,
            ..Default::default()
        };
        let (svc, leases) =
            build_sharded_durable_cached(&cluster, ShardMap::new(2), &[2], &cfg, &cache);
        assert_eq!(leases.len(), 2);
        let lease = leases[0].clone();
        let client = svc.clients.into_iter().next().unwrap();
        let h = sim.handle();
        sim.block_on(async move {
            for obj in 0..4u64 {
                let data = Payload::synthetic(256, obj);
                let r = client.call(Request::Put { obj, data }).await.unwrap();
                assert!(r.durable);
            }
            // The put to global object 0 (shard 0, local 0) bumped its lease.
            assert_eq!(lease.epoch(0), 1);
            // First GET is the filling miss: a full durable RPC.
            let t0 = h.now();
            client
                .call(Request::Get { obj: 0, len: 256 })
                .await
                .unwrap();
            let miss_ns = h.now().duration_since(t0).as_nanos();
            // Every later GET is a validated cache hit: far cheaper.
            let t1 = h.now();
            for _ in 0..8 {
                let r = client
                    .call(Request::Get { obj: 0, len: 256 })
                    .await
                    .unwrap();
                assert!(r.durable);
                assert_eq!(r.payload.unwrap().len(), 256);
            }
            let hit_ns = h.now().duration_since(t1).as_nanos() / 8;
            assert!(
                hit_ns * 4 < miss_ns,
                "cache hit {hit_ns} ns should be far below the {miss_ns} ns miss"
            );
            // A new put revokes the lease: the next GET misses again.
            let data = Payload::synthetic(256, 99);
            client.call(Request::Put { obj: 0, data }).await.unwrap();
            assert_eq!(lease.epoch(0), 2);
            let t2 = h.now();
            client
                .call(Request::Get { obj: 0, len: 256 })
                .await
                .unwrap();
            let refill_ns = h.now().duration_since(t2).as_nanos();
            assert!(
                refill_ns > hit_ns * 4,
                "post-put GET {refill_ns} ns should pay the RPC again (hit was {hit_ns} ns)"
            );
        });
        sim.run();
    }

    #[test]
    fn hot_stable_keys_promote_to_the_one_sided_mirror_tier() {
        let mut sim = Sim::new(41);
        let cluster = Cluster::new(sim.handle(), ClusterConfig::with_servers(1, 1));
        let cfg = DurableConfig {
            profile: ServerProfile::light(),
            slot_payload: 1024,
            object_slot: 1024,
            store_capacity: 1 << 20,
            log_slots: 64,
            ..Default::default()
        };
        let cache = CacheConfig {
            hot_threshold: 1,
            mirror_threshold: 2,
            mirror: true,
            mirror_slots: 16,
            mirror_value_bytes: 1024,
            ..Default::default()
        };
        let (svc, leases) =
            build_sharded_durable_cached(&cluster, ShardMap::new(1), &[1], &cfg, &cache);
        let client = svc.clients.into_iter().next().unwrap();
        let lease = leases[0].clone();
        sim.block_on(async move {
            let data = Payload::synthetic(256, 7);
            client.call(Request::Put { obj: 7, data }).await.unwrap();
            // Miss + fill, then enough validated hits to cross
            // `mirror_threshold` and publish the key.
            for _ in 0..6 {
                let r = client
                    .call(Request::Get { obj: 7, len: 256 })
                    .await
                    .unwrap();
                assert!(r.durable);
                assert_eq!(r.payload.unwrap().len(), 256);
            }
            let mirror = lease.mirror().unwrap();
            assert_eq!(mirror.published_count(), 1, "hot key must be published");
            assert!(mirror.addr_of(7).is_some());
            // Mirror-tier GETs keep validating against the slot header.
            let r = client
                .call(Request::Get { obj: 7, len: 256 })
                .await
                .unwrap();
            assert!(r.durable);
        });
        sim.run();
    }

    #[test]
    fn replicated_cached_service_serves_puts_and_gets() {
        let mut sim = Sim::new(37);
        let cluster = Cluster::new(sim.handle(), ClusterConfig::with_servers(2, 1));
        let cfg = DurableConfig {
            profile: ServerProfile::light(),
            slot_payload: 1024,
            object_slot: 1024,
            store_capacity: 1 << 20,
            log_slots: 64,
            ..Default::default()
        };
        let cache = CacheConfig {
            hot_threshold: 1,
            ..Default::default()
        };
        let (svc, leases) =
            build_replicated_sharded_cached(&cluster, ShardMap::new(2), &[2], 2, &cfg, &cache);
        let client = svc.clients.into_iter().next().unwrap();
        assert_eq!(client.shard_epoch(0), Some(0));
        sim.block_on(async move {
            for obj in 0..6u64 {
                let data = Payload::from_bytes(vec![0x40 + obj as u8; 64]);
                let r = client.call(Request::Put { obj, data }).await.unwrap();
                assert!(r.durable);
            }
            for _ in 0..4 {
                let r = client.call(Request::Get { obj: 2, len: 64 }).await.unwrap();
                assert!(r.durable);
                assert_eq!(r.payload.unwrap().len(), 64);
            }
        });
        sim.run();
        // Replication fans each put to both replicas: 2 sub-puts per put.
        assert!(leases[0].epoch(0) >= 1, "puts must bump the lease epoch");
    }

    #[test]
    fn sharded_batch_preserves_request_order() {
        let mut sim = Sim::new(23);
        let svc = sharded_fixture(&sim, 2, 1);
        let client = svc.clients.into_iter().next().unwrap();
        sim.block_on(async move {
            let reqs: Vec<Request> = (0..6u64)
                .map(|i| Request::Put {
                    obj: i,
                    data: Payload::synthetic(256, i),
                })
                .collect();
            let resps = client.call_batch(reqs).await.unwrap();
            assert_eq!(resps.len(), 6);
            assert!(resps.iter().all(|r| r.durable));
        });
    }
}
