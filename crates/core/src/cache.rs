//! Hot-key lease caching and the adaptive one-sided READ fast path.
//!
//! Zipfian traffic concentrates GETs on a few keys, yet every GET pays a
//! full durable RPC through the server CPU. This module removes that cost
//! for hot, stable keys with two cooperating layers:
//!
//! 1. **A lease-protected client DRAM cache** ([`CachedClient`]). Every
//!    cached entry is stamped with a server-granted *lease epoch*
//!    ([`LeaseState`], shared by all clients of one shard). A durable put
//!    bumps the key's epoch **before** its flush is acknowledged (the
//!    bump sits on the put path ahead of the flush wait in
//!    `DurableClient`), so a cached read validated against the shared
//!    epoch can never return bytes newer than the last flush-ACKed put —
//!    auditor invariant I5 checks exactly this ordering in the journal.
//! 2. **A one-sided mirror fast path**. Keys that stay hot and stable are
//!    published into a server DRAM [`MirrorRegion`]
//!    (an 8-byte epoch header plus the object bytes); the client then
//!    serves GETs with a single RDMA READ (`Qp::read_mirror`) and
//!    validates the header against its lease — no server CPU at all.
//!
//! A per-key hotness/stability tracker promotes keys durable-RPC GET →
//! cached → one-sided READ (the private `Tier`) and demotes them back on
//! invalidation churn. Writes and cold keys always take the durable RPC
//! path unchanged.
//!
//! All cache state is `BTreeMap`-ordered and draws no randomness, so a
//! fixed seed still yields a byte-identical schedule; every journal
//! record and metric is gated on the respective facility being enabled.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;

use prdma_node::Node;
use prdma_rnic::{MemTarget, Payload, Qp};
use prdma_simnet::journal::{EventKind, Subsystem};
use prdma_simnet::metrics::{Counter, Key};
use prdma_simnet::Obs;

use crate::replication::GroupView;
use crate::rpc::{Request, Response, RpcBatchFuture, RpcClient, RpcFuture, RpcResult};
use crate::store::{MirrorRegion, MIRROR_HEADER_BYTES};

/// Bits of the lease key id reserved for the object id; the shard tag
/// occupies the bits above, so merged fleet journals never conflate two
/// shards' lease state for the same local object id.
const KEY_OBJ_BITS: u32 = 44;

/// Client-side cache behaviour knobs.
#[derive(Debug, Clone, Copy)]
pub struct CacheConfig {
    /// Max cached entries per client per shard (LRU beyond this).
    pub capacity: usize,
    /// GETs observed on a key before its first fill (1 = cache on first
    /// miss; higher values keep one-hit wonders out).
    pub hot_threshold: u64,
    /// Consecutive validated hits before a key is promoted to the
    /// one-sided mirror tier.
    pub mirror_threshold: u64,
    /// Invalidations on a key before it is demoted back to the durable
    /// RPC tier (write-churned keys stop being cached).
    pub churn_demote: u32,
    /// Whether the one-sided mirror tier is enabled at all.
    pub mirror: bool,
    /// Server mirror region: published-object slots.
    pub mirror_slots: u64,
    /// Server mirror region: payload bytes per slot (header excluded).
    pub mirror_value_bytes: u64,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            capacity: 1024,
            hot_threshold: 2,
            mirror_threshold: 8,
            churn_demote: 2,
            mirror: true,
            mirror_slots: 1024,
            mirror_value_bytes: 4096,
        }
    }
}

impl CacheConfig {
    /// Bytes one mirror slot occupies in server DRAM (header included).
    pub fn mirror_slot_bytes(&self) -> u64 {
        MIRROR_HEADER_BYTES + self.mirror_value_bytes
    }
}

struct LeaseInner {
    tag: u64,
    epochs: RefCell<BTreeMap<u64, u64>>,
    mirror: Option<MirrorRegion>,
}

/// Per-shard lease table: one epoch per key, shared (reference-counted)
/// between the shard's server put path and every client caching against
/// it. A key's epoch starts at 0 and is bumped by each durable put
/// *before* the put's flush is acknowledged; cached entries stamped with
/// an older epoch fail validation and fall back to the durable RPC path.
#[derive(Clone)]
pub struct LeaseState {
    inner: Rc<LeaseInner>,
}

impl fmt::Debug for LeaseState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LeaseState")
            .field("tag", &self.inner.tag)
            .field("keys", &self.inner.epochs.borrow().len())
            .finish()
    }
}

impl LeaseState {
    /// A lease table for the shard identified by `tag` (no mirror).
    pub fn new(tag: u64) -> Self {
        LeaseState {
            inner: Rc::new(LeaseInner {
                tag,
                epochs: RefCell::new(BTreeMap::new()),
                mirror: None,
            }),
        }
    }

    /// A lease table backed by a server DRAM mirror region.
    pub fn with_mirror(tag: u64, mirror: MirrorRegion) -> Self {
        LeaseState {
            inner: Rc::new(LeaseInner {
                tag,
                epochs: RefCell::new(BTreeMap::new()),
                mirror: Some(mirror),
            }),
        }
    }

    /// The globally unique journal key id for `obj` under this shard's
    /// tag (`wr_id` of every lease record).
    pub fn key_id(&self, obj: u64) -> u64 {
        debug_assert!(obj < 1 << KEY_OBJ_BITS, "object id exceeds lease key space");
        (self.inner.tag << KEY_OBJ_BITS) | obj
    }

    /// Current lease epoch of `obj` (0 if never written).
    pub fn epoch(&self, obj: u64) -> u64 {
        self.inner.epochs.borrow().get(&obj).copied().unwrap_or(0)
    }

    /// Bump `obj`'s epoch for the put identified by `rpc_id`, revoking
    /// every outstanding lease on the key and refreshing its mirror slot
    /// header. Called on the durable put path *before* the flush wait, so
    /// the journaled invalidation always precedes the put's ACK
    /// (invariant I5a). Returns the new epoch.
    pub fn bump(&self, obj: u64, rpc_id: u64, obs: &Obs) -> u64 {
        let mut epochs = self.inner.epochs.borrow_mut();
        let e = epochs.entry(obj).or_insert(0);
        *e += 1;
        let new = *e;
        drop(epochs);
        if let Some(m) = &self.inner.mirror {
            m.refresh(obj, new);
        }
        let key = self.key_id(obj);
        obs.event(Subsystem::Rpc, EventKind::LeaseInvalidate, rpc_id, key, new);
        new
    }

    /// Journal lease event `kind` on `obj` at `epoch` under a fresh rpc
    /// id: a grant (client cache fill) or a read served under the lease.
    pub(crate) fn note(&self, obs: &Obs, kind: EventKind, obj: u64, epoch: u64) {
        let key = self.key_id(obj);
        obs.event(Subsystem::Rpc, kind, obs.next_rpc_id(), key, epoch);
    }

    /// The shard's mirror region, when the one-sided tier is enabled.
    pub fn mirror(&self) -> Option<&MirrorRegion> {
        self.inner.mirror.as_ref()
    }
}

/// Serving tier of one key, promoted on sustained hits and demoted on
/// invalidation churn.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tier {
    /// Cold or churned: every GET is a durable RPC.
    Rpc,
    /// Hot: GETs served from the client DRAM cache under a lease.
    Cached,
    /// Hot and stable: GETs served with a one-sided READ of the server's
    /// DRAM mirror.
    Mirror,
}

#[derive(Debug)]
struct KeyState {
    hits: u64,
    streak: u64,
    churn: u32,
    tier: Tier,
}

impl Default for KeyState {
    fn default() -> Self {
        KeyState {
            hits: 0,
            streak: 0,
            churn: 0,
            tier: Tier::Rpc,
        }
    }
}

struct Entry {
    epoch: u64,
    len: u64,
    last_used: u64,
}

/// Pre-resolved cache metric handles (one lookup at build time, none on
/// the hot path), labeled with the shard and the inner system's kind.
struct CacheMetrics {
    hits: Counter,
    misses: Counter,
    fills: Counter,
    invalidations: Counter,
    promotions: Counter,
    demotions: Counter,
    mirror_reads: Counter,
    revocations: Counter,
}

/// An [`RpcClient`] decorator adding the lease cache and the adaptive
/// one-sided fast path in front of any durable client (a per-shard
/// `DurableClient` or a `ReplicatedClient`). Writes, scans, and cold keys
/// pass straight through; hot keys climb the tier ladder.
pub struct CachedClient {
    inner: Box<dyn RpcClient>,
    lease: LeaseState,
    cfg: CacheConfig,
    node: Node,
    /// Client→server QP for one-sided mirror reads (None disables the
    /// mirror tier for this client).
    mirror_qp: Option<Qp>,
    /// Replicated topology only: promotion of a backup revokes every
    /// lease this client holds (tracked by the group's view epoch).
    view: Option<GroupView>,
    seen_view_epoch: Cell<u64>,
    keys: RefCell<BTreeMap<u64, KeyState>>,
    entries: RefCell<BTreeMap<u64, Entry>>,
    tick: Cell<u64>,
    metrics: Option<CacheMetrics>,
}

impl CachedClient {
    /// Wrap `inner` with a lease cache against `lease`. `shard` labels
    /// this client's metric series; `mirror_qp` (client→shard server)
    /// enables the one-sided tier; `view` enables revocation on backup
    /// promotion for replicated groups.
    pub fn new(
        inner: Box<dyn RpcClient>,
        lease: LeaseState,
        cfg: CacheConfig,
        node: Node,
        shard: u32,
        mirror_qp: Option<Qp>,
        view: Option<GroupView>,
    ) -> Self {
        let kind = inner.name();
        let metrics = node.metrics().map(|m| {
            let k = |name: &'static str| Key::new(name).shard(shard).kind(kind);
            CacheMetrics {
                hits: m.counter_handle(k("cache_hits")),
                misses: m.counter_handle(k("cache_misses")),
                fills: m.counter_handle(k("cache_fills")),
                invalidations: m.counter_handle(k("cache_invalidations")),
                promotions: m.counter_handle(k("cache_promotions")),
                demotions: m.counter_handle(k("cache_demotions")),
                mirror_reads: m.counter_handle(k("mirror_reads")),
                revocations: m.counter_handle(k("lease_revocations")),
            }
        });
        let seen_view_epoch = Cell::new(view.as_ref().map_or(0, |v| v.epoch()));
        CachedClient {
            inner,
            lease,
            cfg,
            node,
            mirror_qp,
            view,
            seen_view_epoch,
            keys: RefCell::new(BTreeMap::new()),
            entries: RefCell::new(BTreeMap::new()),
            tick: Cell::new(0),
            metrics,
        }
    }

    /// A backup promotion invalidates every lease granted by the failed
    /// primary: drop all entries and restart every key from the durable
    /// RPC tier.
    fn check_view(&self) {
        let Some(view) = &self.view else { return };
        let now = view.epoch();
        if now == self.seen_view_epoch.get() {
            return;
        }
        self.seen_view_epoch.set(now);
        let dropped = self.entries.borrow().len() as u64;
        self.entries.borrow_mut().clear();
        for ks in self.keys.borrow_mut().values_mut() {
            ks.tier = Tier::Rpc;
            ks.streak = 0;
        }
        if let Some(m) = &self.metrics {
            m.revocations.incr(dropped.max(1));
        }
    }

    fn touch(&self, obj: u64) {
        let t = self.tick.get() + 1;
        self.tick.set(t);
        if let Some(e) = self.entries.borrow_mut().get_mut(&obj) {
            e.last_used = t;
        }
    }

    /// Record an invalidation observed on `obj` (stale entry or stale
    /// mirror header): drop the entry and demote churned keys.
    fn note_invalidation(&self, obj: u64) {
        self.entries.borrow_mut().remove(&obj);
        let mut keys = self.keys.borrow_mut();
        let ks = keys.entry(obj).or_default();
        ks.streak = 0;
        ks.churn += 1;
        if ks.churn >= self.cfg.churn_demote && ks.tier != Tier::Rpc {
            ks.tier = Tier::Rpc;
            ks.churn = 0;
            if let Some(m) = &self.metrics {
                m.demotions.incr(1);
            }
        }
        if let Some(m) = &self.metrics {
            m.invalidations.incr(1);
        }
    }

    /// Fill `obj` at `epoch`, evicting the least-recently-used entry when
    /// the cache is full.
    fn fill(&self, obj: u64, epoch: u64, len: u64) {
        let t = self.tick.get() + 1;
        self.tick.set(t);
        let mut entries = self.entries.borrow_mut();
        if !entries.contains_key(&obj) && entries.len() >= self.cfg.capacity {
            if let Some(victim) = entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k)
            {
                entries.remove(&victim);
            }
        }
        entries.insert(
            obj,
            Entry {
                epoch,
                len,
                last_used: t,
            },
        );
    }

    /// Serve a GET on the mirror tier. `Ok(Some(..))` on a validated
    /// one-sided read; `Ok(None)` when the key must fall back (not
    /// published, stale header) — the caller takes the miss path.
    async fn try_mirror_get(&self, obj: u64, len: u64, epoch: u64) -> RpcResult<Option<Response>> {
        let Some(qp) = &self.mirror_qp else {
            return Ok(None);
        };
        let Some(addr) = self.lease.mirror().and_then(|m| m.addr_of(obj)) else {
            return Ok(None);
        };
        // The journaled claim is "a one-sided read was issued under a
        // valid lease of `epoch`" — journaled at issue time, when the shared
        // lease table was just checked, so a put bumping the epoch while
        // the READ is in flight is concurrent, not a protocol violation.
        self.lease
            .note(self.node.obs(), EventKind::MirrorRead, obj, epoch);
        let bytes = qp
            .read_mirror(MemTarget::Dram(addr), MIRROR_HEADER_BYTES + len)
            .await?;
        if let Some(m) = &self.metrics {
            m.mirror_reads.incr(1);
        }
        if MirrorRegion::decode_epoch(&bytes) == Some(epoch) {
            self.touch(obj);
            Ok(Some(Response {
                payload: Some(Payload::synthetic(len, obj)),
                durable: true,
            }))
        } else {
            // The slot header moved past our lease while the READ was in
            // flight (or before publication caught up): treat as an
            // invalidation and fall back to the durable path.
            self.note_invalidation(obj);
            Ok(None)
        }
    }

    async fn do_get(&self, obj: u64, len: u64) -> RpcResult<Response> {
        let (tier, hits) = {
            let mut keys = self.keys.borrow_mut();
            let ks = keys.entry(obj).or_default();
            ks.hits += 1;
            (ks.tier, ks.hits)
        };

        // Fast tiers. A *valid* local entry always serves locally — the
        // cheapest path on any tier (the hit pays one CPU poll). The
        // one-sided mirror READ is the *miss* accelerator: a Mirror-tier
        // key whose entry was evicted or invalidated refills with a
        // single RDMA READ of the server's mirror slot instead of a full
        // durable RPC.
        if tier != Tier::Rpc {
            let cached = self.entries.borrow().get(&obj).map(|e| (e.epoch, e.len));
            let current = self.lease.epoch(obj);
            if let Some((entry_epoch, entry_len)) = cached {
                if entry_epoch == current && len <= entry_len {
                    self.lease
                        .note(self.node.obs(), EventKind::CacheRead, obj, current);
                    self.node.cpu.poll_dispatch().await;
                    self.touch(obj);
                    if let Some(m) = &self.metrics {
                        m.hits.incr(1);
                    }
                    self.bump_streak(obj, len);
                    return Ok(Response {
                        payload: Some(Payload::synthetic(len, obj)),
                        durable: true,
                    });
                } else if entry_epoch != current {
                    self.note_invalidation(obj);
                }
            }
            // `note_invalidation` may have demoted the key; only a key
            // still on the mirror tier retries one-sided.
            let still_mirror = self
                .keys
                .borrow()
                .get(&obj)
                .is_some_and(|ks| ks.tier == Tier::Mirror);
            if still_mirror {
                if let Some(resp) = self.try_mirror_get(obj, len, current).await? {
                    // The slot header carried the current epoch: the READ
                    // re-validated the lease, so the entry refills without
                    // an RPC grant (the put's own invalidation record is
                    // the epoch's publication — see invariant I5b).
                    self.fill(obj, current, len);
                    if let Some(m) = &self.metrics {
                        m.hits.incr(1);
                    }
                    self.bump_streak(obj, len);
                    return Ok(resp);
                }
            }
        }

        // Miss path: durable RPC, then fill under a version-validated
        // lease (only when no put bumped the epoch while the GET was in
        // flight — a fill at a newer epoch could claim bytes fresher than
        // the response actually carries).
        if let Some(m) = &self.metrics {
            m.misses.incr(1);
        }
        let before = self.lease.epoch(obj);
        let resp = self.inner.call(Request::Get { obj, len }).await?;
        if hits >= self.cfg.hot_threshold && self.lease.epoch(obj) == before {
            self.fill(obj, before, len);
            self.lease
                .note(self.node.obs(), EventKind::LeaseGrant, obj, before);
            let mut keys = self.keys.borrow_mut();
            let ks = keys.entry(obj).or_default();
            if ks.tier == Tier::Rpc {
                ks.tier = Tier::Cached;
                if let Some(m) = &self.metrics {
                    m.promotions.incr(1);
                }
            }
            if let Some(m) = &self.metrics {
                m.fills.incr(1);
            }
        }
        Ok(resp)
    }

    /// A validated hit extends the key's stability streak; a long enough
    /// streak publishes the key into the server mirror and promotes it to
    /// the one-sided tier.
    fn bump_streak(&self, obj: u64, len: u64) {
        let mut keys = self.keys.borrow_mut();
        let ks = keys.entry(obj).or_default();
        ks.streak += 1;
        if ks.tier == Tier::Cached
            && self.cfg.mirror
            && ks.streak >= self.cfg.mirror_threshold
            && self.mirror_qp.is_some()
        {
            if let Some(mirror) = self.lease.mirror() {
                if len <= mirror.value_capacity()
                    && mirror.publish(obj, self.lease.epoch(obj)).is_some()
                {
                    ks.tier = Tier::Mirror;
                    if let Some(m) = &self.metrics {
                        m.promotions.incr(1);
                    }
                }
            }
        }
    }
}

impl RpcClient for CachedClient {
    fn call(&self, req: Request) -> RpcFuture<'_> {
        Box::pin(async move {
            self.check_view();
            match req {
                Request::Get { obj, len } => self.do_get(obj, len).await,
                other => self.inner.call(other).await,
            }
        })
    }

    fn call_batch(&self, reqs: Vec<Request>) -> RpcBatchFuture<'_> {
        self.check_view();
        self.inner.call_batch(reqs)
    }

    fn name(&self) -> &'static str {
        match self.inner.name() {
            "WFlush-RPC" => "WFlush-RPC+cache",
            "SFlush-RPC" => "SFlush-RPC+cache",
            "W-RFlush-RPC" => "W-RFlush-RPC+cache",
            "S-RFlush-RPC" => "S-RFlush-RPC+cache",
            _ => "cached",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prdma_pmem::VolatileMemory;
    use prdma_simnet::journal::NO_ID;
    use prdma_simnet::trace::Tracer;
    use prdma_simnet::Sim;

    fn no_journal() -> Obs {
        Obs::new(Tracer::new(Sim::new(1).handle()), None, None)
    }

    #[test]
    fn lease_epochs_start_at_zero_and_bump() {
        let obs = no_journal();
        let lease = LeaseState::new(3);
        assert_eq!(lease.epoch(7), 0);
        assert_eq!(lease.bump(7, NO_ID, &obs), 1);
        assert_eq!(lease.bump(7, NO_ID, &obs), 2);
        assert_eq!(lease.epoch(7), 2);
        assert_eq!(lease.epoch(8), 0);
        assert_eq!(lease.key_id(7), (3 << KEY_OBJ_BITS) | 7);
    }

    #[test]
    fn bump_refreshes_published_mirror_slot() {
        let dram = VolatileMemory::new(1 << 16);
        let mirror = MirrorRegion::new(dram.clone(), 0, 72, 4);
        let lease = LeaseState::with_mirror(0, mirror);
        let obs = no_journal();
        let addr = lease.mirror().unwrap().publish(5, 0).unwrap();
        assert_eq!(MirrorRegion::decode_epoch(&dram.read(addr, 8)), Some(0));
        lease.bump(5, NO_ID, &obs);
        assert_eq!(MirrorRegion::decode_epoch(&dram.read(addr, 8)), Some(1));
    }
}
