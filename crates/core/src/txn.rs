//! Durable multi-shard transactions: FaRM-style OCC reads + durable 2PC
//! over the per-(client, shard) PM redo logs.
//!
//! The paper's durable RPCs decide durability at the PM log append and
//! recover by replaying the log suffix without client re-transmission.
//! This module lifts that property from single RPCs to atomic multi-key
//! updates spanning shards:
//!
//! 1. **Execution** — reads record `(key, version)` pairs; writes buffer
//!    locally in the [`Txn`].
//! 2. **Lock + validate** — commit locks the write set in shard host
//!    state (deterministic `(shard, local)` order) and validates that no
//!    read version moved and no read key is locked by another txn.
//! 3. **Prepare** — a durable `prepare` record (coordinator shard + the
//!    participant's write set) is appended — and flush-ACKed, per the
//!    connection's [`DurableKind`](crate::durable::DurableKind) — in
//!    *each participant shard's* redo log, fanned out concurrently like
//!    replicated puts.
//! 4. **Decide** — a durable `decided` record (commit flag + participant
//!    list) is appended at the *coordinator shard's* log (the lowest
//!    participant shard). The transaction is durably committed at this
//!    append's ACK: every later step is recoverable from the logs alone.
//! 5. **Ack** — the client bumps every written key's lease epoch (so
//!    cached reads are revoked *before* the txn ACK, preserving auditor
//!    invariant I5) and acknowledges commit. Commit-apply records fan
//!    out to the participants off the critical path; processing applies
//!    the staged writes and releases locks.
//!
//! **In-doubt resolution.** A prepare record is *not* marked done until
//! its transaction resolves, so a crashed participant's replay re-sees
//! it. Replay re-stages the writes (locks held) and consults the
//! coordinator's decided record through the [`TxnDirectory`] — a scan of
//! the coordinator shard's log rings, i.e. the logs alone; no client
//! retransmit — applying on commit, discarding on abort, and holding the
//! stage (locks and log head) while the outcome is genuinely unknown
//! (presumed-abort would race a live coordinator client that decides
//! commit after the participant recovered).
//!
//! The journal auditor checks invariant I6 over this protocol: no
//! `TxnAck` before every participant's prepare append and the decided
//! append, and no aborted txn ever applies staged writes.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::rc::Rc;

use prdma_node::{Cluster, FaultInjector, Node};
use prdma_rnic::Payload;
use prdma_simnet::fault::FaultKind;
use prdma_simnet::journal::{EventKind, Subsystem};
use prdma_simnet::{Semaphore, SimDuration, SimHandle};

use crate::cache::LeaseState;
use crate::durable::{connect, DurableClient, DurableConfig, DurableServer, Wiring};
use crate::log::{LogEntry, OpCode, RedoLog};
use crate::rpc::{Request, RpcClient, RpcResult};
use crate::shard::ShardMap;
use crate::store::ObjectStore;

/// High-bit namespace for transaction ids: distinct from replication ids
/// (`1 << 60`), batched-put causal ids (`1 << 58`), log-derived journal
/// ids (`lane << 40 | index`), and allocator rpc ids (`1 << 32 + …`).
/// Layout: `TXN_ID_BASE | client_tag << 32 | counter`.
pub const TXN_ID_BASE: u64 = 1 << 59;

// ---------------------------------------------------------------------------
// Record encoding
// ---------------------------------------------------------------------------

/// Decoded payload of a `TxnPrepare` log record.
struct PrepareRecord {
    /// Coordinator shard (where the decided record will live).
    coord: usize,
    /// The participant's write set: `(local object id, value bytes)`.
    writes: Vec<(u64, Vec<u8>)>,
}

/// Decoded payload of a `TxnDecide` log record.
struct DecideRecord {
    commit: bool,
}

fn encode_prepare(coord: usize, writes: &[(u64, Vec<u8>)]) -> Payload {
    let mut out = Vec::with_capacity(16 + writes.iter().map(|(_, v)| 16 + v.len()).sum::<usize>());
    out.extend_from_slice(&(coord as u64).to_le_bytes());
    out.extend_from_slice(&(writes.len() as u64).to_le_bytes());
    for (obj, val) in writes {
        out.extend_from_slice(&obj.to_le_bytes());
        out.extend_from_slice(&(val.len() as u64).to_le_bytes());
        out.extend_from_slice(val);
    }
    Payload::from_bytes(out)
}

fn u64_at(bytes: &[u8], off: usize) -> Option<u64> {
    Some(u64::from_le_bytes(
        bytes.get(off..off + 8)?.try_into().ok()?,
    ))
}

fn decode_prepare(payload: &[u8]) -> Option<PrepareRecord> {
    let coord = u64_at(payload, 0)? as usize;
    let n = u64_at(payload, 8)? as usize;
    let mut writes = Vec::with_capacity(n);
    let mut off = 16usize;
    for _ in 0..n {
        let obj = u64_at(payload, off)?;
        let len = u64_at(payload, off + 8)? as usize;
        let val = payload.get(off + 16..off + 16 + len)?.to_vec();
        writes.push((obj, val));
        off += 16 + len;
    }
    Some(PrepareRecord { coord, writes })
}

fn encode_decide(commit: bool, participants: &[usize]) -> Payload {
    let mut out = Vec::with_capacity(16 + 8 * participants.len());
    out.extend_from_slice(&(commit as u64).to_le_bytes());
    out.extend_from_slice(&(participants.len() as u64).to_le_bytes());
    for &p in participants {
        out.extend_from_slice(&(p as u64).to_le_bytes());
    }
    Payload::from_bytes(out)
}

fn decode_decide(payload: &[u8]) -> Option<DecideRecord> {
    let commit = u64_at(payload, 0)? == 1;
    Some(DecideRecord { commit })
}

// ---------------------------------------------------------------------------
// Directory: decision lookup from the logs alone
// ---------------------------------------------------------------------------

/// A registry of every shard's redo logs plus a volatile decision cache.
///
/// In-doubt resolution asks "did txn T's coordinator decide?". The
/// durable ground truth is the coordinator shard's `TxnDecide` record;
/// [`decision`](TxnDirectory::decision) scans the registered logs' ring
/// slots from the *persistent* view — exactly what a recovering node can
/// see — and caches what it learns. The cache is only an optimization:
/// [`forget_volatile`](TxnDirectory::forget_volatile) drops it (recovery
/// paths do this first), forcing the next lookup back to the logs.
#[derive(Clone, Default)]
pub struct TxnDirectory {
    inner: Rc<DirInner>,
}

#[derive(Default)]
struct DirInner {
    /// Shard → every redo log hosted by that shard (one per client lane).
    logs: RefCell<BTreeMap<usize, Vec<RedoLog>>>,
    /// Volatile decision cache: txn id → committed?
    decisions: RefCell<BTreeMap<u64, bool>>,
    /// Decisions resolved by an actual log-ring scan (not the cache).
    scan_resolved: Cell<u64>,
}

impl TxnDirectory {
    /// An empty directory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register one of `shard`'s redo logs for decision lookups.
    pub fn register(&self, shard: usize, log: RedoLog) {
        self.inner
            .logs
            .borrow_mut()
            .entry(shard)
            .or_default()
            .push(log);
    }

    /// Record a decision observed in-band (processing a decide / commit /
    /// abort record). Volatile — survives nothing; the log records do.
    fn note_decision(&self, txn: u64, commit: bool) {
        self.inner.decisions.borrow_mut().insert(txn, commit);
    }

    /// Drop the volatile decision cache, forcing the next lookup to the
    /// durable log records. Recovery calls this so in-doubt resolution
    /// provably comes from the logs alone.
    pub fn forget_volatile(&self) {
        self.inner.decisions.borrow_mut().clear();
    }

    /// Decisions that were resolved by scanning a coordinator's log rings
    /// (rather than the volatile cache) so far.
    pub fn scan_resolved(&self) -> u64 {
        self.inner.scan_resolved.get()
    }

    /// Look up txn `txn`'s outcome: the volatile cache, else a persistent
    /// ring scan of the coordinator shard's logs for its `TxnDecide`
    /// record. `None` means genuinely undecided (no decided record has
    /// persisted) — the caller must hold the transaction in-doubt.
    pub fn decision(&self, coord: usize, txn: u64) -> Option<bool> {
        if let Some(&d) = self.inner.decisions.borrow().get(&txn) {
            return Some(d);
        }
        let logs = self.inner.logs.borrow();
        for log in logs.get(&coord)? {
            for e in log.scan_ring() {
                if e.op.opcode == OpCode::TxnDecide && e.op.obj_id == txn {
                    let d = decode_decide(&e.payload)?;
                    self.inner
                        .scan_resolved
                        .set(self.inner.scan_resolved.get() + 1);
                    self.inner.decisions.borrow_mut().insert(txn, d.commit);
                    return Some(d.commit);
                }
            }
        }
        None
    }
}

// ---------------------------------------------------------------------------
// Per-shard transaction state
// ---------------------------------------------------------------------------

/// A staged (prepared, unresolved) transaction at one participant.
struct Staged {
    coord: usize,
    /// The prepare record's log index — marked done only at resolution.
    prep_index: u64,
    writes: Vec<(u64, Vec<u8>)>,
}

/// One shard's transaction host state: object versions (OCC), write
/// locks, and staged prepares. Shared (`Rc`) between the shard's server
/// processing path and every client's commit path — host state in the
/// simulation harness, like the lease tables; the durable ground truth
/// stays in the PM logs.
#[derive(Clone)]
pub struct TxnState {
    inner: Rc<StateInner>,
}

struct StateInner {
    shard: usize,
    dir: TxnDirectory,
    /// Local object id → version (bumped on every committed txn write).
    versions: RefCell<BTreeMap<u64, u64>>,
    /// Local object id → owning txn id.
    locks: RefCell<BTreeMap<u64, u64>>,
    /// Txn id → staged prepare awaiting resolution.
    staged: RefCell<BTreeMap<u64, Staged>>,
    /// Committed transactions applied on this shard.
    applies: Cell<u64>,
}

impl fmt::Debug for TxnState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "TxnState(shard {}, {} staged, {} locked)",
            self.inner.shard,
            self.inner.staged.borrow().len(),
            self.inner.locks.borrow().len()
        )
    }
}

impl TxnState {
    /// Fresh state for `shard`, resolving decisions through `dir`.
    pub fn new(shard: usize, dir: TxnDirectory) -> Self {
        TxnState {
            inner: Rc::new(StateInner {
                shard,
                dir,
                versions: RefCell::default(),
                locks: RefCell::default(),
                staged: RefCell::default(),
                applies: Cell::new(0),
            }),
        }
    }

    /// The shard this state belongs to.
    pub fn shard(&self) -> usize {
        self.inner.shard
    }

    /// Current version of local object `obj` (0 = never txn-written).
    pub fn version(&self, obj: u64) -> u64 {
        self.inner.versions.borrow().get(&obj).copied().unwrap_or(0)
    }

    /// The txn currently holding `obj`'s write lock, if any.
    pub fn lock_owner(&self, obj: u64) -> Option<u64> {
        self.inner.locks.borrow().get(&obj).copied()
    }

    /// Staged (in-doubt or not-yet-applied) transactions on this shard.
    pub fn staged_count(&self) -> usize {
        self.inner.staged.borrow().len()
    }

    /// Committed transactions applied on this shard so far.
    pub fn applied_txns(&self) -> u64 {
        self.inner.applies.get()
    }

    /// Acquire `obj`'s write lock for `txn`. Idempotent for the owner.
    fn try_lock(&self, obj: u64, txn: u64) -> bool {
        let mut locks = self.inner.locks.borrow_mut();
        match locks.get(&obj) {
            None => {
                locks.insert(obj, txn);
                true
            }
            Some(&owner) => owner == txn,
        }
    }

    /// Release every lock `txn` holds on this shard.
    fn unlock_all(&self, txn: u64) {
        self.inner
            .locks
            .borrow_mut()
            .retain(|_, owner| *owner != txn);
    }

    fn is_staged(&self, txn: u64) -> bool {
        self.inner.staged.borrow().contains_key(&txn)
    }

    /// Stage a prepared write set (replay-safe: locks are re-acquired
    /// idempotently — after a crash the host-state locks may or may not
    /// have survived, and never stomp another txn's lock).
    fn stage(&self, txn: u64, coord: usize, prep_index: u64, writes: Vec<(u64, Vec<u8>)>) {
        for (obj, _) in &writes {
            self.try_lock(*obj, txn);
        }
        self.inner.staged.borrow_mut().insert(
            txn,
            Staged {
                coord,
                prep_index,
                writes,
            },
        );
    }

    /// Apply a committed txn's staged writes to the store, bump their
    /// versions, release locks, and mark the prepare record done. Gated
    /// by the log's applied-id table: exactly-once under duplicate
    /// resolution paths (decide processing vs. commit record vs. replay).
    async fn apply_staged(&self, node: &Node, log: &RedoLog, store: &ObjectStore, txn: u64) {
        let st = self.inner.staged.borrow_mut().remove(&txn);
        let Some(st) = st else { return };
        if log.note_applied(txn) {
            let mut bytes = 0u64;
            for (obj, val) in &st.writes {
                let _ = store.put(*obj, &Payload::from_bytes(val.clone())).await;
                bytes += val.len() as u64;
            }
            {
                let mut versions = self.inner.versions.borrow_mut();
                for (obj, _) in &st.writes {
                    *versions.entry(*obj).or_insert(0) += 1;
                }
            }
            self.inner.applies.set(self.inner.applies.get() + 1);
            node.obs().event(
                Subsystem::Rpc,
                EventKind::TxnApply,
                txn,
                node.id.0 as u64,
                bytes,
            );
        }
        self.unlock_all(txn);
        let _ = log.mark_done(st.prep_index).await;
    }

    /// Discard an aborted txn's staged writes, release locks, and mark
    /// the prepare record done (it resolved — to nothing).
    async fn discard_staged(&self, log: &RedoLog, txn: u64) {
        let st = self.inner.staged.borrow_mut().remove(&txn);
        self.unlock_all(txn);
        if let Some(st) = st {
            let _ = log.mark_done(st.prep_index).await;
        }
    }
}

/// Server-side interpretation of a transaction log record, called from
/// the durable worker pool (and, through it, recovery replay). `state`
/// is `None` on connections built without a transaction table: the
/// record is a no-op (marked done) rather than a wedge.
pub(crate) async fn process_txn_entry(
    node: &Node,
    log: &RedoLog,
    store: &ObjectStore,
    state: Option<&TxnState>,
    entry: &LogEntry,
) {
    let Some(state) = state else {
        let _ = log.mark_done(entry.index).await;
        return;
    };
    let txn = entry.op.obj_id;
    match entry.op.opcode {
        OpCode::TxnPrepare => {
            if log.was_applied(txn) {
                // Duplicate append (retry) of an already-applied txn.
                let _ = log.mark_done(entry.index).await;
                return;
            }
            if state.is_staged(txn) {
                // A retry duplicate at a new index, or a replay re-seeing
                // the staged prepare itself: the original stage governs.
                // Either way, re-consult the directory — this is how a
                // recovering participant resolves an in-doubt txn whose
                // coordinator decided while it was down.
                let (staged_idx, coord) = {
                    let staged = state.inner.staged.borrow();
                    let st = &staged[&txn];
                    (st.prep_index, st.coord)
                };
                if staged_idx != entry.index {
                    let _ = log.mark_done(entry.index).await;
                }
                match state.inner.dir.decision(coord, txn) {
                    Some(true) => state.apply_staged(node, log, store, txn).await,
                    Some(false) => state.discard_staged(log, txn).await,
                    None => {}
                }
                return;
            }
            let Some(p) = decode_prepare(&entry.payload) else {
                let _ = log.mark_done(entry.index).await;
                return;
            };
            let coord = p.coord;
            state.stage(txn, coord, entry.index, p.writes);
            // Resolution: the coordinator's decided record (via the
            // directory — the logs alone), observed in-band or found by
            // a replay's ring scan. Genuinely undecided prepares stay
            // staged, locked, and *not done* — they hold the log head
            // back so replay always re-sees them.
            match state.inner.dir.decision(coord, txn) {
                Some(true) => state.apply_staged(node, log, store, txn).await,
                Some(false) => state.discard_staged(log, txn).await,
                None => {}
            }
        }
        OpCode::TxnDecide => {
            if let Some(d) = decode_decide(&entry.payload) {
                state.inner.dir.note_decision(txn, d.commit);
                // The coordinator shard may itself be a participant with
                // a staged prepare; resolve it now.
                if d.commit {
                    state.apply_staged(node, log, store, txn).await;
                } else {
                    state.discard_staged(log, txn).await;
                }
            }
            let _ = log.mark_done(entry.index).await;
        }
        OpCode::TxnCommit => {
            state.inner.dir.note_decision(txn, true);
            state.apply_staged(node, log, store, txn).await;
            let _ = log.mark_done(entry.index).await;
        }
        OpCode::TxnAbort => {
            state.inner.dir.note_decision(txn, false);
            state.discard_staged(log, txn).await;
            let _ = log.mark_done(entry.index).await;
        }
        _ => {
            let _ = log.mark_done(entry.index).await;
        }
    }
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

/// Why a transaction aborted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbortReason {
    /// A write-set key was locked by another transaction.
    WriteConflict,
    /// A read-set key's version moved (or it was locked) since the read.
    ReadValidation,
    /// A participant's prepare append failed even after retries.
    PrepareFailed,
}

/// Outcome of a [`TxnClient::commit`] that reached a decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnOutcome {
    /// Durably committed: every participant's prepare and the decided
    /// record are flush-ACKed in PM.
    Committed,
    /// Aborted; no staged write will ever apply.
    Aborted(AbortReason),
}

/// Commit-pipeline observation points, for deterministic crash tests: a
/// hook installed via [`TxnClient::set_phase_hook`] fires synchronously
/// at each point and may crash nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnPhase {
    /// A participant's prepare record was flush-ACKed (`1..=n`, in join
    /// order).
    AfterPrepare(usize),
    /// The coordinator's decided record was flush-ACKed.
    AfterDecide,
    /// The commit was acknowledged to the caller.
    AfterAck,
}

/// An open transaction: recorded reads and buffered writes.
pub struct Txn {
    id: u64,
    /// `(shard, local id, version at read)`.
    reads: Vec<(usize, u64, u64)>,
    /// `(global id, value bytes)`, in program order.
    writes: Vec<(u64, Vec<u8>)>,
}

impl Txn {
    /// This transaction's id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Buffer a write (applied only if the transaction commits). Later
    /// writes to the same key win.
    pub fn put(&mut self, obj: u64, data: &Payload) {
        let bytes = data
            .bytes()
            .map(|b| b.to_vec())
            .unwrap_or_else(|| vec![0u8; data.len() as usize]);
        self.writes.push((obj, bytes));
    }
}

/// One client node's transactional endpoint over a sharded durable KV
/// service (see [`build_sharded_txn`]).
pub struct TxnClient {
    map: ShardMap,
    /// Per-shard durable connections (index = shard id).
    shards: Vec<Rc<DurableClient>>,
    /// Per-connection append serialization: txn record appends from this
    /// client to one shard never interleave (the durable connection has
    /// a single persist-ack waiter slot), while fan-out across shards
    /// stays parallel. Background commit/abort record appends take the
    /// same permit.
    append_sems: Vec<Rc<Semaphore>>,
    states: Vec<TxnState>,
    leases: Vec<LeaseState>,
    node: Node,
    handle: SimHandle,
    next_txn: Cell<u64>,
    id_base: u64,
    commits: Cell<u64>,
    aborts: Cell<u64>,
    #[allow(clippy::type_complexity)]
    hook: RefCell<Option<Box<dyn FnMut(TxnPhase)>>>,
}

impl TxnClient {
    /// Transactions committed by this client.
    pub fn commits(&self) -> u64 {
        self.commits.get()
    }

    /// Transactions aborted by this client.
    pub fn aborts(&self) -> u64 {
        self.aborts.get()
    }

    /// Install a commit-pipeline observation hook (see [`TxnPhase`]).
    pub fn set_phase_hook(&self, f: impl FnMut(TxnPhase) + 'static) {
        *self.hook.borrow_mut() = Some(Box::new(f));
    }

    fn phase(&self, p: TxnPhase) {
        if let Some(f) = self.hook.borrow_mut().as_mut() {
            f(p);
        }
    }

    /// Open a transaction.
    pub fn begin(&self) -> Txn {
        let c = self.next_txn.get();
        self.next_txn.set(c + 1);
        assert!(c < 1 << 32, "txn counter exceeded the id namespace");
        Txn {
            id: self.id_base | c,
            reads: Vec::new(),
            writes: Vec::new(),
        }
    }

    /// Transactional read: a durable-RPC GET on the owning shard, with
    /// the key's version recorded for commit-time validation.
    pub async fn read(&self, txn: &mut Txn, obj: u64, len: u64) -> RpcResult<Payload> {
        let (shard, local) = self.map.route(obj);
        let resp = self.shards[shard]
            .call(Request::Get { obj: local, len })
            .await?;
        txn.reads
            .push((shard, local, self.states[shard].version(local)));
        Ok(resp.payload.unwrap_or_else(|| Payload::synthetic(0, local)))
    }

    fn validate_reads(&self, txn: &Txn) -> bool {
        txn.reads.iter().all(|&(shard, local, v)| {
            let st = &self.states[shard];
            st.version(local) == v && st.lock_owner(local).is_none_or(|o| o == txn.id)
        })
    }

    /// Serialized txn-record append on shard `shard`'s connection, under
    /// its retry policy.
    async fn append(
        &self,
        shard: usize,
        opcode: OpCode,
        txn: u64,
        data: Payload,
    ) -> RpcResult<u64> {
        let _permit = self.append_sems[shard].acquire().await;
        self.shards[shard].append_record(opcode, txn, data).await
    }

    /// Fire-and-forget a resolution record (commit-apply or abort) to
    /// `shard`, retried in the background. Failures are survivable: the
    /// participant's replay resolves from the coordinator's decided
    /// record instead.
    fn append_background(&self, shard: usize, opcode: OpCode, txn: u64, data: Payload) {
        let client = Rc::clone(&self.shards[shard]);
        let sem = Rc::clone(&self.append_sems[shard]);
        self.handle.spawn(async move {
            let _permit = sem.acquire().await;
            let _ = client.append_record(opcode, txn, data).await;
        });
    }

    /// Commit the transaction: lock + OCC-validate, durable 2PC, lease
    /// revocation, ACK. `Ok(Aborted(_))` is a clean abort (nothing will
    /// apply anywhere); `Err(_)` means the decided append's fate is
    /// unknown — the transaction may commit during recovery, and the
    /// caller must not assume either outcome.
    pub async fn commit(&self, txn: Txn) -> RpcResult<TxnOutcome> {
        let id = txn.id;
        // Deduplicated write set in deterministic (shard, local) order;
        // later program-order writes win.
        let mut ws: BTreeMap<(usize, u64), Vec<u8>> = BTreeMap::new();
        for (obj, bytes) in &txn.writes {
            ws.insert(self.map.route(*obj), bytes.clone());
        }

        if ws.is_empty() {
            // Read-only: validation against host state, no log records.
            return Ok(if self.validate_reads(&txn) {
                self.commits.set(self.commits.get() + 1);
                TxnOutcome::Committed
            } else {
                self.aborts.set(self.aborts.get() + 1);
                TxnOutcome::Aborted(AbortReason::ReadValidation)
            });
        }

        let participants: Vec<usize> = ws
            .keys()
            .map(|&(shard, _)| shard)
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        let coord = participants[0];

        // Phase 0: lock the write set, then validate the read set.
        let abort_local = |reason: AbortReason| {
            for &shard in &participants {
                self.states[shard].unlock_all(id);
            }
            self.node
                .obs()
                .event(Subsystem::Rpc, EventKind::TxnAbort, id, 0, 0);
            self.aborts.set(self.aborts.get() + 1);
            Ok(TxnOutcome::Aborted(reason))
        };
        for &(shard, local) in ws.keys() {
            if !self.states[shard].try_lock(local, id) {
                return abort_local(AbortReason::WriteConflict);
            }
        }
        if !self.validate_reads(&txn) {
            return abort_local(AbortReason::ReadValidation);
        }

        // Phase 1: durable prepare records, fanned out concurrently to
        // every participant shard's log (like replicated puts).
        let mut joins = Vec::with_capacity(participants.len());
        for &shard in &participants {
            let writes: Vec<(u64, Vec<u8>)> = ws
                .range((shard, 0)..=(shard, u64::MAX))
                .map(|(&(_, local), bytes)| (local, bytes.clone()))
                .collect();
            let payload = encode_prepare(coord, &writes);
            let client = Rc::clone(&self.shards[shard]);
            let sem = Rc::clone(&self.append_sems[shard]);
            joins.push((
                shard,
                payload.len(),
                self.handle.spawn(async move {
                    let _permit = sem.acquire().await;
                    client.append_record(OpCode::TxnPrepare, id, payload).await
                }),
            ));
        }
        let mut prepared: Vec<usize> = Vec::with_capacity(participants.len());
        for (shard, bytes, join) in joins {
            if join.await.is_ok() {
                prepared.push(shard);
                self.node.obs().event(
                    Subsystem::Rpc,
                    EventKind::TxnPrepare,
                    id,
                    shard as u64,
                    bytes,
                );
                self.phase(TxnPhase::AfterPrepare(prepared.len()));
            }
        }
        if prepared.len() < participants.len() {
            // Abort: durable abort records to the shards that did stage a
            // prepare (background, retried) release their stages; host
            // locks release now. No decided record ever says commit, so
            // replay can only discard.
            self.node.obs().event(
                Subsystem::Rpc,
                EventKind::TxnAbort,
                id,
                prepared.len() as u64,
                0,
            );
            for &shard in &prepared {
                self.append_background(
                    shard,
                    OpCode::TxnAbort,
                    id,
                    Payload::from_bytes(Vec::new()),
                );
            }
            for &shard in &participants {
                self.states[shard].unlock_all(id);
            }
            self.aborts.set(self.aborts.get() + 1);
            return Ok(TxnOutcome::Aborted(AbortReason::PrepareFailed));
        }

        // Phase 2: the decided record at the coordinator shard. Its
        // flush ACK is the commit point. A failure here is indeterminate
        // (the record may have persisted): surface the error, append no
        // aborts, and let recovery resolve from the logs.
        let decide = encode_decide(true, &participants);
        self.append(coord, OpCode::TxnDecide, id, decide).await?;
        self.node
            .obs()
            .event(Subsystem::Rpc, EventKind::TxnDecide, id, coord as u64, 1);
        self.phase(TxnPhase::AfterDecide);

        // Lease revocation for every written key *before* the txn ACK
        // (invariant I5a, with the TxnAck standing in for RpcComplete).
        let mut total_bytes = 0u64;
        for (&(shard, local), bytes) in &ws {
            self.leases[shard].bump(local, id, self.node.obs());
            total_bytes += bytes.len() as u64;
        }
        self.node.obs().event(
            Subsystem::Rpc,
            EventKind::TxnAck,
            id,
            participants.len() as u64,
            total_bytes,
        );
        self.commits.set(self.commits.get() + 1);
        self.phase(TxnPhase::AfterAck);

        // Phase 3 (off the critical path): commit-apply records fan out
        // to the participants; processing applies the staged writes and
        // releases locks. Lost records are covered by the decided record
        // at replay.
        for &shard in &participants {
            self.append_background(
                shard,
                OpCode::TxnCommit,
                id,
                Payload::from_bytes(Vec::new()),
            );
        }
        Ok(TxnOutcome::Committed)
    }
}

// ---------------------------------------------------------------------------
// Builder
// ---------------------------------------------------------------------------

/// A sharded durable KV service with the transaction layer wired in:
/// per-shard [`TxnState`] tables, a shared [`TxnDirectory`], per-shard
/// lease tables (commit revokes cached reads before the txn ACK), and
/// one [`TxnClient`] per client node.
pub struct ShardedTxn {
    /// One transactional endpoint per client node, in `client_nodes`
    /// order.
    pub clients: Vec<TxnClient>,
    /// `servers[shard][client]`, as in
    /// [`ShardedDurable`](crate::shard::ShardedDurable).
    pub servers: Vec<Vec<Rc<DurableServer>>>,
    /// Per-shard transaction host state (index = shard id).
    pub states: Vec<TxnState>,
    /// Per-shard lease tables (index = shard id).
    pub leases: Vec<LeaseState>,
    directory: TxnDirectory,
}

impl ShardedTxn {
    /// The shared decision directory.
    pub fn directory(&self) -> &TxnDirectory {
        &self.directory
    }

    /// Node-crash recovery for shard `shard`: drop the volatile decision
    /// cache (resolution must come from the logs alone), then replay
    /// every per-connection log on that server. Replayed prepare records
    /// re-stage and resolve through the directory; genuinely undecided
    /// ones stay staged and locked. Returns the entries re-enqueued.
    pub fn recover_shard(&self, shard: usize) -> usize {
        self.directory.forget_volatile();
        let crash = FaultKind::NodeCrash {
            down_for: SimDuration::ZERO,
        };
        self.servers[shard].iter().map(|s| s.recover(&crash)).sum()
    }

    /// Transactions currently in doubt (staged, unresolved) on `shard`.
    pub fn in_doubt(&self, shard: usize) -> usize {
        self.states[shard].staged_count()
    }

    /// Wire node-crash recovery into the fault injector: a recovering
    /// server node replays its shard's logs through
    /// [`recover_shard`](ShardedTxn::recover_shard) (shard `s` lives on
    /// server node `s`).
    pub fn wire_recovery(&self, inj: &FaultInjector) {
        let servers = self.servers.clone();
        let dir = self.directory.clone();
        inj.on_recovery(move |node, kind| {
            if !matches!(kind, FaultKind::NodeCrash { .. }) {
                return;
            }
            if let Some(shard_servers) = servers.get(node) {
                dir.forget_volatile();
                for s in shard_servers {
                    s.recover(&kind);
                }
            }
        });
    }
}

/// Build a sharded durable KV service with multi-shard transactions:
/// shards on server nodes `0..map.shards()`, one durable connection per
/// (client, shard) pair, each shard's [`TxnState`] and lease table wired
/// into every connection, and every log registered in one shared
/// [`TxnDirectory`]. All server loops are started.
pub fn build_sharded_txn(
    cluster: &Cluster,
    map: ShardMap,
    client_nodes: &[usize],
    cfg: &DurableConfig,
) -> ShardedTxn {
    let shards = map.shards();
    assert!(
        cluster.servers() >= shards,
        "cluster has {} server nodes, need {shards}",
        cluster.servers()
    );
    let directory = TxnDirectory::new();
    let states: Vec<TxnState> = (0..shards)
        .map(|s| TxnState::new(s, directory.clone()))
        .collect();
    let leases: Vec<LeaseState> = (0..shards).map(|s| LeaseState::new(s as u64)).collect();
    let mut servers: Vec<Vec<Rc<DurableServer>>> = (0..shards).map(|_| Vec::new()).collect();
    let mut clients = Vec::with_capacity(client_nodes.len());
    for (lane, &client_idx) in client_nodes.iter().enumerate() {
        let mut per_shard = Vec::with_capacity(shards);
        let mut sems = Vec::with_capacity(shards);
        for (shard, shard_servers) in servers.iter_mut().enumerate() {
            let wiring = Wiring {
                lease: Some(leases[shard].clone()),
                txn: Some(states[shard].clone()),
                ..Wiring::default()
            };
            let (c, s) = connect(cluster, client_idx, shard, lane, cfg, wiring);
            s.start();
            directory.register(shard, s.log().clone());
            shard_servers.push(Rc::new(s));
            per_shard.push(Rc::new(c));
            sems.push(Rc::new(Semaphore::new(1)));
        }
        assert!(lane < 1 << 27, "client tag exceeds the txn id namespace");
        clients.push(TxnClient {
            map,
            shards: per_shard,
            append_sems: sems,
            states: states.clone(),
            leases: leases.clone(),
            node: cluster.node(client_idx).clone(),
            handle: cluster.handle().clone(),
            next_txn: Cell::new(0),
            id_base: TXN_ID_BASE | ((lane as u64) << 32),
            commits: Cell::new(0),
            aborts: Cell::new(0),
            hook: RefCell::new(None),
        });
    }
    ShardedTxn {
        clients,
        servers,
        states,
        leases,
        directory,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::durable::DurableKind;
    use crate::rpc::ServerProfile;
    use prdma_node::ClusterConfig;
    use prdma_simnet::Sim;

    fn txn_fixture(sim: &Sim, shards: usize, clients: usize) -> ShardedTxn {
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
        build_sharded_txn(&cluster, ShardMap::new(shards), &client_nodes, &cfg)
    }

    #[test]
    fn prepare_record_roundtrip() {
        let writes = vec![(3u64, vec![1u8, 2, 3]), (9, vec![]), (12, vec![0xFF; 64])];
        let p = encode_prepare(2, &writes);
        let bytes: Vec<u8> = p.bytes().unwrap().to_vec();
        let d = decode_prepare(&bytes).unwrap();
        assert_eq!(d.coord, 2);
        assert_eq!(d.writes, writes);
        assert!(decode_prepare(&bytes[..bytes.len() - 1]).is_none());
    }

    #[test]
    fn decide_record_roundtrip() {
        for commit in [true, false] {
            let p = encode_decide(commit, &[0, 3, 5]);
            let d = decode_decide(p.bytes().unwrap()).unwrap();
            assert_eq!(d.commit, commit);
        }
    }

    #[test]
    fn multi_shard_txn_commits_and_applies_everywhere() {
        let mut sim = Sim::new(101);
        let svc = txn_fixture(&sim, 3, 1);
        let client = svc.clients.into_iter().next().unwrap();
        let servers = svc.servers;
        let states = svc.states;
        sim.block_on(async move {
            let mut txn = client.begin();
            for obj in 0..3u64 {
                txn.put(obj, &Payload::from_bytes(vec![0x60 + obj as u8; 48]));
            }
            let out = client.commit(txn).await.unwrap();
            assert_eq!(out, TxnOutcome::Committed);
        });
        sim.run();
        // Striping: global obj o → shard o, local 0. Applied on all three.
        for (shard, per_client) in servers.iter().enumerate() {
            assert_eq!(
                per_client[0].store().persistent_bytes(0, 48),
                vec![0x60 + shard as u8; 48],
                "shard {shard}"
            );
            assert_eq!(states[shard].applied_txns(), 1, "shard {shard}");
            assert_eq!(states[shard].staged_count(), 0, "shard {shard}");
            assert_eq!(states[shard].version(0), 1, "shard {shard}");
        }
    }

    #[test]
    fn txn_reads_validate_and_commit_bumps_versions() {
        let mut sim = Sim::new(103);
        let svc = txn_fixture(&sim, 2, 1);
        let client = svc.clients.into_iter().next().unwrap();
        sim.block_on(async move {
            // Seed a value transactionally.
            let mut t0 = client.begin();
            t0.put(0, &Payload::from_bytes(vec![0xAB; 32]));
            assert_eq!(client.commit(t0).await.unwrap(), TxnOutcome::Committed);

            // Read-modify-write across both shards.
            let mut t1 = client.begin();
            let v = client.read(&mut t1, 0, 32).await.unwrap();
            assert_eq!(v.len(), 32);
            t1.put(1, &Payload::from_bytes(vec![0xCD; 32]));
            assert_eq!(client.commit(t1).await.unwrap(), TxnOutcome::Committed);
            assert_eq!(client.commits(), 2);
            assert_eq!(client.aborts(), 0);
        });
        sim.run();
    }

    #[test]
    fn conflicting_writers_abort_with_write_conflict() {
        let mut sim = Sim::new(107);
        let svc = txn_fixture(&sim, 2, 2);
        let mut it = svc.clients.into_iter();
        let c0 = it.next().unwrap();
        let c1 = it.next().unwrap();
        let states = svc.states;
        sim.block_on(async move {
            // c0 locks key 0 by reaching prepare… simulate the window by
            // taking the host lock directly through a half-committed txn:
            // run c0's commit and c1's commit concurrently on the same key.
            let mut t0 = c0.begin();
            t0.put(0, &Payload::from_bytes(vec![1; 16]));
            let mut t1 = c1.begin();
            t1.put(0, &Payload::from_bytes(vec![2; 16]));
            // Manually hold c0's lock to force the conflict window.
            assert!(states[0].try_lock(0, t0.id()));
            let out = c1.commit(t1).await.unwrap();
            assert_eq!(out, TxnOutcome::Aborted(AbortReason::WriteConflict));
            states[0].unlock_all(t0.id());
            assert_eq!(c0.commit(t0).await.unwrap(), TxnOutcome::Committed);
        });
        sim.run();
    }

    #[test]
    fn stale_read_aborts_with_read_validation() {
        let mut sim = Sim::new(109);
        let svc = txn_fixture(&sim, 2, 2);
        let mut it = svc.clients.into_iter();
        let c0 = it.next().unwrap();
        let c1 = it.next().unwrap();
        sim.block_on(async move {
            let mut seed = c0.begin();
            seed.put(0, &Payload::from_bytes(vec![0; 16]));
            assert_eq!(c0.commit(seed).await.unwrap(), TxnOutcome::Committed);

            // c1 reads key 0, then c0 commits a new version under it.
            let mut t1 = c1.begin();
            c1.read(&mut t1, 0, 16).await.unwrap();
            t1.put(2, &Payload::from_bytes(vec![3; 16]));

            let mut t0 = c0.begin();
            t0.put(0, &Payload::from_bytes(vec![9; 16]));
            assert_eq!(c0.commit(t0).await.unwrap(), TxnOutcome::Committed);
            // Wait for the commit record to apply (version bump).
            loop {
                if c1.states[0].version(0) >= 2 {
                    break;
                }
                c1.handle
                    .sleep(prdma_simnet::SimDuration::from_micros(50))
                    .await;
            }

            let out = c1.commit(t1).await.unwrap();
            assert_eq!(out, TxnOutcome::Aborted(AbortReason::ReadValidation));
        });
        sim.run();
    }

    #[test]
    fn every_durable_kind_commits_transactions() {
        for kind in DurableKind::ALL {
            let mut sim = Sim::new(113);
            let cluster = Cluster::new(sim.handle(), ClusterConfig::with_servers(2, 1));
            let cfg = DurableConfig {
                kind,
                profile: ServerProfile::light(),
                slot_payload: 1024,
                object_slot: 1024,
                store_capacity: 1 << 20,
                log_slots: 64,
                ..Default::default()
            };
            let svc = build_sharded_txn(&cluster, ShardMap::new(2), &[2], &cfg);
            let client = svc.clients.into_iter().next().unwrap();
            let servers = svc.servers;
            sim.block_on(async move {
                let mut txn = client.begin();
                txn.put(0, &Payload::from_bytes(vec![0x11; 24]));
                txn.put(1, &Payload::from_bytes(vec![0x22; 24]));
                assert_eq!(
                    client.commit(txn).await.unwrap(),
                    TxnOutcome::Committed,
                    "{kind:?}"
                );
            });
            sim.run();
            for (shard, per_client) in servers.iter().enumerate() {
                assert_eq!(
                    per_client[0].store().persistent_bytes(0, 24),
                    vec![0x11 + 0x11 * shard as u8; 24],
                    "{kind:?} shard {shard}"
                );
            }
        }
    }

    #[test]
    fn directory_resolves_decision_from_log_scan_alone() {
        let mut sim = Sim::new(127);
        let svc = txn_fixture(&sim, 2, 1);
        let client = svc.clients.into_iter().next().unwrap();
        let dir = svc.directory.clone();
        let txn_id = sim.block_on(async move {
            let mut txn = client.begin();
            txn.put(0, &Payload::from_bytes(vec![5; 16]));
            txn.put(1, &Payload::from_bytes(vec![6; 16]));
            let id = txn.id();
            assert_eq!(client.commit(txn).await.unwrap(), TxnOutcome::Committed);
            id
        });
        sim.run();
        // Drop the volatile cache: the decision must still be resolvable
        // from the coordinator's persisted decided record.
        dir.forget_volatile();
        let before = dir.scan_resolved();
        assert_eq!(dir.decision(0, txn_id), Some(true));
        assert_eq!(
            dir.scan_resolved(),
            before + 1,
            "resolution must scan the log"
        );
    }

    #[test]
    fn lease_epochs_bump_before_txn_ack() {
        let mut sim = Sim::new(131);
        let svc = txn_fixture(&sim, 2, 1);
        let client = svc.clients.into_iter().next().unwrap();
        let leases = svc.leases;
        sim.block_on(async move {
            let mut txn = client.begin();
            txn.put(0, &Payload::from_bytes(vec![1; 16]));
            txn.put(1, &Payload::from_bytes(vec![2; 16]));
            assert_eq!(client.commit(txn).await.unwrap(), TxnOutcome::Committed);
        });
        sim.run();
        assert_eq!(leases[0].epoch(0), 1);
        assert_eq!(leases[1].epoch(0), 1);
    }
}
