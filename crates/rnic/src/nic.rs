//! The RNIC model: packet-processing engines, PCIe DMA engines, the
//! volatile SRAM staging buffer, and the PCIe posted-write ordering that
//! makes read-after-write flushing work.

use std::cell::{Cell, OnceCell};
use std::rc::Rc;

use prdma_pmem::{PmDevice, VolatileMemory};
use prdma_simnet::journal::{EventKind, Subsystem, NO_ID};
use prdma_simnet::trace::{Phase, Span, Tracer};
use prdma_simnet::{FifoResource, Notify, Obs, SimDuration, SimHandle};

use crate::config::RnicConfig;
use crate::payload::Payload;

/// Where a DMA lands on the receiving node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemTarget {
    /// Persistent memory at this device offset.
    Pm(u64),
    /// DRAM (message buffers, application memory) at this offset.
    Dram(u64),
}

/// Errors surfaced by RDMA operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RdmaError {
    /// The remote node is down (crashed and not yet restarted).
    Disconnected,
    /// Payload exceeds the UD MTU (FaSST-style 4 KB transport limit).
    MtuExceeded {
        /// Payload size.
        len: u64,
        /// Transport MTU.
        mtu: u64,
    },
    /// Underlying PM device error.
    Pm(prdma_pmem::PmError),
    /// A content-bearing store landed on a slot that wrapped modulo the
    /// region and still holds a *different* live object — the write would
    /// silently corrupt it. Timing-only payloads never trip this.
    SlotAliased {
        /// Object id whose write was rejected.
        obj: u64,
        /// Live object currently occupying the slot.
        occupant: u64,
    },
}

impl std::fmt::Display for RdmaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RdmaError::Disconnected => write!(f, "remote node down"),
            RdmaError::MtuExceeded { len, mtu } => {
                write!(f, "payload {len} exceeds UD MTU {mtu}")
            }
            RdmaError::Pm(e) => write!(f, "PM error: {e}"),
            RdmaError::SlotAliased { obj, occupant } => {
                write!(
                    f,
                    "object {obj} wraps onto the slot holding live object {occupant}"
                )
            }
        }
    }
}

impl std::error::Error for RdmaError {}

impl From<prdma_pmem::PmError> for RdmaError {
    fn from(e: prdma_pmem::PmError) -> Self {
        RdmaError::Pm(e)
    }
}

/// Result alias for RDMA operations.
pub type RdmaResult<T> = Result<T, RdmaError>;

struct RnicInner {
    handle: SimHandle,
    cfg: RnicConfig,
    pm: PmDevice,
    dram: VolatileMemory,
    /// Packet-processing engines (per-message fixed cost).
    engine: FifoResource,
    /// PCIe DMA engines.
    dma: FifoResource,
    /// Posted (in-flight) DMA writes, by monotonically increasing ticket;
    /// PCIe ordering makes a read drain every write posted *before* it
    /// (but not writes that arrive later — otherwise a flush under
    /// constant traffic from other senders would never return).
    next_dma_ticket: Cell<u64>,
    active_dma: std::cell::RefCell<std::collections::BTreeSet<u64>>,
    dma_drained: Notify,
    /// Volatile staging-buffer occupancy (bytes currently not yet DMA'd).
    sram_bytes: Cell<u64>,
    sram_peak: Cell<u64>,
    /// Liveness: false while the node is crashed.
    up: Cell<bool>,
    /// Incremented on every crash; lets protocols detect restarts.
    epoch: Cell<u64>,
    /// Set when a PM-bound DMA aborted mid-flight (crash / SRAM loss):
    /// its ticket completed without the data reaching the persistence
    /// domain, so no flush barrier may certify durability until the NIC
    /// is reset ([`Rnic::restart`]) and the log recovered.
    dma_aborted: Cell<bool>,
    /// Fault-injected extra loss on messages *into* this node: probability
    /// and the virtual time the burst ends (ns).
    injected_loss_rate: Cell<f64>,
    injected_loss_until: Cell<u64>,
    msgs_processed: Cell<u64>,
    /// RC hardware retransmits attributed to this NIC as the sender.
    retransmits: Cell<u64>,
    /// Recv WQEs fetched over PCIe (two-sided and write-imm delivery).
    recv_wqe_fetches: Cell<u64>,
    /// Completion-queue entries DMA'd to host memory.
    cqe_dma_writes: Cell<u64>,
    /// The owning node's observability handle (see [`Rnic::obs`]).
    obs: OnceCell<Obs>,
}

/// One RDMA NIC attached to a node's PM and DRAM. Cheap to clone.
#[derive(Clone)]
pub struct Rnic {
    inner: Rc<RnicInner>,
}

impl Rnic {
    /// Build an RNIC over the node's memories.
    pub fn new(handle: SimHandle, cfg: RnicConfig, pm: PmDevice, dram: VolatileMemory) -> Self {
        let engine = FifoResource::new(handle.clone(), cfg.nic_units.max(1));
        let dma = FifoResource::new(handle.clone(), cfg.dma_units.max(1));
        Rnic {
            inner: Rc::new(RnicInner {
                handle,
                cfg,
                pm,
                dram,
                engine,
                dma,
                next_dma_ticket: Cell::new(0),
                active_dma: std::cell::RefCell::new(std::collections::BTreeSet::new()),
                dma_drained: Notify::new(),
                sram_bytes: Cell::new(0),
                sram_peak: Cell::new(0),
                up: Cell::new(true),
                epoch: Cell::new(0),
                dma_aborted: Cell::new(false),
                injected_loss_rate: Cell::new(0.0),
                injected_loss_until: Cell::new(0),
                msgs_processed: Cell::new(0),
                retransmits: Cell::new(0),
                recv_wqe_fetches: Cell::new(0),
                cqe_dma_writes: Cell::new(0),
                obs: OnceCell::new(),
            }),
        }
    }

    /// Attach the owning node's observability handle. Packet-engine time
    /// is traced as [`Phase::Wire`], DMA-engine time as [`Phase::NicDma`]
    /// and posted-write drains as [`Phase::FlushWait`]; NIC-internal
    /// transitions (SRAM admits, DMA tickets, WQE/CQE traffic, flush
    /// barriers) are journaled. Attach once, before the NIC is used.
    pub fn attach_obs(&self, obs: &Obs) {
        assert!(
            self.inner.obs.set(obs.clone()).is_ok(),
            "RNIC observability attached twice or after use"
        );
    }

    /// The node's observability handle (shared with the QP and flush
    /// layers, which trace verb posts and wire legs and journal doorbells
    /// and wire segments against it). A NIC used before any attach gets a
    /// private tracer and no journal.
    pub fn obs(&self) -> &Obs {
        self.inner
            .obs
            .get_or_init(|| Obs::new(Tracer::new(self.inner.handle.clone()), None, None))
    }

    /// The configuration this RNIC was built with.
    pub fn config(&self) -> &RnicConfig {
        &self.inner.cfg
    }

    /// The node's PM device.
    pub fn pm(&self) -> &PmDevice {
        &self.inner.pm
    }

    /// The node's DRAM.
    pub fn dram(&self) -> &VolatileMemory {
        &self.inner.dram
    }

    /// The simulation handle.
    pub fn handle(&self) -> &SimHandle {
        &self.inner.handle
    }

    /// Occupy one packet-processing engine for the per-message cost.
    pub async fn process_message(&self) {
        let _span = self.obs().span(Phase::Wire);
        self.inner.engine.process(self.inner.cfg.nic_process).await;
        self.inner
            .msgs_processed
            .set(self.inner.msgs_processed.get() + 1);
    }

    /// Admit `len` payload bytes into the volatile SRAM staging buffer.
    pub fn sram_admit(&self, len: u64) {
        let now = self.inner.sram_bytes.get() + len;
        self.inner.sram_bytes.set(now);
        self.inner
            .sram_peak
            .set(self.inner.sram_peak.get().max(now));
        self.obs()
            .event(Subsystem::Nic, EventKind::SramAdmit, NO_ID, NO_ID, len);
    }

    /// Release staged bytes after DMA completes.
    pub fn sram_release(&self, len: u64) {
        let cur = self.inner.sram_bytes.get();
        self.inner.sram_bytes.set(cur.saturating_sub(len));
        self.obs()
            .event(Subsystem::Nic, EventKind::SramRelease, NO_ID, NO_ID, len);
    }

    /// Peak SRAM occupancy observed (bytes).
    pub fn sram_peak(&self) -> u64 {
        self.inner.sram_peak.get()
    }

    /// Current SRAM occupancy (bytes staged, not yet DMA'd). Metrics
    /// gauge-provider hook.
    pub fn sram_bytes(&self) -> u64 {
        self.inner.sram_bytes.get()
    }

    /// Posted DMA writes currently in flight. Metrics gauge-provider
    /// hook.
    pub fn dma_inflight(&self) -> usize {
        self.inner.active_dma.borrow().len()
    }

    /// DMA a payload from SRAM to `target`, honoring the DDIO setting.
    ///
    /// Resolves when the data has left the NIC *and* — for PM targets with
    /// DDIO disabled — reached the persistence domain. With DDIO enabled
    /// the data lands in the (volatile) LLC and the CPU must `clflush` it.
    ///
    /// Returns `true` iff the bytes are durable when this resolves.
    pub async fn dma_write(&self, target: MemTarget, payload: &Payload) -> RdmaResult<bool> {
        let ticket = self.begin_pending_dma();
        let result = self.dma_write_untracked(target, payload).await;
        self.end_pending_dma(ticket);
        result
    }

    /// Like [`dma_write`](Self::dma_write) but the caller manages the
    /// posted-write markers ([`begin_pending_dma`](Self::begin_pending_dma)
    /// / [`end_pending_dma`](Self::end_pending_dma)). Used by the QP layer,
    /// which must mark the write as posted at packet-arrival time, before
    /// the asynchronous DMA task gets scheduled.
    pub async fn dma_write_untracked(
        &self,
        target: MemTarget,
        payload: &Payload,
    ) -> RdmaResult<bool> {
        let len = payload.len();
        let pcie = self.inner.cfg.pcie_latency
            + prdma_simnet::transfer_time(len, self.inner.cfg.pcie_gbps);
        self.dma_write_inner(target, payload, pcie).await
    }

    async fn dma_write_inner(
        &self,
        target: MemTarget,
        payload: &Payload,
        pcie: SimDuration,
    ) -> RdmaResult<bool> {
        // Power-failure semantics: if the node crashes while this DMA is in
        // flight, the transfer is aborted and nothing reaches memory.
        let epoch = self.inner.epoch.get();
        {
            let _span = self.obs().span(Phase::NicDma);
            self.inner.dma.process(pcie).await;
        }
        if self.inner.epoch.get() != epoch || !self.inner.up.get() {
            self.note_dma_abort(target);
            return Ok(false);
        }
        match target {
            MemTarget::Dram(addr) => {
                for (off, bytes) in payload.inline_parts() {
                    self.inner.dram.write(addr + off, bytes);
                }
                Ok(false)
            }
            MemTarget::Pm(addr) => {
                if self.inner.cfg.ddio {
                    // DDIO routes the DMA into the LLC: volatile.
                    for (off, bytes) in payload.inline_parts() {
                        self.inner.pm.cache_write(addr + off, bytes)?;
                    }
                    Ok(false)
                } else {
                    // Straight to the persistence domain: pay the media
                    // time for the whole transfer, then place the content.
                    // A crash during the media write aborts the whole
                    // transfer (all-or-nothing; torn-entry behaviour is
                    // tested separately by crafting partial images).
                    self.inner.pm.simulate_write_time(payload.len()).await;
                    if self.inner.epoch.get() != epoch || !self.inner.up.get() {
                        self.note_dma_abort(target);
                        return Ok(false);
                    }
                    for (off, bytes) in payload.inline_parts() {
                        self.inner.pm.commit_persistent(addr + off, bytes)?;
                    }
                    Ok(true)
                }
            }
        }
    }

    /// DMA-read `len` bytes from `target`.
    ///
    /// PCIe ordering: a read request drains all previously posted DMA
    /// writes first — this is exactly the mechanism the paper's emulated
    /// `WFlush` (read-after-write) exploits.
    pub async fn dma_read(&self, target: MemTarget, len: u64, inline: bool) -> RdmaResult<Payload> {
        self.drain_posted_writes().await?;
        // A DMA read is a request/completion round trip over the bus.
        let pcie = self.inner.cfg.pcie_latency * 2
            + prdma_simnet::transfer_time(len, self.inner.cfg.pcie_gbps);
        {
            let _span = self.obs().span(Phase::NicDma);
            self.inner.dma.process(pcie).await;
        }
        match target {
            MemTarget::Dram(addr) => {
                if inline {
                    Ok(Payload::from_bytes(self.inner.dram.read(addr, len)))
                } else {
                    Ok(Payload::synthetic(len, 0))
                }
            }
            MemTarget::Pm(addr) => {
                if inline {
                    let bytes = self.inner.pm.read(addr, len).await?;
                    Ok(Payload::from_bytes(bytes))
                } else {
                    self.inner.pm.simulate_read_time(len).await;
                    Ok(Payload::synthetic(len, 0))
                }
            }
        }
    }

    /// PCIe fetch of a posted recv WQE (two-sided delivery prologue).
    /// A fetch is a PCIe *read*: request + completion, two bus traversals.
    pub async fn fetch_recv_wqe(&self) {
        let c = &self.inner.recv_wqe_fetches;
        c.set(c.get() + 1);
        let _span = self.obs().span_event(
            Phase::NicDma,
            Subsystem::Nic,
            EventKind::WqeFetch,
            NO_ID,
            NO_ID,
            0,
        );
        self.inner
            .dma
            .process(self.inner.cfg.pcie_latency * 2)
            .await;
    }

    /// DMA the completion-queue entry of a delivered two-sided (or
    /// write-imm) message to host memory. The CPU cannot observe the
    /// completion before the CQE lands — this is part of why two-sided
    /// transports pay a higher hardware RTT than one-sided write + poll
    /// (paper Fig. 20: DaRPC vs FaRM).
    pub async fn dma_write_cqe(&self) {
        let c = &self.inner.cqe_dma_writes;
        c.set(c.get() + 1);
        let _span = self.obs().span_event(
            Phase::NicDma,
            Subsystem::Nic,
            EventKind::CqeWrite,
            NO_ID,
            NO_ID,
            0,
        );
        self.inner.dma.process(self.inner.cfg.pcie_latency).await;
    }

    /// Mark the start of a posted DMA write; returns its ordering ticket.
    pub fn begin_pending_dma(&self) -> u64 {
        let t = self.inner.next_dma_ticket.get();
        self.inner.next_dma_ticket.set(t + 1);
        self.inner.active_dma.borrow_mut().insert(t);
        self.obs()
            .event(Subsystem::Nic, EventKind::DmaIssue, NO_ID, t, 0);
        t
    }

    /// Mark the end of a posted DMA write, releasing waiting reads.
    pub fn end_pending_dma(&self, ticket: u64) {
        self.inner.active_dma.borrow_mut().remove(&ticket);
        self.obs()
            .event(Subsystem::Nic, EventKind::DmaComplete, NO_ID, ticket, 0);
        // Wake every drain waiter: each re-checks its own barrier (a
        // notify_one could wake a waiter whose barrier is not yet met,
        // losing the wake another waiter needed).
        self.inner.dma_drained.notify_all();
    }

    /// A PM-bound DMA aborted (crash / SRAM loss dropped its data after
    /// its ticket was posted): poison flush barriers until the NIC resets.
    /// DRAM-bound aborts are invisible to persistence and do not poison.
    fn note_dma_abort(&self, target: MemTarget) {
        if matches!(target, MemTarget::Pm(_)) && !self.inner.cfg.ddio {
            self.inner.dma_aborted.set(true);
        }
    }

    /// Wait until every DMA write posted *before now* has completed
    /// (writes posted later do not delay this — PCIe ordering is a
    /// barrier, not a quiescence requirement).
    ///
    /// Fails with [`RdmaError::Disconnected`] if the node is down when the
    /// barrier resolves, or if any covered PM-bound DMA was aborted by a
    /// crash or SRAM loss — an aborted ticket completes without its data
    /// reaching the persistence domain, so ACKing the barrier would
    /// certify durability over a torn entry. The poison clears on
    /// [`restart`](Self::restart) (NIC reset + log recovery).
    pub async fn drain_posted_writes(&self) -> RdmaResult<()> {
        let barrier = self.inner.next_dma_ticket.get();
        self.obs()
            .event(Subsystem::Flush, EventKind::FlushIssue, NO_ID, barrier, 0);
        // Only an actual wait is a flush stall; instantaneous drains
        // (nothing posted) stay out of the FlushWait distribution.
        let mut span: Option<Span> = None;
        loop {
            let oldest = self.inner.active_dma.borrow().iter().next().copied();
            match oldest {
                Some(t) if t < barrier => {
                    span.get_or_insert_with(|| self.obs().span(Phase::FlushWait));
                    self.inner.dma_drained.notified().await;
                }
                _ => {
                    if !self.inner.up.get() || self.inner.dma_aborted.get() {
                        return Err(RdmaError::Disconnected);
                    }
                    self.obs()
                        .event(Subsystem::Flush, EventKind::FlushAck, NO_ID, barrier, 0);
                    return Ok(());
                }
            }
        }
    }

    /// Whether the node is currently up.
    pub fn is_up(&self) -> bool {
        self.inner.up.get()
    }

    /// Crash the node: RNIC SRAM contents are lost, DRAM is cleared, PM
    /// dirty cache lines are dropped. The node stays down until
    /// [`restart`](Self::restart).
    pub fn crash(&self) {
        self.inner.up.set(false);
        self.inner.epoch.set(self.inner.epoch.get() + 1);
        self.inner.sram_bytes.set(0);
        self.inner.pm.crash();
        self.inner.dram.crash();
    }

    /// Bring the node back up after a crash. Also clears the torn-DMA
    /// flush poison: a restart implies a NIC reset, and the recovery scan
    /// that follows it accounts for every torn log entry.
    pub fn restart(&self) {
        self.inner.up.set(true);
        self.inner.dma_aborted.set(false);
    }

    /// Drop the NIC's volatile staging SRAM and abort in-flight DMA while
    /// the NIC stays up (an NIC-internal reset). Epoch bumps exactly as on
    /// a crash, so every in-flight transfer is discarded; PM, DRAM, and
    /// connectivity are untouched. Flush barriers stay poisoned until
    /// [`restart`](Self::restart).
    pub fn lose_sram(&self) {
        self.inner.epoch.set(self.inner.epoch.get() + 1);
        self.inner.sram_bytes.set(0);
    }

    /// Inject extra loss with probability `rate` on messages into this
    /// node until virtual time `until` (fault-injection hook; RC absorbs
    /// the loss via hardware retransmit, UC/UD drop silently).
    pub fn inject_loss(&self, rate: f64, until: prdma_simnet::SimTime) {
        assert!((0.0..=1.0).contains(&rate), "loss rate must be in [0,1]");
        self.inner.injected_loss_rate.set(rate);
        self.inner.injected_loss_until.set(until.as_nanos());
    }

    /// The currently active injected loss rate (0 outside any burst).
    pub fn injected_loss(&self) -> f64 {
        if self.inner.handle.now().as_nanos() < self.inner.injected_loss_until.get() {
            self.inner.injected_loss_rate.get()
        } else {
            0.0
        }
    }

    /// Crash epoch (number of crashes so far).
    pub fn epoch(&self) -> u64 {
        self.inner.epoch.get()
    }

    /// Messages handled by the processing engines.
    pub fn msgs_processed(&self) -> u64 {
        self.inner.msgs_processed.get()
    }

    /// Note one RC hardware retransmit with this NIC as the sender
    /// (bumped by the QP layer's loss path).
    pub fn note_retransmit(&self) {
        self.inner.retransmits.set(self.inner.retransmits.get() + 1);
    }

    /// RC hardware retransmits sent by this NIC so far.
    pub fn retransmits(&self) -> u64 {
        self.inner.retransmits.get()
    }

    /// Recv WQEs this NIC has fetched over PCIe.
    pub fn recv_wqe_fetches(&self) -> u64 {
        self.inner.recv_wqe_fetches.get()
    }

    /// Completion-queue entries this NIC has DMA'd to host memory.
    pub fn cqe_dma_writes(&self) -> u64 {
        self.inner.cqe_dma_writes.get()
    }

    /// Fail with [`RdmaError::Disconnected`] if the node is down.
    pub fn check_up(&self) -> RdmaResult<()> {
        if self.inner.up.get() {
            Ok(())
        } else {
            Err(RdmaError::Disconnected)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prdma_pmem::PmConfig;
    use prdma_simnet::Sim;

    fn rnic_fixture(sim: &Sim) -> Rnic {
        let pm = PmDevice::new(sim.handle(), PmConfig::with_capacity(1 << 20));
        let dram = VolatileMemory::new(1 << 20);
        Rnic::new(sim.handle(), RnicConfig::default(), pm, dram)
    }

    #[test]
    fn dma_write_to_pm_is_durable_without_ddio() {
        let mut sim = Sim::new(1);
        let nic = rnic_fixture(&sim);
        let nic2 = nic.clone();
        let durable = sim.block_on(async move {
            nic2.dma_write(MemTarget::Pm(0), &Payload::from_bytes(vec![7; 128]))
                .await
                .unwrap()
        });
        assert!(durable);
        assert_eq!(nic.pm().read_persistent_view(0, 128), vec![7; 128]);
    }

    #[test]
    fn dma_write_with_ddio_is_volatile() {
        let mut sim = Sim::new(1);
        let pm = PmDevice::new(sim.handle(), PmConfig::with_capacity(1 << 20));
        let dram = VolatileMemory::new(4096);
        let nic = Rnic::new(sim.handle(), RnicConfig::with_ddio(), pm, dram);
        let nic2 = nic.clone();
        let durable = sim.block_on(async move {
            nic2.dma_write(MemTarget::Pm(0), &Payload::from_bytes(vec![9; 64]))
                .await
                .unwrap()
        });
        assert!(!durable);
        // visible to the CPU, not yet persistent
        assert_eq!(nic.pm().read_volatile_view(0, 64), vec![9; 64]);
        assert!(!nic.pm().is_persisted(0, 64));
    }

    #[test]
    fn dma_read_drains_posted_writes() {
        let mut sim = Sim::new(1);
        let nic = rnic_fixture(&sim);
        let h = sim.handle();
        let nic_w = nic.clone();
        let h2 = h.clone();
        // A slow posted write in flight...
        sim.spawn(async move {
            let ticket = nic_w.begin_pending_dma();
            h2.sleep(SimDuration::from_micros(50)).await;
            nic_w.end_pending_dma(ticket);
        });
        let nic_r = nic.clone();
        let t = sim.block_on(async move {
            h.sleep(SimDuration::from_nanos(1)).await;
            nic_r.dma_read(MemTarget::Pm(0), 1, false).await.unwrap();
            h.now()
        });
        // The read could not start before the posted write finished at 50us.
        assert!(t.as_nanos() >= 50_000, "read returned at {t}");
    }

    #[test]
    fn crash_clears_memories_and_bumps_epoch() {
        let mut sim = Sim::new(1);
        let nic = rnic_fixture(&sim);
        let nic2 = nic.clone();
        sim.block_on(async move {
            nic2.dma_write(MemTarget::Pm(0), &Payload::from_bytes(vec![1; 8]))
                .await
                .unwrap();
        });
        nic.dram().write(0, b"xx");
        nic.pm().cache_write(512, b"dirty").unwrap();
        nic.crash();
        assert!(!nic.is_up());
        assert_eq!(nic.epoch(), 1);
        assert_eq!(nic.check_up(), Err(RdmaError::Disconnected));
        // persisted PM survives; DRAM and dirty lines do not
        assert_eq!(nic.pm().read_persistent_view(0, 8), vec![1; 8]);
        assert_eq!(nic.dram().read(0, 2), vec![0, 0]);
        assert!(nic.pm().is_persisted(512, 5)); // dirty line dropped
        assert_eq!(nic.pm().read_volatile_view(512, 5), vec![0; 5]);
        nic.restart();
        assert!(nic.is_up());
    }

    #[test]
    fn sram_loss_aborts_inflight_dma_and_poisons_flush() {
        let mut sim = Sim::new(1);
        let nic = rnic_fixture(&sim);
        let h = sim.handle();
        let nic_w = nic.clone();
        sim.spawn(async move {
            // A PM write in flight when the SRAM is lost: aborted.
            let durable = nic_w
                .dma_write(MemTarget::Pm(0), &Payload::from_bytes(vec![5; 4096]))
                .await
                .unwrap();
            assert!(!durable, "aborted DMA must not report durability");
        });
        let nic_f = nic.clone();
        let flush = sim.block_on(async move {
            h.sleep(SimDuration::from_nanos(200)).await;
            nic_f.lose_sram();
            // The NIC stays up, but no barrier may certify durability:
            // the aborted ticket completed without its data landing.
            h.sleep(SimDuration::from_micros(100)).await;
            nic_f.drain_posted_writes().await
        });
        assert!(nic.is_up(), "SRAM loss must not take the node down");
        assert_eq!(flush, Err(RdmaError::Disconnected));
        assert_eq!(nic.pm().read_persistent_view(0, 8), vec![0; 8]);
        // NIC reset + recovery clears the poison.
        nic.restart();
        let nic_f2 = nic.clone();
        assert!(sim
            .block_on(async move { nic_f2.drain_posted_writes().await })
            .is_ok());
    }

    #[test]
    fn injected_loss_expires_with_virtual_time() {
        let mut sim = Sim::new(1);
        let nic = rnic_fixture(&sim);
        nic.inject_loss(0.5, prdma_simnet::SimTime::from_nanos(1_000));
        assert_eq!(nic.injected_loss(), 0.5);
        let nic2 = nic.clone();
        let h = sim.handle();
        sim.block_on(async move {
            h.sleep(SimDuration::from_micros(2)).await;
        });
        assert_eq!(nic2.injected_loss(), 0.0, "burst must expire");
    }

    #[test]
    fn sram_accounting_tracks_peak() {
        let sim = Sim::new(1);
        let nic = rnic_fixture(&sim);
        nic.sram_admit(1000);
        nic.sram_admit(500);
        nic.sram_release(1000);
        nic.sram_admit(100);
        assert_eq!(nic.sram_peak(), 1500);
    }

    #[test]
    fn synthetic_payload_models_time_without_content() {
        let mut sim = Sim::new(1);
        let nic = rnic_fixture(&sim);
        let h = sim.handle();
        let nic2 = nic.clone();
        let t = sim.block_on(async move {
            nic2.dma_write(MemTarget::Pm(0), &Payload::synthetic(65536, 1))
                .await
                .unwrap();
            h.now()
        });
        // 64 KiB at PCIe 128 Gbps (~4.1us) + PM write (~8.5us) + latencies
        assert!(t.as_nanos() > 10_000, "t = {t}");
        // contents untouched
        assert_eq!(nic.pm().read_persistent_view(0, 8), vec![0; 8]);
    }
}
