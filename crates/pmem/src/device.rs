//! The persistent-memory device model.
//!
//! The model separates **volatile** state (dirty CPU cache lines holding
//! data that DDIO or a CPU store placed in the LLC) from **persistent**
//! state (bytes that have reached the media / persistence domain). A
//! [`PmDevice::crash`] call discards the volatile overlay, exactly like a
//! power failure: only what was flushed (or DMA'd directly, with DDIO off)
//! survives.

use std::cell::{Cell, OnceCell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;

use prdma_simnet::journal::{EventKind, Subsystem, NO_ID};
use prdma_simnet::trace::{Phase, Tracer};
use prdma_simnet::{FifoResource, Obs, SimDuration, SimHandle};

use crate::config::PmConfig;

/// Errors raised by the PM device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PmError {
    /// Access past the end of the device.
    OutOfBounds {
        /// Requested start address.
        addr: u64,
        /// Requested length.
        len: u64,
        /// Device capacity.
        capacity: u64,
    },
}

impl std::fmt::Display for PmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PmError::OutOfBounds {
                addr,
                len,
                capacity,
            } => write!(
                f,
                "PM access out of bounds: [{addr}, {addr}+{len}) beyond capacity {capacity}"
            ),
        }
    }
}

impl std::error::Error for PmError {}

struct PmInner {
    handle: SimHandle,
    cfg: PmConfig,
    /// The persistence domain: survives crashes.
    media: RefCell<Vec<u8>>,
    /// Volatile overlay: dirty cache lines (line-number -> line bytes).
    /// Populated by CPU stores and by DDIO-routed DMA. Lost on crash.
    dirty: RefCell<BTreeMap<u64, Vec<u8>>>,
    /// FIFO media write/read ports (bandwidth contention).
    media_port: FifoResource,
    bytes_persisted: Cell<u64>,
    crashes: Cell<u64>,
    /// The owning node's observability handle (see [`PmDevice::obs`]).
    obs: OnceCell<Obs>,
}

/// A simulated persistent-memory device. Cheap to clone (shared handle).
#[derive(Clone)]
pub struct PmDevice {
    inner: Rc<PmInner>,
}

impl PmDevice {
    /// Create a device on the given simulation with the given config.
    pub fn new(handle: SimHandle, cfg: PmConfig) -> Self {
        let media_port = FifoResource::new(handle.clone(), cfg.media_ports.max(1));
        PmDevice {
            inner: Rc::new(PmInner {
                handle,
                media: RefCell::new(vec![0; cfg.capacity as usize]),
                dirty: RefCell::new(BTreeMap::new()),
                media_port,
                cfg,
                bytes_persisted: Cell::new(0),
                crashes: Cell::new(0),
                obs: OnceCell::new(),
            }),
        }
    }

    /// Attach the owning node's observability handle: media service time
    /// is traced as [`Phase::PmMedia`] and every commit of bytes to the
    /// persistence domain is journaled as a `PmWrite`. Attach once, before
    /// the device is used.
    pub fn attach_obs(&self, obs: &Obs) {
        assert!(
            self.inner.obs.set(obs.clone()).is_ok(),
            "PM device observability attached twice or after use"
        );
    }

    /// The node's observability handle (shared with layers above the
    /// device, e.g. the redo log). A device used before any attach gets a
    /// private tracer and no journal.
    pub fn obs(&self) -> &Obs {
        self.inner
            .obs
            .get_or_init(|| Obs::new(Tracer::new(self.inner.handle.clone()), None, None))
    }

    /// Count a commit of `bytes` into the persistence domain and journal
    /// it as a `PmWrite`, keeping the two in lockstep.
    fn note_persisted(&self, bytes: u64) {
        self.inner
            .bytes_persisted
            .set(self.inner.bytes_persisted.get() + bytes);
        self.obs()
            .event(Subsystem::Pm, EventKind::PmWrite, NO_ID, NO_ID, bytes);
    }

    /// Device capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.inner.cfg.capacity
    }

    /// The device's timing configuration.
    pub fn config(&self) -> &PmConfig {
        &self.inner.cfg
    }

    fn check(&self, addr: u64, len: u64) -> Result<(), PmError> {
        let capacity = self.inner.cfg.capacity;
        if addr.checked_add(len).is_none_or(|end| end > capacity) {
            Err(PmError::OutOfBounds {
                addr,
                len,
                capacity,
            })
        } else {
            Ok(())
        }
    }

    /// Time the media needs to absorb a write of `len` bytes.
    pub fn media_write_time(&self, len: u64) -> SimDuration {
        self.inner.cfg.write_latency + prdma_simnet::transfer_time(len, self.inner.cfg.write_gbps)
    }

    /// Time the media needs to produce a read of `len` bytes.
    pub fn media_read_time(&self, len: u64) -> SimDuration {
        self.inner.cfg.read_latency + prdma_simnet::transfer_time(len, self.inner.cfg.read_gbps)
    }

    /// DMA a buffer straight into the persistence domain (the DDIO-disabled
    /// RNIC path). Resolves once the data is durable.
    pub async fn dma_write_persistent(&self, addr: u64, data: &[u8]) -> Result<(), PmError> {
        self.check(addr, data.len() as u64)?;
        let t = self.media_write_time(data.len() as u64);
        {
            let _span = self.obs().span(Phase::PmMedia);
            self.inner.media_port.process(t).await;
        }
        // DMA snoops the cache: overlapping dirty lines are invalidated
        // (commit_persistent does both the media write and the snoop).
        self.commit_persistent(addr, data)?;
        self.note_persisted(data.len() as u64);
        Ok(())
    }

    /// Model the *time* of a durable write of `len` bytes without touching
    /// contents — used for synthetic benchmark payloads, where only the
    /// schedule matters. Occupies a media port like a real write.
    pub async fn simulate_write_time(&self, len: u64) {
        let t = self.media_write_time(len);
        {
            let _span = self.obs().span(Phase::PmMedia);
            self.inner.media_port.process(t).await;
        }
        self.note_persisted(len);
    }

    /// Place content in the persistence domain with zero simulated time —
    /// for callers that account the media time separately via
    /// [`simulate_write_time`](Self::simulate_write_time) (e.g. a DMA
    /// engine placing the inline parts of a composite payload).
    pub fn commit_persistent(&self, addr: u64, data: &[u8]) -> Result<(), PmError> {
        self.check(addr, data.len() as u64)?;
        let mut media = self.inner.media.borrow_mut();
        media[addr as usize..addr as usize + data.len()].copy_from_slice(data);
        // Drop any dirty cache lines shadowing this range so the volatile
        // view agrees with the media.
        drop(media);
        let line = self.inner.cfg.cacheline;
        if !data.is_empty() {
            let first = addr / line;
            let last = (addr + data.len() as u64 - 1) / line;
            let mut dirty = self.inner.dirty.borrow_mut();
            let stale: Vec<u64> = dirty.range(first..=last).map(|(k, _)| *k).collect();
            for k in stale {
                // Merge: media now holds the latest bytes for this range;
                // re-baseline the line over the updated media.
                dirty.remove(&k);
            }
        }
        Ok(())
    }

    /// Model the time of a media read of `len` bytes without copying.
    pub async fn simulate_read_time(&self, len: u64) {
        let t = self.media_read_time(len);
        let _span = self.obs().span(Phase::PmMedia);
        self.inner.media_port.process(t).await;
    }

    /// Model the time of a `clflush` over `len` dirty bytes without content
    /// bookkeeping (synthetic payload path, DDIO enabled).
    pub async fn simulate_clflush_time(&self, len: u64) {
        if len == 0 {
            return;
        }
        let _span = self.obs().span(Phase::PmMedia);
        let line = self.inner.cfg.cacheline;
        let lines = len.div_ceil(line);
        self.inner
            .handle
            .sleep(self.inner.cfg.clflush_issue * lines)
            .await;
        let t = self.media_write_time(lines * line);
        self.inner.media_port.process(t).await;
        self.note_persisted(lines * line);
    }

    /// An 8-byte atomic durable write (PM hardware guarantees 8-byte
    /// failure atomicity) — used for log commit records.
    pub async fn dma_write_atomic_u64(&self, addr: u64, value: u64) -> Result<(), PmError> {
        self.dma_write_persistent(addr, &value.to_le_bytes()).await
    }

    /// A CPU store (or DDIO-routed DMA): lands in the volatile cache
    /// overlay instantly. The *caller* accounts for CPU/DMA time; durability
    /// requires a subsequent [`clflush`](Self::clflush).
    pub fn cache_write(&self, addr: u64, data: &[u8]) -> Result<(), PmError> {
        self.check(addr, data.len() as u64)?;
        let line = self.inner.cfg.cacheline;
        let mut dirty = self.inner.dirty.borrow_mut();
        let media = self.inner.media.borrow();
        let mut off = 0usize;
        while off < data.len() {
            let a = addr + off as u64;
            let lineno = a / line;
            let line_base = (lineno * line) as usize;
            let in_line = (a - lineno * line) as usize;
            let n = ((line as usize - in_line).min(data.len() - off)).max(1);
            let entry = dirty
                .entry(lineno)
                .or_insert_with(|| media[line_base..line_base + line as usize].to_vec());
            entry[in_line..in_line + n].copy_from_slice(&data[off..off + n]);
            off += n;
        }
        Ok(())
    }

    /// Flush every cache line overlapping `[addr, addr+len)` to the media
    /// (`clflush`/`clwb` + the media write). Resolves when durable.
    pub async fn clflush(&self, addr: u64, len: u64) -> Result<(), PmError> {
        if len == 0 {
            return Ok(());
        }
        self.check(addr, len)?;
        let line = self.inner.cfg.cacheline;
        let first = addr / line;
        let last = (addr + len - 1) / line;
        // Collect the dirty lines in range first (they may be sparse).
        let lines: Vec<(u64, Vec<u8>)> = {
            let mut dirty = self.inner.dirty.borrow_mut();
            let keys: Vec<u64> = dirty.range(first..=last).map(|(k, _)| *k).collect();
            keys.into_iter()
                .map(|k| (k, dirty.remove(&k).expect("line vanished")))
                .collect()
        };
        if lines.is_empty() {
            return Ok(());
        }
        let _span = self.obs().span(Phase::PmMedia);
        // Issue cost per line on the CPU, then one media transfer.
        let issue = self.inner.cfg.clflush_issue * lines.len() as u64;
        self.inner.handle.sleep(issue).await;
        let bytes = lines.len() as u64 * line;
        let t = self.media_write_time(bytes);
        self.inner.media_port.process(t).await;
        for (lineno, data) in lines {
            self.commit_to_media(lineno * line, &data);
        }
        Ok(())
    }

    /// Timed read: cached lines are free, uncached bytes pay media latency.
    pub async fn read(&self, addr: u64, len: u64) -> Result<Vec<u8>, PmError> {
        self.check(addr, len)?;
        let cached = self.covered_by_cache(addr, len);
        if !cached {
            let t = self.media_read_time(len);
            let _span = self.obs().span(Phase::PmMedia);
            self.inner.media_port.process(t).await;
        }
        Ok(self.read_volatile_view(addr, len))
    }

    /// What the CPU would see right now (cache overlay over media);
    /// zero-time, for protocol logic and assertions.
    pub fn read_volatile_view(&self, addr: u64, len: u64) -> Vec<u8> {
        let media = self.inner.media.borrow();
        let mut out = media[addr as usize..(addr + len) as usize].to_vec();
        let line = self.inner.cfg.cacheline;
        let dirty = self.inner.dirty.borrow();
        if len == 0 {
            return out;
        }
        let first = addr / line;
        let last = (addr + len - 1) / line;
        for (&lineno, bytes) in dirty.range(first..=last) {
            let line_base = lineno * line;
            // overlap of [line_base, line_base+line) with [addr, addr+len)
            let lo = line_base.max(addr);
            let hi = (line_base + line).min(addr + len);
            if lo < hi {
                let src = (lo - line_base) as usize..(hi - line_base) as usize;
                let dst = (lo - addr) as usize..(hi - addr) as usize;
                out[dst].copy_from_slice(&bytes[src]);
            }
        }
        out
    }

    /// What would survive a crash right now (media only); zero-time.
    pub fn read_persistent_view(&self, addr: u64, len: u64) -> Vec<u8> {
        let media = self.inner.media.borrow();
        media[addr as usize..(addr + len) as usize].to_vec()
    }

    /// True iff no dirty (unflushed) cache line overlaps `[addr, addr+len)`.
    pub fn is_persisted(&self, addr: u64, len: u64) -> bool {
        if len == 0 {
            return true;
        }
        let line = self.inner.cfg.cacheline;
        let first = addr / line;
        let last = (addr + len - 1) / line;
        self.inner
            .dirty
            .borrow()
            .range(first..=last)
            .next()
            .is_none()
    }

    /// Power failure: every dirty cache line is lost; media is retained.
    pub fn crash(&self) {
        self.inner.dirty.borrow_mut().clear();
        self.inner.crashes.set(self.inner.crashes.get() + 1);
    }

    /// Total bytes committed to the persistence domain.
    pub fn bytes_persisted(&self) -> u64 {
        self.inner.bytes_persisted.get()
    }

    /// Accumulated media-port busy time (write/flush/read service time) —
    /// used by latency-breakdown accounting.
    pub fn media_busy_time(&self) -> SimDuration {
        self.inner.media_port.busy_time()
    }

    /// Number of crashes injected so far.
    pub fn crashes(&self) -> u64 {
        self.inner.crashes.get()
    }

    fn commit_to_media(&self, addr: u64, data: &[u8]) {
        let mut media = self.inner.media.borrow_mut();
        media[addr as usize..addr as usize + data.len()].copy_from_slice(data);
        self.note_persisted(data.len() as u64);
    }

    fn covered_by_cache(&self, addr: u64, len: u64) -> bool {
        if len == 0 {
            return true;
        }
        let line = self.inner.cfg.cacheline;
        let first = addr / line;
        let last = (addr + len - 1) / line;
        let dirty = self.inner.dirty.borrow();
        (first..=last).all(|l| dirty.contains_key(&l))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prdma_simnet::Sim;

    fn small_device(sim: &Sim) -> PmDevice {
        PmDevice::new(sim.handle(), PmConfig::with_capacity(1 << 20))
    }

    #[test]
    fn dma_write_is_immediately_persistent() {
        let mut sim = Sim::new(1);
        let pm = small_device(&sim);
        let pm2 = pm.clone();
        sim.block_on(async move {
            pm2.dma_write_persistent(100, b"hello").await.unwrap();
        });
        assert_eq!(pm.read_persistent_view(100, 5), b"hello");
        pm.crash();
        assert_eq!(pm.read_persistent_view(100, 5), b"hello");
    }

    #[test]
    fn dma_write_takes_media_time() {
        let mut sim = Sim::new(1);
        let pm = small_device(&sim);
        let h = sim.handle();
        let t = sim.block_on(async move {
            pm.dma_write_persistent(0, &[0u8; 8192]).await.unwrap();
            h.now()
        });
        // 300ns latency + 8192B at 12 GB/s (~683ns transfer)
        assert!(t.as_nanos() > 900, "t = {t:?}");
    }

    #[test]
    fn cache_write_is_volatile_until_flushed() {
        let mut sim = Sim::new(1);
        let pm = small_device(&sim);
        pm.cache_write(4096, b"dirty").unwrap();
        assert_eq!(pm.read_volatile_view(4096, 5), b"dirty");
        assert_ne!(pm.read_persistent_view(4096, 5), b"dirty");
        assert!(!pm.is_persisted(4096, 5));

        let pm2 = pm.clone();
        sim.block_on(async move {
            pm2.clflush(4096, 5).await.unwrap();
        });
        assert!(pm.is_persisted(4096, 5));
        assert_eq!(pm.read_persistent_view(4096, 5), b"dirty");
    }

    #[test]
    fn crash_drops_dirty_lines() {
        let sim = Sim::new(1);
        let pm = small_device(&sim);
        pm.cache_write(0, b"will-be-lost").unwrap();
        pm.crash();
        assert_eq!(pm.read_volatile_view(0, 12), vec![0u8; 12]);
        assert_eq!(pm.crashes(), 1);
    }

    #[test]
    fn cache_write_spanning_lines_preserves_neighbors() {
        let mut sim = Sim::new(1);
        let pm = small_device(&sim);
        let pm2 = pm.clone();
        sim.block_on(async move {
            // Persist a baseline, then dirty a range crossing a 64B boundary.
            pm2.dma_write_persistent(0, &[0xAA; 192]).await.unwrap();
            pm2.cache_write(60, &[0xBB; 8]).unwrap();
            pm2.clflush(60, 8).await.unwrap();
        });
        let got = pm.read_persistent_view(56, 16);
        assert_eq!(&got[..4], &[0xAA; 4]);
        assert_eq!(&got[4..12], &[0xBB; 8]);
        assert_eq!(&got[12..], &[0xAA; 4]);
    }

    #[test]
    fn clflush_of_clean_range_is_noop() {
        let mut sim = Sim::new(1);
        let pm = small_device(&sim);
        let h = sim.handle();
        let pm2 = pm.clone();
        let t = sim.block_on(async move {
            pm2.clflush(0, 4096).await.unwrap();
            h.now()
        });
        assert_eq!(t.as_nanos(), 0);
    }

    #[test]
    fn out_of_bounds_rejected() {
        let sim = Sim::new(1);
        let pm = small_device(&sim);
        let cap = pm.capacity();
        assert!(matches!(
            pm.cache_write(cap - 2, b"xyz"),
            Err(PmError::OutOfBounds { .. })
        ));
        // overflow-safe
        assert!(pm.check(u64::MAX, 2).is_err());
    }

    #[test]
    fn timed_read_pays_media_latency_when_uncached() {
        let mut sim = Sim::new(1);
        let pm = small_device(&sim);
        let h = sim.handle();
        let pm2 = pm.clone();
        let (t_uncached, t_cached) = sim.block_on(async move {
            let t0 = h.now();
            pm2.read(0, 64).await.unwrap();
            let t1 = h.now();
            pm2.cache_write(128, &[1; 64]).unwrap();
            let t2 = h.now();
            pm2.read(128, 64).await.unwrap();
            let t3 = h.now();
            (t1 - t0, t3 - t2)
        });
        assert!(t_uncached.as_nanos() >= 170);
        assert_eq!(t_cached.as_nanos(), 0);
    }

    #[test]
    fn atomic_u64_commit() {
        let mut sim = Sim::new(1);
        let pm = small_device(&sim);
        let pm2 = pm.clone();
        sim.block_on(async move {
            pm2.dma_write_atomic_u64(8, 0xDEAD_BEEF_CAFE_F00D)
                .await
                .unwrap();
        });
        let b = pm.read_persistent_view(8, 8);
        assert_eq!(
            u64::from_le_bytes(b.try_into().unwrap()),
            0xDEAD_BEEF_CAFE_F00D
        );
    }

    #[test]
    fn bytes_persisted_accounting() {
        let mut sim = Sim::new(1);
        let pm = small_device(&sim);
        let pm2 = pm.clone();
        sim.block_on(async move {
            pm2.dma_write_persistent(0, &[1; 100]).await.unwrap();
            pm2.cache_write(200, &[2; 10]).unwrap();
            pm2.clflush(200, 10).await.unwrap();
        });
        // 100 direct + one 64B flushed line
        assert_eq!(pm.bytes_persisted(), 164);
    }
}
