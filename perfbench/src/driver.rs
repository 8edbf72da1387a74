//! The open-loop load driver: a staircase of constant-rate steps built
//! from `openloop::gen_schedule`, released on schedule into one
//! admission queue per simulated endpoint, with every request timed
//! from its *scheduled* arrival (so admission waits count) and every
//! put stamped with `(key, seq)` for the read-back check.
//!
//! The workloads crate's `run_openloop` pools latency into one
//! histogram and sends synthetic values; the benchmark needs per-class,
//! per-step samples, dispatch times, and checkable values, so it drives
//! the same schedule through its own endpoint workers.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;

use prdma::{Request, RpcClient, ShardMap};
use prdma_rnic::Payload;
use prdma_simnet::{channel, SimDuration, SimHandle, SimTime};
use prdma_workloads::openloop::{gen_schedule, OpenLoopConfig, RateShape};

use crate::host::PollClock;

/// Bytes of a value that carry its `(key, seq)` stamp; the rest of the
/// value is timing-only.
pub const STAMP_BYTES: u64 = 16;

/// One constant-rate step of the offered-load staircase.
#[derive(Debug, Clone, Copy)]
pub struct Step {
    /// Offered aggregate load, thousands of requests per simulated second.
    pub rate_kops: f64,
    /// Step length in simulated milliseconds.
    pub sim_ms: f64,
    /// False for a warm-up step, which every metric excludes.
    pub measured: bool,
}

/// The open-loop load: a staircase over a logical-client pool.
#[derive(Debug, Clone)]
pub struct Load {
    /// Steps in order; the first measured step is the nominal one.
    pub steps: Vec<Step>,
    /// Logical clients in the pool, multiplexed over the endpoints.
    pub clients: u64,
    /// Keyspace size.
    pub objects: u64,
    /// Value size in bytes.
    pub value_bytes: u64,
    /// Fraction of GETs.
    pub read_ratio: f64,
    /// Zipfian skew of the key choice.
    pub theta: f64,
}

/// One scheduled request of the staircase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// Offset from the start of the run, nanoseconds.
    pub at_ns: u64,
    /// Logical client issuing it.
    pub client: u64,
    /// Target key.
    pub key: u64,
    /// GET (true) or put.
    pub is_read: bool,
    /// Index of its staircase step.
    pub step: u32,
}

impl Load {
    /// Start offset of each step and the end of the last, nanoseconds.
    pub fn step_bounds_ns(&self) -> Vec<u64> {
        let mut out = vec![0];
        let mut t = 0;
        for s in &self.steps {
            t += (s.sim_ms * 1e6) as u64;
            out.push(t);
        }
        out
    }

    /// The whole arrival schedule: one seeded Poisson stream per step,
    /// each a pure function of `(seed, step)`.
    pub fn schedule(&self, seed: u64) -> Vec<Arrival> {
        let bounds = self.step_bounds_ns();
        let mut out = Vec::new();
        for (i, s) in self.steps.iter().enumerate() {
            let cfg = OpenLoopConfig {
                clients: self.clients,
                rate_ops_per_sec: s.rate_kops * 1e3,
                duration: SimDuration::from_nanos(bounds[i + 1] - bounds[i]),
                shape: RateShape::Constant,
                objects: self.objects,
                object_size: self.value_bytes,
                read_ratio: self.read_ratio,
                theta: self.theta,
                skew_shift: None,
                seed: seed
                    .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                    .wrapping_add(i as u64 + 1),
            };
            out.extend(gen_schedule(&cfg).into_iter().map(|a| Arrival {
                at_ns: bounds[i] + a.at_ns,
                client: a.client,
                key: a.obj,
                is_read: a.is_read,
                step: i as u32,
            }));
        }
        out
    }
}

/// What happened to one request.
#[derive(Debug, Clone, Copy)]
pub struct OpRecord {
    /// Scheduled arrival (absolute simulated time, ns).
    pub sched_ns: u64,
    /// When its endpoint dispatched it.
    pub start_ns: u64,
    /// When it completed or failed.
    pub done_ns: u64,
    /// Staircase step.
    pub step: u32,
    /// GET (true) or put.
    pub is_read: bool,
    /// Completed without error.
    pub ok: bool,
    /// Shard that owns the key.
    pub shard: u32,
}

impl OpRecord {
    /// Latency from scheduled arrival to completion, ns.
    pub fn latency_ns(&self) -> u64 {
        self.done_ns - self.sched_ns
    }
}

/// One issued put, for the read-back check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PutRecord {
    /// Key written.
    pub key: u64,
    /// Global issue sequence number stamped into the value.
    pub seq: u64,
    /// Issue time, ns.
    pub issued_ns: u64,
    /// Acknowledgement time, ns (`None` if the put failed).
    pub acked_ns: Option<u64>,
}

/// Stamps values and records every put issued through it.
#[derive(Default)]
pub struct PutLog {
    next_seq: Cell<u64>,
    puts: RefCell<Vec<PutRecord>>,
}

impl PutLog {
    /// A `(key, seq)`-stamped value of `value_bytes` and its index in
    /// the log; call [`PutLog::ack`] with the index on completion.
    pub fn issue(&self, key: u64, value_bytes: u64, now_ns: u64) -> (Payload, usize) {
        let seq = self.next_seq.get() + 1;
        self.next_seq.set(seq);
        let mut stamp = Vec::with_capacity(STAMP_BYTES as usize);
        stamp.extend_from_slice(&key.to_le_bytes());
        stamp.extend_from_slice(&seq.to_le_bytes());
        let value = Payload::composite(vec![
            Payload::from_bytes(stamp),
            Payload::synthetic(value_bytes - STAMP_BYTES, key),
        ]);
        let mut puts = self.puts.borrow_mut();
        puts.push(PutRecord {
            key,
            seq,
            issued_ns: now_ns,
            acked_ns: None,
        });
        (value, puts.len() - 1)
    }

    /// Mark put `idx` acknowledged at `now_ns`.
    pub fn ack(&self, idx: usize, now_ns: u64) {
        self.puts.borrow_mut()[idx].acked_ns = Some(now_ns);
    }

    /// Every put issued so far, in issue order.
    pub fn into_records(self) -> Vec<PutRecord> {
        self.puts.into_inner()
    }
}

/// Decode a `(key, seq)` stamp read back from the store.
pub fn decode_stamp(bytes: &[u8]) -> Option<(u64, u64)> {
    let key = u64::from_le_bytes(bytes.get(..8)?.try_into().ok()?);
    let seq = u64::from_le_bytes(bytes.get(8..16)?.try_into().ok()?);
    Some((key, seq))
}

/// Called at every completion with the simulated time (ns); the failover
/// workload uses it to see when the crashed replica rejoins.
pub type Probe = Rc<dyn Fn(u64)>;

/// Put every key `0..objects` once, spread over the endpoints, and wait
/// for the acknowledgements. Panics on a failed put: a preload runs on a
/// healthy fleet.
pub async fn preload(
    endpoints: Vec<Rc<dyn RpcClient>>,
    h: SimHandle,
    objects: u64,
    value_bytes: u64,
    log: Rc<PutLog>,
) {
    let k = endpoints.len() as u64;
    let mut joins = Vec::new();
    for (e, endpoint) in endpoints.iter().enumerate() {
        let endpoint = Rc::clone(endpoint);
        let log = Rc::clone(&log);
        let h2 = h.clone();
        joins.push(h.spawn(async move {
            let mut key = e as u64;
            while key < objects {
                let (data, idx) = log.issue(key, value_bytes, h2.now().as_nanos());
                endpoint
                    .call(Request::Put { obj: key, data })
                    .await
                    .unwrap_or_else(|err| panic!("preload put of key {key} failed: {err}"));
                log.ack(idx, h2.now().as_nanos());
                key += k;
            }
        }));
    }
    for j in joins {
        j.await;
    }
}

/// Drive `schedule` against `endpoints` (logical client `c` on endpoint
/// `c % K`, one request in flight per endpoint, FIFO admission). Returns
/// one record per arrival in schedule order.
#[allow(clippy::too_many_arguments)]
pub async fn run(
    endpoints: Vec<Rc<dyn RpcClient>>,
    h: SimHandle,
    schedule: Rc<[Arrival]>,
    value_bytes: u64,
    map: ShardMap,
    log: Rc<PutLog>,
    clock: Rc<PollClock>,
    probe: Option<Probe>,
) -> Vec<OpRecord> {
    let k = endpoints.len();
    let t0 = h.now();
    let mut txs = Vec::with_capacity(k);
    let mut joins = Vec::with_capacity(k);
    for endpoint in endpoints {
        let (tx, mut rx) = channel::<(usize, SimTime)>();
        txs.push(tx);
        let log = Rc::clone(&log);
        let clock = Rc::clone(&clock);
        let probe = probe.clone();
        let schedule = Rc::clone(&schedule);
        let h2 = h.clone();
        joins.push(h.spawn(async move {
            let mut done: Vec<(usize, OpRecord)> = Vec::new();
            let mut q = VecDeque::new();
            loop {
                if q.is_empty() && rx.recv_all(&mut q).await == 0 {
                    break;
                }
                let (i, sched) = q.pop_front().expect("non-empty after recv_all");
                let arr = schedule[i];
                let start = h2.now().as_nanos();
                let (req, put) = if arr.is_read {
                    (
                        Request::Get {
                            obj: arr.key,
                            len: value_bytes,
                        },
                        None,
                    )
                } else {
                    let (data, idx) = log.issue(arr.key, value_bytes, start);
                    (Request::Put { obj: arr.key, data }, Some(idx))
                };
                let ok = clock.time(endpoint.call(req)).await.is_ok();
                let now = h2.now().as_nanos();
                if let (true, Some(idx)) = (ok, put) {
                    log.ack(idx, now);
                }
                if let Some(p) = &probe {
                    p(now);
                }
                done.push((
                    i,
                    OpRecord {
                        sched_ns: sched.as_nanos(),
                        start_ns: start,
                        done_ns: now,
                        step: arr.step,
                        is_read: arr.is_read,
                        ok,
                        shard: map.shard_of(arr.key) as u32,
                    },
                ));
            }
            done
        }));
    }

    // Release each arrival at its scheduled instant; same-instant
    // arrivals go out as one batch per endpoint.
    let mut i = 0;
    let mut batch: Vec<Vec<(usize, SimTime)>> = (0..k).map(|_| Vec::new()).collect();
    while i < schedule.len() {
        let due = t0 + SimDuration::from_nanos(schedule[i].at_ns);
        if h.now() < due {
            h.sleep_until(due).await;
        }
        let mut j = i;
        while j < schedule.len() && schedule[j].at_ns == schedule[i].at_ns {
            batch[(schedule[j].client % k as u64) as usize].push((j, due));
            j += 1;
        }
        for (tx, b) in txs.iter().zip(batch.iter_mut()) {
            if !b.is_empty() {
                tx.send_batch(b.drain(..))
                    .expect("endpoint worker outlives the generator");
            }
        }
        i = j;
    }
    drop(txs);

    let mut slots: Vec<Option<OpRecord>> = vec![None; schedule.len()];
    for j in joins {
        for (i, rec) in j.await {
            slots[i] = Some(rec);
        }
    }
    slots
        .into_iter()
        .map(|r| r.expect("every arrival is dispatched"))
        .collect()
}
