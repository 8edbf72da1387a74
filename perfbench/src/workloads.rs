//! The four fleet workloads, one per corner of the paper's 2×2 (one-sided
//! write vs two-sided send, crossed with sender- vs receiver-initiated
//! flush), each run once on one OS thread from a seed.
//!
//! Every run returns its simulated end-to-end metrics, per-layer metrics
//! and output-check violations; the host cost of its set-up and timed
//! section is measured around the calls into the fleet's public API.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

use prdma::span::PHASES;
use prdma::txn::build_sharded_txn;
use prdma::{
    build_replicated_sharded, build_sharded_durable_cached, build_span_trees, tail_report,
    CacheConfig, DurableConfig, DurableKind, RpcClient, ServerProfile, ShardMap, TxnClient,
    TxnOutcome, TxnPhase,
};
use prdma_node::{Cluster, ClusterConfig};
use prdma_rnic::Payload;
use prdma_simnet::fault::{FaultKind, FaultPlan};
use prdma_simnet::metrics::Snapshot;
use prdma_simnet::{Phase, Sim, SimDuration, SimTime, TraceReport};
use prdma_workloads::dist::{workload_rng, Zipfian};
use prdma_workloads::txn_mix::TxnMixConfig;

use crate::check;
use crate::driver::{self, Load, OpRecord, PutLog, Step, STAMP_BYTES};
use crate::host::{peak_rss_mb, thread_cpu_ns, PollClock};
use crate::report::{median, pct, ratio, sorted, Metrics};

/// The latency limit on p99 behind `max_kops_at_slo` and `slo_miss_frac`
/// (about five times the unloaded put p50).
pub const SLO_P99_US: f64 = 25.0;
/// Shards in every fleet (server nodes `0..SHARDS`).
pub const SHARDS: usize = 4;
/// Simulated client endpoints of the open-loop workloads.
pub const ENDPOINTS: usize = 8;
/// Logical clients multiplexed over the endpoints.
pub const LOGICAL_CLIENTS: u64 = 10_000;
/// Closed-loop transaction clients.
pub const TXN_CLIENTS: usize = 4;
/// Value size of the key-value workloads.
pub const KV_VALUE_BYTES: u64 = 1024;
/// Value size of the transactional workload.
pub const TXN_VALUE_BYTES: u64 = 128;
/// How long the failover workload's crashed primary stays down.
pub const CRASH_DOWN_MS: u64 = 3;
/// How far into its flight the failover crash catches a put. A request
/// caught by the crash takes one of three paths depending on how far it
/// got (fail over at once, wait for the restart, or wait out the request
/// timeout), and at a random instant which one any request takes is a
/// coin toss that swings the run's tail by an order of magnitude. Two
/// microseconds in, the put has left the client and waits out the
/// timeout: the slowest path, so no other request can set the tail.
pub const CRASH_PHASE_NS: u64 = 2_000;
/// The failover workload's latencies are taken over requests scheduled
/// from this long before the crash to this long after the restart.
pub const FAULT_WINDOW_MARGIN_NS: u64 = 10_000_000;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// WFlush-RPC, 4 shards × 2 replicas, open-loop 50 % puts.
    KvWrite,
    /// W-RFlush-RPC, 4 shards, lease cache + mirror tier, 95 % GETs.
    KvReadCached,
    /// SFlush-RPC, 4 shards, closed-loop 2R+2W transactions.
    Txn,
    /// S-RFlush-RPC, 4 shards × 2 replicas, one primary crash mid-run.
    Failover,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::KvWrite,
        Workload::KvReadCached,
        Workload::Txn,
        Workload::Failover,
    ];

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::KvWrite => "kv_write",
            Workload::KvReadCached => "kv_read_cached",
            Workload::Txn => "txn",
            Workload::Failover => "failover",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Length of the traced run relative to the measured one. The I1–I6
    /// auditor's cost grows faster than linearly with the journal's flush
    /// barriers (about a minute for 25 k of them), so the staircases and
    /// the transaction mix are traced over a tenth of their length; the
    /// failover workload's fleets are short already.
    pub fn trace_scale(self) -> f64 {
        match self {
            Workload::Failover => 1.0,
            _ => 0.1,
        }
    }
}

/// How to run one workload.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Workload seed: schedules, keys and the simulator stream.
    pub seed: u64,
    /// Journal on, plus span trees, the I1–I6 audit and the txn hook.
    pub traced: bool,
    /// Fraction of the benchmark's simulated run length (1.0 for the
    /// benchmark; the tests use less).
    pub scale: f64,
}

/// The result of one run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// End-to-end metrics in simulated time.
    pub e2e: Metrics,
    /// Per-layer metrics (simulated counts, and host time where a layer
    /// call was timed).
    pub layer: Metrics,
    /// Host CPU of set-up: fleet build, schedule, keyspace preload.
    pub setup_ns: u64,
    /// Host CPU of the timed section.
    pub timed_ns: u64,
    /// Requests (or transactions) attempted.
    pub attempted: u64,
    /// Requests (or transactions) that failed.
    pub failed: u64,
    /// Peak resident set of the process that ran it, MiB.
    pub peak_rss_mb: f64,
    /// Output-check violations (empty when the run is correct).
    pub violations: Vec<String>,
    /// The staircase, step by step (open-loop staircases only).
    pub steps: Vec<StepResult>,
}

/// Whether one staircase step met the latency limit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepResult {
    /// Offered load, thousands of requests per simulated second.
    pub rate_kops: f64,
    /// Put and GET p99 within [`SLO_P99_US`], no failures, and no
    /// admission backlog growth across the step.
    pub pass: bool,
}

impl Outcome {
    /// Host CPU nanoseconds of the timed section per attempted request.
    pub fn host_ns_per_op(&self) -> f64 {
        ratio(self.timed_ns as f64, self.attempted as f64)
    }

    /// Line-based encoding, for handing a run from a child process to
    /// its parent.
    pub fn encode(&self) -> String {
        let mut out = format!(
            "run\t{}\t{}\t{}\t{}\t{:016x}\n",
            self.setup_ns,
            self.timed_ns,
            self.attempted,
            self.failed,
            self.peak_rss_mb.to_bits()
        );
        out.push_str(&self.e2e.encode("e2e"));
        out.push_str(&self.layer.encode("layer"));
        for st in &self.steps {
            out.push_str(&format!(
                "step\t{:016x}\t{}\n",
                st.rate_kops.to_bits(),
                u8::from(st.pass)
            ));
        }
        for v in &self.violations {
            out.push_str(&format!("violation\t{}\n", v.replace(['\t', '\n'], " ")));
        }
        out
    }

    /// Inverse of [`Outcome::encode`].
    pub fn decode(text: &str) -> Result<Outcome, String> {
        let mut o = Outcome {
            e2e: Metrics::default(),
            layer: Metrics::default(),
            setup_ns: 0,
            timed_ns: 0,
            attempted: 0,
            failed: 0,
            peak_rss_mb: 0.0,
            violations: Vec::new(),
            steps: Vec::new(),
        };
        let mut saw_run = false;
        for line in text.lines() {
            let fields: Vec<&str> = line.split('\t').collect();
            let num = |i: usize| field_u64(&fields, i, line);
            match fields[0] {
                "run" => {
                    (o.setup_ns, o.timed_ns) = (num(1)?, num(2)?);
                    (o.attempted, o.failed) = (num(3)?, num(4)?);
                    o.peak_rss_mb = f64::from_bits(field_hex(&fields, 5, line)?);
                    saw_run = true;
                }
                "e2e" => o.e2e.decode_into(&fields[1..])?,
                "layer" => o.layer.decode_into(&fields[1..])?,
                "violation" => o.violations.push(fields[1..].join(" ")),
                "step" => o.steps.push(StepResult {
                    rate_kops: f64::from_bits(field_hex(&fields, 1, line)?),
                    pass: num(2)? == 1,
                }),
                _ => {}
            }
        }
        if saw_run {
            Ok(o)
        } else {
            Err("no run record".into())
        }
    }
}

/// Run `w` once, every fleet in this process.
pub fn run(w: Workload, cfg: &RunConfig) -> Outcome {
    run_with(w, cfg, &|t| run_fleet(w, cfg, t))
}

/// Run `w` once, getting fleet `t` of a key-value workload from
/// `fleet(t)` (in this process via [`run_fleet`], or from a child
/// process that ran it).
pub fn run_with(w: Workload, cfg: &RunConfig, fleet: &dyn Fn(usize) -> Fleet) -> Outcome {
    match w {
        Workload::Txn => run_txn(cfg),
        _ => run_kv(&KvSpec::of(w, cfg.scale), fleet),
    }
}

/// Independent fleets one run of `w` pools (1 for all but `failover`).
pub fn fleets(w: Workload) -> usize {
    match w {
        Workload::Txn => 1,
        _ => KvSpec::of(w, 1.0).trials,
    }
}

/// Run fleet `t` of key-value workload `w`, with its own seed.
pub fn run_fleet(w: Workload, cfg: &RunConfig, t: usize) -> Fleet {
    kv_trial(
        &KvSpec::of(w, cfg.scale),
        trial_seed(cfg.seed, t),
        cfg.traced,
    )
}

/// The open-loop key-value workloads' set-up.
struct KvSpec {
    kind: DurableKind,
    replicas: usize,
    cache: bool,
    crash: bool,
    preload: bool,
    log_slots: u64,
    /// Independent fleets per run, pooled (each with its own seed).
    trials: usize,
    load: Load,
}

impl KvSpec {
    fn of(w: Workload, scale: f64) -> KvSpec {
        let step = |rate_kops: f64, sim_ms: f64, measured: bool| Step {
            rate_kops,
            sim_ms: sim_ms * scale,
            measured,
        };
        let open_loop = |steps: Vec<Step>, objects: u64, read_ratio: f64| Load {
            steps,
            clients: LOGICAL_CLIENTS,
            objects,
            value_bytes: KV_VALUE_BYTES,
            read_ratio,
            theta: 0.99,
        };
        match w {
            // Nominal step at about half the knee, long enough for 10+
            // samples beyond p99.9 of each class; short steps past it.
            Workload::KvWrite => KvSpec {
                kind: DurableKind::WFlush,
                replicas: 2,
                cache: false,
                crash: false,
                preload: true,
                log_slots: 512,
                trials: 1,
                load: open_loop(
                    [(500.0, 100.0), (700.0, 20.0), (900.0, 20.0), (1500.0, 10.0)]
                        .map(|(r, ms)| step(r, ms, true))
                        .to_vec(),
                    2_000,
                    0.5,
                ),
            },
            // A warm-up step fills the caches; the nominal step is long
            // enough for 10+ puts beyond p99.9 at a 5 % put share.
            Workload::KvReadCached => KvSpec {
                kind: DurableKind::WRFlush,
                replicas: 1,
                cache: true,
                crash: false,
                preload: false,
                log_slots: 512,
                trials: 1,
                load: open_loop(
                    std::iter::once(step(400.0, 100.0, false))
                        .chain(
                            [(2000.0, 200.0), (3200.0, 10.0), (4800.0, 10.0)]
                                .map(|(r, ms)| step(r, ms, true)),
                        )
                        .collect(),
                    2_000,
                    0.95,
                ),
            },
            // One crash per fleet lands in a handful of requests, so a
            // run pools several fleets (trials) for a steady p99.9.
            Workload::Failover => KvSpec {
                kind: DurableKind::SRFlush,
                replicas: 2,
                cache: false,
                crash: true,
                preload: false,
                log_slots: 32,
                trials: 16,
                load: open_loop(vec![step(150.0, 30.0, true)], 10_000, 0.5),
            },
            Workload::Txn => unreachable!("txn is closed-loop"),
        }
    }
}

/// Simulated-cost counters read around the timed section.
#[derive(Default, Clone, Copy)]
struct Hw {
    events: u64,
    media_busy_ns: u64,
    bytes_persisted: u64,
    nic_msgs: u64,
    nic_retransmits: u64,
}

fn hw(sim: &Sim, cluster: &Cluster) -> Hw {
    let mut out = Hw {
        events: sim.events_processed(),
        ..Hw::default()
    };
    for i in 0..cluster.len() {
        let node = cluster.node(i);
        if i < cluster.servers() {
            out.media_busy_ns += node.pm.media_busy_time().as_nanos();
            out.bytes_persisted += node.pm.bytes_persisted();
        }
        out.nic_msgs += node.rnic().msgs_processed();
        out.nic_retransmits += node.rnic().retransmits();
    }
    out
}

/// Readings at the start of a timed section.
struct Section {
    t0_ns: u64,
    cpu0_ns: u64,
    hw: Hw,
    trace: TraceReport,
    clock: Rc<PollClock>,
}

/// What a timed section cost, in simulated and host terms.
struct Cost {
    elapsed_ns: u64,
    timed_ns: u64,
    before: Hw,
    after: Hw,
    trace0: TraceReport,
    trace1: TraceReport,
    clock: Rc<PollClock>,
}

impl Section {
    fn start(sim: &Sim, cluster: &Cluster) -> Section {
        Section {
            trace: cluster.trace_report(),
            hw: hw(sim, cluster),
            clock: Rc::new(PollClock::default()),
            t0_ns: sim.now().as_nanos(),
            cpu0_ns: thread_cpu_ns(),
        }
    }

    fn end(self, sim: &Sim, cluster: &Cluster) -> Cost {
        let timed_ns = thread_cpu_ns() - self.cpu0_ns;
        Cost {
            elapsed_ns: sim.now().as_nanos() - self.t0_ns,
            timed_ns,
            before: self.hw,
            after: hw(sim, cluster),
            trace0: self.trace,
            trace1: cluster.trace_report(),
            clock: self.clock,
        }
    }
}

fn sram_peak(cluster: &Cluster) -> u64 {
    (0..cluster.len())
        .map(|i| cluster.node(i).rnic().sram_peak())
        .max()
        .unwrap_or(0)
}

/// Fleet metrics registry values, summed over nodes, from each node's
/// latest snapshot at or before `t_ns`.
fn fleet_at(snaps: &[Snapshot], t_ns: u64) -> BTreeMap<&'static str, i64> {
    let mut latest: BTreeMap<u32, &Snapshot> = BTreeMap::new();
    for s in snaps.iter().filter(|s| s.ts_ns <= t_ns) {
        latest.insert(s.node, s);
    }
    let mut out = BTreeMap::new();
    for s in latest.values() {
        for (k, v) in &s.counters {
            *out.entry(k.name).or_insert(0) += *v as i64;
        }
        for (k, v) in &s.gauges {
            *out.entry(k.name).or_insert(0) += *v;
        }
    }
    out
}

/// Counter deltas over `[from_ns, end]`.
fn fleet_delta(snaps: &[Snapshot], from_ns: u64) -> impl Fn(&str) -> f64 {
    let a = fleet_at(snaps, from_ns);
    let b = fleet_at(snaps, u64::MAX);
    move |name| (b.get(name).copied().unwrap_or(0) - a.get(name).copied().unwrap_or(0)) as f64
}

/// Largest value of any single `name` series at or after `from_ns`.
fn series_peak(snaps: &[Snapshot], name: &str, from_ns: u64) -> i64 {
    snaps
        .iter()
        .filter(|s| s.ts_ns >= from_ns)
        .flat_map(|s| s.gauges.iter())
        .filter(|(k, _)| k.name == name)
        .map(|(_, v)| *v)
        .max()
        .unwrap_or(0)
}

/// Median, mean and p99.9 latency of one class, with the sample count.
fn latency_metrics(m: &mut Metrics, prefix: &str, lat_ns: &[u64]) {
    let n = lat_ns.len();
    let us = |v: u64| v as f64 / 1e3;
    m.sim(
        format!("{prefix}_p50_us"),
        us(pct(lat_ns, 0.5)),
        "us",
        format!("n={n}"),
    );
    m.sim(
        format!("{prefix}_mean_us"),
        ratio(lat_ns.iter().sum::<u64>() as f64, n as f64) / 1e3,
        "us",
        format!("n={n}"),
    );
    for (name, q) in [("p99", 0.99), ("p999", 0.999)] {
        let beyond = n - ((q * n as f64).ceil() as usize).min(n);
        m.sim(
            format!("{prefix}_{name}_us"),
            us(pct(lat_ns, q)),
            "us",
            format!("n={n}, {beyond} beyond"),
        );
    }
}

/// Admission backlog (released, not yet dispatched) at `t_ns`.
fn backlog_at(ops: &[OpRecord], t_ns: u64) -> u64 {
    ops.iter()
        .filter(|o| o.sched_ns <= t_ns && o.start_ns > t_ns)
        .count() as u64
}

/// Peak admission backlog over a set of requests.
fn backlog_peak(ops: &[&OpRecord]) -> u64 {
    let mut ev: Vec<(u64, i64)> = Vec::with_capacity(ops.len() * 2);
    for o in ops {
        if o.start_ns > o.sched_ns {
            ev.push((o.sched_ns, 1));
            ev.push((o.start_ns, -1));
        }
    }
    ev.sort_unstable();
    let (mut cur, mut peak) = (0i64, 0i64);
    for (_, d) in ev {
        cur += d;
        peak = peak.max(cur);
    }
    peak as u64
}

/// Journal-derived per-layer metrics of a traced run: the 8-phase span
/// partition (mean and slowest 1 %), the I1–I6 audit, and their host
/// cost.
fn traced_layers(
    cluster: &Cluster,
    from_ns: u64,
    layer: &mut Metrics,
    violations: &mut Vec<String>,
) {
    let dropped: u64 = (0..cluster.len())
        .filter_map(|i| cluster.node(i).journal().map(|j| j.dropped()))
        .sum();
    if dropped > 0 {
        violations.push(format!(
            "journal ring dropped {dropped} records; the audit is incomplete"
        ));
    }
    let t = Instant::now();
    let audit = cluster.audit_journal();
    let audit_ms = t.elapsed().as_secs_f64() * 1e3;
    if !audit.ok() {
        violations.extend(audit.violations.iter().map(|v| format!("audit: {v}")));
    }
    let t = Instant::now();
    let trees: Vec<_> = build_span_trees(&cluster.journal_records())
        .into_iter()
        .filter(|t| t.root.start_ns >= from_ns)
        .collect();
    let tail = tail_report(&trees, 0.01);
    let span_ms = t.elapsed().as_secs_f64() * 1e3;
    let mut mean = [0u64; 8];
    for tree in &trees {
        for (m, p) in mean.iter_mut().zip(tree.attribution.parts()) {
            *m += p;
        }
    }
    for (i, phase) in PHASES.iter().enumerate() {
        let n = trees.len();
        layer.sim(
            format!("span.{phase}_us.mean"),
            ratio(mean[i] as f64, n as f64) / 1e3,
            "us",
            format!("n={n} requests"),
        );
        layer.sim(
            format!("span.{phase}_us.tail"),
            tail.mean_parts_ns[i] as f64 / 1e3,
            "us",
            format!("n={} slowest 1%", tail.entries.len()),
        );
    }
    layer.sim(
        "obs.journal_records",
        audit.records as f64,
        "count",
        format!("{}", audit),
    );
    layer.host("obs.audit_host_ms", audit_ms, "ms", String::new());
    layer.host(
        "obs.span_build_host_ms",
        span_ms,
        "ms",
        format!("{} trees", trees.len()),
    );
}

/// Per-layer metrics every workload reports from the simulator, the
/// fleet's metrics registry, the devices and the tracer.
fn common_layers(
    layer: &mut Metrics,
    cost: &Cost,
    attempted: u64,
    snaps: &[Snapshot],
    from_ns: u64,
    cluster: &Cluster,
    user_bytes: f64,
) {
    let Cost {
        elapsed_ns,
        timed_ns,
        before,
        after,
        trace0,
        trace1,
        clock,
    } = cost;
    let (elapsed_ns, timed_ns) = (*elapsed_ns, *timed_ns);
    let ops = attempted as f64;
    let events = (after.events - before.events) as f64;
    let base = format!("base: {attempted} ops");
    layer.sim(
        "simnet.events_per_op",
        ratio(events, ops),
        "count",
        base.clone(),
    );
    layer.host(
        "simnet.host_ns_per_event",
        ratio(timed_ns as f64, events),
        "ns",
        format!("base: {events} events"),
    );
    layer.host(
        "core.client_host_ns_per_call",
        ratio(clock.ns() as f64, clock.calls() as f64),
        "ns",
        format!("base: {} calls", clock.calls()),
    );
    let d = fleet_delta(snaps, from_ns);
    layer.sim(
        "core.rpc_retries_per_op",
        ratio(d("rpc_retries"), ops),
        "count",
        base.clone(),
    );
    layer.sim(
        "core.rpc_timeouts",
        d("rpc_timeouts"),
        "count",
        String::new(),
    );
    for phase in Phase::EXCLUSIVE {
        let busy = trace1.total(phase).as_nanos() - trace0.total(phase).as_nanos();
        layer.sim(
            format!("trace.{}_busy_ns_per_op", phase.name()),
            ratio(busy as f64, ops),
            "ns",
            base.clone(),
        );
    }
    layer.sim("core.log.stalls", d("log_stalls"), "count", String::new());
    layer.sim(
        "core.log.outstanding_peak",
        series_peak(snaps, "log_outstanding", from_ns) as f64,
        "count",
        "deepest single log".into(),
    );
    layer.sim(
        "pmem.media_busy_frac",
        ratio(
            (after.media_busy_ns - before.media_busy_ns) as f64,
            elapsed_ns as f64 * SHARDS as f64,
        ),
        "frac",
        format!("base: {SHARDS} servers x {elapsed_ns} ns"),
    );
    layer.sim(
        "pmem.bytes_per_user_byte",
        ratio(
            (after.bytes_persisted - before.bytes_persisted) as f64,
            user_bytes,
        ),
        "B/B",
        format!("base: {user_bytes} user bytes written"),
    );
    layer.sim(
        "rnic.msgs_per_op",
        ratio((after.nic_msgs - before.nic_msgs) as f64, ops),
        "count",
        base.clone(),
    );
    layer.sim(
        "rnic.retransmits",
        (after.nic_retransmits - before.nic_retransmits) as f64,
        "count",
        String::new(),
    );
    layer.sim(
        "rnic.sram_peak_bytes",
        sram_peak(cluster) as f64,
        "B",
        "max over nodes".into(),
    );
    layer.sim(
        "core.repl.failovers",
        d("failovers"),
        "count",
        String::new(),
    );
    layer.sim(
        "core.repl.missed_puts",
        d("missed_puts"),
        "count",
        String::new(),
    );
}

/// One fleet run of a key-value workload.
#[derive(Debug, Clone)]
pub struct Fleet {
    /// Every request, times relative to the start of the timed section.
    pub ops: Vec<OpRecord>,
    /// Requests scheduled in this span (relative like `ops`) make the
    /// failover workload's latency window.
    pub fault_window: (u64, u64),
    /// Host CPU of the fleet's set-up.
    pub setup_ns: u64,
    /// Host CPU of its timed section.
    pub timed_ns: u64,
    /// Peak resident set of the process that ran it, MiB.
    pub peak_rss_mb: f64,
    /// Per-layer metrics.
    pub layer: Metrics,
    /// Output-check violations.
    pub violations: Vec<String>,
}

impl Fleet {
    /// Line-based encoding, for handing a fleet from a child process to
    /// its parent.
    pub fn encode(&self) -> String {
        let mut out = format!(
            "fleet\t{}\t{}\t{}\t{}\t{:016x}\n",
            self.fault_window.0,
            self.fault_window.1,
            self.setup_ns,
            self.timed_ns,
            self.peak_rss_mb.to_bits()
        );
        for o in &self.ops {
            out.push_str(&format!(
                "op\t{}\t{}\t{}\t{}\t{}\t{}\t{}\n",
                o.sched_ns,
                o.start_ns,
                o.done_ns,
                o.step,
                u8::from(o.is_read),
                u8::from(o.ok),
                o.shard
            ));
        }
        out.push_str(&self.layer.encode("layer"));
        for v in &self.violations {
            out.push_str(&format!("violation\t{}\n", v.replace(['\t', '\n'], " ")));
        }
        out
    }

    /// Inverse of [`Fleet::encode`].
    pub fn decode(text: &str) -> Result<Fleet, String> {
        let mut f = Fleet {
            ops: Vec::new(),
            fault_window: (0, 0),
            setup_ns: 0,
            timed_ns: 0,
            peak_rss_mb: 0.0,
            layer: Metrics::default(),
            violations: Vec::new(),
        };
        let mut saw_fleet = false;
        for line in text.lines() {
            let fields: Vec<&str> = line.split('\t').collect();
            let num = |i: usize| field_u64(&fields, i, line);
            match fields[0] {
                "fleet" => {
                    f.fault_window = (num(1)?, num(2)?);
                    (f.setup_ns, f.timed_ns) = (num(3)?, num(4)?);
                    f.peak_rss_mb = f64::from_bits(field_hex(&fields, 5, line)?);
                    saw_fleet = true;
                }
                "op" => f.ops.push(OpRecord {
                    sched_ns: num(1)?,
                    start_ns: num(2)?,
                    done_ns: num(3)?,
                    step: num(4)? as u32,
                    is_read: num(5)? == 1,
                    ok: num(6)? == 1,
                    shard: num(7)? as u32,
                }),
                "layer" => f.layer.decode_into(&fields[1..])?,
                "violation" => f.violations.push(fields[1..].join(" ")),
                _ => {}
            }
        }
        if saw_fleet {
            Ok(f)
        } else {
            Err("no fleet record".into())
        }
    }
}

fn field_u64(fields: &[&str], i: usize, line: &str) -> Result<u64, String> {
    fields
        .get(i)
        .ok_or(format!("short record {line:?}"))?
        .parse()
        .map_err(|e| format!("{e} in {line:?}"))
}

fn field_hex(fields: &[&str], i: usize, line: &str) -> Result<u64, String> {
    let f = fields.get(i).ok_or(format!("short record {line:?}"))?;
    u64::from_str_radix(f, 16).map_err(|e| format!("{e} in {line:?}"))
}

/// The seed of trial `t` of a run seeded `seed` (trial 0 uses the seed
/// itself).
fn trial_seed(seed: u64, t: usize) -> u64 {
    seed ^ (t as u64).wrapping_mul(0xa076_1d64_78bd_642f)
}

fn run_kv(spec: &KvSpec, fleet: &dyn Fn(usize) -> Fleet) -> Outcome {
    let trials: Vec<Fleet> = (0..spec.trials).map(fleet).collect();
    let load = &spec.load;
    let bounds = load.step_bounds_ns();
    let ops: Vec<OpRecord> = trials.iter().flat_map(|t| t.ops.iter().copied()).collect();
    let nominal = load
        .steps
        .iter()
        .position(|s| s.measured)
        .expect("a measured step") as u32;
    let window: Vec<&OpRecord> = if spec.crash {
        trials
            .iter()
            .flat_map(|t| {
                let (a, b) = t.fault_window;
                t.ops
                    .iter()
                    .filter(move |o| o.sched_ns >= a && o.sched_ns < b)
            })
            .collect()
    } else {
        ops.iter().filter(|o| o.step == nominal).collect()
    };
    let lat = |read: bool| -> Vec<u64> {
        sorted(
            window
                .iter()
                .filter(|o| o.ok && o.is_read == read)
                .map(|o| o.latency_ns())
                .collect(),
        )
    };
    let (put_lat, get_lat) = (lat(false), lat(true));
    let mut e2e = Metrics::default();
    latency_metrics(&mut e2e, "put", &put_lat);
    latency_metrics(&mut e2e, "get", &get_lat);
    if spec.trials > 1 {
        // One fleet in a few catches a second, random fault path; the
        // median over fleets keeps the mean a property of the system.
        for (class, read) in [("put", false), ("get", true)] {
            let means: Vec<f64> = trials
                .iter()
                .map(|t| {
                    let (a, b) = t.fault_window;
                    let v: Vec<u64> = t
                        .ops
                        .iter()
                        .filter(|o| o.ok && o.is_read == read && o.sched_ns >= a && o.sched_ns < b)
                        .map(|o| o.latency_ns())
                        .collect();
                    ratio(v.iter().sum::<u64>() as f64, v.len() as f64) / 1e3
                })
                .collect();
            let m = e2e
                .0
                .iter_mut()
                .find(|m| m.name == format!("{class}_mean_us"))
                .expect("latency_metrics adds the mean");
            m.value = median(&means);
            m.note = format!("median of {} fleets' means", means.len());
        }
    }
    let limit_ns = (SLO_P99_US * 1e3) as u64;
    let missed = window
        .iter()
        .filter(|o| !o.ok || o.latency_ns() > limit_ns)
        .count();
    e2e.sim(
        "slo_miss_frac",
        ratio(missed as f64, window.len() as f64),
        "frac",
        format!("base: {} requests, limit p99 {SLO_P99_US} us", window.len()),
    );
    let failed = ops.iter().filter(|o| !o.ok).count() as u64;
    let attempted = ops.len() as u64;
    e2e.sim(
        "failed_frac",
        ratio(failed as f64, attempted as f64),
        "frac",
        format!("base: {attempted} requests"),
    );
    let mut steps = Vec::new();
    let capacity = if spec.crash {
        let good = window.len() - missed;
        let span_ns: u64 = trials
            .iter()
            .map(|t| t.fault_window.1 - t.fault_window.0)
            .sum();
        let kops = good as f64 / (span_ns as f64 / 1e9) / 1e3;
        e2e.sim(
            "goodput_kops",
            kops,
            "kops",
            format!("base: {good} requests within the limit"),
        );
        kops
    } else {
        let mut best = 0.0;
        let mut notes = Vec::new();
        for (i, s) in load.steps.iter().enumerate().filter(|(_, s)| s.measured) {
            let in_step: Vec<&OpRecord> = ops.iter().filter(|o| o.step == i as u32).collect();
            let p99 = |read: bool| {
                let v = sorted(
                    in_step
                        .iter()
                        .filter(|o| o.ok && o.is_read == read)
                        .map(|o| o.latency_ns())
                        .collect(),
                );
                pct(&v, 0.99)
            };
            let (b0, b1) = (backlog_at(&ops, bounds[i]), backlog_at(&ops, bounds[i + 1]));
            let pass = p99(false) <= limit_ns
                && p99(true) <= limit_ns
                && b1 <= b0 + in_step.len() as u64 / 100
                && in_step.iter().all(|o| o.ok);
            let achieved = in_step.len() as f64 / ((bounds[i + 1] - bounds[i]) as f64 / 1e9) / 1e3;
            if pass {
                best = achieved;
            }
            steps.push(StepResult {
                rate_kops: s.rate_kops,
                pass,
            });
            notes.push(format!(
                "{}k: p99 {:.1}/{:.1} us, backlog {b0}->{b1}{}",
                s.rate_kops,
                p99(false) as f64 / 1e3,
                p99(true) as f64 / 1e3,
                if pass { "" } else { " MISS" }
            ));
        }
        e2e.sim(
            "max_kops_at_slo",
            best,
            "kops",
            format!("achieved; steps put/get {}", notes.join("; ")),
        );
        best
    };
    e2e.sim("capacity_kops", capacity, "kops", String::new());

    let mut violations = Vec::new();
    for (t, trial) in trials.iter().enumerate() {
        violations.extend(trial.violations.iter().map(|v| format!("trial {t}: {v}")));
    }
    Outcome {
        e2e,
        layer: mean_metrics(trials.iter().map(|t| &t.layer)),
        setup_ns: trials.iter().map(|t| t.setup_ns).sum(),
        timed_ns: trials.iter().map(|t| t.timed_ns).sum(),
        attempted,
        failed,
        peak_rss_mb: trials.iter().map(|t| t.peak_rss_mb).fold(0.0, f64::max),
        violations,
        steps,
    }
}

/// When to crash shard 0's primary: [`CRASH_PHASE_NS`] after the
/// scheduled arrival of the first put to shard 0 at or after `from_ns`
/// whose endpoint has been idle for 50 µs, so the crash always catches
/// that put at the same point of its flight.
fn crash_offset_ns(
    schedule: &[driver::Arrival],
    map: ShardMap,
    endpoints: u64,
    from_ns: u64,
) -> u64 {
    let mut last = vec![0u64; endpoints as usize];
    for a in schedule {
        let e = (a.client % endpoints) as usize;
        if a.at_ns >= from_ns
            && !a.is_read
            && map.shard_of(a.key) == 0
            && a.at_ns - last[e] >= 50_000
        {
            return a.at_ns + CRASH_PHASE_NS;
        }
        last[e] = a.at_ns;
    }
    from_ns
}

/// Element-wise mean of metric lists with the same names (notes from
/// the first).
fn mean_metrics<'a>(lists: impl Iterator<Item = &'a Metrics>) -> Metrics {
    let lists: Vec<&Metrics> = lists.collect();
    let mut out = lists[0].clone();
    for (i, m) in out.0.iter_mut().enumerate() {
        m.value = lists.iter().map(|l| l.0[i].value).sum::<f64>() / lists.len() as f64;
    }
    out
}

fn kv_trial(spec: &KvSpec, seed: u64, traced: bool) -> Fleet {
    let setup0 = thread_cpu_ns();
    let mut sim = Sim::new(seed);
    let mut ccfg = ClusterConfig::with_servers(SHARDS, ENDPOINTS);
    ccfg.journal = traced;
    let cluster = Cluster::new(sim.handle(), ccfg);
    let map = ShardMap::new(SHARDS);
    let load = &spec.load;
    let dcfg = DurableConfig {
        kind: spec.kind,
        profile: ServerProfile::light(),
        slot_payload: load.value_bytes,
        object_slot: load.value_bytes,
        store_capacity: map.local_span(load.objects) * load.value_bytes,
        log_slots: spec.log_slots,
        ..Default::default()
    };
    let client_nodes: Vec<usize> = (SHARDS..SHARDS + ENDPOINTS).collect();
    // Per shard, the object store of every replica (read back at the end).
    let stores: Vec<Vec<prdma::ObjectStore>>;
    let endpoints: Vec<Rc<dyn RpcClient>>;
    let mut replicated = None;
    let mut _servers = None;
    if spec.cache {
        let (svc, _leases) = build_sharded_durable_cached(
            &cluster,
            map,
            &client_nodes,
            &dcfg,
            &CacheConfig::default(),
        );
        stores = svc
            .servers
            .iter()
            .map(|per| vec![per[0].store().clone()])
            .collect();
        endpoints = svc
            .clients
            .into_iter()
            .map(|c| Rc::new(c) as Rc<dyn RpcClient>)
            .collect();
        _servers = Some(svc.servers);
    } else {
        let mut sys = build_replicated_sharded(&cluster, map, &client_nodes, spec.replicas, &dcfg);
        stores = sys
            .groups
            .iter()
            .map(|g| g[0].servers.iter().map(|s| s.store().clone()).collect())
            .collect();
        endpoints = std::mem::take(&mut sys.clients)
            .into_iter()
            .map(|c| Rc::new(c) as Rc<dyn RpcClient>)
            .collect();
        replicated = Some(sys);
    }
    let schedule: Rc<[driver::Arrival]> = load.schedule(seed).into();
    let log = Rc::new(PutLog::default());
    let h = sim.handle();
    if spec.preload {
        sim.block_on(driver::preload(
            endpoints.clone(),
            h.clone(),
            load.objects,
            load.value_bytes,
            Rc::clone(&log),
        ));
        sim.run();
    }
    let t0 = sim.now().as_nanos();
    let bounds = load.step_bounds_ns();
    let run_ns = *bounds.last().expect("at least one step");
    let crash_at = t0 + crash_offset_ns(&schedule, map, ENDPOINTS as u64, run_ns / 2);
    let restart = crash_at + CRASH_DOWN_MS * 1_000_000;
    let mut inj = None;
    let rejoin = Rc::new(Cell::new(None::<u64>));
    let mut probe: Option<driver::Probe> = None;
    if spec.crash {
        let sys = replicated
            .as_ref()
            .expect("failover runs on a replicated fleet");
        let plan = FaultPlan::new().at(
            SimTime::from_nanos(crash_at),
            0,
            FaultKind::NodeCrash {
                down_for: SimDuration::from_millis(CRASH_DOWN_MS),
            },
        );
        let i = cluster.inject_faults(plan);
        sys.wire_failover(&i);
        inj = Some(i);
        // Shard 0's groups: the crashed primary is replica slot 0.
        let views: Vec<_> = sys.groups[0].iter().map(|g| g.view()).collect();
        let rejoin = Rc::clone(&rejoin);
        probe = Some(Rc::new(move |now| {
            if rejoin.get().is_none() && now >= restart && views.iter().all(|v| v.is_up(0)) {
                rejoin.set(Some(now));
            }
        }));
    }
    let setup_ns = thread_cpu_ns() - setup0;

    // Timed section: the staircase and the drain of background work.
    let section = Section::start(&sim, &cluster);
    let clock = Rc::clone(&section.clock);
    let mut ops = sim.block_on(driver::run(
        endpoints.clone(),
        h.clone(),
        schedule,
        load.value_bytes,
        map,
        Rc::clone(&log),
        Rc::clone(&clock),
        probe,
    ));
    sim.run();
    let cost = section.end(&sim, &cluster);
    for o in &mut ops {
        o.sched_ns -= t0;
        o.start_ns -= t0;
        o.done_ns -= t0;
    }

    let mut violations = Vec::new();
    let puts = Rc::try_unwrap(log)
        .unwrap_or_else(|_| panic!("put log still shared after the run"))
        .into_records();
    // A client reads a key from its shard's current primary: that copy
    // must hold every acknowledged put. Backups that fell behind are
    // counted, not failed (see `recovery.stale_replica_keys`).
    let primary = |shard: usize| {
        replicated
            .as_ref()
            .map_or(0, |s| s.groups[shard][0].view().primary_slot())
    };
    let copies = |key: u64, want_primary: bool| -> Vec<(usize, Vec<u8>)> {
        let (shard, local) = map.route(key);
        (0..stores[shard].len())
            .filter(|&slot| (slot == primary(shard)) == want_primary)
            .map(|slot| {
                (
                    slot,
                    stores[shard][slot].persistent_bytes(local, STAMP_BYTES),
                )
            })
            .collect()
    };
    violations.extend(check::read_back(&puts, |key| copies(key, true)));
    let stale_backups = check::read_back(&puts, |key| copies(key, false)).len();
    if let Some(inj) = &inj {
        if inj.stats().node_crashes != 1 {
            violations.push(format!(
                "expected 1 node crash, saw {}",
                inj.stats().node_crashes
            ));
        }
        if rejoin.get().is_none() {
            violations.push("the crashed primary never rejoined its groups".into());
        }
    }

    let measured_from = bounds[load
        .steps
        .iter()
        .position(|s| s.measured)
        .expect("a measured step")];
    let nominal = load
        .steps
        .iter()
        .position(|s| s.measured)
        .expect("a measured step") as u32;
    let attempted = ops.len() as u64;
    let snaps = cluster.metrics_snapshots();
    let mut layer = Metrics::default();
    let acked_puts = puts
        .iter()
        .filter(|p| p.acked_ns.is_some() && p.issued_ns >= t0)
        .count();
    common_layers(
        &mut layer,
        &cost,
        attempted,
        &snaps,
        t0 + measured_from,
        &cluster,
        acked_puts as f64 * load.value_bytes as f64,
    );
    let nominal_ops: Vec<&OpRecord> = ops.iter().filter(|o| o.step == nominal).collect();
    let lateness = sorted(
        nominal_ops
            .iter()
            .map(|o| o.start_ns - o.sched_ns)
            .collect(),
    );
    layer.sim(
        "driver.lateness_p99_us",
        pct(&lateness, 0.99) as f64 / 1e3,
        "us",
        format!("n={}", lateness.len()),
    );
    layer.sim(
        "driver.backlog_peak",
        backlog_peak(&nominal_ops) as f64,
        "count",
        "nominal step".into(),
    );
    let d = fleet_delta(&snaps, t0 + measured_from);
    let measured = |read: bool| {
        ops.iter()
            .filter(|o| o.is_read == read && o.sched_ns >= measured_from)
            .count() as f64
    };
    let (gets, measured_puts) = (measured(true), measured(false));
    let hits = d("cache_hits");
    layer.sim(
        "core.cache.hit_ratio",
        ratio(hits, gets),
        "frac",
        format!("base: {gets} GETs"),
    );
    layer.sim(
        "core.cache.invalidations_per_put",
        ratio(d("cache_invalidations"), measured_puts),
        "count",
        format!("base: {measured_puts} puts"),
    );
    layer.sim(
        "core.cache.demotions",
        d("cache_demotions"),
        "count",
        String::new(),
    );
    layer.sim(
        "core.cache.mirror_read_ratio",
        ratio(d("mirror_reads"), hits),
        "frac",
        format!("base: {hits} hits"),
    );
    txn_layers(&mut layer, &PhaseClock::default());
    let replayed = replicated.as_ref().map_or(0, |s| s.replayed());
    layer.sim(
        "recovery.replayed_entries",
        replayed as f64,
        "count",
        String::new(),
    );
    layer.sim(
        "recovery.rejoin_us",
        rejoin.get().map_or(0.0, |t| (t - restart) as f64 / 1e3),
        "us",
        "restart to back in every GroupView".into(),
    );
    let mut shard0: Vec<u64> = ops
        .iter()
        .filter(|o| o.ok && o.shard == 0)
        .map(|o| o.done_ns)
        .collect();
    shard0.sort_unstable();
    let gap = if spec.crash {
        shard0.windows(2).map(|w| w[1] - w[0]).max().unwrap_or(0)
    } else {
        0
    };
    layer.sim(
        "recovery.stale_replica_keys",
        stale_backups as f64,
        "count",
        "backup copies older than an acknowledged put".into(),
    );
    layer.sim(
        "recovery.unavailable_us",
        gap as f64 / 1e3,
        "us",
        "longest gap between completions on shard 0".into(),
    );
    if traced {
        traced_layers(&cluster, t0 + measured_from, &mut layer, &mut violations);
    }
    Fleet {
        timed_ns: cost.timed_ns,
        ops,
        fault_window: (
            (crash_at - t0).saturating_sub(FAULT_WINDOW_MARGIN_NS),
            restart - t0 + FAULT_WINDOW_MARGIN_NS,
        ),
        setup_ns,
        peak_rss_mb: peak_rss_mb(),
        layer,
        violations,
    }
}

/// Commit-pipeline timing read from `TxnClient::set_phase_hook`.
#[derive(Default)]
struct PhaseClock {
    entered_ns: u64,
    last_ns: u64,
    prepare_ns: u64,
    decide_ns: u64,
    ack_ns: u64,
    prepared: u64,
    participants: u64,
    commits: u64,
}

fn txn_layers(layer: &mut Metrics, c: &PhaseClock) {
    let n = c.commits as f64;
    let note = format!("mean over {} commits", c.commits);
    let us = |ns: u64| ratio(ns as f64, n) / 1e3;
    layer.sim("core.txn.prepare_us", us(c.prepare_ns), "us", note.clone());
    layer.sim("core.txn.decide_us", us(c.decide_ns), "us", note.clone());
    layer.sim("core.txn.ack_us", us(c.ack_ns), "us", note.clone());
    layer.sim(
        "core.txn.participants_per_commit",
        ratio(c.participants as f64, n),
        "count",
        note,
    );
}

fn run_txn(cfg: &RunConfig) -> Outcome {
    let mix = TxnMixConfig {
        txns: (3_000.0 * cfg.scale).ceil() as u64,
        reads_per_txn: 2,
        writes_per_txn: 2,
        objects: 10_000,
        value_bytes: TXN_VALUE_BYTES,
        theta: 0.9,
        seed: cfg.seed,
    };
    let setup0 = thread_cpu_ns();
    let mut sim = Sim::new(cfg.seed);
    let mut ccfg = ClusterConfig::with_servers(SHARDS, TXN_CLIENTS);
    ccfg.journal = cfg.traced;
    let cluster = Cluster::new(sim.handle(), ccfg);
    let map = ShardMap::new(SHARDS);
    let slot = 1024;
    let dcfg = DurableConfig {
        kind: DurableKind::SFlush,
        profile: ServerProfile::light(),
        slot_payload: slot,
        object_slot: slot,
        store_capacity: map.local_span(mix.objects) * slot,
        log_slots: 256,
        ..Default::default()
    };
    let client_nodes: Vec<usize> = (SHARDS..SHARDS + TXN_CLIENTS).collect();
    let mut svc = build_sharded_txn(&cluster, map, &client_nodes, &dcfg);
    let clients: Vec<Rc<TxnClient>> = std::mem::take(&mut svc.clients)
        .into_iter()
        .map(Rc::new)
        .collect();
    let h = sim.handle();
    let phases: Vec<Rc<RefCell<PhaseClock>>> = clients
        .iter()
        .map(|c| {
            let p = Rc::new(RefCell::new(PhaseClock::default()));
            {
                let (p2, h2) = (Rc::clone(&p), h.clone());
                c.set_phase_hook(move |phase| {
                    let now = h2.now().as_nanos();
                    let mut c = p2.borrow_mut();
                    match phase {
                        TxnPhase::AfterPrepare(n) => {
                            c.prepared = n as u64;
                            c.last_ns = now;
                        }
                        TxnPhase::AfterDecide => {
                            c.prepare_ns += c.last_ns - c.entered_ns;
                            c.decide_ns += now - c.last_ns;
                            c.last_ns = now;
                        }
                        TxnPhase::AfterAck => {
                            c.ack_ns += now - c.last_ns;
                            c.participants += c.prepared;
                            c.commits += 1;
                        }
                    }
                });
            }
            p
        })
        .collect();
    let setup_ns = thread_cpu_ns() - setup0;

    let t0 = sim.now().as_nanos();
    let section = Section::start(&sim, &cluster);
    let clock = Rc::clone(&section.clock);
    let per_client: Vec<TxnTally> = sim.block_on({
        let (h, clients, clock, phases, mix) = (
            h.clone(),
            clients.clone(),
            Rc::clone(&clock),
            phases.clone(),
            mix.clone(),
        );
        async move {
            let joins: Vec<_> = clients
                .into_iter()
                .zip(phases)
                .enumerate()
                .map(|(i, (c, p))| {
                    let (h2, clock, mix) = (h.clone(), Rc::clone(&clock), mix.clone());
                    h.spawn(async move { txn_client(&h2, &c, i, &mix, &clock, &p).await })
                })
                .collect();
            let mut out = Vec::new();
            for j in joins {
                out.push(j.await);
            }
            out
        }
    });
    let done_ns = sim.now().as_nanos();
    sim.run();
    let cost = section.end(&sim, &cluster);

    let mut t = TxnTally::default();
    for c in &per_client {
        t.commit_ns.extend(&c.commit_ns);
        t.read_ns.extend(&c.read_ns);
        t.attempted += c.attempted;
        t.aborted += c.aborted;
        t.failed += c.failed;
    }
    let committed = t.commit_ns.len() as u64;
    let mut violations = Vec::new();
    if committed + t.aborted + t.failed != t.attempted {
        violations.push(format!(
            "committed {committed} + aborted {} + failed {} != attempted {}",
            t.aborted, t.failed, t.attempted
        ));
    }
    let (c_commits, c_aborts): (u64, u64) = clients
        .iter()
        .fold((0, 0), |(a, b), c| (a + c.commits(), b + c.aborts()));
    if (c_commits, c_aborts) != (committed, t.aborted) {
        violations.push(format!(
            "TxnClient counters say {c_commits} commits / {c_aborts} aborts, \
             the driver saw {committed} / {}",
            t.aborted
        ));
    }

    let commit = sorted(t.commit_ns);
    let reads = sorted(t.read_ns);
    let mut e2e = Metrics::default();
    latency_metrics(&mut e2e, "txn_commit", &commit);
    latency_metrics(&mut e2e, "txn_read", &reads);
    e2e.sim(
        "txn_abort_frac",
        ratio(t.aborted as f64, t.attempted as f64),
        "frac",
        format!("base: {} txns", t.attempted),
    );
    e2e.sim(
        "failed_frac",
        ratio(t.failed as f64, t.attempted as f64),
        "frac",
        format!("base: {} txns", t.attempted),
    );
    let ktps = committed as f64 / ((done_ns - t0) as f64 / 1e9) / 1e3;
    e2e.sim("txn_ktps", ktps, "ktps", format!("{committed} commits"));
    e2e.sim("capacity_kops", ktps, "kops", "committed txns".into());

    let snaps = cluster.metrics_snapshots();
    let mut layer = Metrics::default();
    common_layers(
        &mut layer,
        &cost,
        t.attempted,
        &snaps,
        t0,
        &cluster,
        (committed * mix.writes_per_txn as u64 * mix.value_bytes) as f64,
    );
    for (name, note) in [
        ("driver.lateness_p99_us", "closed loop"),
        ("driver.backlog_peak", "closed loop"),
    ] {
        layer.sim(
            name,
            0.0,
            if name.ends_with("_us") { "us" } else { "count" },
            note.into(),
        );
    }
    for name in [
        "core.cache.hit_ratio",
        "core.cache.invalidations_per_put",
        "core.cache.demotions",
        "core.cache.mirror_read_ratio",
    ] {
        let unit = if name.ends_with("ratio") {
            "frac"
        } else {
            "count"
        };
        layer.sim(name, 0.0, unit, "no cache".into());
    }
    let mut pc = PhaseClock::default();
    for p in &phases {
        let p = p.borrow();
        pc.prepare_ns += p.prepare_ns;
        pc.decide_ns += p.decide_ns;
        pc.ack_ns += p.ack_ns;
        pc.participants += p.participants;
        pc.commits += p.commits;
    }
    txn_layers(&mut layer, &pc);
    for (name, unit) in [
        ("recovery.replayed_entries", "count"),
        ("recovery.rejoin_us", "us"),
        ("recovery.stale_replica_keys", "count"),
        ("recovery.unavailable_us", "us"),
    ] {
        layer.sim(name, 0.0, unit, "no fault".into());
    }
    if cfg.traced {
        traced_layers(&cluster, t0, &mut layer, &mut violations);
    }
    Outcome {
        e2e,
        layer,
        setup_ns,
        timed_ns: cost.timed_ns,
        attempted: t.attempted,
        failed: t.failed,
        peak_rss_mb: peak_rss_mb(),
        violations,
        steps: Vec::new(),
    }
}

#[derive(Default)]
struct TxnTally {
    commit_ns: Vec<u64>,
    read_ns: Vec<u64>,
    attempted: u64,
    aborted: u64,
    failed: u64,
}

/// One closed-loop client of the `txn_mix` shape: 2 zipfian reads, 2
/// zipfian writes, commit, no retry of aborts. Reads and commits are
/// timed in simulated time and their polls in host time.
async fn txn_client(
    h: &prdma_simnet::SimHandle,
    client: &TxnClient,
    index: usize,
    mix: &TxnMixConfig,
    clock: &PollClock,
    phase: &RefCell<PhaseClock>,
) -> TxnTally {
    let mut rng = workload_rng(mix.seed.wrapping_add(index as u64 * 7919));
    let zipf = Zipfian::new(mix.objects, mix.theta);
    let mut t = TxnTally::default();
    for _ in 0..mix.txns {
        t.attempted += 1;
        let mut txn = client.begin();
        for _ in 0..mix.reads_per_txn {
            let key = zipf.sample(&mut rng);
            let t0 = h.now();
            if clock
                .time(client.read(&mut txn, key, mix.value_bytes))
                .await
                .is_ok()
            {
                t.read_ns.push((h.now() - t0).as_nanos());
            }
        }
        for w in 0..mix.writes_per_txn {
            let key = zipf.sample(&mut rng);
            txn.put(
                key,
                &Payload::synthetic(mix.value_bytes, key ^ ((w as u64) << 48)),
            );
        }
        let t0 = h.now();
        phase.borrow_mut().entered_ns = t0.as_nanos();
        match clock.time(client.commit(txn)).await {
            Ok(TxnOutcome::Committed) => t.commit_ns.push((h.now() - t0).as_nanos()),
            Ok(TxnOutcome::Aborted(_)) => t.aborted += 1,
            Err(_) => t.failed += 1,
        }
    }
    t
}
