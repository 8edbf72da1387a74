//! Determinism guarantees and property-based tests spanning the whole
//! stack.
//!
//! Randomized cases are generated with the in-tree deterministic
//! `SmallRng` rather than an external property-testing framework, so the
//! suite builds offline and every failure is reproducible from the
//! printed case seed.

use prdma_suite::baselines::{build_system, SystemKind, SystemOpts};
use prdma_suite::core::{
    build_durable, DurableConfig, DurableKind, Request, RpcClient, ServerProfile,
};
use prdma_suite::node::{Cluster, ClusterConfig};
use prdma_suite::rnic::Payload;
use prdma_suite::simnet::journal;
use prdma_suite::simnet::rng::SmallRng;
use prdma_suite::simnet::Sim;
use prdma_suite::workloads::micro::{run_micro, MicroConfig};

fn full_run(seed: u64, kind: SystemKind) -> (u64, u64, u64) {
    let mut sim = Sim::new(seed);
    let cluster = Cluster::new(sim.handle(), ClusterConfig::with_nodes(2));
    let opts = SystemOpts::for_object_size(1024, ServerProfile::light());
    let client = build_system(&cluster, kind, 1, 0, 0, &opts);
    let cfg = MicroConfig {
        objects: 500,
        ops: 200,
        object_size: 1024,
        seed,
        ..Default::default()
    };
    let h = sim.handle();
    let r = sim.block_on(async move { run_micro(client.as_ref(), &h, &cfg).await });
    (
        r.elapsed.as_nanos(),
        r.latency.p99_ns,
        sim.events_processed(),
    )
}

/// Like [`full_run`] but with the event journal enabled; returns the
/// JSONL export alongside the run fingerprint.
fn journaled_run(seed: u64, kind: SystemKind) -> (String, (u64, u64, u64)) {
    let mut sim = Sim::new(seed);
    let mut ccfg = ClusterConfig::with_nodes(2);
    ccfg.journal = true;
    let cluster = Cluster::new(sim.handle(), ccfg);
    let opts = SystemOpts::for_object_size(1024, ServerProfile::light());
    let client = build_system(&cluster, kind, 1, 0, 0, &opts);
    let cfg = MicroConfig {
        objects: 500,
        ops: 200,
        object_size: 1024,
        seed,
        ..Default::default()
    };
    let h = sim.handle();
    let r = sim.block_on(async move { run_micro(client.as_ref(), &h, &cfg).await });
    let jsonl = journal::to_jsonl(&cluster.journal_records());
    (
        jsonl,
        (
            r.elapsed.as_nanos(),
            r.latency.p99_ns,
            sim.events_processed(),
        ),
    )
}

/// The entire stack is deterministic: identical seeds give identical
/// simulated time, identical tail latencies, and identical event counts.
#[test]
fn whole_stack_determinism() {
    for kind in [SystemKind::WFlush, SystemKind::Darpc, SystemKind::ScaleRpc] {
        let a = full_run(11, kind);
        let b = full_run(11, kind);
        assert_eq!(a, b, "{kind:?} not deterministic");
        let c = full_run(12, kind);
        assert_ne!(a.0, c.0, "{kind:?} seed-insensitive (suspicious)");
    }
}

/// The journal export is deterministic and non-perturbing: same seed
/// gives a byte-identical JSONL dump (one durable RPC, one baseline),
/// and enabling the journal leaves the simulated schedule untouched —
/// identical elapsed time, tail latency, and event count as the
/// journal-free run.
#[test]
fn journal_export_is_deterministic() {
    for kind in [SystemKind::WFlush, SystemKind::Darpc] {
        let (a, fp_a) = journaled_run(11, kind);
        let (b, fp_b) = journaled_run(11, kind);
        assert!(!a.is_empty(), "{kind:?}: empty journal export");
        assert_eq!(a, b, "{kind:?}: journal export not byte-identical");
        assert_eq!(fp_a, fp_b, "{kind:?}: run fingerprint not stable");
        assert_eq!(
            fp_a,
            full_run(11, kind),
            "{kind:?}: journaling perturbed the schedule"
        );
        let (c, _) = journaled_run(12, kind);
        assert_ne!(a, c, "{kind:?}: journal seed-insensitive (suspicious)");
    }
}

/// Any mix of put/get sizes round-trips correct lengths and contents
/// through a durable RPC connection.
#[test]
fn durable_rpc_handles_arbitrary_op_sequences() {
    for case in 0..24u64 {
        let mut rng = SmallRng::seed_from_u64(0x0525_0000 + case);
        let seed = rng.gen_range(0u64..1000);
        let n = rng.gen_range(1usize..20);
        let ops: Vec<(u64, u64, bool)> = (0..n)
            .map(|_| {
                (
                    rng.gen_range(0u64..64),
                    rng.gen_range(1u64..2048),
                    rng.gen::<bool>(),
                )
            })
            .collect();

        let mut sim = Sim::new(seed);
        let cluster = Cluster::new(sim.handle(), ClusterConfig::with_nodes(2));
        let cfg = DurableConfig {
            kind: DurableKind::WFlush,
            slot_payload: 2048,
            object_slot: 2048,
            store_capacity: 1 << 20,
            ..Default::default()
        };
        let (client, server) = build_durable(&cluster, 1, 0, 0, cfg);
        server.start();
        sim.block_on(async move {
            let mut last_write: std::collections::HashMap<u64, u8> = Default::default();
            for (obj, len, is_put) in ops {
                if is_put {
                    let fill = (obj % 251) as u8 + 1;
                    client
                        .call(Request::Put {
                            obj,
                            data: Payload::from_bytes(vec![fill; len as usize]),
                        })
                        .await
                        .unwrap();
                    last_write.insert(obj, fill);
                } else {
                    let r = client.call(Request::Get { obj, len }).await.unwrap();
                    assert_eq!(
                        r.payload.unwrap().len(),
                        len,
                        "case {case}: wrong get length"
                    );
                }
            }
        });
    }
}

/// Crashing after N acknowledged puts never loses or tears any of them:
/// recovery returns exactly the unprocessed suffix, intact.
#[test]
fn crash_never_loses_acked_puts() {
    for case in 0..24u64 {
        let mut rng = SmallRng::seed_from_u64(0xC8A5_4000 + case);
        let seed = rng.gen_range(0u64..500);
        let n = rng.gen_range(1usize..12);

        let mut sim = Sim::new(seed);
        let cluster = Cluster::new(sim.handle(), ClusterConfig::with_nodes(2));
        let cfg = DurableConfig {
            kind: DurableKind::WFlush,
            profile: ServerProfile::heavy(),
            slot_payload: 512,
            object_slot: 512,
            store_capacity: 1 << 20,
            log_slots: 32,
            head_persist_interval: 1,
            ..Default::default()
        };
        let (client, server) = build_durable(&cluster, 1, 0, 0, cfg);
        server.start();
        let node = cluster.node(0).clone();
        let log = server.log().clone();
        let store = server.store().clone();
        sim.block_on(async move {
            for i in 0..n as u64 {
                client
                    .call(Request::Put {
                        obj: i,
                        data: Payload::from_bytes(vec![(i % 255) as u8 + 1; 64]),
                    })
                    .await
                    .unwrap();
            }
            node.crash();
            node.restart();
        });
        let pending = log.recover();
        // Every put is either applied in the store or recoverable.
        let mut accounted = vec![false; n];
        for e in &pending {
            let i = e.op.obj_id as usize;
            assert!(i < n, "case {case}: phantom entry {i}");
            assert_eq!(
                &e.payload,
                &vec![(i as u64 % 255) as u8 + 1; 64],
                "case {case}: torn recovered payload"
            );
            accounted[i] = true;
        }
        for (i, done) in accounted.iter().enumerate() {
            if !done {
                // Must have been applied before the crash.
                let got = store.persistent_bytes(i as u64, 64);
                assert_eq!(
                    got,
                    vec![(i as u64 % 255) as u8 + 1; 64],
                    "case {case}: put {i} neither recovered nor applied"
                );
            }
        }
    }
}

/// Payload composites preserve total length and inline placement.
#[test]
fn payload_composite_invariants() {
    for case in 0..24u64 {
        let mut rng = SmallRng::seed_from_u64(0xC03_0051 + case);
        let k = rng.gen_range(1usize..8);
        let parts: Vec<Payload> = (0..k)
            .map(|_| {
                if rng.gen::<bool>() {
                    Payload::synthetic(rng.gen_range(1u64..512), 0)
                } else {
                    let len = rng.gen_range(1usize..128);
                    Payload::from_bytes((0..len).map(|_| rng.gen_range(0u32..=255) as u8).collect())
                }
            })
            .collect();

        let total: u64 = parts.iter().map(Payload::len).sum();
        let composite = Payload::composite(parts.clone());
        assert_eq!(composite.len(), total, "case {case}");
        // Inline parts are placed at their running offsets and never
        // overlap or exceed the total.
        let inline = composite.inline_parts();
        let mut last_end = 0u64;
        for (off, bytes) in inline {
            assert!(off >= last_end, "case {case}: overlapping inline parts");
            last_end = off + bytes.len() as u64;
            assert!(last_end <= total, "case {case}: inline part past end");
        }
    }
}

/// FNV-1a 64-bit, matching `examples/fingerprint.rs`.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Pinned whole-stack fingerprints: event counts, virtual elapsed time,
/// and journal bytes for representative journaled runs, captured before
/// the executor hot-path rewrite (timer slab + unsynchronized ready
/// queue). Any schedule-visible regression in the executor, network,
/// or protocol layers trips this test.
///
/// Regenerate the constants with `cargo run --release --example
/// fingerprint` *only* when a deliberate, understood semantic change
/// lands (note it in DESIGN.md). One such change is already folded in:
/// the rewrite fixed cancelled `Sleep`s leaving stale wakers behind, so
/// runs long enough to hit `timeout()` re-arms see slightly fewer
/// events than the pre-rewrite executor; the constants below are the
/// post-fix values, byte-identical journals included.
///
/// Second folded-in change (observability PR): the always-on metrics
/// registry adds a handful of snapshot-ticker wakeups to
/// `events_processed` on metrics-instrumented systems, and per-node
/// rpc-id slices (`journal::NODE_RPC_SPAN`) shift client-allocated
/// rpc ids, changing journal bytes. Virtual elapsed time is unchanged
/// for all four systems — metrics consume zero simulated time.
#[test]
fn pinned_whole_stack_fingerprints() {
    // (kind, events_processed, elapsed_ns, journal_len, journal_fnv)
    let pinned: [(SystemKind, u64, u64, usize, u64); 4] = [
        (
            SystemKind::WFlush,
            8866,
            1184203,
            571894,
            0x54c7f211e4d11575,
        ),
        (
            SystemKind::SRFlush,
            9630,
            1293452,
            631704,
            0xb8b840aeb270c4b1,
        ),
        (SystemKind::Farm, 7064, 1154355, 511207, 0xfd75b30a64fbf97c),
        (SystemKind::Darpc, 9164, 2528207, 634468, 0x622a32a960cda0a4),
    ];
    for (kind, events, elapsed_ns, len, fnv) in pinned {
        let seed = 20211114;
        let mut sim = Sim::new(seed);
        let mut ccfg = ClusterConfig::with_nodes(2);
        ccfg.journal = true;
        let cluster = Cluster::new(sim.handle(), ccfg);
        let opts = SystemOpts::for_object_size(1024, ServerProfile::light());
        let client = build_system(&cluster, kind, 1, 0, 0, &opts);
        let cfg = MicroConfig {
            objects: 500,
            ops: 300,
            object_size: 1024,
            seed,
            ..Default::default()
        };
        let h = sim.handle();
        let r = sim.block_on(async move { run_micro(client.as_ref(), &h, &cfg).await });
        let jsonl = journal::to_jsonl(&cluster.journal_records());
        assert_eq!(
            sim.events_processed(),
            events,
            "{kind:?}: events_processed drifted from pinned fingerprint"
        );
        assert_eq!(
            r.elapsed.as_nanos(),
            elapsed_ns,
            "{kind:?}: virtual elapsed time drifted from pinned fingerprint"
        );
        assert_eq!(jsonl.len(), len, "{kind:?}: journal export length drifted");
        assert_eq!(
            fnv1a(jsonl.as_bytes()),
            fnv,
            "{kind:?}: journal export bytes drifted (FNV-1a mismatch)"
        );
    }
}

/// One step of [`persist_path_run`]: the op it issues.
const PERSIST_STEPS: [&str; 7] = [
    "put",
    "put_tagged",
    "append_record",
    "batch_1",
    "batch_4",
    "get",
    "scan",
];

/// A step's fingerprint: `(events_processed, elapsed_ns, journal_len,
/// journal_fnv)`.
type StepPin = (u64, u64, usize, u64);

/// One journaled run per durable kind over every client path that logs
/// an entry (put, tagged put, record append, batched puts) plus the two
/// read paths. Each step runs to completion, then idles 200 µs so its
/// server-side processing lands inside its own window. Returns, per step,
/// `(events_processed, elapsed_ns, journal_len, journal_fnv)`: events
/// over the step and its idle tail, virtual time until the op resolved,
/// and the JSONL export of the records stamped inside the step's window.
fn persist_path_run(kind: DurableKind) -> Vec<StepPin> {
    use prdma_suite::core::OpCode;
    use prdma_suite::simnet::SimDuration;
    use std::rc::Rc;

    let mut sim = Sim::new(20211114);
    let mut ccfg = ClusterConfig::with_nodes(2);
    ccfg.journal = true;
    let cluster = Cluster::new(sim.handle(), ccfg);
    let cfg = DurableConfig {
        kind,
        profile: ServerProfile::light(),
        slot_payload: 4096,
        object_slot: 4096,
        store_capacity: 1 << 20,
        log_slots: 64,
        ..Default::default()
    };
    let (client, server) = build_durable(&cluster, 1, 0, 0, cfg);
    server.start();
    let client = Rc::new(client);
    let h = sim.handle();
    let put = |obj: u64| Request::Put {
        obj,
        data: Payload::synthetic(1024, obj),
    };
    let mut windows = Vec::new();
    let mut out = Vec::new();
    for step in PERSIST_STEPS {
        let (c, h2) = (Rc::clone(&client), h.clone());
        let start = h.now();
        let events = sim.events_processed();
        let done = sim.block_on(async move {
            match step {
                "put" => {
                    c.call(put(1)).await.unwrap();
                }
                "put_tagged" => {
                    c.put_tagged(2, Payload::synthetic(1024, 2), 1 << 60 | 7)
                        .await
                        .unwrap();
                }
                "append_record" => {
                    c.append_record(
                        OpCode::TxnCommit,
                        1 << 59 | 1,
                        Payload::from_bytes(vec![1; 16]),
                    )
                    .await
                    .unwrap();
                }
                "batch_1" => {
                    c.call_batch(vec![put(3)]).await.unwrap();
                }
                "batch_4" => {
                    c.call_batch((4..8).map(put).collect()).await.unwrap();
                }
                "get" => {
                    c.call(Request::Get { obj: 1, len: 1024 }).await.unwrap();
                }
                "scan" => {
                    c.call(Request::Scan {
                        start: 4,
                        count: 4,
                        len: 1024,
                    })
                    .await
                    .unwrap();
                }
                _ => unreachable!(),
            }
            let done = h2.now();
            h2.sleep(SimDuration::from_micros(200)).await;
            done
        });
        windows.push((start.as_nanos(), h.now().as_nanos()));
        out.push((
            sim.events_processed() - events,
            (done - start).as_nanos(),
            0,
            0,
        ));
    }
    let records = cluster.journal_records();
    for (row, (from, to)) in out.iter_mut().zip(windows) {
        let slice: Vec<_> = records
            .iter()
            .filter(|r| (from..to).contains(&r.ts_ns))
            .cloned()
            .collect();
        let jsonl = journal::to_jsonl(&slice);
        row.2 = jsonl.len();
        row.3 = fnv1a(jsonl.as_bytes());
    }
    out
}

/// Pinned persist paths: every durable kind's put, tagged put, record
/// append, 1- and 4-put batches, get and scan, fingerprinted per step
/// (see [`persist_path_run`]). Refactors of the durable client's persist
/// step must keep these byte-identical.
///
/// One folded-in change: write-transport batches used to journal their
/// `RpcDispatch` / `RpcComplete` records with 0 bytes; the unified
/// persist step journals every entry's length, as single puts always
/// did. Only the journal length and hash of the write kinds' `batch_1`
/// and `batch_4` rows moved (3 more digits per record); events and
/// virtual time did not.
#[test]
fn pinned_persist_path_fingerprints() {
    // Per kind, one StepPin per PERSIST_STEPS entry.
    let pinned: [(DurableKind, [StepPin; 7]); 4] = [
        (
            DurableKind::SRFlush,
            [
                (39, 4770, 2157, 0x6a00ebcfebe476af),
                (34, 4774, 2323, 0x9c4aa2ec2b384d7e),
                (33, 4422, 2094, 0x3c11025b1cbe4385),
                (34, 4774, 2208, 0xb45ae63f6dee32e7),
                (128, 10270, 8832, 0xd638bcbe3e3b6a9d),
                (32, 3766, 1860, 0xf68a7274baafc631),
                (35, 4992, 1860, 0x3feb0f690e7eda94),
            ],
        ),
        (
            DurableKind::SFlush,
            [
                (37, 11247, 2165, 0x298b20e84c5fa739),
                (32, 11249, 2328, 0x1571032faa600f48),
                (31, 11046, 2099, 0x40f558b83f53093f),
                (32, 11249, 2213, 0x671ec3b6c73ac0f4),
                (91, 16745, 6722, 0xd5906ec5ffe0efa0),
                (32, 3766, 1860, 0x669db43301a634bd),
                (35, 4992, 1860, 0x510479ddb8a367ea),
            ],
        ),
        (
            DurableKind::WRFlush,
            [
                (38, 3640, 1961, 0xb26dc1c989c4cc0a),
                (34, 3644, 2123, 0x61ee599e987d2596),
                (33, 3292, 1894, 0x2757cb515d904596),
                (34, 3644, 2008, 0x61df27afdc431bb1),
                (108, 11668, 7447, 0x84cf501b3a31ac0d),
                (30, 3686, 1658, 0x9536b97e2cb3efba),
                (33, 4912, 1658, 0x4c9d3192888cd332),
            ],
        ),
        (
            DurableKind::WFlush,
            [
                (35, 4167, 1966, 0x1accdf7295409adc),
                (31, 4169, 2128, 0xfc938ba01923b0ec),
                (30, 3966, 1899, 0x0aebbaba58350067),
                (31, 4169, 2013, 0xf745e36babd7e701),
                (72, 7433, 5337, 0x6467acd998053149),
                (30, 3686, 1658, 0x63308e0cd1d0869f),
                (33, 4912, 1658, 0xaf17b83a2d07246f),
            ],
        ),
    ];
    for (kind, steps) in pinned {
        let run = persist_path_run(kind);
        for ((want, got), step) in steps.iter().zip(&run).zip(PERSIST_STEPS) {
            assert_eq!(
                want, got,
                "{kind:?} {step}: persist-path fingerprint drifted \
                 (events, elapsed_ns, journal_len, journal_fnv); whole run: {run:?}"
            );
        }
    }
}

/// Per-phase tracer totals of one untraced run: `(phase, on-path ns,
/// off-path ns, span count)`.
type PhasePin = (&'static str, u64, u64, u64);

/// What [`pinned_trace_totals`] pins for one system: events processed,
/// the seven phases' totals, and the cluster's recv-WQE-fetch and
/// CQE-write counts.
type TracePin = (u64, [PhasePin; 7], (u64, u64));

/// The [`pinned_whole_stack_fingerprints`] run with the journal off,
/// read back through the tracer instead of the journal.
fn trace_totals_run(kind: SystemKind) -> TracePin {
    use prdma_suite::simnet::trace::Phase;
    let seed = 20211114;
    let mut sim = Sim::new(seed);
    let cluster = Cluster::new(sim.handle(), ClusterConfig::with_nodes(2));
    let opts = SystemOpts::for_object_size(1024, ServerProfile::light());
    let client = build_system(&cluster, kind, 1, 0, 0, &opts);
    let cfg = MicroConfig {
        objects: 500,
        ops: 300,
        object_size: 1024,
        seed,
        ..Default::default()
    };
    let h = sim.handle();
    sim.block_on(async move { run_micro(client.as_ref(), &h, &cfg).await });
    let report = cluster.trace_report();
    let phases = Phase::ALL.map(|p| {
        (
            p.name(),
            report.total(p).as_nanos(),
            report.offpath_total(p).as_nanos(),
            report.summary(p).count,
        )
    });
    let nic_counts = (0..cluster.len())
        .map(|i| cluster.node(i).rnic())
        .fold((0, 0), |(w, c), n| {
            (w + n.recv_wqe_fetches(), c + n.cqe_dma_writes())
        });
    (sim.events_processed(), phases, nic_counts)
}

/// Pinned tracer output: the latency-breakdown totals behind Fig. 20
/// (on- and off-path nanoseconds and span counts for all seven phases)
/// plus the two per-NIC counts the breakdown tests read, for the four
/// systems of [`pinned_whole_stack_fingerprints`] with the journal off.
/// Any change to where or when a span opens or closes trips this test.
#[test]
fn pinned_trace_totals() {
    let pinned: [(SystemKind, TracePin); 4] = [
        (
            SystemKind::WFlush,
            (
                8866,
                [
                    ("sender_sw", 46110, 0, 600),
                    ("wire", 945045, 0, 3000),
                    ("nic_dma", 287013, 0, 600),
                    ("pm_media", 119065, 112335, 463),
                    ("receiver_sw", 23290, 65200, 274),
                    ("log_persist", 679221, 49580, 163),
                    ("flush_wait", 393971, 0, 163),
                ],
                (0, 0),
            ),
        ),
        (
            SystemKind::SRFlush,
            (
                9630,
                [
                    ("sender_sw", 75000, 0, 600),
                    ("wire", 943578, 0, 3000),
                    ("nic_dma", 545126, 0, 1200),
                    ("pm_media", 91355, 112335, 300),
                    ("receiver_sw", 51000, 48900, 600),
                    ("log_persist", 777510, 49580, 163),
                    ("flush_wait", 462920, 0, 163),
                ],
                (300, 300),
            ),
        ),
        (
            SystemKind::Farm,
            (
                7064,
                [
                    ("sender_sw", 51000, 0, 600),
                    ("wire", 945026, 0, 3000),
                    ("nic_dma", 230563, 0, 600),
                    ("pm_media", 90703, 0, 300),
                    ("receiver_sw", 67626, 0, 763),
                    ("log_persist", 0, 0, 0),
                    ("flush_wait", 0, 0, 0),
                ],
                (0, 0),
            ),
        ),
        (
            SystemKind::Darpc,
            (
                9164,
                [
                    ("sender_sw", 512689, 0, 900),
                    ("wire", 945026, 0, 3000),
                    ("nic_dma", 860563, 0, 1800),
                    ("pm_media", 90703, 0, 300),
                    ("receiver_sw", 511626, 0, 763),
                    ("log_persist", 0, 0, 0),
                    ("flush_wait", 0, 0, 0),
                ],
                (600, 600),
            ),
        ),
    ];
    for (kind, want) in pinned {
        assert_eq!(
            trace_totals_run(kind),
            want,
            "{kind:?}: tracer totals drifted (events, per-phase totals, nic counts)"
        );
    }
}

/// The sharded topologies [`pinned_fleet_fingerprints`] pins.
#[derive(Debug, Clone, Copy)]
enum Fleet {
    Sharded,
    ShardedCachedMirror,
    Replicated,
    ReplicatedCached,
    Txn,
}

/// A fleet's fingerprint: `(events_processed, end_ns, journal_len,
/// journal_fnv, replayed)`.
type FleetPin = (u64, u64, usize, u64, usize);

/// One journaled run of `fleet` on two shards (server nodes 0 and 1) and
/// two client nodes, with a `NodeCrash` of server node 0 landing
/// mid-stream and recovery wired into the fault injector. Every put and
/// get must succeed (transactions may abort); the auditor must pass.
/// `replayed` is the
/// fleet handle's replay count, or for transactions the node-0
/// `log_replayed` counter.
fn fleet_run(fleet: Fleet) -> FleetPin {
    use prdma_suite::core::txn::build_sharded_txn;
    use prdma_suite::core::{
        build_replicated_sharded, build_replicated_sharded_cached, build_sharded_durable,
        build_sharded_durable_cached, CacheConfig, RetryPolicy, ShardMap, ShardedClient,
    };
    use prdma_suite::simnet::fault::{FaultKind, FaultPlan};
    use prdma_suite::simnet::metrics::Key;
    use prdma_suite::simnet::{SimDuration, SimTime};

    const OPS: u64 = 12;
    let mut sim = Sim::new(20211114 ^ fleet as u64);
    let mut ccfg = ClusterConfig::with_servers(2, 2);
    ccfg.journal = true;
    let cluster = Cluster::new(sim.handle(), ccfg);
    let cfg = DurableConfig {
        profile: ServerProfile::heavy(),
        slot_payload: 1024,
        object_slot: 1024,
        store_capacity: 1 << 20,
        log_slots: 64,
        retry: RetryPolicy {
            request_timeout: SimDuration::from_micros(300),
            max_retries: 200,
            backoff: SimDuration::from_micros(100),
            backoff_cap: SimDuration::from_micros(100),
            jitter_pct: 0,
        },
        ..DurableConfig::for_kind(DurableKind::WFlush)
    };
    let map = ShardMap::new(2);
    let clients = [2, 3];
    let cache = CacheConfig {
        hot_threshold: 1,
        mirror_threshold: 2,
        mirror: true,
        mirror_slots: 16,
        mirror_value_bytes: 1024,
        ..Default::default()
    };
    let plan = FaultPlan::new().at(
        SimTime::from_nanos(40_000),
        0,
        FaultKind::NodeCrash {
            down_for: SimDuration::from_micros(500),
        },
    );
    let inj = cluster.inject_faults(plan);
    let h = sim.handle();

    // Client `c` puts objects `c, c + 2, ...` (both shards), then reads
    // each back twice, pacing 20 µs between ops.
    let drive = |routers: Vec<ShardedClient>| {
        let h = h.clone();
        async move {
            let mut joins = Vec::new();
            for (c, router) in routers.into_iter().enumerate() {
                let h2 = h.clone();
                joins.push(h.spawn(async move {
                    for i in 0..OPS {
                        let obj = c as u64 + 2 * i;
                        let data = Payload::synthetic(256, obj);
                        let r = router.call(Request::Put { obj, data }).await;
                        assert!(r.expect("put rides out the crash").durable);
                        h2.sleep(SimDuration::from_micros(20)).await;
                    }
                    for i in 0..2 * OPS {
                        let obj = c as u64 + 2 * (i % OPS);
                        router
                            .call(Request::Get { obj, len: 256 })
                            .await
                            .expect("get rides out the crash");
                        h2.sleep(SimDuration::from_micros(20)).await;
                    }
                }));
            }
            for j in joins {
                j.await;
            }
            h.sleep(SimDuration::from_millis(5)).await;
        }
    };

    let replayed = match fleet {
        Fleet::Sharded
        | Fleet::ShardedCachedMirror
        | Fleet::Replicated
        | Fleet::ReplicatedCached => {
            let mut svc = match fleet {
                Fleet::Sharded => build_sharded_durable(&cluster, map, &clients, &cfg),
                Fleet::ShardedCachedMirror => {
                    build_sharded_durable_cached(&cluster, map, &clients, &cfg, &cache).0
                }
                Fleet::Replicated => build_replicated_sharded(&cluster, map, &clients, 2, &cfg),
                _ => build_replicated_sharded_cached(&cluster, map, &clients, 2, &cfg, &cache).0,
            };
            svc.wire_failover(&inj);
            sim.block_on(drive(std::mem::take(&mut svc.clients)));
            svc.replayed()
        }
        Fleet::Txn => {
            let mut svc = build_sharded_txn(&cluster, map, &clients, &cfg);
            svc.wire_recovery(&inj);
            let txns: Vec<_> = std::mem::take(&mut svc.clients);
            sim.block_on({
                let h = h.clone();
                async move {
                    let mut joins = Vec::new();
                    for (c, client) in txns.into_iter().enumerate() {
                        let h2 = h.clone();
                        joins.push(h.spawn(async move {
                            for i in 0..OPS {
                                let mut t = client.begin();
                                let obj = 4 * i + 2 * c as u64;
                                t.put(obj, &Payload::synthetic(64, obj));
                                t.put(obj + 1, &Payload::synthetic(64, obj + 1));
                                let _ = client.commit(t).await;
                                h2.sleep(SimDuration::from_micros(20)).await;
                            }
                        }));
                    }
                    for j in joins {
                        j.await;
                    }
                    h.sleep(SimDuration::from_millis(5)).await;
                }
            });
            let m = cluster.node(0).metrics().expect("metrics are on");
            m.counter(Key::new("log_replayed")) as usize
        }
    };
    assert_eq!(inj.stats().node_crashes, 1, "{fleet:?}");
    cluster.audit_journal().assert_ok();
    let jsonl = journal::to_jsonl(&cluster.journal_records());
    (
        sim.events_processed(),
        sim.now().as_nanos(),
        jsonl.len(),
        fnv1a(jsonl.as_bytes()),
        replayed,
    )
}

/// Pinned sharded fleets: every sharded topology (plain, cached with the
/// mirror tier, replicated, replicated and cached, transactional) under
/// one mid-stream `NodeCrash` of server node 0, fingerprinted by events,
/// end virtual time, journal bytes and the replayed count (see
/// [`fleet_run`]). Refactors of the fleet builders and their recovery
/// wiring must keep these byte-identical.
#[test]
fn pinned_fleet_fingerprints() {
    let pinned: [(Fleet, FleetPin); 5] = [
        (
            Fleet::Sharded,
            (2232, 8752686, 130790, 0xd97eaa5281495977, 2),
        ),
        (
            Fleet::ShardedCachedMirror,
            (1557, 7511802, 99127, 0x0d664edba9116533, 2),
        ),
        (
            Fleet::Replicated,
            (3085, 8265541, 197859, 0x666efdd408b722f7, 4),
        ),
        (
            Fleet::ReplicatedCached,
            (2411, 7024657, 169089, 0x15926590a2172bbe, 4),
        ),
        (Fleet::Txn, (3822, 5835935, 272800, 0xd069050c1c512020, 12)),
    ];
    for (fleet, want) in pinned {
        assert_eq!(
            fleet_run(fleet),
            want,
            "{fleet:?}: fleet fingerprint drifted \
             (events, end_ns, journal_len, journal_fnv, replayed)"
        );
    }
}
