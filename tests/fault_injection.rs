//! End-to-end fault injection (ISSUE PR 3): crash the server mid-RPC for
//! each of the four durable kinds and verify via the journal auditor
//! that recovery replays exactly the appended-but-incomplete log suffix
//! and that every flush-ACKed put survives; cross-validate the in-sim
//! Fig. 12 sweep against the analytic `run_faulty` model; and check
//! that seeded fault schedules are byte-for-byte deterministic.

use prdma_suite::core::{
    build_durable, DurableConfig, DurableKind, Request, RetryPolicy, RpcClient, ServerProfile,
};
use prdma_suite::node::{Cluster, ClusterConfig};
use prdma_suite::rnic::Payload;
use prdma_suite::simnet::fault::{FaultKind, FaultPlan};
use prdma_suite::simnet::{journal, Sim, SimDuration, SimTime};

const OBJ_SLOT: u64 = 1024;
const VAL: usize = 256;

/// Retry policy tuned for microsecond-scale outages: fire fast, retry
/// plenty, and back off briefly.
fn fast_retry() -> RetryPolicy {
    RetryPolicy {
        request_timeout: SimDuration::from_micros(300),
        max_retries: 200,
        // Flat schedule: these tests pin journal bytes per seed.
        backoff: SimDuration::from_micros(100),
        backoff_cap: SimDuration::from_micros(100),
        jitter_pct: 0,
    }
}

fn durable_cluster(
    sim: &Sim,
    kind: DurableKind,
) -> (
    Cluster,
    prdma_suite::core::DurableClient,
    prdma_suite::core::DurableServer,
) {
    let mut ccfg = ClusterConfig::with_nodes(2);
    ccfg.journal = true;
    let cluster = Cluster::new(sim.handle(), ccfg);
    let cfg = DurableConfig {
        // 100us server processing: the crash reliably lands while
        // entries are appended (and flush-ACKed) but not yet processed,
        // so recovery must replay a non-empty suffix.
        profile: ServerProfile::heavy(),
        slot_payload: OBJ_SLOT,
        object_slot: OBJ_SLOT,
        retry: fast_retry(),
        ..DurableConfig::for_kind(kind)
    };
    let (client, server) = build_durable(&cluster, 1, 0, 0, cfg);
    server.start();
    (cluster, client, server)
}

/// Crash the whole server node 30 us into a put stream — dropping NIC
/// SRAM, in-flight DMA, and the volatile done-flags, but not the PM log
/// — and check that every put the client saw ACKed is in persistent PM
/// afterwards and the journal auditor signs off on the replay.
#[test]
fn every_durable_kind_survives_a_mid_rpc_node_crash() {
    for kind in DurableKind::ALL {
        let mut sim = Sim::new(0xC0FE ^ kind as u64);
        let (cluster, client, server) = durable_cluster(&sim, kind);
        let plan = FaultPlan::new().at(
            SimTime::from_nanos(30_000),
            0,
            FaultKind::NodeCrash {
                down_for: SimDuration::from_micros(500),
            },
        );
        let inj = cluster.inject_faults(plan);
        inj.on_recovery(move |_, k| {
            server.recover(&k);
        });
        let pm = cluster.node(0).pm.clone();
        let h = sim.handle();
        sim.block_on(async move {
            for i in 0..10u64 {
                let data = Payload::from_bytes(vec![0xA0 + i as u8; VAL]);
                client
                    .call(Request::Put { obj: i, data })
                    .await
                    .unwrap_or_else(|e| panic!("{kind:?} put {i} lost to the crash: {e}"));
            }
            // Drain the decoupled processing (replays included).
            h.sleep(SimDuration::from_millis(5)).await;
            for i in 0..10u64 {
                let r = client
                    .call(Request::Get {
                        obj: i,
                        len: VAL as u64,
                    })
                    .await
                    .unwrap_or_else(|e| panic!("{kind:?} get {i} after recovery: {e}"));
                assert!(r.payload.is_some(), "{kind:?} get {i} returned nothing");
            }
        });
        assert_eq!(inj.stats().node_crashes, 1, "{kind:?}");
        // Every flush-ACKed put's bytes are in *persistent* PM.
        let region = cluster.node(0).alloc.lookup("objects").unwrap();
        for i in 0..10u64 {
            let got = pm.read_persistent_view(region.offset + i * OBJ_SLOT, VAL as u64);
            assert_eq!(got, vec![0xA0 + i as u8; VAL], "{kind:?} obj {i}");
        }
        // The auditor checks the replayed suffix is exactly the appended
        // entries at-or-after the persisted head (invariant I3).
        cluster.audit_journal().assert_ok();
    }
}

/// A service-only crash (process dies, NIC and PM stay up): the
/// one-sided log keeps absorbing appends, and the restarted service's
/// scan requeues whatever was logged but never marked done.
#[test]
fn service_crash_requeues_pending_entries() {
    let mut sim = Sim::new(0x5E21);
    let (cluster, client, server) = durable_cluster(&sim, DurableKind::WFlush);
    let plan = FaultPlan::new().at(
        SimTime::from_nanos(25_000),
        0,
        FaultKind::ServiceCrash {
            down_for: SimDuration::from_micros(400),
        },
    );
    let inj = cluster.inject_faults(plan);
    inj.on_recovery(move |_, k| {
        server.recover(&k);
    });
    let pm = cluster.node(0).pm.clone();
    let h = sim.handle();
    sim.block_on(async move {
        for i in 0..12u64 {
            let data = Payload::from_bytes(vec![0x30 + i as u8; VAL]);
            client
                .call(Request::Put { obj: i, data })
                .await
                .unwrap_or_else(|e| panic!("put {i}: {e}"));
        }
        h.sleep(SimDuration::from_millis(5)).await;
    });
    assert_eq!(inj.stats().service_crashes, 1);
    let region = cluster.node(0).alloc.lookup("objects").unwrap();
    for i in 0..12u64 {
        let got = pm.read_persistent_view(region.offset + i * OBJ_SLOT, VAL as u64);
        assert_eq!(got, vec![0x30 + i as u8; VAL], "obj {i}");
    }
    cluster.audit_journal().assert_ok();
}

/// The in-sim Fig. 12 measurement and the analytic Monte-Carlo model
/// must agree on the durable/traditional ratio within a stated
/// tolerance. Read mix has no log-absorption edge effects, so it gets
/// the tight bound; the write mix's absorption is an asymptotic
/// quantity, so a short run earns a looser one.
#[test]
fn in_sim_fig12_agrees_with_analytic_model() {
    let costs = prdma_bench::exp::measure_clean(150, 77);
    for (w, tol) in [(0.0, 0.20), (1.0, 0.35)] {
        let c = prdma_bench::exp::insim_cell(&costs, 0.99, w, 600, 77);
        assert_eq!(c.durable_failed, 0, "w={w}: durable ops lost");
        assert_eq!(c.traditional_failed, 0, "w={w}: traditional ops lost");
        assert!(
            c.durable_crashes > 0 && c.traditional_crashes > 0,
            "w={w}: no crashes applied ({}/{}) — the sweep measured nothing",
            c.durable_crashes,
            c.traditional_crashes
        );
        let delta = (c.in_sim_norm - c.analytic_norm).abs();
        assert!(
            delta <= tol,
            "w={w}: in-sim {:.3} vs analytic {:.3}, |delta| {delta:.3} > {tol}",
            c.in_sim_norm,
            c.analytic_norm
        );
    }
}

/// Same seed + same fault plan => byte-identical journal JSONL.
#[test]
fn seeded_fault_runs_are_byte_deterministic() {
    fn faulty_journal(seed: u64) -> String {
        let mut sim = Sim::new(seed);
        let (cluster, client, server) = durable_cluster(&sim, DurableKind::WFlush);
        let plan = FaultPlan::new()
            .at(
                SimTime::from_nanos(20_000),
                0,
                FaultKind::ServiceCrash {
                    down_for: SimDuration::from_micros(300),
                },
            )
            .at(
                SimTime::from_nanos(400_000),
                0,
                FaultKind::LossBurst {
                    rate: 0.3,
                    duration: SimDuration::from_micros(200),
                },
            )
            .at(
                SimTime::from_nanos(700_000),
                0,
                FaultKind::NodeCrash {
                    down_for: SimDuration::from_micros(400),
                },
            );
        let inj = cluster.inject_faults(plan);
        inj.on_recovery(move |_, k| {
            server.recover(&k);
        });
        let h = sim.handle();
        sim.block_on(async move {
            for i in 0..20u64 {
                let data = Payload::from_bytes(vec![i as u8; VAL]);
                client
                    .call(Request::Put { obj: i % 8, data })
                    .await
                    .unwrap_or_else(|e| panic!("put {i}: {e}"));
                h.sleep(SimDuration::from_micros(50)).await;
            }
            h.sleep(SimDuration::from_millis(2)).await;
        });
        cluster.audit_journal().assert_ok();
        journal::to_jsonl(&cluster.journal_records())
    }

    let a = faulty_journal(41);
    let b = faulty_journal(41);
    assert!(!a.is_empty());
    assert_eq!(a, b, "same seed + same plan must reproduce byte-for-byte");
    let c = faulty_journal(42);
    assert_ne!(a, c, "different seed should perturb the schedule");
}

/// Regression: a send in flight at the crash instant consumes a recv
/// WQE that can never complete (the NIC that would have written its CQE
/// lost power). Before the recovery-time recv-ring re-arm, the
/// pre-posted ring stayed offset by one forever after the restart —
/// every retried entry DMAed into the wrong log slot, was dropped as
/// invalid, and the connection wedged with endless timeouts. A tight
/// closed loop of large puts reliably straddles the crash for the
/// send-based kinds; every op must still complete, and the auditor must
/// sign off on the replayed suffix.
#[test]
fn crash_straddling_send_does_not_wedge_the_recv_ring() {
    for kind in [DurableKind::SFlush, DurableKind::SRFlush] {
        let mut sim = Sim::new(2021 ^ kind as u64);
        let mut ccfg = ClusterConfig::with_nodes(2);
        ccfg.journal = true;
        let cluster = Cluster::new(sim.handle(), ccfg);
        let cfg = DurableConfig {
            slot_payload: 4096,
            object_slot: 4096,
            retry: RetryPolicy {
                request_timeout: SimDuration::from_micros(200),
                max_retries: 300,
                backoff: SimDuration::from_micros(100),
                backoff_cap: SimDuration::from_micros(100),
                jitter_pct: 0,
            },
            ..DurableConfig::for_kind(kind)
        };
        let plan = FaultPlan::new().at(
            SimTime::from_nanos(50_000),
            0,
            FaultKind::NodeCrash {
                down_for: SimDuration::from_millis(3),
            },
        );
        let inj = cluster.inject_faults(plan);
        let (client, server) = build_durable(&cluster, 1, 0, 0, cfg);
        server.start();
        inj.on_recovery(move |_, k| {
            server.recover(&k);
        });
        let h = sim.handle();
        sim.block_on(async move {
            // No pacing: some op's delivery is mid-NIC when the crash
            // lands, and the ops after it must ride out the restart.
            for i in 0..12u64 {
                client
                    .call(Request::Put {
                        obj: i % 10,
                        data: Payload::synthetic(4096, i),
                    })
                    .await
                    .unwrap_or_else(|e| panic!("{kind:?} put {i} wedged after the crash: {e}"));
            }
            h.sleep(SimDuration::from_millis(2)).await;
        });
        assert_eq!(inj.stats().node_crashes, 1, "{kind:?}");
        cluster.audit_journal().assert_ok();
    }
}
