//! Per-shard crash independence (ISSUE 5): crash one shard's server node
//! mid-RPC, for each of the four durable kinds, and verify that the
//! surviving shard keeps completing operations during the outage, that
//! the crashed shard replays exactly its own incomplete log suffix
//! (journal auditor invariant I3 — and only that shard recovers), and
//! that journals stay byte-deterministic for the same seed + plan.

use std::rc::Rc;

use prdma_suite::core::{
    build_sharded_durable, DurableConfig, DurableKind, Request, RetryPolicy, RpcClient,
    ServerProfile, ShardMap, ShardedDurable,
};
use prdma_suite::node::{Cluster, ClusterConfig};
use prdma_suite::rnic::Payload;
use prdma_suite::simnet::fault::{FaultKind, FaultPlan};
use prdma_suite::simnet::{journal, Sim, SimDuration, SimTime};

const OBJ_SLOT: u64 = 1024;
const VAL: usize = 256;
const PUTS_PER_SHARD: u64 = 10;
const CRASH_AT_NS: u64 = 30_000;
const DOWN_FOR_NS: u64 = 500_000;

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

/// Two shards (server nodes 0 and 1), one client node (node 2), journal
/// on. Striped map: even global ids → shard 0, odd → shard 1, local id
/// = global / 2 on both.
fn sharded_cluster(sim: &Sim, kind: DurableKind) -> (Cluster, ShardedDurable) {
    let mut ccfg = ClusterConfig::with_servers(2, 1);
    ccfg.journal = true;
    let cluster = Cluster::new(sim.handle(), ccfg);
    let cfg = DurableConfig {
        // 100us decoupled processing: the crash reliably lands while
        // shard 0 has appended (and flush-ACKed) entries not yet
        // processed, so recovery must replay a non-empty suffix.
        profile: ServerProfile::heavy(),
        slot_payload: OBJ_SLOT,
        object_slot: OBJ_SLOT,
        retry: fast_retry(),
        ..DurableConfig::for_kind(kind)
    };
    let svc = build_sharded_durable(&cluster, ShardMap::new(2), &[2], &cfg);
    (cluster, svc)
}

/// Crash shard 0's server node mid-stream. The surviving shard must keep
/// completing puts *during* the outage; every put on both shards must
/// eventually succeed; recovery must replay a non-empty suffix on the
/// crashed shard only; and the auditor must sign off on the journal.
#[test]
fn one_shard_crash_leaves_the_other_serving() {
    for kind in DurableKind::ALL {
        let mut sim = Sim::new(0xD15C ^ kind as u64);
        let (cluster, mut svc) = sharded_cluster(&sim, kind);
        let plan = FaultPlan::new().at(
            SimTime::from_nanos(CRASH_AT_NS),
            0,
            FaultKind::NodeCrash {
                down_for: SimDuration::from_nanos(DOWN_FOR_NS),
            },
        );
        let inj = cluster.inject_faults(plan);
        // Per-shard recovery: replay shard 0's logs, nobody else's.
        svc.wire_failover(&inj);
        inj.on_recovery(move |node, _| {
            assert_eq!(node, 0, "{kind:?}: only shard 0 was scheduled to crash");
        });
        let client = Rc::new(std::mem::take(&mut svc.clients).remove(0));
        let h = sim.handle();
        let survivors_during_outage = sim.block_on({
            let client = Rc::clone(&client);
            let h = h.clone();
            async move {
                // Survivor stream: odd ids route to shard 1; paced so the
                // stream spans the outage window.
                let shard1_stream = h.spawn({
                    let client = Rc::clone(&client);
                    let h = h.clone();
                    async move {
                        let mut during_outage = 0u64;
                        for i in 0..PUTS_PER_SHARD {
                            let obj = 2 * i + 1;
                            let data = Payload::from_bytes(vec![0xB0 + i as u8; VAL]);
                            client
                                .call(Request::Put { obj, data })
                                .await
                                .unwrap_or_else(|e| panic!("{kind:?} survivor put {obj}: {e}"));
                            let now = h.now().as_nanos();
                            if (CRASH_AT_NS..CRASH_AT_NS + DOWN_FOR_NS).contains(&now) {
                                during_outage += 1;
                            }
                            h.sleep(SimDuration::from_micros(40)).await;
                        }
                        during_outage
                    }
                });
                // Victim stream: even ids route to shard 0; the crash
                // lands mid-stream and the retry policy rides it out.
                for i in 0..PUTS_PER_SHARD {
                    let obj = 2 * i;
                    let data = Payload::from_bytes(vec![0xA0 + i as u8; VAL]);
                    client
                        .call(Request::Put { obj, data })
                        .await
                        .unwrap_or_else(|e| panic!("{kind:?} put {obj} lost to the crash: {e}"));
                }
                let during = shard1_stream.await;
                // Drain decoupled processing, replays included.
                h.sleep(SimDuration::from_millis(5)).await;
                during
            }
        });
        assert_eq!(inj.stats().node_crashes, 1, "{kind:?}");
        assert!(
            survivors_during_outage > 0,
            "{kind:?}: shard 1 completed no puts while shard 0 was down"
        );
        assert!(
            svc.replayed() > 0,
            "{kind:?}: crash landed but recovery replayed nothing"
        );
        // Every flush-ACKed put's bytes are in the owning shard's
        // *persistent* PM, under the shard-local id.
        for shard in 0..2usize {
            let store = svc.servers[shard][0].store();
            let tag = if shard == 0 { 0xA0u8 } else { 0xB0 };
            for i in 0..PUTS_PER_SHARD {
                assert_eq!(
                    store.persistent_bytes(i, VAL as u64),
                    vec![tag + i as u8; VAL],
                    "{kind:?} shard {shard} local {i}"
                );
            }
        }
        // The auditor checks the replayed suffix is exactly the appended
        // entries at-or-after the persisted head — per shard.
        cluster.audit_journal().assert_ok();
    }
}

/// Same seed + same plan ⇒ byte-identical journal across the whole
/// multi-server topology; a different seed perturbs it.
#[test]
fn sharded_fault_runs_are_byte_deterministic() {
    fn sharded_journal(seed: u64) -> String {
        let mut sim = Sim::new(seed);
        let (cluster, svc) = sharded_cluster(&sim, DurableKind::WFlush);
        let plan = FaultPlan::new()
            .at(
                SimTime::from_nanos(CRASH_AT_NS),
                0,
                FaultKind::NodeCrash {
                    down_for: SimDuration::from_nanos(DOWN_FOR_NS),
                },
            )
            // A seeded loss burst on shard 1's server once traffic flows
            // again (the client is stalled on the crashed shard until
            // ~530us): the drop pattern depends on the sim seed, which is
            // what makes the different-seed journals diverge below.
            .at(
                SimTime::from_nanos(600_000),
                1,
                FaultKind::LossBurst {
                    rate: 0.3,
                    duration: SimDuration::from_micros(300),
                },
            );
        let inj = cluster.inject_faults(plan);
        svc.wire_failover(&inj);
        let client = svc.clients.into_iter().next().unwrap();
        let h = sim.handle();
        sim.block_on(async move {
            for i in 0..2 * PUTS_PER_SHARD {
                let data = Payload::from_bytes(vec![i as u8; VAL]);
                client
                    .call(Request::Put { obj: i, data })
                    .await
                    .unwrap_or_else(|e| panic!("put {i}: {e}"));
                h.sleep(SimDuration::from_micros(30)).await;
            }
            h.sleep(SimDuration::from_millis(5)).await;
        });
        cluster.audit_journal().assert_ok();
        journal::to_jsonl(&cluster.journal_records())
    }

    let a = sharded_journal(51);
    let b = sharded_journal(51);
    assert!(!a.is_empty());
    assert_eq!(a, b, "same seed + same plan must reproduce byte-for-byte");
    let c = sharded_journal(52);
    assert_ne!(a, c, "different seed should perturb the schedule");
}

/// A service-only crash on shard 0's server (NIC and PM stay up): its
/// logs keep absorbing appends while the service is away, and at restart
/// `wire_failover` requeues the un-done suffix without rewinding cursors.
/// Every put on both shards must succeed, land in the owning shard's
/// persistent PM, and pass the auditor.
#[test]
fn one_shard_service_crash_requeues_its_pending_entries() {
    for kind in DurableKind::ALL {
        let mut sim = Sim::new(0x5E7C ^ kind as u64);
        let (cluster, mut svc) = sharded_cluster(&sim, kind);
        let plan = FaultPlan::new().at(
            SimTime::from_nanos(CRASH_AT_NS),
            0,
            FaultKind::ServiceCrash {
                down_for: SimDuration::from_nanos(DOWN_FOR_NS),
            },
        );
        let inj = cluster.inject_faults(plan);
        svc.wire_failover(&inj);
        let client = std::mem::take(&mut svc.clients).remove(0);
        let h = sim.handle();
        sim.block_on(async move {
            for i in 0..2 * PUTS_PER_SHARD {
                let data = Payload::from_bytes(vec![0xC0 + i as u8; VAL]);
                client
                    .call(Request::Put { obj: i, data })
                    .await
                    .unwrap_or_else(|e| panic!("{kind:?} put {i}: {e}"));
                h.sleep(SimDuration::from_micros(20)).await;
            }
            // Drain decoupled processing, requeued entries included.
            h.sleep(SimDuration::from_millis(5)).await;
        });
        assert_eq!(inj.stats().service_crashes, 1, "{kind:?}");
        assert!(
            svc.replayed() > 0,
            "{kind:?}: service restart requeued nothing"
        );
        for global in 0..2 * PUTS_PER_SHARD {
            let (shard, local) = ((global % 2) as usize, global / 2);
            assert_eq!(
                svc.servers[shard][0]
                    .store()
                    .persistent_bytes(local, VAL as u64),
                vec![0xC0 + global as u8; VAL],
                "{kind:?} shard {shard} local {local}"
            );
        }
        cluster.audit_journal().assert_ok();
    }
}
