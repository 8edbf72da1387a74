//! Native YCSB-compatible workload generators (paper Section 5.1,
//! Fig. 11): 50 K records, 8-byte keys, 4 KB values, 300 K operations,
//! zipfian 0.99 (workload D uses the latest distribution).

use prdma::{Request, RpcClient};
use prdma_rnic::Payload;
use prdma_simnet::{Histogram, SimDuration, SimHandle};

use crate::dist::{workload_rng, KeyDist};
use crate::micro::RunResult;

/// The six core YCSB workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum YcsbWorkload {
    /// 50% update / 50% read, zipfian.
    A,
    /// 5% update / 95% read, zipfian.
    B,
    /// 100% read, zipfian.
    C,
    /// 5% insert / 95% read-latest.
    D,
    /// 95% scan / 5% insert, zipfian start keys.
    E,
    /// 50% read / 50% read-modify-write, zipfian.
    F,
}

impl YcsbWorkload {
    /// All six, in order.
    pub const ALL: [YcsbWorkload; 6] = [
        YcsbWorkload::A,
        YcsbWorkload::B,
        YcsbWorkload::C,
        YcsbWorkload::D,
        YcsbWorkload::E,
        YcsbWorkload::F,
    ];
}

/// YCSB driver parameters (defaults follow the paper).
#[derive(Debug, Clone)]
pub struct YcsbConfig {
    /// Records pre-loaded in the KV store.
    pub records: u64,
    /// Operations to run.
    pub ops: u64,
    /// Value size in bytes (keys are 8 B, maintained client-side).
    pub value_size: u64,
    /// Which workload mix.
    pub workload: YcsbWorkload,
    /// Max scan length for workload E (uniform 1..=max).
    pub max_scan: u32,
    /// Workload RNG seed.
    pub seed: u64,
}

impl Default for YcsbConfig {
    fn default() -> Self {
        YcsbConfig {
            records: 50_000,
            ops: 300_000,
            value_size: 4 * 1024,
            workload: YcsbWorkload::A,
            max_scan: 100,
            seed: 7,
        }
    }
}

impl YcsbConfig {
    /// Default config for one workload with a custom op count.
    pub fn workload(workload: YcsbWorkload, ops: u64) -> Self {
        YcsbConfig {
            workload,
            ops,
            ..Default::default()
        }
    }
}

/// Run a YCSB workload against `client` (the KV index lives client-side,
/// per the paper; the server stores values in PM).
pub async fn run_ycsb(client: &dyn RpcClient, h: &SimHandle, cfg: &YcsbConfig) -> RunResult {
    let mut rng = workload_rng(cfg.seed);
    let dist = match cfg.workload {
        YcsbWorkload::D => KeyDist::latest(cfg.records),
        _ => KeyDist::zipfian(cfg.records),
    };
    let mut hist = Histogram::new();
    let mut done = 0u64;
    let t0 = h.now();

    for i in 0..cfg.ops {
        let start = h.now();
        let ok = match cfg.workload {
            YcsbWorkload::A => {
                let obj = dist.sample(&mut rng);
                if rng.gen::<f64>() < 0.5 {
                    get(client, obj, cfg).await
                } else {
                    put(client, obj, cfg, i).await
                }
            }
            YcsbWorkload::B => {
                let obj = dist.sample(&mut rng);
                if rng.gen::<f64>() < 0.95 {
                    get(client, obj, cfg).await
                } else {
                    put(client, obj, cfg, i).await
                }
            }
            YcsbWorkload::C => {
                let obj = dist.sample(&mut rng);
                get(client, obj, cfg).await
            }
            YcsbWorkload::D => {
                if rng.gen::<f64>() < 0.95 {
                    let obj = dist.sample(&mut rng);
                    get(client, obj, cfg).await
                } else {
                    let obj = dist.on_insert();
                    put(client, obj, cfg, i).await
                }
            }
            YcsbWorkload::E => {
                if rng.gen::<f64>() < 0.95 {
                    let start_key = dist.sample(&mut rng);
                    let count = rng.gen_range(1..=cfg.max_scan);
                    client
                        .call(Request::Scan {
                            start: start_key,
                            count,
                            len: cfg.value_size,
                        })
                        .await
                        .is_ok()
                } else {
                    let obj = dist.on_insert();
                    put(client, obj, cfg, i).await
                }
            }
            YcsbWorkload::F => {
                let obj = dist.sample(&mut rng);
                if rng.gen::<f64>() < 0.5 {
                    get(client, obj, cfg).await
                } else {
                    // read-modify-write: a read followed by an update,
                    // measured as one composite op.
                    let r = get(client, obj, cfg).await;
                    r && put(client, obj, cfg, i).await
                }
            }
        };
        if ok {
            hist.record_duration(h.now() - start);
            done += 1;
        }
    }

    let elapsed = h.now() - t0;
    RunResult {
        ops: done,
        unsupported: cfg.ops - done,
        failed: 0,
        elapsed,
        latency: hist.summary(),
        kops: if elapsed > SimDuration::ZERO {
            done as f64 / elapsed.as_secs_f64() / 1e3
        } else {
            0.0
        },
    }
}

async fn get(client: &dyn RpcClient, obj: u64, cfg: &YcsbConfig) -> bool {
    client
        .call(Request::Get {
            obj,
            len: cfg.value_size,
        })
        .await
        .is_ok()
}

async fn put(client: &dyn RpcClient, obj: u64, cfg: &YcsbConfig, tag: u64) -> bool {
    client
        .call(Request::Put {
            obj,
            data: Payload::synthetic(cfg.value_size, tag),
        })
        .await
        .is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use prdma::ServerProfile;
    use prdma_baselines::{build_system, SystemKind, SystemOpts};
    use prdma_node::{Cluster, ClusterConfig};
    use prdma_simnet::Sim;

    fn run(workload: YcsbWorkload, kind: SystemKind) -> RunResult {
        let mut sim = Sim::new(21);
        let cluster = Cluster::new(sim.handle(), ClusterConfig::with_nodes(2));
        let opts = SystemOpts::for_object_size(4096, ServerProfile::light());
        let client = build_system(&cluster, kind, 1, 0, 0, &opts);
        let cfg = YcsbConfig {
            records: 200,
            ops: 120,
            value_size: 4096,
            workload,
            max_scan: 10,
            seed: 3,
        };
        let h = sim.handle();
        sim.block_on(async move { run_ycsb(client.as_ref(), &h, &cfg).await })
    }

    #[test]
    fn all_workloads_complete_on_wflush() {
        for w in YcsbWorkload::ALL {
            let r = run(w, SystemKind::WFlush);
            assert_eq!(r.ops, 120, "workload {w:?}");
            assert!(r.latency.mean_ns > 0.0);
        }
    }

    #[test]
    fn scans_cost_more_than_reads() {
        let r_scan = run(YcsbWorkload::E, SystemKind::Farm);
        let r_read = run(YcsbWorkload::C, SystemKind::Farm);
        assert!(
            r_scan.latency.mean_ns > r_read.latency.mean_ns * 1.5,
            "scan {} vs read {}",
            r_scan.latency.mean_ns,
            r_read.latency.mean_ns
        );
    }

    #[test]
    fn write_heavy_a_benefits_durable_rpcs_vs_farm() {
        let ours = run(YcsbWorkload::A, SystemKind::WFlush);
        let farm = run(YcsbWorkload::A, SystemKind::Farm);
        assert!(
            ours.latency.mean_ns < farm.latency.mean_ns,
            "WFlush {} !< FaRM {}",
            ours.latency.mean_ns,
            farm.latency.mean_ns
        );
    }
}
