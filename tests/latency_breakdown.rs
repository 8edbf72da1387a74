//! Regression tests pinning the paper's Fig. 20 shape.
//!
//! Fig. 20 decomposes each RPC's latency into software (sender + receiver
//! CPU) and hardware (wire, NIC DMA, PM media) phases and makes two
//! comparative claims this suite locks in:
//!
//! 1. The durable RPCs keep the critical-path software share small (≤ 7%):
//!    durability comes from one-sided hardware persistence, not from
//!    receiver software on the critical path.
//! 2. DaRPC (two-sided, thread-dispatched) pays ≥ 1.5× FaRM's hardware
//!    round trip: recv-WQE fetches (a PCIe read round trip) and CQE
//!    delivery DMA sit on the two-sided hardware path, on top of its much
//!    larger software cost.

use prdma::ServerProfile;
use prdma_baselines::SystemKind;
use prdma_bench::runner::{ycsb_run, EnvResult, ExpEnv};
use prdma_simnet::trace::Phase;
use prdma_workloads::ycsb::{YcsbConfig, YcsbWorkload};

/// The YCSB-A micro setup Fig. 20 is measured on: 2 nodes, light server,
/// a small record set, values of `value_size` bytes.
fn ycsb_a(kind: SystemKind, value_size: u64) -> EnvResult {
    let env = ExpEnv::sized(value_size, ServerProfile::light());
    let cfg = YcsbConfig {
        records: 256,
        ops: 2_000,
        value_size,
        workload: YcsbWorkload::A,
        ..Default::default()
    };
    ycsb_run(kind, &env, cfg)
}

/// The RDMA-transmission segment of Fig. 20: wire time plus NIC/PCIe DMA
/// (WQE fetches, payload DMA, CQE delivery). CPU software and PM media
/// are drawn as their own segments.
fn hardware_rtt_us(r: &EnvResult) -> f64 {
    r.phase_us_per_op(Phase::Wire) + r.phase_us_per_op(Phase::NicDma)
}

#[test]
fn durable_rpc_software_share_stays_below_seven_percent() {
    for kind in [
        SystemKind::WFlush,
        SystemKind::SFlush,
        SystemKind::WRFlush,
        SystemKind::SRFlush,
    ] {
        // 4 KB values: the YCSB default object size.
        let r = ycsb_a(kind, 4096);
        let share = r.trace.software_share();
        assert!(
            share <= 0.07,
            "{kind:?}: software share {:.1}% exceeds Fig. 20's 7% bound",
            share * 100.0
        );
        // Sanity: the breakdown actually measured something.
        assert!(
            r.ops > 0 && hardware_rtt_us(&r) > 0.5,
            "{kind:?}: empty trace"
        );
    }
}

#[test]
fn darpc_hardware_rtt_is_at_least_1_5x_farm() {
    // 1 KB values: small messages, where the two-sided per-message
    // hardware overhead (WQE fetch + CQE DMA) dominates the payload time.
    let farm = ycsb_a(SystemKind::Farm, 1024);
    let darpc = ycsb_a(SystemKind::Darpc, 1024);
    let (f, d) = (hardware_rtt_us(&farm), hardware_rtt_us(&darpc));
    assert!(
        d >= 1.5 * f,
        "DaRPC hardware RTT {d:.2}us is not >= 1.5x FaRM's {f:.2}us"
    );
    // The extra RTT must come from the two-sided hardware path: recv-WQE
    // fetches and CQE delivery DMA that one-sided writes never pay.
    assert!(darpc.recv_wqe_fetches > 0);
    assert!(darpc.cqe_dma_writes > 0);
    assert_eq!(farm.recv_wqe_fetches, 0);
}
