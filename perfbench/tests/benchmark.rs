//! The benchmark's own checks: simulated metrics repeat exactly for a
//! seed (across processes, and with the journal on), a
//! seed not used while the benchmark was built passes every output check,
//! and each staircase's knee lies strictly inside it.

use std::process::Command;

use perfbench::report::Metrics;
use perfbench::workloads::{Outcome, Workload};

/// A seed that played no part in choosing the workloads' sizes.
const FRESH_SEED: u64 = 90_210;

/// Run one workload in a child process of the benchmark binary.
fn child(w: Workload, seed: u64, traced: bool, scale: f64) -> Outcome {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", w.name(), "--seed", &seed.to_string()])
        .args(["--scale", &scale.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }, "--child", "1"])
        .output()
        .expect("start the benchmark binary");
    assert!(
        out.status.success(),
        "{} exited with {}",
        w.name(),
        out.status
    );
    Outcome::decode(&String::from_utf8_lossy(&out.stdout)).expect("decodable run")
}

fn sim(o: &Outcome) -> (Metrics, Metrics) {
    (o.e2e.clone(), o.layer.sim_only())
}

#[test]
fn one_seed_gives_identical_simulated_metrics() {
    for w in Workload::ALL {
        let a = child(w, 11, false, 0.1);
        let b = child(w, 11, false, 0.1);
        assert_eq!(sim(&a), sim(&b), "{}: across processes", w.name());
        assert!(a.violations.is_empty(), "{}: {:?}", w.name(), a.violations);
        let traced = child(w, 11, true, 0.1);
        assert_eq!(
            a.e2e,
            traced.e2e,
            "{}: the journal moved virtual time",
            w.name()
        );
        let other = child(w, 12, false, 0.1);
        assert_ne!(a.e2e, other.e2e, "{}: the seed must matter", w.name());
    }
}

#[test]
fn a_fresh_seed_passes_every_output_check() {
    for w in Workload::ALL {
        // Read-back and count checks at full length; the I1-I6 audit over
        // the traced run's length.
        for (traced, scale) in [(false, 1.0), (true, w.trace_scale())] {
            let o = child(w, FRESH_SEED, traced, scale);
            assert!(
                o.violations.is_empty(),
                "{} seed {FRESH_SEED} traced {traced}: {:?}",
                w.name(),
                o.violations
            );
            assert!(o.attempted > 0 && o.failed == 0, "{}", w.name());
        }
    }
}

#[test]
fn each_knee_lies_strictly_inside_its_staircase() {
    for w in [Workload::KvWrite, Workload::KvReadCached] {
        let o = child(w, 1, false, 1.0);
        let (first, last) = (o.steps.first().unwrap(), o.steps.last().unwrap());
        assert!(
            first.pass,
            "{}: the nominal step misses the limit",
            w.name()
        );
        assert!(!last.pass, "{}: the last step meets the limit", w.name());
        if w == Workload::KvReadCached {
            let hit = o.layer.get("core.cache.hit_ratio").expect("hit ratio");
            assert!(
                (hit - 0.5).abs() >= 0.1,
                "hit ratio {hit} puts the GET median between two modes"
            );
        }
    }
}

/// After failover, the restarted old primary must hold every acknowledged
/// put as well (it is a backup again, and the next failover would make it
/// the primary). On this tree seed 102 leaves shard 0's restarted node
/// without puts acknowledged while it was down; the benchmark reports
/// such copies in `recovery.stale_replica_keys`.
#[test]
#[ignore = "known defect: the rejoin catch-up misses puts acknowledged during the outage"]
fn failover_backups_hold_every_acknowledged_put() {
    let o = child(Workload::Failover, 102, false, 1.0);
    let stale = o.layer.get("recovery.stale_replica_keys").expect("metric");
    assert_eq!(stale, 0.0, "stale backup copies per fleet");
}
