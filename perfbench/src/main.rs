//! `perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload (or all four) from the seed and prints every metric
//! with its unit, time base and sample count or base. The last line is
//! one JSON object: with `--trace 0` the gated end-to-end metrics, with
//! `--trace 1` the per-layer metrics of an extra traced run. Exits
//! non-zero when an output check fails.
//!
//! Each run of the workload happens in a child process of its own (and
//! each of `failover`'s fleets in a grandchild), and runs repeat until
//! `--seconds` have passed (at least three times): the simulator does not
//! free a fleet when it is dropped, so fleets sharing a process would
//! grow its heap and slow each other down.

use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use perfbench::report::{median, render, result_json, Clock, Metrics};
use perfbench::workloads::{fleets, run, run_fleet, run_with, Fleet, Outcome, RunConfig, Workload};

/// Repeats of the untraced run, at least; more while `--seconds` lasts.
const MIN_REPEATS: usize = 3;

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    scale: f64,
    child: bool,
    fleet: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        scale: 1.0,
        child: false,
        fleet: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        let bit = |v: &str| match v {
            "0" => Ok(false),
            "1" => Ok(true),
            _ => Err(bad(&"expected 0 or 1")),
        };
        match flag.as_str() {
            "--workload" if value == "all" => args.workloads = Workload::ALL.to_vec(),
            "--workload" => {
                args.workloads = vec![Workload::parse(&value).ok_or(format!(
                    "unknown workload {value:?} (kv_write, kv_read_cached, txn, failover, all)"
                ))?]
            }
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = bit(&value)?,
            "--child" => args.child = bit(&value)?,
            "--fleet" => args.fleet = Some(value.parse().map_err(|e| bad(&e))?),
            "--scale" => {
                args.scale = value.parse().map_err(|e| bad(&e))?;
                if !(args.scale > 0.0 && args.scale <= 1.0) {
                    return Err(bad(&"expected a fraction in (0, 1]"));
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workloads.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// Run this binary on `w` in a child process and return its stdout.
fn child(w: Workload, cfg: &RunConfig, fleet: Option<usize>) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w.name()])
        .args(["--seed", &cfg.seed.to_string()])
        .args(["--scale", &cfg.scale.to_string()])
        .args(["--trace", if cfg.traced { "1" } else { "0" }])
        .args(["--child", "1"]);
    if let Some(t) = fleet {
        cmd.args(["--fleet", &t.to_string()]);
    }
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a run: {e}"))?;
    if !out.status.success() {
        return Err(format!("a run of {} exited with {}", w.name(), out.status));
    }
    Ok(String::from_utf8_lossy(&out.stdout).into_owned())
}

/// Run `w` once in a child process.
fn run_in_child(w: Workload, seed: u64, scale: f64, traced: bool) -> Result<Outcome, String> {
    let cfg = RunConfig {
        seed,
        traced,
        scale,
    };
    Outcome::decode(&child(w, &cfg, None)?)
}

/// The child side: one run of `w`, each fleet of a multi-fleet workload
/// in a grandchild; or, with `--fleet`, that one fleet.
fn child_main(args: &Args) -> Result<String, String> {
    let w = args.workloads[0];
    let cfg = RunConfig {
        seed: args.seed,
        traced: args.trace,
        scale: args.scale,
    };
    if let Some(t) = args.fleet {
        return Ok(run_fleet(w, &cfg, t).encode());
    }
    if fleets(w) == 1 {
        return Ok(run(w, &cfg).encode());
    }
    let mut ran = Vec::new();
    for t in 0..fleets(w) {
        ran.push(Fleet::decode(&child(w, &cfg, Some(t))?)?);
    }
    Ok(run_with(w, &cfg, &|t| ran[t].clone()).encode())
}

/// The end-to-end metrics `BENCHMARK.json` gates, in its order: the
/// simulated latencies of the workload's write and read operations and
/// its capacity, then set-up time and memory (medians over the repeats).
fn gated(w: Workload, reps: &[Outcome]) -> Metrics {
    let e2e = &reps[0].e2e;
    let (write, read) = match w {
        Workload::Txn => ("txn_commit", "txn_read"),
        _ => ("put", "get"),
    };
    let sim = |name: String| {
        e2e.get(&name)
            .unwrap_or_else(|| panic!("{name} not measured"))
    };
    let mut m = Metrics::default();
    for (class, op) in [("write", write), ("read", read)] {
        for stat in ["mean", "p999"] {
            let v = sim(format!("{op}_{stat}_us"));
            m.sim(
                format!("{class}_{stat}_us"),
                v,
                "us",
                format!("= {op}_{stat}_us"),
            );
        }
    }
    m.sim(
        "capacity_kops",
        sim("capacity_kops".into()),
        "kops",
        String::new(),
    );
    let n = reps.len();
    let med = |f: &dyn Fn(&Outcome) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    m.host(
        "setup_s",
        med(&|o| o.setup_ns as f64 / 1e9),
        "s",
        format!("median of {n} set-ups"),
    );
    m.host(
        "peak_rss_mb",
        med(&|o| o.peak_rss_mb),
        "MB",
        format!("median of {n} runs"),
    );
    m
}

/// Run `w` untraced until `seconds` have passed (at least
/// [`MIN_REPEATS`] times); every repeat must reproduce the first one's
/// simulated metrics exactly.
fn repeats(w: Workload, args: &Args) -> Result<(Vec<Outcome>, Vec<String>), String> {
    let start = Instant::now();
    let mut reps: Vec<Outcome> = Vec::new();
    let mut violations = Vec::new();
    while reps.len() < MIN_REPEATS || start.elapsed() < Duration::from_secs(args.seconds) {
        let o = run_in_child(w, args.seed, args.scale, false)?;
        violations.extend(o.violations.iter().cloned());
        if let Some(first) = reps.first() {
            if o.e2e != first.e2e || o.layer.sim_only() != first.layer.sim_only() {
                violations.push(format!(
                    "repeat {} of seed {} changed the simulated metrics",
                    reps.len(),
                    args.seed
                ));
            }
        }
        reps.push(o);
    }
    Ok((reps, violations))
}

/// Per-layer metrics: the full-length untraced repeats give the
/// simulated counts (from the first) and the host costs (medians); the
/// traced run adds the journal-derived metrics, and its cost against an
/// untraced run of the same length is the tracing overhead.
fn layers(reps: &[Outcome], traced: &Outcome, untraced_short: &Outcome) -> Metrics {
    let mut layer = reps[0].layer.clone();
    for m in layer.0.iter_mut().filter(|m| m.clock == Clock::Host) {
        let vals: Vec<f64> = reps.iter().filter_map(|o| o.layer.get(&m.name)).collect();
        m.value = median(&vals);
        m.note = format!("{}; median of {} runs", m.note, vals.len());
    }
    for m in &traced.layer.0 {
        if layer.get(&m.name).is_none() {
            layer.0.push(m.clone());
        }
    }
    let per_op: Vec<f64> = reps.iter().map(Outcome::host_ns_per_op).collect();
    layer.host(
        "host.ns_per_op",
        median(&per_op),
        "ns",
        format!("median of {} runs", per_op.len()),
    );
    let base = untraced_short.host_ns_per_op();
    layer.host(
        "obs.trace_overhead_frac",
        traced.host_ns_per_op() / base - 1.0,
        "frac",
        format!("base: untraced {base:.0} ns/op over the traced run's length"),
    );
    layer
}

fn run_workload(w: Workload, args: &Args) -> Result<(bool, u64, u64, Metrics), String> {
    let (reps, mut violations) = repeats(w, args)?;
    let gated = gated(w, &reps);
    print!("{}", render(w.name(), &reps[0].e2e));
    print!("{}", render(w.name(), &gated));
    let mut cost = Metrics::default();
    let per_op: Vec<f64> = reps.iter().map(Outcome::host_ns_per_op).collect();
    cost.host(
        "host_ns_per_op",
        median(&per_op),
        "ns",
        format!("median of {} runs; not gated (see README)", per_op.len()),
    );
    print!("{}", render(w.name(), &cost));
    let result = if args.trace {
        let scale = args.scale * w.trace_scale();
        let traced = run_in_child(w, args.seed, scale, true)?;
        let untraced = run_in_child(w, args.seed, scale, false)?;
        violations.extend(traced.violations.iter().cloned());
        if traced.e2e != untraced.e2e {
            violations.push("the journal changed the simulated end-to-end metrics".into());
        }
        let layer = layers(&reps, &traced, &untraced);
        print!("{}", render(w.name(), &layer));
        layer
    } else {
        gated
    };
    for v in &violations {
        println!("VIOLATION workload={} seed={}: {v}", w.name(), args.seed);
    }
    Ok((
        violations.is_empty(),
        reps[0].attempted,
        reps[0].failed,
        result,
    ))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.child {
        return match child_main(&args) {
            Ok(out) => {
                print!("{out}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let mut correct = true;
    let (mut attempted, mut failed) = (0, 0);
    let mut all = Metrics::default();
    for &w in &args.workloads {
        let (ok, a, f, metrics) = match run_workload(w, &args) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("perfbench: workload {} seed {}: {e}", w.name(), args.seed);
                return ExitCode::FAILURE;
            }
        };
        correct &= ok;
        attempted += a;
        failed += f;
        if args.workloads.len() == 1 {
            all = metrics;
        } else {
            for mut m in metrics.0 {
                m.name = format!("{}.{}", w.name(), m.name);
                all.0.push(m);
            }
        }
    }
    println!("{}", result_json(correct, attempted, failed, &all));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
