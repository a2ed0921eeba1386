//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One serial, single-threaded process per invocation. With `--trace 0`
//! it times untraced operations of the workload through the public
//! `Scenario` API for `--seconds` seconds and prints the end-to-end
//! metrics; with `--trace 1` it runs each operation twice, untraced and
//! through the tracing wrappers of [`trace`], checks that both give the
//! same outcome, and prints the per-layer metrics. Either way it checks
//! every outcome (agreement, validity, termination, rejoin) and ends with
//! one JSON line: `{"correct", "attempted", "failed", "metrics"}`.
//! Workloads and metrics are described in `perfbench/README.md`.

mod trace;
mod workload;

use std::process::ExitCode;
use std::time::Instant;

use workload::{InstanceSummary, Workload};

/// Traced operations every traced run completes.
const MIN_TRACED_OPS: usize = 1;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> String {
    format!(
        "usage: perfbench --workload <{}> --seed <u64> --seconds <s> --trace <0|1>",
        workload::NAMES.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::named(value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("seconds must be positive, got {value:?}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("trace must be 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// SplitMix64 over `(seed, tag, k)`: the benchmark's input seeds.
fn derive(seed: u64, tag: u64, k: u64) -> u64 {
    let mut z =
        seed ^ tag.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ k.wrapping_mul(0xd1b5_4a32_d192_ed03);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

const TAG_SETUP: u64 = 1;
const TAG_OP: u64 = 2;
const TAG_WARMUP: u64 = 3;

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        m if m % 2 == 1 => v[m / 2],
        m => (v[m / 2 - 1] + v[m / 2]) / 2.0,
    }
}

fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// The highest whole percentile with at least ten samples above it, as
/// `(percentile, value)`; `None` when the sample is too small.
fn tail_percentile(values: &[f64]) -> Option<(usize, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len();
    (50..100).rev().find_map(|p| {
        let idx = (p * m).div_ceil(100).max(1) - 1;
        (m - 1 - idx >= 10).then(|| (p, v[idx]))
    })
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// One named metric of the result line.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value: if value.is_finite() { value } else { 0.0 },
        unit,
    }
}

/// Prints a timing sample as its median, its tail percentile where the
/// sample supports one, and the sample count.
fn describe(name: &str, unit: &str, values: &[f64]) {
    let tail = match tail_percentile(values) {
        Some((p, v)) => format!(", p{p} {v:.6} {unit}"),
        None => ", no tail percentile (needs 11+ samples)".to_owned(),
    };
    println!(
        "# {name}: median {:.6} {unit}{tail}, {} samples: {values:?}",
        median(values),
        values.len()
    );
}

/// The outcome checks shared by both modes: unsafe outcomes fail the
/// command, undecided instances count as failed operations.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
    unsafe_instances: u64,
}

impl Checks {
    fn absorb(&mut self, inst: &InstanceSummary) {
        self.attempted += 1;
        self.failed += u64::from(inst.failed());
        self.unsafe_instances += u64::from(inst.unsafe_outcome());
    }

    fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

fn print_result(correct: bool, checks: &Checks, metrics: &[Metric]) {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.attempted,
        checks.failed,
        body.join(", ")
    );
}

/// Times the `setups_per_op` deployments that precede operation `k`,
/// part by part.
fn measure_setup(w: &Workload, seed: u64, k: u64, out: &mut Vec<[f64; 3]>) {
    let cfg = w.config();
    let per_op = w.setups_per_op as u64;
    for r in k * per_op..(k + 1) * per_op {
        out.push(workload::setup_once(w, cfg, derive(seed, TAG_SETUP, r)));
    }
}

fn run_untraced(args: &Args) -> (bool, Checks, Vec<Metric>) {
    let w = &args.workload;
    let scenario = w.scenario();
    let mut checks = Checks::default();
    let (mut walls, mut rates) = (Vec::new(), Vec::new());
    let mut setup_parts = Vec::new();
    // The seed-exact metrics read only the first `exact_ops` operations, so
    // a seed gives the same figures however many operations fit the run.
    let mut exact: Vec<InstanceSummary> = Vec::new();
    let mut peak_rss = 0.0;
    let start = Instant::now();
    let mut k = 0u64;
    // Set-ups are interleaved with the operations so that both sample the
    // same stretch of the host's (noisy) speed.
    while k < w.exact_ops || start.elapsed().as_secs_f64() < args.seconds {
        measure_setup(w, args.seed, k, &mut setup_parts);
        let (wall, summary, _) = workload::run_op(&scenario, derive(args.seed, TAG_OP, k));
        walls.push(wall);
        rates.push(summary.decisions as f64 / wall);
        checks.absorb(&summary);
        if k < w.exact_ops {
            exact.push(summary);
        }
        k += 1;
        if k == w.exact_ops {
            peak_rss = peak_rss_mib();
        }
    }
    let setup: Vec<f64> = setup_parts.iter().map(|p| p.iter().sum()).collect();
    let decided: Vec<f64> = exact
        .iter()
        .filter_map(|s| s.all_decided_at.map(|v| v as f64))
        .collect();
    let bits: Vec<f64> = exact.iter().map(InstanceSummary::bits_per_node).collect();
    describe("sec_per_run", "s", &walls);
    describe("setup_s", "s", &setup);
    describe("decisions_per_sec", "1/s", &rates);
    println!(
        "# peak_rss_mb: {peak_rss:.1} MiB after the first {} operations, {:.1} MiB after all {k}",
        w.exact_ops,
        peak_rss_mib()
    );
    println!(
        "# failed_frac: {} ({} of {} instances attempted)",
        checks.failed_frac(),
        checks.failed,
        checks.attempted
    );
    let metrics = vec![
        metric("sec_per_run", median(&walls), "s"),
        metric("setup_s", median(&setup), "s"),
        metric("decisions_per_sec", median(&rates), "1/s"),
        metric("peak_rss_mb", peak_rss, "MiB"),
        metric("steps_to_decide", mean(&decided), "steps"),
        metric("bits_per_node", mean(&bits), "bits"),
    ];
    (checks.unsafe_instances == 0, checks, metrics)
}

/// The per-layer metrics of one traced operation, plus whether each is
/// an exact counter (reported from the first operation) or a timing
/// (reported as the median over operations).
fn layer_metrics(op: &trace::OpTrace, untraced_s: f64) -> Vec<(Metric, bool)> {
    use trace::Kind;
    let t = &op.tracer;
    let s = &op.spans;
    let callbacks_s: f64 = Kind::CALLBACKS.iter().map(|k| t.self_s(*k)).sum();
    let schedule_s = t.self_s(Kind::Delay) + t.self_s(Kind::Priority);
    let adversary_s = t.self_s(Kind::Act) + t.self_s(Kind::Observe) + schedule_s;
    let engine_self_s = s.sim_run_s - callbacks_s - adversary_s - t.self_s(Kind::NodeWith);
    let timing = |name: &str, v: f64, unit| (metric(name, v, unit), false);
    let exact = |name: &str, v: f64, unit| (metric(name, v, unit), true);
    let mut out = vec![
        timing("scenario.run_s", untraced_s, "s"),
        timing("trace.traced_run_s", s.op_s, "s"),
        timing("trace.overhead_s", s.op_s - untraced_s, "s"),
        timing(
            "trace.overhead_frac",
            (s.op_s - untraced_s) / untraced_s,
            "ratio",
        ),
        timing("core.node_with_s", t.self_s(Kind::NodeWith), "s"),
        timing("core.callbacks_s", callbacks_s, "s"),
        timing("core.Fw1.share", t.self_s(Kind::Fw1) / s.op_s, "ratio"),
    ];
    for kind in Kind::CALLBACKS {
        let k = kind.name();
        out.push(exact(
            &format!("core.{k}.calls"),
            t.calls(kind) as f64,
            "count",
        ));
        out.push(timing(&format!("core.{k}.self_s"), t.self_s(kind), "s"));
        out.push(timing(
            &format!("core.{k}.ns_per_call"),
            t.ns_per_call(kind),
            "ns",
        ));
    }
    for (layer, (hits, misses)) in ["push", "pull", "poll"].iter().zip(op.caches) {
        let ratio = hits as f64 / (hits + misses).max(1) as f64;
        out.push(exact(
            &format!("samplers.{layer}_cache.hits"),
            hits as f64,
            "count",
        ));
        out.push(exact(
            &format!("samplers.{layer}_cache.misses"),
            misses as f64,
            "count",
        ));
        out.push(exact(
            &format!("samplers.{layer}_cache.hit_ratio"),
            ratio,
            "ratio",
        ));
    }
    out.extend([
        timing("sim.run_s", s.sim_run_s, "s"),
        timing("sim.engine_self_s", engine_self_s, "s"),
        exact("sim.steps", op.steps as f64, "steps"),
        exact("sim.msgs_delivered", op.msgs_delivered as f64, "count"),
        exact("sim.msgs_dropped", op.msgs_dropped as f64, "count"),
        timing(
            "sim.msgs_per_sec",
            op.msgs_delivered as f64 / s.sim_run_s,
            "1/s",
        ),
        timing(
            "sim.engine_adversary_share",
            (engine_self_s + adversary_s) / s.op_s,
            "ratio",
        ),
        timing("adversary.build_s", s.adversary_build_s, "s"),
        timing("adversary.act_s", t.self_s(Kind::Act), "s"),
        timing("adversary.observe_s", t.self_s(Kind::Observe), "s"),
        exact(
            "adversary.schedule_calls",
            t.calls(Kind::Delay) as f64,
            "count",
        ),
        timing("adversary.schedule_s", schedule_s, "s"),
        exact(
            "recovery.restarts",
            t.calls(Kind::OnRestart) as f64,
            "count",
        ),
        timing("recovery.on_restart_s", t.self_s(Kind::OnRestart), "s"),
        exact(
            "recovery.rejoin_steps_mean",
            op.rejoin_mean.unwrap_or(0.0),
            "steps",
        ),
        exact(
            "rejoin_steps_max",
            op.rejoin_max.unwrap_or(0) as f64,
            "steps",
        ),
    ]);
    out
}

/// Prints the spans of one traced operation (`run` is the span id they
/// share). Callback-kind spans are aggregates: their time is the sampled
/// estimate, their parent `sim.run`.
fn print_spans(run: usize, op: &trace::OpTrace) {
    let s = &op.spans;
    let mut spans = vec![
        ("op", "", s.op_s, 1),
        ("ae.precondition", "op", s.precondition_s, 1),
        ("core.harness_build", "op", s.harness_build_s, 1),
        ("core.run_state", "op", s.run_state_s, 1),
        ("adversary.build", "op", s.adversary_build_s, 1),
        ("sim.run", "op", s.sim_run_s, 1),
    ];
    for kind in trace::Kind::ALL {
        spans.push((
            kind.name(),
            "sim.run",
            op.tracer.self_s(kind),
            op.tracer.calls(kind),
        ));
    }
    for (name, parent, secs, calls) in spans {
        println!(
            "# span {{\"run\": {run}, \"name\": \"{name}\", \"parent\": \"{parent}\", \"self_s\": {secs}, \"calls\": {calls}}}"
        );
    }
}

fn run_traced(args: &Args) -> (bool, Checks, Vec<Metric>) {
    let w = &args.workload;
    let scenario = w.scenario();
    let mut checks = Checks::default();
    let mut identical = true;
    let mut per_op: Vec<Vec<(Metric, bool)>> = Vec::new();
    let mut traces = Vec::new();
    let mut setup_parts = Vec::new();
    let start = Instant::now();
    // The first operation of a process also pays for faulting in its heap;
    // run one untimed so the untraced/traced pairs compare like with like.
    checks.absorb(&workload::run_op(&scenario, derive(args.seed, TAG_WARMUP, 0)).1);
    let mut k = 0u64;
    while per_op.len() < MIN_TRACED_OPS || start.elapsed().as_secs_f64() < args.seconds {
        measure_setup(w, args.seed, k, &mut setup_parts);
        let seed = derive(args.seed, TAG_OP, k);
        let (untraced_s, summary, outcome) = workload::run_op(&scenario, seed);
        checks.absorb(&summary);
        let traced = trace::run_op(w, seed);
        identical &= trace::same_outcome(&traced.outcome, &outcome);
        per_op.push(layer_metrics(&traced, untraced_s));
        traces.push(traced);
        k += 1;
    }
    for (run, op) in traces.iter().enumerate() {
        print_spans(run, op);
    }
    println!(
        "# traced outcome identical to untraced: {identical} ({} operations)",
        per_op.len()
    );
    println!(
        "# failed_frac: {} ({} of {} instances attempted)",
        checks.failed_frac(),
        checks.failed,
        checks.attempted
    );
    let mut metrics: Vec<Metric> = (0..per_op[0].len())
        .map(|i| {
            let (first, is_exact) = &per_op[0][i];
            let value = if *is_exact {
                first.value
            } else {
                median(&per_op.iter().map(|m| m[i].0.value).collect::<Vec<_>>())
            };
            metric(first.name.clone(), value, first.unit)
        })
        .collect();
    for (i, name) in [
        "ae.precondition_s",
        "core.harness_build_s",
        "core.run_state_s",
    ]
    .into_iter()
    .enumerate()
    {
        let part: Vec<f64> = setup_parts.iter().map(|p| p[i]).collect();
        metrics.push(metric(name, median(&part), "s"));
    }
    metrics.push(metric("failed_frac", checks.failed_frac(), "ratio"));
    (identical && checks.unsafe_instances == 0, checks, metrics)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    // Match the shipped `paperbench` binary's allocator settings.
    let _ = fba_sim::tune_allocator_for_bulk();
    println!(
        "# perfbench workload={} seed={} seconds={} trace={}",
        args.workload.name, args.seed, args.seconds, args.trace
    );
    let (correct, checks, metrics) = if args.trace {
        run_traced(&args)
    } else {
        run_untraced(&args)
    };
    for m in &metrics {
        println!("# {} = {} {}", m.name, m.value, m.unit);
    }
    print_result(correct, &checks, &metrics);
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("perfbench: an operation broke agreement or validity, or tracing changed a run");
        ExitCode::FAILURE
    }
}
