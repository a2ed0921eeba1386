//! End-to-end engine throughput benchmark (`paperbench bench-engine`).
//!
//! Runs a battery of complete AER executions — fault-free and silent-`t`,
//! several seeds each — at scope-dependent system sizes (*regimes*),
//! fanned across cores by [`crate::par_map`], and reports per-regime
//! aggregate throughput: runs/sec, simulated steps/sec, delivered
//! messages/sec, plus the peak candidate-list size observed via the
//! inspection hook (the Lemma 4 quantity, watched here so a perf
//! regression that also distorts protocol state is visible immediately).
//! The report is written to `BENCH_engine.json` so successive PRs
//! accumulate a perf trajectory; the huge scope adds the n = 8192 regime
//! to that trajectory.

use fba_core::AerNode;
use fba_scenario::Scenario;
use fba_sim::{AdversarySpec, FinalInspect, NodeId};

use crate::battery::{Battery, SeedPolicy};
use crate::crashes_bench::CrashRow;
use crate::par::parallelism;
use crate::scope::Scope;
use crate::service_bench::ServiceRow;

/// Aggregate result for one system size of the benchmark battery.
#[derive(Clone, Debug)]
pub struct RegimeReport {
    /// System size benchmarked.
    pub n: usize,
    /// Worker threads the battery fanned its runs across.
    pub threads: usize,
    /// Completed runs.
    pub runs: usize,
    /// Wall-clock for this regime's battery, seconds.
    pub elapsed_sec: f64,
    /// Runs per wall-clock second.
    pub runs_per_sec: f64,
    /// Simulated steps per wall-clock second.
    pub steps_per_sec: f64,
    /// Delivered messages per wall-clock second.
    pub msgs_per_sec: f64,
    /// Largest candidate list `|L_x|` observed across all runs (Lemma 4
    /// watches this stay O(1)-ish under the default precondition).
    pub peak_candidates: usize,
    /// Fraction of correct nodes that decided, worst run.
    pub min_decided_fraction: f64,
    /// Peak resident set during this regime's battery, mebibytes — the
    /// process high-water mark (`VmHWM`), reset before the battery runs.
    /// `None` (JSON `null`) where the kernel interface is unavailable.
    pub peak_rss_mb: Option<u64>,
}

impl RegimeReport {
    fn to_json(&self) -> String {
        format!(
            concat!(
                "    {{\n",
                "      \"n\": {},\n",
                "      \"threads\": {},\n",
                "      \"runs\": {},\n",
                "      \"elapsed_sec\": {:.3},\n",
                "      \"runs_per_sec\": {:.3},\n",
                "      \"steps_per_sec\": {:.1},\n",
                "      \"msgs_per_sec\": {:.0},\n",
                "      \"peak_candidates\": {},\n",
                "      \"min_decided_fraction\": {:.4},\n",
                "      \"peak_rss_mb\": {}\n",
                "    }}"
            ),
            self.n,
            self.threads,
            self.runs,
            self.elapsed_sec,
            self.runs_per_sec,
            self.steps_per_sec,
            self.msgs_per_sec,
            self.peak_candidates,
            self.min_decided_fraction,
            self.peak_rss_mb
                .map_or_else(|| "null".to_string(), |mb| mb.to_string()),
        )
    }
}

/// Aggregate result of one benchmark battery across all regimes.
#[derive(Clone, Debug)]
pub struct EngineBenchReport {
    /// Worker threads used.
    pub threads: usize,
    /// One entry per benchmarked system size, ascending.
    pub regimes: Vec<RegimeReport>,
    /// Sustained-service rows (see [`crate::service_bench`]) —
    /// `bench-engine` fills these from the service battery so
    /// `BENCH_engine.json` carries both trajectories.
    pub service: Vec<ServiceRow>,
    /// Crash–restart recovery rows (see [`crate::crashes_bench`]) —
    /// `bench-engine` fills these from the crash battery so the rejoin
    /// trajectory lands in `BENCH_engine.json` too.
    pub crashes: Vec<CrashRow>,
}

impl EngineBenchReport {
    /// The report as a JSON object (stable key order, no dependencies).
    #[must_use]
    pub fn to_json(&self) -> String {
        let regimes: Vec<String> = self.regimes.iter().map(RegimeReport::to_json).collect();
        let service: Vec<String> = self.service.iter().map(ServiceRow::to_json).collect();
        let crashes: Vec<String> = self.crashes.iter().map(CrashRow::to_json).collect();
        format!(
            concat!(
                "{{\n  \"bench\": \"engine\",\n  \"threads\": {},\n",
                "  \"regimes\": [\n{}\n  ],\n",
                "  \"service\": [\n{}\n  ],\n",
                "  \"crashes\": [\n{}\n  ]\n}}\n"
            ),
            self.threads,
            regimes.join(",\n"),
            service.join(",\n"),
            crashes.join(",\n"),
        )
    }
}

/// Scope-dependent benchmark sizes: large enough that sampler and queue
/// behaviour dominates, small enough for the scope's time budget. The
/// huge scope benchmarks the scale frontier as two regimes; the extreme
/// scope pushes past it to the regimes opened by batched delivery.
#[must_use]
pub fn bench_sizes(scope: Scope) -> Vec<usize> {
    match scope {
        Scope::Quick => vec![256],
        Scope::Default => vec![1024],
        Scope::Full => vec![4096],
        Scope::Huge => vec![4096, 8192],
        Scope::Extreme => vec![16384, 32768],
    }
}

/// Seeds per regime. The huge scope caps the battery at four seeds per
/// regime — its runs are tens of seconds each and throughput estimates
/// stabilize well before the sweep-sized seed count. The extreme scope
/// drops to two: single runs take minutes and hold gigabytes resident.
#[must_use]
pub fn bench_seeds(scope: Scope) -> Vec<u64> {
    match scope {
        Scope::Huge => vec![1, 2, 3, 4],
        Scope::Extreme => vec![1, 2],
        _ => scope.seeds(),
    }
}

/// Resets the process peak-RSS high-water mark so the next
/// [`peak_rss_mb`] read covers only work done since this call.
#[cfg(target_os = "linux")]
fn reset_peak_rss() {
    // Writing "5" to clear_refs resets VmHWM (Linux ≥ 4.0). Best-effort:
    // failure just means the regime inherits the previous high-water mark.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

#[cfg(not(target_os = "linux"))]
fn reset_peak_rss() {}

/// The process peak resident set (`VmHWM`) in mebibytes, or `None` where
/// the kernel interface is unavailable.
#[cfg(target_os = "linux")]
fn peak_rss_mb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let hwm = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kib: u64 = hwm.split_whitespace().next()?.parse().ok()?;
    Some(kib / 1024)
}

#[cfg(not(target_os = "linux"))]
fn peak_rss_mb() -> Option<u64> {
    None
}

fn run_regime(scope: Scope, n: usize, seeds: &[u64]) -> RegimeReport {
    // One battery per regime: the mode axis (fault-free / silent-t) times
    // the fixed bench seed set, timed as one fan-out so the regime's
    // wall-clock matches what the throughput columns divide by.
    let battery = Battery::new(
        format!("bench-engine:{n}"),
        format!("bench-engine — n = {n} throughput battery"),
        move |&with_faults: &bool, seed| {
            let mut scenario = Scenario::new(n);
            if with_faults {
                scenario = scenario.adversary(AdversarySpec::Silent { t: None });
            }
            let mut peak = 0usize;
            let out = {
                let mut inspect = FinalInspect(|_: NodeId, node: &AerNode| {
                    peak = peak.max(node.candidates().len());
                });
                scenario
                    .run_observed(seed, &mut inspect)
                    .expect("bench scenario")
                    .into_aer()
            };
            (
                out.run.metrics.steps,
                out.run.metrics.total_msgs_sent(),
                peak,
                out.run.metrics.decided_fraction(),
            )
        },
    )
    .axes(&["mode"], |&with_faults| {
        vec![if with_faults {
            "silent-t"
        } else {
            "fault-free"
        }
        .to_string()]
    })
    .points(vec![false, true])
    .seeds(SeedPolicy::Fixed(seeds.to_vec()));
    reset_peak_rss();
    let (grid, elapsed_sec) = battery.run_timed(scope);
    let peak_rss = peak_rss_mb();
    let outcomes: Vec<&(u64, u64, usize, f64)> = grid.groups.iter().flatten().collect();
    let runs = outcomes.len();

    let steps: u64 = outcomes.iter().map(|o| o.0).sum();
    let msgs: u64 = outcomes.iter().map(|o| o.1).sum();
    RegimeReport {
        n,
        threads: parallelism(),
        runs,
        elapsed_sec,
        runs_per_sec: runs as f64 / elapsed_sec,
        steps_per_sec: steps as f64 / elapsed_sec,
        msgs_per_sec: msgs as f64 / elapsed_sec,
        peak_candidates: outcomes.iter().map(|o| o.2).max().unwrap_or(0),
        min_decided_fraction: outcomes.iter().map(|o| o.3).fold(1.0, f64::min),
        peak_rss_mb: peak_rss,
    }
}

/// Runs the battery and returns the aggregate report (regimes only —
/// `bench-engine` appends the service battery's rows before writing).
#[must_use]
pub fn run(scope: Scope) -> EngineBenchReport {
    run_sized(scope, bench_sizes(scope))
}

/// Runs the battery at explicit regime sizes (`paperbench bench-engine
/// --n 4096,16384`), overriding the scope's size ladder — how a
/// trajectory point is regenerated at chosen sizes without dragging a
/// whole scope's worth of regimes along. Seeds still follow the scope.
#[must_use]
pub fn run_sized(scope: Scope, sizes: Vec<usize>) -> EngineBenchReport {
    let seeds = bench_seeds(scope);
    EngineBenchReport {
        threads: parallelism(),
        regimes: sizes
            .into_iter()
            .map(|n| run_regime(scope, n, &seeds))
            .collect(),
        service: Vec::new(),
        crashes: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_battery_reports_sane_numbers() {
        let report = run(Scope::Quick);
        assert_eq!(report.regimes.len(), 1);
        let regime = &report.regimes[0];
        assert_eq!(regime.n, 256);
        assert_eq!(regime.runs, 2 * bench_seeds(Scope::Quick).len());
        assert!(regime.runs_per_sec > 0.0);
        assert!(regime.steps_per_sec > 0.0);
        assert!(regime.msgs_per_sec > 0.0);
        assert!(
            regime.peak_candidates >= 1,
            "every node holds its own candidate"
        );
        assert!(regime.min_decided_fraction > 0.5);
        assert!(regime.threads >= 1);
        #[cfg(target_os = "linux")]
        assert!(
            regime.peak_rss_mb.is_some(),
            "Linux must report a VmHWM high-water mark"
        );
        let json = report.to_json();
        assert!(json.contains("\"bench\": \"engine\""));
        assert!(json.contains("\"regimes\""));
        assert!(json.contains("\"peak_candidates\""));
        assert!(json.contains("\"threads\""));
        assert!(json.contains("\"peak_rss_mb\""));
        assert!(
            json.contains("\"crashes\": ["),
            "the crash section is always present, even before bench-engine fills it"
        );
    }

    #[test]
    fn peak_rss_json_is_null_when_unavailable() {
        let regime = RegimeReport {
            n: 1,
            threads: 1,
            runs: 1,
            elapsed_sec: 1.0,
            runs_per_sec: 1.0,
            steps_per_sec: 1.0,
            msgs_per_sec: 1.0,
            peak_candidates: 1,
            min_decided_fraction: 1.0,
            peak_rss_mb: None,
        };
        assert!(regime.to_json().contains("\"peak_rss_mb\": null"));
        let with = RegimeReport {
            peak_rss_mb: Some(42),
            ..regime
        };
        assert!(with.to_json().contains("\"peak_rss_mb\": 42"));
    }

    #[test]
    fn huge_scope_benchmarks_the_scale_frontier() {
        // Sizing only — actually running the huge battery takes minutes.
        assert_eq!(bench_sizes(Scope::Huge), vec![4096, 8192]);
        assert!(bench_seeds(Scope::Huge).len() >= 4);
    }

    #[test]
    fn extreme_scope_opens_the_batched_regimes() {
        // Sizing only — an extreme battery takes tens of minutes.
        assert_eq!(bench_sizes(Scope::Extreme), vec![16384, 32768]);
        assert_eq!(bench_seeds(Scope::Extreme), vec![1, 2]);
        assert!(
            *bench_sizes(Scope::Extreme).iter().max().unwrap() <= fba_scenario::Scenario::MAX_N,
            "bench sizes must stay within the validated scale bound"
        );
    }
}
