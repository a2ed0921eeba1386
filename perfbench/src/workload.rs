//! The benchmark workloads and their untraced operations.
//!
//! Every operation is one `Scenario::run` through the public [`Scenario`]
//! API on the simulator path: a fresh deployment and one agreement
//! instance. Its outcome is reduced to an [`InstanceSummary`], which
//! carries everything the end-to-end metrics and the correctness checks
//! read.

use std::time::Instant;

use fba_ae::Precondition;
use fba_core::{AerConfig, AerHarness, AerMsg};
use fba_recovery::CrashSpec;
use fba_samplers::GString;
use fba_scenario::{AerRun, PollTimeoutSpec, PreconditionSpec, Scenario};
use fba_sim::{AdversarySpec, NetworkSpec, RunOutcome, Step};

/// A named workload: the scenario knobs, kept as data so the traced
/// replica in [`crate::trace`] builds exactly what the scenario builds.
#[derive(Clone, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub n: usize,
    pub network: NetworkSpec,
    pub adversary: AdversarySpec,
    pub crash: Option<CrashSpec>,
    pub poll_timeout: PollTimeoutSpec,
    pub precondition: PreconditionSpec,
    /// Set-ups timed before each operation, for `setup_s`.
    pub setups_per_op: usize,
    /// Operations every run completes, however short `--seconds` is; the
    /// seed-exact metrics (steps, bits, peak RSS) read exactly these.
    pub exact_ops: u64,
}

pub const NAMES: [&str; 2] = ["aer-cold-1024", "hostile-async-256"];

impl Workload {
    /// The workload called `name`, or `None` for an unknown name.
    pub fn named(name: &str) -> Option<Workload> {
        let base = |name, n, setups_per_op, exact_ops| Workload {
            name,
            n,
            network: NetworkSpec::Sync,
            adversary: AdversarySpec::None,
            crash: None,
            poll_timeout: PollTimeoutSpec::Config,
            precondition: PreconditionSpec::default(),
            setups_per_op,
            exact_ops,
        };
        match name {
            "aer-cold-1024" => Some(base("aer-cold-1024", 1024, 2, 40)),
            "hostile-async-256" => Some(Workload {
                network: NetworkSpec::Async { max_delay: 2 },
                adversary: "corner".parse().expect("valid adversary spec"),
                crash: Some("crash:[3..7]16".parse().expect("valid crash spec")),
                poll_timeout: PollTimeoutSpec::DelayScaled,
                ..base("hostile-async-256", 256, 3, 32)
            }),
            _ => None,
        }
    }

    /// The scenario this workload runs.
    pub fn scenario(&self) -> Scenario {
        let mut s = Scenario::new(self.n)
            .network(self.network)
            .adversary(self.adversary.clone())
            .poll_timeout(self.poll_timeout);
        if let Some(crash) = &self.crash {
            s = s.faults_spec(crash.clone());
        }
        s
    }

    /// The AER configuration the scenario derives.
    pub fn config(&self) -> AerConfig {
        self.scenario()
            .aer_config()
            .expect("benchmark workloads derive valid configs")
    }
}

/// The set-up a deployment needs before its first step, timed by part:
/// `[precondition, harness build, run state]` in seconds.
pub fn setup_once(w: &Workload, cfg: AerConfig, seed: u64) -> [f64; 3] {
    let t0 = Instant::now();
    let pre = Precondition::synthetic(
        w.n,
        cfg.string_len,
        w.precondition.knowing,
        w.precondition.assignment,
        seed,
    );
    let t1 = Instant::now();
    let harness = AerHarness::from_precondition(cfg, &pre);
    let t2 = Instant::now();
    let state = harness.run_state();
    let t3 = Instant::now();
    std::hint::black_box((&pre, &harness, &state));
    [
        (t1 - t0).as_secs_f64(),
        (t2 - t1).as_secs_f64(),
        (t3 - t2).as_secs_f64(),
    ]
}

/// What one agreement instance produced, reduced to what the metrics and
/// checks read.
#[derive(Clone, Debug)]
pub struct InstanceSummary {
    pub correct_nodes: u64,
    pub decisions: u64,
    pub all_decided_at: Option<Step>,
    pub correct_bits: u64,
    /// Correct nodes that decided a value other than `gstring`.
    pub wrong: usize,
    /// Whether two correct nodes decided different values.
    pub disagree: bool,
    /// Whether every crash victim rejoined, for crash workloads.
    pub all_rejoined: Option<bool>,
}

impl InstanceSummary {
    fn new(run: &AerRun) -> Self {
        let m = &run.run.metrics;
        InstanceSummary {
            correct_nodes: run.correct_nodes() as u64,
            decisions: m.decided_count(),
            all_decided_at: run.run.all_decided_at,
            correct_bits: m.correct_bits_sent(),
            wrong: run.wrong_decisions(),
            disagree: run
                .run
                .outputs
                .values()
                .any(|v| Some(v) != run.run.outputs.values().next()),
            all_rejoined: run.rejoin().map(|r| r.all_rejoined()),
        }
    }

    /// Whether the instance failed: some correct node did not decide
    /// within the step budget, or some crash victim never rejoined.
    pub fn failed(&self) -> bool {
        self.all_decided_at.is_none() || self.all_rejoined == Some(false)
    }

    /// Whether the instance broke agreement or validity.
    pub fn unsafe_outcome(&self) -> bool {
        self.wrong > 0 || self.disagree
    }

    pub fn bits_per_node(&self) -> f64 {
        self.correct_bits as f64 / self.correct_nodes.max(1) as f64
    }
}

/// The simulator-level outcome of one instance, kept to compare the
/// traced replica against the untraced scenario run.
pub type Outcome = RunOutcome<GString, AerMsg>;

/// Runs one untraced operation through the public scenario API. Returns
/// the wall time of the scenario call alone, the summary and the raw
/// outcome.
pub fn run_op(scenario: &Scenario, seed: u64) -> (f64, InstanceSummary, Outcome) {
    let start = Instant::now();
    let run = scenario
        .run(seed)
        .expect("benchmark scenarios are valid")
        .into_aer();
    let wall = start.elapsed().as_secs_f64();
    (wall, InstanceSummary::new(&run), run.run)
}
