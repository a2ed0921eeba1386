//! # fba-scenario — one typed builder for every run
//!
//! Every execution mode of the *Fast Byzantine Agreement* reproduction —
//! AER on a synthetic precondition, the almost-everywhere substrate
//! alone, the composed end-to-end BA protocol, and the Figure 1 baseline
//! protocols — is described by one declarative [`Scenario`] and executed
//! by [`Scenario::run`]:
//!
//! ```
//! use fba_scenario::{Phase, Scenario};
//! use fba_sim::{AdversarySpec, NetworkSpec};
//!
//! let outcome = Scenario::new(64)
//!     .adversary(AdversarySpec::Silent { t: None })
//!     .network(NetworkSpec::Async { max_delay: 2 })
//!     .phase(Phase::aer(0.8))
//!     .run(7)
//!     .expect("valid scenario")
//!     .into_aer();
//! assert_eq!(outcome.run.unanimous(), Some(outcome.gstring()));
//! ```
//!
//! The builder owns all wiring that experiment code previously assembled
//! by hand: config derivation ([`fba_core::AerConfig::recommended`] plus
//! the tuning knobs), precondition synthesis, engine selection from the
//! [`NetworkSpec`], and adversary construction from the data-level
//! [`AdversarySpec`] (via the `fba-core` registry). New fault/timing
//! combinations are therefore *data*, not new modules: the `paperbench
//! scenario` subcommand runs any spec from the command line, and sweeps
//! enumerate specs instead of duplicating wiring. That includes
//! composed fault schedules — `sched:[0..5]silent:9;[5..]corner:512`
//! swaps the active strategy at step-window boundaries (windowed
//! dispatch in `fba_core::adversary::Composed`), and a single-window
//! schedule is bit-identical to the bare spec.
//!
//! Determinism: a scenario outcome is a pure function of
//! `(scenario, seed)`. The builder performs exactly the construction
//! sequence the hand-wired experiments used, so migrated call sites are
//! bit-identical to their pre-builder form (pinned by the
//! `scenario_equivalence` integration suite).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use std::collections::BTreeSet;
use std::fmt;
use std::str::FromStr;

use fba_ae::{run_ae_with, AeConfig, AeOutcome, Precondition, UnknowingAssignment};
use fba_baselines::{
    BenOrMsg, BenOrNode, BenOrParams, FloodMsg, FloodNode, KingMsg, KingNode, KingParams, KlstMsg,
    KlstNode, KlstParams,
};
use fba_core::adversary::{AerAdversary, AttackContext, CornerReport};
use fba_core::{
    run_ba, AerConfig, AerHarness, AerMsg, AerNode, AerRunState, BaConfig, BaReport, ConfigError,
};
use fba_recovery::{rejoin_report, CrashSpec, RecoveryConfig, RejoinReport};
use fba_samplers::GString;
use fba_sim::rng::{derive_rng, instance_seed};
use fba_sim::{
    AdversarySpec, EngineConfig, EngineSession, Metrics, MetricsTotals, NetworkSpec, NodeId,
    NullObserver, Observer, ParseSpecError, RunOutcome, Step,
};
use rand::Rng;

/// How the AER precondition is synthesised (the §2.1 postcondition of the
/// almost-everywhere phase, injected directly).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PreconditionSpec {
    /// Fraction of nodes that start knowing `gstring`.
    pub knowing: f64,
    /// What the remaining nodes hold.
    pub assignment: UnknowingAssignment,
}

impl Default for PreconditionSpec {
    fn default() -> Self {
        PreconditionSpec {
            knowing: 0.8,
            assignment: UnknowingAssignment::RandomPerNode,
        }
    }
}

impl PreconditionSpec {
    /// A spec with knowledge fraction `knowing` and random junk at the
    /// unknowing nodes.
    #[must_use]
    pub fn knowing(knowing: f64) -> Self {
        PreconditionSpec {
            knowing,
            ..Self::default()
        }
    }

    /// A spec with knowledge fraction `knowing` and the given unknowing
    /// assignment mode.
    #[must_use]
    pub fn new(knowing: f64, assignment: UnknowingAssignment) -> Self {
        PreconditionSpec {
            knowing,
            assignment,
        }
    }
}

/// Which protocol (composition) the scenario executes.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Phase {
    /// AER alone, on a synthetic precondition.
    Aer {
        /// The precondition synthesis parameters.
        precondition: PreconditionSpec,
    },
    /// The almost-everywhere committee-tree phase alone.
    Ae,
    /// The paper's headline composition: almost-everywhere phase, then
    /// AER on its output.
    Composed,
    /// One of the Figure 1 comparison protocols.
    Baseline(Baseline),
}

impl Phase {
    /// `Phase::Aer` with knowledge fraction `knowing` and random junk at
    /// unknowing nodes.
    #[must_use]
    pub fn aer(knowing: f64) -> Self {
        Phase::Aer {
            precondition: PreconditionSpec::knowing(knowing),
        }
    }

    /// `Phase::Aer` with an explicit unknowing-assignment mode.
    #[must_use]
    pub fn aer_with(knowing: f64, assignment: UnknowingAssignment) -> Self {
        Phase::Aer {
            precondition: PreconditionSpec::new(knowing, assignment),
        }
    }

    /// The phase grammar for CLI usage messages.
    pub const EXPECTED: &'static str =
        "aer | ae | composed | baseline:{klst|flood|benor|phase-king}";

    /// A static name for error messages.
    #[must_use]
    pub fn phase_name(&self) -> &'static str {
        match self {
            Phase::Aer { .. } => "aer",
            Phase::Ae => "almost-everywhere",
            Phase::Composed => "composed",
            Phase::Baseline(_) => "baseline",
        }
    }
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Phase::Aer { .. } => write!(f, "aer"),
            Phase::Ae => write!(f, "ae"),
            Phase::Composed => write!(f, "composed"),
            Phase::Baseline(b) => write!(f, "baseline:{b}"),
        }
    }
}

impl FromStr for Phase {
    type Err = ParseSpecError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = || ParseSpecError {
            input: s.to_string(),
            expected: Phase::EXPECTED,
        };
        match s {
            "aer" => Ok(Phase::Aer {
                precondition: PreconditionSpec::default(),
            }),
            "ae" => Ok(Phase::Ae),
            "composed" => Ok(Phase::Composed),
            _ => {
                let name = s.strip_prefix("baseline:").ok_or_else(err)?;
                match name {
                    "klst" => Ok(Phase::Baseline(Baseline::Klst {
                        precondition: PreconditionSpec::default(),
                    })),
                    "flood" => Ok(Phase::Baseline(Baseline::Flood {
                        precondition: PreconditionSpec::default(),
                    })),
                    "benor" => Ok(Phase::Baseline(Baseline::BenOr { bias: 0.9 })),
                    "phase-king" => Ok(Phase::Baseline(Baseline::PhaseKing)),
                    _ => Err(err()),
                }
            }
        }
    }
}

/// The Figure 1 comparison protocols.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Baseline {
    /// KLST11-style load-balanced almost-everywhere → everywhere
    /// diffusion.
    Klst {
        /// The shared starting state (same shape as AER's).
        precondition: PreconditionSpec,
    },
    /// Flooding diffusion.
    Flood {
        /// The shared starting state.
        precondition: PreconditionSpec,
    },
    /// Ben-Or's randomized binary agreement. Inputs are drawn per node
    /// with probability `bias` of `true` (override with
    /// [`Scenario::inputs`]).
    BenOr {
        /// `P(input = true)` per node.
        bias: f64,
    },
    /// Phase-King deterministic agreement. Inputs are uniform random
    /// bits (override with [`Scenario::inputs`]).
    PhaseKing,
}

impl fmt::Display for Baseline {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Baseline::Klst { .. } => write!(f, "klst"),
            Baseline::Flood { .. } => write!(f, "flood"),
            Baseline::BenOr { .. } => write!(f, "benor"),
            Baseline::PhaseKing => write!(f, "phase-king"),
        }
    }
}

/// How the AER `poll_timeout` is derived for this scenario.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum PollTimeoutSpec {
    /// Use the [`AerConfig`] value unchanged (the synchronous delivery
    /// horizon) — the pre-builder behaviour, and the default.
    #[default]
    Config,
    /// Scale the synchronous horizon by the network's delay bound
    /// (`sync_poll_horizon × max_delay`), so asynchronous scenarios wait
    /// one *asynchronous* delivery horizon before retrying instead of
    /// firing `max_delay`-fold redundant retry waves. No-op under
    /// [`NetworkSpec::Sync`].
    DelayScaled,
    /// An explicit timeout in steps.
    Fixed(u64),
}

/// A scenario the builder rejected.
#[derive(Clone, Debug, PartialEq)]
pub enum ScenarioError {
    /// The derived [`AerConfig`] violated a paper constraint.
    Config(ConfigError),
    /// The adversary spec names an AER-specific strategy, but the phase
    /// runs a protocol it cannot attack.
    UnsupportedAdversary {
        /// The offending spec.
        spec: AdversarySpec,
        /// The phase that cannot field it.
        phase: &'static str,
    },
    /// The system size is outside the supported range: below the
    /// phase's floor (its samplers and quorums degenerate — 8 nodes for
    /// every phase but the binary baselines, which have none), or past
    /// the simulation bound ([`Scenario::MAX_N`]), where a full AER run
    /// would queue tens of gigabytes of messages per step and die by OOM
    /// rather than by a clear error.
    UnsupportedScale {
        /// The requested system size.
        n: usize,
        /// The smallest system size the phase supports.
        min: usize,
        /// The largest supported system size.
        max: usize,
    },
    /// A precondition's knowledge fraction is not a number in `[0, 1]`.
    KnowingOutOfRange {
        /// The offending fraction.
        knowing: f64,
    },
    /// A [`Scenario::inputs`] override for a binary baseline does not
    /// hold exactly one input per node.
    InputsLengthMismatch {
        /// Inputs supplied.
        got: usize,
        /// The system size.
        n: usize,
    },
    /// Service mode (chained agreement instances) was requested for a
    /// phase other than AER — the persistent run state it threads across
    /// instances only exists for the AER engine.
    UnsupportedService {
        /// The phase the scenario would run.
        phase: &'static str,
    },
    /// The service spec is inconsistent (zero instances, or an
    /// arrivals/value-seeds override of the wrong length or ordering).
    ServiceSpecInvalid {
        /// What was wrong.
        reason: String,
    },
    /// The crash–restart schedule cannot run under this scenario: a
    /// window crashes more nodes than the system has, or the schedule
    /// was set for a phase the crash engine does not drive.
    CrashSpecInvalid {
        /// What was wrong.
        reason: String,
    },
    /// A fault schedule's windows disagree on the corruption budget:
    /// the windows would draw different coalitions, silently corrupting
    /// more nodes than the declared fault bound.
    ScheduleBudgetMismatch {
        /// The window whose budget disagrees with an earlier window's.
        window: fba_sim::Window,
        /// That window's effective corruption budget.
        got: usize,
        /// The budget the earlier corrupting windows use.
        expected: usize,
    },
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::Config(e) => write!(f, "invalid AER config: {e}"),
            ScenarioError::UnsupportedAdversary { spec, phase } => write!(
                f,
                "adversary `{spec}` is AER-specific and cannot attack the {phase} phase \
                 (use `none` or `silent[:t]`)"
            ),
            ScenarioError::UnsupportedScale { n, min, .. } if n < min => write!(
                f,
                "n = {n} is below this phase's floor of {min} nodes: its samplers and \
                 quorums degenerate below it"
            ),
            ScenarioError::UnsupportedScale { n, max, .. } => write!(
                f,
                "n = {n} exceeds the supported system-size bound of {max}: a full AER run \
                 queues Θ(n·d³) messages per step (tens of gigabytes past the bound); \
                 benchmark large sizes with `bench-engine --scope extreme` regimes instead"
            ),
            ScenarioError::KnowingOutOfRange { knowing } => {
                write!(f, "knowing fraction {knowing} is outside [0, 1]")
            }
            ScenarioError::InputsLengthMismatch { got, n } => {
                write!(f, "the inputs override holds {got} inputs for {n} nodes")
            }
            ScenarioError::UnsupportedService { phase } => write!(
                f,
                "service mode (chained instances) only drives the AER phase, not {phase}; \
                 drop `.service(..)` or set `.phase(Phase::aer(..))`"
            ),
            ScenarioError::ServiceSpecInvalid { reason } => {
                write!(f, "invalid service spec: {reason}")
            }
            ScenarioError::CrashSpecInvalid { reason } => {
                write!(f, "invalid crash spec: {reason}")
            }
            ScenarioError::ScheduleBudgetMismatch {
                window,
                got,
                expected,
            } => write!(
                f,
                "fault-schedule window {window} budgets {got} corrupted nodes but earlier \
                 windows budget {expected}; all corrupting windows must share one \
                 coalition (same `silent:<t>` override, or the scenario fault budget)"
            ),
        }
    }
}

impl std::error::Error for ScenarioError {}

impl From<ConfigError> for ScenarioError {
    fn from(e: ConfigError) -> Self {
        ScenarioError::Config(e)
    }
}

/// A declarative run description — see the crate docs.
///
/// Build with [`Scenario::new`], refine with the chainable setters, and
/// execute with [`Scenario::run`] (or [`Scenario::run_observed`] to
/// attach read-only instrumentation). All setters are data; nothing is
/// constructed until `run`.
#[derive(Clone, Debug)]
pub struct Scenario {
    n: usize,
    faults: Option<usize>,
    faults_spec: Option<CrashSpec>,
    adversary: AdversarySpec,
    ae_adversary: AdversarySpec,
    network: NetworkSpec,
    phase: Phase,
    strict: bool,
    overload_cap: Option<u64>,
    quorum_size: Option<usize>,
    sampler_seed: Option<u64>,
    eager_repair: Option<bool>,
    poll_timeout: PollTimeoutSpec,
    record_transcript: bool,
    max_steps: Option<Step>,
    batching: Option<bool>,
    batch_limit: Option<usize>,
    bad_string: Option<GString>,
    inputs: Option<Vec<bool>>,
    rigged: BTreeSet<NodeId>,
    rigged_value: u64,
    service: Option<(usize, Step)>,
    service_arrivals: Option<Vec<Step>>,
    service_value_seeds: Option<Vec<u64>>,
}

impl Scenario {
    /// The largest supported system size. A full AER run queues
    /// `Θ(n·d³)` messages in its pull wave — about 4 GB of resident
    /// queue and arena state at n = 16384 and ~2.7× per doubling — so
    /// sizes past this bound are rejected up front
    /// ([`ScenarioError::UnsupportedScale`]) instead of dying by OOM
    /// deep inside a sweep.
    pub const MAX_N: usize = 1 << 16;

    /// A fault-free synchronous AER scenario for `n` nodes with the
    /// default precondition (80% knowing, random junk elsewhere).
    #[must_use]
    pub fn new(n: usize) -> Self {
        Scenario {
            n,
            faults: None,
            faults_spec: None,
            adversary: AdversarySpec::None,
            ae_adversary: AdversarySpec::None,
            network: NetworkSpec::Sync,
            phase: Phase::Aer {
                precondition: PreconditionSpec::default(),
            },
            strict: false,
            overload_cap: None,
            quorum_size: None,
            sampler_seed: None,
            eager_repair: None,
            poll_timeout: PollTimeoutSpec::default(),
            record_transcript: false,
            max_steps: None,
            batching: None,
            batch_limit: None,
            bad_string: None,
            inputs: None,
            rigged: BTreeSet::new(),
            rigged_value: 0,
            service: None,
            service_arrivals: None,
            service_value_seeds: None,
        }
    }

    /// Sets the corruption budget `t` the adversary works with. Defaults
    /// to the derived config's tolerance (`⌊0.15·n⌋`). This budgets the
    /// *adversary*; the protocol's declared tolerance stays the config's,
    /// which is what lets boundary experiments field out-of-contract
    /// coalitions.
    #[must_use]
    pub fn faults(mut self, t: usize) -> Self {
        self.faults = Some(t);
        self
    }

    /// Sets the crash–restart fault schedule (the `crash:[3..7]64`
    /// grammar — see [`CrashSpec`]). Per window, the victim set is
    /// sampled from the coalition seed (so a service run crashes the
    /// same nodes in every instance, like the corrupt coalition); the
    /// checkpoint/WAL layer is enabled on every node; crashed nodes go
    /// dark for the window (deliveries to and from them are dropped,
    /// callbacks suspended) and restart at window end from their last
    /// checkpoint, then state-sync by re-polling their checkpointed
    /// candidates against fresh peer samples. Only the AER phase executes
    /// crash plans. An empty spec is the no-fault baseline, bit-identical
    /// to never calling this (pinned by the equivalence suite).
    #[must_use]
    pub fn faults_spec(mut self, spec: CrashSpec) -> Self {
        self.faults_spec = Some(spec);
        self
    }

    /// Sets the Byzantine strategy (see [`AdversarySpec`] for the
    /// grammar), including composed fault schedules (`sched:…`, one
    /// strategy per step window). For [`Phase::Composed`] this is the
    /// AER-phase strategy; the almost-everywhere phase uses
    /// [`Scenario::ae_adversary`].
    #[must_use]
    pub fn adversary(mut self, spec: AdversarySpec) -> Self {
        self.adversary = spec;
        self
    }

    /// Sets the almost-everywhere-phase strategy for [`Phase::Composed`]
    /// runs (must be `none` or `silent`). Defaults to `none`.
    #[must_use]
    pub fn ae_adversary(mut self, spec: AdversarySpec) -> Self {
        self.ae_adversary = spec;
        self
    }

    /// Sets the timing model. Defaults to [`NetworkSpec::Sync`].
    #[must_use]
    pub fn network(mut self, network: NetworkSpec) -> Self {
        self.network = network;
        self
    }

    /// Sets the protocol phase. Defaults to [`Phase::Aer`] with the
    /// default precondition.
    #[must_use]
    pub fn phase(mut self, phase: Phase) -> Self {
        self.phase = phase;
        self
    }

    /// Strict paper mode: one poll per candidate, no retries, no repair
    /// (see [`AerConfig::strict`]).
    #[must_use]
    pub fn strict(mut self) -> Self {
        self.strict = true;
        self
    }

    /// Overrides the Algorithm 3 overload cap.
    #[must_use]
    pub fn overload_cap(mut self, cap: u64) -> Self {
        self.overload_cap = Some(cap);
        self
    }

    /// Overrides the quorum/poll-list size `d`.
    #[must_use]
    pub fn quorum_size(mut self, d: usize) -> Self {
        self.quorum_size = Some(d);
        self
    }

    /// Overrides the public sampler seed.
    #[must_use]
    pub fn sampler_seed(mut self, seed: u64) -> Self {
        self.sampler_seed = Some(seed);
        self
    }

    /// Overrides the eager-repair escalation knob.
    #[must_use]
    pub fn eager_repair(mut self, eager: bool) -> Self {
        self.eager_repair = Some(eager);
        self
    }

    /// Sets how `poll_timeout` derives from the scenario (see
    /// [`PollTimeoutSpec`]). Defaults to the config value unchanged.
    #[must_use]
    pub fn poll_timeout(mut self, spec: PollTimeoutSpec) -> Self {
        self.poll_timeout = spec;
        self
    }

    /// Records every envelope into the outcome's transcript (costs
    /// memory; needed by the trace analyses).
    #[must_use]
    pub fn record_transcript(mut self, record: bool) -> Self {
        self.record_transcript = record;
        self
    }

    /// Overrides the engine's step cap.
    #[must_use]
    pub fn max_steps(mut self, max_steps: Step) -> Self {
        self.max_steps = Some(max_steps);
        self
    }

    /// Forces batched delivery on or off for the AER-phase engine,
    /// overriding the `FBA_BATCH` environment default. Batching is
    /// outcome-invariant (pinned by the `scenario_equivalence` suite);
    /// this knob exists for bisecting and for the equivalence tests
    /// themselves.
    #[must_use]
    pub fn batching(mut self, batch: bool) -> Self {
        self.batching = Some(batch);
        self
    }

    /// Caps the logical messages coalesced into one batched delivery
    /// (default: unlimited). Batch boundaries are outcome-invariant; the
    /// equivalence proptests randomise this knob to pin that.
    #[must_use]
    pub fn batch_limit(mut self, limit: usize) -> Self {
        self.batch_limit = Some(limit);
        self
    }

    /// Puts the scenario in sustained-service mode: `instances` chained
    /// agreement instances at an offered load of one new client value
    /// every `interval` steps, executed by [`Scenario::run_service`].
    /// Instance `k`'s value arrives at step `k · interval` and starts
    /// as soon as the engine is free (instances never overlap — the
    /// engine is a serial resource; a value that arrives mid-instance
    /// queues until the current instance finishes).
    ///
    /// Membership knowledge, interned quorum slots, sampler caches, and
    /// the vote arenas persist across instances; per-instance protocol
    /// state is reset. The corrupt coalition is pinned across the whole
    /// service run, while per-instance adversary strategy state (e.g.
    /// `sched:` windows) restarts each instance.
    #[must_use]
    pub fn service(mut self, instances: usize, interval: Step) -> Self {
        self.service = Some((instances, interval));
        self
    }

    /// Overrides the service arrival schedule with explicit arrival
    /// steps, one per instance (must be non-decreasing and match the
    /// instance count of [`Scenario::service`]). Arrival times never
    /// change instance *outcomes* — only the sustained-throughput
    /// accounting — which the service proptests pin.
    #[must_use]
    pub fn service_arrivals(mut self, arrivals: Vec<Step>) -> Self {
        self.service_arrivals = Some(arrivals);
        self
    }

    /// Overrides the per-instance value seeds (one per instance). By
    /// default instance `k` runs with `instance_seed(service_seed, k)`;
    /// explicit seeds let tests replay a specific instance standalone or
    /// force slot collisions across instances (the state-leak battery
    /// runs the *same* seed repeatedly).
    #[must_use]
    pub fn service_value_seeds(mut self, seeds: Vec<u64>) -> Self {
        self.service_value_seeds = Some(seeds);
        self
    }

    /// Sets the campaign string used by the `flood` and `bad-string`
    /// strategies. Defaults to the first non-`gstring` assignment of the
    /// precondition (the coherent bogus block under
    /// [`UnknowingAssignment::SharedAdversarial`]), falling back to a
    /// seed-derived random string when everyone knows `gstring`.
    #[must_use]
    pub fn bad_string(mut self, bad: GString) -> Self {
        self.bad_string = Some(bad);
        self
    }

    /// Overrides the per-node binary inputs of the Ben-Or / Phase-King
    /// baselines (defaults are seed-derived draws; see [`Baseline`]).
    #[must_use]
    pub fn inputs(mut self, inputs: Vec<bool>) -> Self {
        self.inputs = Some(inputs);
        self
    }

    /// Rigs the given nodes of a [`Phase::Ae`] run to contribute the
    /// constant `value` instead of private randomness (the semi-honest
    /// bias of the gstring-entropy experiment).
    #[must_use]
    pub fn rig(mut self, rigged: BTreeSet<NodeId>, value: u64) -> Self {
        self.rigged = rigged;
        self.rigged_value = value;
        self
    }

    /// The AER configuration this scenario derives (all knobs applied).
    ///
    /// # Errors
    ///
    /// Returns the violated constraint if the knob combination is
    /// invalid.
    pub fn aer_config(&self) -> Result<AerConfig, ScenarioError> {
        let mut cfg = AerConfig::recommended(self.n);
        if let Some(d) = self.quorum_size {
            cfg = cfg.with_d(d);
        }
        if let Some(cap) = self.overload_cap {
            cfg = cfg.with_overload_cap(cap);
        }
        if let Some(seed) = self.sampler_seed {
            cfg = cfg.with_sampler_seed(seed);
        }
        if self.strict {
            cfg = cfg.strict();
        }
        if let Some(eager) = self.eager_repair {
            cfg.eager_repair = eager;
        }
        match self.poll_timeout {
            PollTimeoutSpec::Config => {}
            PollTimeoutSpec::DelayScaled => {
                cfg.poll_timeout = AerConfig::sync_poll_horizon() * self.network.max_delay();
            }
            PollTimeoutSpec::Fixed(t) => cfg.poll_timeout = t,
        }
        cfg.validate()?;
        Ok(cfg)
    }

    fn default_faults(&self) -> usize {
        (self.n as f64 * 0.15) as usize
    }

    /// The smallest system size the scenario's phase supports: the AER
    /// and almost-everywhere configs (and the diffusion baselines, which
    /// borrow AER's string length) assert a floor; the binary baselines
    /// run at any size.
    fn min_n(&self) -> usize {
        match self.phase {
            Phase::Aer { .. } | Phase::Baseline(Baseline::Klst { .. } | Baseline::Flood { .. }) => {
                AerConfig::MIN_N
            }
            Phase::Ae => AeConfig::MIN_N,
            Phase::Composed => AerConfig::MIN_N.max(AeConfig::MIN_N),
            Phase::Baseline(Baseline::BenOr { .. } | Baseline::PhaseKing) => 0,
        }
    }

    /// Rejects system sizes outside `[min_n, MAX_N]` before any phase
    /// derives a config or allocates run state.
    fn check_scale(&self) -> Result<(), ScenarioError> {
        let min = self.min_n();
        if self.n < min || self.n > Self::MAX_N {
            return Err(ScenarioError::UnsupportedScale {
                n: self.n,
                min,
                max: Self::MAX_N,
            });
        }
        Ok(())
    }

    /// Rejects malformed per-phase inputs: a knowledge fraction outside
    /// `[0, 1]` (or NaN) on the phases that synthesise a precondition,
    /// and an [`Scenario::inputs`] override of the wrong length on the
    /// binary baselines.
    fn check_phase_inputs(&self) -> Result<(), ScenarioError> {
        match self.phase {
            Phase::Aer { precondition }
            | Phase::Baseline(Baseline::Klst { precondition } | Baseline::Flood { precondition })
                if !(0.0..=1.0).contains(&precondition.knowing) =>
            {
                Err(ScenarioError::KnowingOutOfRange {
                    knowing: precondition.knowing,
                })
            }
            Phase::Baseline(Baseline::BenOr { .. } | Baseline::PhaseKing) => match &self.inputs {
                Some(inputs) if inputs.len() != self.n => {
                    Err(ScenarioError::InputsLengthMismatch {
                        got: inputs.len(),
                        n: self.n,
                    })
                }
                _ => Ok(()),
            },
            _ => Ok(()),
        }
    }

    /// Checks the scenario without executing it — the one validation
    /// site: system size, per-phase inputs, crash schedule, config
    /// derivation, fault-schedule budget coherence, and phase/adversary
    /// compatibility. Every run entry point ([`Scenario::run`],
    /// [`Scenario::run_observed`], [`Scenario::run_instance`],
    /// [`Scenario::run_service`]) calls it first, so a scenario it
    /// rejects fails identically everywhere and never panics. Sweep
    /// drivers pre-flight every cell with it so an invalid cell fails
    /// fast instead of deep inside a parallel fan-out.
    ///
    /// # Errors
    ///
    /// Returns the violated constraint.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        self.check_scale()?;
        self.check_phase_inputs()?;
        self.validate_crash()?;
        let unsupported = |spec: &AdversarySpec, phase: &'static str| {
            if spec.is_generic() {
                Ok(())
            } else {
                Err(ScenarioError::UnsupportedAdversary {
                    spec: spec.clone(),
                    phase,
                })
            }
        };
        match self.phase {
            Phase::Aer { .. } => {
                let cfg = self.aer_config()?;
                self.validate_schedule_budgets(self.faults.unwrap_or(cfg.t))
            }
            Phase::Composed => {
                // The composed run derives the AER config and schedule
                // budgets too, and its AE phase only accepts generic
                // adversaries.
                let cfg = self.aer_config()?;
                self.validate_schedule_budgets(self.faults.unwrap_or(cfg.t))?;
                unsupported(&self.ae_adversary, "almost-everywhere")
            }
            Phase::Ae => unsupported(&self.adversary, "almost-everywhere"),
            Phase::Baseline(_) => unsupported(&self.adversary, "baseline"),
        }
    }

    /// Rejects crash–restart schedules this scenario cannot execute: a
    /// window that crashes more nodes than the system has, or a non-AER
    /// phase (only the AER engine runs crash plans). An unset or empty
    /// spec always passes — it is the no-fault baseline.
    fn validate_crash(&self) -> Result<(), ScenarioError> {
        let Some(spec) = self.faults_spec.as_ref().filter(|s| !s.is_empty()) else {
            return Ok(());
        };
        if !matches!(self.phase, Phase::Aer { .. }) {
            return Err(ScenarioError::CrashSpecInvalid {
                reason: format!(
                    "crash–restart schedules only drive the AER phase, not {}; \
                     drop `.faults_spec(..)` or set `.phase(Phase::aer(..))`",
                    self.phase.phase_name()
                ),
            });
        }
        for window in spec.windows() {
            if window.count > self.n {
                return Err(ScenarioError::CrashSpecInvalid {
                    reason: format!(
                        "window {window} crashes {} nodes but the system only has {}",
                        window.count, self.n
                    ),
                });
            }
        }
        Ok(())
    }

    /// Executes the scenario.
    ///
    /// # Errors
    ///
    /// Returns the [`ScenarioError`] [`Scenario::validate`] raises.
    pub fn run(&self, seed: u64) -> Result<ScenarioOutcome, ScenarioError> {
        self.run_observed(seed, &mut NullObserver)
    }

    /// Executes the scenario while driving a read-only [`Observer`] over
    /// the AER-phase engine (per-step sends, per-decision events, final
    /// node states). Only [`Phase::Aer`] runs are observed — the other
    /// phases either run a different node type or construct their
    /// adversary mid-flight; their outcomes carry everything the
    /// experiments read.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Scenario::run`].
    pub fn run_observed(
        &self,
        seed: u64,
        observer: &mut dyn Observer<AerNode>,
    ) -> Result<ScenarioOutcome, ScenarioError> {
        self.validate()?;
        match self.phase {
            Phase::Aer { .. } => Ok(ScenarioOutcome::Aer(self.run_aer(seed, observer))),
            Phase::Ae => self.run_ae(seed).map(ScenarioOutcome::Ae),
            Phase::Composed => self.run_composed(seed).map(ScenarioOutcome::Composed),
            Phase::Baseline(baseline) => self
                .run_baseline(baseline, seed)
                .map(ScenarioOutcome::Baseline),
        }
    }

    fn bad_for(&self, assignments: &[GString], gstring: &GString, seed: u64) -> GString {
        if let Some(bad) = self.bad_string {
            return bad;
        }
        assignments
            .iter()
            .find(|s| *s != gstring)
            .copied()
            .unwrap_or_else(|| GString::random(gstring.len_bits(), &mut derive_rng(seed, &[0xbad])))
    }

    /// Rejects fault schedules whose windows disagree on the corruption
    /// budget (they would draw different coalitions — see
    /// `fba_core::adversary::Composed`). `budget` is the effective
    /// adversary budget of this run; `none` windows are exempt.
    fn validate_schedule_budgets(&self, budget: usize) -> Result<(), ScenarioError> {
        let AdversarySpec::Sched(schedule) = &self.adversary else {
            return Ok(());
        };
        let mut first: Option<usize> = None;
        for (window, spec) in schedule.windows() {
            let window_budget = match spec {
                AdversarySpec::None => continue,
                AdversarySpec::Silent { t: Some(t) } => *t,
                _ => budget,
            };
            match first {
                None => first = Some(window_budget),
                Some(expected) if window_budget != expected => {
                    return Err(ScenarioError::ScheduleBudgetMismatch {
                        window: *window,
                        got: window_budget,
                        expected,
                    })
                }
                Some(_) => {}
            }
        }
        Ok(())
    }

    fn aer_adversary_for(
        &self,
        harness: &AerHarness,
        gstring: &GString,
        seed: u64,
    ) -> AerAdversary {
        let mut ctx = AttackContext::new(harness, *gstring);
        if let Some(t) = self.faults {
            ctx.t = t;
        }
        let bad = self.bad_for(harness.assignments(), gstring, seed);
        AerAdversary::from_spec(&self.adversary, ctx, bad)
    }

    /// A fresh engine scratch session sized for this scenario's network.
    fn session(&self) -> EngineSession<AerMsg> {
        EngineSession::new(self.network.max_delay().max(1))
    }

    fn run_aer(&self, seed: u64, observer: &mut dyn Observer<AerNode>) -> AerRun {
        self.run_aer_instance(seed, seed, observer, &mut None, &mut self.session())
    }

    /// One agreement instance of a validated [`Phase::Aer`] scenario over
    /// (possibly pre-existing) shared state.
    ///
    /// `seed` drives the precondition, the protocol RNG streams, and the
    /// adversary's *strategy* state; `adversary_seed` independently pins
    /// the corrupt coalition (the service layer keeps it fixed across a
    /// whole run while the per-instance seed varies). `state` is the
    /// cross-instance AER arena: `None` means "fresh harness state" and
    /// is filled in, so chained callers thread one `Option` through every
    /// instance. `session` is the reusable engine scratch.
    fn run_aer_instance(
        &self,
        seed: u64,
        adversary_seed: u64,
        observer: &mut dyn Observer<AerNode>,
        state: &mut Option<AerRunState>,
        session: &mut EngineSession<AerMsg>,
    ) -> AerRun {
        let Phase::Aer { precondition } = self.phase else {
            unreachable!("only validated AER-phase scenarios run AER instances")
        };
        let cfg = self
            .aer_config()
            .expect("validate() derived this config before dispatch");
        let pre = Precondition::synthetic(
            self.n,
            cfg.string_len,
            precondition.knowing,
            precondition.assignment,
            seed,
        );
        let mut harness = AerHarness::from_precondition(cfg, &pre);
        let mut engine = match self.network {
            NetworkSpec::Sync => harness.engine_sync(),
            NetworkSpec::Async { max_delay } => harness.engine_async(max_delay),
        };
        engine.record_transcript = self.record_transcript;
        if let Some(max_steps) = self.max_steps {
            engine.max_steps = max_steps;
        }
        if let Some(batch) = self.batching {
            engine.batch = batch;
        }
        if let Some(limit) = self.batch_limit {
            engine.batch_limit = Some(limit);
        }
        if let Some(spec) = self.faults_spec.as_ref().filter(|s| !s.is_empty()) {
            // Victims are drawn from the coalition seed, so a service
            // run crashes the same nodes in every instance — the
            // crash-family analogue of the pinned corrupt coalition.
            let plan = spec
                .resolve(self.n, adversary_seed)
                .expect("crash spec validated before the run entry points dispatch here");
            // Give the restarted victims the full original step budget
            // after the last restart to re-converge (an explicit
            // `.max_steps(..)` override still wins unchanged).
            if self.max_steps.is_none() {
                if let Some(last_restart) = spec.last_restart() {
                    engine.max_steps = engine.max_steps.saturating_add(last_restart);
                }
            }
            engine.crash = Some(plan);
            harness.enable_recovery(RecoveryConfig::default());
        }
        let mut adversary = self.aer_adversary_for(&harness, &pre.gstring, seed);
        let shared = state.get_or_insert_with(|| harness.run_state());
        let run = harness.run_in_session(
            &engine,
            seed,
            adversary_seed,
            &mut adversary,
            observer,
            shared,
            session,
        );
        AerRun {
            corner: adversary.corner_report().cloned(),
            run,
            precondition: pre,
            config: cfg,
            engine,
        }
    }

    /// Rejects non-AER phases for the single-instance and service entry
    /// points, which only drive the AER engine.
    fn require_aer(&self) -> Result<(), ScenarioError> {
        if matches!(self.phase, Phase::Aer { .. }) {
            Ok(())
        } else {
            Err(ScenarioError::UnsupportedService {
                phase: self.phase.phase_name(),
            })
        }
    }

    /// Executes one AER instance with the corrupt coalition drawn from
    /// `adversary_seed` instead of `seed`. With `adversary_seed == seed`
    /// this is exactly [`Scenario::run`] restricted to [`Phase::Aer`];
    /// with a different coalition seed it replays one instance of a
    /// service run standalone — the comparator the cross-instance
    /// state-leak battery is built on.
    ///
    /// # Errors
    ///
    /// Returns the [`ScenarioError`] [`Scenario::validate`] raises, then
    /// [`ScenarioError::UnsupportedService`] for non-AER phases.
    pub fn run_instance(&self, seed: u64, adversary_seed: u64) -> Result<AerRun, ScenarioError> {
        self.validate()?;
        self.require_aer()?;
        Ok(self.run_aer_instance(
            seed,
            adversary_seed,
            &mut NullObserver,
            &mut None,
            &mut self.session(),
        ))
    }

    /// Checks the service spec against the scenario and resolves the
    /// per-instance `(seed, arrival step)` schedule.
    fn service_schedule(&self, seed: u64) -> Result<Vec<(u64, Step)>, ScenarioError> {
        let Some((instances, interval)) = self.service else {
            return Err(ScenarioError::ServiceSpecInvalid {
                reason: "`.service(instances, interval)` was never set".into(),
            });
        };
        if instances == 0 {
            return Err(ScenarioError::ServiceSpecInvalid {
                reason: "a service run needs at least one instance".into(),
            });
        }
        let arrivals: Vec<Step> = match &self.service_arrivals {
            Some(explicit) => {
                if explicit.len() != instances {
                    return Err(ScenarioError::ServiceSpecInvalid {
                        reason: format!(
                            "arrival schedule has {} entries for {instances} instances",
                            explicit.len()
                        ),
                    });
                }
                if explicit.windows(2).any(|w| w[1] < w[0]) {
                    return Err(ScenarioError::ServiceSpecInvalid {
                        reason: "arrival schedule must be non-decreasing".into(),
                    });
                }
                explicit.clone()
            }
            None => (0..instances).map(|k| k as Step * interval).collect(),
        };
        let seeds: Vec<u64> = match &self.service_value_seeds {
            Some(explicit) => {
                if explicit.len() != instances {
                    return Err(ScenarioError::ServiceSpecInvalid {
                        reason: format!(
                            "value-seed override has {} entries for {instances} instances",
                            explicit.len()
                        ),
                    });
                }
                explicit.clone()
            }
            None => (0..instances).map(|k| instance_seed(seed, k)).collect(),
        };
        Ok(seeds.into_iter().zip(arrivals).collect())
    }

    /// Executes the scenario in sustained-service mode: the instance
    /// count and offered load set by [`Scenario::service`], chained over
    /// one persistent engine session and one shared AER arena.
    ///
    /// Instance `0` runs with the service seed itself (so a 1-instance
    /// service run is bit-identical to [`Scenario::run`] — pinned by the
    /// equivalence suite); instance `k > 0` runs with
    /// `instance_seed(seed, k)`. The corrupt coalition is drawn from the
    /// service seed for *every* instance, so the same nodes stay corrupt
    /// across the whole run.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::UnsupportedService`] for non-AER phases,
    /// [`ScenarioError::ServiceSpecInvalid`] for inconsistent service
    /// specs, and the usual config errors.
    pub fn run_service(&self, seed: u64) -> Result<ServiceRun, ScenarioError> {
        self.validate()?;
        self.require_aer()?;
        let schedule = self.service_schedule(seed)?;
        let mut session = self.session();
        let mut state: Option<AerRunState> = None;
        let mut totals = MetricsTotals::new();
        let mut instances = Vec::with_capacity(schedule.len());
        let mut clock: Step = 0;
        for (k, (inst_seed, arrived_at)) in schedule.into_iter().enumerate() {
            let started_at = if k == 0 {
                arrived_at
            } else {
                arrived_at.max(clock + 1)
            };
            let run =
                self.run_aer_instance(inst_seed, seed, &mut NullObserver, &mut state, &mut session);
            totals.absorb(&run.run.metrics);
            let finished_at = started_at + run.run.metrics.steps;
            clock = finished_at;
            instances.push(ServiceInstance {
                seed: inst_seed,
                arrived_at,
                started_at,
                finished_at,
                run,
            });
        }
        // The persistent arena carries the whole run's cache stats.
        let state = state.expect("at least one instance ran");
        Ok(ServiceRun {
            instances,
            totals,
            total_steps: clock,
            push_cache_stats: state.push_cache_stats(),
            pull_cache_stats: state.pull_cache_stats(),
            poll_cache_stats: state.poll_cache_stats(),
        })
    }

    fn run_ae(&self, seed: u64) -> Result<AeRun, ScenarioError> {
        let config = AeConfig::recommended(self.n);
        let mut adversary = self
            .adversary
            .generic(self.faults.unwrap_or_else(|| self.default_faults()))
            .ok_or(ScenarioError::UnsupportedAdversary {
                spec: self.adversary.clone(),
                phase: "almost-everywhere",
            })?;
        let outcome = run_ae_with(
            &config,
            seed,
            &mut adversary,
            &self.rigged,
            self.rigged_value,
        );
        Ok(AeRun { outcome, config })
    }

    fn run_composed(&self, seed: u64) -> Result<ComposedRun, ScenarioError> {
        // Start from the harness's own composed defaults (which couple
        // the two phases' string lengths), then overlay the scenario's
        // AER knobs and re-assert the coupling — no default is restated
        // here.
        let mut config = BaConfig::recommended(self.n);
        config.aer = self.aer_config()?;
        config.ae.string_len = config.aer.string_len;
        let mut ae_adversary = self
            .ae_adversary
            .generic(self.faults.unwrap_or(config.aer.t))
            .ok_or(ScenarioError::UnsupportedAdversary {
                spec: self.ae_adversary.clone(),
                phase: "almost-everywhere",
            })?;
        let aer_engine = match self.network {
            NetworkSpec::Sync => None,
            NetworkSpec::Async { max_delay } => {
                let mut engine = config.aer.engine_async(max_delay);
                engine.record_transcript = self.record_transcript;
                if let Some(max_steps) = self.max_steps {
                    engine.max_steps = max_steps;
                }
                Some(engine)
            }
        };
        let (report, ae_outcome, aer_run) = run_ba(
            &config,
            seed,
            &mut ae_adversary,
            |harness, gstring| self.aer_adversary_for(harness, gstring, seed),
            aer_engine,
        );
        Ok(ComposedRun {
            report,
            ae: ae_outcome,
            aer: aer_run,
            config,
        })
    }

    fn baseline_engine(&self, default_max_steps: Step) -> EngineConfig {
        let base = match self.network {
            NetworkSpec::Sync => EngineConfig::sync(self.n),
            NetworkSpec::Async { max_delay } => EngineConfig::asynchronous(self.n, max_delay),
        };
        EngineConfig {
            max_steps: self.max_steps.unwrap_or(default_max_steps),
            record_transcript: self.record_transcript,
            ..base
        }
    }

    fn run_baseline(&self, baseline: Baseline, seed: u64) -> Result<BaselineRun, ScenarioError> {
        let default_t = match baseline {
            Baseline::BenOr { .. } => BenOrParams::recommended(self.n).t,
            Baseline::PhaseKing => KingParams::recommended(self.n).t / 2,
            _ => self.default_faults(),
        };
        let mut adversary = self
            .adversary
            .generic(self.faults.unwrap_or(default_t))
            .ok_or(ScenarioError::UnsupportedAdversary {
                spec: self.adversary.clone(),
                phase: "baseline",
            })?;

        let diffusion_pre = |spec: PreconditionSpec| {
            let string_len = AerConfig::recommended(self.n).string_len;
            Precondition::synthetic(self.n, string_len, spec.knowing, spec.assignment, seed)
        };

        Ok(match baseline {
            Baseline::Klst { precondition } => {
                let pre = diffusion_pre(precondition);
                let params = KlstParams::recommended(self.n);
                let engine = self.baseline_engine(params.schedule_len() + 8);
                let run = fba_sim::run::<KlstNode, _, _>(&engine, seed, &mut adversary, |id| {
                    KlstNode::new(params, pre.assignments[id.index()])
                });
                BaselineRun {
                    outcome: BaselineOutcome::Klst(run),
                    precondition: Some(pre),
                    inputs: None,
                }
            }
            Baseline::Flood { precondition } => {
                let pre = diffusion_pre(precondition);
                let engine = self.baseline_engine(EngineConfig::sync(self.n).max_steps);
                let run = fba_sim::run::<FloodNode, _, _>(&engine, seed, &mut adversary, |id| {
                    FloodNode::new(pre.assignments[id.index()])
                });
                BaselineRun {
                    outcome: BaselineOutcome::Flood(run),
                    precondition: Some(pre),
                    inputs: None,
                }
            }
            Baseline::BenOr { bias } => {
                let params = BenOrParams::recommended(self.n);
                let inputs = self.inputs.clone().unwrap_or_else(|| {
                    let mut rng = derive_rng(seed, &[0xb0]);
                    (0..self.n).map(|_| rng.gen_bool(bias)).collect()
                });
                let engine = self.baseline_engine(400);
                let run = fba_sim::run::<BenOrNode, _, _>(&engine, seed, &mut adversary, |id| {
                    BenOrNode::new(params, self.n, inputs[id.index()])
                });
                BaselineRun {
                    outcome: BaselineOutcome::BenOr(run),
                    precondition: None,
                    inputs: Some(inputs),
                }
            }
            Baseline::PhaseKing => {
                let params = KingParams::recommended(self.n);
                let inputs = self.inputs.clone().unwrap_or_else(|| {
                    let mut rng = derive_rng(seed, &[0xb1]);
                    (0..self.n).map(|_| rng.gen()).collect()
                });
                let engine = self.baseline_engine(params.schedule_len() + 8);
                let run = fba_sim::run::<KingNode, _, _>(&engine, seed, &mut adversary, |id| {
                    KingNode::new(params, self.n, inputs[id.index()])
                });
                BaselineRun {
                    outcome: BaselineOutcome::King(run),
                    precondition: None,
                    inputs: Some(inputs),
                }
            }
        })
    }
}

/// What a finished scenario produced, by phase.
// One value exists per executed run and is consumed immediately by an
// `into_*` accessor, so the variant size spread is irrelevant.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug)]
pub enum ScenarioOutcome {
    /// An AER run on a synthetic precondition.
    Aer(AerRun),
    /// An almost-everywhere run.
    Ae(AeRun),
    /// A composed end-to-end BA run.
    Composed(ComposedRun),
    /// A baseline-protocol run.
    Baseline(BaselineRun),
}

impl ScenarioOutcome {
    /// The AER outcome.
    ///
    /// # Panics
    ///
    /// Panics if the scenario ran a different phase.
    #[must_use]
    pub fn into_aer(self) -> AerRun {
        match self {
            ScenarioOutcome::Aer(run) => run,
            other => panic!("expected an AER outcome, got {}", other.phase_name()),
        }
    }

    /// The almost-everywhere outcome.
    ///
    /// # Panics
    ///
    /// Panics if the scenario ran a different phase.
    #[must_use]
    pub fn into_ae(self) -> AeRun {
        match self {
            ScenarioOutcome::Ae(run) => run,
            other => panic!("expected an AE outcome, got {}", other.phase_name()),
        }
    }

    /// The composed BA outcome.
    ///
    /// # Panics
    ///
    /// Panics if the scenario ran a different phase.
    #[must_use]
    pub fn into_composed(self) -> ComposedRun {
        match self {
            ScenarioOutcome::Composed(run) => run,
            other => panic!("expected a composed outcome, got {}", other.phase_name()),
        }
    }

    /// The baseline outcome.
    ///
    /// # Panics
    ///
    /// Panics if the scenario ran a different phase.
    #[must_use]
    pub fn into_baseline(self) -> BaselineRun {
        match self {
            ScenarioOutcome::Baseline(run) => run,
            other => panic!("expected a baseline outcome, got {}", other.phase_name()),
        }
    }

    fn phase_name(&self) -> &'static str {
        match self {
            ScenarioOutcome::Aer(_) => "aer",
            ScenarioOutcome::Ae(_) => "ae",
            ScenarioOutcome::Composed(_) => "composed",
            ScenarioOutcome::Baseline(_) => "baseline",
        }
    }
}

/// Outcome of a [`Phase::Aer`] scenario: the simulator outcome plus
/// everything the builder derived to produce it.
#[derive(Clone, Debug)]
pub struct AerRun {
    /// The simulator outcome (metrics, outputs, corrupt set, transcript).
    pub run: RunOutcome<GString, AerMsg>,
    /// The synthesised precondition the run started from.
    pub precondition: Precondition,
    /// The derived AER configuration.
    pub config: AerConfig,
    /// The engine configuration the run executed under.
    pub engine: EngineConfig,
    /// The cornering attack's report, when the adversary was `corner`.
    pub corner: Option<CornerReport>,
}

impl AerRun {
    /// The global string the correct nodes should decide.
    #[must_use]
    pub fn gstring(&self) -> &GString {
        &self.precondition.gstring
    }

    /// Number of correct nodes that decided a non-`gstring` value.
    #[must_use]
    pub fn wrong_decisions(&self) -> usize {
        let g = &self.precondition.gstring;
        self.run.outputs.values().filter(|v| *v != g).count()
    }

    /// Number of correct nodes in the run.
    #[must_use]
    pub fn correct_nodes(&self) -> usize {
        self.config.n - self.run.corrupt.len()
    }

    /// The rejoin-cost accounting for the crash plan this run executed
    /// (set by [`Scenario::faults_spec`]), or `None` for crash-free runs.
    #[must_use]
    pub fn rejoin(&self) -> Option<RejoinReport> {
        self.engine
            .crash
            .as_ref()
            .map(|plan| rejoin_report(plan, &self.run.metrics))
    }
}

/// One instance of a [`Scenario::run_service`] run: the agreement
/// outcome plus its position on the service clock.
#[derive(Clone, Debug)]
pub struct ServiceInstance {
    /// The value seed this instance ran with (`instance_seed(seed, k)`
    /// unless overridden) — replay it standalone with
    /// [`Scenario::run_instance`].
    pub seed: u64,
    /// The step the client value arrived (offered-load schedule).
    pub arrived_at: Step,
    /// The step the instance actually started (arrival, or right after
    /// the previous instance finished, whichever is later).
    pub started_at: Step,
    /// The step the instance finished (`started_at + steps`).
    pub finished_at: Step,
    /// The full per-instance outcome.
    pub run: AerRun,
}

impl ServiceInstance {
    /// Steps the value waited in the admission queue before starting.
    #[must_use]
    pub fn queue_delay(&self) -> Step {
        self.started_at - self.arrived_at
    }
}

/// Outcome of a [`Scenario::run_service`] run: every chained instance,
/// run-cumulative totals, and the shared-state cache counters that prove
/// the persistent arenas were actually reused.
#[derive(Clone, Debug)]
pub struct ServiceRun {
    /// Per-instance outcomes, in arrival order.
    pub instances: Vec<ServiceInstance>,
    /// Run-cumulative metrics (sums of the per-instance views).
    pub totals: MetricsTotals,
    /// The service clock when the last instance finished.
    pub total_steps: Step,
    /// Push-quorum cache `(hits, misses)` over the whole run.
    pub push_cache_stats: (u64, u64),
    /// Pull-quorum cache `(hits, misses)` over the whole run.
    pub pull_cache_stats: (u64, u64),
    /// Poll-list cache `(hits, misses)` over the whole run.
    pub poll_cache_stats: (u64, u64),
}

impl ServiceRun {
    /// The corrupt coalition (identical in every instance — pinned by
    /// the service adversary seed).
    #[must_use]
    pub fn corrupt(&self) -> &BTreeSet<NodeId> {
        &self.instances[0].run.run.corrupt
    }

    /// Number of instances in which every correct node decided.
    #[must_use]
    pub fn decided_instances(&self) -> u64 {
        self.totals.decided_instances()
    }

    /// The minimum, over instances, of the fraction of correct nodes
    /// that decided.
    #[must_use]
    pub fn min_decided_fraction(&self) -> f64 {
        self.instances
            .iter()
            .map(|inst| inst.run.run.metrics.decided_fraction())
            .fold(1.0, f64::min)
    }

    /// Whether every instance decided unanimously on its `gstring`.
    #[must_use]
    pub fn all_unanimous(&self) -> bool {
        self.instances.iter().all(|inst| {
            inst.run
                .run
                .unanimous()
                .is_some_and(|v| v == inst.run.gstring())
        })
    }

    /// Decisions per thousand service-clock steps — the sustained
    /// throughput headline (`decisions` counts every correct node that
    /// decided, summed over instances).
    #[must_use]
    pub fn decisions_per_kilostep(&self) -> f64 {
        if self.total_steps == 0 {
            return 0.0;
        }
        self.totals.decisions() as f64 * 1000.0 / self.total_steps as f64
    }
}

/// Outcome of a [`Phase::Ae`] scenario.
#[derive(Clone, Debug)]
pub struct AeRun {
    /// The distilled almost-everywhere outcome.
    pub outcome: AeOutcome,
    /// The configuration the phase ran under.
    pub config: AeConfig,
}

/// Outcome of a [`Phase::Composed`] scenario.
#[derive(Clone, Debug)]
pub struct ComposedRun {
    /// The end-to-end summary.
    pub report: BaReport,
    /// The almost-everywhere phase outcome.
    pub ae: AeOutcome,
    /// The AER phase simulator outcome.
    pub aer: RunOutcome<GString, AerMsg>,
    /// The composed configuration.
    pub config: BaConfig,
}

/// Outcome of a [`Phase::Baseline`] scenario.
#[derive(Clone, Debug)]
pub struct BaselineRun {
    /// The typed simulator outcome.
    pub outcome: BaselineOutcome,
    /// The shared starting state, for the diffusion baselines.
    pub precondition: Option<Precondition>,
    /// The per-node binary inputs, for the agreement baselines.
    pub inputs: Option<Vec<bool>>,
}

/// The four baseline protocols' simulator outcomes.
#[derive(Clone, Debug)]
pub enum BaselineOutcome {
    /// KLST11-style diffusion.
    Klst(RunOutcome<GString, KlstMsg>),
    /// Flooding diffusion.
    Flood(RunOutcome<GString, FloodMsg>),
    /// Ben-Or randomized agreement.
    BenOr(RunOutcome<bool, BenOrMsg>),
    /// Phase-King deterministic agreement.
    King(RunOutcome<bool, KingMsg>),
}

impl BaselineOutcome {
    /// The run's communication/time accounting.
    #[must_use]
    pub fn metrics(&self) -> &Metrics {
        match self {
            BaselineOutcome::Klst(r) => &r.metrics,
            BaselineOutcome::Flood(r) => &r.metrics,
            BaselineOutcome::BenOr(r) => &r.metrics,
            BaselineOutcome::King(r) => &r.metrics,
        }
    }

    /// Step at which the last correct node decided, if all did.
    #[must_use]
    pub fn all_decided_at(&self) -> Option<Step> {
        match self {
            BaselineOutcome::Klst(r) => r.all_decided_at,
            BaselineOutcome::Flood(r) => r.all_decided_at,
            BaselineOutcome::BenOr(r) => r.all_decided_at,
            BaselineOutcome::King(r) => r.all_decided_at,
        }
    }

    /// Whether every correct node decided.
    #[must_use]
    pub fn all_decided(&self) -> bool {
        self.all_decided_at().is_some()
    }

    /// The diffusion outcome (KLST or flooding).
    ///
    /// # Panics
    ///
    /// Panics on the binary-agreement baselines.
    #[must_use]
    pub fn unanimous_gstring(&self) -> Option<&GString> {
        match self {
            BaselineOutcome::Klst(r) => r.unanimous(),
            BaselineOutcome::Flood(r) => r.unanimous(),
            _ => panic!("binary baselines do not decide gstrings"),
        }
    }

    /// The binary-agreement outcome (Ben-Or or Phase-King).
    ///
    /// # Panics
    ///
    /// Panics on the diffusion baselines.
    #[must_use]
    pub fn unanimous_bit(&self) -> Option<bool> {
        match self {
            BaselineOutcome::BenOr(r) => r.unanimous().copied(),
            BaselineOutcome::King(r) => r.unanimous().copied(),
            _ => panic!("diffusion baselines do not decide bits"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fba_sim::{FinalInspect, NoAdversary, SilentAdversary};

    #[test]
    fn aer_scenario_matches_hand_wired_construction() {
        let n = 64;
        let seed = 7;
        let scenario_run = Scenario::new(n)
            .adversary(AdversarySpec::Silent { t: None })
            .phase(Phase::aer(0.8))
            .run(seed)
            .expect("valid")
            .into_aer();

        let cfg = AerConfig::recommended(n);
        let pre = Precondition::synthetic(
            n,
            cfg.string_len,
            0.8,
            UnknowingAssignment::RandomPerNode,
            seed,
        );
        let h = AerHarness::from_precondition(cfg, &pre);
        let hand = h.run(&h.engine_sync(), seed, &mut SilentAdversary::new(cfg.t));

        assert_eq!(scenario_run.run.outputs, hand.outputs);
        assert_eq!(scenario_run.run.corrupt, hand.corrupt);
        assert_eq!(scenario_run.run.all_decided_at, hand.all_decided_at);
        assert_eq!(
            scenario_run.run.metrics.total_bits_sent(),
            hand.metrics.total_bits_sent()
        );
    }

    #[test]
    fn async_network_uses_the_async_engine() {
        let run = Scenario::new(32)
            .network(NetworkSpec::Async { max_delay: 3 })
            .run(1)
            .expect("valid")
            .into_aer();
        assert_eq!(run.engine.max_delay, 3);
        assert_eq!(run.engine.max_steps, 400);
        assert!(run.run.all_decided());
    }

    #[test]
    fn delay_scaled_timeout_multiplies_the_horizon() {
        let sync = Scenario::new(32)
            .poll_timeout(PollTimeoutSpec::DelayScaled)
            .run(1)
            .expect("valid")
            .into_aer();
        assert_eq!(sync.config.poll_timeout, AerConfig::sync_poll_horizon());

        let scaled = Scenario::new(32)
            .network(NetworkSpec::Async { max_delay: 3 })
            .poll_timeout(PollTimeoutSpec::DelayScaled)
            .run(1)
            .expect("valid")
            .into_aer();
        assert_eq!(
            scaled.config.poll_timeout,
            3 * AerConfig::sync_poll_horizon()
        );
        assert!(scaled.run.all_decided());

        let fixed = Scenario::new(32)
            .poll_timeout(PollTimeoutSpec::Fixed(8))
            .run(1)
            .expect("valid")
            .into_aer();
        assert_eq!(fixed.config.poll_timeout, 8);
    }

    #[test]
    fn aer_specific_adversaries_are_rejected_off_aer_phases() {
        for phase in [
            Phase::Ae,
            Phase::Baseline(Baseline::Flood {
                precondition: PreconditionSpec::default(),
            }),
        ] {
            let err = Scenario::new(32)
                .adversary(AdversarySpec::PushFlood)
                .phase(phase)
                .run(1)
                .unwrap_err();
            assert!(matches!(err, ScenarioError::UnsupportedAdversary { .. }));
            assert!(err.to_string().contains("flood"));
        }
        // The composed phase rejects AER-specific *AE-phase* strategies…
        let err = Scenario::new(32)
            .ae_adversary(AdversarySpec::BadString)
            .phase(Phase::Composed)
            .run(1)
            .unwrap_err();
        assert!(matches!(err, ScenarioError::UnsupportedAdversary { .. }));
        // …but fields them happily in its AER phase.
        let ok = Scenario::new(32)
            .adversary(AdversarySpec::BadString)
            .phase(Phase::Composed)
            .run(1);
        assert!(ok.is_ok());
    }

    #[test]
    fn invalid_config_knobs_surface_as_errors() {
        let err = Scenario::new(32).quorum_size(2).run(1).unwrap_err();
        assert!(matches!(err, ScenarioError::Config(_)));
        assert!(err.to_string().contains("quorum"));
    }

    #[test]
    fn observer_sees_decisions_and_final_states() {
        let mut finals = 0usize;
        let out = {
            let mut inspect = FinalInspect(|_id: NodeId, _node: &AerNode| finals += 1);
            Scenario::new(32)
                .run_observed(3, &mut inspect)
                .expect("valid")
                .into_aer()
        };
        assert_eq!(finals, 32, "every surviving node is inspected");
        assert!(out.run.all_decided());
    }

    #[test]
    fn composed_scenario_matches_hand_wired_run_ba() {
        let n = 48;
        let seed = 9;
        let t = n / 8;
        let composed = Scenario::new(n)
            .faults(t)
            .adversary(AdversarySpec::Silent { t: None })
            .ae_adversary(AdversarySpec::Silent { t: None })
            .phase(Phase::Composed)
            .run(seed)
            .expect("valid")
            .into_composed();

        let cfg = BaConfig::recommended(n);
        let mut ae_adv = SilentAdversary::new(t);
        let (report, _, aer_run) = run_ba(
            &cfg,
            seed,
            &mut ae_adv,
            |_, _| SilentAdversary::new(t),
            None,
        );
        assert_eq!(composed.aer.outputs, aer_run.outputs);
        assert_eq!(composed.report.ae_rounds, report.ae_rounds);
        assert_eq!(composed.report.aer_rounds, report.aer_rounds);
    }

    #[test]
    fn baseline_flood_diffuses_gstring() {
        let run = Scenario::new(32)
            .phase(Phase::Baseline(Baseline::Flood {
                precondition: PreconditionSpec::default(),
            }))
            .run(5)
            .expect("valid")
            .into_baseline();
        let pre = run.precondition.as_ref().expect("diffusion precondition");
        assert_eq!(run.outcome.unanimous_gstring(), Some(&pre.gstring));
        assert!(run.outcome.all_decided());
    }

    #[test]
    fn baseline_inputs_override_is_honoured() {
        let n = 24;
        let inputs = vec![true; n];
        let run = Scenario::new(n)
            .phase(Phase::Baseline(Baseline::PhaseKing))
            .inputs(inputs.clone())
            .run(2)
            .expect("valid")
            .into_baseline();
        assert_eq!(run.inputs.as_deref(), Some(&inputs[..]));
        assert_eq!(run.outcome.unanimous_bit(), Some(true), "validity");
    }

    #[test]
    fn ae_phase_runs_and_reports_knowledge() {
        let run = Scenario::new(64)
            .phase(Phase::Ae)
            .run(11)
            .expect("valid")
            .into_ae();
        assert!(run.outcome.knowing_fraction > 0.75);
        assert_eq!(run.config.n, 64);
    }

    #[test]
    fn corner_report_is_surfaced() {
        let run = Scenario::new(64)
            .strict()
            .network(NetworkSpec::Async { max_delay: 1 })
            .adversary(AdversarySpec::Corner { label_scan: 64 })
            .run(5)
            .expect("valid")
            .into_aer();
        let report = run.corner.expect("corner adversary reports");
        assert!(report.overload_targets > 0 || report.blocked_victims == 0);
    }

    #[test]
    fn composed_fault_schedules_run_and_surface_window_state() {
        // A schedule mixing three strategies: push flood at the start,
        // equivocation in the middle, cornering from step 4 on. The
        // builder accepts it exactly where any spec goes.
        let sched: AdversarySpec = "sched:[0..1]flood;[1..4]equivocate:4;[4..]corner:64"
            .parse()
            .expect("schedule parses");
        let run = Scenario::new(64)
            .adversary(sched)
            .network(NetworkSpec::Async { max_delay: 1 })
            .phase(Phase::aer(0.8))
            .run(9)
            .expect("valid scenario")
            .into_aer();
        // Safety holds across the whole schedule…
        assert_eq!(run.wrong_decisions(), 0);
        assert!(run.run.all_decided(), "everyone decides");
        // …and the corner window's post-run state is preserved.
        assert!(
            run.corner.is_some(),
            "corner report must surface from the schedule window"
        );
    }

    #[test]
    fn validate_preflights_without_running() {
        // A sound scenario validates…
        Scenario::new(64)
            .adversary(AdversarySpec::Silent { t: None })
            .phase(Phase::aer(0.8))
            .validate()
            .expect("sound scenario validates");
        // …and validate() raises exactly the rejections run() would:
        // an invalid config derivation…
        let err = Scenario::new(64).quorum_size(0).validate().unwrap_err();
        assert!(matches!(err, ScenarioError::Config(_)), "{err}");
        // …and a schedule whose windows disagree on the budget.
        let sched: AdversarySpec = "sched:[0..2]silent:3;[2..]flood".parse().expect("parses");
        let err = Scenario::new(64).adversary(sched).validate().unwrap_err();
        assert!(
            matches!(err, ScenarioError::ScheduleBudgetMismatch { .. }),
            "{err}"
        );
        // `none` windows are budget-exempt: an attack-then-quiet
        // schedule (the recovery battery shape) validates.
        let sched: AdversarySpec = "sched:[0..3]flood;[3..]none".parse().expect("parses");
        Scenario::new(64)
            .adversary(sched)
            .validate()
            .expect("quiet tail window validates");
        // Non-AER phases are covered too: the AE phase only accepts
        // generic adversaries…
        let err = Scenario::new(64)
            .phase(Phase::Ae)
            .adversary(AdversarySpec::PushFlood)
            .validate()
            .unwrap_err();
        assert!(
            matches!(err, ScenarioError::UnsupportedAdversary { .. }),
            "{err}"
        );
        // …and a composed run derives the AER config and checks its AE
        // adversary, exactly as run() would.
        let err = Scenario::new(64)
            .phase(Phase::Composed)
            .quorum_size(0)
            .validate()
            .unwrap_err();
        assert!(matches!(err, ScenarioError::Config(_)), "{err}");
        let err = Scenario::new(64)
            .phase(Phase::Composed)
            .ae_adversary(AdversarySpec::PushFlood)
            .validate()
            .unwrap_err();
        assert!(
            matches!(err, ScenarioError::UnsupportedAdversary { .. }),
            "{err}"
        );
    }

    #[test]
    fn mismatched_schedule_budgets_are_rejected() {
        // silent:3 next to a default-budget flood window would draw two
        // different coalitions (and corrupt more than the declared fault
        // bound); the builder rejects it before anything runs.
        let sched: AdversarySpec = "sched:[0..2]silent:3;[2..]flood".parse().expect("parses");
        let err = Scenario::new(64).adversary(sched).run(1).unwrap_err();
        assert!(
            matches!(err, ScenarioError::ScheduleBudgetMismatch { .. }),
            "{err}"
        );
        assert!(err.to_string().contains("coalition"), "{err}");

        // …but the same schedule with the fault budget aligned is fine —
        // silent:<t> overrides and .faults() agree on one coalition.
        let sched: AdversarySpec = "sched:[0..2]silent:3;[2..]flood".parse().expect("parses");
        let run = Scenario::new(64)
            .adversary(sched)
            .faults(3)
            .run(1)
            .expect("aligned budgets are valid")
            .into_aer();
        assert_eq!(run.run.corrupt.len(), 3, "one coalition of 3");
        assert_eq!(run.wrong_decisions(), 0);

        // `none` windows are exempt: they corrupt nobody.
        let sched: AdversarySpec = "sched:[0..2]none;[2..]silent:5".parse().expect("parses");
        assert!(Scenario::new(64).adversary(sched).run(1).is_ok());
    }

    #[test]
    fn schedules_are_rejected_off_aer_phases() {
        let sched: AdversarySpec = "sched:[0..]silent".parse().expect("parses");
        let err = Scenario::new(32)
            .adversary(sched)
            .phase(Phase::Ae)
            .run(1)
            .unwrap_err();
        assert!(matches!(err, ScenarioError::UnsupportedAdversary { .. }));
        assert!(err.to_string().contains("sched"));
    }

    #[test]
    fn phase_grammar_parses_and_displays() {
        for (text, want) in [
            ("aer", "aer"),
            ("ae", "ae"),
            ("composed", "composed"),
            ("baseline:klst", "baseline:klst"),
            ("baseline:flood", "baseline:flood"),
            ("baseline:benor", "baseline:benor"),
            ("baseline:phase-king", "baseline:phase-king"),
        ] {
            let phase: Phase = text.parse().expect(text);
            assert_eq!(phase.to_string(), want);
        }
        assert!("baseline:raft".parse::<Phase>().is_err());
        assert!("tcp".parse::<Phase>().is_err());
    }

    #[test]
    fn record_transcript_populates_the_outcome() {
        let run = Scenario::new(32)
            .record_transcript(true)
            .run(3)
            .expect("valid")
            .into_aer();
        assert!(!run.run.transcript.is_empty());

        let bare = Scenario::new(32).run(3).expect("valid").into_aer();
        assert!(bare.run.transcript.is_empty());
        // Transcript recording is observation-only.
        assert_eq!(run.run.outputs, bare.run.outputs);
    }

    #[test]
    fn bad_string_defaults_to_the_shared_bogus_block() {
        let n = 48;
        let seed = 13;
        let run = Scenario::new(n)
            .adversary(AdversarySpec::BadString)
            .phase(Phase::aer_with(0.8, UnknowingAssignment::SharedAdversarial))
            .run(seed)
            .expect("valid")
            .into_aer();
        // No correct node may decide the campaign string (Lemma 7).
        assert_eq!(run.wrong_decisions(), 0);

        // Hand-wired equivalent with the explicit shared bogus string.
        let cfg = AerConfig::recommended(n);
        let pre = Precondition::synthetic(
            n,
            cfg.string_len,
            0.8,
            UnknowingAssignment::SharedAdversarial,
            seed,
        );
        let h = AerHarness::from_precondition(cfg, &pre);
        let bad = *pre
            .assignments
            .iter()
            .find(|s| **s != pre.gstring)
            .expect("bogus exists");
        let ctx = AttackContext::new(&h, pre.gstring);
        let mut adv = fba_core::adversary::BadString::new(ctx, bad);
        let hand = h.run(&h.engine_sync(), seed, &mut adv);
        assert_eq!(run.run.outputs, hand.outputs);
    }

    #[test]
    fn fault_free_default_is_no_adversary() {
        let n = 32;
        let seed = 2;
        let scenario = Scenario::new(n).run(seed).expect("valid").into_aer();
        let cfg = AerConfig::recommended(n);
        let pre = Precondition::synthetic(
            n,
            cfg.string_len,
            0.8,
            UnknowingAssignment::RandomPerNode,
            seed,
        );
        let h = AerHarness::from_precondition(cfg, &pre);
        let hand = h.run(&h.engine_sync(), seed, &mut NoAdversary);
        assert_eq!(scenario.run.outputs, hand.outputs);
        assert!(scenario.run.corrupt.is_empty());
        assert_eq!(scenario.correct_nodes(), n);
    }

    #[test]
    fn one_instance_service_run_is_the_plain_run() {
        let scenario = Scenario::new(48)
            .adversary(AdversarySpec::Silent { t: None })
            .record_transcript(true)
            .service(1, 10);
        let service = scenario.run_service(9).expect("valid");
        let plain = scenario.run(9).expect("valid").into_aer();
        assert_eq!(service.instances.len(), 1);
        let inst = &service.instances[0];
        assert_eq!(inst.seed, 9);
        assert_eq!(inst.run.run.outputs, plain.run.outputs);
        assert_eq!(inst.run.run.corrupt, plain.run.corrupt);
        assert_eq!(inst.run.run.metrics, plain.run.metrics);
        assert_eq!(inst.run.run.transcript, plain.run.transcript);
    }

    #[test]
    fn service_chains_instances_and_pins_the_coalition() {
        let service = Scenario::new(48)
            .adversary(AdversarySpec::Silent { t: None })
            .service(3, 5)
            .run_service(21)
            .expect("valid");
        assert_eq!(service.instances.len(), 3);
        assert_eq!(service.decided_instances(), 3);
        assert!(service.all_unanimous());
        assert_eq!(service.min_decided_fraction(), 1.0);
        // One coalition for the whole run, distinct value seeds.
        for inst in &service.instances {
            assert_eq!(&inst.run.run.corrupt, service.corrupt());
        }
        assert_ne!(service.instances[0].seed, service.instances[1].seed);
        // The service clock is consistent: arrivals every 5 steps, each
        // instance starts no earlier than its arrival and after its
        // predecessor finishes.
        let mut prev_finish = None;
        for (k, inst) in service.instances.iter().enumerate() {
            assert_eq!(inst.arrived_at, k as Step * 5);
            assert!(inst.started_at >= inst.arrived_at);
            if let Some(prev) = prev_finish {
                assert!(inst.started_at > prev);
            }
            assert_eq!(
                inst.finished_at,
                inst.started_at + inst.run.run.metrics.steps
            );
            prev_finish = Some(inst.finished_at);
        }
        assert_eq!(service.total_steps, prev_finish.unwrap());
        // The persistent caches were actually exercised.
        assert!(service.poll_cache_stats.0 > 0, "poll cache never hit");
    }

    #[test]
    fn service_totals_sum_the_per_instance_metrics() {
        let service = Scenario::new(32)
            .service(2, 1)
            .run_service(4)
            .expect("valid");
        let msgs: u64 = service
            .instances
            .iter()
            .map(|i| i.run.run.metrics.total_msgs_sent())
            .sum();
        assert_eq!(service.totals.total_msgs_sent(), msgs);
        assert_eq!(service.totals.instances(), 2);
    }

    #[test]
    fn bad_service_specs_are_rejected() {
        let err = Scenario::new(32).run_service(1).unwrap_err();
        assert!(matches!(err, ScenarioError::ServiceSpecInvalid { .. }));
        let err = Scenario::new(32).service(0, 1).run_service(1).unwrap_err();
        assert!(matches!(err, ScenarioError::ServiceSpecInvalid { .. }));
        let err = Scenario::new(32)
            .service(2, 1)
            .service_arrivals(vec![0])
            .run_service(1)
            .unwrap_err();
        assert!(err.to_string().contains("entries"));
        let err = Scenario::new(32)
            .service(2, 1)
            .service_arrivals(vec![5, 1])
            .run_service(1)
            .unwrap_err();
        assert!(err.to_string().contains("non-decreasing"));
        let err = Scenario::new(32)
            .service(2, 1)
            .service_value_seeds(vec![1, 2, 3])
            .run_service(1)
            .unwrap_err();
        assert!(matches!(err, ScenarioError::ServiceSpecInvalid { .. }));
        let err = Scenario::new(32)
            .phase(Phase::Ae)
            .service(2, 1)
            .run_service(1)
            .unwrap_err();
        assert!(matches!(err, ScenarioError::UnsupportedService { .. }));
    }

    #[test]
    fn crash_schedule_crashes_and_recovers() {
        let run = Scenario::new(64)
            .faults_spec("crash:[2..8]8".parse().expect("parses"))
            .run(11)
            .expect("valid")
            .into_aer();
        assert!(run.run.metrics.msgs_dropped() > 0, "victims went dark");
        assert!(run.run.all_decided(), "restarted nodes catch up");
        assert_eq!(run.run.unanimous(), Some(run.gstring()));
        let rejoin = run.rejoin().expect("crash plan ran");
        assert!(rejoin.all_rejoined());
        assert!(rejoin.max_rejoin_steps().is_some());
    }

    #[test]
    fn empty_crash_spec_is_bit_identical_to_baseline() {
        let baseline = Scenario::new(48).run(7).expect("valid").into_aer();
        let empty = Scenario::new(48)
            .faults_spec(CrashSpec::none())
            .run(7)
            .expect("valid")
            .into_aer();
        assert_eq!(empty.run.outputs, baseline.run.outputs);
        assert_eq!(empty.run.metrics, baseline.run.metrics);
        assert!(empty.rejoin().is_none(), "no plan was injected");
    }

    #[test]
    fn crash_specs_are_validated() {
        // A window crashing more nodes than the system has…
        let err = Scenario::new(16)
            .faults_spec("crash:[2..5]64".parse().expect("parses"))
            .validate()
            .unwrap_err();
        assert!(
            matches!(err, ScenarioError::CrashSpecInvalid { .. }),
            "{err}"
        );
        assert!(err.to_string().contains("only has 16"), "{err}");
        // …and a phase the crash engine does not drive are rejected, by
        // validate() and the run entry points alike.
        let err = Scenario::new(64)
            .phase(Phase::Ae)
            .faults_spec("crash:[2..5]4".parse().expect("parses"))
            .run(1)
            .unwrap_err();
        assert!(
            matches!(err, ScenarioError::CrashSpecInvalid { .. }),
            "{err}"
        );
    }

    #[test]
    fn service_run_survives_crash_windows() {
        let service = Scenario::new(48)
            .faults_spec("crash:[2..7]6".parse().expect("parses"))
            .service(3, 5)
            .run_service(21)
            .expect("valid");
        assert_eq!(service.decided_instances(), 3);
        assert!(service.all_unanimous());
        assert_eq!(service.min_decided_fraction(), 1.0);
        // The victim set is drawn from the coalition seed: identical in
        // every instance of the run.
        let plans: Vec<_> = service
            .instances
            .iter()
            .map(|inst| inst.run.engine.crash.clone().expect("plan injected"))
            .collect();
        assert!(plans.windows(2).all(|w| w[0] == w[1]));
        // Every instance dropped traffic into the dark window and still
        // rejoined all victims.
        for inst in &service.instances {
            assert!(inst.run.run.metrics.msgs_dropped() > 0);
            assert!(inst.run.rejoin().expect("plan ran").all_rejoined());
        }
    }

    #[test]
    fn run_instance_with_matching_seeds_is_run() {
        let scenario = Scenario::new(32).adversary(AdversarySpec::Silent { t: None });
        let inst = scenario.run_instance(6, 6).expect("valid");
        let plain = scenario.run(6).expect("valid").into_aer();
        assert_eq!(inst.run.outputs, plain.run.outputs);
        assert_eq!(inst.run.corrupt, plain.run.corrupt);
        assert_eq!(inst.run.metrics, plain.run.metrics);
    }
}
