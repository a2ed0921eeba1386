//! The traced run: per-layer timings and exact counters, taken from the
//! benchmark's own side of each layer boundary.
//!
//! [`TracedNode`] wraps `AerNode` in the benchmark's own `Protocol` and
//! [`TracedAdversary`] wraps `AerAdversary` in its own `Adversary`; both
//! delegate every method. The benchmark then rebuilds what the scenario
//! layer does for one run (precondition, harness, adversary, crash plan)
//! and drives the wrappers through `AerHarness::node_with` and
//! `fba_sim::run_session`, exactly as `Scenario::run` does.
//!
//! Reading the clock on every callback would double a run, so each
//! callback kind counts every call and times one call in
//! [`SAMPLE_EVERY`]; a kind's self time is its sampled mean times its
//! call count. Per-step hooks (adversary `act`/`observe`) and restarts
//! are rare and timed on every call.

use std::cell::Cell;
use std::collections::BTreeSet;
use std::time::Instant;

use fba_ae::Precondition;
use fba_core::adversary::{AerAdversary, AttackContext};
use fba_core::{AerHarness, AerMsg, AerNode};
use fba_recovery::{rejoin_report, OutageRejoin, RecoveryConfig};
use fba_samplers::GString;
use fba_sim::rng::derive_rng;
use fba_sim::{
    Adversary, Context, EngineSession, Envelope, NetworkSpec, NodeId, NullObserver, Outbox,
    Protocol, Step,
};
use rand_chacha::ChaCha12Rng;

use crate::workload::{Outcome, Workload};

/// One timed call in this many, per callback kind.
pub const SAMPLE_EVERY: u64 = 64;

/// A traced call site, one per callback kind and adversary hook.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Push,
    Poll,
    Pull,
    Fw1,
    Fw2,
    Answer,
    RepairQuery,
    RepairAnswer,
    OnStart,
    OnStep,
    OnRestart,
    NodeWith,
    Act,
    Observe,
    Delay,
    Priority,
}

impl Kind {
    pub const ALL: [Kind; 16] = [
        Kind::Push,
        Kind::Poll,
        Kind::Pull,
        Kind::Fw1,
        Kind::Fw2,
        Kind::Answer,
        Kind::RepairQuery,
        Kind::RepairAnswer,
        Kind::OnStart,
        Kind::OnStep,
        Kind::OnRestart,
        Kind::NodeWith,
        Kind::Act,
        Kind::Observe,
        Kind::Delay,
        Kind::Priority,
    ];

    /// The node callback kinds, in the order the per-layer table lists
    /// them.
    pub const CALLBACKS: [Kind; 11] = [
        Kind::Push,
        Kind::Poll,
        Kind::Pull,
        Kind::Fw1,
        Kind::Fw2,
        Kind::Answer,
        Kind::RepairQuery,
        Kind::RepairAnswer,
        Kind::OnStart,
        Kind::OnStep,
        Kind::OnRestart,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Push => "Push",
            Kind::Poll => "Poll",
            Kind::Pull => "Pull",
            Kind::Fw1 => "Fw1",
            Kind::Fw2 => "Fw2",
            Kind::Answer => "Answer",
            Kind::RepairQuery => "RepairQuery",
            Kind::RepairAnswer => "RepairAnswer",
            Kind::OnStart => "on_start",
            Kind::OnStep => "on_step",
            Kind::OnRestart => "on_restart",
            Kind::NodeWith => "node_with",
            Kind::Act => "act",
            Kind::Observe => "observe",
            Kind::Delay => "delay",
            Kind::Priority => "priority",
        }
    }

    fn of(msg: &AerMsg) -> Kind {
        match msg {
            AerMsg::Push(_) => Kind::Push,
            AerMsg::Poll(..) => Kind::Poll,
            AerMsg::Pull(..) => Kind::Pull,
            AerMsg::Fw1 { .. } => Kind::Fw1,
            AerMsg::Fw2 { .. } => Kind::Fw2,
            AerMsg::Answer(_) => Kind::Answer,
            AerMsg::RepairQuery(_) => Kind::RepairQuery,
            AerMsg::RepairAnswer(_) => Kind::RepairAnswer,
        }
    }

    fn sample_every(self) -> u64 {
        match self {
            Kind::OnRestart | Kind::Act | Kind::Observe => 1,
            _ => SAMPLE_EVERY,
        }
    }
}

/// Per-kind call counters and sampled timings of one operation.
#[derive(Default)]
pub struct Tracer {
    calls: [Cell<u64>; 16],
    sampled: [Cell<u64>; 16],
    sampled_ns: [Cell<u64>; 16],
}

impl Tracer {
    #[inline(always)]
    fn time<R>(&self, kind: Kind, f: impl FnOnce() -> R) -> R {
        let i = kind as usize;
        let c = self.calls[i].get();
        self.calls[i].set(c + 1);
        if !c.is_multiple_of(kind.sample_every()) {
            return f();
        }
        // `t1 - t0` is one clock read in this same context; taking it off
        // the call's span removes the clock's own cost from the sample.
        let t0 = Instant::now();
        let t1 = Instant::now();
        let r = f();
        let t2 = Instant::now();
        let ns = ((t2 - t1).as_nanos() as u64).saturating_sub((t1 - t0).as_nanos() as u64);
        self.sampled_ns[i].set(self.sampled_ns[i].get() + ns);
        self.sampled[i].set(self.sampled[i].get() + 1);
        r
    }

    pub fn calls(&self, kind: Kind) -> u64 {
        self.calls[kind as usize].get()
    }

    /// Mean duration of the sampled calls, in nanoseconds (0 if none ran).
    pub fn ns_per_call(&self, kind: Kind) -> f64 {
        let i = kind as usize;
        let sampled = self.sampled[i].get();
        if sampled == 0 {
            return 0.0;
        }
        self.sampled_ns[i].get() as f64 / sampled as f64
    }

    /// Estimated self time of every call of `kind`, in seconds.
    pub fn self_s(&self, kind: Kind) -> f64 {
        self.ns_per_call(kind) * self.calls(kind) as f64 * 1e-9
    }
}

/// `AerNode` behind the benchmark's own `Protocol`: counts and samples
/// every callback by kind, and delegates.
pub struct TracedNode<'t> {
    inner: AerNode,
    tracer: &'t Tracer,
}

impl Protocol for TracedNode<'_> {
    type Msg = AerMsg;
    type Output = GString;

    fn on_start(&mut self, ctx: &mut Context<'_, AerMsg>) {
        self.tracer.time(Kind::OnStart, || self.inner.on_start(ctx));
    }

    fn on_step(&mut self, ctx: &mut Context<'_, AerMsg>) {
        self.tracer.time(Kind::OnStep, || self.inner.on_step(ctx));
    }

    fn on_message(&mut self, from: NodeId, msg: AerMsg, ctx: &mut Context<'_, AerMsg>) {
        let kind = Kind::of(&msg);
        self.tracer
            .time(kind, || self.inner.on_message(from, msg, ctx));
    }

    fn on_crash(&mut self, step: Step) {
        self.inner.on_crash(step);
    }

    fn on_restart(&mut self, ctx: &mut Context<'_, AerMsg>) {
        self.tracer
            .time(Kind::OnRestart, || self.inner.on_restart(ctx));
    }

    fn output(&self) -> Option<GString> {
        self.inner.output()
    }
}

/// `AerAdversary` behind the benchmark's own `Adversary`: times its turn,
/// its observation hook and its per-envelope scheduling, and delegates
/// every method, capability flags included.
pub struct TracedAdversary<'t> {
    inner: AerAdversary,
    tracer: &'t Tracer,
}

impl Adversary<AerMsg> for TracedAdversary<'_> {
    fn corrupt(&mut self, n: usize, rng: &mut ChaCha12Rng) -> BTreeSet<NodeId> {
        self.inner.corrupt(n, rng)
    }

    fn rushing(&self) -> bool {
        self.inner.rushing()
    }

    fn act(&mut self, step: Step, view: Option<&[Envelope<AerMsg>]>, out: &mut Outbox<'_, AerMsg>) {
        self.tracer
            .time(Kind::Act, || self.inner.act(step, view, out));
    }

    fn observe(&mut self, step: Step, sends: &[Envelope<AerMsg>]) {
        self.tracer
            .time(Kind::Observe, || self.inner.observe(step, sends));
    }

    fn delay(&mut self, env: &Envelope<AerMsg>) -> Step {
        self.tracer.time(Kind::Delay, || self.inner.delay(env))
    }

    fn priority(&mut self, env: &Envelope<AerMsg>) -> i64 {
        self.tracer
            .time(Kind::Priority, || self.inner.priority(env))
    }

    fn schedules(&self) -> bool {
        self.inner.schedules()
    }

    fn observes(&self) -> bool {
        self.inner.observes()
    }
}

/// Wall-clock spans of one traced operation, outside the callbacks.
#[derive(Clone, Copy, Debug, Default)]
pub struct Spans {
    pub precondition_s: f64,
    pub harness_build_s: f64,
    pub run_state_s: f64,
    pub adversary_build_s: f64,
    /// Time inside `fba_sim::run_session`, callbacks included.
    pub sim_run_s: f64,
    /// The whole operation, set-up included.
    pub op_s: f64,
}

/// Everything one traced operation recorded.
pub struct OpTrace {
    pub tracer: Tracer,
    pub spans: Spans,
    pub outcome: Outcome,
    /// `(hits, misses)` of the push, pull and poll caches over the
    /// operation.
    pub caches: [(u64, u64); 3],
    pub steps: u64,
    pub msgs_delivered: u64,
    pub msgs_dropped: u64,
    pub rejoin_mean: Option<f64>,
    pub rejoin_max: Option<Step>,
}

/// Runs one operation of `w` with seed `seed` through the wrappers. The
/// outcome must equal the untraced scenario operation's.
pub fn run_op(w: &Workload, seed: u64) -> OpTrace {
    let tracer = Tracer::default();
    let mut spans = Spans::default();
    let start = Instant::now();
    let cfg = w.config();
    // What `Scenario::run` builds, part by part.
    let t = Instant::now();
    let pre = Precondition::synthetic(
        w.n,
        cfg.string_len,
        w.precondition.knowing,
        w.precondition.assignment,
        seed,
    );
    let t_pre = Instant::now();
    let mut harness = AerHarness::from_precondition(cfg, &pre);
    let t_harness = Instant::now();
    spans.precondition_s = (t_pre - t).as_secs_f64();
    spans.harness_build_s = (t_harness - t_pre).as_secs_f64();
    let mut engine = match w.network {
        NetworkSpec::Sync => harness.engine_sync(),
        NetworkSpec::Async { max_delay } => harness.engine_async(max_delay),
    };
    if let Some(spec) = w.crash.as_ref().filter(|s| !s.is_empty()) {
        engine.crash = Some(spec.resolve(w.n, seed).expect("valid crash plan"));
        if let Some(last_restart) = spec.last_restart() {
            engine.max_steps = engine.max_steps.saturating_add(last_restart);
        }
        harness.enable_recovery(RecoveryConfig::default());
    }
    let t = Instant::now();
    let gstring = pre.gstring;
    let bad = harness
        .assignments()
        .iter()
        .find(|s| **s != gstring)
        .copied()
        .unwrap_or_else(|| GString::random(gstring.len_bits(), &mut derive_rng(seed, &[0xbad])));
    let adversary =
        AerAdversary::from_spec(&w.adversary, AttackContext::new(&harness, gstring), bad);
    spans.adversary_build_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let state = harness.run_state();
    spans.run_state_s = t.elapsed().as_secs_f64();

    let mut adversary = TracedAdversary {
        inner: adversary,
        tracer: &tracer,
    };
    let mut session = EngineSession::new(w.network.max_delay().max(1));
    let t = Instant::now();
    state.begin_instance();
    let run = fba_sim::run_session(
        &engine,
        seed,
        seed,
        &mut adversary,
        |id| {
            tracer.time(Kind::NodeWith, || TracedNode {
                inner: harness.node_with(id, &state),
                tracer: &tracer,
            })
        },
        &mut NullObserver,
        &mut session,
    );
    spans.sim_run_s = t.elapsed().as_secs_f64();
    spans.op_s = start.elapsed().as_secs_f64();
    let (rejoin_mean, rejoin_max) = match engine.crash.as_ref() {
        Some(plan) => {
            let report = rejoin_report(plan, &run.metrics);
            (mean_rejoin(&report.outages), report.max_rejoin_steps())
        }
        None => (None, None),
    };
    let caches = [
        state.push_cache_stats(),
        state.pull_cache_stats(),
        state.poll_cache_stats(),
    ];
    let msgs_delivered = (0..w.n)
        .map(|i| run.metrics.msgs_recv_by(NodeId::from_index(i)))
        .sum();
    OpTrace {
        tracer,
        spans,
        caches,
        steps: run.metrics.steps,
        msgs_delivered,
        msgs_dropped: run.metrics.msgs_dropped(),
        rejoin_mean,
        rejoin_max,
        outcome: run,
    }
}

/// Mean rejoin steps over every victim that rejoined, across outages.
pub fn mean_rejoin(outages: &[OutageRejoin]) -> Option<f64> {
    let (mut sum, mut count) = (0.0, 0usize);
    for o in outages {
        if let Some(mean) = o.mean_rejoin_steps {
            sum += mean * o.rejoined as f64;
            count += o.rejoined;
        }
    }
    (count > 0).then(|| sum / count as f64)
}

/// Whether two runs are the same run: decision step, per-node metrics,
/// outputs, corrupt set and quiescence.
pub fn same_outcome(a: &Outcome, b: &Outcome) -> bool {
    a.all_decided_at == b.all_decided_at
        && a.metrics == b.metrics
        && a.outputs == b.outputs
        && a.corrupt == b.corrupt
        && a.quiescent == b.quiescent
}
