//! The deterministic discrete-event execution engine.
//!
//! One engine serves both of the paper's timing models:
//!
//! * **Synchronous** (`max_delay = 1`): a message sent during step `r` is
//!   delivered during step `r + 1`, deliveries are processed in send order.
//! * **Asynchronous** (`max_delay ≥ 1` plus an adversary that overrides
//!   [`Adversary::delay`] / [`Adversary::priority`]): the adversary picks
//!   per-message delays (clamped, so delivery stays reliable) and reorders
//!   deliveries within a step. Normalized asynchronous time is then the
//!   step counter.
//!
//! Executions are pure functions of `(config, master_seed, adversary,
//! protocol factory)`: every collection iterated is ordered and every random
//! draw comes from seed-derived ChaCha streams.

use std::collections::{BTreeMap, BTreeSet};

use rand_chacha::ChaCha12Rng;

use crate::adversary::{Adversary, Outbox};
use crate::calendar::CalendarQueue;
use crate::crash::CrashPlan;
use crate::ids::{ceil_log2, NodeId, Step};
use crate::message::{Batch, BatchBuffers, Delivery, Envelope, WireSize};
use crate::metrics::Metrics;
use crate::observer::{NullObserver, Observer};
use crate::protocol::{Context, Protocol};
use crate::rng::{derive_rng, node_rng, TAG_ADVERSARY};

/// Engine configuration.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// System size `n`.
    pub n: usize,
    /// Hard cap on executed steps; runs that exceed it report undecided
    /// nodes rather than looping forever.
    pub max_steps: Step,
    /// Maximum delivery delay the adversary may impose (`1` = synchronous
    /// timing). Reliability: every message is delivered within `max_delay`
    /// steps of being sent.
    pub max_delay: Step,
    /// After all correct nodes have decided, keep delivering pending
    /// messages (and any correct responses to them) for up to this many
    /// extra steps, so post-decision service traffic is counted. The
    /// adversary no longer acts during draining.
    pub drain_steps: Step,
    /// Record every envelope sent, for trace-style experiments (Fig. 2a/2b).
    /// Costs memory; leave off for sweeps.
    pub record_transcript: bool,
    /// Per-message header bits; defaults to `2·⌈log₂ n⌉` (sender +
    /// recipient identity) when `None`.
    pub header_bits: Option<u64>,
    /// Coalesce each callback's sends into one batched delivery (one
    /// header + run-length-encoded payloads) instead of per-message
    /// envelopes. Purely a memory/throughput optimisation: runs are
    /// bit-identical either way (pinned by the equivalence tests).
    /// Defaults from the `FBA_BATCH` environment variable (`0` disables;
    /// anything else, or unset, enables) — the bisecting escape hatch.
    pub batch: bool,
    /// Upper bound on logical messages per batch; `None` means a batch
    /// spans its whole callback outbox. A testing/bisecting knob — the
    /// equivalence proptests randomise it to pin that batch boundaries
    /// never change outcomes.
    pub batch_limit: Option<usize>,
    /// Crash–restart outage plan. `None` (the default) and an empty plan
    /// are the same no-fault fast path and execute bit-identically; with
    /// outages present, the named nodes go dark over their windows (see
    /// [`CrashPlan`] and the crate-level determinism contract).
    pub crash: Option<CrashPlan>,
}

impl EngineConfig {
    /// A synchronous configuration with sensible defaults for system size
    /// `n`: `max_delay = 1`, generous step cap, short drain.
    #[must_use]
    pub fn sync(n: usize) -> Self {
        EngineConfig {
            n,
            max_steps: 10_000,
            max_delay: 1,
            drain_steps: 64,
            record_transcript: false,
            header_bits: None,
            batch: batch_env_default(),
            batch_limit: None,
            crash: None,
        }
    }

    /// An asynchronous configuration: the adversary may delay messages up
    /// to `max_delay` steps and reorder within steps.
    #[must_use]
    pub fn asynchronous(n: usize, max_delay: Step) -> Self {
        EngineConfig {
            max_delay: max_delay.max(1),
            ..EngineConfig::sync(n)
        }
    }

    /// Effective header bits.
    #[must_use]
    pub fn effective_header_bits(&self) -> u64 {
        self.header_bits
            .unwrap_or_else(|| 2 * u64::from(ceil_log2(self.n)))
    }
}

/// The `FBA_BATCH` environment default for [`EngineConfig::batch`]:
/// batching is on unless the variable is set to exactly `0`.
#[must_use]
pub fn batch_env_default() -> bool {
    std::env::var("FBA_BATCH").map_or(true, |v| v != "0")
}

/// Reusable engine scratch state: the pending-delivery calendar plus every
/// per-step buffer of the run loop.
///
/// One-shot entry points ([`run`], [`run_observed`]) construct a fresh
/// session internally. Service (chained agreement) runs construct one
/// session and thread it through consecutive [`run_session`] calls so the
/// calendar ring and the send/delivery/batch buffers keep their
/// allocations across instance boundaries. Reuse is outcome-invariant:
/// every buffer is emptied at the start of a run (capacity is invisible to
/// protocol logic) and the calendar starts a fresh epoch via
/// [`CalendarQueue::reset`].
#[derive(Debug)]
pub struct EngineSession<M> {
    pending: CalendarQueue<Delivery<M>>,
    sends: Vec<Delivery<M>>,
    outbox_buf: Vec<(NodeId, M)>,
    due: Vec<Delivery<M>>,
    sched_buf: Vec<(Step, i64)>,
    flat: Vec<Envelope<M>>,
    pool: Vec<BatchBuffers<M>>,
}

impl<M> EngineSession<M> {
    /// Creates an empty session for delivery delays up to `max_delay`.
    /// The horizon is adjusted automatically by each run, so the argument
    /// only pre-sizes the calendar ring.
    ///
    /// # Panics
    ///
    /// Panics if `max_delay == 0`.
    #[must_use]
    pub fn new(max_delay: Step) -> Self {
        EngineSession {
            pending: CalendarQueue::new(max_delay),
            sends: Vec::new(),
            outbox_buf: Vec::new(),
            due: Vec::new(),
            sched_buf: Vec::new(),
            flat: Vec::new(),
            pool: Vec::new(),
        }
    }

    /// Empties every buffer (keeping capacity) and restarts the calendar
    /// epoch for a run with the given delay horizon.
    fn begin(&mut self, max_delay: Step) {
        self.pending.reset(max_delay);
        self.sends.clear();
        self.outbox_buf.clear();
        self.due.clear();
        self.sched_buf.clear();
        self.flat.clear();
        // `pool` buffers are cleared on reuse by `Batch::from_buffers`.
    }
}

impl<M> Default for EngineSession<M> {
    fn default() -> Self {
        EngineSession::new(1)
    }
}

/// Everything a finished run exposes.
#[derive(Clone, Debug)]
pub struct RunOutcome<O, M> {
    /// Communication/time accounting.
    pub metrics: Metrics,
    /// Output of every correct node that decided.
    pub outputs: BTreeMap<NodeId, O>,
    /// The corrupt set the adversary chose.
    pub corrupt: BTreeSet<NodeId>,
    /// Step at which the last correct node decided (the paper's time
    /// metric), or `None` if some correct node never decided.
    pub all_decided_at: Option<Step>,
    /// Whether the network fully quiesced before the step cap.
    pub quiescent: bool,
    /// Every envelope sent, if `record_transcript` was set.
    pub transcript: Vec<Envelope<M>>,
}

impl<O: Clone + Eq, M> RunOutcome<O, M> {
    /// Whether every correct node decided.
    #[must_use]
    pub fn all_decided(&self) -> bool {
        self.all_decided_at.is_some()
    }

    /// Whether every correct node that decided output the same value, and
    /// at least one decided. The core agreement check used by tests.
    #[must_use]
    pub fn unanimous(&self) -> Option<&O> {
        let mut iter = self.outputs.values();
        let first = iter.next()?;
        for v in iter {
            if v != first {
                return None;
            }
        }
        Some(first)
    }
}

/// Runs a protocol to completion under the given adversary.
///
/// `factory(id)` builds the state machine for each *correct* node; corrupt
/// nodes are played by `adversary`. See the crate docs for the step
/// structure.
///
/// # Panics
///
/// Panics if the adversary corrupts an out-of-range node id, or on internal
/// invariant violations (which indicate bugs, not run conditions).
pub fn run<P, A, F>(
    cfg: &EngineConfig,
    master_seed: u64,
    adversary: &mut A,
    factory: F,
) -> RunOutcome<P::Output, P::Msg>
where
    P: Protocol,
    A: Adversary<P::Msg> + ?Sized,
    F: FnMut(NodeId) -> P,
{
    run_observed(cfg, master_seed, adversary, factory, &mut NullObserver)
}

/// Like [`run`], but drives a read-only [`Observer`] alongside the
/// execution: per-step send views, per-decision events, and final node
/// states (see the [`crate::observer`] module docs). Observers cannot
/// influence the run, so for any observer the returned outcome is
/// bit-identical to [`run`] with the same inputs.
///
/// # Panics
///
/// Same conditions as [`run`].
pub fn run_observed<P, A, F, O>(
    cfg: &EngineConfig,
    master_seed: u64,
    adversary: &mut A,
    factory: F,
    observer: &mut O,
) -> RunOutcome<P::Output, P::Msg>
where
    P: Protocol,
    A: Adversary<P::Msg> + ?Sized,
    F: FnMut(NodeId) -> P,
    O: Observer<P> + ?Sized,
{
    let mut session = EngineSession::new(cfg.max_delay.max(1));
    run_session(
        cfg,
        master_seed,
        master_seed,
        adversary,
        factory,
        observer,
        &mut session,
    )
}

/// The fully general engine entry point: like [`run_observed`], but with
/// the adversary's corruption draw decoupled from the run's master seed
/// and the scratch state supplied by the caller.
///
/// * `adversary_seed` seeds the RNG handed to [`Adversary::corrupt`].
///   Passing `master_seed` (what every one-shot entry point does)
///   reproduces [`run_observed`] exactly. Service runs pass the *service*
///   seed for every instance so the same non-adaptive coalition persists
///   while node randomness and workloads vary per instance.
/// * `session` provides the calendar and per-step buffers; reusing one
///   session across runs keeps allocations warm and is bit-identical to
///   fresh construction (see [`EngineSession`]).
///
/// # Panics
///
/// Same conditions as [`run`].
pub fn run_session<P, A, F, O>(
    cfg: &EngineConfig,
    master_seed: u64,
    adversary_seed: u64,
    adversary: &mut A,
    mut factory: F,
    observer: &mut O,
    session: &mut EngineSession<P::Msg>,
) -> RunOutcome<P::Output, P::Msg>
where
    P: Protocol,
    A: Adversary<P::Msg> + ?Sized,
    F: FnMut(NodeId) -> P,
    O: Observer<P> + ?Sized,
{
    let n = cfg.n;
    let header_bits = cfg.effective_header_bits();

    let mut adv_rng: ChaCha12Rng = derive_rng(adversary_seed, &[TAG_ADVERSARY]);
    let corrupt = adversary.corrupt(n, &mut adv_rng);
    assert!(
        corrupt.iter().all(|id| id.index() < n),
        "adversary corrupted out-of-range node"
    );

    let mut nodes: Vec<Option<P>> = (0..n)
        .map(|i| {
            let id = NodeId::from_index(i);
            if corrupt.contains(&id) {
                None
            } else {
                Some(factory(id))
            }
        })
        .collect();
    let mut rngs: Vec<ChaCha12Rng> = (0..n).map(|i| node_rng(master_seed, i)).collect();

    let mut metrics = Metrics::new(n, &corrupt);
    let mut outputs: BTreeMap<NodeId, P::Output> = BTreeMap::new();
    let mut decided = vec![false; n];
    // Corrupt nodes count as "decided" for the stop condition.
    for id in &corrupt {
        decided[id.index()] = true;
    }
    let mut undecided = n - corrupt.len();

    let max_delay = cfg.max_delay.max(1);
    let mut transcript: Vec<Envelope<P::Msg>> = Vec::new();

    // Calendar plus per-step scratch buffers, reused across the whole run
    // (and, through a shared session, across chained instances). `flat` is
    // the per-envelope view of the step's sends, materialised only when
    // someone needs it (rushing view, per-envelope scheduling, observe,
    // observer step view, transcript).
    session.begin(max_delay);
    let EngineSession {
        pending,
        sends,
        outbox_buf,
        due,
        sched_buf,
        flat,
        pool,
    } = session;

    // Crash–restart plan: `None` and an empty plan are the same no-fault
    // fast path. Every dark-window check below is gated on `has_crash`,
    // so fault-free runs execute the exact baseline instruction sequence
    // (the bit-identity pin in `tests/scenario_equivalence.rs`).
    let crash_plan = cfg.crash.as_ref().filter(|p| !p.is_empty());
    let has_crash = crash_plan.is_some();
    if let Some(plan) = crash_plan {
        assert!(
            plan.max_node_index().is_none_or(|i| i < n),
            "crash plan names out-of-range node"
        );
    }
    let mut dark: Vec<bool> = if has_crash {
        vec![false; n]
    } else {
        Vec::new()
    };

    let batching = cfg.batch;
    let batch_limit = cfg.batch_limit;
    let rushing = adversary.rushing();
    let consults = adversary.schedules();
    let observes = adversary.observes();
    let step_view = observer.wants_step_sends();

    let mut all_decided_at: Option<Step> = None;
    let mut drain_started_at: Option<Step> = None;
    let mut quiescent = false;

    let mut step: Step = 0;
    loop {
        let draining = all_decided_at.is_some();
        sends.clear();

        // 0. Crash transitions (crash plans only). Restarts first: a
        //    restarting node gets `on_restart` with a context (it may send
        //    catch-up traffic immediately) and then the step's regular
        //    callback like everyone else. New crashes second: their nodes
        //    miss everything from this step until restart. Crashing a
        //    corrupt node is a no-op — the adversary already plays it.
        if let Some(plan) = crash_plan {
            for outage in plan.outages() {
                if outage.end == step {
                    for &id in outage.nodes() {
                        let i = id.index();
                        if !dark[i] {
                            continue;
                        }
                        dark[i] = false;
                        if let Some(node) = nodes[i].as_mut() {
                            let mut ctx = Context::new(id, n, step, &mut rngs[i], outbox_buf);
                            node.on_restart(&mut ctx);
                            enqueue_outbox(
                                id,
                                step,
                                batching,
                                batch_limit,
                                header_bits,
                                outbox_buf,
                                &mut metrics,
                                pool,
                                sends,
                            );
                        }
                    }
                }
                if outage.start == step {
                    for &id in outage.nodes() {
                        let i = id.index();
                        if let Some(node) = nodes[i].as_mut() {
                            dark[i] = true;
                            node.on_crash(step);
                        }
                    }
                }
            }
        }

        // 1. Per-step protocol callbacks: on_start at step 0, on_step later.
        for i in 0..n {
            if has_crash && dark[i] {
                continue;
            }
            let id = NodeId::from_index(i);
            let Some(node) = nodes[i].as_mut() else {
                continue;
            };
            let mut ctx = Context::new(id, n, step, &mut rngs[i], outbox_buf);
            if step == 0 {
                node.on_start(&mut ctx);
            } else {
                node.on_step(&mut ctx);
            }
            enqueue_outbox(
                id,
                step,
                batching,
                batch_limit,
                header_bits,
                outbox_buf,
                &mut metrics,
                pool,
                sends,
            );
        }

        // 2. Deliveries due this step (scheduled at earlier steps).
        pending.drain_due(step, due);
        for delivery in due.drain(..) {
            match delivery {
                Delivery::One(env) => {
                    if has_crash && (dark[env.from.index()] || dark[env.to.index()]) {
                        metrics.record_dropped(1);
                        continue;
                    }
                    metrics.record_recv(env.to, env.total_bits(header_bits));
                    let i = env.to.index();
                    if let Some(node) = nodes[i].as_mut() {
                        let mut ctx = Context::new(env.to, n, step, &mut rngs[i], outbox_buf);
                        node.on_message(env.from, env.msg, &mut ctx);
                        enqueue_outbox(
                            env.to,
                            step,
                            batching,
                            batch_limit,
                            header_bits,
                            outbox_buf,
                            &mut metrics,
                            pool,
                            sends,
                        );
                    }
                    // Deliveries to corrupt nodes reach the adversary
                    // through `observe`, which sees every envelope anyway.
                }
                Delivery::Batch(batch) => {
                    let from = batch.from;
                    if has_crash && dark[from.index()] {
                        metrics.record_dropped(batch.len() as u64);
                        pool.push(batch.into_buffers());
                        continue;
                    }
                    for (msg, recipients) in batch.runs() {
                        let bits = header_bits + msg.wire_bits();
                        for &to in recipients {
                            if has_crash && dark[to.index()] {
                                metrics.record_dropped(1);
                                continue;
                            }
                            metrics.record_recv(to, bits);
                            let i = to.index();
                            if let Some(node) = nodes[i].as_mut() {
                                let mut ctx = Context::new(to, n, step, &mut rngs[i], outbox_buf);
                                node.on_message(from, msg.clone(), &mut ctx);
                                enqueue_outbox(
                                    to,
                                    step,
                                    batching,
                                    batch_limit,
                                    header_bits,
                                    outbox_buf,
                                    &mut metrics,
                                    pool,
                                    sends,
                                );
                            }
                        }
                    }
                    pool.push(batch.into_buffers());
                }
            }
        }

        // 3. Adversary turn (full information; rushing sees current sends).
        if !draining {
            let rushing_view: Option<&[Envelope<P::Msg>]> = if rushing {
                flatten_into(sends, flat);
                Some(flat)
            } else {
                None
            };
            let mut out = Outbox::new(&corrupt, n);
            adversary.act(step, rushing_view, &mut out);
            // Adversary sends stay un-batched: they may mix senders, and
            // every current strategy emits few enough for framing not to
            // matter. Keeping them as single envelopes also keeps the
            // batched and unbatched arms trivially identical here.
            for (from, to, msg) in out.into_sends() {
                metrics.record_send(from, header_bits + msg.wire_bits());
                sends.push(Delivery::One(Envelope {
                    from,
                    to,
                    sent_at: step,
                    msg,
                }));
            }
        }

        // 4. Schedule every send of this step. A scheduling adversary is
        //    consulted (delay then priority, per logical envelope, in send
        //    order) and then observes the step before anything moves into
        //    the queue, so the call order visible to stateful adversaries
        //    matches the per-envelope engine exactly.
        let consult_now = consults && !draining;
        if consult_now || observes || step_view || cfg.record_transcript {
            flatten_into(sends, flat);
        }
        sched_buf.clear();
        let uniform = if consult_now {
            consult_schedule(adversary, max_delay, flat, sched_buf)
        } else {
            Some(1)
        };
        if observes {
            adversary.observe(step, flat);
        }
        if step_view {
            observer.on_step(step, flat);
        }
        if cfg.record_transcript {
            transcript.extend(flat.iter().cloned());
        }
        commit_schedule(pending, step, uniform, sends, flat, sched_buf, pool);

        // 5. Decision tracking.
        if undecided > 0 {
            for i in 0..n {
                if decided[i] || (has_crash && dark[i]) {
                    continue;
                }
                if let Some(node) = nodes[i].as_ref() {
                    if let Some(out) = node.output() {
                        let id = NodeId::from_index(i);
                        decided[i] = true;
                        undecided -= 1;
                        metrics.record_decision(id, step);
                        observer.on_decision(id, step, &out);
                        outputs.insert(id, out);
                    }
                }
            }
            if undecided == 0 {
                all_decided_at = Some(step);
                drain_started_at = Some(step);
            }
        }

        // 6. Stop conditions.
        metrics.steps = step;
        if let Some(started) = drain_started_at {
            if pending.is_empty() {
                quiescent = true;
                break;
            }
            if step >= started + cfg.drain_steps {
                break;
            }
        }
        if step >= cfg.max_steps {
            break;
        }
        step += 1;
    }

    for (i, node) in nodes.iter().enumerate() {
        if let Some(node) = node {
            observer.on_final(NodeId::from_index(i), node);
        }
    }

    RunOutcome {
        metrics,
        outputs,
        corrupt,
        all_decided_at,
        quiescent,
        transcript,
    }
}

/// Moves one callback's outbox into the step's send list, recording each
/// logical message in `metrics`. With batching on and at least two
/// messages queued, the outbox becomes one (or, under `batch_limit`,
/// several) [`Batch`] deliveries built on recycled buffers from `pool`;
/// otherwise every message ships as its own envelope.
#[allow(clippy::too_many_arguments)] // engine-internal plumbing of the step loop's scratch state
fn enqueue_outbox<M: Clone + PartialEq + WireSize>(
    from: NodeId,
    step: Step,
    batching: bool,
    batch_limit: Option<usize>,
    header_bits: u64,
    outbox: &mut Vec<(NodeId, M)>,
    metrics: &mut Metrics,
    pool: &mut Vec<BatchBuffers<M>>,
    sends: &mut Vec<Delivery<M>>,
) {
    if outbox.is_empty() {
        return;
    }
    if !batching || outbox.len() == 1 {
        for (to, msg) in outbox.drain(..) {
            metrics.record_send(from, header_bits + msg.wire_bits());
            sends.push(Delivery::One(Envelope {
                from,
                to,
                sent_at: step,
                msg,
            }));
        }
        return;
    }
    let limit = batch_limit.unwrap_or(usize::MAX).max(1);
    let mut batch = Batch::from_buffers(from, step, pool.pop().unwrap_or_default());
    for (to, msg) in outbox.drain(..) {
        if batch.len() >= limit {
            seal_batch(batch, header_bits, metrics, sends);
            batch = Batch::from_buffers(from, step, pool.pop().unwrap_or_default());
        }
        batch.push(to, msg);
    }
    seal_batch(batch, header_bits, metrics, sends);
}

/// Records a finished batch's logical messages and moves it into `sends`.
fn seal_batch<M: Clone + PartialEq + WireSize>(
    batch: Batch<M>,
    header_bits: u64,
    metrics: &mut Metrics,
    sends: &mut Vec<Delivery<M>>,
) {
    for (msg, recipients) in batch.runs() {
        metrics.record_send_run(
            batch.from,
            recipients.len() as u64,
            header_bits + msg.wire_bits(),
        );
    }
    sends.push(Delivery::Batch(batch));
}

/// Consults a scheduling adversary for every logical envelope of the
/// step's flattened send view, in send order: delay (clamped to
/// `[1, max_delay]`) then priority, pushed onto `sched_buf` (which the
/// caller has cleared). Returns `Some(delay)` when every envelope got the
/// same delay at priority 0 — the bulk-lane fast path — and `None` when
/// the schedule is non-uniform and deliveries must be keyed individually.
fn consult_schedule<M: Clone, A: Adversary<M> + ?Sized>(
    adversary: &mut A,
    max_delay: Step,
    flat: &[Envelope<M>],
    sched_buf: &mut Vec<(Step, i64)>,
) -> Option<Step> {
    let mut uniform: Option<Step> = Some(1);
    for env in flat {
        let delay = adversary.delay(env).clamp(1, max_delay);
        let priority = adversary.priority(env);
        uniform = match uniform {
            Some(d) if priority == 0 && (d == delay || sched_buf.is_empty()) => Some(delay),
            _ => None,
        };
        sched_buf.push((delay, priority));
    }
    uniform
}

/// Moves a step's sends into the pending-delivery calendar. With a uniform
/// schedule (`uniform = Some(delay)`, the common case) one vector swap
/// moves the whole step's sends — batches included — into the ring slot;
/// otherwise deliveries are keyed per envelope from `flat` and `sched_buf`
/// (as filled by [`consult_schedule`]), recycling batch buffers into
/// `pool`.
fn commit_schedule<M: Clone>(
    pending: &mut CalendarQueue<Delivery<M>>,
    step: Step,
    uniform: Option<Step>,
    sends: &mut Vec<Delivery<M>>,
    flat: &mut Vec<Envelope<M>>,
    sched_buf: &[(Step, i64)],
    pool: &mut Vec<BatchBuffers<M>>,
) {
    match uniform {
        Some(delay) if !sends.is_empty() => pending.schedule_bulk(step, delay, sends),
        _ => {
            for delivery in sends.drain(..) {
                if let Delivery::Batch(batch) = delivery {
                    pool.push(batch.into_buffers());
                }
            }
            for (env, &(delay, priority)) in flat.drain(..).zip(sched_buf.iter()) {
                pending.schedule(step, delay, priority, Delivery::One(env));
            }
        }
    }
}

/// Rebuilds the per-envelope view of a step's sends, in logical send
/// order — what rushing adversaries, schedulers, observers, and the
/// transcript are shown regardless of batching.
fn flatten_into<M: Clone>(sends: &[Delivery<M>], flat: &mut Vec<Envelope<M>>) {
    flat.clear();
    for delivery in sends {
        match delivery {
            Delivery::One(env) => flat.push(env.clone()),
            Delivery::Batch(batch) => flat.extend(batch.envelopes()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{NoAdversary, SilentAdversary};
    use crate::crash::CrashOutage;
    use crate::observer::FinalInspect;

    /// Every node sends a ping to the next node at start; a node decides
    /// once it has received a ping. Purely for engine semantics tests.
    struct Ping {
        id: NodeId,
        n: usize,
        got: Option<NodeId>,
    }

    impl Protocol for Ping {
        type Msg = u64;
        type Output = NodeId;

        fn on_start(&mut self, ctx: &mut Context<'_, u64>) {
            let next = NodeId::from_index((self.id.index() + 1) % self.n);
            ctx.send(next, 42);
        }

        fn on_message(&mut self, from: NodeId, msg: u64, _ctx: &mut Context<'_, u64>) {
            assert_eq!(msg, 42);
            self.got = Some(from);
        }

        fn output(&self) -> Option<NodeId> {
            self.got
        }
    }

    fn ping_factory(n: usize) -> impl FnMut(NodeId) -> Ping {
        move |id| Ping { id, n, got: None }
    }

    #[test]
    fn sync_ring_decides_in_one_step() {
        let cfg = EngineConfig::sync(8);
        let out = run::<Ping, _, _>(&cfg, 1, &mut NoAdversary, ping_factory(8));
        assert_eq!(out.all_decided_at, Some(1));
        assert!(out.quiescent);
        assert_eq!(out.outputs.len(), 8);
        // Each node sent exactly one message of header-only size (payload 64 bits).
        assert_eq!(out.metrics.total_msgs_sent(), 8);
        let expected_bits = 8 * (2 * 3 + 64); // header 2*ceil_log2(8)=6 bits + u64
        assert_eq!(out.metrics.total_bits_sent(), expected_bits);
    }

    #[test]
    fn deliveries_never_arrive_same_step() {
        // With max_delay=1 the ping sent at step 0 must arrive at step 1,
        // so no node may decide at step 0.
        let cfg = EngineConfig::sync(4);
        let out = run::<Ping, _, _>(&cfg, 7, &mut NoAdversary, ping_factory(4));
        for id in out.outputs.keys() {
            assert_eq!(out.metrics.decided_at(*id), Some(1));
        }
    }

    #[test]
    fn silent_adversary_blocks_its_victims_senders() {
        // Node i receives from i-1. If i-1 is corrupt (silent), node i
        // never decides; the run must hit max_steps and report undecided.
        let cfg = EngineConfig {
            max_steps: 10,
            ..EngineConfig::sync(8)
        };
        let mut adv = SilentAdversary::new(2);
        let out = run::<Ping, _, _>(&cfg, 3, &mut adv, ping_factory(8));
        assert_eq!(out.corrupt.len(), 2);
        assert!(out.all_decided_at.is_none());
        // Nodes whose predecessor is correct still decide.
        let decided_count = out.outputs.len();
        assert!(decided_count >= 8 - 2 * 2);
    }

    #[test]
    fn runs_are_deterministic() {
        let cfg = EngineConfig::sync(16);
        let mut a1 = SilentAdversary::new(4);
        let mut a2 = SilentAdversary::new(4);
        let o1 = run::<Ping, _, _>(&cfg, 11, &mut a1, ping_factory(16));
        let o2 = run::<Ping, _, _>(&cfg, 11, &mut a2, ping_factory(16));
        assert_eq!(o1.corrupt, o2.corrupt);
        assert_eq!(o1.all_decided_at, o2.all_decided_at);
        assert_eq!(o1.metrics.total_bits_sent(), o2.metrics.total_bits_sent());
        assert_eq!(o1.outputs, o2.outputs);
    }

    #[test]
    fn transcript_records_all_sends() {
        let cfg = EngineConfig {
            record_transcript: true,
            ..EngineConfig::sync(4)
        };
        let out = run::<Ping, _, _>(&cfg, 1, &mut NoAdversary, ping_factory(4));
        assert_eq!(out.transcript.len(), 4);
        assert!(out.transcript.iter().all(|e| e.sent_at == 0 && e.msg == 42));
    }

    /// Adversary that delays one specific edge to max_delay and checks the
    /// rushing view plumbing.
    struct DelayingAdversary {
        saw_rushing_view: bool,
    }

    impl Adversary<u64> for DelayingAdversary {
        fn corrupt(&mut self, _n: usize, _rng: &mut ChaCha12Rng) -> BTreeSet<NodeId> {
            BTreeSet::new()
        }
        fn rushing(&self) -> bool {
            true
        }
        fn act(&mut self, step: Step, view: Option<&[Envelope<u64>]>, _out: &mut Outbox<'_, u64>) {
            if step == 0 {
                let view = view.expect("rushing adversary must see current sends");
                assert_eq!(view.len(), 4);
                self.saw_rushing_view = true;
            }
        }
        fn delay(&mut self, env: &Envelope<u64>) -> Step {
            if env.from == NodeId::from_index(0) {
                100 // engine must clamp to max_delay
            } else {
                1
            }
        }
    }

    #[test]
    fn adversarial_delay_is_clamped_to_max_delay() {
        let cfg = EngineConfig::asynchronous(4, 3);
        let mut adv = DelayingAdversary {
            saw_rushing_view: false,
        };
        let out = run::<Ping, _, _>(&cfg, 5, &mut adv, ping_factory(4));
        assert!(adv.saw_rushing_view);
        // Node 1 (receiver of node 0's ping) decides at step 3, not 100.
        assert_eq!(out.metrics.decided_at(NodeId::from_index(1)), Some(3));
        assert_eq!(out.all_decided_at, Some(3));
    }

    /// Protocol where a node decides on the *first* message it processes;
    /// used to verify priority-based reordering within a step.
    struct FirstWins {
        first: Option<u64>,
    }

    impl Protocol for FirstWins {
        type Msg = u64;
        type Output = u64;
        fn on_start(&mut self, ctx: &mut Context<'_, u64>) {
            if ctx.id().index() != 0 {
                // Nodes 1 and 2 both message node 0 with their index.
                ctx.send(NodeId::from_index(0), ctx.id().index() as u64);
            }
        }
        fn on_message(&mut self, _from: NodeId, msg: u64, _ctx: &mut Context<'_, u64>) {
            self.first.get_or_insert(msg);
        }
        fn output(&self) -> Option<u64> {
            self.first
        }
    }

    struct ReorderAdversary;

    impl Adversary<u64> for ReorderAdversary {
        fn corrupt(&mut self, _n: usize, _rng: &mut ChaCha12Rng) -> BTreeSet<NodeId> {
            BTreeSet::new()
        }
        fn act(&mut self, _s: Step, _v: Option<&[Envelope<u64>]>, _o: &mut Outbox<'_, u64>) {}
        fn priority(&mut self, env: &Envelope<u64>) -> i64 {
            // Deliver the message with the larger payload first.
            -(env.msg as i64)
        }
    }

    #[test]
    fn priority_reorders_within_step() {
        let cfg = EngineConfig::sync(3);
        let fair = run::<FirstWins, _, _>(&cfg, 2, &mut NoAdversary, |_| FirstWins { first: None });
        assert_eq!(fair.outputs[&NodeId::from_index(0)], 1); // send order: node 1 first
        let skewed = run::<FirstWins, _, _>(&cfg, 2, &mut ReorderAdversary, |_| FirstWins {
            first: None,
        });
        assert_eq!(skewed.outputs[&NodeId::from_index(0)], 2); // adversary flipped it
    }

    /// Every node broadcasts its index to all others at start (a batch of
    /// `n-1` under batching) and replies once to each first contact; a
    /// node decides when it has heard from everyone else. Exercises both
    /// the batch path (broadcast) and the single-envelope path (replies).
    struct Broadcast {
        id: NodeId,
        n: usize,
        heard: BTreeSet<NodeId>,
    }

    impl Protocol for Broadcast {
        type Msg = u64;
        type Output = u64;
        fn on_start(&mut self, ctx: &mut Context<'_, u64>) {
            for i in 0..self.n {
                if i != self.id.index() {
                    ctx.send(NodeId::from_index(i), self.id.index() as u64);
                }
            }
        }
        fn on_message(&mut self, from: NodeId, msg: u64, ctx: &mut Context<'_, u64>) {
            if self.heard.insert(from) && msg != u64::MAX {
                ctx.send(from, u64::MAX);
            }
        }
        fn output(&self) -> Option<u64> {
            (self.heard.len() == self.n - 1).then_some(0)
        }
    }

    #[test]
    fn batched_and_unbatched_runs_account_identically() {
        // Satellite guarantee: a batch of k logical messages counts as k
        // messages and k× bits, node by node — delivered and sent — so
        // flipping `batch` must leave every metric bit-identical.
        let n = 12;
        let factory = |id: NodeId| Broadcast {
            id,
            n,
            heard: BTreeSet::new(),
        };
        let base = EngineConfig::sync(n);
        let unbatched = run::<Broadcast, _, _>(
            &EngineConfig {
                batch: false,
                ..base.clone()
            },
            9,
            &mut NoAdversary,
            factory,
        );
        for (label, cfg) in [
            (
                "batched",
                EngineConfig {
                    batch: true,
                    ..base.clone()
                },
            ),
            (
                "batched-limit-3",
                EngineConfig {
                    batch: true,
                    batch_limit: Some(3),
                    ..base.clone()
                },
            ),
        ] {
            let batched = run::<Broadcast, _, _>(&cfg, 9, &mut NoAdversary, factory);
            assert_eq!(
                batched.metrics.total_msgs_sent(),
                unbatched.metrics.total_msgs_sent(),
                "{label}: total logical messages"
            );
            assert_eq!(
                batched.metrics.total_bits_sent(),
                unbatched.metrics.total_bits_sent(),
                "{label}: total bits"
            );
            for i in 0..n {
                let id = NodeId::from_index(i);
                assert_eq!(
                    batched.metrics.msgs_sent_by(id),
                    unbatched.metrics.msgs_sent_by(id),
                    "{label}: msgs sent by {id}"
                );
                assert_eq!(
                    batched.metrics.bits_sent_by(id),
                    unbatched.metrics.bits_sent_by(id),
                    "{label}: bits sent by {id}"
                );
                assert_eq!(
                    batched.metrics.msgs_recv_by(id),
                    unbatched.metrics.msgs_recv_by(id),
                    "{label}: msgs received by {id}"
                );
                assert_eq!(
                    batched.metrics.bits_recv_by(id),
                    unbatched.metrics.bits_recv_by(id),
                    "{label}: bits received by {id}"
                );
            }
            assert_eq!(batched.outputs, unbatched.outputs, "{label}: outputs");
            assert_eq!(
                batched.all_decided_at, unbatched.all_decided_at,
                "{label}: decision step"
            );
        }
        // Sanity: the broadcast really exercised the batch path — every
        // node sent n-1 broadcast messages plus n-1 replies.
        assert_eq!(
            unbatched.metrics.total_msgs_sent(),
            (n * 2 * (n - 1)) as u64
        );
    }

    #[test]
    fn session_reuse_is_bit_identical_to_fresh_runs() {
        // The service mode's engine contract: threading one EngineSession
        // through consecutive runs must leave every run identical to a
        // standalone one, including across differing seeds and horizons.
        let mut session = EngineSession::new(1);
        for (seed, delay) in [(1u64, 1u64), (9, 3), (1, 1), (4, 2)] {
            let cfg = EngineConfig::asynchronous(8, delay);
            let mut a1 = SilentAdversary::new(2);
            let reused = run_session::<Ping, _, _, _>(
                &cfg,
                seed,
                seed,
                &mut a1,
                ping_factory(8),
                &mut NullObserver,
                &mut session,
            );
            let mut a2 = SilentAdversary::new(2);
            let fresh = run::<Ping, _, _>(&cfg, seed, &mut a2, ping_factory(8));
            assert_eq!(reused.corrupt, fresh.corrupt);
            assert_eq!(reused.outputs, fresh.outputs);
            assert_eq!(reused.all_decided_at, fresh.all_decided_at);
            assert_eq!(reused.quiescent, fresh.quiescent);
            assert_eq!(
                reused.metrics.total_bits_sent(),
                fresh.metrics.total_bits_sent()
            );
            assert_eq!(reused.metrics.steps, fresh.metrics.steps);
        }
    }

    #[test]
    fn adversary_seed_pins_the_coalition_across_master_seeds() {
        let cfg = EngineConfig::sync(16);
        let mut outcomes = Vec::new();
        for master in [3u64, 8, 21] {
            let mut adv = SilentAdversary::new(4);
            let mut session = EngineSession::new(1);
            outcomes.push(run_session::<Ping, _, _, _>(
                &cfg,
                master,
                77, // same adversary seed every time
                &mut adv,
                ping_factory(16),
                &mut NullObserver,
                &mut session,
            ));
        }
        assert_eq!(outcomes[0].corrupt, outcomes[1].corrupt);
        assert_eq!(outcomes[1].corrupt, outcomes[2].corrupt);
        // And adversary_seed = master_seed reproduces run() exactly.
        let mut adv = SilentAdversary::new(4);
        let plain = run::<Ping, _, _>(&cfg, 77, &mut adv, ping_factory(16));
        assert_eq!(plain.corrupt, outcomes[0].corrupt);
    }

    /// Every node broadcasts a token every step (even after deciding); a
    /// node decides once it has heard from everyone else. The retrying
    /// traffic makes reconvergence after a dark window observable.
    struct Gossip {
        id: NodeId,
        n: usize,
        heard: BTreeSet<NodeId>,
        crashes: u32,
        restarts: u32,
    }

    impl Gossip {
        fn fresh(id: NodeId, n: usize) -> Self {
            Gossip {
                id,
                n,
                heard: BTreeSet::new(),
                crashes: 0,
                restarts: 0,
            }
        }

        fn broadcast(&self, ctx: &mut Context<'_, u64>) {
            for i in 0..self.n {
                if i != self.id.index() {
                    ctx.send(NodeId::from_index(i), 1);
                }
            }
        }
    }

    impl Protocol for Gossip {
        type Msg = u64;
        type Output = u64;
        fn on_start(&mut self, ctx: &mut Context<'_, u64>) {
            self.broadcast(ctx);
        }
        fn on_step(&mut self, ctx: &mut Context<'_, u64>) {
            self.broadcast(ctx);
        }
        fn on_message(&mut self, from: NodeId, _msg: u64, _ctx: &mut Context<'_, u64>) {
            self.heard.insert(from);
        }
        fn on_crash(&mut self, _step: Step) {
            self.crashes += 1;
            self.heard.clear(); // transient state is lost in the outage
        }
        fn on_restart(&mut self, _ctx: &mut Context<'_, u64>) {
            self.restarts += 1;
        }
        fn output(&self) -> Option<u64> {
            (self.heard.len() == self.n - 1).then_some(0)
        }
    }

    fn crash_cfg(n: usize, plan: CrashPlan) -> EngineConfig {
        EngineConfig {
            max_steps: 40,
            drain_steps: 4,
            crash: Some(plan),
            ..EngineConfig::sync(n)
        }
    }

    #[test]
    fn dark_window_suspends_a_node_until_restart() {
        let n = 4;
        let plan = CrashPlan::new(vec![
            CrashOutage::new(1, 5, vec![NodeId::from_index(0)]).unwrap()
        ])
        .unwrap();
        let mut crash_hooks = Vec::new();
        let out = run_observed::<Gossip, _, _, _>(
            &crash_cfg(n, plan),
            3,
            &mut NoAdversary,
            |id| Gossip::fresh(id, n),
            &mut FinalInspect(|id, node: &Gossip| {
                crash_hooks.push((id, node.crashes, node.restarts));
            }),
        );
        // Node 0 is dark over steps 1-4: it misses every delivery, and
        // its own step-0 broadcast is dropped too (the sender is dark at
        // delivery time), so nodes 1-3 are stuck one contact short.
        // Restart happens at the top of step 5, before deliveries — node
        // 0 immediately receives the broadcasts sent at step 4 and
        // decides at 5; its own restart broadcast lands at 6, where the
        // rest reconverge.
        assert_eq!(out.metrics.decided_at(NodeId::from_index(0)), Some(5));
        for i in 1..n {
            assert_eq!(out.metrics.decided_at(NodeId::from_index(i)), Some(6));
        }
        assert_eq!(out.all_decided_at, Some(6));
        // Dropped traffic: node 0's step-0 broadcast (3 msgs, dark
        // sender) plus the others' broadcasts delivered to it during
        // steps 1-4 (3 msgs × 4 steps, dark recipient).
        assert_eq!(out.metrics.msgs_dropped(), 3 + 3 * 4);
        // The crash/restart hooks fired exactly once each, on node 0.
        assert_eq!(crash_hooks.len(), n);
        for (id, crashes, restarts) in crash_hooks {
            let expected = u32::from(id.index() == 0);
            assert_eq!((crashes, restarts), (expected, expected), "node {id}");
        }
    }

    #[test]
    fn crashed_runs_are_identical_batched_and_unbatched() {
        let n = 5;
        let plan = CrashPlan::new(vec![
            CrashOutage::new(1, 3, vec![NodeId::from_index(2)]).unwrap(),
            CrashOutage::new(4, 6, vec![NodeId::from_index(0), NodeId::from_index(3)]).unwrap(),
        ])
        .unwrap();
        let base = crash_cfg(n, plan);
        let unbatched = run::<Gossip, _, _>(
            &EngineConfig {
                batch: false,
                ..base.clone()
            },
            11,
            &mut NoAdversary,
            |id| Gossip::fresh(id, n),
        );
        let batched = run::<Gossip, _, _>(
            &EngineConfig {
                batch: true,
                ..base
            },
            11,
            &mut NoAdversary,
            |id| Gossip::fresh(id, n),
        );
        assert_eq!(batched.metrics, unbatched.metrics);
        assert_eq!(batched.outputs, unbatched.outputs);
        assert_eq!(batched.all_decided_at, unbatched.all_decided_at);
        assert!(unbatched.metrics.msgs_dropped() > 0, "windows were live");
    }

    #[test]
    fn empty_crash_plan_is_bit_identical_to_none() {
        let cfg_none = EngineConfig {
            record_transcript: true,
            ..EngineConfig::sync(8)
        };
        let cfg_empty = EngineConfig {
            crash: Some(CrashPlan::empty()),
            ..cfg_none.clone()
        };
        for seed in [1u64, 9, 42] {
            let mut a1 = SilentAdversary::new(2);
            let mut a2 = SilentAdversary::new(2);
            let plain = run::<Ping, _, _>(&cfg_none, seed, &mut a1, ping_factory(8));
            let empty = run::<Ping, _, _>(&cfg_empty, seed, &mut a2, ping_factory(8));
            assert_eq!(plain.metrics, empty.metrics);
            assert_eq!(plain.outputs, empty.outputs);
            assert_eq!(plain.corrupt, empty.corrupt);
            assert_eq!(plain.all_decided_at, empty.all_decided_at);
            assert_eq!(plain.quiescent, empty.quiescent);
            assert_eq!(plain.transcript, empty.transcript);
            assert_eq!(empty.metrics.msgs_dropped(), 0);
        }
    }

    #[test]
    fn crashing_a_corrupt_node_is_a_no_op() {
        // The adversary plays corrupt nodes; a crash window naming one
        // must not disturb the run (no hooks, no drops beyond what the
        // correct crash targets cause).
        let cfg = EngineConfig {
            max_steps: 10,
            ..EngineConfig::sync(8)
        };
        let mut adv = SilentAdversary::new(2);
        let baseline = run::<Ping, _, _>(&cfg, 3, &mut adv, ping_factory(8));
        let corrupt_target = *baseline.corrupt.iter().next().unwrap();
        let plan =
            CrashPlan::new(vec![CrashOutage::new(2, 4, vec![corrupt_target]).unwrap()]).unwrap();
        let mut adv2 = SilentAdversary::new(2);
        let crashed = run::<Ping, _, _>(
            &EngineConfig {
                crash: Some(plan),
                ..cfg
            },
            3,
            &mut adv2,
            ping_factory(8),
        );
        assert_eq!(crashed.corrupt, baseline.corrupt);
        assert_eq!(crashed.outputs, baseline.outputs);
        assert_eq!(crashed.metrics.msgs_dropped(), 0);
    }

    #[test]
    #[should_panic(expected = "out-of-range")]
    fn crash_plan_naming_out_of_range_node_panics() {
        let plan = CrashPlan::new(vec![
            CrashOutage::new(1, 2, vec![NodeId::from_index(9)]).unwrap()
        ])
        .unwrap();
        let _ = run::<Ping, _, _>(&crash_cfg(4, plan), 1, &mut NoAdversary, ping_factory(4));
    }

    #[test]
    fn unanimous_detects_agreement_and_disagreement() {
        let cfg = EngineConfig::sync(3);
        let out = run::<FirstWins, _, _>(&cfg, 2, &mut NoAdversary, |_| FirstWins { first: None });
        // Nodes 1 and 2 decide on their own "no message" path? They never
        // receive anything, so only node 0 decides => not all decided.
        assert!(out.all_decided_at.is_none());
        assert!(out.unanimous().is_some()); // single decider is unanimous
    }
}
