//! The AER protocol node and run harness.
//!
//! [`AerNode`] wires the push phase (§3.1.1) and pull phase (§3.1.2,
//! Algorithms 1–3) into one event-driven [`Protocol`]: a node pushes its
//! initial candidate at start, polls every candidate as soon as it enters
//! `L_x` (its own candidate immediately), routes and answers other nodes'
//! pull traffic, and decides on the first candidate confirmed by a strict
//! majority of a poll list. The event-driven formulation works unchanged
//! in synchronous and asynchronous executions — one of AER's distinctive
//! properties ("this algorithm remains correct and efficient under
//! asynchrony").
//!
//! [`AerHarness`] packages the shared public state (samplers, initial
//! assignments, push target lists) and runs complete executions on the
//! simulator.

use fba_ae::Precondition;
use fba_recovery::{CheckpointStore, RecoveryConfig, WalRecord};
use fba_samplers::{
    GString, PollSampler, QuorumScheme, SharedPollCache, SharedQuorumCache, SlotMasks, StringKey,
};
use fba_sim::{
    run, Adversary, Context, EngineConfig, EngineSession, NodeId, Protocol, RunOutcome, Step,
};

use crate::config::AerConfig;
use crate::msg::AerMsg;
use crate::pull::{PullPhase, RetryPolicy, Sends, SharedBeliefs, SharedFw1Routes};
use crate::push::{push_targets, PushPhase};

/// One run's worth of shared state: the memoized sampler caches (push
/// `I`, pull `H`, poll `J`) plus the run-owned struct-of-arrays node
/// state — the push-phase vote arena and the pull-phase belief table.
///
/// Every node of a run gets clones of these handles. The caches memoize
/// pure functions of public randomness, and the arenas are partitioned by
/// node (each node writes only its own slots/entry), so sharing changes
/// no outcome — it only packs the per-node hot state into contiguous
/// vectors (see the determinism contract in `fba-sim`).
#[derive(Clone, Debug)]
pub struct AerRunState {
    push_quorums: SharedQuorumCache,
    pull_quorums: SharedQuorumCache,
    poll_lists: SharedPollCache,
    push_votes: SlotMasks,
    beliefs: SharedBeliefs,
    fw1_routes: SharedFw1Routes,
}

impl AerRunState {
    /// Starts a new agreement instance on this bundle, resetting exactly
    /// the state that must not survive an instance boundary.
    ///
    /// What persists and why it cannot leak decisions across instances:
    ///
    /// * the sampler caches (`I`, `H`, `J`) memoize pure functions of the
    ///   public sampler seed — a hit returns the same bytes a fresh run
    ///   would recompute;
    /// * the Fw1 route table is keyed by `(origin, label)` and stores the
    ///   string key it was derived from, recomputing on mismatch, so a
    ///   stale entry is either bit-identical to the recomputation or
    ///   replaced;
    /// * the belief table is overwritten for every correct node when the
    ///   instance's nodes are constructed, and nodes only ever read their
    ///   own entry.
    ///
    /// What resets: the push-phase vote arena. Its masks are *decision
    /// state* (who already pushed string `s` to node `x`), and quorum
    /// slots are interned per `(string, node)` — a repeated client value
    /// would otherwise see instance `k-1`'s votes as duplicates and never
    /// accept the candidate. The cross-instance leak battery in
    /// `tests/service_determinism.rs` fails if this reset is removed.
    pub fn begin_instance(&self) {
        self.push_votes.reset();
    }

    /// `(hits, misses)` of the push-quorum (`I`) cache.
    #[must_use]
    pub fn push_cache_stats(&self) -> (u64, u64) {
        self.push_quorums.stats()
    }

    /// `(hits, misses)` of the pull-quorum (`H`) cache.
    #[must_use]
    pub fn pull_cache_stats(&self) -> (u64, u64) {
        self.pull_quorums.stats()
    }

    /// `(hits, misses)` of the poll-list (`J`) cache.
    #[must_use]
    pub fn poll_cache_stats(&self) -> (u64, u64) {
        self.poll_lists.stats()
    }
}

/// The checkpoint layer of one node: its durable store plus cursors
/// tracking which phase facts have already been logged, so `sync_wal`
/// appends exactly the diff after each protocol callback.
#[derive(Clone, Debug)]
struct RecoveryState {
    store: CheckpointStore,
    /// Prefix of `push.candidates()` already logged as `Accept` records
    /// (position 0, `s_x`, is the WAL's first record).
    logged_accepts: usize,
    logged_belief: StringKey,
    logged_decided: bool,
    logged_poll_attempt: u32,
}

impl RecoveryState {
    fn new(config: RecoveryConfig, own_key: StringKey) -> Self {
        RecoveryState {
            store: CheckpointStore::new(config),
            logged_accepts: 0,
            logged_belief: own_key,
            logged_decided: false,
            logged_poll_attempt: 0,
        }
    }
}

/// One correct AER participant.
#[derive(Clone, Debug)]
pub struct AerNode {
    push: PushPhase,
    pull: PullPhase,
    targets: Vec<NodeId>,
    /// Checkpoint/WAL layer; `None` (the default) runs without any
    /// recovery machinery — bit-identical to builds predating it.
    recovery: Option<RecoveryState>,
}

impl AerNode {
    /// Builds the node; `targets` is its push target list
    /// `{x : self ∈ I(s_self, x)}` (see [`push_targets`]).
    #[must_use]
    pub fn new(
        id: NodeId,
        own: GString,
        scheme: QuorumScheme,
        poll: PollSampler,
        overload_cap: u64,
        retry: RetryPolicy,
        targets: Vec<NodeId>,
    ) -> Self {
        Self::with_caches(
            id,
            own,
            scheme.shared_push(),
            scheme.shared_pull(),
            SharedPollCache::new(poll),
            overload_cap,
            retry,
            targets,
        )
    }

    /// Like [`AerNode::new`], but sharing run-wide sampler caches with the
    /// other nodes. The caches memoize pure functions of public
    /// randomness, so sharing them changes no outcome — only how often
    /// quorums are recomputed (see the determinism contract in `fba-sim`).
    #[must_use]
    #[allow(clippy::too_many_arguments)] // mirror of `new` plus the caches
    pub fn with_caches(
        id: NodeId,
        own: GString,
        push_quorums: SharedQuorumCache,
        pull_quorums: SharedQuorumCache,
        poll_lists: SharedPollCache,
        overload_cap: u64,
        retry: RetryPolicy,
        targets: Vec<NodeId>,
    ) -> Self {
        AerNode {
            push: PushPhase::with_cache(id, own, push_quorums),
            pull: PullPhase::with_caches(id, own, pull_quorums, poll_lists, overload_cap, retry),
            targets,
            recovery: None,
        }
    }

    /// Like [`AerNode::with_caches`], but drawing every shared handle —
    /// sampler caches *and* the run-owned vote/belief arenas — from one
    /// [`AerRunState`] bundle. This is the constructor full runs use.
    #[must_use]
    pub fn with_state(
        id: NodeId,
        own: GString,
        state: &AerRunState,
        overload_cap: u64,
        retry: RetryPolicy,
        targets: Vec<NodeId>,
    ) -> Self {
        AerNode {
            push: PushPhase::with_votes(
                id,
                own,
                state.push_quorums.clone(),
                state.push_votes.clone(),
            ),
            pull: PullPhase::with_state(
                id,
                own,
                state.pull_quorums.clone(),
                state.poll_lists.clone(),
                overload_cap,
                retry,
                state.beliefs.clone(),
                state.fw1_routes.clone(),
            ),
            targets,
            recovery: None,
        }
    }

    /// Enables the checkpoint/WAL layer: the node logs phase progress
    /// after every callback and, on [`Protocol::on_restart`], restores
    /// from its checkpoint and launches state-sync catch-up. Without
    /// this, a restarted node resumes naively on whatever in-memory
    /// state survived.
    ///
    /// Checkpointing consumes no randomness and sends no messages during
    /// normal operation, so enabling it on a run that never crashes is
    /// bit-identical to leaving it off.
    #[must_use]
    pub fn with_recovery(mut self, config: RecoveryConfig) -> Self {
        self.recovery = Some(RecoveryState::new(config, self.push.own_candidate().key()));
        self
    }

    /// Appends the diff since the last sync to the WAL: newly accepted
    /// candidates, a changed belief, a decision, and poll-attempt
    /// progress — then compacts on the store's cadence. Called after
    /// every protocol callback; no-op without recovery enabled.
    fn sync_wal(&mut self, step: Step) {
        let Some(rec) = self.recovery.as_mut() else {
            return;
        };
        let candidates = self.push.candidates();
        while rec.logged_accepts < candidates.len() {
            rec.store
                .append(step, WalRecord::Accept(candidates[rec.logged_accepts]));
            rec.logged_accepts += 1;
        }
        let believed = *self.pull.believed();
        if believed.key() != rec.logged_belief {
            rec.logged_belief = believed.key();
            rec.store.append(step, WalRecord::Believe(believed));
        }
        if !rec.logged_decided {
            if let Some(decided) = self.pull.decided() {
                rec.logged_decided = true;
                rec.store.append(step, WalRecord::Decide(*decided));
            }
        }
        let attempt = self.pull.max_poll_attempt();
        if attempt > rec.logged_poll_attempt {
            rec.logged_poll_attempt = attempt;
            rec.store.append(step, WalRecord::Poll { attempt });
        }
        rec.store.maybe_snapshot(step);
    }

    /// The node's current candidate list `L_x`.
    #[must_use]
    pub fn candidates(&self) -> &[GString] {
        self.push.candidates()
    }

    /// The node's current belief.
    #[must_use]
    pub fn believed(&self) -> &GString {
        self.pull.believed()
    }

    fn dispatch(sends: Sends, ctx: &mut Context<'_, AerMsg>) {
        for (to, msg) in sends {
            ctx.send(to, msg);
        }
    }
}

impl Protocol for AerNode {
    type Msg = AerMsg;
    type Output = GString;

    fn on_start(&mut self, ctx: &mut Context<'_, AerMsg>) {
        // Push phase: diffuse the initial candidate to the nodes whose
        // push quorums we belong to.
        let own = *self.push.own_candidate();
        for &x in &self.targets {
            ctx.send(x, AerMsg::Push(own));
        }
        // L_x starts as {s_x}: verify it immediately.
        let step = ctx.step();
        let sends = self.pull.start_poll(own, step, ctx.rng());
        Self::dispatch(sends, ctx);
        self.sync_wal(step);
    }

    fn on_step(&mut self, ctx: &mut Context<'_, AerMsg>) {
        let step = ctx.step();
        let sends = self.pull.on_step(step, ctx.rng());
        Self::dispatch(sends, ctx);
        self.sync_wal(step);
    }

    fn on_message(&mut self, from: NodeId, msg: AerMsg, ctx: &mut Context<'_, AerMsg>) {
        match msg {
            AerMsg::Push(s) => {
                if let Some(newly_accepted) = self.push.on_push(from, s) {
                    // Pull phase begins per candidate as soon as it is
                    // accepted.
                    let step = ctx.step();
                    let sends = self.pull.start_poll(newly_accepted, step, ctx.rng());
                    Self::dispatch(sends, ctx);
                }
            }
            AerMsg::Poll(s, r) => Self::dispatch(self.pull.on_poll(from, s, r), ctx),
            AerMsg::Pull(s, r) => Self::dispatch(self.pull.on_pull(from, s, r), ctx),
            AerMsg::Fw1 { origin, s, r, w } => {
                Self::dispatch(self.pull.on_fw1(from, origin, s, r, w), ctx);
            }
            AerMsg::Fw2 { origin, s, r } => {
                Self::dispatch(self.pull.on_fw2(from, origin, s, r), ctx);
            }
            AerMsg::Answer(s) => {
                if self.pull.on_answer(from, s).is_some() {
                    // Deciding unlocks the overload queue (Algorithm 3's
                    // "wait for has_decided").
                    let sends = self.pull.on_decided();
                    Self::dispatch(sends, ctx);
                }
            }
            AerMsg::RepairQuery(r) => {
                Self::dispatch(self.pull.on_repair_query(from, r), ctx);
            }
            AerMsg::RepairAnswer(s) => {
                if self.pull.on_repair_answer(from, s).is_some() {
                    let sends = self.pull.on_decided();
                    Self::dispatch(sends, ctx);
                }
            }
        }
        self.sync_wal(ctx.step());
    }

    fn on_restart(&mut self, ctx: &mut Context<'_, AerMsg>) {
        // Without the checkpoint layer, fall through to the naive default:
        // resume on whatever in-memory state survived the simulated crash.
        let Some(rec) = self.recovery.as_ref() else {
            return;
        };
        let checkpoint = rec.store.restore();
        if checkpoint.accepted.is_empty() {
            // Crashed before the first sync (impossible under the engine's
            // step-1 window floor, but harmless): nothing durable to load.
            return;
        }
        self.push.restore_accepted(&checkpoint.accepted);
        let belief = checkpoint.belief.unwrap_or_else(|| checkpoint.accepted[0]);
        let step = ctx.step();
        let sends = self.pull.restore(
            belief,
            checkpoint.decided,
            checkpoint.poll_attempt,
            &checkpoint.accepted,
            step,
            ctx.rng(),
        );
        Self::dispatch(sends, ctx);
        self.sync_wal(step);
    }

    fn output(&self) -> Option<GString> {
        self.pull.decided().cloned()
    }
}

/// Shared state of one AER deployment plus run helpers.
#[derive(Clone, Debug)]
pub struct AerHarness {
    cfg: AerConfig,
    scheme: QuorumScheme,
    poll: PollSampler,
    assignments: Vec<GString>,
    targets: Vec<Vec<NodeId>>,
    recovery: Option<RecoveryConfig>,
}

impl AerHarness {
    /// Builds the harness from a config and every node's initial
    /// candidate.
    ///
    /// # Panics
    ///
    /// Panics if `assignments.len() != cfg.n` or the config is invalid.
    #[must_use]
    pub fn new(cfg: AerConfig, assignments: Vec<GString>) -> Self {
        cfg.validate().expect("invalid AER config");
        assert_eq!(assignments.len(), cfg.n, "one candidate per node");
        let scheme = cfg.scheme();
        let poll = cfg.poll_sampler();
        let targets = push_targets(&scheme, &assignments);
        AerHarness {
            cfg,
            scheme,
            poll,
            assignments,
            targets,
            recovery: None,
        }
    }

    /// Enables the checkpoint/WAL layer on every node this harness
    /// builds (see [`AerNode::with_recovery`]). Runs that never crash
    /// are unaffected — checkpointing consumes no randomness and sends
    /// nothing — so this is safe to enable exactly when a crash plan is
    /// present.
    pub fn enable_recovery(&mut self, config: RecoveryConfig) {
        self.recovery = Some(config);
    }

    /// The recovery configuration, if the checkpoint layer is enabled.
    #[must_use]
    pub fn recovery(&self) -> Option<RecoveryConfig> {
        self.recovery
    }

    /// Convenience constructor from a synthetic or protocol-produced
    /// almost-everywhere [`Precondition`].
    #[must_use]
    pub fn from_precondition(cfg: AerConfig, pre: &Precondition) -> Self {
        Self::new(cfg, pre.assignments.clone())
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &AerConfig {
        &self.cfg
    }

    /// The shared quorum scheme (I and H).
    #[must_use]
    pub fn scheme(&self) -> QuorumScheme {
        self.scheme
    }

    /// The shared poll sampler (J).
    #[must_use]
    pub fn poll_sampler(&self) -> PollSampler {
        self.poll
    }

    /// Initial candidate of every node.
    #[must_use]
    pub fn assignments(&self) -> &[GString] {
        &self.assignments
    }

    /// Builds the state machine for one correct node (the engine factory).
    #[must_use]
    pub fn node(&self, id: NodeId) -> AerNode {
        let node = AerNode::new(
            id,
            self.assignments[id.index()],
            self.scheme,
            self.poll,
            self.cfg.overload_cap,
            self.retry_policy(),
            self.targets[id.index()].clone(),
        );
        match self.recovery {
            Some(config) => node.with_recovery(config),
            None => node,
        }
    }

    fn retry_policy(&self) -> RetryPolicy {
        RetryPolicy {
            poll_timeout: self.cfg.poll_timeout,
            poll_attempts: self.cfg.poll_attempts,
            repair_attempts: self.cfg.repair_attempts,
            eager_repair: self.cfg.eager_repair,
        }
    }

    /// Builds one run's worth of shared state (see [`AerRunState`]).
    /// Every run gets a fresh bundle so runs stay independent pure
    /// functions of `(config, seed)`.
    #[must_use]
    pub fn run_state(&self) -> AerRunState {
        AerRunState {
            push_quorums: self.scheme.shared_push(),
            pull_quorums: self.scheme.shared_pull(),
            poll_lists: SharedPollCache::new(self.poll),
            push_votes: SlotMasks::new(),
            beliefs: SharedBeliefs::new(),
            fw1_routes: SharedFw1Routes::new(),
        }
    }

    /// Builds the state machine for node `id`, wired to the given shared
    /// run state. The factory behind every run entry point; public so
    /// callers that drive `fba_sim::run_session` themselves (e.g. with
    /// wrapped nodes) build exactly the nodes the harness would.
    #[must_use]
    pub fn node_with(&self, id: NodeId, state: &AerRunState) -> AerNode {
        let node = AerNode::with_state(
            id,
            self.assignments[id.index()],
            state,
            self.cfg.overload_cap,
            self.retry_policy(),
            self.targets[id.index()].clone(),
        );
        match self.recovery {
            Some(config) => node.with_recovery(config),
            None => node,
        }
    }

    /// Default synchronous engine configuration for this deployment:
    /// enough steps for the retry/repair schedule to play out
    /// (see [`AerConfig::engine_sync`]).
    #[must_use]
    pub fn engine_sync(&self) -> EngineConfig {
        self.cfg.engine_sync()
    }

    /// Default asynchronous engine configuration (`max_delay` steps of
    /// adversarial delay; see [`AerConfig::engine_async`]).
    #[must_use]
    pub fn engine_async(&self, max_delay: Step) -> EngineConfig {
        self.cfg.engine_async(max_delay)
    }

    /// Runs one complete execution.
    pub fn run<A>(
        &self,
        engine: &EngineConfig,
        seed: u64,
        adversary: &mut A,
    ) -> RunOutcome<GString, AerMsg>
    where
        A: Adversary<AerMsg> + ?Sized,
    {
        let state = self.run_state();
        run::<AerNode, A, _>(engine, seed, adversary, |id| self.node_with(id, &state))
    }

    /// Runs one complete execution while driving a read-only
    /// [`fba_sim::Observer`] — per-step send views, per-decision events
    /// and final node states. Observers cannot influence the run, so the
    /// outcome is bit-identical to [`AerHarness::run`].
    pub fn run_observed<A, O>(
        &self,
        engine: &EngineConfig,
        seed: u64,
        adversary: &mut A,
        observer: &mut O,
    ) -> RunOutcome<GString, AerMsg>
    where
        A: Adversary<AerMsg> + ?Sized,
        O: fba_sim::Observer<AerNode> + ?Sized,
    {
        let state = self.run_state();
        fba_sim::run_observed::<AerNode, A, _, O>(
            engine,
            seed,
            adversary,
            |id| self.node_with(id, &state),
            observer,
        )
    }

    /// Runs one agreement instance over caller-owned persistent state —
    /// the service-mode entry point.
    ///
    /// Unlike [`AerHarness::run_observed`], which builds a fresh
    /// [`AerRunState`] per call, this threads an external bundle (plus a
    /// reusable [`EngineSession`]) through the run so sampler caches and
    /// arenas survive instance boundaries. The per-instance reset
    /// ([`AerRunState::begin_instance`]) is applied here unconditionally —
    /// it is part of the run, not an optional caller step.
    ///
    /// `adversary_seed` decouples the corruption draw from the instance's
    /// master seed (see [`fba_sim::run_session`]): a service passes its
    /// service seed every instance so the coalition persists. The caller
    /// must build `state` from a harness with this harness's config — the
    /// sampler caches memoize the public samplers, so mixing configs would
    /// silently answer from the wrong distribution.
    #[allow(clippy::too_many_arguments)] // the full service-mode seam, mirrored by fba-scenario
    pub fn run_in_session<A, O>(
        &self,
        engine: &EngineConfig,
        seed: u64,
        adversary_seed: u64,
        adversary: &mut A,
        observer: &mut O,
        state: &AerRunState,
        session: &mut EngineSession<AerMsg>,
    ) -> RunOutcome<GString, AerMsg>
    where
        A: Adversary<AerMsg> + ?Sized,
        O: fba_sim::Observer<AerNode> + ?Sized,
    {
        state.begin_instance();
        fba_sim::run_session::<AerNode, A, _, O>(
            engine,
            seed,
            adversary_seed,
            adversary,
            |id| self.node_with(id, state),
            observer,
            session,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fba_ae::UnknowingAssignment;
    use fba_sim::NoAdversary;

    fn harness(n: usize, knowledge: f64, seed: u64) -> (AerHarness, Precondition) {
        let cfg = AerConfig::recommended(n);
        let pre = Precondition::synthetic(
            n,
            cfg.string_len,
            knowledge,
            UnknowingAssignment::RandomPerNode,
            seed,
        );
        (AerHarness::from_precondition(cfg, &pre), pre)
    }

    #[test]
    fn fault_free_run_decides_gstring_everywhere() {
        let (h, pre) = harness(64, 0.75, 1);
        let out = h.run(&h.engine_sync(), 1, &mut NoAdversary);
        assert!(
            out.all_decided(),
            "undecided nodes: {:?}",
            out.metrics.steps
        );
        assert_eq!(out.unanimous(), Some(&pre.gstring));
    }

    #[test]
    fn fault_free_run_is_constant_time_for_the_bulk() {
        // Lemma 9 shape: the overwhelming majority decides within a
        // handful of rounds; finite-size stragglers are mopped up by the
        // retry/repair extensions but stay rare.
        for n in [32, 64, 128] {
            let (h, _) = harness(n, 0.75, 3);
            let out = h.run(&h.engine_sync(), 3, &mut NoAdversary);
            assert!(out.all_decided(), "n={n}: not everyone decided");
            let fast = (0..n)
                .map(NodeId::from_index)
                .filter(|id| out.metrics.decided_at(*id).is_some_and(|s| s <= 8))
                .count();
            assert!(
                fast as f64 >= 0.9 * n as f64,
                "n={n}: only {fast}/{n} decided within 8 steps"
            );
        }
    }

    #[test]
    fn unknowing_nodes_learn_gstring() {
        let (h, pre) = harness(64, 0.7, 3);
        let out = h.run(&h.engine_sync(), 3, &mut NoAdversary);
        for (id, value) in &out.outputs {
            assert_eq!(value, &pre.gstring, "node {id} decided wrongly");
        }
        // Specifically check a node that started unknowing.
        let unknowing = (0..64)
            .map(NodeId::from_index)
            .find(|id| !pre.knows(*id))
            .expect("some node starts unknowing");
        assert_eq!(out.outputs[&unknowing], pre.gstring);
    }

    #[test]
    fn runs_replay_deterministically() {
        let (h, _) = harness(48, 0.75, 7);
        let a = h.run(&h.engine_sync(), 9, &mut NoAdversary);
        let b = h.run(&h.engine_sync(), 9, &mut NoAdversary);
        assert_eq!(a.all_decided_at, b.all_decided_at);
        assert_eq!(a.metrics.total_bits_sent(), b.metrics.total_bits_sent());
        assert_eq!(a.outputs, b.outputs);
    }

    #[test]
    fn node_accessors_reflect_initial_state() {
        let (h, pre) = harness(32, 0.8, 4);
        let id = NodeId::from_index(0);
        let node = h.node(id);
        assert_eq!(node.candidates().len(), 1);
        assert_eq!(node.believed(), &pre.assignments[0]);
        assert_eq!(h.assignments().len(), 32);
        assert_eq!(h.config().n, 32);
    }

    #[test]
    #[should_panic(expected = "one candidate per node")]
    fn harness_rejects_wrong_assignment_count() {
        let cfg = AerConfig::recommended(32);
        let _ = AerHarness::new(cfg, vec![GString::zeroes(cfg.string_len)]);
    }

    #[test]
    fn crashed_nodes_recover_and_decide() {
        // The crash fault family end to end: a window knocks out 8 nodes
        // mid-run; with the checkpoint layer enabled they restore their
        // accepted/belief state, re-poll, state-sync via repair queries —
        // and the whole system still reaches unanimous agreement.
        let (mut h, pre) = harness(64, 0.75, 11);
        h.enable_recovery(fba_recovery::RecoveryConfig::default());
        let plan = "crash:[2..8]8"
            .parse::<fba_recovery::CrashSpec>()
            .unwrap()
            .resolve(64, 11)
            .unwrap();
        let mut engine = h.engine_sync();
        engine.crash = Some(plan.clone());
        let out = h.run(&engine, 11, &mut NoAdversary);
        assert!(out.all_decided(), "crashed nodes must reconverge");
        assert_eq!(out.unanimous(), Some(&pre.gstring));
        assert!(out.metrics.msgs_dropped() > 0, "the window really was dark");
        // Rejoin accounting sees every victim decided.
        let report = fba_recovery::rejoin_report(&plan, &out.metrics);
        assert!(report.all_rejoined());
        assert!(report.max_rejoin_steps().is_some());
    }

    #[test]
    fn recovery_layer_is_inert_without_crashes() {
        // Checkpointing consumes no randomness and sends nothing, so a
        // recovery-enabled run with no crash plan is bit-identical to a
        // plain run.
        let (h, _) = harness(48, 0.75, 7);
        let plain = h.run(&h.engine_sync(), 9, &mut NoAdversary);
        let (mut hr, _) = harness(48, 0.75, 7);
        hr.enable_recovery(fba_recovery::RecoveryConfig::default());
        let checked = hr.run(&hr.engine_sync(), 9, &mut NoAdversary);
        assert_eq!(plain.outputs, checked.outputs);
        assert_eq!(plain.all_decided_at, checked.all_decided_at);
        assert_eq!(plain.metrics, checked.metrics);
    }

    #[test]
    fn crashed_runs_replay_deterministically() {
        let (mut h, _) = harness(64, 0.75, 13);
        h.enable_recovery(fba_recovery::RecoveryConfig { cadence: 4 });
        let plan = "crash:[1..4]4;[6..9]4"
            .parse::<fba_recovery::CrashSpec>()
            .unwrap()
            .resolve(64, 13)
            .unwrap();
        let mut engine = h.engine_sync();
        engine.crash = Some(plan);
        let a = h.run(&engine, 13, &mut NoAdversary);
        let b = h.run(&engine, 13, &mut NoAdversary);
        assert_eq!(a.outputs, b.outputs);
        assert_eq!(a.all_decided_at, b.all_decided_at);
        assert_eq!(a.metrics, b.metrics);
    }

    #[test]
    fn chained_instances_over_shared_state_match_fresh_runs() {
        // The service-mode contract at the harness layer: running the
        // *same* deployment repeatedly over one persistent AerRunState and
        // EngineSession — identical workloads, so every quorum slot and
        // vote mask from instance k-1 recurs in instance k — must be
        // bit-identical to fresh-state runs. This only holds because
        // run_in_session resets the vote arena per instance.
        let (h, _) = harness(48, 0.75, 5);
        let state = h.run_state();
        let mut session = EngineSession::new(1);
        let engine = h.engine_sync();
        for seed in [5u64, 11, 5] {
            let mut adv = fba_sim::SilentAdversary::new(4);
            let chained = h.run_in_session(
                &engine,
                seed,
                77,
                &mut adv,
                &mut fba_sim::NullObserver,
                &state,
                &mut session,
            );
            let fresh_state = h.run_state();
            let mut fresh_session = EngineSession::new(1);
            let mut adv2 = fba_sim::SilentAdversary::new(4);
            let fresh = h.run_in_session(
                &engine,
                seed,
                77,
                &mut adv2,
                &mut fba_sim::NullObserver,
                &fresh_state,
                &mut fresh_session,
            );
            assert_eq!(chained.corrupt, fresh.corrupt);
            assert_eq!(chained.outputs, fresh.outputs);
            assert_eq!(chained.all_decided_at, fresh.all_decided_at);
            assert_eq!(
                chained.metrics.total_bits_sent(),
                fresh.metrics.total_bits_sent()
            );
        }
        // The persistent caches really were hit across instances: the
        // third run's lookups must not all be misses.
        let (hits, misses) = state.poll_cache_stats();
        assert!(
            hits > misses,
            "poll cache reuse: {hits} hits, {misses} misses"
        );
    }
}
