//! # fba-sim — deterministic network simulator
//!
//! The execution substrate for the *Fast Byzantine Agreement* (PODC 2013)
//! reproduction: a fully connected, reliable, authenticated message-passing
//! network of `n` nodes (§2.1 of the paper) with
//!
//! * **synchronous** executions — a message sent during step `r` is
//!   delivered during step `r + 1`;
//! * **asynchronous** executions — a coordinated adversary schedules
//!   delivery delays (bounded, preserving reliability) and reorders
//!   deliveries within a step;
//! * a **full-information, non-adaptive Byzantine adversary** that plays
//!   all corrupt nodes, observes every message, and may be *rushing*
//!   (sees correct nodes' current-step messages before choosing its own)
//!   or *non-rushing*;
//! * per-node **bit and message accounting** matching the paper's
//!   communication-complexity metric (total bits / n, plus load-balance
//!   summaries for Figure 1a's "Load-Balanced" row).
//!
//! Runs are pure functions of a 64-bit master seed, so every experiment in
//! the repository replays exactly.
//!
//! ## Determinism contract
//!
//! Every performance mechanism in this workspace is *outcome-invariant* by
//! construction, so speed never trades against replayability:
//!
//! * **Event queue** — the engine schedules deliveries in a
//!   [`calendar::CalendarQueue`] ring buffer. It preserves the exact
//!   delivery order of the ordered-map queue it replaced (step order, then
//!   `(priority, insertion order)` within a step); the randomized
//!   equivalence test in `tests/calendar_equiv.rs` checks this against a
//!   `BTreeMap` reference model.
//! * **Scratch reuse** — per-step send/delivery buffers are recycled, not
//!   reallocated. Buffer capacity is invisible to protocol logic, and the
//!   adversary callback order (`delay` then `priority` per envelope in
//!   send order, then `observe`) is unchanged, so stateful adversaries see
//!   the same call sequence.
//! * **Memoization** — quorum caching in `fba-samplers` memoizes pure
//!   functions of `(public seed, string, node)`; a cache hit returns the
//!   same bytes the sampler would recompute.
//! * **Parallelism** — experiment sweeps fan out *whole runs*, each a pure
//!   function of `(config, seed)`, and aggregate results by input index.
//!   Thread count and interleaving cannot affect any run's RNG streams,
//!   so parallel output equals serial output bit for bit.
//! * **Batched bulk lane** — with [`EngineConfig::batch`] on (the
//!   default), each callback's outbox ships as one run-length-encoded
//!   [`Batch`] on the calendar's bulk lane instead of per-message
//!   envelopes. Batches unpack in exact send order at delivery, every
//!   per-envelope consumer (rushing views, scheduling adversaries,
//!   observers, transcripts) is shown the flattened per-envelope view,
//!   and metrics count *logical* messages — a batch of `k` counts `k`
//!   messages and `k×` bits. Runs are bit-identical either way, pinned by
//!   `tests/scenario_equivalence.rs` across the adversary × network
//!   matrix plus a proptest over random batch boundaries; `FBA_BATCH=0`
//!   is the environment escape hatch for bisecting.
//! * **Instance sequencing** — service mode chains agreement instances
//!   over one reusable [`EngineSession`] and shared protocol arenas. The
//!   sequencing rules: instance `0` runs with the service seed itself,
//!   instance `k > 0` with [`rng::instance_seed`]`(seed, k)` (domain-
//!   separated, so instances are independent draws); the *adversary*
//!   stream is derived from its own seed — the service seed for every
//!   instance, pinning one corrupt coalition across the run. What
//!   persists across instances is only what is outcome-invariant: engine
//!   scratch (cleared by [`EngineSession`] reuse — capacity is
//!   invisible), pure memoization caches, and interned-slot arenas whose
//!   per-instance state is reset at instance start. Every instance is
//!   therefore bit-identical to a fresh-engine run with the same
//!   `(value seed, adversary seed)` — pinned by
//!   `tests/service_determinism.rs`, including the repeated-value-seed
//!   battery that forces maximal slot collisions, and cache hit/miss
//!   counters prove the persistence is real rather than silently
//!   rebuilt. Arrival schedules only move service-clock bookkeeping,
//!   never outcomes.
//! * **Dark windows** — the crash–restart fault family
//!   ([`EngineConfig::crash`], resolved plans in [`CrashPlan`]) gates
//!   every one of its checks on the plan being non-empty: a run carrying
//!   `None` *or* an empty plan executes the exact pre-crash instruction
//!   sequence, so the no-fault path stays bit-identical to baseline
//!   (pinned by `tests/scenario_equivalence.rs`). With outages present,
//!   crash and restart transitions happen at fixed plan-determined steps
//!   (restarts before crashes, before the step's regular callbacks),
//!   dark nodes are skipped in deterministic node order, and dropped
//!   deliveries are counted in [`Metrics::msgs_dropped`] — a crashed run
//!   is a pure function of `(config, plan, master seed)`.
//!
//! ### Static enforcement
//!
//! The pins above *sample* the contract per seed. Its preconditions —
//! no randomized-hasher containers in deterministic crates, no wall
//! clock or ad-hoc RNG construction, parallelism only in the sweep
//! fan-out (`fba_bench::par`), one audited `unsafe` site, no ambient
//! `env::var` reads — are *statically enforced* on every shipped line
//! by the `paperlint` pass (crate `fba-lint`, rules D1–D7, run in CI
//! next to clippy). The sanctioned sites live in this crate: [`fxhash`]
//! is the D1 hasher, [`rng`] the D4 seed splits, [`tuning`] the D5
//! `unsafe` allowlist, and `EngineConfig::batch`'s `FBA_BATCH` read one
//! of the two D6 config sites. See the README's "Static guarantees"
//! section for the rule table and waiver syntax.
//!
//! ## Quick example
//!
//! ```
//! use fba_sim::{run, Context, EngineConfig, NoAdversary, NodeId, Protocol};
//!
//! /// Every node announces itself to node 0; node 0 decides on the count.
//! struct Census { id: NodeId, heard: u64 }
//!
//! impl Protocol for Census {
//!     type Msg = ();
//!     type Output = u64;
//!     fn on_start(&mut self, ctx: &mut Context<'_, ()>) {
//!         if self.id.index() != 0 { ctx.send(NodeId::from_index(0), ()); }
//!     }
//!     fn on_message(&mut self, _from: NodeId, _msg: (), _ctx: &mut Context<'_, ()>) {
//!         self.heard += 1;
//!     }
//!     fn output(&self) -> Option<u64> {
//!         if self.id.index() == 0 {
//!             (self.heard == 7).then_some(self.heard)
//!         } else {
//!             Some(0)
//!         }
//!     }
//! }
//!
//! let cfg = EngineConfig::sync(8);
//! let out = run::<Census, _, _>(&cfg, 42, &mut NoAdversary, |id| Census { id, heard: 0 });
//! assert_eq!(out.outputs[&NodeId::from_index(0)], 7);
//! ```

// `deny`, not `forbid`: the one sanctioned exception is the audited
// glibc `mallopt` binding in [`tuning`], which carries its own
// `allow(unsafe_code)` and SAFETY justification. Everything else in the
// crate remains unsafe-free.
#![deny(unsafe_code)]
#![deny(missing_docs)]

mod adversary;
pub mod calendar;
mod crash;
mod engine;
pub mod fxhash;
mod ids;
mod message;
mod metrics;
pub mod observer;
mod protocol;
pub mod rng;
mod spec;
pub mod tuning;

pub use adversary::{choose_corrupt, Adversary, NoAdversary, Outbox, SilentAdversary};
pub use crash::{CrashOutage, CrashPlan, CrashPlanError};
pub use engine::{
    batch_env_default, run, run_observed, run_session, EngineConfig, EngineSession, RunOutcome,
};
pub use ids::{all_nodes, ceil_log2, ln_at_least_one, NodeId, Step};
pub use message::{Batch, BatchBuffers, Delivery, Envelope, WireSize};
pub use metrics::{LoadSummary, Metrics, MetricsTotals};
pub use observer::{DecisionLog, FinalInspect, NullObserver, Observer, TranscriptSink};
pub use protocol::{Context, Protocol};
pub use spec::{
    AdversarySpec, GenericAdversary, NetworkSpec, ParseSpecError, ScheduleError, ScheduleSpec,
    Window, DEFAULT_CORNER_SCAN, DEFAULT_EQUIVOCATE_STRINGS, DEFAULT_FLOOD_RATE,
    DEFAULT_FLOOD_STEPS, DEFAULT_PULL_FLOOD_RATE,
};
pub use tuning::tune_allocator_for_bulk;
