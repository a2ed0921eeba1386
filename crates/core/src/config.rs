//! AER configuration and validation.

use std::error::Error;
use std::fmt;

use fba_samplers::{default_quorum_size, gstring_len, PollSampler, QuorumScheme};
use fba_sim::ceil_log2;

/// Parameters of one AER deployment.
///
/// The paper's asymptotic choices are concretised here with explicit
/// constants; [`AerConfig::recommended`] reproduces the defaults used by
/// every experiment (`d = ⌈3·ln n⌉`, `|gstring| = 4·log₂ n`,
/// `cap = ⌈log₂ n⌉²`, `|R| = n²`), and EXPERIMENTS.md records deviations.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AerConfig {
    /// System size `n`.
    pub n: usize,
    /// Number of Byzantine nodes the run is expected to tolerate; must
    /// satisfy `t < (1/3 − ε)·n`.
    pub t: usize,
    /// The slack `ε > 0` of the paper's resilience bound.
    pub epsilon: f64,
    /// Quorum and poll-list size `d = Θ(log n)`.
    pub d: usize,
    /// Length of candidate strings in bits (`c·log n`).
    pub string_len: usize,
    /// Overload cap: a poll-list member defers answering a string's pull
    /// requests once it has answered this many, until it decides
    /// (Algorithm 3's `log² n` filter).
    pub overload_cap: u64,
    /// Cardinality of the label domain `R` (polynomial in `n`).
    pub label_cardinality: u64,
    /// Public seed from which the shared samplers `I`, `H`, `J` derive.
    pub sampler_seed: u64,
    /// Steps a node waits for a poll to complete before redrawing its
    /// label (liveness extension beyond the paper; see DESIGN.md §8).
    /// Ignored when `poll_attempts ≤ 1` and `repair_attempts = 0`.
    ///
    /// The scale-aware default is [`AerConfig::sync_poll_horizon`]: one
    /// full fault-free delivery horizon, which is a property of the
    /// *pipeline depth* (a constant number of hops), not of `n`. Earlier
    /// revisions used an oversized fixed timeout here; at n ≥ 2048, where
    /// a few stragglers per run are statistically expected, that stacked
    /// `poll_attempts × timeout` idle steps in front of every repair and
    /// produced the ~26-step "retry wave" tail the ROADMAP recorded.
    pub poll_timeout: u64,
    /// Total poll attempts per candidate string (1 = the paper's single
    /// poll, no retries).
    pub poll_attempts: u32,
    /// Number of last-resort repair queries an undecided node may issue
    /// after exhausting its polls (0 = disabled / strict paper mode).
    /// Repair queries ask a fresh poll list for its members' decisions and
    /// adopt a strict-majority value — the same safety argument as
    /// Lemma 7.
    pub repair_attempts: u32,
    /// Escalate to the first repair query as soon as every poll has run a
    /// full `poll_timeout` without receiving a single answer, concurrently
    /// with the remaining retries, instead of serializing all
    /// `poll_attempts` first. Zero answers after a full delivery horizon
    /// is the signature of an unverifiable candidate (typically a push
    /// majority that never crossed), which label redraws cannot fix; this
    /// knob is what makes fault-free decision latency O(1) retry waves at
    /// every `n`. Ignored when `repair_attempts = 0`.
    pub eager_repair: bool,
}

impl AerConfig {
    /// The smallest system size AER supports: below it the samplers and
    /// quorums degenerate.
    pub const MIN_N: usize = 8;

    /// The defaults used throughout the reproduction for system size `n`:
    /// `t = ⌊0.15·n⌋`, `ε = 1/12`, `d = ⌈3·ln n⌉`, `|s| = 4·log₂ n`,
    /// `cap = ⌈log₂ n⌉²`, `|R| = n²`.
    ///
    /// # Panics
    ///
    /// Panics if `n <` [`AerConfig::MIN_N`] (the protocol is degenerate
    /// below that).
    #[must_use]
    pub fn recommended(n: usize) -> Self {
        assert!(n >= Self::MIN_N, "AER needs n ≥ {}, got {n}", Self::MIN_N);
        let cfg = AerConfig {
            n,
            t: (n as f64 * 0.15) as usize,
            epsilon: 1.0 / 12.0,
            d: default_quorum_size(n, 3.0),
            string_len: gstring_len(n, 4),
            overload_cap: {
                let l = u64::from(ceil_log2(n));
                (l * l).max(4)
            },
            label_cardinality: PollSampler::default_cardinality(n),
            sampler_seed: 0x5eed,
            poll_timeout: Self::sync_poll_horizon(),
            poll_attempts: 3,
            repair_attempts: 4,
            eager_repair: true,
        };
        cfg.validate().expect("recommended config must be valid");
        cfg
    }

    /// The fault-free synchronous delivery horizon of one poll: the
    /// longest message chain a successful verification traverses —
    /// `Poll`/`Pull` → `Fw1` → `Fw2` → `Answer`, four hops — plus one
    /// step of slack for the push acceptance that may precede the poll.
    ///
    /// This is the natural unit for `poll_timeout`: it depends only on
    /// the pipeline's hop count, so it is *constant in `n`* — a poll that
    /// produced nothing within one horizon will not produce anything by
    /// waiting longer. Asynchronous engines multiply hop latency by their
    /// delay bound; retries and repair there fire early and harmlessly
    /// (every handler is idempotent and answer-majority gated).
    #[must_use]
    pub const fn sync_poll_horizon() -> u64 {
        5
    }

    /// Strict paper mode: one poll per candidate, no retries, no repair.
    /// Used by the timing experiments (Lemmas 6/8) where the liveness
    /// extensions would mask the adversary's delay chains.
    #[must_use]
    pub fn strict(mut self) -> Self {
        self.poll_attempts = 1;
        self.repair_attempts = 0;
        self.eager_repair = false;
        self
    }

    /// Returns a copy with a different Byzantine budget `t`.
    #[must_use]
    pub fn with_t(mut self, t: usize) -> Self {
        self.t = t;
        self
    }

    /// Returns a copy with a different sampler seed.
    #[must_use]
    pub fn with_sampler_seed(mut self, seed: u64) -> Self {
        self.sampler_seed = seed;
        self
    }

    /// Returns a copy with a different overload cap.
    #[must_use]
    pub fn with_overload_cap(mut self, cap: u64) -> Self {
        self.overload_cap = cap;
        self
    }

    /// Returns a copy with a different quorum size `d`.
    #[must_use]
    pub fn with_d(mut self, d: usize) -> Self {
        self.d = d;
        self
    }

    /// Checks the paper's parameter constraints.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.n < Self::MIN_N {
            return Err(ConfigError::SystemTooSmall { n: self.n });
        }
        if self.epsilon <= 0.0 || self.epsilon.is_nan() {
            return Err(ConfigError::NonPositiveEpsilon {
                epsilon: self.epsilon,
            });
        }
        let bound = (1.0 / 3.0 - self.epsilon) * self.n as f64;
        if (self.t as f64) >= bound {
            return Err(ConfigError::TooManyFaults {
                t: self.t,
                bound: bound.ceil() as usize,
            });
        }
        if self.d < 3 || self.d > self.n {
            return Err(ConfigError::BadQuorumSize {
                d: self.d,
                n: self.n,
            });
        }
        if self.string_len < 8 {
            return Err(ConfigError::StringTooShort {
                len: self.string_len,
            });
        }
        if self.overload_cap == 0 {
            return Err(ConfigError::ZeroOverloadCap);
        }
        if self.label_cardinality < 2 {
            return Err(ConfigError::LabelDomainTooSmall {
                cardinality: self.label_cardinality,
            });
        }
        if self.poll_attempts == 0 || (self.poll_attempts > 1 && self.poll_timeout == 0) {
            return Err(ConfigError::BadRetryPolicy {
                attempts: self.poll_attempts,
                timeout: self.poll_timeout,
            });
        }
        Ok(())
    }

    /// The shared push/pull quorum scheme (`I` and `H`).
    #[must_use]
    pub fn scheme(&self) -> QuorumScheme {
        QuorumScheme::new(self.sampler_seed, self.n, self.d)
    }

    /// The shared poll-list sampler (`J`).
    #[must_use]
    pub fn poll_sampler(&self) -> PollSampler {
        PollSampler::new(self.sampler_seed, self.n, self.d, self.label_cardinality)
    }

    /// Strict-majority threshold for quorums and poll lists
    /// (`⌊d/2⌋ + 1`).
    #[must_use]
    pub fn majority(&self) -> usize {
        self.d / 2 + 1
    }

    /// Default synchronous engine configuration for this deployment:
    /// enough steps for the retry/repair schedule to play out. The one
    /// source of the default — the harness and the scenario builder both
    /// delegate here.
    #[must_use]
    pub fn engine_sync(&self) -> fba_sim::EngineConfig {
        let budget = self.poll_timeout
            * (u64::from(self.poll_attempts) + u64::from(self.repair_attempts) + 2);
        fba_sim::EngineConfig {
            max_steps: budget.max(60),
            ..fba_sim::EngineConfig::sync(self.n)
        }
    }

    /// Default asynchronous engine configuration (`max_delay` steps of
    /// adversarial delay). The one source of the default — see
    /// [`AerConfig::engine_sync`].
    #[must_use]
    pub fn engine_async(&self, max_delay: fba_sim::Step) -> fba_sim::EngineConfig {
        fba_sim::EngineConfig {
            max_steps: 400,
            ..fba_sim::EngineConfig::asynchronous(self.n, max_delay)
        }
    }
}

/// A violated [`AerConfig`] constraint.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ConfigError {
    /// `n` is too small for quorum logic to be meaningful.
    SystemTooSmall {
        /// Offending system size.
        n: usize,
    },
    /// `ε` must be strictly positive.
    NonPositiveEpsilon {
        /// Offending epsilon.
        epsilon: f64,
    },
    /// `t ≥ (1/3 − ε)·n`.
    TooManyFaults {
        /// Requested fault budget.
        t: usize,
        /// Exclusive upper bound implied by `n` and `ε`.
        bound: usize,
    },
    /// Quorum size out of `[3, n]`.
    BadQuorumSize {
        /// Requested quorum size.
        d: usize,
        /// System size.
        n: usize,
    },
    /// Candidate strings shorter than 8 bits.
    StringTooShort {
        /// Requested length.
        len: usize,
    },
    /// The overload cap must be at least 1.
    ZeroOverloadCap,
    /// The label domain must contain at least two labels.
    LabelDomainTooSmall {
        /// Requested cardinality.
        cardinality: u64,
    },
    /// `poll_attempts` must be at least 1, and retries need a non-zero
    /// timeout.
    BadRetryPolicy {
        /// Requested attempts.
        attempts: u32,
        /// Requested timeout.
        timeout: u64,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::SystemTooSmall { n } => write!(f, "system size {n} is below 8"),
            ConfigError::NonPositiveEpsilon { epsilon } => {
                write!(f, "epsilon must be positive, got {epsilon}")
            }
            ConfigError::TooManyFaults { t, bound } => {
                write!(f, "fault budget {t} reaches the (1/3 - eps) bound {bound}")
            }
            ConfigError::BadQuorumSize { d, n } => {
                write!(f, "quorum size {d} outside [3, {n}]")
            }
            ConfigError::StringTooShort { len } => {
                write!(
                    f,
                    "candidate strings of {len} bits are below the 8-bit floor"
                )
            }
            ConfigError::ZeroOverloadCap => write!(f, "overload cap must be at least 1"),
            ConfigError::LabelDomainTooSmall { cardinality } => {
                write!(f, "label domain of cardinality {cardinality} is too small")
            }
            ConfigError::BadRetryPolicy { attempts, timeout } => {
                write!(
                    f,
                    "retry policy of {attempts} attempts with timeout {timeout} is degenerate"
                )
            }
        }
    }
}

impl Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recommended_is_valid_across_sizes() {
        for n in [8, 16, 64, 256, 1024, 4096] {
            let cfg = AerConfig::recommended(n);
            assert!(cfg.validate().is_ok(), "n={n}");
            assert!(cfg.d >= 3 && cfg.d <= n);
            assert!((cfg.t as f64) < (1.0 / 3.0 - cfg.epsilon) * n as f64);
        }
    }

    #[test]
    fn recommended_scales_logarithmically() {
        let small = AerConfig::recommended(64);
        let large = AerConfig::recommended(4096);
        assert!(large.d > small.d);
        assert!(large.d < 4 * small.d);
        assert!(large.string_len > small.string_len);
    }

    #[test]
    #[should_panic(expected = "n ≥ 8")]
    fn recommended_rejects_tiny_systems() {
        let _ = AerConfig::recommended(4);
    }

    #[test]
    fn validate_rejects_too_many_faults() {
        let cfg = AerConfig::recommended(100).with_t(40);
        assert_eq!(
            cfg.validate(),
            Err(ConfigError::TooManyFaults { t: 40, bound: 25 })
        );
    }

    #[test]
    fn validate_rejects_bad_quorum() {
        let cfg = AerConfig::recommended(64).with_d(2);
        assert!(matches!(
            cfg.validate(),
            Err(ConfigError::BadQuorumSize { .. })
        ));
        let cfg = AerConfig::recommended(64).with_d(65);
        assert!(matches!(
            cfg.validate(),
            Err(ConfigError::BadQuorumSize { .. })
        ));
    }

    #[test]
    fn validate_rejects_degenerate_fields() {
        let mut cfg = AerConfig::recommended(64);
        cfg.epsilon = 0.0;
        assert!(matches!(
            cfg.validate(),
            Err(ConfigError::NonPositiveEpsilon { .. })
        ));

        let mut cfg = AerConfig::recommended(64);
        cfg.string_len = 4;
        assert!(matches!(
            cfg.validate(),
            Err(ConfigError::StringTooShort { .. })
        ));

        let cfg = AerConfig::recommended(64).with_overload_cap(0);
        assert_eq!(cfg.validate(), Err(ConfigError::ZeroOverloadCap));

        let mut cfg = AerConfig::recommended(64);
        cfg.label_cardinality = 1;
        assert!(matches!(
            cfg.validate(),
            Err(ConfigError::LabelDomainTooSmall { .. })
        ));

        let mut cfg = AerConfig::recommended(64);
        cfg.poll_attempts = 0;
        assert!(matches!(
            cfg.validate(),
            Err(ConfigError::BadRetryPolicy { .. })
        ));

        let mut cfg = AerConfig::recommended(64);
        cfg.poll_timeout = 0;
        assert!(matches!(
            cfg.validate(),
            Err(ConfigError::BadRetryPolicy { .. })
        ));
    }

    #[test]
    fn strict_mode_disables_liveness_extensions() {
        let cfg = AerConfig::recommended(64).strict();
        assert_eq!(cfg.poll_attempts, 1);
        assert_eq!(cfg.repair_attempts, 0);
        assert!(!cfg.eager_repair);
        assert!(cfg.validate().is_ok(), "strict mode must stay valid");
    }

    #[test]
    fn recommended_timeout_is_the_delivery_horizon_at_every_scale() {
        // The retry-wave fix: the poll timeout tracks pipeline depth, not
        // n, so the retry/repair schedule is identical at every scale.
        for n in [8, 64, 1024, 4096, 16384] {
            let cfg = AerConfig::recommended(n);
            assert_eq!(cfg.poll_timeout, AerConfig::sync_poll_horizon(), "n={n}");
            assert!(cfg.eager_repair, "n={n}");
        }
    }

    #[test]
    fn builders_override_fields() {
        let cfg = AerConfig::recommended(64)
            .with_t(5)
            .with_sampler_seed(9)
            .with_overload_cap(77)
            .with_d(11);
        assert_eq!(cfg.t, 5);
        assert_eq!(cfg.sampler_seed, 9);
        assert_eq!(cfg.overload_cap, 77);
        assert_eq!(cfg.d, 11);
    }

    #[test]
    fn derived_samplers_share_seed_and_size() {
        let cfg = AerConfig::recommended(128);
        let scheme = cfg.scheme();
        let poll = cfg.poll_sampler();
        assert_eq!(scheme.n(), 128);
        assert_eq!(scheme.d(), cfg.d);
        assert_eq!(poll.n(), 128);
        assert_eq!(poll.d(), cfg.d);
        assert_eq!(poll.label_cardinality(), cfg.label_cardinality);
    }

    #[test]
    fn majority_is_strict() {
        let cfg = AerConfig::recommended(64).with_d(12);
        assert_eq!(cfg.majority(), 7);
        let cfg = cfg.with_d(13);
        assert_eq!(cfg.majority(), 7);
    }

    #[test]
    fn errors_display_is_informative() {
        let err = ConfigError::TooManyFaults { t: 40, bound: 25 };
        let shown = err.to_string();
        assert!(shown.contains("40") && shown.contains("25"));
    }
}
