//! The rejection table: every malformed scenario is a typed
//! [`ScenarioError`] from [`Scenario::validate`], and every run entry
//! point (`run`, `run_observed`, `run_instance`, `run_service`) returns
//! that same error — none of them panics or re-checks a different subset.

use std::panic::{catch_unwind, AssertUnwindSafe};

use fba::scenario::{Baseline, Phase, PreconditionSpec, Scenario, ScenarioError};
use fba::sim::{AdversarySpec, NullObserver};

const SEED: u64 = 7;

/// A public entry point, reduced to its error.
type Entry = (&'static str, fn(&Scenario) -> Result<(), ScenarioError>);

const ENTRIES: [Entry; 5] = [
    ("validate", |s| s.validate()),
    ("run", |s| s.run(SEED).map(drop)),
    ("run_observed", |s| {
        s.run_observed(SEED, &mut NullObserver).map(drop)
    }),
    ("run_instance", |s| s.run_instance(SEED, SEED + 1).map(drop)),
    ("run_service", |s| s.run_service(SEED).map(drop)),
];

/// One malformed scenario and the error variant it must raise.
struct Row {
    label: &'static str,
    scenario: Scenario,
    expect: fn(&ScenarioError) -> bool,
}

fn too_small(e: &ScenarioError) -> bool {
    matches!(e, ScenarioError::UnsupportedScale { n: 4, min: 8, .. })
}

fn knowing(e: &ScenarioError) -> bool {
    matches!(e, ScenarioError::KnowingOutOfRange { .. })
}

fn inputs(e: &ScenarioError) -> bool {
    matches!(e, ScenarioError::InputsLengthMismatch { n: 16, .. })
}

fn crash(e: &ScenarioError) -> bool {
    matches!(e, ScenarioError::CrashSpecInvalid { .. })
}

fn config(e: &ScenarioError) -> bool {
    matches!(e, ScenarioError::Config(_))
}

fn rows() -> Vec<Row> {
    let klst = |knowing| {
        Phase::Baseline(Baseline::Klst {
            precondition: PreconditionSpec::knowing(knowing),
        })
    };
    let flood = |knowing| {
        Phase::Baseline(Baseline::Flood {
            precondition: PreconditionSpec::knowing(knowing),
        })
    };
    let row = |label, scenario, expect| Row {
        label,
        scenario,
        expect,
    };
    vec![
        row("n=4 aer", Scenario::new(4), too_small),
        row(
            "n=4 composed",
            Scenario::new(4).phase(Phase::Composed),
            too_small,
        ),
        row("n=4 ae", Scenario::new(4).phase(Phase::Ae), too_small),
        row("n=4 klst", Scenario::new(4).phase(klst(0.8)), too_small),
        row("n=4 flood", Scenario::new(4).phase(flood(0.8)), too_small),
        row(
            "n > MAX_N",
            Scenario::new(Scenario::MAX_N + 1),
            |e| matches!(e, ScenarioError::UnsupportedScale { max, .. } if *max == Scenario::MAX_N),
        ),
        row(
            "aer knowing 2.0",
            Scenario::new(32).phase(Phase::aer(2.0)),
            knowing,
        ),
        row(
            "aer knowing NaN",
            Scenario::new(32).phase(Phase::aer(f64::NAN)),
            knowing,
        ),
        row(
            "klst knowing 1.5",
            Scenario::new(32).phase(klst(1.5)),
            knowing,
        ),
        row(
            "flood knowing -0.25",
            Scenario::new(32).phase(flood(-0.25)),
            knowing,
        ),
        row(
            "benor short inputs",
            Scenario::new(16)
                .phase(Phase::Baseline(Baseline::BenOr { bias: 0.9 }))
                .inputs(vec![true; 3]),
            inputs,
        ),
        row(
            "phase-king long inputs",
            Scenario::new(16)
                .phase(Phase::Baseline(Baseline::PhaseKing))
                .inputs(vec![false; 20]),
            inputs,
        ),
        row(
            "crash spec on the ae phase",
            Scenario::new(32)
                .phase(Phase::Ae)
                .faults_spec("crash:[2..5]4".parse().expect("parses")),
            crash,
        ),
        row(
            "crash window larger than n",
            Scenario::new(16).faults_spec("crash:[2..5]64".parse().expect("parses")),
            crash,
        ),
        row(
            "mismatched sched budgets",
            Scenario::new(32).adversary(
                "sched:[0..2]silent:3;[2..]flood"
                    .parse::<AdversarySpec>()
                    .expect("parses"),
            ),
            |e| matches!(e, ScenarioError::ScheduleBudgetMismatch { .. }),
        ),
        row("quorum_size(0)", Scenario::new(32).quorum_size(0), config),
        row("overload_cap(0)", Scenario::new(32).overload_cap(0), config),
    ]
}

#[test]
fn every_entry_point_rejects_every_row_with_the_same_typed_error() {
    let mut failures = Vec::new();
    for row in rows() {
        // A well-formed service spec, so run_service can only fail on
        // the row's own defect.
        let scenario = row.scenario.service(2, 4);
        for (entry, call) in ENTRIES {
            let at = format!("{} via {entry}", row.label);
            match catch_unwind(AssertUnwindSafe(|| call(&scenario))) {
                Err(_) => failures.push(format!("{at}: panicked")),
                Ok(Ok(())) => failures.push(format!("{at}: accepted")),
                Ok(Err(err)) if !(row.expect)(&err) => {
                    failures.push(format!("{at}: wrong error {err:?}"));
                }
                Ok(Err(_)) => {}
            }
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
fn the_binary_baselines_have_no_size_floor() {
    // The size floor is per phase: Ben-Or and Phase-King run at any n.
    for phase in [
        Phase::Baseline(Baseline::BenOr { bias: 0.9 }),
        Phase::Baseline(Baseline::PhaseKing),
    ] {
        let scenario = Scenario::new(4).phase(phase);
        scenario.validate().expect("no floor");
        scenario.run(SEED).expect("runs at n = 4");
    }
}
