//! Fixture-based self-tests: every rule has a violating fixture it
//! demonstrably catches and a clean fixture (with near-misses) it
//! demonstrably does not.
//!
//! Fixtures are real `.rs` files under `fixtures/`, linted under a
//! *pseudo-path* that places them in the crate whose rule set is under
//! test — the same path-driven scoping `lint_workspace` uses.

use fba_lint::{lint_source, Config, RuleId};

/// Lints a fixture as if it lived at `pseudo_path`.
fn lint(pseudo_path: &str, source: &str) -> Vec<fba_lint::Diagnostic> {
    lint_source(pseudo_path, source, &Config::default())
}

/// Asserts the fixture trips `rule` (and nothing else) at the given path.
fn assert_catches(rule: RuleId, pseudo_path: &str, source: &str) {
    let diags = lint(pseudo_path, source);
    assert!(
        diags.iter().any(|d| d.rule == rule),
        "{rule} fixture at {pseudo_path} must be caught; got {diags:?}"
    );
    assert!(
        diags.iter().all(|d| d.rule == rule),
        "{rule} fixture must trip only {rule}; got {diags:?}"
    );
}

/// Asserts the fixture is completely clean at the given path.
fn assert_clean(pseudo_path: &str, source: &str) {
    let diags = lint(pseudo_path, source);
    assert!(
        diags.is_empty(),
        "expected clean at {pseudo_path}: {diags:?}"
    );
}

#[test]
fn d1_randomized_hasher_containers() {
    let path = "crates/core/src/fixture.rs";
    assert_catches(RuleId::D1, path, include_str!("../fixtures/d1_bad.rs"));
    assert_clean(path, include_str!("../fixtures/d1_clean.rs"));
}

#[test]
fn d1_does_not_bind_bench() {
    // The same container is fine in the (non-deterministic) bench crate.
    assert_clean(
        "crates/bench/src/fixture.rs",
        include_str!("../fixtures/d1_bad.rs"),
    );
}

#[test]
fn d2_ad_hoc_parallelism() {
    let path = "crates/samplers/src/fixture.rs";
    assert_catches(RuleId::D2, path, include_str!("../fixtures/d2_bad.rs"));
    assert_clean(path, include_str!("../fixtures/d2_clean.rs"));
    // …and the identical code is sanctioned inside the sweep fan-out.
    assert_clean(
        "crates/bench/src/par.rs",
        include_str!("../fixtures/d2_bad.rs"),
    );
}

#[test]
fn d3_wall_clock_reads() {
    let path = "crates/sim/src/fixture.rs";
    assert_catches(RuleId::D3, path, include_str!("../fixtures/d3_bad.rs"));
    assert_clean(path, include_str!("../fixtures/d3_clean.rs"));
    // fba-bench is the timing code: the same read is sanctioned there.
    assert_clean(
        "crates/bench/src/fixture.rs",
        include_str!("../fixtures/d3_bad.rs"),
    );
}

#[test]
fn d4_rng_construction() {
    let path = "crates/baselines/src/fixture.rs";
    assert_catches(RuleId::D4, path, include_str!("../fixtures/d4_bad.rs"));
    assert_clean(path, include_str!("../fixtures/d4_clean.rs"));
    // The seed-split helpers themselves are the sanctioned site.
    assert_clean(
        "crates/sim/src/rng.rs",
        include_str!("../fixtures/d4_bad.rs"),
    );
}

#[test]
fn d5_unsafe_allowlist_and_safety_comments() {
    // Outside the allowlist: unsafe is a violation even with SAFETY.
    assert_catches(
        RuleId::D5,
        "crates/core/src/fixture.rs",
        include_str!("../fixtures/d5_bad_outside.rs"),
    );
    // On the allowlist but unaudited: still a violation.
    assert_catches(
        RuleId::D5,
        "crates/sim/src/tuning.rs",
        include_str!("../fixtures/d5_bad_no_safety.rs"),
    );
    // On the allowlist with the audit comment: clean.
    assert_clean(
        "crates/sim/src/tuning.rs",
        include_str!("../fixtures/d5_clean.rs"),
    );
}

#[test]
fn d6_environment_reads() {
    let path = "crates/scenario/src/fixture.rs";
    assert_catches(RuleId::D6, path, include_str!("../fixtures/d6_bad.rs"));
    assert_clean(path, include_str!("../fixtures/d6_clean.rs"));
    // The engine's FBA_BATCH site is sanctioned.
    assert_clean(
        "crates/sim/src/engine.rs",
        include_str!("../fixtures/d6_bad.rs"),
    );
}

#[test]
fn d7_print_macros_in_library_code() {
    let path = "crates/ae/src/fixture.rs";
    assert_catches(RuleId::D7, path, include_str!("../fixtures/d7_bad.rs"));
    assert_clean(path, include_str!("../fixtures/d7_clean.rs"));
    // Binaries own their stdout.
    assert_clean(
        "crates/bench/src/bin/fixture.rs",
        include_str!("../fixtures/d7_bad.rs"),
    );
}

#[test]
fn violations_inside_cfg_test_modules_are_out_of_scope() {
    // The suite samples; the lint binds shipped code. A test module may
    // use whatever the test needs.
    let src = "pub fn live() {}\n\
               #[cfg(test)]\n\
               mod tests {\n\
                   use std::collections::HashMap;\n\
                   use std::time::Instant;\n\
                   #[test]\n\
                   fn t() { let _ = (HashMap::<u32, u32>::new(), Instant::now()); }\n\
               }\n";
    assert_clean("crates/core/src/fixture.rs", src);
}
