//! Integration tests of the unified scenario API through the `dps`
//! facade: declarative specs, the preset registry across all substrate
//! families, and cross-thread determinism.

use dps::prelude::*;

#[test]
fn toml_spec_runs_end_to_end() {
    let spec = ScenarioSpec::from_toml(
        r#"
        name = "integration ring"

        [substrate]
        kind = "ring-routing"
        nodes = 6
        hops = 2

        [protocol]
        kind = "frame-greedy"

        [injection]
        kind = "stochastic"
        lambda = 0.5

        [run]
        frames = 30
        seed = 9
    "#,
    )
    .expect("valid TOML spec");
    let outcome = Scenario::from_spec(&spec).unwrap().run().unwrap();
    assert!(outcome.report.injected > 0);
    assert_eq!(
        outcome.report.delivered + outcome.report.final_backlog as u64,
        outcome.report.injected
    );
    assert!(outcome.verdict.is_stable(), "{:?}", outcome.verdict);
}

#[test]
fn json_spec_equals_toml_spec() {
    let spec = registry::spec_for("grid-routing").unwrap();
    let via_json = ScenarioSpec::from_json(&spec.to_json()).unwrap();
    let via_toml = ScenarioSpec::from_toml(&spec.to_toml()).unwrap();
    assert_eq!(via_json, spec);
    assert_eq!(via_toml, spec);
}

/// Presets across all four substrate families build and run (short
/// horizons; the verdicts of full-length runs are covered by E2/E5/E8/E11
/// and the scenario crate's own tests).
#[test]
fn presets_span_every_substrate_family() {
    let quick: &[(&str, u64)] = &[
        ("ring-routing", 10),     // routing
        ("routing-sis", 200),     // routing baseline, frameless
        ("mac-roundrobin", 5),    // multiple-access channel
        ("conflict-coloring", 3), // conflict graph
        ("adversarial-ring", 5),  // adversarial injection
        ("sinr-linear", 1),       // SINR
    ];
    for &(name, frames) in quick {
        let mut spec = registry::spec_for(name).unwrap();
        spec.run.frames = frames;
        if name == "sinr-linear" {
            // Shrink the instance so the two-stage frame stays small.
            spec = spec.with_size(6);
        }
        let outcome = Scenario::from_spec(&spec)
            .unwrap_or_else(|e| panic!("{name}: {e}"))
            .run()
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(outcome.report.injected > 0, "{name} injected nothing");
        assert_eq!(
            outcome.report.delivered + outcome.report.final_backlog as u64,
            outcome.report.injected,
            "{name} lost packets"
        );
    }
}

/// Same spec + seed ⇒ identical `SimulationReport`s whether the
/// repetitions run on 1 thread or 4.
#[test]
fn sweep_is_deterministic_across_thread_counts() {
    let mut spec = registry::spec_for("ring-routing").unwrap();
    spec.run.frames = 10;
    let run = |threads: usize| {
        Sweep::new(spec.clone())
            .over_lambdas(&[0.4, 0.9])
            .repetitions(2)
            .threads(threads)
            .run()
            .unwrap()
    };
    let single = run(1);
    let multi = run(4);
    assert_eq!(single.cells.len(), multi.cells.len());
    for (a, b) in single.cells.iter().zip(&multi.cells) {
        assert_eq!(a.point, b.point);
        let (ra, rb) = (&a.outcome.report, &b.outcome.report);
        assert_eq!(ra.injected, rb.injected);
        assert_eq!(ra.delivered, rb.delivered);
        assert_eq!(ra.final_backlog, rb.final_backlog);
        assert_eq!(ra.latencies, rb.latencies);
        assert_eq!(ra.backlog_series, rb.backlog_series);
        assert_eq!(ra.attempts, rb.attempts);
    }
}

/// Golden check of the substrate-sharing layer: a SINR sweep run on
/// shared substrates (one topology per distinct grid key, handed to all
/// λ/repetition cells) produces bit-for-bit the cells of independent
/// per-cell construction through `Scenario::run_stream`.
#[test]
fn shared_substrate_sweep_matches_per_cell_construction() {
    let mut spec = registry::spec_for("sinr-dense").unwrap().with_size(12);
    spec.run.frames = 4;
    let shared = Sweep::new(spec.clone())
        .over_lambdas(&[0.4, 0.9])
        .repetitions(2)
        .threads(2)
        .run()
        .unwrap();
    assert_eq!(shared.cells.len(), 4);
    // Cell-by-cell against fully independent construction, bypassing
    // the sweep machinery altogether: the full decision-relevant trace
    // must match.
    for cell in &shared.cells {
        let cell_spec = spec.clone().with_lambda(cell.point.lambda);
        let direct = Scenario::from_spec(&cell_spec)
            .unwrap()
            .run_stream(cell.point.rep)
            .unwrap();
        let (ra, rb) = (&cell.outcome.report, &direct.report);
        assert_eq!(ra.injected, rb.injected);
        assert_eq!(ra.delivered, rb.delivered);
        assert_eq!(ra.final_backlog, rb.final_backlog);
        assert_eq!(ra.latencies, rb.latencies);
        assert_eq!(ra.backlog_series, rb.backlog_series);
        assert_eq!(ra.attempts, rb.attempts);
        assert_eq!(ra.successes, rb.successes);
    }
}

/// Invalid specs are rejected with spec errors, not panics.
#[test]
fn invalid_specs_are_rejected() {
    let base = registry::spec_for("ring-routing").unwrap();
    assert!(base.clone().with_lambda(0.0).validate().is_err());
    assert!(base.clone().with_lambda(f64::NAN).validate().is_err());
    let mut bad = base.clone();
    bad.substrate = SubstrateConfig::RingRouting { nodes: 0, hops: 1 };
    assert!(bad.validate().is_err());
    let mut bad = base;
    bad.run.provision_cap = 1.5;
    assert!(bad.validate().is_err());
}
