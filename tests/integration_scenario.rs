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

/// Asserts that two reports agree on every field.
fn assert_same_report(a: &SimulationReport, b: &SimulationReport, context: &str) {
    assert_eq!(a.injected, b.injected, "{context}");
    assert_eq!(a.delivered, b.delivered, "{context}");
    assert_eq!(a.backlog_series, b.backlog_series, "{context}");
    assert_eq!(a.final_backlog, b.final_backlog, "{context}");
    assert_eq!(a.latencies, b.latencies, "{context}");
    assert_eq!(a.path_lens, b.path_lens, "{context}");
    assert_eq!(a.potential.samples(), b.potential.samples(), "{context}");
    assert_eq!(a.attempts, b.attempts, "{context}");
    assert_eq!(a.successes, b.successes, "{context}");
    assert_eq!(a.slots, b.slots, "{context}");
    assert_eq!(a.idle_slots_skipped, b.idle_slots_skipped, "{context}");
}

/// Runs `sweep` and checks it cell by cell against fully independent
/// construction, bypassing the sweep machinery altogether: each cell
/// must sit at its `points()` position and match a direct
/// `Scenario::run_stream` of its own spec on every report field.
fn assert_sweep_matches_per_cell_construction(base: &ScenarioSpec, sweep: Sweep) {
    let points = sweep.points();
    let report = sweep.run().unwrap();
    assert_eq!(report.cells.len(), points.len());
    for (cell, point) in report.cells.iter().zip(&points) {
        assert_eq!(cell.point, *point);
        let mut cell_spec = base.clone().with_lambda(point.lambda);
        if let Some(m) = point.size {
            cell_spec = cell_spec.with_size(m);
        }
        let direct = Scenario::from_spec(&cell_spec.with_seed(point.seed))
            .unwrap()
            .run_stream(point.rep)
            .unwrap();
        assert_same_report(
            &cell.outcome.report,
            &direct.report,
            &format!("{} {point:?}", base.name),
        );
    }
}

/// Golden check of substrate sharing: a SINR sweep that builds its one
/// topology once and hands it to all λ/repetition cells produces
/// bit-for-bit the cells of independent per-cell construction.
#[test]
fn shared_substrate_sweep_matches_per_cell_construction() {
    let mut spec = registry::spec_for("sinr-dense").unwrap().with_size(12);
    spec.run.frames = 4;
    let sweep = Sweep::new(spec.clone())
        .over_lambdas(&[0.4, 0.9])
        .repetitions(2)
        .threads(2);
    assert_eq!(sweep.points().len(), 4);
    assert_sweep_matches_per_cell_construction(&spec, sweep);
}

/// The multi-topology case: a size sweep builds one substrate per size,
/// runs that size's cells, and drops it before the next size — and
/// still returns the cells of per-cell construction, in grid order
/// (λ outermost, so each topology's cells are interleaved with the
/// other's).
#[test]
fn multi_size_sweep_matches_per_cell_construction() {
    for name in ["sinr-linear", "sinr-dense"] {
        let mut spec = registry::spec_for(name).unwrap();
        spec.run.frames = 2;
        let sweep = Sweep::new(spec.clone())
            .over_sizes(&[6, 8])
            .over_lambdas(&[0.4, 0.9])
            .repetitions(2)
            .threads(2);
        assert_eq!(sweep.points().len(), 8);
        assert_sweep_matches_per_cell_construction(&spec, sweep);
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
