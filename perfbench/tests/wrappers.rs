//! The timing wrappers must be transparent. On toy-size copies of every
//! workload, the wrapped runs (untraced and traced) report exactly what
//! the library's own `Scenario::run` reports, including the event
//! engine's skipped-slot count, and take the route-id lane.

use dps_perfbench::unit::{fingerprint, run_unit};
use dps_perfbench::workload::Workload;
use dps_scenario::registry;
use dps_scenario::spec::{ScenarioSpec, SubstrateConfig};
use dps_scenario::Scenario;
use dps_sim::runner::SimulationReport;

fn assert_same(bare: &SimulationReport, wrapped: &SimulationReport, what: &str) {
    assert_eq!(bare.injected, wrapped.injected, "{what}");
    assert_eq!(bare.delivered, wrapped.delivered, "{what}");
    assert_eq!(bare.final_backlog, wrapped.final_backlog, "{what}");
    assert_eq!(bare.latencies, wrapped.latencies, "{what}");
    assert_eq!(bare.path_lens, wrapped.path_lens, "{what}");
    assert_eq!(bare.backlog_series, wrapped.backlog_series, "{what}");
    assert_eq!(
        bare.potential.samples(),
        wrapped.potential.samples(),
        "{what}"
    );
    assert_eq!(bare.attempts, wrapped.attempts, "{what}");
    assert_eq!(bare.successes, wrapped.successes, "{what}");
    assert_eq!(bare.slots, wrapped.slots, "{what}");
    assert_eq!(
        bare.idle_slots_skipped, wrapped.idle_slots_skipped,
        "{what}"
    );
    assert_eq!(fingerprint(bare), fingerprint(wrapped), "{what}");
}

/// Runs `spec` bare and through both wrapper modes; returns the slots
/// the bare run skipped.
fn check_transparent(spec: &ScenarioSpec) -> u64 {
    let scenario = Scenario::from_spec(spec).unwrap();
    let bare = scenario.run().unwrap().report;
    assert!(bare.injected > 0, "{}", spec.name);
    for traced in [false, true] {
        let what = format!("{} traced={traced}", spec.name);
        let unit = run_unit(&scenario, traced).unwrap_or_else(|e| panic!("{what}: {e}"));
        assert_same(&bare, &unit.report, &what);
        // `run_unit` has already checked that the wrapped run took the
        // lane the bare pair qualifies for; these pairs qualify.
        assert!(unit.interned_lane, "{what}");
        assert_eq!(
            unit.recorder.counters.interned_steps, unit.recorder.counters.steps,
            "{what}"
        );
        if traced {
            assert!(!unit.recorder.spans().is_empty(), "{what}");
            assert_eq!(unit.recorder.counters.injected, bare.injected, "{what}");
        } else {
            assert!(!unit.recorder.busy_step_ns().is_empty(), "{what}");
        }
    }
    bare.idle_slots_skipped
}

#[test]
fn wrapped_runs_match_bare_runs_on_toy_workloads() {
    for workload in Workload::ALL {
        check_transparent(&workload.toy_spec(7));
    }
}

#[test]
fn wrapped_runs_forward_the_skip_hints() {
    // No workload skips slots (the grid's guard forbids it), so a sparse
    // preset shows that the wrappers forward both hints and the skip.
    let mut spec = registry::spec_for("sparse-ring").unwrap();
    spec.run.frames = 40;
    assert!(check_transparent(&spec) > 0, "sparse-ring skipped no slot");
}

#[test]
fn regime_guards_reject_a_workload_outside_its_regime() {
    let churn = Workload::TiledChurn;
    let unit = run_unit(&Scenario::from_spec(&churn.toy_spec(7)).unwrap(), false).unwrap();
    churn.check_regime(&unit).unwrap();
    assert!(Workload::GridSaturated.check_regime(&unit).is_err());

    // A panel budget holding the whole near field never evicts.
    let mut spec = churn.toy_spec(7);
    if let SubstrateConfig::SinrTiled { panel_budget, .. } = &mut spec.substrate {
        *panel_budget = 64 << 20;
    }
    let unit = run_unit(&Scenario::from_spec(&spec).unwrap(), false).unwrap();
    assert!(churn.check_regime(&unit).is_err());

    let grid = Workload::GridSaturated;
    let unit = run_unit(&Scenario::from_spec(&grid.toy_spec(7)).unwrap(), false).unwrap();
    grid.check_regime(&unit).unwrap();
    assert!(Workload::MetroLight.check_regime(&unit).is_err());
}
