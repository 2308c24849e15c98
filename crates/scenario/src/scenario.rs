//! Assembling specs into runnable scenarios, and running them.

use crate::error::ScenarioError;
use crate::injector::{InjectorSpec, ValidatingInjector};
use crate::protocol::ProtocolSpec;
use crate::spec::{RunConfig, ScenarioSpec};
use crate::substrate::{Substrate, SubstrateSpec};
use dps_core::dynamic::AdversarialWrapper;
use dps_sim::runner::{run_simulation, SimulationConfig, SimulationReport};
use dps_sim::stability::{classify_stability, StabilityVerdict};
use std::sync::Arc;

/// A runnable scenario: boxed substrate/protocol/injector factories plus
/// the run parameters.
///
/// Factories rather than instances, because every repetition (and every
/// sweep cell) rebuilds protocol and injector from scratch — that is what
/// makes runs a pure function of `(spec, seed, stream)` and therefore
/// identical across thread counts.
#[derive(Debug)]
pub struct Scenario {
    /// Display name, used in tables.
    pub name: String,
    /// The substrate factory.
    pub substrate: Box<dyn SubstrateSpec>,
    /// The protocol factory.
    pub protocol: Box<dyn ProtocolSpec>,
    /// The injector factory.
    pub injector: Box<dyn InjectorSpec>,
    /// Target injection rate λ (absolute measure per slot, or a fraction
    /// of capacity when `relative_lambda`).
    pub lambda: f64,
    /// Interpret `lambda` relative to the protocol's capacity `1/f(m)`.
    pub relative_lambda: bool,
    /// Wrap the protocol in the Section 5 random-delay smoother with this
    /// `delay_max` (used for adversarial injection).
    pub smoothing: Option<u64>,
    /// Validate the injection trace in a `w`-window validator and report
    /// the effective rate (used for adversarial injection).
    pub validate_window: Option<usize>,
    /// Horizon, seeding and provisioning.
    pub run: RunConfig,
}

/// Everything one scenario run produced.
#[derive(Clone, Debug)]
pub struct ScenarioOutcome {
    /// The scenario name.
    pub name: String,
    /// Substrate label.
    pub substrate: String,
    /// Protocol label.
    pub protocol: String,
    /// Injector label.
    pub injector: String,
    /// The RNG stream (repetition index) of this run.
    pub stream: u64,
    /// The absolute injection rate targeted.
    pub lambda: f64,
    /// The protocol's capacity `1/f(m)`.
    pub lambda_max: f64,
    /// The rate the protocol was provisioned for.
    pub provisioned: f64,
    /// Frame length in slots.
    pub frame_len: usize,
    /// Slots simulated.
    pub slots: u64,
    /// Effective `(w, λ)` rate observed on the injection trace, when a
    /// window validator ran.
    pub effective_rate: Option<f64>,
    /// The full simulation report.
    pub report: SimulationReport,
    /// The stability verdict.
    pub verdict: StabilityVerdict,
}

impl ScenarioOutcome {
    /// Renders the verdict as a table cell.
    pub fn verdict_cell(&self) -> String {
        verdict_cell(&self.verdict)
    }
}

/// Renders a verdict as a table cell.
pub fn verdict_cell(verdict: &StabilityVerdict) -> String {
    match verdict {
        StabilityVerdict::Stable { .. } => "stable".to_string(),
        StabilityVerdict::Unstable { slope } => format!("UNSTABLE ({slope:+.3}/slot)"),
        StabilityVerdict::Inconclusive => "inconclusive".to_string(),
    }
}

impl Scenario {
    /// Assembles a scenario from a declarative spec.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::Spec`] if the spec fails validation.
    pub fn from_spec(spec: &ScenarioSpec) -> Result<Self, ScenarioError> {
        spec.validate()?;
        let adversarial = spec.injection.kind.is_adversarial();
        Ok(Scenario {
            name: spec.name.clone(),
            substrate: Box::new(spec.substrate.clone()),
            protocol: Box::new(spec.protocol.clone()),
            injector: Box::new(spec.injection.clone()),
            lambda: spec.injection.lambda,
            relative_lambda: spec.injection.relative,
            smoothing: adversarial.then_some(spec.injection.delay_max),
            validate_window: adversarial.then_some(spec.injection.window),
            run: spec.run.clone(),
        })
    }

    /// Runs stream 0.
    ///
    /// # Errors
    ///
    /// Propagates assembly errors from the component factories.
    pub fn run(&self) -> Result<ScenarioOutcome, ScenarioError> {
        self.run_stream(0)
    }

    /// Builds this scenario's substrate, shared-ready.
    ///
    /// Substrate builds are deterministic and runs never mutate them, so
    /// the returned handle can serve any number of
    /// [`run_stream_on`](Self::run_stream_on) calls — across repetitions,
    /// sweep cells and worker threads — without changing any result.
    ///
    /// # Errors
    ///
    /// Propagates the substrate factory's build error.
    pub fn build_substrate(&self) -> Result<Arc<Substrate>, ScenarioError> {
        self.substrate.build().map(Arc::new)
    }

    /// Runs one repetition on RNG stream `stream`.
    ///
    /// Substrate, protocol and injector are rebuilt from their specs, so
    /// the result depends only on `(self, stream)` — never on what other
    /// streams ran before or concurrently.
    ///
    /// # Errors
    ///
    /// Propagates assembly errors from the component factories.
    pub fn run_stream(&self, stream: u64) -> Result<ScenarioOutcome, ScenarioError> {
        let substrate = self.build_substrate()?;
        self.run_stream_on(&substrate, stream)
    }

    /// Runs one repetition on RNG stream `stream` against an
    /// already-built substrate (see [`build_substrate`](Self::build_substrate)).
    ///
    /// Only protocol and injector are built here; the result is
    /// bit-for-bit the [`run_stream`](Self::run_stream) result, because
    /// substrate construction is deterministic and read-only during runs.
    /// Repetitions and sweeps call this with one substrate per topology.
    ///
    /// # Errors
    ///
    /// Propagates assembly errors from the component factories, and
    /// returns [`ScenarioError::Report`] if the finished report fails
    /// [`SimulationReport::check`].
    pub fn run_stream_on(
        &self,
        substrate: &Substrate,
        stream: u64,
    ) -> Result<ScenarioOutcome, ScenarioError> {
        let lambda_max = self.protocol.lambda_max(substrate)?;
        let lambda = if self.relative_lambda {
            self.lambda * lambda_max
        } else {
            self.lambda
        };
        let built = self
            .protocol
            .build(substrate, lambda, self.run.provision_cap)?;
        let injector = self.injector.build(substrate, lambda)?;
        let slots = self.run.frames.max(1) * built.frame_len.max(1) as u64;
        let config = SimulationConfig::new(slots, self.run.seed)
            .with_stream(stream)
            .with_events(self.run.events);

        let phy = &*substrate.feasibility;
        let mut effective_rate = None;
        let report = match (self.smoothing, self.validate_window) {
            (smoothing, Some(w)) => {
                let mut validating = ValidatingInjector::new(injector, substrate.model.clone(), w);
                let report = if let Some(delay_max) = smoothing {
                    let mut wrapped =
                        AdversarialWrapper::new(built.protocol, built.frame_len, delay_max);
                    run_simulation(&mut wrapped, &mut validating, phy, config)
                } else {
                    let mut protocol = built.protocol;
                    run_simulation(&mut protocol, &mut validating, phy, config)
                };
                effective_rate = Some(validating.validator().effective_rate());
                report
            }
            (Some(delay_max), None) => {
                let mut wrapped =
                    AdversarialWrapper::new(built.protocol, built.frame_len, delay_max);
                let mut injector = injector;
                run_simulation(&mut wrapped, &mut injector, phy, config)
            }
            (None, None) => {
                let mut protocol = built.protocol;
                let mut injector = injector;
                run_simulation(&mut protocol, &mut injector, phy, config)
            }
        };
        report.check()?;
        let verdict = classify_stability(&report, 0.05);
        Ok(ScenarioOutcome {
            name: self.name.clone(),
            substrate: substrate.label.clone(),
            protocol: self.protocol.label(),
            injector: self.injector.label(),
            stream,
            lambda,
            lambda_max,
            provisioned: built.provisioned,
            frame_len: built.frame_len,
            slots,
            effective_rate,
            report,
            verdict,
        })
    }

    /// Runs `reps` independent repetitions (streams `0..reps`) on up to
    /// `threads` OS threads, in stream order.
    ///
    /// The substrate is built once and shared by every repetition and
    /// worker thread (the [`SubstrateSpec::build`] contract makes that
    /// indistinguishable from a rebuild per repetition). Protocol and
    /// injector are rebuilt per stream as always.
    ///
    /// # Errors
    ///
    /// Returns the substrate build error or the first per-stream error,
    /// if any.
    pub fn run_repetitions(
        &self,
        reps: u64,
        threads: usize,
    ) -> Result<Vec<ScenarioOutcome>, ScenarioError> {
        self.run_repetitions_on(&self.build_substrate()?, reps, threads)
    }

    /// Runs `reps` independent repetitions (streams `0..reps`) against
    /// one caller-supplied substrate, on up to `threads` OS threads, in
    /// stream order — [`run_repetitions`](Self::run_repetitions) with
    /// the substrate held by the caller, so per-substrate diagnostics
    /// (e.g. [`Substrate::sinr_tiles`]'s far-walk and panel counters)
    /// can be read back after the runs.
    ///
    /// # Errors
    ///
    /// Returns the first per-stream error, if any.
    pub fn run_repetitions_on(
        &self,
        substrate: &Arc<Substrate>,
        reps: u64,
        threads: usize,
    ) -> Result<Vec<ScenarioOutcome>, ScenarioError> {
        let results = dps_sim::parallel::parallel_map(reps as usize, threads, |rep| {
            self.run_stream_on(substrate, rep as u64)
        });
        results.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry;

    #[test]
    fn ring_preset_runs_and_is_stable_below_capacity() {
        let spec = registry::spec_for("ring-routing").unwrap();
        let outcome = Scenario::from_spec(&spec).unwrap().run().unwrap();
        assert!(outcome.report.injected > 0);
        assert_eq!(
            outcome.report.delivered + outcome.report.final_backlog as u64,
            outcome.report.injected,
            "packet conservation"
        );
        assert!(outcome.verdict.is_stable(), "{:?}", outcome.verdict);
        assert_eq!(outcome.lambda_max, 1.0);
    }

    #[test]
    fn overload_is_detected() {
        let spec = registry::spec_for("ring-routing").unwrap().with_lambda(1.4);
        let outcome = Scenario::from_spec(&spec).unwrap().run().unwrap();
        assert!(!outcome.verdict.is_stable(), "{:?}", outcome.verdict);
    }

    #[test]
    fn adversarial_runs_report_effective_rate() {
        let mut spec = registry::spec_for("adversarial-ring").unwrap();
        spec.run.frames = 30;
        let outcome = Scenario::from_spec(&spec).unwrap().run().unwrap();
        let effective = outcome.effective_rate.expect("validator ran");
        assert!(effective > 0.0 && effective <= spec.injection.lambda + 1e-9);
    }

    #[test]
    fn event_engine_matches_per_slot_reference_on_presets() {
        // The `events` toggle must be observationally transparent: every
        // report field except the skip diagnostic is bit-for-bit equal.
        for name in ["sparse-ring", "ring-routing", "adversarial-ring"] {
            let mut spec = registry::spec_for(name).unwrap();
            spec.run.frames = 20;
            let fast = Scenario::from_spec(&spec).unwrap().run().unwrap();
            spec.run.events = false;
            let slow = Scenario::from_spec(&spec).unwrap().run().unwrap();
            assert_eq!(fast.report.injected, slow.report.injected, "{name}");
            assert_eq!(fast.report.delivered, slow.report.delivered, "{name}");
            assert_eq!(fast.report.latencies, slow.report.latencies, "{name}");
            assert_eq!(fast.report.path_lens, slow.report.path_lens, "{name}");
            assert_eq!(
                fast.report.backlog_series, slow.report.backlog_series,
                "{name}"
            );
            assert_eq!(
                fast.report.final_backlog, slow.report.final_backlog,
                "{name}"
            );
            assert_eq!(fast.report.attempts, slow.report.attempts, "{name}");
            assert_eq!(fast.report.successes, slow.report.successes, "{name}");
            assert_eq!(slow.report.idle_slots_skipped, 0, "{name}");
        }
    }

    #[test]
    fn event_engine_is_transparent_on_tiled_substrate() {
        // Skip hints must compose with tiled feasibility: a city-shaped
        // (but test-sized) tiled spec reports identical results with the
        // event engine on and off, at ε = 0 and at ε > 0.
        for epsilon in [0.0, 1e-2] {
            let mut spec = registry::spec_for("sinr-city").unwrap();
            if let crate::spec::SubstrateConfig::SinrTiled {
                links,
                side,
                grid,
                epsilon: eps,
                ..
            } = &mut spec.substrate
            {
                *links = 32;
                *side = 120.0;
                *grid = 4;
                *eps = epsilon;
            } else {
                panic!("sinr-city is tiled");
            }
            spec.run.frames = 6;
            let fast = Scenario::from_spec(&spec).unwrap().run().unwrap();
            spec.run.events = false;
            let slow = Scenario::from_spec(&spec).unwrap().run().unwrap();
            assert_eq!(fast.report.injected, slow.report.injected, "eps {epsilon}");
            assert_eq!(
                fast.report.delivered, slow.report.delivered,
                "eps {epsilon}"
            );
            assert_eq!(
                fast.report.latencies, slow.report.latencies,
                "eps {epsilon}"
            );
            assert_eq!(fast.report.attempts, slow.report.attempts, "eps {epsilon}");
            assert_eq!(
                fast.report.successes, slow.report.successes,
                "eps {epsilon}"
            );
            assert_eq!(
                fast.report.final_backlog, slow.report.final_backlog,
                "eps {epsilon}"
            );
            assert_eq!(slow.report.idle_slots_skipped, 0, "eps {epsilon}");
        }
    }

    #[test]
    fn sparse_preset_skips_most_of_the_run() {
        let mut spec = registry::spec_for("sparse-ring").unwrap();
        spec.run.frames = 40;
        let outcome = Scenario::from_spec(&spec).unwrap().run().unwrap();
        assert!(outcome.report.injected > 0, "the ring is quiet, not dead");
        assert!(
            outcome.report.idle_slots_skipped > outcome.slots / 2,
            "skipped only {} of {} slots",
            outcome.report.idle_slots_skipped,
            outcome.slots
        );
    }

    #[test]
    fn repetitions_are_deterministic_across_thread_counts() {
        let mut spec = registry::spec_for("ring-routing").unwrap();
        spec.run.frames = 10;
        let scenario = Scenario::from_spec(&spec).unwrap();
        let sequential = scenario.run_repetitions(4, 1).unwrap();
        let parallel = scenario.run_repetitions(4, 4).unwrap();
        for (a, b) in sequential.iter().zip(&parallel) {
            assert_eq!(a.stream, b.stream);
            assert_eq!(a.report.injected, b.report.injected);
            assert_eq!(a.report.delivered, b.report.delivered);
            assert_eq!(a.report.final_backlog, b.report.final_backlog);
            assert_eq!(a.report.latencies, b.report.latencies);
            assert_eq!(a.report.backlog_series, b.report.backlog_series);
        }
    }
}
