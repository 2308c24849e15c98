//! Thin shims over [`dps_scenario`] for the experiments that still wire
//! components by hand (E1, E3, E4, E6, E7, E9, E10 drive protocol
//! internals no declarative spec exposes).
//!
//! New workloads should not use this module: describe a
//! [`dps_scenario::ScenarioSpec`] (or implement the factory traits) and
//! run it — see E2/E5/E8/E11 for the pattern.
//!
//! Stochastic injection here runs the same sampler as a scenario spec
//! with `kind = "stochastic"`: [`injector_at_rate`] wraps the scaled
//! generator set in a [`BatchStochasticInjector`].

use dps_core::dynamic::{DynamicProtocol, FrameConfig};
use dps_core::error::ModelError;
use dps_core::feasibility::Feasibility;
use dps_core::injection::batch::BatchStochasticInjector;
use dps_core::injection::Injector;
use dps_core::interference::InterferenceModel;
use dps_core::path::RoutePath;
use dps_core::protocol::Protocol;
use dps_core::staticsched::StaticScheduler;
use dps_sim::runner::{run_simulation, SimulationConfig, SimulationReport};
use dps_sim::stability::{classify_stability, StabilityVerdict};
use std::sync::Arc;

pub use dps_scenario::scenario::verdict_cell;
pub use dps_scenario::substrate::single_hop_routes;

/// Builds the batch engine over the stochastic generator set on
/// `routes` whose rate under `model` is exactly `lambda`. The set comes
/// from [`dps_scenario::injector::stochastic_at_rate`].
///
/// # Errors
///
/// Propagates [`ModelError`] if the target rate is infeasible for the
/// per-generator probability constraint.
pub fn injector_at_rate<M: InterferenceModel + ?Sized>(
    routes: Vec<Arc<RoutePath>>,
    model: &M,
    lambda: f64,
) -> Result<BatchStochasticInjector, ModelError> {
    dps_scenario::injector::stochastic_at_rate(model, routes, lambda)
        .map(BatchStochasticInjector::from)
        .map_err(|e| match e {
            dps_scenario::ScenarioError::Model(e) => e,
            other => ModelError::InvalidConfig(other.to_string()),
        })
}

/// Everything a dynamic-protocol run needs, pre-assembled.
pub struct DynamicRun<S: StaticScheduler + Clone> {
    /// The protocol under test.
    pub protocol: DynamicProtocol<S>,
    /// The frame configuration it was built with.
    pub config: FrameConfig,
}

/// Builds a tuned frame configuration and protocol for `scheduler`.
///
/// `lambda_config` is the rate the protocol is *provisioned* for; the
/// injector may exceed it to probe overload behaviour.
///
/// # Errors
///
/// Propagates [`ModelError`] if `lambda_config ≥ 1/f(m)`.
pub fn dynamic_run<S: StaticScheduler + Clone>(
    scheduler: S,
    m: usize,
    num_links: usize,
    lambda_config: f64,
) -> Result<DynamicRun<S>, ModelError> {
    let config = FrameConfig::tuned(&scheduler, m, lambda_config)?;
    let protocol = DynamicProtocol::new(scheduler, config.clone(), num_links);
    Ok(DynamicRun { protocol, config })
}

/// Runs any protocol with any injector and classifies stability.
pub fn run_and_classify<P, I>(
    protocol: &mut P,
    injector: &mut I,
    phy: &dyn Feasibility,
    slots: u64,
    seed: u64,
    stream: u64,
) -> (SimulationReport, StabilityVerdict)
where
    P: Protocol + ?Sized,
    I: Injector + ?Sized,
{
    let report = run_simulation(
        protocol,
        injector,
        phy,
        SimulationConfig::new(slots, seed).with_stream(stream),
    );
    let verdict = classify_stability(&report, 0.05);
    (report, verdict)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dps_core::feasibility::PerLinkFeasibility;
    use dps_core::interference::IdentityInterference;
    use dps_core::staticsched::greedy::GreedyPerLink;

    #[test]
    fn injector_hits_requested_rate() {
        let model = IdentityInterference::new(4);
        let inj = injector_at_rate(single_hop_routes(4), &model, 0.7).unwrap();
        assert!((inj.rate(&model) - 0.7).abs() < 1e-9);
    }

    #[test]
    fn dynamic_run_builds_and_classifies() {
        let model = IdentityInterference::new(2);
        let mut run = dynamic_run(GreedyPerLink::new(), 2, 2, 0.9).unwrap();
        let mut inj = injector_at_rate(single_hop_routes(2), &model, 0.5).unwrap();
        let phy = PerLinkFeasibility::new(2);
        let slots = 40 * run.config.frame_len as u64;
        let (report, verdict) = run_and_classify(&mut run.protocol, &mut inj, &phy, slots, 1, 0);
        assert!(report.injected > 0);
        assert!(verdict.is_stable(), "{verdict:?}");
    }

    #[test]
    fn verdict_cells_are_distinct() {
        assert_eq!(
            verdict_cell(&StabilityVerdict::Stable { slope: 0.0 }),
            "stable"
        );
        assert!(verdict_cell(&StabilityVerdict::Unstable { slope: 0.5 }).contains("UNSTABLE"));
    }
}
