//! Built injectors and the object-safe [`InjectorSpec`] factory trait,
//! plus the window-validating wrapper experiments report effective
//! adversary rates with.

use crate::error::ScenarioError;
use crate::spec::{InjectionConfig, InjectionKind};
use crate::substrate::Substrate;
use dps_core::injection::adversarial::{
    BurstyAdversary, RoundRobinAdversary, SingleEdgeAdversary, SmoothAdversary, WindowValidator,
};
use dps_core::injection::batch::BatchStochasticInjector;
use dps_core::injection::stochastic::{uniform_generators, StochasticInjector};
use dps_core::injection::Injector;
use dps_core::interference::InterferenceModel;
use dps_core::path::RoutePath;
use std::fmt;
use std::sync::Arc;

/// An object-safe factory of injectors.
///
/// The built-in implementation is [`InjectionConfig`]; custom workloads
/// (trace replay, mixed traffic…) implement this trait directly.
pub trait InjectorSpec: fmt::Debug + Send + Sync {
    /// A short human-readable label for tables.
    fn label(&self) -> String;

    /// Builds an injector targeting measure-rate `lambda` on `substrate`.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError`] if the rate is infeasible for the
    /// substrate's route family.
    fn build(
        &self,
        substrate: &Substrate,
        lambda: f64,
    ) -> Result<Box<dyn Injector + Send>, ScenarioError>;
}

impl InjectorSpec for InjectionConfig {
    fn label(&self) -> String {
        match self.kind {
            InjectionKind::Stochastic => "stochastic".into(),
            InjectionKind::Smooth => format!("smooth adversary (w={})", self.window),
            InjectionKind::Bursty => format!("bursty adversary (w={})", self.window),
            InjectionKind::SingleEdge => format!("single-edge adversary (w={})", self.window),
            InjectionKind::RoundRobin => format!("round-robin adversary (w={})", self.window),
        }
    }

    fn build(
        &self,
        substrate: &Substrate,
        lambda: f64,
    ) -> Result<Box<dyn Injector + Send>, ScenarioError> {
        if substrate.routes.is_empty() {
            return Err(ScenarioError::spec(format!(
                "substrate `{}` has no routes to inject on",
                substrate.label
            )));
        }
        let model = substrate.model.clone();
        let routes = substrate.routes.clone();
        let w = self.window;
        Ok(match self.kind {
            // The batch engine samples the generator set: O(1)-amortized
            // idle slots (skip-ahead calendar or counting batch, selected
            // from the generators' totals).
            InjectionKind::Stochastic => Box::new(BatchStochasticInjector::from(
                stochastic_at_rate(&model, routes, lambda)?,
            )),
            InjectionKind::Smooth => Box::new(SmoothAdversary::new(model, routes, w, lambda)),
            InjectionKind::Bursty => Box::new(BurstyAdversary::new(model, routes, w, lambda)),
            InjectionKind::SingleEdge => Box::new(SingleEdgeAdversary::new(
                model,
                routes[0].clone(),
                w,
                lambda,
            )),
            InjectionKind::RoundRobin => {
                Box::new(RoundRobinAdversary::new(model, routes, w, lambda))
            }
        })
    }
}

/// Builds the stochastic generator set over `routes` whose rate under
/// `model` is exactly `lambda`: uniform generators at base probability
/// 0.01, rescaled to the target.
///
/// The rate is linear in the base, so the scaled probabilities do not
/// depend on it and no other base could admit a target this one
/// rejects.
///
/// # Errors
///
/// Propagates the [`dps_core::error::ModelError`] of the scaling, e.g.
/// when the target rate would push a generator past probability one.
pub fn stochastic_at_rate<M: InterferenceModel + ?Sized>(
    model: &M,
    routes: Vec<Arc<RoutePath>>,
    lambda: f64,
) -> Result<StochasticInjector, ScenarioError> {
    Ok(uniform_generators(routes, 0.01)?.scaled_to_rate(model, lambda)?)
}

/// Wraps an injector and records its trace into a [`WindowValidator`], so
/// runs can report the *effective* `(w, λ)` rate an adversary achieved.
pub struct ValidatingInjector<I, M: InterferenceModel> {
    inner: I,
    validator: WindowValidator<M>,
}

impl<I: Injector, M: InterferenceModel> ValidatingInjector<I, M> {
    /// Wraps `inner`, validating under `model` with window length `w`.
    pub fn new(inner: I, model: M, w: usize) -> Self {
        ValidatingInjector {
            inner,
            validator: WindowValidator::new(model, w),
        }
    }

    /// The recorded validator.
    pub fn validator(&self) -> &WindowValidator<M> {
        &self.validator
    }
}

impl<I: Injector, M: InterferenceModel> Injector for ValidatingInjector<I, M> {
    fn inject_into(
        &mut self,
        slot: u64,
        rng: &mut dyn rand::RngCore,
        out: &mut Vec<Arc<RoutePath>>,
    ) {
        self.inner.inject_into(slot, rng, out);
        self.validator.record_slot(out.iter().map(|p| p.as_ref()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SubstrateConfig;
    use crate::substrate::SubstrateSpec;
    use dps_core::error::ModelError;
    use dps_core::rng::split_stream;

    #[test]
    fn every_kind_builds_and_injects() {
        let substrate = SubstrateConfig::RingRouting { nodes: 4, hops: 1 }
            .build()
            .unwrap();
        for kind in [
            InjectionKind::Stochastic,
            InjectionKind::Smooth,
            InjectionKind::Bursty,
            InjectionKind::SingleEdge,
            InjectionKind::RoundRobin,
        ] {
            let config = InjectionConfig {
                kind,
                lambda: 0.5,
                ..InjectionConfig::default()
            };
            let mut injector = config.build(&substrate, 0.5).expect("builds");
            let mut rng = split_stream(1, 0);
            let mut total = 0usize;
            for slot in 0..256 {
                total += injector.inject(slot, &mut rng).len();
            }
            assert!(total > 0, "{kind:?} injected nothing");
        }
    }

    #[test]
    fn stochastic_hits_requested_rate() {
        let substrate = SubstrateConfig::RingRouting { nodes: 4, hops: 1 }
            .build()
            .unwrap();
        let injector =
            stochastic_at_rate(&*substrate.model, substrate.routes.clone(), 0.7).unwrap();
        assert!((injector.rate(&*substrate.model) - 0.7).abs() < 1e-9);
    }

    #[test]
    fn stochastic_rejects_infeasible_rate_with_a_typed_error() {
        let substrate = SubstrateConfig::RingRouting { nodes: 4, hops: 1 }
            .build()
            .unwrap();
        // Identity interference: rate 1.5 needs per-generator
        // probability 1.5.
        let err = stochastic_at_rate(&*substrate.model, substrate.routes.clone(), 1.5).unwrap_err();
        assert!(
            matches!(err, ScenarioError::Model(ModelError::InvalidProbability(_))),
            "{err:?}"
        );
        let err = stochastic_at_rate(&*substrate.model, substrate.routes.clone(), 0.0).unwrap_err();
        assert!(
            matches!(err, ScenarioError::Model(ModelError::InvalidRate(_))),
            "{err:?}"
        );
    }

    #[test]
    fn validator_observes_adversary_within_bound() {
        let substrate = SubstrateConfig::RingRouting { nodes: 4, hops: 1 }
            .build()
            .unwrap();
        let config = InjectionConfig {
            kind: InjectionKind::Bursty,
            lambda: 0.6,
            window: 16,
            ..InjectionConfig::default()
        };
        let inner = config.build(&substrate, 0.6).unwrap();
        let mut validating = ValidatingInjector::new(inner, substrate.model.clone(), 16);
        let mut rng = split_stream(2, 0);
        for slot in 0..512 {
            let _ = validating.inject(slot, &mut rng);
        }
        assert!(validating.validator().is_bounded(0.6 + 1e-9));
        assert!(validating.validator().effective_rate() > 0.2);
    }
}
