//! Time-independent, finite-user stochastic injection (Section 2.1).
//!
//! A finite set of *generators* each injects at most one packet per slot.
//! The distribution is identical in every slot and independent across
//! generators and slots — exactly the three properties (a), (b), (c) the
//! paper requires. The injection rate is `λ = ‖W·F‖∞` where
//! `F(e) = Σ_g Σ_{P ∋ e} E[X_{g,P}]` counts the expected number of packets
//! per slot whose route uses `e` (with multiplicity).

use crate::error::ModelError;
use crate::interference::InterferenceModel;
use crate::load::LinkLoad;
use crate::path::RoutePath;
use rand::{Rng, RngCore};
use std::sync::Arc;

/// One packet generator: a distribution over routes, injecting at most one
/// packet per slot.
#[derive(Clone, Debug)]
pub struct GeneratorSpec {
    choices: Vec<(Arc<RoutePath>, f64)>,
    total: f64,
}

impl GeneratorSpec {
    /// Validation slack on probability sums: [`GeneratorSpec::new`]
    /// accepts totals up to `1 + ε`, and
    /// [`StochasticInjector::scaled_to_rate`] clamps per-choice products
    /// that rounding pushed up to `1 + ε` back to one.
    pub const PROBABILITY_TOLERANCE: f64 = 1e-9;

    /// Snap tolerance for totals that should be exactly one: sized for
    /// float *accumulation* error (a few ulps per choice — ten `0.1`s
    /// land one ulp below one; thousands of tiny choices stay well
    /// under `1e-12`), deliberately far tighter than
    /// [`PROBABILITY_TOLERANCE`](Self::PROBABILITY_TOLERANCE) so a
    /// user-specified sub-certain probability like `1 − 1e-10` is
    /// honoured, not silently promoted to certainty.
    pub const TOTAL_SNAP_TOLERANCE: f64 = 1e-12;

    /// Creates a generator from `(route, probability)` pairs.
    ///
    /// A total within [`TOTAL_SNAP_TOLERANCE`](Self::TOTAL_SNAP_TOLERANCE)
    /// of one is snapped to exactly `1.0`: float accumulation of
    /// probabilities that mathematically sum to one (ten `0.1`s) can land
    /// an ulp below it, and a generator meant to inject every slot must
    /// not silently skip slots with probability `≈ 2⁻⁵³`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidProbability`] if any probability is
    /// outside `[0, 1]` or the probabilities sum to more than one (a
    /// generator injects at most one packet per slot).
    pub fn new(choices: Vec<(Arc<RoutePath>, f64)>) -> Result<Self, ModelError> {
        let mut total = 0.0;
        for (_, p) in &choices {
            if !(0.0..=1.0).contains(p) || !p.is_finite() {
                return Err(ModelError::InvalidProbability(*p));
            }
            total += p;
        }
        if total > 1.0 + Self::PROBABILITY_TOLERANCE {
            return Err(ModelError::InvalidProbability(total));
        }
        if (total - 1.0).abs() <= Self::TOTAL_SNAP_TOLERANCE {
            total = 1.0;
        }
        Ok(GeneratorSpec { choices, total })
    }

    /// A generator injecting a single fixed route with probability `p`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidProbability`] if `p ∉ [0, 1]`.
    pub fn bernoulli(route: Arc<RoutePath>, p: f64) -> Result<Self, ModelError> {
        GeneratorSpec::new(vec![(route, p)])
    }

    /// Total per-slot injection probability of this generator.
    pub fn total_probability(&self) -> f64 {
        self.total
    }

    /// The `(route, probability)` choices of this generator.
    pub fn choices(&self) -> &[(Arc<RoutePath>, f64)] {
        &self.choices
    }

    /// Picks a route *given that this generator injects* — the
    /// conditional distribution `p_i / total` the batch engine needs
    /// after its count or skip-ahead draw already decided the injection
    /// — and returns its *choice index*, so the route-id lane can
    /// resolve it against its interned-id cache without touching the
    /// route's reference count.
    ///
    /// Consumes no RNG draw for single-choice generators and one
    /// otherwise, so the `Arc` and route-id lanes stay interchangeable
    /// mid-stream. Returns `None` only for a generator with no
    /// positive-probability choice (which never injects and should never
    /// be asked).
    pub fn sample_conditional_index(&self, rng: &mut dyn RngCore) -> Option<usize> {
        if self.total <= 0.0 || self.choices.is_empty() {
            return None;
        }
        // Single-route generators (the symmetric workload) need no draw.
        if self.choices.len() == 1 {
            return Some(0);
        }
        self.pick(rng.gen::<f64>() * self.total)
    }

    /// The CDF walk over the choices for a decided injection with
    /// `u ∈ [0, total)`: cannot fall off the end (`new` accumulated the
    /// same sums in the same order), but any float-rounding residue
    /// (e.g. a snapped total) falls back to the last choice that can
    /// actually carry traffic — never a zero-probability route.
    fn pick(&self, u: f64) -> Option<usize> {
        let mut acc = 0.0;
        for (i, (_, p)) in self.choices.iter().enumerate() {
            acc += p;
            if u < acc {
                return Some(i);
            }
        }
        self.choices
            .iter()
            .enumerate()
            .rev()
            .find(|(_, (_, p))| *p > 0.0)
            .map(|(i, _)| i)
    }

    fn accumulate_expected_load(&self, load: &mut LinkLoad) {
        for (path, p) in &self.choices {
            for &link in path.links() {
                load.add(link, *p);
            }
        }
    }
}

/// The stochastic injection model's generator set: a finite set of
/// independent [`GeneratorSpec`]s, each queried once per slot.
///
/// This type holds the specs and answers for their expected load, their
/// rate and their scaling; the
/// [`BatchStochasticInjector`](crate::injection::batch::BatchStochasticInjector)
/// built from it (`BatchStochasticInjector::from(set)`) is the
/// [`Injector`](crate::injection::Injector) that samples it.
///
/// ```
/// use dps_core::prelude::*;
/// use dps_core::rng::root_rng;
///
/// let route = RoutePath::single_hop(LinkId(0)).shared();
/// let gen = GeneratorSpec::bernoulli(route, 0.25)?;
/// let injector = StochasticInjector::new(vec![gen]);
/// let model = IdentityInterference::new(1);
/// assert!((injector.rate(&model) - 0.25).abs() < 1e-12);
/// # Ok::<(), dps_core::error::ModelError>(())
/// ```
#[derive(Clone, Debug)]
pub struct StochasticInjector {
    generators: Vec<GeneratorSpec>,
}

impl StochasticInjector {
    /// Creates the injector from its generators.
    pub fn new(generators: Vec<GeneratorSpec>) -> Self {
        StochasticInjector { generators }
    }

    /// The generators.
    pub fn generators(&self) -> &[GeneratorSpec] {
        &self.generators
    }

    /// Expected per-slot load vector `F`.
    pub fn expected_load(&self, num_links: usize) -> LinkLoad {
        let mut load = LinkLoad::new(num_links);
        for g in &self.generators {
            g.accumulate_expected_load(&mut load);
        }
        load
    }

    /// The injection rate `λ = ‖W·F‖∞` under `model`.
    pub fn rate<M: InterferenceModel + ?Sized>(&self, model: &M) -> f64 {
        model.measure(&self.expected_load(model.num_links()))
    }

    /// Returns a copy whose rate under `model` equals `target_rate`, by
    /// scaling every probability proportionally.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidRate`] if the current rate is zero or
    /// `target_rate` is not a positive finite number, and
    /// [`ModelError::InvalidProbability`] if scaling would push a
    /// generator's total probability above one.
    pub fn scaled_to_rate<M: InterferenceModel + ?Sized>(
        &self,
        model: &M,
        target_rate: f64,
    ) -> Result<Self, ModelError> {
        if !(target_rate > 0.0 && target_rate.is_finite()) {
            return Err(ModelError::InvalidRate(target_rate));
        }
        let current = self.rate(model);
        if current <= 0.0 {
            return Err(ModelError::InvalidRate(current));
        }
        let factor = target_rate / current;
        let generators = self
            .generators
            .iter()
            .map(|g| {
                GeneratorSpec::new(
                    g.choices
                        .iter()
                        .map(|(path, p)| {
                            // An exactly-feasible target (one that needs
                            // probability exactly 1) can round `p·factor`
                            // to `1 + ε`; clamp within the same tolerance
                            // `GeneratorSpec::new` accepts for totals, so
                            // feasible targets are never rejected.
                            let scaled = p * factor;
                            let scaled = if scaled > 1.0
                                && scaled <= 1.0 + GeneratorSpec::PROBABILITY_TOLERANCE
                            {
                                1.0
                            } else {
                                scaled
                            };
                            (path.clone(), scaled)
                        })
                        .collect(),
                )
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(StochasticInjector { generators })
    }
}

/// Builds one Bernoulli generator per given route, each injecting with
/// probability `p` — the standard symmetric workload of the experiments.
///
/// # Errors
///
/// Returns [`ModelError::InvalidProbability`] if `p ∉ [0, 1]`.
pub fn uniform_generators(
    routes: impl IntoIterator<Item = Arc<RoutePath>>,
    p: f64,
) -> Result<StochasticInjector, ModelError> {
    let generators = routes
        .into_iter()
        .map(|r| GeneratorSpec::bernoulli(r, p))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(StochasticInjector::new(generators))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::LinkId;
    use crate::injection::batch::BatchStochasticInjector;
    use crate::injection::Injector;
    use crate::interference::{CompleteInterference, IdentityInterference};
    use crate::rng::root_rng;

    fn path(link: u32) -> Arc<RoutePath> {
        RoutePath::single_hop(LinkId(link)).shared()
    }

    fn two_hop(a: u32, b: u32) -> Arc<RoutePath> {
        RoutePath::from_links_unchecked(vec![LinkId(a), LinkId(b)]).shared()
    }

    #[test]
    fn generator_rejects_excess_probability() {
        let err = GeneratorSpec::new(vec![(path(0), 0.7), (path(1), 0.6)]).unwrap_err();
        assert!(matches!(err, ModelError::InvalidProbability(_)));
    }

    #[test]
    fn generator_rejects_negative_probability() {
        let err = GeneratorSpec::new(vec![(path(0), -0.1)]).unwrap_err();
        assert_eq!(err, ModelError::InvalidProbability(-0.1));
    }

    #[test]
    fn expected_load_counts_path_multiplicity() {
        let g1 = GeneratorSpec::bernoulli(two_hop(0, 1), 0.5).unwrap();
        let g2 = GeneratorSpec::bernoulli(path(1), 0.25).unwrap();
        let inj = StochasticInjector::new(vec![g1, g2]);
        let f = inj.expected_load(2);
        assert!((f.get(LinkId(0)) - 0.5).abs() < 1e-12);
        assert!((f.get(LinkId(1)) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn rate_depends_on_model() {
        let inj = uniform_generators([path(0), path(1)], 0.3).unwrap();
        let identity = IdentityInterference::new(2);
        let complete = CompleteInterference::new(2);
        assert!((inj.rate(&identity) - 0.3).abs() < 1e-12);
        assert!((inj.rate(&complete) - 0.6).abs() < 1e-12);
    }

    #[test]
    fn scaling_hits_target_rate() {
        let inj = uniform_generators([path(0), path(1)], 0.1).unwrap();
        let model = CompleteInterference::new(2);
        let scaled = inj.scaled_to_rate(&model, 0.5).unwrap();
        assert!((scaled.rate(&model) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn scaling_rejects_infeasible_target() {
        let inj = uniform_generators([path(0)], 0.5).unwrap();
        let model = IdentityInterference::new(1);
        // Scaling to rate 3 would need probability 3 > 1.
        let err = inj.scaled_to_rate(&model, 3.0).unwrap_err();
        assert!(matches!(err, ModelError::InvalidProbability(_)));
    }

    #[test]
    fn scaling_rejects_zero_base_rate() {
        let inj = StochasticInjector::new(vec![]);
        let model = IdentityInterference::new(1);
        assert!(matches!(
            inj.scaled_to_rate(&model, 0.5),
            Err(ModelError::InvalidRate(_))
        ));
    }

    #[test]
    fn empirical_rate_matches_expectation() {
        let mut injector =
            BatchStochasticInjector::from(uniform_generators([path(0)], 0.3).unwrap());
        let mut rng = root_rng(99);
        let slots = 20_000;
        let mut count = 0usize;
        for slot in 0..slots {
            count += injector.inject(slot, &mut rng).len();
        }
        let empirical = count as f64 / slots as f64;
        assert!(
            (empirical - 0.3).abs() < 0.02,
            "empirical rate {empirical} far from 0.3"
        );
    }

    #[test]
    fn generator_injects_at_most_one_per_slot() {
        let g = GeneratorSpec::new(vec![(path(0), 0.5), (path(1), 0.5)]).unwrap();
        let mut inj = BatchStochasticInjector::from(StochasticInjector::new(vec![g]));
        let mut rng = root_rng(5);
        for slot in 0..1000 {
            assert!(inj.inject(slot, &mut rng).len() <= 1);
        }
    }

    /// An "RNG" whose every `f64` sample is the largest value below one
    /// (`(2⁵³−1)/2⁵³`) — the adversarial draw for cumulative-sum walks.
    fn max_rng() -> rand::rngs::mock::StepRng {
        rand::rngs::mock::StepRng::new(u64::MAX, 0)
    }

    #[test]
    fn certain_generator_always_injects_at_p_one() {
        let g = GeneratorSpec::bernoulli(path(0), 1.0).unwrap();
        assert_eq!(g.total_probability(), 1.0);
        // Alone it runs the counting batch; an asymmetric companion
        // moves it onto the calendar. Either must inject every slot.
        let companion = GeneratorSpec::bernoulli(path(1), 0.25).unwrap();
        for set in [vec![g.clone()], vec![g, companion]] {
            let mut inj = BatchStochasticInjector::from(StochasticInjector::new(set));
            let mut rng = max_rng();
            let mut buf = Vec::new();
            for slot in 0..100 {
                inj.inject_into(slot, &mut rng, &mut buf);
                assert!(
                    buf.iter().any(|r| r.hop(0) == Some(LinkId(0))),
                    "p=1 generator skipped a slot"
                );
            }
            let mut rng = root_rng(3);
            for slot in 100..1100 {
                inj.inject_into(slot, &mut rng, &mut buf);
                assert!(buf.iter().any(|r| r.hop(0) == Some(LinkId(0))));
            }
        }
    }

    #[test]
    fn certain_generator_split_across_tiny_choices_always_injects() {
        // Ten 0.1s accumulate to 1 − 2⁻⁵³, one ulp below the exact sum;
        // the adversarial draw u = 1 − 2⁻⁵³ used to land in the rounding
        // gap and silently skip the slot. The stored total snaps to 1.
        let choices: Vec<_> = (0..10).map(|l| (path(l), 0.1)).collect();
        let g = GeneratorSpec::new(choices).unwrap();
        assert_eq!(g.total_probability(), 1.0, "total must snap to one");
        let mut inj = BatchStochasticInjector::from(StochasticInjector::new(vec![g]));
        let mut rng = max_rng();
        for slot in 0..100 {
            assert_eq!(
                inj.inject(slot, &mut rng).len(),
                1,
                "generator with total probability 1 failed to inject"
            );
        }
    }

    #[test]
    fn rounding_residue_never_picks_a_zero_probability_route() {
        // Ten 0.1s accumulate an ulp short of one (total snaps to 1),
        // and the trailing route is explicitly disabled (p = 0): the
        // adversarial draw u = 1 − 2⁻⁵³ falls through the whole CDF
        // walk, and the fallback must skip the disabled route.
        let mut choices: Vec<_> = (0..10).map(|l| (path(l), 0.1)).collect();
        choices.push((path(99), 0.0));
        let g = GeneratorSpec::new(choices).unwrap();
        let mut rng = max_rng();
        for _ in 0..100 {
            let choice = g
                .sample_conditional_index(&mut rng)
                .expect("certain generator injects");
            assert_ne!(
                g.choices()[choice].0.hop(0).unwrap(),
                LinkId(99),
                "zero-probability route was injected"
            );
        }
    }

    #[test]
    fn sub_certain_generator_is_not_promoted_to_certainty() {
        // 1 − 1e-10 is a legitimate sub-certain spec (one idle slot per
        // ~10¹⁰), far outside accumulation-rounding territory: the snap
        // must leave it alone.
        let g = GeneratorSpec::bernoulli(path(0), 1.0 - 1e-10).unwrap();
        assert!(
            g.total_probability() < 1.0,
            "sub-certain probability was snapped to certainty"
        );
    }

    #[test]
    fn conditional_sampling_never_fails_for_positive_generators() {
        let choices: Vec<_> = (0..10).map(|l| (path(l), 0.07)).collect();
        let g = GeneratorSpec::new(choices).unwrap();
        let mut rng = max_rng();
        for _ in 0..100 {
            assert!(g.sample_conditional_index(&mut rng).is_some());
        }
        let empty = GeneratorSpec::new(vec![]).unwrap();
        assert!(empty.sample_conditional_index(&mut root_rng(1)).is_none());
        let zero = GeneratorSpec::bernoulli(path(0), 0.0).unwrap();
        assert!(zero.sample_conditional_index(&mut root_rng(1)).is_none());
    }

    /// The draw accounting the two injection lanes rely on: a
    /// multi-choice pick consumes exactly one uniform, scaled by the
    /// total and walked over the cumulative choices, and a single-choice
    /// pick consumes none.
    #[test]
    fn conditional_index_draws_once_per_multi_choice_pick() {
        let choices: Vec<_> = (0..5).map(|l| (path(l), 0.1)).collect();
        let g = GeneratorSpec::new(choices).unwrap();
        let mut rng_a = root_rng(23);
        let mut rng_b = root_rng(23);
        for _ in 0..2000 {
            let choice = g.sample_conditional_index(&mut rng_a).unwrap();
            let u = rng_b.gen::<f64>() * g.total_probability();
            let below: f64 = g.choices()[..choice].iter().map(|(_, p)| p).sum();
            assert!(below <= u && u < below + g.choices()[choice].1);
        }
        assert_eq!(rng_a.next_u64(), rng_b.next_u64(), "streams drifted");
        let single = GeneratorSpec::bernoulli(path(0), 0.5).unwrap();
        let mut rng = root_rng(1);
        assert_eq!(single.sample_conditional_index(&mut rng), Some(0));
        assert_eq!(rng.next_u64(), root_rng(1).next_u64(), "single pick drew");
    }

    #[test]
    fn scaling_to_exactly_feasible_target_is_accepted() {
        // Ten generators at p = 0.1 under complete interference measure
        // 0.9999999999999999 (ten 0.1s, accumulated); scaling to the
        // exactly-feasible target 10 needs every probability at exactly
        // one, but the factor 10/0.999… pushes `p·factor` an ulp above
        // it — the clamp must accept instead of rejecting.
        let routes: Vec<_> = (0..10).map(path).collect();
        let inj = uniform_generators(routes, 0.1).unwrap();
        let model = CompleteInterference::new(10);
        assert!(inj.rate(&model) < 1.0, "premise: accumulated rate < 1");
        let scaled = inj
            .scaled_to_rate(&model, 10.0)
            .expect("exactly-feasible target must not be rejected by rounding");
        assert!((scaled.rate(&model) - 10.0).abs() < 1e-9);
        for g in scaled.generators() {
            assert_eq!(g.total_probability(), 1.0);
        }
    }

    #[test]
    fn inject_into_matches_inject_streams() {
        let routes: Vec<_> = (0..4).map(path).collect();
        let mut a = BatchStochasticInjector::from(uniform_generators(routes.clone(), 0.4).unwrap());
        let mut b = a.clone();
        let mut rng_a = root_rng(17);
        let mut rng_b = root_rng(17);
        let mut buf = Vec::new();
        for slot in 0..500 {
            let direct = a.inject(slot, &mut rng_a);
            b.inject_into(slot, &mut rng_b, &mut buf);
            assert_eq!(direct.len(), buf.len());
            for (x, y) in direct.iter().zip(&buf) {
                assert!(Arc::ptr_eq(x, y));
            }
        }
    }

    #[test]
    fn mixture_generator_samples_each_choice() {
        let g = GeneratorSpec::new(vec![(path(0), 0.4), (path(1), 0.4)]).unwrap();
        let mut inj = BatchStochasticInjector::from(StochasticInjector::new(vec![g]));
        let mut rng = root_rng(11);
        let mut seen = [0usize; 2];
        for slot in 0..5000 {
            for p in inj.inject(slot, &mut rng) {
                seen[p.hop(0).unwrap().index()] += 1;
            }
        }
        assert!(seen[0] > 1500 && seen[1] > 1500, "seen {seen:?}");
    }
}
