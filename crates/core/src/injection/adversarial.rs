//! `(w, λ)`-bounded window adversaries (Section 2.1).
//!
//! The adversary may inject any packets it likes as long as, for every
//! interval of `w` consecutive slots, the interference measure of all routes
//! injected in that interval is at most `λ·w`. The adversaries here enforce
//! that bound *by construction* through a sliding [`WindowBudget`], so any
//! pacing heuristic stays admissible; the [`WindowValidator`] independently
//! checks traces (its own and recorded ones) and reports the effective rate.
//!
//! Four temporal patterns are provided, covering the stress shapes used in
//! experiment E5:
//!
//! * [`SmoothAdversary`] — credit-based, spreads injections evenly;
//! * [`BurstyAdversary`] — dumps the whole window budget at window starts;
//! * [`SingleEdgeAdversary`] — floods one route continuously (maximum
//!   concentration on one link);
//! * [`RoundRobinAdversary`] — strict periodic rotation over the templates.

use crate::injection::Injector;
use crate::interference::InterferenceModel;
use crate::load::LinkLoad;
use crate::path::RoutePath;
use rand::RngCore;
use std::collections::VecDeque;
use std::sync::Arc;

/// Numerical slack when comparing measures against the window budget, so
/// float rounding never rejects an exactly-full window.
const BUDGET_EPS: f64 = 1e-9;

/// Sliding-window accounting of injected interference measure.
///
/// Tracks the per-slot injected loads of the last `w` slots; an injection is
/// *admissible* if the window ending at the current slot stays within
/// `λ·w`. Checking every window as it completes is sufficient: every
/// interval of `w` slots is the window ending at its last slot.
#[derive(Clone, Debug)]
pub struct WindowBudget {
    w: usize,
    budget: f64,
    window: VecDeque<LinkLoad>,
    sum: LinkLoad,
}

impl WindowBudget {
    /// Creates a budget for window length `w` and rate `lambda` over
    /// `num_links` links.
    ///
    /// # Panics
    ///
    /// Panics if `w == 0` or `lambda` is negative or non-finite.
    pub fn new(num_links: usize, w: usize, lambda: f64) -> Self {
        assert!(w > 0, "window length must be positive");
        assert!(
            lambda >= 0.0 && lambda.is_finite(),
            "rate must be a non-negative finite number, got {lambda}"
        );
        let mut window = VecDeque::with_capacity(w);
        window.push_back(LinkLoad::new(num_links));
        WindowBudget {
            w,
            budget: lambda * w as f64,
            window,
            sum: LinkLoad::new(num_links),
        }
    }

    /// The window length `w`.
    pub fn window_len(&self) -> usize {
        self.w
    }

    /// The per-window measure budget `λ·w`.
    pub fn budget(&self) -> f64 {
        self.budget
    }

    /// Whether adding `route` in the current slot keeps the window within
    /// budget under `model`.
    pub fn admissible<M: InterferenceModel + ?Sized>(&self, model: &M, route: &RoutePath) -> bool {
        let mut with = self.sum.clone();
        for &link in route.links() {
            with.add(link, 1.0);
        }
        model.measure(&with) <= self.budget + BUDGET_EPS
    }

    /// Records an injection of `route` in the current slot.
    pub fn commit(&mut self, route: &RoutePath) {
        let current = self.window.back_mut().expect("window never empty");
        for &link in route.links() {
            current.add(link, 1.0);
            self.sum.add(link, 1.0);
        }
    }

    /// Moves to the next slot, expiring the oldest slot once the window is
    /// full.
    pub fn advance_slot(&mut self) {
        if self.window.len() == self.w {
            let expired = self.window.pop_front().expect("window full");
            for (link, count) in expired.support() {
                self.sum.add(link, -count);
            }
        }
        self.window.push_back(LinkLoad::new(self.sum.num_links()));
    }

    /// Measure of the current window's accumulated load under `model`.
    pub fn current_measure<M: InterferenceModel + ?Sized>(&self, model: &M) -> f64 {
        model.measure(&self.sum)
    }
}

/// Validates that a trace of per-slot injections is `(w, λ)`-bounded and
/// reports the largest window measure observed.
///
/// Used by tests (every adversary must validate) and to measure the
/// *effective* rate an adversary achieved, which experiments report next to
/// the target rate.
#[derive(Clone, Debug)]
pub struct WindowValidator<M> {
    model: M,
    w: usize,
    window: VecDeque<LinkLoad>,
    sum: LinkLoad,
    max_window_measure: f64,
    slots: u64,
    total_injected: usize,
}

impl<M: InterferenceModel> WindowValidator<M> {
    /// Creates a validator for window length `w` under `model`.
    ///
    /// # Panics
    ///
    /// Panics if `w == 0`.
    pub fn new(model: M, w: usize) -> Self {
        assert!(w > 0, "window length must be positive");
        let num_links = model.num_links();
        WindowValidator {
            model,
            w,
            window: VecDeque::with_capacity(w),
            sum: LinkLoad::new(num_links),
            max_window_measure: 0.0,
            slots: 0,
            total_injected: 0,
        }
    }

    /// Records the routes injected in the next slot.
    pub fn record_slot<'a, I>(&mut self, routes: I)
    where
        I: IntoIterator<Item = &'a RoutePath>,
    {
        if self.window.len() == self.w {
            let expired = self.window.pop_front().expect("window full");
            for (link, count) in expired.support() {
                self.sum.add(link, -count);
            }
        }
        let mut slot_load = LinkLoad::new(self.sum.num_links());
        for route in routes {
            self.total_injected += 1;
            for &link in route.links() {
                slot_load.add(link, 1.0);
                self.sum.add(link, 1.0);
            }
        }
        self.window.push_back(slot_load);
        self.slots += 1;
        let measure = self.model.measure(&self.sum);
        if measure > self.max_window_measure {
            self.max_window_measure = measure;
        }
    }

    /// The largest measure any window of `w` slots accumulated.
    pub fn max_window_measure(&self) -> f64 {
        self.max_window_measure
    }

    /// The effective rate `max_window_measure / w`: the smallest `λ` for
    /// which the recorded trace is `(w, λ)`-bounded.
    pub fn effective_rate(&self) -> f64 {
        self.max_window_measure / self.w as f64
    }

    /// Whether the trace observed so far is `(w, λ)`-bounded.
    pub fn is_bounded(&self, lambda: f64) -> bool {
        self.max_window_measure <= lambda * self.w as f64 + BUDGET_EPS
    }

    /// Total packets recorded.
    pub fn total_injected(&self) -> usize {
        self.total_injected
    }

    /// Slots recorded.
    pub fn slots(&self) -> u64 {
        self.slots
    }
}

/// Shared plumbing of the concrete adversaries: the interference model, the
/// route templates, and the budget enforcement.
#[derive(Clone, Debug)]
struct AdversaryCore<M> {
    model: M,
    templates: Vec<Arc<RoutePath>>,
    budget: WindowBudget,
    last_slot: Option<u64>,
}

impl<M: InterferenceModel> AdversaryCore<M> {
    fn new(model: M, templates: Vec<Arc<RoutePath>>, w: usize, lambda: f64) -> Self {
        assert!(
            !templates.is_empty(),
            "adversary needs at least one route template"
        );
        let num_links = model.num_links();
        AdversaryCore {
            model,
            templates,
            budget: WindowBudget::new(num_links, w, lambda),
            last_slot: None,
        }
    }

    /// Advances the sliding window to `slot` (handles skipped slots).
    fn sync_to(&mut self, slot: u64) {
        match self.last_slot {
            None => {}
            Some(prev) => {
                assert!(
                    slot > prev,
                    "injector driven with non-increasing slot {slot}"
                );
                for _ in 0..(slot - prev) {
                    self.budget.advance_slot();
                }
            }
        }
        self.last_slot = Some(slot);
    }

    fn try_inject(&mut self, template_idx: usize, out: &mut Vec<Arc<RoutePath>>) -> bool {
        let template = &self.templates[template_idx];
        if self.budget.admissible(&self.model, template) {
            self.budget.commit(template);
            out.push(template.clone());
            true
        } else {
            false
        }
    }

    /// Standalone measure of a template, an upper bound on its marginal
    /// window-measure cost; used for pacing.
    fn template_cost(&self, idx: usize) -> f64 {
        let load = LinkLoad::from_paths(self.model.num_links(), [self.templates[idx].as_ref()]);
        self.model.measure(&load).max(BUDGET_EPS)
    }
}

/// Spreads injections evenly over time, one credit counter per template.
///
/// Template `i` accumulates `λ/cost_i` credit per slot (its standalone
/// measure `cost_i` is an upper bound on its marginal contribution) and
/// injects whenever a full credit is available and the window budget
/// admits it. On substrates where the measure is per-link (identity-like
/// `W`) every template sustains rate `λ` concurrently; on substrates
/// where templates share budget (all-ones `W`) the admissibility check
/// throttles them to a joint rate `λ`. Either way the *effective* rate
/// approaches the target and the `(w, λ)` bound holds by construction.
#[derive(Clone, Debug)]
pub struct SmoothAdversary<M> {
    core: AdversaryCore<M>,
    credits: Vec<f64>,
    lambda: f64,
}

impl<M: InterferenceModel> SmoothAdversary<M> {
    /// Creates the adversary over the given templates, targeting rate
    /// `lambda` with window length `w`.
    pub fn new(model: M, templates: Vec<Arc<RoutePath>>, w: usize, lambda: f64) -> Self {
        let credits = vec![0.0; templates.len()];
        SmoothAdversary {
            core: AdversaryCore::new(model, templates, w, lambda),
            credits,
            lambda,
        }
    }
}

impl<M: InterferenceModel> Injector for SmoothAdversary<M> {
    fn inject_into(&mut self, slot: u64, _rng: &mut dyn RngCore, out: &mut Vec<Arc<RoutePath>>) {
        self.core.sync_to(slot);
        out.clear();
        for idx in 0..self.core.templates.len() {
            let cost = self.core.template_cost(idx);
            // Cap the accumulated credit so budget-rejected slots do not
            // bank up into a later burst (this adversary is the smooth one).
            self.credits[idx] = (self.credits[idx] + self.lambda / cost).min(2.0);
            while self.credits[idx] >= 1.0 {
                if self.core.try_inject(idx, out) {
                    self.credits[idx] -= 1.0;
                } else {
                    break;
                }
            }
        }
    }
}

/// Dumps as much of the window budget as fits at the first slot of every
/// window, then stays silent.
#[derive(Clone, Debug)]
pub struct BurstyAdversary<M> {
    core: AdversaryCore<M>,
    w: usize,
    cursor: usize,
}

impl<M: InterferenceModel> BurstyAdversary<M> {
    /// Creates the adversary over the given templates, targeting rate
    /// `lambda` with window length `w`.
    pub fn new(model: M, templates: Vec<Arc<RoutePath>>, w: usize, lambda: f64) -> Self {
        BurstyAdversary {
            core: AdversaryCore::new(model, templates, w, lambda),
            w,
            cursor: 0,
        }
    }
}

impl<M: InterferenceModel> Injector for BurstyAdversary<M> {
    fn inject_into(&mut self, slot: u64, _rng: &mut dyn RngCore, out: &mut Vec<Arc<RoutePath>>) {
        self.core.sync_to(slot);
        out.clear();
        if slot.is_multiple_of(self.w as u64) {
            let k = self.core.templates.len();
            let mut misses = 0;
            while misses < k {
                let idx = self.cursor % k;
                if self.core.try_inject(idx, out) {
                    self.cursor += 1;
                    misses = 0;
                } else {
                    self.cursor += 1;
                    misses += 1;
                }
            }
        }
    }
}

/// Floods a single route every slot, injecting as many copies as the window
/// budget admits — the maximum sustained concentration on one link.
#[derive(Clone, Debug)]
pub struct SingleEdgeAdversary<M> {
    core: AdversaryCore<M>,
}

impl<M: InterferenceModel> SingleEdgeAdversary<M> {
    /// Creates the adversary flooding `route` at rate `lambda` with window
    /// length `w`.
    pub fn new(model: M, route: Arc<RoutePath>, w: usize, lambda: f64) -> Self {
        SingleEdgeAdversary {
            core: AdversaryCore::new(model, vec![route], w, lambda),
        }
    }
}

impl<M: InterferenceModel> Injector for SingleEdgeAdversary<M> {
    fn inject_into(&mut self, slot: u64, _rng: &mut dyn RngCore, out: &mut Vec<Arc<RoutePath>>) {
        self.core.sync_to(slot);
        out.clear();
        while self.core.try_inject(0, out) {}
    }
}

/// Injects templates on a strict deterministic cadence: template `i`
/// fires at every slot with `(slot + i) ≡ 0 (mod ⌈cost_i/λ⌉)`, staggered
/// by index so the templates do not align. No randomness, no credit
/// banking — the fully periodic injection pattern of the classic
/// adversarial-queuing constructions, throttled by the window budget.
///
/// The cadence fires each template at most once per slot, so for
/// `λ > cost_i` the effective per-template rate saturates at one packet
/// per slot — unlike [`SingleEdgeAdversary`], which injects multiple
/// copies per slot to reach super-unit rates.
#[derive(Clone, Debug)]
pub struct RoundRobinAdversary<M> {
    core: AdversaryCore<M>,
    periods: Vec<u64>,
}

impl<M: InterferenceModel> RoundRobinAdversary<M> {
    /// Creates the adversary over the given templates, targeting rate
    /// `lambda` with window length `w`.
    pub fn new(model: M, templates: Vec<Arc<RoutePath>>, w: usize, lambda: f64) -> Self {
        let core = AdversaryCore::new(model, templates, w, lambda);
        let periods = (0..core.templates.len())
            .map(|i| {
                if lambda <= 0.0 {
                    u64::MAX
                } else {
                    (core.template_cost(i) / lambda).ceil().max(1.0) as u64
                }
            })
            .collect();
        RoundRobinAdversary { core, periods }
    }
}

impl<M: InterferenceModel> Injector for RoundRobinAdversary<M> {
    fn inject_into(&mut self, slot: u64, _rng: &mut dyn RngCore, out: &mut Vec<Arc<RoutePath>>) {
        self.core.sync_to(slot);
        out.clear();
        for idx in 0..self.core.templates.len() {
            let period = self.periods[idx];
            if period != u64::MAX && (slot + idx as u64).is_multiple_of(period) {
                self.core.try_inject(idx, out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::LinkId;
    use crate::interference::{CompleteInterference, IdentityInterference};
    use crate::rng::root_rng;

    fn path(link: u32) -> Arc<RoutePath> {
        RoutePath::single_hop(LinkId(link)).shared()
    }

    fn run_and_validate<I: Injector, M: InterferenceModel + Clone>(
        injector: &mut I,
        model: &M,
        w: usize,
        slots: u64,
    ) -> WindowValidator<M> {
        let mut rng = root_rng(3);
        let mut validator = WindowValidator::new(model.clone(), w);
        for slot in 0..slots {
            let injected = injector.inject(slot, &mut rng);
            validator.record_slot(injected.iter().map(|p| p.as_ref()));
        }
        validator
    }

    #[test]
    fn budget_rejects_overfull_window() {
        let model = IdentityInterference::new(1);
        let mut budget = WindowBudget::new(1, 4, 0.5); // budget 2 per window
        let route = RoutePath::single_hop(LinkId(0));
        assert!(budget.admissible(&model, &route));
        budget.commit(&route);
        assert!(budget.admissible(&model, &route));
        budget.commit(&route);
        assert!(!budget.admissible(&model, &route));
    }

    #[test]
    fn budget_frees_capacity_as_window_slides() {
        let model = IdentityInterference::new(1);
        let mut budget = WindowBudget::new(1, 2, 0.5); // budget 1 per window
        let route = RoutePath::single_hop(LinkId(0));
        budget.commit(&route);
        assert!(!budget.admissible(&model, &route));
        budget.advance_slot();
        assert!(
            !budget.admissible(&model, &route),
            "window of 2 still holds the packet"
        );
        budget.advance_slot();
        assert!(budget.admissible(&model, &route), "old slot expired");
    }

    #[test]
    fn smooth_adversary_is_bounded_and_near_target() {
        let model = CompleteInterference::new(4);
        let templates: Vec<_> = (0..4).map(path).collect();
        let lambda = 0.5;
        let w = 20;
        let mut adv = SmoothAdversary::new(model, templates, w, lambda);
        let v = run_and_validate(&mut adv, &model, w, 2000);
        assert!(
            v.is_bounded(lambda),
            "effective rate {}",
            v.effective_rate()
        );
        assert!(
            v.effective_rate() > 0.35 * lambda,
            "smooth adversary too timid: {}",
            v.effective_rate()
        );
    }

    #[test]
    fn bursty_adversary_is_bounded_and_bursts() {
        let model = CompleteInterference::new(2);
        let templates: Vec<_> = (0..2).map(path).collect();
        let lambda = 0.4;
        let w = 10;
        let mut adv = BurstyAdversary::new(model, templates.clone(), w, lambda);
        let mut rng = root_rng(1);
        let first = adv.inject(0, &mut rng);
        assert_eq!(first.len(), 4, "burst should fill the whole budget λw = 4");
        for slot in 1..w as u64 {
            assert!(adv.inject(slot, &mut rng).is_empty());
        }
        let mut adv = BurstyAdversary::new(model, templates, w, lambda);
        let v = run_and_validate(&mut adv, &model, w, 500);
        assert!(v.is_bounded(lambda));
    }

    #[test]
    fn single_edge_adversary_saturates_budget() {
        let model = IdentityInterference::new(3);
        let lambda = 1.0;
        let w = 8;
        let mut adv = SingleEdgeAdversary::new(model, path(1), w, lambda);
        let v = run_and_validate(&mut adv, &model, w, 400);
        assert!(v.is_bounded(lambda));
        assert!(
            (v.effective_rate() - lambda).abs() < 0.2,
            "flooding should nearly saturate: {}",
            v.effective_rate()
        );
    }

    #[test]
    fn round_robin_adversary_is_bounded_and_deterministic() {
        let model = CompleteInterference::new(3);
        let lambda = 0.25;
        let w = 16;
        // Deterministic: two instances produce identical patterns.
        let run_pattern = || {
            let mut adv = RoundRobinAdversary::new(model, (0..3).map(path).collect(), w, lambda);
            let mut rng = root_rng(2);
            (0..64u64)
                .map(|s| adv.inject(s, &mut rng).len())
                .collect::<Vec<_>>()
        };
        assert_eq!(run_pattern(), run_pattern());
        // Template i fires at (slot + i) % 4 == 0 subject to the budget:
        // the very first slot carries exactly one injection (template 0).
        assert_eq!(run_pattern()[0], 1);
        let mut adv = RoundRobinAdversary::new(model, (0..3).map(path).collect(), w, lambda);
        let v = run_and_validate(&mut adv, &model, w, 800);
        assert!(v.is_bounded(lambda));
        // The budget throttles the over-eager cadence down to ~lambda.
        assert!(
            v.effective_rate() > 0.6 * lambda,
            "round-robin too timid: {}",
            v.effective_rate()
        );
    }

    #[test]
    fn smooth_adversary_saturates_per_link_budget_on_identity() {
        // On identity W the measure is per-link congestion: every template
        // can sustain rate lambda concurrently, and the effective rate
        // (max per-link) should approach lambda itself.
        let model = IdentityInterference::new(4);
        let templates: Vec<_> = (0..4).map(path).collect();
        let lambda = 0.5;
        let w = 32;
        let mut adv = SmoothAdversary::new(model, templates, w, lambda);
        let v = run_and_validate(&mut adv, &model, w, 2000);
        assert!(v.is_bounded(lambda));
        assert!(
            v.effective_rate() > 0.8 * lambda,
            "smooth adversary must saturate per-link budgets: {}",
            v.effective_rate()
        );
        // Total injected ≈ 4 links · lambda · slots.
        assert!(v.total_injected() as f64 > 0.7 * 4.0 * lambda * 2000.0);
    }

    #[test]
    fn validator_flags_unbounded_trace() {
        let model = CompleteInterference::new(1);
        let mut v = WindowValidator::new(model, 4);
        let p = RoutePath::single_hop(LinkId(0));
        // 3 packets in one slot => window measure 3 > λw = 0.5*4 = 2.
        v.record_slot([&p, &p, &p]);
        assert!(!v.is_bounded(0.5));
        assert!(v.is_bounded(0.75));
        assert_eq!(v.total_injected(), 3);
        assert_eq!(v.max_window_measure(), 3.0);
    }

    #[test]
    fn validator_window_slides() {
        let model = CompleteInterference::new(1);
        let mut v = WindowValidator::new(model, 2);
        let p = RoutePath::single_hop(LinkId(0));
        v.record_slot([&p]);
        v.record_slot([&p]);
        v.record_slot([] as [&RoutePath; 0]);
        v.record_slot([] as [&RoutePath; 0]);
        // Peak window held 2 packets; later windows are empty.
        assert_eq!(v.max_window_measure(), 2.0);
        assert_eq!(v.slots(), 4);
    }

    #[test]
    #[should_panic(expected = "non-increasing slot")]
    fn adversary_rejects_time_going_backwards() {
        let model = IdentityInterference::new(1);
        let mut adv = SingleEdgeAdversary::new(model, path(0), 4, 0.5);
        let mut rng = root_rng(1);
        adv.inject(5, &mut rng);
        adv.inject(5, &mut rng);
    }

    #[test]
    fn zero_rate_adversary_injects_nothing() {
        let model = IdentityInterference::new(1);
        let mut adv = SmoothAdversary::new(model, vec![path(0)], 4, 0.0);
        let v = run_and_validate(&mut adv, &model, 4, 100);
        assert_eq!(v.total_injected(), 0);
    }
}
