//! The uniform-rate algorithm of Theorem 19: in each slot every pending
//! packet is transmitted independently with probability `1/4I`.
//!
//! The paper proves (for any linear interference measure whose feasibility
//! is dominated by an accumulated-weight threshold) that this serves `n`
//! requests of measure `I` within `O(I · log n)` slots with high
//! probability: the expected interference any attempt sees is at most
//! `I/4I = 1/4`, so by Markov each attempt succeeds with constant
//! probability, giving every pending packet a success probability of
//! `Ω(1/I)` per slot.
//!
//! Its `f(n) = Θ(log n)` dependence is the motivating example for the
//! Section 3 transformation ([`crate::transform::DenseTransform`]): doubling
//! the packets more than doubles the schedule length.

use crate::staticsched::{Request, StaticAlgorithm, StaticScheduler};
use rand::{Rng, RngCore};

/// Factory for Theorem 19's transmit-with-probability-`1/4I` algorithm.
#[derive(Clone, Copy, Debug)]
pub struct UniformRateScheduler {
    /// Numerator `c` of the transmission probability `c/I`; the paper uses
    /// `1/4`.
    rate_factor: f64,
    /// Safety factor on the slot budget.
    budget_factor: f64,
}

impl Default for UniformRateScheduler {
    fn default() -> Self {
        UniformRateScheduler {
            rate_factor: 0.25,
            budget_factor: 1.0,
        }
    }
}

impl UniformRateScheduler {
    /// Creates the scheduler with the paper's constants (probability
    /// `1/4I`).
    pub fn new() -> Self {
        Self::default()
    }

    /// Overrides the transmission probability numerator (paper: `1/4`).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < rate_factor <= 1`.
    pub fn with_rate_factor(mut self, rate_factor: f64) -> Self {
        assert!(
            rate_factor > 0.0 && rate_factor <= 1.0,
            "rate factor must be in (0, 1], got {rate_factor}"
        );
        self.rate_factor = rate_factor;
        self
    }

    /// Scales the slot budget (useful to probe the whp guarantee).
    ///
    /// # Panics
    ///
    /// Panics unless `budget_factor` is positive.
    pub fn with_budget_factor(mut self, budget_factor: f64) -> Self {
        assert!(budget_factor > 0.0, "budget factor must be positive");
        self.budget_factor = budget_factor;
        self
    }

    fn probability(&self, measure_bound: f64) -> f64 {
        (self.rate_factor / measure_bound.max(1.0)).min(1.0)
    }
}

impl StaticScheduler for UniformRateScheduler {
    fn instantiate(
        &self,
        requests: &[Request],
        measure_bound: f64,
        _rng: &mut dyn RngCore,
    ) -> Box<dyn StaticAlgorithm> {
        Box::new(UniformRateRun {
            pending: vec![true; requests.len()],
            remaining: requests.len(),
            probability: self.probability(measure_bound),
        })
    }

    fn f_of(&self, n: usize) -> f64 {
        // Per pending packet the per-slot success probability is at least
        // (rate/I)·(1 − 1/4); a budget of (8/rate)·I·(ln n + 4) drives the
        // expected survivor count below n·e^{-(ln n + 4)} ≤ e^{-4}.
        self.budget_factor * (8.0 / self.rate_factor.min(0.25)) * ((n.max(2) as f64).ln() + 4.0)
            / 8.0
    }

    fn g_of(&self, _n: usize) -> f64 {
        0.0
    }

    fn slots_needed(&self, measure_bound: f64, n: usize) -> usize {
        let i = measure_bound.max(1.0);
        let slots = self.budget_factor * (8.0 / self.rate_factor.min(0.25)) / 8.0
            * i
            * ((n.max(2) as f64).ln() + 4.0);
        slots.ceil() as usize + 1
    }

    fn name(&self) -> &str {
        "uniform-rate"
    }
}

struct UniformRateRun {
    pending: Vec<bool>,
    remaining: usize,
    probability: f64,
}

impl StaticAlgorithm for UniformRateRun {
    fn attempts_into(&mut self, rng: &mut dyn RngCore, out: &mut Vec<usize>) {
        out.clear();
        for (i, &pending) in self.pending.iter().enumerate() {
            if pending && rng.gen::<f64>() < self.probability {
                out.push(i);
            }
        }
    }

    fn ack(&mut self, idx: usize) {
        if std::mem::replace(&mut self.pending[idx], false) {
            self.remaining -= 1;
        }
    }

    fn is_done(&self) -> bool {
        self.remaining == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feasibility::{PerLinkFeasibility, ThresholdFeasibility};
    use crate::ids::{LinkId, PacketId};
    use crate::interference::CompleteInterference;
    use crate::rng::root_rng;
    use crate::staticsched::{requests_measure, run_static};

    fn requests_on_links(links: &[u32]) -> Vec<Request> {
        links
            .iter()
            .enumerate()
            .map(|(i, &l)| Request {
                packet: PacketId(i as u64),
                link: LinkId(l),
            })
            .collect()
    }

    #[test]
    fn serves_all_on_multiple_access_channel() {
        // 16 packets on a MAC: measure is 16, success requires being alone.
        let model = CompleteInterference::new(16);
        let reqs = requests_on_links(&(0..16).collect::<Vec<_>>());
        let i = requests_measure(&model, &reqs);
        let feas = ThresholdFeasibility::new(model);
        let scheduler = UniformRateScheduler::new();
        let budget = scheduler.slots_needed(i, reqs.len());
        let mut rng = root_rng(12);
        let result = run_static(&scheduler, &reqs, i, &feas, budget, &mut rng);
        assert!(
            result.all_served(),
            "served only {}/{} within {budget}",
            result.served_count(),
            reqs.len()
        );
    }

    #[test]
    fn serves_parallel_links_quickly() {
        // Disjoint links under per-link feasibility: measure bound 1, so the
        // probability clamps near rate_factor and everything finishes fast.
        let reqs = requests_on_links(&(0..32).collect::<Vec<_>>());
        let feas = PerLinkFeasibility::new(32);
        let scheduler = UniformRateScheduler::new();
        let mut rng = root_rng(5);
        let result = run_static(&scheduler, &reqs, 1.0, &feas, 200, &mut rng);
        assert!(result.all_served());
    }

    #[test]
    fn schedule_length_scales_linearly_in_measure() {
        // Fixed n per instance, growing duplicates on one MAC: slots/I
        // should stay roughly constant.
        let scheduler = UniformRateScheduler::new();
        let mut ratios = Vec::new();
        for &n in &[8usize, 32, 128] {
            let model = CompleteInterference::new(n);
            let reqs = requests_on_links(&(0..n as u32).collect::<Vec<_>>());
            let i = n as f64;
            let feas = ThresholdFeasibility::new(model);
            let mut rng = root_rng(n as u64);
            let result = run_static(&scheduler, &reqs, i, &feas, 100_000, &mut rng);
            assert!(result.all_served());
            ratios.push(result.slots_used as f64 / (i * (n as f64).ln()));
        }
        // O(I log n): normalized ratios stay within a small constant band.
        let max = ratios.iter().cloned().fold(f64::MIN, f64::max);
        let min = ratios.iter().cloned().fold(f64::MAX, f64::min);
        assert!(
            max / min < 6.0,
            "normalized schedule lengths diverge: {ratios:?}"
        );
    }

    #[test]
    fn empty_instance_is_immediately_done() {
        let scheduler = UniformRateScheduler::new();
        let mut rng = root_rng(1);
        let mut alg = scheduler.instantiate(&[], 1.0, &mut rng);
        assert!(alg.is_done());
        let mut out = vec![0];
        alg.attempts_into(&mut rng, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn probability_clamps_for_tiny_measure() {
        let s = UniformRateScheduler::new();
        assert!(s.probability(0.0) <= 1.0);
        assert_eq!(s.probability(1.0), 0.25);
        assert_eq!(s.probability(10.0), 0.025);
    }

    #[test]
    fn double_ack_is_idempotent() {
        let scheduler = UniformRateScheduler::new();
        let reqs = requests_on_links(&[0]);
        let mut rng = root_rng(1);
        let mut alg = scheduler.instantiate(&reqs, 1.0, &mut rng);
        alg.ack(0);
        alg.ack(0);
        assert!(alg.is_done());
    }

    #[test]
    #[should_panic(expected = "rate factor")]
    fn rejects_zero_rate_factor() {
        let _ = UniformRateScheduler::new().with_rate_factor(0.0);
    }
}
