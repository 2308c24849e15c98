//! A spreading-plus-decay static scheduler achieving schedule lengths
//! `O(I + polylog(m, n))` — the stand-in for the Fanghänel–Kesselheim–
//! Vöcking algorithm \[21\] the paper uses for linear power assignments
//! (Corollary 12).
//!
//! Mechanism: random delays split the requests into classes of measure
//! `O(χ)` with `χ = Θ(log m)`; each class gets a contention window of
//! `Θ(χ)` slots in which its packets transmit with probability `Θ(1/χ)`,
//! succeeding with constant probability. Survivors cascade into the next
//! round, whose measure bound has halved; once the bound reaches `χ` a
//! uniform-rate tail finishes the `O(polylog)` stragglers. The total length
//! is dominated by the geometric sum `Σ_j 2^{-j}·I·O(1) = O(I)` — crucially
//! with a coefficient *independent of `n`*, which is what the dynamic
//! transformation needs from its static algorithm.

use crate::staticsched::{Request, StaticAlgorithm, StaticScheduler};
use rand::{Rng, RngCore};

/// Factory for the two-stage spreading/decay scheduler.
#[derive(Clone, Copy, Debug)]
pub struct TwoStageDecayScheduler {
    /// Network size `m`, which sets `χ`.
    m: usize,
    /// `χ = chi_factor · (ln m + 2)`.
    chi_factor: f64,
    /// Per-class contention window, in units of `χ` slots.
    window_factor: f64,
    /// Tail length, in units of `χ·(ln n + 4)` slots.
    tail_factor: f64,
}

impl TwoStageDecayScheduler {
    /// Creates the scheduler for a network of significant size `m` with
    /// default constants.
    ///
    /// # Panics
    ///
    /// Panics if `m == 0`.
    pub fn new(m: usize) -> Self {
        assert!(m > 0, "network size must be positive");
        TwoStageDecayScheduler {
            m,
            chi_factor: 4.0,
            window_factor: 8.0,
            tail_factor: 4.0,
        }
    }

    /// Overrides the class-measure target `χ` scale factor.
    ///
    /// # Panics
    ///
    /// Panics unless `chi_factor` is positive.
    pub fn with_chi_factor(mut self, chi_factor: f64) -> Self {
        assert!(chi_factor > 0.0, "chi factor must be positive");
        self.chi_factor = chi_factor;
        self
    }

    /// The class measure target `χ`.
    pub fn chi(&self) -> f64 {
        self.chi_factor * ((self.m as f64).ln() + 2.0)
    }

    fn window(&self) -> usize {
        (self.window_factor * self.chi()).ceil() as usize
    }

    fn tail_len(&self, n: usize) -> usize {
        (self.tail_factor * self.chi() * ((n.max(2) as f64).ln() + 4.0)).ceil() as usize
    }

    /// Number of cascade rounds needed for measure bound `i`.
    fn rounds(&self, i: f64) -> usize {
        let chi = self.chi();
        let mut bound = i.max(1.0);
        let mut rounds = 0;
        while bound > chi && rounds < 64 {
            bound /= 2.0;
            rounds += 1;
        }
        rounds.max(1)
    }
}

impl StaticScheduler for TwoStageDecayScheduler {
    fn instantiate(
        &self,
        requests: &[Request],
        measure_bound: f64,
        rng: &mut dyn RngCore,
    ) -> Box<dyn StaticAlgorithm> {
        let chi = self.chi();
        let mut run = TwoStageRun {
            pending: vec![true; requests.len()],
            remaining: requests.len(),
            q: (1.0 / (4.0 * chi)).min(1.0),
            chi,
            window: self.window().max(1),
            classes: Vec::new(),
            class_of: vec![usize::MAX; requests.len()],
            slot_in_round: 0,
            round_len: 0,
            next_measure_bound: measure_bound.max(1.0),
            in_tail: false,
            tail_list: Vec::new(),
        };
        run.start_round(rng);
        Box::new(run)
    }

    fn f_of(&self, _n: usize) -> f64 {
        // Geometric sum over cascade rounds: Σ_j 2^{-j}·(window/χ) ≤ 2·c₁,
        // plus slack for the per-round ceiling.
        2.0 * self.window_factor + 2.0
    }

    fn g_of(&self, n: usize) -> f64 {
        // Per-round overhead (one window per round even when ψ_j rounds up)
        // plus the uniform-rate tail.
        let per_round = self.window() as f64;
        40.0 * per_round + self.tail_len(n) as f64
    }

    fn slots_needed(&self, measure_bound: f64, n: usize) -> usize {
        let chi = self.chi();
        let window = self.window();
        let mut bound = measure_bound.max(1.0);
        let mut slots = 0usize;
        for _ in 0..self.rounds(measure_bound) {
            let classes = (bound / chi).ceil().max(1.0) as usize;
            slots += classes * window;
            bound /= 2.0;
        }
        slots + self.tail_len(n) + 1
    }

    fn name(&self) -> &str {
        "two-stage-decay"
    }
}

struct TwoStageRun {
    pending: Vec<bool>,
    remaining: usize,
    q: f64,
    chi: f64,
    window: usize,
    /// Members per class for the current round.
    classes: Vec<Vec<usize>>,
    /// Current class of each request (tail: unused).
    class_of: Vec<usize>,
    slot_in_round: usize,
    round_len: usize,
    /// Measure bound the *next* round will be planned with.
    next_measure_bound: f64,
    in_tail: bool,
    /// Surviving request indices for the tail phase, ascending; lazily
    /// compacted as acknowledgements land so a tail slot costs
    /// O(survivors), not O(n). Iteration order (and therefore RNG draw
    /// order: one uniform per surviving request) matches the original
    /// full-array scan exactly.
    tail_list: Vec<usize>,
}

impl TwoStageRun {
    fn start_round(&mut self, rng: &mut dyn RngCore) {
        let psi = (self.next_measure_bound / self.chi).ceil().max(1.0) as usize;
        if self.next_measure_bound <= self.chi {
            self.in_tail = true;
            self.tail_list.clear();
            self.tail_list.extend(
                self.pending
                    .iter()
                    .enumerate()
                    .filter(|(_, &p)| p)
                    .map(|(i, _)| i),
            );
            return;
        }
        self.classes = vec![Vec::new(); psi];
        for (idx, &pending) in self.pending.iter().enumerate() {
            if pending {
                let class = rng.gen_range(0..psi);
                self.classes[class].push(idx);
                self.class_of[idx] = class;
            }
        }
        self.slot_in_round = 0;
        self.round_len = psi * self.window;
        self.next_measure_bound /= 2.0;
    }
}

impl StaticAlgorithm for TwoStageRun {
    fn attempts_into(&mut self, rng: &mut dyn RngCore, out: &mut Vec<usize>) {
        out.clear();
        if self.remaining == 0 {
            return;
        }
        if !self.in_tail && self.slot_in_round >= self.round_len {
            self.start_round(rng);
        }
        if self.in_tail {
            // Compact acknowledged entries out of the survivor list while
            // drawing; `tail_list` stays ascending, so the draw sequence
            // is identical to scanning the full pending array.
            let mut keep = 0;
            for read in 0..self.tail_list.len() {
                let idx = self.tail_list[read];
                if self.pending[idx] {
                    self.tail_list[keep] = idx;
                    keep += 1;
                    if rng.gen::<f64>() < self.q {
                        out.push(idx);
                    }
                }
            }
            self.tail_list.truncate(keep);
        } else {
            let class = self.slot_in_round / self.window;
            for &idx in &self.classes[class] {
                if self.pending[idx] && rng.gen::<f64>() < self.q {
                    out.push(idx);
                }
            }
            self.slot_in_round += 1;
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
    use crate::feasibility::ThresholdFeasibility;
    use crate::ids::{LinkId, PacketId};
    use crate::interference::CompleteInterference;
    use crate::rng::root_rng;
    use crate::staticsched::uniform_rate::UniformRateScheduler;
    use crate::staticsched::{run_static, StaticScheduler};

    fn mac_requests(n: usize) -> Vec<Request> {
        (0..n)
            .map(|i| Request {
                packet: PacketId(i as u64),
                link: LinkId((i % 8) as u32),
            })
            .collect()
    }

    #[test]
    fn serves_dense_mac_instance() {
        let n = 200;
        let model = CompleteInterference::new(8);
        let reqs = mac_requests(n);
        let feas = ThresholdFeasibility::new(model);
        let scheduler = TwoStageDecayScheduler::new(8);
        let budget = scheduler.slots_needed(n as f64, n);
        let mut rng = root_rng(3);
        let result = run_static(&scheduler, &reqs, n as f64, &feas, budget, &mut rng);
        assert!(
            result.all_served(),
            "served {}/{} in {} slots (budget {budget})",
            result.served_count(),
            n,
            result.slots_used
        );
    }

    #[test]
    fn slots_per_measure_flat_for_dense_instances() {
        // The point of the scheduler: slots/I approaches a constant as the
        // instance gets denser, unlike the uniform-rate algorithm.
        let model = CompleteInterference::new(8);
        let feas = ThresholdFeasibility::new(model);
        let scheduler = TwoStageDecayScheduler::new(8);
        let mut ratios = Vec::new();
        for &n in &[256usize, 1024] {
            let reqs = mac_requests(n);
            let mut rng = root_rng(n as u64);
            let budget = 4 * scheduler.slots_needed(n as f64, n);
            let result = run_static(&scheduler, &reqs, n as f64, &feas, budget, &mut rng);
            assert!(result.all_served());
            ratios.push(result.slots_used as f64 / n as f64);
        }
        assert!(
            ratios[1] / ratios[0] < 1.6,
            "slots/I should flatten: {ratios:?}"
        );
    }

    #[test]
    fn f_of_is_independent_of_n() {
        let s = TwoStageDecayScheduler::new(64);
        assert_eq!(s.f_of(10), s.f_of(1_000_000));
        // In contrast, the uniform-rate scheduler's coefficient grows.
        let u = UniformRateScheduler::new();
        assert!(u.f_of(1_000_000) > 2.0 * u.f_of(10));
    }

    #[test]
    fn sparse_instance_goes_straight_to_tail() {
        // Measure below χ: no cascade rounds, tail only.
        let scheduler = TwoStageDecayScheduler::new(8);
        let mut rng = root_rng(1);
        let reqs = mac_requests(4);
        let mut alg = scheduler.instantiate(&reqs, 4.0, &mut rng);
        // The run starts in the tail; attempts come from the whole set.
        assert!(!alg.is_done());
        alg.attempts_into(&mut rng, &mut Vec::new());
    }

    #[test]
    fn empty_instance_is_done() {
        let scheduler = TwoStageDecayScheduler::new(8);
        let mut rng = root_rng(1);
        let mut alg = scheduler.instantiate(&[], 1.0, &mut rng);
        assert!(alg.is_done());
        let mut out = vec![0];
        alg.attempts_into(&mut rng, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn budget_formula_dominated_by_linear_term() {
        let s = TwoStageDecayScheduler::new(64);
        let small = s.slots_needed(100.0, 100);
        let large = s.slots_needed(10_000.0, 10_000);
        // 100x the measure should cost less than ~120x the slots.
        assert!((large as f64) < 120.0 * small as f64);
        // And the linear term dominates: at least 2·window_factor per unit I.
        assert!(large as f64 > 16.0 * 10_000.0);
    }

    #[test]
    #[should_panic(expected = "network size")]
    fn rejects_zero_m() {
        let _ = TwoStageDecayScheduler::new(0);
    }
}
