//! A centralized scheduler for the power-control setting (Section 6.2,
//! Corollary 14), in the spirit of Kesselheim's SODA 2011 algorithm \[32\].
//!
//! Requests are processed shortest-link-first and packed into slots by
//! first fit under the §6.2 interference matrix: a request joins the
//! earliest slot where every member's row sum (and its own) stays within a
//! constant budget. The planned schedule is then executed against the
//! physical oracle; stragglers the pairwise budget admitted but the exact
//! accumulative SINR rejected are retried in a uniform-rate tail.
//!
//! The substitution from the paper's exact algorithm is documented in
//! DESIGN.md: same measure, same shortest-first ordering principle, same
//! `O(I·log n)` empirical shape — which is all the black-box
//! transformation consumes.

use crate::matrix::SinrInterference;
use dps_core::interference::InterferenceModel;
use dps_core::staticsched::{Request, StaticAlgorithm, StaticScheduler};
use rand::{Rng, RngCore};
use std::sync::Arc;

/// Centralized first-fit scheduler under the §6.2 power-control matrix.
#[derive(Clone)]
pub struct PowerControlScheduler {
    matrix: Arc<SinrInterference>,
    lengths: Arc<Vec<f64>>,
    /// Per-slot row-sum budget; ½ keeps the accumulative check honest.
    budget: f64,
    /// Tail transmission probability for stragglers.
    tail_q: f64,
}

impl std::fmt::Debug for PowerControlScheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PowerControlScheduler")
            .field("budget", &self.budget)
            .field("tail_q", &self.tail_q)
            .finish_non_exhaustive()
    }
}

impl PowerControlScheduler {
    /// Creates the scheduler for a network, precomputing the §6.2 matrix.
    pub fn new(net: &crate::network::SinrNetwork) -> Self {
        let lengths = net.lengths().to_vec();
        PowerControlScheduler {
            matrix: Arc::new(SinrInterference::power_control(net)),
            lengths: Arc::new(lengths),
            budget: 0.5,
            tail_q: 0.125,
        }
    }

    /// Overrides the per-slot packing budget.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < budget <= 1`.
    pub fn with_budget(mut self, budget: f64) -> Self {
        assert!(budget > 0.0 && budget <= 1.0, "budget must be in (0, 1]");
        self.budget = budget;
        self
    }

    /// The §6.2 interference matrix this scheduler plans against.
    pub fn matrix(&self) -> &SinrInterference {
        &self.matrix
    }

    /// Greedy shortest-first first-fit slot assignment; returns per-slot
    /// request-index lists.
    fn plan(&self, requests: &[Request]) -> Vec<Vec<usize>> {
        let mut order: Vec<usize> = (0..requests.len()).collect();
        order.sort_by(|&a, &b| {
            let la = self.lengths[requests[a].link.index()];
            let lb = self.lengths[requests[b].link.index()];
            la.partial_cmp(&lb).expect("finite lengths")
        });
        let mut slots: Vec<Vec<usize>> = Vec::new();
        // Cached row sums per slot: sum_w[slot][idx-in-slot] is the current
        // ∑ W[member][other member].
        let mut row_sums: Vec<Vec<f64>> = Vec::new();
        for &idx in &order {
            let link = requests[idx].link;
            let mut placed = false;
            for (s, slot) in slots.iter_mut().enumerate() {
                // Candidate row sum for the new member.
                let own: f64 = slot
                    .iter()
                    .map(|&j| self.matrix.weight(link, requests[j].link))
                    .sum();
                if own > self.budget {
                    continue;
                }
                // Increase of every member's row by the newcomer.
                let fits = slot.iter().enumerate().all(|(k, &j)| {
                    row_sums[s][k] + self.matrix.weight(requests[j].link, link) <= self.budget
                });
                if !fits {
                    continue;
                }
                for (k, &j) in slot.iter().enumerate() {
                    row_sums[s][k] += self.matrix.weight(requests[j].link, link);
                }
                slot.push(idx);
                row_sums[s].push(own);
                placed = true;
                break;
            }
            if !placed {
                slots.push(vec![idx]);
                row_sums.push(vec![0.0]);
            }
        }
        slots
    }
}

impl StaticScheduler for PowerControlScheduler {
    fn instantiate(
        &self,
        requests: &[Request],
        _measure_bound: f64,
        _rng: &mut dyn RngCore,
    ) -> Box<dyn StaticAlgorithm> {
        Box::new(PowerControlRun {
            plan: self.plan(requests),
            cursor: 0,
            pending: vec![true; requests.len()],
            remaining: requests.len(),
            tail_q: self.tail_q,
        })
    }

    fn f_of(&self, _n: usize) -> f64 {
        // First-fit under budget ½ packs ~½ unit of measure per slot; the
        // factor 4 covers the one-directional matrix (rows only charged by
        // longer links) admitting sets the accumulative check thins out.
        4.0 / self.budget
    }

    fn g_of(&self, n: usize) -> f64 {
        // Straggler tail: constant-probability retries.
        16.0 * ((n.max(2) as f64).ln() + 4.0) / self.tail_q
    }

    fn name(&self) -> &str {
        "power-control-first-fit"
    }
}

struct PowerControlRun {
    plan: Vec<Vec<usize>>,
    cursor: usize,
    pending: Vec<bool>,
    remaining: usize,
    tail_q: f64,
}

impl StaticAlgorithm for PowerControlRun {
    fn attempts_into(&mut self, rng: &mut dyn RngCore, out: &mut Vec<usize>) {
        out.clear();
        if self.remaining == 0 {
            return;
        }
        if self.cursor < self.plan.len() {
            let slot = self.cursor;
            self.cursor += 1;
            out.extend(self.plan[slot].iter().copied().filter(|&i| self.pending[i]));
        } else {
            // Straggler tail: uniform-rate retries.
            out.extend(
                (0..self.pending.len())
                    .filter(|&i| self.pending[i])
                    .filter(|_| rng.gen::<f64>() < self.tail_q),
            );
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
    use crate::feasibility::SinrFeasibility;
    use crate::instances::random_instance;
    use crate::params::SinrParams;
    use crate::power::SquareRootPower;
    use dps_core::ids::PacketId;
    use dps_core::staticsched::{requests_measure, run_static};
    use rand::SeedableRng;
    use rand_chacha::ChaCha12Rng;

    #[test]
    fn plan_respects_budget() {
        let mut rng = ChaCha12Rng::seed_from_u64(3);
        let net = random_instance(
            24,
            60.0,
            1.0,
            6.0,
            SinrParams::default_noiseless(),
            &mut rng,
        );
        let scheduler = PowerControlScheduler::new(&net);
        let requests: Vec<Request> = net
            .network()
            .link_ids()
            .enumerate()
            .map(|(i, link)| Request {
                packet: PacketId(i as u64),
                link,
            })
            .collect();
        let plan = scheduler.plan(&requests);
        for slot in &plan {
            for &i in slot {
                let row: f64 = slot
                    .iter()
                    .filter(|&&j| j != i)
                    .map(|&j| scheduler.matrix.weight(requests[i].link, requests[j].link))
                    .sum();
                assert!(row <= scheduler.budget + 1e-9, "row sum {row} over budget");
            }
        }
        // Every request appears exactly once.
        let mut seen: Vec<usize> = plan.iter().flatten().copied().collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..requests.len()).collect::<Vec<_>>());
    }

    #[test]
    fn serves_random_instance_against_exact_oracle() {
        let mut rng = ChaCha12Rng::seed_from_u64(5);
        let params = SinrParams::default_noiseless();
        let net = random_instance(32, 120.0, 1.0, 4.0, params, &mut rng);
        let scheduler = PowerControlScheduler::new(&net);
        let requests: Vec<Request> = net
            .network()
            .link_ids()
            .enumerate()
            .map(|(i, link)| Request {
                packet: PacketId(i as u64),
                link,
            })
            .collect();
        let i = requests_measure(scheduler.matrix(), &requests);
        let oracle = SinrFeasibility::new(&net, &SquareRootPower::new(params.alpha));
        let budget = 8 * scheduler.slots_needed(i, requests.len()) + 2000;
        let result = run_static(&scheduler, &requests, i, &oracle, budget, &mut rng);
        assert!(
            result.all_served(),
            "served {}/{} in {} slots",
            result.served_count(),
            requests.len(),
            result.slots_used
        );
    }

    #[test]
    fn empty_request_set_is_done() {
        let mut rng = ChaCha12Rng::seed_from_u64(1);
        let net = random_instance(4, 50.0, 1.0, 2.0, SinrParams::default(), &mut rng);
        let scheduler = PowerControlScheduler::new(&net);
        let mut alg = scheduler.instantiate(&[], 1.0, &mut rng);
        assert!(alg.is_done());
        let mut out = vec![0];
        alg.attempts_into(&mut rng, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic(expected = "budget")]
    fn rejects_invalid_budget() {
        let mut rng = ChaCha12Rng::seed_from_u64(1);
        let net = random_instance(2, 50.0, 1.0, 2.0, SinrParams::default(), &mut rng);
        let _ = PowerControlScheduler::new(&net).with_budget(0.0);
    }
}
