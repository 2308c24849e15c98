//! Length-class decomposition — the mechanism behind the oblivious-power
//! results of Section 6.2 (`O(log Δ · log m)`-competitive protocols, with
//! `Δ` the ratio of longest to shortest link).
//!
//! Links are partitioned into `⌈log₂ Δ⌉ + 1` classes of geometrically
//! increasing length; within one class all lengths agree up to a factor 2,
//! so any fixed monotone power assignment behaves like linear powers up to
//! a constant and the fixed-power machinery applies. The
//! [`DiversityScheduler`] serves the classes sequentially with the wrapped
//! scheduler, paying the `O(log Δ)` factor the paper's bound states, and
//! finishes stragglers with one joint run.

use crate::network::SinrNetwork;
use dps_core::staticsched::{Request, StaticAlgorithm, StaticScheduler};
use rand::RngCore;

/// Serves requests class-by-class in increasing link length; classes are
/// dyadic in link length.
#[derive(Clone, Debug)]
pub struct DiversityScheduler<S> {
    inner: S,
    /// Length-class index per link.
    class_of: Vec<usize>,
    num_classes: usize,
}

impl<S: StaticScheduler> DiversityScheduler<S> {
    /// Creates the scheduler for the links of `net`.
    ///
    /// # Panics
    ///
    /// Panics if the network has no links.
    pub fn new(inner: S, net: &SinrNetwork) -> Self {
        let lengths: Vec<f64> = net
            .network()
            .link_ids()
            .map(|l| net.link_length(l))
            .collect();
        assert!(!lengths.is_empty(), "network must have links");
        let min = lengths.iter().copied().fold(f64::INFINITY, f64::min);
        let class_of: Vec<usize> = lengths
            .iter()
            .map(|&len| (len / min).log2().floor().max(0.0) as usize)
            .collect();
        let num_classes = class_of.iter().copied().max().unwrap_or(0) + 1;
        DiversityScheduler {
            inner,
            class_of,
            num_classes,
        }
    }

    /// Number of dyadic length classes (`⌈log₂ Δ⌉ + 1`).
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// The length class of `link`.
    pub fn class_of(&self, link: dps_core::ids::LinkId) -> usize {
        self.class_of[link.index()]
    }
}

impl<S: StaticScheduler + Clone + Send + 'static> StaticScheduler for DiversityScheduler<S> {
    fn instantiate(
        &self,
        requests: &[Request],
        measure_bound: f64,
        rng: &mut dyn RngCore,
    ) -> Box<dyn StaticAlgorithm> {
        let mut classes: Vec<Vec<usize>> = vec![Vec::new(); self.num_classes];
        for (idx, req) in requests.iter().enumerate() {
            classes[self.class_of[req.link.index()]].push(idx);
        }
        let mut run = DiversityRun {
            requests: requests.to_vec(),
            pending: vec![true; requests.len()],
            remaining: requests.len(),
            classes,
            stage: 0,
            inner: None,
            inner_members: Vec::new(),
            outer_to_inner: vec![usize::MAX; requests.len()],
            inner_slots_left: 0,
            measure_bound: measure_bound.max(1.0),
            did_final: false,
            gave_up: requests.is_empty(),
            scheduler: self.inner.clone(),
        };
        run.advance(rng);
        Box::new(run)
    }

    fn f_of(&self, n: usize) -> f64 {
        // Each class pays the inner coefficient; classes are sequential.
        // (+1 for the joint straggler run.)
        (self.num_classes as f64 + 1.0) * self.inner.f_of(n)
    }

    fn g_of(&self, n: usize) -> f64 {
        (self.num_classes as f64 + 1.0) * self.inner.g_of(n)
    }

    fn name(&self) -> &str {
        "length-diversity"
    }
}

struct DiversityRun<S> {
    requests: Vec<Request>,
    pending: Vec<bool>,
    remaining: usize,
    classes: Vec<Vec<usize>>,
    /// Next class index to execute.
    stage: usize,
    inner: Option<Box<dyn StaticAlgorithm>>,
    inner_members: Vec<usize>,
    outer_to_inner: Vec<usize>,
    inner_slots_left: usize,
    measure_bound: f64,
    did_final: bool,
    gave_up: bool,
    scheduler: S,
}

impl<S: StaticScheduler> DiversityRun<S> {
    fn teardown(&mut self) {
        self.inner = None;
        for &outer in &self.inner_members {
            self.outer_to_inner[outer] = usize::MAX;
        }
        self.inner_members.clear();
    }

    fn start(&mut self, members: Vec<usize>, rng: &mut dyn RngCore) {
        let reqs: Vec<Request> = members.iter().map(|&o| self.requests[o]).collect();
        for (i, &outer) in members.iter().enumerate() {
            self.outer_to_inner[outer] = i;
        }
        self.inner_slots_left = self
            .scheduler
            .slots_needed(self.measure_bound, reqs.len().max(1));
        self.inner = Some(self.scheduler.instantiate(&reqs, self.measure_bound, rng));
        self.inner_members = members;
    }

    fn advance(&mut self, rng: &mut dyn RngCore) {
        loop {
            if self.remaining == 0 || self.gave_up {
                return;
            }
            if let Some(inner) = &self.inner {
                if self.inner_slots_left > 0 && !inner.is_done() {
                    return;
                }
                self.teardown();
            }
            if self.stage < self.classes.len() {
                let members: Vec<usize> = std::mem::take(&mut self.classes[self.stage])
                    .into_iter()
                    .filter(|&o| self.pending[o])
                    .collect();
                self.stage += 1;
                if members.is_empty() {
                    continue;
                }
                self.start(members, rng);
                return;
            }
            if !self.did_final {
                self.did_final = true;
                let members: Vec<usize> = (0..self.requests.len())
                    .filter(|&o| self.pending[o])
                    .collect();
                if members.is_empty() {
                    self.gave_up = true;
                    return;
                }
                self.start(members, rng);
                return;
            }
            self.gave_up = true;
            return;
        }
    }
}

impl<S: StaticScheduler + Send> StaticAlgorithm for DiversityRun<S> {
    fn attempts_into(&mut self, rng: &mut dyn RngCore, out: &mut Vec<usize>) {
        self.advance(rng);
        let Some(inner) = &mut self.inner else {
            out.clear();
            return;
        };
        self.inner_slots_left -= 1;
        inner.attempts_into(rng, out);
        for i in out.iter_mut() {
            *i = self.inner_members[*i];
        }
    }

    fn ack(&mut self, idx: usize) {
        if !std::mem::replace(&mut self.pending[idx], false) {
            return;
        }
        self.remaining -= 1;
        let inner_idx = self.outer_to_inner[idx];
        if inner_idx != usize::MAX {
            if let Some(inner) = &mut self.inner {
                inner.ack(inner_idx);
            }
        }
    }

    fn is_done(&self) -> bool {
        self.remaining == 0 || self.gave_up
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feasibility::SinrFeasibility;
    use crate::network::SinrNetworkBuilder;
    use crate::params::SinrParams;
    use crate::power::UniformPower;
    use dps_core::ids::{LinkId, PacketId};
    use dps_core::staticsched::run_static;
    use dps_core::staticsched::uniform_rate::UniformRateScheduler;
    use rand::SeedableRng;
    use rand_chacha::ChaCha12Rng;

    /// Well-separated links with dyadic lengths 1, 2, 4, 8.
    fn diverse_net() -> SinrNetwork {
        let mut b = SinrNetworkBuilder::new(SinrParams::default_noiseless());
        for (i, len) in [1.0f64, 2.0, 4.0, 8.0].into_iter().enumerate() {
            let x = 200.0 * i as f64;
            b.add_isolated_link((x, 0.0), (x, len));
        }
        b.build()
    }

    #[test]
    fn classes_are_dyadic_in_length() {
        let net = diverse_net();
        let s = DiversityScheduler::new(UniformRateScheduler::new(), &net);
        assert_eq!(s.num_classes(), 4);
        for (i, expected) in [0usize, 1, 2, 3].into_iter().enumerate() {
            assert_eq!(s.class_of(LinkId(i as u32)), expected);
        }
    }

    #[test]
    fn f_pays_the_log_delta_factor() {
        let net = diverse_net();
        let inner = UniformRateScheduler::new();
        let s = DiversityScheduler::new(inner, &net);
        // Δ = 8 ⇒ 4 classes ⇒ coefficient (4 + 1)·inner.
        assert_eq!(s.f_of(100), 5.0 * inner.f_of(100));
    }

    #[test]
    fn serves_diverse_instance_under_uniform_power() {
        // Uniform powers on length-diverse instances can starve long links
        // when everything transmits together; the class decomposition
        // serves each length scale in its own window.
        let net = diverse_net();
        let requests: Vec<Request> = (0..4)
            .flat_map(|l| {
                (0..3).map(move |k| Request {
                    packet: PacketId((l * 3 + k) as u64),
                    link: LinkId(l as u32),
                })
            })
            .collect();
        let scheduler = DiversityScheduler::new(UniformRateScheduler::new(), &net);
        let oracle = SinrFeasibility::new(&net, &UniformPower::unit());
        let mut rng = ChaCha12Rng::seed_from_u64(4);
        let budget = scheduler.slots_needed(12.0, requests.len());
        let result = run_static(&scheduler, &requests, 12.0, &oracle, budget, &mut rng);
        assert!(
            result.all_served(),
            "served {}/{} in {} slots",
            result.served_count(),
            requests.len(),
            result.slots_used
        );
    }

    #[test]
    fn single_class_collapses_to_inner_plus_final() {
        let mut b = SinrNetworkBuilder::new(SinrParams::default_noiseless());
        b.add_isolated_link((0.0, 0.0), (0.0, 1.0));
        b.add_isolated_link((50.0, 0.0), (50.0, 1.5));
        let net = b.build();
        let s = DiversityScheduler::new(UniformRateScheduler::new(), &net);
        assert_eq!(s.num_classes(), 1);
    }

    #[test]
    fn empty_instance_is_done() {
        let net = diverse_net();
        let s = DiversityScheduler::new(UniformRateScheduler::new(), &net);
        let mut rng = ChaCha12Rng::seed_from_u64(1);
        let mut alg = s.instantiate(&[], 1.0, &mut rng);
        assert!(alg.is_done());
        let mut out = vec![0];
        alg.attempts_into(&mut rng, &mut out);
        assert!(out.is_empty());
    }
}
