//! Static scheduling: serve a fixed set of single-hop transmission requests
//! in as few slots as possible.
//!
//! The paper's transformation consumes static algorithms through a narrow
//! interface: an algorithm `A(I, n)` that, given at most `n` requests of
//! interference measure at most `I`, serves them within `f(n)·I + g(n)`
//! slots with high probability. Algorithms here are *step-wise* and
//! acknowledgment-based — each slot they propose transmission attempts, a
//! [`crate::feasibility::Feasibility`] oracle decides which succeed, and
//! only successes are reported back — because that is exactly how the
//! dynamic protocol of Section 4 executes them.
//!
//! Provided algorithms:
//!
//! * [`uniform_rate::UniformRateScheduler`] — Theorem 19's algorithm
//!   (transmit each pending packet with probability `1/4I`), `O(I·log n)`;
//! * [`two_stage::TwoStageDecayScheduler`] — a spreading-plus-decay
//!   scheduler in the spirit of Fanghänel–Kesselheim–Vöcking,
//!   `O(I + polylog)`;
//! * [`greedy::GreedyPerLink`] — the trivial per-link algorithm for
//!   packet-routing networks, exactly `I` slots.

pub mod greedy;
pub mod two_stage;
pub mod uniform_rate;

use crate::feasibility::{Attempt, Feasibility};
use crate::ids::{LinkId, PacketId};
use crate::interference::InterferenceModel;
use crate::load::LinkLoad;
use rand::RngCore;

/// A single-hop transmission request: `packet` wants to cross `link`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Request {
    /// The packet to transmit.
    pub packet: PacketId,
    /// The link to transmit it on.
    pub link: LinkId,
}

/// A running instance of a static algorithm over a fixed request slice.
///
/// Indices in [`StaticAlgorithm::attempts_into`] and
/// [`StaticAlgorithm::ack`] refer to positions in the request slice the
/// instance was created for.
///
/// `Send` is a supertrait so protocols owning boxed instances can move
/// across the threads of the parallel runners.
pub trait StaticAlgorithm: Send {
    /// Writes the request indices to attempt in the next slot into `out`
    /// (cleared first), so the frame protocol reuses one buffer across
    /// slots.
    ///
    /// Called exactly once per slot; implementations advance their internal
    /// clock on each call.
    fn attempts_into(&mut self, rng: &mut dyn RngCore, out: &mut Vec<usize>);

    /// Acknowledges that request `idx` succeeded in the slot of the most
    /// recent [`StaticAlgorithm::attempts_into`] call.
    fn ack(&mut self, idx: usize);

    /// Whether the instance will make no further attempts (all requests
    /// served, or the algorithm has exhausted its plan).
    fn is_done(&self) -> bool;
}

/// A factory of [`StaticAlgorithm`] instances together with its schedule
/// length guarantee `f(n)·I + g(n)`.
pub trait StaticScheduler {
    /// Creates an instance for `requests`, promised to have interference
    /// measure at most `measure_bound`.
    fn instantiate(
        &self,
        requests: &[Request],
        measure_bound: f64,
        rng: &mut dyn RngCore,
    ) -> Box<dyn StaticAlgorithm>;

    /// Multiplicative coefficient of `I` in the schedule-length guarantee,
    /// as a function of the request count `n`.
    ///
    /// For algorithms suitable for the dynamic transformation this is
    /// (asymptotically) independent of `n`; for raw algorithms such as the
    /// uniform-rate scheduler it grows with `n` — which is exactly the
    /// scaling problem Algorithm 1 repairs.
    fn f_of(&self, n: usize) -> f64;

    /// Additive term of the schedule-length guarantee.
    fn g_of(&self, n: usize) -> f64;

    /// Slot budget sufficient to serve `n` requests of measure at most
    /// `measure_bound` with high probability.
    fn slots_needed(&self, measure_bound: f64, n: usize) -> usize {
        (self.f_of(n) * measure_bound + self.g_of(n)).ceil() as usize + 1
    }

    /// Short human-readable name, used in experiment tables.
    fn name(&self) -> &str;
}

impl<S: StaticScheduler + ?Sized> StaticScheduler for Box<S> {
    fn instantiate(
        &self,
        requests: &[Request],
        measure_bound: f64,
        rng: &mut dyn RngCore,
    ) -> Box<dyn StaticAlgorithm> {
        (**self).instantiate(requests, measure_bound, rng)
    }

    fn f_of(&self, n: usize) -> f64 {
        (**self).f_of(n)
    }

    fn g_of(&self, n: usize) -> f64 {
        (**self).g_of(n)
    }

    fn slots_needed(&self, measure_bound: f64, n: usize) -> usize {
        (**self).slots_needed(measure_bound, n)
    }

    fn name(&self) -> &str {
        (**self).name()
    }
}

impl<S: StaticScheduler + ?Sized> StaticScheduler for &S {
    fn instantiate(
        &self,
        requests: &[Request],
        measure_bound: f64,
        rng: &mut dyn RngCore,
    ) -> Box<dyn StaticAlgorithm> {
        (**self).instantiate(requests, measure_bound, rng)
    }

    fn f_of(&self, n: usize) -> f64 {
        (**self).f_of(n)
    }

    fn g_of(&self, n: usize) -> f64 {
        (**self).g_of(n)
    }

    fn slots_needed(&self, measure_bound: f64, n: usize) -> usize {
        (**self).slots_needed(measure_bound, n)
    }

    fn name(&self) -> &str {
        (**self).name()
    }
}

/// The interference measure of a request multiset under `model`: the
/// `I = ‖W·R‖∞` the scheduling guarantees are parameterized by.
pub fn requests_measure<M: InterferenceModel + ?Sized>(model: &M, requests: &[Request]) -> f64 {
    let load = LinkLoad::from_links(model.num_links(), requests.iter().map(|r| r.link));
    model.measure(&load)
}

/// Outcome of driving a [`StaticAlgorithm`] against a feasibility oracle.
#[derive(Clone, Debug)]
pub struct StaticRunResult {
    /// Slots consumed (at most the budget).
    pub slots_used: usize,
    /// Per-request success flags, index-aligned with the request slice.
    pub served: Vec<bool>,
    /// For each served request, the slot in which it succeeded.
    pub served_at: Vec<Option<usize>>,
    /// Total transmission attempts made.
    pub attempts_made: u64,
}

impl StaticRunResult {
    /// Whether every request was served.
    pub fn all_served(&self) -> bool {
        self.served.iter().all(|&s| s)
    }

    /// Number of served requests.
    pub fn served_count(&self) -> usize {
        self.served.iter().filter(|&&s| s).count()
    }

    /// Indices of requests that were not served.
    pub fn unserved(&self) -> Vec<usize> {
        self.served
            .iter()
            .enumerate()
            .filter(|(_, &s)| !s)
            .map(|(i, _)| i)
            .collect()
    }
}

/// Runs `scheduler` on `requests` against `feasibility` for at most
/// `budget` slots and reports which requests were served when.
///
/// This is the reference executor used by the static experiments (E1, E7,
/// E9) and by tests; the dynamic protocol embeds the same loop inside its
/// frame structure.
pub fn run_static<S, F>(
    scheduler: &S,
    requests: &[Request],
    measure_bound: f64,
    feasibility: &F,
    budget: usize,
    rng: &mut dyn RngCore,
) -> StaticRunResult
where
    S: StaticScheduler + ?Sized,
    F: Feasibility + ?Sized,
{
    let mut alg = scheduler.instantiate(requests, measure_bound, rng);
    let mut served = vec![false; requests.len()];
    let mut served_at = vec![None; requests.len()];
    let mut attempts_made = 0u64;
    let mut slots_used = 0;
    let (mut idxs, mut attempts, mut successes) = (Vec::new(), Vec::new(), Vec::new());
    for slot in 0..budget {
        if alg.is_done() {
            break;
        }
        slots_used = slot + 1;
        alg.attempts_into(rng, &mut idxs);
        if idxs.is_empty() {
            continue;
        }
        attempts_made += idxs.len() as u64;
        attempts.clear();
        attempts.extend(idxs.iter().map(|&i| Attempt {
            link: requests[i].link,
            packet: requests[i].packet,
        }));
        feasibility.successes_into(&attempts, &mut successes, rng);
        for (&idx, &ok) in idxs.iter().zip(&successes) {
            if ok {
                alg.ack(idx);
                served[idx] = true;
                served_at[idx] = Some(slot);
            }
        }
    }
    StaticRunResult {
        slots_used,
        served,
        served_at,
        attempts_made,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feasibility::PerLinkFeasibility;
    use crate::rng::root_rng;

    /// An algorithm that attempts every pending request every slot.
    struct Eager {
        pending: Vec<bool>,
    }

    impl StaticAlgorithm for Eager {
        fn attempts_into(&mut self, _rng: &mut dyn RngCore, out: &mut Vec<usize>) {
            out.clear();
            out.extend((0..self.pending.len()).filter(|&i| self.pending[i]));
        }

        fn ack(&mut self, idx: usize) {
            self.pending[idx] = false;
        }

        fn is_done(&self) -> bool {
            self.pending.iter().all(|&p| !p)
        }
    }

    struct EagerScheduler;

    impl StaticScheduler for EagerScheduler {
        fn instantiate(
            &self,
            requests: &[Request],
            _measure_bound: f64,
            _rng: &mut dyn RngCore,
        ) -> Box<dyn StaticAlgorithm> {
            Box::new(Eager {
                pending: vec![true; requests.len()],
            })
        }

        fn f_of(&self, _n: usize) -> f64 {
            1.0
        }

        fn g_of(&self, _n: usize) -> f64 {
            0.0
        }

        fn name(&self) -> &str {
            "eager"
        }
    }

    fn requests(links: &[u32]) -> Vec<Request> {
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
    fn run_static_serves_disjoint_links_in_one_slot() {
        let reqs = requests(&[0, 1, 2]);
        let feas = PerLinkFeasibility::new(3);
        let mut rng = root_rng(1);
        let result = run_static(&EagerScheduler, &reqs, 1.0, &feas, 10, &mut rng);
        assert!(result.all_served());
        assert_eq!(result.slots_used, 1);
        assert_eq!(result.served_at, vec![Some(0), Some(0), Some(0)]);
    }

    #[test]
    fn run_static_eager_livelocks_on_shared_link() {
        // Two packets on the same link, both always attempting: per-link
        // collision every slot, nothing ever served.
        let reqs = requests(&[0, 0]);
        let feas = PerLinkFeasibility::new(1);
        let mut rng = root_rng(1);
        let result = run_static(&EagerScheduler, &reqs, 2.0, &feas, 5, &mut rng);
        assert_eq!(result.served_count(), 0);
        assert_eq!(result.slots_used, 5);
        assert_eq!(result.unserved(), vec![0, 1]);
        assert_eq!(result.attempts_made, 10);
    }

    #[test]
    fn requests_measure_counts_multiplicity() {
        use crate::interference::IdentityInterference;
        let model = IdentityInterference::new(2);
        let reqs = requests(&[0, 0, 1]);
        assert_eq!(requests_measure(&model, &reqs), 2.0);
    }

    #[test]
    fn default_slots_needed_combines_f_and_g() {
        assert_eq!(EagerScheduler.slots_needed(10.0, 5), 11);
    }
}
