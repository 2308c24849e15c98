//! **Round-Robin-Withholding** (Lemma 17, following Chlebus et al. \[13\]):
//! the asymmetric multiple-access-channel algorithm.
//!
//! Stations (= links) have unique identifiers and can distinguish silence
//! from a successful transmission. Station 0 transmits its packets one per
//! slot; the first silent slot signals station 1 to start, and so on.
//! `n` packets across `m` stations finish in exactly `n + m` slots —
//! deterministically — which through the dynamic transformation yields a
//! stable protocol for every injection rate `λ < 1` (Corollary 18).

use dps_core::ids::LinkId;
use dps_core::staticsched::{Request, StaticAlgorithm, StaticScheduler};
use rand::RngCore;
use std::collections::BTreeMap;
use std::collections::VecDeque;

/// Factory for Round-Robin-Withholding over `m` stations.
#[derive(Clone, Copy, Debug)]
pub struct RoundRobinWithholding {
    num_stations: usize,
}

impl RoundRobinWithholding {
    /// Creates the scheduler for a channel shared by `num_stations`
    /// stations.
    ///
    /// # Panics
    ///
    /// Panics if `num_stations == 0`.
    pub fn new(num_stations: usize) -> Self {
        assert!(num_stations > 0, "need at least one station");
        RoundRobinWithholding { num_stations }
    }
}

impl StaticScheduler for RoundRobinWithholding {
    fn instantiate(
        &self,
        requests: &[Request],
        _measure_bound: f64,
        _rng: &mut dyn RngCore,
    ) -> Box<dyn StaticAlgorithm> {
        let mut queues: BTreeMap<LinkId, VecDeque<usize>> = BTreeMap::new();
        for (idx, req) in requests.iter().enumerate() {
            queues.entry(req.link).or_default().push_back(idx);
        }
        Box::new(RoundRobinRun {
            stations: (0..self.num_stations as u32).map(LinkId).collect(),
            queues,
            current: 0,
            awaiting_silence: false,
            remaining: requests.len(),
        })
    }

    fn f_of(&self, _n: usize) -> f64 {
        1.0
    }

    fn g_of(&self, _n: usize) -> f64 {
        self.num_stations as f64
    }

    fn name(&self) -> &str {
        "round-robin-withholding"
    }
}

struct RoundRobinRun {
    stations: Vec<LinkId>,
    queues: BTreeMap<LinkId, VecDeque<usize>>,
    current: usize,
    /// True while the current station has drained and this slot is the
    /// silence signalling the next station.
    awaiting_silence: bool,
    remaining: usize,
}

impl StaticAlgorithm for RoundRobinRun {
    fn attempts_into(&mut self, _rng: &mut dyn RngCore, out: &mut Vec<usize>) {
        out.clear();
        if self.remaining == 0 || self.current >= self.stations.len() {
            return;
        }
        if self.awaiting_silence {
            // The silent slot: nobody transmits; the next station takes
            // over afterwards.
            self.awaiting_silence = false;
            self.current += 1;
            return;
        }
        let station = self.stations[self.current];
        match self.queues.get(&station).and_then(|q| q.front()) {
            Some(&idx) => out.push(idx),
            None => {
                // Station has nothing (or is done): its very first slot is
                // already silent; hand over immediately.
                self.current += 1;
            }
        }
    }

    fn ack(&mut self, idx: usize) {
        let station = self.stations[self.current];
        let queue = self.queues.get_mut(&station).expect("acked station exists");
        assert_eq!(queue.front(), Some(&idx), "ack must match the head packet");
        queue.pop_front();
        self.remaining -= 1;
        if queue.is_empty() {
            // Drained: the next slot stays silent to signal the handover.
            self.awaiting_silence = true;
        }
    }

    fn is_done(&self) -> bool {
        self.remaining == 0 || self.current >= self.stations.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dps_core::feasibility::SingleChannelFeasibility;
    use dps_core::ids::PacketId;
    use dps_core::rng::root_rng;
    use dps_core::staticsched::run_static;

    fn requests(stations: &[u32]) -> Vec<Request> {
        stations
            .iter()
            .enumerate()
            .map(|(i, &s)| Request {
                packet: PacketId(i as u64),
                link: LinkId(s),
            })
            .collect()
    }

    #[test]
    fn finishes_in_n_plus_m_slots() {
        let m = 4;
        let reqs = requests(&[0, 0, 1, 3, 3, 3]);
        let n = reqs.len();
        let scheduler = RoundRobinWithholding::new(m);
        let feas = SingleChannelFeasibility::new();
        let mut rng = root_rng(1);
        let result = run_static(&scheduler, &reqs, n as f64, &feas, n + m + 1, &mut rng);
        assert!(result.all_served());
        assert!(
            result.slots_used <= n + m,
            "used {} slots, bound is n + m = {}",
            result.slots_used,
            n + m
        );
    }

    #[test]
    fn is_deterministic() {
        let reqs = requests(&[0, 1, 2]);
        let scheduler = RoundRobinWithholding::new(3);
        let feas = SingleChannelFeasibility::new();
        let mut r1 = root_rng(1);
        let mut r2 = root_rng(999);
        let a = run_static(&scheduler, &reqs, 3.0, &feas, 10, &mut r1);
        let b = run_static(&scheduler, &reqs, 3.0, &feas, 10, &mut r2);
        assert_eq!(a.served_at, b.served_at, "schedule must not depend on rng");
    }

    #[test]
    fn stations_transmit_in_id_order() {
        let reqs = requests(&[2, 0]);
        let scheduler = RoundRobinWithholding::new(3);
        let feas = SingleChannelFeasibility::new();
        let mut rng = root_rng(1);
        let result = run_static(&scheduler, &reqs, 2.0, &feas, 10, &mut rng);
        // Station 0's packet (request index 1) goes first.
        assert!(result.served_at[1].unwrap() < result.served_at[0].unwrap());
    }

    #[test]
    fn empty_stations_cost_one_slot_each() {
        // Only station 3 has packets: 3 silent handover slots first.
        let reqs = requests(&[3]);
        let scheduler = RoundRobinWithholding::new(4);
        let feas = SingleChannelFeasibility::new();
        let mut rng = root_rng(1);
        let result = run_static(&scheduler, &reqs, 1.0, &feas, 10, &mut rng);
        assert_eq!(result.served_at[0], Some(3));
    }

    #[test]
    fn empty_instance_is_done() {
        let scheduler = RoundRobinWithholding::new(2);
        let mut rng = root_rng(1);
        let alg = scheduler.instantiate(&[], 0.0, &mut rng);
        assert!(alg.is_done());
    }

    #[test]
    fn guarantee_is_linear_plus_m() {
        let s = RoundRobinWithholding::new(16);
        assert_eq!(s.f_of(1000), 1.0);
        assert_eq!(s.g_of(1000), 16.0);
        assert_eq!(s.slots_needed(100.0, 100), 117);
    }
}
