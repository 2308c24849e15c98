//! A deterministic greedy-coloring scheduler: the classical centralized
//! baseline the randomized distributed algorithms are compared against in
//! experiment E9.
//!
//! Requests are colored greedily along the witness ordering; all requests
//! of one color form an independent set and are transmitted in one slot.
//! The number of colors — and hence the schedule length — is at most
//! `ρ·I` for a graph of inductive independence `ρ` (each request sees at
//! most `ρ` earlier-ordered conflicting *classes* per unit of measure,
//! plus its own link's congestion).

use crate::graph::ConflictGraph;
use dps_core::staticsched::{Request, StaticAlgorithm, StaticScheduler};
use rand::RngCore;
use std::sync::Arc;

/// Greedy coloring along a fixed ordering of the links.
#[derive(Clone, Debug)]
pub struct GreedyColoringScheduler {
    graph: Arc<ConflictGraph>,
    /// position[link] = rank in the coloring order.
    position: Vec<usize>,
}

impl GreedyColoringScheduler {
    /// Creates the scheduler coloring along `pi` (position → link).
    ///
    /// # Panics
    ///
    /// Panics if `pi` is not a permutation of the graph's links.
    pub fn new(graph: ConflictGraph, pi: &[dps_core::ids::LinkId]) -> Self {
        assert_eq!(
            pi.len(),
            graph.num_links(),
            "ordering must cover every link"
        );
        let mut position = vec![usize::MAX; graph.num_links()];
        for (pos, &link) in pi.iter().enumerate() {
            assert!(
                position[link.index()] == usize::MAX,
                "ordering repeats link {link}"
            );
            position[link.index()] = pos;
        }
        GreedyColoringScheduler {
            graph: Arc::new(graph),
            position,
        }
    }

    /// Colors the requests; returns per-request colors (slot indices).
    pub fn color(&self, requests: &[Request]) -> Vec<usize> {
        let mut order: Vec<usize> = (0..requests.len()).collect();
        order.sort_by_key(|&i| self.position[requests[i].link.index()]);
        let mut colors = vec![usize::MAX; requests.len()];
        for &i in &order {
            // Forbidden: colors of already-colored requests on the same
            // link or on conflicting links.
            let mut used: Vec<bool> = Vec::new();
            for (j, &c) in colors.iter().enumerate() {
                if c == usize::MAX {
                    continue;
                }
                let same_link = requests[j].link == requests[i].link;
                if same_link || self.graph.conflicts(requests[j].link, requests[i].link) {
                    if c >= used.len() {
                        used.resize(c + 1, false);
                    }
                    used[c] = true;
                }
            }
            colors[i] = used.iter().position(|&u| !u).unwrap_or(used.len());
        }
        colors
    }
}

impl StaticScheduler for GreedyColoringScheduler {
    fn instantiate(
        &self,
        requests: &[Request],
        _measure_bound: f64,
        _rng: &mut dyn RngCore,
    ) -> Box<dyn StaticAlgorithm> {
        let colors = self.color(requests);
        let num_colors = colors.iter().copied().max().map_or(0, |c| c + 1);
        let mut plan: Vec<Vec<usize>> = vec![Vec::new(); num_colors];
        for (i, &c) in colors.iter().enumerate() {
            plan[c].push(i);
        }
        Box::new(ColoringRun {
            plan,
            cursor: 0,
            pending: vec![true; requests.len()],
            remaining: requests.len(),
        })
    }

    fn f_of(&self, _n: usize) -> f64 {
        // Greedy along a ρ-witnessing order uses at most ~ρ·I + I colors;
        // experiments report the realized value.
        2.0
    }

    fn g_of(&self, _n: usize) -> f64 {
        1.0
    }

    fn name(&self) -> &str {
        "greedy-coloring"
    }
}

struct ColoringRun {
    plan: Vec<Vec<usize>>,
    cursor: usize,
    pending: Vec<bool>,
    remaining: usize,
}

impl StaticAlgorithm for ColoringRun {
    fn attempts_into(&mut self, _rng: &mut dyn RngCore, out: &mut Vec<usize>) {
        out.clear();
        if self.cursor >= self.plan.len() {
            return;
        }
        let slot = self.cursor;
        self.cursor += 1;
        out.extend(self.plan[slot].iter().copied().filter(|&i| self.pending[i]));
    }

    fn ack(&mut self, idx: usize) {
        if std::mem::replace(&mut self.pending[idx], false) {
            self.remaining -= 1;
        }
    }

    fn is_done(&self) -> bool {
        self.remaining == 0 || self.cursor >= self.plan.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feasibility::IndependentSetFeasibility;
    use dps_core::ids::{LinkId, PacketId};
    use dps_core::staticsched::run_static;
    use rand::SeedableRng;
    use rand_chacha::ChaCha12Rng;

    fn path3() -> ConflictGraph {
        let mut g = ConflictGraph::new(3);
        g.add_conflict(LinkId(0), LinkId(1));
        g.add_conflict(LinkId(1), LinkId(2));
        g
    }

    fn identity_ordering(m: usize) -> Vec<LinkId> {
        (0..m as u32).map(LinkId).collect()
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
    fn coloring_separates_conflicts() {
        let s = GreedyColoringScheduler::new(path3(), &identity_ordering(3));
        let reqs = requests(&[0, 1, 2]);
        let colors = s.color(&reqs);
        assert_ne!(colors[0], colors[1]);
        assert_ne!(colors[1], colors[2]);
        // 0 and 2 are independent: greedy reuses the color.
        assert_eq!(colors[0], colors[2]);
    }

    #[test]
    fn duplicate_link_requests_get_distinct_colors() {
        let s = GreedyColoringScheduler::new(ConflictGraph::new(1), &identity_ordering(1));
        let reqs = requests(&[0, 0, 0]);
        let mut colors = s.color(&reqs);
        colors.sort_unstable();
        assert_eq!(colors, vec![0, 1, 2]);
    }

    #[test]
    fn schedule_is_conflict_free_and_complete() {
        let graph = path3();
        let s = GreedyColoringScheduler::new(graph.clone(), &identity_ordering(3));
        let reqs = requests(&[0, 1, 2, 1, 0]);
        let oracle = IndependentSetFeasibility::new(graph);
        let mut rng = ChaCha12Rng::seed_from_u64(1);
        let result = run_static(&s, &reqs, 3.0, &oracle, 32, &mut rng);
        assert!(result.all_served(), "deterministic plan must serve all");
    }

    #[test]
    fn empty_instance_finishes_immediately() {
        let s = GreedyColoringScheduler::new(path3(), &identity_ordering(3));
        let mut rng = ChaCha12Rng::seed_from_u64(1);
        let alg = s.instantiate(&[], 0.0, &mut rng);
        assert!(alg.is_done());
    }
}
