//! Feasibility in conflict-graph models: a slot's transmissions succeed
//! iff the transmitting links form an independent set (and each link
//! carries at most one packet).
//!
//! Failures are local: a transmission fails iff *it* conflicts with some
//! other transmitting link; non-conflicting transmissions in the same slot
//! still succeed.

use crate::graph::ConflictGraph;
use dps_core::feasibility::{Attempt, Feasibility};
use rand::RngCore;
use std::sync::Arc;

/// Independent-set feasibility over a conflict graph.
#[derive(Clone, Debug)]
pub struct IndependentSetFeasibility {
    graph: Arc<ConflictGraph>,
}

impl IndependentSetFeasibility {
    /// Creates the oracle.
    pub fn new(graph: ConflictGraph) -> Self {
        IndependentSetFeasibility {
            graph: Arc::new(graph),
        }
    }

    /// Shares an existing graph.
    pub fn from_shared(graph: Arc<ConflictGraph>) -> Self {
        IndependentSetFeasibility { graph }
    }

    /// The underlying conflict graph.
    pub fn graph(&self) -> &ConflictGraph {
        &self.graph
    }
}

impl Feasibility for IndependentSetFeasibility {
    fn successes_into(&self, attempts: &[Attempt], out: &mut Vec<bool>, _rng: &mut dyn RngCore) {
        let mut mult = vec![0u32; self.graph.num_links()];
        for a in attempts {
            mult[a.link.index()] += 1;
        }
        let active: Vec<usize> = mult
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, _)| i)
            .collect();
        out.clear();
        out.extend(attempts.iter().map(|a| {
            if mult[a.link.index()] != 1 {
                return false;
            }
            active.iter().all(|&other| {
                other == a.link.index()
                    || !self
                        .graph
                        .conflicts(a.link, dps_core::ids::LinkId(other as u32))
            })
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dps_core::ids::{LinkId, PacketId};
    use rand::SeedableRng;
    use rand_chacha::ChaCha12Rng;

    fn attempt(link: u32, packet: u64) -> Attempt {
        Attempt {
            link: LinkId(link),
            packet: PacketId(packet),
        }
    }

    fn path3() -> IndependentSetFeasibility {
        let mut g = ConflictGraph::new(3);
        g.add_conflict(LinkId(0), LinkId(1));
        g.add_conflict(LinkId(1), LinkId(2));
        IndependentSetFeasibility::new(g)
    }

    #[test]
    fn independent_transmissions_succeed() {
        let oracle = path3();
        let mut rng = ChaCha12Rng::seed_from_u64(1);
        let res = oracle.successes(&[attempt(0, 1), attempt(2, 2)], &mut rng);
        assert_eq!(res, vec![true, true]);
    }

    #[test]
    fn conflicting_transmissions_both_fail() {
        let oracle = path3();
        let mut rng = ChaCha12Rng::seed_from_u64(1);
        let res = oracle.successes(&[attempt(0, 1), attempt(1, 2)], &mut rng);
        assert_eq!(res, vec![false, false]);
    }

    #[test]
    fn failure_is_local_to_the_conflict() {
        // 0-1 conflict while 2 only conflicts with 1: when 0 and 1 collide,
        // 2 fails too (it conflicts with transmitting 1)… unless it doesn't
        // conflict: rebuild with only the 0-1 edge.
        let mut g = ConflictGraph::new(3);
        g.add_conflict(LinkId(0), LinkId(1));
        let oracle = IndependentSetFeasibility::new(g);
        let mut rng = ChaCha12Rng::seed_from_u64(1);
        let res = oracle.successes(&[attempt(0, 1), attempt(1, 2), attempt(2, 3)], &mut rng);
        assert_eq!(res, vec![false, false, true]);
    }

    #[test]
    fn same_link_collision_fails() {
        let oracle = path3();
        let mut rng = ChaCha12Rng::seed_from_u64(1);
        let res = oracle.successes(&[attempt(0, 1), attempt(0, 2)], &mut rng);
        assert_eq!(res, vec![false, false]);
    }
}
