//! The trivial per-link algorithm for packet-routing networks
//! (`W = identity`): every link transmits one pending packet per slot.
//!
//! Under per-link feasibility this is deterministic and optimal — the
//! schedule length equals the congestion, i.e. exactly the interference
//! measure `I`. Plugged into the dynamic transformation it yields stable
//! protocols for every injection rate `λ < 1`, the classic
//! adversarial-queuing result the paper recovers as a special case.
//!
//! # Ordering contract
//!
//! Each slot's attempts are the front request of every link with pending
//! requests, in **ascending link order**; within a link, requests are
//! served **FIFO by request index**. The frame protocol hands these
//! indices to the feasibility oracle in exactly this order, so the order
//! fixes which RNG draws a lossy or jammed oracle spends on which packet —
//! the golden frame fingerprint and the benchmark fingerprints depend on
//! it, and the BTreeMap-of-queues referee in `prop_core.rs` pins it.

use crate::staticsched::{Request, StaticAlgorithm, StaticScheduler};
use rand::RngCore;

/// Factory for the greedy one-packet-per-link-per-slot algorithm.
///
/// [`StaticScheduler::instantiate`] counting-sorts the request indices by
/// link into one CSR array (a stable scatter, so FIFO order survives
/// within each link) plus the ascending list of occupied links: `O(n +
/// max link id)` with no per-link allocation. A slot then costs
/// `O(occupied links)` and an acknowledgement `O(1)`.
#[derive(Clone, Copy, Debug, Default)]
pub struct GreedyPerLink;

impl GreedyPerLink {
    /// Creates the scheduler.
    pub fn new() -> Self {
        GreedyPerLink
    }
}

impl StaticScheduler for GreedyPerLink {
    fn instantiate(
        &self,
        requests: &[Request],
        _measure_bound: f64,
        _rng: &mut dyn RngCore,
    ) -> Box<dyn StaticAlgorithm> {
        assert!(
            u32::try_from(requests.len()).is_ok(),
            "request indices must fit in u32"
        );
        let links: Vec<u32> = requests.iter().map(|r| r.link.0).collect();
        let span = links.iter().max().map_or(0, |&l| l as usize + 1);
        // Count per link, then turn the counts into each link's CSR range:
        // `head` is the range start, `end` doubles as the scatter cursor
        // and finishes at the range end.
        let mut end = vec![0u32; span];
        for &l in &links {
            end[l as usize] += 1;
        }
        let mut head = Vec::with_capacity(span);
        let mut occupied = Vec::new();
        let mut offset = 0u32;
        for (l, count) in end.iter_mut().enumerate() {
            if *count > 0 {
                occupied.push(l as u32);
            }
            let start = offset;
            head.push(start);
            offset += *count;
            *count = start;
        }
        let mut order = vec![0u32; links.len()];
        for (idx, &l) in links.iter().enumerate() {
            let cursor = &mut end[l as usize];
            order[*cursor as usize] = idx as u32;
            *cursor += 1;
        }
        Box::new(GreedyRun {
            order,
            head,
            end,
            occupied,
            links,
            remaining: requests.len(),
        })
    }

    fn f_of(&self, _n: usize) -> f64 {
        1.0
    }

    fn g_of(&self, _n: usize) -> f64 {
        0.0
    }

    fn name(&self) -> &str {
        "greedy-per-link"
    }
}

/// One greedy run: per-link FIFO queues laid out as one CSR array.
struct GreedyRun {
    /// Request indices grouped by link (ascending), FIFO within a link.
    order: Vec<u32>,
    /// Per link id: position in `order` of the link's next pending
    /// request.
    head: Vec<u32>,
    /// Per link id: end of the link's range in `order`; the link is
    /// drained once `head` reaches it.
    end: Vec<u32>,
    /// Links that had pending requests at the last
    /// [`StaticAlgorithm::attempts_into`], ascending; drained links are
    /// compacted out there.
    occupied: Vec<u32>,
    /// Link of each request index, for the O(1) acknowledgement.
    links: Vec<u32>,
    remaining: usize,
}

impl StaticAlgorithm for GreedyRun {
    fn attempts(&mut self, rng: &mut dyn RngCore) -> Vec<usize> {
        let mut out = Vec::new();
        self.attempts_into(rng, &mut out);
        out
    }

    fn attempts_into(&mut self, _rng: &mut dyn RngCore, out: &mut Vec<usize>) {
        out.clear();
        let mut kept = 0;
        for i in 0..self.occupied.len() {
            let l = self.occupied[i] as usize;
            let h = self.head[l];
            if h < self.end[l] {
                out.push(self.order[h as usize] as usize);
                self.occupied[kept] = l as u32;
                kept += 1;
            }
        }
        self.occupied.truncate(kept);
    }

    fn ack(&mut self, idx: usize) {
        let Some(&l) = self.links.get(idx) else {
            return;
        };
        let l = l as usize;
        let h = self.head[l];
        // Only the front of its link's queue can have been attempted; an
        // ack for any other request is ignored (the per-link oracle never
        // produces one).
        if h < self.end[l] && self.order[h as usize] as usize == idx {
            self.head[l] = h + 1;
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
    use crate::feasibility::PerLinkFeasibility;
    use crate::ids::{LinkId, PacketId};
    use crate::interference::IdentityInterference;
    use crate::rng::root_rng;
    use crate::staticsched::{requests_measure, run_static};

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
    fn schedule_length_equals_congestion() {
        // Link 0 carries 4 packets, link 1 carries 2: congestion 4.
        let reqs = requests(&[0, 0, 0, 0, 1, 1]);
        let model = IdentityInterference::new(2);
        let i = requests_measure(&model, &reqs);
        assert_eq!(i, 4.0);
        let feas = PerLinkFeasibility::new(2);
        let mut rng = root_rng(1);
        let result = run_static(&GreedyPerLink::new(), &reqs, i, &feas, 10, &mut rng);
        assert!(result.all_served());
        assert_eq!(result.slots_used, 4);
    }

    #[test]
    fn parallel_links_finish_together() {
        let reqs = requests(&[0, 1, 2, 3]);
        let feas = PerLinkFeasibility::new(4);
        let mut rng = root_rng(1);
        let result = run_static(&GreedyPerLink::new(), &reqs, 1.0, &feas, 10, &mut rng);
        assert!(result.all_served());
        assert_eq!(result.slots_used, 1);
    }

    #[test]
    fn fifo_order_within_a_link() {
        let reqs = requests(&[0, 0]);
        let feas = PerLinkFeasibility::new(1);
        let mut rng = root_rng(1);
        let result = run_static(&GreedyPerLink::new(), &reqs, 2.0, &feas, 10, &mut rng);
        assert_eq!(result.served_at[0], Some(0));
        assert_eq!(result.served_at[1], Some(1));
    }

    #[test]
    fn guarantee_is_exactly_linear() {
        let g = GreedyPerLink::new();
        assert_eq!(g.f_of(1_000_000), 1.0);
        assert_eq!(g.g_of(1_000_000), 0.0);
        assert_eq!(g.slots_needed(7.0, 100), 8);
    }

    #[test]
    fn empty_instance_is_done() {
        let mut rng = root_rng(1);
        let alg = GreedyPerLink::new().instantiate(&[], 0.0, &mut rng);
        assert!(alg.is_done());
    }
}
