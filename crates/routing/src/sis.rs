//! **Shortest-In-System (SIS)** — the classic greedy contention-resolution
//! policy from adversarial queuing theory (Andrews et al. \[3\], discussed
//! in the paper's related work): every link, every slot, forwards the
//! queued packet that was injected *earliest*.
//!
//! SIS is universally stable on packet-routing networks (`W = identity`)
//! for every injection rate `λ < 1` — no frames, no global clock, no
//! knowledge of `λ`. It is the natural baseline for the frame protocol of
//! Section 4 in the routing special case: same stability region, but
//! per-packet latency `O(d)` slots instead of `O(d·T)` (the frame
//! protocol pays its generality with the frame length `T`).

use dps_core::feasibility::{Attempt, Feasibility};
use dps_core::ids::LinkId;
use dps_core::packet::{DeliveredPacket, Packet};
use dps_core::protocol::{Protocol, SlotOutcome};
use rand::RngCore;

/// A packet in flight under SIS.
#[derive(Clone, Debug)]
struct InFlight {
    packet: Packet,
    hop: usize,
}

/// The Shortest-In-System protocol over `num_links` links.
///
/// Implements [`Protocol`]; intended for per-link feasibility (packet
/// routing). Under interference-limited oracles it still runs, but no
/// stability guarantee applies — which experiment E11 uses to contrast
/// the substrate-agnostic frame protocol.
#[derive(Clone, Debug)]
pub struct SisProtocol {
    queues: Vec<Vec<InFlight>>,
    backlog: usize,
    // Reusable per-slot buffers keeping the step loop allocation-free in
    // steady state.
    chosen_scratch: Vec<(usize, usize)>,
    attempt_scratch: Vec<Attempt>,
    success_scratch: Vec<bool>,
}

impl SisProtocol {
    /// Creates the protocol.
    pub fn new(num_links: usize) -> Self {
        SisProtocol {
            queues: vec![Vec::new(); num_links],
            backlog: 0,
            chosen_scratch: Vec::new(),
            attempt_scratch: Vec::new(),
            success_scratch: Vec::new(),
        }
    }

    /// Queue length at `link`.
    pub fn queue_len(&self, link: LinkId) -> usize {
        self.queues[link.index()].len()
    }

    fn enqueue(&mut self, inflight: InFlight) {
        let link = inflight
            .packet
            .hop_link(inflight.hop)
            .expect("in-flight packet has a next hop");
        self.queues[link.index()].push(inflight);
        self.backlog += 1;
    }

    /// Index of the oldest-injected packet in the queue of `link`.
    fn oldest(&self, link_idx: usize) -> Option<usize> {
        self.queues[link_idx]
            .iter()
            .enumerate()
            .min_by_key(|(_, inf)| (inf.packet.injected_at(), inf.packet.id()))
            .map(|(i, _)| i)
    }
}

impl Protocol for SisProtocol {
    fn step(
        &mut self,
        slot: u64,
        arrivals: &[Packet],
        phy: &dyn Feasibility,
        rng: &mut dyn RngCore,
        out: &mut SlotOutcome,
    ) {
        out.clear();
        for packet in arrivals {
            self.enqueue(InFlight {
                packet: packet.clone(),
                hop: 0,
            });
        }
        // Each non-empty link transmits its earliest-injected packet.
        self.chosen_scratch.clear();
        for link_idx in 0..self.queues.len() {
            if let Some(pos) = self.oldest(link_idx) {
                self.chosen_scratch.push((link_idx, pos));
            }
        }
        if self.chosen_scratch.is_empty() {
            return;
        }
        self.attempt_scratch.clear();
        {
            let queues = &self.queues;
            self.attempt_scratch
                .extend(self.chosen_scratch.iter().map(|&(link_idx, pos)| Attempt {
                    link: LinkId(link_idx as u32),
                    packet: queues[link_idx][pos].packet.id(),
                }));
        }
        out.attempts = self.attempt_scratch.len();
        phy.successes_into(&self.attempt_scratch, &mut self.success_scratch, rng);
        // Keep only winners, then remove them in descending position
        // order per queue so the stored positions stay valid.
        let mut keep = 0;
        for i in 0..self.chosen_scratch.len() {
            if self.success_scratch[i] {
                self.chosen_scratch[keep] = self.chosen_scratch[i];
                keep += 1;
            }
        }
        self.chosen_scratch.truncate(keep);
        self.chosen_scratch.sort_by(|a, b| b.cmp(a));
        let winners = std::mem::take(&mut self.chosen_scratch);
        for &(link_idx, pos) in &winners {
            out.successes += 1;
            let mut inflight = self.queues[link_idx].swap_remove(pos);
            self.backlog -= 1;
            inflight.hop += 1;
            if inflight.hop == inflight.packet.path_len() {
                out.delivered.push(DeliveredPacket {
                    id: inflight.packet.id(),
                    injected_at: inflight.packet.injected_at(),
                    delivered_at: slot,
                    path_len: inflight.packet.path_len(),
                });
            } else {
                self.enqueue(inflight);
            }
        }
        self.chosen_scratch = winners;
    }

    fn backlog(&self) -> usize {
        self.backlog
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::RoutingSetup;
    use dps_core::ids::PacketId;
    use dps_core::injection::batch::BatchStochasticInjector;
    use dps_core::injection::stochastic::uniform_generators;
    use dps_core::injection::Injector;
    use dps_core::rng::split_stream;

    fn drive(setup: &RoutingSetup, lambda: f64, slots: u64, seed: u64) -> (SisProtocol, u64, u64) {
        let mut protocol = SisProtocol::new(setup.network.num_links());
        let mut injector = BatchStochasticInjector::from(
            uniform_generators(setup.routes.clone(), 0.01)
                .unwrap()
                .scaled_to_rate(&setup.model, lambda)
                .unwrap(),
        );
        let mut rng = split_stream(seed, 0);
        let mut next_id = 0u64;
        let mut injected = 0u64;
        let mut delivered = 0u64;
        for slot in 0..slots {
            let arrivals: Vec<Packet> = injector
                .inject(slot, &mut rng)
                .into_iter()
                .map(|p| {
                    let pkt = Packet::new(PacketId(next_id), p, slot);
                    next_id += 1;
                    pkt
                })
                .collect();
            injected += arrivals.len() as u64;
            delivered += protocol
                .on_slot(slot, arrivals, &setup.feasibility, &mut rng)
                .delivered
                .len() as u64;
        }
        (protocol, injected, delivered)
    }

    #[test]
    fn sis_is_stable_at_high_rate() {
        let setup = RoutingSetup::ring(6, 2).unwrap();
        let (protocol, injected, delivered) = drive(&setup, 0.9, 20_000, 1);
        assert!(injected > 0);
        assert_eq!(delivered + protocol.backlog() as u64, injected);
        assert!(
            protocol.backlog() < 200,
            "SIS backlog {} should stay bounded at λ = 0.9",
            protocol.backlog()
        );
    }

    #[test]
    fn sis_diverges_beyond_capacity() {
        let setup = RoutingSetup::ring(4, 2).unwrap();
        let (protocol, injected, _) = drive(&setup, 1.4, 20_000, 2);
        assert!(
            protocol.backlog() as f64 > 0.1 * injected as f64,
            "backlog {} of {injected}",
            protocol.backlog()
        );
    }

    #[test]
    fn sis_latency_is_near_path_length() {
        // At low load SIS delivers a d-hop packet in ≈ d slots — no frame
        // overhead.
        let setup = RoutingSetup::line(6, 3).unwrap();
        let mut protocol = SisProtocol::new(6);
        let mut rng = split_stream(3, 0);
        let path = setup.routes[0].clone();
        let pkt = Packet::new(PacketId(0), path, 0);
        let mut delivered_at = None;
        for slot in 0..20 {
            let arrivals = if slot == 0 {
                vec![pkt.clone()]
            } else {
                Vec::new()
            };
            let out = protocol.on_slot(slot, arrivals, &setup.feasibility, &mut rng);
            if let Some(d) = out.delivered.first() {
                delivered_at = Some(d.delivered_at);
                break;
            }
        }
        assert_eq!(delivered_at, Some(2), "3 hops from slot 0 finish at slot 2");
    }

    #[test]
    fn sis_prefers_older_packets() {
        let setup = RoutingSetup::line(2, 1).unwrap();
        let mut protocol = SisProtocol::new(2);
        let mut rng = split_stream(4, 0);
        let route = setup.routes[0].clone();
        // Two packets on the same link, the second "injected" earlier.
        let late = Packet::new(PacketId(0), route.clone(), 10);
        let early = Packet::new(PacketId(1), route, 5);
        let out = protocol.on_slot(20, vec![late, early], &setup.feasibility, &mut rng);
        assert_eq!(out.delivered.len(), 1);
        assert_eq!(out.delivered[0].id, PacketId(1), "earliest-injected first");
    }
}
