//! The two protocols separated by Theorem 20 (Section 8) on the Figure 1
//! star instance.
//!
//! * [`GlobalClockStarProtocol`]: with a shared slot parity, short links
//!   transmit on even slots and the long link on odd slots; stable for
//!   every per-link injection rate `λ < 1/2`.
//! * [`LocalClockAlohaProtocol`]: an acknowledgment-based protocol without
//!   a global clock — every backlogged link simply transmits with a fixed
//!   probability `q`. Short links are fine (their transmissions always
//!   succeed), but the long link only gets through when *all* short links
//!   happen to be silent, which at short-link load `λ ≥ ln m / m` happens
//!   too rarely for stability. Theorem 20 proves no local-clock protocol
//!   can do better than `m/2·ln m`-competitive; this protocol exhibits the
//!   phenomenon concretely.

use crate::instances::StarInstance;
use dps_core::feasibility::{Attempt, Feasibility};
use dps_core::ids::LinkId;
use dps_core::packet::{DeliveredPacket, Packet};
use dps_core::protocol::{Protocol, SlotOutcome};
use rand::{Rng, RngCore};
use std::collections::VecDeque;

/// Per-link FIFO queues of single-hop packets — shared plumbing of both
/// star protocols.
#[derive(Clone, Debug)]
struct LinkQueues {
    queues: Vec<VecDeque<Packet>>,
    backlog: usize,
}

impl LinkQueues {
    fn new(num_links: usize) -> Self {
        LinkQueues {
            queues: vec![VecDeque::new(); num_links],
            backlog: 0,
        }
    }

    fn push(&mut self, packet: Packet) {
        let link = packet
            .hop_link(0)
            .expect("star protocols serve single-hop packets");
        self.queues[link.index()].push_back(packet);
        self.backlog += 1;
    }

    fn head(&self, link: LinkId) -> Option<&Packet> {
        self.queues[link.index()].front()
    }

    fn pop(&mut self, link: LinkId) -> Packet {
        self.backlog -= 1;
        self.queues[link.index()]
            .pop_front()
            .expect("pop only after head() is Some")
    }

    fn queue_len(&self, link: LinkId) -> usize {
        self.queues[link.index()].len()
    }
}

/// Even/odd slot split between short links and the long link — the
/// globally-clocked protocol that is stable for `λ < 1/2` on the star.
#[derive(Clone, Debug)]
pub struct GlobalClockStarProtocol {
    short_links: Vec<LinkId>,
    long_link: LinkId,
    queues: LinkQueues,
    transmitters: Vec<LinkId>,
    scratch: SlotScratch,
}

impl GlobalClockStarProtocol {
    /// Creates the protocol for the given star instance.
    pub fn new(star: &StarInstance) -> Self {
        GlobalClockStarProtocol {
            short_links: star.short_links.clone(),
            long_link: star.long_link,
            queues: LinkQueues::new(star.net.num_links()),
            transmitters: Vec::new(),
            scratch: SlotScratch::default(),
        }
    }

    /// Current queue length of the long link.
    pub fn long_queue_len(&self) -> usize {
        self.queues.queue_len(self.long_link)
    }
}

impl Protocol for GlobalClockStarProtocol {
    fn step(
        &mut self,
        slot: u64,
        arrivals: &[Packet],
        phy: &dyn Feasibility,
        rng: &mut dyn RngCore,
        out: &mut SlotOutcome,
    ) {
        for packet in arrivals {
            self.queues.push(packet.clone());
        }
        self.transmitters.clear();
        if slot.is_multiple_of(2) {
            self.transmitters.extend(
                self.short_links
                    .iter()
                    .copied()
                    .filter(|&l| self.queues.head(l).is_some()),
            );
        } else if self.queues.head(self.long_link).is_some() {
            self.transmitters.push(self.long_link);
        }
        transmit_heads(
            &mut self.queues,
            &self.transmitters,
            &mut self.scratch,
            slot,
            phy,
            rng,
            out,
        )
    }

    fn backlog(&self) -> usize {
        self.queues.backlog
    }
}

/// Backlogged links transmit with probability `q`, with no shared clock —
/// the acknowledgment-based local-clock protocol whose long link starves
/// (Theorem 20).
#[derive(Clone, Debug)]
pub struct LocalClockAlohaProtocol {
    links: Vec<LinkId>,
    long_link: LinkId,
    q: f64,
    queues: LinkQueues,
    transmitters: Vec<LinkId>,
    scratch: SlotScratch,
}

impl LocalClockAlohaProtocol {
    /// Creates the protocol with per-slot transmission probability `q`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < q <= 1`.
    pub fn new(star: &StarInstance, q: f64) -> Self {
        assert!(
            q > 0.0 && q <= 1.0,
            "transmission probability must be in (0, 1]"
        );
        let mut links = star.short_links.clone();
        links.push(star.long_link);
        LocalClockAlohaProtocol {
            links,
            long_link: star.long_link,
            q,
            queues: LinkQueues::new(star.net.num_links()),
            transmitters: Vec::new(),
            scratch: SlotScratch::default(),
        }
    }

    /// Current queue length of the long link — the quantity that grows
    /// without bound once the short links are loaded.
    pub fn long_queue_len(&self) -> usize {
        self.queues.queue_len(self.long_link)
    }
}

impl Protocol for LocalClockAlohaProtocol {
    fn step(
        &mut self,
        slot: u64,
        arrivals: &[Packet],
        phy: &dyn Feasibility,
        rng: &mut dyn RngCore,
        out: &mut SlotOutcome,
    ) {
        for packet in arrivals {
            self.queues.push(packet.clone());
        }
        self.transmitters.clear();
        {
            let queues = &self.queues;
            let q = self.q;
            self.transmitters.extend(
                self.links
                    .iter()
                    .copied()
                    .filter(|&l| queues.head(l).is_some() && rng.gen::<f64>() < q),
            );
        }
        transmit_heads(
            &mut self.queues,
            &self.transmitters,
            &mut self.scratch,
            slot,
            phy,
            rng,
            out,
        )
    }

    fn backlog(&self) -> usize {
        self.queues.backlog
    }
}

/// Reusable per-slot attempt/success buffers, so the star protocols'
/// step path stays allocation-free in steady state.
#[derive(Clone, Debug, Default)]
struct SlotScratch {
    attempts: Vec<Attempt>,
    successes: Vec<bool>,
}

/// Transmits the head packet of each listed link and applies the oracle,
/// recording everything into `out` (cleared first).
fn transmit_heads(
    queues: &mut LinkQueues,
    transmitters: &[LinkId],
    scratch: &mut SlotScratch,
    slot: u64,
    phy: &dyn Feasibility,
    rng: &mut dyn RngCore,
    out: &mut SlotOutcome,
) {
    out.clear();
    if transmitters.is_empty() {
        return;
    }
    scratch.attempts.clear();
    scratch
        .attempts
        .extend(transmitters.iter().map(|&link| Attempt {
            link,
            packet: queues.head(link).expect("transmitter has backlog").id(),
        }));
    out.attempts = scratch.attempts.len();
    phy.successes_into(&scratch.attempts, &mut scratch.successes, rng);
    for (&link, &ok) in transmitters.iter().zip(&scratch.successes) {
        if !ok {
            continue;
        }
        out.successes += 1;
        let packet = queues.pop(link);
        out.delivered.push(DeliveredPacket {
            id: packet.id(),
            injected_at: packet.injected_at(),
            delivered_at: slot,
            path_len: 1,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feasibility::SinrFeasibility;
    use crate::instances::star_instance;
    use crate::power::UniformPower;
    use dps_core::ids::PacketId;
    use dps_core::injection::batch::BatchStochasticInjector;
    use dps_core::injection::stochastic::uniform_generators;
    use dps_core::injection::Injector;
    use dps_core::path::RoutePath;
    use rand::SeedableRng;
    use rand_chacha::ChaCha12Rng;

    fn run_star<P: Protocol>(
        protocol: &mut P,
        star: &StarInstance,
        lambda: f64,
        slots: u64,
        seed: u64,
    ) -> (u64, u64) {
        let oracle = SinrFeasibility::new(&star.net, &UniformPower::unit());
        let routes: Vec<_> = star
            .short_links
            .iter()
            .chain(std::iter::once(&star.long_link))
            .map(|&l| RoutePath::single_hop(l).shared())
            .collect();
        let mut injector =
            BatchStochasticInjector::from(uniform_generators(routes, lambda).unwrap());
        let mut rng = ChaCha12Rng::seed_from_u64(seed);
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
                .on_slot(slot, arrivals, &oracle, &mut rng)
                .delivered
                .len() as u64;
        }
        (injected, delivered)
    }

    #[test]
    fn global_clock_is_stable_below_half() {
        let star = star_instance(16);
        let mut protocol = GlobalClockStarProtocol::new(&star);
        let (injected, delivered) = run_star(&mut protocol, &star, 0.4, 20_000, 5);
        assert!(injected > 0);
        let backlog = protocol.backlog() as u64;
        assert_eq!(delivered + backlog, injected, "conservation");
        assert!(
            backlog < 200,
            "global-clock backlog {backlog} should stay bounded"
        );
        assert!(
            protocol.long_queue_len() < 100,
            "long-link queue {} should stay bounded",
            protocol.long_queue_len()
        );
    }

    #[test]
    fn local_clock_long_link_starves() {
        let star = star_instance(16);
        let lambda = 0.4;
        let mut protocol = LocalClockAlohaProtocol::new(&star, 0.8);
        let slots = 20_000;
        let (injected, _) = run_star(&mut protocol, &star, lambda, slots, 9);
        assert!(injected > 0);
        // Expected long-link arrivals: λ·slots = 8000. With 15 short links
        // each backlogged and transmitting w.p. 0.8, the long link almost
        // never sees a silent slot.
        let expected_arrivals = (lambda * slots as f64) as usize;
        assert!(
            protocol.long_queue_len() > expected_arrivals / 2,
            "long-link queue {} should grow linearly (expected ≈ {expected_arrivals})",
            protocol.long_queue_len()
        );
    }

    #[test]
    fn local_clock_short_links_are_fine() {
        let star = star_instance(16);
        let mut protocol = LocalClockAlohaProtocol::new(&star, 0.8);
        let (_, _) = run_star(&mut protocol, &star, 0.4, 20_000, 11);
        for &short in &star.short_links {
            assert!(
                protocol.queues.queue_len(short) < 100,
                "short link {short} queue should stay bounded"
            );
        }
    }

    #[test]
    fn global_clock_overload_grows_backlog() {
        // At λ > 1/2 even the global-clock protocol must diverge on shorts.
        let star = star_instance(8);
        let mut protocol = GlobalClockStarProtocol::new(&star);
        let slots = 10_000;
        let (injected, delivered) = run_star(&mut protocol, &star, 0.8, slots, 13);
        let backlog = injected - delivered;
        assert!(
            backlog as f64 > 0.15 * injected as f64,
            "backlog {backlog} of {injected} should grow at λ = 0.8"
        );
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn aloha_rejects_zero_probability() {
        let star = star_instance(4);
        let _ = LocalClockAlohaProtocol::new(&star, 0.0);
    }
}
