//! Physical-layer feasibility: which simultaneous transmission attempts
//! succeed.
//!
//! The dynamic protocol and all static algorithms are acknowledgment-based:
//! they only learn whether their own transmissions succeeded. A
//! [`Feasibility`] oracle is the ground truth deciding that, and it is kept
//! separate from the [`crate::interference::InterferenceModel`] used to
//! *design* schedules — substrates like SINR check the exact accumulated
//! interference of the attempts actually made, not the pairwise abstraction.
//!
//! Every oracle implements one slot method,
//! [`Feasibility::successes_into`], which writes the flags into a
//! caller-owned buffer; [`Feasibility::successes`] is a provided wrapper
//! returning an owned vector.
//!
//! This module provides generic oracles:
//!
//! * [`PerLinkFeasibility`] — an attempt succeeds iff it is alone on its link
//!   (packet-routing semantics: one packet per link per slot);
//! * [`SingleChannelFeasibility`] — exactly one attempt system-wide succeeds
//!   (the multiple-access channel);
//! * [`ThresholdFeasibility`] — an attempt succeeds iff the summed
//!   interference weight from all other attempts stays below a threshold
//!   (the generic "accumulative" physical layer matching a linear measure);
//! * [`LossyFeasibility`] — failure injection: drops successes with a fixed
//!   probability, the "unreliable network" extension sketched in Section 9;
//! * [`JammedFeasibility`] — failure injection with temporal structure: a
//!   periodic jammer over the oracle's calls.

use crate::ids::{LinkId, PacketId};
use crate::interference::InterferenceModel;
use rand::RngCore;

/// A transmission attempt: one packet trying to cross one link in the
/// current slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Attempt {
    /// The link to transmit on.
    pub link: LinkId,
    /// The packet being transmitted.
    pub packet: PacketId,
}

/// Decides which of a slot's simultaneous attempts succeed.
///
/// Implementations must be deterministic given the same attempts and RNG
/// state. The success flags are index-aligned with `attempts`.
pub trait Feasibility {
    /// Writes, for each attempt, whether it succeeded into `out` (cleared
    /// first), so hot loops (the frame protocol's slot loop) reuse one
    /// buffer across slots.
    fn successes_into(&self, attempts: &[Attempt], out: &mut Vec<bool>, rng: &mut dyn RngCore);

    /// Returns, for each attempt, whether it succeeded: a convenience
    /// wrapper around [`Feasibility::successes_into`] for call sites that
    /// prefer an owned vector.
    fn successes(&self, attempts: &[Attempt], rng: &mut dyn RngCore) -> Vec<bool> {
        let mut out = Vec::new();
        self.successes_into(attempts, &mut out, rng);
        out
    }
}

impl<F: Feasibility + ?Sized> Feasibility for &F {
    fn successes_into(&self, attempts: &[Attempt], out: &mut Vec<bool>, rng: &mut dyn RngCore) {
        (**self).successes_into(attempts, out, rng)
    }
}

impl<F: Feasibility + ?Sized> Feasibility for Box<F> {
    fn successes_into(&self, attempts: &[Attempt], out: &mut Vec<bool>, rng: &mut dyn RngCore) {
        (**self).successes_into(attempts, out, rng)
    }
}

impl<F: Feasibility + ?Sized> Feasibility for std::sync::Arc<F> {
    fn successes_into(&self, attempts: &[Attempt], out: &mut Vec<bool>, rng: &mut dyn RngCore) {
        (**self).successes_into(attempts, out, rng)
    }
}

/// One packet per link per slot; links never interfere.
///
/// This is the physical layer of a wireline packet-routing network
/// (`W = identity`).
#[derive(Clone, Copy, Debug)]
pub struct PerLinkFeasibility {
    num_links: usize,
}

impl PerLinkFeasibility {
    /// Creates the oracle over `num_links` links.
    pub fn new(num_links: usize) -> Self {
        PerLinkFeasibility { num_links }
    }
}

thread_local! {
    /// Per-thread scratch of packed `(link << 32) | position` keys for
    /// [`PerLinkFeasibility::successes_into`]: keeps the slot check
    /// allocation-free in steady state without an `O(m)` array.
    static KEY_SCRATCH: std::cell::RefCell<Vec<u64>> = const { std::cell::RefCell::new(Vec::new()) };
}

impl Feasibility for PerLinkFeasibility {
    // Sort one key per attempt, link in the high half and attempt
    // position in the low half, so equal links form runs; an attempt
    // succeeds iff its run has length one. O(k log k) per slot (linear on
    // the already-ascending attempts of the greedy run), independent of
    // the network size m, and allocation-free in steady state.
    fn successes_into(&self, attempts: &[Attempt], out: &mut Vec<bool>, _rng: &mut dyn RngCore) {
        assert!(
            u32::try_from(attempts.len()).is_ok(),
            "attempt positions must fit in the low key half"
        );
        out.clear();
        out.resize(attempts.len(), false);
        KEY_SCRATCH.with(|scratch| {
            let keys = &mut *scratch.borrow_mut();
            keys.clear();
            keys.extend(attempts.iter().enumerate().map(|(pos, a)| {
                debug_assert!(a.link.index() < self.num_links, "unknown link {:?}", a.link);
                (u64::from(a.link.0) << 32) | pos as u64
            }));
            keys.sort_unstable();
            for run in keys.chunk_by(|a, b| a >> 32 == b >> 32) {
                if let [key] = run {
                    out[*key as u32 as usize] = true;
                }
            }
        });
    }
}

/// The multiple-access channel: a slot is useful iff exactly one attempt is
/// made anywhere in the system.
#[derive(Clone, Copy, Debug, Default)]
pub struct SingleChannelFeasibility;

impl SingleChannelFeasibility {
    /// Creates the oracle.
    pub fn new() -> Self {
        SingleChannelFeasibility
    }
}

impl Feasibility for SingleChannelFeasibility {
    fn successes_into(&self, attempts: &[Attempt], out: &mut Vec<bool>, _rng: &mut dyn RngCore) {
        out.clear();
        out.resize(attempts.len(), attempts.len() == 1);
    }
}

/// Accumulative interference: an attempt on `e` succeeds iff no other packet
/// shares `e` and `Σ_{e' attempting} W[e][e']·(multiplicity) < threshold`.
///
/// With `W` an affectance matrix and threshold 1 this is exactly the SINR
/// success criterion; with a 0/1 conflict matrix and threshold 1 it is
/// independent-set feasibility.
#[derive(Clone, Debug)]
pub struct ThresholdFeasibility<M> {
    model: M,
    threshold: f64,
}

impl<M: InterferenceModel> ThresholdFeasibility<M> {
    /// Creates the oracle with the standard threshold 1.
    pub fn new(model: M) -> Self {
        Self::with_threshold(model, 1.0)
    }

    /// Creates the oracle with a custom interference budget.
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is not positive and finite.
    pub fn with_threshold(model: M, threshold: f64) -> Self {
        assert!(
            threshold > 0.0 && threshold.is_finite(),
            "threshold must be positive and finite, got {threshold}"
        );
        ThresholdFeasibility { model, threshold }
    }

    /// The wrapped interference model.
    pub fn model(&self) -> &M {
        &self.model
    }
}

impl<M: InterferenceModel> Feasibility for ThresholdFeasibility<M> {
    fn successes_into(&self, attempts: &[Attempt], out: &mut Vec<bool>, _rng: &mut dyn RngCore) {
        let mut mult = vec![0u32; self.model.num_links()];
        for a in attempts {
            mult[a.link.index()] += 1;
        }
        // Distinct links transmitting this slot, with multiplicities.
        let active: Vec<(LinkId, u32)> = {
            let mut links: Vec<LinkId> = attempts.iter().map(|a| a.link).collect();
            links.sort_unstable();
            links.dedup();
            links.into_iter().map(|l| (l, mult[l.index()])).collect()
        };
        out.clear();
        out.extend(attempts.iter().map(|a| {
            if mult[a.link.index()] != 1 {
                return false; // collision on the link itself
            }
            let interference: f64 = active
                .iter()
                .filter(|(l, _)| *l != a.link)
                .map(|(l, count)| self.model.weight(a.link, *l) * f64::from(*count))
                .sum();
            interference < self.threshold
        }));
    }
}

/// Failure injection: wraps another oracle and drops each success with
/// probability `loss`.
///
/// Models the "each transmission is lost with some probability even if
/// interference is small enough" extension from the paper's discussion
/// section; stability tests use it to confirm the protocol tolerates it at
/// proportionally reduced rate.
#[derive(Clone, Debug)]
pub struct LossyFeasibility<F> {
    inner: F,
    loss: f64,
}

impl<F: Feasibility> LossyFeasibility<F> {
    /// Wraps `inner`, dropping each success independently with probability
    /// `loss`.
    ///
    /// # Panics
    ///
    /// Panics if `loss` is outside `[0, 1)`.
    pub fn new(inner: F, loss: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&loss),
            "loss probability must be in [0, 1), got {loss}"
        );
        LossyFeasibility { inner, loss }
    }

    /// The wrapped oracle.
    pub fn inner(&self) -> &F {
        &self.inner
    }
}

impl<F: Feasibility> Feasibility for LossyFeasibility<F> {
    fn successes_into(&self, attempts: &[Attempt], out: &mut Vec<bool>, rng: &mut dyn RngCore) {
        use rand::Rng;
        self.inner.successes_into(attempts, out, rng);
        for s in out.iter_mut() {
            if *s && rng.gen::<f64>() < self.loss {
                *s = false;
            }
        }
    }
}

/// Failure injection with temporal structure: a periodic jammer that
/// blocks a set of links (or the whole network) for the first
/// `burst_len` calls of every `period`-call cycle.
///
/// Models the adversarial-jamming setting the paper's discussion section
/// points to ([7, 38]): the protocol cannot distinguish jamming from
/// interference, so a stable protocol must absorb the jammed slots at
/// correspondingly reduced rate.
///
/// The jammer has no slot clock: its cycle advances once per oracle call.
/// Callers query the oracle only on slots with attempts — the frame
/// protocol returns before the oracle on attempt-free slots, and the
/// event engine skips idle slots without stepping them — so the cycle
/// counts *busy* slots, and [`duty_cycle`](JammedFeasibility::duty_cycle)
/// is the jammed fraction of busy slots, not of all slots.
#[derive(Debug)]
pub struct JammedFeasibility<F> {
    inner: F,
    period: u64,
    burst_len: u64,
    /// Links the jammer targets; `None` means every link.
    targets: Option<Vec<LinkId>>,
    /// Oracle calls so far: the position in the jamming cycle.
    calls: std::sync::atomic::AtomicU64,
}

impl<F: Feasibility> JammedFeasibility<F> {
    /// Wraps `inner` with a jammer blocking all links during the first
    /// `burst_len` calls of every `period`-call cycle.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < burst_len < period`.
    pub fn new(inner: F, period: u64, burst_len: u64) -> Self {
        assert!(
            burst_len > 0 && burst_len < period,
            "need 0 < burst_len < period, got {burst_len}/{period}"
        );
        JammedFeasibility {
            inner,
            period,
            burst_len,
            targets: None,
            calls: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// Restricts the jammer to the given links.
    pub fn with_targets(mut self, targets: Vec<LinkId>) -> Self {
        self.targets = Some(targets);
        self
    }

    /// Fraction of oracle calls (busy slots) the jammer blocks.
    pub fn duty_cycle(&self) -> f64 {
        self.burst_len as f64 / self.period as f64
    }

    fn is_jammed(&self, call: u64, link: LinkId) -> bool {
        if call % self.period >= self.burst_len {
            return false;
        }
        match &self.targets {
            None => true,
            Some(targets) => targets.contains(&link),
        }
    }
}

impl<F: Feasibility> Feasibility for JammedFeasibility<F> {
    fn successes_into(&self, attempts: &[Attempt], out: &mut Vec<bool>, rng: &mut dyn RngCore) {
        let call = self
            .calls
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        self.inner.successes_into(attempts, out, rng);
        for (s, a) in out.iter_mut().zip(attempts) {
            if *s && self.is_jammed(call, a.link) {
                *s = false;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interference::{DenseInterference, IdentityInterference};
    use rand::SeedableRng;
    use rand_chacha::ChaCha12Rng;

    fn rng() -> ChaCha12Rng {
        ChaCha12Rng::seed_from_u64(7)
    }

    fn attempt(link: u32, packet: u64) -> Attempt {
        Attempt {
            link: LinkId(link),
            packet: PacketId(packet),
        }
    }

    #[test]
    fn per_link_allows_parallel_distinct_links() {
        let oracle = PerLinkFeasibility::new(3);
        let out = oracle.successes(&[attempt(0, 1), attempt(1, 2)], &mut rng());
        assert_eq!(out, vec![true, true]);
    }

    #[test]
    fn per_link_fails_same_link_collision() {
        let oracle = PerLinkFeasibility::new(3);
        let out = oracle.successes(&[attempt(0, 1), attempt(0, 2), attempt(1, 3)], &mut rng());
        assert_eq!(out, vec![false, false, true]);
    }

    #[test]
    fn per_link_successes_into_matches_successes() {
        let oracle = PerLinkFeasibility::new(5);
        let cases: Vec<(Vec<Attempt>, Vec<bool>)> = vec![
            (vec![], vec![]),
            (vec![attempt(0, 1)], vec![true]),
            (vec![attempt(0, 1), attempt(1, 2)], vec![true, true]),
            (
                vec![attempt(0, 1), attempt(0, 2), attempt(1, 3)],
                vec![false, false, true],
            ),
            (
                vec![attempt(4, 1), attempt(4, 2), attempt(4, 3)],
                vec![false, false, false],
            ),
            (
                vec![attempt(3, 1), attempt(1, 2), attempt(3, 3), attempt(0, 4)],
                vec![false, true, false, true],
            ),
        ];
        // One buffer across cases: stale flags must be cleared.
        let mut out = Vec::new();
        for (attempts, expected) in cases {
            oracle.successes_into(&attempts, &mut out, &mut rng());
            assert_eq!(out, expected, "{attempts:?}");
            assert_eq!(oracle.successes(&attempts, &mut rng()), expected);
        }
    }

    #[test]
    fn single_channel_requires_exactly_one() {
        let oracle = SingleChannelFeasibility::new();
        assert_eq!(oracle.successes(&[attempt(0, 1)], &mut rng()), vec![true]);
        assert_eq!(
            oracle.successes(&[attempt(0, 1), attempt(1, 2)], &mut rng()),
            vec![false, false]
        );
        assert_eq!(oracle.successes(&[], &mut rng()), Vec::<bool>::new());
    }

    #[test]
    fn threshold_accumulates_interference() {
        // Three links; 0 is disturbed 0.6 by each of 1 and 2.
        let model = DenseInterference::from_rows(
            3,
            vec![
                1.0, 0.6, 0.6, //
                0.0, 1.0, 0.0, //
                0.0, 0.0, 1.0,
            ],
        )
        .unwrap();
        let oracle = ThresholdFeasibility::new(model);
        // One interferer: 0.6 < 1, link 0 succeeds.
        let out = oracle.successes(&[attempt(0, 1), attempt(1, 2)], &mut rng());
        assert_eq!(out, vec![true, true]);
        // Two interferers: 1.2 >= 1, link 0 fails but 1 and 2 are clean.
        let out = oracle.successes(&[attempt(0, 1), attempt(1, 2), attempt(2, 3)], &mut rng());
        assert_eq!(out, vec![false, true, true]);
    }

    #[test]
    fn threshold_same_link_collision_fails_both() {
        let oracle = ThresholdFeasibility::new(IdentityInterference::new(2));
        let out = oracle.successes(&[attempt(0, 1), attempt(0, 2)], &mut rng());
        assert_eq!(out, vec![false, false]);
    }

    #[test]
    fn threshold_identity_is_per_link() {
        let oracle = ThresholdFeasibility::new(IdentityInterference::new(4));
        let attempts = [attempt(0, 1), attempt(1, 2), attempt(2, 3)];
        assert_eq!(
            oracle.successes(&attempts, &mut rng()),
            vec![true, true, true]
        );
    }

    #[test]
    fn lossy_zero_is_transparent() {
        let oracle = LossyFeasibility::new(PerLinkFeasibility::new(2), 0.0);
        let out = oracle.successes(&[attempt(0, 1)], &mut rng());
        assert_eq!(out, vec![true]);
    }

    #[test]
    fn lossy_drops_roughly_expected_fraction() {
        let oracle = LossyFeasibility::new(PerLinkFeasibility::new(1), 0.5);
        let mut r = rng();
        let mut kept = 0;
        let trials = 2000;
        for _ in 0..trials {
            if oracle.successes(&[attempt(0, 1)], &mut r)[0] {
                kept += 1;
            }
        }
        // Binomial(2000, 0.5): stays within ±5 sigma of 1000 essentially always.
        assert!((880..=1120).contains(&kept), "kept {kept} of {trials}");
    }

    #[test]
    #[should_panic(expected = "loss probability")]
    fn lossy_rejects_certain_loss() {
        let _ = LossyFeasibility::new(SingleChannelFeasibility::new(), 1.0);
    }

    #[test]
    fn jammer_blocks_burst_slots_only() {
        // Period 4, burst 2: slots 0, 1 jammed; 2, 3 clean.
        let oracle = JammedFeasibility::new(PerLinkFeasibility::new(2), 4, 2);
        let mut r = rng();
        let atts = [attempt(0, 1)];
        let pattern: Vec<bool> = (0..8).map(|_| oracle.successes(&atts, &mut r)[0]).collect();
        assert_eq!(
            pattern,
            vec![false, false, true, true, false, false, true, true]
        );
        assert_eq!(oracle.duty_cycle(), 0.5);
    }

    #[test]
    fn targeted_jammer_spares_other_links() {
        let oracle =
            JammedFeasibility::new(PerLinkFeasibility::new(2), 4, 2).with_targets(vec![LinkId(0)]);
        let mut r = rng();
        // Slot 0 (jammed window): link 0 blocked, link 1 fine.
        let out = oracle.successes(&[attempt(0, 1), attempt(1, 2)], &mut r);
        assert_eq!(out, vec![false, true]);
    }

    #[test]
    fn jammer_cycle_advances_per_call_not_per_slot() {
        use crate::dynamic::{DynamicProtocol, FrameConfig};
        use crate::packet::Packet;
        use crate::path::RoutePath;
        use crate::protocol::{Protocol, SlotOutcome};
        use crate::staticsched::greedy::GreedyPerLink;

        // Period 4, burst 2: the first two oracle calls are jammed, the
        // next two are clean. The frame protocol (4-slot frames, 2 main
        // slots, 1 clean-up slot) skips the oracle on slots without
        // attempts; those slots must not advance the cycle.
        let oracle = JammedFeasibility::new(PerLinkFeasibility::new(1), 4, 2);
        let config = FrameConfig {
            m: 1,
            lambda: 0.5,
            epsilon: 0.5,
            frame_len: 4,
            j_bound: 4.0,
            main_budget: 2,
            cleanup_budget: 1,
            cleanup_select_prob: 1.0,
            cleanup_bound: 1.0,
        };
        let mut protocol = DynamicProtocol::new(GreedyPerLink::new(), config, 1);
        let mut r = rng();
        let packet = Packet::new(PacketId(0), RoutePath::single_hop(LinkId(0)).shared(), 0);
        let mut out = SlotOutcome::empty();
        let mut busy = Vec::new();
        let mut arrivals = vec![packet];
        let mut slot = 0;
        while slot == 0 || protocol.backlog() > 0 {
            protocol.step(slot, &arrivals, &oracle, &mut r, &mut out);
            arrivals.clear();
            if out.attempts > 0 {
                busy.push((slot, out.successes));
            }
            slot += 1;
            assert!(slot < 1000, "packet never delivered");
        }
        let calls = oracle.calls.load(std::sync::atomic::Ordering::Relaxed);
        assert_eq!(calls, busy.len() as u64, "one call per busy slot");
        assert!(slot > calls, "some slots made no call");
        // Jammed on its first two calls, delivered on the third.
        let successes: Vec<usize> = busy.iter().map(|&(_, s)| s).collect();
        assert_eq!(successes, vec![0, 0, 1], "busy slots {busy:?}");
    }

    #[test]
    #[should_panic(expected = "burst_len")]
    fn jammer_rejects_full_duty_cycle() {
        let _ = JammedFeasibility::new(SingleChannelFeasibility::new(), 4, 4);
    }

    #[test]
    #[should_panic(expected = "threshold")]
    fn threshold_rejects_nonpositive() {
        let _ = ThresholdFeasibility::with_threshold(IdentityInterference::new(1), 0.0);
    }
}
