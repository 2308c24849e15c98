//! The slot-level interface every dynamic protocol implements.
//!
//! A protocol is driven one slot at a time: it receives the packets
//! injected in that slot, may issue transmission attempts against the
//! physical layer (a [`crate::feasibility::Feasibility`] oracle), and
//! reports deliveries. The frame protocol of Section 4 implements this, and
//! so do the custom protocols of the lower-bound experiment (Section 8).
//!
//! Every protocol implements one slot method, [`Protocol::step`]:
//! arrivals are borrowed and the outcome is written into a caller-owned
//! [`SlotOutcome`], so a simulation's slot loop reuses two buffers for its
//! entire run and idle slots allocate nothing. [`Protocol::on_slot`] is a
//! provided wrapper taking and returning owned values.

use crate::feasibility::Feasibility;
use crate::ids::PacketId;
use crate::invariants::InvariantViolation;
use crate::packet::{DeliveredPacket, Packet};
use crate::route_table::{RouteId, RouteTable};
use rand::RngCore;

/// A slot arrival in interned form: the packet's route is a [`RouteId`]
/// against the protocol's own [`RouteTable`] instead of an
/// `Arc<RoutePath>`. The hot arrival lane of
/// [`Protocol::step_interned`] — injectors that pre-intern their routes
/// hand these over without touching any `Arc` reference count.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InternedArrival {
    /// The packet's identity.
    pub id: PacketId,
    /// The packet's route, interned in the protocol's table.
    pub route: RouteId,
    /// Slot the packet was injected at.
    pub injected_at: u64,
}

/// What happened during one slot of a protocol run.
#[derive(Clone, Debug, Default)]
pub struct SlotOutcome {
    /// Packets that reached their final destination this slot.
    pub delivered: Vec<DeliveredPacket>,
    /// Transmission attempts issued this slot.
    pub attempts: usize,
    /// Attempts that succeeded this slot.
    pub successes: usize,
}

impl SlotOutcome {
    /// An outcome with no activity.
    pub fn empty() -> Self {
        SlotOutcome::default()
    }

    /// Resets the outcome to no activity, retaining the delivered
    /// buffer's capacity — the reuse contract of [`Protocol::step`]:
    /// implementations call this first, so callers can hand the same
    /// outcome to every slot without clearing it between calls.
    pub fn clear(&mut self) {
        self.delivered.clear();
        self.attempts = 0;
        self.successes = 0;
    }
}

/// A dynamic packet-scheduling protocol, driven slot by slot.
pub trait Protocol {
    /// Advances the protocol by one slot, writing what happened into
    /// `out`.
    ///
    /// `arrivals` are the packets injected in this slot (already stamped
    /// with their injection time); `phy` decides which of the protocol's
    /// transmission attempts succeed. Implementations must be driven
    /// with consecutive slot numbers starting at 0.
    ///
    /// `out` is reset via [`SlotOutcome::clear`] before anything is
    /// recorded — callers reuse one outcome across slots and read it
    /// between calls; they never need to clear it themselves.
    fn step(
        &mut self,
        slot: u64,
        arrivals: &[Packet],
        phy: &dyn Feasibility,
        rng: &mut dyn RngCore,
        out: &mut SlotOutcome,
    );

    /// Advances the protocol by one slot, returning an owned outcome: a
    /// convenience wrapper around [`Protocol::step`] for call sites that
    /// prefer owned values over buffer reuse.
    fn on_slot(
        &mut self,
        slot: u64,
        arrivals: Vec<Packet>,
        phy: &dyn Feasibility,
        rng: &mut dyn RngCore,
    ) -> SlotOutcome {
        let mut out = SlotOutcome::empty();
        self.step(slot, &arrivals, phy, rng, &mut out);
        out
    }

    /// Number of packets currently in the system (injected, not yet
    /// delivered).
    fn backlog(&self) -> usize;

    /// The potential `Φ`: total remaining hops of all *failed* packets
    /// (Section 4.1). Protocols without a failure notion report zero.
    fn potential(&self) -> u64 {
        0
    }

    /// Event-engine hint: the earliest slot `> now` at which stepping
    /// this protocol *without arrivals* could do anything observable —
    /// issue an attempt, consume RNG, deliver, or change any reported
    /// statistic. `None` (the conservative default) means "no idea":
    /// the engine then steps every slot.
    ///
    /// Contract for `Some(s)`: given that no packet arrives in
    /// `now+1..s`, every slot in that open range is *inert* — stepping
    /// it would neither consume RNG nor change `backlog()`,
    /// `potential()`, or any outcome. Such slots may be replaced by one
    /// [`skip_idle_slots`](Protocol::skip_idle_slots) call. `s` itself
    /// is only a candidate (false positives allowed); the query must
    /// not consume RNG or mutate state.
    fn next_event_slot(&self, _now: u64) -> Option<u64> {
        None
    }

    /// Advances internal bookkeeping across `count` slots starting at
    /// `from`, all of which the caller knows to be inert (declared so
    /// by [`next_event_slot`](Protocol::next_event_slot) and free of
    /// arrivals). After the call the protocol must be in exactly the
    /// state that `count` empty [`step`](Protocol::step) calls would
    /// have produced, without consuming RNG. The default is a no-op,
    /// correct for stateless-per-slot protocols; frame protocols
    /// override it to advance their frame phase.
    fn skip_idle_slots(&mut self, _from: u64, _count: u64) {}

    /// Verifies the protocol's internal bookkeeping invariants (packet
    /// conservation, the store/free-list partition, potential
    /// accounting — see [`crate::invariants`]).
    ///
    /// Called between slots by the simulation runner when the
    /// `check-invariants` cargo feature is enabled, and by the
    /// exhaustive model checker on every reachable state. Must not
    /// mutate state or consume RNG. The default reports no violation —
    /// correct for protocols without checkable internal structure.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    fn check_invariants(&self) -> Result<(), InvariantViolation> {
        Ok(())
    }

    /// The protocol's route interner, when it keys packets by
    /// [`RouteId`] internally. Returning `Some` (paired with an
    /// injector whose `Injector::interned_capable` is true) lets the
    /// simulation runner use [`step_interned`](Protocol::step_interned)
    /// and skip the per-packet `Arc` boundary entirely. The default
    /// `None` keeps the classic [`Packet`] lane.
    fn route_interner(&mut self) -> Option<&mut RouteTable> {
        None
    }

    /// Advances the protocol by one slot with pre-interned arrivals.
    ///
    /// Semantically identical to [`step`](Protocol::step) — same
    /// decisions, same RNG consumption, same outcome — given that each
    /// [`InternedArrival`] names the same packets a [`Packet`] slice
    /// would have, with routes interned in *this* protocol's table
    /// (obtained via [`route_interner`](Protocol::route_interner)).
    ///
    /// Only callable when `route_interner` returns `Some`; the default
    /// panics, so callers must gate on that (the simulation runner
    /// does).
    fn step_interned(
        &mut self,
        _slot: u64,
        _arrivals: &[InternedArrival],
        _phy: &dyn Feasibility,
        _rng: &mut dyn RngCore,
        _out: &mut SlotOutcome,
    ) {
        unimplemented!("step_interned requires a protocol exposing route_interner()")
    }
}

impl<P: Protocol + ?Sized> Protocol for Box<P> {
    fn step(
        &mut self,
        slot: u64,
        arrivals: &[Packet],
        phy: &dyn Feasibility,
        rng: &mut dyn RngCore,
        out: &mut SlotOutcome,
    ) {
        (**self).step(slot, arrivals, phy, rng, out)
    }

    fn backlog(&self) -> usize {
        (**self).backlog()
    }

    fn potential(&self) -> u64 {
        (**self).potential()
    }

    fn next_event_slot(&self, now: u64) -> Option<u64> {
        (**self).next_event_slot(now)
    }

    fn skip_idle_slots(&mut self, from: u64, count: u64) {
        (**self).skip_idle_slots(from, count)
    }

    fn route_interner(&mut self) -> Option<&mut RouteTable> {
        (**self).route_interner()
    }

    fn check_invariants(&self) -> Result<(), InvariantViolation> {
        (**self).check_invariants()
    }

    fn step_interned(
        &mut self,
        slot: u64,
        arrivals: &[InternedArrival],
        phy: &dyn Feasibility,
        rng: &mut dyn RngCore,
        out: &mut SlotOutcome,
    ) {
        (**self).step_interned(slot, arrivals, phy, rng, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feasibility::PerLinkFeasibility;
    use crate::ids::{LinkId, PacketId};
    use crate::path::RoutePath;
    use crate::rng::root_rng;

    #[test]
    fn empty_outcome_has_no_activity() {
        let o = SlotOutcome::empty();
        assert!(o.delivered.is_empty());
        assert_eq!(o.attempts, 0);
        assert_eq!(o.successes, 0);
    }

    #[test]
    fn clear_resets_and_keeps_capacity() {
        let mut o = SlotOutcome::empty();
        o.delivered.push(DeliveredPacket {
            id: PacketId(1),
            injected_at: 0,
            delivered_at: 3,
            path_len: 1,
        });
        o.attempts = 5;
        o.successes = 2;
        let cap = o.delivered.capacity();
        o.clear();
        assert!(o.delivered.is_empty());
        assert_eq!(o.attempts, 0);
        assert_eq!(o.successes, 0);
        assert_eq!(o.delivered.capacity(), cap);
    }

    /// A protocol implementing only `step`: instantly delivers every
    /// arrival.
    struct Sink {
        seen: usize,
    }

    impl Protocol for Sink {
        fn step(
            &mut self,
            slot: u64,
            arrivals: &[Packet],
            _phy: &dyn Feasibility,
            _rng: &mut dyn RngCore,
            out: &mut SlotOutcome,
        ) {
            out.clear();
            out.delivered
                .extend(arrivals.iter().map(|p| DeliveredPacket {
                    id: p.id(),
                    injected_at: p.injected_at(),
                    delivered_at: slot,
                    path_len: p.path_len(),
                }));
            out.attempts = arrivals.len();
            out.successes = arrivals.len();
            self.seen += arrivals.len();
        }

        fn backlog(&self) -> usize {
            0
        }
    }

    #[test]
    fn on_slot_shim_drives_step_only_protocols_and_step_clears_stale_state() {
        let mut p = Sink { seen: 0 };
        let phy = PerLinkFeasibility::new(1);
        let mut rng = root_rng(1);
        let packet = Packet::new(PacketId(9), RoutePath::single_hop(LinkId(0)).shared(), 4);
        let owned = p.on_slot(5, vec![packet], &phy, &mut rng);
        assert_eq!(owned.delivered.len(), 1);
        assert_eq!(owned.delivered[0].id, PacketId(9));
        assert_eq!(owned.delivered[0].delivered_at, 5);
        assert_eq!(owned.attempts, 1);
        assert_eq!(p.seen, 1);
        // Pre-dirty the outcome: an idle step must leave it clean.
        let mut out = owned;
        out.attempts = 99;
        p.step(6, &[], &phy, &mut rng, &mut out);
        assert!(out.delivered.is_empty());
        assert_eq!(out.attempts, 0);
    }
}
