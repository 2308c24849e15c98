//! Packet injection models (Section 2.1 of the paper).
//!
//! Both models bound the *average interference measure* injected per slot:
//! if `F(e)` is the average number of packets whose route uses link `e`,
//! the injection rate is `λ = ‖W·F‖∞`.
//!
//! * [`stochastic`] — a finite set of independent generators, each injecting
//!   at most one packet per slot, identically distributed over time,
//!   sampled by [`batch`]'s engine;
//! * [`adversarial`] — `(w, λ)`-bounded window adversaries: in every
//!   interval of `w` slots the measure of all injected routes is at most
//!   `λ·w`.
//!
//! Every injector implements one slot method, [`Injector::inject_into`],
//! which writes the slot's routes into a caller-owned buffer;
//! [`Injector::inject`] is a provided wrapper returning an owned vector.

pub mod adversarial;
pub mod batch;
pub mod stochastic;

use crate::path::RoutePath;
use crate::route_table::{RouteId, RouteTable};
use rand::RngCore;
use std::sync::Arc;

/// A source of packet injections, queried once per slot.
pub trait Injector {
    /// Writes the routes of the packets injected at `slot` into `out`
    /// (cleared first), so the slot loop stays allocation-free on idle
    /// slots.
    ///
    /// Implementations must be driven with strictly increasing slot numbers;
    /// window adversaries rely on this to maintain their budget.
    fn inject_into(&mut self, slot: u64, rng: &mut dyn RngCore, out: &mut Vec<Arc<RoutePath>>);

    /// Routes of the packets injected at `slot`: a convenience wrapper
    /// around [`inject_into`](Injector::inject_into) for call sites that
    /// prefer an owned vector.
    fn inject(&mut self, slot: u64, rng: &mut dyn RngCore) -> Vec<Arc<RoutePath>> {
        let mut out = Vec::new();
        self.inject_into(slot, rng, &mut out);
        out
    }

    /// Event-engine hint: the earliest slot `≥ after` at which this
    /// injector might emit a packet, or `None` when the injector cannot
    /// tell (the conservative default — the engine then steps slot by
    /// slot).
    ///
    /// Contract for `Some(s)`:
    ///
    /// * no packet is emitted at any slot in `after..s` — those slots
    ///   may safely be skipped without querying `inject_into`;
    /// * `s` itself is only a *candidate*: the injector may stay silent
    ///   there (false positives are allowed, false negatives are not);
    /// * `Some(u64::MAX)` means "never again";
    /// * the call must consume no RNG once the injector has been driven
    ///   through at least one `inject_into` (lazily seeded calendars may
    ///   draw their gaps on a first-ever query), so that skipping is a
    ///   pure reindexing of the per-slot RNG stream.
    fn next_active_slot(&mut self, _after: u64, _rng: &mut dyn RngCore) -> Option<u64> {
        None
    }

    /// Whether [`inject_interned_into`](Injector::inject_interned_into)
    /// has a native, allocation-free implementation. The simulation
    /// runner only selects the route-id lane when this is `true` (and
    /// the protocol exposes an interner); the default `false` keeps
    /// wrappers and custom injectors on the `Arc` lane.
    fn interned_capable(&self) -> bool {
        false
    }

    /// Like [`inject_into`](Injector::inject_into), but emitting
    /// interned [`RouteId`]s (resolved against `table`) instead of
    /// cloning route `Arc`s — the hot arrival lane for protocols that
    /// own a [`RouteTable`].
    ///
    /// Must consume exactly the same RNG draws and emit the same routes
    /// in the same order as `inject_into` would have; interning order
    /// (and therefore id assignment) must match what interning the
    /// `Arc` stream in arrival order would produce. The default routes
    /// through `inject_into` and interns here, which satisfies the
    /// contract but allocates; native implementations cache ids.
    fn inject_interned_into(
        &mut self,
        slot: u64,
        rng: &mut dyn RngCore,
        table: &mut RouteTable,
        out: &mut Vec<RouteId>,
    ) {
        let mut routes = Vec::new();
        self.inject_into(slot, rng, &mut routes);
        out.clear();
        out.extend(routes.iter().map(|route| table.intern(route)));
    }
}

impl<T: Injector + ?Sized> Injector for Box<T> {
    fn inject_into(&mut self, slot: u64, rng: &mut dyn RngCore, out: &mut Vec<Arc<RoutePath>>) {
        (**self).inject_into(slot, rng, out)
    }

    fn next_active_slot(&mut self, after: u64, rng: &mut dyn RngCore) -> Option<u64> {
        (**self).next_active_slot(after, rng)
    }

    fn interned_capable(&self) -> bool {
        (**self).interned_capable()
    }

    fn inject_interned_into(
        &mut self,
        slot: u64,
        rng: &mut dyn RngCore,
        table: &mut RouteTable,
        out: &mut Vec<RouteId>,
    ) {
        (**self).inject_interned_into(slot, rng, table, out)
    }
}

/// An injector that never injects; useful for draining experiments.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoInjection;

impl Injector for NoInjection {
    fn inject_into(&mut self, _slot: u64, _rng: &mut dyn RngCore, out: &mut Vec<Arc<RoutePath>>) {
        out.clear();
    }
}

/// Replays a fixed list of `(slot, route)` pairs; useful for tests and for
/// re-running recorded adversary traces.
#[derive(Clone, Debug)]
pub struct TraceInjector {
    // Sorted by slot; `next` advances monotonically.
    events: Vec<(u64, Arc<RoutePath>)>,
    next: usize,
}

impl TraceInjector {
    /// Creates a replay injector from `(slot, route)` events.
    ///
    /// Events are sorted by slot; relative order within a slot is preserved.
    pub fn new(mut events: Vec<(u64, Arc<RoutePath>)>) -> Self {
        events.sort_by_key(|(slot, _)| *slot);
        TraceInjector { events, next: 0 }
    }

    /// Number of events not yet replayed.
    pub fn remaining(&self) -> usize {
        self.events.len() - self.next
    }
}

impl Injector for TraceInjector {
    fn inject_into(&mut self, slot: u64, _rng: &mut dyn RngCore, out: &mut Vec<Arc<RoutePath>>) {
        out.clear();
        while self.next < self.events.len() && self.events[self.next].0 <= slot {
            out.push(self.events[self.next].1.clone());
            self.next += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::LinkId;
    use crate::rng::root_rng;

    fn path(link: u32) -> Arc<RoutePath> {
        RoutePath::single_hop(LinkId(link)).shared()
    }

    #[test]
    fn no_injection_is_empty() {
        let mut rng = root_rng(1);
        assert!(NoInjection.inject(0, &mut rng).is_empty());
    }

    #[test]
    fn trace_injector_replays_in_slot_order() {
        let mut rng = root_rng(1);
        let mut inj = TraceInjector::new(vec![(2, path(0)), (0, path(1)), (2, path(2))]);
        assert_eq!(inj.remaining(), 3);
        let s0 = inj.inject(0, &mut rng);
        assert_eq!(s0.len(), 1);
        assert_eq!(s0[0].hop(0), Some(LinkId(1)));
        assert!(inj.inject(1, &mut rng).is_empty());
        let s2 = inj.inject(2, &mut rng);
        assert_eq!(s2.len(), 2);
        assert_eq!(inj.remaining(), 0);
    }

    #[test]
    fn trace_injector_catches_up_on_skipped_slots() {
        let mut rng = root_rng(1);
        let mut inj = TraceInjector::new(vec![(0, path(0)), (5, path(1))]);
        let all = inj.inject(10, &mut rng);
        assert_eq!(all.len(), 2);
    }

    #[test]
    fn inject_into_clears_and_matches_inject() {
        let mut rng = root_rng(1);
        let mut buf = vec![path(9)]; // stale content must be cleared
        NoInjection.inject_into(0, &mut rng, &mut buf);
        assert!(buf.is_empty());

        let mut by_vec = TraceInjector::new(vec![(0, path(0)), (1, path(1))]);
        let mut by_buf = by_vec.clone();
        let mut buf = vec![path(9)];
        for slot in 0..3 {
            by_buf.inject_into(slot, &mut rng, &mut buf);
            let expected = by_vec.inject(slot, &mut rng);
            assert_eq!(buf.len(), expected.len());
            for (a, b) in buf.iter().zip(&expected) {
                assert_eq!(a.links(), b.links());
            }
        }
    }
}
