//! The frame protocol of Section 4.
//!
//! Every frame of `T` slots runs two phases:
//!
//! 1. **Main phase** (`T'` slots): the static algorithm `A(J, m·J)` is
//!    executed on the next hop of every packet that has never failed. A
//!    packet whose transmission is not acknowledged within the phase is
//!    *failed*: it moves into the failed buffer of the link it was trying
//!    to cross and never returns to the main phase.
//! 2. **Clean-up phase** (remaining slots): every link with a non-empty
//!    failed buffer selects, with probability `cleanup_select_prob`, its
//!    longest-failed packet; `A(cleanup_bound, m·J)` is executed on the
//!    selected set. Each success advances one failed packet by one hop
//!    (reducing the potential `Φ` by one).
//!
//! Stability (Theorems 3 and 8): for injection rates `λ < 1/f(m)` the
//! expected queue lengths are bounded and a packet with route length `d`
//! has expected latency `O(d·T)`.

use crate::dynamic::FrameConfig;
use crate::feasibility::{Attempt, Feasibility};
use crate::ids::{LinkId, PacketId};
use crate::invariants::InvariantViolation;
use crate::packet::{DeliveredPacket, Packet};
use crate::protocol::{InternedArrival, Protocol, SlotOutcome};
use crate::route_table::{RouteId, RouteTable};
use crate::staticsched::{Request, StaticAlgorithm, StaticScheduler};
use crate::store::{PacketRef, PacketState, PacketStore};
use rand::{Rng, RngCore};

/// A failed packet waiting in the buffer of its next-hop link.
///
/// The packet itself lives in the protocol's [`PacketStore`]; this entry
/// is the buffer's four-byte handle plus the failure frame.
#[derive(Clone, Copy, Debug)]
struct FailedRef {
    pkt: PacketRef,
    /// Frame in which the packet originally failed; clean-up selection
    /// picks the smallest (the paper's "failure is longest ago").
    failed_at: u64,
}

/// Per-frame summary, for observers such as the potential experiment (E4).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FrameEvent {
    /// Frame index (0-based).
    pub frame: u64,
    /// Un-failed packets that participated in the main phase.
    pub active_at_start: usize,
    /// Packets that failed during this frame's main phase.
    pub newly_failed: usize,
    /// Failed packets selected for the clean-up phase.
    pub cleanup_selected: usize,
    /// Clean-up transmissions that succeeded.
    pub cleanup_served: usize,
    /// Potential `Φ` after the frame.
    pub potential_after: u64,
}

/// The dynamic frame protocol (Section 4), generic over the static
/// algorithm it embeds.
///
/// Drive it through the [`Protocol`] trait; inspect progress through
/// [`DynamicProtocol::take_frame_events`], [`Protocol::backlog`] and
/// [`Protocol::potential`].
pub struct DynamicProtocol<S> {
    scheduler: S,
    config: FrameConfig,

    /// Interned route dictionary: every distinct route the injectors
    /// emit, stored once, with hop links flattened for dense lookup.
    routes: RouteTable,
    /// Columnar storage of every packet currently in the system; the
    /// lists below hold [`PacketRef`] indices into it.
    store: PacketStore,

    /// Packets injected during the current frame; they join at the next
    /// frame start ("after injection a packet waits for the next time
    /// frame to begin").
    arrivals_buffer: Vec<PacketRef>,
    /// Un-failed packets currently travelling.
    active: Vec<PacketRef>,
    /// Packets delivered during the current main phase that still occupy
    /// an `active` slot (removal is deferred to the clean-up rebuild to
    /// keep indices aligned with the running algorithm).
    delivered_in_active: usize,
    /// Per-link buffers of failed packets.
    failed: Vec<Vec<FailedRef>>,
    failed_total: usize,
    potential: u64,

    slot_in_frame: usize,
    frame_index: u64,
    main_alg: Option<Box<dyn StaticAlgorithm>>,
    main_acked: Vec<bool>,
    cleanup_alg: Option<Box<dyn StaticAlgorithm>>,
    /// `(link, packet)` per clean-up request, index-aligned with the
    /// clean-up algorithm's request slice.
    cleanup_selected: Vec<(LinkId, PacketRef)>,

    // Reusable buffers: the slot loop is the protocol's hot path, and
    // these keep it allocation-free in steady state (each buffer grows to
    // its high-water mark once and is then recycled every slot/frame).
    /// Rebuild target for `active` at the main→clean-up transition.
    active_scratch: Vec<PacketRef>,
    /// Request slice handed to `StaticScheduler::instantiate`.
    request_scratch: Vec<Request>,
    /// Indices proposed by the running algorithm this slot.
    idx_scratch: Vec<usize>,
    /// Physical attempts of this slot.
    attempt_scratch: Vec<Attempt>,
    /// Per-attempt success flags of this slot.
    success_scratch: Vec<bool>,

    frame_events: Vec<FrameEvent>,
    current_event: FrameEvent,
    delivered_total: u64,
    injected_total: u64,
}

impl<S: StaticScheduler> DynamicProtocol<S> {
    /// Creates the protocol over a network with `num_links` links.
    ///
    /// # Panics
    ///
    /// Panics if `config` is internally inconsistent (see
    /// [`FrameConfig::validate`]).
    pub fn new(scheduler: S, config: FrameConfig, num_links: usize) -> Self {
        config
            .validate()
            .expect("frame configuration must be consistent");
        DynamicProtocol {
            scheduler,
            routes: RouteTable::new(),
            store: PacketStore::new(),
            arrivals_buffer: Vec::new(),
            active: Vec::new(),
            delivered_in_active: 0,
            failed: vec![Vec::new(); num_links],
            failed_total: 0,
            potential: 0,
            slot_in_frame: 0,
            frame_index: 0,
            main_alg: None,
            main_acked: Vec::new(),
            cleanup_alg: None,
            cleanup_selected: Vec::new(),
            active_scratch: Vec::new(),
            request_scratch: Vec::new(),
            idx_scratch: Vec::new(),
            attempt_scratch: Vec::new(),
            success_scratch: Vec::new(),
            frame_events: Vec::new(),
            current_event: FrameEvent {
                frame: 0,
                active_at_start: 0,
                newly_failed: 0,
                cleanup_selected: 0,
                cleanup_served: 0,
                potential_after: 0,
            },
            delivered_total: 0,
            injected_total: 0,
            config,
        }
    }

    /// The frame configuration.
    pub fn config(&self) -> &FrameConfig {
        &self.config
    }

    /// Drains the per-frame summaries collected since the last call.
    pub fn take_frame_events(&mut self) -> Vec<FrameEvent> {
        std::mem::take(&mut self.frame_events)
    }

    /// Total packets delivered so far.
    pub fn delivered_total(&self) -> u64 {
        self.delivered_total
    }

    /// Total packets injected so far.
    pub fn injected_total(&self) -> u64 {
        self.injected_total
    }

    /// Number of failed packets currently buffered.
    pub fn failed_backlog(&self) -> usize {
        self.failed_total
    }

    /// The protocol's interned route dictionary (one entry per distinct
    /// route ever injected).
    pub fn route_table(&self) -> &RouteTable {
        &self.routes
    }

    /// Live slots in the columnar store: packets in the system *plus*
    /// any delivered mid-main-phase whose slots are reclaimed at the
    /// next main→clean-up rebuild — so this can transiently exceed
    /// [`Protocol::backlog`] by up to one frame's deliveries.
    pub fn stored_packets(&self) -> usize {
        self.store.live()
    }

    fn begin_frame(&mut self, rng: &mut dyn RngCore) {
        // Arrivals of the previous frame join the travelling set.
        for pkt in self.arrivals_buffer.drain(..) {
            self.store.set_state(pkt, PacketState::Active);
            self.active.push(pkt);
        }
        self.current_event = FrameEvent {
            frame: self.frame_index,
            active_at_start: self.active.len(),
            newly_failed: 0,
            cleanup_selected: 0,
            cleanup_served: 0,
            potential_after: 0,
        };
        self.main_acked.clear();
        self.main_acked.resize(self.active.len(), false);
        self.main_alg = if self.active.is_empty() {
            None
        } else {
            self.request_scratch.clear();
            let (routes, store) = (&self.routes, &self.store);
            self.request_scratch
                .extend(self.active.iter().map(|&pkt| Request {
                    packet: store.id(pkt),
                    link: routes.link_at(store.route(pkt), store.hop(pkt)),
                }));
            Some(
                self.scheduler
                    .instantiate(&self.request_scratch, self.config.j_bound, rng),
            )
        };
    }

    fn main_slot(
        &mut self,
        slot: u64,
        phy: &dyn Feasibility,
        rng: &mut dyn RngCore,
        outcome: &mut SlotOutcome,
    ) {
        let Some(alg) = &mut self.main_alg else {
            return;
        };
        if alg.is_done() {
            return;
        }
        // `begin_frame` built the main requests from `active`, and both
        // stay untouched until the clean-up rebuild: each attempt's
        // `(link, packet)` is already in `request_scratch`.
        debug_assert_eq!(self.request_scratch.len(), self.active.len());
        alg.attempts_into(rng, &mut self.idx_scratch);
        if self.idx_scratch.is_empty() {
            return;
        }
        self.attempt_scratch.clear();
        let requests = &self.request_scratch;
        self.attempt_scratch
            .extend(self.idx_scratch.iter().map(|&i| Attempt {
                link: requests[i].link,
                packet: requests[i].packet,
            }));
        outcome.attempts += self.attempt_scratch.len();
        phy.successes_into(&self.attempt_scratch, &mut self.success_scratch, rng);
        for (&idx, &ok) in self.idx_scratch.iter().zip(&self.success_scratch) {
            if !ok {
                continue;
            }
            outcome.successes += 1;
            alg.ack(idx);
            self.main_acked[idx] = true;
            let pkt = self.active[idx];
            let hop = self.store.advance(pkt);
            let path_len = self.routes.len_of(self.store.route(pkt));
            if hop == path_len {
                self.delivered_total += 1;
                self.delivered_in_active += 1;
                self.store.set_state(pkt, PacketState::Delivered);
                outcome.delivered.push(DeliveredPacket {
                    id: self.store.id(pkt),
                    injected_at: self.store.injected_at(pkt),
                    delivered_at: slot,
                    path_len,
                });
            }
        }
    }

    /// Ends the main phase: unacknowledged packets fail; the clean-up set
    /// is selected and its algorithm instantiated.
    fn begin_cleanup(&mut self, rng: &mut dyn RngCore) {
        self.main_alg = None;
        self.delivered_in_active = 0;
        self.active_scratch.clear();
        for (idx, pkt) in self.active.drain(..).enumerate() {
            if self.main_acked.get(idx).copied().unwrap_or(false) {
                let hop = self.store.hop(pkt);
                if hop < self.routes.len_of(self.store.route(pkt)) {
                    self.active_scratch.push(pkt);
                } else {
                    // Delivered packets were already reported; release
                    // their store slots.
                    self.store.free(pkt);
                }
            } else {
                let hop = self.store.hop(pkt);
                let route = self.store.route(pkt);
                let remaining = (self.routes.len_of(route) - hop) as u64;
                self.potential += remaining;
                self.failed_total += 1;
                self.current_event.newly_failed += 1;
                self.store.set_state(pkt, PacketState::Failed);
                let link = self.routes.link_at(route, hop);
                self.failed[link.index()].push(FailedRef {
                    pkt,
                    failed_at: self.frame_index,
                });
            }
        }
        std::mem::swap(&mut self.active, &mut self.active_scratch);

        // Random clean-up selection: each non-empty buffer contributes its
        // longest-failed packet with probability `cleanup_select_prob`.
        // One coin per non-empty buffer in ascending link order: the golden
        // frame fingerprints pin this RNG stream.
        self.cleanup_selected.clear();
        self.request_scratch.clear();
        let store = &self.store;
        for (link_idx, buffer) in self.failed.iter().enumerate() {
            if buffer.is_empty() || rng.gen::<f64>() >= self.config.cleanup_select_prob {
                continue;
            }
            let oldest = buffer
                .iter()
                .min_by_key(|fr| (fr.failed_at, store.id(fr.pkt)))
                .expect("buffer non-empty");
            let link = LinkId(link_idx as u32);
            self.request_scratch.push(Request {
                packet: store.id(oldest.pkt),
                link,
            });
            self.cleanup_selected.push((link, oldest.pkt));
        }
        self.current_event.cleanup_selected = self.cleanup_selected.len();
        self.cleanup_alg = if self.request_scratch.is_empty() {
            None
        } else {
            Some(
                self.scheduler
                    .instantiate(&self.request_scratch, self.config.cleanup_bound, rng),
            )
        };
    }

    fn cleanup_slot(
        &mut self,
        slot: u64,
        phy: &dyn Feasibility,
        rng: &mut dyn RngCore,
        outcome: &mut SlotOutcome,
    ) {
        let Some(alg) = &mut self.cleanup_alg else {
            return;
        };
        if alg.is_done() {
            return;
        }
        alg.attempts_into(rng, &mut self.idx_scratch);
        if self.idx_scratch.is_empty() {
            return;
        }
        self.attempt_scratch.clear();
        {
            let (store, selected) = (&self.store, &self.cleanup_selected);
            self.attempt_scratch
                .extend(self.idx_scratch.iter().map(|&i| {
                    let (link, pkt) = selected[i];
                    Attempt {
                        link,
                        packet: store.id(pkt),
                    }
                }));
        }
        outcome.attempts += self.attempt_scratch.len();
        phy.successes_into(&self.attempt_scratch, &mut self.success_scratch, rng);
        for (&idx, &ok) in self.idx_scratch.iter().zip(&self.success_scratch) {
            if !ok {
                continue;
            }
            outcome.successes += 1;
            alg.ack(idx);
            self.current_event.cleanup_served += 1;
            let (link, pkt) = self.cleanup_selected[idx];
            let buffer = &mut self.failed[link.index()];
            let pos = buffer
                .iter()
                .position(|fr| fr.pkt == pkt)
                .expect("selected packet still buffered");
            let fr = buffer.swap_remove(pos);
            let hop = self.store.advance(pkt);
            self.potential -= 1;
            let route = self.store.route(pkt);
            let path_len = self.routes.len_of(route);
            if hop == path_len {
                self.failed_total -= 1;
                self.delivered_total += 1;
                outcome.delivered.push(DeliveredPacket {
                    id: self.store.id(pkt),
                    injected_at: self.store.injected_at(pkt),
                    delivered_at: slot,
                    path_len,
                });
                self.store.free(pkt);
            } else {
                let next = self.routes.link_at(route, hop);
                self.failed[next.index()].push(fr);
            }
        }
    }

    fn end_frame(&mut self) {
        self.cleanup_alg = None;
        self.cleanup_selected.clear();
        self.current_event.potential_after = self.potential;
        self.frame_events.push(self.current_event);
        self.frame_index += 1;
    }

    /// Admits one arrival into the current frame's waiting buffer; the
    /// route must already be interned in this protocol's table.
    fn admit(&mut self, id: PacketId, route: RouteId, injected_at: u64) {
        self.injected_total += 1;
        let pkt = self.store.insert(id, route, injected_at);
        self.arrivals_buffer.push(pkt);
    }

    /// The phase body shared by [`Protocol::step`] and
    /// [`Protocol::step_interned`]: runs this slot's phase, then
    /// advances the in-frame cursor (closing the frame when it wraps).
    fn run_slot(
        &mut self,
        slot: u64,
        phy: &dyn Feasibility,
        rng: &mut dyn RngCore,
        out: &mut SlotOutcome,
    ) {
        let main = self.config.main_budget;
        let cleanup_end = main + self.config.cleanup_budget;
        if self.slot_in_frame < main {
            self.main_slot(slot, phy, rng, out);
        } else {
            if self.slot_in_frame == main {
                self.begin_cleanup(rng);
            }
            if self.slot_in_frame < cleanup_end {
                self.cleanup_slot(slot, phy, rng, out);
            }
            // Slots past the clean-up budget idle out the frame.
        }

        self.slot_in_frame += 1;
        if self.slot_in_frame == self.config.frame_len {
            self.end_frame();
            self.slot_in_frame = 0;
            // Frame-boundary invariant guard: catches a breach within one
            // frame of its cause even when the caller never checks.
            #[cfg(feature = "check-invariants")]
            if let Err(violation) = self.check_invariants() {
                panic!(
                    "frame {} closed in a broken state: {violation}",
                    self.frame_index - 1
                );
            }
        }
    }
}

impl<S: StaticScheduler> Protocol for DynamicProtocol<S> {
    fn step(
        &mut self,
        slot: u64,
        arrivals: &[Packet],
        phy: &dyn Feasibility,
        rng: &mut dyn RngCore,
        out: &mut SlotOutcome,
    ) {
        out.clear();
        if self.slot_in_frame == 0 {
            self.begin_frame(rng);
        }
        for packet in arrivals {
            let route = self.routes.intern(packet.path());
            self.admit(packet.id(), route, packet.injected_at());
        }
        self.run_slot(slot, phy, rng, out);
    }

    fn backlog(&self) -> usize {
        self.arrivals_buffer.len() + self.active.len() - self.delivered_in_active
            + self.failed_total
    }

    fn potential(&self) -> u64 {
        self.potential
    }

    /// The frame protocol's quiescence structure: with both embedded
    /// algorithms finished (or absent), the only observable slots ahead
    /// are the next clean-up selection (when anything is active or
    /// failed) and the next frame start (when anything is waiting or
    /// active). With the system fully drained, `u64::MAX`: every slot
    /// is an inert frame-bookkeeping tick that
    /// [`skip_idle_slots`](Protocol::skip_idle_slots) replays in bulk.
    fn next_event_slot(&self, now: u64) -> Option<u64> {
        let main_pending = self.main_alg.as_ref().is_some_and(|a| !a.is_done());
        let cleanup_pending = self.cleanup_alg.as_ref().is_some_and(|a| !a.is_done());
        if main_pending || cleanup_pending {
            return Some(now.saturating_add(1));
        }
        let t = self.config.frame_len as u64;
        let main = self.config.main_budget as u64;
        // `slot_in_frame` was already advanced past the slot just
        // stepped, so it is the in-frame index of slot `now + 1`.
        let sif = self.slot_in_frame as u64;
        let next_frame_start = now.saturating_add(1).saturating_add((t - sif) % t);
        let next_cleanup_begin = if sif <= main {
            now.saturating_add(1).saturating_add(main - sif)
        } else {
            next_frame_start.saturating_add(main)
        };
        let mut next = u64::MAX;
        if !self.arrivals_buffer.is_empty() || !self.active.is_empty() {
            // A frame start merges arrivals into the travelling set and
            // instantiates the main algorithm.
            next = next.min(next_frame_start);
        }
        if !self.active.is_empty() || self.failed_total > 0 {
            // A clean-up selection draws RNG per non-empty failed
            // buffer and rebuilds the active set.
            next = next.min(next_cleanup_begin);
        }
        Some(next)
    }

    /// Replays the frame bookkeeping of `count` inert slots: advances
    /// the in-frame cursor, and at each frame boundary crossed performs
    /// the (empty-system) `begin_frame`/`end_frame` pair — emitting the
    /// same all-idle [`FrameEvent`]s the per-slot path would have, with
    /// no RNG consumed.
    fn skip_idle_slots(&mut self, _from: u64, count: u64) {
        let t = self.config.frame_len;
        let mut remaining = count;
        while remaining > 0 {
            if self.slot_in_frame == 0 {
                // An inert frame start: `next_event_slot` only lets the
                // skip cross a frame boundary when nothing is waiting
                // or travelling, so this replicates `begin_frame` on an
                // empty system.
                debug_assert!(
                    self.arrivals_buffer.is_empty() && self.active.is_empty(),
                    "skip crossed a frame start with live packets"
                );
                self.current_event = FrameEvent {
                    frame: self.frame_index,
                    active_at_start: 0,
                    newly_failed: 0,
                    cleanup_selected: 0,
                    cleanup_served: 0,
                    potential_after: 0,
                };
                self.main_acked.clear();
                self.main_alg = None;
            }
            let step = remaining.min((t - self.slot_in_frame) as u64);
            self.slot_in_frame += step as usize;
            remaining -= step;
            if self.slot_in_frame == t {
                self.end_frame();
                self.slot_in_frame = 0;
            }
        }
    }

    fn route_interner(&mut self) -> Option<&mut RouteTable> {
        Some(&mut self.routes)
    }

    /// Verifies the bookkeeping identities the stability proof rests on:
    /// packet conservation (injected = delivered + backlog), potential
    /// `Φ` = total remaining hops of failed packets (Section 4), the
    /// per-link failed-buffer structure, lifecycle-state agreement
    /// between the store and the protocol's lists, and the shared
    /// store/route-table invariants of [`crate::invariants`].
    fn check_invariants(&self) -> Result<(), InvariantViolation> {
        crate::invariants::check_route_table(&self.routes)?;
        // Live slots = waiting ∪ travelling ∪ failed. Delivered packets
        // keep their `active` slot until the main→clean-up rebuild, so
        // they are still "live" from the store's point of view.
        let live = self
            .arrivals_buffer
            .iter()
            .chain(self.active.iter())
            .chain(self.failed.iter().flatten().map(|fr| &fr.pkt))
            .copied();
        crate::invariants::check_store_partition(&self.store, live)?;

        for &pkt in &self.arrivals_buffer {
            if self.store.state(pkt) != PacketState::Queued {
                return Err(InvariantViolation::new(
                    "state-tags",
                    format!(
                        "waiting packet {:?} tagged {:?}, expected Queued",
                        self.store.id(pkt),
                        self.store.state(pkt)
                    ),
                ));
            }
        }
        let mut delivered_in_active = 0usize;
        for &pkt in &self.active {
            let hop = self.store.hop(pkt);
            let len = self.routes.len_of(self.store.route(pkt));
            match self.store.state(pkt) {
                PacketState::Active if hop < len => {}
                PacketState::Delivered if hop == len => delivered_in_active += 1,
                state => {
                    return Err(InvariantViolation::new(
                        "state-tags",
                        format!(
                            "active-list packet {:?} tagged {state:?} at hop {hop} of {len}",
                            self.store.id(pkt)
                        ),
                    ));
                }
            }
        }
        if delivered_in_active != self.delivered_in_active {
            return Err(InvariantViolation::new(
                "state-tags",
                format!(
                    "{delivered_in_active} Delivered tags in the active list but \
                     delivered_in_active = {}",
                    self.delivered_in_active
                ),
            ));
        }

        let mut failed_count = 0usize;
        let mut remaining_hops = 0u64;
        for (link_idx, buffer) in self.failed.iter().enumerate() {
            for fr in buffer {
                failed_count += 1;
                if self.store.state(fr.pkt) != PacketState::Failed {
                    return Err(InvariantViolation::new(
                        "state-tags",
                        format!(
                            "buffered packet {:?} tagged {:?}, expected Failed",
                            self.store.id(fr.pkt),
                            self.store.state(fr.pkt)
                        ),
                    ));
                }
                let route = self.store.route(fr.pkt);
                let hop = self.store.hop(fr.pkt);
                let len = self.routes.len_of(route);
                if hop >= len {
                    return Err(InvariantViolation::new(
                        "failed-buffers",
                        format!(
                            "failed packet {:?} at hop {hop} of a {len}-link route",
                            self.store.id(fr.pkt)
                        ),
                    ));
                }
                let next = self.routes.link_at(route, hop);
                if next.index() != link_idx {
                    return Err(InvariantViolation::new(
                        "failed-buffers",
                        format!(
                            "packet {:?} buffered under link {link_idx} but its next hop is {next}",
                            self.store.id(fr.pkt)
                        ),
                    ));
                }
                remaining_hops += (len - hop) as u64;
            }
        }
        if failed_count != self.failed_total {
            return Err(InvariantViolation::new(
                "failed-accounting",
                format!(
                    "failed buffers hold {failed_count} packets but failed_total = {}",
                    self.failed_total
                ),
            ));
        }
        if remaining_hops != self.potential {
            return Err(InvariantViolation::new(
                "potential-accounting",
                format!(
                    "Φ = {} but failed packets have {remaining_hops} remaining hops",
                    self.potential
                ),
            ));
        }

        if self.injected_total != self.delivered_total + self.backlog() as u64 {
            return Err(InvariantViolation::new(
                "packet-conservation",
                format!(
                    "injected {} ≠ delivered {} + backlog {}",
                    self.injected_total,
                    self.delivered_total,
                    self.backlog()
                ),
            ));
        }

        if self.slot_in_frame >= self.config.frame_len {
            return Err(InvariantViolation::new(
                "frame-cursor",
                format!(
                    "slot_in_frame {} out of range (frame length {})",
                    self.slot_in_frame, self.config.frame_len
                ),
            ));
        }
        if self.main_alg.is_some() && self.main_acked.len() != self.active.len() {
            return Err(InvariantViolation::new(
                "main-ack-alignment",
                format!(
                    "{} ack flags for {} active packets",
                    self.main_acked.len(),
                    self.active.len()
                ),
            ));
        }
        Ok(())
    }

    fn step_interned(
        &mut self,
        slot: u64,
        arrivals: &[InternedArrival],
        phy: &dyn Feasibility,
        rng: &mut dyn RngCore,
        out: &mut SlotOutcome,
    ) {
        out.clear();
        if self.slot_in_frame == 0 {
            self.begin_frame(rng);
        }
        for a in arrivals {
            self.admit(a.id, a.route, a.injected_at);
        }
        self.run_slot(slot, phy, rng, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feasibility::PerLinkFeasibility;
    use crate::graph::line_network;
    use crate::ids::PacketId;
    use crate::injection::stochastic::uniform_generators;
    use crate::injection::Injector;
    use crate::path::RoutePath;
    use crate::rng::root_rng;
    use crate::staticsched::greedy::GreedyPerLink;

    /// Drives a protocol with an injector for `slots` slots, through the
    /// zero-allocation [`Protocol::step`] path with reused buffers.
    fn drive<P: Protocol, I: Injector>(
        protocol: &mut P,
        injector: &mut I,
        phy: &dyn Feasibility,
        slots: u64,
        seed: u64,
    ) -> (Vec<DeliveredPacket>, u64) {
        let mut rng = root_rng(seed);
        let mut delivered = Vec::new();
        let mut next_id = 0u64;
        let mut injected = 0u64;
        let mut route_buf = Vec::new();
        let mut arrivals: Vec<Packet> = Vec::new();
        let mut outcome = SlotOutcome::empty();
        for slot in 0..slots {
            injector.inject_into(slot, &mut rng, &mut route_buf);
            arrivals.clear();
            arrivals.extend(route_buf.drain(..).map(|path| {
                let p = Packet::new(PacketId(next_id), path, slot);
                next_id += 1;
                p
            }));
            injected += arrivals.len() as u64;
            protocol.step(slot, &arrivals, phy, &mut rng, &mut outcome);
            delivered.extend_from_slice(&outcome.delivered);
        }
        (delivered, injected)
    }

    fn routing_setup(
        num_links: usize,
        lambda: f64,
    ) -> (
        DynamicProtocol<GreedyPerLink>,
        crate::injection::stochastic::StochasticInjector,
        PerLinkFeasibility,
    ) {
        let network = line_network(num_links);
        let config =
            FrameConfig::tuned(&GreedyPerLink::new(), network.significant_size(), 0.9).unwrap();
        let protocol = DynamicProtocol::new(GreedyPerLink::new(), config, num_links);
        let routes: Vec<_> = (0..num_links as u32)
            .map(|l| RoutePath::single_hop(LinkId(l)).shared())
            .collect();
        let injector = uniform_generators(routes, lambda).unwrap();
        (protocol, injector, PerLinkFeasibility::new(num_links))
    }

    #[test]
    fn stable_run_has_bounded_backlog_and_delivers() {
        let (mut protocol, mut injector, phy) = routing_setup(4, 0.5);
        let slots = 40 * protocol.config().frame_len as u64;
        let (delivered, injected) = drive(&mut protocol, &mut injector, &phy, slots, 7);
        assert!(injected > 0);
        // Up to ~2 frames of packets are legitimately still in flight
        // (waiting out the current frame); at rate 2 packets/slot that is
        // 4 × frame_len.
        let in_flight_allowance = 6 * protocol.config().frame_len as u64;
        assert!(
            delivered.len() as u64 >= injected.saturating_sub(in_flight_allowance),
            "delivered {} of {injected}",
            delivered.len()
        );
        // Conservation: everything is delivered or still in the system.
        assert_eq!(
            delivered.len() + protocol.backlog(),
            injected as usize,
            "packet conservation violated"
        );
        // Backlog stays around one frame's worth of injections.
        assert!(
            protocol.backlog() < 8 * protocol.config().frame_len,
            "backlog {} looks unbounded",
            protocol.backlog()
        );
    }

    #[test]
    fn single_hop_latency_is_a_constant_number_of_frames() {
        let (mut protocol, mut injector, phy) = routing_setup(2, 0.3);
        let t = protocol.config().frame_len as u64;
        let (delivered, _) = drive(&mut protocol, &mut injector, &phy, 30 * t, 13);
        assert!(!delivered.is_empty());
        let max_latency = delivered.iter().map(|d| d.latency()).max().unwrap();
        assert!(
            max_latency <= 3 * t,
            "single-hop latency {max_latency} exceeds 3 frames ({t} slots each)"
        );
    }

    #[test]
    fn multi_hop_packets_advance_one_hop_per_frame() {
        let num_links = 4;
        let network = line_network(num_links);
        let config =
            FrameConfig::tuned(&GreedyPerLink::new(), network.significant_size(), 0.9).unwrap();
        let t = config.frame_len as u64;
        let mut protocol = DynamicProtocol::new(GreedyPerLink::new(), config, num_links);
        let full_path = RoutePath::new(&network, (0..num_links as u32).map(LinkId).collect())
            .unwrap()
            .shared();
        let injector = uniform_generators([full_path], 0.2).unwrap();
        let mut injector = injector;
        let phy = PerLinkFeasibility::new(num_links);
        let (delivered, _) = drive(&mut protocol, &mut injector, &phy, 40 * t, 21);
        assert!(!delivered.is_empty());
        for d in &delivered {
            assert_eq!(d.path_len, num_links);
            // d hops need d frames (plus the waiting frame).
            assert!(
                d.latency() <= (num_links as u64 + 2) * t,
                "latency {} too large for {num_links} hops",
                d.latency()
            );
        }
    }

    #[test]
    fn overload_grows_backlog() {
        // Config is built for rate 0.9 but we inject at 3x the per-link
        // capacity of the greedy algorithm: backlog must grow linearly.
        let num_links = 2;
        let network = line_network(num_links);
        let config =
            FrameConfig::tuned(&GreedyPerLink::new(), network.significant_size(), 0.9).unwrap();
        let mut protocol = DynamicProtocol::new(GreedyPerLink::new(), config, num_links);
        // Three generators all hammering link 0.
        let routes: Vec<_> = (0..3)
            .map(|_| RoutePath::single_hop(LinkId(0)).shared())
            .collect();
        let mut injector = uniform_generators(routes, 0.9).unwrap();
        let phy = PerLinkFeasibility::new(num_links);
        let slots = 30 * protocol.config().frame_len as u64;
        let (_, injected) = drive(&mut protocol, &mut injector, &phy, slots, 3);
        // Rate ~2.7 on a link that can serve 1 per slot at most: more than
        // half the injected packets must still be queued.
        assert!(
            protocol.backlog() as f64 > 0.4 * injected as f64,
            "backlog {} vs injected {injected}",
            protocol.backlog()
        );
    }

    #[test]
    fn frame_events_are_emitted_per_frame() {
        let (mut protocol, mut injector, phy) = routing_setup(2, 0.4);
        let t = protocol.config().frame_len as u64;
        let _ = drive(&mut protocol, &mut injector, &phy, 5 * t, 31);
        let events = protocol.take_frame_events();
        assert_eq!(events.len(), 5);
        assert_eq!(events[0].frame, 0);
        assert_eq!(events[4].frame, 4);
        // Draining resets the buffer.
        assert!(protocol.take_frame_events().is_empty());
    }

    #[test]
    fn potential_is_zero_when_nothing_fails() {
        let (mut protocol, mut injector, phy) = routing_setup(3, 0.5);
        let t = protocol.config().frame_len as u64;
        let _ = drive(&mut protocol, &mut injector, &phy, 10 * t, 5);
        // Greedy per-link under per-link feasibility never fails a packet
        // as long as the frame's congestion stays within the main budget.
        assert_eq!(protocol.potential(), 0);
        assert_eq!(protocol.failed_backlog(), 0);
    }

    #[test]
    fn failed_multihop_packets_traverse_via_cleanup() {
        use crate::feasibility::LossyFeasibility;
        // Saturate the main phase (50% loss doubles the expected service
        // time per packet, pushing the per-frame demand past the main
        // budget) so failures are guaranteed; failed multi-hop packets must
        // still traverse hop by hop through clean-up phases. This test
        // checks the failure/clean-up *mechanics*, not stability.
        let num_links = 3;
        let network = line_network(num_links);
        let config =
            FrameConfig::tuned(&GreedyPerLink::new(), network.significant_size(), 0.7).unwrap();
        let mut protocol = DynamicProtocol::new(GreedyPerLink::new(), config, num_links);
        let phy = LossyFeasibility::new(PerLinkFeasibility::new(num_links), 0.5);
        let full_path = RoutePath::new(&network, (0..num_links as u32).map(LinkId).collect())
            .unwrap()
            .shared();
        let mut injector = uniform_generators([full_path], 0.5).unwrap();
        let t = protocol.config().frame_len as u64;
        let (delivered, injected) = drive(&mut protocol, &mut injector, &phy, 200 * t, 77);
        assert!(injected > 0);
        // The overloaded main phase must produce failures…
        let events = protocol.take_frame_events();
        let total_failed: usize = events.iter().map(|e| e.newly_failed).sum();
        assert!(total_failed > 0, "saturation must produce failures");
        // …and clean-up phases must have served some of them.
        let total_cleaned: usize = events.iter().map(|e| e.cleanup_served).sum();
        assert!(total_cleaned > 0, "cleanup must drain failed packets");
        // Conservation holds exactly even under loss + failures.
        assert_eq!(
            delivered.len() + protocol.backlog(),
            injected as usize,
            "conservation under loss"
        );
        // Every delivered packet crossed the full route.
        assert!(!delivered.is_empty());
        for d in &delivered {
            assert_eq!(d.path_len, num_links);
        }
    }

    #[test]
    fn potential_decrements_match_cleanup_successes() {
        use crate::feasibility::LossyFeasibility;
        let num_links = 2;
        let config = FrameConfig::tuned(&GreedyPerLink::new(), num_links, 0.7).unwrap();
        let mut protocol = DynamicProtocol::new(GreedyPerLink::new(), config, num_links);
        let phy = LossyFeasibility::new(PerLinkFeasibility::new(num_links), 0.4);
        let routes: Vec<_> = (0..num_links as u32)
            .map(|l| RoutePath::single_hop(LinkId(l)).shared())
            .collect();
        let mut injector = uniform_generators(routes, 0.2).unwrap();
        let t = protocol.config().frame_len as u64;
        let _ = drive(&mut protocol, &mut injector, &phy, 200 * t, 9);
        // Σ over frames: potential_after(k) = potential_after(k-1)
        //   + hops-of-newly-failed − cleanup_served. For single-hop routes
        // newly_failed contributes exactly 1 hop each.
        let events = protocol.take_frame_events();
        let mut phi = 0i64;
        for e in &events {
            phi += e.newly_failed as i64;
            phi -= e.cleanup_served as i64;
            assert_eq!(
                phi as u64, e.potential_after,
                "potential bookkeeping diverged at frame {}",
                e.frame
            );
        }
    }

    #[test]
    #[should_panic(expected = "consistent")]
    fn rejects_inconsistent_config() {
        let mut config = FrameConfig::tuned(&GreedyPerLink::new(), 2, 0.5).unwrap();
        config.frame_len = 1;
        let _ = DynamicProtocol::new(GreedyPerLink::new(), config, 2);
    }

    /// Hand-built frame geometry small enough to reason about slot by
    /// slot: 2 main slots, 1 clean-up slot, 4-slot frames.
    fn tiny_config(cleanup_select_prob: f64) -> FrameConfig {
        FrameConfig {
            m: 2,
            lambda: 0.5,
            epsilon: 0.5,
            frame_len: 4,
            j_bound: 4.0,
            main_budget: 2,
            cleanup_budget: 1,
            cleanup_select_prob,
            cleanup_bound: 1.0,
        }
    }

    /// Deterministic oracle failing every attempt of the first
    /// `fail_calls` slots that issue attempts, succeeding afterwards;
    /// consumes no randomness.
    struct FailFirstCalls {
        remaining: std::cell::Cell<usize>,
    }

    impl FailFirstCalls {
        fn new(fail_calls: usize) -> Self {
            FailFirstCalls {
                remaining: std::cell::Cell::new(fail_calls),
            }
        }
    }

    impl Feasibility for FailFirstCalls {
        fn successes_into(
            &self,
            attempts: &[Attempt],
            out: &mut Vec<bool>,
            _rng: &mut dyn RngCore,
        ) {
            let left = self.remaining.get();
            self.remaining.set(left.saturating_sub(1));
            out.clear();
            out.resize(attempts.len(), left == 0);
        }
    }

    /// A packet delivered in the *final* main-phase slot still occupies
    /// an `active` index when the main→clean-up rebuild runs; it must be
    /// dropped there — not re-selected, not double-counted, its store
    /// slot released.
    #[test]
    fn delivery_in_final_main_slot_is_not_double_counted() {
        let mut protocol = DynamicProtocol::new(GreedyPerLink::new(), tiny_config(1.0), 2);
        let phy = PerLinkFeasibility::new(2);
        let mut rng = root_rng(1);
        let route = RoutePath::single_hop(LinkId(0)).shared();
        // Two packets on the same link: greedy serves one per slot, so
        // the second delivery lands exactly in main slot 2 of 2 — the
        // final main-phase slot of frame 1 (slots 4..8).
        let arrivals = vec![
            Packet::new(PacketId(0), route.clone(), 0),
            Packet::new(PacketId(1), route, 0),
        ];
        let mut outcome = SlotOutcome::empty();
        protocol.step(0, &arrivals, &phy, &mut rng, &mut outcome);
        let mut delivered = Vec::new();
        for slot in 1..12 {
            protocol.step(slot, &[], &phy, &mut rng, &mut outcome);
            for d in &outcome.delivered {
                delivered.push((slot, d.id));
            }
        }
        assert_eq!(
            delivered,
            vec![(4, PacketId(0)), (5, PacketId(1))],
            "second delivery must land in the final main-phase slot"
        );
        assert_eq!(protocol.delivered_total(), 2, "no double count");
        assert_eq!(protocol.backlog(), 0);
        assert_eq!(
            protocol.failed_backlog(),
            0,
            "delivered packet must not fail"
        );
        assert_eq!(protocol.potential(), 0);
        assert_eq!(
            protocol.stored_packets(),
            0,
            "store slots released at the rebuild"
        );
        let events = protocol.take_frame_events();
        // Even with select probability 1.0 nothing may be selected for
        // clean-up: the delivered-in-active packets are gone.
        assert!(events.iter().all(|e| e.cleanup_selected == 0));
        assert!(events.iter().all(|e| e.newly_failed == 0));
    }

    /// `backlog` must account for packets delivered in the main phase
    /// whose `active` slots are only reclaimed at the clean-up rebuild.
    #[test]
    fn backlog_drops_immediately_on_main_phase_delivery() {
        let mut protocol = DynamicProtocol::new(GreedyPerLink::new(), tiny_config(0.5), 2);
        let phy = PerLinkFeasibility::new(2);
        let mut rng = root_rng(3);
        let route = RoutePath::single_hop(LinkId(1)).shared();
        let arrivals = vec![Packet::new(PacketId(7), route, 0)];
        let mut outcome = SlotOutcome::empty();
        protocol.step(0, &arrivals, &phy, &mut rng, &mut outcome);
        assert_eq!(protocol.backlog(), 1);
        for slot in 1..4 {
            protocol.step(slot, &[], &phy, &mut rng, &mut outcome);
        }
        // Frame 1, main slot 1: delivered. The rebuild has not run yet,
        // but the backlog must already exclude the delivered packet.
        protocol.step(4, &[], &phy, &mut rng, &mut outcome);
        assert_eq!(outcome.delivered.len(), 1);
        assert_eq!(
            protocol.backlog(),
            0,
            "delivered_in_active must offset backlog"
        );
    }

    /// At `cleanup_select_prob = 0.0` no failed packet is ever selected:
    /// the potential is monotone non-decreasing and failed buffers only
    /// grow.
    #[test]
    fn cleanup_select_prob_zero_never_selects() {
        let mut protocol = DynamicProtocol::new(GreedyPerLink::new(), tiny_config(0.0), 2);
        // Fail the whole first frame's main phase (2 attempt slots).
        let phy = FailFirstCalls::new(2);
        let mut rng = root_rng(5);
        let route = RoutePath::single_hop(LinkId(0)).shared();
        let arrivals = vec![Packet::new(PacketId(0), route, 0)];
        let mut outcome = SlotOutcome::empty();
        let mut delivered = 0usize;
        protocol.step(0, &arrivals, &phy, &mut rng, &mut outcome);
        for slot in 1..40 {
            protocol.step(slot, &[], &phy, &mut rng, &mut outcome);
            delivered += outcome.delivered.len();
        }
        assert_eq!(delivered, 0, "an unselected failed packet cannot advance");
        assert_eq!(protocol.failed_backlog(), 1);
        assert_eq!(protocol.potential(), 1);
        let events = protocol.take_frame_events();
        assert_eq!(events[1].newly_failed, 1, "failure lands in frame 1");
        assert!(events.iter().all(|e| e.cleanup_selected == 0));
        assert!(events.iter().all(|e| e.cleanup_served == 0));
        assert_eq!(protocol.backlog(), 1, "packet is stuck but conserved");
    }

    /// The shared invariant layer must hold between every pair of slots
    /// of a driven run — injections, failures, clean-up recoveries and
    /// deliveries included. This is the runtime face of the checks
    /// `dps-model` proves exhaustively on tiny instances.
    #[test]
    fn invariants_hold_after_every_slot_of_a_driven_run() {
        let mut protocol = DynamicProtocol::new(GreedyPerLink::new(), tiny_config(1.0), 2);
        // Fail the first three attempt slots so packets traverse the
        // failed buffers and clean-up selection, then succeed.
        let phy = FailFirstCalls::new(3);
        let mut rng = root_rng(11);
        let network = line_network(2);
        let route01 = RoutePath::new(&network, vec![LinkId(0), LinkId(1)])
            .unwrap()
            .shared();
        let route1 = RoutePath::single_hop(LinkId(1)).shared();
        let mut outcome = SlotOutcome::empty();
        for slot in 0..40u64 {
            // Stagger injections across frames and links.
            let arrivals = match slot {
                0 => vec![Packet::new(PacketId(0), route01.clone(), slot)],
                5 => vec![Packet::new(PacketId(1), route1.clone(), slot)],
                9 => vec![Packet::new(PacketId(2), route01.clone(), slot)],
                _ => Vec::new(),
            };
            protocol.step(slot, &arrivals, &phy, &mut rng, &mut outcome);
            protocol
                .check_invariants()
                .unwrap_or_else(|v| panic!("after slot {slot}: {v}"));
        }
        assert_eq!(protocol.delivered_total(), 3, "all packets delivered");
        assert_eq!(protocol.backlog(), 0);
        protocol.check_invariants().unwrap();
    }

    /// At `cleanup_select_prob = 1.0` every non-empty buffer selects in
    /// every frame: a failed multi-hop packet advances exactly one hop
    /// per frame through clean-up phases until delivered. The route
    /// `[1, 0]` moves the packet from buffer 1 down to buffer 0, so the
    /// next frame's ascending clean-up scan must find a buffer below the
    /// one it served.
    #[test]
    fn cleanup_select_prob_one_always_selects() {
        let num_links = 2;
        for links in [[0u32, 1], [1, 0]] {
            let mut config = tiny_config(1.0);
            config.m = num_links;
            let mut protocol = DynamicProtocol::new(GreedyPerLink::new(), config, num_links);
            // Fail the whole first frame's main phase so the 2-hop packet
            // fails on its first link, then let every clean-up attempt
            // succeed.
            let phy = FailFirstCalls::new(2);
            let mut rng = root_rng(9);
            let route = RoutePath::from_links_unchecked(links.map(LinkId).to_vec()).shared();
            let arrivals = vec![Packet::new(PacketId(0), route, 0)];
            let mut outcome = SlotOutcome::empty();
            let mut delivered_at = None;
            protocol.step(0, &arrivals, &phy, &mut rng, &mut outcome);
            for slot in 1..20 {
                protocol.step(slot, &[], &phy, &mut rng, &mut outcome);
                protocol.check_invariants().unwrap();
                if let Some(d) = outcome.delivered.first() {
                    delivered_at = Some((slot, d.path_len));
                }
            }
            // Frame 1 (slots 4..8): main fails, packet fails with 2 hops
            // remaining (potential 2), clean-up slot 6 serves hop 1.
            // Frame 2 (slots 8..12): clean-up slot 10 serves hop 2 → done.
            assert_eq!(delivered_at, Some((10, 2)), "route {links:?}");
            let events = protocol.take_frame_events();
            let selected: Vec<usize> = events.iter().map(|e| e.cleanup_selected).collect();
            assert_eq!(selected, [0, 1, 1, 0, 0], "route {links:?}");
            assert_eq!(events[1].newly_failed, 1);
            assert_eq!(events[1].cleanup_served, 1);
            assert_eq!(events[1].potential_after, 1);
            assert_eq!(events[2].cleanup_served, 1);
            assert_eq!(events[2].potential_after, 0);
            assert_eq!(protocol.backlog(), 0);
            assert_eq!(protocol.stored_packets(), 0);
        }
    }

    /// Driving the protocol only at hinted event slots — replaying the
    /// gaps with `skip_idle_slots` — must reproduce the per-slot run
    /// exactly: same deliveries, same frame events, same RNG stream.
    #[test]
    fn hinted_stepping_matches_per_slot_stepping() {
        use crate::feasibility::LossyFeasibility;
        let slots = 200u64;
        let make = || DynamicProtocol::new(GreedyPerLink::new(), tiny_config(0.5), 2);
        let phy = LossyFeasibility::new(PerLinkFeasibility::new(2), 0.5);
        let route = RoutePath::single_hop(LinkId(0)).shared();
        // A burst at slot 0 and a straggler mid-run; long arrival-free
        // stretches in between give the hints something to skip.
        let arrival_slots = [0u64, 97];

        let drive = |hinted: bool| -> (Vec<(u64, PacketId)>, Vec<FrameEvent>, usize) {
            let mut protocol = make();
            let mut rng = root_rng(77);
            let mut outcome = SlotOutcome::empty();
            let mut delivered = Vec::new();
            let mut slot = 0u64;
            while slot < slots {
                let arrivals: Vec<Packet> = if arrival_slots.contains(&slot) {
                    vec![
                        Packet::new(PacketId(2 * slot), route.clone(), slot),
                        Packet::new(PacketId(2 * slot + 1), route.clone(), slot),
                    ]
                } else {
                    Vec::new()
                };
                protocol.step(slot, &arrivals, &phy, &mut rng, &mut outcome);
                for d in &outcome.delivered {
                    delivered.push((slot, d.id));
                }
                if !hinted {
                    slot += 1;
                    continue;
                }
                let next = protocol
                    .next_event_slot(slot)
                    .expect("frame protocol always hints");
                // Arrivals are external events the protocol cannot see
                // coming: cap the skip at the next known arrival.
                let next_arrival = arrival_slots
                    .iter()
                    .copied()
                    .filter(|&s| s > slot)
                    .min()
                    .unwrap_or(u64::MAX);
                let target = next.min(next_arrival).min(slots);
                if target > slot + 1 {
                    protocol.skip_idle_slots(slot + 1, target - slot - 1);
                }
                slot = target.max(slot + 1);
            }
            // Flush: skip out the remaining inert slots so both runs
            // observed the same horizon.
            let events = protocol.take_frame_events();
            (delivered, events, protocol.backlog())
        };

        let per_slot = drive(false);
        let hinted = drive(true);
        assert_eq!(per_slot.0, hinted.0, "delivery streams diverged");
        assert_eq!(per_slot.1, hinted.1, "frame event streams diverged");
        assert_eq!(per_slot.2, hinted.2, "backlogs diverged");
        assert!(!per_slot.0.is_empty(), "degenerate test: nothing delivered");
    }

    /// Interning collapses structurally identical routes arriving behind
    /// distinct `Arc`s: the protocol's dictionary stays at one entry no
    /// matter how many packets flow.
    #[test]
    fn protocol_interns_duplicate_routes_once() {
        let mut protocol = DynamicProtocol::new(GreedyPerLink::new(), tiny_config(1.0), 2);
        let phy = PerLinkFeasibility::new(2);
        let mut rng = root_rng(11);
        let mut outcome = SlotOutcome::empty();
        for slot in 0..40u64 {
            // A fresh Arc per packet: the content-dedup path, not the
            // pointer fast path.
            let arrivals = vec![Packet::new(
                PacketId(slot),
                RoutePath::single_hop(LinkId(0)).shared(),
                slot,
            )];
            protocol.step(slot, &arrivals, &phy, &mut rng, &mut outcome);
        }
        assert_eq!(protocol.route_table().len(), 1);
        assert_eq!(protocol.injected_total(), 40);
    }
}

#[cfg(test)]
mod golden_trace {
    use super::tests_support_golden::golden_fingerprint;
    use super::FrameEvent;

    /// Fingerprint captured on the pre-buffer-reuse frame loop (the
    /// per-slot/per-frame `Vec`-allocating version). The refactor must
    /// not change a single decision: same seed → same `FrameEvent`
    /// stream and same delivered/failed trace, bit for bit.
    ///
    /// Re-pinned when the golden driver switched from the naive
    /// per-generator sampler to the batch injection engine
    /// (`BatchStochasticInjector`): skip-ahead sampling consumes one RNG
    /// draw per *injection* instead of one per generator per slot, so
    /// the same seed produces a different — equally valid — injection
    /// trace, and every downstream decision moves with it. The previous
    /// pin was `hash = 0x5a08_62e8_be39_c7fb`, `injected = 1788`,
    /// `delivered = 1397`.
    /// The route-id-native lane (`inject_interned_into` feeding
    /// `step_interned`) must replay the exact same run as the `Packet`
    /// lane: same RNG stream, same decisions, same fingerprint.
    #[test]
    fn interned_lane_reproduces_the_golden_fingerprint() {
        let (hash, _, delivered, injected) =
            super::tests_support_golden::golden_fingerprint_interned();
        assert_eq!(injected, 1742, "interned injection trace diverged");
        assert_eq!(delivered, 1381, "interned delivered trace diverged");
        assert_eq!(
            hash, 0xf543_e521_3371_1729,
            "interned lane fingerprint diverged from the Packet lane"
        );
    }

    #[test]
    fn frame_event_stream_survives_buffer_reuse_refactor() {
        let (hash, events_head, delivered, injected) = golden_fingerprint();
        assert_eq!(injected, 1742, "injection trace diverged");
        assert_eq!(delivered, 1381, "delivered trace diverged");
        assert_eq!(
            events_head[2],
            FrameEvent {
                frame: 2,
                active_at_start: 54,
                newly_failed: 0,
                cleanup_selected: 0,
                cleanup_served: 0,
                potential_after: 0,
            }
        );
        assert_eq!(
            events_head[5],
            FrameEvent {
                frame: 5,
                active_at_start: 76,
                newly_failed: 11,
                cleanup_selected: 3,
                cleanup_served: 3,
                potential_after: 54,
            }
        );
        assert_eq!(hash, 0xf543_e521_3371_1729, "frame/delivery trace diverged");
    }
}

#[cfg(test)]
pub(crate) mod tests_support_golden {
    use super::*;
    use crate::feasibility::{LossyFeasibility, PerLinkFeasibility};
    use crate::graph::line_network;
    use crate::ids::PacketId;
    use crate::injection::batch::BatchStochasticInjector;
    use crate::injection::stochastic::uniform_generators;
    use crate::injection::Injector;
    use crate::path::RoutePath;
    use crate::rng::root_rng;
    use crate::staticsched::greedy::GreedyPerLink;

    /// Drives a lossy multi-hop workload with a fixed seed and folds the
    /// full FrameEvent stream plus the delivered-packet trace into an FNV
    /// fingerprint. Captured once before the buffer-reuse refactor and
    /// re-captured when the batch injection engine replaced the naive
    /// per-generator sampler on this path; the regression test asserts
    /// the exact same value after any further refactor.
    pub fn golden_fingerprint() -> (u64, Vec<FrameEvent>, usize, u64) {
        let num_links = 3;
        let network = line_network(num_links);
        let config =
            FrameConfig::tuned(&GreedyPerLink::new(), network.significant_size(), 0.7).unwrap();
        let mut protocol = DynamicProtocol::new(GreedyPerLink::new(), config, num_links);
        let phy = LossyFeasibility::new(PerLinkFeasibility::new(num_links), 0.5);
        let full_path = RoutePath::new(&network, (0..num_links as u32).map(LinkId).collect())
            .unwrap()
            .shared();
        let mut injector =
            BatchStochasticInjector::from(uniform_generators([full_path], 0.5).unwrap());
        let slots = 60 * protocol.config().frame_len as u64;
        let mut rng = root_rng(20120616);
        let mut delivered = Vec::new();
        let mut next_id = 0u64;
        let mut injected = 0u64;
        let mut route_buf = Vec::new();
        let mut arrivals: Vec<Packet> = Vec::new();
        let mut outcome = SlotOutcome::empty();
        for slot in 0..slots {
            injector.inject_into(slot, &mut rng, &mut route_buf);
            arrivals.clear();
            arrivals.extend(route_buf.drain(..).map(|path| {
                let p = Packet::new(PacketId(next_id), path, slot);
                next_id += 1;
                p
            }));
            injected += arrivals.len() as u64;
            protocol.step(slot, &arrivals, &phy, &mut rng, &mut outcome);
            delivered.extend_from_slice(&outcome.delivered);
        }
        let events = protocol.take_frame_events();
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        let mut fold = |v: u64| {
            hash = (hash ^ v).wrapping_mul(0x1000_0000_01b3);
        };
        for e in &events {
            fold(e.frame);
            fold(e.active_at_start as u64);
            fold(e.newly_failed as u64);
            fold(e.cleanup_selected as u64);
            fold(e.cleanup_served as u64);
            fold(e.potential_after);
        }
        for d in &delivered {
            fold(d.id.0);
            fold(d.injected_at);
            fold(d.delivered_at);
            fold(d.path_len as u64);
        }
        (
            hash,
            events.into_iter().take(6).collect(),
            delivered.len(),
            injected,
        )
    }

    /// The same workload as [`golden_fingerprint`], driven through the
    /// route-id-native lane: the injector pre-interns routes against the
    /// protocol's own table and hands over [`InternedArrival`]s. Must
    /// reproduce the golden fingerprint bit for bit.
    pub fn golden_fingerprint_interned() -> (u64, Vec<FrameEvent>, usize, u64) {
        let num_links = 3;
        let network = line_network(num_links);
        let config =
            FrameConfig::tuned(&GreedyPerLink::new(), network.significant_size(), 0.7).unwrap();
        let mut protocol = DynamicProtocol::new(GreedyPerLink::new(), config, num_links);
        let phy = LossyFeasibility::new(PerLinkFeasibility::new(num_links), 0.5);
        let full_path = RoutePath::new(&network, (0..num_links as u32).map(LinkId).collect())
            .unwrap()
            .shared();
        let mut injector =
            BatchStochasticInjector::from(uniform_generators([full_path], 0.5).unwrap());
        assert!(injector.interned_capable());
        let slots = 60 * protocol.config().frame_len as u64;
        let mut rng = root_rng(20120616);
        let mut delivered = Vec::new();
        let mut next_id = 0u64;
        let mut injected = 0u64;
        let mut id_buf = Vec::new();
        let mut arrivals: Vec<InternedArrival> = Vec::new();
        let mut outcome = SlotOutcome::empty();
        for slot in 0..slots {
            {
                let table = protocol
                    .route_interner()
                    .expect("frame protocol interns routes");
                injector.inject_interned_into(slot, &mut rng, table, &mut id_buf);
            }
            arrivals.clear();
            arrivals.extend(id_buf.drain(..).map(|route| {
                let a = InternedArrival {
                    id: PacketId(next_id),
                    route,
                    injected_at: slot,
                };
                next_id += 1;
                a
            }));
            injected += arrivals.len() as u64;
            protocol.step_interned(slot, &arrivals, &phy, &mut rng, &mut outcome);
            delivered.extend_from_slice(&outcome.delivered);
        }
        let events = protocol.take_frame_events();
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        let mut fold = |v: u64| {
            hash = (hash ^ v).wrapping_mul(0x1000_0000_01b3);
        };
        for e in &events {
            fold(e.frame);
            fold(e.active_at_start as u64);
            fold(e.newly_failed as u64);
            fold(e.cleanup_selected as u64);
            fold(e.cleanup_served as u64);
            fold(e.potential_after);
        }
        for d in &delivered {
            fold(d.id.0);
            fold(d.injected_at);
            fold(d.delivered_at);
            fold(d.path_len as u64);
        }
        (
            hash,
            events.into_iter().take(6).collect(),
            delivered.len(),
            injected,
        )
    }
}
