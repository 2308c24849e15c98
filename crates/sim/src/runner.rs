//! The slot loop: inject, schedule, observe — with an event-driven fast
//! path that jumps over provably inert slot ranges.
//!
//! Every run starts on the classic per-slot loop. When
//! [`SimulationConfig::events`] is on (the default) the loop additionally
//! queries the hint methods after each stepped slot —
//! [`Protocol::next_event_slot`] and `Injector::next_active_slot` — and,
//! when both hints agree that a range of upcoming slots can neither
//! receive arrivals nor do anything observable, replaces that range with
//! one [`Protocol::skip_idle_slots`] call and a clock jump. Skipped slots
//! consume no RNG and change no observable state, so a run produces the
//! same [`SimulationReport`] (up to
//! [`SimulationReport::idle_slots_skipped`], an engine diagnostic) and
//! the same trace stream (skips are recorded explicitly; see
//! [`crate::trace::TraceRecorder::expand`]) whether the fast path engaged
//! or not. Any unavailable hint (`None`) simply keeps the loop on per-slot
//! stepping — correctness never depends on a hint being present.

use crate::events::{Event, EventKind, EventQueue, SimClock};
use crate::stats::Summary;
use dps_core::feasibility::Feasibility;
use dps_core::ids::PacketId;
use dps_core::injection::Injector;
use dps_core::packet::Packet;
use dps_core::potential::PotentialSeries;
use dps_core::protocol::{InternedArrival, Protocol, SlotOutcome};
use dps_core::rng::split_stream;
use dps_core::route_table::RouteId;

/// Configuration of one simulation run.
#[derive(Clone, Copy, Debug)]
pub struct SimulationConfig {
    /// Number of slots to simulate.
    pub slots: u64,
    /// Root seed; combined with `stream` for independent repetitions.
    pub seed: u64,
    /// RNG stream index (repetition number).
    pub stream: u64,
    /// Record the backlog every this many slots.
    pub sample_every: u64,
    /// Whether the event-driven fast path may skip inert slot ranges.
    /// Results are identical either way; turning this off forces the
    /// per-slot reference loop (useful for differential testing).
    pub events: bool,
}

impl SimulationConfig {
    /// A run of `slots` slots with the given seed, sampling the backlog
    /// roughly 512 times. The event-driven fast path is enabled.
    pub fn new(slots: u64, seed: u64) -> Self {
        SimulationConfig {
            slots,
            seed,
            stream: 0,
            sample_every: (slots / 512).max(1),
            events: true,
        }
    }

    /// Selects an independent repetition stream.
    pub fn with_stream(mut self, stream: u64) -> Self {
        self.stream = stream;
        self
    }

    /// Overrides the backlog sampling interval.
    ///
    /// # Panics
    ///
    /// Panics if `sample_every == 0`.
    pub fn with_sample_every(mut self, sample_every: u64) -> Self {
        assert!(sample_every > 0, "sampling interval must be positive");
        self.sample_every = sample_every;
        self
    }

    /// Enables or disables the event-driven fast path.
    pub fn with_events(mut self, events: bool) -> Self {
        self.events = events;
        self
    }
}

/// Everything a run produced.
#[derive(Clone, Debug)]
pub struct SimulationReport {
    /// Total packets injected.
    pub injected: u64,
    /// Total packets delivered.
    pub delivered: u64,
    /// Backlog samples as `(slot, backlog)` pairs.
    pub backlog_series: Vec<(u64, usize)>,
    /// Final backlog.
    pub final_backlog: usize,
    /// Latencies of delivered packets, in slots.
    pub latencies: Vec<u64>,
    /// Path length of each delivered packet, aligned with `latencies`.
    pub path_lens: Vec<usize>,
    /// Potential samples (one per backlog sample).
    pub potential: PotentialSeries,
    /// Total transmission attempts.
    pub attempts: u64,
    /// Total successful transmissions.
    pub successes: u64,
    /// Number of slots simulated.
    pub slots: u64,
    /// Slots covered by event-engine jumps instead of being stepped
    /// individually. Diagnostic only: skipped slots are provably inert,
    /// so every other report field is independent of this count (a
    /// per-slot run of the same configuration reports 0 here and is
    /// otherwise identical).
    pub idle_slots_skipped: u64,
}

impl SimulationReport {
    /// Delivered fraction of injected packets.
    pub fn delivery_ratio(&self) -> f64 {
        if self.injected == 0 {
            return 1.0;
        }
        self.delivered as f64 / self.injected as f64
    }

    /// Summary of all delivery latencies.
    pub fn latency_summary(&self) -> Summary {
        let xs: Vec<f64> = self.latencies.iter().map(|&l| l as f64).collect();
        Summary::of(&xs)
    }

    /// Summary of delivery latencies restricted to packets of path length
    /// `d` — the grouping Theorem 8's `O(d·T)` bound is stated over.
    pub fn latency_summary_for_path_len(&self, d: usize) -> Summary {
        let xs: Vec<f64> = self
            .latencies
            .iter()
            .zip(&self.path_lens)
            .filter(|(_, &len)| len == d)
            .map(|(&l, _)| l as f64)
            .collect();
        Summary::of(&xs)
    }

    /// Mean backlog over the recorded samples.
    pub fn mean_backlog(&self) -> f64 {
        if self.backlog_series.is_empty() {
            return 0.0;
        }
        self.backlog_series
            .iter()
            .map(|&(_, b)| b as f64)
            .sum::<f64>()
            / self.backlog_series.len() as f64
    }

    /// Fraction of attempts that succeeded.
    pub fn success_ratio(&self) -> f64 {
        if self.attempts == 0 {
            return 1.0;
        }
        self.successes as f64 / self.attempts as f64
    }
}

/// Runs `protocol` for `config.slots` slots, feeding it `injector`'s
/// packets and judging attempts with `phy`.
///
/// Packet ids are assigned densely in injection order; packets are stamped
/// with their injection slot, so reported latencies include all queueing
/// (and, under the adversarial wrapper, the random initial delays — as in
/// Theorem 11).
pub fn run_simulation<P, I>(
    protocol: &mut P,
    injector: &mut I,
    phy: &dyn Feasibility,
    config: SimulationConfig,
) -> SimulationReport
where
    P: Protocol + ?Sized,
    I: Injector + ?Sized,
{
    run_simulation_inner(protocol, injector, phy, config, None)
}

/// Like [`run_simulation`], additionally recording every slot into
/// `trace` (which keeps a bounded window; see
/// [`crate::trace::TraceRecorder`]).
pub fn run_simulation_traced<P, I>(
    protocol: &mut P,
    injector: &mut I,
    phy: &dyn Feasibility,
    config: SimulationConfig,
    trace: &mut crate::trace::TraceRecorder,
) -> SimulationReport
where
    P: Protocol + ?Sized,
    I: Injector + ?Sized,
{
    run_simulation_inner(protocol, injector, phy, config, Some(trace))
}

fn run_simulation_inner<P, I>(
    protocol: &mut P,
    injector: &mut I,
    phy: &dyn Feasibility,
    config: SimulationConfig,
    mut trace: Option<&mut crate::trace::TraceRecorder>,
) -> SimulationReport
where
    P: Protocol + ?Sized,
    I: Injector + ?Sized,
{
    let mut rng = split_stream(config.seed, config.stream);
    let mut report = SimulationReport {
        injected: 0,
        delivered: 0,
        backlog_series: Vec::new(),
        final_backlog: 0,
        latencies: Vec::new(),
        path_lens: Vec::new(),
        potential: PotentialSeries::new(),
        attempts: 0,
        successes: 0,
        slots: config.slots,
        idle_slots_skipped: 0,
    };
    let mut next_id = 0u64;
    let mut delivery_capacity_reserved = false;
    // Reused across slots so the whole run is allocation-free in steady
    // state: the injector writes routes into `route_buf` (or route ids
    // into `id_buf` on the interned lane), arrivals are stamped into
    // `arrivals`/`interned_arrivals`, and the protocol writes each
    // slot's result into `outcome` (`Protocol::step`'s
    // `SlotOutcome::clear` reuse contract).
    let mut route_buf = Vec::new();
    let mut arrivals: Vec<Packet> = Vec::new();
    let mut id_buf: Vec<RouteId> = Vec::new();
    let mut interned_arrivals: Vec<InternedArrival> = Vec::new();
    let mut outcome = SlotOutcome::empty();
    // The interned lane is picked once per run: both sides must opt in,
    // and the choice is observable only through performance (the core
    // crate pins a golden fingerprint proving lane equivalence).
    let interned = injector.interned_capable() && protocol.route_interner().is_some();
    let mut clock = SimClock::new(config.slots);
    let mut queue = EventQueue::new();
    // Runtime invariant guard cadence: the checks walk the whole
    // protocol state (store, route table, every buffered packet), so
    // asserting them after *every* slot turns an O(slots) run quadratic
    // — worse in overloaded runs whose backlog itself grows linearly.
    // Check densely while the state is young — that is where new
    // bookkeeping bugs surface in exhaustive-model counterexamples too
    // — then back off geometrically (interval ∝ elapsed slots), which
    // keeps the total guard cost linear whatever the backlog does. The
    // frame-boundary guard inside the protocol is unaffected.
    #[cfg(feature = "check-invariants")]
    let (mut stepped_slots, mut next_check) = (0u64, 0u64);
    while !clock.is_done() {
        let slot = clock.now();
        let injected_now = if interned {
            {
                let table = protocol
                    .route_interner()
                    .expect("interned lane is gated on route_interner()");
                injector.inject_interned_into(slot, &mut rng, table, &mut id_buf);
            }
            interned_arrivals.clear();
            interned_arrivals.extend(id_buf.drain(..).map(|route| {
                let arrival = InternedArrival {
                    id: PacketId(next_id),
                    route,
                    injected_at: slot,
                };
                next_id += 1;
                arrival
            }));
            protocol.step_interned(slot, &interned_arrivals, phy, &mut rng, &mut outcome);
            interned_arrivals.len()
        } else {
            injector.inject_into(slot, &mut rng, &mut route_buf);
            arrivals.clear();
            arrivals.extend(route_buf.drain(..).map(|path| {
                let packet = Packet::new(PacketId(next_id), path, slot);
                next_id += 1;
                packet
            }));
            protocol.step(slot, &arrivals, phy, &mut rng, &mut outcome);
            arrivals.len()
        };
        // Runtime invariant guard: with the `check-invariants` feature
        // on, stepped slots re-prove the protocol's bookkeeping
        // identities (dense early, sampled later — see the cadence note
        // above), so a long unattended run fails loudly near the first
        // breach instead of silently producing corrupt statistics.
        #[cfg(feature = "check-invariants")]
        {
            stepped_slots += 1;
            if stepped_slots >= next_check {
                if let Err(violation) = protocol.check_invariants() {
                    panic!("after slot {slot}: {violation}");
                }
                next_check = if stepped_slots < 1024 {
                    stepped_slots + 1
                } else {
                    stepped_slots + (stepped_slots / 16).max(64)
                };
            }
        }
        report.injected += injected_now as u64;
        report.attempts += outcome.attempts as u64;
        report.successes += outcome.successes as u64;
        let delivered_now = outcome.delivered.len();
        if !delivery_capacity_reserved && slot >= config.slots / 16 {
            // Size the two per-delivery vectors once, for the horizon at
            // the injection rate seen so far (a delivery needs an
            // injection; at most 16× the injections so far). Doubling in
            // lockstep, each would otherwise move past the other through
            // the heap at every growth; with glibc that left up to 23 MiB
            // of freed buffers resident in the second run of a process.
            delivery_capacity_reserved = true;
            let expected = (u128::from(report.injected) * u128::from(config.slots)
                / (u128::from(slot) + 1)) as usize;
            let more = expected.saturating_sub(report.latencies.len());
            report.latencies.reserve_exact(more);
            report.path_lens.reserve_exact(more);
        }
        for d in &outcome.delivered {
            report.delivered += 1;
            report.latencies.push(d.latency());
            report.path_lens.push(d.path_len);
        }
        if let Some(trace) = trace.as_deref_mut() {
            trace.record(crate::trace::SlotRecord {
                slot,
                injected: injected_now,
                attempts: outcome.attempts,
                successes: outcome.successes,
                delivered: delivered_now,
                backlog: protocol.backlog(),
            });
        }
        if slot.is_multiple_of(config.sample_every) {
            report.backlog_series.push((slot, protocol.backlog()));
            report.potential.record(protocol.potential());
        }
        clock.tick();
        if !config.events || clock.is_done() {
            continue;
        }
        // Event-driven fast path: both hints must be available, and both
        // must clear the next slot, for a jump to be sound. The protocol
        // hint covers slots `slot+1..proto_next` (inert given no
        // arrivals); the injector hint covers `now..inj_next` (no
        // arrivals). Either `None` falls back to per-slot stepping.
        let Some(proto_next) = protocol.next_event_slot(slot) else {
            continue;
        };
        let now = clock.now();
        let Some(inj_next) = injector.next_active_slot(now, &mut rng) else {
            continue;
        };
        if proto_next.min(inj_next) <= now {
            continue;
        }
        queue.clear();
        queue.push(Event {
            slot: inj_next,
            kind: EventKind::Injection,
        });
        queue.push(Event {
            slot: proto_next,
            kind: EventKind::Protocol,
        });
        queue.push(Event {
            slot: config.slots,
            kind: EventKind::End,
        });
        let target = queue.peek_slot().expect("queue was just filled");
        if target <= now {
            continue;
        }
        let gap = target - now;
        protocol.skip_idle_slots(now, gap);
        report.idle_slots_skipped += gap;
        // A bulk skip must land in a state as consistent as stepping
        // each inert slot would have.
        #[cfg(feature = "check-invariants")]
        if let Err(violation) = protocol.check_invariants() {
            panic!("after skipping slots {now}..{target}: {violation}");
        }
        let backlog = protocol.backlog();
        if let Some(trace) = trace.as_deref_mut() {
            trace.record_skip(crate::trace::SkipRecord {
                from_slot: now,
                slots: gap,
                backlog,
            });
        }
        // Replay the periodic samples the per-slot loop would have taken
        // inside the skipped range: skipped slots are inert, so backlog
        // and potential are constant across them and the series stays
        // bit-for-bit identical without stepping the sampled slots.
        let potential = protocol.potential();
        let mut sample_slot = now.next_multiple_of(config.sample_every);
        while sample_slot < target {
            report.backlog_series.push((sample_slot, backlog));
            report.potential.record(potential);
            sample_slot += config.sample_every;
        }
        clock.advance_to(target);
    }
    // The terminal state is always verified, whatever the sampling
    // cadence landed on.
    #[cfg(feature = "check-invariants")]
    if let Err(violation) = protocol.check_invariants() {
        panic!("at end of run ({} slots): {violation}", config.slots);
    }
    report.final_backlog = protocol.backlog();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use dps_core::dynamic::{DynamicProtocol, FrameConfig};
    use dps_core::feasibility::PerLinkFeasibility;
    use dps_core::ids::LinkId;
    use dps_core::injection::stochastic::uniform_generators;
    use dps_core::path::RoutePath;
    use dps_core::staticsched::greedy::GreedyPerLink;

    fn setup(
        lambda: f64,
    ) -> (
        DynamicProtocol<GreedyPerLink>,
        dps_core::injection::stochastic::StochasticInjector,
        PerLinkFeasibility,
    ) {
        let num_links = 3;
        let config = FrameConfig::tuned(&GreedyPerLink::new(), num_links, 0.9).unwrap();
        let protocol = DynamicProtocol::new(GreedyPerLink::new(), config, num_links);
        let routes: Vec<_> = (0..num_links as u32)
            .map(|l| RoutePath::single_hop(LinkId(l)).shared())
            .collect();
        let injector = uniform_generators(routes, lambda).unwrap();
        (protocol, injector, PerLinkFeasibility::new(num_links))
    }

    #[test]
    fn report_conserves_packets() {
        let (mut protocol, mut injector, phy) = setup(0.5);
        let report = run_simulation(
            &mut protocol,
            &mut injector,
            &phy,
            SimulationConfig::new(20_000, 42),
        );
        assert!(report.injected > 0);
        assert_eq!(
            report.delivered + report.final_backlog as u64,
            report.injected
        );
        assert_eq!(report.latencies.len() as u64, report.delivered);
    }

    #[test]
    fn different_streams_differ_same_stream_repeats() {
        let run = |stream: u64| {
            let (mut protocol, mut injector, phy) = setup(0.5);
            run_simulation(
                &mut protocol,
                &mut injector,
                &phy,
                SimulationConfig::new(5_000, 42).with_stream(stream),
            )
        };
        let a = run(0);
        let b = run(0);
        let c = run(1);
        assert_eq!(a.injected, b.injected, "same stream must reproduce");
        assert_eq!(a.delivered, b.delivered);
        assert_ne!(
            (a.injected, a.delivered),
            (c.injected, c.delivered),
            "different streams should diverge"
        );
    }

    #[test]
    fn backlog_series_is_sampled() {
        let (mut protocol, mut injector, phy) = setup(0.3);
        let report = run_simulation(
            &mut protocol,
            &mut injector,
            &phy,
            SimulationConfig::new(1000, 1).with_sample_every(100),
        );
        assert_eq!(report.backlog_series.len(), 10);
        assert_eq!(report.potential.len(), 10);
        assert_eq!(report.backlog_series[0].0, 0);
        assert_eq!(report.backlog_series[9].0, 900);
    }

    #[test]
    fn latency_summaries_by_path_length() {
        let (mut protocol, mut injector, phy) = setup(0.5);
        let report = run_simulation(
            &mut protocol,
            &mut injector,
            &phy,
            SimulationConfig::new(20_000, 3),
        );
        let all = report.latency_summary();
        let d1 = report.latency_summary_for_path_len(1);
        assert_eq!(all.count, d1.count, "all routes here have one hop");
        assert_eq!(report.latency_summary_for_path_len(7).count, 0);
        assert!(all.mean > 0.0);
    }

    #[test]
    fn traced_run_matches_untraced_and_records_slots() {
        let (mut protocol, mut injector, phy) = setup(0.4);
        let mut trace = crate::trace::TraceRecorder::new(256);
        let cfg = SimulationConfig::new(1000, 11);
        let traced =
            super::run_simulation_traced(&mut protocol, &mut injector, &phy, cfg, &mut trace);
        let (mut protocol2, mut injector2, phy2) = setup(0.4);
        let untraced = run_simulation(&mut protocol2, &mut injector2, &phy2, cfg);
        assert_eq!(traced.injected, untraced.injected);
        assert_eq!(traced.delivered, untraced.delivered);
        assert_eq!(trace.len(), 256, "window keeps the last 256 of 1000 slots");
        assert_eq!(trace.dropped(), 1000 - 256);
        let total_injected_in_window: usize = trace.records().map(|r| r.injected).sum();
        assert!(total_injected_in_window > 0);
    }

    #[test]
    fn ratios_behave_at_edges() {
        let empty = SimulationReport {
            injected: 0,
            delivered: 0,
            backlog_series: Vec::new(),
            final_backlog: 0,
            latencies: Vec::new(),
            path_lens: Vec::new(),
            potential: PotentialSeries::new(),
            attempts: 0,
            successes: 0,
            slots: 0,
            idle_slots_skipped: 0,
        };
        assert_eq!(empty.delivery_ratio(), 1.0);
        assert_eq!(empty.success_ratio(), 1.0);
        assert_eq!(empty.mean_backlog(), 0.0);
    }

    /// Asserts two reports are identical in every observable field
    /// (everything except the `idle_slots_skipped` diagnostic).
    fn assert_reports_equal(a: &SimulationReport, b: &SimulationReport) {
        assert_eq!(a.injected, b.injected);
        assert_eq!(a.delivered, b.delivered);
        assert_eq!(a.backlog_series, b.backlog_series);
        assert_eq!(a.final_backlog, b.final_backlog);
        assert_eq!(a.latencies, b.latencies);
        assert_eq!(a.path_lens, b.path_lens);
        assert_eq!(a.potential.samples(), b.potential.samples());
        assert_eq!(a.attempts, b.attempts);
        assert_eq!(a.successes, b.successes);
        assert_eq!(a.slots, b.slots);
    }

    fn sparse_setup(
        lambda: f64,
    ) -> (
        DynamicProtocol<GreedyPerLink>,
        dps_core::injection::batch::BatchStochasticInjector,
        PerLinkFeasibility,
    ) {
        let num_links = 3;
        let config = FrameConfig::tuned(&GreedyPerLink::new(), num_links, 0.9).unwrap();
        let protocol = DynamicProtocol::new(GreedyPerLink::new(), config, num_links);
        let routes: Vec<_> = (0..num_links as u32)
            .map(|l| RoutePath::single_hop(LinkId(l)).shared())
            .collect();
        let injector = dps_core::injection::batch::BatchStochasticInjector::new(
            uniform_generators(routes, lambda).unwrap(),
        );
        (protocol, injector, PerLinkFeasibility::new(num_links))
    }

    #[test]
    fn event_path_matches_slot_path_on_sparse_traffic() {
        let cfg = SimulationConfig::new(50_000, 9).with_sample_every(1000);
        let (mut p1, mut i1, phy) = sparse_setup(0.0004);
        let fast = run_simulation(&mut p1, &mut i1, &phy, cfg.with_events(true));
        let (mut p2, mut i2, phy2) = sparse_setup(0.0004);
        let slow = run_simulation(&mut p2, &mut i2, &phy2, cfg.with_events(false));
        assert_reports_equal(&fast, &slow);
        assert_eq!(slow.idle_slots_skipped, 0);
        assert!(
            fast.idle_slots_skipped > cfg.slots / 2,
            "sparse run skipped only {} of {} slots",
            fast.idle_slots_skipped,
            cfg.slots
        );
    }

    #[test]
    fn event_path_matches_slot_path_on_dense_traffic() {
        // Dense traffic never skips, but the event machinery must still
        // agree with the reference loop bit for bit.
        let cfg = SimulationConfig::new(8_000, 10);
        let (mut p1, mut i1, phy) = sparse_setup(0.5);
        let fast = run_simulation(&mut p1, &mut i1, &phy, cfg.with_events(true));
        let (mut p2, mut i2, phy2) = sparse_setup(0.5);
        let slow = run_simulation(&mut p2, &mut i2, &phy2, cfg.with_events(false));
        assert_reports_equal(&fast, &slow);
        assert!(fast.injected > 0);
    }

    #[test]
    fn hintless_injector_keeps_per_slot_stepping() {
        // The plain `StochasticInjector` exposes no calendar hint, so the
        // fast path must never engage even with events enabled.
        let (mut protocol, mut injector, phy) = setup(0.001);
        let report = run_simulation(
            &mut protocol,
            &mut injector,
            &phy,
            SimulationConfig::new(5_000, 13),
        );
        assert_eq!(report.idle_slots_skipped, 0);
    }

    #[test]
    fn traced_event_run_expands_to_the_per_slot_trace() {
        let cfg = SimulationConfig::new(20_000, 21).with_sample_every(500);
        let (mut p1, mut i1, phy) = sparse_setup(0.0005);
        let mut fast_trace = crate::trace::TraceRecorder::new(cfg.slots as usize);
        let fast = super::run_simulation_traced(
            &mut p1,
            &mut i1,
            &phy,
            cfg.with_events(true),
            &mut fast_trace,
        );
        let (mut p2, mut i2, phy2) = sparse_setup(0.0005);
        let mut slow_trace = crate::trace::TraceRecorder::new(cfg.slots as usize);
        let slow = super::run_simulation_traced(
            &mut p2,
            &mut i2,
            &phy2,
            cfg.with_events(false),
            &mut slow_trace,
        );
        assert_reports_equal(&fast, &slow);
        assert!(fast.idle_slots_skipped > 0, "sparse run must skip");
        assert!(
            fast_trace.skips().next().is_some(),
            "skips must be recorded explicitly"
        );
        // The fast trace holds far fewer per-slot records…
        assert!(fast_trace.len() < slow_trace.len());
        // …but expanding its skips reproduces the reference stream.
        let expanded = fast_trace.expand();
        let reference: Vec<_> = slow_trace.records().copied().collect();
        assert_eq!(expanded, reference);
    }
}
