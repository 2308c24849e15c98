//! Timing wrappers around the public layer traits, and the recorder they
//! report to.
//!
//! The benchmark measures every layer from outside. [`TimedProtocol`],
//! [`TimedInjector`] and [`TimedPhy`] forward every method of
//! `Protocol`, `Injector` and `Feasibility` to the wrapped value, and time
//! the calls that do a layer's work. An untraced [`Recorder`] keeps only
//! the thread CPU time of each busy `step` (one that issued at least one
//! attempt). A traced one keeps one [`Span`] per call in wall time, nested
//! by the call stack, plus the counts measured at the same boundaries;
//! self times are computed from the spans as they close.

use crate::clock::thread_cpu_ns;
use dps_core::feasibility::{Attempt, Feasibility};
use dps_core::injection::Injector;
use dps_core::invariants::InvariantViolation;
use dps_core::packet::Packet;
use dps_core::path::RoutePath;
use dps_core::protocol::{InternedArrival, Protocol, SlotOutcome};
use dps_core::route_table::{RouteId, RouteTable};
use rand::RngCore;
use std::cell::RefCell;
use std::io::{self, Write};
use std::sync::Arc;
use std::time::Instant;

/// What a span measured.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpanName {
    /// `SubstrateSpec::build`.
    SetupSubstrate,
    /// `ProtocolSpec::lambda_max`.
    SetupLambdaMax,
    /// `ProtocolSpec::build`.
    SetupProtocol,
    /// `InjectorSpec::build` (includes the injection-rate normalisation).
    SetupInjector,
    /// The whole slot loop (`run_simulation`).
    Run,
    /// `Protocol::step` / `step_interned` / `on_slot`.
    Step,
    /// `Feasibility::successes` / `successes_into`.
    Phy,
    /// `Injector::inject` / `inject_into` / `inject_interned_into`.
    Inject,
    /// `Injector::next_active_slot` and `Protocol::next_event_slot`.
    Hint,
}

const SPAN_NAMES: usize = 9;

impl SpanName {
    /// The span's name as written to the trace file.
    pub fn as_str(self) -> &'static str {
        match self {
            SpanName::SetupSubstrate => "setup.substrate",
            SpanName::SetupLambdaMax => "setup.lambda_max",
            SpanName::SetupProtocol => "setup.protocol",
            SpanName::SetupInjector => "setup.injector",
            SpanName::Run => "run",
            SpanName::Step => "slot.step",
            SpanName::Phy => "slot.phy",
            SpanName::Inject => "slot.inject",
            SpanName::Hint => "slot.hint",
        }
    }
}

/// One closed span: nanoseconds since the recorder was created.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// What was measured.
    pub name: SpanName,
    /// Index of the enclosing span in [`Recorder::spans`], if kept.
    pub parent: Option<u32>,
    /// Start, in ns since the recorder's epoch.
    pub start_ns: u64,
    /// End, in ns since the recorder's epoch.
    pub end_ns: u64,
}

struct Open {
    name: SpanName,
    index: Option<u32>,
    start_ns: u64,
    child_ns: u64,
}

/// Work counted at the wrapped boundaries.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    /// `step`-family calls (both lanes).
    pub steps: u64,
    /// Of those, `step_interned` calls.
    pub interned_steps: u64,
    /// Attempts the protocol reported issuing.
    pub attempts: u64,
    /// Slots covered by `skip_idle_slots`.
    pub slots_skipped: u64,
    /// Feasibility-oracle calls.
    pub phy_calls: u64,
    /// Attempts handed to the oracle.
    pub phy_attempts: u64,
    /// Attempts the oracle let through.
    pub phy_successes: u64,
    /// Packets the injector emitted.
    pub injected: u64,
}

/// Collects what the timing wrappers measure.
pub struct Recorder {
    traced: bool,
    epoch: Instant,
    step_start_cpu_ns: u64,
    busy_step_ns: Vec<u64>,
    spans: Vec<Span>,
    span_cap: usize,
    open: Vec<Open>,
    self_ns: [u64; SPAN_NAMES],
    total_ns: [u64; SPAN_NAMES],
    /// Work counted at the wrapped boundaries.
    pub counters: Counters,
}

/// Spans a traced recorder keeps before the slot loop is sized.
const SETUP_SPANS: usize = 16;

/// Most spans a traced recorder keeps (192 MiB); self times stay exact
/// past the cap, only the kept list stops growing.
const MAX_SPANS: usize = 1 << 23;

impl Recorder {
    fn new(traced: bool) -> Self {
        Recorder {
            traced,
            epoch: Instant::now(),
            step_start_cpu_ns: 0,
            busy_step_ns: Vec::new(),
            spans: Vec::with_capacity(if traced { SETUP_SPANS } else { 0 }),
            span_cap: if traced { SETUP_SPANS } else { 0 },
            open: Vec::with_capacity(8),
            self_ns: [0; SPAN_NAMES],
            total_ns: [0; SPAN_NAMES],
            counters: Counters::default(),
        }
    }

    /// A recorder that times busy `step` calls only.
    pub fn untraced() -> Self {
        Self::new(false)
    }

    /// A recorder that keeps a span per wrapped call.
    pub fn traced() -> Self {
        Self::new(true)
    }

    /// Preallocates for a slot loop of `slots` slots, so recording
    /// allocates nothing inside it: one busy-step sample per slot, or
    /// (traced) up to five spans per slot — step, phy, inject and two
    /// hints — plus the run span.
    pub fn reserve_for_slots(&mut self, slots: usize) {
        if self.traced {
            self.span_cap = (self.spans.len() + slots.saturating_mul(5) + 1).min(MAX_SPANS);
            self.spans.reserve(self.span_cap - self.spans.len());
        } else {
            self.busy_step_ns.reserve(slots);
        }
    }

    /// Whether this recorder keeps spans.
    pub fn is_traced(&self) -> bool {
        self.traced
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span (traced recorders only).
    pub fn enter(&mut self, name: SpanName) {
        if !self.traced {
            return;
        }
        let index = (self.spans.len() < self.span_cap).then(|| {
            self.spans.push(Span {
                name,
                parent: self.open.last().and_then(|o| o.index),
                start_ns: 0,
                end_ns: 0,
            });
            (self.spans.len() - 1) as u32
        });
        let start_ns = self.now_ns();
        if let Some(i) = index {
            self.spans[i as usize].start_ns = start_ns;
        }
        self.open.push(Open {
            name,
            index,
            start_ns,
            child_ns: 0,
        });
    }

    /// Closes the innermost open span (traced recorders only).
    pub fn exit(&mut self) {
        if !self.traced {
            return;
        }
        let end_ns = self.now_ns();
        let open = self.open.pop().expect("exit matches an enter");
        let duration = end_ns - open.start_ns;
        if let Some(i) = open.index {
            self.spans[i as usize].end_ns = end_ns;
        }
        self.total_ns[open.name as usize] += duration;
        self.self_ns[open.name as usize] += duration.saturating_sub(open.child_ns);
        if let Some(parent) = self.open.last_mut() {
            parent.child_ns += duration;
        }
    }

    fn begin_step(&mut self) {
        if self.traced {
            self.enter(SpanName::Step);
        } else {
            self.step_start_cpu_ns = thread_cpu_ns();
        }
    }

    fn end_step(&mut self, attempts: usize, interned: bool) {
        if self.traced {
            self.exit();
        } else if attempts > 0 {
            self.busy_step_ns
                .push(thread_cpu_ns() - self.step_start_cpu_ns);
        }
        self.counters.steps += 1;
        self.counters.interned_steps += u64::from(interned);
        self.counters.attempts += attempts as u64;
    }

    /// Thread CPU time of each busy `step` call, in ns (untraced
    /// recorders).
    pub fn busy_step_ns(&self) -> &[u64] {
        &self.busy_step_ns
    }

    /// The kept spans, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summed duration of `name` spans minus their children's, in s.
    pub fn self_s(&self, name: SpanName) -> f64 {
        self.self_ns[name as usize] as f64 * 1e-9
    }

    /// Summed duration of `name` spans, in s.
    pub fn total_s(&self, name: SpanName) -> f64 {
        self.total_ns[name as usize] as f64 * 1e-9
    }

    /// Writes the kept spans as tab-separated `index name parent start_ns
    /// end_ns` lines.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_spans(&self, out: impl Write) -> io::Result<()> {
        let mut out = io::BufWriter::new(out);
        writeln!(out, "index\tname\tparent\tstart_ns\tend_ns")?;
        for (i, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or(-1, i64::from);
            writeln!(
                out,
                "{i}\t{}\t{parent}\t{}\t{}",
                span.name.as_str(),
                span.start_ns,
                span.end_ns
            )?;
        }
        out.flush()
    }
}

/// Times one closure as a span named `name`.
pub fn timed<T>(rec: &RefCell<Recorder>, name: SpanName, f: impl FnOnce() -> T) -> T {
    rec.borrow_mut().enter(name);
    let value = f();
    rec.borrow_mut().exit();
    value
}

/// A protocol whose `step` calls are timed.
pub struct TimedProtocol<'r, P> {
    inner: P,
    rec: &'r RefCell<Recorder>,
}

impl<'r, P: Protocol> TimedProtocol<'r, P> {
    /// Wraps `inner`, reporting to `rec`.
    pub fn new(inner: P, rec: &'r RefCell<Recorder>) -> Self {
        TimedProtocol { inner, rec }
    }
}

impl<P: Protocol> Protocol for TimedProtocol<'_, P> {
    fn step(
        &mut self,
        slot: u64,
        arrivals: &[Packet],
        phy: &dyn Feasibility,
        rng: &mut dyn RngCore,
        out: &mut SlotOutcome,
    ) {
        self.rec.borrow_mut().begin_step();
        self.inner.step(slot, arrivals, phy, rng, out);
        self.rec.borrow_mut().end_step(out.attempts, false);
    }

    fn on_slot(
        &mut self,
        slot: u64,
        arrivals: Vec<Packet>,
        phy: &dyn Feasibility,
        rng: &mut dyn RngCore,
    ) -> SlotOutcome {
        self.rec.borrow_mut().begin_step();
        let out = self.inner.on_slot(slot, arrivals, phy, rng);
        self.rec.borrow_mut().end_step(out.attempts, false);
        out
    }

    fn backlog(&self) -> usize {
        self.inner.backlog()
    }

    fn potential(&self) -> u64 {
        self.inner.potential()
    }

    fn next_event_slot(&self, now: u64) -> Option<u64> {
        timed(self.rec, SpanName::Hint, || self.inner.next_event_slot(now))
    }

    fn skip_idle_slots(&mut self, from: u64, count: u64) {
        self.rec.borrow_mut().counters.slots_skipped += count;
        self.inner.skip_idle_slots(from, count);
    }

    fn check_invariants(&self) -> Result<(), InvariantViolation> {
        self.inner.check_invariants()
    }

    fn route_interner(&mut self) -> Option<&mut RouteTable> {
        self.inner.route_interner()
    }

    fn step_interned(
        &mut self,
        slot: u64,
        arrivals: &[InternedArrival],
        phy: &dyn Feasibility,
        rng: &mut dyn RngCore,
        out: &mut SlotOutcome,
    ) {
        self.rec.borrow_mut().begin_step();
        self.inner.step_interned(slot, arrivals, phy, rng, out);
        self.rec.borrow_mut().end_step(out.attempts, true);
    }
}

/// An injector whose calls are timed as `slot.inject` / `slot.hint`.
pub struct TimedInjector<'r, I> {
    inner: I,
    rec: &'r RefCell<Recorder>,
}

impl<'r, I: Injector> TimedInjector<'r, I> {
    /// Wraps `inner`, reporting to `rec`.
    pub fn new(inner: I, rec: &'r RefCell<Recorder>) -> Self {
        TimedInjector { inner, rec }
    }

    fn count(&self, packets: usize) {
        self.rec.borrow_mut().counters.injected += packets as u64;
    }
}

impl<I: Injector> Injector for TimedInjector<'_, I> {
    fn inject(&mut self, slot: u64, rng: &mut dyn RngCore) -> Vec<Arc<RoutePath>> {
        let out = timed(self.rec, SpanName::Inject, || self.inner.inject(slot, rng));
        self.count(out.len());
        out
    }

    fn inject_into(&mut self, slot: u64, rng: &mut dyn RngCore, out: &mut Vec<Arc<RoutePath>>) {
        timed(self.rec, SpanName::Inject, || {
            self.inner.inject_into(slot, rng, out)
        });
        self.count(out.len());
    }

    fn next_active_slot(&mut self, after: u64, rng: &mut dyn RngCore) -> Option<u64> {
        timed(self.rec, SpanName::Hint, || {
            self.inner.next_active_slot(after, rng)
        })
    }

    fn interned_capable(&self) -> bool {
        self.inner.interned_capable()
    }

    fn inject_interned_into(
        &mut self,
        slot: u64,
        rng: &mut dyn RngCore,
        table: &mut RouteTable,
        out: &mut Vec<RouteId>,
    ) {
        timed(self.rec, SpanName::Inject, || {
            self.inner.inject_interned_into(slot, rng, table, out)
        });
        self.count(out.len());
    }
}

/// A feasibility oracle whose calls are timed as `slot.phy`.
pub struct TimedPhy<'a> {
    inner: &'a dyn Feasibility,
    rec: &'a RefCell<Recorder>,
}

impl<'a> TimedPhy<'a> {
    /// Wraps `inner`, reporting to `rec`.
    pub fn new(inner: &'a dyn Feasibility, rec: &'a RefCell<Recorder>) -> Self {
        TimedPhy { inner, rec }
    }

    fn count(&self, attempts: usize, flags: &[bool]) {
        let counters = &mut self.rec.borrow_mut().counters;
        counters.phy_calls += 1;
        counters.phy_attempts += attempts as u64;
        counters.phy_successes += flags.iter().filter(|&&ok| ok).count() as u64;
    }
}

impl Feasibility for TimedPhy<'_> {
    fn successes(&self, attempts: &[Attempt], rng: &mut dyn RngCore) -> Vec<bool> {
        let out = timed(self.rec, SpanName::Phy, || {
            self.inner.successes(attempts, rng)
        });
        self.count(attempts.len(), &out);
        out
    }

    fn successes_into(&self, attempts: &[Attempt], out: &mut Vec<bool>, rng: &mut dyn RngCore) {
        timed(self.rec, SpanName::Phy, || {
            self.inner.successes_into(attempts, out, rng)
        });
        self.count(attempts.len(), out);
    }
}
