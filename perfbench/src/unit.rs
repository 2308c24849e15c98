//! One measured unit: set a workload up from its spec, run its slot loop
//! through the timing wrappers, and check the output.

use crate::clock::cpu_seconds;
use crate::probe::{timed, Recorder, SpanName, TimedInjector, TimedPhy, TimedProtocol};
use dps_core::injection::Injector;
use dps_core::protocol::Protocol;
use dps_scenario::{BuiltProtocol, Scenario, ScenarioError, Substrate};
use dps_sim::runner::{run_simulation, SimulationConfig, SimulationReport};
use dps_sinr::tiles::TileDiagnostics;
use std::cell::RefCell;
use std::sync::Arc;

/// Thread CPU time of each set-up step, in seconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    /// `SubstrateSpec::build`.
    pub substrate_s: f64,
    /// `ProtocolSpec::lambda_max` plus `ProtocolSpec::build`.
    pub protocol_s: f64,
    /// `InjectorSpec::build`, including the rate normalisation.
    pub injector_s: f64,
}

impl SetupTimes {
    /// Spec to first slot.
    pub fn total_s(&self) -> f64 {
        self.substrate_s + self.protocol_s + self.injector_s
    }
}

/// A workload set up and ready for its first slot.
pub struct Setup {
    /// The built substrate.
    pub substrate: Arc<Substrate>,
    /// The built protocol.
    pub protocol: BuiltProtocol,
    /// The built injector.
    pub injector: Box<dyn Injector + Send>,
    /// How long each step took.
    pub times: SetupTimes,
}

/// Runs `f` as a span named `name`, returning its value and thread CPU
/// seconds.
fn stopwatch<T>(rec: &RefCell<Recorder>, name: SpanName, f: impl FnOnce() -> T) -> (T, f64) {
    cpu_seconds(|| timed(rec, name, f))
}

/// Builds substrate, protocol and injector for `scenario` the way
/// `Scenario::run_stream_on` does, timing each step (and recording
/// `setup.*` spans when `rec` is traced).
///
/// # Errors
///
/// Propagates the factories' errors.
pub fn set_up(scenario: &Scenario, rec: &RefCell<Recorder>) -> Result<Setup, ScenarioError> {
    let (substrate, substrate_s) =
        stopwatch(rec, SpanName::SetupSubstrate, || scenario.build_substrate());
    let substrate = substrate?;
    let (lambda_max, lambda_max_s) = stopwatch(rec, SpanName::SetupLambdaMax, || {
        scenario.protocol.lambda_max(&substrate)
    });
    let lambda_max = lambda_max?;
    let lambda = if scenario.relative_lambda {
        scenario.lambda * lambda_max
    } else {
        scenario.lambda
    };
    let (protocol, build_s) = stopwatch(rec, SpanName::SetupProtocol, || {
        scenario
            .protocol
            .build(&substrate, lambda, scenario.run.provision_cap)
    });
    let protocol = protocol?;
    let (injector, injector_s) = stopwatch(rec, SpanName::SetupInjector, || {
        scenario.injector.build(&substrate, lambda)
    });
    Ok(Setup {
        injector: injector?,
        substrate,
        protocol,
        times: SetupTimes {
            substrate_s,
            protocol_s: lambda_max_s + build_s,
            injector_s,
        },
    })
}

/// Everything one unit produced.
pub struct UnitOutcome {
    /// The simulation report.
    pub report: SimulationReport,
    /// Set-up times.
    pub setup: SetupTimes,
    /// Thread CPU seconds of the slot loop.
    pub loop_s: f64,
    /// Whether the bare protocol/injector pair qualified for the
    /// route-id lane.
    pub interned_lane: bool,
    /// Whether the substrate judges slots through a SINR oracle.
    pub uses_sinr: bool,
    /// The tiled index's counters after the run, for tiled substrates.
    pub tiles: Option<TileDiagnostics>,
    /// What the wrappers measured.
    pub recorder: Recorder,
    /// Digest of the simulated statistics.
    pub fingerprint: u64,
}

/// Sets `scenario` up and runs it once: untraced (busy `step` calls
/// timed) or traced (every layer wrapped and spanned).
///
/// # Errors
///
/// A set-up error or a failed output check.
pub fn run_unit(scenario: &Scenario, traced: bool) -> Result<UnitOutcome, String> {
    let recorder = RefCell::new(if traced {
        Recorder::traced()
    } else {
        Recorder::untraced()
    });
    let setup = set_up(scenario, &recorder).map_err(|e| e.to_string())?;
    let slots = scenario.run.frames.max(1) * setup.protocol.frame_len.max(1) as u64;
    recorder.borrow_mut().reserve_for_slots(slots as usize);
    let config = SimulationConfig::new(slots, scenario.run.seed).with_events(scenario.run.events);
    let Setup {
        substrate,
        protocol,
        mut injector,
        times,
    } = setup;
    let mut protocol = protocol.protocol;
    let interned_lane = injector.interned_capable() && protocol.route_interner().is_some();
    let phy = &*substrate.feasibility;
    let mut timed_protocol = TimedProtocol::new(protocol, &recorder);
    let (report, loop_s) = cpu_seconds(|| {
        if traced {
            let timed_phy = TimedPhy::new(phy, &recorder);
            let mut timed_injector = TimedInjector::new(injector, &recorder);
            timed(&recorder, SpanName::Run, || {
                run_simulation(&mut timed_protocol, &mut timed_injector, &timed_phy, config)
            })
        } else {
            run_simulation(&mut timed_protocol, &mut injector, phy, config)
        }
    });
    drop(timed_protocol);
    let unit = UnitOutcome {
        fingerprint: fingerprint(&report),
        report,
        setup: times,
        loop_s,
        interned_lane,
        uses_sinr: substrate.sinr_cache.is_some() || substrate.sinr_tiles.is_some(),
        tiles: substrate.sinr_tiles.as_ref().map(|t| t.diagnostics()),
        recorder: recorder.into_inner(),
    };
    check_output(&unit)?;
    Ok(unit)
}

/// Checks a unit's output: packets are conserved, no attempt succeeds
/// twice, every delivery has a latency, the wrappers saw what the report
/// says, and the route-id lane was taken exactly when the bare pair
/// qualified for it.
fn check_output(unit: &UnitOutcome) -> Result<(), String> {
    let r = &unit.report;
    let c = &unit.recorder.counters;
    let checks = [
        (
            r.delivered + r.final_backlog as u64 == r.injected,
            "delivered + final backlog != injected",
        ),
        (r.successes <= r.attempts, "more successes than attempts"),
        (
            r.latencies.len() as u64 == r.delivered,
            "latency count != delivered",
        ),
        (
            c.attempts == r.attempts,
            "wrapper attempts != report attempts",
        ),
        (
            !unit.recorder.is_traced() || c.injected == r.injected,
            "wrapper injected != report injected",
        ),
        (
            c.slots_skipped == r.idle_slots_skipped,
            "wrapper skipped slots != report skipped slots",
        ),
        (
            c.steps + c.slots_skipped == r.slots,
            "stepped + skipped slots != simulated slots",
        ),
        (
            c.interned_steps == if unit.interned_lane { c.steps } else { 0 },
            "route-id lane selection differs from the bare pair",
        ),
        (r.injected > 0, "nothing was injected"),
    ];
    match checks.iter().find(|(ok, _)| !ok) {
        Some((_, what)) => Err(format!("output check failed: {what}")),
        None => Ok(()),
    }
}

/// FNV-1a digest of every simulated statistic of a report (everything
/// but the engine's `idle_slots_skipped` diagnostic).
pub fn fingerprint(report: &SimulationReport) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut feed = |value: u64| {
        for byte in value.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for value in [
        report.injected,
        report.delivered,
        report.final_backlog as u64,
        report.attempts,
        report.successes,
        report.slots,
    ] {
        feed(value);
    }
    report.latencies.iter().for_each(|&l| feed(l));
    report.path_lens.iter().for_each(|&l| feed(l as u64));
    for &(slot, backlog) in &report.backlog_series {
        feed(slot);
        feed(backlog as u64);
    }
    report.potential.samples().iter().for_each(|&p| feed(p));
    hash
}
