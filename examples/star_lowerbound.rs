//! The Theorem 20 lower bound, live (Figure 1): on the star instance a
//! global clock separates short links (even slots) from the long link
//! (odd slots) and everything is stable at per-link load 0.4 — while the
//! acknowledgment-based local-clock protocol starves the long link, whose
//! queue grows without bound.
//!
//! This example shows the scenario API's extension point: the star
//! substrate and the two Section 8 protocols are **custom
//! implementations of the object-safe factory traits**
//! ([`SubstrateSpec`], [`ProtocolSpec`]), composed with the built-in
//! stochastic injector spec — no special-case glue.
//!
//! Run with `cargo run --release --example star_lowerbound`.

use dps::prelude::*;
use dps_core::interference::IdentityInterference;
use dps_core::path::RoutePath;
use dps_scenario::{BuiltProtocol, ScenarioError, Substrate};
use dps_sinr::instances::star_instance;
use dps_sinr::star::{GlobalClockStarProtocol, LocalClockAlohaProtocol};
use std::sync::Arc;

/// The Figure 1 star instance as a custom substrate: `m − 1` short links
/// plus one long link, exact SINR feasibility with uniform powers.
#[derive(Debug)]
struct StarSubstrate {
    m: usize,
}

impl SubstrateSpec for StarSubstrate {
    fn label(&self) -> String {
        format!("Figure 1 star (m = {})", self.m)
    }

    fn build(&self) -> Result<Substrate, ScenarioError> {
        let star = star_instance(self.m);
        let routes: Vec<Arc<RoutePath>> = star
            .short_links
            .iter()
            .chain(std::iter::once(&star.long_link))
            .map(|&l| RoutePath::single_hop(l).shared())
            .collect();
        let num_links = star.net.num_links();
        Ok(Substrate {
            label: SubstrateSpec::label(self),
            num_links,
            m: num_links,
            model: Arc::new(IdentityInterference::new(num_links)),
            feasibility: Arc::new(SinrFeasibility::new(&star.net, &UniformPower::unit())),
            routes,
            conflict: None,
            sinr_cache: None,
            sinr_tiles: None,
        })
    }
}

/// The two Section 8 protocols as a custom protocol spec.
#[derive(Clone, Copy, Debug)]
enum StarProtocol {
    /// Shared slot parity: short links on even slots, long link on odd.
    GlobalClock,
    /// Acknowledgment-based slotted ALOHA with per-station clocks.
    LocalClock { q: f64 },
}

impl ProtocolSpec for StarProtocol {
    fn label(&self) -> String {
        match self {
            StarProtocol::GlobalClock => "global clock (Theorem 20)".into(),
            StarProtocol::LocalClock { q } => format!("local-clock ALOHA (q = {q})"),
        }
    }

    fn lambda_max(&self, _substrate: &Substrate) -> Result<f64, ScenarioError> {
        // Per-link capacity of the alternating schedule.
        Ok(0.5)
    }

    fn build(
        &self,
        substrate: &Substrate,
        lambda: f64,
        _provision_cap: f64,
    ) -> Result<BuiltProtocol, ScenarioError> {
        // The star protocols are slot-level: no frame structure. The
        // instance is rebuilt deterministically from the substrate size
        // (star_instance(m) has m − 1 short links plus the long one).
        let star = star_instance(substrate.num_links);
        let protocol: Box<dyn dps_core::protocol::Protocol + Send> = match self {
            StarProtocol::GlobalClock => Box::new(GlobalClockStarProtocol::new(&star)),
            StarProtocol::LocalClock { q } => Box::new(LocalClockAlohaProtocol::new(&star, *q)),
        };
        Ok(BuiltProtocol {
            protocol,
            frame_len: 1,
            lambda_max: 0.5,
            provisioned: lambda,
        })
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let m = 16;
    let lambda = 0.4;
    let slots = 30_000;
    println!(
        "Figure 1 star instance: {} short links + 1 long link",
        m - 1
    );

    let scenario_for = |protocol: StarProtocol| Scenario {
        name: format!("star-lowerbound/{}", protocol.label()),
        substrate: Box::new(StarSubstrate { m }),
        protocol: Box::new(protocol),
        injector: Box::new(InjectionConfig {
            lambda,
            ..InjectionConfig::default()
        }),
        lambda,
        relative_lambda: false,
        smoothing: None,
        validate_window: None,
        run: RunConfig {
            frames: slots, // frameless protocols: one slot per frame
            seed: 3,
            provision_cap: 0.95,
            events: true,
        },
    };

    let global = scenario_for(StarProtocol::GlobalClock).run()?;
    let local = scenario_for(StarProtocol::LocalClock { q: 0.75 }).run()?;

    println!("\n         slot   global backlog   local backlog");
    let series = global
        .report
        .backlog_series
        .iter()
        .zip(&local.report.backlog_series);
    for (i, (&(slot, g), &(_, l))) in series.enumerate() {
        if i % 64 == 63 {
            println!("{:>13}   {:>14}   {:>13}", slot, g, l);
        }
    }
    println!(
        "\nglobal clock: backlog {} ({:?}) — local clock: long link starved, backlog {} ({:?})",
        global.report.final_backlog, global.verdict, local.report.final_backlog, local.verdict,
    );
    assert!(global.verdict.is_stable(), "global clock must be stable");
    assert!(
        local.report.final_backlog > 10 * global.report.final_backlog.max(1),
        "local clocks must starve the long link"
    );
    Ok(())
}
