//! **E10 — Theorem 20 and Figure 1 (Section 8).** Without a global clock
//! no acknowledgment-based protocol can be `m/2·ln m`-competitive in the
//! SINR model with uniform powers.
//!
//! On the Figure 1 star instance (`m − 1` short links that always succeed
//! plus one long link that requires global silence):
//!
//! * the global-clock protocol (shorts on even slots, long link on odd
//!   slots) is stable for every per-link rate `λ < 1/2`;
//! * the local-clock ALOHA protocol starves the long link as soon as the
//!   short links carry load `λ ≳ ln m / m` — its queue grows linearly
//!   while every short queue stays bounded.
//!
//! The table reports, per network size and rate, both protocols' verdicts
//! and the long link's final queue length.

use crate::ExpConfig;
use dps_core::protocol::Protocol;
use dps_sim::runner::{run_simulation, SimulationConfig};
use dps_sim::stability::classify_stability;
use dps_sim::table::{fmt3, Table};
use dps_sinr::feasibility::SinrFeasibility;
use dps_sinr::instances::{star_instance, StarInstance};
use dps_sinr::power::UniformPower;
use dps_sinr::star::{GlobalClockStarProtocol, LocalClockAlohaProtocol};

use crate::setup::injector_at_rate;
use dps_core::interference::IdentityInterference;
use dps_core::path::RoutePath;

fn star_routes(star: &StarInstance) -> Vec<std::sync::Arc<RoutePath>> {
    star.short_links
        .iter()
        .chain(std::iter::once(&star.long_link))
        .map(|&l| RoutePath::single_hop(l).shared())
        .collect()
}

struct StarRun {
    verdict: String,
    long_queue: usize,
    delivered_ratio: f64,
}

fn run_protocol<P: Protocol>(
    star: &StarInstance,
    protocol: &mut P,
    long_queue: impl Fn(&P) -> usize,
    lambda: f64,
    slots: u64,
    seed: u64,
    stream: u64,
) -> StarRun {
    let oracle = SinrFeasibility::new(&star.net, &UniformPower::unit());
    // Rate λ *per link*: identity model ⇒ per-link expected load is λ.
    let model = IdentityInterference::new(star.net.num_links());
    let mut injector = injector_at_rate(star_routes(star), &model, lambda).expect("feasible rate");
    let report = run_simulation(
        protocol,
        &mut injector,
        &oracle,
        SimulationConfig::new(slots, seed).with_stream(stream),
    );
    let verdict = classify_stability(&report, 0.05);
    StarRun {
        verdict: crate::setup::verdict_cell(&verdict),
        long_queue: long_queue(protocol),
        delivered_ratio: report.delivery_ratio(),
    }
}

/// Runs E10.
pub fn run(cfg: &ExpConfig) -> Vec<Table> {
    let sizes: &[usize] = if cfg.full { &[8, 16, 32, 64] } else { &[8, 16] };
    let slots = if cfg.full { 60_000 } else { 20_000 };
    let mut table = Table::new(
        "E10: Figure 1 star — global clock (even/odd split) vs local-clock \
         ALOHA; Theorem 20 predicts the long link starves without a global \
         clock once per-link load reaches ~ln m / m",
        &[
            "m",
            "lambda/link",
            "global verdict",
            "global long-queue",
            "local verdict",
            "local long-queue",
            "local delivered",
        ],
    );
    for &m in sizes {
        let star = star_instance(m);
        let heavy = 0.4;
        let light = (2.0 * (m as f64).ln() / m as f64).min(0.45);
        for (i, &lambda) in [heavy, light].iter().enumerate() {
            let mut global = GlobalClockStarProtocol::new(&star);
            let g = run_protocol(
                &star,
                &mut global,
                GlobalClockStarProtocol::long_queue_len,
                lambda,
                slots,
                cfg.seed,
                (m * 10 + i) as u64,
            );
            let mut local = LocalClockAlohaProtocol::new(&star, 0.75);
            let l = run_protocol(
                &star,
                &mut local,
                LocalClockAlohaProtocol::long_queue_len,
                lambda,
                slots,
                cfg.seed,
                (m * 10 + i + 5) as u64,
            );
            table.push_row(vec![
                m.to_string(),
                fmt3(lambda),
                g.verdict,
                g.long_queue.to_string(),
                l.verdict,
                l.long_queue.to_string(),
                fmt3(l.delivered_ratio),
            ]);
        }
    }
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_clock_stable_local_clock_starves_at_heavy_load() {
        let star = star_instance(12);
        let lambda = 0.4;
        let slots = 15_000;
        let mut global = GlobalClockStarProtocol::new(&star);
        let g = run_protocol(
            &star,
            &mut global,
            GlobalClockStarProtocol::long_queue_len,
            lambda,
            slots,
            3,
            0,
        );
        let mut local = LocalClockAlohaProtocol::new(&star, 0.75);
        let l = run_protocol(
            &star,
            &mut local,
            LocalClockAlohaProtocol::long_queue_len,
            lambda,
            slots,
            3,
            1,
        );
        assert_eq!(g.verdict, "stable");
        assert!(g.long_queue < 100, "global long queue {}", g.long_queue);
        assert!(
            l.long_queue > 1000,
            "local-clock long queue should grow linearly, got {}",
            l.long_queue
        );
    }
}
