//! **E3 — Theorem 8 (Section 4.2).** The expected latency of a packet
//! with route length `d` is `O(d·T)`: one frame per hop plus the waiting
//! frame.
//!
//! Workload: a directed line of 8 links; each route length
//! `d ∈ {1, 2, 4, 8}` gets its own generator starting at link 0. The table
//! reports the mean latency per `d` in slots and normalized by `d·T` —
//! the theorem predicts the normalized column is a constant (≈ 1–3,
//! accounting for the injection-to-frame-start wait).

use crate::setup::{dynamic_run, run_and_classify};
use crate::ExpConfig;
use dps_core::ids::LinkId;
use dps_core::injection::batch::BatchStochasticInjector;
use dps_core::injection::stochastic::{GeneratorSpec, StochasticInjector};
use dps_core::path::RoutePath;
use dps_core::staticsched::greedy::GreedyPerLink;
use dps_routing::workloads::RoutingSetup;
use dps_sim::table::{fmt1, fmt3, Table};

/// Runs E3.
pub fn run(cfg: &ExpConfig) -> Vec<Table> {
    let depths: &[usize] = &[1, 2, 4, 8];
    let num_links = 8;
    let setup = RoutingSetup::line(num_links, 1).expect("valid line");
    let per_route_rate = 0.08;

    // One generator per depth, all routes starting at link 0 so every
    // packet of depth d crosses exactly d links.
    let generators: Vec<GeneratorSpec> = depths
        .iter()
        .map(|&d| {
            let route = RoutePath::new(&setup.network, (0..d as u32).map(LinkId).collect())
                .expect("prefix of the line")
                .shared();
            GeneratorSpec::bernoulli(route, per_route_rate).expect("valid probability")
        })
        .collect();
    let mut injector = BatchStochasticInjector::new(StochasticInjector::new(generators));

    let mut run = dynamic_run(
        GreedyPerLink::new(),
        setup.network.significant_size(),
        setup.network.num_links(),
        0.9,
    )
    .expect("valid config");
    let t = run.config.frame_len as f64;
    let frames = if cfg.full { 400 } else { 120 };
    let slots = frames * run.config.frame_len as u64;
    let (report, verdict) = run_and_classify(
        &mut run.protocol,
        &mut injector,
        &setup.feasibility,
        slots,
        cfg.seed,
        0,
    );
    assert!(verdict.is_stable(), "latency experiment must run stable");

    let mut table = Table::new(
        format!(
            "E3: latency vs path length d (line, m = 8, T = {} slots); Theorem 8 \
             predicts mean latency = O(d*T), i.e. a flat last column",
            run.config.frame_len
        ),
        &[
            "d",
            "delivered",
            "mean latency",
            "max latency",
            "latency/(d*T)",
        ],
    );
    for &d in depths {
        let summary = report.latency_summary_for_path_len(d);
        table.push_row(vec![
            d.to_string(),
            summary.count.to_string(),
            fmt1(summary.mean),
            fmt1(summary.max),
            fmt3(summary.mean / (d as f64 * t)),
        ]);
    }
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_grows_linearly_with_depth() {
        let cfg = ExpConfig::default();
        let tables = run(&cfg);
        assert_eq!(tables[0].num_rows(), 4);
        // Re-run the core computation to assert the linearity numerically.
        let setup = RoutingSetup::line(8, 1).unwrap();
        let mut run_ = dynamic_run(GreedyPerLink::new(), 8, 8, 0.9).unwrap();
        let t = run_.config.frame_len as f64;
        let routes = [1usize, 4]
            .iter()
            .map(|&d| {
                GeneratorSpec::bernoulli(
                    RoutePath::new(&setup.network, (0..d as u32).map(LinkId).collect())
                        .unwrap()
                        .shared(),
                    0.1,
                )
                .unwrap()
            })
            .collect();
        let mut injector = BatchStochasticInjector::new(StochasticInjector::new(routes));
        let slots = 120 * run_.config.frame_len as u64;
        let (report, _) = run_and_classify(
            &mut run_.protocol,
            &mut injector,
            &setup.feasibility,
            slots,
            3,
            0,
        );
        let l1 = report.latency_summary_for_path_len(1).mean;
        let l4 = report.latency_summary_for_path_len(4).mean;
        assert!(l1 > 0.0 && l4 > 0.0);
        // A packet advances one hop per frame, so l_d ≈ (d − 1 + wait)·T
        // with wait ≈ 0.5–1.5 frames: the *difference* l4 − l1 is the
        // clean estimate of 3 frames.
        let extra_frames = (l4 - l1) / t;
        assert!(
            (2.0..4.5).contains(&extra_frames),
            "3 extra hops should cost ≈ 3 frames, got {extra_frames} (l1 = {l1}, l4 = {l4})"
        );
        // And each is a small multiple of d·T.
        assert!(l4 < 4.0 * 4.0 * t);
    }
}
