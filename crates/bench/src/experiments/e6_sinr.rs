//! **E6 — Corollaries 12, 13, 14 (Section 6).** Achievable injection
//! rates in the SINR model as the network grows:
//!
//! * **linear powers** (Cor 12): constant-competitive — the protocol's
//!   maximum rate `1/f(m)` does not degrade with `m`;
//! * **monotone (sub-)linear powers** (Cor 13): `O(log² m)`-competitive —
//!   the rate decays logarithmically (our transformed uniform-rate
//!   algorithm has `f(m) = Θ(log m)`);
//! * **power control** (Cor 14): centralized first-fit under the §6.2
//!   matrix.
//!
//! For each network size and scheme the table reports the theoretical
//! maximum rate `1/f(m)`, the stability verdict at 50% and 75% of it, and
//! the mean latency at 50% — the *shape* to check is the `1/f(m)` column:
//! flat for linear powers, shrinking like `1/log m` for the others.

use crate::setup::{
    dynamic_run, injector_at_rate, run_and_classify, single_hop_routes, verdict_cell,
};
use crate::ExpConfig;
use dps_core::feasibility::Feasibility;
use dps_core::interference::InterferenceModel;
use dps_core::staticsched::two_stage::TwoStageDecayScheduler;
use dps_core::staticsched::uniform_rate::UniformRateScheduler;
use dps_core::staticsched::StaticScheduler;
use dps_core::transform::DenseTransform;
use dps_sim::table::{fmt3, Table};
use dps_sinr::feasibility::SinrFeasibility;
use dps_sinr::instances::random_instance;
use dps_sinr::matrix::SinrInterference;
use dps_sinr::network::SinrNetwork;
use dps_sinr::params::SinrParams;
use dps_sinr::power::{LinearPower, SquareRootPower};
use dps_sinr::scheduler::PowerControlScheduler;

struct ProbeResult {
    lambda_max: f64,
    verdict_50: String,
    verdict_75: String,
    latency_50: f64,
}

/// Probes one scheduler/model/oracle combination at 50% and 75% of its
/// theoretical maximum rate.
#[allow(clippy::too_many_arguments)]
fn probe<S, M, F>(
    scheduler: S,
    model: &M,
    phy: &F,
    m: usize,
    frames: u64,
    probe_75: bool,
    seed: u64,
    stream: u64,
) -> ProbeResult
where
    S: StaticScheduler + Clone + 'static,
    M: InterferenceModel + ?Sized,
    F: Feasibility,
{
    let lambda_max = 1.0 / scheduler.f_of(m);
    let mut verdicts = Vec::new();
    let mut latency_50 = 0.0;
    // The 75% probe's frame length is ~4x the 50% one (T = Θ(1/ε²));
    // fast mode skips it.
    let loads: &[f64] = if probe_75 { &[0.5, 0.75] } else { &[0.5] };
    for (i, &load) in loads.iter().enumerate() {
        let lambda = load * lambda_max;
        let mut run = dynamic_run(scheduler.clone(), m, m, lambda)
            .expect("rate below threshold must configure");
        let mut injector =
            injector_at_rate(single_hop_routes(m), model, lambda).expect("feasible rate");
        let slots = frames * run.config.frame_len as u64;
        let (report, verdict) = run_and_classify(
            &mut run.protocol,
            &mut injector,
            phy,
            slots,
            seed,
            stream * 10 + i as u64,
        );
        if i == 0 {
            latency_50 = report.latency_summary().mean;
        }
        verdicts.push(verdict_cell(&verdict));
    }
    ProbeResult {
        lambda_max,
        verdict_75: if probe_75 {
            verdicts.pop().expect("75% probe ran")
        } else {
            "(full mode)".to_string()
        },
        verdict_50: verdicts.pop().expect("50% probe ran"),
        latency_50,
    }
}

fn instance(m: usize, seed: u64) -> SinrNetwork {
    let mut rng = dps_core::rng::split_stream(seed, 7000 + m as u64);
    // Density scales with m so the interference landscape stays comparable.
    let side = 20.0 * (m as f64).sqrt();
    random_instance(m, side, 1.0, 3.0, SinrParams::default_noiseless(), &mut rng)
}

/// Runs E6.
pub fn run(cfg: &ExpConfig) -> Vec<Table> {
    let sizes: &[usize] = if cfg.full {
        &[16, 32, 64, 128]
    } else {
        &[16, 32]
    };
    let frames = if cfg.full { 40 } else { 15 };
    let mut table = Table::new(
        "E6: SINR achievable rates vs network size m; Cor 12 predicts the \
         linear-power column flat in m, Cor 13/14 an O(1/log m)-ish decay",
        &[
            "m",
            "scheme",
            "1/f(m)",
            "verdict @50%",
            "verdict @75%",
            "latency @50%",
        ],
    );
    for &m in sizes {
        let net = instance(m, cfg.seed);
        let alpha = net.params().alpha;

        // Corollary 12: linear powers, two-stage scheduler.
        let linear = LinearPower::new(alpha);
        let model = SinrInterference::fixed_power(&net, &linear);
        let phy = SinrFeasibility::new(&net, &linear);
        let r = probe(
            TwoStageDecayScheduler::new(m),
            &model,
            &phy,
            m,
            frames,
            cfg.full,
            cfg.seed,
            m as u64,
        );
        table.push_row(vec![
            m.to_string(),
            "linear (Cor 12)".into(),
            fmt3(r.lambda_max),
            r.verdict_50,
            r.verdict_75,
            fmt3(r.latency_50),
        ]);

        // Corollary 13: monotone sub-linear powers (square-root),
        // transformed uniform-rate scheduler (f = Θ(log m)).
        let sqrt_power = SquareRootPower::new(alpha);
        let model = SinrInterference::monotone_power(&net, &sqrt_power);
        let phy = SinrFeasibility::new(&net, &sqrt_power);
        let r = probe(
            DenseTransform::new(UniformRateScheduler::new(), m).with_chi(8.0),
            &model,
            &phy,
            m,
            frames,
            cfg.full,
            cfg.seed,
            1000 + m as u64,
        );
        table.push_row(vec![
            m.to_string(),
            "monotone (Cor 13)".into(),
            fmt3(r.lambda_max),
            r.verdict_50,
            r.verdict_75,
            fmt3(r.latency_50),
        ]);

        // Corollary 14: power control — §6.2 matrix, centralized first-fit,
        // square-root powers as the concrete assignment (see DESIGN.md).
        let model = SinrInterference::power_control(&net);
        let phy = SinrFeasibility::new(&net, &SquareRootPower::new(alpha));
        let r = probe(
            PowerControlScheduler::new(&net),
            &model,
            &phy,
            m,
            frames,
            cfg.full,
            cfg.seed,
            2000 + m as u64,
        );
        table.push_row(vec![
            m.to_string(),
            "power-ctl (Cor 14)".into(),
            fmt3(r.lambda_max),
            r.verdict_50,
            r.verdict_75,
            fmt3(r.latency_50),
        ]);
    }
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_rate_is_constant_monotone_rate_decays() {
        let two_stage_16 = TwoStageDecayScheduler::new(16);
        let two_stage_256 = TwoStageDecayScheduler::new(256);
        assert_eq!(
            1.0 / two_stage_16.f_of(16),
            1.0 / two_stage_256.f_of(256),
            "Cor 12: linear-power rate must not depend on m"
        );
        let tr_16 = DenseTransform::new(UniformRateScheduler::new(), 16).with_chi(8.0);
        let tr_256 = DenseTransform::new(UniformRateScheduler::new(), 256).with_chi(8.0);
        assert!(
            1.0 / tr_256.f_of(256) < 1.0 / tr_16.f_of(16),
            "Cor 13: monotone-power rate must decay with m"
        );
    }

    #[test]
    fn linear_scheme_is_stable_at_half_rate() {
        let m = 16;
        let net = instance(m, 3);
        let alpha = net.params().alpha;
        let linear = LinearPower::new(alpha);
        let model = SinrInterference::fixed_power(&net, &linear);
        let phy = SinrFeasibility::new(&net, &linear);
        let r = probe(
            TwoStageDecayScheduler::new(m),
            &model,
            &phy,
            m,
            12,
            false,
            3,
            1,
        );
        assert_eq!(r.verdict_50, "stable");
    }
}
