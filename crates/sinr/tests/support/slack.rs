//! Places one receiver's SINR threshold a chosen number of ulps from its
//! signal, for the boundary sweeps of the certified cube verdicts
//! (`prop_sinr` and the `tiles` unit tests, which include this file with
//! `#[path]`).

use dps_sinr::network::{SinrNetwork, SinrNetworkBuilder};
use dps_sinr::params::SinrParams;

/// The SINR parameters at path-loss exponent `alpha` under which a
/// receiver with `signal` and interference sum `interference` has slack
/// `signal − β·(interference + ν)` of exactly `ulps` ulps of `signal`
/// (positive: a success by that much), as the oracles compute it.
///
/// `β` is the largest power of two with `β·interference` at most the
/// threshold, so `β·x` is exact and `ν < interference`: the noise then
/// cannot round the interference sum's last bits away. `None` when
/// `interference` is not positive and finite, or no `ν ≥ 0` lands on the
/// threshold exactly.
pub fn params_for_slack(
    alpha: f64,
    signal: f64,
    interference: f64,
    ulps: i32,
) -> Option<SinrParams> {
    if !(interference > 0.0 && interference.is_finite()) {
        return None;
    }
    let mut threshold = signal;
    for _ in 0..ulps.unsigned_abs() {
        threshold = if ulps > 0 {
            threshold.next_down()
        } else {
            threshold.next_up()
        };
    }
    let mut beta = 1.0f64;
    while beta * interference > threshold {
        beta /= 2.0;
    }
    while 2.0 * beta * interference <= threshold {
        beta *= 2.0;
    }
    let target = threshold / beta;
    let mut noise = (target - interference).max(0.0);
    while interference + noise < target {
        noise = noise.next_up();
    }
    while noise > 0.0 && interference + noise > target {
        noise = noise.next_down();
    }
    (beta.is_normal() && beta * (interference + noise) == threshold)
        .then(|| SinrParams::new(alpha, beta, noise))
}

/// `net`'s links, each between two nodes of its own at the same
/// positions, under `params`: the same geometry, so the same gains.
pub fn with_params(net: &SinrNetwork, params: SinrParams) -> SinrNetwork {
    let mut b = SinrNetworkBuilder::new(params);
    for (&sender, &receiver) in net.link_senders().iter().zip(net.link_receivers()) {
        b.add_isolated_link(sender, receiver);
    }
    b.build()
}
