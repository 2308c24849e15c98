//! SINR instance generators: random networks for the competitive-ratio
//! experiments, line networks for multi-hop latency, and the **Figure 1
//! star instance** of the Theorem 20 lower bound.

use crate::geom::Point;
use crate::network::{SinrNetwork, SinrNetworkBuilder};
use crate::params::SinrParams;
use dps_core::ids::LinkId;
use rand::{Rng, RngCore};

/// A random single-hop instance: `m` links with senders placed uniformly
/// in a square of the given side length and receivers at a uniform random
/// direction and length drawn from `[min_len, max_len]`.
///
/// # Panics
///
/// Panics if `m == 0`, `side <= 0`, or the length range is empty or
/// non-positive.
pub fn random_instance(
    m: usize,
    side: f64,
    min_len: f64,
    max_len: f64,
    params: SinrParams,
    rng: &mut dyn RngCore,
) -> SinrNetwork {
    assert!(m > 0, "instance needs at least one link");
    assert!(side > 0.0, "square side must be positive");
    assert!(
        0.0 < min_len && min_len <= max_len,
        "invalid link length range [{min_len}, {max_len}]"
    );
    let mut b = SinrNetworkBuilder::new(params);
    for _ in 0..m {
        let sx = rng.gen::<f64>() * side;
        let sy = rng.gen::<f64>() * side;
        let angle = rng.gen::<f64>() * std::f64::consts::TAU;
        let len = min_len + rng.gen::<f64>() * (max_len - min_len);
        let rx = sx + len * angle.cos();
        let ry = sy + len * angle.sin();
        b.add_isolated_link((sx, sy), (rx, ry));
    }
    b.max_path_len(1);
    b.build()
}

/// A multi-hop line: `hops + 1` nodes at the given spacing, one link
/// between consecutive nodes. Used for the latency-vs-path-length
/// experiment (E3) on an actual SINR substrate.
///
/// # Panics
///
/// Panics if `hops == 0` or `spacing <= 0`.
pub fn line_instance(hops: usize, spacing: f64, params: SinrParams) -> SinrNetwork {
    assert!(hops > 0, "line needs at least one hop");
    assert!(spacing > 0.0, "spacing must be positive");
    let mut b = SinrNetworkBuilder::new(params);
    let nodes: Vec<_> = (0..=hops)
        .map(|i| b.add_node((i as f64 * spacing, 0.0)))
        .collect();
    for i in 0..hops {
        b.add_link(nodes[i], nodes[i + 1]);
    }
    b.max_path_len(hops);
    b.build()
}

/// The Figure 1 lower-bound instance (Section 8).
#[derive(Clone, Debug)]
pub struct StarInstance {
    /// The geometry, with uniform powers intended.
    pub net: SinrNetwork,
    /// The `m − 1` short links; they always succeed, no matter what else
    /// transmits.
    pub short_links: Vec<LinkId>,
    /// The long link; it succeeds only if **all** short links are silent.
    pub long_link: LinkId,
}

/// Builds the Figure 1 star instance with `m` links total (`m − 1` short
/// plus one long).
///
/// Geometry (uniform power 1, `α = 3`, `β = 2`):
///
/// * short links of length 1 at spacing 4 along a row — far enough apart
///   that their mutual interference accumulates to ≈ 0.04, far below the
///   SINR margin;
/// * the long link has length `2m` with its receiver hovering just above
///   the centre of the row, so every short sender is within blocking range
///   of it;
/// * noise is `ν = 1/(2β·(2m)^α)`: half the long link's SINR budget, so
///   the long link works alone but dies from any single short
///   transmission.
///
/// The accompanying tests verify all three properties against the exact
/// SINR oracle.
///
/// # Panics
///
/// Panics if `m < 2`.
pub fn star_instance(m: usize) -> StarInstance {
    assert!(m >= 2, "star instance needs at least two links");
    let alpha = 3.0;
    let beta = 2.0;
    let num_short = m - 1;
    let long_len = 2.0 * m as f64;
    let noise = 1.0 / (2.0 * beta * long_len.powf(alpha));
    let params = SinrParams::new(alpha, beta, noise);
    let mut b = SinrNetworkBuilder::new(params);
    let mut short_links = Vec::with_capacity(num_short);
    for i in 0..num_short {
        let x = 4.0 * i as f64;
        short_links.push(b.add_isolated_link((x, 0.0), (x, 1.0)));
    }
    let centre_x = 2.0 * (num_short.saturating_sub(1)) as f64;
    let receiver = Point::new(centre_x, 2.0);
    let sender = Point::new(centre_x, 2.0 + long_len);
    let long_link = b.add_isolated_link(sender, receiver);
    b.max_path_len(1);
    StarInstance {
        net: b.build(),
        short_links,
        long_link,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feasibility::SinrFeasibility;
    use crate::power::UniformPower;
    use rand::SeedableRng;
    use rand_chacha::ChaCha12Rng;

    #[test]
    fn random_instance_respects_length_range() {
        let mut rng = ChaCha12Rng::seed_from_u64(7);
        let net = random_instance(32, 100.0, 1.0, 4.0, SinrParams::default(), &mut rng);
        assert_eq!(net.num_links(), 32);
        for link in net.network().link_ids() {
            let len = net.link_length(link);
            assert!((1.0..=4.0 + 1e-9).contains(&len), "length {len}");
        }
        assert!(net.length_diversity() <= 4.0 + 1e-9);
    }

    #[test]
    fn line_instance_is_connected_chain() {
        let net = line_instance(5, 2.0, SinrParams::default());
        assert_eq!(net.num_links(), 5);
        for i in 0..4u32 {
            assert!(net.network().adjacent(LinkId(i), LinkId(i + 1)));
        }
        assert_eq!(net.link_length(LinkId(0)), 2.0);
    }

    #[test]
    fn star_shorts_always_succeed_together() {
        let star = star_instance(16);
        let oracle = SinrFeasibility::new(&star.net, &UniformPower::unit());
        // All shorts plus the long link transmitting: every short succeeds.
        let mut all = star.short_links.clone();
        all.push(star.long_link);
        let attempts: Vec<_> = all
            .iter()
            .enumerate()
            .map(|(i, &l)| dps_core::feasibility::Attempt {
                link: l,
                packet: dps_core::ids::PacketId(i as u64),
            })
            .collect();
        let mut rng = ChaCha12Rng::seed_from_u64(1);
        use dps_core::feasibility::Feasibility;
        let res = oracle.successes(&attempts, &mut rng);
        for (i, &l) in star.short_links.iter().enumerate() {
            assert!(res[i], "short link {l} must succeed even under full load");
        }
        assert!(
            !res[star.short_links.len()],
            "long link must fail under load"
        );
    }

    #[test]
    fn star_long_link_succeeds_alone() {
        let star = star_instance(16);
        let oracle = SinrFeasibility::new(&star.net, &UniformPower::unit());
        assert!(oracle.set_feasible(&[star.long_link]));
    }

    #[test]
    fn star_any_single_short_blocks_long() {
        let star = star_instance(16);
        let oracle = SinrFeasibility::new(&star.net, &UniformPower::unit());
        use dps_core::feasibility::Feasibility;
        let mut rng = ChaCha12Rng::seed_from_u64(2);
        for &short in &star.short_links {
            let attempts = [
                dps_core::feasibility::Attempt {
                    link: star.long_link,
                    packet: dps_core::ids::PacketId(0),
                },
                dps_core::feasibility::Attempt {
                    link: short,
                    packet: dps_core::ids::PacketId(1),
                },
            ];
            let res = oracle.successes(&attempts, &mut rng);
            assert!(!res[0], "short link {short} must block the long link");
            assert!(res[1], "short link {short} itself must succeed");
        }
    }

    #[test]
    fn star_properties_hold_across_sizes() {
        for m in [2usize, 4, 32, 64] {
            let star = star_instance(m);
            assert_eq!(star.short_links.len(), m - 1);
            let oracle = SinrFeasibility::new(&star.net, &UniformPower::unit());
            assert!(oracle.set_feasible(&[star.long_link]), "m={m}: long alone");
            if let Some(&first_short) = star.short_links.first() {
                assert!(
                    !oracle.set_feasible(&[star.long_link, first_short]),
                    "m={m}: long with one short"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn star_rejects_trivial_size() {
        let _ = star_instance(1);
    }
}
