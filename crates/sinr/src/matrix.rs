//! The three interference-matrix constructions of Section 6, each an
//! [`InterferenceModel`] usable with every scheduler and injection model in
//! [`dps_core`].
//!
//! * **Fixed powers** (§6.1, used with linear power assignments for
//!   Corollary 12): `W[ℓ][ℓ'] = a_p(ℓ', ℓ)` — row `ℓ` accumulates the
//!   affectance of every other link on `ℓ`.
//! * **Monotone (sub-)linear powers** (§6.1, Corollary 13):
//!   `W[ℓ][ℓ'] = max{a_p(ℓ, ℓ'), a_p(ℓ', ℓ)}` if `d(ℓ) ≤ d(ℓ')`, else 0 —
//!   only *longer* links charge a row.
//! * **Power control** (§6.2, Corollary 14): powers are chosen by the
//!   algorithm, so the matrix is purely geometric:
//!   `W[ℓ][ℓ'] = min{1, d(ℓ)^α/d(s,r')^α + d(ℓ)^α/d(s',r)^α}` if
//!   `d(ℓ) ≤ d(ℓ')`, else 0.
//!
//! Entries are precomputed into a dense `m×m` table at construction
//! (`O(m²)` time and space), which is the right trade-off for the
//! simulation scales of this repository; the diagonal is forced to 1 as
//! the abstract model requires.

use crate::cache::SinrCache;
use crate::network::SinrNetwork;
use crate::power::PowerAssignment;
use dps_core::ids::LinkId;
use dps_core::interference::InterferenceModel;
use dps_core::load::LinkLoad;

/// Which Section 6 construction a [`SinrInterference`] uses.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MatrixKind {
    /// §6.1 with powers fixed per link (affectance rows).
    FixedPower,
    /// §6.1 for monotone (sub-)linear assignments (longer links charge
    /// shorter rows, symmetrized affectance).
    MonotonePower,
    /// §6.2 with powers chosen by the algorithm (geometric distance
    /// ratios).
    PowerControl,
}

/// A dense SINR interference matrix over the links of a [`SinrNetwork`].
#[derive(Clone, Debug)]
pub struct SinrInterference {
    num_links: usize,
    /// Row-major `num_links × num_links`.
    entries: Vec<f64>,
    kind: MatrixKind,
}

impl SinrInterference {
    /// §6.1 fixed-power construction: `W[on][from] = a_p(from, on)`.
    ///
    /// Built from a [`SinrCache`], so the per-link signal/margin terms are
    /// computed `O(m)` times instead of `O(m²)`; entries are bit-for-bit
    /// the values [`crate::affectance::affectance`] returns.
    pub fn fixed_power<P: PowerAssignment + ?Sized>(net: &SinrNetwork, power: &P) -> Self {
        // Each pairwise gain is read exactly once here, so skip the dense
        // gain table (it would be filled and traversed for nothing) and
        // let the cache evaluate gains on the fly.
        let cache = SinrCache::with_dense_limit(net, power, 0);
        Self::fixed_power_with_cache(net, &cache)
    }

    /// The fixed-power construction over an already-built (possibly
    /// shared) cache — the substrate-sharing path: one [`SinrCache`] per
    /// topology serves matrix builds and the exact oracle alike. Dense
    /// and on-the-fly caches yield bit-for-bit identical matrices.
    ///
    /// The cache fixes the power assignment, so the matrix is the one
    /// for whatever power the cache was built under; only its link count
    /// is checked against `net`.
    ///
    /// # Panics
    ///
    /// Panics if the cache does not cover exactly the links of `net`.
    pub fn fixed_power_with_cache(net: &SinrNetwork, cache: &SinrCache) -> Self {
        assert_eq!(
            cache.num_links(),
            net.num_links(),
            "shared SinrCache must cover the matrix's network"
        );
        Self::build(net, MatrixKind::FixedPower, |on, from| {
            cache.affectance(from, on)
        })
    }

    /// §6.1 monotone-power construction: rows are charged by longer links
    /// only, with the symmetrized affectance
    /// `max{a_p(ℓ, ℓ'), a_p(ℓ', ℓ)}`.
    pub fn monotone_power<P: PowerAssignment + ?Sized>(net: &SinrNetwork, power: &P) -> Self {
        let cache = SinrCache::new(net, power);
        Self::monotone_power_with_cache(net, &cache)
    }

    /// The monotone-power construction over an already-built (possibly
    /// shared) cache. As with
    /// [`fixed_power_with_cache`](Self::fixed_power_with_cache), the
    /// cache fixes the power assignment and only its link count is
    /// checked against `net`.
    ///
    /// # Panics
    ///
    /// Panics if the cache does not cover exactly the links of `net`.
    pub fn monotone_power_with_cache(net: &SinrNetwork, cache: &SinrCache) -> Self {
        assert_eq!(
            cache.num_links(),
            net.num_links(),
            "shared SinrCache must cover the matrix's network"
        );
        Self::build(net, MatrixKind::MonotonePower, |on, from| {
            if net.link_length(on) <= net.link_length(from) {
                cache.affectance(from, on).max(cache.affectance(on, from))
            } else {
                0.0
            }
        })
    }

    /// §6.2 power-control construction:
    /// `W[ℓ][ℓ'] = min{1, d(ℓ)^α/d(s,r')^α + d(ℓ)^α/d(s',r)^α}` for
    /// `d(ℓ) ≤ d(ℓ')`, else 0, where `s, r` are `ℓ`'s endpoints and
    /// `s', r'` are `ℓ''`s.
    pub fn power_control(net: &SinrNetwork) -> Self {
        let alpha = net.params().alpha;
        Self::build(net, MatrixKind::PowerControl, |on, from| {
            let d_on = net.link_length(on);
            if d_on > net.link_length(from) {
                return 0.0;
            }
            // d(s, r'): on's sender to from's receiver;
            // d(s', r): from's sender to on's receiver.
            let to_their_receiver = net.cross_distance(on, from);
            let from_their_sender = net.cross_distance(from, on);
            if to_their_receiver <= 0.0 || from_their_sender <= 0.0 {
                return 1.0;
            }
            let ratio =
                (d_on / to_their_receiver).powf(alpha) + (d_on / from_their_sender).powf(alpha);
            ratio.min(1.0)
        })
    }

    fn build<F>(net: &SinrNetwork, kind: MatrixKind, mut entry: F) -> Self
    where
        F: FnMut(LinkId, LinkId) -> f64,
    {
        let m = net.num_links();
        let mut entries = vec![0.0; m * m];
        for on in 0..m {
            for from in 0..m {
                entries[on * m + from] = if on == from {
                    1.0
                } else {
                    entry(LinkId(on as u32), LinkId(from as u32)).clamp(0.0, 1.0)
                };
            }
        }
        SinrInterference {
            num_links: m,
            entries,
            kind,
        }
    }

    /// Which construction this matrix uses.
    pub fn kind(&self) -> MatrixKind {
        self.kind
    }
}

impl InterferenceModel for SinrInterference {
    fn num_links(&self) -> usize {
        self.num_links
    }

    fn weight(&self, on: LinkId, from: LinkId) -> f64 {
        self.entries[on.index() * self.num_links + from.index()]
    }

    fn row_load(&self, on: LinkId, load: &LinkLoad) -> f64 {
        let row = &self.entries[on.index() * self.num_links..(on.index() + 1) * self.num_links];
        load.support().map(|(from, r)| row[from.index()] * r).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::affectance::affectance;
    use crate::network::SinrNetworkBuilder;
    use crate::params::SinrParams;
    use crate::power::{LinearPower, UniformPower};
    use dps_core::interference::validate;

    fn small_net() -> SinrNetwork {
        let mut b = SinrNetworkBuilder::new(SinrParams::default_noiseless());
        b.add_isolated_link((0.0, 0.0), (0.0, 1.0)); // unit link
        b.add_isolated_link((4.0, 0.0), (4.0, 2.0)); // length 2
        b.add_isolated_link((9.0, 0.0), (9.0, 4.0)); // length 4
        b.build()
    }

    #[test]
    fn all_constructions_satisfy_model_invariants() {
        let net = small_net();
        let uni = UniformPower::unit();
        let lin = LinearPower::new(net.params().alpha);
        validate(&SinrInterference::fixed_power(&net, &uni)).unwrap();
        validate(&SinrInterference::fixed_power(&net, &lin)).unwrap();
        validate(&SinrInterference::monotone_power(&net, &lin)).unwrap();
        validate(&SinrInterference::power_control(&net)).unwrap();
    }

    #[test]
    fn fixed_power_rows_are_affectance() {
        let net = small_net();
        let power = UniformPower::unit();
        let w = SinrInterference::fixed_power(&net, &power);
        let e0 = LinkId(0);
        let e1 = LinkId(1);
        assert_eq!(w.weight(e0, e1), affectance(&net, &power, e1, e0));
        assert_eq!(w.weight(e1, e0), affectance(&net, &power, e0, e1));
    }

    #[test]
    fn monotone_only_charges_shorter_rows() {
        let net = small_net();
        let lin = LinearPower::new(net.params().alpha);
        let w = SinrInterference::monotone_power(&net, &lin);
        // Link 2 (length 4) is the longest: its row gets no off-diagonal
        // charge; link 0 (length 1) is charged by both longer links.
        assert_eq!(w.weight(LinkId(2), LinkId(0)), 0.0);
        assert_eq!(w.weight(LinkId(2), LinkId(1)), 0.0);
        assert!(w.weight(LinkId(0), LinkId(2)) > 0.0);
        assert!(w.weight(LinkId(0), LinkId(1)) > 0.0);
    }

    #[test]
    fn power_control_is_purely_geometric() {
        let net = small_net();
        let w = SinrInterference::power_control(&net);
        // Shortest link's row: charged by longer links with the distance
        // ratio formula.
        let e0 = LinkId(0);
        let e1 = LinkId(1);
        let alpha = net.params().alpha;
        let expected = (net.link_length(e0) / net.cross_distance(e0, e1)).powf(alpha)
            + (net.link_length(e0) / net.cross_distance(e1, e0)).powf(alpha);
        assert!((w.weight(e0, e1) - expected.min(1.0)).abs() < 1e-12);
        // Longer row uncharged by shorter link.
        assert_eq!(w.weight(e1, e0), 0.0);
    }

    #[test]
    fn measure_reflects_spatial_separation() {
        // Far-apart links: measure of one-packet-per-link stays near 1;
        // co-located links: measure approaches the packet count.
        let params = SinrParams::default_noiseless();
        let power = UniformPower::unit();
        let spread = {
            let mut b = SinrNetworkBuilder::new(params);
            for i in 0..8 {
                b.add_isolated_link((i as f64 * 100.0, 0.0), (i as f64 * 100.0, 1.0));
            }
            b.build()
        };
        let packed = {
            let mut b = SinrNetworkBuilder::new(params);
            for i in 0..8 {
                b.add_isolated_link((i as f64 * 0.6, 0.0), (i as f64 * 0.6, 1.0));
            }
            b.build()
        };
        let load = LinkLoad::from_links(8, (0..8u32).map(LinkId));
        let w_spread = SinrInterference::fixed_power(&spread, &power);
        let w_packed = SinrInterference::fixed_power(&packed, &power);
        let m_spread = w_spread.measure(&load);
        let m_packed = w_packed.measure(&load);
        assert!(m_spread < 1.5, "spread measure {m_spread}");
        assert!(m_packed > 4.0, "packed measure {m_packed}");
    }

    #[test]
    fn kind_is_reported() {
        let net = small_net();
        assert_eq!(
            SinrInterference::power_control(&net).kind(),
            MatrixKind::PowerControl
        );
    }
}
