//! Cached SINR geometry under a fixed power assignment: the fast-path
//! layer that keeps `sqrt`/`powf` out of every hot loop.
//!
//! A [`SinrCache`] is built once per `(network, power assignment)` pair
//! and precomputes, per link `ℓ`:
//!
//! * the transmission power `p(d(ℓ))`,
//! * the received signal strength `p(d(ℓ))/d(ℓ)^α`,
//! * the noise-adjusted margin `p(d(ℓ))/d(ℓ)^α − β·ν`,
//!
//! plus — for moderate `m` — a dense `m × m` **gain table**
//! `G[ℓ', ℓ] = p(d(ℓ'))/d(s', r)^α`, the interference the sender `s'` of
//! `ℓ'` contributes at the receiver `r` of `ℓ`. Above
//! [`DEFAULT_DENSE_GAIN_LIMIT`] links (or the limit given to
//! [`SinrCache::with_dense_limit`]) the table is skipped and gains are
//! computed on the fly from the cached endpoint positions, so memory
//! stays `O(m)` while the per-link scalars are still cached.
//!
//! Every cached value is produced by the *same floating-point
//! expression* the naive recomputation uses, so consumers — the exact
//! slot check that [`crate::feasibility::SinrFeasibility`] and
//! [`crate::tiles::TiledSinrFeasibility`] share, the tiled near-field
//! panels and the matrix constructions of [`crate::matrix`] — make
//! bit-for-bit identical decisions with and without the cache, and with
//! and without the dense table (property-tested in `tests/prop_sinr.rs`
//! against the naive referee in `tests/support/referee.rs`).
//!
//! A cross distance `d(s', r) ≤ 0` (sender of one link on top of another
//! link's receiver, as happens between consecutive links of a line
//! network) is stored as `NaN`: any interference sum it enters fails the
//! SINR comparison, which is exactly the naive oracle's "distance zero
//! blocks the receiver" rule, and `NaN`-poisoned affectances clamp to 1.

use crate::network::SinrNetwork;
use crate::power::PowerAssignment;
use dps_core::ids::LinkId;

/// Default memory budget for the dense pairwise gain table: `8 MiB`.
/// A network is stored densely only while its full `m × m` `f64` table
/// fits the budget; beyond it gains fall back to on-the-fly evaluation
/// of the same expression.
pub const DEFAULT_DENSE_GAIN_BUDGET_BYTES: usize = 8 << 20;

/// Links up to which the dense pairwise gain table is materialized under
/// the default budget: the largest `m` whose `m × m` `f64` table fits,
/// `⌊√(budget/8)⌋ = 1024` (the `8 MiB` table is exactly full at the
/// limit). Beyond it gains fall back to on-the-fly evaluation.
pub const DEFAULT_DENSE_GAIN_LIMIT: usize =
    (DEFAULT_DENSE_GAIN_BUDGET_BYTES / std::mem::size_of::<f64>()).isqrt();

/// Number of sender rows the blocked slot kernel packs and accumulates
/// per pass (see [`SinrCache::active_interference_into`]). Lanes are
/// applied across *receivers*, so each receiver's floating-point
/// accumulation order stays strictly ascending in sender index —
/// bit-for-bit the scalar order.
const KERNEL_LANES: usize = 4;

/// Precomputed per-link and pairwise SINR quantities for one
/// `(network, power assignment)` pair.
#[derive(Clone, Debug)]
pub struct SinrCache {
    m: usize,
    alpha: f64,
    beta: f64,
    noise: f64,
    /// `p(d(ℓ))` per link.
    tx_power: Vec<f64>,
    /// `p(d(ℓ))/d(ℓ)^α` per link.
    signal: Vec<f64>,
    /// `p(d(ℓ))/d(ℓ)^α − β·ν` per link.
    margin: Vec<f64>,
    /// Dense row-major `m × m` gain table `gains[from·m + on]`, when
    /// `m` is within the dense limit the cache was built with. The
    /// diagonal is `0.0` and unused (self-gain is excluded from every
    /// SINR sum).
    gains: Option<Vec<f64>>,
    /// Per-link sender positions, for the on-the-fly fallback.
    sender: Vec<crate::geom::Point>,
    /// Per-link receiver positions, for the on-the-fly fallback.
    receiver: Vec<crate::geom::Point>,
}

impl SinrCache {
    /// Builds the cache with the default dense-table limit
    /// ([`DEFAULT_DENSE_GAIN_LIMIT`], from
    /// [`DEFAULT_DENSE_GAIN_BUDGET_BYTES`]).
    pub fn new<P: PowerAssignment + ?Sized>(net: &SinrNetwork, power: &P) -> Self {
        Self::with_dense_limit(net, power, DEFAULT_DENSE_GAIN_LIMIT)
    }

    /// Builds the cache, materializing the dense gain table only when the
    /// network has at most `dense_limit` links (`dense_limit = 0` forces
    /// the on-the-fly fallback, which the equivalence tests exercise).
    pub fn with_dense_limit<P: PowerAssignment + ?Sized>(
        net: &SinrNetwork,
        power: &P,
        dense_limit: usize,
    ) -> Self {
        let m = net.num_links();
        let params = *net.params();
        let mut tx_power = Vec::with_capacity(m);
        let mut signal = Vec::with_capacity(m);
        let mut margin = Vec::with_capacity(m);
        for &len in net.lengths() {
            let p = power.power(len);
            let s = p / len.powf(params.alpha);
            tx_power.push(p);
            signal.push(s);
            margin.push(s - params.beta * params.noise);
        }
        let sender = net.link_senders().to_vec();
        let receiver = net.link_receivers().to_vec();
        let gains = (m <= dense_limit).then(|| {
            let mut table = vec![0.0f64; m * m];
            for from in 0..m {
                for on in 0..m {
                    if from != on {
                        table[from * m + on] =
                            raw_gain(&sender, &receiver, &tx_power, params.alpha, from, on);
                    }
                }
            }
            table
        });
        SinrCache {
            m,
            alpha: params.alpha,
            beta: params.beta,
            noise: params.noise,
            tx_power,
            signal,
            margin,
            gains,
            sender,
            receiver,
        }
    }

    /// Number of links the cache covers.
    pub fn num_links(&self) -> usize {
        self.m
    }

    /// Whether the dense pairwise gain table was materialized.
    pub fn is_dense(&self) -> bool {
        self.gains.is_some()
    }

    /// The SINR threshold `β`.
    pub fn beta(&self) -> f64 {
        self.beta
    }

    /// The ambient noise `ν`.
    pub fn noise(&self) -> f64 {
        self.noise
    }

    /// Transmission power `p(d(ℓ))` of `link`.
    pub fn tx_power(&self, link: LinkId) -> f64 {
        self.tx_power[link.index()]
    }

    /// Received signal strength `p(d(ℓ))/d(ℓ)^α` of `link`.
    pub fn signal(&self, link: LinkId) -> f64 {
        self.signal[link.index()]
    }

    /// Noise-adjusted margin `p(d(ℓ))/d(ℓ)^α − β·ν` of `link`.
    pub fn margin(&self, link: LinkId) -> f64 {
        self.margin[link.index()]
    }

    /// The gain `p(d(from))/d(s_from, r_on)^α`: interference `from`'s
    /// sender contributes at `on`'s receiver. `NaN` encodes a
    /// non-positive cross distance (total blockage). The value for
    /// `from == on` is unspecified; SINR sums never include it.
    #[inline]
    pub fn gain(&self, from: LinkId, on: LinkId) -> f64 {
        match &self.gains {
            Some(table) => table[from.index() * self.m + on.index()],
            None => raw_gain(
                &self.sender,
                &self.receiver,
                &self.tx_power,
                self.alpha,
                from.index(),
                on.index(),
            ),
        }
    }

    /// The affectance `a_p(from, on)` computed from cached quantities;
    /// bit-for-bit equal to [`crate::affectance::affectance`].
    pub fn affectance(&self, from: LinkId, on: LinkId) -> f64 {
        if from == on {
            return 0.0;
        }
        let margin = self.margin[on.index()];
        if margin <= 0.0 {
            return 1.0;
        }
        // A NaN gain (non-positive cross distance) clamps to 1 here:
        // `f64::min` ignores the NaN operand.
        (self.beta * self.gain(from, on) / margin).min(1.0)
    }

    /// The blocked slot kernel: accumulates, for every distinct attempted
    /// link, the interference the whole attempt set contributes at its
    /// receiver.
    ///
    /// `active` lists the distinct attempted links as
    /// `(link index, multiplicity)` in ascending link order; on return
    /// `acc[i]` holds `Σ_j count_j · gain(active[j], active[i])` with the
    /// sum taken in ascending `j` — exactly the naive oracle's
    /// accumulation order, so verdicts derived from `acc` are bit-for-bit
    /// the scalar path's. `scratch` is caller-owned storage reused across
    /// slots.
    ///
    /// Dense path only: returns `false` (leaving `acc` untouched) when no
    /// dense gain table is materialized, and the caller falls back to the
    /// scalar per-pair loop (`exact_interference` in
    /// [`crate::feasibility`]).
    ///
    /// Structure: sender gain rows are contiguous (`gains[from·m ..]`),
    /// so the kernel packs `KERNEL_LANES` (4) rows at a time — gathering
    /// the `k` active receiver columns of each into a contiguous lane —
    /// and then sweeps all `k` accumulators once per block with a
    /// branchless fused update. The per-pair `from == on` test of the
    /// scalar path disappears entirely: the dense table's diagonal is
    /// `0.0`, and adding `count · 0.0 = +0.0` into a non-negative (or
    /// NaN) partial sum is a bitwise no-op.
    pub fn active_interference_into(
        &self,
        active: &[(u32, u32)],
        acc: &mut Vec<f64>,
        scratch: &mut Vec<f64>,
    ) -> bool {
        let Some(gains) = &self.gains else {
            return false;
        };
        let m = self.m;
        let k = active.len();
        acc.clear();
        if k == 0 {
            return true;
        }
        acc.resize(k, 0.0);
        scratch.clear();
        scratch.resize(KERNEL_LANES * k, 0.0);
        let mut block = 0;
        while block + KERNEL_LANES <= k {
            let mut weights = [0.0f64; KERNEL_LANES];
            for (lane, dst) in scratch.chunks_exact_mut(k).enumerate() {
                let (from, count) = active[block + lane];
                weights[lane] = count as f64;
                let row = &gains[from as usize * m..][..m];
                for (d, &(on, _)) in dst.iter_mut().zip(active) {
                    *d = row[on as usize];
                }
            }
            // The fused update below spells out exactly four lanes; a
            // retuned lane count must be reflected there or senders
            // would be packed and then silently dropped.
            const { assert!(KERNEL_LANES == 4) };
            let (lane0, rest) = scratch.split_at(k);
            let (lane1, rest) = rest.split_at(k);
            let (lane2, lane3) = rest.split_at(k);
            let out = &mut acc[..k];
            for i in 0..k {
                // Sequential adds, ascending sender order: the rounding
                // sequence of the scalar loop, vectorized across `i`.
                let mut sum = out[i];
                sum += weights[0] * lane0[i];
                sum += weights[1] * lane1[i];
                sum += weights[2] * lane2[i];
                sum += weights[3] * lane3[i];
                out[i] = sum;
            }
            block += KERNEL_LANES;
        }
        for &(from, count) in &active[block..] {
            let weight = count as f64;
            let row = &gains[from as usize * m..][..m];
            let lane = &mut scratch[..k];
            for (d, &(on, _)) in lane.iter_mut().zip(active) {
                *d = row[on as usize];
            }
            for (sum, &g) in acc.iter_mut().zip(lane.iter()) {
                *sum += weight * g;
            }
        }
        true
    }

    /// The path-loss exponent `α` the cache was built with.
    pub(crate) fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Per-link sender positions (crate-internal: the tiled substrate
    /// derives tile geometry from them).
    pub(crate) fn sender_positions(&self) -> &[crate::geom::Point] {
        &self.sender
    }

    /// Per-link receiver positions (crate-internal).
    pub(crate) fn receiver_positions(&self) -> &[crate::geom::Point] {
        &self.receiver
    }

    /// Per-link transmission powers as a slice (crate-internal).
    pub(crate) fn tx_powers(&self) -> &[f64] {
        &self.tx_power
    }

    /// Per-link noise-adjusted margins as a slice (crate-internal).
    pub(crate) fn margins(&self) -> &[f64] {
        &self.margin
    }
}

/// The one gain expression shared by the dense table, the on-the-fly
/// fallback and the tiled near-field panels ([`crate::tiles`]), and
/// spelled out the same way by the naive referee of
/// `tests/support/referee.rs`: same operations, same rounding,
/// bit-for-bit interchangeable.
#[inline]
pub(crate) fn raw_gain(
    sender: &[crate::geom::Point],
    receiver: &[crate::geom::Point],
    tx_power: &[f64],
    alpha: f64,
    from: usize,
    on: usize,
) -> f64 {
    let d = sender[from].distance(&receiver[on]);
    if d <= 0.0 {
        return f64::NAN;
    }
    tx_power[from] / d.powf(alpha)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::affectance::affectance;
    use crate::instances::{line_instance, random_instance};
    use crate::network::SinrNetworkBuilder;
    use crate::params::SinrParams;
    use crate::power::{LinearPower, UniformPower};
    use rand::SeedableRng;
    use rand_chacha::ChaCha12Rng;

    #[test]
    fn per_link_scalars_match_direct_formulas() {
        let mut rng = ChaCha12Rng::seed_from_u64(5);
        let params = SinrParams::with_noise(0.001);
        let net = random_instance(12, 40.0, 1.0, 3.0, params, &mut rng);
        let power = LinearPower::new(params.alpha);
        let cache = SinrCache::new(&net, &power);
        for link in net.network().link_ids() {
            let len = net.link_length(link);
            assert_eq!(cache.tx_power(link), power.power(len));
            assert_eq!(
                cache.signal(link),
                power.power(len) / len.powf(params.alpha)
            );
            assert_eq!(
                cache.margin(link),
                power.power(len) / len.powf(params.alpha) - params.beta * params.noise
            );
        }
    }

    #[test]
    fn dense_and_fallback_gains_are_bit_identical() {
        let mut rng = ChaCha12Rng::seed_from_u64(9);
        let params = SinrParams::default_noiseless();
        let net = random_instance(10, 30.0, 1.0, 2.0, params, &mut rng);
        let power = UniformPower::unit();
        let dense = SinrCache::new(&net, &power);
        let lazy = SinrCache::with_dense_limit(&net, &power, 0);
        assert!(dense.is_dense());
        assert!(!lazy.is_dense());
        for from in net.network().link_ids() {
            for on in net.network().link_ids() {
                if from == on {
                    continue;
                }
                let a = dense.gain(from, on);
                let b = lazy.gain(from, on);
                assert_eq!(a.to_bits(), b.to_bits(), "gain({from}, {on})");
            }
        }
    }

    #[test]
    fn cached_affectance_equals_free_function_bitwise() {
        let mut rng = ChaCha12Rng::seed_from_u64(3);
        for noise in [0.0, 0.01] {
            let params = SinrParams::with_noise(noise);
            let net = random_instance(8, 25.0, 0.5, 4.0, params, &mut rng);
            let power = LinearPower::new(params.alpha);
            let cache = SinrCache::new(&net, &power);
            for from in net.network().link_ids() {
                for on in net.network().link_ids() {
                    let free = affectance(&net, &power, from, on);
                    let cached = cache.affectance(from, on);
                    assert_eq!(free.to_bits(), cached.to_bits(), "a({from}, {on})");
                }
            }
        }
    }

    #[test]
    fn coincident_endpoints_yield_nan_gain_and_full_affectance() {
        // Consecutive line links share a node: the sender of link 1 sits
        // on the receiver of link 0.
        let net = line_instance(2, 1.0, SinrParams::default_noiseless());
        let cache = SinrCache::new(&net, &UniformPower::unit());
        assert!(cache.gain(LinkId(1), LinkId(0)).is_nan());
        assert_eq!(cache.affectance(LinkId(1), LinkId(0)), 1.0);
        assert_eq!(cache.affectance(LinkId(0), LinkId(0)), 0.0);
    }

    #[test]
    fn budget_limits_are_isqrt_of_table_cells() {
        // The default limit is the largest m whose m×m f64 table fits
        // the default budget, which reproduces the historical cap.
        let cells = |m: usize| m * m * std::mem::size_of::<f64>();
        assert_eq!(DEFAULT_DENSE_GAIN_LIMIT, 1024);
        assert!(cells(DEFAULT_DENSE_GAIN_LIMIT) <= DEFAULT_DENSE_GAIN_BUDGET_BYTES);
        assert!(cells(DEFAULT_DENSE_GAIN_LIMIT + 1) > DEFAULT_DENSE_GAIN_BUDGET_BYTES);
    }

    #[test]
    fn dense_limit_controls_the_fallback_boundary() {
        let mut rng = ChaCha12Rng::seed_from_u64(17);
        let params = SinrParams::default_noiseless();
        let m = 6;
        let net = random_instance(m, 30.0, 1.0, 2.0, params, &mut rng);
        let power = UniformPower::unit();
        // A limit of exactly m links: dense.
        let dense = SinrCache::with_dense_limit(&net, &power, m);
        assert!(dense.is_dense());
        // One link short: the fallback path, same affectances bitwise.
        let lazy = SinrCache::with_dense_limit(&net, &power, m - 1);
        assert!(!lazy.is_dense());
        for from in net.network().link_ids() {
            for on in net.network().link_ids() {
                assert_eq!(
                    dense.affectance(from, on).to_bits(),
                    lazy.affectance(from, on).to_bits(),
                    "affectance({from}, {on}) across the dense boundary"
                );
            }
        }
    }

    #[test]
    fn blocked_kernel_matches_scalar_accumulation_bitwise() {
        let mut rng = ChaCha12Rng::seed_from_u64(23);
        let params = SinrParams::with_noise(0.01);
        // 13 active links: three full lanes plus a remainder.
        let net = random_instance(13, 40.0, 1.0, 3.0, params, &mut rng);
        let power = LinearPower::new(params.alpha);
        let cache = SinrCache::new(&net, &power);
        // Multiplicities > 1 mixed in: weights enter the kernel as-is.
        let active: Vec<(u32, u32)> = (0..13u32)
            .map(|l| (l, if l % 5 == 0 { 2 } else { 1 }))
            .collect();
        let mut acc = Vec::new();
        let mut scratch = Vec::new();
        assert!(cache.active_interference_into(&active, &mut acc, &mut scratch));
        for (i, &(on, _)) in active.iter().enumerate() {
            let scalar = crate::feasibility::exact_interference(&cache, &active, on);
            assert_eq!(
                acc[i].to_bits(),
                scalar.to_bits(),
                "interference at active[{i}] (link {on})"
            );
        }
        // The fallback cache declines, leaving the caller to go scalar.
        let lazy = SinrCache::with_dense_limit(&net, &power, 0);
        assert!(!lazy.active_interference_into(&active, &mut acc, &mut scratch));
    }

    #[test]
    fn noise_starved_link_has_nonpositive_margin() {
        let mut b = SinrNetworkBuilder::new(SinrParams::with_noise(10.0));
        let e = b.add_isolated_link((0.0, 0.0), (0.0, 1.0));
        let other = b.add_isolated_link((50.0, 0.0), (50.0, 1.0));
        let cache = SinrCache::new(&b.build(), &UniformPower::unit());
        assert!(cache.margin(e) <= 0.0);
        assert_eq!(cache.affectance(other, e), 1.0);
    }
}
