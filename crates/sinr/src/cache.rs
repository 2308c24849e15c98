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
//!
//! Slot kernels that compute gains on the fly (no dense table) at
//! `α = 3` sum them as certified cubes instead and decide a verdict
//! from that sum only where it provably falls as the `powf` sum's does;
//! elsewhere they recompute the `powf` sum, and
//! [`SinrCache::cube_fallbacks`] counts those recomputations.

use std::sync::atomic::{AtomicU64, Ordering};

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
///
/// Not `Clone`: the cube fallback counter is shared state, and every
/// consumer holds the cache behind an [`std::sync::Arc`] anyway.
#[derive(Debug)]
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
    /// Whether on-the-fly gains take the certified cube path: `α = 3`,
    /// no dense table, `β ≥ 0` and every power finite and non-negative
    /// (the preconditions of [`CubeSum::verdict`]).
    cube_gains: bool,
    /// Receivers whose cube verdict was not certified and were judged
    /// from the `powf` sum instead (relaxed: diagnostics only).
    cube_fallbacks: AtomicU64,
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
    /// on-the-fly gains, as tiled substrates do).
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
        let cube_gains = params.alpha == 3.0
            && gains.is_none()
            && params.beta >= 0.0
            && tx_power.iter().all(|p| (0.0..f64::INFINITY).contains(p));
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
            cube_gains,
            cube_fallbacks: AtomicU64::new(0),
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

    /// Receivers the slot kernels judged from the `powf` sum because
    /// their certified cube sum could not decide the verdict: the SINR
    /// slack lay inside the rounding window, or a cube left the normal
    /// range (a zero cross distance included).
    pub fn cube_fallbacks(&self) -> u64 {
        self.cube_fallbacks.load(Ordering::Relaxed)
    }

    /// Whether on-the-fly gains take the certified cube path
    /// ([`CubeSum`]); otherwise slot kernels sum [`SinrCache::gain`].
    pub(crate) fn cube_gains(&self) -> bool {
        self.cube_gains
    }

    /// Counts one receiver judged from the `powf` sum after its cube sum
    /// did not decide.
    pub(crate) fn count_cube_fallback(&self) {
        self.cube_fallbacks.fetch_add(1, Ordering::Relaxed);
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

/// One receiver's interference, summed with certified cube gains: at
/// `α = 3` an on-the-fly term `count·p/d^α` is added as
/// `count·(p/(d·d·d))` ([`CubeSum::add_cube`]) instead of
/// `count·(p/d.powf(3))` ([`raw_gain`]), and [`CubeSum::verdict`]
/// decides the SINR comparison from this sum only where the `powf` sum
/// provably decides it the same way.
///
/// **The window.** Let `I` be the `powf` sum and `I′` this one: the
/// same `n` terms (`n` counts every `add` and `add_cube`) in the same
/// order, where each cube term `t′` replaces the `powf` term `t` built
/// from the same `count`, `p` and `d`, and every other term is the same
/// value in both. Write `u = 2⁻⁵³` and `x = count·p/d³`, exact for the
/// computed `d`; bounds are to first order in `u`.
/// - Per term: `t′` is two multiplications, a division and a
///   multiplication by `count`, so `|t′ − x| ≤ 4u·x`; `t` is a `powf`
///   (allowed 2 ulps, `4u`), a division and a multiplication, so
///   `|t − x| ≤ 6u·x`. Together `|t − t′| ≤ 10u·x`.
/// - Summation: adding `n` terms in order is off the exact sum by at
///   most `(n − 1)u·Σ|t|`. Every term is non-negative. The cache admits
///   the cube only for non-negative powers ([`SinrCache::cube_gains`]),
///   and the tiled kernel's far aggregates are non-negative too: one
///   that subtracts the receiver's own power `p_on` does so from a
///   rounded sum of non-negative weights that includes `p_on` itself,
///   and rounding is monotone, so that sum is at least `p_on` and the
///   difference is at least `0`. So `Σ|t′| = Σt′ ≤ (1 + nu)·I′`.
/// - Hence `|I − I′| ≤ 2(n − 1)u·Σt′ + 10u·Σt′ ≤ (n + 4)·2u·I′`. The
///   window `Δ = 4·(n + 4)·2u·I′` keeps a factor of four over that,
///   which covers the second-order terms (`nu ≤ 2⁻²⁰` for `n < 2³³`)
///   and the rounding of `Δ` and of `I′ ± Δ`.
/// - The relative bounds need every cube, and so `d·d` and the `powf`
///   cube, normal: the sum tracks its cubes' range and decides nothing
///   unless it lies in `[2·f64::MIN_POSITIVE, f64::MAX/2]`, normal with
///   a factor of two to spare. Nor does it decide unless
///   `I′ ≤ f64::MAX/4`, so that no term or partial sum of either sum
///   overflows. `NaN` fails both tests. So a zero cross distance, which
///   the `powf` sum turns into `NaN` and a cube into `inf` or `NaN`,
///   always falls back. A division or multiplication that underflows is
///   off by at most `2⁻¹⁰⁷⁵` absolute instead (an underflowing addition
///   is exact), and `count` scales the division's error at most
///   `count`-fold, so underflow adds at most `Σ(count + 1)·2⁻¹⁰⁷⁴` to
///   `|I − I′|`; the floor `(n + 4)·2⁻¹⁰²²` of `Δ` covers it for any
///   count below `2⁵²`.
///
/// **The verdict.** The computed comparison `signal ≥ β·(I + ν)` is
/// monotone in `I` for `β ≥ 0`, since rounding is monotone. With
/// `I ∈ [I′ − Δ, I′ + Δ]`, `signal ≥ β·((I′ + Δ) + ν)` means the `powf`
/// verdict is a success and `signal < β·((I′ − Δ) + ν)` that it is a
/// failure: outside the window, the slack `signal − β·(I′ + ν)` has the
/// `powf` slack's sign. Inside it, `verdict` returns `None` and the
/// caller recomputes the `powf` sum in the same order. Verdicts are
/// therefore the `powf` sum's bits by construction; the window is
/// derived, not tuned to any data.
#[derive(Clone, Copy, Debug)]
pub(crate) struct CubeSum {
    sum: f64,
    terms: usize,
    cube_min: f64,
    cube_max: f64,
}

impl CubeSum {
    /// The empty sum.
    pub(crate) fn new() -> Self {
        CubeSum {
            sum: 0.0,
            terms: 0,
            cube_min: f64::INFINITY,
            cube_max: 0.0,
        }
    }

    /// Adds a term the `powf` sum adds with the same bits (a panel
    /// entry, a far aggregate, a `powf` gain).
    #[inline(always)]
    pub(crate) fn add(&mut self, term: f64) {
        self.sum += term;
        self.terms += 1;
    }

    /// Adds `count·(power/(d·d·d))`, the cube of the `powf` term
    /// `count·(power/d^3)` at cross distance `d`.
    #[inline(always)]
    pub(crate) fn add_cube(&mut self, count: u32, power: f64, d: f64) {
        let cube = d * d * d;
        self.cube_min = self.cube_min.min(cube);
        self.cube_max = self.cube_max.max(cube);
        self.add(count as f64 * (power / cube));
    }

    /// The sum itself.
    #[inline(always)]
    pub(crate) fn sum(&self) -> f64 {
        self.sum
    }

    /// `signal ≥ β·(I + ν)` for the `powf` sum `I` of the same terms,
    /// when this cube sum certifies it (see [`CubeSum`]); `None` when
    /// the caller must compute `I`.
    #[inline]
    pub(crate) fn verdict(&self, signal: f64, beta: f64, noise: f64) -> Option<bool> {
        let CubeSum {
            sum,
            terms,
            cube_min,
            cube_max,
        } = *self;
        let in_range = cube_min >= 2.0 * f64::MIN_POSITIVE && cube_max <= 0.5 * f64::MAX;
        if !(in_range && sum <= 0.25 * f64::MAX) {
            return None;
        }
        let n = terms as f64 + 4.0;
        let window = 4.0 * n * f64::EPSILON * sum + n * f64::MIN_POSITIVE;
        if signal >= beta * (sum + window + noise) {
            Some(true)
        } else if signal < beta * (sum - window + noise) {
            Some(false)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::affectance::affectance;
    use crate::instances::{line_instance, random_instance};
    use crate::network::SinrNetworkBuilder;
    use crate::params::SinrParams;
    use crate::power::{LinearPower, UniformPower};
    use rand::{Rng, SeedableRng};
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

    /// One- and two-term sums of random gains, where the cube and `powf`
    /// sums lie furthest apart relative to the window. With `β = 1` and
    /// `ν = 0` the signal is put at either sum and 1 to 256 ulps either
    /// side of it, inside and outside the window. Whenever the cube sum
    /// decides, it must decide as the `powf` sum does.
    #[test]
    fn cube_verdicts_are_the_powf_verdicts_where_the_sums_differ() {
        let step = |mut x: f64, ulps: i32| {
            for _ in 0..ulps.unsigned_abs() {
                x = if ulps > 0 { x.next_up() } else { x.next_down() };
            }
            x
        };
        let mut rng = ChaCha12Rng::seed_from_u64(41);
        let (mut apart, mut decided, mut fell_back) = (0, 0, 0);
        for case in 0..100_000 {
            let mut cube = CubeSum::new();
            let mut powf = 0.0;
            for _ in 0..1 + case % 2 {
                let d: f64 = rng.gen_range(1.0..60.0);
                let p: f64 = rng.gen_range(1.0..27.0);
                let count: u32 = rng.gen_range(1..4);
                cube.add_cube(count, p, d);
                powf += count as f64 * (p / d.powf(3.0));
            }
            apart += usize::from(cube.sum() != powf);
            for threshold in [powf, cube.sum()] {
                for ulps in [0, 1, -1, 4, -4, 16, -16, 64, -64, 256, -256] {
                    let signal = step(threshold, ulps);
                    match cube.verdict(signal, 1.0, 0.0) {
                        Some(ok) => {
                            decided += 1;
                            assert_eq!(ok, signal >= powf, "case {case}: {cube:?} vs {powf}");
                        }
                        None => fell_back += 1,
                    }
                }
            }
        }
        assert!(apart > 10_000, "the sums must differ often: {apart}");
        assert!(
            decided > 100_000 && fell_back > 100_000,
            "{decided} / {fell_back}"
        );
    }

    /// The widest cube-against-`powf` gaps an offline search of 6·10⁷
    /// random terms (count 3, `d` in `[1, 60)`, `p` in `[1, 27)`) found:
    /// the widest single term, pair and triple, whose two sums lie 13%,
    /// 15% and 15% of the window apart. A signal at the `powf` sum, or
    /// a few ulps from it, must still be judged as that sum judges it.
    #[test]
    fn cube_window_covers_the_widest_gaps_found() {
        let widest: [&[(f64, f64)]; 3] = [
            &[(50.832323116644126, 16.247736397749087)],
            &[
                (16.014591161856877, 4.066435575243075),
                (32.061077508631314, 16.431007643890275),
            ],
            &[
                (16.009100850017063, 8.155863206165602),
                (25.47279420848068, 16.739276901155538),
                (40.32454847654665, 8.20134810176738),
            ],
        ];
        for terms in widest {
            let mut cube = CubeSum::new();
            let mut powf = 0.0;
            for &(d, p) in terms {
                cube.add_cube(3, p, d);
                powf += 3.0 * (p / d.powf(3.0));
            }
            assert_ne!(cube.sum(), powf);
            let mut below = powf;
            let mut above = powf;
            for _ in 0..8 {
                for signal in [below, above] {
                    if let Some(ok) = cube.verdict(signal, 1.0, 0.0) {
                        assert_eq!(ok, signal >= powf, "{terms:?} at {signal}");
                    }
                }
                below = below.next_down();
                above = above.next_up();
            }
        }
    }

    #[test]
    fn cube_sum_declines_cubes_out_of_range() {
        for d in [0.0, f64::NAN, 1e-110, 1e110, f64::INFINITY] {
            let mut sum = CubeSum::new();
            sum.add(0.25);
            sum.add_cube(1, 1.0, d);
            assert_eq!(sum.verdict(1e9, 1.0, 0.0), None, "d = {d}");
        }
        let mut huge = CubeSum::new();
        huge.add(f64::MAX);
        assert_eq!(huge.verdict(f64::MAX, 1.0, 0.0), None);
        // An empty sum decides from the noise alone.
        assert_eq!(CubeSum::new().verdict(1.0, 2.0, 0.25), Some(true));
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
