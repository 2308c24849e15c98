//! The sampler of the stochastic injection model (Section 2.1).
//!
//! The model's generators inject i.i.d. per slot, independently of each
//! other. [`BatchStochasticInjector`] samples a [`StochasticInjector`]'s
//! generator set without walking all `m` generators every slot, in one
//! of two modes selected from the generators' total probabilities:
//!
//! * **Counting batch** (symmetric generator sets expecting at least
//!   [`COUNTING_MIN_EXPECTED_PER_SLOT`] packets per slot, `p = 1`
//!   included): the slot's batch size is one CDF-inverted
//!   Binomial(m, p) count draw, and a Floyd `k`-subset sample picks the
//!   injecting generators — `1 + k` uniform draws for `k` packets.
//! * **Skip-ahead calendar** (everything else): for a Bernoulli(p)
//!   generator the gap to its next injecting slot is geometric, sampled
//!   in O(1) as `⌊ln u / ln(1−p)⌋` with `u` uniform in `(0, 1]`. Each
//!   generator keeps exactly one pending entry in a min-heap keyed by
//!   slot; a slot costs a heap peek when idle and `O(log m)` per actual
//!   injection otherwise.
//!
//! Both modes draw the packet's route *conditionally on injection*
//! ([`GeneratorSpec::sample_conditional_index`]), so the per-slot
//! distribution is the model's: each generator injects independently
//! with its total probability and picks route `i` with probability
//! `p_i / total`. The tests below pin that distribution against a naive
//! referee that samples the definition literally (one uniform per
//! generator per slot, then a CDF walk over the choices); the RNG
//! *streams* of the two differ, so the equivalence is distributional.
//!
//! [`GeneratorSpec::sample_conditional_index`]: crate::injection::stochastic::GeneratorSpec::sample_conditional_index

use crate::injection::stochastic::StochasticInjector;
use crate::injection::Injector;
use crate::interference::InterferenceModel;
use crate::load::LinkLoad;
use crate::path::RoutePath;
use crate::route_table::{RouteId, RouteTable};
use rand::{Rng, RngCore};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// Expected injections per slot from which a symmetric generator set
/// uses the counting batch instead of the calendar.
///
/// The counting batch pays one count draw per slot plus one draw per
/// packet; the calendar pays a heap peek on idle slots and `O(log m)`
/// per packet. Below ~½ expected packet per slot most slots are idle and
/// the peek-only calendar wins; above it the draw per slot is amortized
/// by the packets themselves.
pub const COUNTING_MIN_EXPECTED_PER_SLOT: f64 = 0.5;

/// The sampling mode selected for a generator set; each variant owns
/// its state.
#[derive(Clone, Debug)]
enum Mode {
    /// No generator has positive probability: never injects.
    Idle,
    /// Symmetric dense generator set: one Binomial(m, p) count per slot.
    Counting(CountingBatch),
    /// General case: per-generator geometric skip-ahead calendar.
    Calendar(Calendar),
}

impl Mode {
    /// Runs the mode for `slot`, handing each firing generator's index
    /// to `emit` (which draws the route conditional on injection — one
    /// draw for multi-choice generators, none otherwise).
    fn run(
        &mut self,
        slot: u64,
        rng: &mut dyn RngCore,
        emit: &mut dyn FnMut(u32, &mut dyn RngCore),
    ) {
        match self {
            Mode::Idle => {}
            Mode::Counting(batch) => batch.run(rng, emit),
            Mode::Calendar(calendar) => calendar.run(slot, rng, emit),
        }
    }
}

/// The counting batch over `m` symmetric generators of probability `p`.
///
/// The count table is the Binomial(m, p) CDF, built by the mode-anchored
/// ratio recurrence `w(k+1)/w(k) = ((m−k)/(k+1))·(p/(1−p))` outward from
/// the modal count (where the pmf is largest), then normalized —
/// anchoring at the mode keeps every intermediate weight ≤ 1 relative to
/// the anchor, so the table stays finite even where `C(m,k)` alone would
/// overflow. At `p = 1` the downward recurrence multiplies by `1−p = 0`,
/// so the table puts all its mass on `k = m`.
#[derive(Clone, Debug)]
struct CountingBatch {
    /// Indices of the generators with positive probability.
    active: Vec<u32>,
    /// `cdf[k] = P(count ≤ k)` for `k = 0..=m`; last entry is 1.
    cdf: Vec<f64>,
    /// Floyd-sample scratch: membership marks over `active` indices.
    marks: Vec<bool>,
    /// Floyd-sample scratch: this slot's chosen `active` indices.
    picks: Vec<u64>,
}

impl CountingBatch {
    /// Builds the count table for `active.len()` generators at
    /// probability `p ∈ (0, 1]`.
    fn new(active: Vec<u32>, p: f64) -> Self {
        let m = active.len();
        debug_assert!(m > 0 && p > 0.0 && p <= 1.0);
        let q = 1.0 - p;
        let k_mode = (((m as f64 + 1.0) * p).floor() as usize).min(m);
        let mut weights = vec![0.0f64; m + 1];
        weights[k_mode] = 1.0;
        for k in k_mode..m {
            weights[k + 1] = weights[k] * ((m - k) as f64 / (k + 1) as f64) * (p / q);
        }
        for k in (1..=k_mode).rev() {
            weights[k - 1] = weights[k] * (k as f64 / (m - k + 1) as f64) * (q / p);
        }
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|&w| {
                acc += w / total;
                acc
            })
            .collect();
        CountingBatch {
            marks: vec![false; m],
            active,
            cdf,
            picks: Vec::new(),
        }
    }

    /// Draws a Binomial(m, p) count with a single uniform draw.
    fn sample_count(&self, rng: &mut dyn RngCore) -> usize {
        let u = rng.gen::<f64>();
        // `partition_point` returns the first k with cdf[k] > u, i.e.
        // the smallest count whose CDF exceeds the draw; the min guards
        // the (probability-zero up to rounding) case u ≥ cdf[m].
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }

    /// One slot: draw the batch size `k ~ Binomial(m, p)`, then pick
    /// *which* `k` generators fired with Floyd's uniform `k`-subset
    /// algorithm (`k` bounded draws, no rejection). Emission is in
    /// ascending generator order, the model's within-slot order.
    fn run(&mut self, rng: &mut dyn RngCore, emit: &mut dyn FnMut(u32, &mut dyn RngCore)) {
        let len = self.active.len();
        let k = self.sample_count(rng);
        if k == 0 {
            return;
        }
        if k >= len {
            for &g in &self.active {
                emit(g, rng);
            }
            return;
        }
        self.picks.clear();
        // Floyd: for j in m−k..m, draw t uniform in [0, j]; take t unless
        // already taken, else take j. Every k-subset is equally likely.
        for j in (len - k)..len {
            let t = rng.gen_range(0..j as u64 + 1) as usize;
            let chosen = if self.marks[t] { j } else { t };
            self.marks[chosen] = true;
            self.picks.push(chosen as u64);
        }
        self.picks.sort_unstable();
        for &idx in &self.picks {
            self.marks[idx as usize] = false;
            emit(self.active[idx as usize], rng);
        }
    }
}

/// The skip-ahead calendar, seeded lazily at the first queried slot.
#[derive(Clone, Debug)]
struct Calendar {
    /// Indices of the generators with positive probability.
    active: Vec<u32>,
    /// `(p, ln(1 − p))` per generator (aligned with the generator
    /// list): the total probability and the cached geometric-gap
    /// denominator.
    gaps: Vec<(f64, f64)>,
    /// Pending `(next injecting slot, generator)` entries; min-heap via
    /// `Reverse`, so ties pop in generator order (the model's
    /// within-slot order).
    heap: BinaryHeap<Reverse<(u64, u32)>>,
    /// Whether the heap has been seeded.
    seeded: bool,
}

impl Calendar {
    fn new(active: Vec<u32>, totals: &[f64]) -> Self {
        Calendar {
            active,
            gaps: totals.iter().map(|&p| (p, (-p).ln_1p())).collect(),
            heap: BinaryHeap::new(),
            seeded: false,
        }
    }

    /// Seeds every active generator's first pending slot from `slot`,
    /// once.
    fn seed(&mut self, slot: u64, rng: &mut dyn RngCore) {
        if self.seeded {
            return;
        }
        for &i in &self.active {
            let (p, ln_q) = self.gaps[i as usize];
            if let Some(next) = slot.checked_add(geometric_gap_cached(p, ln_q, rng)) {
                self.heap.push(Reverse((next, i)));
            }
        }
        self.seeded = true;
    }

    /// One slot: pop every entry due at `slot`, emitting each and
    /// rescheduling it one fresh geometric gap ahead.
    fn run(
        &mut self,
        slot: u64,
        rng: &mut dyn RngCore,
        emit: &mut dyn FnMut(u32, &mut dyn RngCore),
    ) {
        self.seed(slot, rng);
        while let Some(&Reverse((due, i))) = self.heap.peek() {
            if due > slot {
                break;
            }
            self.heap.pop();
            let (p, ln_q) = self.gaps[i as usize];
            if due < slot {
                // The entry came due in a slot that was never queried
                // (the caller skipped ahead). The geometric law is
                // memoryless, so rescheduling with a fresh gap from the
                // current slot reproduces exactly the conditional
                // distribution of "next injection at or after `slot`".
                if let Some(next) = slot.checked_add(geometric_gap_cached(p, ln_q, rng)) {
                    self.heap.push(Reverse((next, i)));
                }
                continue;
            }
            emit(i, rng);
            if let Some(next) = slot
                .checked_add(1)
                .and_then(|s| s.checked_add(geometric_gap_cached(p, ln_q, rng)))
            {
                self.heap.push(Reverse((next, i)));
            }
        }
    }

    /// The earliest slot `≥ after` with a pending entry (`u64::MAX` when
    /// none), seeding the heap at `after` on a first-ever query.
    fn next_due(&mut self, after: u64, rng: &mut dyn RngCore) -> u64 {
        self.seed(after, rng);
        self.heap
            .peek()
            .map_or(u64::MAX, |&Reverse((due, _))| due.max(after))
    }
}

/// The sampler of a [`StochasticInjector`]'s generator set.
///
/// An [`Injector`] with the model's per-slot distribution and
/// O(1)-amortized idle-slot cost. Construct with
/// [`new`](BatchStochasticInjector::new) or via `From<StochasticInjector>`.
///
/// ```
/// use dps_core::injection::batch::BatchStochasticInjector;
/// use dps_core::injection::stochastic::uniform_generators;
/// use dps_core::injection::Injector;
/// use dps_core::prelude::*;
/// use dps_core::rng::root_rng;
///
/// let routes: Vec<_> = (0..4)
///     .map(|l| RoutePath::single_hop(LinkId(l)).shared())
///     .collect();
/// let mut injector = BatchStochasticInjector::from(uniform_generators(routes, 0.25)?);
/// let mut rng = root_rng(7);
/// let mut buf = Vec::new();
/// injector.inject_into(0, &mut rng, &mut buf);
/// assert!(buf.len() <= 4);
/// # Ok::<(), dps_core::error::ModelError>(())
/// ```
#[derive(Clone, Debug)]
pub struct BatchStochasticInjector {
    inner: StochasticInjector,
    mode: Mode,
    /// Interned-id cache for the route-id lane, `[generator][choice]`.
    /// Filled on first emission of each choice; valid only against the
    /// single [`RouteTable`] this injector has been driven with.
    route_ids: Vec<Vec<Option<RouteId>>>,
}

impl BatchStochasticInjector {
    /// Samples `inner`'s generators, selecting the mode from their total
    /// probabilities: the counting batch when every positive generator
    /// shares one probability `p` (`p = 1` included) and the set expects
    /// at least [`COUNTING_MIN_EXPECTED_PER_SLOT`] packets per slot, the
    /// skip-ahead calendar otherwise, and idle when no generator can
    /// inject.
    pub fn new(inner: StochasticInjector) -> Self {
        let totals: Vec<f64> = inner
            .generators()
            .iter()
            .map(|g| g.total_probability())
            .collect();
        let active: Vec<u32> = totals
            .iter()
            .enumerate()
            .filter(|(_, &t)| t > 0.0)
            .map(|(i, _)| i as u32)
            .collect();
        let mode = match active.first() {
            None => Mode::Idle,
            Some(&first) => {
                let p = totals[first as usize];
                let symmetric = active.iter().all(|&i| totals[i as usize] == p);
                if symmetric && p * active.len() as f64 >= COUNTING_MIN_EXPECTED_PER_SLOT {
                    Mode::Counting(CountingBatch::new(active, p))
                } else {
                    Mode::Calendar(Calendar::new(active, &totals))
                }
            }
        };
        let route_ids = inner
            .generators()
            .iter()
            .map(|g| vec![None; g.choices().len()])
            .collect();
        BatchStochasticInjector {
            inner,
            mode,
            route_ids,
        }
    }

    /// The generator set this engine samples (specs, rates, loads).
    pub fn inner(&self) -> &StochasticInjector {
        &self.inner
    }

    /// Whether the counting batch was selected (one binomial count draw
    /// plus Floyd index sampling per slot).
    pub fn is_counting(&self) -> bool {
        matches!(self.mode, Mode::Counting(_))
    }

    /// Expected per-slot load vector `F` of the generator set.
    pub fn expected_load(&self, num_links: usize) -> LinkLoad {
        self.inner.expected_load(num_links)
    }

    /// The injection rate `λ = ‖W·F‖∞` under `model`.
    pub fn rate<M: InterferenceModel + ?Sized>(&self, model: &M) -> f64 {
        self.inner.rate(model)
    }
}

impl From<StochasticInjector> for BatchStochasticInjector {
    fn from(inner: StochasticInjector) -> Self {
        BatchStochasticInjector::new(inner)
    }
}

impl Injector for BatchStochasticInjector {
    fn inject_into(&mut self, slot: u64, rng: &mut dyn RngCore, out: &mut Vec<Arc<RoutePath>>) {
        out.clear();
        let generators = self.inner.generators();
        self.mode.run(slot, rng, &mut |g, rng| {
            let generator = &generators[g as usize];
            if let Some(choice) = generator.sample_conditional_index(rng) {
                out.push(generator.choices()[choice].0.clone());
            }
        });
    }

    /// The calendar answers from its min-heap (seeding it lazily on a
    /// first-ever query); the counting batch may inject every slot, so
    /// its hint is `after` itself; idle never injects again.
    fn next_active_slot(&mut self, after: u64, rng: &mut dyn RngCore) -> Option<u64> {
        Some(match &mut self.mode {
            Mode::Idle => u64::MAX,
            Mode::Counting(_) => after,
            Mode::Calendar(calendar) => calendar.next_due(after, rng),
        })
    }

    fn interned_capable(&self) -> bool {
        true
    }

    /// The id cache is filled against the first `table` this injector
    /// sees; driving one injector against multiple distinct tables is a
    /// contract violation (ids from the first table would be replayed
    /// into the second).
    fn inject_interned_into(
        &mut self,
        slot: u64,
        rng: &mut dyn RngCore,
        table: &mut RouteTable,
        out: &mut Vec<RouteId>,
    ) {
        out.clear();
        let generators = self.inner.generators();
        let route_ids = &mut self.route_ids;
        self.mode.run(slot, rng, &mut |g, rng| {
            let generator = &generators[g as usize];
            if let Some(choice) = generator.sample_conditional_index(rng) {
                let cache = &mut route_ids[g as usize];
                let id = cache[choice].unwrap_or_else(|| {
                    // First emission of this choice: intern once, then
                    // replay the id for the rest of the run. Interning
                    // lazily in emission order assigns exactly the ids
                    // the `Arc` lane's arrival stream would have.
                    let id = table.intern(&generator.choices()[choice].0);
                    cache[choice] = Some(id);
                    id
                });
                out.push(id);
            }
        });
    }
}

/// Samples the geometric skip-ahead gap: the number of non-injecting
/// slots a Bernoulli(`p`) generator waits before its next injection,
/// `P(gap = k) = (1−p)ᵏ·p`, in O(1) via inversion:
/// `⌊ln u / ln(1−p)⌋` with `u` uniform in `(0, 1]`.
///
/// `p ≥ 1` injects every slot (gap 0); `p ≤ 0` never injects
/// (`u64::MAX`, clamped — callers drop entries that overflow the slot
/// horizon).
pub fn geometric_gap(p: f64, rng: &mut dyn RngCore) -> u64 {
    geometric_gap_cached(p, (-p).ln_1p(), rng)
}

/// [`geometric_gap`] with the denominator `ln(1 − p)` precomputed (the
/// calendar caches it per generator: one `ln_1p` per construction
/// instead of one per injection). Bit-identical to [`geometric_gap`]:
/// same draw, same division.
fn geometric_gap_cached(p: f64, ln_q: f64, rng: &mut dyn RngCore) -> u64 {
    if p >= 1.0 {
        return 0;
    }
    if p <= 0.0 {
        return u64::MAX;
    }
    // `gen::<f64>()` is uniform in [0, 1); reflect to (0, 1] so `ln`
    // never sees zero. The denominator is `ln(1−p)` via `ln_1p`, which
    // stays exact (≈ −p) for tiny p where `(1.0 - p).ln()` would round
    // to zero and the division would collapse every gap to 0.
    let u = 1.0 - rng.gen::<f64>();
    let gap = u.ln() / ln_q;
    if gap >= u64::MAX as f64 {
        u64::MAX
    } else {
        // Truncation of a non-negative finite float is the floor.
        gap as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::LinkId;
    use crate::injection::stochastic::{uniform_generators, GeneratorSpec};
    use crate::rng::root_rng;

    fn path(link: u32) -> Arc<RoutePath> {
        RoutePath::single_hop(LinkId(link)).shared()
    }

    /// The model's definition, sampled literally: every slot, one
    /// uniform per generator; the generator injects iff the draw falls
    /// below its total probability, and a CDF walk over its choices with
    /// the same draw picks the route (rounding residue falls back to the
    /// last choice that can carry traffic). The engine's distributional
    /// referee; it shares none of the engine's sampling code.
    struct NaiveReferee(StochasticInjector);

    impl Injector for NaiveReferee {
        fn inject_into(
            &mut self,
            _slot: u64,
            rng: &mut dyn RngCore,
            out: &mut Vec<Arc<RoutePath>>,
        ) {
            out.clear();
            for g in self.0.generators() {
                let u: f64 = rng.gen();
                if u >= g.total_probability() {
                    continue;
                }
                let mut acc = 0.0;
                let route = g
                    .choices()
                    .iter()
                    .find(|(_, p)| {
                        acc += p;
                        u < acc
                    })
                    .or_else(|| g.choices().iter().rev().find(|(_, p)| *p > 0.0));
                out.extend(route.map(|(r, _)| r.clone()));
            }
        }
    }

    /// χ² statistic of observed counts against expected counts.
    fn chi_square(observed: &[f64], expected: &[f64]) -> f64 {
        observed
            .iter()
            .zip(expected)
            .map(|(o, e)| {
                assert!(*e > 0.0, "expected count must be positive");
                (o - e).powi(2) / e
            })
            .sum()
    }

    /// Two-sample χ² homogeneity statistic of two histograms over the
    /// same number of trials, adjacent bins pooled until each holds at
    /// least ten observations. Returns `(statistic, degrees of freedom)`.
    fn two_sample_chi_square(a: &[u64], b: &[u64]) -> (f64, usize) {
        let mut bins: Vec<(f64, f64)> = Vec::new();
        let (mut pa, mut pb) = (0.0, 0.0);
        for (&x, &y) in a.iter().zip(b) {
            pa += x as f64;
            pb += y as f64;
            if pa + pb >= 10.0 {
                bins.push((pa, pb));
                (pa, pb) = (0.0, 0.0);
            }
        }
        match bins.last_mut() {
            Some(last) => {
                last.0 += pa;
                last.1 += pb;
            }
            None => bins.push((pa, pb)),
        }
        let stat = bins.iter().map(|&(x, y)| (x - y).powi(2) / (x + y)).sum();
        (stat, bins.len() - 1)
    }

    /// Upper α = 0.001 critical value of χ²(df), by the Wilson–Hilferty
    /// approximation (zero for df = 0, where the statistic is zero).
    fn chi_square_critical(df: usize) -> f64 {
        if df == 0 {
            return 0.0;
        }
        let d = df as f64;
        let h = 2.0 / (9.0 * d);
        d * (1.0 - h + 3.0902 * h.sqrt()).powi(3)
    }

    #[test]
    fn mode_selection_follows_totals() {
        let dense =
            BatchStochasticInjector::from(uniform_generators((0..8).map(path), 0.25).unwrap());
        assert!(dense.is_counting(), "8 × 0.25 = 2 expected/slot counts");

        let sparse =
            BatchStochasticInjector::from(uniform_generators((0..8).map(path), 0.01).unwrap());
        assert!(!sparse.is_counting(), "8 × 0.01 expected/slot is sparse");

        let asymmetric = BatchStochasticInjector::from(StochasticInjector::new(vec![
            GeneratorSpec::bernoulli(path(0), 0.9).unwrap(),
            GeneratorSpec::bernoulli(path(1), 0.5).unwrap(),
        ]));
        assert!(!asymmetric.is_counting(), "mixed totals use the calendar");

        let mut idle =
            BatchStochasticInjector::from(StochasticInjector::new(vec![GeneratorSpec::bernoulli(
                path(0),
                0.0,
            )
            .unwrap()]));
        assert!(!idle.is_counting());
        let mut rng = root_rng(1);
        for slot in 0..100 {
            assert!(idle.inject(slot, &mut rng).is_empty());
        }
        assert_eq!(idle.next_active_slot(0, &mut rng), Some(u64::MAX));
    }

    #[test]
    fn geometric_gap_matches_its_law() {
        let mut rng = root_rng(5);
        let p = 0.2;
        let n = 200_000;
        let mut counts = [0u64; 4];
        let mut tail = 0u64;
        for _ in 0..n {
            let g = geometric_gap(p, &mut rng);
            if (g as usize) < counts.len() {
                counts[g as usize] += 1;
            } else {
                tail += 1;
            }
        }
        let observed: Vec<f64> = counts
            .iter()
            .map(|&c| c as f64)
            .chain([tail as f64])
            .collect();
        let mut expected: Vec<f64> = (0..counts.len())
            .map(|k| n as f64 * (1.0 - p).powi(k as i32) * p)
            .collect();
        expected.push(n as f64 - expected.iter().sum::<f64>());
        // df = 4; critical value at α = 0.001 is 18.47.
        let chi2 = chi_square(&observed, &expected);
        assert!(chi2 < 18.47, "geometric gap law off: χ² = {chi2}");
        assert_eq!(geometric_gap(1.0, &mut rng), 0);
        assert_eq!(geometric_gap(0.0, &mut rng), u64::MAX);
    }

    /// Regression: for p below ~2⁻⁵², `1.0 − p` rounds to `1.0`, so a
    /// naive `(1.0 − p).ln()` denominator is `0` and every gap
    /// collapses to `-inf as u64 = 0` — a generator meant to fire once
    /// per ~10¹⁷ slots would fire *every* slot. `ln_1p` keeps the
    /// denominator ≈ −p.
    #[test]
    fn geometric_gap_survives_tiny_probabilities() {
        let mut rng = root_rng(6);
        for _ in 0..100 {
            let gap = geometric_gap(1e-17, &mut rng);
            assert!(
                gap > 1_000_000_000,
                "tiny-p gap collapsed to {gap} (expected ~10¹⁷)"
            );
        }
        // And a calendar over such a generator stays silent.
        let mut batch =
            BatchStochasticInjector::new(StochasticInjector::new(vec![GeneratorSpec::bernoulli(
                path(0),
                1e-17,
            )
            .unwrap()]));
        let mut rng = root_rng(7);
        for slot in 0..10_000 {
            assert!(batch.inject(slot, &mut rng).is_empty());
        }
    }

    #[test]
    fn dense_batch_matches_naive_rate_and_occupancy() {
        let m = 256;
        let p = 0.3;
        let slots = 20_000u64;
        let expected = m as f64 * p;

        let mut batch =
            BatchStochasticInjector::from(uniform_generators((0..m as u32).map(path), p).unwrap());
        assert!(batch.is_counting());
        let mut naive = NaiveReferee(uniform_generators((0..m as u32).map(path), p).unwrap());

        let mut rng_b = root_rng(21);
        let mut rng_n = root_rng(22);
        let mut buf = Vec::new();
        let (mut total_b, mut total_n) = (0u64, 0u64);
        let mut per_generator = vec![0u64; m];
        for slot in 0..slots {
            batch.inject_into(slot, &mut rng_b, &mut buf);
            assert!(buf.len() <= m, "more packets than generators");
            total_b += buf.len() as u64;
            for route in &buf {
                per_generator[route.hop(0).unwrap().index()] += 1;
            }
            total_n += naive.inject(slot, &mut rng_n).len() as u64;
        }
        let mean_b = total_b as f64 / slots as f64;
        let mean_n = total_n as f64 / slots as f64;
        assert!(
            (mean_b - expected).abs() < 0.5,
            "batch mean {mean_b} vs expected {expected}"
        );
        assert!(
            (mean_b - mean_n).abs() < 1.0,
            "batch mean {mean_b} vs naive mean {mean_n}"
        );
        // Per-generator occupancy is uniform: χ² over m cells, each
        // expecting slots·p. df = 255; critical at α ≈ 0.001 is ~330.
        let observed: Vec<f64> = per_generator.iter().map(|&c| c as f64).collect();
        let expected_cells = vec![slots as f64 * p; m];
        let chi2 = chi_square(&observed, &expected_cells);
        assert!(chi2 < 330.0, "per-generator occupancy skewed: χ² = {chi2}");
    }

    #[test]
    fn sparse_calendar_matches_naive_rate() {
        let m = 64;
        let p = 0.004;
        let slots = 400_000u64;
        let expected = m as f64 * p; // 0.256 packets/slot → calendar

        let mut batch =
            BatchStochasticInjector::from(uniform_generators((0..m as u32).map(path), p).unwrap());
        assert!(!batch.is_counting());
        let mut naive = NaiveReferee(uniform_generators((0..m as u32).map(path), p).unwrap());

        let mut rng_b = root_rng(31);
        let mut rng_n = root_rng(32);
        let mut buf = Vec::new();
        let (mut total_b, mut total_n) = (0u64, 0u64);
        for slot in 0..slots {
            batch.inject_into(slot, &mut rng_b, &mut buf);
            assert!(buf.len() <= m);
            total_b += buf.len() as u64;
            total_n += naive.inject(slot, &mut rng_n).len() as u64;
        }
        let mean_b = total_b as f64 / slots as f64;
        let mean_n = total_n as f64 / slots as f64;
        assert!(
            (mean_b - expected).abs() < 0.01,
            "calendar mean {mean_b} vs expected {expected}"
        );
        assert!(
            (mean_b - mean_n).abs() < 0.02,
            "calendar mean {mean_b} vs naive mean {mean_n}"
        );
    }

    #[test]
    fn per_choice_distribution_matches_naive_chi_square() {
        // A mixture generator plus an asymmetric companion forces the
        // calendar; the route distribution conditional on injection must
        // match the model's `p_i / total`.
        let weights = [0.05, 0.03, 0.02];
        let total: f64 = weights.iter().sum();
        let make = || {
            StochasticInjector::new(vec![
                GeneratorSpec::new(
                    weights
                        .iter()
                        .enumerate()
                        .map(|(i, &w)| (path(i as u32), w))
                        .collect(),
                )
                .unwrap(),
                GeneratorSpec::bernoulli(path(9), 0.01).unwrap(),
            ])
        };
        let slots = 300_000u64;
        let run = |injector: &mut dyn Injector, seed: u64| -> Vec<f64> {
            let mut rng = root_rng(seed);
            let mut counts = vec![0f64; weights.len()];
            let mut buf = Vec::new();
            for slot in 0..slots {
                injector.inject_into(slot, &mut rng, &mut buf);
                for route in &buf {
                    let link = route.hop(0).unwrap().index();
                    if link < weights.len() {
                        counts[link] += 1.0;
                    }
                }
            }
            counts
        };
        let mut batch = BatchStochasticInjector::new(make());
        assert!(!batch.is_counting());
        let mut naive = NaiveReferee(make());
        let batch_counts = run(&mut batch, 41);
        let naive_counts = run(&mut naive, 42);

        for (label, counts) in [("batch", &batch_counts), ("naive", &naive_counts)] {
            let n: f64 = counts.iter().sum();
            let expected: Vec<f64> = weights.iter().map(|w| n * w / total).collect();
            // df = 2; critical value at α = 0.001 is 13.82.
            let chi2 = chi_square(counts, &expected);
            assert!(chi2 < 13.82, "{label} per-choice skew: χ² = {chi2}");
        }
        // And the two samplers' totals agree with the analytic rate.
        let expected_total = slots as f64 * total;
        for (label, counts) in [("batch", &batch_counts), ("naive", &naive_counts)] {
            let n: f64 = counts.iter().sum();
            assert!(
                (n - expected_total).abs() / expected_total < 0.05,
                "{label} total {n} far from {expected_total}"
            );
        }
    }

    #[test]
    fn calendar_generator_injects_at_most_once_per_slot() {
        // Two certain generators (p=1, forced asymmetric companion keeps
        // the calendar) must inject exactly once each, every slot.
        let mut batch = BatchStochasticInjector::new(StochasticInjector::new(vec![
            GeneratorSpec::new(vec![(path(0), 0.5), (path(1), 0.5)]).unwrap(),
            GeneratorSpec::bernoulli(path(2), 0.25).unwrap(),
        ]));
        assert!(!batch.is_counting());
        let mut rng = root_rng(8);
        let mut buf = Vec::new();
        for slot in 0..2_000 {
            batch.inject_into(slot, &mut rng, &mut buf);
            let from_certain = buf.iter().filter(|r| r.hop(0).unwrap().index() < 2).count();
            assert_eq!(from_certain, 1, "certain generator must fire every slot");
            assert!(buf.len() <= 2);
        }
    }

    #[test]
    fn certain_dense_generators_fire_every_slot() {
        let m = 8;
        let mut batch =
            BatchStochasticInjector::from(uniform_generators((0..m).map(path), 1.0).unwrap());
        assert!(batch.is_counting());
        let mut rng = root_rng(9);
        let mut buf = Vec::new();
        for slot in 0..500 {
            batch.inject_into(slot, &mut rng, &mut buf);
            assert_eq!(buf.len(), m as usize);
        }
    }

    #[test]
    fn skipped_slots_are_tolerated() {
        let mut batch =
            BatchStochasticInjector::from(uniform_generators((0..16).map(path), 0.02).unwrap());
        let mut rng = root_rng(12);
        let mut buf = Vec::new();
        let mut total = 0usize;
        // Query every 10th slot: scheduled entries in the gaps must be
        // rescheduled, not dumped into the queried slot.
        for step in 0..20_000u64 {
            batch.inject_into(step * 10, &mut rng, &mut buf);
            assert!(buf.len() <= 16);
            total += buf.len();
        }
        // Each queried slot is still Bernoulli(0.02) per generator:
        // expected 16·0.02·20000 = 6400.
        assert!(
            (total as f64 - 6400.0).abs() < 400.0,
            "skip-querying distorted the rate: {total}"
        );
    }

    #[test]
    fn same_seed_reproduces_the_stream() {
        for p in [0.005, 0.4] {
            let make =
                || BatchStochasticInjector::from(uniform_generators((0..32).map(path), p).unwrap());
            let run = |mut injector: BatchStochasticInjector| -> Vec<usize> {
                let mut rng = root_rng(77);
                let mut buf = Vec::new();
                let mut trace = Vec::new();
                for slot in 0..5_000 {
                    injector.inject_into(slot, &mut rng, &mut buf);
                    trace.extend(buf.iter().map(|r| r.hop(0).unwrap().index()));
                    trace.push(usize::MAX); // slot separator
                }
                trace
            };
            assert_eq!(run(make()), run(make()), "p = {p} stream diverged");
        }
    }

    #[test]
    fn counting_mode_selection_follows_expected_batch() {
        // 256 × 0.3 = 76.8 expected/slot: counting.
        let big =
            BatchStochasticInjector::from(uniform_generators((0..256).map(path), 0.3).unwrap());
        assert!(big.is_counting());
        // 16 × 0.25 = 4 expected/slot: counting too, down to the bar.
        let mid =
            BatchStochasticInjector::from(uniform_generators((0..16).map(path), 0.25).unwrap());
        assert!(mid.is_counting());
        let at_bar =
            BatchStochasticInjector::from(uniform_generators((0..1).map(path), 0.5).unwrap());
        assert!(at_bar.is_counting(), "1 × 0.5 sits on the bar");
        let below =
            BatchStochasticInjector::from(uniform_generators((0..4).map(path), 0.1).unwrap());
        assert!(!below.is_counting(), "4 × 0.1 = 0.4 uses the calendar");
        // p = 1 counts as well: its table puts all mass on k = m.
        let certain =
            BatchStochasticInjector::from(uniform_generators((0..64).map(path), 1.0).unwrap());
        assert!(certain.is_counting());
    }

    /// The RNG-change rule for the counting batch: its per-slot count
    /// distribution must be the model's, checked against the naive
    /// referee by a two-sample χ² test over the count histogram. The
    /// inputs are the batch's original regime (128 × 0.25) and the ones
    /// the geometric index walk served before the counting batch took
    /// over its band: the golden driver (1 × 0.5), ring-routing
    /// (8 × 0.25), sinr-dense (256 × 0.0093), and p = 1.
    #[test]
    fn counting_batch_matches_naive_count_distribution() {
        let slots = 30_000u64;
        for (m, p) in [
            (128usize, 0.25),
            (1, 0.5),
            (8, 0.25),
            (256, 0.0093),
            (8, 1.0),
        ] {
            let make = || uniform_generators((0..m as u32).map(path), p).unwrap();
            let mut batch = BatchStochasticInjector::from(make());
            assert!(batch.is_counting(), "{m} × {p} must use the counting batch");
            let mut naive = NaiveReferee(make());

            // Per-slot count histogram and per-generator occupancy.
            let run = |injector: &mut dyn Injector, seed: u64| -> (Vec<u64>, Vec<u64>) {
                let mut rng = root_rng(seed);
                let mut buf = Vec::new();
                let mut histogram = vec![0u64; m + 1];
                let mut per_generator = vec![0u64; m];
                for slot in 0..slots {
                    injector.inject_into(slot, &mut rng, &mut buf);
                    assert!(buf.len() <= m, "more packets than generators");
                    histogram[buf.len()] += 1;
                    for route in &buf {
                        per_generator[route.hop(0).unwrap().index()] += 1;
                    }
                }
                (histogram, per_generator)
            };
            let (hist_b, per_gen_b) = run(&mut batch, 51);
            let (hist_n, _) = run(&mut naive, 52);

            let (chi2, df) = two_sample_chi_square(&hist_b, &hist_n);
            assert!(
                chi2 <= chi_square_critical(df),
                "{m} × {p}: count distribution differs from the referee: χ² = {chi2}, df = {df}"
            );
            // Binomial(m, p) mean, within six standard errors.
            let mean = hist_b
                .iter()
                .enumerate()
                .map(|(k, &c)| k as f64 * c as f64)
                .sum::<f64>()
                / slots as f64;
            let stderr = (m as f64 * p * (1.0 - p) / slots as f64).sqrt();
            assert!(
                (mean - m as f64 * p).abs() <= 6.0 * stderr + 1e-9,
                "{m} × {p}: counting mean {mean}"
            );
            // Floyd sampling must keep the injecting set uniform over
            // generators (the mean check above covers m = 1).
            if m > 1 {
                let observed: Vec<f64> = per_gen_b.iter().map(|&c| c as f64).collect();
                let chi2 = chi_square(&observed, &vec![slots as f64 * p; m]);
                assert!(
                    chi2 <= chi_square_critical(m - 1),
                    "{m} × {p}: counting occupancy skewed: χ² = {chi2}"
                );
            }
        }
    }

    #[test]
    fn counting_batch_preserves_route_mixture() {
        // Symmetric totals (0.3 each) with two choices per generator
        // force Counting while still exercising the conditional route
        // draw; each choice must get half the emissions.
        let m = 64u32;
        let make = || {
            StochasticInjector::new(
                (0..m)
                    .map(|i| {
                        GeneratorSpec::new(vec![(path(2 * i), 0.15), (path(2 * i + 1), 0.15)])
                            .unwrap()
                    })
                    .collect(),
            )
        };
        let mut batch = BatchStochasticInjector::new(make());
        assert!(batch.is_counting());
        let mut rng = root_rng(61);
        let mut buf = Vec::new();
        let (mut even, mut odd) = (0u64, 0u64);
        for slot in 0..20_000u64 {
            batch.inject_into(slot, &mut rng, &mut buf);
            for route in &buf {
                if route.hop(0).unwrap().index() % 2 == 0 {
                    even += 1;
                } else {
                    odd += 1;
                }
            }
        }
        let total = (even + odd) as f64;
        let ratio = even as f64 / total;
        assert!(
            (ratio - 0.5).abs() < 0.01,
            "choice mixture skewed: {even} even vs {odd} odd"
        );
        // And the rate matches 64 × 0.3 = 19.2 packets/slot.
        let mean = total / 20_000.0;
        assert!((mean - 19.2).abs() < 0.2, "counting mixture mean {mean}");
    }

    /// The skip-ahead contract the event engine relies on: driving the
    /// injector only at hinted slots must reproduce the every-slot
    /// stream bit for bit. Jumping exactly to the heap's next due slot
    /// never strands an entry in the past, so the memoryless reschedule
    /// path (which *would* consume extra draws) is never taken.
    #[test]
    fn hint_driven_querying_matches_every_slot_stream() {
        let horizon = 200_000u64;
        for (label, make) in [
            (
                "sparse-uniform",
                Box::new(|| {
                    BatchStochasticInjector::from(
                        uniform_generators((0..64).map(path), 0.0003).unwrap(),
                    )
                }) as Box<dyn Fn() -> BatchStochasticInjector>,
            ),
            (
                "asymmetric",
                Box::new(|| {
                    BatchStochasticInjector::new(StochasticInjector::new(vec![
                        GeneratorSpec::new(vec![(path(0), 0.001), (path(1), 0.002)]).unwrap(),
                        GeneratorSpec::bernoulli(path(2), 0.0007).unwrap(),
                    ]))
                }),
            ),
        ] {
            let mut per_slot = make();
            let mut rng_a = root_rng(91);
            let mut buf = Vec::new();
            let mut stream_a = Vec::new();
            for slot in 0..horizon {
                per_slot.inject_into(slot, &mut rng_a, &mut buf);
                for route in &buf {
                    stream_a.push((slot, route.hop(0).unwrap().index()));
                }
            }

            let mut hinted = make();
            let mut rng_b = root_rng(91);
            let mut stream_b = Vec::new();
            let mut slot = 0u64;
            while slot < horizon {
                hinted.inject_into(slot, &mut rng_b, &mut buf);
                for route in &buf {
                    stream_b.push((slot, route.hop(0).unwrap().index()));
                }
                match hinted.next_active_slot(slot + 1, &mut rng_b) {
                    Some(next) if next < horizon => slot = next,
                    _ => break,
                }
            }
            assert_eq!(stream_a, stream_b, "{label}: hinted stream diverged");
            assert!(
                !stream_a.is_empty(),
                "{label}: degenerate test, nothing injected"
            );
        }
    }

    /// Lazy seeding far from the origin must behave like seeding at 0:
    /// gaps are relative, so a first query at a huge slot neither
    /// panics nor distorts the rate (entries that would overflow the
    /// u64 horizon are dropped, not wrapped).
    #[test]
    fn lazy_seed_at_late_slot_keeps_rate_and_saturates() {
        let start = u64::MAX - 2_000_000;
        let mut batch =
            BatchStochasticInjector::from(uniform_generators((0..32).map(path), 0.01).unwrap());
        let mut rng = root_rng(101);
        let mut buf = Vec::new();
        let mut total = 0u64;
        let slots = 300_000u64;
        for slot in start..start + slots {
            batch.inject_into(slot, &mut rng, &mut buf);
            total += buf.len() as u64;
        }
        let mean = total as f64 / slots as f64;
        assert!(
            (mean - 0.32).abs() < 0.02,
            "late-seeded rate off: {mean} vs 0.32"
        );
        // The hint saturates instead of wrapping past u64::MAX.
        let hint = batch
            .next_active_slot(u64::MAX - 1, &mut rng)
            .expect("calendar always answers");
        assert!(hint >= u64::MAX - 1);

        // And a generator whose first gap exceeds the representable
        // horizon is silently dropped: ⌊ln u / ln(1−p)⌋ saturates to
        // u64::MAX rather than overflowing the cast.
        let mut tiny =
            BatchStochasticInjector::new(StochasticInjector::new(vec![GeneratorSpec::bernoulli(
                path(0),
                1e-300,
            )
            .unwrap()]));
        let mut rng = root_rng(102);
        assert_eq!(geometric_gap(1e-300, &mut rng), u64::MAX);
        assert!(tiny.inject(u64::MAX - 1, &mut rng).is_empty());
        assert_eq!(tiny.next_active_slot(u64::MAX, &mut rng), Some(u64::MAX));
    }

    /// The route-id lane must replay exactly the `Arc` lane's stream —
    /// same slots, same routes, same interning order — for every mode.
    #[test]
    fn interned_lane_matches_arc_lane() {
        use crate::route_table::RouteTable;
        for (label, p, m) in [
            ("calendar", 0.003, 64u32),
            ("small counting", 0.2, 4),
            ("counting", 0.3, 64),
        ] {
            let make = || {
                BatchStochasticInjector::from(StochasticInjector::new(
                    (0..m)
                        .map(|i| {
                            GeneratorSpec::new(vec![
                                (path(2 * i), p / 2.0),
                                (path(2 * i + 1), p / 2.0),
                            ])
                            .unwrap()
                        })
                        .collect(),
                ))
            };
            let mut arcs = make();
            let mut ids = make();
            let mut rng_a = root_rng(111);
            let mut rng_b = root_rng(111);
            let mut table_a = RouteTable::new();
            let mut table_b = RouteTable::new();
            let mut route_buf = Vec::new();
            let mut id_buf = Vec::new();
            let mut seen = 0usize;
            for slot in 0..20_000u64 {
                arcs.inject_into(slot, &mut rng_a, &mut route_buf);
                let expected: Vec<_> = route_buf.iter().map(|r| table_a.intern(r)).collect();
                ids.inject_interned_into(slot, &mut rng_b, &mut table_b, &mut id_buf);
                assert_eq!(expected, id_buf, "{label}: slot {slot} diverged");
                seen += id_buf.len();
            }
            assert_eq!(table_a.len(), table_b.len(), "{label}: interning drifted");
            assert!(seen > 0, "{label}: degenerate test, nothing injected");
        }
    }
}
