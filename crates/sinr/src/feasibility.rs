//! Exact SINR feasibility: the physical ground truth against which every
//! protocol in this workspace is validated.
//!
//! Unlike the pairwise matrix abstraction used to *design* schedules, this
//! oracle applies the full accumulated-interference SINR inequality to the
//! attempts actually made in a slot. Since this runs once per slot for the
//! whole simulation, it is the hottest kernel in the workspace; the
//! implementation therefore judges a slot from a [`SinrCache`] — cached
//! signals, margins and pairwise gains, no `sqrt`/`powf` — and iterates
//! only the `k` *attempted* links (`O(k²)` per slot) instead of scanning
//! all `m` links per attempt (`O(k·m)` with transcendentals, as the
//! reference implementation [`SinrFeasibility::successes_naive`] still
//! does). The two paths make bit-for-bit identical decisions; the
//! equivalence is property-tested in `tests/prop_sinr.rs`.

use crate::cache::SinrCache;
use crate::network::SinrNetwork;
use crate::power::PowerAssignment;
use dps_core::feasibility::{Attempt, Feasibility};
use dps_core::ids::LinkId;
use rand::RngCore;
use std::cell::RefCell;
use std::sync::Arc;

/// The accumulative SINR oracle under a fixed power assignment.
///
/// The geometry cache is held behind an [`Arc`], so one
/// [`SinrCache`] built for a network can be shared between the oracle,
/// the matrix constructions of [`crate::matrix`] and any other consumer
/// without re-deriving the `O(m²)` gain table — see
/// [`SinrFeasibility::with_cache`].
#[derive(Clone, Debug)]
pub struct SinrFeasibility<P> {
    net: SinrNetwork,
    power: P,
    cache: Arc<SinrCache>,
}

impl<P: PowerAssignment> SinrFeasibility<P> {
    /// Creates the oracle, precomputing the geometry cache (dense gain
    /// table within [`crate::cache::DEFAULT_DENSE_GAIN_BUDGET_BYTES`]).
    pub fn new(net: SinrNetwork, power: P) -> Self {
        let cache = Arc::new(SinrCache::new(&net, &power));
        SinrFeasibility { net, power, cache }
    }

    /// Creates the oracle with an explicit dense-gain-table limit
    /// (`0` forces the `O(m)`-memory on-the-fly gain fallback).
    pub fn with_dense_limit(net: SinrNetwork, power: P, dense_limit: usize) -> Self {
        let cache = Arc::new(SinrCache::with_dense_limit(&net, &power, dense_limit));
        SinrFeasibility { net, power, cache }
    }

    /// Creates the oracle with an explicit memory budget for the dense
    /// gain table (see [`SinrCache::with_memory_budget`]).
    pub fn with_memory_budget(net: SinrNetwork, power: P, budget_bytes: usize) -> Self {
        let cache = Arc::new(SinrCache::with_memory_budget(&net, &power, budget_bytes));
        SinrFeasibility { net, power, cache }
    }

    /// Creates the oracle around an already-built shared cache, instead
    /// of deriving its own — the substrate-sharing path: one
    /// [`SinrCache`] per topology serves this oracle and the
    /// interference-matrix builds alike.
    ///
    /// # Panics
    ///
    /// Panics if the cache was not built for this `(network, power)`
    /// pair: the link count must match and every link's cached
    /// transmission power and signal strength must be bit-for-bit what
    /// `power` produces on `net` (an `O(m)` check — cheap next to the
    /// `O(m²)` construction it replaces, and exact because a matching
    /// cache stores these very expressions).
    pub fn with_cache(net: SinrNetwork, power: P, cache: Arc<SinrCache>) -> Self {
        assert_cache_pairing("SinrCache", &cache, &net, &power);
        SinrFeasibility { net, power, cache }
    }

    /// The network the oracle judges.
    pub fn network(&self) -> &SinrNetwork {
        &self.net
    }

    /// The precomputed geometry cache the fast path judges from.
    pub fn cache(&self) -> &SinrCache {
        &self.cache
    }

    /// The shared handle to the geometry cache (clone to share it with
    /// matrix builds or other oracles over the same topology).
    pub fn shared_cache(&self) -> &Arc<SinrCache> {
        &self.cache
    }

    /// Whether the given set of links (one transmission each) is
    /// simultaneously feasible — the static "can this be one slot?" check
    /// used by schedule validators and the star-instance tests.
    pub fn set_feasible(&self, links: &[dps_core::ids::LinkId]) -> bool {
        let attempts: Vec<Attempt> = links
            .iter()
            .enumerate()
            .map(|(i, &link)| Attempt {
                link,
                packet: dps_core::ids::PacketId(i as u64),
            })
            .collect();
        let mut rng = rand::rngs::mock::StepRng::new(0, 1);
        self.successes(&attempts, &mut rng).into_iter().all(|ok| ok)
    }

    /// The reference implementation: recomputes every distance and
    /// path-loss term from scratch and scans all `m` links per attempt.
    ///
    /// Kept as the ground truth for the cached-vs-naive equivalence
    /// proptest and as the pre-optimization baseline in `bench_sinr`.
    /// Interference contributions accumulate as `count · (p/d^α)` — the
    /// same association as the cached path — in link-index order. (The
    /// pre-cache oracle associated this as `(count · p)/d^α`, which can
    /// differ by an ulp for `count ≥ 3`; the equivalence guarantee is
    /// between the two current paths, whose expressions are identical.)
    pub fn successes_naive(&self, attempts: &[Attempt], _rng: &mut dyn RngCore) -> Vec<bool> {
        let params = *self.net.params();
        // Count transmissions per link: two packets on one link collide at
        // the shared transmitter regardless of SINR.
        let mut mult = vec![0u32; self.net.num_links()];
        for a in attempts {
            mult[a.link.index()] += 1;
        }
        attempts
            .iter()
            .map(|a| {
                if mult[a.link.index()] != 1 {
                    return false;
                }
                let own = self.net.sender_pos(a.link);
                let len = own.distance(&self.net.receiver_pos(a.link));
                let signal = self.power.power(len) / len.powf(params.alpha);
                let mut interference = 0.0;
                for (other_idx, &count) in mult.iter().enumerate() {
                    if count == 0 || other_idx == a.link.index() {
                        continue;
                    }
                    let other = dps_core::ids::LinkId(other_idx as u32);
                    let other_sender = self.net.sender_pos(other);
                    let other_len = other_sender.distance(&self.net.receiver_pos(other));
                    let d = other_sender.distance(&self.net.receiver_pos(a.link));
                    if d <= 0.0 {
                        return false;
                    }
                    interference +=
                        count as f64 * (self.power.power(other_len) / d.powf(params.alpha));
                }
                signal >= params.beta * (interference + params.noise)
            })
            .collect()
    }
}

/// Asserts that `cache` was built for the `(net, power)` pair: same link
/// count, bit-equal SINR parameters, and every link's cached
/// transmission power and signal bit-for-bit what `power` produces on
/// `net`. `what` names the shared structure in the panic messages.
pub(crate) fn assert_cache_pairing<P: PowerAssignment>(
    what: &str,
    cache: &SinrCache,
    net: &SinrNetwork,
    power: &P,
) {
    assert_eq!(
        cache.num_links(),
        net.num_links(),
        "shared {what} must cover the oracle's network"
    );
    assert!(
        cache.beta().to_bits() == net.params().beta.to_bits()
            && cache.noise().to_bits() == net.params().noise.to_bits(),
        "shared {what} was built under different SINR parameters"
    );
    let alpha = net.params().alpha;
    for (index, &len) in net.lengths().iter().enumerate() {
        let link = LinkId(index as u32);
        let p = power.power(len);
        assert!(
            cache.tx_power(link).to_bits() == p.to_bits()
                && cache.signal(link).to_bits() == (p / len.powf(alpha)).to_bits(),
            "shared {what} was built for a different (network, power) pair \
             (mismatch at link {index})"
        );
    }
}

/// Collapses a slot's attempts into its distinct links with
/// multiplicities, ascending by link index — the shared preamble of the
/// exact and tiled slot kernels, and the accumulation order of the naive
/// scan (identical ordering is part of the tiled `epsilon = 0` bitwise
/// contract).
pub(crate) fn dedup_attempts(attempts: &[Attempt], active: &mut Vec<(u32, u32)>) {
    active.clear();
    active.extend(attempts.iter().map(|a| (a.link.0, 1u32)));
    active.sort_unstable_by_key(|&(link, _)| link);
    let mut write = 0;
    for read in 1..active.len() {
        if active[read].0 == active[write].0 {
            active[write].1 += active[read].1;
        } else {
            write += 1;
            active[write] = active[read];
        }
    }
    active.truncate(write + 1);
}

/// Per-thread slot scratch: distinct links with multiplicity, the
/// per-distinct-link verdicts, and the blocked kernel's accumulator and
/// lane-pack buffers.
struct SlotScratch {
    active: Vec<(u32, u32)>,
    verdicts: Vec<bool>,
    interference: Vec<f64>,
    lanes: Vec<f64>,
}

thread_local! {
    /// Keeps [`SinrFeasibility`] callable through `&self`/`Arc` across
    /// threads while the slot loop stays allocation-free in steady state.
    static SLOT_SCRATCH: RefCell<SlotScratch> = const {
        RefCell::new(SlotScratch {
            active: Vec::new(),
            verdicts: Vec::new(),
            interference: Vec::new(),
            lanes: Vec::new(),
        })
    };
}

impl<P: PowerAssignment> Feasibility for SinrFeasibility<P> {
    fn successes_into(&self, attempts: &[Attempt], out: &mut Vec<bool>, _rng: &mut dyn RngCore) {
        out.clear();
        if attempts.is_empty() {
            return;
        }
        let beta = self.cache.beta();
        let noise = self.cache.noise();
        SLOT_SCRATCH.with(|scratch| {
            let SlotScratch {
                active,
                verdicts,
                interference,
                lanes,
            } = &mut *scratch.borrow_mut();
            dedup_attempts(attempts, active);
            // One SINR evaluation per distinct receiver: O(k²) overall.
            verdicts.clear();
            if self
                .cache
                .active_interference_into(active, interference, lanes)
            {
                // Dense path: the blocked kernel produced every
                // receiver's accumulated interference, bit-for-bit in the
                // scalar order; only the comparisons remain.
                verdicts.extend(active.iter().zip(interference.iter()).map(
                    |(&(on_raw, count), &interference)| {
                        // A shared transmitter collides regardless of SINR.
                        count == 1
                            && self.cache.signal(LinkId(on_raw)) >= beta * (interference + noise)
                    },
                ));
            } else {
                // Fallback (no dense gain table): per-pair scalar loop
                // over on-the-fly gains.
                verdicts.extend(active.iter().map(|&(on_raw, count)| {
                    if count != 1 {
                        // A shared transmitter collides regardless of SINR.
                        return false;
                    }
                    let on = LinkId(on_raw);
                    let mut interference = 0.0;
                    for &(from_raw, from_count) in active.iter() {
                        if from_raw == on_raw {
                            continue;
                        }
                        // A NaN gain (coincident endpoints) poisons the
                        // sum, failing the comparison — the naive "zero
                        // cross distance blocks the receiver" rule.
                        interference += from_count as f64 * self.cache.gain(LinkId(from_raw), on);
                    }
                    self.cache.signal(on) >= beta * (interference + noise)
                }));
            }
            out.extend(attempts.iter().map(|a| {
                let slot = active
                    .binary_search_by_key(&a.link.0, |&(link, _)| link)
                    .expect("every attempted link is in the active list");
                verdicts[slot]
            }));
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::SinrNetworkBuilder;
    use crate::params::SinrParams;
    use crate::power::{LinearPower, UniformPower};
    use dps_core::ids::{LinkId, PacketId};
    use rand::SeedableRng;
    use rand_chacha::ChaCha12Rng;

    fn rng() -> ChaCha12Rng {
        ChaCha12Rng::seed_from_u64(1)
    }

    fn attempt(link: u32, packet: u64) -> Attempt {
        Attempt {
            link: LinkId(link),
            packet: PacketId(packet),
        }
    }

    /// Unit links at the given x offsets.
    fn net_at(offsets: &[f64], params: SinrParams) -> SinrNetwork {
        let mut b = SinrNetworkBuilder::new(params);
        for &x in offsets {
            b.add_isolated_link((x, 0.0), (x, 1.0));
        }
        b.build()
    }

    #[test]
    fn lone_transmission_succeeds_without_noise() {
        let net = net_at(&[0.0], SinrParams::default_noiseless());
        let oracle = SinrFeasibility::new(net, UniformPower::unit());
        assert_eq!(oracle.successes(&[attempt(0, 1)], &mut rng()), vec![true]);
    }

    #[test]
    fn overwhelming_noise_blocks_even_lone_transmission() {
        // Unit link, unit power: signal 1; β(ν) = 2·1 > 1.
        let net = net_at(&[0.0], SinrParams::with_noise(1.0));
        let oracle = SinrFeasibility::new(net, UniformPower::unit());
        assert_eq!(oracle.successes(&[attempt(0, 1)], &mut rng()), vec![false]);
    }

    #[test]
    fn near_links_collide_far_links_coexist() {
        // With α=3, β=2 a unit link dies when interference exceeds 1/β =
        // 0.5, i.e. when the interferer is closer than 2^(1/3) ≈ 1.26.
        // Gap 0.5 puts the cross distance at √1.25 ≈ 1.12 (collision);
        // gap 50 is far beyond it.
        let params = SinrParams::default_noiseless();
        let near = SinrFeasibility::new(net_at(&[0.0, 0.5], params), UniformPower::unit());
        let far = SinrFeasibility::new(net_at(&[0.0, 50.0], params), UniformPower::unit());
        let atts = [attempt(0, 1), attempt(1, 2)];
        assert_eq!(near.successes(&atts, &mut rng()), vec![false, false]);
        assert_eq!(far.successes(&atts, &mut rng()), vec![true, true]);
    }

    #[test]
    fn interference_accumulates() {
        // Spacing 1.2: a single neighbour contributes 1/(√2.44)³ ≈ 0.26 <
        // 0.5 (tolerable), but both neighbours plus the next ring sum to
        // ≈ 0.64 ≥ 0.5 — accumulation is what kills the centre link.
        let params = SinrParams::default_noiseless();
        let net = net_at(&[0.0, 1.2, 2.4, 3.6, 4.8], params);
        let oracle = SinrFeasibility::new(net, UniformPower::unit());
        // Middle link with one active neighbour: passes.
        let two = [attempt(2, 1), attempt(3, 2)];
        let res = oracle.successes(&two, &mut rng());
        assert!(res[0], "single neighbour should be tolerable");
        // Middle link with all four others active: accumulated interference
        // blocks it.
        let all: Vec<Attempt> = (0..5).map(|i| attempt(i, i as u64)).collect();
        let res = oracle.successes(&all, &mut rng());
        assert!(
            !res[2],
            "centre link must drown in accumulated interference"
        );
    }

    #[test]
    fn same_link_collision_fails_both() {
        let net = net_at(&[0.0], SinrParams::default_noiseless());
        let oracle = SinrFeasibility::new(net, UniformPower::unit());
        let res = oracle.successes(&[attempt(0, 1), attempt(0, 2)], &mut rng());
        assert_eq!(res, vec![false, false]);
    }

    #[test]
    fn linear_power_rescues_short_link_next_to_long() {
        // A unit link whose sender sits 5 away from the receiver of a
        // length-8 link (but > 10 from its powerful sender). Under uniform
        // powers the long link's weak signal (1/8³) drowns in the short
        // sender's interference (1/5³); under linear powers the long link
        // receives at full strength and both coexist.
        let params = SinrParams::default_noiseless();
        let mut b = SinrNetworkBuilder::new(params);
        let _short = b.add_isolated_link((5.0, 12.0), (5.0, 11.0));
        let _long = b.add_isolated_link((0.0, 20.0), (0.0, 12.0));
        let net = b.build();
        let atts = [attempt(0, 1), attempt(1, 2)];
        let uni = SinrFeasibility::new(net.clone(), UniformPower::unit());
        let lin = SinrFeasibility::new(net, LinearPower::new(params.alpha));
        let res_uni = uni.successes(&atts, &mut rng());
        let res_lin = lin.successes(&atts, &mut rng());
        assert!(res_uni[0], "short link passes under uniform power");
        assert!(!res_uni[1], "long link should fail under uniform power");
        assert!(
            res_lin[0] && res_lin[1],
            "both should pass under linear power"
        );
    }

    #[test]
    fn set_feasible_helper_agrees_with_successes() {
        let params = SinrParams::default_noiseless();
        let oracle = SinrFeasibility::new(net_at(&[0.0, 50.0], params), UniformPower::unit());
        assert!(oracle.set_feasible(&[LinkId(0), LinkId(1)]));
        let near = SinrFeasibility::new(net_at(&[0.0, 0.5], params), UniformPower::unit());
        assert!(!near.set_feasible(&[LinkId(0), LinkId(1)]));
    }

    #[test]
    fn empty_attempt_set_is_trivially_fine() {
        let net = net_at(&[0.0], SinrParams::default_noiseless());
        let oracle = SinrFeasibility::new(net, UniformPower::unit());
        assert!(oracle.successes(&[], &mut rng()).is_empty());
    }
}
