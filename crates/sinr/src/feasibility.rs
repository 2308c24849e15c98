//! Exact SINR feasibility: the physical ground truth against which every
//! protocol in this workspace is validated.
//!
//! Unlike the pairwise matrix abstraction used to *design* schedules, this
//! oracle applies the full accumulated-interference SINR inequality to the
//! attempts actually made in a slot. Since this runs once per slot for the
//! whole simulation, it is the hottest kernel in the workspace; the
//! implementation therefore judges a slot from a [`SinrCache`] — cached
//! signals and margins, and up to the dense cap cached pairwise gains —
//! and iterates only the `k` *attempted* links (`O(k²)` per slot) instead
//! of scanning all `m` links per attempt (`O(k·m)` with transcendentals,
//! as the naive referee in `tests/support/referee.rs` does). Above the
//! dense cap each pair's gain is computed on the fly: one `sqrt` and, at
//! `α = 3`, a certified cube `d·d·d` that falls back to `powf` only for a
//! receiver whose verdict it cannot certify (see [`crate::cache`]); other
//! exponents pay one `powf` per pair. Every path makes bit-for-bit the
//! naive referee's decisions; the equivalence is property-tested in
//! `tests/prop_sinr.rs`.
//!
//! The slot check itself is one crate-internal function, shared with the
//! tiled oracle ([`crate::tiles::TiledSinrFeasibility`]), which hands it
//! every slot of an index that far-qualifies no tile pair.

use crate::cache::{CubeSum, SinrCache};
use crate::network::SinrNetwork;
use crate::power::PowerAssignment;
use dps_core::feasibility::{Attempt, Feasibility};
use dps_core::ids::LinkId;
use rand::RngCore;
use std::cell::RefCell;
use std::sync::Arc;

/// The accumulative SINR oracle under a fixed power assignment.
///
/// An instance is its geometry plus a power assignment, and a
/// [`SinrCache`] holds exactly that, so the oracle is a handle to one:
/// the cache sits behind an [`Arc`] and can be shared between the
/// oracle, the matrix constructions of [`crate::matrix`] and any other
/// consumer without re-deriving the `O(m²)` gain table — see
/// [`SinrFeasibility::from_cache`].
#[derive(Clone, Debug)]
pub struct SinrFeasibility {
    cache: Arc<SinrCache>,
}

impl SinrFeasibility {
    /// Creates the oracle, precomputing the geometry cache (dense gain
    /// table within [`crate::cache::DEFAULT_DENSE_GAIN_BUDGET_BYTES`]).
    pub fn new<P: PowerAssignment + ?Sized>(net: &SinrNetwork, power: &P) -> Self {
        Self::from_cache(Arc::new(SinrCache::new(net, power)))
    }

    /// Creates the oracle around an already-built shared cache, instead
    /// of deriving its own — the substrate-sharing path: one
    /// [`SinrCache`] per topology serves this oracle and the
    /// interference-matrix builds alike.
    pub fn from_cache(cache: Arc<SinrCache>) -> Self {
        SinrFeasibility { cache }
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

/// Per-thread scratch of the exact slot check: distinct links with
/// multiplicity, the per-distinct-link verdicts, and the blocked
/// kernel's accumulator and lane-pack buffers.
struct SlotScratch {
    active: Vec<(u32, u32)>,
    verdicts: Vec<bool>,
    interference: Vec<f64>,
    lanes: Vec<f64>,
}

thread_local! {
    /// Keeps both oracles callable through `&self`/`Arc` across threads
    /// while the exact slot check stays allocation-free in steady state.
    static SLOT_SCRATCH: RefCell<SlotScratch> = const {
        RefCell::new(SlotScratch {
            active: Vec::new(),
            verdicts: Vec::new(),
            interference: Vec::new(),
            lanes: Vec::new(),
        })
    };
}

/// The exact accumulative SINR check of one slot: `out[i]` is whether
/// `attempts[i]` succeeds, judged from `cache`.
///
/// The attempts collapse into their distinct links ([`dedup_attempts`]),
/// and each distinct link gets one SINR evaluation, `O(k²)` overall. With
/// a dense gain table the blocked kernel
/// ([`SinrCache::active_interference_into`]) accumulates every receiver's
/// interference at once; without one, [`exact_interference`] sums the
/// on-the-fly gains per receiver. Both add the same terms in the same
/// order, so the verdicts are the same bits either way. Without a dense
/// table at `α = 3`, each receiver first sums its terms as certified
/// cubes ([`CubeSum`]), which decide the verdict unless its slack lies
/// inside their rounding window; only then does [`exact_interference`]
/// run, so the verdicts are still its bits.
pub(crate) fn exact_successes_into(cache: &SinrCache, attempts: &[Attempt], out: &mut Vec<bool>) {
    out.clear();
    if attempts.is_empty() {
        return;
    }
    let beta = cache.beta();
    let noise = cache.noise();
    SLOT_SCRATCH.with(|scratch| {
        let SlotScratch {
            active,
            verdicts,
            interference,
            lanes,
        } = &mut *scratch.borrow_mut();
        dedup_attempts(attempts, active);
        let dense = cache.active_interference_into(active, interference, lanes);
        let cube = cache.cube_gains();
        verdicts.clear();
        verdicts.extend(active.iter().enumerate().map(|(i, &(on_raw, count))| {
            // A shared transmitter collides regardless of SINR.
            if count != 1 {
                return false;
            }
            let signal = cache.signal(LinkId(on_raw));
            if cube {
                if let Some(ok) =
                    cube_interference(cache, active, on_raw).verdict(signal, beta, noise)
                {
                    return ok;
                }
                cache.count_cube_fallback();
            }
            let sum = if dense {
                interference[i]
            } else {
                exact_interference(cache, active, on_raw)
            };
            signal >= beta * (sum + noise)
        }));
        verdicts_per_attempt(attempts, active, verdicts, out);
    });
}

/// The interference the distinct active links (`(link, multiplicity)`,
/// ascending) contribute at `on_raw`'s receiver, from `cache`'s gains in
/// ascending link order, `on_raw`'s own transmission excluded. A `NaN`
/// gain (coincident endpoints) poisons the sum and so fails the SINR
/// comparison: zero cross distance blocks the receiver.
pub(crate) fn exact_interference(cache: &SinrCache, active: &[(u32, u32)], on_raw: u32) -> f64 {
    let on = LinkId(on_raw);
    let mut interference = 0.0;
    for &(from_raw, from_count) in active {
        if from_raw != on_raw {
            interference += from_count as f64 * cache.gain(LinkId(from_raw), on);
        }
    }
    interference
}

/// [`exact_interference`]'s terms as certified cubes ([`CubeSum`]), in
/// the same order.
fn cube_interference(cache: &SinrCache, active: &[(u32, u32)], on_raw: u32) -> CubeSum {
    let receiver = cache.receiver_positions()[on_raw as usize];
    let (senders, tx_power) = (cache.sender_positions(), cache.tx_powers());
    let mut sum = CubeSum::new();
    for &(from_raw, from_count) in active {
        if from_raw != on_raw {
            let from = from_raw as usize;
            sum.add_cube(
                from_count,
                tx_power[from],
                senders[from].distance(&receiver),
            );
        }
    }
    sum
}

/// Maps per-distinct-link verdicts (parallel to `active`) back onto the
/// slot's attempts, in attempt order.
pub(crate) fn verdicts_per_attempt(
    attempts: &[Attempt],
    active: &[(u32, u32)],
    verdicts: &[bool],
    out: &mut Vec<bool>,
) {
    out.extend(attempts.iter().map(|a| {
        let slot = active
            .binary_search_by_key(&a.link.0, |&(link, _)| link)
            .expect("every attempted link is in the active list");
        verdicts[slot]
    }));
}

impl Feasibility for SinrFeasibility {
    fn successes_into(&self, attempts: &[Attempt], out: &mut Vec<bool>, _rng: &mut dyn RngCore) {
        exact_successes_into(&self.cache, attempts, out);
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
        let oracle = SinrFeasibility::new(&net, &UniformPower::unit());
        assert_eq!(oracle.successes(&[attempt(0, 1)], &mut rng()), vec![true]);
    }

    #[test]
    fn overwhelming_noise_blocks_even_lone_transmission() {
        // Unit link, unit power: signal 1; β(ν) = 2·1 > 1.
        let net = net_at(&[0.0], SinrParams::with_noise(1.0));
        let oracle = SinrFeasibility::new(&net, &UniformPower::unit());
        assert_eq!(oracle.successes(&[attempt(0, 1)], &mut rng()), vec![false]);
    }

    #[test]
    fn near_links_collide_far_links_coexist() {
        // With α=3, β=2 a unit link dies when interference exceeds 1/β =
        // 0.5, i.e. when the interferer is closer than 2^(1/3) ≈ 1.26.
        // Gap 0.5 puts the cross distance at √1.25 ≈ 1.12 (collision);
        // gap 50 is far beyond it.
        let params = SinrParams::default_noiseless();
        let near = SinrFeasibility::new(&net_at(&[0.0, 0.5], params), &UniformPower::unit());
        let far = SinrFeasibility::new(&net_at(&[0.0, 50.0], params), &UniformPower::unit());
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
        let oracle = SinrFeasibility::new(&net, &UniformPower::unit());
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
        let oracle = SinrFeasibility::new(&net, &UniformPower::unit());
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
        let uni = SinrFeasibility::new(&net, &UniformPower::unit());
        let lin = SinrFeasibility::new(&net, &LinearPower::new(params.alpha));
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
        let oracle = SinrFeasibility::new(&net_at(&[0.0, 50.0], params), &UniformPower::unit());
        assert!(oracle.set_feasible(&[LinkId(0), LinkId(1)]));
        let near = SinrFeasibility::new(&net_at(&[0.0, 0.5], params), &UniformPower::unit());
        assert!(!near.set_feasible(&[LinkId(0), LinkId(1)]));
    }

    #[test]
    fn empty_attempt_set_is_trivially_fine() {
        let net = net_at(&[0.0], SinrParams::default_noiseless());
        let oracle = SinrFeasibility::new(&net, &UniformPower::unit());
        assert!(oracle.successes(&[], &mut rng()).is_empty());
    }
}
