//! The tiled slot kernel: per-slot active grouping, per-receiver-tile
//! walk plans over the shared occupied-tile pyramid, and the verdict
//! loop.
//!
//! A slot runs in three phases, all on the calling thread:
//!
//! 1. **Grouping.** The active links are bucketed by sender leaf tile
//!    ([`TileGroups`]), and the groups' weights fill the leaf of the
//!    shared occupied-tile [`Pyramid`], which aggregates them up the
//!    hierarchy.
//! 2. **Walk plans.** The pyramid's walk, once per distinct receiver
//!    leaf tile ([`SlotPlans`]), emits packed 4-byte [`PlanTerm`]s in
//!    DFS order. Near terms resolve their panels here, before any
//!    verdict: the fixed store's receiver row is fetched once per plan
//!    and searched per near term, and its hits and misses are counted
//!    in locals and added to the shared counters once per slot; the
//!    adaptive store resolves (and counts) under its lock.
//! 3. **Verdicts.** Each receiver replays its tile's plan. Without a
//!    dense gain table at `α = 3`, un-panelled near terms are summed as
//!    certified cubes (`d·d·d`, see [`CubeSum`]), which decide the
//!    verdict unless its slack lies inside their rounding window; then
//!    the receiver's `powf` sum is recomputed in the same order and
//!    decides, and the cache counts the fallback
//!    ([`SinrCache::cube_fallbacks`]).

use std::cell::RefCell;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use super::index::TiledSinrCache;
use super::panels::{PanelRef, PlanPanels};
use super::pyramid::{leaf_ancestors, Pyramid, Visit};
use crate::cache::{CubeSum, SinrCache};
use crate::feasibility::{dedup_attempts, exact_successes_into, verdicts_per_attempt};
use crate::network::SinrNetwork;
use crate::power::PowerAssignment;
use dps_core::feasibility::{Attempt, Feasibility};
use dps_core::ids::LinkId;
use dps_core::interference::{max_row_load, InterferenceModel};
use dps_core::load::LinkLoad;
use rand::RngCore;

use super::{pow_alpha, MAX_TILES_PER_SIDE, MAX_TILE_LEVELS};

/// The active set bucketed by sender leaf tile, rebuilt per slot:
/// `entries` holds `(tile, link, count)` sorted by `(tile, link)`, and
/// the `i`-th occupied leaf tile (ascending, entry `i` of the
/// pyramid's leaf) owns `entries[start[i]..start[i + 1]]`.
#[derive(Default)]
struct TileGroups {
    entries: Vec<(u32, u32, u32)>,
    start: Vec<u32>,
}

/// One slot's walk plans, flattened: `keys` holds the distinct receiver
/// leaf tiles (ascending), plan `i`'s terms span
/// `terms[term_start[i]..term_start[i+1]]` and the panels of its near
/// terms, in term order, span `panels[panel_start[i]..panel_start[i+1]]`.
/// Every receiver in the same leaf tile shares one plan — the far walk
/// runs once per occupied receiver tile, not once per receiver.
#[derive(Default)]
pub(super) struct SlotPlans {
    keys: Vec<u32>,
    term_start: Vec<u32>,
    terms: Vec<PlanTerm>,
    panel_start: Vec<u32>,
    panels: Vec<PanelRef>,
}

impl SlotPlans {
    fn clear(&mut self) {
        self.keys.clear();
        self.term_start.clear();
        self.terms.clear();
        self.panel_start.clear();
        self.panels.clear();
    }
}

/// One term of a walk plan, in DFS (ascending tile) emission order,
/// packed into 4 bytes: bit 31 is the near flag, bits 28–30 the
/// hierarchy level and bits 0–27 an index into that level's occupied
/// list this slot. A far term charges the aggregated subtree weight of
/// occupied entry `idx` at `level` from that tile's centre. A near term
/// (always level 0) accumulates leaf group `idx` exactly, through the
/// plan's next panel.
#[derive(Clone, Copy)]
struct PlanTerm(u32);

impl PlanTerm {
    const NEAR: u32 = 1 << 31;
    const LEVEL_SHIFT: u32 = 28;
    const IDX_MASK: u32 = (1 << Self::LEVEL_SHIFT) - 1;

    fn far(level: u8, idx: u32) -> Self {
        PlanTerm(u32::from(level) << Self::LEVEL_SHIFT | idx)
    }

    fn near(group: u32) -> Self {
        PlanTerm(Self::NEAR | group)
    }

    #[inline(always)]
    fn is_near(self) -> bool {
        self.0 & Self::NEAR != 0
    }

    #[inline(always)]
    fn level(self) -> usize {
        (self.0 >> Self::LEVEL_SHIFT & 0b111) as usize
    }

    #[inline(always)]
    fn idx(self) -> usize {
        (self.0 & Self::IDX_MASK) as usize
    }
}

// An occupied index is below its level's tile count, at most
// `MAX_TILES_PER_SIDE²`, and a level fits the three level bits.
const _: () = assert!(MAX_TILES_PER_SIDE * MAX_TILES_PER_SIDE <= PlanTerm::IDX_MASK as usize + 1);
const _: () = assert!(MAX_TILE_LEVELS <= 8);

/// Per-thread slot scratch for the tiled far-field path: distinct links
/// with multiplicity, per-distinct-link verdicts, the per-slot tile
/// grouping and hierarchy bookkeeping (all sized by the *active* set,
/// never by the tile count — sparse slots stay cheap).
#[derive(Default)]
struct TiledSlotScratch {
    active: Vec<(u32, u32)>,
    verdicts: Vec<bool>,
    groups: TileGroups,
    pyramid: Pyramid,
    plans: SlotPlans,
    stack: Vec<(u8, u32)>,
    receivers: Vec<(u32, u32)>,
}

thread_local! {
    /// Keeps [`TiledSinrFeasibility`] callable through `&self`/`Arc`
    /// from every thread of a sweep sharing one substrate, while the
    /// slot loop stays allocation-free in steady state.
    static TILED_SLOT_SCRATCH: RefCell<TiledSlotScratch> =
        RefCell::new(TiledSlotScratch::default());
}

/// The tiled accumulative SINR oracle: near-field terms exactly (from
/// panels or on-the-fly gains), far-field regions as one aggregated
/// term each at the coarsest qualifying hierarchy level, within the
/// `ε·margin` error contract of [`TiledSinrCache`]. A slot is judged
/// on the calling thread.
///
/// An index that far-qualifies no tile pair (always the case at
/// `epsilon = 0`) has nothing to aggregate: the oracle then hands every
/// slot to the exact check [`SinrFeasibility`] runs, dense blocked
/// kernel included, so its verdicts are that oracle's bits
/// (property-tested in the `tiles::tests::contract` unit tests).
///
/// Like [`SinrFeasibility`], the oracle is a handle to its shared
/// index, whose geometry cache fixes the network and the power
/// assignment.
///
/// [`SinrFeasibility`]: crate::feasibility::SinrFeasibility
#[derive(Clone, Debug)]
pub struct TiledSinrFeasibility {
    tiles: Arc<TiledSinrCache>,
}

impl TiledSinrFeasibility {
    /// Creates the flat (single-level) tiled oracle, deriving a
    /// geometry cache (the flat dense gain table is materialized only
    /// under [`crate::cache::SinrCache`]'s dense cap, so metro-scale
    /// instances stay `O(m)` — panels and far-field aggregation replace
    /// the table beyond it) and the tiled index under
    /// [`super::DEFAULT_PANEL_BUDGET_BYTES`].
    pub fn new<P: PowerAssignment + ?Sized>(
        net: &SinrNetwork,
        power: &P,
        tiles_per_side: usize,
        epsilon: f64,
    ) -> Self {
        Self::with_options(net, power, super::TileOptions::new(tiles_per_side, epsilon))
    }

    /// Creates the tiled oracle from full [`super::TileOptions`] —
    /// hierarchy depth and panel residency included.
    pub fn with_options<P: PowerAssignment + ?Sized>(
        net: &SinrNetwork,
        power: &P,
        options: super::TileOptions,
    ) -> Self {
        let cache = Arc::new(SinrCache::new(net, power));
        Self::from_tiles(Arc::new(TiledSinrCache::with_options(cache, options)))
    }

    /// Creates the oracle around an already-built shared tiled index —
    /// the substrate-sharing path.
    pub fn from_tiles(tiles: Arc<TiledSinrCache>) -> Self {
        TiledSinrFeasibility { tiles }
    }

    /// The tiled index the oracle judges from.
    pub fn tiles(&self) -> &TiledSinrCache {
        &self.tiles
    }

    /// The shared handle to the tiled index.
    pub fn shared_tiles(&self) -> &Arc<TiledSinrCache> {
        &self.tiles
    }

    /// Buckets the active list by sender leaf tile (entries sorted by
    /// `(tile, link)`) and builds the slot's pyramid from the occupied
    /// leaf tiles' summed transmission weights `W_S = Σ count·p`.
    fn group_active_by_tile(
        &self,
        active: &[(u32, u32)],
        groups: &mut TileGroups,
        pyramid: &mut Pyramid,
    ) {
        let TileGroups { entries, start } = groups;
        entries.clear();
        start.clear();
        start.push(0);
        entries.extend(
            active
                .iter()
                .map(|&(from, count)| (self.tiles.sender_tile[from as usize], from, count)),
        );
        entries.sort_unstable_by_key(|&(tile, link, _)| (tile, link));
        let tx_power = self.tiles.cache.tx_powers();
        // `build` consumes the groups in order; each closes its span.
        let leaf = entries.chunk_by(|a, b| a.0 == b.0).map(|group| {
            start.push(start[start.len() - 1] + group.len() as u32);
            let weight = group.iter().fold(0.0, |w, &(_, from, count)| {
                w + count as f64 * tx_power[from as usize]
            });
            (group[0].0, weight)
        });
        pyramid.build(&self.tiles.levels, leaf);
    }

    /// Builds one walk plan per distinct receiver leaf tile of the
    /// active set from the pyramid's walk, which charges each far
    /// subtree at the coarsest qualifying level and descends otherwise,
    /// in ascending-tile DFS order. Near terms resolve their panel
    /// here, before any verdict, so the adaptive panel cache's
    /// evict/refill order is deterministic and the verdict loop reads
    /// panels lock-free. A fixed
    /// store's row for the plan's receiver tile is fetched once and
    /// searched per near term; its hits and misses are counted here and
    /// added to the shared counters once per slot. Each adaptive
    /// resolution names the receiver rows the slot reads:
    /// `receivers` is rebuilt from the active links' `(receiver tile,
    /// receiver rank)`, sorted, so each plan's rows are one run of it.
    fn build_plans(
        &self,
        active: &[(u32, u32)],
        pyramid: &Pyramid,
        plans: &mut SlotPlans,
        stack: &mut Vec<(u8, u32)>,
        receivers: &mut Vec<(u32, u32)>,
    ) {
        let tiles = &*self.tiles;
        tiles.panels.tick();
        plans.clear();
        receivers.clear();
        receivers.extend(active.iter().map(|&(on, _)| {
            (
                tiles.receiver_tile[on as usize],
                tiles.receiver_rank[on as usize],
            )
        }));
        receivers.sort_unstable();

        let mut visited = [0u64; MAX_TILE_LEVELS];
        let mut far_terms = [0u64; MAX_TILE_LEVELS];
        let mut near_terms = 0u64;
        let (mut hits, mut misses) = (0u64, 0u64);
        let leaf = &pyramid.levels[0];
        for run in receivers.chunk_by(|a, b| a.0 == b.0) {
            let r_leaf = run[0].0;
            let first = plans.terms.len();
            plans.keys.push(r_leaf);
            plans.term_start.push(first as u32);
            plans.panel_start.push(plans.panels.len() as u32);
            pyramid.walk(&tiles.levels, r_leaf, stack, &mut visited, |visit| {
                plans.terms.push(match visit {
                    Visit::Far(l, j) => {
                        far_terms[l as usize] += 1;
                        PlanTerm::far(l, j)
                    }
                    Visit::Near(j) => PlanTerm::near(j),
                })
            });
            // Then the plan's near terms resolve their panels, in term
            // order.
            let panels = tiles.panels.for_receiver(r_leaf);
            for term in plans.terms[first..].iter().filter(|term| term.is_near()) {
                near_terms += 1;
                let s = leaf.tiles[term.idx()];
                plans.panels.push(match &panels {
                    PlanPanels::Fixed(row) => match row.find(s) {
                        Some(offset) => {
                            hits += 1;
                            PanelRef::Arena(offset)
                        }
                        None => {
                            misses += 1;
                            PanelRef::None
                        }
                    },
                    PlanPanels::Adaptive(store) => {
                        let rows = run.iter().map(|&(_, rank)| rank);
                        tiles.resolve_adaptive(store, s, r_leaf, rows)
                    }
                });
            }
        }
        plans.term_start.push(plans.terms.len() as u32);
        plans.panel_start.push(plans.panels.len() as u32);

        for (counter, n) in tiles.walk.visited.iter().zip(&visited) {
            counter.fetch_add(*n, Ordering::Relaxed);
        }
        for (counter, n) in tiles.walk.far_terms.iter().zip(&far_terms) {
            counter.fetch_add(*n, Ordering::Relaxed);
        }
        tiles
            .walk
            .near_terms
            .fetch_add(near_terms, Ordering::Relaxed);
        let counters = tiles.panels.counters();
        counters.hits.fetch_add(hits, Ordering::Relaxed);
        counters.misses.fetch_add(misses, Ordering::Relaxed);
    }
}

/// The tiled interference accumulated at distinct active link `on_raw`
/// of a slot whose index far-qualifies some tile pair: the sum the
/// verdict loop falls back to when the certified cube sum cannot decide
/// a verdict.
///
/// The kernel replays its receiver tile's walk plan in DFS term
/// order: a far term contributes one aggregated subtree term
/// `W / d(center, r)^α` (with `on`'s own power removed when its sender
/// tile lies under the charged subtree), a near term streams its leaf
/// group's active senders through the tile-pair panel row (contiguous
/// reads) or on-the-fly gains when the pair is un-panelled. At `α = 3`
/// far charges take `d³` as `d·d·d`, which moves far sums from the
/// `powf` ones by rounding only, well inside the `ε·margin` contract.
#[inline]
fn interference_with_plans(
    tiles: &TiledSinrCache,
    on_raw: u32,
    groups: &TileGroups,
    pyramid: &Pyramid,
    plans: &SlotPlans,
) -> f64 {
    if tiles.cache.alpha() == 3.0 {
        accumulate::<true, false>(tiles, on_raw, groups, pyramid, plans).sum()
    } else {
        accumulate::<false, false>(tiles, on_raw, groups, pyramid, plans).sum()
    }
}

/// [`interference_with_plans`] with far charges `W / d^α` through
/// `pow_alpha::<CUBE>`, and un-panelled near terms as [`CubeSum`] cubes
/// when `NEAR_CUBE` (only for a cache with [`SinrCache::cube_gains`]),
/// as [`SinrCache::gain`] otherwise.
#[inline(always)]
fn accumulate<const CUBE: bool, const NEAR_CUBE: bool>(
    tiles: &TiledSinrCache,
    on_raw: u32,
    groups: &TileGroups,
    pyramid: &Pyramid,
    plans: &SlotPlans,
) -> CubeSum {
    let cache = &*tiles.cache;
    let on = LinkId(on_raw);
    let mut interference = CubeSum::new();
    let r_leaf = tiles.receiver_tile[on_raw as usize];
    let r_rank = tiles.receiver_rank[on_raw as usize] as usize;
    let plan = plans
        .keys
        .binary_search(&r_leaf)
        .expect("every active receiver tile has a plan");
    let terms = &plans.terms[plans.term_start[plan] as usize..plans.term_start[plan + 1] as usize];
    let mut panels =
        plans.panels[plans.panel_start[plan] as usize..plans.panel_start[plan + 1] as usize].iter();
    let arena = tiles.panels.arena();
    let alpha = cache.alpha();
    let (senders, tx_power) = (cache.sender_positions(), cache.tx_powers());
    let receiver = cache.receiver_positions()[on_raw as usize];
    let own_tile = leaf_ancestors(&tiles.levels, tiles.sender_tile[on_raw as usize]);
    for &term in terms {
        let idx = term.idx();
        if !term.is_near() {
            // Far tiles are geometrically incapable of zero cross
            // distances, so aggregating them never hides a NaN.
            let l = term.level();
            let occ = &pyramid.levels[l];
            let (s_tile, mut weight) = (occ.tiles[idx], occ.weight[idx]);
            if own_tile[l] == s_tile {
                // The exact sum excludes `on`'s own transmission;
                // remove it from the aggregate. Receivers sharing a
                // slot with their own multiplicity > 1 are judged
                // failed before interference is evaluated, so one
                // transmission is exact here.
                weight -= tx_power[on_raw as usize];
            }
            let d = occ.center[idx].distance(&receiver);
            interference.add(weight / pow_alpha::<CUBE>(d, alpha));
            continue;
        }
        let group_entries =
            &groups.entries[groups.start[idx] as usize..groups.start[idx + 1] as usize];
        let s = pyramid.levels[0].tiles[idx] as usize;
        let s_count = (tiles.senders_start[s + 1] - tiles.senders_start[s]) as usize;
        let row: Option<&[f64]> = match panels.next().expect("one panel per near term") {
            PanelRef::Arena(offset) => Some(&arena[offset + r_rank * s_count..][..s_count]),
            PanelRef::Owned(data) => Some(&data[r_rank * s_count..][..s_count]),
            PanelRef::None => None,
        };
        let others = group_entries
            .iter()
            .filter(|&&(_, from_raw, _)| from_raw != on_raw);
        match row {
            Some(row) => {
                for &(_, from_raw, from_count) in others {
                    interference.add(
                        from_count as f64 * row[tiles.sender_rank[from_raw as usize] as usize],
                    );
                }
            }
            None if NEAR_CUBE => {
                for &(_, from_raw, from_count) in others {
                    let from = from_raw as usize;
                    let d = senders[from].distance(&receiver);
                    interference.add_cube(from_count, tx_power[from], d);
                }
            }
            None => {
                for &(_, from_raw, from_count) in others {
                    interference.add(from_count as f64 * cache.gain(LinkId(from_raw), on));
                }
            }
        }
    }
    interference
}

impl Feasibility for TiledSinrFeasibility {
    fn successes_into(&self, attempts: &[Attempt], out: &mut Vec<bool>, _rng: &mut dyn RngCore) {
        out.clear();
        if attempts.is_empty() {
            return;
        }
        self.tiles.walk.slots.fetch_add(1, Ordering::Relaxed);
        let cache = self.tiles.cache();
        if self.tiles.far_pairs() == 0 {
            // Nothing to aggregate: the exact check, same bits.
            exact_successes_into(cache, attempts, out);
            return;
        }
        let beta = cache.beta();
        let noise = cache.noise();
        TILED_SLOT_SCRATCH.with(|scratch| {
            let TiledSlotScratch {
                active,
                verdicts,
                groups,
                pyramid,
                plans,
                stack,
                receivers,
            } = &mut *scratch.borrow_mut();
            dedup_attempts(attempts, active);
            self.group_active_by_tile(active, groups, pyramid);
            self.build_plans(active, pyramid, plans, stack, receivers);
            let tiles: &TiledSinrCache = &self.tiles;
            let cube = cache.cube_gains();
            let judge = |&(on_raw, count): &(u32, u32)| -> bool {
                if count != 1 {
                    // A shared transmitter collides regardless of SINR.
                    return false;
                }
                let signal = cache.signal(LinkId(on_raw));
                if cube {
                    let sum = accumulate::<true, true>(tiles, on_raw, groups, pyramid, plans);
                    if let Some(ok) = sum.verdict(signal, beta, noise) {
                        return ok;
                    }
                    cache.count_cube_fallback();
                }
                let interference = interference_with_plans(tiles, on_raw, groups, pyramid, plans);
                signal >= beta * (interference + noise)
            };
            verdicts.clear();
            verdicts.extend(active.iter().map(judge));
            verdicts_per_attempt(attempts, active, verdicts, out);
        });
    }
}

#[cfg(test)]
impl TiledSinrFeasibility {
    /// The accumulated tiled interference each *distinct* attempted
    /// link sees this slot, in ascending link order — the exact value
    /// the kernel compares against `β·(I + ν)`. The referee tests pin
    /// it bit for bit against a plain recursive walk and within
    /// `ε·margin` of the exact sums.
    pub(crate) fn slot_interference(&self, attempts: &[Attempt]) -> Vec<(LinkId, f64)> {
        let TiledSlotScratch {
            active,
            groups,
            pyramid,
            plans,
            stack,
            receivers,
            ..
        } = &mut TiledSlotScratch::default();
        dedup_attempts(attempts, active);
        let far = self.tiles.far_pairs() > 0;
        if far {
            self.group_active_by_tile(active, groups, pyramid);
            self.build_plans(active, pyramid, plans, stack, receivers);
        }
        let cache = self.tiles.cache();
        active
            .iter()
            .map(|&(on_raw, _)| {
                let sum = if far {
                    interference_with_plans(&self.tiles, on_raw, groups, pyramid, plans)
                } else {
                    crate::feasibility::exact_interference(cache, active, on_raw)
                };
                (LinkId(on_raw), sum)
            })
            .collect()
    }
}

/// On-demand interference rows over a shared [`SinrCache`]: the
/// `O(1)`-memory companion of
/// [`crate::matrix::SinrInterference::fixed_power`] for metro-scale
/// instances, where materializing the dense `m × m` table is
/// prohibitive (34 GiB at `m = 65536`).
///
/// Entries are bit-for-bit the fixed-power matrix construction:
/// diagonal `1`, off-diagonal `a_p(from, on)` clamped into `[0, 1]`
/// (affectance already lands there, `NaN`s included via the clamp).
///
/// The whole-matrix measure `‖W·R‖∞` routes through the tiled index's
/// far-field aggregation (the `measure` submodule's tiled walk)
/// whenever any tile pair is far-qualified — the trait default's
/// `O(m²)` row walk is what made megacity-scale injection-rate
/// normalization cost hours. With no far pairs (`ε = 0` included) the
/// measure stays the trait default, bit-for-bit.
#[derive(Clone, Debug)]
pub struct TiledInterference {
    tiles: Arc<TiledSinrCache>,
}

impl TiledInterference {
    /// Wraps a shared tiled index: entries stay the exact on-demand
    /// affectances, the measure routes through the index's far-field
    /// aggregation under its `ε·margin` error contract.
    pub fn with_tiles(tiles: Arc<TiledSinrCache>) -> Self {
        TiledInterference { tiles }
    }

    /// The shared handle to the underlying geometry cache.
    pub fn shared_cache(&self) -> &Arc<SinrCache> {
        self.tiles.shared_cache()
    }
}

impl InterferenceModel for TiledInterference {
    fn num_links(&self) -> usize {
        self.tiles.num_links()
    }

    fn weight(&self, on: LinkId, from: LinkId) -> f64 {
        if on == from {
            1.0
        } else {
            self.tiles.cache.affectance(from, on).clamp(0.0, 1.0)
        }
    }

    fn measure(&self, load: &LinkLoad) -> f64 {
        if self.tiles.far_pairs() > 0 {
            super::measure::measure_with_tiles(&self.tiles, load)
        } else {
            // The trait default's exact row walk, so the ε = 0 path
            // stays bit-for-bit with every other model.
            max_row_load(self, load)
        }
    }
}
