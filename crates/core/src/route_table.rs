//! Interned routes: the columnar data plane's route dictionary.
//!
//! A simulation's route family is small (a workload generator emits at
//! most a few thousand distinct routes) while the packet population is
//! large and churning. Carrying an `Arc<RoutePath>` inside every packet
//! therefore pays refcount traffic on every injection/delivery and a
//! two-hop pointer chase (`Arc` → `RoutePath` → links vector) on every
//! hop lookup in the slot loop. A [`RouteTable`] interns each distinct
//! route once, hands out dense [`RouteId`]s, and stores all hop links
//! flattened in one contiguous CSR array — a hop lookup is two reads
//! from dense memory and moving a packet moves a `u32`.
//!
//! Interning is content-based (two structurally equal routes collapse to
//! one id, which is what lets the [`crate::dynamic::DynamicProtocol`]
//! treat the workload generators' duplicated routes as one), with an
//! `Arc`-pointer-identity fast path for the common case of injectors
//! re-sharing the same `Arc` for every packet.

use crate::ids::LinkId;
use crate::path::RoutePath;
// Determinism audit (dps-lint: hash-container): both maps are
// lookup/insert-only on the hot path — no simulation decision ever
// iterates them, and ids are assigned by interning order, not map
// order. The only iteration is the invariant layer's verification walk
// (a pass/fail conjunction). Audited sites are listed in dps-lint.allow.
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

/// Fibonacci multiplicative hasher for both lookup maps. The keys are
/// addresses and route link sequences, not adversarial input, so
/// SipHash's collision resistance buys nothing: on the pointer-identity fast path
/// its ~20 ns per lookup lands on every injected packet, and on content
/// keys its per-link `write` call costs more than the table's other
/// interning work (whether the compiler inlines it there changes with
/// how the crate is split into codegen units).
#[derive(Default)]
struct MulHasher(u64);

impl Hasher for MulHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.0 = (n as u64 ^ self.0).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.0 = (n as u64 ^ self.0).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    #[inline]
    fn finish(&self) -> u64 {
        // Spread the high bits down: HashMap uses the low bits for
        // bucket selection and the top 7 for its control bytes.
        self.0 ^ (self.0 >> 29)
    }
}

/// Identifier of an interned route: a dense index into a [`RouteTable`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct RouteId(pub u32);

impl RouteId {
    /// The route index as a `usize`, for indexing per-route arrays.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for RouteId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// Interns [`RoutePath`]s once per scenario and serves hop lookups from a
/// flattened link array.
///
/// Structurally equal routes receive the same [`RouteId`] no matter how
/// many `Arc`s they arrive behind; the first `Arc` seen for a route
/// becomes its canonical shared handle ([`RouteTable::get`]).
#[derive(Clone, Debug, Default)]
pub struct RouteTable {
    /// Canonical `Arc` per interned route, for callers that still need
    /// the validated [`RoutePath`] object.
    routes: Vec<Arc<RoutePath>>,
    /// CSR offsets into `links`: route `r` occupies
    /// `links[offsets[r] .. offsets[r + 1]]`.
    offsets: Vec<u32>,
    /// All hop links of all interned routes, concatenated.
    links: Vec<LinkId>,
    /// Content-keyed dedup map (hashes the link sequence).
    by_content: HashMap<Arc<RoutePath>, RouteId, BuildHasherDefault<MulHasher>>,
    /// Pointer-identity fast path: `Arc::as_ptr` (as an address) of every
    /// `Arc` ever interned. Addresses are identity keys only, never
    /// dereferenced; the `Arc` clone pinned in `pinned`/`routes` keeps
    /// each allocation alive, so an address can never be recycled for a
    /// different route while the table exists.
    by_ptr: HashMap<usize, RouteId, BuildHasherDefault<MulHasher>>,
    /// Aliased `Arc`s pinned for the lifetime of `by_ptr` (see above).
    pinned: Vec<Arc<RoutePath>>,
}

impl RouteTable {
    /// An empty table.
    pub fn new() -> Self {
        RouteTable::default()
    }

    /// Most aliased `Arc`s the table will pin for the pointer fast
    /// path, on top of four per distinct route: long-lived injector
    /// aliases all get registered, while a workload that wraps every
    /// packet's route in a fresh `Arc` stops registering once the cap
    /// is reached and falls back to the content hash — bounding the
    /// table at O(#distinct routes) memory instead of O(#packets).
    const PIN_SLACK: usize = 64;

    /// Interns `route`, returning the id of the structurally equal route
    /// already in the table or a fresh id for a new one.
    pub fn intern(&mut self, route: &Arc<RoutePath>) -> RouteId {
        let ptr = Arc::as_ptr(route) as usize;
        if let Some(&id) = self.by_ptr.get(&ptr) {
            return id;
        }
        match self.by_content.get(route) {
            Some(&id) => {
                // A new Arc alias of a known route: remember the address
                // (and pin the Arc so it cannot be dropped and the
                // address recycled for a different route) — unless the
                // alias budget is spent, in which case this Arc keeps
                // paying the content hash.
                if self.pinned.len() < 4 * self.routes.len() + Self::PIN_SLACK {
                    self.pinned.push(route.clone());
                    self.by_ptr.insert(ptr, id);
                }
                id
            }
            None => {
                let id = RouteId(self.routes.len() as u32);
                self.links.extend_from_slice(route.links());
                self.offsets.push(self.links.len() as u32);
                // The canonical Arc in `routes` keeps this address
                // alive; no extra pin needed for its `by_ptr` entry.
                self.routes.push(route.clone());
                self.by_content.insert(route.clone(), id);
                self.by_ptr.insert(ptr, id);
                id
            }
        }
    }

    /// Interns every route of an iterator, returning the ids in order
    /// (duplicates collapse to equal ids).
    pub fn intern_all<'a, I>(&mut self, routes: I) -> Vec<RouteId>
    where
        I: IntoIterator<Item = &'a Arc<RoutePath>>,
    {
        routes.into_iter().map(|r| self.intern(r)).collect()
    }

    /// The canonical shared handle of an interned route.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not an id this table handed out.
    pub fn get(&self, id: RouteId) -> &Arc<RoutePath> {
        &self.routes[id.index()]
    }

    /// Number of hops of route `id`.
    #[inline]
    pub fn len_of(&self, id: RouteId) -> usize {
        self.links_of(id).len()
    }

    /// All hop links of route `id`, in order.
    #[inline]
    pub fn links_of(&self, id: RouteId) -> &[LinkId] {
        let i = id.index();
        let start = if i == 0 {
            0
        } else {
            self.offsets[i - 1] as usize
        };
        &self.links[start..self.offsets[i] as usize]
    }

    /// The link crossed at hop `hop` of route `id`.
    ///
    /// # Panics
    ///
    /// Panics if `hop` is out of range for the route.
    #[inline]
    pub fn link_at(&self, id: RouteId, hop: usize) -> LinkId {
        self.links_of(id)[hop]
    }

    /// Number of distinct routes interned.
    pub fn len(&self) -> usize {
        self.routes.len()
    }

    /// Whether no route has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.routes.is_empty()
    }

    /// Iterates over the canonical handles of all interned routes, in id
    /// order.
    pub fn iter(&self) -> impl Iterator<Item = &Arc<RoutePath>> {
        self.routes.iter()
    }

    // Introspection for the shared invariant layer
    // ([`crate::invariants::check_route_table`]). The map walks below are
    // verification-only: they decide a deterministic pass/fail
    // conjunction and never feed simulation state or output, so the
    // HashMap iteration order cannot reach results (see dps-lint.allow).

    /// CSR end-offsets, one per interned route.
    pub(crate) fn csr_offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// The flattened hop links of all routes.
    pub(crate) fn csr_links(&self) -> &[LinkId] {
        &self.links
    }

    /// Number of content-dedup entries (must equal [`RouteTable::len`]).
    pub(crate) fn content_entries(&self) -> usize {
        self.by_content.len()
    }

    /// First content-dedup entry whose id is out of range or whose
    /// canonical route differs structurally from the entry's key.
    pub(crate) fn find_broken_content_entry(&self) -> Option<(Arc<RoutePath>, RouteId)> {
        self.by_content.iter().find_map(|(route, &id)| {
            let broken = match self.routes.get(id.index()) {
                Some(canonical) => canonical.links() != route.links(),
                None => true,
            };
            broken.then(|| (route.clone(), id))
        })
    }

    /// First pointer-fast-path entry mapping to an out-of-range id.
    pub(crate) fn find_invalid_ptr_entry(&self) -> Option<RouteId> {
        self.by_ptr
            .values()
            .copied()
            .find(|id| id.index() >= self.routes.len())
    }

    /// Pinned-alias usage: `(pinned, bound)` with `pinned ≤ bound` the
    /// memory-bound invariant of the pointer fast path.
    pub(crate) fn pin_usage(&self) -> (usize, usize) {
        (self.pinned.len(), 4 * self.routes.len() + Self::PIN_SLACK)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn route(links: &[u32]) -> Arc<RoutePath> {
        RoutePath::from_links_unchecked(links.iter().map(|&l| LinkId(l)).collect()).shared()
    }

    #[test]
    fn interning_is_idempotent_per_arc() {
        let mut table = RouteTable::new();
        let r = route(&[0, 1, 2]);
        let a = table.intern(&r);
        let b = table.intern(&r);
        assert_eq!(a, b);
        assert_eq!(table.len(), 1);
    }

    #[test]
    fn structurally_equal_routes_collapse_across_arcs() {
        let mut table = RouteTable::new();
        let a = table.intern(&route(&[3, 4]));
        let b = table.intern(&route(&[3, 4]));
        let c = table.intern(&route(&[4, 3]));
        assert_eq!(a, b, "same links behind different Arcs must dedup");
        assert_ne!(a, c);
        assert_eq!(table.len(), 2);
    }

    #[test]
    fn csr_lookup_matches_route_path() {
        let mut table = RouteTable::new();
        let routes = [route(&[5]), route(&[0, 1, 2, 3]), route(&[2, 2])];
        let ids = table.intern_all(routes.iter());
        for (r, &id) in routes.iter().zip(&ids) {
            assert_eq!(table.len_of(id), r.len());
            assert_eq!(table.links_of(id), r.links());
            for hop in 0..r.len() {
                assert_eq!(Some(table.link_at(id, hop)), r.hop(hop));
            }
            assert_eq!(table.get(id).links(), r.links());
        }
    }

    #[test]
    fn dedup_survives_dropping_the_original_arc() {
        // A recycled allocation address must not alias a different route:
        // the table pins every Arc it has mapped by pointer.
        let mut table = RouteTable::new();
        for i in 0..64u32 {
            let r = route(&[i, i + 1]);
            let id = table.intern(&r);
            assert_eq!(table.links_of(id), r.links());
            drop(r);
        }
        assert_eq!(table.len(), 64);
        for i in 0..64u32 {
            let id = table.intern(&route(&[i, i + 1]));
            assert_eq!(id.index(), i as usize, "content dedup must survive drops");
        }
        assert_eq!(table.len(), 64);
    }

    #[test]
    fn per_packet_fresh_arcs_do_not_grow_the_table() {
        // A workload wrapping every packet's route in a fresh Arc hits
        // the content-dedup path on each intern; the table must stay
        // O(#distinct routes), not O(#packets).
        let mut table = RouteTable::new();
        let canonical = table.intern(&route(&[0, 1]));
        for _ in 0..10_000 {
            assert_eq!(table.intern(&route(&[0, 1])), canonical);
        }
        assert_eq!(table.len(), 1);
        assert!(
            table.pinned.len() <= 4 * table.routes.len() + RouteTable::PIN_SLACK,
            "pinned {} aliases for {} routes",
            table.pinned.len(),
            table.routes.len()
        );
        assert!(table.by_ptr.len() <= table.pinned.len() + table.routes.len());
    }

    /// Every table state producible through the public API must satisfy
    /// the shared canonicality invariant — including the alias-pinning
    /// cap path exercised by per-packet fresh `Arc`s.
    #[test]
    fn interned_tables_satisfy_the_shared_invariants() {
        use crate::invariants::check_route_table;
        let mut table = RouteTable::new();
        check_route_table(&table).unwrap();
        for i in 0..16u32 {
            table.intern(&route(&[i, i + 1, i + 2]));
            check_route_table(&table).unwrap();
        }
        // Duplicate content behind fresh Arcs: exercises both the
        // alias-pinning path and, once the budget is spent, the pure
        // content-hash path.
        for _ in 0..1_000 {
            table.intern(&route(&[0, 1, 2]));
        }
        check_route_table(&table).unwrap();
        assert_eq!(table.len(), 16);
    }

    #[test]
    fn ids_are_dense_and_display() {
        let mut table = RouteTable::new();
        let a = table.intern(&route(&[0]));
        let b = table.intern(&route(&[1]));
        assert_eq!(a.index(), 0);
        assert_eq!(b.index(), 1);
        assert_eq!(b.to_string(), "r1");
        assert_eq!(table.iter().count(), 2);
        assert!(!table.is_empty());
    }
}
