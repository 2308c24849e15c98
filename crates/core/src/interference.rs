//! Linear interference measures: the matrix `W` of Section 2.
//!
//! `W[e][e'] ∈ [0, 1]` quantifies the relative impact of a transmission on
//! link `e'` onto a transmission on link `e`, with `W[e][e] = 1`. The
//! *interference measure* induced by a load vector `R` is
//! `I = ‖W·R‖∞ = max_e Σ_e' W[e][e']·R(e')`.
//!
//! The matrix is exposed as a trait so substrates can compute entries on
//! demand (SINR affectance is derived from geometry; materializing an `m×m`
//! matrix would defeat the purpose for large networks). Three canonical
//! implementations live here:
//!
//! * [`IdentityInterference`] — packet-routing networks; the measure is the
//!   congestion;
//! * [`CompleteInterference`] — the multiple-access channel; the measure is
//!   the total number of packets;
//! * [`DenseInterference`] — an explicit matrix, used by conflict graphs and
//!   by tests.

use crate::error::ModelError;
use crate::ids::LinkId;
use crate::load::LinkLoad;

/// A linear interference measure `W` over `m` links.
///
/// Implementations must satisfy the paper's two structural requirements,
/// which [`validate`] checks and the property tests enforce:
/// `weight(e, e) == 1` for every link and `weight(e, e') ∈ [0, 1]`.
pub trait InterferenceModel {
    /// Number of links `m` the matrix is defined over.
    fn num_links(&self) -> usize;

    /// The entry `W[on][from]`: how much a transmission on `from` disturbs
    /// a simultaneous transmission on `on`.
    fn weight(&self, on: LinkId, from: LinkId) -> f64;

    /// The row product `(W·R)(on) = Σ_e' W[on][e']·R(e')`.
    ///
    /// The default iterates the support of `load`; implementations with
    /// structure (identity, all-ones) override it with O(1) versions.
    fn row_load(&self, on: LinkId, load: &LinkLoad) -> f64 {
        load.support()
            .map(|(from, r)| self.weight(on, from) * r)
            .sum()
    }

    /// The interference measure `I = ‖W·R‖∞`.
    ///
    /// The default is [`max_row_load`]. Models where only rows in the
    /// support can attain the maximum may override this with a
    /// restriction to the support.
    fn measure(&self, load: &LinkLoad) -> f64 {
        max_row_load(self, load)
    }
}

/// The exact row walk for `‖W·R‖∞`: the maximum of
/// [`InterferenceModel::row_load`] over all rows, in ascending row order.
///
/// This is the default [`InterferenceModel::measure`]. An override that
/// falls back to the exact walk calls it too, so the fallback returns the
/// default's bits.
pub fn max_row_load<M: InterferenceModel + ?Sized>(model: &M, load: &LinkLoad) -> f64 {
    (0..model.num_links() as u32)
        .map(|e| model.row_load(LinkId(e), load))
        .fold(0.0, f64::max)
}

macro_rules! impl_interference_for_wrapper {
    ($($wrapper:ty),*) => {$(
        impl<M: InterferenceModel + ?Sized> InterferenceModel for $wrapper {
            fn num_links(&self) -> usize {
                (**self).num_links()
            }
            fn weight(&self, on: LinkId, from: LinkId) -> f64 {
                (**self).weight(on, from)
            }
            fn row_load(&self, on: LinkId, load: &LinkLoad) -> f64 {
                (**self).row_load(on, load)
            }
            fn measure(&self, load: &LinkLoad) -> f64 {
                (**self).measure(load)
            }
        }
    )*};
}

impl_interference_for_wrapper!(&M, Box<M>, std::sync::Arc<M>);

/// Checks the structural invariants of an interference model:
/// unit diagonal and entries within `[0, 1]`.
///
/// Intended for tests and debug assertions; cost is `O(m²)`.
///
/// # Errors
///
/// Returns [`ModelError::InvalidWeight`] naming the first offending entry.
pub fn validate<M: InterferenceModel + ?Sized>(model: &M) -> Result<(), ModelError> {
    let m = model.num_links() as u32;
    for on in 0..m {
        for from in 0..m {
            let w = model.weight(LinkId(on), LinkId(from));
            let ok = if on == from {
                (w - 1.0).abs() < 1e-12
            } else {
                (0.0..=1.0).contains(&w)
            };
            if !ok || !w.is_finite() {
                return Err(ModelError::InvalidWeight {
                    on: LinkId(on),
                    from: LinkId(from),
                    value: w,
                });
            }
        }
    }
    Ok(())
}

/// `W = identity`: links do not interfere with each other. Models classic
/// store-and-forward packet-routing networks; the measure is the congestion.
#[derive(Clone, Copy, Debug)]
pub struct IdentityInterference {
    num_links: usize,
}

impl IdentityInterference {
    /// Creates the identity model over `num_links` links.
    pub fn new(num_links: usize) -> Self {
        IdentityInterference { num_links }
    }
}

impl InterferenceModel for IdentityInterference {
    fn num_links(&self) -> usize {
        self.num_links
    }

    fn weight(&self, on: LinkId, from: LinkId) -> f64 {
        if on == from {
            1.0
        } else {
            0.0
        }
    }

    fn row_load(&self, on: LinkId, load: &LinkLoad) -> f64 {
        load.get(on)
    }

    fn measure(&self, load: &LinkLoad) -> f64 {
        load.max()
    }
}

/// `W = all-ones`: every transmission disturbs every other. Models the
/// multiple-access channel; the measure is the total number of packets.
#[derive(Clone, Copy, Debug)]
pub struct CompleteInterference {
    num_links: usize,
}

impl CompleteInterference {
    /// Creates the all-ones model over `num_links` links.
    pub fn new(num_links: usize) -> Self {
        CompleteInterference { num_links }
    }
}

impl InterferenceModel for CompleteInterference {
    fn num_links(&self) -> usize {
        self.num_links
    }

    fn weight(&self, _on: LinkId, _from: LinkId) -> f64 {
        1.0
    }

    fn row_load(&self, _on: LinkId, load: &LinkLoad) -> f64 {
        load.total()
    }

    fn measure(&self, load: &LinkLoad) -> f64 {
        load.total()
    }
}

/// An explicit `m×m` interference matrix.
///
/// Used by conflict-graph substrates (whose entries are 0/1 and known in
/// advance) and by tests. Construction validates the paper's structural
/// invariants.
#[derive(Clone, Debug)]
pub struct DenseInterference {
    num_links: usize,
    /// Row-major `num_links × num_links` entries.
    entries: Vec<f64>,
}

impl DenseInterference {
    /// Creates a dense matrix from row-major `entries`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidWeight`] if the diagonal is not one or
    /// any entry falls outside `[0, 1]`; returns
    /// [`ModelError::InvalidConfig`] if `entries` has the wrong length.
    pub fn from_rows(num_links: usize, entries: Vec<f64>) -> Result<Self, ModelError> {
        if entries.len() != num_links * num_links {
            return Err(ModelError::InvalidConfig(format!(
                "expected {} entries for a {num_links}x{num_links} matrix, got {}",
                num_links * num_links,
                entries.len()
            )));
        }
        let model = DenseInterference { num_links, entries };
        validate(&model)?;
        Ok(model)
    }

    /// Creates the matrix from a per-entry function, forcing the diagonal
    /// to one and clamping entries into `[0, 1]`.
    pub fn from_fn<F>(num_links: usize, mut weight: F) -> Self
    where
        F: FnMut(LinkId, LinkId) -> f64,
    {
        let mut entries = vec![0.0; num_links * num_links];
        for on in 0..num_links {
            for from in 0..num_links {
                entries[on * num_links + from] = if on == from {
                    1.0
                } else {
                    weight(LinkId(on as u32), LinkId(from as u32)).clamp(0.0, 1.0)
                };
            }
        }
        DenseInterference { num_links, entries }
    }
}

impl InterferenceModel for DenseInterference {
    fn num_links(&self) -> usize {
        self.num_links
    }

    fn weight(&self, on: LinkId, from: LinkId) -> f64 {
        self.entries[on.index() * self.num_links + from.index()]
    }

    fn row_load(&self, on: LinkId, load: &LinkLoad) -> f64 {
        let row = &self.entries[on.index() * self.num_links..(on.index() + 1) * self.num_links];
        row.iter()
            .enumerate()
            .map(|(from, w)| w * load.get(LinkId(from as u32)))
            .sum()
    }
}

/// Computes the average interference measure per slot of a sequence of
/// per-slot loads — the quantity the injection-rate definitions bound.
pub fn mean_measure<M: InterferenceModel + ?Sized>(model: &M, loads: &[LinkLoad]) -> f64 {
    if loads.is_empty() {
        return 0.0;
    }
    let mut sum = LinkLoad::new(model.num_links());
    for load in loads {
        sum.merge(load);
    }
    model.measure(&sum) / loads.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn load3(values: [f64; 3]) -> LinkLoad {
        let mut load = LinkLoad::new(3);
        for (i, v) in values.into_iter().enumerate() {
            load.set(LinkId(i as u32), v);
        }
        load
    }

    #[test]
    fn identity_measure_is_congestion() {
        let model = IdentityInterference::new(3);
        let load = load3([2.0, 5.0, 1.0]);
        assert_eq!(model.measure(&load), 5.0);
        assert_eq!(model.row_load(LinkId(1), &load), 5.0);
        validate(&model).unwrap();
    }

    #[test]
    fn complete_measure_is_total() {
        let model = CompleteInterference::new(3);
        let load = load3([2.0, 5.0, 1.0]);
        assert_eq!(model.measure(&load), 8.0);
        validate(&model).unwrap();
    }

    #[test]
    fn dense_matrix_row_products() {
        let model = DenseInterference::from_rows(
            2,
            vec![
                1.0, 0.5, //
                0.25, 1.0,
            ],
        )
        .unwrap();
        let mut load = LinkLoad::new(2);
        load.set(LinkId(0), 2.0);
        load.set(LinkId(1), 4.0);
        assert_eq!(model.row_load(LinkId(0), &load), 2.0 + 0.5 * 4.0);
        assert_eq!(model.row_load(LinkId(1), &load), 0.25 * 2.0 + 4.0);
        assert_eq!(model.measure(&load), 4.5);
    }

    #[test]
    fn dense_matrix_rejects_bad_diagonal() {
        let err = DenseInterference::from_rows(2, vec![0.5, 0.0, 0.0, 1.0]).unwrap_err();
        assert!(matches!(err, ModelError::InvalidWeight { .. }));
    }

    #[test]
    fn dense_matrix_rejects_out_of_range_entry() {
        let err = DenseInterference::from_rows(2, vec![1.0, 1.5, 0.0, 1.0]).unwrap_err();
        assert!(matches!(
            err,
            ModelError::InvalidWeight {
                value, ..
            } if value == 1.5
        ));
    }

    #[test]
    fn dense_matrix_rejects_wrong_length() {
        let err = DenseInterference::from_rows(2, vec![1.0; 3]).unwrap_err();
        assert!(matches!(err, ModelError::InvalidConfig(_)));
    }

    #[test]
    fn from_fn_clamps_and_fixes_diagonal() {
        let model = DenseInterference::from_fn(2, |_, _| 7.0);
        validate(&model).unwrap();
        assert_eq!(model.weight(LinkId(0), LinkId(1)), 1.0);
        assert_eq!(model.weight(LinkId(0), LinkId(0)), 1.0);
    }

    #[test]
    fn measure_of_empty_load_is_zero() {
        let model = CompleteInterference::new(4);
        assert_eq!(model.measure(&LinkLoad::new(4)), 0.0);
    }

    #[test]
    fn mean_measure_averages_over_slots() {
        let model = IdentityInterference::new(2);
        let slot1 = {
            let mut l = LinkLoad::new(2);
            l.set(LinkId(0), 2.0);
            l
        };
        let slot2 = {
            let mut l = LinkLoad::new(2);
            l.set(LinkId(0), 4.0);
            l
        };
        assert_eq!(mean_measure(&model, &[slot1, slot2]), 3.0);
        assert_eq!(mean_measure(&model, &[]), 0.0);
    }

    #[test]
    fn default_measure_agrees_with_specialized() {
        // Wrap identity in a type that only provides `weight` so the default
        // `measure` path is exercised.
        struct Slow(usize);
        impl InterferenceModel for Slow {
            fn num_links(&self) -> usize {
                self.0
            }
            fn weight(&self, on: LinkId, from: LinkId) -> f64 {
                if on == from {
                    1.0
                } else {
                    0.0
                }
            }
        }
        let load = load3([2.0, 5.0, 1.0]);
        assert_eq!(
            Slow(3).measure(&load),
            IdentityInterference::new(3).measure(&load)
        );
    }
}
