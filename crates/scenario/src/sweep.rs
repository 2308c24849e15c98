//! Parameter sweeps: one spec spread over a `(λ, m, seed, repetition)`
//! grid, executed on the workspace's `std::thread::scope` parallel runner
//! ([`dps_sim::parallel::parallel_map`]).
//!
//! Sweeps run on a shared substrate layer: every distinct topology of
//! the grid — keyed by `(substrate spec, size, geometry seed)` through a
//! [`SubstrateCache`] — is built exactly once and handed to all of its
//! λ/repetition cells (and worker threads) behind an `Arc`. For SINR
//! substrates that means one `O(m²)` matrix + gain-table construction
//! per topology instead of one per cell, with bit-for-bit identical
//! results (substrate builds are deterministic and runs never mutate
//! them; the integration suite pins this with a golden fingerprint).

use crate::cache::SubstrateCache;
use crate::error::ScenarioError;
use crate::scenario::{Scenario, ScenarioOutcome};
use crate::spec::ScenarioSpec;
use dps_sim::table::{fmt3, Table};
use serde::Value;

/// A sweep builder over injection rates, substrate sizes, seeds and
/// repetitions.
///
/// ```
/// use dps_scenario::{registry, Sweep};
///
/// let mut spec = registry::spec_for("ring-routing")?;
/// spec.run.frames = 10; // keep the doctest fast
/// let report = Sweep::new(spec)
///     .over_lambdas(&[0.4, 0.8])
///     .repetitions(2)
///     .threads(2)
///     .run()?;
/// assert_eq!(report.cells.len(), 4);
/// println!("{}", report.to_table().render());
/// # Ok::<(), dps_scenario::ScenarioError>(())
/// ```
#[derive(Clone, Debug)]
pub struct Sweep {
    base: ScenarioSpec,
    lambdas: Vec<f64>,
    sizes: Vec<Option<usize>>,
    seeds: Vec<u64>,
    repetitions: u64,
    threads: usize,
    substrate_budget_bytes: usize,
}

/// One grid point of a sweep.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SweepPoint {
    /// The injection rate of this cell (absolute or capacity-relative,
    /// following the base spec).
    pub lambda: f64,
    /// The substrate size override, if the sweep varies sizes.
    pub size: Option<usize>,
    /// The root seed of this cell.
    pub seed: u64,
    /// The repetition (RNG stream) index.
    pub rep: u64,
}

/// One executed grid point.
#[derive(Clone, Debug)]
pub struct SweepCell {
    /// The grid point.
    pub point: SweepPoint,
    /// Its outcome.
    pub outcome: ScenarioOutcome,
}

/// The result of a sweep, renderable as a table, CSV or JSON.
#[derive(Clone, Debug)]
pub struct SweepReport {
    /// The swept scenario's name.
    pub name: String,
    /// All executed cells, in grid order (λ outermost, then size, seed,
    /// repetition).
    pub cells: Vec<SweepCell>,
}

impl Sweep {
    /// A sweep of `base` — by default a single cell (the base λ, size and
    /// seed, one repetition) on all available cores.
    pub fn new(base: ScenarioSpec) -> Self {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Sweep {
            lambdas: vec![base.injection.lambda],
            sizes: vec![None],
            seeds: vec![base.run.seed],
            repetitions: 1,
            threads,
            substrate_budget_bytes: crate::cache::DEFAULT_BYTE_BUDGET,
            base,
        }
    }

    /// Sweeps the injection rate over `lambdas`.
    pub fn over_lambdas(mut self, lambdas: &[f64]) -> Self {
        if !lambdas.is_empty() {
            self.lambdas = lambdas.to_vec();
        }
        self
    }

    /// Sweeps the substrate size over `sizes` (see
    /// [`ScenarioSpec::with_size`]).
    pub fn over_sizes(mut self, sizes: &[usize]) -> Self {
        if !sizes.is_empty() {
            self.sizes = sizes.iter().map(|&m| Some(m)).collect();
        }
        self
    }

    /// Sweeps the root seed over `seeds`.
    pub fn over_seeds(mut self, seeds: &[u64]) -> Self {
        if !seeds.is_empty() {
            self.seeds = seeds.to_vec();
        }
        self
    }

    /// Runs `reps` repetitions (independent RNG streams) per cell.
    pub fn repetitions(mut self, reps: u64) -> Self {
        self.repetitions = reps.max(1);
        self
    }

    /// Caps the number of OS threads.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Caps the estimated bytes of topologies the sweep's substrate
    /// cache keeps resident (default
    /// [`crate::cache::DEFAULT_BYTE_BUDGET`]).
    ///
    /// Multi-topology grids (size or geometry-seed sweeps of large
    /// substrates) evict least-recently-used topologies beyond the
    /// budget and rebuild them on demand, trading peak memory for
    /// rebuild time. Results are bit-for-bit identical under any
    /// budget — builds are deterministic.
    pub fn substrate_budget_bytes(mut self, budget_bytes: usize) -> Self {
        self.substrate_budget_bytes = budget_bytes;
        self
    }

    /// The grid points this sweep will execute, in execution order.
    pub fn points(&self) -> Vec<SweepPoint> {
        let mut points = Vec::new();
        for &lambda in &self.lambdas {
            for &size in &self.sizes {
                for &seed in &self.seeds {
                    for rep in 0..self.repetitions {
                        points.push(SweepPoint {
                            lambda,
                            size,
                            seed,
                            rep,
                        });
                    }
                }
            }
        }
        points
    }

    /// Executes the grid in parallel.
    ///
    /// Each cell rebuilds protocol and injector from the (validated)
    /// spec, so results are identical no matter how many threads execute
    /// the grid; topologies are built once per distinct `(substrate,
    /// size, seed)` and shared across their cells.
    ///
    /// # Errors
    ///
    /// Returns the first cell error (invalid derived spec or infeasible
    /// rate), if any.
    pub fn run(&self) -> Result<SweepReport, ScenarioError> {
        self.base.validate()?;
        let points = self.points();
        // Build every cell's scenario up front so spec-level errors
        // surface before any simulation time is spent.
        let scenarios: Vec<(SweepPoint, Scenario)> = points
            .into_iter()
            .map(|point| {
                let mut spec = self.base.clone().with_lambda(point.lambda);
                if let Some(m) = point.size {
                    spec = spec.with_size(m);
                }
                spec = spec.with_seed(point.seed);
                Scenario::from_spec(&spec).map(|s| (point, s))
            })
            .collect::<Result<_, _>>()?;
        // Prebuild each distinct topology once, spreading the builds of
        // multi-topology grids (size/substrate-seed sweeps) over the
        // worker threads; afterwards a cell's lookup is a cache hit
        // unless the LRU byte budget evicted its topology, in which case
        // the cell rebuilds on demand. Cells resolve their substrate
        // lazily — holding every handle up front would pin all
        // topologies resident and defeat the budget. Keyless specs
        // (custom substrates that opted out of sharing) rebuild inside
        // their cells.
        let substrates = SubstrateCache::with_byte_budget(self.substrate_budget_bytes);
        // One cache_key computation per cell, reused for the dedup pass
        // and the per-cell lookups below.
        let keys: Vec<Option<String>> = scenarios
            .iter()
            .map(|(_, scenario)| scenario.substrate.cache_key())
            .collect();
        // Determinism audit (dps-lint: hash-container): the set is
        // insert-only dedup state; iteration below walks the
        // insertion-ordered `keys` Vec, so warm-up order is the
        // config order regardless of the set's internal order.
        let mut seen = std::collections::HashSet::new();
        let first_of_key: Vec<usize> = keys
            .iter()
            .enumerate()
            .filter(|(_, key)| key.as_ref().is_some_and(|k| seen.insert(k.clone())))
            .map(|(index, _)| index)
            .collect();
        // Stop warming once the cache is at budget or stops
        // growing (eviction displaced as much as the build added):
        // building more would only evict topologies just built,
        // each then built twice — once here, once by its cells.
        // Skipped topologies are built lazily by their first cell.
        // The checks are racy across workers, which at worst warms
        // an extra topology per thread.
        let warm_stopped = std::sync::atomic::AtomicBool::new(false);
        dps_sim::parallel::parallel_map(first_of_key.len(), self.threads, |i| {
            use std::sync::atomic::Ordering;
            if warm_stopped.load(Ordering::Relaxed)
                || substrates.resident_bytes() >= self.substrate_budget_bytes
            {
                return Ok::<(), ScenarioError>(());
            }
            let before = substrates.resident_bytes();
            let index = first_of_key[i];
            substrates
                .get_or_build_keyed(keys[index].as_deref(), &*scenarios[index].1.substrate)?;
            if substrates.resident_bytes() <= before {
                warm_stopped.store(true, Ordering::Relaxed);
            }
            Ok(())
        })
        .into_iter()
        .collect::<Result<Vec<()>, _>>()?;
        let outcomes = dps_sim::parallel::parallel_map(scenarios.len(), self.threads, |i| {
            let (point, scenario) = &scenarios[i];
            match &keys[i] {
                Some(key) => {
                    let substrate =
                        substrates.get_or_build_keyed(Some(key), &*scenario.substrate)?;
                    scenario.run_stream_on(&substrate, point.rep)
                }
                None => scenario.run_stream(point.rep),
            }
        });
        let cells = scenarios
            .iter()
            .zip(outcomes)
            .map(|((point, _), outcome)| {
                Ok(SweepCell {
                    point: *point,
                    outcome: outcome?,
                })
            })
            .collect::<Result<Vec<_>, ScenarioError>>()?;
        Ok(SweepReport {
            name: self.base.name.clone(),
            cells,
        })
    }
}

impl SweepReport {
    /// Renders the sweep as a [`Table`].
    pub fn to_table(&self) -> Table {
        let mut table = Table::new(
            format!("sweep: {}", self.name),
            &[
                "lambda",
                "m",
                "seed",
                "rep",
                "verdict",
                "mean backlog",
                "final backlog",
                "delivered/injected",
                "mean latency",
            ],
        );
        for cell in &self.cells {
            let o = &cell.outcome;
            table.push_row(vec![
                fmt3(o.lambda),
                cell.point
                    .size
                    .map(|m| m.to_string())
                    .unwrap_or_else(|| "-".into()),
                cell.point.seed.to_string(),
                cell.point.rep.to_string(),
                o.verdict_cell(),
                fmt3(o.report.mean_backlog()),
                o.report.final_backlog.to_string(),
                fmt3(o.report.delivery_ratio()),
                fmt3(o.report.latency_summary().mean),
            ]);
        }
        table
    }

    /// Renders the sweep as CSV.
    pub fn to_csv(&self) -> String {
        self.to_table().to_csv()
    }

    /// Renders the sweep as JSON (numbers stay numbers, unlike the
    /// table-cell rendering).
    pub fn to_json(&self) -> String {
        let cells: Vec<Value> = self
            .cells
            .iter()
            .map(|cell| {
                let o = &cell.outcome;
                let mut entries = vec![
                    ("lambda".to_string(), Value::F64(o.lambda)),
                    ("seed".to_string(), Value::U64(cell.point.seed)),
                    ("rep".to_string(), Value::U64(cell.point.rep)),
                    ("lambda_max".to_string(), Value::F64(o.lambda_max)),
                    ("frame_len".to_string(), Value::U64(o.frame_len as u64)),
                    ("slots".to_string(), Value::U64(o.slots)),
                    ("stable".to_string(), Value::Bool(o.verdict.is_stable())),
                    ("injected".to_string(), Value::U64(o.report.injected)),
                    ("delivered".to_string(), Value::U64(o.report.delivered)),
                    (
                        "final_backlog".to_string(),
                        Value::U64(o.report.final_backlog as u64),
                    ),
                    (
                        "mean_backlog".to_string(),
                        Value::F64(o.report.mean_backlog()),
                    ),
                    (
                        "mean_latency".to_string(),
                        Value::F64(o.report.latency_summary().mean),
                    ),
                ];
                if let Some(m) = cell.point.size {
                    entries.insert(1, ("m".to_string(), Value::U64(m as u64)));
                }
                if let Some(rate) = o.effective_rate {
                    entries.push(("effective_rate".to_string(), Value::F64(rate)));
                }
                Value::Map(entries)
            })
            .collect();
        let root = Value::Map(vec![
            ("scenario".to_string(), Value::Str(self.name.clone())),
            ("cells".to_string(), Value::Seq(cells)),
        ]);
        serde::json::to_string_pretty(&root)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry;

    fn quick_base() -> ScenarioSpec {
        let mut spec = registry::spec_for("ring-routing").unwrap();
        spec.run.frames = 8;
        spec
    }

    #[test]
    fn grid_enumerates_in_order() {
        let sweep = Sweep::new(quick_base())
            .over_lambdas(&[0.3, 0.6])
            .over_seeds(&[1, 2])
            .repetitions(2);
        let points = sweep.points();
        assert_eq!(points.len(), 8);
        assert_eq!(points[0].lambda, 0.3);
        assert_eq!(points[0].seed, 1);
        assert_eq!(points[1].rep, 1);
        assert_eq!(points[7].lambda, 0.6);
    }

    #[test]
    fn sweep_runs_and_renders_all_formats() {
        let mut base = quick_base();
        // Long enough that the warm-up ramp does not dominate the verdict.
        base.run.frames = 40;
        let report = Sweep::new(base)
            .over_lambdas(&[0.4, 1.3])
            .threads(2)
            .run()
            .unwrap();
        assert_eq!(report.cells.len(), 2);
        let table = report.to_table();
        assert_eq!(table.num_rows(), 2);
        assert!(report.to_csv().contains("lambda"));
        let json = serde::json::parse(&report.to_json()).unwrap();
        let cells = json.get("cells").unwrap().as_seq().unwrap();
        assert_eq!(cells.len(), 2);
        assert!(cells[0].get("stable").unwrap().as_bool().unwrap());
        assert!(!cells[1].get("stable").unwrap().as_bool().unwrap());
    }

    #[test]
    fn size_sweep_rescales_the_substrate() {
        let report = Sweep::new(quick_base())
            .over_sizes(&[4, 8])
            .threads(2)
            .run()
            .unwrap();
        assert_eq!(report.cells.len(), 2);
        assert!(report.cells[0].outcome.substrate.contains("ring(4)"));
        assert!(report.cells[1].outcome.substrate.contains("ring(8)"));
    }

    #[test]
    fn invalid_base_is_rejected_before_running() {
        let spec = quick_base().with_lambda(-1.0);
        assert!(Sweep::new(spec).run().is_err());
    }

    #[test]
    fn tiny_substrate_budget_matches_unbounded_results() {
        // A 1-byte budget evicts every topology immediately, forcing
        // per-cell rebuilds; builds are deterministic, so the cells must
        // be bit-for-bit the default-budget cells.
        let mut spec = registry::spec_for("sinr-linear").unwrap();
        spec.run.frames = 2;
        let run = |budget: usize| {
            Sweep::new(spec.clone())
                .over_sizes(&[6, 8])
                .threads(2)
                .substrate_budget_bytes(budget)
                .run()
                .unwrap()
        };
        let bounded = run(1);
        let unbounded = run(usize::MAX);
        assert_eq!(bounded.cells.len(), unbounded.cells.len());
        for (a, b) in bounded.cells.iter().zip(&unbounded.cells) {
            assert_eq!(a.point, b.point);
            assert_eq!(a.outcome.report.injected, b.outcome.report.injected);
            assert_eq!(a.outcome.report.delivered, b.outcome.report.delivered);
            assert_eq!(a.outcome.report.latencies, b.outcome.report.latencies);
            assert_eq!(
                a.outcome.report.backlog_series,
                b.outcome.report.backlog_series
            );
        }
    }
}
