//! Parameter sweeps: one spec spread over a `(λ, m, seed, repetition)`
//! grid, executed on the workspace's `std::thread::scope` parallel runner
//! ([`dps_sim::parallel::parallel_map`]).
//!
//! Cells share topologies: the grid's cells are grouped by the substrate
//! config their size yields (the seed axis sets only `run.seed`, so it
//! never changes the topology), and each group in turn builds its
//! substrate once, runs all of its λ/repetition cells on the worker
//! threads, and drops it. For SINR substrates that means one `O(m²)`
//! matrix + gain-table construction per topology instead of one per
//! cell, and peak memory of one topology. Results are bit-for-bit the
//! per-cell construction's (substrate builds are deterministic and runs
//! never mutate them; the integration suite pins this cell by cell).

use crate::error::ScenarioError;
use crate::scenario::{Scenario, ScenarioOutcome};
use crate::spec::{ScenarioSpec, SubstrateConfig};
use crate::substrate::SubstrateSpec;
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

    /// Executes the grid in parallel, one topology at a time.
    ///
    /// Cells are grouped by the substrate config their size yields, in
    /// first-seen order. Each group builds its substrate once, runs its
    /// cells on up to `threads` OS threads, and drops the substrate
    /// before the next group builds. Each cell rebuilds protocol and
    /// injector from the (validated) spec, so results are identical no
    /// matter how many threads execute the grid. Cells are returned in
    /// [`points`](Self::points) order.
    ///
    /// # Errors
    ///
    /// Returns the first error: an invalid derived spec (before any
    /// simulation runs), then, group by group, a substrate build error
    /// or a cell error (infeasible rate, inconsistent report).
    pub fn run(&self) -> Result<SweepReport, ScenarioError> {
        self.base.validate()?;
        let points = self.points();
        // Build every cell's scenario up front so spec-level errors
        // surface before any simulation time is spent.
        let scenarios: Vec<Scenario> = points
            .iter()
            .map(|point| {
                let mut spec = self.base.clone().with_lambda(point.lambda);
                if let Some(m) = point.size {
                    spec = spec.with_size(m);
                }
                Scenario::from_spec(&spec.with_seed(point.seed))
            })
            .collect::<Result<_, _>>()?;
        // Cells by topology, in first-seen order; a linear `==` scan,
        // since a grid holds a handful of sizes.
        let mut groups: Vec<(SubstrateConfig, Vec<usize>)> = Vec::new();
        for (index, point) in points.iter().enumerate() {
            let config = match point.size {
                Some(m) => self.base.substrate.clone().with_size(m),
                None => self.base.substrate.clone(),
            };
            match groups.iter_mut().find(|(seen, _)| *seen == config) {
                Some((_, cells)) => cells.push(index),
                None => groups.push((config, vec![index])),
            }
        }
        let mut outcomes: Vec<Option<ScenarioOutcome>> = vec![None; points.len()];
        for (config, cells) in &groups {
            let substrate = config.build()?;
            let results = dps_sim::parallel::parallel_map(cells.len(), self.threads, |i| {
                let index = cells[i];
                scenarios[index].run_stream_on(&substrate, points[index].rep)
            });
            for (&index, outcome) in cells.iter().zip(results) {
                outcomes[index] = Some(outcome?);
            }
        }
        let cells = points
            .into_iter()
            .zip(outcomes)
            .map(|(point, outcome)| SweepCell {
                point,
                outcome: outcome.expect("every cell belongs to one group"),
            })
            .collect();
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
}
