//! The declarative scenario description: a serde-backed [`ScenarioSpec`]
//! readable from and writable to TOML and JSON.
//!
//! A spec names one point in the workspace's configuration space — a
//! substrate (which network + interference model + physical layer), a
//! protocol, an injection process and a run horizon. Specs are plain
//! data: building and executing them is the job of
//! [`Scenario`](crate::scenario::Scenario), and spreading one spec over a
//! parameter grid is the job of [`Sweep`](crate::sweep::Sweep).

use crate::error::ScenarioError;
use serde::{Deserialize, Error as SerdeError, Serialize, Value};

/// A complete declarative scenario description.
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioSpec {
    /// Display name, used in tables and reports.
    pub name: String,
    /// The substrate: network, interference model, feasibility, routes.
    pub substrate: SubstrateConfig,
    /// The protocol serving the substrate.
    pub protocol: ProtocolConfig,
    /// The injection process driving it.
    pub injection: InjectionConfig,
    /// Horizon, seeding and provisioning of the run.
    pub run: RunConfig,
}

/// Which substrate to build.
#[derive(Clone, Debug, PartialEq)]
pub enum SubstrateConfig {
    /// A directed ring of `nodes` nodes; all routes of `hops` consecutive
    /// links (packet routing, `W = identity`).
    RingRouting {
        /// Number of ring nodes (= links).
        nodes: usize,
        /// Route length in hops.
        hops: usize,
    },
    /// A directed line of `links` links; all routes of `hops` consecutive
    /// links.
    LineRouting {
        /// Number of line links.
        links: usize,
        /// Route length in hops.
        hops: usize,
    },
    /// A `rows × cols` grid with dimension-ordered routes.
    GridRouting {
        /// Grid rows.
        rows: usize,
        /// Grid columns.
        cols: usize,
    },
    /// A random SINR instance in a square (Section 6): `links` sender–
    /// receiver pairs, single-hop demands, exact SINR feasibility.
    SinrRandom {
        /// Number of links.
        links: usize,
        /// Side length of the deployment square.
        side: f64,
        /// Minimum link length.
        min_len: f64,
        /// Maximum link length.
        max_len: f64,
        /// The power assignment shaping the interference matrix.
        power: PowerConfig,
        /// Geometry seed (kept separate from the run seed so the same
        /// instance can be driven by many runs).
        seed: u64,
    },
    /// A random SINR instance judged through the spatially-tiled
    /// substrate ([`dps_sinr::tiles`]): near-field gain panels,
    /// far-field tile aggregation under the error knob `epsilon`
    /// (`0` = bit-for-bit the exact oracle), and an on-demand `O(m)`-
    /// memory interference model — the metro-scale configuration.
    SinrTiled {
        /// Number of links.
        links: usize,
        /// Side length of the deployment square.
        side: f64,
        /// Minimum link length.
        min_len: f64,
        /// Maximum link length.
        max_len: f64,
        /// The power assignment shaping the interference matrix.
        power: PowerConfig,
        /// Geometry seed (kept separate from the run seed so the same
        /// instance can be driven by many runs).
        seed: u64,
        /// Tiles per grid side (`1..=1024`).
        grid: usize,
        /// Far-field error knob `ε ≥ 0`; per-receiver interference is
        /// perturbed by at most `ε · margin` per slot.
        epsilon: f64,
        /// Byte budget for near-field gain panels.
        panel_budget: usize,
        /// Hierarchy depth: quadtree coarsening levels stacked over the
        /// leaf grid (`1..=8`; `1` is the flat index).
        levels: usize,
        /// Near-field panel residency policy (`"fixed"` build-time
        /// allocation or `"adaptive"` LRU evict/refill).
        panel_cache: dps_sinr::tiles::PanelCacheMode,
        /// Must be `1`: the slot kernel is single-threaded. The key is
        /// read (default `1`) but never written; it remains only while
        /// the benchmark definition still sets it.
        threads: usize,
    },
    /// The multiple-access channel (Section 7.1): `stations` stations on
    /// one shared medium, all-ones interference.
    Mac {
        /// Number of stations.
        stations: usize,
    },
    /// Random unit-length links under the protocol model, scheduled on
    /// their conflict graph (Section 7.2).
    ConflictGeometric {
        /// Number of links.
        links: usize,
        /// Deployment square side, as a multiple of `sqrt(links)`.
        side_factor: f64,
        /// Protocol-model guard-zone parameter.
        delta: f64,
        /// Geometry seed.
        seed: u64,
    },
}

/// Power assignment of a SINR substrate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PowerConfig {
    /// Every link transmits at unit power.
    Uniform,
    /// `p ∝ d^α` — received signal strength is equal on every link
    /// (the Corollary 12 setting).
    Linear,
    /// `p ∝ d^{α/2}` — the square-root assignment (Corollary 13 setting).
    SquareRoot,
}

/// Which protocol to run.
#[derive(Clone, Debug, PartialEq)]
pub enum ProtocolConfig {
    /// The dynamic frame protocol around the greedy per-link algorithm
    /// (`f = 1`; the packet-routing workhorse).
    FrameGreedy,
    /// The frame protocol around the two-stage decay scheduler (the SINR
    /// workhorse of Corollary 12).
    FrameTwoStage,
    /// The frame protocol around Algorithm 1 applied to the uniform-rate
    /// scheduler (Section 3 + Theorem 19).
    FrameUniformTransformed {
        /// The transformation's density parameter `χ`.
        chi: f64,
    },
    /// The frame protocol around Algorithm 2, the symmetric MAC algorithm
    /// (Corollary 16).
    FrameMacSymmetric {
        /// Algorithm 2's δ (threshold `1/(1+δ)e`).
        delta: f64,
    },
    /// The frame protocol around Round-Robin-Withholding, the asymmetric
    /// MAC algorithm (Corollary 18).
    FrameMacRoundRobin,
    /// The frame protocol around the deterministic greedy-coloring
    /// scheduler; requires a conflict-graph substrate.
    ConflictColoring,
    /// The Shortest-In-System baseline (no frames; packet routing only).
    Sis,
}

/// How packets are injected.
#[derive(Clone, Debug, PartialEq)]
pub struct InjectionConfig {
    /// The injection process.
    pub kind: InjectionKind,
    /// Injection rate λ. With `relative = false` this is the absolute
    /// measure per slot; with `relative = true` it is a fraction of the
    /// protocol's capacity `1/f(m)`.
    pub lambda: f64,
    /// Interpret `lambda` relative to the protocol's capacity.
    pub relative: bool,
    /// Adversary window length `w` (ignored by stochastic injection).
    pub window: usize,
    /// Maximum random initial delay of the Section 5 smoothing wrapper
    /// (adversarial kinds only).
    pub delay_max: u64,
}

/// The shape of the injection process.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InjectionKind {
    /// Independent per-route Bernoulli generators (Section 2.1).
    Stochastic,
    /// A `(w, λ)`-bounded adversary spreading its budget evenly.
    Smooth,
    /// A `(w, λ)`-bounded adversary dumping its budget at window starts.
    Bursty,
    /// A `(w, λ)`-bounded adversary flooding a single route.
    SingleEdge,
    /// A `(w, λ)`-bounded adversary cycling through the routes.
    RoundRobin,
}

impl InjectionKind {
    /// Whether this is one of the window-adversary kinds.
    pub fn is_adversarial(&self) -> bool {
        !matches!(self, InjectionKind::Stochastic)
    }
}

/// Horizon, seeding and provisioning of a run.
#[derive(Clone, Debug, PartialEq)]
pub struct RunConfig {
    /// Run length in frames (multiplied by the protocol's frame length;
    /// frameless protocols count slots directly... times 1).
    pub frames: u64,
    /// Root RNG seed.
    pub seed: u64,
    /// The protocol is provisioned for at most this fraction of its
    /// capacity `1/f(m)` — near-threshold frame lengths grow as
    /// `Θ(overhead/ε²)`, so experiments cap the provisioning rate while
    /// the injector may exceed it to probe overload.
    pub provision_cap: f64,
    /// Whether the simulation engine may use the event-driven fast path
    /// (skipping provably inert slot ranges). Results are identical
    /// either way; `false` forces the per-slot reference loop.
    pub events: bool,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            frames: 50,
            seed: 20120616,
            provision_cap: 0.95,
            events: true,
        }
    }
}

impl Default for InjectionConfig {
    fn default() -> Self {
        InjectionConfig {
            kind: InjectionKind::Stochastic,
            lambda: 0.5,
            relative: false,
            window: 64,
            delay_max: 8,
        }
    }
}

impl ScenarioSpec {
    /// Parses a spec from TOML and validates it.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::Parse`] on malformed TOML and
    /// [`ScenarioError::Spec`] on invalid parameters.
    pub fn from_toml(text: &str) -> Result<Self, ScenarioError> {
        let spec: ScenarioSpec = serde::toml::from_str(text)?;
        spec.validate()?;
        Ok(spec)
    }

    /// Parses a spec from JSON and validates it.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::Parse`] on malformed JSON and
    /// [`ScenarioError::Spec`] on invalid parameters.
    pub fn from_json(text: &str) -> Result<Self, ScenarioError> {
        let spec: ScenarioSpec = serde::json::from_str(text)?;
        spec.validate()?;
        Ok(spec)
    }

    /// Renders the spec as TOML.
    pub fn to_toml(&self) -> String {
        serde::toml::to_string(self)
    }

    /// Renders the spec as pretty JSON.
    pub fn to_json(&self) -> String {
        serde::json::to_string_pretty(self)
    }

    /// Returns `self` with a different injection rate.
    pub fn with_lambda(mut self, lambda: f64) -> Self {
        self.injection.lambda = lambda;
        self
    }

    /// Returns `self` with a different root seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.run.seed = seed;
        self
    }

    /// Returns `self` with the substrate scaled to (roughly) `m` links —
    /// the knob [`Sweep`](crate::sweep::Sweep) turns for size sweeps.
    pub fn with_size(mut self, m: usize) -> Self {
        self.substrate = self.substrate.with_size(m);
        self
    }

    /// Checks every parameter; all spec entry points call this.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::Spec`] naming the offending field.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        if self.name.is_empty() {
            return Err(ScenarioError::spec("name must not be empty"));
        }
        self.substrate.validate()?;
        self.injection.validate()?;
        if self.run.frames == 0 {
            return Err(ScenarioError::spec("run.frames must be at least 1"));
        }
        if !(self.run.provision_cap > 0.0 && self.run.provision_cap < 1.0) {
            return Err(ScenarioError::spec(format!(
                "run.provision_cap must be in (0, 1), got {}",
                self.run.provision_cap
            )));
        }
        if self.protocol == ProtocolConfig::Sis && !self.substrate.is_routing() {
            return Err(ScenarioError::spec(
                "protocol `sis` requires a routing substrate",
            ));
        }
        if self.protocol == ProtocolConfig::ConflictColoring && !self.substrate.is_conflict() {
            return Err(ScenarioError::spec(
                "protocol `conflict-coloring` requires a conflict-graph substrate",
            ));
        }
        Ok(())
    }
}

impl SubstrateConfig {
    /// Whether this is a packet-routing substrate (`W = identity`).
    pub fn is_routing(&self) -> bool {
        matches!(
            self,
            SubstrateConfig::RingRouting { .. }
                | SubstrateConfig::LineRouting { .. }
                | SubstrateConfig::GridRouting { .. }
        )
    }

    /// Whether this substrate carries a conflict graph.
    pub fn is_conflict(&self) -> bool {
        matches!(self, SubstrateConfig::ConflictGeometric { .. })
    }

    /// Scales the substrate to (roughly) `m` links.
    pub fn with_size(self, m: usize) -> Self {
        match self {
            SubstrateConfig::RingRouting { hops, .. } => SubstrateConfig::RingRouting {
                nodes: m,
                hops: hops.min(m),
            },
            SubstrateConfig::LineRouting { hops, .. } => SubstrateConfig::LineRouting {
                links: m,
                hops: hops.min(m),
            },
            SubstrateConfig::GridRouting { .. } => {
                // Keep the grid square; links ≈ 2·rows·cols.
                let side = (((m / 2).max(4)) as f64).sqrt().round().max(2.0) as usize;
                SubstrateConfig::GridRouting {
                    rows: side,
                    cols: side,
                }
            }
            SubstrateConfig::SinrRandom {
                side,
                min_len,
                max_len,
                power,
                seed,
                links,
            } => SubstrateConfig::SinrRandom {
                // Keep the density constant while scaling.
                side: side * (m as f64 / links.max(1) as f64).sqrt(),
                links: m,
                min_len,
                max_len,
                power,
                seed,
            },
            SubstrateConfig::SinrTiled {
                side,
                min_len,
                max_len,
                power,
                seed,
                links,
                grid,
                epsilon,
                panel_budget,
                levels,
                panel_cache,
                threads,
            } => SubstrateConfig::SinrTiled {
                // Keep the density constant while scaling.
                side: side * (m as f64 / links.max(1) as f64).sqrt(),
                links: m,
                min_len,
                max_len,
                power,
                seed,
                grid,
                epsilon,
                panel_budget,
                levels,
                panel_cache,
                threads,
            },
            SubstrateConfig::Mac { .. } => SubstrateConfig::Mac { stations: m },
            SubstrateConfig::ConflictGeometric {
                side_factor,
                delta,
                seed,
                ..
            } => SubstrateConfig::ConflictGeometric {
                links: m,
                side_factor,
                delta,
                seed,
            },
        }
    }

    fn validate(&self) -> Result<(), ScenarioError> {
        let positive = |value: usize, what: &str| {
            if value == 0 {
                Err(ScenarioError::spec(format!("{what} must be at least 1")))
            } else {
                Ok(())
            }
        };
        match self {
            SubstrateConfig::RingRouting { nodes, hops } => {
                positive(*nodes, "substrate.nodes")?;
                positive(*hops, "substrate.hops")?;
                if hops > nodes {
                    return Err(ScenarioError::spec(format!(
                        "substrate.hops ({hops}) exceeds the ring size ({nodes})"
                    )));
                }
            }
            SubstrateConfig::LineRouting { links, hops } => {
                positive(*links, "substrate.links")?;
                positive(*hops, "substrate.hops")?;
                if hops > links {
                    return Err(ScenarioError::spec(format!(
                        "substrate.hops ({hops}) exceeds the line length ({links})"
                    )));
                }
            }
            SubstrateConfig::GridRouting { rows, cols } => {
                if *rows < 2 || *cols < 2 {
                    return Err(ScenarioError::spec(
                        "substrate.rows and substrate.cols must be at least 2",
                    ));
                }
            }
            SubstrateConfig::SinrRandom {
                links,
                side,
                min_len,
                max_len,
                ..
            } => {
                positive(*links, "substrate.links")?;
                if side.is_nan() || *side <= 0.0 {
                    return Err(ScenarioError::spec("substrate.side must be positive"));
                }
                if !(*min_len > 0.0 && min_len <= max_len) {
                    return Err(ScenarioError::spec(format!(
                        "substrate link lengths must satisfy 0 < min_len ({min_len}) <= max_len ({max_len})"
                    )));
                }
            }
            SubstrateConfig::SinrTiled {
                links,
                side,
                min_len,
                max_len,
                grid,
                epsilon,
                levels,
                threads,
                ..
            } => {
                positive(*links, "substrate.links")?;
                if side.is_nan() || *side <= 0.0 {
                    return Err(ScenarioError::spec("substrate.side must be positive"));
                }
                if !(*min_len > 0.0 && min_len <= max_len) {
                    return Err(ScenarioError::spec(format!(
                        "substrate link lengths must satisfy 0 < min_len ({min_len}) <= max_len ({max_len})"
                    )));
                }
                if !(1..=dps_sinr::tiles::MAX_TILES_PER_SIDE).contains(grid) {
                    return Err(ScenarioError::spec(format!(
                        "substrate.grid must be in 1..={}, got {grid}",
                        dps_sinr::tiles::MAX_TILES_PER_SIDE
                    )));
                }
                if !(epsilon.is_finite() && *epsilon >= 0.0) {
                    return Err(ScenarioError::spec(format!(
                        "substrate.epsilon must be finite and non-negative, got {epsilon}"
                    )));
                }
                if !(1..=dps_sinr::tiles::MAX_TILE_LEVELS).contains(levels) {
                    return Err(ScenarioError::spec(format!(
                        "substrate.levels must be in 1..={}, got {levels}",
                        dps_sinr::tiles::MAX_TILE_LEVELS
                    )));
                }
                if *threads != 1 {
                    return Err(ScenarioError::spec(format!(
                        "substrate.threads must be 1, got {threads}: the tiled slot kernel \
                         is single-threaded, and the key remains only until the benchmark \
                         definition drops it"
                    )));
                }
            }
            SubstrateConfig::Mac { stations } => positive(*stations, "substrate.stations")?,
            SubstrateConfig::ConflictGeometric {
                links,
                side_factor,
                delta,
                ..
            } => {
                positive(*links, "substrate.links")?;
                if side_factor.is_nan() || *side_factor <= 0.0 {
                    return Err(ScenarioError::spec(
                        "substrate.side_factor must be positive",
                    ));
                }
                if delta.is_nan() || *delta < 0.0 {
                    return Err(ScenarioError::spec("substrate.delta must be non-negative"));
                }
            }
        }
        Ok(())
    }
}

impl InjectionConfig {
    fn validate(&self) -> Result<(), ScenarioError> {
        if !(self.lambda.is_finite() && self.lambda > 0.0) {
            return Err(ScenarioError::spec(format!(
                "injection.lambda must be positive and finite, got {}",
                self.lambda
            )));
        }
        if self.window == 0 {
            return Err(ScenarioError::spec("injection.window must be at least 1"));
        }
        if self.kind.is_adversarial() && self.delay_max == 0 {
            return Err(ScenarioError::spec(
                "injection.delay_max must be at least 1 for adversarial kinds",
            ));
        }
        Ok(())
    }
}

// --- serde ----------------------------------------------------------------
//
// Enums are hand-written (the in-tree serde derive covers structs only):
// each variant serializes as a map with a `kind` discriminator, which is
// also the natural TOML shape:
//
// ```toml
// [substrate]
// kind = "ring-routing"
// nodes = 8
// hops = 2
// ```

fn kind_of(value: &Value) -> Result<String, SerdeError> {
    value
        .get("kind")
        .ok_or_else(|| SerdeError::missing_field("kind"))?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| SerdeError::custom("`kind` must be a string"))
}

fn map(entries: Vec<(&str, Value)>) -> Value {
    Value::Map(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

impl Serialize for ScenarioSpec {
    fn to_value(&self) -> Value {
        map(vec![
            ("name", self.name.to_value()),
            ("substrate", self.substrate.to_value()),
            ("protocol", self.protocol.to_value()),
            ("injection", self.injection.to_value()),
            ("run", self.run.to_value()),
        ])
    }
}

impl Deserialize for ScenarioSpec {
    fn from_value(value: &Value) -> Result<Self, SerdeError> {
        Ok(ScenarioSpec {
            name: serde::de_field(value, "name")?,
            substrate: serde::de_field(value, "substrate")?,
            protocol: serde::de_field(value, "protocol")?,
            injection: serde::de_field(value, "injection")?,
            // The whole [run] table may be omitted.
            run: serde::de_field::<Option<RunConfig>>(value, "run")?.unwrap_or_default(),
        })
    }
}

impl Serialize for SubstrateConfig {
    fn to_value(&self) -> Value {
        match self {
            SubstrateConfig::RingRouting { nodes, hops } => map(vec![
                ("kind", "ring-routing".to_value()),
                ("nodes", nodes.to_value()),
                ("hops", hops.to_value()),
            ]),
            SubstrateConfig::LineRouting { links, hops } => map(vec![
                ("kind", "line-routing".to_value()),
                ("links", links.to_value()),
                ("hops", hops.to_value()),
            ]),
            SubstrateConfig::GridRouting { rows, cols } => map(vec![
                ("kind", "grid-routing".to_value()),
                ("rows", rows.to_value()),
                ("cols", cols.to_value()),
            ]),
            SubstrateConfig::SinrRandom {
                links,
                side,
                min_len,
                max_len,
                power,
                seed,
            } => map(vec![
                ("kind", "sinr-random".to_value()),
                ("links", links.to_value()),
                ("side", side.to_value()),
                ("min_len", min_len.to_value()),
                ("max_len", max_len.to_value()),
                ("power", power.to_value()),
                ("seed", seed.to_value()),
            ]),
            SubstrateConfig::SinrTiled {
                links,
                side,
                min_len,
                max_len,
                power,
                seed,
                grid,
                epsilon,
                panel_budget,
                levels,
                panel_cache,
                ..
            } => map(vec![
                ("kind", "sinr-tiled".to_value()),
                ("links", links.to_value()),
                ("side", side.to_value()),
                ("min_len", min_len.to_value()),
                ("max_len", max_len.to_value()),
                ("power", power.to_value()),
                ("seed", seed.to_value()),
                ("grid", grid.to_value()),
                ("epsilon", epsilon.to_value()),
                ("panel_budget", panel_budget.to_value()),
                ("levels", levels.to_value()),
                (
                    "panel_cache",
                    // Inline (the mode lives in dps-sinr, the serde
                    // traits here — the orphan rule forbids a direct
                    // impl).
                    Value::Str(
                        match panel_cache {
                            dps_sinr::tiles::PanelCacheMode::Fixed => "fixed",
                            dps_sinr::tiles::PanelCacheMode::Adaptive => "adaptive",
                        }
                        .to_string(),
                    ),
                ),
            ]),
            SubstrateConfig::Mac { stations } => map(vec![
                ("kind", "mac".to_value()),
                ("stations", stations.to_value()),
            ]),
            SubstrateConfig::ConflictGeometric {
                links,
                side_factor,
                delta,
                seed,
            } => map(vec![
                ("kind", "conflict-geometric".to_value()),
                ("links", links.to_value()),
                ("side_factor", side_factor.to_value()),
                ("delta", delta.to_value()),
                ("seed", seed.to_value()),
            ]),
        }
    }
}

impl Deserialize for SubstrateConfig {
    fn from_value(value: &Value) -> Result<Self, SerdeError> {
        match kind_of(value)?.as_str() {
            "ring-routing" => Ok(SubstrateConfig::RingRouting {
                nodes: serde::de_field(value, "nodes")?,
                hops: serde::de_field(value, "hops")?,
            }),
            "line-routing" => Ok(SubstrateConfig::LineRouting {
                links: serde::de_field(value, "links")?,
                hops: serde::de_field(value, "hops")?,
            }),
            "grid-routing" => Ok(SubstrateConfig::GridRouting {
                rows: serde::de_field(value, "rows")?,
                cols: serde::de_field(value, "cols")?,
            }),
            "sinr-random" => Ok(SubstrateConfig::SinrRandom {
                links: serde::de_field(value, "links")?,
                side: serde::de_field(value, "side")?,
                min_len: serde::de_field(value, "min_len")?,
                max_len: serde::de_field(value, "max_len")?,
                power: serde::de_field(value, "power")?,
                seed: serde::de_field::<Option<u64>>(value, "seed")?.unwrap_or(0),
            }),
            "sinr-tiled" => Ok(SubstrateConfig::SinrTiled {
                links: serde::de_field(value, "links")?,
                side: serde::de_field(value, "side")?,
                min_len: serde::de_field(value, "min_len")?,
                max_len: serde::de_field(value, "max_len")?,
                power: serde::de_field(value, "power")?,
                seed: serde::de_field::<Option<u64>>(value, "seed")?.unwrap_or(0),
                grid: serde::de_field::<Option<usize>>(value, "grid")?.unwrap_or(16),
                epsilon: serde::de_field::<Option<f64>>(value, "epsilon")?.unwrap_or(0.0),
                panel_budget: serde::de_field::<Option<usize>>(value, "panel_budget")?
                    .unwrap_or(dps_sinr::tiles::DEFAULT_PANEL_BUDGET_BYTES),
                levels: serde::de_field::<Option<usize>>(value, "levels")?.unwrap_or(1),
                panel_cache: match serde::de_field::<Option<String>>(value, "panel_cache")?
                    .as_deref()
                {
                    None | Some("fixed") => dps_sinr::tiles::PanelCacheMode::Fixed,
                    Some("adaptive") => dps_sinr::tiles::PanelCacheMode::Adaptive,
                    Some(other) => {
                        return Err(SerdeError::custom(format!(
                            "unknown panel_cache `{other}` (expected `fixed` or `adaptive`)"
                        )))
                    }
                },
                threads: serde::de_field::<Option<usize>>(value, "threads")?.unwrap_or(1),
            }),
            "mac" => Ok(SubstrateConfig::Mac {
                stations: serde::de_field(value, "stations")?,
            }),
            "conflict-geometric" => Ok(SubstrateConfig::ConflictGeometric {
                links: serde::de_field(value, "links")?,
                side_factor: serde::de_field(value, "side_factor")?,
                delta: serde::de_field(value, "delta")?,
                seed: serde::de_field::<Option<u64>>(value, "seed")?.unwrap_or(0),
            }),
            other => Err(SerdeError::custom(format!(
                "unknown substrate kind `{other}`"
            ))),
        }
    }
}

impl Serialize for PowerConfig {
    fn to_value(&self) -> Value {
        Value::Str(
            match self {
                PowerConfig::Uniform => "uniform",
                PowerConfig::Linear => "linear",
                PowerConfig::SquareRoot => "square-root",
            }
            .to_string(),
        )
    }
}

impl Deserialize for PowerConfig {
    fn from_value(value: &Value) -> Result<Self, SerdeError> {
        match value.as_str() {
            Some("uniform") => Ok(PowerConfig::Uniform),
            Some("linear") => Ok(PowerConfig::Linear),
            Some("square-root") => Ok(PowerConfig::SquareRoot),
            Some(other) => Err(SerdeError::custom(format!("unknown power `{other}`"))),
            None => Err(SerdeError::expected("string", value)),
        }
    }
}

impl Serialize for ProtocolConfig {
    fn to_value(&self) -> Value {
        match self {
            ProtocolConfig::FrameGreedy => map(vec![("kind", "frame-greedy".to_value())]),
            ProtocolConfig::FrameTwoStage => map(vec![("kind", "frame-two-stage".to_value())]),
            ProtocolConfig::FrameUniformTransformed { chi } => map(vec![
                ("kind", "frame-uniform-transformed".to_value()),
                ("chi", chi.to_value()),
            ]),
            ProtocolConfig::FrameMacSymmetric { delta } => map(vec![
                ("kind", "frame-mac-symmetric".to_value()),
                ("delta", delta.to_value()),
            ]),
            ProtocolConfig::FrameMacRoundRobin => {
                map(vec![("kind", "frame-mac-round-robin".to_value())])
            }
            ProtocolConfig::ConflictColoring => map(vec![("kind", "conflict-coloring".to_value())]),
            ProtocolConfig::Sis => map(vec![("kind", "sis".to_value())]),
        }
    }
}

impl Deserialize for ProtocolConfig {
    fn from_value(value: &Value) -> Result<Self, SerdeError> {
        match kind_of(value)?.as_str() {
            "frame-greedy" => Ok(ProtocolConfig::FrameGreedy),
            "frame-two-stage" => Ok(ProtocolConfig::FrameTwoStage),
            "frame-uniform-transformed" => Ok(ProtocolConfig::FrameUniformTransformed {
                chi: serde::de_field::<Option<f64>>(value, "chi")?.unwrap_or(8.0),
            }),
            "frame-mac-symmetric" => Ok(ProtocolConfig::FrameMacSymmetric {
                delta: serde::de_field::<Option<f64>>(value, "delta")?.unwrap_or(0.5),
            }),
            "frame-mac-round-robin" => Ok(ProtocolConfig::FrameMacRoundRobin),
            "conflict-coloring" => Ok(ProtocolConfig::ConflictColoring),
            "sis" => Ok(ProtocolConfig::Sis),
            other => Err(SerdeError::custom(format!(
                "unknown protocol kind `{other}`"
            ))),
        }
    }
}

impl Serialize for InjectionKind {
    fn to_value(&self) -> Value {
        Value::Str(
            match self {
                InjectionKind::Stochastic => "stochastic",
                InjectionKind::Smooth => "smooth",
                InjectionKind::Bursty => "bursty",
                InjectionKind::SingleEdge => "single-edge",
                InjectionKind::RoundRobin => "round-robin",
            }
            .to_string(),
        )
    }
}

impl Deserialize for InjectionKind {
    fn from_value(value: &Value) -> Result<Self, SerdeError> {
        match value.as_str() {
            Some("stochastic") => Ok(InjectionKind::Stochastic),
            Some("smooth") => Ok(InjectionKind::Smooth),
            Some("bursty") => Ok(InjectionKind::Bursty),
            Some("single-edge") => Ok(InjectionKind::SingleEdge),
            Some("round-robin") => Ok(InjectionKind::RoundRobin),
            Some(other) => Err(SerdeError::custom(format!(
                "unknown injection kind `{other}`"
            ))),
            None => Err(SerdeError::expected("string", value)),
        }
    }
}

impl Serialize for InjectionConfig {
    fn to_value(&self) -> Value {
        map(vec![
            ("kind", self.kind.to_value()),
            ("lambda", self.lambda.to_value()),
            ("relative", self.relative.to_value()),
            ("window", self.window.to_value()),
            ("delay_max", self.delay_max.to_value()),
        ])
    }
}

impl Deserialize for InjectionConfig {
    fn from_value(value: &Value) -> Result<Self, SerdeError> {
        let defaults = InjectionConfig::default();
        Ok(InjectionConfig {
            kind: serde::de_field::<Option<InjectionKind>>(value, "kind")?.unwrap_or(defaults.kind),
            lambda: serde::de_field(value, "lambda")?,
            relative: serde::de_field::<Option<bool>>(value, "relative")?
                .unwrap_or(defaults.relative),
            window: serde::de_field::<Option<usize>>(value, "window")?.unwrap_or(defaults.window),
            delay_max: serde::de_field::<Option<u64>>(value, "delay_max")?
                .unwrap_or(defaults.delay_max),
        })
    }
}

impl Serialize for RunConfig {
    fn to_value(&self) -> Value {
        map(vec![
            ("frames", self.frames.to_value()),
            ("seed", self.seed.to_value()),
            ("provision_cap", self.provision_cap.to_value()),
            ("events", self.events.to_value()),
        ])
    }
}

impl Deserialize for RunConfig {
    fn from_value(value: &Value) -> Result<Self, SerdeError> {
        let defaults = RunConfig::default();
        Ok(RunConfig {
            frames: serde::de_field::<Option<u64>>(value, "frames")?.unwrap_or(defaults.frames),
            seed: serde::de_field::<Option<u64>>(value, "seed")?.unwrap_or(defaults.seed),
            provision_cap: serde::de_field::<Option<f64>>(value, "provision_cap")?
                .unwrap_or(defaults.provision_cap),
            events: serde::de_field::<Option<bool>>(value, "events")?.unwrap_or(defaults.events),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_spec() -> ScenarioSpec {
        ScenarioSpec {
            name: "ring demo".into(),
            substrate: SubstrateConfig::RingRouting { nodes: 8, hops: 2 },
            protocol: ProtocolConfig::FrameGreedy,
            injection: InjectionConfig {
                kind: InjectionKind::Stochastic,
                lambda: 0.5,
                relative: false,
                window: 64,
                delay_max: 8,
            },
            run: RunConfig {
                frames: 50,
                seed: 7,
                provision_cap: 0.95,
                events: true,
            },
        }
    }

    #[test]
    fn toml_round_trip_is_identity() {
        let spec = sample_spec();
        let toml = spec.to_toml();
        let parsed = ScenarioSpec::from_toml(&toml).unwrap();
        assert_eq!(parsed, spec);
        // And a second render is stable.
        assert_eq!(parsed.to_toml(), toml);
    }

    #[test]
    fn json_round_trip_is_identity() {
        let mut spec = sample_spec();
        spec.substrate = SubstrateConfig::SinrRandom {
            links: 16,
            side: 80.0,
            min_len: 1.0,
            max_len: 3.0,
            power: PowerConfig::Linear,
            seed: 999,
        };
        spec.protocol = ProtocolConfig::FrameTwoStage;
        spec.injection.relative = true;
        let json = spec.to_json();
        let parsed = ScenarioSpec::from_json(&json).unwrap();
        assert_eq!(parsed, spec);
    }

    #[test]
    fn cross_format_round_trip() {
        // TOML → spec → JSON → spec → TOML reproduces the document.
        let spec = sample_spec();
        let via_json = ScenarioSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(via_json.to_toml(), spec.to_toml());
    }

    #[test]
    fn missing_optional_tables_use_defaults() {
        let toml = r#"
name = "minimal"
[substrate]
kind = "mac"
stations = 8
[protocol]
kind = "frame-mac-round-robin"
[injection]
lambda = 0.4
"#;
        // `run` omitted, injection kind omitted.
        let spec = ScenarioSpec::from_toml(toml).unwrap();
        assert_eq!(spec.run, RunConfig::default());
        assert_eq!(spec.injection.kind, InjectionKind::Stochastic);
        assert_eq!(spec.injection.lambda, 0.4);
        spec.validate().unwrap();
    }

    #[test]
    fn invalid_lambda_is_rejected() {
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let spec = sample_spec().with_lambda(bad);
            assert!(spec.validate().is_err(), "lambda {bad} must be rejected");
        }
    }

    #[test]
    fn invalid_sizes_are_rejected() {
        let mut spec = sample_spec();
        spec.substrate = SubstrateConfig::RingRouting { nodes: 0, hops: 1 };
        assert!(spec.validate().is_err());
        spec.substrate = SubstrateConfig::RingRouting { nodes: 4, hops: 9 };
        assert!(spec.validate().is_err());
        spec.substrate = SubstrateConfig::Mac { stations: 0 };
        assert!(spec.validate().is_err());
        spec.substrate = SubstrateConfig::SinrRandom {
            links: 8,
            side: 40.0,
            min_len: 3.0,
            max_len: 1.0,
            power: PowerConfig::Uniform,
            seed: 0,
        };
        assert!(spec.validate().is_err());
    }

    #[test]
    fn protocol_substrate_mismatch_is_rejected() {
        let mut spec = sample_spec();
        spec.protocol = ProtocolConfig::ConflictColoring;
        assert!(spec.validate().is_err());
        spec.substrate = SubstrateConfig::Mac { stations: 4 };
        spec.protocol = ProtocolConfig::Sis;
        assert!(spec.validate().is_err());
    }

    #[test]
    fn unknown_kinds_fail_to_parse() {
        let toml = sample_spec().to_toml().replace("ring-routing", "moebius");
        assert!(matches!(
            ScenarioSpec::from_toml(&toml),
            Err(ScenarioError::Parse(_))
        ));
    }

    fn tiled_substrate() -> SubstrateConfig {
        SubstrateConfig::SinrTiled {
            links: 256,
            side: 200.0,
            min_len: 0.8,
            max_len: 3.0,
            power: PowerConfig::Linear,
            seed: 42,
            grid: 8,
            epsilon: 1e-2,
            panel_budget: 1 << 20,
            levels: 3,
            panel_cache: dps_sinr::tiles::PanelCacheMode::Adaptive,
            threads: 1,
        }
    }

    #[test]
    fn sinr_tiled_round_trips_and_defaults() {
        let mut spec = sample_spec();
        spec.substrate = tiled_substrate();
        spec.protocol = ProtocolConfig::FrameTwoStage;
        let toml = spec.to_toml();
        assert_eq!(ScenarioSpec::from_toml(&toml).unwrap(), spec);
        let json = spec.to_json();
        assert_eq!(ScenarioSpec::from_json(&json).unwrap(), spec);
        // `threads` is read but never written.
        assert!(!toml.contains("threads") && !json.contains("threads"));

        // grid/epsilon/panel_budget/levels/panel_cache/threads may be
        // omitted.
        let toml = r#"
name = "tiled minimal"
[substrate]
kind = "sinr-tiled"
links = 64
side = 100.0
min_len = 1.0
max_len = 2.0
power = "uniform"
[protocol]
kind = "frame-two-stage"
[injection]
lambda = 0.4
"#;
        let spec = ScenarioSpec::from_toml(toml).unwrap();
        match spec.substrate {
            SubstrateConfig::SinrTiled {
                grid,
                epsilon,
                panel_budget,
                seed,
                levels,
                panel_cache,
                threads,
                ..
            } => {
                assert_eq!(grid, 16);
                assert_eq!(epsilon, 0.0);
                assert_eq!(panel_budget, dps_sinr::tiles::DEFAULT_PANEL_BUDGET_BYTES);
                assert_eq!(seed, 0);
                assert_eq!(levels, 1);
                assert_eq!(panel_cache, dps_sinr::tiles::PanelCacheMode::Fixed);
                assert_eq!(threads, 1);
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn sinr_tiled_rejects_bad_grid_and_epsilon() {
        let mut spec = sample_spec();
        for (grid, epsilon) in [
            (0, 0.0),
            (1025, 0.0),
            (8, -1.0),
            (8, f64::NAN),
            (8, f64::INFINITY),
        ] {
            let mut substrate = tiled_substrate();
            if let SubstrateConfig::SinrTiled {
                grid: g,
                epsilon: e,
                ..
            } = &mut substrate
            {
                *g = grid;
                *e = epsilon;
            }
            spec.substrate = substrate;
            assert!(
                spec.validate().is_err(),
                "grid {grid}, epsilon {epsilon} must be rejected"
            );
        }
    }

    #[test]
    fn sinr_tiled_rejects_bad_levels_threads_and_panel_cache() {
        let mut spec = sample_spec();
        for (levels, threads) in [(0, 1), (9, 1), (1, 0), (1, 2), (1, 65)] {
            let mut substrate = tiled_substrate();
            if let SubstrateConfig::SinrTiled {
                levels: l,
                threads: t,
                ..
            } = &mut substrate
            {
                *l = levels;
                *t = threads;
            }
            spec.substrate = substrate;
            assert!(
                spec.validate().is_err(),
                "levels {levels}, threads {threads} must be rejected"
            );
        }
        // A spec file asking for kernel threads gets a typed error.
        let toml = r#"
name = "tiled threads"
[substrate]
kind = "sinr-tiled"
links = 64
side = 100.0
min_len = 1.0
max_len = 2.0
power = "uniform"
threads = 2
[protocol]
kind = "frame-two-stage"
[injection]
lambda = 0.4
"#;
        match ScenarioSpec::from_toml(toml) {
            Err(ScenarioError::Spec(message)) => {
                assert!(message.contains("single-threaded"), "{message}")
            }
            other => panic!("threads = 2 must be a spec error, got {other:?}"),
        }
        // An unknown residency policy fails at parse time.
        spec.substrate = tiled_substrate();
        let toml = spec.to_toml().replace("adaptive", "clairvoyant");
        assert!(matches!(
            ScenarioSpec::from_toml(&toml),
            Err(ScenarioError::Parse(_))
        ));
    }

    #[test]
    fn with_size_scales_every_substrate() {
        let ring = SubstrateConfig::RingRouting { nodes: 8, hops: 2 }.with_size(16);
        assert_eq!(ring, SubstrateConfig::RingRouting { nodes: 16, hops: 2 });
        let mac = SubstrateConfig::Mac { stations: 8 }.with_size(4);
        assert_eq!(mac, SubstrateConfig::Mac { stations: 4 });
        let sinr = SubstrateConfig::SinrRandom {
            links: 16,
            side: 80.0,
            min_len: 1.0,
            max_len: 3.0,
            power: PowerConfig::Linear,
            seed: 1,
        }
        .with_size(64);
        if let SubstrateConfig::SinrRandom { links, side, .. } = sinr {
            assert_eq!(links, 64);
            assert!((side - 160.0).abs() < 1e-9, "density-preserving scaling");
        } else {
            panic!("variant changed");
        }
        let tiled = tiled_substrate().with_size(1024);
        if let SubstrateConfig::SinrTiled {
            links, side, grid, ..
        } = tiled
        {
            assert_eq!(links, 1024);
            assert!((side - 400.0).abs() < 1e-9, "density-preserving scaling");
            assert_eq!(grid, 8, "grid resolution survives scaling");
        } else {
            panic!("variant changed");
        }
    }
}
