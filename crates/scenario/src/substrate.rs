//! Built substrates and the object-safe [`SubstrateSpec`] factory trait.
//!
//! A [`Substrate`] bundles everything workload-independent about a run:
//! the network, the interference matrix the protocol designs against, the
//! physical-layer feasibility oracle transmissions are judged by, and the
//! route family packets travel on. Components are held behind `Arc`s so
//! one substrate can hand the same model to a protocol, an injector and a
//! window validator without re-deriving geometry.

use crate::error::ScenarioError;
use crate::spec::{PowerConfig, SubstrateConfig};
use dps_conflict::graph::ConflictGraph;
use dps_conflict::matrix::ConflictInterference;
use dps_core::feasibility::{Feasibility, PerLinkFeasibility, SingleChannelFeasibility};
use dps_core::ids::LinkId;
use dps_core::interference::{CompleteInterference, IdentityInterference, InterferenceModel};
use dps_core::path::RoutePath;
use dps_core::rng::split_stream;
use dps_routing::workloads::RoutingSetup;
use dps_sinr::cache::{SinrCache, DEFAULT_DENSE_GAIN_LIMIT};
use dps_sinr::feasibility::SinrFeasibility;
use dps_sinr::instances::random_instance;
use dps_sinr::matrix::SinrInterference;
use dps_sinr::network::SinrNetwork;
use dps_sinr::params::SinrParams;
use dps_sinr::power::{LinearPower, SquareRootPower, UniformPower};
use dps_sinr::tiles::{TileOptions, TiledInterference, TiledSinrCache, TiledSinrFeasibility};
use std::fmt;
use std::sync::Arc;

/// The conflict-graph pieces a conflict substrate additionally carries
/// (protocol specs like greedy coloring need the graph itself, not just
/// its interference matrix).
#[derive(Clone, Debug)]
pub struct ConflictParts {
    /// The conflict graph over the links.
    pub graph: ConflictGraph,
    /// The witness ordering (shortest-first) the matrix is derived from.
    pub pi: Vec<LinkId>,
}

/// A fully built substrate: everything a protocol/injector pair plugs
/// into.
pub struct Substrate {
    /// Human-readable description, used in tables.
    pub label: String,
    /// Number of links `m` of the network.
    pub num_links: usize,
    /// Significant size (the `m` handed to `f(m)` and frame tuning).
    pub m: usize,
    /// The linear interference measure schedules are designed against.
    pub model: Arc<dyn InterferenceModel + Send + Sync>,
    /// The physical ground truth judging transmission attempts.
    pub feasibility: Arc<dyn Feasibility + Send + Sync>,
    /// The route family packets are injected on.
    pub routes: Vec<Arc<RoutePath>>,
    /// Conflict-graph pieces, for conflict substrates.
    pub conflict: Option<ConflictParts>,
    /// The shared SINR geometry cache, for SINR substrates: the one
    /// [`SinrCache`] both the interference matrix and the feasibility
    /// oracle of this substrate were built from (and that sweep cells
    /// sharing this substrate reuse).
    pub sinr_cache: Option<Arc<SinrCache>>,
    /// The spatial tile index, for tiled SINR substrates: near-field
    /// gain panels and far-field aggregation state shared by the
    /// feasibility oracle.
    pub sinr_tiles: Option<Arc<TiledSinrCache>>,
}

impl fmt::Debug for Substrate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Substrate")
            .field("label", &self.label)
            .field("num_links", &self.num_links)
            .field("m", &self.m)
            .field("routes", &self.routes.len())
            .finish_non_exhaustive()
    }
}

/// An object-safe factory of [`Substrate`]s.
///
/// The built-in implementation is [`SubstrateConfig`] (the declarative
/// enum); custom substrates implement this trait directly and compose
/// with every protocol and injector spec — see the `star_lowerbound`
/// example for a custom implementation.
pub trait SubstrateSpec: fmt::Debug + Send + Sync {
    /// A short human-readable label for tables.
    fn label(&self) -> String;

    /// Builds the substrate.
    ///
    /// Building must be deterministic: any internal randomness (geometry)
    /// must come from seeds stored in the spec, so that repetitions and
    /// sweep cells see the same instance. Runs only read the built
    /// substrate, so repetitions and sweeps build it once and share it.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError`] if the configuration is not realizable.
    fn build(&self) -> Result<Substrate, ScenarioError>;
}

/// One single-hop route per link — the demand family of the MAC, SINR and
/// conflict experiments.
pub fn single_hop_routes(num_links: usize) -> Vec<Arc<RoutePath>> {
    (0..num_links as u32)
        .map(|l| RoutePath::single_hop(LinkId(l)).shared())
        .collect()
}

impl SubstrateSpec for SubstrateConfig {
    fn label(&self) -> String {
        match self {
            SubstrateConfig::RingRouting { nodes, hops } => {
                format!("ring({nodes}), {hops}-hop routing")
            }
            SubstrateConfig::LineRouting { links, hops } => {
                format!("line({links}), {hops}-hop routing")
            }
            SubstrateConfig::GridRouting { rows, cols } => format!("grid({rows}x{cols}) routing"),
            SubstrateConfig::SinrRandom { links, power, .. } => {
                let power = match power {
                    PowerConfig::Uniform => "uniform",
                    PowerConfig::Linear => "linear",
                    PowerConfig::SquareRoot => "sqrt",
                };
                format!("SINR random(m={links}), {power} power")
            }
            SubstrateConfig::SinrTiled {
                links,
                power,
                grid,
                epsilon,
                levels,
                ..
            } => {
                let power = match power {
                    PowerConfig::Uniform => "uniform",
                    PowerConfig::Linear => "linear",
                    PowerConfig::SquareRoot => "sqrt",
                };
                format!("SINR tiled(m={links}, g={grid}, L={levels}, eps={epsilon}), {power} power")
            }
            SubstrateConfig::Mac { stations } => format!("MAC({stations} stations)"),
            SubstrateConfig::ConflictGeometric { links, .. } => {
                format!("conflict protocol-model(m={links})")
            }
        }
    }

    fn build(&self) -> Result<Substrate, ScenarioError> {
        let label = SubstrateSpec::label(self);
        match *self {
            SubstrateConfig::RingRouting { nodes, hops } => {
                routing_substrate(label, RoutingSetup::ring(nodes, hops)?)
            }
            SubstrateConfig::LineRouting { links, hops } => {
                routing_substrate(label, RoutingSetup::line(links, hops)?)
            }
            SubstrateConfig::GridRouting { rows, cols } => {
                routing_substrate(label, RoutingSetup::grid(rows, cols))
            }
            SubstrateConfig::SinrRandom {
                links,
                side,
                min_len,
                max_len,
                power,
                seed,
            } => {
                let params = SinrParams::default_noiseless();
                // Geometry stream 0 of the substrate's own seed space.
                let mut geo_rng = split_stream(seed, 0);
                let net = random_instance(links, side, min_len, max_len, params, &mut geo_rng);
                // One shared geometry cache per topology: the matrix
                // build and the exact oracle read the same precomputed
                // signals, margins and gains — the `O(m²)` `powf` work
                // happens exactly once per substrate.
                let cache = power_cache(&net, power, params.alpha, DEFAULT_DENSE_GAIN_LIMIT);
                let matrix = match power {
                    PowerConfig::Uniform | PowerConfig::Linear => {
                        SinrInterference::fixed_power_with_cache
                    }
                    PowerConfig::SquareRoot => SinrInterference::monotone_power_with_cache,
                };
                let model = Arc::new(matrix(&net, &cache));
                let feasibility = Arc::new(SinrFeasibility::from_cache(cache.clone()));
                Ok(Substrate {
                    label,
                    num_links: links,
                    m: links,
                    model,
                    feasibility,
                    routes: single_hop_routes(links),
                    conflict: None,
                    sinr_cache: Some(cache),
                    sinr_tiles: None,
                })
            }
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
            } => {
                let params = SinrParams::default_noiseless();
                // Same geometry stream as `SinrRandom`: a tiled spec
                // with ε = 0 judges the *identical* instance bit-for-bit.
                let mut geo_rng = split_stream(seed, 0);
                let net = random_instance(links, side, min_len, max_len, params, &mut geo_rng);
                let options = TileOptions::new(grid, epsilon)
                    .with_levels(levels)
                    .with_panel_budget(panel_budget)
                    .with_panel_mode(panel_cache);
                // No dense gain table at any size: the slot path reads
                // panels, far aggregates and, for un-panelled near pairs
                // (and every pair without far ones), gains on the fly.
                let cache = power_cache(&net, power, params.alpha, 0);
                let tiles = Arc::new(TiledSinrCache::with_options(cache.clone(), options));
                // Tiles-backed model: entries stay exact, but the
                // whole-matrix measure (injection-rate normalization)
                // routes through the index's far-field aggregation — at
                // m = 2²⁰ the trait-default O(m²) row walk costs hours,
                // the tiled walk seconds.
                let model = Arc::new(TiledInterference::with_tiles(tiles.clone()));
                let feasibility = Arc::new(TiledSinrFeasibility::from_tiles(tiles.clone()));
                Ok(Substrate {
                    label,
                    num_links: links,
                    m: links,
                    model,
                    feasibility,
                    routes: single_hop_routes(links),
                    conflict: None,
                    sinr_cache: Some(cache),
                    sinr_tiles: Some(tiles),
                })
            }
            SubstrateConfig::Mac { stations } => Ok(Substrate {
                label,
                num_links: stations,
                m: stations,
                model: Arc::new(CompleteInterference::new(stations)),
                feasibility: Arc::new(SingleChannelFeasibility::new()),
                routes: single_hop_routes(stations),
                conflict: None,
                sinr_cache: None,
                sinr_tiles: None,
            }),
            SubstrateConfig::ConflictGeometric {
                links,
                side_factor,
                delta,
                seed,
            } => {
                let mut geo_rng = split_stream(seed, 0);
                let side = side_factor * (links as f64).sqrt();
                let geo = dps_conflict::models::random_geo_links(links, side, 1.0, &mut geo_rng);
                let graph = dps_conflict::models::protocol_model(&geo, delta);
                let pi =
                    dps_conflict::inductive::ordering_by_key(links, |l| geo[l.index()].length());
                let model = ConflictInterference::new(graph.clone(), &pi);
                let feasibility =
                    dps_conflict::feasibility::IndependentSetFeasibility::new(graph.clone());
                Ok(Substrate {
                    label,
                    num_links: links,
                    m: links,
                    model: Arc::new(model),
                    feasibility: Arc::new(feasibility),
                    routes: single_hop_routes(links),
                    conflict: Some(ConflictParts { graph, pi }),
                    sinr_cache: None,
                    sinr_tiles: None,
                })
            }
        }
    }
}

/// The geometry cache of `net` under the configured power assignment:
/// the one [`SinrCache`] a SINR substrate's matrix, oracle and tile index
/// share. The dense gain table is built only for `m ≤ dense_limit`.
fn power_cache(
    net: &SinrNetwork,
    power: PowerConfig,
    alpha: f64,
    dense_limit: usize,
) -> Arc<SinrCache> {
    Arc::new(match power {
        PowerConfig::Uniform => {
            SinrCache::with_dense_limit(net, &UniformPower::unit(), dense_limit)
        }
        PowerConfig::Linear => {
            SinrCache::with_dense_limit(net, &LinearPower::new(alpha), dense_limit)
        }
        PowerConfig::SquareRoot => {
            SinrCache::with_dense_limit(net, &SquareRootPower::new(alpha), dense_limit)
        }
    })
}

fn routing_substrate(label: String, setup: RoutingSetup) -> Result<Substrate, ScenarioError> {
    let num_links = setup.network.num_links();
    Ok(Substrate {
        label,
        num_links,
        m: setup.network.significant_size(),
        model: Arc::new(IdentityInterference::new(num_links)),
        feasibility: Arc::new(PerLinkFeasibility::new(num_links)),
        routes: setup.routes,
        conflict: None,
        sinr_cache: None,
        sinr_tiles: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dps_core::interference::validate;

    #[test]
    fn every_builtin_substrate_builds_consistently() {
        let configs = vec![
            SubstrateConfig::RingRouting { nodes: 6, hops: 2 },
            SubstrateConfig::LineRouting { links: 6, hops: 3 },
            SubstrateConfig::GridRouting { rows: 3, cols: 3 },
            SubstrateConfig::SinrRandom {
                links: 6,
                side: 40.0,
                min_len: 1.0,
                max_len: 3.0,
                power: PowerConfig::Linear,
                seed: 3,
            },
            SubstrateConfig::SinrTiled {
                links: 6,
                side: 40.0,
                min_len: 1.0,
                max_len: 3.0,
                power: PowerConfig::Linear,
                seed: 3,
                grid: 4,
                epsilon: 0.0,
                panel_budget: 1 << 16,
                levels: 2,
                panel_cache: dps_sinr::tiles::PanelCacheMode::Fixed,
                threads: 1,
            },
            SubstrateConfig::Mac { stations: 5 },
            SubstrateConfig::ConflictGeometric {
                links: 10,
                side_factor: 2.0,
                delta: 0.5,
                seed: 4,
            },
        ];
        for config in configs {
            let substrate = config.build().expect("builds");
            assert!(substrate.num_links > 0);
            assert!(substrate.m > 0);
            assert!(!substrate.routes.is_empty());
            assert_eq!(substrate.model.num_links(), substrate.num_links);
            validate(&*substrate.model).expect("structural invariants");
            assert_eq!(
                substrate.conflict.is_some(),
                config.is_conflict(),
                "{config:?}"
            );
        }
    }

    #[test]
    fn tiled_substrate_matches_exact_substrate_at_epsilon_zero() {
        // Same geometry seed ⇒ the tiled substrate judges the identical
        // instance: model weights and feasibility verdicts bit-for-bit.
        let links = 12;
        let exact = SubstrateConfig::SinrRandom {
            links,
            side: 60.0,
            min_len: 1.0,
            max_len: 3.0,
            power: PowerConfig::Linear,
            seed: 9,
        }
        .build()
        .unwrap();
        // Hierarchy depth, adaptive panels and the dense gain table
        // are all bitwise-neutral knobs — ε = 0 is the whole contract.
        let tiled = SubstrateConfig::SinrTiled {
            links,
            side: 60.0,
            min_len: 1.0,
            max_len: 3.0,
            power: PowerConfig::Linear,
            seed: 9,
            grid: 4,
            epsilon: 0.0,
            panel_budget: 1 << 16,
            levels: 3,
            panel_cache: dps_sinr::tiles::PanelCacheMode::Adaptive,
            threads: 1,
        }
        .build()
        .unwrap();
        assert!(tiled.sinr_tiles.is_some());
        for on in 0..links as u32 {
            for from in 0..links as u32 {
                let a = exact.model.weight(LinkId(on), LinkId(from));
                let b = tiled.model.weight(LinkId(on), LinkId(from));
                assert_eq!(a.to_bits(), b.to_bits(), "W[{on}][{from}]");
            }
        }
        let attempts: Vec<dps_core::feasibility::Attempt> = (0..links as u32)
            .map(|l| dps_core::feasibility::Attempt {
                link: LinkId(l),
                packet: dps_core::ids::PacketId(l as u64),
            })
            .collect();
        let rng = split_stream(5, 0);
        assert_eq!(
            exact.feasibility.successes(&attempts, &mut rng.clone()),
            tiled.feasibility.successes(&attempts, &mut rng.clone()),
        );
    }

    /// Both SINR substrates, under every power assignment, hold one
    /// geometry cache that their oracle judges from, and that oracle
    /// decides like an exact oracle built directly from the spec's
    /// geometry and power. Below the dense limit only the exact
    /// substrate keeps a dense gain table.
    #[test]
    fn sinr_substrates_share_one_cache_per_power_assignment() {
        use dps_core::feasibility::Attempt;
        use dps_core::ids::PacketId;
        let (links, side, min_len, max_len, seed) = (64, 60.0, 1.0, 3.0, 13);
        assert!(links <= DEFAULT_DENSE_GAIN_LIMIT);
        let params = SinrParams::default_noiseless();
        let net = random_instance(
            links,
            side,
            min_len,
            max_len,
            params,
            &mut split_stream(seed, 0),
        );
        let slots: Vec<Vec<Attempt>> = [1, 2, 3]
            .map(|step| {
                (0..links as u32)
                    .step_by(step)
                    .map(|l| Attempt {
                        link: LinkId(l),
                        packet: PacketId(l as u64),
                    })
                    .collect()
            })
            .into();
        for power in [
            PowerConfig::Uniform,
            PowerConfig::Linear,
            PowerConfig::SquareRoot,
        ] {
            let exact = match power {
                PowerConfig::Uniform => SinrFeasibility::new(&net, &UniformPower::unit()),
                PowerConfig::Linear => SinrFeasibility::new(&net, &LinearPower::new(params.alpha)),
                PowerConfig::SquareRoot => {
                    SinrFeasibility::new(&net, &SquareRootPower::new(params.alpha))
                }
            };
            let random = SubstrateConfig::SinrRandom {
                links,
                side,
                min_len,
                max_len,
                power,
                seed,
            };
            let tiled = SubstrateConfig::SinrTiled {
                links,
                side,
                min_len,
                max_len,
                power,
                seed,
                grid: 4,
                epsilon: 0.0,
                panel_budget: 1 << 16,
                levels: 2,
                panel_cache: dps_sinr::tiles::PanelCacheMode::Fixed,
                threads: 1,
            };
            for config in [random, tiled] {
                let substrate = config.build().unwrap();
                let cache = substrate.sinr_cache.as_ref().expect("a SINR substrate");
                match &substrate.sinr_tiles {
                    Some(tiles) => {
                        assert!(Arc::ptr_eq(cache, tiles.shared_cache()));
                        assert!(!cache.is_dense(), "{config:?}");
                    }
                    None => {
                        // The substrate's handle and the oracle's.
                        assert_eq!(Arc::strong_count(cache), 2, "{config:?}");
                        assert!(cache.is_dense(), "{config:?}");
                    }
                }
                for link in (0..links as u32).map(LinkId) {
                    let (got, want) = (cache.tx_power(link), exact.cache().tx_power(link));
                    assert_eq!(got.to_bits(), want.to_bits(), "{config:?}, {link}");
                }
                for attempts in &slots {
                    let rng = split_stream(5, 0);
                    let want = exact.successes(attempts, &mut rng.clone());
                    assert!(want.contains(&true), "{config:?}");
                    assert_eq!(
                        substrate.feasibility.successes(attempts, &mut rng.clone()),
                        want,
                        "{config:?}"
                    );
                }
                let all = exact.successes(&slots[0], &mut split_stream(5, 0));
                assert!(all.contains(&false), "{config:?}");
            }
        }
    }

    #[test]
    fn seeded_geometry_is_reproducible() {
        let config = SubstrateConfig::SinrRandom {
            links: 8,
            side: 60.0,
            min_len: 1.0,
            max_len: 2.0,
            power: PowerConfig::Uniform,
            seed: 11,
        };
        let a = config.build().unwrap();
        let b = config.build().unwrap();
        // Same seed ⇒ same interference matrix.
        let mut load = dps_core::load::LinkLoad::new(8);
        for l in 0..8u32 {
            load.set(LinkId(l), (l + 1) as f64);
        }
        assert_eq!(a.model.measure(&load), b.model.measure(&load));
    }
}
