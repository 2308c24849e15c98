//! CLI running declarative scenarios: registry presets or spec files.
//!
//! ```text
//! scenario list
//! scenario show <preset> [--json]
//! scenario run <preset|spec.toml|spec.json> [options]
//! scenario sweep <preset|spec.toml|spec.json> --lambdas 0.5,0.9,1.3 [options]
//! scenario check <preset|spec.toml|spec.json>
//!
//! options:
//!   --lambda X        override the injection rate
//!   --frames N        override the run horizon (frames)
//!   --seed N          override the root seed
//!   --reps N          repetitions (independent RNG streams)
//!   --threads N       OS threads for repetitions/sweeps
//!   --sizes a,b,c     (sweep) substrate sizes to sweep
//!   --lambdas a,b,c   (sweep) injection rates to sweep
//!   --csv PATH        write the result table as CSV
//!   --json            print machine-readable JSON instead of tables
//! ```

use dps_scenario::{registry, ProtocolConfig, Scenario, ScenarioOutcome, ScenarioSpec, Sweep};
use dps_sim::table::{fmt3, Table};
use std::path::Path;
use std::process::exit;

struct Options {
    lambda: Option<f64>,
    frames: Option<u64>,
    seed: Option<u64>,
    reps: u64,
    threads: usize,
    lambdas: Vec<f64>,
    sizes: Vec<usize>,
    csv: Option<String>,
    json: bool,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match args.split_first() {
        Some((c, rest)) => (c.as_str(), rest),
        None => usage(""),
    };
    match command {
        "list" => list(),
        "show" => show(rest),
        "run" => run(rest),
        "sweep" => sweep(rest),
        "check" => check(rest),
        "--help" | "-h" | "help" => usage(""),
        other => usage(&format!("unknown command `{other}`")),
    }
}

fn list() {
    println!("{:22}  {:34}  summary", "preset", "paper");
    for preset in registry::presets() {
        println!(
            "{:22}  {:34}  {}",
            preset.name, preset.paper, preset.summary
        );
    }
}

fn show(rest: &[String]) {
    let (spec, options) = load_spec(rest);
    if options.json {
        println!("{}", spec.to_json());
    } else {
        print!("{}", spec.to_toml());
    }
}

fn run(rest: &[String]) {
    let (spec, options) = load_spec(rest);
    let scenario = Scenario::from_spec(&spec).unwrap_or_else(|e| fail(&e.to_string()));
    // Hold the substrate here so per-substrate diagnostics survive the
    // runs and can be reported.
    let substrate = scenario
        .build_substrate()
        .unwrap_or_else(|e| fail(&e.to_string()));
    let outcomes = scenario
        .run_repetitions_on(&substrate, options.reps, options.threads)
        .unwrap_or_else(|e| fail(&e.to_string()));
    let table = outcome_table(&spec.name, &outcomes);
    if options.json {
        let serde::Value::Map(mut fields) = table.to_value() else {
            unreachable!("Table::to_value always yields a map")
        };
        if let Some(tiles) = &substrate.sinr_tiles {
            fields.push((
                "tile_diagnostics".to_string(),
                tile_diagnostics_value(tiles),
            ));
        }
        println!(
            "{}",
            serde::json::to_string_pretty(&serde::Value::Map(fields))
        );
    } else {
        println!(
            "# {} — {} | {} | {}",
            spec.name,
            scenario.substrate.label(),
            scenario.protocol.label(),
            scenario.injector.label()
        );
        print!("{}", table.render());
    }
    if let Some(path) = &options.csv {
        std::fs::write(path, table.to_csv()).unwrap_or_else(|e| fail(&e.to_string()));
    }
}

fn sweep(rest: &[String]) {
    let (spec, options) = load_spec(rest);
    let mut sweep = Sweep::new(spec)
        .repetitions(options.reps)
        .threads(options.threads);
    if !options.lambdas.is_empty() {
        sweep = sweep.over_lambdas(&options.lambdas);
    }
    if !options.sizes.is_empty() {
        sweep = sweep.over_sizes(&options.sizes);
    }
    let report = sweep.run().unwrap_or_else(|e| fail(&e.to_string()));
    if options.json {
        println!("{}", report.to_json());
    } else {
        print!("{}", report.to_table().render());
    }
    if let Some(path) = &options.csv {
        std::fs::write(path, report.to_csv()).unwrap_or_else(|e| fail(&e.to_string()));
    }
}

/// Exhaustively model-checks the frame-protocol invariants backing the
/// named scenario. The scenario's own frame geometry is far beyond
/// exhaustive exploration, so the checker runs `dps-model`'s tiny
/// instances — same protocol logic, every interleaving — and this
/// command's job is to tie that guarantee to the scenario the user is
/// about to trust.
fn check(rest: &[String]) {
    let (spec, _options) = load_spec(rest);
    match spec.protocol {
        ProtocolConfig::FrameGreedy
        | ProtocolConfig::FrameTwoStage
        | ProtocolConfig::FrameUniformTransformed { .. }
        | ProtocolConfig::FrameMacSymmetric { .. }
        | ProtocolConfig::FrameMacRoundRobin
        | ProtocolConfig::ConflictColoring => {}
        ProtocolConfig::Sis => fail(&format!(
            "`{}` runs the SIS baseline; only the frame protocols have an exhaustive model",
            spec.name
        )),
    }
    println!(
        "# {} — frame-protocol invariants, exhaustively checked on tiny instances",
        spec.name
    );
    println!("# (the scenario's real geometry is too large to exhaust; every injection,");
    println!("#  success and clean-up interleaving of these instances is explored)");
    let config = dps_model::CheckConfig::default();
    let mut ok = true;
    for model in dps_model::presets() {
        match dps_model::check_model(&model, &config) {
            Ok(report) => println!(
                "{:<20} ok: {} states, {} transitions{}",
                model.name(),
                report.distinct_states,
                report.transitions,
                if report.truncated {
                    " (truncated)"
                } else {
                    " (exhausted)"
                }
            ),
            Err(ce) => {
                eprintln!("{:<20} FAILED: {ce}", model.name());
                ok = false;
            }
        }
    }
    if !ok {
        exit(1);
    }
}

/// The tiled substrate's far-walk and panel-cache counters, and its
/// geometry cache's cube fallbacks, as a JSON map spliced next to the
/// outcome table under `tile_diagnostics`.
fn tile_diagnostics_value(tiles: &dps_sinr::tiles::TiledSinrCache) -> serde::Value {
    let diag = tiles.diagnostics();
    let seq_u64 =
        |values: &[u64]| serde::Value::Seq(values.iter().map(|&v| serde::Value::U64(v)).collect());
    serde::Value::Map(vec![
        ("slots".to_string(), serde::Value::U64(diag.slots)),
        (
            "level_tiles_per_side".to_string(),
            serde::Value::Seq(
                diag.level_tiles_per_side
                    .iter()
                    .map(|&g| serde::Value::U64(g as u64))
                    .collect(),
            ),
        ),
        (
            "tiles_visited_per_level".to_string(),
            seq_u64(&diag.tiles_visited_per_level),
        ),
        (
            "far_terms_per_level".to_string(),
            seq_u64(&diag.far_terms_per_level),
        ),
        ("near_terms".to_string(), serde::Value::U64(diag.near_terms)),
        ("panel_hits".to_string(), serde::Value::U64(diag.panel_hits)),
        (
            "panel_misses".to_string(),
            serde::Value::U64(diag.panel_misses),
        ),
        (
            "panel_evictions".to_string(),
            serde::Value::U64(diag.panel_evictions),
        ),
        (
            "panel_resident_bytes".to_string(),
            serde::Value::U64(diag.panel_resident_bytes as u64),
        ),
        (
            "panel_high_water_bytes".to_string(),
            serde::Value::U64(diag.panel_high_water_bytes as u64),
        ),
        (
            "panel_cells_filled".to_string(),
            serde::Value::U64(tiles.panel_cells_filled()),
        ),
        (
            "cube_fallbacks".to_string(),
            serde::Value::U64(tiles.cache().cube_fallbacks()),
        ),
    ])
}

fn outcome_table(name: &str, outcomes: &[ScenarioOutcome]) -> Table {
    let mut table = Table::new(
        format!("scenario: {name}"),
        &[
            "rep",
            "lambda",
            "lambda_max",
            "frame T",
            "slots",
            "verdict",
            "injected",
            "delivered",
            "final backlog",
            "mean latency",
        ],
    );
    for o in outcomes {
        table.push_row(vec![
            o.stream.to_string(),
            fmt3(o.lambda),
            fmt3(o.lambda_max),
            o.frame_len.to_string(),
            o.slots.to_string(),
            o.verdict_cell(),
            o.report.injected.to_string(),
            o.report.delivered.to_string(),
            o.report.final_backlog.to_string(),
            fmt3(o.report.latency_summary().mean),
        ]);
    }
    table
}

/// Loads the spec named by the first positional argument — a registry
/// preset, or a path to a `.toml`/`.json` file — and applies overrides.
fn load_spec(rest: &[String]) -> (ScenarioSpec, Options) {
    let (target, rest) = match rest.split_first() {
        Some((t, rest)) if !t.starts_with('-') => (t.clone(), rest),
        _ => usage("expected a preset name or spec file"),
    };
    let options = parse_options(rest);
    let mut spec = if Path::new(&target).exists() {
        let text = std::fs::read_to_string(&target)
            .unwrap_or_else(|e| fail(&format!("reading {target}: {e}")));
        let parsed = if target.ends_with(".json") {
            ScenarioSpec::from_json(&text)
        } else {
            ScenarioSpec::from_toml(&text)
        };
        parsed.unwrap_or_else(|e| fail(&format!("{target}: {e}")))
    } else {
        registry::spec_for(&target).unwrap_or_else(|e| fail(&e.to_string()))
    };
    if let Some(lambda) = options.lambda {
        spec.injection.lambda = lambda;
    }
    if let Some(frames) = options.frames {
        spec.run.frames = frames;
    }
    if let Some(seed) = options.seed {
        spec.run.seed = seed;
    }
    (spec, options)
}

fn parse_options(rest: &[String]) -> Options {
    let mut options = Options {
        lambda: None,
        frames: None,
        seed: None,
        reps: 1,
        threads: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        lambdas: Vec::new(),
        sizes: Vec::new(),
        csv: None,
        json: false,
    };
    let mut args = rest.iter();
    while let Some(arg) = args.next() {
        let mut value = |what: &str| -> String {
            args.next()
                .unwrap_or_else(|| usage(&format!("{what} needs a value")))
                .clone()
        };
        match arg.as_str() {
            "--lambda" => options.lambda = Some(parse(&value("--lambda"), "--lambda")),
            "--frames" => options.frames = Some(parse(&value("--frames"), "--frames")),
            "--seed" => options.seed = Some(parse(&value("--seed"), "--seed")),
            "--reps" => options.reps = parse(&value("--reps"), "--reps"),
            "--threads" => options.threads = parse(&value("--threads"), "--threads"),
            "--lambdas" => options.lambdas = parse_list(&value("--lambdas"), "--lambdas"),
            "--sizes" => options.sizes = parse_list(&value("--sizes"), "--sizes"),
            "--csv" => options.csv = Some(value("--csv")),
            "--json" => options.json = true,
            other => usage(&format!("unknown option `{other}`")),
        }
    }
    options
}

fn parse<T: std::str::FromStr>(text: &str, what: &str) -> T {
    text.parse()
        .unwrap_or_else(|_| usage(&format!("{what}: invalid value `{text}`")))
}

fn parse_list<T: std::str::FromStr>(text: &str, what: &str) -> Vec<T> {
    text.split(',')
        .filter(|s| !s.is_empty())
        .map(|s| parse(s.trim(), what))
        .collect()
}

fn fail(message: &str) -> ! {
    eprintln!("error: {message}");
    exit(1);
}

fn usage(message: &str) -> ! {
    if !message.is_empty() {
        eprintln!("error: {message}");
    }
    eprintln!(
        "usage: scenario list\n\
        \x20      scenario show <preset> [--json]\n\
        \x20      scenario run <preset|spec.toml|spec.json> [--lambda X] [--frames N] \
         [--seed N] [--reps N] [--threads N] [--csv PATH] [--json]\n\
        \x20      scenario sweep <preset|spec.toml|spec.json> [--lambdas a,b,c] \
         [--sizes a,b,c] [--reps N] [--threads N] [--csv PATH] [--json]\n\
        \x20      scenario check <preset|spec.toml|spec.json>"
    );
    exit(if message.is_empty() { 0 } else { 2 });
}
