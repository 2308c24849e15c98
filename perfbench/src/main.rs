//! Runs one benchmark workload and prints its metrics.
//!
//! ```text
//! dps-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Untraced (`--trace 0`): times extra set-ups, then runs measured units
//! (set-up plus slot loop, busy `step` calls timed) until their slot
//! loops have used `--seconds` of thread CPU time (and at least the
//! workload's minimum count has run), and reports the end-to-end metrics. Traced (`--trace 1`): runs one untraced and one
//! traced unit and reports the per-layer metrics, with the tracing
//! overhead between the two; the spans are written to
//! `<target dir>/perfbench-traces/<workload>.tsv`.
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. A unit that errors,
//! panics, fails its output check or regime guard, or whose simulated
//! statistics differ from the run's first unit counts as failed.

use dps_perfbench::probe::{Recorder, SpanName};
use dps_perfbench::unit::{run_unit, set_up, UnitOutcome};
use dps_perfbench::workload::Workload;
use dps_scenario::Scenario;
use dps_sinr::tiles::TileDiagnostics;
use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: dps-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = args.next() {
            let value = args.next().ok_or(format!("{flag} needs a value"))?;
            let bad = || format!("bad value `{value}` for {flag}");
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::from_name(&value).ok_or(format!("unknown workload `{value}`"))?,
                    )
                }
                "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
                "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("bad value `{value}` for --trace")),
                    })
                }
                _ => return Err(format!("unknown flag `{flag}`")),
            }
        }
        let seconds = seconds.unwrap_or(10.0);
        if !(seconds > 0.0 && seconds.is_finite()) {
            return Err(format!("--seconds must be positive, got {seconds}"));
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.unwrap_or(1),
            seconds,
            trace: trace.unwrap_or(false),
        })
    }
}

/// A metric as printed: name, value, unit.
type Metric = (&'static str, f64, &'static str);

/// What one invocation reports.
struct RunResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = Scenario::from_spec(&args.workload.spec(args.seed))
        .map_err(|e| e.to_string())
        .and_then(|scenario| {
            if args.trace {
                traced_run(&args, &scenario)
            } else {
                untraced_run(&args, &scenario)
            }
        });
    match outcome {
        Ok(result) => {
            println!("{}", result_json(&result));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("dps-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs one unit and its regime guard, turning errors and panics into
/// `None` (reported on standard error).
fn attempt(workload: Workload, scenario: &Scenario, traced: bool) -> Option<UnitOutcome> {
    let run = || {
        let unit = run_unit(scenario, traced)?;
        workload.check_regime(&unit)?;
        Ok::<_, String>(unit)
    };
    match catch_unwind(AssertUnwindSafe(run)) {
        Ok(Ok(unit)) => Some(unit),
        Ok(Err(e)) => {
            eprintln!("dps-perfbench: {}: unit failed: {e}", workload.name());
            None
        }
        Err(_) => {
            eprintln!("dps-perfbench: {}: unit panicked", workload.name());
            None
        }
    }
}

fn untraced_run(args: &Args, scenario: &Scenario) -> Result<RunResult, String> {
    let workload = args.workload;
    let mut setup_s = Vec::new();
    for _ in 0..workload.extra_setups() {
        let setup = set_up(scenario, &RefCell::new(Recorder::untraced()))
            .map_err(|e| format!("set-up failed: {e}"))?;
        setup_s.push(setup.times.total_s());
    }
    // Units repeat until their slot loops have used `--seconds` of CPU
    // time and the workload's minimum count has run; a failed unit ends
    // the run. Each timing metric is the median of the units' values, so
    // one unit disturbed by the host cannot move it.
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut loop_s = 0.0f64;
    let (mut rates, mut p50s, mut p99s) = (Vec::new(), Vec::new(), Vec::new());
    let mut busy_steps = 0;
    let mut first: Option<(u64, Quality)> = None;
    while failed == 0 && (attempted < workload.min_units() || loop_s < args.seconds) {
        attempted += 1;
        let Some(unit) = attempt(workload, scenario, false) else {
            failed += 1;
            continue;
        };
        let reference = first.get_or_insert_with(|| (unit.fingerprint, Quality::of(&unit)));
        if reference.0 != unit.fingerprint {
            eprintln!(
                "dps-perfbench: {}: simulated statistics differ between units",
                workload.name()
            );
            failed += 1;
            continue;
        }
        let mut busy_ns = unit.recorder.busy_step_ns().to_vec();
        busy_ns.sort_unstable();
        busy_steps = busy_ns.len();
        setup_s.push(unit.setup.total_s());
        loop_s += unit.loop_s;
        rates.push(ratio(unit.report.slots as f64, unit.loop_s));
        p50s.push(percentile(&busy_ns, 0.50) as f64 * 1e-3);
        p99s.push(percentile(&busy_ns, 0.99) as f64 * 1e-3);
    }
    let peak_rss_mib = peak_rss_kib()? as f64 / 1024.0;
    let (fingerprint, quality) = first.unwrap_or((0, Quality::default()));
    println!(
        "# {} seed={} units={attempted} failed={failed} busy_steps_per_unit={busy_steps} \
         unit_p50_us={p50s:.1?} unit_p99_us={p99s:.1?} setup_samples={} \
         fingerprint={fingerprint:016x}",
        workload.name(),
        args.seed,
        setup_s.len(),
    );
    Ok(RunResult {
        correct: failed == 0,
        attempted,
        failed,
        metrics: vec![
            ("setup_s", median(&mut setup_s), "s"),
            ("slots_per_s", median(&mut rates), "1/s"),
            ("slot_p50_us", median(&mut p50s), "us"),
            ("slot_p99_us", median(&mut p99s), "us"),
            ("peak_rss_mib", peak_rss_mib, "MiB"),
            ("delivery_ratio", quality.delivery_ratio, "ratio"),
            ("latency_p50_slots", quality.latency_p50, "slots"),
            ("latency_p99_slots", quality.latency_p99, "slots"),
        ],
    })
}

fn traced_run(args: &Args, scenario: &Scenario) -> Result<RunResult, String> {
    let workload = args.workload;
    let base = attempt(workload, scenario, false);
    let traced = attempt(workload, scenario, true);
    let same = matches!((&base, &traced), (Some(b), Some(t))
        if b.fingerprint == t.fingerprint
            && b.report.idle_slots_skipped == t.report.idle_slots_skipped);
    if !same && base.is_some() && traced.is_some() {
        eprintln!(
            "dps-perfbench: {}: traced and untraced statistics differ",
            workload.name()
        );
    }
    let failed = u64::from(base.is_none()) + u64::from(traced.is_none() || !same);
    let overhead_pct = match (&base, &traced) {
        (Some(b), Some(t)) => (t.loop_s / b.loop_s - 1.0) * 100.0,
        _ => 0.0,
    };
    let metrics = match &traced {
        Some(unit) => {
            let path = write_spans(workload, &unit.recorder)?;
            println!(
                "# {} seed={} spans={} trace={} fingerprint={:016x}",
                workload.name(),
                args.seed,
                unit.recorder.spans().len(),
                path.display(),
                unit.fingerprint,
            );
            layer_metrics(unit, overhead_pct)
        }
        None => Vec::new(),
    };
    Ok(RunResult {
        correct: failed == 0,
        attempted: 2,
        failed,
        metrics,
    })
}

/// The per-layer metrics of a traced unit.
fn layer_metrics(unit: &UnitOutcome, overhead_pct: f64) -> Vec<Metric> {
    let rec = &unit.recorder;
    let c = &rec.counters;
    let inject_s = rec.self_s(SpanName::Inject);
    let protocol_s = rec.self_s(SpanName::Step);
    let tiles = unit.tiles.clone().unwrap_or(TileDiagnostics {
        slots: 0,
        level_tiles_per_side: Vec::new(),
        tiles_visited_per_level: Vec::new(),
        far_terms_per_level: Vec::new(),
        near_terms: 0,
        panel_hits: 0,
        panel_misses: 0,
        panel_evictions: 0,
        panel_resident_bytes: 0,
        panel_high_water_bytes: 0,
    });
    let level = |values: &[u64], k: usize| values.get(k).copied().unwrap_or(0) as f64;
    let far = &tiles.far_terms_per_level;
    let visited = &tiles.tiles_visited_per_level;
    let panel_lookups = (tiles.panel_hits + tiles.panel_misses) as f64;
    vec![
        ("scenario.substrate_build_s", unit.setup.substrate_s, "s"),
        ("scenario.protocol_build_s", unit.setup.protocol_s, "s"),
        ("scenario.injector_build_s", unit.setup.injector_s, "s"),
        ("sim.runner_self_s", rec.self_s(SpanName::Run), "s"),
        ("sim.hint_s", rec.total_s(SpanName::Hint), "s"),
        ("sim.slots_stepped", c.steps as f64, "count"),
        ("sim.slots_skipped", c.slots_skipped as f64, "count"),
        ("inject.self_s", inject_s, "s"),
        ("inject.packets", c.injected as f64, "count"),
        (
            "inject.ns_per_packet",
            ratio(inject_s * 1e9, c.injected as f64),
            "ns",
        ),
        ("protocol.self_s", protocol_s, "s"),
        ("protocol.attempts", c.attempts as f64, "count"),
        (
            "protocol.ns_per_attempt",
            ratio(protocol_s * 1e9, c.attempts as f64),
            "ns",
        ),
        ("phy.self_s", rec.self_s(SpanName::Phy), "s"),
        ("phy.calls", c.phy_calls as f64, "count"),
        ("phy.attempts", c.phy_attempts as f64, "count"),
        (
            "phy.success_ratio",
            ratio(c.phy_successes as f64, c.phy_attempts as f64),
            "ratio",
        ),
        ("tiles.panel_hits", tiles.panel_hits as f64, "count"),
        ("tiles.panel_misses", tiles.panel_misses as f64, "count"),
        (
            "tiles.panel_evictions",
            tiles.panel_evictions as f64,
            "count",
        ),
        (
            "tiles.panel_hit_ratio",
            ratio(tiles.panel_hits as f64, panel_lookups),
            "ratio",
        ),
        ("tiles.near_terms", tiles.near_terms as f64, "count"),
        ("tiles.far_terms.l0", level(far, 0), "count"),
        ("tiles.far_terms.l1", level(far, 1), "count"),
        ("tiles.far_terms.l2", level(far, 2), "count"),
        ("tiles.tiles_visited.l0", level(visited, 0), "count"),
        ("tiles.tiles_visited.l1", level(visited, 1), "count"),
        ("tiles.tiles_visited.l2", level(visited, 2), "count"),
        (
            "tiles.panel_high_water_mib",
            tiles.panel_high_water_bytes as f64 / (1 << 20) as f64,
            "MiB",
        ),
        ("trace.overhead_pct", overhead_pct, "%"),
    ]
}

/// The paper's modelled quantities of a unit: exact for a fixed seed.
#[derive(Clone, Copy, Default)]
struct Quality {
    delivery_ratio: f64,
    latency_p50: f64,
    latency_p99: f64,
}

impl Quality {
    fn of(unit: &UnitOutcome) -> Quality {
        let mut latencies = unit.report.latencies.clone();
        latencies.sort_unstable();
        Quality {
            delivery_ratio: unit.report.delivery_ratio(),
            latency_p50: percentile(&latencies, 0.50) as f64,
            latency_p99: percentile(&latencies, 0.99) as f64,
        }
    }
}

/// Nearest-rank `q`-quantile of an ascending sample (0 when empty).
fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

/// This process's peak resident set (`VmHWM`), in KiB.
fn peak_rss_kib() -> Result<u64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// Writes a traced unit's spans under the cargo target directory.
fn write_spans(workload: Workload, rec: &Recorder) -> Result<PathBuf, String> {
    let dir = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("perfbench/target"), PathBuf::from)
        .join("perfbench-traces");
    let path = dir.join(format!("{}.tsv", workload.name()));
    std::fs::create_dir_all(&dir)
        .and_then(|()| rec.write_spans(std::fs::File::create(&path)?))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok(path)
}

fn result_json(result: &RunResult) -> String {
    let metrics: Vec<String> = result
        .metrics
        .iter()
        .map(|&(name, value, unit)| {
            let value = if value.is_finite() { value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        result.correct,
        result.attempted,
        result.failed,
        metrics.join(", ")
    )
}
