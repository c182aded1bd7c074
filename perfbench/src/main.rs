//! The DEEP benchmark: one closed-loop client drives one workload of
//! the workspace for a fixed time, checks every op's outputs, and prints
//! the end-to-end metrics (untraced run) or the per-layer metrics (traced
//! run). The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper-testbed --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--smoke` runs the workload at a tiny size in about a second. See
//! `perfbench/README.md` for the workloads, metrics and layer map.

mod arrival;
mod fleet;
mod layers;
mod paper;
mod speed;
mod stats;
mod trace;

use std::collections::BTreeMap;

/// End-to-end metrics: printed by every untraced run, in this order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("deploy_ms.p50", "ms"),
    ("deploy_ms.p90", "ms"),
    ("solve_s.p50", "s"),
    ("repair_s.p50", "s"),
    ("admit_ms.p50", "ms"),
    ("admit_ms.p90", "ms"),
    ("jobs_per_s", "1/s"),
    ("energy_j", "J"),
    ("td_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// How a per-layer metric is read off the traced run.
enum Source {
    /// Median self time of the spans with this name (0 when the layer
    /// does not run on the workload).
    Span(&'static str),
    /// Mean of the count samples the workload recorded (0 when none).
    Count,
}

/// Per-layer metrics: printed by every traced run, in this order.
const PER_LAYER: &[(&str, &str, Source)] = &[
    ("scenario.load_ms", "ms", Source::Span("scenario.load")),
    ("testbed.build_ms", "ms", Source::Span("testbed.build")),
    ("testbed.publish_ms", "ms", Source::Span("testbed.publish")),
    ("testbed.replica_ms", "ms", Source::Span("testbed.replica")),
    ("nash.schedule_ms", "ms", Source::Span("nash.schedule")),
    ("nash.sequential_ms", "ms", Source::Span("nash.sequential")),
    ("nash.certify_ms", "ms", Source::Span("nash.certify")),
    ("nash.wave_games_ms", "ms", Source::Span("nash.wave_games")),
    ("nash.repair_ms", "ms", Source::Span("nash.repair")),
    ("nash.repair_deviations", "count", Source::Count),
    ("nash.repair_noop_share", "ratio", Source::Count),
    ("model.estimate_us", "us", Source::Span("model.estimate")),
    ("model.estimates", "count", Source::Count),
    ("model.walk_ms", "ms", Source::Span("model.walk")),
    ("game.support_enum_us", "us", Source::Span("game.support_enum")),
    ("game.descent_us", "us", Source::Span("game.descent")),
    ("executor.execute_ms", "ms", Source::Span("executor.execute")),
    ("executor.wave_ms", "ms", Source::Span("executor.wave")),
    ("executor.waves", "count", Source::Count),
    ("gossip.barrier_converging_us", "us", Source::Span("gossip.barrier_converging")),
    ("gossip.barrier_steady_us", "us", Source::Span("gossip.barrier_steady")),
    ("gossip.mesh_view_us", "us", Source::Span("gossip.mesh_view")),
    ("registry.resolve_hub_us", "us", Source::Span("registry.resolve_hub")),
    ("registry.resolve_regional_us", "us", Source::Span("registry.resolve_regional")),
    ("registry.pull_ms", "ms", Source::Span("registry.pull")),
    ("registry.failovers", "count", Source::Count),
    ("registry.attempts", "count", Source::Count),
    ("registry.peer_mb_share", "ratio", Source::Count),
    ("objectstore.get_us", "us", Source::Span("objectstore.get")),
    ("objectstore.put_us", "us", Source::Span("objectstore.put")),
    ("arrival.replication_ms", "ms", Source::Count),
    ("arrival.full_solves", "count", Source::Count),
    ("arrival.repair_share", "ratio", Source::Count),
    ("arrival.deviations", "count", Source::Count),
    ("op.self_ms", "ms", Source::Span("op")),
    ("trace.span_ns", "ns", Source::Count),
    ("trace.spans_per_op", "count", Source::Count),
    ("trace.overhead_pct", "%", Source::Count),
    ("trace.deploy_ms.p50", "ms", Source::Count),
];

pub const WORKLOADS: &[&str] = &["paper-testbed", "fleet-800", "arrival-chaos"];

/// Run parameters from the command line.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    pub seed: u64,
    pub seconds: f64,
    pub smoke: bool,
}

/// Output checks, counted per check name.
#[derive(Default)]
pub struct Checks {
    counts: BTreeMap<&'static str, (u64, u64)>,
    /// Set by `record` on a failure; cleared by `take_op_failure`.
    op_failed: bool,
}

impl Checks {
    pub fn record(&mut self, name: &'static str, ok: bool) {
        let entry = self.counts.entry(name).or_default();
        if ok {
            entry.0 += 1;
        } else {
            entry.1 += 1;
            self.op_failed = true;
        }
    }

    /// Did any check fail since the last call?
    pub fn take_op_failure(&mut self) -> bool {
        std::mem::take(&mut self.op_failed)
    }

    pub fn all_passed(&self) -> bool {
        self.counts.values().all(|(_, bad)| *bad == 0)
    }

    pub fn print(&self) {
        for (name, (ok, bad)) in &self.counts {
            let verdict = if *bad == 0 { "ok" } else { "FAILED" };
            println!("check {verdict:6} {ok:>7}/{:<7} {name}", ok + bad);
        }
    }
}

/// What one workload run hands back to `main`.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub checks: Checks,
    pub metrics: BTreeMap<&'static str, f64>,
    pub counts: layers::Counts,
    /// Digest of the serialized schedules of the workload's first ops.
    pub digest: String,
    /// Free-form lines printed before the metrics.
    pub notes: Vec<String>,
    /// The run's median host slowdown (`speed::HostSpeed`).
    pub slowdown: f64,
}

impl Report {
    /// Close one op: it failed if it panicked or any check failed in it.
    pub fn finish_op(&mut self, panicked: bool) {
        self.attempted += 1;
        let check_failed = self.checks.take_op_failure();
        if panicked || check_failed {
            self.failed += 1;
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }
}

/// Run `f` a few times and return the median normalized wall time (s)
/// with the last result: set-up is reported as a median of several builds.
/// One untimed build runs first: the first touch of a fresh heap costs
/// page faults whose price follows the host's memory pressure, not the
/// program.
pub fn median_setup<T>(
    speed: &mut speed::HostSpeed,
    reps: usize,
    mut f: impl FnMut() -> T,
) -> (f64, T) {
    std::hint::black_box(f());
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        let (secs, out) = speed.time(&mut f);
        times.push(secs);
        last = Some(out);
    }
    (stats::median(&times), last.expect("at least one set-up"))
}

/// Silence the default panic printout (the arrival workload replays a
/// known defect that panics); count the panic messages by kind for the
/// run summary.
fn install_panic_hook() {
    std::panic::set_hook(Box::new(|info| {
        let location = info.location().map(|l| format!("{}:{}", l.file(), l.line()));
        let message = info
            .payload()
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| info.payload().downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        PANICS.with(|p| {
            p.borrow_mut()
                .entry(format!("{} at {}", message, location.unwrap_or_default()))
                .and_modify(|n| *n += 1)
                .or_insert(1u64);
        });
    }));
}

thread_local! {
    static PANICS: std::cell::RefCell<BTreeMap<String, u64>> =
        const { std::cell::RefCell::new(BTreeMap::new()) };
}

fn usage() -> ! {
    eprintln!(
        "usage: deep-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--smoke]",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> (String, Params, bool) {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut traced, mut smoke) =
        (None, None, None, false, false);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--smoke" => smoke = true,
            "--workload" => workload = args.next(),
            "--seed" => seed = args.next().and_then(|v| v.parse::<u64>().ok()),
            "--seconds" => seconds = args.next().and_then(|v| v.parse::<f64>().ok()),
            "--trace" => match args.next().as_deref() {
                Some("0") => traced = false,
                Some("1") => traced = true,
                _ => usage(),
            },
            _ => usage(),
        }
    }
    let workload = workload.filter(|w| WORKLOADS.contains(&w.as_str())).unwrap_or_else(|| usage());
    let seconds = seconds.filter(|s| s.is_finite() && *s >= 0.0).unwrap_or_else(|| usage());
    let seed = seed.unwrap_or_else(|| usage());
    // Smoke runs stop after their minimum op count.
    let seconds = if smoke { 0.0 } else { seconds };
    (workload, Params { seed, seconds, smoke }, traced)
}

fn main() {
    let (workload, params, traced) = parse_args();
    if !arrival::scenario_path().is_file() {
        eprintln!("missing scenario file {}", arrival::scenario_path().display());
        std::process::exit(1);
    }
    install_panic_hook();
    if traced {
        trace::enable();
    }
    println!(
        "workload {workload} seed {} seconds {} trace {} smoke {}",
        params.seed, params.seconds, traced as u8, params.smoke
    );
    let mut report = match workload.as_str() {
        "paper-testbed" => paper::run(params),
        "fleet-800" => fleet::run(params),
        "arrival-chaos" => arrival::run(params),
        _ => unreachable!("workload validated by parse_args"),
    };
    report.set("peak_rss_mb", stats::peak_rss_mb());

    for note in &report.notes {
        println!("{note}");
    }
    println!("host slowdown {:.3} (median probe / reference)", report.slowdown);
    report.checks.print();
    PANICS.with(|p| {
        for (message, n) in p.borrow().iter() {
            println!("panic x{n}: {message}");
        }
    });
    println!("schedule_digest {}", report.digest);
    println!(
        "ops attempted {} failed {} fail_share {:.4}",
        report.attempted,
        report.failed,
        report.failed as f64 / report.attempted.max(1) as f64
    );

    let mut printed: Vec<(&str, f64, &str)> = Vec::new();
    if traced {
        let (inside, ops) = trace::op_span_counts();
        let span_ns = trace::span_cost_ns();
        let spans_per_op = inside as f64 / ops.max(1) as f64;
        report.counts.push("trace.span_ns", span_ns);
        report.counts.push("trace.spans_per_op", spans_per_op);
        let op_ns = report.metrics["deploy_ms.p50"] * 1e6;
        report.counts.push("trace.overhead_pct", 100.0 * spans_per_op * span_ns / op_ns);
        report.counts.push("trace.deploy_ms.p50", report.metrics["deploy_ms.p50"]);
        let spans = trace::self_times_by_name();
        for (name, unit, source) in PER_LAYER {
            let value = match source {
                // Span times are raw; like the end-to-end times they are
                // scaled to the reference host speed, here by the run's
                // median slowdown.
                Source::Span(span) => spans.get(span).map_or(0.0, |t| {
                    let ns: Vec<f64> = t.iter().map(|&v| v as f64).collect();
                    let scale = if *unit == "us" { 1e3 } else { 1e6 };
                    stats::median(&ns) / scale / report.slowdown
                }),
                Source::Count => report.counts.mean(name).unwrap_or(0.0),
            };
            printed.push((name, value, unit));
        }
        let out = std::path::PathBuf::from(".bench_out")
            .join(format!("{workload}-seed{}.spans.jsonl", params.seed));
        match trace::write_jsonl(&out) {
            Ok(()) => println!("spans {} written to {}", trace::span_count(), out.display()),
            Err(e) => eprintln!("could not write spans to {}: {e}", out.display()),
        }
    } else {
        for (name, unit) in END_TO_END {
            let value = *report.metrics.get(name).expect("every workload sets every metric");
            printed.push((name, value, unit));
        }
    }

    let mut correct = report.checks.all_passed() && report.attempted > 0;
    let mut json = Vec::new();
    for (name, value, unit) in &printed {
        println!("metric {name:<30} {value:>16.6} {unit}");
        if !value.is_finite() {
            correct = false;
        }
        let value = if value.is_finite() { *value } else { 0.0 };
        json.push(format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"));
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted,
        report.failed,
        json.join(", ")
    );
}
