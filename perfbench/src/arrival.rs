//! `arrival-chaos`: the benchmark's scenario file replayed through
//! `arrival::run_plane` with the default incremental-repair plane. One op
//! is one `run_plane` call (the scenario's two replications) under a
//! fresh seed. After the timed ops, the same timeline with one extra
//! `delete-tag` event on an image the app pulls is replayed a fixed
//! number of times; it panics today (a known defect, reported on its own
//! line and kept out of the op count — see perfbench/README.md).

use crate::paper::physical;
use crate::speed::HostSpeed;
use crate::stats::{self, mix, Digest};
use crate::trace::{self, span};
use crate::{layers, median_setup, Params, Report};
use deep::arrival::DEFAULT_DEVIATION_BUDGET;
use deep::arrival::{run_plane, sample_arrivals, ArrivalOutcome, ArrivalPlane};
use deep::core::{scenario_scheduler, scenario_testbed, Scheduler};
use deep::scenario::{Event, Scenario};
use deep::simulator::execute_with_events;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::Instant;

/// Successful ops whose jobs make up `energy_j`, `td_s` and the digest.
const QUALITY_OPS: usize = 8;
/// Delete-tag replays per run, after the timed ops.
const DELETE_TAG_REPLAYS: u64 = 2;
/// The delete-tag event of those replays: the transcode image Table III
/// pulls from the regional registry, deleted after the first few jobs.
const DELETE_TAG_AT: f64 = 1000.0;
const DELETE_TAG_REPOSITORY: &str = "aau/vp-transcode";
const DELETE_TAG_TAG: &str = "amd64";

pub fn scenario_path() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/scenarios/arrival_chaos.toml"))
}

/// Output checks of one plane run: every arrival admitted and executed,
/// jobs complete FIFO within a replication, admission never precedes
/// arrival, and every deployment is physical.
fn check(outcome: &ArrivalOutcome, expected_jobs: usize, report: &mut Report) {
    let checks = &mut report.checks;
    checks.record("every arrival is admitted and executed", outcome.jobs.len() == expected_jobs);
    let fifo = outcome
        .jobs
        .windows(2)
        .all(|w| w[0].replication != w[1].replication || w[0].completed <= w[1].started + 1e-9);
    checks.record("jobs complete FIFO", fifo);
    checks
        .record("admitted >= arrived", outcome.jobs.iter().all(|j| j.admitted >= j.arrived - 1e-9));
    checks
        .record("finite positive Td and energy", outcome.jobs.iter().all(|j| physical(&j.report)));
}

pub fn run(p: Params) -> Report {
    let mut report = Report::default();
    let mut speed = HostSpeed::new();
    let (setup_s, (base, delete_tag)) =
        median_setup(&mut speed, if p.smoke { 3 } else { 201 }, || {
            let mut cells = span("scenario.load", || {
                Scenario::load(scenario_path())
                    .expect("the benchmark's scenario file parses")
                    .expand()
            });
            assert_eq!(cells.len(), 1, "the arrival-chaos scenario has no sweep axes");
            let mut base = cells.remove(0);
            if p.smoke {
                base.arrivals[0].count = 12;
            }
            span("testbed.build", || scenario_testbed(&base));
            let mut delete_tag = base.clone();
            delete_tag.events.push(Event::DeleteTag {
                at: DELETE_TAG_AT,
                repository: DELETE_TAG_REPOSITORY.to_string(),
                tag: DELETE_TAG_TAG.to_string(),
            });
            (base, delete_tag)
        });
    report.set("setup_s", setup_s);

    let plane = ArrivalPlane::default();
    let reps = base.replications as f64;
    let (mut admit_ms, mut full_s, mut repair_s, mut deploy_ms) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut jobs, mut wall) = (0usize, 0.0f64);
    let (mut energy, mut td) = (Vec::new(), Vec::new());
    let mut quality_ops = 0usize;
    let mut digest = Digest::default();
    let min_ops = if p.smoke { 3 } else { 2 * QUALITY_OPS as u64 };
    let start = Instant::now();
    let mut op = 0u64;
    while op < min_ops || start.elapsed().as_secs_f64() < p.seconds {
        let scenario = Scenario { seed: mix(p.seed, op) >> 16, ..base.clone() };
        let expected_jobs = sample_arrivals(&scenario).len() * scenario.replications as usize;
        let (elapsed, outcome) = speed.time(|| {
            catch_unwind(AssertUnwindSafe(|| {
                trace::op(op, || span("arrival.run_plane", || run_plane(&scenario, &plane)))
            }))
        });
        // Admission latencies are measured inside the plane; they scale
        // with the host speed measured around the whole op.
        let k = speed.last_factor();
        op += 1;
        let Ok(outcome) = outcome else {
            report.finish_op(true);
            continue;
        };
        check(&outcome, expected_jobs, &mut report);
        report.finish_op(false);

        let n = outcome.jobs.len();
        jobs += n;
        wall += elapsed;
        deploy_ms.push(elapsed * 1e3 / n.max(1) as f64);
        let mut full = 0usize;
        for job in &outcome.jobs {
            let micros = job.repair.micros as f64 * k;
            admit_ms.push(micros / 1e3);
            if job.repair.full_solve {
                full += 1;
                full_s.push(micros / 1e6);
            } else {
                repair_s.push(micros / 1e6);
            }
            report.counts.push_report(&job.report);
        }
        report.counts.push("arrival.replication_ms", elapsed * 1e3 / reps);
        report.counts.push("arrival.full_solves", full as f64 / reps);
        report.counts.push("arrival.repair_share", (n - full) as f64 / n.max(1) as f64);
        report.counts.push("arrival.deviations", outcome.total_deviations() as f64 / reps);
        if quality_ops < QUALITY_OPS {
            quality_ops += 1;
            for job in &outcome.jobs {
                energy.extend(job.report.microservices.iter().map(|m| m.energy.as_f64()));
                td.extend(job.report.microservices.iter().map(|m| m.td.as_f64()));
                digest.add_schedule(&job.schedule);
            }
        }
    }

    if trace::enabled() {
        probe(&base, p.seed, &mut report);
    }
    delete_tag_replays(&delete_tag, &plane, p.seed, &mut report);

    report.set("deploy_ms.p50", stats::percentile(&deploy_ms, 50.0));
    report.set("deploy_ms.p90", stats::percentile(&deploy_ms, 90.0));
    report.set("solve_s.p50", stats::percentile(&full_s, 50.0));
    report.set("repair_s.p50", stats::percentile(&repair_s, 50.0));
    report.set("admit_ms.p50", stats::percentile(&admit_ms, 50.0));
    report.set("admit_ms.p90", stats::percentile(&admit_ms, 90.0));
    report.set("jobs_per_s", jobs as f64 / wall);
    report.set("energy_j", stats::mean(&energy));
    report.set("td_s", stats::mean(&td));
    report.slowdown = speed.median_slowdown();
    report.digest = digest.hex();
    report
}

/// Replay the delete-tag timeline `DELETE_TAG_REPLAYS` times, untimed and
/// outside the op count, and note how many replays panicked.
fn delete_tag_replays(delete_tag: &Scenario, plane: &ArrivalPlane, seed: u64, report: &mut Report) {
    let panicked = (0..DELETE_TAG_REPLAYS)
        .filter(|&i| {
            let scenario =
                Scenario { seed: mix(seed, u64::MAX - 1 - i) >> 16, ..delete_tag.clone() };
            catch_unwind(AssertUnwindSafe(|| run_plane(&scenario, plane))).is_err()
        })
        .count();
    report.notes.push(format!(
        "known_defect delete-tag: {panicked} of {DELETE_TAG_REPLAYS} replays panicked"
    ));
}

/// The layers `run_plane` drives internally, probed on the scenario's
/// own testbed, app and scheduler at the start of the timeline.
fn probe(base: &Scenario, seed: u64, report: &mut Report) {
    let scenario = Scenario { seed: mix(seed, u64::MAX) >> 16, ..base.clone() };
    let tb = span("testbed.build", || scenario_testbed(&scenario));
    let app = scenario.application();
    let sched = scenario_scheduler(&scenario);
    let schedule = span("nash.schedule", || sched.schedule(&app, &tb));
    layers::solver(&app, &tb, &sched, &schedule, &mut report.counts);
    let eq = span("nash.certify", || sched.is_equilibrium(&app, &tb, &schedule));
    report.checks.record("scenario schedule is a pure Nash equilibrium", eq);
    let repaired = span("nash.repair", || {
        sched.incremental_repair(&app, &tb, &schedule, DEFAULT_DEVIATION_BUDGET)
    });
    report.counts.push("nash.repair_deviations", repaired.deviations as f64);
    let noop = repaired.deviations == 0 && !repaired.fell_back;
    report.counts.push("nash.repair_noop_share", if noop { 1.0 } else { 0.0 });
    layers::registry(&app, &tb, &mut report.checks);

    let cfg = scenario.executor_config(0);
    let events = scenario.chaos_events();
    let mut run_tb = span("testbed.replica", || tb.replica());
    let run = span("executor.execute", || {
        execute_with_events(&mut run_tb, &app, &schedule, &cfg, &events)
    });
    report.checks.record("probe deployment executes", run.is_ok_and(|(r, _)| physical(&r)));
    let mut cold = tb.replica();
    layers::executor_waves(
        &app,
        &mut cold,
        &schedule,
        &cfg,
        &mut report.counts,
        &mut report.checks,
    );
    if let Some(g) = &scenario.gossip {
        let (fanout, view, rounds) =
            (g.fanout as u32, g.view_size as u32, g.rounds_per_wave as u32);
        layers::gossip(&run_tb, fanout, view, rounds, cfg.seed);
    }
}
