//! `paper-testbed`: the paper's calibrated two-device testbed running
//! both case studies. One op is one DEEP deployment request of one case
//! study (video and text alternate): `DeepScheduler::paper().schedule`,
//! then `execute` on a cold `Testbed::replica()` with ±2 % executor
//! jitter seeded per op, then the same app requested again on the
//! now-warm replica and re-equilibrated with `incremental_repair`.

use crate::speed::HostSpeed;
use crate::stats::{self, mix, Digest};
use crate::trace::{self, span};
use crate::{layers, median_setup, Params, Report};
use deep::arrival::DEFAULT_DEVIATION_BUDGET;
use deep::core::calibration::calibrated_testbed;
use deep::core::{DeepScheduler, ExclusiveRegistry, Scheduler};
use deep::dataflow::{apps, Application};
use deep::simulator::{
    execute, ExecutorConfig, RegistryChoice, RunReport, Schedule, DEVICE_MEDIUM, DEVICE_SMALL,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Ops whose simulated energy and Td make up `energy_j` and `td_s`.
const QUALITY_OPS: u64 = 64;

/// Table III of the paper, as `video_reproduces_table_iii` and
/// `text_reproduces_table_iii` in deep-core's nash.rs assert it.
fn reproduces_table_iii(app: &Application, schedule: &Schedule) -> bool {
    let placement =
        |name: &str| schedule.placement(app.by_name(name).expect("case-study microservice exists"));
    let at = |name: &str, registry, device| {
        let p = placement(name);
        p.registry == registry && p.device == device
    };
    match app.name() {
        "video-processing" => app.ids().all(|id| {
            let name = &app.microservice(id).name;
            if name == "transcode" {
                at(name, RegistryChoice::Regional, DEVICE_SMALL)
            } else {
                at(name, RegistryChoice::Hub, DEVICE_MEDIUM)
            }
        }),
        "text-processing" => {
            let (retrieve, decompress) = (placement("retrieve"), placement("decompress"));
            retrieve.device == DEVICE_MEDIUM
                && decompress.device == DEVICE_MEDIUM
                && retrieve.registry != decompress.registry
                && ["ha-train", "la-train", "ha-score", "la-score"]
                    .iter()
                    .all(|n| at(n, RegistryChoice::Regional, DEVICE_SMALL))
        }
        _ => false,
    }
}

/// Every microservice deployed with a finite, positive Td and energy.
pub fn physical(report: &RunReport) -> bool {
    report.microservices.iter().all(|m| {
        let (td, e) = (m.td.as_f64(), m.energy.as_f64());
        td.is_finite() && td > 0.0 && e.is_finite() && e > 0.0
    })
}

fn op_config(seed: u64, op: u64) -> ExecutorConfig {
    ExecutorConfig { seed: mix(seed, op), jitter: 0.02, ..Default::default() }
}

pub fn run(p: Params) -> Report {
    let mut report = Report::default();
    let case_studies = [apps::video_processing(), apps::text_processing()];
    let mut speed = HostSpeed::new();
    let (setup_s, tb) = median_setup(&mut speed, if p.smoke { 3 } else { 201 }, || {
        let mut tb = span("testbed.build", calibrated_testbed);
        for app in &case_studies {
            span("testbed.publish", || tb.publish_application(app));
        }
        tb
    });
    report.set("setup_s", setup_s);

    let sched = DeepScheduler::paper();
    let min_ops = if p.smoke { 8 } else { QUALITY_OPS };
    let mut deploy_ms: [Vec<f64>; 2] = Default::default();
    let mut solve_ms: [Vec<f64>; 2] = Default::default();
    let mut repair_ms: [Vec<f64>; 2] = Default::default();
    let (mut energy, mut td) = (Vec::new(), Vec::new());
    let mut first_schedule: [Option<Schedule>; 2] = Default::default();
    let mut digest = Digest::default();
    let start = Instant::now();
    let mut op = 0u64;
    while op < min_ops || start.elapsed().as_secs_f64() < p.seconds {
        let which = (op % 2) as usize;
        let app = &case_studies[which];
        let cfg = op_config(p.seed, op);
        speed.before_op();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            trace::op(op, || {
                let mut cold = span("testbed.replica", || tb.replica());
                let t0 = Instant::now();
                let schedule = span("nash.schedule", || sched.schedule(app, &tb));
                let t1 = Instant::now();
                let run = span("executor.execute", || execute(&mut cold, app, &schedule, &cfg));
                let t2 = Instant::now();
                let repaired = span("nash.repair", || {
                    sched.incremental_repair(app, &cold, &schedule, DEFAULT_DEVIATION_BUDGET)
                });
                let t3 = Instant::now();
                (schedule, run, repaired, [t0, t1, t2, t3])
            })
        }));
        let k = speed.after_op();
        let Ok((schedule, run, repaired, t)) = outcome else {
            report.finish_op(true);
            op += 1;
            continue;
        };
        let ms = |a: Instant, b: Instant| (b - a).as_secs_f64() * 1e3 * k;
        solve_ms[which].push(ms(t[0], t[1]));
        deploy_ms[which].push(ms(t[0], t[2]));
        repair_ms[which].push(ms(t[2], t[3]));

        let checks = &mut report.checks;
        checks.record("DEEP placements reproduce Table III", reproduces_table_iii(app, &schedule));
        checks.record("repair covers every microservice", repaired.schedule.len() == app.len());
        report.counts.push("nash.repair_deviations", repaired.deviations as f64);
        let noop = repaired.deviations == 0 && !repaired.fell_back;
        report.counts.push("nash.repair_noop_share", if noop { 1.0 } else { 0.0 });
        match run {
            Ok((run, _)) => {
                checks.record("finite positive Td and energy", physical(&run));
                report.counts.push_report(&run);
                if op < QUALITY_OPS.min(min_ops) {
                    energy.extend(run.microservices.iter().map(|m| m.energy.as_f64()));
                    td.extend(run.microservices.iter().map(|m| m.td.as_f64()));
                }
            }
            Err(_) => checks.record("deployment executes", false),
        }
        if first_schedule[which].is_none() {
            digest.add_schedule(&schedule);
            first_schedule[which] = Some(schedule);
        }
        report.finish_op(false);
        op += 1;
    }

    // The exclusive-registry baselines: the paper's reference points,
    // jitter-free, against which DEEP must not spend more energy.
    let cfg = ExecutorConfig::default();
    for app in &case_studies {
        let mut line = format!("reference {:<17}", app.name());
        let mut energies = Vec::new();
        let deep = DeepScheduler::paper();
        let (hub, regional) = (ExclusiveRegistry::hub(), ExclusiveRegistry::regional());
        let schedulers: [(&str, &dyn Scheduler); 3] =
            [("DEEP", &deep), ("hub-only", &hub), ("regional-only", &regional)];
        for (label, s) in schedulers {
            let schedule = s.schedule(app, &tb);
            let mut cold = tb.replica();
            match execute(&mut cold, app, &schedule, &cfg) {
                Ok((run, _)) => {
                    report.checks.record("baseline deployments execute", physical(&run));
                    energies.push(run.total_energy().as_f64());
                    let td_sum: f64 = run.microservices.iter().map(|m| m.td.as_f64()).sum();
                    line += &format!(
                        "  {label} E={:.1} J Td={:.1} s",
                        run.total_energy().as_f64(),
                        td_sum
                    );
                }
                Err(_) => report.checks.record("baseline deployments execute", false),
            }
        }
        report.checks.record(
            "DEEP energy <= exclusive Hub and regional",
            energies.len() == 3 && energies[0] <= energies[1].min(energies[2]),
        );
        report.notes.push(line);
    }

    if trace::enabled() {
        for (which, app) in case_studies.iter().enumerate() {
            let Some(schedule) = &first_schedule[which] else { continue };
            layers::solver(app, &tb, &sched, schedule, &mut report.counts);
            let eq = span("nash.certify", || sched.is_equilibrium(app, &tb, schedule));
            report.checks.record("DEEP schedule is a pure Nash equilibrium", eq);
            layers::registry(app, &tb, &mut report.checks);
            let mut cold = tb.replica();
            let cfg = op_config(p.seed, u64::MAX);
            layers::executor_waves(
                app,
                &mut cold,
                schedule,
                &cfg,
                &mut report.counts,
                &mut report.checks,
            );
        }
    }

    let per_app = |samples: &[Vec<f64>; 2], f: &dyn Fn(&[f64]) -> f64| {
        (f(&samples[0]) + f(&samples[1])) / 2.0
    };
    let p50 = |s: &[f64]| stats::percentile(s, 50.0);
    report.set("deploy_ms.p50", per_app(&deploy_ms, &p50));
    report.set("deploy_ms.p90", per_app(&deploy_ms, &|s| stats::percentile(s, 90.0)));
    report.set("solve_s.p50", per_app(&solve_ms, &p50) / 1e3);
    report.set("repair_s.p50", per_app(&repair_ms, &p50) / 1e3);
    report.set("admit_ms.p50", per_app(&solve_ms, &p50));
    report.set("admit_ms.p90", per_app(&solve_ms, &|s| stats::percentile(s, 90.0)));
    let deployed: f64 = deploy_ms.iter().flatten().sum::<f64>() / 1e3;
    report.set("jobs_per_s", deploy_ms.iter().map(Vec::len).sum::<usize>() as f64 / deployed);
    report.set("energy_j", stats::mean(&energy));
    report.set("td_s", stats::mean(&td));
    report.slowdown = speed.median_slowdown();
    report.digest = digest.hex();
    report
}
