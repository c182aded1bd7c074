//! `fleet-800`: an 800-device synthetic fleet with a flaky regional
//! registry, the scenario-priced scheduler (64 draws) with peer sharing
//! and gossip discovery — the configuration of `examples/fleet_soak.rs`
//! and `benches/soak_scale.rs`.
//!
//! Generated dataflows are admitted one after another. One op is one
//! admission: a full `schedule`, `execute` with fault injection on the
//! fleet itself (so caches and gossip ads warm up for the next
//! admission), then the same app requested again and re-equilibrated
//! with `incremental_repair`. Admissions come in rounds: each round
//! starts from a replica of the freshly built fleet and admits four
//! generated apps of 8, 9, 10 and 11 microservices, so every round (and
//! every seed) has the same size mix and a round's ops are comparable
//! however many rounds a run fits.

use crate::paper::physical;
use crate::speed::HostSpeed;
use crate::stats::{self, mix, Digest};
use crate::trace::{self, span};
use crate::{layers, Params, Report};
use deep::arrival::DEFAULT_DEVIATION_BUDGET;
use deep::core::{continuum, DeepScheduler, Scheduler};
use deep::dataflow::{Application, DagGenerator};
use deep::registry::FaultRates;
use deep::simulator::{execute, ExecutorConfig, PeerDiscovery, RegistryChoice};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

const DISCOVERY: PeerDiscovery =
    PeerDiscovery::Gossip { fanout: 3, view_size: 8, rounds_per_wave: 1 };
/// Microservice counts of one round's apps, in admission order.
const ROUND_SIZES: [usize; 4] = [8, 9, 10, 11];
/// Sampled deviations per member in the equilibrium check.
const CERTIFY_DEVIATIONS: usize = 32;
/// Rounds whose deployments make up `energy_j`, `td_s` and the digest.
const QUALITY_ROUNDS: u64 = 4;
/// Fleet builds timed after every round for `setup_s`.
const SETUP_BUILDS_PER_ROUND: usize = 8;

/// The first generated app of each size in `sizes` from round `round`'s
/// seed stream.
fn round_apps(seed: u64, round: u64, sizes: &[usize]) -> Vec<Application> {
    let gen = DagGenerator { stages: 4, width: (2, 3), ..DagGenerator::default() };
    sizes
        .iter()
        .enumerate()
        .map(|(k, &size)| {
            (0u64..)
                .map(|j| gen.generate(mix(seed, (round << 32) | ((k as u64) << 16) | j)))
                .find(|app| app.len() == size)
                .expect("width (2, 3) over 4 stages yields every size from 8 to 12")
        })
        .collect()
}

pub fn run(p: Params) -> Report {
    let mut report = Report::default();
    let (devices, draws, sizes): (usize, u32, &[usize]) =
        if p.smoke { (40, 8, &ROUND_SIZES[..2]) } else { (800, 64, &ROUND_SIZES) };
    let mut speed = HostSpeed::new();
    let build = || {
        let mut tb =
            span("testbed.build", || continuum::synthetic_fleet_testbed(devices, 3, p.seed));
        tb.fault_model = tb.fault_model.clone().with_source(
            RegistryChoice::Regional.registry_id(),
            FaultRates { fatal_per_pull: 0.2, transient_per_fetch: 0.1 },
        );
        tb
    };
    let base = build();
    let mut setup_s = Vec::new();

    let sched = DeepScheduler {
        peer_sharing: true,
        peer_discovery: DISCOVERY,
        ..DeepScheduler::scenario_priced(draws, p.seed)
    };
    let (mut solve_s, mut deploy_ms, mut repair_s) = (Vec::new(), Vec::new(), Vec::new());
    let (mut energy, mut td) = (Vec::new(), Vec::new());
    let mut digest = Digest::default();
    let start = Instant::now();
    let (mut round, mut op) = (0u64, 0u64);
    while round < QUALITY_ROUNDS || start.elapsed().as_secs_f64() < p.seconds {
        let apps = round_apps(p.seed, round, sizes);
        let mut fleet = span("testbed.replica", || base.replica());
        for app in &apps {
            span("testbed.publish", || fleet.publish_application(app));
        }
        for app in &apps {
            // Fault seeds stay inside the stream the scheduler prices.
            let cfg = ExecutorConfig {
                peer_sharing: true,
                peer_discovery: DISCOVERY,
                fault_injection: true,
                fault_seed: p.seed.wrapping_add(op % draws as u64),
                ..ExecutorConfig::default()
            };
            speed.before_op();
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                trace::op(op, || {
                    let t0 = Instant::now();
                    let schedule = span("nash.schedule", || sched.schedule(app, &fleet));
                    let solved = t0.elapsed().as_secs_f64();
                    // The fleet the schedule was solved on, for the
                    // equilibrium check after the op.
                    let solved_on = span("testbed.replica", || fleet.replica());
                    let t1 = Instant::now();
                    let run =
                        span("executor.execute", || execute(&mut fleet, app, &schedule, &cfg));
                    let executed = t1.elapsed().as_secs_f64();
                    let t2 = Instant::now();
                    let repaired = span("nash.repair", || {
                        sched.incremental_repair(app, &fleet, &schedule, DEFAULT_DEVIATION_BUDGET)
                    });
                    let repair = t2.elapsed().as_secs_f64();
                    (schedule, solved_on, run, repaired, [solved, executed, repair])
                })
            }));
            let k = speed.after_op();
            let Ok((schedule, solved_on, run, repaired, t)) = outcome else {
                report.finish_op(true);
                op += 1;
                continue;
            };
            solve_s.push(t[0] * k);
            deploy_ms.push((t[0] + t[1]) * 1e3 * k);
            repair_s.push(t[2] * k);

            let eq = span("nash.certify", || {
                sched.is_equilibrium_sampled(
                    app,
                    &solved_on,
                    &schedule,
                    CERTIFY_DEVIATIONS,
                    mix(p.seed, op),
                )
            });
            let checks = &mut report.checks;
            checks.record("schedule passes the sampled equilibrium check", eq);
            checks.record("repair covers every microservice", repaired.schedule.len() == app.len());
            report.counts.push("nash.repair_deviations", repaired.deviations as f64);
            let noop = repaired.deviations == 0 && !repaired.fell_back;
            report.counts.push("nash.repair_noop_share", if noop { 1.0 } else { 0.0 });
            match run {
                Ok((run, _)) => {
                    checks.record("finite positive Td and energy", physical(&run));
                    report.counts.push_report(&run);
                    if round < QUALITY_ROUNDS {
                        energy.extend(run.microservices.iter().map(|m| m.energy.as_f64()));
                        td.extend(run.microservices.iter().map(|m| m.td.as_f64()));
                    }
                }
                Err(_) => checks.record("deployment executes", false),
            }
            if round < QUALITY_ROUNDS {
                digest.add_schedule(&schedule);
            }
            if round == 0 && trace::enabled() {
                layers::solver(app, &solved_on, &sched, &schedule, &mut report.counts);
                layers::registry(app, &solved_on, &mut report.checks);
                let mut cold = solved_on.replica();
                layers::executor_waves(
                    app,
                    &mut cold,
                    &schedule,
                    &cfg,
                    &mut report.counts,
                    &mut report.checks,
                );
                layers::gossip(&fleet, 3, 8, 1, cfg.seed);
            }
            report.finish_op(false);
            op += 1;
        }
        round += 1;
        // Set-up is timed between rounds, not in a burst before the first
        // op: builds in the first second of the process ran 30–60 %
        // slower than the same builds later in the run, by an amount that
        // varied from run to run.
        for _ in 0..SETUP_BUILDS_PER_ROUND {
            setup_s.push(speed.time(&build).0);
        }
    }
    report.notes.push(format!("fleet {devices} devices, {round} round(s), {op} admissions"));
    report.slowdown = speed.median_slowdown();
    report.set("setup_s", stats::median(&setup_s));

    // Every round admits the same size mix, but a run fits four to six
    // rounds of different apps, too few for a plain percentile to
    // settle: the p50s are medians over rounds of each round's mean
    // admission, and the tails medians over rounds of each round's p90
    // (its slowest admission).
    let per_round = sizes.len();
    let p50 = |s: &[f64]| stats::blocked_mean(s, per_round);
    report.set("deploy_ms.p50", p50(&deploy_ms));
    report.set("deploy_ms.p90", stats::blocked_percentile(&deploy_ms, 90.0, per_round));
    report.set("solve_s.p50", p50(&solve_s));
    report.set("repair_s.p50", p50(&repair_s));
    report.set("admit_ms.p50", p50(&solve_s) * 1e3);
    report.set("admit_ms.p90", stats::blocked_percentile(&solve_s, 90.0, per_round) * 1e3);
    report.set("jobs_per_s", deploy_ms.len() as f64 / (deploy_ms.iter().sum::<f64>() / 1e3));
    report.set("energy_j", stats::mean(&energy));
    report.set("td_s", stats::mean(&td));
    report.digest = digest.hex();
    report
}
