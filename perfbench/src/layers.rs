//! Per-layer probes: timed calls into the public functions of each
//! crate, made on a workload's own inputs. Layers that are private
//! internals of the solver (the sequential stage games, one refinement
//! pass) are measured by the public proxy calls named below. Probes run
//! as root-level spans outside the op spans, so they never distort op
//! self times; they run only in the traced run.

use crate::trace::span;
use crate::Checks;
use deep::core::{DeepScheduler, EstimationContext, Scheduler};
use deep::dataflow::Application;
use deep::game::{support_enumeration, Bimatrix, DescentWorkspace, Matrix};
use deep::registry::{LayerCache, Platform};
use deep::simulator::{
    plan_waves, ExecutorConfig, GossipPlane, OnlineExecutor, Placement, RegistryChoice, RunReport,
    Schedule, Testbed,
};
use std::collections::BTreeMap;

/// Count-type per-layer samples, reported as their mean. Only the sum
/// and the number of samples are kept, so the run's memory does not grow
/// with the number of ops it fits (`peak_rss_mb`).
#[derive(Default)]
pub struct Counts(BTreeMap<&'static str, (f64, u64)>);

impl Counts {
    pub fn push(&mut self, name: &'static str, value: f64) {
        let (sum, n) = self.0.entry(name).or_default();
        *sum += value;
        *n += 1;
    }

    pub fn mean(&self, name: &str) -> Option<f64> {
        self.0.get(name).map(|&(sum, n)| sum / n as f64)
    }

    /// Registry counters of one executed deployment, per microservice.
    pub fn push_report(&mut self, report: &RunReport) {
        let mut downloaded = 0.0;
        let mut from_peers = 0.0;
        for m in &report.microservices {
            self.push("registry.failovers", if m.failed_sources.is_empty() { 0.0 } else { 1.0 });
            self.push("registry.attempts", (m.sources.len() + m.failed_sources.len()) as f64);
            downloaded += m.downloaded_mb;
            from_peers += m.peer_downloaded_mb();
        }
        if downloaded > 0.0 {
            self.push("registry.peer_mb_share", from_peers / downloaded);
        }
    }
}

/// The estimator under `sched`'s configuration, as the scheduler builds it.
fn context<'t>(
    sched: &DeepScheduler,
    tb: &'t Testbed,
    app: &'t Application,
) -> EstimationContext<'t> {
    EstimationContext::new(tb, app)
        .peer_sharing(sched.peer_sharing)
        .peer_discovery(sched.peer_discovery, sched.discovery_seed)
        .price_faults(sched.price_faults)
        .scenario_pricing(sched.scenario)
        .at_clock(sched.start_clock)
        .starting_pull(sched.start_pull)
}

/// Solver layers: the sequential stage games alone (`refine: false`),
/// the per-wave congestion games and their potential descent, one
/// estimator candidate sweep, one commit walk of the solved profile and,
/// on dense-path testbeds, support enumeration of one stage game.
pub fn solver(
    app: &Application,
    tb: &Testbed,
    sched: &DeepScheduler,
    schedule: &Schedule,
    counts: &mut Counts,
) {
    let sequential = DeepScheduler { refine: false, ..sched.clone() };
    span("nash.sequential", || sequential.schedule(app, tb));

    let solved: Vec<Placement> = app.ids().map(|id| schedule.placement(id)).collect();
    let games = span("nash.wave_games", || sched.wave_route_games(app, tb, &solved));
    let mut ws = DescentWorkspace::new();
    for wave in games.iter().filter(|w| !w.resources.is_empty()) {
        let start: Vec<usize> = wave
            .members
            .iter()
            .enumerate()
            .map(|(p, id)| {
                wave.strategies[p]
                    .iter()
                    .position(|s| *s == solved[id.0])
                    .expect("solved placements lie in the wave's strategy space")
            })
            .collect();
        let game = wave.game();
        span("game.descent", || game.sparse_descent(start, sched.max_refine_passes, &mut ws));
    }

    span("model.walk", || {
        let mut ctx = context(sched, tb, app);
        for wave in plan_waves(app, true) {
            ctx.begin_wave();
            for &id in &wave {
                ctx.prefetch_manifests(id);
                ctx.commit(id, solved[id.0]);
            }
        }
    });

    // One stage-game candidate sweep: the first member of the first wave,
    // every registry × admissible device, at the first barrier.
    let first = plan_waves(app, true)[0][0];
    let mut ctx = context(sched, tb, app);
    ctx.begin_wave();
    ctx.prefetch_manifests(first);
    let registries = ctx.registry_choices();
    let devices = ctx.admissible_devices(first);
    let mut grid = vec![0.0; registries.len() * devices.len()];
    for (r, &registry) in registries.iter().enumerate() {
        for (d, &device) in devices.iter().enumerate() {
            let estimate = span("model.estimate", || ctx.estimate(first, registry, device));
            grid[r * devices.len() + d] = -estimate.ec.as_f64();
        }
    }
    counts.push("model.estimates", grid.len() as f64);
    if grid.len() < sched.sparse_threshold {
        let game =
            Bimatrix::common_interest(Matrix::from_fn(registries.len(), devices.len(), |r, d| {
                grid[r * devices.len() + d]
            }));
        span("game.support_enum", || support_enumeration(&game));
    }
}

/// Registry and object-store layers: manifest resolve on every catalog
/// entry of `app` from the Hub and the regional registry, one cold pull
/// per entry through `Testbed::pull_mesh`, and get/put on the regional
/// registry's object store (puts go to a forked store).
pub fn registry(app: &Application, tb: &Testbed, checks: &mut Checks) {
    let device = &tb.devices[0];
    let platform = device.arch;
    for id in app.ids() {
        let ms = app.microservice(id);
        let entry = tb.entry(app.name(), &ms.name).expect("every microservice is published");
        for (choice, name) in [
            (RegistryChoice::Hub, "registry.resolve_hub"),
            (RegistryChoice::Regional, "registry.resolve_regional"),
        ] {
            let reference = tb.reference(entry, choice, Platform::Amd64);
            let resolved = span(name, || tb.registry(choice).resolve(&reference, Platform::Amd64));
            checks.record("registry resolves every catalog entry", resolved.is_ok());
        }
        let reference = tb.reference(entry, RegistryChoice::Regional, platform);
        let mesh = tb.pull_mesh(RegistryChoice::Regional, device.id, 1.0);
        let mut cache = LayerCache::new(device.cache.capacity());
        let pulled = span("registry.pull", || {
            mesh.session(RegistryChoice::Regional.registry_id())
                .pull(&reference, platform, &mut cache)
        });
        checks.record(
            "cold regional pull fetches layers",
            pulled.is_ok_and(|p| p.layers_fetched > 0),
        );
    }

    let store = tb.regional.store();
    let mut bodies = Vec::new();
    for bucket in store.list_buckets() {
        for object in store.list_objects(&bucket, "").unwrap_or_default().into_iter().take(64) {
            if let Ok(body) = span("objectstore.get", || store.get_object(&bucket, &object.key)) {
                bodies.push((object.key, body));
            }
        }
    }
    let forked = tb.regional.fork();
    let scratch = forked.store();
    scratch.create_bucket("perfbench-probe").expect("fresh bucket on a forked store");
    for (key, body) in bodies {
        let put = span("objectstore.put", || scratch.put_object("perfbench-probe", &key, body));
        checks.record("object store accepts puts", put.is_ok());
    }
}

/// Executor waves: one job driven wave by wave through an
/// `OnlineExecutor` on `tb` (mutated: pass a replica).
pub fn executor_waves(
    app: &Application,
    tb: &mut Testbed,
    schedule: &Schedule,
    cfg: &ExecutorConfig,
    counts: &mut Counts,
    checks: &mut Checks,
) {
    let mut exec = OnlineExecutor::new(tb, cfg, &[]);
    let waves = plan_waves(app, cfg.staged_deployment);
    let mut run = exec.begin_job(app);
    let mut ok = true;
    for (w, wave) in waves.iter().enumerate() {
        ok &= span("executor.wave", || exec.run_wave(tb, app, schedule, wave, w, &mut run)).is_ok();
    }
    checks.record("online executor runs every wave", ok);
    counts.push("executor.waves", waves.len() as f64);
}

/// The gossip plane over `tb`'s current caches: two converging barrier
/// rounds, six steady ones, then mesh views for up to 16 pullers.
pub fn gossip(tb: &Testbed, fanout: u32, view_size: u32, rounds: u32, seed: u64) {
    let caches: Vec<&LayerCache> = tb.devices.iter().map(|d| &d.cache).collect();
    let mut plane = GossipPlane::new(caches.len(), fanout, view_size, rounds, seed);
    for round in 0..8 {
        let name = if round < 2 { "gossip.barrier_converging" } else { "gossip.barrier_steady" };
        span(name, || plane.barrier_round(&caches));
    }
    for target in 0..caches.len().min(16) {
        span("gossip.mesh_view", || plane.mesh_view(&caches, target));
    }
}
