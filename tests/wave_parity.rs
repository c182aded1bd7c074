//! Estimator/executor parity over random placements on a mirrored mesh.
//!
//! The scheduler's payoffs are only as good as their agreement with what
//! the deployment later measures. Here a continuum testbed carries two
//! regional mirrors and a half-warm medium device, and seeded random
//! admissible placements spread each wave's pulls over every registry
//! and device, so same-wave pulls contend on different routes, mirrors
//! and peer uplinks. Under each peer mode (sharing off, the omniscient
//! snapshot, and bounded gossip) the estimation context must predict
//! every microservice's `Td` and `EC` exactly as the jitter-free
//! executor measures them.

use deep::core::EstimationContext;
use deep::dataflow::{self, apps, Application, DagGenerator, MicroserviceId};
use deep::netsim::{Bandwidth, Seconds};
use deep::registry::Platform;
use deep::simulator::{
    execute, ExecutorConfig, PeerDiscovery, Placement, RegistryChoice, Schedule, Testbed,
    DEVICE_MEDIUM,
};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// The case studies, then twelve generated applications.
fn app(index: usize) -> Application {
    match index {
        0 => apps::video_processing(),
        1 => apps::text_processing(),
        n => DagGenerator::default().generate(n as u64),
    }
}

/// A calibrated continuum testbed with `app` published, two regional
/// mirrors, and the amd64 images of `app`'s even microservices cached on
/// the medium device (so amd64 pullers find some layers on a peer).
fn mirrored_testbed(app: &Application) -> Testbed {
    let mut tb = deep::core::continuum_testbed();
    tb.publish_application(app);
    tb.add_regional_mirror(Bandwidth::megabytes_per_sec(11.0), Seconds::new(4.0));
    tb.add_regional_mirror(Bandwidth::megabytes_per_sec(7.5), Seconds::new(6.0));
    let mut cache = tb.device(DEVICE_MEDIUM).cache.clone();
    for id in app.ids().filter(|id| id.0 % 2 == 0) {
        let entry = tb.entry(app.name(), &app.microservice(id).name).unwrap().clone();
        tb.pull_mesh(RegistryChoice::Hub, DEVICE_MEDIUM, 1.0)
            .session(RegistryChoice::Hub.registry_id())
            .pull(&entry.hub_reference(Platform::Amd64), Platform::Amd64, &mut cache)
            .unwrap();
    }
    tb.device_mut(DEVICE_MEDIUM).cache = cache;
    tb
}

/// A seeded random admissible placement: every microservice on a uniform
/// registry of the mesh and a uniform device that admits it.
fn random_schedule(tb: &Testbed, app: &Application, seed: u64) -> Schedule {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let registries = tb.registry_choices();
    let placements = app
        .ids()
        .map(|id: MicroserviceId| {
            let req = &app.microservice(id).requirements;
            let devices: Vec<_> =
                tb.devices.iter().filter(|d| d.admits(req)).map(|d| d.id).collect();
            Placement {
                registry: registries[rng.gen_range(0..registries.len())],
                device: devices[rng.gen_range(0..devices.len())],
            }
        })
        .collect();
    Schedule::new(placements)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(84))]

    #[test]
    fn estimator_matches_executor_on_random_mirrored_placements(
        index in 0usize..14,
        seed in any::<u64>(),
    ) {
        let app = app(index);
        let modes = [
            (false, PeerDiscovery::Snapshot),
            (true, PeerDiscovery::Snapshot),
            (true, PeerDiscovery::Gossip { fanout: 1, view_size: 2, rounds_per_wave: 1 }),
        ];
        for (peer_sharing, peer_discovery) in modes {
            let mut tb = mirrored_testbed(&app);
            let schedule = random_schedule(&tb, &app, seed);
            let cfg = ExecutorConfig { peer_sharing, peer_discovery, ..Default::default() };
            let mut predictions = vec![None; app.len()];
            {
                let mut ctx = EstimationContext::new(&tb, &app)
                    .peer_sharing(peer_sharing)
                    .peer_discovery(peer_discovery, cfg.seed);
                for stage in dataflow::stages(&app) {
                    ctx.begin_wave();
                    for &id in &stage.members {
                        let p = schedule.placement(id);
                        predictions[id.0] = Some(ctx.estimate(id, p.registry, p.device));
                        ctx.commit(id, p);
                    }
                }
            }
            let (report, _) = execute(&mut tb, &app, &schedule, &cfg).unwrap();
            for (est, measured) in predictions.iter().zip(&report.microservices) {
                let est = est.expect("every microservice is estimated");
                prop_assert_eq!(est.td, measured.td, "{} td ({:?})", measured.name, peer_discovery);
                prop_assert_eq!(est.ec, measured.energy, "{} ec ({:?})", measured.name, peer_discovery);
            }
        }
    }
}
