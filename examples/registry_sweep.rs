//! Sensitivity sweep: how the regional registry's bandwidth to the small
//! device moves DEEP's registry split and the energy gap between the
//! three deployment methods — plus the registry-mesh scenarios that
//! generalize the paper's hybrid: hub + regional + peer-cache split
//! pulls with their per-source byte breakdown.
//!
//! The first sweep explores the crossover structure behind Table III: the
//! hub wins routes where its sustained rate beats the regional LAN, the
//! regional registry wins where locality (low overhead, better
//! small-device rate) dominates. The mesh sweep then shows what the open
//! mesh buys beyond any single-registry choice: layers a fleet peer
//! already holds ride the LAN.
//!
//! The bandwidth and mirror-count grids live in
//! `scenarios/registry_sweep.toml` and `scenarios/n_regional_sweep.toml`
//! — `tests/scenario_files.rs` pins the file-driven grids to the
//! original hard-coded recipes byte-for-byte.
//!
//! Run with `cargo run --example registry_sweep`.

use deep::core::{
    calibrate, continuum, continuum_testbed, run_scenario, scenario_testbed, DeepScheduler,
    ExclusiveRegistry, Scheduler,
};
use deep::dataflow::{apps, DeviceClass};
use deep::netsim::{Bandwidth, DataSize, RegistryId};
use deep::registry::{LayerCache, PeerCacheSource, Platform, Reference, SourceParams};
use deep::scenario::Scenario;
use deep::simulator::{
    execute, ExecutorConfig, RegistryChoice, Schedule, Testbed, TestbedParams, DEVICE_MEDIUM,
};

/// Mesh id of the anonymous peer-cache blob source the split-pull
/// scenarios register next to the paper registries (ids 0 and 1).
const PEER_CACHE: RegistryId = RegistryId(2);

fn load_scenario(file: &str) -> Scenario {
    let path = format!("{}/scenarios/{file}", env!("CARGO_MANIFEST_DIR"));
    Scenario::load(&path).expect("checked-in sweep scenario parses")
}

fn testbed_with_regional_small(mbps: f64) -> Testbed {
    let params = TestbedParams {
        regional_to_small: Bandwidth::megabytes_per_sec(mbps),
        ..TestbedParams::default()
    };
    let mut tb = Testbed::with_params(params);
    calibrate(&mut tb);
    tb
}

fn registry_sweep() {
    let app = apps::text_processing();
    println!(
        "{:>14} {:>14} {:>12} {:>12} {:>12}",
        "reg->small MB/s", "regional share", "DEEP [J]", "hub-only [J]", "reg-only [J]"
    );
    for cell in load_scenario("registry_sweep.toml").expand() {
        let mbps = cell.testbed.regional_to_small_mbps.expect("swept axis sets the override");
        let deep_outcome = run_scenario(&cell, &DeepScheduler::paper());
        let regional_share = deep_outcome
            .schedule
            .iter()
            .filter(|(_, p)| p.registry == RegistryChoice::Regional)
            .count() as f64
            / app.len() as f64;
        let deep = deep_outcome.mean_energy();
        let hub = run_scenario(&cell, &ExclusiveRegistry::hub()).mean_energy();
        let reg = run_scenario(&cell, &ExclusiveRegistry::regional()).mean_energy();
        println!(
            "{:>14.1} {:>13.0}% {:>12.1} {:>12.1} {:>12.1}",
            mbps,
            regional_share * 100.0,
            deep,
            hub,
            reg
        );
    }
    println!(
        "\nExpected shape: at low regional bandwidth DEEP pulls everything from \
         the Hub and matches hub-only; as the LAN rate grows the regional share \
         rises toward the paper's 83 % and DEEP tracks the better of the two \
         exclusive methods from below.\n"
    );
}

/// One mesh scenario: pull vp-ha-train onto the medium device, varying
/// which sources are in the mesh and how warm the fleet peer is.
fn mesh_sweep() {
    let tb = testbed_with_regional_small(9.5);
    let extract = tb.device(DEVICE_MEDIUM).extract_bw;
    let ha_hub = Reference::new("docker.io", "sina88/vp-ha-train", "amd64");
    let ha_regional = Reference::new("dcloud2.itec.aau.at", "aau/vp-ha-train", "amd64");

    // The fleet peer warmed with the sibling image (shares 5.2 of
    // 5.78 GB) — the warm-fleet steady state of a rolling deployment.
    let mut peer_cache = LayerCache::new(DataSize::gigabytes(64.0));
    tb.pull_mesh(RegistryChoice::Hub, DEVICE_MEDIUM, 1.0)
        .session(RegistryChoice::Hub.registry_id())
        .pull(
            &Reference::new("docker.io", "sina88/vp-la-train", "amd64"),
            Platform::Amd64,
            &mut peer_cache,
        )
        .expect("warm-up pull succeeds");
    let peer = PeerCacheSource::from_caches("peer-cache", [&peer_cache]);
    let peer_params =
        SourceParams { download_bw: tb.params.peer_bw, overhead: tb.params.peer_overhead };

    println!("Mesh scenarios — vp-ha-train (5.78 GB) onto the medium device:");
    println!("{:>28} {:>10}   per-source breakdown [MB]", "scenario", "Td [s]");

    let report = |label: &str, outcome: deep::registry::PullOutcome| {
        let breakdown = if outcome.per_source.is_empty() {
            "(fully cached)".to_string()
        } else {
            outcome
                .per_source
                .iter()
                .map(|b| format!("r{}:{:.0}", b.source.0, b.downloaded.as_megabytes()))
                .collect::<Vec<_>>()
                .join("  ")
        };
        println!("{label:>28} {:>10.1}   {breakdown}", outcome.deployment_time().as_f64());
    };

    // Hub-only (the seed pull path).
    let hub_only = tb
        .pull_mesh(RegistryChoice::Hub, DEVICE_MEDIUM, 1.0)
        .session(RegistryChoice::Hub.registry_id())
        .extract_bw(extract)
        .pull(&ha_hub, Platform::Amd64, &mut LayerCache::new(DataSize::gigabytes(64.0)))
        .expect("hub pull succeeds");
    report("hub only", hub_only);

    // Regional-only.
    let regional_only = tb
        .pull_mesh(RegistryChoice::Regional, DEVICE_MEDIUM, 1.0)
        .session(RegistryChoice::Regional.registry_id())
        .extract_bw(extract)
        .pull(&ha_regional, Platform::Amd64, &mut LayerCache::new(DataSize::gigabytes(64.0)))
        .expect("regional pull succeeds");
    report("regional only", regional_only);

    // Hub + regional (both registries, no peer): the cheapest registry
    // serves each layer.
    let two_registry = tb
        .mesh(DEVICE_MEDIUM)
        .session(RegistryChoice::Hub.registry_id())
        .extract_bw(extract)
        .pull(&ha_hub, Platform::Amd64, &mut LayerCache::new(DataSize::gigabytes(64.0)))
        .expect("mesh pull succeeds");
    report("hub + regional", two_registry);

    // Full mesh: hub + regional + warm peer.
    let mut full = tb.mesh(DEVICE_MEDIUM);
    full.add_blob_source(PEER_CACHE, &peer, peer_params);
    let split = full
        .session(RegistryChoice::Hub.registry_id())
        .extract_bw(extract)
        .pull(&ha_hub, Platform::Amd64, &mut LayerCache::new(DataSize::gigabytes(64.0)))
        .expect("split pull succeeds");
    report("hub + regional + peer", split);

    println!(
        "\nThe split pull fetches the 5.2 GB fleet-resident training stack from \
         the peer over the LAN and only the unique 580 MB app layer from a \
         registry — beating both exclusive pulls (the whole-image hub-vs-regional \
         choice of the paper is the single-source special case)."
    );
}

/// N-regional placement sweep: add regional mirrors one at a time and let
/// the mesh-wide Nash game redistribute placements over the widened
/// strategy space — where do additional regionals stop paying?
fn n_regional_sweep() {
    println!("\nN-regional sweep — registry count × placement (text-processing, DEEP):");
    println!(
        "{:>9} {:>10} {:>10} {:>12}   placement distribution (registry@device: share)",
        "mirrors", "DEEP [J]", "Td [s]", "mirror share"
    );
    for cell in load_scenario("n_regional_sweep.toml").expand() {
        let mirror_count = cell.testbed.mirrors;
        // Each mirror is a regional replica at another site: slightly
        // better route than the paper regional, device-independent.
        let tb = scenario_testbed(&cell);
        let app = apps::text_processing();
        let outcome = run_scenario(&cell, &DeepScheduler::paper());
        let report = &outcome.reports[0];
        let td: f64 = report.microservices.iter().map(|m| m.td.as_f64()).sum();
        let mirror_share =
            outcome.schedule.iter().filter(|(_, p)| tb.mirror(p.registry).is_some()).count() as f64
                / app.len() as f64;
        let distribution = outcome
            .schedule
            .distribution()
            .into_iter()
            .map(|((r, d), f)| format!("{r}@d{}:{:.0}%", d.0, f * 100.0))
            .collect::<Vec<_>>()
            .join("  ");
        println!(
            "{:>9} {:>10.1} {:>10.1} {:>11.0}%   {distribution}",
            mirror_count,
            report.total_energy().as_f64(),
            td,
            mirror_share * 100.0
        );
    }
    println!(
        "\nExpected shape: the first fast mirror pulls placements off the paper\n\
         regional registry; further mirrors stop paying once every route is\n\
         uncontended (the strategy space grows but the equilibrium stops moving)."
    );
}

/// The nash_mesh acceptance scenario: a rolling redeploy of the video
/// pipeline onto the cloud tier of a warm fleet. The peer-aware Nash
/// game prices the fleet-resident layers and lands an equilibrium Td
/// strictly below the best single-registry schedule.
fn peer_equilibrium() {
    let app = apps::video_processing();
    let pins: Vec<(&str, DeviceClass)> =
        app.ids().map(|id| (app.microservice(id).name.as_str(), DeviceClass::Cloud)).collect();
    let pinned = continuum::pin_microservices(&app, &pins);
    let run = |label: &str, scheduler: &dyn Scheduler, peer_sharing: bool| -> f64 {
        let mut tb = continuum_testbed();
        let warm = Schedule::uniform(app.len(), RegistryChoice::Hub, DEVICE_MEDIUM);
        execute(&mut tb, &app, &warm, &ExecutorConfig::default()).expect("warm-up run");
        let schedule = scheduler.schedule(&pinned, &tb);
        let cfg = ExecutorConfig { peer_sharing, ..Default::default() };
        let (report, _) = execute(&mut tb, &pinned, &schedule, &cfg).expect("redeploy executes");
        let td: f64 = report.microservices.iter().map(|m| m.td.as_f64()).sum();
        let by_source = report
            .downloaded_by_source()
            .into_iter()
            .map(|(id, mb)| format!("r{}:{mb:.0}", id.0))
            .collect::<Vec<_>>()
            .join("  ");
        println!("{label:>28} {td:>10.1}   {by_source}");
        td
    };
    println!("\nEquilibrium Td — warm-fleet redeploy onto the cloud tier:");
    println!("{:>28} {:>10}   per-source breakdown [MB]", "method", "Td [s]");
    let hub = run("exclusively docker hub", &ExclusiveRegistry::hub(), false);
    let regional = run("exclusively regional", &ExclusiveRegistry::regional(), false);
    let mesh = run("DEEP + peer mesh", &DeepScheduler::with_peer_sharing(), true);
    println!(
        "\nThe peer-aware equilibrium beats the best single registry by {:.0}%:\n\
         the game now *prices* split pulls instead of discovering them at\n\
         deployment time.",
        (1.0 - mesh / hub.min(regional)) * 100.0
    );
}

fn main() {
    registry_sweep();
    mesh_sweep();
    n_regional_sweep();
    peer_equilibrium();
}
