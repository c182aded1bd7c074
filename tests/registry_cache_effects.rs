//! Cross-crate cache behaviour: layer dedup across images, applications
//! and registries, eviction under tight storage, and mesh split pulls
//! (hub + regional + peer cache serving one image).

use deep::core::calibration;
use deep::dataflow::apps;
use deep::netsim::{DataSize, RegistryId};
use deep::registry::{
    Digest, LayerCache, ManifestSource, PeerCacheSource, Platform, PullPlanner, Reference,
    SourceParams,
};
use deep::simulator::{execute, ExecutorConfig, RegistryChoice, Schedule, DEVICE_MEDIUM};

/// Mesh id of the anonymous peer-cache blob source the split-pull
/// tests register next to the paper registries (ids 0 and 1).
const PEER_CACHE: RegistryId = RegistryId(2);

#[test]
fn second_deployment_of_an_application_is_nearly_free() {
    let mut tb = calibration::calibrated_testbed();
    let app = apps::text_processing();
    let schedule = Schedule::uniform(app.len(), RegistryChoice::Hub, DEVICE_MEDIUM);
    let cfg = ExecutorConfig::default();
    let (cold, _) = execute(&mut tb, &app, &schedule, &cfg).unwrap();
    let (warm, _) = execute(&mut tb, &app, &schedule, &cfg).unwrap();
    let cold_dl: f64 = cold.microservices.iter().map(|m| m.downloaded_mb).sum();
    let warm_dl: f64 = warm.microservices.iter().map(|m| m.downloaded_mb).sum();
    // 6.9 GB of images dedup to ~4 GB of unique layers even cold.
    assert!(cold_dl > 3_500.0, "cold run moves gigabytes: {cold_dl} MB");
    assert_eq!(warm_dl, 0.0, "warm run is fully cached");
    assert!(warm.total_energy() < cold.total_energy());
}

#[test]
fn cross_application_base_layers_dedup() {
    // video ha-infer and text retrieve both sit on python:3.9-slim; after
    // running video on the medium device, text's retrieve pull shrinks.
    let mut tb = calibration::calibrated_testbed();
    let cfg = ExecutorConfig::default();

    let text = apps::text_processing();
    let text_schedule = Schedule::uniform(text.len(), RegistryChoice::Hub, DEVICE_MEDIUM);

    // Baseline: retrieve cold.
    let (cold, _) = execute(&mut tb, &text, &text_schedule, &cfg).unwrap();
    let cold_retrieve = cold.metrics("retrieve").unwrap().downloaded_mb;
    assert!((cold_retrieve - 140.0).abs() < 1.0);

    // Fresh testbed, video first.
    let mut tb = calibration::calibrated_testbed();
    let video = apps::video_processing();
    let video_schedule = Schedule::uniform(video.len(), RegistryChoice::Hub, DEVICE_MEDIUM);
    execute(&mut tb, &video, &video_schedule, &cfg).unwrap();
    let (after_video, _) = execute(&mut tb, &text, &text_schedule, &cfg).unwrap();
    let warm_retrieve = after_video.metrics("retrieve").unwrap().downloaded_mb;
    assert!(
        (warm_retrieve - 20.0).abs() < 1.0,
        "python:3.9-slim (120 MB) cached by video: {warm_retrieve} MB"
    );
}

#[test]
fn registries_are_interchangeable_for_cached_layers() {
    // Content addressing: pulling from the Hub then re-pulling the same
    // image regionally transfers nothing.
    let tb = calibration::calibrated_testbed();
    let planner = PullPlanner {
        download_bw: deep::netsim::Bandwidth::megabytes_per_sec(10.0),
        extract_bw: deep::netsim::Bandwidth::megabytes_per_sec(10.0),
        overhead: deep::netsim::Seconds::new(1.0),
    };
    let mut cache = LayerCache::new(DataSize::gigabytes(64.0));
    let hub_ref = Reference::new("docker.io", "sina88/tp-decompress", "amd64");
    planner.pull(&tb.hub, &hub_ref, Platform::Amd64, &mut cache).unwrap();
    let reg_ref = Reference::new("dcloud2.itec.aau.at", "aau/tp-decompress", "amd64");
    let out = planner.pull(&tb.regional, &reg_ref, Platform::Amd64, &mut cache).unwrap();
    assert_eq!(out.downloaded, DataSize::ZERO);
    assert_eq!(out.cache_hits, 3);
}

#[test]
fn tight_storage_evicts_lru_layers() {
    // A cache that can hold only one big training image thrashes between
    // siblings once the shared stack no longer fits alongside both apps.
    let mut cache = LayerCache::new(DataSize::gigabytes(6.0));
    let tb = calibration::calibrated_testbed();
    let planner = PullPlanner {
        download_bw: deep::netsim::Bandwidth::megabytes_per_sec(10.0),
        extract_bw: deep::netsim::Bandwidth::megabytes_per_sec(10.0),
        overhead: deep::netsim::Seconds::new(1.0),
    };
    let ha = Reference::new("docker.io", "sina88/vp-ha-train", "amd64");
    let infer = Reference::new("docker.io", "sina88/vp-ha-infer", "amd64");
    planner.pull(&tb.hub, &ha, Platform::Amd64, &mut cache).unwrap();
    assert!(cache.used() <= DataSize::gigabytes(6.0));
    // Pulling the 3.53 GB infer image must evict training layers.
    planner.pull(&tb.hub, &infer, Platform::Amd64, &mut cache).unwrap();
    assert!(cache.used() <= DataSize::gigabytes(6.0), "quota holds: {}", cache.used());
    // Re-pulling ha-train now re-downloads something.
    let again = planner.pull(&tb.hub, &ha, Platform::Amd64, &mut cache).unwrap();
    assert!(again.downloaded > DataSize::ZERO, "eviction forced re-downloads");
}

#[test]
fn single_source_mesh_reproduces_the_seed_pull_path() {
    // The mesh parity contract at testbed calibration: a session over the
    // testbed's hub-only mesh equals the seed planner pull, field for
    // field, cold and warm.
    let tb = calibration::calibrated_testbed();
    let mesh = tb.pull_mesh(RegistryChoice::Hub, DEVICE_MEDIUM, 1.0);
    let session = mesh
        .session(RegistryChoice::Hub.registry_id())
        .extract_bw(tb.device(DEVICE_MEDIUM).extract_bw);
    let planner = PullPlanner {
        download_bw: tb.params.route_bandwidth(RegistryChoice::Hub, DEVICE_MEDIUM),
        extract_bw: tb.device(DEVICE_MEDIUM).extract_bw,
        overhead: tb.params.hub_overhead,
    };
    let r = Reference::new("docker.io", "sina88/vp-ha-train", "amd64");
    let mut mesh_cache = LayerCache::new(DataSize::gigabytes(64.0));
    let mut seed_cache = LayerCache::new(DataSize::gigabytes(64.0));
    for _ in 0..2 {
        let mesh_out = session.pull(&r, Platform::Amd64, &mut mesh_cache).unwrap();
        let seed_out = planner.pull(&tb.hub, &r, Platform::Amd64, &mut seed_cache).unwrap();
        assert_eq!(mesh_out, seed_out);
    }
}

#[test]
fn split_pull_beats_the_best_single_registry_pull() {
    // The acceptance scenario: a fleet peer holds the 5.2 GB training
    // stack; deploying the sibling via a hub+regional+peer mesh must beat
    // both exclusive pulls on total Td.
    let tb = calibration::calibrated_testbed();
    let extract = tb.device(DEVICE_MEDIUM).extract_bw;

    // Warm a peer with vp-la-train (shares 5.2 of vp-ha-train's 5.78 GB).
    let mut peer_cache = LayerCache::new(DataSize::gigabytes(64.0));
    let la = Reference::new("docker.io", "sina88/vp-la-train", "amd64");
    tb.pull_mesh(RegistryChoice::Hub, DEVICE_MEDIUM, 1.0)
        .session(RegistryChoice::Hub.registry_id())
        .pull(&la, Platform::Amd64, &mut peer_cache)
        .unwrap();
    let peer = PeerCacheSource::from_caches("peer-cache", [&peer_cache]);

    let ha_hub = Reference::new("docker.io", "sina88/vp-ha-train", "amd64");
    let ha_regional = Reference::new("dcloud2.itec.aau.at", "aau/vp-ha-train", "amd64");

    let single = |choice: RegistryChoice, r: &Reference| {
        let mut cache = LayerCache::new(DataSize::gigabytes(64.0));
        tb.pull_mesh(choice, DEVICE_MEDIUM, 1.0)
            .session(choice.registry_id())
            .extract_bw(extract)
            .pull(r, Platform::Amd64, &mut cache)
            .unwrap()
            .deployment_time()
    };
    let hub_only = single(RegistryChoice::Hub, &ha_hub);
    let regional_only = single(RegistryChoice::Regional, &ha_regional);

    let mut mesh = tb.mesh(DEVICE_MEDIUM);
    mesh.add_blob_source(
        PEER_CACHE,
        &peer,
        SourceParams { download_bw: tb.params.peer_bw, overhead: tb.params.peer_overhead },
    );
    let mut cache = LayerCache::new(DataSize::gigabytes(64.0));
    let split = mesh
        .session(RegistryChoice::Hub.registry_id())
        .extract_bw(extract)
        .pull(&ha_hub, Platform::Amd64, &mut cache)
        .unwrap();

    assert!(
        split.deployment_time().as_f64() < hub_only.as_f64().min(regional_only.as_f64()),
        "split {} vs hub {hub_only} / regional {regional_only}",
        split.deployment_time()
    );
    // The breakdown shows the split: most bytes from the peer, the unique
    // app layer from a registry.
    assert!(split.per_source.len() >= 2, "{:?}", split.per_source);
    let peer_bytes = split
        .per_source
        .iter()
        .find(|b| b.source == PEER_CACHE)
        .map(|b| b.downloaded)
        .unwrap_or(DataSize::ZERO);
    assert_eq!(peer_bytes, DataSize::megabytes(5200.0));
    let total: DataSize = split.per_source.iter().fold(DataSize::ZERO, |acc, b| acc + b.downloaded);
    assert_eq!(total, split.downloaded, "breakdown accounts for every byte");
}

#[test]
fn split_pull_layers_land_in_the_device_cache_once() {
    // Layers fetched from different sources are still content-addressed:
    // the pulling device's cache ends identical to a single-source pull.
    let tb = calibration::calibrated_testbed();
    let mut peer_cache = LayerCache::new(DataSize::gigabytes(64.0));
    let la = Reference::new("docker.io", "sina88/vp-la-train", "amd64");
    tb.pull_mesh(RegistryChoice::Hub, DEVICE_MEDIUM, 1.0)
        .session(RegistryChoice::Hub.registry_id())
        .pull(&la, Platform::Amd64, &mut peer_cache)
        .unwrap();
    let peer = PeerCacheSource::from_caches("peer-cache", [&peer_cache]);

    let ha = Reference::new("docker.io", "sina88/vp-ha-train", "amd64");
    let mut mesh = tb.mesh(DEVICE_MEDIUM);
    mesh.add_blob_source(
        PEER_CACHE,
        &peer,
        SourceParams { download_bw: tb.params.peer_bw, overhead: tb.params.peer_overhead },
    );
    let mut split_cache = LayerCache::new(DataSize::gigabytes(64.0));
    mesh.session(RegistryChoice::Hub.registry_id())
        .pull(&ha, Platform::Amd64, &mut split_cache)
        .unwrap();

    let mut single_cache = LayerCache::new(DataSize::gigabytes(64.0));
    tb.pull_mesh(RegistryChoice::Hub, DEVICE_MEDIUM, 1.0)
        .session(RegistryChoice::Hub.registry_id())
        .pull(&ha, Platform::Amd64, &mut single_cache)
        .unwrap();

    assert_eq!(split_cache.len(), single_cache.len());
    assert_eq!(split_cache.used(), single_cache.used());
    // A re-pull through any source is now fully warm.
    let warm = mesh
        .session(RegistryChoice::Regional.registry_id())
        .pull(
            &Reference::new("dcloud2.itec.aau.at", "aau/vp-ha-train", "amd64"),
            Platform::Amd64,
            &mut split_cache,
        )
        .unwrap();
    assert_eq!(warm.downloaded, DataSize::ZERO);
    assert!(warm.per_source.is_empty());
}

#[test]
fn mesh_registers_extra_regional_registries() {
    // The open-mesh claim: a second regional (a mirror of the first) under
    // a fresh id serves pulls exactly like the original — N regionals are
    // data, not new API variants.
    let tb = calibration::calibrated_testbed();
    let mirror = deep::registry::RegionalRegistry::with_paper_catalog();
    let mirror_id = RegistryId(3);
    let mut mesh = tb.mesh(DEVICE_MEDIUM);
    mesh.add_registry(
        mirror_id,
        &mirror,
        tb.params.source_params(RegistryChoice::Regional, DEVICE_MEDIUM, 1.0),
    );
    assert_eq!(mesh.len(), 3);
    let r = Reference::new("dcloud2.itec.aau.at", "aau/tp-retrieve", "amd64");
    let mut cache = LayerCache::new(DataSize::gigabytes(64.0));
    let out = mesh.session(mirror_id).pull(&r, Platform::Amd64, &mut cache).unwrap();
    assert!(out.downloaded > DataSize::ZERO);
    assert_eq!(out.per_source.len(), 1);
    assert_eq!(out.per_source[0].source, mirror_id, "served by the mirror");
}

#[test]
fn digests_are_stable_across_testbed_instances() {
    // The content address of a layer must not depend on which testbed or
    // registry instance produced it (pure function of the layer identity).
    let a = calibration::calibrated_testbed();
    let b = calibration::calibrated_testbed();
    let ref_a = Reference::new("docker.io", "sina88/vp-frame", "arm64");
    let m1 = a.hub.resolve(&ref_a, Platform::Arm64).unwrap();
    let m2 = b.hub.resolve(&ref_a, Platform::Arm64).unwrap();
    assert_eq!(m1.digest(), m2.digest());
    let digests1: Vec<&Digest> = m1.layers.iter().map(|l| &l.digest).collect();
    let digests2: Vec<&Digest> = m2.layers.iter().map(|l| &l.digest).collect();
    assert_eq!(digests1, digests2);
}
