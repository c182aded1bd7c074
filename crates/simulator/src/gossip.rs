//! Gossip-backed peer discovery: the decentralized replacement for the
//! executor's omniscient per-wave peer snapshot.
//!
//! The snapshot plane ([`crate::testbed::PeerPlane::snapshot`]) hands a
//! pulling device the *current* cache of every other device — a central
//! catalog. [`GossipPlane`] replaces it with the epidemic protocol of
//! [`deep_netsim::gossip`]: each device advertises its layer-cache
//! digest set (as a [`PeerCacheSource`]) under an epoch, a seeded
//! push/pull round runs at every wave barrier, and a pull's mesh is
//! assembled from the *puller's partial view* — bounded to `view_size`
//! holders, because the `peer_plane` bench prices every extra holder a
//! session must consider (~0.2 µs each).
//!
//! Two kinds of staleness arise, and both must degrade into the mesh's
//! existing mid-pull failover rather than a wrong answer:
//!
//! * **Lag** — a holder warmed a layer but the epoch hasn't reached the
//!   viewer yet: the viewer simply doesn't count on that holder. The
//!   scheduler prices this correctly for free, because the estimator
//!   runs the *same* plane over its mirrored caches.
//! * **Lies** — a viewer holds an old epoch advertising a layer the
//!   holder has since evicted. [`GossipPlane::mesh_view`] materializes
//!   such entries with the dead digests *retracted*: `has_blob` keeps
//!   answering true (the session plans against the stale advertisement,
//!   exactly like the cache-pressure chaos path), but the fetch fails
//!   and the session fails over. Without this, a stale ad would let a
//!   simulated fetch succeed against bytes that no longer exist.
//!
//! Materialized views are cached per target and keyed on the gossip
//! state's [generation](deep_netsim::gossip::GossipState::generation):
//! between two barriers of an unchanged fleet no epoch moves, so every
//! re-materialization would rebuild the identical holder list — the
//! cache hands back the stored copy instead. Any advertisement or view
//! movement bumps the generation and invalidates every cached view;
//! out-of-band cache mutations (the chaos path) go through
//! [`GossipPlane::readvertise`], which is itself an epoch bump. Bounded
//! views use an O(n) partial selection (`select_nth_unstable_by`) in
//! place of a full sort — the (len desc, holder asc) comparator is a
//! total order over the unique holders, so the selected top-k set is
//! exactly the full sort's prefix.
//!
//! With `fanout >= devices - 1` and one round per wave, every barrier
//! fully re-converges the views, and an unbounded `view_size` makes
//! `mesh_view` reproduce `PeerPlane::snapshot` holder for holder — the
//! differential bridge `tests/gossip_discovery.rs` locks down byte for
//! byte. The unit tests below pin the plane's whole interface (barrier
//! rounds, readvertisement, cached views) against a cache-free reference
//! plane built on the clone-based exchange of
//! [`deep_netsim::gossip::oracle`].

use crate::executor::PeerDiscovery;
use crate::testbed::{peer_holder, peer_source_id, PeerPlane};
use deep_netsim::gossip::GossipState;
use deep_netsim::{DeviceId, RegistryId};
use deep_registry::{BlobSource, Digest, LayerCache, PeerCacheSource};

/// A materialized mesh view, remembered until the gossip generation it
/// was built under moves.
type CachedView = Option<(u64, Vec<(RegistryId, PeerCacheSource)>)>;

/// The fleet-wide gossip discovery plane: epidemic state plus the knobs
/// of [`PeerDiscovery::Gossip`].
#[derive(Debug, Clone)]
pub struct GossipPlane {
    state: GossipState<PeerCacheSource>,
    /// Materialized mesh views per target, keyed on the generation they
    /// were built under.
    views: Vec<CachedView>,
    fanout: u32,
    view_size: u32,
    rounds_per_wave: u32,
}

impl GossipPlane {
    /// A fresh plane over `devices` nodes. `fanout` is clamped to
    /// `devices - 1` per round; `view_size` bounds how many holder
    /// sources [`Self::mesh_view`] materializes into one pull's mesh.
    pub fn new(
        devices: usize,
        fanout: u32,
        view_size: u32,
        rounds_per_wave: u32,
        seed: u64,
    ) -> Self {
        GossipPlane {
            state: GossipState::new(devices, seed),
            views: vec![None; devices],
            fanout,
            view_size,
            rounds_per_wave,
        }
    }

    /// The wave-barrier step, mirroring the snapshot plane's "peers
    /// advertise what they held when the wave began": every device whose
    /// cache diverged from its own last advertisement re-advertises
    /// (epoch bump), then `rounds_per_wave` epidemic rounds spread the
    /// freshest epochs. `caches[j]` is device `j`'s layer cache. On an
    /// unchanged fleet nothing re-advertises and every round
    /// short-circuits — the barrier allocates nothing and the cached
    /// mesh views stay live.
    pub fn barrier_round(&mut self, caches: &[&LayerCache]) {
        for (j, cache) in caches.iter().enumerate() {
            if diverged(self.state.self_ad(j), cache) {
                self.state.advertise(j, PeerCacheSource::for_holder(DeviceId(j), cache));
            }
        }
        self.state.run_rounds(self.rounds_per_wave, self.fanout);
    }

    /// Immediate re-advertisement after an out-of-band cache change —
    /// the chaos cache-pressure path. The epoch bump makes every remote
    /// copy of the old advertisement stale, so it ages out of the fleet
    /// as subsequent rounds spread the fresh (smaller) one; until then,
    /// viewers acting on the lie pay a failover, never a wrong estimate.
    /// (The bump also moves the generation, invalidating every cached
    /// mesh view — which is why out-of-band mutations must come through
    /// here.)
    pub fn readvertise(&mut self, holder: DeviceId, cache: &LayerCache) {
        if holder.0 < self.state.devices() {
            self.state.advertise(holder.0, PeerCacheSource::for_holder(holder, cache));
        }
    }

    /// Materialize the pulling device's bounded mesh view: the holders
    /// it currently knows of, largest advertisement first, truncated to
    /// `view_size`, returned in ascending holder order under the same
    /// [`peer_source_id`] scheme as the snapshot plane (so route keys,
    /// uplink contention and trace ids are identical across discovery
    /// modes). Digests a holder advertised but no longer actually holds
    /// (per `caches`) are retracted in the materialized source: the
    /// session still *plans* against the stale advertisement, but the
    /// fetch fails over instead of serving vanished bytes.
    ///
    /// Views are cached per target for as long as the gossip generation
    /// holds still: between barriers of an unchanged fleet this is a
    /// clone of the stored vector, not a rebuild. The cache is sound
    /// because views are materialized at barriers: every change to
    /// `caches` since the plane last saw them must have reached it
    /// through [`Self::barrier_round`] or [`Self::readvertise`].
    pub fn mesh_view(
        &mut self,
        caches: &[&LayerCache],
        target: usize,
    ) -> Vec<(RegistryId, PeerCacheSource)> {
        let generation = self.state.generation();
        if let Some((built_at, view)) = &self.views[target] {
            if *built_at == generation {
                return view.clone();
            }
        }
        let view = materialize(self.state.known(target), self.view_size, caches, target);
        self.views[target] = Some((generation, view.clone()));
        view
    }

    /// True when every view carries the freshest epoch of every
    /// advertisement — the regime in which `mesh_view` (unbounded)
    /// equals the omniscient snapshot.
    pub fn converged(&self) -> bool {
        self.state.converged()
    }

    /// Epidemic rounds run so far.
    pub fn rounds_run(&self) -> u64 {
        self.state.rounds_run()
    }

    /// The configured view bound.
    pub fn view_size(&self) -> u32 {
        self.view_size
    }
}

/// One deployment wave's peer discovery: the single barrier step the
/// scheduler's estimator and the executor both run, whichever
/// [`PeerDiscovery`] mode is on.
///
/// [`PeerViews::new`] is the one place a [`PeerDiscovery`] becomes a
/// discovery plane (none for the omniscient snapshot, a seeded
/// [`GossipPlane`] for gossip). [`PeerViews::barrier`] advances it one
/// wave barrier and materializes the per-device views the wave's pulls
/// see, through [`PeerPlane::snapshot`] or [`GossipPlane::mesh_view`].
/// The estimator asks for every device (it prices counterfactual
/// placements anywhere), the executor only for the wave's targets. The
/// chaos path's evictions come back through [`PeerViews::evicted`], so a
/// gossip plane never misses an out-of-band cache change.
#[derive(Debug, Clone, Default)]
pub struct PeerViews {
    /// The epidemic plane under [`PeerDiscovery::Gossip`].
    gossip: Option<GossipPlane>,
    /// `views[j]`: the peer sources device `j`'s pulls see this wave
    /// (empty for devices that were not asked for).
    views: Vec<Vec<(RegistryId, PeerCacheSource)>>,
}

impl PeerViews {
    /// The discovery plane of `discovery` over `devices` devices; `seed`
    /// seeds the gossip partner schedule (the executor's
    /// [`crate::ExecutorConfig::seed`] — an estimator must pass the same
    /// seed to see the same views).
    pub fn new(discovery: PeerDiscovery, devices: usize, seed: u64) -> Self {
        let gossip = match discovery {
            PeerDiscovery::Snapshot => None,
            PeerDiscovery::Gossip { fanout, view_size, rounds_per_wave } => {
                Some(GossipPlane::new(devices, fanout, view_size, rounds_per_wave, seed))
            }
        };
        PeerViews { gossip, views: Vec::new() }
    }

    /// The wave barrier: peers advertise what they hold as the wave
    /// begins (one [`GossipPlane::barrier_round`] under gossip; the
    /// snapshot catalog needs no step), then the views of `targets` are
    /// materialized from `caches` (`caches[j]` = device `j`'s layer
    /// cache). Every other device's view is left empty.
    pub fn barrier(
        &mut self,
        plane: &PeerPlane,
        caches: &[&LayerCache],
        targets: impl IntoIterator<Item = usize>,
    ) {
        if let Some(gossip) = self.gossip.as_mut() {
            gossip.barrier_round(caches);
        }
        self.refresh(plane, caches, targets);
    }

    /// Materialize the views of `targets` without advancing discovery —
    /// what an estimator sees before its first barrier (gossip views are
    /// empty until a barrier runs).
    pub fn refresh(
        &mut self,
        plane: &PeerPlane,
        caches: &[&LayerCache],
        targets: impl IntoIterator<Item = usize>,
    ) {
        self.views.resize_with(caches.len(), Vec::new);
        for view in &mut self.views {
            view.clear();
        }
        for j in targets {
            self.views[j] = match self.gossip.as_mut() {
                Some(gossip) => gossip.mesh_view(caches, j),
                None => plane.snapshot(caches, j),
            };
        }
    }

    /// The peer sources `device`'s pulls see this wave.
    pub fn view(&self, device: usize) -> &[(RegistryId, PeerCacheSource)] {
        self.views.get(device).map_or(&[], Vec::as_slice)
    }

    /// `holder` evicted `evicted` out of band (chaos cache pressure). The
    /// holder's source in every in-flight view loses those layers, so
    /// pulls planned against the stale advertisement fail over instead
    /// of serving vanished bytes. Under gossip the holder re-advertises
    /// its shrunk `cache` at once (an epoch bump), so the stale
    /// advertisement ages out of remote views as later rounds spread the
    /// fresh one.
    pub fn evicted(&mut self, holder: DeviceId, evicted: &[Digest], cache: &LayerCache) {
        if evicted.is_empty() {
            return;
        }
        for view in &mut self.views {
            for (id, source) in view.iter_mut() {
                if peer_holder(*id) == Some(holder) {
                    for digest in evicted {
                        source.retract(digest);
                    }
                }
            }
        }
        if let Some(gossip) = self.gossip.as_mut() {
            gossip.readvertise(holder, cache);
        }
    }
}

/// The barrier's advertise rule: a device re-advertises when its cache
/// no longer matches its own last advertisement (or it never published
/// one).
fn diverged(own_ad: Option<&PeerCacheSource>, cache: &LayerCache) -> bool {
    match own_ad {
        Some(ad) => ad.len() != cache.len() || cache.digests().any(|d| !ad.has_blob(d)),
        None => true,
    }
}

/// View materialization over a gossip state's `known` iterator:
/// bounded deterministic selection (largest advertisement first, ties to
/// the lower device id), ascending-holder output, stale digests
/// retracted against the live `caches`.
fn materialize<'a>(
    known: impl Iterator<Item = (usize, u64, &'a PeerCacheSource)>,
    view_size: u32,
    caches: &[&LayerCache],
    target: usize,
) -> Vec<(RegistryId, PeerCacheSource)> {
    let mut candidates: Vec<(usize, &PeerCacheSource)> = known
        .filter(|&(holder, _, ad)| holder != target && !ad.is_empty())
        .map(|(holder, _, ad)| (holder, ad))
        .collect();
    // Deterministic bounded selection: prefer the holders advertising
    // the most layers (most likely to cover the pull), break ties on
    // the lower device id. Holders are unique, so the comparator is a
    // total order and an O(n) partial selection keeps exactly the set a
    // full sort-and-truncate would — without sorting the n - k holders
    // the bound is about to discard.
    let k = view_size as usize;
    if k == 0 {
        candidates.clear();
    } else if k < candidates.len() {
        candidates
            .select_nth_unstable_by(k - 1, |a, b| b.1.len().cmp(&a.1.len()).then(a.0.cmp(&b.0)));
        candidates.truncate(k);
    }
    // Ascending holder order — the snapshot plane's order — so an
    // unbounded converged view is indistinguishable from it.
    candidates.sort_unstable_by_key(|&(holder, _)| holder);
    candidates
        .into_iter()
        .map(|(holder, ad)| {
            let mut source = ad.clone();
            for digest in ad.digests() {
                if !caches[holder].contains(digest) {
                    source.retract(digest);
                }
            }
            (peer_source_id(DeviceId(holder)), source)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use deep_netsim::gossip::oracle;
    use deep_netsim::{Bandwidth, DataSize, Seconds};

    fn digest(tag: u8) -> Digest {
        Digest::of(&[tag])
    }

    /// Four devices: 0 and 2 warm with distinct layer sets, 1 and 3 cold.
    fn fleet() -> Vec<LayerCache> {
        let mut caches = vec![LayerCache::new(DataSize::gigabytes(8.0)); 4];
        caches[0].insert(digest(1), DataSize::megabytes(10.0));
        caches[0].insert(digest(2), DataSize::megabytes(10.0));
        caches[2].insert(digest(3), DataSize::megabytes(10.0));
        caches
    }

    fn converged_plane(caches: &[LayerCache]) -> GossipPlane {
        let mut plane = GossipPlane::new(caches.len(), u32::MAX, u32::MAX, 1, 42);
        let refs: Vec<&LayerCache> = caches.iter().collect();
        plane.barrier_round(&refs);
        assert!(plane.converged());
        plane
    }

    #[test]
    fn converged_unbounded_view_matches_the_omniscient_snapshot() {
        let caches = fleet();
        let mut plane = converged_plane(&caches);
        let refs: Vec<&LayerCache> = caches.iter().collect();
        let snapshot_plane =
            PeerPlane::uniform(4, Bandwidth::megabits_per_sec(100.0), Seconds::ZERO);
        for target in 0..4 {
            let gossip = plane.mesh_view(&refs, target);
            let snapshot = snapshot_plane.snapshot(&refs, target);
            assert_eq!(gossip.len(), snapshot.len(), "target {target}");
            for ((gid, gsrc), (sid, ssrc)) in gossip.iter().zip(snapshot.iter()) {
                assert_eq!(gid, sid);
                assert_eq!(gsrc.holder(), ssrc.holder());
                assert_eq!(gsrc.len(), ssrc.len());
                for d in ssrc.digests() {
                    assert!(gsrc.has_blob(d));
                    assert!(gsrc.fetch_blob(d).is_ok(), "no spurious retraction");
                }
            }
        }
    }

    #[test]
    fn bounded_view_keeps_the_largest_advertisements() {
        let caches = fleet();
        let mut plane = {
            let mut p = GossipPlane::new(4, u32::MAX, 1, 1, 42);
            let refs: Vec<&LayerCache> = caches.iter().collect();
            p.barrier_round(&refs);
            p
        };
        let refs: Vec<&LayerCache> = caches.iter().collect();
        // Device 1 knows holders 0 (2 layers) and 2 (1 layer); a view of
        // one keeps only the larger advertisement.
        let view = plane.mesh_view(&refs, 1);
        assert_eq!(view.len(), 1);
        assert_eq!(view[0].0, peer_source_id(DeviceId(0)));
        // The full view is a superset of the bounded one.
        let full = converged_plane(&caches).mesh_view(&refs, 1);
        assert_eq!(full.len(), 2);
        assert!(full.iter().any(|(id, _)| *id == view[0].0));
    }

    #[test]
    fn partial_selection_pins_the_full_sorts_view_at_every_bound() {
        // Many holders with colliding advertisement sizes: for every
        // view bound, the O(n) partial selection must keep exactly the
        // holders a stable full sort under (len desc, holder asc) keeps
        // — the PR 9 selection, pinned contents-for-contents.
        let n = 17;
        let mut caches = vec![LayerCache::new(DataSize::gigabytes(8.0)); n];
        for (holder, cache) in caches.iter_mut().enumerate().skip(1) {
            // Sizes 1..=4 repeating, so ties abound.
            for layer in 0..(1 + (holder - 1) % 4) {
                cache.insert(Digest::of(&[holder as u8, layer as u8]), DataSize::megabytes(5.0));
            }
        }
        let refs: Vec<&LayerCache> = caches.iter().collect();
        let target = 0;
        for bound in 0..=n as u32 {
            let mut plane = GossipPlane::new(n, u32::MAX, bound, 1, 7);
            plane.barrier_round(&refs);
            assert!(plane.converged());
            let view = plane.mesh_view(&refs, target);
            // Reference: the PR 9 full sort-and-truncate.
            let mut reference: Vec<(usize, usize)> = caches
                .iter()
                .enumerate()
                .filter(|&(holder, cache)| holder != target && !cache.is_empty())
                .map(|(holder, cache)| (holder, cache.len()))
                .collect();
            reference.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            reference.truncate(bound as usize);
            reference.sort_by_key(|&(holder, _)| holder);
            assert_eq!(
                view.iter().map(|(id, _)| *id).collect::<Vec<_>>(),
                reference
                    .iter()
                    .map(|&(holder, _)| peer_source_id(DeviceId(holder)))
                    .collect::<Vec<_>>(),
                "bound {bound}"
            );
            for ((_, src), &(holder, len)) in view.iter().zip(&reference) {
                assert_eq!(src.holder(), Some(DeviceId(holder)));
                assert_eq!(src.len(), len, "bound {bound} holder {holder}");
            }
        }
    }

    #[test]
    fn cached_views_replay_until_an_epoch_moves_then_rebuild() {
        let caches = fleet();
        let mut plane = converged_plane(&caches);
        let refs: Vec<&LayerCache> = caches.iter().collect();
        let first = plane.mesh_view(&refs, 1);
        // A barrier over the unchanged fleet moves no epoch: the cached
        // view replays bit-identically.
        plane.barrier_round(&refs);
        let replay = plane.mesh_view(&refs, 1);
        assert_eq!(first.len(), replay.len());
        for ((id_a, src_a), (id_b, src_b)) in first.iter().zip(replay.iter()) {
            assert_eq!(id_a, id_b);
            assert_eq!(src_a.holder(), src_b.holder());
            assert_eq!(src_a.len(), src_b.len());
        }
        // An out-of-band eviction + readvertise moves the generation;
        // the next materialization must see the fresh state, not the
        // cached copy.
        let mut caches = fleet();
        caches[0].evict_to(DataSize::ZERO);
        plane.readvertise(DeviceId(0), &caches[0]);
        let refs: Vec<&LayerCache> = caches.iter().collect();
        plane.barrier_round(&refs);
        let fresh = plane.mesh_view(&refs, 1);
        assert!(
            fresh.iter().all(|(id, _)| *id != peer_source_id(DeviceId(0))),
            "cached view outlived the epoch movement"
        );
    }

    #[test]
    fn stale_advertisement_is_materialized_as_a_retraction_not_a_serve() {
        let mut caches = fleet();
        let mut plane = converged_plane(&caches);
        // Holder 0 loses a layer *after* the barrier: remote views still
        // advertise it, but materialization must retract the dead digest
        // so the fetch fails over instead of serving vanished bytes.
        caches[0].evict_to(DataSize::megabytes(10.0));
        let survivor: Vec<Digest> = caches[0].digests().cloned().collect();
        assert_eq!(survivor.len(), 1);
        let refs: Vec<&LayerCache> = caches.iter().collect();
        let view = plane.mesh_view(&refs, 1);
        let holder0 = &view.iter().find(|(id, _)| *id == peer_source_id(DeviceId(0))).unwrap().1;
        assert_eq!(holder0.len(), 2, "stale ad still advertises both layers");
        for tag in [1u8, 2] {
            let d = digest(tag);
            assert!(holder0.has_blob(&d), "stale ad keeps answering has_blob");
            if survivor.contains(&d) {
                assert!(holder0.fetch_blob(&d).is_ok());
            } else {
                assert!(holder0.fetch_blob(&d).is_err(), "evicted layer fails over");
            }
        }
    }

    #[test]
    fn readvertisement_ages_the_evicted_layer_out_of_remote_views() {
        let mut caches = fleet();
        let mut plane = converged_plane(&caches);
        caches[0].evict_to(DataSize::ZERO);
        plane.readvertise(DeviceId(0), &caches[0]);
        assert!(!plane.converged(), "stale epoch copies remain remote");
        let refs: Vec<&LayerCache> = caches.iter().collect();
        plane.barrier_round(&refs);
        assert!(plane.converged());
        let view = plane.mesh_view(&refs, 1);
        assert!(
            view.iter().all(|(id, _)| *id != peer_source_id(DeviceId(0))),
            "empty holder no longer advertised anywhere"
        );
    }

    #[test]
    fn oracle_backend_materializes_identical_views() {
        // A fixed bounded, slow epidemic: the delta plane and the
        // clone-based reference plane materialize the same views at
        // every barrier, before and after convergence.
        let caches = fleet();
        let refs: Vec<&LayerCache> = caches.iter().collect();
        let mut delta = GossipPlane::new(4, 2, 2, 1, 42);
        let mut reference = ReferencePlane::new(4, 2, 2, 1, 42);
        for _ in 0..3 {
            delta.barrier_round(&refs);
            reference.barrier_round(&refs);
            assert_eq!(delta.converged(), reference.state.converged());
            assert_eq!(delta.rounds_run(), reference.state.rounds_run());
            for target in 0..4 {
                assert_eq!(
                    summarize(&delta.mesh_view(&refs, target)),
                    summarize(&reference.mesh_view(&refs, target)),
                    "target {target}"
                );
            }
        }
    }

    /// The reference plane: the clone-based exchange of
    /// [`deep_netsim::gossip::oracle`] behind the same advertise rule and
    /// the shared [`materialize`], with no view cache — every view is
    /// rebuilt from scratch.
    struct ReferencePlane {
        state: oracle::GossipState<PeerCacheSource>,
        fanout: u32,
        view_size: u32,
        rounds_per_wave: u32,
    }

    impl ReferencePlane {
        fn new(devices: usize, fanout: u32, view_size: u32, rounds: u32, seed: u64) -> Self {
            ReferencePlane {
                state: oracle::GossipState::new(devices, seed),
                fanout,
                view_size,
                rounds_per_wave: rounds,
            }
        }

        fn barrier_round(&mut self, caches: &[&LayerCache]) {
            for (j, cache) in caches.iter().enumerate() {
                if diverged(self.state.self_ad(j), cache) {
                    self.state.advertise(j, PeerCacheSource::for_holder(DeviceId(j), cache));
                }
            }
            self.state.run_rounds(self.rounds_per_wave, self.fanout);
        }

        fn readvertise(&mut self, holder: DeviceId, cache: &LayerCache) {
            self.state.advertise(holder.0, PeerCacheSource::for_holder(holder, cache));
        }

        fn mesh_view(
            &self,
            caches: &[&LayerCache],
            target: usize,
        ) -> Vec<(RegistryId, PeerCacheSource)> {
            materialize(self.state.known(target), self.view_size, caches, target)
        }
    }

    /// A view as comparable data: per source, its id, holder, advertised
    /// digests and the digests it still serves (advertised minus
    /// retracted), both sorted.
    type ViewSummary = Vec<(RegistryId, Option<DeviceId>, Vec<Digest>, Vec<Digest>)>;

    fn summarize(view: &[(RegistryId, PeerCacheSource)]) -> ViewSummary {
        view.iter()
            .map(|(id, src)| {
                let mut advertised: Vec<Digest> = src.digests().cloned().collect();
                advertised.sort();
                let retained =
                    advertised.iter().filter(|d| src.fetch_blob(d).is_ok()).cloned().collect();
                (*id, src.holder(), advertised, retained)
            })
            .collect()
    }

    /// Knob values the differential script sweeps: the minimum, a small
    /// bound, and unbounded. (Rounds per wave stop at 3: an unbounded
    /// round count would run 2³² rounds per barrier on either engine.)
    const KNOBS: [u32; 3] = [1, 2, u32::MAX];
    const ROUNDS: [u32; 3] = [1, 2, 3];

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        /// Random scripts of barrier rounds, cache inserts, evictions,
        /// readvertisements and mesh views drive the delta plane and the
        /// reference plane in lockstep: at every view the two agree on
        /// ids, holders, advertised and retained digests, convergence and
        /// the round count — which pins the epoch-vector exchange *and*
        /// the generation-keyed view cache against a cache-free rebuild.
        #[test]
        fn plane_matches_the_reference_plane_over_random_scripts(
            devices in 2usize..7,
            knobs in 0usize..27,
            seed in proptest::prelude::any::<u64>(),
            script in proptest::collection::vec(proptest::prelude::any::<u64>(), 1..80),
        ) {
            let (fanout, view_size, rounds) =
                (KNOBS[knobs % 3], KNOBS[knobs / 3 % 3], ROUNDS[knobs / 9]);
            let mut plane = GossipPlane::new(devices, fanout, view_size, rounds, seed);
            let mut reference = ReferencePlane::new(devices, fanout, view_size, rounds, seed);
            let mut caches = vec![LayerCache::new(DataSize::gigabytes(8.0)); devices];
            // Devices whose cache changed since the planes last saw it.
            let mut unseen = vec![false; devices];
            for op in script {
                let device = (op >> 8) as usize % devices;
                match op % 5 {
                    0 => {
                        let refs: Vec<&LayerCache> = caches.iter().collect();
                        plane.barrier_round(&refs);
                        reference.barrier_round(&refs);
                        unseen.fill(false);
                    }
                    // A pull lands a layer (one of a few shared tags, so
                    // evicted layers come back and holders overlap).
                    1 => {
                        caches[device].insert(digest((op >> 16) as u8 % 6), DataSize::megabytes(10.0));
                        unseen[device] = true;
                    }
                    // Cache pressure: the chaos path re-advertises the
                    // holder when anything was evicted.
                    2 => {
                        let keep = DataSize::megabytes(10.0 * ((op >> 16) % 4) as f64);
                        if !caches[device].evict_to(keep).is_empty() {
                            plane.readvertise(DeviceId(device), &caches[device]);
                            reference.readvertise(DeviceId(device), &caches[device]);
                            unseen[device] = false;
                        }
                    }
                    3 => {
                        plane.readvertise(DeviceId(device), &caches[device]);
                        reference.readvertise(DeviceId(device), &caches[device]);
                        unseen[device] = false;
                    }
                    _ => {
                        // Views materialize at barriers: changes the
                        // planes have not seen reach them first.
                        let refs: Vec<&LayerCache> = caches.iter().collect();
                        if unseen.iter().any(|&u| u) {
                            plane.barrier_round(&refs);
                            reference.barrier_round(&refs);
                            unseen.fill(false);
                        }
                        proptest::prelude::prop_assert_eq!(
                            summarize(&plane.mesh_view(&refs, device)),
                            summarize(&reference.mesh_view(&refs, device)),
                            "view of device {}", device
                        );
                        proptest::prelude::prop_assert_eq!(plane.converged(), reference.state.converged());
                        proptest::prelude::prop_assert_eq!(plane.rounds_run(), reference.state.rounds_run());
                    }
                }
            }
        }
    }
}
