//! The DEEP scheduler: nash-game-based joint registry/device assignment.
//!
//! Per the paper (Section III-E), deployment is "the prisoner dilemma
//! model within the nash equilibrium to optimize energy consumption
//! through cooperation between microservices and devices". Concretely:
//!
//! 1. **Per-microservice stage game** — walking the DAG in barrier order,
//!    each microservice plays a common-interest bimatrix game: the row
//!    player picks the registry `regist(m_i)`, the column player the
//!    device `sched(m_i)`, and both receive `−EC(m_i, r_g, d_j)` under the
//!    current cache/contention state. The game is solved by support
//!    enumeration (the Nashpy algorithm); among the equilibria DEEP plays
//!    the energy-minimal one.
//! 2. **Joint refinement** — the per-stage choices induce an n-player
//!    congestion game (same-wave pulls share registry→device routes, and
//!    sibling images share layers). One best-response walk in barrier
//!    order makes the profile a pure Nash equilibrium of it, skipped when
//!    the stage games certified a profile the warm start left alone.
//!    This is where the prisoner's-dilemma structure bites: two
//!    microservices that would individually pick the same route are
//!    pushed to split across registries.
//!
//! Both layers run over the *whole mesh*: the registry side of every
//! strategy ranges over [`Testbed::registry_choices`] (the paper pair plus
//! any regional mirrors), contention is charged per shared contention
//! resource — download routes per `(source, device)`, peer traffic on
//! the serving holder's uplink — a split pull loading each resource its
//! bytes traverse, and with [`DeepScheduler::with_peer_sharing`] the
//! payoffs price the per-holder peer split pulls a `peer_sharing`
//! executor will realise. The congestion structure is carried
//! explicitly: [`WaveRouteGame`] derives each wave's Rosenthal form
//! (player-specific resource subsets read off actual split-pull plans)
//! and the refinement warm-starts from its potential-descending
//! equilibrium whenever that strictly improves the exact cost. On the
//! paper's two-registry testbed all of this reduces to the seed
//! hub-vs-regional game exactly (regression-tested in
//! `tests/mesh_equilibria.rs`).
//!
//! ## Two solve paths: dense enumeration vs sparse descent
//!
//! The scheduler auto-selects between two equivalent solve paths by
//! joint strategy-space size (`registries × devices`, threshold
//! [`DeepScheduler::sparse_threshold`], default
//! [`DEFAULT_SPARSE_THRESHOLD`]):
//!
//! * **Dense (paper-sized, below the threshold)** — stage games build
//!   the full |R|×|D| bimatrix and run Nashpy-style support enumeration.
//!   This is the seed path, preserved bit for bit.
//! * **Sparse (fleet-scale, at or above it)** — stage-game payoffs fan
//!   out across devices on the rayon pool into a reused flat buffer
//!   (estimates are `&self`, so one context serves every worker), and
//!   the equilibrium cell is selected by a single scan replicating the
//!   dense tie-breaks (support enumeration lists pure equilibria
//!   row-major and `max_by` keeps the *last* maximum, so the scan keeps
//!   the last minimal-energy cell registry-major).
//!
//! Both paths run the congestion warm start and the incremental repair
//! on one descent engine, [`CongestionGame::sparse_descent`]: incremental
//! ΔΦ over per-resource load counters, trajectory-identical to dense
//! best-response dynamics (proven in `deep-game`'s parity tests, where
//! `best_response_dynamics` stays as the reference) but touching only
//! the deviator's resource subset per candidate.
//!
//! Refinement, exact cost and both equilibrium checks are one walker
//! (`DeepScheduler::walk`); stage games certify their pick (sparse: by
//! construction; dense: the chosen cell is within 1e-9 of the
//! bimatrix's maximum). The walk reproduces the seed's multi-pass
//! `app.ids()`-order refinement (a test oracle); the two could part
//! only when ids are not depth-sorted *and* candidates tie within 1e-9.
//! A 1,000-device, 10-registry synthetic fleet
//! ([`crate::continuum::synthetic_fleet_testbed`]) solves in well under
//! a second (`examples/fleet_scale.rs`, PERF.md).

use crate::model::{EstimationContext, ScenarioPricing};
use crate::Scheduler;
use deep_dataflow::{stages, Application, MicroserviceId};
use deep_game::{
    support_enumeration, Bimatrix, CongestionGame, DescentWorkspace, Matrix, MixedStrategy,
};
use deep_netsim::{DeviceId, RegistryId, Seconds};
use deep_simulator::{route_key, PeerDiscovery, Placement, RegistryChoice, Schedule, Testbed};
use rayon::prelude::*;
use std::collections::BTreeMap;

/// One strategy's loaded contention keys with their unloaded bucket
/// transfer times, as read off a pull plan.
type StrategyLoads = Vec<((RegistryId, usize), f64)>;

/// One deployment wave of the joint game in explicit Rosenthal form,
/// derived from actual split-pull plans.
///
/// Players are the wave's microservices; a strategy is a
/// `(registry, device)` placement; resources are the contention keys of
/// [`deep_simulator::route_key`] — registry→device download routes plus
/// peer-holder uplinks. Each strategy's resource *subset* is read off
/// the pull plan its bytes would realise
/// ([`EstimationContext::plan`]): the buckets at or above the
/// contention threshold, charged to the route or uplink that carries
/// them — so a split pull occupies several resources at once and a
/// fully-cached strategy occupies none. The per-resource cost is the
/// mean unloaded transfer time of the buckets observed on it, scaled by
/// the testbed's linear contention factor — anonymous in who loads the
/// resource, which is what keeps Rosenthal's exact potential (and hence
/// deterministic best-response convergence) valid.
pub struct WaveRouteGame {
    /// The wave's players, in commit order.
    pub members: Vec<MicroserviceId>,
    /// Strategy space per player (registry-major, matching the
    /// refinement's deviation scan).
    pub strategies: Vec<Vec<Placement>>,
    /// Resource index → contention key.
    pub resources: Vec<(RegistryId, usize)>,
    /// `uses[p][s]` = sorted resource subset strategy `s` of player `p`
    /// loads.
    pub uses: Vec<Vec<Vec<usize>>>,
    /// Mean unloaded transfer seconds observed per resource.
    pub base_cost: Vec<f64>,
    /// The testbed's linear contention coefficient.
    pub alpha: f64,
}

impl WaveRouteGame {
    /// Derive the wave's game from the context's current state (call at
    /// the wave barrier, before committing any member). With `parallel`
    /// the per-placement pull plans fan out over the rayon pool
    /// (order-preserving collect; the observed-cost sums still
    /// accumulate serially in strategy order, so every float matches
    /// the serial build exactly).
    fn build(
        ctx: &EstimationContext<'_>,
        testbed: &Testbed,
        members: &[MicroserviceId],
        parallel: bool,
    ) -> Self {
        let registries = ctx.registry_choices();
        let threshold = testbed.params.contention_threshold;
        let mut strategies: Vec<Vec<Placement>> = Vec::with_capacity(members.len());
        // (player, strategy) → loaded keys with their unloaded bucket
        // transfer times; resource indexing deferred until all keys are
        // known (BTreeMap keeps it deterministic).
        let mut plans: Vec<Vec<StrategyLoads>> = Vec::with_capacity(members.len());
        let mut observed: BTreeMap<(RegistryId, usize), (f64, usize)> = BTreeMap::new();
        for &id in members {
            let mut placements = Vec::new();
            for &registry in &registries {
                for &device in &ctx.admissible_devices(id) {
                    placements.push(Placement { registry, device });
                }
            }
            let strategy_loads = |placement: &Placement| -> StrategyLoads {
                let outcome = ctx.plan(id, placement.registry, placement.device);
                let mut loads = Vec::new();
                for bucket in &outcome.per_source {
                    if bucket.downloaded < threshold {
                        continue;
                    }
                    let key = route_key(bucket.source, placement.device);
                    let bw = testbed
                        .source_params(RegistryChoice::mesh(bucket.source), placement.device, 1.0)
                        .download_bw;
                    loads.push((key, deep_netsim::transfer_time(bucket.downloaded, bw).as_f64()));
                }
                loads
            };
            let mut per_strategy: Vec<StrategyLoads> = if parallel {
                placements.par_iter().map(strategy_loads).collect()
            } else {
                placements.iter().map(strategy_loads).collect()
            };
            for loads in &mut per_strategy {
                for &(key, secs) in loads.iter() {
                    let entry = observed.entry(key).or_insert((0.0, 0));
                    entry.0 += secs;
                    entry.1 += 1;
                }
                loads.sort_unstable_by_key(|(key, _)| *key);
            }
            plans.push(per_strategy);
            strategies.push(placements);
        }
        let resources: Vec<(RegistryId, usize)> = observed.keys().copied().collect();
        let base_cost: Vec<f64> =
            observed.values().map(|(sum, count)| sum / (*count).max(1) as f64).collect();
        let index: BTreeMap<(RegistryId, usize), usize> =
            resources.iter().enumerate().map(|(i, key)| (*key, i)).collect();
        let uses: Vec<Vec<Vec<usize>>> = plans
            .into_iter()
            .map(|per_strategy| {
                per_strategy
                    .into_iter()
                    .map(|loads| loads.into_iter().map(|(key, _)| index[&key]).collect())
                    .collect()
            })
            .collect();
        WaveRouteGame {
            members: members.to_vec(),
            strategies,
            resources,
            uses,
            base_cost,
            alpha: testbed.params.contention_alpha,
        }
    }

    /// The explicit congestion game (borrowing this description).
    pub fn game(&self) -> CongestionGame<'_> {
        CongestionGame::new(self.resources.len(), self.uses.clone(), |r, load| {
            self.base_cost[r] * (1.0 + self.alpha * (load - 1) as f64)
        })
    }

    /// Index of `placement` in player `p`'s strategy list.
    fn strategy_index(&self, p: usize, placement: Placement) -> usize {
        self.strategies[p]
            .iter()
            .position(|&s| s == placement)
            .expect("profile placements come from the same strategy space")
    }
}

/// The result of [`DeepScheduler::incremental_repair`]: either the
/// incumbent schedule polished by wave-local best-response dynamics, or
/// — when the incumbent no longer fits the mesh or the repair blows its
/// deviation budget — a full re-solve.
#[derive(Debug, Clone)]
pub struct RepairOutcome {
    /// The repaired (or re-solved) schedule.
    pub schedule: Schedule,
    /// Unilateral deviations the repair applied. 0 when the incumbent
    /// already sat at a wave-game equilibrium (or when every candidate
    /// move failed the exact-cost guard); counts the moves of the full
    /// best-response descent otherwise.
    pub deviations: usize,
    /// Whether the repair abandoned the incumbent and re-solved from
    /// scratch ([`Scheduler::schedule`]).
    pub fell_back: bool,
}

/// Strategy-space size (`registries × devices`) at which
/// [`DeepScheduler`] switches from dense support enumeration to the
/// sparse fleet-scale path. The paper testbeds top out at 5 registries
/// × 3 devices = 15 cells, comfortably below — so the default
/// preserves paper-sized behaviour bit for bit while a 1,000-device
/// fleet (≥ 2,000 cells) always takes the sparse path.
pub const DEFAULT_SPARSE_THRESHOLD: usize = 64;

/// Reused buffers for the hot solve loop: per-member admissible-device
/// lists, the flat stage-game payoff grid the rayon workers fill, the
/// walker's per-member costs and the sparse-descent counters. One
/// workspace serves a whole [`Scheduler::schedule`] call across members,
/// waves and walks; steady state allocates nothing (asserted in this module's
/// tests via capacity/pointer stability, the gf256 idiom).
#[derive(Debug, Default)]
struct FleetWorkspace {
    /// Admissible devices of the member being solved.
    devices: Vec<DeviceId>,
    /// Flat payoff/cost grid, device-major: `payoffs[d * R + r]`.
    payoffs: Vec<f64>,
    /// Per-member (by id) committed cost of the last walk.
    costs: Vec<f64>,
    /// Load counters + dirty queue for the sparse potential descent.
    descent: DescentWorkspace,
}

/// Which unilateral deviations [`DeepScheduler::walk`] prices.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Deviations {
    /// None: the walk only prices the profile (its exact cost).
    None,
    /// Each member's full `registries × devices` grid.
    All,
    /// `per_member` seeded draws per member.
    Sampled { per_member: usize, seed: u64 },
}

/// The DEEP scheduler.
#[derive(Debug, Clone)]
pub struct DeepScheduler {
    /// Run the joint best-response refinement after the sequential stage
    /// games (ablation toggle; `true` is the paper's method).
    pub refine: bool,
    /// Cap on best-response passes of the congestion warm start's descent
    /// and of [`DeepScheduler::incremental_repair`]'s wave-game dynamics
    /// (congestion games converge long before this). The joint
    /// refinement is a single walk and needs no cap.
    pub max_refine_passes: usize,
    /// Price peer-cache split pulls in the payoffs — set this iff the
    /// executor will run with
    /// [`deep_simulator::ExecutorConfig::peer_sharing`], so predictions
    /// keep matching measurements.
    pub peer_sharing: bool,
    /// Price expected deployment time under the testbed's fault model:
    /// every payoff folds failure probability × failover re-plan cost
    /// (surviving-source re-fetch + expected retry backoff) into `Td`,
    /// so the stage games and the joint refinement optimise `E[Td]`
    /// instead of best-case `Td`. Pair with a `fault_injection`
    /// executor; with a zero fault model the payoffs — and therefore
    /// the schedules — are byte-identical to the happy-path ones.
    pub price_faults: bool,
    /// Price scripted scenarios: payoffs become the Monte-Carlo `E[Td]`
    /// of [`ScenarioPricing`] — death frequency drawn over the
    /// scenario's replication seed stream at the executor's pull
    /// numbering, clock-gated on its scripted outage windows, so the
    /// equilibrium routes *around a window* instead of averaging over
    /// it. Supersedes `price_faults` when set; `None` preserves the
    /// closed-form pricing paths.
    pub scenario: Option<ScenarioPricing>,
    /// Warm-start the joint refinement from the explicit Rosenthal form:
    /// each wave's [`WaveRouteGame`] (resources = routes + peer uplinks,
    /// subsets read off actual split-pull plans) is driven to its own
    /// pure equilibrium by potential-descending best-response dynamics —
    /// closed-form per-resource costs, no full profile replays — and the
    /// resulting profile replaces the sequential one as the refinement's
    /// start *iff* it strictly improves the exact total cost. When the
    /// jump doesn't pay (the common case: the sequential stage games
    /// already sit at a congestion equilibrium) the refinement runs
    /// exactly as before, preserving the seed-parity contract.
    pub congestion_warm_start: bool,
    /// The estimator clock at which the deployment starts. An online
    /// plane admitting applications mid-soak sets this to the
    /// executor's wave clock so scenario-priced payoffs gate outage
    /// windows against *admission* time rather than t = 0. At
    /// [`Seconds::ZERO`] (the default) pricing is byte-identical to the
    /// one-shot path.
    pub start_clock: Seconds,
    /// The executor pull number the deployment starts at — the online
    /// analogue of `start_clock` for the per-pull fault seed stream.
    /// At 0 (the default) pricing is byte-identical to the one-shot
    /// path.
    pub start_pull: u64,
    /// Joint strategy-space size (`registries × devices`) at which the
    /// solver switches from dense support enumeration to the sparse
    /// fleet-scale path (parallel payoff fan-out + sparse potential
    /// descent). The default ([`DEFAULT_SPARSE_THRESHOLD`]) keeps every
    /// paper-sized testbed on the dense path bit for bit; set to `1` to
    /// force sparse everywhere (the parity tests do) or `usize::MAX` to
    /// force dense.
    pub sparse_threshold: usize,
    /// How the executor will discover peer holders — mirror of
    /// [`deep_simulator::ExecutorConfig::peer_discovery`]. Under
    /// [`PeerDiscovery::Gossip`] the payoffs run the same seeded
    /// epidemic over the estimated caches: a layer gossip hasn't
    /// propagated to a puller's (bounded) view is a layer the scheduler
    /// cannot count on. Only read when `peer_sharing` is on; the
    /// default ([`PeerDiscovery::Snapshot`]) preserves the omniscient
    /// pricing byte for byte.
    pub peer_discovery: PeerDiscovery,
    /// Seed of the priced gossip plane — must equal the executor's
    /// [`deep_simulator::ExecutorConfig::seed`] so both partner
    /// schedules (and therefore both view sequences) match exactly.
    pub discovery_seed: u64,
}

impl Default for DeepScheduler {
    fn default() -> Self {
        DeepScheduler {
            refine: true,
            max_refine_passes: 32,
            peer_sharing: false,
            price_faults: false,
            scenario: None,
            congestion_warm_start: true,
            start_clock: Seconds::ZERO,
            start_pull: 0,
            sparse_threshold: DEFAULT_SPARSE_THRESHOLD,
            peer_discovery: PeerDiscovery::Snapshot,
            discovery_seed: 0,
        }
    }
}

impl DeepScheduler {
    /// The paper's configuration.
    pub fn paper() -> Self {
        Self::default()
    }

    /// Sequential-only variant (no joint refinement) for ablations.
    pub fn without_refinement() -> Self {
        DeepScheduler { refine: false, ..Self::default() }
    }

    /// Peer-aware variant: payoffs price split pulls through the fleet's
    /// peer caches (pair with a `peer_sharing` executor).
    pub fn with_peer_sharing() -> Self {
        DeepScheduler { peer_sharing: true, ..Self::default() }
    }

    /// Failover-aware variant: payoffs price `E[Td]` under the testbed's
    /// fault model (pair with a `fault_injection` executor). Under churn
    /// the equilibrium reroutes risk-weighted bytes away from lossy
    /// sources; with a zero fault model it reproduces
    /// [`DeepScheduler::paper`] byte for byte.
    pub fn fault_aware() -> Self {
        DeepScheduler { price_faults: true, ..Self::default() }
    }

    /// Scenario-priced variant: payoffs are simulation-in-the-loop
    /// `E[Td]` under the testbed's full fault model *including its
    /// scripted outage windows*, Monte-Carlo averaged over the exact
    /// fault plans `draws` replications will realise (seeds
    /// `seed..seed + draws` — match the scenario's own seed stream).
    /// Pair with a `fault_injection` executor replaying the scenario;
    /// with no windows and zero rates the payoffs — and therefore the
    /// schedules — are byte-identical to [`DeepScheduler::paper`].
    pub fn scenario_priced(draws: u32, seed: u64) -> Self {
        DeepScheduler { scenario: Some(ScenarioPricing { draws, seed }), ..Self::default() }
    }

    /// A fresh estimation context under this scheduler's configuration.
    fn context<'t>(&self, testbed: &'t Testbed, app: &'t Application) -> EstimationContext<'t> {
        EstimationContext::new(testbed, app)
            .peer_sharing(self.peer_sharing)
            .peer_discovery(self.peer_discovery, self.discovery_seed)
            .price_faults(self.price_faults)
            .scenario_pricing(self.scenario)
            .at_clock(self.start_clock)
            .starting_pull(self.start_pull)
    }

    /// Does `testbed`'s joint strategy space put this scheduler on the
    /// sparse fleet-scale path?
    fn fleet_scale(&self, testbed: &Testbed) -> bool {
        testbed.registry_choices().len() * testbed.devices.len() >= self.sparse_threshold
    }

    /// Play the per-microservice stage games in barrier order. Returns
    /// the profile and whether every stage game certified its cell (then
    /// the refinement walk, pricing the same prefixes, would not move it).
    fn sequential_assignment(
        &self,
        app: &Application,
        testbed: &Testbed,
        ws: &mut FleetWorkspace,
    ) -> (Vec<Placement>, bool) {
        let mut ctx = self.context(testbed, app);
        let mut placements: Vec<Option<Placement>> = vec![None; app.len()];
        let mut certified = true;
        for stage in stages(app) {
            ctx.begin_wave();
            for &id in &stage.members {
                ctx.prefetch_manifests(id);
                let (placement, best_response) = self.stage_game(&ctx, testbed, id, ws);
                certified &= best_response;
                ctx.commit(id, placement);
                placements[id.0] = Some(placement);
            }
        }
        (placements.into_iter().map(|p| p.expect("all stages visited")).collect(), certified)
    }

    /// Solve one microservice's |R|×|D| common-interest game over every
    /// mesh registry × admissible device: dense support enumeration
    /// below the sparse threshold (the seed path, bit for bit), the
    /// parallel scan above it. Returns the cell and its certificate.
    fn stage_game(
        &self,
        ctx: &EstimationContext<'_>,
        testbed: &Testbed,
        id: MicroserviceId,
        ws: &mut FleetWorkspace,
    ) -> (Placement, bool) {
        let registries = ctx.registry_choices();
        ctx.admissible_devices_into(id, &mut ws.devices);
        assert!(
            !ws.devices.is_empty(),
            "no device admits microservice {id}: the testbed cannot host the application"
        );
        if self.fleet_scale(testbed) {
            // The `<=` scan lands on a global minimum: certified by
            // construction.
            return (Self::stage_game_sparse(ctx, id, &registries, ws), true);
        }
        let devices = &ws.devices;
        let payoff = Matrix::from_fn(registries.len(), devices.len(), |r, c| {
            -ctx.estimate(id, registries[r], devices[c]).ec.as_f64()
        });
        let game = Bimatrix::common_interest(payoff);
        let ((r, c), certified) = select_equilibrium(&game, support_enumeration(&game));
        (Placement { registry: registries[r], device: devices[c] }, certified)
    }

    /// The fleet-scale stage game: payoff evaluation fans out across
    /// devices on the rayon pool (the context is `&self`-shared — route
    /// loads, caches and peer snapshots are all read-only during
    /// estimation), then one serial scan selects the equilibrium cell
    /// with exactly the dense path's tie-breaks.
    ///
    /// Why a scan suffices: in a common-interest game the global payoff
    /// maximum is always a pure Nash equilibrium, support enumeration
    /// lists the pure equilibria first in row-major (registry-major)
    /// order, `max_by` keeps the *last* maximal entry, and `mode()`
    /// on a pure strategy is the identity — so the dense path selects
    /// the last global-minimum-energy cell in registry-major order,
    /// which is what the `<=` scan below keeps. (A degenerate mixed
    /// equilibrium tying the global optimum to the last bit could in
    /// principle round elsewhere; the parity suite has never produced
    /// one.)
    fn stage_game_sparse(
        ctx: &EstimationContext<'_>,
        id: MicroserviceId,
        registries: &[RegistryChoice],
        ws: &mut FleetWorkspace,
    ) -> Placement {
        Self::candidate_costs(ctx, id, registries, true, ws);
        let r_count = registries.len();
        let mut best = (f64::INFINITY, 0usize, 0usize);
        for ri in 0..r_count {
            for di in 0..ws.devices.len() {
                let cost = ws.payoffs[di * r_count + ri];
                if cost <= best.0 {
                    best = (cost, ri, di);
                }
            }
        }
        Placement { registry: registries[best.1], device: ws.devices[best.2] }
    }

    /// The per-wave explicit Rosenthal games of a profile: each wave's
    /// [`WaveRouteGame`] built at its barrier with every earlier wave of
    /// `profile` committed (so cache state and therefore the split-pull
    /// plans are the ones the profile realises).
    pub fn wave_route_games(
        &self,
        app: &Application,
        testbed: &Testbed,
        profile: &[Placement],
    ) -> Vec<WaveRouteGame> {
        let mut ctx = self.context(testbed, app);
        let mut out = Vec::new();
        let parallel = self.fleet_scale(testbed);
        for stage in stages(app) {
            ctx.begin_wave();
            out.push(WaveRouteGame::build(&ctx, testbed, &stage.members, parallel));
            for &id in &stage.members {
                ctx.commit(id, profile[id.0]);
            }
        }
        out
    }

    /// Potential-guided warm start: drive each wave's explicit
    /// congestion game to a pure equilibrium by potential descent
    /// (every accepted move decreases Rosenthal's exact potential by the
    /// deviator's improvement, so the descent terminates without any
    /// full-profile cost replay), then keep the jump only if the exact
    /// total cost strictly improves.
    fn potential_warm_start(
        &self,
        app: &Application,
        testbed: &Testbed,
        profile: &[Placement],
        ws: &mut FleetWorkspace,
    ) -> Vec<Placement> {
        let mut ctx = self.context(testbed, app);
        let mut out = profile.to_vec();
        let fleet = self.fleet_scale(testbed);
        for stage in stages(app) {
            ctx.begin_wave();
            for &id in &stage.members {
                ctx.prefetch_manifests(id);
            }
            let wave = WaveRouteGame::build(&ctx, testbed, &stage.members, fleet);
            if !wave.resources.is_empty() {
                let game = wave.game();
                let start: Vec<usize> = wave
                    .members
                    .iter()
                    .enumerate()
                    .map(|(p, &id)| wave.strategy_index(p, out[id.0]))
                    .collect();
                // Trajectory-identical to dense best-response dynamics
                // (deep-game parity tests), but touching only the
                // deviator's resource subset per candidate.
                let result = game.sparse_descent(start, self.max_refine_passes, &mut ws.descent);
                for (p, &id) in wave.members.iter().enumerate() {
                    out[id.0] = wave.strategies[p][result.profile[p]];
                }
            }
            for &id in &stage.members {
                ctx.commit(id, out[id.0]);
            }
        }
        if out == profile {
            return out;
        }
        if self.exact_cost(app, testbed, &out, ws)
            < self.exact_cost(app, testbed, profile, ws) - 1e-9
        {
            out
        } else {
            profile.to_vec()
        }
    }

    /// Incrementally re-equilibrate from an incumbent schedule.
    ///
    /// The continuous-arrival analogue of [`Scheduler::schedule`]: when
    /// the world shifts under a running deployment — a new application
    /// admitted, an outage window opening or clearing — the incumbent
    /// equilibrium is usually *almost* right, and repairing it against
    /// the delta is far cheaper than replaying the sequential stage
    /// games plus the joint refinement. The repair warm-starts
    /// best-response dynamics from the incumbent inside each wave's
    /// explicit Rosenthal game ([`WaveRouteGame`]) — closed form
    /// per-resource costs, no support enumeration, no candidate-grid
    /// walk — counting every unilateral deviation taken.
    /// The repaired profile is adopted only if it strictly improves the
    /// exact total cost (the same guard as the congestion warm start),
    /// so repairing an incumbent that is still an equilibrium is an
    /// exact no-op with zero deviations.
    ///
    /// Falls back to a full re-solve (`fell_back = true`) when the
    /// incumbent no longer fits the mesh (length mismatch, a registry
    /// that left the strategy space, an inadmissible device), when the
    /// descent spends more than `budget` deviations, or when it fails
    /// to converge within [`DeepScheduler::max_refine_passes`] passes.
    pub fn incremental_repair(
        &self,
        app: &Application,
        testbed: &Testbed,
        incumbent: &Schedule,
        budget: usize,
    ) -> RepairOutcome {
        let full = |deviations| RepairOutcome {
            schedule: self.schedule(app, testbed),
            deviations,
            fell_back: true,
        };
        if incumbent.len() != app.len() {
            return full(0);
        }
        let profile: Vec<Placement> = app.ids().map(|id| incumbent.placement(id)).collect();
        {
            // The incumbent must live inside today's strategy space:
            // mirrors may have joined or retired and admissibility may
            // have shifted since it was solved.
            let ctx = self.context(testbed, app);
            let registries = ctx.registry_choices();
            for id in app.ids() {
                let p = profile[id.0];
                if !registries.contains(&p.registry)
                    || !ctx.admissible_devices(id).contains(&p.device)
                {
                    return full(0);
                }
            }
        }
        let mut out = profile.clone();
        let mut deviations = 0usize;
        let mut descent = DescentWorkspace::default();
        let mut ctx = self.context(testbed, app);
        for stage in stages(app) {
            ctx.begin_wave();
            let wave =
                WaveRouteGame::build(&ctx, testbed, &stage.members, self.fleet_scale(testbed));
            if !wave.resources.is_empty() {
                let game = wave.game();
                let mut current: Vec<usize> = wave
                    .members
                    .iter()
                    .enumerate()
                    .map(|(p, &id)| wave.strategy_index(p, out[id.0]))
                    .collect();
                let mut converged = false;
                for _ in 0..self.max_refine_passes {
                    // A one-pass descent marks every player dirty, so it
                    // is exactly one dense best-response pass.
                    let step = game.sparse_descent(current.clone(), 1, &mut descent);
                    // One pass revises each player at most once, and a
                    // revision always changes the strategy, so the
                    // hamming distance counts the pass's moves exactly.
                    deviations += current.iter().zip(&step.profile).filter(|(a, b)| a != b).count();
                    if deviations > budget {
                        return full(deviations);
                    }
                    current = step.profile;
                    if step.converged {
                        converged = true;
                        break;
                    }
                }
                if !converged {
                    return full(deviations);
                }
                for (p, &id) in wave.members.iter().enumerate() {
                    out[id.0] = wave.strategies[p][current[p]];
                }
            }
            for &id in &stage.members {
                ctx.commit(id, out[id.0]);
            }
        }
        if out != profile {
            let ws = &mut FleetWorkspace::default();
            if self.exact_cost(app, testbed, &out, ws)
                >= self.exact_cost(app, testbed, &profile, ws) - 1e-9
            {
                // The wave-game moves don't pay under the exact payoffs
                // — keep the incumbent (the seed-parity guard).
                out = profile;
                deviations = 0;
            }
        }
        RepairOutcome { schedule: Schedule::new(out), deviations, fell_back: false }
    }

    /// The joint refinement: the congestion warm start, then one
    /// best-response walk unless the certified sequential profile came
    /// out of the warm start unmoved (the walk would not move it).
    fn refine_joint(
        &self,
        app: &Application,
        testbed: &Testbed,
        sequential: Vec<Placement>,
        certified: bool,
        ws: &mut FleetWorkspace,
    ) -> Vec<Placement> {
        let mut profile = if self.congestion_warm_start {
            self.potential_warm_start(app, testbed, &sequential, ws)
        } else {
            sequential.clone()
        };
        if !certified || profile != sequential {
            self.walk(app, testbed, &mut profile, Deviations::All, ws);
        }
        profile
    }

    /// The barrier-order best-response walker behind the joint
    /// refinement, the exact cost and both equilibrium checks: one live
    /// context walks `stages(app)`, moves each member to its best
    /// response among `deviations` (first strict improvement,
    /// registry-major) and commits it; returns the number of moves. A
    /// member's payoff depends only on placements committed *strictly
    /// before* it, so the live context prices a deviation exactly as a
    /// full-profile replay would, and each move is final once made.
    fn walk(
        &self,
        app: &Application,
        testbed: &Testbed,
        profile: &mut [Placement],
        deviations: Deviations,
        ws: &mut FleetWorkspace,
    ) -> usize {
        let registries = testbed.registry_choices();
        let r_count = registries.len();
        let fleet = self.fleet_scale(testbed);
        let mut ctx = self.context(testbed, app);
        ws.costs.clear();
        ws.costs.resize(app.len(), 0.0);
        let mut moves = 0;
        for stage in stages(app) {
            ctx.begin_wave();
            for &id in &stage.members {
                let current = profile[id.0];
                if deviations != Deviations::None {
                    ctx.prefetch_manifests(id);
                }
                let mut best =
                    (ctx.estimate(id, current.registry, current.device).ec.as_f64(), current);
                let mut consider = |candidate: Placement, cost: f64| {
                    if candidate != current && cost < best.0 - 1e-9 {
                        best = (cost, candidate);
                    }
                };
                match deviations {
                    Deviations::None => {}
                    Deviations::All => {
                        Self::candidate_costs(&ctx, id, &registries, fleet, ws);
                        for (ri, &registry) in registries.iter().enumerate() {
                            for (di, &device) in ws.devices.iter().enumerate() {
                                consider(
                                    Placement { registry, device },
                                    ws.payoffs[di * r_count + ri],
                                );
                            }
                        }
                    }
                    Deviations::Sampled { per_member, seed } => {
                        ctx.admissible_devices_into(id, &mut ws.devices);
                        // Draws follow `app.ids()` order at two splitmix64
                        // steps each: skip the earlier ids' steps.
                        let skipped = SPLITMIX_GAMMA.wrapping_mul((2 * per_member * id.0) as u64);
                        let mut state = seed.wrapping_add(skipped);
                        let mut draw = |n: usize| (splitmix64(&mut state) % n as u64) as usize;
                        for _ in 0..per_member {
                            let registry = registries[draw(r_count)];
                            let device = ws.devices[draw(ws.devices.len())];
                            let cost = ctx.estimate(id, registry, device).ec.as_f64();
                            consider(Placement { registry, device }, cost);
                        }
                    }
                }
                if best.1 != current {
                    moves += 1;
                    profile[id.0] = best.1;
                }
                ws.costs[id.0] = best.0;
                ctx.commit(id, profile[id.0]);
            }
        }
        moves
    }

    /// The exact total estimated energy of `profile`: a cost-only walk,
    /// summed in `app.ids()` order (the seed's rounding).
    fn exact_cost(
        &self,
        app: &Application,
        testbed: &Testbed,
        profile: &[Placement],
        ws: &mut FleetWorkspace,
    ) -> f64 {
        self.walk(app, testbed, &mut profile.to_vec(), Deviations::None, ws);
        ws.costs.iter().sum()
    }

    /// Fill `ws.payoffs` (device-major) with `id`'s estimated energy for
    /// every registry × admissible device under `ctx`'s committed
    /// prefix; `ws.devices` is refreshed first. Parallel over devices on
    /// the fleet path, serial otherwise — same floats either way.
    fn candidate_costs(
        ctx: &EstimationContext<'_>,
        id: MicroserviceId,
        registries: &[RegistryChoice],
        parallel: bool,
        ws: &mut FleetWorkspace,
    ) {
        ctx.admissible_devices_into(id, &mut ws.devices);
        let FleetWorkspace { devices, payoffs, .. } = ws;
        let r_count = registries.len();
        payoffs.clear();
        payoffs.resize(r_count * devices.len(), 0.0);
        let fill = |(row, &device): (&mut [f64], &DeviceId)| {
            for (ri, &registry) in registries.iter().enumerate() {
                row[ri] = ctx.estimate(id, registry, device).ec.as_f64();
            }
        };
        if parallel {
            payoffs.par_chunks_mut(r_count).zip(devices.par_iter()).for_each(fill);
        } else {
            payoffs.chunks_mut(r_count).zip(devices.iter()).for_each(fill);
        }
    }

    /// Is `schedule` a pure Nash equilibrium of the joint deployment game
    /// under *this* scheduler's configuration (mesh strategy space,
    /// peer-aware payoffs when enabled)?
    pub fn is_equilibrium(
        &self,
        app: &Application,
        testbed: &Testbed,
        schedule: &Schedule,
    ) -> bool {
        let mut profile: Vec<Placement> = app.ids().map(|id| schedule.placement(id)).collect();
        self.walk(app, testbed, &mut profile, Deviations::All, &mut FleetWorkspace::default()) == 0
    }

    /// Equilibrium check over a seeded sample of unilateral deviations
    /// instead of the full `registries × devices` grid — the fleet-scale
    /// verification: at 10³ devices the exhaustive check prices ~10⁴
    /// candidates per member, while a few dozen seeded samples per
    /// member already catch a non-equilibrium with overwhelming
    /// probability (any improving deviation that exists is sampled
    /// uniformly). Deterministic in `seed` (splitmix64 stream, drawn
    /// member by member in `app.ids()` order); the member's current
    /// placement resamples to a no-op.
    pub fn is_equilibrium_sampled(
        &self,
        app: &Application,
        testbed: &Testbed,
        schedule: &Schedule,
        deviations_per_member: usize,
        seed: u64,
    ) -> bool {
        let deviations = Deviations::Sampled { per_member: deviations_per_member, seed };
        let mut profile: Vec<Placement> = app.ids().map(|id| schedule.placement(id)).collect();
        self.walk(app, testbed, &mut profile, deviations, &mut FleetWorkspace::default()) == 0
    }

    /// Is `profile` a pure Nash equilibrium of the joint deployment game
    /// under the paper configuration? (Kept for tests and the experiment
    /// drivers; see [`DeepScheduler::is_equilibrium`] for peer-aware
    /// checks.)
    pub fn is_joint_equilibrium(app: &Application, testbed: &Testbed, schedule: &Schedule) -> bool {
        Self::paper().is_equilibrium(app, testbed, schedule)
    }
}

impl Scheduler for DeepScheduler {
    fn name(&self) -> &str {
        "DEEP"
    }

    fn schedule(&self, app: &Application, testbed: &Testbed) -> Schedule {
        let mut ws = FleetWorkspace::default();
        let (sequential, certified) = self.sequential_assignment(app, testbed, &mut ws);
        let profile = if self.refine {
            self.refine_joint(app, testbed, sequential, certified, &mut ws)
        } else {
            sequential
        };
        Schedule::new(profile)
    }
}

/// DEEP's pick among a common-interest stage game's equilibria: the best
/// shared payoff (= minimum energy), mixed profiles rounded to their
/// modal pure strategies. Certified iff no cell's cost (negated payoff)
/// undercuts the pick's by more than 1e-9, the walk's own move test.
fn select_equilibrium(
    game: &Bimatrix,
    equilibria: Vec<(MixedStrategy, MixedStrategy)>,
) -> ((usize, usize), bool) {
    let (x, y) = equilibria
        .into_iter()
        .max_by(|a, b| {
            let pa = game.expected_payoffs(&a.0, &a.1).0;
            let pb = game.expected_payoffs(&b.0, &b.1).0;
            pa.partial_cmp(&pb).expect("payoffs are not NaN")
        })
        .expect("common-interest games always have a pure equilibrium");
    let cell = (x.mode(), y.mode());
    // Payoffs are never NaN (asserted above), so `>=` negates the walk's `<`.
    (cell, -game.a.max() >= -game.a[cell] - 1e-9)
}

/// The splitmix64 state increment: one step adds it once.
const SPLITMIX_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// The splitmix64 step — the seeded stream behind
/// [`DeepScheduler::is_equilibrium_sampled`]'s deviation draws and the
/// synthetic fleet's heterogeneity jitter (no ambient RNG anywhere in
/// the solve path).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(SPLITMIX_GAMMA);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibration::calibrated_testbed;
    use deep_dataflow::apps;
    use deep_simulator::{RegistryChoice, DEVICE_MEDIUM, DEVICE_SMALL};

    fn placements(app: &Application, s: &Schedule) -> Vec<(String, Placement)> {
        app.ids().map(|id| (app.microservice(id).name.clone(), s.placement(id))).collect()
    }

    #[test]
    fn video_reproduces_table_iii() {
        // Table III, video processing: 83 % medium/Docker-Hub,
        // 17 % small/regional — i.e. transcode on the small device from
        // the regional registry, everything else medium from the Hub.
        let tb = calibrated_testbed();
        let app = apps::video_processing();
        let schedule = DeepScheduler::paper().schedule(&app, &tb);
        for (name, p) in placements(&app, &schedule) {
            if name == "transcode" {
                assert_eq!(p.device, DEVICE_SMALL, "{name}");
                assert_eq!(p.registry, RegistryChoice::Regional, "{name}");
            } else {
                assert_eq!(p.device, DEVICE_MEDIUM, "{name}");
                assert_eq!(p.registry, RegistryChoice::Hub, "{name}");
            }
        }
    }

    #[test]
    fn text_reproduces_table_iii() {
        // Table III, text processing: 17 % medium/Hub, 17 % medium/
        // regional, 66 % small/regional.
        let tb = calibrated_testbed();
        let app = apps::text_processing();
        let schedule = DeepScheduler::paper().schedule(&app, &tb);
        let by_name: std::collections::HashMap<String, Placement> =
            placements(&app, &schedule).into_iter().collect();
        // retrieve and decompress stay on the medium device, split across
        // registries (the PD outcome of the contended medium routes).
        let retrieve = by_name["retrieve"];
        let decompress = by_name["decompress"];
        assert_eq!(retrieve.device, DEVICE_MEDIUM);
        assert_eq!(decompress.device, DEVICE_MEDIUM);
        assert_ne!(retrieve.registry, decompress.registry, "one Hub, one regional");
        // Trainers and scorers run on the small device from the regional
        // registry.
        for name in ["ha-train", "la-train", "ha-score", "la-score"] {
            let p = by_name[name];
            assert_eq!(p.device, DEVICE_SMALL, "{name}");
            assert_eq!(p.registry, RegistryChoice::Regional, "{name}");
        }
    }

    #[test]
    fn deep_output_is_a_joint_nash_equilibrium() {
        let tb = calibrated_testbed();
        for app in apps::case_studies() {
            let schedule = DeepScheduler::paper().schedule(&app, &tb);
            assert!(
                DeepScheduler::is_joint_equilibrium(&app, &tb, &schedule),
                "{} schedule is not an equilibrium",
                app.name()
            );
        }
    }

    #[test]
    fn refinement_never_worsens_total_energy() {
        let tb = calibrated_testbed();
        for app in apps::case_studies() {
            let seq = DeepScheduler::without_refinement().schedule(&app, &tb);
            let refined = DeepScheduler::paper().schedule(&app, &tb);
            let cost = |s: &Schedule| -> f64 {
                let profile: Vec<Placement> = app.ids().map(|id| s.placement(id)).collect();
                DeepScheduler::paper().exact_cost(
                    &app,
                    &tb,
                    &profile,
                    &mut FleetWorkspace::default(),
                )
            };
            // Best-response refinement follows the exact potential of the
            // congestion game, which here equals each player's own cost
            // chain; the social cost of the refined profile must not
            // exceed the sequential one by more than the potential slack.
            assert!(
                cost(&refined) <= cost(&seq) + 1e-6,
                "{}: refined {} vs sequential {}",
                app.name(),
                cost(&refined),
                cost(&seq)
            );
        }
    }

    #[test]
    fn schedules_are_deterministic() {
        let tb = calibrated_testbed();
        let app = apps::text_processing();
        let a = DeepScheduler::paper().schedule(&app, &tb);
        let b = DeepScheduler::paper().schedule(&app, &tb);
        assert_eq!(a, b);
    }

    #[test]
    fn wave_route_game_subsets_come_from_split_pull_plans() {
        use deep_simulator::{peer_source_id, DEVICE_CLOUD};
        // Warm continuum fleet: the medium device already ran the video
        // app, so a cloud pull's plan rides the medium holder's uplink.
        let mut tb = crate::continuum::continuum_testbed();
        let app = apps::video_processing();
        let warm = Schedule::uniform(app.len(), RegistryChoice::Hub, DEVICE_MEDIUM);
        deep_simulator::execute(&mut tb, &app, &warm, &deep_simulator::ExecutorConfig::default())
            .unwrap();
        let sched = DeepScheduler::with_peer_sharing();
        let profile =
            vec![Placement { registry: RegistryChoice::Hub, device: DEVICE_CLOUD }; app.len()];
        let games = sched.wave_route_games(&app, &tb, &profile);
        let ha = app.by_name("ha-train").unwrap();
        let wave = games.iter().find(|g| g.members.contains(&ha)).unwrap();
        let p = wave.members.iter().position(|&m| m == ha).unwrap();
        let uplink = (peer_source_id(DEVICE_MEDIUM), DEVICE_MEDIUM.0);
        assert!(wave.resources.contains(&uplink), "uplink resource derived: {:?}", wave.resources);
        let uplink_idx = wave.resources.iter().position(|r| *r == uplink).unwrap();
        let strategy = |registry, device| {
            wave.strategies[p].iter().position(|pl| *pl == Placement { registry, device }).unwrap()
        };
        // (Hub, cloud): a genuine split plan — the big fleet-resident
        // layers load the medium holder's uplink while the small ones
        // ride the fast hub→cloud route (60 MB/s beats the peer's
        // first-use overhead below the break-even size), so the
        // strategy occupies BOTH resources at once: the player-specific
        // subset shape hand-built test games only imitated.
        let hub_cloud = (RegistryChoice::Hub.registry_id(), DEVICE_CLOUD.0);
        let hub_cloud_idx = wave.resources.iter().position(|r| *r == hub_cloud).unwrap();
        assert_eq!(
            wave.uses[p][strategy(RegistryChoice::Hub, DEVICE_CLOUD)],
            vec![hub_cloud_idx, uplink_idx]
        );
        // (Hub, medium): fully cached on the warm device — loads nothing.
        assert!(wave.uses[p][strategy(RegistryChoice::Hub, DEVICE_MEDIUM)].is_empty());
        // (Hub, small): an arm64 pull no amd64 holder can serve — the
        // whole image loads the hub→small download route.
        let hub_small = (RegistryChoice::Hub.registry_id(), DEVICE_SMALL.0);
        let hub_small_idx = wave.resources.iter().position(|r| *r == hub_small).unwrap();
        assert_eq!(wave.uses[p][strategy(RegistryChoice::Hub, DEVICE_SMALL)], vec![hub_small_idx]);
        // The derived game carries Rosenthal's exact potential: on every
        // unilateral deviation ΔΦ equals the deviator's Δcost, and
        // best-response dynamics converge deterministically.
        let game = wave.game();
        let mut profile = vec![0usize; wave.members.len()];
        loop {
            for q in 0..game.players() {
                for s in 0..game.strategy_count(q) {
                    let mut probe = profile.clone();
                    probe[q] = s;
                    let d_cost = game.player_cost(q, &probe) - game.player_cost(q, &profile);
                    let d_phi = game.potential(&probe) - game.potential(&profile);
                    assert!((d_cost - d_phi).abs() < 1e-9, "ΔΦ ≠ Δcost at {profile:?}");
                }
            }
            let mut q = 0;
            loop {
                if q == game.players() {
                    let a = game.best_response_dynamics(vec![0; game.players()], 64);
                    let b = game.best_response_dynamics(vec![0; game.players()], 64);
                    assert!(a.converged, "potential descent terminates");
                    assert!(game.is_equilibrium(&a.profile));
                    assert_eq!(a.profile, b.profile, "deterministic");
                    return;
                }
                profile[q] += 1;
                if profile[q] < game.strategy_count(q) {
                    break;
                }
                profile[q] = 0;
                q += 1;
            }
        }
    }

    #[test]
    fn warm_start_preserves_case_study_equilibria() {
        // The potential-guided jump is adopted only when it strictly
        // improves the exact cost; on the case studies the sequential
        // stage games already sit at the optimum, so warm-started and
        // plain refinement agree exactly (the seed-parity contract).
        let tb = calibrated_testbed();
        for app in apps::case_studies() {
            let on = DeepScheduler::paper().schedule(&app, &tb);
            let off = DeepScheduler { congestion_warm_start: false, ..DeepScheduler::default() }
                .schedule(&app, &tb);
            assert_eq!(on, off, "{}", app.name());
        }
    }

    #[test]
    fn repair_of_an_incumbent_equilibrium_is_a_no_op() {
        let tb = calibrated_testbed();
        for app in apps::case_studies() {
            let sched = DeepScheduler::paper();
            let incumbent = sched.schedule(&app, &tb);
            let out = sched.incremental_repair(&app, &tb, &incumbent, usize::MAX);
            assert!(!out.fell_back, "{}", app.name());
            assert_eq!(out.deviations, 0, "{}", app.name());
            assert_eq!(out.schedule, incumbent, "{}", app.name());
        }
    }

    #[test]
    fn repair_recovers_a_perturbed_incumbent_without_a_full_resolve() {
        // On the calibrated testbed contention is mild (alpha 0.1):
        // sharing the fast hub route at load 2 still beats any slower
        // exclusive route, so the wave games have nothing to repair.
        // Crank alpha until same-wave sharing genuinely hurts.
        let mut tb = calibrated_testbed();
        tb.params.contention_alpha = 2.0;
        let app = apps::text_processing();
        let sched = DeepScheduler::paper();
        // Everything on one route: the contended waves want to split.
        let contended = Schedule::uniform(app.len(), RegistryChoice::Hub, DEVICE_MEDIUM);
        let out = sched.incremental_repair(&app, &tb, &contended, usize::MAX);
        assert!(!out.fell_back);
        assert!(out.deviations > 0, "repair must move off the contended profile");
        let exact = |s: &Schedule| -> f64 {
            let p: Vec<Placement> = app.ids().map(|id| s.placement(id)).collect();
            sched.exact_cost(&app, &tb, &p, &mut FleetWorkspace::default())
        };
        assert!(
            exact(&out.schedule) < exact(&contended) - 1e-9,
            "repaired {} vs contended {}",
            exact(&out.schedule),
            exact(&contended)
        );
    }

    #[test]
    fn repair_falls_back_when_the_incumbent_does_not_fit_the_mesh() {
        let tb = calibrated_testbed();
        let app = apps::video_processing();
        let sched = DeepScheduler::paper();
        // Wrong length: stale incumbent from a different application.
        let stale = Schedule::uniform(app.len() + 1, RegistryChoice::Hub, DEVICE_MEDIUM);
        let out = sched.incremental_repair(&app, &tb, &stale, usize::MAX);
        assert!(out.fell_back);
        assert_eq!(out.schedule, sched.schedule(&app, &tb), "fallback is the full solve");
    }

    #[test]
    fn repair_with_a_zero_budget_falls_back_on_a_contended_incumbent() {
        let mut tb = calibrated_testbed();
        tb.params.contention_alpha = 2.0;
        let app = apps::text_processing();
        let sched = DeepScheduler::paper();
        // Everything on one route: the wave game wants deviations, and a
        // zero budget forbids all of them.
        let uniform = Schedule::uniform(app.len(), RegistryChoice::Hub, DEVICE_MEDIUM);
        let out = sched.incremental_repair(&app, &tb, &uniform, 0);
        assert!(out.fell_back, "zero budget must reject the descent");
        assert_eq!(out.schedule, sched.schedule(&app, &tb));
    }

    #[test]
    fn fleet_workspace_reuses_buffers_across_solves() {
        // The hot fleet loop must not allocate in steady state: after a
        // warm solve has sized the workspace, a second solve through the
        // same workspace reuses every buffer in place (the `gf256`
        // fingerprint idiom — pointer and capacity both pinned). The
        // refinement walk runs with the certificate skip forced off, so
        // it is pinned too.
        let tb = calibrated_testbed();
        let app = apps::text_processing();
        let sched = DeepScheduler { sparse_threshold: 1, ..DeepScheduler::paper() };
        let mut ws = FleetWorkspace::default();
        let solve = |ws: &mut FleetWorkspace| {
            let (sequential, _) = sched.sequential_assignment(&app, &tb, ws);
            sched.refine_joint(&app, &tb, sequential, false, ws)
        };
        let fingerprint = |ws: &FleetWorkspace| {
            (
                (ws.payoffs.as_ptr(), ws.payoffs.capacity()),
                (ws.devices.as_ptr(), ws.devices.capacity()),
                (ws.costs.as_ptr(), ws.costs.capacity()),
            )
        };
        let warm = solve(&mut ws);
        let fp = fingerprint(&ws);
        assert_eq!(warm, solve(&mut ws), "workspace reuse must not change the schedule");
        assert_eq!(fp, fingerprint(&ws), "steady-state solve reallocated a workspace buffer");
    }

    #[test]
    fn parallel_candidate_costs_match_serial_exactly() {
        // fleet.rs::rayon_must_not_change_results, one level down: at
        // every member of the walker's live barrier context, the rayon
        // fan-out over devices must price every (registry, device)
        // candidate bit-for-bit like the serial map.
        let tb = calibrated_testbed();
        let sched = DeepScheduler::paper();
        let registries = tb.registry_choices();
        for app in apps::case_studies() {
            let schedule = sched.schedule(&app, &tb);
            let mut ctx = sched.context(&tb, &app);
            for stage in stages(&app) {
                ctx.begin_wave();
                for &id in &stage.members {
                    ctx.prefetch_manifests(id);
                    let mut serial = FleetWorkspace::default();
                    let mut parallel = FleetWorkspace::default();
                    DeepScheduler::candidate_costs(&ctx, id, &registries, false, &mut serial);
                    DeepScheduler::candidate_costs(&ctx, id, &registries, true, &mut parallel);
                    assert_eq!(serial.devices, parallel.devices, "{} {id:?}", app.name());
                    assert_eq!(
                        serial.payoffs.iter().map(|c| c.to_bits()).collect::<Vec<_>>(),
                        parallel.payoffs.iter().map(|c| c.to_bits()).collect::<Vec<_>>(),
                        "{} {id:?}",
                        app.name()
                    );
                    ctx.commit(id, schedule.placement(id));
                }
            }
        }
    }

    #[test]
    fn sampled_equilibrium_check_agrees_with_exhaustive() {
        let mut tb = calibrated_testbed();
        tb.params.contention_alpha = 2.0;
        let app = apps::text_processing();
        let sched = DeepScheduler::paper();
        let equilibrium = sched.schedule(&app, &tb);
        assert!(sched.is_equilibrium(&app, &tb, &equilibrium));
        assert!(sched.is_equilibrium_sampled(&app, &tb, &equilibrium, 16, 7));
        // Everything piled on one contended route: improving deviations
        // exist for several members, so a 64-draw sample over the small
        // candidate grid cannot miss all of them.
        let contended = Schedule::uniform(app.len(), RegistryChoice::Hub, DEVICE_MEDIUM);
        assert!(!sched.is_equilibrium(&app, &tb, &contended));
        assert!(!sched.is_equilibrium_sampled(&app, &tb, &contended, 64, 7));
    }

    /// The oracles' prefix replay: `profile`'s barrier walk up to (not
    /// including) `target`'s commit, one fresh context per call.
    fn oracle_context<'t>(
        sched: &DeepScheduler,
        app: &'t Application,
        tb: &'t Testbed,
        profile: &[Placement],
        target: MicroserviceId,
    ) -> EstimationContext<'t> {
        let mut ctx = sched.context(tb, app);
        for stage in stages(app) {
            ctx.begin_wave();
            for &id in &stage.members {
                if id == target {
                    return ctx;
                }
                ctx.commit(id, profile[id.0]);
            }
        }
        unreachable!("target microservice not in the application")
    }

    /// The refinement the walker replaced, kept as its oracle:
    /// Gauss–Seidel best-response passes in `app.ids()` order, each
    /// member priced by direct estimates against a fresh prefix replay,
    /// until a pass moves nobody.
    fn oracle_refine(
        sched: &DeepScheduler,
        app: &Application,
        tb: &Testbed,
        mut profile: Vec<Placement>,
    ) -> Vec<Placement> {
        let registries = tb.registry_choices();
        for _ in 0..sched.max_refine_passes {
            let mut changed = false;
            for target in app.ids() {
                let ctx = oracle_context(sched, app, tb, &profile, target);
                let current = profile[target.0];
                let price = |p: Placement| ctx.estimate(target, p.registry, p.device).ec.as_f64();
                let mut best = (price(current), current);
                for &registry in &registries {
                    for device in ctx.admissible_devices(target) {
                        let candidate = Placement { registry, device };
                        let cost = price(candidate);
                        if candidate != current && cost < best.0 - 1e-9 {
                            best = (cost, candidate);
                        }
                    }
                }
                changed |= best.1 != current;
                profile[target.0] = best.1;
            }
            if !changed {
                break;
            }
        }
        profile
    }

    /// The sampled check the walker replaced, kept as its oracle: one
    /// splitmix64 stream drawn member by member in `app.ids()` order,
    /// each member priced against a fresh prefix replay.
    fn oracle_sampled(
        sched: &DeepScheduler,
        app: &Application,
        tb: &Testbed,
        profile: &[Placement],
        per_member: usize,
        seed: u64,
    ) -> bool {
        let registries = tb.registry_choices();
        let mut state = seed;
        for id in app.ids() {
            let ctx = oracle_context(sched, app, tb, profile, id);
            let devices = ctx.admissible_devices(id);
            let price = |p: Placement| ctx.estimate(id, p.registry, p.device).ec.as_f64();
            let current = profile[id.0];
            for _ in 0..per_member {
                let registry =
                    registries[(splitmix64(&mut state) % registries.len() as u64) as usize];
                let device = devices[(splitmix64(&mut state) % devices.len() as u64) as usize];
                let candidate = Placement { registry, device };
                if candidate != current && price(candidate) < price(current) - 1e-9 {
                    return false;
                }
            }
        }
        true
    }

    #[test]
    fn sampled_check_draws_the_oracles_deviations() {
        // One draw per member over the equilibrium with one sink moved
        // off its best cell: whether a seed catches an improving
        // deviation depends on exactly which cells it draws, so
        // agreeing on every seed — with both verdicts occurring — pins
        // the draw sequence.
        let tb = calibrated_testbed();
        let app = apps::text_processing();
        let sched = DeepScheduler::paper();
        let equilibrium = sched.schedule(&app, &tb);
        let mut profile: Vec<Placement> = app.ids().map(|id| equilibrium.placement(id)).collect();
        profile[app.by_name("la-score").unwrap().0] =
            Placement { registry: RegistryChoice::Hub, device: DEVICE_MEDIUM };
        let perturbed = Schedule::new(profile.clone());
        let verdicts: Vec<bool> = (0..64)
            .map(|seed| {
                let walked = sched.is_equilibrium_sampled(&app, &tb, &perturbed, 1, seed);
                assert_eq!(walked, oracle_sampled(&sched, &app, &tb, &profile, 1, seed), "{seed}");
                walked
            })
            .collect();
        assert!(verdicts.contains(&true) && verdicts.contains(&false), "{verdicts:?}");
    }

    /// Walker ≡ oracle on serialized schedules, from every start the
    /// refinement can be handed: the sequential profile, the warm
    /// start's output and a forced jump (a seeded half of the members
    /// moved to random admissible cells). Also checks `schedule()`
    /// against the oracle pipeline. Returns whether the warm start
    /// jumped by itself.
    fn assert_walker_matches_oracle(
        sched: &DeepScheduler,
        app: &Application,
        tb: &Testbed,
        seed: u64,
    ) -> bool {
        let json = |p: &[Placement]| serde_json::to_string(&Schedule::new(p.to_vec())).unwrap();
        let mut ws = FleetWorkspace::default();
        let (sequential, _) = sched.sequential_assignment(app, tb, &mut ws);
        let warm = sched.potential_warm_start(app, tb, &sequential, &mut ws);
        let ctx = sched.context(tb, app);
        let registries = tb.registry_choices();
        let mut state = seed;
        let mut draw = |n: usize| (splitmix64(&mut state) % n as u64) as usize;
        let mut jump = sequential.clone();
        for id in app.ids() {
            if draw(2) == 0 {
                let devices = ctx.admissible_devices(id);
                jump[id.0] = Placement {
                    registry: registries[draw(registries.len())],
                    device: devices[draw(devices.len())],
                };
            }
        }
        for start in [&sequential, &warm, &jump] {
            let mut walked = start.clone();
            sched.walk(app, tb, &mut walked, Deviations::All, &mut ws);
            let oracle = oracle_refine(sched, app, tb, start.clone());
            assert_eq!(json(&walked), json(&oracle), "{} seed {seed}", app.name());
        }
        let oracle = oracle_refine(sched, app, tb, warm.clone());
        let scheduled = sched.schedule(app, tb);
        assert_eq!(serde_json::to_string(&scheduled).unwrap(), json(&oracle), "{}", app.name());
        warm != sequential
    }

    /// `app` rebuilt with its ids in reverse, so sinks come first and
    /// `app.ids()` order is not barrier order.
    fn reversed_ids(app: &Application) -> Application {
        let mut b = deep_dataflow::ApplicationBuilder::new(app.name());
        for i in (0..app.len()).rev() {
            let ms = app.microservice(MicroserviceId(i));
            b.microservice(ms.name.clone(), ms.image_size, ms.requirements);
        }
        for f in app.flows() {
            let name = |id: MicroserviceId| app.microservice(id).name.as_str();
            b.flow(name(f.from), name(f.to), f.size);
        }
        b.build().unwrap()
    }

    #[test]
    fn walker_matches_oracle_on_case_studies() {
        let tb = calibrated_testbed();
        let continuum = crate::continuum::continuum_testbed();
        let sparse = DeepScheduler { sparse_threshold: 1, ..DeepScheduler::paper() };
        for app in apps::case_studies() {
            assert_walker_matches_oracle(&DeepScheduler::paper(), &app, &tb, 1);
            assert_walker_matches_oracle(&sparse, &app, &tb, 2);
            assert_walker_matches_oracle(&DeepScheduler::with_peer_sharing(), &app, &continuum, 3);
            let reversed = reversed_ids(&app);
            assert_walker_matches_oracle(&DeepScheduler::paper(), &reversed, &tb, 4);
        }
    }

    #[test]
    fn walker_matches_oracle_where_the_warm_start_jumps() {
        // Heavy same-wave contention (alpha 8) makes the Rosenthal
        // descent beat these generated apps' greedy stage games, so the
        // refinement starts from a genuine jump (seed 63 only once its
        // ids are reversed: the in-wave commit order changes).
        let mut tb = calibrated_testbed();
        tb.params.contention_alpha = 8.0;
        let sparse = DeepScheduler { sparse_threshold: 1, ..DeepScheduler::paper() };
        for seed in [8, 26, 56, 63, 98] {
            let app = deep_dataflow::DagGenerator::default().generate(seed);
            tb.publish_application(&app);
            let app = if seed == 63 { reversed_ids(&app) } else { app };
            for sched in [&DeepScheduler::paper(), &sparse] {
                assert!(assert_walker_matches_oracle(sched, &app, &tb, seed), "seed {seed} jumps");
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(12))]

        /// Generated DAGs, depth-sorted and with reversed ids, on the
        /// paper testbed (dense) and on a small synthetic fleet (forced
        /// sparse, scenario-priced, gossip-discovered peers).
        #[test]
        fn walker_matches_oracle_on_generated_apps_and_fleets(seed in 0u64..1_000_000) {
            let app = deep_dataflow::DagGenerator::default().generate(seed);
            let mut tb = calibrated_testbed();
            tb.publish_application(&app);
            let mut fleet = crate::continuum::synthetic_fleet_testbed(6, 2, seed);
            fleet.publish_application(&app);
            let fleet_sched = DeepScheduler {
                sparse_threshold: 1,
                peer_sharing: true,
                peer_discovery: PeerDiscovery::Gossip {
                    fanout: 2,
                    view_size: 3,
                    rounds_per_wave: 1,
                },
                discovery_seed: seed,
                ..DeepScheduler::scenario_priced(4, seed)
            };
            for app in [reversed_ids(&app), app] {
                assert_walker_matches_oracle(&DeepScheduler::paper(), &app, &tb, seed);
                assert_walker_matches_oracle(&fleet_sched, &app, &fleet, seed);
            }
        }
    }

    #[test]
    fn certified_sequential_profiles_walk_with_zero_moves() {
        let mut tb = calibrated_testbed();
        let mut apps_under_test = apps::case_studies();
        apps_under_test
            .extend((0..6).map(|seed| deep_dataflow::DagGenerator::default().generate(seed)));
        for app in &apps_under_test {
            tb.publish_application(app);
            for sched in [
                DeepScheduler::paper(),
                DeepScheduler { sparse_threshold: 1, ..DeepScheduler::paper() },
            ] {
                let mut ws = FleetWorkspace::default();
                let (mut profile, certified) = sched.sequential_assignment(app, &tb, &mut ws);
                assert!(certified, "{}", app.name());
                let moves = sched.walk(app, &tb, &mut profile, Deviations::All, &mut ws);
                assert_eq!(moves, 0, "{}", app.name());
            }
        }
    }

    #[test]
    fn uncertified_stage_games_fall_through_to_the_walk() {
        // A coordination game whose (1, 1) cell is a pure equilibrium
        // but not the global optimum (0, 0): offered only that
        // equilibrium, the selection cannot certify it.
        let game =
            Bimatrix::common_interest(Matrix::from_rows(&[vec![-1.0, -5.0], vec![-5.0, -2.0]]));
        let pure = |i| MixedStrategy::pure(i, 2);
        assert_eq!(select_equilibrium(&game, vec![(pure(1), pure(1))]), ((1, 1), false));
        assert_eq!(select_equilibrium(&game, support_enumeration(&game)), ((0, 0), true));
        // A profile the stage games would never produce: everything on
        // one contended route. Trusting a certificate returns it as is;
        // without one the walk moves it to an equilibrium.
        let mut tb = calibrated_testbed();
        tb.params.contention_alpha = 2.0;
        let app = apps::text_processing();
        let sched = DeepScheduler { congestion_warm_start: false, ..DeepScheduler::paper() };
        let contended =
            vec![Placement { registry: RegistryChoice::Hub, device: DEVICE_MEDIUM }; app.len()];
        let mut ws = FleetWorkspace::default();
        assert_eq!(sched.refine_joint(&app, &tb, contended.clone(), true, &mut ws), contended);
        let walked = sched.refine_joint(&app, &tb, contended.clone(), false, &mut ws);
        assert_ne!(walked, contended);
        assert!(sched.is_equilibrium(&app, &tb, &Schedule::new(walked)));
    }

    #[test]
    fn generated_apps_schedule_without_panicking() {
        let mut tb = calibrated_testbed();
        let gen = deep_dataflow::DagGenerator::default();
        for seed in 0..5 {
            let app = gen.generate(seed);
            tb.publish_application(&app);
            let schedule = DeepScheduler::paper().schedule(&app, &tb);
            assert_eq!(schedule.len(), app.len(), "seed {seed}");
        }
    }
}
