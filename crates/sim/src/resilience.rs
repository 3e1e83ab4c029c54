//! Resilience experiments: delay injection, idle-wave analysis and
//! dynamic re-mapping.
//!
//! * **Delay injection** — two deterministic copies of the same machine
//!   run in lockstep, one of them suffering a single transient router
//!   stall at a chosen node, and their per-node transaction completions
//!   are differenced over time. Both copies are bit-identical until the
//!   injection cycle, so every difference *is* the disturbance: the
//!   per-ring deficits of a [`DisturbanceCurve`] show how far the delay
//!   propagates through the fabric (via backpressure and coherence
//!   dependences) and how quickly the completion rate recovers once the
//!   stall clears. The paper's open-network model predicts that a
//!   transient overload below saturation stays localized, with queue
//!   backlogs draining geometrically; [`DisturbanceCurve::ring_peaks`]
//!   and [`DisturbanceCurve::recovery_cycle`] quantify the two decays
//!   (see `examples/delay_propagation.rs`).
//!
//! * **Idle-wave analysis** — [`run_idle_wave`] runs that experiment and
//!   measures, beyond the raw curve, *how the disturbance travels*: its
//!   propagation speed across distance rings, the distance at which it
//!   decays below a threshold, the ring-to-ring damping factor, and —
//!   via the fabric's per-message latency breakdown — which latency
//!   component (source queueing, injection, contention, ejection, drain)
//!   absorbed the delay. This mirrors the idle-wave methodology of Afzal
//!   et al. applied to the paper's closed-loop transaction machine:
//!   locality and context count `p` set how much slack neighbouring
//!   nodes have to damp the wave.
//!
//! * **Dynamic re-mapping** — a [`WorkStealingPolicy`] installed with
//!   [`Machine::set_migration`] lets the machine react to wedged
//!   transactions (the watchdog's stuck-transaction signal observed
//!   per-context) by migrating the blocked thread to another node, paying
//!   a steal latency, after which the abandoned memory operation is
//!   re-issued from the new node — whose route to the same home may avoid
//!   the dead resource entirely. This is latency-bound work stealing in
//!   the spirit of Khatiri et al. [`run_degradation`] sweeps permanently
//!   killed links and reports the graceful-degradation curve: completed
//!   work per surviving node as links die.

use crate::error::SimError;
use crate::fit::fit_line;
use crate::machine::{Machine, SimConfig};
use crate::mapping::Mapping;
use commloc_net::{DetRng, Direction, FaultPlan, NodeId, Topology};

/// Parameters of a delay-injection experiment.
#[derive(Debug, Clone)]
pub struct DisturbanceConfig {
    /// Base machine configuration. Its `fault_plan` (if any) is composed
    /// into *both* lockstep machines as the ambient fault environment;
    /// the experiment adds its own single router stall on top for the
    /// disturbed copy only.
    pub sim: SimConfig,
    /// Node whose router is stalled.
    pub victim: usize,
    /// Network cycle at which the stall begins (give the machine time to
    /// reach steady state first).
    pub inject_cycle: u64,
    /// Length of the stall in network cycles.
    pub stall_window: u64,
    /// Total network cycles to simulate.
    pub horizon: u64,
    /// Sampling-bucket width in network cycles.
    pub bucket: u64,
}

/// The measured disturbance: per-ring, per-bucket completion deficits.
#[derive(Debug, Clone)]
pub struct DisturbanceCurve {
    /// The stalled node.
    pub victim: NodeId,
    /// Injection cycle.
    pub inject_cycle: u64,
    /// Stall length.
    pub stall_window: u64,
    /// Bucket width.
    pub bucket: u64,
    /// `rings[d][i]`: completions the fault-free run achieved minus the
    /// disturbed run, summed over nodes at torus distance `d` from the
    /// victim, during bucket `i`. Positive = the disturbed machine fell
    /// behind there.
    pub rings: Vec<Vec<i64>>,
    /// Number of nodes at each distance (for per-node normalization).
    pub ring_sizes: Vec<usize>,
}

impl DisturbanceCurve {
    /// Number of sampling buckets.
    pub fn buckets(&self) -> usize {
        self.rings.first().map_or(0, Vec::len)
    }

    /// Global completion deficit per bucket.
    pub fn global(&self) -> Vec<i64> {
        (0..self.buckets())
            .map(|i| self.rings.iter().map(|r| r[i]).sum())
            .collect()
    }

    /// Peak per-node deficit of each ring over the whole run — the
    /// disturbance's spatial profile. A localized disturbance decays
    /// monotonically (modulo noise) with distance.
    pub fn ring_peaks(&self) -> Vec<f64> {
        self.rings
            .iter()
            .zip(&self.ring_sizes)
            .map(|(ring, &size)| {
                let peak = ring.iter().copied().max().unwrap_or(0);
                peak as f64 / size.max(1) as f64
            })
            .collect()
    }

    /// First bucket-start cycle at or after the stall's end where the
    /// global per-bucket deficit has returned to zero (or surplus), i.e.
    /// the machine's completion *rate* has recovered. `None` if it never
    /// recovers within the horizon.
    pub fn recovery_cycle(&self) -> Option<u64> {
        let stall_end = self.inject_cycle + self.stall_window;
        self.global()
            .iter()
            .enumerate()
            .map(|(i, &d)| (i as u64 * self.bucket, d))
            .find(|&(start, d)| start >= stall_end && d <= 0)
            .map(|(start, _)| start)
    }
}

/// One completed thread migration (diagnostic record).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrationRecord {
    /// Network cycle at which the thread was parked and its transaction
    /// abandoned.
    pub cycle: u64,
    /// Node the thread left.
    pub from: NodeId,
    /// Node the thread was migrated to.
    pub to: NodeId,
    /// Hardware context the thread occupied on the source node.
    pub context: usize,
    /// The abandoned (and re-issued) transaction id.
    pub txn: u64,
}

/// What the policy sees when placing a wedged thread. Per-node slices
/// are indexed by compute node.
#[derive(Debug)]
pub struct MigrationView<'a> {
    /// Node whose context is wedged.
    pub victim: usize,
    /// The machine's fabric (for distance-aware placement).
    pub topology: &'a Topology,
    /// Nodes that currently hold at least one wedged transaction.
    pub wedged: &'a [bool],
    /// Threads currently assigned to each node (in-flight migrations
    /// count at their destination).
    pub load: &'a [usize],
    /// Nodes owning a permanently killed output link.
    pub killed: &'a [bool],
}

/// Work-stealing migration, installed with [`Machine::set_migration`]:
/// a thread whose transaction has been outstanding for
/// `wedge_threshold` cycles moves to the least-loaded healthy node (ties
/// broken by fabric distance from the victim, then node id), paying
/// `steal_latency` cycles in flight.
///
/// The machine offers wedged contexts at every processor boundary once
/// the oldest outstanding transaction is at least `wedge_threshold`
/// cycles old, in ascending `(node, context)` order. Nodes currently
/// wedged or owning a killed output link are excluded as destinations;
/// nodes a thread merely migrated *from* earlier stay eligible — during
/// a long transient stall a thread may legitimately bounce, and
/// shrinking the destination pool permanently would strand it. The
/// `max_migrations` budget bounds total moves so a hopeless thread
/// cannot ping-pong forever.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkStealingPolicy {
    /// Network cycles a migrating thread spends in flight before its
    /// destination adopts it.
    pub steal_latency: u64,
    /// Age (network cycles) at which an outstanding transaction counts
    /// as wedged. Zero reads as one; `u64::MAX` never fires, which
    /// leaves the machine bit-exact with one carrying no policy.
    pub wedge_threshold: u64,
    /// Total migrations the machine may perform.
    pub max_migrations: u64,
}

impl WorkStealingPolicy {
    /// The destination for the view's wedged thread, or `None` when no
    /// node is eligible (the thread keeps waiting and is offered again).
    pub fn choose_destination(&self, view: &MigrationView<'_>) -> Option<NodeId> {
        let victim = NodeId(view.victim);
        (0..view.load.len())
            .filter(|&n| n != view.victim && !view.wedged[n] && !view.killed[n])
            .min_by_key(|&n| (view.load[n], view.topology.distance(victim, NodeId(n)), n))
            .map(NodeId)
    }
}

/// The labelled per-message latency components the idle-wave analysis
/// attributes absorption to (order matches [`IdleWave::absorption`]).
pub const ABSORPTION_COMPONENTS: [&str; 6] = [
    "queue",
    "injection",
    "free_hop",
    "contended_hop",
    "ejection",
    "drain",
];

/// The measured idle wave: the disturbance curve plus where the injected
/// delay was absorbed.
#[derive(Debug, Clone)]
pub struct IdleWave {
    /// Per-ring, per-bucket completion deficits (the raw wave).
    pub curve: DisturbanceCurve,
    /// Extra latency cycles the disturbed run accumulated over the
    /// baseline, per fabric latency component, in
    /// [`ABSORPTION_COMPONENTS`] order. A large `queue` entry means the
    /// delay was absorbed in source queues (local damping); large
    /// `contended_hop` means it travelled the fabric as contention.
    pub absorption: Vec<(&'static str, i64)>,
}

impl IdleWave {
    /// Wave-front propagation speed in hops per network cycle: the slope
    /// of a least-squares line through `(first-deficit cycle, ring
    /// distance)` for every ring the wave reached. `None` when the wave
    /// reached fewer than two rings (nothing to fit) or the fit is
    /// degenerate.
    pub fn propagation_speed(&self) -> Option<f64> {
        let points: Vec<(f64, f64)> = self
            .curve
            .rings
            .iter()
            .enumerate()
            .filter_map(|(d, ring)| {
                ring.iter()
                    .position(|&deficit| deficit > 0)
                    .map(|b| (b as f64 * self.curve.bucket as f64, d as f64))
            })
            .collect();
        if points.len() < 2 {
            return None;
        }
        fit_line(&points).ok().map(|fit| fit.slope)
    }

    /// The wave front's pace in network cycles per hop: the reciprocal of
    /// [`propagation_speed`](Self::propagation_speed). `None` when that
    /// speed is absent or not positive (no front travelling outward).
    pub fn cycles_per_hop(&self) -> Option<f64> {
        self.propagation_speed()
            .filter(|&speed| speed > 0.0)
            .map(|speed| 1.0 / speed)
    }

    /// Farthest ring whose peak per-node deficit reaches `threshold` —
    /// the distance at which the wave has decayed away. `0` when even
    /// the victim's own ring stayed below the threshold.
    pub fn decay_distance(&self, threshold: f64) -> usize {
        self.curve
            .ring_peaks()
            .iter()
            .enumerate()
            .filter(|&(_, &peak)| peak >= threshold)
            .map(|(d, _)| d)
            .max()
            .unwrap_or(0)
    }

    /// Mean ring-to-ring damping factor: the average of
    /// `peak[d+1] / peak[d]` over successive rings with a positive peak.
    /// Below 1.0 the wave decays with distance; `0.0` when no successive
    /// ring pair carries the wave.
    pub fn damping(&self) -> f64 {
        let peaks = self.curve.ring_peaks();
        let ratios: Vec<f64> = peaks
            .windows(2)
            .filter(|w| w[0] > 0.0)
            .map(|w| w[1].max(0.0) / w[0])
            .collect();
        if ratios.is_empty() {
            return 0.0;
        }
        ratios.iter().sum::<f64>() / ratios.len() as f64
    }

    /// Net completion deficit over all rings and buckets (positive = the
    /// disturbed machine finished behind the baseline).
    pub fn total_deficit(&self) -> i64 {
        self.curve.rings.iter().flatten().sum()
    }

    /// Total extra latency cycles absorbed, summed over the components
    /// that gained latency. Components can individually go negative —
    /// a stalled node injects fewer messages, shrinking e.g. the raw
    /// queue sum — so only the positive side counts as absorption.
    pub fn absorbed_total(&self) -> i64 {
        self.absorption.iter().map(|&(_, v)| v.max(0)).sum()
    }
}

/// Runs the idle-wave experiment: a baseline and a delay-injected
/// machine advance in lockstep and their per-node completions and
/// latency breakdowns are differenced.
///
/// Both machines carry the configuration's ambient
/// [`SimConfig::fault_plan`] (if any); the disturbed machine additionally
/// receives the one-off router stall, so the differences isolate exactly
/// the injected delay even in an already-faulty fabric.
///
/// # Errors
///
/// Returns [`SimError::InvalidFaultPlan`] if any scheduled fault —
/// ambient or injected — lies at or past the horizon (it would silently
/// never take effect), and propagates the first stepping error from
/// either machine.
///
/// # Panics
///
/// Panics if `bucket` is zero or `victim` is out of range.
pub fn run_idle_wave(config: &DisturbanceConfig, mapping: &Mapping) -> Result<IdleWave, SimError> {
    assert!(config.bucket > 0, "bucket width must be positive");
    let baseline_plan = config.sim.fault_plan.clone();
    let disturbed_plan = baseline_plan
        .clone()
        .unwrap_or_else(|| FaultPlan::new(0))
        .stall_router_at(config.inject_cycle, config.victim, config.stall_window);
    disturbed_plan.validate_horizon(config.horizon)?;
    let baseline_cfg = SimConfig {
        fault_plan: baseline_plan,
        ..config.sim.clone()
    };
    let disturbed_cfg = SimConfig {
        fault_plan: Some(disturbed_plan),
        ..config.sim.clone()
    };
    let mut baseline = Machine::new(&baseline_cfg, mapping);
    let mut disturbed = Machine::new(&disturbed_cfg, mapping);
    let topology = baseline.topology().clone();
    let nodes = topology.compute_nodes();
    assert!(config.victim < nodes, "victim out of range");
    let victim = NodeId(config.victim);
    let ring_of: Vec<usize> = (0..nodes)
        .map(|n| topology.distance(victim, NodeId(n)))
        .collect();
    let max_ring = ring_of.iter().copied().max().unwrap_or(0);
    let mut ring_sizes = vec![0usize; max_ring + 1];
    for &r in &ring_of {
        ring_sizes[r] += 1;
    }

    let mut rings: Vec<Vec<i64>> = vec![Vec::new(); max_ring + 1];
    let mut prev_base: Vec<u64> = vec![0; nodes];
    let mut prev_dist: Vec<u64> = vec![0; nodes];
    let mut elapsed = 0;
    while elapsed < config.horizon {
        let chunk = config.bucket.min(config.horizon - elapsed);
        baseline.run_network_cycles(chunk)?;
        disturbed.run_network_cycles(chunk)?;
        elapsed += chunk;
        let base = baseline.completions_per_node();
        let dist = disturbed.completions_per_node();
        let mut bucket_deficit = vec![0i64; max_ring + 1];
        for n in 0..nodes {
            let base_inc = (base[n] - prev_base[n]) as i64;
            let dist_inc = (dist[n] - prev_dist[n]) as i64;
            bucket_deficit[ring_of[n]] += base_inc - dist_inc;
        }
        prev_base = base;
        prev_dist = dist;
        for (ring, deficit) in bucket_deficit.into_iter().enumerate() {
            rings[ring].push(deficit);
        }
    }
    let lb_base = baseline.latency_breakdown();
    let lb_dist = disturbed.latency_breakdown();
    let diff = |a: u64, b: u64| a as i64 - b as i64;
    let absorption = vec![
        (ABSORPTION_COMPONENTS[0], diff(lb_dist.queue, lb_base.queue)),
        (
            ABSORPTION_COMPONENTS[1],
            diff(lb_dist.injection, lb_base.injection),
        ),
        (
            ABSORPTION_COMPONENTS[2],
            diff(lb_dist.free_hop, lb_base.free_hop),
        ),
        (
            ABSORPTION_COMPONENTS[3],
            diff(lb_dist.contended_hop, lb_base.contended_hop),
        ),
        (
            ABSORPTION_COMPONENTS[4],
            diff(lb_dist.ejection, lb_base.ejection),
        ),
        (ABSORPTION_COMPONENTS[5], diff(lb_dist.drain, lb_base.drain)),
    ];
    Ok(IdleWave {
        curve: DisturbanceCurve {
            victim,
            inject_cycle: config.inject_cycle,
            stall_window: config.stall_window,
            bucket: config.bucket,
            rings,
            ring_sizes,
        },
        absorption,
    })
}

/// Parameters of a link-kill degradation sweep.
#[derive(Debug, Clone)]
pub struct DegradationConfig {
    /// Base machine configuration. Disable the watchdog
    /// (`watchdog_cycles: 0`): killed links legitimately wedge traffic
    /// for long stretches while threads migrate around them.
    pub sim: SimConfig,
    /// Largest number of simultaneously killed links; the sweep runs
    /// points `0..=max_kills`, each point killing a prefix of the same
    /// deterministic kill list (so curves are nested).
    pub max_kills: usize,
    /// Network cycle at which every kill of a point takes effect.
    pub kill_cycle: u64,
    /// Network cycles to run each point.
    pub horizon: u64,
    /// Seed for the deterministic kill-list draw.
    pub seed: u64,
    /// Migration policy installed at every point.
    pub policy: WorkStealingPolicy,
}

/// One point of the degradation curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegradationPoint {
    /// Output links killed at `kill_cycle`.
    pub killed_links: usize,
    /// Total transaction completions over the horizon.
    pub completions: u64,
    /// Thread migrations the policy performed.
    pub migrations: usize,
    /// Nodes that never lost a thread to migration.
    pub survivors: usize,
    /// Mean completions per surviving node.
    pub per_survivor: f64,
}

/// Runs the graceful-degradation sweep: for each `k` in
/// `0..=max_kills`, kills the first `k` links of a deterministic list at
/// `kill_cycle`, runs to the horizon with the configured migration
/// policy, and reports completed work per surviving node.
///
/// # Errors
///
/// Returns [`SimError::InvalidFaultPlan`] when `kill_cycle` (or an
/// ambient scheduled fault) lies at or past the horizon, and propagates
/// the first stepping error of any point.
///
/// # Panics
///
/// Panics if the configuration's topology is not a cube — the kill list
/// is addressed by `(dim, direction)` — or if `max_kills` exceeds the
/// machine's distinct output links.
pub fn run_degradation(
    config: &DegradationConfig,
    mapping: &Mapping,
) -> Result<Vec<DegradationPoint>, SimError> {
    let Topology::Cube(torus) = config.sim.resolved_topology() else {
        panic!("run_degradation kills links by (dim, direction), which needs a cube topology");
    };
    let dims = torus.dims();
    let total_links = torus.nodes() * dims as usize * 2;
    assert!(
        config.max_kills <= total_links,
        "cannot kill {} of {} links",
        config.max_kills,
        total_links
    );
    // One deterministic kill list shared by every point: point `k` kills
    // its first `k` entries, so successive points differ by exactly one
    // additional dead link.
    let mut rng = DetRng::new(config.seed ^ 0xDE6_12AD);
    let mut kills: Vec<(usize, u32, Direction)> = Vec::new();
    while kills.len() < config.max_kills {
        let node = rng.index(torus.nodes());
        let dim = rng.index(dims as usize) as u32;
        let dir = if rng.chance(0.5) {
            Direction::Plus
        } else {
            Direction::Minus
        };
        if !kills.contains(&(node, dim, dir)) {
            kills.push((node, dim, dir));
        }
    }
    let mut points = Vec::with_capacity(config.max_kills + 1);
    for k in 0..=config.max_kills {
        let mut plan = config
            .sim
            .fault_plan
            .clone()
            .unwrap_or_else(|| FaultPlan::new(config.seed));
        for &(node, dim, dir) in &kills[..k] {
            plan = plan.kill_link_at(config.kill_cycle, node, dim, dir);
        }
        plan.validate_horizon(config.horizon)?;
        let sim = SimConfig {
            fault_plan: Some(plan),
            ..config.sim.clone()
        };
        let mut machine = Machine::new(&sim, mapping);
        machine.set_migration(config.policy);
        machine.run_network_cycles(config.horizon)?;
        let migrated = machine.migrated_from_nodes();
        let survivors = torus.nodes() - migrated.len();
        let surviving_work: u64 = machine
            .completions_per_node()
            .iter()
            .enumerate()
            .filter(|&(n, _)| !migrated.contains(&NodeId(n)))
            .map(|(_, &c)| c)
            .sum();
        points.push(DegradationPoint {
            killed_links: k,
            completions: machine.completions(),
            migrations: machine.migrations().len(),
            survivors,
            per_survivor: surviving_work as f64 / survivors.max(1) as f64,
        });
    }
    Ok(points)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stealing_picks_the_least_loaded_healthy_node() {
        // The budget lives on the machine (see
        // `machine::tests::exhausted_migration_budget_trips_and_names_the_migrated_nodes`);
        // the policy itself only places.
        let topology = Topology::cube(2, 4);
        let policy = WorkStealingPolicy {
            steal_latency: 100,
            wedge_threshold: 500,
            max_migrations: 2,
        };
        let wedged = {
            let mut w = vec![false; 16];
            w[3] = true;
            w
        };
        let killed = {
            let mut k = vec![false; 16];
            k[1] = true;
            k
        };
        let mut load = vec![1usize; 16];
        load[1] = 0; // killed: excluded despite lowest load
        load[3] = 0; // wedged: excluded
        load[2] = 0; // healthy and empty: the winner
        load[7] = 0; // healthy and empty but farther from the victim
        let view = MigrationView {
            victim: 3,
            topology: &topology,
            wedged: &wedged,
            load: &load,
            killed: &killed,
        };
        assert_eq!(policy.choose_destination(&view), Some(NodeId(2)));
        assert_eq!(policy.choose_destination(&view), Some(NodeId(2)));
        // With every other node wedged or killed there is nowhere to go.
        let wedged = vec![true; 16];
        let view = MigrationView {
            wedged: &wedged,
            ..view
        };
        assert_eq!(policy.choose_destination(&view), None);
    }

    #[test]
    fn idle_wave_measures_absorption_and_decay() {
        let config = DisturbanceConfig {
            sim: SimConfig {
                dims: 2,
                radix: 4,
                ..SimConfig::default()
            },
            victim: 5,
            inject_cycle: 4_000,
            stall_window: 600,
            horizon: 12_000,
            bucket: 500,
        };
        let wave = run_idle_wave(&config, &Mapping::identity(16)).expect("wave runs");
        assert!(
            wave.total_deficit() > 0,
            "the stall must cost completions: {}",
            wave.total_deficit()
        );
        assert!(
            wave.absorbed_total() > 0,
            "the delay must surface as extra latency somewhere: {:?}",
            wave.absorption
        );
        let peaks = wave.curve.ring_peaks();
        assert!(peaks[0] > 0.0, "victim ring must carry the wave");
        // The wave reaches at least the victim; decay distance at a high
        // threshold stays at or below the farthest measured ring.
        assert!(wave.decay_distance(0.001) < peaks.len());
    }

    #[test]
    fn idle_wave_rejects_plans_past_the_horizon() {
        let config = DisturbanceConfig {
            sim: SimConfig {
                dims: 2,
                radix: 4,
                ..SimConfig::default()
            },
            victim: 5,
            inject_cycle: 9_000,
            stall_window: 600,
            horizon: 8_000,
            bucket: 500,
        };
        let err = run_idle_wave(&config, &Mapping::identity(16))
            .expect_err("an unreachable injection must be rejected");
        assert!(matches!(err, SimError::InvalidFaultPlan(_)));
        assert!(format!("{err}").contains("at or past the run horizon"));
    }

    #[test]
    fn degradation_sweep_degrades_gracefully() {
        let config = DegradationConfig {
            sim: SimConfig {
                dims: 2,
                radix: 4,
                watchdog_cycles: 0,
                ..SimConfig::default()
            },
            max_kills: 2,
            kill_cycle: 3_000,
            horizon: 16_000,
            seed: 9,
            policy: WorkStealingPolicy {
                steal_latency: 300,
                wedge_threshold: 1_500,
                max_migrations: 200,
            },
        };
        let points = run_degradation(&config, &Mapping::identity(16)).expect("sweep runs");
        assert_eq!(points.len(), 3);
        assert_eq!(points[0].killed_links, 0);
        assert_eq!(points[0].migrations, 0, "no faults, no moves");
        assert_eq!(points[0].survivors, 16);
        assert!(points[0].completions > 0);
        let last = points.last().unwrap();
        assert!(
            last.completions < points[0].completions,
            "dead links must cost work: {} !< {}",
            last.completions,
            points[0].completions
        );
        assert!(last.survivors <= 16);
    }

    /// A wave with the given per-ring deficits in 1,000-cycle buckets,
    /// one node per ring and nothing absorbed.
    fn synthetic(rings: Vec<Vec<i64>>) -> IdleWave {
        IdleWave {
            curve: DisturbanceCurve {
                victim: NodeId(0),
                inject_cycle: 0,
                stall_window: 0,
                bucket: 1_000,
                ring_sizes: vec![1; rings.len()],
                rings,
            },
            absorption: ABSORPTION_COMPONENTS.iter().map(|&c| (c, 0)).collect(),
        }
    }

    #[test]
    fn idle_wave_analyzers_handle_an_empty_wave() {
        let wave = synthetic(vec![vec![0, 0], vec![0, 0]]);
        assert_eq!(wave.propagation_speed(), None);
        assert_eq!(wave.cycles_per_hop(), None);
        assert_eq!(wave.decay_distance(0.5), 0);
        assert_eq!(wave.damping(), 0.0);
        assert_eq!(wave.total_deficit(), 0);
        assert_eq!(wave.absorbed_total(), 0);
    }

    #[test]
    fn cycles_per_hop_is_the_reciprocal_of_the_fitted_speed() {
        // Ring d first loses completions in bucket d: one hop per
        // 1,000-cycle bucket.
        let mut rings: Vec<Vec<i64>> = (0..4)
            .map(|d| (0..6).map(|b| i64::from(b >= d)).collect())
            .collect();
        let outward = synthetic(rings.clone());
        let speed = outward.propagation_speed().expect("four rings to fit");
        assert!((speed - 0.001).abs() < 1e-12, "{speed} hops per cycle");
        let pace = outward.cycles_per_hop().expect("the front travels outward");
        assert!((pace - 1_000.0).abs() < 1e-6, "{pace} cycles per hop");
        // A front reaching the far rings first has no outward pace.
        rings.reverse();
        let inward = synthetic(rings);
        assert!(inward.propagation_speed().is_some_and(|s| s < 0.0));
        assert_eq!(inward.cycles_per_hop(), None);
    }

    fn curve(stall_window: u64) -> DisturbanceCurve {
        let config = DisturbanceConfig {
            sim: SimConfig::default(),
            victim: 27,
            inject_cycle: 12_000,
            stall_window,
            horizon: 40_000,
            bucket: 1_000,
        };
        run_idle_wave(&config, &Mapping::identity(64))
            .expect("experiment runs")
            .curve
    }

    #[test]
    fn lockstep_runs_are_identical_before_injection() {
        let c = curve(800);
        let pre_buckets = (c.inject_cycle / c.bucket) as usize;
        for ring in &c.rings {
            for &d in &ring[..pre_buckets] {
                assert_eq!(d, 0, "deficit before injection");
            }
        }
    }

    #[test]
    fn disturbance_peaks_at_the_victim_and_decays_with_distance() {
        let c = curve(800);
        let peaks = c.ring_peaks();
        assert!(
            peaks[0] > 0.0,
            "the stalled node itself must lose completions: {peaks:?}"
        );
        let far = *peaks.last().unwrap();
        assert!(
            peaks[0] > 2.0 * far.max(0.25),
            "disturbance not localized: victim {} vs farthest {far}",
            peaks[0]
        );
    }

    #[test]
    fn completion_rate_recovers_after_the_stall() {
        let c = curve(800);
        let recovery = c
            .recovery_cycle()
            .expect("rate should recover within the horizon");
        assert!(
            recovery < c.inject_cycle + c.stall_window + 15_000,
            "recovery too slow: {recovery}"
        );
    }
}
