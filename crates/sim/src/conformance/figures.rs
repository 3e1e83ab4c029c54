//! Per-figure conformance scenarios: deterministic reduced-size
//! reproductions of the paper's Figures 3–9, emitted as
//! [`GoldenTable`]s and gated two ways — *self-checks* asserting the
//! paper's own quantitative claims (slope ratios, error ceilings, the
//! Eq. 16 limit), and *golden gates* comparing every value against the
//! checked-in JSON under `conformance/golden/`.
//!
//! Figures 3–5 run the cycle-level simulator over the
//! [`reduced_suite`](super::reduced_suite) (four mappings, shortened
//! windows) and calibrate the combined model from the same runs, exactly
//! like the full-size bench targets. Figures 6–9 are pure model and come
//! from the per-figure prediction surface in [`commloc_model`].

use super::golden::{GoldenRow, GoldenTable, Violation};
use super::tolerances::{
    self, FIG8_FIXED_SHARE_RANGE, GAIN_1K_RANGE, GAIN_1M_RANGE, LIMITING_LATENCY,
    LIMITING_LATENCY_TOL, MODEL_VS_SIM_LATENCY_GAP, MODEL_VS_SIM_RATE, SLOPE_RATIO_P2_OVER_P1,
};
use super::{calibrated_model, fit_message_curve, reduced_runs, SUITE_SEED};
use crate::machine::SimConfig;
use crate::mapping::Mapping;
use crate::resilience::{
    run_degradation, run_idle_wave, DegradationConfig, DisturbanceConfig, IdleWave,
    WorkStealingPolicy,
};
use crate::scenario::Scenario;
use crate::serve::ScenarioResult;
use commloc_model::{
    expected_gain, fig6_rows, fig7_rows, fig8_rows, fig9_rows, log_spaced_sizes,
    EndpointContention, FigureRow, MachineConfig,
};
use commloc_net::Topology;
use std::collections::HashMap;
use std::path::{Path, PathBuf};

/// Every figure the conformance harness reproduces, in order. The two
/// `resilience-*` entries are not paper figures: they gate the delay
/// injection / migration subsystem's idle-wave and graceful-degradation
/// curves the same way (self-check plus golden comparison), so a
/// behavioral change there fails `commloc conformance`, their one gate.
pub const FIGURES: &[&str] = &[
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "resilience-wave",
    "resilience-degradation",
    "topology-gain",
];

/// Context counts exercised by the simulator-backed figures.
const SIM_CONTEXTS: [usize; 2] = [1, 2];

/// One conformance session: runs figures on demand, computing each
/// reduced simulator sweep at most once (Figures 3–5 share the
/// single-context sweep; Figure 3 adds the two-context one), and keeping
/// the analyzed idle waves behind the `resilience-wave` table.
#[derive(Debug)]
pub struct ConformanceRun {
    jobs: usize,
    sweeps: HashMap<usize, Vec<ScenarioResult>>,
    waves: Vec<(String, IdleWave)>,
}

impl ConformanceRun {
    /// Creates a session fanning simulator sweeps over `jobs` threads.
    pub fn new(jobs: usize) -> Self {
        Self {
            jobs: jobs.max(1),
            sweeps: HashMap::new(),
            waves: Vec::new(),
        }
    }

    /// The cached reduced sweeps computed so far, keyed by context
    /// count — exposed so the CLI can dump the raw measurements as CSV.
    pub fn sweeps(&self) -> impl Iterator<Item = (usize, &Vec<ScenarioResult>)> {
        let mut keys: Vec<_> = self.sweeps.iter().collect();
        keys.sort_by_key(|(contexts, _)| **contexts);
        keys.into_iter().map(|(c, runs)| (*c, runs))
    }

    /// The labelled idle waves of the `resilience-wave` figure, in row
    /// order (empty until that figure runs) — exposed so the CLI can
    /// print each wave's speed, ring peaks and absorption.
    pub fn waves(&self) -> &[(String, IdleWave)] {
        &self.waves
    }

    fn runs(&mut self, contexts: usize) -> &[ScenarioResult] {
        let jobs = self.jobs;
        self.sweeps
            .entry(contexts)
            .or_insert_with(|| reduced_runs(contexts, jobs))
    }

    /// Produces the result table for one figure.
    ///
    /// # Errors
    ///
    /// Returns a message for unknown figure names or unsolvable model
    /// points.
    pub fn figure(&mut self, name: &str) -> Result<GoldenTable, String> {
        match name {
            "fig3" => self.fig3(),
            "fig4" => self.fig4(),
            "fig5" => self.fig5(),
            "fig6" => fig6(),
            "fig7" => fig7(),
            "fig8" => fig8(),
            "fig9" => fig9(),
            "resilience-wave" => {
                let (waves, table) = resilience_wave()?;
                self.waves = waves;
                Ok(table)
            }
            "resilience-degradation" => resilience_degradation(),
            "topology-gain" => topology_gain(),
            other => Err(format!(
                "unknown figure `{other}` (expected one of {})",
                FIGURES.join(", ")
            )),
        }
    }

    /// Figure 3 — the message curve `T_m = s*t_m - F` per context count:
    /// fitted slope, offset, and fit quality, plus the slope ratio the
    /// node model predicts to be about 2.
    fn fig3(&mut self) -> Result<GoldenTable, String> {
        let mut rows = Vec::new();
        let mut slopes = Vec::new();
        for contexts in SIM_CONTEXTS {
            let fit = fit_message_curve(self.runs(contexts))
                .map_err(|e| format!("fig3 p{contexts}: {e:?}"))?;
            slopes.push(fit.slope);
            rows.push(GoldenRow {
                label: format!("p{contexts}"),
                values: vec![
                    ("slope".into(), fit.slope),
                    ("offset".into(), -fit.intercept),
                    ("r_squared".into(), fit.r_squared),
                ],
            });
        }
        rows.push(GoldenRow {
            label: "ratio".into(),
            values: vec![("slope_p2_over_p1".into(), slopes[1] / slopes[0])],
        });
        Ok(sim_table("fig3", rows))
    }

    /// Figure 4 — per-node message rate vs distance, simulator against
    /// the calibrated combined model, one row per mapping.
    fn fig4(&mut self) -> Result<GoldenTable, String> {
        let runs = self.runs(1).to_vec();
        let model = calibrated_model(1, &runs);
        let mut rows = Vec::new();
        for run in &runs {
            let predicted = model
                .solve(run.measured.distance)
                .map_err(|e| format!("fig4 {}: {e}", run.name))?
                .message_rate;
            rows.push(GoldenRow {
                label: run.name.clone(),
                values: vec![
                    ("distance".into(), run.measured.distance),
                    ("sim_rate".into(), run.measured.message_rate),
                    ("model_rate".into(), predicted),
                ],
            });
        }
        Ok(sim_table("fig4", rows))
    }

    /// Figure 5 — message latency vs distance, simulator against the
    /// calibrated combined model, one row per mapping.
    fn fig5(&mut self) -> Result<GoldenTable, String> {
        let runs = self.runs(1).to_vec();
        let model = calibrated_model(1, &runs);
        let mut rows = Vec::new();
        for run in &runs {
            let predicted = model
                .solve(run.measured.distance)
                .map_err(|e| format!("fig5 {}: {e}", run.name))?
                .message_latency;
            rows.push(GoldenRow {
                label: run.name.clone(),
                values: vec![
                    ("distance".into(), run.measured.distance),
                    ("sim_latency".into(), run.measured.message_latency),
                    ("model_latency".into(), predicted),
                ],
            });
        }
        Ok(sim_table("fig5", rows))
    }
}

fn sim_table(figure: &str, rows: Vec<GoldenRow>) -> GoldenTable {
    GoldenTable {
        figure: figure.to_owned(),
        tolerance_name: "GOLDEN_SIM".to_owned(),
        tolerance: tolerances::GOLDEN_SIM,
        rows,
    }
}

fn model_table(figure: &str, rows: Vec<FigureRow>) -> GoldenTable {
    GoldenTable {
        figure: figure.to_owned(),
        tolerance_name: "GOLDEN_MODEL".to_owned(),
        tolerance: tolerances::GOLDEN_MODEL,
        rows: rows
            .into_iter()
            .map(|row| GoldenRow {
                label: row.label,
                values: row
                    .values
                    .into_iter()
                    .map(|(name, value)| (name.to_owned(), value))
                    .collect(),
            })
            .collect(),
    }
}

/// Figure 6 machine: the paper's two-context application (whose Eq. 16
/// limit is the 9.8-cycle headline) under random mapping across sizes.
fn fig6() -> Result<GoldenTable, String> {
    let machine = MachineConfig::alewife().with_contexts(2);
    let sizes = log_spaced_sizes(10.0, 1e6, 1);
    fig6_rows(&machine, &sizes)
        .map(|rows| model_table("fig6", rows))
        .map_err(|e| format!("fig6: {e}"))
}

/// Figure 7 — locality gain vs size for one, two, and four contexts.
fn fig7() -> Result<GoldenTable, String> {
    let machine = MachineConfig::alewife();
    let sizes = log_spaced_sizes(10.0, 1e6, 1);
    fig7_rows(&machine, &[1, 2, 4], &sizes)
        .map(|rows| model_table("fig7", rows))
        .map_err(|e| format!("fig7: {e}"))
}

/// Figure 8 — issue-time decomposition at N = 1,000, matching the bench
/// target's configuration (endpoint contention reported separately).
fn fig8() -> Result<GoldenTable, String> {
    let machine = MachineConfig::alewife()
        .with_nodes(1000.0)
        .with_endpoint_contention(EndpointContention::Ignore);
    fig8_rows(&machine)
        .map(|rows| model_table("fig8", rows))
        .map_err(|e| format!("fig8: {e}"))
}

/// Figure 9 — the dimension study at N = 10^6.
fn fig9() -> Result<GoldenTable, String> {
    let machine = MachineConfig::alewife().with_nodes(1e6);
    fig9_rows(&machine, &[2, 3, 4, 5])
        .map(|rows| model_table("fig9", rows))
        .map_err(|e| format!("fig9: {e}"))
}

/// Simulation windows of the per-topology gain gate: small fabrics, so
/// short windows settle (the same reduced-scale philosophy as the
/// figure sweeps).
const TOPOLOGY_GAIN_WARMUP: u64 = 2_000;
const TOPOLOGY_GAIN_WINDOW: u64 = 6_000;

/// Cross-topology gain gate (`conformance/golden/topology-gain.json`):
/// one row per interconnect family at comparable small sizes —
/// measured identity-vs-random gain from the cycle-level simulator next
/// to the analytical prediction on the same topology profile. Gated like
/// a figure: self-checked against structural claims (locality must pay
/// on the distance-diverse fabrics, the non-wrapping mesh must out-gain
/// the torus in the model) and golden-compared value by value.
fn topology_gain() -> Result<GoldenTable, String> {
    let topologies = [
        Topology::cube(2, 4),
        Topology::mesh(4, 4),
        Topology::fat_tree(2, 3),
        Topology::dragonfly(3, 1),
    ];
    let mut rows = Vec::new();
    for topology in &topologies {
        let label = topology.family();
        let config = SimConfig {
            topology: Some(topology.clone()),
            ..SimConfig::default()
        };
        let scenario = Scenario::new(config, TOPOLOGY_GAIN_WARMUP, TOPOLOGY_GAIN_WINDOW);
        let measure = |name: &str| {
            let named = scenario.mapping(name)?;
            let machine = scenario.run(&named.mapping).map_err(|e| e.to_string())?;
            Ok::<_, String>(machine.measure())
        };
        let ident =
            measure("identity").map_err(|e| format!("topology-gain {label}/identity: {e}"))?;
        let random = measure("random").map_err(|e| format!("topology-gain {label}/random: {e}"))?;
        let profile =
            crate::model_profile(topology).map_err(|e| format!("topology-gain {label}: {e}"))?;
        let predicted = expected_gain(&MachineConfig::alewife().with_topology_profile(profile))
            .map_err(|e| format!("topology-gain {label}: {e}"))?;
        rows.push(GoldenRow {
            label: label.to_owned(),
            values: vec![
                ("random_distance".into(), random.distance),
                (
                    "sim_gain".into(),
                    ident.transaction_rate / random.transaction_rate,
                ),
                ("model_gain".into(), predicted.gain),
            ],
        });
    }
    Ok(sim_table("topology-gain", rows))
}

/// Per-node deficit threshold (in completions) below which a ring is
/// considered undisturbed when computing the wave's decay distance.
const WAVE_DECAY_THRESHOLD: f64 = 0.5;

/// Idle-wave gate: a 1,000-cycle router stall at node 27 of the default
/// 64-node machine, measured under identity and random mapping at one
/// and two contexts. Each row summarizes one lockstep run with the
/// analyzers of [`crate::IdleWave`]: how hard the victim's ring is hit,
/// how far and how damped the wave travels, how long the global
/// completion rate needs to recover after the stall clears, and how
/// much of the deficit the latency breakdown attributes to fabric
/// components (`absorbed_total`). Also returns the analyzed waves, which
/// the session keeps ([`ConformanceRun::waves`]).
fn resilience_wave() -> Result<(Vec<(String, IdleWave)>, GoldenTable), String> {
    let mut waves = Vec::new();
    let mut rows = Vec::new();
    for (map_name, mapping) in [
        ("identity", Mapping::identity(64)),
        ("random", Mapping::random(64, SUITE_SEED)),
    ] {
        for contexts in SIM_CONTEXTS {
            let config = DisturbanceConfig {
                sim: SimConfig {
                    contexts,
                    ..SimConfig::default()
                },
                victim: 27,
                inject_cycle: 6_000,
                stall_window: 1_000,
                horizon: 18_000,
                bucket: 1_000,
            };
            let label = format!("{map_name}/p{contexts}");
            let wave = run_idle_wave(&config, &mapping)
                .map_err(|e| format!("resilience-wave {label}: {e}"))?;
            let stall_end = config.inject_cycle + config.stall_window;
            let recovery_lag = wave
                .curve
                .recovery_cycle()
                .map_or(config.horizon as f64, |c| (c - stall_end) as f64);
            // Deficit accrued while the stall was active (plus the
            // drain bucket right after): always positive, unlike the
            // end-of-run `total_deficit`, which the post-stall catch-up
            // burst can wash out or even flip slightly negative.
            let stall_deficit: i64 = wave
                .curve
                .global()
                .iter()
                .enumerate()
                .filter(|&(i, _)| {
                    let start = i as u64 * config.bucket;
                    start >= config.inject_cycle && start <= stall_end
                })
                .map(|(_, &d)| d)
                .sum();
            rows.push(GoldenRow {
                label: label.clone(),
                values: vec![
                    ("peak_victim".into(), wave.curve.ring_peaks()[0]),
                    (
                        "decay_distance".into(),
                        wave.decay_distance(WAVE_DECAY_THRESHOLD) as f64,
                    ),
                    ("damping".into(), wave.damping()),
                    ("recovery_lag".into(), recovery_lag),
                    ("stall_deficit".into(), stall_deficit as f64),
                    ("total_deficit".into(), wave.total_deficit() as f64),
                    ("absorbed_total".into(), wave.absorbed_total() as f64),
                ],
            });
            waves.push((label, wave));
        }
    }
    let table = GoldenTable {
        figure: "resilience-wave".to_owned(),
        tolerance_name: "GOLDEN_RESILIENCE_WAVE".to_owned(),
        tolerance: tolerances::GOLDEN_RESILIENCE_WAVE,
        rows,
    };
    Ok((waves, table))
}

/// Graceful-degradation gate: kill 0..=3 links (nested prefixes of one
/// deterministic draw) on the default 64-node machine at cycle 3,000,
/// with the work-stealing migration policy active and the watchdog
/// disabled (a killed link wedges wormhole traffic, so the run is
/// *expected* to limp to the horizon rather than complete cleanly).
/// Each row records total completions, migrations fired, surviving
/// nodes, and completions per survivor — the degradation curve.
fn resilience_degradation() -> Result<GoldenTable, String> {
    let config = DegradationConfig {
        sim: SimConfig {
            watchdog_cycles: 0,
            ..SimConfig::default()
        },
        max_kills: 3,
        kill_cycle: 3_000,
        horizon: 24_000,
        seed: SUITE_SEED,
        policy: WorkStealingPolicy {
            steal_latency: 300,
            wedge_threshold: 1_500,
            max_migrations: 400,
        },
    };
    let points = run_degradation(&config, &Mapping::identity(64))
        .map_err(|e| format!("resilience-degradation: {e}"))?;
    let rows = points
        .iter()
        .map(|p| GoldenRow {
            label: format!("kills{}", p.killed_links),
            values: vec![
                ("completions".into(), p.completions as f64),
                ("migrations".into(), p.migrations as f64),
                ("survivors".into(), p.survivors as f64),
                ("per_survivor".into(), p.per_survivor),
            ],
        })
        .collect();
    Ok(GoldenTable {
        figure: "resilience-degradation".to_owned(),
        tolerance_name: "GOLDEN_RESILIENCE_DEG".to_owned(),
        tolerance: tolerances::GOLDEN_RESILIENCE_DEG,
        rows,
    })
}

/// Checks a figure's table against the paper's own quantitative claims
/// (independent of any golden file): Figure 3's slope ratio, Figure 4's
/// rate-error ceiling, Figure 5's latency-gap ceiling, Figure 6's
/// Eq. 16 limit, Figure 7's headline gains, Figure 8's fixed-overhead
/// share, and Figure 9's monotone dimension trend. The resilience
/// figures check the subsystem's own invariants: an idle wave must hit
/// the victim and be partially attributable to fabric components, and a
/// degradation sweep must start from an undamaged machine and lose
/// completions as links die.
pub fn self_check(table: &GoldenTable) -> Vec<Violation> {
    let mut violations = Vec::new();
    let mut fault = |label: &str, metric: &str, detail: String| {
        violations.push(Violation {
            figure: table.figure.clone(),
            label: label.to_owned(),
            metric: metric.to_owned(),
            detail,
        });
    };
    let value = |label: &str, metric: &str| table.value(label, metric);
    match table.figure.as_str() {
        "fig3" => {
            let (lo, hi) = SLOPE_RATIO_P2_OVER_P1;
            match value("ratio", "slope_p2_over_p1") {
                Some(ratio) if (lo..=hi).contains(&ratio) => {}
                Some(ratio) => fault(
                    "ratio",
                    "slope_p2_over_p1",
                    format!("{ratio} outside SLOPE_RATIO_P2_OVER_P1 = {lo}..={hi}"),
                ),
                None => fault("ratio", "slope_p2_over_p1", "missing".into()),
            }
        }
        "fig4" => {
            for row in &table.rows {
                let (Some(sim), Some(model)) = (row.value("sim_rate"), row.value("model_rate"))
                else {
                    fault(&row.label, "", "missing sim_rate/model_rate".into());
                    continue;
                };
                let err = ((model - sim) / sim).abs();
                if err > MODEL_VS_SIM_RATE {
                    fault(
                        &row.label,
                        "model_rate",
                        format!(
                            "model {model} vs sim {sim}: rel err {err:.3} > MODEL_VS_SIM_RATE = \
                             {MODEL_VS_SIM_RATE}"
                        ),
                    );
                }
            }
        }
        "fig5" => {
            for row in &table.rows {
                let (Some(sim), Some(model)) =
                    (row.value("sim_latency"), row.value("model_latency"))
                else {
                    fault(&row.label, "", "missing sim_latency/model_latency".into());
                    continue;
                };
                let gap = (model - sim).abs();
                if gap > MODEL_VS_SIM_LATENCY_GAP {
                    fault(
                        &row.label,
                        "model_latency",
                        format!(
                            "model {model} vs sim {sim}: gap {gap:.1} cycles > \
                             MODEL_VS_SIM_LATENCY_GAP = {MODEL_VS_SIM_LATENCY_GAP}"
                        ),
                    );
                }
            }
        }
        "fig6" => match value("limit", "per_hop_latency") {
            Some(limit) if (limit - LIMITING_LATENCY).abs() <= LIMITING_LATENCY_TOL => {}
            Some(limit) => fault(
                "limit",
                "per_hop_latency",
                format!(
                    "{limit} not within LIMITING_LATENCY_TOL = {LIMITING_LATENCY_TOL} of \
                     LIMITING_LATENCY = {LIMITING_LATENCY}"
                ),
            ),
            None => fault("limit", "per_hop_latency", "missing".into()),
        },
        "fig7" => {
            let checks = [
                ("p1/N=1000", GAIN_1K_RANGE, "GAIN_1K_RANGE"),
                ("p1/N=1000000", GAIN_1M_RANGE, "GAIN_1M_RANGE"),
            ];
            for (label, (lo, hi), name) in checks {
                match value(label, "gain") {
                    Some(gain) if (lo..=hi).contains(&gain) => {}
                    Some(gain) => fault(
                        label,
                        "gain",
                        format!("{gain} outside {name} = {lo}..={hi}"),
                    ),
                    None => fault(label, "gain", "missing".into()),
                }
            }
        }
        "fig8" => {
            let (lo, hi) = FIG8_FIXED_SHARE_RANGE;
            match value("random", "fixed_transaction_share") {
                Some(share) if (lo..=hi).contains(&share) => {}
                Some(share) => fault(
                    "random",
                    "fixed_transaction_share",
                    format!("{share} outside FIG8_FIXED_SHARE_RANGE = {lo}..={hi}"),
                ),
                None => fault("random", "fixed_transaction_share", "missing".into()),
            }
        }
        "fig9" => {
            let gains: Vec<(String, f64)> = table
                .rows
                .iter()
                .filter_map(|r| r.value("gain").map(|g| (r.label.clone(), g)))
                .collect();
            for pair in gains.windows(2) {
                if pair[1].1 >= pair[0].1 {
                    fault(
                        &pair[1].0,
                        "gain",
                        format!(
                            "gain must fall as dimension rises: {} = {} after {} = {}",
                            pair[1].0, pair[1].1, pair[0].0, pair[0].1
                        ),
                    );
                }
            }
        }
        "resilience-wave" => {
            for row in &table.rows {
                let (Some(peak), Some(deficit), Some(absorbed)) = (
                    row.value("peak_victim"),
                    row.value("stall_deficit"),
                    row.value("absorbed_total"),
                ) else {
                    fault(
                        &row.label,
                        "",
                        "missing peak_victim/stall_deficit/absorbed_total".into(),
                    );
                    continue;
                };
                if peak <= 0.0 {
                    fault(
                        &row.label,
                        "peak_victim",
                        format!("stalled node lost no completions: {peak}"),
                    );
                }
                if deficit <= 0.0 {
                    fault(
                        &row.label,
                        "stall_deficit",
                        format!("no global deficit during the stall window: {deficit}"),
                    );
                }
                if absorbed <= 0.0 {
                    fault(
                        &row.label,
                        "absorbed_total",
                        format!("no fabric component absorbed the wave: {absorbed}"),
                    );
                }
            }
        }
        "resilience-degradation" => {
            match (value("kills0", "migrations"), value("kills0", "survivors")) {
                (Some(m), Some(s)) => {
                    if m != 0.0 {
                        fault(
                            "kills0",
                            "migrations",
                            format!("fault-free sweep point migrated {m} threads"),
                        );
                    }
                    if s != 64.0 {
                        fault(
                            "kills0",
                            "survivors",
                            format!("fault-free sweep point lost nodes: {s} of 64"),
                        );
                    }
                }
                _ => fault("kills0", "", "missing migrations/survivors".into()),
            }
            let completions: Vec<(String, f64)> = table
                .rows
                .iter()
                .filter_map(|r| r.value("completions").map(|c| (r.label.clone(), c)))
                .collect();
            match (completions.first(), completions.last()) {
                (Some(first), Some(last)) if completions.len() > 1 => {
                    if last.1 >= first.1 {
                        fault(
                            &last.0,
                            "completions",
                            format!(
                                "killing links must cost completions: {} = {} vs {} = {}",
                                last.0, last.1, first.0, first.1
                            ),
                        );
                    }
                }
                _ => fault("", "completions", "need at least two sweep points".into()),
            }
        }
        "topology-gain" => {
            for row in &table.rows {
                let (Some(sim), Some(model)) = (row.value("sim_gain"), row.value("model_gain"))
                else {
                    fault(&row.label, "", "missing sim_gain/model_gain".into());
                    continue;
                };
                if model < 1.0 {
                    fault(
                        &row.label,
                        "model_gain",
                        format!("locality can never hurt in the model: {model}"),
                    );
                }
                // The torus and mesh spread distances, so locality must
                // visibly pay in simulation too; the hierarchical fabrics
                // are nearly distance-uniform at these sizes, so only
                // demand they not be *hurt* by locality (noise floor).
                let floor = match row.label.as_str() {
                    "cube" | "mesh" => 1.05,
                    _ => 0.9,
                };
                if sim < floor {
                    fault(
                        &row.label,
                        "sim_gain",
                        format!("measured gain {sim} below the {floor} floor"),
                    );
                }
            }
            let gain = |label: &str| value(label, "model_gain");
            if let (Some(mesh), Some(cube)) = (gain("mesh"), gain("cube")) {
                // Removing the wraparound links lengthens random-mapping
                // distances at equal node count, so the mesh must have
                // more to gain from locality than the torus.
                if mesh <= cube {
                    fault(
                        "mesh",
                        "model_gain",
                        format!("mesh ({mesh}) must out-gain the equal-size torus ({cube})"),
                    );
                }
            } else {
                fault("mesh", "model_gain", "missing mesh/cube rows".into());
            }
        }
        other => fault("", "", format!("no self-check defined for `{other}`")),
    }
    violations
}

/// Path of a figure's golden file inside `dir`.
pub fn golden_path(dir: &Path, figure: &str) -> PathBuf {
    dir.join(format!("{figure}.json"))
}

/// Loads a figure's checked-in golden table from `dir`.
///
/// # Errors
///
/// Returns a message for a missing or unparsable file (suggesting
/// `--update-golden` when absent).
pub fn load_golden(dir: &Path, figure: &str) -> Result<GoldenTable, String> {
    let path = golden_path(dir, figure);
    let text = std::fs::read_to_string(&path).map_err(|e| {
        format!(
            "cannot read golden file {}: {e} (generate with `commloc conformance \
             --update-golden`)",
            path.display()
        )
    })?;
    GoldenTable::from_json(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Writes a figure's golden table into `dir` (creating it), returning
/// the path written.
///
/// # Errors
///
/// Returns a message on I/O failure.
pub fn store_golden(dir: &Path, table: &GoldenTable) -> Result<PathBuf, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let path = golden_path(dir, &table.figure);
    std::fs::write(&path, table.to_json())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(path)
}

/// The repository's golden directory: `conformance/golden` relative to
/// the working directory when that exists (the CLI run from the repo
/// root), else resolved relative to this crate's source tree (tests and
/// tools run from elsewhere in the workspace).
pub fn default_golden_dir() -> PathBuf {
    let cwd = Path::new("conformance").join("golden");
    if cwd.is_dir() {
        cwd
    } else {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../conformance/golden")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_figures_pass_their_self_checks() {
        // The pure-model figures are cheap enough to regenerate in a unit
        // test; the simulator figures are covered by the CLI gate and the
        // facade-level conformance integration test.
        let mut session = ConformanceRun::new(1);
        for name in ["fig6", "fig7", "fig8", "fig9"] {
            let table = session.figure(name).expect(name);
            let violations = self_check(&table);
            assert!(violations.is_empty(), "{name}: {violations:?}");
            assert_eq!(table.tolerance_name, "GOLDEN_MODEL");
            assert!(!table.rows.is_empty());
        }
    }

    #[test]
    fn unknown_figure_is_an_error() {
        let mut session = ConformanceRun::new(1);
        assert!(session.figure("fig12").is_err());
    }

    #[test]
    fn self_check_catches_a_broken_limit() {
        let mut session = ConformanceRun::new(1);
        let mut table = session.figure("fig6").unwrap();
        for row in &mut table.rows {
            if row.label == "limit" {
                row.values[0].1 *= 2.0;
            }
        }
        let violations = self_check(&table);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].detail.contains("LIMITING_LATENCY"));
    }

    #[test]
    fn degradation_self_check_catches_a_broken_sweep() {
        // Synthetic table: the real sweep is exercised by the CLI gate;
        // here we only verify the self-check arm's logic.
        let row = |label: &str, completions: f64, migrations: f64, survivors: f64| GoldenRow {
            label: label.to_owned(),
            values: vec![
                ("completions".into(), completions),
                ("migrations".into(), migrations),
                ("survivors".into(), survivors),
                ("per_survivor".into(), completions / survivors),
            ],
        };
        let mut table = GoldenTable {
            figure: "resilience-degradation".to_owned(),
            tolerance_name: "GOLDEN_RESILIENCE_DEG".to_owned(),
            tolerance: tolerances::GOLDEN_RESILIENCE_DEG,
            rows: vec![
                row("kills0", 5000.0, 0.0, 64.0),
                row("kills1", 3000.0, 2.0, 62.0),
            ],
        };
        assert!(self_check(&table).is_empty());
        // Break all three invariants: migrations on the fault-free point,
        // missing survivors, and completions rising with kills.
        table.rows[0] = row("kills0", 2000.0, 3.0, 60.0);
        let violations = self_check(&table);
        assert_eq!(violations.len(), 3, "{violations:?}");
    }

    #[test]
    fn golden_store_load_round_trip() {
        let mut session = ConformanceRun::new(1);
        let table = session.figure("fig9").unwrap();
        let dir = std::env::temp_dir().join(format!("commloc-golden-{}", std::process::id()));
        let path = store_golden(&dir, &table).unwrap();
        assert!(path.ends_with("fig9.json"));
        let loaded = load_golden(&dir, "fig9").unwrap();
        assert!(table.compare_against(&loaded).is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }
}
