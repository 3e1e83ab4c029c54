//! Paper-conformance harness: executable versions of the paper's
//! evaluation (Figures 3–9) gated against checked-in golden tables.
//!
//! The paper's central claim is quantitative — the four-layer analytical
//! framework predicts simulated performance to within ~10–12% — so this
//! module turns that agreement into regression gates:
//!
//! * [`figures`] runs one deterministic reduced-size scenario per paper
//!   figure: the simulator-vs-model figures (3–5) on a four-mapping
//!   subset of the validation suite with shortened windows, and the
//!   pure-model figures (6–9) through the prediction surface in
//!   [`commloc_model`]. Each produces a [`GoldenTable`].
//! * [`golden`] serializes those tables as JSON (under
//!   `conformance/golden/` at the repository root), parses the checked-in
//!   versions back, and compares per point at the named tolerances in
//!   [`tolerances`].
//! * The `commloc conformance [--update-golden] [--jobs N]` subcommand is
//!   the CLI entry; `cargo test` exercises the fast model-side gates and
//!   the failure paths (a seeded mutation must trip the gate).
//!
//! This module is also the home of the scenario definitions shared with
//! the bench targets (`commloc-bench` re-exports them), so benches and
//! conformance runs agree on windows, seeds, and calibration instead of
//! duplicating them.

pub mod figures;
pub mod golden;
pub mod tolerances;

pub use golden::{rel_err, GoldenRow, GoldenTable, Violation};

use crate::mapping::sorted_mappings;
use crate::{
    fit_line, mapping_suite, run_cached_sweep, FitError, LineFit, NamedMapping, ScenarioResult,
    SimConfig,
};
use commloc_model::{
    ApplicationModel, CombinedModel, EndpointContention, NetworkModel, NodeModel, TorusGeometry,
    TransactionModel,
};
use commloc_net::{Topology, Torus};

/// Warmup window (network cycles) for full-size validation simulations
/// (the bench suite).
pub const WARMUP: u64 = 15_000;
/// Measurement window (network cycles) for full-size validation
/// simulations (the bench suite).
pub const WINDOW: u64 = 45_000;
/// Mapping-suite seed shared by the validation benches and the
/// conformance gates.
pub const SUITE_SEED: u64 = 1992;

/// Warmup window for the reduced conformance scenarios — long enough for
/// caches and schedulers to reach steady state, short enough that all
/// figure gates run in seconds.
pub const REDUCED_WARMUP: u64 = 6_000;
/// Measurement window for the reduced conformance scenarios.
pub const REDUCED_WINDOW: u64 = 18_000;

/// Worker-thread count for validation sweeps: `COMMLOC_JOBS` if set,
/// otherwise the machine's available parallelism.
///
/// # Errors
///
/// A set-but-invalid `COMMLOC_JOBS` (zero, negative, or non-numeric) is
/// an error rather than a silent fallback to the default — a typo like
/// `COMMLOC_JOBS=fourty` must not quietly change the worker count.
pub fn suite_jobs() -> Result<usize, String> {
    match std::env::var("COMMLOC_JOBS") {
        Err(std::env::VarError::NotPresent) => Ok(crate::default_jobs()),
        Err(e) => Err(format!("COMMLOC_JOBS: {e}")),
        Ok(v) => match v.parse::<usize>() {
            Ok(jobs) if jobs >= 1 => Ok(jobs),
            Ok(_) => Err(
                "COMMLOC_JOBS: must be at least 1 (unset it to use the machine's \
                 available parallelism)"
                    .into(),
            ),
            Err(_) => Err(format!(
                "COMMLOC_JOBS: `{v}` is not an integer (unset it to use the machine's \
                 available parallelism)"
            )),
        },
    }
}

/// Runs the full validation suite (all mappings, full windows) at one
/// context count, fanning the independent simulations across
/// [`suite_jobs`] threads. Routes through the process-wide scenario
/// cache ([`crate::run_cached_sweep`]), so repeated calls in one process
/// are served bit-identically without re-simulating.
pub fn validation_runs(contexts: usize) -> Vec<ScenarioResult> {
    let config = SimConfig {
        contexts,
        ..SimConfig::default()
    };
    let torus = Torus::new(config.dims, config.radix);
    let suite = mapping_suite(&torus, SUITE_SEED);
    let jobs = suite_jobs().expect("invalid COMMLOC_JOBS");
    run_cached_sweep(&config, &suite, WARMUP, WINDOW, jobs).expect("fault-free validation run")
}

/// The four-mapping subset of the validation suite used by the reduced
/// conformance scenarios: identity (d = 1), a scaled mapping, a random
/// mapping (the Eq. 17 regime), and the worst-case mapping — spanning
/// the suite's distance range with the fewest simulations. Only these
/// four are built, sorted by distance as the full suite sorts them.
pub fn reduced_suite(torus: &Torus, seed: u64) -> Vec<NamedMapping> {
    let topology = Topology::Cube(torus.clone());
    sorted_mappings(
        &topology,
        seed,
        ["identity", "scale3-x", "random-1", "worst"],
    )
}

/// Runs the reduced conformance sweep at one context count across `jobs`
/// threads. Deterministic: same seed, mappings, and windows every call.
pub fn reduced_runs(contexts: usize, jobs: usize) -> Vec<ScenarioResult> {
    let config = SimConfig {
        contexts,
        ..SimConfig::default()
    };
    let torus = Torus::new(config.dims, config.radix);
    let suite = reduced_suite(&torus, SUITE_SEED);
    run_cached_sweep(&config, &suite, REDUCED_WARMUP, REDUCED_WINDOW, jobs)
        .expect("fault-free conformance run")
}

/// Fits the application message curve (Figure 3's analysis) from a
/// validation suite: `T_m = s * t_m - F`.
///
/// # Errors
///
/// Returns a [`FitError`] for a degenerate suite (fewer than two runs,
/// or every mapping yielding the same message interval).
pub fn fit_message_curve(runs: &[ScenarioResult]) -> Result<LineFit, FitError> {
    let points: Vec<(f64, f64)> = runs
        .iter()
        .map(|r| (r.measured.message_interval, r.measured.message_latency))
        .collect();
    fit_line(&points)
}

/// Builds a combined model calibrated from measured application behavior,
/// following the paper's methodology: the latency sensitivity and curve
/// offset come from the fitted message curve (absorbing the measured
/// growth of `c` with context count that the paper reports), `g` and `B`
/// are the measured averages, and the network model is the analytical
/// Section 2.4 model for the simulated torus.
pub fn calibrated_model(contexts: usize, runs: &[ScenarioResult]) -> CombinedModel {
    let n = runs.len() as f64;
    let g: f64 = runs
        .iter()
        .map(|r| r.measured.messages_per_transaction)
        .sum::<f64>()
        / n;
    let b: f64 = runs
        .iter()
        .map(|r| r.measured.avg_message_size)
        .sum::<f64>()
        / n;
    let b_resid: f64 = runs
        .iter()
        .map(|r| r.measured.residual_message_size)
        .sum::<f64>()
        / n;
    let t_r: f64 = runs.iter().map(|r| r.measured.run_length).sum::<f64>() / n;
    // A degenerate suite (every mapping at one message interval) cannot
    // pin the slope; rather than failing the whole calibration, fall back
    // to the nominal slope implied by the paper's request–reply critical
    // path `c = 2`.
    let (s, offset) = match fit_message_curve(runs) {
        Ok(fit) => (fit.slope.max(0.1), (-fit.intercept).max(t_r * 0.5)),
        Err(_) => ((contexts as f64 * g / 2.0).max(0.1), t_r * 0.5),
    };
    // Effective critical path and fixed overhead reproducing (s, offset).
    let c_eff = (contexts as f64 * g / s).max(1.0);
    let t_f = (c_eff * offset - t_r).max(0.0);
    let app = ApplicationModel::new(t_r, contexts as u32, 22.0).expect("valid application");
    let txn = TransactionModel::new(c_eff, g.max(c_eff), t_f).expect("valid transaction");
    let geometry = TorusGeometry::new(2, 8.0).expect("valid torus");
    let network = NetworkModel::new(geometry, b)
        .expect("valid network")
        .with_contention_size(b_resid)
        .with_endpoint_contention(EndpointContention::MD1);
    CombinedModel::new(NodeModel::new(app, txn), network)
}

/// Formats a percentage error.
pub fn pct_err(model: f64, measured: f64) -> f64 {
    (model - measured) / measured * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduced_suite_spans_the_distance_range() {
        let torus = Torus::new(2, 8);
        let suite = reduced_suite(&torus, SUITE_SEED);
        assert_eq!(suite.len(), 4);
        assert_eq!(suite.first().unwrap().name, "identity");
        assert_eq!(suite.last().unwrap().name, "worst");
        assert!(suite.last().unwrap().distance > 3.0 * suite[0].distance);
    }

    #[test]
    fn reduced_suite_equals_the_filtered_full_suite() {
        // Building the four mappings by name must give exactly what
        // filtering the whole ten-mapping suite gave.
        let torus = Torus::new(2, 8);
        for seed in [SUITE_SEED, 7] {
            let filtered: Vec<NamedMapping> = mapping_suite(&torus, seed)
                .into_iter()
                .filter(|m| {
                    ["identity", "scale3-x", "random-1", "worst"].contains(&m.name.as_str())
                })
                .collect();
            let reduced = reduced_suite(&torus, seed);
            assert_eq!(reduced.len(), filtered.len(), "seed {seed}");
            for (a, b) in reduced.iter().zip(&filtered) {
                assert_eq!(a.name, b.name, "seed {seed}");
                assert_eq!(a.mapping, b.mapping, "seed {seed}: {}", a.name);
                assert_eq!(
                    a.distance.to_bits(),
                    b.distance.to_bits(),
                    "seed {seed}: {}",
                    a.name
                );
            }
        }
    }

    #[test]
    fn pct_err_signs() {
        assert!(pct_err(11.0, 10.0) > 0.0);
        assert!(pct_err(9.0, 10.0) < 0.0);
    }

    #[test]
    fn suite_jobs_validates_the_environment() {
        // One test owns every COMMLOC_JOBS state, because the process
        // environment is shared across the parallel test threads.
        std::env::remove_var("COMMLOC_JOBS");
        assert!(suite_jobs().expect("unset env uses the default") >= 1);
        std::env::set_var("COMMLOC_JOBS", "3");
        assert_eq!(suite_jobs().expect("explicit job count"), 3);
        std::env::set_var("COMMLOC_JOBS", "0");
        let err = suite_jobs().expect_err("zero workers is invalid");
        assert!(err.contains("at least 1"), "{err}");
        std::env::set_var("COMMLOC_JOBS", "fourty");
        let err = suite_jobs().expect_err("words are not worker counts");
        assert!(err.contains("`fourty` is not an integer"), "{err}");
        std::env::remove_var("COMMLOC_JOBS");
    }
}
