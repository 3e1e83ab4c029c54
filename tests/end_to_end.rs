//! Cross-crate integration tests: the full simulated machine against the
//! analytical model, spanning every workspace crate through the facade.
//!
//! Every tolerance used here is a named constant from
//! [`commloc::sim::conformance::tolerances`], shared with the golden-file
//! conformance gates — the one place in the tree where "how close must
//! model and simulator agree" is decided.

use commloc::model::{expected_gain, limiting_per_hop_latency, EndpointContention, MachineConfig};
use commloc::net::Topology;
use commloc::sim::conformance::tolerances::{
    EQ16_BOUND_FLOOR, EQ16_BOUND_MARGIN, GAIN_1K_RANGE, GAIN_1M_RANGE, LIMITING_LATENCY,
    LIMITING_LATENCY_TOL, MODEL_VS_SIM_GAIN, PROTOCOL_B_ABS, PROTOCOL_G_ABS,
    SLOPE_RATIO_P2_OVER_P1, SLOW_NETWORK_GAIN_RATIO_RANGE,
};
use commloc::sim::{fit_line, Mapping, Measurements, Scenario, SimConfig, SimError};

/// Runs `mapping` on `config` through the one run body and measures the
/// window.
fn measure(
    config: &SimConfig,
    mapping: &Mapping,
    warmup: u64,
    window: u64,
) -> Result<Measurements, SimError> {
    let scenario = Scenario::new(config.clone(), warmup, window);
    Ok(scenario.run(mapping)?.measure())
}

/// Asserts `value` lies in the inclusive `(lo, hi)` tolerance range.
fn assert_in_range(what: &str, value: f64, (lo, hi): (f64, f64)) {
    assert!(
        (lo..=hi).contains(&value),
        "{what} = {value} outside tolerance range [{lo}, {hi}]"
    );
}

/// Asserts `actual` is within relative tolerance `tol` of `expected`.
fn assert_rel_err(what: &str, actual: f64, expected: f64, tol: f64) {
    let err = (actual - expected).abs() / expected.abs().max(1e-12);
    assert!(
        err <= tol,
        "{what}: actual {actual} vs expected {expected} (rel err {err:.3} > {tol})"
    );
}

/// Asserts `actual` is within absolute tolerance `tol` of `expected`.
fn assert_abs_err(what: &str, actual: f64, expected: f64, tol: f64) {
    assert!(
        (actual - expected).abs() <= tol,
        "{what}: actual {actual} vs expected {expected} (abs tol {tol})"
    );
}

/// The centerpiece validation: message-curve slopes measured from the
/// cycle-level simulator scale with the hardware context count as the
/// node model predicts (Figure 3's conclusion).
#[test]
fn message_curve_slopes_scale_with_contexts() {
    let mappings = [
        Mapping::identity(64),
        Mapping::random_swaps(64, 20, 9),
        Mapping::random(64, 9),
        Mapping::maximize_app_distance(&Topology::cube(2, 8), 9, 1500),
    ];
    let mut slopes = Vec::new();
    for contexts in [1usize, 2] {
        let points: Vec<(f64, f64)> = mappings
            .iter()
            .map(|m| {
                let cfg = SimConfig {
                    contexts,
                    ..SimConfig::default()
                };
                let meas = measure(&cfg, m, 10_000, 30_000).expect("fault-free run");
                (meas.message_interval, meas.message_latency)
            })
            .collect();
        slopes.push(fit_line(&points).expect("distinct message intervals").slope);
    }
    assert_in_range(
        "slope ratio p2/p1",
        slopes[1] / slopes[0],
        SLOPE_RATIO_P2_OVER_P1,
    );
}

/// Simulated per-processor performance ratio between ideal and random
/// mappings on the 64-node machine is modest (well under the distance
/// ratio), exactly as the model predicts for a machine this size.
#[test]
fn locality_gain_at_64_nodes_is_modest() {
    let cfg = SimConfig::default();
    let ideal = measure(&cfg, &Mapping::identity(64), 10_000, 30_000).expect("fault-free run");
    let random = measure(&cfg, &Mapping::random(64, 17), 10_000, 30_000).expect("fault-free run");
    let sim_gain = ideal.transaction_rate / random.transaction_rate;
    // Model prediction for the same machine.
    let machine = MachineConfig::alewife().with_nodes(64.0);
    let model_gain = expected_gain(&machine).expect("solvable").gain;
    assert!(sim_gain > 1.0, "locality must help: {sim_gain}");
    assert!(
        sim_gain < 2.0,
        "64 nodes is far from the communication-bound regime: {sim_gain}"
    );
    // Model and simulation agree on the magnitude of the gain.
    assert_rel_err("locality gain", sim_gain, model_gain, MODEL_VS_SIM_GAIN);
}

/// The measured g and B of the simulated coherence protocol match the
/// values the paper reports for its workload (Section 3.2), which the
/// analytical defaults encode.
#[test]
fn protocol_statistics_match_calibration() {
    let m = measure(
        &SimConfig::default(),
        &Mapping::identity(64),
        10_000,
        30_000,
    )
    .expect("fault-free run");
    let machine = MachineConfig::alewife();
    assert_abs_err(
        "g (messages per transaction)",
        m.messages_per_transaction,
        machine.messages_per_transaction(),
        PROTOCOL_G_ABS,
    );
    assert_abs_err(
        "B (message size)",
        m.avg_message_size,
        machine.message_size(),
        PROTOCOL_B_ABS,
    );
}

/// The simulator's per-hop latency stays below the Eq. 16 limit for its
/// latency sensitivity — the feedback bound applies to the real machine,
/// not just the model.
#[test]
fn simulated_per_hop_latency_respects_eq16_style_bound() {
    for contexts in [1usize, 2] {
        let cfg = SimConfig {
            contexts,
            ..SimConfig::default()
        };
        let m = measure(&cfg, &Mapping::random(64, 23), 10_000, 30_000).expect("fault-free run");
        // Eq. 16 with the measured effective sensitivity: B*s/(2n), where
        // s is bounded by p*g/c = p*g/2.
        let s = contexts as f64 * m.messages_per_transaction / 2.0;
        let limit = m.avg_message_size * s / 4.0;
        assert!(
            m.per_hop_latency < limit.max(EQ16_BOUND_FLOOR) * EQ16_BOUND_MARGIN,
            "p={contexts}: T_h = {} vs bound {limit}",
            m.per_hop_latency
        );
    }
}

/// Model-side sanity from the facade: the headline numbers of the
/// abstract (gain about 2 at 1,000 processors, tens at a million,
/// three-ish times more with an 8x slower network).
#[test]
fn headline_numbers_from_the_abstract() {
    let base = MachineConfig::alewife().with_endpoint_contention(EndpointContention::Ignore);
    let g1k = expected_gain(&base.with_nodes(1e3)).unwrap().gain;
    let g1m = expected_gain(&base.with_nodes(1e6)).unwrap().gain;
    assert_in_range("gain(10^3)", g1k, GAIN_1K_RANGE);
    assert_in_range("gain(10^6)", g1m, GAIN_1M_RANGE);
    let slow = base.scale_network_speed(0.125);
    let s1k = expected_gain(&slow.with_nodes(1e3)).unwrap().gain;
    assert_in_range(
        "8x network-slowdown gain ratio",
        s1k / g1k,
        SLOW_NETWORK_GAIN_RATIO_RANGE,
    );
}

/// The limiting per-hop latency matches the paper's 9.8-cycle figure for
/// the two-context application.
#[test]
fn limiting_latency_matches_paper() {
    let limit = limiting_per_hop_latency(&MachineConfig::alewife().with_contexts(2));
    assert_abs_err(
        "limiting per-hop latency",
        limit,
        LIMITING_LATENCY,
        LIMITING_LATENCY_TOL,
    );
}
