//! Ablation — which model extensions earn their keep?
//!
//! DESIGN.md calls out two modeling choices beyond the paper's core
//! equations: the endpoint-channel (processor↔network) contention term
//! (the paper's extension from [7]) and the M/G/1 residual-service-size
//! correction for the bimodal coherence-message mix. This bench runs the
//! cycle-level simulator once and evaluates model-prediction error under
//! all four on/off combinations, plus the network-dimension study of
//! Section 4.2's closing remark.

use commloc_bench::{calibrated_model, pct_err, time_it, validation_runs};
use commloc_model::{dimension_study, CombinedModel, EndpointContention, MachineConfig};
use commloc_sim::ScenarioResult;
use std::hint::black_box;

/// The calibrated model with its two extensions switched: the endpoint
/// term, and the residual size (off reads the mean message size, which
/// is what the network model falls back to without one).
fn model_variant(
    contexts: usize,
    runs: &[ScenarioResult],
    endpoint: EndpointContention,
    residual_correction: bool,
) -> CombinedModel {
    let calibrated = calibrated_model(contexts, runs);
    let mut network = calibrated.network().with_endpoint_contention(endpoint);
    if !residual_correction {
        network = network.with_contention_size(network.message_size());
    }
    CombinedModel::new(*calibrated.node(), network)
}

fn mean_abs_rate_error(model: &CombinedModel, runs: &[ScenarioResult]) -> f64 {
    let mut total = 0.0;
    for run in runs {
        let predicted = model
            .solve(run.measured.distance)
            .map(|op| op.message_rate)
            .unwrap_or(f64::NAN);
        total += pct_err(predicted, run.measured.message_rate).abs();
    }
    total / runs.len() as f64
}

fn reproduce() {
    println!("\n=== Ablation: model extensions vs simulator agreement ===");
    for contexts in [1usize, 2] {
        let runs = validation_runs(contexts);
        println!("\n-- {contexts} context(s): mean |rate error| across the mapping suite --");
        println!("{:<44} {:>10}", "variant", "mean |err|");
        let variants = [
            ("core equations only", EndpointContention::Ignore, false),
            (
                "+ endpoint channel (paper ext. [7])",
                EndpointContention::MD1,
                false,
            ),
            ("+ M/G/1 residual size", EndpointContention::Ignore, true),
            ("+ both (shipping default)", EndpointContention::MD1, true),
        ];
        for (name, endpoint, residual) in variants {
            let model = model_variant(contexts, &runs, endpoint, residual);
            let err = mean_abs_rate_error(&model, &runs);
            println!("{name:<44} {err:>9.1}%");
        }
    }

    println!("\n=== Section 4.2 closing remark: gain vs network dimension (N = 10^6) ===");
    println!(
        "{:>4} {:>8} {:>10} {:>10} {:>8}",
        "n", "k", "d_random", "T_h limit", "gain"
    );
    let cfg = MachineConfig::alewife().with_contexts(2).with_nodes(1e6);
    for point in dimension_study(&cfg, &[2, 3, 4, 5]).expect("solvable") {
        println!(
            "{:>4} {:>8.1} {:>10.1} {:>10.2} {:>8.1}",
            point.dimension,
            point.radix,
            point.random_distance,
            point.limiting_per_hop_latency,
            point.gain
        );
    }
}

fn main() {
    reproduce();
    let cfg = MachineConfig::alewife().with_contexts(2).with_nodes(1e6);
    time_it("ablation/dimension_study", 1_000, || {
        black_box(dimension_study(&cfg, black_box(&[2, 3, 4, 5])).unwrap())
    });
}
