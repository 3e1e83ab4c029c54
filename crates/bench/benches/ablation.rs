//! Ablation — which model extensions earn their keep?
//!
//! DESIGN.md calls out two modeling choices beyond the paper's core
//! equations: the endpoint-channel (processor↔network) contention term
//! (the paper's extension from [7]) and the M/G/1 residual-service-size
//! correction for the bimodal coherence-message mix. This bench runs the
//! cycle-level simulator once and evaluates model-prediction error under
//! all four on/off combinations, plus the network-dimension study of
//! Section 4.2's closing remark.

use commloc_bench::{fit_message_curve, pct_err, time_it, validation_runs};
use commloc_model::{
    dimension_study, ApplicationModel, CombinedModel, EndpointContention, MachineConfig,
    NetworkModel, NodeModel, TorusGeometry, TransactionModel,
};
use commloc_sim::ScenarioResult;
use std::hint::black_box;

/// Builds the calibrated model with explicit feature switches.
fn model_variant(
    contexts: usize,
    runs: &[ScenarioResult],
    endpoint: EndpointContention,
    residual_correction: bool,
) -> CombinedModel {
    let fit = fit_message_curve(runs).expect("non-degenerate validation suite");
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
    let s = fit.slope.max(0.1);
    let offset = (-fit.intercept).max(t_r * 0.5);
    let c_eff = (contexts as f64 * g / s).max(1.0);
    let t_f = (c_eff * offset - t_r).max(0.0);
    let app = ApplicationModel::new(t_r, contexts as u32, 22.0).expect("valid");
    let txn = TransactionModel::new(c_eff, g.max(c_eff), t_f).expect("valid");
    let mut network = NetworkModel::new(TorusGeometry::new(2, 8.0).expect("valid"), b)
        .expect("valid")
        .with_endpoint_contention(endpoint);
    if residual_correction {
        network = network.with_contention_size(b_resid);
    }
    CombinedModel::new(NodeModel::new(app, txn), network)
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
