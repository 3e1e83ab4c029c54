//! Shared machinery for the reproduction benches.
//!
//! Each bench target under `benches/` regenerates one table or figure of
//! the paper's evaluation: it prints the reproduced rows/series to stdout
//! (so `cargo bench` output is the reproduction record) and then times
//! the underlying computation with the in-tree [`time_it`] loop. The
//! expensive cycle-level simulations run **once**, outside the
//! measurement loops.
//!
//! The scenario definitions (windows, suite seed, calibration) live in
//! [`commloc_sim::conformance`] so the bench targets and the conformance
//! gates agree on them by construction; this crate re-exports them under
//! their historical names.

pub use commloc_sim::conformance::{
    calibrated_model, fit_message_curve, pct_err, suite_jobs as bench_jobs, validation_runs,
    SUITE_SEED, WARMUP, WINDOW,
};
use commloc_sim::json::Json;
use std::path::{Path, PathBuf};

/// The committed rates [`RegressionGate::compare`] reads, keyed by each
/// row's `key` field as text; empty when no record is committed. The
/// benches only ever read the committed record.
fn committed_rates(bench: &str, rows: &str, key: &str) -> Vec<(String, f64)> {
    fn field<'a>(object: &'a Json, name: &str) -> Result<&'a Json, String> {
        object.field(name)?.ok_or(format!("no `{name}`"))
    }
    let path = repo_root().join(format!("BENCH_{bench}.json"));
    let Ok(text) = std::fs::read_to_string(&path) else {
        return Vec::new();
    };
    let parse = || -> Result<Vec<(String, f64)>, String> {
        let doc = Json::parse(&text)?;
        field(&doc, rows)?
            .as_array()?
            .iter()
            .map(|row| {
                let id = match field(row, key)? {
                    Json::String(name) => name.clone(),
                    other => other.to_string(),
                };
                Ok((id, field(row, "cycles_per_sec")?.as_number()?))
            })
            .collect()
    };
    parse().unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The committed-baseline regression gate the engine benches share.
pub struct RegressionGate {
    min_ratio: f64,
    regressed: Vec<String>,
}

impl RegressionGate {
    /// Prints each measured `(key, cycles_per_sec)` row's ratio to the
    /// `cycles_per_sec` of the committed `BENCH_<bench>.json` row — an
    /// object of its `rows` array — whose `key` field matches, and
    /// records the rows below `min_ratio` times it. Rows with no
    /// committed counterpart, and benches with no committed record, pass.
    ///
    /// # Panics
    ///
    /// Panics if a committed record does not hold such rows.
    pub fn compare(
        bench: &str,
        rows: &str,
        key: &str,
        measured: &[(String, f64)],
        min_ratio: f64,
    ) -> Self {
        let committed = committed_rates(bench, rows, key);
        if !committed.is_empty() {
            println!();
        }
        let mut regressed = Vec::new();
        for (id, rate) in measured {
            let Some(&(_, base)) = committed.iter().find(|(k, _)| k == id) else {
                continue;
            };
            let (label, ratio) = (format!("{key} {id}"), rate / base);
            println!(
                "vs committed baseline: {label:<32} {ratio:>6.2}x ({base:.0} -> {rate:.0} cyc/s)"
            );
            if ratio < min_ratio {
                regressed.push(format!(
                    "{label}: {rate:.0} cyc/s is {:.0}% below the committed {base:.0} cyc/s",
                    (1.0 - ratio) * 100.0
                ));
            }
        }
        Self {
            min_ratio,
            regressed,
        }
    }

    /// Lists the regressions, if any, and exits non-zero when the
    /// environment sets `COMMLOC_PERF_ENFORCE=1`.
    pub fn enforce(&self) {
        if self.regressed.is_empty() {
            return;
        }
        let pct = (1.0 - self.min_ratio) * 100.0;
        eprintln!("\nperformance regression (>{pct:.0}% below committed baseline):");
        for r in &self.regressed {
            eprintln!("  {r}");
        }
        if std::env::var("COMMLOC_PERF_ENFORCE").as_deref() == Ok("1") {
            std::process::exit(1);
        }
        eprintln!("  (set COMMLOC_PERF_ENFORCE=1 to fail the run)");
    }
}

/// Writes a bench's measured record to `target/bench/BENCH_<name>.json`
/// under the repository root and returns its path. Re-blessing a
/// baseline is an explicit copy of that file over the committed one.
///
/// # Panics
///
/// Panics if the directory or the file cannot be written.
pub fn write_measured(name: &str, json: &str) -> PathBuf {
    let dir = repo_root().join("target").join("bench");
    std::fs::create_dir_all(&dir).unwrap_or_else(|e| panic!("create {}: {e}", dir.display()));
    let path = dir.join(format!("BENCH_{name}.json"));
    std::fs::write(&path, json).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    path
}

/// The repository root: two levels above this crate's manifest.
fn repo_root() -> &'static Path {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    manifest
        .ancestors()
        .nth(2)
        .expect("crates/bench sits two levels down")
}

/// Times `f` with a warmup pass and a fixed iteration loop, printing a
/// mean per-iteration figure. The in-tree replacement for an external
/// bench harness: the workspace builds without registry access, so the
/// bench targets carry their own timing loop.
pub fn time_it<T>(label: &str, iters: u32, mut f: impl FnMut() -> T) {
    std::hint::black_box(f());
    let start = std::time::Instant::now();
    for _ in 0..iters {
        std::hint::black_box(f());
    }
    let per_iter = start.elapsed().as_secs_f64() / f64::from(iters.max(1));
    let (value, unit) = if per_iter >= 1.0 {
        (per_iter, "s")
    } else if per_iter >= 1e-3 {
        (per_iter * 1e3, "ms")
    } else if per_iter >= 1e-6 {
        (per_iter * 1e6, "us")
    } else {
        (per_iter * 1e9, "ns")
    };
    println!("time/{label}: {value:.3} {unit}/iter over {iters} iters");
}

/// Runs `f` once, printing its wall-clock time, and returns its value —
/// for one-shot stages (the expensive cycle-level sweeps) whose duration
/// should appear in the bench record.
pub fn timed<T>(label: &str, f: impl FnOnce() -> T) -> T {
    let start = std::time::Instant::now();
    let value = f();
    println!("wallclock/{label}: {:.3} s", start.elapsed().as_secs_f64());
    value
}

/// One worker point of the scale-out throughput curve
/// (`benches/scale.rs`).
#[derive(Debug, Clone, Copy)]
pub struct ScalePoint {
    pub workers: usize,
    pub cycles: u64,
    pub wall_secs: f64,
    pub cycles_per_sec: f64,
    pub completions: u64,
    pub speedup: f64,
}

/// Renders `BENCH_scale.json`.
///
/// `rss_per_node` is `None` when `/proc/self/status` has no readable
/// `VmHWM` line (non-Linux hosts, stripped procfs). In that case the
/// `peak_rss_bytes_per_node` field is omitted entirely — never written as
/// `null` or a bogus `0` — and an explanatory `peak_rss_note` records
/// why, so the file stays valid JSON with every present field numeric or
/// string. Lives here (not in the bench target) so `cargo test` covers
/// both shapes; the CI perf gate machine-parses this output.
pub fn render_scale_json(
    radix: usize,
    shards: usize,
    host_cores: usize,
    rss_per_node: Option<f64>,
    points: &[ScalePoint],
) -> String {
    let rss_field = match rss_per_node {
        Some(rss) => format!("\"peak_rss_bytes_per_node\": {rss:.0},\n  "),
        None => String::from(
            "\"peak_rss_note\": \"VmHWM unavailable on this host \
             (non-Linux or stripped /proc); peak_rss_bytes_per_node omitted\",\n  ",
        ),
    };
    let mut out = format!(
        "{{\n  \"bench\": \"scale\",\n  \"unit\": \"simulated_network_cycles_per_sec\",\n  \
         \"torus\": \"{radix}x{radix}\",\n  \"nodes\": {},\n  \"shards\": {shards},\n  \
         \"host_cores\": {host_cores},\n  {rss_field}\
         \"note\": \"speedup_vs_1_worker is bounded above by host_cores; a flat curve beyond \
         host_cores workers reflects the recording host, not the engine\",\n  \"points\": [\n",
        radix * radix,
    );
    for (i, p) in points.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"workers\": {}, \"cycles\": {}, \"wall_secs\": {:.3}, \
             \"cycles_per_sec\": {:.1}, \"completions\": {}, \"speedup_vs_1_worker\": {:.2}}}{}\n",
            p.workers,
            p.cycles,
            p.wall_secs,
            p.cycles_per_sec,
            p.completions,
            p.speedup,
            if i + 1 < points.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use commloc_net::Torus;
    use commloc_sim::{mapping_suite, run_cached_sweep, SimConfig};

    fn scale_points() -> Vec<ScalePoint> {
        vec![
            ScalePoint {
                workers: 1,
                cycles: 400,
                wall_secs: 2.0,
                cycles_per_sec: 200.0,
                completions: 99,
                speedup: 1.0,
            },
            ScalePoint {
                workers: 2,
                cycles: 400,
                wall_secs: 1.0,
                cycles_per_sec: 400.0,
                completions: 99,
                speedup: 2.0,
            },
        ]
    }

    #[test]
    fn scale_json_with_rss_emits_numeric_field() {
        let json = render_scale_json(256, 16, 8, Some(9715.4), &scale_points());
        assert!(json.contains("\"peak_rss_bytes_per_node\": 9715,"));
        assert!(!json.contains("peak_rss_note"));
        assert!(!json.contains("null"));
    }

    #[test]
    fn scale_json_without_rss_omits_field_with_note() {
        let json = render_scale_json(256, 16, 8, None, &scale_points());
        // The explanatory note names the omitted field, so check for the
        // field *key* form specifically.
        assert!(
            !json.contains("\"peak_rss_bytes_per_node\":"),
            "missing VmHWM must omit the field, not fake it"
        );
        assert!(json.contains("\"peak_rss_note\""));
        assert!(!json.contains("null"), "no malformed/null JSON on fallback");
    }

    #[test]
    fn scale_json_shape_is_stable_both_ways() {
        // The perf gate greps point lines; both variants must keep the
        // one-object-per-line points array and balanced braces.
        for rss in [Some(100.0), None] {
            let json = render_scale_json(64, 16, 4, rss, &scale_points());
            assert_eq!(json.matches("\"workers\":").count(), 2);
            assert_eq!(
                json.matches('{').count(),
                json.matches('}').count(),
                "unbalanced braces"
            );
            assert!(json
                .lines()
                .any(|l| l.contains("\"cycles_per_sec\": 200.0")));
        }
    }

    #[test]
    fn each_gate_reads_its_committed_baseline_and_trips_below_the_threshold() {
        for (bench, rows, key, min_ratio) in [
            ("fabric", "scenarios", "name", 0.8),
            ("machine", "scenarios", "name", 0.5),
            ("scale", "points", "workers", 0.5),
        ] {
            let committed = committed_rates(bench, rows, key);
            assert!(!committed.is_empty(), "{bench}: no committed rows");
            for (id, base) in &committed {
                let at = |ratio: f64| {
                    let measured = [(id.clone(), base * ratio)];
                    RegressionGate::compare(bench, rows, key, &measured, min_ratio).regressed
                };
                assert_eq!(at(min_ratio * 0.99).len(), 1, "{bench} {id}");
                assert!(at(min_ratio * 1.01).is_empty(), "{bench} {id}");
            }
        }
        let workers: Vec<String> = committed_rates("scale", "points", "workers")
            .into_iter()
            .map(|(id, _)| id)
            .collect();
        assert_eq!(workers, ["1", "2", "4", "8"]);
    }

    #[test]
    fn calibrated_model_solves_suite_distances() {
        // A fast smoke test with a tiny window: the calibrated model must
        // produce operating points for every suite distance.
        let config = SimConfig::default();
        let torus = Torus::new(config.dims, config.radix);
        let suite: Vec<_> = mapping_suite(&torus, 3).into_iter().take(4).collect();
        let runs =
            run_cached_sweep(&config, &suite, 4_000, 10_000, 1).expect("fault-free smoke run");
        let model = calibrated_model(1, &runs);
        for run in &runs {
            let op = model.solve(run.measured.distance).expect("solvable");
            assert!(op.message_rate > 0.0);
        }
    }

    #[test]
    fn pct_err_signs() {
        assert!(pct_err(11.0, 10.0) > 0.0);
        assert!(pct_err(9.0, 10.0) < 0.0);
    }
}
