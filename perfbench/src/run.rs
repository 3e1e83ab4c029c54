//! What one workload run collects, and the end-to-end metrics made from
//! it.

use crate::calib::{self, Clock};
use crate::spans::Recorder;
use crate::stats;
use crate::Report;

/// Durations of one kind of operation, raw and calibrated (seconds).
#[derive(Debug, Default)]
pub struct Samples {
    /// Calibrated seconds (see [`crate::calib`]).
    pub cal: Vec<f64>,
    /// Wall-clock seconds.
    pub raw: Vec<f64>,
    /// Simulated node-cycles per operation (0 when it simulates nothing).
    pub node_cycles: Vec<f64>,
    /// Whether spans were recorded during the operation.
    pub traced: Vec<bool>,
}

impl Samples {
    /// Records one operation.
    pub fn push(&mut self, raw: f64, cal: f64, node_cycles: f64, traced: bool) {
        self.raw.push(raw);
        self.cal.push(cal);
        self.node_cycles.push(node_cycles);
        self.traced.push(traced);
    }

    /// Median calibrated duration in milliseconds.
    pub fn p50_ms(&self) -> f64 {
        stats::median(&self.cal).unwrap_or(f64::NAN) * 1e3
    }

    /// Median simulated node-cycles per calibrated second.
    pub fn rate(&self) -> f64 {
        let rates: Vec<f64> = self
            .node_cycles
            .iter()
            .zip(&self.cal)
            .map(|(nc, s)| nc / s)
            .collect();
        stats::median(&rates).unwrap_or(f64::NAN)
    }

    /// Tracing overhead: median calibrated duration of the traced
    /// operations over that of the untraced ones, minus one.
    pub fn overhead(&self) -> f64 {
        let pick = |traced: bool| -> Vec<f64> {
            self.cal
                .iter()
                .zip(&self.traced)
                .filter(|(_, t)| **t == traced)
                .map(|(c, _)| *c)
                .collect()
        };
        match (stats::median(&pick(true)), stats::median(&pick(false))) {
            (Some(on), Some(off)) => on / off - 1.0,
            _ => f64::NAN,
        }
    }

    /// One line with the calibrated median and quartiles and the raw
    /// (uncalibrated) median, for the log.
    pub fn describe(&self, what: &str) -> String {
        let raw = stats::median(&self.raw).unwrap_or(f64::NAN);
        let (q1, q3) = stats::quartiles(&self.cal).unwrap_or((f64::NAN, f64::NAN));
        format!(
            "{what}: {} samples, median {:.3} ms calibrated (quartiles {:.3}, {:.3}), {:.3} ms raw",
            self.cal.len(),
            self.p50_ms(),
            q1 * 1e3,
            q3 * 1e3,
            raw * 1e3
        )
    }
}

/// The state one workload run threads through its phases.
#[derive(Debug)]
pub struct Run {
    /// Span recorder (records only in a traced run).
    pub rec: Recorder,
    /// Calibration kernel.
    pub clock: Clock,
    /// The run's report.
    pub report: Report,
    /// Set-up repetitions.
    pub setup: Samples,
    /// Resident bytes the calibration kernel itself holds, left out of
    /// `peak_rss_mb` (`None` when the host does not report them).
    calib_bytes: Option<u64>,
}

impl Run {
    /// A run, traced or not.
    pub fn new(trace: bool) -> Self {
        let before = stats::own_status_bytes("VmRSS");
        let clock = Clock::default();
        let after = stats::own_status_bytes("VmRSS");
        Self {
            rec: Recorder::new(trace),
            clock,
            report: Report::default(),
            setup: Samples::default(),
            calib_bytes: after.zip(before).map(|(a, b)| a.saturating_sub(b)),
        }
    }

    /// Runs `f` against a fresh calibration reading; returns its output and
    /// its raw and calibrated durations in seconds.
    pub fn timed<R>(&mut self, f: impl FnOnce(&mut Recorder) -> R) -> (R, f64, f64) {
        self.clock.calibrate();
        let rec = &mut self.rec;
        self.clock.time(|| f(rec))
    }

    /// Adds `setup_s` and `peak_rss_mb`, which every workload reports.
    pub fn common_metrics(&mut self) {
        let setup = stats::median(&self.setup.cal).unwrap_or(f64::NAN);
        self.report.metric("setup_s", setup, "s");
        let notes = self.setup.describe("set-up");
        self.report.notes.push(notes);
        let kernel = self.kernel_line();
        self.report.notes.push(kernel);
        match self.own_peak_rss() {
            Some(own) => self
                .report
                .metric("peak_rss_mb", own as f64 / (1u64 << 20) as f64, "MB"),
            None => self
                .report
                .notes
                .push("peak_rss_mb omitted: VmHWM or VmRSS unavailable".into()),
        }
    }

    /// One line describing the calibration kernel's runs.
    pub fn kernel_line(&self) -> String {
        format!(
            "calibration kernel: {} runs, median {:.3} ms (reference {:.3} ms)",
            self.clock.kernel.len(),
            stats::median(&self.clock.kernel).unwrap_or(f64::NAN) * 1e3,
            calib::REFERENCE_S * 1e3
        )
    }

    /// Peak resident bytes (`VmHWM`) less what the calibration kernel
    /// holds; `None` when the host reports neither.
    pub fn own_peak_rss(&self) -> Option<u64> {
        Some(stats::own_status_bytes("VmHWM")?.saturating_sub(self.calib_bytes?))
    }

    /// Adds the tail latency of `samples` as `hot_p90_ms`, stating the
    /// percentile and sample count.
    pub fn tail_metric(&mut self, samples: &Samples, what: &str) {
        let ms: Vec<f64> = samples.cal.iter().map(|s| s * 1e3).collect();
        match stats::tail_percentile(&ms) {
            Some((pct, value)) => {
                self.report.notes.push(format!(
                    "hot_p90_ms is the p{pct:.1} of {} {what}",
                    ms.len()
                ));
                self.report.metric("hot_p90_ms", value, "ms");
            }
            None => self.report.fail(format!(
                "hot_p90_ms: only {} {what}, no percentile has ten beyond it",
                ms.len()
            )),
        }
    }
}
