//! Golden result tables: the machine-readable per-figure output of the
//! conformance harness, their JSON serialization (via the shared
//! hand-rolled [`crate::json`] module — the workspace builds without
//! registry access, so there is no serde), and the per-point comparison
//! that gates a run against a checked-in golden file.

use super::tolerances::golden_tolerance;
use crate::json::{json_string, Json};
use std::fmt;

/// One labeled row of a result table: a point on a figure with its named
/// numeric values.
#[derive(Debug, Clone, PartialEq)]
pub struct GoldenRow {
    /// Row label, unique within the table (mapping name, `N=...`, ...).
    pub label: String,
    /// Named values in presentation order.
    pub values: Vec<(String, f64)>,
}

impl GoldenRow {
    /// Looks up a value by metric name.
    pub fn value(&self, metric: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| n == metric)
            .map(|&(_, v)| v)
    }
}

/// A figure's result table: what the conformance harness produced for
/// one figure, or what a checked-in golden file says it must produce.
#[derive(Debug, Clone, PartialEq)]
pub struct GoldenTable {
    /// Figure name (`fig3` ... `fig9`).
    pub figure: String,
    /// Name of the tolerance constant in
    /// [`tolerances`](super::tolerances) this table is gated with.
    pub tolerance_name: String,
    /// Value of that constant at the time the table was produced.
    pub tolerance: f64,
    /// The rows.
    pub rows: Vec<GoldenRow>,
}

/// One golden-gate violation: a value outside tolerance, a missing or
/// extra row/metric, or a stale tolerance citation.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// Figure the violation is in.
    pub figure: String,
    /// Row label (empty for table-level problems).
    pub label: String,
    /// Metric name (empty for row-level problems).
    pub metric: String,
    /// What went wrong.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.figure)?;
        if !self.label.is_empty() {
            write!(f, " / {}", self.label)?;
        }
        if !self.metric.is_empty() {
            write!(f, " / {}", self.metric)?;
        }
        write!(f, ": {}", self.detail)
    }
}

/// Relative error of `current` against `golden`, with an absolute floor:
/// differences below 1e-9 never count (guards metrics whose golden value
/// is legitimately zero).
pub fn rel_err(current: f64, golden: f64) -> f64 {
    let diff = (current - golden).abs();
    if diff <= 1e-9 {
        0.0
    } else {
        diff / golden.abs().max(1e-12)
    }
}

impl GoldenTable {
    /// Looks up a value by row label and metric name.
    pub fn value(&self, label: &str, metric: &str) -> Option<f64> {
        self.rows.iter().find(|r| r.label == label)?.value(metric)
    }

    /// Compares this (current) table against a checked-in `golden` one,
    /// returning every violation: mismatched tolerance citation, rows or
    /// metrics present on one side only, and values whose [`rel_err`]
    /// exceeds the golden tolerance.
    pub fn compare_against(&self, golden: &GoldenTable) -> Vec<Violation> {
        let mut violations = Vec::new();
        let mut fault = |label: &str, metric: &str, detail: String| {
            violations.push(Violation {
                figure: self.figure.clone(),
                label: label.to_owned(),
                metric: metric.to_owned(),
                detail,
            });
        };
        if self.figure != golden.figure {
            fault(
                "",
                "",
                format!("figure name {} vs golden {}", self.figure, golden.figure),
            );
        }
        if self.tolerance_name != golden.tolerance_name {
            fault(
                "",
                "",
                format!(
                    "tolerance constant {} vs golden {}",
                    self.tolerance_name, golden.tolerance_name
                ),
            );
        }
        // A golden file blessed under a since-changed (or unknown)
        // tolerance constant is stale: force a re-bless.
        match golden_tolerance(&golden.tolerance_name) {
            None => fault(
                "",
                "",
                format!("unknown tolerance constant `{}`", golden.tolerance_name),
            ),
            Some(value) if value != golden.tolerance => fault(
                "",
                "",
                format!(
                    "golden file cites {} = {}, but the constant is now {} — regenerate with \
                     `commloc conformance --update-golden`",
                    golden.tolerance_name, golden.tolerance, value
                ),
            ),
            Some(_) => {}
        }
        let tolerance = golden.tolerance;
        for grow in &golden.rows {
            let Some(crow) = self.rows.iter().find(|r| r.label == grow.label) else {
                fault(&grow.label, "", "row missing from current results".into());
                continue;
            };
            for (metric, gv) in &grow.values {
                let Some(cv) = crow.value(metric) else {
                    fault(
                        &grow.label,
                        metric,
                        "metric missing from current results".into(),
                    );
                    continue;
                };
                let err = rel_err(cv, *gv);
                if err > tolerance {
                    fault(
                        &grow.label,
                        metric,
                        format!(
                            "current {cv} vs golden {gv} (rel err {err:.2e} > {} = {tolerance})",
                            golden.tolerance_name
                        ),
                    );
                }
            }
        }
        for crow in &self.rows {
            if !golden.rows.iter().any(|r| r.label == crow.label) {
                fault(&crow.label, "", "row absent from golden file".into());
            }
        }
        violations
    }

    /// Serializes the table as pretty-printed JSON.
    ///
    /// # Panics
    ///
    /// Panics if any value is non-finite — conformance results must be
    /// real numbers (the output-sanity CI gate rejects `inf`/`nan` too).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"figure\": {},\n", json_string(&self.figure)));
        out.push_str(&format!(
            "  \"tolerance_name\": {},\n",
            json_string(&self.tolerance_name)
        ));
        assert!(self.tolerance.is_finite(), "non-finite tolerance");
        out.push_str(&format!("  \"tolerance\": {:?},\n", self.tolerance));
        out.push_str("  \"rows\": [\n");
        for (i, row) in self.rows.iter().enumerate() {
            out.push_str("    {\n");
            out.push_str(&format!("      \"label\": {},\n", json_string(&row.label)));
            out.push_str("      \"values\": {");
            for (j, (name, value)) in row.values.iter().enumerate() {
                assert!(
                    value.is_finite(),
                    "non-finite value for {}/{}/{name}",
                    self.figure,
                    row.label
                );
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!("{}: {:?}", json_string(name), value));
            }
            out.push_str("}\n");
            out.push_str(if i + 1 == self.rows.len() {
                "    }\n"
            } else {
                "    },\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Parses a table from the JSON produced by [`GoldenTable::to_json`]
    /// (a minimal JSON subset: objects, arrays, strings, numbers).
    ///
    /// # Errors
    ///
    /// Returns a description of the first syntax or schema problem.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let value = Json::parse(text)?;
        let Json::Object(fields) = value else {
            return Err("top level must be an object".into());
        };
        let get = |name: &str| -> Result<&Json, String> {
            fields
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v)
                .ok_or_else(|| format!("missing field `{name}`"))
        };
        let figure = get("figure")?.as_string()?;
        let tolerance_name = get("tolerance_name")?.as_string()?;
        let tolerance = get("tolerance")?.as_number()?;
        let Json::Array(raw_rows) = get("rows")? else {
            return Err("`rows` must be an array".into());
        };
        let mut rows = Vec::new();
        for raw in raw_rows {
            let Json::Object(row_fields) = raw else {
                return Err("each row must be an object".into());
            };
            let label = row_fields
                .iter()
                .find(|(k, _)| k == "label")
                .map(|(_, v)| v.as_string())
                .ok_or("row missing `label`")??;
            let Some((_, Json::Object(value_fields))) =
                row_fields.iter().find(|(k, _)| k == "values")
            else {
                return Err(format!("row `{label}` missing `values` object"));
            };
            let mut values = Vec::new();
            for (name, v) in value_fields {
                values.push((name.clone(), v.as_number()?));
            }
            rows.push(GoldenRow { label, values });
        }
        Ok(Self {
            figure,
            tolerance_name,
            tolerance,
            rows,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::super::tolerances::{GOLDEN_MODEL, GOLDEN_SIM};
    use super::*;

    fn sample() -> GoldenTable {
        GoldenTable {
            figure: "fig6".into(),
            tolerance_name: "GOLDEN_MODEL".into(),
            tolerance: GOLDEN_MODEL,
            rows: vec![
                GoldenRow {
                    label: "N=1000".into(),
                    values: vec![("per_hop_latency".into(), 7.8125), ("rho".into(), 0.5)],
                },
                GoldenRow {
                    label: "limit".into(),
                    values: vec![("per_hop_latency".into(), 9.6)],
                },
            ],
        }
    }

    #[test]
    fn json_round_trips_bit_exactly() {
        let table = sample();
        let parsed = GoldenTable::from_json(&table.to_json()).unwrap();
        assert_eq!(table, parsed);
        // Round-trip preserves exact bits, including awkward values.
        let mut odd = sample();
        odd.rows[0].values[0].1 = 0.1 + 0.2; // 0.30000000000000004
        odd.rows[0].values[1].1 = 1.0 / 3.0;
        let parsed = GoldenTable::from_json(&odd.to_json()).unwrap();
        assert_eq!(odd, parsed);
    }

    #[test]
    fn json_escapes_in_labels() {
        let mut table = sample();
        table.rows[0].label = "weird \"quoted\"\nlabel".into();
        let parsed = GoldenTable::from_json(&table.to_json()).unwrap();
        assert_eq!(table, parsed);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(GoldenTable::from_json("").is_err());
        assert!(GoldenTable::from_json("[1, 2]").is_err());
        assert!(GoldenTable::from_json("{\"figure\": \"fig6\"}").is_err());
        assert!(GoldenTable::from_json("{\"figure\": 3}").is_err());
        let valid = sample().to_json();
        assert!(GoldenTable::from_json(&format!("{valid} extra")).is_err());
    }

    #[test]
    fn identical_tables_have_no_violations() {
        assert!(sample().compare_against(&sample()).is_empty());
    }

    #[test]
    fn perturbed_value_trips_the_gate() {
        let golden = sample();
        let mut current = sample();
        let v = &mut current.rows[0].values[0].1;
        *v *= 1.0 + 10.0 * GOLDEN_MODEL;
        let violations = current.compare_against(&golden);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert_eq!(violations[0].label, "N=1000");
        assert_eq!(violations[0].metric, "per_hop_latency");
    }

    #[test]
    fn missing_and_extra_rows_are_violations() {
        let golden = sample();
        let mut current = sample();
        current.rows[1].label = "renamed".into();
        let violations = current.compare_against(&golden);
        // "limit" missing from current, "renamed" absent from golden.
        assert_eq!(violations.len(), 2, "{violations:?}");
    }

    #[test]
    fn stale_tolerance_citation_is_a_violation() {
        let mut golden = sample();
        golden.tolerance = GOLDEN_SIM; // wrong value for GOLDEN_MODEL
        let current = sample();
        let violations = current.compare_against(&golden);
        assert!(
            violations.iter().any(|v| v.detail.contains("regenerate")),
            "{violations:?}"
        );
    }

    #[test]
    fn rel_err_handles_zero_golden() {
        assert_eq!(rel_err(0.0, 0.0), 0.0);
        assert!(rel_err(0.5, 0.0) > 1.0);
        assert!((rel_err(11.0, 10.0) - 0.1).abs() < 1e-12);
    }
}
