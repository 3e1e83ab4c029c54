//! Plain-text (CSV) serialization of measurement records, for piping
//! simulator output into plotting tools.

use crate::machine::Measurements;

/// CSV header matching [`Measurements::to_csv_row`].
pub const MEASUREMENTS_CSV_HEADER: &str = "net_cycles,nodes,distance,message_rate,\
message_interval,message_latency,per_hop_latency,channel_utilization,\
injection_utilization,transaction_rate,issue_interval,transaction_latency,\
messages_per_transaction,avg_message_size,residual_message_size,run_length,hit_fraction";

/// Maps a non-finite ratio to the 0.0 degenerate-window sentinel so no
/// serialized row or streamed result ever carries `NaN`/`inf`. Divisions
/// like `run_length` or `hit_fraction` can go non-finite on windows with
/// no misses or no accesses (e.g. a fully wedged fault scenario measured
/// anyway); the CI output-sanity gate and the serve cache both require
/// every field to parse as a finite number.
fn finite(x: f64) -> f64 {
    if x.is_finite() {
        x
    } else {
        0.0
    }
}

impl Measurements {
    /// One CSV row of this record, column order per
    /// [`MEASUREMENTS_CSV_HEADER`]. Non-finite ratios serialize as the
    /// 0.0 degenerate-window sentinel.
    pub fn to_csv_row(&self) -> String {
        format!(
            "{},{},{:.6},{:.8},{:.4},{:.4},{:.4},{:.6},{:.6},{:.8},{:.4},{:.4},{:.4},{:.4},{:.4},{:.4},{:.6}",
            self.net_cycles,
            self.nodes,
            finite(self.distance),
            finite(self.message_rate),
            finite(self.message_interval),
            finite(self.message_latency),
            finite(self.per_hop_latency),
            finite(self.channel_utilization),
            finite(self.injection_utilization),
            finite(self.transaction_rate),
            finite(self.issue_interval),
            finite(self.transaction_latency),
            finite(self.messages_per_transaction),
            finite(self.avg_message_size),
            finite(self.residual_message_size),
            finite(self.run_length),
            finite(self.hit_fraction),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::SimConfig;
    use crate::mapping::Mapping;
    use crate::scenario::Scenario;

    fn identity_window() -> Measurements {
        let scenario = Scenario::new(SimConfig::default(), 2_000, 6_000);
        scenario.run(&Mapping::identity(64)).unwrap().measure()
    }

    #[test]
    fn header_and_row_have_matching_column_counts() {
        let m = identity_window();
        let header_cols = MEASUREMENTS_CSV_HEADER.split(',').count();
        let row_cols = m.to_csv_row().split(',').count();
        assert_eq!(header_cols, row_cols);
        assert_eq!(header_cols, 17);
    }

    #[test]
    fn row_is_parseable_numbers() {
        let m = identity_window();
        for field in m.to_csv_row().split(',') {
            field.parse::<f64>().expect("numeric field");
        }
    }

    #[test]
    fn degenerate_window_row_stays_finite() {
        // A hand-built record with every failure mode a degenerate
        // window can produce: NaN ratios (0/0), infinities (x/0), and
        // the 0.0 miss-free run-length sentinel. The row must still be
        // 17 finite, parseable numbers.
        let mut m = identity_window();
        m.hit_fraction = f64::NAN;
        m.run_length = f64::INFINITY;
        m.issue_interval = f64::NEG_INFINITY;
        m.message_interval = f64::NAN;
        let row = m.to_csv_row();
        assert_eq!(row.split(',').count(), 17);
        for field in row.split(',') {
            let v: f64 = field.parse().expect("numeric field");
            assert!(v.is_finite(), "non-finite field leaked: {field}");
        }
        // The guard maps all of them to the documented 0.0 sentinel.
        let cols: Vec<&str> = row.split(',').collect();
        assert_eq!(cols[16], "0.000000"); // hit_fraction
        assert_eq!(cols[15], "0.0000"); // run_length
    }
}
