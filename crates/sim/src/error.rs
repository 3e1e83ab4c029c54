//! Structured simulation failures.
//!
//! A fault-injected machine can legitimately fail to make progress (a
//! killed link wedges wormhole traffic; exhausted retries strand a
//! transaction). Instead of hanging or panicking, [`Machine::step`]
//! returns a [`SimError`] whose [`StallReport`] carries enough diagnostic
//! state — per-router occupancy, outstanding transactions, the fault-log
//! tail — to tell deadlock from backpressure at a glance.
//!
//! [`Machine::step`]: crate::Machine::step

use commloc_net::{FabricError, FaultEvent, FaultPlanError, NodeId};
use std::fmt;

/// Why the watchdog declared a stall.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StallKind {
    /// No flit moved and no transaction retired for the whole watchdog
    /// window while no transient fault was active: the system cannot
    /// recover by waiting (killed link, lost sole data copy, protocol
    /// wedge).
    Deadlock,
    /// A transient fault (router or link stall) was still active when the
    /// window expired: the quiet period is backpressure behind the
    /// stalled resource, and progress may resume once it clears.
    Backpressure,
}

impl fmt::Display for StallKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StallKind::Deadlock => write!(f, "deadlock"),
            StallKind::Backpressure => write!(f, "backpressure"),
        }
    }
}

/// Which of the watchdog's two conditions tripped it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StallCause {
    /// No flit moved and no transaction retired for the whole window.
    Global,
    /// The oldest outstanding transaction was issued a whole window ago,
    /// while the machine still made progress.
    AgedTransaction {
        /// Node that issued the transaction.
        node: NodeId,
        /// The transaction's id.
        txn: u64,
        /// Network cycle the transaction was issued at.
        issued: u64,
    },
}

/// Diagnostic dump produced when the progress watchdog fires.
#[derive(Debug, Clone, PartialEq)]
pub struct StallReport {
    /// Network cycle at which the watchdog fired.
    pub cycle: u64,
    /// Network cycles since the last observed progress, or since the aged
    /// transaction was issued.
    pub stalled_for: u64,
    /// The condition that tripped.
    pub cause: StallCause,
    /// Deadlock versus backpressure classification.
    pub kind: StallKind,
    /// Messages still in flight in the fabric.
    pub in_flight: usize,
    /// Flits buffered across all routers and injection queues.
    pub buffered_flits: usize,
    /// Buffered flits per router (index = node id).
    pub router_occupancy: Vec<usize>,
    /// Nodes with outstanding coherence transactions, as `(node, count)`
    /// pairs (nodes with none are omitted).
    pub outstanding: Vec<(NodeId, usize)>,
    /// The most recent fault-log events (empty when no fault plan is
    /// installed).
    pub fault_log_tail: Vec<FaultEvent>,
    /// Nodes a thread has migrated away from (ascending; empty when no
    /// migration policy is installed or none has fired). A stall on a
    /// machine with migration enabled names where threads fled, so the
    /// report distinguishes "wedged despite migration" from "wedged with
    /// nowhere to go".
    pub migrated_from: Vec<NodeId>,
}

impl fmt::Display for StallReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at net cycle {}: ", self.kind, self.cycle)?;
        match self.cause {
            StallCause::Global => writeln!(f, "no progress for {} cycles", self.stalled_for)?,
            StallCause::AgedTransaction { node, txn, issued } => writeln!(
                f,
                "transaction {txn:#x} at {node} outstanding for {} cycles (issued at cycle \
                 {issued})",
                self.stalled_for
            )?,
        }
        writeln!(
            f,
            "  {} messages in flight, {} flits buffered",
            self.in_flight, self.buffered_flits
        )?;
        let busy: Vec<String> = self
            .router_occupancy
            .iter()
            .enumerate()
            .filter(|(_, &o)| o > 0)
            .map(|(n, &o)| format!("n{n}:{o}"))
            .collect();
        writeln!(
            f,
            "  router occupancy (non-empty): {}",
            if busy.is_empty() {
                "none".to_owned()
            } else {
                busy.join(" ")
            }
        )?;
        let outstanding: Vec<String> = self
            .outstanding
            .iter()
            .map(|(n, c)| format!("{n}:{c}"))
            .collect();
        writeln!(
            f,
            "  outstanding transactions: {}",
            if outstanding.is_empty() {
                "none".to_owned()
            } else {
                outstanding.join(" ")
            }
        )?;
        if !self.migrated_from.is_empty() {
            let fled: Vec<String> = self.migrated_from.iter().map(NodeId::to_string).collect();
            writeln!(f, "  threads migrated away from: {}", fled.join(" "))?;
        }
        write!(
            f,
            "  fault log tail ({} events):",
            self.fault_log_tail.len()
        )?;
        for event in &self.fault_log_tail {
            write!(f, "\n    {event:?}")?;
        }
        Ok(())
    }
}

/// A structured simulation failure.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// The fabric reported an internal inconsistency.
    Fabric(FabricError),
    /// A controller completed a transaction no processor context was
    /// waiting on.
    UnknownCompletion {
        /// Node whose controller produced the completion.
        node: NodeId,
        /// The unrecognized transaction id.
        txn: u64,
    },
    /// The progress watchdog fired: see the report for diagnostics.
    Stalled(Box<StallReport>),
    /// A fault plan schedules events at or past the run horizon, so they
    /// would silently never take effect (see
    /// [`FaultPlan::validate_horizon`](commloc_net::FaultPlan::validate_horizon)).
    InvalidFaultPlan(FaultPlanError),
    /// A run asked for more network cycles than the clock can count:
    /// `cycle + cycles` passes `u64::MAX`.
    ClockOverflow {
        /// The clock when the run was asked for.
        cycle: u64,
        /// The network cycles asked for.
        cycles: u64,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Fabric(e) => write!(f, "fabric error: {e}"),
            SimError::UnknownCompletion { node, txn } => {
                write!(f, "completion for unknown context at {node}: txn {txn:#x}")
            }
            SimError::Stalled(report) => write!(f, "simulation stalled: {report}"),
            SimError::InvalidFaultPlan(e) => write!(f, "invalid fault plan: {e}"),
            SimError::ClockOverflow { cycle, cycles } => write!(
                f,
                "running {cycles} network cycles from cycle {cycle} passes the \
                 largest cycle the clock can count ({})",
                u64::MAX
            ),
        }
    }
}

impl std::error::Error for SimError {}

impl From<FabricError> for SimError {
    fn from(e: FabricError) -> Self {
        SimError::Fabric(e)
    }
}

impl From<FaultPlanError> for SimError {
    fn from(e: FaultPlanError) -> Self {
        SimError::InvalidFaultPlan(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stall_report_display_names_the_hot_spots() {
        let mut report = StallReport {
            cycle: 1234,
            stalled_for: 500,
            cause: StallCause::Global,
            kind: StallKind::Deadlock,
            in_flight: 2,
            buffered_flits: 7,
            router_occupancy: vec![0, 7, 0],
            outstanding: vec![(NodeId(1), 1)],
            fault_log_tail: Vec::new(),
            migrated_from: vec![NodeId(4)],
        };
        let text = format!("{report}");
        assert!(text.contains("deadlock at net cycle 1234"));
        assert!(text.contains("no progress for 500 cycles"));
        assert!(text.contains("n1:7"));
        assert!(text.contains("n1:1"));
        assert!(text.contains("threads migrated away from: n4"));
        report.cause = StallCause::AgedTransaction {
            node: NodeId(1),
            txn: (1 << 32) | 7,
            issued: 734,
        };
        let text = format!("{report}");
        assert!(text.contains("deadlock at net cycle 1234"), "{text}");
        assert!(
            text.contains("transaction 0x100000007 at n1 outstanding for 500 cycles"),
            "{text}"
        );
        assert!(text.contains("issued at cycle 734"), "{text}");
        assert!(!text.contains("no progress"), "{text}");
    }

    #[test]
    fn fabric_errors_convert() {
        let err: SimError = FabricError::MissingFlit {
            node: NodeId(3),
            cycle: 9,
        }
        .into();
        assert!(matches!(err, SimError::Fabric(_)));
        assert!(format!("{err}").contains("fabric error"));
    }
}
