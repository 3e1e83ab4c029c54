//! Block-multithreaded processor model.
//!
//! This crate implements the processor substrate of the validation
//! experiments in Johnson, *"The Impact of Communication Locality on
//! Large-Scale Multiprocessor Performance"* (ISCA 1992): a Sparcle-style
//! block-multithreaded processor with a configurable number of hardware
//! contexts and an 11-cycle context switch. A context runs its thread
//! until it issues a shared-memory operation, then the processor switches
//! to the next runnable context; when every context is blocked the
//! processor idles. This is precisely the behavior the paper's
//! application model (Section 2.1) abstracts into the grain `T_r`,
//! context count `p`, and switch time `T_s`.
//!
//! # Quick start
//!
//! ```
//! use commloc_mem::Addr;
//! use commloc_proc::{LoopProgram, Processor, ThreadOp};
//!
//! // Two contexts, each computing 20 cycles then reading a word.
//! let programs: Vec<Box<dyn commloc_proc::ThreadProgram>> = (0..2)
//!     .map(|i| {
//!         Box::new(LoopProgram::new(vec![
//!             ThreadOp::Compute(20),
//!             ThreadOp::Read(Addr(i * 2)),
//!         ])) as Box<dyn commloc_proc::ThreadProgram>
//!     })
//!     .collect();
//! let mut cpu = Processor::new(programs, 11);
//! let issue = loop {
//!     if let Some(req) = cpu.step() {
//!         break req;
//!     }
//! };
//! assert_eq!(issue.context, 0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

mod processor;
mod program;

pub use processor::{IssueRequest, ProcStats, Processor};
pub use program::{LoopProgram, ParkedProgram, ReissueProgram, ThreadOp, ThreadProgram};
