//! Thread programs: the instruction-stream abstraction.
//!
//! The paper's model observes processors only through their computation
//! grain and transaction issue behavior, so threads are represented as
//! generators of [`ThreadOp`]s — compute for some cycles, then read or
//! write a shared word (see DESIGN.md's substitution note on
//! instruction-level Sparcle simulation).

use commloc_mem::Addr;
use std::fmt;

/// One step of a thread's execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThreadOp {
    /// Execute for the given number of processor cycles.
    Compute(u32),
    /// Load a shared word (a potential communication transaction).
    Read(Addr),
    /// Store a shared word (a potential communication transaction).
    Write(Addr, u64),
}

/// A thread: an unbounded generator of operations.
///
/// `last_read` carries the value returned by the thread's most recent
/// [`ThreadOp::Read`], if the previous operation was a read — programs
/// that compute on loaded data (like the paper's synthetic application)
/// consume it; others may ignore it.
///
/// Programs must be `Send` so whole machines (which own them through
/// their processors) can be stepped by shard worker threads, and `Sync`
/// so one warm snapshot of a machine can be shared by the sweep workers
/// that restore it.
pub trait ThreadProgram: fmt::Debug + Send + Sync {
    /// Produces the thread's next operation.
    fn next(&mut self, last_read: Option<u64>) -> ThreadOp;

    /// Clones the program behind the trait object. Machine snapshots
    /// (warm-start) deep-copy whole processors, so every program must be
    /// cloneable; implementations are invariably `Box::new(self.clone())`.
    fn clone_box(&self) -> Box<dyn ThreadProgram>;
}

impl Clone for Box<dyn ThreadProgram> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// A program that cycles through a fixed sequence of operations forever.
/// Useful for tests and microbenchmarks.
#[derive(Debug, Clone)]
pub struct LoopProgram {
    ops: Vec<ThreadOp>,
    index: usize,
    /// Number of completed passes through the sequence.
    iterations: u64,
}

impl LoopProgram {
    /// Creates a looping program.
    ///
    /// # Panics
    ///
    /// Panics if `ops` is empty or contains only zero-cycle computes (the
    /// program must consume time each iteration).
    pub fn new(ops: Vec<ThreadOp>) -> Self {
        assert!(!ops.is_empty(), "program must contain operations");
        assert!(
            ops.iter().any(|op| !matches!(op, ThreadOp::Compute(0))),
            "program must consume cycles"
        );
        Self {
            ops,
            index: 0,
            iterations: 0,
        }
    }

    /// Completed passes through the operation sequence.
    pub fn iterations(&self) -> u64 {
        self.iterations
    }
}

impl ThreadProgram for LoopProgram {
    fn clone_box(&self) -> Box<dyn ThreadProgram> {
        Box::new(self.clone())
    }

    fn next(&mut self, _last_read: Option<u64>) -> ThreadOp {
        let op = self.ops[self.index];
        self.index += 1;
        if self.index == self.ops.len() {
            self.index = 0;
            self.iterations += 1;
        }
        op
    }
}

/// Placeholder left behind when a thread migrates away (see
/// [`Processor::park`](crate::Processor::park)). The parked context stays
/// blocked on memory forever, so the scheduler never fetches from it;
/// reaching `next` means a parked slot was illegally resumed.
#[derive(Debug, Clone, Copy)]
pub struct ParkedProgram;

impl ThreadProgram for ParkedProgram {
    fn clone_box(&self) -> Box<dyn ThreadProgram> {
        Box::new(*self)
    }

    fn next(&mut self, _last_read: Option<u64>) -> ThreadOp {
        panic!("parked context fetched after its thread migrated away");
    }
}

/// Replays one operation before resuming an inner program.
///
/// A migrating thread is parked mid-transaction: its outstanding memory
/// operation was abandoned at the source controller, so on its new node
/// it must first re-issue that operation, then continue exactly where the
/// inner program left off (the completion value feeds the inner program's
/// `last_read` just as the original completion would have).
#[derive(Debug, Clone)]
pub struct ReissueProgram {
    pending: Option<ThreadOp>,
    inner: Box<dyn ThreadProgram>,
}

impl ReissueProgram {
    /// Wraps `inner`, emitting `pending` once before delegating.
    pub fn new(pending: ThreadOp, inner: Box<dyn ThreadProgram>) -> Self {
        Self {
            pending: Some(pending),
            inner,
        }
    }
}

impl ThreadProgram for ReissueProgram {
    fn clone_box(&self) -> Box<dyn ThreadProgram> {
        Box::new(self.clone())
    }

    fn next(&mut self, last_read: Option<u64>) -> ThreadOp {
        match self.pending.take() {
            Some(op) => op,
            None => self.inner.next(last_read),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "must contain operations")]
    fn empty_program_panics() {
        LoopProgram::new(vec![]);
    }

    #[test]
    #[should_panic(expected = "must consume cycles")]
    fn zero_cycle_program_panics() {
        LoopProgram::new(vec![ThreadOp::Compute(0)]);
    }

    #[test]
    fn loops_and_counts_iterations() {
        let mut p = LoopProgram::new(vec![ThreadOp::Compute(3), ThreadOp::Read(Addr(0))]);
        assert_eq!(p.next(None), ThreadOp::Compute(3));
        assert_eq!(p.iterations(), 0);
        assert_eq!(p.next(None), ThreadOp::Read(Addr(0)));
        assert_eq!(p.iterations(), 1);
        assert_eq!(p.next(Some(9)), ThreadOp::Compute(3));
    }
}
