//! The block-multithreaded processor.
//!
//! A processor holds `p` hardware contexts, each running one thread. A
//! context runs until it issues a memory operation that must leave the
//! processor (the sim decides hit/miss — the processor just hands the
//! operation out and blocks the context); the processor then switches to
//! the next runnable context, paying a fixed context-switch penalty
//! (11 cycles on Sparcle, paper Section 3.1). Single-context processors
//! simply stall, as in the paper's Figure 1.
//!
//! The processor exposes exactly the behavior the paper's application
//! model abstracts: with small transaction latencies it operates
//! latency-masked (Eq. 4); with large ones it is latency-bound and issues
//! `p` transactions every `T_r + T_t` cycles (Eq. 5).

use crate::program::{ParkedProgram, ThreadOp, ThreadProgram};
use commloc_mem::MemOp;

/// Execution state of one hardware context.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ContextState {
    /// Can fetch its next operation.
    Ready,
    /// Computing for `remaining` more cycles.
    Running { remaining: u32 },
    /// Blocked on an outstanding memory transaction.
    WaitingMem,
}

#[derive(Debug, Clone)]
struct Context {
    program: Box<dyn ThreadProgram>,
    state: ContextState,
    /// Value delivered by the most recent completed read, not yet consumed
    /// by the program.
    last_read: Option<u64>,
}

/// What the processor does with the current cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CpuState {
    /// Executing the active context.
    Running,
    /// Draining a context switch toward `target`.
    Switching { target: usize, remaining: u32 },
    /// All contexts blocked on memory.
    Idle,
}

/// A memory operation issued by a context, to be handed to the node's
/// memory controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IssueRequest {
    /// The issuing hardware context.
    pub context: usize,
    /// The operation.
    pub op: MemOp,
}

/// Cycle-accounting counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProcStats {
    /// Cycles spent executing thread computation.
    pub busy_cycles: u64,
    /// Cycles spent switching contexts.
    pub switch_cycles: u64,
    /// Cycles with every context blocked on memory.
    pub idle_cycles: u64,
    /// Memory operations issued to the controller.
    pub issued: u64,
    /// Total cycles stepped.
    pub cycles: u64,
}

impl ProcStats {
    /// Average inter-issue time `t_t` over the window (cycles per issued
    /// transaction). Zero if nothing was issued.
    pub fn avg_issue_interval(&self) -> f64 {
        if self.issued == 0 {
            0.0
        } else {
            self.cycles as f64 / self.issued as f64
        }
    }

    /// Average computation run length between issues (the measured
    /// grain `T_r`).
    pub fn avg_run_length(&self) -> f64 {
        if self.issued == 0 {
            0.0
        } else {
            self.busy_cycles as f64 / self.issued as f64
        }
    }
}

/// A block-multithreaded processor.
///
/// # Examples
///
/// Driving a single-context processor against an instant memory:
///
/// ```
/// use commloc_mem::{Addr, MemOp};
/// use commloc_proc::{LoopProgram, Processor, ThreadOp};
///
/// let program = LoopProgram::new(vec![ThreadOp::Compute(5), ThreadOp::Read(Addr(0))]);
/// let mut cpu = Processor::new(vec![Box::new(program)], 11);
/// let mut issues = 0;
/// for _ in 0..60 {
///     if let Some(req) = cpu.step() {
///         issues += 1;
///         cpu.complete(req.context, 0); // zero-latency memory
///     }
/// }
/// // One issue every T_r + 1 cycles of useful work (plus issue cycles).
/// assert!(issues >= 9);
/// ```
#[derive(Debug, Clone)]
pub struct Processor {
    contexts: Vec<Context>,
    active: usize,
    cpu: CpuState,
    switch_cycles: u32,
    stats: ProcStats,
}

impl Processor {
    /// Creates a processor with one context per program and the given
    /// context-switch cost (ignored for single-context processors).
    ///
    /// # Panics
    ///
    /// Panics if no programs are supplied.
    pub fn new(programs: Vec<Box<dyn ThreadProgram>>, switch_cycles: u32) -> Self {
        assert!(
            !programs.is_empty(),
            "a processor needs at least one context"
        );
        Self {
            contexts: programs
                .into_iter()
                .map(|program| Context {
                    program,
                    state: ContextState::Ready,
                    last_read: None,
                })
                .collect(),
            active: 0,
            cpu: CpuState::Running,
            switch_cycles,
            stats: ProcStats::default(),
        }
    }

    /// Number of hardware contexts `p`.
    pub fn contexts(&self) -> usize {
        self.contexts.len()
    }

    /// Cycle-accounting counters.
    pub fn stats(&self) -> &ProcStats {
        &self.stats
    }

    /// Resets the statistics counters.
    pub fn reset_stats(&mut self) {
        self.stats = ProcStats::default();
    }

    /// Whether every context is blocked on memory.
    pub fn is_stalled(&self) -> bool {
        self.contexts
            .iter()
            .all(|c| c.state == ContextState::WaitingMem)
    }

    /// Horizon contract for the machine-level active-node engine: how
    /// many upcoming [`Processor::step`] calls are *pure ticks* — steps
    /// that count one busy, switch or idle cycle and count down the
    /// current compute run or switch, but fetch nothing from a program,
    /// issue nothing, and never look at another context.
    ///
    /// * `None` — every context is blocked on memory: each step until a
    ///   completion arrives is an idle tick.
    /// * `Some(k)` — the next `k` steps are the rest of a compute run or
    ///   of a context switch; step `k + 1` may fetch, issue or switch.
    ///   Completions arriving meanwhile leave `k` as it is. `Some(0)`
    ///   means runnable work now.
    ///
    /// [`Processor::advance`] applies any prefix of the span at once.
    pub fn next_wake(&self) -> Option<u64> {
        if self.is_stalled() {
            return None;
        }
        Some(match self.cpu {
            CpuState::Switching { remaining, .. } => u64::from(remaining),
            CpuState::Running => match self.contexts[self.active].state {
                ContextState::Running { remaining } => u64::from(remaining),
                _ => 0,
            },
            CpuState::Idle => 0,
        })
    }

    /// Applies `cycles` pure ticks in O(1), bit-identical to `cycles`
    /// calls to [`Processor::step`]: they land on the idle, switch or
    /// busy counter, and a switch or compute run that ends exactly at
    /// the last tick leaves the state that step would. An idle span
    /// leaves the CPU `Idle`, which every later step treats as it
    /// treats a context that just blocked.
    ///
    /// # Panics
    ///
    /// Panics if `cycles` exceeds the span [`Processor::next_wake`]
    /// reports.
    pub fn advance(&mut self, cycles: u64) {
        if cycles == 0 {
            return;
        }
        let span = self.next_wake();
        assert!(
            span.is_none_or(|k| cycles <= k),
            "advance by {cycles} cycles past a pure-tick span of {span:?}"
        );
        self.stats.cycles += cycles;
        if span.is_none() {
            self.cpu = CpuState::Idle;
            self.stats.idle_cycles += cycles;
            return;
        }
        // Within the span, so the countdown below holds `cycles`.
        let ticks = cycles as u32;
        match self.cpu {
            CpuState::Switching { target, remaining } => {
                self.stats.switch_cycles += cycles;
                self.cpu = if ticks == remaining {
                    self.active = target;
                    CpuState::Running
                } else {
                    CpuState::Switching {
                        target,
                        remaining: remaining - ticks,
                    }
                };
            }
            CpuState::Running => {
                let ctx = &mut self.contexts[self.active];
                let ContextState::Running { remaining } = ctx.state else {
                    unreachable!("a nonzero span runs a compute run");
                };
                self.stats.busy_cycles += cycles;
                ctx.state = if ticks == remaining {
                    ContextState::Ready
                } else {
                    ContextState::Running {
                        remaining: remaining - ticks,
                    }
                };
            }
            CpuState::Idle => unreachable!("an idle CPU with runnable work has no span"),
        }
    }

    /// Removes the program of a memory-blocked context so its thread can
    /// migrate to another processor. The slot is left permanently parked:
    /// it stays `WaitingMem` forever (the caller abandons its outstanding
    /// transaction and must never complete it), so the scheduler skips it
    /// and the processor behaves as if it had one context fewer.
    ///
    /// # Panics
    ///
    /// Panics if the context is not blocked on memory — only a thread
    /// wedged behind an outstanding transaction may migrate.
    pub fn park(&mut self, context: usize) -> Box<dyn ThreadProgram> {
        let ctx = &mut self.contexts[context];
        assert_eq!(
            ctx.state,
            ContextState::WaitingMem,
            "park of context {context} that is not blocked on memory"
        );
        ctx.last_read = None;
        std::mem::replace(&mut ctx.program, Box::new(ParkedProgram))
    }

    /// Adds a context running `program` — a thread stolen from another
    /// node — in `Ready` state, returning its index. The new context
    /// joins the round-robin rotation and is scheduled (paying the usual
    /// switch cost if the processor was busy or idle on another slot)
    /// from the next cycle.
    pub fn adopt(&mut self, program: Box<dyn ThreadProgram>) -> usize {
        self.contexts.push(Context {
            program,
            state: ContextState::Ready,
            last_read: None,
        });
        self.contexts.len() - 1
    }

    /// Delivers a memory completion to a context, unblocking it.
    ///
    /// # Panics
    ///
    /// Panics if the context was not waiting on memory.
    pub fn complete(&mut self, context: usize, value: u64) {
        let ctx = &mut self.contexts[context];
        assert_eq!(
            ctx.state,
            ContextState::WaitingMem,
            "completion for context {context} that was not waiting"
        );
        ctx.state = ContextState::Ready;
        ctx.last_read = Some(value);
    }

    /// Advances one processor cycle; returns a memory operation if one was
    /// issued this cycle.
    pub fn step(&mut self) -> Option<IssueRequest> {
        self.stats.cycles += 1;
        match self.cpu {
            CpuState::Switching { target, remaining } => {
                self.stats.switch_cycles += 1;
                if remaining <= 1 {
                    self.active = target;
                    self.cpu = CpuState::Running;
                } else {
                    self.cpu = CpuState::Switching {
                        target,
                        remaining: remaining - 1,
                    };
                }
                None
            }
            CpuState::Idle => {
                // Wake as soon as any context is runnable. Resuming the
                // still-loaded active context is free; any other context
                // costs a switch.
                if self.contexts[self.active].state != ContextState::WaitingMem {
                    self.cpu = CpuState::Running;
                    return self.run_active();
                }
                if let Some(target) = self.next_runnable(self.active) {
                    self.begin_switch(target);
                    self.stats.switch_cycles += 1;
                } else {
                    self.stats.idle_cycles += 1;
                }
                None
            }
            CpuState::Running => self.run_active(),
        }
    }

    /// Executes one cycle of the active context.
    fn run_active(&mut self) -> Option<IssueRequest> {
        loop {
            let ctx = &mut self.contexts[self.active];
            match ctx.state {
                ContextState::WaitingMem => {
                    // The active context blocked (single-context stall, or
                    // nothing was runnable when it issued). Look again for
                    // runnable work.
                    if let Some(target) = self.next_runnable(self.active) {
                        if self.contexts.len() == 1 {
                            unreachable!("single context cannot be elsewhere-runnable");
                        }
                        self.begin_switch(target);
                        self.stats.switch_cycles += 1;
                    } else {
                        self.cpu = CpuState::Idle;
                        self.stats.idle_cycles += 1;
                    }
                    return None;
                }
                ContextState::Running { remaining } => {
                    self.stats.busy_cycles += 1;
                    if remaining <= 1 {
                        ctx.state = ContextState::Ready;
                    } else {
                        ctx.state = ContextState::Running {
                            remaining: remaining - 1,
                        };
                    }
                    return None;
                }
                ContextState::Ready => {
                    let input = ctx.last_read.take();
                    match ctx.program.next(input) {
                        ThreadOp::Compute(0) => continue, // zero-cost; fetch again
                        ThreadOp::Compute(cycles) => {
                            ctx.state = ContextState::Running { remaining: cycles };
                            continue; // execute the first cycle now
                        }
                        ThreadOp::Read(addr) => {
                            return Some(self.issue(MemOp::Read(addr)));
                        }
                        ThreadOp::Write(addr, value) => {
                            return Some(self.issue(MemOp::Write(addr, value)));
                        }
                    }
                }
            }
        }
    }

    /// Issues a memory operation from the active context and starts the
    /// context switch (multi-context processors only).
    fn issue(&mut self, op: MemOp) -> IssueRequest {
        let context = self.active;
        self.contexts[context].state = ContextState::WaitingMem;
        self.stats.issued += 1;
        if self.contexts.len() > 1 {
            if let Some(target) = self.next_runnable(context) {
                self.begin_switch(target);
            }
            // else: stay "Running" on the blocked context; the next step
            // notices and idles (or switches if something completed).
        }
        IssueRequest { context, op }
    }

    /// The next runnable context after `from` in round-robin order.
    fn next_runnable(&self, from: usize) -> Option<usize> {
        let p = self.contexts.len();
        (1..=p)
            .map(|i| (from + i) % p)
            .find(|&c| self.contexts[c].state != ContextState::WaitingMem && c != from)
    }

    fn begin_switch(&mut self, target: usize) {
        if self.switch_cycles == 0 {
            self.active = target;
            self.cpu = CpuState::Running;
        } else {
            self.cpu = CpuState::Switching {
                target,
                remaining: self.switch_cycles,
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::LoopProgram;
    use commloc_mem::Addr;

    /// Steps `cpu` for `cycles`, completing every issue after a fixed
    /// `latency`; returns issues observed.
    fn run_fixed_latency(cpu: &mut Processor, cycles: u64, latency: u64) -> u64 {
        let mut outstanding: Vec<(u64, usize)> = Vec::new();
        let mut issues = 0;
        for now in 0..cycles {
            outstanding.retain(|&(due, ctx)| {
                if due <= now {
                    cpu.complete(ctx, 0);
                    false
                } else {
                    true
                }
            });
            if let Some(req) = cpu.step() {
                issues += 1;
                outstanding.push((now + latency, req.context));
            }
        }
        issues
    }

    fn cpu(grain: u32, contexts: usize, switch: u32) -> Processor {
        let programs: Vec<Box<dyn ThreadProgram>> = (0..contexts)
            .map(|i| {
                Box::new(LoopProgram::new(vec![
                    ThreadOp::Compute(grain),
                    ThreadOp::Read(Addr(i as u64 * 2)),
                ])) as Box<dyn ThreadProgram>
            })
            .collect();
        Processor::new(programs, switch)
    }

    #[test]
    #[should_panic(expected = "at least one context")]
    fn empty_processor_panics() {
        Processor::new(vec![], 11);
    }

    #[test]
    fn single_context_follows_eq1() {
        // Eq. 1: t_t = T_r + T_t (plus the issue cycle itself).
        let grain = 20;
        for latency in [0u64, 10, 50, 200] {
            let mut p = cpu(grain, 1, 0);
            let cycles = 20_000;
            let issues = run_fixed_latency(&mut p, cycles, latency);
            let t_t = cycles as f64 / issues as f64;
            // Each loop: grain cycles compute + 1 issue cycle + latency
            // stall (completion polls once per cycle, adding <=1 slack).
            let expected = grain as f64 + 1.0 + latency as f64;
            assert!(
                (t_t - expected).abs() <= 2.0,
                "latency {latency}: t_t={t_t} expected~{expected}"
            );
        }
    }

    #[test]
    fn multithreading_masks_small_latency() {
        // Eq. 4: with latency below the masking threshold, t_t = T_r + T_s.
        let grain = 20;
        let switch = 11;
        let mut p = cpu(grain, 4, switch);
        let cycles = 30_000;
        let issues = run_fixed_latency(&mut p, cycles, 40);
        let t_t = cycles as f64 / issues as f64;
        let expected = grain as f64 + 1.0 + switch as f64;
        assert!(
            (t_t - expected).abs() <= 2.0,
            "t_t={t_t} expected~{expected}"
        );
    }

    #[test]
    fn multithreading_latency_bound_follows_eq5() {
        // Eq. 5: with large latency, t_t = (T_r + T_t)/p.
        let grain = 20;
        let latency = 400u64;
        for contexts in [2usize, 4] {
            let mut p = cpu(grain, contexts, 11);
            let cycles = 60_000;
            let issues = run_fixed_latency(&mut p, cycles, latency);
            let t_t = cycles as f64 / issues as f64;
            let expected = (grain as f64 + 1.0 + latency as f64) / contexts as f64;
            assert!(
                (t_t - expected).abs() / expected < 0.06,
                "p={contexts}: t_t={t_t} expected~{expected}"
            );
        }
    }

    #[test]
    fn slope_halves_with_two_contexts() {
        // Section 2.1: an extra x cycles of latency raises t_t by x/p.
        let grain = 10;
        let cycles = 60_000;
        let lat_lo = 300u64;
        let lat_hi = 600u64;
        let t = |contexts: usize, lat: u64| {
            let mut p = cpu(grain, contexts, 11);
            cycles as f64 / run_fixed_latency(&mut p, cycles, lat) as f64
        };
        let slope1 = (t(1, lat_hi) - t(1, lat_lo)) / (lat_hi - lat_lo) as f64;
        let slope2 = (t(2, lat_hi) - t(2, lat_lo)) / (lat_hi - lat_lo) as f64;
        assert!((slope1 - 1.0).abs() < 0.05, "slope1={slope1}");
        assert!((slope2 - 0.5).abs() < 0.05, "slope2={slope2}");
    }

    #[test]
    fn stats_account_all_cycles() {
        let mut p = cpu(20, 2, 11);
        run_fixed_latency(&mut p, 10_000, 100);
        let s = p.stats();
        // busy + switch + idle + issue cycles = total.
        let accounted = s.busy_cycles + s.switch_cycles + s.idle_cycles + s.issued;
        assert_eq!(accounted, s.cycles, "cycle accounting leak: {s:?}");
        assert!((s.avg_run_length() - 20.0).abs() < 1.0);
    }

    #[test]
    #[should_panic(expected = "was not waiting")]
    fn completion_of_non_waiting_context_panics() {
        let mut p = cpu(5, 1, 0);
        p.complete(0, 0);
    }

    #[test]
    fn is_stalled_reflects_outstanding_issues() {
        let mut p = cpu(1, 1, 0);
        assert!(!p.is_stalled());
        let req = loop {
            if let Some(r) = p.step() {
                break r;
            }
        };
        assert!(p.is_stalled());
        p.complete(req.context, 7);
        assert!(!p.is_stalled());
    }

    #[test]
    fn next_wake_reports_the_horizon() {
        // Runnable work: wake now.
        let mut p = cpu(3, 2, 11);
        assert_eq!(p.next_wake(), Some(0));
        // First issue starts a switch toward the second context.
        let req = loop {
            if let Some(r) = p.step() {
                break r;
            }
        };
        assert_eq!(p.next_wake(), Some(11), "switch must drain 11 cycles");
        p.step();
        assert_eq!(p.next_wake(), Some(10));
        // Block the other context too: fully stalled.
        let second = loop {
            if let Some(r) = p.step() {
                break r;
            }
        };
        assert!(p.is_stalled());
        assert_eq!(p.next_wake(), None);
        p.complete(req.context, 0);
        p.complete(second.context, 0);
        assert_eq!(p.next_wake(), Some(0));
    }

    #[test]
    fn next_wake_counts_the_rest_of_a_compute_run() {
        // A fetched Compute(5) runs its first cycle at once; four pure
        // busy ticks remain, then the next fetch issues.
        let mut p = cpu(5, 1, 0);
        assert_eq!(p.step(), None);
        assert_eq!(p.next_wake(), Some(4));
        p.advance(3);
        assert_eq!(p.next_wake(), Some(1));
        p.advance(1);
        assert_eq!(p.next_wake(), Some(0));
        assert!(p.step().is_some(), "the run ended: the next step issues");
        assert_eq!(p.stats().busy_cycles, 5);
    }

    #[test]
    fn advance_matches_stepping_bit_for_bit() {
        // Two processors reach the same fully-blocked state; one steps
        // through the idle gap, the other bulk-advances. Stats and all
        // subsequent behavior must match exactly.
        let run = |bulk: bool| {
            let mut p = cpu(4, 2, 5);
            let mut issued = Vec::new();
            while issued.len() < 2 {
                if let Some(r) = p.step() {
                    issued.push(r);
                }
            }
            assert!(p.is_stalled());
            if bulk {
                p.advance(100);
            } else {
                for _ in 0..100 {
                    assert!(p.step().is_none());
                }
            }
            for r in issued {
                p.complete(r.context, 0);
            }
            // Post-gap trajectory: run until the next issue.
            let mut tail = 0u64;
            while p.step().is_none() {
                tail += 1;
            }
            (*p.stats(), tail)
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    #[should_panic(expected = "past a pure-tick span")]
    fn advance_past_the_span_panics() {
        let mut p = cpu(5, 1, 0);
        p.advance(10);
    }

    /// Latency of an issue in [`advance_through_any_pure_span_matches_stepping`]'s
    /// forks: fixed by the issue cycle and context, so two forks of one
    /// processor see the same memory.
    fn fork_latency(cycle: u64, context: usize) -> u64 {
        (cycle * 7 + context as u64 * 13) % 29
    }

    /// Delivers the completions due by `now` (in issue order), then steps.
    fn tick(p: &mut Processor, due: &mut Vec<(u64, usize)>, now: u64) -> Option<IssueRequest> {
        due.retain(|&(at, ctx)| {
            if at <= now {
                p.complete(ctx, at);
                false
            } else {
                true
            }
        });
        p.step()
    }

    #[test]
    fn advance_through_any_pure_span_matches_stepping() {
        use commloc_net::DetRng;
        // Drawn programs over 1-4 contexts and switch costs 0-11, driven
        // against a memory of drawn latencies. At drawn cycles the
        // processor forks: wherever `next_wake` reports a span of pure
        // ticks, `advance(j)` for every j in it must leave the state `j`
        // steps leave, and both forks must then issue the same requests
        // at the same cycles against the same memory.
        let mut forks = [0u32; 3];
        for seed in 0..200u64 {
            let mut rng = DetRng::new(seed);
            let contexts = 1 + rng.index(4);
            let switch = rng.range_u64(0, 12) as u32;
            let programs: Vec<Box<dyn ThreadProgram>> = (0..contexts)
                .map(|c| {
                    let ops = (0..1 + rng.index(4))
                        .map(|i| match rng.index(3) {
                            0 => ThreadOp::Compute(rng.range_u64(0, 20) as u32),
                            1 => ThreadOp::Read(Addr((c * 8 + i) as u64)),
                            _ => ThreadOp::Write(Addr((c * 8 + i) as u64), i as u64),
                        })
                        .chain([ThreadOp::Read(Addr(c as u64))])
                        .collect();
                    Box::new(LoopProgram::new(ops)) as Box<dyn ThreadProgram>
                })
                .collect();
            let mut p = Processor::new(programs, switch);
            let mut due: Vec<(u64, usize)> = Vec::new();
            for now in 0..600u64 {
                if rng.chance(0.1) {
                    let span = p.next_wake();
                    forks[match span {
                        None => 0,
                        Some(0) => 1,
                        Some(_) => 2,
                    }] += 1;
                    // An unbounded (all-blocked) span is cut where the
                    // test stops looking.
                    let span = span.unwrap_or(40);
                    for j in 1..=span {
                        let (mut bulk, mut stepped) = (p.clone(), p.clone());
                        bulk.advance(j);
                        for _ in 0..j {
                            assert_eq!(stepped.step(), None, "seed {seed}: a pure tick issued");
                        }
                        assert_eq!(
                            format!("{bulk:?}"),
                            format!("{stepped:?}"),
                            "seed {seed} cycle {now}: advance({j}) of a {span}-tick span"
                        );
                        let (mut due_a, mut due_b) = (due.clone(), due.clone());
                        for later in now + j..now + j + 60 {
                            let a = tick(&mut bulk, &mut due_a, later);
                            let b = tick(&mut stepped, &mut due_b, later);
                            assert_eq!(a, b, "seed {seed}: forks diverged at cycle {later}");
                            if let Some(req) = a {
                                due_a.push((later + fork_latency(later, req.context), req.context));
                                due_b.push((later + fork_latency(later, req.context), req.context));
                            }
                        }
                        assert_eq!(bulk.stats(), stepped.stats(), "seed {seed}");
                    }
                }
                if let Some(req) = tick(&mut p, &mut due, now) {
                    due.push((now + rng.range_u64(0, 40), req.context));
                }
            }
        }
        // Every kind of horizon was drawn and checked.
        assert!(
            forks.iter().all(|&n| n > 100),
            "forks by horizon: {forks:?}"
        );
    }

    #[test]
    fn park_removes_a_blocked_thread_and_adopt_resumes_it() {
        // Block the only context, park it, hand its program to a second
        // processor: the source idles forever, the destination runs the
        // thread from where it stopped.
        let mut src = cpu(4, 1, 0);
        let req = loop {
            if let Some(r) = src.step() {
                break r;
            }
        };
        assert!(src.is_stalled());
        let program = src.park(req.context);
        assert!(src.is_stalled(), "parked slot must stay blocked");
        assert_eq!(src.next_wake(), None);
        for _ in 0..50 {
            assert!(src.step().is_none(), "parked processor must never fetch");
        }

        let mut dst = cpu(4, 1, 0);
        let ctx = dst.adopt(program);
        assert_eq!(ctx, 1);
        assert_eq!(dst.contexts(), 2);
        let mut issues = 0;
        let mut outstanding: Vec<(u64, usize)> = Vec::new();
        for now in 0..200u64 {
            outstanding.retain(|&(due, c)| {
                if due <= now {
                    dst.complete(c, 0);
                    false
                } else {
                    true
                }
            });
            if let Some(r) = dst.step() {
                issues += 1;
                outstanding.push((now + 10, r.context));
            }
        }
        assert!(issues > 2, "adopted thread must issue on the new node");
    }

    #[test]
    #[should_panic(expected = "not blocked on memory")]
    fn park_of_runnable_context_panics() {
        let mut p = cpu(5, 1, 0);
        p.park(0);
    }

    #[test]
    fn read_values_reach_the_program() {
        // A program that reads and then writes what it read plus one.
        #[derive(Debug, Clone)]
        struct Echo {
            issued_read: bool,
            pub seen: Vec<u64>,
        }
        impl ThreadProgram for Echo {
            fn clone_box(&self) -> Box<dyn ThreadProgram> {
                Box::new(self.clone())
            }

            fn next(&mut self, last_read: Option<u64>) -> ThreadOp {
                if let Some(v) = last_read {
                    self.seen.push(v);
                }
                if self.issued_read {
                    self.issued_read = false;
                    ThreadOp::Compute(3)
                } else {
                    self.issued_read = true;
                    ThreadOp::Read(Addr(0))
                }
            }
        }
        let mut p = Processor::new(
            vec![Box::new(Echo {
                issued_read: false,
                seen: vec![],
            })],
            0,
        );
        let mut value = 100;
        for _ in 0..50 {
            if let Some(req) = p.step() {
                p.complete(req.context, value);
                value += 1;
            }
        }
        // The Echo program verified it received consecutive values via
        // its `seen` log — inspect through Debug formatting.
        let debug = format!("{p:?}");
        assert!(debug.contains("100"), "first read value missing: {debug}");
    }
}
