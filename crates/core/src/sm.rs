//! The streaming multiprocessor: one SM of 16 SPs executing in lockstep
//! (§2–§3). Two execution modes share one semantic core:
//!
//! * **Functional** — computes results per thread row and accounts clocks
//!   with the closed-form counter arithmetic of
//!   [`InstructionTiming`].
//! * **CycleAccurate** — additionally steps the
//!   [`PipelineControl`] counter
//!   hardware clock by clock for every instruction and cross-checks it
//!   against the closed form (a property the tests also pin).
//!
//! Both modes produce identical results and identical [`ExecStats`].
//!
//! Two *interpreters* also share that semantic core (see
//! `docs/SIMULATOR.md`):
//!
//! * the **predecoded** fast path ([`Processor::run`]) executes the
//!   cached [`DecodedProgram`] µops with per-opcode lane loops,
//!   monomorphized over (trace on/off × mode) so the hot loop carries
//!   no trace or cross-check branches;
//! * the **reference** path ([`Processor::run_reference`]) interprets
//!   the [`Program`] directly, re-extracting fields per dynamic
//!   instruction the way the seed simulator did — kept as the
//!   differential-testing oracle and the host-throughput baseline.
//!
//! The two must never diverge: results, traces and [`ExecStats`] are
//! pinned bit-identical by `tests/prop_decode.rs`.

use crate::alu::{Datapath, Operands};
use crate::config::ProcessorConfig;
use crate::decode::{validate_program, DecodedProgram, Uop};
use crate::error::{ConfigError, ExecError, LoadError};
use crate::profile::PcProfile;
use crate::regfile::RegisterFile;
use crate::sequencer::{InstructionTiming, PipelineControl, FETCH_PIPELINE_DEPTH};
use crate::shared::SharedMemory;
use crate::stats::ExecStats;
use simt_datapath::{logic::LogicOp, ShiftKind, Signedness};
use simt_isa::{CycleClass, Guard, Instruction, Opcode, Program};
use std::sync::Arc;

/// Execution mode selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Closed-form cycle accounting (fast).
    Functional,
    /// Clock-stepped counter hardware, cross-checked (slower, used by
    /// verification tests and the cycle-model benches).
    CycleAccurate,
}

/// Options for one run.
#[derive(Debug, Clone, Copy)]
pub struct RunOptions {
    /// Watchdog: abort after this many clocks.
    pub max_cycles: u64,
    /// Execution mode.
    pub mode: ExecMode,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            max_cycles: 200_000_000,
            mode: ExecMode::Functional,
        }
    }
}

impl RunOptions {
    /// Cycle-accurate verification run.
    pub fn cycle_accurate() -> Self {
        RunOptions {
            mode: ExecMode::CycleAccurate,
            ..Default::default()
        }
    }
}

/// One issued instruction in an execution trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEntry {
    /// Program counter of the instruction.
    pub pc: usize,
    /// Opcode issued.
    pub opcode: Opcode,
    /// Active threads after dynamic scaling.
    pub active: usize,
    /// Clocks the instruction occupied the machine.
    pub clocks: u64,
    /// Taken-branch target, if the instruction redirected the PC
    /// (zero-overhead loop back-edges are not branches and appear as
    /// `None`).
    pub jumped: Option<usize>,
}

/// A full architectural checkpoint (serializable).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Snapshot {
    /// Configuration the snapshot was taken under.
    pub config: ProcessorConfig,
    /// Register file contents, `[thread][reg]` row-major.
    pub regs: Vec<u32>,
    /// Predicate nibbles, one per thread.
    pub preds: Vec<u8>,
    /// Shared memory contents.
    pub shared: Vec<u32>,
    /// Loaded program, if any.
    pub program: Option<Program>,
}

#[derive(Debug, Clone, Copy)]
struct LoopFrame {
    start: usize,
    end: usize,
    remaining: u32,
}

/// One SIMT processor instance.
#[derive(Debug, Clone)]
pub struct Processor {
    config: ProcessorConfig,
    regfile: RegisterFile,
    shared: SharedMemory,
    datapath: Datapath,
    /// The loaded program, predecoded (kept across [`Processor::reset`]).
    decoded: Option<Arc<DecodedProgram>>,
}

impl Processor {
    /// Build a processor for `config`.
    pub fn new(config: ProcessorConfig) -> Result<Self, ConfigError> {
        config.validate()?;
        Ok(Processor {
            regfile: RegisterFile::new(&config),
            shared: SharedMemory::new(config.shared_words),
            datapath: Datapath::new(),
            decoded: None,
            config,
        })
    }

    /// The configuration.
    pub fn config(&self) -> &ProcessorConfig {
        &self.config
    }

    /// The loaded program, if any.
    pub fn program(&self) -> Option<&Program> {
        self.decoded.as_ref().map(|d| d.program().as_ref())
    }

    /// The predecoded form of the loaded program, if any — shareable
    /// with other processors of the same configuration via
    /// [`Processor::load_decoded`].
    pub fn decoded(&self) -> Option<&Arc<DecodedProgram>> {
        self.decoded.as_ref()
    }

    /// Host access to the register file.
    pub fn regfile(&self) -> &RegisterFile {
        &self.regfile
    }

    /// Mutable host access to the register file (data upload).
    pub fn regfile_mut(&mut self) -> &mut RegisterFile {
        &mut self.regfile
    }

    /// Host access to shared memory.
    pub fn shared(&self) -> &SharedMemory {
        &self.shared
    }

    /// Mutable host access to shared memory.
    pub fn shared_mut(&mut self) -> &mut SharedMemory {
        &mut self.shared
    }

    /// Validate a program against this build, load it into I-Mem (the
    /// I-Mem is "externally re-loadable", Fig. 2) and predecode it into
    /// the µop cache the run loop executes.
    pub fn load_program(&mut self, program: &Program) -> Result<(), LoadError> {
        validate_program(program, &self.config)?;
        let program = Arc::new(program.clone());
        self.decoded = Some(Arc::new(DecodedProgram::decode(program, &self.config)));
        Ok(())
    }

    /// Load an already-decoded program (validated against this build),
    /// sharing the decode instead of re-deriving it — the path the
    /// runtime's compile cache and multi-core systems use. The decode's
    /// configuration must equal this processor's.
    pub fn load_decoded(&mut self, decoded: Arc<DecodedProgram>) -> Result<(), LoadError> {
        if *decoded.config() != self.config {
            return Err(LoadError::ConfigMismatch);
        }
        validate_program(decoded.program(), &self.config)?;
        self.decoded = Some(decoded);
        Ok(())
    }

    /// Reset architectural state (registers, predicates, shared memory),
    /// keeping the loaded program and its decode. Zeroes the existing
    /// buffers in place: a pooled processor's reset allocates nothing.
    pub fn reset(&mut self) {
        self.regfile.clear();
        self.shared.clear();
    }

    /// Snapshot the full architectural state (registers, predicates,
    /// shared memory, loaded program) — checkpointing for long
    /// simulations and for A/B experiments from a common state.
    pub fn snapshot(&self) -> Snapshot {
        let (regs, preds) = self.regfile.raw();
        Snapshot {
            config: self.config.clone(),
            regs: regs.to_vec(),
            preds: preds.to_vec(),
            shared: self.shared.as_slice().to_vec(),
            program: self.decoded.as_ref().map(|d| d.program().as_ref().clone()),
        }
    }

    /// Restore a snapshot taken from a processor with the same
    /// configuration.
    ///
    /// # Panics
    /// If the snapshot's configuration differs from this processor's.
    pub fn restore(&mut self, snap: &Snapshot) {
        assert_eq!(
            snap.config, self.config,
            "snapshot is from a different configuration"
        );
        self.regfile.restore_raw(&snap.regs, &snap.preds);
        self.shared = SharedMemory::new(self.config.shared_words);
        self.shared
            .load_words(0, &snap.shared)
            .expect("snapshot memory fits by construction");
        self.decoded = snap.program.as_ref().map(|p| {
            // The snapshot came from a processor of this configuration,
            // so the program re-validates by construction.
            Arc::new(DecodedProgram::decode(Arc::new(p.clone()), &self.config))
        });
    }

    /// Execute the loaded program to `exit` (the predecoded fast path).
    pub fn run(&mut self, opts: RunOptions) -> Result<ExecStats, ExecError> {
        self.run_inner(opts, &mut None)
    }

    /// Execute with a per-instruction trace (issued PC, opcode, active
    /// thread count, clocks, branch target) — the simulator's equivalent
    /// of a logic-analyzer capture on the instruction block.
    pub fn run_traced(
        &mut self,
        opts: RunOptions,
    ) -> Result<(ExecStats, Vec<TraceEntry>), ExecError> {
        let mut trace = Some(Vec::new());
        let stats = self.run_inner(opts, &mut trace)?;
        Ok((stats, trace.unwrap()))
    }

    /// Execute with an opt-in per-PC profile: cycles, issues and
    /// thread-operations charged per program counter (see
    /// [`PcProfile`]). The µop table is 1:1 with the source program, so
    /// each slot names a source instruction directly. Statistics and
    /// architectural results are bit-exact with [`Processor::run`]; the
    /// profiled loop is a separate monomorphization, so unprofiled runs
    /// pay nothing.
    pub fn run_profiled(&mut self, opts: RunOptions) -> Result<(ExecStats, PcProfile), ExecError> {
        let len = self.decoded.as_ref().map(|d| d.len()).unwrap_or(0);
        let mut profile = Some(PcProfile::with_len(len));
        let stats = self.run_dispatch(opts, &mut None, &mut profile)?;
        Ok((stats, profile.unwrap()))
    }

    /// Execute through the **reference interpreter**: field extraction
    /// per dynamic instruction, generic per-lane dispatch through
    /// [`Datapath::eval`] — semantically identical to [`Processor::run`]
    /// (pinned by proptest), kept as the differential-testing oracle and
    /// the `tables --sim` host-throughput baseline.
    pub fn run_reference(&mut self, opts: RunOptions) -> Result<ExecStats, ExecError> {
        self.run_reference_inner(opts, &mut None)
    }

    /// [`Processor::run_reference`] with a per-instruction trace.
    pub fn run_reference_traced(
        &mut self,
        opts: RunOptions,
    ) -> Result<(ExecStats, Vec<TraceEntry>), ExecError> {
        let mut trace = Some(Vec::new());
        let stats = self.run_reference_inner(opts, &mut trace)?;
        Ok((stats, trace.unwrap()))
    }

    fn run_inner(
        &mut self,
        opts: RunOptions,
        trace: &mut Option<Vec<TraceEntry>>,
    ) -> Result<ExecStats, ExecError> {
        self.run_dispatch(opts, trace, &mut None)
    }

    fn run_dispatch(
        &mut self,
        opts: RunOptions,
        trace: &mut Option<Vec<TraceEntry>>,
        profile: &mut Option<PcProfile>,
    ) -> Result<ExecStats, ExecError> {
        let decoded = self
            .decoded
            .clone()
            .expect("no program loaded — call load_program first");
        // Monomorphize the run loop over (trace, profile, mode): the
        // fast path carries no trace pushes, no per-PC counter updates
        // and no counter-hardware stepping.
        let stats = match (trace.is_some(), profile.is_some(), opts.mode) {
            (false, false, ExecMode::Functional) => {
                self.run_loop::<false, false, false>(&decoded, opts, trace, profile)
            }
            (true, false, ExecMode::Functional) => {
                self.run_loop::<true, false, false>(&decoded, opts, trace, profile)
            }
            (false, false, ExecMode::CycleAccurate) => {
                self.run_loop::<false, false, true>(&decoded, opts, trace, profile)
            }
            (true, false, ExecMode::CycleAccurate) => {
                self.run_loop::<true, false, true>(&decoded, opts, trace, profile)
            }
            (false, true, ExecMode::Functional) => {
                self.run_loop::<false, true, false>(&decoded, opts, trace, profile)
            }
            (true, true, ExecMode::Functional) => {
                self.run_loop::<true, true, false>(&decoded, opts, trace, profile)
            }
            (false, true, ExecMode::CycleAccurate) => {
                self.run_loop::<false, true, true>(&decoded, opts, trace, profile)
            }
            (true, true, ExecMode::CycleAccurate) => {
                self.run_loop::<true, true, true>(&decoded, opts, trace, profile)
            }
        }?;
        // Always-on retirement counters: one relaxed add per counter per
        // *finished run*, never per instruction — the process-wide
        // dyn-instr / thread-op totals the metrics layer reports.
        simt_metrics::sim::retire_run(stats.instructions, stats.thread_ops);
        Ok(stats)
    }

    /// The predecoded run loop, monomorphized over trace capture,
    /// per-PC profiling and cycle accuracy.
    fn run_loop<const TRACED: bool, const PROFILED: bool, const CYCLE_ACCURATE: bool>(
        &mut self,
        decoded: &DecodedProgram,
        opts: RunOptions,
        trace: &mut Option<Vec<TraceEntry>>,
        profile: &mut Option<PcProfile>,
    ) -> Result<ExecStats, ExecError> {
        let uops = decoded.uops();
        self.shared.reset_stats();
        let mut stats = ExecStats {
            cycles: FETCH_PIPELINE_DEPTH,
            fill_cycles: FETCH_PIPELINE_DEPTH,
            ..Default::default()
        };
        let mut pc = 0usize;
        let mut call_stack: Vec<usize> = Vec::with_capacity(self.config.call_stack_depth);
        let mut loop_stack: Vec<LoopFrame> = Vec::with_capacity(self.config.loop_stack_depth);

        loop {
            if stats.cycles > opts.max_cycles {
                return Err(ExecError::Watchdog {
                    cycles: opts.max_cycles,
                });
            }
            let u = match uops.get(pc) {
                Some(u) => *u,
                None => return Err(ExecError::PcOutOfRange { pc }),
            };
            let active = u.active as usize;

            // ---- clock accounting (both modes agree; cycle-accurate
            // additionally steps the counter hardware) ----
            let clocks = if CYCLE_ACCURATE {
                let stepped = PipelineControl::start(u.class, active).run_to_end();
                debug_assert_eq!(stepped, u.clocks as u64);
                stepped
            } else {
                u.clocks as u64
            };
            stats.cycles += clocks;
            stats.instructions += 1;
            match u.class {
                CycleClass::Operation => stats.op_cycles += clocks,
                CycleClass::Load => stats.load_cycles += clocks,
                CycleClass::Store => stats.store_cycles += clocks,
                CycleClass::SingleCycle => stats.single_cycles += clocks,
            }
            if u.class != CycleClass::SingleCycle {
                stats.thread_ops += active as u64;
            }

            // ---- semantics ----
            let mut jumped: Option<usize> = None;
            match u.opcode {
                Opcode::Bra => {
                    jumped = Some(u.target as usize);
                }
                Opcode::Brp => {
                    if u.guard_passes(self.regfile.pred_nibble(0)) {
                        jumped = Some(u.target as usize);
                    }
                }
                Opcode::Call => {
                    if u.guard_passes(self.regfile.pred_nibble(0)) {
                        if call_stack.len() == self.config.call_stack_depth {
                            return Err(ExecError::CallStackOverflow {
                                pc,
                                depth: self.config.call_stack_depth,
                            });
                        }
                        call_stack.push(pc + 1);
                        jumped = Some(u.target as usize);
                    }
                }
                Opcode::Ret => {
                    if u.guard_passes(self.regfile.pred_nibble(0)) {
                        match call_stack.pop() {
                            Some(ra) => jumped = Some(ra),
                            None => return Err(ExecError::CallStackUnderflow { pc }),
                        }
                    }
                }
                Opcode::Loop => {
                    let count = u.imm;
                    let end = u.target as usize;
                    if count == 0 || end < pc + 1 {
                        // Empty or zero-trip loop: skip the body. A
                        // skip is a taken branch; fall through to flush
                        // accounting below.
                        jumped = Some(end.max(pc) + 1);
                    } else {
                        if loop_stack.len() == self.config.loop_stack_depth {
                            return Err(ExecError::LoopStackOverflow {
                                pc,
                                depth: self.config.loop_stack_depth,
                            });
                        }
                        loop_stack.push(LoopFrame {
                            start: pc + 1,
                            end,
                            remaining: count,
                        });
                    }
                }
                Opcode::Exit => {
                    if TRACED {
                        trace.as_mut().unwrap().push(TraceEntry {
                            pc,
                            opcode: u.opcode,
                            active,
                            clocks,
                            jumped: None,
                        });
                    }
                    if PROFILED {
                        let prof = profile.as_mut().unwrap();
                        prof.fill_cycles = stats.fill_cycles;
                        prof.record(pc, clocks, 0);
                    }
                    stats.mem = self.shared.stats();
                    return Ok(stats);
                }
                Opcode::Nop | Opcode::Bar => {}
                _ => self.exec_uop(&u, pc, active)?,
            }

            if TRACED {
                trace.as_mut().unwrap().push(TraceEntry {
                    pc,
                    opcode: u.opcode,
                    active,
                    clocks,
                    jumped,
                });
            }

            if PROFILED {
                // Charge the taken-branch flush to the branching PC so
                // every clock except pipeline fill has an owner.
                let flush = if jumped.is_some() {
                    FETCH_PIPELINE_DEPTH
                } else {
                    0
                };
                let ops = if u.class != CycleClass::SingleCycle {
                    active as u64
                } else {
                    0
                };
                profile.as_mut().unwrap().record(pc, clocks + flush, ops);
            }

            // ---- PC update ----
            match jumped {
                Some(target) => {
                    // "A branch taken zeroes out the following
                    // instructions in the pipeline."
                    stats.branches_taken += 1;
                    stats.branch_flush_cycles += FETCH_PIPELINE_DEPTH;
                    stats.cycles += FETCH_PIPELINE_DEPTH;
                    pc = target;
                }
                None => {
                    // Zero-overhead loop back-edges: the "next thread
                    // block" / branch logic of Fig. 2 redirects without a
                    // flush. Nested loops may share an end address — an
                    // exhausted inner frame pops and the enclosing frame
                    // gets its check in the same clock.
                    let mut redirected = false;
                    while let Some(top) = loop_stack.last_mut() {
                        if top.end != pc {
                            break;
                        }
                        if top.remaining > 1 {
                            top.remaining -= 1;
                            pc = top.start;
                            stats.loop_backedges += 1;
                            redirected = true;
                            break;
                        }
                        loop_stack.pop();
                    }
                    if !redirected {
                        pc += 1;
                    }
                }
            }
        }
    }

    /// Execute one data µop (operation / load / store) across the active
    /// thread set: one dense dispatch per *instruction*, then a
    /// specialized lane loop per opcode with the guard test and operand
    /// indices pre-resolved — no per-lane field extraction or opcode
    /// dispatch.
    fn exec_uop(&mut self, u: &Uop, pc: usize, active: usize) -> Result<(), ExecError> {
        let Processor {
            config,
            regfile,
            shared,
            datapath: dp,
            ..
        } = self;
        let ntid = config.threads as u32;
        let (regs, preds, rpt) = regfile.split_mut();
        let preds: &mut [u8] = preds;
        let (rd, ra, rb, rc) = (u.rd as usize, u.ra as usize, u.rb as usize, u.rc as usize);
        let imm = u.imm;

        match u.opcode {
            // ---- shared memory --------------------------------------
            Opcode::Lds => {
                shared.account_read_rows(u.lanes as usize, u.depth as usize);
                let shared_size = shared.words();
                let data = shared.as_slice();
                let active_regs = &mut regs[..active * rpt];
                let active_preds = &preds[..active];
                let mut reads = 0u64;
                let body = |tid: usize, w: &mut [u32]| -> Result<(), ExecError> {
                    let addr = w[ra].wrapping_add(imm) as usize;
                    match data.get(addr) {
                        Some(&v) => {
                            w[rd] = v;
                            Ok(())
                        }
                        None => Err(ExecError::SharedOutOfBounds {
                            pc,
                            thread: tid,
                            addr,
                            size: shared_size,
                        }),
                    }
                };
                if u.guard_and == 0 {
                    // Unguarded: every active lane reads exactly once.
                    for (tid, w) in active_regs.chunks_exact_mut(rpt).enumerate() {
                        body(tid, w)?;
                    }
                    reads += active as u64;
                } else {
                    for (tid, (w, p)) in active_regs
                        .chunks_exact_mut(rpt)
                        .zip(active_preds.iter())
                        .enumerate()
                    {
                        if u.guard_passes(*p) {
                            body(tid, w)?;
                            reads += 1;
                        }
                    }
                }
                shared.bump_reads(reads);
            }
            Opcode::Sts => {
                shared.account_write_rows(u.lanes as usize, u.depth as usize);
                // Stores stream through the single write port in thread
                // order; on address conflicts the highest thread id wins.
                for (tid, (w, p)) in regs[..active * rpt]
                    .chunks_exact(rpt)
                    .zip(&preds[..active])
                    .enumerate()
                {
                    if u.guard_passes(*p) {
                        shared.write(pc, tid, w[ra].wrapping_add(imm) as usize, w[rb])?;
                    }
                }
            }

            // ---- compares (predicate writers) -----------------------
            Opcode::SetpEq => setp_lanes(regs, preds, rpt, active, u, |a, b| {
                dp.eval_setp(Opcode::SetpEq, a, b)
            }),
            Opcode::SetpNe => setp_lanes(regs, preds, rpt, active, u, |a, b| {
                dp.eval_setp(Opcode::SetpNe, a, b)
            }),
            Opcode::SetpLt => setp_lanes(regs, preds, rpt, active, u, |a, b| {
                dp.eval_setp(Opcode::SetpLt, a, b)
            }),
            Opcode::SetpLe => setp_lanes(regs, preds, rpt, active, u, |a, b| {
                dp.eval_setp(Opcode::SetpLe, a, b)
            }),
            Opcode::SetpGt => setp_lanes(regs, preds, rpt, active, u, |a, b| {
                dp.eval_setp(Opcode::SetpGt, a, b)
            }),
            Opcode::SetpGe => setp_lanes(regs, preds, rpt, active, u, |a, b| {
                dp.eval_setp(Opcode::SetpGe, a, b)
            }),
            Opcode::SetpLtu => setp_lanes(regs, preds, rpt, active, u, |a, b| {
                dp.eval_setp(Opcode::SetpLtu, a, b)
            }),
            Opcode::SetpGeu => setp_lanes(regs, preds, rpt, active, u, |a, b| {
                dp.eval_setp(Opcode::SetpGeu, a, b)
            }),

            // ---- integer arithmetic (adder datapath) ----------------
            Opcode::Add => lanes(regs, preds, rpt, active, u, |_, w| {
                w[rd] = dp.adder.add(w[ra], w[rb])
            }),
            Opcode::Sub => lanes(regs, preds, rpt, active, u, |_, w| {
                w[rd] = dp.adder.sub(w[ra], w[rb])
            }),
            Opcode::Min => lanes(regs, preds, rpt, active, u, |_, w| {
                w[rd] = dp.adder.min_s(w[ra], w[rb])
            }),
            Opcode::Max => lanes(regs, preds, rpt, active, u, |_, w| {
                w[rd] = dp.adder.max_s(w[ra], w[rb])
            }),
            Opcode::Abs => lanes(regs, preds, rpt, active, u, |_, w| {
                w[rd] = dp.adder.abs(w[ra])
            }),
            Opcode::Neg => lanes(regs, preds, rpt, active, u, |_, w| {
                w[rd] = dp.adder.neg(w[ra])
            }),
            Opcode::Sad => lanes(regs, preds, rpt, active, u, |_, w| {
                w[rd] = dp.adder.sad(w[ra], w[rb], w[rc])
            }),
            Opcode::Addi => lanes(regs, preds, rpt, active, u, |_, w| {
                w[rd] = dp.adder.add(w[ra], imm)
            }),
            Opcode::Subi => lanes(regs, preds, rpt, active, u, |_, w| {
                w[rd] = dp.adder.sub(w[ra], imm)
            }),

            // ---- multiplier datapath --------------------------------
            Opcode::MulLo => lanes(regs, preds, rpt, active, u, |_, w| {
                w[rd] = dp.mult.mul_lo(w[ra], w[rb], Signedness::Signed)
            }),
            Opcode::MulHi => lanes(regs, preds, rpt, active, u, |_, w| {
                w[rd] = dp.mult.mul_hi(w[ra], w[rb], Signedness::Signed)
            }),
            Opcode::MuluHi => lanes(regs, preds, rpt, active, u, |_, w| {
                w[rd] = dp.mult.mul_hi(w[ra], w[rb], Signedness::Unsigned)
            }),
            Opcode::MadLo => lanes(regs, preds, rpt, active, u, |_, w| {
                w[rd] = dp
                    .adder
                    .add(dp.mult.mul_lo(w[ra], w[rb], Signedness::Signed), w[rc])
            }),
            Opcode::MadHi => lanes(regs, preds, rpt, active, u, |_, w| {
                w[rd] = dp
                    .adder
                    .add(dp.mult.mul_hi(w[ra], w[rb], Signedness::Signed), w[rc])
            }),
            Opcode::Muli => lanes(regs, preds, rpt, active, u, |_, w| {
                w[rd] = dp.mult.mul_lo(w[ra], imm, Signedness::Signed)
            }),

            // ---- bitwise logic (soft-logic ALU) ---------------------
            Opcode::And => lanes(regs, preds, rpt, active, u, |_, w| {
                w[rd] = dp.logic.eval(LogicOp::And, w[ra], w[rb])
            }),
            Opcode::Or => lanes(regs, preds, rpt, active, u, |_, w| {
                w[rd] = dp.logic.eval(LogicOp::Or, w[ra], w[rb])
            }),
            Opcode::Xor => lanes(regs, preds, rpt, active, u, |_, w| {
                w[rd] = dp.logic.eval(LogicOp::Xor, w[ra], w[rb])
            }),
            Opcode::Not => lanes(regs, preds, rpt, active, u, |_, w| {
                w[rd] = dp.logic.eval(LogicOp::Not, w[ra], 0)
            }),
            Opcode::Cnot => lanes(regs, preds, rpt, active, u, |_, w| {
                w[rd] = dp.logic.eval(LogicOp::Cnot, w[ra], 0)
            }),
            Opcode::Andi => lanes(regs, preds, rpt, active, u, |_, w| {
                w[rd] = dp.logic.eval(LogicOp::And, w[ra], imm)
            }),
            Opcode::Ori => lanes(regs, preds, rpt, active, u, |_, w| {
                w[rd] = dp.logic.eval(LogicOp::Or, w[ra], imm)
            }),
            Opcode::Xori => lanes(regs, preds, rpt, active, u, |_, w| {
                w[rd] = dp.logic.eval(LogicOp::Xor, w[ra], imm)
            }),
            Opcode::Popc => lanes(regs, preds, rpt, active, u, |_, w| {
                w[rd] = dp.logic.eval(LogicOp::Popc, w[ra], 0)
            }),
            Opcode::Clz => lanes(regs, preds, rpt, active, u, |_, w| {
                w[rd] = dp.logic.eval(LogicOp::Clz, w[ra], 0)
            }),
            Opcode::Brev => lanes(regs, preds, rpt, active, u, |_, w| {
                w[rd] = dp.logic.eval(LogicOp::Brev, w[ra], 0)
            }),

            // ---- shifts (multiplicative shifter) --------------------
            Opcode::Shl => lanes(regs, preds, rpt, active, u, |_, w| {
                w[rd] = dp.shifter.shift(ShiftKind::Lsl, w[ra], w[rb])
            }),
            Opcode::Lsr => lanes(regs, preds, rpt, active, u, |_, w| {
                w[rd] = dp.shifter.shift(ShiftKind::Lsr, w[ra], w[rb])
            }),
            Opcode::Asr => lanes(regs, preds, rpt, active, u, |_, w| {
                w[rd] = dp.shifter.shift(ShiftKind::Asr, w[ra], w[rb])
            }),
            Opcode::Shli => lanes(regs, preds, rpt, active, u, |_, w| {
                w[rd] = dp.shifter.shift(ShiftKind::Lsl, w[ra], imm)
            }),
            Opcode::Lsri => lanes(regs, preds, rpt, active, u, |_, w| {
                w[rd] = dp.shifter.shift(ShiftKind::Lsr, w[ra], imm)
            }),
            Opcode::Asri => lanes(regs, preds, rpt, active, u, |_, w| {
                w[rd] = dp.shifter.shift(ShiftKind::Asr, w[ra], imm)
            }),

            // ---- fixed-point / address helpers ----------------------
            Opcode::SatAdd => lanes(regs, preds, rpt, active, u, |_, w| {
                w[rd] = dp.adder.sat_add(w[ra], w[rb])
            }),
            Opcode::SatSub => lanes(regs, preds, rpt, active, u, |_, w| {
                w[rd] = dp.adder.sat_sub(w[ra], w[rb])
            }),
            Opcode::MulShr => {
                // Fixed-point scaling: full 64-bit signed product,
                // arithmetic shift right by imm (0..=63), low 32 bits.
                let sh = imm & 63;
                lanes(regs, preds, rpt, active, u, |_, w| {
                    let full = dp.mult.mul_full(w[ra], w[rb], Signedness::Signed) as i64;
                    w[rd] = (full >> sh) as u32;
                })
            }
            Opcode::ShAdd => {
                // Address generation: (a << imm) + b.
                let sh = imm & 31;
                lanes(regs, preds, rpt, active, u, |_, w| {
                    w[rd] = dp
                        .adder
                        .add(dp.shifter.shift(ShiftKind::Lsl, w[ra], sh), w[rb])
                })
            }
            Opcode::Bfe => {
                let pos = imm & 0x1F;
                let len = (imm >> 5) & 0x3F;
                lanes(regs, preds, rpt, active, u, |_, w| {
                    let shifted = dp.shifter.shift(ShiftKind::Lsr, w[ra], pos);
                    w[rd] = if len >= 32 {
                        shifted
                    } else {
                        shifted & ((1u32 << len) - 1)
                    };
                })
            }
            Opcode::Rotri => lanes(regs, preds, rpt, active, u, |_, w| {
                w[rd] = dp.shifter.rotate_right(w[ra], imm)
            }),

            // ---- predicated select and data movement ----------------
            Opcode::Selp => {
                let bit = u.pred_bit;
                lanes_pred_src(regs, preds, rpt, active, u, |w, p| {
                    w[rd] = if p & bit != 0 { w[ra] } else { w[rb] }
                })
            }
            Opcode::Mov => lanes(regs, preds, rpt, active, u, |_, w| w[rd] = w[ra]),
            Opcode::Movi => lanes(regs, preds, rpt, active, u, |_, w| w[rd] = imm),
            Opcode::Stid => lanes(regs, preds, rpt, active, u, |tid, w| w[rd] = tid as u32),
            Opcode::Sntid => lanes(regs, preds, rpt, active, u, |_, w| w[rd] = ntid),

            // Control flow is handled by the run loop.
            Opcode::Bra
            | Opcode::Brp
            | Opcode::Call
            | Opcode::Ret
            | Opcode::Loop
            | Opcode::Exit
            | Opcode::Nop
            | Opcode::Bar => {
                unreachable!("{:?} is not a data opcode", u.opcode)
            }
        }
        Ok(())
    }

    fn run_reference_inner(
        &mut self,
        opts: RunOptions,
        trace: &mut Option<Vec<TraceEntry>>,
    ) -> Result<ExecStats, ExecError> {
        let program: Arc<Program> = Arc::clone(
            self.decoded
                .as_ref()
                .expect("no program loaded — call load_program first")
                .program(),
        );
        self.shared.reset_stats();
        let mut stats = ExecStats {
            cycles: FETCH_PIPELINE_DEPTH,
            fill_cycles: FETCH_PIPELINE_DEPTH,
            ..Default::default()
        };
        let mut pc = 0usize;
        let mut call_stack: Vec<usize> = Vec::with_capacity(self.config.call_stack_depth);
        let mut loop_stack: Vec<LoopFrame> = Vec::with_capacity(self.config.loop_stack_depth);

        loop {
            if stats.cycles > opts.max_cycles {
                return Err(ExecError::Watchdog {
                    cycles: opts.max_cycles,
                });
            }
            let instr = match program.fetch(pc) {
                Some(i) => *i,
                None => return Err(ExecError::PcOutOfRange { pc }),
            };
            let active = InstructionTiming::scaled_threads(self.config.threads, instr.scale);
            let class = instr.opcode.cycle_class();

            // ---- clock accounting (both modes agree; cycle-accurate
            // additionally steps the counter hardware) ----
            let clocks = match opts.mode {
                ExecMode::Functional => InstructionTiming::cycles(class, active),
                ExecMode::CycleAccurate => {
                    let stepped = PipelineControl::start(class, active).run_to_end();
                    debug_assert_eq!(stepped, InstructionTiming::cycles(class, active));
                    stepped
                }
            };
            stats.cycles += clocks;
            stats.instructions += 1;
            match class {
                CycleClass::Operation => stats.op_cycles += clocks,
                CycleClass::Load => stats.load_cycles += clocks,
                CycleClass::Store => stats.store_cycles += clocks,
                CycleClass::SingleCycle => stats.single_cycles += clocks,
            }
            if class != CycleClass::SingleCycle {
                stats.thread_ops += active as u64;
            }

            // ---- semantics ----
            let mut jumped: Option<usize> = None;
            match instr.opcode {
                Opcode::Bra => {
                    jumped = Some(instr.target());
                }
                Opcode::Brp => {
                    if self.control_condition(&instr) {
                        jumped = Some(instr.target());
                    }
                }
                Opcode::Call => {
                    if self.control_condition(&instr) {
                        if call_stack.len() == self.config.call_stack_depth {
                            return Err(ExecError::CallStackOverflow {
                                pc,
                                depth: self.config.call_stack_depth,
                            });
                        }
                        call_stack.push(pc + 1);
                        jumped = Some(instr.target());
                    }
                }
                Opcode::Ret => {
                    if self.control_condition(&instr) {
                        match call_stack.pop() {
                            Some(ra) => jumped = Some(ra),
                            None => return Err(ExecError::CallStackUnderflow { pc }),
                        }
                    }
                }
                Opcode::Loop => {
                    let count = instr.loop_count();
                    let end = instr.loop_end();
                    if count == 0 || end < pc + 1 {
                        // Empty or zero-trip loop: skip the body.
                        jumped = Some(end.max(pc) + 1);
                        // A skip is a taken branch; fall through to flush
                        // accounting below.
                    } else {
                        if loop_stack.len() == self.config.loop_stack_depth {
                            return Err(ExecError::LoopStackOverflow {
                                pc,
                                depth: self.config.loop_stack_depth,
                            });
                        }
                        loop_stack.push(LoopFrame {
                            start: pc + 1,
                            end,
                            remaining: count,
                        });
                    }
                }
                Opcode::Exit => {
                    if let Some(t) = trace.as_mut() {
                        t.push(TraceEntry {
                            pc,
                            opcode: instr.opcode,
                            active,
                            clocks,
                            jumped: None,
                        });
                    }
                    stats.mem = self.shared.stats();
                    // Same always-on retirement accounting as the
                    // predecoded path (one relaxed add per run).
                    simt_metrics::sim::retire_run(stats.instructions, stats.thread_ops);
                    return Ok(stats);
                }
                Opcode::Nop | Opcode::Bar => {}
                _ => {
                    self.exec_data_instruction(&instr, pc, active)?;
                }
            }

            if let Some(t) = trace.as_mut() {
                t.push(TraceEntry {
                    pc,
                    opcode: instr.opcode,
                    active,
                    clocks,
                    jumped,
                });
            }

            // ---- PC update ----
            match jumped {
                Some(target) => {
                    // "A branch taken zeroes out the following
                    // instructions in the pipeline."
                    stats.branches_taken += 1;
                    stats.branch_flush_cycles += FETCH_PIPELINE_DEPTH;
                    stats.cycles += FETCH_PIPELINE_DEPTH;
                    pc = target;
                }
                None => {
                    // Zero-overhead loop back-edges (see run_loop).
                    let mut redirected = false;
                    while let Some(top) = loop_stack.last_mut() {
                        if top.end != pc {
                            break;
                        }
                        if top.remaining > 1 {
                            top.remaining -= 1;
                            pc = top.start;
                            stats.loop_backedges += 1;
                            redirected = true;
                            break;
                        }
                        loop_stack.pop();
                    }
                    if !redirected {
                        pc += 1;
                    }
                }
            }
        }
    }

    /// Uniform control condition: thread 0's view of the instruction's
    /// guard (branches are decided once, in the instruction block).
    fn control_condition(&self, instr: &Instruction) -> bool {
        match instr.guard {
            Some(Guard { pred, negate }) => self.regfile.read_pred(0, pred.index()) != negate,
            None => true,
        }
    }

    /// Execute a data instruction (operation / load / store) across the
    /// active thread set — the reference interpreter's generic per-lane
    /// dispatch through [`Datapath::eval`].
    fn exec_data_instruction(
        &mut self,
        instr: &Instruction,
        pc: usize,
        active: usize,
    ) -> Result<(), ExecError> {
        let Processor {
            config,
            regfile,
            shared,
            datapath,
            ..
        } = self;
        let ntid = config.threads as u32;
        let (regs, preds, rpt) = regfile.split_mut();
        let preds: &mut [u8] = preds;

        match instr.opcode {
            Opcode::Lds => {
                let (lanes, depth) = InstructionTiming::block_shape(active);
                for _ in 0..depth {
                    shared.account_read_row(lanes);
                }
                let shared_size = shared.words();
                let data = shared.as_slice();
                let mut reads = 0u64;
                let body = |tid: usize, window: &mut [u32], pred: &u8| -> Result<u64, ExecError> {
                    if !guard_pass(*pred, instr.guard) {
                        return Ok(0);
                    }
                    let addr = window[instr.ra.index()].wrapping_add(instr.imm16()) as usize;
                    match data.get(addr) {
                        Some(&v) => {
                            window[instr.rd.index()] = v;
                            Ok(1)
                        }
                        None => Err(ExecError::SharedOutOfBounds {
                            pc,
                            thread: tid,
                            addr,
                            size: shared_size,
                        }),
                    }
                };
                for (tid, (window, pred)) in regs
                    .chunks_mut(rpt)
                    .zip(preds.iter())
                    .take(active)
                    .enumerate()
                {
                    reads += body(tid, window, pred)?;
                }
                shared.bump_reads(reads);
                Ok(())
            }
            Opcode::Sts => {
                let (lanes, depth) = InstructionTiming::block_shape(active);
                for _ in 0..depth {
                    shared.account_write_row(lanes);
                }
                // Stores stream through the single write port in thread
                // order; on address conflicts the highest thread id wins.
                for (tid, (window, pred)) in
                    regs.chunks(rpt).zip(preds.iter()).take(active).enumerate()
                {
                    if guard_pass(*pred, instr.guard) {
                        let addr = window[instr.ra.index()].wrapping_add(instr.imm16()) as usize;
                        shared.write(pc, tid, addr, window[instr.rb.index()])?;
                    }
                }
                Ok(())
            }
            Opcode::SetpEq
            | Opcode::SetpNe
            | Opcode::SetpLt
            | Opcode::SetpLe
            | Opcode::SetpGt
            | Opcode::SetpGe
            | Opcode::SetpLtu
            | Opcode::SetpGeu => {
                let dst = instr.dst_pred().index();
                let body = |window: &[u32], pred: &mut u8| {
                    if !guard_pass(*pred, instr.guard) {
                        return;
                    }
                    let a = window[instr.ra.index()];
                    let b = window[instr.rb.index()];
                    let v = datapath.eval_setp(instr.opcode, a, b);
                    let bit = 1u8 << dst;
                    if v {
                        *pred |= bit;
                    } else {
                        *pred &= !bit;
                    }
                };
                for (w, p) in regs.chunks(rpt).zip(preds.iter_mut()).take(active) {
                    body(w, p);
                }
                Ok(())
            }
            _ => {
                // Generic ALU-value instruction writing rd.
                let reads = instr.opcode.reg_reads();
                let has_rb = reads >= 2 && instr.opcode.imm_form() != simt_isa::ImmForm::Imm32;
                let body = |tid: usize, window: &mut [u32], pred: &u8| {
                    if !guard_pass(*pred, instr.guard) {
                        return;
                    }
                    let ops = Operands {
                        a: if reads >= 1 {
                            window[instr.ra.index()]
                        } else {
                            0
                        },
                        b: if has_rb { window[instr.rb.index()] } else { 0 },
                        c: if instr.opcode.reads_rc() {
                            window[instr.rc.index()]
                        } else {
                            0
                        },
                        tid: tid as u32,
                        ntid,
                        sel_pred: if instr.opcode == Opcode::Selp {
                            *pred >> instr.sel_pred().index() & 1 != 0
                        } else {
                            false
                        },
                    };
                    let v = datapath.eval(instr, ops);
                    if instr.opcode.writes_rd() {
                        window[instr.rd.index()] = v;
                    }
                };
                for (tid, (w, p)) in regs
                    .chunks_mut(rpt)
                    .zip(preds.iter())
                    .take(active)
                    .enumerate()
                {
                    body(tid, w, p);
                }
                Ok(())
            }
        }
    }
}

/// Drive a register-writing lane body over the active thread set with
/// the µop's precomputed guard test; `f(tid, window)` runs only where
/// the guard passes. The active window is sliced up front (no per-lane
/// `take` bookkeeping) and the unguarded common case skips the guard
/// test entirely.
#[inline(always)]
fn lanes<F>(regs: &mut [u32], preds: &[u8], rpt: usize, active: usize, u: &Uop, f: F)
where
    F: Fn(usize, &mut [u32]),
{
    let regs = &mut regs[..active * rpt];
    let preds = &preds[..active];
    if u.guard_and == 0 {
        // Unguarded common case: no per-lane branch, so the lane body
        // can vectorize across the register file.
        for (tid, w) in regs.chunks_exact_mut(rpt).enumerate() {
            f(tid, w);
        }
    } else {
        for (tid, (w, p)) in regs.chunks_exact_mut(rpt).zip(preds.iter()).enumerate() {
            if u.guard_passes(*p) {
                f(tid, w);
            }
        }
    }
}

/// [`lanes`] variant whose body also reads the lane's predicate nibble
/// (`selp`).
#[inline(always)]
fn lanes_pred_src<F>(regs: &mut [u32], preds: &[u8], rpt: usize, active: usize, u: &Uop, f: F)
where
    F: Fn(&mut [u32], u8),
{
    let regs = &mut regs[..active * rpt];
    let preds = &preds[..active];
    for (w, p) in regs.chunks_exact_mut(rpt).zip(preds.iter()) {
        if u.guard_passes(*p) {
            f(w, *p);
        }
    }
}

/// Drive a predicate-writing compare over the active thread set: the
/// µop's pre-shifted destination bit is set or cleared per lane from
/// `f(a, b)`.
#[inline(always)]
fn setp_lanes<F>(regs: &[u32], preds: &mut [u8], rpt: usize, active: usize, u: &Uop, f: F)
where
    F: Fn(u32, u32) -> bool,
{
    let (ra, rb, bit) = (u.ra as usize, u.rb as usize, u.pred_bit);
    let regs = &regs[..active * rpt];
    let preds = &mut preds[..active];
    for (w, p) in regs.chunks_exact(rpt).zip(preds.iter_mut()) {
        if !u.guard_passes(*p) {
            continue;
        }
        if f(w[ra], w[rb]) {
            *p |= bit;
        } else {
            *p &= !bit;
        }
    }
}

/// Evaluate a predicate guard against a thread's predicate nibble.
#[inline]
fn guard_pass(pred_nibble: u8, guard: Option<Guard>) -> bool {
    match guard {
        Some(Guard { pred, negate }) => (pred_nibble >> pred.index() & 1 != 0) != negate,
        None => true,
    }
}
