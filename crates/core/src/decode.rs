//! Predecoded µop programs — the instruction cache of the host-side
//! simulator.
//!
//! The fetch/decode machine of [`sm`](crate::sm) used to re-extract
//! every instruction field (operand indices, immediates, guard
//! predicates, loop packing, cycle class and timing) on every *dynamic*
//! instruction. A [`DecodedProgram`] does all of that once, at
//! [`Processor::load_program`](crate::Processor::load_program) time,
//! lowering each [`Instruction`] into a flat, repr-packed `Uop`:
//!
//! * operand register fields resolved to plain indices;
//! * immediates widened per [`ImmForm`](simt_isa::ImmForm) (and loop
//!   count / end address unpacked);
//! * the optional predicate guard folded into two bytes (`guard_and`,
//!   `guard_xor`) so a lane's pass test is one AND + one XOR with no
//!   `Option` branch — see `Uop::guard_passes`;
//! * `setp` destination and `selp` source predicate bits pre-shifted;
//! * the active-thread count after dynamic scaling, the block shape and
//!   the closed-form clock count pre-resolved against the processor
//!   configuration.
//!
//! A decode is specialized to one [`ProcessorConfig`] (the thread count
//! bakes into `active`/`clocks`) and is immutable, so it can be shared:
//! the compile cache keeps one per compiled artifact, a multi-core
//! `simt_system::System` hands one `Arc` to every core, and
//! [`Processor::reset`](crate::Processor::reset) keeps it alive across
//! runs. Decoding performs **no validation** — a `DecodedProgram` is
//! paired with the [`validate_program`] checks at
//! [`Processor::load_decoded`](crate::Processor::load_decoded) time,
//! exactly the checks `load_program` has always run.

use crate::config::ProcessorConfig;
use crate::error::LoadError;
use crate::sequencer::InstructionTiming;
use simt_isa::{CycleClass, Guard, Instruction, Opcode, Program};
use std::sync::Arc;

/// One predecoded micro-operation: an [`Instruction`] with every field
/// the inner loop needs pre-extracted, pre-widened and pre-timed.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Uop {
    /// The opcode — the dense dispatch discriminant of the run loop.
    pub opcode: Opcode,
    /// Sequencer cycle-counting class.
    pub class: CycleClass,
    /// Guard test byte: a lane executes iff
    /// `(pred & guard_and) ^ guard_xor != 0`.
    pub guard_and: u8,
    /// Guard flip byte (see `guard_and`).
    pub guard_xor: u8,
    /// Pre-shifted predicate bit: `1 << dst` for `setp.*`,
    /// `1 << sel` for `selp`, 0 otherwise.
    pub pred_bit: u8,
    /// Destination register index (0 for control flow).
    pub rd: u16,
    /// First source register index.
    pub ra: u16,
    /// Second source register index.
    pub rb: u16,
    /// Third source register index.
    pub rc: u16,
    /// Widened immediate: `imm32` for Imm32 forms, zero-extended
    /// `imm16` for Imm16 forms, the trip count for `loop`.
    pub imm: u32,
    /// Branch / call target; loop end address for `loop`.
    pub target: u32,
    /// Active threads after dynamic scaling.
    pub active: u32,
    /// Closed-form clocks this instruction occupies the machine.
    pub clocks: u32,
    /// Thread-block row width in lanes (memory port accounting).
    pub lanes: u16,
    /// Thread-block depth in rows (memory port accounting).
    pub depth: u16,
}

impl Uop {
    /// Lower one instruction for a processor configuration.
    fn decode(instr: &Instruction, config: &ProcessorConfig) -> Uop {
        let (guard_and, guard_xor) = match instr.guard {
            None => (0, 1),
            Some(Guard { pred, negate }) => {
                let mask = 1u8 << pred.index();
                (mask, if negate { mask } else { 0 })
            }
        };
        let pred_bit = match instr.opcode {
            Opcode::SetpEq
            | Opcode::SetpNe
            | Opcode::SetpLt
            | Opcode::SetpLe
            | Opcode::SetpGt
            | Opcode::SetpGe
            | Opcode::SetpLtu
            | Opcode::SetpGeu => 1u8 << instr.dst_pred().index(),
            Opcode::Selp => 1u8 << instr.sel_pred().index(),
            _ => 0,
        };
        let (imm, target, rd) = match instr.opcode {
            // Loop form: trip count in `imm`, end address in `target`
            // (the zero/empty-trip skip destination is derived from
            // `target` and the PC on that cold path — a u16 field
            // could not hold every address the I-Mem capacity allows).
            Opcode::Loop => (instr.loop_count(), instr.loop_end() as u32, 0),
            Opcode::Bra | Opcode::Brp | Opcode::Call => (0, instr.target() as u32, 0),
            _ => {
                let imm = match instr.imm_form() {
                    simt_isa::ImmForm::Imm32 => instr.imm32(),
                    simt_isa::ImmForm::Imm16 => instr.imm16(),
                    _ => 0,
                };
                (imm, 0, instr.rd.index() as u16)
            }
        };
        let active = InstructionTiming::scaled_threads(config.threads, instr.scale);
        let class = instr.opcode.cycle_class();
        let (lanes, depth) = InstructionTiming::block_shape(active);
        Uop {
            opcode: instr.opcode,
            class,
            guard_and,
            guard_xor,
            pred_bit,
            rd,
            ra: instr.ra.index() as u16,
            rb: instr.rb.index() as u16,
            rc: instr.rc.index() as u16,
            imm,
            target,
            active: active as u32,
            clocks: InstructionTiming::cycles(class, active) as u32,
            lanes: lanes as u16,
            depth: depth as u16,
        }
    }

    /// Whether a lane with predicate nibble `pred` executes this µop.
    #[inline(always)]
    pub fn guard_passes(&self, pred: u8) -> bool {
        (pred & self.guard_and) ^ self.guard_xor != 0
    }
}

/// A program lowered to flat µops for one processor configuration.
///
/// Immutable and cheap to share (`Arc<DecodedProgram>`): the runtime's
/// compile cache attaches one to every compiled artifact so repeated
/// stream launches and graph replays skip re-decoding entirely, and
/// `simt_system::System::load_all` decodes once for all cores.
#[derive(Debug)]
pub struct DecodedProgram {
    uops: Vec<Uop>,
    program: Arc<Program>,
    config: ProcessorConfig,
}

impl DecodedProgram {
    /// Lower `program` for `config`.
    ///
    /// Decoding never fails; pair it with [`validate_program`] (which
    /// [`Processor::load_decoded`](crate::Processor::load_decoded)
    /// runs) before executing the result.
    pub fn decode(program: Arc<Program>, config: &ProcessorConfig) -> Self {
        let uops = program
            .instructions()
            .iter()
            .map(|i| Uop::decode(i, config))
            .collect();
        DecodedProgram {
            uops,
            program,
            config: config.clone(),
        }
    }

    /// The source program.
    pub fn program(&self) -> &Arc<Program> {
        &self.program
    }

    /// The configuration the decode is specialized to.
    pub fn config(&self) -> &ProcessorConfig {
        &self.config
    }

    /// Number of µops (equal to the program's instruction count).
    pub fn len(&self) -> usize {
        self.uops.len()
    }

    /// True when the program holds no instructions.
    pub fn is_empty(&self) -> bool {
        self.uops.is_empty()
    }

    /// The µop stream.
    #[inline]
    pub(crate) fn uops(&self) -> &[Uop] {
        &self.uops
    }
}

/// The host-side checks performed before writing the externally
/// re-loadable I-Mem (Fig. 2): capacity, terminator, predicate build,
/// register ranges and control-flow targets.
pub fn validate_program(program: &Program, config: &ProcessorConfig) -> Result<(), LoadError> {
    if program.len() > config.imem_capacity {
        return Err(LoadError::TooLarge {
            len: program.len(),
            capacity: config.imem_capacity,
        });
    }
    if !program.has_terminator() {
        return Err(LoadError::NoTerminator);
    }
    for (pc, i) in program.instructions().iter().enumerate() {
        if i.uses_predicates() && !config.predicates {
            return Err(LoadError::PredicatesDisabled { pc });
        }
        let limit = config.regs_per_thread;
        let check = |r: simt_isa::Reg| -> Result<(), LoadError> {
            if r.index() >= limit {
                Err(LoadError::RegisterRange {
                    pc,
                    reg: r.0,
                    limit,
                })
            } else {
                Ok(())
            }
        };
        // setp's rd field holds a predicate index, not a register.
        let writes_gpr = i.opcode.writes_rd()
            && !matches!(
                i.opcode,
                Opcode::SetpEq
                    | Opcode::SetpNe
                    | Opcode::SetpLt
                    | Opcode::SetpLe
                    | Opcode::SetpGt
                    | Opcode::SetpGe
                    | Opcode::SetpLtu
                    | Opcode::SetpGeu
            );
        if writes_gpr {
            check(i.rd)?;
        }
        if i.opcode.reg_reads() >= 1 {
            check(i.ra)?;
        }
        if i.opcode.reg_reads() >= 2 && i.opcode.imm_form() != simt_isa::ImmForm::Imm32 {
            check(i.rb)?;
        }
        if i.opcode.reads_rc() && i.opcode != Opcode::Selp {
            check(i.rc)?;
        }
        match i.opcode {
            Opcode::Bra | Opcode::Brp | Opcode::Call if i.target() >= program.len() => {
                return Err(LoadError::BadTarget {
                    pc,
                    target: i.target(),
                });
            }
            Opcode::Loop if i.loop_end() >= program.len() => {
                return Err(LoadError::BadTarget {
                    pc,
                    target: i.loop_end(),
                });
            }
            _ => {}
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> ProcessorConfig {
        ProcessorConfig::small()
    }

    #[test]
    fn guard_bytes_cover_all_three_cases() {
        let plain = Uop::decode(&Instruction::new(Opcode::Add), &cfg());
        for p in 0..16u8 {
            assert!(plain.guard_passes(p));
        }
        let pos = Uop::decode(&Instruction::new(Opcode::Add).guarded(2, false), &cfg());
        let neg = Uop::decode(&Instruction::new(Opcode::Add).guarded(2, true), &cfg());
        for p in 0..16u8 {
            let bit = p >> 2 & 1 != 0;
            assert_eq!(pos.guard_passes(p), bit, "@p2 nibble {p:#06b}");
            assert_eq!(neg.guard_passes(p), !bit, "@!p2 nibble {p:#06b}");
        }
    }

    #[test]
    fn immediates_widen_per_form() {
        let i32op = Uop::decode(&Instruction::new(Opcode::Addi).imm(0xDEAD_BEEF), &cfg());
        assert_eq!(i32op.imm, 0xDEAD_BEEF);
        let i16op = Uop::decode(&Instruction::new(Opcode::Shli).imm(0xDEAD_BEEF), &cfg());
        assert_eq!(i16op.imm, 0xBEEF);
        let none = Uop::decode(&Instruction::new(Opcode::Add).imm(7), &cfg());
        assert_eq!(none.imm, 0);
    }

    #[test]
    fn loop_fields_unpack() {
        let l = Uop::decode(&Instruction::new(Opcode::Loop).imm(0x0030_0005), &cfg());
        assert_eq!(l.imm, 5); // trip count
        assert_eq!(l.target, 0x30); // end address
        assert_eq!(l.rd, 0); // dead GPR field stays clear
    }

    #[test]
    fn timing_is_preresolved_against_the_config() {
        let c = cfg(); // 64 threads
        let sts = Uop::decode(&Instruction::new(Opcode::Sts), &c);
        assert_eq!(sts.active, 64);
        assert_eq!(sts.clocks, 64); // 4 rows x 16-lane write mux
        assert_eq!((sts.lanes, sts.depth), (16, 4));
        let scaled = Uop::decode(&Instruction::new(Opcode::Sts).scaled(4), &c);
        assert_eq!(scaled.active, 4);
        assert_eq!(scaled.clocks, 4);
        assert_eq!((scaled.lanes, scaled.depth), (4, 1));
    }

    #[test]
    fn decode_matches_program_length_and_keeps_source() {
        let p = Arc::new(Program::from_instructions(vec![
            Instruction::new(Opcode::Stid).rd(1),
            Instruction::new(Opcode::Exit),
        ]));
        let d = DecodedProgram::decode(Arc::clone(&p), &cfg());
        assert_eq!(d.len(), 2);
        assert!(!d.is_empty());
        assert!(Arc::ptr_eq(d.program(), &p));
        assert_eq!(d.config(), &cfg());
    }

    #[test]
    fn validation_matches_load_checks() {
        let no_term = Program::from_instructions(vec![Instruction::new(Opcode::Nop)]);
        assert_eq!(
            validate_program(&no_term, &cfg()),
            Err(LoadError::NoTerminator)
        );
        let bad_reg = Program::from_instructions(vec![
            Instruction::new(Opcode::Add).rd(99).ra(1).rb(1),
            Instruction::new(Opcode::Exit),
        ]);
        assert!(matches!(
            validate_program(&bad_reg, &cfg()),
            Err(LoadError::RegisterRange { pc: 0, reg: 99, .. })
        ));
        let bad_target = Program::from_instructions(vec![
            Instruction::new(Opcode::Bra).imm(9),
            Instruction::new(Opcode::Exit),
        ]);
        assert!(matches!(
            validate_program(&bad_target, &cfg()),
            Err(LoadError::BadTarget { pc: 0, target: 9 })
        ));
        let pred = Program::from_instructions(vec![
            Instruction::new(Opcode::Add)
                .rd(1)
                .ra(1)
                .rb(1)
                .guarded(0, false),
            Instruction::new(Opcode::Exit),
        ]);
        let no_preds = ProcessorConfig::small().with_predicates(false);
        assert_eq!(
            validate_program(&pred, &no_preds),
            Err(LoadError::PredicatesDisabled { pc: 0 })
        );
    }
}
