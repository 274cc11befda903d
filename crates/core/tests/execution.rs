//! End-to-end execution tests: programs assembled from text, run on the
//! simulator, results and clock counts checked against the paper's
//! formulas.

use simt_core::{
    ExecError, ExecMode, LoadError, Processor, ProcessorConfig, RunOptions, FETCH_PIPELINE_DEPTH,
};
use simt_isa::assemble;

fn small_cpu() -> Processor {
    Processor::new(ProcessorConfig::small()).unwrap()
}

fn run_src(cpu: &mut Processor, src: &str) -> simt_core::ExecStats {
    let p = assemble(src).unwrap();
    cpu.load_program(&p).unwrap();
    cpu.run(RunOptions::default()).unwrap()
}

#[test]
fn tid_arithmetic_store() {
    let mut cpu = small_cpu();
    run_src(
        &mut cpu,
        "  stid r1
           muli r2, r1, 3
           addi r2, r2, 7
           sts [r1+0], r2
           exit",
    );
    for t in 0..64 {
        assert_eq!(cpu.shared().as_slice()[t], (t as u32) * 3 + 7);
    }
}

#[test]
fn load_modifies_and_stores_back() {
    let mut cpu = small_cpu();
    let input: Vec<u32> = (0..64).map(|i| i * i).collect();
    cpu.shared_mut().load_words(0, &input).unwrap();
    run_src(
        &mut cpu,
        "  stid r1
           lds r2, [r1+0]
           shli r3, r2, 1
           sts [r1+64], r3
           exit",
    );
    for t in 0..64u32 {
        assert_eq!(cpu.shared().as_slice()[64 + t as usize], 2 * t * t);
    }
}

#[test]
fn predicated_execution_masks_lanes() {
    let mut cpu = small_cpu();
    run_src(
        &mut cpu,
        "  stid r1
           movi r2, 32
           setp.lt p0, r1, r2    ; p0 = tid < 32
           movi r3, 111
           @p0 movi r3, 222      ; only low half
           sts [r1+0], r3
           exit",
    );
    let mem = cpu.shared().as_slice();
    for (t, &v) in mem.iter().enumerate().take(64) {
        assert_eq!(v, if t < 32 { 222 } else { 111 }, "thread {t}");
    }
}

#[test]
fn selp_uses_predicate() {
    let mut cpu = small_cpu();
    run_src(
        &mut cpu,
        "  stid r1
           andi r2, r1, 1
           movi r4, 0
           setp.ne p1, r2, r4   ; odd threads
           movi r5, 100
           movi r6, 200
           selp r7, r5, r6, p1  ; odd -> 100, even -> 200
           sts [r1+0], r7
           exit",
    );
    let mem = cpu.shared().as_slice();
    for (t, &v) in mem.iter().enumerate().take(64) {
        assert_eq!(v, if t % 2 == 1 { 100 } else { 200 });
    }
}

#[test]
fn zero_overhead_loop_iterates() {
    let mut cpu = small_cpu();
    let stats = run_src(
        &mut cpu,
        "  movi r1, 0
           loop 10, done
           addi r1, r1, 1
        done:
           stid r2
           sts [r2+0], r1
           exit",
    );
    assert!(cpu.shared().as_slice()[..64].iter().all(|&v| v == 10));
    assert_eq!(stats.loop_backedges, 9); // 10 iterations = 9 back-edges
    assert_eq!(stats.branches_taken, 0); // zero overhead: no flushes
}

#[test]
fn nested_loops() {
    let mut cpu = small_cpu();
    run_src(
        &mut cpu,
        "  movi r1, 0
           loop 3, outer_end
           loop 4, inner_end
           addi r1, r1, 1
        inner_end:
        outer_end:
           stid r2
           sts [r2+0], r1
           exit",
    );
    assert_eq!(cpu.shared().as_slice()[0], 12);
}

#[test]
fn call_and_ret() {
    let mut cpu = small_cpu();
    let stats = run_src(
        &mut cpu,
        "  movi r1, 5
           call triple
           stid r2
           sts [r2+0], r1
           exit
        triple:
           muli r1, r1, 3
           ret",
    );
    assert_eq!(cpu.shared().as_slice()[0], 15);
    assert_eq!(stats.branches_taken, 2); // call + ret flush the pipeline
}

#[test]
fn uniform_branch_with_predicate() {
    let mut cpu = small_cpu();
    // Countdown loop implemented with brp on thread 0's predicate.
    run_src(
        &mut cpu,
        "  movi r1, 6
           movi r3, 0
        top:
           addi r3, r3, 1
           subi r1, r1, 1
           movi r4, 0
           setp.gt p0, r1, r4
           @p0 brp top
           stid r2
           sts [r2+0], r3
           exit",
    );
    assert_eq!(cpu.shared().as_slice()[0], 6);
}

#[test]
fn dynamic_thread_scaling_cuts_store_cycles() {
    // The §2 motivation: a reduction writes back only a subset of the
    // threads; the store's clocks shrink accordingly.
    let cfg = ProcessorConfig::small().with_threads(64);
    let mut full = Processor::new(cfg.clone()).unwrap();
    let mut scaled = Processor::new(cfg).unwrap();

    let p_full = assemble("  stid r1\n  sts [r1+0], r1\n  exit").unwrap();
    let p_scaled = assemble("  stid r1\n  sts.t2 [r1+0], r1\n  exit").unwrap();
    full.load_program(&p_full).unwrap();
    scaled.load_program(&p_scaled).unwrap();
    let s_full = full.run(RunOptions::default()).unwrap();
    let s_scaled = scaled.run(RunOptions::default()).unwrap();

    // 64 threads: full store = 16 lanes x 4 rows = 64 clocks;
    // scaled by 4 -> 16 threads = 16 clocks.
    assert_eq!(s_full.store_cycles, 64);
    assert_eq!(s_scaled.store_cycles, 16);
    // Only the low 16 threads wrote.
    assert_eq!(scaled.shared().as_slice()[15], 15);
    assert_eq!(scaled.shared().as_slice()[16], 0);
}

#[test]
fn cycle_accounting_matches_paper_formulas() {
    // 512 threads: op = 32 clk, load = 128 clk, store = 512 clk,
    // single-cycle = 1 clk (§3.1).
    let cfg = ProcessorConfig::default().with_threads(512);
    let mut cpu = Processor::new(cfg).unwrap();
    let p = assemble(
        "  stid r1
           add r2, r1, r1
           lds r3, [r1+0]
           sts [r1+0], r2
           nop
           exit",
    )
    .unwrap();
    cpu.load_program(&p).unwrap();
    let s = cpu.run(RunOptions::default()).unwrap();
    // ops: stid + add = 2 x 32; load 128; store 512; singles: nop + exit.
    assert_eq!(s.op_cycles, 64);
    assert_eq!(s.load_cycles, 128);
    assert_eq!(s.store_cycles, 512);
    assert_eq!(s.single_cycles, 2);
    assert_eq!(s.fill_cycles, FETCH_PIPELINE_DEPTH);
    assert_eq!(
        s.cycles,
        FETCH_PIPELINE_DEPTH + 64 + 128 + 512 + 2,
        "total clock roll-up"
    );
    assert!(s.buckets_consistent());
}

#[test]
fn functional_and_cycle_accurate_agree() {
    let src = "  stid r1
           muli r2, r1, 17
           lds r3, [r1+0]
           mad.lo r4, r2, r3, r1
           sts [r1+0], r4
           loop 5, done
           addi r4, r4, 1
        done:
           sts.t1 [r1+64], r4
           exit";
    let mut results = Vec::new();
    for mode in [ExecMode::Functional, ExecMode::CycleAccurate] {
        let mut cpu = Processor::new(ProcessorConfig::small().with_threads(128)).unwrap();
        cpu.shared_mut()
            .load_words(0, &(0..128).map(|i| i * 3).collect::<Vec<_>>())
            .unwrap();
        let p = assemble(src).unwrap();
        cpu.load_program(&p).unwrap();
        let opts = RunOptions {
            mode,
            ..Default::default()
        };
        let stats = cpu.run(opts).unwrap();
        results.push((stats, cpu.shared().as_slice().to_vec()));
    }
    assert_eq!(results[0].0, results[1].0, "stats differ between modes");
    assert_eq!(results[0].1, results[1].1, "memory differs between modes");
}

#[test]
fn store_conflicts_resolve_in_thread_order() {
    let mut cpu = small_cpu();
    // All threads store their tid to address 0: the 16:1 write mux
    // streams threads in order, so the last writer (highest tid) wins.
    run_src(
        &mut cpu,
        "  stid r1
           movi r2, 0
           sts [r2+0], r1
           exit",
    );
    assert_eq!(cpu.shared().as_slice()[0], 63);
}

// ---- failure injection ------------------------------------------------

#[test]
fn oob_store_traps() {
    let mut cpu = small_cpu();
    let p = assemble("  stid r1\n  sts [r1+2000], r1\n  exit").unwrap();
    cpu.load_program(&p).unwrap();
    let err = cpu.run(RunOptions::default()).unwrap_err();
    assert!(
        matches!(err, ExecError::SharedOutOfBounds { pc: 1, .. }),
        "{err}"
    );
}

#[test]
fn oob_load_traps_with_thread_id() {
    let mut cpu = small_cpu();
    // only thread 63 goes out of bounds (1024-word memory, 961+63 = 1024)
    let p = assemble("  stid r1\n  lds r2, [r1+961]\n  exit").unwrap();
    cpu.load_program(&p).unwrap();
    match cpu.run(RunOptions::default()).unwrap_err() {
        ExecError::SharedOutOfBounds { thread, addr, .. } => {
            assert_eq!(thread, 63);
            assert_eq!(addr, 1024);
        }
        e => panic!("wrong error {e}"),
    }
}

#[test]
fn call_stack_overflow_traps() {
    let mut cpu = small_cpu();
    let p = assemble("rec:\n  call rec\n  exit").unwrap();
    cpu.load_program(&p).unwrap();
    assert!(matches!(
        cpu.run(RunOptions::default()).unwrap_err(),
        ExecError::CallStackOverflow { .. }
    ));
}

#[test]
fn ret_without_call_traps() {
    let mut cpu = small_cpu();
    let p = assemble("  ret").unwrap();
    cpu.load_program(&p).unwrap();
    assert!(matches!(
        cpu.run(RunOptions::default()).unwrap_err(),
        ExecError::CallStackUnderflow { pc: 0 }
    ));
}

#[test]
fn infinite_loop_hits_watchdog() {
    let mut cpu = small_cpu();
    let p = assemble("spin:\n  bra spin").unwrap();
    cpu.load_program(&p).unwrap();
    let opts = RunOptions {
        max_cycles: 10_000,
        ..Default::default()
    };
    assert!(matches!(
        cpu.run(opts).unwrap_err(),
        ExecError::Watchdog { cycles: 10_000 }
    ));
}

#[test]
fn predicates_require_build_flag() {
    let mut cpu = Processor::new(ProcessorConfig::small().with_predicates(false)).unwrap();
    let p = assemble("  setp.eq p0, r1, r2\n  exit").unwrap();
    assert!(matches!(
        cpu.load_program(&p).unwrap_err(),
        LoadError::PredicatesDisabled { pc: 0 }
    ));
}

#[test]
fn register_range_checked_at_load() {
    let mut cpu = Processor::new(ProcessorConfig::small().with_regs_per_thread(8)).unwrap();
    let p = assemble("  movi r12, 1\n  exit").unwrap();
    assert!(matches!(
        cpu.load_program(&p).unwrap_err(),
        LoadError::RegisterRange {
            pc: 0,
            reg: 12,
            limit: 8
        }
    ));
}

#[test]
fn missing_terminator_rejected() {
    let mut cpu = small_cpu();
    let p = assemble("  nop").unwrap();
    assert!(matches!(
        cpu.load_program(&p).unwrap_err(),
        LoadError::NoTerminator
    ));
}

#[test]
fn program_too_large_rejected() {
    let mut cpu = small_cpu();
    let mut src = String::new();
    for _ in 0..600 {
        src.push_str("  nop\n");
    }
    src.push_str("  exit\n");
    let p = assemble(&src).unwrap();
    assert!(matches!(
        cpu.load_program(&p).unwrap_err(),
        LoadError::TooLarge { .. }
    ));
}

#[test]
fn odd_thread_counts_round_up_rows() {
    // 17 threads: ops take 2 clocks (2 rows), stores 32 (16x2).
    let mut cpu = Processor::new(ProcessorConfig::small().with_threads(17)).unwrap();
    let p = assemble("  stid r1\n  sts [r1+0], r1\n  exit").unwrap();
    cpu.load_program(&p).unwrap();
    let s = cpu.run(RunOptions::default()).unwrap();
    assert_eq!(s.op_cycles, 2);
    assert_eq!(s.store_cycles, 32);
    assert_eq!(cpu.shared().as_slice()[16], 16);
}

#[test]
fn fixed_point_kernel_q15() {
    // Q15 saturating multiply-accumulate across a vector.
    let mut cpu = small_cpu();
    let x: Vec<u32> = (0..64).map(|i| (i * 512) as u32).collect(); // Q15 values
    cpu.shared_mut().load_words(0, &x).unwrap();
    run_src(
        &mut cpu,
        "  stid r1
           lds r2, [r1+0]
           mulshr r3, r2, r2, 15   ; x*x in Q15
           sts [r1+64], r3
           exit",
    );
    for t in 0..64usize {
        let x = (t as i64) * 512;
        let want = ((x * x) >> 15) as u32;
        assert_eq!(cpu.shared().as_slice()[64 + t], want);
    }
}

#[test]
fn load_decoded_shares_a_decode_between_same_config_processors() {
    use std::sync::Arc;
    let mut a = small_cpu();
    let p = assemble("  stid r1\n  muli r2, r1, 9\n  sts [r1+0], r2\n  exit").unwrap();
    a.load_program(&p).unwrap();
    let decoded = a.decoded().cloned().expect("load leaves a decode");

    let mut b = small_cpu();
    b.load_decoded(Arc::clone(&decoded)).unwrap();
    assert!(Arc::ptr_eq(b.decoded().unwrap(), &decoded));
    let sa = a.run(RunOptions::default()).unwrap();
    let sb = b.run(RunOptions::default()).unwrap();
    assert_eq!(sa, sb);
    assert_eq!(a.shared().as_slice(), b.shared().as_slice());

    // The decode survives reset (only architectural state clears).
    b.reset();
    assert!(b.decoded().is_some());
    assert_eq!(b.shared().as_slice()[5], 0);
    b.run(RunOptions::default()).unwrap();
    assert_eq!(b.shared().as_slice()[5], 45);
}

#[test]
fn load_decoded_rejects_a_foreign_configuration() {
    let mut a = small_cpu(); // 64 threads
    let p = assemble("  stid r1\n  exit").unwrap();
    a.load_program(&p).unwrap();
    let decoded = a.decoded().cloned().unwrap();

    // A decode bakes in the thread count: a 32-thread processor must
    // refuse it rather than run with 64-thread timing.
    let mut b = Processor::new(ProcessorConfig::small().with_threads(32)).unwrap();
    assert_eq!(b.load_decoded(decoded), Err(LoadError::ConfigMismatch));
}

#[test]
fn reference_interpreter_matches_fast_path_end_to_end() {
    // A kernel touching every execution unit, run through both
    // interpreters on fresh processors: identical stats and memory.
    let src = "  stid r1
           muli r2, r1, 3
           lds r3, [r1+0]
           add r3, r3, r2
           setp.gt p1, r3, r2
           @p1 sts [r1+64], r3
           exit";
    let p = assemble(src).unwrap();
    let mut fast = small_cpu();
    fast.load_program(&p).unwrap();
    let sf = fast.run(RunOptions::default()).unwrap();
    let mut reference = small_cpu();
    reference.load_program(&p).unwrap();
    let sr = reference.run_reference(RunOptions::default()).unwrap();
    assert_eq!(sf, sr);
    assert_eq!(fast.shared().as_slice(), reference.shared().as_slice());
}
