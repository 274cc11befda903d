//! Snapshot / restore: checkpointing reproduces execution exactly.

use simt_core::{Processor, ProcessorConfig, RunOptions};
use simt_isa::assemble;

#[test]
fn snapshot_restores_full_state() {
    let mut cpu = Processor::new(ProcessorConfig::small()).unwrap();
    let p1 = assemble("  stid r1\n  muli r2, r1, 7\n  sts [r1+0], r2\n  exit").unwrap();
    cpu.load_program(&p1).unwrap();
    cpu.run(RunOptions::default()).unwrap();
    let snap = cpu.snapshot();

    // Diverge: run a second kernel that clobbers everything.
    let p2 = assemble("  stid r1\n  movi r2, 0\n  sts [r1+0], r2\n  exit").unwrap();
    cpu.load_program(&p2).unwrap();
    cpu.run(RunOptions::default()).unwrap();
    assert_eq!(cpu.shared().as_slice()[5], 0);

    // Restore and verify the first kernel's world is back.
    cpu.restore(&snap);
    assert_eq!(cpu.shared().as_slice()[5], 35);
    assert_eq!(cpu.regfile().read(5, 2), 35);
    // The restored program is p1: running it again reproduces the state.
    cpu.run(RunOptions::default()).unwrap();
    assert_eq!(cpu.shared().as_slice()[5], 35);
}

#[test]
fn ab_experiment_from_common_checkpoint() {
    // Take one checkpoint, run two different continuations, compare.
    let mut cpu = Processor::new(ProcessorConfig::small()).unwrap();
    let prep = assemble("  stid r1\n  sts [r1+0], r1\n  exit").unwrap();
    cpu.load_program(&prep).unwrap();
    cpu.run(RunOptions::default()).unwrap();
    let snap = cpu.snapshot();

    let double =
        assemble("  stid r1\n  lds r2, [r1+0]\n  shli r2, r2, 1\n  sts [r1+0], r2\n  exit")
            .unwrap();
    cpu.load_program(&double).unwrap();
    cpu.run(RunOptions::default()).unwrap();
    let doubled = cpu.shared().as_slice()[7];

    let mut cpu2 = Processor::new(ProcessorConfig::small()).unwrap();
    cpu2.restore(&snap);
    let triple =
        assemble("  stid r1\n  lds r2, [r1+0]\n  muli r2, r2, 3\n  sts [r1+0], r2\n  exit")
            .unwrap();
    cpu2.load_program(&triple).unwrap();
    cpu2.run(RunOptions::default()).unwrap();
    let tripled = cpu2.shared().as_slice()[7];

    assert_eq!(doubled, 14);
    assert_eq!(tripled, 21);
}

#[test]
fn reset_returns_a_run_processor_to_power_on_state() {
    // Registers, predicates, shared memory and its port statistics all
    // written, then reset in place: the state must equal a fresh
    // processor's with the same program loaded, bit for bit.
    let p = assemble("  stid r1\n  muli r2, r1, 7\n  setp.ne p1, r2, r0\n  sts [r1+0], r2\n  exit")
        .unwrap();
    let mut cpu = Processor::new(ProcessorConfig::small()).unwrap();
    cpu.load_program(&p).unwrap();
    cpu.run(RunOptions::default()).unwrap();
    assert_ne!(cpu.snapshot().preds.iter().max(), Some(&0));
    assert!(cpu.shared().stats().writes > 0);
    cpu.reset();

    let mut fresh = Processor::new(ProcessorConfig::small()).unwrap();
    fresh.load_program(&p).unwrap();
    assert_eq!(cpu.snapshot(), fresh.snapshot());
    assert_eq!(cpu.shared().stats(), fresh.shared().stats());
    assert_eq!(
        cpu.run(RunOptions::default()).unwrap(),
        fresh.run(RunOptions::default()).unwrap()
    );
}

#[test]
fn snapshot_serializes() {
    let mut cpu = Processor::new(ProcessorConfig::small()).unwrap();
    let p = assemble("  stid r1\n  sts [r1+0], r1\n  exit").unwrap();
    cpu.load_program(&p).unwrap();
    cpu.run(RunOptions::default()).unwrap();
    let snap = cpu.snapshot();
    let json = serde_json::to_string(&snap).unwrap();
    let back: simt_core::sm::Snapshot = serde_json::from_str(&json).unwrap();
    assert_eq!(snap, back);
}

#[test]
#[should_panic(expected = "different configuration")]
fn mismatched_config_rejected() {
    let cpu = Processor::new(ProcessorConfig::small()).unwrap();
    let snap = cpu.snapshot();
    let mut other = Processor::new(ProcessorConfig::small().with_threads(16)).unwrap();
    other.restore(&snap);
}
