//! Fault-tolerant runtime integration tests: deterministic injection,
//! bit-exact recovery against a fault-free oracle, watchdog timeouts
//! with CUDA-style sticky stream errors, and the sticky-device →
//! quarantine → readmission lifecycle.

use simt_kernels::workload::int_vector;
use simt_kernels::LaunchSpec;
use simt_metrics::names;
use simt_runtime::{
    ChaosConfig, DeviceHealth, GraphBuilder, RecoveryConfig, Runtime, RuntimeConfig, RuntimeError,
    Stream, TraceEvent,
};

/// Submit `n` saxpy jobs (copy-in inputs, launch, copy-out result) on
/// one stream and return the copy-out handles' payloads after a full
/// synchronize. One stream keeps every placement decision a pure
/// function of the virtual timeline, so fault runs are comparable
/// word-for-word against fault-free runs.
fn run_saxpy_jobs(rt: &Runtime, s: &Stream, n: usize) -> Result<Vec<Vec<u32>>, RuntimeError> {
    let mut outs = Vec::new();
    for i in 0..n {
        let x = int_vector(128, i as u64 + 1);
        let y = int_vector(128, 2 * i as u64 + 1);
        let (spec, inputs) = LaunchSpec::saxpy(3, &x, &y).detach_inputs();
        for (off, words) in &inputs {
            s.copy_in(*off, words);
        }
        let (off, len) = (spec.out_off, spec.out_len);
        s.launch(spec);
        outs.push(s.copy_out(off, len));
    }
    rt.synchronize()?;
    outs.into_iter().map(|h| h.wait()).collect()
}

fn counter(rt: &Runtime, name: &str) -> u64 {
    let snap = rt.metrics_snapshot().expect("metrics are on by default");
    snap.counters
        .iter()
        .filter(|c| c.name == name)
        .map(|c| c.value)
        .sum()
}

#[test]
fn transient_faults_recover_bit_exact_against_the_fault_free_oracle() {
    let jobs = 24;
    // Oracle: the identical workload with no chaos installed.
    let oracle_rt = Runtime::new(RuntimeConfig::default());
    let oracle_stream = oracle_rt.stream();
    let oracle = run_saxpy_jobs(&oracle_rt, &oracle_stream, jobs).expect("fault-free run");

    // Transient-only plan: every family except the sticky device, with
    // enough attempts that terminal failure is (deterministically, for
    // this seed) never reached.
    let chaos = ChaosConfig::new(0xC0FFEE)
        .with_transient_launch_rate(0.3)
        .with_hung_kernel_rate(0.1)
        .with_copy_fault_rate(0.2);
    let cfg = RuntimeConfig::default()
        .with_chaos(chaos)
        .with_recovery(RecoveryConfig {
            max_attempts: 12,
            quarantine_after: u64::MAX,
            ..RecoveryConfig::default()
        });
    let rt = Runtime::new(cfg);
    let s = rt.stream();
    let recovered = run_saxpy_jobs(&rt, &s, jobs).expect("chaos run must fully recover");

    assert_eq!(
        recovered, oracle,
        "recovered outputs must be bit-exact vs the fault-free oracle"
    );
    assert!(
        counter(&rt, names::FAULTS_INJECTED) > 0,
        "the plan injected nothing — the test is vacuous"
    );
    assert!(counter(&rt, names::RETRIES) > 0);
    assert!(counter(&rt, names::RECOVERED) > 0);
    assert_eq!(
        counter(&rt, names::TERMINAL_FAILURES),
        0,
        "a transient-only plan with this retry budget must absorb everything"
    );
    // No device ever crossed the (disabled) fault budget.
    assert!(rt
        .device_health()
        .iter()
        .all(|h| *h != DeviceHealth::Quarantined));
}

#[test]
fn fixed_seed_chaos_runs_are_byte_deterministic() {
    let run = || {
        let chaos = ChaosConfig::new(99)
            .with_transient_launch_rate(0.3)
            .with_hung_kernel_rate(0.1)
            .with_copy_fault_rate(0.2);
        let cfg = RuntimeConfig::default()
            .with_chaos(chaos)
            .with_recovery(RecoveryConfig {
                max_attempts: 12,
                quarantine_after: u64::MAX,
                ..RecoveryConfig::default()
            });
        let rt = Runtime::new(cfg);
        let s = rt.stream();
        let outs = run_saxpy_jobs(&rt, &s, 16).expect("recovers");
        let counters = [
            counter(&rt, names::FAULTS_INJECTED),
            counter(&rt, names::RETRIES),
            counter(&rt, names::FAILOVERS),
            counter(&rt, names::RECOVERED),
            counter(&rt, names::TIMEOUTS),
        ];
        let makespan = rt.stats().makespan_cycles;
        (outs, counters, makespan)
    };
    let a = run();
    let b = run();
    assert_eq!(a.0, b.0, "final memory must match word-for-word");
    assert_eq!(a.1, b.1, "fault counters must match exactly");
    assert_eq!(a.2, b.2, "the virtual timeline must replay identically");
}

#[test]
fn watchdog_timeouts_exhaust_retries_and_poison_the_stream() {
    // Every launch attempt hangs; two attempts then terminal failure.
    let cfg = RuntimeConfig::default()
        .with_chaos(ChaosConfig::new(1).with_hung_kernel_rate(1.0))
        .with_recovery(RecoveryConfig {
            max_attempts: 2,
            watchdog_cycle_budget: 5_000,
            ..RecoveryConfig::default()
        });
    let rt = Runtime::new(cfg);
    let s = rt.stream();
    let h = s.launch(LaunchSpec::sum(&int_vector(64, 1)));
    let after = s.copy_out(0, 4);
    // The failing command carries the typed root cause...
    match h.wait() {
        Err(RuntimeError::Timeout { budget_cycles, .. }) => assert_eq!(budget_cycles, 5_000),
        other => panic!("expected a watchdog timeout, got {other:?}"),
    }
    // ...and everything after it sees the sticky marker.
    assert!(matches!(
        after.wait(),
        Err(RuntimeError::StreamPoisoned { stream: 0 })
    ));
    assert!(rt.synchronize().is_err());
    assert_eq!(counter(&rt, names::TIMEOUTS), 2);
    assert_eq!(counter(&rt, names::TERMINAL_FAILURES), 1);
    // Stream::reset clears the poison: copies (unaffected by the
    // hung-kernel plan) flow again.
    s.reset();
    s.copy_in(0, &[7, 8, 9]);
    let out = s.copy_out(0, 3);
    assert_eq!(out.wait().unwrap(), vec![7, 8, 9]);
}

#[test]
fn real_watchdog_overruns_retry_as_hung_kernels() {
    // No chaos at all: a genuinely over-budget kernel trips the real
    // watchdog, which is retryable — and deterministically hopeless, so
    // it exhausts its attempts and fails as a timeout.
    let cfg = RuntimeConfig::default().with_recovery(RecoveryConfig {
        watchdog_cycle_budget: 10,
        max_attempts: 3,
        ..RecoveryConfig::default()
    });
    let rt = Runtime::new(cfg);
    let s = rt.stream();
    let h = s.launch(LaunchSpec::sum(&int_vector(256, 1)));
    assert!(matches!(h.wait(), Err(RuntimeError::Timeout { .. })));
    assert_eq!(counter(&rt, names::TIMEOUTS), 3);
    assert_eq!(counter(&rt, names::RETRIES), 2);
}

#[test]
fn sticky_device_failure_quarantines_within_the_fault_budget() {
    let quarantine_after = 5;
    let cfg = RuntimeConfig::default()
        .with_chaos(ChaosConfig::new(7).with_sticky_device(1, 0))
        .with_recovery(RecoveryConfig {
            max_attempts: 6,
            degrade_after: 2,
            quarantine_after,
            ..RecoveryConfig::default()
        });
    let rt = Runtime::new(cfg);
    let s = rt.stream();
    let oracle_rt = Runtime::new(RuntimeConfig::default());
    let oracle_stream = oracle_rt.stream();
    let oracle = run_saxpy_jobs(&oracle_rt, &oracle_stream, 40).expect("oracle");
    let outs = run_saxpy_jobs(&rt, &s, 40).expect("every fault fails over and recovers");
    assert_eq!(outs, oracle, "failover must not corrupt results");

    // The device crossed its budget with exactly `quarantine_after`
    // faults — once quarantined it receives no dispatches, so the
    // sticky fault stops firing.
    assert_eq!(
        rt.device_health(),
        vec![DeviceHealth::Healthy, DeviceHealth::Quarantined]
    );
    let snap = rt.metrics_snapshot().unwrap();
    let faults_dev1 = snap
        .counter(names::DEVICE_FAULTS, "device1")
        .map(|c| c.value)
        .unwrap_or(0);
    assert_eq!(faults_dev1, quarantine_after);
    assert_eq!(counter(&rt, names::QUARANTINES), 1);

    // The health walk names the quarantined device.
    let health = rt.health().expect("metrics are on");
    assert!(
        health
            .findings
            .iter()
            .any(|f| f.label() == "device_quarantined(device1)"),
        "expected a DeviceQuarantined finding, got {:?}",
        health.findings
    );

    // The quarantine assembled an automatic postmortem bundle.
    let reports = rt.quarantine_postmortems();
    assert_eq!(reports.len(), 1);
    assert_eq!(reports[0].reason, "device-quarantined");
    assert!(reports[0]
        .flight
        .events
        .iter()
        .any(|r| matches!(r.event, TraceEvent::Quarantine { device: 1, .. })));

    // All placement now avoids the quarantined device: stream commands...
    let s2 = rt.stream();
    let before = rt.stats().completions.len();
    run_saxpy_jobs(&rt, &s2, 8).expect("post-quarantine work");
    let stats = rt.stats();
    assert!(
        stats.completions[before..].iter().all(|c| c.device == 0),
        "stream placement must skip the quarantined device"
    );

    // ...and graph replay.
    let mut g = GraphBuilder::new();
    let spec = LaunchSpec::sum(&int_vector(64, 3));
    let expected = spec.expected.clone();
    let (off, len) = (spec.out_off, spec.out_len);
    let l = g.launch(spec, &[]);
    let o = g.copy_out(off, len, &[l]);
    let exec = rt.instantiate(g.finish().unwrap()).unwrap();
    let replay = rt.replay(&exec).unwrap();
    assert!(replay.placements.iter().all(|p| p.device == 0));
    assert_eq!(replay.output(o).unwrap(), &expected[..]);

    // Readmission: health clears, the sticky fault retires with the
    // reset (a replaced part), and the device takes placements again.
    rt.reset_device(1);
    assert_eq!(
        rt.device_health(),
        vec![DeviceHealth::Healthy, DeviceHealth::Healthy]
    );
    let s3 = rt.stream();
    let before = rt.stats().completions.len();
    run_saxpy_jobs(&rt, &s3, 8).expect("post-reset work");
    let stats = rt.stats();
    assert!(
        stats.completions[before..].iter().any(|c| c.device == 1),
        "a readmitted device must take placements again"
    );
    let snap = rt.metrics_snapshot().unwrap();
    assert_eq!(
        snap.counter(names::DEVICE_FAULTS, "device1")
            .map(|c| c.value),
        Some(0),
        "the reset cleared the fault counter and nothing re-faulted"
    );
    assert!(rt
        .tracer()
        .unwrap()
        .dump()
        .events
        .iter()
        .any(|r| matches!(r.event, TraceEvent::DeviceReset { device: 1 })));
}

#[test]
fn quarantine_counters_and_memory_are_reproducible() {
    let run = || {
        let cfg = RuntimeConfig::default()
            .with_chaos(ChaosConfig::new(7).with_sticky_device(1, 0))
            .with_recovery(RecoveryConfig {
                max_attempts: 6,
                ..RecoveryConfig::default()
            });
        let rt = Runtime::new(cfg);
        let s = rt.stream();
        let outs = run_saxpy_jobs(&rt, &s, 40).expect("recovers");
        (
            outs,
            counter(&rt, names::FAULTS_INJECTED),
            counter(&rt, names::FAILOVERS),
            rt.device_health(),
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn fault_free_pools_pay_nothing_into_the_fault_counters() {
    let rt = Runtime::new(RuntimeConfig::default());
    let s = rt.stream();
    run_saxpy_jobs(&rt, &s, 4).expect("clean run");
    for name in [
        names::FAULTS_INJECTED,
        names::RETRIES,
        names::FAILOVERS,
        names::RECOVERED,
        names::TERMINAL_FAILURES,
        names::TIMEOUTS,
        names::QUARANTINES,
    ] {
        assert_eq!(counter(&rt, name), 0, "{name} moved on a fault-free run");
    }
    assert!(rt.quarantine_postmortems().is_empty());
}
