//! Forensics integration: event-ring determinism, postmortem bundles,
//! agreement between the ring's views, the drop counter's meaning,
//! configurable health thresholds, and cache counters in the always-on
//! metrics snapshot.

use proptest::prelude::*;
use serde::Value;
use simt_kernels::workload::int_vector;
use simt_kernels::LaunchSpec;
use simt_metrics::names;
use simt_profile::{chrome, summary::summarize};
use simt_runtime::{
    CommandKind, GraphBuilder, HealthConfig, HealthFinding, HealthMonitor, ProfileConfig, Runtime,
    RuntimeConfig, TraceEvent,
};

/// One deterministic run: a single device and a backlog built under
/// pause, so the drain order — and with it the flight window — is a
/// pure function of the submitted work. Returns the serialized flight
/// dump and postmortem bundle.
fn forensic_run(launches: usize, scale: i32) -> (String, String) {
    let cfg = RuntimeConfig {
        devices: 1,
        ..Default::default()
    }
    .with_profile(ProfileConfig::full());
    let rt = Runtime::new(cfg);
    let x = int_vector(64, 1);
    let y = int_vector(64, 2);
    let s = rt.stream();
    rt.pause();
    for _ in 0..launches {
        s.launch(LaunchSpec::saxpy_ir(scale, &x, &y));
    }
    rt.resume();
    rt.synchronize().unwrap();
    let ring = rt.tracer().expect("the event ring is on by default");
    let dump = serde_json::to_string(&ring.dump()).unwrap();
    let report = rt
        .postmortem("proptest")
        .expect("metrics are on by default");
    (dump, serde_json::to_string(&report).unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Same program, same seed ⇒ byte-identical flight dumps and
    /// postmortem bundles (everything in them is modeled cycles and
    /// sequence numbers; no wall-clock leaks in).
    #[test]
    fn flight_and_postmortem_are_byte_deterministic(
        launches in 1usize..4,
        scale in -3i32..4,
    ) {
        let (f1, p1) = forensic_run(launches, scale);
        let (f2, p2) = forensic_run(launches, scale);
        prop_assert_eq!(f1, f2);
        prop_assert_eq!(p1, p2);
    }
}

#[test]
fn injected_stall_postmortem_names_the_device_and_its_hottest_pc() {
    // A single serialized stream never overlaps commands, so placement
    // ties always break toward device0 and device1 idles through the
    // whole makespan: an injected stall. The paused backlog drives the
    // outstanding watermark past stall_min_parallelism so the watchdog
    // is allowed to call it one.
    let cfg = RuntimeConfig::default() // 2 devices
        .with_profile(ProfileConfig::full())
        .with_health(HealthConfig {
            stall_idle_fraction: 0.4,
            stall_min_parallelism: 2,
            starvation_factor: 8,
            ..Default::default()
        });
    let rt = Runtime::new(cfg);
    let x = int_vector(256, 1);
    let y = int_vector(256, 2);
    let s = rt.stream();
    rt.pause();
    for _ in 0..6 {
        s.launch(LaunchSpec::saxpy_ir(3, &x, &y));
    }
    rt.resume();
    rt.synchronize().unwrap();

    let report = rt
        .postmortem("injected device stall")
        .expect("metrics are on by default");
    assert!(!report.health.healthy);
    let stalled = report
        .health
        .findings
        .iter()
        .find_map(|f| match f {
            HealthFinding::DeviceStall { device, .. } => Some(device.clone()),
            _ => None,
        })
        .expect("a DeviceStall finding");
    assert_eq!(stalled, "device1");

    // The finding also lands in the flight window, ordered against the
    // scheduler activity that led up to it.
    let ev = &report.flight.events;
    assert!(ev.iter().any(|r| matches!(
        &r.event,
        TraceEvent::Health { finding } if finding == "device_stall(device1)"
    )));
    // ... which contains the full scheduler story of the run.
    assert!(ev.iter().any(|r| matches!(r.event, TraceEvent::Pause)));
    assert!(ev.iter().any(|r| matches!(r.event, TraceEvent::Resume)));
    assert!(ev
        .iter()
        .any(|r| matches!(r.event, TraceEvent::Enqueue { .. })));
    assert!(ev
        .iter()
        .any(|r| matches!(r.event, TraceEvent::Batch { .. })));
    assert!(ev
        .iter()
        .any(|r| matches!(r.event, TraceEvent::Kernel { .. })));
    assert!(ev
        .iter()
        .any(|r| matches!(r.event, TraceEvent::Publish { .. })));
    assert!(ev
        .iter()
        .any(|r| matches!(r.event, TraceEvent::CacheQuery { .. })));
    assert!(!report.timelines.is_empty());

    // Per-PC hotspots (per_pc profiling was on) name the kernel's
    // hottest instruction, with disassembly and IR attribution.
    let hot = report.hotspots.first().expect("profiled kernel hotspots");
    assert!(hot.total_cycles > 0);
    let pc = hot.pcs.first().expect("a hottest PC");
    assert!(pc.cycles > 0 && pc.issues > 0);
    assert!(!pc.asm.is_empty());
    assert!(
        hot.pcs.iter().any(|p| p.ir_value.is_some()),
        "IR-built kernel should have source-map attribution"
    );
    let text = report.render_text();
    assert!(text.contains("device_stall(device1)") || text.contains("DeviceStall"));

    // The thresholds are live configuration, not cosmetics: the same
    // snapshot under a permissive monitor reads healthy.
    let permissive = HealthMonitor::new(HealthConfig {
        stall_min_parallelism: u64::MAX,
        ..Default::default()
    });
    assert!(permissive.check(&report.metrics).healthy);
}

#[test]
fn flight_capacity_zero_disables_the_recorder_but_not_postmortems() {
    let rt = Runtime::new(RuntimeConfig::default().with_flight_capacity(0));
    assert!(rt.tracer().is_none());
    let s = rt.stream();
    s.launch(LaunchSpec::sum(&int_vector(64, 1)));
    rt.synchronize().unwrap();
    let report = rt.postmortem("caller request").expect("metrics are on");
    assert_eq!(report.reason, "caller request");
    assert_eq!(report.flight.capacity, 0);
    assert!(report.flight.events.is_empty());
    assert!(report.timelines.is_empty());
    // No profiling either: the bundle degrades to health + metrics.
    assert!(report.hotspots.is_empty());
    assert!(report.metrics.gauge(names::MAKESPAN_CYCLES, "").is_some());
}

#[test]
fn failed_commands_land_in_the_flight_window() {
    let rt = Runtime::new(RuntimeConfig::default());
    let s = rt.stream();
    let mut bad = LaunchSpec::sum(&int_vector(16, 1));
    bad.source = simt_kernels::KernelSource::Asm("  frob r1\n  exit".into());
    let h = s.launch(bad);
    assert!(h.wait().is_err());
    let dump = rt.tracer().expect("the event ring is on by default").dump();
    assert!(dump.events.iter().any(|r| matches!(
        &r.event,
        TraceEvent::Failed { kind: CommandKind::Launch, error, .. } if error.contains("assembly")
    )));
}

#[test]
fn postmortem_launches_match_chrome_compute_spans() {
    // Both views read the one ring: every launch the postmortem's
    // flight window shows must be a compute span of the Chrome trace
    // rendered from the same ring, on the same device and cycles.
    let rt = Runtime::new(RuntimeConfig::default().with_profile(ProfileConfig::default()));
    let x = int_vector(128, 1);
    let y = int_vector(128, 2);
    let (s0, s1) = (rt.stream(), rt.stream());
    for _ in 0..3 {
        s0.launch(LaunchSpec::saxpy(3, &x, &y));
        s1.launch(LaunchSpec::sat_add(&x, &y));
    }
    let mut g = GraphBuilder::new();
    let l = g.launch(LaunchSpec::sum(&x), &[]);
    g.copy_out(0, 4, &[l]);
    let exec = rt.instantiate(g.finish().unwrap()).unwrap();
    rt.synchronize().unwrap();
    rt.replay(&exec).unwrap();

    let report = rt.postmortem("views").expect("metrics are on");
    let launches: Vec<(u64, u64, u64)> = report
        .flight
        .events
        .iter()
        .filter_map(|r| match r.event {
            TraceEvent::Kernel {
                device, start, end, ..
            }
            | TraceEvent::GraphNodePlace {
                kind: CommandKind::Launch,
                device,
                start,
                end,
                ..
            } => Some((device as u64, start, end)),
            _ => None,
        })
        .collect();
    assert_eq!(
        launches.len(),
        7,
        "six stream launches and one graph launch"
    );

    let ring = rt.tracer().unwrap();
    let trace: Value =
        serde_json::from_str(&chrome::chrome_trace(&ring.events(), ring.dropped())).unwrap();
    let Value::Seq(objs) = trace else {
        panic!("trace is a JSON array")
    };
    let num = |o: &Value, k: &str| match o.get_field(k).unwrap() {
        Value::U64(n) => *n,
        other => panic!("{k}: expected integer, got {}", other.kind()),
    };
    let compute: Vec<(u64, u64, u64)> = objs
        .iter()
        .filter(|o| o.get_field("ph").unwrap() == &Value::Str("X".into()))
        .filter(|o| (chrome::DEVICE_PID0..chrome::STREAMS_PID).contains(&num(o, "pid")))
        .filter(|o| num(o, "tid") == chrome::TID_COMPUTE)
        .map(|o| {
            let ts = num(o, "ts");
            (num(o, "pid") - chrome::DEVICE_PID0, ts, ts + num(o, "dur"))
        })
        .collect();
    for l in &launches {
        assert!(compute.contains(l), "launch {l:?} has no compute span");
    }
}

/// `launches` kernels on a one-device pool whose ring holds 8 events.
fn small_ring_run(profile: bool, launches: u64) -> Runtime {
    let mut cfg = RuntimeConfig::with_devices(1).with_flight_capacity(8);
    if profile {
        cfg = cfg.with_profile(ProfileConfig::default());
    }
    let rt = Runtime::new(cfg);
    let s = rt.stream();
    for i in 0..launches {
        s.launch(LaunchSpec::sum(&int_vector(64, i)));
    }
    rt.synchronize().unwrap();
    rt
}

#[test]
fn drop_counter_counts_overwrites_only_in_the_detail_tier() {
    // Profiled: every overwritten event is a loss the trace must admit,
    // and the metric, the health finding and both views agree on it.
    let rt = small_ring_run(true, 24);
    let ring = rt.tracer().unwrap();
    let dropped = ring.recorded() - 8;
    assert!(dropped > 0);
    let snap = rt.metrics_snapshot().unwrap();
    assert_eq!(
        snap.counter(names::TRACER_DROPPED, "").map(|c| c.value),
        Some(dropped)
    );
    let health = rt.health().unwrap();
    assert!(
        health
            .findings
            .contains(&HealthFinding::TracerDrops { dropped }),
        "{:?}",
        health.findings
    );
    assert_eq!(summarize(&ring.events(), ring.dropped()).dropped, dropped);
    assert!(chrome::chrome_trace(&ring.events(), ring.dropped())
        .contains(&format!("\"dropped_events\":{dropped}")));

    // Unprofiled: overwriting is how the always-on ring works, not a
    // loss — the counter stays 0 and the pool reads healthy.
    let rt = small_ring_run(false, 24);
    assert!(rt.tracer().unwrap().recorded() > 8);
    let snap = rt.metrics_snapshot().unwrap();
    assert_eq!(
        snap.counter(names::TRACER_DROPPED, "").map(|c| c.value),
        Some(0)
    );
    let health = rt.health().unwrap();
    assert!(health.healthy, "{:?}", health.findings);
}

#[test]
fn cache_counters_surface_in_snapshot_and_prometheus() {
    let rt = Runtime::new(RuntimeConfig::default());
    let s = rt.stream();
    let x = int_vector(64, 1);
    let y = int_vector(64, 2);
    s.launch(LaunchSpec::saxpy_ir(3, &x, &y));
    s.launch(LaunchSpec::saxpy_ir(3, &x, &y));
    rt.synchronize().unwrap();
    let snap = rt.metrics_snapshot().expect("metrics are on by default");
    let counter = |name: &str| snap.counter(name, "").map(|c| c.value);
    assert!(counter(names::COMPILE_CACHE_MISSES).unwrap_or(0) >= 1);
    assert!(counter(names::COMPILE_CACHE_HITS).unwrap_or(0) >= 1);
    assert_eq!(counter(names::COMPILE_CACHE_EVICTIONS), Some(0));
    assert!(counter(names::DECODE_CACHE_HITS).unwrap_or(0) >= 1);
    assert!(counter(names::DECODE_CACHE_MISSES).unwrap_or(0) >= 1);
    let prom = simt_metrics::prometheus::render(&snap);
    for name in [
        names::COMPILE_CACHE_HITS,
        names::COMPILE_CACHE_MISSES,
        names::COMPILE_CACHE_EVICTIONS,
        names::DECODE_CACHE_HITS,
        names::DECODE_CACHE_MISSES,
    ] {
        assert!(prom.contains(name), "{name} missing from METRICS.prom text");
    }
}
