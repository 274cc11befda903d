//! Integration: the tracing/profiling subsystem end to end — stream
//! and graph-replay traffic through a profiled pool, the Chrome
//! trace-event export validated structurally (parse, track model,
//! per-engine span nesting), event-stream determinism, cross-stream
//! completion-window overlap, and per-PC hotspot attribution of the
//! IR biquad bank.

use simt_compiler::{compile, OptLevel};
use simt_isa::Opcode;
use simt_kernels::pipeline::Pipeline;
use simt_kernels::workload::{int_vector, q15_signal};
use simt_kernels::{iir, KernelSource, LaunchSpec};
use simt_profile::{chrome, summary::summarize, CacheTier, ProfileConfig, TraceEvent};
use simt_runtime::{CommandKind, GraphBuilder, NodeId, Runtime, RuntimeConfig};

/// Build a pipeline as a graph: copy-ins → launch chain → copy-out.
fn pipeline_graph(p: &Pipeline) -> (simt_runtime::ExecGraph, NodeId) {
    let mut b = GraphBuilder::new();
    let copies: Vec<NodeId> = p
        .inputs
        .iter()
        .map(|(dst, words)| b.copy_in(*dst, words.clone(), &[]))
        .collect();
    let mut prev = copies;
    for stage in &p.stages {
        prev = vec![b.launch(stage.clone(), &prev)];
    }
    let out = b.copy_out(p.out_off, p.out_len, &prev);
    (b.finish().unwrap(), out)
}

/// Drive mixed stream traffic (with events) and a graph replay through
/// one profiled runtime; return it with work synchronized.
fn profiled_workload() -> Runtime {
    let rt = Runtime::new(RuntimeConfig::default().with_profile(ProfileConfig::full()));
    let x = int_vector(64, 1);
    let y = int_vector(64, 2);

    // Stream phase: two IR launches (compiler passes, then a compile
    // cache hit), a cross-stream event edge and a copy in each
    // direction. Inputs stay inline in the spec — each stream owns its
    // device buffer — so the copy-in just exercises the DMA path.
    let s0 = rt.stream();
    let s1 = rt.stream();
    let spec = LaunchSpec::saxpy_ir(3, &x, &y);
    s0.copy_in(8192, &[1, 2, 3, 4]);
    s0.launch(spec.clone());
    let e = rt.event();
    s0.record_event(&e);
    s1.wait_event(&e);
    s1.launch(spec.clone());
    let out = s1.copy_out(spec.out_off, spec.out_len);
    rt.synchronize().unwrap();
    assert_eq!(out.wait().unwrap(), spec.expected);

    // Graph phase: the fused three-stage pipeline, replayed once.
    let p = Pipeline::saxpy_scale_sum(3, 2, &x, &y, 0);
    let (graph, out_node) = pipeline_graph(&p);
    let exec = rt.instantiate(graph).unwrap();
    let replay = rt.replay(&exec).unwrap();
    assert_eq!(replay.output(out_node).unwrap(), p.expected.as_slice());
    rt
}

#[test]
fn every_trace_category_is_recorded_and_summarized() {
    let rt = profiled_workload();
    let tracer = rt.tracer().expect("profiled runtime exposes its tracer");
    assert_eq!(tracer.dropped(), 0, "default ring must not wrap");
    let events = tracer.events();
    for cat in ["kernel", "copy", "sync", "graph", "cache", "compiler"] {
        let n = events.iter().filter(|e| e.category() == cat).count();
        assert!(n >= 1, "no `{cat}` events in {} recorded", events.len());
    }
    // Both stream launches retire; the second one hits the compile
    // cache the first one populated.
    let retires = events
        .iter()
        .filter(|e| matches!(e, TraceEvent::Kernel { .. }))
        .count();
    assert!(retires >= 2, "{retires} retires");
    assert!(events.iter().any(|e| matches!(
        e,
        TraceEvent::CacheQuery {
            cache: CacheTier::Compile,
            hit: true,
            ..
        }
    )));
    assert!(events
        .iter()
        .any(|e| matches!(e, TraceEvent::GraphReplayDone { .. })));

    // The flat summary agrees with a hand count.
    let sum = summarize(&events, tracer.dropped());
    assert_eq!(sum.events as usize, events.len());
    assert_eq!(sum.dropped, 0);
}

#[test]
fn chrome_trace_parses_with_per_engine_tracks_and_nested_spans() {
    use serde::Value;

    let rt = profiled_workload();
    let events = rt.tracer().unwrap().events();
    let json = chrome::chrome_trace(&events, rt.tracer().unwrap().dropped());
    let parsed: Value = serde_json::from_str(&json).expect("valid JSON");
    let objs = match &parsed {
        Value::Seq(items) => items,
        other => panic!("trace must be a JSON array, got {}", other.kind()),
    };
    assert!(
        objs.len() > events.len(),
        "metadata plus the rendered events"
    );

    // Every object carries the uniform 8-key shape.
    let field = |v: &Value, k: &str| v.get_field(k).unwrap_or_else(|e| panic!("{e}")).clone();
    let as_u64 = |v: &Value, k: &str| match field(v, k) {
        Value::U64(n) => n,
        other => panic!("{k}: expected integer, got {}", other.kind()),
    };
    let as_str = |v: &Value, k: &str| match field(v, k) {
        Value::Str(s) => s,
        other => panic!("{k}: expected string, got {}", other.kind()),
    };
    for o in objs {
        for key in ["name", "cat", "ph", "ts", "dur", "pid", "tid", "args"] {
            field(o, key);
        }
    }

    // Track model: host + both devices + streams processes, and the
    // per-engine threads inside each device process.
    let mut processes = Vec::new();
    let mut threads = Vec::new();
    let mut trace_meta = None;
    for o in objs {
        if as_str(o, "ph") != "M" {
            continue;
        }
        match as_str(o, "name").as_str() {
            "process_name" => processes.push((as_u64(o, "pid"), as_str(&field(o, "args"), "name"))),
            "thread_name" => threads.push((
                as_u64(o, "pid"),
                as_u64(o, "tid"),
                as_str(&field(o, "args"), "name"),
            )),
            "trace_metadata" => trace_meta = Some(field(o, "args")),
            other => panic!("unexpected metadata {other}"),
        }
    }
    // The export says how complete it is: a default-capacity run drops
    // nothing, and the event count matches the recorded stream.
    let trace_meta = trace_meta.expect("trace_metadata record");
    assert_eq!(as_u64(&trace_meta, "dropped_events"), 0);
    assert_eq!(as_u64(&trace_meta, "events") as usize, events.len());
    for want in ["host", "device0", "device1", "streams"] {
        assert!(
            processes.iter().any(|(_, n)| n == want),
            "missing process {want} in {processes:?}"
        );
    }
    let device_pids: Vec<u64> = processes
        .iter()
        .filter(|(_, n)| n.starts_with("device"))
        .map(|(pid, _)| *pid)
        .collect();
    for pid in &device_pids {
        assert!(
            threads
                .iter()
                .any(|(p, t, n)| p == pid && *t == chrome::TID_COMPUTE && n == "compute"),
            "device pid {pid} has no compute track: {threads:?}"
        );
    }
    for engine in ["dma", "sync"] {
        assert!(
            threads
                .iter()
                .any(|(p, _, n)| device_pids.contains(p) && n == engine),
            "no {engine} track on any device: {threads:?}"
        );
    }

    // Span nesting: on every modeled track (device engines and stream
    // rows — everything except the untimed host process), complete
    // events never overlap: each engine is one serial timeline.
    let mut spans: std::collections::BTreeMap<(u64, u64), Vec<(u64, u64)>> = Default::default();
    for o in objs {
        if as_str(o, "ph") != "X" {
            continue;
        }
        let pid = as_u64(o, "pid");
        if pid == chrome::HOST_PID {
            continue;
        }
        spans
            .entry((pid, as_u64(o, "tid")))
            .or_default()
            .push((as_u64(o, "ts"), as_u64(o, "dur")));
    }
    assert!(!spans.is_empty(), "no complete events on modeled tracks");
    for ((pid, tid), mut track) in spans {
        track.sort();
        for w in track.windows(2) {
            let ((a_ts, a_dur), (b_ts, _)) = (w[0], w[1]);
            assert!(
                a_ts + a_dur <= b_ts,
                "overlapping spans on pid {pid} tid {tid}: \
                 [{a_ts}, {}) then start {b_ts}",
                a_ts + a_dur
            );
        }
    }
}

#[test]
fn event_streams_are_deterministic_across_identical_runs() {
    // One device, enqueues under pause, and a synchronize after every
    // phase: the ring's append order (including the queue-depth gauge
    // samples taken at enqueue time) is then a pure function of the
    // submitted work, so two identically-driven runtimes record
    // identical event streams.
    let run = || {
        let cfg = RuntimeConfig {
            devices: 1,
            ..Default::default()
        }
        .with_profile(ProfileConfig::full());
        let rt = Runtime::new(cfg);
        let x = int_vector(64, 1);
        let y = int_vector(64, 2);
        let (spec, inputs) = LaunchSpec::saxpy_ir(3, &x, &y).detach_inputs();
        let s = rt.stream();
        rt.pause();
        for (dst, words) in &inputs {
            s.copy_in(*dst, words);
        }
        rt.resume();
        rt.synchronize().unwrap();
        s.launch(spec.clone());
        rt.synchronize().unwrap();
        s.launch(spec.clone());
        rt.synchronize().unwrap();
        let out = s.copy_out(spec.out_off, spec.out_len);
        assert_eq!(out.wait().unwrap(), spec.expected);
        rt.synchronize().unwrap();
        rt.tracer().unwrap().events()
    };
    let first = run();
    let second = run();
    assert!(!first.is_empty());
    assert_eq!(first, second, "same work, same seed ⇒ same events");
}

#[test]
fn completion_windows_overlap_across_streams() {
    // Two independent streams on a two-device pool: their launch
    // windows run concurrently on the virtual timeline, observable via
    // the new CompletionRecord start/end fields.
    let rt = Runtime::new(RuntimeConfig::default());
    let x = int_vector(256, 1);
    let y = int_vector(256, 2);
    let s0 = rt.stream();
    let s1 = rt.stream();
    for _ in 0..4 {
        s0.launch(LaunchSpec::saxpy(3, &x, &y));
        s1.launch(LaunchSpec::sat_add(&x, &y));
    }
    rt.synchronize().unwrap();
    let stats = rt.stats();
    let launches: Vec<_> = stats
        .completions
        .iter()
        .filter(|c| c.kind == CommandKind::Launch)
        .collect();
    assert_eq!(launches.len(), 8);
    for c in &launches {
        assert!(c.start < c.end, "launches occupy engine time: {c:?}");
    }
    assert!(
        launches.iter().any(|a| launches
            .iter()
            .any(|b| a.stream != b.stream && a.overlaps(b))),
        "no cross-stream overlap in {launches:?}"
    );
}

#[test]
fn iir_ir_per_pc_profile_attributes_cycles_to_the_loop_body() {
    let (n, m) = (16, 8);
    let spec = LaunchSpec::iir_ir(&q15_signal(n * m, 7), n, m, iir::Biquad::lowpass());
    let rt = Runtime::new(RuntimeConfig::default().with_profile(ProfileConfig::full()));
    let s = rt.stream();
    let h = s.launch(spec.clone());
    h.wait().unwrap();
    rt.synchronize().unwrap();

    let profiles = rt.pc_profiles();
    let prof = profiles
        .get(&spec.name)
        .unwrap_or_else(|| panic!("no profile for {} in {:?}", spec.name, profiles.keys()));

    // ≥ 90% of the run's cycles are attributed to named PCs (the rest
    // is the initial pipeline fill).
    assert!(
        prof.attribution_fraction() >= 0.90,
        "attribution {:.3}",
        prof.attribution_fraction()
    );

    // The compiled program tells us where the loop body is: the hot PCs
    // must be inside it, and it must dominate the cycle count.
    let kernel = match &spec.source {
        KernelSource::Ir(k) => k,
        other => panic!("iir_ir must be IR, got {other:?}"),
    };
    let compiled = compile(kernel, &spec.config, OptLevel::Full).unwrap();
    let prog = compiled.program.instructions();
    assert_eq!(compiled.source_map.len(), prog.len());
    let bodies: Vec<(usize, usize)> = prog
        .iter()
        .enumerate()
        .filter(|(_, i)| i.opcode == Opcode::Loop)
        .map(|(pc, i)| (pc + 1, i.loop_end()))
        .collect();
    assert!(!bodies.is_empty(), "iir_ir must compile to a hardware loop");
    let in_body = |pc: usize| bodies.iter().any(|&(a, b)| pc >= a && pc <= b);

    let hottest = prof.hottest(5);
    assert!(!hottest.is_empty());
    for (pc, c) in &hottest {
        assert!(
            in_body(*pc),
            "hot pc {pc} ({} cycles) outside loop bodies {bodies:?}\n{}",
            c.cycles,
            simt_isa::disasm::format_instruction(&prog[*pc])
        );
        // The source map names the IR value behind every hot PC.
        assert!(
            compiled.source_map[*pc].is_some(),
            "hot pc {pc} has no IR attribution"
        );
    }
    let body_cycles: u64 = prof
        .counters
        .iter()
        .enumerate()
        .filter(|(pc, _)| in_body(*pc))
        .map(|(_, c)| c.cycles)
        .sum();
    assert!(
        body_cycles as f64 >= 0.90 * prof.attributed_cycles() as f64,
        "loop body carries {body_cycles} of {} attributed cycles",
        prof.attributed_cycles()
    );

    // Profiling off ⇒ no per-PC sink at all, and the always-on ring
    // stays in its compact tier.
    let plain = Runtime::new(RuntimeConfig::default());
    plain
        .stream()
        .launch(LaunchSpec::saxpy(3, &int_vector(64, 1), &int_vector(64, 2)));
    plain.synchronize().unwrap();
    assert!(plain.pc_profiles().is_empty());
    assert!(!plain.tracer().expect("the ring is always on").detail());
}
