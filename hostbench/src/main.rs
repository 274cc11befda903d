//! Host wall-clock benchmark of the SIMT simulator stack.
//!
//! ```text
//! hostbench --workload <small_launch|kernel_heavy|compile_churn|graph_replay>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Builds the workload's inputs from the seed, drives the workspace crates
//! through their public APIs, checks every output against the host oracle
//! (`LaunchSpec::expected`, `Pipeline::expected`) and prints one JSON
//! object as the last line of standard output: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. The exit
//! code is 0 only when every operation succeeded with the right output
//! and the exact metrics repeated on a fresh runtime. See `README.md` for
//! what each metric means.

mod alloc;
mod drive;
mod layers;
mod stats;
mod workloads;

use drive::{Arm, ArmRec, Exact, GraphArm, Snap, StreamArm};
use stats::{iqr, median};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::sync::OnceLock;
use std::time::{Duration, Instant};
use workloads::{Pool, Workload};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 11;
/// An operation unresolved for this long is a failure (a hung waiter).
const OP_TIMEOUT: Duration = Duration::from_secs(10);
/// Whole-run limit, below the 180 s a run may take.
const DEADLINE: Duration = Duration::from_secs(170);
/// Latency samples kept per arm before reservoir sampling starts.
const LAT_CAP: usize = 1 << 20;
/// Length of the single-thread replay phase of a traced `graph_replay` run.
const SINGLE_THREAD_PHASE: Duration = Duration::from_millis(1500);

/// The end-to-end metrics (`--trace 0`), with units.
const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_latency_p50_us", "us"),
    ("op_latency_p90_us", "us"),
    ("sim_mthread_ops_per_s", "Mop/s"),
    ("modeled_cycles", "cycles"),
    ("ok_frac", "frac"),
    ("peak_rss_mib", "MiB"),
];

/// The per-layer metrics (`--trace 1`), with units.
const PER_LAYER: [(&str, &str); 43] = [
    ("runtime.enqueue_us", "us"),
    ("runtime.wait_us", "us"),
    ("runtime.device_busy_us_per_launch", "us"),
    ("runtime.residual_us", "us"),
    ("runtime.device_share", "frac"),
    ("runtime.cmds_per_wakeup", "count"),
    ("runtime.processor_reuse_ratio", "frac"),
    ("runtime.copy_words_per_launch", "words"),
    ("runtime.latency_p99_us", "us"),
    ("runtime.latency_samples", "count"),
    ("runtime.makespan_cycles", "cycles"),
    ("runtime.makespan_rerun_delta", "frac"),
    ("compiler.lookup_hit_us", "us"),
    ("compiler.compile_us", "us"),
    ("compiler.hits", "count"),
    ("compiler.misses", "count"),
    ("compiler.evictions", "count"),
    ("compiler.hit_ratio", "frac"),
    ("isa.assemble_us", "us"),
    ("core.decode_us", "us"),
    ("core.reset_us", "us"),
    ("core.stage_us", "us"),
    ("core.run_us", "us"),
    ("core.readback_us", "us"),
    ("core.mthread_ops_per_s", "Mop/s"),
    ("core.instructions", "count"),
    ("core.thread_ops", "count"),
    ("core.ipc", "ratio"),
    ("graph.fuse_us", "us"),
    ("graph.instantiate_us", "us"),
    ("graph.replay_us", "us"),
    ("graph.concurrency_gain", "ratio"),
    ("graph.launches_fused", "count"),
    ("graph.span_cycles", "cycles"),
    ("observers.cost_us_per_op", "us"),
    ("observers.on_spread_us", "us"),
    ("observers.off_spread_us", "us"),
    ("host.allocs_per_op", "count"),
    ("host.alloc_bytes_per_op", "B"),
    ("host.allocs_exact", "bool"),
    ("host.calib_loop_ms", "ms"),
    ("tracing.overhead_frac", "frac"),
    ("tracing.arm_chunks", "count"),
];

static ORIGIN: OnceLock<Instant> = OnceLock::new();

/// The instant `main` started; set-up time is measured from here.
pub fn origin() -> Instant {
    *ORIGIN.get_or_init(Instant::now)
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err(format!("seconds {value} out of (0, 120]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("trace must be 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// What a run measured, before the failure tally is folded in.
#[derive(Default)]
struct Report {
    metrics: BTreeMap<&'static str, f64>,
    lines: Vec<String>,
    /// Exact metrics that did not repeat on a fresh runtime.
    mismatches: Vec<String>,
}

impl Report {
    fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

fn json(correct: bool, metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        drive::attempted().max(1),
        drive::failed(),
        body.join(", ")
    )
}

fn watchdog(done: &AtomicBool) {
    while !done.load(Relaxed) {
        std::thread::sleep(Duration::from_millis(50));
        let now = origin().elapsed();
        let stale = drive::BEATS.iter().any(|b| {
            let last = b.load(Relaxed);
            last != 0 && now.as_nanos() as u64 > last + OP_TIMEOUT.as_nanos() as u64
        });
        if stale || now > DEADLINE {
            let what = if stale {
                "an operation did not resolve"
            } else {
                "the run overran its deadline"
            };
            eprintln!("hostbench: {what}; counted as a failed operation");
            // The hung operation was attempted and failed.
            println!(
                "{{\"correct\": false, \"attempted\": {}, \"failed\": {}, \"metrics\": {{}}}}",
                drive::attempted().max(1),
                drive::failed() + 1
            );
            std::process::exit(3);
        }
    }
}

fn main() {
    origin();
    alloc::exclude_thread(true);
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hostbench: {e}");
            eprintln!(
                "usage: hostbench --workload <small_launch|kernel_heavy|compile_churn|graph_replay> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let done = AtomicBool::new(false);
    let report = std::thread::scope(|s| {
        s.spawn(|| watchdog(&done));
        let r = match args.workload {
            Workload::GraphReplay => run_graph(&args),
            _ => run_stream(&args),
        };
        done.store(true, Relaxed);
        r
    });

    let (attempted, failed) = (drive::attempted().max(1), drive::failed());
    let mut metrics = report.metrics;
    metrics.insert("ok_frac", 1.0 - failed as f64 / attempted as f64);
    metrics.insert("peak_rss_mib", alloc::peak_rss_mib().unwrap_or(0.0));
    let wanted: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut out = Vec::new();
    let mut finite = true;
    for (name, unit) in wanted {
        let v = *metrics
            .get(name)
            .unwrap_or_else(|| panic!("metric {name} was not measured"));
        finite &= v.is_finite();
        out.push((*name, if v.is_finite() { v } else { 0.0 }, *unit));
    }
    for line in &report.lines {
        println!("{line}");
    }
    for f in drive::first_failures() {
        eprintln!("hostbench: FAILED {f}");
    }
    for m in &report.mismatches {
        eprintln!("hostbench: NOT EXACT {m}");
    }
    if !finite {
        eprintln!("hostbench: a metric was not a finite number");
    }
    let correct = failed == 0 && report.mismatches.is_empty() && finite;
    println!("{}", json(correct, &out));
    std::process::exit(if correct { 0 } else { 1 });
}

/// Time `SETUP_REPS` set-ups, the first from process start, and keep the
/// last one's result.
fn timed_setups<T>(mut setup: impl FnMut() -> T) -> (Vec<f64>, T) {
    let mut times = Vec::new();
    let mut kept = None;
    for rep in 0..SETUP_REPS {
        drop(kept.take());
        let t0 = if rep == 0 { origin() } else { Instant::now() };
        let value = setup();
        times.push(t0.elapsed().as_secs_f64());
        kept = Some(value);
    }
    (times, kept.expect("at least one set-up"))
}

/// Metrics shared by every workload: end-to-end from the untraced arm,
/// and the traced-run comparisons between arms. Returns
/// `op_latency_p50_us`.
fn common(
    r: &mut Report,
    setup: &mut [f64],
    recs: &mut [ArmRec],
    exact: &Exact,
    calib_ms: f64,
) -> f64 {
    let plain = &mut recs[Arm::Plain as usize];
    let [p50, p90, p99] = [0.5, 0.9, 0.99].map(|q| plain.lat.quantile(q));
    let plain = &recs[Arm::Plain as usize];
    r.set("setup_s", median(setup));
    r.set("ops_per_s", plain.ops_per_s());
    r.set("op_latency_p50_us", p50);
    r.set("op_latency_p90_us", p90);
    r.set("sim_mthread_ops_per_s", plain.thread_ops_per_s() / 1e6);
    r.set("modeled_cycles", exact.cycles as f64);
    r.set("runtime.latency_p99_us", p99);
    r.set("runtime.latency_samples", plain.lat.count() as f64);
    r.set("host.calib_loop_ms", calib_ms);
    r.set("compiler.hits", exact.hits as f64);
    r.set("compiler.misses", exact.misses as f64);
    r.set("compiler.evictions", exact.evictions as f64);
    r.set(
        "compiler.hit_ratio",
        ratio(exact.hits as f64, (exact.hits + exact.misses) as f64),
    );
    r.set(
        "runtime.copy_words_per_launch",
        ratio(exact.copy_words as f64, exact.launches as f64),
    );
    r.set("core.instructions", exact.instructions as f64);
    r.set("core.thread_ops", exact.thread_ops as f64);
    r.set(
        "core.ipc",
        ratio(exact.instructions as f64, exact.cycles as f64),
    );
    r.set("graph.launches_fused", exact.launches_fused as f64);
    r.set("graph.span_cycles", exact.span_cycles as f64);
    let mut rates: Vec<f64> = plain.rates.iter().map(|r| r.0).collect();
    r.lines.push(format!(
        "hostbench: {} ops/s (IQR {:.1}% over {} chunks), latency p50 {:.2} us, p90 {:.2} us, \
         p99 {:.2} us over {} samples; set-up {:.4} s; calibration loop {:.3} ms",
        plain.ops_per_s().round(),
        100.0 * ratio(iqr(&mut rates), plain.ops_per_s()),
        rates.len(),
        p50,
        p90,
        p99,
        plain.lat.count(),
        median(setup),
        calib_ms
    ));
    if recs.len() == 3 {
        let off_p50 = recs[Arm::ObserversOff as usize].lat.quantile(0.5);
        let (plain, traced, off) = (&recs[0], &recs[1], &recs[2]);
        r.set(
            "tracing.overhead_frac",
            ratio(plain.ops_per_s(), traced.ops_per_s()) - 1.0,
        );
        r.set("tracing.arm_chunks", plain.rates.len() as f64);
        r.set("observers.cost_us_per_op", p50 - off_p50);
        r.set("observers.on_spread_us", iqr(&mut plain.chunk_p50.clone()));
        r.set("observers.off_spread_us", iqr(&mut off.chunk_p50.clone()));
    }
    p50
}

/// Per-layer rows measured standalone, and the breakdown table.
fn device_side(
    r: &mut Report,
    w: Workload,
    rows: &layers::DeviceRows,
    miss: &layers::MissRows,
    p50: f64,
) {
    r.set("compiler.lookup_hit_us", rows.lookup_hit_us);
    r.set("core.reset_us", rows.reset_us);
    r.set("core.stage_us", rows.stage_us);
    r.set("core.run_us", rows.run_us);
    r.set("core.readback_us", rows.readback_us);
    r.set("core.mthread_ops_per_s", rows.mthread_ops_per_s);
    r.set("compiler.compile_us", miss.compile_us);
    r.set("isa.assemble_us", miss.assemble_us);
    r.set("core.decode_us", miss.decode_us);
    let device = rows.total_us();
    r.set("runtime.residual_us", p50 - device);
    r.set("runtime.device_share", ratio(device, p50));
    let pct = |v: f64| 100.0 * ratio(v, p50);
    let mut row = |layer: &str, what: &str, v: f64| {
        r.lines.push(format!(
            "  {layer:<9} {what:<44} {v:>10.3} us {:>6.1}%",
            pct(v)
        ))
    };
    let name = format!("{w:?}");
    row("", &format!("op_latency_p50_us breakdown ({name})"), p50);
    row(
        "compiler",
        "CompileCache::get_or_*_decoded (hit)",
        rows.lookup_hit_us,
    );
    row("core", "Processor::reset", rows.reset_us);
    row(
        "core",
        "SharedMemory::load_words + load_decoded",
        rows.stage_us,
    );
    row("core", "Processor::run", rows.run_us);
    row(
        "core",
        "SharedMemory::read_words (write-back)",
        rows.readback_us,
    );
    row("=", "device side", device);
    row(
        "runtime",
        "residual: queue, claim, wake, publish, waits",
        p50 - device,
    );
    row("=", "op_latency_p50_us", p50);
}

fn run_stream(args: &Args) -> Report {
    let w = args.workload;
    let mut r = Report::default();
    let (mut setup, (pool, mut main)) = timed_setups(|| {
        let pool = Pool::new(w, args.seed);
        let arm = StreamArm::new(w, w.config(), &pool, args.seed);
        (pool, arm)
    });
    let calib = stats::calibration_ms();
    let exact_ops = w.exact_ops();
    let mut off = args.trace.then(|| {
        let cfg = w.config().with_metrics(false).with_flight_capacity(0);
        StreamArm::new(w, cfg, &pool, args.seed)
    });
    let cap = if args.trace { LAT_CAP / 4 } else { LAT_CAP };
    let mut timed =
        drive::timed_stream(&mut main, off.as_mut(), &pool, args.seconds, exact_ops, cap);
    let p50 = common(&mut r, &mut setup, &mut timed.recs, &timed.exact, calib);
    if !args.trace {
        return r;
    }
    drop(off);

    let traced = &mut timed.recs[Arm::Traced as usize];
    let [enq, wait, traced_p50] =
        [&mut traced.enq, &mut traced.wait, &mut traced.lat].map(|s| s.quantile(0.5));
    let win = &timed.window;
    r.set("runtime.enqueue_us", enq);
    r.set("runtime.wait_us", wait);
    r.set(
        "runtime.device_busy_us_per_launch",
        ratio(stats::us(win.busy_wall), win.launches as f64),
    );
    r.set(
        "runtime.cmds_per_wakeup",
        ratio(win.batched as f64, win.batches as f64),
    );
    r.set(
        "runtime.processor_reuse_ratio",
        ratio(win.processor_reuse as f64, win.launches as f64),
    );
    r.set("runtime.makespan_cycles", timed.prefix.makespan as f64);
    r.set(
        "host.allocs_per_op",
        timed.prefix.allocs as f64 / exact_ops as f64,
    );
    r.set(
        "host.alloc_bytes_per_op",
        timed.prefix.alloc_bytes as f64 / exact_ops as f64,
    );
    for name in [
        "graph.fuse_us",
        "graph.instantiate_us",
        "graph.replay_us",
        "graph.concurrency_gain",
    ] {
        r.set(name, 0.0);
    }

    // Exactness self-check: the prefix again on a fresh runtime.
    let mut fresh = StreamArm::new(w, w.config(), &pool, args.seed);
    let (again, snap) = fresh.prefix(&pool, exact_ops);
    drop(fresh);
    rerun_checks(&mut r, &timed.exact, &again, &timed.prefix, &snap);

    let steps: Vec<layers::DeviceStep> = pool
        .specs
        .iter()
        .map(|spec| layers::DeviceStep {
            spec,
            pre: Vec::new(),
            out: (spec.out_off, spec.expected.clone()),
        })
        .collect();
    let mut order = pool.order(args.seed);
    let memory_words = w.config().device.memory_words;
    let distinct: Vec<_> = pool
        .distinct()
        .into_iter()
        .map(|i| &pool.specs[i])
        .collect();
    match (
        layers::device_rows(&steps, || order.next(&pool), w.device_reps(), memory_words),
        layers::miss_rows(&distinct),
    ) {
        (Ok(rows), Ok(miss)) => device_side(&mut r, w, &rows, &miss, p50),
        (Err(e), _) | (_, Err(e)) => r.mismatches.push(format!("standalone layers: {e}")),
    }
    r.lines.push(format!(
        "  caller view (traced arm): enqueue {:.3} us + wait {:.3} us; traced p50 {:.3} us",
        enq, wait, traced_p50
    ));
    r
}

/// Compare the exact metrics of the timed prefix with a fresh runtime's.
fn rerun_checks(r: &mut Report, first: &Exact, again: &Exact, a: &Snap, b: &Snap) {
    if first != again {
        r.mismatches
            .push(format!("exact metrics {first:?} then {again:?}"));
    }
    r.set(
        "host.allocs_exact",
        (a.allocs == b.allocs && a.alloc_bytes == b.alloc_bytes) as u8 as f64,
    );
    r.set(
        "runtime.makespan_rerun_delta",
        ratio(
            (a.makespan as f64 - b.makespan as f64).abs(),
            a.makespan as f64,
        ),
    );
    r.lines.push(format!(
        "hostbench: exact prefix repeated: {}; allocations {}/{} then {}/{} (count/bytes); \
         makespan {} then {} cycles",
        first == again,
        a.allocs,
        a.alloc_bytes,
        b.allocs,
        b.alloc_bytes,
        a.makespan,
        b.makespan
    ));
}

fn run_graph(args: &Args) -> Report {
    let w = args.workload;
    let mut r = Report::default();
    let mut fuse_us = Vec::new();
    let mut inst_us = Vec::new();
    let (mut setup, (pipes, main)) = timed_setups(|| {
        let pipes = workloads::pipelines(args.seed);
        let arm = GraphArm::new(w.config(), &pipes);
        fuse_us.push(arm.fuse_us / pipes.len() as f64);
        inst_us.push(arm.instantiate_us / pipes.len() as f64);
        (pipes, arm)
    });
    let calib = stats::calibration_ms();
    let exact_ops = w.exact_ops();
    let off = args.trace.then(|| {
        GraphArm::new(
            w.config().with_metrics(false).with_flight_capacity(0),
            &pipes,
        )
    });
    let cap = if args.trace { LAT_CAP / 4 } else { LAT_CAP };
    let mut timed = drive::timed_graph(&main, off.as_ref(), args.seconds, exact_ops, cap);
    let p50 = common(&mut r, &mut setup, &mut timed.recs, &timed.exact, calib);
    if !args.trace {
        return r;
    }
    drop(off);
    r.set("graph.fuse_us", median(&mut fuse_us));
    r.set("graph.instantiate_us", median(&mut inst_us));
    let win = &timed.window;
    // Replays run on the caller's thread, not through the stream queues.
    for name in [
        "runtime.enqueue_us",
        "runtime.wait_us",
        "runtime.cmds_per_wakeup",
    ] {
        r.set(name, 0.0);
    }
    r.set(
        "runtime.device_busy_us_per_launch",
        ratio(stats::us(win.busy_wall), win.launches as f64),
    );
    r.set(
        "runtime.processor_reuse_ratio",
        ratio(win.processor_reuse as f64, win.launches as f64),
    );
    r.set("runtime.makespan_cycles", win.makespan as f64);
    r.set(
        "runtime.copy_words_per_launch",
        main.copy_words_per_launch(),
    );

    // Single-thread phase: the same exact prefix on one thread (its
    // allocations are counted), then alternating replays until the phase
    // ends, for the 1-thread rate and latency.
    let base = alloc::counts();
    let (single, snap1) = main.prefix(exact_ops);
    let after = alloc::counts();
    let per_op = (2 * exact_ops) as f64;
    r.set("host.allocs_per_op", (after.0 - base.0) as f64 / per_op);
    r.set(
        "host.alloc_bytes_per_op",
        (after.1 - base.1) as f64 / per_op,
    );
    let mut rec = ArmRec::new(LAT_CAP / 4, false);
    let t0 = Instant::now();
    let mut ops = 0u64;
    while t0.elapsed() < SINGLE_THREAD_PHASE {
        if main
            .replay(ops as usize % main.execs.len(), Some(&mut rec))
            .is_some()
        {
            ops += 1;
        }
    }
    let rate1 = ops as f64 / t0.elapsed().as_secs_f64();
    let replay_p50 = rec.lat.quantile(0.5);
    r.set("graph.replay_us", replay_p50);
    r.set(
        "graph.concurrency_gain",
        ratio(timed.recs[0].ops_per_s(), rate1),
    );

    // Exactness self-check on a fresh runtime, same order as above.
    let fresh = GraphArm::new(w.config(), &pipes);
    let (again, snap2) = fresh.prefix(exact_ops);
    let mut timed_exact = timed.exact;
    (timed_exact.misses, timed_exact.evictions) = (single.misses, single.evictions);
    rerun_checks(&mut r, &single, &again, &snap1, &snap2);
    if timed_exact != single {
        r.mismatches.push(format!(
            "two-thread prefix {timed_exact:?} vs one-thread {single:?}"
        ));
    }

    let steps = main.device_steps();
    let mut i = 0usize;
    let distinct: Vec<_> = steps.iter().map(|s| s.spec).collect();
    let memory_words = w.config().device.memory_words;
    match (
        layers::device_rows(
            &steps,
            || {
                i += 1;
                i % steps.len()
            },
            w.device_reps(),
            memory_words,
        ),
        layers::miss_rows(&distinct),
    ) {
        (Ok(rows), Ok(miss)) => device_side(&mut r, w, &rows, &miss, p50),
        (Err(e), _) | (_, Err(e)) => r.mismatches.push(format!("standalone layers: {e}")),
    }
    r.lines.push(format!(
        "  one replay thread: {:.0} replays/s, p50 {:.3} us; two threads: {:.0} replays/s",
        rate1,
        replay_p50,
        timed.recs[0].ops_per_s()
    ));
    r
}
