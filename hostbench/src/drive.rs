//! Driving the program from outside: set-up, the timed loop, the exact
//! prefix and the failure tally.
//!
//! A timed loop is cut into chunks of [`CHUNK`]. An untraced run measures
//! every chunk with tracing off. A traced run rotates three arms chunk by
//! chunk — tracing off, tracing on (the caller-side timers around
//! `launch`/`copy_out` and `wait`), and a second runtime with the observers
//! switched off — so all three see the same host conditions.

use crate::alloc::{self, counted};
use crate::stats::{median, us, Samples};
use crate::workloads::{Order, Pool, Workload};
use simt_core::ExecStats;
use simt_graph::GraphOp;
use simt_kernels::pipeline::Pipeline;
use simt_kernels::LaunchSpec;
use simt_runtime::{
    fuse, CommandKind, CopyHandle, GraphBuilder, GraphExec, LaunchHandle, Runtime, RuntimeConfig,
    Stream,
};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Mutex;
use std::time::{Duration, Instant};

pub const CHUNK: Duration = Duration::from_millis(200);

// ---- failure tally and watchdog heartbeats ---------------------------------

static ATTEMPTED: AtomicU64 = AtomicU64::new(0);
static FAILED: AtomicU64 = AtomicU64::new(0);
static FIRST_FAILURES: Mutex<Vec<String>> = Mutex::new(Vec::new());

/// Per-thread time of the last resolved operation, in ns since the
/// process's start instant; 0 while the thread is not inside the loop.
pub static BEATS: [AtomicU64; 2] = [AtomicU64::new(0), AtomicU64::new(0)];

pub fn attempted() -> u64 {
    ATTEMPTED.load(Relaxed)
}

pub fn failed() -> u64 {
    FAILED.load(Relaxed)
}

pub fn first_failures() -> Vec<String> {
    FIRST_FAILURES.lock().expect("failure log poisoned").clone()
}

fn fail(msg: String) {
    FAILED.fetch_add(1, Relaxed);
    let mut log = FIRST_FAILURES.lock().expect("failure log poisoned");
    if log.len() < 8 {
        log.push(msg);
    }
}

fn beat(slot: usize, origin: Instant) {
    BEATS[slot].store(origin.elapsed().as_nanos().max(1) as u64, Relaxed);
}

/// Compare one resolved operation with its oracle.
fn check(
    name: &str,
    expected: &[u32],
    data: Result<Vec<u32>, simt_runtime::RuntimeError>,
    stats: Result<ExecStats, simt_runtime::RuntimeError>,
) -> Option<ExecStats> {
    match (data, stats) {
        (Ok(data), Ok(stats)) if data == expected => Some(stats),
        (Ok(_), Ok(_)) => {
            fail(format!("{name}: output differs from the host oracle"));
            None
        }
        (Err(e), _) | (_, Err(e)) => {
            fail(format!("{name}: {e}"));
            None
        }
    }
}

// ---- measurement records ----------------------------------------------------

/// Which configuration a chunk measures.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Arm {
    Plain = 0,
    Traced = 1,
    ObserversOff = 2,
}

fn arm_of(chunk: usize, traced_run: bool) -> Arm {
    match (traced_run, chunk % 3) {
        (false, _) | (true, 0) => Arm::Plain,
        (true, 1) => Arm::Traced,
        _ => Arm::ObserversOff,
    }
}

fn chunks_for(seconds: f64, traced_run: bool) -> usize {
    let n = (seconds / CHUNK.as_secs_f64()).ceil().max(1.0) as usize;
    if traced_run {
        n.div_ceil(3).max(1) * 3
    } else {
        n
    }
}

/// What one arm measured.
pub struct ArmRec {
    /// Submit → resolved latency, µs.
    pub lat: Samples,
    /// Time inside `launch` + `copy_out` (traced arm only), µs.
    pub enq: Samples,
    /// Time inside `CopyHandle::wait` (traced arm only), µs.
    pub wait: Samples,
    /// Per chunk: operations and thread-operations per second.
    pub rates: Vec<(f64, f64)>,
    /// Per chunk median latency (traced runs only).
    pub chunk_p50: Vec<f64>,
    chunk_lat: Vec<f64>,
    per_chunk: bool,
}

impl ArmRec {
    pub fn new(lat_cap: usize, traced_run: bool) -> ArmRec {
        let part_cap = if traced_run { lat_cap } else { 0 };
        ArmRec {
            lat: Samples::with_capacity(lat_cap),
            enq: Samples::with_capacity(part_cap),
            wait: Samples::with_capacity(part_cap),
            rates: Vec::new(),
            chunk_p50: Vec::new(),
            chunk_lat: Vec::new(),
            per_chunk: traced_run,
        }
    }

    fn op(&mut self, lat_us: f64) {
        self.lat.push(lat_us);
        if self.per_chunk {
            self.chunk_lat.push(lat_us);
        }
    }

    fn end_chunk(&mut self) {
        if self.per_chunk && !self.chunk_lat.is_empty() {
            self.chunk_p50.push(median(&mut self.chunk_lat));
            self.chunk_lat.clear();
        }
    }

    /// Median over chunks of operations per second.
    pub fn ops_per_s(&self) -> f64 {
        median(&mut self.rates.iter().map(|r| r.0).collect::<Vec<_>>())
    }

    /// Median over chunks of simulated thread-operations per second.
    pub fn thread_ops_per_s(&self) -> f64 {
        median(&mut self.rates.iter().map(|r| r.1).collect::<Vec<_>>())
    }
}

/// Runtime counters at one instant.
#[derive(Clone, Copy, Default, Debug)]
pub struct Snap {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub launches: u64,
    pub copy_words: u64,
    pub busy_wall: Duration,
    pub batches: u64,
    pub batched: u64,
    pub processor_reuse: u64,
    pub makespan: u64,
    pub allocs: u64,
    pub alloc_bytes: u64,
}

impl Snap {
    pub fn take(rt: &Runtime) -> Snap {
        let (allocs, alloc_bytes) = alloc::counts();
        let cache = rt.compile_cache();
        let st = rt.stats();
        Snap {
            hits: cache.hits(),
            misses: cache.misses(),
            evictions: cache.evictions(),
            launches: st.devices.iter().map(|d| d.launches).sum(),
            copy_words: st.streams.iter().map(|s| s.copy_words).sum(),
            busy_wall: st.devices.iter().map(|d| d.busy_wall).sum(),
            batches: st.devices.iter().map(|d| d.batches).sum(),
            batched: st.devices.iter().map(|d| d.batched_commands).sum(),
            processor_reuse: st.devices.iter().map(|d| d.cache_hits).sum(),
            makespan: st.makespan_cycles,
            allocs,
            alloc_bytes,
        }
    }

    pub fn since(&self, base: &Snap) -> Snap {
        Snap {
            hits: self.hits - base.hits,
            misses: self.misses - base.misses,
            evictions: self.evictions - base.evictions,
            launches: self.launches - base.launches,
            copy_words: self.copy_words - base.copy_words,
            busy_wall: self.busy_wall - base.busy_wall,
            batches: self.batches - base.batches,
            batched: self.batched - base.batched,
            processor_reuse: self.processor_reuse - base.processor_reuse,
            makespan: self.makespan - base.makespan,
            allocs: self.allocs - base.allocs,
            alloc_bytes: self.alloc_bytes - base.alloc_bytes,
        }
    }
}

/// The metrics that must repeat bit-for-bit for one seed, summed over the
/// exact prefix of the timed loop.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct Exact {
    pub cycles: u64,
    pub instructions: u64,
    pub thread_ops: u64,
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    /// Copy words and launches over the prefix (their ratio is reported).
    pub copy_words: u64,
    pub launches: u64,
    pub launches_fused: u64,
    pub span_cycles: u64,
}

impl Exact {
    fn add(&mut self, s: &ExecStats) {
        self.cycles += s.cycles;
        self.instructions += s.instructions;
        self.thread_ops += s.thread_ops;
    }

    fn add_replay(&mut self, r: &Replayed) {
        self.add(&r.stats);
        self.hits += r.compile_hits;
        self.launches += r.launches;
    }
}

// ---- stream workloads ---------------------------------------------------------

struct Pending {
    t0: Instant,
    enq_us: f64,
    launch: LaunchHandle,
    copy: CopyHandle,
    idx: usize,
}

/// One runtime, its streams and its place in the operation order.
pub struct StreamArm {
    pub rt: Runtime,
    streams: Vec<Stream>,
    order: Order,
    batch: usize,
    pub ops: u64,
    pending: Vec<Pending>,
}

impl StreamArm {
    /// Build the runtime and warm it: every spec of the pool runs once, in
    /// pool order, so compiles and processor builds happen here.
    pub fn new(w: Workload, cfg: RuntimeConfig, pool: &Pool, seed: u64) -> StreamArm {
        let (streams, batch) = w.streams_and_batch();
        let rt = counted(|| Runtime::new(cfg));
        let streams = (0..streams).map(|_| counted(|| rt.stream())).collect();
        let mut arm = StreamArm {
            rt,
            streams,
            order: pool.order(seed),
            batch,
            ops: 0,
            pending: Vec::with_capacity(batch),
        };
        for idx in 0..pool.specs.len() {
            arm.submit(pool, idx, false);
            if arm.pending.len() == batch {
                arm.resolve(pool, None, None);
            }
        }
        arm.resolve(pool, None, None);
        arm.ops = 0;
        BEATS[0].store(0, Relaxed);
        arm
    }

    fn submit(&mut self, pool: &Pool, idx: usize, traced: bool) {
        let spec: &LaunchSpec = &pool.specs[idx];
        let owned = spec.clone();
        let s = &self.streams[self.pending.len() % self.streams.len()];
        ATTEMPTED.fetch_add(1, Relaxed);
        let t0 = Instant::now();
        let (launch, copy) = counted(|| (s.launch(owned), s.copy_out(spec.out_off, spec.out_len)));
        let enq_us = if traced { us(t0.elapsed()) } else { 0.0 };
        self.pending.push(Pending {
            t0,
            enq_us,
            launch,
            copy,
            idx,
        });
    }

    fn resolve(
        &mut self,
        pool: &Pool,
        mut rec: Option<&mut ArmRec>,
        mut exact: Option<&mut Exact>,
    ) -> (u64, u64) {
        let (mut ops, mut thread_ops) = (0, 0);
        let mut pending = std::mem::take(&mut self.pending);
        let n = pending.len() as u64;
        for p in pending.drain(..) {
            let tw = Instant::now();
            let data = counted(|| p.copy.wait());
            let t2 = Instant::now();
            let stats = counted(|| p.launch.wait());
            beat(0, crate::origin());
            let spec = &pool.specs[p.idx];
            if let Some(st) = check(&spec.name, &spec.expected, data, stats) {
                ops += 1;
                thread_ops += st.thread_ops;
                if let Some(r) = rec.as_deref_mut() {
                    r.op(us(t2 - p.t0));
                    if p.enq_us > 0.0 {
                        r.enq.push(p.enq_us);
                        r.wait.push(us(t2 - tw));
                    }
                }
                if let Some(e) = exact.as_deref_mut() {
                    e.add(&st);
                }
            }
        }
        self.pending = pending;
        if self.batch > 1 {
            if let Err(e) = counted(|| self.rt.synchronize()) {
                fail(format!("synchronize: {e}"));
            }
        }
        self.ops += n;
        (ops, thread_ops)
    }

    /// Submit the next batch of the operation order and resolve it.
    pub fn run_batch(
        &mut self,
        pool: &Pool,
        traced: bool,
        rec: Option<&mut ArmRec>,
        exact: Option<&mut Exact>,
    ) -> (u64, u64) {
        for _ in 0..self.batch {
            let idx = self.order.next(pool);
            self.submit(pool, idx, traced);
        }
        self.resolve(pool, rec, exact)
    }

    /// Run the exact prefix untimed and return its exact metrics and the
    /// counters over it.
    pub fn prefix(&mut self, pool: &Pool, ops: u64) -> (Exact, Snap) {
        let base = Snap::take(&self.rt);
        let mut exact = Exact::default();
        while self.ops < ops {
            self.run_batch(pool, false, None, Some(&mut exact));
        }
        BEATS[0].store(0, Relaxed);
        let d = Snap::take(&self.rt).since(&base);
        fill_counters(&mut exact, &d);
        (exact, d)
    }
}

fn fill_counters(e: &mut Exact, d: &Snap) {
    e.hits = d.hits;
    e.misses = d.misses;
    e.evictions = d.evictions;
    e.copy_words = d.copy_words;
    e.launches = d.launches;
}

/// Results of a timed loop over stream workloads.
pub struct StreamTimed {
    pub recs: Vec<ArmRec>,
    pub exact: Exact,
    /// Counters over the exact prefix and over the whole timed window.
    pub prefix: Snap,
    pub window: Snap,
}

pub fn timed_stream(
    main: &mut StreamArm,
    mut off: Option<&mut StreamArm>,
    pool: &Pool,
    seconds: f64,
    exact_ops: u64,
    lat_cap: usize,
) -> StreamTimed {
    let traced_run = off.is_some();
    let mut recs: Vec<ArmRec> = (0..if traced_run { 3 } else { 1 })
        .map(|_| ArmRec::new(lat_cap, traced_run))
        .collect();
    let mut exact = Exact::default();
    let base = Snap::take(&main.rt);
    let mut prefix = None;
    beat(0, crate::origin());
    for k in 0..chunks_for(seconds, traced_run) {
        let arm = arm_of(k, traced_run);
        let rec = &mut recs[arm as usize];
        let start = Instant::now();
        let end = start + CHUNK;
        let (mut ops, mut thread_ops) = (0, 0);
        loop {
            let open = prefix.is_none();
            if Instant::now() >= end && !(open && arm == Arm::Plain) {
                break;
            }
            let (o, t) = match arm {
                Arm::ObserversOff => off
                    .as_deref_mut()
                    .expect("traced runs have an observers-off arm")
                    .run_batch(pool, false, Some(rec), None),
                _ => main.run_batch(
                    pool,
                    arm == Arm::Traced,
                    Some(rec),
                    open.then_some(&mut exact),
                ),
            };
            ops += o;
            thread_ops += t;
            if open && main.ops >= exact_ops {
                prefix = Some(Snap::take(&main.rt).since(&base));
            }
        }
        let secs = start.elapsed().as_secs_f64();
        rec.rates
            .push((ops as f64 / secs, thread_ops as f64 / secs));
        rec.end_chunk();
    }
    BEATS[0].store(0, Relaxed);
    let prefix = prefix.expect("the first chunk runs until the prefix is done");
    fill_counters(&mut exact, &prefix);
    StreamTimed {
        recs,
        exact,
        prefix,
        window: Snap::take(&main.rt).since(&base),
    }
}

// ---- graph_replay -------------------------------------------------------------

/// The DAG a pipeline runs as: copy-ins, the stage chain, one copy-out.
fn graph_of(p: &Pipeline) -> simt_runtime::ExecGraph {
    let mut b = GraphBuilder::new();
    let mut prev: Vec<_> = p
        .inputs
        .iter()
        .map(|(dst, words)| b.copy_in(*dst, words.clone(), &[]))
        .collect();
    for stage in &p.stages {
        prev = vec![b.launch(stage.clone(), &prev)];
    }
    b.copy_out(p.out_off, p.out_len, &prev);
    b.finish().expect("a pipeline is a valid DAG")
}

/// A runtime with both pipelines fused, instantiated and replayed once.
pub struct GraphArm {
    pub rt: Runtime,
    pub execs: Vec<GraphExec>,
    pub expected: Vec<Vec<u32>>,
    pub launches_fused: u64,
    pub span_cycles: u64,
    pub fuse_us: f64,
    pub instantiate_us: f64,
}

impl GraphArm {
    pub fn new(cfg: RuntimeConfig, pipes: &[Pipeline]) -> GraphArm {
        let rt = counted(|| Runtime::new(cfg));
        let mut arm = GraphArm {
            rt,
            execs: Vec::new(),
            expected: Vec::new(),
            launches_fused: 0,
            span_cycles: 0,
            fuse_us: 0.0,
            instantiate_us: 0.0,
        };
        for p in pipes {
            let graph = graph_of(p);
            let t0 = Instant::now();
            let (fused, report) = counted(|| fuse(&graph));
            let t1 = Instant::now();
            let exec = match counted(|| arm.rt.instantiate(fused)) {
                Ok(exec) => exec,
                Err(e) => {
                    fail(format!("instantiate {}: {e}", p.name));
                    continue;
                }
            };
            arm.fuse_us += us(t1 - t0);
            arm.instantiate_us += us(t1.elapsed());
            arm.launches_fused += report.launches_fused as u64;
            arm.execs.push(exec);
            arm.expected.push(p.expected.clone());
        }
        for i in 0..arm.execs.len() {
            if let Some(r) = arm.replay(i, None) {
                arm.span_cycles += r.span;
            }
        }
        arm
    }

    /// One replay of pipeline `i`, checked against its oracle.
    pub fn replay(&self, i: usize, rec: Option<&mut ArmRec>) -> Option<Replayed> {
        ATTEMPTED.fetch_add(1, Relaxed);
        let t0 = Instant::now();
        let r = counted(|| self.rt.replay(&self.execs[i]));
        let lat = us(t0.elapsed());
        let (data, stats, span, compile_hits, launches) = match r {
            Ok(rep) => {
                let launches = rep
                    .placements
                    .iter()
                    .filter(|p| p.kind == CommandKind::Launch)
                    .count() as u64;
                let out = rep
                    .outputs
                    .into_iter()
                    .next()
                    .map(|(_, w)| w)
                    .unwrap_or_default();
                (
                    Ok(out),
                    Ok(rep.compute),
                    rep.span_cycles,
                    rep.compile_hits,
                    launches,
                )
            }
            Err(e) => (Err(e.clone()), Err(e), 0, 0, 0),
        };
        let stats = check("graph replay", &self.expected[i], data, stats)?;
        if let Some(r) = rec {
            r.op(lat);
        }
        Some(Replayed {
            stats,
            span,
            compile_hits,
            launches,
        })
    }

    /// Copy words per launch node of the instantiated graphs.
    pub fn copy_words_per_launch(&self) -> f64 {
        let (mut words, mut launches) = (0usize, 0usize);
        for exec in &self.execs {
            for node in exec.graph().nodes() {
                match &node.op {
                    GraphOp::CopyIn { data, .. } => words += data.len(),
                    GraphOp::CopyOut { len, .. } => words += len,
                    GraphOp::Launch(_) => launches += 1,
                }
            }
        }
        words as f64 / launches.max(1) as f64
    }

    /// Standalone replay steps: each launch node with the copy-ins that
    /// precede it.
    pub fn device_steps(&self) -> Vec<crate::layers::DeviceStep<'_>> {
        let mut steps = Vec::new();
        for exec in &self.execs {
            let g = exec.graph();
            let mut pre = Vec::new();
            for &id in g.topo_order() {
                match &g.node(id).op {
                    GraphOp::CopyIn { dst, data } => pre.push((*dst, data.clone())),
                    GraphOp::Launch(spec) => steps.push(crate::layers::DeviceStep {
                        spec,
                        pre: std::mem::take(&mut pre),
                        out: (spec.out_off, spec.expected.clone()),
                    }),
                    GraphOp::CopyOut { .. } => {}
                }
            }
        }
        steps
    }

    /// Exact metrics over `ops` replays of each pipeline, on this thread.
    pub fn prefix(&self, ops: u64) -> (Exact, Snap) {
        let base = Snap::take(&self.rt);
        let mut exact = Exact::default();
        for i in 0..self.execs.len() {
            for _ in 0..ops {
                if let Some(r) = self.replay(i, None) {
                    exact.add_replay(&r);
                }
            }
        }
        let d = Snap::take(&self.rt).since(&base);
        (self.finish_exact(exact, &d), d)
    }

    /// Fill in what replays do not report one by one: cache misses and
    /// evictions over `d`, and the arm's fusion results.
    fn finish_exact(&self, mut e: Exact, d: &Snap) -> Exact {
        e.misses = d.misses;
        e.evictions = d.evictions;
        e.launches_fused = self.launches_fused;
        e.span_cycles = self.span_cycles;
        e
    }
}

/// What one checked replay reports.
pub struct Replayed {
    pub stats: ExecStats,
    pub span: u64,
    pub compile_hits: u64,
    pub launches: u64,
}

/// Results of the two-thread replay loop.
pub struct GraphTimed {
    pub recs: Vec<ArmRec>,
    pub exact: Exact,
    pub window: Snap,
}

/// Two threads, thread `t` replaying pipeline `t`, chunks aligned on one
/// clock. Each thread's first `exact_ops` replays form the exact prefix.
pub fn timed_graph(
    main: &GraphArm,
    off: Option<&GraphArm>,
    seconds: f64,
    exact_ops: u64,
    lat_cap: usize,
) -> GraphTimed {
    let traced_run = off.is_some();
    let nchunks = chunks_for(seconds, traced_run);
    let base = Snap::take(&main.rt);
    let start = Instant::now();
    let per_thread: Vec<(Vec<ArmRec>, Exact)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..main.execs.len())
            .map(|t| {
                scope.spawn(move || {
                    alloc::exclude_thread(true);
                    beat(t, crate::origin());
                    let mut recs: Vec<ArmRec> = (0..if traced_run { 3 } else { 1 })
                        .map(|_| ArmRec::new(lat_cap, traced_run))
                        .collect();
                    let mut exact = Exact::default();
                    let mut done = 0u64;
                    for k in 0..nchunks {
                        let arm = arm_of(k, traced_run);
                        let on = match arm {
                            Arm::ObserversOff => {
                                off.expect("traced runs have an observers-off arm")
                            }
                            _ => main,
                        };
                        let rec = &mut recs[arm as usize];
                        let end = start + CHUNK * (k as u32 + 1);
                        let c0 = Instant::now();
                        let (mut ops, mut thread_ops) = (0u64, 0u64);
                        while Instant::now() < end || (done < exact_ops && arm == Arm::Plain) {
                            if let Some(r) = on.replay(t, Some(rec)) {
                                ops += 1;
                                thread_ops += r.stats.thread_ops;
                                if arm != Arm::ObserversOff && done < exact_ops {
                                    exact.add_replay(&r);
                                    done += 1;
                                }
                            }
                            beat(t, crate::origin());
                        }
                        let secs = c0.elapsed().as_secs_f64();
                        rec.rates
                            .push((ops as f64 / secs, thread_ops as f64 / secs));
                        rec.end_chunk();
                    }
                    BEATS[t].store(0, Relaxed);
                    (recs, exact)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay thread panicked"))
            .collect()
    });
    // Merge: rates add across threads chunk by chunk; samples pool.
    let mut merged: Vec<ArmRec> = Vec::new();
    let mut exact = Exact::default();
    for (recs, e) in per_thread {
        exact.cycles += e.cycles;
        exact.instructions += e.instructions;
        exact.thread_ops += e.thread_ops;
        exact.hits += e.hits;
        exact.launches += e.launches;
        if merged.is_empty() {
            merged = recs;
            continue;
        }
        for (m, r) in merged.iter_mut().zip(recs) {
            for (a, b) in m.rates.iter_mut().zip(&r.rates) {
                a.0 += b.0;
                a.1 += b.1;
            }
            m.lat.absorb(&r.lat);
            m.chunk_p50.extend(r.chunk_p50);
        }
    }
    let window = Snap::take(&main.rt).since(&base);
    GraphTimed {
        recs: merged,
        exact: main.finish_exact(exact, &window),
        window,
    }
}
