//! The multi-device scheduler.
//!
//! One worker thread per pool device drains ready commands from any
//! stream with work (spawned with `std::thread::Builder`). A wake-up
//! claims a *batch*: consecutive ready commands of one stream, up to
//! `max_batch`, stopping after a launch so co-resident streams
//! interleave — that is what lets one stream's copies overlap another
//! stream's compute.
//!
//! Besides real host execution, the scheduler maintains a
//! discrete-event **virtual timeline** in device clocks: every device
//! has a compute engine and a copy engine (DMA), every stream chains its
//! commands, and events propagate timestamps across streams. Streams are
//! **not** device-affine: each command is *placed* at dispatch on the
//! least-loaded engine of the matching kind (ties to the lower device
//! id), so an imbalanced mix no longer strands a hot stream on a busy
//! device while others idle. Per-stream ordering is preserved by the
//! stream's own completion chain (`vdone`). The resulting makespan is
//! the modeled wall-clock of the whole job graph on the pool — the
//! metric the throughput bench and the overlap example report, and one
//! that is exact regardless of how many host cores the simulation
//! itself got.
//!
//! The scheduler also hosts **stream capture**: a capturing stream's
//! commands are recorded into a `simt_graph` DAG (per-stream chain
//! edges, plus cross-stream edges through captured events) instead of
//! executing, and graph replay places its nodes through the same
//! least-loaded rule via `Shared::place_graph_command`.
//!
//! Every scheduler decision is recorded once, into the pool's event
//! ring ([`simt_profile::Tracer`], `Shared::record`).
//!
//! ## The handoff
//!
//! Commands and results cross threads through a spin-then-park wait
//! (the private `handoff` module). Handle waits (`LaunchHandle::wait`,
//! `CopyHandle::wait`) and the fence of `Stream::synchronize` poll a
//! ready flag for up to a 20 µs budget — about one futex park-plus-wake
//! round trip — before parking on their condvar (competitive spinning:
//! Karlin, Li, Manasse & Owicki, SOSP 1991). An idle worker drops
//! the state lock and watches a work epoch that every work
//! notification bumps, then re-locks and re-claims before it parks, so
//! an enqueue cannot slip between its last claim and its park.
//! Notifiers (`set`, enqueue, publish, resume, shutdown) call
//! `notify_all` only when the matching parked count, kept under the
//! condvar's own mutex, is non-zero: a notify is a syscall even when
//! nobody sleeps.
//!
//! The budget is granted only to a 1-device pool on a host with at
//! least two cores (`available_parallelism()`, read once in
//! `Runtime::new`): the worker and one submitting thread then each
//! have a core, and that is the case measured to pay off. Every other
//! pool parks at once. An oversubscribed pool must — a spinning thread
//! there takes the core the client needs to submit, and a build that
//! spun with 2 devices on 2 cores measured slower. A multi-device pool
//! with spare cores parks too: its idle workers would all watch one
//! work epoch, and that path is unmeasured. The park path is the plain
//! park-and-notify one apart from the skipped notifies.

use crate::handoff::{spin_until, Slot};
use crate::pool::{self, Device, RuntimeConfig};
use crate::stats::{CommandKind, CompletionRecord, DeviceStats, RuntimeStats, StreamStats};
use crate::stream::Command;
use crate::RuntimeError;
use simt_chaos::{DeviceHealth, FaultKind, FaultPlan, PlannedFault};
use simt_compiler::CompileCache;
use simt_core::ExecStats;
use simt_graph::{ExecGraph, GraphNode, GraphOp, NodeId};
use simt_metrics::{names as metric, Counter, Gauge, Histogram, MetricsSnapshot, Registry};
use simt_profile::{labels, TraceEvent, Tracer};
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// One queued command with its recovery bookkeeping: the attempt
/// number (bumped on every injected-fault retry), the device the
/// previous faulted attempt was blamed on (retries are placed
/// elsewhere when the pool has an alternative), and whether the
/// command already survived a fault (its eventual success counts as a
/// recovery).
pub(crate) struct Pending {
    seq: u64,
    attempt: u32,
    avoid: Option<usize>,
    faulted: bool,
    cmd: Command,
}

/// A claimed batch: the owning stream, plus each command paired with
/// the fault (if any) the chaos plan drew for this attempt at claim
/// time — drawn under the scheduler lock so fault decisions are
/// independent of worker-thread interleaving.
type ClaimedBatch = (usize, Vec<(Pending, Option<PlannedFault>)>);

impl Pending {
    fn first(seq: u64, cmd: Command) -> Self {
        Pending {
            seq,
            attempt: 0,
            avoid: None,
            faulted: false,
            cmd,
        }
    }
}

/// Scheduler-side state of one stream.
pub(crate) struct StreamState {
    queue: VecDeque<Pending>,
    next_seq: u64,
    /// The stream's device buffer; taken by a worker while a batch runs.
    buffer: Option<Vec<u32>>,
    busy: bool,
    poisoned: Option<RuntimeError>,
    /// Virtual time at which the stream's last completed command ended.
    vdone: u64,
    /// The stream's metric handles, cached at creation so the hot paths
    /// never take the registry lock (`None` iff metrics are off).
    metrics: Option<StreamMetrics>,
}

/// Cached per-stream metric handles.
pub(crate) struct StreamMetrics {
    /// Modeled cycles per launch retired on this stream.
    launch_cycles: Arc<Histogram>,
    /// Modeled cycles per copy retired on this stream.
    copy_cycles: Arc<Histogram>,
    /// Queue depth (watermark = deepest backlog ever).
    depth: Arc<Gauge>,
}

/// Pool-wide metric handles, cached at pool creation. The registry
/// itself is reachable for label-keyed metrics (per-kernel histograms,
/// whose lookup allocates only at a kernel's first launch); everything
/// else on the per-command path goes through these `Arc`s.
pub(crate) struct PoolMetrics {
    pub(crate) registry: Arc<Registry>,
    launches: Arc<Counter>,
    copies: Arc<Counter>,
    dyn_instrs: Arc<Counter>,
    thread_ops: Arc<Counter>,
    outstanding: Arc<Gauge>,
    graph_span: Arc<Histogram>,
    /// Modeled busy cycles placed per device, indexed by device id.
    device_busy: Vec<Arc<Counter>>,
    /// Fault-recovery counters (all zero on fault-free pools).
    retries: Arc<Counter>,
    failovers: Arc<Counter>,
    recovered: Arc<Counter>,
    terminal_failures: Arc<Counter>,
    timeouts: Arc<Counter>,
    quarantines: Arc<Counter>,
    /// Modeled backoff cycles charged per retry (retry-latency
    /// percentiles come from here).
    retry_backoff: Arc<Histogram>,
}

impl PoolMetrics {
    fn new(devices: usize) -> Self {
        let registry = Arc::new(Registry::new());
        PoolMetrics {
            launches: registry.counter(metric::LAUNCHES, ""),
            copies: registry.counter(metric::COPIES, ""),
            dyn_instrs: registry.counter(metric::DYN_INSTRS, ""),
            thread_ops: registry.counter(metric::THREAD_OPS, ""),
            outstanding: registry.gauge(metric::OUTSTANDING, ""),
            graph_span: registry.histogram(metric::GRAPH_SPAN_CYCLES, ""),
            device_busy: (0..devices)
                .map(|d| registry.counter(metric::DEVICE_BUSY_CYCLES, &labels::device(d)))
                .collect(),
            retries: registry.counter(metric::RETRIES, ""),
            failovers: registry.counter(metric::FAILOVERS, ""),
            recovered: registry.counter(metric::RECOVERED, ""),
            terminal_failures: registry.counter(metric::TERMINAL_FAILURES, ""),
            timeouts: registry.counter(metric::TIMEOUTS, ""),
            quarantines: registry.counter(metric::QUARANTINES, ""),
            retry_backoff: registry.histogram(metric::RETRY_BACKOFF_CYCLES, ""),
            registry,
        }
    }

    /// Record one retired launch (stream or graph path).
    fn record_launch(&self, device: usize, stats: &ExecStats) {
        self.launches.inc();
        self.dyn_instrs.add(stats.instructions);
        self.thread_ops.add(stats.thread_ops);
        self.device_busy[device].add(stats.cycles);
    }

    /// Record one retired copy (stream or graph path).
    fn record_copy(&self, device: usize, cycles: u64) {
        self.copies.inc();
        self.device_busy[device].add(cycles);
    }

    /// Record modeled cycles of one launch under its kernel label.
    pub(crate) fn record_kernel_cycles(&self, kernel: &str, cycles: u64) {
        self.registry
            .histogram(metric::LAUNCH_CYCLES, kernel)
            .record(cycles);
    }

    /// Record the modeled critical-path span of one graph replay.
    pub(crate) fn record_graph_span(&self, span_cycles: u64) {
        self.graph_span.record(span_cycles);
    }
}

/// An in-progress stream capture: commands of participating streams are
/// recorded as graph nodes instead of executing. The first stream to
/// call `begin_capture` is the *origin* and must be the one to call
/// `end_capture`; other streams join with their own `begin_capture` and
/// contribute nodes ordered by captured events.
pub(crate) struct CaptureSession {
    /// Session generation (distinguishes events of older captures).
    generation: u64,
    /// Stream that started (and must end) the capture.
    origin: usize,
    /// Streams recording into this session.
    participants: HashSet<usize>,
    /// Captured nodes so far.
    nodes: Vec<GraphNode>,
    /// Last captured node per stream (the per-stream chain edge).
    tails: HashMap<usize, usize>,
    /// Extra dependencies (from captured event waits) to attach to a
    /// stream's next node.
    pending: HashMap<usize, Vec<usize>>,
}

/// Completion-trace cap: the trace is a diagnostic; past this many
/// records, completions still count in the stats but are no longer
/// appended (a long-running runtime must not grow without bound).
const COMPLETION_TRACE_CAP: usize = 1 << 16;

/// Everything behind the scheduler mutex.
pub(crate) struct SchedState {
    streams: Vec<StreamState>,
    stream_stats: Vec<StreamStats>,
    device_stats: Vec<DeviceStats>,
    completions: Vec<CompletionRecord>,
    /// Completions not recorded because the trace hit its cap.
    completions_dropped: u64,
    /// Queued plus in-flight commands.
    outstanding: usize,
    first_error: Option<RuntimeError>,
    /// Per-device compute-engine clock (virtual cycles).
    vcompute: Vec<u64>,
    /// Per-device copy-engine clock (virtual cycles).
    vcopy: Vec<u64>,
    /// Per-device rotating scan offset (batch-level round-robin).
    scan_from: Vec<usize>,
    /// Active stream-capture session, if any.
    capture: Option<CaptureSession>,
    /// Capture generation counter.
    capture_generation: u64,
    /// Workers hold off claiming while set (deterministic-schedule
    /// testing: build a full backlog, then release it at once).
    paused: bool,
    /// Workers asleep on `Shared::work`.
    parked_workers: usize,
    /// `synchronize` callers asleep on `Shared::idle`.
    parked_syncs: usize,
    /// Per-device health, driven by the fault tracker below against
    /// the recovery config's fault budget. Quarantined devices are
    /// excluded from stream placement and graph replay.
    device_health: Vec<DeviceHealth>,
    /// Faults blamed on each device since its last reset.
    device_faults: Vec<u64>,
    /// Set by `reset_device` on the sticky-fault target: readmission
    /// models a replaced part, so the sticky fault retires with it.
    sticky_disabled: bool,
    /// Devices quarantined since the last postmortem collection
    /// (`Runtime` assembles a `postmortem("device-quarantined")`
    /// bundle for each at the next synchronization point).
    pending_quarantines: Vec<usize>,
}

impl SchedState {
    fn record_completion(&mut self, rec: CompletionRecord) {
        if self.completions.len() < COMPLETION_TRACE_CAP {
            self.completions.push(rec);
        } else {
            self.completions_dropped += 1;
        }
    }
}

/// Shared scheduler handle.
pub(crate) struct Shared {
    pub(crate) cfg: RuntimeConfig,
    state: Mutex<SchedState>,
    /// Workers wait here for runnable commands.
    work: Condvar,
    /// `synchronize` waits here for quiescence.
    idle: Condvar,
    /// Bumped by every work notification; an idle worker spinning
    /// outside the lock watches it instead of parking on `work`.
    work_epoch: AtomicU64,
    /// Spin budget of every wait in the pool (zero: park at once; see
    /// [`crate::handoff`]).
    pub(crate) spin: Duration,
    pub(crate) shutdown: AtomicBool,
    /// The always-on event ring (`Some` unless
    /// [`RuntimeConfig::flight_capacity`] is zero — the off switch
    /// exists only to measure the disabled path). Its detail tier is on
    /// iff the pool was configured with a
    /// [`simt_profile::ProfileConfig`].
    pub(crate) tracer: Option<Arc<Tracer>>,
    /// Always-on pool metrics (`Some` unless [`RuntimeConfig::metrics`]
    /// was switched off to measure the disabled path).
    pub(crate) metrics: Option<PoolMetrics>,
    /// Compiled fault-injection oracle (`Some` iff the pool was
    /// configured with [`RuntimeConfig::with_chaos`]).
    plan: Option<FaultPlan>,
    started: Instant,
}

/// A `CopyOut` completion cell plus the words to deliver into it.
type CopyDelivery = (Arc<Slot<Result<Vec<u32>, RuntimeError>>>, Vec<u32>);

/// One executed command, ready to publish.
enum Done {
    Copy {
        seq: u64,
        kind: CommandKind,
        words: u64,
        cycles: u64,
        wall: Duration,
        /// `CopyOut` payload to resolve at publish time.
        sink: Option<CopyDelivery>,
        /// This success is a recovery from an earlier fault.
        faulted: bool,
        /// Device the faulted attempt was blamed on (failover target
        /// exclusion at placement).
        avoid: Option<usize>,
    },
    Launch {
        seq: u64,
        stats: ExecStats,
        cache_hit: bool,
        compile_hit: bool,
        wall: Duration,
        /// Kernel name for the ring's kernel record and kernel-labeled
        /// latency histograms (cloned only when one of them will read
        /// it).
        kernel: String,
        sink: Arc<Slot<Result<ExecStats, RuntimeError>>>,
        /// This success is a recovery from an earlier fault.
        faulted: bool,
        /// Device the faulted attempt was blamed on (failover target
        /// exclusion at placement).
        avoid: Option<usize>,
    },
    Failed {
        seq: u64,
        kind: CommandKind,
        error: RuntimeError,
        cmd: Command,
    },
    /// A recoverable fault: injected by the chaos plan, or a real
    /// watchdog timeout. `publish` decides retry (requeue with
    /// backoff) vs terminal failure (attempts exhausted → stream
    /// poison), updates the blamed device's fault tracker, and charges
    /// `cycles` (the watchdog budget for hangs, zero otherwise) to its
    /// compute engine.
    Fault {
        /// The faulted command, ready to requeue (attempt not yet
        /// bumped; `faulted` already set).
        pending: Pending,
        kind: FaultKind,
        /// False for a real watchdog timeout, true for chaos faults.
        injected: bool,
        /// Blamed device (plan-derived pseudo-dispatch target for
        /// injected faults; the executing device for real timeouts).
        device: usize,
        error: RuntimeError,
        /// Modeled cycles the fault occupied the blamed device.
        cycles: u64,
    },
}

impl Shared {
    pub(crate) fn new(cfg: RuntimeConfig, spin: Duration) -> Self {
        let d = cfg.devices;
        let cfg_metrics = cfg.metrics;
        let tracer = (cfg.flight_capacity > 0)
            .then(|| Arc::new(Tracer::new(cfg.flight_capacity, cfg.profile.is_some())));
        let plan = cfg.chaos.as_ref().map(FaultPlan::new);
        Shared {
            cfg,
            state: Mutex::new(SchedState {
                streams: Vec::new(),
                stream_stats: Vec::new(),
                device_stats: vec![DeviceStats::default(); d],
                completions: Vec::new(),
                completions_dropped: 0,
                outstanding: 0,
                first_error: None,
                vcompute: vec![0; d],
                vcopy: vec![0; d],
                scan_from: vec![0; d],
                capture: None,
                capture_generation: 0,
                paused: false,
                parked_workers: 0,
                parked_syncs: 0,
                device_health: vec![DeviceHealth::Healthy; d],
                device_faults: vec![0; d],
                sticky_disabled: false,
                pending_quarantines: Vec::new(),
            }),
            work: Condvar::new(),
            idle: Condvar::new(),
            work_epoch: AtomicU64::new(0),
            spin,
            shutdown: AtomicBool::new(false),
            tracer,
            metrics: if cfg_metrics {
                Some(PoolMetrics::new(d))
            } else {
                None
            },
            plan,
            started: Instant::now(),
        }
    }

    /// Record one decision into the event ring (one branch on `None`
    /// when the ring is off; eager `event` construction stays cheap —
    /// ids, cycles and already-computed gauge values; sites whose event
    /// would allocate check [`Shared::tracer`] first).
    pub(crate) fn record(&self, event: TraceEvent) {
        if let Some(t) = &self.tracer {
            t.record(event);
        }
    }

    /// Whether the ring's detail tier is on.
    pub(crate) fn detail(&self) -> bool {
        self.tracer.as_ref().is_some_and(|t| t.detail())
    }

    /// Tell the workers there may be work: bump the epoch spinning
    /// workers watch, and wake parked ones — only if there are any,
    /// since every notify is a syscall. Called under the state lock,
    /// so the parked count is exact.
    fn notify_work(&self, state: &SchedState) {
        self.work_epoch.fetch_add(1, Ordering::Release);
        if state.parked_workers > 0 {
            self.work.notify_all();
        }
    }

    /// Wake parked `synchronize` callers, if any (under the state
    /// lock).
    fn notify_idle(&self, state: &SchedState) {
        if state.parked_syncs > 0 {
            self.idle.notify_all();
        }
    }

    /// Wake every sleeping worker and waiter (shutdown path).
    pub(crate) fn wake_all(&self) {
        let state = self.state.lock().unwrap();
        self.notify_work(&state);
        self.notify_idle(&state);
    }

    /// Register a stream (not device-affine: every command is placed at
    /// dispatch).
    pub(crate) fn add_stream(&self) -> usize {
        let mut state = self.state.lock().unwrap();
        let id = state.streams.len();
        let metrics = self.metrics.as_ref().map(|m| {
            let label = labels::stream(id);
            StreamMetrics {
                launch_cycles: m.registry.histogram(metric::STREAM_LAUNCH_CYCLES, &label),
                copy_cycles: m.registry.histogram(metric::STREAM_COPY_CYCLES, &label),
                depth: m.registry.gauge(metric::QUEUE_DEPTH, &label),
            }
        });
        state.streams.push(StreamState {
            queue: VecDeque::new(),
            next_seq: 0,
            buffer: Some(vec![0u32; self.cfg.device.memory_words]),
            busy: false,
            poisoned: None,
            vdone: 0,
            metrics,
        });
        state.stream_stats.push(StreamStats::default());
        id
    }

    /// Hold every worker off claiming new batches (in-flight batches
    /// finish). With the pool paused, enqueues build a backlog whose
    /// drain order on resume is deterministic for a single worker —
    /// the substrate for schedule-sensitive tests and watermark
    /// assertions.
    pub(crate) fn pause(&self) {
        let mut state = self.state.lock().unwrap();
        state.paused = true;
        self.record(TraceEvent::Pause);
    }

    /// Release paused workers.
    pub(crate) fn resume(&self) {
        let mut state = self.state.lock().unwrap();
        state.paused = false;
        self.record(TraceEvent::Resume);
        self.notify_work(&state);
    }

    /// Begin capturing `stream`: its commands record into the active
    /// capture session (created if none) instead of executing.
    pub(crate) fn begin_capture(&self, stream: usize) -> Result<(), RuntimeError> {
        let mut state = self.state.lock().unwrap();
        match state.capture.as_mut() {
            Some(session) => {
                if !session.participants.insert(stream) {
                    return Err(RuntimeError::Capture(format!(
                        "stream {stream} is already capturing"
                    )));
                }
                Ok(())
            }
            None => {
                state.capture_generation += 1;
                let generation = state.capture_generation;
                state.capture = Some(CaptureSession {
                    generation,
                    origin: stream,
                    participants: HashSet::from([stream]),
                    nodes: Vec::new(),
                    tails: HashMap::new(),
                    pending: HashMap::new(),
                });
                Ok(())
            }
        }
    }

    /// Is `stream` currently recording into a capture session?
    pub(crate) fn is_capturing(&self, stream: usize) -> bool {
        self.state
            .lock()
            .unwrap()
            .capture
            .as_ref()
            .is_some_and(|session| session.participants.contains(&stream))
    }

    /// Finish the capture session. Must be called on the origin stream;
    /// every participant stops capturing.
    pub(crate) fn end_capture(&self, stream: usize) -> Result<ExecGraph, RuntimeError> {
        let mut state = self.state.lock().unwrap();
        match &state.capture {
            None => Err(RuntimeError::Capture(
                "no stream capture is in progress".into(),
            )),
            Some(session) if session.origin != stream => Err(RuntimeError::Capture(format!(
                "end_capture on stream {stream}, but the capture began on stream {}",
                session.origin
            ))),
            Some(_) => {
                let session = state.capture.take().expect("checked above");
                ExecGraph::from_nodes(session.nodes)
                    .map_err(|e| RuntimeError::Capture(e.to_string()))
            }
        }
    }

    /// Record one command into the capture session (the stream is a
    /// participant). Launch and copy-out handles resolve immediately
    /// with [`RuntimeError::Captured`] — a captured command has no
    /// execution result.
    fn capture_command(session: &mut CaptureSession, stream: usize, cmd: Command) {
        let op = match cmd {
            Command::RecordEvent(event) => {
                event.set_capture_tag(session.generation, session.tails.get(&stream).copied());
                return;
            }
            Command::WaitEvent(event) => {
                if let Some((generation, node)) = event.capture_tag() {
                    if generation == session.generation {
                        if let Some(node) = node {
                            session.pending.entry(stream).or_default().push(node);
                        }
                    }
                }
                return;
            }
            Command::CopyIn { dst, data } => GraphOp::CopyIn { dst, data },
            Command::CopyOut { src, len, sink } => {
                sink.set(Err(RuntimeError::Captured));
                GraphOp::CopyOut { src, len }
            }
            Command::Launch { spec, sink } => {
                sink.set(Err(RuntimeError::Captured));
                GraphOp::Launch(spec)
            }
        };
        let mut deps: Vec<NodeId> = Vec::new();
        if let Some(&tail) = session.tails.get(&stream) {
            deps.push(NodeId::from_index(tail));
        }
        for dep in session.pending.remove(&stream).unwrap_or_default() {
            let dep = NodeId::from_index(dep);
            if !deps.contains(&dep) {
                deps.push(dep);
            }
        }
        let id = session.nodes.len();
        session.nodes.push(GraphNode { op, deps });
        session.tails.insert(stream, id);
    }

    /// The error a poisoned stream reports for commands *after* the one
    /// that actually failed: the sticky [`RuntimeError::StreamPoisoned`]
    /// marker (the CUDA model — only the failing command carries the
    /// root cause), except shutdown, which stays [`RuntimeError::Shutdown`]
    /// so late-held handles remain attributable.
    fn sticky_error(st: &StreamState, stream: usize) -> RuntimeError {
        match st.poisoned.as_ref() {
            Some(RuntimeError::Shutdown) => RuntimeError::Shutdown,
            _ => RuntimeError::StreamPoisoned { stream },
        }
    }

    /// Enqueue a command onto a stream.
    pub(crate) fn enqueue(&self, stream: usize, cmd: Command) {
        let mut state = self.state.lock().unwrap();
        if let Some(session) = state.capture.as_mut() {
            if session.participants.contains(&stream) {
                Self::capture_command(session, stream, cmd);
                return;
            }
        }
        // Events become waitable the moment their record is enqueued —
        // under the scheduler lock, so cross-stream enqueue races see a
        // consistent order. (Captured records above deliberately do
        // not: they order graph nodes, not live streams.)
        if let Command::RecordEvent(event) = &cmd {
            event.mark_recorded();
        }
        let st = &mut state.streams[stream];
        let seq = st.next_seq;
        st.next_seq += 1;
        // A stream opened after shutdown has no sticky error yet, but
        // the workers are gone — poison it here so its commands fail
        // fast instead of queueing forever.
        if st.poisoned.is_none() && self.shutdown.load(std::sync::atomic::Ordering::Relaxed) {
            st.poisoned = Some(RuntimeError::Shutdown);
        }
        if st.poisoned.is_some() {
            // Poisoned streams fail everything immediately (the CUDA
            // sticky-error model), still in order. Only the command
            // that failed carries the original error; everything after
            // it sees the sticky marker until `Stream::reset`.
            let sticky = Self::sticky_error(st, stream);
            let vdone = st.vdone;
            cmd.resolve_err(&sticky, vdone);
            state.stream_stats[stream].commands += 1;
            state.record_completion(CompletionRecord {
                stream,
                seq,
                device: 0,
                kind: cmd.kind(),
                start: vdone,
                end: vdone,
            });
            self.notify_idle(&state);
            return;
        }
        let kind = cmd.kind();
        st.queue.push_back(Pending::first(seq, cmd));
        state.outstanding += 1;
        if self.metrics.is_some() {
            let depth = state.streams[stream].queue.len() as u64;
            if let Some(sm) = &state.streams[stream].metrics {
                sm.depth.set(depth);
            }
            if let Some(m) = &self.metrics {
                m.outstanding.set(state.outstanding as u64);
            }
        }
        let st = &state.streams[stream];
        self.record(TraceEvent::Enqueue {
            stream,
            kind,
            depth: st.queue.len() as u64,
            outstanding: state.outstanding as u64,
            at: st.vdone,
        });
        self.notify_work(&state);
    }

    /// Block until no command is queued or in flight; surfaces the first
    /// error the runtime hit (sticky).
    pub(crate) fn synchronize(&self) -> Result<(), RuntimeError> {
        let mut state = self.state.lock().unwrap();
        while state.outstanding > 0 {
            state.parked_syncs += 1;
            state = self.idle.wait(state).unwrap();
            state.parked_syncs -= 1;
        }
        match &state.first_error {
            Some(e) => Err(e.clone()),
            None => Ok(()),
        }
    }

    /// Snapshot the accounting.
    pub(crate) fn stats(&self) -> RuntimeStats {
        let state = self.state.lock().unwrap();
        let makespan = state
            .streams
            .iter()
            .map(|s| s.vdone)
            .chain(state.vcompute.iter().copied())
            .chain(state.vcopy.iter().copied())
            .max()
            .unwrap_or(0);
        RuntimeStats {
            streams: state.stream_stats.clone(),
            devices: state.device_stats.clone(),
            completions: state.completions.clone(),
            completions_dropped: state.completions_dropped,
            compile_evictions: 0, // filled by Runtime::stats
            wall: self.started.elapsed(),
            makespan_cycles: makespan,
            fmax_mhz: self.cfg.device.fmax_mhz,
        }
    }

    /// Snapshot the pool metrics (`None` iff metrics are off): refresh
    /// the live gauges under the scheduler lock, snapshot the registry,
    /// then append the derived virtual-timeline entries (makespan,
    /// per-engine clocks, per-stream frontiers) and the observability
    /// drop counters. Sorted, so byte-deterministic given the recorded
    /// samples.
    pub(crate) fn metrics_snapshot(&self) -> Option<MetricsSnapshot> {
        let m = self.metrics.as_ref()?;
        let state = self.state.lock().unwrap();
        m.outstanding.set(state.outstanding as u64);
        for st in &state.streams {
            if let Some(sm) = &st.metrics {
                sm.depth.set(st.queue.len() as u64);
            }
        }
        let mut snap = m.registry.snapshot();
        let makespan = state
            .streams
            .iter()
            .map(|s| s.vdone)
            .chain(state.vcompute.iter().copied())
            .chain(state.vcopy.iter().copied())
            .max()
            .unwrap_or(0);
        snap.push_gauge(metric::MAKESPAN_CYCLES, "", makespan as f64);
        for (d, &v) in state.vcompute.iter().enumerate() {
            snap.push_gauge(metric::DEVICE_COMPUTE_CYCLES, &labels::device(d), v as f64);
        }
        for (d, &v) in state.vcopy.iter().enumerate() {
            snap.push_gauge(metric::DEVICE_COPY_CYCLES, &labels::device(d), v as f64);
        }
        for (sid, st) in state.streams.iter().enumerate() {
            snap.push_gauge(
                metric::STREAM_VDONE_CYCLES,
                &labels::stream(sid),
                st.vdone as f64,
            );
        }
        for (d, h) in state.device_health.iter().enumerate() {
            snap.push_gauge(
                metric::DEVICE_HEALTH,
                &labels::device(d),
                h.severity() as f64,
            );
        }
        for (d, &f) in state.device_faults.iter().enumerate() {
            snap.push_counter(metric::DEVICE_FAULTS, &labels::device(d), f);
        }
        snap.push_counter(metric::COMPLETIONS_DROPPED, "", state.completions_dropped);
        snap.push_counter(
            metric::TRACER_DROPPED,
            "",
            self.tracer.as_ref().map_or(0, |t| t.dropped()),
        );
        snap.sort();
        Some(snap)
    }

    /// Fail every still-queued command after shutdown, so handles held
    /// past the runtime's lifetime resolve instead of hanging.
    pub(crate) fn drain_after_shutdown(&self) {
        let mut state = self.state.lock().unwrap();
        for sid in 0..state.streams.len() {
            let vdone = state.streams[sid].vdone;
            if state.streams[sid].poisoned.is_none() {
                state.streams[sid].poisoned = Some(RuntimeError::Shutdown);
            }
            while let Some(p) = state.streams[sid].queue.pop_front() {
                let kind = p.cmd.kind();
                p.cmd.resolve_err(&RuntimeError::Shutdown, vdone);
                state.stream_stats[sid].commands += 1;
                state.record_completion(CompletionRecord {
                    stream: sid,
                    seq: p.seq,
                    device: 0,
                    kind,
                    start: vdone,
                    end: vdone,
                });
                state.outstanding -= 1;
            }
        }
        self.notify_idle(&state);
    }

    /// Clear a stream's sticky error so it accepts new work again
    /// (CUDA's destroy-and-recreate recovery, folded into a reset).
    pub(crate) fn reset_stream(&self, stream: usize) {
        let mut state = self.state.lock().unwrap();
        state.streams[stream].poisoned = None;
    }

    /// Readmit a device: back to `Healthy`, fault counter cleared.
    /// When the device is the chaos plan's sticky-failure target, the
    /// sticky fault retires with the reset — the model is a replaced
    /// part, not a rebooted broken one, so the readmitted device
    /// genuinely recovers.
    pub(crate) fn reset_device(&self, device: usize) {
        let mut state = self.state.lock().unwrap();
        state.device_health[device] = DeviceHealth::Healthy;
        state.device_faults[device] = 0;
        if self
            .plan
            .as_ref()
            .and_then(|p| p.sticky())
            .is_some_and(|s| s.device == device)
        {
            state.sticky_disabled = true;
        }
        self.record(TraceEvent::DeviceReset { device });
    }

    /// Current per-device health states.
    pub(crate) fn device_health(&self) -> Vec<DeviceHealth> {
        self.state.lock().unwrap().device_health.clone()
    }

    /// Devices quarantined since the last call (the postmortem queue:
    /// `Runtime` drains this at synchronization points and assembles a
    /// bundle per device).
    pub(crate) fn take_pending_quarantines(&self) -> Vec<usize> {
        std::mem::take(&mut self.state.lock().unwrap().pending_quarantines)
    }

    /// Place one graph-replay command on the least-loaded engine of the
    /// matching kind (the same dispatch rule stream commands use) and
    /// merge it into the placement device's accounting. Every replayed
    /// launch counts as a compile hit: it runs the program bound at
    /// instantiation. Returns `(device, start, end)` in virtual cycles;
    /// the caller records the placement.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn place_graph_command(
        &self,
        kind: CommandKind,
        ready: u64,
        cycles: u64,
        words: u64,
        exec: Option<&ExecStats>,
        cache_hit: bool,
        wall: Duration,
    ) -> (usize, u64, u64) {
        let mut state = self.state.lock().unwrap();
        let compute = matches!(kind, CommandKind::Launch);
        let SchedState {
            vcompute,
            vcopy,
            device_health,
            ..
        } = &mut *state;
        let engines = if compute { vcompute } else { vcopy };
        let (p, start) = place(engines, ready, cycles, device_health, None);
        let end = start + cycles;
        let ds = &mut state.device_stats[p];
        ds.placements += 1;
        ds.busy_cycles += cycles;
        ds.busy_wall += wall;
        match kind {
            CommandKind::Launch => {
                ds.launches += 1;
                if cache_hit {
                    ds.cache_hits += 1;
                } else {
                    ds.cache_misses += 1;
                }
                ds.compile_hits += 1;
                if let Some(stats) = exec {
                    ds.compute.merge(stats);
                }
            }
            _ => {
                ds.copies += 1;
                let _ = words;
            }
        }
        if let Some(m) = &self.metrics {
            match kind {
                CommandKind::Launch => {
                    if let Some(stats) = exec {
                        m.record_launch(p, stats);
                    }
                }
                _ => m.record_copy(p, cycles),
            }
        }
        (p, start, end)
    }

    /// Resolve any event commands at the head of idle streams and pop a
    /// batch of executable commands if one is ready (any worker may
    /// claim any stream's batch — placement happens at publish).
    /// Runs under the scheduler lock.
    fn claim(&self, state: &mut SchedState, d: usize) -> Option<ClaimedBatch> {
        let n = state.streams.len();
        loop {
            let mut progress = false;
            let start = state.scan_from[d] % n.max(1);
            for k in 0..n {
                let sid = (start + k) % n;
                if state.streams[sid].busy {
                    continue;
                }
                // Resolve leading event commands inline.
                loop {
                    let resolved = {
                        let st = &mut state.streams[sid];
                        match st.queue.front().map(|p| &p.cmd) {
                            Some(Command::RecordEvent(e)) => {
                                e.signal(st.vdone);
                                true
                            }
                            Some(Command::WaitEvent(e)) => match e.signal_time() {
                                Some(t) => {
                                    st.vdone = st.vdone.max(t);
                                    true
                                }
                                // Never recorded anywhere: the wait is a
                                // no-op (CUDA contract), not a deadlock.
                                None => !e.is_recorded(),
                            },
                            _ => false,
                        }
                    };
                    if !resolved {
                        break;
                    }
                    let st = &mut state.streams[sid];
                    let Pending { seq, cmd, .. } = st.queue.pop_front().unwrap();
                    let kind = cmd.kind();
                    let at = st.vdone;
                    state.stream_stats[sid].commands += 1;
                    state.record_completion(CompletionRecord {
                        stream: sid,
                        seq,
                        device: d,
                        kind,
                        start: at,
                        end: at,
                    });
                    match kind {
                        CommandKind::EventRecord => self.record(TraceEvent::EventRecord {
                            stream: sid,
                            seq,
                            device: d,
                            at,
                        }),
                        CommandKind::EventWait => self.record(TraceEvent::EventWait {
                            stream: sid,
                            seq,
                            device: d,
                            at,
                        }),
                        _ => {}
                    }
                    state.outstanding -= 1;
                    progress = true;
                }
                // Batch consecutive executable commands, stopping after a
                // launch so co-resident streams interleave. Fault
                // decisions are drawn here, under the lock, so the
                // sticky-device eligibility check sees a consistent
                // health state (the decision itself is a pure hash of
                // (seed, stream, seq, attempt) — claim order does not
                // perturb it).
                let sticky_active = self
                    .plan
                    .as_ref()
                    .and_then(|plan| plan.sticky())
                    .is_some_and(|s| {
                        !state.sticky_disabled
                            && state.device_health[s.device] != DeviceHealth::Quarantined
                    });
                let st = &mut state.streams[sid];
                if matches!(
                    st.queue.front().map(|p| &p.cmd),
                    Some(Command::CopyIn { .. })
                        | Some(Command::CopyOut { .. })
                        | Some(Command::Launch { .. })
                ) {
                    let mut batch = Vec::new();
                    while batch.len() < self.cfg.max_batch {
                        let (is_launch, is_copy) = match st.queue.front().map(|p| &p.cmd) {
                            Some(Command::Launch { .. }) => (true, false),
                            Some(Command::CopyIn { .. }) | Some(Command::CopyOut { .. }) => {
                                (false, true)
                            }
                            _ => break,
                        };
                        let p = st.queue.pop_front().unwrap();
                        let fault = self.plan.as_ref().and_then(|plan| {
                            plan.decide(
                                sid as u64,
                                p.seq,
                                p.attempt as u64,
                                is_copy,
                                self.cfg.devices,
                                p.avoid,
                                sticky_active,
                            )
                        });
                        batch.push((p, fault));
                        if is_launch {
                            break;
                        }
                    }
                    if let Some(sm) = &st.metrics {
                        sm.depth.set(st.queue.len() as u64);
                    }
                    st.busy = true;
                    state.scan_from[d] = sid + 1;
                    self.record(TraceEvent::Batch {
                        stream: sid,
                        commands: batch.len() as u64,
                    });
                    if progress {
                        self.notify_work(state);
                        self.notify_idle(state);
                    }
                    return Some((sid, batch));
                }
            }
            if !progress {
                return None;
            }
            // Inline event resolution may have unblocked streams on other
            // devices; let their workers rescan, then rescan ours.
            self.notify_work(state);
            self.notify_idle(state);
        }
    }

    /// Publish a finished batch: *place* each command on the
    /// least-loaded device's virtual engine (breaking stream-device
    /// affinity), advance the timeline in completion order, merge
    /// stats, resolve sinks, drain the stream if it was poisoned.
    /// `d` is the physical worker that executed the batch; it only
    /// accounts for `batches`. `requeue` is the unexecuted tail of a
    /// batch cut short by a fault — it returns to the queue front, in
    /// order, behind the retried command itself.
    fn publish(
        &self,
        sid: usize,
        d: usize,
        done: Vec<Done>,
        requeue: Vec<Pending>,
        buffer: Vec<u32>,
    ) {
        let mut state = self.state.lock().unwrap();
        // Reborrow through the guard once so disjoint field borrows
        // (engine clocks vs health mask) work below.
        let state = &mut *state;
        // Commands whose handle resolved (retried commands stay
        // outstanding).
        let mut resolved = 0usize;
        let mut retry: Option<Pending> = None;
        for item in done {
            match item {
                Done::Copy {
                    seq,
                    kind,
                    words,
                    cycles,
                    wall,
                    sink,
                    faulted,
                    avoid,
                } => {
                    resolved += 1;
                    let ready = state.streams[sid].vdone;
                    let (p, start) =
                        place(&mut state.vcopy, ready, cycles, &state.device_health, avoid);
                    let end = start + cycles;
                    state.streams[sid].vdone = end;
                    let ss = &mut state.stream_stats[sid];
                    ss.commands += 1;
                    ss.copies += 1;
                    ss.copy_words += words;
                    ss.copy_cycles += cycles;
                    ss.busy_wall += wall;
                    let ds = &mut state.device_stats[p];
                    ds.copies += 1;
                    ds.placements += 1;
                    ds.batched_commands += 1;
                    ds.busy_cycles += cycles;
                    ds.busy_wall += wall;
                    state.record_completion(CompletionRecord {
                        stream: sid,
                        seq,
                        device: p,
                        kind,
                        start,
                        end,
                    });
                    if let Some(m) = &self.metrics {
                        m.record_copy(p, cycles);
                        if faulted {
                            m.recovered.inc();
                        }
                        if let Some(sm) = &state.streams[sid].metrics {
                            sm.copy_cycles.record(cycles);
                        }
                    }
                    self.record(TraceEvent::Copy {
                        stream: sid,
                        seq,
                        device: p,
                        to_device: matches!(kind, CommandKind::CopyIn),
                        words,
                        start,
                        end,
                    });
                    if let Some((slot, data)) = sink {
                        slot.set(Ok(data));
                    }
                }
                Done::Launch {
                    seq,
                    stats,
                    cache_hit,
                    compile_hit,
                    wall,
                    kernel,
                    sink,
                    faulted,
                    avoid,
                } => {
                    resolved += 1;
                    let cycles = stats.cycles;
                    let ready = state.streams[sid].vdone;
                    let (p, start) = place(
                        &mut state.vcompute,
                        ready,
                        cycles,
                        &state.device_health,
                        avoid,
                    );
                    let end = start + cycles;
                    state.streams[sid].vdone = end;
                    let ss = &mut state.stream_stats[sid];
                    ss.commands += 1;
                    ss.launches += 1;
                    ss.compute.merge(&stats);
                    ss.busy_wall += wall;
                    let ds = &mut state.device_stats[p];
                    ds.launches += 1;
                    ds.placements += 1;
                    ds.batched_commands += 1;
                    if cache_hit {
                        ds.cache_hits += 1;
                    } else {
                        ds.cache_misses += 1;
                    }
                    if compile_hit {
                        ds.compile_hits += 1;
                    } else {
                        ds.compile_misses += 1;
                    }
                    ds.busy_cycles += cycles;
                    ds.compute.merge(&stats);
                    ds.busy_wall += wall;
                    state.record_completion(CompletionRecord {
                        stream: sid,
                        seq,
                        device: p,
                        kind: CommandKind::Launch,
                        start,
                        end,
                    });
                    if let Some(m) = &self.metrics {
                        m.record_launch(p, &stats);
                        m.record_kernel_cycles(&kernel, cycles);
                        if faulted {
                            m.recovered.inc();
                        }
                        if let Some(sm) = &state.streams[sid].metrics {
                            sm.launch_cycles.record(cycles);
                        }
                    }
                    self.record(TraceEvent::Kernel {
                        stream: sid,
                        seq,
                        device: p,
                        kernel,
                        start,
                        end,
                        instructions: stats.instructions,
                    });
                    sink.set(Ok(stats));
                }
                Done::Failed {
                    seq,
                    kind,
                    error,
                    cmd,
                } => {
                    resolved += 1;
                    let vdone = state.streams[sid].vdone;
                    // Record the failure before resolving the handle: a
                    // waiter that wakes on the error and immediately
                    // dumps the ring must see it.
                    if self.tracer.is_some() {
                        self.record(TraceEvent::Failed {
                            stream: sid,
                            kind,
                            error: error.to_string(),
                        });
                    }
                    cmd.resolve_err(&error, vdone);
                    if state.streams[sid].poisoned.is_none() {
                        state.streams[sid].poisoned = Some(error.clone());
                    }
                    if state.first_error.is_none() {
                        state.first_error = Some(error);
                    }
                    state.stream_stats[sid].commands += 1;
                    state.record_completion(CompletionRecord {
                        stream: sid,
                        seq,
                        device: d,
                        kind,
                        start: vdone,
                        end: vdone,
                    });
                }
                Done::Fault {
                    pending,
                    kind,
                    injected,
                    device,
                    error,
                    cycles,
                } => {
                    // Charge the modeled fault time (the watchdog
                    // budget for hangs, zero otherwise) to the blamed
                    // device's compute engine and push the stream
                    // frontier past it: a hang costs its full budget
                    // on the virtual timeline.
                    let ready = state.streams[sid].vdone;
                    let start = state.vcompute[device].max(ready);
                    let end = start + cycles;
                    state.vcompute[device] = end;
                    state.streams[sid].vdone = end;
                    state.device_stats[device].busy_cycles += cycles;
                    // Fault accounting and the health transition on the
                    // blamed device.
                    state.device_faults[device] += 1;
                    let faults = state.device_faults[device];
                    let was = state.device_health[device];
                    let now = if faults >= self.cfg.recovery.quarantine_after {
                        DeviceHealth::Quarantined
                    } else if faults >= self.cfg.recovery.degrade_after {
                        DeviceHealth::Degraded
                    } else {
                        was
                    };
                    if now != was {
                        state.device_health[device] = now;
                        if now == DeviceHealth::Quarantined {
                            state.pending_quarantines.push(device);
                            if let Some(m) = &self.metrics {
                                m.quarantines.inc();
                            }
                            self.record(TraceEvent::Quarantine { device, faults });
                        }
                    }
                    if let Some(m) = &self.metrics {
                        if injected {
                            m.registry
                                .counter(metric::FAULTS_INJECTED, kind.label())
                                .inc();
                        }
                        if matches!(kind, FaultKind::HungKernel) {
                            m.timeouts.inc();
                        }
                    }
                    let attempt = pending.attempt + 1;
                    self.record(TraceEvent::Fault {
                        stream: sid,
                        device,
                        attempt,
                        family: kind.label().to_string(),
                        injected,
                    });
                    if attempt < self.cfg.recovery.max_attempts {
                        // Retry: charge the modeled exponential backoff
                        // to the stream's timeline and requeue the
                        // command at the front, steered away from the
                        // blamed device.
                        let backoff = self.cfg.recovery.backoff_cycles(attempt);
                        state.streams[sid].vdone = end + backoff;
                        if let Some(m) = &self.metrics {
                            m.retries.inc();
                            m.retry_backoff.record(backoff);
                            if self.cfg.devices > 1 {
                                m.failovers.inc();
                            }
                        }
                        self.record(TraceEvent::Retry {
                            stream: sid,
                            device,
                            attempt,
                            backoff_cycles: backoff,
                        });
                        retry = Some(Pending {
                            seq: pending.seq,
                            attempt,
                            avoid: Some(device),
                            faulted: true,
                            cmd: pending.cmd,
                        });
                    } else {
                        // Attempts exhausted: the command fails with
                        // its last fault's typed error and the stream
                        // picks up the sticky poison.
                        resolved += 1;
                        if let Some(m) = &self.metrics {
                            m.terminal_failures.inc();
                        }
                        let vdone = state.streams[sid].vdone;
                        let cmd_kind = pending.cmd.kind();
                        if self.tracer.is_some() {
                            self.record(TraceEvent::Failed {
                                stream: sid,
                                kind: cmd_kind,
                                error: error.to_string(),
                            });
                        }
                        pending.cmd.resolve_err(&error, vdone);
                        if state.streams[sid].poisoned.is_none() {
                            state.streams[sid].poisoned = Some(error.clone());
                        }
                        if state.first_error.is_none() {
                            state.first_error = Some(error);
                        }
                        state.stream_stats[sid].commands += 1;
                        state.record_completion(CompletionRecord {
                            stream: sid,
                            seq: pending.seq,
                            device,
                            kind: cmd_kind,
                            start: vdone,
                            end: vdone,
                        });
                    }
                }
            }
        }
        state.outstanding -= resolved;
        state.device_stats[d].batches += 1;
        // A fault cut the batch short: the unexecuted tail returns to
        // the queue front in order, behind the retried command itself.
        {
            let st = &mut state.streams[sid];
            for p in requeue.into_iter().rev() {
                st.queue.push_front(p);
            }
            if let Some(p) = retry {
                st.queue.push_front(p);
            }
        }
        // Poisoned streams fail their entire backlog immediately with
        // the sticky marker (the root cause already went to the command
        // that failed).
        if state.streams[sid].poisoned.is_some() {
            let sticky = Self::sticky_error(&state.streams[sid], sid);
            let vdone = state.streams[sid].vdone;
            while let Some(p) = state.streams[sid].queue.pop_front() {
                let kind = p.cmd.kind();
                p.cmd.resolve_err(&sticky, vdone);
                state.stream_stats[sid].commands += 1;
                state.record_completion(CompletionRecord {
                    stream: sid,
                    seq: p.seq,
                    device: d,
                    kind,
                    start: vdone,
                    end: vdone,
                });
                state.outstanding -= 1;
            }
        }
        if let Some(m) = &self.metrics {
            m.outstanding.set(state.outstanding as u64);
            let depth = state.streams[sid].queue.len() as u64;
            if let Some(sm) = &state.streams[sid].metrics {
                sm.depth.set(depth);
            }
        }
        let st = &state.streams[sid];
        self.record(TraceEvent::Publish {
            stream: sid,
            commands: resolved as u64,
            depth: st.queue.len() as u64,
            outstanding: state.outstanding as u64,
            at: st.vdone,
        });
        state.streams[sid].buffer = Some(buffer);
        state.streams[sid].busy = false;
        self.notify_work(state);
        self.notify_idle(state);
    }
}

/// Least-loaded engine pick: the device whose engine can start this
/// command earliest given its `ready` time, ties broken toward the
/// lower device id. Quarantined devices and the retried command's
/// blamed device (`avoid`) are excluded; when the exclusions ban every
/// device (a one-device pool retrying, or everything quarantined), the
/// pick falls back to the unfiltered rule rather than deadlock.
/// Advances the chosen engine's clock past the command and returns
/// `(device, start)`.
fn place(
    engines: &mut [u64],
    ready: u64,
    cycles: u64,
    health: &[DeviceHealth],
    avoid: Option<usize>,
) -> (usize, u64) {
    let (start, p) = engines
        .iter()
        .enumerate()
        .filter(|&(d, _)| health[d] != DeviceHealth::Quarantined && Some(d) != avoid)
        .map(|(d, &t)| (t.max(ready), d))
        .min()
        .unwrap_or_else(|| {
            engines
                .iter()
                .enumerate()
                .map(|(d, &t)| (t.max(ready), d))
                .min()
                .expect("pool has at least one device")
        });
    engines[p] = start + cycles;
    (p, start)
}

/// Body of one device worker thread. Launches resolve through the
/// pool-wide `compile_cache` as they execute.
pub(crate) fn worker_loop(
    shared: Arc<Shared>,
    mut device: Device,
    compile_cache: Arc<CompileCache>,
) {
    let d = device.id;
    loop {
        // Claim a batch (or wait until there is one).
        let (sid, batch, mut buffer) = {
            let mut state = shared.state.lock().unwrap();
            // One spin per idle spell: a worker woken from a park that
            // then loses the claim parks again.
            let mut may_spin = !shared.spin.is_zero();
            loop {
                if shared.shutdown.load(Ordering::Relaxed) {
                    return;
                }
                if !state.paused {
                    if let Some((sid, batch)) = shared.claim(&mut state, d) {
                        let buffer = state.streams[sid]
                            .buffer
                            .take()
                            .expect("idle stream owns its buffer");
                        break (sid, batch, buffer);
                    }
                }
                if may_spin {
                    // Watch the work epoch outside the lock, then
                    // re-lock and re-claim before parking. An enqueue
                    // after the failed claim either bumps the epoch
                    // read here or, once the lock is retaken, finds
                    // this worker counted as parked: the re-claim and
                    // the park share one lock hold.
                    may_spin = false;
                    let seen = shared.work_epoch.load(Ordering::Acquire);
                    drop(state);
                    spin_until(shared.spin, || {
                        shared.work_epoch.load(Ordering::Acquire) != seen
                    });
                    state = shared.state.lock().unwrap();
                    continue;
                }
                state.parked_workers += 1;
                state = shared.work.wait(state).unwrap();
                state.parked_workers -= 1;
            }
        };

        // Execute outside the lock. A fault (injected or a real
        // watchdog timeout) stops the batch: the faulted command goes
        // back through `publish` for its retry/terminal decision, and
        // the unexecuted tail is returned untouched for requeueing
        // (its stale fault decisions are dropped — they are redrawn,
        // and redrawn identically, at the next claim).
        let mut done = Vec::with_capacity(batch.len());
        let mut requeue: Vec<Pending> = Vec::new();
        let mut poison: Option<RuntimeError> = None;
        let mut batch_iter = batch.into_iter();
        while let Some((pending, fault)) = batch_iter.next() {
            let Pending {
                seq,
                attempt,
                avoid,
                faulted,
                cmd,
            } = pending;
            if let Some(p) = &poison {
                done.push(Done::Failed {
                    seq,
                    kind: cmd.kind(),
                    error: p.clone(),
                    cmd,
                });
                continue;
            }
            if let Some(f) = fault {
                // Injected fault: the command never executes (no side
                // effects), so its eventual retry is bit-exact with the
                // fault-free history.
                let error = match f.kind {
                    FaultKind::TransientLaunch => RuntimeError::LaunchFault {
                        kernel: kernel_name(&cmd),
                        device: f.device,
                        attempt: attempt + 1,
                    },
                    FaultKind::HungKernel => RuntimeError::Timeout {
                        kernel: kernel_name(&cmd),
                        device: f.device,
                        budget_cycles: shared.cfg.recovery.watchdog_cycle_budget,
                    },
                    FaultKind::CopyFault => RuntimeError::CopyFault {
                        device: f.device,
                        attempt: attempt + 1,
                    },
                    FaultKind::DeviceFailure => RuntimeError::DeviceFailed { device: f.device },
                };
                let cycles = match f.kind {
                    FaultKind::HungKernel => shared.cfg.recovery.watchdog_cycle_budget,
                    _ => 0,
                };
                done.push(Done::Fault {
                    pending: Pending {
                        seq,
                        attempt,
                        avoid,
                        faulted: true,
                        cmd,
                    },
                    kind: f.kind,
                    injected: true,
                    device: f.device,
                    error,
                    cycles,
                });
                requeue.extend(batch_iter.by_ref().map(|(p, _)| p));
                break;
            }
            let t0 = Instant::now();
            match cmd {
                Command::CopyIn { dst, data } => {
                    if dst
                        .checked_add(data.len())
                        .is_none_or(|end| end > buffer.len())
                    {
                        let e = RuntimeError::CopyOutOfBounds {
                            offset: dst,
                            len: data.len(),
                            memory_words: buffer.len(),
                        };
                        poison = Some(RuntimeError::StreamPoisoned { stream: sid });
                        done.push(Done::Failed {
                            seq,
                            kind: CommandKind::CopyIn,
                            error: e,
                            cmd: Command::CopyIn {
                                dst,
                                data: Vec::new(),
                            },
                        });
                        continue;
                    }
                    buffer[dst..dst + data.len()].copy_from_slice(&data);
                    done.push(Done::Copy {
                        seq,
                        kind: CommandKind::CopyIn,
                        words: data.len() as u64,
                        cycles: device.copy_cycles(data.len()),
                        wall: t0.elapsed(),
                        sink: None,
                        faulted,
                        avoid,
                    });
                }
                Command::CopyOut { src, len, sink } => {
                    if src.checked_add(len).is_none_or(|end| end > buffer.len()) {
                        let e = RuntimeError::CopyOutOfBounds {
                            offset: src,
                            len,
                            memory_words: buffer.len(),
                        };
                        poison = Some(RuntimeError::StreamPoisoned { stream: sid });
                        done.push(Done::Failed {
                            seq,
                            kind: CommandKind::CopyOut,
                            error: e,
                            cmd: Command::CopyOut { src, len, sink },
                        });
                        continue;
                    }
                    let data = buffer[src..src + len].to_vec();
                    done.push(Done::Copy {
                        seq,
                        kind: CommandKind::CopyOut,
                        words: len as u64,
                        cycles: device.copy_cycles(len),
                        wall: t0.elapsed(),
                        sink: Some((sink, data)),
                        faulted,
                        avoid,
                    });
                }
                Command::Launch { spec, sink } => match pool::resolve(&compile_cache, &spec)
                    .and_then(|(decoded, hit)| device.run_decoded(&spec, decoded, hit, &mut buffer))
                {
                    Ok(outcome) => done.push(Done::Launch {
                        seq,
                        stats: outcome.stats,
                        cache_hit: outcome.cache_hit,
                        compile_hit: outcome.compile_hit,
                        wall: t0.elapsed(),
                        // Name only travels when someone will read it.
                        kernel: if shared.tracer.is_some() || shared.metrics.is_some() {
                            spec.name.clone()
                        } else {
                            String::new()
                        },
                        sink,
                        faulted,
                        avoid,
                    }),
                    Err(e @ RuntimeError::Timeout { .. }) => {
                        // A real watchdog kill is retryable: the budget
                        // check fires before write-back, so the buffer
                        // is untouched.
                        done.push(Done::Fault {
                            pending: Pending {
                                seq,
                                attempt,
                                avoid,
                                faulted: true,
                                cmd: Command::Launch { spec, sink },
                            },
                            kind: FaultKind::HungKernel,
                            injected: false,
                            device: d,
                            error: e,
                            cycles: shared.cfg.recovery.watchdog_cycle_budget,
                        });
                        requeue.extend(batch_iter.by_ref().map(|(p, _)| p));
                        break;
                    }
                    Err(e) => {
                        // Deterministic failures (bad program, bad
                        // config) do not benefit from a retry.
                        poison = Some(RuntimeError::StreamPoisoned { stream: sid });
                        done.push(Done::Failed {
                            seq,
                            kind: CommandKind::Launch,
                            error: e,
                            cmd: Command::Launch { spec, sink },
                        });
                    }
                },
                Command::RecordEvent(_) | Command::WaitEvent(_) => {
                    unreachable!("event commands are resolved inline by claim()")
                }
            }
        }

        shared.publish(sid, d, done, requeue, buffer);
    }
}

/// Kernel name of a launch command (empty for copies — only launch
/// faults carry one).
fn kernel_name(cmd: &Command) -> String {
    match cmd {
        Command::Launch { spec, .. } => spec.name.clone(),
        _ => String::new(),
    }
}
