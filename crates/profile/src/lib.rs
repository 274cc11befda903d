//! One event ring for the simt stack.
//!
//! Every layer of the simulator that makes a decision worth explaining
//! — the stream scheduler and graph replayer in `simt-runtime`, the
//! compile cache and pass pipeline in `simt-compiler` — records it here,
//! once:
//!
//! * [`TraceEvent`] — a typed record of one decision (enqueue, batch
//!   claim, kernel or copy placement, event record/wait, graph node
//!   placement, cache lookup, pass run, failure, fault, retry,
//!   quarantine, health finding). Events carry **modeled cycles and
//!   ids only**, never host wall-clock, so identical inputs produce
//!   identical records.
//! * [`Tracer`] — the bounded ring the producing layers share behind an
//!   `Arc`. It keeps the *newest* `capacity` events: a `fetch_add`
//!   hands out a global sequence number, and the event lands in slot
//!   `seq % capacity` behind a per-slot mutex. The ring is always on in
//!   a runtime (sized by `RuntimeConfig::flight_capacity`).
//! * [`ProfileConfig`] — the opt-in *detail tier*. Without it the ring
//!   records the compact events every decision produces anyway; with it
//!   the producers also record pass runs and the labels that cost an
//!   allocation (content-hash names of assembly kernels, graph-node
//!   kernel names), and `per_pc` switches on per-PC histograms in the
//!   µop interpreter.
//! * Views — [`chrome::chrome_trace`] renders the ring as Chrome
//!   trace-event JSON (loadable in `chrome://tracing` and Perfetto; one
//!   track per device engine, one per stream), [`summary::summarize`]
//!   folds it into a flat [`summary::TraceSummary`], and `simt-forensics`
//!   builds flight dumps, gauge timelines and postmortems from
//!   [`Tracer::dump`].
//!
//! The crate is deliberately leaf-level: it depends only on the
//! vendored `serde`, so `simt-compiler` and `simt-runtime` can both
//! record into it without dependency cycles.

#![warn(missing_docs)]

pub mod chrome;
pub mod summary;

/// The label scheme shared between traces and metrics: the Chrome
/// exporter names its tracks with these strings, and `simt-runtime`
/// labels its per-stream / per-device metrics with the *same* strings —
/// so a hot `stream_launch_cycles{stream3}` histogram cross-references
/// directly into the `stream3` track of the trace (kernel-labeled
/// metrics use `LaunchSpec::name`, which is also the span name).
pub mod labels {
    /// Track/metric label of stream `id`.
    pub fn stream(id: usize) -> String {
        format!("stream{id}")
    }

    /// Track/metric label of device `id`.
    pub fn device(id: usize) -> String {
        format!("device{id}")
    }
}

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

/// The opt-in detail tier.
///
/// Attaching a `ProfileConfig` to a runtime makes its ring also record
/// [`TraceEvent::PassRun`]s, content-hash labels for assembly kernels
/// and graph-node kernel names, and makes [`Tracer::dropped`] report
/// overwritten events (a profiled trace that lost events is partial).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProfileConfig {
    /// Also collect per-PC cycle/issue histograms inside the µop
    /// interpreter (costs one counter update per retired µop).
    pub per_pc: bool,
}

impl ProfileConfig {
    /// Everything on: the detail tier plus per-PC histograms.
    pub fn full() -> Self {
        ProfileConfig { per_pc: true }
    }
}

/// What kind of stream command a record refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CommandKind {
    /// Host→device copy.
    CopyIn,
    /// Device→host copy.
    CopyOut,
    /// Kernel launch.
    Launch,
    /// Event record.
    EventRecord,
    /// Event wait.
    EventWait,
}

/// Which kernel cache a [`TraceEvent::CacheQuery`] hit or missed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CacheTier {
    /// The source-keyed compile cache (IR/asm → program).
    Compile,
    /// The per-entry predecode cache (program → µop stream).
    Decode,
}

/// One structured record. Timestamps (`start`, `end`, `at`) are modeled
/// device cycles on the scheduler's virtual timeline — never host
/// wall-clock.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TraceEvent {
    /// A command entered a stream queue. `depth`/`outstanding` are the
    /// post-enqueue gauge values, so the ring doubles as a gauge
    /// timeline.
    Enqueue {
        /// Stream id.
        stream: usize,
        /// Command kind.
        kind: CommandKind,
        /// Queue depth of the stream after the push.
        depth: u64,
        /// Pool-wide outstanding commands after the push.
        outstanding: u64,
        /// The stream's virtual completion frontier at the push.
        at: u64,
    },
    /// A worker claimed a batch of consecutive commands from a stream.
    /// Which worker is not recorded: that is a host race, and the
    /// placement records (`Kernel`, `Copy`) name the modeled device.
    Batch {
        /// Stream id the batch came from.
        stream: usize,
        /// Commands in the batch.
        commands: u64,
    },
    /// A kernel launch ran and was placed on a device compute engine.
    Kernel {
        /// Stream the launch was submitted on.
        stream: usize,
        /// Sequence number within the stream.
        seq: u64,
        /// Device the least-loaded placement chose.
        device: usize,
        /// Kernel name (empty when the source carries none).
        kernel: String,
        /// Virtual start cycle on the compute engine.
        start: u64,
        /// Virtual end cycle (`start` + modeled kernel cycles).
        end: u64,
        /// Instructions the run issued.
        instructions: u64,
    },
    /// A host↔device copy executed on a device DMA engine.
    Copy {
        /// Stream the copy was submitted on.
        stream: usize,
        /// Sequence number within the stream.
        seq: u64,
        /// Device whose DMA engine moved the words.
        device: usize,
        /// `true` for host→device (copy-in), `false` for copy-out.
        to_device: bool,
        /// Words moved.
        words: u64,
        /// Virtual start cycle on the DMA engine.
        start: u64,
        /// Virtual end cycle.
        end: u64,
    },
    /// An event was recorded (signalled) on a stream timeline.
    EventRecord {
        /// Stream that recorded the event.
        stream: usize,
        /// Sequence number within the stream.
        seq: u64,
        /// Device worker that resolved the record.
        device: usize,
        /// Virtual cycle the event signalled at.
        at: u64,
    },
    /// A stream waited on an event.
    EventWait {
        /// Stream that waited.
        stream: usize,
        /// Sequence number within the stream.
        seq: u64,
        /// Device worker that resolved the wait.
        device: usize,
        /// Virtual cycle the wait resolved at.
        at: u64,
    },
    /// A graph node was placed on an engine during replay.
    GraphNodePlace {
        /// Node index within the graph.
        node: usize,
        /// What the node does (launch, copy-in or copy-out).
        kind: CommandKind,
        /// Device the placement chose (least-loaded engine).
        device: usize,
        /// Virtual start cycle.
        start: u64,
        /// Virtual end cycle.
        end: u64,
        /// Kernel name of a launch node (detail tier only; empty
        /// otherwise).
        kernel: String,
    },
    /// A whole graph replay completed.
    GraphReplayDone {
        /// Nodes replayed.
        nodes: usize,
        /// Modeled makespan of the replay.
        span_cycles: u64,
    },
    /// A worker finished publishing a batch's results. Gauges are the
    /// post-publish values. Like `Batch`, it does not name the worker.
    Publish {
        /// Stream id.
        stream: usize,
        /// Commands whose handles resolved.
        commands: u64,
        /// Queue depth of the stream after the publish.
        depth: u64,
        /// Pool-wide outstanding commands after the publish.
        outstanding: u64,
        /// The stream's virtual completion frontier after the publish.
        at: u64,
    },
    /// The pool was paused (workers park; queues accumulate).
    Pause,
    /// The pool was resumed.
    Resume,
    /// A compile- or decode-cache lookup resolved.
    CacheQuery {
        /// Kernel name, or a content-hash label for assembly sources
        /// (detail tier; empty otherwise).
        kernel: String,
        /// Which cache tier.
        cache: CacheTier,
        /// True on hit.
        hit: bool,
        /// Compile-tier lookups: whether the caller asked for the
        /// predecoded form along with the program.
        decoded: bool,
    },
    /// One optimization pass ran over a kernel (detail tier).
    PassRun {
        /// Kernel name.
        kernel: String,
        /// Pass name (as reported by the pipeline).
        pass: String,
        /// Instruction count entering the pass.
        insts_before: usize,
        /// Instruction count leaving the pass.
        insts_after: usize,
        /// Whether the pass changed the kernel.
        changed: bool,
    },
    /// A command failed; the stream is now poisoned.
    Failed {
        /// Stream id.
        stream: usize,
        /// Command kind.
        kind: CommandKind,
        /// Rendered runtime error.
        error: String,
    },
    /// A fault hit a command (injected by the chaos plan, or a real
    /// watchdog timeout).
    Fault {
        /// Stream id.
        stream: usize,
        /// Device the fault was blamed on.
        device: usize,
        /// Attempt number that faulted (1 = first execution).
        attempt: u32,
        /// Fault family label (see `simt_chaos::FaultKind::label`).
        family: String,
        /// False for a real watchdog timeout.
        injected: bool,
    },
    /// A faulted command was requeued for another attempt.
    Retry {
        /// Stream id.
        stream: usize,
        /// Device the faulted attempt was blamed on (the retry is
        /// steered elsewhere when the pool has an alternative).
        device: usize,
        /// Attempt number that faulted; the retry is `attempt + 1`.
        attempt: u32,
        /// Modeled backoff charged to the stream's virtual timeline.
        backoff_cycles: u64,
    },
    /// A device crossed its fault budget and left the placement pool.
    Quarantine {
        /// Device id.
        device: usize,
        /// Faults blamed on it at the transition.
        faults: u64,
    },
    /// A device was readmitted by `Runtime::reset_device`.
    DeviceReset {
        /// Device id.
        device: usize,
    },
    /// A health finding fired during a postmortem walk.
    Health {
        /// Compact finding label (see `HealthFinding::label`).
        finding: String,
    },
}

impl TraceEvent {
    /// Coarse category label, used by the views: `sched`, `kernel`,
    /// `copy`, `sync`, `graph`, `cache`, `compiler` or `fault`.
    pub fn category(&self) -> &'static str {
        match self {
            TraceEvent::Enqueue { .. }
            | TraceEvent::Batch { .. }
            | TraceEvent::Publish { .. }
            | TraceEvent::Pause
            | TraceEvent::Resume => "sched",
            TraceEvent::Kernel { .. } => "kernel",
            TraceEvent::Copy { .. } => "copy",
            TraceEvent::EventRecord { .. } | TraceEvent::EventWait { .. } => "sync",
            TraceEvent::GraphNodePlace { .. } | TraceEvent::GraphReplayDone { .. } => "graph",
            TraceEvent::CacheQuery { .. } => "cache",
            TraceEvent::PassRun { .. } => "compiler",
            TraceEvent::Failed { .. }
            | TraceEvent::Fault { .. }
            | TraceEvent::Retry { .. }
            | TraceEvent::Quarantine { .. }
            | TraceEvent::DeviceReset { .. }
            | TraceEvent::Health { .. } => "fault",
        }
    }
}

/// One recorded event with its global sequence number.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceRecord {
    /// Global sequence number (total order of [`Tracer::record`] calls).
    pub seq: u64,
    /// The event.
    pub event: TraceEvent,
}

/// Serializable snapshot of a [`Tracer`]: the surviving window plus how
/// much was recorded overall.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceDump {
    /// Total events ever recorded (≥ `events.len()`).
    pub recorded: u64,
    /// Ring capacity.
    pub capacity: u64,
    /// Surviving events, ascending by `seq`.
    pub events: Vec<TraceRecord>,
}

/// One reusable ring slot: the event and the sequence number that
/// claimed it (`None` until first written).
type Slot = Mutex<Option<(u64, TraceEvent)>>;

/// A bounded, wrap-around event ring that keeps the newest events.
///
/// [`Tracer::record`] reserves a global sequence number with a single
/// `fetch_add` and stores the event in slot `seq % capacity` through a
/// per-slot mutex. The mutex is uncontended in the common case: two
/// writers only meet on one slot when one laps the other by a full
/// ring. Recording never allocates; overwriting a slot drops the event
/// it held. A slot only ever holds a whole record, so a lock poisoned
/// by a panicking thread is taken over rather than propagated: the ring
/// must never turn one failure into a second one in its observer.
pub struct Tracer {
    head: AtomicU64,
    slots: Box<[Slot]>,
    detail: bool,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("capacity", &self.capacity())
            .field("recorded", &self.recorded())
            .field("detail", &self.detail)
            .finish()
    }
}

impl Tracer {
    /// A ring keeping the newest `capacity` events; `detail` switches
    /// on the detail tier (see [`ProfileConfig`]).
    ///
    /// # Panics
    /// If `capacity` is zero — a disabled ring is represented as `None`
    /// at the call site (a branch, not an empty ring).
    pub fn new(capacity: usize, detail: bool) -> Self {
        assert!(capacity > 0, "event ring capacity must be non-zero");
        Tracer {
            head: AtomicU64::new(0),
            slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
            detail,
        }
    }

    /// Record one event; returns its global sequence number.
    pub fn record(&self, event: TraceEvent) -> u64 {
        let seq = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = (seq % self.slots.len() as u64) as usize;
        *self.slots[slot]
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = Some((seq, event));
        seq
    }

    /// Whether the detail tier is on.
    pub fn detail(&self) -> bool {
        self.detail
    }

    /// Total events ever recorded (including overwritten ones).
    pub fn recorded(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Ring capacity in events.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Events lost to the trace: those overwritten while the detail
    /// tier is on, 0 otherwise. Overwriting is how the always-on ring
    /// normally works, so an unprofiled run never reports drops.
    pub fn dropped(&self) -> u64 {
        if self.detail {
            self.recorded().saturating_sub(self.slots.len() as u64)
        } else {
            0
        }
    }

    /// The surviving window, ascending by sequence number.
    ///
    /// Taken concurrently with writers this is a best-effort snapshot
    /// (a slot mid-overwrite shows its newest value); taken at quiesce
    /// it is exactly the last `min(recorded, capacity)` events.
    pub fn snapshot(&self) -> Vec<TraceRecord> {
        let mut out: Vec<TraceRecord> = self
            .slots
            .iter()
            .filter_map(|s| {
                let slot = s.lock().unwrap_or_else(PoisonError::into_inner);
                slot.as_ref().map(|(seq, event)| TraceRecord {
                    seq: *seq,
                    event: event.clone(),
                })
            })
            .collect();
        out.sort_by_key(|r| r.seq);
        out
    }

    /// The surviving events in record order, without sequence numbers.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.snapshot().into_iter().map(|r| r.event).collect()
    }

    /// Serializable dump of the surviving window.
    pub fn dump(&self) -> TraceDump {
        TraceDump {
            recorded: self.recorded(),
            capacity: self.slots.len() as u64,
            events: self.snapshot(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn kernel(seq: u64) -> TraceEvent {
        TraceEvent::Kernel {
            stream: 0,
            seq,
            device: 0,
            kernel: "k".into(),
            start: 10 * seq,
            end: 10 * seq + 5,
            instructions: 3,
        }
    }

    fn enq(stream: usize, depth: u64) -> TraceEvent {
        TraceEvent::Enqueue {
            stream,
            kind: CommandKind::Launch,
            depth,
            outstanding: depth,
            at: 0,
        }
    }

    #[test]
    fn record_order_is_reservation_order() {
        let t = Tracer::new(8, true);
        for seq in 0..5 {
            assert_eq!(t.record(kernel(seq)), seq);
        }
        let ev = t.events();
        assert_eq!(ev.len(), 5);
        for (i, e) in ev.iter().enumerate() {
            assert_eq!(e, &kernel(i as u64));
        }
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn ring_keeps_the_newest_window() {
        let r = Tracer::new(4, false);
        for i in 0..10u64 {
            r.record(enq(0, i));
        }
        assert_eq!(r.recorded(), 10);
        let snap = r.snapshot();
        assert_eq!(snap.len(), 4);
        let seqs: Vec<u64> = snap.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9]);
        assert_eq!(snap.last().unwrap().event, enq(0, 9));
    }

    #[test]
    fn overwrites_count_as_drops_only_in_the_detail_tier() {
        for detail in [false, true] {
            let t = Tracer::new(2, detail);
            for seq in 0..5 {
                t.record(kernel(seq));
            }
            assert_eq!(t.recorded(), 5);
            assert_eq!(t.events(), vec![kernel(3), kernel(4)]);
            assert_eq!(t.dropped(), if detail { 3 } else { 0 });
        }
    }

    #[test]
    fn concurrent_records_all_land() {
        let t = Arc::new(Tracer::new(4096, true));
        let threads: Vec<_> = (0..4)
            .map(|id| {
                let t = Arc::clone(&t);
                std::thread::spawn(move || {
                    for seq in 0..512 {
                        t.record(kernel((id * 1000 + seq) as u64));
                    }
                })
            })
            .collect();
        for th in threads {
            th.join().unwrap();
        }
        assert_eq!(t.events().len(), 4 * 512);
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn concurrent_recorders_never_lose_sequence_numbers() {
        let r = Arc::new(Tracer::new(64, false));
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let r = Arc::clone(&r);
                std::thread::spawn(move || {
                    for i in 0..100 {
                        r.record(enq(t, i));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(r.recorded(), 400);
        let snap = r.snapshot();
        assert_eq!(snap.len(), 64);
        // The window is a contiguous suffix of the sequence space.
        for w in snap.windows(2) {
            assert_eq!(w[1].seq, w[0].seq + 1);
        }
        assert_eq!(snap.last().unwrap().seq, 399);
    }

    #[test]
    fn categories_cover_every_variant() {
        let cases: Vec<(TraceEvent, &str)> = vec![
            (enq(0, 1), "sched"),
            (TraceEvent::Pause, "sched"),
            (kernel(0), "kernel"),
            (
                TraceEvent::Copy {
                    stream: 0,
                    seq: 0,
                    device: 0,
                    to_device: true,
                    words: 4,
                    start: 0,
                    end: 13,
                },
                "copy",
            ),
            (
                TraceEvent::EventWait {
                    stream: 0,
                    seq: 1,
                    device: 0,
                    at: 13,
                },
                "sync",
            ),
            (
                TraceEvent::GraphReplayDone {
                    nodes: 3,
                    span_cycles: 99,
                },
                "graph",
            ),
            (
                TraceEvent::CacheQuery {
                    kernel: "k".into(),
                    cache: CacheTier::Decode,
                    hit: false,
                    decoded: false,
                },
                "cache",
            ),
            (
                TraceEvent::PassRun {
                    kernel: "k".into(),
                    pass: "dce".into(),
                    insts_before: 10,
                    insts_after: 8,
                    changed: true,
                },
                "compiler",
            ),
            (TraceEvent::DeviceReset { device: 1 }, "fault"),
        ];
        for (e, cat) in cases {
            assert_eq!(e.category(), cat);
        }
    }

    #[test]
    fn dump_round_trips_through_serde() {
        let r = Tracer::new(4, false);
        r.record(TraceEvent::Pause);
        r.record(TraceEvent::CacheQuery {
            kernel: "saxpy".into(),
            cache: CacheTier::Compile,
            hit: false,
            decoded: true,
        });
        r.record(TraceEvent::Failed {
            stream: 1,
            kind: CommandKind::CopyIn,
            error: "copy out of bounds".into(),
        });
        r.record(kernel(7));
        let dump = r.dump();
        let json = serde_json::to_string(&dump).unwrap();
        let back: TraceDump = serde_json::from_str(&json).unwrap();
        assert_eq!(back, dump);
    }
}
