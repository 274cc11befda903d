//! Chrome trace-event view of the ring.
//!
//! Renders a [`TraceEvent`] stream as the Trace Event Format's JSON
//! array flavor, loadable in `chrome://tracing` and Perfetto. The
//! track model:
//!
//! * one *process* per device (`device0`, `device1`, …) with one
//!   *thread* per engine — `compute` (kernel spans, graph launch
//!   nodes), `dma` (copy spans, graph copy nodes) and `sync` (event
//!   record/wait instants);
//! * one `streams` process with one thread per stream, carrying each
//!   stream's commands as spans (the stream-ordered view of the same
//!   work) plus launch-dispatch instants, and the per-stream
//!   queue-depth counter sampled at every enqueue and publish;
//! * one `host` process for work with no modeled timeline — compile /
//!   decode cache lookups and optimization pass runs (`compiler`
//!   thread, sequenced by record order), whole-graph replay spans
//!   (`graph` thread) and the pool-wide outstanding-commands counter.
//!
//! Scheduler bookkeeping with no span of its own (batch claims,
//! pause/resume, faults, retries, health findings) is not rendered;
//! the flight dump in `simt-forensics` shows it.
//!
//! Timestamps are **modeled device cycles mapped 1:1 to microseconds**
//! — the timeline shows virtual time, not host wall-clock. Every
//! emitted object carries the same key set (`name, cat, ph, ts, dur,
//! pid, tid, args`), which keeps structural validation trivial.

use crate::{labels, CacheTier, CommandKind, TraceEvent};
use serde::Value;
use std::collections::BTreeMap;

/// Process id carrying host-side (untimed) tracks.
pub const HOST_PID: u64 = 0;
/// First device process id (device `d` → pid `DEVICE_PID0 + d`).
pub const DEVICE_PID0: u64 = 1;
/// Process id carrying the per-stream tracks.
pub const STREAMS_PID: u64 = 10_000;

/// Compute-engine thread id within a device process.
pub const TID_COMPUTE: u64 = 0;
/// DMA-engine thread id within a device process.
pub const TID_DMA: u64 = 1;
/// Sync thread id within a device process.
pub const TID_SYNC: u64 = 2;

/// Counter-track name of the per-stream queue depth (the metric name
/// `simt_metrics::names::QUEUE_DEPTH`).
pub const QUEUE_DEPTH: &str = "stream_queue_depth";
/// Counter-track name of the pool-wide outstanding commands (the metric
/// name `simt_metrics::names::OUTSTANDING`).
pub const OUTSTANDING: &str = "outstanding_commands";

fn entry(k: &str, v: Value) -> (String, Value) {
    (k.to_string(), v)
}

fn u(v: u64) -> Value {
    Value::U64(v)
}

/// One uniformly-shaped trace object.
#[allow(clippy::too_many_arguments)]
fn obj(
    name: &str,
    cat: &str,
    ph: &str,
    ts: u64,
    dur: u64,
    pid: u64,
    tid: u64,
    args: Vec<(String, Value)>,
) -> Value {
    let mut fields = vec![
        entry("name", Value::Str(name.to_string())),
        entry("cat", Value::Str(cat.to_string())),
        entry("ph", Value::Str(ph.to_string())),
        entry("ts", u(ts)),
        entry("dur", u(dur)),
        entry("pid", u(pid)),
        entry("tid", u(tid)),
    ];
    if ph == "i" {
        // Thread-scoped instant; extra key, same mandatory shape.
        fields.push(entry("s", Value::Str("t".into())));
    }
    fields.push(entry("args", Value::Map(args)));
    Value::Map(fields)
}

/// A complete (`"X"`) span from `start` to `end`.
fn span(name: &str, cat: &str, start: u64, end: u64, pid: u64, tid: u64) -> Value {
    let dur = end.saturating_sub(start);
    obj(name, cat, "X", start, dur, pid, tid, Vec::new())
}

fn with_args(mut v: Value, args: Vec<(String, Value)>) -> Value {
    if let Value::Map(fields) = &mut v {
        fields.pop();
        fields.push(entry("args", Value::Map(args)));
    }
    v
}

fn named(kernel: &str, fallback: &str) -> String {
    if kernel.is_empty() {
        fallback.to_string()
    } else {
        kernel.to_string()
    }
}

/// Process and thread names seen so far, emitted as metadata.
#[derive(Default)]
struct Tracks {
    processes: BTreeMap<u64, String>,
    threads: BTreeMap<(u64, u64), String>,
    /// Host-side events have no modeled timeline; they are sequenced
    /// by record order so the track is stable and deterministic.
    host_seq: u64,
}

impl Tracks {
    fn process(&mut self, pid: u64) {
        self.processes.entry(pid).or_insert_with(|| match pid {
            HOST_PID => "host".into(),
            STREAMS_PID => "streams".into(),
            _ => labels::device((pid - DEVICE_PID0) as usize),
        });
    }

    fn thread(&mut self, pid: u64, tid: u64, name: String) {
        self.process(pid);
        self.threads.entry((pid, tid)).or_insert(name);
    }

    /// Register an engine thread of device `d`; returns its pid.
    fn device(&mut self, d: usize, tid: u64) -> u64 {
        let pid = DEVICE_PID0 + d as u64;
        let name = match tid {
            TID_COMPUTE => "compute",
            TID_DMA => "dma",
            _ => "sync",
        };
        self.thread(pid, tid, name.into());
        pid
    }

    /// Register the track of `stream`; returns its tid.
    fn stream(&mut self, stream: usize) -> u64 {
        let tid = stream as u64;
        self.thread(STREAMS_PID, tid, labels::stream(stream));
        tid
    }

    /// Register a host thread (0 = `compiler`, 1 = `graph`).
    fn host(&mut self, tid: u64) {
        let name = if tid == 0 { "compiler" } else { "graph" };
        self.thread(HOST_PID, tid, name.into());
    }

    /// A unit span on the host `compiler` track at the next sequence
    /// slot.
    fn host_span(&mut self, name: &str, cat: &str, args: Vec<(String, Value)>) -> Value {
        self.host(0);
        let ts = self.host_seq;
        self.host_seq += 1;
        obj(name, cat, "X", ts, 1, HOST_PID, 0, args)
    }
}

/// Render the event stream as a Chrome trace [`Value`] tree (a JSON
/// array of trace objects). `dropped` is the ring's dropped-event count
/// ([`crate::Tracer::dropped`]); it is surfaced in a `trace_metadata`
/// record so a truncated export is visibly partial. Useful when the
/// caller wants to post-process before serializing; most callers want
/// [`chrome_trace`].
pub fn chrome_trace_value(events: &[TraceEvent], dropped: u64) -> Value {
    let mut tracks = Tracks::default();
    let mut body: Vec<Value> = Vec::new();

    for e in events {
        match e {
            TraceEvent::Enqueue {
                stream,
                depth,
                outstanding,
                at,
                ..
            }
            | TraceEvent::Publish {
                stream,
                depth,
                outstanding,
                at,
                ..
            } => {
                // Counter tracks ("ph":"C"): Perfetto renders one
                // stepped timeline per (pid, name). Per-stream queue
                // depth lives on the streams process, the pool-wide
                // outstanding count on the host process.
                tracks.process(STREAMS_PID);
                tracks.process(HOST_PID);
                let depth_track = format!("{QUEUE_DEPTH} {}", labels::stream(*stream));
                for (name, pid, value) in [
                    (depth_track.as_str(), STREAMS_PID, depth),
                    (OUTSTANDING, HOST_PID, outstanding),
                ] {
                    let args = vec![entry("value", u(*value))];
                    body.push(obj(name, "gauge", "C", *at, 0, pid, 0, args));
                }
            }
            TraceEvent::Kernel {
                stream,
                seq,
                device,
                kernel,
                start,
                end,
                instructions,
            } => {
                let name = named(kernel, "kernel");
                let tid = tracks.stream(*stream);
                body.push(obj(
                    &format!("launch {name}"),
                    "kernel",
                    "i",
                    *start,
                    0,
                    STREAMS_PID,
                    tid,
                    vec![entry("seq", u(*seq)), entry("device", u(*device as u64))],
                ));
                let pid = tracks.device(*device, TID_COMPUTE);
                let args = vec![
                    entry("stream", u(*stream as u64)),
                    entry("seq", u(*seq)),
                    entry("instructions", u(*instructions)),
                ];
                let ev = span(&name, "kernel", *start, *end, pid, TID_COMPUTE);
                body.push(with_args(ev, args));
                // Stream-ordered view of the same span.
                body.push(span(&name, "kernel", *start, *end, STREAMS_PID, tid));
            }
            TraceEvent::Copy {
                stream,
                seq,
                device,
                to_device,
                words,
                start,
                end,
            } => {
                let name = if *to_device { "copy-in" } else { "copy-out" };
                let pid = tracks.device(*device, TID_DMA);
                let args = vec![
                    entry("stream", u(*stream as u64)),
                    entry("seq", u(*seq)),
                    entry("words", u(*words)),
                ];
                let ev = span(name, "copy", *start, *end, pid, TID_DMA);
                body.push(with_args(ev, args));
                let tid = tracks.stream(*stream);
                body.push(span(name, "copy", *start, *end, STREAMS_PID, tid));
            }
            TraceEvent::EventRecord {
                stream,
                seq,
                device,
                at,
            }
            | TraceEvent::EventWait {
                stream,
                seq,
                device,
                at,
            } => {
                let name = match e {
                    TraceEvent::EventRecord { .. } => "record",
                    _ => "wait",
                };
                let pid = tracks.device(*device, TID_SYNC);
                let args = vec![entry("stream", u(*stream as u64)), entry("seq", u(*seq))];
                body.push(obj(name, "sync", "i", *at, 0, pid, TID_SYNC, args));
            }
            TraceEvent::GraphNodePlace {
                node,
                kind,
                device,
                start,
                end,
                kernel,
            } => {
                let (tid, name) = match kind {
                    CommandKind::Launch => (TID_COMPUTE, named(kernel, &format!("node{node}"))),
                    CommandKind::CopyIn => (TID_DMA, format!("node{node} copy-in")),
                    _ => (TID_DMA, format!("node{node} copy-out")),
                };
                let pid = tracks.device(*device, tid);
                let ev = span(&name, "graph", *start, *end, pid, tid);
                body.push(with_args(ev, vec![entry("node", u(*node as u64))]));
            }
            TraceEvent::GraphReplayDone { nodes, span_cycles } => {
                tracks.host(1);
                let args = vec![entry("nodes", u(*nodes as u64))];
                body.push(obj(
                    "replay",
                    "graph",
                    "X",
                    0,
                    *span_cycles,
                    HOST_PID,
                    1,
                    args,
                ));
            }
            TraceEvent::CacheQuery {
                kernel,
                cache,
                hit,
                decoded,
            } => {
                let (name, args) = match (cache, hit) {
                    (CacheTier::Compile, true) => {
                        ("hit", vec![entry("decoded", Value::Bool(*decoded))])
                    }
                    (CacheTier::Compile, false) => ("miss", Vec::new()),
                    (CacheTier::Decode, true) => ("decode-hit", Vec::new()),
                    (CacheTier::Decode, false) => ("decode-miss", Vec::new()),
                };
                let name = format!("{name} {}", named(kernel, "?"));
                body.push(tracks.host_span(&name, "cache", args));
            }
            TraceEvent::PassRun {
                kernel,
                pass,
                insts_before,
                insts_after,
                changed,
            } => {
                let name = format!("{pass} {}", named(kernel, "?"));
                let args = vec![
                    entry("insts_before", u(*insts_before as u64)),
                    entry("insts_after", u(*insts_after as u64)),
                    entry("changed", Value::Bool(*changed)),
                ];
                body.push(tracks.host_span(&name, "compiler", args));
            }
            _ => {}
        }
    }

    // Metadata first (Perfetto reads it anywhere, humans read it here).
    // The trace-level record carries completeness: how many events the
    // view covers and how many were lost — a trace with drops is partial
    // and must say so.
    let mut out = vec![obj(
        "trace_metadata",
        "__metadata",
        "M",
        0,
        0,
        HOST_PID,
        0,
        vec![
            entry("events", u(events.len() as u64)),
            entry("dropped_events", u(dropped)),
        ],
    )];
    for (pid, name) in &tracks.processes {
        let args = vec![entry("name", Value::Str(name.clone()))];
        out.push(obj("process_name", "__metadata", "M", 0, 0, *pid, 0, args));
    }
    for ((pid, tid), name) in &tracks.threads {
        let args = vec![entry("name", Value::Str(name.clone()))];
        out.push(obj(
            "thread_name",
            "__metadata",
            "M",
            0,
            0,
            *pid,
            *tid,
            args,
        ));
    }
    out.extend(body);
    Value::Seq(out)
}

/// Render the event stream as a Chrome trace-event JSON string.
/// `dropped` is the ring's dropped-event count, surfaced in the
/// export's `trace_metadata` record.
pub fn chrome_trace(events: &[TraceEvent], dropped: u64) -> String {
    serde_json::to_string(&chrome_trace_value(events, dropped)).expect("trace value serializes")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<TraceEvent> {
        vec![
            TraceEvent::Kernel {
                stream: 0,
                seq: 1,
                device: 0,
                kernel: "saxpy".into(),
                start: 13,
                end: 113,
                instructions: 42,
            },
            TraceEvent::Copy {
                stream: 0,
                seq: 0,
                device: 1,
                to_device: true,
                words: 4,
                start: 0,
                end: 13,
            },
            TraceEvent::GraphNodePlace {
                node: 2,
                kind: CommandKind::Launch,
                device: 1,
                start: 20,
                end: 50,
                kernel: "fused".into(),
            },
            TraceEvent::Batch {
                stream: 0,
                device: 0,
                commands: 2,
            },
        ]
    }

    fn field<'a>(v: &'a Value, k: &str) -> &'a Value {
        v.get_field(k).unwrap()
    }

    fn items(v: &Value) -> &[Value] {
        match v {
            Value::Seq(items) => items,
            _ => panic!("trace is a JSON array"),
        }
    }

    #[test]
    fn tracks_and_spans_are_emitted() {
        let v = chrome_trace_value(&sample(), 0);
        let items = items(&v);
        // Metadata names the two device processes and the stream track.
        let meta: Vec<&Value> = items
            .iter()
            .filter(|i| field(i, "ph") == &Value::Str("M".into()))
            .collect();
        assert!(
            meta.len() >= 5,
            "process + thread metadata, got {}",
            meta.len()
        );
        // The kernel span lands on device0/compute with its duration.
        let kernel = items
            .iter()
            .find(|i| {
                field(i, "cat") == &Value::Str("kernel".into())
                    && field(i, "ph") == &Value::Str("X".into())
                    && field(i, "pid") == &Value::U64(DEVICE_PID0)
            })
            .expect("kernel span on device 0");
        assert_eq!(field(kernel, "ts"), &Value::U64(13));
        assert_eq!(field(kernel, "dur"), &Value::U64(100));
        assert_eq!(field(kernel, "tid"), &Value::U64(TID_COMPUTE));
        // ... plus its dispatch instant on the stream track.
        assert!(items.iter().any(|i| {
            field(i, "name") == &Value::Str("launch saxpy".into())
                && field(i, "pid") == &Value::U64(STREAMS_PID)
        }));
        // The copy span lands on device1/dma.
        let copy = items
            .iter()
            .find(|i| {
                field(i, "cat") == &Value::Str("copy".into())
                    && field(i, "pid") == &Value::U64(DEVICE_PID0 + 1)
            })
            .expect("copy span on device 1");
        assert_eq!(field(copy, "tid"), &Value::U64(TID_DMA));
        // Bookkeeping without a span renders nothing: metadata, three
        // kernel objects, two copy objects and one graph span.
        let body = items.len() - meta.len();
        assert_eq!(body, 6);
    }

    #[test]
    fn dropped_count_is_surfaced_in_trace_metadata() {
        let v = chrome_trace_value(&sample(), 7);
        let meta = items(&v)
            .iter()
            .find(|i| field(i, "name") == &Value::Str("trace_metadata".into()))
            .expect("trace_metadata record");
        let args = field(meta, "args");
        assert_eq!(args.get_field("dropped_events").unwrap(), &Value::U64(7));
        assert_eq!(
            args.get_field("events").unwrap(),
            &Value::U64(sample().len() as u64)
        );
    }

    #[test]
    fn json_string_is_parseable() {
        let json = chrome_trace(&sample(), 3);
        let back: Value = ::serde_json::from_str(&json).expect("valid JSON");
        let items = items(&back);
        assert!(!items.is_empty());
        for i in items {
            for k in ["name", "cat", "ph", "ts", "dur", "pid", "tid", "args"] {
                assert!(i.get_field(k).is_ok(), "uniform shape: missing {k}");
            }
        }
    }

    #[test]
    fn enqueue_and_publish_render_as_counter_samples() {
        let ev = vec![
            TraceEvent::Enqueue {
                stream: 1,
                kind: CommandKind::Launch,
                depth: 3,
                outstanding: 5,
                at: 40,
            },
            TraceEvent::Publish {
                stream: 1,
                device: 0,
                commands: 1,
                depth: 2,
                outstanding: 4,
                at: 41,
            },
        ];
        let v = chrome_trace_value(&ev, 0);
        let counters: Vec<&Value> = items(&v)
            .iter()
            .filter(|i| field(i, "ph") == &Value::Str("C".into()))
            .collect();
        assert_eq!(counters.len(), 4, "two samples per event");
        // Per-stream depth on the streams process, pool gauge on host.
        let depth: Vec<(&Value, &Value)> = counters
            .iter()
            .filter(|c| field(c, "pid") == &Value::U64(STREAMS_PID))
            .map(|c| (field(c, "ts"), field(c, "args").get_field("value").unwrap()))
            .collect();
        assert_eq!(
            depth,
            vec![
                (&Value::U64(40), &Value::U64(3)),
                (&Value::U64(41), &Value::U64(2))
            ]
        );
        assert!(counters
            .iter()
            .all(|c| field(c, "cat") == &Value::Str("gauge".into())));
        let first = counters[0];
        assert_eq!(
            field(first, "name"),
            &Value::Str("stream_queue_depth stream1".into())
        );
        let outstanding = counters
            .iter()
            .find(|c| field(c, "pid") == &Value::U64(HOST_PID))
            .expect("host counter");
        assert_eq!(
            field(outstanding, "name"),
            &Value::Str("outstanding_commands".into())
        );
        assert_eq!(
            field(outstanding, "args").get_field("value").unwrap(),
            &Value::U64(5)
        );
    }

    #[test]
    fn escaping_survives_hostile_names() {
        let ev = vec![TraceEvent::CacheQuery {
            kernel: "a\"b\\c\nd".into(),
            cache: CacheTier::Compile,
            hit: false,
            decoded: false,
        }];
        let json = chrome_trace(&ev, 0);
        let _: Value = ::serde_json::from_str(&json).expect("escaped JSON parses");
    }
}
