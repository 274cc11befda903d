//! Flat trace summary: the event stream folded into serializable
//! counters, consumed by the bench harness's `tables --profile` output
//! and handy for quick assertions in tests.

use crate::{CacheTier, TraceEvent};
use serde::{Deserialize, Serialize};

/// Event count for one category label.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CategoryCount {
    /// Category label (see [`TraceEvent::category`]).
    pub category: String,
    /// Events recorded in the category.
    pub events: u64,
}

/// A flat roll-up of one trace.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TraceSummary {
    /// Total events summarized.
    pub events: u64,
    /// Events lost by the ring ([`crate::Tracer::dropped`]).
    pub dropped: u64,
    /// Kernel launches dispatched.
    pub kernel_launches: u64,
    /// Kernel launches retired (every recorded launch ran to `exit`, so
    /// this equals `kernel_launches`).
    pub kernel_retires: u64,
    /// Modeled cycles spent in retired kernels.
    pub kernel_cycles: u64,
    /// Instructions issued by retired kernels.
    pub instructions: u64,
    /// Copies completed (either direction).
    pub copies: u64,
    /// Words moved by copies.
    pub copy_words: u64,
    /// Modeled cycles spent in copies.
    pub copy_cycles: u64,
    /// Event records plus event waits.
    pub sync_commands: u64,
    /// Graph nodes placed during replays.
    pub graph_nodes: u64,
    /// Graph replays completed.
    pub graph_replays: u64,
    /// Compile-cache hits.
    pub compile_hits: u64,
    /// Compile-cache misses.
    pub compile_misses: u64,
    /// Decode-cache hits.
    pub decode_hits: u64,
    /// Decode-cache misses.
    pub decode_misses: u64,
    /// Optimization pass runs observed.
    pub pass_runs: u64,
    /// Pass runs that changed their kernel.
    pub passes_changed: u64,
    /// Gauge samples in the Chrome view: a queue-depth and an
    /// outstanding-commands sample per enqueue and per publish.
    pub gauge_samples: u64,
    /// Per-category event counts, sorted by category label.
    pub by_category: Vec<CategoryCount>,
}

/// Fold an event stream (plus the recorder's drop count) into a
/// [`TraceSummary`].
pub fn summarize(events: &[TraceEvent], dropped: u64) -> TraceSummary {
    let mut s = TraceSummary {
        events: events.len() as u64,
        dropped,
        ..Default::default()
    };
    let mut cats: Vec<(String, u64)> = Vec::new();
    for e in events {
        let cat = e.category();
        match cats.iter_mut().find(|(c, _)| c == cat) {
            Some((_, n)) => *n += 1,
            None => cats.push((cat.to_string(), 1)),
        }
        match e {
            TraceEvent::Enqueue { .. } | TraceEvent::Publish { .. } => s.gauge_samples += 2,
            TraceEvent::Kernel {
                start,
                end,
                instructions,
                ..
            } => {
                s.kernel_launches += 1;
                s.kernel_retires += 1;
                s.kernel_cycles += end.saturating_sub(*start);
                s.instructions += instructions;
            }
            TraceEvent::Copy {
                words, start, end, ..
            } => {
                s.copies += 1;
                s.copy_words += words;
                s.copy_cycles += end.saturating_sub(*start);
            }
            TraceEvent::EventRecord { .. } | TraceEvent::EventWait { .. } => {
                s.sync_commands += 1;
            }
            TraceEvent::GraphNodePlace { .. } => s.graph_nodes += 1,
            TraceEvent::GraphReplayDone { .. } => s.graph_replays += 1,
            TraceEvent::CacheQuery { cache, hit, .. } => match (cache, hit) {
                (CacheTier::Compile, true) => s.compile_hits += 1,
                (CacheTier::Compile, false) => s.compile_misses += 1,
                (CacheTier::Decode, true) => s.decode_hits += 1,
                (CacheTier::Decode, false) => s.decode_misses += 1,
            },
            TraceEvent::PassRun { changed, .. } => {
                s.pass_runs += 1;
                if *changed {
                    s.passes_changed += 1;
                }
            }
            _ => {}
        }
    }
    cats.sort();
    s.by_category = cats
        .into_iter()
        .map(|(category, events)| CategoryCount { category, events })
        .collect();
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_counts_by_kind_and_category() {
        let events = vec![
            TraceEvent::Enqueue {
                stream: 0,
                kind: crate::CommandKind::Launch,
                depth: 1,
                outstanding: 1,
                at: 0,
            },
            TraceEvent::Kernel {
                stream: 0,
                seq: 1,
                device: 0,
                kernel: "k".into(),
                start: 0,
                end: 50,
                instructions: 9,
            },
            TraceEvent::Copy {
                stream: 0,
                seq: 0,
                device: 0,
                to_device: true,
                words: 16,
                start: 0,
                end: 16,
            },
            TraceEvent::CacheQuery {
                kernel: "k".into(),
                cache: CacheTier::Compile,
                hit: false,
                decoded: false,
            },
            TraceEvent::PassRun {
                kernel: "k".into(),
                pass: "dce".into(),
                insts_before: 12,
                insts_after: 9,
                changed: true,
            },
        ];
        let s = summarize(&events, 2);
        assert_eq!(s.events, 5);
        assert_eq!(s.dropped, 2);
        assert_eq!(s.gauge_samples, 2);
        assert_eq!(s.kernel_launches, 1);
        assert_eq!(s.kernel_retires, 1);
        assert_eq!(s.kernel_cycles, 50);
        assert_eq!(s.instructions, 9);
        assert_eq!((s.copies, s.copy_words, s.copy_cycles), (1, 16, 16));
        assert_eq!(s.compile_misses, 1);
        assert_eq!((s.pass_runs, s.passes_changed), (1, 1));
        let cats: Vec<(&str, u64)> = s
            .by_category
            .iter()
            .map(|c| (c.category.as_str(), c.events))
            .collect();
        assert_eq!(
            cats,
            vec![
                ("cache", 1),
                ("compiler", 1),
                ("copy", 1),
                ("kernel", 1),
                ("sched", 1)
            ]
        );
        // Round-trips through JSON for the harness.
        let json = serde_json::to_string(&s).unwrap();
        let back: TraceSummary = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }
}
