//! Postmortem bundles: everything the runtime knows at the moment of
//! failure, folded into one deterministic, serializable report.
//!
//! A [`PostmortemReport`] is assembled by `Runtime::postmortem` when a
//! health finding fires, a launch errors, or the caller asks. It is
//! pure plain data — modeled cycles and sequence numbers only — so the
//! same program and seed produce byte-identical reports.

use serde::{Deserialize, Serialize};
use simt_metrics::{names, HealthReport, MetricsSnapshot};
use simt_profile::{labels, TraceDump, TraceEvent};

/// One point of a gauge timeline, keyed by ring sequence number (the
/// deterministic substitute for wall-clock time).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GaugePoint {
    /// Ring sequence number of the sample.
    pub seq: u64,
    /// Gauge value at that point.
    pub value: u64,
}

/// The evolution of one gauge over the ring's surviving window.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GaugeTimeline {
    /// Metric name (`stream_queue_depth` or `outstanding_commands`).
    pub name: String,
    /// Metric label (`stream{N}` or `""` for pool-wide).
    pub label: String,
    /// Samples, ascending by `seq`.
    pub points: Vec<GaugePoint>,
}

/// Derive queue-depth and outstanding-command timelines from a ring
/// dump: every `Enqueue`/`Publish` event carries the post-transition
/// gauge values, so the dump *is* the timeline.
pub fn gauge_timelines(dump: &TraceDump) -> Vec<GaugeTimeline> {
    use std::collections::BTreeMap;
    let mut series: BTreeMap<(String, String), Vec<GaugePoint>> = BTreeMap::new();
    let mut push = |name: &str, label: String, seq: u64, value: u64| {
        series
            .entry((name.to_string(), label))
            .or_default()
            .push(GaugePoint { seq, value });
    };
    for rec in &dump.events {
        match &rec.event {
            TraceEvent::Enqueue {
                stream,
                depth,
                outstanding,
                ..
            }
            | TraceEvent::Publish {
                stream,
                depth,
                outstanding,
                ..
            } => {
                push(names::QUEUE_DEPTH, labels::stream(*stream), rec.seq, *depth);
                push(names::OUTSTANDING, String::new(), rec.seq, *outstanding);
            }
            _ => {}
        }
    }
    series
        .into_iter()
        .map(|((name, label), points)| GaugeTimeline {
            name,
            label,
            points,
        })
        .collect()
}

/// One program counter of a profiled kernel, with its attribution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PcHotspot {
    /// Program counter.
    pub pc: usize,
    /// Issue slots the PC consumed.
    pub issues: u64,
    /// Modeled cycles attributed to the PC.
    pub cycles: u64,
    /// Thread-operations the PC retired.
    pub thread_ops: u64,
    /// Disassembled instruction at the PC.
    pub asm: String,
    /// IR value id the PC lowered from (source-map attribution), when
    /// the kernel was compiled from IR and a source map is available.
    pub ir_value: Option<u32>,
}

/// Per-PC hotspots for one kernel implicated in a postmortem.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KernelHotspots {
    /// Kernel name.
    pub kernel: String,
    /// Modeled cycles across all profiled runs of the kernel.
    pub total_cycles: u64,
    /// Pipeline-fill cycles not attributable to any PC.
    pub fill_cycles: u64,
    /// The hottest PCs, descending by cycles.
    pub pcs: Vec<PcHotspot>,
}

/// A deterministic postmortem bundle.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PostmortemReport {
    /// Report format version.
    pub schema_version: u32,
    /// Why the report was assembled (health finding, launch error, or
    /// caller request).
    pub reason: String,
    /// Health walk over the snapshot below.
    pub health: HealthReport,
    /// Full metrics snapshot at assembly time.
    pub metrics: MetricsSnapshot,
    /// The event ring's surviving window (the flight dump).
    pub flight: TraceDump,
    /// Queue-depth / outstanding timelines derived from `flight`.
    pub timelines: Vec<GaugeTimeline>,
    /// Per-PC hotspots for profiled kernels (empty when profiling was
    /// off — the always-on ring never pays for per-PC data).
    pub hotspots: Vec<KernelHotspots>,
}

/// Current postmortem schema version.
/// Version 2: the flight window holds the ring's unified
/// `simt_profile::TraceEvent`s.
pub const POSTMORTEM_SCHEMA_VERSION: u32 = 2;

impl PostmortemReport {
    /// Human-readable rendering: what an operator reads before opening
    /// the JSON.
    pub fn render_text(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        let _ = writeln!(s, "== postmortem: {} ==", self.reason);
        let _ = writeln!(
            s,
            "health: {}",
            if self.health.healthy {
                "healthy".to_string()
            } else {
                format!("{} finding(s)", self.health.findings.len())
            }
        );
        for f in &self.health.findings {
            let _ = writeln!(s, "  - {f:?}");
        }
        if let Some(g) = self.metrics.gauge(names::MAKESPAN_CYCLES, "") {
            let _ = writeln!(s, "makespan: {} modeled cycles", g.value as u64);
        }
        let _ = writeln!(
            s,
            "flight window: {} of {} recorded event(s)",
            self.flight.events.len(),
            self.flight.recorded
        );
        let tail = self.flight.events.len().saturating_sub(16);
        for rec in &self.flight.events[tail..] {
            let _ = writeln!(s, "  #{:<6} {:?}", rec.seq, rec.event);
        }
        for t in &self.timelines {
            let last = t.points.last().map(|p| p.value).unwrap_or(0);
            let peak = t.points.iter().map(|p| p.value).max().unwrap_or(0);
            let _ = writeln!(
                s,
                "gauge {}{}{}: last={last} peak={peak} over {} point(s)",
                t.name,
                if t.label.is_empty() { "" } else { "/" },
                t.label,
                t.points.len()
            );
        }
        for k in &self.hotspots {
            let _ = writeln!(
                s,
                "kernel {}: {} modeled cycles ({} fill)",
                k.kernel, k.total_cycles, k.fill_cycles
            );
            for pc in &k.pcs {
                let _ = writeln!(
                    s,
                    "  pc {:>4}  {:>10} cyc  {:>8} issues  {}{}",
                    pc.pc,
                    pc.cycles,
                    pc.issues,
                    pc.asm,
                    match pc.ir_value {
                        Some(v) => format!("   ; ir %{v}"),
                        None => String::new(),
                    }
                );
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simt_profile::{CommandKind, Tracer};

    fn dump_with_gauges() -> TraceDump {
        let r = Tracer::new(16, false);
        r.record(TraceEvent::Enqueue {
            stream: 0,
            kind: CommandKind::Launch,
            depth: 1,
            outstanding: 1,
            at: 0,
        });
        r.record(TraceEvent::Enqueue {
            stream: 1,
            kind: CommandKind::CopyIn,
            depth: 1,
            outstanding: 2,
            at: 0,
        });
        r.record(TraceEvent::Batch {
            stream: 0,
            device: 0,
            commands: 1,
        });
        r.record(TraceEvent::Publish {
            stream: 0,
            device: 0,
            commands: 1,
            depth: 0,
            outstanding: 1,
            at: 90,
        });
        r.dump()
    }

    #[test]
    fn timelines_follow_enqueue_and_publish_gauges() {
        let t = gauge_timelines(&dump_with_gauges());
        let outstanding = t
            .iter()
            .find(|t| t.name == names::OUTSTANDING)
            .expect("outstanding timeline");
        assert_eq!(
            outstanding
                .points
                .iter()
                .map(|p| p.value)
                .collect::<Vec<_>>(),
            vec![1, 2, 1]
        );
        let s0 = t
            .iter()
            .find(|t| t.name == names::QUEUE_DEPTH && t.label == "stream0")
            .expect("stream0 depth");
        assert_eq!(
            s0.points.iter().map(|p| p.value).collect::<Vec<_>>(),
            vec![1, 0]
        );
    }

    #[test]
    fn chrome_counter_tracks_share_the_gauge_names() {
        assert_eq!(simt_profile::chrome::QUEUE_DEPTH, names::QUEUE_DEPTH);
        assert_eq!(simt_profile::chrome::OUTSTANDING, names::OUTSTANDING);
    }

    #[test]
    fn report_round_trips_and_renders() {
        let flight = dump_with_gauges();
        let timelines = gauge_timelines(&flight);
        let report = PostmortemReport {
            schema_version: POSTMORTEM_SCHEMA_VERSION,
            reason: "caller".into(),
            health: HealthReport {
                healthy: true,
                findings: Vec::new(),
            },
            metrics: MetricsSnapshot::new(),
            flight,
            timelines,
            hotspots: vec![KernelHotspots {
                kernel: "saxpy".into(),
                total_cycles: 123,
                fill_cycles: 3,
                pcs: vec![PcHotspot {
                    pc: 4,
                    issues: 10,
                    cycles: 40,
                    thread_ops: 640,
                    asm: "vmac.q15 r3, r1, r2".into(),
                    ir_value: Some(7),
                }],
            }],
        };
        let back = PostmortemReport::from_value(&report.to_value()).expect("round trip");
        assert_eq!(back, report);
        let text = report.render_text();
        assert!(text.contains("postmortem: caller"));
        assert!(text.contains("kernel saxpy"));
        assert!(text.contains("vmac.q15"));
    }
}
