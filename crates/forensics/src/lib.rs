//! Forensics for the SIMT runtime: deterministic postmortem bundles and
//! the machine-readable regression-attribution report emitted by
//! `tables --check`.
//!
//! The evidence comes from the runtime's one event ring
//! ([`simt_profile::Tracer`]), which is always recording the pool's
//! decisions — enqueues, batch formation, device placements,
//! pause/resume, compile/decode-cache outcomes, launch failures,
//! faults, health transitions. When something goes wrong (a
//! [`HealthFinding`](simt_metrics::HealthFinding) fires, a launch
//! errors, or the caller asks), the runtime folds the ring's surviving
//! window together with a full metrics snapshot into a
//! [`PostmortemReport`] that explains *where* and *why*, not just
//! *that*; [`gauge_timelines`] is the gauge view of the same window.
//!
//! Everything in this crate is modeled-cycle / sequence-number based —
//! no wall-clock values appear in any serialized artifact, so reports
//! for the same program and seed are byte-identical across runs.

#![warn(missing_docs)]

pub mod postmortem;
pub mod report;

pub use postmortem::{
    gauge_timelines, GaugePoint, GaugeTimeline, KernelHotspots, PcHotspot, PostmortemReport,
    POSTMORTEM_SCHEMA_VERSION,
};
pub use report::{
    CheckReport, LeafDelta, NodeSpan, PassDelta, ShapeProfile, WorkloadAttribution,
    CHECK_REPORT_SCHEMA_VERSION,
};
