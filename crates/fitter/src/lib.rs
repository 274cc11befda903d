//! # fpga-fitter — a "virtual Quartus" for the 950 MHz SIMT processor
//!
//! The paper's evaluation is a set of *compiles*: synthesis, placement
//! and static timing of the processor on an Agilex-7 AGFD019 device,
//! under different constraints, seeds and instance counts. This crate
//! reproduces that pipeline on the `fpga-fabric` device model:
//!
//! * [`area`] — the module-level resource model that regenerates
//!   **Table 1** (ALMs / registers / M20K / DSP per module) and the §5
//!   register-class split (primary / secondary / hyper);
//! * [`netlist`] — the timing-arc set of the assembled design, including
//!   the design variants the paper discusses (multiplicative vs barrel
//!   shifter, integer vs fp32 DSP mode, the MLAB shift-register trap);
//! * [`mod@place`] — geometric placement on the device grid: spine-straddling
//!   SPs in a 32-row core, the shared-memory cluster, bounding-box
//!   constraints at a target utilization, sector-separated stamping;
//! * [`sta`] — static timing: soft-path delays from logic depth ×
//!   routing distance × congestion × seed jitter, hard-block ceilings
//!   (DSP 958/771 MHz, M20K, MLAB 850 MHz), worst-slack stamp coupling;
//! * [`mod@compile`] — the full flow plus seed sweeps (**Table 2**,
//!   §5's Fmax results);
//! * [`floorplan`] — textual floorplans (Figures 6 and 7);
//! * [`calib`] — every calibrated constant, each citing the sentence of
//!   the paper it is anchored to.
//!
//! ```
//! use fpga_fitter::{compile, CompileOptions};
//! use fpga_fabric::Device;
//! use simt_core::ProcessorConfig;
//!
//! let report = compile(
//!     &ProcessorConfig::default(),
//!     &Device::agfd019(),
//!     &CompileOptions::unconstrained(),
//! );
//! assert!(report.fmax_restricted() > 950.0); // the paper's headline
//! ```

pub mod area;
pub mod calib;
pub mod compile;
pub mod floorplan;
pub mod netlist;
pub mod place;
pub mod sta;

pub use area::{area_model, AreaReport, ModuleArea, RegisterBudget};
pub use compile::{best_of, compile, seed_sweep, CompileOptions, CompileReport};
pub use floorplan::render;
pub use netlist::{timing_arcs, DesignContext, DesignVariant, ShifterImpl, TimingArc};
pub use place::{
    place, quality_for_utilization, Constraint, CorePlacement, PlacedModule, Placement, Rect,
    COMPONENT_ALIGN_RECOVERY, CORE_ROWS,
};
pub use sta::{analyze, routing_analysis, PathReport, SlackEntry, StaReport};
