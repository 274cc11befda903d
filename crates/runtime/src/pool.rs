//! The device pool: simulated devices a scheduler can execute launches
//! and copies on.
//!
//! Each device is a single SIMT core slot (a `simt_core::Processor`
//! built on demand per kernel configuration) with a modeled host link.
//! A small cache of processor builds makes back-to-back launches with
//! compatible configurations reuse the same instance — the scheduler's
//! "batch compatible launches onto the same device" fast path.
//!
//! Next to the per-device processor cache sits the pool-wide,
//! content-addressed [`CompileCache`]: `resolve` turns a launch's
//! [`KernelSource`] (text assembly or `simt-compiler` IR) into a
//! predecoded program through it, so a kernel is assembled/compiled
//! exactly once per (source, config) no matter how many streams,
//! devices or repeats launch it. Stream launches resolve at execution;
//! graph launches resolve once, at `Runtime::instantiate`.

use crate::RuntimeError;
use simt_chaos::{ChaosConfig, RecoveryConfig};
use simt_compiler::{CompileCache, OptLevel};
use simt_core::{DecodedProgram, ExecStats, PcProfile, Processor, ProcessorConfig, RunOptions};
use simt_isa::Program;
use simt_kernels::{KernelSource, LaunchSpec};
use simt_metrics::HealthConfig;
use simt_profile::ProfileConfig;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Everything the pool retains per profiled kernel: the merged per-PC
/// histogram plus what postmortem attribution needs to interpret it —
/// the compiled program (for disassembly) and the kernel's source and
/// configuration (to rebuild the IR source map on demand).
pub(crate) struct KernelProfile {
    /// Merged per-PC execution profile across every launch.
    pub profile: PcProfile,
    /// The compiled program the profile indexes into.
    pub program: Arc<Program>,
    /// Kernel source (IR sources can re-derive a PC→IR source map).
    pub source: KernelSource,
    /// Processor configuration the kernel compiled under.
    pub config: ProcessorConfig,
}

/// Pool-wide per-PC profile sink: merged histograms keyed by kernel
/// name, fed by every device when per-PC profiling is on.
pub(crate) type PcSink = Mutex<HashMap<String, KernelProfile>>;

/// Per-device model parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceConfig {
    /// Stream device-buffer size in 32-bit words.
    pub memory_words: usize,
    /// Host-link setup latency in device clocks (arbitration plus the
    /// sector-crossing stages of §6 — same model as the system
    /// interconnect).
    pub link_latency: u64,
    /// Host-link payload width in words per device clock.
    pub link_width_words: usize,
    /// Modeled device clock in MHz (the §5.1 system target by default),
    /// used to convert cycle accounting into modeled wall-clock.
    pub fmax_mhz: f64,
}

impl Default for DeviceConfig {
    fn default() -> Self {
        DeviceConfig {
            memory_words: 16384,
            link_latency: 12,
            link_width_words: 4,
            fmax_mhz: 854.0,
        }
    }
}

/// Pool-level configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeConfig {
    /// Number of simulated devices (worker threads).
    pub devices: usize,
    /// Maximum commands one scheduler wake-up drains for a device.
    pub max_batch: usize,
    /// LRU bound on the pool-wide content-addressed compile cache
    /// (`None` = unbounded). A long-running pool serving many distinct
    /// programs must not grow the cache without limit; evictions are
    /// counted in [`crate::RuntimeStats::compile_evictions`].
    pub compile_cache_capacity: Option<usize>,
    /// Opt-in tracing/profiling (`None` = disabled, the default; the
    /// instrumented hot paths then cost one branch on a `None`). See
    /// [`simt_profile::ProfileConfig`].
    pub profile: Option<ProfileConfig>,
    /// Always-on pool metrics (counters, watermark gauges, modeled-cycle
    /// latency histograms — `simt-metrics`). On by default: the record
    /// path is a few relaxed atomics per *retired command*, not per
    /// instruction. The off switch exists so the disabled-path cost can
    /// be measured (`BENCH_sim.json:metrics_overhead`).
    pub metrics: bool,
    /// Flight-recorder window: the newest this-many scheduler events
    /// are always retained for postmortems (`simt-forensics`). `0`
    /// disables the recorder entirely — like `metrics`, the off switch
    /// exists to measure the disabled path
    /// (`BENCH_sim.json:forensics_overhead`).
    pub flight_capacity: usize,
    /// Health-watchdog thresholds used by [`crate::Runtime::health`]
    /// and postmortems. Defaults preserve the watchdog's stock
    /// behavior; tests tighten them to provoke findings
    /// deterministically.
    pub health: HealthConfig,
    /// Deterministic fault injection (`None` = no faults, the
    /// default). See [`simt_chaos::ChaosConfig`]: every decision is a
    /// pure hash over the seed and the command's stable identity, so a
    /// fixed config injects identically on every run.
    pub chaos: Option<ChaosConfig>,
    /// Recovery policy: watchdog budget, bounded retry/backoff, and
    /// the per-device fault budget driving quarantine. Defaults are
    /// inert for fault-free workloads.
    pub recovery: RecoveryConfig,
    /// Per-device parameters.
    pub device: DeviceConfig,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            devices: 2,
            max_batch: 8,
            compile_cache_capacity: Some(256),
            profile: None,
            metrics: true,
            flight_capacity: 1024,
            health: HealthConfig::default(),
            chaos: None,
            recovery: RecoveryConfig::default(),
            device: DeviceConfig::default(),
        }
    }
}

impl RuntimeConfig {
    /// A pool of `devices` default devices.
    pub fn with_devices(devices: usize) -> Self {
        RuntimeConfig {
            devices,
            ..Default::default()
        }
    }

    /// Enable tracing/profiling with `profile`.
    pub fn with_profile(mut self, profile: ProfileConfig) -> Self {
        self.profile = Some(profile);
        self
    }

    /// Toggle the always-on pool metrics (on by default; turning them
    /// off is for measuring the disabled-path cost).
    pub fn with_metrics(mut self, metrics: bool) -> Self {
        self.metrics = metrics;
        self
    }

    /// Set the flight-recorder window (`0` disables it; only for
    /// measuring the disabled-path cost).
    pub fn with_flight_capacity(mut self, flight_capacity: usize) -> Self {
        self.flight_capacity = flight_capacity;
        self
    }

    /// Set the health-watchdog thresholds.
    pub fn with_health(mut self, health: HealthConfig) -> Self {
        self.health = health;
        self
    }

    /// Install a deterministic fault-injection plan (chaos engine).
    pub fn with_chaos(mut self, chaos: ChaosConfig) -> Self {
        self.chaos = Some(chaos);
        self
    }

    /// Set the recovery policy (watchdog budget, retry/backoff
    /// schedule, per-device fault budget).
    pub fn with_recovery(mut self, recovery: RecoveryConfig) -> Self {
        self.recovery = recovery;
        self
    }
}

/// Cached processor builds per device (compatible-launch reuse).
const PROCESSOR_CACHE: usize = 8;

/// Outcome of one launch on a device.
#[derive(Debug)]
pub(crate) struct LaunchOutcome {
    /// Execution statistics of the run.
    pub stats: ExecStats,
    /// Whether a cached processor build was reused.
    pub cache_hit: bool,
    /// Whether the compiled program came out of the pool's
    /// content-addressed [`CompileCache`].
    pub compile_hit: bool,
}

/// Resolve a launch's kernel source through the pool compile cache in
/// *predecoded* form: the simulator's µop decode rides the cached
/// artifact, so repeated launches skip re-decoding (the cache's
/// `decode_hits` counter tracks this). Returns the program and whether
/// it was a cache hit; failures are typed [`RuntimeError::Asm`] /
/// [`RuntimeError::Compile`].
pub(crate) fn resolve(
    cache: &CompileCache,
    spec: &LaunchSpec,
) -> Result<(Arc<DecodedProgram>, bool), RuntimeError> {
    match &spec.source {
        KernelSource::Asm(asm) => cache
            .get_or_assemble_decoded(asm, &spec.config)
            .map_err(|e| RuntimeError::Asm(e.to_string())),
        KernelSource::Ir(kernel) => cache
            .get_or_compile_decoded(kernel, &spec.config, OptLevel::Full)
            .map_err(|e| RuntimeError::Compile(e.to_string())),
    }
}

/// One simulated device.
pub(crate) struct Device {
    /// Pool index.
    pub id: usize,
    cfg: DeviceConfig,
    /// Watchdog: modeled-cycle budget a launch may run before it is
    /// killed and resolved as [`RuntimeError::Timeout`].
    watchdog_cycle_budget: u64,
    cache: Vec<(ProcessorConfig, Processor)>,
    /// Pool-wide per-PC profile sink (`Some` only when the runtime was
    /// built with [`ProfileConfig::per_pc`]).
    pc_sink: Option<Arc<PcSink>>,
}

impl Device {
    pub(crate) fn new(
        id: usize,
        cfg: DeviceConfig,
        watchdog_cycle_budget: u64,
        pc_sink: Option<Arc<PcSink>>,
    ) -> Self {
        Device {
            id,
            cfg,
            watchdog_cycle_budget,
            cache: Vec::new(),
            pc_sink,
        }
    }

    /// Modeled clocks for moving `words` over the host link.
    pub(crate) fn copy_cycles(&self, words: usize) -> u64 {
        simt_system::link_cycles(self.cfg.link_latency, self.cfg.link_width_words, words)
    }

    /// Fetch a processor for `config`, reusing a cached build when the
    /// configuration matches (reset to power-on state either way).
    fn processor(&mut self, config: &ProcessorConfig) -> Result<(Processor, bool), RuntimeError> {
        if let Some(i) = self.cache.iter().position(|(c, _)| c == config) {
            let (_, mut p) = self.cache.remove(i);
            p.reset();
            return Ok((p, true));
        }
        let p = Processor::new(config.clone()).map_err(|e| RuntimeError::Config(e.to_string()))?;
        Ok((p, false))
    }

    fn retire(&mut self, config: ProcessorConfig, p: Processor) {
        self.cache.insert(0, (config, p));
        self.cache.truncate(PROCESSOR_CACHE);
    }

    /// Execute one launch of the resolved program `decoded` against a
    /// device buffer: the processor's shared memory is seeded from the
    /// buffer, inline spec inputs are applied on top, the kernel runs to
    /// `exit`, and the shared image is written back so later copies and
    /// launches see it. `compile_hit` is reported back unchanged (see
    /// [`resolve`]).
    pub(crate) fn run_decoded(
        &mut self,
        spec: &LaunchSpec,
        decoded: Arc<DecodedProgram>,
        compile_hit: bool,
        buffer: &mut [u32],
    ) -> Result<LaunchOutcome, RuntimeError> {
        let (mut proc, cache_hit) = self.processor(&spec.config)?;
        let exec_err = |e: String| RuntimeError::Exec {
            kernel: spec.name.clone(),
            device: self.id,
            detail: e,
        };
        let shared_words = spec.config.shared_words.min(buffer.len());
        proc.shared_mut()
            .load_words(0, &buffer[..shared_words])
            .map_err(|e| exec_err(e.to_string()))?;
        for (off, words) in &spec.inputs {
            proc.shared_mut()
                .load_words(*off, words)
                .map_err(|e| exec_err(e.to_string()))?;
        }
        // Postmortem attribution wants the program a profile indexes
        // into; keep a handle before the decode is consumed below
        // (profiled pools only — the default path stays untouched).
        let program = self.pc_sink.as_ref().map(|_| Arc::clone(decoded.program()));
        proc.load_decoded(decoded)
            .map_err(|e| RuntimeError::Load(e.to_string()))?;
        let stats = match &self.pc_sink {
            None => proc
                .run(RunOptions::default())
                .map_err(|e| exec_err(e.to_string()))?,
            Some(sink) => {
                // Per-PC profiling on: run the monomorphized profiled
                // loop and merge the histogram into the pool sink under
                // the kernel's name.
                let (stats, profile) = proc
                    .run_profiled(RunOptions::default())
                    .map_err(|e| exec_err(e.to_string()))?;
                let mut sink = sink.lock().unwrap();
                match sink.get_mut(&spec.name) {
                    Some(merged) => merged.profile.merge(&profile),
                    None => {
                        sink.insert(
                            spec.name.clone(),
                            KernelProfile {
                                profile,
                                program: program.expect("profiled path captured the program"),
                                source: spec.source.clone(),
                                config: spec.config.clone(),
                            },
                        );
                    }
                }
                stats
            }
        };
        // Watchdog: a launch over its modeled-cycle budget is killed —
        // its writes never reach the stream buffer (checked *before*
        // write-back, so a retried or poisoned command leaves the
        // buffer bit-exact with the fault-free history).
        if stats.cycles > self.watchdog_cycle_budget {
            self.retire(spec.config.clone(), proc);
            return Err(RuntimeError::Timeout {
                kernel: spec.name.clone(),
                device: self.id,
                budget_cycles: self.watchdog_cycle_budget,
            });
        }
        buffer[..shared_words].copy_from_slice(&proc.shared().as_slice()[..shared_words]);
        self.retire(spec.config.clone(), proc);
        Ok(LaunchOutcome {
            stats,
            cache_hit,
            compile_hit,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simt_kernels::workload::int_vector;

    fn device() -> Device {
        Device::new(
            0,
            DeviceConfig::default(),
            RecoveryConfig::default().watchdog_cycle_budget,
            None,
        )
    }

    /// The stream path: resolve through `cache`, then run.
    fn launch(
        d: &mut Device,
        cache: &CompileCache,
        spec: &LaunchSpec,
        buffer: &mut [u32],
    ) -> Result<LaunchOutcome, RuntimeError> {
        let (decoded, compile_hit) = resolve(cache, spec)?;
        d.run_decoded(spec, decoded, compile_hit, buffer)
    }

    #[test]
    fn copy_cost_matches_link_model() {
        let d = device();
        assert_eq!(d.copy_cycles(0), 12);
        assert_eq!(d.copy_cycles(1), 13);
        assert_eq!(d.copy_cycles(64), 12 + 16);
    }

    #[test]
    fn launch_reads_and_writes_the_buffer() {
        let mut d = device();
        let cache = CompileCache::new();
        let x = int_vector(64, 1);
        let y = int_vector(64, 2);
        // Detached inputs: place them in the buffer, not the spec.
        let (spec, inputs) = LaunchSpec::saxpy(3, &x, &y).detach_inputs();
        let mut buffer = vec![0u32; 16384];
        for (off, words) in &inputs {
            buffer[*off..*off + words.len()].copy_from_slice(words);
        }
        let out = launch(&mut d, &cache, &spec, &mut buffer).unwrap();
        assert!(out.stats.cycles > 0);
        assert!(!out.cache_hit);
        assert!(!out.compile_hit, "first launch must compile");
        assert_eq!(
            &buffer[spec.out_off..spec.out_off + spec.out_len],
            spec.expected.as_slice()
        );
        // Same config again: cached build and cached compile.
        let again = launch(&mut d, &cache, &spec, &mut buffer).unwrap();
        assert!(again.cache_hit);
        assert!(again.compile_hit);
        assert_eq!(again.stats.cycles, out.stats.cycles);
    }

    #[test]
    fn ir_launches_compile_through_the_shared_cache() {
        let cache = CompileCache::new();
        let budget = RecoveryConfig::default().watchdog_cycle_budget;
        let mut d0 = Device::new(0, DeviceConfig::default(), budget, None);
        let mut d1 = Device::new(1, DeviceConfig::default(), budget, None);
        let x = int_vector(64, 1);
        let y = int_vector(64, 2);
        let spec = LaunchSpec::saxpy_ir(3, &x, &y);
        let mut buffer = vec![0u32; 16384];
        let first = launch(&mut d0, &cache, &spec, &mut buffer).unwrap();
        assert!(!first.compile_hit);
        assert_eq!(
            &buffer[spec.out_off..spec.out_off + spec.out_len],
            spec.expected.as_slice()
        );
        // A *different* device reuses the pool-wide compiled artifact.
        let second = launch(&mut d1, &cache, &spec, &mut buffer).unwrap();
        assert!(second.compile_hit);
        assert_eq!((cache.misses(), cache.hits()), (1, 1));
    }

    #[test]
    fn launch_errors_are_typed() {
        let mut d = device();
        let cache = CompileCache::new();
        let x = int_vector(16, 1);
        let mut spec = LaunchSpec::sum(&x);
        spec.source = simt_kernels::KernelSource::Asm("  bogus r1".into());
        let mut buffer = vec![0u32; 16384];
        match launch(&mut d, &cache, &spec, &mut buffer) {
            Err(RuntimeError::Asm(_)) => {}
            other => panic!("expected Asm error, got {other:?}"),
        }
        // An IR kernel that exceeds the register file is a typed
        // Compile error.
        let mut ir_spec = LaunchSpec::fir_ir(&int_vector(16 + 15, 2), &int_vector(16, 3), 16);
        ir_spec.config = ir_spec.config.with_regs_per_thread(2);
        match launch(&mut d, &cache, &ir_spec, &mut buffer) {
            Err(RuntimeError::Compile(e)) => assert!(e.contains("register"), "{e}"),
            other => panic!("expected Compile error, got {other:?}"),
        }
    }

    #[test]
    fn watchdog_kills_over_budget_launches_without_touching_the_buffer() {
        let mut d = Device::new(
            0,
            DeviceConfig::default(),
            10, // far below any real kernel's cycle count
            None,
        );
        let cache = CompileCache::new();
        let x = int_vector(64, 1);
        let y = int_vector(64, 2);
        let (spec, inputs) = LaunchSpec::saxpy(3, &x, &y).detach_inputs();
        let mut buffer = vec![0u32; 16384];
        for (off, words) in &inputs {
            buffer[*off..*off + words.len()].copy_from_slice(words);
        }
        let before = buffer.clone();
        match launch(&mut d, &cache, &spec, &mut buffer) {
            Err(RuntimeError::Timeout {
                kernel,
                device,
                budget_cycles,
            }) => {
                assert_eq!(device, 0);
                assert_eq!(budget_cycles, 10);
                assert_eq!(kernel, spec.name);
            }
            other => panic!("expected Timeout, got {other:?}"),
        }
        assert_eq!(buffer, before, "a killed launch must not write back");
    }
}
