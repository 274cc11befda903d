//! Standalone per-layer timings: the device-side steps of one launch,
//! called directly through the `compiler`, `isa` and `core` public APIs in
//! the order the runtime's device worker performs them, plus the cost of
//! a compile-cache miss.

use crate::stats::{median, us};
use simt_compiler::{compile, CompileCache, OptLevel};
use simt_core::{DecodedProgram, Processor, ProcessorConfig, RunOptions};
use simt_kernels::{KernelSource, LaunchSpec};
use std::sync::Arc;
use std::time::Instant;

/// One launch to replay standalone: its spec, the buffer writes that
/// precede it (graph copy-ins; empty for stream launches, whose inputs
/// travel inline), and the window its output must match.
pub struct DeviceStep<'a> {
    pub spec: &'a LaunchSpec,
    pub pre: Vec<(usize, Vec<u32>)>,
    pub out: (usize, Vec<u32>),
}

/// Median µs per step, over every repetition.
pub struct DeviceRows {
    pub lookup_hit_us: f64,
    pub reset_us: f64,
    pub stage_us: f64,
    pub run_us: f64,
    pub readback_us: f64,
    /// Simulated thread-operations per µs of `Processor::run`, in millions
    /// per second.
    pub mthread_ops_per_s: f64,
}

impl DeviceRows {
    pub fn total_us(&self) -> f64 {
        self.lookup_hit_us + self.reset_us + self.stage_us + self.run_us + self.readback_us
    }
}

fn lookup(cache: &CompileCache, spec: &LaunchSpec) -> Result<(Arc<DecodedProgram>, bool), String> {
    match &spec.source {
        KernelSource::Asm(asm) => cache
            .get_or_assemble_decoded(asm, &spec.config)
            .map_err(|e| e.to_string()),
        KernelSource::Ir(k) => cache
            .get_or_compile_decoded(k, &spec.config, OptLevel::Full)
            .map_err(|e| e.to_string()),
    }
}

/// Time `reps` launches of `steps[next()]` through a warmed compile cache
/// and reused processors, against one device buffer of `memory_words`,
/// checking every output.
pub fn device_rows(
    steps: &[DeviceStep],
    mut next: impl FnMut() -> usize,
    reps: usize,
    memory_words: usize,
) -> Result<DeviceRows, String> {
    let cache = CompileCache::new();
    for s in steps {
        lookup(&cache, s.spec)?;
    }
    let mut procs: Vec<(ProcessorConfig, Processor)> = Vec::new();
    let mut buffer = vec![0u32; memory_words];
    let [mut lk, mut rs, mut st, mut rn, mut rb] =
        std::array::from_fn(|_| Vec::with_capacity(reps));
    let (mut ops, mut run_s) = (0u64, 0.0f64);
    for _ in 0..reps {
        let step = &steps[next()];
        let spec = step.spec;
        for (off, words) in &step.pre {
            buffer[*off..*off + words.len()].copy_from_slice(words);
        }
        let p = match procs.iter().position(|(c, _)| *c == spec.config) {
            Some(i) => i,
            None => {
                let p = Processor::new(spec.config.clone()).map_err(|e| e.to_string())?;
                procs.push((spec.config.clone(), p));
                procs.len() - 1
            }
        };
        let proc = &mut procs[p].1;
        let sw = spec.config.shared_words.min(buffer.len());

        let t0 = Instant::now();
        let (decoded, hit) = lookup(&cache, spec)?;
        let t1 = Instant::now();
        proc.reset();
        let t2 = Instant::now();
        let shared = proc.shared_mut();
        shared
            .load_words(0, &buffer[..sw])
            .map_err(|e| e.to_string())?;
        for (off, words) in &spec.inputs {
            shared.load_words(*off, words).map_err(|e| e.to_string())?;
        }
        proc.load_decoded(decoded).map_err(|e| e.to_string())?;
        let t3 = Instant::now();
        let stats = proc.run(RunOptions::default()).map_err(|e| e.to_string())?;
        let t4 = Instant::now();
        let image = proc.shared().read_words(0, sw).map_err(|e| e.to_string())?;
        let t5 = Instant::now();

        buffer[..sw].copy_from_slice(&image);
        let (off, want) = &step.out;
        if !hit || buffer[*off..*off + want.len()] != want[..] {
            return Err(format!(
                "standalone {}: compile-cache miss or wrong output",
                spec.name
            ));
        }
        lk.push(us(t1 - t0));
        rs.push(us(t2 - t1));
        st.push(us(t3 - t2));
        rn.push(us(t4 - t3));
        rb.push(us(t5 - t4));
        ops += stats.thread_ops;
        run_s += (t4 - t3).as_secs_f64();
    }
    Ok(DeviceRows {
        lookup_hit_us: median(&mut lk),
        reset_us: median(&mut rs),
        stage_us: median(&mut st),
        run_us: median(&mut rn),
        readback_us: median(&mut rb),
        mthread_ops_per_s: ops as f64 / run_s / 1e6,
    })
}

/// Median µs of a compile-cache miss's parts, each distinct kernel timed
/// three times.
pub struct MissRows {
    /// `compile` at `OptLevel::Full`, over the IR kernels (0 when the
    /// workload has none).
    pub compile_us: f64,
    /// `assemble`, over the assembly kernels.
    pub assemble_us: f64,
    /// `DecodedProgram::decode`, over every kernel.
    pub decode_us: f64,
}

pub fn miss_rows(specs: &[&LaunchSpec]) -> Result<MissRows, String> {
    let (mut comp, mut asm, mut dec) = (Vec::new(), Vec::new(), Vec::new());
    for spec in specs {
        for _ in 0..3 {
            let t0 = Instant::now();
            let program = match &spec.source {
                KernelSource::Asm(text) => {
                    let p = simt_isa::assemble(text).map_err(|e| e.to_string())?;
                    asm.push(us(t0.elapsed()));
                    p
                }
                KernelSource::Ir(k) => {
                    let c = compile(k, &spec.config, OptLevel::Full).map_err(|e| e.to_string())?;
                    comp.push(us(t0.elapsed()));
                    c.program
                }
            };
            let program = Arc::new(program);
            let t1 = Instant::now();
            let d = DecodedProgram::decode(program, &spec.config);
            dec.push(us(t1.elapsed()));
            std::hint::black_box(d);
        }
    }
    Ok(MissRows {
        compile_us: median(&mut comp),
        assemble_us: median(&mut asm),
        decode_us: median(&mut dec),
    })
}
