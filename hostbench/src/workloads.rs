//! The four workloads: their inputs, generated from the seed, and the order
//! in which operations draw them.

use crate::stats::Rng;
use simt_kernels::iir::Biquad;
use simt_kernels::pipeline::Pipeline;
use simt_kernels::workload::{int_vector, lowpass_taps, q15_signal};
use simt_kernels::LaunchSpec;
use simt_runtime::RuntimeConfig;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    SmallLaunch,
    KernelHeavy,
    CompileChurn,
    GraphReplay,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        Some(match name {
            "small_launch" => Workload::SmallLaunch,
            "kernel_heavy" => Workload::KernelHeavy,
            "compile_churn" => Workload::CompileChurn,
            "graph_replay" => Workload::GraphReplay,
            _ => return None,
        })
    }

    /// Device-pool size: one device where compile-cache counters must be
    /// exact (a single worker sees lookups in submission order), the
    /// default two elsewhere.
    pub fn config(self) -> RuntimeConfig {
        match self {
            Workload::SmallLaunch | Workload::CompileChurn => RuntimeConfig::with_devices(1),
            Workload::KernelHeavy | Workload::GraphReplay => RuntimeConfig::default(),
        }
    }

    /// Streams the client submits to, and operations per submitted batch.
    /// A batch of one is a closed loop: the next operation is submitted
    /// only after the previous one resolved.
    pub fn streams_and_batch(self) -> (usize, usize) {
        match self {
            Workload::KernelHeavy => (2, 8),
            _ => (1, 1),
        }
    }

    /// Operations at the start of the timed loop over which the exact
    /// metrics are summed (per replay thread on `graph_replay`). A
    /// multiple of the batch size, and short enough to finish well inside
    /// the first measurement chunk.
    pub fn exact_ops(self) -> u64 {
        match self {
            Workload::SmallLaunch => 2000,
            Workload::KernelHeavy => 320,
            Workload::CompileChurn => 6000,
            Workload::GraphReplay => 200,
        }
    }

    /// Repetitions of the standalone device-side layer measurement.
    pub fn device_reps(self) -> usize {
        match self {
            Workload::KernelHeavy => 300,
            _ => 3000,
        }
    }
}

/// A workload's launch specs. Operations draw a kernel kind, then one of
/// that kind's input variants.
pub struct Pool {
    pub specs: Vec<LaunchSpec>,
    /// Spec indices per kernel kind.
    kinds: Vec<Vec<usize>>,
    /// Draw kinds in shuffled blocks holding every kind once, so the
    /// kernel mix (and with it throughput) is the same for every seed.
    /// Otherwise draw uniformly over all specs.
    stratified: bool,
}

impl Pool {
    pub fn new(w: Workload, seed: u64) -> Pool {
        let mut rng = Rng::new(seed, 1);
        match w {
            Workload::SmallLaunch => small_launch(&mut rng),
            Workload::KernelHeavy => kernel_heavy(&mut rng),
            Workload::CompileChurn => compile_churn(&mut rng),
            Workload::GraphReplay => unreachable!("graph_replay launches pipelines, not specs"),
        }
    }

    /// The operation order for `seed`.
    pub fn order(&self, seed: u64) -> Order {
        Order {
            rng: Rng::new(seed, 2),
            block: Vec::new(),
        }
    }

    /// Index of the first spec of every kind's variants that shares a
    /// source with no earlier spec (one per distinct kernel).
    pub fn distinct(&self) -> Vec<usize> {
        if self.stratified {
            self.kinds.iter().map(|k| k[0]).collect()
        } else {
            (0..self.specs.len()).collect()
        }
    }
}

/// A seeded stream of spec indices.
pub struct Order {
    rng: Rng,
    block: Vec<usize>,
}

impl Order {
    pub fn next(&mut self, pool: &Pool) -> usize {
        if !pool.stratified {
            return self.rng.below(pool.specs.len());
        }
        if self.block.is_empty() {
            self.block = (0..pool.kinds.len()).collect();
            self.rng.shuffle(&mut self.block);
        }
        let kind = &pool.kinds[self.block.pop().expect("refilled above")];
        kind[self.rng.below(kind.len())]
    }
}

fn stratified(variants: Vec<Vec<LaunchSpec>>) -> Pool {
    let mut specs = Vec::new();
    let mut kinds = Vec::new();
    for group in variants {
        kinds.push((specs.len()..specs.len() + group.len()).collect());
        specs.extend(group);
    }
    Pool {
        specs,
        kinds,
        stratified: true,
    }
}

/// saxpy, sat_add and fma in assembly at 64 threads, 16 input sets each.
fn small_launch(rng: &mut Rng) -> Pool {
    const N: usize = 64;
    let a = 2 + rng.below(6) as i32;
    let v = |rng: &mut Rng| int_vector(N, rng.next_u64());
    let saxpy = (0..16)
        .map(|_| LaunchSpec::saxpy(a, &v(rng), &v(rng)))
        .collect();
    let sat_add = (0..16)
        .map(|_| LaunchSpec::sat_add(&v(rng), &v(rng)))
        .collect();
    let fma = (0..16)
        .map(|_| LaunchSpec::fma(&v(rng), &v(rng), &v(rng)))
        .collect();
    stratified(vec![saxpy, sat_add, fma])
}

/// The simulator-throughput kernels at 1024 threads: matmul_ir 32×16×32,
/// iir_ir (1024 channels × 4 samples) and the assembly FIR with 16 taps,
/// four input sets each.
fn kernel_heavy(rng: &mut Rng) -> Pool {
    const T: usize = 1024;
    let matmul = (0..4)
        .map(|_| {
            let a = int_vector(32 * 16, rng.next_u64());
            let b = int_vector(16 * 32, rng.next_u64());
            LaunchSpec::matmul_ir(&a, &b, 32, 16, 32)
        })
        .collect();
    let iir = (0..4)
        .map(|_| LaunchSpec::iir_ir(&q15_signal(T * 4, rng.next_u64()), T, 4, Biquad::lowpass()))
        .collect();
    let taps = lowpass_taps(16);
    let fir = (0..4)
        .map(|_| LaunchSpec::fir(&q15_signal(T + taps.len() - 1, rng.next_u64()), &taps, T))
        .collect();
    stratified(vec![matmul, iir, fir])
}

/// 320 distinct IR kernels at 64 threads — more than the default
/// compile-cache capacity of 256 — one input set each: saxpy_ir with 200
/// constants, fir_ir with 1..=64 taps and matmul_ir in 56 shapes.
fn compile_churn(rng: &mut Rng) -> Pool {
    const N: usize = 64;
    let mut specs = Vec::new();
    for a in 1..=200 {
        specs.push(LaunchSpec::saxpy_ir(
            a,
            &int_vector(N, rng.next_u64()),
            &int_vector(N, rng.next_u64()),
        ));
    }
    for taps in 1..=64 {
        let x = q15_signal(N + taps - 1, rng.next_u64());
        specs.push(LaunchSpec::fir_ir(&x, &lowpass_taps(taps), N));
    }
    for n in [1, 2, 4, 8, 16, 32, 64] {
        for k in [1, 2, 4, 8, 12, 16, 24, 32] {
            let m = N / n;
            let a = int_vector(m * k, rng.next_u64());
            let b = int_vector(k * n, rng.next_u64());
            specs.push(LaunchSpec::matmul_ir(&a, &b, m, k, n));
        }
    }
    Pool {
        specs,
        kinds: Vec::new(),
        stratified: false,
    }
}

/// The two `saxpy → scale → sum` pipelines `graph_replay` fuses and
/// replays, 256 wide.
pub fn pipelines(seed: u64) -> [Pipeline; 2] {
    let mut rng = Rng::new(seed, 1);
    let one = |rng: &mut Rng| {
        let a = 1 + rng.below(15) as i32;
        let shift = 1 + rng.below(4) as u32;
        let x = int_vector(256, rng.next_u64());
        let y = int_vector(256, rng.next_u64());
        Pipeline::saxpy_scale_sum(a, shift, &x, &y, 0)
    };
    [one(&mut rng), one(&mut rng)]
}
