//! Integration: IR-sourced launches through the stream scheduler are
//! bit-exact against their host references, and repeated launches of
//! the same IR + configuration hit the pool's content-addressed
//! compile cache instead of re-lowering.

use simt_kernels::workload::{int_vector, lowpass_taps, q15_signal};
use simt_kernels::LaunchSpec;
use simt_runtime::{Runtime, RuntimeConfig};

#[test]
fn ir_launches_are_bit_exact_through_the_runtime() {
    let rt = Runtime::new(RuntimeConfig::default());
    let s = rt.stream();
    let x = int_vector(256, 1);
    let y = int_vector(256, 2);
    let taps = lowpass_taps(16);
    let sig = q15_signal(128 + 15, 3);
    let specs = vec![
        LaunchSpec::saxpy_ir(5, &x, &y),
        LaunchSpec::dot_ir(&x, &y),
        LaunchSpec::sum_ir(&x),
        LaunchSpec::fir_ir(&sig, &taps, 128),
    ];
    let mut outs = Vec::new();
    for spec in specs {
        let name = spec.name.clone();
        let expected = spec.expected.clone();
        let (off, len) = (spec.out_off, spec.out_len);
        s.launch(spec);
        outs.push((name, expected, s.copy_out(off, len)));
    }
    rt.synchronize().unwrap();
    for (name, expected, out) in outs {
        assert_eq!(out.wait().unwrap(), expected, "{name} output mismatch");
    }
    // Four distinct kernels: four compiles, no hits yet.
    assert_eq!(rt.stats().compile_misses(), 4);
    assert_eq!(rt.stats().compile_hits(), 0);
}

#[test]
fn repeated_ir_launches_hit_the_compile_cache() {
    // One device so every launch meets the same pool cache
    // deterministically.
    let rt = Runtime::new(RuntimeConfig::with_devices(1));
    let s = rt.stream();
    let x = int_vector(128, 7);
    let y = int_vector(128, 8);
    const REPEATS: usize = 6;
    for _ in 0..REPEATS {
        let spec = LaunchSpec::saxpy_ir(3, &x, &y);
        let expected = spec.expected.clone();
        let (off, len) = (spec.out_off, spec.out_len);
        s.launch(spec);
        let out = s.copy_out(off, len);
        rt.synchronize().unwrap();
        assert_eq!(out.wait().unwrap(), expected);
    }
    let stats = rt.stats();
    assert_eq!(stats.compile_misses(), 1, "exactly one real compile");
    assert_eq!(stats.compile_hits(), REPEATS as u64 - 1);
    assert!(stats.compile_hit_rate() > 0.8);
    // The cache itself agrees with the per-device accounting.
    assert_eq!(rt.compile_cache().misses(), 1);
    assert_eq!(rt.compile_cache().hits(), REPEATS as u64 - 1);
    assert_eq!(rt.compile_cache().len(), 1);
    // The simulator decode rides the cached artifact: one decode on the
    // first launch, reused by every repeat (no per-launch re-decode).
    assert_eq!(rt.compile_cache().decode_misses(), 1);
    assert_eq!(rt.compile_cache().decode_hits(), REPEATS as u64 - 1);
}

#[test]
fn looped_ir_launches_run_and_cache_through_the_runtime() {
    // The loop-carried kernels (matmul/iir) compile through the same
    // pool cache and stay bit-exact against their host references when
    // the scheduler places them across the device pool.
    use simt_kernels::iir::Biquad;
    use simt_kernels::workload::q15_matrix;

    let rt = Runtime::new(RuntimeConfig::with_devices(1));
    let s = rt.stream();
    let a = q15_matrix(8, 8, 41);
    let b = q15_matrix(8, 8, 42);
    let sig = q15_signal(16 * 8, 43);
    const REPEATS: usize = 3;
    let mut outs = Vec::new();
    for _ in 0..REPEATS {
        for spec in [
            LaunchSpec::matmul_ir(&a, &b, 8, 8, 8),
            LaunchSpec::iir_ir(&sig, 16, 8, Biquad::lowpass()),
        ] {
            let name = spec.name.clone();
            let expected = spec.expected.clone();
            let (off, len) = (spec.out_off, spec.out_len);
            s.launch(spec);
            outs.push((name, expected, s.copy_out(off, len)));
        }
    }
    rt.synchronize().unwrap();
    for (name, expected, out) in outs {
        assert_eq!(out.wait().unwrap(), expected, "{name} output mismatch");
    }
    // Two distinct looped kernels, compiled once each; repeats hit.
    assert_eq!(rt.stats().compile_misses(), 2);
    assert_eq!(rt.stats().compile_hits(), (REPEATS as u64 - 1) * 2);
}

/// A one-launch graph: `spec`, then a copy-out of its output window.
fn launch_graph(spec: LaunchSpec) -> simt_runtime::ExecGraph {
    let (off, len) = (spec.out_off, spec.out_len);
    let mut b = simt_runtime::GraphBuilder::new();
    let l = b.launch(spec, &[]);
    b.copy_out(off, len, &[l]);
    b.finish().unwrap()
}

#[test]
fn graph_replays_never_touch_the_compile_cache() {
    let rt = Runtime::new(RuntimeConfig::with_devices(1));
    let x = int_vector(128, 5);
    let y = int_vector(128, 6);
    let spec = LaunchSpec::saxpy_ir(2, &x, &y);
    let expected = spec.expected.clone();

    // Instantiate compiles AND decodes the kernel once.
    let exec = rt.instantiate(launch_graph(spec)).unwrap();
    let cache = rt.compile_cache();
    assert_eq!(cache.decode_misses(), 1);
    let counters = |c: &simt_compiler::CompileCache| {
        (c.hits(), c.misses(), c.decode_hits(), c.decode_misses())
    };
    let frozen = counters(cache);

    // Replays run the program bound at instantiation: no lookup at
    // all, so every cache counter stays where instantiate left it.
    const REPLAYS: u64 = 3;
    for _ in 0..REPLAYS {
        let replay = rt.replay(&exec).unwrap();
        assert_eq!(replay.outputs[0].1, expected);
        assert_eq!(replay.compile_hits, 1);
    }
    assert_eq!(counters(cache), frozen);
}

#[test]
fn replay_survives_eviction_of_its_kernel() {
    let mut cfg = RuntimeConfig::with_devices(1);
    cfg.compile_cache_capacity = Some(1);
    let rt = Runtime::new(cfg);
    let x = int_vector(64, 7);
    let y = int_vector(64, 8);
    let spec = LaunchSpec::saxpy_ir(3, &x, &y);
    let expected = spec.expected.clone();
    let exec = rt.instantiate(launch_graph(spec)).unwrap();

    // A different kernel through the one-entry cache evicts the graph's.
    let s = rt.stream();
    s.launch(LaunchSpec::saxpy_ir(4, &x, &y));
    rt.synchronize().unwrap();
    assert_eq!(rt.compile_cache().evictions(), 1);
    assert_eq!(rt.compile_cache().len(), 1);

    // The replay runs its bound program: bit-exact, no recompile.
    let misses = rt.compile_cache().misses();
    let replay = rt.replay(&exec).unwrap();
    assert_eq!(replay.outputs[0].1, expected);
    assert_eq!(rt.compile_cache().misses(), misses);
}

#[test]
fn asm_launches_share_the_cache_too() {
    let rt = Runtime::new(RuntimeConfig::with_devices(1));
    let s = rt.stream();
    let x = int_vector(64, 3);
    for _ in 0..3 {
        let spec = LaunchSpec::sum(&x);
        s.launch(spec);
    }
    rt.synchronize().unwrap();
    let stats = rt.stats();
    assert_eq!(stats.compile_misses(), 1);
    assert_eq!(stats.compile_hits(), 2);
}

#[test]
fn mixed_sources_and_configs_key_separately() {
    let rt = Runtime::new(RuntimeConfig::with_devices(1));
    let s = rt.stream();
    let x = int_vector(64, 1);
    let y = int_vector(64, 2);
    // Same kernel family, asm vs IR vs different coefficient: three
    // distinct artifacts.
    s.launch(LaunchSpec::saxpy(3, &x, &y));
    s.launch(LaunchSpec::saxpy_ir(3, &x, &y));
    s.launch(LaunchSpec::saxpy_ir(4, &x, &y));
    s.launch(LaunchSpec::saxpy_ir(3, &x, &y)); // repeat: the only hit
    rt.synchronize().unwrap();
    let stats = rt.stats();
    assert_eq!(stats.compile_misses(), 3);
    assert_eq!(stats.compile_hits(), 1);
    assert_eq!(rt.compile_cache().len(), 3);
}
