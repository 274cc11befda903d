//! Seeded randomness, sample storage and order statistics.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// SplitMix64: the benchmark's only source of randomness, so one seed
/// fixes every input and every operation order.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream` so independent
    /// uses of one seed (inputs, operation order) do not share draws.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// Linear-interpolated quantile `q` in `0..=1` of unsorted samples
/// (sorts in place). Empty input gives 0.
pub fn quantile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(v: &mut [f64]) -> f64 {
    quantile(v, 0.5)
}

/// Distance between the first and third quartile.
pub fn iqr(v: &mut [f64]) -> f64 {
    quantile(v, 0.75) - quantile(v, 0.25)
}

/// Latency samples in µs, stored as `f32` in a buffer sized and touched
/// up front: the benchmark's own memory then does not grow with the
/// program's speed, which would leak into `peak_rss_mib`. Quantiles sort
/// the buffer in place for the same reason. Past capacity, reservoir
/// sampling keeps a uniform sample of every latency seen.
pub struct Samples {
    buf: Vec<f32>,
    len: usize,
    seen: u64,
    sorted: bool,
    rng: Rng,
}

impl Samples {
    pub fn with_capacity(cap: usize) -> Samples {
        let mut buf = Vec::with_capacity(cap);
        // `resize` writes every element, so the pages are resident now.
        buf.resize(cap, 0.0);
        Samples {
            buf,
            len: 0,
            seen: 0,
            sorted: true,
            rng: Rng::new(cap as u64, 7),
        }
    }

    pub fn push(&mut self, us: f64) {
        self.seen += 1;
        self.sorted = false;
        if self.len < self.buf.len() {
            self.buf[self.len] = us as f32;
            self.len += 1;
        } else {
            let j = (self.rng.next_u64() % self.seen) as usize;
            if j < self.buf.len() {
                self.buf[j] = us as f32;
            }
        }
    }

    /// Add another set's kept samples to this one.
    pub fn absorb(&mut self, other: &Samples) {
        for &x in &other.buf[..other.len] {
            self.push(x as f64);
        }
        self.seen += other.seen - other.len as u64;
    }

    /// Samples recorded (not only those kept).
    pub fn count(&self) -> u64 {
        self.seen
    }

    /// Linear-interpolated quantile `q` in `0..=1`; 0 when empty.
    pub fn quantile(&mut self, q: f64) -> f64 {
        let v = &mut self.buf[..self.len];
        if v.is_empty() {
            return 0.0;
        }
        if !self.sorted {
            v.sort_unstable_by(f32::total_cmp);
            self.sorted = true;
        }
        let pos = q * (v.len() - 1) as f64;
        let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
        v[lo] as f64 + (v[hi] as f64 - v[lo] as f64) * (pos - lo as f64)
    }
}

/// Microseconds in a duration.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Noise-floor calibration: the median of five timings of a fixed
/// CPU-bound loop, in ms. It does the same work on every run, so a run on
/// a busier or slower host shows up here instead of as a regression.
pub fn calibration_ms() -> f64 {
    let mut runs: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            let mut x = black_box(0x2545_F491_4F6C_DD1Du64);
            for _ in 0..4_000_000 {
                x = x
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                x ^= x >> 29;
            }
            black_box(x);
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&mut runs)
}
