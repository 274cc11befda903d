//! Content-addressed compile cache.
//!
//! Keys are deterministic 64-bit content hashes of (source, processor
//! configuration, opt level) — the wasmtime/cranelift artifact-cache
//! shape: identical kernels compiled for identical targets share one
//! [`Program`] no matter which stream, device or process-lifetime
//! launch asked first. Both frontends are covered: IR kernels (hashed
//! over a canonical renumbering, see [`Kernel::content_hash`]) and text
//! assembly (hashed over the source bytes).
//!
//! The cache is thread-safe and cheap to share (`Arc<CompileCache>`
//! across a device pool); hit/miss counters feed the runtime's
//! statistics. A hit compares the stored source material against the
//! request, so a 64-bit key collision degrades to a one-off compile
//! instead of returning the wrong program, and the map lock is never
//! held across a compile (per-key pending tracking serializes only
//! same-key callers).

use crate::error::CompileError;
use crate::ir::{hash_config, Fnv, Kernel};
use crate::lower::{compile, OptLevel};
use simt_core::{DecodedProgram, ProcessorConfig};
use simt_forensics::{CacheTier, FlightEvent, FlightRecorder};
use simt_isa::{IsaError, Program};
use simt_profile::{TraceEvent, Tracer};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// What a cache entry was compiled from. Kept alongside the program so
/// a 64-bit key collision is *detected* (the material is compared on
/// every hit) instead of silently handing back the wrong kernel. IR
/// material is the same canonical form the hash covers
/// ([`Kernel::canonical_bytes`]: dense-renumbered, reachable-only,
/// config included), so content-identical kernels that differ in name
/// or arena garbage still hit.
#[derive(Debug, PartialEq)]
enum SourceMaterial {
    /// Canonical IR + config bytes, plus the opt level.
    Ir { canon: Vec<u8>, opt_full: bool },
    /// Assembly source text.
    Asm(String),
}

#[derive(Debug)]
struct Entry {
    material: SourceMaterial,
    config: ProcessorConfig,
    program: Arc<Program>,
    /// The program predecoded for `config`
    /// ([`simt_core::DecodedProgram`]), filled on the first decoded
    /// lookup so graph replays and repeated stream launches skip
    /// re-decoding entirely.
    decoded: Option<Arc<DecodedProgram>>,
    /// Recency stamp for LRU eviction (larger = used more recently).
    last_used: u64,
}

#[derive(Debug, Default)]
struct Inner {
    map: HashMap<u64, Entry>,
    /// Keys currently being compiled by some thread; others wait on
    /// the condvar instead of compiling the same kernel in parallel —
    /// and instead of holding the map lock across a compile, which
    /// would serialize unrelated compilations pool-wide.
    pending: HashSet<u64>,
    /// Monotonic recency clock.
    tick: u64,
    /// Maximum resident artifacts (`None` = unbounded). A long-running
    /// pool serving many distinct programs must not grow without limit;
    /// past the bound the least-recently-used artifact is evicted.
    capacity: Option<usize>,
}

/// A shared, content-addressed map from compiled-artifact keys to
/// programs.
#[derive(Debug, Default)]
pub struct CompileCache {
    inner: Mutex<Inner>,
    ready: Condvar,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    decode_hits: AtomicU64,
    decode_misses: AtomicU64,
    /// Optional structured-event sink (see [`CompileCache::with_tracer`]).
    tracer: Option<Arc<Tracer>>,
    /// Optional always-on flight recorder (see
    /// [`CompileCache::with_flight`]).
    flight: Option<Arc<FlightRecorder>>,
}

/// Internal lookup result: the program, its decode when requested, and
/// whether the artifact came out of the cache.
type Lookup<E> = Result<(Arc<Program>, Option<Arc<DecodedProgram>>, bool), E>;

/// Outcome of claiming a key under the lock.
enum Claim {
    /// Resident artifact; the decode is `Some` iff the caller asked
    /// for a decoded lookup.
    Hit(Arc<Program>, Option<Arc<DecodedProgram>>),
    /// This thread owns the compile for the key.
    Owned,
    /// The key is resident but the material differs (hash collision):
    /// compile without caching.
    Collision,
}

impl CompileCache {
    /// An empty, unbounded cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty cache holding at most `capacity` artifacts, evicting
    /// the least-recently-used past the bound.
    ///
    /// # Panics
    /// If `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity >= 1, "a compile cache needs room for one entry");
        let cache = Self::default();
        cache.inner.lock().unwrap().capacity = Some(capacity);
        cache
    }

    /// Attach a [`Tracer`]: every lookup then emits
    /// [`TraceEvent::CompileCacheHit`] / [`TraceEvent::CompileCacheMiss`]
    /// (plus the decode-cache pair), and every fresh IR compile emits one
    /// [`TraceEvent::PassRun`] per pipeline pass invocation.
    pub fn with_tracer(mut self, tracer: Arc<Tracer>) -> Self {
        self.tracer = Some(tracer);
        self
    }

    /// Attach a flight recorder: every compile- and decode-cache lookup
    /// then records a compact [`FlightEvent::CacheQuery`], independent
    /// of the opt-in tracer.
    pub fn with_flight(mut self, flight: Arc<FlightRecorder>) -> Self {
        self.flight = Some(flight);
        self
    }

    /// Record `event` when a tracer is attached (the disabled path is a
    /// branch on `None`).
    fn emit(&self, event: TraceEvent) {
        if let Some(t) = &self.tracer {
            t.record(event);
        }
    }

    /// Record a cache outcome on the flight recorder when one is
    /// attached (same branch-on-`None` disabled path as `emit`).
    fn note_cache(&self, kernel: &str, cache: CacheTier, hit: bool) {
        if let Some(f) = &self.flight {
            f.record(FlightEvent::CacheQuery {
                kernel: kernel.to_string(),
                cache,
                hit,
            });
        }
    }

    /// Claim `key` under the lock: hit, collision, or take ownership of
    /// the compile (waiting out any other thread already compiling it).
    /// With `want_decoded`, a hit also returns the entry's predecoded
    /// form, deriving and caching it on first request (decoding is a
    /// cheap linear pass, so holding the lock is acceptable).
    fn claim(
        &self,
        key: u64,
        material: &SourceMaterial,
        config: &ProcessorConfig,
        want_decoded: bool,
        label: &str,
    ) -> Claim {
        let mut inner = self.inner.lock().unwrap();
        loop {
            inner.tick += 1;
            let tick = inner.tick;
            if let Some(e) = inner.map.get_mut(&key) {
                if e.material == *material && e.config == *config {
                    e.last_used = tick;
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    self.emit(TraceEvent::CompileCacheHit {
                        kernel: label.to_string(),
                        decoded: want_decoded,
                    });
                    self.note_cache(label, CacheTier::Compile, true);
                    let decoded = if want_decoded {
                        Some(match &e.decoded {
                            Some(d) => {
                                self.decode_hits.fetch_add(1, Ordering::Relaxed);
                                self.emit(TraceEvent::DecodeCacheHit {
                                    kernel: label.to_string(),
                                });
                                self.note_cache(label, CacheTier::Decode, true);
                                Arc::clone(d)
                            }
                            None => {
                                self.decode_misses.fetch_add(1, Ordering::Relaxed);
                                self.emit(TraceEvent::DecodeCacheMiss {
                                    kernel: label.to_string(),
                                });
                                self.note_cache(label, CacheTier::Decode, false);
                                let d = Arc::new(DecodedProgram::decode(
                                    Arc::clone(&e.program),
                                    &e.config,
                                ));
                                e.decoded = Some(Arc::clone(&d));
                                d
                            }
                        })
                    } else {
                        None
                    };
                    return Claim::Hit(Arc::clone(&e.program), decoded);
                }
                self.misses.fetch_add(1, Ordering::Relaxed);
                self.emit(TraceEvent::CompileCacheMiss {
                    kernel: label.to_string(),
                });
                self.note_cache(label, CacheTier::Compile, false);
                return Claim::Collision;
            }
            if inner.pending.insert(key) {
                self.misses.fetch_add(1, Ordering::Relaxed);
                self.emit(TraceEvent::CompileCacheMiss {
                    kernel: label.to_string(),
                });
                self.note_cache(label, CacheTier::Compile, false);
                return Claim::Owned;
            }
            inner = self.ready.wait(inner).unwrap();
        }
    }

    /// Publish (or on failure abandon) an owned compile, evict past the
    /// LRU bound, and wake waiters.
    fn settle(&self, key: u64, entry: Option<Entry>) {
        let mut inner = self.inner.lock().unwrap();
        inner.pending.remove(&key);
        if let Some(mut e) = entry {
            inner.tick += 1;
            e.last_used = inner.tick;
            inner.map.insert(key, e);
            if let Some(cap) = inner.capacity {
                while inner.map.len() > cap {
                    let lru = inner
                        .map
                        .iter()
                        .min_by_key(|(_, e)| e.last_used)
                        .map(|(&k, _)| k)
                        .expect("over-capacity map is non-empty");
                    inner.map.remove(&lru);
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        self.ready.notify_all();
    }

    /// Compile an IR kernel (or return the cached artifact, flagged
    /// `true`). Concurrent launches of the same kernel compile exactly
    /// once — later callers wait for the first, and unrelated keys
    /// compile in parallel (the map lock is not held across a compile).
    pub fn get_or_compile(
        &self,
        kernel: &Kernel,
        config: &ProcessorConfig,
        opt: OptLevel,
    ) -> Result<(Arc<Program>, bool), CompileError> {
        let (p, _, hit) = self.compile_inner(kernel, config, opt, false)?;
        Ok((p, hit))
    }

    /// [`CompileCache::get_or_compile`], returning the artifact
    /// predecoded for `config` — the form
    /// `simt_core::Processor::load_decoded` consumes directly. The
    /// decode is cached with the entry, so repeated launches and graph
    /// replays pay it once (observable via
    /// [`CompileCache::decode_hits`]).
    pub fn get_or_compile_decoded(
        &self,
        kernel: &Kernel,
        config: &ProcessorConfig,
        opt: OptLevel,
    ) -> Result<(Arc<DecodedProgram>, bool), CompileError> {
        let (_, d, hit) = self.compile_inner(kernel, config, opt, true)?;
        Ok((d.expect("decoded lookup returns a decode"), hit))
    }

    fn compile_inner(
        &self,
        kernel: &Kernel,
        config: &ProcessorConfig,
        opt: OptLevel,
        want_decoded: bool,
    ) -> Lookup<CompileError> {
        // Validate before hashing: the canonical serialization assumes
        // well-formed regions, and a malformed kernel must surface the
        // same typed error here as on the direct compile() path.
        kernel.validate()?;
        let canon = kernel.canonical_bytes(config);
        let mut h = Fnv::new();
        h.write_u8(0x1A); // IR namespace
        h.write_u8(matches!(opt, OptLevel::Full) as u8);
        h.write_bytes(&canon);
        let key = h.finish();
        let material = SourceMaterial::Ir {
            canon,
            opt_full: matches!(opt, OptLevel::Full),
        };
        match self.claim(key, &material, config, want_decoded, &kernel.name) {
            Claim::Hit(p, d) => Ok((p, d, true)),
            Claim::Collision => {
                // Keyspace collision: serve a correct one-off compile,
                // leave the resident entry alone.
                let p = Arc::new(compile(kernel, config, opt)?.program);
                let d = self.one_off_decode(&p, config, want_decoded, &kernel.name);
                Ok((p, d, false))
            }
            Claim::Owned => match compile(kernel, config, opt) {
                Ok(compiled) => {
                    if self.tracer.is_some() {
                        for ps in &compiled.report.passes {
                            self.emit(TraceEvent::PassRun {
                                kernel: kernel.name.clone(),
                                pass: ps.pass.to_string(),
                                insts_before: ps.insts_before,
                                insts_after: ps.insts_after,
                                changed: ps.changed,
                            });
                        }
                    }
                    let p = Arc::new(compiled.program);
                    let d = self.one_off_decode(&p, config, want_decoded, &kernel.name);
                    self.settle(
                        key,
                        Some(Entry {
                            material,
                            config: config.clone(),
                            program: Arc::clone(&p),
                            decoded: d.clone(),
                            last_used: 0,
                        }),
                    );
                    Ok((p, d, false))
                }
                Err(e) => {
                    self.settle(key, None);
                    Err(e)
                }
            },
        }
    }

    /// Assemble a text kernel (or return the cached artifact, flagged
    /// `true`), keyed by the source bytes and configuration.
    pub fn get_or_assemble(
        &self,
        asm: &str,
        config: &ProcessorConfig,
    ) -> Result<(Arc<Program>, bool), IsaError> {
        let (p, _, hit) = self.assemble_inner(asm, config, false)?;
        Ok((p, hit))
    }

    /// [`CompileCache::get_or_assemble`], returning the artifact
    /// predecoded for `config` (see
    /// [`CompileCache::get_or_compile_decoded`]).
    pub fn get_or_assemble_decoded(
        &self,
        asm: &str,
        config: &ProcessorConfig,
    ) -> Result<(Arc<DecodedProgram>, bool), IsaError> {
        let (_, d, hit) = self.assemble_inner(asm, config, true)?;
        Ok((d.expect("decoded lookup returns a decode"), hit))
    }

    fn assemble_inner(
        &self,
        asm: &str,
        config: &ProcessorConfig,
        want_decoded: bool,
    ) -> Lookup<IsaError> {
        let mut h = Fnv::new();
        h.write_u8(0x2B); // asm namespace
        h.write_bytes(asm.as_bytes());
        hash_config(&mut h, config);
        let key = h.finish();
        let material = SourceMaterial::Asm(asm.to_string());
        // Assembly sources carry no kernel name; label by content hash
        // (only materialized when a tracer is listening).
        let label = if self.tracer.is_some() {
            format!("asm#{key:016x}")
        } else {
            String::new()
        };
        match self.claim(key, &material, config, want_decoded, &label) {
            Claim::Hit(p, d) => Ok((p, d, true)),
            Claim::Collision => {
                let p = Arc::new(simt_isa::assemble(asm)?);
                let d = self.one_off_decode(&p, config, want_decoded, &label);
                Ok((p, d, false))
            }
            Claim::Owned => match simt_isa::assemble(asm) {
                Ok(program) => {
                    let p = Arc::new(program);
                    let d = self.one_off_decode(&p, config, want_decoded, &label);
                    self.settle(
                        key,
                        Some(Entry {
                            material,
                            config: config.clone(),
                            program: Arc::clone(&p),
                            decoded: d.clone(),
                            last_used: 0,
                        }),
                    );
                    Ok((p, d, false))
                }
                Err(e) => {
                    self.settle(key, None);
                    Err(e)
                }
            },
        }
    }

    /// Decode a freshly-built program when the caller asked for the
    /// decoded form (counted as a decode miss).
    fn one_off_decode(
        &self,
        program: &Arc<Program>,
        config: &ProcessorConfig,
        want_decoded: bool,
        label: &str,
    ) -> Option<Arc<DecodedProgram>> {
        if !want_decoded {
            return None;
        }
        self.decode_misses.fetch_add(1, Ordering::Relaxed);
        self.emit(TraceEvent::DecodeCacheMiss {
            kernel: label.to_string(),
        });
        self.note_cache(label, CacheTier::Decode, false);
        Some(Arc::new(DecodedProgram::decode(
            Arc::clone(program),
            config,
        )))
    }

    /// Cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache misses (compilations) so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Artifacts evicted by the LRU bound so far.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Decoded-form lookups served from a cached decode (no re-decode).
    pub fn decode_hits(&self) -> u64 {
        self.decode_hits.load(Ordering::Relaxed)
    }

    /// Decoded-form lookups that had to decode (first decoded request
    /// per entry, fresh compiles, and collision one-offs).
    pub fn decode_misses(&self) -> u64 {
        self.decode_misses.load(Ordering::Relaxed)
    }

    /// The configured LRU bound (`None` = unbounded).
    pub fn capacity(&self) -> Option<usize> {
        self.inner.lock().unwrap().capacity
    }

    /// Cached artifacts.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().map.len()
    }

    /// True when nothing has been cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Hits over total lookups (0 when nothing was looked up).
    pub fn hit_rate(&self) -> f64 {
        let h = self.hits() as f64;
        let total = h + self.misses() as f64;
        if total == 0.0 {
            0.0
        } else {
            h / total
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::IrBuilder;

    fn kernel(mul: i32) -> Kernel {
        let mut b = IrBuilder::new("k");
        let tid = b.tid();
        let x = b.load(tid, 0);
        let c = b.iconst(mul);
        let y = b.mul(x, c);
        b.store(tid, 64, y);
        b.finish()
    }

    #[test]
    fn repeated_compiles_hit() {
        let cache = CompileCache::new();
        let cfg = ProcessorConfig::small();
        let k = kernel(3);
        let (p1, hit1) = cache.get_or_compile(&k, &cfg, OptLevel::Full).unwrap();
        let (p2, hit2) = cache.get_or_compile(&k, &cfg, OptLevel::Full).unwrap();
        assert!(Arc::ptr_eq(&p1, &p2));
        assert!(!hit1);
        assert!(hit2);
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert_eq!(cache.len(), 1);
        assert!(cache.hit_rate() > 0.49);
    }

    #[test]
    fn distinct_kernels_configs_and_levels_miss() {
        let cache = CompileCache::new();
        let cfg = ProcessorConfig::small();
        let k = kernel(3);
        cache.get_or_compile(&k, &cfg, OptLevel::Full).unwrap();
        cache
            .get_or_compile(&kernel(4), &cfg, OptLevel::Full)
            .unwrap();
        cache
            .get_or_compile(&k, &cfg.clone().with_threads(32), OptLevel::Full)
            .unwrap();
        cache.get_or_compile(&k, &cfg, OptLevel::None).unwrap();
        assert_eq!((cache.hits(), cache.misses()), (0, 4));
        assert_eq!(cache.len(), 4);
    }

    #[test]
    fn assembly_is_cached_by_source_and_config() {
        let cache = CompileCache::new();
        let cfg = ProcessorConfig::small();
        let src = "  stid r1\n  sts [r1+0], r1\n  exit";
        let (p1, hit1) = cache.get_or_assemble(src, &cfg).unwrap();
        let (p2, hit2) = cache.get_or_assemble(src, &cfg).unwrap();
        assert!(Arc::ptr_eq(&p1, &p2));
        assert!(!hit1);
        assert!(hit2);
        let _ = cache
            .get_or_assemble(src, &cfg.clone().with_threads(32))
            .unwrap();
        assert_eq!((cache.hits(), cache.misses()), (1, 2));
    }

    #[test]
    fn arena_garbage_does_not_defeat_the_cache() {
        // Content-identical kernels that differ only in unreachable
        // arena entries share one hash AND one canonical material, so
        // the second lookup is a true hit (not a false collision).
        let cache = CompileCache::new();
        let cfg = ProcessorConfig::small();
        let k1 = kernel(3);
        let mut k2 = kernel(3);
        let garbage = k2.append_inst(crate::ir::Op::Const(99), vec![]);
        let _ = garbage; // never placed in a region
        let (_, hit1) = cache.get_or_compile(&k1, &cfg, OptLevel::Full).unwrap();
        let (_, hit2) = cache.get_or_compile(&k2, &cfg, OptLevel::Full).unwrap();
        assert!(!hit1);
        assert!(hit2, "garbage-only difference must still hit");
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn malformed_kernels_error_instead_of_panicking() {
        // A kernel whose store references a value from another
        // builder's arena: the cache path must return the same typed
        // Malformed error as compile(), not panic inside the hasher
        // (a panic here would kill a runtime device worker and hang
        // synchronize()).
        let mut other = IrBuilder::new("other");
        for _ in 0..8 {
            let _ = other.iconst(1);
        }
        let foreign = other.tid(); // ValueId(8), out of range below
        let mut b = IrBuilder::new("bad");
        let tid = b.tid();
        b.store(tid, 0, foreign);
        let bad = b.finish();
        let cache = CompileCache::new();
        let cfg = ProcessorConfig::small();
        match cache.get_or_compile(&bad, &cfg, OptLevel::Full) {
            Err(CompileError::Malformed { .. }) => {}
            other => panic!("expected Malformed, got {other:?}"),
        }
        assert!(cache.is_empty());
    }

    #[test]
    fn failed_compiles_are_not_cached() {
        let cache = CompileCache::new();
        let cfg = ProcessorConfig::small().with_regs_per_thread(2);
        let k = kernel(3);
        assert!(cache.get_or_compile(&k, &cfg, OptLevel::Full).is_err());
        assert!(cache.is_empty());
        assert!(cache.get_or_assemble("  frob r1", &cfg).is_err());
        assert!(cache.is_empty());
    }

    #[test]
    fn lru_bound_evicts_the_coldest_artifact() {
        let cache = CompileCache::with_capacity(2);
        assert_eq!(cache.capacity(), Some(2));
        let cfg = ProcessorConfig::small();
        cache
            .get_or_compile(&kernel(1), &cfg, OptLevel::Full)
            .unwrap();
        cache
            .get_or_compile(&kernel(2), &cfg, OptLevel::Full)
            .unwrap();
        assert_eq!((cache.len(), cache.evictions()), (2, 0));
        // Touch kernel(1) so kernel(2) is the LRU entry.
        let (_, hit) = cache
            .get_or_compile(&kernel(1), &cfg, OptLevel::Full)
            .unwrap();
        assert!(hit);
        // A third artifact pushes out kernel(2), not kernel(1).
        cache
            .get_or_compile(&kernel(3), &cfg, OptLevel::Full)
            .unwrap();
        assert_eq!((cache.len(), cache.evictions()), (2, 1));
        let (_, hit1) = cache
            .get_or_compile(&kernel(1), &cfg, OptLevel::Full)
            .unwrap();
        assert!(hit1, "recently-used artifact survived the eviction");
        // kernel(2) was evicted: compiling it again is a miss (and in
        // turn evicts the now-coldest kernel(3)).
        let (_, hit2) = cache
            .get_or_compile(&kernel(2), &cfg, OptLevel::Full)
            .unwrap();
        assert!(!hit2, "evicted artifact must recompile");
        assert_eq!(cache.evictions(), 2);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn unbounded_cache_never_evicts() {
        let cache = CompileCache::new();
        assert_eq!(cache.capacity(), None);
        let cfg = ProcessorConfig::small();
        for m in 1..=16 {
            cache
                .get_or_compile(&kernel(m), &cfg, OptLevel::Full)
                .unwrap();
        }
        assert_eq!((cache.len(), cache.evictions()), (16, 0));
    }

    #[test]
    fn decoded_lookups_cache_the_decode_with_the_artifact() {
        let cache = CompileCache::new();
        let cfg = ProcessorConfig::small();
        let k = kernel(3);
        // Fresh compile: the decode rides the new entry (a miss).
        let (d1, hit1) = cache
            .get_or_compile_decoded(&k, &cfg, OptLevel::Full)
            .unwrap();
        assert!(!hit1);
        assert_eq!((cache.decode_hits(), cache.decode_misses()), (0, 1));
        // Repeat: compile hit AND decode hit — the same Arc comes back.
        let (d2, hit2) = cache
            .get_or_compile_decoded(&k, &cfg, OptLevel::Full)
            .unwrap();
        assert!(hit2);
        assert!(Arc::ptr_eq(&d1, &d2));
        assert_eq!((cache.decode_hits(), cache.decode_misses()), (1, 1));
        assert_eq!(d1.config(), &cfg);
        // A program-only lookup of the same entry leaves decode counters
        // untouched.
        let (p, hit3) = cache.get_or_compile(&k, &cfg, OptLevel::Full).unwrap();
        assert!(hit3);
        assert!(Arc::ptr_eq(d1.program(), &p));
        assert_eq!((cache.decode_hits(), cache.decode_misses()), (1, 1));
    }

    #[test]
    fn decode_fills_lazily_on_entries_compiled_without_it() {
        let cache = CompileCache::new();
        let cfg = ProcessorConfig::small();
        let src = "  stid r1\n  sts [r1+0], r1\n  exit";
        // Assembled without asking for the decode...
        let (_, hit) = cache.get_or_assemble(src, &cfg).unwrap();
        assert!(!hit);
        assert_eq!(cache.decode_misses(), 0);
        // ...the first decoded lookup derives and caches it...
        let (d1, hit1) = cache.get_or_assemble_decoded(src, &cfg).unwrap();
        assert!(hit1, "same artifact: a compile hit");
        assert_eq!((cache.decode_hits(), cache.decode_misses()), (0, 1));
        // ...and every later decoded lookup shares it.
        let (d2, _) = cache.get_or_assemble_decoded(src, &cfg).unwrap();
        assert!(Arc::ptr_eq(&d1, &d2));
        assert_eq!((cache.decode_hits(), cache.decode_misses()), (1, 1));
    }

    #[test]
    fn tracer_sees_hits_misses_decodes_and_passes() {
        let tracer = Arc::new(Tracer::new(256));
        let cache = CompileCache::new().with_tracer(Arc::clone(&tracer));
        let cfg = ProcessorConfig::small();
        let k = kernel(3);
        // Fresh decoded compile: miss + one-off decode miss + passes.
        cache
            .get_or_compile_decoded(&k, &cfg, OptLevel::Full)
            .unwrap();
        // Repeat: hit + decode hit.
        cache
            .get_or_compile_decoded(&k, &cfg, OptLevel::Full)
            .unwrap();
        // Assembly miss, labelled by content hash.
        cache.get_or_assemble("  stid r1\n  exit", &cfg).unwrap();
        let ev = tracer.events();
        let count = |f: &dyn Fn(&TraceEvent) -> bool| ev.iter().filter(|e| f(e)).count();
        assert_eq!(
            count(&|e| matches!(e, TraceEvent::CompileCacheMiss { .. })),
            2
        );
        assert_eq!(
            count(&|e| matches!(e, TraceEvent::CompileCacheHit { decoded: true, .. })),
            1
        );
        assert_eq!(
            count(&|e| matches!(e, TraceEvent::DecodeCacheMiss { .. })),
            1
        );
        assert_eq!(
            count(&|e| matches!(e, TraceEvent::DecodeCacheHit { .. })),
            1
        );
        assert!(
            count(&|e| matches!(e, TraceEvent::PassRun { .. })) > 0,
            "full-opt compiles report their passes"
        );
        // IR events carry the kernel name; asm events a hash label.
        assert!(ev
            .iter()
            .any(|e| matches!(e, TraceEvent::CompileCacheMiss { kernel } if kernel == "k")));
        assert!(ev.iter().any(
            |e| matches!(e, TraceEvent::CompileCacheMiss { kernel } if kernel.starts_with("asm#"))
        ));
    }

    #[test]
    fn flight_recorder_sees_cache_outcomes() {
        let flight = Arc::new(FlightRecorder::new(64));
        let cache = CompileCache::new().with_flight(Arc::clone(&flight));
        let cfg = ProcessorConfig::small();
        let k = kernel(5);
        // Fresh decoded compile: compile miss + decode miss.
        cache
            .get_or_compile_decoded(&k, &cfg, OptLevel::Full)
            .unwrap();
        // Repeat: compile hit + decode hit.
        cache
            .get_or_compile_decoded(&k, &cfg, OptLevel::Full)
            .unwrap();
        let ev = flight.snapshot();
        let count = |cache: CacheTier, hit: bool| {
            ev.iter()
                .filter(|r| {
                    matches!(&r.event, FlightEvent::CacheQuery { cache: c, hit: h, .. }
                        if *c == cache && *h == hit)
                })
                .count()
        };
        assert_eq!(count(CacheTier::Compile, false), 1);
        assert_eq!(count(CacheTier::Compile, true), 1);
        assert_eq!(count(CacheTier::Decode, false), 1);
        assert_eq!(count(CacheTier::Decode, true), 1);
        assert!(ev.iter().all(|r| matches!(
            &r.event,
            FlightEvent::CacheQuery { kernel, .. } if kernel == "k"
        )));
    }

    #[test]
    fn cache_is_shareable_across_threads() {
        let cache = Arc::new(CompileCache::new());
        let cfg = ProcessorConfig::small();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let cache = Arc::clone(&cache);
                let cfg = cfg.clone();
                std::thread::spawn(move || {
                    cache
                        .get_or_compile(&kernel(7), &cfg, OptLevel::Full)
                        .unwrap();
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        // The miss path compiles under the lock: exactly one compile.
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 3);
    }
}
