//! Integration tests of the content-addressed cache through the public
//! [`compile_source`] entry point: fingerprint sensitivity, tier
//! behaviour, on-disk persistence across cache instances, and the
//! repeat-batch hit rate the driver promises.

use std::fs;
use std::path::PathBuf;

use slp_core::{MachineConfig, SlpConfig, Strategy};
use slp_driver::{
    compile_guarded, compile_source, encode_kernel, CacheDisposition, CacheTier, CachedCompile,
    CompileCache, CompileRequest, VerifyLevel,
};

const SRC: &str = "kernel k { array A: f64[32]; array B: f64[32]; \
                   for i in 0..32 { A[i] = A[i] + 2.0 * B[i]; } }";

fn request(source: &str, config: SlpConfig) -> CompileRequest {
    CompileRequest {
        name: "k".to_string(),
        source: source.to_string(),
        config,
        verify: VerifyLevel::Static,
    }
}

fn holistic() -> SlpConfig {
    SlpConfig::for_machine(MachineConfig::intel_dunnington(), Strategy::Holistic)
}

/// A unique, empty scratch directory per test and per process — debug
/// and `--release` test jobs run side by side in CI (no tempfile crate
/// in the container; each test removes its directory when it passes).
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "slp-driver-cache-test-{tag}-{}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

#[test]
fn identical_requests_hit_each_changed_dimension_misses() {
    let cache = CompileCache::in_memory(64);

    let cold = compile_source(&request(SRC, holistic()), Some(&cache)).expect("compiles");
    assert_eq!(cold.cache, CacheDisposition::Compiled);

    // Identical request: memory hit with the same kernel bytes.
    let warm = compile_source(&request(SRC, holistic()), Some(&cache)).expect("compiles");
    assert_eq!(warm.cache, CacheDisposition::MemoryHit);
    assert_eq!(warm.fingerprint, cold.fingerprint);
    assert_eq!(
        encode_kernel(&warm.kernel).to_compact(),
        encode_kernel(&cold.kernel).to_compact()
    );
    // The cached verify report rides along.
    assert_eq!(warm.report, cold.report);

    // Whitespace is part of the source text: a cosmetic edit misses.
    let touched =
        compile_source(&request(&format!("{SRC} "), holistic()), Some(&cache)).expect("compiles");
    assert_eq!(touched.cache, CacheDisposition::Compiled);
    assert_ne!(touched.fingerprint, cold.fingerprint);

    // Strategy change misses.
    let baseline = compile_source(
        &request(
            SRC,
            SlpConfig::for_machine(MachineConfig::intel_dunnington(), Strategy::Baseline),
        ),
        Some(&cache),
    )
    .expect("compiles");
    assert_eq!(baseline.cache, CacheDisposition::Compiled);

    // Machine change misses.
    let amd = compile_source(
        &request(
            SRC,
            SlpConfig::for_machine(MachineConfig::amd_phenom_ii(), Strategy::Holistic),
        ),
        Some(&cache),
    )
    .expect("compiles");
    assert_eq!(amd.cache, CacheDisposition::Compiled);

    // Layout flag misses.
    let layout =
        compile_source(&request(SRC, holistic().with_layout()), Some(&cache)).expect("compiles");
    assert_eq!(layout.cache, CacheDisposition::Compiled);

    // Verification level is part of the key (it changes the payload).
    let mut unverified = request(SRC, holistic());
    unverified.verify = VerifyLevel::None;
    let unverified = compile_source(&unverified, Some(&cache)).expect("compiles");
    assert_eq!(unverified.cache, CacheDisposition::Compiled);
    assert!(unverified.report.is_none());

    // ...and each of those now hits on repeat.
    let again =
        compile_source(&request(SRC, holistic().with_layout()), Some(&cache)).expect("compiles");
    assert_eq!(again.cache, CacheDisposition::MemoryHit);
}

/// A memory-tier entry is one allocation: every reader gets a handle on
/// it, and a handle outlives the entry's eviction.
#[test]
fn hits_share_one_entry_and_a_held_entry_survives_its_eviction() {
    let cache = CompileCache::in_memory(1);
    let cold = compile_source(&request(SRC, holistic()), Some(&cache)).expect("compiles");

    let (first, tier) = cache.get(cold.fingerprint).expect("stored");
    assert_eq!(tier, CacheTier::Memory);
    let (second, _) = cache.get(cold.fingerprint).expect("still stored");
    assert!(std::sync::Arc::ptr_eq(&first, &second));
    drop(second);

    // Capacity 1: the next key evicts the entry `first` points at.
    let other =
        compile_source(&request(&format!("{SRC} "), holistic()), Some(&cache)).expect("compiles");
    assert_ne!(other.fingerprint, cold.fingerprint);
    assert_eq!(cache.stats().evictions, 1);
    assert!(cache.get(cold.fingerprint).is_none());
    assert_eq!(first.kernel.stats, cold.kernel.stats);
    assert_eq!(first.report, cold.report);
}

/// The by-value contract of `compile_guarded` (the benchmark links it):
/// a memory hit answers an owned outcome that equals the cold compile's
/// field by field, and owning it means changing it leaves the cache be.
#[test]
fn a_guarded_memory_hit_is_an_owned_copy_of_the_cold_outcome() {
    let cache = CompileCache::in_memory(8);
    let req = request(SRC, holistic());
    let cold = compile_guarded(&req, Some(&cache), None).expect("compiles");
    assert_eq!(cold.cache, CacheDisposition::Compiled);

    let mut warm = compile_guarded(&req, Some(&cache), None).expect("compiles");
    assert_eq!(warm.cache, CacheDisposition::MemoryHit);
    assert!(warm.cache_hit());
    assert_eq!(warm.fingerprint, cold.fingerprint);
    assert_eq!(
        encode_kernel(&warm.kernel).to_compact(),
        encode_kernel(&cold.kernel).to_compact()
    );
    assert_eq!(warm.report, cold.report);
    assert_eq!(warm.prove, cold.prove);
    assert_eq!(warm.timings, cold.timings);

    warm.kernel.stats.superwords += 1;
    warm.report = None;
    let (entry, _) = cache.get(cold.fingerprint).expect("stored");
    assert_eq!(entry.kernel.stats, cold.kernel.stats);
    assert_eq!(entry.report, cold.report);
}

#[test]
fn disk_tier_survives_a_new_cache_instance() {
    let dir = scratch("persist");

    let cold = {
        let cache = CompileCache::with_disk(8, &dir);
        let outcome = compile_source(&request(SRC, holistic()), Some(&cache)).expect("compiles");
        assert_eq!(outcome.cache, CacheDisposition::Compiled);
        outcome
    };

    // One entry landed on disk, named by the fingerprint.
    let entry = dir.join(format!("{}.json", cold.fingerprint.to_hex()));
    assert!(entry.is_file(), "expected {}", entry.display());

    // A fresh cache (empty memory tier) over the same directory answers
    // from disk with byte-identical kernel, the original report and the
    // original timings.
    let cache = CompileCache::with_disk(8, &dir);
    let warm = compile_source(&request(SRC, holistic()), Some(&cache)).expect("compiles");
    assert_eq!(warm.cache, CacheDisposition::DiskHit);
    assert_eq!(warm.fingerprint, cold.fingerprint);
    assert_eq!(
        encode_kernel(&warm.kernel).to_compact(),
        encode_kernel(&cold.kernel).to_compact()
    );
    assert_eq!(warm.report, cold.report);
    assert_eq!(warm.timings, cold.timings);

    // The disk hit was promoted to memory: the next lookup is a memory
    // hit.
    let hot = compile_source(&request(SRC, holistic()), Some(&cache)).expect("compiles");
    assert_eq!(hot.cache, CacheDisposition::MemoryHit);

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_disk_entries_miss_and_are_replaced() {
    let dir = scratch("corrupt");

    let cache = CompileCache::with_disk(8, &dir);
    let cold = compile_source(&request(SRC, holistic()), Some(&cache)).expect("compiles");
    let entry = dir.join(format!("{}.json", cold.fingerprint.to_hex()));
    fs::write(&entry, b"{ definitely not a cached kernel").expect("clobber entry");

    // Fresh instance so the memory tier cannot answer.
    let cache = CompileCache::with_disk(8, &dir);
    let recompiled = compile_source(&request(SRC, holistic()), Some(&cache)).expect("compiles");
    assert_eq!(recompiled.cache, CacheDisposition::Compiled);
    assert!(cache.stats().disk_errors >= 1);

    // The recompile rewrote a good entry.
    let cache = CompileCache::with_disk(8, &dir);
    let warm = compile_source(&request(SRC, holistic()), Some(&cache)).expect("compiles");
    assert_eq!(warm.cache, CacheDisposition::DiskHit);

    let _ = fs::remove_dir_all(&dir);
}

/// A stored memory-safety certificate licenses the certified engine to
/// skip bounds checks, so a disk entry whose certificate is not the one
/// its program earns is a miss, counted as a disk error and replaced; an
/// honest entry still hits.
#[test]
fn a_disk_entry_with_a_tampered_certificate_misses() {
    let dir = scratch("tampered");

    let cache = CompileCache::with_disk(8, &dir);
    let cold = compile_source(&request(SRC, holistic()), Some(&cache)).expect("compiles");
    let entry = dir.join(format!("{}.json", cold.fingerprint.to_hex()));
    let text = fs::read_to_string(&entry).expect("entry on disk");
    let safe = r#""v":"proven-safe""#;
    assert!(text.contains(safe), "a proven-safe access in {text}");
    fs::write(&entry, text.replacen(safe, r#""v":"unknown""#, 1)).expect("tamper entry");

    // Fresh instance so the memory tier cannot answer.
    let cache = CompileCache::with_disk(8, &dir);
    let recompiled = compile_source(&request(SRC, holistic()), Some(&cache)).expect("compiles");
    assert_eq!(recompiled.cache, CacheDisposition::Compiled);
    let stats = cache.stats();
    assert_eq!((stats.disk_hits, stats.disk_errors), (0, 1));
    assert_eq!(recompiled.kernel.safety, cold.kernel.safety);

    // The recompile rewrote an honest entry, which hits.
    let cache = CompileCache::with_disk(8, &dir);
    let warm = compile_source(&request(SRC, holistic()), Some(&cache)).expect("compiles");
    assert_eq!(warm.cache, CacheDisposition::DiskHit);
    assert_eq!(cache.stats().disk_errors, 0);

    let _ = fs::remove_dir_all(&dir);
}

/// `slpc batch` over a corpus with a repeated kernel has several
/// workers of one process storing the same fingerprint at once. Each
/// store must go through its own temp file: with a shared one, a worker's
/// rename can publish a file another has just truncated, and the loser's
/// rename fails into a spurious `disk_errors` tick.
#[test]
fn concurrent_stores_of_one_fingerprint_keep_the_disk_entry_whole() {
    const THREADS: usize = 8;
    const ROUNDS: usize = 25;
    let dir = scratch("same-key");
    let outcome = compile_source(&request(SRC, holistic()), None).expect("compiles");
    let fp = outcome.fingerprint;
    let entry = CachedCompile {
        kernel: outcome.kernel,
        report: outcome.report,
        prove: outcome.prove,
        timings: outcome.timings,
    };

    let cache = CompileCache::with_disk(8, &dir);
    let barrier = std::sync::Barrier::new(THREADS);
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            scope.spawn(|| {
                for _ in 0..ROUNDS {
                    barrier.wait();
                    cache.put(fp, &entry);
                }
            });
        }
    });
    let stats = cache.stats();
    assert_eq!(stats.stores, (THREADS * ROUNDS) as u64);
    assert_eq!(stats.disk_errors, 0);

    // No temp file is left behind, and a fresh cache (empty memory tier)
    // reads a whole entry back.
    let files: Vec<_> = fs::read_dir(&dir)
        .expect("scratch dir")
        .map(|f| f.expect("dir entry").file_name())
        .collect();
    assert_eq!(files, [format!("{}.json", fp.to_hex()).as_str()]);
    let fresh = CompileCache::with_disk(8, &dir);
    let (back, tier) = fresh.get(fp).expect("disk entry decodes");
    assert_eq!(tier, CacheTier::Disk);
    assert_eq!(
        encode_kernel(&back.kernel).to_compact(),
        encode_kernel(&entry.kernel).to_compact()
    );
    assert_eq!(fresh.stats().disk_errors, 0);

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn repeat_corpus_run_hits_at_least_ninety_percent() {
    let cache = CompileCache::in_memory(256);
    let corpus = slp_suite::corpus(7, 12);
    assert!(corpus.len() >= 10);

    for (name, source) in &corpus {
        let mut req = request(source, holistic());
        req.name = name.clone();
        compile_source(&req, Some(&cache)).expect("corpus kernel compiles");
    }
    let after_cold = cache.stats();
    assert_eq!(after_cold.memory_hits + after_cold.disk_hits, 0);

    for (name, source) in &corpus {
        let mut req = request(source, holistic());
        req.name = name.clone();
        let outcome = compile_source(&req, Some(&cache)).expect("corpus kernel compiles");
        assert!(outcome.cache_hit(), "{name} missed on the second pass");
    }
    let stats = cache.stats();
    assert!(
        stats.hit_rate() >= 0.5,
        "two passes should hit half overall, got {:.2}",
        stats.hit_rate()
    );
    // Second pass alone: 100% (≥ the 90% the driver promises).
    assert_eq!(stats.memory_hits as usize, corpus.len());
}

#[test]
fn degraded_scalar_fallback_never_poisons_the_requested_key() {
    // An installed packer is excluded from the fingerprint (the driver
    // installs the same solver whenever none is), so a request carrying a
    // panicking packer and a plain Optimal request share a cache key. If
    // the batch driver ever cached the Strategy::Scalar fallback of a
    // panicked compile under the *requested* key, a later clean compile
    // of the same source would silently be served a scalar kernel. Pin
    // down that it does not: the fallback lands under its own (scalar)
    // fingerprint only.
    use slp_core::{PackOutcome, PackRequest, Packer};
    use slp_driver::{compile_batch, BatchConfig};

    struct Panicking;

    impl Packer for Panicking {
        fn pack(&self, _: &PackRequest<'_>) -> PackOutcome {
            // Under the batch guard this surfaces as DriverError::Panic
            // and triggers the scalar degradation path.
            panic!("injected rejection")
        }
    }

    let optimal = || SlpConfig::for_machine(MachineConfig::intel_dunnington(), Strategy::Optimal);
    let cache = CompileCache::in_memory(64);
    let panicking = request(SRC, optimal().with_packer(Panicking));
    let requested_fp = panicking.fingerprint();
    assert_eq!(
        requested_fp,
        request(SRC, optimal()).fingerprint(),
        "precondition: the packer must not be part of the key"
    );

    let outcomes = compile_batch(
        std::slice::from_ref(&panicking),
        Some(&cache),
        &BatchConfig {
            threads: 1,
            ..BatchConfig::default()
        },
    );
    assert_eq!(outcomes.len(), 1);
    let outcome = &outcomes[0];
    assert!(
        outcome.degraded.is_some(),
        "the panicking compile must degrade"
    );
    let fallback = outcome.result.as_ref().expect("scalar fallback compiles");
    assert_eq!(fallback.kernel.config.strategy, Strategy::Scalar);
    assert_ne!(
        fallback.fingerprint, requested_fp,
        "the fallback must be keyed as a scalar compile"
    );

    // The requested configuration's key must still be vacant...
    let clean = compile_source(&request(SRC, optimal()), Some(&cache)).expect("clean compile");
    assert_eq!(clean.cache, CacheDisposition::Compiled, "poisoned key");
    // ...and serve the requested strategy, not the degraded fallback.
    assert_eq!(clean.kernel.config.strategy, Strategy::Optimal);
}
