//! The content-addressed compile cache: a *sharded* in-memory LRU tier
//! plus an optional on-disk tier.
//!
//! Entries are whole compilations — the [`CompiledKernel`], the verify
//! [`Report`] (if the request asked for verification) and the original
//! compile's [`PhaseTimings`] — keyed by [`Fingerprint`], allocated once
//! and shared: a hit hands out another [`Arc`] handle, not a copy, and an
//! entry a reader holds outlives its eviction. The memory tier serves
//! repeat requests within a process (the `slpd` serve loops, repeated
//! kernels in one batch); the disk tier under
//! `.slp-cache/` makes whole corpus re-runs warm across processes,
//! which is what turns a second `slpc batch` over an unchanged tree
//! into a near-no-op.
//!
//! Concurrency design (the serve tier hammers this object from many
//! connections at once):
//!
//! * the memory tier is split into power-of-two **shards** selected by
//!   the fingerprint's low bits, each with its own lock and its own LRU
//!   order, so concurrent hits on different kernels stop serializing on
//!   one mutex. Small caches (below one shard's worth of entries) keep
//!   a single shard and therefore exact global LRU order — the
//!   capacity-2 eviction tests and tiny test caches behave as before;
//! * the running [`CacheStats`] counters are plain atomics, never a
//!   lock, so the hottest path (a memory hit) takes exactly one shard
//!   lock and touches nothing shared beyond it.
//!
//! Robustness rules:
//!
//! * a corrupt, truncated or version-mismatched disk entry is a miss —
//!   it is deleted and recompiled, never an error; so is one whose
//!   memory-safety certificate is not the one its program earns;
//! * disk I/O failures (permissions, full disk) degrade the cache to
//!   memory-only for that operation and are counted in
//!   [`CacheStats::disk_errors`];
//! * disk writes go through a temp file (one per call) + rename, so a
//!   crashed or concurrent writer can never leave a half-written entry
//!   under the final name.
//!
//! The whole cache is internally synchronized (`&self` methods), so one
//! instance can be shared by every worker of a batch and every
//! connection of a serve session.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use slp_core::{CompiledKernel, PhaseTimings, SafetyCert};
use slp_verify::Report;

use crate::codec;
use crate::fingerprint::Fingerprint;
use crate::json::Json;

/// One cached compilation.
#[derive(Debug, Clone)]
pub struct CachedCompile {
    /// The compiled kernel.
    pub kernel: CompiledKernel,
    /// The verify report of the original compile, if verification ran.
    pub report: Option<Report>,
    /// The symbolic proof verdict, if the compile ran at
    /// [`crate::VerifyLevel::Prove`].
    pub prove: Option<crate::ProveVerdict>,
    /// Per-phase timings of the original (cold) compile.
    pub timings: PhaseTimings,
}

/// Where a cache lookup was answered from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheTier {
    /// The in-memory LRU tier.
    Memory,
    /// The on-disk tier (the entry was promoted to memory on the way).
    Disk,
}

/// Running counters of cache behaviour.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the memory tier.
    pub memory_hits: u64,
    /// Lookups answered from the disk tier.
    pub disk_hits: u64,
    /// Lookups answered by neither tier.
    pub misses: u64,
    /// Entries stored.
    pub stores: u64,
    /// Memory-tier evictions (LRU overflow).
    pub evictions: u64,
    /// Disk entries dropped or skipped because of I/O or decode
    /// problems.
    pub disk_errors: u64,
}

crate::record::record!(CacheStats {
    "memory_hits" = memory_hits: u64,
    "disk_hits" = disk_hits: u64,
    "misses" = misses: u64,
    "stores" = stores: u64,
    "evictions" = evictions: u64,
    "disk_errors" = disk_errors: u64,
});

impl CacheStats {
    /// Total lookups.
    pub(crate) fn lookups(&self) -> u64 {
        self.memory_hits + self.disk_hits + self.misses
    }

    /// Hits (either tier) over lookups, in `[0, 1]`; `0` before any
    /// lookup.
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.lookups();
        if lookups == 0 {
            0.0
        } else {
            (self.memory_hits + self.disk_hits) as f64 / lookups as f64
        }
    }
}

/// Lock-free counterpart of [`CacheStats`]; snapshots are taken with
/// relaxed loads (counters are monotone, exactness only matters once
/// the writers are quiescent, which is when summaries are read).
#[derive(Default)]
struct AtomicStats {
    memory_hits: AtomicU64,
    disk_hits: AtomicU64,
    misses: AtomicU64,
    stores: AtomicU64,
    evictions: AtomicU64,
    disk_errors: AtomicU64,
}

impl AtomicStats {
    fn snapshot(&self) -> CacheStats {
        CacheStats {
            memory_hits: self.memory_hits.load(Ordering::Relaxed),
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            stores: self.stores.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            disk_errors: self.disk_errors.load(Ordering::Relaxed),
        }
    }
}

/// One shard of the memory tier: a `HashMap` plus its own LRU order.
struct MemoryShard {
    entries: HashMap<Fingerprint, Arc<CachedCompile>>,
    /// LRU order, least recently used first.
    order: Vec<Fingerprint>,
    capacity: usize,
}

impl MemoryShard {
    fn touch(&mut self, fp: Fingerprint) {
        self.order.retain(|&f| f != fp);
        self.order.push(fp);
    }

    fn get(&mut self, fp: Fingerprint) -> Option<Arc<CachedCompile>> {
        let entry = Arc::clone(self.entries.get(&fp)?);
        self.touch(fp);
        Some(entry)
    }

    fn put(&mut self, fp: Fingerprint, entry: Arc<CachedCompile>) -> u64 {
        self.entries.insert(fp, entry);
        self.touch(fp);
        let mut evictions = 0;
        while self.entries.len() > self.capacity && !self.order.is_empty() {
            let victim = self.order.remove(0);
            self.entries.remove(&victim);
            evictions += 1;
        }
        evictions
    }
}

/// The sharded memory tier. Shard selection uses the fingerprint's low
/// bits — fingerprints are already uniform 128-bit hashes, so no
/// re-hashing is needed.
struct MemoryTier {
    shards: Vec<Mutex<MemoryShard>>,
}

/// Entries one shard should comfortably hold before it is worth paying
/// for another lock. Caches smaller than this stay single-sharded and
/// keep exact global LRU semantics.
const SHARD_TARGET: usize = 32;

/// Upper bound on shards; past this, lock contention is no longer the
/// bottleneck for any realistic connection count.
const MAX_SHARDS: usize = 16;

fn shard_count(capacity: usize) -> usize {
    (capacity / SHARD_TARGET)
        .next_power_of_two()
        .clamp(1, MAX_SHARDS)
}

impl MemoryTier {
    fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        let shards = shard_count(capacity);
        let per_shard = capacity.div_ceil(shards);
        MemoryTier {
            shards: (0..shards)
                .map(|_| {
                    Mutex::new(MemoryShard {
                        entries: HashMap::new(),
                        order: Vec::new(),
                        capacity: per_shard,
                    })
                })
                .collect(),
        }
    }

    /// Locks the shard `fp` lives in.
    fn shard(&self, fp: Fingerprint) -> MutexGuard<'_, MemoryShard> {
        // `shards.len()` is a power of two; the low bits of the second
        // hash stream index it uniformly.
        let shard = &self.shards[(fp.1 as usize) & (self.shards.len() - 1)];
        shard.lock().expect("cache shard lock")
    }
}

/// The two-tier compile cache. See the module docs for the design.
pub struct CompileCache {
    memory: MemoryTier,
    disk_dir: Option<PathBuf>,
    stats: AtomicStats,
}

impl std::fmt::Debug for CompileCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompileCache")
            .field("shards", &self.memory.shards.len())
            .field("disk_dir", &self.disk_dir)
            .finish()
    }
}

/// The default memory-tier capacity (entries).
pub const DEFAULT_MEMORY_CAPACITY: usize = 256;

/// The conventional on-disk cache location relative to the working
/// directory, used by the `slpc`/`slpd` front-ends.
pub const DEFAULT_DISK_DIR: &str = ".slp-cache";

impl CompileCache {
    /// A memory-only cache holding at most `capacity` entries.
    pub fn in_memory(capacity: usize) -> Self {
        CompileCache {
            memory: MemoryTier::new(capacity),
            disk_dir: None,
            stats: AtomicStats::default(),
        }
    }

    /// A two-tier cache persisting entries under `dir` (created on first
    /// store).
    pub fn with_disk(capacity: usize, dir: impl Into<PathBuf>) -> Self {
        let mut cache = CompileCache::in_memory(capacity);
        cache.disk_dir = Some(dir.into());
        cache
    }

    /// A snapshot of the running counters.
    pub fn stats(&self) -> CacheStats {
        self.stats.snapshot()
    }

    /// Looks up a compilation, returning a handle on the shared entry
    /// and the tier that answered.
    pub fn get(&self, fp: Fingerprint) -> Option<(Arc<CachedCompile>, CacheTier)> {
        if let Some(entry) = self.memory_get(fp) {
            return Some((entry, CacheTier::Memory));
        }
        if let Some(entry) = self.disk_get(fp) {
            // Promote to memory so repeat lookups stay cheap.
            let entry = Arc::new(entry);
            self.memory.shard(fp).put(fp, Arc::clone(&entry));
            self.stats.disk_hits.fetch_add(1, Ordering::Relaxed);
            return Some((entry, CacheTier::Disk));
        }
        self.stats.misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// The memory tier of [`CompileCache::get`], with a miss left
    /// uncounted: for a caller that, on a miss, goes on to `get`, so that
    /// the request still counts as one lookup.
    pub(crate) fn memory_get(&self, fp: Fingerprint) -> Option<Arc<CachedCompile>> {
        let entry = self.memory.shard(fp).get(fp)?;
        self.stats.memory_hits.fetch_add(1, Ordering::Relaxed);
        Some(entry)
    }

    /// Stores a copy of a compilation under `fp` in both tiers.
    pub fn put(&self, fp: Fingerprint, entry: &CachedCompile) {
        self.put_shared(fp, Arc::new(entry.clone()));
    }

    /// [`CompileCache::put`] without the copy: the memory tier keeps a
    /// handle on this allocation.
    pub(crate) fn put_shared(&self, fp: Fingerprint, entry: Arc<CachedCompile>) {
        let evictions = self.memory.shard(fp).put(fp, Arc::clone(&entry));
        self.stats.stores.fetch_add(1, Ordering::Relaxed);
        self.stats.evictions.fetch_add(evictions, Ordering::Relaxed);
        if self.disk_dir.is_some() {
            if let Err(()) = self.disk_put(fp, &entry) {
                self.stats.disk_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    fn entry_path(&self, fp: Fingerprint) -> Option<PathBuf> {
        self.disk_dir
            .as_ref()
            .map(|d| d.join(format!("{}.json", fp.to_hex())))
    }

    fn disk_get(&self, fp: Fingerprint) -> Option<CachedCompile> {
        let path = self.entry_path(fp)?;
        let text = std::fs::read_to_string(&path).ok()?;
        let entry = decode_entry(&text, fp);
        if entry.is_none() {
            // Corrupt or stale: drop it so the slot recompiles clean.
            let _ = std::fs::remove_file(&path);
            self.stats.disk_errors.fetch_add(1, Ordering::Relaxed);
        }
        entry
    }

    fn disk_put(&self, fp: Fingerprint, entry: &CachedCompile) -> Result<(), ()> {
        let dir = self.disk_dir.as_ref().ok_or(())?;
        std::fs::create_dir_all(dir).map_err(|_| ())?;
        let path = self.entry_path(fp).ok_or(())?;
        let text = encode_entry(fp, entry).to_compact();
        // Write-then-rename keeps concurrent readers (and crashes) from
        // ever seeing a partial entry. The temp name is unique per call,
        // not just per process: two workers storing one fingerprint must
        // not truncate, publish or remove each other's temp file.
        static NEXT_TMP: AtomicU64 = AtomicU64::new(0);
        let tmp = dir.join(format!(
            "{}.tmp.{}.{}",
            fp.to_hex(),
            std::process::id(),
            NEXT_TMP.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::write(&tmp, text).map_err(|_| ())?;
        std::fs::rename(&tmp, &path).map_err(|e| {
            let _ = std::fs::remove_file(&tmp);
            let _ = e;
        })
    }
}

fn encode_entry(fp: Fingerprint, entry: &CachedCompile) -> Json {
    codec::stamped(vec![("fingerprint", Json::str(fp.to_hex()))], entry)
}

/// `None` for anything but a well-formed entry of this build filed
/// under its own fingerprint (a renamed or mis-filed entry is as corrupt
/// as a garbled one) whose certificate, which lets the engine skip
/// bounds checks, is the one its program earns: re-derived, not believed.
fn decode_entry(text: &str, expect_fp: Fingerprint) -> Option<CachedCompile> {
    let v = Json::parse(text).ok()?;
    let fp = Fingerprint::from_hex(v.get("fingerprint")?.string()?)?;
    if fp != expect_fp {
        return None;
    }
    let entry: CachedCompile = codec::unstamped(&v).ok()?;
    (entry.kernel.safety == SafetyCert::certify(&entry.kernel.program)).then_some(entry)
}

#[cfg(test)]
mod tests {
    use super::*;
    use slp_core::{MachineConfig, SlpConfig, Strategy};

    fn entry_for(src: &str) -> (Fingerprint, CachedCompile) {
        let cfg = SlpConfig::for_machine(MachineConfig::intel_dunnington(), Strategy::Holistic);
        let p = slp_lang::compile(src).expect("compiles");
        let (kernel, timings) = slp_core::compile_timed(&p, &cfg);
        let fp = crate::fingerprint_with_tag(src, &cfg, "");
        (
            fp,
            CachedCompile {
                kernel,
                report: None,
                prove: None,
                timings,
            },
        )
    }

    fn source(n: usize) -> String {
        format!("kernel k{n} {{ array A: f64[64]; for i in 0..32 {{ A[i] = A[i] + {n}.0; }} }}")
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let cache = CompileCache::in_memory(2);
        // Small caches must stay single-sharded so global LRU order is
        // exact.
        assert_eq!(cache.memory.shards.len(), 1);
        let (fp0, e0) = entry_for(&source(0));
        let (fp1, e1) = entry_for(&source(1));
        let (fp2, e2) = entry_for(&source(2));
        cache.put(fp0, &e0);
        cache.put(fp1, &e1);
        assert!(cache.get(fp0).is_some()); // fp0 now most recent
        cache.put(fp2, &e2); // evicts fp1
        assert!(cache.get(fp1).is_none());
        assert!(cache.get(fp0).is_some());
        assert!(cache.get(fp2).is_some());
        let stats = cache.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.misses, 1);
    }

    #[test]
    fn prove_verdict_survives_the_entry_codec() {
        let (fp, mut e) = entry_for(&source(7));
        e.prove = Some(crate::ProveVerdict::Proved);
        let text = encode_entry(fp, &e).to_compact();
        let back = decode_entry(&text, fp).expect("decodes");
        assert_eq!(back.prove, Some(crate::ProveVerdict::Proved));
    }

    #[test]
    fn hit_rate_tallies() {
        let cache = CompileCache::in_memory(8);
        let (fp, e) = entry_for(&source(3));
        assert!(cache.get(fp).is_none());
        cache.put(fp, &e);
        assert!(cache.get(fp).is_some());
        assert!(cache.get(fp).is_some());
        let stats = cache.stats();
        assert_eq!(stats.lookups(), 3);
        assert!((stats.hit_rate() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn serve_sized_caches_shard() {
        assert_eq!(shard_count(2), 1);
        assert_eq!(shard_count(31), 1);
        assert_eq!(shard_count(64), 2);
        assert_eq!(shard_count(DEFAULT_MEMORY_CAPACITY), 8);
        assert_eq!(shard_count(100_000), MAX_SHARDS);
        let cache = CompileCache::in_memory(DEFAULT_MEMORY_CAPACITY);
        assert_eq!(cache.memory.shards.len(), 8);
    }

    #[test]
    fn sharded_stats_are_exact_under_concurrent_hits() {
        let cache = CompileCache::in_memory(DEFAULT_MEMORY_CAPACITY);
        assert!(cache.memory.shards.len() > 1);
        let keyed: Vec<(Fingerprint, CachedCompile)> =
            (0..4).map(|n| entry_for(&source(n))).collect();
        for (fp, e) in &keyed {
            cache.put(*fp, e);
        }
        const THREADS: usize = 8;
        const ROUNDS: usize = 50;
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let cache = &cache;
                let keyed = &keyed;
                scope.spawn(move || {
                    for i in 0..ROUNDS {
                        let (fp, _) = &keyed[(t + i) % keyed.len()];
                        assert!(cache.get(*fp).is_some());
                    }
                });
            }
        });
        let stats = cache.stats();
        assert_eq!(stats.memory_hits, (THREADS * ROUNDS) as u64);
        assert_eq!(stats.misses, 0);
        assert_eq!(stats.stores, keyed.len() as u64);
        let held = |shard: &Mutex<MemoryShard>| shard.lock().expect("shard lock").entries.len();
        let entries: usize = cache.memory.shards.iter().map(held).sum();
        assert_eq!(entries, keyed.len());
    }
}
