//! A cache of compiled BSP programs, keyed by the *structure* of the
//! sort: factor-graph wiring, number of dimensions, and `PG_2` sorter.
//!
//! Compiling a program ([`crate::bsp::compile`]) replays the whole
//! algorithm through a recording engine and lowers every logical round
//! — far more expensive than executing the result once. Repeated sorts
//! on the same topology (parameter sweeps, batched throughput runs)
//! should compile once; this cache makes that automatic and observable
//! (hit/miss counters).
//!
//! The key deliberately stores the factor's **full edge set**, not a
//! hash of it: two factors with equal node and edge counts but
//! different wiring (say, a path and a star on four nodes) can never
//! collide, by construction. [`fingerprint`] offers a compact digest
//! of the same identity for display and logging only.

use crate::bsp::{compile, CompiledProgram};
use crate::kernel::KernelProgram;
use crate::sorters::Pg2Sorter;
use crate::vertical::{VerticalProgram, WORD_LANES};
use pns_graph::Graph;
use pns_obs::{Event, EventLogger, SpanClass, Stage, Tier};
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// Structural identity of a compiled program: everything [`compile`]'s
/// output depends on, with the edge set stored verbatim.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ProgramKey {
    /// Factor node count.
    pub n: usize,
    /// Product dimensions.
    pub r: usize,
    /// `PG_2` sorter identity ([`Pg2Sorter::id`]) — unlike the display
    /// name, this distinguishes parameterized variants of one
    /// construction, so two sorters that generate different programs can
    /// never share an entry.
    pub sorter: String,
    /// Normalized edge list: each edge as `(min, max)`, sorted.
    pub edges: Vec<(u32, u32)>,
}

impl ProgramKey {
    /// Key for the program sorting the product of `factor` with `r`
    /// dimensions using `sorter`.
    #[must_use]
    pub fn new(factor: &Graph, r: usize, sorter: &dyn Pg2Sorter) -> Self {
        ProgramKey {
            n: factor.n(),
            r,
            sorter: sorter.id(),
            edges: normalized_edges(factor),
        }
    }

    /// Compact digest of this key's structural identity (FNV-1a over
    /// node count, dimensions, sorter identity, and the normalized edge
    /// set). Display/logging only: the cache compares full keys.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
        };
        eat(&(self.n as u64).to_le_bytes());
        eat(&(self.r as u64).to_le_bytes());
        eat(self.sorter.as_bytes());
        for &(a, b) in &self.edges {
            eat(&a.to_le_bytes());
            eat(&b.to_le_bytes());
        }
        h
    }
}

pub(crate) fn normalized_edges(factor: &Graph) -> Vec<(u32, u32)> {
    let mut edges: Vec<(u32, u32)> = factor.edges().map(|(a, b)| (a.min(b), a.max(b))).collect();
    edges.sort_unstable();
    edges.dedup();
    edges
}

/// Compact digest (FNV-1a over node count, dimensions, sorter identity,
/// and the normalized edge set) of a program's structural identity. For
/// display and logging; the cache itself compares full keys, so
/// fingerprint collisions cannot cause wrong programs to be served.
#[must_use]
pub fn fingerprint(factor: &Graph, r: usize, sorter: &dyn Pg2Sorter) -> u64 {
    ProgramKey::new(factor, r, sorter).fingerprint()
}

/// Point-in-time snapshot of a [`ProgramCache`]'s accounting, for
/// experiment tables and logs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Requests served from the cache.
    pub hits: u64,
    /// Requests that had to compile.
    pub misses: u64,
    /// Distinct programs held at snapshot time.
    pub entries: usize,
}

impl CacheStats {
    /// Fraction of requests served from the cache, in `[0, 1]`
    /// (0 when no request has been made).
    #[must_use]
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            #[allow(clippy::cast_precision_loss)]
            {
                self.hits as f64 / total as f64
            }
        }
    }

    /// Publish this snapshot into a metrics [`Registry`] under the
    /// `pns_` namespace, labeled by which cache tier it came from
    /// (`program`, `kernel`, or `vertical`).
    ///
    /// [`Registry`]: pns_obs::Registry
    pub fn export_to(&self, registry: &mut pns_obs::Registry, tier: &str) {
        let labels = &[("cache", tier)][..];
        registry.set_counter_with("pns_program_cache_hits_total", labels, self.hits);
        registry.set_counter_with("pns_program_cache_misses_total", labels, self.misses);
        registry.set_counter_with("pns_program_cache_entries", labels, self.entries as u64);
        registry.set_gauge_with("pns_program_cache_hit_ratio", labels, self.hit_ratio());
    }
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} hits / {} misses ({:.1}% hit), {} programs",
            self.hits,
            self.misses,
            self.hit_ratio() * 100.0,
            self.entries
        )
    }
}

/// Thread-safe cache of compiled programs with hit/miss accounting.
/// Lowered kernels ([`KernelProgram`]) and their vertical commitments
/// ([`VerticalProgram`]) are cached alongside, under the same keys,
/// each with their own hit/miss counters — [`CacheStats`] and the
/// program counters are untouched by kernel or vertical traffic.
#[derive(Debug, Default)]
pub struct ProgramCache {
    programs: RwLock<HashMap<ProgramKey, Arc<CompiledProgram>>>,
    kernels: RwLock<HashMap<ProgramKey, Arc<KernelProgram>>>,
    verticals: RwLock<HashMap<ProgramKey, Arc<VerticalProgram>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    kernel_hits: AtomicU64,
    kernel_misses: AtomicU64,
    vertical_hits: AtomicU64,
    vertical_misses: AtomicU64,
    logger: EventLogger,
}

impl ProgramCache {
    /// An empty cache.
    #[must_use]
    pub fn new() -> Self {
        ProgramCache::default()
    }

    /// Emit one `CacheLookup` event per lookup into `logger`, carrying
    /// hit/miss and the key's structural fingerprint.
    pub fn attach_logger(&mut self, logger: EventLogger) {
        self.logger = logger;
    }

    /// The compiled program for `(factor, r, sorter)`, compiling on the
    /// first request and returning the shared compiled copy afterwards.
    ///
    /// Robust to lock poisoning: a panic inside a previous compile never
    /// wedges the cache (the map only ever holds fully built programs).
    pub fn get_or_compile(
        &self,
        factor: &Graph,
        r: usize,
        sorter: &dyn Pg2Sorter,
    ) -> Arc<CompiledProgram> {
        self.lookup(ProgramKey::new(factor, r, sorter), || {
            compile(factor, r, sorter)
        })
    }

    /// The compiled program **and** its lowered kernel for
    /// `(factor, r, sorter)`, compiling and lowering on the first
    /// request. The program side behaves exactly like
    /// [`ProgramCache::get_or_compile`] (one lookup, same counters); the
    /// kernel side is cached under the same key with its own counters
    /// and emits one `KernelLowered` event per lowering.
    pub fn get_or_compile_kernel(
        &self,
        factor: &Graph,
        r: usize,
        sorter: &dyn Pg2Sorter,
    ) -> (Arc<CompiledProgram>, Arc<KernelProgram>) {
        let program = self.get_or_compile(factor, r, sorter);
        let kernel = self.kernel_lookup(ProgramKey::new(factor, r, sorter), &program);
        (program, kernel)
    }

    /// The compiled program, its lowered kernel, **and** the kernel's
    /// vertical (bit-sliced) commitment for `(factor, r, sorter)`. The
    /// program and kernel sides ride on
    /// [`ProgramCache::get_or_compile_kernel`] — identical counter
    /// deltas — while the vertical side is cached under the same key
    /// with its own counters and emits one `VerticalLowered` event per
    /// commitment.
    pub fn get_or_compile_vertical(
        &self,
        factor: &Graph,
        r: usize,
        sorter: &dyn Pg2Sorter,
    ) -> (
        Arc<CompiledProgram>,
        Arc<KernelProgram>,
        Arc<VerticalProgram>,
    ) {
        let (program, kernel) = self.get_or_compile_kernel(factor, r, sorter);
        let vertical = self.vertical_lookup(ProgramKey::new(factor, r, sorter), &kernel);
        (program, kernel, vertical)
    }

    fn vertical_lookup(
        &self,
        key: ProgramKey,
        kernel: &Arc<KernelProgram>,
    ) -> Arc<VerticalProgram> {
        if let Some(hit) = self
            .verticals
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .get(&key)
        {
            self.vertical_hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(hit);
        }
        let lower_span = self
            .logger
            .span(Tier::Cache, Stage::LowerVertical, SpanClass::None);
        let vertical = Arc::new(VerticalProgram::lower(Arc::clone(kernel)));
        drop(lower_span);
        self.vertical_misses.fetch_add(1, Ordering::Relaxed);
        self.logger.log(|| Event::VerticalLowered {
            rounds: vertical.rounds() as u64,
            compare_rounds: kernel.compare_rounds() as u64,
            route_rounds: kernel.route_rounds() as u64,
            word_ops: vertical.word_ops() as u64,
            lanes: WORD_LANES as u64,
        });
        self.verticals
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .insert(key, Arc::clone(&vertical));
        vertical
    }

    fn kernel_lookup(&self, key: ProgramKey, program: &CompiledProgram) -> Arc<KernelProgram> {
        if let Some(hit) = self
            .kernels
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .get(&key)
        {
            self.kernel_hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(hit);
        }
        // Lower outside the lock, like `lookup` compiles outside it.
        // Cached programs come from `compile`, whose output satisfies
        // the machine-model invariants lowering assumes.
        let lower_span = self
            .logger
            .span(Tier::Cache, Stage::LowerKernel, SpanClass::None);
        let kernel = Arc::new(KernelProgram::lower(program));
        drop(lower_span);
        self.kernel_misses.fetch_add(1, Ordering::Relaxed);
        self.logger.log(|| Event::KernelLowered {
            rounds: kernel.rounds() as u64,
            compare_rounds: kernel.compare_rounds() as u64,
            route_rounds: kernel.route_rounds() as u64,
            cx_pairs: kernel.cx_pair_count() as u64,
            micro_ops: kernel.micro_op_count() as u64,
        });
        self.kernels
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .insert(key, Arc::clone(&kernel));
        kernel
    }

    fn lookup(
        &self,
        key: ProgramKey,
        build: impl FnOnce() -> CompiledProgram,
    ) -> Arc<CompiledProgram> {
        if let Some(hit) = self
            .programs
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .get(&key)
        {
            self.hits.fetch_add(1, Ordering::Relaxed);
            self.logger.log(|| Event::CacheLookup {
                hit: true,
                key_fingerprint: key.fingerprint(),
            });
            return Arc::clone(hit);
        }
        // Compile outside the lock; a concurrent compile of the same key
        // wastes work but stays correct (last insert wins, same program).
        let compile_span = self
            .logger
            .span(Tier::Cache, Stage::Compile, SpanClass::None);
        let program = Arc::new(build());
        drop(compile_span);
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.logger.log(|| Event::CacheLookup {
            hit: false,
            key_fingerprint: key.fingerprint(),
        });
        self.programs
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .insert(key, Arc::clone(&program));
        program
    }

    /// Requests served from the cache.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Requests that had to compile.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Kernel requests served from the cache.
    #[must_use]
    pub fn kernel_hits(&self) -> u64 {
        self.kernel_hits.load(Ordering::Relaxed)
    }

    /// Kernel requests that had to lower.
    #[must_use]
    pub fn kernel_misses(&self) -> u64 {
        self.kernel_misses.load(Ordering::Relaxed)
    }

    /// Number of distinct lowered kernels held.
    #[must_use]
    pub fn kernel_len(&self) -> usize {
        self.kernels
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .len()
    }

    /// Vertical requests served from the cache.
    #[must_use]
    pub fn vertical_hits(&self) -> u64 {
        self.vertical_hits.load(Ordering::Relaxed)
    }

    /// Vertical requests that had to commit a layout.
    #[must_use]
    pub fn vertical_misses(&self) -> u64 {
        self.vertical_misses.load(Ordering::Relaxed)
    }

    /// Number of distinct vertical programs held.
    #[must_use]
    pub fn vertical_len(&self) -> usize {
        self.verticals
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .len()
    }

    /// Consistent snapshot of the accounting, for tables and logs.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits(),
            misses: self.misses(),
            entries: self.len(),
        }
    }

    /// Number of distinct programs held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.programs
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .len()
    }

    /// `true` iff no program is cached.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop all cached programs and kernels (counters keep their
    /// totals).
    pub fn clear(&self) {
        self.programs
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clear();
        self.kernels
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clear();
        self.verticals
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sorters::{OetSnakeSorter, ShearSorter};
    use pns_graph::factories;

    #[test]
    fn second_request_is_a_hit_and_shares_the_program() {
        let cache = ProgramCache::new();
        let factor = factories::path(3);
        let first = cache.get_or_compile(&factor, 2, &ShearSorter);
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
        let second = cache.get_or_compile(&factor, 2, &ShearSorter);
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert!(
            Arc::ptr_eq(&first, &second),
            "hit must share, not recompile"
        );
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn distinct_parameters_get_distinct_entries() {
        let cache = ProgramCache::new();
        let factor = factories::path(3);
        let _ = cache.get_or_compile(&factor, 2, &ShearSorter);
        let _ = cache.get_or_compile(&factor, 3, &ShearSorter); // other r
        let _ = cache.get_or_compile(&factor, 2, &OetSnakeSorter); // other sorter
        assert_eq!(cache.misses(), 3);
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn two_sorters_over_the_same_wiring_never_cross_pollinate() {
        // Regression: the key (and its fingerprint) must carry the
        // sorter's identity, so the same factor compiled under two
        // sorters yields two entries with correct per-request counters —
        // never one entry served to both.
        use crate::sorters::MultiwayNSorter;
        let cache = ProgramCache::new();
        let factor = factories::complete(4);
        let a1 = cache.get_or_compile(&factor, 2, &OetSnakeSorter);
        let b1 = cache.get_or_compile(&factor, 2, &MultiwayNSorter);
        assert_eq!((cache.hits(), cache.misses()), (0, 2), "both compile");
        assert_eq!(cache.len(), 2);
        assert!(!Arc::ptr_eq(&a1, &b1));
        assert_ne!(a1.rounds(), b1.rounds(), "genuinely different programs");
        // Repeat requests hit their own entry, not each other's.
        let a2 = cache.get_or_compile(&factor, 2, &OetSnakeSorter);
        let b2 = cache.get_or_compile(&factor, 2, &MultiwayNSorter);
        assert_eq!((cache.hits(), cache.misses()), (2, 2));
        assert!(Arc::ptr_eq(&a1, &a2));
        assert!(Arc::ptr_eq(&b1, &b2));
        // The fingerprint separates them too.
        assert_ne!(
            fingerprint(&factor, 2, &OetSnakeSorter),
            fingerprint(&factor, 2, &MultiwayNSorter)
        );
    }

    #[test]
    fn parameterized_sorter_variants_get_distinct_entries() {
        // Two variants share a display name but differ in `id()` — the
        // cache must treat them as different sorters.
        use crate::sorters::{PeriodicMergeSorter, Pg2Sorter};
        let plain = PeriodicMergeSorter::default();
        let tuned = PeriodicMergeSorter::with_extra_blocks(1);
        assert_eq!(plain.name(), tuned.name());
        let cache = ProgramCache::new();
        let factor = factories::path(3);
        let p = cache.get_or_compile(&factor, 2, &plain);
        let t = cache.get_or_compile(&factor, 2, &tuned);
        assert_eq!((cache.hits(), cache.misses()), (0, 2));
        assert_eq!(cache.len(), 2);
        assert!(t.rounds() > p.rounds(), "extra blocks add rounds");
        assert_ne!(
            fingerprint(&factor, 2, &plain),
            fingerprint(&factor, 2, &tuned)
        );
    }

    #[test]
    fn same_counts_different_wiring_do_not_collide() {
        // path(4) and star(4) both have 4 nodes and 3 edges; the keys
        // must differ because the edge sets differ.
        let path = factories::path(4);
        let star = factories::star(4);
        let kp = ProgramKey::new(&path, 2, &OetSnakeSorter);
        let ks = ProgramKey::new(&star, 2, &OetSnakeSorter);
        assert_eq!(kp.n, ks.n);
        assert_eq!(kp.edges.len(), ks.edges.len());
        assert_ne!(kp, ks, "wiring must be part of the key");

        let cache = ProgramCache::new();
        let p_path = cache.get_or_compile(&path, 2, &OetSnakeSorter);
        let p_star = cache.get_or_compile(&star, 2, &OetSnakeSorter);
        assert_eq!(cache.misses(), 2, "no collision: both compile");
        // The star program relays through the hub; the path program
        // does not — structurally different schedules.
        assert_ne!(p_path.op_count(), p_star.op_count());
    }

    #[test]
    fn fingerprints_separate_wiring_too() {
        let path = factories::path(4);
        let star = factories::star(4);
        assert_ne!(
            fingerprint(&path, 2, &OetSnakeSorter),
            fingerprint(&star, 2, &OetSnakeSorter)
        );
        assert_eq!(
            fingerprint(&path, 2, &OetSnakeSorter),
            fingerprint(&factories::path(4), 2, &OetSnakeSorter),
            "fingerprint is a pure function of the structure"
        );
    }

    #[test]
    fn stats_snapshot_and_display() {
        let cache = ProgramCache::new();
        let factor = factories::path(3);
        let _ = cache.get_or_compile(&factor, 2, &ShearSorter);
        let _ = cache.get_or_compile(&factor, 2, &ShearSorter);
        let _ = cache.get_or_compile(&factor, 3, &ShearSorter);
        let stats = cache.stats();
        assert_eq!(
            stats,
            CacheStats {
                hits: 1,
                misses: 2,
                entries: 2
            }
        );
        assert!((stats.hit_ratio() - 1.0 / 3.0).abs() < 1e-9);
        let shown = stats.to_string();
        assert!(shown.contains("1 hits / 2 misses"), "{shown}");
        assert!(shown.contains("2 programs"), "{shown}");
        assert_eq!(ProgramCache::new().stats().hit_ratio(), 0.0);
    }

    #[test]
    fn lookups_emit_cache_events_with_the_key_fingerprint() {
        let (sink, reader) = pns_obs::MemorySink::with_capacity(16);
        let mut cache = ProgramCache::new();
        cache.attach_logger(pns_obs::EventLogger::new(Box::new(sink)));
        let factor = factories::path(3);
        let _ = cache.get_or_compile(&factor, 2, &ShearSorter);
        let _ = cache.get_or_compile(&factor, 2, &ShearSorter);
        // Cache lookups run on the caller's thread; drain its buffer.
        cache.logger.flush();
        let events: Vec<_> = reader.events().iter().map(|e| e.event).collect();
        let fp = fingerprint(&factor, 2, &ShearSorter);
        let lookups: Vec<_> = events
            .iter()
            .copied()
            .filter(|e| matches!(e, pns_obs::Event::CacheLookup { .. }))
            .collect();
        assert_eq!(
            lookups,
            vec![
                pns_obs::Event::CacheLookup {
                    hit: false,
                    key_fingerprint: fp
                },
                pns_obs::Event::CacheLookup {
                    hit: true,
                    key_fingerprint: fp
                },
            ]
        );
        // The miss compiled under a Cache/Compile span; the hit did not.
        let opens: Vec<_> = events
            .iter()
            .filter_map(|e| match e {
                pns_obs::Event::SpanEnter { tier, stage, .. } => Some((*tier, *stage)),
                _ => None,
            })
            .collect();
        let closes = events
            .iter()
            .filter(|e| matches!(e, pns_obs::Event::SpanExit { .. }))
            .count();
        assert_eq!(
            opens,
            vec![(Tier::Cache.code(), Stage::Compile.code())],
            "exactly one compile span, on the miss"
        );
        assert_eq!(closes, 1);
    }

    #[test]
    fn clear_empties_but_keeps_counters() {
        let cache = ProgramCache::new();
        let factor = factories::path(3);
        let _ = cache.get_or_compile(&factor, 2, &ShearSorter);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.misses(), 1);
        let _ = cache.get_or_compile(&factor, 2, &ShearSorter);
        assert_eq!(cache.misses(), 2, "cleared entries recompile");
    }

    #[test]
    fn kernel_requests_share_one_lowering_and_leave_program_stats_alone() {
        let cache = ProgramCache::new();
        let factor = factories::path(3);
        let (p1, k1) = cache.get_or_compile_kernel(&factor, 2, &ShearSorter);
        let (p2, k2) = cache.get_or_compile_kernel(&factor, 2, &ShearSorter);
        assert!(Arc::ptr_eq(&p1, &p2), "program comes from the same entry");
        assert!(Arc::ptr_eq(&k1, &k2), "kernel is lowered exactly once");
        assert_eq!(k1.rounds(), p1.rounds());
        assert!(
            std::ptr::eq(&k1.ops[..], p1.round_ops()),
            "the kernel shares the cached program's rounds"
        );
        assert_eq!((cache.kernel_hits(), cache.kernel_misses()), (1, 1));
        assert_eq!(cache.kernel_len(), 1);
        // Kernel traffic rides on the same program lookups — the
        // program-side stats see exactly one miss then one hit, the
        // same deltas plain `get_or_compile` would produce.
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 1,
                misses: 1,
                entries: 1
            }
        );
        cache.clear();
        assert_eq!(cache.kernel_len(), 0, "clear drops kernels too");
    }

    #[test]
    fn vertical_requests_share_one_commitment_and_leave_other_stats_alone() {
        let cache = ProgramCache::new();
        let factor = factories::path(3);
        let (p1, k1, v1) = cache.get_or_compile_vertical(&factor, 2, &ShearSorter);
        let (p2, _k2, v2) = cache.get_or_compile_vertical(&factor, 2, &ShearSorter);
        assert!(Arc::ptr_eq(&p1, &p2), "program comes from the same entry");
        assert!(Arc::ptr_eq(&v1, &v2), "layout is committed exactly once");
        assert!(
            Arc::ptr_eq(v1.kernel(), &k1),
            "the vertical program wraps the cached kernel"
        );
        assert_eq!((cache.vertical_hits(), cache.vertical_misses()), (1, 1));
        assert_eq!(cache.vertical_len(), 1);
        // Vertical traffic rides on the kernel (and thus program)
        // lookups — both see exactly the plain one-miss-one-hit deltas.
        assert_eq!((cache.kernel_hits(), cache.kernel_misses()), (1, 1));
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 1,
                misses: 1,
                entries: 1
            }
        );
        cache.clear();
        assert_eq!(cache.vertical_len(), 0, "clear drops verticals too");
    }

    #[test]
    fn vertical_misses_emit_one_lowered_event() {
        let (sink, reader) = pns_obs::MemorySink::with_capacity(16);
        let mut cache = ProgramCache::new();
        cache.attach_logger(pns_obs::EventLogger::new(Box::new(sink)));
        let factor = factories::path(3);
        let (_program, kernel, vertical) = cache.get_or_compile_vertical(&factor, 2, &ShearSorter);
        let _ = cache.get_or_compile_vertical(&factor, 2, &ShearSorter);
        cache.logger.flush();
        let lowered: Vec<_> = reader
            .events()
            .iter()
            .map(|e| e.event)
            .filter(|e| e.kind() == "vertical_lowered")
            .collect();
        assert_eq!(
            lowered,
            vec![pns_obs::Event::VerticalLowered {
                rounds: vertical.rounds() as u64,
                compare_rounds: kernel.compare_rounds() as u64,
                route_rounds: kernel.route_rounds() as u64,
                word_ops: vertical.word_ops() as u64,
                lanes: WORD_LANES as u64,
            }],
            "the second request is a hit and stays silent"
        );
    }

    #[test]
    fn kernel_misses_emit_one_lowered_event() {
        let (sink, reader) = pns_obs::MemorySink::with_capacity(16);
        let mut cache = ProgramCache::new();
        cache.attach_logger(pns_obs::EventLogger::new(Box::new(sink)));
        let factor = factories::path(3);
        let (program, kernel) = cache.get_or_compile_kernel(&factor, 2, &ShearSorter);
        let _ = cache.get_or_compile_kernel(&factor, 2, &ShearSorter);
        cache.logger.flush();
        let lowered: Vec<_> = reader
            .events()
            .iter()
            .map(|e| e.event)
            .filter(|e| e.kind() == "kernel_lowered")
            .collect();
        assert_eq!(
            lowered,
            vec![pns_obs::Event::KernelLowered {
                rounds: program.rounds() as u64,
                compare_rounds: kernel.compare_rounds() as u64,
                route_rounds: kernel.route_rounds() as u64,
                cx_pairs: kernel.cx_pair_count() as u64,
                micro_ops: kernel.micro_op_count() as u64,
            }],
            "the second request is a hit and stays silent"
        );
    }
}
