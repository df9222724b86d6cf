//! A cache of compiled BSP programs, keyed by the *structure* of the
//! sort: factor-graph wiring, number of dimensions, and `PG_2` sorter.
//!
//! Compiling a program ([`crate::bsp::compile`]) replays the whole
//! algorithm through a recording engine and lowers every logical round
//! — far more expensive than executing the result once. Repeated sorts
//! on the same topology (parameter sweeps, batched throughput runs)
//! should compile once; this cache makes that automatic and observable
//! (hit/miss counters). Both entry points compile through it, so a
//! `Machine` built over a service builder's cache
//! (`ServiceBuilder::program_cache`) shares the service's program and
//! lowerings instead of compiling the shape a second time.
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
use std::sync::{Arc, PoisonError, RwLock};

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

/// Thread-safe store of compiled programs with hit/miss accounting: the
/// one code path that compiles a shape and lowers it, for
/// [`Machine::compiled`](crate::machine::Machine::compiled) and the
/// service's `register_shape` alike. An entry holds the program, its
/// lowered kernel ([`KernelProgram`]) and the kernel's vertical
/// commitment ([`VerticalProgram`]), built together on a miss and
/// inserted only once all three exist. Each tier keeps its own hit/miss
/// counters; [`CacheStats`] reads the program's.
#[derive(Debug, Default)]
pub struct ProgramCache {
    entries: RwLock<HashMap<ProgramKey, Entry>>,
    hits: AtomicU64,
    misses: AtomicU64,
    kernel_hits: AtomicU64,
    kernel_misses: AtomicU64,
    vertical_hits: AtomicU64,
    vertical_misses: AtomicU64,
    logger: EventLogger,
}

type Entry = (
    Arc<CompiledProgram>,
    Arc<KernelProgram>,
    Arc<VerticalProgram>,
);

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

    /// The compiled program, its lowered kernel, and the kernel's
    /// vertical (bit-sliced) commitment for `(factor, r, sorter)`,
    /// compiled and lowered on the first request and shared afterwards.
    ///
    /// A hit counts one hit on each tier and emits one `CacheLookup`
    /// event. A miss compiles, lowers the kernel, then commits the
    /// vertical layout, each under its own cache span; after each step
    /// it counts that tier's miss and emits its event (`CacheLookup`,
    /// `KernelLowered`, `VerticalLowered`). The store does not
    /// validate: [`compile`]'s output satisfies the machine-model
    /// invariants lowering assumes, and a caller that wants the typed
    /// check runs [`BspMachine::try_validate`] on the program.
    ///
    /// Compiling and lowering run outside the lock, and the map only
    /// ever holds complete entries, so a panic inside a miss leaves
    /// no entry and never wedges the cache.
    ///
    /// # Panics
    ///
    /// Panics if `r < 2`, like [`compile`].
    ///
    /// [`BspMachine::try_validate`]: crate::bsp::BspMachine::try_validate
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
        let key = ProgramKey::new(factor, r, sorter);
        if let Some(hit) = self
            .entries
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&key)
        {
            for hits in [&self.hits, &self.kernel_hits, &self.vertical_hits] {
                hits.fetch_add(1, Ordering::Relaxed);
            }
            self.logger.log(|| Event::CacheLookup {
                hit: true,
                key_fingerprint: key.fingerprint(),
            });
            return hit.clone();
        }
        // A concurrent miss on the same key wastes work but stays
        // correct (last insert wins, same program).
        let span = self
            .logger
            .span(Tier::Cache, Stage::Compile, SpanClass::None);
        let program = Arc::new(compile(factor, r, sorter));
        drop(span);
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.logger.log(|| Event::CacheLookup {
            hit: false,
            key_fingerprint: key.fingerprint(),
        });

        let span = self
            .logger
            .span(Tier::Cache, Stage::LowerKernel, SpanClass::None);
        let kernel = Arc::new(KernelProgram::lower(&program));
        drop(span);
        self.kernel_misses.fetch_add(1, Ordering::Relaxed);
        self.logger.log(|| Event::KernelLowered {
            rounds: kernel.rounds() as u64,
            compare_rounds: kernel.compare_rounds() as u64,
            route_rounds: kernel.route_rounds() as u64,
            cx_pairs: kernel.cx_pair_count() as u64,
            micro_ops: kernel.micro_op_count() as u64,
        });

        let span = self
            .logger
            .span(Tier::Cache, Stage::LowerVertical, SpanClass::None);
        let vertical = Arc::new(VerticalProgram::lower(Arc::clone(&kernel)));
        drop(span);
        self.vertical_misses.fetch_add(1, Ordering::Relaxed);
        self.logger.log(|| Event::VerticalLowered {
            rounds: vertical.rounds() as u64,
            compare_rounds: kernel.compare_rounds() as u64,
            route_rounds: kernel.route_rounds() as u64,
            word_ops: vertical.word_ops() as u64,
            lanes: WORD_LANES as u64,
        });

        let entry = (program, kernel, vertical);
        self.entries
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(key, entry.clone());
        entry
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
        self.entries
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// `true` iff no program is cached.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop all cached programs and their lowerings (counters keep
    /// their totals).
    pub fn clear(&self) {
        self.entries
            .write()
            .unwrap_or_else(PoisonError::into_inner)
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
        let (first, ..) = cache.get_or_compile_vertical(&factor, 2, &ShearSorter);
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
        let (second, ..) = cache.get_or_compile_vertical(&factor, 2, &ShearSorter);
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
        let _ = cache.get_or_compile_vertical(&factor, 2, &ShearSorter);
        let _ = cache.get_or_compile_vertical(&factor, 3, &ShearSorter); // other r
        let _ = cache.get_or_compile_vertical(&factor, 2, &OetSnakeSorter); // other sorter
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
        let (a1, ..) = cache.get_or_compile_vertical(&factor, 2, &OetSnakeSorter);
        let (b1, ..) = cache.get_or_compile_vertical(&factor, 2, &MultiwayNSorter);
        assert_eq!((cache.hits(), cache.misses()), (0, 2), "both compile");
        assert_eq!(cache.len(), 2);
        assert!(!Arc::ptr_eq(&a1, &b1));
        assert_ne!(a1.rounds(), b1.rounds(), "genuinely different programs");
        // Repeat requests hit their own entry, not each other's.
        let (a2, ..) = cache.get_or_compile_vertical(&factor, 2, &OetSnakeSorter);
        let (b2, ..) = cache.get_or_compile_vertical(&factor, 2, &MultiwayNSorter);
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
        let (p, ..) = cache.get_or_compile_vertical(&factor, 2, &plain);
        let (t, ..) = cache.get_or_compile_vertical(&factor, 2, &tuned);
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
        let (p_path, ..) = cache.get_or_compile_vertical(&path, 2, &OetSnakeSorter);
        let (p_star, ..) = cache.get_or_compile_vertical(&star, 2, &OetSnakeSorter);
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
        let _ = cache.get_or_compile_vertical(&factor, 2, &ShearSorter);
        let _ = cache.get_or_compile_vertical(&factor, 2, &ShearSorter);
        let _ = cache.get_or_compile_vertical(&factor, 3, &ShearSorter);
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
        let _ = cache.get_or_compile_vertical(&factor, 2, &ShearSorter);
        let _ = cache.get_or_compile_vertical(&factor, 2, &ShearSorter);
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
        // The miss compiled and lowered under Cache spans; the hit
        // opened none.
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
            vec![
                (Tier::Cache.code(), Stage::Compile.code()),
                (Tier::Cache.code(), Stage::LowerKernel.code()),
                (Tier::Cache.code(), Stage::LowerVertical.code()),
            ],
            "one compile and two lowering spans, all on the miss"
        );
        assert_eq!(closes, 3);
    }

    #[test]
    fn clear_empties_but_keeps_counters() {
        let cache = ProgramCache::new();
        let factor = factories::path(3);
        let _ = cache.get_or_compile_vertical(&factor, 2, &ShearSorter);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.misses(), 1);
        let _ = cache.get_or_compile_vertical(&factor, 2, &ShearSorter);
        assert_eq!(cache.misses(), 2, "cleared entries recompile");
    }

    #[test]
    fn a_hit_shares_the_program_and_both_lowerings() {
        let cache = ProgramCache::new();
        let factor = factories::path(3);
        let (p1, k1, v1) = cache.get_or_compile_vertical(&factor, 2, &ShearSorter);
        let (p2, k2, v2) = cache.get_or_compile_vertical(&factor, 2, &ShearSorter);
        assert!(Arc::ptr_eq(&p1, &p2), "program comes from the same entry");
        assert!(Arc::ptr_eq(&k1, &k2), "kernel is lowered exactly once");
        assert!(Arc::ptr_eq(&v1, &v2), "layout is committed exactly once");
        assert_eq!(k1.rounds(), p1.rounds());
        assert!(
            std::ptr::eq(&k1.ops[..], p1.round_ops()),
            "the kernel shares the cached program's rounds"
        );
        assert!(
            Arc::ptr_eq(v1.kernel(), &k1),
            "the vertical program wraps the cached kernel"
        );
        // Every tier sees exactly one miss then one hit.
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 1,
                misses: 1,
                entries: 1
            }
        );
        assert_eq!((cache.kernel_hits(), cache.kernel_misses()), (1, 1));
        assert_eq!((cache.vertical_hits(), cache.vertical_misses()), (1, 1));
    }

    #[test]
    fn a_panicking_compile_leaves_the_cache_usable() {
        // `compile` asserts r >= 2: the miss panics before anything is
        // counted or stored, and the next valid lookup runs as usual.
        let cache = ProgramCache::new();
        let factor = factories::path(3);
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cache.get_or_compile_vertical(&factor, 1, &ShearSorter)
        }));
        assert!(panicked.is_err(), "r = 1 must not compile");
        let counts = |c: &ProgramCache| {
            [
                (c.hits(), c.misses()),
                (c.kernel_hits(), c.kernel_misses()),
                (c.vertical_hits(), c.vertical_misses()),
            ]
        };
        assert!(cache.is_empty(), "a panicking miss leaves no entry");
        assert_eq!(counts(&cache), [(0, 0); 3], "and counts no miss");
        let (p1, k1, v1) = cache.get_or_compile_vertical(&factor, 2, &ShearSorter);
        assert_eq!(counts(&cache), [(0, 1); 3], "compiles and lowers");
        let (p2, k2, v2) = cache.get_or_compile_vertical(&factor, 2, &ShearSorter);
        assert_eq!(counts(&cache), [(1, 1); 3], "then hits");
        assert!(Arc::ptr_eq(&p1, &p2) && Arc::ptr_eq(&k1, &k2) && Arc::ptr_eq(&v1, &v2));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn a_miss_emits_one_lowered_event_per_tier() {
        let (sink, reader) = pns_obs::MemorySink::with_capacity(16);
        let mut cache = ProgramCache::new();
        cache.attach_logger(pns_obs::EventLogger::new(Box::new(sink)));
        let factor = factories::path(3);
        let (program, kernel, vertical) = cache.get_or_compile_vertical(&factor, 2, &ShearSorter);
        let _ = cache.get_or_compile_vertical(&factor, 2, &ShearSorter);
        cache.logger.flush();
        let lowered: Vec<_> = reader
            .events()
            .iter()
            .map(|e| e.event)
            .filter(|e| matches!(e.kind(), "kernel_lowered" | "vertical_lowered"))
            .collect();
        assert_eq!(
            lowered,
            vec![
                pns_obs::Event::KernelLowered {
                    rounds: program.rounds() as u64,
                    compare_rounds: kernel.compare_rounds() as u64,
                    route_rounds: kernel.route_rounds() as u64,
                    cx_pairs: kernel.cx_pair_count() as u64,
                    micro_ops: kernel.micro_op_count() as u64,
                },
                pns_obs::Event::VerticalLowered {
                    rounds: vertical.rounds() as u64,
                    compare_rounds: kernel.compare_rounds() as u64,
                    route_rounds: kernel.route_rounds() as u64,
                    word_ops: vertical.word_ops() as u64,
                    lanes: WORD_LANES as u64,
                },
            ],
            "the second request is a hit and stays silent"
        );
    }
}
