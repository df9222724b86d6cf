//! Executable `PG_2` sorters as comparator programs.
//!
//! A *program* is a sequence of synchronous rounds; each round is a set of
//! disjoint comparators `(p, q)` over forward-snake positions `0 … N²-1`
//! with `p < q`: ascending execution leaves the minimum at `p`. Programs
//! are *oblivious*, so the zero-one principle applies and small programs
//! are verified exhaustively in tests.
//!
//! A comparator compares positions whose nodes differ in exactly one
//! product dimension; the executed engine derives the factor-label pairs
//! per round to decide whether the round is a single compare-exchange step
//! (adjacent labels) or a routed exchange (non-adjacent labels — the
//! Section 4 "permutation routing within G" case).

use pns_core::netbuild::{BaseNetwork, BatcherBase, PeriodicBalancedBase};
use pns_order::snake::{snake2_rank, snake2_unrank};
use pns_order::Direction;

/// One synchronous round of disjoint comparators over snake positions.
pub type Round = Vec<(u32, u32)>;

/// An oblivious sorting program for the `N²` keys of a `PG_2` subgraph,
/// sorting into forward snake order.
pub trait Pg2Sorter: Send + Sync {
    /// Display name.
    fn name(&self) -> &'static str;

    /// Cache identity. Unlike [`name`](Self::name) this must distinguish
    /// *parameterized* variants of the same construction: two sorters
    /// whose `id` strings are equal must produce identical programs for
    /// every `n`, because `ProgramCache` keys compiled programs on it.
    fn id(&self) -> String {
        self.name().to_owned()
    }

    /// Whether this sorter can produce a program for factor size `n`.
    /// Specialized constructions (e.g. the 3-step hypercube sorter)
    /// override this; the auto-selector only scores supported sorters.
    fn supports(&self, n: usize) -> bool {
        n >= 2
    }

    /// The comparator program for factor size `n`.
    ///
    /// Every comparator `(p, q)` must have `p < q`, each round's
    /// comparators must be disjoint, and the two nodes at snake positions
    /// `p` and `q` must differ in exactly one of the two product
    /// coordinates (so the executed engine can realize or route it).
    fn program(&self, n: usize) -> Vec<Round>;
}

/// Odd-even transposition sort along the snake sequence: `N²` rounds of
/// alternating-parity adjacent comparators. Works on any factor whose
/// labels follow a Hamiltonian path (then every comparator is an edge);
/// simple, and the natural executable counterpart of the paper's
/// linear-array reasoning.
#[derive(Debug, Clone, Copy, Default)]
pub struct OetSnakeSorter;

impl Pg2Sorter for OetSnakeSorter {
    fn name(&self) -> &'static str {
        "oet-snake"
    }

    fn program(&self, n: usize) -> Vec<Round> {
        let len = (n * n) as u32;
        (0..len)
            .map(|round| {
                let parity = round % 2;
                (parity..len.saturating_sub(1))
                    .step_by(2)
                    .map(|p| (p, p + 1))
                    .collect()
            })
            .collect()
    }
}

/// Shearsort on the `N×N` mesh, sorting into snake order:
/// `⌈log₂ N⌉` iterations of (row phase, column phase) plus a final row
/// phase, each phase an `N`-round odd-even transposition sort. Exactly
/// `N·(2⌈log₂ N⌉ + 1)` rounds. Rows in snake-position space are
/// consecutive blocks of `N` positions (the boustrophedon is already baked
/// into snake ranks), columns connect equal `x_1` across adjacent `x_2`.
#[derive(Debug, Clone, Copy, Default)]
pub struct ShearSorter;

impl ShearSorter {
    fn row_phase(n: usize, out: &mut Vec<Round>) {
        let n32 = n as u32;
        for r in 0..n32 {
            let parity = r % 2;
            let mut round = Vec::new();
            for row in 0..n32 {
                let base = row * n32;
                let mut j = parity;
                while j + 1 < n32 {
                    round.push((base + j, base + j + 1));
                    j += 2;
                }
            }
            out.push(round);
        }
    }

    fn col_phase(n: usize, out: &mut Vec<Round>) {
        let n32 = n as u32;
        for r in 0..n32 {
            let parity = r % 2;
            let mut round = Vec::new();
            for x1 in 0..n {
                let mut x2 = parity as usize;
                while x2 + 1 < n {
                    let p = snake2_rank(n, x1, x2) as u32;
                    let q = snake2_rank(n, x1, x2 + 1) as u32;
                    round.push((p.min(q), p.max(q)));
                    x2 += 2;
                }
            }
            out.push(round);
        }
    }
}

impl Pg2Sorter for ShearSorter {
    fn name(&self) -> &'static str {
        "shearsort"
    }

    fn program(&self, n: usize) -> Vec<Round> {
        let phases = usize::BITS - (n - 1).leading_zeros(); // ⌈log₂ n⌉
        let mut out = Vec::new();
        for _ in 0..phases.max(1) {
            Self::row_phase(n, &mut out);
            Self::col_phase(n, &mut out);
        }
        Self::row_phase(n, &mut out);
        out
    }
}

/// Emit one *row phase*: sort every row of the `N×N` mesh with `net`'s
/// comparator rounds over local indices. Row `j` occupies the contiguous
/// snake ranks `[jN, (j+1)N)` and rank order already bakes in the
/// boustrophedon, so sorting ascending-by-rank is exactly the alternating
/// left-to-right / right-to-left row sweep shearsort needs.
fn net_row_phase(n: usize, net: &dyn BaseNetwork, out: &mut Vec<Round>) {
    let n32 = n as u32;
    for local in net.rounds(n) {
        let mut round = Round::new();
        for row in 0..n32 {
            let base = row * n32;
            round.extend(local.iter().map(|&(i, j)| (base + i, base + j)));
        }
        out.push(round);
    }
}

/// Emit one *column phase*: sort every column ascending in `x₂` with
/// `net`'s rounds. `snake2_rank(n, x1, ·)` is monotone in `x₂` for fixed
/// `x₁`, so mapping local index `t` to that rank keeps comparators
/// ordered; both endpoints share `x₁`, so every comparator stays
/// axis-aligned (possibly non-adjacent — the executed engine routes it).
fn net_col_phase(n: usize, net: &dyn BaseNetwork, out: &mut Vec<Round>) {
    for local in net.rounds(n) {
        let mut round = Round::new();
        for x1 in 0..n {
            round.extend(local.iter().map(|&(i, j)| {
                let p = snake2_rank(n, x1, i as usize) as u32;
                let q = snake2_rank(n, x1, j as usize) as u32;
                (p, q)
            }));
        }
        out.push(round);
    }
}

/// The shear schedule with a pluggable full-sort phase network:
/// `⌈log₂ N⌉` iterations of (row phase, column phase) plus a final row
/// phase. Shearsort's correctness proof only needs each phase to *sort*
/// its rows/columns — it never looks inside the phase — so any sorting
/// network slots in.
fn shear_schedule(n: usize, net: &dyn BaseNetwork) -> Vec<Round> {
    let phases = (usize::BITS - (n - 1).leading_zeros()).max(1);
    let mut out = Vec::new();
    for _ in 0..phases {
        net_row_phase(n, net, &mut out);
        net_col_phase(n, net, &mut out);
    }
    net_row_phase(n, net, &mut out);
    out
}

/// The enhanced multiway n-sorter construction (Shi/Yan/Wagh,
/// arXiv 1407.0961): compose full `N`-key sorters — here Batcher's
/// odd-even merge networks, pruned to arbitrary `N` — as the row/column
/// phases of the shear schedule. Depth `(2⌈lg N⌉+1)·D_B(N)` versus the
/// OET snake's `N²`: 15 vs 16 rounds at `N=4`, 42 vs 64 at `N=8`,
/// 90 vs 256 at `N=16`. Comparators span whole rows/columns, so on
/// factors without all-pairs edges the engine routes them; the
/// auto-selector weighs that cost per shape.
#[derive(Debug, Clone, Copy, Default)]
pub struct MultiwayNSorter;

impl Pg2Sorter for MultiwayNSorter {
    fn name(&self) -> &'static str {
        "multiway-nsorter"
    }

    fn program(&self, n: usize) -> Vec<Round> {
        shear_schedule(n, &BatcherBase)
    }
}

/// Constant-periodic phases in the spirit of Piotrów's periodic merging
/// networks (arXiv 1401.0396 / 1409.1749): each shear phase is the
/// Dowd–Perl–Rudolph–Saks balanced block — one fixed `⌈lg N⌉`-level
/// wiring — replayed `⌈lg N⌉ (+ extra)` times. The whole `PG_2` program
/// therefore cycles through a tiny set of distinct round shapes, which is
/// the property that makes periodic programs ideal compile targets.
/// Depth `(2⌈lg N⌉+1)·⌈lg N⌉²(1 + extra/⌈lg N⌉)`: beats the OET snake
/// once `N ≥ 8` (63 vs 64 rounds, 144 vs 256 at `N=16`).
#[derive(Debug, Clone, Copy, Default)]
pub struct PeriodicMergeSorter {
    /// Extra block replays per phase beyond the `⌈lg N⌉` required —
    /// harmless for correctness (sorted rows/columns are fixed points of
    /// the block) but a genuinely different program, so it must get a
    /// distinct cache [`id`](Pg2Sorter::id).
    pub extra_blocks: usize,
}

impl PeriodicMergeSorter {
    /// The parameterized variant with `extra` additional block replays
    /// per phase.
    #[must_use]
    pub fn with_extra_blocks(extra: usize) -> Self {
        PeriodicMergeSorter {
            extra_blocks: extra,
        }
    }
}

impl Pg2Sorter for PeriodicMergeSorter {
    fn name(&self) -> &'static str {
        "periodic-merge"
    }

    fn id(&self) -> String {
        if self.extra_blocks == 0 {
            self.name().to_owned()
        } else {
            format!("{}+b{}", self.name(), self.extra_blocks)
        }
    }

    fn program(&self, n: usize) -> Vec<Round> {
        let base = PeriodicBalancedBase {
            extra_blocks: self.extra_blocks,
        };
        shear_schedule(n, &base)
    }
}

/// The 3-step snake sorter for the two-dimensional hypercube (`N = 2`,
/// Section 5.3: "It is not hard to sort in snake order on the
/// two-dimensional hypercube in three steps"). The 4-node `PG_2` of `K_2`
/// is a 4-cycle; snake positions `0,1,2,3` sit at labels `00, 01, 11, 10`,
/// and the three rounds use only cycle edges:
/// dimension-1 pairs, dimension-2 pairs, dimension-1 pairs.
#[derive(Debug, Clone, Copy, Default)]
pub struct Hypercube2Sorter;

impl Pg2Sorter for Hypercube2Sorter {
    fn name(&self) -> &'static str {
        "hypercube-3step"
    }

    fn supports(&self, n: usize) -> bool {
        n == 2
    }

    fn program(&self, n: usize) -> Vec<Round> {
        assert_eq!(n, 2, "the 3-step sorter is specific to N = 2");
        vec![
            vec![(0, 1), (2, 3)], // labels (00,01) and (11,10): dim-1 edges
            vec![(0, 3), (1, 2)], // labels (00,10) and (01,11): dim-2 edges
            vec![(0, 1), (2, 3)],
        ]
    }
}

/// Apply a program to `keys` (indexed by snake position) in the given
/// direction. Descending execution flips every comparator.
pub fn run_program<K: Ord>(keys: &mut [K], program: &[Round], dir: Direction) {
    for round in program {
        for &(p, q) in round {
            let (p, q) = (p as usize, q as usize);
            let out_of_order = match dir {
                Direction::Ascending => keys[p] > keys[q],
                Direction::Descending => keys[p] < keys[q],
            };
            if out_of_order {
                keys.swap(p, q);
            }
        }
    }
}

/// Structural validation of a program: comparators ordered and in range,
/// rounds disjoint, and each comparator's endpoints differ in exactly one
/// of the two `PG_2` coordinates.
///
/// # Panics
///
/// Panics with a description of the first violation.
pub fn validate_program(n: usize, program: &[Round]) {
    let len = (n * n) as u32;
    for (i, round) in program.iter().enumerate() {
        let mut used = vec![false; len as usize];
        for &(p, q) in round {
            assert!(p < q, "round {i}: comparator ({p},{q}) not ordered");
            assert!(q < len, "round {i}: position {q} out of range");
            for v in [p, q] {
                assert!(!used[v as usize], "round {i}: position {v} reused");
                used[v as usize] = true;
            }
            let (a1, a2) = snake2_unrank(n, p as u64);
            let (b1, b2) = snake2_unrank(n, q as u64);
            let diffs = usize::from(a1 != b1) + usize::from(a2 != b2);
            assert_eq!(
                diffs, 1,
                "round {i}: comparator ({p},{q}) spans both dimensions"
            );
        }
    }
}

/// Exhaustive zero-one check that the program sorts (feasible for
/// `N ≤ 4`, i.e. up to 2^16 inputs).
#[must_use]
pub fn program_sorts_all_zero_one(n: usize, program: &[Round]) -> bool {
    let len = n * n;
    assert!(len <= 20, "exhaustive check is for small N");
    for mask in 0u32..(1 << len) {
        let mut keys: Vec<u8> = (0..len).map(|i| ((mask >> i) & 1) as u8).collect();
        run_program(&mut keys, program, Direction::Ascending);
        if !keys.windows(2).all(|w| w[0] <= w[1]) {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oet_snake_is_valid_and_sorts() {
        for n in 2..=4 {
            let p = OetSnakeSorter.program(n);
            assert_eq!(p.len(), n * n);
            validate_program(n, &p);
            assert!(program_sorts_all_zero_one(n, &p), "n={n}");
        }
    }

    #[test]
    fn shearsort_is_valid_and_sorts() {
        for n in 2..=4 {
            let p = ShearSorter.program(n);
            let phases = usize::BITS as usize - (n - 1).leading_zeros() as usize;
            assert_eq!(p.len(), n * (2 * phases.max(1) + 1));
            validate_program(n, &p);
            assert!(program_sorts_all_zero_one(n, &p), "n={n}");
        }
    }

    #[test]
    fn shearsort_sorts_random_permutations_for_larger_n() {
        // Beyond exhaustive range: permutations, checked against std sort.
        for n in [5usize, 8, 9] {
            let prog = ShearSorter.program(n);
            validate_program(n, &prog);
            let len = n * n;
            let mut state: u64 = 0x9E3779B97F4A7C15;
            for _ in 0..20 {
                let mut keys: Vec<u64> = (0..len as u64)
                    .map(|i| {
                        state = state.wrapping_mul(6364136223846793005).wrapping_add(i);
                        state >> 33
                    })
                    .collect();
                let mut expect = keys.clone();
                expect.sort_unstable();
                run_program(&mut keys, &prog, Direction::Ascending);
                assert_eq!(keys, expect, "n={n}");
            }
        }
    }

    #[test]
    fn multiway_nsorter_is_valid_and_sorts() {
        for n in 2..=4 {
            let p = MultiwayNSorter.program(n);
            validate_program(n, &p);
            assert!(program_sorts_all_zero_one(n, &p), "n={n}");
        }
    }

    #[test]
    fn periodic_merge_is_valid_and_sorts() {
        for n in 2..=4 {
            for extra in [0usize, 1] {
                let p = PeriodicMergeSorter::with_extra_blocks(extra).program(n);
                validate_program(n, &p);
                assert!(program_sorts_all_zero_one(n, &p), "n={n} extra={extra}");
            }
        }
    }

    #[test]
    fn new_sorters_sort_random_permutations_for_larger_n() {
        // N = 7 and 10 are the factor sizes of the mesh-connected tree
        // and the Petersen square. Without its last round the multiway
        // program leaves 6 of these 128 trials unsorted at N = 10, the
        // first at trial 19, and 47 at N = 7.
        for n in [5usize, 7, 8, 9, 10, 16] {
            for sorter in [
                &MultiwayNSorter as &dyn Pg2Sorter,
                &PeriodicMergeSorter { extra_blocks: 0 },
                &PeriodicMergeSorter { extra_blocks: 1 },
            ] {
                let prog = sorter.program(n);
                validate_program(n, &prog);
                let len = n * n;
                let mut state: u64 = 0x243F6A8885A308D3;
                for _ in 0..128 {
                    let mut keys: Vec<u64> = (0..len as u64)
                        .map(|i| {
                            state = state.wrapping_mul(6364136223846793005).wrapping_add(i);
                            state >> 33
                        })
                        .collect();
                    let mut expect = keys.clone();
                    expect.sort_unstable();
                    run_program(&mut keys, &prog, Direction::Ascending);
                    assert_eq!(keys, expect, "n={n} sorter={}", sorter.name());
                }
            }
        }
    }

    #[test]
    fn multiway_nsorter_depth_beats_oet_at_practical_widths() {
        // (2⌈lg N⌉+1)·D_B(N) versus N².
        for (n, depth) in [(4usize, 15usize), (8, 42), (16, 90)] {
            let p = MultiwayNSorter.program(n);
            assert_eq!(p.len(), depth, "n={n}");
            assert!(p.len() < OetSnakeSorter.program(n).len());
        }
        // Size also drops at N=4: 100 comparators vs the OET snake's 120.
        let size = |prog: &[Round]| prog.iter().map(Vec::len).sum::<usize>();
        assert!(size(&MultiwayNSorter.program(4)) < size(&OetSnakeSorter.program(4)));
    }

    #[test]
    fn periodic_merge_depth_beats_oet_from_n8() {
        for (n, depth) in [(8usize, 63usize), (16, 144)] {
            let p = PeriodicMergeSorter::default().program(n);
            assert_eq!(p.len(), depth, "n={n}");
            assert!(p.len() < OetSnakeSorter.program(n).len());
        }
    }

    #[test]
    fn periodic_merge_phases_replay_a_fixed_block() {
        // Constant-periodicity surfaced at the PG_2 level: the program
        // cycles through at most 2·⌈lg N⌉ distinct round shapes (one
        // block's worth per axis).
        let n = 8usize;
        let k = 3usize; // ⌈lg 8⌉
        let prog = PeriodicMergeSorter::default().program(n);
        let mut distinct: Vec<&Round> = Vec::new();
        for round in &prog {
            if !distinct.contains(&round) {
                distinct.push(round);
            }
        }
        assert_eq!(distinct.len(), 2 * k);
    }

    #[test]
    fn sorter_ids_distinguish_parameterized_variants() {
        assert_eq!(MultiwayNSorter.id(), "multiway-nsorter");
        assert_eq!(PeriodicMergeSorter::default().id(), "periodic-merge");
        let tuned = PeriodicMergeSorter::with_extra_blocks(2);
        assert_eq!(tuned.name(), "periodic-merge");
        assert_eq!(tuned.id(), "periodic-merge+b2");
        assert_ne!(tuned.id(), PeriodicMergeSorter::default().id());
    }

    #[test]
    fn supports_gates_specialized_sorters() {
        assert!(Hypercube2Sorter.supports(2));
        assert!(!Hypercube2Sorter.supports(3));
        for n in 2..=16 {
            assert!(MultiwayNSorter.supports(n));
            assert!(PeriodicMergeSorter::default().supports(n));
            assert!(OetSnakeSorter.supports(n));
            assert!(ShearSorter.supports(n));
        }
    }

    #[test]
    fn hypercube_3step_sorts_exhaustively() {
        let p = Hypercube2Sorter.program(2);
        assert_eq!(p.len(), 3);
        validate_program(2, &p);
        assert!(program_sorts_all_zero_one(2, &p));
        // Also over all 4! permutations.
        let perms = [
            [0, 1, 2, 3],
            [0, 1, 3, 2],
            [0, 2, 1, 3],
            [0, 2, 3, 1],
            [0, 3, 1, 2],
            [0, 3, 2, 1],
            [1, 0, 2, 3],
            [1, 0, 3, 2],
            [1, 2, 0, 3],
            [1, 2, 3, 0],
            [1, 3, 0, 2],
            [1, 3, 2, 0],
            [2, 0, 1, 3],
            [2, 0, 3, 1],
            [2, 1, 0, 3],
            [2, 1, 3, 0],
            [2, 3, 0, 1],
            [2, 3, 1, 0],
            [3, 0, 1, 2],
            [3, 0, 2, 1],
            [3, 1, 0, 2],
            [3, 1, 2, 0],
            [3, 2, 0, 1],
            [3, 2, 1, 0],
        ];
        for perm in perms {
            let mut keys = perm.to_vec();
            run_program(&mut keys, &p, Direction::Ascending);
            assert_eq!(keys, vec![0, 1, 2, 3], "input {perm:?}");
        }
    }

    #[test]
    fn descending_execution_reverses() {
        let prog = ShearSorter.program(3);
        let mut keys: Vec<u32> = vec![4, 7, 1, 0, 8, 3, 2, 6, 5];
        run_program(&mut keys, &prog, Direction::Descending);
        assert_eq!(keys, vec![8, 7, 6, 5, 4, 3, 2, 1, 0]);
    }

    #[test]
    #[should_panic(expected = "specific to N = 2")]
    fn hypercube_sorter_rejects_other_n() {
        let _ = Hypercube2Sorter.program(3);
    }

    #[test]
    #[should_panic(expected = "spans both dimensions")]
    fn validate_rejects_diagonal_comparators() {
        // Positions 0 (0,0) and 3 (2,... for n=2: pos 3 is (0,1)? snake2:
        // pos 3 = (x1=0, x2=1)… use n=3: pos 0=(0,0), pos 4=(1,1) diagonal.
        validate_program(3, &[vec![(0, 4)]]);
    }

    #[test]
    #[should_panic(expected = "reused")]
    fn validate_rejects_overlapping_comparators() {
        validate_program(2, &[vec![(0, 1), (1, 2)]]);
    }
}
