//! Which clean compare-exchanges can never swap: the 0/1 principle,
//! applied one certified merge level at a time.
//!
//! A compiled program certifies the paper's inter-stage invariant at
//! each stage boundary: after level `k`, every `k`-subgraph (a block of
//! `N^k` consecutive ranks) is snake-sorted. So level `k`'s input is
//! `N` snake-sorted `(k-1)`-subgraphs per `k`-subgraph, and its 0/1
//! inputs are one zero count per `(k-1)`-subgraph: the `(m+1)^N` space,
//! `m = N^(k-1)`, that `pns_core::zero_one::exhaustive_merge_check`
//! enumerates. The base level (the rounds before the dims-2
//! certificate) takes every 0/1 vector of one `PG_2`.
//!
//! A compare-exchange is *idle* when no input of its level's space
//! shows it a strictly out-of-order pair. Comparator networks commute
//! with thresholds, so if a compare-exchange met `x > y` on some input,
//! the threshold at `x` would show it `(1, 0)` on an allowed 0/1 input.
//! An idle compare-exchange therefore never swaps on any input that
//! satisfies its level's invariant, whatever the key type (a
//! compare-exchange swaps only a strictly out-of-order pair), and
//! deleting it changes no output. Lemma 1's dirty window made exact:
//! outside it, the merge's later rounds find the data in order.
//!
//! [`prune`] analyses the kernel's full run table (paired relays count
//! as the compare-exchanges they compute), level by level, and stops at
//! the first level that breaks one of these conditions; that level and
//! every later one stay whole:
//!
//! * the certificate chain runs `2, 3, …` with no gap (a program without
//!   certificate points is never pruned);
//! * every pair of level `k` lies inside one `k`-subgraph, and round by
//!   round every `k`-subgraph's pairs are the translate of subgraph 0's,
//!   checked exactly through a node-indexed partner table;
//! * the level fits the lane type and what is left of the budget, in
//!   lane-operations (lanes × subgraph 0's pairs, plus one per lane),
//!   checked before the level runs;
//! * every lane ends the level snake-sorted in its `k`-subgraph: the
//!   analysis proves the certificate it relies on, so a program whose
//!   certificate is false stops being pruned there.
//!
//! Lanes hold `i16` keys in node-major blocks of about 1 MiB, and one
//! plain loop (SSE2 min/max in release builds) runs subgraph 0's pairs
//! over them. The base level's lanes are the `2^(N²)` 0/1 vectors. A
//! level `k ≥ 3` has `(m+1)^(N-1)` lanes: its first `N-1`
//! `(k-1)`-subgraphs each hold a snake-sorted pattern of `0`s and
//! `(m+1)`s for one zero count, and the last holds the ranks `1..=m` in
//! snake order, so every allowed 0/1 input is a threshold of some lane,
//! and a pair is active exactly when some lane sees it strictly out of
//! order.

use std::ops::Range;

use pns_order::radix::{pow, Shape};
use pns_order::snake::node_at_snake_pos;

use crate::bsp::CertPoint;
use crate::kernel::{Run, RunBuilder, RunTable};

/// Lane-operations the analysis may spend per op of the source program.
/// On `K2^14` its levels 2–11 cost 18.8 per op and level 12 would add 66
/// more, so every constant from 19 to 85 prunes exactly levels 2–11
/// there; the star shapes' base levels stay out of reach.
pub(crate) const BUDGET_PER_OP: u64 = 32;

/// Bytes of one block of analysis lanes, about half an L2, like the
/// column tier's blocks.
const BLOCK_BYTES: usize = 1 << 20;

/// Lanes a block's width is padded to a multiple of, so the vectorized
/// exchange loop (eight `i16`s to an SSE2 register) needs no scalar
/// tail.
const LANE_ALIGN: usize = 16;

/// One analysed level: subgraph 0's compare-exchanges round by round,
/// and which of them some lane saw strictly out of order.
struct Level {
    rounds: Range<usize>,
    /// Nodes per `k`-subgraph, `N^k`.
    sub_len: u32,
    /// Subgraph 0's pairs, minimum to the first node, in table order.
    pairs: Vec<(u32, u32)>,
    /// Where each round's pairs end in `pairs`.
    ends: Vec<usize>,
    active: Vec<bool>,
}

/// Analyse `full`'s certified levels within `budget` lane-operations.
/// Returns the table without the idle compare-exchanges (`None` when
/// none is idle) and the highest level proved (0 for none).
pub(crate) fn prune(
    shape: Shape,
    full: &RunTable,
    certs: &[CertPoint],
    mut budget: u64,
) -> (Option<RunTable>, u32) {
    let mut levels: Vec<Level> = Vec::new();
    let mut start = 0;
    for (k, cert) in (2..).zip(certs) {
        let end = cert.round as usize;
        if cert.dims as usize != k || k > shape.r() || end < start || end > full.rounds() {
            break;
        }
        let Some(level) = analyse(shape, full, start..end, k, &mut budget) else {
            break;
        };
        levels.push(level);
        start = end;
    }
    let level = match levels.len() {
        0 => 0,
        proved => proved as u32 + 1,
    };
    let idle = levels.iter().any(|l| l.active.contains(&false));
    let pruned = idle.then(|| without_idle(shape, full, &levels));
    (pruned, level)
}

/// Level `k`, the rounds `rounds`: `None` if it breaks a condition.
fn analyse(
    shape: Shape,
    full: &RunTable,
    rounds: Range<usize>,
    k: usize,
    budget: &mut u64,
) -> Option<Level> {
    let n = shape.n();
    let lanes = lane_count(n, k)?;
    let sub_len = pow(n, k) as usize;
    let subgraphs = shape.len() / sub_len as u64;
    // Refused before any work: subgraph 0's share of the level's pairs,
    // plus one per lane for its fill and check, so that an empty level
    // cannot ask for unbounded lanes.
    let level_pairs: u64 = rounds
        .clone()
        .flat_map(|ri| full.round(ri))
        .map(|run| u64::from(run.len))
        .sum();
    let cost = lanes.checked_mul(level_pairs / subgraphs + 1)?;
    if cost > *budget {
        return None;
    }
    let mut level = subgraph_pairs(full, rounds, sub_len as u32, subgraphs)?;
    *budget -= cost;
    level.active = run_lanes(shape, k, lanes as usize, &level.pairs)?;
    Some(level)
}

/// Lanes of level `k` on a factor of `n` nodes, if they fit a `u64`
/// count and their keys an `i16`.
fn lane_count(n: usize, k: usize) -> Option<u64> {
    if k == 2 {
        return 1u64.checked_shl(u32::try_from(n * n).ok()?);
    }
    let m = pow(n, k - 1);
    if m >= i16::MAX as u64 {
        return None;
    }
    (m + 1).checked_pow(u32::try_from(n - 1).ok()?)
}

/// Cut `runs` at `k`-subgraph boundaries and hand each piece to `f` as
/// `(s, a0, b0, len)`: the pairs `(s·L + a0 + i, s·L + b0 + i)`,
/// `i < len`, with `L = sub_len`. `None` when a pair leaves its
/// subgraph.
fn pieces<'r>(
    runs: impl IntoIterator<Item = &'r Run>,
    sub_len: u32,
    mut f: impl FnMut(u32, u32, u32, u32),
) -> Option<()> {
    for run in runs {
        let (mut a, mut b, mut len) = (run.a, run.b, run.len);
        while len > 0 {
            let s = a / sub_len;
            let base = s * sub_len;
            let take = len.min(base + sub_len - a);
            if b < base || b + take > base + sub_len {
                return None;
            }
            f(s, a - base, b - base, take);
            (a, b, len) = (a + take, b + take, len - take);
        }
    }
    Some(())
}

/// The level of the rounds `rounds`, with subgraph 0's pairs and none
/// yet marked active, if every pair lies inside one `k`-subgraph and
/// every subgraph's pairs are the translate of subgraph 0's.
///
/// A validated round touches each node at most once, so the pairs of
/// subgraph `s` map one to one onto subgraph 0's through the partner
/// table; `subgraphs` times subgraph 0's count then makes it onto.
fn subgraph_pairs(
    full: &RunTable,
    rounds: Range<usize>,
    sub_len: u32,
    subgraphs: u64,
) -> Option<Level> {
    // Per node of subgraph 0: the round stamp of its pair in the high
    // half, its partner in the low one.
    let mut partner: Vec<u64> = vec![0; sub_len as usize];
    let mut pairs = Vec::new();
    let mut ends = Vec::with_capacity(rounds.len());
    for (stamp, ri) in (1u32..).zip(rounds.clone()) {
        let runs = full.round(ri);
        let first = pairs.len();
        let stamped = |b0: u32| u64::from(stamp) << 32 | u64::from(b0);
        // Runs only ascend, so subgraph 0's pairs open runs below
        // `sub_len`.
        let low = runs.iter().filter(|run| run.a < sub_len);
        pieces(low, sub_len, |s, a0, b0, len| {
            if s == 0 {
                for i in 0..len {
                    partner[(a0 + i) as usize] = stamped(b0 + i);
                    pairs.push((a0 + i, b0 + i));
                }
            }
        })?;
        // Any difference from subgraph 0's partner survives the OR.
        let (mut others, mut differs) = (0u64, 0u64);
        pieces(runs, sub_len, |s, a0, b0, len| {
            if s != 0 {
                others += u64::from(len);
                let want = stamped(b0);
                for (i, &got) in partner[a0 as usize..(a0 + len) as usize].iter().enumerate() {
                    differs |= got ^ (want + i as u64);
                }
            }
        })?;
        if differs != 0 || others != (pairs.len() - first) as u64 * (subgraphs - 1) {
            return None;
        }
        ends.push(pairs.len());
    }
    Some(Level {
        rounds,
        sub_len,
        pairs,
        ends,
        active: Vec::new(),
    })
}

/// Run `pairs` over every lane of level `k`, one block of lanes at a
/// time. Returns which pairs some lane saw strictly out of order, or
/// `None` if some lane did not end snake-sorted in its `k`-subgraph.
fn run_lanes(shape: Shape, k: usize, lanes: usize, pairs: &[(u32, u32)]) -> Option<Vec<bool>> {
    let n = shape.n();
    let (sub, prev) = (shape.sub(k), shape.sub(k - 1));
    let snake: Vec<usize> = (0..sub.len())
        .map(|p| node_at_snake_pos(sub, p) as usize)
        .collect();
    let prev_snake: Vec<usize> = (0..prev.len())
        .map(|p| node_at_snake_pos(prev, p) as usize)
        .collect();
    let sub_len = snake.len();
    let cap = (BLOCK_BYTES / (2 * sub_len)).max(1);
    let width = lanes.div_ceil(lanes.div_ceil(cap));
    // Padding lanes stay all zero: sorted, and never out of order.
    let w = width.next_multiple_of(LANE_ALIGN);
    let mut cols = vec![0i16; sub_len * w];
    let mut active = vec![false; pairs.len()];
    for first in (0..lanes).step_by(width) {
        cols.fill(0);
        for (j, lane) in (first..lanes.min(first + width)).enumerate() {
            if k == 2 {
                for (v, col) in cols.chunks_exact_mut(w).enumerate() {
                    col[j] = ((lane >> v) & 1) as i16;
                }
            } else {
                fill_merge_lane(&mut cols, w, j, lane, n, &prev_snake);
            }
        }
        for (&(a, b), hit) in pairs.iter().zip(&mut active) {
            let (xs, ys) = columns(&mut cols, a as usize, b as usize, w);
            *hit |= exchange(xs, ys);
        }
        let sorted = snake.windows(2).all(|pq| {
            let (p, q) = (pq[0] * w, pq[1] * w);
            cols[p..p + w]
                .iter()
                .zip(&cols[q..q + w])
                .all(|(x, y)| x <= y)
        });
        if !sorted {
            return None;
        }
    }
    Some(active)
}

/// Write lane `lane` of a level `k ≥ 3` into column slot `j`: its digits
/// base `m + 1` are the zero counts of the first `n - 1`
/// `(k-1)`-subgraphs, filled in snake order with `0` and `m + 1`; the
/// last holds `1..=m` in snake order.
fn fill_merge_lane(cols: &mut [i16], w: usize, j: usize, lane: usize, n: usize, snake: &[usize]) {
    let m = snake.len();
    let mut code = lane;
    for g in 0..n {
        let zeros = code % (m + 1);
        code /= m + 1;
        for (p, &local) in snake.iter().enumerate() {
            let key = if g + 1 == n {
                p + 1
            } else if p < zeros {
                0
            } else {
                m + 1
            };
            cols[(g * m + local) * w + j] = key as i16;
        }
    }
}

/// The columns of nodes `a` and `b` (distinct), `w` lanes each.
fn columns(cols: &mut [i16], a: usize, b: usize, w: usize) -> (&mut [i16], &mut [i16]) {
    let (a, b) = (a * w, b * w);
    if a < b {
        let (lo, hi) = cols.split_at_mut(b);
        (&mut lo[a..a + w], &mut hi[..w])
    } else {
        let (lo, hi) = cols.split_at_mut(a);
        (&mut hi[..w], &mut lo[b..b + w])
    }
}

/// Compare-exchange two columns lane by lane, minimum to `xs`; whether
/// some lane was strictly out of order.
#[inline]
fn exchange(xs: &mut [i16], ys: &mut [i16]) -> bool {
    let mut moved = 0i16;
    for (x, y) in xs.iter_mut().zip(ys.iter_mut()) {
        let (p, q) = (*x, *y);
        let lo = p.min(q);
        moved |= p ^ lo;
        *x = lo;
        *y = p.max(q);
    }
    moved != 0
}

/// `full` with the idle pairs of `levels` dropped: each pruned round
/// rebuilt from its kept pairs into maximal runs, every later round
/// copied.
fn without_idle(shape: Shape, full: &RunTable, levels: &[Level]) -> RunTable {
    let mut table = RunTable::with_capacity(full.rounds(), full.runs.len());
    let mut builder = RunBuilder::new(shape.len() as usize);
    let widest = levels.last().map_or(0, |l| l.sub_len as usize);
    // Per node of subgraph 0: the round stamp while its pair is kept.
    let mut kept = vec![0u32; widest];
    let mut stamp = 0u32;
    for level in levels {
        let mut from = 0;
        for (ri, &to) in level.rounds.clone().zip(&level.ends) {
            let (pairs, active) = (&level.pairs[from..to], &level.active[from..to]);
            from = to;
            // Most rounds of a merge level are wholly idle or wholly
            // active; only the others are rebuilt pair by pair.
            if active.iter().all(|&hit| hit) {
                table.copy_round(full, ri);
                continue;
            }
            stamp += 1;
            for (&(a0, _), &hit) in pairs.iter().zip(active) {
                if hit {
                    kept[a0 as usize] = stamp;
                }
            }
            if active.contains(&true) {
                let sub_len = level.sub_len;
                pieces(full.round(ri), sub_len, |s, a0, b0, len| {
                    for i in 0..len {
                        if kept[(a0 + i) as usize] == stamp {
                            builder.push(s * sub_len + a0 + i, s * sub_len + b0 + i);
                        }
                    }
                })
                .expect("analysed: every pair lies inside its subgraph");
            }
            builder.flush(&mut table);
        }
    }
    for ri in table.rounds()..full.rounds() {
        table.copy_round(full, ri);
    }
    table.runs.shrink_to_fit();
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bsp::compile;
    use crate::kernel::{exec_table, Bits, KernelProgram};
    use crate::machine::Machine;
    use crate::select::SorterChoice;
    use pns_graph::factories;

    /// Level `k`'s 0/1 space on a factor of `n` nodes, one `N^k`-node
    /// vector per input: at the base level every 0/1 vector, above it
    /// every zero count of each `(k-1)`-subgraph, filled in its snake
    /// order.
    fn level_space(n: usize, k: usize) -> Vec<Vec<u64>> {
        let sub_len = pow(n, k) as usize;
        if k == 2 {
            return (0..1usize << sub_len)
                .map(|bits| (0..sub_len).map(|v| (bits >> v & 1) as u64).collect())
                .collect();
        }
        let prev = Shape::new(n, k - 1);
        let m = prev.len() as usize;
        (0..(m + 1).pow(n as u32))
            .map(|code| {
                let mut keys = vec![1; sub_len];
                for g in 0..n {
                    let zeros = code / (m + 1).pow(g as u32) % (m + 1);
                    for p in 0..zeros {
                        keys[g * m + node_at_snake_pos(prev, p as u64) as usize] = 0;
                    }
                }
                keys
            })
            .collect()
    }

    #[test]
    fn every_pruned_level_keeps_its_certificate_on_its_whole_zero_one_space() {
        for (factor, r) in [(factories::k2(), 8), (factories::path(3), 4)] {
            let factor = Machine::prepare_factor(&factor);
            let program = compile(&factor, r, SorterChoice::Auto.resolve(&factor));
            let kernel = KernelProgram::lower(&program);
            let (shape, kept) = (program.shape(), kernel.kept());
            assert!(
                kept.level >= 3 && kept.pairs < kernel.clean_cx_count(),
                "{kept:?}"
            );
            let mut start = 0;
            for cert in &program.cert_points()[..kept.level as usize - 1] {
                let (k, end) = (cert.dims as usize, cert.round as usize);
                let sub = shape.sub(k);
                let sub_len = sub.len() as usize;
                let space = level_space(shape.n(), k);
                // Every k-subgraph gets the same input, 64 inputs a word,
                // and the pruned table runs the level's rounds alone.
                for chunk in space.chunks(64) {
                    let mut words: Vec<u64> = (0..shape.len() as usize)
                        .map(|node| {
                            let local = node % sub_len;
                            (chunk.iter().enumerate()).fold(0, |w, (l, keys)| w | keys[local] << l)
                        })
                        .collect();
                    exec_table::<u64, Bits>(&mut words, kernel.clean(), start..end, 1);
                    for base in (0..shape.len()).step_by(sub_len) {
                        for p in 1..sub.len() {
                            let a = (base + node_at_snake_pos(sub, p - 1)) as usize;
                            let b = (base + node_at_snake_pos(sub, p)) as usize;
                            assert_eq!(
                                words[a] & !words[b],
                                0,
                                "{}^{r} level {k}: subgraph at {base} unsorted at position {p}",
                                factor.name()
                            );
                        }
                    }
                }
                start = end;
            }
        }
    }
}
