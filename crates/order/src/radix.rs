//! Plain (non-Gray) mixed-radix arithmetic on node labels.
//!
//! A node of the `r`-dimensional homogeneous product of an `N`-node factor
//! graph is an `r`-tuple `x_r x_{r-1} … x_1` over `{0, …, N-1}` (Definition 1
//! of the paper). We store such a label either as a digit slice
//! (`digits[i]` = symbol at dimension `i + 1`) or as its *rank*: the value of
//! the tuple read as a base-`N` number, `rank = Σ_i digits[i] · N^i`.
//!
//! The rank is how node identities are stored throughout the workspace: a
//! product network with `N^r` nodes uses ranks `0 … N^r - 1`.

/// The shape of a homogeneous product network: factor size `n` and dimension
/// count `r`.
///
/// `Shape` centralizes the `N^r` arithmetic (with overflow checking at
/// construction) and provides digit accessors used pervasively by the
/// algorithm and simulator crates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Shape {
    n: usize,
    r: usize,
    len: u64,
}

impl Shape {
    /// Create a shape for the `r`-dimensional product of an `n`-node factor.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`, `r == 0`, or `n^r` does not fit in `u64` (or
    /// exceeds `2^40`, a sanity cap far above anything simulable).
    #[must_use]
    pub fn new(n: usize, r: usize) -> Self {
        assert!(n >= 2, "factor graph must have at least 2 nodes (got {n})");
        assert!(r >= 1, "dimension count must be at least 1");
        let mut len: u64 = 1;
        for _ in 0..r {
            len = len
                .checked_mul(n as u64)
                .expect("n^r overflows u64; choose smaller n or r");
        }
        assert!(
            len <= 1 << 40,
            "n^r = {len} exceeds the 2^40 sanity cap; choose smaller n or r"
        );
        Shape { n, r, len }
    }

    /// Factor graph size `N`.
    #[inline]
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Dimension count `r`.
    #[inline]
    #[must_use]
    pub fn r(&self) -> usize {
        self.r
    }

    /// Total number of nodes, `N^r`.
    #[inline]
    #[must_use]
    pub fn len(&self) -> u64 {
        self.len
    }

    /// `true` iff the network has no nodes (never, by construction).
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// `N^i` for `0 ≤ i ≤ r`.
    #[inline]
    #[must_use]
    pub fn stride(&self, i: usize) -> u64 {
        debug_assert!(i <= self.r);
        pow(self.n, i)
    }

    /// Digit of `rank` at (0-based) dimension index `i`.
    #[inline]
    #[must_use]
    pub fn digit(&self, rank: u64, i: usize) -> usize {
        digit(self.n, rank, i)
    }

    /// Replace the digit of `rank` at dimension index `i` with `v`.
    #[inline]
    #[must_use]
    pub fn with_digit(&self, rank: u64, i: usize, v: usize) -> u64 {
        with_digit(self.n, rank, i, v)
    }

    /// Decompose `rank` into digits, least-significant dimension first.
    #[inline]
    #[must_use]
    pub fn unrank(&self, rank: u64) -> Vec<usize> {
        radix_unrank(self.n, self.r, rank)
    }

    /// Compose digits (least-significant dimension first) into a rank.
    #[inline]
    #[must_use]
    pub fn rank(&self, digits: &[usize]) -> u64 {
        debug_assert_eq!(digits.len(), self.r);
        radix_rank(self.n, digits)
    }

    /// Iterate over all node ranks.
    #[inline]
    pub fn ranks(&self) -> impl Iterator<Item = u64> {
        0..self.len
    }

    /// The shape of a `k`-dimensional sub-product (same factor).
    #[inline]
    #[must_use]
    pub fn sub(&self, k: usize) -> Shape {
        Shape::new(self.n, k)
    }
}

/// `n^e` as `u64`. Panics on overflow (debug and release).
#[inline]
#[must_use]
pub fn pow(n: usize, e: usize) -> u64 {
    u32::try_from(e)
        .ok()
        .and_then(|e| (n as u64).checked_pow(e))
        .expect("radix power overflow")
}

/// Digit of `rank` (base `n`) at 0-based position `i`.
#[inline]
#[must_use]
pub fn digit(n: usize, rank: u64, i: usize) -> usize {
    ((rank / pow(n, i)) % n as u64) as usize
}

/// Replace the digit of `rank` (base `n`) at position `i` with `v`.
#[inline]
#[must_use]
pub fn with_digit(n: usize, rank: u64, i: usize, v: usize) -> u64 {
    debug_assert!(v < n);
    let p = pow(n, i);
    let old = (rank / p) % n as u64;
    rank - old * p + v as u64 * p
}

/// Decompose `rank` into `r` base-`n` digits, least significant first.
#[must_use]
pub fn radix_unrank(n: usize, r: usize, rank: u64) -> Vec<usize> {
    let mut out = vec![0usize; r];
    radix_unrank_into(n, rank, &mut out);
    out
}

/// Decompose `rank` into base-`n` digits into `out` (length = `r`), least
/// significant first.
pub fn radix_unrank_into(n: usize, rank: u64, out: &mut [usize]) {
    let mut m = rank;
    for d in out.iter_mut() {
        *d = (m % n as u64) as usize;
        m /= n as u64;
    }
    debug_assert_eq!(m, 0, "rank has more digits than the provided buffer");
}

/// Compose base-`n` digits (least significant first) into a rank.
#[must_use]
pub fn radix_rank(n: usize, digits: &[usize]) -> u64 {
    let mut m: u64 = 0;
    for &d in digits.iter().rev() {
        debug_assert!(d < n);
        m = m * n as u64 + d as u64;
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_basics() {
        let s = Shape::new(3, 3);
        assert_eq!(s.n(), 3);
        assert_eq!(s.r(), 3);
        assert_eq!(s.len(), 27);
        assert_eq!(s.stride(0), 1);
        assert_eq!(s.stride(2), 9);
    }

    #[test]
    #[should_panic(expected = "at least 2 nodes")]
    fn shape_rejects_tiny_factor() {
        let _ = Shape::new(1, 3);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn shape_rejects_zero_dims() {
        let _ = Shape::new(3, 0);
    }

    #[test]
    fn digit_roundtrip() {
        let s = Shape::new(5, 4);
        for rank in s.ranks() {
            let ds = s.unrank(rank);
            assert_eq!(s.rank(&ds), rank);
            for (i, &d) in ds.iter().enumerate() {
                assert_eq!(s.digit(rank, i), d);
            }
        }
    }

    #[test]
    fn with_digit_replaces_exactly_one() {
        let s = Shape::new(4, 3);
        for rank in s.ranks() {
            for i in 0..3 {
                for v in 0..4 {
                    let new = s.with_digit(rank, i, v);
                    assert_eq!(s.digit(new, i), v);
                    for j in 0..3 {
                        if j != i {
                            assert_eq!(s.digit(new, j), s.digit(rank, j));
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn radix_rank_matches_positional_value() {
        // digits (1, 0, 2) base 3, least significant first: 2*9 + 0*3 + 1 = 19.
        assert_eq!(radix_rank(3, &[1, 0, 2]), 19);
        assert_eq!(radix_unrank(3, 3, 19), vec![1, 0, 2]);
    }

    #[test]
    fn pow_small_values() {
        assert_eq!(pow(2, 10), 1024);
        assert_eq!(pow(7, 0), 1);
        assert_eq!(pow(10, 3), 1000);
        assert_eq!(pow(2, 63), 1 << 63);
    }

    #[test]
    #[should_panic(expected = "radix power overflow")]
    fn pow_panics_on_overflow() {
        let _ = pow(2, 64);
    }
}
