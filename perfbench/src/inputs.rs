//! Seeded inputs: key vectors and open-loop arrival schedules. Every
//! input the program sees is generated here from the run's `--seed`.

pub use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// A stream determined by `seed` and a list of labels (workload,
/// phase, call index, ...), so distinct uses never share keys.
#[must_use]
pub fn stream(seed: u64, labels: &[u64]) -> StdRng {
    let mixed = labels
        .iter()
        .fold(seed, |h, &l| StdRng::seed_from_u64(h).next_u64() ^ l);
    StdRng::seed_from_u64(mixed)
}

/// A uniform draw from `[0, 1)`.
fn unit(rng: &mut StdRng) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

/// `n` seeded `u64` keys.
#[must_use]
pub fn keys(rng: &mut StdRng, n: usize) -> Vec<u64> {
    (0..n).map(|_| rng.next_u64()).collect()
}

/// Due times (nanoseconds from the phase start) of a Poisson arrival
/// process at `rate_per_s`, up to `span_ns` but at least `min_count`.
#[must_use]
pub fn poisson_schedule(
    rng: &mut StdRng,
    rate_per_s: f64,
    span_ns: u64,
    min_count: usize,
) -> Vec<u64> {
    let mut due = Vec::new();
    let mut t = 0.0f64;
    let span = span_ns as f64;
    loop {
        t += -(1.0 - unit(rng)).ln() / rate_per_s * 1e9;
        if t >= span && due.len() >= min_count {
            return due;
        }
        due.push(t as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_distinct_labels_differ() {
        let a = keys(&mut stream(7, &[1, 2]), 32);
        assert_eq!(a, keys(&mut stream(7, &[1, 2]), 32));
        assert_ne!(a, keys(&mut stream(7, &[1, 3]), 32));
        assert_ne!(a, keys(&mut stream(8, &[1, 2]), 32));
        assert_ne!(a, keys(&mut stream(7, &[2, 1]), 32));
    }

    #[test]
    fn poisson_rate_is_roughly_right() {
        let due = poisson_schedule(&mut stream(3, &[]), 1000.0, 10_000_000_000, 0);
        assert_eq!(poisson_schedule(&mut stream(3, &[]), 1.0, 1, 5).len(), 5);
        assert!((9_000..11_000).contains(&due.len()), "{}", due.len());
        assert!(due.windows(2).all(|w| w[0] <= w[1]));
    }
}
