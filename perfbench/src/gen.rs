//! Seeded workload inputs. Everything the program receives — rows,
//! model coefficients, keys — is generated here from the `--seed`
//! argument, so one seed always gives the same inputs.

use nlq_datagen::{MixtureGenerator, MixtureSpec, RegressionGenerator, RegressionSpec};
use nlq_storage::Value;

/// Sub-seed for one input stream of a run, so that changing the
/// generator of one stream leaves the others as they were.
pub fn subseed(seed: u64, stream: u64) -> u64 {
    let mut x = seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    x ^= x >> 31;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^ (x >> 29)
}

/// The paper's mixture data set (16 normals, 15 % uniform noise).
pub fn mixture_rows(n: usize, d: usize, seed: u64) -> Vec<Vec<f64>> {
    MixtureGenerator::new(MixtureSpec::paper_defaults(d).with_seed(seed)).generate(n)
}

/// The regression data set: rows `[X1..Xd, Y]`.
pub fn regression_rows(n: usize, d: usize, seed: u64) -> Vec<Vec<f64>> {
    RegressionGenerator::new(RegressionSpec::defaults(d).with_seed(seed)).generate_augmented(n)
}

/// A stream of fresh regression rows for ingest, keyed from `first_key`
/// upward: each row is `[i, X1..Xd, Y]`.
pub struct FreshRows {
    gen: RegressionGenerator,
    next_key: i64,
}

impl FreshRows {
    /// Rows of dimensionality `d` whose keys start at `first_key`.
    pub fn new(d: usize, first_key: i64, seed: u64) -> FreshRows {
        FreshRows {
            gen: RegressionGenerator::new(RegressionSpec::defaults(d).with_seed(seed)),
            next_key: first_key,
        }
    }

    /// The next `count` keyed rows.
    pub fn take(&mut self, count: usize) -> Vec<Vec<Value>> {
        (0..count)
            .map(|_| {
                let (x, y) = self.gen.next_sample();
                let mut row = Vec::with_capacity(x.len() + 2);
                row.push(Value::Int(self.next_key));
                row.extend(x.into_iter().map(Value::Float));
                row.push(Value::Float(y));
                self.next_key += 1;
                row
            })
            .collect()
    }
}

/// xorshift64* — a small seeded generator for keys and samples.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` (any value, 0 included).
    pub fn new(seed: u64) -> Rng {
        Rng(subseed(seed, 0x5a17).max(1))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        ((self.unit() * n as f64) as usize).min(n.saturating_sub(1))
    }
}

/// Zipf keys over `1..=n` (exponent 1.1) by inverse-CDF lookup: a hot
/// head of keys, as feature-store reads see.
pub struct Zipf {
    cum: Vec<f64>,
    rng: Rng,
}

impl Zipf {
    /// A sampler over keys `1..=n`.
    pub fn new(n: usize, seed: u64) -> Zipf {
        let mut total = 0.0;
        let cum = (1..=n.max(1))
            .map(|k| {
                total += 1.0 / (k as f64).powf(1.1);
                total
            })
            .collect();
        Zipf {
            cum,
            rng: Rng::new(seed),
        }
    }

    /// One key.
    pub fn sample(&mut self) -> i64 {
        let target = self.rng.unit() * self.cum[self.cum.len() - 1];
        let idx = self.cum.partition_point(|&c| c < target);
        (idx.min(self.cum.len() - 1) + 1) as i64
    }

    /// `count` keys.
    pub fn keys(&mut self, count: usize) -> Vec<i64> {
        (0..count).map(|_| self.sample()).collect()
    }
}

/// Model coefficients `(b0, b1..bd)` for a scoring table.
pub fn beta(d: usize, seed: u64) -> (f64, Vec<f64>) {
    let mut rng = Rng::new(subseed(seed, 0xbe7a));
    let b0 = rng.unit() * 10.0 - 5.0;
    (b0, (0..d).map(|_| rng.unit() * 2.0 - 1.0).collect())
}

/// `b0 + β·x`, as the bench's own reference for a scored row.
pub fn score(b0: f64, beta: &[f64], x: &[f64]) -> f64 {
    b0 + beta.iter().zip(x).map(|(b, v)| b * v).sum::<f64>()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        assert_eq!(mixture_rows(50, 4, 7), mixture_rows(50, 4, 7));
        assert_ne!(mixture_rows(50, 4, 7), mixture_rows(50, 4, 8));
        assert_eq!(Zipf::new(100, 3).keys(20), Zipf::new(100, 3).keys(20));
        let keys = Zipf::new(100, 3).keys(1000);
        assert!(keys.iter().all(|&k| (1..=100).contains(&k)));
        assert!(keys.iter().filter(|&&k| k == 1).count() > 50, "head is hot");
    }

    #[test]
    fn fresh_rows_are_keyed_upward() {
        let mut f = FreshRows::new(3, 11, 1);
        let rows = f.take(3);
        let keys: Vec<_> = rows.iter().map(|r| r[0].as_i64()).collect();
        assert_eq!(keys, vec![Some(11), Some(12), Some(13)]);
        assert_eq!(rows[0].len(), 5);
    }
}
