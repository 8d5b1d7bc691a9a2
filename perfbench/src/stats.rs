//! Order statistics, exact reference sums and the process's peak memory.

use nlq_models::Nlq;

/// Nearest-rank percentile of an ascending slice (`p` in `[0, 1]`).
/// Returns 0 for an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts samples ascending and returns them.
pub fn sorted(mut xs: Vec<f64>) -> Vec<f64> {
    xs.sort_by(f64::total_cmp);
    xs
}

/// Median of unsorted samples (0 for none).
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs.to_vec());
    if s.is_empty() {
        return 0.0;
    }
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        (s[m - 1] + s[m]) / 2.0
    }
}

/// Peak resident set (`VmHWM`) of this process, MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The benchmark's own Γ = (n, L, lower-triangular Q), summed with
/// Neumaier compensation so that it is exact to well below the 1e-9
/// tolerance the engine's answer is held to.
#[derive(Debug, Clone)]
pub struct RefGamma {
    d: usize,
    n: u64,
    l: Vec<Kahan>,
    q: Vec<Kahan>,
}

#[derive(Debug, Clone, Copy, Default)]
struct Kahan {
    sum: f64,
    c: f64,
}

impl Kahan {
    fn add(&mut self, x: f64) {
        let t = self.sum + x;
        if self.sum.abs() >= x.abs() {
            self.c += (self.sum - t) + x;
        } else {
            self.c += (x - t) + self.sum;
        }
        self.sum = t;
    }

    fn value(self) -> f64 {
        self.sum + self.c
    }
}

impl RefGamma {
    /// An empty Γ over `d` dimensions.
    pub fn new(d: usize) -> RefGamma {
        RefGamma {
            d,
            n: 0,
            l: vec![Kahan::default(); d],
            q: vec![Kahan::default(); d * (d + 1) / 2],
        }
    }

    /// Γ of `rows`, each holding at least `d` leading values.
    pub fn of<'a>(d: usize, rows: impl IntoIterator<Item = &'a [f64]>) -> RefGamma {
        let mut g = RefGamma::new(d);
        for r in rows {
            g.add(&r[..d]);
        }
        g
    }

    /// Folds one point in.
    pub fn add(&mut self, x: &[f64]) {
        self.n += 1;
        let mut k = 0;
        for a in 0..self.d {
            self.l[a].add(x[a]);
            for b in 0..=a {
                self.q[k].add(x[a] * x[b]);
                k += 1;
            }
        }
    }

    /// Rows summarized.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Checks an engine Γ against this reference: `n` exactly, every
    /// `L` and lower-`Q` entry within `rel` relative error.
    pub fn check(&self, got: &Nlq, rel: f64) -> Result<(), String> {
        if got.d() != self.d {
            return Err(format!("Γ has d = {}, expected {}", got.d(), self.d));
        }
        if got.n() != self.n as f64 {
            return Err(format!("Γ has n = {}, expected {}", got.n(), self.n));
        }
        for a in 0..self.d {
            let want = self.l[a].value();
            if !close(got.l()[a], want, rel) {
                return Err(format!("Γ L[{a}] = {}, expected {want}", got.l()[a]));
            }
        }
        let q = got.q_full();
        let mut k = 0;
        for a in 0..self.d {
            for b in 0..=a {
                let want = self.q[k].value();
                if !close(q[(a, b)], want, rel) {
                    return Err(format!("Γ Q[{a}][{b}] = {}, expected {want}", q[(a, b)]));
                }
                k += 1;
            }
        }
        Ok(())
    }
}

/// Whether `got` is within `rel` relative error of `want`.
pub fn close(got: f64, want: f64, rel: f64) -> bool {
    (got - want).abs() <= rel * want.abs().max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nlq_models::MatrixShape;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), 50.0);
        assert_eq!(percentile(&s, 0.9), 90.0);
        assert_eq!(percentile(&s, 0.99), 99.0);
        assert_eq!(percentile(&s, 1.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    #[test]
    fn reference_gamma_catches_a_perturbed_entry() {
        let rows: Vec<Vec<f64>> = (0..100)
            .map(|i| vec![i as f64, 2.0 * i as f64 + 1.0])
            .collect();
        let reference = RefGamma::of(2, rows.iter().map(Vec::as_slice));
        let good = Nlq::from_rows(2, MatrixShape::Triangular, &rows);
        reference.check(&good, 1e-9).expect("exact Γ passes");
        let mut bad_rows = rows.clone();
        bad_rows[7][1] += 1e-3;
        let bad = Nlq::from_rows(2, MatrixShape::Triangular, &bad_rows);
        assert!(reference.check(&bad, 1e-9).is_err());
    }
}
