//! Flat-slice accumulation kernels for block-at-a-time scans.
//!
//! The Γ (`n`, `L`, `Q`) computation processes one point at a time in
//! the row-wise path: a rank-1 update `Q += x xᵀ` per row. When the
//! scan delivers a whole block of rows column-wise, the same work
//! becomes a handful of reductions over contiguous `f64` slices —
//! `L[a] += Σ col_a`, `Q[a][b] += col_a · col_b`. These free functions
//! are that reduction layer: no `Matrix`/`Vector` wrappers, just
//! slices, so both the UDF state (fixed `[f64; MAX_D]` arrays) and the
//! engine can call them.
//!
//! The Γ block kernels ([`block_triangular`], [`block_full`],
//! [`block_diagonal`], [`sum_min_max`]) are register-tiled on x86_64:
//! the lower triangle of `Q` is computed in 4×2 tiles of cells, each
//! tile holding its eight sums in SSE2 registers over row pairs, so a
//! tile reads its six columns once instead of once per cell. Every
//! `Q` cell, whatever the shape or tile position, is the same fixed
//! sum: even rows in one lane, odd rows in the other, then
//! `even + odd + last row` — so the three shapes agree bit for bit and
//! results do not depend on the host's CPU beyond the x86_64 baseline.
//! Other targets run the serial kernels in [`scalar`], which are also
//! the reference the tiled kernels are tested against.
//!
//! Dense variants assume every row participates. `*_selected` variants
//! take an LSB-ordered **active bitmap** — `u64` words where bit
//! `i % 64` of word `i / 64` is set when row `i` contributes (the
//! storage crate's validity/selection convention: the caller ANDs the
//! `WHERE` selection with each column's validity words first, and bits
//! at positions `>= len` are zero). Selected kernels iterate set bits
//! only, so sparse selections cost proportional to the rows kept. A
//! selected Γ block is [`compact`]ed onto the dense kernels instead.

#[cfg(not(target_arch = "x86_64"))]
use scalar as imp;
#[cfg(target_arch = "x86_64")]
use sse2 as imp;

/// Sum of a dense column.
pub fn sum(xs: &[f64]) -> f64 {
    xs.iter().sum()
}

/// Dot product of two equally long dense columns.
///
/// # Panics
/// Panics if the slices differ in length.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot of unequal lengths");
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Sum of squares of a dense column (`col · col`).
pub fn sum_sq(xs: &[f64]) -> f64 {
    xs.iter().map(|x| x * x).sum()
}

#[inline]
fn check_active(len: usize, active: &[u64]) {
    assert_eq!(
        active.len(),
        len.div_ceil(64),
        "active bitmap length mismatch"
    );
}

/// Calls `f(i)` for every set bit `i` of `active`, in ascending order.
#[inline]
fn for_each_active(active: &[u64], mut f: impl FnMut(usize)) {
    for (w, &word) in active.iter().enumerate() {
        let mut m = word;
        while m != 0 {
            f((w << 6) | m.trailing_zeros() as usize);
            m &= m - 1;
        }
    }
}

/// Sum over rows whose `active` bit is set.
///
/// # Panics
/// Panics if `active` does not cover `xs.len()` bits exactly.
pub fn sum_selected(xs: &[f64], active: &[u64]) -> f64 {
    check_active(xs.len(), active);
    let mut s = 0.0;
    for_each_active(active, |i| s += xs[i]);
    s
}

/// Dot product over rows whose `active` bit is set.
///
/// # Panics
/// Panics if the slices differ in length or `active` does not cover them.
pub fn dot_selected(a: &[f64], b: &[f64], active: &[u64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot of unequal lengths");
    check_active(a.len(), active);
    let mut s = 0.0;
    for_each_active(active, |i| s += a[i] * b[i]);
    s
}

/// Minimum and maximum of a dense column; `(∞, -∞)` when empty, so the
/// result folds into running extrema as the identity.
pub fn min_max(xs: &[f64]) -> (f64, f64) {
    xs.iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &x| {
            (lo.min(x), hi.max(x))
        })
}

/// Minimum and maximum over rows whose `active` bit is set; `(∞, -∞)`
/// when no bit is set.
///
/// # Panics
/// Panics if `active` does not cover `xs.len()` bits exactly.
pub fn min_max_selected(xs: &[f64], active: &[u64]) -> (f64, f64) {
    check_active(xs.len(), active);
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for_each_active(active, |i| {
        lo = lo.min(xs[i]);
        hi = hi.max(xs[i]);
    });
    (lo, hi)
}

/// Appends the rows of `xs` whose `active` bit is set to `out`, in
/// ascending row order, so a selected block can run the dense kernels
/// over the compacted column.
///
/// # Panics
/// Panics if `active` does not cover `xs.len()` bits exactly.
pub fn compact(xs: &[f64], active: &[u64], out: &mut Vec<f64>) {
    check_active(xs.len(), active);
    for_each_active(active, |i| out.push(xs[i]));
}

/// Sum, minimum and maximum of a dense column in one pass: the `L` and
/// min/max part of a Γ block update. The extrema follow the row path's
/// compare-select (`if x < lo { lo = x }`), so NaN never becomes an
/// extremum while it still propagates into the sum; an empty column
/// gives `(0, ∞, -∞)`.
pub fn sum_min_max(xs: &[f64]) -> (f64, f64, f64) {
    imp::sum_min_max(xs)
}

#[inline]
fn check_q(q: &[f64], stride: usize, d: usize) {
    assert!(
        d == 0 || (d - 1) * stride + d <= q.len(),
        "q buffer too small"
    );
}

/// Checks that the block's columns all have one length.
fn check_cols(cols: &[&[f64]]) {
    if let Some(first) = cols.first() {
        assert!(
            cols.iter().all(|c| c.len() == first.len()),
            "columns differ in length"
        );
    }
}

/// Rank-1 lower-triangular update `q[a][b] += x[a] * x[b]` for
/// `b <= a`, on a row-major `d x d` buffer with row stride `stride`:
/// the row-wise hot loop of the triangular Γ update.
///
/// # Panics
/// Panics if `q` is too short for `x.len()` rows of `stride`.
pub fn rank1_triangular(q: &mut [f64], stride: usize, x: &[f64]) {
    check_q(q, stride, x.len());
    for (a, &xa) in x.iter().enumerate() {
        let row = &mut q[a * stride..a * stride + a + 1];
        for (cell, &xb) in row.iter_mut().zip(x) {
            *cell += xa * xb;
        }
    }
}

/// Block lower-triangular update: `q[a][b] += cols[a] · cols[b]` for
/// `b <= a`, where each `cols[a]` is one column's values for the whole
/// block. Equivalent to [`rank1_triangular`] applied row-by-row, up to
/// the order of the additions.
///
/// # Panics
/// Panics if `q` is too small or the columns differ in length.
pub fn block_triangular(q: &mut [f64], stride: usize, cols: &[&[f64]]) {
    check_q(q, stride, cols.len());
    check_cols(cols);
    imp::lower(cols, |a, b, v| q[a * stride + b] += v);
}

/// Block diagonal update: `q[a][a] += cols[a] · cols[a]`, each cell
/// bit-identical to the diagonal of [`block_triangular`].
///
/// # Panics
/// Panics if `q` is too small or the columns differ in length.
pub fn block_diagonal(q: &mut [f64], stride: usize, cols: &[&[f64]]) {
    check_q(q, stride, cols.len());
    check_cols(cols);
    imp::squares(cols, |a, v| q[a * stride + a] += v);
}

/// Block full (symmetric, both halves materialized) update:
/// `q[a][b] += cols[a] · cols[b]` for all `a, b`. The upper half is
/// mirrored from the computed lower half so both halves stay
/// bit-identical.
///
/// # Panics
/// Panics if `q` is too small or the columns differ in length.
pub fn block_full(q: &mut [f64], stride: usize, cols: &[&[f64]]) {
    check_q(q, stride, cols.len());
    check_cols(cols);
    imp::lower(cols, |a, b, v| {
        q[a * stride + b] += v;
        if a != b {
            q[b * stride + a] += v;
        }
    });
}

/// The serial Γ block kernels: one running sum per cell, rows in
/// ascending order. They are the only path off x86_64 and the
/// reference the tiled kernels are tested against on every host.
/// The columns must share one length.
pub mod scalar {
    use super::{dot, sum_sq};

    /// Serial [`super::sum_min_max`].
    pub fn sum_min_max(xs: &[f64]) -> (f64, f64, f64) {
        let (mut s, mut lo, mut hi) = (0.0, f64::INFINITY, f64::NEG_INFINITY);
        for &x in xs {
            s += x;
            if x < lo {
                lo = x;
            }
            if x > hi {
                hi = x;
            }
        }
        (s, lo, hi)
    }

    /// Calls `emit(a, b, cols[a] · cols[b])` for every `b <= a`.
    pub fn lower(cols: &[&[f64]], mut emit: impl FnMut(usize, usize, f64)) {
        for a in 0..cols.len() {
            for b in 0..=a {
                emit(a, b, dot(cols[a], cols[b]));
            }
        }
    }

    /// Calls `emit(a, cols[a] · cols[a])` once per column.
    pub fn squares(cols: &[&[f64]], mut emit: impl FnMut(usize, f64)) {
        for (a, col) in cols.iter().enumerate() {
            emit(a, sum_sq(col));
        }
    }
}

/// SSE2 kernels. Each register-level routine is a
/// `#[target_feature(enable = "sse2")]` function; SSE2 is part of the
/// x86_64 baseline, so calling them needs no runtime dispatch and is
/// sound on every x86_64 CPU. Products and sums stay separate
/// instructions (no FMA), which keeps every result identical on every
/// x86_64 host.
#[cfg(target_arch = "x86_64")]
mod sse2 {
    use core::arch::x86_64::*;

    /// Tile height (cells of one `Q` column, i.e. `a` indices).
    const TA: usize = 4;
    /// Tile width (cells of one `Q` row, i.e. `b` indices).
    const TB: usize = 2;

    /// Loads two consecutive values into one register.
    #[inline]
    #[target_feature(enable = "sse2")]
    fn load(p: &[f64; 2]) -> __m128d {
        // SAFETY: `p` refers to two initialized, contiguous f64s, and
        // the unaligned load has no alignment requirement.
        unsafe { _mm_loadu_pd(p.as_ptr()) }
    }

    /// The two lanes of a register, low first.
    #[inline]
    #[target_feature(enable = "sse2")]
    fn split(v: __m128d) -> [f64; 2] {
        [_mm_cvtsd_f64(v), _mm_cvtsd_f64(_mm_unpackhi_pd(v, v))]
    }

    /// Adds the two lanes: the even-row and odd-row partial sums.
    #[inline]
    #[target_feature(enable = "sse2")]
    fn lanes(v: __m128d) -> f64 {
        let [even, odd] = split(v);
        even + odd
    }

    /// The row pairs of one column, cut to exactly `pairs` entries so
    /// indexing in the hot loop needs no bounds checks.
    #[inline(always)]
    fn pairs_of(col: &[f64], pairs: usize) -> &[[f64; 2]] {
        &col.as_chunks::<2>().0[..pairs]
    }

    /// The 4×2 tile `a[i] · b[j]`, each cell summed as even rows +
    /// odd rows + the last row when the length is odd. The eight sums
    /// live in registers; each row pair loads the six columns once.
    #[target_feature(enable = "sse2")]
    fn tile(a: [&[f64]; TA], b: [&[f64]; TB]) -> [[f64; TB]; TA] {
        let n = b[0].len();
        let pairs = n / 2;
        let pa = a.map(|c| pairs_of(c, pairs));
        let pb = b.map(|c| pairs_of(c, pairs));
        let mut acc = [[_mm_setzero_pd(); TB]; TA];
        for k in 0..pairs {
            let y = [load(&pb[0][k]), load(&pb[1][k])];
            for (row, col) in acc.iter_mut().zip(&pa) {
                let x = load(&col[k]);
                for (cell, &yj) in row.iter_mut().zip(&y) {
                    *cell = _mm_add_pd(*cell, _mm_mul_pd(x, yj));
                }
            }
        }
        let mut out = [[0.0; TB]; TA];
        for ((out_row, acc_row), ai) in out.iter_mut().zip(&acc).zip(a) {
            for ((cell, &v), bj) in out_row.iter_mut().zip(acc_row).zip(b) {
                *cell = lanes(v);
                if n % 2 == 1 {
                    *cell += ai[n - 1] * bj[n - 1];
                }
            }
        }
        out
    }

    /// Sums of squares of four columns, each summed exactly as the
    /// diagonal cells of [`tile`].
    #[target_feature(enable = "sse2")]
    fn squares4(a: [&[f64]; TA]) -> [f64; TA] {
        let n = a[0].len();
        let pairs = n / 2;
        let pa = a.map(|c| pairs_of(c, pairs));
        let mut acc = [_mm_setzero_pd(); TA];
        for k in 0..pairs {
            for (cell, col) in acc.iter_mut().zip(&pa) {
                let x = load(&col[k]);
                *cell = _mm_add_pd(*cell, _mm_mul_pd(x, x));
            }
        }
        let mut out = [0.0; TA];
        for ((cell, &v), ai) in out.iter_mut().zip(&acc).zip(a) {
            *cell = lanes(v);
            if n % 2 == 1 {
                *cell += ai[n - 1] * ai[n - 1];
            }
        }
        out
    }

    /// Four-lane fused sum/min/max: lane `k` takes the rows
    /// `i ≡ k (mod 4)`, the lanes fold in order, then the tail rows.
    /// `minpd(x, lo)` is exactly `if x < lo { x } else { lo }`, and
    /// `maxpd` likewise.
    #[target_feature(enable = "sse2")]
    fn fused(xs: &[f64]) -> (f64, f64, f64) {
        let (quads, tail) = xs.as_chunks::<4>();
        let mut s = [_mm_setzero_pd(); 2];
        let mut lo = [_mm_set1_pd(f64::INFINITY); 2];
        let mut hi = [_mm_set1_pd(f64::NEG_INFINITY); 2];
        for quad in quads {
            let (halves, _) = quad.as_chunks::<2>();
            for h in 0..2 {
                let x = load(&halves[h]);
                s[h] = _mm_add_pd(s[h], x);
                lo[h] = _mm_min_pd(x, lo[h]);
                hi[h] = _mm_max_pd(x, hi[h]);
            }
        }
        let mut sum = lanes(s[0]) + lanes(s[1]);
        let (mut min, mut max) = (f64::INFINITY, f64::NEG_INFINITY);
        let lane_lo = [split(lo[0]), split(lo[1])];
        let lane_hi = [split(hi[0]), split(hi[1])];
        for (&l, &h) in lane_lo.as_flattened().iter().zip(lane_hi.as_flattened()) {
            if l < min {
                min = l;
            }
            if h > max {
                max = h;
            }
        }
        for &x in tail {
            sum += x;
            if x < min {
                min = x;
            }
            if x > max {
                max = x;
            }
        }
        (sum, min, max)
    }

    /// Columns `start..start + N`, clamped to the last column so ragged
    /// edge tiles read valid data whose cells are then discarded.
    #[inline(always)]
    fn group<'a, const N: usize>(cols: &[&'a [f64]], start: usize) -> [&'a [f64]; N] {
        let last = cols.len() - 1;
        core::array::from_fn(|i| cols[(start + i).min(last)])
    }

    /// Calls `emit(a, b, cols[a] · cols[b])` once for every `b <= a`,
    /// covering the lower triangle with 4×2 tiles. The columns must
    /// share one length.
    pub(super) fn lower(cols: &[&[f64]], mut emit: impl FnMut(usize, usize, f64)) {
        let d = cols.len();
        for a0 in (0..d).step_by(TA) {
            let a_tile = group::<TA>(cols, a0);
            for b0 in (0..(a0 + TA).min(d)).step_by(TB) {
                // SAFETY: SSE2 is part of the x86_64 baseline.
                let t = unsafe { tile(a_tile, group::<TB>(cols, b0)) };
                for (i, row) in t.iter().enumerate() {
                    for (j, &v) in row.iter().enumerate() {
                        let (a, b) = (a0 + i, b0 + j);
                        if a < d && b <= a {
                            emit(a, b, v);
                        }
                    }
                }
            }
        }
    }

    /// Calls `emit(a, cols[a] · cols[a])` once per column. The columns
    /// must share one length.
    pub(super) fn squares(cols: &[&[f64]], mut emit: impl FnMut(usize, f64)) {
        let d = cols.len();
        for a0 in (0..d).step_by(TA) {
            // SAFETY: SSE2 is part of the x86_64 baseline.
            let s = unsafe { squares4(group::<TA>(cols, a0)) };
            for (i, &v) in s.iter().enumerate().take(d - a0) {
                emit(a0 + i, v);
            }
        }
    }

    /// See [`super::sum_min_max`].
    pub(super) fn sum_min_max(xs: &[f64]) -> (f64, f64, f64) {
        // SAFETY: SSE2 is part of the x86_64 baseline.
        unsafe { fused(xs) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cols_fixture() -> (Vec<f64>, Vec<f64>, Vec<f64>) {
        let c1: Vec<f64> = (0..9).map(|i| i as f64 - 4.0).collect();
        let c2: Vec<f64> = (0..9).map(|i| (i as f64) * 0.5 + 1.0).collect();
        let c3: Vec<f64> = (0..9).map(|i| ((i * 7) % 5) as f64 - 2.0).collect();
        (c1, c2, c3)
    }

    /// `d` columns of `len` pseudo-random values in `[-1, 2)`.
    fn random_cols(d: usize, len: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut state = seed;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64 * 3.0 - 1.0
        };
        (0..d).map(|_| (0..len).map(|_| next()).collect()).collect()
    }

    /// Active bitmap keeping rows where `keep(i)` is true.
    fn active_words(len: usize, keep: impl Fn(usize) -> bool) -> Vec<u64> {
        let mut words = vec![0u64; len.div_ceil(64)];
        for i in 0..len {
            if keep(i) {
                words[i / 64] |= 1 << (i % 64);
            }
        }
        words
    }

    /// Agreement to 1e-12, relative to the reference (absolute below 1).
    fn close(got: f64, want: f64) -> bool {
        (got - want).abs() / want.abs().max(1.0) < 1e-12
    }

    #[test]
    fn reductions_match_naive() {
        let (c1, c2, _) = cols_fixture();
        assert_eq!(sum(&c1), c1.iter().sum::<f64>());
        assert_eq!(dot(&c1, &c2), c1.iter().zip(&c2).map(|(a, b)| a * b).sum());
        assert_eq!(sum_sq(&c2), dot(&c2, &c2));
        assert_eq!(min_max(&c1), (-4.0, 4.0));
        assert_eq!(min_max(&[]), (f64::INFINITY, f64::NEG_INFINITY));
        assert_eq!(sum_min_max(&c1), (0.0, -4.0, 4.0));
        assert_eq!(sum_min_max(&[]), (0.0, f64::INFINITY, f64::NEG_INFINITY));
    }

    /// The fused pass against the serial reference at every tail length.
    #[test]
    fn sum_min_max_matches_scalar() {
        for len in [0, 1, 2, 3, 4, 5, 7, 63, 64, 65, 1023, 1024] {
            let col = &random_cols(1, len, len as u64)[0];
            let (s, lo, hi) = sum_min_max(col);
            let (rs, rlo, rhi) = scalar::sum_min_max(col);
            assert!(close(s, rs), "len {len}: {s} vs {rs}");
            assert_eq!((lo, hi), (rlo, rhi), "len {len}");
        }
    }

    /// NaN never becomes an extremum but propagates into the sum, and
    /// infinities are ordinary extrema, wherever the special value sits
    /// relative to the lanes and the tail.
    #[test]
    fn sum_min_max_special_values() {
        for at in 0..7 {
            let mut col = vec![1.0, -2.0, 3.0, 0.5, 2.5, -1.5, 4.0];
            col[at] = f64::NAN;
            let (s, lo, hi) = sum_min_max(&col);
            let (_, rlo, rhi) = scalar::sum_min_max(&col);
            assert!(s.is_nan());
            assert_eq!((lo, hi), (rlo, rhi), "NaN at {at}");
            assert!(!lo.is_nan() && !hi.is_nan());

            col[at] = f64::INFINITY;
            col[(at + 3) % 7] = f64::NEG_INFINITY;
            let (s, lo, hi) = sum_min_max(&col);
            assert!(s.is_nan(), "∞ + -∞");
            assert_eq!((lo, hi), (f64::NEG_INFINITY, f64::INFINITY));
        }
        let (s, lo, hi) = sum_min_max(&[f64::NAN; 5]);
        assert!(s.is_nan());
        assert_eq!((lo, hi), (f64::INFINITY, f64::NEG_INFINITY));
    }

    #[test]
    fn selected_reductions_keep_only_active_rows() {
        let (c1, c2, _) = cols_fixture();
        let active = active_words(9, |i| i % 3 != 0);
        let expect_sum: f64 = c1
            .iter()
            .enumerate()
            .filter(|(i, _)| i % 3 != 0)
            .map(|(_, x)| x)
            .sum();
        assert_eq!(sum_selected(&c1, &active), expect_sum);
        let expect_dot: f64 = c1
            .iter()
            .zip(&c2)
            .enumerate()
            .filter(|(i, _)| i % 3 != 0)
            .map(|(_, (a, b))| a * b)
            .sum();
        assert_eq!(dot_selected(&c1, &c2, &active), expect_dot);
        assert_eq!(min_max_selected(&c1, &active), (-3.0, 4.0));
        let none = active_words(9, |_| false);
        assert_eq!(
            min_max_selected(&c1, &none),
            (f64::INFINITY, f64::NEG_INFINITY)
        );
        // All-active equals the dense kernels exactly... if summation
        // order matches, which it does (ascending row index).
        let all = active_words(9, |_| true);
        assert_eq!(sum_selected(&c1, &all), sum(&c1));
        assert_eq!(dot_selected(&c1, &c2, &all), dot(&c1, &c2));
    }

    #[test]
    fn selected_kernels_handle_multiword_bitmaps() {
        let xs: Vec<f64> = (0..150).map(|i| i as f64).collect();
        let active = active_words(150, |i| i % 2 == 0);
        let kept: Vec<f64> = (0..150).filter(|i| i % 2 == 0).map(|i| i as f64).collect();
        assert_eq!(sum_selected(&xs, &active), kept.iter().sum::<f64>());
        assert_eq!(min_max_selected(&xs, &active), (0.0, 148.0));
        let mut out = vec![-1.0];
        compact(&xs, &active, &mut out);
        assert_eq!(out[0], -1.0, "compact appends");
        assert_eq!(out[1..], kept[..]);
    }

    /// One shape's block kernel over `cols`, into a fresh buffer whose
    /// row stride is deliberately not `d`.
    fn run_block(kernel: fn(&mut [f64], usize, &[&[f64]]), d: usize, cols: &[&[f64]]) -> Vec<f64> {
        let mut q = vec![0.0; (d + 1) * d];
        kernel(&mut q, d + 1, cols);
        q
    }

    fn bits(q: &[f64]) -> Vec<u64> {
        q.iter().map(|v| v.to_bits()).collect()
    }

    /// The block kernels must equal per-row rank-1 updates and the
    /// serial reference kernels to 1e-12 — same products, reassociated
    /// sums — for every shape, every ragged tile edge (`d` = 1..=17, 63,
    /// 64) and every row-pair tail (block lengths around 0, 64 and
    /// 1024). The three shapes must agree with one another bit for bit.
    #[test]
    fn block_updates_match_rank1_loop() {
        for d in (1..=17).chain([63, 64]) {
            let stride = d + 1;
            for len in [0, 1, 2, 3, 63, 64, 65, 1023, 1024] {
                let data = random_cols(d, len, (d * 10_000 + len) as u64);
                let cols: Vec<&[f64]> = data.iter().map(Vec::as_slice).collect();

                let mut by_row = vec![0.0; stride * d];
                let mut x = vec![0.0; d];
                for i in 0..len {
                    for (xa, col) in x.iter_mut().zip(&cols) {
                        *xa = col[i];
                    }
                    rank1_triangular(&mut by_row, stride, &x);
                }
                let mut reference = vec![0.0; stride * d];
                scalar::lower(&cols, |a, b, v| reference[a * stride + b] += v);
                let mut ref_diag = vec![0.0; stride * d];
                scalar::squares(&cols, |a, v| ref_diag[a * stride + a] += v);

                let tri = run_block(block_triangular, d, &cols);
                let diag = run_block(block_diagonal, d, &cols);
                let full = run_block(block_full, d, &cols);
                for a in 0..d {
                    for b in 0..d {
                        let at = format!("d {d} len {len} cell ({a}, {b})");
                        let cell = a * stride + b;
                        let lower = a.max(b) * stride + a.min(b);
                        if b <= a {
                            assert!(close(tri[cell], reference[cell]), "{at}: vs scalar");
                            assert!(close(tri[cell], by_row[cell]), "{at}: vs rank-1");
                        } else {
                            assert_eq!(tri[cell], 0.0, "{at}: upper half untouched");
                        }
                        assert_eq!(full[cell].to_bits(), tri[lower].to_bits(), "{at}: full");
                        let want = if a == b { tri[cell] } else { 0.0 };
                        assert_eq!(diag[cell].to_bits(), want.to_bits(), "{at}: diagonal");
                    }
                    let cell = a * stride + a;
                    assert!(close(diag[cell], ref_diag[cell]), "d {d} len {len}");
                }
            }
        }
    }

    /// A selected block compacted onto the dense kernels gives the same
    /// bits as the dense kernels over columns filtered up front.
    #[test]
    fn compacted_selection_matches_prefiltered_columns() {
        let (d, len) = (7, 1024);
        let data = random_cols(d, len, 42);
        let keep = |i: usize| !i.is_multiple_of(3) && i % 7 != 5;
        let active = active_words(len, keep);
        let mut packed = Vec::new();
        for col in &data {
            compact(col, &active, &mut packed);
        }
        let kept = (0..len).filter(|&i| keep(i)).count();
        let compacted: Vec<&[f64]> = packed.chunks_exact(kept).collect();
        let filtered: Vec<Vec<f64>> = data
            .iter()
            .map(|c| (0..len).filter(|&i| keep(i)).map(|i| c[i]).collect())
            .collect();
        let filtered: Vec<&[f64]> = filtered.iter().map(Vec::as_slice).collect();
        for kernel in [block_triangular, block_diagonal, block_full] {
            assert_eq!(
                bits(&run_block(kernel, d, &compacted)),
                bits(&run_block(kernel, d, &filtered))
            );
        }
        for (c, f) in compacted.iter().zip(&filtered) {
            assert_eq!(sum_min_max(c), sum_min_max(f));
        }
    }

    #[test]
    #[should_panic(expected = "unequal lengths")]
    fn dot_checks_lengths() {
        let _ = dot(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "columns differ in length")]
    fn block_checks_column_lengths() {
        let mut q = [0.0; 4];
        block_triangular(&mut q, 2, &[&[1.0, 2.0], &[1.0]]);
    }

    #[test]
    #[should_panic(expected = "active bitmap length mismatch")]
    fn selected_checks_bitmap_length() {
        let _ = sum_selected(&[1.0; 65], &[0u64]);
    }

    #[test]
    #[should_panic(expected = "q buffer too small")]
    fn triangular_checks_buffer() {
        let mut q = [0.0; 3];
        rank1_triangular(&mut q, 2, &[1.0, 2.0]);
    }
}
