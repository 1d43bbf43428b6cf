//! Chunked, auto-vectorization-friendly inference kernels.
//!
//! The PP hot loops (SVM dot products, KDE neighbor distances, DNN
//! matvecs) spend their time in two primitives: [`dot`] and [`sq_dist`].
//! The naive left-fold in [`crate::dense`] carries a serial dependency
//! through the accumulator, so LLVM cannot vectorize it without `-ffast-math`
//! (which we will never enable: results must be bit-reproducible). The
//! kernels here break that dependency explicitly: the main loop accumulates
//! into a fixed-width lane array ([`LANES`] independent partial sums), which
//! LLVM maps onto SIMD registers, and the remainder is handled by a scalar
//! tail. The horizontal reduction at the end uses a *fixed* pairwise order,
//! so for a given input the result is identical on every run, every thread
//! count, and every chunking of the surrounding batch.
//!
//! Two consequences the rest of the system relies on:
//!
//! * **One dot product per deployment.** All *inference* paths (scalar
//!   `score`, batch `score_block`, row mode, columnar mode) call these
//!   kernels, so scores are bit-identical across execution modes by
//!   construction. Training keeps the strict left-fold in [`crate::dense`]
//!   so previously-trained models reproduce exactly.
//! * **Scalar fallback = same function.** Short vectors (below one lane
//!   width) skip the lane loop entirely and take the scalar tail; there is
//!   no separate code path that could diverge.

/// Number of independent partial-sum lanes in the chunked kernels.
///
/// The workspace sets no `target-cpu`, so an x86-64 build targets the
/// baseline ISA: eight f64 lanes are four 128-bit SSE2 registers (two f64
/// each), and eight independent add chains — Rust never contracts a
/// multiply and an add into an FMA, which would change the bits — hide the
/// adds' latency. A build for a wider ISA maps the same lanes onto fewer,
/// wider registers with the same results.
pub const LANES: usize = 8;

/// Fixed-order horizontal reduction of a lane accumulator.
///
/// The order is pairwise and deterministic: changing it changes low-order
/// bits of every score in the system, so it is part of the kernel contract.
#[inline(always)]
fn hsum(acc: [f64; LANES]) -> f64 {
    ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
}

/// Chunked dot product of two equal-length slices.
///
/// Bit-deterministic for a given input: the lane loop, scalar tail, and
/// final reduction always execute in the same order. Results differ from
/// the strict left-fold [`crate::dense::dot`] only in floating-point
/// association (typically a few ulps), which is why training and inference
/// pin their respective variants.
///
/// # Panics
/// Debug-asserts equal lengths; in release the shorter length wins, which
/// is never correct, so callers must guarantee matching dimensions.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "kernels::dot: dimension mismatch");
    let n = a.len().min(b.len());
    let main = n - n % LANES;
    let mut acc = [0.0f64; LANES];
    for (ca, cb) in a[..main]
        .chunks_exact(LANES)
        .zip(b[..main].chunks_exact(LANES))
    {
        for l in 0..LANES {
            acc[l] += ca[l] * cb[l];
        }
    }
    let mut tail = 0.0f64;
    for (x, y) in a[main..n].iter().zip(&b[main..n]) {
        tail += x * y;
    }
    hsum(acc) + tail
}

/// Chunked squared Euclidean distance between two equal-length slices.
///
/// Same lane structure and determinism contract as [`dot`].
///
/// # Panics
/// Debug-asserts equal lengths (see [`dot`]).
#[inline]
pub fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "kernels::sq_dist: dimension mismatch");
    let n = a.len().min(b.len());
    let main = n - n % LANES;
    let mut acc = [0.0f64; LANES];
    for (ca, cb) in a[..main]
        .chunks_exact(LANES)
        .zip(b[..main].chunks_exact(LANES))
    {
        for l in 0..LANES {
            let d = ca[l] - cb[l];
            acc[l] += d * d;
        }
    }
    let mut tail = 0.0f64;
    for (x, y) in a[main..n].iter().zip(&b[main..n]) {
        let d = x - y;
        tail += d * d;
    }
    hsum(acc) + tail
}

/// Dots every row of a contiguous row-major block against one weight
/// vector, appending `dot(row, w)` per row into `out`.
///
/// This is the SVM/DNN batch primitive: the block walk is a single forward
/// pass over contiguous memory, and each row uses the same [`dot`] kernel
/// as the scalar path, so per-row results are bit-identical to calling
/// [`dot`] row by row.
///
/// # Panics
/// Debug-asserts that `block.len()` is a multiple of `w.len()` when `w` is
/// non-empty.
#[inline]
pub fn block_dot(block: &[f64], w: &[f64], out: &mut Vec<f64>) {
    if w.is_empty() {
        return;
    }
    debug_assert_eq!(block.len() % w.len(), 0, "kernels::block_dot: ragged block");
    out.reserve(block.len() / w.len());
    for row in block.chunks_exact(w.len()) {
        out.push(dot(row, w));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Strict scalar reference: left-fold, the naive order.
    fn ref_dot(a: &[f64], b: &[f64]) -> f64 {
        a.iter().zip(b).map(|(x, y)| x * y).sum()
    }

    fn ref_sq_dist(a: &[f64], b: &[f64]) -> f64 {
        a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
    }

    fn vecs(n: usize, seed: u64) -> (Vec<f64>, Vec<f64>) {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            crate::rng::unit(state) - 0.5
        };
        let a: Vec<f64> = (0..n).map(|_| next()).collect();
        let b: Vec<f64> = (0..n).map(|_| next()).collect();
        (a, b)
    }

    #[test]
    fn empty_inputs_are_zero() {
        assert_eq!(dot(&[], &[]), 0.0);
        assert_eq!(sq_dist(&[], &[]), 0.0);
    }

    #[test]
    fn single_element_matches_reference_exactly() {
        assert_eq!(dot(&[3.0], &[4.0]), 12.0);
        assert_eq!(sq_dist(&[3.0], &[1.0]), 4.0);
    }

    #[test]
    fn below_lane_width_is_pure_scalar_tail() {
        // n < LANES never enters the lane loop: results equal the strict
        // left-fold bit-for-bit.
        for n in 0..LANES {
            let (a, b) = vecs(n, n as u64 + 1);
            assert_eq!(dot(&a, &b), ref_dot(&a, &b), "dot n={n}");
            assert_eq!(sq_dist(&a, &b), ref_sq_dist(&a, &b), "sq_dist n={n}");
        }
    }

    #[test]
    fn non_multiple_of_lane_width_close_to_reference() {
        for n in [LANES + 1, LANES + 3, 5 * LANES + 7, 257] {
            let (a, b) = vecs(n, n as u64);
            let got = dot(&a, &b);
            let want = ref_dot(&a, &b);
            assert!(
                (got - want).abs() <= 1e-12 * (1.0 + want.abs()),
                "dot n={n}: {got} vs {want}"
            );
            let got = sq_dist(&a, &b);
            let want = ref_sq_dist(&a, &b);
            assert!(
                (got - want).abs() <= 1e-12 * (1.0 + want.abs()),
                "sq_dist n={n}: {got} vs {want}"
            );
        }
    }

    #[test]
    fn exact_lane_multiples_have_empty_tail() {
        for n in [LANES, 4 * LANES, 32 * LANES] {
            let (a, b) = vecs(n, n as u64 + 17);
            let got = dot(&a, &b);
            let want = ref_dot(&a, &b);
            assert!((got - want).abs() <= 1e-12 * (1.0 + want.abs()));
        }
    }

    #[test]
    fn deterministic_across_calls() {
        let (a, b) = vecs(1031, 9);
        let first = dot(&a, &b);
        for _ in 0..10 {
            assert_eq!(dot(&a, &b).to_bits(), first.to_bits());
        }
    }

    #[test]
    fn sq_dist_is_symmetric_and_zero_on_self() {
        let (a, b) = vecs(100, 3);
        assert_eq!(sq_dist(&a, &b).to_bits(), sq_dist(&b, &a).to_bits());
        assert_eq!(sq_dist(&a, &a), 0.0);
    }

    #[test]
    fn block_dot_matches_row_by_row() {
        let dim = 11; // non-multiple of LANES
        let (flat, w) = {
            let (a, _) = vecs(dim * 7, 5);
            let (w, _) = vecs(dim, 6);
            (a, w)
        };
        let mut out = Vec::new();
        block_dot(&flat, &w, &mut out);
        assert_eq!(out.len(), 7);
        for (i, row) in flat.chunks_exact(dim).enumerate() {
            assert_eq!(out[i].to_bits(), dot(row, &w).to_bits());
        }
    }

    #[test]
    fn block_dot_empty_block() {
        let mut out = Vec::new();
        block_dot(&[], &[1.0, 2.0], &mut out);
        assert!(out.is_empty());
    }
}
