//! Gather-dot kernels for CSR row slices: the scalar row dot
//! `Σ vals[i] · x[cols[i]]`, plus the fused SpMM variant that reads a
//! row's indices and values once and reuses them across all k right-
//! hand sides.
//!
//! Every entry point sums a row's products left to right into one
//! accumulator — the same order as `CsrMatrix::spmv_into` — so all
//! four CSR variants agree bit-for-bit with the reference and with
//! each other on every row they own whole.

use spmv_parallel::DisjointWriter;
use std::ops::Range;

/// Left-to-right dot of the CSR entries `lo..hi` against the gathered
/// x: a whole row, or the part of one a merge-path segment owns.
#[inline]
pub fn csr_dot_range(lo: usize, hi: usize, col_idx: &[u32], values: &[f64], x: &[f64]) -> f64 {
    let mut acc = 0.0;
    for (&c, &v) in col_idx[lo..hi].iter().zip(&values[lo..hi]) {
        acc += v * x[c as usize];
    }
    acc
}

/// SpMV over a CSR row range: `out[r] = row_r · x` for `r` in `rows`.
pub fn csr_spmv_rows(
    rows: Range<usize>,
    row_ptr: &[usize],
    col_idx: &[u32],
    values: &[f64],
    x: &[f64],
    out: &DisjointWriter<'_>,
) {
    for r in rows {
        out.write(r, csr_dot_range(row_ptr[r], row_ptr[r + 1], col_idx, values, x));
    }
}

/// Fused SpMV + dot over a CSR row range: writes `out[r] = row_r · x`
/// and returns the chunk's contribution `Σ x[r] · out[r]` from the
/// same sweep, while each row sum is still hot. Requires a square
/// matrix (`x` doubles as the row-indexed dot operand).
///
/// The partial accumulates in ascending row order — exactly the order
/// a serial dot over the chunk would use — so fused and
/// spmv-then-dot agree **bit-for-bit** at a fixed chunking.
pub fn csr_spmv_dot_rows(
    rows: Range<usize>,
    row_ptr: &[usize],
    col_idx: &[u32],
    values: &[f64],
    x: &[f64],
    out: &DisjointWriter<'_>,
) -> f64 {
    let mut partial = 0.0;
    for r in rows {
        let yr = csr_dot_range(row_ptr[r], row_ptr[r + 1], col_idx, values, x);
        out.write(r, yr);
        partial += x[r] * yr;
    }
    partial
}

/// Fused SpMM over a CSR row range: the row's matrix stream is read
/// once and amortized over all `k` right-hand sides (x-reuse). The
/// per-(row, rhs) accumulation order matches [`csr_spmv_rows`].
#[allow(clippy::too_many_arguments)]
pub fn csr_spmm_rows(
    rows: Range<usize>,
    total_rows: usize,
    total_cols: usize,
    row_ptr: &[usize],
    col_idx: &[u32],
    values: &[f64],
    x: &[f64],
    k: usize,
    y: &mut [f64],
) {
    // acc[j]: the row's running sum for right-hand side j.
    let mut acc = vec![0.0f64; k];
    for r in rows {
        acc.fill(0.0);
        let (lo, hi) = (row_ptr[r], row_ptr[r + 1]);
        for (&c, &v) in col_idx[lo..hi].iter().zip(&values[lo..hi]) {
            for (j, a) in acc.iter_mut().enumerate() {
                *a += v * x[j * total_cols + c as usize];
            }
        }
        for (j, &a) in acc.iter().enumerate() {
            y[j * total_rows + r] = a;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_handles_every_length() {
        let x: Vec<f64> = (0..64).map(|i| i as f64).collect();
        for len in 0..33 {
            let cols: Vec<u32> = (0..len as u32).collect();
            let vals = vec![1.0; len];
            let want: f64 = (0..len).map(|i| i as f64).sum();
            assert_eq!(csr_dot_range(0, len, &cols, &vals, &x), want, "len {len}");
        }
    }

    #[test]
    fn fused_dot_matches_spmv_then_dot_bitwise() {
        // 4×4, ragged, with an empty row.
        let row_ptr = [0usize, 3, 3, 6, 8];
        let col_idx = [0u32, 1, 3, 1, 2, 3, 0, 2];
        let values = [1.5, -2.0, 0.5, 3.0, 1.25, -0.75, 2.0, 0.125];
        let x: Vec<f64> = (0..4).map(|i| (i as f64 * 0.91).sin() + 0.3).collect();
        let mut y = vec![f64::NAN; 4];
        {
            let out = DisjointWriter::new(&mut y);
            csr_spmv_rows(0..4, &row_ptr, &col_idx, &values, &x, &out);
        }
        let mut want = 0.0;
        for r in 0..4 {
            want += x[r] * y[r];
        }
        let mut fused = vec![f64::NAN; 4];
        let got = {
            let out = DisjointWriter::new(&mut fused);
            csr_spmv_dot_rows(0..4, &row_ptr, &col_idx, &values, &x, &out)
        };
        assert_eq!(fused, y);
        assert_eq!(got, want);
    }

    #[test]
    fn spmm_matches_repeated_spmv_at_fixed_width() {
        // 3 rows × 5 cols, ragged.
        let row_ptr = [0usize, 4, 4, 7];
        let col_idx = [0u32, 1, 3, 4, 2, 3, 4];
        let values = [1.0, -2.0, 0.5, 3.0, 1.5, -0.25, 2.0];
        let k = 3;
        let x: Vec<f64> = (0..5 * k).map(|i| (i as f64 * 0.37).sin()).collect();
        let mut y = vec![f64::NAN; 3 * k];
        csr_spmm_rows(0..3, 3, 5, &row_ptr, &col_idx, &values, &x, k, &mut y);
        for j in 0..k {
            let mut col = vec![f64::NAN; 3];
            {
                let out = DisjointWriter::new(&mut col);
                csr_spmv_rows(0..3, &row_ptr, &col_idx, &values, &x[j * 5..(j + 1) * 5], &out);
            }
            assert_eq!(&y[j * 3..(j + 1) * 3], &col[..], "rhs {j}");
        }
    }
}
