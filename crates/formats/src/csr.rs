//! The four CSR SpMV implementations of the paper's CPU testbeds
//! (Fig. 7, §II-B.5). They share one storage and one scalar row kernel
//! ([`crate::kernels::dot`]) and differ only in how rows are scheduled
//! onto workers:
//!
//! * **Naive-CSR** — static row chunks; the baseline.
//! * **Vectorized-CSR** — static row chunks. Splitting each row across
//!   W accumulators measured slower than one accumulator on every
//!   matrix class, so it runs the same row loop as Naive-CSR.
//! * **Balanced-CSR** — nnz-balanced row chunks ("adds nonzero
//!   balancing (row resolution)").
//! * **Merge-CSR** (Merrill & Garland, SC'16) — equal segments of the
//!   2-D `(rows + nnz)` merge path, so even a single giant row is split
//!   across workers. "A lightweight extension of CSR, with no
//!   preprocessing cost": merge-path coordinates are computed per
//!   `spmv_parallel` call, never stored.

use crate::kernels::dot;
use crate::traits::SparseFormat;
use crate::wire::{self, SectionReader, SectionWriter, WireError};
use spmv_core::CsrMatrix;
use spmv_parallel::{
    merge_path_partition, Carries, DisjointWriter, Executor, Schedule, ThreadPool,
};

/// Decodes a CSR wire payload (the variant comes from the wire tag,
/// not the payload).
pub(crate) fn decode(
    r: &mut SectionReader<'_>,
    variant: CsrVariant,
) -> Result<CsrFormat, WireError> {
    Ok(CsrFormat::new(wire::decode_csr(r)?, variant))
}

/// Which CSR schedule to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CsrVariant {
    /// Static row partition.
    Naive,
    /// Static row partition (the paper's AVX2 kernel slot).
    Vectorized,
    /// nnz-balanced row partition.
    Balanced,
    /// Merge-path partition over rows and nonzeros together.
    Merge,
}

/// CSR storage plus the schedule tag.
pub struct CsrFormat {
    matrix: CsrMatrix,
    variant: CsrVariant,
}

impl CsrFormat {
    /// Wraps a CSR matrix with the chosen schedule (no preprocessing).
    pub fn new(matrix: CsrMatrix, variant: CsrVariant) -> Self {
        Self { matrix, variant }
    }

    /// Borrow of the underlying CSR matrix.
    pub fn csr(&self) -> &CsrMatrix {
        &self.matrix
    }

    fn spmv_rows(&self, rows: std::ops::Range<usize>, x: &[f64], out: &DisjointWriter<'_>) {
        let m = &self.matrix;
        dot::csr_spmv_rows(rows, m.row_ptr(), m.col_idx(), m.values(), x, out);
    }

    /// The row-disjoint schedule of Naive, Vectorized and Balanced;
    /// `None` for Merge, whose segments share their boundary rows.
    fn row_schedule(&self) -> Option<Schedule<'_>> {
        match self.variant {
            CsrVariant::Naive | CsrVariant::Vectorized => {
                Some(Schedule::Static { items: self.rows() })
            }
            CsrVariant::Balanced => Some(Schedule::Balanced { prefix: self.matrix.row_ptr() }),
            CsrVariant::Merge => None,
        }
    }

    /// Merge-path SpMV: one segment of the `(rows + nnz)` path per
    /// worker. The segment's first (possibly shared) row is returned
    /// as a carry; rows > start.row are owned exclusively by this
    /// segment's direct writes (the *next* segment treats the shared
    /// boundary row as its own first row and also carries it).
    fn merge_spmv_parallel(&self, pool: &ThreadPool, x: &[f64], y: &mut [f64]) {
        let (row_ptr, col_idx, values) =
            (self.matrix.row_ptr(), self.matrix.col_idx(), self.matrix.values());
        let exec = Executor::new(pool);
        exec.zero(y);
        let coords = merge_path_partition(row_ptr, exec.threads());
        exec.run_chunks_carry(coords.len() - 1, y, |seg, out| {
            debug_assert_eq!(seg.len(), 1, "one merge segment per worker");
            let (start, end) = (coords[seg.start], coords[seg.start + 1]);
            if start.row == end.row && start.nz == end.nz {
                return Carries::none();
            }
            let mut k = start.nz;
            let mut carry = 0.0;
            for r in start.row..end.row {
                let acc = dot::csr_dot_range(k, row_ptr[r + 1], col_idx, values, x);
                k = row_ptr[r + 1];
                if r == start.row {
                    carry = acc;
                } else {
                    out.write(r, acc);
                }
            }
            // Partial head of the boundary row end.row.
            let acc = dot::csr_dot_range(k, end.nz, col_idx, values, x);
            if end.row == start.row {
                carry = acc; // whole segment inside one row
            } else if end.nz > row_ptr[end.row] {
                out.write(end.row, acc);
            }
            Carries { first: Some((start.row, carry)), last: None }
        });
    }
}

impl SparseFormat for CsrFormat {
    fn name(&self) -> &'static str {
        match self.variant {
            CsrVariant::Naive => "Naive-CSR",
            CsrVariant::Vectorized => "Vectorized-CSR",
            CsrVariant::Balanced => "Balanced-CSR",
            CsrVariant::Merge => "Merge-CSR",
        }
    }

    fn rows(&self) -> usize {
        self.matrix.rows()
    }

    fn cols(&self) -> usize {
        self.matrix.cols()
    }

    fn nnz(&self) -> usize {
        self.matrix.nnz()
    }

    fn bytes(&self) -> usize {
        self.matrix.mem_footprint_bytes()
    }

    fn spmv(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.cols());
        assert_eq!(y.len(), self.rows());
        let out = DisjointWriter::new(y);
        self.spmv_rows(0..self.rows(), x, &out);
    }

    fn spmv_parallel(&self, pool: &ThreadPool, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.cols());
        assert_eq!(y.len(), self.rows());
        match self.row_schedule() {
            Some(schedule) => Executor::new(pool)
                .run_disjoint(schedule, y, |range, out| self.spmv_rows(range, x, out)),
            None => self.merge_spmv_parallel(pool, x, y),
        }
    }

    fn spmv_dot(&self, x: &[f64], y: &mut [f64]) -> f64 {
        assert_eq!(self.rows(), self.cols(), "spmv_dot requires a square matrix");
        assert_eq!(x.len(), self.cols());
        assert_eq!(y.len(), self.rows());
        let m = &self.matrix;
        let out = DisjointWriter::new(y);
        dot::csr_spmv_dot_rows(0..self.rows(), m.row_ptr(), m.col_idx(), m.values(), x, &out)
    }

    fn spmv_dot_parallel(&self, pool: &ThreadPool, x: &[f64], y: &mut [f64]) -> f64 {
        assert_eq!(self.rows(), self.cols(), "spmv_dot requires a square matrix");
        assert_eq!(x.len(), self.cols());
        assert_eq!(y.len(), self.rows());
        let Some(schedule) = self.row_schedule() else {
            // A merge segment does not own its boundary rows' final
            // sums, so the dot runs as a second parallel pass.
            self.merge_spmv_parallel(pool, x, y);
            return spmv_parallel::blas1::dot(pool, x, y);
        };
        let m = &self.matrix;
        Executor::new(pool).run_disjoint_reduce(schedule, y, |range, out| {
            dot::csr_spmv_dot_rows(range, m.row_ptr(), m.col_idx(), m.values(), x, out)
        })
    }

    fn encode_payload(&self, out: &mut SectionWriter) {
        wire::encode_csr(&self.matrix, out);
    }

    fn spmm(&self, x: &[f64], k: usize, y: &mut [f64]) {
        let (rows, cols) = (self.rows(), self.cols());
        assert_eq!(x.len(), cols * k, "x must be a column-major cols × k block");
        assert_eq!(y.len(), rows * k, "y must be a column-major rows × k block");
        let m = &self.matrix;
        dot::csr_spmm_rows(0..rows, rows, cols, m.row_ptr(), m.col_idx(), m.values(), x, k, y);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmv_core::DenseMatrix;

    const VARIANTS: [CsrVariant; 4] =
        [CsrVariant::Naive, CsrVariant::Vectorized, CsrVariant::Balanced, CsrVariant::Merge];

    fn test_matrix() -> CsrMatrix {
        // Mix of long, short and empty rows.
        let mut t = Vec::new();
        for c in 0..40 {
            t.push((0usize, c as usize, (c as f64) * 0.5 - 3.0));
        }
        t.push((2, 5, 2.0));
        t.push((2, 6, -1.0));
        t.push((4, 0, 1.0));
        t.push((4, 39, -2.0));
        CsrMatrix::from_triplets(5, 40, &t).unwrap()
    }

    fn x_for(m: &CsrMatrix) -> Vec<f64> {
        (0..m.cols()).map(|i| (i as f64 * 0.37).sin()).collect()
    }

    fn hot_row_matrix() -> CsrMatrix {
        // Row 5 holds 900 of 960 nonzeros: static partitions collapse,
        // merge path must split row 5 across workers.
        let mut t = Vec::new();
        for r in 0..5usize {
            for k in 0..6usize {
                t.push((r, r * 6 + k, 0.5 + r as f64));
            }
        }
        for c in 0..900usize {
            t.push((5usize, c, (c as f64 * 0.01).sin()));
        }
        for r in 6..11usize {
            for k in 0..6usize {
                t.push((r, (r * 31 + k) % 900, -0.25));
            }
        }
        CsrMatrix::from_triplets(11, 900, &t).unwrap()
    }

    #[test]
    fn all_variants_match_dense_at_every_width() {
        // The lane profile reaches CSR through the registry but picks
        // no kernel: every width runs the same scalar row loop.
        use crate::registry::{build_format_with, FormatKind};
        use crate::{LaneProfile, LaneWidth};
        let m = test_matrix();
        let x = x_for(&m);
        let want = DenseMatrix::from_csr(&m).spmv(&x);
        for kind in [
            FormatKind::NaiveCsr,
            FormatKind::VectorizedCsr,
            FormatKind::BalancedCsr,
            FormatKind::MergeCsr,
        ] {
            let scalar = build_format_with(kind, &m, LaneProfile::scalar()).unwrap().spmv_alloc(&x);
            for (a, b) in scalar.iter().zip(&want) {
                assert!((a - b).abs() < 1e-12, "{kind:?}: {a} vs {b}");
            }
            for width in LaneWidth::ALL {
                let f = build_format_with(kind, &m, LaneProfile::with_width(width)).unwrap();
                assert_eq!(f.spmv_alloc(&x), scalar, "{kind:?} at {width:?}");
            }
        }
    }

    #[test]
    fn serial_spmv_and_spmv_dot_are_bitwise_the_reference() {
        // Square, ragged, with empty rows and non-exact products.
        let mut t = Vec::new();
        for r in 0..30usize {
            for k in 0..(r * 7) % 11 {
                t.push((r, (r * 13 + k * 5) % 30, (r as f64 * 0.7 + k as f64).cos()));
            }
        }
        t.sort_by_key(|&(r, c, _)| (r, c));
        t.dedup_by_key(|e| (e.0, e.1));
        let m = CsrMatrix::from_triplets(30, 30, &t).unwrap();
        let x: Vec<f64> = (0..30).map(|i| (i as f64 * 1.3).cos()).collect();
        let mut want = vec![0.0; 30];
        m.spmv_into(&x, &mut want);
        let mut want_dot = 0.0;
        for (xi, yi) in x.iter().zip(&want) {
            want_dot += xi * yi;
        }
        for variant in VARIANTS {
            let f = CsrFormat::new(m.clone(), variant);
            assert_eq!(f.spmv_alloc(&x), want, "{variant:?} spmv");
            let mut y = vec![f64::NAN; 30];
            assert_eq!(f.spmv_dot(&x, &mut y).to_bits(), want_dot.to_bits(), "{variant:?} dot");
            assert_eq!(y, want, "{variant:?} spmv_dot y");
        }
    }

    #[test]
    fn parallel_matches_sequential() {
        let m = test_matrix();
        let x = x_for(&m);
        let pool = ThreadPool::new(4);
        for variant in VARIANTS {
            let f = CsrFormat::new(m.clone(), variant);
            let seq = f.spmv_alloc(&x);
            let mut par = vec![f64::NAN; m.rows()];
            f.spmv_parallel(&pool, &x, &mut par);
            if variant == CsrVariant::Merge {
                // Merge segments split row 0 and add its partial sums
                // in a different association.
                for (a, b) in par.iter().zip(&seq) {
                    assert!((a - b).abs() < 1e-12, "{variant:?}: {a} vs {b}");
                }
            } else {
                // Row sums are per-row deterministic, so row-disjoint
                // schedules equal sequential bit-for-bit.
                assert_eq!(par, seq, "{variant:?}");
            }
        }
    }

    #[test]
    fn merge_splits_a_hot_row_across_any_thread_count() {
        let m = hot_row_matrix();
        let x: Vec<f64> = (0..m.cols()).map(|i| (i as f64 * 0.013).cos()).collect();
        let want = DenseMatrix::from_csr(&m).spmv(&x);
        let f = CsrFormat::new(m.clone(), CsrVariant::Merge);
        for threads in [1, 2, 3, 4, 8, 16] {
            let pool = ThreadPool::new(threads);
            let mut got = vec![f64::NAN; m.rows()];
            f.spmv_parallel(&pool, &x, &mut got);
            for (i, (a, b)) in got.iter().zip(&want).enumerate() {
                assert!((a - b).abs() < 1e-9, "threads {threads}, row {i}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn merge_handles_empty_rows_at_segment_boundaries() {
        // Clusters of empty rows around short full rows.
        let mut t = Vec::new();
        for r in [0usize, 7, 8, 15] {
            t.push((r, r, 1.0 + r as f64));
        }
        let m = CsrMatrix::from_triplets(16, 16, &t).unwrap();
        let x = vec![1.0; 16];
        let want = m.spmv(&x);
        let f = CsrFormat::new(m, CsrVariant::Merge);
        for threads in [2, 5, 16] {
            let pool = ThreadPool::new(threads);
            let mut got = vec![f64::NAN; 16];
            f.spmv_parallel(&pool, &x, &mut got);
            assert_eq!(got, want, "threads {threads}");
        }
    }

    #[test]
    fn merge_has_no_preprocessing_footprint_overhead() {
        // The merge path is searched per call, so even on a hot row the
        // format stores nothing beyond plain CSR.
        let m = hot_row_matrix();
        let f = CsrFormat::new(m.clone(), CsrVariant::Merge);
        assert_eq!(f.bytes(), m.mem_footprint_bytes());
        assert_eq!(f.name(), "Merge-CSR");
        assert_eq!(f.padding_ratio(), 1.0);
    }

    #[test]
    fn merge_empty_matrix() {
        let f = CsrFormat::new(CsrMatrix::zeros(4, 4), CsrVariant::Merge);
        let pool = ThreadPool::new(4);
        let mut y = vec![3.0; 4];
        f.spmv_parallel(&pool, &[0.0; 4], &mut y);
        assert_eq!(y, vec![0.0; 4]);
    }

    #[test]
    fn names_and_metadata() {
        let m = test_matrix();
        let names = ["Naive-CSR", "Vectorized-CSR", "Balanced-CSR", "Merge-CSR"];
        for (variant, name) in VARIANTS.into_iter().zip(names) {
            let f = CsrFormat::new(m.clone(), variant);
            assert_eq!(f.name(), name);
            assert_eq!(f.nnz(), m.nnz());
            // No preprocessing footprint: every schedule stores plain CSR.
            assert_eq!(f.bytes(), m.mem_footprint_bytes());
            assert_eq!(f.padding_ratio(), 1.0);
        }
    }

    #[test]
    fn empty_matrix() {
        let pool = ThreadPool::new(2);
        for variant in VARIANTS {
            let f = CsrFormat::new(CsrMatrix::zeros(3, 3), variant);
            let mut y = vec![1.0; 3];
            f.spmv_parallel(&pool, &[0.0; 3], &mut y);
            assert_eq!(y, vec![0.0; 3], "{variant:?}");
        }
    }

    #[test]
    fn spmm_matches_k_independent_spmvs() {
        let m = test_matrix();
        let (rows, cols) = (m.rows(), m.cols());
        for variant in VARIANTS {
            let f = CsrFormat::new(m.clone(), variant);
            for k in [0usize, 1, 3, 8] {
                let x: Vec<f64> = (0..cols * k).map(|i| (i as f64 * 0.041).sin()).collect();
                let got = f.spmm_alloc(&x, k);
                for j in 0..k {
                    let want = f.spmv_alloc(&x[j * cols..(j + 1) * cols]);
                    // Fused SpMM shares the kernel's accumulation
                    // order with SpMV, so agreement is exact.
                    assert_eq!(
                        &got[j * rows..(j + 1) * rows],
                        &want[..],
                        "{variant:?} k={k} col {j}"
                    );
                }
            }
        }
    }
}
