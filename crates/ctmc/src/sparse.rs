//! Compressed-sparse-row matrices for CTMC generators.

/// A CSR sparse matrix of `f64` entries.
///
/// Stores generator rates and (transposed) uniformized
/// transition-probability matrices; the only operations the solvers
/// need are row iteration and `M·x` products. Column indices are `u32`,
/// halving the index bytes the product streams.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseMatrix {
    n: usize,
    row_ptr: Vec<usize>,
    cols: Vec<u32>,
    vals: Vec<f64>,
}

impl SparseMatrix {
    /// Builds an `n × n` matrix from `(row, col, value)` triplets.
    /// Duplicate coordinates are summed; explicit zeros are dropped.
    ///
    /// # Panics
    ///
    /// Panics if any coordinate is out of range, or if `n` exceeds the
    /// `u32` index range.
    pub fn from_triplets(
        n: usize,
        triplets: impl IntoIterator<Item = (usize, usize, f64)>,
    ) -> Self {
        assert!(
            u32::try_from(n).is_ok(),
            "dimension {n} exceeds u32 indices"
        );
        let mut per_row: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
        for (r, c, v) in triplets {
            assert!(r < n && c < n, "triplet ({r}, {c}) out of range for n={n}");
            if v != 0.0 {
                per_row[r].push((c, v));
            }
        }
        let mut row_ptr = Vec::with_capacity(n + 1);
        let mut cols = Vec::new();
        let mut vals = Vec::new();
        row_ptr.push(0);
        for row in &mut per_row {
            row.sort_unstable_by_key(|(c, _)| *c);
            let mut last: Option<usize> = None;
            for &(c, v) in row.iter() {
                if last == Some(c) {
                    *vals.last_mut().expect("entry exists") += v;
                } else {
                    cols.push(c as u32);
                    vals.push(v);
                    last = Some(c);
                }
            }
            row_ptr.push(cols.len());
        }
        SparseMatrix {
            n,
            row_ptr,
            cols,
            vals,
        }
    }

    /// Matrix dimension.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// Iterates the `(col, value)` entries of one row.
    ///
    /// # Panics
    ///
    /// Panics if `row >= n`.
    pub fn row(&self, row: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let lo = self.row_ptr[row];
        let hi = self.row_ptr[row + 1];
        self.cols[lo..hi]
            .iter()
            .map(|&c| c as usize)
            .zip(self.vals[lo..hi].iter().copied())
    }

    /// Computes `out = M · x`, one gather per row: `out[i]` sums
    /// `M[i][j] · x[j]` over the row's entries in ascending `j`. The
    /// solvers store the uniformized matrix transposed, so this is the
    /// forward step `xᵀ·P` with every output summed in ascending source
    /// order.
    ///
    /// # Panics
    ///
    /// Panics if dimensions disagree.
    pub fn mul_vec(&self, x: &[f64], out: &mut [f64]) {
        assert_eq!(x.len(), self.n, "input length mismatch");
        assert_eq!(out.len(), self.n, "output length mismatch");
        for (o, bounds) in out.iter_mut().zip(self.row_ptr.windows(2)) {
            let (lo, hi) = (bounds[0], bounds[1]);
            *o = self.cols[lo..hi]
                .iter()
                .zip(&self.vals[lo..hi])
                .fold(0.0, |acc, (&j, &v)| acc + x[j as usize] * v);
        }
    }

    /// Sum of each row (diagnostic: rows of a stochastic matrix sum to
    /// 1).
    pub fn row_sums(&self) -> Vec<f64> {
        (0..self.n)
            .map(|r| self.row(r).map(|(_, v)| v).sum())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triplets_build_and_dedupe() {
        let m = SparseMatrix::from_triplets(
            3,
            vec![(0, 1, 2.0), (0, 1, 3.0), (2, 0, 1.0), (1, 1, 0.0)],
        );
        assert_eq!(m.n(), 3);
        assert_eq!(m.nnz(), 2);
        let row0: Vec<_> = m.row(0).collect();
        assert_eq!(row0, vec![(1, 5.0)]);
        assert!(m.row(1).next().is_none());
    }

    #[test]
    fn mul_vec_matches_dense() {
        // M = [[0, 1], [2, 3]] as triplets.
        let m = SparseMatrix::from_triplets(2, vec![(0, 1, 1.0), (1, 0, 2.0), (1, 1, 3.0)]);
        let x = [5.0, 7.0];
        let mut out = [0.0; 2];
        m.mul_vec(&x, &mut out);
        // Mx = [0*5 + 1*7, 2*5 + 3*7] = [7, 31]
        assert_eq!(out, [7.0, 31.0]);
    }

    #[test]
    fn row_sums() {
        let m = SparseMatrix::from_triplets(2, vec![(0, 0, 0.5), (0, 1, 0.5), (1, 1, 1.0)]);
        assert_eq!(m.row_sums(), vec![1.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range() {
        SparseMatrix::from_triplets(2, vec![(2, 0, 1.0)]);
    }
}
