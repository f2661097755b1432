//! Compressed-sparse-row matrices for CTMC generators.

/// A CSR sparse matrix of `f64` entries.
///
/// Stores generator rates and (transposed) uniformized
/// transition-probability matrices; the solvers iterate its rows and
/// hand `Pᵀ` to [`LaneMatrix`] for the `M·x` products. Column indices
/// are `u32`, halving the index bytes a product streams.
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
            append_row(row, &mut cols, &mut vals);
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

    /// Builds `Pᵀ` for `P = I + Q/q`, where `self` holds the
    /// off-diagonal rates of `Q` (no diagonal entries) and `exit_rates`
    /// their row sums.
    ///
    /// A counting-sort transpose: one pass counts each column, one
    /// pass visits the rows in ascending order and appends every entry
    /// to its column's next free slot. Row `c` of the result therefore
    /// lists its sources `r` in ascending order, so a gather adds its
    /// terms in the order a row-by-row `xᵀ·P` visits them: the same
    /// sum, bit for bit. Zero entries are dropped, as
    /// [`from_triplets`](SparseMatrix::from_triplets) drops them.
    pub(crate) fn uniformized_transpose(&self, exit_rates: &[f64], q: f64) -> SparseMatrix {
        let n = self.n;
        assert_eq!(exit_rates.len(), n, "exit-rate length mismatch");
        let diag = |r: usize| 1.0 - exit_rates[r] / q;
        let mut row_ptr = vec![0usize; n + 1];
        for r in 0..n {
            row_ptr[r + 1] += usize::from(diag(r) != 0.0);
            for (c, v) in self.row(r) {
                row_ptr[c + 1] += usize::from(v / q != 0.0);
            }
        }
        for r in 0..n {
            row_ptr[r + 1] += row_ptr[r];
        }
        let nnz = row_ptr[n];
        let mut next = row_ptr[..n].to_vec();
        let mut cols = vec![0u32; nnz];
        let mut vals = vec![0.0; nnz];
        let mut put = |row: usize, col: usize, v: f64| {
            if v != 0.0 {
                cols[next[row]] = col as u32;
                vals[next[row]] = v;
                next[row] += 1;
            }
        };
        for r in 0..n {
            put(r, r, diag(r));
            for (c, v) in self.row(r) {
                put(c, r, v / q);
            }
        }
        SparseMatrix {
            n,
            row_ptr,
            cols,
            vals,
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

/// Sorts one row's `(col, value)` entries by column and appends them
/// to `cols`/`vals`, summing duplicate columns in sorted order. The one
/// row step of every CSR build, so equal rows give equal bits however
/// the matrix was assembled.
fn append_row(row: &mut [(usize, f64)], cols: &mut Vec<u32>, vals: &mut Vec<f64>) {
    row.sort_unstable_by_key(|(c, _)| *c);
    let mut last: Option<usize> = None;
    for &(c, v) in row.iter() {
        if last == Some(c) {
            *vals.last_mut().expect("entry exists") += v;
        } else {
            cols.push(u32::try_from(c).expect("column exceeds u32 indices"));
            vals.push(v);
            last = Some(c);
        }
    }
}

/// Builds a [`SparseMatrix`] row by row, in ascending row order, from
/// one reused row buffer: the form an explorer that expands states in
/// index order emits, with no triplet list and no per-row vectors.
/// Each row goes through the same step as
/// [`from_triplets`](SparseMatrix::from_triplets).
#[derive(Debug)]
pub(crate) struct RowBuilder {
    row_ptr: Vec<usize>,
    cols: Vec<u32>,
    vals: Vec<f64>,
    /// Entries of the row being built, in push order.
    row: Vec<(usize, f64)>,
}

impl RowBuilder {
    pub(crate) fn new() -> Self {
        RowBuilder {
            row_ptr: vec![0],
            cols: Vec::new(),
            vals: Vec::new(),
            row: Vec::new(),
        }
    }

    /// Adds `v` at column `col` of the current row. Zeros are dropped;
    /// duplicate columns are summed when the row ends.
    pub(crate) fn push(&mut self, col: usize, v: f64) {
        if v != 0.0 {
            self.row.push((col, v));
        }
    }

    /// Ends the current row; the next push starts the next one.
    pub(crate) fn end_row(&mut self) {
        append_row(&mut self.row, &mut self.cols, &mut self.vals);
        self.row.clear();
        self.row_ptr.push(self.cols.len());
    }

    /// The square matrix of the rows ended so far.
    ///
    /// # Panics
    ///
    /// Panics if a column is out of range for that many rows, or if
    /// their number exceeds the `u32` index range.
    pub(crate) fn finish(self) -> SparseMatrix {
        let n = self.row_ptr.len() - 1;
        assert!(
            u32::try_from(n).is_ok(),
            "dimension {n} exceeds u32 indices"
        );
        assert!(
            self.cols.iter().all(|&c| (c as usize) < n),
            "column out of range for n={n}"
        );
        SparseMatrix {
            n,
            row_ptr: self.row_ptr,
            cols: self.cols,
            vals: self.vals,
        }
    }
}

/// Rows summed in lock-step by one [`LaneMatrix`] group. A constant:
/// 4 and 8 lanes measured alike on the n = 2 DD chain.
const LANES: usize = 8;

/// A square matrix laid out for the `out = M · x` gather of the
/// uniformization solvers.
///
/// Rows are sorted by `(length, row)` and numbered by that order, their
/// *positions*. Each run of rows of equal length is cut into groups of
/// [`LANES`] rows whose entries are stored interleaved — entry `k` of
/// all eight rows, then entry `k + 1` — so the eight sums advance in
/// lock-step with no per-row branch; the run's remaining rows are
/// stored and summed one by one. Vectors the kernel reads and writes
/// are indexed by position too (the column indices are remapped once),
/// so each group writes eight adjacent outputs;
/// [`to_positions`](LaneMatrix::to_positions) and
/// [`to_rows`](LaneMatrix::to_rows) convert at the ends of a solve.
///
/// Every output starts from `+0.0` and adds `x[j] · M[i][j]` over its
/// row in the row's stored order, exactly as the plain row-by-row
/// gather does: only which rows are summed together and where vector
/// entries live change, so the result is the same bit for bit.
#[derive(Debug)]
pub(crate) struct LaneMatrix {
    /// Position of each row.
    position: Vec<u32>,
    /// `(row length, row count)` per run, in position order.
    runs: Vec<(usize, usize)>,
    /// Column positions, in storage order.
    cols: Vec<u32>,
    vals: Vec<f64>,
}

impl LaneMatrix {
    /// Lays out `m`.
    pub(crate) fn new(m: &SparseMatrix) -> Self {
        let n = m.n;
        let len = |r: usize| m.row_ptr[r + 1] - m.row_ptr[r];
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.sort_unstable_by_key(|&r| (len(r as usize), r));
        let mut position = vec![0u32; n];
        for (p, &r) in order.iter().enumerate() {
            position[r as usize] = p as u32;
        }
        let mut runs: Vec<(usize, usize)> = Vec::new();
        for &r in &order {
            match runs.last_mut() {
                Some((l, count)) if *l == len(r as usize) => *count += 1,
                _ => runs.push((len(r as usize), 1)),
            }
        }
        let mut cols = Vec::with_capacity(m.nnz());
        let mut vals = Vec::with_capacity(m.nnz());
        let mut rows = order.iter().map(|&r| r as usize);
        for &(l, count) in &runs {
            for _ in 0..count / LANES {
                let group: [usize; LANES] =
                    std::array::from_fn(|_| rows.next().expect("run holds the group"));
                for k in 0..l {
                    for &r in &group {
                        let e = m.row_ptr[r] + k;
                        cols.push(position[m.cols[e] as usize]);
                        vals.push(m.vals[e]);
                    }
                }
            }
            for r in rows.by_ref().take(count % LANES) {
                let (lo, hi) = (m.row_ptr[r], m.row_ptr[r + 1]);
                cols.extend(m.cols[lo..hi].iter().map(|&c| position[c as usize]));
                vals.extend_from_slice(&m.vals[lo..hi]);
            }
        }
        LaneMatrix {
            position,
            runs,
            cols,
            vals,
        }
    }

    /// Reorders a row-indexed vector into position order.
    pub(crate) fn to_positions(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.position.len(), "length mismatch");
        let mut out = vec![0.0; x.len()];
        for (&p, &v) in self.position.iter().zip(x) {
            out[p as usize] = v;
        }
        out
    }

    /// Reorders a position-indexed vector back into row order.
    pub(crate) fn to_rows(&self, y: &[f64]) -> Vec<f64> {
        assert_eq!(y.len(), self.position.len(), "length mismatch");
        self.position.iter().map(|&p| y[p as usize]).collect()
    }

    /// Computes `out = M · x`, both in position order.
    ///
    /// # Panics
    ///
    /// Panics if dimensions disagree.
    pub(crate) fn mul_vec(&self, x: &[f64], out: &mut [f64]) {
        let n = self.position.len();
        assert_eq!(x.len(), n, "input length mismatch");
        assert_eq!(out.len(), n, "output length mismatch");
        let (mut e, mut p) = (0, 0);
        for &(len, count) in &self.runs {
            let block = len * LANES;
            for _ in 0..count / LANES {
                let cols = self.cols[e..e + block].chunks_exact(LANES);
                let vals = self.vals[e..e + block].chunks_exact(LANES);
                let mut acc = [0.0; LANES];
                for (c, v) in cols.zip(vals) {
                    for lane in 0..LANES {
                        acc[lane] += x[c[lane] as usize] * v[lane];
                    }
                }
                out[p..p + LANES].copy_from_slice(&acc);
                e += block;
                p += LANES;
            }
            for _ in 0..count % LANES {
                out[p] = self.cols[e..e + len]
                    .iter()
                    .zip(&self.vals[e..e + len])
                    .fold(0.0, |acc, (&j, &v)| acc + x[j as usize] * v);
                e += len;
                p += 1;
            }
        }
    }
}

/// The plain row gather [`LaneMatrix`] replaces, kept as the test
/// reference: `out[i]` sums `M[i][j] · x[j]` over the row in ascending
/// `j`, from `+0.0`.
#[cfg(test)]
pub(crate) fn row_gather(m: &SparseMatrix, x: &[f64], out: &mut [f64]) {
    for (o, bounds) in out.iter_mut().zip(m.row_ptr.windows(2)) {
        let (lo, hi) = (bounds[0], bounds[1]);
        *o = m.cols[lo..hi]
            .iter()
            .zip(&m.vals[lo..hi])
            .fold(0.0, |acc, (&j, &v)| acc + x[j as usize] * v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// SplitMix64: a seeded stream for the random matrices below.
    struct Mix(u64);
    impl Mix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
        fn unit(&mut self) -> f64 {
            (self.next() >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    /// A random `n × n` row-stochastic CSR matrix: row lengths drawn up
    /// to `max_len` (0 and 1 included; empty rows stay empty), distinct
    /// random columns, positive weights normalized per row.
    fn random_stochastic(mix: &mut Mix, n: usize, max_len: usize) -> SparseMatrix {
        let mut triplets = Vec::new();
        for r in 0..n {
            let len = mix.below(max_len.min(n) + 1);
            let mut cols: Vec<usize> = Vec::new();
            while cols.len() < len {
                let c = mix.below(n);
                if !cols.contains(&c) {
                    cols.push(c);
                }
            }
            let w: Vec<f64> = cols.iter().map(|_| mix.unit() + 1e-3).collect();
            let total: f64 = w.iter().sum();
            triplets.extend(cols.into_iter().zip(w).map(|(c, w)| (r, c, w / total)));
        }
        SparseMatrix::from_triplets(n, triplets)
    }

    fn assert_lanes_match_row_gather(m: &SparseMatrix, mix: &mut Mix) {
        let n = m.n();
        let lanes = LaneMatrix::new(m);
        let mut x: Vec<f64> = (0..n).map(|_| mix.unit()).collect();
        let mut want = vec![0.0; n];
        let mut got = vec![0.0; n];
        // A few chained steps, so later inputs are kernel outputs.
        for _ in 0..4 {
            row_gather(m, &x, &mut want);
            lanes.mul_vec(&lanes.to_positions(&x), &mut got);
            let got = lanes.to_rows(&got);
            for i in 0..n {
                assert_eq!(
                    got[i].to_bits(),
                    want[i].to_bits(),
                    "n={n} row {i}: {} vs {}",
                    got[i],
                    want[i]
                );
            }
            x.clone_from(&want);
        }
    }

    #[test]
    fn lane_kernel_matches_row_gather_bit_for_bit() {
        let mut mix = Mix(17);
        // 1-state chain, n below the lane width, and sizes whose
        // equal-length runs leave every remainder modulo the lanes.
        for &(n, max_len) in &[
            (1, 1),
            (1, 0),
            (3, 3),
            (7, 4),
            (8, 2),
            (9, 9),
            (61, 13),
            (500, 3),
            (2_000, 11),
        ] {
            for _ in 0..3 {
                let m = random_stochastic(&mut mix, n, max_len);
                assert_lanes_match_row_gather(&m, &mut mix);
            }
        }
    }

    #[test]
    fn lane_kernel_handles_empty_and_single_entry_rows() {
        let mut mix = Mix(3);
        // Rows 0, 2, 5.. empty; rows 1, 3 of length 1; 8 + 3 rows of
        // length 2 (one full group and a remainder).
        let mut triplets = vec![(1, 4, 1.0), (3, 0, 1.0)];
        for r in 10..21 {
            triplets.push((r, r - 10, 0.25));
            triplets.push((r, r - 1, 0.75));
        }
        let m = SparseMatrix::from_triplets(21, triplets);
        assert_lanes_match_row_gather(&m, &mut mix);
    }

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
    fn uniformized_transpose_matches_triplets() {
        // Q off-diagonal: 0→1 at 2, 0→2 at 1, 2→0 at 4; state 1 absorbing.
        let rates = SparseMatrix::from_triplets(3, vec![(0, 1, 2.0), (0, 2, 1.0), (2, 0, 4.0)]);
        let exit = rates.row_sums();
        let q = 5.0;
        let pt = rates.uniformized_transpose(&exit, q);
        let reference = SparseMatrix::from_triplets(
            3,
            vec![
                (0, 0, 1.0 - 3.0 / q),
                (1, 0, 2.0 / q),
                (2, 0, 1.0 / q),
                // P[1][1] = 1.
                (1, 1, 1.0),
                (0, 2, 4.0 / q),
                (2, 2, 1.0 - 4.0 / q),
            ],
        );
        assert_eq!(pt, reference);
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
