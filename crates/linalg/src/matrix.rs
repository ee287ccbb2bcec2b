//! Dense row-major `f64` matrix with cache-blocked, register-tiled
//! product kernels.
//!
//! ## Kernel design
//!
//! The three dense products ([`Matrix::matmul_into`],
//! [`Matrix::t_matmul_into`], [`Matrix::matmul_t`]) dispatch through the
//! [`crate::kernels`] backend layer to a shared blocked micro-kernel:
//! the output is tiled into `MR = 4` row panels, the inner (`k`)
//! dimension into `KC`-wide blocks, and the output columns into
//! `NC`-wide blocks, so the four live output rows plus the streamed
//! operand row stay in L1 while each loaded value feeds four
//! multiply-adds. On the scalar backend the innermost loop is four
//! independent `c += a·b` streams over contiguous slices, which LLVM
//! autovectorizes; the AVX2+FMA backend replaces the inner loops with
//! explicit 4×8 register tiles (see [`crate::kernels`] for selection and
//! the contract). `AᵀB` additionally packs each `KC × MR` operand panel
//! into a small stack buffer so its strided column reads happen once per
//! block.
//!
//! ## Determinism contract
//!
//! Within a backend, every element of every product is accumulated in a
//! fixed order no matter how the loops are blocked or which thread owns
//! the row: blocking reorders *independent* output elements and row
//! groupings only, never the summation order inside one element. Large
//! products are parallelized by handing each worker a contiguous range
//! of output rows ([`ldp_parallel::Pool::par_chunks`]); since a row's
//! arithmetic is identical whether it sits in a 4-row micro panel or a
//! remainder tail, results are bit-identical at every thread count.

use std::fmt;
use std::ops::{Add, AddAssign, Index, IndexMut, Mul, Neg, Sub, SubAssign};

use crate::kernels::{matmul_rows, matmul_t_rows, t_matmul_rows};
use crate::{dot, svd};

/// Minimum multiply-add count before a product is worth threading
/// (scoped spawns cost tens of microseconds; this is ~0.5 ms of work).
const PAR_MIN_FLOPS: usize = 1 << 20;

/// A dense matrix of `f64` stored in row-major order.
///
/// Indexing is `m[(row, col)]`. Dimensions are fixed at construction.
///
/// ```
/// use ldp_linalg::Matrix;
/// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// let b = Matrix::identity(2);
/// assert_eq!(a.matmul(&b), a);
/// ```
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// A `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// A `rows × cols` matrix with every entry equal to `value`.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        Self {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// The `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from row slices. All rows must have equal length.
    ///
    /// # Panics
    /// Panics if rows have inconsistent lengths.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "all rows must have the same length");
            data.extend_from_slice(row);
        }
        Self {
            rows: r,
            cols: c,
            data,
        }
    }

    /// Builds a matrix from a flat row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer length must be rows*cols");
        Self { rows, cols, data }
    }

    /// Builds a matrix by evaluating `f(row, col)` at every position.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Self { rows, cols, data }
    }

    /// A square matrix with `diag` on the diagonal and zeros elsewhere.
    pub fn diag(diag: &[f64]) -> Self {
        let n = diag.len();
        let mut m = Self::zeros(n, n);
        for (i, &d) in diag.iter().enumerate() {
            m[(i, i)] = d;
        }
        m
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// True if the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Immutable view of the underlying row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable view of the underlying row-major buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Row `i` as a mutable slice.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Column `j` copied into a new vector.
    pub fn col(&self, j: usize) -> Vec<f64> {
        (0..self.rows).map(|i| self[(i, j)]).collect()
    }

    /// Column `j` copied into a preallocated buffer — the non-allocating
    /// counterpart of [`Matrix::col`].
    ///
    /// # Panics
    /// Panics if `out.len() != self.rows()`.
    pub fn col_into(&self, j: usize, out: &mut [f64]) {
        assert_eq!(out.len(), self.rows, "buffer must hold one entry per row");
        assert!(j < self.cols, "column index out of range");
        for (i, o) in out.iter_mut().enumerate() {
            *o = self.data[i * self.cols + j];
        }
    }

    /// Copies every entry from `src` without reallocating.
    ///
    /// # Panics
    /// Panics if shapes differ.
    pub fn copy_from(&mut self, src: &Matrix) {
        assert_eq!(self.shape(), src.shape(), "shapes must agree");
        self.data.copy_from_slice(&src.data);
    }

    /// Sets column `j` from a slice of length `rows`.
    pub fn set_col(&mut self, j: usize, col: &[f64]) {
        assert_eq!(col.len(), self.rows);
        for (i, &v) in col.iter().enumerate() {
            self[(i, j)] = v;
        }
    }

    /// The transpose.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Matrix product `self * rhs`.
    ///
    /// Cache-blocked and register-tiled (see the module docs); products
    /// above `PAR_MIN_FLOPS` multiply-adds are row-partitioned across
    /// the [`ldp_parallel`] pool with bit-identical results at any
    /// thread count.
    ///
    /// # Panics
    /// Panics if `self.cols() != rhs.rows()`.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        self.matmul_into(rhs, &mut out);
        out
    }

    /// [`Matrix::matmul`] into a preallocated output (overwritten).
    ///
    /// # Panics
    /// Panics if `self.cols() != rhs.rows()` or `out` has the wrong shape.
    pub fn matmul_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(self.cols, rhs.rows, "inner dimensions must agree");
        assert_eq!(out.shape(), (self.rows, rhs.cols), "output shape");
        out.data.fill(0.0);
        let (k, n) = (self.cols, rhs.cols);
        if self.rows == 0 || k == 0 || n == 0 {
            return;
        }
        let pool = ldp_parallel::pool();
        if pool.threads() > 1 && self.rows * k * n >= PAR_MIN_FLOPS {
            pool.par_chunks(&mut out.data, n, |start, chunk| {
                matmul_rows(&self.data, &rhs.data, k, n, start / n, chunk);
            });
        } else {
            matmul_rows(&self.data, &rhs.data, k, n, 0, &mut out.data);
        }
    }

    /// `selfᵀ * rhs` without materializing the transpose.
    pub fn t_matmul(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.cols, rhs.cols);
        self.t_matmul_into(rhs, &mut out);
        out
    }

    /// [`Matrix::t_matmul`] into a preallocated output (overwritten).
    ///
    /// Blocked like [`Matrix::matmul_into`], with the operand's strided
    /// columns packed into a stack panel per block; output rows (= this
    /// matrix's columns) partition across threads for large products.
    ///
    /// # Panics
    /// Panics if `self.rows() != rhs.rows()` or `out` has the wrong shape.
    pub fn t_matmul_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(self.rows, rhs.rows, "row counts must agree for AᵀB");
        assert_eq!(out.shape(), (self.cols, rhs.cols), "output shape");
        out.data.fill(0.0);
        let (r, c, n) = (self.rows, self.cols, rhs.cols);
        if r == 0 || c == 0 || n == 0 {
            return;
        }
        let pool = ldp_parallel::pool();
        if pool.threads() > 1 && r * c * n >= PAR_MIN_FLOPS {
            pool.par_chunks(&mut out.data, n, |start, chunk| {
                t_matmul_rows(&self.data, c, &rhs.data, n, r, start / n, chunk);
            });
        } else {
            t_matmul_rows(&self.data, c, &rhs.data, n, r, 0, &mut out.data);
        }
    }

    /// `self * rhsᵀ` without materializing the transpose: each output
    /// entry is one [`dot`] of two contiguous rows, row-partitioned
    /// across threads for large products.
    pub fn matmul_t(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.cols, rhs.cols, "column counts must agree for ABᵀ");
        let mut out = Matrix::zeros(self.rows, rhs.rows);
        let (k, p) = (self.cols, rhs.rows);
        if self.rows == 0 || k == 0 || p == 0 {
            return out;
        }
        let pool = ldp_parallel::pool();
        if pool.threads() > 1 && self.rows * k * p >= PAR_MIN_FLOPS {
            pool.par_chunks(&mut out.data, p, |start, chunk| {
                matmul_t_rows(&self.data, &rhs.data, k, p, start / p, chunk);
            });
        } else {
            matmul_t_rows(&self.data, &rhs.data, k, p, 0, &mut out.data);
        }
        out
    }

    /// The Gram matrix `selfᵀ * self`.
    pub fn gram(&self) -> Matrix {
        self.t_matmul(self)
    }

    /// Matrix-vector product `self * x`.
    ///
    /// # Panics
    /// Panics if `x.len() != self.cols()`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; self.rows];
        self.matvec_into_slice(x, &mut out);
        out
    }

    /// Writes `self * x` into `out`, splitting the output rows across
    /// threads for large matrices (each entry is an independent [`dot`],
    /// so any partition is bit-identical).
    ///
    /// # Panics
    /// Panics if `x.len() != self.cols()` or `out.len() != self.rows()`.
    pub(crate) fn matvec_into_slice(&self, x: &[f64], out: &mut [f64]) {
        assert_eq!(x.len(), self.cols);
        assert_eq!(out.len(), self.rows);
        let pool = ldp_parallel::pool();
        if pool.threads() > 1 && self.rows * self.cols >= PAR_MIN_FLOPS {
            pool.par_chunks(out, 1, |start, chunk| {
                for (i, o) in chunk.iter_mut().enumerate() {
                    *o = dot(self.row(start + i), x);
                }
            });
        } else {
            for (i, o) in out.iter_mut().enumerate() {
                *o = dot(self.row(i), x);
            }
        }
    }

    /// Transposed matrix-vector product `selfᵀ * x`.
    pub fn t_matvec(&self, x: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; self.cols];
        self.t_matvec_into_slice(x, &mut out);
        out
    }

    /// Writes `selfᵀ * x` into `out`. Large products partition the
    /// *output columns* across threads: every worker accumulates its
    /// column range over the rows in the same ascending order the serial
    /// loop uses, so results are bit-identical at any thread count.
    ///
    /// # Panics
    /// Panics if `x.len() != self.rows()` or `out.len() != self.cols()`.
    pub(crate) fn t_matvec_into_slice(&self, x: &[f64], out: &mut [f64]) {
        assert_eq!(x.len(), self.rows);
        assert_eq!(out.len(), self.cols);
        let cols = self.cols;
        let pool = ldp_parallel::pool();
        if pool.threads() > 1 && self.rows * cols >= PAR_MIN_FLOPS {
            pool.par_chunks(out, 1, |j0, chunk| {
                chunk.fill(0.0);
                let jw = chunk.len();
                for (i, &xi) in x.iter().enumerate() {
                    if xi == 0.0 {
                        continue;
                    }
                    crate::axpy(xi, &self.data[i * cols + j0..][..jw], chunk);
                }
            });
        } else {
            out.fill(0.0);
            for (i, &xi) in x.iter().enumerate() {
                if xi == 0.0 {
                    continue;
                }
                crate::axpy(xi, self.row(i), out);
            }
        }
    }

    /// Scales every entry by `alpha`, in place.
    pub fn scale_mut(&mut self, alpha: f64) {
        for v in &mut self.data {
            *v *= alpha;
        }
    }

    /// A scaled copy `alpha * self`.
    pub fn scaled(&self, alpha: f64) -> Matrix {
        let mut m = self.clone();
        m.scale_mut(alpha);
        m
    }

    /// Sum of the diagonal entries.
    ///
    /// # Panics
    /// Panics if the matrix is not square.
    pub fn trace(&self) -> f64 {
        assert!(self.is_square(), "trace requires a square matrix");
        (0..self.rows).map(|i| self[(i, i)]).sum()
    }

    /// Frobenius norm `‖A‖_F`.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Largest absolute entry (the max-norm), 0 for empty matrices.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0, |acc, v| acc.max(v.abs()))
    }

    /// Row sums, i.e. `A·1`.
    pub fn row_sums(&self) -> Vec<f64> {
        (0..self.rows).map(|i| self.row(i).iter().sum()).collect()
    }

    /// [`Matrix::row_sums`] into a preallocated buffer.
    ///
    /// # Panics
    /// Panics if `out.len() != self.rows()`.
    pub fn row_sums_into(&self, out: &mut [f64]) {
        assert_eq!(out.len(), self.rows);
        for (i, o) in out.iter_mut().enumerate() {
            *o = self.row(i).iter().sum();
        }
    }

    /// Column sums, i.e. `Aᵀ·1`.
    pub fn col_sums(&self) -> Vec<f64> {
        let mut sums = vec![0.0; self.cols];
        for i in 0..self.rows {
            crate::axpy(1.0, self.row(i), &mut sums);
        }
        sums
    }

    /// Scales row `i` by `alpha[i]`, i.e. computes `Diag(alpha) * self`.
    pub fn scale_rows(&self, alpha: &[f64]) -> Matrix {
        assert_eq!(alpha.len(), self.rows);
        let mut m = self.clone();
        for (i, &a) in alpha.iter().enumerate() {
            for v in m.row_mut(i) {
                *v *= a;
            }
        }
        m
    }

    /// [`Matrix::scale_rows`] into a preallocated output (overwritten).
    ///
    /// # Panics
    /// Panics if `alpha.len() != self.rows()` or shapes disagree.
    pub fn scale_rows_into(&self, alpha: &[f64], out: &mut Matrix) {
        assert_eq!(alpha.len(), self.rows);
        assert_eq!(out.shape(), self.shape(), "output shape");
        for (i, &a) in alpha.iter().enumerate() {
            for (o, &v) in out.row_mut(i).iter_mut().zip(self.row(i)) {
                *o = v * a;
            }
        }
    }

    /// Scales column `j` by `alpha[j]`, i.e. computes `self * Diag(alpha)`.
    pub fn scale_cols(&self, alpha: &[f64]) -> Matrix {
        assert_eq!(alpha.len(), self.cols);
        let mut m = self.clone();
        for i in 0..m.rows {
            for (v, &a) in m.row_mut(i).iter_mut().zip(alpha) {
                *v *= a;
            }
        }
        m
    }

    /// True if all entries are finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }

    /// Symmetrizes in place: `A ← (A + Aᵀ)/2`. Useful to remove numerical
    /// asymmetry before a symmetric eigendecomposition.
    pub fn symmetrize(&mut self) {
        assert!(self.is_square());
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                let avg = 0.5 * (self[(i, j)] + self[(j, i)]);
                self[(i, j)] = avg;
                self[(j, i)] = avg;
            }
        }
    }

    /// The Kronecker product `self ⊗ rhs`: the `(i·p + k, j·q + l)` entry
    /// is `self[i,j] · rhs[k,l]` for `rhs` of shape `p × q`. Used to build
    /// multi-dimensional workloads from one-dimensional factors
    /// (`(A ⊗ B)ᵀ(A ⊗ B) = AᵀA ⊗ BᵀB`).
    pub fn kronecker(&self, rhs: &Matrix) -> Matrix {
        let (p, q) = rhs.shape();
        let mut out = Matrix::zeros(self.rows * p, self.cols * q);
        for i in 0..self.rows {
            for j in 0..self.cols {
                let a = self[(i, j)];
                if a == 0.0 {
                    continue;
                }
                for k in 0..p {
                    let rhs_row = rhs.row(k);
                    let out_row = out.row_mut(i * p + k);
                    for (l, &b) in rhs_row.iter().enumerate() {
                        out_row[j * q + l] = a * b;
                    }
                }
            }
        }
        out
    }

    /// Moore–Penrose pseudo-inverse via SVD (works for any shape).
    ///
    /// Singular values below `max_sv * rows.max(cols) * f64::EPSILON` are
    /// treated as zero — the same convention as NumPy's `pinv`.
    pub fn pinv(&self) -> Matrix {
        let decomposition = svd(self);
        decomposition.pinv()
    }

    /// Maximum absolute difference between `self` and `other`.
    ///
    /// # Panics
    /// Panics if shapes differ.
    pub fn max_abs_diff(&self, other: &Matrix) -> f64 {
        assert_eq!(self.shape(), other.shape());
        self.data
            .iter()
            .zip(&other.data)
            .fold(0.0, |acc, (a, b)| acc.max((a - b).abs()))
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

impl Add for &Matrix {
    type Output = Matrix;

    fn add(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape());
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| a + b)
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }
}

impl Sub for &Matrix {
    type Output = Matrix;

    fn sub(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape());
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| a - b)
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }
}

impl AddAssign<&Matrix> for Matrix {
    fn add_assign(&mut self, rhs: &Matrix) {
        assert_eq!(self.shape(), rhs.shape());
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a += b;
        }
    }
}

impl SubAssign<&Matrix> for Matrix {
    fn sub_assign(&mut self, rhs: &Matrix) {
        assert_eq!(self.shape(), rhs.shape());
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a -= b;
        }
    }
}

impl Mul<f64> for &Matrix {
    type Output = Matrix;

    fn mul(self, alpha: f64) -> Matrix {
        self.scaled(alpha)
    }
}

impl Neg for &Matrix {
    type Output = Matrix;

    fn neg(self) -> Matrix {
        self.scaled(-1.0)
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let max_rows = 8.min(self.rows);
        for i in 0..max_rows {
            write!(f, "  [")?;
            let max_cols = 8.min(self.cols);
            for j in 0..max_cols {
                write!(f, "{:10.4}", self[(i, j)])?;
                if j + 1 < max_cols {
                    write!(f, ", ")?;
                }
            }
            if self.cols > max_rows {
                write!(f, ", ...")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > max_rows {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-12, "{a} != {b}");
    }

    #[test]
    fn identity_matmul_is_noop() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let i3 = Matrix::identity(3);
        assert_eq!(a.matmul(&i3), a);
    }

    #[test]
    fn matmul_small() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn t_matmul_matches_explicit_transpose() {
        let a = Matrix::from_fn(4, 3, |i, j| (i * 3 + j) as f64);
        let b = Matrix::from_fn(4, 5, |i, j| (i + 2 * j) as f64 * 0.5);
        let lhs = a.t_matmul(&b);
        let rhs = a.transpose().matmul(&b);
        assert!(lhs.max_abs_diff(&rhs) < 1e-14);
    }

    #[test]
    fn matmul_t_matches_explicit_transpose() {
        let a = Matrix::from_fn(4, 3, |i, j| (i * 3 + j) as f64);
        let b = Matrix::from_fn(5, 3, |i, j| (i + 2 * j) as f64 * 0.5);
        let lhs = a.matmul_t(&b);
        let rhs = a.matmul(&b.transpose());
        assert!(lhs.max_abs_diff(&rhs) < 1e-14);
    }

    #[test]
    fn matvec_and_t_matvec() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        assert_eq!(a.matvec(&[1.0, 1.0]), vec![3.0, 7.0, 11.0]);
        assert_eq!(a.t_matvec(&[1.0, 1.0, 1.0]), vec![9.0, 12.0]);
    }

    #[test]
    fn trace_and_norms() {
        let a = Matrix::from_rows(&[&[3.0, 0.0], &[0.0, 4.0]]);
        approx(a.trace(), 7.0);
        approx(a.frobenius_norm(), 5.0);
        approx(a.max_abs(), 4.0);
    }

    #[test]
    fn row_and_col_sums() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(a.row_sums(), vec![3.0, 7.0]);
        assert_eq!(a.col_sums(), vec![4.0, 6.0]);
    }

    #[test]
    fn scale_rows_cols() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let r = a.scale_rows(&[2.0, 10.0]);
        assert_eq!(r, Matrix::from_rows(&[&[2.0, 4.0], &[30.0, 40.0]]));
        let c = a.scale_cols(&[2.0, 10.0]);
        assert_eq!(c, Matrix::from_rows(&[&[2.0, 20.0], &[6.0, 40.0]]));
    }

    #[test]
    fn symmetrize_averages_off_diagonal() {
        let mut a = Matrix::from_rows(&[&[1.0, 3.0], &[1.0, 2.0]]);
        a.symmetrize();
        assert_eq!(a, Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 2.0]]));
    }

    #[test]
    fn arithmetic_ops() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]);
        let b = Matrix::from_rows(&[&[3.0, 5.0]]);
        assert_eq!(&a + &b, Matrix::from_rows(&[&[4.0, 7.0]]));
        assert_eq!(&b - &a, Matrix::from_rows(&[&[2.0, 3.0]]));
        assert_eq!(&a * 2.0, Matrix::from_rows(&[&[2.0, 4.0]]));
        assert_eq!(-&a, Matrix::from_rows(&[&[-1.0, -2.0]]));
    }

    #[test]
    fn gram_is_symmetric_psd_diag() {
        let a = Matrix::from_fn(5, 3, |i, j| ((i + 1) * (j + 2)) as f64 / 7.0);
        let g = a.gram();
        assert!(g.max_abs_diff(&g.transpose()) < 1e-14);
        for j in 0..3 {
            assert!(g[(j, j)] >= 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn matmul_shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn kronecker_small() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]);
        let b = Matrix::from_rows(&[&[3.0], &[4.0]]);
        let k = a.kronecker(&b);
        assert_eq!(k, Matrix::from_rows(&[&[3.0, 6.0], &[4.0, 8.0]]));
    }

    #[test]
    fn kronecker_identity_gram_identity() {
        // (A ⊗ B)ᵀ(A ⊗ B) = AᵀA ⊗ BᵀB.
        let a = Matrix::from_fn(3, 2, |i, j| (i + 2 * j) as f64 - 1.0);
        let b = Matrix::from_fn(2, 2, |i, j| (i * j + 1) as f64);
        let lhs = a.kronecker(&b).gram();
        let rhs = a.gram().kronecker(&b.gram());
        assert!(lhs.max_abs_diff(&rhs) < 1e-12);
    }

    #[test]
    fn from_vec_roundtrip() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(a[(1, 0)], 3.0);
        assert_eq!(a.as_slice(), &[1.0, 2.0, 3.0, 4.0]);
    }
}
