//! A dense row-major `f32` matrix.

use std::fmt;
use std::ops::{Index, IndexMut};

use sim::DetRng;

/// A dense row-major matrix of `f32` values.
///
/// # Examples
///
/// ```
/// use tensor::Matrix;
///
/// let m = Matrix::from_fn(2, 3, |r, c| (r * 3 + c) as f32);
/// assert_eq!(m[(1, 2)], 5.0);
/// assert_eq!(m.row(1), &[3.0, 4.0, 5.0]);
/// ```
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a zero-filled matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix from a generator over `(row, col)`.
    pub fn from_fn<F: FnMut(usize, usize) -> f32>(rows: usize, cols: usize, mut f: F) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Creates a matrix from an existing row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer length {} does not match {}x{}",
            data.len(),
            rows,
            cols
        );
        Matrix { rows, cols, data }
    }

    /// Creates a matrix with uniform random entries in `[-1, 1)`.
    pub fn random(rows: usize, cols: usize, rng: &mut DetRng) -> Self {
        Matrix::from_fn(rows, cols, |_, _| rng.uniform(-1.0, 1.0) as f32)
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total element count.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns true if the matrix has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The underlying row-major buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable access to the underlying row-major buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Borrows row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(r < self.rows, "row {} out of bounds ({})", r, self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrows row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert!(r < self.rows, "row {} out of bounds ({})", r, self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copies a rectangular region into a new matrix.
    ///
    /// # Panics
    ///
    /// Panics if the region exceeds the matrix bounds.
    pub fn submatrix(&self, row0: usize, col0: usize, rows: usize, cols: usize) -> Matrix {
        assert!(
            row0 + rows <= self.rows && col0 + cols <= self.cols,
            "submatrix [{row0}+{rows}, {col0}+{cols}] exceeds {}x{}",
            self.rows,
            self.cols
        );
        Matrix::from_fn(rows, cols, |r, c| self[(row0 + r, col0 + c)])
    }

    /// Writes `block` into this matrix at `(row0, col0)`.
    ///
    /// # Panics
    ///
    /// Panics if the block exceeds the matrix bounds.
    pub fn write_block(&mut self, row0: usize, col0: usize, block: &Matrix) {
        assert!(
            row0 + block.rows <= self.rows && col0 + block.cols <= self.cols,
            "block [{row0}+{}, {col0}+{}] exceeds {}x{}",
            block.rows,
            block.cols,
            self.rows,
            self.cols
        );
        for r in 0..block.rows {
            let dst = (row0 + r) * self.cols + col0;
            self.data[dst..dst + block.cols].copy_from_slice(block.row(r));
        }
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |r, c| self[(c, r)])
    }

    /// Element-wise sum of two equal-shape matrices.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "shape mismatch in add"
        );
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a + b)
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Scales every element by `s`.
    pub fn scale(&self, s: f32) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|x| x * s).collect(),
        }
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f32;

    fn index(&self, (r, c): (usize, usize)) -> &f32 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r}, {c}) out of bounds ({}x{})",
            self.rows,
            self.cols
        );
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f32 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r}, {c}) out of bounds ({}x{})",
            self.rows,
            self.cols
        );
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let show_rows = self.rows.min(6);
        for r in 0..show_rows {
            let row = self.row(r);
            let shown: Vec<String> = row.iter().take(8).map(|x| format!("{x:8.4}")).collect();
            let ellipsis = if self.cols > 8 { ", ..." } else { "" };
            writeln!(f, "  [{}{}]", shown.join(", "), ellipsis)?;
        }
        if self.rows > show_rows {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_shape() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 4);
        assert_eq!(m.len(), 12);
        assert!(m.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn from_fn_layout_is_row_major() {
        let m = Matrix::from_fn(2, 3, |r, c| (r * 10 + c) as f32);
        assert_eq!(m.as_slice(), &[0.0, 1.0, 2.0, 10.0, 11.0, 12.0]);
        assert_eq!(m[(1, 2)], 12.0);
    }

    #[test]
    fn row_access() {
        let m = Matrix::from_fn(3, 2, |r, c| (r * 2 + c) as f32);
        assert_eq!(m.row(2), &[4.0, 5.0]);
    }

    #[test]
    fn row_mut_writes() {
        let mut m = Matrix::zeros(2, 2);
        m.row_mut(1).copy_from_slice(&[7.0, 8.0]);
        assert_eq!(m[(1, 0)], 7.0);
        assert_eq!(m[(1, 1)], 8.0);
    }

    #[test]
    fn submatrix_and_write_block_roundtrip() {
        let m = Matrix::from_fn(6, 6, |r, c| (r * 6 + c) as f32);
        let block = m.submatrix(2, 3, 2, 2);
        assert_eq!(block[(0, 0)], 15.0);
        assert_eq!(block[(1, 1)], 22.0);
        let mut out = Matrix::zeros(6, 6);
        out.write_block(2, 3, &block);
        assert_eq!(out[(2, 3)], 15.0);
        assert_eq!(out[(3, 4)], 22.0);
        assert_eq!(out[(0, 0)], 0.0);
    }

    #[test]
    fn transpose_involution() {
        let mut rng = DetRng::new(3);
        let m = Matrix::random(4, 7, &mut rng);
        assert_eq!(m.transpose().transpose(), m);
        assert_eq!(m.transpose()[(5, 2)], m[(2, 5)]);
    }

    #[test]
    fn add_and_scale() {
        let a = Matrix::from_fn(2, 2, |r, c| (r + c) as f32);
        let b = a.scale(2.0);
        let c = a.add(&b);
        assert_eq!(c[(1, 1)], 6.0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn index_out_of_bounds_panics() {
        let m = Matrix::zeros(2, 2);
        let _ = m[(2, 0)];
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn from_vec_shape_mismatch_panics() {
        let _ = Matrix::from_vec(2, 2, vec![0.0; 3]);
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let mut r1 = DetRng::new(5);
        let mut r2 = DetRng::new(5);
        assert_eq!(Matrix::random(3, 3, &mut r1), Matrix::random(3, 3, &mut r2));
    }

    #[test]
    fn debug_format_truncates() {
        let m = Matrix::zeros(10, 20);
        let text = format!("{m:?}");
        assert!(text.contains("Matrix 10x20"));
        assert!(text.contains("..."));
    }
}
