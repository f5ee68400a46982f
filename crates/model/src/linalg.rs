//! A small dense row-major matrix type with exactly the operations the
//! regression model needs: products, transpose, and a linear solve via
//! Gaussian elimination with partial pivoting.

/// Dense row-major matrix of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// A rows×cols matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Build from nested rows.
    ///
    /// # Panics
    /// Panics if the rows have unequal lengths.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        let r = rows.len();
        let c = rows.first().map(|row| row.len()).unwrap_or(0);
        assert!(rows.iter().all(|row| row.len() == c), "ragged rows");
        Matrix {
            rows: r,
            cols: c,
            data: rows.iter().flat_map(|row| row.iter().copied()).collect(),
        }
    }

    /// A column vector.
    pub fn column(values: &[f64]) -> Self {
        Matrix {
            rows: values.len(),
            cols: 1,
            data: values.to_vec(),
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element access.
    pub fn get(&self, r: usize, c: usize) -> f64 {
        self.data[r * self.cols + c]
    }

    /// Element mutation.
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        self.data[r * self.cols + c] = v;
    }

    /// Transpose.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                t.set(c, r, self.get(r, c));
            }
        }
        t
    }

    /// Matrix product.
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "dimension mismatch");
        let mut out = Matrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self.get(i, k);
                if a == 0.0 {
                    continue;
                }
                for j in 0..other.cols {
                    out.set(i, j, out.get(i, j) + a * other.get(k, j));
                }
            }
        }
        out
    }

    /// Add `lambda` to every diagonal element (ridge regularization).
    pub fn add_diagonal(&mut self, lambda: f64) {
        let n = self.rows.min(self.cols);
        for i in 0..n {
            self.set(i, i, self.get(i, i) + lambda);
        }
    }

    /// Solve `self · x = b` with Gaussian elimination and partial pivoting;
    /// returns `None` if the matrix is numerically singular.
    pub fn solve(&self, b: &Matrix) -> Option<Matrix> {
        assert_eq!(self.rows, self.cols, "solve requires a square matrix");
        assert_eq!(b.rows, self.rows, "right-hand side size mismatch");
        let n = self.rows;
        let m = b.cols;
        // Augmented working copy.
        let mut a = self.clone();
        let mut x = b.clone();
        for col in 0..n {
            // Pivot.
            let mut pivot = col;
            for r in (col + 1)..n {
                if a.get(r, col).abs() > a.get(pivot, col).abs() {
                    pivot = r;
                }
            }
            if a.get(pivot, col).abs() < 1e-14 {
                return None;
            }
            if pivot != col {
                for c in 0..n {
                    let tmp = a.get(col, c);
                    a.set(col, c, a.get(pivot, c));
                    a.set(pivot, c, tmp);
                }
                for c in 0..m {
                    let tmp = x.get(col, c);
                    x.set(col, c, x.get(pivot, c));
                    x.set(pivot, c, tmp);
                }
            }
            // Eliminate below.
            let p = a.get(col, col);
            for r in (col + 1)..n {
                let factor = a.get(r, col) / p;
                if factor == 0.0 {
                    continue;
                }
                for c in col..n {
                    a.set(r, c, a.get(r, c) - factor * a.get(col, c));
                }
                for c in 0..m {
                    x.set(r, c, x.get(r, c) - factor * x.get(col, c));
                }
            }
        }
        // Back substitution.
        for col in (0..n).rev() {
            let p = a.get(col, col);
            for c in 0..m {
                let mut v = x.get(col, c);
                for k in (col + 1)..n {
                    v -= a.get(col, k) * x.get(k, c);
                }
                x.set(col, c, v / p);
            }
        }
        Some(x)
    }

    /// Flatten a single-column matrix into a vector.
    pub fn to_vec(&self) -> Vec<f64> {
        self.data.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn identity(n: usize) -> Matrix {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    #[test]
    fn matmul_and_transpose() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = Matrix::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c.get(0, 0), 19.0);
        assert_eq!(c.get(1, 1), 50.0);
        let t = a.transpose();
        assert_eq!(t.get(0, 1), 3.0);
        assert_eq!(identity(3).matmul(&identity(3)), identity(3));
    }

    #[test]
    fn solve_recovers_known_solution() {
        let a = Matrix::from_rows(&[
            vec![4.0, 1.0, 0.0],
            vec![1.0, 3.0, 1.0],
            vec![0.0, 1.0, 2.0],
        ]);
        let x_true = Matrix::column(&[1.0, -2.0, 3.0]);
        let b = a.matmul(&x_true);
        let x = a.solve(&b).unwrap();
        for i in 0..3 {
            assert!((x.get(i, 0) - x_true.get(i, 0)).abs() < 1e-10);
        }
    }

    #[test]
    fn singular_matrix_returns_none() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0]]);
        let b = Matrix::column(&[1.0, 2.0]);
        assert!(a.solve(&b).is_none());
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        let a = Matrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]);
        let b = Matrix::column(&[2.0, 3.0]);
        let x = a.solve(&b).unwrap();
        assert!((x.get(0, 0) - 3.0).abs() < 1e-12);
        assert!((x.get(1, 0) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn add_diagonal_is_ridge_shift() {
        let mut a = identity(2);
        a.add_diagonal(0.5);
        assert_eq!(a.get(0, 0), 1.5);
        assert_eq!(a.get(1, 1), 1.5);
        assert_eq!(a.get(0, 1), 0.0);
    }
}
