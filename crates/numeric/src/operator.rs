//! The [`LinearOperator`] abstraction: anything that can apply `y = A·x`
//! and `y = Aᵀ·x` into preallocated buffers.
//!
//! The EM/EMS reconstruction loop only ever *applies* the transition
//! matrix — it never inspects entries. Abstracting the application lets
//! structured implementations (for example the banded-plus-baseline form of
//! Square Wave transition matrices in `ldp-sw`) replace the dense O(d·d̃)
//! matvec with an O(d + d̃) one without changing any solver code. The
//! dense [`Matrix`] implements the trait by delegating to
//! its existing kernels, so every call site accepts either representation.
//!
//! The banded operator sums every plateau run through a window of the
//! input's running sums. A caller that already holds them — the EM loop
//! forms them in the pass that writes the vector — hands them over through
//! [`LinearOperator::matvec_prefix_into`] and
//! [`LinearOperator::matvec_transpose_prefix_into`]; operators that read no
//! running sums, the dense [`Matrix`] among them, ignore them.

use crate::error::NumericError;
use crate::matrix::Matrix;

/// A real linear map `A: R^cols → R^rows` that can be applied (and
/// transpose-applied) into caller-provided buffers.
///
/// The trait is object-safe: solvers can take `&dyn LinearOperator` or be
/// generic over `Op: LinearOperator + ?Sized`.
pub trait LinearOperator {
    /// Number of rows (the output dimension of [`Self::matvec_into`]).
    fn rows(&self) -> usize;

    /// Number of columns (the input dimension of [`Self::matvec_into`]).
    fn cols(&self) -> usize;

    /// `y = A·x`, writing into a preallocated buffer.
    ///
    /// `x` must have length [`Self::cols`] and `y` length [`Self::rows`].
    fn matvec_into(&self, x: &[f64], y: &mut [f64]) -> Result<(), NumericError>;

    /// `y = Aᵀ·x`, writing into a preallocated buffer.
    ///
    /// `x` must have length [`Self::rows`] and `y` length [`Self::cols`].
    fn matvec_transpose_into(&self, x: &[f64], y: &mut [f64]) -> Result<(), NumericError>;

    /// `y = A·x`, where `prefix` holds `x`'s running sums as
    /// [`running_sums_into`] forms them (`x.len() + 1` entries).
    ///
    /// Operators that sum windows of `x` read them instead of forming
    /// their own; the provided method ignores them and calls
    /// [`Self::matvec_into`]. The result is that of [`Self::matvec_into`]
    /// whenever `prefix` holds the running sums of `x`.
    fn matvec_prefix_into(
        &self,
        x: &[f64],
        prefix: &[f64],
        y: &mut [f64],
    ) -> Result<(), NumericError> {
        let _ = prefix;
        self.matvec_into(x, y)
    }

    /// `y = Aᵀ·x`, where `prefix` holds `x`'s running sums; see
    /// [`Self::matvec_prefix_into`].
    fn matvec_transpose_prefix_into(
        &self,
        x: &[f64],
        prefix: &[f64],
        y: &mut [f64],
    ) -> Result<(), NumericError> {
        let _ = prefix;
        self.matvec_transpose_into(x, y)
    }

    /// `A·x` into a fresh vector.
    fn matvec(&self, x: &[f64]) -> Result<Vec<f64>, NumericError> {
        let mut y = vec![0.0; self.rows()];
        self.matvec_into(x, &mut y)?;
        Ok(y)
    }

    /// `Aᵀ·x` into a fresh vector.
    fn matvec_transpose(&self, x: &[f64]) -> Result<Vec<f64>, NumericError> {
        let mut y = vec![0.0; self.cols()];
        self.matvec_transpose_into(x, &mut y)?;
        Ok(y)
    }
}

impl LinearOperator for Matrix {
    fn rows(&self) -> usize {
        Matrix::rows(self)
    }

    fn cols(&self) -> usize {
        Matrix::cols(self)
    }

    fn matvec_into(&self, x: &[f64], y: &mut [f64]) -> Result<(), NumericError> {
        Matrix::matvec_into(self, x, y)
    }

    fn matvec_transpose_into(&self, x: &[f64], y: &mut [f64]) -> Result<(), NumericError> {
        Matrix::matvec_transpose_into(self, x, y)
    }
}

/// Writes `x`'s running sums, left to right, into `prefix`:
/// `prefix[0] = 0` and `prefix[k + 1] = prefix[k] + x[k]`, so `prefix[k]`
/// is the sum of `x[..k]` and `prefix[x.len()]` the sum of `x`. This is
/// the order [`LinearOperator::matvec_prefix_into`] expects.
///
/// # Panics
///
/// Panics unless `prefix.len() == x.len() + 1`.
pub fn running_sums_into(x: &[f64], prefix: &mut [f64]) {
    assert_eq!(
        prefix.len(),
        x.len() + 1,
        "running sums of {} entries",
        x.len()
    );
    let mut acc = 0.0;
    prefix[0] = acc;
    for (p, &v) in prefix[1..].iter_mut().zip(x) {
        acc += v;
        *p = acc;
    }
}

/// Checks the buffer lengths a [`LinearOperator::matvec_into`] call expects.
///
/// Shared by structured operator implementations so their error messages
/// match the dense matrix's.
pub fn check_matvec_dims(
    rows: usize,
    cols: usize,
    x: &[f64],
    y: &[f64],
) -> Result<(), NumericError> {
    if x.len() != cols || y.len() != rows {
        return Err(NumericError::DimensionMismatch {
            expected: format!("x of length {cols}, y of length {rows}"),
            actual: format!("x of length {}, y of length {}", x.len(), y.len()),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn apply_dyn(op: &dyn LinearOperator, x: &[f64]) -> Vec<f64> {
        op.matvec(x).unwrap()
    }

    #[test]
    fn matrix_implements_operator_consistently() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let x = [1.0, 0.5, -1.0];
        let via_trait = LinearOperator::matvec(&a, &x).unwrap();
        let direct = a.matvec(&x).unwrap();
        assert_eq!(via_trait, direct);
        let y = [2.0, -1.0];
        let via_trait = LinearOperator::matvec_transpose(&a, &y).unwrap();
        assert_eq!(via_trait, a.matvec_transpose(&y).unwrap());
        assert_eq!(LinearOperator::rows(&a), 2);
        assert_eq!(LinearOperator::cols(&a), 3);
    }

    #[test]
    fn trait_is_object_safe() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 0.0, 0.0, 2.0]).unwrap();
        let y = apply_dyn(&a, &[3.0, 4.0]);
        assert_eq!(y, vec![3.0, 8.0]);
    }

    #[test]
    fn matrix_ignores_running_sums() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let x = [1.0, 0.5, -1.0];
        let mut prefix = [0.0; 4];
        running_sums_into(&x, &mut prefix);
        assert_eq!(prefix, [0.0, 1.0, 1.5, 0.5]);
        let mut y = [0.0; 2];
        a.matvec_prefix_into(&x, &[f64::NAN; 4], &mut y).unwrap();
        assert_eq!(y.to_vec(), a.matvec(&x).unwrap());
        let t = [2.0, -1.0];
        let mut z = [0.0; 3];
        a.matvec_transpose_prefix_into(&t, &[f64::NAN; 3], &mut z)
            .unwrap();
        assert_eq!(z.to_vec(), a.matvec_transpose(&t).unwrap());
    }

    #[test]
    fn provided_methods_validate_dims() {
        let a = Matrix::zeros(2, 3);
        assert!(LinearOperator::matvec(&a, &[1.0]).is_err());
        assert!(LinearOperator::matvec_transpose(&a, &[1.0]).is_err());
        assert!(check_matvec_dims(2, 3, &[0.0; 3], &[0.0; 2]).is_ok());
        assert!(check_matvec_dims(2, 3, &[0.0; 2], &[0.0; 2]).is_err());
        assert!(check_matvec_dims(2, 3, &[0.0; 3], &[0.0; 3]).is_err());
    }
}
