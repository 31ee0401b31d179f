//! Dense `f32` tensors with shape checking.
//!
//! Deliberately minimal: the layers in this crate index into the flat buffer
//! directly (they know their own geometry), so the tensor type only has to
//! carry shape metadata, validate construction and provide the couple of
//! dense-algebra helpers the linear layer and tests use.

use std::fmt;

/// Most dimensions a tensor can have (`[batch, ch, h, w]`).
const MAX_RANK: usize = 4;

/// A dense row-major `f32` array with an explicit shape.
///
/// The shape is stored inline: a tensor is created per layer per pass, and
/// at the smallest models a heap-allocated shape costs as much as the
/// arithmetic.
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    /// Dimensions past `rank` are zero.
    dims: [usize; MAX_RANK],
    rank: usize,
    data: Vec<f32>,
}

fn inline_shape(shape: &[usize]) -> ([usize; MAX_RANK], usize) {
    assert!(
        shape.len() <= MAX_RANK,
        "shape {shape:?} has more than {MAX_RANK} dimensions"
    );
    let mut dims = [0; MAX_RANK];
    dims[..shape.len()].copy_from_slice(shape);
    (dims, shape.len())
}

impl Tensor {
    /// All-zeros tensor of the given shape.
    pub fn zeros(shape: &[usize]) -> Self {
        Self::from_vec(shape, vec![0.0; shape.iter().product()])
    }

    /// Wraps a buffer, validating that the element count matches the shape.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != shape.iter().product()` or the shape has
    /// more than four dimensions.
    pub fn from_vec(shape: &[usize], data: Vec<f32>) -> Self {
        let expected: usize = shape.iter().product();
        assert_eq!(
            data.len(),
            expected,
            "shape {shape:?} needs {expected} elements, got {}",
            data.len()
        );
        let (dims, rank) = inline_shape(shape);
        Self { dims, rank, data }
    }

    /// The shape.
    pub fn shape(&self) -> &[usize] {
        &self.dims[..self.rank]
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The flat buffer.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable access to the flat buffer.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes self, returning the buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Returns a tensor with the same data and a new shape.
    ///
    /// # Panics
    ///
    /// Panics if the element counts differ.
    pub fn reshape(mut self, shape: &[usize]) -> Self {
        let expected: usize = shape.iter().product();
        assert_eq!(self.data.len(), expected, "reshape to {shape:?} mismatch");
        (self.dims, self.rank) = inline_shape(shape);
        self
    }

    /// 2-D matrix multiply: `[m, k] × [k, n] → [m, n]`.
    ///
    /// # Panics
    ///
    /// Panics unless both tensors are 2-D with compatible inner dimensions.
    pub fn matmul(&self, rhs: &Tensor) -> Tensor {
        let [m, k]: [usize; 2] = self.shape().try_into().expect("lhs must be 2-D");
        let [k2, n]: [usize; 2] = rhs.shape().try_into().expect("rhs must be 2-D");
        assert_eq!(k, k2, "inner dimensions differ: {k} vs {k2}");
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for p in 0..k {
                let a = self.data[i * k + p];
                if a == 0.0 {
                    continue;
                }
                let row = &rhs.data[p * n..(p + 1) * n];
                let dst = &mut out[i * n..(i + 1) * n];
                for (d, &b) in dst.iter_mut().zip(row) {
                    *d += a * b;
                }
            }
        }
        Tensor::from_vec(&[m, n], out)
    }

    /// 2-D transpose.
    ///
    /// # Panics
    ///
    /// Panics unless the tensor is 2-D.
    pub fn transpose(&self) -> Tensor {
        let [m, n]: [usize; 2] = self
            .shape()
            .try_into()
            .expect("transpose needs a 2-D tensor");
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                out[j * m + i] = self.data[i * n + j];
            }
        }
        Tensor::from_vec(&[n, m], out)
    }
}

impl fmt::Display for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{:?}", self.shape())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        let t = Tensor::zeros(&[2, 3]);
        assert_eq!(t.shape(), &[2, 3]);
        assert_eq!(t.len(), 6);
        let t = Tensor::from_vec(&[2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(t.data()[3], 4.0);
    }

    #[test]
    #[should_panic(expected = "needs 4 elements")]
    fn bad_shape_panics() {
        let _ = Tensor::from_vec(&[2, 2], vec![1.0]);
    }

    #[test]
    fn matmul_known() {
        let a = Tensor::from_vec(&[2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Tensor::from_vec(&[3, 2], vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), &[2, 2]);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_identity() {
        let a = Tensor::from_vec(&[2, 2], vec![3.0, -1.0, 2.0, 5.0]);
        let id = Tensor::from_vec(&[2, 2], vec![1.0, 0.0, 0.0, 1.0]);
        assert_eq!(a.matmul(&id), a);
    }

    #[test]
    fn transpose_roundtrip() {
        let a = Tensor::from_vec(&[2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let t = a.transpose();
        assert_eq!(t.shape(), &[3, 2]);
        assert_eq!(t.data(), &[1.0, 4.0, 2.0, 5.0, 3.0, 6.0]);
        assert_eq!(t.transpose(), a);
    }

    #[test]
    fn reshape_preserves_data() {
        let a = Tensor::from_vec(&[2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = a.clone().reshape(&[3, 2]);
        assert_eq!(b.shape(), &[3, 2]);
        assert_eq!(b.data(), a.data());
    }

    #[test]
    #[should_panic(expected = "inner dimensions differ")]
    fn matmul_dimension_mismatch() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[2, 3]);
        let _ = a.matmul(&b);
    }
}
