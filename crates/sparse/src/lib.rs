//! Sparse matrix substrate for MixQ-GNN.
//!
//! Graph neural networks spend most of their time in sparse-dense matrix
//! products between the (normalized) adjacency matrix and the node feature
//! matrix. This crate provides the CSR containers and kernels that the rest
//! of the workspace builds on:
//!
//! * [`CsrMatrix`] — compressed sparse row storage over `f32` values,
//!   built from COO triplets, with transpose, degree and normalization
//!   helpers.
//! * [`CsrMatrix::spmm`] — the float sparse × dense product `Y = A · X`,
//!   register-blocked on AVX-512 where the host has it
//!   ([`CsrMatrix::spmm_into_portable`] is the loop without that arm).
//! * [`QuantCsr`] and [`spmm_rows`] — integer CSR values and the one-pass
//!   integer row kernel behind the quantized message-passing path of
//!   Theorem 1: an AVX-512 VNNI arm for 8-bit codes where the host has it,
//!   else `i32` or `i64` accumulators chosen by a static bound
//!   ([`spmm_rows_portable`] runs only those two); [`spmm_int`] is its
//!   plain `i64` product.
//!
//! All kernels operate on raw row-major slices (`&[f32]`, `&[i32]`) plus
//! explicit dimensions so that this crate stays independent of the dense
//! tensor crate that sits above it.

mod csr;
mod norm;
mod qcsr;

pub use csr::{CooEntry, CsrMatrix};
pub use norm::{gcn_normalize, row_normalize, sym_laplacian};
pub use qcsr::{
    byte_arm_eligible, spmm_int, spmm_rows, spmm_rows_portable, spmm_rows_u8, QuantCsr, RowAcc,
};
