//! **MixQ-GNN** — mixed precision quantization for graph neural networks.
//!
//! A from-scratch Rust reproduction of *"Efficient Mixed Precision
//! Quantization in Graph Neural Networks"* (ICDE 2025): the full GNN
//! training stack (dense autograd, sparse kernels, layers, optimizers,
//! datasets) plus the paper's contribution — the Theorem 1 quantized
//! message-passing scheme and the MixQ differentiable bit-width search.
//!
//! This facade crate re-exports the workspace:
//!
//! * [`telemetry`] — zero-dependency metrics / span-tracing layer
//!   (`MIXQ_TELEMETRY=1` to enable; reports under `results/telemetry/`);
//! * [`faultinject`] — deterministic, env-gated fault injection
//!   (`MIXQ_FAULTS=grad_nan@epoch=3,...`) used to drill the recovery paths
//!   in training, checkpointing and the parallel runtime;
//! * [`parallel`] — the scoped-thread runtime behind every compute kernel
//!   (`MIXQ_THREADS` / [`parallel::set_num_threads`]; results stay
//!   bit-identical to serial at any thread count);
//! * [`tensor`] — matrices, seeded RNG, quantization parameters, autograd;
//! * [`sparse`] — CSR matrices, float and integer SpMM, normalizations;
//! * [`graph`] — datasets, CSL, Laplacian PE, batching, splits;
//! * [`nn`] — layers, optimizers, metrics, architectures, trainers;
//! * [`core`] — quantizers, quantized/relaxed nets, the MixQ search,
//!   Theorem 1 and the integer inference engine.
//!
//! Start with `examples/quickstart.rs`.

pub use mixq_core as core;
pub use mixq_faultinject as faultinject;
pub use mixq_graph as graph;
pub use mixq_nn as nn;
pub use mixq_parallel as parallel;
pub use mixq_sparse as sparse;
pub use mixq_telemetry as telemetry;
pub use mixq_tensor as tensor;
