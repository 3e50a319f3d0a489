//! Reverse-mode automatic differentiation on a linear tape.
//!
//! A [`Tape`] records every operation of one forward pass as a node with an
//! explicit [`Op`] descriptor; [`Tape::backward`] then walks the nodes in
//! reverse, applying each op's hand-written adjoint rule. Ops are an enum
//! (not closures) so that every backward rule is inspectable and unit-tested
//! against central finite differences (see `gradcheck`).
//!
//! The tape owns three parallel vectors (`values`, `grads`, `ops`): node `i`
//! only ever references parents `< i`, so reverse iteration is a valid
//! topological order. Nodes created from [`Tape::constant`] (inputs,
//! adjacency) do not require gradients and the backward pass skips work
//! feeding them.
//!
//! Quantization-specific ops: [`Tape::fake_quant`] implements simulated
//! quantization with the clipped straight-through estimator, and
//! [`Tape::relaxed_fake_quant`] implements the paper's Eq. 6 — a softmax
//! mixture over per-bit-width quantizers whose mixing logits α are trained
//! by backpropagation. [`Tape::bit_penalty`] is the differentiable bit-cost
//! `C(T)` of Eq. 8.
//!
//! The matmul/spmm forward *and* backward rules run on the row-partitioned
//! parallel kernels ([`Matrix::matmul_a_bt`]/[`Matrix::matmul_at_b`] for
//! `∂matmul`, the transpose SpMM for `∂spmm`), and the fake-quant ops use
//! the parallel element-wise maps — gradients stay bit-identical to the
//! serial engine at any thread count.
//!
//! The per-element kernels are written to vectorize: [`Tape::dropout`]
//! thresholds the raw RNG draw with a select instead of a branch,
//! [`QuantParams::fake`] runs in `f32` whenever that is exact, and
//! [`Tape::relaxed_fake_quant`] mixes its candidates in one pass without
//! storing them unless α needs their gradient.
//!
//! **Op profiler.** With telemetry on, every node adds to the counters
//! `tape.calls.<op>`, `tape.fwd_ns.<op>` and (when backward reaches it)
//! `tape.bwd_ns.<op>`, keyed by [`ALL_OP_NAMES`]. An op computes its value
//! right before it is pushed, so its forward time is the time since the
//! previous push (or since [`Tape::new`] for the first node). Work done
//! outside the tape between two pushes — a range observer's statistics, a
//! parameter copy in a binding — lands on the next op pushed. With
//! telemetry off the profiler costs one relaxed atomic load per node.

use std::sync::Arc;
use std::time::Instant;

use mixq_parallel::{par_map_chunks, par_row_chunks_mut};
use mixq_sparse::CsrMatrix;

use crate::matrix::Matrix;
use crate::quant::QuantParams;
use crate::rng::Rng;

/// Handle to a node on the tape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Var(pub usize);

/// A sparse adjacency matrix paired with its transpose.
///
/// The transpose is needed by the backward rule of `spmm`
/// (`∂L/∂X = Aᵀ · ∂L/∂Y`); building it once per dataset instead of once per
/// tape keeps the epoch loop cheap.
#[derive(Debug)]
pub struct SpPair {
    pub a: Arc<CsrMatrix>,
    pub at: Arc<CsrMatrix>,
}

impl SpPair {
    pub fn new(a: CsrMatrix) -> Arc<Self> {
        let at = Arc::new(a.transpose());
        Arc::new(Self { a: Arc::new(a), at })
    }
}

/// Result of a training-mode batch-norm op: the output var plus the batch
/// statistics the layer needs to maintain running averages.
pub struct BatchNormOut {
    pub y: Var,
    pub mean: Vec<f32>,
    pub var: Vec<f32>,
}

/// Declares the `Op` enum, its `name()` method, and [`ALL_OP_NAMES`] from a
/// single variant list, so the three can never drift apart. The autograd
/// fuzz suite iterates [`ALL_OP_NAMES`] and fails on any name it has no
/// gradient case for — adding a variant here without adding a test case
/// fails that suite, and forgetting to list the variant at all fails the
/// build (the forward op's constructor won't compile).
macro_rules! define_ops {
    (
        $(
            $name:ident $( ( $($tty:ty),* $(,)? ) )? $( { $($f:ident : $fty:ty),* $(,)? } )? => $sname:literal
        ),* $(,)?
    ) => {
        /// One recorded operation. Parent handles always point at earlier
        /// nodes.
        enum Op {
            $(
                $name $( ( $($tty),* ) )? $( { $($f: $fty),* } )?,
            )*
        }

        /// The snake-case name of every `Op` variant, in declaration order.
        /// Test suites enumerate this to guarantee per-variant coverage.
        pub const ALL_OP_NAMES: &[&str] = &[$($sname),*];

        impl Op {
            fn name(&self) -> &'static str {
                match self {
                    $(
                        define_ops!(@pat $name $( ( $($tty),* ) )? $( { $($f: $fty),* } )?) => $sname,
                    )*
                }
            }

            /// The op profiler's counters: forward ns, backward ns, calls.
            fn counters(&self) -> [&'static str; 3] {
                match self {
                    $(
                        define_ops!(@pat $name $( ( $($tty),* ) )? $( { $($f: $fty),* } )?) => [
                            concat!("tape.fwd_ns.", $sname),
                            concat!("tape.bwd_ns.", $sname),
                            concat!("tape.calls.", $sname),
                        ],
                    )*
                }
            }
        }
    };
    (@pat $name:ident) => { Op::$name };
    (@pat $name:ident ( $($tty:ty),* )) => { Op::$name(..) };
    (@pat $name:ident { $($f:ident : $fty:ty),* }) => { Op::$name { .. } };
}

define_ops! {
    Leaf => "leaf",
    MatMul(Var, Var) => "matmul",
    Spmm {
        pair: Arc<SpPair>,
        x: Var,
    } => "spmm",
    Add(Var, Var) => "add",
    Sub(Var, Var) => "sub",
    Mul(Var, Var) => "mul",
    AddBias {
        x: Var,
        bias: Var,
    } => "add_bias",
    Scale {
        x: Var,
        c: f32,
    } => "scale",
    MulScalarVar {
        x: Var,
        s: Var,
    } => "mul_scalar_var",
    AffineCols {
        x: Var,
        scale: Box<[f32]>,
    } => "affine_cols",
    Exp(Var) => "exp",
    Relu(Var) => "relu",
    LeakyRelu {
        x: Var,
        slope: f32,
    } => "leaky_relu",
    Dropout {
        x: Var,
        // `None` when `x` needs no gradient: backward never reads it.
        mask: Option<Matrix>,
    } => "dropout",
    LogSoftmaxRows(Var) => "log_softmax",
    NllMasked {
        logp: Var,
        targets: Box<[u32]>,
        rows: Box<[u32]>,
    } => "nll",
    BceWithLogits {
        logits: Var,
        targets: Box<Matrix>,
        rows: Box<[u32]>,
    } => "bce",
    BatchNorm {
        x: Var,
        gamma: Var,
        beta: Var,
        xhat: Box<Matrix>,
        inv_std: Box<[f32]>,
    } => "batch_norm",
    GlobalMaxPool {
        x: Var,
        argmax: Box<[u32]>,
    } => "global_max_pool",
    GatAggregate {
        h: Var,
        src: Var,
        dst: Var,
        adj: Arc<CsrMatrix>,
        alphas: Box<[f32]>,
        slope: f32,
    } => "gat_aggregate",
    DotAttnAggregate {
        q: Var,
        k: Var,
        v: Var,
        adj: Arc<CsrMatrix>,
        alphas: Box<[f32]>,
    } => "dot_attn_aggregate",
    SumAll(Var) => "sum_all",
    MeanAll(Var) => "mean_all",
    FakeQuant {
        x: Var,
        qp: QuantParams,
    } => "fake_quant",
    FakeQuantLsq {
        x: Var,
        scale: Var,
        qmin: i32,
        qmax: i32,
        grad_scale: f32,
    } => "fake_quant_lsq",
    FakeQuantRows {
        x: Var,
        qps: Box<[QuantParams]>,
    } => "fake_quant_rows",
    RelaxedFakeQuant {
        x: Var,
        alphas: Var,
        qps: Box<[QuantParams]>,
        // Each candidate's `Q⁻¹(Q(x))`, kept only when α needs a gradient.
        quants: Box<[Matrix]>,
    } => "relaxed_fake_quant",
    BitPenalty {
        alphas: Var,
        bits: Box<[f32]>,
        numel: f32,
    } => "bit_penalty",
}

/// The autograd tape. Create one per forward pass.
///
/// ```
/// use mixq_tensor::{Matrix, Tape};
/// let mut t = Tape::new();
/// let w = t.leaf(Matrix::from_vec(1, 2, vec![3.0, -2.0]));
/// let y = t.mul(w, w);           // y = w ⊙ w
/// let loss = t.sum_all(y);       // L = Σ w²
/// t.backward(loss);
/// assert_eq!(t.grad(w).unwrap().data(), &[6.0, -4.0]); // dL/dw = 2w
/// ```
pub struct Tape {
    values: Vec<Matrix>,
    grads: Vec<Option<Matrix>>,
    ops: Vec<Op>,
    requires: Vec<bool>,
    /// Time of the previous push, for the op profiler (telemetry only).
    last_push: Option<Instant>,
}

impl Default for Tape {
    fn default() -> Self {
        Self::new()
    }
}

/// `Q⁻¹(Q(x))` of every element of `x`, on the parallel chunked map.
fn fake_quantize(x: &Matrix, qp: &QuantParams) -> Matrix {
    let mut v = Matrix::scratch_pooled(x.rows(), x.cols());
    par_map_chunks(x.data(), v.data_mut(), |xs, out| {
        qp.fake_each(xs, out, |o, q| *o = q)
    });
    v
}

/// Numerically stable softmax of a small slice.
pub fn softmax_slice(xs: &[f32]) -> Vec<f32> {
    let m = xs.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let exps: Vec<f32> = xs.iter().map(|&x| (x - m).exp()).collect();
    let sum: f32 = exps.iter().sum();
    exps.into_iter().map(|e| e / sum).collect()
}

impl Tape {
    pub fn new() -> Self {
        Self {
            values: Vec::new(),
            grads: Vec::new(),
            ops: Vec::new(),
            requires: Vec::new(),
            last_push: mixq_telemetry::enabled().then(Instant::now),
        }
    }

    fn push(&mut self, value: Matrix, op: Op, requires: bool) -> Var {
        if mixq_telemetry::enabled() {
            let now = Instant::now();
            let [fwd, _, calls] = op.counters();
            if let Some(t) = self.last_push {
                mixq_telemetry::counter_add(fwd, (now - t).as_nanos() as u64);
            }
            mixq_telemetry::counter_add(calls, 1);
            self.last_push = Some(now);
        }
        self.values.push(value);
        self.grads.push(None);
        self.ops.push(op);
        self.requires.push(requires);
        Var(self.values.len() - 1)
    }

    /// A differentiable leaf (parameter). Its gradient is available from
    /// [`Tape::grad`] after `backward`.
    pub fn leaf(&mut self, m: Matrix) -> Var {
        self.push(m, Op::Leaf, true)
    }

    /// A non-differentiable input (features, targets as data, …). Backward
    /// skips all work that would only feed constants.
    pub fn constant(&mut self, m: Matrix) -> Var {
        self.push(m, Op::Leaf, false)
    }

    pub fn value(&self, v: Var) -> &Matrix {
        &self.values[v.0]
    }

    pub fn grad(&self, v: Var) -> Option<&Matrix> {
        self.grads[v.0].as_ref()
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    fn req(&self, v: Var) -> bool {
        self.requires[v.0]
    }

    // ---- forward ops -----------------------------------------------------

    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let v = self.values[a.0].matmul(&self.values[b.0]);
        let r = self.req(a) || self.req(b);
        self.push(v, Op::MatMul(a, b), r)
    }

    /// Sparse × dense product `Y = A · X` where `A` is a fixed adjacency.
    pub fn spmm(&mut self, pair: &Arc<SpPair>, x: Var) -> Var {
        let xm = &self.values[x.0];
        let y = pair.a.spmm(xm.data(), xm.cols());
        let v = Matrix::from_vec(pair.a.rows(), xm.cols(), y);
        let r = self.req(x);
        self.push(
            v,
            Op::Spmm {
                pair: Arc::clone(pair),
                x,
            },
            r,
        )
    }

    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let v = self.values[a.0].zip(&self.values[b.0], |x, y| x + y);
        let r = self.req(a) || self.req(b);
        self.push(v, Op::Add(a, b), r)
    }

    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        let v = self.values[a.0].zip(&self.values[b.0], |x, y| x - y);
        let r = self.req(a) || self.req(b);
        self.push(v, Op::Sub(a, b), r)
    }

    /// Element-wise (Hadamard) product.
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        let v = self.values[a.0].zip(&self.values[b.0], |x, y| x * y);
        let r = self.req(a) || self.req(b);
        self.push(v, Op::Mul(a, b), r)
    }

    /// Adds a `1×c` bias row to every row of `x`.
    pub fn add_bias(&mut self, x: Var, bias: Var) -> Var {
        let xm = &self.values[x.0];
        let bm = &self.values[bias.0];
        assert_eq!(bm.rows(), 1, "bias must be 1×c");
        assert_eq!(bm.cols(), xm.cols(), "bias width mismatch");
        let mut v = xm.clone();
        for r in 0..v.rows() {
            for (o, &b) in v.row_slice_mut(r).iter_mut().zip(bm.data()) {
                *o += b;
            }
        }
        let r = self.req(x) || self.req(bias);
        self.push(v, Op::AddBias { x, bias }, r)
    }

    pub fn scale(&mut self, x: Var, c: f32) -> Var {
        let v = self.values[x.0].map(|e| e * c);
        let r = self.req(x);
        self.push(v, Op::Scale { x, c }, r)
    }

    /// Multiplies every element of `x` by a learnable scalar `s` (`1×1`),
    /// e.g. GIN's `(1+ε)` factor with `s = 1+ε`.
    pub fn mul_scalar_var(&mut self, x: Var, s: Var) -> Var {
        let sv = self.values[s.0].item();
        let v = self.values[x.0].map(|e| e * sv);
        let r = self.req(x) || self.req(s);
        self.push(v, Op::MulScalarVar { x, s }, r)
    }

    /// Per-column affine map with *constant* coefficients (inference-mode
    /// batch norm): `y[r,c] = x[r,c]·scale[c] + shift[c]`.
    pub fn affine_cols(&mut self, x: Var, scale: Vec<f32>, shift: Vec<f32>) -> Var {
        let xm = &self.values[x.0];
        assert_eq!(scale.len(), xm.cols());
        assert_eq!(shift.len(), xm.cols());
        let mut v = xm.clone();
        for r in 0..v.rows() {
            for (c, o) in v.row_slice_mut(r).iter_mut().enumerate() {
                *o = *o * scale[c] + shift[c];
            }
        }
        let r = self.req(x);
        self.push(
            v,
            Op::AffineCols {
                x,
                scale: scale.into(),
            },
            r,
        )
    }

    /// Element-wise exponential.
    pub fn exp(&mut self, x: Var) -> Var {
        let v = self.values[x.0].map(f32::exp);
        let r = self.req(x);
        self.push(v, Op::Exp(x), r)
    }

    pub fn relu(&mut self, x: Var) -> Var {
        let v = self.values[x.0].map(|e| e.max(0.0));
        let r = self.req(x);
        self.push(v, Op::Relu(x), r)
    }

    pub fn leaky_relu(&mut self, x: Var, slope: f32) -> Var {
        let v = self.values[x.0].map(|e| if e > 0.0 { e } else { slope * e });
        let r = self.req(x);
        self.push(v, Op::LeakyRelu { x, slope }, r)
    }

    /// Inverted dropout: keeps each element with probability `1−p` and
    /// rescales by `1/(1−p)`. Identity when `training` is false or `p == 0`.
    ///
    /// Element `i` is kept iff `rng.bernoulli(1−p)` would return true for
    /// the `i`-th draw, without the `f64` compare and its unpredictable
    /// branch: `uniform()` is `u·2⁻⁵³` for the top 53 bits `u` of a draw,
    /// and scaling by `2⁵³` is exact, so `uniform() < keep` is exactly
    /// `u < ⌈keep·2⁵³⌉`. One pass writes the mask and the output through a
    /// select; the mask is stored only when `x` needs a gradient. RNG draws,
    /// mask values and outputs are bit-identical to the `bernoulli` loop.
    pub fn dropout(&mut self, x: Var, p: f32, rng: &mut Rng, training: bool) -> Var {
        if !training || p <= 0.0 {
            return x;
        }
        assert!(p < 1.0, "dropout probability must be < 1");
        let keep = 1.0 - p;
        let scale = 1.0 / keep;
        let threshold = (keep as f64 * (1u64 << 53) as f64).ceil() as u64;
        let mut draw = || {
            if (rng.next_u64() >> 11) < threshold {
                scale
            } else {
                0.0
            }
        };
        let xm = &self.values[x.0];
        let mut y = Matrix::scratch_pooled(xm.rows(), xm.cols());
        let r = self.req(x);
        let mask = if r {
            let mut mask = Matrix::scratch_pooled(xm.rows(), xm.cols());
            for ((o, m), &v) in y.data_mut().iter_mut().zip(mask.data_mut()).zip(xm.data()) {
                *m = draw();
                *o = v * *m;
            }
            Some(mask)
        } else {
            for (o, &v) in y.data_mut().iter_mut().zip(xm.data()) {
                *o = v * draw();
            }
            None
        };
        self.push(y, Op::Dropout { x, mask }, r)
    }

    /// Dropout with an explicit mask (already including the `1/keep`
    /// scaling); exposed for deterministic tests.
    pub fn dropout_with_mask(&mut self, x: Var, mask: Vec<f32>) -> Var {
        let xm = &self.values[x.0];
        let mask = Matrix::from_vec(xm.rows(), xm.cols(), mask);
        let v = xm.zip(&mask, |v, m| v * m);
        let r = self.req(x);
        self.push(
            v,
            Op::Dropout {
                x,
                mask: Some(mask),
            },
            r,
        )
    }

    /// Row-wise `log_softmax`.
    pub fn log_softmax(&mut self, x: Var) -> Var {
        let xm = &self.values[x.0];
        let mut v = xm.clone();
        for r in 0..v.rows() {
            let row = v.row_slice_mut(r);
            let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let lse = m + row.iter().map(|&e| (e - m).exp()).sum::<f32>().ln();
            for e in row.iter_mut() {
                *e -= lse;
            }
        }
        let r = self.req(x);
        self.push(v, Op::LogSoftmaxRows(x), r)
    }

    /// Negative log-likelihood over a subset of rows: mean of
    /// `−logp[rows[i], targets[i]]`. Input must already be log-probabilities.
    pub fn nll_masked(&mut self, logp: Var, rows: &[usize], targets: &[usize]) -> Var {
        assert_eq!(rows.len(), targets.len());
        assert!(!rows.is_empty(), "nll_masked needs at least one row");
        let lm = &self.values[logp.0];
        let mut loss = 0f32;
        for (&r, &t) in rows.iter().zip(targets.iter()) {
            loss -= lm.get(r, t);
        }
        loss /= rows.len() as f32;
        let rows: Box<[u32]> = rows.iter().map(|&r| r as u32).collect();
        let targets: Box<[u32]> = targets.iter().map(|&t| t as u32).collect();
        let r = self.req(logp);
        self.push(
            Matrix::scalar(loss),
            Op::NllMasked {
                logp,
                targets,
                rows,
            },
            r,
        )
    }

    /// Binary cross-entropy with logits over a subset of rows (multi-label
    /// tasks). `targets` has the same shape as `logits`; only `rows` enter
    /// the mean.
    pub fn bce_with_logits_masked(&mut self, logits: Var, targets: &Matrix, rows: &[usize]) -> Var {
        let lm = &self.values[logits.0];
        assert_eq!(lm.shape(), targets.shape());
        assert!(!rows.is_empty());
        let cols = lm.cols();
        let mut loss = 0f32;
        for &r in rows {
            for c in 0..cols {
                let z = lm.get(r, c);
                let t = targets.get(r, c);
                // max(z,0) − z·t + ln(1 + e^{−|z|}) — numerically stable form.
                loss += z.max(0.0) - z * t + (-z.abs()).exp().ln_1p();
            }
        }
        loss /= (rows.len() * cols) as f32;
        let rows: Box<[u32]> = rows.iter().map(|&r| r as u32).collect();
        let r = self.req(logits);
        self.push(
            Matrix::scalar(loss),
            Op::BceWithLogits {
                logits,
                targets: Box::new(targets.clone()),
                rows,
            },
            r,
        )
    }

    /// Training-mode batch normalization over rows (per-column statistics),
    /// `y = γ·(x−μ)/√(σ²+eps) + β`. Returns the batch statistics so the
    /// caller can maintain running averages for inference.
    pub fn batch_norm(&mut self, x: Var, gamma: Var, beta: Var, eps: f32) -> BatchNormOut {
        let xm = &self.values[x.0];
        let (n, c) = xm.shape();
        assert!(n > 0);
        let gm = &self.values[gamma.0];
        let bm = &self.values[beta.0];
        assert_eq!(gm.shape(), (1, c), "gamma must be 1×c");
        assert_eq!(bm.shape(), (1, c), "beta must be 1×c");

        let mean = {
            let mut m = vec![0f32; c];
            for r in 0..n {
                for (j, &v) in xm.row_slice(r).iter().enumerate() {
                    m[j] += v;
                }
            }
            m.iter_mut().for_each(|v| *v /= n as f32);
            m
        };
        let var = {
            let mut s = vec![0f32; c];
            for r in 0..n {
                for (j, &v) in xm.row_slice(r).iter().enumerate() {
                    let d = v - mean[j];
                    s[j] += d * d;
                }
            }
            s.iter_mut().for_each(|v| *v /= n as f32);
            s
        };
        let inv_std: Vec<f32> = var.iter().map(|&v| 1.0 / (v + eps).sqrt()).collect();
        let mut xhat = Matrix::zeros_pooled(n, c);
        let mut y = Matrix::zeros_pooled(n, c);
        for r in 0..n {
            for j in 0..c {
                let h = (xm.get(r, j) - mean[j]) * inv_std[j];
                xhat.set(r, j, h);
                y.set(r, j, gm.data()[j] * h + bm.data()[j]);
            }
        }
        let r = self.req(x) || self.req(gamma) || self.req(beta);
        let yv = self.push(
            y,
            Op::BatchNorm {
                x,
                gamma,
                beta,
                xhat: Box::new(xhat),
                inv_std: inv_std.into(),
            },
            r,
        );
        BatchNormOut { y: yv, mean, var }
    }

    /// Per-graph max pooling. `offsets` has length `G+1`; graph `g` owns
    /// rows `offsets[g]..offsets[g+1]` (all non-empty). Output is `G×c`.
    pub fn global_max_pool(&mut self, x: Var, offsets: &[usize]) -> Var {
        let xm = &self.values[x.0];
        let g = offsets.len() - 1;
        let c = xm.cols();
        assert_eq!(
            *offsets.last().unwrap(),
            xm.rows(),
            "offsets must cover all rows"
        );
        let mut y = Matrix::filled(g, c, f32::NEG_INFINITY);
        let mut argmax = vec![0u32; g * c];
        for gi in 0..g {
            assert!(offsets[gi] < offsets[gi + 1], "graph {gi} has no nodes");
            for r in offsets[gi]..offsets[gi + 1] {
                for (j, &v) in xm.row_slice(r).iter().enumerate() {
                    if v > y.get(gi, j) {
                        y.set(gi, j, v);
                        argmax[gi * c + j] = r as u32;
                    }
                }
            }
        }
        let r = self.req(x);
        self.push(
            y,
            Op::GlobalMaxPool {
                x,
                argmax: argmax.into(),
            },
            r,
        )
    }

    /// Graph attention aggregation (GAT, Veličković et al.):
    /// `y_i = Σ_{j∈N(i)} α_ij · h_j` with
    /// `α_ij = softmax_j(LeakyReLU(src_i + dst_j))`.
    ///
    /// `h` is `n×f` (already transformed by the layer weight), `src`/`dst`
    /// are the `n×1` per-node attention terms (`h·a_src`, `h·a_dst`), and
    /// `adj` supplies the neighbourhood structure (include self-loops for
    /// the standard formulation). Rows without neighbours produce zeros.
    pub fn gat_aggregate(
        &mut self,
        h: Var,
        src: Var,
        dst: Var,
        adj: &Arc<CsrMatrix>,
        slope: f32,
    ) -> Var {
        let hm = &self.values[h.0];
        let (n, fdim) = hm.shape();
        assert_eq!(adj.rows(), n, "adjacency/feature size mismatch");
        assert_eq!(self.values[src.0].shape(), (n, 1), "src must be n×1");
        assert_eq!(self.values[dst.0].shape(), (n, 1), "dst must be n×1");
        let sv = self.values[src.0].data();
        let dv = self.values[dst.0].data();

        let mut alphas = vec![0f32; adj.nnz()];
        let mut y = Matrix::zeros_pooled(n, fdim);
        let row_ptr = adj.row_ptr();
        for i in 0..n {
            let (b, e) = (row_ptr[i], row_ptr[i + 1]);
            if b == e {
                continue;
            }
            // Row-wise softmax over LeakyReLU(src_i + dst_j), max-shifted.
            let mut mx = f32::NEG_INFINITY;
            for (k, (j, _)) in adj.row(i).enumerate() {
                let pre = sv[i] + dv[j];
                let act = if pre > 0.0 { pre } else { slope * pre };
                alphas[b + k] = act;
                mx = mx.max(act);
            }
            let mut z = 0f32;
            for a in &mut alphas[b..e] {
                *a = (*a - mx).exp();
                z += *a;
            }
            for a in &mut alphas[b..e] {
                *a /= z;
            }
            let out = y.row_slice_mut(i);
            for (k, (j, _)) in adj.row(i).enumerate() {
                let w = alphas[b + k];
                for (o, &hv) in out.iter_mut().zip(hm.row_slice(j)) {
                    *o += w * hv;
                }
            }
        }
        let r = self.req(h) || self.req(src) || self.req(dst);
        self.push(
            y,
            Op::GatAggregate {
                h,
                src,
                dst,
                adj: Arc::clone(adj),
                alphas: alphas.into(),
                slope,
            },
            r,
        )
    }

    /// Scaled dot-product attention aggregation over graph neighbourhoods
    /// (UniMP / TransformerConv):
    /// `y_i = Σ_{j∈N(i)} softmax_j(⟨q_i, k_j⟩/√d) · v_j`.
    ///
    /// `q`, `k`, `v` are `n×d` (already projected); `adj` supplies the
    /// neighbourhood structure (include self-loops for the standard
    /// formulation). Rows without neighbours produce zeros.
    pub fn dot_attn_aggregate(&mut self, q: Var, k: Var, v: Var, adj: &Arc<CsrMatrix>) -> Var {
        let (n, d) = self.values[q.0].shape();
        assert_eq!(self.values[k.0].shape(), (n, d), "k shape mismatch");
        assert_eq!(self.values[v.0].shape(), (n, d), "v shape mismatch");
        assert_eq!(adj.rows(), n, "adjacency/feature size mismatch");
        let scale = 1.0 / (d as f32).sqrt();
        let qm = &self.values[q.0];
        let km = &self.values[k.0];
        let vm = &self.values[v.0];

        let row_ptr = adj.row_ptr();
        let mut alphas = vec![0f32; adj.nnz()];
        let mut y = Matrix::zeros_pooled(n, d);
        for i in 0..n {
            let (b, e) = (row_ptr[i], row_ptr[i + 1]);
            if b == e {
                continue;
            }
            let qi = qm.row_slice(i);
            let mut mx = f32::NEG_INFINITY;
            for (idx, (j, _)) in adj.row(i).enumerate() {
                let mut dot = 0f32;
                for (&a, &b2) in qi.iter().zip(km.row_slice(j)) {
                    dot += a * b2;
                }
                alphas[b + idx] = dot * scale;
                mx = mx.max(dot * scale);
            }
            let mut z = 0f32;
            for a in &mut alphas[b..e] {
                *a = (*a - mx).exp();
                z += *a;
            }
            for a in &mut alphas[b..e] {
                *a /= z;
            }
            let out = y.row_slice_mut(i);
            for (idx, (j, _)) in adj.row(i).enumerate() {
                let w = alphas[b + idx];
                for (o, &vv) in out.iter_mut().zip(vm.row_slice(j)) {
                    *o += w * vv;
                }
            }
        }
        let r = self.req(q) || self.req(k) || self.req(v);
        self.push(
            y,
            Op::DotAttnAggregate {
                q,
                k,
                v,
                adj: Arc::clone(adj),
                alphas: alphas.into(),
            },
            r,
        )
    }

    pub fn sum_all(&mut self, x: Var) -> Var {
        let v = Matrix::scalar(self.values[x.0].sum());
        let r = self.req(x);
        self.push(v, Op::SumAll(x), r)
    }

    pub fn mean_all(&mut self, x: Var) -> Var {
        let xm = &self.values[x.0];
        let v = Matrix::scalar(xm.sum() / xm.numel() as f32);
        let r = self.req(x);
        self.push(v, Op::MeanAll(x), r)
    }

    /// Simulated quantization `Q⁻¹(Q(x))` with the clipped straight-through
    /// estimator: gradient passes unchanged where `x` is inside the
    /// representable range and is zeroed where the quantizer clips.
    pub fn fake_quant(&mut self, x: Var, qp: QuantParams) -> Var {
        let v = fake_quantize(&self.values[x.0], &qp);
        let r = self.req(x);
        self.push(v, Op::FakeQuant { x, qp }, r)
    }

    /// LSQ fake quantization (Esser et al.): symmetric quantization with a
    /// *learnable* scalar scale `s` (a `1×1` leaf) —
    /// `y = clip(⌊x/s⌉, qmin, qmax) · s`. Gradients: clipped STE to `x`;
    /// the scale receives the LSQ gradient (`⌊v⌉ − v` in range, the clip
    /// level outside), damped by `1/√(numel·qmax)`. This realizes the
    /// paper's "S and Z tuned during training via gradient-based
    /// optimization" literally.
    pub fn fake_quant_lsq(&mut self, x: Var, scale: Var, qmin: i32, qmax: i32) -> Var {
        assert_eq!(
            self.values[scale.0].shape(),
            (1, 1),
            "LSQ scale must be 1×1"
        );
        let s = self.values[scale.0].item().max(1e-6);
        let xm = &self.values[x.0];
        let grad_scale = 1.0 / ((xm.numel() as f32 * qmax as f32).sqrt());
        let v = xm.par_map(|e| {
            let q = (e / s).round_ties_even().clamp(qmin as f32, qmax as f32);
            q * s
        });
        let r = self.req(x) || self.req(scale);
        self.push(
            v,
            Op::FakeQuantLsq {
                x,
                scale,
                qmin,
                qmax,
                grad_scale,
            },
            r,
        )
    }

    /// Per-row fake quantization: row `r` of `x` is quantized with
    /// `qps[r]`. Used by the A²Q-style baseline, which assigns each *node*
    /// its own scale and bit-width. Backward is the clipped STE per row.
    pub fn fake_quant_rows(&mut self, x: Var, qps: &[QuantParams]) -> Var {
        let xm = &self.values[x.0];
        assert_eq!(qps.len(), xm.rows(), "one quantizer per row");
        let mut v = Matrix::scratch_pooled(xm.rows(), xm.cols());
        for (r, qp) in qps.iter().enumerate() {
            qp.fake_each(xm.row_slice(r), v.row_slice_mut(r), |o, q| *o = q);
        }
        let r = self.req(x);
        self.push(
            v,
            Op::FakeQuantRows {
                x,
                qps: qps.to_vec().into(),
            },
            r,
        )
    }

    /// The paper's relaxed quantizer (Eq. 6):
    /// `y = Σ_i softmax(α)_i · Q⁻¹_{b_i}(Q_{b_i}(x))`.
    ///
    /// `alphas` is a learnable `1×k` row of mixing logits and `qps` the `k`
    /// candidate quantizers. Gradients flow to `x` through each candidate's
    /// clipped STE (weighted by its softmax probability) and to `alphas`
    /// through the exact softmax Jacobian.
    pub fn relaxed_fake_quant(&mut self, x: Var, alphas: Var, qps: &[QuantParams]) -> Var {
        let am = &self.values[alphas.0];
        assert_eq!(am.rows(), 1, "alphas must be a 1×k row");
        assert_eq!(am.cols(), qps.len(), "one alpha per quantizer");
        let w = softmax_slice(am.data());
        let xm = &self.values[x.0];
        let (rows, cols) = xm.shape();
        let mut y = Matrix::zeros_pooled(rows, cols);
        // Every element sums `w_i · Q_i(x)` from 0 in candidate order, either
        // over stored candidates (α's gradient needs them) or fused in one
        // pass per row chunk.
        let quants: Vec<Matrix> = if self.req(alphas) {
            let quants: Vec<Matrix> = qps.iter().map(|qp| fake_quantize(xm, qp)).collect();
            for (wi, q) in w.iter().zip(quants.iter()) {
                for (o, &qv) in y.data_mut().iter_mut().zip(q.data()) {
                    *o += wi * qv;
                }
            }
            quants
        } else {
            par_row_chunks_mut(y.data_mut(), rows, cols, |start, chunk| {
                let xs = &xm.data()[start * cols..start * cols + chunk.len()];
                for (&wi, qp) in w.iter().zip(qps) {
                    qp.fake_each(xs, chunk, |o, q| *o += wi * q);
                }
            });
            Vec::new()
        };
        let r = self.req(x) || self.req(alphas);
        self.push(
            y,
            Op::RelaxedFakeQuant {
                x,
                alphas,
                qps: qps.to_vec().into(),
                quants: quants.into(),
            },
            r,
        )
    }

    /// The differentiable bit-cost penalty `C(T)` of Eq. 8:
    /// `C = (Σ_i softmax(α)_i · b_i) · |T| / (1024·8)` (bits → MB-style
    /// normalization used in the paper).
    pub fn bit_penalty(&mut self, alphas: Var, bits: &[f32], numel: usize) -> Var {
        let am = &self.values[alphas.0];
        assert_eq!(am.cols(), bits.len());
        let w = softmax_slice(am.data());
        let avg: f32 = w.iter().zip(bits.iter()).map(|(&wi, &bi)| wi * bi).sum();
        let numel = numel as f32;
        let v = Matrix::scalar(avg * numel / (1024.0 * 8.0));
        let r = self.req(alphas);
        self.push(
            v,
            Op::BitPenalty {
                alphas,
                bits: bits.to_vec().into(),
                numel,
            },
            r,
        )
    }

    /// Histogram of recorded op kinds — cheap introspection for debugging
    /// and for verifying that a quantized architecture contains the
    /// expected number of quantization nodes.
    pub fn op_histogram(&self) -> Vec<(&'static str, usize)> {
        let mut counts: Vec<(&'static str, usize)> = Vec::new();
        for op in &self.ops {
            let name = op.name();
            match counts.iter_mut().find(|(n, _)| *n == name) {
                Some((_, c)) => *c += 1,
                None => counts.push((name, 1)),
            }
        }
        counts.sort_by_key(|&(_, c)| std::cmp::Reverse(c));
        counts
    }

    // ---- backward --------------------------------------------------------

    fn acc(&mut self, v: Var, g: Matrix) {
        if !self.requires[v.0] {
            return;
        }
        match &mut self.grads[v.0] {
            Some(acc) => acc.add_assign(&g),
            slot @ None => *slot = Some(g),
        }
    }

    /// Runs the backward pass from a `1×1` loss node. Gradients of leaf
    /// nodes remain available from [`Tape::grad`]; intermediate gradients
    /// are freed as soon as they have been propagated.
    pub fn backward(&mut self, loss: Var) {
        assert_eq!(
            self.values[loss.0].shape(),
            (1, 1),
            "backward needs a scalar loss"
        );
        self.grads[loss.0] = Some(Matrix::scalar(1.0));

        for i in (0..=loss.0).rev() {
            let Some(g) = self.grads[i].take() else {
                continue;
            };
            let op = std::mem::replace(&mut self.ops[i], Op::Leaf);
            let t0 = mixq_telemetry::enabled().then(Instant::now);
            match &op {
                Op::Leaf => {}
                Op::MatMul(a, b) => {
                    if self.req(*a) {
                        let ga = g.matmul_a_bt(&self.values[b.0]);
                        self.acc(*a, ga);
                    }
                    if self.req(*b) {
                        let gb = self.values[a.0].matmul_at_b(&g);
                        self.acc(*b, gb);
                    }
                }
                Op::Spmm { pair, x } => {
                    if self.req(*x) {
                        let gy = pair.at.spmm(g.data(), g.cols());
                        let gx = Matrix::from_vec(pair.at.rows(), g.cols(), gy);
                        self.acc(*x, gx);
                    }
                }
                Op::Add(a, b) => {
                    if self.req(*a) {
                        self.acc(*a, g.clone());
                    }
                    if self.req(*b) {
                        self.acc(*b, g.clone());
                    }
                }
                Op::Sub(a, b) => {
                    if self.req(*a) {
                        self.acc(*a, g.clone());
                    }
                    if self.req(*b) {
                        self.acc(*b, g.map(|e| -e));
                    }
                }
                Op::Mul(a, b) => {
                    if self.req(*a) {
                        let ga = g.zip(&self.values[b.0], |gv, bv| gv * bv);
                        self.acc(*a, ga);
                    }
                    if self.req(*b) {
                        let gb = g.zip(&self.values[a.0], |gv, av| gv * av);
                        self.acc(*b, gb);
                    }
                }
                Op::AddBias { x, bias } => {
                    if self.req(*x) {
                        self.acc(*x, g.clone());
                    }
                    if self.req(*bias) {
                        self.acc(*bias, g.col_sums());
                    }
                }
                Op::Scale { x, c } => {
                    if self.req(*x) {
                        self.acc(*x, g.map(|e| e * c));
                    }
                }
                Op::MulScalarVar { x, s } => {
                    let sv = self.values[s.0].item();
                    if self.req(*x) {
                        self.acc(*x, g.map(|e| e * sv));
                    }
                    if self.req(*s) {
                        let gs = self.values[x.0].dot(&g);
                        self.acc(*s, Matrix::scalar(gs));
                    }
                }
                Op::AffineCols { x, scale } => {
                    if self.req(*x) {
                        let mut gx = g.clone();
                        for r in 0..gx.rows() {
                            for (c, e) in gx.row_slice_mut(r).iter_mut().enumerate() {
                                *e *= scale[c];
                            }
                        }
                        self.acc(*x, gx);
                    }
                }
                Op::Exp(x) => {
                    if self.req(*x) {
                        // dy/dx = e^x = y (the stored output).
                        let gx = g.zip(&self.values[i], |gv, yv| gv * yv);
                        self.acc(*x, gx);
                    }
                }
                Op::Relu(x) => {
                    if self.req(*x) {
                        let gx = g.zip(&self.values[x.0], |gv, xv| if xv > 0.0 { gv } else { 0.0 });
                        self.acc(*x, gx);
                    }
                }
                Op::LeakyRelu { x, slope } => {
                    if self.req(*x) {
                        let s = *slope;
                        let gx = g.zip(
                            &self.values[x.0],
                            |gv, xv| if xv > 0.0 { gv } else { s * gv },
                        );
                        self.acc(*x, gx);
                    }
                }
                Op::Dropout { x, mask } => {
                    if let Some(mask) = mask {
                        let gx = g.par_zip(mask, |gv, m| gv * m);
                        self.acc(*x, gx);
                    }
                }
                Op::LogSoftmaxRows(x) => {
                    if self.req(*x) {
                        let y = &self.values[i];
                        let mut gx = g.clone();
                        for r in 0..gx.rows() {
                            let row_sum: f32 = g.row_slice(r).iter().sum();
                            for (c, e) in gx.row_slice_mut(r).iter_mut().enumerate() {
                                *e -= y.get(r, c).exp() * row_sum;
                            }
                        }
                        self.acc(*x, gx);
                    }
                }
                Op::NllMasked {
                    logp,
                    targets,
                    rows,
                } => {
                    if self.req(*logp) {
                        let go = g.item() / rows.len() as f32;
                        let lm = &self.values[logp.0];
                        let mut gx = Matrix::zeros_pooled(lm.rows(), lm.cols());
                        for (&r, &t) in rows.iter().zip(targets.iter()) {
                            let cur = gx.get(r as usize, t as usize);
                            gx.set(r as usize, t as usize, cur - go);
                        }
                        self.acc(*logp, gx);
                    }
                }
                Op::BceWithLogits {
                    logits,
                    targets,
                    rows,
                } => {
                    if self.req(*logits) {
                        let lm = &self.values[logits.0];
                        let cols = lm.cols();
                        let go = g.item() / (rows.len() * cols) as f32;
                        let mut gx = Matrix::zeros_pooled(lm.rows(), cols);
                        for &r in rows.iter() {
                            let r = r as usize;
                            for c in 0..cols {
                                let z = lm.get(r, c);
                                let sig = 1.0 / (1.0 + (-z).exp());
                                gx.set(r, c, go * (sig - targets.get(r, c)));
                            }
                        }
                        self.acc(*logits, gx);
                    }
                }
                Op::BatchNorm {
                    x,
                    gamma,
                    beta,
                    xhat,
                    inv_std,
                } => {
                    let (n, c) = g.shape();
                    let nf = n as f32;
                    // Per-column reductions of dy and dy⊙x̂.
                    let mut sum_dy = vec![0f32; c];
                    let mut sum_dy_xhat = vec![0f32; c];
                    for r in 0..n {
                        for j in 0..c {
                            let dy = g.get(r, j);
                            sum_dy[j] += dy;
                            sum_dy_xhat[j] += dy * xhat.get(r, j);
                        }
                    }
                    if self.req(*gamma) {
                        self.acc(*gamma, Matrix::from_vec(1, c, sum_dy_xhat.clone()));
                    }
                    if self.req(*beta) {
                        self.acc(*beta, Matrix::from_vec(1, c, sum_dy.clone()));
                    }
                    if self.req(*x) {
                        let gm = &self.values[gamma.0];
                        let mut gx = Matrix::zeros_pooled(n, c);
                        for r in 0..n {
                            for j in 0..c {
                                let dy = g.get(r, j);
                                let v = gm.data()[j] * inv_std[j] / nf
                                    * (nf * dy - sum_dy[j] - xhat.get(r, j) * sum_dy_xhat[j]);
                                gx.set(r, j, v);
                            }
                        }
                        self.acc(*x, gx);
                    }
                }
                Op::GlobalMaxPool { x, argmax } => {
                    if self.req(*x) {
                        let xm = &self.values[x.0];
                        let c = xm.cols();
                        let mut gx = Matrix::zeros_pooled(xm.rows(), c);
                        for gi in 0..g.rows() {
                            for j in 0..c {
                                let r = argmax[gi * c + j] as usize;
                                let cur = gx.get(r, j);
                                gx.set(r, j, cur + g.get(gi, j));
                            }
                        }
                        self.acc(*x, gx);
                    }
                }
                Op::GatAggregate {
                    h,
                    src,
                    dst,
                    adj,
                    alphas,
                    slope,
                } => {
                    let hm = &self.values[h.0];
                    let (n, fdim) = hm.shape();
                    let sv = self.values[src.0].data();
                    let dv = self.values[dst.0].data();
                    let row_ptr = adj.row_ptr();
                    let mut gh = Matrix::zeros_pooled(n, fdim);
                    let mut gs = Matrix::zeros_pooled(n, 1);
                    let mut gd = Matrix::zeros_pooled(n, 1);
                    for i in 0..n {
                        let (b, e) = (row_ptr[i], row_ptr[i + 1]);
                        if b == e {
                            continue;
                        }
                        let gi = g.row_slice(i);
                        // dα_ij = ⟨g_i, h_j⟩ and dh_j += α_ij · g_i.
                        let mut dalpha = vec![0f32; e - b];
                        for (k, (j, _)) in adj.row(i).enumerate() {
                            let a = alphas[b + k];
                            let mut dot = 0f32;
                            for (&gv, (&hv, o)) in gi
                                .iter()
                                .zip(hm.row_slice(j).iter().zip(gh.row_slice_mut(j)))
                            {
                                dot += gv * hv;
                                *o += a * gv;
                            }
                            dalpha[k] = dot;
                        }
                        // Softmax backward: dlogit = α (dα − Σ α dα).
                        let mixed: f32 = alphas[b..e]
                            .iter()
                            .zip(dalpha.iter())
                            .map(|(&a, &da)| a * da)
                            .sum();
                        for (k, (j, _)) in adj.row(i).enumerate() {
                            let dlogit = alphas[b + k] * (dalpha[k] - mixed);
                            let pre = sv[i] + dv[j];
                            let de = if pre > 0.0 { dlogit } else { *slope * dlogit };
                            gs.data_mut()[i] += de;
                            gd.data_mut()[j] += de;
                        }
                    }
                    if self.req(*h) {
                        self.acc(*h, gh);
                    }
                    if self.req(*src) {
                        self.acc(*src, gs);
                    }
                    if self.req(*dst) {
                        self.acc(*dst, gd);
                    }
                }
                Op::DotAttnAggregate {
                    q,
                    k,
                    v,
                    adj,
                    alphas,
                } => {
                    let (n, d) = self.values[q.0].shape();
                    let scale = 1.0 / (d as f32).sqrt();
                    let qm = &self.values[q.0];
                    let km = &self.values[k.0];
                    let vm = &self.values[v.0];
                    let row_ptr = adj.row_ptr();
                    let mut gq = Matrix::zeros_pooled(n, d);
                    let mut gk = Matrix::zeros_pooled(n, d);
                    let mut gv = Matrix::zeros_pooled(n, d);
                    for i in 0..n {
                        let (b, e) = (row_ptr[i], row_ptr[i + 1]);
                        if b == e {
                            continue;
                        }
                        let gi = g.row_slice(i);
                        // dα_ij = ⟨g_i, v_j⟩, dv_j += α_ij g_i.
                        let mut dalpha = vec![0f32; e - b];
                        for (idx, (j, _)) in adj.row(i).enumerate() {
                            let a = alphas[b + idx];
                            let mut dot = 0f32;
                            for (&gvl, (&vv, o)) in gi
                                .iter()
                                .zip(vm.row_slice(j).iter().zip(gv.row_slice_mut(j)))
                            {
                                dot += gvl * vv;
                                *o += a * gvl;
                            }
                            dalpha[idx] = dot;
                        }
                        // Softmax backward to logits, then to q and k.
                        let mixed: f32 = alphas[b..e]
                            .iter()
                            .zip(dalpha.iter())
                            .map(|(&a, &da)| a * da)
                            .sum();
                        for (idx, (j, _)) in adj.row(i).enumerate() {
                            let dlogit = alphas[b + idx] * (dalpha[idx] - mixed) * scale;
                            for c in 0..d {
                                let t = gq.get(i, c) + dlogit * km.get(j, c);
                                gq.set(i, c, t);
                                let t = gk.get(j, c) + dlogit * qm.get(i, c);
                                gk.set(j, c, t);
                            }
                        }
                    }
                    if self.req(*q) {
                        self.acc(*q, gq);
                    }
                    if self.req(*k) {
                        self.acc(*k, gk);
                    }
                    if self.req(*v) {
                        self.acc(*v, gv);
                    }
                }
                Op::SumAll(x) => {
                    if self.req(*x) {
                        let xm = &self.values[x.0];
                        self.acc(*x, Matrix::filled(xm.rows(), xm.cols(), g.item()));
                    }
                }
                Op::MeanAll(x) => {
                    if self.req(*x) {
                        let xm = &self.values[x.0];
                        let v = g.item() / xm.numel() as f32;
                        self.acc(*x, Matrix::filled(xm.rows(), xm.cols(), v));
                    }
                }
                Op::FakeQuant { x, qp } => {
                    if self.req(*x) {
                        let gx =
                            g.par_zip(
                                &self.values[x.0],
                                |gv, xv| if qp.in_range(xv) { gv } else { 0.0 },
                            );
                        self.acc(*x, gx);
                    }
                }
                Op::FakeQuantLsq {
                    x,
                    scale,
                    qmin,
                    qmax,
                    grad_scale,
                } => {
                    let s = self.values[scale.0].item().max(1e-6);
                    let (lo, hi) = (*qmin as f32, *qmax as f32);
                    let gx = if self.req(*x) {
                        Some(g.par_zip(&self.values[x.0], |gv, xv| {
                            let v = xv / s;
                            if v >= lo && v <= hi {
                                gv
                            } else {
                                0.0
                            }
                        }))
                    } else {
                        None
                    };
                    let gs = if self.req(*scale) {
                        let mut ds = 0f32;
                        for (&gv, &xv) in g.data().iter().zip(self.values[x.0].data()) {
                            let v = xv / s;
                            let term = if v <= lo {
                                lo
                            } else if v >= hi {
                                hi
                            } else {
                                v.round_ties_even() - v
                            };
                            ds += gv * term;
                        }
                        Some(Matrix::scalar(ds * grad_scale))
                    } else {
                        None
                    };
                    if let Some(gx) = gx {
                        self.acc(*x, gx);
                    }
                    if let Some(gs) = gs {
                        self.acc(*scale, gs);
                    }
                }
                Op::FakeQuantRows { x, qps } => {
                    if self.req(*x) {
                        let xm = &self.values[x.0];
                        let mut gx = g.clone();
                        for r in 0..gx.rows() {
                            let qp = qps[r];
                            for (e, &xv) in gx.row_slice_mut(r).iter_mut().zip(xm.row_slice(r)) {
                                if !qp.in_range(xv) {
                                    *e = 0.0;
                                }
                            }
                        }
                        self.acc(*x, gx);
                    }
                }
                Op::RelaxedFakeQuant {
                    x,
                    alphas,
                    qps,
                    quants,
                } => {
                    let w = softmax_slice(self.values[alphas.0].data());
                    if self.req(*x) {
                        let xm = &self.values[x.0];
                        let mut gx = Matrix::zeros_pooled(xm.rows(), xm.cols());
                        for (wi, qp) in w.iter().zip(qps.iter()) {
                            for ((o, &gv), &xv) in
                                gx.data_mut().iter_mut().zip(g.data()).zip(xm.data())
                            {
                                if qp.in_range(xv) {
                                    *o += wi * gv;
                                }
                            }
                        }
                        self.acc(*x, gx);
                    }
                    if self.req(*alphas) {
                        // t_i = <Q_i(x), dy>; dα_j = w_j (t_j − Σ_i w_i t_i).
                        let t: Vec<f32> = quants.iter().map(|q| q.dot(&g)).collect();
                        let mixed: f32 = w.iter().zip(t.iter()).map(|(&wi, &ti)| wi * ti).sum();
                        let ga: Vec<f32> = w
                            .iter()
                            .zip(t.iter())
                            .map(|(&wj, &tj)| wj * (tj - mixed))
                            .collect();
                        self.acc(*alphas, Matrix::from_vec(1, ga.len(), ga));
                    }
                }
                Op::BitPenalty {
                    alphas,
                    bits,
                    numel,
                } => {
                    if self.req(*alphas) {
                        let w = softmax_slice(self.values[alphas.0].data());
                        let avg: f32 = w.iter().zip(bits.iter()).map(|(&wi, &bi)| wi * bi).sum();
                        let go = g.item() * numel / (1024.0 * 8.0);
                        let ga: Vec<f32> = w
                            .iter()
                            .zip(bits.iter())
                            .map(|(&wj, &bj)| go * wj * (bj - avg))
                            .collect();
                        self.acc(*alphas, Matrix::from_vec(1, ga.len(), ga));
                    }
                }
            }
            if let Some(t0) = t0 {
                let [_, bwd, _] = op.counters();
                mixq_telemetry::counter_add(bwd, t0.elapsed().as_nanos() as u64);
            }
            self.ops[i] = op;
            // Leaf gradients stay readable after backward; intermediate
            // gradients go back to the buffer pool the moment they have
            // been propagated.
            if matches!(self.ops[i], Op::Leaf) {
                self.grads[i] = Some(g);
            } else {
                g.recycle();
            }
        }
    }

    /// Consumes the tape and returns every value and gradient buffer, and
    /// the dropout masks and stored relaxed candidates, to the thread-local
    /// buffer pool (see [`crate::pool`]). Training loops call this at the
    /// end of each epoch so the next epoch's forward pass allocates nothing
    /// on the hot path; plain `drop` remains correct and merely skips the
    /// reuse.
    pub fn recycle(self) {
        for m in self.values {
            m.recycle();
        }
        for g in self.grads.into_iter().flatten() {
            g.recycle();
        }
        for op in self.ops {
            match op {
                Op::Dropout {
                    mask: Some(mask), ..
                } => mask.recycle(),
                Op::RelaxedFakeQuant { quants, .. } => {
                    quants.into_vec().into_iter().for_each(Matrix::recycle)
                }
                _ => {}
            }
        }
    }
}
