//! Message-passing layers of the FP32 layer zoo (Fig. 1).
//!
//! Every layer follows the paper's MPNN formulation (Eq. 2): a message
//! transform `M`, sparse aggregation by an adjacency operator, and an update
//! `U`. GCN and GraphSAGE have no layer here: their convolutions are part of
//! the architectures in [`crate::arch`], defined once for every precision.

use std::sync::Arc;

use mixq_sparse::{CooEntry, CsrMatrix};
use mixq_tensor::{Matrix, SpPair, Var};

use crate::layers::{Linear, Mlp};
use crate::param::{Fwd, ParamId, ParamSet};

/// Returns a copy of `a` with unit self-loops added (structure used by GAT
/// attention neighbourhoods).
pub fn with_self_loops(a: &CsrMatrix) -> CsrMatrix {
    let n = a.rows();
    let mut entries = Vec::with_capacity(a.nnz() + n);
    for r in 0..n {
        entries.push(CooEntry {
            row: r,
            col: r,
            val: 1.0,
        });
        for (c, v) in a.row(r) {
            if c != r {
                entries.push(CooEntry {
                    row: r,
                    col: c,
                    val: v,
                });
            }
        }
    }
    CsrMatrix::from_coo(n, n, entries)
}

/// GIN layer `H' = MLP((1+ε)·H + A·H)` with a learnable ε.
#[derive(Debug, Clone)]
pub struct GinConv {
    pub mlp: Mlp,
    pub eps: ParamId,
}

impl GinConv {
    pub fn new(
        ps: &mut ParamSet,
        in_dim: usize,
        hidden: usize,
        out_dim: usize,
        batch_norm: bool,
        rng: &mut mixq_tensor::Rng,
    ) -> Self {
        Self {
            mlp: Mlp::new(ps, &[in_dim, hidden, out_dim], batch_norm, rng),
            eps: ps.add_zeros(1, 1),
        }
    }

    pub fn forward(&mut self, f: &mut Fwd, adj: &Arc<SpPair>, x: Var) -> Var {
        let agg = f.tape.spmm(adj, x);
        let eps = f.bind(self.eps);
        let one = f.tape.constant(Matrix::scalar(1.0));
        let one_eps = f.tape.add(one, eps);
        let scaled = f.tape.mul_scalar_var(x, one_eps);
        let combined = f.tape.add(scaled, agg);
        self.mlp.forward(f, combined)
    }
}

/// Topology-adaptive GCN: `H' = Σ_{k=0}^{K} (Â^k H) Θ_k`.
#[derive(Debug, Clone)]
pub struct TagConv {
    pub lins: Vec<Linear>,
}

impl TagConv {
    pub fn new(
        ps: &mut ParamSet,
        in_dim: usize,
        out_dim: usize,
        k: usize,
        rng: &mut mixq_tensor::Rng,
    ) -> Self {
        let lins = (0..=k)
            .map(|i| {
                if i == 0 {
                    Linear::new(ps, in_dim, out_dim, rng)
                } else {
                    Linear::new_no_bias(ps, in_dim, out_dim, rng)
                }
            })
            .collect();
        Self { lins }
    }

    pub fn forward(&self, f: &mut Fwd, adj_norm: &Arc<SpPair>, x: Var) -> Var {
        let mut hop = x;
        let mut out = self.lins[0].forward(f, x);
        for lin in &self.lins[1..] {
            hop = f.tape.spmm(adj_norm, hop);
            let term = lin.forward(f, hop);
            out = f.tape.add(out, term);
        }
        out
    }
}

/// Simplified GCN (SGC): `H' = Â^K H Θ` — all propagation, one transform.
#[derive(Debug, Clone)]
pub struct SgcConv {
    pub lin: Linear,
    pub k: usize,
}

impl SgcConv {
    pub fn new(
        ps: &mut ParamSet,
        in_dim: usize,
        out_dim: usize,
        k: usize,
        rng: &mut mixq_tensor::Rng,
    ) -> Self {
        Self {
            lin: Linear::new(ps, in_dim, out_dim, rng),
            k,
        }
    }

    pub fn forward(&self, f: &mut Fwd, adj_norm: &Arc<SpPair>, x: Var) -> Var {
        let mut h = x;
        for _ in 0..self.k {
            h = f.tape.spmm(adj_norm, h);
        }
        self.lin.forward(f, h)
    }
}

/// Graph attention layer (GAT, single head):
/// `y_i = Σ_{j∈N(i)∪{i}} α_ij · (x_j W)` with attention coefficients
/// `α_ij = softmax_j(LeakyReLU(aᵀ_src (x_i W) + aᵀ_dst (x_j W)))`.
#[derive(Debug, Clone)]
pub struct GatConv {
    pub lin: Linear,
    pub a_src: ParamId,
    pub a_dst: ParamId,
    pub slope: f32,
    loops: Option<Arc<CsrMatrix>>,
}

impl GatConv {
    pub fn new(
        ps: &mut ParamSet,
        in_dim: usize,
        out_dim: usize,
        rng: &mut mixq_tensor::Rng,
    ) -> Self {
        Self {
            lin: Linear::new_no_bias(ps, in_dim, out_dim, rng),
            a_src: ps.add_glorot(out_dim, 1, rng),
            a_dst: ps.add_glorot(out_dim, 1, rng),
            slope: 0.2,
            loops: None,
        }
    }

    /// `adj` is the raw adjacency; the self-loop-augmented attention
    /// structure is built once and cached.
    pub fn forward(&mut self, f: &mut Fwd, adj: &Arc<SpPair>, x: Var) -> Var {
        if self.loops.is_none() {
            self.loops = Some(Arc::new(with_self_loops(&adj.a)));
        }
        let h = self.lin.forward(f, x);
        let asrc = f.bind(self.a_src);
        let adst = f.bind(self.a_dst);
        let s = f.tape.matmul(h, asrc);
        let d = f.tape.matmul(h, adst);
        f.tape
            .gat_aggregate(h, s, d, self.loops.as_ref().unwrap(), self.slope)
    }
}

/// UniMP-style transformer convolution (single head): projects queries,
/// keys and values with learnable matrices and aggregates neighbours
/// (incl. a self-loop) by scaled dot-product attention, plus a residual
/// root transform:
/// `y_i = x_i W_r + Σ_{j∈N(i)∪{i}} softmax_j(⟨x_i W_q, x_j W_k⟩/√d) · x_j W_v`.
#[derive(Debug, Clone)]
pub struct TransformerConv {
    pub w_q: Linear,
    pub w_k: Linear,
    pub w_v: Linear,
    pub w_root: Linear,
    loops: Option<Arc<CsrMatrix>>,
}

impl TransformerConv {
    pub fn new(
        ps: &mut ParamSet,
        in_dim: usize,
        out_dim: usize,
        rng: &mut mixq_tensor::Rng,
    ) -> Self {
        Self {
            w_q: Linear::new_no_bias(ps, in_dim, out_dim, rng),
            w_k: Linear::new_no_bias(ps, in_dim, out_dim, rng),
            w_v: Linear::new_no_bias(ps, in_dim, out_dim, rng),
            w_root: Linear::new(ps, in_dim, out_dim, rng),
            loops: None,
        }
    }

    pub fn forward(&mut self, f: &mut Fwd, adj: &Arc<SpPair>, x: Var) -> Var {
        if self.loops.is_none() {
            self.loops = Some(Arc::new(with_self_loops(&adj.a)));
        }
        let q = self.w_q.forward(f, x);
        let k = self.w_k.forward(f, x);
        let v = self.w_v.forward(f, x);
        let attn = f
            .tape
            .dot_attn_aggregate(q, k, v, self.loops.as_ref().unwrap());
        let root = self.w_root.forward(f, x);
        f.tape.add(root, attn)
    }
}

/// APPNP-style propagation: `Z⁰ = H`, `Z^{t+1} = (1−α)ÂZ^t + αH`.
/// Applied after a feature transform; has no parameters of its own.
#[derive(Debug, Clone)]
pub struct AppnpProp {
    pub k: usize,
    pub alpha: f32,
}

impl AppnpProp {
    pub fn forward(&self, f: &mut Fwd, adj_norm: &Arc<SpPair>, h: Var) -> Var {
        let h_scaled = f.tape.scale(h, self.alpha);
        let mut z = h;
        for _ in 0..self.k {
            let prop = f.tape.spmm(adj_norm, z);
            let damped = f.tape.scale(prop, 1.0 - self.alpha);
            z = f.tape.add(damped, h_scaled);
        }
        z
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::{NodeBundle, NodeNet};
    use crate::param::Binding;
    use crate::{GcnNet, SageNet};
    use mixq_sparse::{gcn_normalize, row_normalize, CooEntry, CsrMatrix};
    use mixq_tensor::{Rng, Tape};

    fn tiny_graph() -> CsrMatrix {
        CsrMatrix::from_coo(
            3,
            3,
            vec![
                CooEntry {
                    row: 0,
                    col: 1,
                    val: 1.0,
                },
                CooEntry {
                    row: 1,
                    col: 0,
                    val: 1.0,
                },
                CooEntry {
                    row: 1,
                    col: 2,
                    val: 1.0,
                },
                CooEntry {
                    row: 2,
                    col: 1,
                    val: 1.0,
                },
            ],
        )
    }

    macro_rules! fwd {
        ($ps:expr, $tape:expr, $binding:expr, $rng:expr) => {
            Fwd {
                tape: &mut $tape,
                ps: &$ps,
                binding: &mut $binding,
                rng: &mut $rng,
                training: true,
            }
        };
    }

    /// A node bundle over [`tiny_graph`] with features `x`.
    fn tiny_bundle(x: &Matrix) -> NodeBundle {
        let a = tiny_graph();
        NodeBundle {
            features: x.clone(),
            norm: SpPair::new(gcn_normalize(&a)),
            mean: SpPair::new(row_normalize(&a)),
            degrees: a.row_degrees(),
            raw: SpPair::new(a),
        }
    }

    /// Sets a bias to `0.1, 0.2, …` so the formula checks where it lands.
    fn set_bias(ps: &mut ParamSet, bias: Option<ParamId>) -> Matrix {
        let b = ps.value_mut(bias.expect("layer has a bias"));
        *b = Matrix::from_fn(1, b.cols(), |_, c| 0.1 * (c + 1) as f32);
        b.clone()
    }

    /// Adds the `1 × cols` row `b` to every row of `m`.
    fn plus_rows(m: &Matrix, b: &Matrix) -> Matrix {
        Matrix::from_fn(m.rows(), m.cols(), |r, c| m.get(r, c) + b.get(0, c))
    }

    #[test]
    fn gcn_matches_manual_formula() {
        let mut ps = ParamSet::new();
        let mut rng = Rng::seed_from_u64(1);
        let mut net = GcnNet::new(&mut ps, &[2, 2], 0.0, &mut rng);
        let lin = net.arch.lins[0].clone();
        let bias = set_bias(&mut ps, lin.b);
        let x = Matrix::from_fn(3, 2, |r, c| (r + c) as f32);
        let bundle = tiny_bundle(&x);
        let dense_a = Matrix::from_vec(3, 3, bundle.norm.a.to_dense());

        let mut tape = Tape::new();
        let mut binding = Binding::new();
        let mut f = fwd!(ps, tape, binding, rng);
        let xv = f.tape.constant(x.clone());
        let y = net.forward(&mut f, &bundle, xv);

        // Manual: Â (X Θ + b)
        let expect = dense_a.matmul(&plus_rows(&x.matmul(ps.value(lin.w)), &bias));
        assert!(tape.value(y).max_abs_diff(&expect) < 1e-5);
    }

    #[test]
    fn gin_eps_zero_is_sum_of_self_and_neighbors() {
        let mut ps = ParamSet::new();
        let mut rng = Rng::seed_from_u64(2);
        let mut conv = GinConv::new(&mut ps, 2, 4, 2, false, &mut rng);
        let adj = tiny_graph();
        let dense_a = Matrix::from_vec(3, 3, adj.to_dense());
        let pair = SpPair::new(adj);
        let x = Matrix::from_fn(3, 2, |r, c| (r * 2 + c) as f32 * 0.3);

        let mut tape = Tape::new();
        let mut binding = Binding::new();
        let mut f = fwd!(ps, tape, binding, rng);
        let xv = f.tape.constant(x.clone());
        let y = conv.forward(&mut f, &pair, xv);

        // ε = 0 at init ⇒ MLP input is X + AX; check through the MLP.
        let combined = {
            let ax = dense_a.matmul(&x);
            ax.zip(&x, |a, b| a + b)
        };
        let w0 = ps.value(conv.mlp.layers[0].w).clone();
        let w1 = ps.value(conv.mlp.layers[1].w).clone();
        let h = combined.matmul(&w0).map(|v| v.max(0.0)); // biases are zero
        let expect = h.matmul(&w1);
        assert!(tape.value(y).max_abs_diff(&expect) < 1e-5);
    }

    #[test]
    fn sage_combines_root_and_neighbors() {
        let mut ps = ParamSet::new();
        let mut rng = Rng::seed_from_u64(3);
        let mut net = SageNet::new(&mut ps, &[2, 3], 0.0, &mut rng);
        let layer = net.arch.layers[0].clone();
        let bias = set_bias(&mut ps, layer.lin_root.b);
        let x = Matrix::from_fn(3, 2, |r, c| (r as f32 - c as f32) * 0.5);
        let bundle = tiny_bundle(&x);
        let dense_a = Matrix::from_vec(3, 3, bundle.mean.a.to_dense());

        let mut tape = Tape::new();
        let mut binding = Binding::new();
        let mut f = fwd!(ps, tape, binding, rng);
        let xv = f.tape.constant(x.clone());
        let y = net.forward(&mut f, &bundle, xv);

        // Manual: X Θ₁ + b + (D⁻¹A X) Θ₂
        let w1 = ps.value(layer.lin_root.w);
        let w2 = ps.value(layer.lin_neigh.w);
        let expect =
            plus_rows(&x.matmul(w1), &bias).zip(&dense_a.matmul(&x).matmul(w2), |a, b| a + b);
        assert!(tape.value(y).max_abs_diff(&expect) < 1e-5);
    }

    #[test]
    fn tag_k0_equals_linear() {
        let mut ps = ParamSet::new();
        let mut rng = Rng::seed_from_u64(4);
        let conv = TagConv::new(&mut ps, 3, 2, 0, &mut rng);
        let pair = SpPair::new(gcn_normalize(&tiny_graph()));
        let x = Matrix::from_fn(3, 3, |r, c| (r + c) as f32 * 0.1);

        let mut tape = Tape::new();
        let mut binding = Binding::new();
        let mut f = fwd!(ps, tape, binding, rng);
        let xv = f.tape.constant(x.clone());
        let y = conv.forward(&mut f, &pair, xv);
        let expect = x.matmul(ps.value(conv.lins[0].w));
        assert!(tape.value(y).max_abs_diff(&expect) < 1e-5);
    }

    #[test]
    fn sgc_propagates_k_times() {
        let mut ps = ParamSet::new();
        let mut rng = Rng::seed_from_u64(5);
        let conv = SgcConv::new(&mut ps, 2, 2, 3, &mut rng);
        let adj_norm = gcn_normalize(&tiny_graph());
        let dense = Matrix::from_vec(3, 3, adj_norm.to_dense());
        let pair = SpPair::new(adj_norm);
        let x = Matrix::from_fn(3, 2, |r, c| (r * 2 + c) as f32 * 0.2);

        let mut tape = Tape::new();
        let mut binding = Binding::new();
        let mut f = fwd!(ps, tape, binding, rng);
        let xv = f.tape.constant(x.clone());
        let y = conv.forward(&mut f, &pair, xv);
        let a3 = dense.matmul(&dense).matmul(&dense);
        let expect = a3.matmul(&x).matmul(ps.value(conv.lin.w));
        assert!(tape.value(y).max_abs_diff(&expect) < 1e-4);
    }

    #[test]
    fn appnp_alpha_one_is_identity() {
        let ps = ParamSet::new();
        let mut rng = Rng::seed_from_u64(6);
        let prop = AppnpProp { k: 4, alpha: 1.0 };
        let pair = SpPair::new(gcn_normalize(&tiny_graph()));
        let x = Matrix::from_fn(3, 2, |r, c| (r + 2 * c) as f32);

        let mut tape = Tape::new();
        let mut binding = Binding::new();
        let mut f = fwd!(ps, tape, binding, rng);
        let xv = f.tape.constant(x.clone());
        let y = prop.forward(&mut f, &pair, xv);
        assert!(tape.value(y).max_abs_diff(&x) < 1e-5);
    }
}

#[cfg(test)]
mod gat_tests {
    use super::*;
    use crate::param::{Binding, ParamSet};
    use mixq_sparse::CsrMatrix;
    use mixq_tensor::{Rng, Tape};

    #[test]
    fn self_loops_added_once() {
        let a = CsrMatrix::from_coo(
            2,
            2,
            vec![
                CooEntry {
                    row: 0,
                    col: 0,
                    val: 5.0,
                },
                CooEntry {
                    row: 0,
                    col: 1,
                    val: 1.0,
                },
            ],
        );
        let l = with_self_loops(&a);
        assert_eq!(l.get(0, 0), 1.0, "existing self-loop replaced by unit loop");
        assert_eq!(l.get(1, 1), 1.0, "missing self-loop added");
        assert_eq!(l.get(0, 1), 1.0);
        assert_eq!(l.nnz(), 3);
    }

    #[test]
    fn gat_forward_shapes_and_determinism() {
        let mut ps = ParamSet::new();
        let mut rng = Rng::seed_from_u64(1);
        let mut conv = GatConv::new(&mut ps, 3, 4, &mut rng);
        let adj = CsrMatrix::from_coo(
            3,
            3,
            vec![
                CooEntry {
                    row: 0,
                    col: 1,
                    val: 1.0,
                },
                CooEntry {
                    row: 1,
                    col: 0,
                    val: 1.0,
                },
                CooEntry {
                    row: 1,
                    col: 2,
                    val: 1.0,
                },
                CooEntry {
                    row: 2,
                    col: 1,
                    val: 1.0,
                },
            ],
        );
        let pair = SpPair::new(adj);
        let x = Matrix::from_fn(3, 3, |r, c| (r + c) as f32 * 0.3);
        let run = |conv: &mut GatConv| {
            let mut tape = Tape::new();
            let mut binding = Binding::new();
            let mut rng = Rng::seed_from_u64(0);
            let mut f = Fwd {
                tape: &mut tape,
                ps: &ps,
                binding: &mut binding,
                rng: &mut rng,
                training: false,
            };
            let xv = f.tape.constant(x.clone());
            let y = conv.forward(&mut f, &pair, xv);
            tape.value(y).clone()
        };
        let y1 = run(&mut conv);
        let y2 = run(&mut conv); // cached self-loop structure reused
        assert_eq!(y1.shape(), (3, 4));
        assert_eq!(y1, y2);
    }
}

#[cfg(test)]
mod transformer_tests {
    use super::*;
    use crate::param::{Binding, ParamSet};
    use mixq_sparse::CsrMatrix;
    use mixq_tensor::{Rng, Tape};

    #[test]
    fn transformer_conv_shapes_and_residual() {
        let mut ps = ParamSet::new();
        let mut rng = Rng::seed_from_u64(2);
        let mut conv = TransformerConv::new(&mut ps, 3, 5, &mut rng);
        let adj = CsrMatrix::from_coo(
            4,
            4,
            vec![
                CooEntry {
                    row: 0,
                    col: 1,
                    val: 1.0,
                },
                CooEntry {
                    row: 1,
                    col: 0,
                    val: 1.0,
                },
            ],
        );
        let pair = SpPair::new(adj);
        let x = Matrix::from_fn(4, 3, |r, c| (r + c) as f32 * 0.2);
        let mut tape = Tape::new();
        let mut binding = Binding::new();
        let mut f = Fwd {
            tape: &mut tape,
            ps: &ps,
            binding: &mut binding,
            rng: &mut rng,
            training: false,
        };
        let xv = f.tape.constant(x.clone());
        let y = conv.forward(&mut f, &pair, xv);
        assert_eq!(tape.value(y).shape(), (4, 5));

        // Nodes 2 and 3 have only their self-loop: attention output is
        // exactly x_i W_v, so y_i = x_i (W_root + W_v) + b.
        let wv = ps.value(conv.w_v.w);
        let wr = ps.value(conv.w_root.w);
        for node in [2usize, 3] {
            for c in 0..5 {
                let expect: f32 = (0..3)
                    .map(|k| x.get(node, k) * (wv.get(k, c) + wr.get(k, c)))
                    .sum();
                assert!(
                    (tape.value(y).get(node, c) - expect).abs() < 1e-5,
                    "self-loop-only node must be root + value transform"
                );
            }
        }
    }
}
