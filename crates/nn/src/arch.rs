//! The GNN architectures of the paper's experiments, each defined once for
//! every precision.
//!
//! [`GcnArch`], [`SageArch`], [`GinGraphArch`] and [`GcnGraphArch`] hold
//! their FP32 parameters and their forward pass. Every quantization point
//! of a forward pass goes through a [`QuantPoints`] implementation at a
//! slot position ([`At`]) of the architecture's layout, the [`Part`] lists
//! below, whose slots are made right after each layer's parameters
//! ([`QuantLayout`]). The precision is the implementation:
//!
//! * [`Float`] passes every value through and adds no tape node, so
//!   [`FloatNet`] runs an architecture in FP32 — the baselines [`GcnNet`],
//!   [`SageNet`], [`GinGraphNet`] and [`GcnGraphNet`];
//! * `mixq-core`'s slots hold relaxed α-mixtures (the MixQ search) or fixed
//!   bit-widths (QAT) for the same forward pass.

use std::sync::Arc;

use mixq_tensor::{Matrix, Rng, SpPair, Var};

use crate::layers::{Linear, Mlp};
use crate::models::{GraphBundle, GraphNet, NodeBundle, NodeNet};
use crate::param::{Fwd, ParamId, ParamSet};

/// What a slot quantizes; decides which quantizer a fixed-bit slot gets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// A node-feature tensor: the input or the output of a function.
    Act,
    /// A learnable weight matrix.
    Weight,
    /// The sparse adjacency operand of an aggregation.
    Adj,
}

/// One component of a layer or readout head: its name and role.
pub type Part = (&'static str, Role);

/// The input features, first slot of every architecture.
pub const INPUT: Part = ("input", Role::Act);
/// Components of one GCN layer (node and graph classifiers alike).
pub const GCN_LAYER: [Part; 4] = [
    ("adj", Role::Adj),
    ("weight", Role::Weight),
    ("lin_out", Role::Act),
    ("agg_out", Role::Act),
];
/// Components of one GraphSAGE layer.
pub const SAGE_LAYER: [Part; 5] = [
    ("adj", Role::Adj),
    ("w_root", Role::Weight),
    ("w_neigh", Role::Weight),
    ("agg", Role::Act),
    ("out", Role::Act),
];
/// Components of one GIN layer (aggregation, then a two-linear MLP).
pub const GIN_LAYER: [Part; 6] = [
    ("adj", Role::Adj),
    ("agg", Role::Act),
    ("w1", Role::Weight),
    ("h1", Role::Act),
    ("w2", Role::Weight),
    ("h2", Role::Act),
];
/// The GIN classifier's two-linear readout head.
pub const GIN_HEAD: [Part; 4] = [
    ("head.w1", Role::Weight),
    ("head.h1", Role::Act),
    ("head.w2", Role::Weight),
    ("head.out", Role::Act),
];
/// The GCN graph classifier's one-linear readout head.
pub const GCN_GRAPH_HEAD: [Part; 2] = [("head.w", Role::Weight), ("head.out", Role::Act)];

// Slot positions within one layer or head, in the order of the part lists
// above. Every layer starts with its adjacency.
pub const ADJ: usize = 0;
pub const GCN_W: usize = 1;
pub const GCN_LIN: usize = 2;
pub const GCN_AGG: usize = 3;
pub const SAGE_W_ROOT: usize = 1;
pub const SAGE_W_NEIGH: usize = 2;
pub const SAGE_AGG: usize = 3;
pub const SAGE_OUT: usize = 4;
const GIN_AGG: usize = 1;
const GIN_W1: usize = 2;
const GIN_H1: usize = 3;
const GIN_W2: usize = 4;
const GIN_H2: usize = 5;
const GIN_HEAD_W1: usize = 0;
const GIN_HEAD_H1: usize = 1;
const GIN_HEAD_W2: usize = 2;
const GIN_HEAD_OUT: usize = 3;
const GCN_HEAD_W: usize = 0;
const GCN_HEAD_OUT: usize = 1;

/// Position of a slot in its architecture's layout: the input, part `k` of
/// layer `l`, or part `k` of the readout head.
#[derive(Debug, Clone, Copy)]
pub enum At {
    Input,
    Layer(usize, usize),
    Head(usize),
}

/// The quantization points of a forward pass.
pub trait QuantPoints {
    /// Quantizes a dense tensor (input, weight or function output).
    fn quantize(&mut self, f: &mut Fwd, at: At, x: Var) -> Var;

    /// Aggregates `x` over the slot's (quantized) adjacency: `Q(Â)·x`.
    fn aggregate(&mut self, f: &mut Fwd, at: At, pair: &Arc<SpPair>, x: Var) -> Var;

    /// Points degree-driven quantizers at the rows of the next batch: node
    /// degrees for the input and layer slots, per-graph degrees for the
    /// readout head.
    fn set_degrees(&mut self, nodes: &[usize], graphs: &[usize]);

    /// Linear transform `x·Q(W) + b`: the weight is quantized (the
    /// straight-through estimator keeps the FP32 master trainable), the
    /// bias is not, as is standard.
    fn linear(&mut self, f: &mut Fwd, at: At, lin: &Linear, x: Var) -> Var {
        let w = f.bind(lin.w);
        let w = self.quantize(f, at, w);
        let mut h = f.tape.matmul(x, w);
        if let Some(bias) = lin.b {
            let bv = f.bind(bias);
            h = f.tape.add_bias(h, bv);
        }
        h
    }
}

/// Makes the quantization points of a net while its parameters are made:
/// the input slot first, then each layer's slots right after that layer's
/// parameters, then the readout head's.
pub trait QuantLayout {
    /// The slots of the next layer.
    fn layer(&mut self, ps: &mut ParamSet, parts: &[Part]);
    /// The slots of the readout head (after every layer).
    fn head(&mut self, ps: &mut ParamSet, parts: &[Part]);
}

/// The FP32 precision: every slot passes its value through.
#[derive(Debug, Clone, Copy)]
pub struct Float;

impl QuantPoints for Float {
    fn quantize(&mut self, _: &mut Fwd, _: At, x: Var) -> Var {
        x
    }

    fn aggregate(&mut self, f: &mut Fwd, _: At, pair: &Arc<SpPair>, x: Var) -> Var {
        f.tape.spmm(pair, x)
    }

    fn set_degrees(&mut self, _: &[usize], _: &[usize]) {}
}

impl QuantLayout for Float {
    fn layer(&mut self, _: &mut ParamSet, _: &[Part]) {}
    fn head(&mut self, _: &mut ParamSet, _: &[Part]) {}
}

/// The forward pass of one architecture, through quantization points `q`.
pub trait Arch: Clone {
    /// The batch the architecture reads (`NodeBundle` or `GraphBundle`).
    type Bundle;

    fn run<Q: QuantPoints>(&mut self, q: &mut Q, f: &mut Fwd, b: &Self::Bundle, x: Var) -> Var;
}

/// An architecture run in FP32 ([`Float`]).
#[derive(Debug, Clone)]
pub struct FloatNet<A> {
    pub arch: A,
}

impl<A: Arch<Bundle = NodeBundle>> NodeNet for FloatNet<A> {
    fn forward(&mut self, f: &mut Fwd, b: &NodeBundle, x: Var) -> Var {
        self.arch.run(&mut Float, f, b, x)
    }
}

impl<A: Arch<Bundle = GraphBundle>> GraphNet for FloatNet<A> {
    fn forward(&mut self, f: &mut Fwd, b: &GraphBundle, x: Var) -> Var {
        self.arch.run(&mut Float, f, b, x)
    }
}

// ---- GCN (node classification) ----------------------------------------------

/// Multi-layer GCN, `H' = Â(HΘ) + b` with ReLU and dropout between layers
/// (`Â = D^{-1/2}(I+A)D^{-1/2}`, the bundle's `norm`).
#[derive(Debug, Clone)]
pub struct GcnArch {
    pub dropout: f32,
    pub lins: Vec<Linear>,
}

/// FP32 GCN.
pub type GcnNet = FloatNet<GcnArch>;

/// One GCN convolution `Q(Q(Â)·Q(x·Q(W) + b))` of layer `i`, before its
/// activation (shared by the node and graph classifiers). `XΘ` comes
/// first: cheaper when the layer narrows, and Theorem 1's execution order.
fn gcn_conv(
    q: &mut impl QuantPoints,
    f: &mut Fwd,
    i: usize,
    lin: &Linear,
    adj: &Arc<SpPair>,
    x: Var,
) -> Var {
    let h = q.linear(f, At::Layer(i, GCN_W), lin, x);
    let h = q.quantize(f, At::Layer(i, GCN_LIN), h);
    let y = q.aggregate(f, At::Layer(i, ADJ), adj, h);
    q.quantize(f, At::Layer(i, GCN_AGG), y)
}

impl GcnArch {
    /// `dims = [in, h…, classes]`.
    pub fn build(
        ps: &mut ParamSet,
        dims: &[usize],
        dropout: f32,
        q: &mut impl QuantLayout,
        rng: &mut Rng,
    ) -> Self {
        let lins = (0..dims.len() - 1)
            .map(|l| {
                let lin = Linear::new(ps, dims[l], dims[l + 1], rng);
                q.layer(ps, &GCN_LAYER);
                lin
            })
            .collect();
        Self { dropout, lins }
    }
}

impl Arch for GcnArch {
    type Bundle = NodeBundle;

    fn run<Q: QuantPoints>(&mut self, q: &mut Q, f: &mut Fwd, b: &NodeBundle, mut x: Var) -> Var {
        x = q.quantize(f, At::Input, x);
        let last = self.lins.len() - 1;
        for (i, lin) in self.lins.iter().enumerate() {
            x = f.tape.dropout(x, self.dropout, f.rng, f.training);
            let mut y = gcn_conv(q, f, i, lin, &b.norm, x);
            if i < last {
                y = f.tape.relu(y);
            }
            x = y;
        }
        x
    }
}

impl GcnNet {
    /// `dims = [in, h…, classes]`.
    pub fn new(ps: &mut ParamSet, dims: &[usize], dropout: f32, rng: &mut Rng) -> Self {
        Self {
            arch: GcnArch::build(ps, dims, dropout, &mut Float, rng),
        }
    }
}

// ---- GraphSAGE (node classification) -----------------------------------------

/// Multi-layer GraphSAGE (mean aggregator), `H' = HΘ₁ + (D⁻¹A H)Θ₂ + b`
/// with ReLU and dropout between layers (`D⁻¹A` is the bundle's `mean`).
#[derive(Debug, Clone)]
pub struct SageArch {
    pub dropout: f32,
    pub layers: Vec<SageLayer>,
}

/// The two transforms of one GraphSAGE layer.
#[derive(Debug, Clone)]
pub struct SageLayer {
    pub lin_root: Linear,
    pub lin_neigh: Linear,
}

/// FP32 GraphSAGE.
pub type SageNet = FloatNet<SageArch>;

impl SageArch {
    /// `dims = [in, h…, classes]`.
    pub fn build(
        ps: &mut ParamSet,
        dims: &[usize],
        dropout: f32,
        q: &mut impl QuantLayout,
        rng: &mut Rng,
    ) -> Self {
        let layers = (0..dims.len() - 1)
            .map(|l| {
                let layer = SageLayer {
                    lin_root: Linear::new(ps, dims[l], dims[l + 1], rng),
                    lin_neigh: Linear::new_no_bias(ps, dims[l], dims[l + 1], rng),
                };
                q.layer(ps, &SAGE_LAYER);
                layer
            })
            .collect();
        Self { dropout, layers }
    }
}

impl Arch for SageArch {
    type Bundle = NodeBundle;

    fn run<Q: QuantPoints>(&mut self, q: &mut Q, f: &mut Fwd, b: &NodeBundle, mut x: Var) -> Var {
        x = q.quantize(f, At::Input, x);
        let last = self.layers.len() - 1;
        for (i, layer) in self.layers.iter().enumerate() {
            x = f.tape.dropout(x, self.dropout, f.rng, f.training);
            let agg = q.aggregate(f, At::Layer(i, ADJ), &b.mean, x);
            let agg = q.quantize(f, At::Layer(i, SAGE_AGG), agg);
            let root = q.linear(f, At::Layer(i, SAGE_W_ROOT), &layer.lin_root, x);
            let neigh = q.linear(f, At::Layer(i, SAGE_W_NEIGH), &layer.lin_neigh, agg);
            let y = f.tape.add(root, neigh);
            let mut y = q.quantize(f, At::Layer(i, SAGE_OUT), y);
            if i < last {
                y = f.tape.relu(y);
            }
            x = y;
        }
        x
    }
}

impl SageNet {
    /// `dims = [in, h…, classes]`.
    pub fn new(ps: &mut ParamSet, dims: &[usize], dropout: f32, rng: &mut Rng) -> Self {
        Self {
            arch: SageArch::build(ps, dims, dropout, &mut Float, rng),
        }
    }
}

// ---- GIN (graph classification) ------------------------------------------------

/// The paper's graph-classification architecture: GIN convolutions
/// `MLP((1+ε)·H + A·H)` with 2-linear MLPs (batch norm after the first),
/// global max pooling (the paper's choice, to keep pooled values inside
/// the quantization range, §5.4), then a 2-linear ReLU head.
#[derive(Debug, Clone)]
pub struct GinGraphArch {
    pub dropout: f32,
    pub layers: Vec<GinLayer>,
    pub head1: Linear,
    pub head2: Linear,
}

/// One GIN convolution: its MLP and its learnable ε.
#[derive(Debug, Clone)]
pub struct GinLayer {
    pub mlp: Mlp,
    pub eps: ParamId,
}

/// FP32 GIN graph classifier.
pub type GinGraphNet = FloatNet<GinGraphArch>;

impl GinGraphArch {
    pub fn build(
        ps: &mut ParamSet,
        [in_dim, hidden, classes, nlayers]: [usize; 4],
        q: &mut impl QuantLayout,
        rng: &mut Rng,
    ) -> Self {
        let layers = (0..nlayers)
            .map(|l| {
                let ind = if l == 0 { in_dim } else { hidden };
                let layer = GinLayer {
                    mlp: Mlp::new(ps, &[ind, hidden, hidden], true, rng),
                    eps: ps.add_zeros(1, 1),
                };
                q.layer(ps, &GIN_LAYER);
                layer
            })
            .collect();
        q.head(ps, &GIN_HEAD);
        Self {
            dropout: 0.3,
            layers,
            head1: Linear::new(ps, hidden, hidden, rng),
            head2: Linear::new(ps, hidden, classes, rng),
        }
    }
}

impl Arch for GinGraphArch {
    type Bundle = GraphBundle;

    fn run<Q: QuantPoints>(&mut self, q: &mut Q, f: &mut Fwd, b: &GraphBundle, mut x: Var) -> Var {
        // Batches differ between train and eval; refresh degree-driven state.
        q.set_degrees(&b.degrees, &vec![1; b.num_graphs()]);
        x = q.quantize(f, At::Input, x);
        for (i, layer) in self.layers.iter_mut().enumerate() {
            let agg = q.aggregate(f, At::Layer(i, ADJ), &b.raw, x);
            let agg = q.quantize(f, At::Layer(i, GIN_AGG), agg);
            let eps = f.bind(layer.eps);
            let one = f.tape.constant(Matrix::scalar(1.0));
            let one_eps = f.tape.add(one, eps);
            let scaled = f.tape.mul_scalar_var(x, one_eps);
            let comb = f.tape.add(scaled, agg);

            // MLP layer 1 (+ BN) → ReLU → quantize; layer 2 → quantize.
            let mut h = q.linear(f, At::Layer(i, GIN_W1), &layer.mlp.layers[0], comb);
            if let Some(bn) = layer.mlp.norms[0].as_mut() {
                h = bn.forward(f, h);
            }
            h = f.tape.relu(h);
            h = q.quantize(f, At::Layer(i, GIN_H1), h);
            let h2 = q.linear(f, At::Layer(i, GIN_W2), &layer.mlp.layers[1], h);
            let h2 = q.quantize(f, At::Layer(i, GIN_H2), h2);
            x = f.tape.relu(h2);
        }
        let pooled = f.tape.global_max_pool(x, &b.offsets);
        let mut h = q.linear(f, At::Head(GIN_HEAD_W1), &self.head1, pooled);
        h = f.tape.relu(h);
        h = q.quantize(f, At::Head(GIN_HEAD_H1), h);
        h = f.tape.dropout(h, self.dropout, f.rng, f.training);
        let out = q.linear(f, At::Head(GIN_HEAD_W2), &self.head2, h);
        q.quantize(f, At::Head(GIN_HEAD_OUT), out)
    }
}

impl GinGraphNet {
    pub fn new(
        ps: &mut ParamSet,
        in_dim: usize,
        hidden: usize,
        classes: usize,
        layers: usize,
        rng: &mut Rng,
    ) -> Self {
        let dims = [in_dim, hidden, classes, layers];
        Self {
            arch: GinGraphArch::build(ps, dims, &mut Float, rng),
        }
    }
}

// ---- GCN graph classifier (CSL) -------------------------------------------------

/// GCN graph classifier used for CSL (Table 9): GCN convolutions with
/// ReLU, global max pooling, then a linear head.
#[derive(Debug, Clone)]
pub struct GcnGraphArch {
    pub lins: Vec<Linear>,
    pub head: Linear,
}

/// FP32 GCN graph classifier.
pub type GcnGraphNet = FloatNet<GcnGraphArch>;

impl GcnGraphArch {
    pub fn build(
        ps: &mut ParamSet,
        [in_dim, hidden, classes, nlayers]: [usize; 4],
        q: &mut impl QuantLayout,
        rng: &mut Rng,
    ) -> Self {
        let lins = (0..nlayers)
            .map(|l| {
                let ind = if l == 0 { in_dim } else { hidden };
                let lin = Linear::new(ps, ind, hidden, rng);
                q.layer(ps, &GCN_LAYER);
                lin
            })
            .collect();
        q.head(ps, &GCN_GRAPH_HEAD);
        Self {
            lins,
            head: Linear::new(ps, hidden, classes, rng),
        }
    }
}

impl Arch for GcnGraphArch {
    type Bundle = GraphBundle;

    fn run<Q: QuantPoints>(&mut self, q: &mut Q, f: &mut Fwd, b: &GraphBundle, mut x: Var) -> Var {
        q.set_degrees(&b.degrees, &vec![1; b.num_graphs()]);
        x = q.quantize(f, At::Input, x);
        for (i, lin) in self.lins.iter().enumerate() {
            let y = gcn_conv(q, f, i, lin, &b.norm, x);
            x = f.tape.relu(y);
        }
        let pooled = f.tape.global_max_pool(x, &b.offsets);
        let out = q.linear(f, At::Head(GCN_HEAD_W), &self.head, pooled);
        q.quantize(f, At::Head(GCN_HEAD_OUT), out)
    }
}

impl GcnGraphNet {
    pub fn new(
        ps: &mut ParamSet,
        in_dim: usize,
        hidden: usize,
        classes: usize,
        layers: usize,
        rng: &mut Rng,
    ) -> Self {
        let dims = [in_dim, hidden, classes, layers];
        Self {
            arch: GcnGraphArch::build(ps, dims, &mut Float, rng),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The slot positions the forward passes use name the parts they mean.
    #[test]
    fn slot_positions_match_layout_parts() {
        let name = |parts: &[Part], k: usize| parts[k].0;
        assert_eq!(
            [ADJ, GCN_W, GCN_LIN, GCN_AGG].map(|k| name(&GCN_LAYER, k)),
            ["adj", "weight", "lin_out", "agg_out"]
        );
        assert_eq!(
            [ADJ, SAGE_W_ROOT, SAGE_W_NEIGH, SAGE_AGG, SAGE_OUT].map(|k| name(&SAGE_LAYER, k)),
            ["adj", "w_root", "w_neigh", "agg", "out"]
        );
        assert_eq!(
            [ADJ, GIN_AGG, GIN_W1, GIN_H1, GIN_W2, GIN_H2].map(|k| name(&GIN_LAYER, k)),
            ["adj", "agg", "w1", "h1", "w2", "h2"]
        );
        assert_eq!(
            [GIN_HEAD_W1, GIN_HEAD_H1, GIN_HEAD_W2, GIN_HEAD_OUT].map(|k| name(&GIN_HEAD, k)),
            ["head.w1", "head.h1", "head.w2", "head.out"]
        );
        assert_eq!(
            [GCN_HEAD_W, GCN_HEAD_OUT].map(|k| name(&GCN_GRAPH_HEAD, k)),
            ["head.w", "head.out"]
        );
    }
}
