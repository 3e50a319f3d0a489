//! The quantized nets: one architecture of `mixq-nn` with its quantization
//! slots.
//!
//! [`GcnArch`], [`SageArch`], [`GinGraphArch`] and [`GcnGraphArch`] are
//! defined once, in `mixq_nn::arch`: parameters, forward pass and slot
//! layout. Run with `mixq_nn::Float` they are the FP32 nets; [`QuantNet`]
//! runs them through [`Slots`] instead, and its precision parameter says
//! what the slots hold:
//!
//! * `QuantNet<A, Relaxed>` — the relaxed net of the MixQ
//!   search ([`RelaxedGcnNet`], …): every slot is an α-mixture, the forward
//!   pass also returns the bit-cost terms, and [`QuantNet::extract`] reads
//!   off the argmax bit-widths;
//! * `QuantNet<A, Fixed>` — the fixed-bit QAT net ([`QGcnNet`],
//!   …) built from a [`BitAssignment`] and a [`QuantKind`]; it implements
//!   the `NodeNet`/`GraphNet` traits, so the standard trainers apply.
//!
//! The `*_cost_model` functions give the Bits / GBitOPs of an assignment.

use std::marker::PhantomData;
use std::sync::Arc;

use mixq_nn::arch::{ADJ, GCN_AGG, GCN_LIN, GCN_W, SAGE_AGG, SAGE_OUT, SAGE_W_NEIGH, SAGE_W_ROOT};
use mixq_nn::{
    Arch, At, Fwd, GcnArch, GcnGraphArch, GinGraphArch, GraphBundle, GraphNet, NodeBundle, NodeNet,
    ParamId, ParamSet, SageArch,
};
use mixq_sparse::CsrMatrix;
use mixq_tensor::{MixqResult, QuantParams, Rng, SpPair, Var};

use crate::bits::{
    gcn_graph_schema, gcn_schema, gin_graph_schema, layer_component, sage_schema, BitAssignment,
};
use crate::cost::CostModel;
use crate::qinfer::{GcnLayerSnapshot, GcnSnapshot, SageLayerSnapshot, SageSnapshot};
use crate::quantizers::QuantKind;
use crate::slots::{Fixed, Relaxed, SlotBuilder, Slots};

/// Fake-quantizes the values of a sparse adjacency with a symmetric
/// quantizer (zero-point 0, so structural zeros stay exact — the property
/// Theorem 1's sparse integer path relies on). `bits ≥ 32` returns the
/// input unchanged.
pub fn quantize_adjacency(pair: &Arc<SpPair>, bits: u8) -> Arc<SpPair> {
    if bits >= 32 {
        return Arc::clone(pair);
    }
    let qp = adjacency_qparams(&pair.a, bits);
    let q: CsrMatrix = pair.a.map_values(|_, _, v| qp.fake(v));
    SpPair::new(q)
}

/// The symmetric quantization parameters of an adjacency's values, shared
/// by the training fake-quant ([`quantize_adjacency`]) and the integer
/// engine's codes ([`crate::quantize_csr_symmetric`]) so both use one scale.
pub(crate) fn adjacency_qparams(a: &CsrMatrix, bits: u8) -> QuantParams {
    // An empty matrix (all-isolated graph) would fold to (+inf, −inf) and
    // poison the scale; any positive amplitude quantizes zero entries fine.
    let (lo, hi) = if a.nnz() == 0 {
        (0.0, 0.0)
    } else {
        (
            a.values().iter().copied().fold(f32::INFINITY, f32::min),
            a.values().iter().copied().fold(f32::NEG_INFINITY, f32::max),
        )
    };
    QuantParams::symmetric(lo, hi, bits)
}

/// An architecture `A` with its quantization slots, relaxed or fixed as
/// `P` ([`Relaxed`] or [`Fixed`]) says.
#[derive(Debug, Clone)]
pub struct QuantNet<A, P> {
    arch: A,
    q: Slots,
    precision: PhantomData<P>,
}

impl<A, P> QuantNet<A, P> {
    fn assemble(arch: A, q: SlotBuilder) -> Self {
        Self {
            arch,
            q: q.finish(),
            precision: PhantomData,
        }
    }
}

impl<A: Arch> QuantNet<A, Relaxed> {
    /// Forward pass returning `(logits, penalty terms)`: one `C(T)` term
    /// (with its tensor's element count) per slot, in forward order.
    pub fn forward(&mut self, f: &mut Fwd, b: &A::Bundle, x: Var) -> (Var, Vec<(Var, usize)>) {
        let y = self.arch.run(&mut self.q, f, b, x);
        (y, self.q.take_penalties())
    }

    /// Argmax bit-widths in schema order, ready for the fixed-bit net.
    pub fn extract(&self, ps: &ParamSet) -> BitAssignment {
        self.q.extract(ps)
    }

    /// ParamIds of every α vector (frozen during search warm-up).
    pub fn alpha_ids(&self) -> Vec<ParamId> {
        self.q.alpha_ids()
    }
}

impl<A: Arch<Bundle = NodeBundle>> NodeNet for QuantNet<A, Fixed> {
    fn forward(&mut self, f: &mut Fwd, b: &NodeBundle, x: Var) -> Var {
        self.arch.run(&mut self.q, f, b, x)
    }
}

impl<A: Arch<Bundle = GraphBundle>> GraphNet for QuantNet<A, Fixed> {
    fn forward(&mut self, f: &mut Fwd, b: &GraphBundle, x: Var) -> Var {
        self.arch.run(&mut self.q, f, b, x)
    }
}

// ---- GCN (node classification) ----------------------------------------------

/// Relaxed GCN of the MixQ search.
pub type RelaxedGcnNet = QuantNet<GcnArch, Relaxed>;
/// Fixed-bit GCN for QAT.
pub type QGcnNet = QuantNet<GcnArch, Fixed>;

impl RelaxedGcnNet {
    pub fn new(
        ps: &mut ParamSet,
        dims: &[usize],
        bit_choices: &[u8],
        dropout: f32,
        rng: &mut Rng,
    ) -> Self {
        let mut q = SlotBuilder::relaxed(ps, bit_choices, gcn_schema(dims.len() - 1));
        let arch = GcnArch::build(ps, dims, dropout, &mut q, rng);
        Self::assemble(arch, q)
    }
}

impl QGcnNet {
    /// `dims = [in, h…, classes]`; `assignment` must follow
    /// `gcn_schema(dims.len()-1)`. `degrees` (node in-degrees) parameterize
    /// the DQ/A²Q quantizers when `kind` requires them.
    pub fn new(
        ps: &mut ParamSet,
        dims: &[usize],
        assignment: BitAssignment,
        kind: QuantKind,
        degrees: &[usize],
        dropout: f32,
        rng: &mut Rng,
    ) -> MixqResult<Self> {
        let names = gcn_schema(dims.len() - 1);
        let mut q = SlotBuilder::fixed("QGcnNet::new", ps, &assignment, kind, degrees, names)?;
        let arch = GcnArch::build(ps, dims, dropout, &mut q, rng);
        Ok(Self::assemble(arch, q))
    }

    /// Exports the trained quantization parameters and weights for the
    /// integer inference engine (Fig. 5(iv)). Fails with `InvalidConfig`
    /// unless every component uses a native quantizer of at most 16 bits.
    pub fn snapshot(&self, ps: &ParamSet) -> MixqResult<GcnSnapshot> {
        const CX: &str = "QGcnNet::snapshot";
        let q = &self.q;
        let input_qp = q.qparams(CX, At::Input)?;
        let layers = (self.arch.lins.iter().enumerate())
            .map(|(i, lin)| {
                Ok(GcnLayerSnapshot {
                    weight: ps.value(lin.w).clone(),
                    bias: lin.b.map(|b| ps.value(b).data().to_vec()),
                    w_qp: q.qparams(CX, At::Layer(i, GCN_W))?,
                    lin_qp: q.qparams(CX, At::Layer(i, GCN_LIN))?,
                    agg_qp: q.qparams(CX, At::Layer(i, GCN_AGG))?,
                    adj_bits: q.adj_bits(CX, At::Layer(i, ADJ))?,
                })
            })
            .collect::<MixqResult<_>>()?;
        Ok(GcnSnapshot { input_qp, layers })
    }
}

// ---- GraphSAGE (node classification) -----------------------------------------

/// Relaxed GraphSAGE of the MixQ search.
pub type RelaxedSageNet = QuantNet<SageArch, Relaxed>;
/// Fixed-bit GraphSAGE for QAT.
pub type QSageNet = QuantNet<SageArch, Fixed>;

impl RelaxedSageNet {
    pub fn new(
        ps: &mut ParamSet,
        dims: &[usize],
        bit_choices: &[u8],
        dropout: f32,
        rng: &mut Rng,
    ) -> Self {
        let mut q = SlotBuilder::relaxed(ps, bit_choices, sage_schema(dims.len() - 1));
        let arch = SageArch::build(ps, dims, dropout, &mut q, rng);
        Self::assemble(arch, q)
    }
}

impl QSageNet {
    /// Same arguments as [`QGcnNet::new`], with a [`sage_schema`]
    /// assignment.
    pub fn new(
        ps: &mut ParamSet,
        dims: &[usize],
        assignment: BitAssignment,
        kind: QuantKind,
        degrees: &[usize],
        dropout: f32,
        rng: &mut Rng,
    ) -> MixqResult<Self> {
        let names = sage_schema(dims.len() - 1);
        let mut q = SlotBuilder::fixed("QSageNet::new", ps, &assignment, kind, degrees, names)?;
        let arch = SageArch::build(ps, dims, dropout, &mut q, rng);
        Ok(Self::assemble(arch, q))
    }

    /// Exports the trained quantization parameters and weights for the
    /// integer inference engine. Fails with `InvalidConfig` unless every
    /// component uses a native quantizer of at most 16 bits.
    pub fn snapshot(&self, ps: &ParamSet) -> MixqResult<SageSnapshot> {
        const CX: &str = "QSageNet::snapshot";
        let q = &self.q;
        let input_qp = q.qparams(CX, At::Input)?;
        let layers = (self.arch.layers.iter().enumerate())
            .map(|(i, l)| {
                Ok(SageLayerSnapshot {
                    w_root: ps.value(l.lin_root.w).clone(),
                    bias: l.lin_root.b.map(|b| ps.value(b).data().to_vec()),
                    w_neigh: ps.value(l.lin_neigh.w).clone(),
                    w_root_qp: q.qparams(CX, At::Layer(i, SAGE_W_ROOT))?,
                    w_neigh_qp: q.qparams(CX, At::Layer(i, SAGE_W_NEIGH))?,
                    agg_qp: q.qparams(CX, At::Layer(i, SAGE_AGG))?,
                    out_qp: q.qparams(CX, At::Layer(i, SAGE_OUT))?,
                    adj_bits: q.adj_bits(CX, At::Layer(i, ADJ))?,
                })
            })
            .collect::<MixqResult<_>>()?;
        Ok(SageSnapshot { input_qp, layers })
    }
}

// ---- GIN (graph classification) ------------------------------------------------

/// Relaxed GIN graph classifier of the MixQ search.
pub type RelaxedGinGraphNet = QuantNet<GinGraphArch, Relaxed>;
/// Fixed-bit GIN graph classifier for QAT.
pub type QGinGraphNet = QuantNet<GinGraphArch, Fixed>;

impl RelaxedGinGraphNet {
    pub fn new(
        ps: &mut ParamSet,
        in_dim: usize,
        hidden: usize,
        classes: usize,
        nlayers: usize,
        bit_choices: &[u8],
        rng: &mut Rng,
    ) -> Self {
        let mut q = SlotBuilder::relaxed(ps, bit_choices, gin_graph_schema(nlayers));
        let arch = GinGraphArch::build(ps, [in_dim, hidden, classes, nlayers], &mut q, rng);
        Self::assemble(arch, q)
    }
}

impl QGinGraphNet {
    /// `degrees` (in-degrees of the training batch's nodes) parameterize
    /// the DQ/A²Q quantizers when `kind` requires them.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        ps: &mut ParamSet,
        in_dim: usize,
        hidden: usize,
        classes: usize,
        nlayers: usize,
        assignment: BitAssignment,
        kind: QuantKind,
        degrees: &[usize],
        rng: &mut Rng,
    ) -> MixqResult<Self> {
        let names = gin_graph_schema(nlayers);
        let mut q = SlotBuilder::fixed("QGinGraphNet::new", ps, &assignment, kind, degrees, names)?;
        let arch = GinGraphArch::build(ps, [in_dim, hidden, classes, nlayers], &mut q, rng);
        Ok(Self::assemble(arch, q))
    }
}

// ---- GCN graph classifier (CSL) -------------------------------------------------

/// Relaxed GCN graph classifier of the MixQ search.
pub type RelaxedGcnGraphNet = QuantNet<GcnGraphArch, Relaxed>;
/// Fixed-bit GCN graph classifier for QAT.
pub type QGcnGraphNet = QuantNet<GcnGraphArch, Fixed>;

impl RelaxedGcnGraphNet {
    pub fn new(
        ps: &mut ParamSet,
        in_dim: usize,
        hidden: usize,
        classes: usize,
        nlayers: usize,
        bit_choices: &[u8],
        rng: &mut Rng,
    ) -> Self {
        let mut q = SlotBuilder::relaxed(ps, bit_choices, gcn_graph_schema(nlayers));
        let arch = GcnGraphArch::build(ps, [in_dim, hidden, classes, nlayers], &mut q, rng);
        Self::assemble(arch, q)
    }
}

impl QGcnGraphNet {
    /// Same arguments as [`QGinGraphNet::new`], with a
    /// [`gcn_graph_schema`] assignment.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        ps: &mut ParamSet,
        in_dim: usize,
        hidden: usize,
        classes: usize,
        nlayers: usize,
        assignment: BitAssignment,
        kind: QuantKind,
        degrees: &[usize],
        rng: &mut Rng,
    ) -> MixqResult<Self> {
        let names = gcn_graph_schema(nlayers);
        let mut q = SlotBuilder::fixed("QGcnGraphNet::new", ps, &assignment, kind, degrees, names)?;
        let arch = GcnGraphArch::build(ps, [in_dim, hidden, classes, nlayers], &mut q, rng);
        Ok(Self::assemble(arch, q))
    }
}

// ---- cost models ------------------------------------------------------------------

/// BitOPs/Bits cost of a (possibly quantized) multi-layer GCN under a
/// [`gcn_schema`] assignment. Works for FP32 too (uniform 32-bit).
pub fn gcn_cost_model(a: &BitAssignment, dims: &[usize], n: u64, nnz: u64) -> CostModel {
    let nlayers = dims.len() - 1;
    assert_eq!(a.names, gcn_schema(nlayers));
    let mut cm = CostModel::new();
    cm.add_component("input", n * dims[0] as u64, a.get("input"));
    let mut in_bits = a.get("input");
    for l in 0..nlayers {
        in_bits = gcn_layer_cost(&mut cm, a, l, [dims[l], dims[l + 1]], [n, nnz], in_bits);
    }
    cm
}

/// Adds GCN layer `l`'s components and terms (`[din, dout]` features, `n`
/// nodes, `nnz` edges, input codes `in_bits` wide) to `cm`; returns the
/// width of its output.
fn gcn_layer_cost(
    cm: &mut CostModel,
    a: &BitAssignment,
    l: usize,
    [din, dout]: [usize; 2],
    [n, nnz]: [u64; 2],
    in_bits: u8,
) -> u8 {
    let c = |part| layer_component(l, part);
    let (din, dout) = (din as u64, dout as u64);
    let bw = a.get(&c("weight"));
    let blin = a.get(&c("lin_out"));
    let badj = a.get(&c("adj"));
    let bagg = a.get(&c("agg_out"));
    cm.add_component(c("weight"), din * dout, bw);
    cm.add_component(c("lin_out"), n * dout, blin);
    cm.add_component(c("adj"), nnz, badj);
    cm.add_component(c("agg_out"), n * dout, bagg);
    cm.add_macs(c("xw"), n * din * dout, in_bits, bw);
    cm.add_macs(c("spmm"), nnz * dout, badj, blin);
    bagg
}

/// BitOPs/Bits cost of a multi-layer GraphSAGE under a [`sage_schema`]
/// assignment.
pub fn sage_cost_model(a: &BitAssignment, dims: &[usize], n: u64, nnz: u64) -> CostModel {
    let nlayers = dims.len() - 1;
    assert_eq!(a.names, sage_schema(nlayers));
    let mut cm = CostModel::new();
    cm.add_component("input", n * dims[0] as u64, a.get("input"));
    let mut in_bits = a.get("input");
    for l in 0..nlayers {
        let c = |part| layer_component(l, part);
        let (din, dout) = (dims[l] as u64, dims[l + 1] as u64);
        let badj = a.get(&c("adj"));
        let bwr = a.get(&c("w_root"));
        let bwn = a.get(&c("w_neigh"));
        let bagg = a.get(&c("agg"));
        let bout = a.get(&c("out"));
        cm.add_component(c("adj"), nnz, badj);
        cm.add_component(c("w_root"), din * dout, bwr);
        cm.add_component(c("w_neigh"), din * dout, bwn);
        cm.add_component(c("agg"), n * din, bagg);
        cm.add_component(c("out"), n * dout, bout);
        cm.add_macs(c("spmm"), nnz * din, badj, in_bits);
        cm.add_macs(c("root"), n * din * dout, in_bits, bwr);
        cm.add_macs(c("neigh"), n * din * dout, bagg, bwn);
        in_bits = bout;
    }
    cm
}

/// BitOPs/Bits cost of the GIN graph classifier under a
/// [`gin_graph_schema`] assignment.
#[allow(clippy::too_many_arguments)]
pub fn gin_graph_cost_model(
    a: &BitAssignment,
    in_dim: usize,
    hidden: usize,
    classes: usize,
    nlayers: usize,
    n: u64,
    nnz: u64,
    num_graphs: u64,
) -> CostModel {
    assert_eq!(a.names, gin_graph_schema(nlayers));
    let mut cm = CostModel::new();
    let h = hidden as u64;
    cm.add_component("input", n * in_dim as u64, a.get("input"));
    let mut in_bits = a.get("input");
    for l in 0..nlayers {
        let c = |part| layer_component(l, part);
        let din = if l == 0 { in_dim as u64 } else { h };
        let badj = a.get(&c("adj"));
        let bagg = a.get(&c("agg"));
        let bw1 = a.get(&c("w1"));
        let bh1 = a.get(&c("h1"));
        let bw2 = a.get(&c("w2"));
        let bh2 = a.get(&c("h2"));
        cm.add_component(c("adj"), nnz, badj);
        cm.add_component(c("agg"), n * din, bagg);
        cm.add_component(c("w1"), din * h, bw1);
        cm.add_component(c("h1"), n * h, bh1);
        cm.add_component(c("w2"), h * h, bw2);
        cm.add_component(c("h2"), n * h, bh2);
        cm.add_macs(c("spmm"), nnz * din, badj, in_bits);
        cm.add_macs(c("lin1"), n * din * h, bagg.max(in_bits), bw1);
        cm.add_macs(c("lin2"), n * h * h, bh1, bw2);
        in_bits = bh2;
    }
    let g = num_graphs;
    let c = classes as u64;
    cm.add_component("head.w1", h * h, a.get("head.w1"));
    cm.add_component("head.h1", g * h, a.get("head.h1"));
    cm.add_component("head.w2", h * c, a.get("head.w2"));
    cm.add_component("head.out", g * c, a.get("head.out"));
    cm.add_macs("head.lin1", g * h * h, in_bits, a.get("head.w1"));
    cm.add_macs("head.lin2", g * h * c, a.get("head.h1"), a.get("head.w2"));
    cm
}

/// BitOPs/Bits cost of the GCN graph classifier under a
/// [`gcn_graph_schema`] assignment.
#[allow(clippy::too_many_arguments)]
pub fn gcn_graph_cost_model(
    a: &BitAssignment,
    in_dim: usize,
    hidden: usize,
    classes: usize,
    nlayers: usize,
    n: u64,
    nnz: u64,
    num_graphs: u64,
) -> CostModel {
    assert_eq!(a.names, gcn_graph_schema(nlayers));
    let mut cm = CostModel::new();
    let h = hidden as u64;
    cm.add_component("input", n * in_dim as u64, a.get("input"));
    let mut in_bits = a.get("input");
    for l in 0..nlayers {
        let din = if l == 0 { in_dim } else { hidden };
        in_bits = gcn_layer_cost(&mut cm, a, l, [din, hidden], [n, nnz], in_bits);
    }
    let g = num_graphs;
    let c = classes as u64;
    cm.add_component("head.w", h * c, a.get("head.w"));
    cm.add_component("head.out", g * c, a.get("head.out"));
    cm.add_macs("head", g * h * c, in_bits, a.get("head.w"));
    cm
}
