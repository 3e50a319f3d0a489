//! Node-feature quantizers: the native QAT quantizer plus the two
//! graph-structure-aware schemes the paper compares against and composes
//! with (Degree-Quant and an A²Q-style per-node quantizer).

use mixq_nn::Fwd;
use mixq_tensor::{Matrix, QuantParams, Var};

use crate::lsq::LsqQuantizer;
use crate::observer::Observer;
use crate::qat::{FakeQuantizer, RangePolicy};

/// Degree-Quant (\[8\]): during training, high in-degree nodes are
/// stochastically protected (kept FP32) with probability proportional to
/// their degree percentile, and quantization ranges use percentile clipping.
/// At inference everything is quantized.
#[derive(Debug, Clone)]
pub struct DqQuantizer {
    pub inner: FakeQuantizer,
    /// Per-node protection probability in `[p_min, p_max]`.
    pub protect: Vec<f32>,
}

impl DqQuantizer {
    /// Builds the protective mask from node in-degrees: the probability
    /// interpolates between `p_min` (lowest degree) and `p_max` (highest)
    /// by degree rank, as in the DQ paper.
    pub fn new(bits: u8, degrees: &[usize], p_min: f32, p_max: f32) -> Self {
        assert!(p_min <= p_max && p_max <= 1.0);
        let n = degrees.len();
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&i| degrees[i]);
        let mut protect = vec![0f32; n];
        for (rank, &i) in order.iter().enumerate() {
            let t = if n > 1 {
                rank as f32 / (n - 1) as f32
            } else {
                0.0
            };
            protect[i] = p_min + t * (p_max - p_min);
        }
        let inner = FakeQuantizer::new(bits, false)
            .with_policy(RangePolicy::Percentile(0.001))
            .with_raw_range();
        Self { inner, protect }
    }

    pub fn forward(&mut self, f: &mut Fwd, x: Var) -> Var {
        if self.inner.is_identity() {
            return x;
        }
        let q = self.inner.forward(f, x);
        if !f.training {
            return q;
        }
        // Stochastic protection: y = m ⊙ x + (1−m) ⊙ q, row-wise mask.
        // Protection is a *node-level* mechanism; tensors whose rows are
        // not nodes (e.g. pooled per-graph embeddings) are quantized
        // without it.
        let (rows, cols) = f.tape.value(x).shape();
        if rows != self.protect.len() {
            return q;
        }
        let mut mask = Matrix::zeros(rows, cols);
        for r in 0..rows {
            if f.rng.bernoulli(self.protect[r] as f64) {
                mask.row_slice_mut(r).fill(1.0);
            }
        }
        let inv = mask.map(|v| 1.0 - v);
        let m = f.tape.constant(mask);
        let im = f.tape.constant(inv);
        let keep = f.tape.mul(x, m);
        let quant = f.tape.mul(q, im);
        f.tape.add(keep, quant)
    }
}

/// A²Q-style per-node quantization (\[16\]): nodes carry their own scale and
/// bit-width. Scales/bit-widths are keyed by *degree bucket* (⌊log₂ deg⌋),
/// which is how the original generalizes to unseen graphs ("a nearest
/// neighbor strategy … learning a fixed number of quantization parameters
/// and selecting the appropriate ones"). High in-degree nodes — the main
/// source of aggregation error — receive more bits, and the scheme pays the
/// `O(n)` per-node parameter/bookkeeping overhead that Table 1 attributes
/// to A²Q (see DESIGN.md, "Substitutions").
#[derive(Debug, Clone)]
pub struct A2qQuantizer {
    /// Bit-width for each degree bucket.
    pub bucket_bits: Vec<u8>,
    observers: Vec<Observer>,
    /// Degrees of the rows of the tensor currently being quantized; updated
    /// by the owning network per batch via [`A2qQuantizer::set_degrees`].
    degrees: Vec<usize>,
}

const A2Q_BUCKETS: usize = 16;

fn degree_bucket(deg: usize) -> usize {
    (usize::BITS - deg.leading_zeros()) as usize % A2Q_BUCKETS
}

impl A2qQuantizer {
    /// Allocates bucket bit-widths from a degree sample: buckets above the
    /// 90th degree percentile get `hi` bits, above the 60th get `mid`, the
    /// rest `lo`.
    pub fn new(sample_degrees: &[usize], lo: u8, mid: u8, hi: u8) -> Self {
        assert!(!sample_degrees.is_empty());
        let mut sorted = sample_degrees.to_vec();
        sorted.sort_unstable();
        let p60 = sorted[(sorted.len() * 60) / 100];
        let p90 = sorted[(sorted.len() * 90) / 100];
        let bucket_bits = (0..A2Q_BUCKETS)
            .map(|b| {
                // Largest degree the bucket covers: 2^b − 1.
                let upper = (1usize << b).saturating_sub(1);
                if upper > p90 {
                    hi
                } else if upper > p60 {
                    mid
                } else {
                    lo
                }
            })
            .collect();
        Self {
            bucket_bits,
            observers: vec![Observer::new(); A2Q_BUCKETS],
            degrees: sample_degrees.to_vec(),
        }
    }

    /// Sets the per-row degrees for the next batch (node count may differ
    /// between train and evaluation batches in graph-level tasks).
    pub fn set_degrees(&mut self, degrees: &[usize]) {
        self.degrees = degrees.to_vec();
    }

    /// Per-node bit-width under the current degrees.
    pub fn bits_per_node(&self) -> Vec<u8> {
        self.degrees
            .iter()
            .map(|&d| self.bucket_bits[degree_bucket(d)])
            .collect()
    }

    /// Average bit-width over nodes (the "Bits" this scheme reports).
    pub fn avg_bits(&self) -> f64 {
        let bits = self.bits_per_node();
        bits.iter().map(|&b| b as f64).sum::<f64>() / bits.len() as f64
    }

    /// FP32 quantization parameters this scheme logically stores: one scale
    /// and one zero-point *per node* (Table 1's `O(n·l)` space term).
    pub fn extra_params_for(n: usize) -> usize {
        2 * n
    }

    pub fn forward(&mut self, f: &mut Fwd, x: Var) -> Var {
        let xm = f.tape.value(x);
        let rows = xm.rows();
        assert_eq!(rows, self.degrees.len(), "set_degrees before forward");
        if f.training || !self.observers.iter().any(|o| o.is_initialized()) {
            for r in 0..rows {
                let row = xm.row_slice(r);
                let lo = row.iter().copied().fold(f32::INFINITY, f32::min);
                let hi = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                self.observers[degree_bucket(self.degrees[r])].update_range(lo, hi);
            }
        }
        let qps: Vec<QuantParams> = (0..rows)
            .map(|r| {
                let b = degree_bucket(self.degrees[r]);
                let obs = if self.observers[b].is_initialized() {
                    &self.observers[b]
                } else {
                    // Unseen bucket at eval: fall back to the nearest
                    // initialized bucket (the "nearest neighbor" strategy).
                    self.nearest_initialized(b)
                };
                obs.qparams(self.bucket_bits[b], false)
            })
            .collect();
        f.tape.fake_quant_rows(x, &qps)
    }

    fn nearest_initialized(&self, b: usize) -> &Observer {
        for d in 1..A2Q_BUCKETS {
            if b >= d && self.observers[b - d].is_initialized() {
                return &self.observers[b - d];
            }
            if b + d < A2Q_BUCKETS && self.observers[b + d].is_initialized() {
                return &self.observers[b + d];
            }
        }
        panic!("A2Q quantizer has observed no data");
    }
}

/// The node-activation quantizer used by a quantized architecture.
#[derive(Debug, Clone)]
pub enum NodeQuant {
    Native(FakeQuantizer),
    Dq(DqQuantizer),
    A2q(A2qQuantizer),
    Lsq(LsqQuantizer),
}

impl NodeQuant {
    pub fn forward(&mut self, f: &mut Fwd, x: Var) -> Var {
        match self {
            NodeQuant::Native(q) => q.forward(f, x),
            NodeQuant::Dq(q) => q.forward(f, x),
            NodeQuant::A2q(q) => q.forward(f, x),
            NodeQuant::Lsq(q) => q.forward(f, x),
        }
    }

    /// Updates the per-row degrees for quantizers that need them (A²Q);
    /// no-op for the others. Call before forwarding a batch whose node set
    /// differs from the one seen at construction.
    pub fn set_degrees(&mut self, degrees: &[usize]) {
        if let NodeQuant::A2q(q) = self {
            q.set_degrees(degrees);
        }
    }
}

/// Which quantizer family a quantized architecture instantiates for its
/// node-activation components (weights/adjacency always use the native
/// quantizer, matching the paper's setups).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum QuantKind {
    Native,
    /// Degree-Quant with the given protection probability range.
    Dq {
        p_min: f32,
        p_max: f32,
    },
    /// A²Q-style per-node quantization with the given lo/mid/hi bit tiers
    /// (the component's own bit-width is ignored for node activations).
    A2q {
        lo: u8,
        mid: u8,
        hi: u8,
    },
    /// LSQ: learnable scales trained by gradient descent.
    Lsq,
}

impl QuantKind {
    pub(crate) fn make(self, bits: u8, degrees: &[usize], ps: &mut mixq_nn::ParamSet) -> NodeQuant {
        match self {
            QuantKind::Native => NodeQuant::Native(FakeQuantizer::new(bits, false)),
            QuantKind::Dq { p_min, p_max } => {
                NodeQuant::Dq(DqQuantizer::new(bits, degrees, p_min, p_max))
            }
            QuantKind::A2q { lo, mid, hi } => {
                NodeQuant::A2q(A2qQuantizer::new(degrees, lo, mid, hi))
            }
            QuantKind::Lsq => NodeQuant::Lsq(LsqQuantizer::new(ps, bits)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mixq_nn::{Binding, ParamSet};
    use mixq_tensor::{Rng, Tape};

    fn run(q: &mut NodeQuant, x: Matrix, training: bool, seed: u64) -> Matrix {
        let ps = ParamSet::new();
        let mut tape = Tape::new();
        let mut binding = Binding::new();
        let mut rng = Rng::seed_from_u64(seed);
        let mut f = Fwd {
            tape: &mut tape,
            ps: &ps,
            binding: &mut binding,
            rng: &mut rng,
            training,
        };
        let xv = f.tape.constant(x);
        let y = q.forward(&mut f, xv);
        tape.value(y).clone()
    }

    #[test]
    fn dq_protection_increases_with_degree() {
        let degrees = vec![1, 5, 100, 2, 50];
        let dq = DqQuantizer::new(4, &degrees, 0.0, 1.0);
        assert!(
            dq.protect[2] > dq.protect[1],
            "higher degree ⇒ higher protection"
        );
        assert_eq!(dq.protect[2], 1.0);
        assert_eq!(dq.protect[0], 0.0);
    }

    #[test]
    fn dq_protected_rows_pass_through_in_training() {
        let degrees = vec![10usize; 4];
        // All nodes fully protected ⇒ training output equals input.
        let mut q = NodeQuant::Dq(DqQuantizer::new(2, &degrees, 1.0, 1.0));
        let x = Matrix::from_fn(4, 3, |r, c| (r * 3 + c) as f32 * 0.217);
        let y = run(&mut q, x.clone(), true, 1);
        assert_eq!(y, x);
        // At inference everything is quantized (low bits ⇒ visible error).
        let y_inf = run(&mut q, x.clone(), false, 1);
        assert!(y_inf.max_abs_diff(&x) > 1e-3);
    }

    #[test]
    fn a2q_allocates_more_bits_to_hubs() {
        let mut degrees = vec![1usize; 100];
        degrees[7] = 500;
        let q = A2qQuantizer::new(&degrees, 2, 4, 8);
        assert_eq!(q.bits_per_node()[7], 8);
        assert!(q.avg_bits() < 4.0);
        assert_eq!(A2qQuantizer::extra_params_for(100), 200);
    }

    #[test]
    fn a2q_rows_use_their_own_bits() {
        let degrees = vec![100, 1];
        let mut inner = A2qQuantizer::new(&[1, 1, 1, 1, 1, 1, 1, 1, 1, 100], 2, 4, 8);
        inner.set_degrees(&degrees);
        assert_eq!(inner.bits_per_node(), vec![8, 2]);
        let mut q = NodeQuant::A2q(inner);
        let x = Matrix::from_vec(2, 4, vec![0.1, 0.3, 0.7, 0.9, 0.1, 0.3, 0.7, 0.9]);
        let y = run(&mut q, x.clone(), true, 2);
        // Row 0 has 8 bits ⇒ small error; row 1 has 2 bits ⇒ large error.
        let e0: f32 = (0..4).map(|c| (y.get(0, c) - x.get(0, c)).abs()).sum();
        let e1: f32 = (0..4).map(|c| (y.get(1, c) - x.get(1, c)).abs()).sum();
        assert!(
            e1 > e0 * 4.0,
            "per-row bit-widths not applied: e0={e0}, e1={e1}"
        );
    }

    #[test]
    fn native_matches_fake_quantizer() {
        let mut q = NodeQuant::Native(FakeQuantizer::new(8, false));
        let x = Matrix::from_fn(3, 3, |r, c| (r as f32 - c as f32) * 0.37);
        let y = run(&mut q, x.clone(), true, 3);
        assert!(y.max_abs_diff(&x) < 0.01, "8-bit error should be small");
        assert!(y != x, "but not exactly zero");
    }
}
