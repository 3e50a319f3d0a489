//! Relaxed (differentiable) quantizers — §4.1.
//!
//! A relaxed net puts one of these in every quantization slot (see
//! [`crate::Slots`]) in place of a fixed-bit quantizer. Each holds one
//! learnable logit α per candidate bit-width: the forward pass outputs the
//! softmax-weighted mixture of the candidate fake quantizations (Eq. 6) and
//! contributes a differentiable bit-cost term `C(T)` (Eq. 8). Training the
//! relaxed architecture with `L + λ·Σ C(T_i)` tunes the α's; `argmax α`
//! then yields the bit-width assignment (Algorithm 1).

use std::sync::Arc;

use mixq_nn::{Fwd, ParamId, ParamSet};
use mixq_tensor::{softmax_slice, Matrix, QuantParams, SpPair, Var};

use crate::observer::Observer;
use crate::slots::AdjCache;

/// One relaxed quantizer over dense tensors (inputs, weights, function
/// outputs).
#[derive(Debug, Clone)]
pub struct RelaxedQuantizer {
    pub alphas: ParamId,
    pub bit_choices: Vec<u8>,
    pub observer: Observer,
    pub symmetric: bool,
}

impl RelaxedQuantizer {
    pub fn new(ps: &mut ParamSet, bit_choices: &[u8], symmetric: bool) -> Self {
        assert!(!bit_choices.is_empty());
        Self {
            alphas: ps.add_zeros(1, bit_choices.len()),
            bit_choices: bit_choices.to_vec(),
            observer: Observer::new(),
            symmetric,
        }
    }

    /// Eq. 6 forward; pushes this tensor's `C(T)` term (and its element
    /// count, used for size normalization) onto `pens`.
    pub fn forward(&mut self, f: &mut Fwd, x: Var, pens: &mut Vec<(Var, usize)>) -> Var {
        if f.training || !self.observer.is_initialized() {
            self.observer.observe(f.tape.value(x));
        }
        let qps: Vec<QuantParams> = self
            .bit_choices
            .iter()
            .map(|&b| self.observer.qparams(b, self.symmetric))
            .collect();
        let av = f.bind(self.alphas);
        let numel = f.tape.value(x).numel();
        let y = f.tape.relaxed_fake_quant(x, av, &qps);
        let bits: Vec<f32> = self.bit_choices.iter().map(|&b| b as f32).collect();
        pens.push((f.tape.bit_penalty(av, &bits, numel), numel));
        y
    }

    /// The bit-width with the highest α (Algorithm 1 line 25).
    pub fn selected(&self, ps: &ParamSet) -> u8 {
        argmax_choice(ps, self.alphas, &self.bit_choices)
    }

    /// Current softmax probabilities over the bit choices.
    pub fn probs(&self, ps: &ParamSet) -> Vec<f32> {
        softmax_slice(ps.value(self.alphas).data())
    }
}

/// Relaxed quantizer for a *sparse adjacency* operand. Because aggregation
/// is linear, the mixture `(Σ_i w_i Q_i(Â)) X` equals `Σ_i w_i (Q_i(Â) X)`,
/// so the forward computes one SpMM per candidate and mixes the results —
/// exactly the `×|B|` cost factor §4.2 attributes to the relaxed
/// architecture.
#[derive(Debug, Clone)]
pub struct RelaxedAdjQuantizer {
    pub alphas: ParamId,
    pub bit_choices: Vec<u8>,
    cache: Vec<AdjCache>,
}

impl RelaxedAdjQuantizer {
    pub fn new(ps: &mut ParamSet, bit_choices: &[u8]) -> Self {
        Self {
            alphas: ps.add_zeros(1, bit_choices.len()),
            bit_choices: bit_choices.to_vec(),
            cache: vec![AdjCache::default(); bit_choices.len()],
        }
    }

    /// Mixed quantized aggregation `Σ_i softmax(α)_i · Q_i(Â)·x`.
    pub fn forward(
        &mut self,
        f: &mut Fwd,
        pair: &Arc<SpPair>,
        x: Var,
        pens: &mut Vec<(Var, usize)>,
    ) -> Var {
        let k = self.bit_choices.len();
        // Quantize (or fetch) every candidate before the first SpMM, so the
        // long-lived cached adjacencies are allocated ahead of this pass's
        // outputs rather than between them (a lower peak resident set).
        let adjs: Vec<Arc<SpPair>> = (self.cache.iter_mut())
            .zip(&self.bit_choices)
            .map(|(cache, &bits)| cache.get(pair, bits))
            .collect();
        let av = f.bind(self.alphas);
        let logw = f.tape.log_softmax(av);
        let w = f.tape.exp(logw);
        let mut out: Option<Var> = None;
        for (i, adj) in adjs.iter().enumerate() {
            let yi = f.tape.spmm(adj, x);
            // w_i as a 1×1 var: ⟨w, e_i⟩.
            let onehot =
                f.tape
                    .constant(Matrix::from_fn(1, k, |_, c| if c == i { 1.0 } else { 0.0 }));
            let wi_vec = f.tape.mul(w, onehot);
            let wi = f.tape.sum_all(wi_vec);
            let term = f.tape.mul_scalar_var(yi, wi);
            out = Some(match out {
                Some(acc) => f.tape.add(acc, term),
                None => term,
            });
        }
        let bits: Vec<f32> = self.bit_choices.iter().map(|&b| b as f32).collect();
        pens.push((f.tape.bit_penalty(av, &bits, pair.a.nnz()), pair.a.nnz()));
        out.unwrap()
    }

    /// The bit-width with the highest α.
    pub fn selected(&self, ps: &ParamSet) -> u8 {
        argmax_choice(ps, self.alphas, &self.bit_choices)
    }
}

/// The choice with the highest α; ties go to the earliest choice.
fn argmax_choice(ps: &ParamSet, alphas: ParamId, choices: &[u8]) -> u8 {
    let a = ps.value(alphas).data();
    let mut best = 0usize;
    for i in 1..a.len() {
        if a[i] > a[best] {
            best = i;
        }
    }
    choices[best]
}
