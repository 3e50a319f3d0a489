//! Parameter storage and the per-forward binding between parameters and
//! tape variables.
//!
//! Layers hold [`ParamId`]s into a shared [`ParamSet`]; each forward pass
//! *binds* the parameters it uses onto a fresh [`Tape`]
//! via a [`Binding`], and after `backward` the gradients are pulled back
//! into the `ParamSet` where the optimizer finds them.

use mixq_tensor::{Matrix, Rng, Tape, Var};

/// Handle to one parameter tensor in a [`ParamSet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParamId(usize);

/// One learnable tensor plus its gradient and Adam moment estimates.
#[derive(Debug, Clone)]
pub struct Param {
    pub value: Matrix,
    pub grad: Matrix,
    pub m: Matrix,
    pub v: Matrix,
}

/// Arena of all learnable parameters of a model.
#[derive(Debug, Clone, Default)]
pub struct ParamSet {
    params: Vec<Param>,
}

impl ParamSet {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn add(&mut self, value: Matrix) -> ParamId {
        let (r, c) = value.shape();
        self.params.push(Param {
            value,
            grad: Matrix::zeros(r, c),
            m: Matrix::zeros(r, c),
            v: Matrix::zeros(r, c),
        });
        ParamId(self.params.len() - 1)
    }

    /// Glorot/Xavier-uniform initialized matrix, the standard GNN choice.
    pub fn add_glorot(&mut self, rows: usize, cols: usize, rng: &mut Rng) -> ParamId {
        let limit = (6.0 / (rows + cols) as f32).sqrt();
        let m = Matrix::from_fn(rows, cols, |_, _| rng.uniform_in(-limit, limit));
        self.add(m)
    }

    pub fn add_zeros(&mut self, rows: usize, cols: usize) -> ParamId {
        self.add(Matrix::zeros(rows, cols))
    }

    pub fn value(&self, id: ParamId) -> &Matrix {
        &self.params[id.0].value
    }

    pub fn value_mut(&mut self, id: ParamId) -> &mut Matrix {
        &mut self.params[id.0].value
    }

    pub fn grad(&self, id: ParamId) -> &Matrix {
        &self.params[id.0].grad
    }

    /// Mutable gradient access (fault-injection sites and custom
    /// regularizers write through this).
    pub fn grad_mut(&mut self, id: ParamId) -> &mut Matrix {
        &mut self.params[id.0].grad
    }

    pub fn len(&self) -> usize {
        self.params.len()
    }

    pub fn is_empty(&self) -> bool {
        self.params.is_empty()
    }

    /// Total number of scalar parameters (for Table 1-style accounting).
    pub fn num_scalars(&self) -> usize {
        self.params.iter().map(|p| p.value.numel()).sum()
    }

    /// Global L2 norm of all gradient buffers (√ Σᵢ gᵢ²), accumulated in
    /// `f64` so it is stable across parameter orderings. Used by the
    /// training telemetry; call after [`ParamSet::pull_grads`].
    pub fn grad_norm(&self) -> f64 {
        self.params
            .iter()
            .flat_map(|p| p.grad.data().iter())
            .map(|&g| g as f64 * g as f64)
            .sum::<f64>()
            .sqrt()
    }

    /// `true` iff every gradient buffer is finite. The training loops run
    /// this after `pull_grads` to detect divergence before the optimizer
    /// can propagate NaN/Inf into the weights.
    pub fn grads_finite(&self) -> bool {
        self.params.iter().all(|p| !p.grad.has_non_finite())
    }

    /// Zeroes the gradient of one parameter (used to freeze it for a step).
    pub fn grad_zero(&mut self, id: ParamId) {
        self.params[id.0].grad.data_mut().fill(0.0);
    }

    pub fn zero_grads(&mut self) {
        for p in &mut self.params {
            p.grad.data_mut().fill(0.0);
        }
    }

    pub(crate) fn param(&self, id: ParamId) -> &Param {
        &self.params[id.0]
    }

    pub(crate) fn param_mut(&mut self, id: ParamId) -> &mut Param {
        &mut self.params[id.0]
    }

    pub(crate) fn ids(&self) -> impl Iterator<Item = ParamId> {
        (0..self.params.len()).map(ParamId)
    }

    /// All parameter ids (e.g. to freeze everything except a subset).
    pub fn all_ids(&self) -> Vec<ParamId> {
        (0..self.params.len()).map(ParamId).collect()
    }

    /// Accumulates the tape gradients recorded in `binding` into the
    /// parameters' `grad` buffers. Call after `tape.backward`.
    pub fn pull_grads(&mut self, binding: &Binding, tape: &Tape) {
        for &(id, var) in &binding.pairs {
            if let Some(g) = tape.grad(var) {
                self.params[id.0].grad.add_assign(g);
            }
        }
    }
}

/// Records which tape variable each parameter was bound to in one forward
/// pass. A parameter bound twice reuses the same variable so gradient
/// accumulation happens on the tape.
///
/// A binding may hold a *frozen* set: those parameters go on the tape as
/// constants ([`Tape::constant`]), so they receive no gradient and the
/// backward pass skips every product that would only feed them. The
/// gradients of the other parameters are bit-identical to binding all of
/// them as leaves, since a node's gradient only ever sums contributions
/// from nodes that need one too.
#[derive(Debug, Default)]
pub struct Binding {
    pairs: Vec<(ParamId, Var)>,
    frozen: Vec<ParamId>,
}

impl Binding {
    /// A binding with every parameter trainable.
    pub fn new() -> Self {
        Self::default()
    }

    /// A binding that places the parameters in `frozen` on the tape as
    /// constants (one side of a bi-level step, say).
    pub fn freezing(frozen: &[ParamId]) -> Self {
        Self {
            pairs: Vec::new(),
            frozen: frozen.to_vec(),
        }
    }

    /// Places the parameter's current value on the tape as a leaf, or as a
    /// constant when it is frozen (or returns the existing variable if
    /// already bound this pass).
    pub fn bind(&mut self, tape: &mut Tape, ps: &ParamSet, id: ParamId) -> Var {
        if let Some(&(_, v)) = self.pairs.iter().find(|(pid, _)| *pid == id) {
            return v;
        }
        let value = ps.value(id).clone();
        let v = if self.frozen.contains(&id) {
            tape.constant(value)
        } else {
            tape.leaf(value)
        };
        self.pairs.push((id, v));
        v
    }
}

/// Everything a layer needs during one forward pass.
pub struct Fwd<'a> {
    pub tape: &'a mut Tape,
    pub ps: &'a ParamSet,
    pub binding: &'a mut Binding,
    pub rng: &'a mut Rng,
    pub training: bool,
}

impl<'a> Fwd<'a> {
    pub fn bind(&mut self, id: ParamId) -> Var {
        self.binding.bind(self.tape, self.ps, id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn glorot_init_within_limit() {
        let mut ps = ParamSet::new();
        let mut rng = Rng::seed_from_u64(1);
        let id = ps.add_glorot(10, 20, &mut rng);
        let limit = (6.0f32 / 30.0).sqrt();
        assert!(ps.value(id).data().iter().all(|v| v.abs() <= limit));
        assert_eq!(ps.num_scalars(), 200);
    }

    #[test]
    fn binding_reuses_vars_and_accumulates_grads() {
        let mut ps = ParamSet::new();
        let id = ps.add(Matrix::from_vec(1, 2, vec![2.0, 3.0]));
        let mut tape = Tape::new();
        let mut binding = Binding::new();
        let v1 = binding.bind(&mut tape, &ps, id);
        let v2 = binding.bind(&mut tape, &ps, id);
        assert_eq!(v1, v2, "same param must bind to the same var");

        // loss = sum(w ⊙ w) ⇒ dw = 2w
        let y = tape.mul(v1, v2);
        let loss = tape.sum_all(y);
        tape.backward(loss);
        ps.pull_grads(&binding, &tape);
        assert_eq!(ps.grad(id).data(), &[4.0, 6.0]);

        // pull twice accumulates (caller controls zeroing).
        ps.pull_grads(&binding, &tape);
        assert_eq!(ps.grad(id).data(), &[8.0, 12.0]);
        ps.zero_grads();
        assert_eq!(ps.grad(id).data(), &[0.0, 0.0]);
    }

    #[test]
    fn frozen_params_get_no_gradient_and_the_rest_are_unchanged() {
        let mut ps = ParamSet::new();
        let w = ps.add(Matrix::from_vec(1, 2, vec![2.0, 3.0]));
        let s = ps.add(Matrix::from_vec(1, 2, vec![-1.0, 0.5]));
        let run = |binding: &mut Binding, ps: &mut ParamSet| {
            ps.zero_grads();
            let mut tape = Tape::new();
            let (wv, sv) = (
                binding.bind(&mut tape, ps, w),
                binding.bind(&mut tape, ps, s),
            );
            let y = tape.mul(wv, sv);
            let y = tape.mul(y, wv);
            let loss = tape.sum_all(y);
            tape.backward(loss);
            ps.pull_grads(binding, &tape);
        };
        run(&mut Binding::new(), &mut ps);
        let want_w = ps.grad(w).clone();
        run(&mut Binding::freezing(&[s]), &mut ps);
        assert_eq!(ps.grad(w), &want_w);
        assert_eq!(ps.grad(s).data(), &[0.0, 0.0]);
    }
}
