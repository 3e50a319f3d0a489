//! MixQ-GNN bit-width selection — Algorithm 1.
//!
//! Builds the relaxed architecture (all quantizers carrying per-bit-width
//! α logits), trains it on the task loss plus `λ·Σᵢ C(Tᵢ)`, and extracts
//! the argmax bit-widths. The resulting [`BitAssignment`] is then used to
//! instantiate and train the corresponding fixed-bit QAT net.

use mixq_graph::{NodeDataset, NodeTargets};
use mixq_nn::{
    run_epochs, Arch, Best, Binding, CheckpointConfig, Epoch, EpochEnd, Fwd, GraphBundle,
    NodeBundle, ParamId, ParamSet, TrainConfig,
};
use mixq_tensor::{softmax_slice, Matrix, Rng, Tape, Var};

use crate::bits::BitAssignment;
use crate::qnets::{
    QuantNet, RelaxedGcnGraphNet, RelaxedGcnNet, RelaxedGinGraphNet, RelaxedSageNet,
};
use crate::slots::Relaxed;

/// Hyper-parameters of the relaxed search phase.
#[derive(Debug, Clone)]
pub struct SearchConfig {
    pub epochs: usize,
    pub lr: f32,
    /// The Lagrange multiplier λ weighting `Σ C(T)`. Negative values
    /// (the paper's `−ε`) reward wider bit-widths.
    pub lambda: f32,
    pub seed: u64,
    /// Epochs during which the α logits stay frozen while Θ fits the task
    /// (DARTS-style warm-up; prevents the early-training shrinkage bias
    /// from capturing the bit-width choice).
    pub warmup: usize,
    /// Divergence recovery: consecutive retries of one epoch before the
    /// search stops early (mirrors `TrainConfig::max_retries`).
    pub max_retries: usize,
    /// LR multiplier applied from the second retry of an epoch onward.
    pub backoff: f32,
    /// Periodic crash-safe checkpointing of the relaxed search state.
    pub checkpoint: Option<CheckpointConfig>,
    /// Resume from this checkpoint if it exists (missing files start
    /// fresh; unreadable or mismatched ones start fresh and bump the
    /// `search.resume_failures` telemetry counter).
    pub resume_from: Option<std::path::PathBuf>,
}

impl Default for SearchConfig {
    fn default() -> Self {
        Self {
            epochs: 60,
            lr: 0.01,
            lambda: 0.1,
            seed: 0,
            warmup: 25,
            max_retries: 3,
            backoff: 0.5,
            checkpoint: None,
            resume_from: None,
        }
    }
}

/// The one generic search (Algorithm 1): trains the relaxed `net` on
/// `bundle` and returns its argmax bit-widths. A bi-level loop
/// (DARTS-style, as the continuous relaxation the paper builds on [52]):
///
/// * **Θ step** (every epoch): minimize the *training* task loss with the
///   α logits frozen;
/// * **α step** (after `cfg.warmup` epochs): minimize the *validation*
///   task loss plus `λ·Σ C(T)` with Θ frozen.
///
/// `task_loss(tape, logits, val)` builds the task loss over the training
/// rows, or over the validation rows when `val` is set. Updating α on
/// held-out data is essential: on the training loss, coarse quantizers act
/// as a regularizer/feature-selector and would win even when they destroy
/// generalization. The penalty sum is normalized by the total number of
/// penalized elements (so `λ·Σ C` has the scale of an element-weighted
/// average bit-width, keeping λ's useful range dataset-size independent).
///
/// Each step binds the frozen side as tape constants
/// ([`Binding::freezing`]): the Θ step computes no α gradient, and because
/// the input quantizer carries α, it also skips the `n × features` input
/// gradient and the input-dropout backward, which nothing would use. The
/// frozen side's gradients stay at the zeros each forward starts from, so
/// Adam sees the same all-zero gradients as with compute-then-zero.
///
/// The epochs run on the shared driver ([`run_epochs`]), so divergence
/// recovery matches [`mixq_nn::train_node`]: a non-finite loss or gradient
/// rolls the whole epoch (Θ **and** α step, and the net's range
/// observers) back to its start snapshot with bounded retries. Exhausting `cfg.max_retries` restores the last
/// finite state and stops the search early (bumping
/// `search.divergence_aborts`), so the extracted assignment always comes
/// from finite α logits.
fn search<A: Arch>(
    mut ps: ParamSet,
    mut net: QuantNet<A, Relaxed>,
    bundle: &A::Bundle,
    features: &Matrix,
    cfg: &SearchConfig,
    task_loss: impl Fn(&mut Tape, Var, bool) -> Var,
) -> BitAssignment {
    let alpha_ids = net.alpha_ids();
    let theta_ids: Vec<ParamId> = (ps.all_ids().into_iter())
        .filter(|id| !alpha_ids.contains(id))
        .collect();
    let loop_cfg = TrainConfig {
        epochs: cfg.epochs,
        lr: cfg.lr,
        weight_decay: 0.0,
        seed: cfg.seed,
        max_retries: cfg.max_retries,
        backoff: cfg.backoff,
        checkpoint: cfg.checkpoint.clone(),
        resume_from: cfg.resume_from.clone(),
        ..TrainConfig::default()
    };
    // The Θ step (`val` false) trains on the training rows with α frozen;
    // the α step on the validation rows with Θ frozen.
    let forward = |e: &mut Epoch, net: &mut QuantNet<A, Relaxed>, training: bool, val: bool| {
        e.ps.zero_grads();
        let mut tape = Tape::new();
        let mut binding = Binding::freezing(if val { &theta_ids } else { &alpha_ids });
        let mut f = Fwd {
            tape: &mut tape,
            ps: e.ps,
            binding: &mut binding,
            rng: e.rng,
            training,
        };
        let x = f.tape.constant(features.clone());
        let (logits, pens) = net.forward(&mut f, bundle, x);
        let loss = task_loss(&mut tape, logits, val);
        (tape, binding, loss, pens)
    };
    // The relaxed net rides along as rollback state: its range observers
    // see every training forward, so a retried epoch must start from the
    // observers of the epoch start, like the parameters.
    let out = run_epochs(
        &mut ps,
        &mut net,
        &loop_cfg,
        "search",
        "search/epoch",
        &mut Best::untracked(),
        |e, net| {
            // ---- Θ step on the training loss (α frozen) ----
            let (mut tape, binding, loss, _pens) = forward(e, net, true, false);
            let theta_loss = tape.value(loss).item() as f64;
            tape.backward(loss);
            e.ps.pull_grads(&binding, &tape);
            // Θ-step gradients are in `ps`; buffers go back to the pool
            // before the α step builds its own tape.
            tape.recycle();
            if !e.healthy(theta_loss) {
                return EpochEnd::Diverged;
            }
            e.opt.step(e.ps);

            // ---- α step on the validation loss + penalty (Θ frozen) ----
            if e.index >= cfg.warmup {
                let (mut tape, binding, loss, pens) = forward(e, net, false, true);
                let total_elems: usize = pens.iter().map(|&(_, n)| n).sum();
                // bit_penalty is already divided by 1024·8; undo that and
                // divide by the architecture size instead. The 0.02 factor
                // calibrates λ's useful range to the paper's reported
                // [−0.1, 1] interval (see Fig. 9 reproduction).
                let norm = 0.02 * cfg.lambda * (1024.0 * 8.0) / total_elems.max(1) as f32;
                if mixq_telemetry::enabled() {
                    // The λ·ΣC(T) penalty actually added to the α objective.
                    let penalty: f64 = pens
                        .iter()
                        .map(|&(p, _)| tape.value(p).item() as f64 * norm as f64)
                        .sum();
                    mixq_telemetry::series_push("search.penalty", penalty);
                }
                let mut total = loss;
                for (p, _) in pens {
                    let sp = tape.scale(p, norm);
                    total = tape.add(total, sp);
                }
                let alpha_loss = tape.value(total).item() as f64;
                tape.backward(total);
                e.ps.pull_grads(&binding, &tape);
                tape.recycle();
                if !e.healthy(alpha_loss) {
                    return EpochEnd::Diverged;
                }
                e.opt.step(e.ps);
            }

            if mixq_telemetry::enabled() && !alpha_ids.is_empty() {
                // Mean Shannon entropy of the α softmax distributions: high
                // at initialization (uniform over bit choices), dropping as
                // the search commits to bit-widths.
                let mut entropy = 0.0f64;
                for &id in &alpha_ids {
                    let probs = softmax_slice(e.ps.value(id).data());
                    entropy -= probs
                        .iter()
                        .filter(|&&p| p > 0.0)
                        .map(|&p| p as f64 * (p as f64).ln())
                        .sum::<f64>();
                }
                mixq_telemetry::series_push(
                    "search.alpha_entropy",
                    entropy / alpha_ids.len() as f64,
                );
            }
            EpochEnd::Next
        },
    );
    if out.diverged {
        mixq_telemetry::counter_add("search.divergence_aborts", 1);
    }
    let assignment = net.extract(&ps);
    record_search_outcome(&assignment);
    assignment
}

/// Records the outcome of a bit-width search: one `search.bits` histogram
/// entry per component plus a counter of completed searches (no-op while
/// telemetry is disabled).
fn record_search_outcome(a: &BitAssignment) {
    if !mixq_telemetry::enabled() {
        return;
    }
    for &b in &a.bits {
        mixq_telemetry::hist_record("search.bits", b as u64);
    }
    mixq_telemetry::counter_add("search.completed", 1);
    mixq_telemetry::gauge_set("search.avg_bits", a.simple_avg());
}

/// Builds the task loss for a node dataset on an open tape, over the
/// training split or (for the bi-level α step) the validation split.
fn node_task_loss(tape: &mut Tape, logits: Var, ds: &NodeDataset, val: bool) -> Var {
    let idx = if val { &ds.val_idx } else { &ds.train_idx };
    match &ds.targets {
        NodeTargets::SingleLabel { labels, .. } => {
            let targets: Vec<usize> = idx.iter().map(|&i| labels[i]).collect();
            let lp = tape.log_softmax(logits);
            tape.nll_masked(lp, idx, &targets)
        }
        NodeTargets::MultiLabel(t) => tape.bce_with_logits_masked(logits, t, idx),
    }
}

/// Carves ~20 % of the batch's graphs out as the α-step validation set.
fn graph_search_split(
    train: &GraphBundle,
    seed: u64,
) -> (Vec<usize>, Vec<usize>, Vec<usize>, Vec<usize>) {
    let g = train.num_graphs();
    let mut order: Vec<usize> = (0..g).collect();
    let mut rng = Rng::seed_from_u64(seed ^ 0x5EED);
    rng.shuffle(&mut order);
    let nval = (g / 5).max(1);
    let (va, tr) = order.split_at(nval);
    let targets = |rows: &[usize]| rows.iter().map(|&r| train.labels[r]).collect::<Vec<_>>();
    (tr.to_vec(), targets(tr), va.to_vec(), targets(va))
}

/// Task loss of a graph search: cross-entropy over the training graphs, or
/// over the ~20 % held out for the α step when `val` is set.
fn graph_task_loss(train: &GraphBundle, seed: u64) -> impl Fn(&mut Tape, Var, bool) -> Var {
    let (tr_rows, tr_targets, va_rows, va_targets) = graph_search_split(train, seed);
    move |tape, logits, val| {
        let lp = tape.log_softmax(logits);
        if val {
            tape.nll_masked(lp, &va_rows, &va_targets)
        } else {
            tape.nll_masked(lp, &tr_rows, &tr_targets)
        }
    }
}

/// Searches bit-widths for a multi-layer GCN on a node dataset.
pub fn search_gcn_bits(
    ds: &NodeDataset,
    bundle: &NodeBundle,
    dims: &[usize],
    bit_choices: &[u8],
    dropout: f32,
    cfg: &SearchConfig,
) -> BitAssignment {
    let mut ps = ParamSet::new();
    let mut rng = Rng::seed_from_u64(cfg.seed ^ 0xA1);
    let net = RelaxedGcnNet::new(&mut ps, dims, bit_choices, dropout, &mut rng);
    search(
        ps,
        net,
        bundle,
        &bundle.features,
        cfg,
        |tape, logits, val| node_task_loss(tape, logits, ds, val),
    )
}

/// Searches bit-widths for a multi-layer GraphSAGE on a node dataset.
pub fn search_sage_bits(
    ds: &NodeDataset,
    bundle: &NodeBundle,
    dims: &[usize],
    bit_choices: &[u8],
    dropout: f32,
    cfg: &SearchConfig,
) -> BitAssignment {
    let mut ps = ParamSet::new();
    let mut rng = Rng::seed_from_u64(cfg.seed ^ 0xA2);
    let net = RelaxedSageNet::new(&mut ps, dims, bit_choices, dropout, &mut rng);
    search(
        ps,
        net,
        bundle,
        &bundle.features,
        cfg,
        |tape, logits, val| node_task_loss(tape, logits, ds, val),
    )
}

/// Searches bit-widths for the GIN graph classifier on a training batch.
#[allow(clippy::too_many_arguments)]
pub fn search_gin_graph_bits(
    train: &GraphBundle,
    in_dim: usize,
    hidden: usize,
    classes: usize,
    nlayers: usize,
    bit_choices: &[u8],
    cfg: &SearchConfig,
) -> BitAssignment {
    let mut ps = ParamSet::new();
    let mut rng = Rng::seed_from_u64(cfg.seed ^ 0xA3);
    let net = RelaxedGinGraphNet::new(
        &mut ps,
        in_dim,
        hidden,
        classes,
        nlayers,
        bit_choices,
        &mut rng,
    );
    let loss = graph_task_loss(train, cfg.seed);
    search(ps, net, train, &train.features, cfg, loss)
}

/// Searches bit-widths for the GCN graph classifier (CSL's architecture).
#[allow(clippy::too_many_arguments)]
pub fn search_gcn_graph_bits(
    train: &GraphBundle,
    in_dim: usize,
    hidden: usize,
    classes: usize,
    nlayers: usize,
    bit_choices: &[u8],
    cfg: &SearchConfig,
) -> BitAssignment {
    let mut ps = ParamSet::new();
    let mut rng = Rng::seed_from_u64(cfg.seed ^ 0xA4);
    let net = RelaxedGcnGraphNet::new(
        &mut ps,
        in_dim,
        hidden,
        classes,
        nlayers,
        bit_choices,
        &mut rng,
    );
    let loss = graph_task_loss(train, cfg.seed);
    search(ps, net, train, &train.features, cfg, loss)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mixq_graph::cora_like;

    /// The trained side's gradients of one step with the other side bound
    /// as constants, against binding everything and zeroing the frozen
    /// side afterwards (the form `search` used to run).
    fn frozen_step_matches_compute_then_zero<A: Arch<Bundle = NodeBundle>>(
        net: &QuantNet<A, Relaxed>,
        ps: &ParamSet,
        ds: &NodeDataset,
        bundle: &NodeBundle,
        alpha_step: bool,
    ) {
        let alpha_ids = net.alpha_ids();
        let frozen: Vec<ParamId> = (ps.all_ids().into_iter())
            .filter(|id| alpha_ids.contains(id) != alpha_step)
            .collect();
        let run = |mut binding: Binding| {
            let (mut net, mut ps) = (net.clone(), ps.clone());
            let mut rng = Rng::seed_from_u64(9);
            ps.zero_grads();
            let mut tape = Tape::new();
            let mut f = Fwd {
                tape: &mut tape,
                ps: &ps,
                binding: &mut binding,
                rng: &mut rng,
                training: !alpha_step,
            };
            let x = f.tape.constant(bundle.features.clone());
            let (logits, pens) = net.forward(&mut f, bundle, x);
            let mut loss = node_task_loss(&mut tape, logits, ds, alpha_step);
            for (p, _) in pens {
                loss = tape.add(loss, p);
            }
            tape.backward(loss);
            ps.pull_grads(&binding, &tape);
            for &id in &frozen {
                ps.grad_zero(id);
            }
            let bits: Vec<Vec<u32>> = (ps.all_ids().into_iter())
                .map(|id| ps.grad(id).data().iter().map(|g| g.to_bits()).collect())
                .collect();
            (bits, rng.state())
        };
        let (want, want_rng) = run(Binding::new());
        let (got, got_rng) = run(Binding::freezing(&frozen));
        assert_eq!(got, want, "alpha_step={alpha_step}");
        assert_eq!(got_rng, want_rng, "alpha_step={alpha_step}: dropout draws");
        let trained = want.iter().filter(|g| g.iter().any(|&b| b != 0)).count();
        assert!(trained > 0, "alpha_step={alpha_step}: no gradient at all");
    }

    #[test]
    fn frozen_bindings_keep_the_trained_side_bit_identical() {
        let ds = cora_like(3);
        let bundle = NodeBundle::new(&ds);
        let dims = [ds.feat_dim(), 16, ds.num_classes()];
        let mut ps = ParamSet::new();
        let mut rng = Rng::seed_from_u64(4);
        let gcn = RelaxedGcnNet::new(&mut ps, &dims, &[2, 4, 8], 0.5, &mut rng);
        for alpha_step in [false, true] {
            frozen_step_matches_compute_then_zero(&gcn, &ps, &ds, &bundle, alpha_step);
        }
        let mut ps = ParamSet::new();
        let sage = RelaxedSageNet::new(&mut ps, &dims, &[2, 4, 8], 0.5, &mut rng);
        for alpha_step in [false, true] {
            frozen_step_matches_compute_then_zero(&sage, &ps, &ds, &bundle, alpha_step);
        }
    }

    #[test]
    fn large_lambda_pushes_bits_down_and_negative_up() {
        // The key behavioural property of Algorithm 1: λ ≫ 0 favours
        // narrow bit-widths, λ < 0 favours wide ones.
        let ds = cora_like(11);
        let bundle = NodeBundle::new(&ds);
        let dims = [ds.feat_dim(), 16, ds.num_classes()];

        let narrow = search_gcn_bits(
            &ds,
            &bundle,
            &dims,
            &[2, 4, 8],
            0.0,
            &SearchConfig {
                epochs: 20,
                lr: 0.05,
                lambda: 50.0,
                seed: 1,
                warmup: 5,
                ..SearchConfig::default()
            },
        );
        let wide = search_gcn_bits(
            &ds,
            &bundle,
            &dims,
            &[2, 4, 8],
            0.0,
            &SearchConfig {
                epochs: 20,
                lr: 0.05,
                lambda: -50.0,
                seed: 1,
                warmup: 5,
                ..SearchConfig::default()
            },
        );
        assert!(
            narrow.simple_avg() < wide.simple_avg(),
            "λ=50 avg {} must be below λ=−50 avg {}",
            narrow.simple_avg(),
            wide.simple_avg()
        );
        assert_eq!(
            wide.simple_avg(),
            8.0,
            "strongly negative λ saturates at max bits"
        );
        assert_eq!(
            narrow.simple_avg(),
            2.0,
            "strongly positive λ saturates at min bits"
        );
    }

    #[test]
    fn search_returns_valid_assignment() {
        let ds = cora_like(12);
        let bundle = NodeBundle::new(&ds);
        let dims = [ds.feat_dim(), 16, ds.num_classes()];
        let a = search_gcn_bits(
            &ds,
            &bundle,
            &dims,
            &[4, 8],
            0.5,
            &SearchConfig {
                epochs: 8,
                lr: 0.02,
                lambda: 0.1,
                seed: 2,
                warmup: 2,
                ..SearchConfig::default()
            },
        );
        assert_eq!(a.len(), 9, "2-layer GCN has 9 components");
        assert!(a.bits.iter().all(|b| [4u8, 8].contains(b)));
    }
}
