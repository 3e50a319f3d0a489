//! The epoch driver shared by every training loop: node training
//! ([`crate::train_node`]), graph training ([`crate::train_graph`]) and the
//! MixQ bit-width search in `mixq-core`.
//!
//! [`run_epochs`] owns everything that is not the task itself: the
//! epoch-start snapshot, the divergence check with rollback and LR backoff,
//! the `grad_nan` fault hook, the periodic crash-safe checkpoint and the
//! resume from one. The caller supplies the epoch's step as a closure that
//! runs forward/backward passes and optimizer steps on an [`Epoch`], plus
//! any state of its own that a rollback must restore with the parameters
//! (every loop passes its net, whose range observers and BN running
//! statistics live outside the [`ParamSet`]).

use mixq_tensor::Rng;

use crate::models::TrainConfig;
use crate::optim::Adam;
use crate::param::ParamSet;
use crate::serialize::{load_train_state, save_train_state, TrainState};

/// Best-validation tracking, saved in checkpoints and restored on resume.
#[derive(Debug, Clone)]
pub struct Best {
    pub val: f64,
    pub epoch: usize,
    /// Parameters at the best epoch; `None` when the loop does not track
    /// them.
    pub params: Option<ParamSet>,
}

impl Best {
    /// No tracking: checkpoints record no best epoch.
    pub fn untracked() -> Self {
        Self {
            val: f64::NEG_INFINITY,
            epoch: 0,
            params: None,
        }
    }

    /// Tracking that starts from `params` (kept if no epoch improves).
    pub fn tracking(params: &ParamSet) -> Self {
        Self {
            params: Some(params.clone()),
            ..Self::untracked()
        }
    }
}

/// One epoch's view of the training state, handed to the step closure.
pub struct Epoch<'a> {
    pub index: usize,
    pub ps: &'a mut ParamSet,
    pub opt: &'a mut Adam,
    pub rng: &'a mut Rng,
    pub best: &'a mut Best,
    checked: bool,
    injected: bool,
}

impl Epoch<'_> {
    /// Divergence check, called after each backward pass (before the
    /// optimizer step): true when `loss` and every gradient are finite. The
    /// epoch's first check also runs the `grad_nan` fault hook, which
    /// poisons one gradient.
    pub fn healthy(&mut self, loss: f64) -> bool {
        if !self.checked {
            self.checked = true;
            self.injected = mixq_faultinject::should_fire(
                mixq_faultinject::FaultKind::GradNan,
                Some(self.index as u64),
            );
            if self.injected {
                if let Some(&id) = self.ps.all_ids().first() {
                    self.ps.grad_mut(id).data_mut()[0] = f32::NAN;
                }
            }
        }
        loss.is_finite() && self.ps.grads_finite()
    }
}

/// How an epoch's step ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EpochEnd {
    /// Go on with the next epoch.
    Next,
    /// Stop after this epoch (early stopping).
    Stop,
    /// A divergence check failed: roll the epoch back.
    Diverged,
}

/// What [`run_epochs`] hands back.
#[derive(Debug)]
pub struct Outcome {
    /// The RNG stream after the last epoch.
    pub rng: Rng,
    /// Divergences absorbed by rollback + retry.
    pub recovered: usize,
    /// True when an epoch stayed non-finite after `cfg.max_retries`
    /// retries; the parameters are then the last finite ones.
    pub diverged: bool,
}

/// Runs `step` for epochs `0..cfg.epochs` with an Adam optimizer
/// (`cfg.lr`, `cfg.weight_decay`) and an RNG seeded from `cfg.seed`.
///
/// * Every epoch starts from a snapshot of the parameters (with Adam
///   moments), the optimizer, the RNG and `state`. A step that returns
///   [`EpochEnd::Diverged`] is rolled back to it and retried: the first
///   retry re-runs the epoch unchanged, later ones also multiply the LR by
///   `cfg.backoff`. After `cfg.max_retries` consecutive retries the
///   snapshot's parameters are restored and the loop stops.
/// * With `cfg.checkpoint`, a crash-safe [`TrainState`] (including `best`)
///   is written every `every` epochs; a failed write is counted and
///   training goes on.
/// * With `cfg.resume_from`, a checkpoint that exists is loaded and the run
///   continues bit-identically to an uninterrupted one, provided `state`
///   holds nothing a checkpoint does not (it is not saved). Unreadable or
///   mismatched checkpoints start fresh.
///
/// Telemetry: counters `{prefix}.divergence_rollbacks`,
/// `{prefix}.checkpoint_failures` and `{prefix}.resume_failures`, and one
/// `span` per epoch.
pub fn run_epochs<S: Clone>(
    ps: &mut ParamSet,
    state: &mut S,
    cfg: &TrainConfig,
    prefix: &str,
    span: &'static str,
    best: &mut Best,
    mut step: impl FnMut(&mut Epoch, &mut S) -> EpochEnd,
) -> Outcome {
    let mut rng = Rng::seed_from_u64(cfg.seed);
    let mut opt = Adam::new(cfg.lr).with_weight_decay(cfg.weight_decay);
    let mut recovered = 0usize;
    let mut epoch = 0usize;
    if let Some(st) = load_resume_state(cfg, ps, prefix) {
        *ps = st.params;
        opt.lr = st.lr;
        opt.set_step_count(st.adam_t);
        rng = Rng::from_state(st.rng_state);
        recovered = st.recovered;
        epoch = st.epoch;
        best.val = st.best_val;
        best.epoch = st.best_epoch;
        if let Some(params) = &mut best.params {
            *params = if st.best_params.is_empty() {
                ps.clone()
            } else {
                st.best_params
            };
        }
    }

    let mut retries = 0usize;
    let mut diverged = false;
    while epoch < cfg.epochs {
        let snap = (ps.clone(), opt.clone(), rng.clone(), state.clone());
        let _epoch_span = mixq_telemetry::span(span);
        let mut e = Epoch {
            index: epoch,
            ps: &mut *ps,
            opt: &mut opt,
            rng: &mut rng,
            best: &mut *best,
            checked: false,
            injected: false,
        };
        let end = step(&mut e, state);
        let injected = e.injected;

        if end == EpochEnd::Diverged {
            let (sp, so, sr, ss) = snap;
            *ps = sp;
            *state = ss;
            if retries >= cfg.max_retries {
                diverged = true;
                break;
            }
            retries += 1;
            recovered += 1;
            opt = so;
            rng = sr;
            if retries > 1 {
                opt.lr *= cfg.backoff;
            }
            mixq_telemetry::counter_add(&format!("{prefix}.divergence_rollbacks"), 1);
            if injected {
                mixq_faultinject::mark_recovered();
            }
            continue;
        }
        retries = 0;

        if let Some(ck) = &cfg.checkpoint {
            if (epoch + 1).is_multiple_of(ck.every) {
                let st = TrainState {
                    epoch: epoch + 1,
                    lr: opt.lr,
                    adam_t: opt.step_count(),
                    rng_state: rng.state(),
                    best_val: best.val,
                    best_epoch: best.epoch,
                    recovered,
                    params: ps.clone(),
                    best_params: best.params.clone().unwrap_or_default(),
                };
                if save_train_state(&st, &ck.path).is_err() {
                    // Checkpointing must never kill training: count it,
                    // keep the previous durable checkpoint, move on.
                    mixq_telemetry::counter_add(&format!("{prefix}.checkpoint_failures"), 1);
                    if mixq_faultinject::enabled() {
                        mixq_faultinject::mark_recovered();
                    }
                }
            }
        }
        if end == EpochEnd::Stop {
            break;
        }
        epoch += 1;
    }
    Outcome {
        rng,
        recovered,
        diverged,
    }
}

/// Loads the resume checkpoint named by `cfg.resume_from`, if any. Missing
/// files start fresh silently (first run and restart share one config);
/// unreadable or shape-mismatched states start fresh and bump
/// `{prefix}.resume_failures`.
fn load_resume_state(cfg: &TrainConfig, ps: &ParamSet, prefix: &str) -> Option<TrainState> {
    let path = cfg.resume_from.as_ref()?;
    if !path.exists() {
        return None;
    }
    match load_train_state(path) {
        Ok(st) if st.params.len() == ps.len() && st.params.num_scalars() == ps.num_scalars() => {
            Some(st)
        }
        _ => {
            mixq_telemetry::counter_add(&format!("{prefix}.resume_failures"), 1);
            None
        }
    }
}
