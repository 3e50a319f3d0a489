//! Neural-network substrate for MixQ-GNN: parameter storage, FP32 layers
//! (dense and message-passing), optimizers, metrics, the shared training
//! loops on one epoch driver ([`run_epochs`]), and the paper's GNN
//! architectures ([`arch`]), each defined once with its quantization
//! points. Run with the pass-through [`Float`] they are the FP32 nets
//! ([`GcnNet`], [`SageNet`], [`GinGraphNet`], [`GcnGraphNet`]); `mixq-core`
//! runs the same definitions with relaxed or fixed-bit slots. Every net
//! implements [`NodeNet`]/[`GraphNet`], so every experiment in the paper
//! runs through the same trainer.

pub mod arch;
pub mod conv;
pub mod driver;
pub mod layers;
pub mod metrics;
pub mod models;
pub mod optim;
pub mod param;
pub mod serialize;

pub use arch::{
    Arch, At, Float, FloatNet, GcnArch, GcnGraphArch, GcnGraphNet, GcnNet, GinGraphArch,
    GinGraphNet, Part, QuantLayout, QuantPoints, Role, SageArch, SageNet,
};
pub use conv::{with_self_loops, AppnpProp, GatConv, GinConv, SgcConv, TagConv, TransformerConv};
pub use driver::{run_epochs, Best, Epoch, EpochEnd, Outcome};
pub use layers::{BatchNorm1d, Linear, Mlp};
pub use metrics::{
    accuracy, confusion_matrix, macro_f1, mean_std, pearson, roc_auc, roc_auc_mean, spearman,
};
pub use models::{
    eval_graph, eval_node, train_graph, train_node, AppnpNet, CheckpointConfig, GatNet, GinNet,
    GraphBundle, GraphNet, GraphTrainReport, NodeBundle, NodeNet, SgcNet, TagNet, TrainConfig,
    TrainConfigBuilder, TrainReport, UniMpNet,
};
pub use optim::{clip_grad_norm, Adam, LrSchedule, Sgd};
pub use param::{Binding, Fwd, Param, ParamId, ParamSet};
pub use serialize::{
    atomic_write, load_params, load_train_state, params_from_string, params_to_string, save_params,
    save_train_state, TrainState,
};
