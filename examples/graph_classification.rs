//! Graph classification with a quantized 5-layer GIN: searches bit-widths
//! with MixQ on one train/test split of a TU-style dataset and compares
//! against the FP32 model.
//!
//! Run with: `cargo run --release --example graph_classification`

use mixq::core::{
    gin_graph_cost_model, search_gin_graph_bits, QGinGraphNet, QuantKind, SearchConfig,
};
use mixq::graph::{imdb_b_like, stratified_kfold};
use mixq::nn::{train_graph, GinGraphNet, GraphBundle, ParamSet, TrainConfig};
use mixq::tensor::Rng;

fn main() {
    let ds = imdb_b_like(11, 240);
    let mut rng = Rng::seed_from_u64(3);
    let folds = stratified_kfold(&mut rng, &ds.labels, ds.num_classes, 5);
    let (train_idx, test_idx) = &folds[0];
    let train = GraphBundle::from_graphs(&ds, train_idx);
    let test = GraphBundle::from_graphs(&ds, test_idx);
    println!(
        "{}: {} train / {} test graphs, {} features",
        ds.name,
        train.num_graphs(),
        test.num_graphs(),
        ds.feat_dim()
    );
    let cfg = TrainConfig {
        epochs: 80,
        lr: 0.01,
        weight_decay: 1e-4,
        seed: 0,
        patience: 0,
        ..TrainConfig::default()
    };

    // FP32 baseline.
    let mut ps = ParamSet::new();
    let mut rng = Rng::seed_from_u64(0);
    let mut fp32 = GinGraphNet::new(&mut ps, ds.feat_dim(), 32, ds.num_classes, 5, &mut rng);
    let fp32_acc = train_graph(&mut fp32, &mut ps, &train, &test, &cfg).test_acc;
    println!("FP32 GIN test accuracy: {:.1}%", fp32_acc * 100.0);

    // MixQ search over {4,8} bits, then QAT retraining.
    let scfg = SearchConfig {
        epochs: 50,
        lr: 0.01,
        lambda: 0.1,
        seed: 0,
        warmup: 25,
        ..SearchConfig::default()
    };
    let assignment =
        search_gin_graph_bits(&train, ds.feat_dim(), 32, ds.num_classes, 5, &[4, 8], &scfg);
    println!("selected bits: {:?}", assignment.bits);
    let mut ps = ParamSet::new();
    let mut rng = Rng::seed_from_u64(1);
    let mut qnet = QGinGraphNet::new(
        &mut ps,
        ds.feat_dim(),
        32,
        ds.num_classes,
        5,
        assignment.clone(),
        QuantKind::Native,
        &train.degrees,
        &mut rng,
    )
    .expect("assignment matches schema");
    let q_acc = train_graph(&mut qnet, &mut ps, &train, &test, &cfg).test_acc;
    let n: u64 = train.degrees.len() as u64;
    let cost = gin_graph_cost_model(
        &assignment,
        ds.feat_dim(),
        32,
        ds.num_classes,
        5,
        n,
        train.raw.a.nnz() as u64,
        train.num_graphs() as u64,
    );
    println!(
        "MixQ GIN test accuracy: {:.1}% at {:.2} average bits",
        q_acc * 100.0,
        cost.avg_bits()
    );
}
