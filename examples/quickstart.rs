//! Quickstart: train an FP32 GCN on a synthetic citation graph, run the
//! MixQ bit-width search, retrain the quantized model, and compare
//! accuracy and BitOPs.
//!
//! Run with: `cargo run --release --example quickstart`

use mixq::core::{
    gcn_cost_model, gcn_schema, search_gcn_bits, BitAssignment, QGcnNet, QuantKind, SearchConfig,
};
use mixq::graph::cora_like;
use mixq::nn::{train_node, GcnNet, NodeBundle, ParamSet, TrainConfig};
use mixq::tensor::Rng;

fn main() {
    // 1. Data: a seeded synthetic citation network (Cora-scale).
    let ds = cora_like(42);
    let bundle = NodeBundle::new(&ds);
    println!(
        "dataset: {} nodes, {} edges, {} features, {} classes",
        ds.num_nodes(),
        ds.num_edges(),
        ds.feat_dim(),
        ds.num_classes()
    );
    let dims = vec![ds.feat_dim(), 64, ds.num_classes()];
    let train_cfg = TrainConfig {
        epochs: 150,
        lr: 0.01,
        weight_decay: 5e-4,
        seed: 0,
        patience: 40,
        ..TrainConfig::default()
    };

    // 2. FP32 baseline.
    let mut rng = Rng::seed_from_u64(0);
    let mut ps = ParamSet::new();
    let mut fp32 = GcnNet::new(&mut ps, &dims, 0.5, &mut rng);
    let rep = train_node(&mut fp32, &mut ps, &ds, &bundle, &train_cfg);
    let fp32_assignment = BitAssignment::uniform(gcn_schema(2), 32);
    let fp32_cost = gcn_cost_model(
        &fp32_assignment,
        &dims,
        ds.num_nodes() as u64,
        (ds.num_edges() + ds.num_nodes()) as u64,
    );
    println!(
        "FP32:  accuracy {:.1}%, {:.2} GBitOPs",
        rep.test_metric * 100.0,
        fp32_cost.gbit_ops()
    );

    // 3. MixQ bit-width search (Algorithm 1): relax every component over
    //    {2,4,8} bits and train the α logits with the bit-cost penalty.
    let search_cfg = SearchConfig {
        epochs: 60,
        lr: 0.01,
        lambda: 0.1,
        seed: 0,
        warmup: 30,
        ..SearchConfig::default()
    };
    let assignment = search_gcn_bits(&ds, &bundle, &dims, &[2, 4, 8], 0.5, &search_cfg);
    println!("MixQ-selected bit-widths:");
    for (name, bits) in assignment.names.iter().zip(&assignment.bits) {
        println!("  {name:<12} {bits} bits");
    }

    // 4. Quantization-aware training of the selected assignment.
    let mut rng = Rng::seed_from_u64(1);
    let mut ps = ParamSet::new();
    let mut qnet = QGcnNet::new(
        &mut ps,
        &dims,
        assignment.clone(),
        QuantKind::Native,
        &bundle.degrees,
        0.5,
        &mut rng,
    )
    .expect("assignment matches schema");
    let qrep = train_node(&mut qnet, &mut ps, &ds, &bundle, &train_cfg);
    let qcost = gcn_cost_model(
        &assignment,
        &dims,
        ds.num_nodes() as u64,
        (ds.num_edges() + ds.num_nodes()) as u64,
    );
    println!(
        "MixQ:  accuracy {:.1}%, {:.2} avg bits, {:.2} GBitOPs ({:.1}× fewer bit operations)",
        qrep.test_metric * 100.0,
        qcost.avg_bits(),
        qcost.gbit_ops(),
        fp32_cost.gbit_ops() / qcost.gbit_ops()
    );
}
