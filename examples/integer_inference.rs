//! Integer-only inference with Theorem 1: train a fully-quantized GCN,
//! export its quantization parameters, run inference on integer codes with
//! fixed-point requantization, and verify it matches the fake-quantized
//! training path.
//!
//! Run with: `cargo run --release --example integer_inference`

use mixq::core::{gcn_schema, BitAssignment, QGcnNet, QuantKind, QuantizedGcn};
use mixq::graph::cora_like;
use mixq::nn::{accuracy, eval_node, train_node, NodeBundle, ParamSet, TrainConfig};
use mixq::sparse::gcn_normalize;
use mixq::tensor::Rng;

fn main() {
    let ds = cora_like(7);
    let bundle = NodeBundle::new(&ds);
    let dims = vec![ds.feat_dim(), 64, ds.num_classes()];

    // INT8 everywhere — the configuration Theorem 1's integer engine runs.
    let assignment = BitAssignment::uniform(gcn_schema(2), 8);
    let mut rng = Rng::seed_from_u64(0);
    let mut ps = ParamSet::new();
    let mut net = QGcnNet::new(
        &mut ps,
        &dims,
        assignment,
        QuantKind::Native,
        &bundle.degrees,
        0.5,
        &mut rng,
    )
    .expect("assignment matches schema");
    let cfg = TrainConfig {
        epochs: 120,
        lr: 0.01,
        weight_decay: 5e-4,
        seed: 0,
        patience: 40,
        ..TrainConfig::default()
    };
    let rep = train_node(&mut net, &mut ps, &ds, &bundle, &cfg);
    println!(
        "fake-quantized (QAT) test accuracy: {:.1}%",
        rep.test_metric * 100.0
    );

    // Export scales/zero-points + weights, quantize the adjacency once, and
    // run the whole forward pass on integer codes.
    let snapshot = net
        .snapshot(&ps)
        .expect("native quantizers of at most 16 bits");
    let engine = QuantizedGcn::prepare(&snapshot, &gcn_normalize(&ds.adj));
    let logits = engine.infer(&ds.features);
    println!(
        "executing bit-widths per layer (weight/activation/adjacency): {:?}",
        engine
            .bit_config()
            .iter()
            .map(|b| (b.weight_bits, b.activation_bits, b.adj_bits))
            .collect::<Vec<_>>()
    );
    let int_acc = accuracy(&logits, ds.labels(), &ds.test_idx);
    println!(
        "integer-only inference test accuracy: {:.1}%",
        int_acc * 100.0
    );

    let mut rng = Rng::seed_from_u64(1);
    let fq_acc = eval_node(&mut net, &ps, &ds, &bundle, &ds.test_idx, &mut rng);
    println!(
        "agreement with the fake-quantized path: {:.2}% absolute difference",
        (int_acc - fq_acc).abs() * 100.0
    );

    if mixq::telemetry::enabled() {
        match mixq::telemetry::write_report("integer_inference") {
            Ok(p) => println!("telemetry report written to {}", p.display()),
            Err(e) => eprintln!("telemetry report failed: {e}"),
        }
    }
}
