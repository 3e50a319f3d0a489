//! Integration test of the Theorem 1 integer inference engines: a trained
//! fully-quantized GCN or GraphSAGE executed on integer codes must land
//! within a fixed budget of output-code steps (LSBs) of the fake-quantized
//! FP32 eval forward of the same net.

use mixq::core::{
    gcn_schema, sage_schema, BitAssignment, QGcnNet, QSageNet, QuantKind, QuantizedGcn,
    QuantizedSage,
};
use mixq::graph::{citation_like, CitationConfig, NodeDataset};
use mixq::nn::{train_node, Binding, Fwd, NodeBundle, NodeNet, ParamSet, TrainConfig};
use mixq::sparse::{gcn_normalize, row_normalize};
use mixq::tensor::{Matrix, Rng, Tape};

/// The fake-quantized eval forward (no dropout, no observer updates).
fn fake_quant_logits(net: &mut impl NodeNet, ps: &ParamSet, bundle: &NodeBundle) -> Matrix {
    let mut tape = Tape::new();
    let mut binding = Binding::new();
    let mut rng = Rng::seed_from_u64(1);
    let mut f = Fwd {
        tape: &mut tape,
        ps,
        binding: &mut binding,
        rng: &mut rng,
        training: false,
    };
    let x = f.tape.constant(bundle.features.clone());
    let y = net.forward(&mut f, bundle, x);
    tape.value(y).clone()
}

/// Largest |integer − fake-quant| logit difference, in steps of `scale`.
fn lsb_diff(int_logits: &Matrix, fq_logits: &Matrix, scale: f32) -> f32 {
    int_logits.max_abs_diff(fq_logits) / scale
}

fn dataset(
    name: &'static str,
    nodes: usize,
    feat_dim: usize,
    degree: f32,
    seed: u64,
) -> NodeDataset {
    citation_like(
        &CitationConfig {
            name,
            nodes,
            feat_dim,
            classes: 3,
            avg_degree: degree,
            homophily: 0.85,
            degree_alpha: 2.0,
            topic_size: 8,
            p_topic: 0.5,
            p_noise: 0.02,
            train_per_class: 20,
            val_size: nodes / 5,
            test_size: nodes * 2 / 5,
        },
        seed,
    )
}

#[test]
fn integer_inference_matches_fake_quantized_path() {
    let ds = dataset("tiny", 300, 40, 5.0, 9);
    let bundle = NodeBundle::new(&ds);
    let dims = [ds.feat_dim(), 16, ds.num_classes()];
    let a = BitAssignment::uniform(gcn_schema(2), 8);
    let mut rng = Rng::seed_from_u64(0);
    let mut ps = ParamSet::new();
    let mut net = QGcnNet::new(
        &mut ps,
        &dims,
        a,
        QuantKind::Native,
        &bundle.degrees,
        0.5,
        &mut rng,
    )
    .expect("assignment matches schema");
    let cfg = TrainConfig {
        epochs: 60,
        lr: 0.01,
        weight_decay: 5e-4,
        seed: 0,
        patience: 30,
        ..TrainConfig::default()
    };
    let rep = train_node(&mut net, &mut ps, &ds, &bundle, &cfg);
    assert!(
        rep.test_metric > 0.5,
        "trained model should be decent, got {}",
        rep.test_metric
    );

    let fq_logits = fake_quant_logits(&mut net, &ps, &bundle);
    let snapshot = net.snapshot(&ps).expect("native quantizers of 8 bits");
    let engine = QuantizedGcn::prepare(&snapshot, &gcn_normalize(&ds.adj));
    let int_logits = engine.infer(&ds.features);

    // One LSB is one step of the last aggregation quantizer, whose codes are
    // the logits. The integer path requantizes in fixed point where the
    // fake-quant path rounds f32 sums: a code may differ by a step per
    // requantization.
    let scale = snapshot.layers.last().unwrap().agg_qp.scale;
    let lsb = lsb_diff(&int_logits, &fq_logits, scale);
    assert!(
        lsb <= 2.0 + 1e-3,
        "GCN logits differ by {lsb} LSB (budget 2)"
    );
}

#[test]
fn integer_sage_inference_agrees_with_training_path() {
    let ds = dataset("tiny-sage", 250, 32, 6.0, 13);
    let bundle = NodeBundle::new(&ds);
    let dims = [ds.feat_dim(), 16, ds.num_classes()];
    let a = BitAssignment::uniform(sage_schema(2), 8);
    let mut rng = Rng::seed_from_u64(0);
    let mut ps = ParamSet::new();
    let mut net = QSageNet::new(
        &mut ps,
        &dims,
        a,
        QuantKind::Native,
        &bundle.degrees,
        0.5,
        &mut rng,
    )
    .expect("assignment matches schema");
    let cfg = TrainConfig {
        epochs: 50,
        lr: 0.01,
        weight_decay: 5e-4,
        seed: 0,
        patience: 25,
        ..TrainConfig::default()
    };
    let rep = train_node(&mut net, &mut ps, &ds, &bundle, &cfg);
    assert!(rep.test_metric > 0.5, "trained SAGE should be decent");

    let fq_logits = fake_quant_logits(&mut net, &ps, &bundle);
    let snapshot = net.snapshot(&ps).expect("native quantizers of 8 bits");
    let engine = QuantizedSage::prepare(&snapshot, &row_normalize(&ds.adj));
    let int_logits = engine.infer(&ds.features);

    // One LSB is one step of the last output quantizer. The engine rounds
    // the root and neighbour branches into it separately where the
    // fake-quant path adds them in f32 and rounds once.
    let scale = snapshot.layers.last().unwrap().out_qp.scale;
    let lsb = lsb_diff(&int_logits, &fq_logits, scale);
    assert!(
        lsb <= 3.0 + 1e-3,
        "SAGE logits differ by {lsb} LSB (budget 3)"
    );
}
