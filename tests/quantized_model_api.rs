//! Workspace API contract tests: the integer executors report the bit-widths
//! they run, and fallible public APIs report typed [`MixqError`]s instead of
//! panicking.

use mixq::core::{
    gcn_schema, sage_schema, BitAssignment, QGcnNet, QSageNet, QuantKind, QuantizedGcn,
    QuantizedSage,
};
use mixq::graph::cora_like;
use mixq::nn::{params_from_string, train_node, NodeBundle, ParamSet, TrainConfig};
use mixq::sparse::{gcn_normalize, row_normalize};
use mixq::tensor::{MixqError, Rng};

fn short_cfg() -> TrainConfig {
    TrainConfig {
        epochs: 3,
        patience: 0,
        ..TrainConfig::default()
    }
}

#[test]
fn gcn_bit_config_reports_the_snapshot_bits() {
    let ds = cora_like(11);
    let bundle = NodeBundle::new(&ds);
    let dims = [ds.feat_dim(), 8, ds.num_classes()];
    let a = BitAssignment::uniform(gcn_schema(2), 8);
    let mut rng = Rng::seed_from_u64(2);
    let mut ps = ParamSet::new();
    let mut net = QGcnNet::new(
        &mut ps,
        &dims,
        a,
        QuantKind::Native,
        &bundle.degrees,
        0.0,
        &mut rng,
    )
    .expect("assignment matches schema");
    train_node(&mut net, &mut ps, &ds, &bundle, &short_cfg());
    let snap = net.snapshot(&ps).expect("native quantizers");

    let bits = QuantizedGcn::prepare(&snap, &gcn_normalize(&ds.adj)).bit_config();
    assert_eq!(bits.len(), 2);
    for (b, l) in bits.iter().zip(&snap.layers) {
        let want = (l.w_qp.bits, l.agg_qp.bits, l.adj_bits);
        assert_eq!((b.weight_bits, b.activation_bits, b.adj_bits), want);
        assert_eq!((b.weight_bits, b.activation_bits, b.adj_bits), (8, 8, 8));
    }
}

/// Adjacency codes are capped at 16 bits, so a hand-built snapshot asking
/// for 32 runs — and reports — 16, exactly as if it had asked for 16.
#[test]
fn gcn_bit_config_reports_the_adjacency_width_that_runs() {
    let ds = cora_like(13);
    let bundle = NodeBundle::new(&ds);
    let dims = [ds.feat_dim(), 8, ds.num_classes()];
    let a = BitAssignment::uniform(gcn_schema(2), 8);
    let mut ps = ParamSet::new();
    let mut net = QGcnNet::new(
        &mut ps,
        &dims,
        a,
        QuantKind::Native,
        &bundle.degrees,
        0.0,
        &mut Rng::seed_from_u64(4),
    )
    .expect("assignment matches schema");
    train_node(&mut net, &mut ps, &ds, &bundle, &short_cfg());
    let adj = gcn_normalize(&ds.adj);
    let mut snap = net.snapshot(&ps).expect("native quantizers");
    for l in &mut snap.layers {
        l.adj_bits = 32;
    }
    let wide = QuantizedGcn::prepare(&snap, &adj);
    for l in &mut snap.layers {
        l.adj_bits = 16;
    }
    let capped = QuantizedGcn::prepare(&snap, &adj);
    for b in wide.bit_config() {
        assert_eq!(b.adj_bits, 16, "32-bit adjacency requests run at 16 bits");
    }
    assert_eq!(wide.bit_config(), capped.bit_config());
    assert_eq!(
        wide.infer(&ds.features).data(),
        capped.infer(&ds.features).data()
    );
}

#[test]
fn sage_bit_config_reports_the_snapshot_bits() {
    let ds = cora_like(12);
    let bundle = NodeBundle::new(&ds);
    let dims = [ds.feat_dim(), 8, ds.num_classes()];
    let a = BitAssignment::uniform(sage_schema(2), 8);
    let mut rng = Rng::seed_from_u64(3);
    let mut ps = ParamSet::new();
    let mut net = QSageNet::new(
        &mut ps,
        &dims,
        a,
        QuantKind::Native,
        &bundle.degrees,
        0.0,
        &mut rng,
    )
    .expect("assignment matches schema");
    train_node(&mut net, &mut ps, &ds, &bundle, &short_cfg());
    let snap = net.snapshot(&ps).expect("native quantizers");

    let bits = QuantizedSage::prepare(&snap, &row_normalize(&ds.adj)).bit_config();
    assert_eq!(bits.len(), 2);
    for (b, l) in bits.iter().zip(&snap.layers) {
        let want = (l.w_root_qp.bits, l.out_qp.bits, l.adj_bits);
        assert_eq!((b.weight_bits, b.activation_bits, b.adj_bits), want);
        assert_eq!((b.weight_bits, b.activation_bits, b.adj_bits), (8, 8, 8));
    }
}

#[test]
fn schema_mismatch_is_a_typed_error_not_a_panic() {
    let ds = cora_like(13);
    let bundle = NodeBundle::new(&ds);
    let dims = [ds.feat_dim(), 8, ds.num_classes()];
    let mut rng = Rng::seed_from_u64(4);

    // A SAGE assignment handed to a GCN constructor (and vice versa).
    let mut ps = ParamSet::new();
    let err = QGcnNet::new(
        &mut ps,
        &dims,
        BitAssignment::uniform(sage_schema(2), 8),
        QuantKind::Native,
        &bundle.degrees,
        0.0,
        &mut rng,
    )
    .map(|_| ())
    .unwrap_err();
    assert!(matches!(err, MixqError::InvalidConfig { .. }), "{err:?}");
    assert!(err.to_string().contains("QGcnNet::new"), "{err}");

    let mut ps = ParamSet::new();
    let err = QSageNet::new(
        &mut ps,
        &dims,
        BitAssignment::uniform(gcn_schema(2), 8),
        QuantKind::Native,
        &bundle.degrees,
        0.0,
        &mut rng,
    )
    .map(|_| ())
    .unwrap_err();
    assert!(matches!(err, MixqError::InvalidConfig { .. }), "{err:?}");
}

/// Uniform 8 bits except `component`, which gets `bits`.
fn with_wide(schema: Vec<String>, component: &str, bits: u8) -> BitAssignment {
    assert!(schema.iter().any(|n| n == component), "{component}");
    let b = schema
        .iter()
        .map(|n| if n == component { bits } else { 8 })
        .collect();
    BitAssignment::new(schema, b)
}

#[test]
fn components_wider_than_16_bits_are_a_typed_snapshot_error() {
    // The integer engine runs codes of at most 16 bits. A wider weight,
    // activation or adjacency is refused at export instead of running a
    // narrower algorithm than the one the net was trained with.
    let ds = cora_like(15);
    let bundle = NodeBundle::new(&ds);
    let dims = [ds.feat_dim(), 8, ds.num_classes()];
    let cfg = TrainConfig {
        epochs: 1,
        ..short_cfg()
    };
    for bits in [17, 32] {
        for component in ["l1.weight", "l1.lin_out", "l1.adj"] {
            let mut rng = Rng::seed_from_u64(6);
            let mut ps = ParamSet::new();
            let a = with_wide(gcn_schema(2), component, bits);
            let mut net = QGcnNet::new(
                &mut ps,
                &dims,
                a,
                QuantKind::Native,
                &bundle.degrees,
                0.0,
                &mut rng,
            )
            .expect("assignment matches schema");
            train_node(&mut net, &mut ps, &ds, &bundle, &cfg);
            let err = net.snapshot(&ps).map(|_| ()).unwrap_err();
            assert!(matches!(err, MixqError::InvalidConfig { .. }), "{err:?}");
            let msg = err.to_string();
            assert!(msg.contains("QGcnNet::snapshot"), "{msg}");
            assert!(msg.contains(component), "{msg}");
            assert!(msg.contains("at most 16 bits"), "{msg}");
        }
        for component in ["l1.w_neigh", "l1.out", "l1.adj"] {
            let mut rng = Rng::seed_from_u64(7);
            let mut ps = ParamSet::new();
            let a = with_wide(sage_schema(2), component, bits);
            let mut net = QSageNet::new(
                &mut ps,
                &dims,
                a,
                QuantKind::Native,
                &bundle.degrees,
                0.0,
                &mut rng,
            )
            .expect("assignment matches schema");
            train_node(&mut net, &mut ps, &ds, &bundle, &cfg);
            let err = net.snapshot(&ps).map(|_| ()).unwrap_err();
            assert!(matches!(err, MixqError::InvalidConfig { .. }), "{err:?}");
            let msg = err.to_string();
            assert!(msg.contains("QSageNet::snapshot"), "{msg}");
            assert!(msg.contains(component), "{msg}");
            assert!(msg.contains("at most 16 bits"), "{msg}");
        }
    }
}

#[test]
fn snapshot_of_identity_quantizers_is_rejected() {
    // 32-bit components are identity quantizers: the integer engine cannot
    // execute them, and says so instead of panicking mid-export.
    let ds = cora_like(14);
    let bundle = NodeBundle::new(&ds);
    let dims = [ds.feat_dim(), ds.num_classes()];
    let mut rng = Rng::seed_from_u64(5);
    let mut ps = ParamSet::new();
    let net = QGcnNet::new(
        &mut ps,
        &dims,
        BitAssignment::uniform(gcn_schema(1), 32),
        QuantKind::Native,
        &bundle.degrees,
        0.0,
        &mut rng,
    )
    .expect("assignment matches schema");
    let err = net.snapshot(&ps).unwrap_err();
    assert!(matches!(err, MixqError::InvalidConfig { .. }), "{err:?}");
    assert!(err.to_string().contains("at most 16 bits"), "{err}");
}

#[test]
fn corrupt_checkpoints_report_parse_errors() {
    for text in [
        "",
        "wrong header\n1\n",
        "mixq-params v1\nnot-a-count\n",
        "mixq-params v1\n1\n2 2\n1.0 2.0 3.0\n",
        "mixq-params v1\n1\n2 2\n1.0 2.0 3.0 oops\n",
    ] {
        let err = params_from_string(text).unwrap_err();
        assert!(matches!(err, MixqError::Parse { .. }), "{text:?}: {err:?}");
        assert!(err.to_string().contains("checkpoint"), "{err}");
    }
}

#[test]
fn missing_checkpoint_file_reports_io_error() {
    let err = mixq::nn::load_params("/nonexistent/mixq/ckpt.txt").unwrap_err();
    assert!(matches!(err, MixqError::Io(_)), "{err:?}");
    assert!(std::error::Error::source(&err).is_some());
}

#[test]
fn train_config_builder_validates_ranges() {
    let cfg = TrainConfig::builder()
        .epochs(20)
        .lr(0.05)
        .weight_decay(1e-4)
        .seed(9)
        .patience(5)
        .build()
        .expect("valid config");
    assert_eq!(cfg.epochs, 20);
    assert_eq!(cfg.seed, 9);
    assert_eq!(cfg.patience, 5);

    // Defaults must pass validation unchanged.
    let d = TrainConfig::builder().build().expect("defaults are valid");
    assert_eq!(d.epochs, TrainConfig::default().epochs);

    for bad in [
        TrainConfig::builder().epochs(0).build(),
        TrainConfig::builder().lr(0.0).build(),
        TrainConfig::builder().lr(-0.1).build(),
        TrainConfig::builder().lr(f32::NAN).build(),
        TrainConfig::builder().lr(2.0).build(),
        TrainConfig::builder().weight_decay(-1.0).build(),
        TrainConfig::builder().weight_decay(f32::INFINITY).build(),
    ] {
        let err = bad.unwrap_err();
        assert!(matches!(err, MixqError::InvalidConfig { .. }), "{err:?}");
    }
}
