//! Bit-exact golden pins for the four quantized architectures.
//!
//! Each case trains a fixed-bit net for a few epochs on a tiny seeded graph
//! (under every activation quantizer family) or runs the matching MixQ
//! search, then folds the final parameter bits, the report metrics and the
//! extracted bit assignment into one FNV-1a digest. The Native GCN and
//! SAGE nets are also exported to the integer engines (`QuantizedGcn`,
//! `QuantizedSage`), whose logits bits and `bit_config()` are digested too.
//! FP32 GCN and SAGE training (dropout 0.5) and FP32 GIN-graph and
//! GCN-graph training are pinned the same way, and each
//! search also pins its trajectory: the bits of every per-epoch
//! `search.alpha_entropy` and `search.penalty` telemetry point, which move
//! with any drift of α or Θ even when the argmax assignment does not.
//! The expected digests were recorded once and must never move: any
//! refactor of the nets, the quantization slots, the training loops or the
//! integer engines has to reproduce every seeded run bit for bit.

use mixq::core::{
    gcn_graph_schema, gcn_schema, gin_graph_schema, sage_schema, search_gcn_bits,
    search_gcn_graph_bits, search_gin_graph_bits, search_sage_bits, BitAssignment, LayerBits,
    QGcnGraphNet, QGcnNet, QGinGraphNet, QSageNet, QuantKind, QuantizedGcn, QuantizedSage,
    SearchConfig,
};
use mixq::graph::{citation_like, imdb_b_like, stratified_kfold, CitationConfig, NodeDataset};
use mixq::nn::{
    train_graph, train_node, GcnGraphNet, GcnNet, GinGraphNet, GraphBundle, GraphTrainReport,
    NodeBundle, ParamSet, SageNet, TrainConfig, TrainReport,
};
use mixq::sparse::{gcn_normalize, row_normalize};
use mixq::tensor::{Matrix, MixqError, MixqResult, Rng};

/// 64-bit FNV-1a over a stream of words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn params(&mut self, ps: &ParamSet) {
        for id in ps.all_ids() {
            for &v in ps.value(id).data() {
                self.word(v.to_bits() as u64);
            }
        }
    }

    fn assignment(&mut self, a: &BitAssignment) {
        for (name, &b) in a.names.iter().zip(&a.bits) {
            for byte in name.bytes() {
                self.word(byte as u64);
            }
            self.word(b as u64);
        }
    }

    fn node_report(&mut self, r: &TrainReport) {
        self.word(r.best_val.to_bits());
        self.word(r.test_metric.to_bits());
        self.word(r.best_epoch as u64);
        self.word(r.final_train_loss.to_bits());
        self.word(r.recovered_divergences as u64);
        self.word(r.diverged as u64);
    }

    /// An integer engine's logits and per-layer bit-widths, or one marker
    /// word when the snapshot is rejected as an invalid configuration.
    fn engine(&mut self, run: MixqResult<(Matrix, Vec<LayerBits>)>) {
        match run {
            Ok((logits, bits)) => {
                for &v in logits.data() {
                    self.word(v.to_bits() as u64);
                }
                for b in bits {
                    self.word(b.weight_bits as u64);
                    self.word(b.activation_bits as u64);
                    self.word(b.adj_bits as u64);
                }
            }
            Err(e) => {
                assert!(matches!(e, MixqError::InvalidConfig { .. }), "{e:?}");
                self.word(u64::MAX);
            }
        }
    }

    /// Every point of the named telemetry series, in order (the series'
    /// length is folded first, so a missing series reads as length 0).
    fn series(&mut self, rep: &mixq::telemetry::Report, name: &str) {
        let points: &[f64] = rep
            .series
            .iter()
            .find(|(n, _)| n == name)
            .map_or(&[], |(_, v)| v);
        self.word(points.len() as u64);
        for &v in points {
            self.word(v.to_bits());
        }
    }

    fn graph_report(&mut self, r: &GraphTrainReport) {
        self.word(r.train_acc.to_bits());
        self.word(r.test_acc.to_bits());
        self.word(r.final_train_loss.to_bits());
        self.word(r.recovered_divergences as u64);
        self.word(r.diverged as u64);
    }
}

const KINDS: [(&str, QuantKind); 4] = [
    ("native", QuantKind::Native),
    (
        "dq",
        QuantKind::Dq {
            p_min: 0.0,
            p_max: 0.2,
        },
    ),
    (
        "a2q",
        QuantKind::A2q {
            lo: 2,
            mid: 4,
            hi: 8,
        },
    ),
    ("lsq", QuantKind::Lsq),
];

/// A mixed assignment that exercises every bit-width path, FP32
/// pass-through (32) included.
fn mixed(names: Vec<String>) -> BitAssignment {
    let bits = (0..names.len()).map(|i| [8, 4, 32, 2, 8][i % 5]).collect();
    BitAssignment::new(names, bits)
}

/// [`mixed`] without the FP32 pass-through: every bit-width the integer
/// engines run.
fn mixed_int(names: Vec<String>) -> BitAssignment {
    let bits = (0..names.len()).map(|i| [8, 4, 16, 2, 8][i % 5]).collect();
    BitAssignment::new(names, bits)
}

fn node_dataset() -> NodeDataset {
    citation_like(
        &CitationConfig {
            name: "golden",
            nodes: 90,
            feat_dim: 12,
            classes: 3,
            avg_degree: 4.0,
            homophily: 0.8,
            degree_alpha: 2.0,
            topic_size: 4,
            p_topic: 0.5,
            p_noise: 0.02,
            train_per_class: 8,
            val_size: 20,
            test_size: 30,
        },
        17,
    )
}

fn graph_split() -> (GraphBundle, GraphBundle, usize, usize) {
    let ds = imdb_b_like(19, 12);
    let mut rng = Rng::seed_from_u64(3);
    let folds = stratified_kfold(&mut rng, &ds.labels, ds.num_classes, 3);
    let (train_idx, test_idx) = &folds[0];
    (
        GraphBundle::from_graphs(&ds, train_idx),
        GraphBundle::from_graphs(&ds, test_idx),
        ds.feat_dim(),
        ds.num_classes,
    )
}

fn train_cfg() -> TrainConfig {
    TrainConfig {
        epochs: 3,
        lr: 0.02,
        weight_decay: 5e-4,
        seed: 7,
        patience: 0,
        ..TrainConfig::default()
    }
}

fn search_cfg() -> SearchConfig {
    SearchConfig {
        epochs: 5,
        lr: 0.05,
        lambda: 0.5,
        seed: 7,
        warmup: 2,
        ..SearchConfig::default()
    }
}

const HIDDEN: usize = 8;
const LAYERS: usize = 2;
const MENU: [u8; 3] = [2, 4, 8];

/// Integer GCN inference of a trained net over the whole node dataset.
fn int_gcn(net: &QGcnNet, ps: &ParamSet, ds: &NodeDataset) -> u64 {
    let run = net.snapshot(ps).map(|s| {
        let e = QuantizedGcn::prepare(&s, &gcn_normalize(&ds.adj));
        (e.infer(&ds.features), e.bit_config())
    });
    let mut h = Fnv::new();
    h.engine(run);
    h.0
}

/// Integer GraphSAGE inference of a trained net over the whole node dataset.
fn int_sage(net: &QSageNet, ps: &ParamSet, ds: &NodeDataset) -> u64 {
    let run = net.snapshot(ps).map(|s| {
        let e = QuantizedSage::prepare(&s, &row_normalize(&ds.adj));
        (e.infer(&ds.features), e.bit_config())
    });
    let mut h = Fnv::new();
    h.engine(run);
    h.0
}

/// Integer-engine digests of Native-QAT GCN and SAGE nets trained under
/// `assign` (the same seeds as the `gcn/*` and `sage/*` cases).
fn engine_digests(
    label: &str,
    assign: fn(Vec<String>) -> BitAssignment,
    ds: &NodeDataset,
    bundle: &NodeBundle,
    dims: &[usize],
    out: &mut Vec<(String, u64)>,
) {
    let native = QuantKind::Native;
    let mut ps = ParamSet::new();
    let mut rng = Rng::seed_from_u64(1);
    let a = assign(gcn_schema(LAYERS));
    let mut net =
        QGcnNet::new(&mut ps, dims, a, native, &bundle.degrees, 0.5, &mut rng).expect("schema");
    train_node(&mut net, &mut ps, ds, bundle, &train_cfg());
    out.push((format!("int/gcn/{label}"), int_gcn(&net, &ps, ds)));

    let mut ps = ParamSet::new();
    let mut rng = Rng::seed_from_u64(2);
    let a = assign(sage_schema(LAYERS));
    let mut net =
        QSageNet::new(&mut ps, dims, a, native, &bundle.degrees, 0.5, &mut rng).expect("schema");
    train_node(&mut net, &mut ps, ds, bundle, &train_cfg());
    out.push((format!("int/sage/{label}"), int_sage(&net, &ps, ds)));
}

fn uniform8(names: Vec<String>) -> BitAssignment {
    BitAssignment::uniform(names, 8)
}

/// Every golden case as `(name, digest)`, in a fixed order.
fn digests() -> Vec<(String, u64)> {
    let ds = node_dataset();
    let bundle = NodeBundle::new(&ds);
    let dims = [ds.feat_dim(), HIDDEN, ds.num_classes()];
    let (train, test, in_dim, classes) = graph_split();
    let mut out = Vec::new();

    for (kind_name, kind) in KINDS {
        let mut h = Fnv::new();
        let mut ps = ParamSet::new();
        let mut rng = Rng::seed_from_u64(1);
        let a = mixed(gcn_schema(LAYERS));
        let mut net =
            QGcnNet::new(&mut ps, &dims, a, kind, &bundle.degrees, 0.5, &mut rng).expect("schema");
        h.node_report(&train_node(&mut net, &mut ps, &ds, &bundle, &train_cfg()));
        h.params(&ps);
        out.push((format!("gcn/{kind_name}"), h.0));

        let mut h = Fnv::new();
        let mut ps = ParamSet::new();
        let mut rng = Rng::seed_from_u64(2);
        let a = mixed(sage_schema(LAYERS));
        let mut net =
            QSageNet::new(&mut ps, &dims, a, kind, &bundle.degrees, 0.5, &mut rng).expect("schema");
        h.node_report(&train_node(&mut net, &mut ps, &ds, &bundle, &train_cfg()));
        h.params(&ps);
        out.push((format!("sage/{kind_name}"), h.0));

        let mut h = Fnv::new();
        let mut ps = ParamSet::new();
        let mut rng = Rng::seed_from_u64(3);
        let a = mixed(gin_graph_schema(LAYERS));
        let mut net = QGinGraphNet::new(
            &mut ps,
            in_dim,
            HIDDEN,
            classes,
            LAYERS,
            a,
            kind,
            &train.degrees,
            &mut rng,
        )
        .expect("schema");
        h.graph_report(&train_graph(&mut net, &mut ps, &train, &test, &train_cfg()));
        h.params(&ps);
        out.push((format!("gin_graph/{kind_name}"), h.0));

        let mut h = Fnv::new();
        let mut ps = ParamSet::new();
        let mut rng = Rng::seed_from_u64(4);
        let a = mixed(gcn_graph_schema(LAYERS));
        let mut net = QGcnGraphNet::new(
            &mut ps,
            in_dim,
            HIDDEN,
            classes,
            LAYERS,
            a,
            kind,
            &train.degrees,
            &mut rng,
        )
        .expect("schema");
        h.graph_report(&train_graph(&mut net, &mut ps, &train, &test, &train_cfg()));
        h.params(&ps);
        out.push((format!("gcn_graph/{kind_name}"), h.0));
    }

    engine_digests("mixed", mixed, &ds, &bundle, &dims, &mut out);
    engine_digests("mixed_int", mixed_int, &ds, &bundle, &dims, &mut out);
    engine_digests("uniform8", uniform8, &ds, &bundle, &dims, &mut out);

    for (name, dropout, seed) in [("fp32/gcn", 0.5, 5), ("fp32/sage", 0.5, 6)] {
        let mut h = Fnv::new();
        let mut ps = ParamSet::new();
        let mut rng = Rng::seed_from_u64(seed);
        let rep = if name == "fp32/gcn" {
            let mut net = GcnNet::new(&mut ps, &dims, dropout, &mut rng);
            train_node(&mut net, &mut ps, &ds, &bundle, &train_cfg())
        } else {
            let mut net = SageNet::new(&mut ps, &dims, dropout, &mut rng);
            train_node(&mut net, &mut ps, &ds, &bundle, &train_cfg())
        };
        h.node_report(&rep);
        h.params(&ps);
        out.push((name.to_string(), h.0));
    }

    for (name, seed) in [("fp32/gin_graph", 8), ("fp32/gcn_graph", 9)] {
        let mut h = Fnv::new();
        let mut ps = ParamSet::new();
        let mut rng = Rng::seed_from_u64(seed);
        let rep = if name == "fp32/gin_graph" {
            let mut net = GinGraphNet::new(&mut ps, in_dim, HIDDEN, classes, LAYERS, &mut rng);
            train_graph(&mut net, &mut ps, &train, &test, &train_cfg())
        } else {
            let mut net = GcnGraphNet::new(&mut ps, in_dim, HIDDEN, classes, LAYERS, &mut rng);
            train_graph(&mut net, &mut ps, &train, &test, &train_cfg())
        };
        h.graph_report(&rep);
        h.params(&ps);
        out.push((name.to_string(), h.0));
    }

    // The searches run with telemetry on so their per-epoch series can be
    // pinned; the gate must not change any seeded output.
    type Search<'a> = Box<dyn Fn() -> BitAssignment + 'a>;
    let searches: [(&str, Search); 4] = [
        (
            "search/gcn",
            Box::new(|| search_gcn_bits(&ds, &bundle, &dims, &MENU, 0.5, &search_cfg())),
        ),
        (
            "search/sage",
            Box::new(|| search_sage_bits(&ds, &bundle, &dims, &MENU, 0.5, &search_cfg())),
        ),
        (
            "search/gin_graph",
            Box::new(|| {
                search_gin_graph_bits(
                    &train,
                    in_dim,
                    HIDDEN,
                    classes,
                    LAYERS,
                    &MENU,
                    &search_cfg(),
                )
            }),
        ),
        (
            "search/gcn_graph",
            Box::new(|| {
                search_gcn_graph_bits(
                    &train,
                    in_dim,
                    HIDDEN,
                    classes,
                    LAYERS,
                    &MENU,
                    &search_cfg(),
                )
            }),
        ),
    ];
    let mut trajectories = Vec::new();
    for (name, run) in searches {
        mixq::telemetry::set_enabled(true);
        mixq::telemetry::reset();
        let a = run();
        let rep = mixq::telemetry::snapshot();
        mixq::telemetry::set_enabled(false);
        let mut h = Fnv::new();
        h.assignment(&a);
        out.push((name.to_string(), h.0));
        let mut h = Fnv::new();
        h.series(&rep, "search.alpha_entropy");
        h.series(&rep, "search.penalty");
        trajectories.push((format!("{name}/trajectory"), h.0));
    }
    out.extend(trajectories);
    out
}

const GOLDEN: &[(&str, u64)] = &[
    ("gcn/native", 0x7b72dd2bb5fe3535),
    ("sage/native", 0xba71802617d2c187),
    ("gin_graph/native", 0x591bd118baf87f6b),
    ("gcn_graph/native", 0xc51b111a5bd89fba),
    ("gcn/dq", 0xc85889ac6c163bb9),
    ("sage/dq", 0x5958a6613125d034),
    ("gin_graph/dq", 0xcb3d64865bc4eb88),
    ("gcn_graph/dq", 0x3244de42f7fa5791),
    ("gcn/a2q", 0xfea7cf3a7e5f4393),
    ("sage/a2q", 0xf22e95fe3361f816),
    ("gin_graph/a2q", 0x805d38c4dbb5a522),
    ("gcn_graph/a2q", 0xd5c79de26e8bce6d),
    ("gcn/lsq", 0x8835706fd65f9d93),
    ("sage/lsq", 0xb34808ebca30940d),
    ("gin_graph/lsq", 0xa173d747d7554381),
    ("gcn_graph/lsq", 0xacd99a6624e76778),
    ("int/gcn/mixed", 0x8cf51a8bfca3883d),
    ("int/sage/mixed", 0x8cf51a8bfca3883d),
    ("int/gcn/mixed_int", 0x951590f7f6a05a88),
    ("int/sage/mixed_int", 0x77916247be20c17e),
    ("int/gcn/uniform8", 0xf9e74a04562062bb),
    ("int/sage/uniform8", 0x71569ddc655b8bf7),
    ("fp32/gcn", 0xe4825c2096667be9),
    ("fp32/sage", 0x5dc25278f1e8f41d),
    ("fp32/gin_graph", 0xac816c6357519464),
    ("fp32/gcn_graph", 0x9ef64338ab4395e9),
    ("search/gcn", 0x71067a8e1ffbdcd7),
    ("search/sage", 0xfd92f38aafa312fa),
    ("search/gin_graph", 0x79a0efc9c1eaf0af),
    ("search/gcn_graph", 0xe1d530863d7661ce),
    ("search/gcn/trajectory", 0x3e6249402de6faf7),
    ("search/sage/trajectory", 0xcc14ea98248fbd20),
    ("search/gin_graph/trajectory", 0x686dcf734cf340d5),
    ("search/gcn_graph/trajectory", 0x6c0e6b5d36f8794c),
];

#[test]
fn seeded_training_and_search_match_recorded_digests() {
    let got = digests();
    let table: String = got
        .iter()
        .map(|(n, d)| format!("    (\"{n}\", 0x{d:016x}),\n"))
        .collect();
    let expected: Vec<(String, u64)> = GOLDEN.iter().map(|&(n, d)| (n.to_string(), d)).collect();
    assert_eq!(
        got, expected,
        "seeded outputs moved; the current digests are:\n{table}"
    );
}
