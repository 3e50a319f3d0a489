//! Figure 1: accuracy vs number of scalar operations for eight GNN layer
//! types at depths 1–5 on the Cora-like dataset, plus the Spearman rank
//! correlation between OPs and accuracy. GCN and SAGE take their OPs from
//! their cost models at uniform 32 bits.

use mixq_bench::{Args, Table};
use mixq_core::{gcn_cost_model, gcn_schema, sage_cost_model, sage_schema, BitAssignment};
use mixq_graph::cora_like;
use mixq_nn::{
    spearman, train_node, AppnpNet, GatNet, GcnNet, GinNet, NodeBundle, ParamSet, SageNet, SgcNet,
    TagNet, TrainConfig, UniMpNet,
};
use mixq_tensor::Rng;

fn main() {
    let args = Args::parse();
    let runs = args.runs_or(5);
    let ds = cora_like(42);
    let bundle = NodeBundle::new(&ds);
    let n = ds.num_nodes() as u64;
    let nnz = (ds.num_edges() + ds.num_nodes()) as u64;
    let hidden = 32;

    let mut t = Table::new(
        "Figure 1 — accuracy vs operations, eight GNN types × depth 1–5",
        &["Layer type", "Depth", "OPs (M)", "Accuracy"],
    );
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for depth in 1..=5usize {
        let mut dims = vec![ds.feat_dim()];
        dims.extend(std::iter::repeat_n(hidden, depth - 1));
        dims.push(ds.num_classes());
        for arch in ["GCN", "GIN", "GAT", "UniMP", "SAGE", "TAG", "SGC", "APPNP"] {
            let mut accs = Vec::new();
            let mut ops = 0u64;
            for run in 0..runs {
                let seed = run as u64;
                let cfg = TrainConfig {
                    epochs: if args.quick { 50 } else { 120 },
                    lr: 0.01,
                    weight_decay: 5e-4,
                    seed,
                    patience: 30,
                    ..TrainConfig::default()
                };
                let mut rng = Rng::seed_from_u64(seed ^ 0xF16);
                let mut ps = ParamSet::new();
                let acc = match arch {
                    "GCN" => {
                        let mut m = GcnNet::new(&mut ps, &dims, 0.5, &mut rng);
                        let fp32 = BitAssignment::uniform(gcn_schema(depth), 32);
                        ops = gcn_cost_model(&fp32, &dims, n, nnz).total_ops();
                        train_node(&mut m, &mut ps, &ds, &bundle, &cfg).test_metric
                    }
                    "GIN" => {
                        let mut m = GinNet::new(&mut ps, &dims, 0.5, &mut rng);
                        ops = 2 * m.macs(n, nnz);
                        train_node(&mut m, &mut ps, &ds, &bundle, &cfg).test_metric
                    }
                    "GAT" => {
                        let mut m = GatNet::new(&mut ps, &dims, 0.5, &mut rng);
                        ops = 2 * m.macs(n, nnz);
                        train_node(&mut m, &mut ps, &ds, &bundle, &cfg).test_metric
                    }
                    "UniMP" => {
                        let mut m = UniMpNet::new(&mut ps, &dims, 0.5, &mut rng);
                        ops = 2 * m.macs(n, nnz);
                        train_node(&mut m, &mut ps, &ds, &bundle, &cfg).test_metric
                    }
                    "SAGE" => {
                        let mut m = SageNet::new(&mut ps, &dims, 0.5, &mut rng);
                        let fp32 = BitAssignment::uniform(sage_schema(depth), 32);
                        ops = sage_cost_model(&fp32, &dims, n, nnz).total_ops();
                        train_node(&mut m, &mut ps, &ds, &bundle, &cfg).test_metric
                    }
                    "TAG" => {
                        let mut m = TagNet::new(&mut ps, &dims, 0.5, &mut rng);
                        ops = 2 * m.macs(n, nnz);
                        train_node(&mut m, &mut ps, &ds, &bundle, &cfg).test_metric
                    }
                    "SGC" => {
                        let mut m =
                            SgcNet::new(&mut ps, ds.feat_dim(), ds.num_classes(), depth, &mut rng);
                        ops = 2 * m.macs(n, nnz);
                        train_node(&mut m, &mut ps, &ds, &bundle, &cfg).test_metric
                    }
                    "APPNP" => {
                        let mut m = AppnpNet::new(&mut ps, &dims, depth, 0.2, 0.5, &mut rng);
                        ops = 2 * m.macs(n, nnz);
                        train_node(&mut m, &mut ps, &ds, &bundle, &cfg).test_metric
                    }
                    _ => unreachable!(),
                };
                accs.push(acc);
            }
            let (mean, _) = mixq_nn::mean_std(&accs);
            let ops = ops as f64;
            xs.push(ops);
            ys.push(mean);
            t.row(&[
                arch.into(),
                format!("{depth}"),
                format!("{:.2}", ops / 1e6),
                format!("{:.3}", mean),
            ]);
        }
    }
    t.print();
    println!(
        "Spearman rank correlation (OPs vs accuracy): {:.2}",
        spearman(&xs, &ys)
    );
    println!("(paper reports 0.64 on real Cora)");
}
