//! Table 8: graph classification, 5-layer GIN, stratified k-fold CV.
//! Bit search space {4,8} for IMDB-B/PROTEINS/D&D and {8,16} for the
//! REDDIT datasets, as in the paper.

use mixq_bench::{bits, gbops, pct, run_graph_cv, Args, GraphExp, GraphMethod, Table};
use mixq_core::{gin_graph_schema, BitAssignment, QuantKind};
use mixq_graph::{dd_like, imdb_b_like, proteins_like, reddit_b_like, reddit_m_like};

fn main() {
    let args = Args::parse_folds();
    let folds = args.runs_or(10);
    let mut t = Table::new(
        "Table 8 — graph classification, 5-layer GIN, k-fold CV",
        &["Dataset", "Method", "Accuracy", "Bits", "GBitOPs"],
    );
    let dq = QuantKind::Dq {
        p_min: 0.0,
        p_max: 0.2,
    };
    let sets: Vec<(&str, mixq_graph::GraphDataset, Vec<u8>)> = vec![
        ("IMDB-B", imdb_b_like(42, 300), vec![4, 8]),
        ("PROTEINS", proteins_like(42, 300), vec![4, 8]),
        ("D&D", dd_like(42, 150), vec![4, 8]),
        ("REDDIT-B", reddit_b_like(42, 200), vec![8, 16]),
        ("REDDIT-M", reddit_m_like(42, 250), vec![8, 16]),
    ];
    for (name, ds, choices) in sets {
        eprintln!("[table8] {name} ...");
        let mut exp = GraphExp::gin_table8(folds);
        if args.quick {
            exp.train.epochs = 40;
            exp.search.epochs = 24;
            exp.search.warmup = 12;
        }
        let schema = gin_graph_schema(exp.layers);
        let mut row = |method: &str, m: &GraphMethod| {
            let out = run_graph_cv(&ds, &exp, m);
            let c = out.cell();
            t.row(&[
                name.into(),
                method.into(),
                pct(c.mean, c.std),
                bits(c.avg_bits),
                gbops(c.gbitops),
            ]);
        };
        row("FP32", &GraphMethod::Fp32);
        row(
            "DQ (INT4)",
            &GraphMethod::Fixed(BitAssignment::uniform(schema.clone(), 4), dq),
        );
        row(
            "DQ (INT8)",
            &GraphMethod::Fixed(BitAssignment::uniform(schema.clone(), 8), dq),
        );
        row(
            "A2Q",
            &GraphMethod::A2q {
                lo: 4,
                mid: 4,
                hi: 8,
            },
        );
        row(
            "MixQ (λ*)",
            &GraphMethod::MixQ {
                choices: choices.clone(),
                lambda: -1e-8,
            },
        );
        row(
            "MixQ (λ=1)",
            &GraphMethod::MixQ {
                choices,
                lambda: 1.0,
            },
        );
    }
    t.print();
}
