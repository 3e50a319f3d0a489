//! Figure 8: BitOPs vs measured inference time of one quantized message-
//! passing layer (integer SpMM via Theorem 1 at INT8/INT16, plus the FP32
//! kernel), across graphs of different sizes. There is no INT32 row: the
//! integer kernel tops out at 16-bit codes, so it would time the INT16 run.
//!
//! The paper times three hardware platforms; this substrate has one CPU.
//! Where it has AVX-512 VNNI and BW, INT8 runs the integer row kernel's
//! `vpdpbusd` arm (codes packed as `u8`, four non-zeros per instruction) and
//! INT16 its `i32`/`i64` arms, so INT8 is the faster integer width on the
//! larger graphs. FP32 has the most BitOPs yet runs fastest (the f32 SpMM
//! is register-blocked on AVX-512 F), which keeps the correlation weak —
//! analogous to the weakest (AMD, r = 0.59) platform in the paper.

use std::time::Instant;

use mixq_bench::Table;
use mixq_core::{quantize_csr_symmetric, quantized_spmm, QmpParams};
use mixq_graph::{arxiv_like, citeseer_like, cora_like, products_like, pubmed_like, reddit_like};
use mixq_nn::pearson;
use mixq_sparse::gcn_normalize;
use mixq_tensor::Rng;

fn main() {
    let feat = 64usize;
    let mut t = Table::new(
        "Figure 8 — BitOPs vs inference time, one message-passing layer",
        &["Dataset", "Precision", "GBitOPs", "Time (ms)"],
    );
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for (name, ds) in [
        ("cora", cora_like(1)),
        ("citeseer", citeseer_like(1)),
        ("pubmed", pubmed_like(1)),
        ("arxiv", arxiv_like(1)),
        ("reddit", reddit_like(1)),
        ("products", products_like(1)),
    ] {
        let adj = gcn_normalize(&ds.adj);
        let n = ds.num_nodes();
        let nnz = adj.nnz() as f64;
        let mut rng = Rng::seed_from_u64(7);
        let reps = (200_000_000.0 / (nnz * feat as f64)).clamp(1.0, 50.0) as usize;

        for bits in [8u8, 16] {
            let (qa, sa) = quantize_csr_symmetric(&adj, bits);
            let (qmin, qmax) = mixq_tensor::QuantParams::int_range(bits);
            let qx: Vec<i32> = (0..n * feat)
                .map(|_| qmin + rng.gen_range((qmax - qmin) as usize) as i32)
                .collect();
            let p = QmpParams::per_tensor(n, feat, sa, 0, 0.01, 3, 0.02, 0, qmin, qmax);
            let t0 = Instant::now();
            for _ in 0..reps {
                let out = quantized_spmm(&qa, &qx, feat, &p);
                std::hint::black_box(&out);
            }
            let ms = t0.elapsed().as_secs_f64() * 1e3 / reps as f64;
            let gbitops = 2.0 * nnz * feat as f64 * bits as f64 / 1e9;
            t.row(&[
                name.into(),
                format!("INT{bits}"),
                format!("{gbitops:.3}"),
                format!("{ms:.2}"),
            ]);
            xs.push(gbitops);
            ys.push(ms);
        }
        // FP32 kernel.
        let x: Vec<f32> = (0..n * feat).map(|_| rng.normal()).collect();
        let t0 = Instant::now();
        for _ in 0..reps {
            let out = adj.spmm(&x, feat);
            std::hint::black_box(&out);
        }
        let ms = t0.elapsed().as_secs_f64() * 1e3 / reps as f64;
        let gbitops = 2.0 * nnz * feat as f64 * 32.0 / 1e9;
        t.row(&[
            name.into(),
            "FP32".into(),
            format!("{gbitops:.3}"),
            format!("{ms:.2}"),
        ]);
        xs.push(gbitops);
        ys.push(ms);
    }
    t.print();
    println!(
        "Pearson correlation (BitOPs vs time): {:.2}",
        pearson(&xs, &ys)
    );
    println!("(paper: AMD 0.59, Apple M1 0.95, Intel 0.70)");

    if mixq_telemetry::enabled() {
        match mixq_telemetry::write_report("fig8") {
            Ok(p) => println!("telemetry report written to {}", p.display()),
            Err(e) => eprintln!("telemetry report failed: {e}"),
        }
    }
}
