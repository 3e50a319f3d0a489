//! Pathological-structure and saturation-boundary tests for the integer
//! executors (`QuantizedGcn` / `QuantizedSage`).
//!
//! Covers: all-isolated (zero-nnz) adjacencies, structurally-present but
//! zero-valued edges, single fully-dense rows (`max_row_nnz == cols`), a
//! manual integer reference for the GCN layer pipeline, generated
//! isolation-heavy graphs through both engines, the byte layers of both
//! engines against a manual pipeline of the public `i32` functions, and the
//! `2^62` accumulator bound that `prepare` asserts, probed from both sides.
//!
//! Telemetry is process-global, so every test serializes on one mutex.

use std::sync::{Mutex, MutexGuard};

use mixq::core::{
    int_matmul_requant, int_matmul_requant_portable, quantize_csr_symmetric, quantized_spmm,
    quantized_spmm_portable, GcnLayerSnapshot, GcnSnapshot, QTensor, QmpParams, QuantizedGcn,
    QuantizedSage, SageLayerSnapshot, SageSnapshot,
};
use mixq::sparse::{CooEntry, CsrMatrix};
use mixq::telemetry;
use mixq::tensor::{Matrix, QuantParams, Rng};
use mixq_proptest::{graph, usize_in, Config, GraphConfig};

static GLOBAL: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    GLOBAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn assert_bits_eq(a: &Matrix, b: &Matrix, what: &str) {
    assert_eq!(a.shape(), b.shape(), "{what}: shape mismatch");
    assert!(
        a.data()
            .iter()
            .zip(b.data())
            .all(|(x, y)| x.to_bits() == y.to_bits()),
        "{what}: outputs are not bit-identical"
    );
}

/// One-layer GCN snapshot with 8-bit weights/activations.
fn gcn_1layer(weight: Matrix, adj_bits: u8) -> GcnSnapshot {
    GcnSnapshot {
        input_qp: QuantParams::from_min_max(-2.0, 2.0, 8),
        layers: vec![GcnLayerSnapshot {
            weight,
            bias: Some(vec![0.1, -0.2]),
            w_qp: QuantParams::from_min_max(-1.0, 1.0, 8),
            lin_qp: QuantParams::from_min_max(-4.0, 4.0, 8),
            agg_qp: QuantParams::from_min_max(-8.0, 8.0, 8),
            adj_bits,
        }],
    }
}

/// One-layer GraphSAGE snapshot with 8-bit weights/activations.
fn sage_1layer(w_root: Matrix, w_neigh: Matrix, adj_bits: u8) -> SageSnapshot {
    SageSnapshot {
        input_qp: QuantParams::from_min_max(-2.0, 2.0, 8),
        layers: vec![SageLayerSnapshot {
            w_root,
            bias: Some(vec![0.05, 0.15]),
            w_neigh,
            w_root_qp: QuantParams::from_min_max(-1.0, 1.0, 8),
            w_neigh_qp: QuantParams::from_min_max(-1.0, 1.0, 8),
            agg_qp: QuantParams::from_min_max(-4.0, 4.0, 8),
            out_qp: QuantParams::from_min_max(-8.0, 8.0, 8),
            adj_bits,
        }],
    }
}

fn rand_matrix(rng: &mut Rng, r: usize, c: usize) -> Matrix {
    Matrix::from_fn(r, c, |_, _| rng.uniform_in(-1.5, 1.5))
}

/// An all-isolated adjacency and one whose edges exist structurally but
/// carry value 0 quantize to the same codes, so both executors must be
/// bit-identical — and the GCN (whose layer ends in the aggregation)
/// must emit exactly zero logits.
#[test]
fn empty_and_zero_valued_adjacencies_are_bit_identical() {
    let _g = lock();
    let n = 6;
    let empty = CsrMatrix::from_coo(n, n, vec![]);
    let zeroed = CsrMatrix::from_coo(
        n,
        n,
        (0..n)
            .map(|i| CooEntry {
                row: i,
                col: (i + 1) % n,
                val: 0.0,
            })
            .collect(),
    );
    assert_eq!(
        zeroed.nnz(),
        n,
        "zero-valued edges must survive structurally"
    );

    let mut rng = Rng::seed_from_u64(11);
    let x = rand_matrix(&mut rng, n, 3);
    let w = rand_matrix(&mut rng, 3, 2);

    let snap = gcn_1layer(w.clone(), 8);
    let out_empty = QuantizedGcn::prepare(&snap, &empty).infer(&x);
    let out_zero = QuantizedGcn::prepare(&snap, &zeroed).infer(&x);
    assert_bits_eq(&out_empty, &out_zero, "GCN empty vs zero-valued adjacency");
    assert!(
        out_empty.data().iter().all(|&v| v == 0.0),
        "GCN over an all-isolated graph must produce exactly-zero logits"
    );

    let wn = rand_matrix(&mut rng, 3, 2);
    let ssnap = sage_1layer(w, wn, 8);
    let s_empty = QuantizedSage::prepare(&ssnap, &empty).infer(&x);
    let s_zero = QuantizedSage::prepare(&ssnap, &zeroed).infer(&x);
    assert_bits_eq(&s_empty, &s_zero, "SAGE empty vs zero-valued adjacency");
    // The root branch still flows: outputs must not collapse to zero.
    assert!(
        s_empty.data().iter().any(|&v| v != 0.0),
        "SAGE root branch must be unaffected by an empty adjacency"
    );
}

/// A single fully-dense row (`max_row_nnz == cols`): replicate the GCN
/// layer by hand from the exported integer primitives and demand the
/// engine's output match bit-for-bit.
#[test]
fn single_dense_row_gcn_matches_manual_integer_reference() {
    let _g = lock();
    let n = 5;
    let entries: Vec<CooEntry> = (0..n)
        .map(|c| CooEntry {
            row: 0,
            col: c,
            val: 0.3 + 0.1 * c as f32,
        })
        .collect();
    let adj = CsrMatrix::from_coo(n, n, entries);

    let mut rng = Rng::seed_from_u64(23);
    let x = rand_matrix(&mut rng, n, 3);
    let w = rand_matrix(&mut rng, 3, 2);
    let snap = gcn_1layer(w, 8);
    let l = &snap.layers[0];

    let (qadj, adj_scale) = quantize_csr_symmetric(&adj, l.adj_bits);
    assert_eq!(qadj.max_row_nnz(), qadj.cols(), "row 0 must be fully dense");

    // Manual pipeline: quantize → integer dense matmul+requant → Theorem 1
    // sparse aggregation → dequantize. One layer ⇒ no ReLU.
    let xq = QTensor::quantize(&x, snap.input_qp);
    let wq = QTensor::quantize(&l.weight, l.w_qp);
    let h = int_matmul_requant(&xq, &wq, l.bias.as_deref(), l.lin_qp);
    let p = QmpParams::per_tensor(
        qadj.rows(),
        h.cols,
        adj_scale,
        0,
        h.qp.scale,
        h.qp.zero_point,
        l.agg_qp.scale,
        l.agg_qp.zero_point,
        l.agg_qp.qmin,
        l.agg_qp.qmax,
    );
    let want = QTensor {
        rows: n,
        cols: h.cols,
        data: quantized_spmm(&qadj, &h.data, h.cols, &p),
        qp: l.agg_qp,
    }
    .dequantize();

    let got = QuantizedGcn::prepare(&snap, &adj).infer(&x);
    assert_bits_eq(&got, &want, "engine vs manual integer reference");
}

/// Generated isolation-heavy graphs through BOTH executors: outputs stay
/// finite, and every node with an empty adjacency row yields exactly-zero
/// GCN logits (the aggregation ends the layer).
#[test]
fn fuzz_pathological_graphs_through_both_executors() {
    let _g = lock();
    let cfg = GraphConfig {
        min_nodes: 1,
        max_nodes: 16,
        max_degree: 6,
        degree_alpha: 3.0,
        isolated_frac: 0.5,
        self_loops: true,
        val_lo: -1.0,
        val_hi: 1.0,
    };
    let gen = graph(cfg).zip(&usize_in(0, 1 << 20));
    Config::new("integer_engine_edge")
        .cases(48)
        .run(&gen, |&(ref g, seed)| {
            let n = g.nodes;
            let adj = g.to_csr();
            let mut rng = Rng::seed_from_u64(seed as u64);
            let x = rand_matrix(&mut rng, n, 3);
            let w = rand_matrix(&mut rng, 3, 2);
            let wn = rand_matrix(&mut rng, 3, 2);

            let out = QuantizedGcn::prepare(&gcn_1layer(w.clone(), 4), &adj).infer(&x);
            assert!(out.data().iter().all(|v| v.is_finite()));
            let row_ptr = adj.row_ptr();
            for r in 0..n {
                if row_ptr[r] == row_ptr[r + 1] {
                    assert!(
                        out.row_slice(r).iter().all(|&v| v == 0.0),
                        "isolated node {r} must aggregate to exactly zero"
                    );
                }
            }

            let s = QuantizedSage::prepare(&sage_1layer(w, wn, 4), &adj).infer(&x);
            assert!(s.data().iter().all(|v| v.is_finite()));
        });
}

fn vnni_host() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        is_x86_feature_detected!("avx512vnni") && is_x86_feature_detected!("avx512bw")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

fn counter(name: &str) -> u64 {
    telemetry::snapshot()
        .counters
        .iter()
        .find(|(k, _)| k == name)
        .map_or(0, |&(_, v)| v)
}

/// A `bits`-wide activation quantizer of `[-range, range]`.
fn act_qp(range: f32, bits: u8) -> QuantParams {
    QuantParams::from_min_max(-range, range, bits)
}

/// A `bits`-wide quantizer whose zero point sits below (`place` 0), inside
/// (1) or above (2) `[qmin, qmax]`, so the ReLU folded into a hidden
/// layer's clip range leaves it whole, cuts it, or collapses it to `Z`.
fn relu_qp(bits: u8, place: usize) -> QuantParams {
    let (qmin, qmax) = QuantParams::int_range(bits);
    let zero_point = [qmin - 3, (qmin + qmax) / 2 + 1, qmax + 2][place];
    QuantParams {
        scale: 2.0 / (qmax - qmin) as f32,
        zero_point,
        qmin,
        qmax,
        bits,
    }
}

/// The clip range of a layer's output: ReLU-folded for hidden layers.
fn clip(qp: &QuantParams, relu: bool) -> (i32, i32) {
    if relu {
        (qp.qmin.max(qp.zero_point), qp.qmax.max(qp.zero_point))
    } else {
        (qp.qmin, qp.qmax)
    }
}

/// Theorem 1 through `quantized_spmm_portable`: `h`'s codes aggregated into
/// `out_qp`, clipped to `range`.
fn aggregate_portable(
    adj: &CsrMatrix,
    adj_bits: u8,
    h: &QTensor,
    out_qp: QuantParams,
    range: (i32, i32),
) -> QTensor {
    let (qadj, scale) = quantize_csr_symmetric(adj, adj_bits);
    let p = QmpParams::per_tensor(
        qadj.rows(),
        h.cols,
        scale,
        0,
        h.qp.scale,
        h.qp.zero_point,
        out_qp.scale,
        out_qp.zero_point,
        range.0,
        range.1,
    );
    QTensor {
        rows: qadj.rows(),
        cols: h.cols,
        data: quantized_spmm_portable(&qadj, &h.data, h.cols, &p),
        qp: out_qp,
    }
}

/// `QuantizedGcn::infer` rebuilt from the public `i32` functions.
fn manual_gcn(snap: &GcnSnapshot, adj: &CsrMatrix, x: &Matrix) -> Matrix {
    let mut h = QTensor::quantize(x, snap.input_qp);
    let last = snap.layers.len() - 1;
    for (i, l) in snap.layers.iter().enumerate() {
        let wq = QTensor::quantize(&l.weight, l.w_qp);
        let lin = int_matmul_requant_portable(&h, &wq, l.bias.as_deref(), l.lin_qp);
        h = aggregate_portable(adj, l.adj_bits, &lin, l.agg_qp, clip(&l.agg_qp, i < last));
    }
    h.dequantize()
}

/// `QuantizedSage::infer` rebuilt from the public `i32` functions.
fn manual_sage(snap: &SageSnapshot, adj: &CsrMatrix, x: &Matrix) -> Matrix {
    let mut h = QTensor::quantize(x, snap.input_qp);
    let last = snap.layers.len() - 1;
    for (i, l) in snap.layers.iter().enumerate() {
        let agg = aggregate_portable(adj, l.adj_bits, &h, l.agg_qp, clip(&l.agg_qp, false));
        let wr = QTensor::quantize(&l.w_root, l.w_root_qp);
        let wn = QTensor::quantize(&l.w_neigh, l.w_neigh_qp);
        let root = int_matmul_requant_portable(&h, &wr, l.bias.as_deref(), l.out_qp);
        let neigh = int_matmul_requant_portable(&agg, &wn, None, l.out_qp);
        let (lo, hi) = clip(&l.out_qp, i < last);
        let z = l.out_qp.zero_point as i64;
        let data = root
            .data
            .iter()
            .zip(&neigh.data)
            .map(|(&a, &b)| (a as i64 + b as i64 - z).max(lo as i64).min(hi as i64) as i32)
            .collect();
        h = QTensor {
            rows: root.rows,
            cols: root.cols,
            data,
            qp: l.out_qp,
        };
    }
    h.dequantize()
}

/// Both engines against their manual `i32` pipelines, bit for bit, on
/// generated graphs whose rows include hubs (the transpose of a skewed
/// graph) and an isolated last node: activations of 2, 4 and 8 bits, which
/// run on bytes where the host has AVX-512 VNNI and BW, of 16 bits, which
/// run the `i32` path, and both paths in one net; a layer whose 16-bit
/// adjacency keeps it on the `i32` path (a layer runs wholly on bytes or
/// wholly on codes); the hidden layer's zero point below, inside and above
/// its range; at 1, 2 and 4 threads. `qinfer.byte_layers` says which path
/// ran, and `qinfer.requant.vnni_path` which dense products took VNNI.
#[test]
fn byte_layers_match_the_manual_i32_pipeline() {
    let _g = lock();
    let cfg = GraphConfig {
        min_nodes: 2,
        max_nodes: 40,
        max_degree: 12,
        degree_alpha: 2.5,
        isolated_frac: 0.2,
        self_loops: true,
        val_lo: 0.05,
        val_hi: 1.0,
    };
    let (threads, threshold) = (
        mixq::parallel::num_threads(),
        mixq::parallel::parallel_row_threshold(),
    );
    mixq::parallel::set_parallel_row_threshold(0);
    telemetry::set_enabled(true);
    let gen = graph(cfg).zip(&usize_in(0, 1 << 20));
    Config::new("byte_layers")
        .cases(16)
        .run(&gen, |&(ref g, seed)| {
            let n = g.nodes;
            let entries = g
                .edges
                .iter()
                .filter(|&&(src, _, _)| src != n - 1)
                .map(|&(src, dst, val)| CooEntry {
                    row: dst,
                    col: src,
                    val,
                })
                .collect();
            let adj = CsrMatrix::from_coo(n, n, entries);
            let mut rng = Rng::seed_from_u64(seed as u64);
            let dims = [6usize, 17, 3];
            let x = rand_matrix(&mut rng, n, dims[0]);
            let w: Vec<[Matrix; 2]> = (0..2)
                .map(|i| {
                    [0, 1].map(|_| rand_matrix(&mut rng, dims[i], dims[i + 1]).map(|v| v * 0.4))
                })
                .collect();
            let w_qp = QuantParams::from_min_max(-0.6, 0.6, 8);
            // Activation widths of the input and of layers 0 and 1, the
            // adjacency widths of layers 0 and 1, and the byte layers of
            // both engines per `infer` on a VNNI host: uniform widths, then
            // a 16-bit input ahead of two 8-bit layers (codes packed into
            // bytes at layer 1), a 16-bit last layer behind an 8-bit one
            // (bytes widened to codes), and an 8-bit net whose last layer
            // aggregates through a 16-bit adjacency (codes above ±127): its
            // dense products alone could run on bytes, and the layer runs
            // wholly on `i32` codes.
            //
            // The last column is the dense products that take the VNNI arm
            // per `infer` of GCN and of SAGE on a VNNI host, per zero-point
            // place: on bytes, or on `i32` codes of 8-bit inputs into a
            // 16-bit output (layer 1 of `[8, 8, 16]`), or when a hidden zero
            // point above its range (place 2) clips every hidden code to
            // one, so that 16-bit inputs span less than 256 codes.
            let cases = [
                ([2u8, 2, 2], [8u8, 8], 4, [(2u64, 4u64); 3]),
                ([4, 4, 4], [8, 8], 4, [(2, 4); 3]),
                ([8, 8, 8], [8, 8], 4, [(2, 4); 3]),
                ([16, 16, 16], [8, 8], 0, [(0, 0), (0, 0), (1, 2)]),
                ([16, 8, 8], [8, 8], 2, [(1, 3); 3]),
                ([8, 8, 16], [8, 8], 2, [(2, 3), (2, 3), (2, 4)]),
                ([8, 8, 8], [8, 16], 2, [(2, 4); 3]),
            ];
            for (bits, adj_bits, byte_layers, vnni) in cases {
                for (place, vnni) in vnni.into_iter().enumerate() {
                    let out_qp = |i: usize| {
                        if i == 0 {
                            relu_qp(bits[1], place)
                        } else {
                            act_qp(4.0, bits[2])
                        }
                    };
                    let gcn = GcnSnapshot {
                        input_qp: act_qp(1.5, bits[0]),
                        layers: (0..2)
                            .map(|i| GcnLayerSnapshot {
                                weight: w[i][0].clone(),
                                bias: Some(vec![0.05; dims[i + 1]]),
                                w_qp,
                                lin_qp: act_qp(3.0, bits[i + 1]),
                                agg_qp: out_qp(i),
                                adj_bits: adj_bits[i],
                            })
                            .collect(),
                    };
                    let sage = SageSnapshot {
                        input_qp: act_qp(1.5, bits[0]),
                        layers: (0..2)
                            .map(|i| SageLayerSnapshot {
                                w_root: w[i][0].clone(),
                                bias: Some(vec![-0.05; dims[i + 1]]),
                                w_neigh: w[i][1].clone(),
                                w_root_qp: w_qp,
                                w_neigh_qp: w_qp,
                                agg_qp: act_qp(1.5, bits[i + 1]),
                                out_qp: out_qp(i),
                                adj_bits: adj_bits[i],
                            })
                            .collect(),
                    };
                    let want = (manual_gcn(&gcn, &adj, &x), manual_sage(&sage, &adj, &x));
                    let (gcn, sage) = (
                        QuantizedGcn::prepare(&gcn, &adj),
                        QuantizedSage::prepare(&sage, &adj),
                    );
                    for t in [1, 2, 4] {
                        mixq::parallel::set_num_threads(t);
                        telemetry::reset();
                        let what = format!(
                            "widths {bits:?}, adjacency {adj_bits:?}, zero point {place}, {t} threads"
                        );
                        assert_bits_eq(&gcn.infer(&x), &want.0, &format!("GCN, {what}"));
                        let gcn_vnni = counter("qinfer.requant.vnni_path");
                        assert_bits_eq(&sage.infer(&x), &want.1, &format!("SAGE, {what}"));
                        let sage_vnni = counter("qinfer.requant.vnni_path") - gcn_vnni;
                        let (want_bytes, want_vnni) = if vnni_host() {
                            (byte_layers, vnni)
                        } else {
                            (0, (0, 0))
                        };
                        assert_eq!(counter("qinfer.byte_layers"), want_bytes, "{what}");
                        assert_eq!((gcn_vnni, sage_vnni), want_vnni, "VNNI products, {what}");
                    }
                }
            }
        });
    telemetry::set_enabled(false);
    mixq::parallel::set_num_threads(threads);
    mixq::parallel::set_parallel_row_threshold(threshold);
}

/// Builds the boundary configuration: a single dense row of `nnz` entries,
/// 16-bit adjacency codes and a 32-bit (large zero-point) linear quantizer,
/// so the static spmm accumulator bound is `nnz · 2^16 · (2^32−1+2^30)` —
/// crossing `2^62` exactly between 8192 and 16384 nnz. Trained nets never
/// export 32-bit activations; only a hand-built snapshot reaches the bound
/// at test-sized graphs.
fn boundary_snapshot_and_adj(nnz: usize) -> (GcnSnapshot, CsrMatrix, Matrix) {
    let n = nnz;
    let entries: Vec<CooEntry> = (0..n)
        .map(|c| CooEntry {
            row: 0,
            col: c,
            val: 1.0 / n as f32,
        })
        .collect();
    let adj = CsrMatrix::from_coo(n, n, entries);
    let snap = GcnSnapshot {
        input_qp: QuantParams::from_min_max(-1.0, 1.0, 8),
        layers: vec![GcnLayerSnapshot {
            weight: Matrix::scalar(0.5),
            bias: None,
            w_qp: QuantParams::from_min_max(-1.0, 1.0, 8),
            // Asymmetric 32-bit activations: span ≈ 2^32, |Z| ≈ 2^30.
            lin_qp: QuantParams::from_min_max(-1.0, 3.0, 32),
            agg_qp: QuantParams::from_min_max(-8.0, 8.0, 8),
            adj_bits: 16,
        }],
    };
    let x = Matrix::from_fn(n, 1, |i, _| ((i % 13) as f32 - 6.0) / 7.0);
    (snap, adj, x)
}

/// The `2^62` accumulator ceiling: `prepare` refuses a 16384-nnz dense row
/// with 16-bit adjacency × 32-bit activations, panicking with a message
/// that names the layer, the bound and the limit; halving the row to 8192
/// nnz stays under the ceiling and runs the integer kernels.
#[test]
fn acc_saturation_boundary_at_2_pow_62() {
    let _g = lock();

    let (snap, adj, _) = boundary_snapshot_and_adj(16384);
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let over = std::panic::catch_unwind(|| QuantizedGcn::prepare(&snap, &adj));
    std::panic::set_hook(hook);
    let payload = over
        .map(|_| ())
        .expect_err("16384-nnz row must cross the 2^62 bound");
    let msg = payload
        .downcast_ref::<String>()
        .expect("formatted panic message");
    assert!(
        msg.contains("QuantizedGcn::prepare: layer 0 accumulator bound")
            && msg.contains("2^62 limit"),
        "{msg}"
    );

    telemetry::set_enabled(true);
    telemetry::reset();
    let (snap, adj, x) = boundary_snapshot_and_adj(8192);
    let out = QuantizedGcn::prepare(&snap, &adj).infer(&x);
    telemetry::set_enabled(false);
    assert!(out.data().iter().all(|v| v.is_finite()));
    assert_eq!(
        counter("qinfer.requant.calls"),
        1,
        "8192-nnz row must run the integer dense kernel"
    );
    assert_eq!(
        counter("qcsr.spmm.i32_path") + counter("qcsr.spmm.i64_path"),
        1,
        "8192-nnz row must run the integer sparse kernel"
    );
}
