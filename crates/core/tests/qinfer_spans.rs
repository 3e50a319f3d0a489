//! The integer engines' phase spans: with telemetry on, `infer` records
//! `quantize`, `matmul`, `aggregate` (once per layer) and `dequantize`
//! under `qinfer_gcn/infer` and `qinfer_sage/infer`, on byte layers and on
//! `i32` layers alike; with it off, nothing.
//!
//! Its own test binary: the telemetry gate and registry are process-wide.

use mixq_core::{
    GcnLayerSnapshot, GcnSnapshot, QuantizedGcn, QuantizedSage, SageLayerSnapshot, SageSnapshot,
};
use mixq_sparse::{CooEntry, CsrMatrix};
use mixq_tensor::{Matrix, QuantParams, Rng};

const PHASES: [&str; 4] = ["quantize", "matmul", "aggregate", "dequantize"];

fn qp(range: f32, bits: u8) -> QuantParams {
    QuantParams::from_min_max(-range, range, bits)
}

fn matrix(rng: &mut Rng, r: usize, c: usize) -> Matrix {
    Matrix::from_fn(r, c, |_, _| rng.uniform_in(-1.0, 1.0))
}

/// A ring of `n` nodes with self-loops, weights 1/3.
fn ring(n: usize) -> CsrMatrix {
    let entries = (0..n)
        .flat_map(|r| [r + n - 1, r, r + 1].map(|c| (r, c % n)))
        .map(|(row, col)| CooEntry {
            row,
            col,
            val: 1.0 / 3.0,
        })
        .collect();
    CsrMatrix::from_coo(n, n, entries)
}

fn code_bits(m: &Matrix) -> Vec<u32> {
    m.data().iter().map(|v| v.to_bits()).collect()
}

/// `(path, count)` of every span recorded under `root`.
fn spans_under(root: &str) -> Vec<(String, u64)> {
    mixq_telemetry::snapshot()
        .spans
        .into_iter()
        .filter(|(k, _)| k.starts_with(root))
        .map(|(k, s)| (k, s.count))
        .collect()
}

fn expected(root: &str, layers: u64) -> Vec<(String, u64)> {
    let mut want: Vec<(String, u64)> = PHASES
        .iter()
        .map(|p| {
            let n = if matches!(*p, "matmul" | "aggregate") {
                layers
            } else {
                1
            };
            (format!("{root}/{p}"), n)
        })
        .chain([(root.to_string(), 1)])
        .collect();
    want.sort();
    want
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

fn byte_layers() -> u64 {
    mixq_telemetry::snapshot()
        .counters
        .iter()
        .find(|(k, _)| k == "qinfer.byte_layers")
        .map_or(0, |&(_, v)| v)
}

/// Both engines over two layers whose activations are `bits[i]` wide: a
/// layer of 8-bit activations runs on bytes where the host has AVX-512 VNNI
/// and BW, a 16-bit one on `i32` codes. Per `infer`, every span is
/// recorded as often as uniform nets record it, and `qinfer.byte_layers`
/// counts the 8-bit layers on such hosts.
#[test]
fn engines_record_one_span_per_phase() {
    for bits in [[8u8, 8], [8, 16]] {
        let on_bytes = bits.iter().filter(|&&b| b == 8).count() as u64;
        spans_of_one_infer(bits, if vnni_host() { on_bytes } else { 0 });
    }
}

fn spans_of_one_infer(bits: [u8; 2], byte_layers_per_engine: u64) {
    let mut rng = Rng::seed_from_u64(3);
    let (n, dims) = (12usize, [5usize, 8, 3]);
    let adj = ring(n);
    let x = matrix(&mut rng, n, dims[0]);
    let gcn = QuantizedGcn::prepare(
        &GcnSnapshot {
            input_qp: qp(1.0, 8),
            layers: (0..2)
                .map(|i| GcnLayerSnapshot {
                    weight: matrix(&mut rng, dims[i], dims[i + 1]),
                    bias: Some(vec![0.1; dims[i + 1]]),
                    w_qp: qp(1.0, 8),
                    lin_qp: qp(4.0, bits[i]),
                    agg_qp: qp(4.0, bits[i]),
                    adj_bits: 8,
                })
                .collect(),
        },
        &adj,
    );
    let sage = QuantizedSage::prepare(
        &SageSnapshot {
            input_qp: qp(1.0, 8),
            layers: (0..2)
                .map(|i| SageLayerSnapshot {
                    w_root: matrix(&mut rng, dims[i], dims[i + 1]),
                    bias: None,
                    w_neigh: matrix(&mut rng, dims[i], dims[i + 1]),
                    w_root_qp: qp(1.0, 8),
                    w_neigh_qp: qp(1.0, 8),
                    agg_qp: qp(1.0, bits[i]),
                    out_qp: qp(4.0, bits[i]),
                    adj_bits: 8,
                })
                .collect(),
        },
        &adj,
    );

    mixq_telemetry::set_enabled(false);
    mixq_telemetry::reset();
    let off = (gcn.infer(&x), sage.infer(&x));
    assert!(
        mixq_telemetry::snapshot().spans.is_empty(),
        "spans recorded with telemetry off"
    );

    mixq_telemetry::set_enabled(true);
    let gcn_on = gcn.infer(&x);
    assert_eq!(
        byte_layers(),
        byte_layers_per_engine,
        "GCN, widths {bits:?}"
    );
    let sage_on = sage.infer(&x);
    assert_eq!(
        byte_layers(),
        2 * byte_layers_per_engine,
        "SAGE, widths {bits:?}"
    );
    mixq_telemetry::set_enabled(false);
    assert_eq!(
        spans_under("qinfer_gcn/infer"),
        expected("qinfer_gcn/infer", 2),
        "widths {bits:?}"
    );
    assert_eq!(
        spans_under("qinfer_sage/infer"),
        expected("qinfer_sage/infer", 2),
        "widths {bits:?}"
    );
    assert_eq!(
        code_bits(&off.0),
        code_bits(&gcn_on),
        "GCN logits depend on telemetry"
    );
    assert_eq!(
        code_bits(&off.1),
        code_bits(&sage_on),
        "SAGE logits depend on telemetry"
    );
}
