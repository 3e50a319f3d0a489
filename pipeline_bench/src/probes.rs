//! The traced run: each layer's public functions timed from outside on the
//! shapes the workload's model uses, plus the counters the program exports
//! through `mixq_telemetry::snapshot()`.
//!
//! Probes run with telemetry off, so their times compare with the
//! untraced run; the gate is switched on only around the phases whose
//! counters are read, and the cost of those phases against their untraced
//! twins is `telemetry.overhead_frac`.

use std::hint::black_box;
use std::time::Instant;

use mixq_core::{
    int_matmul_requant, quantize_csr_symmetric, quantized_spmm, GcnSnapshot, QTensor, QmpParams,
    QuantizedGcn, RelaxedGcnNet,
};
use mixq_nn::{eval_node, Adam, Binding, Fwd, NodeNet, ParamSet, TrainConfig};
use mixq_sparse::spmm_int;
use mixq_telemetry::Report;
use mixq_tensor::{pool, Matrix, QuantParams, Rng, Tape, Var};

use crate::pipeline::{
    bit_identical, search_ok, train_epoch_ms, ClosedLoop, Job, Scale, Workload, BIT_MENU, DROPOUT,
    HIDDEN,
};
use crate::report::{median, percentile, timed, Metrics, Ops};

/// Attribution bar: a residual above this share of its parent is flagged.
const UNATTRIBUTED_FLAG: f64 = 0.10;
/// Threads of the dispatch probe: the 2 CPUs of the benchmark host.
const DISPATCH_THREADS: usize = 2;

/// Per-phase samples in ms, keyed by metric name, in insertion order.
#[derive(Default)]
struct Phases(Vec<(String, Vec<f64>)>);

impl Phases {
    fn add(&mut self, name: &str, sample_ms: f64) {
        match self.0.iter_mut().find(|(n, _)| n == name) {
            Some((_, v)) => v.push(sample_ms),
            None => self.0.push((name.to_string(), vec![sample_ms])),
        }
    }

    fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let (out, t) = timed(f);
        self.add(name, t);
        out
    }

    fn median(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|(n, _)| n == name)
            .map_or(f64::NAN, |(_, v)| median(v))
    }

    /// Emits the median of every phase as `<prefix><name>`.
    fn put_all(&self, m: &mut Metrics, prefix: &str) {
        for (name, v) in &self.0 {
            m.put(format!("{prefix}{name}"), median(v), "ms");
        }
    }
}

/// Runs `f` with telemetry on; its counters add up until [`take_counters`].
fn traced<T>(f: impl FnOnce() -> T) -> T {
    mixq_telemetry::set_enabled(true);
    let out = f();
    mixq_telemetry::set_enabled(false);
    out
}

/// The counters recorded since the last call, which are then cleared.
fn take_counters() -> Report {
    let rep = mixq_telemetry::snapshot();
    mixq_telemetry::reset();
    rep
}

fn counter(rep: &Report, name: &str) -> f64 {
    rep.counters
        .iter()
        .find(|(k, _)| k == name)
        .map_or(0.0, |(_, v)| *v as f64)
}

/// Prints a residual next to its parent wall time, flagged above the bar.
fn attribution(m: &mut Metrics, name: &str, parent: &str, parent_ms: f64, attributed_ms: f64) {
    let frac = 1.0 - attributed_ms / parent_ms;
    let flag = if frac.abs() > UNATTRIBUTED_FLAG {
        "  FLAG: above the 10% attribution bar"
    } else {
        ""
    };
    println!("attribution: {name} = {frac:.4} of {parent} {parent_ms:.3} ms{flag}");
    m.put(name, frac, "fraction");
}

pub fn run_traced(w: &Workload, seed: u64, scale: Scale, ops: &mut Ops) -> Metrics {
    let mut m = Metrics::default();
    let reps = if scale.smoke { 3 } else { 21 };

    // ---- graph and sparse: the set-up layers ----
    let mut setup = Phases::default();
    let mut job = None;
    for _ in 0..scale.min_reps(5) {
        let ds = setup.time("graph.generate_ms", || (w.graph)(seed));
        job = Some(setup.time("sparse.normalize_ms", || Job::from_dataset(ds, seed)));
    }
    let job = job.expect("at least one set-up repetition");
    setup.put_all(&mut m, "");
    let features = &job.bundle.features;

    // ---- training: untraced runs are the parents of the epoch probes;
    // QAT runs alternate untraced and traced, for the overhead and the
    // counters ----
    let rounds = scale.min_reps(3);
    let train_epochs = scale.epochs(w.train_epochs);
    let serve_epochs = scale.epochs(w.serve_epochs);
    let (_, fp32_trained) =
        train_epoch_ms(job.fp32_net(), &job, serve_epochs, "fp32 training", ops);
    let (_, qat_trained) =
        train_epoch_ms(job.qat8_net(), &job, serve_epochs, "int8 QAT training", ops);
    let mut fp32_ms = Vec::new();
    for _ in 0..rounds {
        fp32_ms.push(train_epoch_ms(job.fp32_net(), &job, train_epochs, "fp32 training", ops).0);
    }
    mixq_telemetry::reset();
    let pool_before = pool::thread_stats();
    let (mut qat_ms, mut qat_traced_ms) = (Vec::new(), Vec::new());
    for _ in 0..rounds {
        qat_ms.push(train_epoch_ms(job.qat8_net(), &job, train_epochs, "int8 QAT training", ops).0);
        qat_traced_ms.push(
            traced(|| {
                let what = "int8 QAT training (traced)";
                train_epoch_ms(job.qat8_net(), &job, train_epochs, what, ops)
            })
            .0,
        );
    }
    let pool_after = pool::thread_stats();
    let counters = take_counters();
    let par_calls_per_epoch =
        counter(&counters, "parallel.par_calls") / (rounds * train_epochs) as f64;
    let hit_bytes = (pool_after.hit_bytes - pool_before.hit_bytes) as f64;
    let miss_bytes = (pool_after.miss_bytes - pool_before.miss_bytes) as f64;

    // ---- search: untraced runs are the parent of the step probes; one
    // traced run reads the rollback counters, the only report of
    // divergence it gives ----
    let search_epochs = scale.epochs(w.search_epochs);
    let mut search_ms = Vec::new();
    for _ in 0..rounds {
        let (a, wall) = timed(|| job.search(search_epochs));
        ops.phase(
            "bit-width search",
            search_epochs as u64,
            search_ok(&a, &job.dims),
        );
        search_ms.push(wall / search_epochs as f64);
    }
    let search_epoch_ms = median(&search_ms);
    let assignment = traced(|| job.search(search_epochs));
    let counters = take_counters();
    let rollbacks = counter(&counters, "search.divergence_rollbacks")
        + counter(&counters, "search.divergence_aborts");
    ops.phase(
        "bit-width search (traced)",
        search_epochs as u64,
        search_ok(&assignment, &job.dims) && rollbacks == 0.0,
    );

    // ---- prepare, traced for the fallback counter ----
    let (qat_ps, qat_net) = qat_trained;
    let snapshot = qat_net
        .snapshot(&qat_ps)
        .expect("native quantizers export a snapshot");
    let engine = traced(|| QuantizedGcn::prepare(&snapshot, &job.adj));
    let fallback_layers = counter(&take_counters(), "qinfer.fallback.layers");
    ops.check(
        &format!("qinfer.fallback.layers {fallback_layers} == 0"),
        fallback_layers == 0.0,
    );

    // ---- closed-loop latency percentiles, untraced ----
    let mut serve = ClosedLoop::new(&job, &engine, fp32_trained, ops);
    serve.run(scale.min_latency_samples(), ops);
    serve.print_latency();
    let reference = &serve.reference;

    // ---- integer inference: untraced and traced calls alternate ----
    let (mut infer_ms, mut infer_traced_ms) = (Vec::new(), Vec::new());
    for _ in 0..reps {
        for on in [false, true] {
            mixq_telemetry::set_enabled(on);
            let (logits, t) = timed(|| engine.infer(features));
            mixq_telemetry::set_enabled(false);
            let samples = if on {
                &mut infer_traced_ms
            } else {
                &mut infer_ms
            };
            samples.push(t);
            ops.phase(
                "infer",
                1,
                bit_identical(&logits, reference) && !logits.has_non_finite(),
            );
        }
    }
    let counters = take_counters();
    let per_call = |name: &str| counter(&counters, name) / reps as f64;
    let (busy, ideal) = (
        counter(&counters, "parallel.busy_ns"),
        counter(&counters, "parallel.ideal_ns"),
    );

    // ---- per-layer probes, telemetry off ----
    let qinfer = qinfer_probe(&job, &snapshot, &engine, reference, reps, ops);
    let (x64, spmm_f32) = spmm_f32_probe(&job, &qinfer.h0, reps);
    let nnz_x64 = job.adj.nnz() as f64 * HIDDEN as f64;
    let spmm_int_ms = qinfer.phases.median("qinfer.gcn.l0.spmm_ms");
    let tensor = tensor_probe(&job, &x64, reps);
    let dispatch_us = dispatch_probe(job.ds.num_nodes(), if scale.smoke { 11 } else { 201 });
    let epoch_reps = if scale.smoke { 2 } else { 9 };
    let (mut ps, mut net) = job.fp32_net();
    let fp32_epoch = epoch_probe(
        &mut net,
        &mut ps,
        &job,
        &job.train_cfg(train_epochs),
        epoch_reps,
    );
    let (mut ps, mut net) = job.qat8_net();
    let qat_epoch = epoch_probe(
        &mut net,
        &mut ps,
        &job,
        &job.train_cfg(train_epochs),
        epoch_reps,
    );
    let search = search_probe(&job, search_epochs, epoch_reps);

    // ---- emit ----
    m.put("int_infer_ms_p95", percentile(&serve.int_ms, 0.95), "ms");
    m.put("fp32_infer_ms_p95", percentile(&serve.fp32_ms, 0.95), "ms");
    m.put("sparse.spmm_f32_ms", spmm_f32, "ms");
    m.put("sparse.spmm_int_ms", spmm_int_ms, "ms");
    m.put(
        "sparse.spmm_int_gmacs_per_s",
        nnz_x64 / (spmm_int_ms * 1e6),
        "GMAC/s",
    );
    m.put(
        "sparse.spmm_f32_gmacs_per_s",
        nnz_x64 / (spmm_f32 * 1e6),
        "GMAC/s",
    );
    m.put(
        "sparse.i32_path_calls",
        per_call("qcsr.spmm.i32_path"),
        "count",
    );
    m.put(
        "sparse.i64_path_calls",
        per_call("qcsr.spmm.i64_path"),
        "count",
    );

    qinfer.phases.put_all(&mut m, "");
    m.put("qinfer.quantize_csr_ms", qinfer.quantize_csr_ms, "ms");
    let phase_sum: f64 = qinfer.phases.0.iter().map(|(_, v)| median(v)).sum();
    attribution(
        &mut m,
        "qinfer.unattributed_frac",
        "infer",
        qinfer.infer_ms,
        phase_sum,
    );
    m.put(
        "qinfer.requant_elems",
        per_call("qinfer.requant.elems"),
        "count",
    );
    m.put("qinfer.fallback_layers", fallback_layers, "count");

    m.put("parallel.dispatch_us", dispatch_us, "us");
    m.put(
        "parallel.par_calls_per_infer",
        per_call("parallel.par_calls"),
        "count",
    );
    m.put("parallel.par_calls_per_epoch", par_calls_per_epoch, "count");
    // With no parallel call the one caller thread did all the work.
    let utilization = if ideal > 0.0 { busy / ideal } else { 1.0 };
    m.put("parallel.utilization", utilization, "fraction");

    tensor.put_all(&mut m, "");
    m.put(
        "tensor.pool_hit_ratio",
        hit_bytes / (hit_bytes + miss_bytes).max(1.0),
        "fraction",
    );
    m.put("tensor.pool_miss_bytes", miss_bytes, "bytes");

    let (qat_epoch_ms, qat_epoch_traced_ms) = (median(&qat_ms), median(&qat_traced_ms));
    for (tag, phases, parent) in [
        ("fp32", &fp32_epoch, median(&fp32_ms)),
        ("qat8", &qat_epoch, qat_epoch_ms),
    ] {
        phases.put_all(&mut m, &format!("nn.{tag}."));
        let sum: f64 = phases.0.iter().map(|(_, v)| median(v)).sum();
        attribution(
            &mut m,
            &format!("nn.{tag}.unattributed_frac"),
            &format!("{tag} train epoch"),
            parent,
            sum,
        );
    }

    for name in [
        "theta_forward_ms",
        "theta_backward_ms",
        "alpha_forward_ms",
        "alpha_backward_ms",
    ] {
        m.put(format!("search.{name}"), search.median(name), "ms");
    }
    // Warm-up epochs take only the Θ step; the rest also take the α step.
    let alpha_share = (search_epochs - search_epochs / 2) as f64 / search_epochs as f64;
    let attributed = search.median("theta_forward_ms")
        + search.median("theta_backward_ms")
        + search.median("theta_optim_ms")
        + alpha_share
            * (search.median("alpha_forward_ms")
                + search.median("alpha_backward_ms")
                + search.median("alpha_optim_ms"));
    attribution(
        &mut m,
        "search.unattributed_frac",
        "search epoch",
        search_epoch_ms,
        attributed,
    );
    m.put(
        "search.optim_ms",
        search.median("theta_optim_ms") + search.median("alpha_optim_ms"),
        "ms",
    );
    m.put("search.avg_bits", assignment.simple_avg(), "bits");

    let (infer_ms, infer_traced_ms) = (median(&infer_ms), median(&infer_traced_ms));
    let infer_overhead = infer_traced_ms / infer_ms - 1.0;
    let train_overhead = qat_epoch_traced_ms / qat_epoch_ms - 1.0;
    println!(
        "telemetry overhead: infer {infer_overhead:.4} ({infer_ms:.3} -> {infer_traced_ms:.3} ms), \
         qat8 epoch {train_overhead:.4} ({qat_epoch_ms:.3} -> {qat_epoch_traced_ms:.3} ms)"
    );
    m.put(
        "telemetry.overhead_frac",
        (infer_overhead + train_overhead) / 2.0,
        "fraction",
    );
    m.put("error_rate", ops.error_rate(), "fraction");
    m
}

struct QinferProbe {
    phases: Phases,
    quantize_csr_ms: f64,
    infer_ms: f64,
    /// Layer 0's requantized linear output: the n×64 codes the integer
    /// SpMM aggregates.
    h0: QTensor,
}

/// Rebuilds `QuantizedGcn::infer` from the snapshot's public fields, times
/// each phase, and checks that the rebuilt pipeline reproduces the engine's
/// logits bit for bit. `correct` is `quantized_spmm` (with its `QmpParams`
/// build) minus `spmm_int` on the same inputs.
fn qinfer_probe(
    job: &Job,
    snap: &GcnSnapshot,
    engine: &QuantizedGcn,
    reference: &Matrix,
    reps: usize,
    ops: &mut Ops,
) -> QinferProbe {
    let mut csr_ms = Vec::new();
    let mut layers = Vec::new();
    for _ in 0..reps {
        let (qadjs, t) = timed(|| {
            snap.layers
                .iter()
                .map(|l| quantize_csr_symmetric(&job.adj, l.adj_bits))
                .collect::<Vec<_>>()
        });
        csr_ms.push(t);
        layers = qadjs;
    }
    let weights: Vec<QTensor> = snap
        .layers
        .iter()
        .map(|l| QTensor::quantize(&l.weight, l.w_qp))
        .collect();

    let features = &job.bundle.features;
    let last = snap.layers.len() - 1;
    let mut phases = Phases::default();
    let mut infer_ms = Vec::new();
    let mut h0 = None;
    let mut rebuilt_ok = true;
    for _ in 0..reps {
        let (out, t) = timed(|| engine.infer(features));
        black_box(out);
        infer_ms.push(t);

        let mut x = phases.time("qinfer.gcn.l0.quantize_ms", || {
            QTensor::quantize(features, snap.input_qp)
        });
        for (i, (l, (qadj, adj_scale))) in snap.layers.iter().zip(&layers).enumerate() {
            let h = phases.time(&format!("qinfer.gcn.l{i}.matmul_ms"), || {
                int_matmul_requant(&x, &weights[i], l.bias.as_deref(), l.lin_qp)
            });
            let (prod, spmm) = timed(|| spmm_int(qadj, &h.data, h.cols));
            black_box(prod);
            let (data, theorem1) = timed(|| {
                let p = QmpParams::per_tensor(
                    qadj.rows(),
                    h.cols,
                    *adj_scale,
                    0,
                    h.qp.scale,
                    h.qp.zero_point,
                    l.agg_qp.scale,
                    l.agg_qp.zero_point,
                    l.agg_qp.qmin,
                    l.agg_qp.qmax,
                );
                quantized_spmm(qadj, &h.data, h.cols, &p)
            });
            phases.add(&format!("qinfer.gcn.l{i}.spmm_ms"), spmm);
            phases.add(&format!("qinfer.gcn.l{i}.correct_ms"), theorem1 - spmm);
            let mut y = QTensor {
                rows: qadj.rows(),
                cols: h.cols,
                data,
                qp: l.agg_qp,
            };
            if i < last {
                phases.time(&format!("qinfer.gcn.l{i}.relu_ms"), || y.relu_inplace());
            }
            if i == 0 {
                h0 = Some(h);
            }
            x = y;
        }
        let out = phases.time("qinfer.gcn.dequantize_ms", || x.dequantize());
        rebuilt_ok &= bit_identical(&out, reference);
    }
    ops.check(
        "rebuilt integer pipeline reproduces QuantizedGcn::infer bit for bit",
        rebuilt_ok,
    );
    QinferProbe {
        phases,
        quantize_csr_ms: median(&csr_ms),
        infer_ms: median(&infer_ms),
        h0: h0.expect("at least one layer"),
    }
}

/// `CsrMatrix::spmm` at width 64 on the dequantized layer-0 activations;
/// returns those activations for the dense probes.
fn spmm_f32_probe(job: &Job, h0: &QTensor, reps: usize) -> (Matrix, f64) {
    let x = h0.dequantize();
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let (y, t) = timed(|| job.adj.spmm(x.data(), x.cols()));
            black_box(y);
            t
        })
        .collect();
    (x, median(&samples))
}

/// The layer-0 products of a training epoch — `X·W`, its two backward
/// products — and `Tape::fake_quant` on the n×64 activations.
fn tensor_probe(job: &Job, x64: &Matrix, reps: usize) -> Phases {
    let features = &job.bundle.features;
    let mut rng = Rng::seed_from_u64(11);
    let w = Matrix::from_fn(features.cols(), HIDDEN, |_, _| rng.uniform_in(-0.1, 0.1));
    let (lo, hi) = x64
        .data()
        .iter()
        .fold((0f32, 0f32), |(lo, hi), &v| (lo.min(v), hi.max(v)));
    let qp = QuantParams::from_min_max(lo, hi, 8);
    let mut p = Phases::default();
    for _ in 0..reps {
        p.time("tensor.matmul_ms", || features.matmul(&w)).recycle();
        p.time("tensor.matmul_at_b_ms", || features.matmul_at_b(x64))
            .recycle();
        p.time("tensor.matmul_a_bt_ms", || x64.matmul_a_bt(&w))
            .recycle();
        let mut tape = Tape::new();
        let v = tape.constant(x64.clone_pooled());
        p.time("tensor.fake_quant_ms", || tape.fake_quant(v, qp));
        tape.recycle();
    }
    p
}

/// Median µs of one `par_row_chunks_mut` call with an empty body over an
/// n-row, 64-wide buffer at [`DISPATCH_THREADS`]: the price of dispatching
/// to the worker threads. The workloads run at one thread, where the
/// runtime never dispatches, so the probe sets its own thread count.
fn dispatch_probe(rows: usize, calls: usize) -> f64 {
    let threads = mixq_parallel::num_threads();
    mixq_parallel::set_num_threads(DISPATCH_THREADS);
    let mut buf = vec![0f32; rows * HIDDEN];
    let samples: Vec<f64> = (0..calls)
        .map(|_| {
            let t = Instant::now();
            mixq_parallel::par_row_chunks_mut(&mut buf, rows, HIDDEN, |start, chunk| {
                black_box((start, chunk));
            });
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    mixq_parallel::set_num_threads(threads);
    median(&samples)
}

/// Cross-entropy over `idx` on an open tape.
fn task_loss(tape: &mut Tape, logits: Var, job: &Job, idx: &[usize]) -> Var {
    let labels = job.ds.labels();
    let targets: Vec<usize> = idx.iter().map(|&i| labels[i]).collect();
    let lp = tape.log_softmax(logits);
    tape.nll_masked(lp, idx, &targets)
}

/// One `train_node` epoch rebuilt from its public parts: the rollback and
/// best-parameter clones (`snapshot`), forward and loss, backward with
/// `pull_grads`, `Adam::step`, and the validation `eval_node`.
fn epoch_probe<M: NodeNet>(
    net: &mut M,
    ps: &mut ParamSet,
    job: &Job,
    cfg: &TrainConfig,
    reps: usize,
) -> Phases {
    let mut opt = Adam::new(cfg.lr).with_weight_decay(cfg.weight_decay);
    let mut rng = Rng::seed_from_u64(cfg.seed);
    let mut best_val = f64::NEG_INFINITY;
    let mut best = None;
    let mut p = Phases::default();
    for _ in 0..reps {
        let (snap, rollback_ms) = timed(|| (ps.clone(), opt.clone(), rng.clone()));
        let (mut tape, binding, loss) = p.time("forward_ms", || {
            ps.zero_grads();
            let mut tape = Tape::new();
            let mut binding = Binding::new();
            let mut f = Fwd {
                tape: &mut tape,
                ps,
                binding: &mut binding,
                rng: &mut rng,
                training: true,
            };
            let x = f.tape.constant(job.bundle.features.clone_pooled());
            let logits = net.forward(&mut f, &job.bundle, x);
            let loss = task_loss(&mut tape, logits, job, &job.ds.train_idx);
            (tape, binding, loss)
        });
        p.time("backward_ms", || {
            black_box(tape.value(loss).item());
            tape.backward(loss);
            ps.pull_grads(&binding, &tape);
            tape.recycle();
            black_box(ps.grads_finite());
        });
        p.time("optim_ms", || opt.step(ps));
        let val = p.time("eval_ms", || {
            eval_node(net, ps, &job.ds, &job.bundle, &job.ds.val_idx, &mut rng)
        });
        let (_, best_ms) = timed(|| {
            if val > best_val {
                best_val = val;
                best = Some(ps.clone());
            }
        });
        p.add("snapshot_ms", rollback_ms + best_ms);
        drop(snap);
    }
    black_box(best);
    p
}

/// One search epoch rebuilt from `RelaxedGcnNet::forward`: the Θ step on
/// the training loss and the α step on the validation loss plus the
/// size-normalized bit penalty.
fn search_probe(job: &Job, epochs: usize, reps: usize) -> Phases {
    let cfg = job.search_cfg(epochs);
    let mut ps = ParamSet::new();
    let mut rng = Rng::seed_from_u64(cfg.seed ^ 0xA1);
    let mut net = RelaxedGcnNet::new(&mut ps, &job.dims, &BIT_MENU, DROPOUT, &mut rng);
    let alpha_ids = net.alpha_ids();
    let mut opt = Adam::new(cfg.lr);
    let mut rng = Rng::seed_from_u64(cfg.seed);
    let mut p = Phases::default();
    for _ in 0..reps {
        for alpha in [false, true] {
            let step = if alpha { "alpha" } else { "theta" };
            let (mut tape, binding, loss) = p.time(&format!("{step}_forward_ms"), || {
                ps.zero_grads();
                let mut tape = Tape::new();
                let mut binding = Binding::new();
                let mut f = Fwd {
                    tape: &mut tape,
                    ps: &ps,
                    binding: &mut binding,
                    rng: &mut rng,
                    training: !alpha,
                };
                let x = f.tape.constant(job.bundle.features.clone());
                let (logits, pens) = net.forward(&mut f, &job.bundle, x);
                let idx = if alpha {
                    &job.ds.val_idx
                } else {
                    &job.ds.train_idx
                };
                let mut loss = task_loss(&mut tape, logits, job, idx);
                if alpha {
                    let elems: usize = pens.iter().map(|&(_, n)| n).sum();
                    let norm = 0.02 * cfg.lambda * (1024.0 * 8.0) / elems.max(1) as f32;
                    for (pen, _) in pens {
                        let scaled = tape.scale(pen, norm);
                        loss = tape.add(loss, scaled);
                    }
                }
                (tape, binding, loss)
            });
            p.time(&format!("{step}_backward_ms"), || {
                black_box(tape.value(loss).item());
                tape.backward(loss);
                ps.pull_grads(&binding, &tape);
                tape.recycle();
                for id in ps.all_ids() {
                    if alpha_ids.contains(&id) != alpha {
                        ps.grad_zero(id);
                    }
                }
            });
            p.time(&format!("{step}_optim_ms"), || opt.step(&mut ps));
        }
    }
    p
}
