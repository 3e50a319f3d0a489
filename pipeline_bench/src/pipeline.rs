//! The workloads and one user's whole MixQ job, timed with tracing off.

use std::hint::black_box;
use std::time::Instant;

use mixq_core::{
    gcn_schema, search_gcn_bits, BitAssignment, QGcnNet, QuantKind, QuantizedGcn, SearchConfig,
};
use mixq_graph::{cora_like, reddit_like, NodeDataset};
use mixq_nn::{
    accuracy, eval_node, train_node, Binding, Fwd, GcnNet, NodeBundle, NodeNet, ParamSet,
    TrainConfig, TrainReport,
};
use mixq_sparse::{gcn_normalize, CsrMatrix};
use mixq_tensor::{Matrix, Rng, Tape};

use crate::report::{mean, median, percentile, samples_for_percentile, timed, Metrics, Ops};

/// Hidden width of every model: a 2-layer GCN of shape `[feat, 64, classes]`.
pub const HIDDEN: usize = 64;
/// Bit-width menu of the relaxed search.
pub const BIT_MENU: [u8; 3] = [2, 4, 8];
pub const DROPOUT: f32 = 0.5;
/// Floor on the argmax agreement of integer logits with the QAT fake-quant
/// forward of the same snapshot; below it the run is incorrect.
pub const AGREEMENT_FLOOR: f64 = 0.95;
/// The p95 latencies need this many samples above them.
pub const P95_TAIL: usize = 10;
/// Threads of every workload. On the 2-CPU host a 2-thread kernel waits at
/// each join for the slower virtual CPU, and those spells spread 2-thread
/// runs by up to 0.68 of their median; one thread keeps runs steady.
pub const THREADS: usize = 1;

/// One benchmark workload: a generated graph and the fixed amount of
/// training and search work one job does.
pub struct Workload {
    pub name: &'static str,
    pub graph: fn(u64) -> NodeDataset,
    /// Epochs of the FP32 and QAT trainings whose nets are served.
    pub serve_epochs: usize,
    /// Epochs of one timed FP32 or QAT training unit; short units give
    /// many samples.
    pub train_epochs: usize,
    /// Search epochs; the α steps start halfway (`warmup = epochs / 2`).
    pub search_epochs: usize,
}

pub const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "cora-t1",
        graph: cora_like,
        serve_epochs: 40,
        train_epochs: 10,
        search_epochs: 10,
    },
    Workload {
        name: "reddit-t1",
        graph: reddit_like,
        serve_epochs: 16,
        train_epochs: 4,
        search_epochs: 4,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Run-size knobs; `smoke` shrinks every phase to a few seconds in total.
#[derive(Clone, Copy)]
pub struct Scale {
    pub seconds: f64,
    pub smoke: bool,
}

impl Scale {
    pub fn epochs(&self, full: usize) -> usize {
        if self.smoke {
            full.min(4)
        } else {
            full
        }
    }

    /// Repetitions of a fixed-size phase: at least `min` (1 in smoke
    /// mode), more while the phase's share of `--seconds` lasts.
    pub fn min_reps(&self, min: usize) -> usize {
        if self.smoke {
            1
        } else {
            min
        }
    }

    /// Samples for a p50/p95 pair with [`P95_TAIL`] samples above the p95.
    pub fn min_latency_samples(&self) -> usize {
        if self.smoke {
            20
        } else {
            samples_for_percentile(0.95, P95_TAIL)
        }
    }
}

/// The generated inputs of one job and the adjacency the integer engine
/// binds to.
pub struct Job {
    pub ds: NodeDataset,
    pub bundle: NodeBundle,
    pub adj: CsrMatrix,
    pub dims: Vec<usize>,
    pub seed: u64,
}

impl Job {
    pub fn build(w: &Workload, seed: u64) -> Job {
        Job::from_dataset((w.graph)(seed), seed)
    }

    /// Normalization: `NodeBundle::new` plus the GCN-normalized adjacency.
    pub fn from_dataset(ds: NodeDataset, seed: u64) -> Job {
        let bundle = NodeBundle::new(&ds);
        let adj = gcn_normalize(&ds.adj);
        let dims = vec![ds.feat_dim(), HIDDEN, ds.num_classes()];
        Job {
            ds,
            bundle,
            adj,
            dims,
            seed,
        }
    }

    /// Seed of model initialization and training, derived from the
    /// workload seed so that one seed fixes every input.
    pub fn model_seed(&self, salt: u64) -> u64 {
        self.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt
    }

    pub fn fp32_net(&self) -> (ParamSet, GcnNet) {
        let mut rng = Rng::seed_from_u64(self.model_seed(1));
        let mut ps = ParamSet::new();
        let net = GcnNet::new(&mut ps, &self.dims, DROPOUT, &mut rng);
        (ps, net)
    }

    /// Uniform INT8 QAT net with native (per-tensor) quantizers: the
    /// configuration the integer engine executes.
    pub fn qat8_net(&self) -> (ParamSet, QGcnNet) {
        let mut rng = Rng::seed_from_u64(self.model_seed(2));
        let mut ps = ParamSet::new();
        let net = QGcnNet::new(
            &mut ps,
            &self.dims,
            BitAssignment::uniform(gcn_schema(self.dims.len() - 1), 8),
            QuantKind::Native,
            &self.bundle.degrees,
            DROPOUT,
            &mut rng,
        )
        .expect("uniform assignment follows gcn_schema");
        (ps, net)
    }

    /// Fixed-work training: early stopping off.
    pub fn train_cfg(&self, epochs: usize) -> TrainConfig {
        TrainConfig {
            epochs,
            lr: 0.01,
            weight_decay: 5e-4,
            seed: self.model_seed(3),
            patience: 0,
            ..TrainConfig::default()
        }
    }

    pub fn search_cfg(&self, epochs: usize) -> SearchConfig {
        SearchConfig {
            epochs,
            lr: 0.01,
            lambda: 0.1,
            seed: self.model_seed(4),
            warmup: epochs / 2,
            ..SearchConfig::default()
        }
    }

    pub fn search(&self, epochs: usize) -> BitAssignment {
        search_gcn_bits(
            &self.ds,
            &self.bundle,
            &self.dims,
            &BIT_MENU,
            DROPOUT,
            &self.search_cfg(epochs),
        )
    }
}

/// A training phase passes unless it diverged, needed a rollback, or ended
/// on a non-finite loss.
pub fn train_ok(rep: &TrainReport) -> bool {
    !rep.diverged && rep.recovered_divergences == 0 && rep.final_train_loss.is_finite()
}

/// A search phase passes when it returns one menu bit-width per schema
/// component (`search_gcn_bits` reports no loss; its rollback counters are
/// read in the traced run).
pub fn search_ok(a: &BitAssignment, dims: &[usize]) -> bool {
    a.names == gcn_schema(dims.len() - 1) && a.bits.iter().all(|b| BIT_MENU.contains(b))
}

/// Logits of a node net's eval-mode forward pass.
pub fn forward_logits<M: NodeNet>(net: &mut M, ps: &ParamSet, bundle: &NodeBundle) -> Matrix {
    let mut tape = Tape::new();
    let mut binding = Binding::new();
    let mut rng = Rng::seed_from_u64(0);
    let mut f = Fwd {
        tape: &mut tape,
        ps,
        binding: &mut binding,
        rng: &mut rng,
        training: false,
    };
    let x = f.tape.constant(bundle.features.clone());
    let logits = net.forward(&mut f, bundle, x);
    tape.value(logits).clone()
}

fn argmax_rows(m: &Matrix) -> Vec<usize> {
    (0..m.rows())
        .map(|r| {
            m.row_slice(r)
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .map_or(0, |(i, _)| i)
        })
        .collect()
}

/// Share of rows whose argmax agrees.
pub fn argmax_agreement(a: &Matrix, b: &Matrix) -> f64 {
    let (x, y) = (argmax_rows(a), argmax_rows(b));
    let same = x.iter().zip(&y).filter(|(p, q)| p == q).count();
    same as f64 / x.len().max(1) as f64
}

pub fn bit_identical(a: &Matrix, b: &Matrix) -> bool {
    a.shape() == b.shape()
        && a.data()
            .iter()
            .zip(b.data())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Trains a fresh net for `epochs` (early stopping off) and returns the
/// wall time per epoch with the trained net.
pub fn train_epoch_ms<M: NodeNet>(
    (mut ps, mut net): (ParamSet, M),
    job: &Job,
    epochs: usize,
    what: &str,
    ops: &mut Ops,
) -> (f64, (ParamSet, M)) {
    let cfg = job.train_cfg(epochs);
    let (rep, wall) = timed(|| train_node(&mut net, &mut ps, &job.ds, &job.bundle, &cfg));
    ops.phase(what, epochs as u64, train_ok(&rep));
    (wall / epochs as f64, (ps, net))
}

/// The phases of the untraced run, each a repeatable unit of work. Units
/// of all phases interleave over the whole run, so that a slow spell of the
/// host lands on every phase alike instead of on whichever ran then.
#[derive(Clone, Copy)]
enum Phase {
    Setup,
    Fp32,
    Qat8,
    Search,
    Prepare,
    Infer,
}

/// Each phase's share of `--seconds`.
const SHARES: [(Phase, f64); 6] = [
    (Phase::Setup, 0.05),
    (Phase::Fp32, 0.15),
    (Phase::Qat8, 0.15),
    (Phase::Search, 0.2),
    (Phase::Prepare, 0.03),
    (Phase::Infer, 0.42),
];

/// `infer` + `eval_node` pairs in one unit of [`Phase::Infer`].
const INFER_BATCH: usize = 10;

/// Runs one whole job with telemetry off and returns the end-to-end
/// metrics.
pub fn run_untraced(w: &Workload, seed: u64, scale: Scale, ops: &mut Ops) -> Metrics {
    let start = Instant::now();
    let setup = || {
        let t = Instant::now();
        let job = Job::build(w, seed);
        drop((job.fp32_net(), job.qat8_net()));
        (job, t.elapsed().as_secs_f64())
    };
    let (job, first_setup) = setup();
    let mut setup_s = vec![first_setup];

    // The first training units give the nets that inference runs on.
    let train_epochs = scale.epochs(w.train_epochs);
    let search_epochs = scale.epochs(w.search_epochs);
    let serve_epochs = scale.epochs(w.serve_epochs);
    let (_, (fp32_ps, fp32_net)) =
        train_epoch_ms(job.fp32_net(), &job, serve_epochs, "fp32 training", ops);
    let (_, (qat_ps, mut qat_net)) =
        train_epoch_ms(job.qat8_net(), &job, serve_epochs, "int8 QAT training", ops);
    let (mut fp32_ms, mut qat_ms) = (Vec::new(), Vec::new());
    let snapshot = qat_net
        .snapshot(&qat_ps)
        .expect("native quantizers export a snapshot");
    let (engine, t) = timed(|| QuantizedGcn::prepare(&snapshot, &job.adj));
    let mut prepare_ms = vec![t];

    // Accuracy of the integer engine and its agreement with the fake-quant
    // forward of the same snapshot.
    let mut serve = ClosedLoop::new(&job, &engine, (fp32_ps, fp32_net), ops);
    let fq_logits = forward_logits(&mut qat_net, &qat_ps, &job.bundle);
    let agreement = argmax_agreement(&serve.reference, &fq_logits);
    ops.check(
        &format!("int_fq_agreement {agreement:.4} >= floor {AGREEMENT_FLOOR}"),
        agreement >= AGREEMENT_FLOOR,
    );
    let int_acc = accuracy(&serve.reference, job.ds.labels(), &job.ds.test_idx);

    let mut search_ms = Vec::new();
    let mut spent = [0f64; SHARES.len()];
    loop {
        let count = |p: Phase| match p {
            Phase::Setup => (setup_s.len(), scale.min_reps(5)),
            Phase::Fp32 => (fp32_ms.len(), scale.min_reps(3)),
            Phase::Qat8 => (qat_ms.len(), scale.min_reps(3)),
            Phase::Search => (search_ms.len(), scale.min_reps(3)),
            Phase::Prepare => (prepare_ms.len(), scale.min_reps(7)),
            Phase::Infer => (serve.int_ms.len(), scale.min_latency_samples()),
        };
        // Phases short of their minimum go first; after that the phase
        // furthest behind its share, until the budget is spent.
        let behind = (0..SHARES.len()).find(|&i| {
            let (have, min) = count(SHARES[i].0);
            have < min
        });
        let next = match behind {
            Some(i) => i,
            None if start.elapsed().as_secs_f64() >= scale.seconds => break,
            None => (0..SHARES.len())
                .min_by(|&a, &b| (spent[a] / SHARES[a].1).total_cmp(&(spent[b] / SHARES[b].1)))
                .expect("phases"),
        };
        let t = Instant::now();
        match SHARES[next].0 {
            Phase::Setup => setup_s.push(setup().1),
            Phase::Fp32 => fp32_ms
                .push(train_epoch_ms(job.fp32_net(), &job, train_epochs, "fp32 training", ops).0),
            Phase::Qat8 => qat_ms.push(
                train_epoch_ms(job.qat8_net(), &job, train_epochs, "int8 QAT training", ops).0,
            ),
            Phase::Search => {
                // The α steps start halfway, so both kinds of step are timed.
                let (a, wall) = timed(|| job.search(search_epochs));
                ops.phase(
                    "bit-width search",
                    search_epochs as u64,
                    search_ok(&a, &job.dims),
                );
                search_ms.push(wall / search_epochs as f64);
            }
            Phase::Prepare => {
                let (e, t) = timed(|| QuantizedGcn::prepare(&snapshot, &job.adj));
                black_box(e);
                prepare_ms.push(t);
            }
            Phase::Infer => serve.run(INFER_BATCH, ops),
        }
        spent[next] += t.elapsed().as_secs_f64();
    }

    let mut m = Metrics::default();
    m.put("setup_s", median(&setup_s), "s");
    m.put("prepare_ms", median(&prepare_ms), "ms");
    m.put("fp32_train_epoch_ms", median(&fp32_ms), "ms");
    m.put("qat8_train_epoch_ms", median(&qat_ms), "ms");
    m.put("search_epoch_ms", median(&search_ms), "ms");
    m.put("int_infer_ms_p50", median(&serve.int_ms), "ms");
    m.put("fp32_infer_ms_p50", median(&serve.fp32_ms), "ms");
    m.put("peak_rss_mb", peak_rss_mib(), "MiB");
    m.put("int_test_acc", int_acc, "fraction");
    m.put("int_fq_agreement", agreement, "fraction");
    println!(
        "samples: setup {} | fp32 train {} | qat8 train {} | search {} | prepare {}",
        setup_s.len(),
        fp32_ms.len(),
        qat_ms.len(),
        search_ms.len(),
        prepare_ms.len(),
    );
    serve.print_latency();
    m
}

/// The closed loop of one caller: integer inference and the FP32 forward
/// back to back. The first integer logits are the reference every later
/// call must reproduce bit for bit.
pub struct ClosedLoop<'a> {
    job: &'a Job,
    engine: &'a QuantizedGcn,
    pub reference: Matrix,
    fp32: (ParamSet, GcnNet),
    fp32_ref: f64,
    rng: Rng,
    pub int_ms: Vec<f64>,
    pub fp32_ms: Vec<f64>,
}

impl<'a> ClosedLoop<'a> {
    pub fn new(
        job: &'a Job,
        engine: &'a QuantizedGcn,
        (fp32_ps, mut fp32_net): (ParamSet, GcnNet),
        ops: &mut Ops,
    ) -> Self {
        let reference = engine.infer(&job.bundle.features);
        ops.phase("infer (reference call)", 1, !reference.has_non_finite());
        let mut rng = Rng::seed_from_u64(job.model_seed(5));
        let fp32_ref = eval_node(
            &mut fp32_net,
            &fp32_ps,
            &job.ds,
            &job.bundle,
            &job.ds.test_idx,
            &mut rng,
        );
        ops.phase("eval_node (reference call)", 1, fp32_ref.is_finite());
        ClosedLoop {
            job,
            engine,
            reference,
            fp32: (fp32_ps, fp32_net),
            fp32_ref,
            rng,
            int_ms: Vec::new(),
            fp32_ms: Vec::new(),
        }
    }

    /// Runs `pairs` back-to-back `infer` + `eval_node` pairs.
    pub fn run(&mut self, pairs: usize, ops: &mut Ops) {
        let job = self.job;
        let (ps, net) = &mut self.fp32;
        for _ in 0..pairs {
            let (logits, t) = timed(|| self.engine.infer(&job.bundle.features));
            self.int_ms.push(t);
            let ok = bit_identical(&logits, &self.reference) && !logits.has_non_finite();
            ops.phase("infer", 1, ok);
            let (acc, t) = timed(|| {
                let idx = &job.ds.test_idx;
                eval_node(net, ps, &job.ds, &job.bundle, idx, &mut self.rng)
            });
            self.fp32_ms.push(t);
            ops.phase("eval_node", 1, acc.is_finite() && acc == self.fp32_ref);
        }
    }

    /// Per-call p50 and p95 with their sample count.
    pub fn print_latency(&self) {
        for (what, v) in [("infer", &self.int_ms), ("eval_node", &self.fp32_ms)] {
            println!(
                "latency {what}: p50 {:.4} ms, p95 {:.4} ms, mean {:.4} ms over {} calls",
                median(v),
                percentile(v, 0.95),
                mean(v),
                v.len()
            );
        }
    }
}

/// Peak resident set size of this process (`VmHWM`) in MiB, or NaN where
/// `/proc` is unavailable.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
