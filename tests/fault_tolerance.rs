//! Fault-injection integration tests: deterministic faults from
//! `mixq-faultinject` driven through the real training loops, checkpoint
//! writer and parallel runtime.
//!
//! The fault spec and the thread-pool settings are process-global, so every
//! test serializes on one mutex and clears the spec on exit (also on
//! panic, via the guard's `Drop`).

use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard};

use mixq::core::{gcn_schema, search_gcn_bits, BitAssignment, QGcnNet, QuantKind, SearchConfig};
use mixq::faultinject;
use mixq::graph::{citation_like, imdb_b_like, stratified_kfold, CitationConfig, NodeDataset};
use mixq::nn::{
    load_params, params_to_string, save_params, train_graph, train_node, CheckpointConfig,
    GcnGraphNet, GcnNet, GraphBundle, NodeBundle, ParamSet, TrainConfig,
};
use mixq::tensor::{Matrix, Rng};

static GLOBAL: Mutex<()> = Mutex::new(());

/// Serializes the test on the global fault/thread state and guarantees the
/// spec is cleared again even if the test panics.
struct FaultGuard(#[allow(dead_code)] MutexGuard<'static, ()>);

impl FaultGuard {
    /// Locks the global fault state with no spec installed.
    fn clean() -> Self {
        let g = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
        faultinject::clear();
        FaultGuard(g)
    }

    fn with_spec(spec: &str) -> Self {
        let me = Self::clean();
        faultinject::set_spec(spec).expect("test fault spec parses");
        me
    }
}

impl Drop for FaultGuard {
    fn drop(&mut self) {
        faultinject::clear();
    }
}

fn tiny_dataset(seed: u64) -> NodeDataset {
    citation_like(
        &CitationConfig {
            name: "tiny-ft",
            nodes: 300,
            feat_dim: 32,
            classes: 3,
            avg_degree: 5.0,
            homophily: 0.85,
            degree_alpha: 2.0,
            topic_size: 8,
            p_topic: 0.5,
            p_noise: 0.02,
            train_per_class: 20,
            val_size: 60,
            test_size: 120,
        },
        seed,
    )
}

fn train_tiny(cfg: &TrainConfig) -> (mixq::nn::TrainReport, String) {
    let ds = tiny_dataset(5);
    let bundle = NodeBundle::new(&ds);
    let dims = [ds.feat_dim(), 12, ds.num_classes()];
    let mut rng = Rng::seed_from_u64(5);
    let mut ps = ParamSet::new();
    let mut net = GcnNet::new(&mut ps, &dims, 0.5, &mut rng);
    let rep = train_node(&mut net, &mut ps, &ds, &bundle, cfg);
    (rep, params_to_string(&ps))
}

/// [`train_tiny`] with a uniform 4-bit native QAT GCN, whose EMA range
/// observers live in the net rather than in the `ParamSet`.
fn train_tiny_q4(cfg: &TrainConfig) -> (mixq::nn::TrainReport, String) {
    let ds = tiny_dataset(5);
    let bundle = NodeBundle::new(&ds);
    let dims = [ds.feat_dim(), 12, ds.num_classes()];
    let mut rng = Rng::seed_from_u64(5);
    let mut ps = ParamSet::new();
    let a = BitAssignment::uniform(gcn_schema(dims.len() - 1), 4);
    let mut net = QGcnNet::new(
        &mut ps,
        &dims,
        a,
        QuantKind::Native,
        &bundle.degrees,
        0.5,
        &mut rng,
    )
    .expect("uniform assignment follows gcn_schema");
    let rep = train_node(&mut net, &mut ps, &ds, &bundle, cfg);
    (rep, params_to_string(&ps))
}

fn quick_cfg() -> TrainConfig {
    TrainConfig::builder()
        .epochs(6)
        .lr(0.01)
        .seed(5)
        .patience(0)
        .build()
        .expect("valid config")
}

/// The training loops that share one epoch driver, as test inputs.
#[derive(Debug, Clone, Copy)]
enum Loop {
    Node,
    Graph,
    Search,
}

const LOOPS: [Loop; 3] = [Loop::Node, Loop::Graph, Loop::Search];

/// Runs a tiny seeded job of `lp` for `epochs` epochs (resuming from
/// `resume` if given) with its final state checkpointed to `out`. Returns
/// the divergences it recovered and a fingerprint of everything else it
/// produced: the loop's own output plus that final train-state checkpoint
/// (parameters, Adam moments, RNG state, epoch, learning rate), less its
/// recovered-divergence count.
fn run_loop(lp: Loop, epochs: usize, out: &Path, resume: Option<&Path>) -> (u64, String) {
    let checkpoint = Some(CheckpointConfig {
        path: out.to_path_buf(),
        every: epochs,
    });
    let resume_from = resume.map(Path::to_path_buf);
    let cfg = TrainConfig {
        epochs,
        checkpoint: checkpoint.clone(),
        resume_from: resume_from.clone(),
        ..quick_cfg()
    };
    let before = faultinject::recovered_count();
    let output = match lp {
        Loop::Node => {
            let (rep, params) = train_tiny(&cfg);
            let metrics = [rep.best_val, rep.test_metric, rep.final_train_loss];
            format!("{params}{metrics:?} {}", rep.best_epoch)
        }
        Loop::Graph => {
            let ds = imdb_b_like(5, 16);
            let mut rng = Rng::seed_from_u64(5);
            let folds = stratified_kfold(&mut rng, &ds.labels, ds.num_classes, 4);
            let train = GraphBundle::from_graphs(&ds, &folds[0].0);
            let test = GraphBundle::from_graphs(&ds, &folds[0].1);
            let mut ps = ParamSet::new();
            let mut net = GcnGraphNet::new(&mut ps, ds.feat_dim(), 8, ds.num_classes, 2, &mut rng);
            let rep = train_graph(&mut net, &mut ps, &train, &test, &cfg);
            let metrics = [rep.train_acc, rep.test_acc, rep.final_train_loss];
            format!("{}{metrics:?}", params_to_string(&ps))
        }
        Loop::Search => {
            let ds = tiny_dataset(5);
            let bundle = NodeBundle::new(&ds);
            let dims = [ds.feat_dim(), 8, ds.num_classes()];
            let scfg = SearchConfig {
                epochs,
                lr: 0.05,
                lambda: 0.3,
                seed: 5,
                warmup: 1,
                checkpoint,
                resume_from,
                ..SearchConfig::default()
            };
            search_gcn_bits(&ds, &bundle, &dims, &[2, 4, 8], 0.5, &scfg).to_text()
        }
    };
    let state: String = std::fs::read_to_string(out)
        .expect("final state checkpointed")
        .lines()
        .filter(|l| !l.starts_with("recovered "))
        .map(|l| format!("{l}\n"))
        .collect();
    (faultinject::recovered_count() - before, output + &state)
}

fn tmp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("mixq_ft_{tag}_{}.ckpt", std::process::id()))
}

#[test]
fn torn_checkpoint_write_leaves_previous_file_intact() {
    let _guard = FaultGuard::with_spec("ckpt_torn@1");
    let dir = std::env::temp_dir();
    let path = dir.join(format!("mixq_ft_torn_{}.params", std::process::id()));

    let mut ps = ParamSet::new();
    ps.add(Matrix::from_vec(2, 2, vec![1.0, -2.5, 0.25, 4.0]));
    // The torn rule only arms once the gate is resolved; the first save must
    // fail (half the bytes written to the temp file, no rename)…
    let err = save_params(&ps, &path);
    assert!(err.is_err(), "injected torn write must surface as an error");
    assert!(!path.exists(), "torn write must not produce the final file");

    // …and with the rule consumed, the atomic path works and survives a
    // later torn attempt: the original stays readable.
    save_params(&ps, &path).expect("clean save succeeds");
    let before = params_to_string(&load_params(&path).expect("readable"));
    faultinject::set_spec("ckpt_torn@1").expect("respec");
    assert!(save_params(&ps, &path).is_err());
    let after = params_to_string(&load_params(&path).expect("still readable"));
    assert_eq!(before, after, "failed overwrite must not corrupt the file");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn nan_gradient_recovery_is_bit_identical_to_clean_run() {
    let cfg = quick_cfg();
    let _guard = FaultGuard::with_spec("grad_nan@epoch=2");
    let (rep_f, params_f) = train_tiny(&cfg);
    assert_eq!(rep_f.recovered_divergences, 1, "one rollback expected");
    assert!(!rep_f.diverged);
    assert!(rep_f.final_train_loss.is_finite());

    faultinject::clear();
    let (rep_c, params_c) = train_tiny(&cfg);
    assert_eq!(rep_c.recovered_divergences, 0);
    assert_eq!(
        params_f, params_c,
        "rollback + unchanged retry must be bit-identical"
    );
    assert_eq!(rep_f.test_metric, rep_c.test_metric);

    // The same drill through every loop on the shared epoch driver.
    for lp in LOOPS {
        let out = tmp_path(&format!("nan_{lp:?}"));
        faultinject::set_spec("grad_nan@epoch=2").expect("spec parses");
        let (recovered, faulted) = run_loop(lp, 6, &out, None);
        faultinject::clear();
        let (_, clean) = run_loop(lp, 6, &out, None);
        assert_eq!(recovered, 1, "{lp:?}: one rollback expected");
        assert_eq!(
            faulted, clean,
            "{lp:?}: rollback + retry must be bit-identical"
        );
        let _ = std::fs::remove_file(&out);
    }

    // A quantized net's retry must also start from the epoch-start range
    // observers, not from those the failed attempt updated.
    faultinject::set_spec("grad_nan@epoch=2").expect("spec parses");
    let (rep_f, params_f) = train_tiny_q4(&cfg);
    faultinject::clear();
    let (rep_c, params_c) = train_tiny_q4(&cfg);
    assert_eq!(rep_f.recovered_divergences, 1, "QGcnNet: one rollback");
    assert_eq!(
        params_f, params_c,
        "QGcnNet: rollback + retry must be bit-identical"
    );
    assert_eq!(rep_f.test_metric, rep_c.test_metric);
}

#[test]
fn exhausted_retries_reports_divergence_with_finite_params() {
    // Inject a NaN gradient at every remaining epoch probe: epoch 2 diverges
    // on each of its retries, so recovery is exhausted and the report says
    // so — with parameters still finite (restored from the snapshot).
    let _guard = FaultGuard::with_spec(
        "grad_nan@epoch=2,grad_nan@epoch=2,grad_nan@epoch=2,grad_nan@epoch=2,grad_nan@epoch=2",
    );
    let cfg = TrainConfig {
        max_retries: 3,
        ..quick_cfg()
    };
    let (rep, params) = train_tiny(&cfg);
    assert!(rep.diverged, "retries exhausted ⇒ diverged");
    assert_eq!(rep.recovered_divergences, 3);
    assert!(rep.test_metric.is_finite());
    assert!(
        !params.contains("NaN") && !params.contains("inf"),
        "surfaced parameters must be the last finite ones"
    );
}

#[test]
fn worker_panic_is_contained_and_bit_identical() {
    let _guard = FaultGuard::with_spec("worker_panic@2");
    let saved = (
        mixq::parallel::num_threads(),
        mixq::parallel::parallel_row_threshold(),
    );
    mixq::parallel::set_num_threads(4);
    mixq::parallel::set_parallel_row_threshold(2);
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));

    let mut rng = Rng::seed_from_u64(9);
    let a = Matrix::from_fn(64, 24, |_, _| rng.normal());
    let b = Matrix::from_fn(24, 16, |_, _| rng.normal());
    let faulted = a.matmul(&b);
    let clean = a.matmul(&b); // rule consumed: second product is fault-free

    std::panic::set_hook(hook);
    mixq::parallel::set_num_threads(saved.0);
    mixq::parallel::set_parallel_row_threshold(saved.1);

    assert_eq!(
        faulted.data(),
        clean.data(),
        "serial retry of the panicked chunk must reproduce the exact result"
    );
}

#[test]
fn checkpoint_resume_is_bit_identical_to_straight_run() {
    let _guard = FaultGuard::clean();
    let dir = std::env::temp_dir();
    let ckpt = dir.join(format!("mixq_ft_resume_{}.ckpt", std::process::id()));
    let _ = std::fs::remove_file(&ckpt);

    // Straight run: 6 epochs in one go.
    let (rep_straight, params_straight) = train_tiny(&quick_cfg());

    // Interrupted run: 3 epochs with a checkpoint at epoch 3, then a second
    // process-restart-style run resuming from it for the remaining epochs.
    let first = TrainConfig {
        epochs: 3,
        checkpoint: Some(mixq::nn::CheckpointConfig {
            path: ckpt.clone(),
            every: 3,
        }),
        ..quick_cfg()
    };
    let _ = train_tiny(&first);
    assert!(ckpt.exists(), "checkpoint must be written at epoch 3");
    let second = TrainConfig {
        resume_from: Some(ckpt.clone()),
        ..quick_cfg()
    };
    let (rep_resumed, params_resumed) = train_tiny(&second);

    assert_eq!(
        params_straight, params_resumed,
        "resume must continue the exact parameter/optimizer/rng trajectory"
    );
    assert_eq!(rep_straight.test_metric, rep_resumed.test_metric);
    assert_eq!(rep_straight.final_train_loss, rep_resumed.final_train_loss);
    let _ = std::fs::remove_file(&ckpt);

    // The same interruption through every loop on the shared epoch driver.
    for lp in LOOPS {
        let (mid, end) = (
            tmp_path(&format!("mid_{lp:?}")),
            tmp_path(&format!("end_{lp:?}")),
        );
        let (_, straight) = run_loop(lp, 6, &end, None);
        run_loop(lp, 3, &mid, None);
        let (_, resumed) = run_loop(lp, 6, &end, Some(&mid));
        if let Loop::Search = lp {
            // A checkpoint holds no range-observer state, and the relaxed
            // net's observers restart on resume. The optimizer step count,
            // the RNG stream and the epoch continue exactly; the parameter
            // values drift from the straight run's.
            let trajectory = |fp: &str| -> Vec<String> {
                fp.lines()
                    .skip_while(|l| !l.starts_with("mixq-train-state"))
                    .take_while(|l| !l.starts_with("params"))
                    .map(str::to_string)
                    .collect()
            };
            assert_eq!(trajectory(&straight), trajectory(&resumed), "Search");
            assert!(trajectory(&resumed).iter().any(|l| l == "epoch 6"));
        } else {
            assert_eq!(straight, resumed, "{lp:?}: resume must be bit-identical");
        }
        let _ = std::fs::remove_file(&mid);
        let _ = std::fs::remove_file(&end);
    }
}
