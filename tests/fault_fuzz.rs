//! Generated fault specs through the recovery machinery: NaN-gradient
//! rollback at random epochs must be bit-identical to a clean run, a worker
//! panic at a random parallel chunk under a random thread count must retry
//! to the exact serial result.
//!
//! The fault spec, thread pool, and panic hook are process-global: every
//! test serializes on one mutex, and each generated case installs its spec
//! through a guard whose `Drop` clears it even when the property panics
//! (so shrink replays start clean).

use std::sync::{Mutex, MutexGuard};

use mixq::core::{search_gcn_bits, SearchConfig};
use mixq::faultinject;
use mixq::graph::{citation_like, imdb_b_like, stratified_kfold, CitationConfig, NodeDataset};
use mixq::nn::{
    params_to_string, train_graph, train_node, CheckpointConfig, GcnGraphNet, GcnNet, GraphBundle,
    NodeBundle, ParamSet, TrainConfig,
};
use mixq::tensor::{Matrix, Rng};
use mixq_proptest::{usize_in, Config};

static GLOBAL: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    GLOBAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// Installs a fault spec for one generated case; `Drop` clears it so a
/// failing (panicking) property never leaks its spec into the next case.
struct SpecGuard;

impl SpecGuard {
    fn install(spec: &str) -> Self {
        faultinject::clear();
        faultinject::set_spec(spec).expect("generated fault spec parses");
        SpecGuard
    }
}

impl Drop for SpecGuard {
    fn drop(&mut self) {
        faultinject::clear();
    }
}

fn tiny_dataset(seed: u64) -> NodeDataset {
    citation_like(
        &CitationConfig {
            name: "fault-fuzz",
            nodes: 150,
            feat_dim: 16,
            classes: 3,
            avg_degree: 4.0,
            homophily: 0.8,
            degree_alpha: 2.0,
            topic_size: 6,
            p_topic: 0.5,
            p_noise: 0.02,
            train_per_class: 10,
            val_size: 30,
            test_size: 45,
        },
        seed,
    )
}

fn tiny_train(seed: u64, cfg: &TrainConfig) -> (mixq::nn::TrainReport, String) {
    let ds = tiny_dataset(seed);
    let bundle = NodeBundle::new(&ds);
    let dims = [ds.feat_dim(), 8, ds.num_classes()];
    let mut rng = Rng::seed_from_u64(seed);
    let mut ps = ParamSet::new();
    let mut net = GcnNet::new(&mut ps, &dims, 0.5, &mut rng);
    let rep = train_node(&mut net, &mut ps, &ds, &bundle, cfg);
    (rep, params_to_string(&ps))
}

/// The other loops on the shared epoch driver, beside `train_node`.
#[derive(Debug, Clone, Copy)]
enum Loop {
    Graph,
    Search,
}

/// Runs a tiny seeded job of `lp` with its final state checkpointed and
/// returns that checkpoint (parameters, Adam moments, RNG state), less its
/// recovered-divergence count, plus the job's own output.
fn tiny_run(lp: Loop, seed: u64, cfg: &TrainConfig) -> String {
    let path = std::env::temp_dir().join(format!(
        "mixq_fault_fuzz_{lp:?}_{}.ckpt",
        std::process::id()
    ));
    let checkpoint = Some(CheckpointConfig {
        path: path.clone(),
        every: cfg.epochs,
    });
    let output = match lp {
        Loop::Graph => {
            let ds = imdb_b_like(seed, 12);
            let mut rng = Rng::seed_from_u64(seed);
            let folds = stratified_kfold(&mut rng, &ds.labels, ds.num_classes, 3);
            let train = GraphBundle::from_graphs(&ds, &folds[0].0);
            let test = GraphBundle::from_graphs(&ds, &folds[0].1);
            let mut ps = ParamSet::new();
            let mut net = GcnGraphNet::new(&mut ps, ds.feat_dim(), 8, ds.num_classes, 2, &mut rng);
            let cfg = TrainConfig {
                checkpoint,
                ..cfg.clone()
            };
            let rep = train_graph(&mut net, &mut ps, &train, &test, &cfg);
            format!(
                "{}{:?}",
                params_to_string(&ps),
                [rep.test_acc, rep.final_train_loss]
            )
        }
        Loop::Search => {
            let ds = tiny_dataset(seed);
            let bundle = NodeBundle::new(&ds);
            let dims = [ds.feat_dim(), 8, ds.num_classes()];
            let scfg = SearchConfig {
                epochs: cfg.epochs,
                lr: 0.05,
                lambda: 0.3,
                seed,
                warmup: 1,
                checkpoint,
                ..SearchConfig::default()
            };
            search_gcn_bits(&ds, &bundle, &dims, &[2, 4, 8], 0.5, &scfg).to_text()
        }
    };
    let state = std::fs::read_to_string(&path).expect("final state checkpointed");
    let _ = std::fs::remove_file(&path);
    let state: String = state
        .lines()
        .filter(|l| !l.starts_with("recovered "))
        .map(|l| format!("{l}\n"))
        .collect();
    output + &state
}

/// NaN gradient at a *generated* epoch: the rollback-and-retry path must
/// reconverge to the bit-identical parameters of a fault-free run, in
/// node training, graph training and the bit-width search alike.
#[test]
fn fuzz_nan_gradient_recovery_bit_identical_at_generated_epochs() {
    let _g = lock();
    let gen = usize_in(1, 3).zip(&usize_in(0, 1000));
    Config::new("fault_recovery")
        .cases(6)
        .run(&gen, |&(epoch, seed)| {
            let cfg = TrainConfig::builder()
                .epochs(4)
                .lr(0.01)
                .seed(seed as u64)
                .patience(0)
                .build()
                .expect("valid config");

            let spec = format!("grad_nan@epoch={epoch}");
            let (rep_f, params_f) = {
                let _s = SpecGuard::install(&spec);
                tiny_train(seed as u64, &cfg)
            };
            let (rep_c, params_c) = tiny_train(seed as u64, &cfg);

            assert_eq!(
                rep_f.recovered_divergences, 1,
                "epoch {epoch}: exactly one rollback expected"
            );
            assert!(!rep_f.diverged);
            assert_eq!(rep_c.recovered_divergences, 0);
            assert_eq!(
                params_f, params_c,
                "epoch {epoch}: rollback + retry must be bit-identical to clean run"
            );

            for lp in [Loop::Graph, Loop::Search] {
                let faulted = {
                    let _s = SpecGuard::install(&spec);
                    let fp = tiny_run(lp, seed as u64, &cfg);
                    assert_eq!(
                        faultinject::recovered_count(),
                        1,
                        "{lp:?} epoch {epoch}: exactly one rollback expected"
                    );
                    fp
                };
                let clean = tiny_run(lp, seed as u64, &cfg);
                assert_eq!(
                    faulted, clean,
                    "{lp:?} epoch {epoch}: rollback + retry must be bit-identical to clean run"
                );
            }
        });
}

/// A worker-thread panic at a generated parallel chunk, under a generated
/// thread count: the runtime's serial retry must reproduce the exact
/// fault-free product.
#[test]
fn fuzz_worker_panic_contained_at_generated_chunks_and_threads() {
    let _g = lock();
    let saved = (
        mixq::parallel::num_threads(),
        mixq::parallel::parallel_row_threshold(),
    );
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {})); // silence the injected panic

    let gen = usize_in(1, 4)
        .zip(&usize_in(2, 6))
        .zip(&usize_in(0, 1 << 20));
    Config::new("fault_worker_panic")
        .cases(24)
        .run(&gen, |&((chunk, threads), seed)| {
            mixq::parallel::set_num_threads(threads);
            mixq::parallel::set_parallel_row_threshold(2);
            let mut rng = Rng::seed_from_u64(seed as u64);
            let m = 8 + rng.gen_range(40);
            let k = 1 + rng.gen_range(16);
            let n = 1 + rng.gen_range(12);
            let a = Matrix::from_fn(m, k, |_, _| rng.normal());
            let b = Matrix::from_fn(k, n, |_, _| rng.normal());

            let faulted = {
                let _s = SpecGuard::install(&format!("worker_panic@{chunk}"));
                a.matmul(&b)
            };
            let clean = a.matmul(&b);
            assert_eq!(
                faulted.data(),
                clean.data(),
                "chunk {chunk} @ {threads} threads: serial retry diverged"
            );
        });

    std::panic::set_hook(hook);
    mixq::parallel::set_num_threads(saved.0);
    mixq::parallel::set_parallel_row_threshold(saved.1);
}
