//! Fault-injection drill: runs one training pipeline with `MIXQ_FAULTS`
//! injecting a NaN gradient, a torn checkpoint write and a worker panic —
//! then repeats the run unfaulted and asserts the recovered run is
//! *bit-identical*.
//!
//! CI wires this binary together with `telemetry_check` to pin the exact
//! `faults.injected` / `faults.recovered` counter totals. Run standalone
//! (no `MIXQ_FAULTS` in the environment) it installs the canonical spec
//! itself, so `cargo run --release --bin fault_drill` always drills.

use mixq_graph::cora_like;
use mixq_nn::{params_to_string, train_node, GcnNet, NodeBundle, ParamSet, TrainConfig};
use mixq_tensor::Rng;

const SPEC: &str = "grad_nan@epoch=3,ckpt_torn@1,worker_panic@2";

fn train_once(cfg: &TrainConfig) -> (mixq_nn::TrainReport, String) {
    let ds = cora_like(7);
    let bundle = NodeBundle::new(&ds);
    let dims = [ds.feat_dim(), 16, ds.num_classes()];
    let mut rng = Rng::seed_from_u64(7);
    let mut ps = ParamSet::new();
    let mut net = GcnNet::new(&mut ps, &dims, 0.5, &mut rng);
    let rep = train_node(&mut net, &mut ps, &ds, &bundle, cfg);
    (rep, params_to_string(&ps))
}

fn main() {
    // Injected worker panics are caught and retried by the runtime; keep the
    // default hook from spraying their backtraces over the drill output.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let msg = info
            .payload()
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| info.payload().downcast_ref::<&str>().copied())
            .unwrap_or("");
        if !msg.contains(mixq_faultinject::PANIC_MARKER) {
            default_hook(info);
        }
    }));

    // Force the parallel runtime on so the worker-panic containment path is
    // actually exercised, regardless of the host's core count.
    mixq_parallel::set_num_threads(4);
    mixq_parallel::set_parallel_row_threshold(2);

    if !mixq_faultinject::enabled() {
        mixq_faultinject::set_spec(SPEC).expect("canonical fault spec parses");
        println!("fault_drill: MIXQ_FAULTS not set, using builtin spec '{SPEC}'");
    }

    let ckpt = std::env::temp_dir().join(format!("mixq_fault_drill_{}.ckpt", std::process::id()));
    let cfg = TrainConfig::builder()
        .epochs(8)
        .lr(0.01)
        .seed(7)
        .patience(0)
        .grad_clip(5.0)
        .checkpoint(&ckpt, 2)
        .build()
        .expect("drill config is valid");

    // --- faulted run --------------------------------------------------------
    let (rep_f, params_f) = train_once(&cfg);
    let injected = mixq_faultinject::injected_count();
    let recovered = mixq_faultinject::recovered_count();
    println!(
        "faulted run: test-acc {:.3}, recovered_divergences {}, diverged {}, \
         faults injected {injected} / recovered {recovered}",
        rep_f.test_metric, rep_f.recovered_divergences, rep_f.diverged
    );
    assert!(
        rep_f.recovered_divergences >= 1,
        "grad_nan@epoch=3 must be absorbed by a rollback"
    );
    assert!(!rep_f.diverged, "recovery must succeed within max_retries");
    assert!(
        rep_f.test_metric.is_finite() && rep_f.final_train_loss.is_finite(),
        "faulted run must end with finite metrics"
    );
    assert_eq!(injected, 3, "all three injected faults must fire");
    assert_eq!(recovered, 3, "every injected fault must be recovered");

    // --- clean reference run ------------------------------------------------
    mixq_faultinject::clear();
    let clean_ckpt = std::env::temp_dir().join(format!(
        "mixq_fault_drill_{}_clean.ckpt",
        std::process::id()
    ));
    let clean_cfg = TrainConfig {
        checkpoint: cfg.checkpoint.as_ref().map(|c| mixq_nn::CheckpointConfig {
            path: clean_ckpt.clone(),
            every: c.every,
        }),
        ..cfg.clone()
    };
    let (rep_c, params_c) = train_once(&clean_cfg);
    assert_eq!(
        params_f, params_c,
        "recovered faulted run must be bit-identical to the clean run"
    );
    assert_eq!(rep_c.recovered_divergences, 0);
    assert_eq!(rep_f.test_metric, rep_c.test_metric);
    assert_eq!(rep_f.final_train_loss, rep_c.final_train_loss);
    println!("clean run matches faulted run bit-for-bit");

    let _ = std::fs::remove_file(&ckpt);
    let _ = std::fs::remove_file(&clean_ckpt);
    if mixq_telemetry::enabled() {
        match mixq_telemetry::write_report("fault_drill") {
            Ok(p) => println!("telemetry report written to {}", p.display()),
            Err(e) => eprintln!("telemetry report failed: {e}"),
        }
    }
    println!("fault_drill: OK");
}
