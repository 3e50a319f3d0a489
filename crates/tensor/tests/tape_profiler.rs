//! The tape's op profiler: with telemetry on, every pushed node counts a
//! call and its forward time, and every node backward reaches its backward
//! time, keyed by `ALL_OP_NAMES`. With telemetry off it records nothing.
//!
//! Its own test binary: the telemetry gate and registry are process-wide.

use mixq_tensor::{Matrix, Tape, ALL_OP_NAMES};

fn counter(rep: &mixq_telemetry::Report, name: &str) -> Option<u64> {
    rep.counters
        .iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| *v)
}

fn run_tape() {
    let mut t = Tape::new();
    let x = t.constant(Matrix::from_fn(64, 32, |r, c| (r as f32 - c as f32) * 0.01));
    let w = t.leaf(Matrix::from_fn(32, 16, |r, c| (r * c) as f32 * 0.001));
    let h = t.matmul(x, w);
    let h = t.relu(h);
    let loss = t.sum_all(h);
    t.backward(loss);
    t.recycle();
}

#[test]
fn op_profiler_counts_calls_and_times_per_op() {
    mixq_telemetry::set_enabled(false);
    mixq_telemetry::reset();
    run_tape();
    let rep = mixq_telemetry::snapshot();
    assert!(
        rep.counters.iter().all(|(k, _)| !k.starts_with("tape.")),
        "profiler recorded with telemetry off"
    );

    mixq_telemetry::set_enabled(true);
    run_tape();
    let rep = mixq_telemetry::snapshot();
    mixq_telemetry::set_enabled(false);
    assert_eq!(counter(&rep, "tape.calls.leaf"), Some(2));
    for op in ["matmul", "relu", "sum_all"] {
        assert_eq!(counter(&rep, &format!("tape.calls.{op}")), Some(1), "{op}");
        assert!(
            counter(&rep, &format!("tape.fwd_ns.{op}")).is_some(),
            "{op}"
        );
        assert!(
            counter(&rep, &format!("tape.bwd_ns.{op}")).is_some(),
            "{op}"
        );
    }
    assert!(counter(&rep, "tape.fwd_ns.matmul").unwrap() > 0);
    for (k, _) in rep.counters.iter().filter(|(k, _)| k.starts_with("tape.")) {
        let op = k.rsplit('.').next().unwrap();
        assert!(ALL_OP_NAMES.contains(&op), "{k} is not keyed by an op name");
    }
}
