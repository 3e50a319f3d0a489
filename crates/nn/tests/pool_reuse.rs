//! The buffer pool keeps hitting across back-to-back trainings.
//!
//! Regression: the pool used to file exact-capacity buffers (from
//! `Matrix::map`, `zip` or `from_vec`) one size class below the class their
//! length is requested from. They filled the per-thread byte budget, after
//! which every returned buffer was dropped and every request missed; from
//! about the fourth training on, the hit ratio was 0.

use mixq_graph::cora_like;
use mixq_nn::{train_node, GcnNet, NodeBundle, ParamSet, TrainConfig};
use mixq_tensor::{pool, Rng};

#[test]
fn hit_ratio_stays_high_over_consecutive_trainings() {
    let ds = cora_like(5);
    let bundle = NodeBundle::new(&ds);
    let dims = [ds.feat_dim(), 64, ds.num_classes()];
    let cfg = TrainConfig {
        epochs: 20,
        patience: 0,
        ..TrainConfig::default()
    };
    // The first training fills the pool from cold; the next five must reuse.
    pool::clear_thread_pool();
    for run in 0..6 {
        let before = pool::thread_stats();
        let mut ps = ParamSet::new();
        let mut net = GcnNet::new(&mut ps, &dims, 0.5, &mut Rng::seed_from_u64(run));
        train_node(&mut net, &mut ps, &ds, &bundle, &cfg);
        let after = pool::thread_stats();
        let (hits, misses) = (after.hits - before.hits, after.misses - before.misses);
        let ratio = hits as f64 / (hits + misses) as f64;
        assert!(
            run == 0 || ratio >= 0.9,
            "training {run}: hit ratio {ratio:.3} ({hits} hits, {misses} misses)"
        );
    }
    pool::clear_thread_pool();
}
