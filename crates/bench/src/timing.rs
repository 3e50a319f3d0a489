//! Minimal wall-clock benchmarking harness.
//!
//! The offline build environment cannot fetch Criterion, so `kernel_bench`
//! uses this self-contained runner instead: calibrate an iteration
//! count that fills a fixed batch duration, take several batch samples,
//! and report the median per-iteration time (the median is robust to the
//! occasional scheduler hiccup that would skew a mean).

use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// Batch samples taken per benchmark; the median is reported.
pub const SAMPLES: usize = 7;

/// Target wall-clock duration of one calibration/sample batch.
pub const BATCH: Duration = Duration::from_millis(25);

/// Median nanoseconds per call of `f`, measured over [`SAMPLES`] batches of
/// a calibrated iteration count.
pub fn median_ns_per_iter(mut f: impl FnMut()) -> f64 {
    // Calibrate: double the iteration count until one batch fills BATCH.
    let mut iters = 1u64;
    loop {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        if t.elapsed() >= BATCH || iters >= 1 << 24 {
            break;
        }
        iters = iters.saturating_mul(2);
    }
    let mut samples = [0f64; SAMPLES];
    for s in samples.iter_mut() {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        *s = t.elapsed().as_nanos() as f64 / iters as f64;
    }
    samples.sort_by(f64::total_cmp);
    samples[SAMPLES / 2]
}

/// Runs `f` under [`median_ns_per_iter`], prints one aligned result line,
/// and returns the median ns/iter (callers use it for speedup ratios).
pub fn bench(name: &str, f: impl FnMut()) -> f64 {
    let ns = median_ns_per_iter(f);
    println!("{name:<44} {:>12}/iter", format_ns(ns));
    ns
}

/// One machine-readable benchmark result, as written by [`write_json`].
///
/// `macs` is the multiply-accumulate count of a single iteration, so
/// [`BenchRecord::macs_per_s`] gives a size-independent throughput that can
/// be compared across commits and shapes. `speedup` relates this record to
/// the named `baseline` record in the same report (ratio of baseline
/// ns/iter to this ns/iter; > 1 means faster than the baseline).
#[derive(Debug, Clone)]
pub struct BenchRecord {
    pub name: String,
    pub threads: usize,
    pub ns_per_iter: f64,
    pub macs: u64,
    pub baseline: Option<String>,
    pub speedup: Option<f64>,
    /// Set by [`merge_passes`]: the record is then the median of several
    /// passes, and this is their spread.
    pub spread: Option<Spread>,
}

/// The spread behind a record merged by [`merge_passes`]: the pass count
/// and the lowest and highest ns/iter and speedup among the passes.
#[derive(Debug, Clone, PartialEq)]
pub struct Spread {
    pub passes: usize,
    pub ns: (f64, f64),
    pub speedup: Option<(f64, f64)>,
}

impl BenchRecord {
    pub fn new(name: &str, threads: usize, ns_per_iter: f64, macs: u64) -> Self {
        Self {
            name: name.to_string(),
            threads,
            ns_per_iter,
            macs,
            baseline: None,
            speedup: None,
            spread: None,
        }
    }

    /// Marks `base` as the reference this record is compared to and stores
    /// the speedup (`base.ns_per_iter / self.ns_per_iter`).
    pub fn vs(mut self, base: &BenchRecord) -> Self {
        self.baseline = Some(base.name.clone());
        self.speedup = Some(base.ns_per_iter / self.ns_per_iter);
        self
    }

    /// Multiply-accumulates per second at the measured ns/iter.
    pub fn macs_per_s(&self) -> f64 {
        if self.ns_per_iter <= 0.0 {
            return 0.0;
        }
        self.macs as f64 / (self.ns_per_iter * 1e-9)
    }
}

/// The median of `v` (the upper one of an even count) and its `(min, max)`.
pub fn median_and_range(v: &[f64]) -> (f64, (f64, f64)) {
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    (v[v.len() / 2], (v[0], v[v.len() - 1]))
}

/// Merges repeated passes of one benchmark run, each a list of the same
/// records in the same order, into one list: each record's ns/iter is the
/// median over the passes and its speedup the median of the per-pass
/// speedups (each pass compares against its own baseline run), with the
/// spread of both kept in [`BenchRecord::spread`].
///
/// # Panics
///
/// If `passes` is empty or the passes list different records.
pub fn merge_passes(passes: &[Vec<BenchRecord>]) -> Vec<BenchRecord> {
    let first = passes.first().expect("at least one pass");
    (0..first.len())
        .map(|i| {
            let runs: Vec<&BenchRecord> = passes.iter().map(|p| &p[i]).collect();
            assert!(
                runs.iter().all(|r| r.name == first[i].name),
                "passes list different records at {i}"
            );
            let ns: Vec<f64> = runs.iter().map(|r| r.ns_per_iter).collect();
            let (ns_per_iter, ns_range) = median_and_range(&ns);
            let speedups: Option<Vec<f64>> = runs.iter().map(|r| r.speedup).collect();
            let speedup = speedups.as_deref().map(median_and_range);
            BenchRecord {
                ns_per_iter,
                speedup: speedup.map(|s| s.0),
                spread: Some(Spread {
                    passes: passes.len(),
                    ns: ns_range,
                    speedup: speedup.map(|s| s.1),
                }),
                ..first[i].clone()
            }
        })
        .collect()
}

/// A JSON number that is always valid JSON (NaN/Inf become 0).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.3}")
    } else {
        "0".to_string()
    }
}

/// Writes the benchmark trajectory as a small hand-rolled JSON document
/// (the offline build has no serde): a `records` array plus a flat
/// `summary` object of named headline ratios. Names are written verbatim —
/// callers use plain ASCII identifiers.
pub fn write_json(
    path: &Path,
    records: &[BenchRecord],
    summary: &[(&str, f64)],
) -> std::io::Result<()> {
    let mut s = String::new();
    s.push_str("{\n  \"schema\": \"mixq.kernel_bench.v1\",\n  \"records\": [\n");
    for (i, r) in records.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"threads\": {}, \"ns_per_iter\": {}, \"macs\": {}, \"macs_per_s\": {}",
            r.name,
            r.threads,
            json_num(r.ns_per_iter),
            r.macs,
            json_num(r.macs_per_s()),
        ));
        if let (Some(b), Some(sp)) = (&r.baseline, r.speedup) {
            s.push_str(&format!(
                ", \"baseline\": \"{}\", \"speedup\": {}",
                b,
                json_num(sp)
            ));
        }
        if let Some(sp) = &r.spread {
            s.push_str(&format!(
                ", \"passes\": {}, \"ns_min\": {}, \"ns_max\": {}",
                sp.passes,
                json_num(sp.ns.0),
                json_num(sp.ns.1)
            ));
            if let Some((lo, hi)) = sp.speedup {
                s.push_str(&format!(
                    ", \"speedup_min\": {}, \"speedup_max\": {}",
                    json_num(lo),
                    json_num(hi)
                ));
            }
        }
        s.push('}');
        if i + 1 < records.len() {
            s.push(',');
        }
        s.push('\n');
    }
    s.push_str("  ],\n  \"summary\": {\n");
    for (i, (k, v)) in summary.iter().enumerate() {
        s.push_str(&format!("    \"{}\": {}", k, json_num(*v)));
        if i + 1 < summary.len() {
            s.push(',');
        }
        s.push('\n');
    }
    s.push_str("  }\n}\n");
    let mut f = std::fs::File::create(path)?;
    f.write_all(s.as_bytes())
}

/// Human-readable duration from nanoseconds.
fn format_ns(ns: f64) -> String {
    if ns < 1e3 {
        format!("{ns:.1} ns")
    } else if ns < 1e6 {
        format!("{:.2} µs", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.2} ms", ns / 1e6)
    } else {
        format!("{:.3} s", ns / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn format_ns_picks_sensible_units() {
        assert_eq!(format_ns(12.34), "12.3 ns");
        assert_eq!(format_ns(12_340.0), "12.34 µs");
        assert_eq!(format_ns(12_340_000.0), "12.34 ms");
        assert_eq!(format_ns(2_500_000_000.0), "2.500 s");
    }

    #[test]
    fn bench_record_json_round_trips_structure() {
        let base = BenchRecord::new("naive", 1, 2000.0, 1000);
        let fast = BenchRecord::new("tiled", 1, 500.0, 1000).vs(&base);
        assert_eq!(fast.speedup, Some(4.0));
        assert!((fast.macs_per_s() - 2e9).abs() < 1.0);

        let dir = std::env::temp_dir().join(format!("mixq_bench_json_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bench.json");
        write_json(&path, &[base, fast], &[("tiled_speedup", 4.0)]).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(text.contains("\"schema\": \"mixq.kernel_bench.v1\""));
        assert!(text.contains("\"baseline\": \"naive\", \"speedup\": 4.000"));
        assert!(text.contains("\"tiled_speedup\": 4.000"));
        // Hand-rolled JSON must stay structurally balanced.
        let balance =
            |open: char, close: char| text.matches(open).count() == text.matches(close).count();
        assert!(balance('{', '}') && balance('[', ']'));
        assert_eq!(text.matches('"').count() % 2, 0);
    }

    #[test]
    fn merged_passes_keep_the_median_and_the_spread() {
        let pass = |naive: f64, tiled: f64| {
            let base = BenchRecord::new("naive", 1, naive, 1000);
            let fast = BenchRecord::new("tiled", 1, tiled, 1000).vs(&base);
            vec![base, fast]
        };
        let merged = merge_passes(&[
            pass(2000.0, 500.0),
            pass(3000.0, 500.0),
            pass(2200.0, 1000.0),
        ]);
        assert_eq!(merged[0].ns_per_iter, 2200.0);
        assert_eq!(merged[1].ns_per_iter, 500.0);
        // The per-pass speedups are 4, 6 and 2.2: their median, not the
        // ratio of the medians.
        assert_eq!(merged[1].speedup, Some(4.0));
        assert_eq!(
            merged[1].spread,
            Some(Spread {
                passes: 3,
                ns: (500.0, 1000.0),
                speedup: Some((2.2, 6.0)),
            })
        );
        assert_eq!(merged[0].spread.as_ref().unwrap().speedup, None);

        let dir = std::env::temp_dir().join(format!("mixq_bench_spread_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bench.json");
        write_json(&path, &merged, &[]).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(text.contains(
            "\"speedup\": 4.000, \"passes\": 3, \"ns_min\": 500.000, \"ns_max\": 1000.000, \"speedup_min\": 2.200, \"speedup_max\": 6.000"
        ));
    }

    #[test]
    fn median_measures_positive_time() {
        let mut x = 0u64;
        let ns = median_ns_per_iter(|| x = x.wrapping_add(std::hint::black_box(1)));
        assert!(ns > 0.0);
    }
}
