//! Sample statistics, operation accounting and the result line.

use std::time::{Duration, Instant};

use mixq_telemetry::json;

/// Milliseconds in a duration, as `f64`.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Runs `f` once and returns its result with the wall time in ms.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, ms(t.elapsed()))
}

/// Median of the samples (mean of the two middle ones for an even count).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Arithmetic mean of the samples.
pub fn mean(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "mean of no samples");
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// Nearest-rank percentile (`q` in (0, 1]).
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = (q * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// Samples a nearest-rank `q` percentile needs so that at least `beyond`
/// samples lie above it.
pub fn samples_for_percentile(q: f64, beyond: usize) -> usize {
    (beyond as f64 / (1.0 - q)).ceil() as usize
}

/// Operations attempted and failed: train epochs, search epochs, `infer`
/// calls and `eval_node` calls. A failed phase counts all of its epochs.
#[derive(Debug, Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
    /// Run-level checks (agreement floor, fallback layers, probe
    /// reconstruction) that fail the run without being operations.
    pub run_failures: Vec<String>,
}

impl Ops {
    /// Records `n` operations of one phase that passed or failed together.
    pub fn phase(&mut self, what: &str, n: u64, ok: bool) {
        self.attempted += n;
        if !ok {
            self.failed += n;
            eprintln!("FAILED: {what} ({n} operations)");
        }
    }

    /// Records a run-level check.
    pub fn check(&mut self, what: &str, ok: bool) {
        if !ok {
            eprintln!("FAILED: {what}");
            self.run_failures.push(what.to_string());
        }
    }

    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.run_failures.is_empty()
    }
}

/// Named metrics with units, in emission order.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    /// Names of metrics whose value is not finite.
    pub fn non_finite(&self) -> Vec<&str> {
        self.0
            .iter()
            .filter(|(_, v, _)| !v.is_finite())
            .map(|(n, _, _)| n.as_str())
            .collect()
    }
}

/// The one-line result: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_line(ops: &Ops, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json::quote(name),
                json::num(*value),
                json::quote(unit)
            )
        })
        .collect();
    let correct = ops.correct() && metrics.non_finite().is_empty();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        ops.attempted.max(1),
        ops.failed,
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.95), 190.0);
        assert_eq!(samples_for_percentile(0.95, 10), 200);
    }

    #[test]
    fn result_line_parses() {
        let mut ops = Ops::default();
        ops.phase("x", 3, true);
        let mut m = Metrics::default();
        m.put("a_ms", 1.25, "ms");
        let line = result_line(&ops, &m);
        let v = json::parse(&line).expect("valid JSON");
        assert_eq!(v.get("attempted").and_then(json::Json::as_f64), Some(3.0));
        let a = v
            .get("metrics")
            .and_then(|m| m.get("a_ms"))
            .expect("metric");
        assert_eq!(a.get("unit").and_then(json::Json::as_str), Some("ms"));
    }
}
