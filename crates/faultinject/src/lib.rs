//! Deterministic fault injection for the MixQ-GNN resilience layer.
//!
//! Compiled into the fragile paths of the workspace (training loops, the
//! checkpoint writer, the parallel runtime) but
//! **gated by the `MIXQ_FAULTS` environment variable** exactly like
//! `mixq-telemetry`'s gate: when unset, every [`should_fire`] probe is a
//! single relaxed atomic load and an early return, so production paths pay
//! effectively nothing.
//!
//! A fault spec is a comma-separated list of rules:
//!
//! ```text
//! MIXQ_FAULTS=grad_nan@epoch=3,ckpt_torn@1,worker_panic@2
//! ```
//!
//! * `kind@N` — fire on the **N-th probe** of that kind (1-based);
//! * `kind@name=N` — fire on the probe whose caller-supplied index equals
//!   `N` (e.g. `grad_nan@epoch=3` fires in epoch 3). The `name` is
//!   documentation only; the match is on the index value.
//!
//! Each rule fires **once**; re-installing a spec ([`set_spec`]) resets all
//! probe counters. The injection sites and the recovery machinery record
//! `faults.injected` / `faults.injected.<kind>` / `faults.recovered`
//! telemetry counters, and the same counts are available in-process via
//! [`injected_count`] / [`recovered_count`] for tests that run with
//! telemetry off.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Mutex;

/// The failure modes the harness can inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Poison one gradient buffer with `NaN` after the backward pass.
    GradNan,
    /// Make the checkpoint writer leave a truncated temp file and fail.
    CkptTorn,
    /// Panic inside one parallel worker chunk.
    WorkerPanic,
}

impl FaultKind {
    fn as_str(self) -> &'static str {
        match self {
            FaultKind::GradNan => "grad_nan",
            FaultKind::CkptTorn => "ckpt_torn",
            FaultKind::WorkerPanic => "worker_panic",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "grad_nan" => FaultKind::GradNan,
            "ckpt_torn" => FaultKind::CkptTorn,
            "worker_panic" => FaultKind::WorkerPanic,
            _ => return None,
        })
    }
}

/// Marker substring carried by every injected panic payload so the parallel
/// runtime can tell an injected worker panic from a genuine kernel bug.
pub const PANIC_MARKER: &str = "mixq-faultinject";

#[derive(Debug, Clone, Copy)]
enum Trigger {
    /// Fire on the n-th probe of this kind (1-based).
    Probe(u64),
    /// Fire when the caller-supplied index equals this value.
    Index(u64),
}

#[derive(Debug, Clone)]
struct Rule {
    kind: FaultKind,
    trigger: Trigger,
    probes: u64,
    fired: bool,
}

const GATE_UNSET: u8 = 0;
const GATE_OFF: u8 = 1;
const GATE_ON: u8 = 2;

static GATE: AtomicU8 = AtomicU8::new(GATE_UNSET);
static RULES: Mutex<Vec<Rule>> = Mutex::new(Vec::new());
static INJECTED: AtomicU64 = AtomicU64::new(0);
static RECOVERED: AtomicU64 = AtomicU64::new(0);

/// Whether fault injection is armed. First call resolves `MIXQ_FAULTS`
/// (unset or empty disables; otherwise the value is parsed as a spec);
/// later calls are one relaxed atomic load.
#[inline]
pub fn enabled() -> bool {
    match GATE.load(Ordering::Relaxed) {
        GATE_ON => true,
        GATE_OFF => false,
        _ => resolve_gate(),
    }
}

#[cold]
fn resolve_gate() -> bool {
    let spec = std::env::var("MIXQ_FAULTS").unwrap_or_default();
    if spec.trim().is_empty() {
        GATE.store(GATE_OFF, Ordering::Relaxed);
        return false;
    }
    match set_spec(&spec) {
        Ok(()) => true,
        Err(e) => {
            eprintln!("mixq-faultinject: ignoring bad MIXQ_FAULTS: {e}");
            GATE.store(GATE_OFF, Ordering::Relaxed);
            false
        }
    }
}

/// Installs a fault spec, arming the gate and resetting all probe counters
/// and in-process injected/recovered counts. See the module docs for the
/// grammar.
pub fn set_spec(spec: &str) -> Result<(), String> {
    let mut rules = Vec::new();
    for part in spec.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        let (kind_s, trig_s) = part
            .split_once('@')
            .ok_or_else(|| format!("rule '{part}' missing '@trigger'"))?;
        let kind = FaultKind::parse(kind_s.trim())
            .ok_or_else(|| format!("unknown fault kind '{kind_s}'"))?;
        let trig_s = trig_s.trim();
        let trigger = match trig_s.split_once('=') {
            Some((_name, v)) => Trigger::Index(
                v.trim()
                    .parse()
                    .map_err(|_| format!("bad index in rule '{part}'"))?,
            ),
            None => {
                let n: u64 = trig_s
                    .parse()
                    .map_err(|_| format!("bad probe count in rule '{part}'"))?;
                if n == 0 {
                    return Err(format!("probe count in '{part}' must be >= 1"));
                }
                Trigger::Probe(n)
            }
        };
        rules.push(Rule {
            kind,
            trigger,
            probes: 0,
            fired: false,
        });
    }
    *RULES.lock().unwrap() = rules;
    INJECTED.store(0, Ordering::Relaxed);
    RECOVERED.store(0, Ordering::Relaxed);
    GATE.store(GATE_ON, Ordering::Relaxed);
    Ok(())
}

/// Disarms the gate and removes all rules (counters keep their values so a
/// drill can read them after clearing).
pub fn clear() {
    RULES.lock().unwrap().clear();
    GATE.store(GATE_OFF, Ordering::Relaxed);
}

/// Probes for a fault of `kind` at this site. Returns `true` exactly when a
/// matching rule triggers (each rule at most once). `index` carries a
/// caller-meaningful position (epoch, layer, …) matched by `kind@name=N`
/// rules; probe-count rules (`kind@N`) count every probe of the kind.
///
/// When the gate is off this is one relaxed atomic load.
#[inline]
pub fn should_fire(kind: FaultKind, index: Option<u64>) -> bool {
    if !enabled() {
        return false;
    }
    should_fire_slow(kind, index)
}

#[cold]
fn should_fire_slow(kind: FaultKind, index: Option<u64>) -> bool {
    let mut rules = RULES.lock().unwrap();
    for rule in rules.iter_mut() {
        if rule.kind != kind || rule.fired {
            continue;
        }
        let hit = match rule.trigger {
            Trigger::Probe(n) => {
                rule.probes += 1;
                rule.probes == n
            }
            Trigger::Index(v) => index == Some(v),
        };
        if hit {
            rule.fired = true;
            drop(rules);
            INJECTED.fetch_add(1, Ordering::Relaxed);
            mixq_telemetry::counter_add("faults.injected", 1);
            mixq_telemetry::counter_add(&format!("faults.injected.{}", kind.as_str()), 1);
            return true;
        }
    }
    false
}

/// Records that a recovery path knowingly absorbed one injected fault.
/// Called by the rollback/retry sites after they handle a fault
/// they know was injected.
pub fn mark_recovered() {
    RECOVERED.fetch_add(1, Ordering::Relaxed);
    mixq_telemetry::counter_add("faults.recovered", 1);
}

/// Number of faults injected since the last [`set_spec`].
pub fn injected_count() -> u64 {
    INJECTED.load(Ordering::Relaxed)
}

/// Number of injected faults recovered since the last [`set_spec`].
pub fn recovered_count() -> u64 {
    RECOVERED.load(Ordering::Relaxed)
}

/// Panics with the injection marker; the parallel runtime's containment
/// recognises the payload via [`PANIC_MARKER`].
pub fn injected_panic(site: &str) -> ! {
    panic!("{PANIC_MARKER}: injected worker panic at {site}")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The gate/rule state is process-global, so all behavioural assertions
    /// live in one test (the same pattern the telemetry crate uses).
    #[test]
    fn spec_grammar_and_firing_semantics() {
        // Probe-count rule: fires exactly on the 2nd probe, once.
        set_spec("worker_panic@2").unwrap();
        assert!(enabled());
        assert!(!should_fire(FaultKind::WorkerPanic, None));
        assert!(should_fire(FaultKind::WorkerPanic, None));
        assert!(!should_fire(FaultKind::WorkerPanic, None));
        assert_eq!(injected_count(), 1);

        // Index rule: fires when the caller index matches, regardless of
        // probe order; other kinds never match.
        set_spec("grad_nan@epoch=3").unwrap();
        assert!(!should_fire(FaultKind::GradNan, Some(1)));
        assert!(!should_fire(FaultKind::CkptTorn, Some(3)));
        assert!(should_fire(FaultKind::GradNan, Some(3)));
        assert!(!should_fire(FaultKind::GradNan, Some(3)), "fires once");
        assert_eq!(injected_count(), 1);
        mark_recovered();
        assert_eq!(recovered_count(), 1);

        // Multiple rules, independent counters.
        set_spec("ckpt_torn@1, grad_nan@epoch=2").unwrap();
        assert_eq!(injected_count(), 0, "set_spec resets counters");
        assert!(should_fire(FaultKind::CkptTorn, None));
        assert!(!should_fire(FaultKind::GradNan, Some(1)));
        assert!(should_fire(FaultKind::GradNan, Some(2)));
        assert_eq!(injected_count(), 2);

        // Bad specs are rejected.
        assert!(set_spec("grad_nan").is_err(), "missing trigger");
        assert!(set_spec("nonsense@1").is_err(), "unknown kind");
        assert!(set_spec("grad_nan@zero").is_err(), "bad count");
        assert!(set_spec("grad_nan@0").is_err(), "count must be >= 1");
        assert!(set_spec("grad_nan@epoch=x").is_err(), "bad index");

        // clear() disarms: probes return false without touching rules.
        set_spec("ckpt_torn@1").unwrap();
        clear();
        assert!(!enabled());
        assert!(!should_fire(FaultKind::CkptTorn, None));
    }
}
