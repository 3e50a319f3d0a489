//! End-to-end MixQ pipeline benchmark.
//!
//! One process runs one user's whole MixQ job on a generated graph: FP32
//! and uniform-INT8 QAT training of a 2-layer GCN, the relaxed bit-width
//! search, freezing the QAT net into the integer engine, and a closed loop
//! (one caller) of integer inference against the FP32 forward.
//!
//! * `--trace 0` times that job with telemetry off and prints the
//!   end-to-end metrics.
//! * `--trace 1` times each layer's public functions from outside on the
//!   workload's shapes, reads the program's telemetry counters, and prints
//!   the per-layer metrics.
//!
//! Usage: `mixq-pipeline-bench --workload <name> --seed <n> --seconds <s>
//! --trace <0|1> [--smoke]`. The last line of standard output is the result
//! object; `run.py` builds and runs this binary.

mod pipeline;
mod probes;
mod report;

use mixq_telemetry::json;

use pipeline::{workload, Scale, THREADS, WORKLOADS};
use report::{result_line, Ops};

/// A second seed, never used while tuning, for verifying a claimed gain
/// on inputs the change was not written against.
const HELD_OUT_SEED: u64 = 7919;

struct Args {
    workload: &'static pipeline::Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: mixq-pipeline-bench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--smoke]",
        names.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut name, mut seed, mut seconds, mut trace, mut smoke) = (None, None, None, None, false);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => name = Some(value()?),
            "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| e.to_string())?),
            "--seconds" => seconds = Some(value()?.parse::<f64>().map_err(|e| e.to_string())?),
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                })
            }
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let name = name.ok_or("--workload is required")?;
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    Ok(Args {
        workload: workload(&name).ok_or(format!("unknown workload {name}"))?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        smoke,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            std::process::exit(2);
        }
    };
    let w = args.workload;
    mixq_parallel::set_num_threads(THREADS);
    mixq_telemetry::set_enabled(false);
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "host: {{\"workload\": {}, \"seed\": {}, \"held_out_seed\": {HELD_OUT_SEED}, \
         \"host_cpus\": {host_cpus}, \"mixq_threads\": {}, \"rustc\": {}, \
         \"target_cpu_native\": {}, \"seconds\": {}, \"trace\": {}, \"smoke\": {}}}",
        json::quote(w.name),
        args.seed,
        mixq_parallel::num_threads(),
        json::quote(env!("BENCH_RUSTC_VERSION")),
        env!("BENCH_TARGET_CPU_NATIVE"),
        json::num(args.seconds),
        args.trace,
        args.smoke,
    );

    let scale = Scale {
        seconds: args.seconds,
        smoke: args.smoke,
    };
    let mut ops = Ops::default();
    let metrics = if args.trace {
        probes::run_traced(w, args.seed, scale, &mut ops)
    } else {
        pipeline::run_untraced(w, args.seed, scale, &mut ops)
    };
    for name in metrics.non_finite() {
        eprintln!("FAILED: metric {name} is not finite");
    }
    println!("{}", result_line(&ops, &metrics));
}
