//! Records the build facts every result must carry: the compiler version
//! and whether the crates were compiled with `-C target-cpu=native` (the
//! repository's `.cargo/config.toml` asks for it when cargo runs from the
//! repository root).

use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    println!("cargo:rustc-env=BENCH_RUSTC_VERSION={version}");

    // CARGO_ENCODED_RUSTFLAGS holds the flags separated by 0x1f.
    let flags = std::env::var("CARGO_ENCODED_RUSTFLAGS").unwrap_or_default();
    let native = flags.split('\x1f').any(|f| f.contains("target-cpu=native"));
    println!("cargo:rustc-env=BENCH_TARGET_CPU_NATIVE={native}");
    println!("cargo:rerun-if-env-changed=CARGO_ENCODED_RUSTFLAGS");
    println!("cargo:rerun-if-env-changed=RUSTC");
}
