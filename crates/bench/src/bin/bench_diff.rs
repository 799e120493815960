//! `bench_diff` — the perf-regression gate over `BENCH_*.json`.
//!
//! ```text
//! bench_diff [--warn 0.10] [--fail 0.50] <baseline.json> <fresh.json>
//! ```
//!
//! Compares a committed baseline against a freshly emitted document of
//! the same schema (`pluto-bench-pipeline/3` or `pluto-bench-kernels/3`)
//! and prints the delta table. Gating policy (PERFORMANCE.md §6):
//! counter-based metrics are deterministic, so an increase ≥ the fail
//! threshold exits 1 and any change ≥ the warn threshold warns;
//! wall-time metrics only ever warn. Documents with mismatched `meta`
//! (kernel set, threads, samples, tile) are refused with exit 2 —
//! comparing different configurations would be meaningless.
//!
//! Exit codes: 0 clean (warnings allowed), 1 gated regression,
//! 2 refused / malformed / usage error.

use pluto_bench::diff::{self, DiffError};
use std::process::ExitCode;

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("bench_diff: {msg}");
            ExitCode::from(2)
        }
    }
}

fn run() -> Result<ExitCode, String> {
    let mut warn = diff::DEFAULT_WARN;
    let mut fail = diff::DEFAULT_FAIL;
    let mut paths: Vec<String> = Vec::new();
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--warn" => warn = parse_threshold(&a, it.next())?,
            "--fail" => fail = parse_threshold(&a, it.next())?,
            "--help" | "-h" => {
                eprintln!(
                    "usage: bench_diff [--warn frac] [--fail frac] <baseline.json> <fresh.json>"
                );
                return Ok(ExitCode::SUCCESS);
            }
            other if !other.starts_with("--") => paths.push(other.to_string()),
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    let [base_path, fresh_path] = paths.as_slice() else {
        return Err("expected exactly two paths: <baseline.json> <fresh.json>".to_string());
    };
    let base = std::fs::read_to_string(base_path)
        .map_err(|e| format!("cannot read `{base_path}`: {e}"))?;
    let fresh = std::fs::read_to_string(fresh_path)
        .map_err(|e| format!("cannot read `{fresh_path}`: {e}"))?;
    let report = match diff::diff_documents(&base, &fresh, warn, fail) {
        Ok(r) => r,
        Err(e @ (DiffError::Parse(_) | DiffError::Incompatible(_))) => {
            return Err(e.to_string());
        }
    };
    print!("{}", diff::render_report(&report));
    Ok(if report.fails() > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn parse_threshold(flag: &str, v: Option<String>) -> Result<f64, String> {
    let s = v.ok_or_else(|| format!("{flag} expects a fraction (e.g. 0.10)"))?;
    let x: f64 = s
        .parse()
        .map_err(|_| format!("{flag} expects a number, got `{s}`"))?;
    if !(0.0..=100.0).contains(&x) {
        return Err(format!("{flag} out of range: `{s}`"));
    }
    Ok(x)
}
