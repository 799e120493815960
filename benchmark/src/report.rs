//! Printing: every metric by name with its unit and sample count, the
//! per-kernel rows behind the geometric means, and — in `--repeat` mode —
//! the comparison of runs with each metric's bound next to it.

use crate::audit::{AuditSamples, AuditTrace};
use crate::cold::{ColdSamples, ColdTrace};
use crate::exec::{ExecSamples, ExecTrace, ORIGINAL, TRANSFORMED};
use crate::kernels;
use crate::layers;
use crate::metrics::{self, Better, Values};
use crate::service::{ServiceSamples, ServiceTrace, Stream};
use crate::setup::Inputs;
use crate::stats::{highest_percentile, median, percentile};
use crate::Opts;
use std::collections::BTreeMap;
use std::process::{Command, Stdio};

fn row(name: &str, value: f64, note: &str) {
    println!(
        "{name:<38} {value:>14.4} {:<6} {note}",
        metrics::unit_of(name)
    );
}

/// `median of n; pXX v` with the highest percentile that has at least
/// ten samples beyond it.
fn spread_note(samples: &[f64], what: &str) -> String {
    match highest_percentile(samples.len()) {
        Some(p) => format!(
            "(median of {} {what}; p{p} {:.4})",
            samples.len(),
            percentile(samples, p)
        ),
        None => format!("(median of {} {what})", samples.len()),
    }
}

pub fn untraced(
    cold: &ColdSamples,
    audit: &AuditSamples,
    exec: &ExecSamples,
    serve: &ServiceSamples,
    stream: &Stream,
    inputs: &Inputs,
) {
    row(
        "compile_cold_ms",
        cold.compile_cold_ms(),
        &format!(
            "(sum over 13 kernels of the median of {} passes; rows below)",
            cold.passes()
        ),
    );
    row(
        "compile_cold_geomean_ms",
        cold.compile_cold_geomean_ms(),
        "(geomean of the per-kernel medians below)",
    );
    for (k, ms) in kernels::ALL.iter().zip(&cold.kernel_ms) {
        println!("    {:<34} {:>14.4} ms", k.name, median(ms));
    }
    row(
        "audit_ms",
        audit.audit_ms(),
        &format!(
            "(sum over 32 sources of the median of {} passes)",
            audit.passes()
        ),
    );
    let families: BTreeMap<&str, usize> = inputs.audit.iter().fold(BTreeMap::new(), |mut m, f| {
        *m.entry(f.source.family).or_insert(0) += 1;
        m
    });
    println!("    generated families: {families:?}");
    row(
        "exec_transformed_ms",
        exec.exec_transformed_ms(),
        &format!(
            "(sum over 5 kernels of the median of {} repetitions; rows below)",
            exec.reps()
        ),
    );
    row(
        "exec_speedup_geomean",
        exec.exec_speedup_geomean(),
        "(original / transformed, same engine; rows below)",
    );
    for (case, runs) in inputs.exec.iter().zip(&exec.run_ms) {
        println!(
            "    {:<18} {:?}: original {:>10.4} ms, transformed {:>10.4} ms, speedup {:.4}",
            case.spec.name,
            case.params,
            median(&runs[ORIGINAL]),
            median(&runs[TRANSFORMED]),
            median(&runs[ORIGINAL]) / median(&runs[TRANSFORMED])
        );
    }
    row(
        "serve_rps",
        serve.serve_rps(),
        &format!(
            "({} requests in {:.3} s, closed loop, 1 client)",
            serve.requests,
            serve.wall.as_secs_f64()
        ),
    );
    row(
        "serve_hit_p50_us",
        serve.hit_p50_us(),
        &spread_note(&serve.hit_us, "memo hits"),
    );
    row("serve_hit_p90_us", serve.hit_p90_us(), "");
    let strata = |by_shape: &[Vec<f64>]| -> String {
        let n: usize = by_shape.iter().map(Vec::len).sum();
        let medians: Vec<String> = by_shape
            .iter()
            .map(|s| {
                if s.is_empty() {
                    "-".to_string()
                } else {
                    format!("{:.2}", median(s) / 1e3)
                }
            })
            .collect();
        format!(
            "(geomean of per-shape medians, {n} samples; ms by shape: {})",
            medians.join(" ")
        )
    };
    row(
        "serve_content_p50_ms",
        serve.content_p50_ms(),
        &strata(&serve.content_us),
    );
    row(
        "serve_miss_p50_ms",
        serve.miss_p50_ms(),
        &strata(&serve.miss_us),
    );
    println!(
        "    requests by intent: hot repeat {}, respelled {}, cold pool {}, stats {}; \
         cache labels (warm-up included): {} hit, {} miss",
        stream.intents[0],
        stream.intents[1],
        stream.intents[2],
        stream.intents[3],
        stream.labels.0,
        stream.labels.1
    );
}

/// Median over passes of one span name's self time, in ns.
fn self_ns(passes: &[BTreeMap<&'static str, u64>], name: &str) -> f64 {
    let per_pass: Vec<f64> = passes
        .iter()
        .map(|p| p.get(name).copied().unwrap_or(0) as f64)
        .collect();
    median(&per_pass)
}

fn as_f64(v: &[u64]) -> Vec<f64> {
    v.iter().map(|&x| x as f64).collect()
}

/// Derives, prints and returns every per-layer metric.
pub fn traced(
    cold_proc: &ColdSamples,
    piped: &ServiceSamples,
    cold: &ColdTrace,
    audit: &AuditTrace,
    exec: &ExecTrace,
    serve: &ServiceTrace,
) -> Values {
    let c = &cold.counters[0];
    let count = |k: &str| c.get(k).copied().unwrap_or(0) as f64;
    // Times come from every pass; counts are the same in all of them.
    let time_ns = |k: &str| {
        median(&as_f64(
            &cold
                .counters
                .iter()
                .map(|p| p.get(k).copied().unwrap_or(0))
                .collect::<Vec<_>>(),
        ))
    };
    let phase_ns = |name: &str| {
        time_ns(&format!("phase.{name}.wall_ns"))
            + time_ns(&format!("phase.optimize/{name}.wall_ns"))
    };
    let ms = |ns: f64| ns / 1e6;
    let us = |ns: f64| ns / 1e3;
    let cs = |name: &str| self_ns(&cold.self_ns, name);

    let traced_wall = median(&as_f64(&cold.traced_wall_ns));
    let plain_wall = median(&as_f64(&cold.plain_wall_ns));
    let layer_names = [
        "frontend.parse",
        "ir.deps",
        "core.search",
        "core.apply",
        "codegen.generate",
        "codegen.emit",
    ];
    let cold_layers: f64 = layer_names.iter().map(|n| cs(n)).sum();

    let exec_ms = |v: usize| exec.samples.sum_ms(v);
    let team_ms = median(&exec.team_ms);
    let (hits, misses, evictions) = serve.cache;
    let inproc = &serve.in_process;

    let values: Values = vec![
        ("frontend.parse_us", us(cs("frontend.parse"))),
        ("frontend.stmts", cold.stmts as f64),
        ("ir.deps_ms", ms(cs("ir.deps"))),
        ("ir.deps_built", count("ir.deps_built")),
        ("ir.dep_candidates", count("ir.dep_candidates")),
        ("ir.pruned_candidates", count("ir.pruned_candidates")),
        ("ilp.solves", count("ilp.solves")),
        ("ilp.pivots", count("ilp.pivots")),
        (
            "ilp.cache_hit_ratio",
            count("ilp.cache_hits")
                / (count("ilp.cache_hits") + count("ilp.cache_misses")).max(1.0),
        ),
        (
            "ilp.site_ms.legality",
            ms(time_ns("ilp.latency.legality.sum_ns")),
        ),
        (
            "ilp.site_ms.bounding",
            ms(time_ns("ilp.latency.bounding.sum_ns")),
        ),
        (
            "ilp.site_ms.search_row_warm",
            ms(time_ns("ilp.latency.search_row_warm.sum_ns")),
        ),
        (
            "ilp.site_ms.emptiness",
            ms(time_ns("ilp.latency.emptiness.sum_ns")),
        ),
        ("poly.fm_eliminations", count("poly.fm_eliminations")),
        ("poly.emptiness_checks", count("poly.emptiness_checks")),
        (
            "core.optimize_ms",
            ms(cs("ir.deps") + cs("core.search") + cs("core.apply")),
        ),
        ("core.search_ms", ms(cs("core.search"))),
        ("core.tiling_us", us(phase_ns("tiling"))),
        ("core.wavefront_us", us(phase_ns("wavefront"))),
        ("core.search_share", cs("core.search") / traced_wall),
        ("core.legality_systems", count("core.legality_systems")),
        ("core.bounding_systems", count("core.bounding_systems")),
        ("core.search_row_solves", count("core.search_row_solves")),
        ("core.scc_cuts", count("core.scc_cuts")),
        ("codegen.generate_ms", ms(cs("codegen.generate"))),
        ("codegen.emit_us", us(cs("codegen.emit"))),
        ("codegen.c_bytes", cold.c_bytes as f64),
        ("codegen.loops", count("codegen.loops")),
        (
            "analyze.audit_ms",
            ms(self_ns(&audit.self_ns, "analyze.audit")),
        ),
        (
            "analyze.bytecode_ms",
            ms(self_ns(&audit.self_ns, "analyze.bytecode")),
        ),
        ("analyze.diagnostics", audit.diagnostics as f64),
        (
            "machine.bytecode_compile_us",
            median(&exec.bytecode_compile_us),
        ),
        ("machine.bytecode_instrs", exec.bytecode_instrs as f64),
        ("machine.instances", exec.instances as f64),
        (
            "machine.ns_per_instance.original",
            exec_ms(ORIGINAL) * 1e6 / exec.instances as f64,
        ),
        (
            "machine.ns_per_instance.transformed",
            exec_ms(TRANSFORMED) * 1e6 / exec.instances as f64,
        ),
        ("machine.speedup_in_l1", exec.speedup_in_l1),
        ("machine.sim_l1_miss_ratio", exec.sim_l1_miss_ratio),
        ("machine.sim_l2_miss_ratio", exec.sim_l2_miss_ratio),
        ("machine.sim_cycles_ratio", exec.sim_cycles_ratio),
        ("machine.par2_ms", team_ms),
        ("machine.par2_speedup", exec_ms(TRANSFORMED) / team_ms),
        ("machine.dispatches", exec.dispatches as f64),
        ("machine.barrier_wait_ms", exec.barrier_wait_ms),
        ("machine.imbalance_mean", exec.imbalance_mean),
        ("pool.spawns", exec.pool_spawns as f64),
        (
            "obs.profile_overhead_pct",
            (traced_wall - plain_wall) / plain_wall * 100.0,
        ),
        ("obs.json_parse_us", serve.json_parse_us),
        ("obs.json_emit_us", serve.json_emit_us),
        ("daemon.handle_hit_us", inproc.hit_p50_us()),
        ("daemon.handle_content_ms", inproc.content_p50_ms()),
        ("daemon.handle_miss_ms", inproc.miss_p50_ms()),
        (
            "daemon.transport_us",
            piped.hit_p50_us() - inproc.hit_p50_us(),
        ),
        ("daemon.hit_p99_us", percentile(&piped.hit_us, 99.0)),
        ("daemon.stats_us", median(&piped.stats_us)),
        ("daemon.response_bytes_p50", median(&piped.response_bytes)),
        ("daemon.cache_hits", hits as f64),
        ("daemon.cache_misses", misses as f64),
        ("daemon.cache_evictions", evictions as f64),
        (
            "daemon.hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
        ),
        (
            "plutoc.startup_ms",
            (cold_proc.compile_cold_ms() - ms(plain_wall)) / kernels::ALL.len() as f64,
        ),
        ("trace.coverage.cold_compile", cold_layers / traced_wall),
    ];
    for (name, v) in &values {
        row(name, *v, "");
    }
    if exec.team_threads < 2 {
        println!(
            "note: one processor only — machine.par2_* ran on a team of {} and say nothing about parallel speed-up",
            exec.team_threads
        );
    }
    values
}

/// One child run's result line, parsed.
struct ChildRun {
    workload: String,
    traced: bool,
    correct: bool,
    failed: u64,
    metrics: BTreeMap<String, f64>,
}

fn child(opts: &Opts, workload: &str, seed: u64, traced: bool) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate the harness: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }]);
    if opts.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a run: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    print!("{stdout}");
    if !out.status.success() {
        return Err(format!("the {workload} run exited with {}", out.status));
    }
    let line = stdout.lines().last().unwrap_or("");
    let doc = layers::json_parse(line)?;
    let mut metrics = BTreeMap::new();
    let names = metrics::END_TO_END
        .iter()
        .map(|m| m.name)
        .chain(metrics::PER_LAYER.iter().map(|m| m.name));
    for name in names {
        if let Some(v) = layers::json_f64(&doc, &["metrics", name, "value"]) {
            metrics.insert(name.to_string(), v);
        }
    }
    Ok(ChildRun {
        workload: workload.to_string(),
        traced,
        correct: layers::json_bool(&doc, &["correct"]) == Some(true),
        failed: layers::json_u64(&doc, &["failed"]).unwrap_or(0),
        metrics,
    })
}

/// Runs the selected workloads as child processes, `--repeat` times each,
/// untraced and then traced, and compares the repeats.
pub fn drive(opts: &Opts) -> Result<bool, String> {
    let workloads: Vec<&str> = match &opts.workload {
        Some(w) => vec![w.as_str()],
        None => metrics::WORKLOADS.iter().map(|w| w.0).collect(),
    };
    let modes: &[bool] = match opts.traced {
        Some(true) => &[true],
        Some(false) => &[false],
        // A smoke comparison stays quick: untraced runs unless asked.
        None if opts.smoke => &[false],
        None => &[false, true],
    };
    let mut runs = Vec::new();
    let seed = opts.seed;
    for i in 0..opts.repeat {
        for w in &workloads {
            for &traced in modes {
                println!(
                    "---- {w}, seed {seed:#x}, {}, run {} of {} ----",
                    if traced { "traced" } else { "untraced" },
                    i + 1,
                    opts.repeat
                );
                runs.push(child(opts, w, seed, traced)?);
            }
        }
    }
    let mut ok = runs.iter().all(|r| r.correct);
    for r in runs.iter().filter(|r| !r.correct) {
        println!(
            "INCORRECT: {} ({}) reported {} failed operation(s)",
            r.workload,
            if r.traced { "traced" } else { "untraced" },
            r.failed
        );
    }
    if opts.repeat < 2 {
        return Ok(ok);
    }

    println!(
        "\n==== comparison of {} runs per workload, same seed ====",
        opts.repeat
    );
    println!(
        "{:<16} {:<36} {:>14} {:>10} {:>8}  verdict",
        "workload", "metric", "median", "rel.diff", "bound"
    );
    for w in &workloads {
        let of = |traced: bool| -> Vec<&ChildRun> {
            runs.iter()
                .filter(|r| r.workload == *w && r.traced == traced)
                .collect()
        };
        for m in &metrics::END_TO_END {
            let vals: Vec<f64> = of(false)
                .iter()
                .filter_map(|r| r.metrics.get(m.name).copied())
                .collect();
            if vals.len() < 2 {
                continue;
            }
            let med = median(&vals);
            // Worst run against the first, in the direction that counts.
            let worst = vals[1..]
                .iter()
                .map(|v| match m.better {
                    Better::Lower => (v - vals[0]) / vals[0],
                    Better::Higher => (vals[0] - v) / vals[0],
                })
                .fold(f64::MIN, f64::max);
            let within = worst <= m.bound;
            let noisy = worst.abs() > 0.1;
            ok &= within;
            println!(
                "{w:<16} {:<36} {med:>14.4} {:>9.2}% {:>7.0}%  {}{}",
                m.name,
                worst * 100.0,
                m.bound * 100.0,
                if within { "within" } else { "OUTSIDE" },
                if noisy {
                    "  WARNING: run-to-run spread above a tenth"
                } else {
                    ""
                }
            );
        }
        let traced_runs = of(true);
        if let Some((first, rest)) = traced_runs.split_first() {
            let mut differing = Vec::new();
            for m in metrics::PER_LAYER.iter().filter(|m| m.exact) {
                if rest
                    .iter()
                    .any(|r| r.metrics.get(m.name) != first.metrics.get(m.name))
                {
                    differing.push(m.name);
                }
            }
            ok &= differing.is_empty();
            println!(
                "{w:<16} deterministic per-layer counts: {}",
                if differing.is_empty() {
                    "agree exactly".to_string()
                } else {
                    format!("DIFFER: {differing:?}")
                }
            );
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_counts_are_the_ones_the_issue_lists() {
        let exact = |name: &str| {
            metrics::PER_LAYER
                .iter()
                .find(|m| m.name == name)
                .unwrap_or_else(|| panic!("no metric {name}"))
                .exact
        };
        for name in [
            "ilp.solves",
            "ilp.pivots",
            "poly.fm_eliminations",
            "core.legality_systems",
            "core.scc_cuts",
            "codegen.c_bytes",
            "machine.instances",
            "machine.sim_cycles_ratio",
            "daemon.cache_evictions",
        ] {
            assert!(exact(name), "{name}");
        }
        // Times, and counts that scheduling of threads can move.
        for name in ["core.search_ms", "machine.dispatches", "pool.spawns"] {
            assert!(!exact(name), "{name}");
        }
    }

    #[test]
    fn spread_note_names_the_highest_supported_percentile() {
        let few: Vec<f64> = (0..50).map(f64::from).collect();
        assert_eq!(spread_note(&few, "x"), "(median of 50 x)");
        let many: Vec<f64> = (0..1000).map(f64::from).collect();
        assert!(spread_note(&many, "x").contains("p99 "));
    }
}
