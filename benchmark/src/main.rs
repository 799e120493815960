//! The pluto-rs benchmark harness. `benchmark/run.sh` builds everything
//! and runs this; see `benchmark/README.md` for what is measured and why.
//!
//! ```text
//! pluto-benchmark --workload W [--seed S] [--seconds N] [--trace 0|1 | --traced] [--smoke]
//! pluto-benchmark [--workload W] [--repeat N] …   runs of child processes
//! ```
//!
//! A run with `--workload` is one measurement: it sets up, measures,
//! verifies, prints every metric by name with its unit, and ends with
//! the one-line JSON result. Without `--workload`, or with `--repeat`,
//! the harness starts such runs as child processes — one after another,
//! never two at once — and compares them.

mod audit;
mod cold;
mod common;
mod exec;
mod gen;
mod kernels;
mod layers;
mod metrics;
mod proc;
mod report;
mod rng;
mod service;
mod setup;
mod stats;
mod trace;
mod verify;

use common::{Ctx, Tally};
use metrics::Values;
use setup::Inputs;
use stats::median;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Tracer;

pub const DEFAULT_SEED: u64 = 0x5EED_2008;

#[derive(Debug, Clone, PartialEq)]
pub struct Opts {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: u64,
    /// `None`: not said — a single run is untraced, a comparison makes both.
    pub traced: Option<bool>,
    pub smoke: bool,
    pub repeat: usize,
    pub freeze_expected: bool,
}

fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

pub fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 20,
        traced: None,
        smoke: false,
        repeat: 1,
        freeze_expected: false,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("{a} expects {what}"))
                .map(String::as_str)
        };
        match a.as_str() {
            "--workload" => {
                let w = value("a workload name")?;
                if !metrics::WORKLOADS.iter().any(|(n, _)| *n == w) {
                    return Err(format!("unknown workload `{w}`"));
                }
                o.workload = Some(w.to_string());
            }
            "--seed" => o.seed = parse_u64(value("a number")?).ok_or("--seed expects a number")?,
            "--seconds" => {
                o.seconds = parse_u64(value("a number")?).ok_or("--seconds expects a number")?
            }
            "--trace" => {
                o.traced = match value("0 or 1")? {
                    "0" => Some(false),
                    "1" => Some(true),
                    other => return Err(format!("--trace expects 0 or 1, got `{other}`")),
                }
            }
            "--traced" => o.traced = Some(true),
            "--smoke" => o.smoke = true,
            "--repeat" => {
                o.repeat = parse_u64(value("a count")?)
                    .filter(|&n| n >= 1)
                    .ok_or("--repeat expects a count of at least 1")?
                    as usize
            }
            "--freeze-expected" => o.freeze_expected = true,
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unexpected argument `{other}`\n{USAGE}")),
        }
    }
    Ok(o)
}

const USAGE: &str =
    "usage: benchmark/run.sh [--workload cold_compile|kernel_exec|service_mix|audit_generated]
                        [--seed S] [--seconds N] [--trace 0|1 | --traced] [--smoke]
                        [--repeat N]
  without --workload every workload runs; --repeat N runs each N times and
  compares the runs";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args == ["--spawner"] {
        // The helper a run starts first (see `proc`): not a benchmark run.
        let served = proc::serve_spawns(std::io::stdin().lock(), std::io::stdout().lock());
        return ExitCode::from(u8::from(served.is_err()));
    }
    let outcome = parse_args(&args).and_then(|opts| {
        if opts.freeze_expected {
            freeze_expected(&opts)
        } else if opts.workload.is_some() && opts.repeat == 1 {
            run(&opts)
        } else {
            report::drive(&opts)
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(msg) => {
            eprintln!("pluto-benchmark: {msg}");
            ExitCode::from(2)
        }
    }
}

fn context(opts: &Opts, spawner: proc::Spawner) -> Result<Ctx, String> {
    if !std::path::Path::new("benchmark/kernels").is_dir() {
        return Err("run from the root of a pluto-rs checkout (benchmark/run.sh does)".to_string());
    }
    let out_dir = std::path::PathBuf::from("benchmark/out");
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("cannot create benchmark/out: {e}"))?;
    Ok(Ctx {
        seed: opts.seed,
        plutoc: proc::sibling_binary("plutoc")?,
        plutod: proc::sibling_binary("plutod")?,
        out_dir,
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        spawner: spawner.into(),
    })
}

/// How much a run does whatever its workload: set-up repetitions and
/// rounds (in each, every workload makes one pass). The workload named
/// on the command line gets the rest of `--seconds` on top.
struct Scale {
    setups: usize,
    rounds: usize,
}

const BASE: Scale = Scale {
    setups: 3,
    rounds: 5,
};

const SMOKE: Scale = Scale {
    setups: 1,
    rounds: 1,
};

/// One measurement run.
fn run(opts: &Opts) -> Result<bool, String> {
    let workload = opts.workload.as_deref().expect("run() needs a workload");
    let traced = opts.traced == Some(true);
    // Before anything is allocated: children report no less than the
    // spawner's peak RSS as theirs.
    let spawner = proc::Spawner::start()?;
    if !proc::fix_mmap_threshold() {
        println!("note: the allocator keeps its moving mmap threshold; kernel run times vary more");
    }
    let ctx = context(opts, spawner)?;
    let scale = if opts.smoke { &SMOKE } else { &BASE };
    let mut tally = Tally::default();
    println!(
        "pluto-benchmark: workload {workload}, seed {:#x}, {} s, {}, {} processor(s)",
        opts.seed,
        opts.seconds,
        if traced { "traced" } else { "untraced" },
        ctx.nproc
    );

    let mut setup_s = Vec::new();
    let mut inputs: Option<Inputs> = None;
    for _ in 0..scale.setups {
        if let Some(mut done) = inputs.take() {
            done.warm.plutod.shutdown()?;
        }
        let start = Instant::now();
        inputs = Some(setup::set_up(&ctx, &mut tally)?);
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let mut inputs = inputs.expect("at least one set-up");
    println!(
        "{:<38} {:>14.4} s      (median of {} set-ups)",
        "setup_s",
        median(&setup_s),
        setup_s.len()
    );

    let mut values = if traced {
        self::traced(&ctx, workload, scale, &mut inputs, &mut tally)?
    } else {
        untraced(&ctx, workload, scale, opts, &mut inputs, &mut tally)?
    };
    if !traced {
        values.insert(0, ("setup_s", median(&setup_s)));
    }
    for (name, v) in &values {
        if !v.is_finite() {
            return Err(format!("metric {name} is not a finite number"));
        }
    }

    println!(
        "attempted {}  failed {}  failed_share {}",
        tally.attempted,
        tally.failed,
        tally.failed as f64 / tally.attempted.max(1) as f64
    );
    for note in &tally.notes {
        println!("  FAILED: {note}");
    }
    let line = metrics::result_line(&values, tally.attempted.max(1), tally.failed);
    let name = format!(
        "result-{workload}{}.json",
        if traced { "-traced" } else { "" }
    );
    std::fs::write(ctx.out_dir.join(name), format!("{line}\n"))
        .map_err(|e| format!("cannot write the result file: {e}"))?;
    println!("{line}");
    Ok(true)
}

/// Stops the daemon and checks that it ended well; returns its peak RSS.
fn stop_daemon(inputs: &mut Inputs, tally: &mut Tally) -> Result<f64, String> {
    let daemon = inputs.warm.plutod.shutdown()?;
    tally.check(daemon.exit_code == Some(0), || {
        format!("plutod exited with {:?}", daemon.exit_code)
    });
    Ok(daemon.peak_rss_mb)
}

/// The timed run: observability off, no spans. Five rounds in which
/// every workload makes one pass, so that every end-to-end metric has a
/// value; the named workload repeats until `--seconds` are over.
fn untraced(
    ctx: &Ctx,
    workload: &str,
    scale: &Scale,
    opts: &Opts,
    inputs: &mut Inputs,
    tally: &mut Tally,
) -> Result<Values, String> {
    let mut cold = cold::ColdSamples::default();
    let mut audit = audit::AuditSamples::default();
    let mut exec = exec::ExecSamples::default();
    let mut serve = service::ServiceSamples::default();
    let mut stream = service::Stream::new(ctx, inputs);
    let mut off = Tracer::off();
    let total = Duration::from_secs(if opts.smoke { 0 } else { opts.seconds });
    let start = Instant::now();

    // Rounds interleave the workloads, so that the few passes of the
    // ones not named are spread over the whole run: a disturbance of a
    // second or two then touches one of their samples, not all of them.
    let mut pass = |leg: &str, inputs: &mut Inputs, tally: &mut Tally| -> Result<(), String> {
        match leg {
            "cold_compile" => cold::pass(ctx, inputs, &mut cold, tally),
            "audit_generated" => audit::pass(ctx, inputs, &mut audit, tally),
            "kernel_exec" => {
                exec::rep(ctx, &inputs.exec, &mut exec, &mut off, tally);
                Ok(())
            }
            _ => service::batch(&mut inputs.warm.plutod, &mut stream, &mut serve, tally),
        }
    };
    for round in 1..=scale.rounds {
        for (leg, _) in metrics::WORKLOADS.iter().filter(|w| w.0 != workload) {
            pass(leg, inputs, tally)?;
        }
        // The named workload: at least once a round, then until this
        // round's share of the measuring time is used up.
        loop {
            pass(workload, inputs, tally)?;
            if start.elapsed() >= total * round as u32 / scale.rounds as u32 {
                break;
            }
        }
    }
    service::finish(&mut inputs.warm.plutod, &stream, tally)?;
    let daemon_rss_mb = stop_daemon(inputs, tally)?;

    report::untraced(&cold, &audit, &exec, &serve, &stream, inputs);
    // Peak RSS of the process the named workload measures: the largest
    // plutoc child, the daemon, or the harness itself.
    let own_rss_mb = proc::own_peak_rss_mb()?;
    let peak_rss_mb = match workload {
        "cold_compile" => cold.peak_rss_mb,
        "audit_generated" => audit.peak_rss_mb,
        "service_mix" => daemon_rss_mb,
        _ => own_rss_mb,
    };
    // A child's figure must be its own: a plutoc that only prints its
    // usage, started now, has to report far less than this process used.
    let idle = ctx.run_plutoc(&["--help"])?;
    tally.check(
        idle.reaped.exit_code == Some(0) && idle.reaped.peak_rss_mb < own_rss_mb / 2.0,
        || {
            format!(
                "an idle plutoc reports a peak RSS of {:.2} MiB, the harness has {own_rss_mb:.2}: \
                 children inherit the figure",
                idle.reaped.peak_rss_mb
            )
        },
    );
    println!(
        "{:<38} {peak_rss_mb:>14.4} MiB    (measured process of {workload}; an idle plutoc \
         reports {:.2}, the spawner itself {:.2}, this harness {own_rss_mb:.2})",
        "peak_rss_mb", idle.reaped.peak_rss_mb, idle.spawner_rss_mb
    );
    Ok(vec![
        ("compile_cold_ms", cold.compile_cold_ms()),
        ("compile_cold_geomean_ms", cold.compile_cold_geomean_ms()),
        ("audit_ms", audit.audit_ms()),
        ("exec_transformed_ms", exec.exec_transformed_ms()),
        ("exec_speedup_geomean", exec.exec_speedup_geomean()),
        ("serve_rps", serve.serve_rps()),
        ("serve_hit_p50_us", serve.hit_p50_us()),
        ("serve_hit_p90_us", serve.hit_p90_us()),
        ("serve_content_p50_ms", serve.content_p50_ms()),
        ("serve_miss_p50_ms", serve.miss_p50_ms()),
        ("peak_rss_mb", peak_rss_mb),
    ])
}

/// The traced run: harness spans around every layer call, the library's
/// own profile recorder on, and the measurements that explain the
/// end-to-end numbers. The named workload gets three times the passes.
fn traced(
    ctx: &Ctx,
    workload: &str,
    scale: &Scale,
    inputs: &mut Inputs,
    tally: &mut Tally,
) -> Result<Values, String> {
    let times = |leg: &str, n: usize| if leg == workload { 3 * n } else { n };
    let light = scale.rounds == 1;
    let mut tr = Tracer::new();

    // Process passes first: what the in-process numbers are compared with.
    let mut cold_proc = cold::ColdSamples::default();
    for _ in 0..if light { 1 } else { 2 } {
        cold::pass(ctx, inputs, &mut cold_proc, tally)?;
    }
    let mut piped = service::ServiceSamples::default();
    let mut stream = service::Stream::new(ctx, inputs);
    let batches = if light { 1 } else { 3 };
    for _ in 0..batches {
        service::batch(&mut inputs.warm.plutod, &mut stream, &mut piped, tally)?;
    }
    service::finish(&mut inputs.warm.plutod, &stream, tally)?;
    stop_daemon(inputs, tally)?;

    // Two compile passes at least: their counts must agree exactly.
    let cold = cold::trace(inputs, &mut tr, times("cold_compile", 2), tally);
    let audit = audit::trace(inputs, &mut tr, times("audit_generated", 1), tally);
    let exec = exec::trace(
        ctx,
        inputs,
        &mut tr,
        times("kernel_exec", if light { 1 } else { 2 }),
        tally,
    )?;
    let serve = service::trace(
        ctx,
        inputs,
        &mut tr,
        times("service_mix", batches * gen::BATCH),
        tally,
    )?;

    let path = ctx.out_dir.join(format!("trace-{workload}.json"));
    std::fs::write(&path, trace::to_json(tr.spans()))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!(
        "trace: {} spans written to {}",
        tr.spans().len(),
        path.display()
    );
    Ok(report::traced(
        &cold_proc, &piped, &cold, &audit, &exec, &serve,
    ))
}

/// Writes `benchmark/expected/kernel_exec.fnv` from the tree-walk
/// reference evaluator on the original schedule, cross-checked on the
/// bytecode engine and against the native references. For the change
/// that defines (or deliberately redefines) the execution workload only:
/// a change that claims a gain never runs this.
fn freeze_expected(opts: &Opts) -> Result<bool, String> {
    let mut tally = Tally::default();
    let mut text = String::from(
        "# Frozen digests of the kernel_exec outputs: FNV-1a over the bit patterns of all\n\
         # arrays after the original schedule ran on the tree-walk reference evaluator.\n\
         # <kernel> <parameters> <seed, hex> <digest, hex>\n",
    );
    for spec in &kernels::EXEC {
        let source = std::fs::read_to_string(kernels::path(spec.name))
            .map_err(|e| format!("cannot read {}: {e}", kernels::path(spec.name)))?;
        for params in [spec.bench_params, spec.l1_params, spec.sim_params] {
            let case = setup::exec_case(spec, params, &source, opts.seed, None, &mut tally)?;
            let mut arrays = exec::fresh_arrays(&case, opts.seed);
            layers::exec_reference(
                &case.program,
                &case.asts[exec::ORIGINAL],
                params,
                &mut arrays,
            );
            let frozen = exec::digest(&arrays);
            for variant in [exec::ORIGINAL, exec::TRANSFORMED] {
                let mut again = exec::fresh_arrays(&case, opts.seed);
                layers::exec(&case.bytecode[variant], &mut again);
                tally.check(exec::digest(&again) == frozen, || {
                    format!(
                        "{} {params:?}: the bytecode engine disagrees with the tree walk",
                        spec.name
                    )
                });
            }
            tally.check(case.expected_digest == frozen, || {
                format!(
                    "{} {params:?}: the native reference disagrees with the tree walk",
                    spec.name
                )
            });
            text.push_str(&verify::Expected::line(
                spec.name, params, opts.seed, frozen,
            ));
        }
    }
    for note in &tally.notes {
        eprintln!("FAILED: {note}");
    }
    if tally.failed > 0 {
        return Ok(false);
    }
    std::fs::write("benchmark/expected/kernel_exec.fnv", &text)
        .map_err(|e| format!("cannot write the expected digests: {e}"))?;
    print!("{text}");
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn contract_arguments_parse() {
        let o = parse_args(&args(
            "--workload service_mix --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(o.workload.as_deref(), Some("service_mix"));
        assert_eq!((o.seed, o.seconds, o.traced), (7, 10, Some(true)));
        let o = parse_args(&args("--seed 0x5EED2009 --trace 0 --smoke --repeat 2")).unwrap();
        assert_eq!(
            (o.seed, o.traced, o.smoke, o.repeat),
            (0x5EED_2009, Some(false), true, 2)
        );
        assert_eq!(parse_args(&[]).unwrap().seed, DEFAULT_SEED);
    }

    #[test]
    fn bad_arguments_are_errors() {
        for bad in [
            "--workload nope",
            "--trace 2",
            "--seed x",
            "--repeat 0",
            "--seconds",
            "extra",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad}");
        }
    }
}
