//! `plutoc` — the source-to-source tool: affine C in, transformed
//! OpenMP-parallel tiled C out, like the original PLuTo.
//!
//! ```text
//! plutoc [options] <file.c | ->        # '-' reads stdin
//!
//!   --tile <n>        tile size (default 32)
//!   --l2 <factor>     add a second tiling level, factor x L1 tiles
//!   --notile          disable tiling
//!   --noparallel      disable parallelization
//!   --nofuse          distribute all strongly connected components
//!   --noinputdeps     ignore read-after-read dependences in the cost fn
//!   --wavefront <m>   degrees of pipelined parallelism (default 1)
//!   --unroll <f>      unroll-jam innermost loops by f (post-pass)
//!   --show-transform  print the statement-wise transformation too
//!   --explain         print the transformation report (rows, bands,
//!                     dependence satisfaction) plus the optimizer's
//!                     decision log to stderr
//!   --explain-json    print the report as a `pluto-explain/1` JSON
//!                     document on stdout *instead of* the C code
//!   --analyze         run the static verifier on the generated code and
//!                     print its report to stderr; exit non-zero if it
//!                     finds an error (race, out-of-bounds access)
//!   --analyze-json    like --analyze, but print the diagnostics as a
//!                     JSON array on stdout *instead of* the C code
//!   --profile         record phase spans + solver counters while
//!                     compiling and print the profile table to stderr
//!                     (glossary in PERFORMANCE.md)
//!   --profile-json    like --profile, but print the profile as
//!                     `pluto-profile/3` JSON on stdout *instead of* the
//!                     C code
//!   --verify <vals>   execute the original code (reference evaluator) and
//!                     the transformed code (bytecode engine) at the given
//!                     comma-separated parameter values (arrays allocated
//!                     from the source's declared extents) and check the
//!                     results are bitwise identical
//!   --trace <out>     execute the transformed code on the thread team
//!                     and write a Chrome Trace Event Format document
//!                     (`trace_event/1`, loadable in Perfetto) to <out>;
//!                     parameter values come from --verify when given,
//!                     else default to 64 each
//!   --threads <n>     thread-team width for --trace runs and parallel
//!                     dependence analysis (default 4)
//!   --no-solver-cache disable every compile-time shortcut — the
//!                     canonicalized emptiness cache, simplex
//!                     warm-starting with its row deduplication and
//!                     Farkas memo, and dependence-candidate pruning
//!                     (DESIGN.md §11). Output-invariant by construction;
//!                     this switch exists for differentials and debugging
//! ```

use pluto::Optimizer;
use pluto_analyze::{diagnostics_json, is_clean, render_text};
use pluto_codegen::{generate, original_schedule, unroll_innermost};
use pluto_frontend::ParsedUnit;
use pluto_machine::{run_compiled, run_parallel, run_sequential, Arrays, ParallelConfig};
use pluto_obs::json::Json;
use pluto_repro::compile::{compile, disable_solver_shortcuts, set_option, ExecShape};
use std::io::Read;
use std::process::ExitCode;

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("plutoc: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<ExitCode, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut opt = Optimizer::new();
    let mut unroll = 1usize;
    let mut show_transform = false;
    let mut do_explain = false;
    let mut explain_json = false;
    let mut do_analyze = false;
    let mut analyze_json = false;
    let mut do_profile = false;
    let mut profile_json = false;
    let mut verify: Option<Vec<i64>> = None;
    let mut trace_out: Option<String> = None;
    let mut threads = 4usize;
    let mut solver_cache = true;
    let mut path: Option<String> = None;

    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            // The code-changing options, shared with `pluto-rpc/1`.
            "--tile" | "--l2" | "--wavefront" => {
                let n = parse_num(&a, it.next())?;
                set_option(&mut opt, &a[2..], &Json::Number(n as f64))?;
            }
            "--notile" | "--noparallel" | "--nofuse" | "--noinputdeps" => {
                set_option(&mut opt, &a[2..], &Json::Bool(true))?;
            }
            "--unroll" => unroll = parse_num(&a, it.next())? as usize,
            "--show-transform" => show_transform = true,
            "--explain" => do_explain = true,
            "--explain-json" => {
                do_explain = true;
                explain_json = true;
            }
            "--analyze" => do_analyze = true,
            "--analyze-json" => {
                do_analyze = true;
                analyze_json = true;
            }
            "--profile" => do_profile = true,
            "--profile-json" => {
                do_profile = true;
                profile_json = true;
            }
            "--verify" => {
                let vals = it.next().unwrap_or_default();
                verify = Some(
                    vals.split(',')
                        .map(|v| v.trim().parse())
                        .collect::<Result<_, _>>()
                        .map_err(|_| "--verify expects comma-separated integers".to_string())?,
                );
            }
            "--trace" => {
                trace_out = Some(it.next().ok_or("--trace expects an output path")?);
            }
            "--threads" => threads = parse_num(&a, it.next())? as usize,
            "--no-solver-cache" => solver_cache = false,
            "--help" | "-h" => {
                eprintln!("usage: plutoc [--tile n] [--l2 f] [--notile] [--noparallel]");
                eprintln!("              [--nofuse] [--noinputdeps] [--wavefront m]");
                eprintln!("              [--unroll f] [--show-transform] [--explain]");
                eprintln!("              [--explain-json] [--analyze] [--analyze-json]");
                eprintln!("              [--profile] [--profile-json]");
                eprintln!("              [--verify v1,v2,…] [--trace out.json]");
                eprintln!("              [--threads n] [--no-solver-cache] <file.c | ->");
                return Ok(ExitCode::SUCCESS);
            }
            other if path.is_none() => path = Some(other.to_string()),
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }

    let claimed: Vec<&str> = [
        ("--analyze-json", analyze_json),
        ("--profile-json", profile_json),
        ("--explain-json", explain_json),
    ]
    .iter()
    .filter(|(_, on)| *on)
    .map(|(f, _)| *f)
    .collect();
    if claimed.len() > 1 {
        return Err(format!(
            "{} both claim stdout; pick one",
            claimed.join(" and ")
        ));
    }

    let source = match path.as_deref() {
        None | Some("-") => {
            let mut buf = String::new();
            std::io::stdin()
                .read_to_string(&mut buf)
                .map_err(|e| format!("failed to read stdin: {e}"))?;
            buf
        }
        Some(p) => std::fs::read_to_string(p).map_err(|e| format!("cannot read `{p}`: {e}"))?,
    };

    // This invocation's observability session, installed before parsing
    // so the "parse" span is captured. The trace recorder is enabled
    // here too (not at the execution block): with it on, every compile
    // phase span emits Begin/End events on tid 0, so the exported
    // document shows the compile timeline next to the runtime
    // wavefronts.
    let obs = {
        let mut b = pluto_obs::ObsSession::builder();
        if do_profile {
            b = b.profile();
        }
        if trace_out.is_some() {
            b = b.trace();
        }
        if do_explain || do_analyze {
            b = b.decisions();
        }
        b.build()
    };
    let _obs_guard = obs.install();

    let unit = pluto_frontend::parse_unit(&source).map_err(|e| e.to_string())?;
    let prog = &unit.program;

    opt = opt.dep_threads(threads);
    if !solver_cache {
        disable_solver_shortcuts(&mut opt);
    }
    let mut compiled =
        compile(prog, None, &opt).map_err(|e| format!("transformation failed: {e}"))?;
    if show_transform {
        eprintln!("{}", compiled.optimized.result.transform.display(prog));
    }
    if unroll > 1 {
        unroll_innermost(&mut compiled.ast, unroll);
    }

    let kernel = match path.as_deref() {
        None | Some("-") => "stdin".to_string(),
        Some(p) => std::path::Path::new(p)
            .file_stem()
            .map_or_else(|| p.to_string(), |s| s.to_string_lossy().into_owned()),
    };

    if explain_json {
        println!("{}", compiled.explain_json(&kernel).to_pretty());
    } else if do_explain {
        let optimized = &compiled.optimized;
        eprint!(
            "{}",
            pluto::explain(prog, &optimized.deps, &optimized.result)
        );
        eprint!("{}", compiled.decision_log.render_text());
    }

    let mut analyzer_failed = false;
    if do_analyze {
        // Bytecode translation validation needs a concrete shape.
        let shape = exec_shape(&unit, verify.as_deref(), "--analyze");
        if let Err(m) = &shape {
            eprintln!("note: bytecode verification skipped: {m}");
        }
        let diags = compiled.audit(Some(unit.extent_rows()), shape.as_ref().ok());
        if analyze_json {
            println!("{}", diagnostics_json(&diags).to_pretty());
        } else {
            eprint!("{}", render_text(&diags));
        }
        analyzer_failed = !is_clean(&diags);
    }
    // The traced execution runs before the session finishes so a
    // combined --profile --trace invocation gets the `exec` section of
    // `pluto-profile/3` filled in from the same run.
    if let Some(out_path) = &trace_out {
        let shape = exec_shape(&unit, verify.as_deref(), "--trace")?;
        let mut arrays = Arrays::new(shape.extents);
        arrays.seed_with(pluto_frontend::kernels::seed_value);
        // The trace recorder has been live since before parsing: the
        // document carries the compile-phase spans recorded since, plus
        // this execution.
        run_parallel(
            prog,
            &compiled.ast,
            &shape.params,
            &mut arrays,
            ParallelConfig {
                threads,
                collapse: opt.wavefront_degrees,
            },
        );
        let trace = obs.take_trace();
        let doc = trace.to_chrome_json().to_pretty() + "\n";
        std::fs::write(out_path, doc).map_err(|e| format!("cannot write `{out_path}`: {e}"))?;
        eprintln!(
            "plutoc: wrote {} trace events on {} timelines to {out_path}",
            trace.events.len(),
            trace.distinct_tids()
        );
    }
    // So does --verify's: the original order on the reference evaluator,
    // the transformed code on the bytecode engine, whose `execute/compile`
    // and `execute/compiled` spans the profile below then lists.
    let verified = match verify.as_deref() {
        Some(values) => {
            let shape = exec_shape(&unit, Some(values), "--verify")?;
            let mut reference = Arrays::new(shape.extents.clone());
            reference.seed_with(pluto_frontend::kernels::seed_value);
            let orig = generate(prog, &original_schedule(prog));
            let st = run_sequential(prog, &orig, &shape.params, &mut reference);
            let mut transformed = Arrays::new(shape.extents);
            transformed.seed_with(pluto_frontend::kernels::seed_value);
            run_compiled(prog, &compiled.ast, &shape.params, &mut transformed);
            Some((st.instances, transformed.bitwise_eq(&reference)))
        }
        None => None,
    };
    if do_profile {
        let profile = obs.finish_profile();
        if profile_json {
            println!("{}", profile.to_json(Some(&kernel)).to_pretty());
        } else {
            eprint!("{}", profile.render_table());
        }
    }
    if !analyze_json && !profile_json && !explain_json {
        print!("{}", compiled.code());
    }
    match verified {
        Some((instances, true)) => eprintln!(
            "plutoc: verified — {instances} instances, transformed output bitwise-identical"
        ),
        Some((_, false)) => {
            return Err("VERIFICATION FAILED — transformed output diverges".to_string());
        }
        None => {}
    }
    Ok(if analyzer_failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

/// The concrete shape `flag`'s execution runs at: parameter values from
/// `--verify`, else 64 each, and the array extents they give. Errors
/// are worded for `flag`.
fn exec_shape(unit: &ParsedUnit, verify: Option<&[i64]>, flag: &str) -> Result<ExecShape, String> {
    let prog = &unit.program;
    let params = verify.map_or_else(|| vec![64; prog.num_params()], <[i64]>::to_vec);
    if params.len() != prog.num_params() {
        let values = if flag == "--verify" {
            "value(s)"
        } else {
            "--verify value(s)"
        };
        return Err(format!(
            "{flag} expects {} {values} for ({})",
            prog.num_params(),
            prog.params.join(", ")
        ));
    }
    let extents = unit
        .try_extents(&params)
        .map_err(|m| format!("{flag}: {m}"))?;
    Ok(ExecShape { params, extents })
}

fn parse_num(flag: &str, v: Option<String>) -> Result<i128, String> {
    let s = v.ok_or_else(|| format!("{flag} expects a number"))?;
    s.parse()
        .map_err(|_| format!("{flag} expects a number, got `{s}`"))
}
