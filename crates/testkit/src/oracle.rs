//! The differential oracle: run a kernel through the full optimize →
//! codegen pipeline and prove, per kernel, that
//!
//! 1. every transformation the pipeline emits passes the independent
//!    [`validate_legality`] audit (exact ILP emptiness checks, a code path
//!    disjoint from the Farkas-based search), and
//! 2. executing the transformed AST — sequentially, tiled-only, and with
//!    the wavefront-parallel thread team — produces *bit-exact* array
//!    state compared to the original program order.
//!
//! Bit-exactness is the right bar because legality preserves each
//! statement instance's inputs and the per-instance flop order; any
//! divergence at all is a transformation or codegen bug.
//!
//! The fully-optimized variant additionally runs through the engine
//! battery — the tree-walk reference evaluator against the bytecode
//! engine, sequentially ([`run_compiled`]) and on the persistent pool
//! ([`run_parallel`], collapse 2) — and both must agree with the
//! reference bit-exactly. That battery is what proves the one production
//! engine (DESIGN.md §10) equivalent to the reference on every fuzz
//! kernel.
//!
//! On top of the dynamic checks, the fully-optimized variant is pushed
//! through the `pluto_analyze` static verifier (race detector, bounds
//! prover, lints) and the engine's parallel-marker sanitizer
//! ([`run_sanitized`], the same bytecode over a recording memory
//! backend) — a static-vs-dynamic differential: the static prover and the runtime
//! recorder must *both* find every parallel loop race-free.
//!
//! The search and the fully-optimized apply also run under decision
//! recording: the replayed satisfaction ledger
//! ([`DecisionLog::ledger`](pluto_obs::decision::DecisionLog::ledger))
//! must equal the search's own `satisfied_at` map exactly, and is then
//! handed to the analyzer's PL007 cross-check — so every fuzz kernel
//! also differentially tests the telemetry replay.
//!
//! Finally, every kernel is recompiled with all compile-time shortcuts
//! disabled — the canonicalized emptiness cache, simplex warm-starting,
//! dependence-candidate pruning, and parallel pair analysis
//! (DESIGN.md §11) — and the slow path must reproduce the dependence
//! set, transformation, satisfaction ledger, generated AST, and compiled
//! bytecode bit-for-bit. A divergence here means a shortcut changed an
//! answer instead of just skipping work.

use crate::kernelgen::{build, BuiltKernel, KernelSpec};
use pluto::baselines::validate_legality;
use pluto::{Optimizer, Transformation};
use pluto_analyze::{AnalysisInput, Severity};
use pluto_codegen::{generate, original_schedule};
use pluto_ir::{analyze_dependences, analyze_dependences_with, DepAnalysisOptions};
use pluto_linalg::Int;
use pluto_machine::{
    run_compiled, run_parallel, run_sanitized, run_sequential, Arrays, ParallelConfig,
};

/// Which optimizer configurations the oracle exercises.
#[derive(Debug, Clone)]
pub struct OracleConfig {
    /// Tile size for the tiled variants (small, so tile boundaries are
    /// actually crossed at fuzzing sizes).
    pub tile_size: i128,
    /// Thread count for the parallel run.
    pub threads: usize,
}

impl Default for OracleConfig {
    fn default() -> OracleConfig {
        OracleConfig {
            tile_size: 4,
            threads: 3,
        }
    }
}

/// Deterministic initial value for array cell `(array, offset)` — same
/// hash family as `pluto_frontend::kernels::seed_value`, local so the
/// oracle has no frontend dependency.
pub fn seed_value(array: usize, offset: usize) -> f64 {
    let mut z = (array as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(offset as u64)
        .wrapping_add(0xDEAD_BEEF);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    0.5 + (z % 1_000_000) as f64 / 1_000_000.0
}

fn fresh_arrays(k: &BuiltKernel) -> Arrays {
    let mut a = Arrays::new(k.extents.clone());
    a.seed_with(seed_value);
    a
}

/// Runs one kernel through the full differential check.
///
/// Returns `Err` with a human-readable reason naming the failing variant;
/// the fuzz harness turns that into a shrunk minimal kernel plus seed.
pub fn check_kernel(k: &BuiltKernel, cfg: &OracleConfig) -> Result<(), String> {
    let prog = &k.program;
    let deps = analyze_dependences(prog, true);
    // One hyperplane search feeds every variant (`Optimizer::apply`); the
    // search dominates oracle cost and is identical across them anyway.
    // The search and the fully-optimized apply run under this check's
    // own decision-recording session (per-compile scoping: the fuzz
    // harness runs kernels from several test threads without
    // interleaving logs), so the replayed satisfaction ledger can be
    // differenced against the search's own bookkeeping and fed to the
    // analyzer's PL007 check.
    let obs = pluto_obs::ObsSession::builder().decisions().build();
    let obs_guard = obs.install();
    let searched = match pluto::find_transformation(prog, &deps, &pluto::PlutoOptions::default()) {
        Ok(s) => s,
        Err(e) => {
            return Err(format!("search failed: {e:?}"));
        }
    };

    // Variant 3 (built first so its tiling/wavefront/reorder events land
    // in the same log): the full pipeline — tiling + wavefront
    // parallelism + vectorization reorder.
    let full = Optimizer::new()
        .tile_size(cfg.tile_size)
        .wavefront_degrees(2)
        .apply(prog, deps.clone(), searched.clone());
    drop(obs_guard);
    let decision_log = obs.take_decisions();

    // Replay differential: the event stream folded to final row
    // coordinates must reproduce the search's satisfaction map exactly.
    let ledger = decision_log.ledger(deps.len());
    if ledger != full.result.satisfied_at {
        return Err(format!(
            "full: decision-log ledger diverges from the search's satisfaction map\n\
             ledger:       {ledger:?}\nsatisfied_at: {:?}\n{}",
            full.result.satisfied_at,
            full.result.transform.display(prog)
        ));
    }

    // Reference: the original program order, interpreted sequentially.
    let ref_ast = generate(prog, &original_schedule(prog));
    let mut reference = fresh_arrays(k);
    run_sequential(prog, &ref_ast, &k.params, &mut reference);

    let audit = |label: &str, t: &Transformation| -> Result<(), String> {
        let violations = validate_legality(prog, &deps, t);
        if violations.is_empty() {
            Ok(())
        } else {
            Err(format!(
                "{label}: validate_legality audit failed: {violations:?}\n{}",
                t.display(prog)
            ))
        }
    };
    let run_seq = |label: &str, t: &Transformation| -> Result<(), String> {
        let ast = generate(prog, t);
        let mut got = fresh_arrays(k);
        run_sequential(prog, &ast, &k.params, &mut got);
        if got.bitwise_eq(&reference) {
            Ok(())
        } else {
            Err(format!(
                "{label}: sequential execution diverges from original\n{}",
                t.display(prog)
            ))
        }
    };

    // Variant 1: untiled schedule straight out of the search. This is the
    // one variant the exact audit applies to directly — tiled transforms
    // live in a supernode-augmented space, and their legality follows from
    // the audited band's permutability (the paper's tiling/wavefront
    // theorems), which execution equivalence below then re-checks.
    let untiled = Optimizer::new()
        .tiling(false)
        .parallel(false)
        .vectorization(false)
        .apply(prog, deps.clone(), searched.clone());
    audit("untiled", &untiled.result.transform)?;
    run_seq("untiled", &untiled.result.transform)?;

    // Variant 2: tiled, still sequential.
    let tiled = Optimizer::new()
        .tile_size(cfg.tile_size)
        .parallel(false)
        .vectorization(false)
        .apply(prog, deps.clone(), searched);
    run_seq("tiled", &tiled.result.transform)?;

    // Variant 3 (`full`, built above under recording) executed
    // sequentially and by the thread team (collapse 2 exercises two
    // degrees of pipelined parallelism).
    run_seq("full", &full.result.transform)?;
    let ast = generate(prog, &full.result.transform);
    let pcfg = ParallelConfig {
        threads: cfg.threads,
        collapse: 2,
    };
    // The engine battery on the fully-optimized AST: compiled
    // sequential and pooled compiled parallel must each match the
    // tree-walk reference bit-exactly (`run_seq("full")` above covered
    // the reference evaluator itself).
    let mut compiled = fresh_arrays(k);
    run_compiled(prog, &ast, &k.params, &mut compiled);
    if !compiled.bitwise_eq(&reference) {
        return Err(format!(
            "full: compiled sequential execution diverges from original\n{}",
            full.result.transform.display(prog)
        ));
    }
    let mut par = fresh_arrays(k);
    run_parallel(prog, &ast, &k.params, &mut par, pcfg);
    if !par.bitwise_eq(&reference) {
        return Err(format!(
            "full: pooled parallel execution diverges from original\n{}",
            full.result.transform.display(prog)
        ));
    }

    // Static gate: the independent analyzer must find the fully-optimized
    // program clean — no carried dependence under any parallel loop, no
    // out-of-bounds access against the concrete extents at the executed
    // parameter values.
    let extent_rows: Vec<Vec<Vec<Int>>> = k
        .extents
        .iter()
        .map(|dims| {
            dims.iter()
                .map(|&e| {
                    let mut row = vec![0 as Int; prog.num_params() + 1];
                    row[prog.num_params()] = e as Int;
                    row
                })
                .collect()
        })
        .collect();
    let param_values: Vec<Int> = k.params.iter().map(|&p| p as Int).collect();
    let diags = pluto_analyze::analyze(&AnalysisInput {
        program: prog,
        deps: &deps,
        transform: &full.result.transform,
        ast: &ast,
        extents: Some(&extent_rows),
        param_values: Some(&param_values),
        ledger: Some(&ledger),
    });
    if diags.iter().any(|d| d.severity == Severity::Error) {
        return Err(format!(
            "full: static analyzer found errors:\n{}{}",
            pluto_analyze::render_text(&diags),
            full.result.transform.display(prog)
        ));
    }

    // Bytecode gate: the compiled kernel the engines above actually ran
    // must translation-validate against its polyhedral source — access
    // folds, flat bounds, dispatch partition, and body tapes
    // (PL008–PL012; the PL013 stride lint is informational).
    let ck = pluto_machine::compile_kernel_with_extents(prog, &ast, &k.params, &k.extents);
    let bdiags = pluto_analyze::bytecode::check(&pluto_analyze::bytecode::BytecodeInput {
        program: prog,
        transform: &full.result.transform,
        ast: &ast,
        kernel: &ck,
    });
    if bdiags.iter().any(|d| d.severity == Severity::Error) {
        return Err(format!(
            "full: bytecode translation validation failed:\n{}{}",
            pluto_analyze::render_text(&bdiags),
            full.result.transform.display(prog)
        ));
    }

    // Shortcut differential (DESIGN.md §11): recompile with every
    // compile-time shortcut disabled — emptiness cache off,
    // warm-starting off, candidate pruning off, serial pair analysis —
    // and require the slow path to reproduce the dependence set, the
    // transformation, the satisfaction ledger, the generated AST, and
    // the compiled bytecode bit-for-bit. A throwaway session scopes the
    // cache toggle to this block: concurrently running kernels keep
    // their own caches untouched.
    {
        let cold_obs = pluto_obs::ObsSession::builder().build();
        let _cold_guard = cold_obs.install();
        pluto_poly::cache::set_enabled(false);
        let cold = (|| -> Result<(), String> {
            let deps_cold = analyze_dependences_with(
                prog,
                &DepAnalysisOptions {
                    include_input: true,
                    prune: false,
                    threads: 1,
                },
            );
            let same_edges = deps_cold.len() == deps.len()
                && deps_cold.iter().zip(&deps).all(|(a, b)| {
                    a.src == b.src
                        && a.dst == b.dst
                        && a.kind == b.kind
                        && a.level == b.level
                        && a.poly == b.poly
                });
            if !same_edges {
                return Err(format!(
                    "shortcut differential: dependence sets diverge \
                     (pruned: {} edges, unpruned: {} edges)",
                    deps.len(),
                    deps_cold.len()
                ));
            }
            let searched_cold = pluto::find_transformation(
                prog,
                &deps_cold,
                &pluto::PlutoOptions {
                    solver_shortcuts: false,
                    ..pluto::PlutoOptions::default()
                },
            )
            .map_err(|e| format!("shortcut differential: uncached search failed: {e:?}"))?;
            let full_cold = Optimizer::new()
                .tile_size(cfg.tile_size)
                .wavefront_degrees(2)
                .apply(prog, deps_cold, searched_cold);
            if full_cold.result.satisfied_at != full.result.satisfied_at {
                return Err(format!(
                    "shortcut differential: satisfaction ledgers diverge\n\
                     cached:   {:?}\nuncached: {:?}",
                    full.result.satisfied_at, full_cold.result.satisfied_at
                ));
            }
            let t_cold = format!("{:?}", full_cold.result.transform);
            let t_warm = format!("{:?}", full.result.transform);
            if t_cold != t_warm {
                return Err(format!(
                    "shortcut differential: transformations diverge\n\
                     cached:\n{}\nuncached:\n{}",
                    full.result.transform.display(prog),
                    full_cold.result.transform.display(prog)
                ));
            }
            let ast_cold = generate(prog, &full_cold.result.transform);
            if ast_cold != ast {
                return Err("shortcut differential: generated ASTs diverge".to_string());
            }
            let ck_cold =
                pluto_machine::compile_kernel_with_extents(prog, &ast_cold, &k.params, &k.extents);
            if format!("{ck_cold:?}") != format!("{ck:?}") {
                return Err("shortcut differential: compiled bytecode diverges".to_string());
            }
            Ok(())
        })();
        cold?;
    }

    // Dynamic gate: the sanitizer re-executes the same bytecode recording
    // per-iteration read/write sets inside every parallel loop; it must
    // agree with the static verdict (and still produce bit-exact state).
    let mut san = fresh_arrays(k);
    match run_sanitized(prog, &ast, &k.params, &mut san) {
        Ok(_) => {
            if !san.bitwise_eq(&reference) {
                return Err(format!(
                    "full: sanitized execution diverges from original\n{}",
                    full.result.transform.display(prog)
                ));
            }
        }
        Err(violations) => {
            return Err(format!(
                "full: sanitizer found races:\n  {}\n{}",
                violations.join("\n  "),
                full.result.transform.display(prog)
            ));
        }
    }
    Ok(())
}

/// Builds and checks a spec — the property the fuzz harness runs.
pub fn check_spec(spec: &KernelSpec, cfg: &OracleConfig) -> Result<(), String> {
    check_kernel(&build(spec), cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernelgen::{gen_spec, GenConfig};
    use crate::rng::Rng;

    #[test]
    fn generated_kernels_execute_in_bounds() {
        // The interpreter asserts on out-of-bounds subscripts, so simply
        // executing the original schedule validates the extent shifting.
        let cfg = GenConfig::default();
        let mut rng = Rng::new(0x0B5E55);
        for _ in 0..30 {
            let k = build(&gen_spec(&mut rng, &cfg));
            let ast = generate(&k.program, &original_schedule(&k.program));
            let mut arrays = fresh_arrays(&k);
            let stats = run_sequential(&k.program, &ast, &k.params, &mut arrays);
            assert!(stats.instances > 0, "non-degenerate domain");
        }
    }

    #[test]
    fn oracle_passes_a_jacobi_like_spec() {
        use crate::kernelgen::{AccessSpec, RowSpec, StmtSpec};
        // b[i] = 0.5*a[i-1] + 0.25*a[i+1]; a[j] = 0.5*b[j] — the classic
        // stencil shape, hand-written as a spec.
        let row = |offset: i64| RowSpec {
            iter: 0,
            coef: 1,
            second: None,
            nparam: 0,
            offset,
        };
        let spec = KernelSpec {
            arrays: vec![1, 1],
            stmts: vec![
                StmtSpec {
                    depth: 1,
                    write: AccessSpec {
                        array: 1,
                        rows: vec![row(0)],
                    },
                    reads: vec![
                        AccessSpec {
                            array: 0,
                            rows: vec![row(-1)],
                        },
                        AccessSpec {
                            array: 0,
                            rows: vec![row(1)],
                        },
                    ],
                    ops: vec![0, 0],
                    coefs: vec![0, 1],
                },
                StmtSpec {
                    depth: 1,
                    write: AccessSpec {
                        array: 0,
                        rows: vec![row(0)],
                    },
                    reads: vec![AccessSpec {
                        array: 1,
                        rows: vec![row(0)],
                    }],
                    ops: vec![0],
                    coefs: vec![0],
                },
            ],
            shared_outer: false,
            exec_n: 12,
        };
        check_spec(&spec, &OracleConfig::default()).expect("oracle passes");
    }
}
