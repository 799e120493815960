//! Cached-vs-uncached compile differential over the full example-kernel
//! suite.
//!
//! Every compile-time shortcut introduced by the optimizer speed passes —
//! the canonicalized emptiness cache, simplex warm-starting across a
//! band's rows, dependence-candidate pruning, parallel pair analysis
//! (DESIGN.md §11), the canonical row set and the per-search Farkas memo
//! (§11f) — is claimed to be *output-invariant*: it may only
//! skip work whose answer is already determined, never change an answer.
//! This test makes that claim mechanically checkable on all shipped
//! kernels: each one is compiled twice, once with every shortcut enabled
//! and once with every shortcut disabled, and the two compiles must
//! agree bit-for-bit on
//!
//! * the dependence set (edges and polyhedra),
//! * the transformation (schedule rows, bands, parallel marks),
//! * the satisfaction ledger and the `pluto-explain/1` document built
//!   from it, and
//! * the generated OpenMP C.
//!
//! The random-kernel analogue lives in the fuzz oracle
//! (`testkit::check_kernel`), which adds compiled-bytecode equality; this
//! test pins the same property on the named kernels the benchmarks and
//! docs talk about, on 50 generated programs for the search's own
//! shortcuts alone, and pins what those shortcuts save on fdtd-2d.

use pluto::{explain_json, find_transformation, Optimizer, PlutoOptions};
use pluto_frontend::kernels;
use pluto_ir::Program;
use pluto_obs::decision::DecisionEvent;
use pluto_obs::json::Json;
use pluto_obs::ObsSession;
use pluto_repro::compile::{compile, disable_solver_shortcuts};
use testkit::kernelgen::{build, gen_spec, GenConfig};
use testkit::Rng;

/// One full compile at tile size 8 (the plutoc default), returning every
/// artifact the differential compares: dependence fingerprint, explain
/// document (transformation + ledger + decision events), and C output.
fn compile_one(name: &str, prog: &Program, shortcuts: bool) -> (String, Json, String) {
    // Each compile runs under its own session: its decision log and its
    // emptiness-cache store (and the cache on/off toggle) are private to
    // this call, so cached and uncached compiles can't contaminate each
    // other — or any test running concurrently.
    let obs = pluto_obs::ObsSession::builder().decisions().build();
    let _guard = obs.install();
    let mut opt = Optimizer::new().tile_size(8);
    if !shortcuts {
        // The switch `plutoc --no-solver-cache` throws.
        disable_solver_shortcuts(&mut opt);
    }
    let compiled = compile(prog, None, &opt)
        .unwrap_or_else(|e| panic!("{name}: search failed (shortcuts={shortcuts}): {e:?}"));

    let dep_fingerprint = compiled
        .optimized
        .deps
        .iter()
        .map(|d| {
            format!(
                "{}->{} {:?} level {}  {:?}\n",
                d.src, d.dst, d.kind, d.level, d.poly
            )
        })
        .collect::<String>();
    (
        dep_fingerprint,
        compiled.explain_json(name),
        compiled.code(),
    )
}

#[test]
fn shortcuts_are_output_invariant_on_all_example_kernels() {
    for (name, k) in kernels::all() {
        let (deps_on, doc_on, c_on) = compile_one(name, &k.program, true);
        let (deps_off, doc_off, c_off) = compile_one(name, &k.program, false);
        assert_eq!(
            deps_on, deps_off,
            "{name}: dependence sets diverge between cached and uncached compiles"
        );
        assert_eq!(
            doc_on, doc_off,
            "{name}: explain documents (schedule/ledger/events) diverge between \
             cached and uncached compiles"
        );
        assert_eq!(
            c_on, c_off,
            "{name}: generated C diverges between cached and uncached compiles"
        );
    }
}

/// One search with only `PlutoOptions::solver_shortcuts` varied (the
/// emptiness cache and the dependence set are the same on both sides):
/// schedule rows, satisfaction ledger, and the explain document with
/// every decision event — replayed `farkas_eliminated` ones included.
fn search_one(prog: &Program, shortcuts: bool) -> Result<(String, String, Json), String> {
    let obs = ObsSession::builder().decisions().build();
    let _guard = obs.install();
    let deps = Optimizer::new().dependences(prog);
    let opts = PlutoOptions {
        solver_shortcuts: shortcuts,
        ..PlutoOptions::default()
    };
    let res = find_transformation(prog, &deps, &opts).map_err(|e| format!("{e:?}"))?;
    let rows: Vec<_> = res.transform.stmts.iter().map(|s| &s.rows).collect();
    Ok((
        format!("{rows:?}"),
        format!("{:?}", res.satisfied_at),
        explain_json(prog, &deps, &res, &obs.take_decisions(), None),
    ))
}

#[test]
fn search_shortcuts_are_output_invariant_on_generated_programs() {
    let mut rng = Rng::new(0x14FA_2CA5);
    let mut programs: Vec<(String, Program)> = kernels::all()
        .into_iter()
        .map(|(name, k)| (name.to_string(), k.program))
        .collect();
    for case in 0..50 {
        let spec = gen_spec(&mut rng, &GenConfig::default());
        programs.push((format!("generated #{case}"), build(&spec).program));
    }
    for (name, prog) in &programs {
        assert_eq!(
            search_one(prog, true),
            search_one(prog, false),
            "{name}: search with and without solver shortcuts diverges"
        );
    }
}

/// What the canonical row set and the Farkas memo save on fdtd-2d at
/// tile 32 — the kernel whose uniform dependences repeat the most rows.
#[test]
fn fdtd_2d_row_and_elimination_counts() {
    let (_, k) = kernels::all()
        .into_iter()
        .find(|(name, _)| *name == "fdtd-2d")
        .expect("fdtd-2d is a shipped kernel");
    let obs = ObsSession::builder().profile().decisions().build();
    let compiled = {
        let _guard = obs.install();
        compile(&k.program, None, &Optimizer::new().tile_size(32)).expect("fdtd-2d compiles")
    };
    let profile = obs.finish_profile();
    let counter = |name: &str| profile.counter(name).expect("registered counter");
    let assembled = compiled
        .decision_log
        .events
        .iter()
        .find_map(|e| match e {
            DecisionEvent::RowSolved {
                row: 0, ilp_rows, ..
            } => Some(*ilp_rows as u64),
            _ => None,
        })
        .expect("row 0 was solved");
    // 1 503 dependence rows plus one Σc ≥ 1 row per statement.
    assert_eq!(assembled, 1503 + 4);
    // One band, so every dropped row was dropped from row 0's system.
    assert!(assembled - 4 - counter("ilp.rows_dropped") <= 343);
    assert!(counter("core.legality_systems") + counter("core.bounding_systems") <= 101);
    assert_eq!(
        counter("core.legality_systems")
            + counter("core.bounding_systems")
            + counter("core.farkas_memo_hits"),
        192
    );
    assert_eq!(counter("core.search_row_solves"), 3);
    assert!(counter("ilp.solves") <= 250);
}
