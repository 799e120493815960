//! Cached-vs-uncached compile differential over the full example-kernel
//! suite.
//!
//! Every compile-time shortcut introduced by the optimizer speed pass —
//! the canonicalized emptiness cache, simplex warm-starting across a
//! band's rows, dependence-candidate pruning, and parallel pair analysis
//! (DESIGN.md §11) — is claimed to be *output-invariant*: it may only
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
//! docs talk about.

use pluto::Optimizer;
use pluto_frontend::kernels;
use pluto_ir::Program;
use pluto_repro::compile::{compile, disable_solver_shortcuts};

/// One full compile at tile size 8 (the plutoc default), returning every
/// artifact the differential compares: dependence fingerprint, explain
/// document (transformation + ledger + decision events), and C output.
fn compile_one(name: &str, prog: &Program, shortcuts: bool) -> (String, String, String) {
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
