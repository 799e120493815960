//! Quickstart: build a polyhedral program, run the Pluto optimizer, print
//! the transformation and the generated OpenMP C, and verify the
//! transformed program computes exactly what the original does.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use pluto::Optimizer;
use pluto_codegen::{generate, original_schedule};
use pluto_frontend::kernels;
use pluto_machine::{run_sequential, Arrays};
use pluto_repro::pluto_schedule;

fn main() {
    // The paper's flagship example: imperfectly nested 1-d Jacobi (Fig. 3).
    let kernel = kernels::jacobi_1d_imperfect();
    let prog = &kernel.program;
    println!("input program:\n{prog}");

    // Full pipeline: dependence analysis, ILP hyperplane search, tiling,
    // tile-space wavefront, vectorization reorder, code generation.
    let out = pluto_schedule(prog, None, &Optimizer::new().tile_size(32), None)
        .expect("jacobi transforms");
    println!(
        "transformation found:\n{}",
        out.compiled.optimized.transform().display(prog)
    );

    // Show the OpenMP C (cf. the paper's Fig. 3(d)).
    println!("generated code:\n{}", out.code);
    let ast = &out.compiled.ast;

    // Execute both versions and compare bitwise.
    let params = [20i64, 500]; // T, N
    let mut reference = Arrays::new((kernel.extents)(&params));
    reference.seed_with(kernels::seed_value);
    let orig_ast = generate(prog, &original_schedule(prog));
    let st = run_sequential(prog, &orig_ast, &params, &mut reference);

    let mut transformed = Arrays::new((kernel.extents)(&params));
    transformed.seed_with(kernels::seed_value);
    let st2 = run_sequential(prog, ast, &params, &mut transformed);

    assert_eq!(st.instances, st2.instances);
    assert!(
        transformed.bitwise_eq(&reference),
        "transformed execution must match the original exactly"
    );
    println!(
        "verified: {} statement instances, transformed result bitwise-identical ✓",
        st.instances
    );
}
