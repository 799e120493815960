//! Structural "golden" checks on generated code for the paper's code
//! figures (3, 4, 9): not byte-for-byte snapshots (bound simplification
//! may evolve) but the load-bearing structure — pragmas, tile loops,
//! floord/ceild bounds, statement macros, point guards.

use pluto::Optimizer;
use pluto_codegen::{emit_c, generate, original_schedule};
use pluto_frontend::kernels;

fn generate_c(k: &kernels::Kernel, opt: &Optimizer) -> String {
    let o = opt.optimize(&k.program).expect("optimizes");
    let ast = generate(&k.program, &o.result.transform);
    emit_c(&k.program, &ast)
}

#[test]
fn fig3_jacobi_tiled_code_structure() {
    let k = kernels::jacobi_1d_imperfect();
    let c = generate_c(&k, &Optimizer::new().tile_size(256).parallel(false));
    // Statement macros as in Fig. 3's listings.
    assert!(c.contains("#define S1(t,i)"), "S1 macro");
    assert!(c.contains("#define S2(t,j)"), "S2 macro");
    assert!(c.contains("0.333"), "stencil coefficient");
    // Tile-size-256 bounds and exact division helpers.
    assert!(c.contains("256"), "tile size appears in bounds");
    assert!(c.contains("floord("), "floord bounds");
    assert!(c.contains("ceild("), "ceild bounds");
    // Both statements appear in a shared (fused) innermost region.
    assert!(c.contains("S1(") && c.contains("S2("));
}

#[test]
fn fig4_sor_wavefront_code_structure() {
    let k = kernels::sor_2d();
    let c = generate_c(&k, &Optimizer::new().tile_size(32));
    // The wavefronted tile band: sequential outer tile loop, parallel
    // inner tile loop (Fig. 4(b)).
    let pragma_pos = c.find("#pragma omp parallel for").expect("omp pragma");
    let first_for = c.find("for (int c1").expect("outer tile loop");
    assert!(
        pragma_pos > first_for,
        "the parallel pragma must be on an inner loop (pipelined wavefront)"
    );
    assert!(c.contains("S1(i,j)") || c.contains("S1("), "statement call");
}

#[test]
fn fig9_lu_point_split_structure() {
    let k = kernels::lu();
    let c = generate_c(&k, &Optimizer::new().tile_size(32));
    // The sunk statement S1 is emitted under a point region (a Let binding
    // of the scattering dim) with a hoisted activity condition — the
    // `if (c1 == c2+c3)`-style guard of Fig. 9(c).
    assert!(c.contains("S1_ok") || c.contains("== 0"), "S1 point guard");
    assert!(c.contains("#pragma omp parallel for"), "pipelined parallel");
    assert!(c.contains("S2("), "update statement");
    // The division macro header is present exactly once.
    assert_eq!(c.matches("#define floord").count(), 1);
}

/// Extracts the header of the first `for` loop over `cvar`, e.g. `"c2"`.
fn loop_header<'a>(c: &'a str, cvar: &str) -> &'a str {
    let start = c
        .find(&format!("for (int {cvar}"))
        .unwrap_or_else(|| panic!("no loop over {cvar}:\n{c}"));
    let end = c[start..].find('{').expect("loop body brace");
    &c[start..start + end]
}

#[test]
fn fig13_sor_wavefront_tile_space_code() {
    // Fig. 13: the tiled wavefront for SOR. The tile band (iT, jT) is
    // wavefronted into (iT+jT, jT): a sequential outer wavefront loop and
    // a parallel inner tile loop whose bounds depend on the wavefront.
    let k = kernels::sor_2d();
    let o = Optimizer::new()
        .tile_size(32)
        .optimize(&k.program)
        .expect("optimizes");
    let t = o.result.transform.display(&k.program).to_string();
    assert!(t.contains("iT + jT"), "wavefront row is the tile sum:\n{t}");
    let c = emit_c(&k.program, &generate(&k.program, &o.result.transform));
    // The wavefront loop itself carries no pragma…
    let c1 = loop_header(&c, "c1");
    assert!(
        !c[..c.find(c1).unwrap()].contains("#pragma omp"),
        "outer wavefront loop must be sequential:\n{c}"
    );
    // …the inner tile loop does, and its bounds are pipelined (they
    // reference the wavefront iterator) with exact division helpers.
    let pragma = c.find("#pragma omp parallel for").expect("omp pragma");
    let c2_pos = c.find("for (int c2").expect("inner tile loop");
    assert!(pragma < c2_pos, "pragma annotates the inner tile loop");
    let c2 = loop_header(&c, "c2");
    assert!(
        c2.contains("c1"),
        "inner tile bounds depend on wavefront: {c2}"
    );
    assert!(
        c2.contains("ceild(") && c2.contains("floord("),
        "Fig. 13 floord/ceild wavefront bounds: {c2}"
    );
    // Point loops scan 32-sized tiles.
    assert!(
        c.contains("32*c1") || c.contains("32*c2"),
        "tile origin bounds"
    );
}

#[test]
fn fig13_seidel_wavefront_tile_space_code() {
    // Seidel's t, t+i, t+j band tiles into a 3-d tile space whose
    // wavefront exposes a parallel tile dimension, same shape as Fig. 13.
    let k = kernels::seidel_2d();
    let o = Optimizer::new()
        .tile_size(32)
        .optimize(&k.program)
        .expect("optimizes");
    let c = emit_c(&k.program, &generate(&k.program, &o.result.transform));
    let pragma = c.find("#pragma omp parallel for").expect("omp pragma");
    assert!(
        pragma > c.find("for (int c1").expect("wavefront loop"),
        "wavefront loop stays sequential:\n{c}"
    );
    assert!(pragma < c.find("for (int c2").expect("tile loop"));
    let c2 = loop_header(&c, "c2");
    assert!(
        c2.contains("c1") && c2.contains("ceild("),
        "parallel tile loop has pipelined ceild bounds: {c2}"
    );
    // The statement is called with its arguments over the point loops,
    // the skew substituted away — CLooG's `S1(c3,c4-2*c3)` form.
    assert!(
        c.contains("S1(c4,c5-c4,c6-c4);"),
        "statement call takes its arguments:\n{c}"
    );
    // Nothing binds an iterator per instance: no recovered `t`/`i`/`j`,
    // no supernode nothing reads, no constant for the scalar row.
    assert!(!c.contains("{ int "), "no per-instance binding:\n{c}");
}

/// Fig. 3(d): the two statements of the tiled jacobi are called with
/// arguments, and a bound names each operand once.
#[test]
fn fig3_jacobi_calls_take_arguments_and_bounds_are_canonical() {
    let k = kernels::jacobi_1d_imperfect();
    let c = generate_c(&k, &Optimizer::new().tile_size(32).parallel(false));
    assert!(c.contains("S1(c3,c4-2*c3);"), "{c}");
    assert!(c.contains("S2(c3,c4-2*c3-1);"), "{c}");
    assert!(!c.contains("int tT"), "supernodes are never bound:\n{c}");
    // The guard-free kernel loop: the union of both statements' rows,
    // each operand once with the tighter constant.
    assert!(
        c.contains("for (int c4 = pmax(2*c3+3,32*c2); c4 <= pmin(2*c3+N-2,32*c2+31); c4++)"),
        "canonical kernel bounds:\n{c}"
    );
}

/// Pluto's `ploog` rule: the `omp parallel for` goes on the outermost
/// parallel loop of a nest only (matmul's `c1`; `c2`, `c4` and `c6` are
/// parallel too and used to repeat it), the vector loop keeps `ivdep`.
#[test]
fn parallel_pragma_marks_the_outermost_parallel_loop_only() {
    let k = kernels::matmul();
    let c = generate_c(&k, &Optimizer::new().tile_size(32));
    assert_eq!(c.matches("#pragma omp parallel for").count(), 1, "{c}");
    let pragma = c.find("#pragma omp parallel for").unwrap();
    let first_loop = c.find("for (int").unwrap();
    assert!(
        pragma < first_loop,
        "the pragma is on the outermost loop:\n{c}"
    );
    assert_eq!(c.matches("#pragma ivdep").count(), 1, "{c}");
}

#[test]
fn vectorize_pass_emits_ivdep() {
    let k = kernels::matmul();
    let c = generate_c(&k, &Optimizer::new().tile_size(16).vectorization(true));
    assert!(
        c.contains("#pragma ivdep"),
        "Sec. 5.4 reorder should mark the innermost parallel loop:\n{c}"
    );
}

#[test]
fn original_schedule_emits_plain_nest() {
    let k = kernels::matmul();
    let ast = generate(&k.program, &original_schedule(&k.program));
    let c = emit_c(&k.program, &ast);
    // Three nested loops, no pragmas, no tiling artifacts.
    assert!(!c.contains("#pragma"));
    assert!(!c.contains("T ="), "no tile dims");
    assert_eq!(c.matches("for (").count(), 3, "{c}");
}

#[test]
fn unrolled_code_has_pragma() {
    let k = kernels::matmul();
    let o = Optimizer::new().tile_size(16).optimize(&k.program).unwrap();
    let mut ast = generate(&k.program, &o.result.transform);
    pluto_codegen::unroll_innermost(&mut ast, 4);
    let c = emit_c(&k.program, &ast);
    assert!(c.contains("#pragma unroll(4)"), "{c}");
}
