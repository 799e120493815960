//! Golden tests for the bytecode translation validator (PL008–PL013):
//! every library kernel's compiled form must verify clean against its
//! polyhedral source, and hand-corrupted bytecode — a bumped stride, an
//! out-of-range base, an off-by-one chunk boundary, a truncated or
//! reordered tape, a force-parallelized reduction — must be rejected
//! with the expected code and a concrete witness.

use pluto::{Optimizer, Parallelism};
use pluto_analyze::bytecode::{self, BytecodeInput};
use pluto_analyze::{Code, Diagnostic, Severity};
use pluto_codegen::{generate, original_schedule};
use pluto_frontend::kernels;
use pluto_machine::{chunk_plan, compile_kernel_with_extents, BodyOp, CompiledKernel};
use pluto_repro::compile::{Audit, ExecShape};
use pluto_repro::pluto_schedule;

fn error_codes(diags: &[Diagnostic]) -> Vec<Code> {
    diags
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .map(|d| d.code)
        .collect()
}

fn render(diags: &[Diagnostic]) -> String {
    pluto_analyze::render_text(diags)
}

/// Compiles kernel `k` end to end (optimize → generate → lower) and
/// returns everything the verifier needs.
fn build(
    k: &kernels::Kernel,
    opt: Optimizer,
    params: &[i64],
) -> (pluto::Transformation, pluto_codegen::Ast, CompiledKernel) {
    let optimized = opt.optimize(&k.program).expect("optimize");
    let t = optimized.result.transform;
    let ast = generate(&k.program, &t);
    let ck = compile_kernel_with_extents(&k.program, &ast, params, &(k.extents)(params));
    (t, ast, ck)
}

/// Every library kernel, tiled and wavefronted, must translation-validate
/// clean: the folded accesses, flat bounds, dispatch partitions, and body
/// tapes of the compiled kernel all re-prove against the polyhedral
/// source. (Info-severity stride lints are allowed; errors are not.)
#[test]
fn library_kernels_bytecode_validate_clean() {
    for (name, k) in kernels::all() {
        let params = vec![16i64; k.program.num_params()];
        let (t, ast, ck) = build(&k, Optimizer::new().tile_size(8), &params);
        let diags = bytecode::check(&BytecodeInput {
            program: &k.program,
            transform: &t,
            ast: &ast,
            kernel: &ck,
        });
        assert!(
            error_codes(&diags).is_empty(),
            "{name}: compiled kernel failed translation validation:\n{}",
            render(&diags)
        );
    }
}

/// The audited library entry point: handing `pluto_schedule`'s audit a
/// concrete execution shape must run the bytecode verifier (visible as
/// the `analyze/bytecode` phase in the profile) and still come out clean
/// on a known-good kernel.
#[test]
fn audit_with_exec_shape_runs_the_bytecode_verifier() {
    let k = kernels::seidel_2d();
    let params = vec![6i64, 24];
    let extents = (k.extents)(&params);
    let shape = ExecShape { params, extents };
    let compiled = pluto_schedule(
        &k.program,
        None,
        &Optimizer::new().tile_size(8).wavefront_degrees(2),
        Some(Audit {
            extents: None,
            exec: Some(&shape),
        }),
    )
    .expect("optimize");
    assert!(
        compiled.is_clean(),
        "seidel-2d must be clean under the full audit:\n{}",
        render(&compiled.diagnostics)
    );
    assert!(
        compiled.profile.phase("analyze/bytecode").is_some(),
        "bytecode verification must be attributed to the analyze/bytecode span"
    );
    let accesses = compiled
        .profile
        .counters
        .iter()
        .find(|c| c.name == "analyze.bytecode_accesses")
        .map_or(0, |c| c.value);
    assert!(accesses > 0, "verifier must count re-expanded accesses");
}

/// Corrupting one folded stride, one argument coefficient of a leaf's
/// provenance record, or one hoisted invariant is a miscompile PL008
/// must pin down; for the two access corruptions it names both the
/// re-expanded and the compiled form.
#[test]
fn corrupted_stride_triggers_pl008() {
    let k = kernels::matmul();
    let prog = &k.program;
    let t = original_schedule(prog);
    let ast = generate(prog, &t);
    let params = [10i64];
    let fresh = || compile_kernel_with_extents(prog, &ast, &params, &(k.extents)(&params));
    // In the innermost `k` loop, `A[i][k]` keeps its `k` stride per
    // instance and has its `i` term hoisted to loop entry.
    let a_read = &fresh().leaves[0].reads[1];
    assert_eq!(a_read.strides.len(), 1);
    let hoist = a_read.pre.expect("i term hoisted") as usize;
    type Corrupt = fn(&mut CompiledKernel, usize);
    let corruptions: [(&str, Corrupt, &str); 3] = [
        (
            "folded stride",
            |ck, _| ck.leaves[0].reads[1].strides[0].1 += 1,
            "re-expands to",
        ),
        (
            "hoisted invariant",
            |ck, hoist| ck.hoists[hoist][0].1 += 1,
            "re-expands to",
        ),
        (
            "provenance argument",
            |ck, _| ck.provenance.leaves[0].args[0].terms[0].1 += 1,
            "provenance",
        ),
    ];
    for (what, corrupt, expect) in corruptions {
        let mut ck = fresh();
        corrupt(&mut ck, hoist);
        let diags = bytecode::check(&BytecodeInput {
            program: prog,
            transform: &t,
            ast: &ast,
            kernel: &ck,
        });
        let d = diags
            .iter()
            .find(|d| d.code == Code::BytecodeDivergence)
            .unwrap_or_else(|| panic!("{what}: expected PL008, got:\n{}", render(&diags)));
        assert!(d.message.contains(expect), "{what}: {}", d.message);
    }
    // A hoist that reads the variable of the loop summing it is not an
    // invariant, whatever it adds up to.
    let mut ck = fresh();
    let k_slot = ck.leaves[0].reads[1].strides[0].0;
    ck.hoists[hoist].push((k_slot, 0));
    let diags = bytecode::check(&BytecodeInput {
        program: prog,
        transform: &t,
        ast: &ast,
        kernel: &ck,
    });
    assert!(
        diags
            .iter()
            .any(|d| d.code == Code::BytecodeDivergence && d.message.contains("varies inside")),
        "expected PL008 for the variant hoist, got:\n{}",
        render(&diags)
    );

    // A desynced shape short-circuits to a single PL008 (the lockstep
    // walk would be meaningless).
    let mut ck2 = compile_kernel_with_extents(prog, &ast, &params, &(k.extents)(&params));
    ck2.num_stmts += 1;
    let diags2 = bytecode::check(&BytecodeInput {
        program: prog,
        transform: &t,
        ast: &ast,
        kernel: &ck2,
    });
    assert_eq!(
        error_codes(&diags2),
        vec![Code::BytecodeDivergence],
        "shape mismatch must yield exactly one PL008:\n{}",
        render(&diags2)
    );
}

/// Shifting a compiled base so the flattened offset can reach the array
/// length must be caught by the PL009 emptiness prover, with a witness
/// instance that actually overruns.
#[test]
fn shifted_base_triggers_pl009_with_witness() {
    let k = kernels::matmul();
    let prog = &k.program;
    let t = original_schedule(prog);
    let ast = generate(prog, &t);
    let params = [10i64];
    let mut ck = compile_kernel_with_extents(prog, &ast, &params, &(k.extents)(&params));
    // C is 10×10 (len 100); base 1 pushes instance (i=9, j=9) to
    // offset 100 — exactly one past the end.
    ck.leaves[0].write.base += 1;
    let diags = bytecode::check(&BytecodeInput {
        program: prog,
        transform: &t,
        ast: &ast,
        kernel: &ck,
    });
    let oob = diags
        .iter()
        .find(|d| d.code == Code::BytecodeOob)
        .unwrap_or_else(|| panic!("expected PL009, got:\n{}", render(&diags)));
    assert!(
        !oob.witness.is_empty(),
        "PL009 must carry a witness instance: {}",
        oob.message
    );
    // The witness must genuinely overrun: offset = 1 + 10·i + j >= 100.
    let get = |name: &str| {
        oob.witness
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
            .unwrap_or_else(|| panic!("witness lacks {name}: {:?}", oob.witness))
    };
    assert!(1 + 10 * get("i") + get("j") >= 100, "{:?}", oob.witness);
}

/// An off-by-one chunk boundary breaks the disjoint-exact-cover
/// invariant: `check_cover` must reject it naming the dropped item, and
/// accept the executor's real plans across the whole envelope.
#[test]
fn off_by_one_chunk_boundary_triggers_pl010() {
    let mut plan = chunk_plan(10, 3);
    assert!(plan.len() > 1, "need at least two chunks to corrupt");
    assert!(
        bytecode::check_cover(10, &plan).is_none(),
        "real plan is sound"
    );
    plan[1].0 += 1; // chunk 1 now starts one item late: an item is dropped
    let d = bytecode::check_cover(10, &plan).expect("corrupted plan must be rejected");
    assert_eq!(d.code, Code::ChunkCover);
    assert!(
        d.witness.iter().any(|(n, _)| n == "item"),
        "PL010 must name the uncovered item: {:?}",
        d.witness
    );

    // Overlap and escape are rejected too.
    let mut dup = chunk_plan(10, 3);
    dup[1].0 -= 1;
    assert!(bytecode::check_cover(10, &dup).is_some(), "double cover");
    let mut esc = chunk_plan(10, 3);
    esc.last_mut().unwrap().1 += 1;
    assert!(bytecode::check_cover(10, &esc).is_some(), "escaping chunk");
}

/// Force-marking matmul's reduction (k) loop parallel puts same-cell
/// writes into different work items of one dispatch — PL011 must find
/// the overlapping pair from the compiled strides alone.
#[test]
fn forced_parallel_reduction_triggers_pl011() {
    let k = kernels::matmul();
    let prog = &k.program;
    let mut t = original_schedule(prog);
    // Rows of the 2d+1 schedule: 0 scalar, 1 = i, 2 scalar, 3 = j,
    // 4 scalar, 5 = k. The k loop carries the C[i][j] reduction.
    t.rows[5].par = Parallelism::Parallel;
    for sp in t.stmt_par.iter_mut() {
        sp[5] = Parallelism::Parallel;
    }
    let ast = generate(prog, &t);
    let params = [10i64];
    let ck = compile_kernel_with_extents(prog, &ast, &params, &(k.extents)(&params));
    let diags = bytecode::check(&BytecodeInput {
        program: prog,
        transform: &t,
        ast: &ast,
        kernel: &ck,
    });
    let race = diags
        .iter()
        .find(|d| d.code == Code::ChunkRace)
        .unwrap_or_else(|| panic!("expected PL011, got:\n{}", render(&diags)));
    assert!(
        !race.witness.is_empty(),
        "PL011 must carry a witness instance pair: {}",
        race.message
    );
    assert!(
        race.message.contains('C'),
        "PL011 must name the racing array: {}",
        race.message
    );

    // Control: the same kernel with the genuinely parallel i loop marked
    // must pass — different i means a different row of C.
    let mut t_ok = original_schedule(prog);
    t_ok.rows[1].par = Parallelism::Parallel;
    for sp in t_ok.stmt_par.iter_mut() {
        sp[1] = Parallelism::Parallel;
    }
    let ast_ok = generate(prog, &t_ok);
    let ck_ok = compile_kernel_with_extents(prog, &ast_ok, &params, &(k.extents)(&params));
    let diags_ok = bytecode::check(&BytecodeInput {
        program: prog,
        transform: &t_ok,
        ast: &ast_ok,
        kernel: &ck_ok,
    });
    assert!(
        !diags_ok.iter().any(|d| d.code == Code::ChunkRace),
        "i-parallel matmul must be chunk-race free:\n{}",
        render(&diags_ok)
    );
}

/// A truncated tape (malformed postfix) and a reordered tape (well-formed
/// but computing a different expression) must both trigger PL012.
#[test]
fn corrupted_tape_triggers_pl012() {
    let k = kernels::matmul();
    let prog = &k.program;
    let t = original_schedule(prog);
    let ast = generate(prog, &t);
    let params = [10i64];
    let fresh = || compile_kernel_with_extents(prog, &ast, &params, &(k.extents)(&params));

    let mut truncated = fresh();
    truncated.leaves[0].body.pop();
    let diags = bytecode::check(&BytecodeInput {
        program: prog,
        transform: &t,
        ast: &ast,
        kernel: &truncated,
    });
    let d = diags
        .iter()
        .find(|d| d.code == Code::TapeDivergence)
        .unwrap_or_else(|| panic!("expected PL012 for truncation, got:\n{}", render(&diags)));
    assert!(
        d.message.contains("malformed"),
        "truncation is a malformed tape: {}",
        d.message
    );

    // matmul's body is C + A·B → tape [.., Mul, Add]; swapping the final
    // Add to Sub stays well-formed but computes C − A·B.
    let mut reordered = fresh();
    let last = reordered.leaves[0].body.len() - 1;
    assert!(matches!(reordered.leaves[0].body[last], BodyOp::Add));
    reordered.leaves[0].body[last] = BodyOp::Sub;
    let diags2 = bytecode::check(&BytecodeInput {
        program: prog,
        transform: &t,
        ast: &ast,
        kernel: &reordered,
    });
    assert!(
        diags2.iter().any(|d| d.code == Code::TapeDivergence),
        "expected PL012 for the reordered tape, got:\n{}",
        render(&diags2)
    );
}

/// A transposed copy (`a[j][i]` scanned with `j` innermost) leaves the
/// innermost loop without any stride-1 access — the PL013 lint must flag
/// it with the per-array stride vectors, at Info severity.
#[test]
fn transposed_access_triggers_pl013_stride_lint() {
    let src = "
      params N;
      array a[N][N]; array b[N][N];
      for (i = 0; i <= N - 1; i++)
        for (j = 0; j <= N - 1; j++)
          a[j][i] = b[j][i];
    ";
    let unit = pluto_frontend::parse_unit(src).expect("parse");
    let prog = &unit.program;
    let t = original_schedule(prog);
    let ast = generate(prog, &t);
    let params = [8i64];
    let extents = unit.try_extents(&params).expect("extents");
    let ck = compile_kernel_with_extents(prog, &ast, &params, &extents);
    let diags = bytecode::check(&BytecodeInput {
        program: prog,
        transform: &t,
        ast: &ast,
        kernel: &ck,
    });
    let lint = diags
        .iter()
        .find(|d| d.code == Code::NonUnitStride)
        .unwrap_or_else(|| panic!("expected PL013, got:\n{}", render(&diags)));
    assert_eq!(lint.severity, Severity::Info, "PL013 is informational");
    assert!(
        lint.message.contains("a:") && lint.message.contains("b:"),
        "PL013 must list per-array strides: {}",
        lint.message
    );
    assert!(
        pluto_analyze::is_clean(&diags),
        "the lint must not fail the audit:\n{}",
        render(&diags)
    );
}

/// Schema compatibility: every stable code — including the new
/// PL008–PL013 block — lands in the `--analyze-json` array under its
/// full identifier.
#[test]
fn render_json_covers_all_codes() {
    let codes = [
        (Code::Race, "PL001-race"),
        (Code::Oob, "PL002-oob"),
        (Code::EmptyLoop, "PL003-empty-loop"),
        (Code::RedundantGuard, "PL004-redundant-guard"),
        (Code::OneTripParallel, "PL005-one-trip-parallel"),
        (Code::ShadowedBinding, "PL006-shadowed-binding"),
        (Code::LedgerDivergence, "PL007-ledger-divergence"),
        (Code::BytecodeDivergence, "PL008-bytecode-divergence"),
        (Code::BytecodeOob, "PL009-bytecode-oob"),
        (Code::ChunkCover, "PL010-chunk-cover"),
        (Code::ChunkRace, "PL011-chunk-race"),
        (Code::TapeDivergence, "PL012-tape-divergence"),
        (Code::NonUnitStride, "PL013-nonunit-stride"),
    ];
    let diags: Vec<Diagnostic> = codes
        .iter()
        .map(|&(c, _)| Diagnostic::new(c, "p".into(), "m".into()))
        .collect();
    for (code, s) in codes {
        assert_eq!(code.as_str(), s, "stable identifier changed");
    }
    let doc = pluto_analyze::diagnostics_json(&diags);
    let items = doc.as_array().expect("an array of diagnostics");
    assert_eq!(items.len(), codes.len());
    for (item, (_, s)) in items.iter().zip(codes) {
        assert_eq!(item.get("code").unwrap().as_str(), Some(s));
    }
}
