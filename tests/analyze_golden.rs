//! Golden tests for the static analyzer: known-good pipelines must come
//! out clean, and deliberately broken fixtures must trigger the expected
//! diagnostic codes with concrete witnesses.

use pluto::{Optimizer, Parallelism};
use pluto_analyze::{analyze, AnalysisInput, Code, Severity};
use pluto_codegen::{generate, original_schedule};
use pluto_frontend::kernels;
use pluto_ir::analyze_dependences;
use pluto_repro::compile::Audit;
use pluto_repro::pluto_schedule;

fn error_codes(diags: &[pluto_analyze::Diagnostic]) -> Vec<Code> {
    diags
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .map(|d| d.code)
        .collect()
}

/// SOR and Seidel — the paper's pipelined-parallelism kernels — must be
/// analyzer-clean after tiling + tile-space wavefronting: every loop the
/// generator marks parallel is independently proved race-free.
#[test]
fn sor_and_seidel_wavefront_are_analyzer_clean() {
    for (name, kernel) in [
        ("sor-2d", kernels::sor_2d()),
        ("seidel-2d", kernels::seidel_2d()),
    ] {
        let compiled = pluto_schedule(
            &kernel.program,
            None,
            &Optimizer::new().tile_size(8).wavefront_degrees(2),
            Some(Audit::default()),
        )
        .unwrap_or_else(|e| panic!("{name}: optimize failed: {e}"));
        assert!(
            compiled.is_clean(),
            "{name}: expected analyzer-clean, got:\n{}",
            pluto_analyze::render_text(&compiled.diagnostics)
        );
    }
}

/// The race detector must agree with codegen's parallel markers on every
/// library kernel, across the pipeline configurations the experiments
/// use. (The detector never reads `stmt_par`; agreement here means the
/// search's verdicts survive an independent re-derivation.)
#[test]
fn race_detector_agrees_with_codegen_on_all_kernels() {
    for (name, kernel) in kernels::all() {
        for (cfg_name, opt) in [
            ("untiled", Optimizer::new().tiling(false)),
            ("tiled", Optimizer::new().tile_size(8)),
            (
                "wavefront",
                Optimizer::new().tile_size(8).wavefront_degrees(2),
            ),
        ] {
            let compiled = pluto_schedule(&kernel.program, None, &opt, Some(Audit::default()))
                .unwrap_or_else(|e| panic!("{name}/{cfg_name}: optimize failed: {e}"));
            let races: Vec<_> = compiled
                .diagnostics
                .iter()
                .filter(|d| d.code == Code::Race)
                .collect();
            assert!(
                races.is_empty(),
                "{name}/{cfg_name}: race detector disagrees with codegen markers:\n{}",
                pluto_analyze::render_text(&compiled.diagnostics)
            );
        }
    }
}

/// Force-marking matmul's reduction (k) loop parallel is a race the
/// detector must flag — and the witness must be a genuine carried pair.
#[test]
fn force_marked_reduction_loop_triggers_pl001() {
    let kernel = kernels::matmul();
    let prog = &kernel.program;
    let deps = analyze_dependences(prog, true);
    let mut t = original_schedule(prog);
    // Rows of the 2d+1 schedule: 0 scalar, 1 = i, 2 scalar, 3 = j,
    // 4 scalar, 5 = k. The k loop carries the C[i][j] reduction.
    let force = |t: &mut pluto::Transformation, row: usize| {
        t.rows[row].par = Parallelism::Parallel;
        for sp in t.stmt_par.iter_mut() {
            sp[row] = Parallelism::Parallel;
        }
    };
    force(&mut t, 5);
    let ast = generate(prog, &t);
    let diags = analyze(&AnalysisInput {
        program: prog,
        deps: &deps,
        transform: &t,
        ast: &ast,
        extents: None,
        param_values: None,
        ledger: None,
    });
    assert!(
        error_codes(&diags).contains(&Code::Race),
        "expected PL001 on the forced-parallel k loop, got:\n{}",
        pluto_analyze::render_text(&diags)
    );
    let race = diags.iter().find(|d| d.code == Code::Race).unwrap();
    assert!(
        !race.witness.is_empty(),
        "PL001 must carry a concrete witness pair"
    );

    // Control: the i loop genuinely is parallel — marking it must be
    // accepted by the same detector.
    let mut t_ok = original_schedule(prog);
    force(&mut t_ok, 1);
    let ast_ok = generate(prog, &t_ok);
    let diags_ok = analyze(&AnalysisInput {
        program: prog,
        deps: &deps,
        transform: &t_ok,
        ast: &ast_ok,
        extents: None,
        param_values: None,
        ledger: None,
    });
    assert!(
        !diags_ok.iter().any(|d| d.code == Code::Race),
        "i loop is parallel; detector must not flag it:\n{}",
        pluto_analyze::render_text(&diags_ok)
    );
}

/// Corrupting the wavefront row's skew (flipping one tile coefficient's
/// sign) breaks the property that the remaining tile loops are parallel —
/// the detector must catch the scattering/marker mismatch.
#[test]
fn flipped_wavefront_skew_triggers_pl001() {
    let kernel = kernels::seidel_2d();
    let prog = &kernel.program;
    let optimized = Optimizer::new()
        .tile_size(8)
        .wavefront_degrees(2)
        .optimize(prog)
        .expect("optimize seidel");
    let mut t = optimized.result.transform.clone();
    // The wavefront row is the first row of the outermost tile band; it
    // sums the band's tile dims. Flip the sign of its last nonzero tile
    // coefficient for every statement.
    let wave_row = t.bands[0].start;
    let mut flipped = false;
    for st in t.stmts.iter_mut() {
        let row = &mut st.rows[wave_row];
        if let Some(last_nz) = (0..row.len()).rev().find(|&j| row[j] != 0) {
            row[last_nz] = -row[last_nz];
            flipped = true;
        }
    }
    assert!(flipped, "no nonzero coefficient found in the wavefront row");
    let ast = generate(prog, &t);
    let diags = analyze(&AnalysisInput {
        program: prog,
        deps: &optimized.deps,
        transform: &t,
        ast: &ast,
        extents: None,
        param_values: None,
        ledger: None,
    });
    assert!(
        error_codes(&diags).contains(&Code::Race),
        "expected PL001 after flipping the wavefront skew, got:\n{}",
        pluto_analyze::render_text(&diags)
    );
}

/// A declared array extent one element too small must trigger PL002 with
/// a witness iteration that actually reaches the bad subscript.
#[test]
fn shrunk_extent_triggers_pl002_with_witness() {
    // a[i+1] with i <= N-2 needs extent N; declare N-1.
    let src = "
      params N;
      array a[N - 1]; array b[N];
      for (i = 0; i <= N - 2; i++)
        b[i] = a[i + 1];
    ";
    let unit = pluto_frontend::parse_unit(src).expect("parse");
    let compiled = pluto_schedule(
        &unit.program,
        None,
        &Optimizer::new().tiling(false),
        Some(Audit {
            extents: Some(unit.extent_rows()),
            exec: None,
        }),
    )
    .expect("optimize");
    let oob: Vec<_> = compiled
        .diagnostics
        .iter()
        .filter(|d| d.code == Code::Oob)
        .collect();
    assert!(
        !oob.is_empty(),
        "expected PL002 for the shrunk extent, got:\n{}",
        pluto_analyze::render_text(&compiled.diagnostics)
    );
    let d = oob[0];
    assert!(
        !d.witness.is_empty(),
        "PL002 must carry a witness iteration"
    );
    assert!(
        d.message.contains('a'),
        "diagnostic should name the array: {}",
        d.message
    );

    // Control: with the correct extent the same program proves clean.
    let ok_src = src.replace("array a[N - 1]", "array a[N]");
    let unit_ok = pluto_frontend::parse_unit(&ok_src).expect("parse");
    let compiled_ok = pluto_schedule(
        &unit_ok.program,
        None,
        &Optimizer::new().tiling(false),
        Some(Audit {
            extents: Some(unit_ok.extent_rows()),
            exec: None,
        }),
    )
    .expect("optimize");
    assert!(
        compiled_ok.is_clean(),
        "correct extents must be clean:\n{}",
        pluto_analyze::render_text(&compiled_ok.diagnostics)
    );
}

/// The lint pass: a guard that is implied by its context, and shadowed
/// binding names, are reported as warnings (never errors).
#[test]
fn lints_report_warnings_not_errors() {
    use pluto_codegen::{AffExpr, Ast, Bound, CondRow, LoopNode};
    let kernel = kernels::matmul();
    let prog = &kernel.program;
    let deps = analyze_dependences(prog, true);
    let t = original_schedule(prog);
    // Hand-built AST: for c1 in 0..=N-1 { if (c1 >= 0) { for c1' ... } }
    // with the inner loop reusing the name `c1`.
    let inner = Ast::Loop(LoopNode {
        var: 2,
        name: "c1".into(),
        lb: Bound {
            groups: vec![vec![AffExpr::constant(0)]],
        },
        ub: Bound {
            groups: vec![vec![AffExpr::constant(0)]],
        },
        parallel: false,
        vector: false,
        unroll: 1,
        level: None,
        body: Box::new(Ast::Seq(vec![])),
    });
    let guarded = Ast::Guard {
        conds: vec![CondRow {
            terms: vec![(1, 1)],
            konst: 0,
            eq: false,
        }],
        body: Box::new(inner),
    };
    let ast = Ast::Loop(LoopNode {
        var: 1,
        name: "c1".into(),
        lb: Bound {
            groups: vec![vec![AffExpr::constant(0)]],
        },
        ub: Bound {
            groups: vec![vec![AffExpr {
                terms: vec![(0, 1)],
                konst: -1,
                div: 1,
            }]],
        },
        parallel: false,
        vector: false,
        unroll: 1,
        level: Some(0),
        body: Box::new(guarded),
    });
    let diags = analyze(&AnalysisInput {
        program: prog,
        deps: &deps,
        transform: &t,
        ast: &ast,
        extents: None,
        param_values: None,
        ledger: None,
    });
    let codes: Vec<Code> = diags.iter().map(|d| d.code).collect();
    assert!(
        codes.contains(&Code::RedundantGuard),
        "c1 >= 0 is implied by the loop bound: {codes:?}"
    );
    assert!(
        codes.contains(&Code::ShadowedBinding),
        "inner `c1` shadows outer `c1`: {codes:?}"
    );
    assert!(
        diags.iter().all(|d| d.severity != Severity::Error),
        "lints are warnings:\n{}",
        pluto_analyze::render_text(&diags)
    );
}

/// `plutoc --analyze-json` prints the array the hand-written emitter of
/// PR 14 printed, key order included: the three shipped examples (all
/// clean, so `[]`) and an out-of-bounds source whose two errors carry
/// ILP witnesses.
#[test]
fn analyze_json_equals_the_parent_fixtures() {
    use pluto_obs::json::parse;
    let dir = env!("CARGO_MANIFEST_DIR");
    let tile32: &[&str] = &["--tile", "32"];
    for (source, flags, fixture) in [
        (
            "examples/jacobi-1d.c",
            tile32,
            include_str!("fixtures/jacobi-1d.analyze.json"),
        ),
        (
            "examples/matmul.c",
            tile32,
            include_str!("fixtures/matmul.analyze.json"),
        ),
        (
            "examples/seidel-2d.c",
            tile32,
            include_str!("fixtures/seidel-2d.analyze.json"),
        ),
        (
            "tests/fixtures/oob.c",
            &["--notile"],
            include_str!("fixtures/oob.analyze.json"),
        ),
    ] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_plutoc"))
            .args(flags)
            .args(["--threads", "1", "--analyze-json"])
            .arg(format!("{dir}/{source}"))
            .output()
            .expect("plutoc runs");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let doc = parse(&stdout).unwrap_or_else(|e| panic!("{source}: {e}\n{stdout}"));
        assert_eq!(
            doc,
            parse(fixture).unwrap(),
            "{source}: diagnostics drifted"
        );
        let errors = fixture.contains("\"severity\": \"error\"");
        assert_eq!(out.status.success(), !errors, "{source}: exit code");
    }
}
