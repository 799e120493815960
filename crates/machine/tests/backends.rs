//! The bytecode engine's memory backends and parallel-header meanings
//! on hand-built ASTs: control flow the engine decides once (filters,
//! nested `parallel` headers) must come out the same whichever backend
//! the one interpreter loop is instantiated over.

use pluto_codegen::{AffExpr, Ast, Bound, CondRow, LoopNode};
use pluto_ir::{Expr, Program, ProgramBuilder, StatementSpec};
use pluto_machine::{
    run_compiled, run_parallel, run_sanitized, run_sequential, run_with_cache, Arrays, CacheConfig,
    ParallelConfig,
};

/// The value of variable `v`, as a statement argument.
fn var(v: usize) -> AffExpr {
    AffExpr {
        terms: vec![(v, 1)],
        konst: 0,
        div: 1,
    }
}

/// `for var in 0..=N-1 { body }` (`N` is parameter slot 0).
fn loop_over_n(var: usize, name: &str, parallel: bool, body: Ast) -> Ast {
    Ast::Loop(LoopNode {
        var,
        name: name.into(),
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
        parallel,
        vector: false,
        unroll: 1,
        level: None,
        body: Box::new(body),
    })
}

/// `for i, j in 0..N { a[j] = a[j] + 1 }`: every `i` rewrites the whole
/// row, so iterations of `i` conflict and iterations of `j` never do.
fn row_update() -> Program {
    let mut b = ProgramBuilder::new("row-update", &["N"]);
    b.add_context_ineq(vec![1, -1]);
    b.add_array("a", 1);
    b.add_statement(StatementSpec {
        name: "S1".into(),
        iters: vec!["i".into(), "j".into()],
        domain_ineqs: vec![
            vec![1, 0, 0, 0],
            vec![-1, 0, 1, -1],
            vec![0, 1, 0, 0],
            vec![0, -1, 1, -1],
        ],
        beta: vec![0, 0, 0],
        write: ("a".into(), vec![vec![0, 1, 0, 0]]),
        reads: vec![("a".into(), vec![vec![0, 1, 0, 0]])],
        body: Expr::Read(0) + Expr::Lit(1.0),
    });
    b.build()
}

/// Two nested `parallel` loops nest two sanitizer frames: the inner one
/// is opened afresh per outer iteration, so a conflict that only exists
/// across outer iterations is reported against the outer loop alone.
#[test]
fn sanitizer_blames_the_outer_of_two_nested_parallel_loops() {
    let prog = row_update();
    let leaf = Ast::Stmt {
        stmt: 0,
        args: vec![var(1), var(2)],
    };
    let ast = loop_over_n(1, "outer", true, loop_over_n(2, "inner", true, leaf));
    let mut arrays = Arrays::new(vec![vec![6]]);
    arrays.seed_with(|_, o| o as f64);
    let mut reference = arrays.clone();
    let violations = run_sanitized(&prog, &ast, &[6], &mut arrays).unwrap_err();
    assert!(!violations.is_empty());
    for v in &violations {
        assert!(v.contains("parallel loop `outer`"), "{v}");
        assert!(!v.contains("`inner`"), "{v}");
    }
    // Reporting never changes what is computed.
    run_sequential(&prog, &ast, &[6], &mut reference);
    assert!(arrays.bitwise_eq(&reference));

    // Control: with only the inner loop marked there is nothing to report.
    let leaf = Ast::Stmt {
        stmt: 0,
        args: vec![var(1), var(2)],
    };
    let ast = loop_over_n(1, "outer", false, loop_over_n(2, "inner", true, leaf));
    let stats = run_sanitized(&prog, &ast, &[6], &mut arrays).expect("inner loop is race-free");
    assert_eq!((stats.instances, stats.parallel_regions), (36, 6));
}

/// `for i in 0..N { b[i] = 2 * a[i] }`
fn scale() -> Program {
    let mut b = ProgramBuilder::new("scale", &["N"]);
    b.add_context_ineq(vec![1, -1]);
    b.add_array("a", 1);
    b.add_array("b", 1);
    b.add_statement(StatementSpec {
        name: "S1".into(),
        iters: vec!["i".into()],
        domain_ineqs: vec![vec![1, 0, 0], vec![-1, 1, -1]],
        beta: vec![0, 0],
        write: ("b".into(), vec![vec![1, 0, 0]]),
        reads: vec![("a".into(), vec![vec![1, 0, 0]])],
        body: Expr::Lit(2.0) * Expr::Read(0),
    });
    b.build()
}

/// A `Filter` is evaluated once, above the loop; when it fails the leaf
/// under it executes no instance and touches no memory — through every
/// backend, as on the reference evaluator.
#[test]
fn failing_filter_suppresses_the_leaf_on_every_backend() {
    let prog = scale();
    let filtered = |konst| Ast::Filter {
        stmt: 0,
        // `konst >= 0`
        conds: vec![CondRow {
            terms: vec![],
            konst,
            eq: false,
        }],
        body: Box::new(loop_over_n(
            1,
            "i",
            true,
            Ast::Stmt {
                stmt: 0,
                args: vec![var(1)],
            },
        )),
    };
    let mut seed = Arrays::new(vec![vec![40], vec![40]]);
    seed.seed_with(|a, o| (a * 5 + o) as f64);
    let pcfg = ParallelConfig {
        threads: 3,
        collapse: 1,
    };
    for (konst, expect) in [(-1, 0u64), (0, 40)] {
        let ast = filtered(konst);
        let mut reference = seed.clone();
        let stats = run_sequential(&prog, &ast, &[40], &mut reference);
        assert_eq!(stats.instances, expect, "reference, konst {konst}");
        assert_eq!(reference.bitwise_eq(&seed), expect == 0);

        let mut direct = seed.clone();
        let stats = run_compiled(&prog, &ast, &[40], &mut direct);
        assert_eq!(stats.instances, expect, "Direct, konst {konst}");
        assert!(direct.bitwise_eq(&reference));

        let mut raw = seed.clone();
        let stats = run_parallel(&prog, &ast, &[40], &mut raw, pcfg);
        assert_eq!(stats.instances, expect, "RawMem, konst {konst}");
        assert!(raw.bitwise_eq(&reference));

        let mut cached = seed.clone();
        let (stats, cache) =
            run_with_cache(&prog, &ast, &[40], &mut cached, CacheConfig::default());
        assert_eq!(stats.instances, expect, "Cached, konst {konst}");
        assert_eq!(cache.accesses, 2 * expect);
        assert!(cached.bitwise_eq(&reference));

        let mut san = seed.clone();
        let stats = run_sanitized(&prog, &ast, &[40], &mut san).expect("race-free");
        assert_eq!(stats.instances, expect, "SanMem, konst {konst}");
        assert!(san.bitwise_eq(&reference));
    }
}
