//! Kernels shared by the unit tests of this crate.

use pluto_codegen::{generate, original_schedule, Ast};
use pluto_ir::{Expr, Program, ProgramBuilder, StatementSpec};

/// `for i in 0..N { b[i] = 2 * a[i] }`
pub(crate) fn scale_program() -> Program {
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

/// The original-order AST of a one-loop program with its loop marked
/// `parallel` whether or not that is legal.
pub(crate) fn forced_parallel(prog: &Program) -> Ast {
    let mut t = original_schedule(prog);
    t.rows[1].par = pluto::Parallelism::Parallel;
    for sp in t.stmt_par.iter_mut() {
        sp[1] = pluto::Parallelism::Parallel;
    }
    generate(prog, &t)
}
