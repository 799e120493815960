//! Syntactic post-processing on the generated AST (paper Sec. 6: the
//! annotation-driven register-tiling / unroll-jam pass whose "preview of
//! the potential performance improvement" appears in the MVT experiment).

use crate::ast::Ast;

/// Marks every innermost loop (no loop nested inside) for unrolling by
/// `factor`. Semantics are unchanged — the executor runs the same
/// iterations — but each unrolled chunk pays loop overhead once, the
/// effect register-level unroll-jam has on compiled code.
///
/// Legality needs no extra checking: unrolling never reorders iterations.
///
/// # Panics
/// Panics if `factor == 0`.
pub fn unroll_innermost(ast: &mut Ast, factor: usize) {
    assert!(factor >= 1, "unroll factor must be at least 1");
    mark(ast, factor);
}

/// Returns true if the subtree contains a loop.
fn mark(ast: &mut Ast, factor: usize) -> bool {
    match ast {
        Ast::Seq(v) => {
            let mut any = false;
            for a in v {
                any |= mark(a, factor);
            }
            any
        }
        Ast::Loop(l) => {
            if !mark(&mut l.body, factor) {
                l.unroll = factor;
            }
            true
        }
        Ast::Let { body, .. } | Ast::Guard { body, .. } | Ast::Filter { body, .. } => {
            mark(body, factor)
        }
        Ast::Stmt { .. } => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{AffExpr, Bound, LoopNode};

    fn simple_loop(body: Ast) -> Ast {
        Ast::Loop(LoopNode {
            var: 0,
            name: "c1".into(),
            lb: Bound {
                groups: vec![vec![AffExpr::constant(0)]],
            },
            ub: Bound {
                groups: vec![vec![AffExpr::constant(9)]],
            },
            parallel: false,
            vector: false,
            unroll: 1,
            level: Some(0),
            body: Box::new(body),
        })
    }

    #[test]
    fn marks_only_innermost() {
        let inner = simple_loop(Ast::Stmt {
            stmt: 0,
            args: vec![],
        });
        let mut nest = simple_loop(inner);
        unroll_innermost(&mut nest, 4);
        let Ast::Loop(outer) = &nest else { panic!() };
        assert_eq!(outer.unroll, 1);
        let Ast::Loop(inner) = &*outer.body else {
            panic!()
        };
        assert_eq!(inner.unroll, 4);
    }
}
