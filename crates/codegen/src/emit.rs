//! OpenMP C pretty-printer for generated ASTs (the paper's target form,
//! cf. Figs. 3(d), 4(b), 9(c)).

use crate::ast::{AffExpr, Ast, Bound, CondRow, LoopNode};
use pluto_ir::{Expr, Program};
use std::fmt::Write as _;

/// Renders the AST as compilable-looking OpenMP C, with statement macros
/// built from the program's accesses and bodies.
pub fn emit_c(prog: &Program, ast: &Ast) -> String {
    let mut names: Vec<String> = prog.params.clone();
    names.resize(ast.num_vars().max(names.len()), String::new());
    let mut out = String::new();
    out.push_str("#define floord(n,d) (((n) < 0) ? -((-(n)+(d)-1)/(d)) : (n)/(d))\n");
    out.push_str("#define ceild(n,d) (-floord(-(n),(d)))\n");
    out.push_str("#define pmax(a,b) ((a) > (b) ? (a) : (b))\n");
    out.push_str("#define pmin(a,b) ((a) < (b) ? (a) : (b))\n\n");
    for (i, s) in prog.stmts.iter().enumerate() {
        let args = s.iters.join(",");
        let lhs = access_text(prog, s, &s.write);
        let rhs = expr_text(prog, s, &s.body);
        let _ = writeln!(out, "#define S{}({args}) {{ {lhs} = {rhs}; }}", i + 1);
    }
    out.push('\n');
    emit(ast, &mut names, 0, false, &mut out);
    out
}

fn access_text(prog: &Program, s: &pluto_ir::Statement, a: &pluto_ir::Access) -> String {
    let mut t = prog.arrays[a.array].name.clone();
    for row in &a.map {
        t.push('[');
        t.push_str(&affine_text(row, &s.iters, &prog.params));
        t.push(']');
    }
    t
}

fn expr_text(prog: &Program, s: &pluto_ir::Statement, e: &Expr) -> String {
    match e {
        Expr::Read(i) => access_text(prog, s, &s.reads[*i]),
        Expr::Lit(v) => format!("{v}"),
        // Parenthesized: the call site passes an expression.
        Expr::Iter(k) => format!("({})", s.iters[*k]),
        Expr::Add(a, b) => format!("({} + {})", expr_text(prog, s, a), expr_text(prog, s, b)),
        Expr::Sub(a, b) => format!("({} - {})", expr_text(prog, s, a), expr_text(prog, s, b)),
        Expr::Mul(a, b) => format!("({} * {})", expr_text(prog, s, a), expr_text(prog, s, b)),
        Expr::Div(a, b) => format!("({} / {})", expr_text(prog, s, a), expr_text(prog, s, b)),
    }
}

/// Renders a raw affine row over `[iters…, params…, 1]`. Iterators are
/// macro parameters the call site replaces with expressions
/// (`S1(c3,c4-2*c3)`), so one that is scaled or negated is parenthesized.
fn affine_text(row: &[i128], iters: &[String], params: &[String]) -> String {
    let mut t = String::new();
    let push = |t: &mut String, c: i128, name: &str, is_iter: bool| {
        if c == 0 {
            return;
        }
        if !t.is_empty() {
            t.push_str(if c > 0 { "+" } else { "-" });
        } else if c < 0 {
            t.push('-');
        }
        if c.abs() != 1 {
            let _ = write!(t, "{}*", c.abs());
        }
        if is_iter && c != 1 {
            let _ = write!(t, "({name})");
        } else {
            t.push_str(name);
        }
    };
    for (k, it) in iters.iter().enumerate() {
        push(&mut t, row[k], it, true);
    }
    for (k, p) in params.iter().enumerate() {
        push(&mut t, row[iters.len() + k], p, false);
    }
    let c = row[iters.len() + params.len()];
    if c != 0 || t.is_empty() {
        if t.is_empty() {
            let _ = write!(t, "{c}");
        } else {
            let _ = write!(t, "{}{}", if c > 0 { "+" } else { "-" }, c.abs());
        }
    }
    t
}

fn term_text(terms: &[(usize, i128)], konst: i128, names: &[String]) -> String {
    let mut t = String::new();
    for &(v, c) in terms {
        if c == 0 {
            continue;
        }
        if !t.is_empty() {
            t.push_str(if c > 0 { "+" } else { "-" });
        } else if c < 0 {
            t.push('-');
        }
        if c.abs() != 1 {
            let _ = write!(t, "{}*", c.abs());
        }
        t.push_str(&names[v]);
    }
    if konst != 0 || t.is_empty() {
        if t.is_empty() {
            let _ = write!(t, "{konst}");
        } else {
            let _ = write!(t, "{}{}", if konst > 0 { "+" } else { "-" }, konst.abs());
        }
    }
    t
}

fn expr_c(e: &AffExpr, names: &[String], lower: bool) -> String {
    let lin = term_text(&e.terms, e.konst, names);
    if e.div == 1 {
        lin
    } else if lower {
        format!("ceild({lin},{})", e.div)
    } else {
        format!("floord({lin},{})", e.div)
    }
}

fn bound_c(b: &Bound, names: &[String], lower: bool) -> String {
    let inner = if lower { "pmax" } else { "pmin" };
    let outer = if lower { "pmin" } else { "pmax" };
    let groups: Vec<String> = b
        .groups
        .iter()
        .map(|g| {
            let mut it = g.iter().map(|e| expr_c(e, names, lower));
            let first = it.next().expect("non-empty bound group");
            it.fold(first, |acc, x| format!("{inner}({acc},{x})"))
        })
        .collect();
    let mut it = groups.into_iter();
    let first = it.next().expect("non-empty bound");
    it.fold(first, |acc, x| format!("{outer}({acc},{x})"))
}

fn cond_c(c: &CondRow, names: &[String]) -> String {
    let lin = term_text(&c.terms, c.konst, names);
    if c.eq {
        format!("({lin} == 0)")
    } else {
        format!("({lin} >= 0)")
    }
}

/// `in_parallel`: an enclosing loop already carries the `omp parallel
/// for`, which goes on the outermost parallel loop of a nest only
/// (Pluto's `ploog` rule) — a nested region would be serialized or
/// oversubscribe.
fn emit(ast: &Ast, names: &mut Vec<String>, indent: usize, in_parallel: bool, out: &mut String) {
    let pad = "  ".repeat(indent);
    match ast {
        Ast::Seq(v) => {
            for a in v {
                emit(a, names, indent, in_parallel, out);
            }
        }
        Ast::Loop(LoopNode {
            var,
            name,
            lb,
            ub,
            parallel,
            vector,
            unroll,
            level: _,
            body,
        }) => {
            names[*var] = name.clone();
            if *parallel && !in_parallel {
                let _ = writeln!(out, "{pad}#pragma omp parallel for");
            }
            if *vector {
                let _ = writeln!(out, "{pad}#pragma ivdep\n{pad}#pragma vector always");
            }
            if *unroll > 1 {
                let _ = writeln!(out, "{pad}#pragma unroll({unroll})");
            }
            let _ = writeln!(
                out,
                "{pad}for (int {name} = {}; {name} <= {}; {name}++) {{",
                bound_c(lb, names, true),
                bound_c(ub, names, false)
            );
            emit(body, names, indent + 1, in_parallel || *parallel, out);
            let _ = writeln!(out, "{pad}}}");
        }
        Ast::Let {
            var,
            name,
            expr,
            body,
        } => {
            names[*var] = name.clone();
            let _ = writeln!(out, "{pad}{{ int {name} = {};", expr_c(expr, names, false));
            emit(body, names, indent + 1, in_parallel, out);
            let _ = writeln!(out, "{pad}}}");
        }
        Ast::Guard { conds, body } => {
            let cs: Vec<String> = conds.iter().map(|c| cond_c(c, names)).collect();
            let _ = writeln!(out, "{pad}if ({}) {{", cs.join(" && "));
            emit(body, names, indent + 1, in_parallel, out);
            let _ = writeln!(out, "{pad}}}");
        }
        Ast::Filter { stmt, conds, body } => {
            // Hoisted per-statement activity flag (evaluated once here);
            // leaves of this statement test it.
            let cs: Vec<String> = conds.iter().map(|c| cond_c(c, names)).collect();
            let _ = writeln!(
                out,
                "{pad}{{ const int S{}_ok_{indent} = {};",
                stmt + 1,
                cs.join(" && ")
            );
            emit(body, names, indent + 1, in_parallel, out);
            let _ = writeln!(out, "{pad}}}");
        }
        Ast::Stmt { stmt, args } => {
            let args: Vec<String> = args.iter().map(|e| expr_c(e, names, false)).collect();
            let _ = writeln!(out, "{pad}S{}({});", stmt + 1, args.join(","));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn affine_text_formats() {
        let row = vec![1, -2, 0, 3];
        let t = affine_text(&row, &["i".into(), "j".into()], &["N".into()]);
        // `j` is a macro parameter: scaled, it needs its parentheses.
        assert_eq!(t, "i-2*(j)+3");
        assert_eq!(affine_text(&[0, 0], &[], &["N".into()]), "0");
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;
    use crate::ast::{AffExpr, Bound, CondRow};

    #[test]
    fn bound_c_nests_min_max() {
        let names = vec!["N".to_string(), "c1".to_string()];
        let b = Bound {
            groups: vec![
                vec![
                    AffExpr {
                        terms: vec![(1, 1)],
                        konst: 0,
                        div: 1,
                    },
                    AffExpr::constant(0),
                ],
                vec![AffExpr {
                    terms: vec![(0, 1)],
                    konst: -1,
                    div: 2,
                }],
            ],
        };
        let lower = bound_c(&b, &names, true);
        assert_eq!(lower, "pmin(pmax(c1,0),ceild(N-1,2))");
        let upper = bound_c(&b, &names, false);
        assert_eq!(upper, "pmax(pmin(c1,0),floord(N-1,2))");
    }

    #[test]
    fn cond_c_formats_relations() {
        let names = vec!["i".to_string()];
        let ge = CondRow {
            terms: vec![(0, 2)],
            konst: -3,
            eq: false,
        };
        assert_eq!(cond_c(&ge, &names), "(2*i-3 >= 0)");
        let eq = CondRow {
            terms: vec![(0, -1)],
            konst: 0,
            eq: true,
        };
        assert_eq!(cond_c(&eq, &names), "(-i == 0)");
    }

    #[test]
    fn expr_c_rounding_direction() {
        let names = vec!["n".to_string()];
        let e = AffExpr {
            terms: vec![(0, 1)],
            konst: 1,
            div: 4,
        };
        assert_eq!(expr_c(&e, &names, true), "ceild(n+1,4)");
        assert_eq!(expr_c(&e, &names, false), "floord(n+1,4)");
        let plain = AffExpr {
            terms: vec![(0, 3)],
            konst: 0,
            div: 1,
        };
        assert_eq!(expr_c(&plain, &names, true), "3*n");
    }
}
