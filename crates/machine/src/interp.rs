//! The reference evaluator: a recursive tree walk over the loop [`Ast`],
//! sequential only.
//!
//! Everything that ships runs on the bytecode engine (`exec.rs`); this
//! walk exists to be compared against. It shares nothing with
//! `compile.rs` — it evaluates the IR access matrices per instance in
//! `i128`, asserts every subscript against its own extent (the compiled
//! engine checks only the flattened offset), and evaluates statement
//! bodies recursively — so the fuzz oracle, `plutoc --verify` and the
//! benchmark's frozen result digests can treat it as ground truth for
//! the engine.

use crate::arrays::Arrays;
use crate::exec::ExecStats;
use pluto_codegen::{AffExpr, Ast};
use pluto_ir::{Expr, Program};
use pluto_linalg::Int;

/// Pre-lowered per-statement execution info.
struct StmtInfo {
    write_array: usize,
    write_rows: Vec<Vec<Int>>,
    reads: Vec<(usize, Vec<Vec<Int>>)>,
    body: Expr,
    flops: u64,
    n_iters: usize,
}

struct Ctx {
    stmts: Vec<StmtInfo>,
    params: Vec<Int>,
}

impl Ctx {
    fn new(prog: &Program, params: &[i64]) -> Ctx {
        assert_eq!(params.len(), prog.num_params(), "parameter count mismatch");
        let stmts = prog
            .stmts
            .iter()
            .map(|s| StmtInfo {
                write_array: s.write.array,
                write_rows: s.write.map.clone(),
                reads: s.reads.iter().map(|r| (r.array, r.map.clone())).collect(),
                body: s.body.clone(),
                flops: s.body.num_ops() as u64,
                n_iters: s.num_iters(),
            })
            .collect();
        Ctx {
            stmts,
            params: params.iter().map(|&p| p as Int).collect(),
        }
    }
}

/// Scratch buffers reused across statement instances.
#[derive(Default)]
struct Scratch {
    iters: Vec<Int>,
    vp: Vec<Int>,
    reads: Vec<f64>,
    iters_i64: Vec<i64>,
    /// Per-statement suppression depth from enclosing `Filter` nodes.
    suppressed: Vec<u32>,
}

fn eval_row(row: &[Int], vp: &[Int]) -> Int {
    let mut v = row[vp.len()];
    for (k, &x) in vp.iter().enumerate() {
        v += row[k] * x;
    }
    v
}

/// Row-major offset of one access to array `a`, every subscript asserted
/// against its own extent. Forced inline: out of line, `plutoc --verify`
/// measured 4 % slower.
#[inline(always)]
fn offset(a: usize, rows: &[Vec<Int>], extents: &[usize], vp: &[Int]) -> usize {
    let mut off = 0usize;
    for (k, row) in rows.iter().enumerate() {
        let s = eval_row(row, vp);
        let e = extents[k];
        assert!(
            s >= 0 && (s as usize) < e,
            "array {a}: subscript {k} = {s} out of 0..{e}"
        );
        off = off * e + s as usize;
    }
    off
}

fn exec(
    ast: &Ast,
    vals: &mut [Int],
    ctx: &Ctx,
    arrays: &mut Arrays,
    sc: &mut Scratch,
    stats: &mut ExecStats,
) {
    match ast {
        Ast::Seq(v) => {
            for a in v {
                exec(a, vals, ctx, arrays, sc, stats);
            }
        }
        Ast::Loop(l) => {
            let lb = l.lb.eval_lower(vals);
            let ub = l.ub.eval_upper(vals);
            let mut x = lb;
            while x <= ub {
                vals[l.var] = x;
                exec(&l.body, vals, ctx, arrays, sc, stats);
                x += 1;
            }
        }
        Ast::Let {
            var, expr, body, ..
        } => {
            vals[*var] = expr.eval_floor(vals);
            exec(body, vals, ctx, arrays, sc, stats);
        }
        Ast::Guard { conds, body } => {
            if conds.iter().all(|c| c.holds(vals)) {
                exec(body, vals, ctx, arrays, sc, stats);
            }
        }
        Ast::Filter { stmt, conds, body } => {
            let pass = conds.iter().all(|c| c.holds(vals));
            if !pass {
                sc.suppressed[*stmt] += 1;
            }
            exec(body, vals, ctx, arrays, sc, stats);
            if !pass {
                sc.suppressed[*stmt] -= 1;
            }
        }
        Ast::Stmt { stmt, args } => {
            if sc.suppressed[*stmt] == 0 {
                run_stmt(*stmt, args, vals, ctx, arrays, sc, stats);
            }
        }
    }
}

#[inline]
fn run_stmt(
    stmt: usize,
    args: &[AffExpr],
    vals: &[Int],
    ctx: &Ctx,
    arrays: &mut Arrays,
    sc: &mut Scratch,
    stats: &mut ExecStats,
) {
    let info = &ctx.stmts[stmt];
    debug_assert_eq!(args.len(), info.n_iters);
    sc.iters.clear();
    sc.iters_i64.clear();
    sc.vp.clear();
    for arg in args {
        let v = arg.eval_floor(vals);
        sc.iters.push(v);
        sc.iters_i64.push(v as i64);
    }
    sc.vp.extend_from_slice(&sc.iters);
    sc.vp.extend_from_slice(&ctx.params);
    sc.reads.clear();
    for (a, rows) in &info.reads {
        let off = offset(*a, rows, arrays.extents(*a), &sc.vp);
        sc.reads.push(arrays.load(*a, off));
    }
    let v = info.body.eval(&sc.reads, &sc.iters_i64);
    let a = info.write_array;
    let off = offset(a, &info.write_rows, arrays.extents(a), &sc.vp);
    arrays.store(a, off, v);
    stats.instances += 1;
    stats.flops += info.flops;
}

/// Runs the AST sequentially (parallel markers ignored).
pub fn run_sequential(prog: &Program, ast: &Ast, params: &[i64], arrays: &mut Arrays) -> ExecStats {
    let _span = pluto_obs::span("execute/sequential");
    let ctx = Ctx::new(prog, params);
    let mut vals = vec![0; ast.num_vars().max(params.len())];
    vals[..params.len()].copy_from_slice(&ctx.params);
    let mut stats = ExecStats::default();
    let mut sc = Scratch {
        suppressed: vec![0; prog.stmts.len()],
        ..Scratch::default()
    };
    exec(ast, &mut vals, &ctx, arrays, &mut sc, &mut stats);
    pluto_obs::counters::MACHINE_INSTANCES.add(stats.instances);
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::scale_program;
    use pluto_codegen::{generate, original_schedule};

    #[test]
    fn sequential_scale() {
        let prog = scale_program();
        let ast = generate(&prog, &original_schedule(&prog));
        let mut arrays = Arrays::new(vec![vec![8], vec![8]]);
        arrays.seed_with(|a, o| if a == 0 { o as f64 } else { 0.0 });
        let stats = run_sequential(&prog, &ast, &[8], &mut arrays);
        assert_eq!(stats.instances, 8);
        for i in 0..8 {
            assert_eq!(arrays.load(1, i), 2.0 * i as f64);
        }
    }
}
