//! The scanning algorithm: recursive per-dimension generation.

use crate::ast::{AffExpr, Ast, Bound, CondRow, LoopNode};
use pluto::{Band, Parallelism, RowInfo, RowKind, StmtScattering, Transformation};
use pluto_ir::Program;
use pluto_linalg::Int;
use pluto_poly::ConstraintSet;

/// A raw guard row at one scattering level:
/// `(terms-without-var, konst, var coefficient, is-equality)`.
type GuardRow = (Vec<(usize, Int)>, Int, Int, bool);

/// A linear form over AST variables: `(terms, constant)`.
type Lin = (Vec<(usize, Int)>, Int);

/// What a scattering dimension equals along the current path: the
/// variable of the loop (or point-region `Let`) scanning it, or the
/// constant of a scalar row.
#[derive(Clone, Copy)]
enum Scat {
    Var(usize),
    Const(Int),
}

/// Adds `c·v` into `terms`, merging with an existing term over `v`.
fn add_term(terms: &mut Vec<(usize, Int)>, v: usize, c: Int) {
    if c == 0 {
        return;
    }
    match terms.iter_mut().find(|t| t.0 == v) {
        Some(t) => t.1 += c,
        None => terms.push((v, c)),
    }
}

/// The rows of `cs`, each tagged with whether it is an equality.
fn tagged_rows(cs: &ConstraintSet) -> Vec<(Vec<Int>, bool)> {
    let ineqs = cs.ineqs().iter().map(|r| (r.clone(), false));
    ineqs
        .chain(cs.eqs().iter().map(|r| (r.clone(), true)))
        .collect()
}

/// `x` from `a·x + terms + konst == 0`: `(−terms − konst) / a` with the
/// divisor made positive. Exact on integer points; from an inequality
/// the same expression bounds `x` from below (`a > 0`, rounded up) or
/// from above (`a < 0`, rounded down).
fn solve(terms: &[(usize, Int)], konst: Int, a: Int) -> AffExpr {
    let sign = -a.signum();
    AffExpr {
        terms: terms.iter().map(|&(v, c)| (v, sign * c)).collect(),
        konst: sign * konst,
        div: a.abs(),
    }
}

/// The guard rows `grows` as conditions on `var`, the variable scanning
/// their level.
fn rows_on<'g>(var: usize, grows: impl Iterator<Item = &'g GuardRow>) -> Vec<CondRow> {
    grows
        .map(|(terms, konst, a, is_eq)| {
            let mut t = terms.clone();
            t.push((var, *a));
            CondRow {
                terms: t,
                konst: *konst,
                eq: *is_eq,
            }
        })
        .collect()
}

/// `body` under `conds` in canonical form (just `body` when there are
/// none).
fn guarded(conds: Vec<CondRow>, body: Ast) -> Ast {
    if conds.is_empty() {
        return body;
    }
    Ast::Guard {
        conds: CondRow::canonical(conds),
        body: Box::new(body),
    }
}

/// `body` with statement `stmt` filtered by `conds` in canonical form.
fn filtered(stmt: usize, conds: Vec<CondRow>, body: Ast) -> Ast {
    if conds.is_empty() {
        return body;
    }
    Ast::Filter {
        stmt,
        conds: CondRow::canonical(conds),
        body: Box::new(body),
    }
}

/// Generates the loop AST scanning all statements of `prog` in the
/// lexicographic order of their scatterings.
///
/// # Panics
/// Panics if a scattering dimension is unbounded (the parameter context
/// must bound every domain) — indicates a malformed transformation.
pub fn generate(prog: &Program, t: &Transformation) -> Ast {
    let _span = pluto_obs::span("codegen");
    let ast = Gen::new(prog, t).run();
    if pluto_obs::enabled() {
        pluto_obs::counters::CODEGEN_LOOPS.add(ast.stats().loops as u64);
    }
    ast
}

/// Builds the identity transformation reproducing the *original* program
/// order from the statements' `beta` vectors (the classic 2d+1 schedule:
/// `β0, i1, β1, …, id, βd`). Running it through [`generate`] and the
/// machine substrate executes the untransformed program — the paper's
/// native-compiler baseline.
pub fn original_schedule(prog: &Program) -> Transformation {
    let np = prog.num_params();
    let maxd = prog.stmts.iter().map(|s| s.num_iters()).max().unwrap_or(0);
    let nrows = 2 * maxd + 1;
    let mut stmts = Vec::with_capacity(prog.stmts.len());
    for s in &prog.stmts {
        let d = s.num_iters();
        let width = d + np + 1;
        let mut rows = Vec::with_capacity(nrows);
        for r in 0..nrows {
            let mut row = vec![0; width];
            if r % 2 == 0 {
                // Scalar row: beta position (0 beyond the statement depth).
                let j = r / 2;
                if j < s.beta.len() {
                    row[width - 1] = s.beta[j];
                }
            } else {
                let j = r / 2;
                if j < d {
                    row[j] = 1;
                }
            }
            rows.push(row);
        }
        stmts.push(StmtScattering { rows });
    }
    let rows: Vec<RowInfo> = (0..nrows)
        .map(|r| RowInfo {
            kind: if r % 2 == 0 {
                RowKind::Scalar
            } else {
                RowKind::Loop
            },
            par: Parallelism::Sequential,
            tile_level: 0,
            skewed: false,
        })
        .collect();
    let stmt_par = Transformation::uniform_stmt_par(&rows, prog.stmts.len());
    Transformation {
        stmts,
        domains: prog.stmts.iter().map(|s| s.domain.clone()).collect(),
        dim_names: prog.stmts.iter().map(|s| s.iters.clone()).collect(),
        num_orig_dims: prog.stmts.iter().map(|s| s.num_iters()).collect(),
        rows,
        stmt_par,
        bands: Vec::<Band>::new(),
    }
}

struct Gen<'a> {
    prog: &'a Program,
    t: &'a Transformation,
    nrows: usize,
    np: usize,
    /// Per-statement domain dimensionality (supernodes + originals).
    ndims: Vec<usize>,
    /// Extended systems over `[c_0..c_R-1, dims, params, 1]`.
    ext: Vec<ConstraintSet>,
    /// `projc[s][k]`: projection onto `[c_0..c_k, params, 1]`.
    projc: Vec<Vec<ConstraintSet>>,
    next_var: usize,
    /// The scattering dims along the current path.
    c_vars: Vec<Scat>,
}

impl<'a> Gen<'a> {
    fn new(prog: &'a Program, t: &'a Transformation) -> Gen<'a> {
        let np = prog.num_params();
        let nrows = t.num_rows();
        let nstmts = prog.stmts.len();
        let mut ndims = Vec::with_capacity(nstmts);
        let mut ext = Vec::with_capacity(nstmts);
        for s in 0..nstmts {
            let d = t.domains[s].num_vars() - np;
            ndims.push(d);
            let width = nrows + d + np + 1;
            // Lift the domain and add one equality per scattering row.
            let mut e = t.domains[s].insert_dims(0, nrows);
            // Parameter context.
            let ctx = prog.context.insert_dims(0, nrows + d);
            e = e.intersect(&ctx);
            for (r, srow) in t.stmts[s].rows.iter().enumerate() {
                let mut row = vec![0; width];
                row[r] = -1;
                row[nrows..nrows + d + np + 1].copy_from_slice(&srow[..d + np + 1]);
                e.add_eq(row);
            }
            ext.push(e);
        }
        // Projection chains: first drop the domain dims, then peel the
        // scattering dims from the back.
        let mut projc = Vec::with_capacity(nstmts);
        for s in 0..nstmts {
            let mut chain = vec![ConstraintSet::new(0); nrows];
            let mut cur = ext[s].project_out(nrows, ndims[s]);
            cur = compact(cur);
            for k in (0..nrows).rev() {
                chain[k] = cur.clone();
                if k > 0 {
                    cur = compact(cur.project_out(k, 1));
                }
            }
            projc.push(chain);
        }
        Gen {
            prog,
            t,
            nrows,
            np,
            ndims,
            ext,
            projc,
            next_var: np,
            c_vars: Vec::new(),
        }
    }

    fn run(mut self) -> Ast {
        let active: Vec<usize> = (0..self.prog.stmts.len()).collect();
        self.rec(0, &active)
    }

    fn alloc(&mut self) -> usize {
        let v = self.next_var;
        self.next_var += 1;
        v
    }

    /// Maps a projection row (over `[c_0..c_k, params, 1]`) into AST terms.
    fn row_terms(&self, row: &[Int], k: usize, skip: usize) -> (Vec<(usize, Int)>, Int) {
        let mut terms = Vec::new();
        let mut konst = row[k + 1 + self.np];
        for (j, &coef) in row.iter().enumerate().take(k + 1) {
            if j != skip && coef != 0 {
                match self.c_vars[j] {
                    Scat::Var(v) => terms.push((v, coef)),
                    Scat::Const(c) => konst += coef * c,
                }
            }
        }
        for p in 0..self.np {
            if row[k + 1 + p] != 0 {
                terms.push((p, row[k + 1 + p]));
            }
        }
        (terms, konst)
    }

    fn rec(&mut self, level: usize, active: &[usize]) -> Ast {
        if active.is_empty() {
            return Ast::Seq(Vec::new());
        }
        if level == self.nrows {
            return self.leaves(active);
        }
        if self.t.rows[level].kind == RowKind::Scalar {
            return self.scalar_level(level, active);
        }
        self.loop_level_with(level, active, &[], &[])
    }

    fn scalar_level(&mut self, level: usize, active: &[usize]) -> Ast {
        // Group by the row's constant value (scalar rows have no variable
        // coefficients by construction).
        let mut groups: Vec<(Int, Vec<usize>)> = Vec::new();
        for &s in active {
            let srow = &self.t.stmts[s].rows[level];
            let nd = self.ndims[s];
            debug_assert!(
                srow[..nd + self.np].iter().all(|&v| v == 0),
                "scalar row with variable coefficients"
            );
            let c = srow[nd + self.np];
            match groups.iter_mut().find(|(v, _)| *v == c) {
                Some((_, g)) => g.push(s),
                None => groups.push((c, vec![s])),
            }
        }
        groups.sort_by_key(|(v, _)| *v);
        let mut seq = Vec::with_capacity(groups.len());
        for (c, group) in groups {
            // No variable: the constant folds into every row below that
            // mentions this dimension.
            self.c_vars.push(Scat::Const(c));
            seq.push(self.rec(level + 1, &group));
            self.c_vars.pop();
        }
        if seq.len() == 1 {
            seq.pop().expect("single group")
        } else {
            Ast::Seq(seq)
        }
    }

    /// Emits the loop(s) for `level` over `active`, with optional extra
    /// bound expressions capping the range (used by the degenerate-point
    /// splitting below).
    fn loop_level_with(
        &mut self,
        level: usize,
        active: &[usize],
        extra_lb: &[AffExpr],
        extra_ub: &[AffExpr],
    ) -> Ast {
        // Per-statement bound expressions and raw guard rows at this level.
        let mut lowers_per: Vec<Vec<AffExpr>> = Vec::with_capacity(active.len());
        let mut uppers_per: Vec<Vec<AffExpr>> = Vec::with_capacity(active.len());
        let mut grows_per: Vec<Vec<GuardRow>> = Vec::new();
        for &s in active {
            let proj = &self.projc[s][level];
            let mut lowers = Vec::new();
            let mut uppers = Vec::new();
            let mut grows = Vec::new();
            for (row, is_eq) in tagged_rows(proj) {
                let a = row[level];
                if a == 0 {
                    continue;
                }
                let (terms, konst) = self.row_terms(&row, level, level);
                if a > 0 || is_eq {
                    lowers.push(solve(&terms, konst, a));
                }
                if a < 0 || is_eq {
                    uppers.push(solve(&terms, konst, a));
                }
                // Guard-row parts: (terms-without-var, konst, var coeff, eq).
                grows.push((terms, konst, a, is_eq));
            }
            assert!(
                !lowers.is_empty() && !uppers.is_empty(),
                "statement {s}: unbounded scattering dimension c{}",
                level + 1
            );
            lowers_per.push(lowers);
            uppers_per.push(uppers);
            grows_per.push(grows);
        }

        // Cap every statement's range with the region bounds, if any.
        for e in extra_lb {
            for l in lowers_per.iter_mut() {
                l.push(e.clone());
            }
        }
        for e in extra_ub {
            for u in uppers_per.iter_mut() {
                u.push(e.clone());
            }
        }

        // A loop is parallel iff it is parallel for every statement that
        // actually shares it (the active set is exactly one fission group).
        let parallel = active
            .iter()
            .all(|&s| self.t.par_for(s, level) != Parallelism::Sequential);
        let vector = parallel
            && active
                .iter()
                .all(|&s| self.t.par_for(s, level) == Parallelism::Vector);
        let name = format!("c{}", level + 1);
        let node = |var: usize, lb: Bound, ub: Bound, body: Ast| {
            Ast::Loop(LoopNode {
                var,
                name: name.clone(),
                lb,
                ub,
                parallel,
                vector,
                unroll: 1,
                level: Some(level),
                body: Box::new(body),
            })
        };

        // Single statement, or all statements with identical bounds: one
        // guard-free loop over the (common) range.
        let bounds_uniform = lowers_per.iter().all(|l| *l == lowers_per[0])
            && uppers_per.iter().all(|u| *u == uppers_per[0]);
        if active.len() == 1 || bounds_uniform {
            let var = self.alloc();
            self.c_vars.push(Scat::Var(var));
            let body = self.rec(level + 1, active);
            self.c_vars.pop();
            return node(
                var,
                Bound::lower(vec![lowers_per[0].clone()]),
                Bound::upper(vec![uppers_per[0].clone()]),
                body,
            );
        }

        // A statement whose range at this level is a single point (an
        // equality row, e.g. LU's sunk S1 with c3 == c1, or FDTD's S1)
        // would stretch the shared loop's bounds across the whole union
        // and force guards on every iteration. Split the range around the
        // point instead — before / at / after — so the other statements
        // scan their own exact bounds and the point region reduces to a
        // guarded single instance (CLooG's `if (c1 == c2+c3)` structure in
        // the paper's Fig. 9(c)).
        if active.len() > 1 {
            let degen = (0..active.len()).find(|&ai| grows_per[ai].iter().any(|(_, _, _, eq)| *eq));
            if let Some(ai) = degen {
                return self.split_on_point(level, active, ai, &grows_per, extra_lb, extra_ub);
            }
        }

        // Prologue/kernel/epilogue separation only pays off when every
        // statement covers essentially the same range up to constant
        // shifts (fusion alignment, as in Figs. 3/7); with genuinely
        // different shapes the kernel intersection can be empty and the
        // split would double-scan the range. It also multiplies the code
        // 3x per level, so — like CLooG's -f/-l control used in the paper
        // ("cloog -f 3 -l 5") — we only separate the *innermost* loop
        // level, where iterations (and thus guard evaluations) dominate;
        // outer levels use per-statement activity filters, evaluated once
        // per iteration of that loop.
        let innermost = (level + 1..self.nrows).all(|r| self.t.rows[r].kind != RowKind::Loop);
        if !innermost || !shifted_uniform(&lowers_per) || !shifted_uniform(&uppers_per) {
            let var = self.alloc();
            self.c_vars.push(Scat::Var(var));
            let mut body = self.rec(level + 1, active);
            // Per-statement activity conditions, evaluated once per
            // iteration of *this* loop (not per instance below it).
            for (ai, &s) in active.iter().enumerate() {
                let own = grows_per[ai]
                    .iter()
                    .filter(|g| !grows_per.iter().all(|other| other.contains(g)));
                body = filtered(s, rows_on(var, own), body);
            }
            self.c_vars.pop();
            return node(
                var,
                Bound::lower(lowers_per),
                Bound::upper(uppers_per),
                body,
            );
        }

        // Statements share the loop with differing bounds: split the range
        // into prologue / kernel / epilogue (the classic CLooG separation
        // visible in the paper's Fig. 3(d)). The kernel — where *every*
        // statement's bounds hold by construction (max of lowers, min of
        // uppers) — runs guard-free; the boundary loops carry per-statement
        // guard rows.
        let all_lowers: Vec<AffExpr> = lowers_per.iter().flatten().cloned().collect();
        let all_uppers: Vec<AffExpr> = uppers_per.iter().flatten().cloned().collect();

        // Prologue: [union lb, kernel lb − 1]. max(lowers) − 1 as an upper
        // bound: one singleton group per (ceil-)lower converted to a floor
        // expression (ceil(n/d) − 1 == floor((n−1)/d)).
        let prologue_ub = Bound::upper(
            all_lowers
                .iter()
                .map(|e| {
                    let mut g = vec![AffExpr {
                        terms: e.terms.clone(),
                        konst: e.konst - 1,
                        div: e.div,
                    }];
                    // Enclosing region caps apply to the boundary loops too
                    // (min within the group).
                    g.extend(extra_ub.iter().cloned());
                    g
                })
                .collect(),
        );
        // Epilogue: [kernel ub + 1, union ub]. min(uppers) + 1 as a lower
        // bound: singleton groups per (floor-)upper converted to a ceil
        // expression (floor(n/d) + 1 == ceil((n+1)/d)).
        let epilogue_lb = Bound::lower(
            all_uppers
                .iter()
                .map(|e| {
                    let mut g = vec![AffExpr {
                        terms: e.terms.clone(),
                        konst: e.konst + 1,
                        div: e.div,
                    }];
                    g.extend(extra_lb.iter().cloned());
                    g
                })
                .collect(),
        );

        let mut seq = Vec::with_capacity(3);
        for region in 0..3 {
            let var = self.alloc();
            self.c_vars.push(Scat::Var(var));
            let mut body = self.rec(level + 1, active);
            if region != 1 {
                for (ai, &s) in active.iter().enumerate() {
                    body = filtered(s, rows_on(var, grows_per[ai].iter()), body);
                }
            }
            self.c_vars.pop();
            let (lb, ub) = match region {
                0 => (Bound::lower(lowers_per.clone()), prologue_ub.clone()),
                1 => (
                    Bound::lower(vec![all_lowers.clone()]),
                    Bound::upper(vec![all_uppers.clone()]),
                ),
                _ => (epilogue_lb.clone(), Bound::upper(uppers_per.clone())),
            };
            if region == 2 {
                // Guard against re-executing the overlap when the kernel is
                // empty (kernel lb − 1 >= kernel ub + 1): the epilogue only
                // owns iterations with c >= max(lowers), i.e. d·c − n >= 0
                // for every lower expression.
                let conds: Vec<CondRow> = all_lowers
                    .iter()
                    .map(|e| {
                        let mut terms: Vec<(usize, Int)> =
                            e.terms.iter().map(|&(v, c)| (v, -c)).collect();
                        terms.push((var, e.div));
                        CondRow {
                            terms,
                            konst: -e.konst,
                            eq: false,
                        }
                    })
                    .collect();
                body = guarded(conds, body);
            }
            seq.push(node(var, lb, ub, body));
        }
        Ast::Seq(seq)
    }

    /// Splits a shared loop level around a statement whose range is a
    /// single point `p` (it has an equality row): regions `c < p`, `c ==
    /// p`, `c > p` in order. The other statements scan their exact bounds
    /// in the outer regions; the point region is a `Let` with per-statement
    /// guards — the structure CLooG emits for LU's sunk S1 (Fig. 9(c)).
    #[allow(clippy::type_complexity)]
    fn split_on_point(
        &mut self,
        level: usize,
        active: &[usize],
        d_ai: usize,
        grows_per: &[Vec<GuardRow>],
        extra_lb: &[AffExpr],
        extra_ub: &[AffExpr],
    ) -> Ast {
        let d = active[d_ai];
        let rest: Vec<usize> = active.iter().copied().filter(|&s| s != d).collect();
        let (terms, konst, a, _) = grows_per[d_ai]
            .iter()
            .find(|(_, _, _, eq)| *eq)
            .expect("degenerate statement has an equality row")
            .clone();
        let p = solve(&terms, konst, a);
        // The point region executes c = floord(n, d) (the `Let` below), so
        // the complements are relative to the *floor*: as a floor-evaluated
        // upper bound, q − 1 = floord(n − d, d); as a ceil-evaluated lower
        // bound, q + 1 = ceild(n + 1, d). (Using n + d for the latter is
        // wrong at non-divisible points: ceild(n + d, d) = q + 2.)
        let p_minus_1 = AffExpr {
            konst: p.konst - p.div,
            ..p.clone()
        };
        let p_plus_1 = AffExpr {
            konst: p.konst + 1,
            ..p.clone()
        };

        // Region 1: c < p.
        let mut ub1 = extra_ub.to_vec();
        ub1.push(p_minus_1);
        let r1 = self.loop_level_with(level, &rest, extra_lb, &ub1);

        // Region 2: c == p -- a single guarded instance of every statement.
        let var = self.alloc();
        self.c_vars.push(Scat::Var(var));
        let mut body2 = self.rec(level + 1, active);
        for (ai, &s) in active.iter().enumerate() {
            // Every statement keeps its own rows at this level as an
            // activity filter (for `d` these include tile/context
            // constraints linking the point to outer dims, and the
            // divisibility of the equality).
            body2 = filtered(s, rows_on(var, grows_per[ai].iter()), body2);
        }
        self.c_vars.pop();
        // Region-wide caps (from enclosing splits) on the point itself.
        let mut conds = Vec::new();
        for e in extra_lb {
            let mut t: Vec<(usize, Int)> = e.terms.iter().map(|&(v, c)| (v, -c)).collect();
            t.push((var, e.div));
            conds.push(CondRow {
                terms: t,
                konst: -e.konst,
                eq: false,
            });
        }
        for e in extra_ub {
            let mut t: Vec<(usize, Int)> = e.terms.clone();
            t.push((var, -e.div));
            conds.push(CondRow {
                terms: t,
                konst: e.konst,
                eq: false,
            });
        }
        let r2 = Ast::Let {
            var,
            name: format!("c{}", level + 1),
            expr: p.clone(),
            body: Box::new(guarded(conds, body2)),
        };

        // Region 3: c > p.
        let mut lb3 = extra_lb.to_vec();
        lb3.push(p_plus_1);
        let r3 = self.loop_level_with(level, &rest, &lb3, extra_ub);

        Ast::Seq(vec![r1, r2, r3])
    }

    /// Innermost: recover each active statement's domain dims and emit it.
    fn leaves(&mut self, active: &[usize]) -> Ast {
        let mut order: Vec<usize> = active.to_vec();
        order.sort_unstable();
        let mut seq = Vec::with_capacity(order.len());
        for s in order {
            seq.push(self.leaf(s));
        }
        if seq.len() == 1 {
            seq.pop().expect("single leaf")
        } else {
            Ast::Seq(seq)
        }
    }

    /// Rewrites an extended-system row (over `[c…, dims, params, 1]`) as
    /// a linear form over AST variables, substituting what the scattering
    /// dims and the bound domain dims equal; `None` if the row mentions an
    /// unbound dim other than `skip_dim`.
    fn substitute(
        &self,
        row: &[Int],
        dim_val: &[Option<Lin>],
        skip_dim: Option<usize>,
    ) -> Option<Lin> {
        let nd = dim_val.len();
        let mut terms = Vec::new();
        let mut konst = row[self.nrows + nd + self.np];
        for (j, &coef) in row[..self.nrows].iter().enumerate() {
            match self.c_vars[j] {
                Scat::Var(v) => add_term(&mut terms, v, coef),
                Scat::Const(c) => konst += coef * c,
            }
        }
        for d in 0..nd {
            let coef = row[self.nrows + d];
            if Some(d) == skip_dim || coef == 0 {
                continue;
            }
            let (dterms, dkonst) = dim_val[d].as_ref()?;
            for &(v, c) in dterms {
                add_term(&mut terms, v, coef * c);
            }
            konst += coef * dkonst;
        }
        for p in 0..self.np {
            add_term(&mut terms, p, row[self.nrows + nd + p]);
        }
        terms.retain(|t| t.1 != 0);
        Some((terms, konst))
    }

    fn leaf(&mut self, s: usize) -> Ast {
        let nd = self.ndims[s];
        let width = self.nrows + nd + self.np + 1;
        // What each domain dim equals: the substituted solution of a
        // unit-coefficient scattering equality (nothing is emitted for
        // it), or the variable a `Let`/loop below binds.
        let mut dim_val: Vec<Option<Lin>> = vec![None; nd];
        // The lets and loops around the leaf, outermost first.
        let mut wraps: Vec<Box<dyn FnOnce(Ast) -> Ast>> = Vec::new();
        let mut conds: Vec<CondRow> = Vec::new();
        let mut any_loop = false;

        let eqs: Vec<Vec<Int>> = self.ext[s].eqs().to_vec();
        loop {
            // Fixed point: resolve every dim an equality now determines
            // (order-independent — a wavefronted scattering like
            // c1 = kT + jT determines kT only after c2 = jT resolves jT).
            let mut progress = true;
            while progress {
                progress = false;
                for d in 0..nd {
                    if dim_val[d].is_some() {
                        continue;
                    }
                    for row in &eqs {
                        let a = row[self.nrows + d];
                        if a == 0 {
                            continue;
                        }
                        let Some((terms, konst)) = self.substitute(row, &dim_val, Some(d)) else {
                            continue;
                        };
                        let solved = solve(&terms, konst, a);
                        dim_val[d] = Some(if solved.div == 1 {
                            (solved.terms, solved.konst)
                        } else {
                            // Not affine: bind the floord and guard that
                            // the equality holds exactly.
                            let var = self.alloc();
                            let name = self.t.dim_names[s][d].clone();
                            wraps.push(Box::new(move |body| Ast::Let {
                                var,
                                name,
                                expr: solved,
                                body: Box::new(body),
                            }));
                            let mut gterms = terms;
                            gterms.push((var, a));
                            conds.push(CondRow {
                                terms: gterms,
                                konst,
                                eq: true,
                            });
                            (vec![(var, 1)], 0)
                        });
                        progress = true;
                        break;
                    }
                }
            }
            let Some(d) = (0..nd).find(|&d| dim_val[d].is_none()) else {
                break;
            };
            // Fall back to a loop over dim d: bounds from the projection
            // of the extended system onto [c…, dims..=d, params].
            any_loop = true;
            let q = compact(self.ext[s].project_out(self.nrows + d + 1, nd - d - 1));
            let var = self.alloc();
            let mut lowers = Vec::new();
            let mut uppers = Vec::new();
            let col = self.nrows + d;
            for (row, is_eq) in tagged_rows(&q) {
                let a = row[col];
                if a == 0 {
                    continue;
                }
                // Rebuild with the projected width (dims > d removed).
                let mut full = vec![0; width];
                full[..col].copy_from_slice(&row[..col]);
                for p in 0..=self.np {
                    full[self.nrows + nd + p] = row[col + 1 + p];
                }
                let Some((terms, konst)) = self.substitute(&full, &dim_val, Some(d)) else {
                    continue;
                };
                if a > 0 || is_eq {
                    lowers.push(solve(&terms, konst, a));
                }
                if a < 0 || is_eq {
                    uppers.push(solve(&terms, konst, a));
                }
                // The skipped `full` row also holds dim d's coefficient —
                // include the raw row as a guard for exactness below.
            }
            assert!(
                !lowers.is_empty() && !uppers.is_empty(),
                "statement {s}: unbounded domain dim {d}"
            );
            let name = self.t.dim_names[s][d].clone();
            wraps.push(Box::new(move |body| {
                Ast::Loop(LoopNode {
                    var,
                    name,
                    lb: Bound::lower(vec![lowers]),
                    ub: Bound::upper(vec![uppers]),
                    parallel: false,
                    vector: false,
                    unroll: 1,
                    level: None,
                    body: Box::new(body),
                })
            }));
            dim_val[d] = Some((vec![(var, 1)], 0));
        }

        if any_loop {
            // The unique-rational-solution argument no longer applies:
            // guard with every remaining constraint of the extended system
            // that mentions a domain dim.
            for row in self.ext[s].ineqs() {
                if (0..nd).any(|d| row[self.nrows + d] != 0) {
                    if let Some((terms, konst)) = self.substitute(row, &dim_val, None) {
                        conds.push(CondRow {
                            terms,
                            konst,
                            eq: false,
                        });
                    }
                }
            }
        }

        // Supernode dims appear in no argument: nothing binds them.
        let args: Vec<AffExpr> = dim_val[nd - self.t.num_orig_dims[s]..]
            .iter()
            .map(|v| {
                let (terms, konst) = v.clone().expect("all dims bound");
                AffExpr {
                    terms,
                    konst,
                    div: 1,
                }
            })
            .collect();
        // Most-selective first for short-circuit evaluation: equality
        // rows, then inner-level bound rows (pushed last).
        conds.reverse();
        conds.sort_by_key(|c| !c.eq);
        let node = guarded(conds, Ast::Stmt { stmt: s, args });
        wraps.into_iter().rev().fold(node, |body, wrap| wrap(body))
    }
}

/// Whether every statement's bound-expression list matches the first's up
/// to constant offsets (same variable terms and divisors after sorting) —
/// the precondition for profitable prologue/kernel/epilogue separation.
fn shifted_uniform(per: &[Vec<AffExpr>]) -> bool {
    let key = |e: &AffExpr| (e.terms.clone(), e.div, e.konst);
    let mut first: Vec<AffExpr> = per[0].clone();
    first.sort_by_key(key);
    per.iter().all(|l| {
        if l.len() != first.len() {
            return false;
        }
        let mut sorted = l.clone();
        sorted.sort_by_key(key);
        sorted
            .iter()
            .zip(&first)
            .all(|(a, b)| a.terms == b.terms && a.div == b.div)
    })
}

/// Cheap redundancy control between projection steps: syntactic dedup plus
/// exact (ILP) redundancy elimination once the system grows past a
/// threshold.
fn compact(mut s: ConstraintSet) -> ConstraintSet {
    s.dedup();
    if s.ineqs().len() > 24 {
        s.remove_redundant();
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simple_copy_program() -> Program {
        use pluto_ir::{Expr, ProgramBuilder, StatementSpec};
        let mut b = ProgramBuilder::new("copy", &["N"]);
        b.add_context_ineq(vec![1, -2]);
        b.add_array("a", 1);
        b.add_array("b", 1);
        b.add_statement(StatementSpec {
            name: "S1".into(),
            iters: vec!["i".into()],
            domain_ineqs: vec![vec![1, 0, 0], vec![-1, 1, -1]],
            beta: vec![0, 0],
            write: ("b".into(), vec![vec![1, 0, 0]]),
            reads: vec![("a".into(), vec![vec![1, 0, 0]])],
            body: Expr::Read(0),
        });
        b.build()
    }

    #[test]
    fn original_schedule_shape() {
        let p = simple_copy_program();
        let t = original_schedule(&p);
        assert_eq!(t.num_rows(), 3); // β0, i, β1
        assert_eq!(t.rows[0].kind, RowKind::Scalar);
        assert_eq!(t.rows[1].kind, RowKind::Loop);
        assert_eq!(t.stmts[0].rows[1], vec![1, 0, 0]);
    }

    #[test]
    fn generates_single_loop() {
        let p = simple_copy_program();
        let t = original_schedule(&p);
        let ast = generate(&p, &t);
        assert_eq!(ast.num_stmt_leaves(), 1);
        // Find the loop and check its bounds at N = 7: 0..=6.
        fn find_loop(a: &Ast) -> Option<&LoopNode> {
            match a {
                Ast::Loop(l) => Some(l),
                Ast::Seq(v) => v.iter().find_map(find_loop),
                Ast::Let { body, .. } | Ast::Guard { body, .. } | Ast::Filter { body, .. } => {
                    find_loop(body)
                }
                Ast::Stmt { .. } => None,
            }
        }
        let l = find_loop(&ast).expect("loop");
        // vals: slot 0 = param N.
        let mut vals = vec![0; ast.num_vars()];
        vals[0] = 7;
        assert_eq!(l.lb.eval_lower(&vals), 0);
        assert_eq!(l.ub.eval_upper(&vals), 6);
    }
}
