//! The executable loop AST produced by the code generator.

use pluto_linalg::{ceil_div, floor_div, Int};

/// An affine expression over numbered variables with an optional exact or
/// floor/ceil division: `(Σ terms + konst) / div`.
///
/// Variable numbering is global to one generated [`Ast`]: ids
/// `0..num_params` are the program parameters; every loop and let binding
/// allocates a fresh id. How the division rounds is decided by context
/// (lower bounds use `ceild`, upper bounds and lets use `floord`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AffExpr {
    /// `(variable id, coefficient)` pairs.
    pub terms: Vec<(usize, Int)>,
    /// Constant term.
    pub konst: Int,
    /// Divisor (`>= 1`; `1` means no division).
    pub div: Int,
}

impl AffExpr {
    /// A constant expression.
    pub fn constant(c: Int) -> AffExpr {
        AffExpr {
            terms: Vec::new(),
            konst: c,
            div: 1,
        }
    }

    /// Evaluates the numerator at the given variable values.
    fn numer(&self, vals: &[Int]) -> Int {
        let mut v = self.konst;
        for &(var, c) in &self.terms {
            v += c * vals[var];
        }
        v
    }

    /// Evaluates with floor division.
    pub fn eval_floor(&self, vals: &[Int]) -> Int {
        let n = self.numer(vals);
        if self.div == 1 {
            n
        } else {
            floor_div(n, self.div)
        }
    }

    /// Evaluates with ceiling division.
    pub fn eval_ceil(&self, vals: &[Int]) -> Int {
        let n = self.numer(vals);
        if self.div == 1 {
            n
        } else {
            ceil_div(n, self.div)
        }
    }
}

/// A loop bound: for lower bounds, `min` over statements of `max` over
/// each statement's bound expressions (with `ceild` rounding); for upper
/// bounds, `max` over statements of `min` (with `floord`).
///
/// The two-level structure scans the *union* of the active statements'
/// projections: the inner level intersects one statement's constraints,
/// the outer level unions statements.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bound {
    /// One inner list per contributing statement.
    pub groups: Vec<Vec<AffExpr>>,
}

/// Same `(variable, coefficient)` pairs, in any order.
fn same_terms(a: &[(usize, Int)], b: &[(usize, Int)]) -> bool {
    a.len() == b.len() && a.iter().all(|t| b.contains(t))
}

impl Bound {
    /// A lower bound in canonical form: within a `max` group, operands
    /// with equal terms and divisor collapse to the first one carrying
    /// the larger constant (the rule of `ConstraintSet::prune_dominated`);
    /// groups that repeat an earlier one are dropped.
    pub fn lower(groups: Vec<Vec<AffExpr>>) -> Bound {
        Bound::canonical(groups, Int::max)
    }

    /// An upper bound in canonical form (`min` groups keep the smaller
    /// constant); see [`lower`](Bound::lower).
    pub fn upper(groups: Vec<Vec<AffExpr>>) -> Bound {
        Bound::canonical(groups, Int::min)
    }

    fn canonical(groups: Vec<Vec<AffExpr>>, tighter: fn(Int, Int) -> Int) -> Bound {
        let mut out: Vec<Vec<AffExpr>> = Vec::new();
        for g in groups {
            let mut kept: Vec<AffExpr> = Vec::new();
            for e in g {
                let twin = kept
                    .iter_mut()
                    .find(|k| k.div == e.div && same_terms(&k.terms, &e.terms));
                match twin {
                    Some(k) => k.konst = tighter(k.konst, e.konst),
                    None => kept.push(e),
                }
            }
            if !out.contains(&kept) {
                out.push(kept);
            }
        }
        Bound { groups: out }
    }

    /// Evaluates as a lower bound (`min` of `max`, `ceild` rounding).
    ///
    /// # Panics
    /// Panics if any group is empty or there are no groups (an unbounded
    /// loop — rejected at generation time).
    pub fn eval_lower(&self, vals: &[Int]) -> Int {
        self.groups
            .iter()
            .map(|g| {
                g.iter()
                    .map(|e| e.eval_ceil(vals))
                    .max()
                    .expect("empty max")
            })
            .min()
            .expect("unbounded lower bound")
    }

    /// Evaluates as an upper bound (`max` of `min`, `floord` rounding).
    ///
    /// # Panics
    /// Panics like [`eval_lower`](Bound::eval_lower).
    pub fn eval_upper(&self, vals: &[Int]) -> Int {
        self.groups
            .iter()
            .map(|g| {
                g.iter()
                    .map(|e| e.eval_floor(vals))
                    .min()
                    .expect("empty min")
            })
            .max()
            .expect("unbounded upper bound")
    }
}

/// A guard condition: `Σ terms + konst >= 0` (or `== 0` when `eq`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CondRow {
    /// `(variable id, coefficient)` pairs.
    pub terms: Vec<(usize, Int)>,
    /// Constant term.
    pub konst: Int,
    /// Equality instead of `>=`.
    pub eq: bool,
}

impl CondRow {
    /// A conjunction in canonical form: repeated rows are dropped, and of
    /// two `>=` rows over equal terms the first one stays, carrying the
    /// smaller (tighter) constant.
    pub fn canonical(rows: Vec<CondRow>) -> Vec<CondRow> {
        let mut kept: Vec<CondRow> = Vec::new();
        for r in rows {
            let twin = kept.iter_mut().find(|k| {
                k.eq == r.eq && same_terms(&k.terms, &r.terms) && (!r.eq || k.konst == r.konst)
            });
            match twin {
                Some(k) => k.konst = k.konst.min(r.konst),
                None => kept.push(r),
            }
        }
        kept
    }

    /// Whether the condition holds at the given variable values.
    pub fn holds(&self, vals: &[Int]) -> bool {
        let mut v = self.konst;
        for &(var, c) in &self.terms {
            v += c * vals[var];
        }
        if self.eq {
            v == 0
        } else {
            v >= 0
        }
    }
}

/// A `for` loop node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoopNode {
    /// Variable id bound by the loop.
    pub var: usize,
    /// Display name (e.g. `c2` or `i`).
    pub name: String,
    /// Lower bound.
    pub lb: Bound,
    /// Upper bound (inclusive).
    pub ub: Bound,
    /// May iterations run concurrently (`omp parallel for`)?
    pub parallel: bool,
    /// Marked for vectorization (moved innermost by the Sec. 5.4 pass).
    pub vector: bool,
    /// Unroll factor (1 = not unrolled). Set by the syntactic post-pass
    /// of paper Sec. 6; execution is unchanged, but each unrolled chunk
    /// pays loop overhead once.
    pub unroll: usize,
    /// Scattering row this loop scans (`Some(r)` for loops over
    /// transformation dimension `r`; `None` for leaf domain-recovery
    /// loops over original iterators). Consumed by the static analyzer
    /// to re-derive parallelism verdicts per scattering level.
    pub level: Option<usize>,
    /// Loop body.
    pub body: Box<Ast>,
}

/// The generated program tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Ast {
    /// Sequential composition.
    Seq(Vec<Ast>),
    /// A `for` loop.
    Loop(LoopNode),
    /// Binds `var := expr` (exact integer division via `floord`).
    Let {
        /// Variable id bound.
        var: usize,
        /// Display name.
        name: String,
        /// Defining expression.
        expr: AffExpr,
        /// Scope of the binding.
        body: Box<Ast>,
    },
    /// Conditional execution.
    Guard {
        /// Conjunction of conditions.
        conds: Vec<CondRow>,
        /// Guarded subtree.
        body: Box<Ast>,
    },
    /// Statement filter: within `body`, instances of `stmt` execute only
    /// if `conds` hold. Evaluated once where it appears (e.g. per tile),
    /// not per instance — the executable analogue of the loop-invariant
    /// statement conditions CLooG hoists out of inner loops.
    Filter {
        /// The statement being gated.
        stmt: usize,
        /// Conjunction of conditions.
        conds: Vec<CondRow>,
        /// Subtree in which the statement may be suppressed.
        body: Box<Ast>,
    },
    /// One statement instance.
    Stmt {
        /// Statement id in the program.
        stmt: usize,
        /// The statement's *original* iterator values (what its accesses
        /// and body consume), one affine expression (`div == 1`) per
        /// iterator over the enclosing loop variables and parameters —
        /// CLooG's `S1(c3,c4-2*c3)`.
        args: Vec<AffExpr>,
    },
}

impl Ast {
    /// Total number of [`Ast::Stmt`] leaves (diagnostics).
    pub fn num_stmt_leaves(&self) -> usize {
        match self {
            Ast::Seq(v) => v.iter().map(Ast::num_stmt_leaves).sum(),
            Ast::Loop(l) => l.body.num_stmt_leaves(),
            Ast::Let { body, .. } | Ast::Guard { body, .. } | Ast::Filter { body, .. } => {
                body.num_stmt_leaves()
            }
            Ast::Stmt { .. } => 1,
        }
    }

    /// Maximum variable id referenced plus one (slot-vector size for the
    /// executor).
    pub fn num_vars(&self) -> usize {
        fn expr_max(e: &AffExpr) -> usize {
            e.terms.iter().map(|&(v, _)| v + 1).max().unwrap_or(0)
        }
        fn bound_max(b: &Bound) -> usize {
            b.groups
                .iter()
                .flat_map(|g| g.iter().map(expr_max))
                .max()
                .unwrap_or(0)
        }
        match self {
            Ast::Seq(v) => v.iter().map(Ast::num_vars).max().unwrap_or(0),
            Ast::Loop(l) => (l.var + 1)
                .max(bound_max(&l.lb))
                .max(bound_max(&l.ub))
                .max(l.body.num_vars()),
            Ast::Let {
                var, expr, body, ..
            } => (var + 1).max(expr_max(expr)).max(body.num_vars()),
            Ast::Guard { conds, body } | Ast::Filter { conds, body, .. } => conds
                .iter()
                .flat_map(|c| c.terms.iter().map(|&(v, _)| v + 1))
                .max()
                .unwrap_or(0)
                .max(body.num_vars()),
            Ast::Stmt { args, .. } => args.iter().map(expr_max).max().unwrap_or(0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn affexpr_divisions() {
        let e = AffExpr {
            terms: vec![(0, 2)],
            konst: 1,
            div: 3,
        };
        // (2*5 + 1)/3 = 11/3
        assert_eq!(e.eval_floor(&[5]), 3);
        assert_eq!(e.eval_ceil(&[5]), 4);
    }

    #[test]
    fn bound_min_of_max() {
        // lb = min( max(v0, 3), max(0) )
        let b = Bound {
            groups: vec![
                vec![
                    AffExpr {
                        terms: vec![(0, 1)],
                        konst: 0,
                        div: 1,
                    },
                    AffExpr::constant(3),
                ],
                vec![AffExpr::constant(0)],
            ],
        };
        assert_eq!(b.eval_lower(&[10]), 0);
        let ub = Bound {
            groups: vec![vec![AffExpr::constant(7)], vec![AffExpr::constant(9)]],
        };
        assert_eq!(ub.eval_upper(&[]), 9);
    }

    #[test]
    fn canonical_bounds_and_conds() {
        let e = |v: usize, konst: Int, div: Int| AffExpr {
            terms: vec![(v, 1)],
            konst,
            div,
        };
        // max keeps the larger constant at the first position, min the
        // smaller; equal divisors compare under ceil and floor alike.
        let lb = Bound::lower(vec![vec![e(0, 1, 1), e(1, 0, 4), e(0, 3, 1), e(1, -2, 4)]]);
        assert_eq!(lb.groups, vec![vec![e(0, 3, 1), e(1, 0, 4)]]);
        let ub = Bound::upper(vec![vec![e(0, 1, 1), e(1, 0, 4), e(0, 3, 1), e(1, -2, 4)]]);
        assert_eq!(ub.groups, vec![vec![e(0, 1, 1), e(1, -2, 4)]]);
        // Different divisors or terms never merge; repeated groups do.
        let two = Bound::lower(vec![
            vec![e(0, 0, 2), e(0, 0, 3)],
            vec![e(1, 0, 1)],
            vec![e(0, 0, 2), e(0, 0, 3)],
        ]);
        assert_eq!(two.groups.len(), 2);
        assert_eq!(two.groups[0].len(), 2);
        for v in -7..8 {
            let vals = [v, 2 * v - 3];
            let raw = Bound {
                groups: vec![vec![e(0, 1, 1), e(1, 0, 4), e(0, 3, 1), e(1, -2, 4)]],
            };
            assert_eq!(lb.eval_lower(&vals), raw.eval_lower(&vals));
            assert_eq!(ub.eval_upper(&vals), raw.eval_upper(&vals));
        }

        let c = |konst: Int, eq: bool| CondRow {
            terms: vec![(0, 1), (1, -2)],
            konst,
            eq,
        };
        let rows = CondRow::canonical(vec![c(-2, false), c(0, true), c(-3, false), c(0, true)]);
        assert_eq!(rows, vec![c(-3, false), c(0, true)]);
        // Equalities with different constants are a contradiction, not
        // a redundancy: both stay.
        assert_eq!(CondRow::canonical(vec![c(0, true), c(1, true)]).len(), 2);
    }

    #[test]
    fn cond_rows() {
        let ge = CondRow {
            terms: vec![(0, 1)],
            konst: -2,
            eq: false,
        };
        assert!(ge.holds(&[2]));
        assert!(!ge.holds(&[1]));
        let eq = CondRow {
            terms: vec![(0, 2)],
            konst: -4,
            eq: true,
        };
        assert!(eq.holds(&[2]));
        assert!(!eq.holds(&[3]));
    }

    #[test]
    fn var_accounting() {
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
            body: Box::new(Ast::Stmt {
                stmt: 0,
                args: vec![AffExpr {
                    terms: vec![(1, 1)],
                    konst: 0,
                    div: 1,
                }],
            }),
        });
        assert_eq!(ast.num_vars(), 2);
        assert_eq!(ast.num_stmt_leaves(), 1);
    }
}

/// Static code-complexity statistics of a generated AST — the paper's
/// recurring "code complexity" concern (e.g. scheduling-based LU "performs
/// poorly mainly due to code complexity"), made measurable.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AstStats {
    /// `for` loops.
    pub loops: usize,
    /// Guard nodes.
    pub guards: usize,
    /// Guard condition rows (summed over guards and filters).
    pub conds: usize,
    /// Let bindings.
    pub lets: usize,
    /// Statement activity filters.
    pub filters: usize,
    /// Statement leaves.
    pub stmts: usize,
}

impl Ast {
    /// Collects static complexity statistics.
    pub fn stats(&self) -> AstStats {
        let mut s = AstStats::default();
        fn walk(a: &Ast, s: &mut AstStats) {
            match a {
                Ast::Seq(v) => v.iter().for_each(|x| walk(x, s)),
                Ast::Loop(l) => {
                    s.loops += 1;
                    walk(&l.body, s);
                }
                Ast::Let { body, .. } => {
                    s.lets += 1;
                    walk(body, s);
                }
                Ast::Guard { conds, body } => {
                    s.guards += 1;
                    s.conds += conds.len();
                    walk(body, s);
                }
                Ast::Filter { conds, body, .. } => {
                    s.filters += 1;
                    s.conds += conds.len();
                    walk(body, s);
                }
                Ast::Stmt { .. } => s.stmts += 1,
            }
        }
        walk(self, &mut s);
        s
    }
}

#[cfg(test)]
mod stats_tests {
    use super::*;

    #[test]
    fn stats_count_nodes() {
        let leaf = Ast::Stmt {
            stmt: 0,
            args: vec![],
        };
        let guarded = Ast::Guard {
            conds: vec![
                CondRow {
                    terms: vec![],
                    konst: 0,
                    eq: false,
                },
                CondRow {
                    terms: vec![],
                    konst: 1,
                    eq: true,
                },
            ],
            body: Box::new(leaf),
        };
        let ast = Ast::Seq(vec![guarded]);
        let s = ast.stats();
        assert_eq!(s.stmts, 1);
        assert_eq!(s.guards, 1);
        assert_eq!(s.conds, 2);
        assert_eq!(s.loops, 0);
    }
}
