//! The lexicographic dual simplex with Gomory cuts.
//!
//! # Dictionary representation
//!
//! Every variable the solver has ever introduced — the `n` objective
//! variables, one slack per constraint, and any Gomory-cut slacks — owns a
//! *row* expressing it as an affine function of the current non-basic
//! variable set (the *column labels*). Non-basic variables own trivial unit
//! rows. The candidate solution is always "all non-basic variables = 0", so
//! a variable's current value is its row's constant term.
//!
//! The pivot rule is the classical lexicographic one: for a violated row
//! (negative constant), among the columns with a positive coefficient pick
//! the one whose column vector divided by that coefficient is
//! lexicographically smallest (rows compared in variable-id order, objective
//! variables first). This keeps every column lexico-positive, which both
//! prevents cycling and guarantees that the first feasible dictionary is the
//! rational lexicographic minimum of the objective vector.

use pluto_linalg::{Int, Ratio};
use pluto_obs::counters;
use std::fmt;

/// Error raised when the solver exceeds its iteration budget.
///
/// Pluto's ILPs are tiny and sparse; hitting this indicates a malformed
/// problem rather than an expected outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SolveError {
    pivots: usize,
    cuts: usize,
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ilp solver exceeded its budget ({} pivots, {} cuts)",
            self.pivots, self.cuts
        )
    }
}

impl std::error::Error for SolveError {}

/// An integer lexicographic-minimization problem over non-negative
/// variables.
///
/// Constraint rows use the layout `[a_1, …, a_n, c]` meaning
/// `a·x + c >= 0`. See the [crate docs](crate) for an example.
#[derive(Debug, Clone, Default)]
pub struct IlpProblem {
    num_vars: usize,
    ineqs: Vec<Vec<Int>>,
}

impl IlpProblem {
    /// Creates a problem over `num_vars` non-negative integer variables.
    pub fn new(num_vars: usize) -> IlpProblem {
        IlpProblem {
            num_vars,
            ineqs: Vec::new(),
        }
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Number of inequality rows added so far (equalities count twice).
    pub fn num_ineqs(&self) -> usize {
        self.ineqs.len()
    }

    /// Adds an inequality `row[0..n]·x + row[n] >= 0`.
    ///
    /// # Panics
    /// Panics if `row.len() != num_vars + 1`.
    pub fn add_ineq(&mut self, row: Vec<Int>) {
        assert_eq!(row.len(), self.num_vars + 1, "constraint width mismatch");
        self.ineqs.push(row);
    }

    /// Adds an equality `row[0..n]·x + row[n] == 0` (as two inequalities).
    ///
    /// # Panics
    /// Panics if `row.len() != num_vars + 1`.
    pub fn add_eq(&mut self, row: Vec<Int>) {
        let neg: Vec<Int> = row.iter().map(|&v| -v).collect();
        self.add_ineq(row);
        self.add_ineq(neg);
    }

    /// The integer lexicographic minimum, or `None` if infeasible.
    ///
    /// # Panics
    /// Panics if the pivot/cut budget is exceeded (see [`try_lexmin`]).
    ///
    /// [`try_lexmin`]: IlpProblem::try_lexmin
    pub fn lexmin(&self) -> Option<Vec<Int>> {
        self.try_lexmin().expect("ilp solve failed")
    }

    /// The integer lexicographic minimum, or `Ok(None)` if infeasible.
    ///
    /// # Errors
    /// Returns [`SolveError`] if the pivot/cut budget is exceeded.
    pub fn try_lexmin(&self) -> Result<Option<Vec<Int>>, SolveError> {
        Tableau::new(self).solve()
    }

    /// Solves this problem once and keeps the optimal basis so later
    /// solves over *this system plus extra rows* can warm-start from it
    /// instead of re-pivoting from scratch (DESIGN.md §11).
    ///
    /// The returned [`WarmBase`] answers
    /// [`lexmin_with`](WarmBase::lexmin_with) queries; each is
    /// bit-identical to a cold [`try_lexmin`](IlpProblem::try_lexmin)
    /// over the combined row set, because the integer lexmin is unique
    /// and the dual simplex's column invariant (lexico-positivity)
    /// survives row addition at optimality.
    ///
    /// # Errors
    /// Returns [`SolveError`] if the pivot/cut budget is exceeded.
    pub fn solve_base(&self) -> Result<WarmBase, SolveError> {
        let mut t = Tableau::new(self);
        let sol = t.run()?;
        Ok(WarmBase {
            tab: sol.is_some().then_some(t),
        })
    }

    /// Whether the problem has any integer solution.
    pub fn is_feasible(&self) -> bool {
        self.lexmin().is_some()
    }

    /// Integer feasibility of `{x free : rows·(x,1) >= 0}` via the standard
    /// split `x = x⁺ − x⁻` into non-negative parts.
    ///
    /// Used by the dependence analyzer, where iteration variables are not
    /// a-priori non-negative.
    pub fn feasible_with_free_vars(num_vars: usize, rows: &[Vec<Int>]) -> bool {
        Self::sample_with_free_vars(num_vars, rows).is_some()
    }

    /// An integer point of `{x free : rows·(x,1) >= 0}`, or `None` when
    /// empty (the split-variable lexmin, mapped back to `x = x⁺ − x⁻`).
    pub fn sample_with_free_vars(num_vars: usize, rows: &[Vec<Int>]) -> Option<Vec<Int>> {
        let mut p = IlpProblem::new(2 * num_vars);
        for r in rows {
            assert_eq!(r.len(), num_vars + 1, "constraint width mismatch");
            let mut split = Vec::with_capacity(2 * num_vars + 1);
            for &a in &r[..num_vars] {
                split.push(a);
                split.push(-a);
            }
            split.push(r[num_vars]);
            p.add_ineq(split);
        }
        let sol = p.lexmin()?;
        Some((0..num_vars).map(|i| sol[2 * i] - sol[2 * i + 1]).collect())
    }
}

/// A solved simplex basis kept alive for warm-started lexmin queries.
///
/// Produced by [`IlpProblem::solve_base`]. Each
/// [`lexmin_with`](WarmBase::lexmin_with) call clones the optimal
/// dictionary, expresses the extra constraint rows over its current
/// non-basic columns, and continues the violated-row loop — typically a
/// handful of pivots instead of a full re-solve. An infeasible base
/// short-circuits every extension (a superset of an empty system is
/// empty).
pub struct WarmBase {
    /// `None` when the base system itself is infeasible.
    tab: Option<Tableau>,
}

impl WarmBase {
    /// Whether the base system is feasible (extensions may still be
    /// infeasible).
    pub fn base_feasible(&self) -> bool {
        self.tab.is_some()
    }

    /// The integer lexmin of the base system plus `extra` rows (each
    /// `row[0..n]·x + row[n] >= 0` over the base's variables), or
    /// `Ok(None)` if infeasible.
    ///
    /// Counts as one `ilp.solves` like a cold solve, so solver counters
    /// stay comparable across warm and cold configurations.
    ///
    /// # Errors
    /// Returns [`SolveError`] if the pivot/cut budget is exceeded.
    ///
    /// # Panics
    /// Panics if an extra row's width does not match the base problem.
    pub fn lexmin_with(&self, extra: &[Vec<Int>]) -> Result<Option<Vec<Int>>, SolveError> {
        let Some(base) = &self.tab else {
            counters::ILP_SOLVES.bump();
            counters::ILP_INFEASIBLE.bump();
            return Ok(None);
        };
        let mut t = base.clone();
        for row in extra {
            t.add_constraint_row(row);
        }
        t.run()
    }
}

const MAX_PIVOTS: usize = 200_000;
const MAX_CUTS: usize = 5_000;

#[derive(Clone)]
struct Tableau {
    /// Objective prefix length (`x` variables reported to the caller).
    n: usize,
    /// `rows[v]` expresses variable `v` over `[1 | columns]`.
    rows: Vec<Vec<Ratio>>,
    /// `cols[j]` is the variable id labeling column `j`.
    cols: Vec<usize>,
}

impl Tableau {
    fn new(p: &IlpProblem) -> Tableau {
        let n = p.num_vars;
        let width = n + 1;
        let mut rows = Vec::with_capacity(n + p.ineqs.len());
        // Objective variables: initially non-basic, unit rows.
        for i in 0..n {
            let mut r = vec![Ratio::ZERO; width];
            r[1 + i] = Ratio::ONE;
            rows.push(r);
        }
        // One slack row per constraint.
        for c in &p.ineqs {
            let mut r = vec![Ratio::ZERO; width];
            r[0] = Ratio::from(c[n]);
            for i in 0..n {
                r[1 + i] = Ratio::from(c[i]);
            }
            rows.push(r);
        }
        Tableau {
            n,
            rows,
            cols: (0..n).collect(),
        }
    }

    fn solve(mut self) -> Result<Option<Vec<Int>>, SolveError> {
        self.run()
    }

    /// Drives the dictionary to an integral lexmin (or infeasibility),
    /// leaving the final basis in place for warm-started reuse.
    fn run(&mut self) -> Result<Option<Vec<Int>>, SolveError> {
        let mut pivots = 0;
        let mut cuts = 0;
        let result = self.solve_inner(&mut pivots, &mut cuts);
        // Flush per-solve work into the observability registry once, not
        // per pivot: the hot loop stays free of atomics.
        counters::ILP_SOLVES.bump();
        counters::ILP_PIVOTS.add(pivots as u64);
        counters::ILP_CUTS.add(cuts as u64);
        if matches!(result, Ok(None)) {
            counters::ILP_INFEASIBLE.bump();
        }
        result
    }

    /// Appends the constraint `c[0..n]·x + c[n] >= 0` to a dictionary
    /// that may already have pivoted: the new slack's row is the
    /// constraint expressed over the *current* non-basic columns,
    /// `c[n]·e₀ + Σ c[i]·rows[i]` (row `i` expresses objective variable
    /// `i` in the current basis). Existing columns keep their first
    /// nonzero entry, so lexico-positivity — the anti-cycling and
    /// lexmin-correctness invariant — is preserved.
    fn add_constraint_row(&mut self, c: &[Int]) {
        assert_eq!(c.len(), self.n + 1, "constraint width mismatch");
        let width = 1 + self.cols.len();
        let mut r = vec![Ratio::ZERO; width];
        r[0] = Ratio::from(c[self.n]);
        for (i, &a) in c[..self.n].iter().enumerate() {
            if a == 0 {
                continue;
            }
            let a = Ratio::from(a);
            for (cell, &x) in r.iter_mut().zip(&self.rows[i]) {
                *cell += a * x;
            }
        }
        self.rows.push(r);
    }

    fn solve_inner(
        &mut self,
        pivots: &mut usize,
        cuts: &mut usize,
    ) -> Result<Option<Vec<Int>>, SolveError> {
        loop {
            // Find a violated row (negative value at the current vertex).
            match (0..self.rows.len()).find(|&v| self.rows[v][0].signum() < 0) {
                Some(r) => {
                    let Some(j) = self.pick_column(r) else {
                        return Ok(None); // no way to repair: infeasible
                    };
                    self.pivot(r, j);
                    *pivots += 1;
                    if *pivots > MAX_PIVOTS {
                        return Err(SolveError {
                            pivots: *pivots,
                            cuts: *cuts,
                        });
                    }
                }
                None => {
                    // Rational lexmin reached. Integral?
                    match (0..self.n).find(|&v| !self.rows[v][0].is_integer()) {
                        None => {
                            return Ok(Some(
                                (0..self.n).map(|v| self.rows[v][0].numer()).collect(),
                            ));
                        }
                        Some(v) => {
                            self.add_gomory_cut(v);
                            *cuts += 1;
                            if *cuts > MAX_CUTS {
                                return Err(SolveError {
                                    pivots: *pivots,
                                    cuts: *cuts,
                                });
                            }
                        }
                    }
                }
            }
        }
    }

    /// Lexicographic dual-simplex column choice for violated row `r`.
    fn pick_column(&self, r: usize) -> Option<usize> {
        let mut best: Option<usize> = None;
        for j in 0..self.cols.len() {
            let a = self.rows[r][1 + j];
            if a.signum() <= 0 {
                continue;
            }
            match best {
                None => best = Some(j),
                Some(b) => {
                    if self.lex_ratio_less(j, a, b, self.rows[r][1 + b]) {
                        best = Some(j);
                    }
                }
            }
        }
        best
    }

    /// Whether column `j` scaled by `1/aj` is lexicographically smaller than
    /// column `b` scaled by `1/ab` (rows compared in variable-id order).
    /// Both scales are positive, so `x/aj < y/ab` is decided exactly by
    /// `x·ab < y·aj` — no division, and a row where both cells are zero
    /// ties without any arithmetic.
    fn lex_ratio_less(&self, j: usize, aj: Ratio, b: usize, ab: Ratio) -> bool {
        for row in &self.rows {
            let (x, y) = (row[1 + j], row[1 + b]);
            if x.is_zero() && y.is_zero() {
                continue;
            }
            let (lhs, rhs) = (x * ab, y * aj);
            if lhs != rhs {
                return lhs < rhs;
            }
        }
        false
    }

    /// Pivot: the variable of row `r` leaves the basis (becomes column `j`'s
    /// label), the variable labeling column `j` enters.
    fn pivot(&mut self, r: usize, j: usize) {
        let a = self.rows[r][1 + j];
        debug_assert!(a.signum() > 0);
        // Express the entering variable from row r, in row r's own buffer:
        //   v_r = c0 + a * y_j + Σ c_k y_k
        //   y_j = (v_r - c0 - Σ c_k y_k) / a
        let inv = a.recip();
        let mut expr = std::mem::take(&mut self.rows[r]);
        let mut nonzero = Vec::with_capacity(expr.len());
        for (k, e) in expr.iter_mut().enumerate() {
            if k == 1 + j {
                *e = inv; // coefficient of v_r in the new basis
            } else if !e.is_zero() {
                *e = -*e * inv;
            }
            if !e.is_zero() {
                nonzero.push(k);
            }
        }
        // Substitute into every other row: the coefficient that multiplied
        // y_j now multiplies `expr` (column j is relabeled to v_r). The
        // entering variable's old row was the unit vector on column j, so
        // this loop also writes its new row.
        for (v, row) in self.rows.iter_mut().enumerate() {
            if v == r {
                continue; // its buffer is `expr`
            }
            let coeff = std::mem::take(&mut row[1 + j]);
            if coeff.is_zero() {
                continue;
            }
            for &k in &nonzero {
                row[k] += coeff * expr[k];
            }
        }
        // The leaving variable v_r is now non-basic: unit row on column j.
        expr.fill(Ratio::ZERO);
        expr[1 + j] = Ratio::ONE;
        self.rows[r] = expr;
        self.cols[j] = r;
    }

    /// Adds a Gomory–Chvátal cut derived from basic row `v` (fractional
    /// constant): `Σ frac(c_k)·y_k − (1 − frac(c0)) >= 0`.
    fn add_gomory_cut(&mut self, v: usize) {
        let width = self.rows[v].len();
        let mut cut = vec![Ratio::ZERO; width];
        cut[0] = self.rows[v][0].fract() - Ratio::ONE;
        for (c, x) in cut[1..].iter_mut().zip(&self.rows[v][1..]) {
            *c = x.fract();
        }
        debug_assert!(cut[0].signum() < 0);
        self.rows.push(cut);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tableau_initial_shape() {
        let mut p = IlpProblem::new(2);
        p.add_ineq(vec![1, -1, 4]);
        let t = Tableau::new(&p);
        assert_eq!(t.rows.len(), 3);
        assert_eq!(t.cols, vec![0, 1]);
        assert_eq!(t.rows[2][0], Ratio::from(4));
    }

    #[test]
    fn trivially_feasible_at_origin() {
        let mut p = IlpProblem::new(3);
        p.add_ineq(vec![1, 1, 1, 0]); // x+y+z >= 0: origin works
        assert_eq!(p.lexmin(), Some(vec![0, 0, 0]));
    }

    #[test]
    fn lexmin_prefers_later_variables() {
        // x + 2y >= 5: lexmin picks x=0 then y=3 (integer ceil of 5/2).
        let mut p = IlpProblem::new(2);
        p.add_ineq(vec![1, 2, -5]);
        assert_eq!(p.lexmin(), Some(vec![0, 3]));
    }

    #[test]
    fn knapsack_like_cut_chain() {
        // 3x + 3y = 7 has no integer solution.
        let mut p = IlpProblem::new(2);
        p.add_eq(vec![3, 3, -7]);
        assert_eq!(p.lexmin(), None);
        // 3x + 3y = 6 does: (0, 2).
        let mut q = IlpProblem::new(2);
        q.add_eq(vec![3, 3, -6]);
        assert_eq!(q.lexmin(), Some(vec![0, 2]));
    }
}
