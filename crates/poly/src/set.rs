//! The [`ConstraintSet`] type and its exact set operations.

use pluto_ilp::IlpProblem;
use pluto_linalg::int::{normalize_ineq, normalize_row};
use pluto_linalg::{gcd, Int};
use pluto_obs::counters;
use std::collections::BTreeSet;
use std::fmt;

/// A conjunction of affine equalities and inequalities over integer
/// variables.
///
/// Rows use the layout `[a_1, …, a_n, c]`: an inequality row means
/// `a·x + c >= 0`, an equality row `a·x + c == 0`. The set is the integer
/// points satisfying all rows. An internal `infeasible` flag records
/// syntactic contradictions discovered during normalization (e.g. the row
/// `0 >= 1` produced by elimination); [`is_empty`](ConstraintSet::is_empty)
/// additionally runs an exact integer feasibility test.
#[derive(Clone, PartialEq, Eq)]
pub struct ConstraintSet {
    num_vars: usize,
    eqs: Vec<Vec<Int>>,
    ineqs: Vec<Vec<Int>>,
    infeasible: bool,
}

impl ConstraintSet {
    /// The universe set (no constraints) over `num_vars` variables.
    pub fn new(num_vars: usize) -> ConstraintSet {
        ConstraintSet {
            num_vars,
            eqs: Vec::new(),
            ineqs: Vec::new(),
            infeasible: false,
        }
    }

    /// A syntactically empty set over `num_vars` variables.
    pub fn empty(num_vars: usize) -> ConstraintSet {
        ConstraintSet {
            num_vars,
            eqs: Vec::new(),
            ineqs: Vec::new(),
            infeasible: true,
        }
    }

    /// Number of variables (columns excluding the constant).
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// The equality rows.
    pub fn eqs(&self) -> &[Vec<Int>] {
        &self.eqs
    }

    /// The inequality rows.
    pub fn ineqs(&self) -> &[Vec<Int>] {
        &self.ineqs
    }

    /// Adds `row[..n]·x + row[n] >= 0`, normalizing and detecting trivial
    /// contradictions.
    ///
    /// # Panics
    /// Panics if the row width is not `num_vars + 1`.
    pub fn add_ineq(&mut self, mut row: Vec<Int>) {
        assert_eq!(row.len(), self.num_vars + 1, "constraint width mismatch");
        normalize_ineq(&mut row);
        if row[..self.num_vars].iter().all(|&v| v == 0) {
            if row[self.num_vars] < 0 {
                self.infeasible = true;
            }
            return; // trivially true (or recorded as infeasible)
        }
        self.ineqs.push(row);
    }

    /// Adds `row[..n]·x + row[n] == 0`, normalizing and detecting trivial
    /// contradictions.
    ///
    /// # Panics
    /// Panics if the row width is not `num_vars + 1`.
    pub fn add_eq(&mut self, mut row: Vec<Int>) {
        assert_eq!(row.len(), self.num_vars + 1, "constraint width mismatch");
        // Equality rows may be scaled by the gcd of *all* entries including
        // the constant only when it divides evenly; otherwise gcd of the
        // coefficients must divide the constant or the row is infeasible.
        let mut g = 0;
        for &v in &row[..self.num_vars] {
            g = gcd(g, v);
        }
        if g == 0 {
            if row[self.num_vars] != 0 {
                self.infeasible = true;
            }
            return;
        }
        if row[self.num_vars] % g != 0 {
            self.infeasible = true; // e.g. 2x + 1 = 0 has no integer solution
            return;
        }
        normalize_row(&mut row);
        self.eqs.push(row);
    }

    /// Intersection with another set over the same variables.
    ///
    /// # Panics
    /// Panics if variable counts differ.
    pub fn intersect(&self, other: &ConstraintSet) -> ConstraintSet {
        assert_eq!(self.num_vars, other.num_vars, "dimension mismatch");
        let mut out = self.clone();
        out.infeasible |= other.infeasible;
        for e in &other.eqs {
            out.add_eq(e.clone());
        }
        for i in &other.ineqs {
            out.add_ineq(i.clone());
        }
        out
    }

    /// Whether the integer point `x` satisfies all constraints.
    ///
    /// # Panics
    /// Panics if `x.len() != num_vars`.
    pub fn contains(&self, x: &[Int]) -> bool {
        assert_eq!(x.len(), self.num_vars, "point dimension mismatch");
        if self.infeasible {
            return false;
        }
        let eval = |row: &[Int]| -> Int {
            let mut v = row[self.num_vars];
            for (i, &xi) in x.iter().enumerate() {
                v += row[i] * xi;
            }
            v
        };
        self.eqs.iter().all(|r| eval(r) == 0) && self.ineqs.iter().all(|r| eval(r) >= 0)
    }

    /// Exact integer emptiness (ILP-backed, answered from the
    /// canonicalized [`cache`](crate::cache) when possible).
    ///
    /// Cache hits skip the feasibility ILP entirely (and record no
    /// `ilp.latency.emptiness` sample — the histogram counts probes
    /// actually paid for). The verdict is independent of cache state:
    /// keys are full canonical row sets, so a hit can only return what a
    /// fresh solve would have. Misses delegate to
    /// [`sample_point`](ConstraintSet::sample_point), whose unit-pivot
    /// equality substitution shrinks the feasibility ILP without changing
    /// the verdict (the substitution is an integer bijection).
    pub fn is_empty(&self) -> bool {
        counters::EMPTINESS_CHECKS.bump();
        if self.infeasible {
            return true;
        }
        if self.eqs.is_empty() && self.ineqs.is_empty() {
            return false;
        }
        let key = crate::cache::enabled().then(|| crate::cache::key_of(self));
        if let Some(k) = &key {
            if let Some(hit) = crate::cache::lookup(k) {
                counters::ILP_CACHE_HITS.bump();
                return hit;
            }
            counters::ILP_CACHE_MISSES.bump();
        }
        let empty = {
            let _t = pluto_obs::hist::EMPTINESS.timer();
            self.sample_point().is_none()
        };
        if let Some(k) = key {
            crate::cache::insert(k, empty);
        }
        empty
    }

    /// Inserts `count` fresh unconstrained variables starting at column
    /// `pos` (existing columns at `pos..` shift right).
    ///
    /// # Panics
    /// Panics if `pos > num_vars`.
    pub fn insert_dims(&self, pos: usize, count: usize) -> ConstraintSet {
        assert!(pos <= self.num_vars, "insert position out of range");
        let widen = |row: &Vec<Int>| -> Vec<Int> {
            let mut r = Vec::with_capacity(row.len() + count);
            r.extend_from_slice(&row[..pos]);
            r.extend(std::iter::repeat_n(0, count));
            r.extend_from_slice(&row[pos..]);
            r
        };
        ConstraintSet {
            num_vars: self.num_vars + count,
            eqs: self.eqs.iter().map(widen).collect(),
            ineqs: self.ineqs.iter().map(widen).collect(),
            infeasible: self.infeasible,
        }
    }

    /// Projects out the `count` variables starting at column `first`
    /// (Fourier–Motzkin with Gaussian substitution through equalities).
    ///
    /// The result is the *rational shadow* strengthened to integers row-wise
    /// (constants floored); this is the standard sound over-approximation of
    /// the integer projection used by polyhedral code generators.
    ///
    /// ```
    /// use pluto_poly::ConstraintSet;
    ///
    /// // { (i, j) : 0 <= i <= j <= 9 } — project out j (column 1):
    /// let mut s = ConstraintSet::new(2);
    /// s.add_ineq(vec![1, 0, 0]);   //  i      >= 0
    /// s.add_ineq(vec![-1, 1, 0]);  //  j - i  >= 0
    /// s.add_ineq(vec![0, -1, 9]);  //  9 - j  >= 0
    /// let shadow = s.project_out(1, 1);
    /// // The shadow is { i : 0 <= i <= 9 }:
    /// assert_eq!(shadow.num_vars(), 1);
    /// assert!(shadow.contains(&[0]) && shadow.contains(&[9]));
    /// assert!(!shadow.contains(&[10]) && !shadow.contains(&[-1]));
    /// ```
    ///
    /// # Panics
    /// Panics if the range is out of bounds.
    pub fn project_out(&self, first: usize, count: usize) -> ConstraintSet {
        assert!(
            first + count <= self.num_vars,
            "projection range out of bounds"
        );
        let mut cur = self.clone();
        // Columns still to eliminate, as indices into `cur`.
        let mut cols: Vec<usize> = (first..first + count).collect();
        // When the next elimination would be expensive and the system has
        // grown, fall back to exact redundancy removal once per step: FM
        // intermediates are dominated by redundant rows (observed: thousands
        // of rows where the true projection has dozens), and eliminating
        // from the irredundant core keeps the product growth polynomial.
        let mut pruned_this_step = false;
        while !cols.is_empty() {
            // Greedy elimination order: Gaussian substitutions are free;
            // otherwise minimize the Fourier–Motzkin growth estimate
            // lowers·uppers − lowers − uppers. A fixed order explodes on the
            // Farkas-multiplier systems (observed: millions of rows where
            // the true projection has dozens).
            let mut best = 0;
            let mut best_score = Int::MAX;
            for (ci, &v) in cols.iter().enumerate() {
                let score = if cur.eqs.iter().any(|e| e[v] != 0) {
                    -1
                } else {
                    let mut lo: Int = 0;
                    let mut up: Int = 0;
                    for r in &cur.ineqs {
                        match r[v].signum() {
                            1 => lo += 1,
                            -1 => up += 1,
                            _ => {}
                        }
                    }
                    lo * up - lo - up
                };
                if score < best_score {
                    best_score = score;
                    best = ci;
                }
            }
            if !pruned_this_step && best_score > 16 && cur.ineqs.len() > 48 {
                cur.remove_redundant();
                pruned_this_step = true;
                continue; // re-score columns on the pruned system
            }
            let v = cols.swap_remove(best);
            cur = cur.eliminate_var(v);
            if cur.infeasible {
                return ConstraintSet::empty(self.num_vars - count);
            }
            for c in cols.iter_mut() {
                if *c > v {
                    *c -= 1;
                }
            }
            cur.prune_dominated();
            pruned_this_step = false;
        }
        cur
    }

    /// Eliminates a single variable, dropping its column.
    fn eliminate_var(&self, v: usize) -> ConstraintSet {
        counters::FM_ELIMINATIONS.bump();
        let n = self.num_vars;
        let drop_col = |row: &[Int]| -> Vec<Int> {
            let mut r = Vec::with_capacity(row.len() - 1);
            r.extend_from_slice(&row[..v]);
            r.extend_from_slice(&row[v + 1..]);
            r
        };
        let mut out = ConstraintSet::new(n - 1);
        out.infeasible = self.infeasible;

        // 1. Gaussian: if some equality mentions v, use it to substitute.
        if let Some(pivot_idx) = self.eqs.iter().position(|e| e[v] != 0) {
            let e = &self.eqs[pivot_idx];
            let alpha = e[v];
            for (idx, other) in self.eqs.iter().enumerate() {
                if idx == pivot_idx {
                    continue;
                }
                let combined = combine_eliminating(other, e, v, alpha);
                out.add_eq(drop_col(&combined));
            }
            for ineq in &self.ineqs {
                let combined = combine_eliminating(ineq, e, v, alpha);
                out.add_ineq(drop_col(&combined));
            }
            return out;
        }

        // 2. Fourier–Motzkin on inequalities.
        let mut lowers = Vec::new(); // coeff > 0: v >= ...
        let mut uppers = Vec::new(); // coeff < 0: v <= ...
        for e in &self.eqs {
            debug_assert_eq!(e[v], 0);
            out.add_eq(drop_col(e));
        }
        for ineq in &self.ineqs {
            match ineq[v].signum() {
                0 => out.add_ineq(drop_col(ineq)),
                1 => lowers.push(ineq),
                _ => uppers.push(ineq),
            }
        }
        for l in &lowers {
            for u in &uppers {
                // l: a v + L >= 0 (a>0);  u: -b v + U >= 0 (b>0 after negate)
                let a = l[v];
                let b = -u[v];
                debug_assert!(a > 0 && b > 0);
                let mut row = vec![0; n + 1];
                for k in 0..=n {
                    row[k] = b
                        .checked_mul(l[k])
                        .and_then(|x| a.checked_mul(u[k]).and_then(|y| x.checked_add(y)))
                        .expect("fourier-motzkin overflow");
                }
                debug_assert_eq!(row[v], 0);
                out.add_ineq(drop_col(&row));
            }
        }
        // Peak is measured before dedup: it is the blowup the dedup pass
        // has to absorb.
        counters::FM_ROWS_PEAK.record_max(out.ineqs.len() as u64);
        out.dedup();
        out
    }

    /// Drops inequalities dominated by a row with the *same* coefficient
    /// vector and a tighter constant (`a·x + c₁ >= 0` implies
    /// `a·x + c₂ >= 0` when `c₁ <= c₂`). Rows are gcd-normalized on entry,
    /// so the coefficient-vector comparison is canonical. Cheap enough to
    /// run between Fourier–Motzkin steps. The surviving row of each
    /// coefficient vector is the first one carrying the tightest constant,
    /// at its own position, so the result's order is a function of the
    /// input's alone.
    pub fn prune_dominated(&mut self) {
        use std::collections::BTreeMap;
        let n = self.num_vars;
        let mut tightest: BTreeMap<&[Int], Int> = BTreeMap::new();
        for r in &self.ineqs {
            tightest
                .entry(&r[..n])
                .and_modify(|c| *c = (*c).min(r[n]))
                .or_insert(r[n]);
        }
        let mut keep: BTreeMap<Vec<Int>, Int> =
            tightest.into_iter().map(|(k, c)| (k.to_vec(), c)).collect();
        self.ineqs.retain(|r| {
            if keep.get(&r[..n]) == Some(&r[n]) {
                keep.remove(&r[..n]); // drop later duplicates of this row
                true
            } else {
                false
            }
        });
    }

    /// Removes exact duplicate rows (cheap syntactic pass run after FM).
    pub fn dedup(&mut self) {
        let mut seen: BTreeSet<Vec<Int>> = BTreeSet::new();
        self.ineqs.retain(|r| seen.insert(r.clone()));
        let mut seen_eq: BTreeSet<Vec<Int>> = BTreeSet::new();
        self.eqs.retain(|r| {
            let neg: Vec<Int> = r.iter().map(|&v| -v).collect();
            !seen_eq.contains(&neg) && seen_eq.insert(r.clone())
        });
    }

    /// Removes inequalities that are implied by the rest of the system
    /// (exact integer redundancy: `S ∧ ¬c` empty ⇒ `c` redundant).
    ///
    /// Quadratic in the number of rows with an ILP per row — use on the
    /// small systems handed to the code generator, not inside FM loops.
    pub fn remove_redundant(&mut self) {
        counters::REDUNDANCY_CALLS.bump();
        self.dedup();
        let mut i = 0;
        while i < self.ineqs.len() {
            let row = self.ineqs[i].clone();
            // ¬(a·x + c >= 0)  over Z  is  a·x + c <= -1.
            let mut neg: Vec<Int> = row.iter().map(|&v| -v).collect();
            let n = self.num_vars;
            neg[n] -= 1;
            let mut test = self.clone();
            test.ineqs.remove(i);
            test.add_ineq(neg);
            if test.is_empty() {
                self.ineqs.remove(i);
            } else {
                i += 1;
            }
        }
    }

    /// Total number of constraint rows.
    pub fn num_rows(&self) -> usize {
        self.eqs.len() + self.ineqs.len()
    }

    /// Renders the set with the given variable names (for diagnostics).
    ///
    /// # Panics
    /// Panics if `names.len() != num_vars`.
    pub fn display_with(&self, names: &[&str]) -> String {
        assert_eq!(names.len(), self.num_vars);
        if self.infeasible {
            return "false".to_string();
        }
        let term = |row: &[Int]| -> String {
            let mut s = String::new();
            for (i, &a) in row[..self.num_vars].iter().enumerate() {
                if a == 0 {
                    continue;
                }
                if !s.is_empty() {
                    s.push_str(if a > 0 { " + " } else { " - " });
                } else if a < 0 {
                    s.push('-');
                }
                let m = a.abs();
                if m != 1 {
                    s.push_str(&format!("{m}*"));
                }
                s.push_str(names[i]);
            }
            let c = row[self.num_vars];
            if c != 0 || s.is_empty() {
                if s.is_empty() {
                    s.push_str(&c.to_string());
                } else {
                    s.push_str(if c > 0 { " + " } else { " - " });
                    s.push_str(&c.abs().to_string());
                }
            }
            s
        };
        let mut parts = Vec::new();
        for e in &self.eqs {
            parts.push(format!("{} == 0", term(e)));
        }
        for i in &self.ineqs {
            parts.push(format!("{} >= 0", term(i)));
        }
        if parts.is_empty() {
            "true".to_string()
        } else {
            parts.join("  &&  ")
        }
    }
}

/// Positive combination of `row` with equality `eq` eliminating column `v`
/// (`alpha = eq[v] != 0`); the multiplier on `row` is `|alpha| > 0` so
/// inequality direction is preserved.
fn combine_eliminating(row: &[Int], eq: &[Int], v: usize, alpha: Int) -> Vec<Int> {
    let beta = row[v];
    let m_row = alpha.abs();
    let m_eq = -alpha.signum() * beta;
    let mut out = vec![0; row.len()];
    for k in 0..row.len() {
        out[k] = m_row
            .checked_mul(row[k])
            .and_then(|x| m_eq.checked_mul(eq[k]).and_then(|y| x.checked_add(y)))
            .expect("gaussian elimination overflow");
    }
    debug_assert_eq!(out[v], 0);
    out
}

impl fmt::Debug for ConstraintSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let names: Vec<String> = (0..self.num_vars).map(|i| format!("x{i}")).collect();
        let refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
        write!(f, "ConstraintSet({})", self.display_with(&refs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn square(n: Int) -> ConstraintSet {
        let mut s = ConstraintSet::new(2);
        s.add_ineq(vec![1, 0, 0]);
        s.add_ineq(vec![-1, 0, n]);
        s.add_ineq(vec![0, 1, 0]);
        s.add_ineq(vec![0, -1, n]);
        s
    }

    #[test]
    fn membership() {
        let s = square(5);
        assert!(s.contains(&[0, 0]));
        assert!(s.contains(&[5, 5]));
        assert!(!s.contains(&[6, 0]));
        assert!(!s.contains(&[-1, 3]));
    }

    #[test]
    fn emptiness() {
        assert!(!square(5).is_empty());
        let mut s = ConstraintSet::new(1);
        s.add_ineq(vec![1, -4]); // x >= 4
        s.add_ineq(vec![-1, 2]); // x <= 2
        assert!(s.is_empty());
        // Integer-empty, rational-nonempty: 0 < 2x < 2.
        let mut t = ConstraintSet::new(1);
        t.add_ineq(vec![2, -1]); // 2x >= 1
        t.add_ineq(vec![-2, 1]); // 2x <= 1
        assert!(t.is_empty());
    }

    #[test]
    fn equality_gcd_infeasibility() {
        let mut s = ConstraintSet::new(1);
        s.add_eq(vec![2, -1]); // 2x = 1
        assert!(s.is_empty());
        let mut ok = ConstraintSet::new(1);
        ok.add_eq(vec![2, -4]); // 2x = 4 -> x = 2
        assert!(ok.contains(&[2]));
        assert!(!ok.contains(&[1]));
    }

    #[test]
    fn projection_of_triangle() {
        // 0 <= i <= j <= 9: projecting j out leaves 0 <= i <= 9.
        let mut s = ConstraintSet::new(2);
        s.add_ineq(vec![1, 0, 0]);
        s.add_ineq(vec![-1, 1, 0]);
        s.add_ineq(vec![0, -1, 9]);
        let p = s.project_out(1, 1);
        assert_eq!(p.num_vars(), 1);
        for i in 0..=9 {
            assert!(p.contains(&[i]), "i={i}");
        }
        assert!(!p.contains(&[10]));
        assert!(!p.contains(&[-1]));
    }

    #[test]
    fn projection_through_equality() {
        // j = i + 3, 0 <= j <= 10  =>  -3 <= i <= 7.
        let mut s = ConstraintSet::new(2);
        s.add_eq(vec![-1, 1, -3]);
        s.add_ineq(vec![0, 1, 0]);
        s.add_ineq(vec![0, -1, 10]);
        let p = s.project_out(1, 1);
        assert!(p.contains(&[-3]));
        assert!(p.contains(&[7]));
        assert!(!p.contains(&[8]));
        assert!(!p.contains(&[-4]));
    }

    #[test]
    fn projection_detects_emptiness() {
        let mut s = ConstraintSet::new(2);
        s.add_ineq(vec![1, 0, 0]); // i >= 0
        s.add_ineq(vec![-1, 0, -1]); // i <= -1
        let p = s.project_out(0, 2);
        assert!(p.is_empty());
    }

    #[test]
    fn insert_dims_shifts() {
        let mut s = ConstraintSet::new(2);
        s.add_ineq(vec![1, 2, 3]);
        let w = s.insert_dims(1, 2);
        assert_eq!(w.num_vars(), 4);
        assert_eq!(w.ineqs()[0], vec![1, 0, 0, 2, 3]);
    }

    #[test]
    fn redundancy_removal() {
        let mut s = ConstraintSet::new(1);
        s.add_ineq(vec![1, 0]); // x >= 0
        s.add_ineq(vec![1, 5]); // x >= -5 (redundant)
        s.add_ineq(vec![-1, 10]); // x <= 10
        s.remove_redundant();
        assert_eq!(s.ineqs().len(), 2);
        assert!(s.contains(&[0]) && s.contains(&[10]) && !s.contains(&[11]));
    }

    #[test]
    fn display_round_trip_smoke() {
        let mut s = ConstraintSet::new(2);
        s.add_ineq(vec![1, -2, 3]);
        s.add_eq(vec![1, 1, 0]);
        let d = s.display_with(&["i", "j"]);
        assert!(d.contains("i + j == 0"));
        assert!(d.contains("i - 2*j + 3 >= 0"));
    }

    #[test]
    fn intersect_combines() {
        let a = square(5);
        let mut b = ConstraintSet::new(2);
        b.add_ineq(vec![1, 1, -8]); // i + j >= 8
        let c = a.intersect(&b);
        assert!(c.contains(&[4, 4]));
        assert!(!c.contains(&[1, 1]));
    }

    #[test]
    fn trivial_rows_filtered() {
        let mut s = ConstraintSet::new(1);
        s.add_ineq(vec![0, 5]); // 5 >= 0: dropped
        assert_eq!(s.num_rows(), 0);
        s.add_ineq(vec![0, -1]); // -1 >= 0: infeasible
        assert!(s.is_empty());
    }
}

impl ConstraintSet {
    /// An integer point of the set, or `None` when empty.
    ///
    /// Equality rows with a ±1 coefficient are eliminated by exact
    /// substitution first (each removes one variable and one equality
    /// from the ILP), which keeps large equality-heavy systems — e.g. the
    /// analyzer's carried-dependence queries over two tiled iteration
    /// spaces — inside the solver's pivot budget.
    pub fn sample_point(&self) -> Option<Vec<Int>> {
        if self.infeasible {
            return None;
        }
        let n = self.num_vars;
        let mut eqs = self.eqs.clone();
        let mut ineqs = self.ineqs.clone();
        // Elimination stack: `(var, expr)` with `var = expr · [x…, 1]`
        // and `expr[var] == 0`. Later entries may only reference vars
        // never eliminated, so back-substitution runs in reverse.
        let mut elim: Vec<(usize, Vec<Int>)> = Vec::new();
        let mut gone = vec![false; n];
        loop {
            let found = eqs.iter().enumerate().find_map(|(ei, e)| {
                (0..n)
                    .find(|&v| !gone[v] && e[v].abs() == 1)
                    .map(|v| (ei, v))
            });
            let Some((ei, v)) = found else { break };
            let e = eqs.swap_remove(ei);
            let s = e[v]; // ±1: v = -s·(e − e[v]·v)
            let mut expr = vec![0; n + 1];
            for (j, x) in expr.iter_mut().enumerate() {
                if j != v {
                    *x = -s * e[j];
                }
            }
            for r in eqs.iter_mut().chain(ineqs.iter_mut()) {
                let c = r[v];
                if c != 0 {
                    r[v] = 0;
                    for j in 0..=n {
                        r[j] += c * expr[j];
                    }
                }
            }
            gone[v] = true;
            elim.push((v, expr));
        }
        let kept: Vec<usize> = (0..n).filter(|&v| !gone[v]).collect();
        let mut rows: Vec<Vec<Int>> = Vec::with_capacity(ineqs.len() + 2 * eqs.len());
        let compress = |r: &[Int]| -> Vec<Int> {
            let mut out: Vec<Int> = kept.iter().map(|&v| r[v]).collect();
            out.push(r[n]);
            out
        };
        for r in &ineqs {
            rows.push(compress(r));
        }
        for e in &eqs {
            let c = compress(e);
            rows.push(c.iter().map(|&v| -v).collect());
            rows.push(c);
        }
        // Constant rows decide themselves (this also covers the
        // all-vars-eliminated case).
        if rows
            .iter()
            .any(|r| r[..kept.len()].iter().all(|&a| a == 0) && r[kept.len()] < 0)
        {
            return None;
        }
        rows.retain(|r| r[..kept.len()].iter().any(|&a| a != 0));
        let sol_kept = if kept.is_empty() || rows.is_empty() {
            vec![0; kept.len()]
        } else {
            IlpProblem::sample_with_free_vars(kept.len(), &rows)?
        };
        let mut x = vec![0; n];
        for (i, &v) in kept.iter().enumerate() {
            x[v] = sol_kept[i];
        }
        for (v, expr) in elim.iter().rev() {
            let mut val = expr[n];
            for (j, &c) in expr[..n].iter().enumerate() {
                val += c * x[j];
            }
            x[*v] = val;
        }
        Some(x)
    }

    /// Exact integer-set inclusion: every integer point of `self` satisfies
    /// `other`'s constraints.
    ///
    /// # Panics
    /// Panics if variable counts differ.
    pub fn is_subset_of(&self, other: &ConstraintSet) -> bool {
        assert_eq!(self.num_vars, other.num_vars, "dimension mismatch");
        if self.infeasible {
            return true;
        }
        let implies = |row: &[Int], eq: bool| -> bool {
            // self ∧ ¬row must be empty.
            let mut t = self.clone();
            let mut neg: Vec<Int> = row.iter().map(|&v| -v).collect();
            neg[self.num_vars] -= 1; // row <= -1
            t.add_ineq(neg);
            if !t.is_empty() {
                return false;
            }
            if eq {
                let mut t = self.clone();
                let mut pos = row.to_vec();
                pos[self.num_vars] -= 1; // row >= 1
                t.add_ineq(pos);
                if !t.is_empty() {
                    return false;
                }
            }
            true
        };
        other.ineqs.iter().all(|r| implies(r, false)) && other.eqs.iter().all(|r| implies(r, true))
    }

    /// Detects implicit equalities: inequality rows whose opposite
    /// direction is also implied are promoted to equality rows (the affine
    /// hull becomes explicit). Useful before Gaussian elimination.
    pub fn detect_equalities(&mut self) {
        let mut i = 0;
        while i < self.ineqs.len() {
            // row >= 0 always; is row <= 0 forced (row >= 1 empty)?
            let mut t = self.clone();
            let mut pos = self.ineqs[i].clone();
            pos[self.num_vars] -= 1;
            t.add_ineq(pos);
            if t.is_empty() {
                let row = self.ineqs.remove(i);
                self.add_eq(row);
            } else {
                i += 1;
            }
        }
        // Promoting both directions of a pair produces sign-mirrored
        // equality duplicates; dedup collapses them.
        self.dedup();
    }
}

#[cfg(test)]
mod extra_tests {
    use super::*;

    #[test]
    fn sample_point_in_set() {
        let mut s = ConstraintSet::new(2);
        s.add_ineq(vec![1, 0, 5]); // x >= -5
        s.add_ineq(vec![-1, 0, -2]); // x <= -2
        s.add_ineq(vec![0, 1, -3]); // y >= 3
        let p = s.sample_point().expect("nonempty");
        assert!(s.contains(&p), "{p:?}");
        assert!(ConstraintSet::empty(2).sample_point().is_none());
        // Universe.
        assert_eq!(ConstraintSet::new(1).sample_point(), Some(vec![0]));
    }

    #[test]
    fn subset_relation() {
        let mut small = ConstraintSet::new(1);
        small.add_ineq(vec![1, 0]); // x >= 0
        small.add_ineq(vec![-1, 5]); // x <= 5
        let mut big = ConstraintSet::new(1);
        big.add_ineq(vec![1, 2]); // x >= -2
        big.add_ineq(vec![-1, 9]); // x <= 9
        assert!(small.is_subset_of(&big));
        assert!(!big.is_subset_of(&small));
        assert!(small.is_subset_of(&small));
        assert!(ConstraintSet::empty(1).is_subset_of(&small));
    }

    #[test]
    fn implicit_equality_detected() {
        // x >= 3 and x <= 3 become x == 3.
        let mut s = ConstraintSet::new(1);
        s.add_ineq(vec![1, -3]);
        s.add_ineq(vec![-1, 3]);
        s.detect_equalities();
        assert_eq!(s.eqs().len(), 1);
        assert!(s.contains(&[3]));
        assert!(!s.contains(&[4]));
    }
}
