//! Exact integer lexicographic minimization — the `pluto-rs` stand-in for
//! PipLib.
//!
//! The Pluto algorithm (PLDI'08, Sec. 3.2) casts transformation search as
//!
//! > `minimize≺ {u1, u2, …, uk, w, …, ci's, …}`  (Eq. 5)
//!
//! a *lexicographic* minimum of a non-negative integer vector subject to
//! linear inequalities. The paper solves this with PIP; this crate
//! implements the same algorithm family from scratch:
//!
//! * a lexicographic dual simplex over exact rationals whose
//!   pivot rule keeps every tableau column lexico-positive, so the first
//!   all-feasible dictionary read off is the *rational* lexmin;
//! * Gomory–Chvátal cuts generated from the first fractional objective row,
//!   iterated until the lexmin is integral (Gomory's lexicographic method,
//!   which is finitely terminating).
//!
//! All problem variables are constrained non-negative, exactly matching
//! Pluto's practical choice (Sec. 4.2) that avoids combinatorial explosion.
//! A helper entry point splits free variables into differences of
//! non-negative ones for general integer feasibility testing (used by the
//! dependence analyzer).
//!
//! # Examples
//!
//! ```
//! use pluto_ilp::IlpProblem;
//! // minimize (x, y) lexicographically s.t. x + y >= 3, x <= 2, x,y >= 0
//! let mut p = IlpProblem::new(2);
//! p.add_ineq(vec![1, 1, -3]); // x + y - 3 >= 0
//! p.add_ineq(vec![-1, 0, 2]); // -x + 2 >= 0
//! assert_eq!(p.lexmin(), Some(vec![0, 3]));
//! ```
//!
//! DESIGN.md §3.4 explains the PipLib substitution; §5 maps the crate; counters it feeds are in PERFORMANCE.md §4.

// The solver's public surface is the PIP stand-in contract; keep
// every item documented.
#![deny(missing_docs)]
mod solver;

pub use solver::{IlpProblem, SolveError, WarmBase};

#[cfg(test)]
mod brute {
    //! Brute-force reference used by the test-suite only.
    use pluto_linalg::Int;

    /// Enumerates the lexmin of `{x : rows·(x,1) >= 0, 0 <= x_i <= bound}`.
    pub fn lexmin_boxed(num_vars: usize, rows: &[Vec<Int>], bound: Int) -> Option<Vec<Int>> {
        let mut best: Option<Vec<Int>> = None;
        let mut x = vec![0; num_vars];
        loop {
            let ok = rows.iter().all(|r| {
                let mut v = r[num_vars];
                for i in 0..num_vars {
                    v += r[i] * x[i];
                }
                v >= 0
            });
            if ok {
                match &best {
                    None => best = Some(x.clone()),
                    Some(b) if x < *b => best = Some(x.clone()),
                    _ => {}
                }
            }
            // Odometer increment.
            let mut i = num_vars;
            loop {
                if i == 0 {
                    return best;
                }
                i -= 1;
                if x[i] < bound {
                    x[i] += 1;
                    for v in x[i + 1..].iter_mut() {
                        *v = 0;
                    }
                    break;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pluto_linalg::Int;
    use pluto_obs::{counters, ObsSession};
    use testkit::Rng;

    /// `rows` with four redundant rows spliced in at seeded positions: an
    /// exact duplicate, the ×2 and ×3 multiples, and a dominated row (same
    /// coefficients, looser constant) — each of a seeded original. None
    /// changes the feasible set, so none may change the lexmin.
    fn with_redundant_rows(rng: &mut Rng, rows: &[Vec<Int>]) -> Vec<Vec<Int>> {
        let mut out = rows.to_vec();
        for kind in 0..4 {
            let mut row = rng.choose(rows).clone();
            match kind {
                0 => {}
                1 | 2 => row.iter_mut().for_each(|v| *v *= kind + 1),
                _ => *row.last_mut().unwrap() += rng.range_i64(1, 4) as Int,
            }
            out.insert(rng.range_usize(0, out.len()), row);
        }
        out
    }

    #[test]
    fn simple_lexmin() {
        let mut p = IlpProblem::new(2);
        p.add_ineq(vec![1, 1, -3]);
        assert_eq!(p.lexmin(), Some(vec![0, 3]));
    }

    #[test]
    fn forces_first_var_positive() {
        // x >= 1 (so lexmin starts at 1), then x + y >= 4 forces y = 3.
        let mut p = IlpProblem::new(2);
        p.add_ineq(vec![1, 0, -1]);
        p.add_ineq(vec![1, 1, -4]);
        assert_eq!(p.lexmin(), Some(vec![1, 3]));
    }

    #[test]
    fn equality_support() {
        let mut p = IlpProblem::new(2);
        p.add_eq(vec![1, 1, -5]); // x + y = 5
        p.add_ineq(vec![-1, 0, 3]); // x <= 3
        p.add_ineq(vec![1, -1, 1]); // y <= x + 1
        assert_eq!(p.lexmin(), Some(vec![2, 3]));
    }

    #[test]
    fn infeasible_detected() {
        let mut p = IlpProblem::new(1);
        p.add_ineq(vec![1, -5]); // x >= 5
        p.add_ineq(vec![-1, 3]); // x <= 3
        assert_eq!(p.lexmin(), None);
        assert!(!p.is_feasible());
    }

    #[test]
    fn integrality_needs_cut() {
        // 2x >= 1 over integers => x >= 1 (rational lexmin x = 1/2).
        let mut p = IlpProblem::new(1);
        p.add_ineq(vec![2, -1]);
        assert_eq!(p.lexmin(), Some(vec![1]));
    }

    #[test]
    fn integer_empty_but_rational_nonempty() {
        // 2x = 1 has rational solution x=1/2 but no integer one.
        let mut p = IlpProblem::new(1);
        p.add_eq(vec![2, -1]);
        assert_eq!(p.lexmin(), None);
    }

    #[test]
    fn free_variable_feasibility() {
        // x <= -2 with x free: feasible only if free vars supported.
        let rows = vec![vec![-1, -2]]; // -x - 2 >= 0
        assert!(IlpProblem::feasible_with_free_vars(1, &rows));
        // x >= 1 and x <= -1: infeasible.
        let rows2 = vec![vec![1, -1], vec![-1, -1]];
        assert!(!IlpProblem::feasible_with_free_vars(1, &rows2));
    }

    #[test]
    fn warm_start_matches_cold_solve() {
        // A WarmBase extended with rows must give exactly the lexmin a
        // cold solve over the union gives — on feasible, integer-cut,
        // and infeasible extensions alike.
        let mut rng = Rng::new(0x5EED_BA5E);
        let mut redundant = Rng::new(0x5EED_D0B1);
        for case in 0..300 {
            let n = rng.range_usize(1, 4);
            let base_rows = rng.range_usize(1, 4);
            let extra_rows = rng.range_usize(1, 3);
            let row = |rng: &mut Rng| -> Vec<i128> {
                let mut r: Vec<i128> = (0..n).map(|_| rng.range_i64(-3, 3) as i128).collect();
                r.push(rng.range_i64(-6, 6) as i128);
                r
            };
            let base_vec: Vec<Vec<i128>> = (0..base_rows).map(|_| row(&mut rng)).collect();
            let mut base = IlpProblem::new(n);
            for r in &base_vec {
                base.add_ineq(r.clone());
            }
            let extra: Vec<Vec<i128>> = (0..extra_rows).map(|_| row(&mut rng)).collect();
            let mut cold = base.clone();
            for e in &extra {
                cold.add_ineq(e.clone());
            }
            let warm = base.solve_base().expect("base within budget");
            let want = cold.try_lexmin().expect("cold within budget");
            assert_eq!(
                warm.lexmin_with(&extra).expect("warm within budget"),
                want,
                "case {case}: base {base:?} extra {extra:?}"
            );
            // Redundant rows on either side of the warm/cold split move
            // neither answer.
            let mut padded = IlpProblem::new(n);
            for r in with_redundant_rows(&mut redundant, &base_vec) {
                padded.add_ineq(r);
            }
            let padded_extra = with_redundant_rows(&mut redundant, &extra);
            let warm = padded.solve_base().expect("padded base within budget");
            assert_eq!(
                warm.lexmin_with(&padded_extra).expect("warm within budget"),
                want,
                "case {case}: padded base {padded:?} extra {padded_extra:?}"
            );
            for e in padded_extra {
                padded.add_ineq(e);
            }
            assert_eq!(padded.try_lexmin().expect("cold within budget"), want);
        }
    }

    #[test]
    fn infeasible_base_short_circuits_extensions() {
        let mut p = IlpProblem::new(1);
        p.add_ineq(vec![1, -5]); // x >= 5
        p.add_ineq(vec![-1, 3]); // x <= 3
        let warm = p.solve_base().unwrap();
        assert!(!warm.base_feasible());
        assert_eq!(warm.lexmin_with(&[vec![1, 0]]), Ok(None));
    }

    #[test]
    fn warm_start_reuses_the_basis_across_objectives() {
        // The band-base pattern: one base, several per-row extensions.
        let mut base = IlpProblem::new(3);
        base.add_ineq(vec![1, 1, 1, -6]); // x + y + z >= 6
        base.add_ineq(vec![-1, 0, 0, 4]); // x <= 4
        let warm = base.solve_base().unwrap();
        assert!(warm.base_feasible());
        // Extension 1: force x >= 2.
        assert_eq!(
            warm.lexmin_with(&[vec![1, 0, 0, -2]]),
            Ok(Some(vec![2, 0, 4]))
        );
        // Extension 2 (same base, different rows): y = 0 and z <= 3.
        assert_eq!(
            warm.lexmin_with(&[vec![0, -1, 0, 0], vec![0, 0, -1, 3]]),
            Ok(Some(vec![3, 0, 3]))
        );
        // Extension 3: contradictory rows stay infeasible.
        assert_eq!(
            warm.lexmin_with(&[vec![0, 1, 0, -9], vec![0, -1, 0, 2]]),
            Ok(None)
        );
    }

    #[test]
    fn randomized_against_brute_force() {
        let mut rng = Rng::new(0xB0DDE5);
        let mut redundant = Rng::new(0xB0DD_D0B1);
        for case in 0..300 {
            let n = rng.range_usize(1, 3);
            let m = rng.range_usize(1, 4);
            let mut rows: Vec<Vec<i128>> = Vec::new();
            for _ in 0..m {
                let mut r: Vec<i128> = (0..n).map(|_| rng.range_i64(-3, 3) as i128).collect();
                r.push(rng.range_i64(-6, 6) as i128);
                rows.push(r);
            }
            // Box the problem so brute force terminates: x_i <= 7.
            let mut p = IlpProblem::new(n);
            let mut all = rows.clone();
            for r in &rows {
                p.add_ineq(r.clone());
            }
            for i in 0..n {
                let mut r = vec![0; n + 1];
                r[i] = -1;
                r[n] = 7;
                p.add_ineq(r.clone());
                all.push(r);
            }
            let got = p.lexmin();
            let want = brute::lexmin_boxed(n, &all, 7);
            assert_eq!(got, want, "case {case}: rows {rows:?}");
            let mut padded = IlpProblem::new(n);
            for r in with_redundant_rows(&mut redundant, &all) {
                padded.add_ineq(r);
            }
            assert_eq!(padded.lexmin(), want, "case {case}: padded {padded:?}");
        }
    }

    #[test]
    fn pivot_and_cut_counts_repeat_exactly() {
        // 40 seeded rows over 4 boxed variables, all satisfied by one
        // hidden point so the solver has to walk to a lexmin: the pivot
        // path is a function of the rows alone, so two solves under fresh
        // sessions report the same work.
        let mut rng = Rng::new(0xD17E_2417);
        let n = 4;
        let mut p = IlpProblem::new(n);
        for i in 0..n {
            let mut r = vec![0; n + 1];
            r[i] = -1;
            r[n] = 9;
            p.add_ineq(r);
        }
        let hidden: Vec<Int> = (0..n).map(|_| rng.range_i64(1, 6) as Int).collect();
        while p.num_ineqs() < 40 {
            let mut r: Vec<Int> = (0..n).map(|_| rng.range_i64(-3, 5) as Int).collect();
            let at_hidden: Int = r.iter().zip(&hidden).map(|(a, x)| a * x).sum();
            r.push(rng.range_i64(0, 3) as Int - at_hidden);
            p.add_ineq(r);
        }
        let solve = || {
            let session = ObsSession::builder().profile().build();
            let _guard = session.install();
            let sol = p.try_lexmin().expect("within budget");
            (sol, counters::ILP_PIVOTS.get(), counters::ILP_CUTS.get())
        };
        let first = solve();
        assert!(first.1 > 0 && first.2 > 0, "must pivot and cut: {first:?}");
        assert_eq!(first, solve());
    }
}
