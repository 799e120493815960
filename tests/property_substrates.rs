//! Property tests for the substrates: exact arithmetic, Fourier–Motzkin
//! projection, the lexmin ILP solver, and the JSON document model.
//!
//! Runs on the hermetic `testkit` harness: every failure message carries
//! the case seed, and `TESTKIT_SEED=<n> TESTKIT_CASES=1` replays it.

use pluto_ilp::IlpProblem;
use pluto_linalg::Ratio;
use pluto_obs::json::{self, Json, MAX_DEPTH};
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

/// A random string over the characters the escaper has to get right.
fn gen_string(rng: &mut Rng) -> String {
    const ALPHABET: &[char] = &[
        'a', 'Z', '0', ' ', '"', '\\', '/', '\n', '\r', '\t', '\u{0}', '\u{7}', '\u{1f}', '\u{7f}',
        'é', 'µ', '\u{2028}', '😀', ':', ',', '{', '[',
    ];
    (0..rng.range_usize(0, 6))
        .map(|_| *rng.choose(ALPHABET))
        .collect()
}

fn gen_number(rng: &mut Rng) -> f64 {
    let sign = if rng.bool() { 1.0 } else { -1.0 };
    match rng.below(5) {
        0 => sign * 0.0, // 0 and -0
        1 => sign * rng.below((1 << 53) + 1) as f64,
        2 => rng.range_i64(-1_000_000, 1_000_000) as f64 / 1000.0,
        3 => sign * rng.f64(),
        _ => sign * rng.f64() * 10f64.powi(rng.range_i64(-20, 20) as i32),
    }
}

/// A random tree at most `depth` containers deep.
fn gen_json(rng: &mut Rng, depth: usize) -> Json {
    let kinds = if depth == 0 { 4 } else { 6 };
    match rng.below(kinds) {
        0 => Json::Null,
        1 => Json::Bool(rng.bool()),
        2 => Json::Number(gen_number(rng)),
        3 => Json::String(gen_string(rng)),
        4 => Json::Array(
            (0..rng.range_usize(0, 3))
                .map(|_| gen_json(rng, depth - 1))
                .collect(),
        ),
        _ => Json::Object(
            (0..rng.range_usize(0, 3))
                .map(|_| (gen_string(rng), gen_json(rng, depth - 1)))
                .collect(),
        ),
    }
}

fn json_depth(v: &Json) -> usize {
    match v {
        Json::Array(items) => 1 + items.iter().map(json_depth).max().unwrap_or(0),
        Json::Object(fields) => 1 + fields.iter().map(|(_, x)| json_depth(x)).max().unwrap_or(0),
        _ => 0,
    }
}

/// A tree of depth ≤ 4; one case in eight is wrapped in single-item
/// containers until it is exactly as deep as the parser accepts.
fn gen_document(rng: &mut Rng) -> Json {
    let mut v = gen_json(rng, 4);
    if rng.chance(1, 8) {
        for _ in json_depth(&v)..MAX_DEPTH {
            v = if rng.bool() {
                Json::Array(vec![v])
            } else {
                Json::Object(vec![(gen_string(rng), v)])
            };
        }
    }
    v
}

/// Children, then the container with one item dropped.
fn shrink_json(v: &Json) -> Vec<Json> {
    match v {
        Json::Array(items) => {
            let mut out = items.clone();
            out.extend((0..items.len()).map(|i| {
                let mut rest = items.clone();
                rest.remove(i);
                Json::Array(rest)
            }));
            out
        }
        Json::Object(fields) => {
            let mut out: Vec<Json> = fields.iter().map(|(_, x)| x.clone()).collect();
            out.extend((0..fields.len()).map(|i| {
                let mut rest = fields.clone();
                rest.remove(i);
                Json::Object(rest)
            }));
            out
        }
        _ => vec![],
    }
}

/// `to_pretty`'s rule, stated by the test: does `v` hold an array with an
/// object in it?
fn holds_object_array(v: &Json) -> bool {
    match v {
        Json::Array(items) => items
            .iter()
            .any(|x| matches!(x, Json::Object(_)) || holds_object_array(x)),
        Json::Object(fields) => fields.iter().any(|(_, x)| holds_object_array(x)),
        _ => false,
    }
}

/// How many lines the rule gives `v`: one, unless it is a non-empty
/// root or holds an object array — then a line per bracket plus its
/// items' lines.
fn pretty_lines(v: &Json, root: bool) -> usize {
    let items: Vec<&Json> = match v {
        Json::Array(items) => items.iter().collect(),
        Json::Object(fields) => fields.iter().map(|(_, x)| x).collect(),
        _ => vec![],
    };
    if items.is_empty() || !(root || holds_object_array(v)) {
        1
    } else {
        2 + items.iter().map(|x| pretty_lines(x, false)).sum::<usize>()
    }
}

/// Checks `text` line by line against the rule: two spaces of indent per
/// open bracket, and every line that is not a bracket is one whole value
/// (or `"key": value`) in `to_compact`'s form holding no object array.
fn check_pretty_layout(text: &str) -> Result<(), String> {
    let mut open = 0usize;
    for line in text.lines() {
        let body = line.trim_start_matches(' ');
        let body = body.strip_suffix(',').unwrap_or(body);
        if body == "}" || body == "]" {
            open -= 1;
        }
        if line.len() - line.trim_start_matches(' ').len() != 2 * open {
            return Err(format!("indent of {line:?} is not {}", 2 * open));
        }
        if body.ends_with('{') || body.ends_with('[') {
            open += 1;
        } else if body != "}" && body != "]" {
            let value = match json::parse(body) {
                Ok(v) => v,
                Err(_) => match json::parse(&format!("{{{body}}}")) {
                    Ok(Json::Object(mut member)) if member.len() == 1 => member.remove(0).1,
                    _ => return Err(format!("line {body:?} is not a value or a member")),
                },
            };
            if holds_object_array(&value) {
                return Err(format!("{body:?} holds an object array on one line"));
            }
            if !body.ends_with(&value.to_compact()) {
                return Err(format!("{body:?} is not in to_compact's form"));
            }
        }
    }
    Ok(())
}

/// Both serializers write what the parser reads back as the same value,
/// `to_pretty` lays it out by its one rule, and a `Raw` splice of
/// `to_compact` output is indistinguishable from the value itself.
#[test]
fn json_serializers_round_trip() {
    check(
        &Config::with_cases(512).from_env(),
        "json_serializers_round_trip",
        gen_document,
        shrink_json,
        |v| {
            let compact = v.to_compact();
            let pretty = v.to_pretty();
            if compact.contains('\n') {
                return Err(format!("to_compact wrote a newline: {compact:?}"));
            }
            for (name, text) in [("to_compact", &compact), ("to_pretty", &pretty)] {
                match json::parse(text) {
                    Ok(back) if back == *v => {}
                    Ok(back) => return Err(format!("{name}: {text}\nparsed back as {back:?}")),
                    Err(e) => return Err(format!("{name}: {text}\ndoes not parse: {e}")),
                }
            }
            let lines = pretty.lines().count();
            if lines != pretty_lines(v, true) {
                return Err(format!(
                    "to_pretty used {lines} lines, the rule gives {}:\n{pretty}",
                    pretty_lines(v, true)
                ));
            }
            check_pretty_layout(&pretty).map_err(|e| format!("{e}:\n{pretty}"))?;
            let raw = Json::Raw(compact.clone().into());
            for text in [raw.to_compact(), raw.to_pretty()] {
                if json::parse(&text).as_ref() != Ok(v) {
                    return Err(format!("Raw splice of {compact} reads back differently"));
                }
            }
            Ok(())
        },
    );
}
