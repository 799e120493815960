//! Transformation reports: which dependence is satisfied where, what each
//! band looks like, and why loops are (not) parallel — the information the
//! paper's figures annotate by hand. [`explain`] renders the human
//! report; [`explain_json`] builds the stable `pluto-explain/1` document
//! (schema in PERFORMANCE.md, pinned by `tests/explain_golden.rs`).

use crate::search::SearchResult;
use crate::types::{Parallelism, RowKind, Transformation};
use pluto_ir::{Dependence, Program};
use pluto_linalg::Int;
use pluto_obs::decision::DecisionLog;
use pluto_obs::json::{arr, num, obj, string, Json};
use std::fmt::Write as _;

/// The dependence-distance row `δ_k` over the joint space
/// `[src dims, dst dims, params, 1]` of the (possibly supernode-augmented)
/// transformed coordinates — unlike [`crate::farkas::distance_row`], which
/// assumes untiled rows over the original iterators only.
fn aug_distance_row(t: &Transformation, dep: &Dependence, k: usize, np: usize) -> Vec<Int> {
    let nd_s = t.domains[dep.src].num_vars() - np;
    let nd_t = t.domains[dep.dst].num_vars() - np;
    let src_row = &t.stmts[dep.src].rows[k];
    let dst_row = &t.stmts[dep.dst].rows[k];
    let mut out = vec![0; nd_s + nd_t + np + 1];
    for i in 0..nd_s {
        out[i] = -src_row[i];
    }
    out[nd_s..nd_s + nd_t].copy_from_slice(&dst_row[..nd_t]);
    for p in 0..np {
        out[nd_s + nd_t + p] = dst_row[nd_t + p] - src_row[nd_s + p];
    }
    out[nd_s + nd_t + np] = dst_row[nd_t + np] - src_row[nd_s + np];
    out
}

/// Whether `dep` is carried at row `r` of a possibly-tiled transformation:
/// with all outer distances pinned to zero, `δ_r >= 1` is reachable on the
/// joint polyhedron (endpoint domains ∧ parameter context ∧ dependence
/// relation embedded into the trailing original dims).
fn aug_carried_at(prog: &Program, t: &Transformation, dep: &Dependence, r: usize) -> bool {
    let np = prog.num_params();
    let nd_s = t.domains[dep.src].num_vars() - np;
    let nd_t = t.domains[dep.dst].num_vars() - np;
    let ms = t.num_orig_dims[dep.src];
    let mt = t.num_orig_dims[dep.dst];
    let joint = nd_s + nd_t + np;

    let mut set = t.domains[dep.src].insert_dims(nd_s, nd_t);
    set = set.intersect(&t.domains[dep.dst].insert_dims(0, nd_s));
    set = set.intersect(&prog.context.insert_dims(0, nd_s + nd_t));
    let embed = |row: &[Int]| {
        let mut out = vec![0; joint + 1];
        for j in 0..ms {
            out[nd_s - ms + j] = row[j];
        }
        for j in 0..mt {
            out[nd_s + nd_t - mt + j] = row[ms + j];
        }
        for p in 0..np {
            out[nd_s + nd_t + p] = row[ms + mt + p];
        }
        out[joint] = row[ms + mt + np];
        out
    };
    for row in dep.poly.eqs() {
        set.add_eq(embed(row));
    }
    for row in dep.poly.ineqs() {
        set.add_ineq(embed(row));
    }
    for k in 0..r {
        set.add_eq(aug_distance_row(t, dep, k, np));
    }
    let mut row = aug_distance_row(t, dep, r, np);
    row[joint] -= 1; // δ_r − 1 >= 0
    set.add_ineq(row);
    !set.is_empty()
}

/// Renders a full report for a transformation: per-row structure and the
/// dependence satisfaction table (dependence, kind, level, satisfying
/// row, and the rows that still carry it).
///
/// # Examples
/// ```
/// # use pluto::{explain, find_transformation, PlutoOptions};
/// # use pluto_ir::{analyze_dependences, Expr, ProgramBuilder, StatementSpec};
/// # let mut b = ProgramBuilder::new("scan", &["N"]);
/// # b.add_context_ineq(vec![1, -3]);
/// # b.add_array("a", 1);
/// # b.add_statement(StatementSpec {
/// #     name: "S1".into(),
/// #     iters: vec!["i".into()],
/// #     domain_ineqs: vec![vec![1, 0, -1], vec![-1, 1, -1]],
/// #     beta: vec![0, 0],
/// #     write: ("a".into(), vec![vec![1, 0, 0]]),
/// #     reads: vec![("a".into(), vec![vec![1, 0, -1]])],
/// #     body: Expr::Read(0),
/// # });
/// # let prog = b.build();
/// let deps = analyze_dependences(&prog, true);
/// let res = find_transformation(&prog, &deps, &PlutoOptions::default())?;
/// let report = explain(&prog, &deps, &res);
/// assert!(report.contains("satisfied"));
/// # Ok::<(), pluto::PlutoError>(())
/// ```
pub fn explain(prog: &Program, deps: &[Dependence], res: &SearchResult) -> String {
    let t = &res.transform;
    let mut out = String::new();
    let _ = writeln!(out, "transformation for `{}`:", prog.name);
    let _ = writeln!(out, "{}", t.display(prog));

    let _ = writeln!(out, "bands:");
    for (i, b) in t.bands.iter().enumerate() {
        let lvl = t.rows[b.start].tile_level;
        let _ = writeln!(
            out,
            "  band {i}: rows c{}..c{} (width {}, tile level {lvl})",
            b.start + 1,
            b.start + b.width,
            b.width
        );
    }

    let _ = writeln!(out, "rows:");
    for r in 0..t.num_rows() {
        let info = t.rows[r];
        let kind = match info.kind {
            RowKind::Loop => "loop",
            RowKind::Scalar => "scalar",
        };
        let par = match info.par {
            Parallelism::Parallel => "parallel",
            Parallelism::Vector => "vector",
            Parallelism::Sequential => "sequential",
        };
        // DESIGN.md §6 terminology: tile-band rows (supernode loops from
        // Algorithm 1) and the wavefront-skewed sum row (Algorithm 2) are
        // distinct kinds of row and reported distinctly.
        let tile = if info.tile_level > 0 {
            format!(", tile band L{}", info.tile_level)
        } else if info.kind == RowKind::Loop {
            ", point loop".to_string()
        } else {
            String::new()
        };
        let wave = if info.skewed {
            ", wavefront-skewed"
        } else {
            ""
        };
        let _ = writeln!(out, "  c{}: {kind}, {par}{tile}{wave}", r + 1);
    }

    let _ = writeln!(out, "dependences ({}):", deps.len());
    for (di, d) in deps.iter().enumerate() {
        let src = &prog.stmts[d.src].name;
        let dst = &prog.stmts[d.dst].name;
        let sat = match res.satisfied_at.get(di).copied().flatten() {
            Some(r) => format!("satisfied at c{}", r + 1),
            None => "never strictly satisfied".to_string(),
        };
        let mut carries = Vec::new();
        for r in 0..t.num_rows() {
            if t.rows[r].kind != RowKind::Loop {
                continue;
            }
            if aug_carried_at(prog, t, d, r) {
                carries.push(format!("c{}", r + 1));
            }
        }
        let carried = if carries.is_empty() {
            "carried nowhere".to_string()
        } else {
            format!("carried at {}", carries.join(","))
        };
        let _ = writeln!(
            out,
            "  [{di}] {src} -> {dst} ({}, orig level {}): {sat}; {carried}",
            d.kind, d.level
        );
    }
    out
}

/// The stable `pluto-explain/1` document: transformation rows (kind,
/// parallelism, tile level, wavefront skew), permutable bands, the
/// dependence satisfaction table, decision-log search statistics and the
/// event stream itself. Key order is part of the schema (pinned by
/// `tests/explain_golden.rs`); renaming or reordering keys is a schema
/// break and requires bumping to `pluto-explain/2`.
pub fn explain_json(
    prog: &Program,
    deps: &[Dependence],
    res: &SearchResult,
    log: &DecisionLog,
    kernel: Option<&str>,
) -> Json {
    let t = &res.transform;
    let rows = (0..t.num_rows()).map(|r| {
        let info = t.rows[r];
        let kind = match info.kind {
            RowKind::Loop => "loop",
            RowKind::Scalar => "scalar",
        };
        let par = match info.par {
            Parallelism::Parallel => "parallel",
            Parallelism::Vector => "vector",
            Parallelism::Sequential => "sequential",
        };
        obj([
            ("index", num(r)),
            ("kind", string(kind)),
            ("par", string(par)),
            ("tile_level", num(info.tile_level)),
            ("skewed", Json::Bool(info.skewed)),
        ])
    });
    let bands = t.bands.iter().map(|b| {
        obj([
            ("start", num(b.start)),
            ("width", num(b.width)),
            ("tile_level", num(t.rows[b.start].tile_level)),
        ])
    });
    let dependences = deps.iter().enumerate().map(|(di, d)| {
        let carried = (0..t.num_rows())
            .filter(|&r| t.rows[r].kind == RowKind::Loop && aug_carried_at(prog, t, d, r));
        obj([
            ("index", num(di)),
            ("src", string(&*prog.stmts[d.src].name)),
            ("dst", string(&*prog.stmts[d.dst].name)),
            ("kind", string(d.kind.to_string())),
            ("orig_level", num(d.level)),
            (
                "satisfied_at",
                res.satisfied_at
                    .get(di)
                    .copied()
                    .flatten()
                    .map_or(Json::Null, num),
            ),
            ("carried_at", arr(carried.map(num))),
        ])
    });
    let s = log.stats();
    obj([
        ("schema", string("pluto-explain/1")),
        ("kernel", kernel.map_or(Json::Null, string)),
        ("program", string(&*prog.name)),
        ("rows", arr(rows)),
        ("bands", arr(bands)),
        ("dependences", arr(dependences)),
        (
            "stats",
            obj([
                ("rows_solved", num(s.rows_solved)),
                ("candidates_rejected", num(s.candidates_rejected)),
                ("scc_cuts", num(s.scc_cuts)),
                ("row_solve_failures", num(s.row_solve_failures)),
                ("feautrier_fallbacks", num(s.feautrier_fallbacks)),
            ]),
        ),
        ("dropped_events", num(log.dropped)),
        ("events", log.events_json()),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::{find_transformation, PlutoOptions};
    use pluto_ir::{analyze_dependences, Expr, ProgramBuilder, StatementSpec};

    #[test]
    fn explain_reports_structure() {
        let mut b = ProgramBuilder::new("sor", &["N"]);
        b.add_context_ineq(vec![1, -4]);
        b.add_array("a", 2);
        b.add_statement(StatementSpec {
            name: "S1".into(),
            iters: vec!["i".into(), "j".into()],
            domain_ineqs: vec![
                vec![1, 0, 0, -1],
                vec![-1, 0, 1, -1],
                vec![0, 1, 0, -1],
                vec![0, -1, 1, -1],
            ],
            beta: vec![0, 0, 0],
            write: ("a".into(), vec![vec![1, 0, 0, 0], vec![0, 1, 0, 0]]),
            reads: vec![
                ("a".into(), vec![vec![1, 0, 0, -1], vec![0, 1, 0, 0]]),
                ("a".into(), vec![vec![1, 0, 0, 0], vec![0, 1, 0, -1]]),
            ],
            body: Expr::Read(0) + Expr::Read(1),
        });
        let prog = b.build();
        let deps = analyze_dependences(&prog, true);
        let res = find_transformation(&prog, &deps, &PlutoOptions::default()).unwrap();
        let report = explain(&prog, &deps, &res);
        assert!(report.contains("band 0"));
        assert!(report.contains("S1 -> S1"));
        assert!(report.contains("carried at"));
        assert!(report.contains("satisfied at"));
        // Satellite: point rows are reported as such (no tiling ran here).
        assert!(report.contains("point loop"));
    }

    #[test]
    fn explain_reports_tile_and_wavefront_rows_distinctly() {
        let mut b = ProgramBuilder::new("sor", &["N"]);
        b.add_context_ineq(vec![1, -4]);
        b.add_array("a", 2);
        b.add_statement(StatementSpec {
            name: "S1".into(),
            iters: vec!["i".into(), "j".into()],
            domain_ineqs: vec![
                vec![1, 0, 0, -1],
                vec![-1, 0, 1, -1],
                vec![0, 1, 0, -1],
                vec![0, -1, 1, -1],
            ],
            beta: vec![0, 0, 0],
            write: ("a".into(), vec![vec![1, 0, 0, 0], vec![0, 1, 0, 0]]),
            reads: vec![
                ("a".into(), vec![vec![1, 0, 0, -1], vec![0, 1, 0, 0]]),
                ("a".into(), vec![vec![1, 0, 0, 0], vec![0, 1, 0, -1]]),
            ],
            body: Expr::Read(0) + Expr::Read(1),
        });
        let prog = b.build();
        let o = crate::Optimizer::new()
            .tile_size(16)
            .optimize(&prog)
            .unwrap();
        let report = explain(&prog, &o.deps, &o.result);
        // SOR tiles into a 2-row tile band whose first row is then
        // wavefront-skewed: both facts appear per-row.
        assert!(report.contains("tile band L1"), "{report}");
        assert!(report.contains("wavefront-skewed"), "{report}");
        assert!(report.contains("point loop"), "{report}");
    }

    #[test]
    fn explain_json_is_valid_and_complete() {
        let mut b = ProgramBuilder::new("scan", &["N"]);
        b.add_context_ineq(vec![1, -3]);
        b.add_array("a", 1);
        b.add_statement(StatementSpec {
            name: "S1".into(),
            iters: vec!["i".into()],
            domain_ineqs: vec![vec![1, 0, -1], vec![-1, 1, -1]],
            beta: vec![0, 0],
            write: ("a".into(), vec![vec![1, 0, 0]]),
            reads: vec![("a".into(), vec![vec![1, 0, -1]])],
            body: Expr::Read(0),
        });
        let prog = b.build();
        let deps = analyze_dependences(&prog, true);
        let res = find_transformation(&prog, &deps, &PlutoOptions::default()).unwrap();
        let v = explain_json(&prog, &deps, &res, &DecisionLog::default(), Some("scan.c"));
        assert_eq!(v.get("schema").unwrap().as_str(), Some("pluto-explain/1"));
        assert_eq!(v.get("kernel").unwrap().as_str(), Some("scan.c"));
        assert_eq!(
            v.get("rows").unwrap().as_array().unwrap().len(),
            res.transform.num_rows()
        );
        assert_eq!(
            v.get("dependences").unwrap().as_array().unwrap().len(),
            deps.len()
        );
        assert!(v.get("stats").unwrap().get("rows_solved").is_some());
        assert!(v.get("events").unwrap().as_array().is_some());
    }
}
