//! Perf-regression diffing over the `BENCH_*.json` trajectory documents
//! — the machine check behind EXPERIMENTS.md's "the trend to watch
//! across PRs is this gap and the counter table".
//!
//! [`diff_documents`] compares two documents of the same schema
//! (`pluto-bench-pipeline/3` or `pluto-bench-kernels/3`, what
//! `bench_json` writes; a pair of `pluto-bench-pipeline/2` documents,
//! which have no `hists`, is still read) metric by metric. The gating policy follows PERFORMANCE.md §6:
//!
//! * **counter-based metrics** (solver counters, dispatch counts,
//!   simulated cache accesses/misses, `control_mix` counts) are
//!   deterministic for a given input, so they gate: an increase ≥ the
//!   fail threshold is a failure, any change ≥ the warn threshold is a
//!   warning;
//! * **wall-time metrics** (`total_ns`, phase `wall_ns`, variant
//!   `median_ns`, ILP-latency `p50_ns`/`p95_ns` quantiles, imbalance
//!   ratios, barrier wait) move with machine load, so they only ever
//!   warn.
//!
//! Documents whose `meta` sections disagree (different kernel set,
//! thread count, sample count or tile size) measured different things;
//! the diff refuses them ([`DiffError::Incompatible`]) instead of
//! silently comparing apples to oranges. The `bench_diff` binary maps
//! the outcomes to exit codes (0 clean, 1 failures, 2 refused).

use pluto_obs::json::{self, Json};

/// Default warn threshold (relative change).
pub const DEFAULT_WARN: f64 = 0.10;
/// Default fail threshold (relative increase, gated metrics only).
pub const DEFAULT_FAIL: f64 = 0.50;

/// Severity of one metric's change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Level {
    /// Change ≥ warn threshold (or a gated decrease worth noting).
    Warn,
    /// Gated metric increased ≥ fail threshold.
    Fail,
}

/// One metric whose change crossed a threshold.
#[derive(Debug, Clone)]
pub struct DiffLine {
    /// Dotted metric path, e.g. `lu/counters/ilp.pivots`.
    pub metric: String,
    /// Baseline value.
    pub base: f64,
    /// Fresh value.
    pub fresh: f64,
    /// Relative change `(fresh − base) / base` (`inf` for 0 → nonzero).
    pub rel: f64,
    /// Whether this metric is counter-based (deterministic) and thus
    /// eligible to fail the gate.
    pub gated: bool,
    /// Outcome.
    pub level: Level,
}

/// The result of comparing two compatible documents.
#[derive(Debug, Clone)]
pub struct DiffReport {
    /// The shared schema of both documents.
    pub schema: String,
    /// Total metrics compared (including unchanged ones).
    pub compared: usize,
    /// Changes that crossed a threshold, in document order.
    pub lines: Vec<DiffLine>,
}

impl DiffReport {
    /// Number of warning-level changes.
    pub fn warns(&self) -> usize {
        self.lines.iter().filter(|l| l.level == Level::Warn).count()
    }

    /// Number of failure-level changes (gated counter regressions).
    pub fn fails(&self) -> usize {
        self.lines.iter().filter(|l| l.level == Level::Fail).count()
    }
}

/// Why two documents could not be compared.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DiffError {
    /// A document is not valid JSON or not a known schema.
    Parse(String),
    /// Both documents parse but measured different configurations.
    Incompatible(String),
}

impl std::fmt::Display for DiffError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DiffError::Parse(m) => write!(f, "parse error: {m}"),
            DiffError::Incompatible(m) => write!(f, "incompatible documents: {m}"),
        }
    }
}

/// Accumulates metric pairs and classifies their deltas.
struct Differ {
    warn: f64,
    fail: f64,
    compared: usize,
    lines: Vec<DiffLine>,
}

impl Differ {
    fn add(&mut self, metric: String, base: f64, fresh: f64, gated: bool) {
        self.compared += 1;
        let rel = if base == 0.0 {
            if fresh == 0.0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            (fresh - base) / base
        };
        let level = if gated && rel >= self.fail {
            Some(Level::Fail)
        } else if rel.abs() >= self.warn {
            Some(Level::Warn)
        } else {
            None
        };
        if let Some(level) = level {
            self.lines.push(DiffLine {
                metric,
                base,
                fresh,
                rel,
                gated,
                level,
            });
        }
    }
}

fn num(v: &Json, what: &str) -> Result<f64, DiffError> {
    v.as_f64()
        .ok_or_else(|| DiffError::Parse(format!("{what} is not a number")))
}

fn field<'a>(v: &'a Json, key: &str, what: &str) -> Result<&'a Json, DiffError> {
    v.get(key)
        .ok_or_else(|| DiffError::Parse(format!("{what} has no `{key}` field")))
}

fn str_field<'a>(v: &'a Json, key: &str, what: &str) -> Result<&'a str, DiffError> {
    field(v, key, what)?
        .as_str()
        .ok_or_else(|| DiffError::Parse(format!("{what}.{key} is not a string")))
}

fn arr_field<'a>(v: &'a Json, key: &str, what: &str) -> Result<&'a [Json], DiffError> {
    field(v, key, what)?
        .as_array()
        .ok_or_else(|| DiffError::Parse(format!("{what}.{key} is not an array")))
}

/// Finds the element of `items` whose `key` field equals `value`.
fn find_by<'a>(items: &'a [Json], key: &str, value: &str) -> Option<&'a Json> {
    items
        .iter()
        .find(|it| it.get(key).and_then(|n| n.as_str()) == Some(value))
}

/// Checks the `meta` sections agree field-by-field (`engine` is the
/// kernels document's: run times from different engines don't compare).
fn check_meta(base: &Json, fresh: &Json, is_pipeline: bool) -> Result<(), DiffError> {
    let bm = field(base, "meta", "baseline document")?;
    let fm = field(fresh, "meta", "fresh document")?;
    let shared = [
        "kernel_set_hash",
        "tile",
        "threads",
        "samples",
        "pool_spawns",
    ];
    for key in shared.into_iter().chain((!is_pipeline).then_some("engine")) {
        let bv = field(bm, key, "baseline meta")?;
        let fv = field(fm, key, "fresh meta")?;
        let same = match (bv.as_str(), fv.as_str()) {
            (Some(a), Some(b)) => a == b,
            _ => bv.as_f64() == fv.as_f64() && bv.as_f64().is_some(),
        };
        if !same {
            return Err(DiffError::Incompatible(format!(
                "meta.{key} differs — refusing to compare different measurement configurations"
            )));
        }
    }
    Ok(())
}

/// Compares two `BENCH_*.json` documents.
///
/// # Errors
/// [`DiffError::Parse`] if either document is malformed or has an
/// unknown schema; [`DiffError::Incompatible`] if the schemas or `meta`
/// sections disagree, or a baseline kernel/variant/counter is missing
/// from the fresh document.
pub fn diff_documents(
    base_text: &str,
    fresh_text: &str,
    warn: f64,
    fail: f64,
) -> Result<DiffReport, DiffError> {
    let base = json::parse(base_text).map_err(|e| DiffError::Parse(format!("baseline: {e}")))?;
    let fresh = json::parse(fresh_text).map_err(|e| DiffError::Parse(format!("fresh: {e}")))?;
    let bs = str_field(&base, "schema", "baseline document")?;
    let fs = str_field(&fresh, "schema", "fresh document")?;
    if bs != fs {
        return Err(DiffError::Incompatible(format!("schema `{bs}` vs `{fs}`")));
    }
    let is_pipeline = bs == "pluto-bench-pipeline/2" || bs == "pluto-bench-pipeline/3";
    if !is_pipeline && bs != "pluto-bench-kernels/3" {
        return Err(DiffError::Parse(format!("unknown schema `{bs}`")));
    }
    check_meta(&base, &fresh, is_pipeline)?;
    let mut d = Differ {
        warn,
        fail,
        compared: 0,
        lines: Vec::new(),
    };
    let bks = arr_field(&base, "kernels", "baseline document")?;
    let fks = arr_field(&fresh, "kernels", "fresh document")?;
    for bk in bks {
        let name = str_field(bk, "kernel", "kernel entry")?;
        let fk = find_by(fks, "kernel", name).ok_or_else(|| {
            DiffError::Incompatible(format!("kernel `{name}` missing from fresh document"))
        })?;
        if is_pipeline {
            diff_pipeline_kernel(&mut d, name, bk, fk)?;
        } else {
            diff_kernels_kernel(&mut d, name, bk, fk)?;
        }
    }
    Ok(DiffReport {
        schema: bs.to_string(),
        compared: d.compared,
        lines: d.lines,
    })
}

fn diff_pipeline_kernel(d: &mut Differ, name: &str, bk: &Json, fk: &Json) -> Result<(), DiffError> {
    d.add(
        format!("{name}/total_ns"),
        num(field(bk, "total_ns", name)?, "total_ns")?,
        num(field(fk, "total_ns", name)?, "total_ns")?,
        false,
    );
    let fphases = arr_field(fk, "phases", name)?;
    for bp in arr_field(bk, "phases", name)? {
        let path = str_field(bp, "path", "phase entry")?;
        // Phases present only in one document (a pass gained/lost) are
        // structural, not a regression; skip rather than refuse.
        if let Some(fp) = find_by(fphases, "path", path) {
            d.add(
                format!("{name}/phases/{path}/wall_ns"),
                num(field(bp, "wall_ns", path)?, "wall_ns")?,
                num(field(fp, "wall_ns", path)?, "wall_ns")?,
                false,
            );
        }
    }
    let fcounters = arr_field(fk, "counters", name)?;
    for bc in arr_field(bk, "counters", name)? {
        let cname = str_field(bc, "name", "counter entry")?;
        let fc = find_by(fcounters, "name", cname).ok_or_else(|| {
            DiffError::Incompatible(format!("counter `{cname}` missing from fresh `{name}`"))
        })?;
        d.add(
            format!("{name}/counters/{cname}"),
            num(field(bc, "value", cname)?, "value")?,
            num(field(fc, "value", cname)?, "value")?,
            true,
        );
    }
    // ILP-latency quantile deltas (schema /3 adds `hists`): latency is
    // wall time, so these warn and never gate — the counters above stay
    // the deterministic regression fence. /2 baselines simply have no
    // `hists` section and skip this block, keeping old fixtures valid.
    if let (Some(bhists), Some(fhists)) = (bk.get("hists"), fk.get("hists")) {
        let bhists = bhists
            .as_array()
            .ok_or_else(|| DiffError::Parse(format!("{name}.hists is not an array")))?;
        let fhists = fhists
            .as_array()
            .ok_or_else(|| DiffError::Parse(format!("{name}.hists is not an array")))?;
        for bh in bhists {
            let hname = str_field(bh, "name", "hist entry")?;
            let Some(fh) = find_by(fhists, "name", hname) else {
                continue; // histogram registry grew/shrank: structural
            };
            // Empty-on-both histograms carry no signal; skip so the
            // compared-metric count reflects real comparisons.
            let bcount = num(field(bh, "count", hname)?, "count")?;
            let fcount = num(field(fh, "count", hname)?, "count")?;
            if bcount == 0.0 && fcount == 0.0 {
                continue;
            }
            for key in ["p50_ns", "p95_ns"] {
                d.add(
                    format!("{name}/hists/{hname}/{key}"),
                    num(field(bh, key, hname)?, key)?,
                    num(field(fh, key, hname)?, key)?,
                    false,
                );
            }
        }
    }
    Ok(())
}

fn diff_kernels_kernel(d: &mut Differ, name: &str, bk: &Json, fk: &Json) -> Result<(), DiffError> {
    let fvariants = arr_field(fk, "variants", name)?;
    for bv in arr_field(bk, "variants", name)? {
        let vname = str_field(bv, "name", "variant entry")?;
        let fv = find_by(fvariants, "name", vname).ok_or_else(|| {
            DiffError::Incompatible(format!("variant `{vname}` missing from fresh `{name}`"))
        })?;
        d.add(
            format!("{name}/{vname}/median_ns"),
            num(field(bv, "median_ns", vname)?, "median_ns")?,
            num(field(fv, "median_ns", vname)?, "median_ns")?,
            false,
        );
    }
    let be = field(bk, "exec", name)?;
    let fe = field(fk, "exec", name)?;
    for (key, gated) in [
        ("dispatches", true),
        ("imbalance_mean", false),
        ("imbalance_max", false),
        ("barrier_wait_ns", false),
    ] {
        d.add(
            format!("{name}/exec/{key}"),
            num(field(be, key, "exec")?, key)?,
            num(field(fe, key, "exec")?, key)?,
            gated,
        );
    }
    // Control-work counts: exact, so gated. A baseline from before the
    // section existed has nothing to compare.
    if let Some(bm) = bk.get("control_mix") {
        let fm = field(fk, "control_mix", name)?;
        for side in ["original", "transformed"] {
            let (bs, fs) = (field(bm, side, name)?, field(fm, side, name)?);
            let Json::Object(counts) = bs else {
                return Err(DiffError::Parse(format!(
                    "{name}.control_mix.{side} is not an object"
                )));
            };
            for (key, bv) in counts {
                d.add(
                    format!("{name}/control_mix/{side}/{key}"),
                    num(bv, key)?,
                    num(field(fs, key, side)?, key)?,
                    true,
                );
            }
        }
    }
    let farrays = arr_field(fe, "arrays", "exec")?;
    for ba in arr_field(be, "arrays", "exec")? {
        let aname = str_field(ba, "name", "array entry")?;
        let fa = find_by(farrays, "name", aname).ok_or_else(|| {
            DiffError::Incompatible(format!("array `{aname}` missing from fresh `{name}`"))
        })?;
        for key in ["accesses", "l1_misses", "l2_misses"] {
            d.add(
                format!("{name}/arrays/{aname}/{key}"),
                num(field(ba, key, aname)?, key)?,
                num(field(fa, key, aname)?, key)?,
                true,
            );
        }
    }
    Ok(())
}

/// Renders the human-readable delta table (only changes that crossed a
/// threshold; a clean diff renders the summary line alone).
pub fn render_report(r: &DiffReport) -> String {
    let mut out = format!(
        "bench_diff: {} — {} metrics compared\n",
        r.schema, r.compared
    );
    if !r.lines.is_empty() {
        out.push_str(&format!(
            "  {:<48} {:>14} {:>14} {:>9}\n",
            "metric", "base", "new", "delta"
        ));
        for l in &r.lines {
            let delta = if l.rel.is_infinite() {
                "+inf".to_string()
            } else {
                format!("{:+.1}%", l.rel * 100.0)
            };
            let tag = match l.level {
                Level::Fail => "  FAIL",
                Level::Warn if l.gated => "  warn",
                Level::Warn => "  warn (wall)",
            };
            out.push_str(&format!(
                "  {:<48} {:>14} {:>14} {:>9}{}\n",
                l.metric, l.base, l.fresh, delta, tag
            ));
        }
    }
    out.push_str(&format!(
        "  summary: {} warning(s), {} failure(s)\n",
        r.warns(),
        r.fails()
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pipeline_doc(pivots: u64, wall: u64) -> String {
        format!(
            r#"{{
  "schema": "pluto-bench-pipeline/2",
  "meta": {{"kernel_set_hash": "abc", "tile": 8, "threads": 4, "samples": 5, "pool_spawns": 3}},
  "kernels": [
    {{
      "kernel": "lu",
      "total_ns": {wall},
      "phases": [{{"path": "optimize", "calls": 1, "wall_ns": {wall}}}],
      "counters": [{{"name": "ilp.pivots", "value": {pivots}}}]
    }}
  ]
}}"#
        )
    }

    #[test]
    fn self_compare_is_clean() {
        let doc = pipeline_doc(1000, 5000);
        let r = diff_documents(&doc, &doc, DEFAULT_WARN, DEFAULT_FAIL).unwrap();
        assert_eq!(r.fails(), 0);
        assert_eq!(r.warns(), 0);
        assert!(r.compared >= 3);
    }

    #[test]
    fn counter_regression_fails_wall_regression_warns() {
        let base = pipeline_doc(1000, 5000);
        let fresh = pipeline_doc(1500, 50000); // +50% counter, 10x wall
        let r = diff_documents(&base, &fresh, DEFAULT_WARN, DEFAULT_FAIL).unwrap();
        assert_eq!(r.fails(), 1, "report: {}", render_report(&r));
        let fail = r.lines.iter().find(|l| l.level == Level::Fail).unwrap();
        assert_eq!(fail.metric, "lu/counters/ilp.pivots");
        // Wall-time metrics never fail, only warn.
        assert!(r.lines.iter().all(|l| l.level != Level::Fail || l.gated));
        assert!(r.warns() >= 2); // total_ns + phase wall_ns
    }

    #[test]
    fn counter_improvement_only_warns() {
        let base = pipeline_doc(1000, 5000);
        let fresh = pipeline_doc(200, 5000); // -80% counter
        let r = diff_documents(&base, &fresh, DEFAULT_WARN, DEFAULT_FAIL).unwrap();
        assert_eq!(r.fails(), 0);
        assert_eq!(r.warns(), 1);
    }

    fn pipeline3_doc(p50: u64, p95: u64) -> String {
        format!(
            r#"{{
  "schema": "pluto-bench-pipeline/3",
  "meta": {{"kernel_set_hash": "abc", "tile": 8, "threads": 4, "samples": 5, "pool_spawns": 3}},
  "kernels": [
    {{
      "kernel": "lu",
      "total_ns": 5000,
      "phases": [{{"path": "optimize", "calls": 1, "wall_ns": 5000}}],
      "counters": [{{"name": "ilp.pivots", "value": 1000}}],
      "hists": [
        {{"name": "ilp.latency.search_row", "count": 10, "sum_ns": 9000,
          "p50_ns": {p50}, "p95_ns": {p95}, "buckets": [10]}},
        {{"name": "ilp.latency.emptiness", "count": 0, "sum_ns": 0,
          "p50_ns": 0, "p95_ns": 0, "buckets": [0]}}
      ]
    }}
  ]
}}"#
        )
    }

    #[test]
    fn latency_quantile_regressions_warn_but_never_fail() {
        let base = pipeline3_doc(800, 900);
        let fresh = pipeline3_doc(800, 9000); // p95 x10
        let r = diff_documents(&base, &fresh, DEFAULT_WARN, DEFAULT_FAIL).unwrap();
        assert_eq!(r.fails(), 0, "report: {}", render_report(&r));
        let warn = r
            .lines
            .iter()
            .find(|l| l.metric == "lu/hists/ilp.latency.search_row/p95_ns")
            .expect("p95 delta reported");
        assert_eq!(warn.level, Level::Warn);
        assert!(!warn.gated);
        // Empty-on-both histograms are skipped, quantiles of the sampled
        // one are compared (p50 + p95).
        let hist_metrics = r.compared;
        let r2 = diff_documents(&base, &base, DEFAULT_WARN, DEFAULT_FAIL).unwrap();
        assert_eq!(r2.compared, hist_metrics);
        assert_eq!(r2.warns() + r2.fails(), 0);
    }

    #[test]
    fn meta_mismatch_is_refused() {
        let base = pipeline_doc(1000, 5000);
        let fresh = base.replace("\"threads\": 4", "\"threads\": 8");
        let err = diff_documents(&base, &fresh, DEFAULT_WARN, DEFAULT_FAIL).unwrap_err();
        assert!(matches!(err, DiffError::Incompatible(_)), "{err}");
    }

    /// The kernels document names its engine: a baseline timed on
    /// another engine — or a `/2` one, which did not say — is refused.
    #[test]
    fn kernels_engine_mismatch_and_v2_are_refused() {
        let doc = r#"{"schema": "pluto-bench-kernels/3",
            "meta": {"kernel_set_hash": "abc", "tile": 8, "threads": 4, "samples": 5,
                     "pool_spawns": 3, "engine": "bytecode"},
            "kernels": []}"#;
        let r = diff_documents(doc, doc, DEFAULT_WARN, DEFAULT_FAIL).unwrap();
        assert_eq!(r.compared, 0);
        let other = doc.replace("bytecode", "tree-walk");
        let err = diff_documents(&other, doc, DEFAULT_WARN, DEFAULT_FAIL).unwrap_err();
        assert!(matches!(err, DiffError::Incompatible(_)), "{err}");
        let v2 = doc.replace("kernels/3", "kernels/2");
        let err = diff_documents(&v2, doc, DEFAULT_WARN, DEFAULT_FAIL).unwrap_err();
        assert!(matches!(err, DiffError::Incompatible(_)), "{err}");
        let err = diff_documents(&v2, &v2, DEFAULT_WARN, DEFAULT_FAIL).unwrap_err();
        assert!(matches!(err, DiffError::Parse(_)), "{err}");
    }

    /// `control_mix` counts are exact: growth gates like any counter, and
    /// a baseline written before the section existed compares without it.
    #[test]
    fn control_mix_counts_are_gated() {
        let doc = |lets: u64| {
            format!(
                r#"{{"schema": "pluto-bench-kernels/3",
            "meta": {{"kernel_set_hash": "abc", "tile": 8, "threads": 4, "samples": 5,
                     "pool_spawns": 3, "engine": "bytecode"}},
            "kernels": [{{"kernel": "lu", "variants": [],
              "exec": {{"dispatches": 1, "imbalance_mean": 1, "imbalance_max": 1,
                       "barrier_wait_ns": 1, "arrays": []}},
              "control_mix": {{"original": {{"lets": 0, "instances": 100}},
                              "transformed": {{"lets": {lets}, "instances": 100}}}}}}]}}"#
            )
        };
        let r = diff_documents(&doc(4), &doc(8), DEFAULT_WARN, DEFAULT_FAIL).unwrap();
        assert_eq!(r.fails(), 1, "report: {}", render_report(&r));
        assert_eq!(r.lines[0].metric, "lu/control_mix/transformed/lets");
        assert!(r.lines[0].gated);
        let before = doc(4).replace("\"control_mix\"", "\"was_not_there\"");
        let r = diff_documents(&before, &doc(8), DEFAULT_WARN, DEFAULT_FAIL).unwrap();
        assert_eq!(r.compared, 4, "only the exec fields compare");
    }

    #[test]
    fn v1_documents_are_rejected() {
        let doc = pipeline_doc(1000, 5000).replace("pipeline/2", "pipeline/1");
        let err = diff_documents(&doc, &doc, DEFAULT_WARN, DEFAULT_FAIL).unwrap_err();
        assert!(matches!(err, DiffError::Parse(_)), "{err}");
    }
}
