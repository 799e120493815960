//! Golden tests pinning the `pluto-profile/3` schema emitted by
//! `plutoc --profile-json` and the profile returned by
//! `pluto_schedule` — the machine-readable surface PERFORMANCE.md
//! documents and downstream tooling parses. A failure here means the
//! schema changed: bump the schema string and PERFORMANCE.md together,
//! never silently. Each version is a strict superset of the previous
//! (v2 added `exec`, v3 added `hists`); the v1/v2-consumer compat
//! tests pin that.

mod common;

use pluto_repro::obs::{counters, hist, json};
use std::io::Write as _;
use std::process::{Command, Stdio};

/// The jacobi-like library kernel used across the CLI tests.
const SRC: &str = "
params N, T;
array a[N]; array b[N];
for (t = 0; t < T; t++) {
  for (i = 2; i <= N - 2; i++)
    b[i] = 0.333 * (a[i-1] + a[i] + a[i+1]);
  for (j = 2; j <= N - 2; j++)
    a[j] = b[j];
}
";

fn plutoc(args: &[&str], stdin: &str) -> (String, String, bool) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_plutoc"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn plutoc");
    // A child that rejects its flags exits before reading stdin, so a
    // broken pipe here is expected, not an error.
    let _ = child
        .stdin
        .as_mut()
        .expect("stdin")
        .write_all(stdin.as_bytes());
    let out = child.wait_with_output().expect("plutoc runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

/// Asserts one parsed `pluto-profile/3` document against the schema
/// contract: field names, phase paths, the exact counter registry, and
/// the latency-histogram registry.
fn assert_profile_shape(doc: &json::Json, expect_kernel: &str) {
    assert_eq!(
        doc.get("schema").expect("schema field").as_str(),
        Some("pluto-profile/3")
    );
    // Compile-only profile: the exec section is present but null.
    assert!(doc.get("exec").expect("exec field").is_null());
    assert_eq!(
        doc.get("kernel").expect("kernel field").as_str(),
        Some(expect_kernel)
    );
    assert!(
        doc.get("total_ns")
            .expect("total_ns field")
            .as_u64()
            .unwrap()
            > 0
    );

    let phases = doc.get("phases").expect("phases field").as_array().unwrap();
    let paths: Vec<&str> = phases
        .iter()
        .map(|p| p.get("path").expect("phase.path").as_str().unwrap())
        .collect();
    // The pipeline phases every compile goes through (sorted by path,
    // parents before children).
    for expected in [
        "codegen",
        "optimize",
        "optimize/deps",
        "optimize/search",
        "optimize/tiling",
        "parse",
    ] {
        assert!(
            paths.contains(&expected),
            "missing phase {expected}: {paths:?}"
        );
    }
    let mut sorted = paths.clone();
    sorted.sort_unstable();
    assert_eq!(paths, sorted, "phases must be sorted by path");
    for p in phases {
        assert!(p.get("calls").expect("phase.calls").as_u64().unwrap() >= 1);
        assert!(p.get("wall_ns").expect("phase.wall_ns").as_u64().is_some());
    }

    // Counters: the full registry, in registry order, zeros included —
    // consumers may index by position.
    let cs = doc
        .get("counters")
        .expect("counters field")
        .as_array()
        .unwrap();
    let names: Vec<&str> = cs
        .iter()
        .map(|c| c.get("name").expect("counter.name").as_str().unwrap())
        .collect();
    let registry: Vec<&str> = counters::all().iter().map(|c| c.name()).collect();
    assert_eq!(names, registry, "counter set drifted from the registry");
    for c in cs {
        assert!(c.get("value").expect("counter.value").as_u64().is_some());
    }
    // A compile cannot happen without ILP solves and dependence tests.
    let value = |n: &str| {
        cs.iter()
            .find(|c| c.get("name").unwrap().as_str() == Some(n))
            .and_then(|c| c.get("value").unwrap().as_u64())
            .unwrap()
    };
    assert!(value("ilp.solves") > 0);
    assert!(value("ilp.pivots") > 0);
    assert!(value("ir.dep_candidates") > 0);
    assert!(value("codegen.loops") > 0);

    // Histograms (new in /3): the full registry in registry order, every
    // document carrying all log2 buckets so the shape is position-stable.
    let hs = doc.get("hists").expect("hists field").as_array().unwrap();
    let hist_names: Vec<&str> = hs
        .iter()
        .map(|h| h.get("name").expect("hist.name").as_str().unwrap())
        .collect();
    let hist_registry: Vec<&str> = hist::all().iter().map(|h| h.name()).collect();
    assert_eq!(
        hist_names, hist_registry,
        "hist set drifted from the registry"
    );
    for h in hs {
        let buckets = h.get("buckets").expect("hist.buckets").as_array().unwrap();
        assert_eq!(buckets.len(), hist::NUM_BUCKETS, "all log2 buckets present");
        let total: u64 = buckets.iter().map(|b| b.as_u64().unwrap()).sum();
        assert_eq!(
            total,
            h.get("count").expect("hist.count").as_u64().unwrap(),
            "bucket sum must equal the sample count"
        );
        assert!(h.get("sum_ns").expect("hist.sum_ns").as_u64().is_some());
    }
    // A compile cannot happen without per-row lexmin solves or legality
    // Farkas systems; their latency histograms must have samples.
    let hist_count = |n: &str| {
        hs.iter()
            .find(|h| h.get("name").unwrap().as_str() == Some(n))
            .and_then(|h| h.get("count").unwrap().as_u64())
            .unwrap()
    };
    assert!(hist_count("ilp.latency.search_row") > 0);
    assert!(hist_count("ilp.latency.legality") > 0);
}

#[test]
fn profile_json_schema_is_stable_on_stdin() {
    let (stdout, _stderr, ok) = plutoc(&["--profile-json"], SRC);
    assert!(ok);
    let doc = json::parse(&stdout).expect("stdout must be exactly one JSON document");
    assert_profile_shape(&doc, "stdin");
}

#[test]
fn profile_json_works_on_the_shipped_examples() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/jacobi-1d.c");
    // `--threads 1`: serial dependence analysis, so every counter repeats.
    let args = ["--tile", "32", "--threads", "1", "--profile-json", path];
    let (stdout, _stderr, ok) = plutoc(&args, "");
    assert!(ok);
    let mut doc = json::parse(&stdout).expect("valid JSON");
    assert_profile_shape(&doc, "jacobi-1d");
    // The document equals the one the hand-written emitter of PR 14
    // printed for the same command, key order included, once the clock's
    // share is zeroed.
    let mut fixture = json::parse(include_str!("fixtures/jacobi-1d.profile.json")).unwrap();
    common::zero_timing(&mut doc);
    common::zero_timing(&mut fixture);
    assert_eq!(doc, fixture, "pluto-profile/3 drifted from its fixture");
}

#[test]
fn profile_table_goes_to_stderr_and_c_to_stdout() {
    let (stdout, stderr, ok) = plutoc(&["--profile"], SRC);
    assert!(ok);
    assert!(
        stdout.contains("#pragma omp parallel for"),
        "C still emitted"
    );
    assert!(stderr.contains("ilp.pivots"), "table on stderr:\n{stderr}");
    assert!(stderr.contains("optimize"), "phase rows on stderr");
}

#[test]
fn profile_and_analyze_json_conflict_is_rejected() {
    let (_stdout, stderr, ok) = plutoc(&["--profile-json", "--analyze-json"], SRC);
    assert!(!ok);
    assert!(stderr.contains("stdout"));
}

/// A consumer written against `pluto-profile/1` — one that reads only
/// the v1 fields and ignores keys it does not know — still works on a
/// v2 document: v2 only *adds* the `exec` field.
#[test]
fn v1_consumers_can_read_v2_documents() {
    let (stdout, _stderr, ok) = plutoc(&["--profile-json"], SRC);
    assert!(ok);
    let doc = json::parse(&stdout).expect("valid JSON");
    // Exactly the access pattern of a v1 consumer:
    assert!(doc.get("kernel").unwrap().as_str().is_some());
    assert!(doc.get("total_ns").unwrap().as_u64().unwrap() > 0);
    let phases = doc.get("phases").unwrap().as_array().unwrap();
    assert!(!phases.is_empty());
    let counters_j = doc.get("counters").unwrap().as_array().unwrap();
    assert_eq!(counters_j.len(), counters::all().len());
    // The only versioned gate a v1 consumer has is the schema prefix.
    let schema = doc.get("schema").unwrap().as_str().unwrap();
    assert!(schema.starts_with("pluto-profile/"));
}

/// A consumer written against `pluto-profile/2` — reading the v2 fields
/// including `exec`, ignoring keys it does not know — still works on a
/// v3 document: v3 only *adds* the `hists` section.
#[test]
fn v2_consumers_can_read_v3_documents() {
    let (stdout, _stderr, ok) = plutoc(&["--profile-json"], SRC);
    assert!(ok);
    let doc = json::parse(&stdout).expect("valid JSON");
    // Exactly the access pattern of a v2 consumer:
    assert!(doc.get("kernel").unwrap().as_str().is_some());
    assert!(doc.get("total_ns").unwrap().as_u64().unwrap() > 0);
    assert!(!doc.get("phases").unwrap().as_array().unwrap().is_empty());
    assert_eq!(
        doc.get("counters").unwrap().as_array().unwrap().len(),
        counters::all().len()
    );
    // The v2 addition: exec is always present (null for compile-only).
    assert!(doc.get("exec").unwrap().is_null());
    let schema = doc.get("schema").unwrap().as_str().unwrap();
    assert!(schema.starts_with("pluto-profile/"));
}

#[test]
fn audited_schedule_returns_a_populated_profile() {
    let prog = pluto_repro::frontend::parse(SRC).expect("parses");
    let compiled = pluto_repro::pluto_schedule(
        &prog,
        None,
        &pluto_repro::pluto::Optimizer::new().tile_size(8),
        Some(pluto_repro::compile::Audit::default()),
    )
    .expect("compiles");
    assert!(compiled.is_clean());
    let p = &compiled.profile;
    assert!(p.total_ns > 0);
    assert!(p.phase("optimize/search").is_some());
    assert!(p.phase("analyze").is_some());
    assert!(p.counter("ilp.solves").unwrap() > 0);
    assert_eq!(p.counters.len(), counters::all().len());
    // The document round-trips through the in-tree parser.
    let doc = p.to_json(None);
    assert_eq!(json::parse(&doc.to_pretty()).unwrap(), doc);
}
