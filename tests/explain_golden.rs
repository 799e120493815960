//! Golden tests pinning the `pluto-explain/1` schema emitted by
//! `plutoc --explain-json` and the decision-log event kinds the
//! optimizer produces on the shipped example kernels. A failure here
//! means the explain surface changed: bump the schema string and
//! PERFORMANCE.md together, never silently.

use pluto_repro::obs::json;
use std::process::{Command, Stdio};

fn plutoc(args: &[&str]) -> (String, String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_plutoc"))
        .args(args)
        .stdin(Stdio::null())
        .output()
        .expect("plutoc runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

fn example(name: &str) -> String {
    format!("{}/examples/{name}.c", env!("CARGO_MANIFEST_DIR"))
}

/// Asserts one parsed `pluto-explain/1` document against the schema
/// contract: field names, per-row and per-dependence shapes, the stats
/// object, and internal consistency between the sections.
fn assert_explain_shape(doc: &json::Json, expect_kernel: &str) {
    assert_eq!(
        doc.get("schema").expect("schema field").as_str(),
        Some("pluto-explain/1")
    );
    assert_eq!(
        doc.get("kernel").expect("kernel field").as_str(),
        Some(expect_kernel)
    );
    assert!(doc
        .get("program")
        .expect("program field")
        .as_str()
        .is_some());

    let rows = doc.get("rows").expect("rows field").as_array().unwrap();
    assert!(!rows.is_empty());
    for (i, r) in rows.iter().enumerate() {
        assert_eq!(r.get("index").expect("row.index").as_u64(), Some(i as u64));
        let kind = r.get("kind").expect("row.kind").as_str().unwrap();
        assert!(kind == "loop" || kind == "scalar", "row kind: {kind}");
        let par = r.get("par").expect("row.par").as_str().unwrap();
        assert!(par == "parallel" || par == "sequential", "row par: {par}");
        assert!(r
            .get("tile_level")
            .expect("row.tile_level")
            .as_u64()
            .is_some());
        assert!(matches!(
            r.get("skewed").expect("row.skewed"),
            json::Json::Bool(_)
        ));
    }

    let bands = doc.get("bands").expect("bands field").as_array().unwrap();
    for b in bands {
        let start = b.get("start").expect("band.start").as_u64().unwrap();
        let width = b.get("width").expect("band.width").as_u64().unwrap();
        assert!(width >= 1);
        assert!((start + width) as usize <= rows.len(), "band inside rows");
        assert!(b
            .get("tile_level")
            .expect("band.tile_level")
            .as_u64()
            .is_some());
    }

    let deps = doc
        .get("dependences")
        .expect("dependences field")
        .as_array()
        .unwrap();
    assert!(!deps.is_empty());
    for (i, d) in deps.iter().enumerate() {
        assert_eq!(d.get("index").expect("dep.index").as_u64(), Some(i as u64));
        assert!(d.get("src").expect("dep.src").as_str().is_some());
        assert!(d.get("dst").expect("dep.dst").as_str().is_some());
        let kind = d.get("kind").expect("dep.kind").as_str().unwrap();
        assert!(
            ["flow", "anti", "output", "input"].contains(&kind),
            "dep kind: {kind}"
        );
        assert!(d
            .get("orig_level")
            .expect("dep.orig_level")
            .as_u64()
            .is_some());
        // satisfied_at is a row index or null; when a row, it must exist.
        let sat = d.get("satisfied_at").expect("dep.satisfied_at");
        if let Some(r) = sat.as_u64() {
            assert!((r as usize) < rows.len(), "satisfied_at inside rows");
        } else {
            assert!(sat.is_null());
        }
        for c in d
            .get("carried_at")
            .expect("dep.carried_at")
            .as_array()
            .unwrap()
        {
            assert!((c.as_u64().unwrap() as usize) < rows.len());
        }
    }

    let stats = doc.get("stats").expect("stats field");
    for f in [
        "rows_solved",
        "candidates_rejected",
        "scc_cuts",
        "row_solve_failures",
        "feautrier_fallbacks",
    ] {
        assert!(stats
            .get(f)
            .unwrap_or_else(|| panic!("stats.{f}"))
            .as_u64()
            .is_some());
    }
    assert!(doc
        .get("dropped_events")
        .expect("dropped_events field")
        .as_u64()
        .is_some());

    // Events: every element carries a kind discriminator, and the stats
    // tallies agree with the stream.
    let events = doc.get("events").expect("events field").as_array().unwrap();
    assert!(!events.is_empty());
    let count = |k: &str| {
        events
            .iter()
            .filter(|e| e.get("kind").expect("event.kind").as_str() == Some(k))
            .count() as u64
    };
    assert_eq!(
        stats.get("rows_solved").unwrap().as_u64(),
        Some(count("row_solved"))
    );
    assert_eq!(
        stats.get("scc_cuts").unwrap().as_u64(),
        Some(count("scc_cut"))
    );
    assert_eq!(
        stats.get("row_solve_failures").unwrap().as_u64(),
        Some(count("row_solve_failed"))
    );
}

/// The distinct event kinds of a document's event stream, sorted.
fn event_kinds(doc: &json::Json) -> Vec<String> {
    let mut kinds: Vec<String> = doc
        .get("events")
        .unwrap()
        .as_array()
        .unwrap()
        .iter()
        .map(|e| e.get("kind").unwrap().as_str().unwrap().to_string())
        .collect();
    kinds.sort();
    kinds.dedup();
    kinds
}

/// Seidel-2d (paper Fig. 10): one fused time-skewed band, tiled and
/// wavefronted. The decision log must show exactly the Farkas builds,
/// the three row solves, the band close, tiling, and the wavefront —
/// no cuts, no failures, no Feautrier fallback.
#[test]
fn seidel_explain_json_pins_schema_and_event_kinds() {
    let (stdout, _stderr, ok) = plutoc(&["--explain-json", &example("seidel-2d")]);
    assert!(ok);
    let doc = json::parse(&stdout).expect("stdout must be exactly one JSON document");
    assert_explain_shape(&doc, "seidel-2d");
    assert_eq!(
        event_kinds(&doc),
        [
            "band_closed",
            "farkas_eliminated",
            "row_solved",
            "rows_inserted",
            "wavefront"
        ]
    );
    let stats = doc.get("stats").unwrap();
    assert_eq!(stats.get("rows_solved").unwrap().as_u64(), Some(3));
    assert_eq!(stats.get("scc_cuts").unwrap().as_u64(), Some(0));
    // The time-skewed band: every legality dependence is satisfied at
    // some point-loop row of the final transformation.
    for d in doc.get("dependences").unwrap().as_array().unwrap() {
        if d.get("kind").unwrap().as_str() != Some("input") {
            assert!(d.get("satisfied_at").unwrap().as_u64().is_some());
        }
    }
}

/// Jacobi-1d: two statements the smart fusion policy separates with a
/// scalar cut, so `scc_cut` joins the seidel kinds.
#[test]
fn jacobi_explain_json_pins_schema_and_event_kinds() {
    let (stdout, _stderr, ok) = plutoc(&["--explain-json", &example("jacobi-1d")]);
    assert!(ok);
    let doc = json::parse(&stdout).expect("valid JSON");
    assert_explain_shape(&doc, "jacobi-1d");
    assert_eq!(
        event_kinds(&doc),
        [
            "band_closed",
            "farkas_eliminated",
            "row_solved",
            "rows_inserted",
            "scc_cut",
            "wavefront"
        ]
    );
    let stats = doc.get("stats").unwrap();
    assert_eq!(stats.get("rows_solved").unwrap().as_u64(), Some(2));
    assert_eq!(stats.get("scc_cuts").unwrap().as_u64(), Some(1));
}

/// `--explain` is the human form: the report and the decision log go to
/// stderr, the C program still goes to stdout, and the per-row lines
/// distinguish tile-band, point-loop, and wavefront-skewed rows.
#[test]
fn explain_text_goes_to_stderr_and_c_to_stdout() {
    let (stdout, stderr, ok) = plutoc(&["--explain", &example("seidel-2d")]);
    assert!(ok);
    assert!(
        stdout.contains("#pragma omp parallel for"),
        "C still emitted"
    );
    assert!(
        stderr.contains("tile band L1"),
        "tile rows named:\n{stderr}"
    );
    assert!(stderr.contains("wavefront-skewed"), "wavefront row named");
    assert!(stderr.contains("point loop"), "point rows named");
    assert!(stderr.contains("decision log ("), "decision log attached");
    assert!(
        stderr.contains("tile row(s) inserted"),
        "tiling event rendered"
    );
}

/// Only one `*-json` flag may claim stdout.
#[test]
fn explain_json_conflicts_with_other_json_flags() {
    for other in ["--profile-json", "--analyze-json"] {
        let (_stdout, stderr, ok) = plutoc(&["--explain-json", other, &example("jacobi-1d")]);
        assert!(!ok, "{other} + --explain-json must be rejected");
        assert!(stderr.contains("stdout"), "conflict names stdout: {stderr}");
    }
}

/// The ledger-agreement gate: `--analyze` re-proves every positive
/// satisfaction claim of the same decision log the explain document
/// serializes (PL007). A clean exit means the telemetry and the
/// independent derivation agree on every shipped example. The document
/// itself equals, key order included, the one the hand-written emitter
/// of PR 14 printed for `plutoc --tile 32 --threads 1 --explain-json`.
#[test]
fn explain_ledger_agrees_with_the_analyzer() {
    for (kernel, fixture) in [
        ("seidel-2d", include_str!("fixtures/seidel-2d.explain.json")),
        ("jacobi-1d", include_str!("fixtures/jacobi-1d.explain.json")),
        ("matmul", include_str!("fixtures/matmul.explain.json")),
    ] {
        let path = example(kernel);
        let args = ["--tile", "32", "--threads", "1", "--explain-json"];
        let (stdout, stderr, ok) = plutoc(&[&args[..], &["--analyze", &path]].concat());
        assert!(ok, "{kernel}: analyzer must be clean:\n{stderr}");
        let doc = json::parse(&stdout).expect("valid JSON");
        assert_eq!(doc.get("schema").unwrap().as_str(), Some("pluto-explain/1"));
        assert!(
            !stderr.contains("PL007"),
            "{kernel}: ledger divergence reported:\n{stderr}"
        );
        assert_eq!(
            doc,
            json::parse(fixture).unwrap(),
            "{kernel}: pluto-explain/1 drifted from its fixture"
        );
    }
}
