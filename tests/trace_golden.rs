//! Golden tests for the runtime-telemetry surface: `obs::json` parser
//! edge cases, the exact `trace_event/1` Chrome-trace shape, and the
//! `plutoc --trace` end-to-end acceptance path on the seidel-2d
//! example (≥ `threads` distinct `tid` timelines with paired B/E
//! events). A golden failure means the trace schema changed: bump
//! `trace_event/1` and PERFORMANCE.md §5.4 together, never silently.

use pluto_repro::obs::json;
use pluto_repro::obs::trace::{Phase, Trace, TraceEvent};
use std::process::Command;

// ---------------------------------------------------------------------
// obs::json edge cases
// ---------------------------------------------------------------------

#[test]
fn parser_handles_escaped_strings() {
    let doc = r#"{"k": "quote \" backslash \\ slash \/ tab \t nl \n unicode é 😀"}"#;
    let v = json::parse(doc).expect("escapes parse");
    assert_eq!(
        v.get("k").unwrap().as_str(),
        Some("quote \" backslash \\ slash / tab \t nl \n unicode é 😀")
    );
}

#[test]
fn parser_handles_deep_nesting() {
    // As deep as the parser goes: MAX_DEPTH levels of arrays around one
    // number, then as many single-key objects. One level more is a
    // ParseError (`nesting_is_capped` in json.rs).
    let depth = json::MAX_DEPTH;
    let deep_array = format!("{}1{}", "[".repeat(depth), "]".repeat(depth));
    let mut v = &json::parse(&deep_array).expect("deep arrays parse");
    for _ in 0..depth {
        v = &v.as_array().expect("array level")[0];
    }
    assert_eq!(v.as_u64(), Some(1));

    let deep_obj = format!("{}0{}", "{\"x\":".repeat(depth), "}".repeat(depth));
    let mut v = &json::parse(&deep_obj).expect("deep objects parse");
    for _ in 0..depth {
        v = v.get("x").expect("object level");
    }
    assert_eq!(v.as_u64(), Some(0));
    assert!(json::parse(&format!("[{deep_array}]")).is_err());
}

#[test]
fn parser_handles_exponent_literals() {
    let doc = r#"{"a": 1e3, "b": 1.5E+2, "c": 25e-1, "d": -2.5e0, "e": 0e0}"#;
    let v = json::parse(doc).expect("exponents parse");
    assert_eq!(v.get("a").unwrap().as_f64(), Some(1000.0));
    assert_eq!(v.get("b").unwrap().as_f64(), Some(150.0));
    assert_eq!(v.get("c").unwrap().as_f64(), Some(2.5));
    assert_eq!(v.get("d").unwrap().as_f64(), Some(-2.5));
    assert_eq!(v.get("e").unwrap().as_f64(), Some(0.0));
    // Malformed exponents must be rejected, not guessed at.
    assert!(json::parse(r#"{"x": 1e}"#).is_err());
    assert!(json::parse(r#"{"x": 1e+}"#).is_err());
    assert!(json::parse(r#"{"x": .5}"#).is_err());
}

// ---------------------------------------------------------------------
// trace_event/1 golden round-trip
// ---------------------------------------------------------------------

/// Builds a small trace by hand (fixed timestamps — no clock) so the
/// serialized form is fully deterministic.
fn golden_trace() -> Trace {
    let ev = |name: &str, ph, tid, ts_ns: u128, args: &[(&'static str, u64)]| TraceEvent {
        name: name.to_string(),
        ph,
        tid,
        ts_ns,
        args: args.to_vec(),
    };
    Trace {
        events: vec![
            ev("c1", Phase::Begin, 0, 1000, &[("items", 4), ("threads", 2)]),
            ev("c1", Phase::Begin, 1, 1500, &[("items", 2)]),
            ev("c1", Phase::End, 1, 2500, &[("instances", 2)]),
            ev("trace.dropped", Phase::Instant, 1, 2600, &[("events", 1)]),
            ev("c1", Phase::End, 0, 3000, &[("instances", 4)]),
        ],
    }
}

const GOLDEN: &str = r#"{
  "schema": "trace_event/1",
  "displayTimeUnit": "ns",
  "traceEvents": [
    {"name": "thread_name", "ph": "M", "pid": 1, "tid": 0, "args": {"name": "coordinator"}},
    {"name": "thread_name", "ph": "M", "pid": 1, "tid": 1, "args": {"name": "worker-1"}},
    {"name": "c1", "ph": "B", "pid": 1, "tid": 0, "ts": 0, "args": {"items": 4, "threads": 2}},
    {"name": "c1", "ph": "B", "pid": 1, "tid": 1, "ts": 0.5, "args": {"items": 2}},
    {"name": "c1", "ph": "E", "pid": 1, "tid": 1, "ts": 1.5, "args": {"instances": 2}},
    {"name": "trace.dropped", "ph": "i", "pid": 1, "tid": 1, "ts": 1.6, "s": "t", "args": {"events": 1}},
    {"name": "c1", "ph": "E", "pid": 1, "tid": 0, "ts": 2, "args": {"instances": 4}}
  ]
}"#;

#[test]
fn chrome_trace_output_matches_golden() {
    let doc = golden_trace().to_chrome_json().to_pretty();
    assert_eq!(doc, GOLDEN, "trace_event/1 shape drifted");
}

#[test]
fn chrome_trace_round_trips_through_parser() {
    let doc = golden_trace().to_chrome_json();
    let v = json::parse(&doc.to_pretty()).expect("strict RFC 8259");
    assert_eq!(v, doc);
    assert_eq!(v.get("schema").unwrap().as_str(), Some("trace_event/1"));
    assert_eq!(v.get("displayTimeUnit").unwrap().as_str(), Some("ns"));
    let evs = v.get("traceEvents").unwrap().as_array().unwrap();
    // 5 events + 2 thread_name metadata records.
    assert_eq!(evs.len(), 7);
    // Timestamps are microseconds normalized to the earliest event.
    let first_real = &evs[2];
    assert_eq!(first_real.get("ts").unwrap().as_f64(), Some(0.0));
    let last = &evs[6];
    assert_eq!(last.get("ts").unwrap().as_f64(), Some(2.0));
    // Instant events carry the scope field.
    assert_eq!(evs[5].get("s").unwrap().as_str(), Some("t"));
}

// ---------------------------------------------------------------------
// plutoc --trace acceptance path
// ---------------------------------------------------------------------

#[test]
fn plutoc_trace_on_seidel_2d_meets_acceptance() {
    let src = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/seidel-2d.c");
    let out_dir = std::env::temp_dir().join(format!("pluto-trace-{}", std::process::id()));
    std::fs::create_dir_all(&out_dir).unwrap();
    let out_path = out_dir.join("seidel-trace.json");
    let threads = 4;
    let status = Command::new(env!("CARGO_BIN_EXE_plutoc"))
        .args([
            "--tile",
            "8",
            "--threads",
            &threads.to_string(),
            "--trace",
            out_path.to_str().unwrap(),
            src,
        ])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()
        .expect("plutoc runs");
    assert!(status.success());

    let doc = std::fs::read_to_string(&out_path).expect("trace written");
    let v = json::parse(&doc).expect("trace validates with the in-tree parser");
    assert_eq!(v.get("schema").unwrap().as_str(), Some("trace_event/1"));
    let evs = v.get("traceEvents").unwrap().as_array().unwrap();

    // ≥ `threads` distinct tids, each with paired B/E span events.
    let mut tids: Vec<u64> = evs
        .iter()
        .filter(|e| e.get("ph").unwrap().as_str() != Some("M"))
        .map(|e| e.get("tid").unwrap().as_u64().unwrap())
        .collect();
    tids.sort_unstable();
    tids.dedup();
    assert!(
        tids.len() >= threads,
        "expected >= {threads} timelines, got {tids:?}"
    );
    for tid in tids {
        let count = |ph: &str| {
            evs.iter()
                .filter(|e| {
                    e.get("tid").unwrap().as_u64() == Some(tid)
                        && e.get("ph").unwrap().as_str() == Some(ph)
                })
                .count()
        };
        let (b, e) = (count("B"), count("E"));
        assert!(b >= 1, "tid {tid} has no spans");
        assert_eq!(b, e, "tid {tid} has unpaired B/E events");
    }
    std::fs::remove_dir_all(&out_dir).ok();
}
