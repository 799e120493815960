//! Integration tests for the `plutoc` command-line tool.

use std::io::Write as _;
use std::process::{Command, Stdio};

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
    // A plutoc that rejects its options exits without reading stdin, so
    // the pipe may already be closed.
    match child
        .stdin
        .as_mut()
        .expect("stdin")
        .write_all(stdin.as_bytes())
    {
        Err(e) if e.kind() != std::io::ErrorKind::BrokenPipe => panic!("write source: {e}"),
        _ => {}
    }
    let out = child.wait_with_output().expect("plutoc runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

#[test]
fn emits_openmp_c_from_stdin() {
    let (stdout, _, ok) = plutoc(&["--tile", "16", "-"], SRC);
    assert!(ok);
    assert!(stdout.contains("#define S1(t,i)"));
    assert!(stdout.contains("#pragma omp parallel for"));
    assert!(stdout.contains("floord("));
}

#[test]
fn verify_mode_checks_results() {
    let (_, stderr, ok) = plutoc(&["--tile", "8", "--verify", "9,40", "-"], SRC);
    assert!(ok, "{stderr}");
    assert!(stderr.contains("verified"), "{stderr}");
}

/// The profile is finished after the `--verify` execution, so it lists
/// the run it describes: the reference walk of the original order and
/// the bytecode compile + run of the transformed code.
#[test]
fn verify_execution_shows_in_the_profile() {
    let (stdout, stderr, ok) = plutoc(&["--verify", "64,8", "--profile-json", "-"], SRC);
    assert!(ok, "{stderr}");
    assert!(stderr.contains("verified"), "{stderr}");
    for phase in ["execute/sequential", "execute/compile", "execute/compiled"] {
        assert!(
            stdout.contains(&format!("\"path\": \"{phase}\"")),
            "profile lacks the `{phase}` phase:\n{stdout}"
        );
    }
}

#[test]
fn show_transform_prints_rows() {
    let (_, stderr, ok) = plutoc(&["--show-transform", "--notile", "-"], SRC);
    assert!(ok);
    assert!(stderr.contains("c1 ="), "{stderr}");
    assert!(stderr.contains("2*t"), "paper's skew-2 visible: {stderr}");
}

#[test]
fn rejects_bad_source() {
    let (_, stderr, ok) = plutoc(&["-"], "for (i = 0; i < N; i++) z[i*i] = 1;");
    assert!(!ok);
    assert!(stderr.contains("plutoc:"), "{stderr}");
}

#[test]
fn verify_param_count_mismatch_fails() {
    let (_, stderr, ok) = plutoc(&["--verify", "5", "-"], SRC);
    assert!(!ok);
    assert!(stderr.contains("expects 2 value(s)"), "{stderr}");
}

#[test]
fn notile_noparallel_emit_plain_loops() {
    let (stdout, _, ok) = plutoc(&["--notile", "--noparallel", "-"], SRC);
    assert!(ok);
    assert!(!stdout.contains("#pragma omp"));
}

#[test]
fn analyze_reports_clean_pipeline() {
    let (stdout, stderr, ok) = plutoc(&["--tile", "8", "--analyze", "-"], SRC);
    assert!(ok, "{stderr}");
    assert!(stderr.contains("0 error(s)"), "{stderr}");
    // The C output still goes to stdout alongside the report.
    assert!(stdout.contains("#define S1(t,i)"));
}

#[test]
fn analyze_json_emits_diagnostics_array() {
    let (stdout, stderr, ok) = plutoc(&["--tile", "8", "--analyze-json", "-"], SRC);
    assert!(ok, "{stderr}");
    let trimmed = stdout.trim();
    assert!(
        trimmed.starts_with('[') && trimmed.ends_with(']'),
        "expected a JSON array on stdout, got: {stdout}"
    );
    // JSON mode replaces the C output.
    assert!(!stdout.contains("#define"));
}

#[test]
fn analyze_flags_out_of_bounds_source() {
    // a[i+1] with i <= N-2 needs extent N, but only N-1 is declared.
    let bad = "
params N;
array a[N - 1]; array b[N];
for (i = 0; i <= N - 2; i++)
  b[i] = a[i + 1];
";
    let (_, stderr, ok) = plutoc(&["--notile", "--analyze", "-"], bad);
    assert!(!ok, "analyzer must fail the exit code on PL002");
    assert!(stderr.contains("PL002-oob"), "{stderr}");
    assert!(stderr.contains("witness"), "{stderr}");
    // Without --analyze the same source still compiles (the analyzer is
    // opt-in at the CLI).
    let (_, _, ok2) = plutoc(&["--notile", "-"], bad);
    assert!(ok2);
}

#[test]
fn nonpositive_extent_is_a_clean_error() {
    let src = "
params N;
array a[N - 16]; array b[N];
for (i = 0; i < N - 16; i++)
  b[i] = a[i];
";
    let (_, stderr, ok) = plutoc(&["--verify", "10", "-"], src);
    assert!(!ok);
    assert!(
        stderr.contains("non-positive extent"),
        "expected a proper error, not a panic: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
}

/// The code-changing options share one table with `plutod`: an
/// out-of-range value is that table's typed error, not the tiler's
/// assertion.
#[test]
fn nonpositive_tile_sizes_are_clean_errors() {
    for (args, message) in [
        (["--tile", "0"], "`tile` must be a positive integer"),
        (["--tile", "-4"], "`tile` must be a positive integer"),
        (["--l2", "0"], "`l2` must be a positive integer"),
    ] {
        let (_, stderr, ok) = plutoc(&[args[0], args[1], "-"], SRC);
        assert!(!ok, "{args:?} must fail");
        assert!(stderr.contains(message), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}
