//! Golden tests pinning the `plutod` compile-service surface: the
//! `pluto-rpc/1` request/response protocol, the `pluto-stats/1`
//! aggregate, and the `pluto-log/1` per-request record (schemas in
//! PERFORMANCE.md §5.6–5.7). A failure here means a wire schema
//! changed: bump the schema string and PERFORMANCE.md together, never
//! silently.
//!
//! The centerpiece is the concurrent stress test: many clients, the
//! thirteen paper kernels, repeats — asserting the aggregation
//! invariant (`pluto-stats/1` == the exact component-wise sum of the
//! served `pluto-profile/3` documents) and that the daemon's generated
//! C is bit-identical to `plutoc --threads 1` on the same source.

use pluto_repro::daemon::Daemon;
use pluto_repro::obs::json::{self, Json};
use std::collections::HashMap;
use std::io::Write as _;
use std::process::{Command, Stdio};

/// The thirteen stress kernels, written in the affine-C grammar the
/// daemon accepts (the paper's benchmark set, sized for a test run).
const KERNELS: &[(&str, &str)] = &[
    (
        "jacobi-1d",
        "params N, T;
         array a[N]; array b[N];
         for (t = 0; t < T; t++) {
           for (i = 2; i <= N - 2; i++)
             b[i] = 0.333 * (a[i-1] + a[i] + a[i+1]);
           for (j = 2; j <= N - 2; j++)
             a[j] = b[j];
         }",
    ),
    (
        "seidel-2d",
        "params N, T;
         array a[N][N];
         for (t = 0; t <= T - 1; t++)
           for (i = 1; i <= N - 2; i++)
             for (j = 1; j <= N - 2; j++)
               a[i][j] = 0.2 * (a[i][j] + a[i-1][j] + a[i+1][j] + a[i][j-1] + a[i][j+1]);",
    ),
    (
        "matmul",
        "params N;
         array A[N][N]; array B[N][N]; array C[N][N];
         for (i = 0; i <= N - 1; i++)
           for (j = 0; j <= N - 1; j++)
             for (k = 0; k <= N - 1; k++)
               C[i][j] = C[i][j] + A[i][k] * B[k][j];",
    ),
    (
        "mvt",
        "params N;
         array A[N][N]; array x1[N]; array x2[N]; array y1[N]; array y2[N];
         for (i = 0; i <= N - 1; i++)
           for (j = 0; j <= N - 1; j++)
             x1[i] = x1[i] + A[i][j] * y1[j];
         for (i = 0; i <= N - 1; i++)
           for (j = 0; j <= N - 1; j++)
             x2[i] = x2[i] + A[j][i] * y2[j];",
    ),
    (
        "lu",
        "params N;
         array A[N][N];
         for (k = 0; k <= N - 1; k++) {
           for (j = k + 1; j <= N - 1; j++)
             A[k][j] = A[k][j] / A[k][k];
           for (i = k + 1; i <= N - 1; i++)
             for (j = k + 1; j <= N - 1; j++)
               A[i][j] = A[i][j] - A[i][k] * A[k][j];
         }",
    ),
    (
        "gemver",
        "params N;
         array A[N][N]; array u1[N]; array v1[N]; array u2[N]; array v2[N];
         array x[N]; array y[N]; array w[N];
         for (i = 0; i <= N - 1; i++)
           for (j = 0; j <= N - 1; j++)
             A[i][j] = A[i][j] + u1[i] * v1[j] + u2[i] * v2[j];
         for (i = 0; i <= N - 1; i++)
           for (j = 0; j <= N - 1; j++)
             x[i] = x[i] + 1.5 * A[j][i] * y[j];
         for (i = 0; i <= N - 1; i++)
           for (j = 0; j <= N - 1; j++)
             w[i] = w[i] + 2.5 * A[i][j] * x[j];",
    ),
    (
        "trmm",
        "params N;
         array A[N][N]; array B[N][N];
         for (i = 0; i <= N - 1; i++)
           for (j = 0; j <= N - 1; j++)
             for (k = i + 1; k <= N - 1; k++)
               B[i][j] = B[i][j] + A[k][i] * B[k][j];",
    ),
    (
        "syrk",
        "params N, M;
         array A[N][M]; array C[N][N];
         for (i = 0; i <= N - 1; i++)
           for (j = 0; j <= N - 1; j++)
             for (k = 0; k <= M - 1; k++)
               C[i][j] = C[i][j] + A[i][k] * A[j][k];",
    ),
    (
        "doitgen",
        "params R, Q, P;
         array A[R][Q][P]; array sum[R][Q][P]; array C4[P][P];
         for (r = 0; r <= R - 1; r++)
           for (q = 0; q <= Q - 1; q++)
             for (p = 0; p <= P - 1; p++)
               for (s = 0; s <= P - 1; s++)
                 sum[r][q][p] = sum[r][q][p] + A[r][q][s] * C4[s][p];",
    ),
    (
        "fdtd-2d",
        "params N, T;
         array ex[N][N]; array ey[N][N]; array hz[N][N];
         for (t = 0; t <= T - 1; t++) {
           for (i = 1; i <= N - 1; i++)
             for (j = 0; j <= N - 1; j++)
               ey[i][j] = ey[i][j] - 0.5 * (hz[i][j] - hz[i-1][j]);
           for (i = 0; i <= N - 1; i++)
             for (j = 1; j <= N - 1; j++)
               ex[i][j] = ex[i][j] - 0.5 * (hz[i][j] - hz[i][j-1]);
           for (i = 0; i <= N - 2; i++)
             for (j = 0; j <= N - 2; j++)
               hz[i][j] = hz[i][j] - 0.7 * (ex[i][j+1] - ex[i][j] + ey[i+1][j] - ey[i][j]);
         }",
    ),
    (
        "jacobi-2d",
        "params N, T;
         array a[N][N]; array b[N][N];
         for (t = 0; t <= T - 1; t++) {
           for (i = 1; i <= N - 2; i++)
             for (j = 1; j <= N - 2; j++)
               b[i][j] = 0.2 * (a[i][j] + a[i-1][j] + a[i+1][j] + a[i][j-1] + a[i][j+1]);
           for (i = 1; i <= N - 2; i++)
             for (j = 1; j <= N - 2; j++)
               a[i][j] = b[i][j];
         }",
    ),
    (
        "trisolv",
        "params N;
         array L[N][N]; array x[N]; array b[N];
         for (i = 0; i <= N - 1; i++) {
           x[i] = b[i];
           for (j = 0; j <= i - 1; j++)
             x[i] = x[i] - L[i][j] * x[j];
         }",
    ),
    (
        "atax",
        "params N, M;
         array A[N][M]; array x[M]; array y[M]; array tmp[N];
         for (i = 0; i <= N - 1; i++)
           for (j = 0; j <= M - 1; j++)
             tmp[i] = tmp[i] + A[i][j] * x[j];
         for (i = 0; i <= N - 1; i++)
           for (j = 0; j <= M - 1; j++)
             y[j] = y[j] + A[i][j] * tmp[i];",
    ),
];

/// Builds a `compile` request line for `source` with a numeric id.
fn compile_request(id: u64, kernel: &str, source: &str) -> String {
    compile_request_with(id, kernel, source, &[("tile", Json::Number(8.0))])
}

/// [`compile_request`] with an explicit `options` object.
fn compile_request_with(id: u64, kernel: &str, source: &str, options: &[(&str, Json)]) -> String {
    let options = options
        .iter()
        .map(|(name, value)| (name.to_string(), value.clone()))
        .collect();
    Json::Object(vec![
        (
            "schema".to_string(),
            Json::String("pluto-rpc/1".to_string()),
        ),
        ("id".to_string(), Json::Number(id as f64)),
        ("method".to_string(), Json::String("compile".to_string())),
        ("kernel".to_string(), Json::String(kernel.to_string())),
        ("source".to_string(), Json::String(source.to_string())),
        ("options".to_string(), Json::Object(options)),
    ])
    .to_compact()
}

/// Handles one line and parses both output documents.
fn roundtrip(daemon: &Daemon, line: &str) -> (Json, Json) {
    let handled = daemon.handle_line(line);
    assert!(
        !handled.response.contains('\n') && !handled.log.contains('\n'),
        "wire documents must be single lines"
    );
    (
        json::parse(&handled.response).expect("response parses"),
        json::parse(&handled.log).expect("log parses"),
    )
}

fn get<'j>(doc: &'j Json, key: &str) -> &'j Json {
    doc.get(key).unwrap_or_else(|| panic!("missing `{key}`"))
}

fn get_str<'j>(doc: &'j Json, key: &str) -> &'j str {
    get(doc, key)
        .as_str()
        .unwrap_or_else(|| panic!("`{key}` is not a string"))
}

fn get_u64(doc: &Json, key: &str) -> u64 {
    get(doc, key)
        .as_u64()
        .unwrap_or_else(|| panic!("`{key}` is not an integer"))
}

/// The reference compiler: `plutoc <flags> --threads 1 -` on the same
/// source (single-threaded dependence analysis, like the daemon).
fn plutoc_reference(flags: &[&str], source: &str) -> String {
    let mut child = Command::new(env!("CARGO_BIN_EXE_plutoc"))
        .args(flags)
        .args(["--threads", "1", "-"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn plutoc");
    child
        .stdin
        .as_mut()
        .expect("stdin")
        .write_all(source.as_bytes())
        .expect("write source");
    let out = child.wait_with_output().expect("plutoc runs");
    assert!(
        out.status.success(),
        "plutoc failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

// ---------------------------------------------------------------------
// pluto-rpc/1: response schema
// ---------------------------------------------------------------------

#[test]
fn rpc_compile_response_schema_is_stable() {
    let daemon = Daemon::new();
    let (resp, _) = roundtrip(&daemon, &compile_request(7, "jacobi-1d", KERNELS[0].1));

    assert_eq!(get_str(&resp, "schema"), "pluto-rpc/1");
    assert_eq!(get_u64(&resp, "id"), 7, "id is echoed back");
    assert_eq!(get(&resp, "ok").as_bool(), Some(true));

    let result = get(&resp, "result");
    assert_eq!(get_str(result, "kernel"), "jacobi-1d");
    let fnv = get_str(result, "kernel_fnv");
    assert_eq!(fnv.len(), 16, "FNV-1a rendered as 16 hex digits: {fnv}");
    assert!(fnv.bytes().all(|b| b.is_ascii_hexdigit()));
    assert_eq!(get_str(result, "cache"), "miss", "first compile misses");

    let code = get_str(result, "code");
    assert!(
        code.contains("#pragma omp parallel for"),
        "tiled+parallel C"
    );
    assert!(code.contains("floord("), "tiled code uses floord");

    // The embedded per-request profile is a full pluto-profile/3.
    let profile = get(result, "profile");
    assert_eq!(get_str(profile, "schema"), "pluto-profile/3");
    assert!(get_u64(profile, "total_ns") > 0);
    let counters = get(profile, "counters").as_array().unwrap();
    assert!(!counters.is_empty());

    // And the embedded explain report is a full pluto-explain/1.
    let explain = get(result, "explain");
    assert_eq!(get_str(explain, "schema"), "pluto-explain/1");

    // String ids round-trip too.
    let (resp, _) = roundtrip(
        &daemon,
        r#"{"schema": "pluto-rpc/1", "id": "req-a", "method": "health"}"#,
    );
    assert_eq!(get_str(&resp, "id"), "req-a");
}

#[test]
fn rpc_error_responses_keep_schema() {
    let daemon = Daemon::new();
    // What a hostile client sends: 200 000 unclosed brackets used to
    // overflow the parser's stack and abort the process.
    let deep = "[".repeat(200_000);
    // (request line, expected error fragment)
    let cases: &[(&str, &str)] = &[
        ("{not json", "bad JSON"),
        (&deep, "bad JSON"),
        // Overflows f64: was echoed back as `"id": inf`, which is not JSON.
        (
            r#"{"id": 1e999, "method": "health"}"#,
            "number out of range",
        ),
        (r#"{"id": 1}"#, "missing `method`"),
        (r#"{"id": 2, "method": "reticulate"}"#, "unknown method"),
        (
            r#"{"id": 3, "method": "compile"}"#,
            "compile expects a string `source`",
        ),
        (
            r#"{"id": 4, "method": "compile", "source": "for (i = 0; i < N; i++) z[i*i] = 1;"}"#,
            "parse error",
        ),
        (
            r#"{"id": 5, "method": "compile", "source": "params N;", "options": {"tile": 0}}"#,
            "`tile` must be a positive integer",
        ),
        (
            r#"{"id": 6, "method": "compile", "source": "params N;", "options": {"frobnicate": 1}}"#,
            "unknown option `frobnicate`",
        ),
    ];
    for (line, fragment) in cases {
        let (resp, log) = roundtrip(&daemon, line);
        let line = &line[..line.len().min(80)]; // what a failure prints
        assert_eq!(get_str(&resp, "schema"), "pluto-rpc/1", "{line}");
        assert_eq!(get(&resp, "ok").as_bool(), Some(false), "{line}");
        let error = get_str(&resp, "error");
        assert!(error.contains(fragment), "{line}: got `{error}`");
        assert_eq!(get_str(&log, "status"), "error", "{line}");
        assert!(get_str(&log, "error").contains(fragment), "{line}");
    }
    // The service stays up: the same daemon still answers.
    let (resp, _) = roundtrip(&daemon, r#"{"id": 7, "method": "health"}"#);
    assert_eq!(get(&resp, "ok").as_bool(), Some(true));
    assert_eq!(get_str(get(&resp, "result"), "status"), "ok");
    // Only *compile* failures count as service errors; protocol noise
    // (bad JSON, unknown methods) is answered but not aggregated.
    assert_eq!(daemon.metrics().errors(), 4);
    assert_eq!(daemon.metrics().requests(), 0);
}

// ---------------------------------------------------------------------
// pluto-log/1: the per-request stderr record
// ---------------------------------------------------------------------

#[test]
fn log_record_schema_is_stable() {
    let daemon = Daemon::new();
    let (_, log) = roundtrip(&daemon, &compile_request(1, "matmul", KERNELS[2].1));

    assert_eq!(get_str(&log, "schema"), "pluto-log/1");
    assert_eq!(get_u64(&log, "id"), 1);
    assert_eq!(get_str(&log, "method"), "compile");
    assert_eq!(get_str(&log, "status"), "ok");
    assert!(get_u64(&log, "wall_ns") > 0);
    assert_eq!(get_str(&log, "kernel"), "matmul");
    assert_eq!(get_str(&log, "kernel_fnv").len(), 16);
    assert_eq!(get_str(&log, "cache"), "miss");

    // Phase breakdown: the compile pipeline's top-level spans.
    let phases = get(&log, "phases").as_array().unwrap();
    let paths: Vec<&str> = phases.iter().map(|p| get_str(p, "path")).collect();
    for expected in ["parse", "deps", "optimize", "codegen"] {
        assert!(paths.contains(&expected), "missing phase `{expected}`");
    }

    // Top counters: at most five, every value positive, sorted
    // descending so the heaviest work reads first.
    let counters = get(&log, "counters").as_array().unwrap();
    assert!(!counters.is_empty() && counters.len() <= 5);
    let values: Vec<u64> = counters.iter().map(|c| get_u64(c, "value")).collect();
    assert!(values.iter().all(|&v| v > 0));
    assert!(values.windows(2).all(|w| w[0] >= w[1]), "{values:?}");

    // A repeat is logged as a cache hit with no phase work.
    let (_, log) = roundtrip(&daemon, &compile_request(2, "matmul", KERNELS[2].1));
    assert_eq!(get_str(&log, "cache"), "hit");
    assert!(get(&log, "phases").as_array().unwrap().is_empty());
}

// ---------------------------------------------------------------------
// pluto-stats/1 and health
// ---------------------------------------------------------------------

#[test]
fn stats_and_health_schemas_are_stable() {
    let daemon = Daemon::new();
    roundtrip(&daemon, &compile_request(1, "mvt", KERNELS[3].1));
    roundtrip(&daemon, &compile_request(2, "mvt", KERNELS[3].1));

    let (resp, log) = roundtrip(&daemon, r#"{"id": 3, "method": "stats"}"#);
    assert_eq!(get_str(&log, "method"), "stats");
    let stats = get(&resp, "result");
    assert_eq!(get_str(stats, "schema"), "pluto-stats/1");
    assert!(get_u64(stats, "uptime_ns") > 0);
    assert_eq!(get_u64(stats, "requests"), 2);
    assert_eq!(get_u64(stats, "errors"), 0);

    let cache = get(stats, "cache");
    assert_eq!(get_u64(cache, "hits"), 1);
    assert_eq!(get_u64(cache, "misses"), 1);
    assert_eq!(get_u64(cache, "evictions"), 0);
    assert_eq!(get_u64(cache, "entries"), 1);
    assert_eq!(
        get_u64(cache, "capacity"),
        pluto_repro::daemon::DEFAULT_CACHE_CAP as u64
    );

    // Rolling whole-compile latency histogram with quantile estimates.
    let latency = get(stats, "latency");
    assert_eq!(get_u64(latency, "count"), 2);
    assert!(get_u64(latency, "sum_ns") > 0);
    for q in ["p50_ns", "p90_ns", "p99_ns"] {
        assert!(get_u64(latency, q) > 0, "{q}");
    }
    assert_eq!(
        get(latency, "buckets").as_array().unwrap().len(),
        pluto_repro::obs::hist::NUM_BUCKETS
    );

    // Full registries in registry order, zeros included — the same
    // contract as pluto-profile/3.
    let counters = get(stats, "counters").as_array().unwrap();
    assert_eq!(counters.len(), pluto_repro::obs::counters::all().len());
    let hists = get(stats, "hists").as_array().unwrap();
    assert_eq!(hists.len(), pluto_repro::obs::hist::all().len());
    assert!(get(stats, "phases").as_array().is_some());

    let (resp, _) = roundtrip(&daemon, r#"{"id": 4, "method": "health"}"#);
    let health = get(&resp, "result");
    assert_eq!(get_str(health, "status"), "ok");
    assert!(get_u64(health, "uptime_ns") > 0);
    assert_eq!(get_u64(health, "requests"), 2);
    assert_eq!(get_u64(health, "errors"), 0);
    assert_eq!(get_u64(health, "cache_entries"), 1);
    assert!(get(health, "pool_workers").as_u64().is_some());
}

// ---------------------------------------------------------------------
// The schedule cache
// ---------------------------------------------------------------------

#[test]
fn cache_capacity_bound_evicts_oldest_first() {
    let daemon = Daemon::with_cache_cap(2);
    let (a, b, c) = (KERNELS[0], KERNELS[3], KERNELS[11]);
    for (i, (name, src)) in [a, b, c].iter().enumerate() {
        let (resp, _) = roundtrip(&daemon, &compile_request(i as u64, name, src));
        assert_eq!(get_str(get(&resp, "result"), "cache"), "miss");
    }
    assert_eq!(daemon.cache_len(), 2, "capacity bound holds");
    assert_eq!(daemon.metrics().cache_totals(), (0, 3, 1));

    // The oldest entry (a) was the FIFO victim: recompiling it misses,
    // while the newest (c) still hits.
    let (resp, _) = roundtrip(&daemon, &compile_request(10, c.0, c.1));
    assert_eq!(get_str(get(&resp, "result"), "cache"), "hit");
    let (resp, _) = roundtrip(&daemon, &compile_request(11, a.0, a.1));
    assert_eq!(get_str(get(&resp, "result"), "cache"), "miss");
}

#[test]
fn warm_repeat_is_an_order_of_magnitude_faster() {
    let daemon = Daemon::new();
    let (name, src) = KERNELS[1]; // seidel-2d: a heavy cold compile
    let (cold, _) = roundtrip(&daemon, &compile_request(1, name, src));
    let (warm, log) = roundtrip(&daemon, &compile_request(2, name, src));

    let cold_r = get(&cold, "result");
    let warm_r = get(&warm, "result");
    assert_eq!(get_str(cold_r, "cache"), "miss");
    assert_eq!(get_str(warm_r, "cache"), "hit");
    assert_eq!(get_str(&log, "cache"), "hit", "hit visible in the log line");
    assert_eq!(
        get_str(cold_r, "code"),
        get_str(warm_r, "code"),
        "the cache serves the identical schedule"
    );

    // The acceptance bar: a warm repeat skips parse, dependence
    // analysis, search, and codegen — ≥10× faster end to end.
    let cold_ns = get_u64(get(cold_r, "profile"), "total_ns");
    let warm_ns = get_u64(get(warm_r, "profile"), "total_ns");
    assert!(
        warm_ns * 10 <= cold_ns,
        "warm repeat not ≥10× faster: cold {cold_ns}ns, warm {warm_ns}ns"
    );
}

/// `plutoc` flags as the same settings in an rpc `options` object:
/// `--name n` is `"name": n`, a bare `--name` is `"name": true`.
fn rpc_options<'f>(flags: &[&'f str]) -> Vec<(&'f str, Json)> {
    let mut options: Vec<(&str, Json)> = Vec::new();
    for flag in flags {
        match flag.strip_prefix("--") {
            Some(name) => options.push((name, Json::Bool(true))),
            None => {
                let last = options.last_mut().expect("a value follows its flag");
                last.1 = Json::Number(flag.parse().expect("numeric flag value"));
            }
        }
    }
    options
}

/// Option parity: the `pluto-rpc/1` `options` object and `plutoc`'s
/// flags feed one table, so every option — alone and combined — must
/// give the daemon's C byte-equal to `plutoc`'s, and the schedule-cache
/// fingerprint (derived from the whole optimizer) must keep requests
/// that differ in any one option apart.
#[test]
fn every_option_matches_plutoc_and_separates_cache_entries() {
    // Each case as plutoc flags; the first is the all-defaults baseline
    // every single-option case differs from in exactly that option.
    let cases: &[&[&str]] = &[
        &[],
        &["--tile", "16"],
        &["--l2", "2"],
        &["--notile"],
        &["--noparallel"],
        &["--nofuse"],
        &["--noinputdeps"],
        &["--wavefront", "2"],
        &["--tile", "16", "--nofuse", "--wavefront", "2"],
    ];
    let examples = [
        ("jacobi-1d", include_str!("../examples/jacobi-1d.c")),
        ("matmul", include_str!("../examples/matmul.c")),
        ("seidel-2d", include_str!("../examples/seidel-2d.c")),
    ];
    let daemon = Daemon::new();
    let compile = |flags: &[&str], name: &str, src: &str| {
        let request = compile_request_with(0, name, src, &rpc_options(flags));
        harvest(&roundtrip(&daemon, &request).0)
    };
    for flags in cases {
        for (name, src) in examples {
            let first = compile(flags, name, src);
            assert_eq!(
                first.cache, "miss",
                "`{name}` {flags:?}: shared a cache entry with another option set"
            );
            assert_eq!(
                first.code,
                plutoc_reference(flags, src),
                "`{name}`: daemon C differs from plutoc {flags:?}"
            );
        }
    }
    for flags in cases {
        for (name, src) in examples {
            assert_eq!(compile(flags, name, src).cache, "hit", "`{name}` {flags:?}");
        }
    }
}

// ---------------------------------------------------------------------
// The stress test: N clients, 13 kernels, repeats
// ---------------------------------------------------------------------

/// Per-request facts harvested from one `compile` response, enough to
/// re-derive the service aggregate from the wire documents alone.
struct Served {
    kernel: String,
    cache: String,
    code: String,
    total_ns: u64,
    /// counter name → value (full registry).
    counters: HashMap<String, u64>,
    /// phase path → (calls, wall_ns).
    phases: HashMap<String, (u64, u64)>,
    /// hist name → (count, sum_ns, buckets).
    hists: HashMap<String, (u64, u64, Vec<u64>)>,
}

fn harvest(resp: &Json) -> Served {
    assert_eq!(get(resp, "ok").as_bool(), Some(true), "{resp:?}");
    let r = get(resp, "result");
    let profile = get(r, "profile");
    Served {
        kernel: get_str(r, "kernel").to_string(),
        cache: get_str(r, "cache").to_string(),
        code: get_str(r, "code").to_string(),
        total_ns: get_u64(profile, "total_ns"),
        counters: get(profile, "counters")
            .as_array()
            .unwrap()
            .iter()
            .map(|c| (get_str(c, "name").to_string(), get_u64(c, "value")))
            .collect(),
        phases: get(profile, "phases")
            .as_array()
            .unwrap()
            .iter()
            .map(|p| {
                (
                    get_str(p, "path").to_string(),
                    (get_u64(p, "calls"), get_u64(p, "wall_ns")),
                )
            })
            .collect(),
        hists: get(profile, "hists")
            .as_array()
            .unwrap()
            .iter()
            .map(|h| {
                (
                    get_str(h, "name").to_string(),
                    (
                        get_u64(h, "count"),
                        get_u64(h, "sum_ns"),
                        get(h, "buckets")
                            .as_array()
                            .unwrap()
                            .iter()
                            .map(|b| b.as_u64().unwrap())
                            .collect(),
                    ),
                )
            })
            .collect(),
    }
}

#[test]
fn concurrent_stress_aggregation_invariant_and_plutoc_identical() {
    const CLIENTS: usize = 4;
    const ROUNDS: usize = 2;
    let daemon = Daemon::new();

    // Cold pass: every kernel once, each checked bit-identical against
    // the plutoc reference on the same source and options.
    let mut served: Vec<Served> = Vec::new();
    for (i, (name, src)) in KERNELS.iter().enumerate() {
        let (resp, _) = roundtrip(&daemon, &compile_request(i as u64, name, src));
        let s = harvest(&resp);
        assert_eq!(s.cache, "miss");
        assert_eq!(
            s.code,
            plutoc_reference(&["--tile", "8"], src),
            "`{name}`: daemon C differs from plutoc --threads 1"
        );
        served.push(s);
    }

    // Stress pass: CLIENTS threads hammer the warm daemon with every
    // kernel ROUNDS times, plus one thread-unique cold variant each —
    // concurrent hits, misses, and aggregate merges all interleave.
    let concurrent: Vec<Served> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|client| {
                let daemon = &daemon;
                scope.spawn(move || {
                    let mut mine = Vec::new();
                    for round in 0..ROUNDS {
                        for (k, (name, src)) in KERNELS.iter().enumerate() {
                            let id = (client * 1000 + round * 100 + k) as u64;
                            let (resp, _) = roundtrip(daemon, &compile_request(id, name, src));
                            mine.push(harvest(&resp));
                        }
                    }
                    // A source only this client compiles: a jacobi-1d
                    // variant whose distinct coefficient gives it a
                    // distinct content key, so cold compiles race too.
                    let unique = KERNELS[0].1.replace("0.333", &format!("0.{}", 41 + client));
                    let (resp, _) = roundtrip(
                        daemon,
                        &compile_request(9000 + client as u64, "unique", &unique),
                    );
                    let s = harvest(&resp);
                    assert_eq!(s.cache, "miss");
                    mine.push(s);
                    mine
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });
    served.extend(concurrent);

    // Repeats are bit-identical: every response for a kernel carries
    // exactly the bytes the cold (plutoc-checked) compile produced.
    let mut reference: HashMap<&str, &str> = HashMap::new();
    for s in &served[..KERNELS.len()] {
        reference.insert(&s.kernel, &s.code);
    }
    for s in &served {
        if let Some(code) = reference.get(s.kernel.as_str()) {
            assert_eq!(&s.code, code, "`{}` response not bit-identical", s.kernel);
        }
    }

    let total = served.len() as u64;
    let hits = served.iter().filter(|s| s.cache == "hit").count() as u64;
    let misses = served.iter().filter(|s| s.cache == "miss").count() as u64;
    assert_eq!(
        total,
        (KERNELS.len() * (1 + CLIENTS * ROUNDS) + CLIENTS) as u64
    );
    assert_eq!(
        misses,
        (KERNELS.len() + CLIENTS) as u64,
        "13 cold + 4 unique"
    );
    assert!(hits > 0 && hits + misses == total);

    // The aggregation invariant, re-derived from the wire documents:
    // every pluto-stats/1 total equals the exact component-wise sum of
    // the served pluto-profile/3 documents.
    let (resp, _) = roundtrip(&daemon, r#"{"id": 1, "method": "stats"}"#);
    let stats = get(&resp, "result");
    assert_eq!(get_u64(stats, "requests"), total);
    assert_eq!(get_u64(stats, "errors"), 0);
    let cache = get(stats, "cache");
    assert_eq!(get_u64(cache, "hits"), hits);
    assert_eq!(get_u64(cache, "misses"), misses);

    for c in get(stats, "counters").as_array().unwrap() {
        let name = get_str(c, "name");
        let expected: u64 = served.iter().map(|s| s.counters[name]).sum();
        assert_eq!(get_u64(c, "value"), expected, "counter `{name}` not Σ");
    }

    for p in get(stats, "phases").as_array().unwrap() {
        let path = get_str(p, "path");
        let (calls, wall): (u64, u64) = served.iter().fold((0, 0), |(c, w), s| {
            let (pc, pw) = s.phases.get(path).copied().unwrap_or((0, 0));
            (c + pc, w + pw)
        });
        assert_eq!(get_u64(p, "calls"), calls, "phase `{path}` calls not Σ");
        assert_eq!(get_u64(p, "wall_ns"), wall, "phase `{path}` wall not Σ");
    }

    for h in get(stats, "hists").as_array().unwrap() {
        let name = get_str(h, "name");
        let (count, sum): (u64, u64) = served
            .iter()
            .map(|s| (s.hists[name].0, s.hists[name].1))
            .fold((0, 0), |(c, n), (hc, hn)| (c + hc, n + hn));
        assert_eq!(get_u64(h, "count"), count, "hist `{name}` count not Σ");
        assert_eq!(get_u64(h, "sum_ns"), sum, "hist `{name}` sum not Σ");
        let buckets = get(h, "buckets").as_array().unwrap();
        for (i, b) in buckets.iter().enumerate() {
            let expected: u64 = served.iter().map(|s| s.hists[name].2[i]).sum();
            assert_eq!(b.as_u64(), Some(expected), "hist `{name}` bucket {i} not Σ");
        }
    }

    // The rolling latency histogram: one sample per request, summing
    // exactly the per-request total_ns values.
    let latency = get(stats, "latency");
    assert_eq!(get_u64(latency, "count"), total);
    assert_eq!(
        get_u64(latency, "sum_ns"),
        served.iter().map(|s| s.total_ns).sum::<u64>()
    );
}

// ---------------------------------------------------------------------
// The plutod binary end to end (stdio transport)
// ---------------------------------------------------------------------

#[test]
fn plutod_binary_serves_stdio() {
    let (name, src) = KERNELS[0];
    let requests = format!(
        "{}\n{}\n{}\n",
        compile_request(1, name, src),
        compile_request(2, name, src),
        r#"{"id": 3, "method": "stats"}"#
    );
    let mut child = Command::new(env!("CARGO_BIN_EXE_plutod"))
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn plutod");
    child
        .stdin
        .as_mut()
        .expect("stdin")
        .write_all(requests.as_bytes())
        .expect("write requests");
    let out = child.wait_with_output().expect("plutod runs");
    assert!(out.status.success());

    // One response line per request on stdout, in order.
    let stdout = String::from_utf8_lossy(&out.stdout);
    let responses: Vec<Json> = stdout
        .lines()
        .map(|l| json::parse(l).expect("response line parses"))
        .collect();
    assert_eq!(responses.len(), 3);
    assert_eq!(get_str(get(&responses[0], "result"), "cache"), "miss");
    assert_eq!(get_str(get(&responses[1], "result"), "cache"), "hit");
    let stats = get(&responses[2], "result");
    assert_eq!(get_str(stats, "schema"), "pluto-stats/1");
    assert_eq!(get_u64(get(stats, "cache"), "hits"), 1);

    // One pluto-log/1 line per request on stderr, hit/miss visible.
    let stderr = String::from_utf8_lossy(&out.stderr);
    let logs: Vec<Json> = stderr
        .lines()
        .map(|l| json::parse(l).expect("log line parses"))
        .collect();
    assert_eq!(logs.len(), 3);
    assert_eq!(get_str(&logs[0], "schema"), "pluto-log/1");
    assert_eq!(get_str(&logs[0], "cache"), "miss");
    assert_eq!(get_str(&logs[1], "cache"), "hit");
    assert_eq!(get_str(&logs[2], "method"), "stats");
}
