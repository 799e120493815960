//! `bench_json` — emits the machine-readable perf trajectory at the repo
//! root: `BENCH_pipeline.json` (per-kernel compile-phase breakdown,
//! solver counters, and ILP latency histograms with p50/p95 estimates,
//! schema `pluto-bench-pipeline/3`) and
//! `BENCH_kernels.json` (original-sequential, pluto-sequential and
//! pluto-wavefront run times, all three on the compiled bytecode
//! executor — compiled once, sampled many times; the wavefront over the
//! persistent worker pool — plus the per-kernel runtime-execution
//! section: load imbalance, barrier wait, per-array cache attribution —
//! and `control_mix`, the exact control-work counts of one sequential
//! run of the original and of the transformed kernel;
//! schema `pluto-bench-kernels/3`, whose `meta.engine` names the engine
//! so `bench_diff` refuses the tree-walk-timed `/2` baselines).
//!
//! Both documents carry a `meta` object (kernel-set hash, thread count,
//! sample count, tile size) so `bench_diff` can refuse to compare
//! incompatible runs instead of silently diffing apples to oranges.
//!
//! `cargo run -p pluto-bench --release` runs it (the crate's default
//! binary). Both documents are `pluto_obs::json` values written with
//! `to_pretty`. Schemas, kernel set and sampler policy are documented in
//! PERFORMANCE.md; EXPERIMENTS.md records the trajectory across PRs.

use pluto::Optimizer;
use pluto_bench::timing::{sample, Stats};
use pluto_bench::variants;
use pluto_codegen::generate;
use pluto_frontend::kernels::{self, Kernel};
use pluto_machine::{
    compile_kernel, control_mix, pool, run_compiled_kernel, run_compiled_parallel,
    run_compiled_parallel_profiled, run_with_cache_attributed, Arrays, CacheConfig, CompiledKernel,
    ParallelConfig,
};
use pluto_obs::aggregate::fnv1a;
use pluto_obs::hist::hists_json;
use pluto_obs::json::{arr, num, nums, obj, string, Json};
use pluto_obs::{counters_json, phases_json, Session};

/// Timed samples per variant (after one warm-up); small because the
/// emitter runs inside the CI smoke gate.
const SAMPLES: usize = 5;
/// Tile size for the transformed variants: the bench-scale default used
/// throughout `benches/figures.rs`.
const TILE: i128 = 8;
/// Thread-team width for the wavefront variant (the paper's 4 cores).
const THREADS: usize = 4;

/// Bench-scale cache geometry for the per-array attribution: shrunk with
/// the problem sizes (see the crate docs) so interpreter-scale working
/// sets overflow it the way the paper's arrays overflowed the Q6600's.
const BENCH_CACHE: CacheConfig = CacheConfig {
    line: 64,
    l1_size: 8 * 1024,
    l1_assoc: 8,
    l2_size: 256 * 1024,
    l2_assoc: 16,
};

/// The measured kernel set: name, kernel, bench-scale parameter values.
fn bench_set() -> Vec<(&'static str, Kernel, Vec<i64>)> {
    vec![
        (
            "jacobi-1d-imper",
            kernels::jacobi_1d_imperfect(),
            vec![16, 6000],
        ),
        ("seidel-2d", kernels::seidel_2d(), vec![12, 100]),
        ("mvt", kernels::mvt(), vec![300]),
        ("lu", kernels::lu(), vec![100]),
    ]
}

/// Identity of the measured configuration: kernel names + parameter
/// values + tile size. Two documents with different hashes measured
/// different things and must not be diffed.
fn kernel_set_hash(set: &[(&'static str, Kernel, Vec<i64>)]) -> String {
    let mut desc = String::new();
    for (name, _, params) in set {
        desc.push_str(name);
        desc.push(':');
        for p in params {
            desc.push_str(&p.to_string());
            desc.push(',');
        }
        desc.push(';');
    }
    desc.push_str(&format!("tile={TILE}"));
    format!("{:016x}", fnv1a(desc.as_bytes()))
}

/// The shared `meta` object (identical in both documents, except that
/// the kernels document adds the `engine` its variants were timed on).
/// `pool_spawns` records the process-lifetime thread budget: one
/// persistent pool of `THREADS - 1` workers, warmed on the first
/// wavefront dispatch and never grown again — `main` asserts the real
/// spawn counter matches after all sampling.
fn meta_json(set: &[(&'static str, Kernel, Vec<i64>)], engine: Option<&str>) -> Json {
    let mut fields = vec![
        ("kernel_set_hash", string(kernel_set_hash(set))),
        ("tile", num(TILE)),
        ("threads", num(THREADS)),
        ("samples", num(SAMPLES)),
        ("pool_spawns", num(THREADS - 1)),
    ];
    fields.extend(engine.map(|e| ("engine", string(e))));
    obj(fields)
}

fn main() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let set = bench_set();

    let pipeline = pipeline_json(&set);
    let kernels_doc = kernels_json(&set);

    // Acceptance: the whole bench run — every kernel, every wavefront
    // sample — cost exactly one pool warm-up of THREADS - 1 threads.
    assert_eq!(
        pool::spawn_count(),
        THREADS - 1,
        "thread spawns observed after pool init"
    );

    for (name, doc) in [
        ("BENCH_pipeline.json", &pipeline),
        ("BENCH_kernels.json", &kernels_doc),
    ] {
        let path = root.join(name);
        std::fs::write(&path, doc.to_pretty() + "\n")
            .unwrap_or_else(|e| panic!("cannot write {name}: {e}"));
        println!("wrote {}", path.display());
    }
}

/// Compiles every kernel under an observability session and lays out
/// each profile (phases + full counter registry + full histogram
/// registry with log2-bucket p50/p95 estimates, so `bench_diff` can
/// track latency-distribution drift alongside the counter gates).
fn pipeline_json(set: &[(&'static str, Kernel, Vec<i64>)]) -> Json {
    let kernels = set.iter().map(|(name, k, _)| {
        let session = Session::start();
        let optimized = Optimizer::new()
            .tile_size(TILE)
            .optimize(&k.program)
            .unwrap_or_else(|e| panic!("{name}: transformation failed: {e}"));
        let _ast = generate(&k.program, &optimized.result.transform);
        let profile = session.finish();
        obj([
            ("kernel", string(*name)),
            ("total_ns", num(profile.total_ns)),
            ("phases", phases_json(&profile.phases)),
            (
                "counters",
                counters_json(profile.counters.iter().map(|c| (c.name, c.value))),
            ),
            (
                "hists",
                hists_json(&profile.hists, &[("p50_ns", 0.50), ("p95_ns", 0.95)]),
            ),
        ])
    });
    obj([
        ("schema", string("pluto-bench-pipeline/3")),
        ("meta", meta_json(set, None)),
        ("kernels", arr(kernels)),
    ])
}

/// Samples original-sequential, pluto-sequential and pluto-wavefront
/// bytecode runs for every kernel, then measures the wavefront
/// variant's execution profile (imbalance, barrier wait, per-array
/// attribution) in one additional instrumented run per kernel.
fn kernels_json(set: &[(&'static str, Kernel, Vec<i64>)]) -> Json {
    let kernels = set.iter().map(|(name, k, params)| {
        let orig = variants::orig(&k.program);
        let pluto = variants::pluto(&k.program, TILE, 1);
        let orig_ast = generate(&k.program, &orig.result.transform);
        let pluto_ast = generate(&k.program, &pluto.result.transform);

        let fresh = || {
            let mut a = Arrays::new((k.extents)(params));
            a.seed_with(kernels::seed_value);
            a
        };
        // Compile each schedule once; every timed sample then pays only
        // bytecode execution — the deployment pattern, and one engine
        // under all three variants so their ratios compare schedules.
        let orig_ck = compile_kernel(&k.program, &orig_ast, params, &fresh());
        let ck = compile_kernel(&k.program, &pluto_ast, params, &fresh());
        let seq = sample(SAMPLES, || {
            run_compiled_kernel(&orig_ck, &mut fresh());
        });
        let tra = sample(SAMPLES, || {
            run_compiled_kernel(&ck, &mut fresh());
        });
        let cfg = ParallelConfig {
            threads: THREADS,
            collapse: pluto.collapse,
        };
        let par = sample(SAMPLES, || {
            run_compiled_parallel(&ck, &mut fresh(), cfg);
        });
        // One instrumented run each for the execution profile: dispatch
        // metrics from the thread team, cache attribution from the
        // (sequential-interleaving) simulator at bench geometry.
        let (_, mut eprof) = run_compiled_parallel_profiled(&ck, &mut fresh(), cfg);
        let (_, _, per) =
            run_with_cache_attributed(&k.program, &pluto_ast, params, &mut fresh(), BENCH_CACHE);
        eprof.arrays = per
            .iter()
            .map(|(aname, s)| pluto_obs::exec::ArrayCache {
                name: aname.clone(),
                accesses: s.accesses,
                l1_misses: s.l1_misses,
                l2_misses: s.l2_misses,
            })
            .collect();

        let variants = [
            ("original-sequential", seq),
            ("pluto-sequential", tra),
            ("pluto-wavefront", par),
        ];
        obj([
            ("kernel", string(*name)),
            ("params", nums(params)),
            (
                "variants",
                arr(variants.iter().map(|(vname, st)| variant_json(vname, st))),
            ),
            ("exec", eprof.to_json()),
            (
                "control_mix",
                obj([
                    ("original", mix_json(&orig_ck)),
                    ("transformed", mix_json(&ck)),
                ]),
            ),
        ])
    });
    obj([
        ("schema", string("pluto-bench-kernels/3")),
        ("meta", meta_json(set, Some("bytecode"))),
        ("samples", num(SAMPLES)),
        ("kernels", arr(kernels)),
    ])
}

/// The control-work counts of one sequential run (deterministic:
/// `bench_diff` gates them hard).
fn mix_json(ck: &CompiledKernel) -> Json {
    obj(control_mix(ck).fields().map(|(name, n)| (name, num(n))))
}

fn variant_json(name: &str, st: &Stats) -> Json {
    obj([
        ("name", string(name)),
        ("min_ns", num(st.min_ns)),
        ("median_ns", num(st.median_ns)),
        ("max_ns", num(st.max_ns)),
    ])
}
