//! Regenerates every figure of the paper's evaluation (Sec. 7) on the
//! simulated machine.
//!
//! ```text
//! cargo run -p pluto-bench --release --bin figures -- all
//! cargo run -p pluto-bench --release --bin figures -- fig6
//! cargo run -p pluto-bench --release --bin figures -- fig13 --trace wf.json
//! ```
//!
//! Code figures (3, 4, 9) print generated OpenMP C; performance figures
//! (6, 8, 10, 12, 13) print one table each with modelled GFLOP/s, cache
//! misses, barrier counts and speedups. `--trace <out.json>`
//! additionally executes the Fig. 13 wavefront kernel (seidel-2d,
//! 2-d pipelined) on the real thread team and writes a Chrome Trace
//! Event Format document (`trace_event/1`) for Perfetto (walkthrough in
//! PERFORMANCE.md).

use pluto_bench::variants::{self, Variant};
use pluto_bench::{harness, measure};
use pluto_codegen::{emit_c, generate};
use pluto_frontend::kernels::{self, Kernel};
use pluto_machine::{run_parallel, Arrays, ParallelConfig};

fn main() {
    let mut arg = "all".to_string();
    let mut trace_out: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--trace" => {
                trace_out = Some(args.next().unwrap_or_else(|| {
                    eprintln!("figures: --trace expects an output path");
                    std::process::exit(2);
                }));
            }
            other => arg = other.to_string(),
        }
    }
    let all = arg == "all";
    if all || arg == "fig3" {
        fig3();
    }
    if all || arg == "fig4" {
        fig4();
    }
    if all || arg == "fig6" {
        fig6();
    }
    if all || arg == "fig8" {
        fig8();
    }
    if all || arg == "fig9" {
        fig9();
    }
    if all || arg == "fig10" {
        fig10();
    }
    if all || arg == "fig12" {
        fig12();
    }
    if all || arg == "fig13" {
        fig13();
    }
    if let Some(path) = trace_out {
        trace_wavefront(&path);
    }
}

/// Executes the Fig. 13 wavefront kernel (seidel-2d, 2-d pipelined
/// parallelism) on the 4-thread team with tracing on and writes the
/// Chrome-trace document. Small parameters: the point is the wavefront
/// shape (ramp-up, full width, ramp-down), not the run time.
fn trace_wavefront(path: &str) {
    let k = kernels::seidel_2d();
    let params = [8i64, 64]; // T, N
    let v = variants::pluto(&k.program, 8, 2);
    let ast = generate(&k.program, &v.result.transform);
    let mut arrays = Arrays::new((k.extents)(&params));
    arrays.seed_with(kernels::seed_value);
    let obs = pluto_obs::ObsSession::builder().trace().build();
    {
        let _g = obs.install();
        run_parallel(
            &k.program,
            &ast,
            &params,
            &mut arrays,
            ParallelConfig {
                threads: 4,
                collapse: v.collapse,
            },
        );
    }
    let trace = obs.take_trace();
    let doc = trace.to_chrome_json().to_pretty() + "\n";
    std::fs::write(path, doc).unwrap_or_else(|e| panic!("figures: cannot write `{path}`: {e}"));
    println!(
        "wrote {} trace events on {} timelines to {path} (seidel-2d wavefront, T=8 N=64)",
        trace.events.len(),
        trace.distinct_tids()
    );
}

/// Runs a figure's variant list at 1..=4 cores (sequential baseline first)
/// and prints the table.
fn perf_figure(title: &str, k: &Kernel, params: &[i64], vs: &[Variant]) {
    let mut rows = Vec::new();
    for (i, v) in vs.iter().enumerate() {
        if i == 0 {
            rows.push(measure(k, v, params, 1));
        } else {
            for cores in [1usize, 2, 4] {
                rows.push(measure(k, v, params, cores));
            }
        }
    }
    harness::print_table(title, &rows);
}

fn fig3() {
    println!("\n===== Figure 3: tiled code for imperfectly nested 1-d Jacobi =====");
    let k = kernels::jacobi_1d_imperfect();
    let v = variants::pluto(&k.program, 256, 1);
    println!("{}", v.result.transform.display(&k.program));
    let ast = generate(&k.program, &v.result.transform);
    println!("{}", emit_c(&k.program, &ast));
}

fn fig4() {
    println!("\n===== Figure 4: coarse-grained tile-space wavefront (2-d SOR) =====");
    let k = kernels::sor_2d();
    let v = variants::pluto(&k.program, 32, 1);
    println!("{}", v.result.transform.display(&k.program));
    let ast = generate(&k.program, &v.result.transform);
    println!("{}", emit_c(&k.program, &ast));
}

/// Single-core problem-size sweep (the paper's "(a)" panels): original vs
/// Pluto at 1 core across sizes.
fn size_sweep(
    title: &str,
    k: &Kernel,
    sizes: &[Vec<i64>],
    mk_pluto: &dyn Fn(&kernels::Kernel) -> Variant,
) {
    println!(
        "
== {title} =="
    );
    println!(
        "{:<24} {:>12} {:>12} {:>8}",
        "params", "orig cyc", "pluto cyc", "speedup"
    );
    let orig = variants::orig(&k.program);
    let pl = mk_pluto(k);
    for params in sizes {
        let mo = measure(k, &orig, params, 1);
        let mp = measure(k, &pl, params, 1);
        println!(
            "{:<24} {:>12} {:>12} {:>8.2}",
            format!("{params:?}"),
            mo.cycles,
            mp.cycles,
            mo.cycles as f64 / mp.cycles as f64
        );
    }
}

fn fig6() {
    let k = kernels::jacobi_1d_imperfect();
    size_sweep(
        "Figure 6(a): jacobi-1d single core across N (T=32)",
        &k,
        &[
            vec![32, 2_000],
            vec![32, 6_000],
            vec![32, 20_000],
            vec![32, 60_000],
            vec![32, 120_000],
        ],
        &|k| variants::pluto(&k.program, 16, 1),
    );
    let params = [64i64, 120_000]; // T, N (scaled from the paper's 10^5-10^6)
    let vs = vec![
        variants::orig(&k.program),
        variants::inner_parallel(&k.program),
        variants::jacobi_affine_partitioning(&k.program),
        variants::jacobi_sched_fco(&k.program, 16),
        variants::pluto(&k.program, 16, 1),
    ];
    perf_figure(
        "Figure 6: imperfectly nested 1-d Jacobi (T=64, N=120000)",
        &k,
        &params,
        &vs,
    );
}

fn fig8() {
    let k = kernels::fdtd_2d();
    let params = [32i64, 200, 200]; // tmax, nx, ny (paper: 500, 2000, 2000)
    let vs = vec![
        variants::orig(&k.program),
        variants::inner_parallel(&k.program),
        variants::feautrier(&k.program),
        variants::pluto(&k.program, 8, 1),
    ];
    perf_figure("Figure 8: 2-d FDTD (tmax=32, nx=ny=200)", &k, &params, &vs);
}

fn fig9() {
    println!("\n===== Figure 9: LU, 1-d pipelined parallel + tiled =====");
    let k = kernels::lu();
    let v = variants::pluto(&k.program, 32, 1);
    println!("{}", v.result.transform.display(&k.program));
    let ast = generate(&k.program, &v.result.transform);
    println!("{}", emit_c(&k.program, &ast));
}

fn fig10() {
    let k = kernels::lu();
    size_sweep(
        "Figure 10(a): LU single core across N",
        &k,
        &[vec![100], vec![200], vec![300], vec![400]],
        &|k| variants::pluto(&k.program, 16, 1),
    );
    let params = [350i64]; // paper: up to 8000
    let vs = [
        variants::orig(&k.program),
        variants::inner_parallel(&k.program),
        variants::lu_sched(&k.program),
        variants::pluto(&k.program, 16, 1),
    ];
    // LU's reuse distances are O(N) rows: at the scaled N the caches must
    // shrink further for the paper's memory-bound regime to appear.
    let mut rows = Vec::new();
    for (i, v) in vs.iter().enumerate() {
        let counts: &[usize] = if i == 0 { &[1] } else { &[1, 2, 4] };
        for &cores in counts {
            let mut cfg = pluto_bench::bench_machine(cores);
            cfg.cache.l1_size = 4 * 1024;
            cfg.cache.l2_size = 32 * 1024;
            rows.push(pluto_bench::measure_on(&k, v, &params, cfg));
        }
    }
    harness::print_table("Figure 10: LU decomposition (N=350)", &rows);
}

fn fig12() {
    let k = kernels::mvt();
    let params = [1200i64]; // paper: N=8000
    let vs = vec![
        variants::orig(&k.program),
        variants::inner_parallel(&k.program),
        variants::pluto_nofuse(&k.program, 32),
        variants::mvt_fused_ij_ij(&k.program, 32),
        variants::pluto(&k.program, 32, 1),
        variants::pluto_unrolled(&k.program, 32, 4),
    ];
    perf_figure("Figure 12: MVT (N=1200)", &k, &params, &vs);
}

fn fig13() {
    let k = kernels::seidel_2d();
    let params = [32i64, 300]; // paper: T=1000, Nx=Ny=2000
    let vs = [
        variants::orig(&k.program),
        variants::pluto(&k.program, 8, 1),
        variants::pluto(&k.program, 8, 2),
    ];
    let mut rows = Vec::new();
    rows.push(measure(&k, &vs[0], &params, 1));
    for v in &vs[1..] {
        for cores in [1usize, 2, 4] {
            rows.push(measure(&k, v, &params, cores));
        }
    }
    // Rename the pluto variants for the 1-d vs 2-d comparison.
    for r in rows.iter_mut() {
        if r.variant == "pluto" {
            r.variant = "pluto (1-d pipelined)".into();
        }
    }
    let n = rows.len();
    for r in rows[n - 3..].iter_mut() {
        r.variant = "pluto (2-d pipelined)".into();
    }
    harness::print_table("Figure 13: 3-D Gauss-Seidel (T=32, N=300)", &rows);
}
