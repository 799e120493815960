//! The deterministic gate behind the `kernel_exec` number: what tiling
//! adds per statement instance is control work, and control work can be
//! counted. On the paper's five kernels — `benchmark/`'s sources, tile
//! size and `kernel_exec` parameter values — the transformed code binds
//! (almost) nothing per instance and evaluates few bound operands.
//! `--nocapture` prints the per-instance table EXPERIMENTS.md quotes.

use pluto::Optimizer;
use pluto_codegen::{generate, original_schedule};
use pluto_frontend::parse_unit;
use pluto_machine::{compile_kernel_with_extents, control_mix, ControlMix};

const PAPER_KERNELS: [(&str, &str, &[i64]); 5] = [
    (
        "jacobi-1d-imper",
        include_str!("../benchmark/kernels/jacobi-1d-imper.c"),
        &[8, 200_000],
    ),
    (
        "fdtd-2d",
        include_str!("../benchmark/kernels/fdtd-2d.c"),
        &[4, 400, 400],
    ),
    ("lu", include_str!("../benchmark/kernels/lu.c"), &[200]),
    ("mvt", include_str!("../benchmark/kernels/mvt.c"), &[1200]),
    (
        "seidel-2d",
        include_str!("../benchmark/kernels/seidel-2d.c"),
        &[5, 640],
    ),
];

fn per_instance(n: u64, mix: &ControlMix) -> f64 {
    n as f64 / mix.instances as f64
}

#[test]
fn paper_kernels_control_overhead_per_instance() {
    println!(
        "{:<16} {:<12} {:>9} {:>7} {:>9} {:>7} {:>7} {:>9} {:>8}",
        "kernel",
        "schedule",
        "instances",
        "lets",
        "bound-ops",
        "conds",
        "hoists",
        "acc-terms",
        "loopends"
    );
    for (name, source, params) in PAPER_KERNELS {
        let unit = parse_unit(source).expect("parse");
        let prog = &unit.program;
        let extents = unit.try_extents(params).expect("extents");
        let optimized = Optimizer::new()
            .tile_size(32)
            .optimize(prog)
            .expect("optimize");
        let mixes = [
            ("original", original_schedule(prog)),
            ("transformed", optimized.result.transform),
        ]
        .map(|(which, t)| {
            let ast = generate(prog, &t);
            let mix = control_mix(&compile_kernel_with_extents(prog, &ast, params, &extents));
            println!(
                "{name:<16} {which:<12} {:>9} {:>7.3} {:>9.3} {:>7.3} {:>7.3} {:>9.3} {:>8.3}",
                mix.instances,
                per_instance(mix.lets, &mix),
                per_instance(mix.bound_operands, &mix),
                per_instance(mix.cond_rows, &mix),
                per_instance(mix.hoist_terms, &mix),
                per_instance(mix.access_terms, &mix),
                per_instance(mix.iterations, &mix),
            );
            mix
        });
        let [original, transformed] = mixes;
        assert_eq!(
            original.instances, transformed.instances,
            "{name}: a schedule executes every instance once"
        );
        assert_eq!(original.lets, 0, "{name}: the original binds nothing");
        assert!(
            per_instance(transformed.lets, &transformed) <= 0.02,
            "{name}: {} lets over {} instances",
            transformed.lets,
            transformed.instances
        );
        if name == "fdtd-2d" {
            assert!(
                per_instance(transformed.bound_operands, &transformed) <= 0.6,
                "fdtd-2d: {} bound operands over {} instances",
                transformed.bound_operands,
                transformed.instances
            );
        }
    }
}
