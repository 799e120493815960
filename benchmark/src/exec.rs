//! `kernel_exec`: the paper's five evaluated kernels, compiled once at
//! tile 32 during set-up, then the original-schedule and the transformed
//! program each run sequentially on the bytecode engine, on the same
//! arrays. Why: more than 99 % of the time is `machine::exec` and the
//! compile cost is outside the timed region — the only workload that can
//! reproduce, or honestly refute, the paper's locality claim on one
//! engine.

use crate::common::{Ctx, Tally};
use crate::kernels;
use crate::layers::{self, Arrays, CacheConfig};
use crate::rng::Rng;
use crate::setup::{exec_case, kernel_text, read_expected, ExecCase, Inputs, STREAM_ORDER};
use crate::stats::{geomean, median};
use crate::trace::Tracer;
use crate::verify::Fnv;
use std::time::Instant;

pub const ORIGINAL: usize = 0;
pub const TRANSFORMED: usize = 1;

#[derive(Default)]
pub struct ExecSamples {
    /// `[kernel][variant]` → run time per repetition, ms.
    pub run_ms: Vec<[Vec<f64>; 2]>,
}

impl ExecSamples {
    pub fn reps(&self) -> usize {
        self.run_ms.first().map_or(0, |k| k[TRANSFORMED].len())
    }

    /// Sum over the kernels of each one's median run time over the
    /// repetitions, for one variant — the printed per-kernel rows add
    /// up to it.
    pub fn sum_ms(&self, variant: usize) -> f64 {
        self.run_ms.iter().map(|k| median(&k[variant])).sum()
    }

    pub fn exec_transformed_ms(&self) -> f64 {
        self.sum_ms(TRANSFORMED)
    }

    /// Per kernel: original median / transformed median.
    pub fn speedups(&self) -> Vec<f64> {
        self.run_ms
            .iter()
            .map(|k| median(&k[ORIGINAL]) / median(&k[TRANSFORMED]))
            .collect()
    }

    pub fn exec_speedup_geomean(&self) -> f64 {
        geomean(&self.speedups())
    }
}

pub fn fresh_arrays(case: &ExecCase, seed: u64) -> Arrays {
    layers::new_arrays(&case.extents, |a, off| {
        kernels::init_value(seed, case.spec.name, &case.extents, a, off)
    })
}

pub fn digest(arrays: &Arrays) -> u64 {
    let mut h = Fnv::default();
    layers::for_each_cell(arrays, |v| h.f64(v));
    h.finish()
}

/// Runs one variant of one kernel on fresh arrays; only the engine call
/// is timed. The result must digest to the native reference's value and
/// execute the closed-form number of instances.
fn run(
    case: &ExecCase,
    variant: usize,
    seed: u64,
    tr: &mut Tracer,
    request: u64,
    tally: &mut Tally,
) -> f64 {
    let mut arrays = fresh_arrays(case, seed);
    let start = Instant::now();
    let instances = tr.span("machine.exec", request, |_| {
        layers::exec(&case.bytecode[variant], &mut arrays)
    });
    let ms = start.elapsed().as_secs_f64() * 1e3;
    let got = digest(&arrays);
    tally.check(
        got == case.expected_digest && instances == case.instances,
        || {
            format!(
                "{} ({}): digest {got:016x} vs expected {:016x}, {instances} instances vs {}",
                case.spec.name,
                ["original", "transformed"][variant],
                case.expected_digest,
                case.instances
            )
        },
    );
    ms
}

/// One repetition: every (kernel, variant) pair once, in seeded order.
/// Request ids are `rep * 1000 + kernel * 10 + variant`.
pub fn rep(
    ctx: &Ctx,
    cases: &[ExecCase],
    samples: &mut ExecSamples,
    tr: &mut Tracer,
    tally: &mut Tally,
) {
    samples.run_ms.resize_with(cases.len(), Default::default);
    let r = samples.reps();
    let mut pairs: Vec<(usize, usize)> = (0..cases.len())
        .flat_map(|k| [(k, ORIGINAL), (k, TRANSFORMED)])
        .collect();
    Rng::new(ctx.seed, STREAM_ORDER + 16 * r as u64 + 1).shuffle(&mut pairs);
    for (k, variant) in pairs {
        let request = (r * 1000 + k * 10 + variant) as u64;
        let ms = run(&cases[k], variant, ctx.seed, tr, request, tally);
        samples.run_ms[k][variant].push(ms);
    }
}

/// Geometry of the simulated cache: the paper machine's 32 KiB 8-way L1
/// and a 256 KiB L2 (a sixteenth of its 4 MiB, as the simulated problem
/// sizes are a fraction of the timed ones), 64-byte lines.
pub const SIM_GEOMETRY: CacheConfig = CacheConfig {
    line: 64,
    l1_size: 32 * 1024,
    l1_assoc: 8,
    l2_size: 256 * 1024,
    l2_assoc: 16,
};

pub struct ExecTrace {
    pub samples: ExecSamples,
    /// Per repetition: time to lower the five transformed ASTs, µs.
    pub bytecode_compile_us: Vec<f64>,
    pub bytecode_instrs: u64,
    pub instances: u64,
    /// Geomean over kernels of original / transformed at in-L1 sizes.
    pub speedup_in_l1: f64,
    /// Transformed ÷ original, geomean over kernels, in the simulator.
    pub sim_l1_miss_ratio: f64,
    pub sim_l2_miss_ratio: f64,
    pub sim_cycles_ratio: f64,
    /// Per repetition: sum over kernels of the transformed program's run
    /// time on a team of two, ms.
    pub team_ms: Vec<f64>,
    pub team_threads: usize,
    pub dispatches: u64,
    pub barrier_wait_ms: f64,
    pub imbalance_mean: f64,
    pub pool_spawns: u64,
}

/// The traced counterpart: `reps` repetitions with spans, then the
/// measurements that explain a run time — bytecode size, loop overhead
/// at in-L1 sizes, simulated locality, and the two-thread run.
pub fn trace(
    ctx: &Ctx,
    inputs: &Inputs,
    tr: &mut Tracer,
    reps: usize,
    tally: &mut Tally,
) -> Result<ExecTrace, String> {
    let cases = &inputs.exec;
    let mut samples = ExecSamples::default();
    let mut bytecode_compile_us = Vec::new();
    let mut bytecode_instrs = 0;
    for r in 0..reps {
        rep(ctx, cases, &mut samples, tr, tally);
        let start = Instant::now();
        bytecode_instrs = 0;
        for (k, case) in cases.iter().enumerate() {
            let lowered = tr.span(
                "machine.bytecode_compile",
                (r * 1000 + k * 10) as u64,
                |_| {
                    layers::bytecode_compile(
                        &case.program,
                        &case.asts[TRANSFORMED],
                        &case.params,
                        &case.extents,
                    )
                },
            );
            bytecode_instrs += layers::bytecode_instrs(&lowered) as u64;
        }
        bytecode_compile_us.push(start.elapsed().as_secs_f64() * 1e6);
    }

    let frozen = read_expected()?;
    let text_of = |name: &str| kernel_text(&inputs.kernels, name);

    // In-L1 sizes: the same programs with every array resident, so that
    // what is left of a slowdown is loop and bound overhead.
    let mut l1_speedups = Vec::new();
    for spec in &kernels::EXEC {
        let case = exec_case(
            spec,
            spec.l1_params,
            text_of(spec.name),
            ctx.seed,
            Some(&frozen),
            tally,
        )?;
        let mut small = ExecSamples::default();
        for _ in 0..5 {
            rep(
                ctx,
                std::slice::from_ref(&case),
                &mut small,
                &mut Tracer::off(),
                tally,
            );
        }
        l1_speedups.push(small.speedups()[0]);
    }

    // Simulated locality: deterministic counts from the tree-walk
    // evaluator driving the cache simulator.
    let (mut l1, mut l2, mut cycles) = (Vec::new(), Vec::new(), Vec::new());
    for spec in &kernels::EXEC {
        let case = exec_case(
            spec,
            spec.sim_params,
            text_of(spec.name),
            ctx.seed,
            Some(&frozen),
            tally,
        )?;
        let stats = [ORIGINAL, TRANSFORMED].map(|v| {
            let mut arrays = fresh_arrays(&case, ctx.seed);
            let stats = layers::exec_cache_sim(
                &case.program,
                &case.asts[v],
                &case.params,
                &mut arrays,
                SIM_GEOMETRY,
            );
            let got = digest(&arrays);
            tally.check(got == case.expected_digest, || {
                format!("{}: simulated run digests to {got:016x}", spec.name)
            });
            stats
        });
        let ratio = |f: fn(&layers::SimCounts) -> u64| {
            f(&stats[TRANSFORMED]).max(1) as f64 / f(&stats[ORIGINAL]).max(1) as f64
        };
        l1.push(ratio(|s| s.l1_misses));
        l2.push(ratio(|s| s.l2_misses));
        cycles.push(ratio(|s| s.cycles));
    }

    // The transformed programs on a team of two (one when the machine
    // has a single processor: never more threads than it offers).
    let team_threads = ctx.nproc.min(2);
    let mut team_ms = Vec::new();
    let (mut dispatches, mut barrier_wait_ms, mut imbalance) = (0, 0.0, Vec::new());
    for _ in 0..reps {
        let mut sum = 0.0;
        (dispatches, barrier_wait_ms) = (0, 0.0);
        imbalance.clear();
        for case in cases {
            let mut arrays = fresh_arrays(case, ctx.seed);
            let start = Instant::now();
            let (instances, team) =
                layers::exec_team(&case.bytecode[TRANSFORMED], &mut arrays, team_threads);
            sum += start.elapsed().as_secs_f64() * 1e3;
            let got = digest(&arrays);
            tally.check(
                got == case.expected_digest && instances == case.instances,
                || format!("{}: team run digests to {got:016x}", case.spec.name),
            );
            dispatches += team.dispatches;
            barrier_wait_ms += team.barrier_wait_ms;
            imbalance.push(team.imbalance_mean);
        }
        team_ms.push(sum);
    }

    Ok(ExecTrace {
        bytecode_compile_us,
        bytecode_instrs,
        instances: cases.iter().map(|c| c.instances).sum(),
        speedup_in_l1: geomean(&l1_speedups),
        sim_l1_miss_ratio: geomean(&l1),
        sim_l2_miss_ratio: geomean(&l2),
        sim_cycles_ratio: geomean(&cycles),
        team_ms,
        team_threads,
        dispatches,
        barrier_wait_ms,
        imbalance_mean: imbalance.iter().sum::<f64>() / imbalance.len().max(1) as f64,
        pool_spawns: layers::pool_spawns() as u64,
        samples,
    })
}
