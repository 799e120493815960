//! The simulated multi-core machine used by the benchmark harness.
//!
//! The paper's evaluation machine (Intel Q6600, 4 cores, 32 KB L1 / 4 MB
//! L2, icc + OpenMP) is replaced by a deterministic performance model:
//!
//! * each core owns a two-level [`CacheSim`] (the paper's geometry);
//! * a statement instance costs `flops` compute cycles plus one cycle per
//!   access, `+l1_penalty` per L1 miss and `+l2_penalty` per L2 miss;
//! * a loop marked parallel distributes its iterations over the cores
//!   exactly like [`run_parallel`](crate::run_parallel) (block
//!   distribution, optional 2-deep collapse); the region's time is the
//!   *maximum* of the participating cores' times plus a barrier cost —
//!   the paper's coarse-grained tile-schedule semantics where
//!   synchronization "happens only here (in tile space)" (Fig. 4);
//! * sequential code runs on core 0.
//!
//! This keeps both effects the paper measures — locality (via the caches)
//! and coarse-grained parallelism (via critical-path max and barrier
//! counts) — while remaining exactly reproducible on any host.

use crate::arrays::Arrays;
use crate::cache::{CacheConfig, CacheSim, CacheStats};
use crate::exec::ExecStats;
use pluto_codegen::Ast;
use pluto_ir::{Expr, Program};
use pluto_linalg::Int;

/// Cost-model parameters of the simulated machine.
#[derive(Debug, Clone, Copy)]
pub struct MachineConfig {
    /// Worker cores.
    pub cores: usize,
    /// Collapse depth for consecutive parallel loops (cf. nested OpenMP
    /// parallelism for two degrees of pipelined parallelism, Fig. 13).
    pub collapse: usize,
    /// Per-core cache geometry.
    pub cache: CacheConfig,
    /// Extra cycles per L1 miss (L2 hit latency).
    pub l1_penalty: u64,
    /// Extra cycles per L2 miss (memory latency).
    pub l2_penalty: u64,
    /// Cycles charged per parallel-region barrier.
    pub barrier: u64,
    /// Cycles charged per loop iteration (bound evaluation, increment).
    pub loop_overhead: u64,
    /// Cycles charged per guard condition evaluated.
    pub guard_overhead: u64,
    /// Cycles charged per `Let` binding (0: a native compiler folds the
    /// recovered-iterator arithmetic into addressing).
    pub let_overhead: u64,
    /// Shared front-side-bus cycles per L2 miss: inside a parallel region
    /// the region time is at least `total L2 misses × bus` — the memory
    /// bandwidth wall that starves non-locality-optimized parallel code.
    pub bus: u64,
    /// Clock frequency used to convert cycles to seconds (the paper's
    /// 2.4 GHz).
    pub ghz: f64,
}

impl Default for MachineConfig {
    fn default() -> MachineConfig {
        MachineConfig {
            cores: 4,
            collapse: 1,
            cache: CacheConfig::default(),
            l1_penalty: 14,
            l2_penalty: 150,
            barrier: 5_000,
            loop_overhead: 2,
            guard_overhead: 1,
            let_overhead: 0,
            bus: 20,
            ghz: 2.4,
        }
    }
}

impl MachineConfig {
    /// Same machine with a different core count.
    pub fn with_cores(mut self, cores: usize) -> MachineConfig {
        self.cores = cores;
        self
    }

    /// Same machine with a different collapse depth.
    pub fn with_collapse(mut self, collapse: usize) -> MachineConfig {
        self.collapse = collapse;
        self
    }
}

/// Result of a simulated run.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimStats {
    /// Modelled execution time in cycles (critical path).
    pub cycles: u64,
    /// Execution counters (all cores).
    pub exec: ExecStats,
    /// Cache counters summed over cores.
    pub cache: CacheStats,
    /// Parallel regions entered (barriers).
    pub regions: u64,
}

impl SimStats {
    /// Modelled GFLOP/s at the configured clock.
    pub fn gflops(&self, cfg: &MachineConfig) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.exec.flops as f64 / (self.cycles as f64 / cfg.ghz)
        // flops / ns = GFLOP/s
    }

    /// Modelled wall time in seconds.
    pub fn seconds(&self, cfg: &MachineConfig) -> f64 {
        self.cycles as f64 / (cfg.ghz * 1e9)
    }
}

struct Core {
    sim: CacheSim,
    cycles: u64,
    exec: ExecStats,
}

struct Machine<'p> {
    cores: Vec<Core>,
    cfg: MachineConfig,
    stmts: Vec<SimStmt>,
    extents: Vec<Vec<usize>>,
    params: Vec<Int>,
    prog: &'p Program,
    /// Per-statement suppression depth from enclosing `Filter` nodes.
    suppressed: Vec<u32>,
    /// Inside a parallel region (nested parallel loops run inline).
    in_region: bool,
    /// Parallel regions entered (barriers).
    regions: u64,
}

struct SimStmt {
    write_array: usize,
    write_rows: Vec<Vec<Int>>,
    reads: Vec<(usize, Vec<Vec<Int>>)>,
    body: Expr,
    flops: u64,
}

impl<'p> Machine<'p> {
    fn new(prog: &'p Program, params: &[i64], arrays: &Arrays, cfg: MachineConfig) -> Machine<'p> {
        let stmts = prog
            .stmts
            .iter()
            .map(|s| SimStmt {
                write_array: s.write.array,
                write_rows: s.write.map.clone(),
                reads: s.reads.iter().map(|r| (r.array, r.map.clone())).collect(),
                body: s.body.clone(),
                flops: s.body.num_ops() as u64,
            })
            .collect();
        let extents: Vec<Vec<usize>> = (0..arrays.num_arrays())
            .map(|a| arrays.extents(a).to_vec())
            .collect();
        Machine {
            cores: (0..cfg.cores.max(1))
                .map(|_| Core {
                    sim: CacheSim::new(cfg.cache),
                    cycles: 0,
                    exec: ExecStats::default(),
                })
                .collect(),
            cfg,
            stmts,
            extents,
            params: params.iter().map(|&p| p as Int).collect(),
            suppressed: vec![0; prog.stmts.len()],
            in_region: false,
            regions: 0,
            prog,
        }
    }

    /// Executes one statement instance on a core, charging cycles.
    fn run_stmt(
        &mut self,
        core: usize,
        stmt: usize,
        args: &[pluto_codegen::AffExpr],
        vals: &[Int],
        arrays: &mut Arrays,
    ) {
        let info = &self.stmts[stmt];
        let n_it = self.prog.stmts[stmt].num_iters();
        debug_assert_eq!(args.len(), n_it);
        let mut iters = Vec::with_capacity(n_it);
        let mut iters_i64 = Vec::with_capacity(n_it);
        for arg in args {
            let v = arg.eval_floor(vals);
            iters.push(v);
            iters_i64.push(v as i64);
        }
        let mut vp = iters.clone();
        vp.extend_from_slice(&self.params);
        let c = &mut self.cores[core];
        let mut cycles = info.flops;
        let mut reads = Vec::with_capacity(info.reads.len());
        for (a, rows) in &info.reads {
            let mut off = 0usize;
            for (k, row) in rows.iter().enumerate() {
                let mut s = row[vp.len()];
                for (i, &x) in vp.iter().enumerate() {
                    s += row[i] * x;
                }
                let e = self.extents[*a][k];
                assert!(s >= 0 && (s as usize) < e, "subscript out of range");
                off = off * e + s as usize;
            }
            let before = c.sim.stats;
            c.sim.access(arrays.address(*a, off));
            cycles += 1
                + self.cfg.l1_penalty * (c.sim.stats.l1_misses - before.l1_misses)
                + self.cfg.l2_penalty * (c.sim.stats.l2_misses - before.l2_misses);
            reads.push(arrays.load(*a, off));
        }
        let v = info.body.eval(&reads, &iters_i64);
        let a = info.write_array;
        let mut off = 0usize;
        for (k, row) in info.write_rows.iter().enumerate() {
            let mut s = row[vp.len()];
            for (i, &x) in vp.iter().enumerate() {
                s += row[i] * x;
            }
            let e = self.extents[a][k];
            assert!(s >= 0 && (s as usize) < e, "subscript out of range");
            off = off * e + s as usize;
        }
        let before = c.sim.stats;
        c.sim.access(arrays.address(a, off));
        cycles += 1
            + self.cfg.l1_penalty * (c.sim.stats.l1_misses - before.l1_misses)
            + self.cfg.l2_penalty * (c.sim.stats.l2_misses - before.l2_misses);
        arrays.store(a, off, v);
        c.cycles += cycles;
        c.exec.instances += 1;
        c.exec.flops += info.flops;
    }

    /// Executes a subtree on one core: core 0 outside a region (where a
    /// parallel loop opens one), core `t` for its share inside.
    fn exec_on(&mut self, core: usize, ast: &Ast, vals: &mut [Int], arrays: &mut Arrays) {
        match ast {
            Ast::Seq(v) => {
                for a in v {
                    self.exec_on(core, a, vals, arrays);
                }
            }
            Ast::Loop(l) if l.parallel && !self.in_region && self.cfg.cores > 1 => {
                self.region(l, vals, arrays);
                self.regions += 1;
            }
            Ast::Loop(l) => {
                let lb = l.lb.eval_lower(vals);
                let ub = l.ub.eval_upper(vals);
                // Unroll chunks amortize loop overhead on the cores of a
                // region only; outside one every iteration pays it (kept
                // as modelled: the committed figure tables pin both).
                let step = if self.in_region {
                    l.unroll.max(1) as Int
                } else {
                    1
                };
                let mut x = lb;
                while x <= ub {
                    // Loop overhead is paid once per (unrolled) chunk.
                    self.cores[core].cycles += self.cfg.loop_overhead;
                    let end = (x + step - 1).min(ub);
                    while x <= end {
                        vals[l.var] = x;
                        self.exec_on(core, &l.body, vals, arrays);
                        x += 1;
                    }
                }
            }
            Ast::Let {
                var, expr, body, ..
            } => {
                self.cores[core].cycles += self.cfg.let_overhead;
                vals[*var] = expr.eval_floor(vals);
                self.exec_on(core, body, vals, arrays);
            }
            Ast::Guard { conds, body } => {
                // Short-circuit evaluation, charging only evaluated conds
                // (like compiled `&&` chains).
                let mut ok = true;
                for c in conds {
                    self.cores[core].cycles += self.cfg.guard_overhead;
                    if !c.holds(vals) {
                        ok = false;
                        break;
                    }
                }
                if ok {
                    self.exec_on(core, body, vals, arrays);
                }
            }
            Ast::Filter { stmt, conds, body } => {
                let mut pass = true;
                for c in conds {
                    self.cores[core].cycles += self.cfg.guard_overhead;
                    if !c.holds(vals) {
                        pass = false;
                        break;
                    }
                }
                if !pass {
                    self.suppressed[*stmt] += 1;
                }
                self.exec_on(core, body, vals, arrays);
                if !pass {
                    self.suppressed[*stmt] -= 1;
                }
            }
            Ast::Stmt { stmt, args } => {
                if self.suppressed[*stmt] == 0 {
                    self.run_stmt(core, *stmt, args, vals, arrays);
                }
            }
        }
    }

    /// One parallel region: block-distribute iterations, run each core's
    /// share in core order, advance global time by the slowest core plus a
    /// barrier.
    fn region(&mut self, l: &pluto_codegen::LoopNode, vals: &mut [Int], arrays: &mut Arrays) {
        let lb = l.lb.eval_lower(vals);
        let ub = l.ub.eval_upper(vals);
        // Collect items exactly like the threaded executor.
        let inner: Option<&pluto_codegen::LoopNode> = if self.cfg.collapse >= 2 {
            match &*l.body {
                Ast::Loop(i) if i.parallel => Some(i),
                _ => None,
            }
        } else {
            None
        };
        let mut items: Vec<(Int, Int)> = Vec::new();
        let mut x = lb;
        while x <= ub {
            match inner {
                Some(i) => {
                    vals[l.var] = x;
                    let ilb = i.lb.eval_lower(vals);
                    let iub = i.ub.eval_upper(vals);
                    let mut y = ilb;
                    while y <= iub {
                        items.push((x, y));
                        y += 1;
                    }
                }
                None => items.push((x, 0)),
            }
            x += 1;
        }
        let body: &Ast = match inner {
            Some(i) => &i.body,
            None => &l.body,
        };
        let ncores = self.cores.len();
        let start: Vec<u64> = self.cores.iter().map(|c| c.cycles).collect();
        let miss_start: u64 = self.cores.iter().map(|c| c.sim.stats.l2_misses).sum();
        let mut deltas = vec![0u64; ncores];
        self.in_region = true;
        for t in 0..ncores {
            let lo = items.len() * t / ncores;
            let hi = items.len() * (t + 1) / ncores;
            let mut my_vals = vals.to_vec();
            for &(x, y) in &items[lo..hi] {
                my_vals[l.var] = x;
                if let Some(i) = inner {
                    my_vals[i.var] = y;
                }
                self.exec_on(t, body, &mut my_vals, arrays);
            }
            deltas[t] = self.cores[t].cycles - start[t];
        }
        self.in_region = false;
        // The region takes the slowest core's time, but no less than the
        // shared bus needs to transfer every line missed in the region.
        let miss_total: u64 = self
            .cores
            .iter()
            .map(|c| c.sim.stats.l2_misses)
            .sum::<u64>()
            - miss_start;
        let crit = deltas.iter().copied().max().unwrap_or(0);
        let max = crit.max(miss_total * self.cfg.bus) + self.cfg.barrier;
        for (t, c) in self.cores.iter_mut().enumerate() {
            c.cycles = start[t] + max;
            let _ = t;
        }
        // Keep core 0 as the sequential clock: align all cores to the
        // global maximum so sequential code resumes after the barrier.
        let global = self.cores.iter().map(|c| c.cycles).max().unwrap_or(0);
        for c in self.cores.iter_mut() {
            c.cycles = global;
        }
    }
}

/// Runs the AST on the simulated machine.
pub fn simulate(
    prog: &Program,
    ast: &Ast,
    params: &[i64],
    arrays: &mut Arrays,
    cfg: MachineConfig,
) -> SimStats {
    let _span = pluto_obs::span("execute/simulate");
    let mut m = Machine::new(prog, params, arrays, cfg);
    let mut vals = vec![0; ast.num_vars().max(params.len())];
    for (k, &p) in params.iter().enumerate() {
        vals[k] = p as Int;
    }
    m.exec_on(0, ast, &mut vals, arrays);
    let regions = m.regions;
    let mut exec = ExecStats::default();
    let mut cache = CacheStats::default();
    let mut cycles = 0;
    for c in &m.cores {
        exec.instances += c.exec.instances;
        exec.flops += c.exec.flops;
        cache.accesses += c.sim.stats.accesses;
        cache.l1_misses += c.sim.stats.l1_misses;
        cache.l2_misses += c.sim.stats.l2_misses;
        cycles = cycles.max(c.cycles);
    }
    exec.parallel_regions = regions;
    pluto_obs::counters::MACHINE_INSTANCES.add(exec.instances);
    SimStats {
        cycles,
        exec,
        cache,
        regions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{forced_parallel, scale_program};
    use pluto_codegen::{generate, original_schedule};

    #[test]
    fn sequential_simulation_counts() {
        let prog = scale_program();
        let ast = generate(&prog, &original_schedule(&prog));
        let mut arrays = Arrays::new(vec![vec![1000], vec![1000]]);
        let cfg = MachineConfig::default().with_cores(1);
        let st = simulate(&prog, &ast, &[1000], &mut arrays, cfg);
        assert_eq!(st.exec.instances, 1000);
        assert_eq!(st.cache.accesses, 2000);
        assert!(st.cycles > 2000); // misses cost extra
                                   // Results are still computed.
        assert_eq!(arrays.load(1, 7), 0.0 * 2.0);
    }

    #[test]
    fn parallel_simulation_speeds_up() {
        let prog = scale_program();
        let ast = forced_parallel(&prog);
        let n = 200_000i64;
        let mut a1 = Arrays::new(vec![vec![n as usize], vec![n as usize]]);
        let mut a4 = a1.clone();
        let c1 = simulate(
            &prog,
            &ast,
            &[n],
            &mut a1,
            MachineConfig::default().with_cores(1),
        );
        let c4 = simulate(
            &prog,
            &ast,
            &[n],
            &mut a4,
            MachineConfig::default().with_cores(4),
        );
        let speedup = c1.cycles as f64 / c4.cycles as f64;
        assert!(
            speedup > 2.5 && speedup < 4.5,
            "expected near-4x, got {speedup}"
        );
        assert_eq!(c4.regions, 1);
    }
}

#[cfg(test)]
mod model_tests {
    use super::*;
    use crate::testutil::{forced_parallel, scale_program};
    use pluto_codegen::{generate, original_schedule};

    /// Streaming kernel: every access misses (array >> caches).
    fn streaming() -> (Program, usize) {
        (scale_program(), 200_000)
    }

    #[test]
    fn bus_bound_limits_memory_bound_scaling() {
        let (prog, n) = streaming();
        let ast = forced_parallel(&prog);
        let mk = |cores, bus| {
            let mut arrays = Arrays::new(vec![vec![n], vec![n]]);
            let mut cfg = MachineConfig::default().with_cores(cores);
            cfg.bus = bus;
            simulate(&prog, &ast, &[n as i64], &mut arrays, cfg)
        };
        // With an expensive bus, 4-core scaling of a pure streaming kernel
        // is capped by bus throughput, not by the core count.
        let c1 = mk(1, 200);
        let c4 = mk(4, 200);
        let speedup = c1.cycles as f64 / c4.cycles as f64;
        assert!(
            speedup < 3.0,
            "bus must cap streaming speedup, got {speedup}"
        );
        // With a free bus the same kernel scales ~4x.
        let f1 = mk(1, 0);
        let f4 = mk(4, 0);
        let free = f1.cycles as f64 / f4.cycles as f64;
        assert!(free > 3.5, "free-bus speedup should be ~4x, got {free}");
    }

    #[test]
    fn guard_overhead_is_charged() {
        let (prog, n) = streaming();
        let ast = generate(&prog, &original_schedule(&prog));
        let run = |loop_overhead| {
            let mut arrays = Arrays::new(vec![vec![n], vec![n]]);
            let mut cfg = MachineConfig::default().with_cores(1);
            cfg.loop_overhead = loop_overhead;
            simulate(&prog, &ast, &[n as i64], &mut arrays, cfg).cycles
        };
        let cheap = run(0);
        let costly = run(10);
        assert_eq!(costly - cheap, 10 * n as u64, "10 cycles per iteration");
    }
}
