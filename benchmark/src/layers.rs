//! The one file that calls the library. Every other file of the benchmark
//! goes through these functions, so when a layer's public API changes
//! (ROADMAP items 1 and 2), this is the only file to re-point.
//!
//! The functions are thin on purpose: one layer call each, so that a
//! harness span around one of them times that layer and nothing else.
//! Span names used by the callers are `<layer>.<call>`, the layer being
//! the crate that does the work.

use pluto::{find_transformation, Optimizer, PlutoOptions, SearchResult};
use pluto_analyze::{analyze, bytecode, is_clean, AnalysisInput};
use pluto_codegen::{emit_c, original_schedule};
use pluto_ir::{analyze_dependences_with, DepAnalysisOptions};
use pluto_machine::{
    compile_kernel_with_extents, run_compiled_kernel, run_compiled_parallel_profiled,
    run_sequential, run_with_cache, ParallelConfig,
};
use pluto_obs::{InstallGuard, ObsSession};
use std::collections::BTreeMap;

pub use pluto::Optimized;
pub use pluto_codegen::Ast;
pub use pluto_frontend::ParsedUnit;
pub use pluto_ir::{Dependence, Program};
pub use pluto_machine::{Arrays, CacheConfig, CompiledKernel};
pub use pluto_obs::json::Json;
pub use pluto_obs::Profile;
pub use pluto_repro::daemon::Daemon;

/// Tile size of every compile in the benchmark (`plutoc --tile 32`, the
/// tool's default, spelled out so a changed default cannot move the
/// baseline silently).
pub const TILE: i128 = 32;

// ---- obs ------------------------------------------------------------------

/// One compile's observability session, installed on this thread — what
/// `plutoc` sets up before parsing. Without the profile recorder it still
/// scopes the solver cache to the compile, as in `plutoc`.
pub struct ObsScope {
    session: ObsSession,
    guard: Option<InstallGuard>,
}

impl ObsScope {
    pub fn start(profile: bool) -> ObsScope {
        let mut b = ObsSession::builder().decisions();
        if profile {
            b = b.profile();
        }
        let session = b.build();
        let guard = Some(session.install());
        ObsScope { session, guard }
    }

    /// The optimizer's satisfaction ledger (input of the analyzer's
    /// PL007 cross-check); call once, after the search.
    pub fn ledger(&self, num_deps: usize) -> Vec<Option<usize>> {
        self.session.take_decisions().ledger(num_deps)
    }

    /// Uninstalls the session and returns what it recorded.
    pub fn finish(mut self) -> Profile {
        self.guard.take();
        self.session.finish_profile()
    }
}

pub fn json_parse(text: &str) -> Result<Json, String> {
    pluto_obs::json::parse(text).map_err(|e| e.to_string())
}

pub fn json_emit(doc: &Json) -> String {
    doc.to_compact()
}

fn json_at<'a>(doc: &'a Json, path: &[&str]) -> Option<&'a Json> {
    path.iter().try_fold(doc, |at, key| at.get(key))
}

pub fn json_str<'a>(doc: &'a Json, path: &[&str]) -> Option<&'a str> {
    json_at(doc, path)?.as_str()
}

pub fn json_u64(doc: &Json, path: &[&str]) -> Option<u64> {
    json_at(doc, path)?.as_u64()
}

pub fn json_f64(doc: &Json, path: &[&str]) -> Option<f64> {
    json_at(doc, path)?.as_f64()
}

#[cfg(test)]
pub fn json_array<'a>(doc: &'a Json, path: &[&str]) -> Option<&'a [Json]> {
    json_at(doc, path)?.as_array()
}

pub fn json_bool(doc: &Json, path: &[&str]) -> Option<bool> {
    json_at(doc, path)?.as_bool()
}

/// Every counter, histogram time sum (`<name>.sum_ns`) and phase wall
/// (`phase.<path>.wall_ns`) of a profile, added into `into` by name.
pub fn add_profile(into: &mut BTreeMap<String, u64>, profile: &Profile) {
    for c in &profile.counters {
        *into.entry(c.name.to_string()).or_insert(0) += c.value;
    }
    for h in &profile.hists {
        *into.entry(format!("{}.sum_ns", h.name)).or_insert(0) += h.sum_ns;
    }
    for p in &profile.phases {
        *into.entry(format!("phase.{}.wall_ns", p.path)).or_insert(0) += p.wall_ns as u64;
    }
}

// ---- frontend, ir, core, codegen -------------------------------------------

pub fn parse(source: &str) -> Result<ParsedUnit, String> {
    pluto_frontend::parse_unit(source).map_err(|e| e.to_string())
}

pub fn num_statements(unit: &ParsedUnit) -> usize {
    unit.program.stmts.len()
}

/// Dependence analysis as `plutod` and `plutoc --threads 1` run it:
/// single-threaded, so that `ilp.*` counts repeat exactly.
pub fn deps(prog: &Program) -> Vec<Dependence> {
    analyze_dependences_with(
        prog,
        &DepAnalysisOptions {
            include_input: true,
            prune: true,
            threads: 1,
        },
    )
}

pub fn search(prog: &Program, deps: &[Dependence]) -> Result<SearchResult, String> {
    find_transformation(prog, deps, &PlutoOptions::default()).map_err(|e| e.to_string())
}

/// Tiling, wavefront and the vectorization reorder on a search result.
pub fn apply(prog: &Program, deps: Vec<Dependence>, found: SearchResult) -> Optimized {
    Optimizer::new().tile_size(TILE).apply(prog, deps, found)
}

pub fn generate(prog: &Program, optimized: &Optimized) -> Ast {
    pluto_codegen::generate(prog, &optimized.result.transform)
}

/// The AST of the program as written (identity schedule).
pub fn generate_original(prog: &Program) -> Ast {
    pluto_codegen::generate(prog, &original_schedule(prog))
}

pub fn emit(prog: &Program, ast: &Ast) -> String {
    emit_c(prog, ast)
}

// ---- analyze ----------------------------------------------------------------

/// Outcome of one analyzer pass: findings of any severity, and whether
/// none of them is an error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Findings {
    pub diagnostics: usize,
    pub clean: bool,
}

/// Race, bounds, lint and ledger checks (`plutoc --analyze`, first half).
pub fn audit(
    unit: &ParsedUnit,
    optimized: &Optimized,
    ast: &Ast,
    ledger: &[Option<usize>],
) -> Findings {
    let diags = analyze(&AnalysisInput {
        program: &unit.program,
        deps: &optimized.deps,
        transform: &optimized.result.transform,
        ast,
        extents: Some(unit.extent_rows()),
        param_values: None,
        ledger: Some(ledger),
    });
    Findings {
        diagnostics: diags.len(),
        clean: is_clean(&diags),
    }
}

/// Translation validation of the compiled kernel (`plutoc --analyze`,
/// second half).
pub fn audit_bytecode(
    prog: &Program,
    optimized: &Optimized,
    ast: &Ast,
    kernel: &CompiledKernel,
) -> Findings {
    let diags = bytecode::check(&bytecode::BytecodeInput {
        program: prog,
        transform: &optimized.result.transform,
        ast,
        kernel,
    });
    Findings {
        diagnostics: diags.len(),
        clean: is_clean(&diags),
    }
}

// ---- machine ----------------------------------------------------------------

pub fn extents(unit: &ParsedUnit, params: &[i64]) -> Result<Vec<Vec<usize>>, String> {
    unit.try_extents(params)
}

pub fn new_arrays(extents: &[Vec<usize>], init: impl Fn(usize, usize) -> f64) -> Arrays {
    let mut arrays = Arrays::new(extents.to_vec());
    arrays.seed_with(init);
    arrays
}

/// Every cell of every array, in declaration and row-major order.
pub fn for_each_cell(arrays: &Arrays, mut f: impl FnMut(f64)) {
    for a in 0..arrays.num_arrays() {
        let len: usize = arrays.extents(a).iter().product::<usize>().max(1);
        for off in 0..len {
            f(arrays.load(a, off));
        }
    }
}

/// Lowers an AST to bytecode for fixed parameters and array shapes.
pub fn bytecode_compile(
    prog: &Program,
    ast: &Ast,
    params: &[i64],
    extents: &[Vec<usize>],
) -> CompiledKernel {
    compile_kernel_with_extents(prog, ast, params, extents)
}

pub fn bytecode_instrs(kernel: &CompiledKernel) -> usize {
    kernel.code.len()
}

/// Sequential run on the bytecode engine; returns statement instances.
pub fn exec(kernel: &CompiledKernel, arrays: &mut Arrays) -> u64 {
    run_compiled_kernel(kernel, arrays).instances
}

/// What the thread team measured over one run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TeamSummary {
    pub dispatches: u64,
    pub barrier_wait_ms: f64,
    pub imbalance_mean: f64,
}

/// Run on the pooled thread team, with per-dispatch measurements;
/// returns statement instances and the team's summary.
pub fn exec_team(
    kernel: &CompiledKernel,
    arrays: &mut Arrays,
    threads: usize,
) -> (u64, TeamSummary) {
    let (stats, profile) = run_compiled_parallel_profiled(
        kernel,
        arrays,
        ParallelConfig {
            threads,
            collapse: 1,
        },
    );
    let summary = TeamSummary {
        dispatches: profile.dispatches,
        barrier_wait_ms: profile.barrier_wait_ns as f64 / 1e6,
        imbalance_mean: profile.imbalance_mean,
    };
    (stats.instances, summary)
}

/// The tree-walk reference evaluator (the differential oracle of the
/// repo's own tests); returns statement instances.
pub fn exec_reference(prog: &Program, ast: &Ast, params: &[i64], arrays: &mut Arrays) -> u64 {
    run_sequential(prog, ast, params, arrays).instances
}

pub fn same_arrays(a: &Arrays, b: &Arrays) -> bool {
    a.bitwise_eq(b)
}

/// Counts of one simulated run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimCounts {
    pub l1_misses: u64,
    pub l2_misses: u64,
    /// The simulator's cost model: accesses plus miss penalties.
    pub cycles: u64,
}

/// Tree-walk run with every access driven through the cache simulator.
pub fn exec_cache_sim(
    prog: &Program,
    ast: &Ast,
    params: &[i64],
    arrays: &mut Arrays,
    geometry: CacheConfig,
) -> SimCounts {
    let stats = run_with_cache(prog, ast, params, arrays, geometry).1;
    SimCounts {
        l1_misses: stats.l1_misses,
        l2_misses: stats.l2_misses,
        cycles: stats.cost_cycles(),
    }
}

/// Worker threads the process-wide pool has spawned so far.
pub fn pool_spawns() -> usize {
    pluto_pool::spawn_count()
}

// ---- daemon -----------------------------------------------------------------

pub fn daemon(cache_cap: usize) -> Daemon {
    Daemon::with_cache_cap(cache_cap)
}

/// One `pluto-rpc/1` request line in, one response line out.
pub fn handle_line(daemon: &Daemon, line: &str) -> String {
    daemon.handle_line(line).response
}

/// `(hits, misses, evictions)` of the daemon's schedule cache.
pub fn cache_totals(daemon: &Daemon) -> (u64, u64, u64) {
    daemon.metrics().cache_totals()
}

/// Entries resident in the daemon's schedule cache.
pub fn cache_entries(daemon: &Daemon) -> usize {
    daemon.cache_len()
}
