//! The compiled-kernel executor: runs [`CompiledKernel`] bytecode
//! sequentially or over the persistent worker pool.
//!
//! This is the one engine (DESIGN.md §10): one compile per run (or per
//! bench kernel), then a pc/frame-stack interpretation whose inner loop
//! is strided `i64` address arithmetic and a postfix f64 tape — no AST
//! recursion, no access-matrix evaluation per instance. [`run_region`]
//! is the only interpreter loop; it is generic over the memory backend
//! ([`Mem`]: plain arrays, raw pointers for the team, the cache
//! simulator, the sanitizer) and over what a `parallel` loop header
//! means ([`OnParallel`]: nothing, a pool dispatch, a sanitizer frame),
//! both resolved statically.
//!
//! Parallel loops dispatch chunked dynamic work lists onto the global
//! [`pool`](crate::pool): members (the coordinator plus enlisted worker
//! slots) grab chunks off a shared atomic counter, which is what erases
//! the block-partition load imbalance the telemetry attributed on the
//! wavefront benches. Small dispatches (fewer than
//! [`MIN_ITEMS_TO_ENLIST`] items) run inline on the coordinator without
//! waking anyone — on the bench kernels most wavefront fronts are tiny.
//!
//! Telemetry: one `Dispatch` record per non-empty parallel-loop entry
//! (`bench_diff` gates `dispatches` hard), per-member chunk times and
//! instance counts, coordinator trace spans on tid 0 and stable
//! worker-slot tids `1..=width`, and one `machine.instances` flush per
//! dispatch. With no profile session, no trace, and no local profile
//! request the engine takes no clock reads and allocates no buffers.

use crate::arrays::Arrays;
use crate::compile::{compile_kernel, BodyOp, CAff, CCond, CompiledKernel, Instr};
use crate::mem::{Direct, Mem, RawMem, SendPtr};
use crate::pool;
use pluto_codegen::Ast;
use pluto_ir::Program;
use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Counters accumulated during one execution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Statement instances executed.
    pub instances: u64,
    /// Floating-point operations executed (per-body op count).
    pub flops: u64,
    /// Parallel regions entered (≈ barrier count in the OpenMP mapping).
    pub parallel_regions: u64,
}

impl ExecStats {
    fn merge(&mut self, o: ExecStats) {
        self.instances += o.instances;
        self.flops += o.flops;
        self.parallel_regions += o.parallel_regions;
    }
}

/// Thread-team configuration for [`run_parallel`].
#[derive(Debug, Clone, Copy)]
pub struct ParallelConfig {
    /// Worker threads (the paper's "number of cores").
    pub threads: usize,
    /// How many consecutive parallel loops to collapse into one work list
    /// (2 exploits two degrees of pipelined parallelism, as in Fig. 13).
    pub collapse: usize,
}

impl Default for ParallelConfig {
    fn default() -> ParallelConfig {
        ParallelConfig {
            threads: 4,
            collapse: 1,
        }
    }
}

/// Parallel loops with fewer work items than this run inline on the
/// coordinator: waking a parked worker costs a futex round trip, which
/// a 2-item wavefront front never amortizes.
///
/// Public (rather than a buried literal) because the static bytecode
/// verifier models the dispatch partition with the same constants — the
/// executor and the verifier can't drift apart.
pub const MIN_ITEMS_TO_ENLIST: usize = 4;

/// Chunks per member the dynamic scheduler aims for; more chunks mean
/// finer balancing but more atomic traffic on the shared counter.
/// Shared with the verifier's partition model like
/// [`MIN_ITEMS_TO_ENLIST`].
pub const CHUNKS_PER_MEMBER: usize = 4;

/// Chunk length the dynamic scheduler uses for a dispatch of `n_items`
/// work items over a team of `width + 1` members (the coordinator plus
/// `width` enlisted workers). This is *the* partition rule: both the
/// executor's dispatch claim loop and the verifier's [`chunk_plan`]
/// model call it.
#[inline]
pub fn chunk_len(n_items: usize, width: usize) -> usize {
    (n_items / ((width + 1) * CHUNKS_PER_MEMBER)).max(1)
}

/// The exact chunk ranges a dispatch of `n_items` items over team width
/// `width` carves its work list into: half-open `(lo, hi)` index ranges
/// claimed off the shared counter in order. The static verifier proves
/// this plan is a disjoint exact cover of `0..n_items`; the executor
/// realizes the same arithmetic incrementally in its claim loop.
pub fn chunk_plan(n_items: usize, width: usize) -> Vec<(usize, usize)> {
    if n_items == 0 {
        return Vec::new();
    }
    let chunk = chunk_len(n_items, width);
    let nchunks = n_items.div_ceil(chunk);
    (0..nchunks)
        .map(|c| (c * chunk, ((c + 1) * chunk).min(n_items)))
        .collect()
}

/// Per-member interpreter state (slot vector, loop frames, filter
/// bookkeeping, scratch stacks, stats).
pub(crate) struct State {
    pub(crate) vals: Vec<i64>,
    /// Hoisted access invariants of the open innermost loop, indexed
    /// like [`CompiledKernel::hoists`].
    pre: Vec<i64>,
    /// Upper bounds of open loop frames.
    ubs: Vec<i64>,
    /// Pass/fail of open filters (mirrors the suppression counters).
    fstack: Vec<bool>,
    /// Per-statement suppression depth from enclosing filters.
    suppressed: Vec<u32>,
    /// Loaded read values, indexed by read id.
    reads: Vec<f64>,
    /// Postfix evaluation stack.
    stack: Vec<f64>,
    pub(crate) stats: ExecStats,
}

impl State {
    fn new(ck: &CompiledKernel) -> State {
        let mut vals = vec![0i64; ck.num_slots];
        vals[..ck.params.len()].copy_from_slice(&ck.params);
        State {
            vals,
            pre: vec![0; ck.hoists.len()],
            ubs: Vec::new(),
            fstack: Vec::new(),
            suppressed: vec![0; ck.num_stmts],
            reads: Vec::new(),
            stack: Vec::new(),
            stats: ExecStats::default(),
        }
    }

    /// A team member's state: same bindings, hoisted sums and filter
    /// context as the coordinator at the dispatch point, fresh counters.
    fn fork(&self) -> State {
        State {
            vals: self.vals.clone(),
            pre: self.pre.clone(),
            ubs: Vec::new(),
            fstack: Vec::new(),
            suppressed: self.suppressed.clone(),
            reads: Vec::new(),
            stack: Vec::new(),
            stats: ExecStats::default(),
        }
    }
}

#[inline]
fn eval_body(
    ops: &[BodyOp],
    reads: &[f64],
    args: &[CAff],
    vals: &[i64],
    stack: &mut Vec<f64>,
) -> f64 {
    stack.clear();
    for op in ops {
        match *op {
            BodyOp::Read(k) => stack.push(reads[k as usize]),
            BodyOp::Lit(v) => stack.push(v),
            BodyOp::Iter(k) => stack.push(args[k as usize].numer(vals) as f64),
            BodyOp::Add => bin(stack, |a, b| a + b),
            BodyOp::Sub => bin(stack, |a, b| a - b),
            BodyOp::Mul => bin(stack, |a, b| a * b),
            BodyOp::Div => bin(stack, |a, b| a / b),
        }
    }
    stack.pop().expect("body tape leaves one value")
}

#[inline]
fn bin(stack: &mut Vec<f64>, f: impl Fn(f64, f64) -> f64) {
    let b = stack.pop().expect("rhs");
    let a = stack.pop().expect("lhs");
    stack.push(f(a, b));
}

#[inline]
fn run_leaf<M: Mem>(ck: &CompiledKernel, leaf: u32, st: &mut State, mem: &mut M) {
    let l = &ck.leaves[leaf as usize];
    if st.suppressed[l.stmt as usize] != 0 {
        return;
    }
    st.reads.clear();
    for r in &l.reads {
        let off = r.offset(&st.vals, &st.pre);
        st.reads.push(mem.load(r.array as usize, off));
    }
    let v = eval_body(&l.body, &st.reads, &l.args, &st.vals, &mut st.stack);
    let off = l.write.offset(&st.vals, &st.pre);
    mem.store(l.write.array as usize, off, v);
    st.stats.instances += 1;
    st.stats.flops += l.flops;
}

/// The header of a loop marked `parallel`, as [`run_region`] hands it to
/// [`OnParallel`]: where it sits in the bytecode, and the range it scans
/// under the current bindings (`lo > hi` when empty).
pub(crate) struct ParLoop {
    /// Index of the [`Instr::Loop`]; the body is `[pc + 1, exit - 1)`.
    pub(crate) pc: usize,
    pub(crate) exit: usize,
    pub(crate) var: usize,
    /// Index into [`CompiledKernel::names`].
    pub(crate) name: usize,
    pub(crate) lo: i64,
    pub(crate) hi: i64,
}

/// What a `parallel` loop header means to [`run_region`]. Returns `true`
/// when the implementation executed the whole loop itself (the
/// interpreter resumes at `l.exit`), `false` to have it run inline like
/// any other loop.
pub(crate) trait OnParallel<M: Mem> {
    fn run_loop(&mut self, ck: &CompiledKernel, l: ParLoop, st: &mut State, mem: &mut M) -> bool;
}

/// Parallel markers ignored: what sequential runs, the cache simulation
/// and the members of a team execute.
pub(crate) struct Inline;

impl<M: Mem> OnParallel<M> for Inline {
    #[inline(always)]
    fn run_loop(&mut self, _: &CompiledKernel, _: ParLoop, _: &mut State, _: &mut M) -> bool {
        false
    }
}

/// Sums the hoisted access invariants `[lo, hi)` at the current bindings
/// — what entering the loop that owns them does. Whoever runs that
/// loop's body without passing its header (a team member under
/// `collapse: 2`) calls this per work item instead.
#[inline]
fn enter_hoists(ck: &CompiledKernel, (lo, hi): (u32, u32), st: &mut State) {
    for k in lo as usize..hi as usize {
        st.pre[k] = ck.hoists[k]
            .iter()
            .map(|&(slot, s)| s * st.vals[slot as usize])
            .sum();
    }
}

/// Executes bytecode region `[lo, hi)` to completion — the only
/// interpreter loop, and the only place a `parallel` header is given
/// meaning (by `par`).
pub(crate) fn run_region<M: Mem, P: OnParallel<M>>(
    ck: &CompiledKernel,
    lo: usize,
    hi: usize,
    st: &mut State,
    mem: &mut M,
    par: &mut P,
) {
    let mut pc = lo;
    while pc < hi {
        match &ck.code[pc] {
            Instr::Loop {
                var,
                lb,
                ub,
                parallel,
                name,
                exit,
                hoist,
            } => {
                let lo_v = ck.lower[*lb as usize].eval_lower(&st.vals);
                let hi_v = ck.upper[*ub as usize].eval_upper(&st.vals);
                // Before `par` gets the loop: its members fork this state
                // and run the body without passing this header.
                if lo_v <= hi_v {
                    enter_hoists(ck, *hoist, st);
                }
                let taken = *parallel && {
                    let l = ParLoop {
                        pc,
                        exit: *exit as usize,
                        var: *var as usize,
                        name: *name as usize,
                        lo: lo_v,
                        hi: hi_v,
                    };
                    par.run_loop(ck, l, st, mem)
                };
                if taken || lo_v > hi_v {
                    pc = *exit as usize;
                } else {
                    st.vals[*var as usize] = lo_v;
                    st.ubs.push(hi_v);
                    pc += 1;
                }
            }
            Instr::LoopEnd { var, top } => {
                let v = st.vals[*var as usize] + 1;
                if v <= *st.ubs.last().expect("open loop frame") {
                    st.vals[*var as usize] = v;
                    pc = *top as usize + 1;
                } else {
                    st.ubs.pop();
                    pc += 1;
                }
            }
            Instr::Let { var, expr } => {
                st.vals[*var as usize] = ck.exprs[*expr as usize].eval_floor(&st.vals);
                pc += 1;
            }
            Instr::Guard { lo, hi, exit } => {
                if CCond::all_hold(&ck.conds[*lo as usize..*hi as usize], &st.vals) {
                    pc += 1;
                } else {
                    pc = *exit as usize;
                }
            }
            Instr::FilterEnter { stmt, lo, hi } => {
                let pass = CCond::all_hold(&ck.conds[*lo as usize..*hi as usize], &st.vals);
                st.fstack.push(pass);
                if !pass {
                    st.suppressed[*stmt as usize] += 1;
                }
                pc += 1;
            }
            Instr::FilterExit { stmt } => {
                if !st.fstack.pop().expect("open filter frame") {
                    st.suppressed[*stmt as usize] -= 1;
                }
                pc += 1;
            }
            Instr::Stmt { leaf } => {
                run_leaf(ck, *leaf, st, mem);
                pc += 1;
            }
        }
    }
}

/// Runs the whole kernel on the calling thread over `mem` and flushes
/// `machine.instances` once — the body of every non-pooled entry point.
pub(crate) fn run_whole<M: Mem, P: OnParallel<M>>(
    ck: &CompiledKernel,
    mem: &mut M,
    par: &mut P,
) -> ExecStats {
    let mut st = State::new(ck);
    run_region(ck, 0, ck.code.len(), &mut st, mem, par);
    pluto_obs::counters::MACHINE_INSTANCES.add(st.stats.instances);
    st.stats
}

/// The pool dispatcher: every `parallel` header reached outside a team
/// becomes one dispatch over the persistent pool. Carries the run's
/// telemetry state.
struct Team<'a> {
    cfg: ParallelConfig,
    /// Measure chunk wall times and per-member instance counts at all.
    /// Off (no clock reads) unless a profile session or a trace is
    /// active, or a caller asked for a local
    /// [`ExecProfile`](pluto_obs::ExecProfile).
    measure: bool,
    /// Local dispatch collector for [`run_compiled_parallel_profiled`].
    dispatches: Option<&'a mut Vec<pluto_obs::exec::Dispatch>>,
    /// Instances already flushed to `machine.instances` by per-dispatch
    /// team flushes; the run's epilogue adds only the remainder the
    /// coordinator executed outside any team.
    flushed: u64,
}

/// Member states handed to the team job. Each slot is touched by exactly
/// one thread (slot identity = thread identity for the dispatch), which
/// is what makes the `UnsafeCell` sharing sound.
struct MemberStates(Vec<UnsafeCell<(State, u128)>>);
unsafe impl Sync for MemberStates {}

impl<'m> OnParallel<RawMem<'m>> for Team<'_> {
    /// One parallel region over the pool: build the (possibly collapsed)
    /// work list, carve it into chunks on a shared counter, run members,
    /// join, account.
    fn run_loop(
        &mut self,
        ck: &CompiledKernel,
        l: ParLoop,
        st: &mut State,
        mem: &mut RawMem<'m>,
    ) -> bool {
        if self.cfg.threads <= 1 {
            return false;
        }
        st.stats.parallel_regions += 1;
        if l.lo > l.hi {
            return true;
        }
        let ParLoop { pc, exit, var, .. } = l;
        // Collapse two consecutive parallel loops into one work list when
        // the outer body is exactly the inner loop.
        let inner = if self.cfg.collapse >= 2 {
            match &ck.code[pc + 1] {
                Instr::Loop {
                    var: iv,
                    lb: ilb,
                    ub: iub,
                    parallel: true,
                    exit: iexit,
                    hoist,
                    ..
                } if *iexit as usize == exit - 1 => {
                    Some((*iv, *ilb, *iub, *iexit as usize, *hoist))
                }
                _ => None,
            }
        } else {
            None
        };
        let mut items: Vec<(i64, i64)> = Vec::new();
        match inner {
            Some((_, ilb, iub, _, _)) => {
                for x in l.lo..=l.hi {
                    st.vals[var] = x;
                    let ylo = ck.lower[ilb as usize].eval_lower(&st.vals);
                    let yhi = ck.upper[iub as usize].eval_upper(&st.vals);
                    for y in ylo..=yhi {
                        items.push((x, y));
                    }
                }
            }
            None => items.extend((l.lo..=l.hi).map(|x| (x, 0))),
        }
        // The body region members execute per item; with it, the inner
        // variable to bind and the inner loop's hoists, which depend on
        // the outer variable and so are summed again per item.
        let (body_lo, body_hi, inner) = match inner {
            Some((iv, _, _, iexit, hoist)) => (pc + 2, iexit - 1, Some((iv, hoist))),
            None => (pc + 1, exit - 1, None),
        };

        let pool = pool::global();
        // The global pool may have grown wider than this run's config
        // (width never shrinks); never enlist beyond `threads - 1`.
        let width = pool.width().min(self.cfg.threads.saturating_sub(1));
        let chunk = chunk_len(items.len(), width);
        let nchunks = items.len().div_ceil(chunk);
        let team = if items.len() >= MIN_ITEMS_TO_ENLIST {
            width.min(nchunks.saturating_sub(1))
        } else {
            0
        };

        let measure = self.measure;
        let loop_name: &str = &ck.names[l.name];
        // Coordinator dispatch span (tid 0): brackets fork to join. `None`
        // (no allocation) whenever tracing is off. Provenance makes the
        // event attributable to its source: `level` is the scattering row
        // the loop scans (1-based; 0 = domain-recovery loop) and `stmts` is
        // the bitmask of statement ids executing under it.
        let mut coord = pluto_obs::trace::RingBuf::for_thread(0);
        if let Some(b) = coord.as_mut() {
            let origin = ck.provenance.loop_at(pc);
            b.begin(
                loop_name,
                &[
                    ("items", items.len() as u64),
                    ("threads", team as u64 + 1),
                    (
                        "level",
                        origin.and_then(|o| o.level).map_or(0, |l| l as u64 + 1),
                    ),
                    ("stmts", origin.map_or(0, |o| o.stmts)),
                ],
            );
        }

        let members = MemberStates(
            (0..=team)
                .map(|_| UnsafeCell::new((st.fork(), 0u128)))
                .collect(),
        );
        let counter = AtomicUsize::new(0);
        let items_ref = &items;
        let team_mem = *mem;
        // Capture the `Sync` wrapper, not its inner vector (closure capture
        // is per-field and would lose the wrapper's `Sync` impl).
        let members_ref = &members;
        let job = |slot: usize| {
            // Safety: slot indices are unique per member thread for the
            // whole dispatch; no two threads touch the same cell.
            let (m, chunk_ns) = unsafe { &mut *members_ref.0[slot].get() };
            // Pool worker slots own the matching timeline tids; the
            // coordinator's chunks run inside its dispatch span on tid 0.
            let mut buf = (slot > 0)
                .then(|| pluto_obs::trace::RingBuf::for_thread(slot as u32))
                .flatten();
            if let Some(b) = buf.as_mut() {
                b.begin(loop_name, &[("slot", slot as u64)]);
            }
            // Chunk timing is gated with tracing/profiling: the disabled
            // path never reads the clock.
            let started = measure.then(std::time::Instant::now);
            let mut mem = team_mem;
            loop {
                let c = counter.fetch_add(1, Ordering::Relaxed);
                if c >= nchunks {
                    break;
                }
                let lo = c * chunk;
                let hi = (lo + chunk).min(items_ref.len());
                for &(x, y) in &items_ref[lo..hi] {
                    m.vals[var] = x;
                    if let Some((iv, hoist)) = inner {
                        m.vals[iv as usize] = y;
                        enter_hoists(ck, hoist, m);
                    }
                    run_region(ck, body_lo, body_hi, m, &mut mem, &mut Inline);
                }
            }
            *chunk_ns = started.map_or(0, |s| s.elapsed().as_nanos());
            if let Some(mut b) = buf {
                b.end(loop_name, &[("instances", m.stats.instances)]);
                b.submit();
            }
        };
        pool.run(team, &job);

        let mut chunk_ns = Vec::new();
        let mut instances = Vec::new();
        let mut team_total = 0u64;
        for cell in members.0 {
            let (m, ns) = cell.into_inner();
            team_total += m.stats.instances;
            if measure {
                chunk_ns.push(ns);
                instances.push(m.stats.instances);
            }
            st.stats.merge(m.stats);
        }
        // Members counted into locals; flush the team's total to the global
        // counter once per dispatch and remember it so the run's epilogue
        // doesn't recount.
        pluto_obs::counters::MACHINE_INSTANCES.add(team_total);
        self.flushed += team_total;
        if let Some(mut b) = coord {
            b.end(loop_name, &[("instances", team_total)]);
            b.submit();
        }
        if measure {
            let d = pluto_obs::exec::Dispatch {
                name: loop_name.to_string(),
                items: items.len() as u64,
                chunk_ns,
                instances,
            };
            if let Some(v) = self.dispatches.as_deref_mut() {
                v.push(d.clone());
            }
            pluto_obs::exec::record_dispatch(d);
        }
        true
    }
}

/// Executes a compiled kernel sequentially (parallel markers ignored) —
/// the compiled counterpart of [`run_sequential`](crate::run_sequential),
/// bit-exact with it by construction.
pub fn run_compiled_kernel(ck: &CompiledKernel, arrays: &mut Arrays) -> ExecStats {
    let _span = pluto_obs::span("execute/compiled");
    check_shape(ck, arrays);
    run_whole(ck, &mut Direct(arrays), &mut Inline)
}

/// Compiles and runs sequentially in one call.
pub fn run_compiled(prog: &Program, ast: &Ast, params: &[i64], arrays: &mut Arrays) -> ExecStats {
    let ck = compile_kernel(prog, ast, params, arrays);
    run_compiled_kernel(&ck, arrays)
}

/// Executes a compiled kernel with the persistent thread team.
pub fn run_compiled_parallel(
    ck: &CompiledKernel,
    arrays: &mut Arrays,
    cfg: ParallelConfig,
) -> ExecStats {
    run_compiled_parallel_impl(ck, arrays, cfg, None)
}

/// Like [`run_compiled_parallel`], additionally measuring every dispatch
/// and returning the aggregated [`ExecProfile`](pluto_obs::ExecProfile).
pub fn run_compiled_parallel_profiled(
    ck: &CompiledKernel,
    arrays: &mut Arrays,
    cfg: ParallelConfig,
) -> (ExecStats, pluto_obs::ExecProfile) {
    let mut dispatches = Vec::new();
    let stats = run_compiled_parallel_impl(ck, arrays, cfg, Some(&mut dispatches));
    let profile = pluto_obs::ExecProfile::build(&dispatches, Vec::new());
    (stats, profile)
}

fn run_compiled_parallel_impl(
    ck: &CompiledKernel,
    arrays: &mut Arrays,
    cfg: ParallelConfig,
    dispatches: Option<&mut Vec<pluto_obs::exec::Dispatch>>,
) -> ExecStats {
    let _span = pluto_obs::span("execute/parallel");
    check_shape(ck, arrays);
    if cfg.threads > 1 {
        pool::global().ensure_width(cfg.threads - 1);
    }
    let ptrs: Vec<SendPtr> = arrays.raw().into_iter().map(SendPtr).collect();
    let mut st = State::new(ck);
    let mut team = Team {
        cfg,
        measure: dispatches.is_some() || pluto_obs::exec_metrics_enabled(),
        dispatches,
        flushed: 0,
    };
    let mut mem = RawMem { ptrs: &ptrs };
    run_region(ck, 0, ck.code.len(), &mut st, &mut mem, &mut team);
    // Teams flushed their instances per dispatch; count only what the
    // coordinator executed outside any team (no double counting).
    pluto_obs::counters::MACHINE_INSTANCES.add(st.stats.instances - team.flushed);
    st.stats
}

/// Runs the AST with the persistent thread team: compiles to bytecode,
/// then every loop marked parallel distributes its (possibly collapsed)
/// work list in dynamic chunks over the process-wide worker pool, with
/// an implicit barrier at loop exit — the paper's OpenMP `parallel for`
/// semantics without a per-dispatch spawn cost.
///
/// When a [`pluto_obs`] profile session or trace is active, each
/// dispatch additionally records per-member chunk times, load-imbalance
/// inputs, and per-thread begin/end events on stable worker-slot tids;
/// with both off the engine takes no clock reads and allocates no trace
/// buffers.
pub fn run_parallel(
    prog: &Program,
    ast: &Ast,
    params: &[i64],
    arrays: &mut Arrays,
    cfg: ParallelConfig,
) -> ExecStats {
    let ck = compile_kernel(prog, ast, params, arrays);
    run_compiled_parallel_impl(&ck, arrays, cfg, None)
}

/// Like [`run_parallel`], additionally measuring every dispatch and
/// returning the aggregated [`ExecProfile`](pluto_obs::ExecProfile)
/// (load imbalance, barrier wait, per-member instances) without
/// requiring a global [`Session`](pluto_obs::Session). The profile's
/// `arrays` section is empty — cache attribution comes from
/// [`run_with_cache_attributed`](crate::run_with_cache_attributed),
/// which simulates a sequential interleaving.
pub fn run_parallel_profiled(
    prog: &Program,
    ast: &Ast,
    params: &[i64],
    arrays: &mut Arrays,
    cfg: ParallelConfig,
) -> (ExecStats, pluto_obs::ExecProfile) {
    let ck = compile_kernel(prog, ast, params, arrays);
    run_compiled_parallel_profiled(&ck, arrays, cfg)
}

fn check_shape(ck: &CompiledKernel, arrays: &Arrays) {
    assert_eq!(
        ck.extents.len(),
        arrays.num_arrays(),
        "array count mismatch"
    );
    for (a, ext) in ck.extents.iter().enumerate() {
        assert_eq!(
            ext.as_slice(),
            arrays.extents(a),
            "array {a}: extents differ from the compiled shape"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{forced_parallel, scale_program};

    #[test]
    fn parallel_matches_sequential() {
        let prog = scale_program();
        // The i-loop trivially is parallel.
        let ast = forced_parallel(&prog);
        let mut seq = Arrays::new(vec![vec![100], vec![100]]);
        seq.seed_with(|a, o| (a * 7 + o) as f64);
        let mut par = seq.clone();
        crate::run_sequential(&prog, &ast, &[100], &mut seq);
        let cfg = ParallelConfig {
            threads: 4,
            collapse: 1,
        };
        let stats = run_parallel(&prog, &ast, &[100], &mut par, cfg);
        assert!(seq.bitwise_eq(&par));
        assert_eq!(stats.parallel_regions, 1);
        assert_eq!(stats.instances, 100);
    }
}
