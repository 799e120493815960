//! The central counter registry: one named [`Counter`] descriptor per
//! measured effect, declared here rather than in the crates that bump
//! them.
//!
//! Centralising the declarations keeps registration trivial (no
//! life-before-main tricks, no lock on the hot path): [`all`] is a plain
//! slice of statics, so an [`ObsSession`](crate::ObsSession) can size and
//! snapshot the complete registry by construction. Each descriptor is a
//! `(name, index)` pair; the *cells* live in the session installed on the
//! recording thread, so concurrent compiles accumulate into disjoint
//! storage. Hot crates depend on `pluto-obs` and bump e.g. [`ILP_PIVOTS`]
//! directly; the full glossary — what each counter means and which code
//! path feeds it — lives in PERFORMANCE.md.
//!
//! Counter names are namespaced `crate.effect` (`ilp.pivots`,
//! `poly.fm_eliminations`) and are part of the stable
//! `pluto-profile/1` schema: renaming or removing one is a
//! schema-breaking change.

use std::sync::atomic::Ordering;

/// A named monotonic counter with relaxed-atomic updates into the
/// current thread's [`ObsSession`](crate::ObsSession), inert while none
/// is installed.
///
/// The descriptor itself is stateless — it names a slot in every
/// session's cell block. All mutating methods first check the
/// process-wide installed-session count (one relaxed atomic load) and
/// return without touching any cell when no session exists, so
/// instrumentation can stay in hot loops permanently.
///
/// ```
/// // Without a session, bumps are discarded:
/// pluto_obs::counters::ILP_PIVOTS.add(10);
/// assert_eq!(pluto_obs::counters::ILP_PIVOTS.get(), 0);
/// ```
pub struct Counter {
    name: &'static str,
    index: usize,
}

impl Counter {
    /// The registry name, e.g. `"ilp.pivots"`.
    #[inline]
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// This counter's slot in every session's cell block (also its
    /// position in [`all`] and in serialized profiles).
    #[inline]
    pub(crate) fn index(&self) -> usize {
        self.index
    }

    /// Adds `n` to the current session's cell if one records profile
    /// data on this thread; no-op (and no cell touched) otherwise.
    #[inline]
    pub fn add(&self, n: u64) {
        crate::with_profiling(|s| {
            s.counters[self.index].fetch_add(n, Ordering::Relaxed);
        });
    }

    /// Adds 1; see [`add`](Counter::add).
    #[inline]
    pub fn bump(&self) {
        self.add(1);
    }

    /// Raises the counter to `n` if `n` is larger (high-water mark, e.g.
    /// peak Fourier–Motzkin row count); inert while no session records.
    #[inline]
    pub fn record_max(&self, n: u64) {
        crate::with_profiling(|s| {
            s.counters[self.index].fetch_max(n, Ordering::Relaxed);
        });
    }

    /// Current value in the session installed on this thread; 0 when
    /// none is (reads are not profile-gated — a session that records no
    /// profile still reads its zeros).
    #[inline]
    pub fn get(&self) -> u64 {
        crate::current_state().map_or(0, |s| s.counters[self.index].load(Ordering::Relaxed))
    }
}

macro_rules! registry {
    ($($(#[$doc:meta])* $ident:ident => $name:literal;)*) => {
        // A hidden enum gives each counter a stable, dense index at
        // compile time; `__Count` sizes every session's cell block.
        #[allow(non_camel_case_types, clippy::upper_case_acronyms)]
        #[repr(usize)]
        enum Idx { $($ident,)* __Count }

        $( $(#[$doc])* pub static $ident: Counter =
            Counter { name: $name, index: Idx::$ident as usize }; )*

        /// Number of registered counters — the length of each session's
        /// counter cell block.
        pub(crate) const NUM: usize = Idx::__Count as usize;

        /// Every registered counter, in declaration order — the order
        /// counters appear in profiles and `BENCH_pipeline.json`.
        pub fn all() -> &'static [&'static Counter] {
            static ALL: &[&Counter] = &[ $( &$ident, )* ];
            ALL
        }
    };
}

registry! {
    /// Dual-simplex tableaux solved to completion or infeasibility
    /// (`ilp::Tableau::solve`) — every legality check, bounding-function
    /// lexmin, and analyzer witness search lands here.
    ILP_SOLVES => "ilp.solves";
    /// Dual-simplex pivot steps across all solves: the innermost unit of
    /// ILP work (DESIGN.md §5).
    ILP_PIVOTS => "ilp.pivots";
    /// Gomory fractional cuts added to enforce integrality.
    ILP_CUTS => "ilp.gomory_cuts";
    /// Solves that ended infeasible (empty polyhedra, refuted witnesses).
    ILP_INFEASIBLE => "ilp.infeasible";
    /// Fourier–Motzkin variable eliminations
    /// (`poly::ConstraintSet::eliminate_var`), the engine under
    /// `project_out` and Farkas elimination (DESIGN.md §3).
    FM_ELIMINATIONS => "poly.fm_eliminations";
    /// Peak inequality-row count observed mid-elimination — the FM
    /// intermediate blowup the paper's Sec. 7 practicality claim hinges
    /// on keeping small.
    FM_ROWS_PEAK => "poly.fm_rows_peak";
    /// Calls to `ConstraintSet::remove_redundant` (pairwise implied-row
    /// elimination).
    REDUNDANCY_CALLS => "poly.redundancy_calls";
    /// Polyhedron emptiness checks (`ConstraintSet::is_empty`), each one
    /// an ILP feasibility probe.
    EMPTINESS_CHECKS => "poly.emptiness_checks";
    /// Candidate dependence polyhedra constructed during dependence
    /// analysis, before the emptiness filter (`ir::deps`).
    DEP_CANDIDATES => "ir.dep_candidates";
    /// Dependence polyhedra kept (non-empty): the edges the search must
    /// respect.
    DEPS_BUILT => "ir.deps_built";
    /// Candidates discarded as empty at some dependence level.
    DEPS_EMPTY => "ir.deps_empty";
    /// Farkas-eliminated legality systems built (one per dependence,
    /// cached across rows — `core::search`).
    LEGALITY_SYSTEMS => "core.legality_systems";
    /// Farkas-eliminated bounding systems built (cost-bounding `u·n + w`,
    /// paper Sec. 4).
    BOUNDING_SYSTEMS => "core.bounding_systems";
    /// Per-row lexmin ILP calls made by the hyperplane search, including
    /// retries after cuts and orthogonality restarts.
    SEARCH_ROW_SOLVES => "core.search_row_solves";
    /// SCC cuts taken when no common legal hyperplane exists
    /// (paper Sec. 5.2.2 fusion/cutting).
    SCC_CUTS => "core.scc_cuts";
    /// Loop nests emitted by codegen (`codegen::generate`).
    CODEGEN_LOOPS => "codegen.loops";
    /// Statement instances executed by the machine substrate
    /// (reference evaluator, bytecode engine, cycle model).
    MACHINE_INSTANCES => "machine.instances";
    /// Compiled accesses symbolically re-expanded and compared against
    /// their IR access matrices by the bytecode verifier
    /// (`analyze/bytecode`).
    ANALYZE_BYTECODE_ACCESSES => "analyze.bytecode_accesses";
    /// Postfix body tapes decompiled back to expression trees by the
    /// bytecode verifier.
    ANALYZE_BYTECODE_TAPES => "analyze.bytecode_tapes";
    /// Parallel dispatch sites whose chunk partition and cross-chunk
    /// write footprints the bytecode verifier proved sound.
    ANALYZE_BYTECODE_DISPATCHES => "analyze.bytecode_dispatches";
    /// Emptiness checks answered from the canonicalized solver cache
    /// without running the ILP (`poly::cache`, DESIGN.md §11).
    ILP_CACHE_HITS => "ilp.cache_hits";
    /// Emptiness checks that missed the solver cache and paid for a real
    /// feasibility probe (the result is then inserted).
    ILP_CACHE_MISSES => "ilp.cache_misses";
    /// Per-row lexmin solves answered from a warm-started simplex
    /// tableau (band-base basis reuse, `core::search`) instead of a
    /// from-scratch solve.
    ILP_WARM_STARTS => "ilp.warm_starts";
    /// Dependence candidates rejected by the cheap interval/uniform-
    /// distance pre-tests in `ir::deps` before any polyhedron was built.
    IR_PRUNED_CANDIDATES => "ir.pruned_candidates";
    /// Solver-cache insertions discarded because the cache was at its
    /// capacity bound (`poly::cache::MAX_ENTRIES`) — nonzero values mean
    /// the workload's working set no longer fits and hit rates degrade
    /// (visible in `pluto-stats/1` under service aggregation).
    ILP_CACHE_EVICTIONS => "ilp.cache_evictions";
    /// Duplicate and dominated rows of a band's assembled dependence
    /// system removed before it reached the tableau (`core::search`):
    /// rows assembled (`RowSolved.ilp_rows`) minus this is what was
    /// solved.
    ILP_ROWS_DROPPED => "ilp.rows_dropped";
    /// Farkas systems taken from the search's memo instead of being
    /// eliminated again (same form, statements and dependence
    /// polyhedron); `core.legality_systems`/`core.bounding_systems`
    /// count only eliminations actually run.
    FARKAS_MEMO_HITS => "core.farkas_memo_hits";
}
