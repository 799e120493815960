//! The Pluto transformation search (paper Sec. 3): iteratively find
//! statement-wise affine hyperplanes by lexmin ILP, force linear
//! independence, detect permutable bands, and cut the DDG with scalar
//! dimensions when stuck (fusion structure).

use crate::farkas::{bounding_form, carried_at, delta_form, eliminate, satisfies_strictly, VarMap};
use crate::types::{Band, Parallelism, RowInfo, StmtScattering, Transformation};
use pluto_ilp::IlpProblem;
use pluto_ir::{DepKind, Dependence, Program};
use pluto_linalg::{Int, IntMatrix};
use pluto_obs::counters;
use pluto_obs::decision::{self, CutReason, DecisionEvent, RejectReason};
use pluto_obs::hist;
use pluto_poly::cache::{key_of, Key};
use pluto_poly::ConstraintSet;
use std::collections::HashMap;
use std::fmt;

/// Fusion policy for DDG cutting (mirrors the Pluto tool's options).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FusionPolicy {
    /// Cut between strongly connected components only when the ILP has no
    /// solution (the paper's default behaviour, maximizing fusion).
    #[default]
    Smart,
    /// Separate all SCCs with a scalar dimension up front (no fusion
    /// across dependent loop nests — the "existing techniques" baseline of
    /// the MVT experiment).
    NoFuse,
}

/// Options controlling the search.
#[derive(Debug, Clone)]
pub struct PlutoOptions {
    /// Consider read-after-read dependences in the bounding objective
    /// (Sec. 4.1). On by default, as in the paper.
    pub use_input_deps: bool,
    /// Fusion policy.
    pub fuse: FusionPolicy,
    /// Hard cap on total scattering rows (safety valve).
    pub max_rows: usize,
    /// The search's own shortcuts (DESIGN.md §11, §11f): warm-start the
    /// per-row lexmin sequence from a once-solved band base, drop
    /// duplicate and dominated rows of the band's dependence system
    /// before it reaches the tableau, and memoize Farkas eliminations
    /// for the lifetime of the search. Output-invariant — the integer
    /// lexmin is unique — so this is a pure speed knob;
    /// `--no-solver-cache` turns it off for differentials.
    pub solver_shortcuts: bool,
}

impl Default for PlutoOptions {
    fn default() -> PlutoOptions {
        PlutoOptions {
            use_input_deps: true,
            fuse: FusionPolicy::Smart,
            max_rows: 32,
            solver_shortcuts: true,
        }
    }
}

/// Failure modes of the search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlutoError {
    /// No legal hyperplane exists under the non-negative-coefficient
    /// restriction and the DDG cannot be cut further.
    NoSolution {
        /// Row index at which the search stalled.
        at_row: usize,
    },
    /// The row cap was exceeded.
    TooManyRows,
}

impl fmt::Display for PlutoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlutoError::NoSolution { at_row } => {
                write!(f, "no legal affine transformation found at row {at_row}")
            }
            PlutoError::TooManyRows => write!(f, "scattering row limit exceeded"),
        }
    }
}

impl std::error::Error for PlutoError {}

/// Result of the transformation search (pre-tiling).
#[derive(Debug, Clone)]
pub struct SearchResult {
    /// The transformation: one hyperplane/scalar row per level.
    pub transform: Transformation,
    /// For each dependence (aligned with the input slice), the first row
    /// that strictly satisfies it.
    pub satisfied_at: Vec<Option<usize>>,
}

/// Runs the Pluto algorithm on a program and its dependences.
///
/// # Errors
/// Returns [`PlutoError`] if the search stalls (see variants).
pub fn find_transformation(
    prog: &Program,
    deps: &[Dependence],
    opts: &PlutoOptions,
) -> Result<SearchResult, PlutoError> {
    Search::new(prog, deps, opts).run()
}

struct Search<'a> {
    prog: &'a Program,
    deps: &'a [Dependence],
    opts: &'a PlutoOptions,
    vm: VarMap,
    /// Per-statement rows over `[iters…, params…, 1]`.
    rows: Vec<Vec<Vec<Int>>>,
    row_infos: Vec<RowInfo>,
    bands: Vec<Band>,
    band_start: usize,
    /// Independent hyperplane iterate-coefficient rows per statement.
    h: Vec<IntMatrix>,
    satisfied_at: Vec<Option<usize>>,
    /// Every Farkas system eliminated so far, each with the decision
    /// event of its elimination (replayed when the system is reused).
    systems: Vec<(ConstraintSet, DecisionEvent)>,
    /// Per form, per dependence: index into `systems` once built.
    system_of: [Vec<Option<usize>>; 3],
    /// `systems` index by what determines an elimination's result. Lives
    /// and dies with this search; only ever looked up, never iterated,
    /// so its hash order cannot reach the solver or a document.
    farkas_memo: HashMap<(FarkasForm, usize, usize, Key), usize>,
    /// Warm-start basis for the current band's dependence system, with
    /// its assembled inequality-row count (for ledger telemetry). The live
    /// dependence set — and hence the legality + bounding rows — is
    /// constant within a band (`live_in_band` only compares against
    /// `band_start`), so the base is solved once per band and each row's
    /// statement-structure constraints extend it. Cleared whenever the
    /// band closes.
    band_base: Option<(pluto_ilp::WarmBase, usize)>,
    /// Telemetry from the last assembled lexmin ILP (decision log only).
    last_ilp_rows: usize,
    last_ilp_cols: usize,
    last_orth: usize,
}

impl<'a> Search<'a> {
    fn new(prog: &'a Program, deps: &'a [Dependence], opts: &'a PlutoOptions) -> Search<'a> {
        let vm = VarMap::new(prog);
        let n = prog.stmts.len();
        Search {
            prog,
            deps,
            opts,
            vm,
            rows: vec![Vec::new(); n],
            row_infos: Vec::new(),
            bands: Vec::new(),
            band_start: 0,
            h: prog
                .stmts
                .iter()
                .map(|s| IntMatrix::empty(s.num_iters()))
                .collect(),
            satisfied_at: vec![None; deps.len()],
            systems: Vec::new(),
            system_of: std::array::from_fn(|_| vec![None; deps.len()]),
            farkas_memo: HashMap::new(),
            band_base: None,
            last_ilp_rows: 0,
            last_ilp_cols: 0,
            last_orth: 0,
        }
    }

    fn run(mut self) -> Result<SearchResult, PlutoError> {
        if self.opts.fuse == FusionPolicy::NoFuse {
            // Separate all SCCs up front with a scalar dimension.
            self.cut_sccs(false);
        }
        loop {
            let dims_done = self.all_dims_found();
            let deps_done = self.all_legality_satisfied();
            if dims_done && deps_done {
                break;
            }
            if self.row_infos.len() >= self.opts.max_rows {
                return Err(PlutoError::TooManyRows);
            }
            if dims_done {
                // Only loop-independent orderings remain: cut.
                if self.cut_sccs(true) {
                    continue;
                }
                return Err(PlutoError::NoSolution {
                    at_row: self.row_infos.len(),
                });
            }
            match self.solve_for_row() {
                Some(sol) => self.commit_row(&sol),
                None => {
                    // Try cutting the DDG between SCCs first.
                    if self.opts.fuse == FusionPolicy::Smart && self.cut_sccs(true) {
                        continue;
                    }
                    // Close the current band and retry with satisfied
                    // dependences dropped from the legality set.
                    if self.band_start < self.row_infos.len() {
                        self.close_band();
                        continue;
                    }
                    if self.cut_sccs(true) {
                        continue;
                    }
                    if deps_done {
                        // Every legality dependence is strictly satisfied;
                        // the only shortfall is statements with fewer
                        // independent rows than dimensions (the remaining
                        // hyperplanes may need coefficients outside the
                        // non-negative search space). A rank-deficient
                        // scattering is fine: codegen scans the undetermined
                        // dims as innermost loops, and with no live
                        // dependence any such order is legal.
                        break;
                    }
                    return Err(PlutoError::NoSolution {
                        at_row: self.row_infos.len(),
                    });
                }
            }
        }
        self.close_band();
        let stmt_par = self.compute_parallelism();
        let nstmts = self.prog.stmts.len();
        for (r, info) in self.row_infos.iter_mut().enumerate() {
            if info.kind == crate::types::RowKind::Loop
                && (0..nstmts).all(|s| stmt_par[s][r] == Parallelism::Parallel)
            {
                info.par = Parallelism::Parallel;
            }
        }
        let transform = Transformation {
            stmts: self
                .rows
                .iter()
                .map(|rs| StmtScattering { rows: rs.clone() })
                .collect(),
            domains: self.prog.stmts.iter().map(|s| s.domain.clone()).collect(),
            dim_names: self.prog.stmts.iter().map(|s| s.iters.clone()).collect(),
            num_orig_dims: self.prog.stmts.iter().map(|s| s.num_iters()).collect(),
            rows: self.row_infos,
            stmt_par,
            bands: self.bands,
        };
        Ok(SearchResult {
            transform,
            satisfied_at: self.satisfied_at,
        })
    }

    fn all_dims_found(&self) -> bool {
        (0..self.prog.stmts.len()).all(|s| self.stmt_done(s))
    }

    fn stmt_done(&self, s: usize) -> bool {
        self.h[s].num_rows() == self.prog.stmts[s].num_iters()
    }

    fn all_legality_satisfied(&self) -> bool {
        self.deps
            .iter()
            .zip(&self.satisfied_at)
            .all(|(d, s)| !d.kind.constrains_legality() || s.is_some())
    }

    /// A dependence constrains the current band if it was not strictly
    /// satisfied before the band start.
    fn live_in_band(&self, di: usize) -> bool {
        match self.satisfied_at[di] {
            None => true,
            Some(r) => r >= self.band_start,
        }
    }

    /// The Farkas-eliminated system of dependence `di` under `form`, as an
    /// index into `self.systems`: built on first use, or — with shortcuts
    /// on — shared with an earlier dependence between the same statements
    /// over the same polyhedron, whose elimination it would repeat row
    /// for row. A shared system replays the stored decision event, so the
    /// log reads as if every elimination had run.
    fn farkas_system(&mut self, di: usize, form: FarkasForm) -> usize {
        if let Some(idx) = self.system_of[form as usize][di] {
            return idx;
        }
        let dep = &self.deps[di];
        let key = self
            .opts
            .solver_shortcuts
            .then(|| (form, dep.src, dep.dst, key_of(&dep.poly)));
        let idx = match key.as_ref().and_then(|k| self.farkas_memo.get(k)) {
            Some(&idx) => {
                counters::FARKAS_MEMO_HITS.bump();
                idx
            }
            None => {
                let (hist, built, symbolic) = match form {
                    FarkasForm::Legality => (
                        &hist::LEGALITY,
                        &counters::LEGALITY_SYSTEMS,
                        delta_form(dep, self.prog, &self.vm),
                    ),
                    FarkasForm::Bounding | FarkasForm::ReverseBounding => (
                        &hist::BOUNDING,
                        &counters::BOUNDING_SYSTEMS,
                        bounding_form(
                            dep,
                            self.prog,
                            &self.vm,
                            form == FarkasForm::ReverseBounding,
                        ),
                    ),
                };
                let _t = hist.timer();
                built.bump();
                self.systems
                    .push(eliminate(&dep.poly, &symbolic, self.vm.total()));
                let idx = self.systems.len() - 1;
                if let Some(k) = key {
                    self.farkas_memo.insert(k, idx);
                }
                idx
            }
        };
        if decision::enabled() {
            decision::record(self.systems[idx].1.clone());
        }
        self.system_of[form as usize][di] = Some(idx);
        idx
    }

    /// Assembles the dependence part of the row ILP: legality + bounding
    /// Farkas systems for every dependence live in the current band.
    /// Constant across the rows of one band, which is what makes the
    /// warm-start base sound to reuse. Returns the problem and the number
    /// of rows assembled; with shortcuts on the problem holds fewer, since
    /// uniform dependences repeat rows and a row implied by one with the
    /// same coefficients and a tighter constant cannot move the lexmin.
    fn build_dep_ilp(&mut self) -> (IlpProblem, usize) {
        let mut used = Vec::new();
        for di in 0..self.deps.len() {
            if !self.live_in_band(di) {
                continue;
            }
            let kind = self.deps[di].kind;
            if kind.constrains_legality() {
                used.push(self.farkas_system(di, FarkasForm::Legality));
            }
            if kind == DepKind::Input && !self.opts.use_input_deps {
                continue;
            }
            used.push(self.farkas_system(di, FarkasForm::Bounding));
            if kind == DepKind::Input {
                used.push(self.farkas_system(di, FarkasForm::ReverseBounding));
            }
        }
        let mut band = ConstraintSet::new(self.vm.total());
        for &idx in &used {
            let sys = &self.systems[idx].0;
            for e in sys.eqs() {
                band.add_ineq(e.clone());
                band.add_ineq(e.iter().map(|&v| -v).collect());
            }
            for i in sys.ineqs() {
                band.add_ineq(i.clone());
            }
        }
        let assembled = band.ineqs().len();
        if self.opts.solver_shortcuts {
            band.prune_dominated();
            counters::ILP_ROWS_DROPPED.add((assembled - band.ineqs().len()) as u64);
        }
        let mut ilp = IlpProblem::new(self.vm.total());
        for row in band.ineqs() {
            ilp.add_ineq(row.clone());
        }
        (ilp, assembled)
    }

    /// Per-statement structure constraints for the current row — the
    /// trivial-solution exclusion Σ c_i >= 1 (Sec. 4.2) and linear
    /// independence w.r.t. rows already found (Eq. 6) — as raw
    /// inequality rows, so they can extend either a cold ILP or a warm
    /// band base. Returns the rows and the orthogonality-row count (for
    /// the decision log).
    fn structure_rows(&self) -> (Vec<Vec<Int>>, usize) {
        let mut extras: Vec<Vec<Int>> = Vec::new();
        let mut orth = 0usize;
        for s in 0..self.prog.stmts.len() {
            let m = self.vm.num_iters(s);
            if self.stmt_done(s) {
                // A completed (lower-dimensional) statement is "sunk" into
                // the band (paper Sec. 7, LU): its coefficients stay free
                // (non-negative) so legality can pick any — possibly
                // linearly dependent — hyperplane for it, and lexmin keeps
                // them minimal.
                continue;
            }
            // Avoid the trivial zero solution: Σ c_i >= 1 (Sec. 4.2).
            let mut sum = vec![0; self.vm.total() + 1];
            for i in 0..m {
                sum[self.vm.c(s, i)] = 1;
            }
            sum[self.vm.total()] = -1;
            extras.push(sum);
            // Linear independence w.r.t. rows already found (Eq. 6).
            if self.h[s].num_rows() > 0 {
                let hperp = self.h[s].to_rat().orthogonal_complement().to_int_rows();
                let mut total = vec![0; self.vm.total() + 1];
                let mut any = false;
                for r in hperp.rows() {
                    if r.iter().all(|&v| v == 0) {
                        continue;
                    }
                    any = true;
                    let mut row = vec![0; self.vm.total() + 1];
                    for (i, &v) in r.iter().enumerate() {
                        row[self.vm.c(s, i)] = v;
                        total[self.vm.c(s, i)] += v;
                    }
                    extras.push(row); // h⊥_i · c >= 0
                    orth += 1;
                }
                if any {
                    total[self.vm.total()] = -1;
                    extras.push(total); // Σ h⊥_i · c >= 1
                    orth += 1;
                }
            }
        }
        (extras, orth)
    }

    fn solve_for_row(&mut self) -> Option<Vec<Int>> {
        counters::SEARCH_ROW_SOLVES.bump();
        let (extras, orth) = self.structure_rows();
        self.last_ilp_cols = self.vm.total();
        self.last_orth = orth;
        let sol = if self.opts.solver_shortcuts {
            // Solve the band's dependence system once; every row of the
            // band (this one included) extends that basis with its own
            // structure rows. Bit-identical to the cold path: the same
            // rows reach the solver and the integer lexmin is unique.
            let reused = self.band_base.is_some();
            if !reused {
                let (ilp, base_rows) = self.build_dep_ilp();
                let base = {
                    let _t = hist::SEARCH_ROW.timer();
                    ilp.solve_base()
                };
                match base {
                    Ok(b) => self.band_base = Some((b, base_rows)),
                    Err(_) => {
                        // Pivot/cut budget blown on the shared part:
                        // report the row unsolvable, as the cold path's
                        // `.ok()` would.
                        self.last_ilp_rows = base_rows + extras.len();
                        if decision::enabled() {
                            decision::record(DecisionEvent::RowSolveFailed {
                                row: self.row_infos.len(),
                            });
                        }
                        return None;
                    }
                }
            }
            let base_rows = self.band_base.as_ref().expect("band base just ensured").1;
            self.last_ilp_rows = base_rows + extras.len();
            if reused {
                counters::ILP_WARM_STARTS.bump();
            }
            let res = {
                let _t = hist::SEARCH_ROW_WARM.timer();
                self.band_base
                    .as_ref()
                    .expect("band base just ensured")
                    .0
                    .lexmin_with(&extras)
            };
            res.ok().flatten()
        } else {
            let (mut ilp, base_rows) = self.build_dep_ilp();
            for row in &extras {
                ilp.add_ineq(row.clone());
            }
            self.last_ilp_rows = base_rows + extras.len();
            let _t = hist::SEARCH_ROW.timer();
            ilp.try_lexmin().ok().flatten()
        };
        if sol.is_none() && decision::enabled() {
            decision::record(DecisionEvent::RowSolveFailed {
                row: self.row_infos.len(),
            });
        }
        sol
    }

    fn commit_row(&mut self, sol: &[Int]) {
        let r = self.row_infos.len();
        let np = self.prog.num_params();
        let rec = decision::enabled();
        let mut hyperplanes: Vec<Vec<i64>> = Vec::new();
        for s in 0..self.prog.stmts.len() {
            let (coeffs, c0) = self.vm.stmt_solution(s, sol);
            let mut row = coeffs.clone();
            row.extend(std::iter::repeat_n(0, np));
            row.push(c0);
            self.rows[s].push(row);
            let zero = coeffs.iter().all(|&v| v == 0);
            let independent = !zero && self.h[s].is_independent(&coeffs);
            if rec {
                let mut hp: Vec<i64> = coeffs.iter().map(|&v| v as i64).collect();
                hp.push(c0 as i64);
                hyperplanes.push(hp);
                if !independent {
                    decision::record(DecisionEvent::CandidateRejected {
                        row: r,
                        stmt: s,
                        reason: if zero {
                            RejectReason::Zero
                        } else {
                            RejectReason::Duplicate
                        },
                    });
                }
            }
            if independent {
                self.h[s].push_row(coeffs);
            }
        }
        self.row_infos.push(RowInfo::loop_row());
        let before = rec.then(|| self.satisfied_at.clone());
        self.mark_satisfied(r);
        if let Some(before) = before {
            let newly: Vec<usize> = (0..self.deps.len())
                .filter(|&di| before[di].is_none() && self.satisfied_at[di].is_some())
                .collect();
            let still: Vec<usize> = (0..self.deps.len())
                .filter(|&di| {
                    self.deps[di].kind.constrains_legality() && self.satisfied_at[di].is_none()
                })
                .collect();
            let objective: Vec<i64> = sol.iter().take(np + 1).map(|&v| v as i64).collect();
            decision::record(DecisionEvent::RowSolved {
                row: r,
                ilp_rows: self.last_ilp_rows,
                ilp_cols: self.last_ilp_cols,
                objective,
                hyperplanes,
                newly_satisfied: newly,
                still_carried: still,
                orth_constraints: self.last_orth,
            });
        }
    }

    fn mark_satisfied(&mut self, r: usize) {
        for di in 0..self.deps.len() {
            if self.satisfied_at[di].is_some() {
                continue;
            }
            let dep = &self.deps[di];
            if satisfies_strictly(
                dep,
                self.prog,
                &self.rows[dep.src][r],
                &self.rows[dep.dst][r],
            ) {
                self.satisfied_at[di] = Some(r);
            }
        }
    }

    /// Cuts the DDG between strongly connected components of the
    /// unsatisfied legality subgraph with a scalar dimension. Returns false
    /// if there is only one component (nothing to cut). With
    /// `require_progress`, also refuses a cut that would satisfy no
    /// dependence: such a cut changes nothing the row search can see, so
    /// repeating it would loop until the row limit.
    fn cut_sccs(&mut self, require_progress: bool) -> bool {
        let n = self.prog.stmts.len();
        if n <= 1 {
            return false;
        }
        let mut adj = vec![Vec::new(); n];
        for (di, d) in self.deps.iter().enumerate() {
            if !d.kind.constrains_legality() || self.satisfied_at[di].is_some() {
                continue;
            }
            adj[d.src].push(d.dst);
        }
        let comp = topo_scc(&adj);
        let num_comps = comp.iter().copied().max().map_or(0, |m| m + 1);
        if num_comps <= 1 {
            return false;
        }
        if require_progress
            && !self.deps.iter().zip(&self.satisfied_at).any(|(d, s)| {
                d.kind.constrains_legality() && s.is_none() && comp[d.src] < comp[d.dst]
            })
        {
            return false;
        }
        counters::SCC_CUTS.bump();
        // Close any open band: a scalar dimension separates bands.
        self.close_band();
        let r = self.row_infos.len();
        let np = self.prog.num_params();
        for (s, &c) in comp.iter().enumerate().take(n) {
            let m = self.prog.stmts[s].num_iters();
            let mut row = vec![0; m + np + 1];
            row[m + np] = c as Int;
            self.rows[s].push(row);
        }
        self.row_infos.push(RowInfo::scalar_row());
        // Inter-component dependences are now strictly satisfied.
        let mut newly = Vec::new();
        for (di, d) in self.deps.iter().enumerate() {
            if self.satisfied_at[di].is_none() && comp[d.src] < comp[d.dst] {
                self.satisfied_at[di] = Some(r);
                newly.push(di);
            }
        }
        if decision::enabled() {
            decision::record(DecisionEvent::SccCut {
                row: r,
                reason: if require_progress {
                    CutReason::NoProgress
                } else {
                    CutReason::FusionPolicy
                },
                components: num_comps,
                satisfied: newly,
            });
        }
        self.band_start = self.row_infos.len();
        true
    }

    fn close_band(&mut self) {
        let end = self.row_infos.len();
        if self.band_start < end {
            self.bands.push(Band {
                start: self.band_start,
                width: end - self.band_start,
            });
            if decision::enabled() {
                decision::record(DecisionEvent::BandClosed {
                    start: self.band_start,
                    width: end - self.band_start,
                });
            }
        }
        self.band_start = end;
        // The live dependence set changes with `band_start`, so the
        // warm-start base assembled for the old band is stale.
        self.band_base = None;
    }

    /// Exact per-statement, per-row parallelism: a loop row is parallel
    /// for a statement's *fission group* (statements sharing its scalar-row
    /// prefix — exactly those that share the loop in generated code) iff no
    /// live legality dependence within the group is carried at the row.
    /// Distributed nests thereby keep their own parallel loops even when a
    /// sibling group's reduction serializes the same global row (gemver).
    fn compute_parallelism(&self) -> Vec<Vec<Parallelism>> {
        let nrows = self.row_infos.len();
        let nstmts = self.prog.stmts.len();
        // Scalar-prefix group key of statement s above row r.
        let key = |s: usize, r: usize| -> Vec<Int> {
            (0..r)
                .filter(|&k| self.row_infos[k].kind == crate::types::RowKind::Scalar)
                .map(|k| {
                    let row = &self.rows[s][k];
                    row[row.len() - 1]
                })
                .collect()
        };
        let mut out = vec![vec![Parallelism::Sequential; nrows]; nstmts];
        for (r, info) in self.row_infos.iter().enumerate().take(nrows) {
            if info.kind != crate::types::RowKind::Loop {
                continue;
            }
            let mut group_seq: Vec<Vec<Int>> = Vec::new();
            for (di, dep) in self.deps.iter().enumerate() {
                if !dep.kind.constrains_legality() {
                    continue;
                }
                match self.satisfied_at[di] {
                    Some(s) if s < r => continue, // settled by an outer row
                    _ => {}
                }
                if carried_at(dep, self.prog, &self.rows[dep.src], &self.rows[dep.dst], r) {
                    // A live carried dep has both ends in one group (a
                    // scalar row above r would have satisfied it).
                    group_seq.push(key(dep.src, r));
                }
            }
            for (s, stmt_out) in out.iter_mut().enumerate() {
                if !group_seq.contains(&key(s, r)) {
                    stmt_out[r] = Parallelism::Parallel;
                }
            }
        }
        out
    }
}

/// Which affine form a Farkas system linearizes (paper Eqs. 3, 4 and the
/// lower bound input dependences add, Sec. 4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum FarkasForm {
    Legality,
    Bounding,
    ReverseBounding,
}

/// Condensation of a digraph: returns for each node the index of its SCC in
/// a topological order of the condensation (sources first).
fn topo_scc(adj: &[Vec<usize>]) -> Vec<usize> {
    let n = adj.len();
    // Kosaraju: order by finish time on G, then collect SCCs on Gᵀ.
    let mut order = Vec::with_capacity(n);
    let mut seen = vec![false; n];
    for start in 0..n {
        if seen[start] {
            continue;
        }
        // Iterative DFS with an explicit edge-progress stack.
        let mut stack = vec![(start, 0usize)];
        seen[start] = true;
        while let Some(&mut (v, ref mut ei)) = stack.last_mut() {
            if *ei < adj[v].len() {
                let w = adj[v][*ei];
                *ei += 1;
                if !seen[w] {
                    seen[w] = true;
                    stack.push((w, 0));
                }
            } else {
                order.push(v);
                stack.pop();
            }
        }
    }
    let mut radj = vec![Vec::new(); n];
    for (v, outs) in adj.iter().enumerate() {
        for &w in outs {
            radj[w].push(v);
        }
    }
    let mut comp = vec![usize::MAX; n];
    let mut c = 0;
    for &v in order.iter().rev() {
        if comp[v] != usize::MAX {
            continue;
        }
        let mut stack = vec![v];
        comp[v] = c;
        while let Some(x) = stack.pop() {
            for &w in &radj[x] {
                if comp[w] == usize::MAX {
                    comp[w] = c;
                    stack.push(w);
                }
            }
        }
        c += 1;
    }
    // Kosaraju's component discovery order (reverse finish order on G) is a
    // topological order of the condensation.
    comp
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scc_topological_numbering() {
        // 0 -> 1 -> 2, 2 -> 1 (1,2 form an SCC), 3 isolated... with edge 2->3.
        let adj = vec![vec![1], vec![2], vec![1, 3], vec![]];
        let comp = topo_scc(&adj);
        assert_eq!(comp[1], comp[2]);
        assert!(comp[0] < comp[1]);
        assert!(comp[1] < comp[3]);
    }

    #[test]
    fn scc_chain() {
        let adj = vec![vec![1], vec![2], vec![]];
        let comp = topo_scc(&adj);
        assert_eq!(comp, vec![0, 1, 2]);
    }
}

#[cfg(test)]
mod policy_tests {
    use super::*;
    use crate::types::RowKind;
    use pluto_ir::{analyze_dependences, Expr, ProgramBuilder, StatementSpec};

    /// Two independent copy loops (no cross dependences).
    fn two_nests() -> Program {
        let mut b = ProgramBuilder::new("p", &["N"]);
        b.add_context_ineq(vec![1, -2]);
        b.add_array("a", 1);
        b.add_array("b", 1);
        b.add_array("c", 1);
        b.add_array("d", 1);
        for (idx, (src, dst)) in [("a", "b"), ("c", "d")].iter().enumerate() {
            b.add_statement(StatementSpec {
                name: format!("S{}", idx + 1),
                iters: vec!["i".into()],
                domain_ineqs: vec![vec![1, 0, 0], vec![-1, 1, -1]],
                beta: vec![idx as i128, 0],
                write: (dst.to_string(), vec![vec![1, 0, 0]]),
                reads: vec![(src.to_string(), vec![vec![1, 0, 0]])],
                body: Expr::Read(0),
            });
        }
        b.build()
    }

    #[test]
    fn nofuse_cuts_up_front() {
        let prog = two_nests();
        let deps = analyze_dependences(&prog, true);
        let opts = PlutoOptions {
            fuse: FusionPolicy::NoFuse,
            ..PlutoOptions::default()
        };
        // With no inter-statement dependences there is a single SCC per
        // statement; NoFuse inserts the scalar dimension immediately.
        let res = find_transformation(&prog, &deps, &opts).unwrap();
        assert_eq!(res.transform.rows[0].kind, RowKind::Scalar);
    }

    #[test]
    fn smart_fuse_keeps_independent_nests_fused() {
        let prog = two_nests();
        let deps = analyze_dependences(&prog, true);
        let res = find_transformation(&prog, &deps, &PlutoOptions::default()).unwrap();
        // No dependences force a cut, so the loops fuse into one nest
        // (plus the textual-order scalar row if any zero-distance pairs
        // exist — none here across different arrays).
        assert_eq!(res.transform.rows[0].kind, RowKind::Loop);
    }

    #[test]
    fn row_cap_errors() {
        let prog = two_nests();
        let deps = analyze_dependences(&prog, true);
        let opts = PlutoOptions {
            max_rows: 0,
            ..PlutoOptions::default()
        };
        match find_transformation(&prog, &deps, &opts) {
            Err(PlutoError::TooManyRows) => {}
            other => panic!("expected TooManyRows, got {other:?}"),
        }
    }

    #[test]
    fn error_display() {
        let e = PlutoError::NoSolution { at_row: 3 };
        assert!(e.to_string().contains("row 3"));
        assert!(PlutoError::TooManyRows.to_string().contains("limit"));
    }

    /// The warm-started per-row sequence must find the same
    /// transformation as from-scratch solves: same rows, same
    /// satisfaction ledger.
    #[test]
    fn warm_start_matches_cold_search() {
        let prog = two_nests();
        let deps = analyze_dependences(&prog, true);
        let warm = find_transformation(&prog, &deps, &PlutoOptions::default()).unwrap();
        let cold = find_transformation(
            &prog,
            &deps,
            &PlutoOptions {
                solver_shortcuts: false,
                ..PlutoOptions::default()
            },
        )
        .unwrap();
        assert_eq!(warm.satisfied_at, cold.satisfied_at);
        for (a, b) in warm.transform.stmts.iter().zip(&cold.transform.stmts) {
            assert_eq!(a.rows, b.rows);
        }
        for (a, b) in warm.transform.rows.iter().zip(&cold.transform.rows) {
            assert_eq!((a.kind, a.par), (b.kind, b.par));
        }
    }

    /// `a[i] = a[i-1] + a[i-1]`: the two reads give every dependence a
    /// twin over the same polyhedron, so the memo must hit, rows must
    /// repeat — and the decision log must read as if neither happened.
    #[test]
    fn memo_hits_replay_their_decision_event() {
        let mut b = ProgramBuilder::new("scan2", &["N"]);
        b.add_context_ineq(vec![1, -3]);
        b.add_array("a", 1);
        b.add_statement(StatementSpec {
            name: "S1".into(),
            iters: vec!["i".into()],
            domain_ineqs: vec![vec![1, 0, -1], vec![-1, 1, -1]],
            beta: vec![0, 0],
            write: ("a".into(), vec![vec![1, 0, 0]]),
            reads: vec![
                ("a".into(), vec![vec![1, 0, -1]]),
                ("a".into(), vec![vec![1, 0, -1]]),
            ],
            body: Expr::Read(0),
        });
        let prog = b.build();
        let deps = analyze_dependences(&prog, true);
        let run = |solver_shortcuts: bool| {
            let obs = pluto_obs::ObsSession::builder()
                .profile()
                .decisions()
                .build();
            let _guard = obs.install();
            let opts = PlutoOptions {
                solver_shortcuts,
                ..PlutoOptions::default()
            };
            let res = find_transformation(&prog, &deps, &opts).unwrap();
            let hits = counters::FARKAS_MEMO_HITS.get();
            let dropped = counters::ILP_ROWS_DROPPED.get();
            let built = counters::LEGALITY_SYSTEMS.get() + counters::BOUNDING_SYSTEMS.get();
            (
                res.transform.stmts[0].rows.clone(),
                obs.take_decisions().events,
                hits,
                dropped,
                built,
            )
        };
        let (rows_on, events_on, hits, dropped, built_on) = run(true);
        let (rows_off, events_off, no_hits, none_dropped, built_off) = run(false);
        assert!(
            hits > 0 && dropped > 0,
            "{hits} memo hits, {dropped} rows dropped"
        );
        assert_eq!((no_hits, none_dropped), (0, 0));
        assert_eq!(built_on + hits, built_off);
        assert_eq!(rows_on, rows_off);
        assert_eq!(events_on, events_off);
    }

    #[test]
    fn parallel_rows_marked_for_independent_nests() {
        let prog = two_nests();
        let deps = analyze_dependences(&prog, true);
        let res = find_transformation(&prog, &deps, &PlutoOptions::default()).unwrap();
        // Copy loops carry nothing: the loop row is parallel.
        let loop_row = (0..res.transform.num_rows())
            .find(|&r| res.transform.rows[r].kind == RowKind::Loop)
            .unwrap();
        assert_eq!(res.transform.rows[loop_row].par, Parallelism::Parallel);
    }
}
