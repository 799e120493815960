//! Optimizer decision telemetry: a structured, bounded event log of the
//! hyperplane search.
//!
//! Where [`span`](crate::span)/[`counters`](crate::counters) say how
//! *long* the optimizer ran and how *often* it solved, this module says
//! *why* it chose what it chose: one event per committed scattering row
//! (the assembled Farkas/ILP system size, the Eq. 6 lexmin objective
//! `(u, w)`, the hyperplane found per statement, which dependences the
//! row newly satisfies and which are still carried, how many H⊥
//! orthogonality rows were in force), plus events for rejected
//! zero/duplicate candidates, SCC cuts with their reason, closed bands,
//! tiling row insertion, wavefront skewing, the vectorization reorder,
//! and Feautrier fallback rows.
//!
//! # Recording model
//!
//! Events land in the [`ObsSession`](crate::ObsSession) installed on the
//! recording thread, provided its decision recorder is on
//! ([`ObsSessionBuilder::decisions`](crate::ObsSessionBuilder::decisions));
//! with no session installed anywhere [`enabled`] is one relaxed atomic
//! load — the entire disabled-path cost. Each session's collector is
//! bounded ([`LOG_CAPACITY`]): excess events are counted as dropped
//! rather than reallocating without bound. Because the log is per
//! session, two compiles recording concurrently on different threads
//! can never interleave their event streams; drain a session's log with
//! [`ObsSession::take_decisions`](crate::ObsSession::take_decisions).
//!
//! The event stream is *replayable*: [`DecisionLog::ledger`] folds the
//! events in order — applying the row-index shifts of
//! [`RowsInserted`](DecisionEvent::RowsInserted) (tiling) and
//! [`RowMoved`](DecisionEvent::RowMoved) (vectorization reorder) — to
//! reconstruct, per dependence, the first row of the *final*
//! transformation that strictly satisfies it. `crates/analyze` checks
//! that ledger against its independently re-derived carried dependences
//! (diagnostic `PL007-ledger-divergence`).
//!
//! ```
//! use pluto_obs::decision::{self, DecisionEvent};
//! use pluto_obs::ObsSession;
//! let session = ObsSession::builder().decisions().build();
//! {
//!     let _guard = session.install();
//!     decision::record(DecisionEvent::RowSolved {
//!         row: 0,
//!         ilp_rows: 12,
//!         ilp_cols: 5,
//!         objective: vec![0, 1],
//!         hyperplanes: vec![vec![1, 0, 0]],
//!         newly_satisfied: vec![0],
//!         still_carried: vec![1],
//!         orth_constraints: 0,
//!     });
//! }
//! let log = session.take_decisions();
//! assert_eq!(log.events.len(), 1);
//! assert_eq!(log.ledger(2), vec![Some(0), None]);
//! ```

use crate::json::{arr, num, nums, obj, string, Json};

/// Hard bound on each session's retained event count. The search emits
/// a handful of events per scattering row, so even pathological programs
/// stay far below this; overflow increments [`DecisionLog::dropped`]
/// instead of growing without bound.
pub const LOG_CAPACITY: usize = 1 << 14;

/// Whether the session installed on this thread records decisions (one
/// relaxed atomic load while no session is installed anywhere — the
/// entire disabled-path cost, as with [`enabled`](crate::enabled)).
#[inline]
pub fn enabled() -> bool {
    crate::current_state().is_some_and(|s| s.decisions)
}

/// Appends one event to the current session's log; a no-op when no
/// decision-recording session is installed on this thread, a drop count
/// when the log is full. Emitters gate the (allocating) event
/// construction on [`enabled`] themselves, so the disabled path never
/// reaches this function.
pub fn record(ev: DecisionEvent) {
    let Some(state) = crate::current_state() else {
        return;
    };
    if !state.decisions {
        return;
    }
    let mut log = state.decision_log.lock().expect("decision log poisoned");
    if log.0.len() >= LOG_CAPACITY {
        log.1 += 1;
    } else {
        log.0.push(ev);
    }
}

/// Why a candidate hyperplane was not added to a statement's
/// independence basis H.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// All iterator coefficients were zero (a "sunk" completed statement
    /// where lexmin picked the trivial row).
    Zero,
    /// The row is linearly dependent on the statement's existing rows.
    Duplicate,
}

impl RejectReason {
    /// Stable lower-snake name used in `pluto-explain/1`.
    pub fn as_str(&self) -> &'static str {
        match self {
            RejectReason::Zero => "zero",
            RejectReason::Duplicate => "duplicate",
        }
    }
}

/// Why the DDG was cut with a scalar dimension.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CutReason {
    /// The row search found no hyperplane (or only loop-independent
    /// orderings remained): cutting is the only way to make progress.
    NoProgress,
    /// The `--nofuse` policy separates all SCCs up front.
    FusionPolicy,
}

impl CutReason {
    /// Stable lower-snake name used in `pluto-explain/1`.
    pub fn as_str(&self) -> &'static str {
        match self {
            CutReason::NoProgress => "no_progress",
            CutReason::FusionPolicy => "fusion_policy",
        }
    }
}

/// One optimizer decision. Row indices are *as of the moment of the
/// event*; later [`RowsInserted`](DecisionEvent::RowsInserted) /
/// [`RowMoved`](DecisionEvent::RowMoved) events shift them
/// ([`DecisionLog::ledger`] replays the shifts).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecisionEvent {
    /// A Farkas system was built and its multipliers eliminated
    /// (Fourier–Motzkin), yielding a constraint system over the
    /// coefficient unknowns.
    FarkasEliminated {
        /// Farkas multipliers eliminated (one per dependence-polyhedron
        /// constraint plus λ₀).
        multipliers: usize,
        /// Identity rows before elimination.
        rows_in: usize,
        /// Equality constraints in the eliminated system.
        eqs_out: usize,
        /// Inequality constraints in the eliminated system.
        ineqs_out: usize,
    },
    /// The lexmin ILP found a legal hyperplane row.
    RowSolved {
        /// Global row index the solution was committed at.
        row: usize,
        /// Inequality rows of the assembled ILP (all cached Farkas
        /// systems plus Σc ≥ 1 and H⊥ rows).
        ilp_rows: usize,
        /// Unknowns of the assembled ILP (`u…, w, per-statement c…, c0`).
        ilp_cols: usize,
        /// Leading objective values: the bounding-function coefficients
        /// `u₁…u_p` then `w` of Eq. 6, as minimized.
        objective: Vec<i64>,
        /// Per-statement hyperplane `[c₁…c_m, c₀]` (iterator
        /// coefficients then the constant).
        hyperplanes: Vec<Vec<i64>>,
        /// Dependences (indices into the input slice) first strictly
        /// satisfied by this row.
        newly_satisfied: Vec<usize>,
        /// Legality dependences still unsatisfied after this row.
        still_carried: Vec<usize>,
        /// H⊥ orthogonality inequality rows in force (Eq. 5 linear
        /// independence), summed over statements.
        orth_constraints: usize,
    },
    /// The lexmin ILP was infeasible at this row (the search will cut
    /// or close the band).
    RowSolveFailed {
        /// Row index the search was stuck at.
        row: usize,
    },
    /// A candidate row was not entered into a statement's independence
    /// basis.
    CandidateRejected {
        /// Row the candidate was found at.
        row: usize,
        /// Statement whose candidate was rejected.
        stmt: usize,
        /// Zero or duplicate.
        reason: RejectReason,
    },
    /// The DDG was cut between SCCs with a scalar dimension.
    SccCut {
        /// Row index of the inserted scalar row.
        row: usize,
        /// No-progress or fusion policy.
        reason: CutReason,
        /// Number of strongly connected components separated.
        components: usize,
        /// Inter-component dependences satisfied by the cut.
        satisfied: Vec<usize>,
    },
    /// A permutable band was closed.
    BandClosed {
        /// First row of the band.
        start: usize,
        /// Width of the band.
        width: usize,
    },
    /// Tiling inserted tile-space rows, shifting every row index ≥ `at`
    /// up by `count`.
    RowsInserted {
        /// Insertion point (the tiled band's start).
        at: usize,
        /// Number of rows inserted (the band width).
        count: usize,
        /// Tiling level of the new rows (1 = L1, 2 = L2, …).
        tile_level: u8,
    },
    /// The tile-space wavefront summed `degrees + 1` band rows into row
    /// `row` (Algorithm 2) — indices are unchanged, satisfaction claims
    /// are preserved by band permutability.
    Wavefront {
        /// The skewed (sum) row.
        row: usize,
        /// Degrees of pipelined parallelism extracted.
        degrees: usize,
    },
    /// The vectorization reorder moved row `from` to position `to`
    /// (rows in between shift down by one).
    RowMoved {
        /// Original index of the moved (vector) row.
        from: usize,
        /// Final index (the band's innermost position).
        to: usize,
    },
    /// The Feautrier scheduling baseline was entered.
    FeautrierFallback {
        /// Statements being scheduled.
        statements: usize,
    },
    /// A Feautrier schedule row was committed.
    FeautrierRow {
        /// Global row index.
        row: usize,
        /// Dependences first strictly satisfied by this row.
        satisfied: Vec<usize>,
    },
}

impl DecisionEvent {
    /// Stable lower-snake event name used as the `kind` field of
    /// `pluto-explain/1` (pinned by `tests/explain_golden.rs`).
    pub fn kind(&self) -> &'static str {
        match self {
            DecisionEvent::FarkasEliminated { .. } => "farkas_eliminated",
            DecisionEvent::RowSolved { .. } => "row_solved",
            DecisionEvent::RowSolveFailed { .. } => "row_solve_failed",
            DecisionEvent::CandidateRejected { .. } => "candidate_rejected",
            DecisionEvent::SccCut { .. } => "scc_cut",
            DecisionEvent::BandClosed { .. } => "band_closed",
            DecisionEvent::RowsInserted { .. } => "rows_inserted",
            DecisionEvent::Wavefront { .. } => "wavefront",
            DecisionEvent::RowMoved { .. } => "row_moved",
            DecisionEvent::FeautrierFallback { .. } => "feautrier_fallback",
            DecisionEvent::FeautrierRow { .. } => "feautrier_row",
        }
    }

    /// One human-readable line for the `--explain` report.
    pub fn render(&self) -> String {
        fn rows(v: &[usize]) -> String {
            if v.is_empty() {
                "none".to_string()
            } else {
                v.iter()
                    .map(|d| format!("[{d}]"))
                    .collect::<Vec<_>>()
                    .join(",")
            }
        }
        match self {
            DecisionEvent::FarkasEliminated {
                multipliers,
                rows_in,
                eqs_out,
                ineqs_out,
            } => format!(
                "farkas system: {multipliers} multipliers eliminated from {rows_in} rows -> \
                 {eqs_out} eqs + {ineqs_out} ineqs"
            ),
            DecisionEvent::RowSolved {
                row,
                ilp_rows,
                ilp_cols,
                objective,
                hyperplanes,
                newly_satisfied,
                still_carried,
                orth_constraints,
            } => format!(
                "row c{}: solved {ilp_rows}x{ilp_cols} ILP, objective (u,w) = {objective:?}, \
                 hyperplanes {hyperplanes:?}, {orth_constraints} H-perp rows; newly satisfied {}; \
                 still carried {}",
                row + 1,
                rows(newly_satisfied),
                rows(still_carried)
            ),
            DecisionEvent::RowSolveFailed { row } => {
                format!("row c{}: no legal hyperplane (ILP infeasible)", row + 1)
            }
            DecisionEvent::CandidateRejected { row, stmt, reason } => format!(
                "row c{}: candidate for S{} rejected ({})",
                row + 1,
                stmt + 1,
                reason.as_str()
            ),
            DecisionEvent::SccCut {
                row,
                reason,
                components,
                satisfied,
            } => format!(
                "row c{}: DDG cut into {components} components ({}); satisfied {}",
                row + 1,
                reason.as_str(),
                rows(satisfied)
            ),
            DecisionEvent::BandClosed { start, width } => format!(
                "band closed: rows c{}..c{} (width {width})",
                start + 1,
                start + width
            ),
            DecisionEvent::RowsInserted {
                at,
                count,
                tile_level,
            } => format!(
                "tiling: {count} tile row(s) inserted at c{} (level {tile_level})",
                at + 1
            ),
            DecisionEvent::Wavefront { row, degrees } => format!(
                "wavefront: row c{} skewed for {degrees} degree(s) of pipelined parallelism",
                row + 1
            ),
            DecisionEvent::RowMoved { from, to } => format!(
                "vectorization: row c{} moved innermost to c{}",
                from + 1,
                to + 1
            ),
            DecisionEvent::FeautrierFallback { statements } => {
                format!("feautrier fallback entered for {statements} statement(s)")
            }
            DecisionEvent::FeautrierRow { row, satisfied } => {
                format!("feautrier row c{}: satisfied {}", row + 1, rows(satisfied))
            }
        }
    }

    /// The event as one `pluto-explain/1` object: `kind`, then the
    /// variant's fields in declaration order.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![("kind", string(self.kind()))];
        match self {
            DecisionEvent::FarkasEliminated {
                multipliers,
                rows_in,
                eqs_out,
                ineqs_out,
            } => fields.extend([
                ("multipliers", num(*multipliers)),
                ("rows_in", num(*rows_in)),
                ("eqs_out", num(*eqs_out)),
                ("ineqs_out", num(*ineqs_out)),
            ]),
            DecisionEvent::RowSolved {
                row,
                ilp_rows,
                ilp_cols,
                objective,
                hyperplanes,
                newly_satisfied,
                still_carried,
                orth_constraints,
            } => fields.extend([
                ("row", num(*row)),
                ("ilp_rows", num(*ilp_rows)),
                ("ilp_cols", num(*ilp_cols)),
                ("objective", nums(objective)),
                ("hyperplanes", arr(hyperplanes.iter().map(|h| nums(h)))),
                ("newly_satisfied", nums(newly_satisfied)),
                ("still_carried", nums(still_carried)),
                ("orth_constraints", num(*orth_constraints)),
            ]),
            DecisionEvent::RowSolveFailed { row } => fields.push(("row", num(*row))),
            DecisionEvent::CandidateRejected { row, stmt, reason } => fields.extend([
                ("row", num(*row)),
                ("stmt", num(*stmt)),
                ("reason", string(reason.as_str())),
            ]),
            DecisionEvent::SccCut {
                row,
                reason,
                components,
                satisfied,
            } => fields.extend([
                ("row", num(*row)),
                ("reason", string(reason.as_str())),
                ("components", num(*components)),
                ("satisfied", nums(satisfied)),
            ]),
            DecisionEvent::BandClosed { start, width } => {
                fields.extend([("start", num(*start)), ("width", num(*width))]);
            }
            DecisionEvent::RowsInserted {
                at,
                count,
                tile_level,
            } => fields.extend([
                ("at", num(*at)),
                ("count", num(*count)),
                ("tile_level", num(*tile_level)),
            ]),
            DecisionEvent::Wavefront { row, degrees } => {
                fields.extend([("row", num(*row)), ("degrees", num(*degrees))]);
            }
            DecisionEvent::RowMoved { from, to } => {
                fields.extend([("from", num(*from)), ("to", num(*to))]);
            }
            DecisionEvent::FeautrierFallback { statements } => {
                fields.push(("statements", num(*statements)));
            }
            DecisionEvent::FeautrierRow { row, satisfied } => {
                fields.extend([("row", num(*row)), ("satisfied", nums(satisfied))]);
            }
        }
        obj(fields)
    }
}

/// Aggregate search statistics derived from a [`DecisionLog`] — the
/// columns of the EXPERIMENTS.md per-kernel search-stats table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SearchStats {
    /// `RowSolved` events (committed hyperplane rows).
    pub rows_solved: u64,
    /// `CandidateRejected` events (zero/duplicate candidates).
    pub candidates_rejected: u64,
    /// `SccCut` events.
    pub scc_cuts: u64,
    /// `RowSolveFailed` events (infeasible lexmin ILPs).
    pub row_solve_failures: u64,
    /// `FeautrierFallback` events.
    pub feautrier_fallbacks: u64,
}

/// A finished decision log: every recorded event, in emission order.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DecisionLog {
    /// Events in the order the optimizer emitted them.
    pub events: Vec<DecisionEvent>,
    /// Events discarded because the log hit [`LOG_CAPACITY`].
    pub dropped: u64,
}

impl DecisionLog {
    /// Reconstructs the satisfaction ledger in *final* row coordinates:
    /// for each of `num_deps` dependences, the first row of the final
    /// transformation that strictly satisfies it (`None` if never).
    ///
    /// The fold applies, in order: satisfaction claims from
    /// `RowSolved`/`SccCut`/`FeautrierRow`, the `+count` shift of every
    /// claim at or below a `RowsInserted` point (tiling), and the
    /// remapping of a `RowMoved` reorder. `Wavefront` changes no index
    /// and preserves claims (every band row has non-negative dependence
    /// components, so a sum containing a strictly positive row stays
    /// strictly positive).
    pub fn ledger(&self, num_deps: usize) -> Vec<Option<usize>> {
        let mut ledger: Vec<Option<usize>> = vec![None; num_deps];
        let claim = |ledger: &mut Vec<Option<usize>>, deps: &[usize], row: usize| {
            for &d in deps {
                if d < ledger.len() && ledger[d].is_none() {
                    ledger[d] = Some(row);
                }
            }
        };
        for ev in &self.events {
            match ev {
                DecisionEvent::RowSolved {
                    row,
                    newly_satisfied,
                    ..
                } => claim(&mut ledger, newly_satisfied, *row),
                DecisionEvent::SccCut { row, satisfied, .. } => {
                    claim(&mut ledger, satisfied, *row);
                }
                DecisionEvent::FeautrierRow { row, satisfied } => {
                    claim(&mut ledger, satisfied, *row);
                }
                DecisionEvent::RowsInserted { at, count, .. } => {
                    for e in ledger.iter_mut().flatten() {
                        if *e >= *at {
                            *e += count;
                        }
                    }
                }
                DecisionEvent::RowMoved { from, to } => {
                    for e in ledger.iter_mut().flatten() {
                        if *e == *from {
                            *e = *to;
                        } else if *from < *to && *e > *from && *e <= *to {
                            *e -= 1;
                        } else if *to < *from && *e >= *to && *e < *from {
                            *e += 1;
                        }
                    }
                }
                _ => {}
            }
        }
        ledger
    }

    /// Tallies the event kinds into [`SearchStats`].
    pub fn stats(&self) -> SearchStats {
        let mut s = SearchStats::default();
        for ev in &self.events {
            match ev {
                DecisionEvent::RowSolved { .. } => s.rows_solved += 1,
                DecisionEvent::CandidateRejected { .. } => s.candidates_rejected += 1,
                DecisionEvent::SccCut { .. } => s.scc_cuts += 1,
                DecisionEvent::RowSolveFailed { .. } => s.row_solve_failures += 1,
                DecisionEvent::FeautrierFallback { .. } => s.feautrier_fallbacks += 1,
                _ => {}
            }
        }
        s
    }

    /// Renders the log as indented human-readable lines (the decision
    /// section of `plutoc --explain`).
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("decision log ({} events):\n", self.events.len()));
        for ev in &self.events {
            out.push_str("  ");
            out.push_str(&ev.render());
            out.push('\n');
        }
        if self.dropped > 0 {
            out.push_str(&format!(
                "  ({} events dropped over capacity)\n",
                self.dropped
            ));
        }
        out
    }

    /// The `events` array of `pluto-explain/1`: one object per event,
    /// each with a `kind` discriminator.
    pub fn events_json(&self) -> Json {
        arr(self.events.iter().map(DecisionEvent::to_json))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ObsSession;

    /// Installs a decisions-only session, runs `f`, returns its log.
    fn recorded(f: impl FnOnce()) -> DecisionLog {
        let session = ObsSession::builder().decisions().build();
        {
            let _guard = session.install();
            f();
        }
        session.take_decisions()
    }

    #[test]
    fn disabled_recording_is_inert() {
        assert!(!enabled());
        record(DecisionEvent::RowSolveFailed { row: 0 });
        // A profile-only session does not record decisions either.
        let session = ObsSession::profiled();
        {
            let _guard = session.install();
            assert!(!enabled());
            record(DecisionEvent::RowSolveFailed { row: 1 });
        }
        let log = session.take_decisions();
        assert!(log.events.is_empty());
        assert_eq!(log.dropped, 0);
    }

    #[test]
    fn events_round_trip_and_tally() {
        let log = recorded(|| {
            record(DecisionEvent::RowSolved {
                row: 0,
                ilp_rows: 9,
                ilp_cols: 4,
                objective: vec![0, 1],
                hyperplanes: vec![vec![1, 0, 0]],
                newly_satisfied: vec![1],
                still_carried: vec![0],
                orth_constraints: 0,
            });
            record(DecisionEvent::CandidateRejected {
                row: 0,
                stmt: 1,
                reason: RejectReason::Zero,
            });
            record(DecisionEvent::SccCut {
                row: 1,
                reason: CutReason::NoProgress,
                components: 2,
                satisfied: vec![0],
            });
        });
        assert_eq!(log.events.len(), 3);
        let s = log.stats();
        assert_eq!(s.rows_solved, 1);
        assert_eq!(s.candidates_rejected, 1);
        assert_eq!(s.scc_cuts, 1);
        assert_eq!(log.ledger(2), vec![Some(1), Some(0)]);
        // The events array carries the kind discriminators.
        let doc = log.events_json();
        let evs = doc.as_array().unwrap();
        assert_eq!(evs.len(), 3);
        assert_eq!(evs[0].get("kind").unwrap().as_str(), Some("row_solved"));
        assert_eq!(evs[1].get("reason").unwrap().as_str(), Some("zero"));
        assert!(log.render_text().contains("DDG cut into 2 components"));
    }

    #[test]
    fn ledger_replays_row_shifts() {
        // Two rows solved, then tiling inserts 2 rows at 0, then the
        // vectorization reorder moves (what is now) row 2 to row 3.
        let log = recorded(|| {
            record(DecisionEvent::RowSolved {
                row: 0,
                ilp_rows: 1,
                ilp_cols: 1,
                objective: vec![],
                hyperplanes: vec![],
                newly_satisfied: vec![0],
                still_carried: vec![1],
                orth_constraints: 0,
            });
            record(DecisionEvent::RowSolved {
                row: 1,
                ilp_rows: 1,
                ilp_cols: 1,
                objective: vec![],
                hyperplanes: vec![],
                newly_satisfied: vec![1],
                still_carried: vec![],
                orth_constraints: 0,
            });
            record(DecisionEvent::RowsInserted {
                at: 0,
                count: 2,
                tile_level: 1,
            });
            record(DecisionEvent::RowMoved { from: 2, to: 3 });
        });
        // Dep 0: row 0 -> +2 -> 2 -> moved to 3. Dep 1: row 1 -> 3 -> 2
        // (shifted down by the move passing over it).
        assert_eq!(log.ledger(2), vec![Some(3), Some(2)]);
    }

    #[test]
    fn overflow_drops_and_counts() {
        let session = ObsSession::builder().decisions().build();
        {
            let _guard = session.install();
            for i in 0..LOG_CAPACITY + 5 {
                record(DecisionEvent::RowSolveFailed { row: i });
            }
        }
        let log = session.take_decisions();
        assert_eq!(log.events.len(), LOG_CAPACITY);
        assert_eq!(log.dropped, 5);
        // take_decisions() drained: a second take is empty.
        assert!(session.take_decisions().events.is_empty());
    }
}
