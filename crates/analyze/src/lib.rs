//! Static verification of generated code — an *independent* audit layer
//! between the optimizer and the emitted program.
//!
//! The paper's central claim (Sec. 5–6) is that every transformation is
//! provably legal and every `parallel` marker provably race-free. This
//! crate re-proves those claims from first principles instead of trusting
//! the search's bookkeeping:
//!
//! - [`race`]: for every AST loop marked `parallel`, composes each
//!   legality dependence polyhedron with the statement scatterings and
//!   asks the ILP core for a carried-dependence witness at that loop's
//!   scattering level. Deliberately ignores `Transformation::stmt_par`.
//! - [`bounds`]: proves every array access of every statement instance in
//!   the transformed iteration space stays inside the declared extents
//!   (emptiness of the parameterized violation set), with a concrete
//!   witness iteration on failure.
//! - [`lints`]: structural checks over the generated AST — provably empty
//!   loops, guards implied by their accumulated context, one-trip
//!   `parallel` loops, shadowed binding names.
//! - [`ledger`]: static/static differential of the optimizer's decision-log
//!   satisfaction ledger against independently re-proved strict
//!   satisfaction at each claimed row.
//! - [`bytecode`]: translation validation of the compiled executor — a
//!   [`CompiledKernel`](pluto_machine::CompiledKernel) is walked in
//!   lockstep with its source AST, every folded access is symbolically
//!   re-expanded against the IR access matrices, every body tape is
//!   decompiled back to an expression tree, every access is proved
//!   in-bounds for *all* in-domain instances, and the pooled scheduler's
//!   chunk partition is proved a disjoint exact cover with
//!   non-overlapping write footprints across chunks.
//!
//! Every finding is a [`Diagnostic`] with a stable code (`PL001`…), a
//! severity, the AST path it anchors to, and — where the underlying proof
//! is an ILP feasibility certificate — the witness point itself.
//!
//! DESIGN.md §6c is the full specification, including the stable diagnostic-code table.

use pluto::Transformation;
use pluto_codegen::Ast;
use pluto_ir::{Dependence, Program};
use pluto_linalg::Int;
use pluto_obs::json::{arr, num, obj, string, Json};

pub mod bounds;
pub mod bytecode;
pub mod ledger;
pub mod lints;
pub mod race;

/// Stable diagnostic codes. The numeric part never changes meaning across
/// releases; renderers show the full `PLxxx-slug` form.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Code {
    /// A loop marked `parallel` carries a dependence.
    Race,
    /// An array access can leave the declared extents.
    Oob,
    /// A loop whose body can never execute under its context.
    EmptyLoop,
    /// A guard whose conditions are implied by the accumulated context.
    RedundantGuard,
    /// A `parallel` loop that provably runs at most one iteration.
    OneTripParallel,
    /// A binding whose name shadows an enclosing binding.
    ShadowedBinding,
    /// The optimizer's decision-log satisfaction ledger disagrees with
    /// independently re-derived dependence satisfaction.
    LedgerDivergence,
    /// Compiled bytecode diverges from its AST/IR source: a folded
    /// access re-expands to a different affine function, a bound or
    /// guard was compiled wrong, or the control skeleton / provenance
    /// doesn't match the AST.
    BytecodeDivergence,
    /// A compiled access's flattened offset can leave `[0, len)` for
    /// some in-domain instance (ILP-witnessed).
    BytecodeOob,
    /// The pooled scheduler's chunk plan is not a disjoint exact cover
    /// of a dispatch's work-item list.
    ChunkCover,
    /// Two distinct work items of a `parallel` dispatch can write the
    /// same array cell — a race at the scheduler level, proved from the
    /// compiled strides (ILP-witnessed, independent of PL001).
    ChunkRace,
    /// A postfix body tape does not decompile to the statement's IR
    /// expression tree.
    TapeDivergence,
    /// An innermost compiled loop's minimum nonzero access stride
    /// exceeds 1 (no stride-1 access to stream) — a locality lint.
    NonUnitStride,
}

impl Code {
    /// The stable `PLxxx-slug` identifier.
    pub fn as_str(self) -> &'static str {
        match self {
            Code::Race => "PL001-race",
            Code::Oob => "PL002-oob",
            Code::EmptyLoop => "PL003-empty-loop",
            Code::RedundantGuard => "PL004-redundant-guard",
            Code::OneTripParallel => "PL005-one-trip-parallel",
            Code::ShadowedBinding => "PL006-shadowed-binding",
            Code::LedgerDivergence => "PL007-ledger-divergence",
            Code::BytecodeDivergence => "PL008-bytecode-divergence",
            Code::BytecodeOob => "PL009-bytecode-oob",
            Code::ChunkCover => "PL010-chunk-cover",
            Code::ChunkRace => "PL011-chunk-race",
            Code::TapeDivergence => "PL012-tape-divergence",
            Code::NonUnitStride => "PL013-nonunit-stride",
        }
    }

    /// Default severity of the code.
    pub fn severity(self) -> Severity {
        match self {
            Code::Race
            | Code::Oob
            | Code::LedgerDivergence
            | Code::BytecodeDivergence
            | Code::BytecodeOob
            | Code::ChunkCover
            | Code::ChunkRace
            | Code::TapeDivergence => Severity::Error,
            Code::EmptyLoop
            | Code::RedundantGuard
            | Code::OneTripParallel
            | Code::ShadowedBinding => Severity::Warning,
            Code::NonUnitStride => Severity::Info,
        }
    }
}

/// How bad a finding is. `Error` means the generated program is wrong
/// (miscompile or undefined behaviour); `Warning` means it is suspicious
/// or wasteful but semantics-preserving.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Provable correctness violation.
    Error,
    /// Suspicious or degenerate but not wrong.
    Warning,
    /// Informational.
    Info,
}

impl Severity {
    /// Lower-case display name.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
            Severity::Info => "info",
        }
    }
}

/// One analyzer finding.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Stable code.
    pub code: Code,
    /// Severity (normally `code.severity()`).
    pub severity: Severity,
    /// Slash-joined path of AST nodes from the root to the anchor node
    /// (e.g. `c1/c2[parallel]`), or a statement/access designator for
    /// non-AST findings.
    pub path: String,
    /// Human-readable explanation.
    pub message: String,
    /// Concrete ILP witness point as named values, when the finding rests
    /// on a feasibility certificate (a racing instance pair, an
    /// out-of-bounds iteration).
    pub witness: Vec<(String, Int)>,
}

impl Diagnostic {
    /// Builds a diagnostic with the code's default severity.
    pub fn new(code: Code, path: String, message: String) -> Diagnostic {
        Diagnostic {
            code,
            severity: code.severity(),
            path,
            message,
            witness: Vec::new(),
        }
    }

    /// One-line text rendering: `error[PL001-race] at c1/c2: …`.
    pub fn render(&self) -> String {
        let mut s = format!(
            "{}[{}] at {}: {}",
            self.severity.as_str(),
            self.code.as_str(),
            self.path,
            self.message
        );
        if !self.witness.is_empty() {
            let vals: Vec<String> = self
                .witness
                .iter()
                .map(|(n, v)| format!("{n}={v}"))
                .collect();
            s.push_str(&format!(" [witness: {}]", vals.join(", ")));
        }
        s
    }
}

/// Everything the analyzer consumes. All fields are borrowed views of the
/// pipeline's existing products — analysis never mutates them.
pub struct AnalysisInput<'a> {
    /// The source program.
    pub program: &'a Program,
    /// Its dependence graph (must include at least all legality-relevant
    /// dependences; input deps are ignored by the race check).
    pub deps: &'a [Dependence],
    /// The transformation the AST was generated from.
    pub transform: &'a Transformation,
    /// The generated AST.
    pub ast: &'a Ast,
    /// Per-array, per-dimension symbolic extents: `extents[a][d]` is an
    /// affine row over `[params…, 1]` giving the size of dimension `d` of
    /// array `a` (valid subscripts are `0 ..= extent-1`). `None` disables
    /// the bounds prover (extent information is optional in the IR).
    pub extents: Option<&'a [Vec<Vec<Int>>]>,
    /// Concrete parameter values to pin (`params[i] == value`) in every
    /// proof context. Use when auditing a program for one specific
    /// execution configuration (e.g. the fuzz oracle); leave `None` for
    /// fully parameterized proofs.
    pub param_values: Option<&'a [Int]>,
    /// The optimizer's satisfaction ledger replayed to final row
    /// coordinates (`DecisionLog::ledger`): per dependence, the first row
    /// claimed to strictly satisfy it. `None` (or a `None` entry) skips
    /// the PL007 cross-check for that dependence.
    pub ledger: Option<&'a [Option<usize>]>,
}

/// Runs every analysis and returns the findings, errors first, in a
/// deterministic order.
pub fn analyze(input: &AnalysisInput) -> Vec<Diagnostic> {
    let mut diags = race::check(input);
    diags.extend(bounds::check(input));
    diags.extend(lints::check(input));
    diags.extend(ledger::check(input));
    sort_diagnostics(&mut diags);
    diags
}

/// Sorts findings into the analyzer's canonical order (errors first,
/// then by code, path, message). Callers merging [`bytecode::check`]
/// results into an [`analyze`] run re-sort with this so rendering order
/// stays deterministic.
pub fn sort_diagnostics(diags: &mut [Diagnostic]) {
    diags.sort_by(|a, b| {
        (a.severity, a.code, &a.path, &a.message).cmp(&(b.severity, b.code, &b.path, &b.message))
    });
}

/// Renders diagnostics as human-readable text, one per line, with a
/// trailing summary line.
pub fn render_text(diags: &[Diagnostic]) -> String {
    let mut out = String::new();
    for d in diags {
        out.push_str(&d.render());
        out.push('\n');
    }
    let errors = diags
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .count();
    let warnings = diags
        .iter()
        .filter(|d| d.severity == Severity::Warning)
        .count();
    out.push_str(&format!(
        "analysis: {} error(s), {} warning(s)\n",
        errors, warnings
    ));
    out
}

/// The diagnostics as the `--analyze-json` array; per element
/// `{"code","severity","path","message","witness":{name:value,…}}`.
pub fn diagnostics_json(diags: &[Diagnostic]) -> Json {
    arr(diags.iter().map(|d| {
        obj([
            ("code", string(d.code.as_str())),
            ("severity", string(d.severity.as_str())),
            ("path", string(&*d.path)),
            ("message", string(&*d.message)),
            (
                "witness",
                obj(d.witness.iter().map(|(n, v)| (n.as_str(), num(*v)))),
            ),
        ])
    }))
}

/// Whether the findings contain no `Error`-severity diagnostics — the
/// "analyzer-clean" gate used by the pipeline and the fuzz oracle.
pub fn is_clean(diags: &[Diagnostic]) -> bool {
    diags.iter().all(|d| d.severity != Severity::Error)
}

/// The proof context over `[params…, 1]`: the program's `assume`
/// constraints, optionally pinned to concrete parameter values.
pub(crate) fn param_context(input: &AnalysisInput) -> pluto_poly::ConstraintSet {
    let mut ctx = input.program.context.clone();
    if let Some(vals) = input.param_values {
        for (p, &v) in vals.iter().enumerate().take(input.program.num_params()) {
            let mut row = vec![0; input.program.num_params() + 1];
            row[p] = 1;
            row[input.program.num_params()] = -v;
            ctx.add_eq(row);
        }
    }
    ctx
}
