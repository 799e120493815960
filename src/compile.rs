//! The one compile path: search → tile → wavefront → decision log →
//! code generation, spelled here and nowhere else (Fig. 5 of the paper).
//!
//! Every front end is an adapter over two calls:
//!
//! ```text
//! Optimizer::dependences(prog)      // or a replayed / caller-owned set
//!         │   (plutod probes its schedule cache here)
//!         ▼
//! compile(prog, deps, &optimizer) -> Compiled { optimized, ast, decision_log }
//!         ├── .code()               OpenMP C
//!         ├── .explain_json(kernel) pluto-explain/1
//!         └── .audit(extents, exec) analyzer + bytecode validator
//! ```
//!
//! [`compile`] records into whatever [`ObsSession`] the caller installed
//! — `plutoc` owns one per invocation (it also spans parsing and the
//! traced run), `plutod` one per request. [`pluto_schedule`] is the same
//! path for library callers that want a private session per call, the
//! analogue of libpluto's `pluto_schedule(domains, deps, options)`.
//!
//! The options that change generated code have one spelling too:
//! [`set_option`] is fed by `plutoc`'s `--<name>` flags and by the
//! `options` object of a `pluto-rpc/1` request.

use pluto::{FusionPolicy, Optimized, Optimizer, PlutoError};
use pluto_analyze::{analyze, bytecode, AnalysisInput, Diagnostic};
use pluto_codegen::{emit_c, generate, Ast};
use pluto_ir::{Dependence, Program};
use pluto_linalg::Int;
use pluto_machine::compile_kernel_with_extents;
use pluto_obs::decision::DecisionLog;
use pluto_obs::json::Json;
use pluto_obs::{ObsSession, Profile};

/// Sets one of the seven code-changing options on `opt`, under the name
/// `plutoc` takes as a flag and `pluto-rpc/1` as an `options` field:
/// `tile`, `l2`, `wavefront` (positive integers) and `notile`,
/// `noparallel`, `nofuse`, `noinputdeps` (booleans).
///
/// # Errors
/// Unknown names and ill-typed or out-of-range values: a front end must
/// not silently ignore an option its user believes was set.
pub fn set_option(opt: &mut Optimizer, name: &str, value: &Json) -> Result<(), String> {
    let positive = || {
        let n = value.as_u64().filter(|&n| n >= 1);
        n.ok_or_else(|| format!("`{name}` must be a positive integer"))
    };
    let flag = || {
        let b = value.as_bool();
        b.ok_or_else(|| format!("`{name}` must be a boolean"))
    };
    match name {
        "tile" => opt.tile_size = positive()? as Int,
        "l2" => opt.second_level_factor = Some(positive()? as Int),
        "wavefront" => opt.wavefront_degrees = positive()? as usize,
        "notile" => opt.tile = !flag()?,
        "noparallel" => opt.parallelize = !flag()?,
        "nofuse" => {
            if flag()? {
                opt.options.fuse = FusionPolicy::NoFuse;
            }
        }
        "noinputdeps" => opt.options.use_input_deps = !flag()?,
        other => return Err(format!("unknown option `{other}`")),
    }
    Ok(())
}

/// `plutoc --no-solver-cache`: turns off every compile-time shortcut at
/// once — the emptiness cache of the installed session, dependence
/// candidate pruning, parallel pair analysis and the search's own
/// shortcuts: simplex warm-starting, row deduplication and the Farkas
/// memo (DESIGN.md §11). All are output-invariant, so one switch lets a
/// single on/off differential cover them.
pub fn disable_solver_shortcuts(opt: &mut Optimizer) {
    pluto_poly::cache::set_enabled(false);
    opt.dep_pruning = false;
    opt.dep_threads = 1;
    opt.options.solver_shortcuts = false;
}

/// A concrete execution shape: the parameter values and per-array
/// extents a kernel would actually run with. Handing one to
/// [`Compiled::audit`] extends the audit down to the compiled executor.
#[derive(Debug, Clone)]
pub struct ExecShape {
    /// One value per program parameter, in declaration order.
    pub params: Vec<i64>,
    /// Concrete extents per array (row-major), as the executor sizes its
    /// buffers — typically `ParsedUnit::try_extents` output.
    pub extents: Vec<Vec<usize>>,
}

/// The products of one [`compile`].
pub struct Compiled<'p> {
    /// The program that was compiled.
    pub prog: &'p Program,
    /// Dependence graph + search result (transformation, satisfaction map).
    pub optimized: Optimized,
    /// The generated loop AST.
    pub ast: Ast,
    /// The optimizer's decision events (empty unless the installed
    /// session records decisions); feeds [`explain_json`] and the PL007
    /// ledger cross-check of [`audit`].
    ///
    /// [`explain_json`]: Compiled::explain_json
    /// [`audit`]: Compiled::audit
    pub decision_log: DecisionLog,
}

/// Searches, tiles, wavefronts and generates code for `prog` under the
/// caller's installed [`ObsSession`] (none is fine: nothing is recorded
/// and the decision log is empty). `deps` come from
/// [`Optimizer::dependences`] or a cache; `None` analyses them inside the
/// `optimize` span.
///
/// # Errors
/// Propagates [`PlutoError`] from the transformation search.
pub fn compile<'p>(
    prog: &'p Program,
    deps: Option<Vec<Dependence>>,
    optimizer: &Optimizer,
) -> Result<Compiled<'p>, PlutoError> {
    let optimized = optimizer.optimize_with_deps(prog, deps)?;
    let decision_log = ObsSession::current()
        .map(|s| s.take_decisions())
        .unwrap_or_default();
    let ast = generate(prog, &optimized.result.transform);
    Ok(Compiled {
        prog,
        optimized,
        ast,
        decision_log,
    })
}

impl Compiled<'_> {
    /// The transformed program as OpenMP C.
    pub fn code(&self) -> String {
        emit_c(self.prog, &self.ast)
    }

    /// The `pluto-explain/1` document: schedule rows, satisfaction
    /// ledger and the search's decision events, labelled `kernel`.
    pub fn explain_json(&self, kernel: &str) -> Json {
        pluto::explain_json(
            self.prog,
            &self.optimized.deps,
            &self.optimized.result,
            &self.decision_log,
            Some(kernel),
        )
    }

    /// Independently audits the generated program under an `analyze`
    /// span: race detection for `parallel` loops, AST lints, the PL007
    /// ledger cross-check, and — when `extents[a][d]` (an affine row over
    /// `[params…, 1]` per array dimension) is given — the PL002 bounds
    /// prover. All proofs are parametric. With an [`ExecShape`] the AST
    /// is also lowered to bytecode at that shape and
    /// translation-validated against the polyhedral source (PL008–PL013,
    /// the `analyze/bytecode` span). Findings come back sorted, errors
    /// first; an empty list is a clean compile.
    pub fn audit(
        &self,
        extents: Option<&[Vec<Vec<Int>>]>,
        exec: Option<&ExecShape>,
    ) -> Vec<Diagnostic> {
        let _s = pluto_obs::span("analyze");
        let transform = &self.optimized.result.transform;
        let ledger = self.decision_log.ledger(self.optimized.deps.len());
        let mut diags = analyze(&AnalysisInput {
            program: self.prog,
            deps: &self.optimized.deps,
            transform,
            ast: &self.ast,
            extents,
            param_values: None,
            ledger: Some(&ledger),
        });
        if let Some(shape) = exec {
            let kernel =
                compile_kernel_with_extents(self.prog, &self.ast, &shape.params, &shape.extents);
            diags.extend(bytecode::check(&bytecode::BytecodeInput {
                program: self.prog,
                transform,
                ast: &self.ast,
                kernel: &kernel,
            }));
            pluto_analyze::sort_diagnostics(&mut diags);
        }
        diags
    }
}

/// What [`pluto_schedule`] should audit; the default is the race check,
/// lints and ledger cross-check alone (see [`Compiled::audit`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct Audit<'a> {
    /// Symbolic array extents, enabling the bounds prover.
    pub extents: Option<&'a [Vec<Vec<Int>>]>,
    /// A concrete shape, enabling bytecode translation validation.
    pub exec: Option<&'a ExecShape>,
}

/// Everything one [`pluto_schedule`] call produces.
pub struct Scheduled<'p> {
    /// The compile's structured products (transformation, AST, log).
    pub compiled: Compiled<'p>,
    /// The transformed program as OpenMP C.
    pub code: String,
    /// The `pluto-explain/1` document, labelled with the program's name.
    pub explain: Json,
    /// The analyzer's findings (sorted, errors first); empty for a clean
    /// compile and when no audit was requested.
    pub diagnostics: Vec<Diagnostic>,
    /// Phase spans, solver counters, and latency histograms for this
    /// call alone (`pluto-profile/3` via [`Profile::to_json`]).
    pub profile: Profile,
}

impl Scheduled<'_> {
    /// Whether the audit found no `Error`-severity diagnostics.
    pub fn is_clean(&self) -> bool {
        pluto_analyze::is_clean(&self.diagnostics)
    }
}

/// [`compile`] under a **private** [`ObsSession`] (profile + decisions),
/// so any number of calls can run concurrently on different threads:
/// each returns its own code, its own `pluto-profile/3` counters/spans
/// and its own `pluto-explain/1` report, with no cross-talk. The session
/// also scopes the emptiness-cache store, so concurrent calls report
/// independent, deterministic `ilp.cache_*` counters.
///
/// Dependences are caller-supplied, libpluto-style, or analysed here
/// when `None`; `audit` additionally runs [`Compiled::audit`].
///
/// # Errors
/// Propagates [`PlutoError`] from the transformation search; a failed
/// compile leaves no session installed on the calling thread.
///
/// # Example
///
/// ```
/// use pluto_repro::pluto_schedule;
/// use pluto::Optimizer;
/// use pluto_frontend::kernels;
///
/// let k = kernels::matmul();
/// let options = Optimizer::new().tile_size(16);
/// let deps = options.dependences(&k.program);
/// let out = pluto_schedule(&k.program, Some(deps), &options, None)?;
/// assert!(out.code.contains("#pragma omp parallel for"));
/// assert_eq!(out.explain.get("schema").unwrap().as_str(), Some("pluto-explain/1"));
/// assert!(out.profile.phase("optimize/search").is_some());
/// # Ok::<(), pluto::PlutoError>(())
/// ```
pub fn pluto_schedule<'p>(
    prog: &'p Program,
    deps: Option<Vec<Dependence>>,
    options: &Optimizer,
    audit: Option<Audit>,
) -> Result<Scheduled<'p>, PlutoError> {
    let session = ObsSession::builder().profile().decisions().build();
    // RAII: the `?` on a failed search uninstalls too.
    let guard = session.install();
    let compiled = compile(prog, deps, options)?;
    let code = compiled.code();
    let diagnostics = audit.map_or_else(Vec::new, |a| compiled.audit(a.extents, a.exec));
    drop(guard);
    Ok(Scheduled {
        explain: compiled.explain_json(&prog.name),
        compiled,
        code,
        diagnostics,
        profile: session.finish_profile(),
    })
}
