//! Observability layer for the `pluto-rs` tool-chain: hierarchical phase
//! spans, solver counters, and machine-readable compile profiles.
//!
//! The paper's headline claim is *practicality* — the transformation
//! framework "runs quite fast — within a fraction of a second" (Sec. 7) —
//! yet a polyhedral compiler's running time hides in places no wall clock
//! can see from the outside: simplex pivots, Gomory cuts, Fourier–Motzkin
//! row blowup, Farkas-system construction, search restarts. This crate
//! gives every layer of the workspace a shared, zero-dependency way to
//! name and measure those effects (see DESIGN.md §9 and PERFORMANCE.md
//! for the full vocabulary):
//!
//! * [`ObsSession`] — the per-compile telemetry context. A session *owns*
//!   its counter registry cells, phase-span buffer, latency histograms,
//!   decision log, trace sink, and runtime-execution accumulator.
//!   Installing one on a thread ([`ObsSession::install`]) makes it the
//!   recording target of everything below; two compiles in one process
//!   each carry their own session and can never corrupt each other's
//!   telemetry;
//! * [`span`] — hierarchical wall-time phases (`parse` → `deps` →
//!   `search` → `tiling` → `wavefront` → `codegen` → `analyze`), built
//!   from RAII guards and a thread-local path stack;
//! * [`counters`] — a central registry of cheap counter descriptors
//!   bumped by the hot crates (`ilp.pivots`, `poly.fm_eliminations`,
//!   `ir.deps_built`, `core.scc_cuts`, …), each recording into the
//!   current session's atomic cells;
//! * [`hist`] — log2-bucketed latency histograms keyed by ILP call site
//!   (legality, bounding, search-row, emptiness), registered next to the
//!   counters;
//! * [`Session`] / [`Profile`] — collection and rendering: a session
//!   enables recording, a profile snapshots everything as a human table
//!   ([`Profile::render_table`]) or a stable document
//!   ([`Profile::to_json`], schema `pluto-profile/3`, documented in
//!   PERFORMANCE.md);
//! * [`decision`] — the optimizer decision log: structured events for
//!   every hyperplane the search commits, rejects, or cuts around,
//!   surfaced by `plutoc --explain[-json]` (`pluto-explain/1`);
//! * [`trace`] — runtime execution tracing: per-thread event buffers
//!   filled by the machine substrate's thread teams, exported as Chrome
//!   Trace Event JSON (`trace_event/1`, loadable in Perfetto); while a
//!   trace records, compile-time [`span`]s additionally land on the
//!   coordinator timeline, so optimizer and runtime share one Perfetto
//!   view;
//! * [`exec`] — runtime execution metrics (wavefront load balance,
//!   barrier wait, per-array cache attribution) aggregated into the
//!   [`Profile::exec`] section;
//! * [`json`] — the one JSON document model: every schema above is built
//!   as a [`json::Json`] value and serialized by `to_compact` or
//!   `to_pretty`; the parser reads requests and baselines.
//!
//! # Zero cost when disabled
//!
//! Recording is off by default. Every counter method and [`span`] checks
//! one process-global installed-session count (a single relaxed atomic
//! load) and returns immediately while no session is installed anywhere
//! in the process: no cells are touched, no clock is read, nothing
//! allocates. Only when *some* thread has a session installed does the
//! check fall through to a thread-local lookup — and a thread with no
//! session of its own still records nothing. The disabled path is cheap
//! enough to leave instrumentation in release builds permanently; the
//! test-suite asserts it stays inert (see `disabled_path_is_inert`).
//!
//! # Example
//!
//! ```
//! let session = pluto_obs::Session::start();
//! {
//!     let _outer = pluto_obs::span("search");
//!     let _inner = pluto_obs::span("ilp");
//!     pluto_obs::counters::ILP_PIVOTS.add(3);
//! }
//! let profile = session.finish();
//! assert_eq!(profile.counter("ilp.pivots"), Some(3));
//! assert_eq!(profile.phase("search/ilp").unwrap().calls, 1);
//! // Machine-readable form, stable schema "pluto-profile/3":
//! let j = profile.to_json(Some("demo"));
//! assert_eq!(j.get("schema").unwrap().as_str(), Some("pluto-profile/3"));
//! assert!(j.to_pretty().starts_with("{\n  \"schema\": \"pluto-profile/3\","));
//! ```
//!
//! # Concurrency model
//!
//! Sessions are *installed*, not global: [`ObsSession::install`] places a
//! handle in a thread-local slot (restored by the returned RAII guard,
//! even on panic), and every recording primitive resolves the current
//! thread's session. Worker threads inherit the dispatching thread's
//! session — the persistent pool (`pluto-pool`) re-installs the
//! dispatcher's handle around each job — so spans, chunk timings, and
//! counters from a parallel region land in the compile that dispatched
//! it. Concurrent
//! compiles on different threads each install their own session and
//! observe fully isolated telemetry (`tests/concurrent_compiles.rs`
//! pins this); profiles are diagnostic data, never inputs to compilation
//! decisions.

// Telemetry names are a public contract (PERFORMANCE.md); the docs
// gate keeps the registry self-describing.
#![deny(missing_docs)]
pub mod aggregate;
pub mod counters;
pub mod decision;
pub mod exec;
pub mod hist;
pub mod json;
pub mod trace;

pub use counters::Counter;
pub use exec::ExecProfile;

use json::{arr, num, obj, string, Json};
use std::any::{Any, TypeId};
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Number of [`ObsSession::install`] guards alive across all threads.
/// The disabled-path fast gate: while this is 0 no session exists
/// anywhere, so every recording primitive returns after this one
/// relaxed load without touching thread-local storage.
static ACTIVE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// The session installed on this thread, if any.
    static CURRENT: RefCell<Option<Arc<SessionState>>> = const { RefCell::new(None) };
}

/// Everything one session owns. Shared behind an `Arc` between the
/// user-facing [`ObsSession`] handle, the thread-local install slots,
/// and open [`SpanGuard`]s / trace [`RingBuf`](trace::RingBuf)s.
pub(crate) struct SessionState {
    /// Profile recording on: counters, histograms, spans, exec metrics.
    pub(crate) profile: bool,
    /// Decision-log recording on.
    pub(crate) decisions: bool,
    /// Trace recording on.
    pub(crate) tracing: bool,
    /// Session epoch: profile `total_ns` origin and the trace clock.
    pub(crate) started: Instant,
    /// One cell per registered counter, indexed by
    /// [`Counter::index`](counters::Counter).
    pub(crate) counters: Box<[AtomicU64]>,
    /// One cell block per registered histogram.
    pub(crate) hists: Box<[hist::Cells]>,
    /// Completed-span buffer: `(path, wall_ns)` pairs.
    pub(crate) spans: Mutex<Vec<(String, u128)>>,
    /// Decision events plus the count dropped over capacity.
    pub(crate) decision_log: Mutex<(Vec<decision::DecisionEvent>, u64)>,
    /// Submitted trace events.
    pub(crate) trace_events: Mutex<Vec<trace::TraceEvent>>,
    /// Runtime execution accumulator (dispatches + array attribution).
    pub(crate) exec: Mutex<exec::Accum>,
    /// Session-scoped extension state (see [`session_ext`]).
    ext: Mutex<Vec<(TypeId, Arc<dyn Any + Send + Sync>)>>,
}

impl SessionState {
    fn new(profile: bool, decisions: bool, tracing: bool) -> SessionState {
        SessionState {
            profile,
            decisions,
            tracing,
            started: Instant::now(),
            counters: (0..counters::NUM).map(|_| AtomicU64::new(0)).collect(),
            hists: (0..hist::NUM).map(|_| hist::Cells::new()).collect(),
            spans: Mutex::new(Vec::new()),
            decision_log: Mutex::new((Vec::new(), 0)),
            trace_events: Mutex::new(Vec::new()),
            exec: Mutex::new(exec::Accum::default()),
            ext: Mutex::new(Vec::new()),
        }
    }
}

/// The session installed on the current thread, cloned out of the
/// thread-local slot. One relaxed load while no session is installed
/// anywhere.
#[inline]
pub(crate) fn current_state() -> Option<Arc<SessionState>> {
    if ACTIVE.load(Ordering::Relaxed) == 0 {
        return None;
    }
    CURRENT.with(|c| c.borrow().clone())
}

/// Runs `f` against the current thread's session if it records profile
/// data; `None` (after the one relaxed fast-gate load) otherwise. The
/// shared slow path of every counter bump and histogram sample.
#[inline]
pub(crate) fn with_profiling<R>(f: impl FnOnce(&SessionState) -> R) -> Option<R> {
    if ACTIVE.load(Ordering::Relaxed) == 0 {
        return None;
    }
    CURRENT.with(|c| match &*c.borrow() {
        Some(s) if s.profile => Some(f(s)),
        _ => None,
    })
}

/// Whether the current thread's session records profile data.
///
/// While no session is installed anywhere in the process this is one
/// relaxed atomic load — the whole cost of every counter bump and span
/// entry while profiling is off.
#[inline]
pub fn enabled() -> bool {
    if ACTIVE.load(Ordering::Relaxed) == 0 {
        return false;
    }
    CURRENT.with(|c| c.borrow().as_ref().is_some_and(|s| s.profile))
}

/// Whether the machine substrate should measure per-thread execution
/// metrics: true while the current thread's session records a profile
/// (the metrics land in [`Profile::exec`]) or a [`trace`] (they land on
/// the event timelines). One relaxed load while no session is installed
/// anywhere — the entire disabled-path cost of `run_parallel`'s
/// instrumentation.
#[inline]
pub fn exec_metrics_enabled() -> bool {
    if ACTIVE.load(Ordering::Relaxed) == 0 {
        return false;
    }
    CURRENT.with(|c| c.borrow().as_ref().is_some_and(|s| s.profile || s.tracing))
}

/// A per-compile observability context: the owner of every counter cell,
/// span buffer, latency histogram, decision log, and trace sink one
/// compilation records into (DESIGN.md §9).
///
/// Construct one with [`builder`](ObsSession::builder) (choosing which
/// recorders are live), [`install`](ObsSession::install) it on the
/// compiling thread, run the compile, then collect with
/// [`finish_profile`](ObsSession::finish_profile),
/// [`take_decisions`](ObsSession::take_decisions), and
/// [`take_trace`](ObsSession::take_trace). The handle is a cheap `Arc`
/// clone — worker threads that should attribute their work to this
/// compile install a clone of the same handle (the thread pool does this
/// automatically for dispatched jobs).
///
/// ```
/// use pluto_obs::ObsSession;
/// let session = ObsSession::builder().profile().decisions().build();
/// {
///     let _guard = session.install();
///     let _s = pluto_obs::span("optimize");
///     pluto_obs::counters::ILP_SOLVES.bump();
/// }
/// let profile = session.finish_profile();
/// assert_eq!(profile.counter("ilp.solves"), Some(1));
/// assert!(session.take_decisions().events.is_empty());
/// ```
#[derive(Clone)]
pub struct ObsSession {
    state: Arc<SessionState>,
}

/// Configures which recorders an [`ObsSession`] runs; see
/// [`ObsSession::builder`].
#[derive(Debug, Default, Clone, Copy)]
pub struct ObsSessionBuilder {
    profile: bool,
    decisions: bool,
    trace: bool,
}

impl ObsSessionBuilder {
    /// Enables the profile recorder: counters, latency histograms, phase
    /// spans, and runtime-execution metrics.
    #[must_use]
    pub fn profile(mut self) -> ObsSessionBuilder {
        self.profile = true;
        self
    }

    /// Enables the decision-log recorder (`pluto-explain/1` events).
    #[must_use]
    pub fn decisions(mut self) -> ObsSessionBuilder {
        self.decisions = true;
        self
    }

    /// Enables the trace recorder (`trace_event/1` timelines).
    #[must_use]
    pub fn trace(mut self) -> ObsSessionBuilder {
        self.trace = true;
        self
    }

    /// Builds the session. Its clock starts now; nothing records until
    /// the session is [`install`](ObsSession::install)ed on a thread.
    pub fn build(self) -> ObsSession {
        ObsSession {
            state: Arc::new(SessionState::new(self.profile, self.decisions, self.trace)),
        }
    }
}

impl ObsSession {
    /// Starts configuring a session; recorders are opt-in (a session
    /// with none still scopes session-local state like the solver
    /// cache).
    pub fn builder() -> ObsSessionBuilder {
        ObsSessionBuilder::default()
    }

    /// A session with only the profile recorder — the common
    /// `--profile` shape.
    pub fn profiled() -> ObsSession {
        ObsSession::builder().profile().build()
    }

    /// The session installed on the current thread, if any — a clone of
    /// the same handle, suitable for re-installing on a worker thread so
    /// its work is attributed to this compile.
    pub fn current() -> Option<ObsSession> {
        current_state().map(|state| ObsSession { state })
    }

    /// Installs this session on the current thread: until the returned
    /// guard drops, every recording primitive on this thread targets
    /// this session. The guard saves and restores the previously
    /// installed session (installs nest), and restores it on unwind too,
    /// so a panicking compile cannot leave a dangling thread-local
    /// session behind.
    #[must_use = "recording stops when the guard drops"]
    pub fn install(&self) -> InstallGuard {
        ACTIVE.fetch_add(1, Ordering::Relaxed);
        let prev = CURRENT.with(|c| c.borrow_mut().replace(Arc::clone(&self.state)));
        InstallGuard {
            prev,
            _not_send: std::marker::PhantomData,
        }
    }

    /// Whether this session's profile recorder is on.
    pub fn records_profile(&self) -> bool {
        self.state.profile
    }

    /// Whether this session's decision-log recorder is on.
    pub fn records_decisions(&self) -> bool {
        self.state.decisions
    }

    /// Whether this session's trace recorder is on.
    pub fn records_trace(&self) -> bool {
        self.state.tracing
    }

    /// Snapshots the profile: every completed span aggregated by path,
    /// plus the full counter and histogram registries (zero values
    /// included, so the profile shape is stable) and any runtime
    /// execution metrics. Drains the span buffer and exec accumulator;
    /// the counter cells stay readable.
    pub fn finish_profile(&self) -> Profile {
        let state = &self.state;
        let total_ns = state.started.elapsed().as_nanos();
        let raw: Vec<(String, u128)> = {
            let mut buf = state.spans.lock().expect("span buffer poisoned");
            std::mem::take(&mut *buf)
        };
        // Aggregate by path, then order parents before children.
        let mut phases: Vec<Phase> = Vec::new();
        for (path, ns) in raw {
            match phases.iter_mut().find(|p| p.path == path) {
                Some(p) => {
                    p.calls += 1;
                    p.wall_ns += ns;
                }
                None => phases.push(Phase {
                    path,
                    calls: 1,
                    wall_ns: ns,
                }),
            }
        }
        phases.sort_by(|a, b| a.path.cmp(&b.path));
        let counters = counters::all()
            .iter()
            .map(|c| CounterSnapshot {
                name: c.name(),
                value: state.counters[c.index()].load(Ordering::Relaxed),
            })
            .collect();
        let hists = hist::all()
            .iter()
            .map(|h| state.hists[h.index()].snapshot(h.name()))
            .collect();
        let exec = {
            let mut acc = state.exec.lock().expect("exec accumulator poisoned");
            std::mem::take(&mut *acc).into_profile()
        };
        Profile {
            total_ns,
            phases,
            counters,
            hists,
            exec,
        }
    }

    /// Drains the decision log recorded so far (empty if the recorder
    /// was off).
    pub fn take_decisions(&self) -> decision::DecisionLog {
        let mut log = self
            .state
            .decision_log
            .lock()
            .expect("decision log poisoned");
        let events = std::mem::take(&mut log.0);
        let dropped = std::mem::replace(&mut log.1, 0);
        decision::DecisionLog { events, dropped }
    }

    /// Drains the trace events submitted so far into a
    /// [`Trace`](trace::Trace), sorted by timestamp (empty if the
    /// recorder was off).
    pub fn take_trace(&self) -> trace::Trace {
        let mut events = std::mem::take(
            &mut *self
                .state
                .trace_events
                .lock()
                .expect("trace buffer poisoned"),
        );
        events.sort_by_key(|e| (e.ts_ns, e.tid));
        trace::Trace { events }
    }
}

/// RAII guard returned by [`ObsSession::install`]: restores the
/// previously installed session (usually none) when dropped — including
/// during unwinding, so a panicking compile leaves no dangling
/// thread-local session. Not `Send`: it must drop on the thread that
/// created it.
pub struct InstallGuard {
    prev: Option<Arc<SessionState>>,
    _not_send: std::marker::PhantomData<*const ()>,
}

impl Drop for InstallGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| *c.borrow_mut() = self.prev.take());
        ACTIVE.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Lazily-created session-scoped extension state of type `T`, shared by
/// every thread the current session is installed on; `None` when no
/// session is installed on this thread.
///
/// This is how crates below `obs` scope their own state to a compile
/// without `obs` knowing their types — `poly::cache` keys its emptiness
/// cache here, so concurrent compiles get isolated caches (and
/// attributable per-compile hit/miss counters) while bare sessionless
/// callers keep the process-global one.
pub fn session_ext<T: Default + Send + Sync + 'static>() -> Option<Arc<T>> {
    let state = current_state()?;
    let mut ext = state.ext.lock().expect("session ext poisoned");
    let id = TypeId::of::<T>();
    if let Some((_, v)) = ext.iter().find(|(t, _)| *t == id) {
        return Arc::clone(v).downcast::<T>().ok();
    }
    let v: Arc<T> = Arc::new(T::default());
    ext.push((id, v.clone()));
    Some(v)
}

thread_local! {
    /// Names of the spans currently open on this thread, outermost first.
    static STACK: RefCell<Vec<&'static str>> =
        const { RefCell::new(Vec::new()) };
}

/// Opens a named phase span; the span closes (and its wall time is
/// recorded) when the returned guard drops.
///
/// Spans nest: a span opened while another is active on the same thread
/// records under the joined path (`"optimize/search"`). A span records
/// into the current session's buffer while its profile recorder is on
/// and *also* emits begin/end events on the coordinator timeline (tid 0)
/// while its trace recorder is on, so compile-time phases appear on the
/// same Perfetto view as the runtime's thread-team events. With no
/// session installed the guard is inert — one relaxed flag load, no
/// clock read, no allocation.
///
/// ```
/// let session = pluto_obs::Session::start();
/// {
///     let _a = pluto_obs::span("outer");
///     let _b = pluto_obs::span("inner");
/// }
/// let profile = session.finish();
/// assert!(profile.phase("outer").is_some());
/// assert!(profile.phase("outer/inner").is_some());
/// ```
#[must_use = "the span is recorded when the guard drops"]
pub fn span(name: &'static str) -> SpanGuard {
    let Some(state) = current_state() else {
        return SpanGuard {
            live: None,
            profiling: false,
        };
    };
    let profiling = state.profile;
    let tracing = state.tracing;
    if !profiling && !tracing {
        return SpanGuard {
            live: None,
            profiling: false,
        };
    }
    let path = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let mut path = String::new();
        for part in s.iter() {
            path.push_str(part);
            path.push('/');
        }
        path.push_str(name);
        s.push(name);
        path
    });
    if tracing {
        trace::record_compile_event(&state, &path, trace::Phase::Begin);
    }
    SpanGuard {
        live: Some((state, path, Instant::now())),
        profiling,
    }
}

/// RAII guard returned by [`span`]; records the elapsed wall time of the
/// phase when dropped. Holds its session handle, so the span lands in
/// the session that was current when it *opened* even if the install
/// guard is dropped first.
pub struct SpanGuard {
    /// `(session, full path, start)` when recording; `None` for the
    /// inert guard handed out while no session records on this thread.
    live: Option<(Arc<SessionState>, String, Instant)>,
    /// Whether the session's profile recorder was on when the span
    /// opened (a span opened for tracing alone must not land in the
    /// span buffer).
    profiling: bool,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some((state, path, start)) = self.live.take() else {
            return;
        };
        let ns = start.elapsed().as_nanos();
        STACK.with(|s| {
            s.borrow_mut().pop();
        });
        if state.tracing {
            trace::record_compile_event(&state, &path, trace::Phase::End);
        }
        if self.profiling {
            if let Ok(mut buf) = state.spans.lock() {
                buf.push((path, ns));
            }
        }
    }
}

/// A profile-recording session installed on the current thread — the
/// one-line convenience over [`ObsSession`] for the common "bracket this
/// region, give me a [`Profile`]" shape.
///
/// The handle owns both the session and its install guard: recording is
/// scoped to the current thread (plus any worker threads the pool
/// enlists on its behalf) and ends at [`finish`](Session::finish). Two
/// threads each holding a `Session` record independently. In-tree entry
/// points that start one: `plutoc --profile[-json]`,
/// `pluto_repro::pluto_schedule`, and the bench harness's
/// `BENCH_pipeline.json` emission.
pub struct Session {
    obs: ObsSession,
    guard: Option<InstallGuard>,
}

impl Session {
    /// Starts a fresh profile-recording session and installs it on the
    /// current thread. The new session's cells start at zero.
    #[must_use = "finish() the session to obtain the profile"]
    pub fn start() -> Session {
        let obs = ObsSession::profiled();
        let guard = obs.install();
        Session {
            obs,
            guard: Some(guard),
        }
    }

    /// Stops recording (uninstalls the session) and returns the
    /// collected [`Profile`]: every completed span aggregated by path,
    /// plus a snapshot of every registered counter (zero-valued counters
    /// included, so the profile shape is stable).
    pub fn finish(mut self) -> Profile {
        self.guard.take();
        self.obs.finish_profile()
    }
}

/// Aggregated wall time of one phase path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Phase {
    /// Slash-joined span path, e.g. `"optimize/search"`.
    pub path: String,
    /// Number of completed spans recorded under this path.
    pub calls: u64,
    /// Total wall time across those spans, in nanoseconds.
    pub wall_ns: u128,
}

/// One counter's value at [`Session::finish`] time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterSnapshot {
    /// Registry name, e.g. `"ilp.pivots"` (glossary in PERFORMANCE.md).
    pub name: &'static str,
    /// Accumulated value over the session.
    pub value: u64,
}

/// Everything one session observed: total wall time, per-phase spans, and
/// the full counter and histogram registry snapshots.
///
/// Render with [`render_table`](Profile::render_table) (human) or
/// [`to_json`](Profile::to_json) (machine, schema `pluto-profile/3` —
/// field-by-field documentation in PERFORMANCE.md).
#[derive(Debug, Clone, PartialEq)]
pub struct Profile {
    /// Wall time from session construction to the profile snapshot, in
    /// nanoseconds.
    pub total_ns: u128,
    /// Completed spans aggregated by path, parents before children.
    pub phases: Vec<Phase>,
    /// Snapshot of every registered counter, in registry order.
    pub counters: Vec<CounterSnapshot>,
    /// Snapshot of every registered latency histogram, in registry
    /// order (empty histograms included, so the shape is stable).
    pub hists: Vec<hist::HistSnapshot>,
    /// Runtime execution metrics (thread-team load balance, barrier
    /// wait, per-array cache attribution), when the session bracketed
    /// an execution; `None` for compile-only sessions (the `exec`
    /// schema field serializes as JSON `null`).
    pub exec: Option<exec::ExecProfile>,
}

impl Profile {
    /// Looks up a phase by its full path (e.g. `"optimize/search"`).
    pub fn phase(&self, path: &str) -> Option<&Phase> {
        self.phases.iter().find(|p| p.path == path)
    }

    /// Looks up a counter value by registry name (e.g. `"ilp.pivots"`).
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    }

    /// Looks up a latency histogram by registry name (e.g.
    /// `"ilp.latency.search_row"`).
    pub fn hist(&self, name: &str) -> Option<&hist::HistSnapshot> {
        self.hists.iter().find(|h| h.name == name)
    }

    /// Renders the profile as an aligned human-readable table: one row
    /// per phase (indented by nesting depth), then every non-zero
    /// counter.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("{:<44} {:>7} {:>12}\n", "phase", "calls", "wall"));
        out.push_str(&format!(
            "{:<44} {:>7} {:>12}\n",
            "total",
            "",
            fmt_ns(self.total_ns)
        ));
        for p in &self.phases {
            let depth = p.path.matches('/').count();
            let name = p.path.rsplit('/').next().unwrap_or(&p.path);
            let label = format!("{}{}", "  ".repeat(depth + 1), name);
            out.push_str(&format!(
                "{:<44} {:>7} {:>12}\n",
                label,
                p.calls,
                fmt_ns(p.wall_ns)
            ));
        }
        out.push_str(&format!("\n{:<44} {:>20}\n", "counter", "value"));
        for c in &self.counters {
            if c.value != 0 {
                out.push_str(&format!("{:<44} {:>20}\n", c.name, c.value));
            }
        }
        if self.hists.iter().any(|h| h.count > 0) {
            out.push_str(&format!(
                "\n{:<44} {:>9} {:>10} {:>10} {:>10} {:>10}\n",
                "latency histogram", "samples", "mean", "p50", "p90", "p99"
            ));
            for h in &self.hists {
                if h.count == 0 {
                    continue;
                }
                out.push_str(&format!(
                    "{:<44} {:>9} {:>10} {:>10} {:>10} {:>10}\n",
                    h.name,
                    h.count,
                    fmt_ns(u128::from(h.mean_ns())),
                    fmt_ns(u128::from(h.p50_ns())),
                    fmt_ns(u128::from(h.p90_ns())),
                    fmt_ns(u128::from(h.p99_ns()))
                ));
            }
        }
        if let Some(e) = &self.exec {
            out.push_str(&format!("\n{:<44} {:>20}\n", "execution", ""));
            out.push_str(&format!("{:<44} {:>20}\n", "  dispatches", e.dispatches));
            out.push_str(&format!("{:<44} {:>20}\n", "  threads", e.threads));
            out.push_str(&format!(
                "{:<44} {:>20.3}\n",
                "  imbalance (mean)", e.imbalance_mean
            ));
            out.push_str(&format!(
                "{:<44} {:>20.3}\n",
                "  imbalance (max)", e.imbalance_max
            ));
            out.push_str(&format!(
                "{:<44} {:>20}\n",
                "  barrier wait",
                fmt_ns(e.barrier_wait_ns)
            ));
            for a in &e.arrays {
                out.push_str(&format!(
                    "{:<44} {:>20}\n",
                    format!("  array {} L1 miss rate", a.name),
                    format!("{:.4}", a.l1_miss_rate())
                ));
            }
        }
        out
    }

    /// The profile as a `pluto-profile/3` document (PERFORMANCE.md §5.1).
    /// `kernel` names the compiled program when known; `null` otherwise.
    /// Phases are sorted by path, counters and histograms appear in
    /// registry order with zero values included — consumers can rely on
    /// the full registries being present.
    ///
    /// `pluto-profile/3` is a strict superset of `/2` (itself a superset
    /// of `/1`): every v2 field is emitted unchanged and the `hists`
    /// section (one object per registered latency histogram, all
    /// [`hist::NUM_BUCKETS`] log2 buckets) is purely additive, so v2
    /// consumers that ignore unknown fields keep working
    /// (`tests/profile_golden.rs` pins this compatibility).
    pub fn to_json(&self, kernel: Option<&str>) -> Json {
        obj([
            ("schema", string("pluto-profile/3")),
            ("kernel", kernel.map_or(Json::Null, string)),
            ("total_ns", num(self.total_ns)),
            ("phases", phases_json(&self.phases)),
            (
                "counters",
                counters_json(self.counters.iter().map(|c| (c.name, c.value))),
            ),
            ("hists", hist::hists_json(&self.hists, &[])),
            (
                "exec",
                self.exec.as_ref().map_or(Json::Null, ExecProfile::to_json),
            ),
        ])
    }
}

/// The `phases` section of `pluto-profile/3`, `pluto-stats/1` and
/// `pluto-bench-pipeline/3`: one `{path, calls, wall_ns}` per phase.
pub fn phases_json(phases: &[Phase]) -> Json {
    arr(phases.iter().map(|p| {
        obj([
            ("path", string(&*p.path)),
            ("calls", num(p.calls)),
            ("wall_ns", num(p.wall_ns)),
        ])
    }))
}

/// The `counters` section of the same three documents (and the top-5
/// list of a `pluto-log/1` record): one `{name, value}` per counter.
pub fn counters_json<'a>(counters: impl IntoIterator<Item = (&'a str, u64)>) -> Json {
    arr(counters
        .into_iter()
        .map(|(name, value)| obj([("name", string(name)), ("value", num(value))])))
}

/// Formats nanoseconds with an adaptive unit (`ns`, `µs`, `ms`, `s`).
fn fmt_ns(ns: u128) -> String {
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.1}µs", ns as f64 / 1_000.0)
    } else if ns < 1_000_000_000 {
        format!("{:.2}ms", ns as f64 / 1_000_000.0)
    } else {
        format!("{:.2}s", ns as f64 / 1_000_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_path_is_inert() {
        // No session installed on this thread: the fast gate answers
        // everything and nothing records or allocates.
        assert!(ObsSession::current().is_none());
        assert!(!enabled());
        // Bump every registered counter through the public API while no
        // session is installed: all reads come back zero.
        for c in counters::all() {
            c.bump();
            c.add(41);
            c.record_max(97);
        }
        for c in counters::all() {
            assert_eq!(c.get(), 0, "counter {} touched while disabled", c.name());
        }
        // Latency histograms are gated on the same lookup: no cell moves
        // and the timer guard reads no clock.
        for h in hist::all() {
            h.record_ns(123);
            let _t = h.timer();
        }
        for h in hist::all() {
            assert_eq!(
                h.snapshot().count,
                0,
                "hist {} touched while disabled",
                h.name()
            );
        }
        // The decision log records only into an installed session.
        assert!(!decision::enabled());
        decision::record(decision::DecisionEvent::RowSolveFailed { row: 0 });
        // Spans are inert too: the guard carries no state.
        {
            let s = span("never-recorded");
            assert!(s.live.is_none(), "disabled span captured state");
        }
        // Runtime-execution metrics are equally inert: the machine
        // substrate's gate reads false, dispatch/array reports are
        // dropped, and no trace buffer is ever handed out — so
        // `run_parallel` with everything off allocates no ring buffers
        // and reads no clock.
        assert!(!exec_metrics_enabled());
        exec::record_dispatch(exec::Dispatch {
            name: "never".into(),
            items: 1,
            chunk_ns: vec![1],
            instances: vec![1],
        });
        exec::record_array("never", 1, 1, 1);
        assert!(trace::RingBuf::for_thread(1).is_none());
        // A session started after all of that sees none of it.
        let profile = Session::start().finish();
        assert!(profile.phases.is_empty());
        assert!(profile.exec.is_none(), "disabled exec reports recorded");
        assert!(profile.counters.iter().all(|c| c.value == 0));
    }

    #[test]
    fn session_records_counters_and_spans() {
        let session = Session::start();
        counters::ILP_PIVOTS.add(7);
        counters::FM_ROWS_PEAK.record_max(12);
        counters::FM_ROWS_PEAK.record_max(5); // lower: must not shrink
        {
            let _outer = span("a");
            let _inner = span("b");
        }
        {
            let _again = span("a");
        }
        let profile = session.finish();
        assert_eq!(profile.counter("ilp.pivots"), Some(7));
        assert_eq!(profile.counter("poly.fm_rows_peak"), Some(12));
        assert_eq!(profile.phase("a").unwrap().calls, 2);
        assert_eq!(profile.phase("a/b").unwrap().calls, 1);
        // Parents sort before children.
        let ia = profile.phases.iter().position(|p| p.path == "a").unwrap();
        let ib = profile.phases.iter().position(|p| p.path == "a/b").unwrap();
        assert!(ia < ib);
        // Counters include zero-valued entries (stable shape).
        assert_eq!(profile.counters.len(), counters::all().len());
    }

    #[test]
    fn finish_disables_recording() {
        let session = Session::start();
        counters::SCC_CUTS.bump();
        let p = session.finish();
        assert_eq!(p.counter("core.scc_cuts"), Some(1));
        // After finish the session is uninstalled: bumps go nowhere and
        // reads see no session.
        counters::SCC_CUTS.bump();
        assert_eq!(counters::SCC_CUTS.get(), 0);
        assert!(!enabled());
    }

    #[test]
    fn concurrent_sessions_are_isolated() {
        // Two threads each install their own session and bump the same
        // counter different amounts; each profile sees only its own.
        let barrier = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            let b = &barrier;
            let t1 = scope.spawn(move || {
                let session = Session::start();
                b.wait();
                counters::ILP_PIVOTS.add(3);
                {
                    let _s = span("one");
                }
                b.wait();
                session.finish()
            });
            let t2 = scope.spawn(move || {
                let session = Session::start();
                b.wait();
                counters::ILP_PIVOTS.add(40);
                {
                    let _s = span("two");
                }
                b.wait();
                session.finish()
            });
            let p1 = t1.join().unwrap();
            let p2 = t2.join().unwrap();
            assert_eq!(p1.counter("ilp.pivots"), Some(3));
            assert_eq!(p2.counter("ilp.pivots"), Some(40));
            assert!(p1.phase("one").is_some() && p1.phase("two").is_none());
            assert!(p2.phase("two").is_some() && p2.phase("one").is_none());
        });
    }

    #[test]
    fn install_nests_and_restores() {
        let outer = ObsSession::profiled();
        let inner = ObsSession::profiled();
        let _og = outer.install();
        counters::ILP_SOLVES.bump();
        {
            let _ig = inner.install();
            counters::ILP_SOLVES.add(10);
        }
        // Inner guard dropped: the outer session is current again.
        counters::ILP_SOLVES.bump();
        assert_eq!(outer.finish_profile().counter("ilp.solves"), Some(2));
        assert_eq!(inner.finish_profile().counter("ilp.solves"), Some(10));
    }

    #[test]
    fn panicking_compile_leaves_no_dangling_session() {
        // Drop-safety pin: a panic that unwinds through an open span and
        // an installed session must restore the thread-local slot, so
        // later work on this thread records nothing.
        let result = std::panic::catch_unwind(|| {
            let session = ObsSession::profiled();
            let _guard = session.install();
            let _span = span("doomed");
            panic!("mid-span failure");
        });
        assert!(result.is_err());
        assert!(ObsSession::current().is_none(), "session left installed");
        assert!(!enabled());
        counters::ILP_PIVOTS.bump();
        assert_eq!(counters::ILP_PIVOTS.get(), 0);
        // The thread is fully usable for a fresh session afterwards.
        let session = Session::start();
        counters::ILP_PIVOTS.add(2);
        assert_eq!(session.finish().counter("ilp.pivots"), Some(2));
    }

    #[test]
    fn session_ext_is_per_session_and_shared_within() {
        #[derive(Default)]
        struct Marker(Mutex<u32>);
        assert!(session_ext::<Marker>().is_none(), "ext without a session");
        let s1 = ObsSession::builder().build();
        let s2 = ObsSession::builder().build();
        {
            let _g = s1.install();
            let m = session_ext::<Marker>().expect("ext under session");
            *m.0.lock().unwrap() = 7;
            // Same session → same object.
            assert_eq!(*session_ext::<Marker>().unwrap().0.lock().unwrap(), 7);
        }
        {
            let _g = s2.install();
            // Different session → fresh state.
            assert_eq!(*session_ext::<Marker>().unwrap().0.lock().unwrap(), 0);
        }
    }

    #[test]
    fn json_round_trips_through_parser() {
        let session = Session::start();
        {
            let _s = span("phase-\"quoted\"");
            counters::ILP_SOLVES.bump();
        }
        let profile = session.finish();
        let text = profile.to_json(Some("kernel \"x\"\n")).to_pretty();
        let v = json::parse(&text).expect("emitted profile must be valid JSON");
        assert_eq!(v.get("schema").unwrap().as_str(), Some("pluto-profile/3"));
        assert_eq!(v.get("kernel").unwrap().as_str(), Some("kernel \"x\"\n"));
        // Compile-only session: the v2 `exec` section is explicit null.
        assert!(v.get("exec").unwrap().is_null());
        // The v3 `hists` section carries the full registry with all
        // buckets present, empty or not.
        let hists = v.get("hists").unwrap().as_array().unwrap();
        assert_eq!(hists.len(), hist::all().len());
        assert_eq!(
            hists[0].get("buckets").unwrap().as_array().unwrap().len(),
            hist::NUM_BUCKETS
        );
        let phases = v.get("phases").unwrap().as_array().unwrap();
        assert_eq!(phases.len(), 1);
        assert_eq!(
            phases[0].get("path").unwrap().as_str(),
            Some("phase-\"quoted\"")
        );
        let counters_j = v.get("counters").unwrap().as_array().unwrap();
        assert_eq!(counters_j.len(), counters::all().len());
        // to_json(None) emits a JSON null kernel.
        assert!(profile.to_json(None).get("kernel").unwrap().is_null());
    }

    #[test]
    fn exec_reports_land_in_profile_and_json() {
        let session = Session::start();
        exec::record_dispatch(exec::Dispatch {
            name: "c2".into(),
            items: 4,
            chunk_ns: vec![200, 100],
            instances: vec![3, 1],
        });
        exec::record_array("a", 10, 4, 1);
        exec::record_array("a", 10, 2, 0); // same name: accumulates
        let profile = session.finish();
        let e = profile.exec.as_ref().expect("exec section recorded");
        assert_eq!(e.dispatches, 1);
        assert_eq!(e.threads, 2);
        assert_eq!(e.instances_per_thread, vec![3, 1]);
        assert_eq!(e.arrays.len(), 1);
        assert_eq!(e.arrays[0].accesses, 20);
        assert_eq!(e.arrays[0].l1_misses, 6);
        let v = profile.to_json(None);
        let ej = v.get("exec").unwrap();
        assert_eq!(ej.get("dispatches").unwrap().as_u64(), Some(1));
        let arrays = ej.get("arrays").unwrap().as_array().unwrap();
        assert_eq!(arrays[0].get("name").unwrap().as_str(), Some("a"));
        assert_eq!(arrays[0].get("l1_miss_rate").unwrap().as_f64(), Some(0.3));
        // A fresh session has an empty accumulator.
        assert!(Session::start().finish().exec.is_none());
    }

    #[test]
    fn table_renders_phases_and_nonzero_counters() {
        let session = Session::start();
        {
            let _s = span("render-me");
        }
        counters::ILP_CUTS.add(3);
        let t = session.finish().render_table();
        assert!(t.contains("render-me"));
        assert!(t.contains("ilp.gomory_cuts"));
        assert!(
            !t.contains("machine.instances"),
            "zero counters hidden:\n{t}"
        );
    }

    #[test]
    fn fmt_ns_units() {
        assert_eq!(fmt_ns(17), "17ns");
        assert_eq!(fmt_ns(1_500), "1.5µs");
        assert_eq!(fmt_ns(2_500_000), "2.50ms");
        assert_eq!(fmt_ns(3_210_000_000), "3.21s");
    }
}
