//! The `plutod` compile service: many compiles, one process, aggregate
//! observability (ROADMAP item 4, DESIGN.md §12).
//!
//! [`pluto_schedule`](crate::pluto_schedule) made the compiler
//! re-entrant — every compile runs under a private
//! [`ObsSession`]. This module is the layer
//! above: a [`Daemon`] that serves newline-delimited JSON requests
//! (`pluto-rpc/1`), one compile session per request, and merges each
//! finished session's [`Profile`] into a process-wide
//! [`ServiceMetrics`] aggregate. Three methods:
//!
//! * `compile` — affine C source in, transformed OpenMP C out, plus the
//!   request's own `pluto-profile/3` and `pluto-explain/1` documents;
//! * `stats` — the live `pluto-stats/1` aggregate: request/error/cache
//!   totals, summed counters, merged histograms with p50/p90/p99, and a
//!   rolling whole-compile latency histogram. By construction every
//!   total is *exactly* the sum over the served per-request profiles
//!   (the aggregation invariant — see [`pluto_obs::aggregate`]);
//! * `health` — liveness, uptime, and thread-pool state.
//!
//! Every request also produces one single-line `pluto-log/1` document
//! (request id, kernel FNV-1a hash, cache hit/miss, phase breakdown,
//! top counters) which the `plutod` binary prints to stderr. Schemas
//! for all three documents are pinned in PERFORMANCE.md §5.6–5.7 and
//! `tests/daemon_golden.rs`.
//!
//! # The schedule cache
//!
//! The service path the paper's Sec. 7 practicality argument cares
//! about — many users compiling the same few stencils — is served by a
//! content-addressed schedule cache with two probe levels:
//!
//! 1. an exact source+options memo, hit without parsing;
//! 2. a content key over the *canonicalized dependence polyhedra*
//!    (every [`Dependence`] reduced to `src/dst/kind/level` plus its
//!    polyhedron's [`poly::cache::key_of`](pluto_poly::cache::key_of)
//!    canonical form — row order and equality-row sign erased), the
//!    program structure, and the options fingerprint. Two sources that
//!    parse to the same computation reuse one schedule, and a colliding
//!    digest cannot serve wrong code because the canonical forms
//!    themselves are the key.
//!
//! Capacity is bounded ([`Daemon::with_cache_cap`]); at the cap the
//! oldest entry is evicted FIFO and counted. Hits, misses, and
//! evictions are visible per-request in `pluto-log/1` and in aggregate
//! in `pluto-stats/1`.

use crate::compile::{compile, set_option};
use pluto::Optimizer;
use pluto_frontend::parse_unit;
use pluto_ir::{Dependence, Program};
use pluto_obs::aggregate::{fnv1a, ServiceMetrics};
use pluto_obs::json::{self, arr, num, obj, string, Json};
use pluto_obs::{counters_json, ObsSession, Profile};
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Default bound on resident schedule-cache entries (each holds one
/// kernel's generated C and explain report — a few KiB).
pub const DEFAULT_CACHE_CAP: usize = 1024;

/// The optimizer a request's `options` object asks for (`None`, `null`
/// or an absent field mean all defaults): the fields are `plutoc`'s
/// code-changing flags under the same names (`{"tile": 16, "nofuse":
/// true}` ≙ `plutoc --tile 16 --nofuse`, see [`set_option`]). Everything
/// else stays at [`Optimizer::new`]'s defaults — in particular
/// dependence analysis runs single-threaded with pruning on: the service
/// keeps per-request counters deterministic (a racing analysis team
/// makes `ilp.cache_*` scheduling-dependent), and generated code is
/// bit-identical to `plutoc --threads 1` on the same source.
fn request_optimizer(options: Option<&Json>) -> Result<Optimizer, String> {
    let mut opt = Optimizer::new();
    match options {
        None | Some(Json::Null) => {}
        Some(Json::Object(fields)) => {
            for (name, value) in fields {
                set_option(&mut opt, name, value)?;
            }
        }
        Some(_) => return Err("`options` must be an object".to_string()),
    }
    Ok(opt)
}

/// One dependence reduced to its canonical identity: endpoints, kind,
/// carry level, and the polyhedron's canonical form (row order and
/// equality-row sign erased by
/// [`poly::cache::key_of`](pluto_poly::cache::key_of)).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct DepKey {
    src: usize,
    dst: usize,
    kind: &'static str,
    level: usize,
    poly: pluto_poly::cache::Key,
}

/// The content address of one schedule: canonicalized dependence
/// polyhedra + program structure + options fingerprint. The full
/// canonical content is the key (no digests — a collision could serve
/// wrong code), mirroring `poly::cache`'s keying discipline.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ContentKey {
    options: String,
    program: String,
    deps: Vec<DepKey>,
}

impl ContentKey {
    /// Computes the content address of a compile about to run: the
    /// analyzed dependences in analysis order (each canonicalized), the
    /// program's full structural fingerprint, and the options
    /// fingerprint.
    fn of(prog: &Program, deps: &[Dependence], options_fp: &str) -> ContentKey {
        ContentKey {
            options: options_fp.to_string(),
            program: format!("{prog:?}"),
            deps: deps
                .iter()
                .map(|d| DepKey {
                    src: d.src,
                    dst: d.dst,
                    kind: match d.kind {
                        pluto_ir::DepKind::Flow => "flow",
                        pluto_ir::DepKind::Anti => "anti",
                        pluto_ir::DepKind::Output => "output",
                        pluto_ir::DepKind::Input => "input",
                    },
                    level: d.level,
                    poly: pluto_poly::cache::key_of(&d.poly),
                })
                .collect(),
        }
    }
}

/// One cached schedule: everything a repeat request needs that does not
/// depend on the request itself.
#[derive(Debug)]
struct Entry {
    kernel: String,
    code: String,
    /// The `pluto-explain/1` document as `to_compact` text, spliced into
    /// every response that serves this entry ([`Json::Raw`]).
    explain: Arc<str>,
}

/// The bounded two-level schedule cache (interior of
/// [`Daemon::cache`]).
#[derive(Debug)]
struct ScheduleCache {
    cap: usize,
    /// Content address → schedule.
    by_content: HashMap<Arc<ContentKey>, Arc<Entry>>,
    /// Exact `(source, options fingerprint)` memo → content address;
    /// the fast path that skips parsing and dependence analysis.
    by_source: HashMap<(String, String), Arc<ContentKey>>,
    /// Content keys in insertion order — the FIFO eviction queue.
    order: VecDeque<Arc<ContentKey>>,
}

impl ScheduleCache {
    fn new(cap: usize) -> ScheduleCache {
        ScheduleCache {
            cap: cap.max(1),
            by_content: HashMap::new(),
            by_source: HashMap::new(),
            order: VecDeque::new(),
        }
    }

    fn lookup_source(&mut self, key: &(String, String)) -> Option<Arc<Entry>> {
        let content = self.by_source.get(key)?;
        match self.by_content.get(content) {
            Some(entry) => Some(entry.clone()),
            None => {
                // The memo outlived its evicted entry; drop it.
                self.by_source.remove(key);
                None
            }
        }
    }

    fn lookup_content(&self, key: &ContentKey) -> Option<Arc<Entry>> {
        self.by_content.get(key).cloned()
    }

    fn memoize_source(&mut self, source_key: (String, String), content: &ContentKey) {
        if let Some((resident, _)) = self.by_content.get_key_value(content) {
            self.by_source.insert(source_key, resident.clone());
        }
    }

    /// Inserts a fresh schedule under both levels; returns how many
    /// entries were evicted to stay within `cap`.
    fn insert(
        &mut self,
        source_key: (String, String),
        content: ContentKey,
        entry: Arc<Entry>,
    ) -> u64 {
        // Two concurrent first-compiles of the same content race here;
        // keep the entry that landed first and just add the memo.
        if self.by_content.contains_key(&content) {
            self.memoize_source(source_key, &content);
            return 0;
        }
        let mut evicted = 0u64;
        while self.by_content.len() >= self.cap {
            let Some(oldest) = self.order.pop_front() else {
                break;
            };
            if self.by_content.remove(&oldest).is_some() {
                self.by_source.retain(|_, c| **c != *oldest);
                evicted += 1;
            }
        }
        let content = Arc::new(content);
        self.order.push_back(content.clone());
        self.by_source.insert(source_key, content.clone());
        self.by_content.insert(content, entry);
        evicted
    }

    fn len(&self) -> usize {
        self.by_content.len()
    }
}

/// A handled request: the one-line `pluto-rpc/1` response (for the
/// client) and the one-line `pluto-log/1` record (for stderr).
#[derive(Debug, Clone)]
pub struct Handled {
    /// Single-line JSON response, no trailing newline.
    pub response: String,
    /// Single-line JSON log record, no trailing newline.
    pub log: String,
}

/// The compile service: shared, thread-safe state behind `plutod`.
/// Transport-agnostic — [`handle_line`](Daemon::handle_line) maps one
/// request line to one response line, whatever carried it (stdin, a
/// Unix socket, or a test driving the daemon in-process).
#[derive(Debug)]
pub struct Daemon {
    metrics: ServiceMetrics,
    cache: Mutex<ScheduleCache>,
    started: Instant,
}

impl Default for Daemon {
    fn default() -> Daemon {
        Daemon::new()
    }
}

/// What one `compile` produced, before it is shaped into response and
/// log documents.
struct Served {
    entry: Arc<Entry>,
    cache_hit: bool,
}

impl Daemon {
    /// A daemon with the default schedule-cache capacity.
    pub fn new() -> Daemon {
        Daemon::with_cache_cap(DEFAULT_CACHE_CAP)
    }

    /// A daemon whose schedule cache holds at most `cap` entries
    /// (minimum 1); the oldest entry is evicted FIFO at the bound.
    pub fn with_cache_cap(cap: usize) -> Daemon {
        Daemon {
            metrics: ServiceMetrics::new(),
            cache: Mutex::new(ScheduleCache::new(cap)),
            started: Instant::now(),
        }
    }

    /// The live service aggregate (the state behind `stats`).
    pub fn metrics(&self) -> &ServiceMetrics {
        &self.metrics
    }

    /// Resident schedule-cache entries.
    pub fn cache_len(&self) -> usize {
        self.cache.lock().expect("schedule cache poisoned").len()
    }

    /// Handles one `pluto-rpc/1` request line, producing one response
    /// line and one `pluto-log/1` record. Malformed requests produce
    /// `"ok": false` responses, never panics — a service stays up.
    /// Safe to call from any number of threads at once.
    pub fn handle_line(&self, line: &str) -> Handled {
        let start = Instant::now();
        let request = match json::parse(line) {
            Ok(v) => v,
            Err(e) => {
                return self.finish(
                    Json::Null,
                    "invalid",
                    start,
                    Err(format!("bad JSON: {e}")),
                    None,
                )
            }
        };
        let id = request.get("id").cloned().unwrap_or(Json::Null);
        let method = request
            .get("method")
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_string();
        match method.as_str() {
            "compile" => self.handle_compile(id, &request, start),
            "stats" => {
                let (entries, capacity) = {
                    let cache = self.cache.lock().expect("schedule cache poisoned");
                    (cache.len(), cache.cap)
                };
                let stats = self.metrics.stats_json(entries, capacity);
                self.finish(id, "stats", start, Ok(stats), None)
            }
            "health" => {
                let health = obj([
                    ("status", string("ok")),
                    ("uptime_ns", num(self.started.elapsed().as_nanos())),
                    ("requests", num(self.metrics.requests())),
                    ("errors", num(self.metrics.errors())),
                    ("pool_workers", num(pluto_pool::spawn_count())),
                    ("cache_entries", num(self.cache_len())),
                ]);
                self.finish(id, "health", start, Ok(health), None)
            }
            "" => self.finish(
                id,
                "invalid",
                start,
                Err("missing `method`".to_string()),
                None,
            ),
            other => self.finish(
                id,
                other,
                start,
                Err(format!(
                    "unknown method `{other}` (expected compile|stats|health)"
                )),
                None,
            ),
        }
    }

    fn handle_compile(&self, id: Json, request: &Json, start: Instant) -> Handled {
        let Some(source) = request.get("source").and_then(Json::as_str) else {
            self.metrics.record_error();
            return self.finish(
                id,
                "compile",
                start,
                Err("compile expects a string `source`".to_string()),
                None,
            );
        };
        let optimizer = match request_optimizer(request.get("options")) {
            Ok(o) => o,
            Err(e) => {
                self.metrics.record_error();
                return self.finish(id, "compile", start, Err(e), None);
            }
        };
        // Like plutoc's file-stem kernel label: requests may name the
        // kernel for logs/profiles; unnamed ones use the program's name.
        let label = request
            .get("kernel")
            .and_then(Json::as_str)
            .map(str::to_string);

        // This request's private observability context: every counter,
        // span, and histogram sample between here and `finish_profile`
        // belongs to this request alone.
        let obs = ObsSession::builder().profile().decisions().build();
        let guard = obs.install();
        let served = self.serve(source, &optimizer);
        drop(guard);
        let profile = obs.finish_profile();

        match served {
            Ok(compiled) => {
                // The aggregation invariant lives here: the service
                // absorbs exactly the profile the client is handed.
                self.metrics.record(&profile);
                if compiled.cache_hit {
                    self.metrics.record_cache_hit();
                } else {
                    self.metrics.record_cache_miss();
                }
                let detail = CompileDetail {
                    kernel: label.unwrap_or_else(|| compiled.entry.kernel.clone()),
                    source_fnv: fnv1a(source.as_bytes()),
                    cache_hit: compiled.cache_hit,
                    profile,
                    entry: compiled.entry,
                };
                self.finish(
                    id,
                    "compile",
                    start,
                    Ok(detail.result_json()),
                    Some(&detail),
                )
            }
            Err(e) => {
                self.metrics.record_error();
                self.finish(id, "compile", start, Err(e), None)
            }
        }
    }

    /// The compile itself, under the caller's installed session: probe
    /// the source memo, else parse + analyze and probe the content
    /// address, else [`compile`] and populate both levels.
    fn serve(&self, source: &str, optimizer: &Optimizer) -> Result<Served, String> {
        // Every knob of the optimizer, by construction: two requests
        // share cached schedules iff this (and the content) match.
        let fp = format!("{optimizer:?}");
        let source_key = (source.to_string(), fp.clone());
        {
            let mut cache = self.cache.lock().expect("schedule cache poisoned");
            if let Some(entry) = cache.lookup_source(&source_key) {
                return Ok(Served {
                    entry,
                    cache_hit: true,
                });
            }
        }
        let unit = parse_unit(source).map_err(|e| e.to_string())?;
        let prog = unit.program;
        let deps = optimizer.dependences(&prog);
        let content = ContentKey::of(&prog, &deps, &fp);
        {
            let mut cache = self.cache.lock().expect("schedule cache poisoned");
            if let Some(entry) = cache.lookup_content(&content) {
                cache.memoize_source(source_key, &content);
                return Ok(Served {
                    entry,
                    cache_hit: true,
                });
            }
        }
        let compiled = compile(&prog, Some(deps), optimizer)
            .map_err(|e| format!("transformation failed: {e}"))?;
        let entry = Arc::new(Entry {
            kernel: prog.name.clone(),
            code: compiled.code(),
            explain: compiled.explain_json(&prog.name).to_compact().into(),
        });
        let evicted = self.cache.lock().expect("schedule cache poisoned").insert(
            source_key,
            content,
            entry.clone(),
        );
        if evicted > 0 {
            self.metrics.record_cache_evictions(evicted);
        }
        Ok(Served {
            entry,
            cache_hit: false,
        })
    }

    /// Shapes the outcome into the response + log pair. One exit point
    /// so that *every* request — including malformed ones — produces
    /// exactly one `pluto-rpc/1` line and one `pluto-log/1` line.
    fn finish(
        &self,
        id: Json,
        method: &str,
        start: Instant,
        outcome: Result<Json, String>,
        detail: Option<&CompileDetail>,
    ) -> Handled {
        let wall_ns = start.elapsed().as_nanos();
        let mut log_fields = vec![
            ("schema", string("pluto-log/1")),
            ("id", id.clone()),
            ("method", string(method)),
            (
                "status",
                string(if outcome.is_ok() { "ok" } else { "error" }),
            ),
            ("wall_ns", num(wall_ns)),
        ];
        if let Some(d) = detail {
            let phases = d
                .profile
                .phases
                .iter()
                .map(|p| obj([("path", string(&*p.path)), ("wall_ns", num(p.wall_ns))]));
            // The request's heaviest counters, largest first — enough to
            // see at a glance where a slow compile spent its work.
            let mut top: Vec<_> = d.profile.counters.iter().filter(|c| c.value > 0).collect();
            top.sort_by(|a, b| b.value.cmp(&a.value).then(a.name.cmp(b.name)));
            log_fields.extend([
                ("kernel", string(&*d.kernel)),
                ("kernel_fnv", d.kernel_fnv()),
                ("cache", d.cache()),
                ("phases", arr(phases)),
                (
                    "counters",
                    counters_json(top.iter().take(5).map(|c| (c.name, c.value))),
                ),
            ]);
        }
        let (ok, payload) = match outcome {
            Ok(result) => (true, ("result", result)),
            Err(e) => {
                log_fields.push(("error", string(&*e)));
                (false, ("error", string(e)))
            }
        };
        let response = obj([
            ("schema", string("pluto-rpc/1")),
            ("id", id),
            ("ok", Json::Bool(ok)),
            payload,
        ]);
        Handled {
            response: response.to_compact(),
            log: obj(log_fields).to_compact(),
        }
    }
}

/// The compile-specific facts [`Daemon::finish`] folds into the result
/// and log documents.
struct CompileDetail {
    kernel: String,
    source_fnv: u64,
    cache_hit: bool,
    profile: Profile,
    entry: Arc<Entry>,
}

impl CompileDetail {
    fn kernel_fnv(&self) -> Json {
        string(format!("{:016x}", self.source_fnv))
    }

    fn cache(&self) -> Json {
        string(if self.cache_hit { "hit" } else { "miss" })
    }

    fn result_json(&self) -> Json {
        obj([
            ("kernel", string(&*self.kernel)),
            ("kernel_fnv", self.kernel_fnv()),
            ("cache", self.cache()),
            ("code", string(&*self.entry.code)),
            ("profile", self.profile.to_json(Some(&self.kernel))),
            ("explain", Json::Raw(self.entry.explain.clone())),
        ])
    }
}
