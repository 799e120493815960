//! Service-level aggregation: merging many per-compile profiles into
//! one live set of service metrics (DESIGN.md §12).
//!
//! An [`ObsSession`](crate::ObsSession) observes *one* compile; a
//! compile **service** (`plutod`) runs thousands and must observe
//! itself in aggregate — total solver work, merged latency
//! distributions, whole-compile latency quantiles, request/error/cache
//! totals — without ever letting one request's telemetry contaminate
//! another's. [`ServiceMetrics`] is that second layer, a mergeable
//! accumulator: [`record`]ing a finished [`Profile`] sums its counters
//! into atomic cells, adds its histograms bucket-wise, accumulates its
//! phase times, and drops its total wall time into a rolling
//! whole-compile latency histogram.
//!
//! # The aggregation invariant
//!
//! Because [`record`] *adds the profile and nothing else* — counters
//! by `fetch_add`, histograms bucket-by-bucket, phases call-by-call —
//! the service totals are **exactly** the component-wise sum of the
//! recorded per-request profiles, under any interleaving of
//! concurrent recorders. `pluto-stats/1` (the [`stats_json`] document)
//! therefore equals the sum over the served `pluto-profile/3`
//! documents by construction; `tests/daemon_golden.rs` and the ci.sh
//! daemon smoke re-derive the sum from the wire documents and assert
//! equality.
//!
//! [`record`]: ServiceMetrics::record
//! [`stats_json`]: ServiceMetrics::stats_json

use crate::hist::{self, HistSnapshot};
use crate::json::{num, obj, string, Json};
use crate::{counters, counters_json, phases_json, Phase, Profile};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// FNV-1a over `bytes` — the workspace's hermetic stand-in for a real
/// content digest (no external crates, stable across platforms). Used
/// for the bench `meta.kernel_set_hash`, the daemon's `pluto-log/1`
/// kernel hashes, and the display form of schedule-cache content keys.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Live, mergeable service metrics: the state behind `plutod`'s `stats`
/// method (`pluto-stats/1`).
///
/// All hot-path recording is lock-cheap: counter sums and the rolling
/// latency histogram are relaxed atomics, request/error/cache totals
/// are single `fetch_add`s; only the phase-path table (a handful of
/// short strings) takes a mutex. Any number of request threads may
/// [`record`](ServiceMetrics::record) concurrently.
#[derive(Debug)]
pub struct ServiceMetrics {
    /// Service epoch: `uptime_ns` origin.
    started: Instant,
    /// Compile requests aggregated (successful compiles, cache hits
    /// included).
    requests: AtomicU64,
    /// Compile requests that failed (parse error, infeasible search);
    /// their partial telemetry is *not* aggregated, so the invariant
    /// ranges over exactly the successful per-request profiles.
    errors: AtomicU64,
    /// Schedule-cache hits across all compile requests.
    cache_hits: AtomicU64,
    /// Schedule-cache misses (full compiles).
    cache_misses: AtomicU64,
    /// Schedule-cache entries evicted at capacity.
    cache_evictions: AtomicU64,
    /// Σ per-request counter values, indexed like `counters::all()`.
    counters: Box<[AtomicU64]>,
    /// Σ per-request histograms, merged bucket-wise (registry order),
    /// plus accumulated phases.
    merged_hists: Mutex<Vec<HistSnapshot>>,
    /// Accumulated phase wall-times, sorted by path (parents before
    /// children, like [`Profile::phases`]).
    merged_phases: Mutex<Vec<Phase>>,
    /// Rolling whole-compile latency histogram: one
    /// [`Profile::total_ns`] sample per recorded request.
    latency: hist::Cells,
}

impl Default for ServiceMetrics {
    fn default() -> ServiceMetrics {
        ServiceMetrics::new()
    }
}

impl ServiceMetrics {
    /// A fresh, all-zero aggregate; its uptime clock starts now.
    pub fn new() -> ServiceMetrics {
        ServiceMetrics {
            started: Instant::now(),
            requests: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            cache_evictions: AtomicU64::new(0),
            counters: (0..counters::all().len())
                .map(|_| AtomicU64::new(0))
                .collect(),
            merged_hists: Mutex::new(
                hist::all()
                    .iter()
                    .map(|h| HistSnapshot {
                        name: h.name(),
                        count: 0,
                        sum_ns: 0,
                        buckets: vec![0; hist::NUM_BUCKETS],
                    })
                    .collect(),
            ),
            merged_phases: Mutex::new(Vec::new()),
            latency: hist::Cells::new(),
        }
    }

    /// Merges one request's profile into the service totals: counters
    /// sum (both sides are in registry order), histograms add
    /// bucket-wise, phase times accumulate, and the profile's `total_ns`
    /// lands in the rolling whole-compile latency histogram. Adds the
    /// profile and nothing else — the aggregation invariant (service ==
    /// Σ profiles) holds by construction.
    pub fn record(&self, profile: &Profile) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        for (cell, c) in self.counters.iter().zip(&profile.counters) {
            cell.fetch_add(c.value, Ordering::Relaxed);
        }
        self.latency
            .record_ns(u64::try_from(profile.total_ns).unwrap_or(u64::MAX));
        {
            let mut hists = self.merged_hists.lock().expect("service hists poisoned");
            for (mine, theirs) in hists.iter_mut().zip(&profile.hists) {
                mine.merge(theirs);
            }
        }
        let mut merged = self.merged_phases.lock().expect("service phases poisoned");
        for p in &profile.phases {
            match merged.iter_mut().find(|m| m.path == p.path) {
                Some(m) => {
                    m.calls += p.calls;
                    m.wall_ns += p.wall_ns;
                }
                None => merged.push(p.clone()),
            }
        }
        merged.sort_by(|a, b| a.path.cmp(&b.path));
    }

    /// Counts one failed compile request (nothing else is merged for
    /// it; see [`errors`](ServiceMetrics::errors)).
    pub fn record_error(&self) {
        self.errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one schedule-cache hit.
    pub fn record_cache_hit(&self) {
        self.cache_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one schedule-cache miss.
    pub fn record_cache_miss(&self) {
        self.cache_misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts `n` schedule-cache evictions.
    pub fn record_cache_evictions(&self, n: u64) {
        self.cache_evictions.fetch_add(n, Ordering::Relaxed);
    }

    /// Compile requests recorded so far (cache hits included).
    pub fn requests(&self) -> u64 {
        self.requests.load(Ordering::Relaxed)
    }

    /// Failed compile requests counted so far.
    pub fn errors(&self) -> u64 {
        self.errors.load(Ordering::Relaxed)
    }

    /// Schedule-cache `(hits, misses, evictions)` totals.
    pub fn cache_totals(&self) -> (u64, u64, u64) {
        (
            self.cache_hits.load(Ordering::Relaxed),
            self.cache_misses.load(Ordering::Relaxed),
            self.cache_evictions.load(Ordering::Relaxed),
        )
    }

    /// The summed value of one registry counter by name (`None` for
    /// unknown names).
    pub fn counter(&self, name: &str) -> Option<u64> {
        counters::all()
            .iter()
            .position(|c| c.name() == name)
            .map(|i| self.counters[i].load(Ordering::Relaxed))
    }

    /// The rolling whole-compile latency histogram (one sample per
    /// recorded request).
    pub fn latency(&self) -> HistSnapshot {
        self.latency.snapshot("service.latency.compile")
    }

    /// The aggregate as a `pluto-stats/1` document (PERFORMANCE.md
    /// §5.6). `cache_entries`/`cache_capacity` describe the schedule
    /// cache's current occupancy — the one piece of service state that
    /// lives outside this accumulator.
    ///
    /// Counter and histogram sections carry the full registries in
    /// registry order, zeros included, exactly like `pluto-profile/3` —
    /// and every value is the exact sum of the recorded per-request
    /// profiles. `latency` and `hists` add p50/p90/p99 estimates from
    /// the log2 buckets ([`hist::quantile_from_buckets`]).
    pub fn stats_json(&self, cache_entries: usize, cache_capacity: usize) -> Json {
        const QUANTILES: &[(&str, f64)] = &[("p50_ns", 0.50), ("p90_ns", 0.90), ("p99_ns", 0.99)];
        let (hits, misses, evictions) = self.cache_totals();
        let phases = phases_json(&self.merged_phases.lock().expect("service phases poisoned"));
        let hists = hist::hists_json(
            &self.merged_hists.lock().expect("service hists poisoned"),
            QUANTILES,
        );
        let counters = counters::all()
            .iter()
            .zip(&self.counters)
            .map(|(c, cell)| (c.name(), cell.load(Ordering::Relaxed)));
        obj([
            ("schema", string("pluto-stats/1")),
            ("uptime_ns", num(self.started.elapsed().as_nanos())),
            ("requests", num(self.requests())),
            ("errors", num(self.errors())),
            (
                "cache",
                obj([
                    ("hits", num(hits)),
                    ("misses", num(misses)),
                    ("evictions", num(evictions)),
                    ("entries", num(cache_entries)),
                    ("capacity", num(cache_capacity)),
                ]),
            ),
            ("latency", obj(self.latency().json_fields(QUANTILES))),
            ("phases", phases),
            ("counters", counters_json(counters)),
            ("hists", hists),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{span, Session};

    /// A real compiled-ish profile: run a tiny session, bump counters.
    fn sample_profile(pivots: u64, ns: u64) -> Profile {
        let session = Session::start();
        counters::ILP_PIVOTS.add(pivots);
        hist::SEARCH_ROW.record_ns(ns);
        {
            let _s = span("optimize");
        }
        session.finish()
    }

    #[test]
    fn fnv1a_is_the_reference_function() {
        // Pinned reference vectors (FNV-1a 64).
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn service_totals_are_exact_sums() {
        let metrics = ServiceMetrics::new();
        let a = sample_profile(3, 100);
        let b = sample_profile(39, 900);
        metrics.record(&a);
        metrics.record(&b);
        assert_eq!(metrics.requests(), 2);
        assert_eq!(metrics.counter("ilp.pivots"), Some(42));
        assert_eq!(metrics.counter("core.scc_cuts"), Some(0));
        assert_eq!(metrics.counter("no.such.counter"), None);
        // Histograms merged bucket-wise: 2 samples total.
        let stats = metrics.stats_json(0, 8);
        let hists = stats.get("hists").unwrap().as_array().unwrap();
        let sr = hists
            .iter()
            .find(|h| h.get("name").unwrap().as_str() == Some("ilp.latency.search_row"))
            .unwrap();
        assert_eq!(sr.get("count").unwrap().as_u64(), Some(2));
        // Phase calls accumulate.
        let phases = stats.get("phases").unwrap().as_array().unwrap();
        let opt = phases
            .iter()
            .find(|p| p.get("path").unwrap().as_str() == Some("optimize"))
            .unwrap();
        assert_eq!(opt.get("calls").unwrap().as_u64(), Some(2));
        // The rolling latency histogram has one sample per request.
        assert_eq!(metrics.latency().count, 2);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let metrics = ServiceMetrics::new();
        let snaps: Vec<Profile> = (0..16).map(|i| sample_profile(i + 1, 50)).collect();
        std::thread::scope(|scope| {
            for chunk in snaps.chunks(4) {
                let m = &metrics;
                scope.spawn(move || {
                    for s in chunk {
                        m.record(s);
                    }
                });
            }
        });
        // Σ (1..=16) = 136, under any interleaving.
        assert_eq!(metrics.requests(), 16);
        assert_eq!(metrics.counter("ilp.pivots"), Some(136));
        assert_eq!(metrics.latency().count, 16);
    }

    #[test]
    fn stats_document_is_valid_and_versioned() {
        let metrics = ServiceMetrics::new();
        metrics.record(&sample_profile(7, 300));
        metrics.record_error();
        metrics.record_cache_hit();
        metrics.record_cache_miss();
        metrics.record_cache_evictions(2);
        let v = metrics.stats_json(5, 64);
        assert_eq!(v.get("schema").unwrap().as_str(), Some("pluto-stats/1"));
        assert_eq!(v.get("requests").unwrap().as_u64(), Some(1));
        assert_eq!(v.get("errors").unwrap().as_u64(), Some(1));
        let cache = v.get("cache").unwrap();
        assert_eq!(cache.get("hits").unwrap().as_u64(), Some(1));
        assert_eq!(cache.get("misses").unwrap().as_u64(), Some(1));
        assert_eq!(cache.get("evictions").unwrap().as_u64(), Some(2));
        assert_eq!(cache.get("entries").unwrap().as_u64(), Some(5));
        assert_eq!(cache.get("capacity").unwrap().as_u64(), Some(64));
        // Full registries, in order, zeros included — same contract as
        // pluto-profile/3.
        let cs = v.get("counters").unwrap().as_array().unwrap();
        assert_eq!(cs.len(), counters::all().len());
        let hs = v.get("hists").unwrap().as_array().unwrap();
        assert_eq!(hs.len(), hist::all().len());
        let lat = v.get("latency").unwrap();
        assert_eq!(lat.get("count").unwrap().as_u64(), Some(1));
        assert!(lat.get("p50_ns").unwrap().as_u64().unwrap() > 0);
        assert_eq!(
            lat.get("buckets").unwrap().as_array().unwrap().len(),
            hist::NUM_BUCKETS
        );
    }
}
