//! Log2-bucketed latency histograms for the optimizer's ILP call sites.
//!
//! The [`counters`](crate::counters) registry says *how many* ILPs the
//! search solved; these histograms say how the *latency* of those solves
//! is distributed, keyed by call site:
//!
//! * [`LEGALITY`] — building one dependence's legality system
//!   (`delta_form` + Farkas elimination);
//! * [`BOUNDING`] — building one bounding-function system (Eq. 6);
//! * [`SEARCH_ROW`] — one lexmin ILP solve for a scattering row;
//! * [`EMPTINESS`] — one polyhedron-emptiness ILP probe
//!   (`ConstraintSet::is_empty`'s feasibility check; probes answered by
//!   the solver cache record no sample — the histogram counts solves
//!   actually paid for);
//! * [`SEARCH_ROW_WARM`] — one warm-started lexmin solve for a
//!   scattering row (basis reused from the band's base tableau).
//!
//! Buckets are powers of two in nanoseconds: bucket `i` counts samples
//! with `2^i <= ns < 2^(i+1)` (bucket 0 also catches 0–1 ns, the last
//! bucket is open-ended). Like the counters, each [`Hist`] is a
//! stateless descriptor naming a cell block in the session
//! installed on the recording thread — one relaxed atomic load when no
//! session exists, and [`Hist::timer`] reads no clock then. Snapshots
//! are rendered in `--profile` and serialized in the `hists` section of
//! `pluto-profile/3` (bucket spec in PERFORMANCE.md).
//!
//! ```
//! let session = pluto_obs::Session::start();
//! {
//!     let _t = pluto_obs::hist::SEARCH_ROW.timer();
//!     // ... solve ...
//! }
//! pluto_obs::hist::EMPTINESS.record_ns(900);
//! let profile = session.finish();
//! let h = profile.hist("ilp.latency.emptiness").unwrap();
//! assert_eq!(h.count, 1);
//! assert_eq!(h.buckets[9], 1); // 2^9 = 512 <= 900 < 1024
//! ```

use crate::json::{arr, num, nums, obj, string, Json};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Number of log2 buckets; the last bucket (`2^31` ns ≈ 2.1 s and up)
/// is open-ended.
pub const NUM_BUCKETS: usize = 32;

/// One histogram's per-session storage: bucket cells plus the latency
/// sum. Each [`ObsSession`](crate::ObsSession) owns [`NUM`] of these.
#[derive(Debug)]
pub(crate) struct Cells {
    buckets: [AtomicU64; NUM_BUCKETS],
    sum_ns: AtomicU64,
}

impl Cells {
    pub(crate) fn new() -> Cells {
        Cells {
            buckets: [const { AtomicU64::new(0) }; NUM_BUCKETS],
            sum_ns: AtomicU64::new(0),
        }
    }

    pub(crate) fn record_ns(&self, ns: u64) {
        self.buckets[bucket_index(ns)].fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
    }

    pub(crate) fn snapshot(&self, name: &'static str) -> HistSnapshot {
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        HistSnapshot {
            name,
            count: buckets.iter().sum(),
            sum_ns: self.sum_ns.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// A log2-bucketed latency histogram descriptor, registered as a static
/// like a [`Counter`](crate::counters::Counter); samples land in the
/// cells of the session installed on the recording thread.
#[derive(Debug)]
pub struct Hist {
    name: &'static str,
    index: usize,
}

impl Hist {
    /// The registry name, e.g. `"ilp.latency.search_row"`.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// This histogram's slot in every session's cell block.
    #[inline]
    pub(crate) fn index(&self) -> usize {
        self.index
    }

    /// Records one sample into the current session. When no session
    /// records on this thread this is a single relaxed flag load.
    #[inline]
    pub fn record_ns(&self, ns: u64) {
        crate::with_profiling(|s| s.hists[self.index].record_ns(ns));
    }

    /// Starts a latency measurement that records into this histogram
    /// when the returned guard drops. Reads no clock while no session
    /// records.
    #[must_use = "the sample is recorded when the guard drops"]
    pub fn timer(&'static self) -> Timer {
        Timer {
            hist: self,
            start: crate::enabled().then(Instant::now),
        }
    }

    /// Snapshots this histogram's cells in the current thread's session
    /// (an empty snapshot when none is installed).
    pub fn snapshot(&self) -> HistSnapshot {
        match crate::current_state() {
            Some(s) => s.hists[self.index].snapshot(self.name),
            None => HistSnapshot {
                name: self.name,
                count: 0,
                sum_ns: 0,
                buckets: vec![0; NUM_BUCKETS],
            },
        }
    }
}

/// RAII latency guard returned by [`Hist::timer`].
pub struct Timer {
    hist: &'static Hist,
    /// `None` while disabled: no clock read on either end.
    start: Option<Instant>,
}

impl Drop for Timer {
    fn drop(&mut self) {
        if let Some(start) = self.start.take() {
            self.hist
                .record_ns(u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX));
        }
    }
}

/// Bucket index for a sample: `floor(log2(ns))`, clamped to the table.
#[inline]
fn bucket_index(ns: u64) -> usize {
    if ns < 2 {
        0
    } else {
        ((63 - ns.leading_zeros()) as usize).min(NUM_BUCKETS - 1)
    }
}

/// Inclusive lower bound of bucket `i` in nanoseconds (`0` for bucket 0,
/// else `2^i`).
pub fn bucket_lo(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        1u64 << i
    }
}

/// One histogram's cells at [`Session::finish`](crate::Session::finish)
/// time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Registry name, e.g. `"ilp.latency.legality"`.
    pub name: &'static str,
    /// Total samples (sum of the buckets).
    pub count: u64,
    /// Sum of all sample latencies, in nanoseconds.
    pub sum_ns: u64,
    /// All [`NUM_BUCKETS`] cells, index `i` counting samples in
    /// `[2^i, 2^(i+1))` ns.
    pub buckets: Vec<u64>,
}

impl HistSnapshot {
    /// Mean sample latency in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> u64 {
        self.sum_ns.checked_div(self.count).unwrap_or(0)
    }

    /// Adds `other`'s samples into this snapshot bucket-wise: the merge
    /// primitive under service-level aggregation
    /// ([`aggregate::ServiceMetrics`](crate::aggregate::ServiceMetrics)).
    /// Because buckets are position-aligned log2 cells, the merged
    /// histogram is exactly the histogram a single session would have
    /// recorded had it observed both sample streams.
    ///
    /// # Panics
    /// If the two snapshots have different bucket counts (they never do
    /// for registry histograms — both carry [`NUM_BUCKETS`] cells).
    pub fn merge(&mut self, other: &HistSnapshot) {
        assert_eq!(
            self.buckets.len(),
            other.buckets.len(),
            "merging histograms with different bucket layouts"
        );
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum_ns += other.sum_ns;
    }

    /// Estimated latency of the `q`-quantile sample (`0.0 < q <= 1.0`),
    /// in nanoseconds; see [`quantile_from_buckets`]. 0 when empty.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        quantile_from_buckets(&self.buckets, q)
    }

    /// Estimated median latency (p50), in nanoseconds.
    pub fn p50_ns(&self) -> u64 {
        self.quantile_ns(0.50)
    }

    /// Estimated 90th-percentile latency, in nanoseconds.
    pub fn p90_ns(&self) -> u64 {
        self.quantile_ns(0.90)
    }

    /// Estimated 99th-percentile latency, in nanoseconds.
    pub fn p99_ns(&self) -> u64 {
        self.quantile_ns(0.99)
    }

    /// Everything but the name, as object fields: `count`, `sum_ns`, one
    /// estimate per `(key, q)` in `quantiles`, then all `buckets`.
    pub fn json_fields<'a>(&self, quantiles: &[(&'a str, f64)]) -> Vec<(&'a str, Json)> {
        let mut fields = vec![("count", num(self.count)), ("sum_ns", num(self.sum_ns))];
        fields.extend(
            quantiles
                .iter()
                .map(|&(key, q)| (key, num(self.quantile_ns(q)))),
        );
        fields.push(("buckets", nums(&self.buckets)));
        fields
    }
}

/// The `hists` section of `pluto-profile/3` (no quantile columns),
/// `pluto-stats/1` (p50/p90/p99) and `pluto-bench-pipeline/3` (p50/p95):
/// one `{name, count, sum_ns, <quantiles…>, buckets}` per histogram.
pub fn hists_json(hists: &[HistSnapshot], quantiles: &[(&str, f64)]) -> Json {
    arr(hists.iter().map(|h| {
        let mut fields = vec![("name", string(h.name))];
        fields.extend(h.json_fields(quantiles));
        obj(fields)
    }))
}

/// Estimates the `q`-quantile (`0.0 < q <= 1.0`) of a log2-bucketed
/// sample set, in nanoseconds.
///
/// The rank `ceil(q·count)` sample is located by walking the cumulative
/// bucket counts; its latency is estimated by linear interpolation
/// inside the bucket (`[2^i, 2^(i+1))`), the standard estimator for
/// histogram quantiles. The estimate is exact to within one bucket width
/// — a factor of 2, which is what log2 buckets can promise — and is
/// monotone in `q`. Returns 0 for an empty sample set.
///
/// Shared by [`HistSnapshot::quantile_ns`], the `pluto-stats/1`
/// aggregate document, and `bench_diff`'s warn-only latency-quantile
/// deltas (PERFORMANCE.md §4.0).
pub fn quantile_from_buckets(buckets: &[u64], q: f64) -> u64 {
    let count: u64 = buckets.iter().sum();
    if count == 0 {
        return 0;
    }
    let target = ((q * count as f64).ceil() as u64).clamp(1, count);
    let mut cum = 0u64;
    for (i, &n) in buckets.iter().enumerate() {
        if n == 0 {
            continue;
        }
        if cum + n >= target {
            let lo = bucket_lo(i) as f64;
            let hi = bucket_lo(i + 1) as f64;
            let frac = (target - cum) as f64 / n as f64;
            return (lo + frac * (hi - lo)) as u64;
        }
        cum += n;
    }
    bucket_lo(buckets.len())
}

macro_rules! registry {
    ($($(#[$doc:meta])* $ident:ident => $name:literal;)*) => {
        #[allow(non_camel_case_types, clippy::upper_case_acronyms)]
        #[repr(usize)]
        enum Idx { $($ident,)* __Count }

        $( $(#[$doc])* pub static $ident: Hist =
            Hist { name: $name, index: Idx::$ident as usize }; )*

        /// Number of registered histograms — the length of each
        /// session's histogram cell block.
        pub(crate) const NUM: usize = Idx::__Count as usize;

        /// Every registered histogram, in the stable order
        /// `pluto-profile/3` serializes (renaming or reordering is a
        /// schema break, exactly as with
        /// [`counters::all`](crate::counters::all); new keys append).
        pub fn all() -> &'static [&'static Hist] {
            static ALL: &[&Hist] = &[ $( &$ident, )* ];
            ALL
        }
    };
}

registry! {
    /// Latency of building one dependence's legality (Farkas) system.
    LEGALITY => "ilp.latency.legality";
    /// Latency of building one bounding-function (Eq. 6) system.
    BOUNDING => "ilp.latency.bounding";
    /// Latency of one lexmin ILP solve for a scattering row.
    SEARCH_ROW => "ilp.latency.search_row";
    /// Latency of one polyhedron-emptiness ILP probe.
    EMPTINESS => "ilp.latency.emptiness";
    /// Latency of one warm-started lexmin solve for a scattering row
    /// (the reused-basis fast path; cold solves land in [`SEARCH_ROW`]).
    SEARCH_ROW_WARM => "ilp.latency.search_row_warm";
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 1);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(1023), 9);
        assert_eq!(bucket_index(1024), 10);
        assert_eq!(bucket_index(u64::MAX), NUM_BUCKETS - 1);
        assert_eq!(bucket_lo(0), 0);
        assert_eq!(bucket_lo(10), 1024);
    }

    #[test]
    fn disabled_recording_is_inert() {
        assert!(!crate::enabled());
        SEARCH_ROW.record_ns(100);
        {
            let t = SEARCH_ROW.timer();
            assert!(t.start.is_none(), "disabled timer read the clock");
        }
        let s = SEARCH_ROW.snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.sum_ns, 0);
    }

    #[test]
    fn merge_adds_bucketwise() {
        let mut a = HistSnapshot {
            name: "m",
            count: 3,
            sum_ns: 30,
            buckets: {
                let mut b = vec![0; NUM_BUCKETS];
                b[3] = 2;
                b[9] = 1;
                b
            },
        };
        let b = HistSnapshot {
            name: "m",
            count: 2,
            sum_ns: 2000,
            buckets: {
                let mut b = vec![0; NUM_BUCKETS];
                b[9] = 1;
                b[10] = 1;
                b
            },
        };
        a.merge(&b);
        assert_eq!(a.count, 5);
        assert_eq!(a.sum_ns, 2030);
        assert_eq!(a.buckets[3], 2);
        assert_eq!(a.buckets[9], 2);
        assert_eq!(a.buckets[10], 1);
        // Merging is exactly what one session observing both streams
        // would have recorded: the bucket sum still equals the count.
        assert_eq!(a.buckets.iter().sum::<u64>(), a.count);
    }

    #[test]
    fn quantiles_walk_the_cumulative_buckets() {
        // 10 samples: 4 in bucket 3 ([8,16)), 4 in bucket 4 ([16,32)),
        // 2 in bucket 8 ([256,512)).
        let mut buckets = vec![0u64; NUM_BUCKETS];
        buckets[3] = 4;
        buckets[4] = 4;
        buckets[8] = 2;
        // p50 → rank 5, the first sample of bucket 4: 16 + (1/4)·16 = 20.
        assert_eq!(quantile_from_buckets(&buckets, 0.50), 20);
        // p90 → rank 9, the first sample of bucket 8: 256 + (1/2)·256.
        assert_eq!(quantile_from_buckets(&buckets, 0.90), 384);
        // p99 → rank 10, the last sample: the top of bucket 8.
        assert_eq!(quantile_from_buckets(&buckets, 0.99), 512);
        // Monotone in q, and empty histograms answer 0.
        assert!(quantile_from_buckets(&buckets, 0.5) <= quantile_from_buckets(&buckets, 0.9));
        assert_eq!(quantile_from_buckets(&[0; NUM_BUCKETS], 0.5), 0);
        // The open-ended last bucket still answers (its nominal top).
        let mut top = vec![0u64; NUM_BUCKETS];
        top[NUM_BUCKETS - 1] = 1;
        assert_eq!(quantile_from_buckets(&top, 0.99), 1u64 << NUM_BUCKETS);
        let snap = HistSnapshot {
            name: "q",
            count: 10,
            sum_ns: 0,
            buckets,
        };
        assert_eq!(snap.p50_ns(), 20);
        assert_eq!(snap.p90_ns(), 384);
        assert_eq!(snap.p99_ns(), 512);
    }

    #[test]
    fn samples_land_in_their_buckets() {
        let session = crate::Session::start();
        EMPTINESS.record_ns(3); // bucket 1
        EMPTINESS.record_ns(900); // bucket 9
        EMPTINESS.record_ns(900); // bucket 9
        {
            let _t = LEGALITY.timer(); // records something >= 0
        }
        let profile = session.finish();
        let e = profile.hist("ilp.latency.emptiness").unwrap();
        assert_eq!(e.count, 3);
        assert_eq!(e.sum_ns, 1803);
        assert_eq!(e.buckets[1], 1);
        assert_eq!(e.buckets[9], 2);
        assert_eq!(e.mean_ns(), 601);
        assert_eq!(profile.hist("ilp.latency.legality").unwrap().count, 1);
        // A fresh session has fresh cells.
        let p2 = crate::Session::start().finish();
        assert_eq!(p2.hist("ilp.latency.emptiness").unwrap().count, 0);
    }
}
