//! Runtime execution metrics: per-dispatch load balance, barrier wait,
//! and per-array cache attribution, aggregated into an [`ExecProfile`].
//!
//! The compile-side profile (spans + counters) says what the compiler
//! did; this module is where the machine substrate reports what the
//! *generated program* did — the per-transformation performance
//! attribution the paper's evaluation reads off its quad-core testbed
//! (load balance of the tile-space wavefront, Figs. 10–13; cache
//! behavior behind the single-core speedups, Figs. 6, 8).
//!
//! Two producers feed it, both in `pluto-machine`:
//!
//! * `run_parallel` records one [`Dispatch`] per parallel-loop entry
//!   (per-thread chunk wall times and instance counts);
//! * `run_with_cache` records per-array access/hit/miss totals, keyed
//!   by the IR array names.
//!
//! Reports accumulate in the [`ObsSession`](crate::ObsSession) installed
//! on the reporting thread — while none records, every call is a single
//! relaxed load — and
//! [`ObsSession::finish_profile`](crate::ObsSession::finish_profile)
//! drains the accumulator into
//! [`Profile::exec`](crate::Profile::exec), serialized as the `exec`
//! section of the `pluto-profile/3` schema (PERFORMANCE.md §5.1).
//!
//! [`ExecProfile::build`] is also public so the machine substrate can
//! compute the same derived metrics without any session
//! (`run_parallel_profiled`).

use crate::json::{arr, num, nums, obj, ratio, string, Json};

/// One parallel-loop dispatch: what each thread of the team did between
/// entering the region and the implicit barrier at its exit.
#[derive(Debug, Clone, PartialEq)]
pub struct Dispatch {
    /// Display name of the dispatched loop (e.g. `c2`).
    pub name: String,
    /// Work items distributed over the team (collapsed pairs count
    /// once each).
    pub items: u64,
    /// Per-member chunk wall time, nanoseconds; length = team width.
    /// Index 0 is the coordinator and 1.. are the enlisted worker
    /// slots.
    pub chunk_ns: Vec<u128>,
    /// Per-member statement instances executed; same indexing.
    pub instances: Vec<u64>,
}

impl Dispatch {
    /// Team members that actually executed work in this dispatch —
    /// entries with a nonzero chunk time or instance count. Under
    /// dynamic chunk scheduling a member the scheduler never fed (the
    /// work supply ran out before it grabbed a chunk) is *idle*, not
    /// imbalanced: it reflects surplus team width, which the profile
    /// reports separately as `threads` vs the active width. Block
    /// scheduling always feeds every member, so for legacy records
    /// this is the whole team.
    fn active(&self) -> impl Iterator<Item = u128> + '_ {
        self.chunk_ns
            .iter()
            .enumerate()
            .filter(|&(i, &ns)| ns > 0 || self.instances.get(i).is_some_and(|&n| n > 0))
            .map(|(_, &ns)| ns)
    }

    /// Load-imbalance ratio of this dispatch: slowest chunk over mean
    /// chunk time across *active* members (1.0 = perfectly balanced).
    /// Defined as 1.0 for an empty team or when the clock resolution
    /// made every chunk 0.
    pub fn imbalance(&self) -> f64 {
        let n = self.active().count();
        if n == 0 {
            return 1.0;
        }
        let sum: u128 = self.active().sum();
        if sum == 0 {
            return 1.0;
        }
        let max = self.active().max().expect("non-empty") as f64;
        max / (sum as f64 / n as f64)
    }

    /// Total time active members spent waiting at this dispatch's
    /// barrier: `Σ (slowest chunk − own chunk)` over active members.
    pub fn barrier_wait_ns(&self) -> u128 {
        let max = self.active().max().unwrap_or(0);
        self.active().map(|c| max - c).sum()
    }
}

/// Per-array cache counters (mirrors `pluto-machine`'s `CacheStats`
/// plus a name; kept as plain fields so `obs` stays dependency-free).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ArrayCache {
    /// IR array name (`Program::arrays[i].name`).
    pub name: String,
    /// Accesses issued to this array.
    pub accesses: u64,
    /// L1 misses attributed to this array.
    pub l1_misses: u64,
    /// L2 misses attributed to this array.
    pub l2_misses: u64,
}

impl ArrayCache {
    /// L1 miss ratio for this array (0.0 when never accessed).
    pub fn l1_miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.l1_misses as f64 / self.accesses as f64
        }
    }
}

/// Aggregated runtime-execution section of a profile: what the thread
/// teams and the cache simulator observed during the session.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecProfile {
    /// Parallel-loop dispatches (≈ barriers) observed.
    pub dispatches: u64,
    /// Widest thread team observed.
    pub threads: usize,
    /// Statement instances per team-member slot, summed over
    /// dispatches (index 0 = coordinator, 1.. = pool worker slots).
    pub instances_per_thread: Vec<u64>,
    /// Dispatch-duration-weighted mean of per-dispatch
    /// [`imbalance`](Dispatch::imbalance) ratios (1.0 = balanced).
    pub imbalance_mean: f64,
    /// Worst per-dispatch imbalance ratio.
    pub imbalance_max: f64,
    /// Total barrier-wait nanoseconds across all threads and
    /// dispatches.
    pub barrier_wait_ns: u128,
    /// Per-array cache attribution, in first-recorded order.
    pub arrays: Vec<ArrayCache>,
}

impl ExecProfile {
    /// Derives the aggregate profile from raw dispatch records and
    /// per-array cache counters — the single definition of the derived
    /// metrics, shared by
    /// [`ObsSession::finish_profile`](crate::ObsSession::finish_profile)
    /// and the machine substrate's `run_parallel_profiled`.
    pub fn build(dispatches: &[Dispatch], arrays: Vec<ArrayCache>) -> ExecProfile {
        let threads = dispatches
            .iter()
            .map(|d| d.chunk_ns.len())
            .max()
            .unwrap_or(0);
        let mut instances_per_thread = vec![0u64; threads];
        let mut barrier_wait_ns = 0u128;
        let mut imbalance_max = 1.0f64;
        let mut weighted = 0.0f64;
        let mut weight = 0.0f64;
        for d in dispatches {
            for (t, &n) in d.instances.iter().enumerate() {
                instances_per_thread[t] += n;
            }
            barrier_wait_ns += d.barrier_wait_ns();
            let r = d.imbalance();
            imbalance_max = imbalance_max.max(r);
            let w = d.chunk_ns.iter().copied().max().unwrap_or(0) as f64;
            weighted += r * w;
            weight += w;
        }
        let imbalance_mean = if dispatches.is_empty() {
            1.0
        } else if weight == 0.0 {
            // Sub-resolution chunks: fall back to the unweighted mean.
            dispatches.iter().map(Dispatch::imbalance).sum::<f64>() / dispatches.len() as f64
        } else {
            weighted / weight
        };
        ExecProfile {
            dispatches: dispatches.len() as u64,
            threads,
            instances_per_thread,
            imbalance_mean,
            imbalance_max,
            barrier_wait_ns,
            arrays,
        }
    }

    /// The `exec` object of `pluto-profile/3` and
    /// `pluto-bench-kernels/3` (PERFORMANCE.md §5.1); ratios carry four
    /// decimals.
    pub fn to_json(&self) -> Json {
        obj([
            ("dispatches", num(self.dispatches)),
            ("threads", num(self.threads)),
            ("instances_per_thread", nums(&self.instances_per_thread)),
            ("imbalance_mean", ratio(self.imbalance_mean)),
            ("imbalance_max", ratio(self.imbalance_max)),
            ("barrier_wait_ns", num(self.barrier_wait_ns)),
            (
                "arrays",
                arr(self.arrays.iter().map(|a| {
                    obj([
                        ("name", string(&*a.name)),
                        ("accesses", num(a.accesses)),
                        ("l1_misses", num(a.l1_misses)),
                        ("l2_misses", num(a.l2_misses)),
                        ("l1_miss_rate", ratio(a.l1_miss_rate())),
                    ])
                })),
            ),
        ])
    }
}

/// The per-session accumulator behind [`record_dispatch`] /
/// [`record_array`]; one lives in every
/// [`SessionState`](crate::SessionState).
#[derive(Default)]
pub(crate) struct Accum {
    dispatches: Vec<Dispatch>,
    arrays: Vec<ArrayCache>,
}

impl Accum {
    /// Derives the profile section, or `None` if the session observed
    /// no execution (the common compile-only case — the profile's
    /// `exec` field serializes as JSON `null`).
    pub(crate) fn into_profile(self) -> Option<ExecProfile> {
        if self.dispatches.is_empty() && self.arrays.is_empty() {
            return None;
        }
        Some(ExecProfile::build(&self.dispatches, self.arrays))
    }
}

/// Reports one parallel-loop dispatch into the current thread's session.
/// Inert (one relaxed load) while none records a profile. Called once
/// per dispatch — never per item — so the mutex is off the hot path.
pub fn record_dispatch(d: Dispatch) {
    crate::with_profiling(|s| {
        s.exec
            .lock()
            .expect("exec accumulator poisoned")
            .dispatches
            .push(d);
    });
}

/// Reports cache counters attributed to one named array; repeated
/// reports for the same name accumulate. Inert while no session
/// records.
pub fn record_array(name: &str, accesses: u64, l1_misses: u64, l2_misses: u64) {
    crate::with_profiling(|s| {
        let mut acc = s.exec.lock().expect("exec accumulator poisoned");
        match acc.arrays.iter_mut().find(|a| a.name == name) {
            Some(a) => {
                a.accesses += accesses;
                a.l1_misses += l1_misses;
                a.l2_misses += l2_misses;
            }
            None => acc.arrays.push(ArrayCache {
                name: name.to_string(),
                accesses,
                l1_misses,
                l2_misses,
            }),
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dispatch_metrics() {
        let d = Dispatch {
            name: "c2".into(),
            items: 8,
            chunk_ns: vec![100, 50, 50, 0],
            instances: vec![4, 2, 2, 0],
        };
        // The fourth member never got work — idle, not imbalanced.
        // Active mean = 200/3, max = 100 → ratio 1.5; waits: 0+50+50.
        assert!((d.imbalance() - 1.5).abs() < 1e-12);
        assert_eq!(d.barrier_wait_ns(), 100);
    }

    #[test]
    fn idle_members_do_not_count_as_imbalance() {
        // One active member (the pooled engine's small-dispatch solo
        // path) is perfectly balanced by definition.
        let d = Dispatch {
            name: "c1".into(),
            items: 2,
            chunk_ns: vec![80, 0],
            instances: vec![9, 0],
        };
        assert_eq!(d.imbalance(), 1.0);
        assert_eq!(d.barrier_wait_ns(), 0);
        // A member with sub-resolution chunk time but real instances is
        // active (instances witness the work).
        let d2 = Dispatch {
            name: "c1".into(),
            items: 4,
            chunk_ns: vec![60, 0, 60],
            instances: vec![2, 1, 2],
        };
        assert!((d2.imbalance() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn degenerate_dispatches_are_balanced() {
        let zero = Dispatch {
            name: "c".into(),
            items: 0,
            chunk_ns: vec![0, 0],
            instances: vec![0, 0],
        };
        assert_eq!(zero.imbalance(), 1.0);
        assert_eq!(zero.barrier_wait_ns(), 0);
        let empty = Dispatch {
            name: "c".into(),
            items: 0,
            chunk_ns: vec![],
            instances: vec![],
        };
        assert_eq!(empty.imbalance(), 1.0);
    }

    #[test]
    fn build_aggregates_across_dispatches() {
        let ds = [
            Dispatch {
                name: "a".into(),
                items: 4,
                chunk_ns: vec![100, 100],
                instances: vec![2, 2],
            },
            Dispatch {
                name: "a".into(),
                items: 4,
                chunk_ns: vec![300, 100, 0],
                instances: vec![3, 1, 0],
            },
        ];
        let p = ExecProfile::build(
            &ds,
            vec![ArrayCache {
                name: "x".into(),
                accesses: 10,
                l1_misses: 5,
                l2_misses: 1,
            }],
        );
        assert_eq!(p.dispatches, 2);
        assert_eq!(p.threads, 3);
        assert_eq!(p.instances_per_thread, vec![5, 3, 0]);
        // d0: ratio 1.0 weight 100; d1 active {300, 100}: mean 200,
        // max 300 → 1.5, weight 300 → mean = (100 + 450)/400 = 1.375.
        assert!((p.imbalance_mean - 1.375).abs() < 1e-12);
        assert!((p.imbalance_max - 1.5).abs() < 1e-12);
        // waits: d0 0; d1 (0 + 200) over active members.
        assert_eq!(p.barrier_wait_ns, 200);
        assert!((p.arrays[0].l1_miss_rate() - 0.5).abs() < 1e-12);
    }
}
