//! A two-level set-associative cache simulator with LRU replacement.
//!
//! Geometry defaults mirror the paper's Intel Core 2 Quad Q6600: 32 KB
//! 8-way L1 data cache and 4 MB 16-way L2, 64-byte lines. The simulator is
//! inclusive and write-allocate: every access touches L1; L1 misses go to
//! L2; L2 misses count as memory accesses.
//!
//! [`run_with_cache`] drives it from the bytecode engine: the [`Cached`]
//! memory backend turns each `(array, offset)` a compiled leaf touches
//! into the cell's simulated byte address ([`Arrays::address`]: arrays
//! back to back, each starting on a fresh 64-byte line).

use crate::arrays::Arrays;
use crate::compile::compile_kernel;
use crate::exec::{run_whole, ExecStats, Inline};
use crate::mem::Mem;
use pluto_codegen::Ast;
use pluto_ir::Program;

/// Cache hierarchy geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Line size in bytes.
    pub line: u64,
    /// L1 capacity in bytes.
    pub l1_size: u64,
    /// L1 associativity.
    pub l1_assoc: usize,
    /// L2 capacity in bytes.
    pub l2_size: u64,
    /// L2 associativity.
    pub l2_assoc: usize,
}

impl Default for CacheConfig {
    fn default() -> CacheConfig {
        CacheConfig {
            line: 64,
            l1_size: 32 * 1024,
            l1_assoc: 8,
            l2_size: 4 * 1024 * 1024,
            l2_assoc: 16,
        }
    }
}

/// Miss counts accumulated by a [`CacheSim`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total accesses issued.
    pub accesses: u64,
    /// L1 misses.
    pub l1_misses: u64,
    /// L2 misses (memory accesses).
    pub l2_misses: u64,
}

impl CacheStats {
    /// L1 miss ratio.
    pub fn l1_miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.l1_misses as f64 / self.accesses as f64
        }
    }

    /// A simple cost model: cycles per access 1, plus L1-miss and L2-miss
    /// penalties (3 / 165 cycles, Core 2-era figures). Used to convert
    /// miss counts into a single locality score for the reports.
    pub fn cost_cycles(&self) -> u64 {
        self.accesses + 3 * self.l1_misses + 165 * self.l2_misses
    }
}

#[derive(Debug, Clone)]
struct Level {
    sets: Vec<Vec<u64>>, // per set: tags in LRU order (front = MRU)
    assoc: usize,
    num_sets: u64,
}

impl Level {
    fn new(size: u64, assoc: usize, line: u64) -> Level {
        let num_sets = (size / line / assoc as u64).max(1);
        Level {
            sets: vec![Vec::with_capacity(assoc); num_sets as usize],
            assoc,
            num_sets,
        }
    }

    /// Returns true on hit; updates LRU and allocates on miss.
    fn access(&mut self, line_addr: u64) -> bool {
        let set = (line_addr % self.num_sets) as usize;
        let ways = &mut self.sets[set];
        if let Some(pos) = ways.iter().position(|&t| t == line_addr) {
            let t = ways.remove(pos);
            ways.insert(0, t);
            true
        } else {
            if ways.len() == self.assoc {
                ways.pop();
            }
            ways.insert(0, line_addr);
            false
        }
    }
}

/// The two-level simulator.
#[derive(Debug, Clone)]
pub struct CacheSim {
    l1: Level,
    l2: Level,
    line: u64,
    /// Accumulated statistics.
    pub stats: CacheStats,
    /// Per-array attribution, indexed by IR array index; empty unless
    /// built with [`CacheSim::with_arrays`].
    per_array: Vec<CacheStats>,
}

impl CacheSim {
    /// Builds a simulator from a geometry.
    pub fn new(cfg: CacheConfig) -> CacheSim {
        CacheSim {
            l1: Level::new(cfg.l1_size, cfg.l1_assoc, cfg.line),
            l2: Level::new(cfg.l2_size, cfg.l2_assoc, cfg.line),
            line: cfg.line,
            stats: CacheStats::default(),
            per_array: Vec::new(),
        }
    }

    /// Builds a simulator that additionally attributes every access to
    /// one of `arrays` program arrays (index = IR array index). Use
    /// [`access_for`](CacheSim::access_for) to issue attributed
    /// accesses and [`per_array`](CacheSim::per_array) to read them
    /// back.
    pub fn with_arrays(cfg: CacheConfig, arrays: usize) -> CacheSim {
        let mut sim = CacheSim::new(cfg);
        sim.per_array = vec![CacheStats::default(); arrays];
        sim
    }

    /// Issues one byte-address access.
    #[inline]
    pub fn access(&mut self, addr: u64) {
        let line = addr / self.line;
        self.stats.accesses += 1;
        if !self.l1.access(line) {
            self.stats.l1_misses += 1;
            if !self.l2.access(line) {
                self.stats.l2_misses += 1;
            }
        }
    }

    /// Issues one access attributed to array `array`. Equivalent to
    /// [`access`](CacheSim::access) for the global totals; additionally
    /// bumps that array's slot when the simulator was built with
    /// [`with_arrays`](CacheSim::with_arrays) (out-of-range indices
    /// fall back to unattributed counting).
    #[inline]
    pub fn access_for(&mut self, array: usize, addr: u64) {
        let line = addr / self.line;
        self.stats.accesses += 1;
        let (mut l1_miss, mut l2_miss) = (0u64, 0u64);
        if !self.l1.access(line) {
            l1_miss = 1;
            if !self.l2.access(line) {
                l2_miss = 1;
            }
        }
        self.stats.l1_misses += l1_miss;
        self.stats.l2_misses += l2_miss;
        if let Some(slot) = self.per_array.get_mut(array) {
            slot.accesses += 1;
            slot.l1_misses += l1_miss;
            slot.l2_misses += l2_miss;
        }
    }

    /// Per-array stats recorded via [`access_for`](CacheSim::access_for);
    /// empty for simulators built with [`new`](CacheSim::new).
    pub fn per_array(&self) -> &[CacheStats] {
        &self.per_array
    }
}

/// Cache-simulating backend: every access goes through the simulator,
/// attributed to its array, before it reaches the arrays.
struct Cached<'a> {
    arrays: &'a mut Arrays,
    sim: CacheSim,
}

impl Mem for Cached<'_> {
    #[inline]
    fn load(&mut self, a: usize, off: usize) -> f64 {
        self.sim.access_for(a, self.arrays.address(a, off));
        self.arrays.load(a, off)
    }
    #[inline]
    fn store(&mut self, a: usize, off: usize, v: f64) {
        self.sim.access_for(a, self.arrays.address(a, off));
        self.arrays.store(a, off, v);
    }
}

/// Runs the AST sequentially (parallel markers ignored) with every
/// access driven through the cache simulator.
pub fn run_with_cache(
    prog: &Program,
    ast: &Ast,
    params: &[i64],
    arrays: &mut Arrays,
    cfg: CacheConfig,
) -> (ExecStats, CacheStats) {
    let (stats, totals, _) = run_with_cache_attributed(prog, ast, params, arrays, cfg);
    (stats, totals)
}

/// Like [`run_with_cache`], additionally returning the per-array
/// attribution as `(array name, stats)` pairs in IR declaration order
/// (arrays the run never touched are included with zero counts).
pub fn run_with_cache_attributed(
    prog: &Program,
    ast: &Ast,
    params: &[i64],
    arrays: &mut Arrays,
    cfg: CacheConfig,
) -> (ExecStats, CacheStats, Vec<(String, CacheStats)>) {
    let ck = compile_kernel(prog, ast, params, arrays);
    let _span = pluto_obs::span("execute/cached");
    let mut mem = Cached {
        arrays,
        sim: CacheSim::with_arrays(cfg, prog.arrays.len()),
    };
    let stats = run_whole(&ck, &mut mem, &mut Inline);
    let per: Vec<(String, CacheStats)> = (prog.arrays.iter())
        .zip(mem.sim.per_array())
        .map(|(a, s)| (a.name.clone(), *s))
        .collect();
    // Feed any active profile session the per-array attribution (inert
    // one-load check otherwise), keyed by the IR array names.
    if pluto_obs::enabled() {
        for (name, s) in per.iter().filter(|(_, s)| s.accesses > 0) {
            pluto_obs::exec::record_array(name, s.accesses, s.l1_misses, s.l2_misses);
        }
    }
    (stats, mem.sim.stats, per)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_run_counts_accesses() {
        let prog = crate::testutil::scale_program();
        let ast = pluto_codegen::generate(&prog, &pluto_codegen::original_schedule(&prog));
        let mut arrays = Arrays::new(vec![vec![64], vec![64]]);
        let (stats, cs) = run_with_cache(&prog, &ast, &[64], &mut arrays, CacheConfig::default());
        assert_eq!(stats.instances, 64);
        assert_eq!(cs.accesses, 128); // one read + one write per instance
        assert!(cs.l1_misses >= 16); // 2 arrays x 8 lines
    }

    #[test]
    fn sequential_streaming_misses_once_per_line() {
        let mut c = CacheSim::new(CacheConfig::default());
        for i in 0..1024u64 {
            c.access(i * 8);
        }
        assert_eq!(c.stats.accesses, 1024);
        // 1024 doubles = 128 lines.
        assert_eq!(c.stats.l1_misses, 128);
        assert_eq!(c.stats.l2_misses, 128);
    }

    #[test]
    fn reuse_hits_in_l1() {
        let mut c = CacheSim::new(CacheConfig::default());
        for _ in 0..10 {
            c.access(0);
        }
        assert_eq!(c.stats.l1_misses, 1);
    }

    #[test]
    fn capacity_eviction() {
        // Working set of 64 KB > 32 KB L1 but < L2: second sweep misses in
        // L1, hits in L2.
        let mut c = CacheSim::new(CacheConfig::default());
        let lines = (64 * 1024) / 64;
        for _ in 0..2 {
            for l in 0..lines {
                c.access(l as u64 * 64);
            }
        }
        assert_eq!(c.stats.l1_misses, 2 * lines as u64);
        assert_eq!(c.stats.l2_misses, lines as u64);
    }

    #[test]
    fn small_working_set_second_sweep_free() {
        let mut c = CacheSim::new(CacheConfig::default());
        let lines = (16 * 1024) / 64; // 16 KB fits L1
        for _ in 0..2 {
            for l in 0..lines {
                c.access(l as u64 * 64);
            }
        }
        assert_eq!(c.stats.l1_misses, lines as u64);
    }
}

#[cfg(test)]
mod assoc_tests {
    use super::*;

    #[test]
    fn conflict_misses_beyond_associativity() {
        // 9 lines mapping to the same set of an 8-way cache thrash.
        let cfg = CacheConfig::default();
        let mut c = CacheSim::new(cfg);
        let sets = cfg.l1_size / cfg.line / cfg.l1_assoc as u64;
        for round in 0..3 {
            for k in 0..9u64 {
                c.access(k * sets * cfg.line);
            }
            let _ = round;
        }
        // With LRU and 9 > 8 ways, every access misses L1 after warmup.
        assert_eq!(c.stats.l1_misses, 27);
    }

    #[test]
    fn within_associativity_no_thrash() {
        let cfg = CacheConfig::default();
        let mut c = CacheSim::new(cfg);
        let sets = cfg.l1_size / cfg.line / cfg.l1_assoc as u64;
        for _ in 0..3 {
            for k in 0..8u64 {
                c.access(k * sets * cfg.line);
            }
        }
        assert_eq!(c.stats.l1_misses, 8); // cold misses only
    }

    #[test]
    fn per_array_attribution_partitions_totals() {
        let cfg = CacheConfig::default();
        let mut plain = CacheSim::new(cfg);
        let mut attr = CacheSim::with_arrays(cfg, 2);
        // Two interleaved streams in disjoint address ranges.
        for i in 0..512u64 {
            plain.access(i * 8);
            plain.access((1 << 24) | (i * 8));
            attr.access_for(0, i * 8);
            attr.access_for(1, (1 << 24) | (i * 8));
        }
        // Attribution must not change the simulated totals...
        assert_eq!(attr.stats, plain.stats);
        // ...and the per-array slots must partition them exactly.
        let per = attr.per_array();
        assert_eq!(per.len(), 2);
        assert_eq!(per[0].accesses + per[1].accesses, attr.stats.accesses);
        assert_eq!(per[0].l1_misses + per[1].l1_misses, attr.stats.l1_misses);
        assert_eq!(per[0].l2_misses + per[1].l2_misses, attr.stats.l2_misses);
        assert_eq!(per[0].accesses, 512);
        // `new` keeps the unattributed fast path: no slots at all, and
        // out-of-range indices on an attributed sim still count globally.
        assert!(plain.per_array().is_empty());
        attr.access_for(99, 0);
        assert_eq!(attr.stats.accesses, 1025);
    }

    #[test]
    fn cost_model_orders_levels() {
        let a = CacheStats {
            accesses: 100,
            l1_misses: 10,
            l2_misses: 0,
        };
        let b = CacheStats {
            accesses: 100,
            l1_misses: 10,
            l2_misses: 10,
        };
        assert!(b.cost_cycles() > a.cost_cycles());
        assert!((a.l1_miss_rate() - 0.1).abs() < 1e-12);
    }
}
