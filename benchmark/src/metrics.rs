//! The metric tables: name, unit, direction and — for end-to-end metrics
//! — the share by which one may worsen before it counts as a regression.
//! `BENCHMARK.json` at the repo root lists the same names; a test here
//! keeps the two in step.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    #[cfg(test)]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

use Better::{Higher, Lower};

pub const END_TO_END: [EndToEnd; 12] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.20,
    },
    EndToEnd {
        name: "compile_cold_ms",
        unit: "ms",
        better: Lower,
        bound: 0.05,
    },
    EndToEnd {
        name: "compile_cold_geomean_ms",
        unit: "ms",
        better: Lower,
        bound: 0.05,
    },
    EndToEnd {
        name: "audit_ms",
        unit: "ms",
        better: Lower,
        bound: 0.05,
    },
    EndToEnd {
        name: "exec_transformed_ms",
        unit: "ms",
        better: Lower,
        bound: 0.07,
    },
    EndToEnd {
        name: "exec_speedup_geomean",
        unit: "ratio",
        better: Higher,
        bound: 0.09,
    },
    EndToEnd {
        name: "serve_rps",
        unit: "req/s",
        better: Higher,
        bound: 0.10,
    },
    EndToEnd {
        name: "serve_hit_p50_us",
        unit: "us",
        better: Lower,
        bound: 0.10,
    },
    EndToEnd {
        name: "serve_hit_p90_us",
        unit: "us",
        better: Lower,
        bound: 0.15,
    },
    EndToEnd {
        name: "serve_content_p50_ms",
        unit: "ms",
        better: Lower,
        bound: 0.13,
    },
    EndToEnd {
        name: "serve_miss_p50_ms",
        unit: "ms",
        better: Lower,
        bound: 0.10,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Lower,
        bound: 0.10,
    },
];

#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    /// Recorded in `BENCHMARK.json`; the harness itself never ranks a
    /// per-layer value.
    #[cfg_attr(not(test), allow(dead_code))]
    pub better: Better,
    /// Depends only on the inputs and the algorithm: two runs of one
    /// build at one seed must agree on it exactly (`--repeat` checks).
    pub exact: bool,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        exact: false,
    }
}

/// A count (or a ratio of simulator counts) that repeats exactly.
const fn exact(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        exact: true,
    }
}

pub const PER_LAYER: [PerLayer; 62] = [
    layer("frontend.parse_us", "us", Lower),
    exact("frontend.stmts", "count", Lower),
    layer("ir.deps_ms", "ms", Lower),
    exact("ir.deps_built", "count", Lower),
    exact("ir.dep_candidates", "count", Lower),
    exact("ir.pruned_candidates", "count", Higher),
    exact("ilp.solves", "count", Lower),
    exact("ilp.pivots", "count", Lower),
    layer("ilp.cache_hit_ratio", "ratio", Higher),
    layer("ilp.site_ms.legality", "ms", Lower),
    layer("ilp.site_ms.bounding", "ms", Lower),
    layer("ilp.site_ms.search_row_warm", "ms", Lower),
    layer("ilp.site_ms.emptiness", "ms", Lower),
    exact("poly.fm_eliminations", "count", Lower),
    exact("poly.emptiness_checks", "count", Lower),
    layer("core.optimize_ms", "ms", Lower),
    layer("core.search_ms", "ms", Lower),
    layer("core.tiling_us", "us", Lower),
    layer("core.wavefront_us", "us", Lower),
    layer("core.search_share", "ratio", Lower),
    exact("core.legality_systems", "count", Lower),
    exact("core.bounding_systems", "count", Lower),
    exact("core.search_row_solves", "count", Lower),
    exact("core.scc_cuts", "count", Lower),
    layer("codegen.generate_ms", "ms", Lower),
    layer("codegen.emit_us", "us", Lower),
    exact("codegen.c_bytes", "bytes", Lower),
    exact("codegen.loops", "count", Lower),
    layer("analyze.audit_ms", "ms", Lower),
    layer("analyze.bytecode_ms", "ms", Lower),
    layer("analyze.diagnostics", "count", Lower),
    layer("machine.bytecode_compile_us", "us", Lower),
    exact("machine.bytecode_instrs", "count", Lower),
    exact("machine.instances", "count", Lower),
    layer("machine.ns_per_instance.original", "ns", Lower),
    layer("machine.ns_per_instance.transformed", "ns", Lower),
    layer("machine.speedup_in_l1", "ratio", Higher),
    exact("machine.sim_l1_miss_ratio", "ratio", Lower),
    exact("machine.sim_l2_miss_ratio", "ratio", Lower),
    exact("machine.sim_cycles_ratio", "ratio", Lower),
    layer("machine.par2_ms", "ms", Lower),
    layer("machine.par2_speedup", "ratio", Higher),
    layer("machine.dispatches", "count", Lower),
    layer("machine.barrier_wait_ms", "ms", Lower),
    layer("machine.imbalance_mean", "ratio", Lower),
    layer("pool.spawns", "count", Lower),
    layer("obs.profile_overhead_pct", "%", Lower),
    layer("obs.json_parse_us", "us", Lower),
    layer("obs.json_emit_us", "us", Lower),
    layer("daemon.handle_hit_us", "us", Lower),
    layer("daemon.handle_content_ms", "ms", Lower),
    layer("daemon.handle_miss_ms", "ms", Lower),
    layer("daemon.transport_us", "us", Lower),
    layer("daemon.hit_p99_us", "us", Lower),
    layer("daemon.stats_us", "us", Lower),
    layer("daemon.response_bytes_p50", "bytes", Lower),
    exact("daemon.cache_hits", "count", Higher),
    exact("daemon.cache_misses", "count", Lower),
    exact("daemon.cache_evictions", "count", Lower),
    layer("daemon.hit_ratio", "ratio", Higher),
    layer("plutoc.startup_ms", "ms", Lower),
    layer("trace.coverage.cold_compile", "ratio", Higher),
];

pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "cold_compile",
        "13 fixed kernels, each through a fresh plutoc process: the hyperplane search over ilp/poly dominates; executor and daemon idle",
    ),
    (
        "kernel_exec",
        "the paper's five kernels, original vs transformed schedule on the bytecode engine at out-of-cache sizes; compile time excluded",
    ),
    (
        "service_mix",
        "closed loop on plutod: 85% memo hits, 8% respelled sources, 5% cold-pool misses with FIFO evictions, 2% stats; JSON and cache dominate",
    ),
    (
        "audit_generated",
        "32 seeded generated sources through plutoc --analyze --verify: analyzer and many small ILPs, a wider family than the fixed kernels",
    ),
];

/// Values of one run, by metric name, in report order.
pub type Values = Vec<(&'static str, f64)>;

pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map_or("", |(_, u)| u)
}

/// The contract's result line: `correct`, `attempted`, `failed`, and the
/// metrics with all their digits.
pub fn result_line(values: &Values, attempted: u64, failed: u64) -> String {
    let metrics: Vec<String> = values
        .iter()
        .map(|(name, v)| {
            format!(
                "\"{name}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                unit_of(name)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers;

    #[test]
    fn benchmark_json_lists_exactly_these_metrics_and_workloads() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = layers::json_parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let rows =
            |key: &str| -> Vec<layers::Json> { layers::json_array(&doc, &[key]).unwrap().to_vec() };
        let e2e = rows("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (row, m) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(layers::json_str(row, &["name"]), Some(m.name));
            assert_eq!(layers::json_str(row, &["unit"]), Some(m.unit));
            assert_eq!(layers::json_str(row, &["better"]), Some(m.better.as_str()));
            assert_eq!(layers::json_f64(row, &["bound"]), Some(m.bound));
            assert!(m.bound <= 0.25);
        }
        let per = rows("per_layer");
        assert_eq!(per.len(), PER_LAYER.len());
        for (row, m) in per.iter().zip(&PER_LAYER) {
            assert_eq!(layers::json_str(row, &["name"]), Some(m.name));
            assert_eq!(layers::json_str(row, &["unit"]), Some(m.unit));
            assert_eq!(layers::json_str(row, &["better"]), Some(m.better.as_str()));
        }
        let workloads = rows("workloads");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (row, (name, why)) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!(layers::json_str(row, &["name"]), Some(*name));
            assert_eq!(layers::json_str(row, &["why"]), Some(*why));
            assert!(why.len() <= 200);
        }
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.name));
        names.extend(WORKLOADS.iter().map(|w| w.0));
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        for n in &names {
            assert!(n.len() <= 64 && n.chars().all(ok), "{n}");
            assert!(n.chars().next().unwrap().is_ascii_alphanumeric());
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
    }

    #[test]
    fn result_line_is_the_contract_shape() {
        let line = result_line(&vec![("setup_s", 0.8127), ("serve_rps", 2512.25)], 10, 0);
        let doc = layers::json_parse(&line).unwrap();
        assert_eq!(layers::json_bool(&doc, &["correct"]), Some(true));
        assert_eq!(layers::json_u64(&doc, &["attempted"]), Some(10));
        assert_eq!(
            layers::json_f64(&doc, &["metrics", "setup_s", "value"]),
            Some(0.8127)
        );
        assert_eq!(
            layers::json_str(&doc, &["metrics", "serve_rps", "unit"]),
            Some("req/s")
        );
        let failed = result_line(&vec![("setup_s", 1.0)], 10, 2);
        assert!(failed.starts_with("{\"correct\": false"));
    }
}
