//! Runtime-telemetry integration: the `machine.instances` flush
//! discipline (parallel total == sequential total), trace-event
//! emission from `run_parallel`, and the session-free
//! `run_parallel_profiled` aggregate.
//!
//! Sessions and traces are scoped to the test that installs them
//! (worker threads inherit the dispatching session), so these tests run
//! fully parallel with no serialization.

use pluto_codegen::{generate, original_schedule};
use pluto_ir::{Expr, Program, ProgramBuilder, StatementSpec};
use pluto_machine::{
    run_parallel, run_parallel_profiled, run_sequential, run_with_cache_attributed, Arrays,
    CacheConfig, ParallelConfig,
};

/// `for i in 0..N { b[i] = 2 * a[i] }`, i-loop marked parallel.
fn parallel_scale() -> (Program, pluto_codegen::Ast) {
    let mut b = ProgramBuilder::new("scale", &["N"]);
    b.add_context_ineq(vec![1, -1]);
    b.add_array("a", 1);
    b.add_array("b", 1);
    b.add_statement(StatementSpec {
        name: "S1".into(),
        iters: vec!["i".into()],
        domain_ineqs: vec![vec![1, 0, 0], vec![-1, 1, -1]],
        beta: vec![0, 0],
        write: ("b".into(), vec![vec![1, 0, 0]]),
        reads: vec![("a".into(), vec![vec![1, 0, 0]])],
        body: Expr::Lit(2.0) * Expr::Read(0),
    });
    let prog = b.build();
    let mut t = original_schedule(&prog);
    t.rows[1].par = pluto::Parallelism::Parallel;
    for sp in t.stmt_par.iter_mut() {
        sp[1] = pluto::Parallelism::Parallel;
    }
    let ast = generate(&prog, &t);
    (prog, ast)
}

fn fresh_arrays() -> Arrays {
    let mut a = Arrays::new(vec![vec![100], vec![100]]);
    a.seed_with(|ar, o| (ar * 3 + o) as f64);
    a
}

const CFG: ParallelConfig = ParallelConfig {
    threads: 4,
    collapse: 1,
};

/// Satellite: workers count instances into locals and the team flushes
/// once per dispatch — the global counter total must equal the
/// sequential run's, with no double counting from the run epilogue.
#[test]
fn parallel_counter_total_matches_sequential() {
    let (prog, ast) = parallel_scale();

    let session = pluto_obs::Session::start();
    let seq_stats = run_sequential(&prog, &ast, &[100], &mut fresh_arrays());
    let seq = session.finish().counter("machine.instances").unwrap();

    let session = pluto_obs::Session::start();
    let par_stats = run_parallel(&prog, &ast, &[100], &mut fresh_arrays(), CFG);
    let par = session.finish().counter("machine.instances").unwrap();

    assert_eq!(seq_stats.instances, 100);
    assert_eq!(par_stats.instances, 100);
    assert_eq!(seq, 100);
    assert_eq!(par, seq, "parallel counter total must match sequential");
}

/// Acceptance: a traced `run_parallel` produces one timeline per
/// enlisted worker slot plus the coordinator, with paired B/E events.
/// With the pooled engine the coordinator participates as member 0, so
/// `threads = 4` means tids `{0, 1, 2, 3}` — and the worker tids are
/// the stable pool slot numbers, not per-dispatch spawn order.
#[test]
fn run_parallel_emits_trace_spans() {
    let (prog, ast) = parallel_scale();
    let obs = pluto_obs::ObsSession::builder().trace().build();
    {
        let _g = obs.install();
        run_parallel(&prog, &ast, &[100], &mut fresh_arrays(), CFG);
    }
    let trace = obs.take_trace();
    // Coordinator + 3 enlisted pool workers.
    assert_eq!(trace.distinct_tids(), 4);
    for tid in 0..4u32 {
        let begins = trace
            .events
            .iter()
            .filter(|e| e.tid == tid && e.ph == pluto_obs::trace::Phase::Begin)
            .count();
        let ends = trace
            .events
            .iter()
            .filter(|e| e.tid == tid && e.ph == pluto_obs::trace::Phase::End)
            .count();
        assert!(begins >= 1, "tid {tid} has no begin events");
        assert_eq!(begins, ends, "tid {tid} has unpaired span events");
    }
    let doc = trace.to_chrome_json();
    assert_eq!(doc.get("schema").unwrap().as_str(), Some("trace_event/1"));
}

/// `run_parallel_profiled` returns the dispatch aggregate without any
/// global session, and its per-thread instances partition the total.
#[test]
fn profiled_run_reports_dispatches() {
    let (prog, ast) = parallel_scale();
    let (stats, profile) = run_parallel_profiled(&prog, &ast, &[100], &mut fresh_arrays(), CFG);
    assert_eq!(stats.instances, 100);
    assert_eq!(profile.dispatches, stats.parallel_regions);
    assert_eq!(profile.threads, 4);
    assert_eq!(profile.instances_per_thread.iter().sum::<u64>(), 100);
    assert!(profile.imbalance_max >= 1.0);
    assert!(profile.imbalance_mean >= 1.0);
}

/// A session spanning a parallel run and an attributed cache run gets
/// the full `exec` section: dispatches and per-array attribution keyed
/// by IR array names.
#[test]
fn session_collects_exec_section() {
    let (prog, ast) = parallel_scale();
    let session = pluto_obs::Session::start();
    run_parallel(&prog, &ast, &[100], &mut fresh_arrays(), CFG);
    let (_, totals, per) = run_with_cache_attributed(
        &prog,
        &ast,
        &[100],
        &mut fresh_arrays(),
        CacheConfig::default(),
    );
    let profile = session.finish();
    let exec = profile.exec.expect("exec section recorded");
    assert!(exec.dispatches >= 1);
    assert_eq!(exec.threads, 4);
    let names: Vec<&str> = exec.arrays.iter().map(|a| a.name.as_str()).collect();
    assert_eq!(names, ["a", "b"]);
    // Attributed totals partition the simulator totals, and the obs
    // copy agrees with the returned one.
    assert_eq!(
        per.iter().map(|(_, s)| s.accesses).sum::<u64>(),
        totals.accesses
    );
    assert_eq!(
        exec.arrays.iter().map(|a| a.accesses).sum::<u64>(),
        totals.accesses
    );
}

/// The deterministic parts of the pooled `ExecProfile`, pinned against
/// the reference evaluator's `ExecStats` and against literals: one
/// dispatch for the one parallel loop, a team as wide as the
/// configuration, and every instance accounted to some member. The
/// per-slot split is scheduling (dynamic chunks), so only its sum is
/// pinned; cache attribution is compared via the session in
/// `session_collects_exec_section`.
#[test]
fn pooled_profile_matches_sequential_stats() {
    let (prog, ast) = parallel_scale();
    let mut seq_arrays = fresh_arrays();
    let mut pooled_arrays = fresh_arrays();
    let seq_stats = run_sequential(&prog, &ast, &[100], &mut seq_arrays);
    let (pooled_stats, pooled) =
        run_parallel_profiled(&prog, &ast, &[100], &mut pooled_arrays, CFG);
    assert!(seq_arrays.bitwise_eq(&pooled_arrays));
    // The reference ignores parallel markers; the engine counts them.
    assert_eq!(seq_stats.parallel_regions, 0);
    assert_eq!(pooled_stats.parallel_regions, 1);
    assert_eq!(pooled_stats.instances, seq_stats.instances);
    assert_eq!(pooled_stats.flops, seq_stats.flops);
    assert_eq!((seq_stats.instances, seq_stats.flops), (100, 100));
    assert_eq!(pooled.dispatches, 1);
    assert_eq!(pooled.threads, 4);
    assert_eq!(pooled.instances_per_thread.len(), 4);
    assert_eq!(
        pooled.instances_per_thread.iter().sum::<u64>(),
        seq_stats.instances
    );
}

/// Satellite: the zero-cost disabled path extends to the pool and the
/// compiled executor — with no session and no trace, a pooled
/// `run_parallel` allocates no trace buffers and records no dispatches.
#[test]
fn pooled_disabled_path_is_inert() {
    let (prog, ast) = parallel_scale();
    assert!(!pluto_obs::enabled());
    assert!(!pluto_obs::trace::enabled());
    assert!(!pluto_obs::exec_metrics_enabled());
    run_parallel(&prog, &ast, &[100], &mut fresh_arrays(), CFG);
    // Worker-slot and coordinator ring buffers must not exist while
    // tracing is off (the pin that keeps the hot path clock-free).
    for tid in 0..4 {
        assert!(pluto_obs::trace::RingBuf::for_thread(tid).is_none());
    }
    // And nothing leaked into the session accumulator: a session opened
    // *after* the run sees no exec section.
    let session = pluto_obs::Session::start();
    let profile = session.finish();
    assert!(profile.exec.is_none());
}
