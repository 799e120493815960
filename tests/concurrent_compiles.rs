//! The tentpole's proof of isolation: N ≥ 8 threads compiling different
//! kernels *simultaneously* must each produce the same `pluto-profile/3`
//! and `pluto-explain/1` documents as their serial runs.
//!
//! Every compile installs its own `ObsSession`, so its counters, spans,
//! decision log, and emptiness-cache store are private by construction —
//! a concurrent neighbour can neither inflate a counter nor interleave a
//! decision event. The explain document (schedule rows, satisfaction
//! ledger, decision events) must be **equal** across runs; the
//! profile document is compared after zeroing wall-clock fields
//! (`total_ns`, per-phase `wall_ns`, histogram `sum_ns`/bucket
//! positions), since time itself is the one thing a loaded machine is
//! allowed to change — the *counts* (phase calls, all 24 counters,
//! histogram sample totals) must match exactly.

mod common;

use pluto::Optimizer;
use pluto_frontend::kernels;
use pluto_ir::Program;
use pluto_obs::json::Json;
use pluto_repro::pluto_schedule;
use std::sync::Barrier;

/// One full library compile of `prog` under a private session, returning
/// the (timing-zeroed profile, explain) document pair.
fn compile(name: &str, prog: &Program) -> (Json, Json) {
    // Serial dependence analysis (the `Optimizer` default) keeps the
    // session's cache hit/miss counters deterministic: with a worker
    // team, two workers can race to the same canonical key and both
    // miss, which is correct but scheduling-dependent.
    let out = pluto_schedule(prog, None, &Optimizer::new().tile_size(8), None)
        .unwrap_or_else(|e| panic!("{name}: compile failed: {e:?}"));
    let mut profile = out.profile.to_json(Some(name));
    common::zero_timing(&mut profile);
    (profile, out.explain)
}

/// ISSUE 9 acceptance: per-compile profile/explain JSON from N ≥ 8
/// simultaneous compiles is identical to serial runs.
#[test]
fn concurrent_compiles_match_serial_documents() {
    let all = kernels::all();
    assert!(all.len() >= 8, "stress test wants at least 8 kernels");

    // Serial reference pass: one compile at a time.
    let serial: Vec<(Json, Json)> = all
        .iter()
        .map(|(name, k)| compile(name, &k.program))
        .collect();

    // Concurrent pass: every kernel on its own thread, released together.
    let barrier = Barrier::new(all.len());
    let concurrent: Vec<(Json, Json)> = std::thread::scope(|scope| {
        let handles: Vec<_> = all
            .iter()
            .map(|(name, k)| {
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    compile(name, &k.program)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for (((name, _), serial), concurrent) in all.iter().zip(&serial).zip(&concurrent) {
        assert_eq!(
            serial.1, concurrent.1,
            "{name}: explain document diverges between serial and concurrent compiles"
        );
        assert_eq!(
            serial.0, concurrent.0,
            "{name}: profile document (timing-normalized) diverges between serial \
             and concurrent compiles"
        );
    }

    // And the documents carry their stable schemas.
    for ((name, _), (profile, explain)) in all.iter().zip(&serial) {
        assert_eq!(
            profile.get("schema").unwrap().as_str(),
            Some("pluto-profile/3"),
            "{name}: profile schema drifted"
        );
        assert_eq!(
            explain.get("schema").unwrap().as_str(),
            Some("pluto-explain/1"),
            "{name}: explain schema drifted"
        );
    }
}
