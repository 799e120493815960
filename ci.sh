#!/bin/sh
# Hermetic CI gate: lint + format + rustdoc checks, offline release
# build, a one-emitter gate (only obs::json writes JSON text), full
# offline test suite, the 200-kernel fixed-seed differential
# fuzz run, a control-overhead gate (exact per-instance counts of lets
# and bound operands on the paper's kernels — deterministic, not a
# timing), a bench_json smoke run with BENCH_*.json schema checks, a
# bench_diff perf-regression gate against the committed baselines,
# smoke runs of the repo benchmark's four workloads (the only build of
# benchmark/ against the workspace crates), a plutoc option-validation gate, a
# concurrent-compile isolation smoke (per-session telemetry), a plutod
# daemon smoke (cache hits + the stats aggregation invariant re-derived
# from the wire documents, then hostile request lines answered with
# errors while the service stays up), and a trace-schema smoke run of
# `plutoc --trace`.
#
# The workspace has zero external dependencies (path deps only), so every
# step runs with --offline against an empty crate registry. Randomized
# tests are seeded via pluto-testkit; failures print a
# `TESTKIT_SEED=<hex> TESTKIT_CASES=1` replay line.
set -eu

cd "$(dirname "$0")"

echo "== clippy (all targets, warnings are errors) =="
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "== rustfmt (check only) =="
cargo fmt --check

echo "== rustdoc (no-deps, warnings are errors) =="
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace

echo "== one JSON emitter: nothing outside obs::json escapes a string =="
# Every document is a pluto_obs::json::Json value serialized by
# to_compact/to_pretty; a string escaper anywhere else means some code
# is writing JSON text by hand again.
if grep -rn 'escape(' --include=*.rs crates src \
    | grep -v '^crates/obs/src/json.rs:'; then
    echo "JSON text is produced outside crates/obs/src/json.rs" >&2
    exit 1
fi

echo "== build (release, all targets, offline) =="
cargo build --release --offline --workspace --all-targets

echo "== test suite (release, offline) =="
cargo test --release --offline --workspace

echo "== differential fuzz: 200 random kernels, fixed seed =="
# Each case also runs the bytecode translation validator (PL008–PL012)
# on the compiled kernel the engines executed — see testkit's oracle.
TESTKIT_CASES=200 cargo test --release --offline --test differential_fuzz \
    -- --nocapture

echo "== control overhead per point: exact counts on the paper's five kernels =="
# What tiling costs on the bytecode engine is control work per statement
# instance, and machine::control_mix counts it exactly. At benchmark/'s
# tile size and kernel_exec sizes the transformed code must bind at most
# 0.02 lets per instance and fdtd-2d evaluate at most 0.6 bound operands
# per instance (tests/control_mix.rs — built by the suite above, rerun
# here by name with its table). And the emitted C calls statements with
# arguments: no supernode is ever bound.
cargo test --release --offline --test control_mix -- --nocapture
if ./target/release/plutoc --tile 32 examples/jacobi-1d.c | grep -q 'int tT'; then
    echo "plutoc binds a supernode per instance again" >&2
    exit 1
fi

echo "== bench smoke: BENCH_*.json emission + well-formedness =="
# bench_json builds both documents as pluto_obs::json values; here we
# check the files exist and carry the expected schema tags (bench_diff
# below parses them), keeping the gate hermetic (no python, no jq).
# Committed baselines are set aside first so bench_diff can compare the
# fresh run against them.
cp BENCH_pipeline.json /tmp/pluto-ci-baseline-pipeline.json
cp BENCH_kernels.json /tmp/pluto-ci-baseline-kernels.json
cargo run --release --offline -p pluto-bench
grep -q '"schema": "pluto-bench-pipeline/3"' BENCH_pipeline.json
grep -q '"schema": "pluto-bench-kernels/3"' BENCH_kernels.json
grep -q '"engine": "bytecode"' BENCH_kernels.json

echo "== bench_diff: fresh run vs committed baselines (soft wall-time gate) =="
# Counter-based metrics are deterministic and gate hard (fail >= 50 %
# growth); wall-time metrics only warn — this machine is not the
# machine that produced the committed numbers. PERFORMANCE.md §6.
./target/release/bench_diff /tmp/pluto-ci-baseline-pipeline.json BENCH_pipeline.json
./target/release/bench_diff /tmp/pluto-ci-baseline-kernels.json BENCH_kernels.json

echo "== bench_diff: gate sanity (self-compare clean, fixture regression trips) =="
./target/release/bench_diff BENCH_pipeline.json BENCH_pipeline.json
if ./target/release/bench_diff \
    crates/bench/tests/fixtures/pipeline_base.json \
    crates/bench/tests/fixtures/pipeline_regressed.json; then
    echo "bench_diff failed to flag the fixture regression" >&2
    exit 1
fi

echo "== benchmark smoke: benchmark/ builds against these crates; workloads verify =="
# benchmark/ is its own workspace, so the `--workspace` build above never
# compiles benchmark/src/layers.rs — the one file that calls the
# library — against the crates as they are now. kernel_exec is the
# workload that runs the executors: its digests of every result array
# (tree-walk reference, bytecode, simulated runs) must all match.
for trace in 0 1; do
    bash benchmark/run.sh --smoke --workload kernel_exec --trace "$trace" \
        | tail -n 1 > /tmp/pluto-ci-benchmark.json
    grep -q '"failed": 0,' /tmp/pluto-ci-benchmark.json
done
# cold_compile and service_mix drive plutoc and plutod — the two front
# ends over the one compile path (src/compile.rs) — and require their C
# byte-equal across passes and to each other. audit_generated is the
# many-small-ILPs workload: 32 generated sources through
# plutoc --analyze --verify, the one most exposed to per-solve overhead.
for workload in cold_compile service_mix audit_generated; do
    bash benchmark/run.sh --smoke --workload "$workload" --trace 0 \
        | tail -n 1 > /tmp/pluto-ci-benchmark.json
    grep -q '"failed": 0,' /tmp/pluto-ci-benchmark.json
done

echo "== option validation: plutoc --tile 0 is a typed error, not a panic =="
if ./target/release/plutoc --tile 0 examples/matmul.c \
    > /dev/null 2> /tmp/pluto-ci-tile0.err \
    || grep -q panicked /tmp/pluto-ci-tile0.err; then
    echo "plutoc --tile 0 must exit non-zero without panicking" >&2
    exit 1
fi

echo "== pooled-executor smoke: plutoc --threads 4 --profile --trace on seidel-2d =="
# --trace triggers a real execution through the persistent-pool compiled
# engine; --profile-json must then carry the exec section (dispatches,
# imbalance) and the trace must hold the stable worker-slot timelines.
./target/release/plutoc --tile 8 --threads 4 --profile-json \
    --trace /tmp/pluto-ci-pool-trace.json examples/seidel-2d.c \
    > /tmp/pluto-ci-pool-profile.json
grep -q '"schema": "pluto-profile/3"' /tmp/pluto-ci-pool-profile.json
grep -q '"dispatches"' /tmp/pluto-ci-pool-profile.json
grep -q '"schema": "trace_event/1"' /tmp/pluto-ci-pool-trace.json

echo "== concurrent-compile smoke: per-session telemetry isolation =="
# In-process proof (the ISSUE 9 acceptance): all 13 example kernels
# compiled simultaneously on their own threads, each under a private
# ObsSession, must emit explain/profile documents identical to serial
# runs (tests/concurrent_compiles.rs — built by the suite above, rerun
# here by name so the gate is visible even when test output is terse).
cargo test --release --offline --test concurrent_compiles
# Process-level smoke: 9 parallel plutoc profile compiles (3 per shipped
# example). Every emitted document must carry the stable schema, and its
# counter totals must equal a serial reference run of the same kernel —
# concurrency may never leak into the deterministic counters.
# (--threads 1 keeps dependence analysis on one worker: with a team,
# two workers racing to the same emptiness-cache key can both miss,
# which is correct but makes hit/miss counts scheduling-dependent.)
for example in examples/*.c; do
    base=$(basename "$example" .c)
    ./target/release/plutoc --tile 8 --threads 1 --profile-json "$example" \
        > "/tmp/pluto-ci-conc-serial-$base.json"
done
for round in 1 2 3; do
    for example in examples/*.c; do
        base=$(basename "$example" .c)
        ./target/release/plutoc --tile 8 --threads 1 --profile-json "$example" \
            > "/tmp/pluto-ci-conc-par-$base-$round.json" &
    done
done
wait
for round in 1 2 3; do
    for example in examples/*.c; do
        base=$(basename "$example" .c)
        par="/tmp/pluto-ci-conc-par-$base-$round.json"
        grep -q '"schema": "pluto-profile/3"' "$par"
        grep -o '"name": "[a-z_.]*", "value": [0-9]*' \
            "/tmp/pluto-ci-conc-serial-$base.json" > /tmp/pluto-ci-conc-a.txt
        grep -o '"name": "[a-z_.]*", "value": [0-9]*' \
            "$par" > /tmp/pluto-ci-conc-b.txt
        cmp /tmp/pluto-ci-conc-a.txt /tmp/pluto-ci-conc-b.txt || {
            echo "counter totals diverge for $base (round $round)" >&2
            exit 1
        }
    done
done

echo "== daemon smoke: plutod stdio, 21 compiles with repeats, stats == sum of profiles =="
# One plutod process serves 7 rounds over the 3 shipped examples (21
# compile requests — 3 cold, 18 repeats) plus a final stats request.
# The gate asserts the pluto-rpc/1 / pluto-stats/1 / pluto-log/1 wire
# surface AND the aggregation invariant, re-derived hermetically: every
# counter in the stats document must equal the awk-sum of that counter
# over the 21 per-request pluto-profile/3 documents (PERFORMANCE.md
# §5.6). Sources are one-lined with tr; the examples contain no JSON
# metacharacters.
: > /tmp/pluto-ci-daemon-req.jsonl
i=0
for round in 1 2 3 4 5 6 7; do
    for example in examples/*.c; do
        i=$((i+1))
        printf '{"id": %d, "method": "compile", "source": "%s"}\n' \
            "$i" "$(tr '\n' ' ' < "$example")" >> /tmp/pluto-ci-daemon-req.jsonl
    done
done
printf '{"id": 99, "method": "stats"}\n' >> /tmp/pluto-ci-daemon-req.jsonl
./target/release/plutod < /tmp/pluto-ci-daemon-req.jsonl \
    > /tmp/pluto-ci-daemon-resp.jsonl 2> /tmp/pluto-ci-daemon-log.jsonl
[ "$(wc -l < /tmp/pluto-ci-daemon-resp.jsonl)" -eq 22 ]
# Wire schemas: every response is pluto-rpc/1, every stderr record is
# pluto-log/1, the final response carries the pluto-stats/1 aggregate.
[ "$(grep -c '"schema": "pluto-rpc/1"' /tmp/pluto-ci-daemon-resp.jsonl)" -eq 22 ]
[ "$(grep -c '"schema": "pluto-log/1"' /tmp/pluto-ci-daemon-log.jsonl)" -eq 22 ]
tail -n 1 /tmp/pluto-ci-daemon-resp.jsonl | grep -q '"schema": "pluto-stats/1"'
# The schedule cache worked: 3 cold misses, 18 hits, visible both in
# the per-request log lines and in the stats cache totals.
[ "$(grep -c '"cache": "miss"' /tmp/pluto-ci-daemon-log.jsonl)" -eq 3 ]
[ "$(grep -c '"cache": "hit"' /tmp/pluto-ci-daemon-log.jsonl)" -eq 18 ]
tail -n 1 /tmp/pluto-ci-daemon-resp.jsonl \
    | grep -o '"cache": {"hits": [0-9]*, "misses": [0-9]*' \
    | grep -q '"hits": 18, "misses": 3'
# The aggregation invariant: awk-sum each counter over the 21 compile
# responses, then compare name-by-name against the stats counters.
head -n 21 /tmp/pluto-ci-daemon-resp.jsonl \
    | grep -o '"name": "[a-z_.]*", "value": [0-9]*' \
    | awk -F'"' '{sum[$4] += substr($7, 3)}
                 END {for (n in sum) printf "%s %d\n", n, sum[n]}' \
    | sort > /tmp/pluto-ci-daemon-sum.txt
tail -n 1 /tmp/pluto-ci-daemon-resp.jsonl \
    | grep -o '"name": "[a-z_.]*", "value": [0-9]*' \
    | awk -F'"' '{printf "%s %d\n", $4, substr($7, 3)}' \
    | sort > /tmp/pluto-ci-daemon-stats.txt
cmp /tmp/pluto-ci-daemon-sum.txt /tmp/pluto-ci-daemon-stats.txt || {
    echo "pluto-stats/1 counters diverge from the sum of served profiles" >&2
    exit 1
}

echo "== daemon smoke: hostile request lines get errors, the service stays up =="
# 200 000 unclosed brackets once overflowed the parser's stack (SIGABRT)
# and an id of 1e999 was echoed back as `inf`, which is not JSON. Both
# are answered "ok": false now, and the health request behind them on
# the same process is served.
{
    head -c 200000 /dev/zero | tr '\0' '['
    printf '\n{"id": 1e999, "method": "health"}\n{"id": 3, "method": "health"}\n'
} | ./target/release/plutod \
    > /tmp/pluto-ci-daemon-hostile.jsonl 2> /tmp/pluto-ci-daemon-hostile-log.jsonl
[ "$(wc -l < /tmp/pluto-ci-daemon-hostile.jsonl)" -eq 3 ]
[ "$(head -n 2 /tmp/pluto-ci-daemon-hostile.jsonl | grep -c '"ok": false')" -eq 2 ]
tail -n 1 /tmp/pluto-ci-daemon-hostile.jsonl | grep -q '"id": 3, "ok": true'
if grep -q 'inf' /tmp/pluto-ci-daemon-hostile.jsonl \
    /tmp/pluto-ci-daemon-hostile-log.jsonl; then
    echo "plutod wrote a non-finite number" >&2
    exit 1
fi

echo "== trace smoke: plutoc --trace emits a valid trace_event/1 document =="
./target/release/plutoc --tile 8 --trace /tmp/pluto-ci-trace.json \
    examples/seidel-2d.c > /dev/null
grep -q '"schema": "trace_event/1"' /tmp/pluto-ci-trace.json
grep -q '"ph": "B"' /tmp/pluto-ci-trace.json

echo "== explain smoke: pluto-explain/1 + PL007 ledger cross-check per example =="
# --analyze re-proves every decision-log satisfaction claim
# independently (PL007) AND translation-validates the compiled bytecode
# against the polyhedral source (PL008–PL013), so a clean exit per
# kernel means the telemetry, the static verifier, and the executor's
# compiler all agree. (The fuzz run above applies the same
# ledger + bytecode gates to all 200 random kernels via the oracle.)
for example in examples/*.c; do
    ./target/release/plutoc --explain-json --analyze "$example" \
        > /tmp/pluto-ci-explain.json
    grep -q '"schema": "pluto-explain/1"' /tmp/pluto-ci-explain.json
done

echo "== bytecode-verifier smoke: analyze/bytecode span + counters in profiles =="
# The verification cost must be attributed: an --analyze --profile-json
# run carries the analyze/bytecode phase and nonzero analyze.bytecode_*
# counters for a kernel with parallel dispatches.
./target/release/plutoc --tile 8 --analyze --profile-json \
    examples/seidel-2d.c > /tmp/pluto-ci-bytecode-profile.json 2>/dev/null
grep -q '"analyze/bytecode"' /tmp/pluto-ci-bytecode-profile.json
grep -q '"analyze.bytecode_accesses"' /tmp/pluto-ci-bytecode-profile.json

echo "== solver-cache smoke: compile-time shortcuts active + output-invariant =="
# The speed passes (DESIGN.md §11) must actually fire: a default
# seidel-2d compile reports nonzero emptiness-cache hits and nonzero
# pruned dependence candidates, a default fdtd-2d compile nonzero Farkas
# memo hits and nonzero rows dropped before the tableau. And the
# shortcuts must be switchable off with bit-identical output:
# --no-solver-cache (cache off, warm-start, row deduplication and memo
# off, pruning off) emits exactly the same C for every benchmark kernel.
./target/release/plutoc --tile 8 --profile-json examples/seidel-2d.c \
    > /tmp/pluto-ci-cache-profile.json
grep -qE '"name": "ilp.cache_hits", "value": [1-9]' \
    /tmp/pluto-ci-cache-profile.json
grep -qE '"name": "ir.pruned_candidates", "value": [1-9]' \
    /tmp/pluto-ci-cache-profile.json
./target/release/plutoc --tile 32 --profile-json benchmark/kernels/fdtd-2d.c \
    > /tmp/pluto-ci-cache-profile.json
grep -qE '"name": "core.farkas_memo_hits", "value": [1-9]' \
    /tmp/pluto-ci-cache-profile.json
grep -qE '"name": "ilp.rows_dropped", "value": [1-9]' \
    /tmp/pluto-ci-cache-profile.json
for kernel in benchmark/kernels/*.c; do
    ./target/release/plutoc --tile 32 "$kernel" > /tmp/pluto-ci-cache-on.c
    ./target/release/plutoc --tile 32 --no-solver-cache "$kernel" \
        > /tmp/pluto-ci-cache-off.c
    cmp /tmp/pluto-ci-cache-on.c /tmp/pluto-ci-cache-off.c
done

echo "== ci.sh: all gates passed =="
