#!/usr/bin/env bash
# The full local CI gate: build, tests, lints, formatting, and a telemetry
# smoke-run. Run from anywhere; operates on the repository root.
set -euo pipefail

cd "$(dirname "$0")/.."

# Each section prints its header; the next one first prints how long the
# previous one took, so changes in CI cost show in the log. Timing only:
# no section has a time limit.
section_name=""
section_started_us=${EPOCHREALTIME/[.,]/}
section() {
  local now_us=${EPOCHREALTIME/[.,]/}
  if [ -n "$section_name" ]; then
    local tenths=$(((now_us - section_started_us) / 100000))
    echo "-- $section_name: $((tenths / 10)).$((tenths % 10)) s"
  fi
  section_name="$1"
  section_started_us=$now_us
  echo "== $1 =="
}

section "cargo build --release"
cargo build --release

section "cargo test -q (tier-1)"
# tier-1 covers the root package (`qoco`) only: its unit tests, tests/*.rs
# and doc tests. The --workspace step below adds the member crates' own
# suites: the unit tests of data, query, engine, graph, crowd, core,
# datasets, telemetry, bench and the shims, plus engine's
# telemetry_counters and view_property, core's decision_provenance and
# served_counters, and bench's phases_profile_repro, telemetry_noop_guard
# and telemetry_overhead_budget.
cargo test -q

section "tests/cli.rs under 16 threads, 10 times (temp-dir isolation)"
for _ in $(seq 1 10); do
  cargo test -q -p qoco --test cli -- --test-threads=16
done

section "no panics as control flow in production code"
# served sessions park on a waiting thread; nothing may raise, catch or
# hook a panic to steer the program
if grep -rnE 'panic_any|catch_unwind|set_hook|take_hook' src crates/*/src; then
  echo "panic-based control flow in production code (listed above)" >&2
  exit 1
fi

section "evaluation stays on the calling thread, one cleaning loop"
# the parallel evaluation path and its thread knob are gone, and so is the
# forked multi-expert cleaner: every Algorithm 3 session runs through
# clean_view. Nothing may bring back a thread-pool or scoped-thread
# dependency, its env var, cross-thread span parenting or the fork
if grep -rnE 'rayon|RAYON_NUM_THREADS|span_child_of|par_chunk|crossbeam|parking_lot|ParallelMajorityCrowd|clean_view_parallel' \
  src crates shims examples tests Cargo.toml; then
  echo "parallel-evaluation or forked-cleaner remnants (listed above)" >&2
  exit 1
fi
# union views run through the same clean_view loop (a CQ is a union of one
# disjunct), and Algorithms 1 and 2 take their views directly: no second
# loop, no forwarding wrappers (`apply_tracked` stays legal)
if grep -rnE 'ucq_clean|clean_union_view|crowd_remove_wrong_answer_tracked|crowd_add_missing_answer_tracked|union\.verify_answer' \
  src crates examples tests; then
  echo "union-cleaner fork or forwarding-wrapper remnants (listed above)" >&2
  exit 1
fi

section "unreached modules stay deleted"
# key/foreign-key repair, the Proposition 3.4 enumeration, Edmonds–Karp
# and two unused Section 7.2 metrics had no caller and were removed;
# constraint repair is to be rebuilt on the cleaner's step function, not
# restored. Word boundaries keep `unconstrained` (engine tests) legal
if grep -rnwE 'constrained|ConstraintSet|naive_enumeration|FlowNetwork|max_flow|min_st_cut|noise_skewness|result_cleanliness|NoWitness' \
  src crates examples tests; then
  echo "deleted unreached-module names are back (listed above)" >&2
  exit 1
fi

section "DESIGN.md §4 crate map matches the source tree"
# each row of the §4 table names a directory and, backticked, every .rs
# file under it but lib.rs; every crate's src directory needs a row
crate_map="$(sed -n '/^## 4\. /,/^## 5\. /p' DESIGN.md)"
map_dirs="$(grep -oE '^\| `[^`]+` \|' <<<"$crate_map" | tr -d '|` ')"
for dir in crates/*/src; do
  grep -qx "$dir" <<<"$map_dirs" \
    || { echo "DESIGN.md §4 has no row for $dir" >&2; exit 1; }
done
for dir in $map_dirs; do
  [ -d "$dir" ] || { echo "DESIGN.md §4 names a missing directory: $dir" >&2; exit 1; }
  on_disk="$(cd "$dir" && find . -name '*.rs' ! -name lib.rs | sed 's|^\./||; s|\.rs$||' | sort)"
  row="$(grep -F "| \`$dir\` |" <<<"$crate_map")"
  in_map="$(sed 's/^| `[^`]*` |//' <<<"$row" | grep -oE '`[^`]+`' | tr -d '`' | sort)"
  diff -u <(echo "$in_map") <(echo "$on_disk") \
    || { echo "DESIGN.md §4 row for $dir differs from the files on disk (diff above: - map, + disk)" >&2; exit 1; }
done
echo "crate map matches the source tree: OK"

section "cargo test -q --workspace"
cargo test -q --workspace

section "cargo bench --workspace --no-run"
cargo bench --workspace --no-run

section "cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

section "cargo fmt --check"
cargo fmt --all --check

section "figures: question counts match the committed golden"
# Crowd cost is the paper's primary metric, so every figure's count table
# is a gate: a change that moves any count must update
# scripts/figures.golden on purpose. The timed phase breakdown (`phases`)
# and the per-target `[generated in …]` lines measure the host, not the
# algorithms, and are left out.
figure_targets="fig3a fig3b fig3c fig3d fig3e fig3f fig4 dbgroup ablation-hs \
ablation-umhs ablation-heur ablation-composite sweep-clean sweep-error watch"
# shellcheck disable=SC2086 # the target list splits into arguments
cargo run -q --release -p qoco-bench --bin figures -- $figure_targets \
  | grep -v '^  \[generated in' \
  | diff -u scripts/figures.golden - \
  || { echo "figures: counts differ from scripts/figures.golden (diff above)" >&2; exit 1; }
echo "figure counts match scripts/figures.golden: OK"

section "examples"
# every example must run clean; most assert their outcome (the
# imperfect-crowd panel must converge at every error rate it prints)
for example in examples/*.rs; do
  cargo run -q --release --example "$(basename "$example" .rs)" > /dev/null
done

section "telemetry smoke-run"
# the Figure 1 scenario through qoco-cli must emit both a non-trivial
# JSONL export covering the cleaning phases and a Perfetto-loadable Chrome
# trace
work="$(mktemp -d -t qoco-ci-XXXXXX)"
trap 'rm -rf "$work"' EXIT
trace="$work/trace.jsonl"
chrome_trace="$work/trace.json"
mkdir -p "$work/dirty" "$work/ground"

printf 'date\twinner\trunner_up\tstage\tresult\n11.07.10\tESP\tNED\tFinal\t1:0\n12.07.98\tESP\tNED\tFinal\t4:2\n13.07.14\tGER\tARG\tFinal\t1:0\n08.07.90\tGER\tARG\tFinal\t1:0\n' > "$work/dirty/Games.tsv"
printf 'country\tcontinent\nESP\tEU\nGER\tEU\n' > "$work/dirty/Teams.tsv"
printf 'date\twinner\trunner_up\tstage\tresult\n11.07.10\tESP\tNED\tFinal\t1:0\n13.07.14\tGER\tARG\tFinal\t1:0\n08.07.90\tGER\tARG\tFinal\t1:0\n' > "$work/ground/Games.tsv"
printf 'country\tcontinent\nESP\tEU\nGER\tEU\n' > "$work/ground/Teams.tsv"

printf '%s\n' \
  'relation Games date winner runner_up stage result' \
  'relation Teams country continent' \
  "load $work/dirty" \
  "ground $work/ground" \
  'query Q1(x) :- Games(d1, x, y, "Final", u1), Games(d2, x, z, "Final", u2), Teams(x, "EU"), d1 != d2.' \
  'clean Q1 qoco provenance' \
  'quit' \
  | ./target/release/qoco-cli --telemetry "$trace" --trace "$chrome_trace" > /dev/null

for needle in clean.session clean.deletion_phase clean.insertion_phase eval.assignments crowd.questions_asked; do
  grep -q "$needle" "$trace" || { echo "telemetry smoke-run: missing $needle in trace" >&2; exit 1; }
done
echo "telemetry trace OK ($(wc -l < "$trace") JSONL lines)"

# the Chrome trace must parse as valid trace-event JSON
cargo run -q --release -p qoco-bench --bin qoco-bench -- \
  validate-trace "$chrome_trace" --require-span clean.session

section "chaos / crash-recovery smoke-run"
# the same Figure 1 scenario again, now under injected crowd faults and a
# mid-session kill; emits the session script with a parameterised save dir
chaos_script() {
  printf '%s\n' \
    'relation Games date winner runner_up stage result' \
    'relation Teams country continent' \
    "load $work/dirty" \
    "ground $work/ground" \
    'query Q1(x) :- Games(d1, x, y, "Final", u1), Games(d2, x, z, "Final", u2), Teams(x, "EU"), d1 != d2.' \
    'clean Q1 qoco provenance' \
    "save $1" \
    'quit'
}

# faults off: the uninterrupted baseline the recovery run must reproduce
chaos_script "$work/clean-base" | ./target/release/qoco-cli > /dev/null

# a permanently dropped expert must yield an explicit partial report
# (exit 0 with an unresolved section), never a panic
chaos_out="$work/chaos.out"
chaos_script "$work/clean-chaos" | ./target/release/qoco-cli --faults drop@2 > "$chaos_out"
grep -q "PARTIAL REPORT" "$chaos_out" || { echo "chaos run: no partial report" >&2; exit 1; }
grep -q "unresolved" "$chaos_out" || { echo "chaos run: no unresolved section" >&2; exit 1; }
echo "fault injection degrades to a partial report: OK"

# kill the session after its 4th crowd answer with a write-ahead journal…
journal="$work/session.journal"
code=0
chaos_script "$work/clean-killed" \
  | ./target/release/qoco-cli --journal "$journal" --kill-after 4 > /dev/null 2>&1 || code=$?
if [ "$code" -ne 86 ]; then
  echo "kill switch: expected exit 86, got $code" >&2
  exit 1
fi
# …then resume from the journal: zero replay divergences and a final
# database identical to the uninterrupted baseline
resume_out="$work/resume.out"
chaos_script "$work/clean-resumed" | ./target/release/qoco-cli --resume "$journal" > "$resume_out"
grep -q "0 divergence(s)" "$resume_out" || { echo "resume diverged" >&2; cat "$resume_out" >&2; exit 1; }
diff -r "$work/clean-base" "$work/clean-resumed" \
  || { echo "resumed database differs from the uninterrupted run" >&2; exit 1; }
echo "kill/resume reproduces the uninterrupted session: OK"

section "decision provenance / explain smoke-run"
# the Figure 1 fixture again, extended with one wrong singleton-witness
# tuple (BRA marked EU in dirty only) so both provenance shapes appear:
# a greedy frequency ranking (multi-fact witnesses behind Q1) and a fired
# Theorem 4.5 certificate (the singleton behind Q2)
cp -r "$work/dirty" "$work/dirty-prov"
printf 'BRA\tEU\n' >> "$work/dirty-prov/Teams.tsv"
prov_script() {
  printf '%s\n' \
    'relation Games date winner runner_up stage result' \
    'relation Teams country continent' \
    "load $work/dirty-prov" \
    "ground $work/ground" \
    'query Q1(x) :- Games(d1, x, y, "Final", u1), Games(d2, x, z, "Final", u2), Teams(x, "EU"), d1 != d2.' \
    'query Q2(x) :- Teams(x, "EU")' \
    'clean Q1 qoco provenance' \
    'clean Q2 qoco provenance' \
    'quit'
}

# fresh run: decision JSONL + tagged journal
prov_script | ./target/release/qoco-cli \
  --telemetry "$work/decisions.jsonl" --journal "$work/prov.journal" > /dev/null
cargo run -q --release -p qoco-bench --bin qoco-bench -- \
  validate-decisions "$work/decisions.jsonl" \
  --require-kind deletion.plan --require-kind deletion.verify_fact \
  --require-kind deletion.certificate --require-kind clean.verify_answer \
  --require-kind clean.complete_result

# the audit report must name the greedy ranking and the fired certificate
./target/release/qoco-cli explain "$work/decisions.jsonl" > "$work/explain-fresh.txt"
grep -q "ranking: " "$work/explain-fresh.txt" \
  || { echo "explain: no frequency ranking" >&2; exit 1; }
grep -q "theorem-4.5 certificate fired" "$work/explain-fresh.txt" \
  || { echo "explain: no fired theorem-4.5 certificate" >&2; exit 1; }
grep -q "^budget: " "$work/explain-fresh.txt" \
  || { echo "explain: no budget summary" >&2; exit 1; }
# every journaled question carries its decision tag
[ "$(grep -c $'\td=' "$work/prov.journal")" -eq "$(wc -l < "$work/prov.journal")" ] \
  || { echo "journal: untagged records" >&2; exit 1; }
./target/release/qoco-cli explain "$work/prov.journal" > "$work/explain-journal.txt"
grep -q "tagged with decision ids" "$work/explain-journal.txt" \
  || { echo "journal explain failed" >&2; exit 1; }

# kill the same session mid-run, resume it, and require a byte-identical
# audit report — --resume replays provenance losslessly
code=0
prov_script | ./target/release/qoco-cli \
  --journal "$work/prov-killed.journal" --kill-after 3 > /dev/null 2>&1 || code=$?
[ "$code" -eq 86 ] || { echo "provenance kill: expected exit 86, got $code" >&2; exit 1; }
prov_script | ./target/release/qoco-cli \
  --telemetry "$work/decisions-resumed.jsonl" --resume "$work/prov-killed.journal" > /dev/null
./target/release/qoco-cli explain "$work/decisions-resumed.jsonl" > "$work/explain-resumed.txt"
diff "$work/explain-fresh.txt" "$work/explain-resumed.txt" \
  || { echo "explain: fresh and resumed reports differ" >&2; exit 1; }
echo "decision provenance explains fresh and resumed sessions identically: OK"

section "profiling smoke-run"
# the Figure 1 session again, now folded into a span profile: the
# flamegraph must be structurally valid and must contain the cleaning
# phases as frames. The profile is exact (every closed span is in it), so
# two runs of one session must fold the same set of stacks; only the
# self-time weights may differ.
fig1_script() {
  printf '%s\n' \
    'relation Games date winner runner_up stage result' \
    'relation Teams country continent' \
    "load $work/dirty" \
    "ground $work/ground" \
    'query Q1(x) :- Games(d1, x, y, "Final", u1), Games(d2, x, z, "Final", u2), Teams(x, "EU"), d1 != d2.' \
    'clean Q1 qoco provenance' \
    'quit'
}
flame="$work/session.svg"
fig1_script | ./target/release/qoco-cli --profile "$flame" > /dev/null
cargo run -q --release -p qoco-bench --bin qoco-bench -- \
  validate-flamegraph "$flame" --require-frame clean.session
for run in a b; do
  fig1_script | ./target/release/qoco-cli --profile "$work/$run.folded" > /dev/null
done
grep -q "clean.session" "$work/a.folded" \
  || { echo "profile: no clean.session stack in $work/a.folded" >&2; exit 1; }
diff <(cut -d' ' -f1 "$work/a.folded") <(cut -d' ' -f1 "$work/b.folded") \
  || { echo "profile: two runs of one session folded different stacks (diff above)" >&2; exit 1; }
# folded stacks of one sweep cell must name the eval phases, and the
# folded → diff pipeline must round-trip
folded="$work/cell.folded"
cargo run -q --release -p qoco-bench --bin qoco-bench -- \
  profile dense/500/current --out "$folded" --budget-ms 300
grep -q "eval.assignments" "$folded" \
  || { echo "profile: no eval.assignments frame in $folded" >&2; exit 1; }
cargo run -q --release -p qoco-bench --bin qoco-bench -- \
  profile --diff "$folded" "$folded" | grep -q "profiles agree" \
  || { echo "profile --diff: self-diff must agree" >&2; exit 1; }
echo "profiling smoke-run: OK"

section "qoco-watch smoke-run"
# SLO rules for the chaos session: the crowd-error rule is deliberately
# tripped by the injected timeout burst (two faulted asks land on one
# early tick → rate 2/s > 0.5/s), then resolves once the window slides
# past the burst; the flood rule never trips.
watch_rules="$work/watch.rules"
printf '%s\n' \
  'rule crowd_errors: rate(crowd.faults, 1s) > 0.5/s => warn' \
  'rule question_flood: rate(crowd.questions_asked, 10s) > 1000/s => info' \
  > "$watch_rules"

# fresh watched chaos run: logical ticks, series exported as JSONL samples
watch_series="$work/watch.jsonl"
watch_out="$work/watch.out"
chaos_script "$work/clean-watched" | ./target/release/qoco-cli \
  --telemetry "$watch_series" --watch-rules "$watch_rules" \
  --faults 'burst@2+2=timeout' > "$watch_out" 2> "$work/watch.err"
grep -q '^alerts: ' "$watch_out" \
  || { echo "watch: no alert summary in the cleaning report" >&2; exit 1; }
grep -q '"type":"sample"' "$watch_series" \
  || { echo "watch: no sample series in the telemetry export" >&2; exit 1; }
grep -q '"name":"alert.firing"' "$watch_series" \
  || { echo "watch: no alert.firing event in the telemetry export" >&2; exit 1; }

# offline replay re-derives the alert timeline from the exported series and
# must see the burst rule fire AND resolve
cargo run -q --release -p qoco-bench --bin qoco-bench -- \
  watch-replay "$watch_series" --rules "$watch_rules" \
  --expect-fire crowd_errors --expect-resolve crowd_errors \
  > "$work/replay-fresh.txt"

# determinism: kill the same watched session mid-run, resume it, and the
# replayed alert timeline must be byte-identical to the fresh run's
code=0
chaos_script "$work/clean-wkilled" | ./target/release/qoco-cli \
  --journal "$work/watch.journal" --watch-rules "$watch_rules" \
  --faults 'burst@2+2=timeout' --kill-after 4 > /dev/null 2>&1 || code=$?
[ "$code" -eq 86 ] || { echo "watch kill: expected exit 86, got $code" >&2; exit 1; }
chaos_script "$work/clean-wresumed" | ./target/release/qoco-cli \
  --telemetry "$work/watch-resumed.jsonl" --resume "$work/watch.journal" \
  --watch-rules "$watch_rules" --faults 'burst@2+2=timeout' > /dev/null
cargo run -q --release -p qoco-bench --bin qoco-bench -- \
  watch-replay "$work/watch-resumed.jsonl" --rules "$watch_rules" \
  --expect-fire crowd_errors --expect-resolve crowd_errors \
  > "$work/replay-resumed.txt"
diff "$work/replay-fresh.txt" "$work/replay-resumed.txt" \
  || { echo "watch-replay: fresh and resumed alert timelines differ" >&2; exit 1; }
echo "watch-replay reproduces the alert timeline across kill/resume: OK"

# live surfaces: hold a watched session open on a FIFO and curl the
# dashboard, the alert state and the timeseries API on an ephemeral port
fifo="$work/cli.fifo"
mkfifo "$fifo"
./target/release/qoco-cli --metrics-port 0 --watch-rules "$watch_rules" \
  < "$fifo" > "$work/watch-live.out" 2> "$work/watch-live.err" &
cli_pid=$!
trap 'kill "$cli_pid" 2>/dev/null || true; rm -rf "$work"' EXIT
exec 3> "$fifo"
printf '%s\n' \
  'relation Games date winner runner_up stage result' \
  'relation Teams country continent' \
  "load $work/dirty" \
  "ground $work/ground" \
  'query Q1(x) :- Games(d1, x, y, "Final", u1), Games(d2, x, z, "Final", u2), Teams(x, "EU"), d1 != d2.' \
  'clean Q1 qoco provenance' >&3
addr=""
for _ in $(seq 1 100); do
  addr="$(sed -n 's|serving metrics on http://\([^/]*\)/metrics|\1|p' "$work/watch-live.err")"
  [ -n "$addr" ] && break
  sleep 0.1
done
[ -n "$addr" ] || { echo "watch live: metrics server never announced its port" >&2; exit 1; }
series_json=""
for _ in $(seq 1 100); do
  series_json="$(curl -sf "http://$addr/api/timeseries?metric=crowd.questions_asked&window=30s" || true)"
  case "$series_json" in *'"samples"'*) break ;; esac
  sleep 0.1
done
case "$series_json" in
  *'"metric":"crowd.questions_asked"'*) ;;
  *) echo "watch live: /api/timeseries returned no series: $series_json" >&2; exit 1 ;;
esac
curl -sf "http://$addr/dashboard" | grep -q '<svg' \
  || { echo "watch live: /dashboard has no sparklines" >&2; exit 1; }
curl -sf "http://$addr/alerts" | grep -q '"crowd_errors"' \
  || { echo "watch live: /alerts does not list the rules" >&2; exit 1; }
printf 'quit\n' >&3
exec 3>&-
wait "$cli_pid"
trap 'rm -rf "$work"' EXIT
echo "live dashboard, alerts and timeseries API: OK"

section "perf regression gate (quick)"
gate_quick="$work/gate-quick.out"
cargo run -q --release -p qoco-bench --bin qoco-bench -- regressions --check --quick \
  | tee "$gate_quick"
# the quick gate must cover the incremental-cleaning cells, not just eval
for cell in cleaning_sweep/1000/view cleaning_sweep/1000/fullre; do
  grep -q "$cell" "$gate_quick" \
    || { echo "quick gate did not compare $cell" >&2; exit 1; }
done
# ...and the gate must actually trip when a cell regresses, with the
# attribution re-run naming the injected phase as the regressed frame
gate_out="$work/gate.out"
if cargo run -q --release -p qoco-bench --bin qoco-bench -- \
    regressions --check --quick --attribute \
    --inject-slowdown selective/1000/current=3.0 > "$gate_out" 2>&1; then
  echo "regression gate failed to flag an injected 3x slowdown" >&2
  exit 1
fi
grep -q "inject.slowdown" "$gate_out" \
  || { echo "gate attribution did not name inject.slowdown:" >&2; cat "$gate_out" >&2; exit 1; }
echo "regression gate trips on injected slowdown and names the phase: OK"

section "qoco-serve smoke-run (kill -9 / rehydrate)"
# the serve-replay correctness gate first: every journal prefix of the
# Figure 1 session must rehydrate and finish byte-identically in-process
cargo run -q --release -p qoco-bench --bin qoco-bench -- validate-sessions

# now the same guarantee across real processes: drive a session over the
# HTTP API, kill -9 the server mid-session, restart it over the same
# store, finish, and diff the report against an uninterrupted run's
serve_store="$work/serve-store"
serve_log="$work/serve.log"
# each incarnation gets its own access-log/trace files: both are created
# with truncate, so reusing paths across the restart would erase the first
# incarnation's artifacts that validate-requests needs
./target/release/qoco-serve serve --addr 127.0.0.1:0 --store "$serve_store" \
  --access-log "$work/serve-access-1.jsonl" --telemetry "$work/serve-tele-1.jsonl" \
  > "$serve_log" 2>/dev/null &
serve_pid=$!
trap 'kill "$serve_pid" 2>/dev/null || true; rm -rf "$work"' EXIT
saddr=""
for _ in $(seq 1 100); do
  saddr="$(sed -n 's/^listening on //p' "$serve_log")"
  [ -n "$saddr" ] && break
  sleep 0.1
done
[ -n "$saddr" ] || { echo "qoco-serve never announced its port" >&2; exit 1; }

report_text() { sed -n 's/.*"report_text":"\(.*\)"}$/\1/p' "$1"; }

# uninterrupted baseline: s1, crowd played by the mirror oracle helper
curl -sf -X POST "http://$saddr/sessions" -d '{"example":"figure1"}' > /dev/null
./target/release/qoco-serve oracle --addr "$saddr" --session s1 > /dev/null
curl -sf "http://$saddr/sessions/s1/report" > "$work/serve-base.json"
grep -q '"partial":false' "$work/serve-base.json" \
  || { echo "serve: baseline session ended partial" >&2; exit 1; }

# chaos session: s2 gets one answer — submitted under a caller-chosen
# request id, which the server must echo — then the server dies mid-session
curl -sf -X POST "http://$saddr/sessions" -d '{"example":"figure1"}' > /dev/null
curl -sf -D "$work/serve-answer-headers.txt" \
  -X POST "http://$saddr/sessions/s2/answers" \
  -H 'X-Request-Id: ci-audit-7' \
  -d '{"epoch":1,"answers":[{"seq":1,"bool":false}]}' > /dev/null
grep -qi '^x-request-id: ci-audit-7' "$work/serve-answer-headers.txt" \
  || { echo "serve: X-Request-Id was not echoed on the response" >&2; exit 1; }
# wait for the request's provenance to reach disk — the access line and the
# write-through span land just after the response — then crash for real
for _ in $(seq 1 100); do
  grep -q 'ci-audit-7' "$work/serve-access-1.jsonl" 2>/dev/null \
    && grep -q 'ci-audit-7' "$work/serve-tele-1.jsonl" 2>/dev/null && break
  sleep 0.1
done
grep -q 'ci-audit-7' "$work/serve-access-1.jsonl" \
  || { echo "serve: ci-audit-7 never reached the access log" >&2; exit 1; }
grep -q 'ci-audit-7' "$work/serve-tele-1.jsonl" \
  || { echo "serve: ci-audit-7 never reached the exported trace" >&2; exit 1; }
sleep 0.2
kill -9 "$serve_pid"
wait "$serve_pid" 2>/dev/null || true
# the id was journaled durably before the crash, on the line it caused
grep -q 'r=ci-audit-7' "$serve_store/s2/session.journal" \
  || { echo "serve: journal line lacks r=ci-audit-7 provenance" >&2; exit 1; }

: > "$serve_log"
./target/release/qoco-serve serve --addr 127.0.0.1:0 --store "$serve_store" \
  --access-log "$work/serve-access-2.jsonl" --telemetry "$work/serve-tele-2.jsonl" \
  > "$serve_log" 2>/dev/null &
serve_pid=$!
saddr=""
for _ in $(seq 1 100); do
  saddr="$(sed -n 's/^listening on //p' "$serve_log")"
  [ -n "$saddr" ] && break
  sleep 0.1
done
[ -n "$saddr" ] || { echo "qoco-serve never came back after kill -9" >&2; exit 1; }
grep -q "rehydrated 2 session(s)" "$serve_log" \
  || { echo "serve: restart did not rehydrate both sessions" >&2; exit 1; }
# /health republishes the parked-session gauges after rehydration
curl -sf "http://$saddr/health" | grep -q '"sessions":{"active":2,"parked":1}' \
  || { echo "serve: /health gauges wrong after rehydration" >&2; exit 1; }
# a pre-crash submitter retrying under the old epoch is acked, not applied
curl -sf -X POST "http://$saddr/sessions/s2/answers" \
  -d '{"epoch":1,"answers":[{"seq":1,"bool":false}]}' \
  | grep -q '"status":"stale"' \
  || { echo "serve: stale-epoch retry was not acknowledged as stale" >&2; exit 1; }
# finish the rehydrated session — the mirror oracle tags every request it
# makes with a fixed id — and compare reports byte for byte
./target/release/qoco-serve oracle --addr "$saddr" --session s2 \
  --request-id ci-audit-8 > /dev/null
curl -sf "http://$saddr/sessions/s2/report" > "$work/serve-resumed.json"
diff <(report_text "$work/serve-base.json") <(report_text "$work/serve-resumed.json") \
  || { echo "serve: killed+rehydrated report differs from uninterrupted run" >&2; exit 1; }

section "request provenance: one id from the socket to the journal"
# the resumed answers were submitted under ci-audit-8; the id must appear
# in the post-restart journal lines they caused
grep -q 'r=ci-audit-8' "$serve_store/s2/session.journal" \
  || { echo "serve: resumed answers did not journal r=ci-audit-8" >&2; exit 1; }
# one sentinel request; once its lines land, everything before it has too
# (the access writer and the trace both write in completion order)
curl -sf -H 'X-Request-Id: ci-sentinel-9' "http://$saddr/health" > /dev/null
for _ in $(seq 1 100); do
  grep -q 'ci-sentinel-9' "$work/serve-access-2.jsonl" 2>/dev/null \
    && grep -q 'ci-sentinel-9' "$work/serve-tele-2.jsonl" 2>/dev/null && break
  sleep 0.1
done
sleep 0.2
grep -q 'ci-audit-8' "$work/serve-access-2.jsonl" \
  || { echo "serve: ci-audit-8 missing from the access log" >&2; exit 1; }
grep -q 'ci-audit-8' "$work/serve-tele-2.jsonl" \
  || { echo "serve: ci-audit-8 missing from the exported trace" >&2; exit 1; }
# the in-flight inspector answers while the server is live
curl -sf "http://$saddr/api/requests" | grep -q '"requests":' \
  || { echo "serve: /api/requests returned no inspector body" >&2; exit 1; }
# every connection slot came back: a scrape sees only itself in flight (a
# few tries, since the previous request's worker may still be releasing)
inflight_ok=""
for _ in $(seq 1 10); do
  curl -sf "http://$saddr/metrics" | grep -qx 'qoco_serve_inflight 1' && { inflight_ok=1; break; }
  sleep 0.1
done
[ -n "$inflight_ok" ] \
  || { echo "serve: serve.inflight is not 1 during a lone scrape (leaked slots)" >&2; exit 1; }
# qoco-cli explain answers "which request caused this crowd question"
./target/release/qoco-cli explain "$serve_store/s2/session.journal" \
  > "$work/serve-explain.txt"
grep -q 'with request ids' "$work/serve-explain.txt" \
  || { echo "serve explain: no request-id tally in the header" >&2; exit 1; }
grep -q '\[req=ci-audit-8\]' "$work/serve-explain.txt" \
  || { echo "serve explain: no [req=ci-audit-8] provenance tag" >&2; exit 1; }
# the cross-artifact gate, over BOTH incarnations' artifacts at once
cargo run -q --release -p qoco-bench --bin qoco-bench -- validate-requests \
  --access-log "$work/serve-access-1.jsonl" --access-log "$work/serve-access-2.jsonl" \
  --telemetry "$work/serve-tele-1.jsonl" --telemetry "$work/serve-tele-2.jsonl" \
  --journal "$serve_store/s1/session.journal" \
  --journal "$serve_store/s2/session.journal" \
  --require-request ci-audit-7 --require-request ci-audit-8 \
  > "$work/serve-validate.out"
grep -q 'cross-checked' "$work/serve-validate.out" \
  || { echo "validate-requests printed no summary:" >&2; cat "$work/serve-validate.out" >&2; exit 1; }
# ...and the strict parse must reject a torn access-log line
sed '1s/.\{10\}$//' "$work/serve-access-2.jsonl" > "$work/serve-access-corrupt.jsonl"
if cargo run -q --release -p qoco-bench --bin qoco-bench -- validate-requests \
    --access-log "$work/serve-access-corrupt.jsonl" \
    > "$work/serve-corrupt.out" 2>&1; then
  echo "validate-requests accepted a corrupted access log" >&2; exit 1
fi
grep -q 'torn or truncated' "$work/serve-corrupt.out" \
  || { echo "validate-requests wrong error on a torn line:" >&2; cat "$work/serve-corrupt.out" >&2; exit 1; }
echo "request provenance: socket → access log → trace → journal → explain: OK"

kill "$serve_pid" 2>/dev/null || true
wait "$serve_pid" 2>/dev/null || true
trap 'rm -rf "$work"' EXIT
echo "qoco-serve kill -9 / rehydrate reproduces the uninterrupted report: OK"

section "qoco-serve torn create: a leftover staging dir does not block restart"
# a create killed mid-write leaves only its staging dir (here holding just
# spec.json); the server must start over it, list the real sessions and
# delete the leftover
torn_store="$work/torn-store"
cp -r "$serve_store" "$torn_store"
mkdir "$torn_store/.s99.staging"
cp "$torn_store/s1/spec.json" "$torn_store/.s99.staging/spec.json"
: > "$serve_log"
./target/release/qoco-serve serve --addr 127.0.0.1:0 --store "$torn_store" \
  > "$serve_log" 2>/dev/null &
serve_pid=$!
trap 'kill "$serve_pid" 2>/dev/null || true; rm -rf "$work"' EXIT
saddr=""
for _ in $(seq 1 100); do
  saddr="$(sed -n 's/^listening on //p' "$serve_log")"
  [ -n "$saddr" ] && break
  sleep 0.1
done
[ -n "$saddr" ] || { echo "qoco-serve did not start over a torn create" >&2; exit 1; }
curl -sf "http://$saddr/sessions" > "$work/torn-sessions.json"
grep -q '"id":"s1"' "$work/torn-sessions.json" && grep -q '"id":"s2"' "$work/torn-sessions.json" \
  || { echo "serve: torn-create restart lost sessions:" >&2; cat "$work/torn-sessions.json" >&2; exit 1; }
! grep -q 's99' "$work/torn-sessions.json" \
  || { echo "serve: the staging dir was listed as a session" >&2; exit 1; }
[ ! -e "$torn_store/.s99.staging" ] \
  || { echo "serve: the stale staging dir survived the restart" >&2; exit 1; }
kill "$serve_pid" 2>/dev/null || true
wait "$serve_pid" 2>/dev/null || true
trap 'rm -rf "$work"' EXIT
echo "torn create: restart lists the real sessions and drops the staging dir: OK"

section "all CI gates passed"
