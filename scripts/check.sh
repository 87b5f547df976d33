#!/usr/bin/env bash
# Tier-1 verify in one command: configure + build the default preset, then
# run the test suite. Pass `asan` to do the same under the sanitizer preset,
# `tsan` to build just the concurrency-sensitive tests (thread pool + obs +
# flight recorder + telemetry plane) and run them under ThreadSanitizer, or
# `obs` to smoke-test the observability surface end to end: run agua_cli at
# tiny scale with --flight-record and Prometheus metrics output, then validate
# that both files parse and the flight record carries per-epoch training
# telemetry. `serve` smoke-tests the serving plane end to end: start
# `agua_cli --serve` on an ephemeral port, scrape /metrics /healthz /eventsz
# over HTTP, POST /explain twice (asserting the repeat is a byte-identical
# cache hit), check /modelz, then shut down via POST /quitquitquit and assert
# a clean exit. `faults` is the chaos smoke: kill -9 a training run
# mid-flight, resume it from its crash-safe checkpoints, and require the
# final model to be byte-for-byte identical to an uninterrupted run; then arm
# fault injection (--faults) and assert both the skip-and-recover path and
# the bounded-failure path behave. `trace` smoke-tests end-to-end request
# tracing: POST /explain with a W3C traceparent header and assert the same
# trace id comes back in X-Agua-Trace-Id, is queryable via /tracez?trace=ID,
# and shows up as an OpenMetrics exemplar on the serve latency histogram;
# also checks /statusz renders its operator sections. `docs` lints the
# documentation suite: every intra-repo markdown link must resolve, every
# flag `agua_cli --help` advertises must be documented in
# docs/OPERATIONS.md, and every metric/span/monitor name literal in src/
# must follow the `agua.<layer>.<op>` convention (DESIGN.md §6). `overload`
# smoke-tests the overload-control plane end to end: flood /explain past a
# tight rate limit and assert 429s carry Retry-After and the uniform error
# envelope, drive the SLO into burn and assert responses degrade
# (X-Agua-Degraded) while the burn hook fires, check the /statusz overload
# section, then let the flood stop and assert recovery. `bench` runs the
# repository benchmark's own test (perfbench/test_perfbench.py): every
# workload once at 2 s in both trace modes plus the repeatability checks;
# `python3 perfbench/run.py` is the benchmark itself. `bench-diff REF`
# compares REF with the work tree on the benchmark, alternating runs
# (scripts/bench_diff.py --help). `portable` builds the golden pins and the
# kernel tests at -O3 -march=native in build-portable/ and requires them to
# pass: explanations must not depend on how the code is built (DESIGN.md §7).
#
#   scripts/check.sh [default|asan|tsan|obs|serve|trace|faults|overload|docs|bench|portable] [-j N]
#   scripts/check.sh bench-diff REF [bench_diff.py options]
set -euo pipefail

cd "$(dirname "$0")/.."

if [ "${1:-}" = "bench-diff" ]; then
  shift
  exec python3 scripts/bench_diff.py "$@"
fi

preset="default"
jobs="$(nproc 2>/dev/null || echo 2)"
mode=""
while [ $# -gt 0 ]; do
  case "$1" in
    default|asan|tsan) preset="$1" ;;
    obs) mode="obs" ;;
    serve) mode="serve" ;;
    trace) mode="trace" ;;
    faults) mode="faults" ;;
    overload) mode="overload" ;;
    docs) mode="docs" ;;
    bench) mode="bench" ;;
    portable) mode="portable" ;;
    -j) jobs="$2"; shift ;;
    *) echo "usage: $0 [default|asan|tsan|obs|serve|trace|faults|overload|docs|bench|portable] [-j N] | bench-diff REF [options]" >&2; exit 2 ;;
  esac
  shift
done

if [ "$mode" = "bench" ]; then
  # The benchmark builds its own tree (.bench_build/perfbench) from src/.
  python3 perfbench/test_perfbench.py
  exit 0
fi

if [ "$mode" = "portable" ]; then
  # FMA units and all: -ffp-contract=off (src/CMakeLists.txt) must keep every
  # golden pin, and test_tensor must find no fused multiply-add. GCC's -O3
  # warnings include libstdc++ false positives, so they do not stop this build.
  cmake -S . -B build-portable -DCMAKE_COMPILE_WARNING_AS_ERROR=OFF \
    -DCMAKE_BUILD_TYPE=Release -DCMAKE_CXX_FLAGS="-march=native"
  cmake --build build-portable -j "$jobs" --target test_golden test_tensor
  ctest --test-dir build-portable -j "$jobs" -R '^(Golden|Tensor)\.' --output-on-failure
  exit 0
fi

if [ "$mode" = "obs" ]; then
  # Observability smoke: tiny training run with the flight recorder armed and
  # Prometheus metric exposition, validated with the stdlib only.
  cmake --preset default
  cmake --build --preset default -j "$jobs" --target agua_cli
  out="$(mktemp -d)"
  trap 'rm -rf "$out"' EXIT
  ./build/examples/agua_cli abr --tiny --threads 2 \
    --flight-record "$out/flight.jsonl" \
    --metrics-out "$out/metrics.prom" --metrics-format prometheus
  python3 - "$out/flight.jsonl" "$out/metrics.prom" <<'PY'
import json, re, sys
flight, prom = sys.argv[1], sys.argv[2]
events = [json.loads(line) for line in open(flight) if line.strip()]
kinds = {e["kind"] for e in events}
for required in ("cli.run.begin", "pipeline.train.begin",
                 "train.concept.epoch", "train.output.epoch",
                 "pipeline.train.end"):
    assert required in kinds, f"missing event kind {required}: {sorted(kinds)}"
epochs = [e for e in events if e["kind"] == "train.concept.epoch"]
assert all({"epoch", "loss", "grad_norm", "weight_norm", "lr"}
           <= set(e["fields"]) for e in epochs), "epoch event fields incomplete"
# TYPE carries exactly one kind word; HELP carries free text (the exporter
# puts the original dotted metric name there).
line_re = re.compile(r'^(# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* \w+'
                     r'|# HELP [a-zA-Z_:][a-zA-Z0-9_:]* .+'
                     r'|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? -?\S+)$')
lines = [l.rstrip("\n") for l in open(prom) if l.strip()]
assert lines, "empty prometheus output"
for l in lines:
    assert line_re.match(l), f"bad prometheus line: {l!r}"
print(f"obs smoke OK: {len(events)} events "
      f"({len(epochs)} concept epochs), {len(lines)} prometheus lines")
PY
  exit 0
fi

if [ "$mode" = "serve" ]; then
  # Serving-plane smoke: a tiny training run serving telemetry + /explain on
  # an ephemeral port, scraped and queried over real HTTP while it lingers,
  # then shut down via the quit endpoint. Asserts a clean (rc=0) exit.
  cmake --preset default
  cmake --build --preset default -j "$jobs" --target agua_cli
  out="$(mktemp -d)"
  cleanup() {
    [ -n "${cli_pid:-}" ] && kill "$cli_pid" 2>/dev/null || true
    rm -rf "$out"
  }
  trap cleanup EXIT
  ./build/examples/agua_cli abr --tiny --threads 2 \
    --serve 0 --serve-linger 60 > "$out/cli.log" 2>&1 &
  cli_pid=$!
  # The CLI prints the listen line before training starts; poll for it.
  url=""
  for _ in $(seq 1 100); do
    url="$(sed -n 's#^telemetry server listening on \(http://[0-9.:]*\).*#\1#p' \
           "$out/cli.log" | head -n1)"
    [ -n "$url" ] && break
    kill -0 "$cli_pid" 2>/dev/null || { cat "$out/cli.log"; echo "agua_cli died before serving" >&2; exit 1; }
    sleep 0.1
  done
  [ -n "$url" ] || { cat "$out/cli.log"; echo "no telemetry listen line" >&2; exit 1; }
  echo "scraping $url"
  # Scrape while the run is live (training takes longer than the curls).
  curl -fsS "$url/metrics"  > "$out/metrics.prom"
  curl -sS "$url/healthz"   > "$out/healthz.json"  # no -f: a 503 body is valid JSON too
  curl -fsS "$url/eventsz"  > "$out/events.jsonl"
  curl -fsS "$url/buildz"   > "$out/buildz.json"
  python3 - "$out/metrics.prom" "$out/healthz.json" "$out/events.jsonl" "$out/buildz.json" <<'PY'
import json, re, sys
prom, healthz, events, buildz = sys.argv[1:5]
line_re = re.compile(r'^(# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* \w+'
                     r'|# HELP [a-zA-Z_:][a-zA-Z0-9_:]* .+'
                     r'|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? -?\S+)$')
lines = [l.rstrip("\n") for l in open(prom) if l.strip()]
assert lines, "empty /metrics"
for l in lines:
    assert line_re.match(l), f"bad prometheus line: {l!r}"
assert any(l.startswith("agua_telemetry_requests") for l in lines), \
    "server did not count its own scrapes"
health = json.load(open(healthz))
assert health["status"] in ("ok", "degraded", "unhealthy") and "monitors" in health, health
evts = [json.loads(l) for l in open(events) if l.strip()]
assert any(e["kind"] == "cli.run.begin" for e in evts), \
    f"missing cli.run.begin in /eventsz: {sorted({e['kind'] for e in evts})}"
build = json.load(open(buildz))
assert build["threads"] >= 1 and "version" in build, build
print(f"serve smoke OK: {len(lines)} prometheus lines, "
      f"{len(evts)} events, status={health['status']}")
PY
  # The explanation service comes up once training finishes and the model is
  # installed; poll for its ready line before exercising /explain.
  ready=""
  for _ in $(seq 1 600); do
    ready="$(grep -c '^explanation service ready' "$out/cli.log" || true)"
    [ "$ready" != "0" ] && break
    kill -0 "$cli_pid" 2>/dev/null || { cat "$out/cli.log"; echo "agua_cli died before the explanation service came up" >&2; exit 1; }
    sleep 0.1
  done
  [ "$ready" != "0" ] || { cat "$out/cli.log"; echo "no 'explanation service ready' line" >&2; exit 1; }
  # Two identical requests: the first must miss the result cache, the repeat
  # must hit it with a byte-identical body (DESIGN.md §6).
  curl -fsS -D "$out/h1.txt" -X POST -d '{"row": 0}' \
    "$url/explain" > "$out/explain1.json"
  curl -fsS -D "$out/h2.txt" -X POST -d '{"row": 0}' \
    "$url/explain" > "$out/explain2.json"
  curl -fsS "$url/modelz" > "$out/modelz.json"
  python3 - "$out/explain1.json" "$out/explain2.json" \
    "$out/h1.txt" "$out/h2.txt" "$out/modelz.json" <<'PY'
import json, sys
exp1_path, exp2_path, h1_path, h2_path, modelz_path = sys.argv[1:6]
raw1 = open(exp1_path, "rb").read()
raw2 = open(exp2_path, "rb").read()
assert raw1 == raw2, "repeated /explain bodies are not byte-identical"
exp = json.loads(raw1)
for key in ("fingerprint", "predicted_class",
            "output_probability", "top", "concept_weights"):
    assert key in exp, f"/explain body missing {key}: {sorted(exp)}"
assert "generation" not in exp, "the body must not carry the install generation"
assert exp["top"] and all("concept" in t and "weight" in t for t in exp["top"]), exp["top"]
def header(path, name):
    for line in open(path):
        if line.lower().startswith(name + ":"):
            return line.split(":", 1)[1].strip()
    return None
assert header(h1_path, "x-agua-cache") == "miss", f"first request: {header(h1_path, 'x-agua-cache')!r}"
assert header(h2_path, "x-agua-cache") == "hit", f"repeat request: {header(h2_path, 'x-agua-cache')!r}"
modelz = json.load(open(modelz_path))
assert modelz["fingerprint"] == exp["fingerprint"], (modelz, exp["fingerprint"])
for path in (h1_path, h2_path):
    assert header(path, "x-agua-generation") == str(modelz["generation"]), \
        (header(path, "x-agua-generation"), modelz["generation"])
assert modelz["cache"]["hits"] >= 1, modelz["cache"]
print(f"explain smoke OK: fingerprint {exp['fingerprint']}, "
      f"{len(exp['top'])} top concepts, cache miss->hit byte-identical")
PY
  # Ask the process to finish early and require a clean exit.
  if ! curl -fsS -X POST "$url/quitquitquit" > /dev/null; then
    # The run may have finished and exited before the linger started only if
    # linger were 0; with --serve-linger 60 the endpoint must be reachable
    # unless the process already completed its full run + linger.
    kill -0 "$cli_pid" 2>/dev/null && { echo "quit endpoint unreachable" >&2; exit 1; }
  fi
  wait "$cli_pid"; rc=$?
  cli_pid=""
  [ "$rc" -eq 0 ] || { cat "$out/cli.log"; echo "agua_cli exited rc=$rc" >&2; exit 1; }
  echo "serve smoke: clean shutdown (rc=0)"
  exit 0
fi

if [ "$mode" = "trace" ]; then
  # Tracing smoke: one traced request must be joinable across every surface —
  # the response header, the per-trace span index, and metric exemplars.
  cmake --preset default
  cmake --build --preset default -j "$jobs" --target agua_cli
  out="$(mktemp -d)"
  cleanup() {
    [ -n "${cli_pid:-}" ] && kill "$cli_pid" 2>/dev/null || true
    rm -rf "$out"
  }
  trap cleanup EXIT
  ./build/examples/agua_cli abr --tiny --threads 2 \
    --serve 0 --slo '/explain=250ms:99' --serve-linger 60 > "$out/cli.log" 2>&1 &
  cli_pid=$!
  url=""
  for _ in $(seq 1 100); do
    url="$(sed -n 's#^telemetry server listening on \(http://[0-9.:]*\).*#\1#p' \
           "$out/cli.log" | head -n1)"
    [ -n "$url" ] && break
    kill -0 "$cli_pid" 2>/dev/null || { cat "$out/cli.log"; echo "agua_cli died before serving" >&2; exit 1; }
    sleep 0.1
  done
  [ -n "$url" ] || { cat "$out/cli.log"; echo "no telemetry listen line" >&2; exit 1; }
  ready=""
  for _ in $(seq 1 600); do
    ready="$(grep -c '^explanation service ready' "$out/cli.log" || true)"
    [ "$ready" != "0" ] && break
    kill -0 "$cli_pid" 2>/dev/null || { cat "$out/cli.log"; echo "agua_cli died before the explanation service came up" >&2; exit 1; }
    sleep 0.1
  done
  [ "$ready" != "0" ] || { cat "$out/cli.log"; echo "no 'explanation service ready' line" >&2; exit 1; }
  echo "tracing against $url"
  trace_id="4bf92f3577b34da6a3ce929d0e0e4736"
  curl -fsS -D "$out/explain_headers.txt" -X POST \
    -H "traceparent: 00-${trace_id}-00f067aa0ba902b7-01" \
    -d '{"row": 0}' "$url/explain" > "$out/explain.json"
  curl -fsS "$url/tracez?trace=${trace_id}&format=json" > "$out/trace.json"
  curl -fsS -H 'Accept: application/openmetrics-text' "$url/metrics" > "$out/metrics.om"
  curl -fsS "$url/statusz" > "$out/statusz.txt"
  python3 - "$trace_id" "$out/explain_headers.txt" "$out/trace.json" \
    "$out/metrics.om" "$out/statusz.txt" <<'PY'
import json, re, sys
trace_id, headers_path, trace_path, om_path, statusz_path = sys.argv[1:6]
echoed = None
for line in open(headers_path):
    if line.lower().startswith("x-agua-trace-id:"):
        echoed = line.split(":", 1)[1].strip()
assert echoed == trace_id, f"X-Agua-Trace-Id: want {trace_id}, got {echoed!r}"
trace = json.load(open(trace_path))
assert trace["trace_id"] == trace_id, trace
names = {s["name"] for s in trace["spans"]}
assert "agua.serve.request" in names, f"/tracez?trace= spans: {sorted(names)}"
om = open(om_path).read()
assert om.rstrip("\n").endswith("# EOF"), "OpenMetrics body missing # EOF"
exemplar = re.compile(r'_bucket\{le="[^"]*"\} \d+ # \{trace_id="([0-9a-f]{32})"\}')
ids = set(exemplar.findall(om))
assert trace_id in ids, f"no exemplar with {trace_id}; saw {sorted(ids)}"
statusz = open(statusz_path).read()
for section in ("== server ==", "== health ==", "== slo ==", "== traces ==",
                "== serving ==", "/explain"):
    assert section in statusz, f"/statusz missing {section!r}:\n{statusz}"
print(f"trace smoke OK: id {trace_id} joined across header, /tracez, "
      f"{len(ids)} exemplar id(s), and /statusz renders every section")
PY
  if ! curl -fsS -X POST "$url/quitquitquit" > /dev/null; then
    kill -0 "$cli_pid" 2>/dev/null && { echo "quit endpoint unreachable" >&2; exit 1; }
  fi
  wait "$cli_pid"; rc=$?
  cli_pid=""
  [ "$rc" -eq 0 ] || { cat "$out/cli.log"; echo "agua_cli exited rc=$rc" >&2; exit 1; }
  echo "trace smoke: clean shutdown (rc=0)"
  exit 0
fi

if [ "$mode" = "faults" ]; then
  # Chaos smoke, three acts (DESIGN.md §8).
  cmake --preset default
  cmake --build --preset default -j "$jobs" --target agua_cli
  out="$(mktemp -d)"
  trap 'rm -rf "$out"' EXIT

  # Act 1 — crash-safe checkpointing: an uninterrupted reference run, then a
  # run SIGKILLed mid-training and resumed, must produce identical bytes.
  ./build/examples/agua_cli abr --tiny --threads 2 --save "$out/ref.bin" \
    > "$out/ref.log" 2>&1
  mkdir -p "$out/ckpt"
  ./build/examples/agua_cli abr --tiny --threads 2 --save "$out/chaos.bin" \
    --checkpoint-dir "$out/ckpt" --checkpoint-every 1 \
    > "$out/chaos.log" 2>&1 &
  chaos_pid=$!
  # Wait for the first epoch-boundary checkpoint, then kill without mercy.
  for _ in $(seq 1 300); do
    [ -f "$out/ckpt/concept.ckpt" ] && break
    kill -0 "$chaos_pid" 2>/dev/null || break
    sleep 0.1
  done
  if kill -9 "$chaos_pid" 2>/dev/null; then
    wait "$chaos_pid" 2>/dev/null || true
    echo "chaos: killed training run mid-flight (pid $chaos_pid)"
  else
    echo "chaos: run finished before the kill landed; resume still exercised"
  fi
  [ -f "$out/ckpt/concept.ckpt" ] || { echo "no checkpoint was written" >&2; exit 1; }
  ./build/examples/agua_cli abr --tiny --threads 2 --save "$out/chaos.bin" \
    --checkpoint-dir "$out/ckpt" --checkpoint-every 1 --resume \
    > "$out/resume.log" 2>&1
  cmp "$out/ref.bin" "$out/chaos.bin" \
    || { echo "resumed model differs from uninterrupted run" >&2; exit 1; }
  echo "chaos: resumed model is bitwise-identical to the uninterrupted run"

  # Act 2 — fault injection: a transient NaN is skipped and recovered from
  # (clean exit, telemetry shows the recovery); a persistent NaN is a
  # bounded, typed failure (rc=1, not a crash).
  ./build/examples/agua_cli abr --tiny --threads 2 \
    --faults 'train.concept.loss=nan@nth:2' \
    --flight-record "$out/faults.jsonl" > "$out/faults.log" 2>&1 \
    || { cat "$out/faults.log"; echo "transient fault run failed" >&2; exit 1; }
  python3 - "$out/faults.jsonl" <<'PY'
import json, sys
events = [json.loads(line) for line in open(sys.argv[1]) if line.strip()]
kinds = {e["kind"] for e in events}
for required in ("fault.injected", "train.nonfinite", "train.recover"):
    assert required in kinds, f"missing {required}: {sorted(kinds)}"
print("faults smoke OK: injected, skipped, recovered "
      f"({sum(1 for e in events if e['kind'] == 'fault.injected')} fault(s) fired)")
PY
  rc=0
  ./build/examples/agua_cli abr --tiny --threads 2 \
    --faults 'train.concept.loss=nan' > "$out/diverge.log" 2>&1 || rc=$?
  [ "$rc" -eq 1 ] || { cat "$out/diverge.log"; echo "persistent fault: want rc=1, got rc=$rc" >&2; exit 1; }
  grep -q "run failed:" "$out/diverge.log" \
    || { cat "$out/diverge.log"; echo "no graceful failure message" >&2; exit 1; }
  echo "faults smoke: persistent fault degraded gracefully (rc=1)"

  # Act 3 — the fault suites under both sanitizers.
  cmake --preset asan
  cmake --build --preset asan -j "$jobs" --target test_fault test_model_io
  ctest --test-dir build-asan -j "$jobs" -R '^Fault|^ModelIoFuzz' --output-on-failure
  cmake --preset tsan
  cmake --build --preset tsan -j "$jobs" --target test_fault
  ctest --test-dir build-tsan -j "$jobs" -R '^Fault' --output-on-failure
  echo "faults mode OK"
  exit 0
fi

if [ "$mode" = "overload" ]; then
  # Overload-control smoke, four acts (DESIGN.md §8, docs/OPERATIONS.md).
  # CoDel shedding itself is covered deterministically by the injected-clock
  # suite in tests/test_overload.cpp and by the perf_microbench goodput
  # comparison; this smoke proves the CLI wiring: rate-limit refusals carry
  # the full refusal contract over real HTTP, SLO burn drives the brownout
  # and the alert hook, /statusz and /metrics expose the plane, and the
  # server recovers and exits cleanly once the abuse stops.
  cmake --preset default
  cmake --build --preset default -j "$jobs" --target agua_cli
  out="$(mktemp -d)"
  cleanup() {
    [ -n "${cli_pid:-}" ] && kill "$cli_pid" 2>/dev/null || true
    rm -rf "$out"
  }
  trap cleanup EXIT
  # The injected 5 ms delay in the batch path makes every cold request miss
  # the deliberately absurd 1 ms objective below. Cache hits bypass the
  # batch, so repeats stay fast: that is the recovery traffic. The hook
  # appends "start|end /explain FAST SLOW" lines to hook.log via the shell.
  ./build/examples/agua_cli abr --tiny --threads 2 \
    --serve 0 --serve-linger 60 \
    --faults 'serve.batch=delay:5' \
    --rate-limit 2:2 \
    --slo '/explain=1ms:99' --slo-hook "echo >>$out/hook.log" \
    > "$out/cli.log" 2>&1 &
  cli_pid=$!
  url=""
  for _ in $(seq 1 100); do
    url="$(sed -n 's#^telemetry server listening on \(http://[0-9.:]*\).*#\1#p' \
           "$out/cli.log" | head -n1)"
    [ -n "$url" ] && break
    kill -0 "$cli_pid" 2>/dev/null || { cat "$out/cli.log"; echo "agua_cli died before serving" >&2; exit 1; }
    sleep 0.1
  done
  [ -n "$url" ] || { cat "$out/cli.log"; echo "no telemetry listen line" >&2; exit 1; }
  ready=""
  for _ in $(seq 1 600); do
    ready="$(grep -c '^explanation service ready' "$out/cli.log" || true)"
    [ "$ready" != "0" ] && break
    kill -0 "$cli_pid" 2>/dev/null || { cat "$out/cli.log"; echo "agua_cli died before the explanation service came up" >&2; exit 1; }
    sleep 0.1
  done
  [ "$ready" != "0" ] || { cat "$out/cli.log"; echo "no 'explanation service ready' line" >&2; exit 1; }
  echo "overload smoke against $url"

  # Act 1 — per-client rate limiting: one client hammers past 2 rps / burst 2
  # and must see both admitted traffic and a 429 carrying the full refusal
  # contract (envelope code, Retry-After, X-Agua-Trace-Id).
  saw_200=0; saw_429=0
  for i in $(seq 1 6); do
    code="$(curl -s -o "$out/rl_body.json" -D "$out/rl_hdr.txt" -w '%{http_code}' \
            -X POST -H 'X-Agua-Client: rl-smoke' -d '{"row": 0}' "$url/explain")"
    case "$code" in
      200) saw_200=1 ;;
      429) saw_429=1; cp "$out/rl_body.json" "$out/refusal_body.json"
           cp "$out/rl_hdr.txt" "$out/refusal_hdr.txt" ;;
      *) echo "rate-limit act: unexpected status $code" >&2; cat "$out/rl_body.json"; exit 1 ;;
    esac
  done
  [ "$saw_200" = 1 ] || { echo "rate limiter admitted nothing" >&2; exit 1; }
  [ "$saw_429" = 1 ] || { echo "rate limiter never refused a 6-request burst at 2 rps" >&2; exit 1; }
  python3 - "$out/refusal_body.json" "$out/refusal_hdr.txt" <<'PY'
import json, sys
body = json.load(open(sys.argv[1]))
err = body["error"]
assert err["code"] == "rate_limited", err
assert err["retry_after_ms"] >= 1, err
headers = {}
for line in open(sys.argv[2]):
    if ":" in line:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
assert int(headers["retry-after"]) >= 1, headers
assert len(headers.get("x-agua-trace-id", "")) == 32, headers
print(f"rate-limit act OK: 429 envelope, Retry-After {headers['retry-after']}s, "
      f"trace {headers['x-agua-trace-id'][:8]}...")
PY

  # Act 2 — SLO burn -> brownout: distinct clients (fresh buckets) cycle cold
  # rows; every cold request misses the 1 ms objective, the burn evaluator
  # flips, and within a couple of 250 ms evaluation windows responses must
  # come back degraded.
  degraded=""
  for i in $(seq 1 400); do
    curl -s -o /dev/null -D "$out/burn_hdr.txt" \
      -X POST -H "X-Agua-Client: burn-$i" -d "{\"row\": $((i % 60))}" \
      "$url/explain"
    if grep -qi '^x-agua-degraded:' "$out/burn_hdr.txt"; then
      degraded="$(grep -i '^x-agua-degraded:' "$out/burn_hdr.txt" | tr -d '\r')"
      break
    fi
  done
  [ -n "$degraded" ] || { cat "$out/cli.log"; echo "burn never degraded responses" >&2; exit 1; }
  echo "brownout act OK: $degraded"
  hook_start=""
  for _ in $(seq 1 50); do
    if grep -q '^start /explain' "$out/hook.log" 2>/dev/null; then hook_start=1; break; fi
    sleep 0.1
  done
  [ -n "$hook_start" ] || { cat "$out/hook.log" 2>/dev/null; echo "--slo-hook never fired on burn start" >&2; exit 1; }
  echo "alert-hook act OK: $(head -n1 "$out/hook.log")"

  # Act 3 — the plane is observable: /statusz renders the overload section,
  # /metrics exports the refusal counters.
  curl -fsS "$url/statusz" > "$out/statusz.txt"
  for needle in 'admission:' 'rate limit:' 'breaker:' 'brownout: tier'; do
    grep -qF "$needle" "$out/statusz.txt" \
      || { cat "$out/statusz.txt"; echo "/statusz missing '$needle'" >&2; exit 1; }
  done
  curl -fsS "$url/metrics" > "$out/metrics.prom"
  python3 - "$out/metrics.prom" <<'PY'
import sys
limited = tier = None
for line in open(sys.argv[1]):
    if line.startswith("agua_overload_rate_limited"):
        limited = float(line.split()[1])
    if line.startswith("agua_overload_brownout_tier"):
        tier = float(line.split()[1])
assert limited and limited >= 1, f"agua_overload_rate_limited = {limited}"
assert tier is not None and tier >= 1, f"agua_overload_brownout_tier = {tier}"
print(f"observability act OK: rate_limited={limited:.0f}, brownout_tier={tier:.0f}")
PY

  # Act 4 — recovery: cache-hit traffic (fast, under the objective) dilutes
  # the burn windows; once the burn clears and the brownout's exit streak
  # completes, responses must lose X-Agua-Degraded and the hook must log the
  # burn end. Finally the server must still exit 0: without --slo-exit-nonzero
  # a burned SLO is reported, not fatal.
  recovered=""
  for i in $(seq 1 2000); do
    code="$(curl -s -o /dev/null -D "$out/rec_hdr.txt" -w '%{http_code}' \
            -X POST -H "X-Agua-Client: recover-$i" -d '{"row": 0}' "$url/explain")"
    if [ "$code" = 200 ] && ! grep -qi '^x-agua-degraded:' "$out/rec_hdr.txt"; then
      recovered=1
      break
    fi
  done
  [ -n "$recovered" ] || { cat "$out/cli.log"; echo "brownout never recovered after the flood stopped" >&2; exit 1; }
  hook_end=""
  for _ in $(seq 1 50); do
    if grep -q '^end /explain' "$out/hook.log"; then hook_end=1; break; fi
    sleep 0.1
  done
  [ -n "$hook_end" ] || { cat "$out/hook.log"; echo "--slo-hook never fired on burn end" >&2; exit 1; }
  echo "recovery act OK: degradation cleared, burn-end hook fired"
  curl -fsS -X POST "$url/quitquitquit" > /dev/null \
    || { echo "quit endpoint unreachable" >&2; exit 1; }
  wait "$cli_pid"; rc=$?
  cli_pid=""
  [ "$rc" -eq 0 ] || { cat "$out/cli.log"; echo "agua_cli exited rc=$rc (want 0: no --slo-exit-nonzero)" >&2; exit 1; }
  echo "overload mode OK (clean shutdown, rc=0)"
  exit 0
fi

if [ "$mode" = "docs" ]; then
  # Documentation lint, two checks. First: every intra-repo markdown link
  # (relative [text](path) target) must point at a file that exists. Second:
  # every flag `agua_cli --help` advertises must appear in the operator
  # runbook docs/OPERATIONS.md — the runbook is the single source of truth
  # for flags, so a new flag without documentation fails the build here.
  cmake --preset default
  cmake --build --preset default -j "$jobs" --target agua_cli
  ./build/examples/agua_cli --help > /tmp/agua_help.$$ || { echo "agua_cli --help failed" >&2; exit 1; }
  python3 - /tmp/agua_help.$$ <<'PY'
import os, re, sys
help_path = sys.argv[1]

md_files = []
for root, dirs, files in os.walk("."):
    dirs[:] = [d for d in dirs if not d.startswith((".", "build")) and d != "third_party"]
    md_files += [os.path.join(root, f) for f in files if f.endswith(".md")]

link_re = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
# Retrieved reference material, not authored docs: figures/links may point at
# assets that were never mirrored into this repo.
skip = {os.path.join(".", n) for n in ("PAPERS.md", "SNIPPETS.md")}
bad = []
for md in md_files:
    if md in skip:
        continue
    text = open(md, encoding="utf-8").read()
    # Fenced code blocks hold example links/paths that need not resolve.
    text = re.sub(r"```.*?```", "", text, flags=re.S)
    for target in link_re.findall(text):
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        path = target.split("#", 1)[0]
        if not path:
            continue
        resolved = os.path.normpath(os.path.join(os.path.dirname(md), path))
        if not os.path.exists(resolved):
            bad.append(f"{md}: broken link -> {target}")
if bad:
    print("\n".join(bad), file=sys.stderr)
    sys.exit(f"{len(bad)} broken intra-repo markdown link(s)")
print(f"links OK: {len(md_files)} markdown files checked")

flags = sorted(set(re.findall(r"--[a-z][a-z0-9-]*", open(help_path).read())))
runbook = open("docs/OPERATIONS.md", encoding="utf-8").read()
missing = [f for f in flags if f not in runbook]
if missing:
    sys.exit(f"flags in `agua_cli --help` missing from docs/OPERATIONS.md: {missing}")
print(f"flags OK: all {len(flags)} --help flags documented in docs/OPERATIONS.md")

# Metric-naming lint: every metric/span/monitor name literal registered in
# src/ must follow the `agua.<layer>.<op>` convention (DESIGN.md §6) —
# lower-case dotted segments, at least three, starting with "agua".
name_site = re.compile(
    r'\b(?:counter|gauge|histogram|health_monitor|TraceSpan|ScopedTimer)'
    r'\s*\(\s*"([^"]+)"')
name_ok = re.compile(r"^agua\.[a-z0-9_]+(\.[a-z0-9_]+)+$")
sources, bad_names = [], []
for root, dirs, files in os.walk("src"):
    sources += [os.path.join(root, f) for f in files if f.endswith((".cpp", ".hpp"))]
for source in sorted(sources):
    text = open(source, encoding="utf-8").read()
    for name in name_site.findall(text):
        if not name_ok.match(name):
            bad_names.append(f"{source}: {name!r}")
if bad_names:
    print("\n".join(bad_names), file=sys.stderr)
    sys.exit(f"{len(bad_names)} metric name(s) violate agua.<layer>.<op> (DESIGN.md §6)")
print(f"metric names OK: every literal in {len(sources)} src files matches agua.<layer>.<op>")
PY
  rm -f /tmp/agua_help.$$
  echo "docs mode OK"
  exit 0
fi

cmake --preset "$preset"
if [ "$preset" = "tsan" ]; then
  # TSan doubles build time and the race surface is the pool + obs layer +
  # fault registry + serving plane; build and run only those suites (the
  # test preset filters to match).
  cmake --build --preset "$preset" -j "$jobs" --target test_thread_pool test_obs test_events test_telemetry test_tracing test_fault test_serve test_overload
else
  cmake --build --preset "$preset" -j "$jobs"
fi
ctest --preset "$preset" -j "$jobs"
