#!/bin/sh
# Repo verification: the tier-1 gate, the geflint static-analysis gate,
# race detection over the concurrency-using packages, and the gefd and
# trace smokes. The timing and serving gates (flat D* labeling >= 2x the
# pointer walk on multi-core hosts, coalescing under a duplicate-heavy
# mixed-family load, all three explainer families present with
# cross-family cache reuse, the traced-span overhead bound) are plain
# tests inside `go test ./...`.
set -eux

go build ./...
go vet ./...
bash -n bench_ab.sh

# Formatting gate: every Go source must be gofmt-clean, perfbench's
# included (it is a module of its own, so `go vet ./...` above skips
# it). .bench_build holds bench_ab.sh's checkout of another ref and is
# not this tree's code.
unformatted=$(find . -path ./.bench_build -prune -o -name '*.go' -print | xargs gofmt -l)
if [ -n "${unformatted}" ]; then
	echo "gofmt: these files need formatting:" >&2
	echo "${unformatted}" >&2
	exit 1
fi

# Static-analysis gate. geflint exits 0 when clean, 1 on any finding and
# 2 on a load/internal error or an analyzer panic (reported loudly with
# a stack trace on stderr), so with `set -e` a single new diagnostic —
# or a crashing analyzer — fails verification. -list documents the
# registered checks in the log; the -json stream is the machine-readable
# contract for CI consumers; -bench times the full pass (load + the
# twelve analyzers, CFG construction included) and writes the
# geflint_full_ms gauge plus raw per-analyzer finding counts to
# BENCH_lint.json so lint-cost regressions show up in review.
go run ./cmd/geflint -list
go run ./cmd/geflint -json -bench BENCH_lint.json ./...

go test ./...

# Benchmark smoke: perfbench is its own module (it lives under the
# benchmark's paths), so the root `go test ./...` skips it. Its tests
# run every workload at tiny sizes and require byte-identical hot keys,
# shap local accuracy, zero failed ops and metric names matching
# BENCHMARK.json.
(cd perfbench && go test ./...)

# Fault-injection gate: the deterministic injector must turn every
# planned fault into a recovery, a recorded degradation, or a typed
# taxonomy error — run explicitly so a -run filter in local workflows
# can never silently drop the suite.
go test -count=1 -run TestFaultInjection ./...

# Explanation-format fuzz smoke: Unmarshal never panics, and every blob
# it accepts re-marshals through the splice encoder to exactly the
# encoding/json reference's bytes. A crasher lands in
# internal/core/testdata/fuzz and fails the step.
go test -run '^$' -fuzz '^FuzzExplanationMarshal$' -fuzztime 10s ./internal/core

# Race gate: every package whose sources (tests included) start
# goroutines, touch sync/atomic primitives, or import the internal/par
# worker-pool runtime or the serving layer is re-run under the race
# detector. The set is discovered by scanning, not hard-coded, so new
# concurrent (or newly parallelized) code is raced automatically. In
# particular the sync.Mutex in internal/core's engine artifact cache
# keeps internal/core (and the root package, whose session tests share
# one engine across calls) in the raced set, and the "gef/internal/serve"
# pattern pulls in cmd/gefd and cmd/gefd/loadgen, whose own sources are
# thin flag-parsing shells around the raced serve package. perfbench is
# a module of its own, which the root module cannot test, so it is
# raced from its own directory instead.
race_pkgs=$(grep -rl --include='*.go' --exclude-dir=testdata --exclude-dir=perfbench \
	-E 'go func|[^a-zA-Z0-9_.]sync\.|"sync/atomic"|[^a-zA-Z0-9_.]atomic\.|"gef/internal/par"|"gef/internal/robust"|"gef/internal/serve"' . |
	xargs -r -n1 dirname | sort -u)
if [ -n "${race_pkgs}" ]; then
	# shellcheck disable=SC2086 # word splitting is the point
	go test -race ${race_pkgs}
fi
(cd perfbench && go test -race ./...)

# The flight recorder and labeled-vector registry are the always-on
# telemetry every run depends on; race them explicitly so a -run filter
# or a scan regression above can never drop the gate.
go test -race -count=1 ./internal/obs

# Serve smoke gate (ISSUE 9): boot the real daemon on a random port,
# drive it with the real load generator, and require /healthz plus a
# non-empty loadgen report — then SIGTERM it so every verification run
# exercises the graceful-drain path end to end.
smoke_dir=$(mktemp -d)
go build -o "${smoke_dir}/gefd" ./cmd/gefd
go build -o "${smoke_dir}/loadgen" ./cmd/gefd/loadgen
"${smoke_dir}/gefd" -listen 127.0.0.1:0 >"${smoke_dir}/gefd.log" 2>&1 &
gefd_pid=$!
trap 'kill "${gefd_pid}" 2>/dev/null || true; rm -rf "${smoke_dir}"' EXIT
tries=0
until grep -q 'serving on' "${smoke_dir}/gefd.log"; do
	tries=$((tries + 1))
	if [ "${tries}" -gt 100 ]; then
		echo 'smoke: gefd never became ready' >&2
		cat "${smoke_dir}/gefd.log" >&2
		exit 1
	fi
	sleep 0.1
done
gefd_url=$(sed -n 's|^gefd: serving on ||p' "${smoke_dir}/gefd.log")
curl -fsS "${gefd_url}/healthz"
"${smoke_dir}/loadgen" -base "${gefd_url}" -clients 16 -duration 2s \
	-dup-frac 0.8 -out "${smoke_dir}/smoke.json" >/dev/null
test -s "${smoke_dir}/smoke.json"
kill -TERM "${gefd_pid}"
wait "${gefd_pid}"
trap - EXIT
rm -rf "${smoke_dir}"

# Trace smoke: -trace writes the one on-disk span format (JSON lines),
# -v prints one line per completed span, and `gef -chrome` renders the
# JSONL file as a Chrome trace_event array for chrome://tracing.
trace_dir=$(mktemp -d)
trap 'rm -rf "${trace_dir}"' EXIT
go build -o "${trace_dir}/gef" ./cmd/gef
go build -o "${trace_dir}/forestgen" ./cmd/forestgen
"${trace_dir}/forestgen" -gen gprime -rows 2000 -out "${trace_dir}/f.json" >/dev/null
"${trace_dir}/gef" -forest "${trace_dir}/f.json" -n 2000 -no-charts \
	-trace "${trace_dir}/t.jsonl" -v >/dev/null 2>"${trace_dir}/v.log"
"${trace_dir}/gef" -chrome "${trace_dir}/t.jsonl" >"${trace_dir}/t.json"
test -s "${trace_dir}/t.jsonl"
test -s "${trace_dir}/v.log"
test -s "${trace_dir}/t.json"
test "$(head -c 1 "${trace_dir}/t.json")" = '['
trap - EXIT
rm -rf "${trace_dir}"
