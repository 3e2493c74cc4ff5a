#!/bin/sh
# Repo verification: the tier-1 gate, the geflint static-analysis gate,
# and race detection over the concurrency-using packages.
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

# Flat-forest traversal benchmark: regenerates BENCH_forest.json (flat
# SoA vs pointer walk ns/row at batch 1/64/4096 plus the D*-labeling and
# batch-SHAP stages). On multi-core hosts the harness fails if the flat
# D* labeling path is below 2x the pointer walk at workers=1; 1-core
# containers record the numbers but skip the ratio gate (BENCH_par
# policy).
BENCH_FOREST_OUT=BENCH_forest.json go test -count=1 -run TestWriteForestBench .

# Serving benchmark: regenerates BENCH_serve.json (p50/p99 latency,
# req/s, engine-cache and coalescing hit rates at 100+ closed-loop
# clients over a duplicate-heavy mix). The generating test fails if the
# coalescer never engages, so a wiring regression in the single-flight
# path cannot hide behind a green report.
BENCH_SERVE_OUT=BENCH_serve.json go test -count=1 -run TestWriteServeBench .

# Explainer-family gate (ISSUE 10): run the extra-families comparison at
# quick scale and regenerate BENCH_family.json (per-family fidelity and
# latency over one engine session). The experiment itself fails when no
# engine-cache hits occur across families (broken artifact sharing); the
# grep gate requires each of the three families (gam, rules, smoother)
# to be present so a family silently dropping out of the fit stage's
# family table cannot hide behind a green run.
fam_dir=$(mktemp -d)
go run ./cmd/experiments -exp extra-families -scale quick -out "${fam_dir}" >/dev/null
cp "${fam_dir}/BENCH_family.json" BENCH_family.json
rm -rf "${fam_dir}"
for fam in gam rules smoother; do
	grep -q "\"${fam}\"" BENCH_family.json
done

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
test -s BENCH_serve.json
kill -TERM "${gefd_pid}"
wait "${gefd_pid}"
trap - EXIT
rm -rf "${smoke_dir}"
