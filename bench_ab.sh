#!/usr/bin/env bash
# Same-host A/B benchmark: runs one perfbench workload alternately on a
# parent ref and on the working tree, so both sides see the same host.
#
#   ./bench_ab.sh <parent-ref> <workload> <pairs> [perfbench args...]
#   ./bench_ab.sh HEAD~1 serve-cold 3
#
# The parent ref is checked out as a git worktree in
# .bench_build/ab/parent (removed again on exit); each tree builds and
# runs `bash perfbench/run.sh` from its own root. Pair i runs seed i on
# both sides, and the side that goes first alternates between pairs, so
# slow host drift lands on both sides alike. Runs last 20 s unless the
# extra arguments (passed through to perfbench, last flag wins) say
# otherwise. Prints one line per run:
#
#   <side> <seed> <wall seconds> <result JSON>
set -euo pipefail

if [ $# -lt 3 ]; then
	echo "usage: $0 <parent-ref> <workload> <pairs> [perfbench args...]" >&2
	exit 2
fi
ref=$1
workload=$2
pairs=$3
shift 3

root=$(git rev-parse --show-toplevel)
parent="$root/.bench_build/ab/parent"

git -C "$root" worktree remove --force "$parent" 2>/dev/null || true
git -C "$root" worktree prune
mkdir -p "$(dirname "$parent")"
git -C "$root" worktree add --detach --force "$parent" "$ref" >&2
trap 'git -C "$root" worktree remove --force "$parent"' EXIT

tree_of() {
	case $1 in
	parent) echo "$parent" ;;
	change) echo "$root" ;;
	esac
}

# Build both binaries up front so no timed run pays for a cold compile.
for side in parent change; do
	(cd "$(tree_of "$side")" && bash perfbench/run.sh -h >/dev/null 2>&1) || true
done

run_one() {
	local side=$1 seed=$2 start end out
	start=$(date +%s.%N)
	out=$(cd "$(tree_of "$side")" &&
		bash perfbench/run.sh --workload "$workload" --seed "$seed" \
			--seconds 20 --trace 0 "${@:3}" 2>/dev/null | tail -n 1) ||
		out='{"error":"perfbench exited non-zero"}'
	end=$(date +%s.%N)
	echo "$side $seed $(awk -v a="$start" -v b="$end" 'BEGIN { printf "%.1f", b - a }') $out"
}

for ((i = 1; i <= pairs; i++)); do
	if ((i % 2)); then
		order="parent change"
	else
		order="change parent"
	fi
	for side in $order; do
		run_one "$side" "$i" "$@"
	done
done
