#!/usr/bin/env bash
# Paired benchmark runs: the parent commit against this working tree, on this
# box, alternating which side goes first — the only way a timing (or a small
# allocation) difference can be told from the machine's own drift (see
# bench/README.md "Why timing is not gated").
#
#   scripts/bench-pair.sh --workload bulk_in_central [--pairs 10] [--seconds 18]
#                         [--trace 0|1] [--seed N] [--base REV]
#
# The parent is the merge-base with main — or, on main itself, HEAD when the
# tree has uncommitted changes and HEAD~1 when it has none — exported with
# `git archive` into .bench_build/pair/parent; both sides are built from source
# by their own bench/run.sh. Pair i runs both sides with seed N+i-1. Printed
# per metric (every one the report carries: the gated three, the stack.*
# timings, and with --trace 1 the per-layer ladder): each side's median and
# quartiles, the ratio of the medians, the pairs the change won, and a verdict
# by the rule of the choosing-metrics guide — "better" or "worse" only when one
# side wins at least nine pairs in ten and the medians differ by more than the
# distance between the parent's quartiles.
set -euo pipefail

workload="" pairs=10 seconds=18 trace=0 seed=1 base=""
while [ $# -gt 0 ]; do
	case "$1" in
	--workload) workload=$2 ;;
	--pairs) pairs=$2 ;;
	--seconds) seconds=$2 ;;
	--trace) trace=$2 ;;
	--seed) seed=$2 ;;
	--base) base=$2 ;;
	*) echo "bench-pair: unknown argument $1" >&2; exit 2 ;;
	esac
	shift 2
done
[ -n "$workload" ] || { echo "bench-pair: --workload is required (see BENCHMARK.json)" >&2; exit 2; }

cd "$(git rev-parse --show-toplevel)"
if [ -z "$base" ]; then
	base=$(git merge-base HEAD main)
	if [ "$base" = "$(git rev-parse HEAD)" ] && git diff --quiet HEAD; then
		base=$(git rev-parse HEAD~1)
	fi
fi
base=$(git rev-parse --short "$base")
dir="$PWD/.bench_build/pair"
mkdir -p "$dir/parent"
# Start from nothing but the parent's build cache of an earlier run.
find "$dir" -mindepth 1 -maxdepth 1 ! -name parent -exec rm -rf {} +
find "$dir/parent" -mindepth 1 -maxdepth 1 ! -name .bench_build -exec rm -rf {} +
git archive "$base" | tar -x -C "$dir/parent"

# run <side> <checkout> <pair>: one benchmark run; the report is the first
# line of standard output.
run() {
	if ! (cd "$2" && bash bench/run.sh --workload "$workload" --trace "$trace" --seconds "$seconds" \
		--seed $((seed + $3 - 1))) >"$dir/$1.$3.out" 2>"$dir/$1.$3.err"; then
		echo "bench-pair: $1 run of pair $3 failed; see $dir/$1.$3.err" >&2
		exit 1
	fi
	head -n 1 "$dir/$1.$3.out" | grep -o '"[A-Za-z0-9_.]*":{"value":[-+0-9.eE]*' |
		sed -e 's/^"//' -e 's/":{"value":/ /' -e "s/^/$1 $3 /" >>"$dir/values"
	head -n 1 "$dir/$1.$3.out" | grep -o '"window_s":[0-9.]*' | sed "s/.*:/$1 $3 window_s /" >>"$dir/values"
}

echo "bench-pair: $workload, $pairs pairs of $seconds s, trace $trace, parent $base against the working tree" >&2
for i in $(seq 1 "$pairs"); do
	if [ $((i % 2)) -eq 1 ]; then
		run parent "$dir/parent" "$i"; run change "$PWD" "$i"
	else
		run change "$PWD" "$i"; run parent "$dir/parent" "$i"
	fi
	echo "bench-pair: pair $i of $pairs done" >&2
done

# Which way each metric is better, from the benchmark's own declaration.
awk '/"name":/ { gsub(/[",]/, ""); n = $2 } /"better":/ { gsub(/[",]/, ""); print "better", n, $2 }' BENCHMARK.json >"$dir/better"

awk -v pairs="$pairs" '
function sort(a, n,    i, j, t) {
	for (i = 2; i <= n; i++) { t = a[i]; for (j = i - 1; j >= 1 && a[j] > t; j--) a[j+1] = a[j]; a[j+1] = t }
}
function quant(a, n, q,    h, lo) {
	h = 1 + (n - 1) * q; lo = int(h)
	return lo >= n ? a[n] : a[lo] + (h - lo) * (a[lo+1] - a[lo])
}
function fmt(x) { return sprintf("%.5g", x) }
$1 == "better" { dir[$2] = $3; next }
{ v[$1, $2, $3] = $4; if (!($3 in seen)) { seen[$3] = 1; order[++nm] = $3 } }
END {
	# Garbage-collection cycles are counted per window; per invocation they
	# compare across sides that complete different numbers of invocations.
	for (i = 1; i <= pairs; i++) for (s = 1; s <= 2; s++) {
		side = s == 1 ? "parent" : "change"
		if ((side, i, "proc.gc_cycles") in v && v[side, i, "stack.inv_per_s"] > 0) {
			v[side, i, "proc.gc_cycles_per_inv"] = v[side, i, "proc.gc_cycles"] / (v[side, i, "stack.inv_per_s"] * v[side, i, "window_s"])
			if (!("proc.gc_cycles_per_inv" in seen)) { seen["proc.gc_cycles_per_inv"] = 1; order[++nm] = "proc.gc_cycles_per_inv"; dir["proc.gc_cycles_per_inv"] = "lower" }
		}
	}
	printf "%-28s %-6s %-34s %-34s %-7s %-12s %s\n", "metric", "better", "parent median [q1..q3]", "change median [q1..q3]", "ratio", "change wins", "verdict"
	for (k = 1; k <= nm; k++) {
		m = order[k]
		if (m == "window_s") continue
		known = m in dir; higher = known && dir[m] == "higher"
		n = 0; won = 0; lost = 0
		for (i = 1; i <= pairs; i++) {
			if (!(("parent", i, m) in v) || !(("change", i, m) in v)) continue
			n++; p[n] = v["parent", i, m]; c[n] = v["change", i, m]
			d = c[n] - p[n]; if (higher) d = -d
			if (d < 0) won++; else if (d > 0) lost++
		}
		if (n == 0) continue
		sort(p, n); sort(c, n)
		pm = quant(p, n, .5); cm = quant(c, n, .5); iqr = quant(p, n, .75) - quant(p, n, .25)
		gap = cm - pm; if (gap < 0) gap = -gap
		verdict = "unresolved"
		if (pm == cm && won + lost == 0) verdict = "same"
		else if (!known) verdict = "-"
		else if (won >= .9 * n && gap > iqr) verdict = "better"
		else if (lost >= .9 * n && gap > iqr) verdict = "worse"
		printf "%-28s %-6s %-34s %-34s %-7s %-12s %s\n", m, (known ? dir[m] : "-"),
			fmt(pm) " [" fmt(quant(p, n, .25)) ".." fmt(quant(p, n, .75)) "]",
			fmt(cm) " [" fmt(quant(c, n, .25)) ".." fmt(quant(c, n, .75)) "]",
			(pm != 0 ? sprintf("%.3f", cm / pm) : "-"), won "/" n (won + lost < n ? " (" n - won - lost " tied)" : ""), verdict
	}
}' "$dir/better" "$dir/values"
