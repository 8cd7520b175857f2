#!/usr/bin/env bash
# scripts/ab.sh — paired A/B of the repository benchmark between two
# commits on one machine.
#
# Usage:
#   scripts/ab.sh BASE HEAD [--workload W] [--pairs N] [--seconds S] [--seed0 K]
#
# Defaults: --workload search-fault --pairs 10 --seconds 25 --seed0 1.
#
# Each commit is checked out with `git worktree add --detach` under
# .bench_build/ab/<sha> and measured by `bash perfbench/run.sh` inside
# that checkout; when BASE and HEAD name one commit, HEAD gets a second
# checkout (<sha>.head) and build of its own, so the digests also show
# that two builds of one commit give identical results. Pair i (0-based) runs both commits on seed K+i; the
# commit that runs first alternates from pair to pair, so a drift of the
# machine's load does not favour one side. For every end-to-end metric of
# BENCHMARK.json the table gives the base median, the head median, the
# base interquartile range and the number of pairs head won (strictly
# better in the metric's direction), then `digests equal k/N`: the pairs
# whose results digests match. Raw run output stays in
# .bench_build/ab/runs/. The worktrees are removed on exit; their build
# caches (.bench_build/ab/out/) are kept, so a rerun builds fast.
#
# Needs bash, git, awk and jq.
set -euo pipefail

usage() {
	echo "usage: $0 BASE HEAD [--workload W] [--pairs N] [--seconds S] [--seed0 K]" >&2
	exit 2
}

[ $# -ge 2 ] || usage
base_ref=$1 head_ref=$2
shift 2
workload=search-fault pairs=10 seconds=25 seed0=1
while [ $# -gt 0 ]; do
	[ $# -ge 2 ] || usage
	case $1 in
	--workload) workload=$2 ;;
	--pairs) pairs=$2 ;;
	--seconds) seconds=$2 ;;
	--seed0) seed0=$2 ;;
	*) usage ;;
	esac
	shift 2
done

root=$(git rev-parse --show-toplevel)
cd "$root"
base=$(git rev-parse --verify "$base_ref^{commit}")
head=$(git rev-parse --verify "$head_ref^{commit}")
ab=$root/.bench_build/ab
runs=$ab/runs
mkdir -p "$runs" "$ab/out"

added=()
cleanup() {
	for dir in "${added[@]}"; do
		git worktree remove --force "$dir" >/dev/null 2>&1 || true
	done
	git worktree prune
}
trap cleanup EXIT

# checkout SHA DIR: a detached worktree of SHA in DIR.
checkout() {
	local sha=$1 dir=$2
	if [ -d "$dir" ]; then
		[ "$(git -C "$dir" rev-parse HEAD)" = "$sha" ] && return
		echo "ab.sh: $dir exists but is not a checkout of $sha" >&2
		exit 1
	fi
	git worktree add --quiet --detach "$dir" "$sha"
	added+=("$dir")
}
base_dir=$ab/$base head_dir=$ab/$head
[ "$head" != "$base" ] || head_dir=$ab/$head.head
checkout "$base" "$base_dir"
checkout "$head" "$head_dir"

# run SIDE DIR PAIR SEED: one benchmark run, appending "side pair metric
# value" rows to $rows and "pair side digest" rows to $digests.
rows=$runs/rows.tsv digests=$runs/digests.tsv
: >"$rows"
: >"$digests"
run() {
	local side=$1 dir=$2 pair=$3 seed=$4
	local out=$runs/$workload-$side-$pair.txt
	echo "pair $((pair + 1))/$pairs seed $seed: $side" >&2
	(cd "$dir" && CARGO_TARGET_DIR=$ab/out/${dir##*/} bash perfbench/run.sh \
		--workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0) >"$out" 2>"$out.err" || {
		echo "ab.sh: run failed; see $out.err" >&2
		exit 1
	}
	tail -n 1 "$out" | jq -r --arg s "$side" --arg p "$pair" \
		'.metrics | to_entries[] | [$s, $p, .key, (.value.value | tostring)] | @tsv' >>"$rows"
	grep '^digests ' "$out" | cut -d' ' -f2- | jq -r --arg s "$side" --arg p "$pair" \
		'[$p, $s, .results] | @tsv' >>"$digests"
}

for ((i = 0; i < pairs; i++)); do
	seed=$((seed0 + i))
	if ((i % 2 == 0)); then
		run base "$base_dir" "$i" "$seed"
		run head "$head_dir" "$i" "$seed"
	else
		run head "$head_dir" "$i" "$seed"
		run base "$base_dir" "$i" "$seed"
	fi
done

echo "workload $workload, $pairs pairs of ${seconds} s, seeds $seed0..$((seed0 + pairs - 1))"
echo "base ${base:0:12}  head ${head:0:12}"
jq -r '.end_to_end[] | [.name, .better] | @tsv' BENCHMARK.json >"$runs/metrics.tsv"
awk -F'\t' -v pairs="$pairs" '
	# q returns the q-quantile of a[1..n] (sorted ascending), by linear
	# interpolation between closest ranks.
	function q(a, n, p,    pos, lo, frac) {
		pos = 1 + p * (n - 1)
		lo = int(pos)
		frac = pos - lo
		return lo < n ? a[lo] + frac * (a[lo + 1] - a[lo]) : a[lo]
	}
	function sorted(src, m, dst,    i, j, t, n) {
		n = 0
		for (i = 0; i < pairs; i++) if ((m, i) in src) dst[++n] = src[m, i]
		for (i = 2; i <= n; i++) {
			t = dst[i]
			for (j = i - 1; j >= 1 && dst[j] > t; j--) dst[j + 1] = dst[j]
			dst[j + 1] = t
		}
		return n
	}
	NR == FNR { better[$1] = $2; order[++nm] = $1; next }
	$1 == "base" { b[$3, $2] = $4 + 0; next }
	$1 == "head" { h[$3, $2] = $4 + 0; next }
	END {
		printf "%-20s %-7s %14s %14s %12s %9s\n", "metric", "better", "base_median", "head_median", "base_iqr", "head_won"
		for (k = 1; k <= nm; k++) {
			m = order[k]
			split("", bs); split("", hs)
			nb = sorted(b, m, bs); nh = sorted(h, m, hs)
			if (nb == 0 || nh == 0) continue
			won = 0
			for (i = 0; i < pairs; i++) {
				if (!((m, i) in b) || !((m, i) in h)) continue
				if (better[m] == "lower" && h[m, i] < b[m, i]) won++
				if (better[m] == "higher" && h[m, i] > b[m, i]) won++
			}
			printf "%-20s %-7s %14.6g %14.6g %12.4g %6d/%d\n", m, better[m], q(bs, nb, 0.5), q(hs, nh, 0.5), q(bs, nb, 0.75) - q(bs, nb, 0.25), won, pairs
		}
	}' "$runs/metrics.tsv" "$rows"
awk -F'\t' '
	{ d[$1, $2] = $3; p[$1] = 1 }
	END {
		n = 0; eq = 0
		for (i in p) { n++; if (d[i, "base"] != "" && d[i, "base"] == d[i, "head"]) eq++ }
		printf "digests equal %d/%d\n", eq, n
	}' "$digests"
