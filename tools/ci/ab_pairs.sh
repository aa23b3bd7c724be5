#!/usr/bin/env bash
# ab_pairs.sh — alternating A/B pairs of end-to-end benchmark workloads.
#
#   tools/ci/ab_pairs.sh BIN_A BIN_B --workload W [--workload W2 ...]
#                        [--pairs 10] [--seed N [--seed N2 ...]]
#                        [--seconds S] [--out-dir DIR]
#
# BIN_A and BIN_B are two builds of bench/e2e's bbrnash_e2e, say the
# parent's and the change's. Each pair runs both once on workload W with
# the same seed and run length; even pairs run A first and odd pairs B
# first, so drift over the session falls on both sides alike. Every run
# appends its result line to DIR/a.jsonl or DIR/b.jsonl (--out) and keeps
# its scratch files in DIR/run-a or DIR/run-b (--run-dir). Given
# --workload or --seed more than once, it runs all pairs of each workload
# and seed in turn (seed 1 when none is given).
#
# Then, for each workload, seed and end-to-end metric in BENCHMARK.json,
# it prints each side's median and quartiles, the pairs B won (ties count
# for neither), and whether the medians differ by more than A's
# interquartile range, the rule for claiming a gain. A row whose A side
# spreads wider than the metric's bound (A's IQR over its median above the
# bound) is marked "spread above bound": that many pairs cannot tell a
# change inside the bound from one past it. With more than one workload or
# seed each table is headed by its workload (and seed). Last,
# `BIN_B --compare` checks B's medians against the metrics' bounds for
# every workload, once per seed; the script exits non-zero when any of
# those checks failed.
#
# Run it from the repository root: --compare reads BENCHMARK.json there.
# DIR defaults to a fresh temporary directory. The quartiles interpolate
# linearly between order statistics, as bbrnash_e2e's own medians do.
set -euo pipefail

usage() {
  echo "usage: $0 BIN_A BIN_B --workload W [--workload W2 ...] [--pairs N]" \
       "[--seed N [--seed N2 ...]] [--seconds S] [--out-dir DIR]" >&2
  exit 2
}

[ $# -ge 2 ] || usage
bin_a=$1
bin_b=$2
shift 2
workloads=()
seeds=()
pairs=10
seconds=25
out=""
while [ $# -gt 0 ]; do
  [ $# -ge 2 ] || usage
  case "$1" in
    --workload) workloads+=("$2") ;;
    --pairs) pairs=$2 ;;
    --seed) seeds+=("$2") ;;
    --seconds) seconds=$2 ;;
    --out-dir) out=$2 ;;
    *) usage ;;
  esac
  shift 2
done
[ ${#workloads[@]} -gt 0 ] || usage
[ ${#seeds[@]} -gt 0 ] || seeds=(1)
for bin in "$bin_a" "$bin_b"; do
  if [ ! -x "$bin" ]; then
    echo "ab_pairs.sh: $bin is not an executable" >&2
    exit 2
  fi
done
if [ ! -f BENCHMARK.json ]; then
  echo "ab_pairs.sh: run from the repository root (no BENCHMARK.json here)" >&2
  exit 2
fi
if [ -z "$out" ]; then out=$(mktemp -d); fi
mkdir -p "$out"
rm -f "$out/a.jsonl" "$out/b.jsonl" "$out"/[ab].seed*.jsonl

# run SIDE BIN: one timed run of $workload on $seed; a failed check is
# reported, not fatal.
run() {
  local status=0
  "$2" --workload "$workload" --seed "$seed" --seconds "$seconds" \
      --run-dir "$out/run-$1" --out "$out/$1.jsonl" >/dev/null || status=$?
  if [ "$status" -ne 0 ]; then
    echo "ab_pairs.sh: side $1 exited $status in pair $p" >&2
  fi
}

for workload in "${workloads[@]}"; do
  for seed in "${seeds[@]}"; do
    echo "workload $workload, seed $seed, ${seconds} s runs, $pairs pairs;" \
         "results in $out"
    for ((p = 0; p < pairs; ++p)); do
      if ((p % 2 == 0)); then
        run a "$bin_a"
        run b "$bin_b"
      else
        run b "$bin_b"
        run a "$bin_a"
      fi
      echo "pair $((p + 1))/$pairs done"
    done
  done
done

if [ "$(wc -l < "$out/a.jsonl")" -ne "$(wc -l < "$out/b.jsonl")" ]; then
  echo "ab_pairs.sh: the two sides recorded different numbers of runs" >&2
  exit 1
fi

# values METRIC SIDE: the metric's value in each of the side's runs of
# $workload on $seed, one a line, in pair order.
values() {
  grep -F "{\"workload\": \"$workload\", \"seed\": $seed," "$out/$2.jsonl" |
    grep -o "\"$1\": {\"value\": [^,}]*" | sed 's/.*: //'
}

# "name better bound" for each end-to-end metric.
metrics=$(sed -n '/"end_to_end"/,/\]/p' BENCHMARK.json |
          sed -n 's/.*"name": "\([^"]*\)".*"better": "\([^"]*\)".*"bound": \([0-9.eE+-]*\).*/\1 \2 \3/p')

for workload in "${workloads[@]}"; do
  for seed in "${seeds[@]}"; do
    if [ ${#seeds[@]} -gt 1 ]; then
      printf '\nworkload %s, seed %s\n' "$workload" "$seed"
    elif [ ${#workloads[@]} -gt 1 ]; then
      printf '\nworkload %s\n' "$workload"
    fi
    printf '\n%-14s %-6s %12s %12s %12s %8s  %s\n' metric side q1 median q3 \
           "B wins" "median gap vs A's IQR"
    while read -r name better bound; do
      paste <(values "$name" a) <(values "$name" b) |
        awk -v name="$name" -v better="$better" -v bound="$bound" '
          function quantile(v, n, q,    pos, lo, frac) {
            pos = q * (n - 1); lo = int(pos); frac = pos - lo
            return lo + 1 < n ? v[lo] * (1 - frac) + v[lo + 1] * frac : v[lo]
          }
          function sort(v, n,    i, j, t) {
            for (i = 1; i < n; ++i)
              for (j = i; j > 0 && v[j - 1] > v[j]; --j) {
                t = v[j]; v[j] = v[j - 1]; v[j - 1] = t
              }
          }
          BEGIN { n = 0; wins = 0; ties = 0 }
          {
            a[n] = $1; b[n] = $2; ++n
            if ($1 == $2) ++ties
            else if ((better == "lower") == ($2 < $1)) ++wins
          }
          END {
            sort(a, n); sort(b, n)
            qa1 = quantile(a, n, 0.25); ma = quantile(a, n, 0.5)
            qa3 = quantile(a, n, 0.75); mb = quantile(b, n, 0.5)
            gap = mb - ma; if (gap < 0) gap = -gap
            iqr = qa3 - qa1
            b_better = better == "lower" ? mb < ma : mb > ma
            verdict = gap > iqr ? (b_better ? "B better, resolved" \
                                            : "B worse, resolved") \
                                : "unresolved"
            printf "%-14s %-6s %12.6g %12.6g %12.6g\n", name, "A", qa1, ma, qa3
            spread = ma != 0 ? iqr / ma : 0
            mark = spread > bound ? sprintf("; spread above bound (A IQR %.1f%% of median > %.0f%%)", 100 * spread, 100 * bound) : ""
            printf "%-14s %-6s %12.6g %12.6g %12.6g %3d/%-4d  %+.2f%%, gap %.4g vs IQR %.4g: %s%s\n",
                   name, "B", quantile(b, n, 0.25), mb, quantile(b, n, 0.75),
                   wins, n, 100 * (mb - ma) / ma, gap, iqr, verdict, mark
            if (ties > 0) printf "%-14s %d tied pairs\n", name, ties
          }'
    done <<< "$metrics"
  done
done

echo
if [ ${#seeds[@]} -eq 1 ]; then
  exec "$bin_b" --compare "$out/a.jsonl" "$out/b.jsonl"
fi
# --compare pools every run of a workload, so each seed gets its own.
status=0
for seed in "${seeds[@]}"; do
  for side in a b; do
    grep -F "\"seed\": $seed," "$out/$side.jsonl" > "$out/$side.seed$seed.jsonl"
  done
  printf 'seed %s\n' "$seed"
  "$bin_b" --compare "$out/a.seed$seed.jsonl" "$out/b.seed$seed.jsonl" ||
    status=1
  echo
done
exit "$status"
