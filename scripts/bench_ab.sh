#!/usr/bin/env bash
# Interleaved A/B run of the repository benchmark (nocbench): a git revision
# ("base") against the working tree ("change").
#
#   scripts/bench_ab.sh <rev> <workload> [pairs] [seconds] [seed]
#
# Exports <rev>'s source tree with `git archive` into .bench_build/ab-<sha>/
# (built once, reused by later calls), builds both nocbench binaries in
# release mode, then runs `pairs` pairs of `nocbench --workload <workload>
# --seconds <seconds> --seed <seed> --trace 0`, flipping which side goes
# first on every pair so drift in host load hits both sides alike. For
# sim_cycles_per_s, setup_s and peak_rss_mb it prints each side's median and
# quartiles, the change/base ratio of the medians, and how many pairs the
# change won. Defaults: 10 pairs, 10 seconds, seed 11.
set -euo pipefail

if [[ $# -lt 2 ]]; then
    sed -n '4,5p' "$0" | sed 's/^# \{0,1\}//' >&2
    exit 2
fi
rev=$1
workload=$2
pairs=${3:-10}
seconds=${4:-10}
seed=${5:-11}

cd "$(dirname "$0")/.."
root=$(pwd)
sha=$(git rev-parse --verify "$rev^{commit}")
base_dir="$root/.bench_build/ab-$sha"
base_bin="$base_dir/nocbench/target/release/nocbench"
change_bin="$root/nocbench/target/release/nocbench"

if [[ ! -x "$base_bin" ]]; then
    echo "building nocbench at ${sha:0:12} in $base_dir" >&2
    rm -rf "$base_dir"
    mkdir -p "$base_dir"
    git archive "$sha" | tar -x -C "$base_dir"
    cargo build --release --offline --quiet --manifest-path "$base_dir/nocbench/Cargo.toml"
fi
echo "building nocbench in the working tree" >&2
cargo build --release --offline --quiet --manifest-path nocbench/Cargo.toml

metrics=(sim_cycles_per_s setup_s peak_rss_mb)
# Whether a larger value is better, per metric.
higher_better=(1 0 0)
samples=$(mktemp)
trap 'rm -f "$samples"' EXIT

# Runs one side and appends "<side> <pair> <metric values...>" to $samples.
run_side() {
    local side=$1 bin=$2 pair=$3 line values=()
    line=$("$bin" --workload "$workload" --seconds "$seconds" --seed "$seed" --trace 0 | tail -n 1)
    if [[ $line != *'"correct": true'* || $line != *'"failed": 0,'* ]]; then
        echo "$side run $pair failed its correctness gate: $line" >&2
        exit 1
    fi
    for m in "${metrics[@]}"; do
        values+=("$(sed -E "s/.*\"$m\": \\{\"value\": ([^,}]+).*/\\1/" <<< "$line")")
    done
    echo "$side $pair ${values[*]}" >> "$samples"
}

for ((p = 1; p <= pairs; p++)); do
    if ((p % 2)); then
        run_side base "$base_bin" "$p"
        run_side change "$change_bin" "$p"
    else
        run_side change "$change_bin" "$p"
        run_side base "$base_bin" "$p"
    fi
    echo "pair $p/$pairs done" >&2
done

echo "$workload: base ${sha:0:12} vs working tree, $pairs pairs x ${seconds}s, seed $seed"
printf '%-17s %-38s %-38s %7s %s\n' metric "base median [q1, q3]" \
    "change median [q1, q3]" ratio "change wins"
for i in "${!metrics[@]}"; do
    awk -v col=$((i + 3)) -v name="${metrics[$i]}" -v hb="${higher_better[$i]}" '
        # Quantile by linear interpolation between order statistics.
        function quantile(a, n, q,    pos, lo) {
            pos = 1 + (n - 1) * q
            lo = int(pos)
            return lo >= n ? a[n] : a[lo] + (pos - lo) * (a[lo + 1] - a[lo])
        }
        function sort(a, n,    i, j, t) {
            for (i = 2; i <= n; i++)
                for (j = i; j > 1 && a[j - 1] > a[j]; j--) {
                    t = a[j]; a[j] = a[j - 1]; a[j - 1] = t
                }
        }
        function summary(a, n) {
            return sprintf("%.5g [%.5g, %.5g]", quantile(a, n, 0.5),
                           quantile(a, n, 0.25), quantile(a, n, 0.75))
        }
        $1 == "base" { b[++nb] = $col; bp[$2] = $col }
        $1 == "change" { c[++nc] = $col; cp[$2] = $col }
        END {
            for (p in bp)
                if ((hb && cp[p] > bp[p]) || (!hb && cp[p] < bp[p])) wins++
            sort(b, nb); sort(c, nc)
            mb = quantile(b, nb, 0.5)
            printf "%-17s %-38s %-38s %7.3f %d/%d\n", name, summary(b, nb),
                   summary(c, nc), mb ? quantile(c, nc, 0.5) / mb : 0, wins, nb
        }' "$samples"
done
