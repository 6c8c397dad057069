#!/usr/bin/env bash
# Production-surface line coverage of src/**/*.cpp.
#
# Builds the benches and examples with --coverage into their own
# directory and runs what a user of the repository runs, not the unit
# tests:
#   * fig06 and fig08 at two rounds, fig10-fig14 and both ablations at
#     CI scale, fault_tolerance_sweep, related_work_costs and
#     multilayer_cost;
#   * scale_sweep --n 1000, attack_sweep --quick and paper_round, and
#     the regress gates over their BENCH_*.json baselines (the CI
#     regress job);
#   * the p2pflctl commands .github/workflows/ci.yml runs;
#   * the examples.
# Then gcov reads the counters and the script prints, for every
# src/**/*.cpp file, the lines executed and the lines gcov counts, and
# the total, and then every src/ function no surface ran, with its
# file:line span. A line no surface executes is code the system does
# not need, or a surface CI does not run.
#
# The training surfaces (attack_sweep, fig06, fig08) run pinned to one
# CPU: their worker threads share the gcov counters, and contending on
# them made attack_sweep alone take most of the run. The pinned process
# still sees every hardware thread (hardware_concurrency() ignores the
# affinity mask), so the same parallel paths run.
#
# Usage: tools/coverage_prod.sh [BUILD_DIR]    (default: build-coverage)
# The table goes to stdout and to BUILD_DIR/coverage_prod.txt, the
# function list to stdout and to BUILD_DIR/coverage_prod_unreached.txt;
# the runs' artifacts stay under BUILD_DIR/prod-runs. Report-only: a
# surface that exits with an unexpected code is named on stderr, and
# the script still prints the report and exits 0. Needs cmake, a C++
# compiler with gcov, python3 and taskset.
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BUILD="$(mkdir -p "${1:-$ROOT/build-coverage}" && cd "${1:-$ROOT/build-coverage}" && pwd)"
JOBS="$(nproc)"

cmake -S "$ROOT" -B "$BUILD" -DCMAKE_BUILD_TYPE=Debug \
  -DCMAKE_CXX_FLAGS="--coverage -O0" \
  -DCMAKE_EXE_LINKER_FLAGS="--coverage" > "$BUILD/configure.log"
BENCHES=(fig06_accuracy fig08_fraction_accuracy fig10_subgroup_election
         fig11_join_fedavg fig12_fedavg_leader_crash fig13_comm_cost_m
         fig14_comm_cost_kn ablation_round_latency ablation_secagg_schemes
         fault_tolerance_sweep related_work_costs multilayer_cost
         scale_sweep attack_sweep paper_round regress)
EXAMPLES=(quickstart fault_tolerant_sac raft_failover full_system
          cost_explorer multilayer_hierarchy p2pflctl)
cmake --build "$BUILD" -j "$JOBS" --target "${BENCHES[@]}" "${EXAMPLES[@]}" \
  > "$BUILD/build.log"

# Counters accumulate across runs; start from zero.
find "$BUILD" -name '*.gcda' -delete
RUNS="$BUILD/prod-runs"
rm -rf "$RUNS"
mkdir -p "$RUNS"
cd "$RUNS"

B="$BUILD/bench"
X="$BUILD/examples"
unexpected=0
# expect CODE CMD...: run CMD and note it when it exits other than CODE.
expect() {
  local want="$1"
  shift
  local got=0
  { "$@"; } > /dev/null 2>&1 || got=$?
  if [ "$got" -ne "$want" ]; then
    echo "coverage_prod: '$*' exited $got, expected $want" >&2
    unexpected=$((unexpected + 1))
  fi
}

# Benches at CI scale; training pinned to one CPU (see above).
expect 0 taskset -c 0 "$B/fig06_accuracy" --rounds=2 --eval-every=1
expect 0 taskset -c 0 "$B/fig08_fraction_accuracy" --rounds=2 --eval-every=1
expect 0 "$B/fig10_subgroup_election" --trials=3
expect 0 "$B/fig11_join_fedavg" --trials=3
expect 0 "$B/fig12_fedavg_leader_crash" --trials=3
expect 0 "$B/fig13_comm_cost_m" --peers=12
expect 0 "$B/fig14_comm_cost_kn" --max-peers=20
expect 0 "$B/ablation_round_latency" --peers=12
expect 0 "$B/ablation_secagg_schemes" --benchmark_min_time=0.01
expect 0 "$B/fault_tolerance_sweep"
expect 0 "$B/related_work_costs"
expect 0 "$B/multilayer_cost"
expect 0 "$B/scale_sweep" --n 1000 --out scale_sweep_1k.json
expect 0 taskset -c 0 "$B/attack_sweep" --quick --out attack_sweep_quick.json
expect 0 "$B/paper_round" --out paper_round.json

# The CI regress job: self-test, then the gates over the fresh runs.
expect 0 "$B/regress" --self-test
expect 0 "$B/regress" --baseline "$ROOT/BENCH_scale.json" \
  --fresh scale_sweep_1k.json
expect 0 "$B/regress" --baseline "$ROOT/BENCH_attack.json" \
  --fresh attack_sweep_quick.json
expect 0 "$B/regress" --baseline "$ROOT/BENCH_paper.json" \
  --fresh paper_round.json

# The p2pflctl commands CI runs (seed 1 where a job sweeps seeds).
expect 0 "$X/p2pflctl" wire --dim=1250000 --n=4 --k=3
expect 0 "$X/p2pflctl" wire --dump=sac:share
expect 0 "$X/p2pflctl" health --peers=12 --groups=3
expect 0 "$X/p2pflctl" health --peers=12 --groups=3 --amnesia
expect 0 "$X/p2pflctl" health --peers=8 --groups=2 --seed=1 --amnesia
expect 1 "$X/p2pflctl" recovery --peers=4 --groups=2
expect 0 "$X/p2pflctl" attack --peers=12 --groups=3
expect 0 "$X/p2pflctl" attack --attack=equivocate
expect 0 "$X/p2pflctl" attack --seed=5 --peers=12 --groups=3 \
  --defense=trimmed_mean --json
expect 0 "$X/p2pflctl" attack --seed=5 --attack=sign_flip \
  --defense=trimmed_mean
expect 0 "$X/p2pflctl" attack --seed=5 --attack=subtotal_lie --defense=median
expect 0 "$X/p2pflctl" explain --rounds=3 --out=explain
expect 0 "$X/p2pflctl" chaos --seed=1 --peers=12 --groups=3 --rounds=12 \
  --loss=0.08 --dup=0.05 --reorder-ms=50 --churn-mttf=5000 \
  --churn-mttr=700 --partition-at=3100 --heal-at=5100
expect 0 "$X/p2pflctl" chaos --seed=1 --peers=8 --groups=2 --rounds=8 \
  --interval=2000 --loss=0.2 --dup=0.1
expect 0 "$X/p2pflctl" chaos --seed=1 --peers=12 --groups=3 --rounds=10 \
  --loss=0.05 --dup=0.05 --corrupt=0.03 --truncate=0.03
expect 0 "$X/p2pflctl" chaos --wal="$RUNS/sim_wal" --rounds=6
expect 0 "$X/p2pflctl" watch --seed=1 --peers=12 --groups=3 --rounds=10 \
  --out=watch
expect 1 "$X/p2pflctl" watch --seed=1 --peers=12 --groups=3 --rounds=8 \
  --partition-at=2200 --heal-at=5200 --out=watch-breach
expect 0 "$X/p2pflctl" train --rounds=6
expect 0 "$X/p2pflctl" train --transport=tcp --rounds=6
expect 0 "$X/p2pflctl" chaos --transport=tcp --rounds=6 --wal="$RUNS/tcp_wal"
# The nightly kill -9 cycle: the killed run writes no counters, the
# resumed run covers recovery from the write-ahead logs.
expect 137 "$X/p2pflctl" chaos --transport=tcp --rounds=8 \
  --kill-after-round=1 --wal="$RUNS/kill_wal"
expect 0 "$X/p2pflctl" chaos --transport=tcp --rounds=6 --resume \
  --wal="$RUNS/kill_wal"

# The examples.
for e in quickstart fault_tolerant_sac raft_failover full_system \
         cost_explorer multilayer_hierarchy; do
  expect 0 "$X/$e"
done

python3 - "$ROOT" "$BUILD" <<'EOF'
import glob, json, os, subprocess, sys

root, build = sys.argv[1], sys.argv[2]
src = os.path.join(root, "src") + os.sep
rows = {}
# (file, first line, name) -> [last line, times run]. An inline function
# is compiled into every source that uses it; it ran if any copy did.
funcs = {}
# One .gcno per compiled library source; a source no surface linked or
# ran has no .gcda and counts as unexecuted.
for gcno in sorted(glob.glob(os.path.join(build, "src", "**", "*.gcno"),
                             recursive=True)):
    out = subprocess.run(["gcov", "--json-format", "--stdout", gcno],
                         cwd=build, capture_output=True, text=True,
                         check=True).stdout
    for doc in out.splitlines():
        if not doc.strip():
            continue
        for f in json.loads(doc)["files"]:
            path = os.path.normpath(os.path.join(build, f["file"]))
            if not path.startswith(src):
                continue
            rel = os.path.relpath(path, root)
            for fn in f.get("functions", []):
                key = (rel, fn["start_line"], fn["demangled_name"])
                entry = funcs.setdefault(key, [fn["end_line"], 0])
                entry[1] += fn["execution_count"]
            if not path.endswith(".cpp"):
                continue
            lines = {l["line_number"]: l["count"] > 0 for l in f["lines"]}
            seen = rows.setdefault(rel, {})
            for n, hit in lines.items():
                seen[n] = seen.get(n, False) or hit

def report(name, text):
    print(text, end="")
    with open(os.path.join(build, name), "w") as out:
        out.write(text)

width = max(len(p) for p in rows)
table = f"{'file':<{width}}  {'executed':>8}  {'lines':>6}  {'%':>6}\n"
hit_total = line_total = 0
for path in sorted(rows):
    hit = sum(rows[path].values())
    total = len(rows[path])
    hit_total += hit
    line_total += total
    pct = 100.0 * hit / total if total else 0.0
    table += f"{path:<{width}}  {hit:>8}  {total:>6}  {pct:>6.1f}\n"
table += (f"{'total':<{width}}  {hit_total:>8}  {line_total:>6}  "
          f"{100.0 * hit_total / line_total:>6.1f}\n")
report("coverage_prod.txt", table)

unreached = sorted((rel, first, last, name)
                   for (rel, first, name), (last, runs) in funcs.items()
                   if runs == 0)
span = sum(last - first + 1 for _, first, last, _ in unreached)
text = (f"\nfunctions no surface ran: {len(unreached)}, spanning "
        f"{span} lines\n")
for rel, first, last, name in unreached:
    text += f"  {rel}:{first}-{last}  {name}\n"
report("coverage_prod_unreached.txt", text)
EOF

if [ "$unexpected" -gt 0 ]; then
  echo "coverage_prod: $unexpected surface(s) exited unexpectedly" >&2
fi
