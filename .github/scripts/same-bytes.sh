#!/usr/bin/env bash
# Compare ges4's deterministic outputs between two source trees, byte for byte.
#
#   bash .github/scripts/same-bytes.sh BASE_TREE HEAD_TREE
#
# Runs `python -m ges4.cli` from each tree's src/ on:
#   - `verify --seed s` for s = 0..19, as text, with --json and with --csv,
#     plain and with --fault conjugate_bs;
#   - `verify --seed s --discrepancies PATH` for s = 0, 3, 16, plain and with
#     --fault conjugate_bs, comparing the discrepancy-log file as well;
#   - the default `sweep --csv`, a 3-axis sweep grid, a grid with empty
#     branches and degenerate closed forms, a grid of two kernel blocks, and
#     one --json grid over theta1 and theta4;
#   - every argv of BYTE_GOLDENS in HEAD_TREE's tests/test_golden.py, as
#     text, --csv and --json;
#   - `simulate --deterministic` over several theta and eta, choosing the
#     click and forcing d1 and d2, with and without --measures, and
#     `simulate --measures --json` over all four outcomes;
#   - `decompose` of every named state over both bases.
# Each command's stdout, stderr, exit code and side file (if any) must be
# identical in the two trees. Every command runs; each one that differs is named, and the script
# then exits 1 if any differed.
set -euo pipefail

base=$(cd "$1" && pwd)
head=$(cd "$2" && pwd)
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

for tree in "$base" "$head"; do
  loaded=$(PYTHONPATH="$tree/src" python -c "import ges4; print(ges4.__file__)")
  case "$loaded" in
    "$tree"/src/*) ;;
    *) echo "ges4 for $tree is imported from $loaded"; exit 1 ;;
  esac
done

run() {  # run TREE FILE ARGS...: stdout, stderr, the exit code, then the side file, into FILE
  local tree=$1 file=$2 code=0
  shift 2
  local argv=("${@/#SIDE_FILE/$file.side}")    # the argument SIDE_FILE names the side file
  rm -f "$file.side"
  PYTHONPATH="$tree/src" python -m ges4.cli "${argv[@]}" > "$file" 2> "$file.err" || code=$?
  cat "$file.err" >> "$file"
  echo "exit $code" >> "$file"
  if [ -e "$file.side" ]; then
    echo "side file:" >> "$file"
    cat "$file.side" >> "$file"
  fi
}

cases=()
for s in $(seq 0 19); do
  for fmt in "" --json --csv; do
    cases+=("verify --seed $s $fmt" "verify --seed $s $fmt --fault conjugate_bs")
  done
done
for s in 0 3 16; do
  cases+=("verify --seed $s --discrepancies SIDE_FILE"
          "verify --seed $s --fault conjugate_bs --discrepancies SIDE_FILE")
done
cases+=("sweep --csv"
        "sweep --csv --phi 0:pi:4 --theta1 0:pi/2:3 --theta3 0.2:1.1:3 --eta 0.5,1"
        "sweep --csv --phi 0:2pi:5 --thetas 0:pi/2:125 --eta 0.5,1"
        "sweep --csv --phi 0:pi:3 --thetas 0:pi/2:1400"
        "sweep --json --phi 0:2pi:7 --theta1 0:pi/2:5 --theta4 0:pi:4")

# argv words hold no spaces, so one line per argv
mapfile -t goldens < <(cd "$head/tests" && PYTHONPATH="$head/src" python -c '
from test_golden import BYTE_GOLDENS
for argv, _ in BYTE_GOLDENS.values():
    print(" ".join(argv))')
if [ "${#goldens[@]}" -eq 0 ]; then
  echo "no BYTE_GOLDENS read from $head/tests/test_golden.py"; exit 1
fi
for g in "${goldens[@]}"; do
  cases+=("$g" "$g --csv" "$g --json")
done

for theta in pi/4 0.3 0.3,0.5,0.7,0.9 0 1e300; do
  for eta in 0 0.4 1; do
    for click in "" "--outcome d1" "--outcome d2"; do
      cases+=("simulate --deterministic --theta $theta --eta $eta $click")
    done
  done
  cases+=("simulate --deterministic --measures --json --theta $theta"
          "simulate --deterministic --phi 1.1 --theta $theta")
done
for theta in pi/4 0.3 0.3,0.5,0.7,0.9; do
  for eta in 0.4 1; do
    cases+=("simulate --measures --json --theta $theta --eta $eta")
  done
done

for state in ghz4 w4 cl4 d4; do
  for b in explicit generated; do
    cases+=("decompose $state --basis $b --json" "decompose $state --basis $b --csv")
  done
done

differ=0
for c in "${cases[@]}"; do
  read -ra argv <<< "$c"
  run "$base" "$out/base" "${argv[@]}"
  run "$head" "$out/head" "${argv[@]}"
  if ! cmp -s "$out/base" "$out/head"; then
    echo "output differs: ges4 $c"
    differ=$((differ + 1))
  fi
done
if [ "$differ" -gt 0 ]; then
  echo "$differ of ${#cases[@]} commands differ"
  exit 1
fi
echo "same bytes on ${#cases[@]} commands"
