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
#   - three sweeps of more than one 4096-point block, each as --csv, as
#     --csv --out PATH (comparing the written file) and as --json: two whose
#     theta rows outnumber a block (4352 rows over four axes at two phis,
#     5000 locked rows at one phi), and one whose block boundary has empty
#     branches on both sides (phi = 0, where every point has an empty branch);
#   - every argv of BYTE_GOLDENS in HEAD_TREE's tests/test_golden.py, as
#     text, --csv and --json;
#   - `simulate --deterministic` over several theta and eta, choosing the
#     click and forcing d1 and d2, with and without --measures, and
#     `simulate --measures --json` over all four outcomes at eta 0, 0.4 and
#     1, at angles where the no-click state is mixed and, with --phi 1.1 and
#     theta 0 or 0,0,0,pi/2, where it is a pure product state that only
#     detect's SVD finds (at eta 0 too, where both clicks have weight 0 and
#     the no-click keeps both branches at weight 1), and
#     `simulate --measures --json` at --phi 0.7 and 2.9 with generic angles,
#     whose post-states have no table amplitudes;
#   - `decompose` of every named state over both bases, and `decompose --file`
#     of three seeded state files (a dense generic state, a sparse one with a
#     1e-9 amplitude, and one whose norm is off, with and without
#     --normalize) over both bases, as text, with --json and with --csv.
#   - with `--out PATH`, comparing the written file as well: the two-block
#     sweep grid with --csv, `verify --seed 0 --json`, `basis --list --csv`
#     and `decompose w4` as text.
# It also runs each of HEAD_TREE's demos/*.py scripts, from each tree's own
# demos/ against that tree's src/.
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
  local cmd=(python -m ges4.cli "${argv[@]}")
  if [ "${argv[0]}" = demo ]; then             # `demo NAME` runs the tree's demos/NAME
    cmd=(python "$tree/demos/${argv[1]}")
  fi
  rm -f "$file.side"
  PYTHONPATH="$tree/src" "${cmd[@]}" > "$file" 2> "$file.err" || code=$?
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
for grid in "--phi 0:pi/2:2 --theta1 0:pi/2:17 --theta2 0.1:1.4:16 --theta3 0:pi/2:4 --theta4 0.4:pi/2:4 --eta 0.5" \
            "--phi 1.1 --thetas 0:pi:5000" \
            "--phi 0:pi:2 --thetas 0:pi/2:4500 --eta 0.3"; do
  cases+=("sweep --csv $grid" "sweep --csv $grid --out SIDE_FILE" "sweep --json $grid")
done

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
  for eta in 0 0.4 1; do
    cases+=("simulate --measures --json --theta $theta --eta $eta")
  done
done
for theta in 0 0,0,0,pi/2; do
  for eta in 0 0.4; do
    cases+=("simulate --measures --json --phi 1.1 --theta $theta --eta $eta")
  done
done
for phi in 0.7 2.9; do
  cases+=("simulate --measures --json --phi $phi --theta 0.3,0.5,0.7,0.9 --eta 0.6")
done

for state in ghz4 w4 cl4 d4; do
  for b in explicit generated; do
    cases+=("decompose $state --basis $b --json" "decompose $state --basis $b --csv")
  done
done

# the state files, written once from a fixed seed and read by both trees
python - "$out" <<'PY'
import json, sys
import numpy as np
rng = np.random.default_rng(20261019)
def write(name, amp):
    records = [{"basis_label": format(i, "04b"), "re": float(a.real), "im": float(a.imag)}
               for i, a in enumerate(amp) if a != 0]
    with open(f"{sys.argv[1]}/{name}.json", "w") as f:
        json.dump(records, f)
dense = rng.normal(size=16) + 1j * rng.normal(size=16)
write("dense", dense / np.linalg.norm(dense))
sparse = np.zeros(16, dtype=complex)
sparse[rng.choice(16, size=5, replace=False)] = rng.normal(size=5) + 1j * rng.normal(size=5)
sparse[np.flatnonzero(sparse)[0]] = 1e-9 * (1 + 1j)
write("sparse", sparse / np.linalg.norm(sparse))
off = rng.normal(size=16) + 1j * rng.normal(size=16)
write("off", 1.7 * off / np.linalg.norm(off))
PY
for b in explicit generated; do
  for fmt in "" --json --csv; do
    cases+=("decompose --file $out/dense.json --basis $b $fmt"
            "decompose --file $out/sparse.json --basis $b $fmt"
            "decompose --file $out/off.json --basis $b --normalize $fmt")
  done
  cases+=("decompose --file $out/off.json --basis $b")
done

cases+=("sweep --csv --phi 0:pi:3 --thetas 0:pi/2:1400 --out SIDE_FILE"
        "verify --seed 0 --json --out SIDE_FILE"
        "basis --list --csv --out SIDE_FILE"
        "decompose w4 --out SIDE_FILE")

for demo in "$head"/demos/*.py; do
  cases+=("demo ${demo##*/}")
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
