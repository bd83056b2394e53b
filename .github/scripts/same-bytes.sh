#!/usr/bin/env bash
# Compare ges4's deterministic outputs between two source trees, byte for byte.
#
#   bash .github/scripts/same-bytes.sh BASE_TREE HEAD_TREE
#
# Runs `python -m ges4.cli` from each tree's src/ on `verify --seed s` for
# s = 0..19, with --json and with --csv, plain and with --fault
# conjugate_bs, then on the default `sweep --csv` and on one 3-axis sweep
# grid. Each command's stdout and exit code must be identical in the two
# trees; the first difference is named and ends the script with exit 1.
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

run() {  # run TREE FILE ARGS...: stdout, then the exit code, into FILE
  local tree=$1 file=$2 code=0
  shift 2
  PYTHONPATH="$tree/src" python -m ges4.cli "$@" > "$file" || code=$?
  echo "exit $code" >> "$file"
}

cases=()
for s in $(seq 0 19); do
  for fmt in --json --csv; do
    cases+=("verify --seed $s $fmt" "verify --seed $s $fmt --fault conjugate_bs")
  done
done
cases+=("sweep --csv"
        "sweep --csv --phi 0:pi:4 --theta1 0:pi/2:3 --theta3 0.2:1.1:3 --eta 0.5,1")

for c in "${cases[@]}"; do
  read -ra argv <<< "$c"
  run "$base" "$out/base" "${argv[@]}"
  run "$head" "$out/head" "${argv[@]}"
  if ! cmp -s "$out/base" "$out/head"; then
    echo "output differs: ges4 $c"
    exit 1
  fi
done
echo "same bytes on ${#cases[@]} commands"
