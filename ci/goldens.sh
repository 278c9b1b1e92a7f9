#!/bin/sh
# Runs every command whose outputs are pinned in ci/golden, writing them to
# <out-dir>. With --serial, the sweep commands run on the serial driver;
# without it, on the default worker pool (`repro trace` runs no sweep). Build the binary first with
# `cargo build --release -p rta-experiments --bin repro`, then compare:
#
#   ci/goldens.sh golden-serial --serial
#   diff -r -x method_costs.csv ci/golden golden-serial
set -eu

if [ $# -lt 1 ] || [ $# -gt 2 ] || { [ $# -eq 2 ] && [ "$2" != --serial ]; }; then
  echo "usage: $0 <out-dir> [--serial]" >&2
  exit 2
fi
out=$1
serial=${2:-}
repro="$(dirname "$0")/../target/release/repro"

run() {
  # $serial is deliberately unquoted: empty means no flag.
  # shellcheck disable=SC2086
  "$repro" "$@" $serial --out "$out" > /dev/null
}

run table1
run table3
run fig2a --sets 4
run fig2b --sets 4
run fig2c --sets 4
run fig2c-tasks --sets 4
run group2 --sets 4
run sensitivity --sets 4
run campaign all --sets 4
run campaign compare --sets 4
run validate --sets 4
"$repro" trace --out "$out" > /dev/null
