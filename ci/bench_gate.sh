#!/bin/sh
# The benchmark gate: builds the repository benchmark at <base-rev> (in a
# git worktree under target/bench-gate/base) and at the working tree, then
# runs `repro perf-check` on the two binaries. Run from the repo root:
#
#   sh ci/bench_gate.sh HEAD~1
#
# Exits 0 with a notice when there is no base to compare against: an
# all-zero revision (the first push of a branch) or a base without
# benchmark/Cargo.toml.
set -eu

base=${1:?usage: sh ci/bench_gate.sh <base-rev>}
case $base in
*[!0]*) ;;
*)
	echo "bench gate skipped: the base revision is all zeros"
	exit 0
	;;
esac
if ! git cat-file -e "$base:benchmark/Cargo.toml" 2>/dev/null; then
	echo "bench gate skipped: no benchmark/Cargo.toml at $base"
	exit 0
fi

dir=target/bench-gate
rm -rf "$dir/base"
git worktree prune
git worktree add --detach "$dir/base" "$base"
cargo build --release --offline --manifest-path "$dir/base/benchmark/Cargo.toml" \
	--target-dir "$dir/base-build"
# A build may add a missing entry to benchmark/Cargo.lock; leave the
# working tree as it was.
cp benchmark/Cargo.lock "$dir/Cargo.lock.orig"
trap 'cp "$dir/Cargo.lock.orig" benchmark/Cargo.lock' EXIT
cargo build --release --offline --manifest-path benchmark/Cargo.toml \
	--target-dir "$dir/change-build"
cargo build --release --offline -p agb-experiments --bin repro
./target/release/repro perf-check \
	"$dir/base-build/release/agb-benchmark" "$dir/change-build/release/agb-benchmark"
