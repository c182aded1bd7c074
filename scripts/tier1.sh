#!/usr/bin/env bash
# Tier-1 verification: formatting, lints, rustdoc links, release build,
# full test suite, the benchmark's smoke test, a compile check of every
# criterion bench, and a smoke-run of every example so the sweeps (registry_sweep's
# mesh/N-regional scenarios and friends, fault_sweep's failure-rate ×
# registry-count grid) cannot silently rot. It ends with the simplicity
# ledger (scripts/loc.sh), printed for information only.
#
# Randomized suites stay deterministic in CI: the vendored proptest
# seeds every case from the test name (no ambient RNG), and the
# fault-injection Monte-Carlo tests sweep fixed fault_seed ranges — a
# red run always reproduces locally with the same `cargo test`.
#
# Usage: scripts/tier1.sh
set -euo pipefail

cd "$(dirname "$0")/.."

# Workspace crates (vendored stand-in crates are exempt from fmt/clippy —
# they mirror upstream APIs, not house style).
CRATES=(
  deep deep-netsim deep-dataflow deep-energy deep-objectstore
  deep-registry deep-game deep-simulator deep-orchestrator deep-scenario
  deep-core deep-arrival deep-bench
)
PKG_FLAGS=()
for c in "${CRATES[@]}"; do PKG_FLAGS+=(-p "$c"); done

echo "==> cargo fmt --check"
cargo fmt "${PKG_FLAGS[@]}" -- --check

echo "==> cargo clippy -- -D warnings"
cargo clippy "${PKG_FLAGS[@]}" --all-targets -- -D warnings

echo "==> cargo doc -D warnings (intra-doc links must resolve)"
# rustdoc is the only check that catches a dangling intra-doc link: a
# deleted item that doc comments still name fails here, not in the build.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps "${PKG_FLAGS[@]}"

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

echo "==> benchmark smoke test (every workload's output checks must pass)"
# perfbench is a package with its own [workspace], so the root `cargo
# test` never reaches it: a solver change that breaks a benchmark output
# check (Table III placements, the sampled equilibrium check, ...) must
# still fail tier 1.
cargo test -q --manifest-path perfbench/Cargo.toml

echo "==> cargo bench -- --test (every bench body must execute cleanly)"
# The vendored criterion honours real criterion's --test flag: each
# benchmark body runs exactly once, untimed, so bench bit-rot fails
# tier 1 without paying measurement windows.
cargo bench -- --test

echo "==> examples smoke-run (every example must execute cleanly)"
for example in examples/*.rs; do
  name="$(basename "${example%.rs}")"
  echo "    -> ${name}"
  cargo run --quiet --release --example "${name}" >/dev/null
done

echo "==> scenario soak smoke (time-scaled chaos timeline through the runner)"
# scenario_runner's no-arg default is the sticky-outage soak (covered by
# the loop above); this pass replays the short time-scaled smoke soak so
# the rate + degrade + cache-pressure + registry-gc event kinds all
# execute on every push.
cargo run --quiet --release --example scenario_runner -- scenarios/soak_smoke.toml >/dev/null

echo "==> gossip discovery smoke (epidemic peer views through the runner)"
# gossip_frontier.rs (covered by the loop above) is the fleet-scale
# frontier; this pass replays the checked-in gossip scenario so the
# [gossip] DSL section and its sweep axes execute on every push.
cargo run --quiet --release --example scenario_runner -- scenarios/gossip_frontier.toml >/dev/null

echo "==> arrival plane smoke (online admissions + incremental repair)"
# arrival_runner's no-arg default already replays scenarios/arrival_soak.toml
# (covered by the loop above); this pass re-runs it explicitly so the
# checked-in arrival fixture stays wired to the example entry point.
cargo run --quiet --release --example arrival_runner -- scenarios/arrival_soak.toml >/dev/null

echo "==> simplicity ledger (informational, never fails)"
# Non-vendored Rust lines per crate (production vs test) and the public
# knob count: the design-quality results ROADMAP tracks across changes.
scripts/loc.sh || true

echo "tier-1 OK"
