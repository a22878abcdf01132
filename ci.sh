#!/usr/bin/env bash
# Local CI gate: formatting, lints, and the tier-1 build/test pass.
#
#   ./ci.sh          # everything
#   ./ci.sh quick    # skip the release build (lints + tests only)
#
# Everything runs offline: external crates resolve to the stand-ins under
# shims/ (see shims/README.md).

set -euo pipefail
cd "$(dirname "$0")"

step() { printf '\n== %s ==\n' "$*"; }

step "cargo fmt --check"
cargo fmt --all -- --check

step "cargo clippy (all targets, warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

if [[ "${1:-}" != "quick" ]]; then
  step "cargo build --release (tier-1)"
  cargo build --release
fi

step "cargo test (tier-1)"
cargo test -q

step "cargo test --workspace"
cargo test -q --workspace

step "PDES stress (release)"
# K = 10 repeated two-thread PDES runs per config (a 16-CG model run and a
# functional run with pooled CPE tiles nested in the window drains), each
# compared with the serial engine on the report and the warehouse bits.
cargo test -q --release --test pdes_determinism -- --ignored stress

step "perfbench self-tests (release)"
# perfbench is its own cargo workspace, so the stage above never builds it.
# Its gate tests pin the RunReport digests of the benchmark workloads: any
# change to virtual time fails here.
cargo test --release --manifest-path perfbench/Cargo.toml

if [[ "${1:-}" != "quick" ]]; then
  step "static schedule verification (repro analyze)"
  # Exits non-zero on any error-severity finding; writes results/ANALYZE.json.
  cargo run --release -p bench --bin repro -- analyze

  step "telemetry trace export + validation (repro trace)"
  # Exits non-zero if any trace fails to reconcile exactly with its
  # RunReport; writes results/TRACE_*.perfetto.json and results/TIMELINE.json.
  cargo run --release -p bench --bin repro -- trace \
    --problem 16x16x512 --cgs 4 --steps 5 --variant acc_simd.async
  # Schema validation: well-formed trace-event JSON, non-empty tracks,
  # overlap efficiency in [0,1], splits sum to windows, async > sync.
  if command -v python3 >/dev/null 2>&1; then
    python3 scripts/validate_trace.py results
  else
    echo "python3 not found; skipping trace JSON schema validation"
  fi

  step "resilience campaign (repro faults)"
  # Byte-identity under recoverable faults across all Table IV variants,
  # kill + checkpoint-restart reconvergence, harsh-preset degradation.
  # Exits non-zero on any failed proof; writes results/FAULTS.json and
  # results/ckpt/step*.ckpt.
  cargo run --release -p bench --bin repro -- faults --seed 42
  # Schema + invariant validation of the written report.
  if command -v python3 >/dev/null 2>&1; then
    python3 scripts/validate_faults.py results
  else
    echo "python3 not found; skipping faults JSON validation"
  fi

  step "torture campaign (repro torture)"
  # Fixed-seed differential config fuzzing: 200 random-but-valid configs
  # through the full oracle battery (construct/complete/quiesce, telemetry
  # reconciliation, Model-vs-Functional agreement, parallel + SIMD bit
  # identity, checkpoint cadence semantics) plus intentionally-corrupted
  # configs through the typed-rejection oracle. Exits non-zero on any
  # oracle failure; writes results/TORTURE.json with minimized repros.
  cargo run --release -p bench --bin repro -- torture --seed 0 --cases 200
  # Schema + coverage validation of the written report.
  if command -v python3 >/dev/null 2>&1; then
    python3 scripts/validate_torture.py results
  else
    echo "python3 not found; skipping torture JSON validation"
  fi

  step "adaptive-mesh campaign (repro amr)"
  # Two-level adaptive hierarchy over the Burgers front: fixed-vs-adaptive
  # resolution economy, >= 2 mid-run regrids with every recompiled plan
  # re-verified (zero findings), byte identity across execution policies,
  # checkpoint-restart across a regrid boundary, and telemetry-driven
  # rebalancing with a measured makespan gain. Exits non-zero on any
  # failed proof; writes results/AMR.json and results/amr-ckpt/*.ckpt.
  cargo run --release -p bench --bin repro -- amr --seed 42
  # Schema + invariant validation of the written report.
  if command -v python3 >/dev/null 2>&1; then
    python3 scripts/validate_amr.py results
  else
    echo "python3 not found; skipping amr JSON validation"
  fi

  step "strong-scaling sweep (repro scale --quick)"
  # Serial vs conservative-PDES engine on the paper problem at 1/4/16 CGs:
  # every cell asserts bit identity between the engines; exits non-zero on
  # divergence; writes results/BENCH_scale.json. (The full paper axis plus
  # the 256-CG extension runs via `repro scale`; `--full` pushes to 1024.)
  cargo run --release -p bench --bin repro -- scale --quick
  # Schema, strong-scaling shape, overlap advantage, honest host reporting.
  if command -v python3 >/dev/null 2>&1; then
    python3 scripts/validate_scale.py results
  else
    echo "python3 not found; skipping scale JSON validation"
  fi

  step "concurrency checker (repro check)"
  # Static lookahead-safety proofs over every paper problem (plus the
  # deliberate unsafe-lookahead demo, machine-verified to the picosecond),
  # the vector-clock race detector + static/dynamic differential over
  # instrumented runs, and the DPOR interleaving explorer asserting
  # bit-identical warehouses across forced drain orders. Exits non-zero on
  # any failed check; writes results/CHECK.json.
  cargo run --release -p bench --bin repro -- check
  # Schema + coverage validation: all three analyses ran, zero error
  # findings, >= 50 non-equivalent interleavings explored.
  if command -v python3 >/dev/null 2>&1; then
    python3 scripts/validate_check.py results
  else
    echo "python3 not found; skipping check JSON validation"
  fi
  step "comm-layer sweep (repro comm)"
  # Endpoint counts x aggregation thresholds x eager/rendezvous crossover
  # sizes: every cell byte-identical to the single-endpoint baseline,
  # telemetry reconciled, lookahead proof safe over the coalesced channel
  # models, and the canonical aggregated async overlap >= 0.800. Exits
  # non-zero on any violation; writes results/COMM.json.
  cargo run --release -p bench --bin repro -- comm
  # Schema + invariant validation: full grid present, byte identity and
  # proof safety on every cell, overlap bars held.
  if command -v python3 >/dev/null 2>&1; then
    python3 scripts/validate_comm.py results
  else
    echo "python3 not found; skipping comm JSON validation"
  fi

  step "campaign service (repro serve, deterministic 64-job demo x2 + faulted)"
  # The same seeded 64-job demo campaign three times: cold cache, warm
  # cache (must be 100% hits with the sampling oracle re-verifying bytes),
  # and cold again under the standard worker-fault preset (injected worker
  # deaths must be detected, retried, and recovered without changing a
  # byte). Each serve exits non-zero on any lost/duplicated/failed job,
  # oracle mismatch, or malformed job line; writes results/CAMPAIGN_*.json.
  rm -rf results/cache_ci results/cache_ci_faulted
  cargo run --release -p bench --bin repro -- serve --demo 64 --workers 4 \
    --seed 42 --cache results/cache_ci --out results/CAMPAIGN_run1.json
  cargo run --release -p bench --bin repro -- serve --demo 64 --workers 2 \
    --seed 42 --cache results/cache_ci --out results/CAMPAIGN_run2.json
  cargo run --release -p bench --bin repro -- serve --demo 64 --workers 4 \
    --seed 42 --worker-faults standard --cache results/cache_ci_faulted \
    --out results/CAMPAIGN_faulted.json
  # Cross-run validation: byte-identical record arrays, run-2 hit rate 1.0,
  # exactly-once everywhere, fault counters reconciled.
  if command -v python3 >/dev/null 2>&1; then
    python3 scripts/validate_campaign.py results
  else
    echo "python3 not found; skipping campaign JSON validation"
  fi
fi

# Best-effort: run the unsafe paths under miri when the toolchain
# component is available (it needs a network fetch the first time, so an
# offline box without it skips the stage rather than failing). Covers the
# sw-athread tile write-back path and the uintah-core warehouse
# (var/dw.rs) raw-pointer paths.
step "cargo miri (best effort, sw-athread + warehouse unsafe paths)"
if cargo miri --version >/dev/null 2>&1; then
  MIRIFLAGS="${MIRIFLAGS:-}" cargo miri test -p sw-athread --lib exec:: \
    || { echo "ci.sh: miri FAILED"; exit 1; }
  MIRIFLAGS="${MIRIFLAGS:-}" cargo miri test -p uintah-core --lib var::dw:: \
    || { echo "ci.sh: miri FAILED"; exit 1; }
else
  echo "cargo-miri not installed; skipping (rustup component add miri)"
fi

echo
echo "ci.sh: all green"
