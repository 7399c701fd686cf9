#!/usr/bin/env bash
# Checks of the benchmark package itself: format, lints, unit tests and the
# end-to-end smoke configuration. Run from anywhere; wire it into
# .github/workflows/ci.yml as one step.
set -euo pipefail
cd "$(dirname "$0")"
cargo fmt --check
cargo clippy --release --all-targets --offline -- -D warnings
cargo test --release --offline
cargo run --release --offline --quiet -- run --seed 3 --smoke
