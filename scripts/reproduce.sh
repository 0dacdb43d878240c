#!/usr/bin/env bash
# Regenerates results_full.txt: every table and figure of the paper's
# evaluation at scale 256, the run EXPERIMENTS.md quotes. It then prints
# how the new file differs from the committed one, so a change that
# moves a result shows up as a diff. It takes several minutes (about
# 3.6 on a 2-CPU host), so it is not part of `go test ./...`.
#
# Usage: scripts/reproduce.sh    (from any directory of the repository)
set -euo pipefail
cd "$(dirname "$0")/.."

start=$(date +%s)
go run ./cmd/experiments -exp all -scale 256 > results_full.txt
echo "reproduction took $(($(date +%s) - start)) s" >&2
git diff --stat -- results_full.txt
