#!/bin/sh
# Regenerates every table and figure of the paper's evaluation in one process
# (or the named ones: ./run_all_figures.sh [--smoke] [NAME ...]).
# Outputs land in results/*.json; human-readable tables go to stdout.
exec cargo run -p osml-bench --release --bin figures -- "$@"
