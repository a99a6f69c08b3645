#!/usr/bin/env bash
# The script a CI job calls: build the benchmark, run it at --smoke sizes,
# hold BENCHMARK.json against the names and units it prints, then run the
# full ledger twice with one seed and fail unless every end-to-end metric
# agrees within its bound and every count and digest is identical.
#
#   benchmark/check.sh [seed]
set -euo pipefail
cd "$(dirname "$0")/.."
SEED="${1:-1}"
cargo build --release --offline --manifest-path benchmark/Cargo.toml
cargo test --release --offline --quiet --manifest-path benchmark/Cargo.toml
exec python3 - "$SEED" <<'PY'
import json, re, subprocess, sys

seed = sys.argv[1]
manifest = json.load(open("BENCHMARK.json"))
workloads = [w["name"] for w in manifest["workloads"]]

def run(workload, trace, *extra):
    cmd = manifest["command"] + ["--workload", workload, "--seed", seed, "--trace", str(trace), *extra]
    out = subprocess.run(cmd, capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {out.returncode}\n{out.stdout}{out.stderr}")
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, lines[-1]
    digest = next(l.strip() for l in lines if l.strip().startswith("digest "))
    return result["metrics"], digest

def check_names(metrics, listed, where):
    want = {m["name"]: m["unit"] for m in listed}
    got = {name: m["unit"] for name, m in metrics.items()}
    assert got == want, f"{where}: printed {sorted(set(got) ^ set(want))} differ from BENCHMARK.json"
    for name in got:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name

print("== smoke: names and units against BENCHMARK.json")
for w in workloads:
    check_names(run(w, 0, "--smoke")[0], manifest["end_to_end"], f"{w} --trace 0")
    check_names(run(w, 1, "--smoke")[0], manifest["per_layer"], f"{w} --trace 1")

# Counts repeat exactly for a seed; times and shares of time do not.
exact_units = {"count", "B"}
exact_names = {"failed_ops_share", "core.false_suspicion_share"} | {
    m["name"] for m in manifest["per_layer"] if m["name"].startswith("platform.envelopes_")
}
failures = []
seconds = ["--seconds", str(manifest["run_seconds"])]
for w in workloads:
    print(f"== full: {w}, twice, seed {seed}")
    (a, digest_a), (b, digest_b) = run(w, 0, *seconds), run(w, 0, *seconds)
    if digest_a != digest_b:
        failures.append(f"{w}: digest/counts differ between runs:\n  {digest_a}\n  {digest_b}")
    for m in manifest["end_to_end"]:
        x, y = a[m["name"]]["value"], b[m["name"]]["value"]
        gap = abs(x - y) / min(x, y)
        verdict = "ok" if gap <= m["bound"] else "OUT OF BOUND"
        print(f"  {m['name']:<14} {x:>14.3f} {y:>14.3f} {m['unit']:<4} gap {gap*100:5.2f} % (bound {m['bound']*100:.0f} %) {verdict}")
        if gap > m["bound"]:
            failures.append(f"{w}: {m['name']} {x} vs {y} differ by more than {m['bound']}")
    (ta, tdigest_a), (tb, tdigest_b) = run(w, 1), run(w, 1)
    if not (tdigest_a == tdigest_b == digest_a):
        failures.append(f"{w}: the traced run's digest/counts differ from the plain run's")
    for m in manifest["per_layer"]:
        if m["unit"] in exact_units or m["name"] in exact_names:
            x, y = ta[m["name"]]["value"], tb[m["name"]]["value"]
            if x != y:
                failures.append(f"{w}: count {m['name']} {x} vs {y}")
if failures:
    sys.exit("FAILED\n" + "\n".join(failures))
print("ok: every end-to-end metric within its bound, every count and digest identical")
PY
