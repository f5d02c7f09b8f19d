#!/usr/bin/env bash
# Performance trajectory across the PR sequence: micro-kernels and the
# end-to-end benchmark.
#
#   scripts/bench_trajectory.sh            # every kernel and end-to-end row
#   scripts/bench_trajectory.sh matched    # only rows whose name matches
#
# Merges every BENCH_pr*.json at the repo root into two tables, each
# column a PR that measured the row:
#
# - kernels: each row a benchmark (suite/name), each cell the PR's
#   "after" median;
# - end to end: each row a workload/metric of BENCHMARK.json, each cell
#   the change side's median from the PR's "end_to_end" block. Two
#   layouts are read: {workload: {metric: [parent, change]}} and
#   {"workloads": {workload: {metric: {"change_median_q1_q3": [...]}}}}.
#
# A row therefore reads as its optimisation history — PR-to-PR cells
# were measured on different days of a shared host, so read them as a
# trajectory, not a ledger (the per-PR files' "method"/"note" fields
# state each measurement's conditions). Needs python3 (stdlib only).
set -euo pipefail
cd "$(dirname "$0")/.."

FILTER="${1:-}"

python3 - "$FILTER" <<'EOF'
import glob, json, re, sys

flt = sys.argv[1].lower() if len(sys.argv) > 1 else ""

def fmt_ns(ns):
    if ns is None:
        return "-"
    if ns < 1e3:
        return f"{ns:.0f}ns"
    if ns < 1e6:
        return f"{ns/1e3:.1f}us"
    if ns < 1e9:
        return f"{ns/1e6:.2f}ms"
    return f"{ns/1e9:.2f}s"

files = sorted(glob.glob("BENCH_pr*.json"),
               key=lambda p: int(re.search(r"pr(\d+)", p).group(1)))
if not files:
    sys.exit("no BENCH_pr*.json files at the repo root")

prs = []            # [(pr_number, title)]
rows = {}           # (suite, name) -> {pr_number: median_ns}
for path in files:
    with open(path) as f:
        doc = json.load(f)
    pr = doc["pr"]
    prs.append((pr, doc.get("title", "")))
    for suite, entries in doc.get("suites", {}).items():
        for e in entries:
            after = e.get("after") or {}
            median = after.get("median_ns")
            if median is None:
                continue
            rows.setdefault((suite, e["name"]), {})[pr] = median

with open("BENCHMARK.json") as f:
    spec = json.load(f)
workloads = [w["name"] for w in spec["workloads"]]
metric_order = [m["name"] for m in spec["end_to_end"]]

e2e = {}            # (workload, metric) -> {pr_number: change median}
for path in files:
    with open(path) as f:
        doc = json.load(f)
    block = doc.get("end_to_end") or {}
    per_workload = block.get("workloads", block)
    for wl in workloads:
        for metric, cell in (per_workload.get(wl) or {}).items():
            if isinstance(cell, dict):
                value = (cell.get("change_median_q1_q3") or [None])[0]
            elif isinstance(cell, list) and len(cell) == 2:
                value = cell[1]
            else:
                continue
            if isinstance(value, (int, float)):
                e2e.setdefault((wl, metric), {})[doc["pr"]] = value

def table(title, rows, fmt, order):
    keys = sorted((k for k in rows if not flt or flt in f"{k[0]}/{k[1]}".lower()), key=order)
    if not keys:
        return False
    cols = [(p, t) for p, t in prs if any(p in rows[k] for k in keys)]
    name_w = max(len(f"{s}/{n}") for s, n in keys)
    header = title.ljust(name_w) + "".join(f"  {'pr' + str(p):>10}" for p, _ in cols)
    print(header)
    print("-" * len(header))
    for key in keys:
        cells = rows[key]
        line = f"{key[0]}/{key[1]}".ljust(name_w)
        for p, _ in cols:
            line += f"  {fmt(cells.get(p)):>10}"
        # Trajectory summary: first measured -> last measured.
        measured = [cells[p] for p, _ in cols if p in cells]
        if len(measured) >= 2 and measured[-1] > 0:
            line += f"   ({measured[0] / measured[-1]:.2f}x)"
        print(line)
    print()
    return True

def fmt_value(v):
    return "-" if v is None else f"{v:.4g}"

def e2e_order(key):
    wl, metric = key
    rank = metric_order.index(metric) if metric in metric_order else len(metric_order)
    return (workloads.index(wl), rank, metric)

shown = table("kernel", rows, fmt_ns, lambda k: k)
if shown:
    print("kernel columns: per-PR 'after' medians; (Nx) = first/last ratio")
    print()
shown_e2e = table("end to end", e2e, fmt_value, e2e_order)
if shown_e2e:
    print("end-to-end columns: per-PR change-side medians in each metric's unit")
    print("(BENCHMARK.json); (Nx) = first/last ratio, so > 1 is better for")
    print("lower-is-better metrics and worse for higher-is-better ones")
    print()
if not (shown or shown_e2e):
    sys.exit(f"no benchmarks match filter {flt!r}")
for p, title in prs:
    print(f"  pr{p}: {title}")
EOF
