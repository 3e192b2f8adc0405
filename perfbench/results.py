"""Result records of the benchmark: the final line, the result file, and
the comparison of two result sets.

A result file holds one JSON record per run (JSON lines). A record has
the workload, seed, run length, trace flag, the run's stamp (commit,
build type, CPU counts, load, host-speed probes), its correctness and
operation counts, the metrics with units, and the run's diagnostics.
"""

import json
import statistics

RESULT_KEYS = ("correct", "attempted", "failed", "metrics")


def declared_metrics(benchmark, trace):
    """(name, spec) pairs a run must report: end_to_end untraced,
    per_layer traced, in BENCHMARK.json order."""
    specs = benchmark["per_layer"] if trace else benchmark["end_to_end"]
    return [(spec["name"], spec) for spec in specs]


def final_line(report, benchmark, trace):
    """The one-line JSON result: exactly RESULT_KEYS, metrics in declared
    order. Raises ValueError when the report misses a declared metric or
    has one that is not declared."""
    reported = report["metrics"]
    names = [name for name, _ in declared_metrics(benchmark, trace)]
    missing = [n for n in names if n not in reported]
    extra = [n for n in reported if n not in names]
    if missing or extra:
        raise ValueError("metrics differ from BENCHMARK.json: missing %s, "
                         "undeclared %s" % (missing, extra))
    result = {
        "correct": bool(report["correct"]) and report["failed"] == 0,
        "attempted": int(report["attempted"]),
        "failed": int(report["failed"]),
        "metrics": {n: {"value": reported[n]["value"],
                        "unit": reported[n]["unit"]} for n in names},
    }
    return json.dumps(result)


def write_record(path, record):
    """Appends one run record to a result file."""
    with open(path, "a", encoding="utf-8") as out:
        out.write(json.dumps(record, sort_keys=True) + "\n")


def read_records(path):
    """All run records of a result file, in file order."""
    records = []
    with open(path, encoding="utf-8") as src:
        for line in src:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them;
    a single value is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values):
    """Distance between the quartiles as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else float("inf")


def worsening(old, new, better):
    """How much worse `new` is than `old`, as a share of `old` (negative
    when it is better)."""
    if old == 0:
        return 0.0 if new == old else float("inf")
    change = (new - old) / abs(old)
    return change if better == "lower" else -change


def verdict(old_values, new_values, spec):
    """Classifies one metric of one workload: "regression" when the new
    median is worse than the old by more than the bound; "unresolved" when
    either side's quartile spread exceeds the bound (unless every new run
    beats every old run, or loses to every old run beyond the bound);
    otherwise "ok"."""
    bound = spec["bound"]
    better = spec["better"]
    old_median = quartiles(old_values)[1]
    new_median = quartiles(new_values)[1]
    worse = worsening(old_median, new_median, better)
    noisy = max(spread(old_values), spread(new_values)) > bound
    if better == "lower":
        all_better = max(new_values) < min(old_values)
        all_worse = min(new_values) > max(old_values)
    else:
        all_better = min(new_values) > max(old_values)
        all_worse = max(new_values) < min(old_values)
    if worse > bound and (not noisy or all_worse):
        return "regression"
    if noisy and not all_better:
        return "unresolved"
    return "ok"


def group(records, trace):
    """{workload: {metric: [values]}} over the records with that trace
    flag."""
    out = {}
    for record in records:
        if int(record.get("trace", 0)) != int(trace):
            continue
        per_metric = out.setdefault(record["workload"], {})
        for name, metric in record["metrics"].items():
            per_metric.setdefault(name, []).append(metric["value"])
    return out


def compare(old_records, new_records, benchmark):
    """Rows (workload, metric, unit, old quartiles, new quartiles, change,
    verdict) for every end-to-end metric both sets measured."""
    old = group(old_records, 0)
    new = group(new_records, 0)
    rows = []
    for workload in sorted(set(old) & set(new)):
        for name, spec in declared_metrics(benchmark, False):
            if name not in old[workload] or name not in new[workload]:
                continue
            old_values = old[workload][name]
            new_values = new[workload][name]
            rows.append({
                "workload": workload,
                "metric": name,
                "unit": spec["unit"],
                "old": quartiles(old_values),
                "new": quartiles(new_values),
                "runs": (len(old_values), len(new_values)),
                "worse": worsening(quartiles(old_values)[1],
                                   quartiles(new_values)[1], spec["better"]),
                "bound": spec["bound"],
                "verdict": verdict(old_values, new_values, spec),
            })
    return rows


def format_compare(rows):
    lines = ["%-12s %-16s %-6s %32s %32s %8s %6s  %s" % (
        "workload", "metric", "unit", "old q1/median/q3", "new q1/median/q3",
        "worse", "bound", "verdict")]
    for r in rows:
        lines.append("%-12s %-16s %-6s %32s %32s %7.1f%% %5.0f%%  %s" % (
            r["workload"], r["metric"], r["unit"],
            "%.4g / %.4g / %.4g" % r["old"], "%.4g / %.4g / %.4g" % r["new"],
            100 * r["worse"], 100 * r["bound"], r["verdict"]))
    return "\n".join(lines)
