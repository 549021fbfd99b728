"""Compare two sets of benchmark runs against the bounds in BENCHMARK.json.

Usage, from the root of a checkout::

    python3 servebench/gate.py compare BASE NEW
    python3 servebench/gate.py selftest BASE NEW

``BASE`` and ``NEW`` are ``records.jsonl`` files written by ``run.py``
(``--out``), or saved run logs holding its ``servebench-record`` lines.

``compare`` reports, per workload and end-to-end metric, both medians,
the change in the metric's worse direction as a share of the base
median, and each set's spread (the distance between the first and third
quartiles over its median).  A metric regresses when the change exceeds
its ``bound``; a set is unsteady when a spread other than ``setup_s``'s
exceeds the bound.  It refuses to compare sets whose input fingerprints
or environment differ: the same seed must give the same streams, every
run must see the same dataset, and ``nproc``, the Python and NumPy
versions and the server configuration must agree.

``selftest`` checks that the gate works on real data: the two sets must
agree within every bound, and a synthetic 1.5x slowdown of any single
end-to-end metric of ``NEW`` (a 1.5x larger value where lower is
better, a 1.5x smaller one where higher is better) must be flagged.

Exit codes: 0 pass, 1 regression / unsteady set / failed self-test,
2 refused (fingerprints or environment differ, or no data).
"""

from __future__ import annotations

import argparse
import copy
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RECORD_PREFIX = "servebench-record "
SLOWDOWN = 1.5


class Refused(Exception):
    """The two sets were not measured on the same inputs and host."""


def load_records(path: Path) -> list[dict]:
    records = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line.startswith(RECORD_PREFIX):
                line = line[len(RECORD_PREFIX):]
            if line.startswith("{") and '"fingerprint"' in line:
                records.append(json.loads(line))
    return [record for record in records if record["trace"] == 0]


def load_spec(root: Path = ROOT) -> dict:
    with open(root / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def check_comparable(base: list[dict], new: list[dict]) -> None:
    """Raise :class:`Refused` unless both sets share inputs and host."""
    if not base or not new:
        raise Refused("a run set holds no end-to-end records")
    for workload in {record["workload"] for record in base + new}:
        stamps = {json.dumps(_stamp(record), sort_keys=True)
                  for record in base + new if record["workload"] == workload}
        if len(stamps) != 1:
            raise Refused(f"{workload} runs differ in dataset, environment "
                          f"or server configuration: "
                          + " | ".join(sorted(stamps)))
    by_seed: dict[tuple, str] = {}
    for record in base + new:
        key = (record["workload"], record["seed"], record["seconds"])
        streams = json.dumps(
            {name: value for name, value in record["fingerprint"].items()
             if name != "dataset"}, sort_keys=True)
        if by_seed.setdefault(key, streams) != streams:
            raise Refused(f"{key[0]} seed {key[1]} produced different "
                          f"request streams in the two sets")


def _stamp(record: dict) -> dict:
    env = record["environment"]
    return {"dataset": record["fingerprint"]["dataset"],
            "nproc": env["nproc"], "python": env["python"],
            "numpy": env["numpy"], "server": env["server"],
            "seconds": record["seconds"],
            "open_loop_qps": record["open_loop_qps"]}


def spread(values: list[float]) -> float:
    """Interquartile distance over the median (0.0 for < 2 values)."""
    if len(values) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else float("inf")


def _values(records: list[dict], workload: str, metric: str) -> list[float]:
    return [record["result"]["metrics"][metric]["value"]
            for record in records if record["workload"] == workload]


def compare(base: list[dict], new: list[dict], spec: dict) -> list[dict]:
    """One row per workload and end-to-end metric (see module doc)."""
    check_comparable(base, new)
    rows = []
    workloads = sorted({record["workload"] for record in base}
                       & {record["workload"] for record in new})
    for workload in workloads:
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            old_v = _values(base, workload, name)
            new_v = _values(new, workload, name)
            old_m, new_m = statistics.median(old_v), statistics.median(new_v)
            delta = (new_m - old_m) / old_m if old_m else 0.0
            worse = delta if metric["better"] == "lower" else -delta
            spreads = (spread(old_v), spread(new_v))
            rows.append({
                "workload": workload, "metric": name, "bound": bound,
                "base_median": old_m, "new_median": new_m,
                "worse_by": worse, "spreads": spreads,
                "runs": (len(old_v), len(new_v)),
                "regressed": worse > bound,
                "unsteady": name != "setup_s" and max(spreads) > bound,
            })
    return rows


def slowed(records: list[dict], metric: dict) -> list[dict]:
    """A copy of ``records`` with ``metric`` made 1.5x worse."""
    out = copy.deepcopy(records)
    for record in out:
        entry = record["result"]["metrics"][metric["name"]]
        if metric["better"] == "lower":
            entry["value"] *= SLOWDOWN
        else:
            entry["value"] /= SLOWDOWN
    return out


def selftest(base: list[dict], new: list[dict], spec: dict) -> list[str]:
    """Problems found; empty when the gate behaves as documented."""
    problems = [f"{row['workload']} {row['metric']}: same code judged "
                f"{'regressed' if row['regressed'] else 'unsteady'} "
                f"(worse by {row['worse_by']:+.3f}, spreads "
                f"{row['spreads'][0]:.3f}/{row['spreads'][1]:.3f}, "
                f"bound {row['bound']})"
                for row in compare(base, new, spec)
                if row["regressed"] or row["unsteady"]]
    for metric in spec["end_to_end"]:
        for row in compare(base, slowed(new, metric), spec):
            if row["metric"] == metric["name"] and not row["regressed"]:
                problems.append(f"{row['workload']} {metric['name']}: a "
                                f"{SLOWDOWN}x slowdown was not flagged")
    return problems


def _print_rows(rows: list[dict]) -> None:
    print(f"{'workload':14s} {'metric':15s} {'base':>11s} {'new':>11s} "
          f"{'worse_by':>9s} {'bound':>6s} {'spread b/n':>13s}  verdict")
    for row in rows:
        verdict = ("REGRESSED" if row["regressed"]
                   else "unsteady" if row["unsteady"] else "ok")
        print(f"{row['workload']:14s} {row['metric']:15s} "
              f"{row['base_median']:11.4f} {row['new_median']:11.4f} "
              f"{row['worse_by']:+9.3f} {row['bound']:6.2f} "
              f"{row['spreads'][0]:6.3f}/{row['spreads'][1]:6.3f}  "
              f"{verdict}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("compare", "selftest"))
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    spec = load_spec()
    base, new = load_records(args.base), load_records(args.new)
    try:
        rows = compare(base, new, spec)
        _print_rows(rows)
        if args.mode == "compare":
            return int(any(row["regressed"] or row["unsteady"]
                           for row in rows))
        problems = selftest(base, new, spec)
    except Refused as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    for problem in problems:
        print(f"selftest: {problem}")
    print("selftest " + ("FAILED" if problems else "passed"))
    return int(bool(problems))


if __name__ == "__main__":
    sys.exit(main())
