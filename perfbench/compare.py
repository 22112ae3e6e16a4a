"""Compare the benchmark results of a parent commit and of a change.

Usage (from the repository root)::

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

Both files are written by ``perfbench/sweep.py`` with the same seeds and
run length.  For every workload and end-to-end metric it prints each side's
median and quartiles, the pairs (same seed) the change won, and one
verdict, with the bound from ``BENCHMARK.json``:

* ``unresolved`` -- either side's spread (quartile distance over median) is
  wider than the bound, unless every run of the change beats every run of
  the parent;
* ``improved`` -- the change wins at least nine tenths of the pairs (ties
  count for neither) and the medians differ, in the better direction, by
  more than the parent's own quartile distance and by more than a third of
  the bound (two sets of runs of the same code, taken minutes apart on a
  shared host, have won ten pairs of ten with medians 4% apart);
* ``worse`` -- the change's median is worse than the parent's by more than
  the bound;
* ``unchanged`` -- otherwise.

Per-layer metrics (``--trace 1`` results) are listed with both medians and
no verdict; they have no bound.  Exit code 1 when any metric is ``worse``.
"""

from __future__ import annotations

import sys

from sweep import BENCHMARK, load, quartiles, spread


def verdict(parent, change, better: str, bound: float) -> tuple:
    """``(verdict, pairs won, pairs)`` for one metric of one workload.

    ``parent`` and ``change`` are lists of values paired by position."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(parent, change))
    won = sum(1 for old, new in pairs if sign * (new - old) > 0)
    p_q1, p_median, p_q3 = quartiles(parent)
    _c_q1, c_median, _c_q3 = quartiles(change)
    dominates = sign * (min(change, key=lambda v: sign * v) -
                        max(parent, key=lambda v: sign * v)) > 0
    if spread(parent) > bound or spread(change) > bound:
        return ("improved" if dominates else "unresolved"), won, len(pairs)
    if won >= 0.9 * len(pairs) and sign * (c_median - p_median) > \
            max(p_q3 - p_q1, bound / 3.0 * abs(p_median)):
        return "improved", won, len(pairs)
    if sign * (c_median - p_median) < -bound * abs(p_median):
        return "worse", won, len(pairs)
    return "unchanged", won, len(pairs)


def paired(lines, workload):
    return {line["seed"]: line["result"]["metrics"]
            for line in lines if line["workload"] == workload}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    bounds = {metric["name"]: metric for metric in BENCHMARK["end_to_end"]}
    parent_lines, change_lines = load(argv[0]), load(argv[1])
    worse = 0
    workloads = sorted({line["workload"] for line in parent_lines} &
                       {line["workload"] for line in change_lines})
    for workload in workloads:
        old, new = paired(parent_lines, workload), paired(change_lines,
                                                          workload)
        seeds = sorted(set(old) & set(new))
        print(f"{workload} ({len(seeds)} paired seeds)")
        names = sorted(set(old[seeds[0]]) & set(new[seeds[0]]))
        for name in names:
            parent = [old[seed][name]["value"] for seed in seeds]
            change = [new[seed][name]["value"] for seed in seeds]
            p_q1, p_median, p_q3 = quartiles(parent)
            c_q1, c_median, c_q3 = quartiles(change)
            line = (f"  {name:44s} parent {p_median:11.5g} "
                    f"[{p_q1:.5g}, {p_q3:.5g}]  change {c_median:11.5g} "
                    f"[{c_q1:.5g}, {c_q3:.5g}]")
            metric = bounds.get(name)
            if metric is None:
                print(line)
                continue
            result, won, total = verdict(parent, change, metric["better"],
                                         metric["bound"])
            worse += result == "worse"
            print(f"{line}  won {won}/{total}  {result}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
