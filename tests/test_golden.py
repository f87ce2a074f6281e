"""Golden equivalence gate: the current tree against the recorded file.

``tests/golden/geocd_golden.json`` holds, for 212 fixed seeds, the digests
of the graph, the hop records and the ``evaluate`` fields, every error text,
and the loss and gradient values; and for 19 fixed fits, the digests of the
trace, the final points and the ``final`` dict (see
``tests/golden/generate.py``). A change that moves none of them passes
unchanged; one that means to move a value re-records the file and says
which digests moved and why.
"""

import json
import re

import numpy as np
import pytest

from geocd import distances, geodesic
from golden import digests
from golden.generate import (
    FIT_GRID,
    FIT_SEEDS,
    GOLDEN,
    SEEDS,
    fit_instance,
    fit_record,
    instance,
    record,
)
from conftest import record_search

REL_TOL = 1e-12  # loss and gradients pass through np.exp / np.log


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_numpy_version(golden):
    assert golden["numpy"] == np.__version__, (
        f"the golden file was recorded with numpy {golden['numpy']}, this run has "
        f"numpy {np.__version__}; the digests pin numpy's exact arithmetic, so check "
        "the tree against its parent and re-record with tests/golden/generate.py"
    )


def test_golden_outputs_unchanged(golden):
    assert [r["seed"] for r in golden["instances"]] == list(SEEDS)
    problems = []
    for want in golden["instances"]:
        got = record(want["seed"])
        moved = []
        for key in ("evaluate", "evaluate_error", "graph", "hops", "error"):
            if got.get(key) != want.get(key):
                moved.append(f"{key}: {want.get(key)!r} -> {got.get(key)!r}")
        if ("loss" in got) != ("loss" in want):
            moved.append("loss: present in one record only")
        elif "loss" in want:
            if abs(got["loss"] - want["loss"]) > REL_TOL * abs(want["loss"]):
                moved.append(f"loss: {want['loss']!r} -> {got['loss']!r}")
            for key in ("grad_pred", "grad_gt"):
                # [2-norm, projection]: both within REL_TOL of the norm
                tol = REL_TOL * want[key][0]
                if any(abs(g - w) > tol for g, w in zip(got[key], want[key])):
                    moved.append(f"{key}: {want[key]} -> {got[key]}")
        if moved:
            problems.append(f"seed {want['seed']} {instance(want['seed'])[0]}: " + "; ".join(moved))
    assert not problems, f"{len(problems)} golden instances moved:\n" + "\n".join(problems)


def test_golden_fits_unchanged(golden):
    assert [r["seed"] for r in golden["fits"]] == list(FIT_SEEDS)
    problems = []
    for want in golden["fits"]:
        got = fit_record(want["seed"])
        moved = [f"{key}: {want[key]!r} -> {got[key]!r}" for key in want if got[key] != want[key]]
        if moved:
            spec = fit_instance(want["seed"])[0]
            problems.append(f"fit {want['seed']} {spec}: " + "; ".join(moved))
    assert not problems, f"{len(problems)} golden fits moved:\n" + "\n".join(problems)


def test_golden_fit_18_searches_tracked_rows_on_the_grid(monkeypatch):
    # both trackers search a part of their rows on the grid in fit 18, so the
    # gate above pins the grid's answers for tracked rows. Every search of a
    # fit is a tracker's, so each grid belongs to the last search begun.
    calls, grids, real_grid = record_search(monkeypatch), [], distances._grid
    monkeypatch.setattr(distances, "_grid", lambda *a: grids.append(calls[-1]) or real_grid(*a))
    fit_record(FIT_GRID)
    # a start searches the whole set, the first search of each kind
    whole = {kind: rows.size for kind, rows in reversed(calls)}
    assert {kind for kind, rows in grids if rows.size < whole[kind]} == {"graph", "nearest"}


def test_digests_smoke():
    # a few seeds of every family, a set of each table kind, and every xyz
    # file; the full run compares two trees (see digests.py)
    seeds = {"fit": [0], "table": range(len(digests.TABLE_KINDS)), "xyz": digests.XYZ_SEEDS}
    span, got = geodesic.SPAN, {}
    for family in digests.FAMILIES:
        picked = seeds.get(family, [0, 1, 2, 3, 200])  # each pair kind, and a surface
        got[family] = digests.lines(family, picked)
        assert [line.split()[:2] for line in got[family]] == [[family, str(s)] for s in picked]
        assert all(re.fullmatch("[0-9a-f]{64}", line.split()[2]) for line in got[family])
    assert geodesic.SPAN == span  # restored
    # ranges of one row each give the same records
    assert [line.split()[2] for line in got["records-span"]] == [
        line.split()[2] for line in got["records"]
    ]
    assert digests.lines("fit", [0]) == got["fit"]
