import numpy as np
import pytest

from geocd import PointCloud, distances, graph, normalize_pair, verify
from geocd.distances import _across


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_cloud(rng, n):
    return PointCloud(rng.random((n, 3)))


def random_normalized_pair(rng, n, m):
    pred = random_cloud(rng, n)
    gt = random_cloud(rng, m)
    pred_n, gt_n, _ = normalize_pair(pred, gt)
    return pred_n, gt_n


def fault_the_reference(monkeypatch):
    """Make verify's reference walks 1e-6 too long at entry [0, -1]."""
    exact = verify.hop_bounded_shortest_paths

    def faulty(adj, n_hops):
        ref = exact(adj, n_hops)
        ref[0, -1] += 1e-6
        return ref

    monkeypatch.setattr(verify, "hop_bounded_shortest_paths", faulty)


def record_nearest(monkeypatch):
    """The (rows, targets) that the graph read hands to the one search, per
    cloud whose rows it searches: the first cloud's, then the second's."""
    calls = []

    def recorded(pts, k, rows, split):
        below = int(np.count_nonzero(rows < split))
        sides = ((below, len(pts) - split), (rows.size - below, split))
        calls.extend(side for side in sides if side[0])
        return _across(pts, k, rows, split)

    monkeypatch.setattr(graph, "_across", recorded)
    return calls


def record_search(monkeypatch):
    """The rows that each tracker hands to ``CandidateLists.search``, one
    ``(kind, rows)`` per search in call order, kind "nearest" or "graph"."""
    calls = []
    search = distances.CandidateLists.search

    def recorded(lists, rows, zt, moved):
        calls.append(("graph" if lists.split is None else "nearest", rows.copy()))
        return search(lists, rows, zt, moved)

    monkeypatch.setattr(distances.CandidateLists, "search", recorded)
    return calls
