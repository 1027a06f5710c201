import os
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    # expose the call-phase outcome so the acceptance suite can print
    # one PASS/FAIL line per criterion
    outcome = yield
    rep = outcome.get_result()
    setattr(item, f"rep_{rep.when}", rep)

from netcent import DirectedGraph, from_edges
from netcent.rng import stream


def random_edge_list(n, m, seed):
    """Raw (src, dst) id pairs: no self-loops, no duplicates."""
    rng = stream(seed)
    src = rng.integers(0, n, size=m)
    dst = rng.integers(0, n, size=m)
    keep = src != dst
    pairs = {(int(s), int(d)) for s, d in zip(src[keep], dst[keep])}
    return sorted(pairs)


def graph_from_ids(n, edges, direction="info_flow"):
    """Graph over ids 0..n-1 using zero-padded labels so ids match ranks."""
    width = len(str(max(n - 1, 1)))
    labels = [f"{i:0{width}d}" for i in range(n)]
    return DirectedGraph(labels, [s for s, _ in edges], [d for _, d in edges],
                         np.ones(len(edges)), direction=direction)


def random_graph(n, m, seed, direction="info_flow"):
    edges = random_edge_list(n, m, seed)
    return graph_from_ids(n, edges, direction), edges


def strongly_connected_graph(n, extra, seed):
    """Cycle through all nodes plus random extra edges: strongly connected."""
    edges = {(i, (i + 1) % n) for i in range(n)}
    rng = stream(seed)
    while len(edges) < n + extra:
        s, d = int(rng.integers(0, n)), int(rng.integers(0, n))
        if s != d:
            edges.add((s, d))
    edges = sorted(edges)
    return graph_from_ids(n, edges), edges


@pytest.fixture
def path_abc():
    return from_edges([("a", "b"), ("b", "c")])


@pytest.fixture
def cycle_abc():
    return from_edges([("a", "b"), ("b", "c"), ("c", "a")])


def use_cpus(monkeypatch, cpus):
    """Make ``cpus`` CPUs usable to the traversals on any machine."""
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(cpus)))


@pytest.fixture
def forks(monkeypatch):
    """Give the traversals two usable CPUs on any machine, so a source
    loop forks two workers, and count the forks: the list of worker pids."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        pytest.skip("traversals run in one process on this platform")
    use_cpus(monkeypatch, 2)
    forked = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return forked


def assert_no_child_left():
    """This process has no child process, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
