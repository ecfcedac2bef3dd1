"""Shared trees, oracles and Wasserstein geodesics across threads.

README promises that trees, geodesics, measures, plans and Wasserstein
geodesics are immutable after construction and safe to share across
threads. Four threads share one tree, one ``radon_oracle``, one
``FlagTable`` (whose ``values`` mapping is built afresh on each read) and
one ``WassersteinGeodesic`` (from a Dirac, so evaluation past time 1
walks each atom on); a tiny switch interval makes the interpreter change
threads every few bytecodes, inside every query. The table is a fresh
forward table whose entries no one has read, so the threads race to build
them: each may build its own, and every read must be equal. Each thread's
results must equal the serial ones.
"""

import random
import sys
import threading
from fractions import Fraction as F

from treeradon import (
    FlagTable,
    SuiteConfig,
    WassersteinGeodesic,
    double_count_check,
    enumerate_flags,
    gen_measure,
    gen_tree,
    gen_vertex_function,
    radon_forward,
    radon_invert,
    radon_oracle,
    reconstruct_measure,
)

THREADS = 4
TIMES = (F(0), F(1, 3), F(1), F(3, 2), F(2))


def test_shared_objects_give_serial_results():
    rng = random.Random(30)
    cfg = SuiteConfig(seed=30, max_vertices=10, max_atoms=4, max_denominator=7)
    tree = gen_tree(cfg, "complete", rng)
    hidden = gen_measure(cfg, tree, rng)
    oracle = radon_oracle(tree, hidden)
    geodesic = WassersteinGeodesic.from_dirac(
        tree, tree.vertex_point(tree.vertices[0]), gen_measure(cfg, tree, rng), horizon=2)
    h = gen_vertex_function(cfg, tree, rng)
    plain = FlagTable(tree, radon_forward(tree, h).entries)
    flags = enumerate_flags(tree)

    def run(table):
        # the entries' first readers first, so the threads start by racing
        return (table.entries, hash(table), table == plain, plain == table,
                reconstruct_measure(tree, oracle), [geodesic.at(t) for t in TIMES],
                radon_invert(tree, table, h.total), list(table.values.items()),
                [table.value(flag) for flag in flags], len(table),
                [double_count_check(tree, h, x, table) for x in tree.vertices])

    serial = run(radon_forward(tree, h))
    assert serial[2] and serial[3]
    assert serial[4].measure == hidden
    assert serial[6] == h
    table = radon_forward(tree, h)
    assert "entries" not in vars(table)
    barrier = threading.Barrier(THREADS)
    results, errors = [None] * THREADS, []

    def work(slot):
        try:
            barrier.wait(timeout=60)
            results[slot] = [run(table) for _ in range(3)]
        except Exception as exc:  # reported below, in the test's thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(slot,)) for slot in range(THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert results == [[serial] * 3] * THREADS
