"""Tests of the benchmark itself: every workload runs at its smallest size,
and every check rejects a deliberately wrong answer.

Run from the repository root:  python -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import dataclasses
import json
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import fanocone as fc  # noqa: E402
from fcbench import checks, harness, inputs, oracle, workloads  # noqa: E402


# ---------------------------------------------------------------------------
# every workload at one round
# ---------------------------------------------------------------------------


# items per round of which at most one asks about a known fault
KNOWN_FAULT_SHARE = {"pipeline": 57, "queries": 15}


@pytest.mark.parametrize("name", ["pipeline", "queries", "character", "cli"])
def test_one_round_is_correct(name):
    result = harness.run(name, seed=7, seconds=0, trace=False, root=ROOT)
    assert result["correct"], result
    assert result["attempted"] >= 5
    # only items that ask about a known fault may fail
    share = KNOWN_FAULT_SHARE.get(name)
    assert result["failed"] <= (result["attempted"] // share if share else 0)
    assert set(result["metrics"]) == {"setup_s", "items_per_s", "item_ms_p50", "peak_rss_mb"}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_round_reports_every_layer():
    result = harness.run("queries", seed=7, seconds=0, trace=True, root=ROOT)
    metrics = result["metrics"]
    per_layer = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert list(metrics) == [m["name"] for m in per_layer]
    for name in ("volume.vol.calls", "volume.vol.ms", "cli.import_ms", "cli.dispatch_ms", "bench.items"):
        assert metrics[name]["value"] > 0
    # the wrappers are gone again
    assert fc.vol.__module__ == "fanocone.volume" and not hasattr(fc.vol, "__wrapped__")


def test_rounds_have_a_fixed_make_up():
    wl = workloads.Queries(fc, 3, None)
    kinds = [sorted(item.kind for item in wl.round(r)) for r in range(3)]
    assert kinds[0] == kinds[1] == kinds[2]
    assert len(wl.round(5)) == 60 and sum(item.known_fault for item in wl.round(5)) == 4
    wl = workloads.Pipeline(fc, 3, None)
    assert [len(wl.round(r)) for r in range(2)] == [57, 57]
    assert sum(item.known_fault for item in wl.round(2)) == 1


# ---------------------------------------------------------------------------
# the oracle against the package and against scipy
# ---------------------------------------------------------------------------


def sample_cones():
    rng = random.Random(11)
    cones = [inputs.conifold(), inputs.orthant(4), inputs.cross(3), inputs.cube(3), inputs.ypq(3, 2)]
    cones += [inputs.random_cone(rng, rank, tilt=True) for rank in (3, 4, 5)]
    moved = [c.translated(tuple(rng.randint(-2, 2) for _ in range(c.rank - 1))) for c in cones]
    return moved + [c.mapped(*rng.choice(inputs.symmetries(2))) for c in cones]


@pytest.mark.parametrize("cone", sample_cones(), ids=lambda c: c.name)
def test_oracle_agrees_with_package(cone):
    data = workloads.cone_data(fc, cone)
    form = fc.build_volume_form(data)
    assert checks.dual_rays(cone, form.dual_rays) is None
    assert tuple(fc.gorenstein_vector(data)) == cone.gamma
    xi = inputs.interior_point(random.Random(1), cone)
    assert oracle.tri_vol(cone.tri, xi) == fc.vol(form, xi)


@pytest.mark.parametrize("cone", sample_cones(), ids=lambda c: c.name)
def test_triangulation_volume_is_the_hull_volume(cone):
    np = pytest.importorskip("numpy")
    spatial = pytest.importorskip("scipy.spatial")
    xi = [float(x) for x in inputs.interior_point(random.Random(2), cone)]
    pts = [[0.0] * cone.rank] + [[c / oracle.dot(u, xi) for c in u] for u in cone.facets]
    hull = math.factorial(cone.rank) * spatial.ConvexHull(np.array(pts)).volume
    assert abs(oracle.tri_vol(cone.tri, xi) - hull) <= 1e-12 * hull


def test_box_scan_counts_orthant_points():
    cone = inputs.orthant(3)
    # <alpha, (1,1,1) in ray coordinates> <= 4 on the orthant: C(4 + 3, 3) points
    xi = tuple(float(sum(r[k] for r in cone.rays)) for k in range(3))
    assert len(oracle.lattice_pairings(cone.rays, cone.facets, xi, 4.0)) == math.comb(7, 3)


def test_toy_threshold_scan():
    assert oracle.toy_threshold([(0, 0), (1, -5)]) == 6
    assert oracle.toy_threshold([(0, 0), (1, 3)]) == 1


# ---------------------------------------------------------------------------
# each check rejects a wrong answer
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def conifold():
    cone = inputs.conifold()
    data = workloads.cone_data(fc, cone)
    return cone, data, fc.build_volume_form(data)


def test_vol_off_by_1e6_is_rejected(conifold):
    cone, data, form = conifold
    xi = (1.25, 2.0, 4.5)
    v = fc.vol(form, xi)
    assert checks.vol_value(cone, xi, v, normalized=False) is None
    assert checks.vol_value(cone, xi, v * (1 + 1e-6), normalized=False)
    exact = (Fraction(5, 4), Fraction(2), Fraction(9, 2))
    hv = fc.normalized_volume(data, form, exact)
    assert checks.vol_value(cone, exact, hv, normalized=True) is None
    assert checks.vol_value(cone, exact, hv * (1 + Fraction(1, 10**6)), normalized=True)
    assert checks.scaling(fc, data, form, exact, hv * (1 + Fraction(1, 10**6)))


def test_dropped_dual_ray_is_rejected(conifold):
    cone, _, form = conifold
    assert checks.dual_rays(cone, form.dual_rays) is None
    assert checks.dual_rays(cone, form.dual_rays[1:])


def test_flipped_verdicts_are_rejected(conifold):
    cone, data, form = conifold
    at_min = fc.is_ksemistable(data, cone.minimizer, form=form)
    assert checks.verdict(cone, cone.minimizer, at_min) is None
    flipped = dataclasses.replace(at_min, semistable=False, witness=(1.0, -1.0, 0.0))
    assert checks.verdict(cone, cone.minimizer, flipped)

    xi0 = (Fraction(1), Fraction(2), Fraction(3))
    away = fc.is_ksemistable(data, xi0, form=form)
    assert checks.verdict(cone, xi0, away) is None
    assert checks.verdict(cone, xi0, dataclasses.replace(away, semistable=True, witness=None))
    backwards = tuple(-w for w in away.witness)
    assert checks.verdict(cone, xi0, dataclasses.replace(away, witness=backwards))


def test_near_miss_needs_no():
    cone = inputs.conifold()
    near = (cone.minimizer[0] + Fraction(1, 10**7),) + cone.minimizer[1:]
    assert checks.expected_semistable(cone, cone.minimizer)
    assert not checks.expected_semistable(cone, near)
    # close to the irrational minimizer of Y^{5,4}, on its line of symmetry
    assert not checks.expected_semistable(inputs.ypq(5, 4), (Fraction(47, 3), Fraction(47, 3), Fraction(97, 12)))


def test_wrong_minimum_and_futaki_are_rejected(conifold):
    cone, data, form = conifold
    res = fc.minimize_volume(data, form)
    assert checks.minimum(cone, res) is None
    assert checks.minimum(cone, dataclasses.replace(res, min_hvol=res.min_hvol * (1 + 1e-6)))
    assert checks.minimum(cone, dataclasses.replace(res, certificate="max-iters"))
    xi, eta = (1.0, 2.0, 3.5), (1, 0, -1)
    fut = fc.futaki(data, form, xi0=xi, eta=eta).fut
    assert checks.futaki_value(cone, xi, eta, fut) is None
    assert checks.futaki_value(cone, xi, eta, fut + 1e-6 * max(1.0, abs(fut)))


def test_wrong_character_values_are_rejected():
    cone = inputs.random_cone(random.Random(5), 3)
    data = workloads.cone_data(fc, cone)
    xi = tuple(2.0 * float(x) for x in inputs.interior_point(random.Random(6), cone))
    sample = fc.sample_character(data, xi)
    pairings = oracle.lattice_pairings(cone.rays, cone.facets, xi, sample.truncation_bound)
    args = (pairings, sample.t_values)
    assert checks.character_values(*args, sample.F_values, sample.truncation_bound) is None
    wrong = [f * (1 + 1e-6) for f in sample.F_values]
    assert checks.character_values(*args, wrong, sample.truncation_bound)
    assert checks.leading(cone, xi, sample.a0_estimate) is None
    assert checks.leading(cone, xi, sample.a0_estimate * 1.01)
