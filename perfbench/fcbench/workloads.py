"""The four workloads.

A workload hands out rounds of items.  Every round of a workload has the
same make-up: the same kinds of questions in the same numbers, on inputs
drawn from the round's own seeded stream.  An item is one question: a call
that is timed and a check that runs on its answer after the timed region.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from . import checks, oracle
from .inputs import (
    YPQ,
    ConeInput,
    Fresh,
    conifold,
    cross,
    cube,
    direction,
    interior_point,
    orthant,
    polytope5,
    random_cone,
    stalling6,
    symmetries,
    ypq,
)


@dataclass
class Item:
    kind: str
    call: Callable[[], object]
    check: Callable[[object], str | None]
    known_fault: bool = False  # a named fault of the program makes this fail


@dataclass
class Context:
    src: Path  # the package's source directory
    workdir: Path  # working space inside the checkout, removed after the run

    def env(self) -> dict:
        paths = [str(self.src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        return dict(os.environ, PYTHONPATH=os.pathsep.join(paths))


class Workload:
    """``warmup()`` gives the items set-up runs untimed; ``round(r)`` the
    items of round r.  ``subprocesses``: whether the items run in child
    processes, which sets the reference speed and whose memory counts."""

    name = ""
    subprocesses = False


def stream(workload: str, seed: int, tag) -> random.Random:
    return random.Random(f"{workload}:{seed}:{tag}")


def cone_data(fc, cone: ConeInput):
    return fc.ToricConeData.make(cone.rank, cone.rays, list(cone.boundary), label=cone.name)


def first_failure(*thunks) -> str | None:
    for thunk in thunks:
        reason = thunk()
        if reason:
            return reason
    return None


# ---------------------------------------------------------------------------
# pipeline: one question per fresh cone
# ---------------------------------------------------------------------------


class Pipeline(Workload):
    """Per round, 56 fresh cones in four quarters of 14: translates of an
    orthant (rank 3-6, rotating), cross3, cube3, cross4, cube4 and one
    Y^{p,q}, and random polytope cones stratified by rank and facet count.
    The make-up puts about as many items above the rank-4 cones as below
    them, so the median item is one of several of similar cost.  A round
    takes about 4.3 s at the reference speed, so a 15 s run ends after
    four rounds, with a margin of about 13% on either side: a run whose
    end fell near the end of a round would take one round more or less at
    random, and the rounds' cones differ in cost.

    Each round also minimizes once on ``stalling6``, whose form set-up
    builds: ``minimize_volume`` stalls there and ends with max-iters (a
    fault of the program, see CHANGES.md), so that item fails in every
    round.  A stall on any other cone is an unexpected failure."""

    name = "pipeline"
    # (rank, facet-count band, cones per quarter round); every second one tilted
    RANDOM = [(3, (3, 6), 2), (4, (6, 8), 3), (5, (8, 9), 2), (6, (10, 12), 1)]

    def __init__(self, fc, seed: int, ctx: Context) -> None:
        self.fc, self.seed = fc, seed
        self.fresh, self.drawn = Fresh(), Fresh()
        self.fixed = [cross(3), cube(3), cross(4), cube(4)]
        self.orthants = [orthant(n) for n in (3, 4, 5, 6)]
        self.ypq = [ypq(p, q) for p, q in YPQ]
        self.stalling = stalling6()
        data = cone_data(fc, self.stalling)
        self.stalling_form = data, fc.build_volume_form(data)

    def _random(self, rng, rank, band, tilt) -> ConeInput:
        while True:
            cone = random_cone(rng, rank, band, tilt)
            if self.drawn.add(cone):
                return cone

    def warmup(self) -> list[Item]:
        rng = stream(self.name, self.seed, "warmup")
        cones = [self.fresh.translate(rng, c) for c in (self.orthants[0], cube(3), self.ypq[0])]
        return [self.item(c, interior_point(rng, c)) for c in cones]

    def round(self, r: int) -> list[Item]:
        return [item for q in range(4 * r, 4 * r + 4) for item in self.quarter(q)] + [self.stall()]

    def quarter(self, q: int) -> list[Item]:
        rng = stream(self.name, self.seed, q)
        cones = [self.fresh.translate(rng, self.orthants[q % 4])]
        cones += [self.fresh.translate(rng, c) for c in self.fixed]
        cones.append(self.fresh.translate(rng, self.ypq[q % len(self.ypq)]))
        drawing = random.Random(f"pipeline:cones:{q}")  # the same for every seed
        for rank, band, count in self.RANDOM:
            cones += [self._random(drawing, rank, band, (q + i) % 2 == 1) for i in range(count)]
        return [self.item(c, interior_point(rng, c)) for c in cones]

    def stall(self) -> Item:
        data, form = self.stalling_form
        return Item("stalled-minimize", lambda: self.fc.minimize_volume(data, form),
                    lambda res: checks.minimum(self.stalling, res), known_fault=True)

    def item(self, cone: ConeInput, xi) -> Item:
        fc = self.fc

        def call():
            data = cone_data(fc, cone)
            form = fc.build_volume_form(data)
            hv = fc.normalized_volume(data, form, xi)
            res = fc.minimize_volume(data, form)
            return data, form, hv, res, fc.is_ksemistable(data, xi, form=form)

        def check(out):
            data, form, hv, res, verdict = out
            return first_failure(
                lambda: checks.dual_rays(cone, form.dual_rays),
                lambda: checks.vol_value(cone, xi, hv, normalized=True),
                lambda: checks.scaling(fc, data, form, xi, hv),
                lambda: checks.minimum(cone, res),
                lambda: checks.verdict(cone, xi, verdict),
            )

        return Item("pipeline", call, check)


# ---------------------------------------------------------------------------
# queries: many questions on seven cones with forms built in set-up
# ---------------------------------------------------------------------------


class Queries(Workload):
    """Seven cones whose forms are built in set-up: the conifold, orthant4,
    cross3 and cube3, whose minimizers are rational and are where Newton
    starts; cross4, with the largest form; ``polytope5``, a rank-5 cone
    over a fixed lattice polytope, and Y^{p,q}, taking each of seven (p, q)
    in turn, on which Newton iterates.  Per round and cone: an exact hvol,
    three float vols, a Futaki invariant, a minimization and two verdicts
    (at the minimizer and at a seeded xi0); plus the near-miss verdicts on
    the first four."""

    name = "queries"
    NEAR_MISS = Fraction(1, 10**7)

    def __init__(self, fc, seed: int, ctx: Context) -> None:
        self.fc, self.seed = fc, seed
        self.cones = [conifold(), orthant(4), cross(3), cube(3), cross(4), polytope5()]
        self.cones += [ypq(p, q) for p, q in YPQ]
        self.data = [cone_data(fc, c) for c in self.cones]
        self.forms = [fc.build_volume_form(d) for d in self.data]
        self.minimizers = [
            c.minimizer or fc.minimize_volume(d, f).minimizer.coords
            for c, d, f in zip(self.cones, self.data, self.forms)
        ]

    def asked(self, r) -> list[int]:
        """The cones of round r: the first six and one Y^{p,q}."""
        return list(range(6)) + [6 + r % len(YPQ)]

    def warmup(self) -> list[Item]:
        return self.seeded_items(stream(self.name, self.seed, "warmup"), self.asked(0))

    def round(self, r: int) -> list[Item]:
        asked = self.asked(r)
        items = self.seeded_items(stream(self.name, self.seed, r), asked)
        for k in asked:
            items.append(self.minimize(k))
            items.append(self.verdict(k, self.minimizers[k], expect_yes=True))
        for k, cone in enumerate(self.cones[:4]):
            near = (cone.minimizer[0] + self.NEAR_MISS,) + cone.minimizer[1:]
            items.append(self.verdict(k, near, expect_yes=False, known_fault=True))
        return items

    def seeded_items(self, rng, asked) -> list[Item]:
        items = []
        for k in asked:
            cone = self.cones[k]
            items.append(self.hvol(k, interior_point(rng, cone)))
            for _ in range(3):
                items.append(self.vol(k, tuple(float(x) for x in interior_point(rng, cone))))
            xi = tuple(float(x) for x in interior_point(rng, cone))
            items.append(self.futaki(k, xi, direction(rng, cone.rank)))
            items.append(self.verdict(k, interior_point(rng, cone)))
        return items

    def hvol(self, k, xi) -> Item:
        cone, data, form = self.cones[k], self.data[k], self.forms[k]
        return Item("hvol", lambda: self.fc.normalized_volume(data, form, xi),
                    lambda hv: checks.vol_value(cone, xi, hv, normalized=True))

    def vol(self, k, xi) -> Item:
        cone, form = self.cones[k], self.forms[k]
        return Item("vol", lambda: self.fc.vol(form, xi),
                    lambda v: checks.vol_value(cone, xi, v, normalized=False))

    def futaki(self, k, xi, eta) -> Item:
        cone, data, form = self.cones[k], self.data[k], self.forms[k]
        return Item("futaki", lambda: self.fc.futaki(data, form, xi0=xi, eta=eta),
                    lambda rep: checks.futaki_value(cone, xi, eta, rep.fut))

    def minimize(self, k) -> Item:
        cone, data, form = self.cones[k], self.data[k], self.forms[k]
        return Item("minimize", lambda: self.fc.minimize_volume(data, form),
                    lambda res: checks.minimum(cone, res))

    def verdict(self, k, xi0, expect_yes=None, known_fault=False) -> Item:
        cone, data, form = self.cones[k], self.data[k], self.forms[k]
        return Item(
            "near-miss" if known_fault else "ksemistable",
            lambda: self.fc.is_ksemistable(data, xi0, form=form),
            lambda v: checks.verdict(cone, xi0, v, expect_yes),
            known_fault,
        )


# ---------------------------------------------------------------------------
# character: index-character questions on fresh small cones
# ---------------------------------------------------------------------------


def sum_det(cone: ConeInput) -> int:
    return sum(d for d, _ in cone.tri)


class Character(Workload):
    """Per round, six fresh small cones: five of rank 3, one per band of the
    sum of |det| over a triangulation of the dual cone (the one
    :mod:`oracle` builds), and one of rank 4, simplicial, over a lattice
    tetrahedron in [-1, 1]^3 with small dual determinant.  xi is a seeded
    interior point scaled so that about ``POINTS`` lattice points have
    <alpha, xi> <= 56, the truncation that ``sample_character`` uses at
    t = 0.5.

    The cost of a cone varies a lot within a band, so the cones are drawn
    once for all seeds, in groups of six, and each group serves eight rounds
    through the eight signed permutations of the first two coordinates.
    These change the rays (no cache can answer a round from an earlier one)
    but not the size of any integer box, so a round costs about what the
    first round of its group costs, and seeds differ in xi only."""

    name = "character"
    BANDS = [(8, 23), (24, 47), (48, 95), (96, 159), (160, 250)]
    RANK4_DET = (2, 16)
    POINTS = 800
    TRUNCATION = 56.0
    SERIES_BOUND = 72.0  # the series tail past it is below e^{-36} 36^3 / 3! < 2e-12 of the sum
    MAPS = symmetries(2)

    def __init__(self, fc, seed: int, ctx: Context) -> None:
        self.fc, self.seed = fc, seed
        self.groups: dict = {}
        self.used: set = set()

    def claim(self, cone: ConeInput) -> bool:
        """Whether the eight maps give eight cones that no other group has
        used; if so, they are taken."""
        keys = {cone.mapped(*m).key() for m in self.MAPS}
        if len(keys) < len(self.MAPS) or keys & self.used:
            return False
        self.used |= keys
        return True

    def _rank3(self, rng, band) -> ConeInput:
        while True:
            cone = random_cone(rng, 3)
            if band[0] <= sum_det(cone) <= band[1] and self.claim(cone):
                return cone

    def _rank4(self, rng) -> ConeInput:
        while True:
            pts = {tuple(rng.randint(-1, 1) for _ in range(3)) for _ in range(4)}
            if len(pts) < 4:
                continue
            rays = tuple(sorted(p + (1,) for p in pts))
            if oracle.int_det(rays) == 0:
                continue
            facets = oracle.facet_normals(rays)
            cone = ConeInput("simplex4", rays, (Fraction(0),) * 4, (0, 0, 0, Fraction(1)), facets)
            lo, hi = self.RANK4_DET
            if lo <= sum_det(cone) <= hi and self.claim(cone):
                return cone

    def group(self, g) -> list[ConeInput]:
        """The six cones of group g (or of the warm-up)."""
        if g not in self.groups:
            rng = random.Random(f"character:cones:{g}")  # the same cones for every seed
            self.groups[g] = [self._rank3(rng, band) for band in self.BANDS] + [self._rank4(rng)]
        return self.groups[g]

    def warmup(self) -> list[Item]:
        rng = stream(self.name, self.seed, "warmup")
        return [self.item(rng, self.group("warmup")[0])]

    def round(self, r: int) -> list[Item]:
        g, k = divmod(r, len(self.MAPS))
        rng = stream(self.name, self.seed, r)
        return [self.item(rng, cone.mapped(*self.MAPS[k])) for cone in self.group(g)]

    def scaled_xi(self, rng, cone) -> tuple[float, ...]:
        n = cone.rank
        coeffs = [Fraction(rng.randint(4, 8), 4) for _ in cone.rays]
        xi = [sum(c * r[k] for c, r in zip(coeffs, cone.rays)) for k in range(n)]
        target = self.POINTS * math.factorial(n) / self.TRUNCATION**n
        lam = (float(oracle.tri_vol(cone.tri, xi)) / target) ** (1 / n)
        return tuple(float(x) * lam for x in xi)

    def item(self, rng, cone: ConeInput) -> Item:
        fc = self.fc
        xi = self.scaled_xi(rng, cone)

        def call():
            data = cone_data(fc, cone)
            return data, fc.leading_coefficient(data, None, xi), fc.sample_character(data, xi)

        def check(out):
            data, lead, sample = out
            form = fc.build_volume_form(data)
            pairings = oracle.lattice_pairings(cone.rays, cone.facets, xi, self.SERIES_BOUND)
            ts = (1.0, 0.5)
            return first_failure(
                lambda: checks.character_values(pairings, sample.t_values, sample.F_values,
                                                sample.truncation_bound),
                lambda: checks.character_values(
                    pairings, ts, [fc.character_series(form, xi, t) for t in ts], self.SERIES_BOUND),
                lambda: checks.leading(cone, xi, lead.a0),
                lambda: checks.leading(cone, xi, sample.a0_estimate),
            )

        return Item("character", call, check)


# ---------------------------------------------------------------------------
# cli: cold-start runs of every subcommand
# ---------------------------------------------------------------------------


class Cli(Workload):
    """Per round, one cold-start run of each subcommand on inputs written
    into the work directory.  The cones are translates of an orthant (rank
    2-4), the conifold and Y^{p,q}, so every answer has a closed form."""

    name = "cli"
    subprocesses = True

    def __init__(self, fc, seed: int, ctx: Context) -> None:
        self.seed, self.workdir, self.env = seed, ctx.workdir, ctx.env()
        self.fresh = Fresh()
        self.argvs: list[list[str]] = []  # every argv run, for the in-process replay

    # -- running --------------------------------------------------------

    def run(self, argv: list[str]):
        return subprocess.run([sys.executable, "-m", "fanocone", *argv], env=self.env,
                              capture_output=True, text=True, timeout=120)

    def dispatch_ms(self) -> list[float]:
        """In-process time of ``fanocone.cli.dispatch`` for every argv the
        rounds ran; each round's inputs are new to this process's caches."""
        from fanocone.cli import dispatch

        out = []
        for argv in self.argvs:
            with contextlib.redirect_stdout(io.StringIO()):
                t0 = time.perf_counter()
                dispatch(list(argv))
                out.append((time.perf_counter() - t0) * 1e3)
        return out

    def write(self, tag: str, obj) -> str:
        path = self.workdir / f"{tag}.json"
        path.write_text(json.dumps(obj))
        return str(path)

    def item(self, kind: str, argv: list[str], check) -> Item:
        self.argvs.append(argv)

        def checked(proc):
            if proc.returncode != 0:
                return f"{kind}: exit {proc.returncode}: {proc.stdout.strip()[:200]} {proc.stderr.strip()[-200:]}"
            try:
                payload = json.loads(proc.stdout)
            except json.JSONDecodeError:
                return f"{kind}: stdout is not JSON: {proc.stdout[:200]!r}"
            return check(payload["result"])

        return Item(kind, lambda: self.run(argv), checked)

    # -- inputs ---------------------------------------------------------

    def warmup(self) -> list[Item]:
        path = self.write("warmup-lct", {"n": 2, "generators": [[5, 0], [0, 7]]})
        return [self.item("lct", ["lct", "--input", path], lambda res: None)]

    def orthant_at(self, rng, n: int):
        """A translated orthant and a point given by its coordinates x in
        the ray basis (vol = 1/prod x, A = sum x)."""
        cone = self.fresh.translate(rng, orthant(n))
        return cone, lambda x: tuple(sum(a * r[k] for a, r in zip(x, cone.rays)) for k in range(n))

    def round(self, r: int) -> list[Item]:
        rng = stream(self.name, self.seed, r)
        tag = f"r{r}"
        items = []

        # vol, float: 1/prod x
        n = rng.randint(2, 4)
        cone, at = self.orthant_at(rng, n)
        x = [Fraction(rng.randint(4, 16), 4) for _ in range(n)]
        path = self.write(f"{tag}-vol", cone.to_dict())
        arg = ",".join(repr(float(v)) for v in at(x))
        ref = 1 / math.prod(float(v) for v in x)
        items.append(self.item("vol", ["vol", "--input", path, f"--xi0={arg}"],
                               lambda res, ref=ref: _close("vol", res["vol"], ref, 1e-12)))

        # hvol --exact: (sum x)^n / prod x
        n = rng.randint(2, 4)
        cone, at = self.orthant_at(rng, n)
        x = [Fraction(rng.randint(1, 9), rng.randint(1, 3)) for _ in range(n)]
        path = self.write(f"{tag}-hvol", cone.to_dict())
        arg = ",".join(str(v) for v in at(x))
        exact = sum(x) ** n / math.prod(x)
        items.append(self.item(
            "hvol", ["hvol", "--input", path, f"--xi0={arg}", "--exact"],
            lambda res, exact=exact: None if Fraction(res["hvol"]) == exact
            else f"hvol: {res['hvol']}, closed form {exact}"))

        # minimize: closed-form minima
        base = [conifold(), orthant(rng.randint(2, 4)), ypq(*rng.choice(YPQ))][r % 3]
        cone = self.fresh.translate(rng, base)
        path = self.write(f"{tag}-minimize", cone.to_dict())
        items.append(self.item(
            "minimize", ["minimize", "--input", path],
            lambda res, c=cone: _close("min_hvol", res["min_hvol"], c.min_hvol, 1e-9)
            or (None if res["certificate"] == "converged" else f"minimize: {res['certificate']}")))

        # ksemistable: Yes exactly on the ray through (1, ..., 1) in ray coordinates
        n = rng.randint(2, 4)
        cone, at = self.orthant_at(rng, n)
        if r % 2 == 0:
            x = [rng.randint(1, 5)] * n
        else:
            x = [rng.randint(1, 5) for _ in range(n - 1)]
            x.append(x[0] + rng.randint(1, 3))
        xi0 = at(x)
        path = self.write(f"{tag}-ksemistable", cone.to_dict())
        items.append(self.item(
            "ksemistable", ["ksemistable", "--input", path, f"--xi0={','.join(map(str, xi0))}"],
            lambda res, c=cone, xi0=xi0: checks.verdict(c, xi0, _Verdict(res))))

        # futaki: Fut = -sum y_k (1 - A / (n x_k)) with eta = sum y_k r_k
        n = rng.randint(2, 4)
        cone, at = self.orthant_at(rng, n)
        x = [Fraction(rng.randint(1, 9), rng.randint(1, 3)) for _ in range(n)]
        y = [rng.randint(-3, 3) for _ in range(n)]
        a = sum(x)
        ref = float(-sum(yk * (1 - a / (n * xk)) for xk, yk in zip(x, y)))
        path = self.write(f"{tag}-futaki", cone.to_dict())
        items.append(self.item(
            "futaki", ["futaki", "--input", path, f"--xi0={','.join(map(str, at(x)))}",
                       f"--eta={','.join(map(str, at(y)))}"],
            lambda res, ref=ref: None if abs(res["fut"] - ref) <= 1e-9 * max(1.0, abs(ref))
            else f"futaki: {res['fut']!r}, closed form {ref!r}"))

        # index-char on a rank-3 orthant with about 500 points under the truncation
        cone, at = self.orthant_at(rng, 3)
        x = [rng.randint(6, 10) / 2 for _ in range(3)]
        xi = tuple(float(v) for v in at(x))
        path = self.write(f"{tag}-index-char", cone.to_dict())
        items.append(self.item(
            "index-char", ["index-char", "--input", path, f"--xi0={','.join(map(repr, xi))}"],
            lambda res, c=cone, xi=xi: checks.character_values(
                oracle.lattice_pairings(c.rays, c.facets, xi, res["truncation_bound"]),
                res["t_values"], res["F_values"], res["truncation_bound"])
            or checks.leading(c, xi, res["a0_estimate"])))

        # lct of (x^a, y^b): mult ab, lct 1/a + 1/b; round 0 asks (x, y)
        a, b = (1, 1) if r == 0 else (rng.randint(1, 6), rng.randint(1, 6))
        path = self.write(f"{tag}-lct", {"n": 2, "generators": [[a, 0], [0, b]]})
        want = {"mult": a * b, "lct": Fraction(a + b, a * b), "normalized": Fraction((a + b) ** 2, a * b)}
        items.append(self.item(
            "lct", ["lct", "--input", path],
            lambda res, want=want: None if all(Fraction(res[k]) == v for k, v in want.items())
            and res["satisfied"] else f"lct: {res}, closed form {want}"))

        # degenerate-toy: the threshold against a scan over k
        support, size = set(), rng.randint(3, 5)
        while len(support) < size:
            support.add((rng.randint(-6, 6), rng.randint(-6, 6)))
        k = rng.randint(1, 8)
        path = self.write(f"{tag}-toy", {"support": sorted(map(list, support)),
                                         "directions": [[1, 0], [0, 1]], "k": k})
        k0 = oracle.toy_threshold(sorted(support))
        equal = oracle.toy_limit(sorted(support), k, 1) == oracle.toy_limit(
            oracle.toy_limit(sorted(support), 1, 0), 0, 1)
        items.append(self.item(
            "degenerate-toy", ["degenerate-toy", "--input", path],
            lambda res, k0=k0, equal=equal: None if res["min_k"] == k0 and res["equal_at_k"] == equal
            else f"degenerate-toy: min_k {res['min_k']}, equal {res['equal_at_k']}; scan gives {k0}, {equal}"))
        return items


class _Verdict:
    """The fields of a CLI verdict that :func:`checks.verdict` reads."""

    def __init__(self, res: dict) -> None:
        self.semistable = res["verdict"] == "Yes"
        self.witness = res["witness"]


def _close(name: str, got, ref: float, rel: float) -> str | None:
    if abs(float(got) - ref) <= rel * abs(ref):
        return None
    return f"{name}: {got!r}, closed form {ref!r}"


WORKLOADS = {w.name: w for w in (Pipeline, Queries, Character, Cli)}
