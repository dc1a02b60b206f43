"""Command-line interface.

Subcommands: vol | hvol | minimize | ksemistable | futaki | index-char |
lct | degenerate-toy.  Inputs are JSON documents (--input FILE, or stdin);
results are JSON on stdout with keys sorted, so identical inputs produce
byte-identical output.  Wall-clock timing never enters the stdout payload;
``--record PATH`` writes a run record (command, input hash, output, timing,
version) as a sidecar file.

Exit codes: 0 success; 2 validation errors, with a machine-readable
``{"error": code, "detail": str}`` payload; 1 internal errors.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from fractions import Fraction

from . import __version__
from .character import leading_coefficient, sample_character
from .errors import FanoConeError
from .futaki import futaki
from .gittoy import WeightedPoint, composed_equals_two_step, limit, mu_additivity
from .ideals import MonomialIdeal, lct, multiplicity, normalized_multiplicity
from .linalg import frac
from .singularity import ToricConeData, _rat_str, reeb
from .volume import (
    build_volume_form,
    is_ksemistable,
    minimize_volume,
    normalized_volume,
    scan_hvol,
    vol,
)


def _parse_vector(text: str, exact: bool):
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise ValueError("empty vector")
    if exact:
        return reeb([frac(p) for p in parts])
    if any(("." in p) or ("e" in p.lower() and "/" not in p) for p in parts):
        return reeb([float(p) for p in parts])
    return reeb([frac(p) for p in parts])


def _load_input(path: str | None) -> tuple[dict, str]:
    if path is None or path == "-":
        raw = sys.stdin.read()
    else:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.read()
    obj = json.loads(raw)
    canon = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(canon.encode("utf-8")).hexdigest()
    return obj, digest


def _emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(repr(x) for x in row) + "\n")


def _cmd_vol(args, obj, normalized: bool) -> dict:
    data = ToricConeData.from_dict(obj)
    form = build_volume_form(data)
    xi = _parse_vector(args.xi0, args.exact)
    if normalized:
        value = normalized_volume(data, form, xi)
    else:
        value = vol(form, xi)
    key = "hvol" if normalized else "vol"
    if xi.exact:
        return {key: _rat_str(Fraction(value)), "xi0": [_rat_str(x) for x in xi.coords]}
    return {key: float(value), "xi0": list(xi.coords)}


def _cmd_minimize(args, obj) -> dict:
    data = ToricConeData.from_dict(obj)
    form = build_volume_form(data)
    res = minimize_volume(data, form, tol=args.tol, max_iters=args.max_iters)
    if args.csv:
        if not args.segment:
            raise ValueError("--csv for minimize requires --segment a,b,..:c,d,..")
        lo, hi = args.segment.split(":")
        a = _parse_vector(lo, False).as_floats()
        b = _parse_vector(hi, False).as_floats()
        rows = scan_hvol(data, form, a, b, steps=args.steps)
        _write_csv(args.csv, ["t", "hvol"], rows)
    return res.to_dict()


def _cmd_ksemistable(args, obj) -> dict:
    data = ToricConeData.from_dict(obj)
    xi0 = _parse_vector(args.xi0, args.exact)
    return is_ksemistable(data, xi0, tol=args.tol).to_dict()


def _cmd_futaki(args, obj) -> dict:
    data = ToricConeData.from_dict(obj)
    form = build_volume_form(data)
    xi0 = _parse_vector(args.xi0, args.exact)
    eta = _parse_vector(args.eta, args.exact)
    return futaki(data, form, xi0=xi0, eta=eta.coords).to_dict()


def _cmd_index_char(args, obj) -> dict:
    data = ToricConeData.from_dict(obj)
    xi = _parse_vector(args.xi0, False)
    ts = tuple(float(t) for t in args.t.split(","))
    sample = sample_character(data, xi, t_values=ts)
    if args.csv:
        form = build_volume_form(data)
        lead = leading_coefficient(data, form, xi)
        rows = list(zip(lead.t_grid, lead.scaled_values))
        _write_csv(args.csv, ["t", "t^n * F"], rows)
    return sample.to_dict()


def _cmd_lct(args, obj) -> dict:
    ideal = MonomialIdeal.from_dict(obj)
    m = multiplicity(ideal)
    c = lct(ideal)
    nm = normalized_multiplicity(ideal)
    bound = Fraction(ideal.nvars) ** ideal.nvars
    return {
        "mult": _rat_str(m),
        "lct": _rat_str(c),
        "normalized": _rat_str(nm),
        "bound_nn": _rat_str(bound),
        "satisfied": bool(nm >= bound),
    }


def _cmd_degenerate_toy(args, obj) -> dict:
    point = WeightedPoint.from_dict(obj)
    directions = [tuple(int(x) for x in d) for d in obj.get("directions", [[1, 0], [0, 1]])]
    chain = []
    current = point
    for d in directions:
        current = limit(current, d)
        chain.append({"direction": list(d), "support": [list(p) for p in current.support]})
    k = int(obj.get("k", 1))
    check = composed_equals_two_step(point, k)
    add = mu_additivity(point, k)
    return {
        "chain": chain,
        "k": k,
        "equal_at_k": check.equal,
        "min_k": check.min_k,
        "composed_support": [list(p) for p in check.composed.support],
        "mu": add.to_dict(),
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fanocone",
        description="K-semistability of toric Fano cone singularities",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--input", default=None, help="JSON input file (default: stdin)")
        p.add_argument("--record", default=None, help="write a run record JSON here")

    for name in ("vol", "hvol"):
        p = sub.add_parser(name, help=f"evaluate {'normalized ' if name == 'hvol' else ''}volume at --xi0")
        add_common(p)
        p.add_argument("--xi0", required=True)
        p.add_argument("--exact", action="store_true", help="exact rational output")

    p = sub.add_parser("minimize", help="minimize the normalized volume over the Reeb cone")
    add_common(p)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--max-iters", type=int, default=200)
    p.add_argument("--csv", default=None, help="write a hvol scan along --segment")
    p.add_argument("--segment", default=None, help="segment 'x1,..,xn:y1,..,yn' for the scan")
    p.add_argument("--steps", type=int, default=100)

    p = sub.add_parser("ksemistable", help="K-semistability verdict for --xi0")
    add_common(p)
    p.add_argument("--xi0", required=True)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--exact", action="store_true")

    p = sub.add_parser("futaki", help="Futaki invariant of a product configuration")
    add_common(p)
    p.add_argument("--xi0", required=True)
    p.add_argument("--eta", required=True)
    p.add_argument("--exact", action="store_true")

    p = sub.add_parser("index-char", help="index character samples and leading coefficient")
    add_common(p)
    p.add_argument("--xi0", required=True)
    p.add_argument("--t", default="1.0,0.5")
    p.add_argument("--csv", default=None, help="write (t, t^n F) rows for the extrapolation grid")

    p = sub.add_parser("lct", help="multiplicity / lct / normalized multiplicity of a monomial ideal")
    add_common(p)

    p = sub.add_parser("degenerate-toy", help="weight-support limits and composition threshold")
    add_common(p)

    return parser


_HANDLERS = {
    "vol": lambda a, o: _cmd_vol(a, o, normalized=False),
    "hvol": lambda a, o: _cmd_vol(a, o, normalized=True),
    "minimize": _cmd_minimize,
    "ksemistable": _cmd_ksemistable,
    "futaki": _cmd_futaki,
    "index-char": _cmd_index_char,
    "lct": _cmd_lct,
    "degenerate-toy": _cmd_degenerate_toy,
}


def dispatch(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse: unknown flags exit 2, --help exits 0
        return int(exc.code or 0)
    started = time.perf_counter()
    try:
        obj, digest = _load_input(args.input)
        result = _HANDLERS[args.command](args, obj)
    except FanoConeError as exc:
        _emit({"error": exc.code, "detail": str(exc)})
        return 2
    except (ValueError, KeyError, json.JSONDecodeError) as exc:
        _emit({"error": "invalid-input", "detail": str(exc)})
        return 2
    except Exception as exc:  # pragma: no cover - internal errors
        _emit({"error": "internal", "detail": f"{type(exc).__name__}: {exc}"})
        return 1
    payload = {
        "command": args.command,
        "input_hash": digest,
        "result": result,
        "version": __version__,
    }
    _emit(payload)
    if args.record:
        elapsed_ms = int((time.perf_counter() - started) * 1000)
        record = dict(payload, timing_ms=elapsed_ms)
        with open(args.record, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(record, sort_keys=True, indent=2) + "\n")
    return 0


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
