"""Batch front-end: seeded verification runs, cover enumeration, bounds.

Exit codes: 0 success, 2 mathematical violation or golden mismatch found,
64 usage error, 65 invalid input data. Reports are JSON with a `header`
(timestamps, timings, tool version) and a canonical `body`; identical run
configurations produce byte-identical bodies. A reader that closes stdout
early gets no more output, and the run still ends with its own exit code.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time
from datetime import datetime, timezone
from fractions import Fraction
from importlib import resources
from math import prod

from . import __version__
from .errors import InvariantViolation
from .reports import jsonable
from . import bounds as bounds_mod
from . import covers as covers_mod
from .rules import CHAIN_RATIO_EPSILON, LEMMA_IDS

EXIT_OK = 0
EXIT_VIOLATION = 2
EXIT_USAGE = 64
EXIT_DATA = 65

SCHEMA_VERSION = 1


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _output_dir() -> str:
    return os.environ.get("AUTBOUNDS_OUTPUT_DIR", ".")


def _stdout(text: str) -> None:
    """Write text to stdout. Once the reader has closed it, the rest of the
    run's output goes to the null device, so the run carries on to its own
    exit code (and its witness files) without a traceback."""
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _write(path: str, text: str) -> None:
    """Write text to path, making its missing directories; an unwritable path is a usage error."""
    try:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"cannot write {path}: {exc.strerror or exc}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE) from None


def _csv_text(rows) -> str:
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue()


def _canonical_json(data) -> str:
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def _emit(body, args, started: float):
    header = {
        "tool": "autbounds",
        "version": __version__,
        "schema": SCHEMA_VERSION,
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "timing_ms": int(1000 * (time.monotonic() - started)),
    }
    _send(_canonical_json({"header": header, "body": body}), args)


def _send(text: str, args) -> None:
    """Print text, or write it to --out under the output dir and print the path."""
    out = getattr(args, "out", None)
    if out:
        path = out if os.path.isabs(out) else os.path.join(_output_dir(), out)
        _write(path, text)
        _stdout(path + "\n")
    else:
        _stdout(text)


def _golden_text(name_or_path: str) -> str:
    named = {
        "fermat": "golden_fermat.json",
        "variable-moduli": "golden_variable_moduli.json",
        "surface-bounds": "golden_surface_bounds.json",
    }
    if name_or_path in named:
        return resources.files("autbounds.data").joinpath(named[name_or_path]).read_text()
    with open(name_or_path) as fh:
        return fh.read()


# ---------------------------------------------------------------------------
# verify-lemmas
# ---------------------------------------------------------------------------

def cmd_verify_lemmas(args) -> int:
    from . import lemmas as lemmas_mod  # numpy is loaded only by the commands that count
    started = time.monotonic()
    result = lemmas_mod.run_lemma_suite(
        args.lemma, args.trials, args.seed,
        dim=args.dim, min_size=args.min_size, max_size=args.max_size,
    )
    body = result.to_json_body()
    body["format"] = "lemma-suite"
    if args.format == "csv":
        _send(_csv_text(result.csv_rows()), args)
    else:
        _emit(body, args, started=started)
    for violation in result.violations:
        path = os.path.join(_output_dir(), f"witness_{args.lemma}_{violation['seed']}.json")
        _write(path, _canonical_json(violation))
        print(f"witness written: {path}", file=sys.stderr)
    if result.violations:
        return EXIT_VIOLATION
    return EXIT_OK


# ---------------------------------------------------------------------------
# enumerate-covers
# ---------------------------------------------------------------------------

def _enumeration_body(records, bound, args) -> dict:
    return {
        "format": "cover-enumeration",
        "bound": bound.text,
        "gmin": args.gmin,
        "gmax": args.gmax,
        "gamma": args.gamma,
        "kmin": args.kmin,
        "no_hyperelliptic": args.no_hyperelliptic,
        "cyclic": args.cyclic,
        "records": covers_mod.records_to_json(records),
        "signatures": [list(map(jsonable, sig)) for sig in covers_mod.signature_table(records)],
    }


def _golden_signatures(name: str, text: str) -> list:
    """The signature table of a golden cover-enumeration report."""
    try:
        signatures = json.loads(text)["body"]["signatures"]
    except (ValueError, KeyError, TypeError):
        signatures = None
    if not isinstance(signatures, list):
        raise InvariantViolation(
            f"--golden: {name!r} is not a cover-enumeration report with a body.signatures list")
    return signatures


def cmd_enumerate_covers(args) -> int:
    started = time.monotonic()
    bound = covers_mod.LinearBound.parse(args.bound)
    if args.gamma is not None and args.gamma < 0:
        raise InvariantViolation(f"--gamma must be a quotient genus >= 0, got {args.gamma}")
    if args.gmin < 0:
        raise InvariantViolation(f"--gmin must be a genus >= 0, got {args.gmin}")
    if args.kmin < 0:
        raise InvariantViolation(f"--kmin must be a branch-point count >= 0, got {args.kmin}")
    if args.gmin > args.gmax:
        raise InvariantViolation(f"--gmin must be at most --gmax, got {args.gmin} > {args.gmax}")
    golden = None
    if args.golden:
        try:
            golden_text = _golden_text(args.golden)
        except OSError as exc:
            print(f"--golden: cannot read {args.golden!r}: {exc.strerror or exc}", file=sys.stderr)
            return EXIT_USAGE
        golden = _golden_signatures(args.golden, golden_text)
    records = covers_mod.enumerate_extremal(
        range(args.gmin, args.gmax + 1), bound,
        gamma=args.gamma, k_min=args.kmin,
        require_no_hyperelliptic_witness=args.no_hyperelliptic,
        assume_cyclic=args.cyclic,
    )
    body = _enumeration_body(records, bound, args)
    exit_code = EXIT_OK
    if golden is not None:
        same = golden == body["signatures"]
        body["golden_match"] = same
        if not same:
            body["golden_expected"] = golden
            exit_code = EXIT_VIOLATION
    _emit(body, args, started=started)
    return exit_code


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

def _parse_kv(pairs):
    out = {}
    for item in pairs:
        if "=" not in item:
            raise InvariantViolation(f"expected key=value, got {item!r}")
        key, _, val = item.partition("=")
        out[key.strip()] = val.strip()
    return out


_REQUIRED = object()


def _int(kv: dict, key: str, default=_REQUIRED):
    """kv[key] as an int, or `default` when the key is absent.

    A missing required key or a value that is not an integer is invalid data.
    """
    if key not in kv:
        if default is _REQUIRED:
            raise InvariantViolation(f"missing required key {key}=<integer>")
        return default
    try:
        return int(kv[key])
    except ValueError:
        raise InvariantViolation(f"{key}={kv[key]!r} is not an integer") from None


def _int_list(kv: dict, key: str) -> list[int]:
    """kv[key] as comma-separated integers and lo-hi ranges, lo <= hi, e.g. '3,5-7';
    an empty value or item is refused."""
    out = []
    for part in kv[key].split(","):
        part = part.strip()
        try:
            if "-" in part[1:]:
                lo, _, hi = part.partition("-")
                lo, hi = int(lo), int(hi)
            else:
                lo = hi = int(part)
        except ValueError:
            raise InvariantViolation(f"{key}={kv[key]!r} is not a list of integers and lo-hi ranges") from None
        if lo > hi:
            raise InvariantViolation(f"{key}={kv[key]!r} has the empty range {part!r}: lo must be at most hi")
        out.extend(range(lo, hi + 1))
    return out


def _int_range(kv: dict, key: str, default: str) -> range:
    """kv[key] (or `default`) as the integers of an inclusive range lo:hi, lo <= hi."""
    text = kv.get(key, default)
    try:
        lo, hi = (int(x) for x in text.split(":"))
    except ValueError:
        raise InvariantViolation(f"{key}={text!r} is not an integer range lo:hi") from None
    if lo > hi:
        raise InvariantViolation(f"{key}={text!r} is empty: lo must be at most hi")
    return range(lo, hi + 1)


def _flag(kv: dict, key: str) -> bool:
    """kv[key] as a yes/no flag (1, true, yes or 0, false, no in any case); absent is no."""
    value = kv.get(key, "0").lower()
    if value not in ("1", "true", "yes", "0", "false", "no"):
        raise InvariantViolation(f"{key}={kv[key]!r} is not a flag: use 1, true, yes, 0, false or no")
    return value in ("1", "true", "yes")


def _only_keys(kv: dict, allowed, what: str) -> None:
    """Reject the keys of kv that `what` does not read."""
    unknown = set(kv) - set(allowed)
    if unknown:
        raise InvariantViolation(f"unknown {what} keys: {sorted(unknown)}")


def _epsilon(kv: dict) -> Fraction:
    """kv['epsilon'] as a rational, or the chain-ratio epsilon 1/530 when absent."""
    if "epsilon" not in kv:
        return CHAIN_RATIO_EPSILON
    try:
        return Fraction(kv["epsilon"])
    except (ValueError, ZeroDivisionError):
        raise InvariantViolation(f"epsilon={kv['epsilon']!r} is not a rational number") from None


# the keys each bounds subcommand reads; surface and margin check theirs per
# variant, and surface --table reads only its two ranges
_BOUNDS_KEYS = {
    "threefold": ("k3", "chi"),
    "plurigenus": ("k3", "chi", "n"),
    "universal-n": ("epsilon",),
    "constant": (),
}
_PROP33_KEYS = ("k3", "chi", "n", "epsilon")
_TABLE_KEYS = {"k2_range", "chi_range"}

_SURFACE_KEYS = {
    "k2", "chi", "pencils", "no_pencils", "canonical_image_dim", "birational",
    "even", "ci", "d", "two_pencils_genus",
} | _TABLE_KEYS


def _k2_from_degrees(kv: dict, key: str) -> int:
    """K^2 of the complete intersection of degrees kv[key] = d_1..d_r in P^(r+2).

    d= is the case r = 1. By adjunction K = O(sum d_i - r - 3), so
    K^2 = (sum d_i - r - 3)^2 * prod d_i; a twist <= 0 is not general type.
    """
    degrees = _int_list(kv, key)
    twist = sum(degrees) - len(degrees) - 3
    if twist <= 0:
        raise InvariantViolation(f"{key}={kv[key]!r} gives K = O({twist}), which is not positive: "
                                 "the surface is not of general type")
    return twist ** 2 * prod(degrees)


def surface_invariants_from_kv(kv: dict) -> bounds_mod.SurfaceInvariants:
    _only_keys(kv, _SURFACE_KEYS - _TABLE_KEYS, "surface")
    known = frozenset(_int_list(kv, "pencils")) if "pencils" in kv else frozenset()
    absent = frozenset(_int_list(kv, "no_pencils")) if "no_pencils" in kv else frozenset()
    d = _int(kv, "d", None)
    derived = [_k2_from_degrees(kv, key) for key in ("d", "ci") if key in kv]
    k2 = _int(kv, "k2", derived[0] if derived else None)
    if k2 is None:
        raise InvariantViolation("k2 is required (or derivable from d= / ci=)")
    return bounds_mod.SurfaceInvariants(
        k2=k2,
        chi=_int(kv, "chi", None),
        known_pencils=known,
        no_pencils=absent,
        canonical_image_dim=_int(kv, "canonical_image_dim", None),
        canonical_map_birational=_flag(kv, "birational"),
        even_surface_conditions=_flag(kv, "even"),
        ci_degrees=tuple(_int_list(kv, "ci")) if "ci" in kv else None,
        p3_degree=d,
        two_pencils_genus=_int(kv, "two_pencils_genus", None),
    )


def cmd_bounds(args) -> int:
    started = time.monotonic()
    sub = args.what
    if args.table and sub != "surface":
        print(f"--table applies to 'bounds surface' only, not to {sub!r}", file=sys.stderr)
        return EXIT_USAGE
    kv = _parse_kv(args.params)
    if sub in _BOUNDS_KEYS:
        _only_keys(kv, _BOUNDS_KEYS[sub], sub)
    if sub == "surface":
        if args.table:
            return _surface_table(args, kv)
        inv = surface_invariants_from_kv(kv)
        body = {"format": "surface-bound", "inputs": {k: jsonable(v) for k, v in kv.items()},
                **bounds_mod.surface_bound(inv).to_json_dict()}
    elif sub == "threefold":
        inv = bounds_mod.ThreefoldInvariants(_int(kv, "k3"), _int(kv, "chi"))
        c, trail = bounds_mod.threefold_constant()
        body = {"format": "threefold-bound", "k3": inv.k3, "chi": inv.chi,
                "constant": c, "bound": c * inv.k3, "trail": jsonable(trail)}
    elif sub == "plurigenus":
        inv = bounds_mod.ThreefoldInvariants(_int(kv, "k3"), _int(kv, "chi"))
        n = _int(kv, "n")
        body = {"format": "plurigenus", "k3": inv.k3, "chi": inv.chi, "n": n,
                "value": bounds_mod.plurigenus(inv, n)}
    elif sub == "margin":
        variant = kv.pop("variant", None)
        if variant not in bounds_mod.MARGIN_VARIANTS:
            raise InvariantViolation(
                f"margin needs variant=<one of {bounds_mod.MARGIN_VARIANTS}>")
        if variant == "prop3.3":
            _only_keys(kv, _PROP33_KEYS, variant)
            inv = bounds_mod.ThreefoldInvariants(_int(kv, "k3"), _int(kv, "chi"))
            margin, report = bounds_mod.decomposability_margin(variant, inv, n=_int(kv, "n"),
                                                               epsilon=_epsilon(kv))
        else:
            inv = surface_invariants_from_kv(kv)
            margin, report = bounds_mod.decomposability_margin(variant, inv)
        body = {"format": "margin", "variant": variant,
                "inputs": {k: jsonable(v) for k, v in kv.items()},
                "margin": jsonable(margin), "positive": margin > 0,
                "hypotheses": report.to_json_dict()}
    elif sub == "universal-n":
        n_star, cert = bounds_mod.universal_n(_epsilon(kv))
        body = {"format": "universal-n", "n_star": n_star, "certificate": jsonable(cert)}
    elif sub == "constant":
        c, trail = bounds_mod.threefold_constant()
        body = {"format": "threefold-constant", "c": c, "trail": jsonable(trail)}
    _emit(body, args, started=started)
    return EXIT_OK


def _surface_table(args, kv) -> int:
    _only_keys(kv, _TABLE_KEYS, "surface --table")
    k2s = _int_range(kv, "k2_range", "1:64")
    chis = _int_range(kv, "chi_range", "") if "chi_range" in kv else None
    rows = [["k2", "chi", "value", "source"]]
    for k2 in k2s:
        for chi in [None] if chis is None else [c for c in chis if 9 * c >= k2]:
            inv = bounds_mod.SurfaceInvariants(k2=k2, chi=chi)
            res = bounds_mod.surface_bound(inv)
            rows.append([
                k2, "" if chi is None else chi,
                "" if res.value is None else jsonable(res.value),
                "|".join(res.source),
            ])
    _send(_csv_text(rows), args)
    return EXIT_OK


# ---------------------------------------------------------------------------
# reproduce-all
# ---------------------------------------------------------------------------

def _check(name: str, ok: bool, detail: str = "") -> bool:
    _stdout(f"{'PASS' if ok else 'FAIL'}  {name}" + (f"  [{detail}]" if detail else "") + "\n")
    return ok


def cmd_reproduce_all(args) -> int:
    from . import lemmas as lemmas_mod
    full = args.full
    ok = True

    recs = covers_mod.enumerate_extremal(
        range(2, 9), covers_mod.LinearBound.parse("3g+6"),
        require_no_hyperelliptic_witness=True)
    cmp_a = covers_mod.compare_signatures(recs, covers_mod.FERMAT_REFERENCE)
    ok &= _check("extremal covers at 3g+6: exactly the two plane-curve records",
                 cmp_a["agrees"], f"found {cmp_a['found']}")

    recs_b = covers_mod.enumerate_extremal(
        range(3, 7), covers_mod.LinearBound.parse("3g-3"), gamma=0, k_min=4)
    cmp_b = covers_mod.compare_signatures(recs_b, covers_mod.VARIABLE_MODULI_REFERENCE)
    flags_ok = (
        cmp_b["missing_from_found"] == [(6, 16, 4, (8, 4, 2, 2))]
        and cmp_b["extra_beyond_reference"]
        == [(3, 8, 5, (2, 2, 2, 2, 2)), (5, 16, 4, (4, 4, 2, 2))]
        and len(cmp_b["matched"]) == 4
    )
    wit_ok = all(any(w.quotient_genus <= 1 for w in r.witnesses) for r in recs_b)
    ok &= _check("variable-moduli run at 3g-3: reference matched with flagged discrepancies",
                 flags_ok, f"missing={cmp_b['missing_from_found']} extra={cmp_b['extra_beyond_reference']}")
    ok &= _check("every variable-moduli record has an order-2 quotient of genus <= 1", wit_ok)

    cyc = covers_mod.enumerate_extremal(
        range(3, 9), covers_mod.LinearBound.parse("2g+2"), gamma=0, k_min=4,
        assume_cyclic=True)
    ok &= _check("cyclic run at 2g+2 over genus 3..8 is empty", not cyc, f"{len(cyc)} records")

    fam_ok = True
    for m in range(2, 7):
        datum = covers_mod.example_family_49(m)
        fam_ok &= covers_mod.hurwitz_genus(datum) == 3 * m - 2
        fam_ok &= datum.group.order == 9 * m == 3 * (3 * m - 2) + 6
        fam_ok &= covers_mod.lemma43_admissible(datum).admissible
    ok &= _check("equality family m=2..6: genus 3m-2, order 9m = 3g+6, divisibility checks", fam_ok)

    thresholds = [
        ("lemma7.4", bounds_mod.SurfaceInvariants(72, 8), True),
        ("lemma7.4", bounds_mod.SurfaceInvariants(63, 7), False),
        ("prop6.3", bounds_mod.SurfaceInvariants(126, 14), True),
        ("prop6.3", bounds_mod.SurfaceInvariants(117, 13), False),
        ("lemma7.2", bounds_mod.SurfaceInvariants(27, 3), True),
        ("lemma7.2", bounds_mod.SurfaceInvariants(18, 2), False),
        ("lemma7.6-12", bounds_mod.SurfaceInvariants(4, 1), True),
        ("lemma7.6-16", bounds_mod.SurfaceInvariants(2, 1), True),
    ]
    thr_ok = True
    for variant, inv, positive in thresholds:
        margin, _ = bounds_mod.decomposability_margin(variant, inv)
        thr_ok &= (margin > 0) == positive
    ok &= _check("margin thresholds reproduce the stated chi/K^2 cutoffs", thr_ok)

    n_star, cert = bounds_mod.universal_n()
    u_ok = (
        cert["leading_coefficient"] == Fraction(1, 9540)
        and cert["chain_floor"]["n"] == 20
        and bounds_mod.confirm_universal_n(n_star, k3_limit=40)
    )
    c, trail = bounds_mod.threefold_constant(n_star=n_star)
    ok &= _check("universal-n certified with minimality witness; constant assembled",
                 u_ok and c >= 25, f"n*={n_star} c={c}")

    golden = json.loads(_golden_text("surface-bounds"))["body"]["entries"]
    tbl_ok = True
    for entry in golden:
        inv = surface_invariants_from_kv(entry["inputs"])
        res = bounds_mod.surface_bound(inv)
        tbl_ok &= jsonable(res.value) == entry["value"] and list(res.source) == entry["source"]
    ok &= _check("surface bound table matches the golden file", tbl_ok)

    suites = [
        ("2.4", (10000 if full else 400), dict(dim=3)),
        ("2.4", (10000 if full else 400), dict(dim=4)),
        ("2.5", (1000 if full else 60), {}),
        ("2.7", (1000 if full else 60), {}),
        ("2.6", (50 if full else 4), {}),
    ]
    for lemma, trials, kw in suites:
        res = lemmas_mod.run_lemma_suite(lemma, trials, 20260808, **kw)
        ok &= _check(
            f"rule {lemma} suite ({trials} trials{', dim ' + str(kw['dim']) if 'dim' in kw else ''})",
            res.violation_count == 0 and res.admissible_count == trials,
            f"admissible {res.admissible_count}/{trials}, violations {res.violation_count}",
        )

    return EXIT_OK if ok else EXIT_VIOLATION


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="autbounds", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-lemmas", help="run seeded property suites for the counting rules")
    p.add_argument("--lemma", required=True, choices=LEMMA_IDS)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--dim", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--min-size", dest="min_size", type=int, default=None)
    p.add_argument("--max-size", dest="max_size", type=int, default=None)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_verify_lemmas)

    p = sub.add_parser("enumerate-covers", help="exhaustive search for covers beating a genus bound")
    p.add_argument("--bound", required=True, help="linear form in g, e.g. '3g+6'")
    p.add_argument("--gmin", type=int, required=True)
    p.add_argument("--gmax", type=int, required=True)
    p.add_argument("--gamma", type=int, default=None)
    p.add_argument("--kmin", type=int, default=0)
    p.add_argument("--no-hyperelliptic", dest="no_hyperelliptic", action="store_true")
    p.add_argument("--cyclic", action="store_true")
    p.add_argument("--golden", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_enumerate_covers)

    p = sub.add_parser("bounds", help="exact bound arithmetic")
    p.add_argument("what", choices=("surface", "threefold", "plurigenus", "margin",
                                    "universal-n", "constant"))
    p.add_argument("params", nargs="*",
                   help="key=value inputs, e.g. k2=72 chi=8 variant=lemma7.4")
    p.add_argument("--table", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("reproduce-all", help="run every headline reproduction and print PASS/FAIL lines")
    p.add_argument("--full", action="store_true", help="acceptance-scale trial counts")
    p.set_defaults(func=cmd_reproduce_all)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # argparse and _write exit once they have printed why
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    except InvariantViolation as exc:
        print(f"invalid data: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as exc:  # an integer too long to write as text, in a report or a trail
        if "integer string conversion" not in str(exc):
            raise
        print(f"invalid data: a result has more than {sys.get_int_max_str_digits()} digits, "
              "Python's limit for writing an integer as text", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    raise SystemExit(main())
