"""Batch front-end: seeded verification runs, cover enumeration, bounds.

Exit codes: 0 success, 2 mathematical violation or golden mismatch found,
64 usage error, 65 invalid input data. Reports are JSON with a `header`
(timestamps, timings, tool version) and a canonical `body`; identical run
configurations produce byte-identical bodies.
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

from . import __version__
from .errors import InvariantViolation
from .reports import jsonable
from . import bounds as bounds_mod
from . import covers as covers_mod
from . import lemmas as lemmas_mod

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


def _canonical_json(data) -> str:
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def _emit(body, args, extra_header=None, started=None):
    header = {
        "tool": "autbounds",
        "version": __version__,
        "schema": SCHEMA_VERSION,
        "created_utc": datetime.now(timezone.utc).isoformat(),
    }
    if started is not None:
        header["timing_ms"] = int(1000 * (time.monotonic() - started))
    if extra_header:
        header.update(extra_header)
    report = {"header": header, "body": body}
    text = _canonical_json(report)
    out = getattr(args, "out", None)
    if out:
        path = out if os.path.isabs(out) else os.path.join(_output_dir(), out)
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w") as fh:
            fh.write(text)
        print(path)
    else:
        sys.stdout.write(text)


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
    started = time.monotonic()
    if args.lemma not in lemmas_mod.LEMMA_IDS:
        print(f"unknown lemma id {args.lemma!r}; choose from {lemmas_mod.LEMMA_IDS}", file=sys.stderr)
        return EXIT_USAGE
    result = lemmas_mod.run_lemma_suite(
        args.lemma, args.trials, args.seed,
        dim=args.dim, min_size=args.min_size, max_size=args.max_size,
    )
    body = result.to_json_body()
    body["format"] = "lemma-suite"
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        for row in result.csv_rows():
            writer.writerow(row)
        sys.stdout.write(buf.getvalue())
    else:
        _emit(body, args, started=started)
    for i, violation in enumerate(result.violations):
        path = os.path.join(_output_dir(), f"witness_{args.lemma}_{violation['seed']}.json")
        with open(path, "w") as fh:
            fh.write(_canonical_json(violation))
        print(f"witness written: {path}", file=sys.stderr)
    if result.violations:
        return EXIT_VIOLATION
    return EXIT_OK


# ---------------------------------------------------------------------------
# enumerate-covers
# ---------------------------------------------------------------------------

def _enumeration_body(records, bound, args) -> dict:
    body = {
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
    return body


def cmd_enumerate_covers(args) -> int:
    started = time.monotonic()
    bound = covers_mod.LinearBound.parse(args.bound)
    golden_text = None
    if args.golden:
        try:
            golden_text = _golden_text(args.golden)
        except OSError as exc:
            print(f"--golden: cannot read {args.golden!r}: {exc.strerror or exc}", file=sys.stderr)
            return EXIT_USAGE
    records = covers_mod.enumerate_extremal(
        range(args.gmin, args.gmax + 1), bound,
        gamma=args.gamma, k_min=args.kmin,
        require_no_hyperelliptic_witness=args.no_hyperelliptic,
        assume_cyclic=args.cyclic,
    )
    body = _enumeration_body(records, bound, args)
    exit_code = EXIT_OK
    if golden_text is not None:
        golden = json.loads(golden_text)["body"]
        same = golden["signatures"] == body["signatures"]
        body["golden_match"] = same
        if not same:
            body["golden_expected"] = golden["signatures"]
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


def _int_list(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        part = part.strip()
        if "-" in part[1:]:
            lo, _, hi = part.partition("-")
            out.extend(range(int(lo), int(hi) + 1))
        elif part:
            out.append(int(part))
    return out


_SURFACE_KEYS = {
    "k2", "chi", "pencils", "no_pencils", "canonical_image_dim", "birational",
    "even", "ci", "d", "two_pencils_genus", "k2_range", "chi_range",
}


def surface_invariants_from_kv(kv: dict) -> bounds_mod.SurfaceInvariants:
    unknown = set(kv) - _SURFACE_KEYS
    if unknown:
        raise InvariantViolation(f"unknown surface keys: {sorted(unknown)}")
    known = frozenset(_int_list(kv["pencils"])) if "pencils" in kv else frozenset()
    absent = frozenset(_int_list(kv["no_pencils"])) if "no_pencils" in kv else frozenset()
    d = int(kv["d"]) if "d" in kv else None
    k2 = int(kv["k2"]) if "k2" in kv else None
    if k2 is None and d is not None:
        k2 = d * (d - 4) ** 2  # adjunction for a degree-d surface in 3-space
    if k2 is None and "ci" in kv:
        degrees = tuple(_int_list(kv["ci"]))
        total = sum(degrees)
        n_amb = len(degrees) + 2
        deg = 1
        for dd in degrees:
            deg *= dd
        k2 = (total - n_amb - 1) ** 2 * deg
    if k2 is None:
        raise InvariantViolation("k2 is required (or derivable from d= / ci=)")
    return bounds_mod.SurfaceInvariants(
        k2=k2,
        chi=int(kv["chi"]) if "chi" in kv else None,
        known_pencils=known,
        no_pencils=absent,
        canonical_image_dim=int(kv["canonical_image_dim"]) if "canonical_image_dim" in kv else None,
        canonical_map_birational=kv.get("birational", "0") in ("1", "true", "yes"),
        even_surface_conditions=kv.get("even", "0") in ("1", "true", "yes"),
        ci_degrees=tuple(_int_list(kv["ci"])) if "ci" in kv else None,
        p3_degree=d,
        two_pencils_genus=int(kv["two_pencils_genus"]) if "two_pencils_genus" in kv else None,
    )


def cmd_bounds(args) -> int:
    started = time.monotonic()
    kv = _parse_kv(args.params)
    sub = args.what
    if sub == "surface":
        if args.table:
            return _surface_table(args, kv)
        inv = surface_invariants_from_kv(kv)
        result = bounds_mod.surface_bound(inv)
        body = {"format": "surface-bound", "inputs": {k: jsonable(v) for k, v in kv.items()}}
        body.update(result.to_json_dict())
        _emit(body, args, started=started)
        return EXIT_OK
    if sub == "threefold":
        inv = bounds_mod.ThreefoldInvariants(int(kv["k3"]), int(kv["chi"]))
        c, trail = bounds_mod.threefold_constant()
        body = {
            "format": "threefold-bound",
            "k3": inv.k3, "chi": inv.chi,
            "constant": c,
            "bound": c * inv.k3,
            "trail": jsonable(trail),
        }
        _emit(body, args, started=started)
        return EXIT_OK
    if sub == "plurigenus":
        inv = bounds_mod.ThreefoldInvariants(int(kv["k3"]), int(kv["chi"]))
        n = int(kv["n"])
        body = {"format": "plurigenus", "k3": inv.k3, "chi": inv.chi, "n": n,
                "value": bounds_mod.plurigenus(inv, n)}
        _emit(body, args, started=started)
        return EXIT_OK
    if sub == "margin":
        variant = kv.pop("variant", None)
        if variant not in bounds_mod.MARGIN_VARIANTS:
            raise InvariantViolation(
                f"margin needs variant=<one of {bounds_mod.MARGIN_VARIANTS}>")
        if variant == "prop3.3":
            inv = bounds_mod.ThreefoldInvariants(int(kv["k3"]), int(kv["chi"]))
            margin, report = bounds_mod.decomposability_margin(variant, inv, n=int(kv["n"]))
        else:
            inv = surface_invariants_from_kv(kv)
            margin, report = bounds_mod.decomposability_margin(variant, inv)
        body = {"format": "margin", "variant": variant,
                "inputs": {k: jsonable(v) for k, v in kv.items()},
                "margin": jsonable(margin), "positive": margin > 0,
                "hypotheses": report.to_json_dict()}
        _emit(body, args, started=started)
        return EXIT_OK
    if sub == "universal-n":
        eps = Fraction(kv["epsilon"]) if "epsilon" in kv else lemmas_mod.CHAIN_RATIO_EPSILON
        n_star, cert = bounds_mod.universal_n(eps)
        body = {"format": "universal-n", "n_star": n_star, "certificate": jsonable(cert)}
        _emit(body, args, started=started)
        return EXIT_OK
    if sub == "constant":
        c, trail = bounds_mod.threefold_constant()
        body = {"format": "threefold-constant", "c": c, "trail": jsonable(trail)}
        _emit(body, args, started=started)
        return EXIT_OK
    raise InvariantViolation(f"unknown bounds subcommand {sub!r}")


def _surface_table(args, kv) -> int:
    k2_lo, k2_hi = (int(x) for x in (kv.get("k2_range") or "1:64").split(":"))
    writer = csv.writer(sys.stdout)
    writer.writerow(["k2", "chi", "value", "source"])
    for k2 in range(k2_lo, k2_hi + 1):
        chi_vals = [None]
        if "chi_range" in kv:
            lo, hi = (int(x) for x in kv["chi_range"].split(":"))
            chi_vals = [c for c in range(lo, hi + 1) if 9 * c >= k2]
        for chi in chi_vals:
            inv = bounds_mod.SurfaceInvariants(k2=k2, chi=chi)
            res = bounds_mod.surface_bound(inv)
            writer.writerow([
                k2, "" if chi is None else chi,
                "" if res.value is None else jsonable(res.value),
                "|".join(res.source),
            ])
    return EXIT_OK


# ---------------------------------------------------------------------------
# reproduce-all
# ---------------------------------------------------------------------------

def _check(name: str, ok: bool, detail: str = "") -> bool:
    print(f"{'PASS' if ok else 'FAIL'}  {name}" + (f"  [{detail}]" if detail else ""))
    return ok


def cmd_reproduce_all(args) -> int:
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
    p.add_argument("--lemma", required=True)
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
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except InvariantViolation as exc:
        print(f"invalid data: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    raise SystemExit(main())
