"""Command-line entry point: parsing, scan orchestration, reports, manifests.

Subcommands: schur, lr, restrict, toeplitz, body, and verify with one
scanner name.  Reports are JSON with a CSV summary next to them; big
integers and rationals are serialized as decimal strings so spreadsheet
and JSON consumers never round them.  Exit codes: 0 clean, 1 violations
found (a result, not a failure), 2 usage or input error, 3 internal error
(the traceback goes to stderr), which in verify is any exception after the
options are checked; 141 when the reader of standard output closes it
early.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import re
import sys
import time
from typing import TYPE_CHECKING

from . import __version__, concavity, lr
from ._records import Record
from .lr import lr_coefficient, restriction_multiplicity
from .partitions import GLWeight, Partition, SkewShape, fmt_weight, pad, partition
from .symfunc import skew_schur, to_schur_basis

if TYPE_CHECKING:
    from .bodies import MultiPolynomial
    from .toeplitz import FiniteSequence


class ParseError(ValueError):
    """Malformed input text; the message carries the position."""


# ---------------------------------------------------------------------------
# text syntax
# ---------------------------------------------------------------------------


def parse_partition(text: str) -> Partition:
    """Parse "3,1" (comma-separated, weakly decreasing); "" and "0" are empty."""
    body = text.strip()
    if body in ("", "0"):
        return ()
    parts = []
    for pos, piece in enumerate(body.split(",")):
        piece = piece.strip()
        if not re.fullmatch(r"-?\d+", piece):
            raise ParseError(f"partition entry {pos}: expected an integer, got {piece!r}")
        parts.append(int(piece))
    try:
        return partition(parts)
    except ValueError as exc:
        raise ParseError(f"partition {text!r}: {exc}") from None


def format_partition(p: Partition) -> str:
    return fmt_weight(p) or "0"


def format_weight(w: GLWeight) -> str:
    return fmt_weight(w) + f"@{len(w)}"


def parse_polynomial(text: str, dim: int) -> MultiPolynomial:
    """Parse "3*x^2*y - 1/2*y" into a polynomial in dim variables.

    Variables are x, y, z, the first dim of them (dim <= 3); a term is an
    optional coefficient p or p/q, then variable powers with * optional
    between them ("2x", "x^2y", not "*x"); spaces are ignored.  Raises
    ParseError with the offending position in text as typed, spaces included.
    """
    from fractions import Fraction

    from . import bodies

    names = {name: i for i, name in enumerate("xyz"[:dim])}
    body = text.replace(" ", "")
    if not body:
        raise ParseError("empty polynomial")
    # where[i] is the position in text of body[i]; a dangling last sign
    # leaves an empty term one past the last character
    where = [i for i, ch in enumerate(text) if ch != " "]
    where.append(where[-1] + 1)
    terms: dict[tuple[int, ...], Fraction] = {}
    # a term runs to the next + or - that does not follow *, / or ^
    for cut in re.finditer(r"(?!\Z)([+-]?)((?:[^+-]|(?<=[*/^])[+-])*)", body):
        sign, chunk = cut.groups()
        at = where[cut.start(2)]
        if not chunk:
            raise ParseError(f"position {at}: empty term")
        term = re.fullmatch(r"(\d+(?:/\d+)?)?((?:(?:(?<=\w)\*)?[a-z]\w*(?:\^\d+)?)*)", chunk)
        if term is None:
            raise ParseError(f"position {at}: cannot parse term {chunk!r}")
        try:
            coeff = Fraction(term[1] or 1)
        except ZeroDivisionError:
            raise ParseError(f"position {at}: zero denominator in {chunk!r}") from None
        exps = [0] * dim
        for name, power in re.findall(r"([a-z]\w*)(?:\^(\d+))?", term[2]):
            if name not in names:
                raise ParseError(f"position {at}: unknown variable {name!r} in {dim} dimensions")
            exps[names[name]] += int(power or 1)
        key = tuple(exps)
        terms[key] = terms.get(key, 0) + (-coeff if sign == "-" else coeff)
    return bodies.MultiPolynomial(dim, terms)  # which drops cancelled terms


def parse_shape(text: str) -> SkewShape:
    """Parse "3,1/1" or "3,1" into a skew shape."""
    outer_s, _, inner_s = text.partition("/")
    return SkewShape(parse_partition(outer_s), parse_partition(inner_s))


def parse_sequence(text: str) -> FiniteSequence:
    """Parse "0:1,1:1/2" into a finitely supported sequence."""
    from fractions import Fraction

    from .toeplitz import FiniteSequence

    support = {}
    for pos, piece in enumerate(text.split(",")):
        piece = piece.strip()
        if not piece:
            continue
        k_s, _, v_s = piece.partition(":")
        if not re.fullmatch(r"-?\d+", k_s.strip()):
            raise ParseError(f"sequence entry {pos}: bad index {k_s!r}")
        try:
            v = Fraction(v_s.strip())
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"sequence entry {pos}: bad value {v_s!r}") from None
        k = int(k_s)
        if k in support:
            raise ParseError(f"sequence entry {pos}: repeated index {k}")
        support[k] = v
    try:
        return FiniteSequence(support)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


def _builtin_sha256():
    """The interpreter's own SHA-256 constructor: _sha2's from CPython 3.12, _sha256's before.

    hashlib's sha256 loads OpenSSL's libcrypto, megabytes of resident memory
    for one digest of a few kilobytes, so it is only the fallback for builds
    that lack both modules.  Either gives the same bytes.  The modules are
    looked up by name because each exists on only some Python versions.
    """
    for name in ("_sha2", "_sha256"):
        try:
            return importlib.import_module(name).sha256
        except ImportError:
            pass
    from hashlib import sha256

    return sha256


_sha256 = _builtin_sha256()


def canonical_payload(digested: dict) -> bytes:
    """The deterministic portion of a report, {subcommand, params, checked,
    violations}, canonically serialized."""
    return json.dumps(digested, sort_keys=True, separators=(",", ":")).encode("ascii")


def build_report(
    subcommand: str,
    params: dict,
    checked: int,
    violations: list,
    runtime_ms: int,
    argv: list[str],
    jobs: int,
) -> dict:
    """The digested payload plus runtime_ms and the manifest; jobs is the worker count used."""
    digested = dict(subcommand=subcommand, params=params, checked=checked, violations=violations)
    digest = "sha256:" + _sha256(canonical_payload(digested)).hexdigest()
    manifest = dict(argv=argv, jobs=jobs, artifact_version=__version__, output_digest=digest)
    return dict(digested, runtime_ms=runtime_ms, manifest=manifest)


def _csv_path(out_path: str) -> str:
    """The CSV summary written beside the JSON report at out_path."""
    return re.sub(r"\.json$", "", out_path) + ".csv"


def write_report(report: dict, out_path: str | None) -> None:
    _emit(report, out_path)
    if out_path:
        import csv

        with _open_out(_csv_path(out_path), newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["subcommand", "checked", "violations", "params"])
            w.writerow(
                [
                    report["subcommand"],
                    report["checked"],
                    len(report["violations"]),
                    json.dumps(report["params"], sort_keys=True),
                ]
            )


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_schur(args) -> int:
    shape = parse_shape(args.shape)
    expansion = skew_schur(shape, args.vars)
    if args.basis == "schur":
        expansion = to_schur_basis(expansion)
    out = {format_partition(k): str(v) for k, v in sorted(expansion.terms.items())}
    doc = {"shape": str(shape), "vars": args.vars, "basis": args.basis, "terms": out}
    _emit(doc, args.out)
    return 0


def _cmd_lr(args) -> int:
    rank = args.rank
    lam = pad(parse_partition(args.lam), rank)
    mu = pad(parse_partition(args.mu), rank)
    nu = pad(parse_partition(args.nu), rank)
    value = lr_coefficient(lam, mu, nu)
    _emit(
        {
            "lam": format_weight(lam),
            "mu": format_weight(mu),
            "nu": format_weight(nu),
            "rank": rank,
            "value": str(value),
        },
        args.out,
    )
    return 0


def _cmd_restrict(args) -> int:
    lam = parse_partition(args.lam)
    mu = parse_partition(args.mu)
    value = restriction_multiplicity(lam, mu, args.n, args.k)
    _emit(
        {
            "lam": format_partition(lam),
            "mu": format_partition(mu),
            "n": args.n,
            "k": args.k,
            "value": str(value),
        },
        args.out,
    )
    return 0


def _cmd_toeplitz(args) -> int:
    from . import toeplitz

    seq = parse_sequence(args.seq)
    if args.check == "2x2":
        ok, bad = toeplitz.two_by_two_scan(seq)
        doc = {"check": "2x2", "passed": ok, "failing_index": bad}
    else:
        ok, bad = toeplitz.character_positivity_check(seq, args.rank, args.bound)
        doc = {
            "check": "schur",
            "rank": args.rank,
            "bound": args.bound,
            "passed": ok,
            "failing_weight": fmt_weight(bad) if bad else None,
        }
    _emit(doc, args.out)
    return 0 if ok else 1


def _cmd_body(args) -> int:
    from fractions import Fraction

    from . import bodies

    polys = []
    for i, text in enumerate(args.basis.split(";"), 1):
        if text.strip():
            try:
                polys.append(parse_polynomial(text, args.dim))
            except ParseError as exc:
                raise ParseError(f"polynomial {i}: {exc}") from None
    subspace = bodies.PolynomialSubspace(args.dim, polys)
    b = bodies.body_approximation(subspace, args.kmax)
    degree = None
    try:
        volume = str(bodies.normalized_volume(b))
    except bodies.DegenerateBodyError as exc:
        volume = f"degenerate: {exc}"
    if args.kmax >= args.dim + 1:
        degree = str(bodies._fit_degree(b.dims, args.dim).degree)
    doc = {
        "dim": args.dim,
        "kmax": args.kmax,
        "points": [[str(Fraction(x, b.scale)) for x in p] for p in b.points],
        "hull_vertices": [[str(Fraction(x, b.scale)) for x in p] for p in b.hull],
        "lattice": [list(row) for row in b.lattice],
        "volume": volume,
        "degree": degree,
        "stable": b.stable,
    }
    _emit(doc, args.out)
    return 0


# One row per verify scanner: its runner, late-bound so that a replaced
# concavity function is the one that runs; the options it reads, the only ones
# its parser takes besides --jobs and --out, each with the least value at which
# its domain is nonempty, or None; each record kind's status, named after the
# scanner if it has one; an extra option check or None; and its LR cache use.
class _Scanner(Record):
    __slots__ = ("run", "minimums", "status", "check", "lr_cache")
    _defaults = {"check": None, "lr_cache": False}


def _k_below_n(args) -> None:
    if args.k >= args.n:
        raise ParseError(f"verify {args.scanner}: --k must be < --n, got {args.k} >= {args.n}")


_SCANNERS = {
    "theorem1": _Scanner(
        lambda a: concavity.theorem1_scan(a.bound, jobs=a.jobs),
        {"bound": 0}, {"theorem1": "theorem"},
    ),
    "slm": _Scanner(
        lambda a: concavity.slm_scan(a.bound, jobs=a.jobs),
        {"bound": 0}, {"slm": "theorem"},
    ),
    "conj1": _Scanner(
        lambda a: concavity.conjecture1_scan(a.bound, a.rank, a.pq),
        {"bound": 0, "rank": 1, "pq": 2}, {"conj1": "refuted conjecture"}, lr_cache=True,
    ),
    "saturation": _Scanner(
        lambda a: concavity.saturation_scan_all(a.bound, a.rank, a.kmax),
        {"bound": 0, "rank": 1, "kmax": 1}, {"saturation": "theorem", "power_bound": "open"},
        lr_cache=True,
    ),
    "logv": _Scanner(
        lambda a: concavity.logv_scan(a.rank, a.bound),
        {"bound": 0, "rank": 1}, {"logv": "theorem"},
    ),
    "alpha": _Scanner(
        lambda a: concavity.alpha_scan(a.rank, a.bound, a.pq),
        {"bound": 0, "rank": 1, "pq": 2}, {"alpha": "open"}, lr_cache=True,
    ),
    "weyl": _Scanner(
        lambda a: concavity.weyl_logconcavity_scan(a.rank, a.bound),
        {"bound": 0, "rank": 1}, {"weyl": "theorem"},
    ),
    "restriction": _Scanner(
        lambda a: concavity.restriction_logconcavity_scan(a.n, a.k, a.bound),
        {"bound": 0, "n": 1, "k": 0}, {"restriction": "theorem"}, check=_k_below_n,
    ),
    "convolution": _Scanner(
        lambda a: concavity.convolution_random_suite(a.cases, a.bound, a.seed),
        {"bound": 1, "cases": 1, "seed": None}, {"convolution": "theorem"},
    ),
}

# each verify option's default and help: a scanner's parser takes --jobs and those its row names
_SCAN_OPTIONS = dict(
    bound=(4, "weight/entry/length bound"), kmax=(3, "stretch bound"), n=(4, "ambient rank"),
    pq=(2, "bound on p+q for midpoints"), rank=(2, "weight rank"), k=(2, "subgroup rank"),
    cases=(200, "random cases"), seed=(0, "random seed"), jobs=(1, "cap on worker processes"),
)


def _check_scan_args(args) -> None:
    """Raise ParseError for options that together make the scan invalid, for an
    --out or a $LOGCAVE_CACHE_DIR the scan could not use.  A scan that uses the
    LR cache gets it made here, by lr._default_cache()."""
    row = _SCANNERS[args.scanner]
    if row.check:
        row.check(args)
    if args.out:
        # the CSV summary too, so that neither file is written unless both can be
        for path in (args.out, _csv_path(args.out)):
            if os.path.isdir(path) or not os.path.isdir(os.path.dirname(path) or "."):
                raise ParseError(
                    f"verify {args.scanner}: --out must name a file in an existing "
                    f"directory, and {path} is not one"
                )
    if row.lr_cache:
        try:
            lr._default_cache()
        except OSError as exc:
            raise ParseError(
                f"verify {args.scanner}: cannot use {exc.filename} for the LR cache "
                f"({exc.strerror})"
            ) from None


def run_scan(args) -> tuple[dict, int]:
    """Dispatch a verify subcommand; returns (report, exit code).

    args.argv is the command line the manifest records.  A ValueError from
    a scan whose options passed the checks is a fault, not an input error.
    """
    name = args.scanner
    t0 = time.monotonic()  # before the check, which loads the LR cache
    _check_scan_args(args)
    try:
        rep = _SCANNERS[name].run(args)
    except ValueError as exc:
        raise RuntimeError(f"verify {name} failed on accepted options") from exc
    runtime_ms = int((time.monotonic() - t0) * 1000)
    report = build_report(
        name, rep.params, rep.checked, rep.violations, runtime_ms, args.argv, rep.workers
    )
    return report, (0 if not rep.violations else 1)


def _cmd_verify(args) -> int:
    report, code = run_scan(args)
    write_report(report, args.out)
    return code


def _emit(doc: dict, out_path: str | None) -> None:
    text = json.dumps(doc, sort_keys=True, indent=2)
    if out_path:
        with _open_out(out_path) as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _open_out(path: str, **kwargs):
    """open(path, "w"), reporting a path that cannot be written as a ParseError."""
    try:
        return open(path, "w", encoding="ascii", **kwargs)
    except OSError as exc:
        raise ParseError(f"cannot write {path}: {exc.strerror}") from None


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose sub-parsers, of its class, each reject an argument
    they do not read, with their own usage line rather than the top level's."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extra = super().parse_known_args(args, namespace)
        if extra:
            self.error(f"unrecognized arguments: {' '.join(extra)}")
        return namespace, extra


def _at_least(least: int):
    """An argparse type: an integer that is least or more."""

    def integer(text: str) -> int:  # argparse names it: "invalid integer value: 'x'"
        if (value := int(text)) < least:
            raise argparse.ArgumentTypeError(f"must be >= {least}, got {value}")
        return value

    return integer


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="logcave",
        description="Exact multiplicity computations and log-concavity verifiers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("schur", help="skew Schur expansion")
    p.add_argument("--shape", required=True, help='skew shape, e.g. "3,1/1"')
    p.add_argument("--vars", type=int, required=True, help="number of variables")
    p.add_argument("--basis", choices=["monomial", "schur"], default="monomial")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_schur)

    p = sub.add_parser("lr", help="Littlewood-Richardson coefficient")
    p.add_argument("--lam", required=True)
    p.add_argument("--mu", required=True)
    p.add_argument("--nu", required=True)
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_lr)

    p = sub.add_parser("restrict", help="restriction multiplicity")
    p.add_argument("--lam", required=True)
    p.add_argument("--mu", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_restrict)

    p = sub.add_parser("toeplitz", help="totally positive sequence checks")
    checks = p.add_subparsers(dest="check", required=True, metavar="check")
    two = checks.add_parser("2x2", help="x_n^2 >= x_{n-1} x_{n+1} over the support")
    schur = checks.add_parser("schur", help="Schur coefficients >= 0 in --rank variables")
    schur.add_argument("--rank", type=int, default=2, help="number of variables")
    schur.add_argument("--bound", type=_at_least(0), default=6, help="weight bound")
    for c in (two, schur):
        c.add_argument("--seq", required=True, help='finitely supported, e.g. "0:1,1:1"')
        c.add_argument("--out")
    p.set_defaults(func=_cmd_toeplitz)

    p = sub.add_parser("body", help="valuation body of a polynomial subspace")
    p.add_argument("--dim", type=int, choices=(1, 2, 3), required=True, help="ambient dimension")
    p.add_argument("--basis", required=True, help='semicolon-separated, e.g. "1; x; y"')
    p.add_argument("--kmax", type=int, default=4)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_body)

    p = sub.add_parser("verify", help="run a verifier scan")
    verdict = "a violation of a theorem is a bug, any other a finding"
    scanners = p.add_subparsers(dest="scanner", required=True, metavar="scanner", help=verdict)
    for name, row in _SCANNERS.items():
        kinds = [s if len(row.status) == 1 else f"{kind}: {s}" for kind, s in row.status.items()]
        # no abbreviations: saturation would read --k as --kmax
        scan = scanners.add_parser(name, help="; ".join(kinds), allow_abbrev=False)
        for option, least in {**row.minimums, "jobs": 1}.items():
            default, text = _SCAN_OPTIONS[option]
            floor = int if least is None else _at_least(least)
            scan.add_argument(f"--{option}", type=floor, default=default, help=text)
        scan.add_argument("--out")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    args.argv = list(argv) if argv is not None else sys.argv[1:]
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader stopped early, as `logcave ... | head` does: not a
        # fault.  stdout goes to devnull so the flush at exit stays quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141  # 128 + SIGPIPE, as a shell reports a command a pipe killed
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        # imported here so that every run does not pay for it at startup
        import traceback

        traceback.print_exc()
        return 3


def entry() -> int:
    """main() for a process that ends when it returns: the logcave script and python -m.

    gc.freeze() moves every object left to the permanent generation, so the
    collections at interpreter exit do not walk the memos and the report
    once more.  main() leaves the collector alone, because in-process callers
    go on running.
    """
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(entry())
