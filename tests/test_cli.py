import argparse
import copy
import gc
import hashlib
import itertools
import json
import os
import re
import shlex
import subprocess
import sys
import weakref
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from logcave import bodies, lr
from logcave.bodies import PolynomialSubspace
from logcave.cli import (
    _SCANNERS,
    ParseError,
    build_parser,
    build_report,
    canonical_payload,
    entry,
    format_partition,
    format_weight,
    main,
    parse_partition,
    parse_polynomial,
    parse_sequence,
    parse_shape,
)

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(autouse=True)
def _fresh_lr_cache():
    # verify's option check makes the memoised LR cache: none passes between tests
    lr.reset_default_cache()
    yield
    lr.reset_default_cache()


def test_parse_partition():
    assert parse_partition("3,1") == (3, 1)
    assert parse_partition("0") == ()
    assert parse_partition("") == ()
    assert parse_partition(" 4, 2 ,2") == (4, 2, 2)
    with pytest.raises(ParseError, match="entry 1"):
        parse_partition("3,x")
    with pytest.raises(ParseError):
        parse_partition("1,2")


def test_partition_weight_round_trip():
    for p in [(), (3, 1), (5, 5, 2)]:
        assert parse_partition(format_partition(p)) == p
    assert format_weight((2, 1, 0)) == "2,1,0@3"
    assert format_weight((-1, -2)) == "-1,-2@2"
    assert format_weight((0, 0, 0, 0)) == "0,0,0,0@4"


def test_parse_shape():
    s = parse_shape("3,1/1")
    assert (s.outer, s.inner) == ((3, 1), (1,))
    s = parse_shape("2,2")
    assert (s.outer, s.inner) == ((2, 2), ())


def test_parse_polynomial():
    p = parse_polynomial("x^2*y - 1/2", 2)
    assert p.terms == {(2, 1): F(1), (0, 0): F(-1, 2)}
    p = parse_polynomial("3*x^2*y - 1/2*y", 2)
    assert p.terms == {(2, 1): F(3), (0, 1): F(-1, 2)}
    assert parse_polynomial("1", 2).terms == {(0, 0): F(1)}
    assert parse_polynomial("-x + x", 1).is_zero()
    p = parse_polynomial("x*x*y^2", 2)
    assert p.terms == {(2, 2): F(1)}
    with pytest.raises(ParseError, match="unknown variable"):
        parse_polynomial("x*w", 2)
    with pytest.raises(ParseError):
        parse_polynomial("", 2)
    with pytest.raises(ParseError, match="position 2: zero denominator"):
        parse_polynomial("1+3/0*x", 1)
    # positions count in the text as typed, spaces included
    with pytest.raises(ParseError, match="position 4: zero denominator"):
        parse_polynomial("1 + 3/0*x", 1)
    with pytest.raises(ParseError, match="position 6: unknown variable"):
        parse_polynomial("  1 + w", 1)
    with pytest.raises(ParseError, match="position 5: empty term"):
        parse_polynomial("1 +  + x", 1)
    with pytest.raises(ParseError, match=r"position 0: cannot parse term 'x\^y'"):
        parse_polynomial("x^y", 1)
    # a dangling last sign leaves an empty term just past it
    for text, where in (("1+", 2), ("x -", 3), ("x - ", 3), ("-", 1), ("1 + x -", 7)):
        with pytest.raises(ParseError, match=f"position {where}: empty term"):
            parse_polynomial(text, 1)
    # * may be left out after a coefficient or a power
    assert parse_polynomial("x^2y", 3).terms == {(2, 1, 0): F(1)}
    assert parse_polynomial("2x", 3).terms == {(1, 0, 0): F(2)}
    assert parse_polynomial("z^2x^2", 3).terms == {(2, 0, 2): F(1)}
    # but only after a coefficient or a factor: never first in a term
    for text, where, term in (("*x", 0, "*x"), ("-*x^3y", 1, "*x^3y"), ("1 + *y", 4, "*y")):
        message = f"position {where}: cannot parse term '{term}'"
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            parse_polynomial(text, 2)


@pytest.mark.parametrize(
    "text, where, kind",
    [
        ("1 +  + x", 5, "empty term"),
        ("x +", 3, "empty term"),
        ("1 - x^y", 4, "cannot parse term"),
        ("1 + 3/0*x", 4, "zero denominator"),
        ("2 - x*w", 4, "unknown variable"),
    ],
)
@pytest.mark.parametrize("k", [0, 1, 3])
def test_parse_polynomial_positions_count_leading_spaces(text, where, kind, k):
    with pytest.raises(ParseError, match=f"^position {where + k}: {kind}"):
        parse_polynomial(" " * k + text, 2)


@st.composite
def _rendered_terms(draw):
    """(text, dim, terms): random terms rendered as text, and their sum taken term by term.

    A coefficient is p or p/q or left out; a term has up to three variable
    powers, a variable may repeat, and * is left out at random where the
    grammar allows it; some terms are followed by one that cancels them, and
    spaces go anywhere.
    """
    dim = draw(st.integers(1, 3))
    rendered, terms = [], {}
    for _ in range(draw(st.integers(1, 4))):
        coeff = draw(st.none() | st.tuples(st.integers(0, 12), st.integers(1, 12) | st.none()))
        factor = st.tuples(st.sampled_from("xyz"[:dim]), st.integers(0, 4) | st.none())
        factors = draw(st.lists(factor, max_size=3))
        if coeff is None and not factors:
            coeff = (1, None)
        value = F(1) if coeff is None else F(coeff[0], coeff[1] or 1)
        first = draw(st.booleans())
        for negative in [first, not first][: 1 + draw(st.booleans())]:
            text = "" if coeff is None else "/".join(str(n) for n in coeff if n is not None)
            exps = [0] * dim
            for i, (name, exp) in enumerate(factors):
                # "xy" is one unknown name: only a coefficient or a power may precede a bare name
                if (i > 0 and factors[i - 1][1] is None) or (text and draw(st.booleans())):
                    text += "*"
                text += name + ("" if exp is None else f"^{exp}")
                exps["xyz".index(name)] += 1 if exp is None else exp
            sign = "-" if negative else "+" if rendered else draw(st.sampled_from(["+", ""]))
            rendered.append(sign + text)
            terms[tuple(exps)] = terms.get(tuple(exps), 0) + (-value if negative else value)
    text = "".join(rendered)
    spaces = draw(st.lists(st.integers(0, 2), min_size=len(text) + 1, max_size=len(text) + 1))
    text = "".join(" " * n + ch for n, ch in zip(spaces, [*text, ""]))
    return text, dim, {e: c for e, c in terms.items() if c}


@given(_rendered_terms())
def test_parse_polynomial_reads_rendered_terms(case):
    text, dim, terms = case
    assert parse_polynomial(text, dim).terms == terms


def test_parse_sequence():
    s = parse_sequence("0:1,1:1/2")
    assert s.support == {0: F(1), 1: F(1, 2)}
    s = parse_sequence("-1:2, 3:1")
    assert s.support == {-1: F(2), 3: F(1)}
    assert parse_sequence("0:1,,1:1") == parse_sequence("0:1,1:1")
    with pytest.raises(ParseError, match="bad index"):
        parse_sequence("a:1")
    with pytest.raises(ParseError, match="bad value"):
        parse_sequence("0:x")
    with pytest.raises(ParseError, match="sequence entry 1: repeated index 0"):
        parse_sequence("0:1,0:2")
    with pytest.raises(ParseError, match="sequence entry 2: repeated index 1"):
        parse_sequence("1:1, 0:3, 01:1")


def test_cli_schur(capsys):
    assert main(["schur", "--shape", "3,1/1", "--vars", "4", "--basis", "schur"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["terms"] == {"3": "1", "2,1": "1"}


def test_cli_lr(capsys):
    assert main(["lr", "--lam", "3,2,1", "--mu", "2,1", "--nu", "2,1", "--rank", "3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["value"] == "2"


def test_cli_restrict(capsys):
    assert main(["restrict", "--lam", "2,1", "--mu", "0", "--n", "3", "--k", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["value"] == "2"


def test_cli_toeplitz_exit_codes(capsys):
    assert main(["toeplitz", "2x2", "--seq", "0:1,1:1"]) == 0
    assert json.loads(capsys.readouterr().out)["check"] == "2x2"
    assert main(["toeplitz", "schur", "--seq", "0:1,2:1", "--rank", "2", "--bound", "4"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["check"] == "schur" and doc["failing_weight"] == "1,1"
    assert main(["toeplitz", "2x2", "--seq", "0:1,0:2"]) == 2
    captured = capsys.readouterr()
    assert "repeated index 0" in captured.err and not captured.out
    assert main(["toeplitz", "2x2", "--seq", "0:-1"]) == 2
    captured = capsys.readouterr()
    assert "negative value x_0 = -1" in captured.err and not captured.out
    # a sequence that starts at a negative index is given with "=", or it reads as an option
    assert main(["toeplitz", "schur", "--seq=-3:1,-2:1"]) == 0
    assert json.loads(capsys.readouterr().out)["passed"] is True
    # the check is named: there is no default
    assert main(["toeplitz", "--seq", "0:1,1:1"]) == 2
    err = capsys.readouterr().err
    assert "argument check: invalid choice" in err and "2x2" in err and "schur" in err


@pytest.mark.parametrize("basis", ["1; 3/0*x", "1; x - 1/0"])
def test_cli_body_rejects_zero_denominator(basis, capsys):
    assert main(["body", "--dim", "1", "--basis", basis]) == 2
    err = capsys.readouterr().err
    assert "zero denominator" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "basis, where",
    [
        ("1; 3/0*x", "polynomial 2: position 1: zero denominator"),
        ("1; x - 1/0", "polynomial 2: position 5: zero denominator"),
        ("3/0; x", "polynomial 1: position 0: zero denominator"),
        ("1;; x + w", "polynomial 3: position 5: unknown variable"),
        ("1; x +", "polynomial 2: position 4: empty term"),
        ("1; *x", "polynomial 2: position 1: cannot parse term '*x'"),
    ],
)
def test_cli_body_names_the_failing_polynomial(basis, where, capsys):
    assert main(["body", "--dim", "1", "--basis", basis]) == 2
    assert f"error: {where}" in capsys.readouterr().err


def test_cli_toeplitz_schur_rejects_negative_bound(monkeypatch, capsys):
    from logcave import toeplitz

    def no_check(*args, **kwargs):
        raise AssertionError("check started")

    monkeypatch.setattr(toeplitz, "character_positivity_check", no_check)
    argv = ["toeplitz", "schur", "--seq", "0:1,1:1", "--bound", "-1"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: logcave toeplitz schur [-h]")
    assert "logcave toeplitz schur: error: argument --bound: must be >= 0, got -1\n" in err


def test_cli_body(tmp_path):
    out = tmp_path / "body.json"
    code = main(
        ["body", "--dim", "2", "--basis", "1; x; y", "--kmax", "4", "--out", str(out)]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["volume"] == "1/2"
    assert doc["degree"] == "1"
    assert doc["stable"] is True
    assert ["1", "0"] in doc["hull_vertices"]


def test_cli_body_builds_one_power_tower(tmp_path, monkeypatch):
    calls = []
    real = bodies.subspace_product

    def counting(s1, s2):
        calls.append(1)
        return real(s1, s2)

    monkeypatch.setattr(bodies, "subspace_product", counting)
    out = tmp_path / "body.json"
    argv = ["body", "--dim", "2", "--basis", "1; x; y", "--kmax", "6", "--out", str(out)]
    assert main(argv) == 0
    # s^2 .. s^6: the body and its degree share one tower
    assert len(calls) == 5
    # recorded while the degree came from a second tower; the bytes must not move
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == "98d11202edafd28de4f98bd5e2ef3d467da348fa3163a475599f580eac4a80f7"


@pytest.mark.parametrize(
    "dim,basis,kmax",
    [("1", "1; x^2; x^3", "5"), ("2", "1; x; y^2; x*y", "5"), ("3", "1; x; y; z", "4")],
)
def test_cli_body_degree_matches_degree_estimate(dim, basis, kmax, tmp_path):
    out = tmp_path / "body.json"
    argv = ["body", "--dim", dim, "--basis", basis, "--kmax", kmax, "--out", str(out)]
    assert main(argv) == 0
    subspace = PolynomialSubspace(
        int(dim), [parse_polynomial(p, int(dim)) for p in basis.split(";")]
    )
    expected = bodies.degree_estimate(subspace, int(kmax)).degree
    assert json.loads(out.read_text())["degree"] == str(F(expected))


@pytest.mark.parametrize(
    "dim,basis", [("0", "1"), ("4", "1;x1;x2;x3;x4")]
)
def test_cli_body_rejects_unsupported_dimension(dim, basis, monkeypatch, capsys):
    def no_body(*args, **kwargs):
        raise AssertionError("body started")

    monkeypatch.setattr(bodies, "body_approximation", no_body)
    assert main(["body", "--dim", dim, "--basis", basis, "--kmax", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: logcave body [-h]")
    choice = f"argument --dim: invalid choice: {dim} (choose from 1, 2, 3)"
    assert f"logcave body: error: {choice}\n" in err


def test_cli_error_exit_code(capsys):
    assert main(["lr", "--lam", "1,2", "--mu", "0", "--nu", "0", "--rank", "2"]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_verify_report_and_csv(tmp_path):
    out = tmp_path / "report.json"
    code = main(["verify", "weyl", "--rank", "3", "--bound", "3", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["violations"] == []
    assert doc["checked"] > 0
    assert doc["manifest"]["output_digest"].startswith("sha256:")
    csv_text = (tmp_path / "report.csv").read_text()
    assert "weyl" in csv_text and str(doc["checked"]) in csv_text


def _payload(doc):
    return canonical_payload({k: doc[k] for k in ("subcommand", "params", "checked", "violations")})


_VIOLATION = {"rank": 2, "mu": "2,0", "nu": "0,0", "lam": "2,0"}


@pytest.mark.parametrize("violations", [[], [_VIOLATION]])
def test_output_digest_is_the_sha256_of_the_payload(violations):
    argv = ["verify", "logv", "--rank", "2", "--bound", "2"]
    doc = build_report("logv", {"rank_bound": 2, "entry_bound": 2}, 48, violations, 7, argv, 1)
    expected = "sha256:" + hashlib.sha256(_payload(doc)).hexdigest()
    assert doc["manifest"]["output_digest"] == expected


def test_output_digest_uses_the_interpreters_own_sha256():
    """Not hashlib's, which loads OpenSSL's libcrypto for one small digest."""
    from logcave import cli

    module = cli._sha256.__module__
    assert module in sys.stdlib_module_names and module != "_hashlib"


def test_output_digest_falls_back_to_hashlib():
    """A build without _sha2 and _sha256 digests through hashlib, to the same string."""
    probe = (
        "import sys\n"
        "sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
        "from logcave import cli\n"
        f"doc = cli.build_report('logv', {{}}, 48, [{_VIOLATION!r}], 7, [], 1)\n"
        "print(cli._sha256.__module__, doc['manifest']['output_digest'])\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    expected = build_report("logv", {}, 48, [_VIOLATION], 7, [], 1)["manifest"]["output_digest"]
    assert out.stdout.split() == ["_hashlib", expected]


def test_verify_reports_identical_across_worker_counts(tmp_path, monkeypatch):
    monkeypatch.setattr("logcave.concavity._POOL_MIN_CLASSES", 1)  # a real pool at this size
    docs = []
    for jobs in ("1", "8"):
        out = tmp_path / f"t{jobs}.json"
        code = main(
            ["verify", "theorem1", "--bound", "4", "--jobs", jobs, "--out", str(out)]
        )
        assert code == 0
        docs.append(json.loads(out.read_text()))
    assert _payload(docs[0]) == _payload(docs[1])
    assert (
        docs[0]["manifest"]["output_digest"] == docs[1]["manifest"]["output_digest"]
    )


def test_manifest_records_the_workers_the_scan_used(tmp_path, monkeypatch):
    """--jobs stays in argv; manifest.jobs is 1 for a scan below the pool's
    floor, and the pool's size for a pooled one."""
    out = tmp_path / "r.json"
    argv = ["verify", "slm", "--bound", "4", "--jobs", "2", "--out", str(out)]
    assert main(argv) == 0
    doc = json.loads(out.read_text())
    assert doc["manifest"]["jobs"] == 1 and doc["manifest"]["argv"] == argv
    serial = _payload(doc)
    monkeypatch.setattr("logcave.concavity._POOL_MIN_CLASSES", 1)
    monkeypatch.setattr("logcave.concavity._usable_cpus", lambda: 2)
    assert main(argv) == 0
    doc = json.loads(out.read_text())
    assert doc["manifest"]["jobs"] == 2 and _payload(doc) == serial


def test_manifest_replay_reproduces_reports(tmp_path):
    runs = [
        ["verify", "weyl", "--rank", "2", "--bound", "3"],
        ["verify", "conj1", "--rank", "1", "--bound", "2"],
        ["verify", "convolution", "--bound", "8", "--cases", "20", "--seed", "5"],
    ]
    for i, argv in enumerate(runs):
        first = tmp_path / f"a{i}.json"
        second = tmp_path / f"b{i}.json"
        assert main(argv + ["--out", str(first)]) == 0
        # replay with the parameters recorded in the manifest
        doc = json.loads(first.read_text())
        replay_argv = [a for a in doc["manifest"]["argv"] if not a.endswith(".json")]
        replay_argv = [a for a in replay_argv if a != "--out"]
        assert main(replay_argv + ["--out", str(second)]) == 0
        doc2 = json.loads(second.read_text())
        assert _payload(doc) == _payload(doc2)


@pytest.mark.parametrize("error", [AssertionError, RuntimeError, ValueError])
def test_cli_internal_error_is_exit_3(error, monkeypatch, capsys):
    import logcave.concavity as concavity

    def broken_scan(*args, **kwargs):
        raise error("scanner broke")

    monkeypatch.setattr(concavity, "weyl_logconcavity_scan", broken_scan)
    assert main(["verify", "weyl", "--rank", "2", "--bound", "2"]) == 3
    err = capsys.readouterr().err
    assert "Traceback" in err and f"{error.__name__}: scanner broke" in err


def test_cli_closed_pipe_is_exit_141_without_traceback():
    # the reader closes its end before the command writes anything, so
    # the write always meets a closed pipe
    env = dict(os.environ, PYTHONPATH=str(SRC))
    argv = [sys.executable, "-m", "logcave.cli", "body", "--dim", "1", "--basis", "1; x", "--kmax", "2"]
    with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 141
    assert err == ""


def test_only_the_process_entry_freezes_the_collector(tmp_path, monkeypatch):
    """main() leaves the collector as it found it, for in-process callers;
    entry(), which the logcave script and python -m run, freezes it."""
    argv = ["verify", "weyl", "--rank", "2", "--bound", "2", "--out", str(tmp_path / "r.json")]
    assert gc.get_freeze_count() == 0
    assert main(argv) == 0
    assert gc.get_freeze_count() == 0
    monkeypatch.setattr(sys, "argv", ["logcave", *argv])
    try:
        assert entry() == 0
        assert gc.get_freeze_count() > 0
    finally:
        gc.unfreeze()


def test_cli_usage_error_is_exit_2():
    assert main(["verify", "nonsense"]) == 2
    assert main([]) == 2


@pytest.mark.parametrize(
    "argv,option",
    [
        (["verify", "weyl", "--rank", "0"], "--rank"),
        (["verify", "conj1", "--bound", "-1"], "--bound"),
        (["verify", "theorem1", "--bound", "-1"], "--bound"),
        (["verify", "slm", "--bound", "-2"], "--bound"),
        (["verify", "theorem1", "--bound", "2", "--jobs", "0"], "--jobs"),
        (["verify", "convolution", "--bound", "0"], "--bound"),
    ],
)
def test_verify_rejects_vacuous_inputs_before_scanning(argv, option, monkeypatch, capsys):
    import logcave.concavity as concavity

    def no_scan(*args, **kwargs):
        raise AssertionError("scan started")

    for name in (
        "theorem1_scan",
        "slm_scan",
        "conjecture1_scan",
        "weyl_logconcavity_scan",
        "convolution_random_suite",
    ):
        monkeypatch.setattr(concavity, name, no_scan)
    assert main(argv) == 2
    err = capsys.readouterr().err
    # the scanner's own parser reports it, with its usage line
    assert err.startswith(f"usage: logcave verify {argv[1]} [-h]")
    assert f"logcave verify {argv[1]}: error: argument {option}: must be >= " in err
    assert "randrange" not in err


@pytest.mark.parametrize("n,k", [(3, 3), (2, 5)])
def test_verify_restriction_rejects_k_not_below_n_before_scanning(n, k, monkeypatch, capsys):
    import logcave.concavity as concavity

    def no_scan(*args, **kwargs):
        raise AssertionError("scan started")

    monkeypatch.setattr(concavity, "restriction_logconcavity_scan", no_scan)
    assert main(["verify", "restriction", "--n", str(n), "--k", str(k)]) == 2
    err = capsys.readouterr().err
    assert "--k must be < --n" in err and "Traceback" not in err


@pytest.mark.parametrize("out", ["missing/report.json", ""])
def test_verify_rejects_an_unwritable_out_before_scanning(out, tmp_path, monkeypatch, capsys):
    import logcave.concavity as concavity

    def no_scan(*args, **kwargs):
        raise AssertionError("scan started")

    monkeypatch.setattr(concavity, "weyl_logconcavity_scan", no_scan)
    path = str(tmp_path / out)  # "" names tmp_path, a directory
    assert main(["verify", "weyl", "--rank", "2", "--bound", "3", "--out", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and path in err


def _wrap_runner(monkeypatch, scanner: str) -> list:
    """Install a copy of the scanner's row whose runner records each call; returns the calls."""
    calls = []
    row = copy.copy(_SCANNERS[scanner])
    scan = row.run
    row.run = lambda a: calls.append(a) or scan(a)
    monkeypatch.setitem(_SCANNERS, scanner, row)
    return calls


_LR_CACHE_SCANNERS = [name for name, row in _SCANNERS.items() if row.lr_cache]


def test_verify_reports_an_unwritable_csv_as_exit_2(tmp_path, capsys, monkeypatch):
    calls = _wrap_runner(monkeypatch, "weyl")
    (tmp_path / "report.csv").mkdir()
    out = tmp_path / "report.json"
    assert main(["verify", "weyl", "--rank", "2", "--bound", "3", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(tmp_path / "report.csv") in err
    # refused before the scan, and no half of the output is left behind
    assert not calls
    assert not out.exists()


@pytest.mark.parametrize("scanner", _LR_CACHE_SCANNERS)
@pytest.mark.parametrize("below", ["", "sub"])
def test_verify_rejects_a_cache_dir_that_is_a_file(scanner, below, tmp_path, monkeypatch, capsys):
    calls = _wrap_runner(monkeypatch, scanner)
    (tmp_path / "cache").write_text("not a directory\n")
    cache_dir = str(tmp_path / "cache" / below)
    monkeypatch.setenv("LOGCAVE_CACHE_DIR", cache_dir)
    out = tmp_path / "report.json"
    assert main(["verify", scanner, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and cache_dir in err
    assert not calls
    assert not out.exists() and not (tmp_path / "report.csv").exists()


@pytest.mark.parametrize("scanner", _LR_CACHE_SCANNERS)
def test_verify_rejects_a_cache_file_it_cannot_read(scanner, tmp_path, monkeypatch, capsys):
    from logcave import cli

    calls = _wrap_runner(monkeypatch, scanner)
    monkeypatch.setenv("LOGCAVE_CACHE_DIR", str(tmp_path))
    cache_file = tmp_path / lr.CACHE_FILE
    # the check reads an existing file and never makes one
    cli._check_scan_args(build_parser().parse_args(["verify", scanner]))
    assert not cache_file.exists()
    lr.reset_default_cache()
    cache_file.mkdir()
    out = tmp_path / "report.json"
    assert main(["verify", scanner, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and str(cache_file) in err
    assert not calls
    assert not out.exists() and not (tmp_path / "report.csv").exists()


def test_verify_scans_with_the_cache_its_check_made(tmp_path, monkeypatch):
    made = []  # weak references, so that a dropped cache is freed

    class RecordedCache(lr.LRCache):
        def __init__(self, path):
            super().__init__(path)
            made.append(weakref.ref(self))

    monkeypatch.setattr(lr, "LRCache", RecordedCache)
    seen = []
    for name in ("alpha", "saturation"):
        row = copy.copy(_SCANNERS[name])

        def run(a, scan=row.run):
            # the caches made before the scan, and whether it looks up the last of them
            seen.append((len(made), lr._default_cache() is made[-1]()))
            return scan(a)

        row.run = run
        monkeypatch.setitem(_SCANNERS, name, row)
    out = str(tmp_path / "r.json")
    monkeypatch.setenv("LOGCAVE_CACHE_DIR", str(tmp_path / "a"))
    assert main(["verify", "alpha", "--rank", "2", "--bound", "2", "--out", out]) == 0
    assert seen == [(1, True)]
    file_a = tmp_path / "a" / lr.CACHE_FILE
    lines_a = file_a.read_bytes()
    handle = made[0]()._fh
    assert lines_a and not handle.closed
    # the check and the scan follow the variable to a new directory
    monkeypatch.setenv("LOGCAVE_CACHE_DIR", str(tmp_path / "b"))
    assert main(["verify", "saturation", "--out", out]) == 0
    assert seen[1] == (2, True)
    assert (tmp_path / "b" / lr.CACHE_FILE).read_bytes()
    assert file_a.read_bytes() == lines_a
    # the cache it dropped is freed, its handle closed
    assert made[0]() is None and handle.closed


def test_cli_schur_unwritable_out_is_exit_2(tmp_path, capsys):
    out = str(tmp_path / "missing" / "schur.json")
    assert main(["schur", "--shape", "2,1", "--vars", "2", "--out", out]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert out in captured.err and not captured.out


# the options of a scan's domain, each named by the rows of the scanners that read it
_DOMAIN_OPTIONS = ["bound", "rank", "pq", "kmax", "n", "k", "cases", "seed"]
_READ = [(name, o) for name, row in _SCANNERS.items() for o in row.minimums]
_UNREAD = [
    (name, o) for name, row in _SCANNERS.items() for o in _DOMAIN_OPTIONS if o not in row.minimums
]


def test_scanner_table_matches_verify_choices():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    verify = sub.choices["verify"]
    scanners = next(a for a in verify._actions if isinstance(a, argparse._SubParsersAction))
    assert scanners.dest == "scanner" and list(scanners.choices) == list(_SCANNERS)
    # the help reads each scanner's status from its row
    helps = {a.dest: a.help for a in scanners._choices_actions}
    assert helps["conj1"] == "refuted conjecture"
    assert helps["saturation"] == "saturation: theorem; power_bound: open"
    # each parser takes the options its row names, --jobs and --out: 30 scanner-option pairs
    options = {
        name: [a.dest for a in parser._actions if a.dest != "help"]
        for name, parser in scanners.choices.items()
    }
    assert options == {name: [*row.minimums, "jobs", "out"] for name, row in _SCANNERS.items()}
    assert len(_READ) + len(_SCANNERS) == 30 and len(_UNREAD) == 51
    assert {o for _, o in _READ} == set(_DOMAIN_OPTIONS)


@pytest.mark.parametrize("scanner, option", _UNREAD)
def test_verify_rejects_an_option_its_scanner_does_not_read(scanner, option, monkeypatch, capsys):
    calls = _wrap_runner(monkeypatch, scanner)
    assert main(["verify", scanner, f"--{option}", "1"]) == 2
    err = capsys.readouterr().err
    # the scanner's own parser reports it, with its usage line
    assert err.startswith(f"usage: logcave verify {scanner} [-h]")
    assert f"logcave verify {scanner}: error: unrecognized arguments: --{option} 1\n" in err
    assert "Traceback" not in err
    assert not calls


@pytest.mark.parametrize(
    "argv",
    [
        ["schur", "--shape", "1", "--vars", "1", "--rank", "2"],
        ["lr", "--lam", "1", "--mu", "1", "--nu", "0", "--rank", "2", "--vars", "3"],
        ["restrict", "--lam", "1", "--mu", "1", "--n", "2", "--k", "1", "--vars", "3"],
        ["toeplitz", "2x2", "--seq", "0:1", "--vars", "3"],
        ["toeplitz", "2x2", "--seq", "0:1", "--rank", "2"],
        ["toeplitz", "2x2", "--seq", "0:1", "--bound", "-5"],
        ["toeplitz", "schur", "--seq", "0:1", "--vars", "3"],
        ["body", "--dim", "1", "--basis", "1", "--vars", "3"],
    ],
)
def test_an_option_is_rejected_by_the_parser_of_its_subcommand(argv, monkeypatch, capsys):
    from logcave import toeplitz

    def no_check(*args, **kwargs):
        raise AssertionError("check started")

    monkeypatch.setattr(toeplitz, "two_by_two_scan", no_check)
    monkeypatch.setattr(toeplitz, "character_positivity_check", no_check)
    assert main(argv) == 2
    err = capsys.readouterr().err
    # the words before the first option name the parser: "toeplitz 2x2" has its own
    prog = " ".join(itertools.takewhile(lambda word: not word.startswith("-"), argv))
    assert err.startswith(f"usage: logcave {prog} [-h]")
    assert f"logcave {prog}: error: unrecognized arguments: {' '.join(argv[-2:])}\n" in err


# each floor a verify parser puts on an option: the row's, and 1 for --jobs
_FLOORS = [
    (name, option, least)
    for name, row in _SCANNERS.items()
    for option, least in {**row.minimums, "jobs": 1}.items()
    if least is not None
]


@pytest.mark.parametrize("scanner, option, least", _FLOORS)
def test_the_parser_rejects_a_value_below_its_floor(
    scanner, option, least, tmp_path, monkeypatch, capsys
):
    calls = _wrap_runner(monkeypatch, scanner)
    monkeypatch.setenv("LOGCAVE_CACHE_DIR", str(tmp_path / "cache"))
    assert main(["verify", scanner, f"--{option}", str(least - 1)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: logcave verify {scanner} [-h]")
    message = f"argument --{option}: must be >= {least}, got {least - 1}"
    assert f"logcave verify {scanner}: error: {message}\n" in err
    # refused before the option check, which makes the LR cache, and before the scan
    assert not calls and not (tmp_path / "cache").exists()
    # a non-integer is refused by the same type
    assert main(["verify", scanner, f"--{option}", "1.5"]) == 2
    assert f"argument --{option}: invalid integer value: '1.5'" in capsys.readouterr().err


@pytest.mark.parametrize("scanner", list(_SCANNERS))
def test_every_default_passes_its_floor(scanner):
    """argparse passes only a string default through an option's type, so no
    floor sees an int default of _SCAN_OPTIONS: each is checked here."""
    args = build_parser().parse_args(["verify", scanner])
    for name, option, least in _FLOORS:
        if name == scanner:
            assert getattr(args, option) >= least, (scanner, option)


@pytest.mark.parametrize("scanner, option", _READ)
def test_every_option_a_row_names_reaches_the_report(scanner, option, tmp_path, monkeypatch):
    """A row names only options its runner reads: a value other than the default
    changes the report's params.  The value is one below the default where the
    option's floor allows, so that the scan stays small."""
    monkeypatch.delenv("LOGCAVE_CACHE_DIR", raising=False)
    default = getattr(build_parser().parse_args(["verify", scanner]), option)
    least = _SCANNERS[scanner].minimums[option]
    value = default - 1 if default - 1 >= (least or 0) else default + 1
    params = []
    for argv in (["verify", scanner], ["verify", scanner, f"--{option}", str(value)]):
        out = tmp_path / "report.json"
        assert main(argv + ["--out", str(out)]) in (0, 1)
        params.append(json.loads(out.read_text())["params"])
    assert params[0] != params[1]


@pytest.mark.parametrize("scanner", list(_SCANNERS))
def test_every_scanner_runs_at_its_option_minimums(scanner, tmp_path, monkeypatch):
    row = _SCANNERS[scanner]
    argv = ["verify", scanner]
    for option, least in row.minimums.items():
        if least is not None:  # None: any value will do, and the default is kept
            argv += [f"--{option}", str(least)]
    out = tmp_path / "report.json"
    cache_dir = tmp_path / "cache"
    monkeypatch.setenv("LOGCAVE_CACHE_DIR", str(cache_dir))
    assert main(argv + ["--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["checked"] >= 1
    assert "wall_time_ms" not in doc["manifest"]
    # the row's lr_cache flag says which scans write the cache file
    assert (cache_dir / lr.CACHE_FILE).exists() == row.lr_cache


def test_readme_command_lines_parse():
    """Each `logcave` line of README parses, with every `a|b` alternative, and
    the lines show every verify scanner and every toeplitz check."""
    text = (SRC.parent / "README.md").read_text().replace("\\\n", " ")
    parser = build_parser()
    verified = set()
    for line in text.splitlines():
        if not line.startswith("logcave "):
            continue
        for argv in itertools.product(*(w.split("|") for w in shlex.split(line)[1:])):
            try:
                parser.parse_args(argv)
            except SystemExit:
                pytest.fail(f"README: logcave {' '.join(argv)} does not parse")
            if argv[0] in ("verify", "toeplitz"):
                verified.add(argv[:2])
    checks = {("toeplitz", "2x2"), ("toeplitz", "schur")}
    assert verified == {("verify", name) for name in _SCANNERS} | checks


def test_readme_status_table_matches_the_scanner_table():
    text = (SRC.parent / "README.md").read_text()
    section = text.split("### Scanner status", 1)[1].split("\n### ", 1)[0]
    readme = set()
    for line in section.splitlines():
        if line.startswith("| `"):
            # "| `scanner` |" or "| `scanner`, rows of kind `kind` |", then statement, status
            cells = [c.strip() for c in line.strip("|").split("|")]
            names = re.findall(r"`(\w+)`", cells[0])
            readme.add((names[0], names[-1], cells[2]))
    table = {(name, kind, s) for name, row in _SCANNERS.items() for kind, s in row.status.items()}
    assert readme == table
    assert {s for _, _, s in table} == {"theorem", "refuted conjecture", "open"}


def test_cli_body_reports_a_degenerate_volume(tmp_path):
    # 1 and x span a segment in the plane: no area, but a report all the same
    out = tmp_path / "body.json"
    argv = ["body", "--dim", "2", "--basis", "1; x", "--kmax", "3", "--out", str(out)]
    assert main(argv) == 0
    assert json.loads(out.read_text())["volume"] == "degenerate: vertices span less than dimension 2"
