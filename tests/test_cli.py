import concurrent.futures
import hashlib
import json
import os
import pickle
import subprocess
import sys
import time
from pathlib import Path

import pytest

import maxcyc
from maxcyc import core, cyclic, theorems
from maxcyc import corpus as corpus_module
from maxcyc.cli import main
from maxcyc.core import coset_table
from maxcyc.corpus import (
    KEYS,
    SUITES,
    default_corpus_text,
    parse_corpus,
    run_suites,
)
from maxcyc.errors import CorpusError, NotPGroup, ParseError
from maxcyc.perm import Permutation


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eta_text(capsys):
    code, out, _ = run(capsys, "eta", "S(3) x D(10)")
    assert code == 0
    assert "eta: 4" in out
    assert "order: 60" in out


def test_eta_json_schema(capsys):
    code, out, _ = run(capsys, "eta", "SG72_50", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["order"] == 72
    assert payload["eta"] == 3
    assert payload["gminus_size"] == 30
    assert sorted(c["subgroup_order"] for c in payload["classes"]) == [4, 6, 6]
    assert all(set(c) == {"subgroup_order", "class_size"} for c in payload["classes"])


def test_eta_of_cyclic(capsys):
    code, out, _ = run(capsys, "eta", "C(12)")
    assert code == 0 and "eta: 1" in out


def test_normals_rows(capsys):
    code, out, _ = run(capsys, "normals", "D(30)", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert [r["order"] for r in payload["normal_subgroups"]] == [1, 3, 5, 15, 30]
    code, out, _ = run(capsys, "normals", "A(5)", "--format", "json")
    assert len(json.loads(out)["normal_subgroups"]) == 2
    code, out, _ = run(capsys, "normals", "EA(3,2)", "--format", "json")
    assert len(json.loads(out)["normal_subgroups"]) == 6


def test_quot_command(capsys):
    code, out, _ = run(capsys, "quot", "D(30)", "--order", "5", "--index", "0",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["equal"] is True
    assert payload["coset_union"] is False
    code, out, _ = run(capsys, "quot", "Dic12", "--order", "2", "--format", "json")
    assert json.loads(out)["equal"] is True
    code, out, _ = run(capsys, "quot", "C(4)", "--order", "2", "--format", "json")
    assert json.loads(out)["equal"] is True


def test_quot_no_such_normal_exits_2(capsys):
    code, _, err = run(capsys, "quot", "D(30)", "--order", "7")
    assert code == 2
    assert "error" in err


def test_xsub_command(capsys):
    code, out, _ = run(capsys, "xsub", "Q(8)", "--format", "json")
    assert code == 0
    assert json.loads(out)["x_order"] == 2
    code, out, _ = run(capsys, "xsub", "EA(3,2)", "--format", "json")
    assert json.loads(out)["x_order"] == 1
    code, out, _ = run(capsys, "xsub", "M16", "--format", "json")
    payload = json.loads(out)
    assert payload["cyclic"] is True
    code, _, err = run(capsys, "xsub", "S(3)")
    assert code == 2


def test_gminus_command(capsys):
    code, out, _ = run(capsys, "gminus", "D(30)", "--format", "json")
    assert code == 0
    assert json.loads(out)["gminus_size"] == 7


def test_gkgraph_command(capsys):
    code, out, _ = run(capsys, "gkgraph", "D(30)", "--format", "json")
    payload = json.loads(out)
    assert payload["vertices"] == [2, 3, 5]
    assert payload["edges"] == [[3, 5]]
    assert payload["components"] == 2


def test_parse_error_exits_2(capsys):
    code, _, err = run(capsys, "eta", "C(6")
    assert code == 2
    assert "index 3" in err


def test_arity_error_exits_2(capsys):
    code, _, err = run(capsys, "eta", "D(7)")
    assert code == 2


def test_cap_flags(capsys):
    code, _, err = run(capsys, "eta", "S(4)", "--order-cap", "10")
    assert code == 2
    assert "cap" in err


# A product is realized from its own degree and generators, like an atom, so
# a cap names the product: the degree cap its degree, the order cap the
# degree of the closure that outgrew it.
PRODUCT_CAP_ERRORS = {
    "S(7) x S(7)": "closure exceeds order cap 20000 (degree 14)",
    "C(200) x C(2)": "degree 202 exceeds degree cap 128",
}


@pytest.mark.parametrize("spec", sorted(PRODUCT_CAP_ERRORS))
def test_a_product_over_a_cap_is_refused_as_one_group(tmp_path, capsys, spec):
    corpus = tmp_path / "product.corpus"
    corpus.write_text(f"{spec}\n", encoding="utf-8")
    for argv, where in ((["eta", spec], ""),
                        (["verify", "--corpus", str(corpus)], "corpus line 1: ")):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"maxcyc: error: {where}{PRODUCT_CAP_ERRORS[spec]}\n"


# A product of many factors is a long chain of product nodes, read in a
# loop: it is refused at the degree cap, or realized within a larger one.
DEEP_PRODUCT = " x ".join(["C(1)"] * 1200)


def test_a_deep_product_is_refused_at_the_cap_and_realized_within_one(tmp_path, capsys):
    corpus = tmp_path / "deep.corpus"
    corpus.write_text(f"{DEEP_PRODUCT}\n", encoding="utf-8")
    message = "degree 1200 exceeds degree cap 128"
    assert run(capsys, "eta", DEEP_PRODUCT) == (2, "", f"maxcyc: error: {message}\n")
    assert run(capsys, "verify", "--corpus", str(corpus)) == (
        2, "", f"maxcyc: error: corpus line 1: {message}\n")
    code, out, err = run(capsys, "eta", DEEP_PRODUCT, "--degree-cap", "1200")
    assert (code, err) == (0, "")
    assert "\norder: 1\n" in out


def test_the_quotient_by_G_itself_is_refused_naming_the_law(tmp_path, capsys):
    message = "the quotient conditions require N proper in G; N is G (order 6)"
    assert run(capsys, "quot", "S(3)", "--order", "6") == (2, "", f"maxcyc: error: {message}\n")
    # a second entry gives --jobs 2 a pool of two workers
    corpus = tmp_path / "whole.corpus"
    corpus.write_text("S(3) ; quot_eta[6,0]=1\nC(2)\n", encoding="utf-8")
    for jobs in ("1", "2"):
        assert run(capsys, "verify", "--corpus", str(corpus), "--jobs", jobs) == (
            2, "", f"maxcyc: error: corpus line 1: quot_eta[6,0]: {message}\n")


# Atoms whose degree is far above the degree cap, with that degree.
OVERSIZED = {
    "C(1000000000)": 1_000_000_000,
    "D(100000000)": 50_000_000,
    "EA(2,100000000)": 200_000_000,
    "Perm(1000000000; (0 1))": 1_000_000_000,
    "Q(1073741824)": 1_073_741_824,
    "W(100003)": 10_000_600_009,
}


def _limit_address_space_to_1gb():
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize("spec", sorted(OVERSIZED))
def test_degree_cap_is_checked_before_generators_are_built(tmp_path, spec):
    # a generator of this degree alone would not fit in the 1 GB limit
    corpus = tmp_path / "oversized.corpus"
    corpus.write_text(f"{spec} ; eta=1\n", encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(Path(maxcyc.__file__).parents[1])}
    for argv in (["eta", spec], ["verify", "--corpus", str(corpus)]):
        proc = subprocess.run(
            [sys.executable, "-m", "maxcyc.cli", *argv], env=env, capture_output=True,
            text=True, preexec_fn=_limit_address_space_to_1gb, timeout=120,
        )
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout == ""
        assert f"degree {OVERSIZED[spec]} exceeds degree cap 128" in proc.stderr
        assert "Traceback" not in proc.stderr


# 10**18 + 3 is prime: each family takes it, and only the degree cap (or
# AGL1's bound on q) rejects the spec.
HUGE = 10**18 + 3


@pytest.mark.parametrize("spec", [f"EA({HUGE},1)", f"AGL1({HUGE},1)", f"W({HUGE})",
                                  f"Heis({HUGE})", f"C({HUGE})"])
def test_huge_parameters_are_rejected_at_once(tmp_path, capsys, spec):
    # the parameter checks cost time bounded by the number of digits
    start = time.perf_counter()
    code, out, err = run(capsys, "eta", spec)
    assert (code, out) == (2, "") and err.startswith("maxcyc: error: ")
    assert time.perf_counter() - start < 1

    start = time.perf_counter()
    with pytest.raises(CorpusError) as info:
        run_suites(list(SUITES), parse_corpus(f"{spec} ; eta=1\n"))
    assert info.value.line_no == 1
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("spec, message", [
    ("EA(4,2)", "EA(4,2): p must be prime"),
    (f"EA({HUGE - 1},1)", f"EA({HUGE - 1},1): p must be prime"),
    ("Heis(2)", "Heis(2): p must be an odd prime"),
    ("W(6)", "W(6): p must be prime"),
    ("AGL1(1,1)", "AGL1(1,1): q must be a prime power >= 2"),
    ("AGL1(10,3)", "AGL1(10,3): q must be a prime power >= 2"),
    ("AGL1(256,1)", "AGL1(256,1): q must be <= 128"),
    ("AGL1(7,4)", "AGL1(7,4): d must divide 6 (base prime 7 minus 1)"),
])
def test_parameter_errors_keep_their_messages(capsys, spec, message):
    code, _, err = run(capsys, "eta", spec)
    assert code == 2
    assert err == f"maxcyc: error: {message}\n"


def test_output_determinism(capsys):
    _, out1, _ = run(capsys, "eta", "SG72_50", "--format", "json")
    _, out2, _ = run(capsys, "eta", "SG72_50", "--format", "json")
    assert out1 == out2
    _, v1, _ = run(capsys, "verify", "--suite", "values", "--format", "json")
    _, v2, _ = run(capsys, "verify", "--suite", "values", "--format", "json")
    assert v1 == v2


def test_verify_single_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "pgrp-lemma", "--format", "json")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines
    for line in lines:
        payload = json.loads(line)
        assert payload["suite"] == "pgrp-lemma"
        assert payload["passed"] is True


def test_verify_unknown_suite_exits_2(capsys):
    code, _, err = run(capsys, "verify", "--suite", "bogus")
    assert code == 2
    assert "unknown suite" in err


def test_verify_corpus_parse_error_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.corpus"
    bad.write_text("C(6) ; eta\n", encoding="utf-8")
    code, _, err = run(capsys, "verify", "--corpus", str(bad))
    assert code == 2
    assert "line 1" in err


def test_verify_custom_corpus_and_failure_exit(tmp_path, capsys):
    good = tmp_path / "good.corpus"
    good.write_text("C(6) ; eta=1\n", encoding="utf-8")
    code, out, _ = run(capsys, "verify", "--corpus", str(good), "--suite", "values")
    assert code == 0

    wrong = tmp_path / "wrong.corpus"
    wrong.write_text("C(6) ; eta=3\n", encoding="utf-8")
    code, out, _ = run(capsys, "verify", "--corpus", str(wrong), "--suite", "values")
    assert code == 1
    assert "FAIL" in out


def test_verify_corpus_env_var(tmp_path, capsys, monkeypatch):
    corpus = tmp_path / "env.corpus"
    corpus.write_text("C(6) ; eta=1\n", encoding="utf-8")
    monkeypatch.setenv("MAXCYC_CORPUS", str(corpus))
    code, out, _ = run(capsys, "verify", "--suite", "values", "--format", "json")
    assert code == 0
    assert len(out.strip().splitlines()) == 1


SMALL_CORPUS = """\
C(2) x C(3) ; eta=1
D(30) ; eta=2 ; quot_eta[5,0]=2 ; quot_union[5,0]=0 ; join_eta[3,0,5,0]=1
EA(3,2) ; eta=4 ; classify=p:3 ; x_order=1
AGL1(7,3) ; eta=2 ; frobenius=7:eq
"""


def test_verify_jobs_matches_serial(tmp_path, capsys):
    good = tmp_path / "good.corpus"
    good.write_text(SMALL_CORPUS, encoding="utf-8")
    failing = tmp_path / "failing.corpus"
    failing.write_text(SMALL_CORPUS.replace("eta=4", "eta=5"), encoding="utf-8")
    cases = [
        (["--suite", "values", "--suite", "gk-graph", "--format", "json"], 0),
        (["--corpus", str(good)], 0),
        (["--corpus", str(failing)], 1),
    ]
    for args, want in cases:
        code, serial, _ = run(capsys, "verify", *args)
        assert code == want
        assert run(capsys, "verify", *args, "--jobs", "2")[:2] == (code, serial)
    assert "FAIL values EA(3,2)" in serial


def test_verify_runs_a_repeated_suite_once(tmp_path, capsys):
    corpus = tmp_path / "d30.corpus"
    corpus.write_text("D(30) ; eta=3\n", encoding="utf-8")
    once = run(capsys, "verify", "--corpus", str(corpus), "--suite", "values")
    twice = run(capsys, "verify", "--corpus", str(corpus), "--suite", "values", "--suite", "values")
    assert twice == once
    assert once[0] == 1
    assert once[1].count("FAIL values D(30)") == 1
    assert once[1].endswith("0/1 reports passed\n")


def test_verify_jobs_starts_no_more_workers_than_entries(tmp_path, capsys, monkeypatch):
    # a fake pool that records its size and maps in this process, so that no
    # worker is started
    asked = []

    class SerialPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    corpus = tmp_path / "small.corpus"
    for text, want in (("C(2) ; eta=1\nS(3) ; eta=2\n", [2]), ("C(2) ; eta=1\n", []), ("", [])):
        asked.clear()
        corpus.write_text(text, encoding="utf-8")
        code, out, _ = run(capsys, "verify", "--corpus", str(corpus), "--suite", "values",
                           "--jobs", "64")
        assert code == 0
        assert asked == want
        n = text.count("\n")
        assert out.endswith(f"{n}/{n} reports passed\n")


def test_verify_unresolvable_selector_exits_2(tmp_path, capsys):
    corpus = tmp_path / "selector.corpus"
    for record in ("D(30) ; quot_eta[7,0]=2", "D(30) ; quot_union[30,0]=1"):
        corpus.write_text(record + "\n", encoding="utf-8")
        for jobs in ("1", "2"):
            code, _, err = run(capsys, "verify", "--corpus", str(corpus),
                               "--suite", "quot", "--jobs", jobs)
            assert code == 2
            assert err.startswith("maxcyc: error: ")


def test_errors_survive_pickling():
    for exc in (CorpusError(3, "bad record"), ParseError(4, ("'('", "int"), "x")):
        back = pickle.loads(pickle.dumps(exc))
        assert type(back) is type(exc)
        assert str(back) == str(exc)
        assert vars(back) == vars(exc)


@pytest.mark.parametrize("record", ["D(30) ; quot_eta[7,0]=2", "C(100000)"])
def test_suite_time_errors_name_the_corpus_line(tmp_path, capsys, record):
    corpus = tmp_path / "late.corpus"
    corpus.write_text("C(2) ; eta=1\n" + record + "\n", encoding="utf-8")
    for jobs in ("1", "2"):
        code, out, err = run(capsys, "verify", "--corpus", str(corpus), "--jobs", jobs)
        assert code == 2
        assert out == ""
        assert err.startswith("maxcyc: error: corpus line 2: ")


# Each value is checked as its record is read, before any suite runs: D(30)
# has no X(G), but its malformed x_order is a parse error all the same, as
# is a frob_gap without the frobenius kernel it is measured against.  Only
# a well-formed value that names what the group lacks, such as a Frobenius
# kernel of order 9 in a group of order 21, fails later.
@pytest.mark.parametrize("record, at_parse", [
    ("C(3) ; eta=5 ; eta=1", True),
    ("C(3) ; tag=pinned ; tag=derived", True),
    ("C(²)", True),
    ("C(3) ; eta=abc", True),
    ("C(3) ; eta=", True),
    ("D(30) ; normals=1:x", True),
    ("D(30) ; quot_eta[3,0]=", True),
    ("EA(2,2) ; x_cyclic=5", True),
    ("D(30) ; quot_union[5,0]=7", True),
    ("D(30) ; x_order=abc", True),
    ("AGL1(7,3) ; frobenius=x:eq", True),
    ("AGL1(7,3) ; frobenius=9:foo", True),
    ("D(30) ; gk_edges=3+5", True),
    ("D(30) ; gk_edges=3-5:", True),
    ("S(3) ; frob_gap=0", True),
    ("AGL1(7,3) ; frobenius=9:eq", False),
])
def test_malformed_records_name_the_corpus_line(tmp_path, capsys, record, at_parse):
    text = "C(2) ; eta=1\n" + record + "\n"
    if at_parse:
        with pytest.raises(CorpusError) as info:
            parse_corpus(text)
        assert info.value.line_no == 2
    else:
        assert parse_corpus(text)[1].line_no == 2
    corpus = tmp_path / "malformed.corpus"
    corpus.write_text(text, encoding="utf-8")
    for jobs in ("1", "2"):
        code, out, err = run(capsys, "verify", "--corpus", str(corpus), "--jobs", jobs)
        assert code == 2
        assert out == ""
        assert err.startswith("maxcyc: error: corpus line 2: ")


# An expectation is always checked by its suite.  One whose quantity does
# not exist is an error naming its line and key, never a skipped check:
# X(G) is defined for noncyclic p-groups only, and S(3) is no p-group and
# C(4) is cyclic.  Only the suite that checks a key reads it.
@pytest.mark.parametrize("record, key", [
    ("S(3) ; x_order=1", "x_order"),
    ("S(3) ; x_cyclic=1", "x_cyclic"),
    ("C(4) ; x_order=1", "x_order"),
])
def test_an_expectation_without_its_quantity_names_line_and_key(tmp_path, capsys, record, key):
    corpus = tmp_path / "no-x.corpus"
    corpus.write_text("C(2) ; eta=1\n" + record + "\n", encoding="utf-8")
    for argv in ([], ["--jobs", "2"], ["--suite", "xsub"]):
        code, out, err = run(capsys, "verify", "--corpus", str(corpus), *argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"maxcyc: error: corpus line 2: {key}: ")
    code, out, err = run(capsys, "verify", "--corpus", str(corpus), "--suite", "values")
    assert (code, out, err) == (0, "PASS values C(2)\n1/1 reports passed\n", "")


# Each row of KEYS names the suite that checks the key, and that suite's
# report lists the expectation checks after its laws, in KEYS order and then
# in selector order; frobenius is the frobenius suite's switch, no check.
def test_each_key_names_its_suite_and_its_checks_follow_the_laws():
    assert KEYS["frobenius"][2:] == (None, None, None)
    assert {row[2] for key, row in KEYS.items() if key != "frobenius"} <= SUITES.keys()
    rank = {name: i for i, name in enumerate(KEYS)}
    entries = parse_corpus(default_corpus_text() + FAILING_CORPUS)
    checked = 0
    for entry in entries:
        reports = {r.suite: r for r in run_suites(list(SUITES), [entry])}
        for suite in SUITES:
            owned = {}
            for key in entry.expect:
                name, _, sel = key.partition("[")
                if KEYS[name][2] == suite:
                    owned[KEYS[name][3] or key] = (rank[name], sel)
            if not owned:
                continue
            names = [c.name for c in reports[suite].checks]
            tail = names[len(names) - len(owned):]
            assert set(tail) == owned.keys(), (entry.spec_text, suite)
            order = [(pos, [int(i) for i in sel[:-1].split(",") if i])
                     for pos, sel in map(owned.get, tail)]
            assert order == sorted(order), (entry.spec_text, suite)
            checked += len(owned)
    # every expectation but the frobenius switch is checked
    assert checked == sum(len(e.expect) - ("frobenius" in e.expect) for e in entries)


# Negative controls whose complement or kernel is trivial pass by being
# rejected; the same group claimed as Frobenius fails with the rejection.
def test_a_trivial_frobenius_factor_is_rejected(tmp_path, capsys):
    corpus = tmp_path / "trivial.corpus"
    corpus.write_text("C(3) ; frobenius=3:notfrob\nAGL1(7,1) ; frobenius=7:notfrob\n"
                      "Perm(4; (1 2 3)) ; frobenius=1:notfrob\nC(3) ; frobenius=3:eq\n",
                      encoding="utf-8")
    code, out, err = run(capsys, "verify", "--corpus", str(corpus), "--suite", "frobenius")
    assert (code, err) == (1, "")
    assert out == (
        "PASS frobenius C(3)\nPASS frobenius AGL1(7,1)\nPASS frobenius Perm(4; (1 2 3))\n"
        "FAIL frobenius C(3)\n     frobenius_sum: expected 'Frobenius structure', "
        "got 'complement of order 1 is not a proper nontrivial subgroup'\n3/4 reports passed\n"
    )


# Each value is read by its key's form as its record is read: the suites
# compare what parse_corpus returns and never re-read the text.
@pytest.mark.parametrize("field, key, want", [
    ("maxcyc=6:4:6", "maxcyc", [4, 6, 6]),
    ("x_cyclic=1", "x_cyclic", True),
    ("in_derived[2,0]=0", "in_derived[2,0]", False),
    ("quot_eta[5,0]=2", "quot_eta[5,0]", 2),
    ("frobenius=7:eq", "frobenius", (7, "eq")),
    ("gk_edges=3-5", "gk_edges", "3-5"),
    ("classify=frob:7:3", "classify", "frob:7:3"),
])
def test_values_are_read_as_their_record_is_read(field, key, want):
    (entry,) = parse_corpus(f"D(30) ; {field}\n")
    assert entry.expect == {key: want}
    assert type(entry.expect[key]) is type(want)


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="int() reads any length")
def test_an_integer_too_long_to_read_names_the_corpus_line():
    # int() refuses strings of more than 4300 digits; the centre suite,
    # which does not read eta, must not run on such a record either
    with pytest.raises(CorpusError, match="^corpus line 2: eta: ") as info:
        parse_corpus("C(2) ; eta=1\nC(3) ; eta=" + "1" * 5000 + "\n")
    assert info.value.line_no == 2


EXIT_CODE_CORPORA = {
    "good": "C(6) ; eta=1\n",
    "failing": "C(6) ; eta=3\n",
    "selector": "D(30) ; quot_eta[7,0]=2\n",
}


@pytest.mark.parametrize("argv, want", [
    (["eta", "C(12)"], 0),
    (["normals", "D(30)", "--format", "json"], 0),
    (["verify", "--corpus", "{good}"], 0),
    (["verify", "--corpus", "{failing}"], 1),
    (["verify", "--corpus", "{failing}", "--jobs", "2"], 1),
    (["eta"], 2),
    (["frobnicate", "C(6)"], 2),
    (["verify", "--jobs", "0"], 2),
    (["eta", "C(6"], 2),
    (["verify", "--corpus", "{missing}"], 2),
    (["eta", "S(4)", "--order-cap", "10"], 2),
    (["eta", "C(200)", "--degree-cap", "100"], 2),
    (["quot", "D(30)", "--order", "7"], 2),
    (["verify", "--corpus", "{selector}"], 2),
])
def test_exit_code_table(tmp_path, capsys, argv, want):
    paths = {name: tmp_path / f"{name}.corpus" for name in (*EXIT_CODE_CORPORA, "missing")}
    for name, text in EXIT_CODE_CORPORA.items():
        paths[name].write_text(text, encoding="utf-8")
    argv = [arg.format(**paths) for arg in argv]

    def attempt():
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        return code, capsys.readouterr().out

    first = attempt()
    assert first[0] == want
    assert attempt() == first


@pytest.mark.parametrize("record", [
    "C(6) ; etaa=3",
    "C(6) ; quot_eat[3,0]=9",
    "C(6) ; eta[1]=1",
    "C(6) ; quot_eta=1",
    "C(6) ; join_eta[3,0]=1",
    "C(6) ; quot_eta[3,,0]=1",
    # one spelling per selector, so no normal gets two expectations
    "D(30) ; quot_eta[5,0]=2 ; quot_eta[05,0]=3",
])
def test_unknown_corpus_key_is_rejected(tmp_path, capsys, record):
    with pytest.raises(CorpusError, match="line 2: unknown key"):
        parse_corpus("C(2) ; eta=1\n" + record + "\n")
    corpus = tmp_path / "keys.corpus"
    corpus.write_text("C(2) ; eta=1\n" + record + "\n", encoding="utf-8")
    code, out, err = run(capsys, "verify", "--corpus", str(corpus))
    assert code == 2
    assert out == ""
    assert "line 2" in err


def test_dirproduct_suite_keeps_the_caps(tmp_path, capsys):
    # the product has degree 140, above the default degree cap of 128
    corpus = tmp_path / "wide.corpus"
    corpus.write_text("C(20) x C(120)\n", encoding="utf-8")
    argv = ["verify", "--corpus", str(corpus), "--suite", "dirproduct"]
    code, out, err = run(capsys, *argv, "--degree-cap", "140")
    assert (code, err) == (0, "")
    assert out == "PASS dirproduct C(20) x C(120)\n1/1 reports passed\n"
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert "degree 140 exceeds degree cap 128" in err


def test_bundled_corpus_uses_exactly_the_key_vocabulary():
    entries = parse_corpus(default_corpus_text())
    used = {key.partition("[")[0] for e in entries for key in e.expect}
    assert used == KEYS.keys()


def test_cli_import_leaves_the_process_pool_unloaded():
    # only `verify --jobs N` needs the pool, so the import waits for it
    code = "import sys, maxcyc.cli; print('concurrent.futures.process' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(maxcyc.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert proc.stdout.strip() == "False"


# A child's peak RSS counts the process it was forked from, so the command
# is started from a small launcher rather than from the test process.
_LAUNCHER = """
import os, subprocess, sys
proc = subprocess.Popen([sys.executable, "-m", "maxcyc.cli", *sys.argv[1:]],
                        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def _peak_rss_mb(*argv: str) -> float:
    """The peak resident set of `maxcyc *argv` in a fresh process, in MB."""
    env = {**os.environ, "PYTHONPATH": str(Path(maxcyc.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", _LAUNCHER, *argv], env=env, capture_output=True, text=True,
        check=True, timeout=120,
    )
    code, maxrss = map(int, proc.stdout.split())
    assert code == 0, argv
    return maxrss / 1024


@pytest.mark.skipif(sys.platform != "linux", reason="reads ru_maxrss in KB, as Linux gives it")
def test_eta_at_the_order_cap_stays_small():
    # the 16002 elements of AGL1(127,126) take one byte per point each;
    # as 127-int tuples they took about 24 MB above the trivial group
    grown = _peak_rss_mb("eta", "AGL1(127,126)") - _peak_rss_mb("eta", "C(1)")
    assert grown < 16


# Quotients near the order cap.  These are regression pins: each value was
# taken from the regular realization of G/N (``quotient_group``), before the
# quotient invariants were read off the coset table.  ``quot S(7) --order 1``
# printed exactly these lines that way.  eta(W(5)/Z) = 37 is eta of the
# regular realization of W(5) modulo its centre, and so is the rest of
# ``quot W(5) --order 5``.  The centre has prime order and lies in every
# nontrivial normal subgroup of the 5-group W(5), so by monotonicity no
# nontrivial N has eta(G/N) = eta(G) = 161, and X(W(5)) is trivial.
_W5_COND_C = [
    "(0 1 2 3 4) ~ (0 2 4 1 3)(5 6 7 8 9)(10 11 12 13 14)(15 16 17 18 19)(20 21 22 23 24)",
    "(0 1 2 3 4) ~ (0 3 1 4 2)(5 7 9 6 8)(10 12 14 11 13)(15 17 19 16 18)(20 22 24 21 23)",
    "(0 1 2 3 4) ~ (0 4 3 2 1)(5 8 6 9 7)(10 13 11 14 12)(15 18 16 19 17)(20 23 21 24 22)",
]
# ``quot S(7) --order 2520`` is pinned as the pair-by-pair scan printed it,
# before the conditions were decided on class labels.
_S7_COND_A = ["(1 2)(3 4 5 6)", "(1 2)(3 4 6 5)", "(1 2)(3 5 6 4)"]
_S7_COND_C = [
    "(0 1 2 3 4 5 6) ~ (0 1 2 4)(5 6)",
    "(0 1 2 3 4 5 6) ~ (0 1 3 4)(5 6)",
    "(0 1 2 3 4 5 6) ~ (0 2 3 4)(5 6)",
]
_S7_STRONG = [
    "(0 1 2 3 4 5 6) ~ (0 1 2 3 5)",
    "(0 1 2 3 4 5 6) ~ (0 1 2 4 5)",
    "(0 1 2 3 4 5 6) ~ (0 1 3 4 5)",
]
CAP_QUOTIENTS = [
    (("quot", "S(7)", "--order", "1", "--index", "0"),
     ["eta(G): 6", "eta(G/N): 6", "equal: True", "cond_a (N in G^-): True",
      "cond_b (quotient non-generators are G^- cosets): True",
      "cond_c (coset elements conjugate to generators): True",
      "coset_union (G^- a union of N-cosets): True"],
     {"eta_g": 6, "eta_quotient": 6, "equal": True, "cond_a": True, "cond_b": True,
      "cond_c": True, "coset_union": True, "witnesses": {}}),
    (("quot", "W(5)", "--order", "5", "--index", "0"),
     ["eta(G): 161", "eta(G/N): 37", "equal: False", "cond_a (N in G^-): True",
      "cond_b (quotient non-generators are G^- cosets): True",
      "cond_c (coset elements conjugate to generators): False",
      "coset_union (G^- a union of N-cosets): True",
      "witnesses[cond_c]: " + ", ".join(_W5_COND_C),
      "witnesses[strong]: " + ", ".join(_W5_COND_C)],
     {"eta_g": 161, "eta_quotient": 37, "equal": False, "cond_a": True, "cond_b": True,
      "cond_c": False, "coset_union": True,
      "witnesses": {"cond_c": _W5_COND_C, "strong": _W5_COND_C}}),
    (("xsub", "W(5)"),
     ["|X|: 1", "generators: ()", "eta(G): 161", "eta(G/X): 161", "X cyclic: True"],
     {"x_order": 1, "generators": ["()"], "eta_g": 161, "eta_g_mod_x": 161,
      "cyclic": True}),
    (("quot", "S(7)", "--order", "2520", "--index", "0"),
     ["eta(G): 6", "eta(G/N): 1", "equal: False", "cond_a (N in G^-): False",
      "cond_b (quotient non-generators are G^- cosets): False",
      "cond_c (coset elements conjugate to generators): False",
      "coset_union (G^- a union of N-cosets): False",
      "witnesses[cond_a]: " + ", ".join(_S7_COND_A),
      "witnesses[cond_b]: 0",
      "witnesses[cond_c]: " + ", ".join(_S7_COND_C),
      "witnesses[strong]: " + ", ".join(_S7_STRONG)],
     {"eta_g": 6, "eta_quotient": 1, "equal": False, "cond_a": False, "cond_b": False,
      "cond_c": False, "coset_union": False,
      "witnesses": {"cond_a": _S7_COND_A, "cond_b": ["0"], "cond_c": _S7_COND_C,
                    "strong": _S7_STRONG}}),
]


def _case_ids(cases) -> list[str]:
    """Each case's command and group, and the normal's order too when the
    command and group repeat an earlier case."""
    ids: list[str] = []
    for argv, *_ in cases:
        name = " ".join(argv[:2])
        ids.append(" ".join(argv[:4]) if name in ids else name)
    return ids


@pytest.mark.parametrize("argv, text, payload", CAP_QUOTIENTS, ids=_case_ids(CAP_QUOTIENTS))
def test_quotients_at_cap_scale(capsys, argv, text, payload):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out.splitlines() == text
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    assert json.loads(out) == payload
    assert out == json.dumps(payload) + "\n"


# Regression pins: the sha256 of each command's stdout, recorded before the
# class products moved to the base index, before lattice members listed
# their elements lazily, and before eta_preserving_normals skipped normals
# outside G^-.
LATTICE_PINS = [
    (("normals", "A(7)"), "63cd48123966105e667c0c071553de2e89d340b12fb3dbedea9b02b12d75706e"),
    (("normals", "A(7)", "--format", "json"),
     "9b9c54609d2c1481c51f7f9ca0b66f9c76755548fb0b0d3adbfff11d04c397ce"),
    (("normals", "EA(2,4) x C(4)"),
     "94bd36f79821460ad876294f5ec89d73c1d5514aa3d3cb2fed26cdb4e6244927"),
    (("normals", "EA(2,4) x C(4)", "--format", "json"),
     "4bdf071d6d1bc050f8eaa6b079b04a1274cbf5c95984294c7cf1d8b47e5200f0"),
    (("normals", "W(5)"), "ac09e2587a756432f441c856e1b2f6749b31be433e0185cb40d7ebdb95406d64"),
    (("normals", "W(5)", "--format", "json"),
     "0e9eb6b3e17c6ae748e61c93247d029a3378ebe001bb7637c17e1d0171f98e49"),
    (("normals", "AGL1(127,126)"),
     "2a6307c4581dc8f5765e0c159a61d12ea820679aa3afd68f603dd555c9af82f9"),
    (("normals", "AGL1(127,126)", "--format", "json"),
     "b168578cd2480402e8e401880cb811a5aa64b6ebcbef3ac04e08cca3f2193645"),
    (("xsub", "Heis(5) x C(5)", "--format", "json"),
     "4ac6dfe723370ec5e5fb96394869e5b40821e377a919990d329f21e8d397f98a"),
    (("xsub", "W(5)", "--format", "json"),
     "c6192472863dced4e921153a9a10e28f410165066a1690246d9e859754c1e3a4"),
]


@pytest.mark.parametrize("argv, digest", LATTICE_PINS, ids=[" ".join(a) for a, _ in LATTICE_PINS])
def test_lattice_output_is_pinned(capsys, argv, digest):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# eta near the order cap, pinned before the classes of maximal cyclic
# subgroups were read off the one walk of the classes of cyclic subgroups.
# The text lists the classes in order, by their least member: on W(5),
# 156 classes of (5, 5), then (5, 625), then 4 of (25, 125).
ETA_PINS = [
    (("eta", "S(7)"), "d59660c07a231cc9fc33f132a7586ea51fb09555aeb0336e7f6a936599d2f556"),
    (("eta", "S(7)", "--format", "json"),
     "9db17cf83fc9904c2054830cec296001956730e25a74e527a9aa21a99fd086a1"),
    (("eta", "W(5)"), "f01f6458875a3fef0988518f23488b0c5d3e6642c5418e1a2f1a8fd5d11186dd"),
    (("eta", "W(5)", "--format", "json"),
     "4e11fe22efa8f179d514254f99216a36395b209dcec5f556e607a78b77e33f1a"),
    (("eta", "AGL1(127,126)"),
     "648154225a029c41f02f0f3104633486a3d50aab297723e6e0480386a4327c0c"),
    (("eta", "AGL1(127,126)", "--format", "json"),
     "ead5bf0be82a81bc7e951d598106d6d6466809db77b87fe17139d2b44c514769"),
    (("eta", "A(7)"), "8e2b0d8e374c39143084758364b4005859fe2a48125aaeb8b09f4be5f8ffd603"),
    (("eta", "A(7)", "--format", "json"),
     "5155557e9aed75bf76ba940e542db2089c3392e05b885572c86fa55485f0688c"),
]


@pytest.mark.parametrize("argv, digest", ETA_PINS, ids=[" ".join(a) for a, _ in ETA_PINS])
def test_eta_output_is_pinned(capsys, argv, digest):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# The whole corpus run, pinned before the quotient conditions were decided
# on class labels and before eta(N) and eta*(N) were read off G's index.
# The JSON holds every check's witnesses.
VERIFY_PINS = [
    (("verify",), "adc1f0ab5fae0a0821766fd005550482c942f5ac76f7df477d7fa86a23ce244f"),
    (("verify", "--format", "json"),
     "ae01378be6c6e15f9031d89067b1217433137d8275f25573db52bbcb6e354576"),
]


@pytest.mark.parametrize("argv, digest", VERIFY_PINS, ids=[" ".join(a) for a, _ in VERIFY_PINS])
def test_verify_output_is_pinned(capsys, argv, digest):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_verify_output_does_not_depend_on_the_hash_seed():
    # str hashes are salted per process, so only fresh processes can vary it
    env = {**os.environ, "PYTHONPATH": str(Path(maxcyc.__file__).parents[1])}
    argv, digest = VERIFY_PINS[1]
    for seed in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-m", "maxcyc.cli", *argv], env={**env, "PYTHONHASHSEED": seed},
            capture_output=True, check=True, timeout=300,
        )
        assert hashlib.sha256(proc.stdout).hexdigest() == digest, seed


# A corpus that fails one expectation of every value form (integer, flag,
# integer list, text, a 2-index and a 4-index selector, frob_gap, notfrob),
# so that the text output prints expected values too.  Pinned before the
# values were read as their records are read.
FAILING_CORPUS = """\
D(30) ; eta=9 ; l=9 ; gminus=9 ; maxcyc=1:2 ; normals=1:30 ; gk_edges=2-7 ; gk_comps=9 ; \
classify=a5 ; quot_eta[5,0]=9 ; quot_union[5,0]=1 ; eta_star[5,0]=9 ; in_derived[5,0]=0 ; \
derived_hyp=1
EA(2,3) ; x_order=9 ; x_cyclic=0 ; join_eta[2,0,2,1]=9
AGL1(7,6) ; frobenius=7:eq ; frob_gap=9
AGL1(5,4) ; frobenius=5:notfrob
Heis(3) ; gk_edges=none ; classify=p:2
"""


@pytest.mark.parametrize("fmt, digest", [
    ("text", "a28c9b84fa14ff46f867c5448a2225f77ba512328210df4c987ed2c06875fbb2"),
    ("json", "c68f0d0d24957fc6afde19d051333eeb8ed62e3b52e482e30b8edd8bb19ed247"),
])
def test_failing_expectations_output_is_pinned(tmp_path, capsys, fmt, digest):
    corpus = tmp_path / "failing.corpus"
    corpus.write_text(FAILING_CORPUS, encoding="utf-8")
    code, out, err = run(capsys, "verify", "--corpus", str(corpus), "--format", fmt)
    assert (code, err) == (1, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    if fmt == "text":
        assert out.endswith("\n45/56 reports passed\n")


# One entry on each side of every hypothesis that gates a suite: C(1) is
# trivial, C(4) a cyclic p-group, S(3) no p-group but a Frobenius entry,
# EA(3,2) and Heis(3) noncyclic p-groups of exponent p, and C(2) x S(3) a
# product entry.  Pinned before each hypothesis became a predicate that the
# suite asks before its laws run.
APPLICABILITY_CORPUS = """\
C(1)
C(4)
S(3) ; frobenius=3:eq
EA(3,2)
Heis(3)
C(2) x S(3)
"""

_GATED = {
    "dirproduct": ["C(2) x S(3)"],
    "frobenius": ["S(3)"],
    "products-join": ["EA(3,2)", "Heis(3)"],
    "xsub": ["EA(3,2)", "Heis(3)"],
    "exp-bound": ["EA(3,2)", "Heis(3)"],
    "eitheror": ["EA(3,2)", "Heis(3)"],
    "l-relation": ["C(4)", "S(3)", "EA(3,2)", "Heis(3)", "C(2) x S(3)"],
}


@pytest.mark.parametrize("fmt, digest", [
    ("text", "59738da4ab50f34757672e6f343d24e6d159d13767919355151c73a886d378b1"),
    ("json", "d863aa8c43dfdbe6eb5fb2aaa3d5e70014be178f00345b83313fbd108465de44"),
])
def test_applicability_output_is_pinned(tmp_path, capsys, fmt, digest):
    corpus = tmp_path / "applies.corpus"
    corpus.write_text(APPLICABILITY_CORPUS, encoding="utf-8")
    for jobs in ("1", "2"):
        code, out, err = run(capsys, "verify", "--corpus", str(corpus), "--format", fmt,
                             "--jobs", jobs)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest
    found = run_suites(list(_GATED), parse_corpus(APPLICABILITY_CORPUS))
    assert {s: [r.instance for r in found if r.suite == s] for s in _GATED} == _GATED


# A hypothesis error raised while a suite's laws run stops verify: it never
# makes the suite n/a.  Q(8) has eta-preserving pairs, so the either-or law
# runs on it.
def test_a_hypothesis_error_in_the_laws_is_no_skip(tmp_path, capsys, monkeypatch):
    def refuse(G, N, M):
        raise NotPGroup("planted")

    monkeypatch.setattr(corpus_module, "check_eitheror", refuse)
    corpus = tmp_path / "q8.corpus"
    corpus.write_text("C(2) ; eta=1\nQ(8)\n", encoding="utf-8")
    for jobs in ("1", "2"):
        for argv in ([], ["--suite", "eitheror"]):
            code, out, err = run(capsys, "verify", "--corpus", str(corpus), "--jobs", jobs, *argv)
            assert (code, out, err) == (2, "", "maxcyc: error: corpus line 2: planted\n")


# A Frobenius kernel order that names no normal subgroup is an error naming
# the key, as every expectation's error does.
def test_a_missing_frobenius_kernel_names_its_key(tmp_path, capsys):
    corpus = tmp_path / "kernel.corpus"
    corpus.write_text("AGL1(7,3) ; frobenius=9:eq\n", encoding="utf-8")
    for jobs in ("1", "2"):
        code, out, err = run(capsys, "verify", "--corpus", str(corpus), "--jobs", jobs)
        assert (code, out) == (2, "")
        assert err == ("maxcyc: error: corpus line 1: frobenius: no normal subgroup of order 9 "
                       "with index 0 (0 candidates)\n")


# X(G) is defined for noncyclic p-groups; its errors name X(G), and keep
# their types, NotPGroup and GroupIsCyclic.
@pytest.mark.parametrize("spec, why", [("S(3)", "not a p-group"), ("C(4)", "cyclic")])
def test_x_hypothesis_errors_name_x(tmp_path, capsys, spec, why):
    message = f"X(G) requires a noncyclic p-group; G is {why}"
    assert run(capsys, "xsub", spec) == (2, "", f"maxcyc: error: {message}\n")
    corpus = tmp_path / "x.corpus"
    corpus.write_text(f"{spec} ; x_order=1\n", encoding="utf-8")
    for jobs in ("1", "2"):
        code, out, err = run(capsys, "verify", "--corpus", str(corpus), "--jobs", jobs)
        assert (code, out, err) == (2, "", f"maxcyc: error: corpus line 1: x_order: {message}\n")


@pytest.mark.parametrize("fmt, digest", [
    ("text", "b2162f9808175dd7b18f7663e0ceecde4cb51b25a1c2b7b51312a8182ef7ef3d"),
    ("json", "a0ee961c818fb14e5a2ec1cf8e7ce19c8b47c3fda935fb0ea0d6f141dca9e172"),
])
def test_gminus_formats_each_element_once(monkeypatch, capsys, fmt, digest):
    # S(7) has 1506 elements in G^-: one cycle string each
    calls = []
    cycle_string = Permutation.cycle_string

    def counted(self):
        calls.append(self)
        return cycle_string(self)

    monkeypatch.setattr(Permutation, "cycle_string", counted)
    code, out, _ = run(capsys, "gminus", "S(7)", "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    assert len(calls) == 1506


def test_xsub_reads_one_quotient(monkeypatch, capsys):
    # Heis(5) x C(5) has exponent 5, so G^- = {1}: only the trivial normal,
    # which is X, can preserve eta, and only its cosets are built
    met = []

    def counted(G, N):
        met.append(N.order)
        return coset_table(G, N)

    for module in (core, cyclic, theorems):
        monkeypatch.setattr(module, "coset_table", counted)
    code, out, _ = run(capsys, "xsub", "Heis(5) x C(5)")
    assert code == 0
    assert "|X|: 1" in out
    assert met == [1]


# Startup: each command imports what it runs.  The child prints the modules
# that importing the CLI, and then running the command, add to sys.modules.
_ADDED_MODULES = """
import contextlib, io, sys
before = set(sys.modules)
import maxcyc.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = maxcyc.cli.main(sys.argv[1:]) if sys.argv[1:] else 0
print(code, *sorted(set(sys.modules) - before))
"""

# What every command needs: `maxcyc/__init__` and the modules it imports.
_CORE_MODULES = {
    "maxcyc", "maxcyc.cli", "maxcyc.constructors", "maxcyc.core", "maxcyc.cyclic",
    "maxcyc.errors", "maxcyc.numutil", "maxcyc.perm",
}


def _modules_added(*argv: str) -> set[str]:
    env = {**os.environ, "PYTHONPATH": str(Path(maxcyc.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", _ADDED_MODULES, *argv], env=env, capture_output=True,
        text=True, check=True, timeout=120,
    )
    code, *added = proc.stdout.split()
    assert code == "0", argv
    return set(added)


@pytest.mark.parametrize("argv", [(), ("eta", "S(3)"), ("normals", "S(3)")],
                         ids=["import", "eta", "normals"])
def test_cli_import_and_plain_commands_load_only_the_core_modules(argv):
    added = _modules_added(*argv)
    assert {m for m in added if m.partition(".")[0] == "maxcyc"} == _CORE_MODULES
    assert not added & {"dataclasses", "inspect"}


@pytest.mark.parametrize("argv", [("xsub", "EA(2,2)"), ("gkgraph", "S(3)"),
                                  ("quot", "S(3)", "--order", "3")],
                         ids=["xsub", "gkgraph", "quot"])
def test_theorem_commands_load_the_theorems_but_not_the_corpus(argv):
    added = _modules_added(*argv)
    assert {m for m in added if m.partition(".")[0] == "maxcyc"} == _CORE_MODULES | {
        "maxcyc.theorems"
    }
    assert not added & {"dataclasses", "inspect"}


def _help(*argv: str) -> str:
    # argparse wraps help text to $COLUMNS, so it is fixed here
    env = {**os.environ, "PYTHONPATH": str(Path(maxcyc.__file__).parents[1]), "COLUMNS": "80"}
    proc = subprocess.run(
        [sys.executable, "-m", "maxcyc.cli", *argv, "--help"], env=env, capture_output=True,
        text=True, check=True, timeout=60,
    )
    return proc.stdout


def test_verify_help_lists_every_suite_in_order():
    # at 80 columns the list wraps, between names only: each is whole
    text = _help("verify")
    assert "oneof:" + ",".join(SUITES) + ",all" in "".join(text.split())
    words = text.replace(",", " ").split()
    assert all(name in words for name in SUITES)


# The help text, pinned before the CLI imported the suites for verify alone;
# verify's again once its wrapping kept hyphenated suite names whole.
HELP_PINS = [
    ((), "443376e9dc228ca31f0c914ba3e34f341d95cd9e0961064909b8a9dfe16f5fd2"),
    (("verify",), "230cee368e06b2cdc0633054d929951455e4f01b8cd154fbb67c81a3f2ef9599"),
]


@pytest.mark.parametrize("argv, digest", HELP_PINS, ids=["maxcyc", "verify"])
def test_help_output_is_pinned(argv, digest):
    assert hashlib.sha256(_help(*argv).encode()).hexdigest() == digest


def test_verify_report_survives_pickling():
    # --jobs sends each worker's reports back pickled
    rep = run_suites(["values"], parse_corpus("S(3) ; eta=2"))[0]
    back = pickle.loads(pickle.dumps(rep))
    assert back == rep
    assert back.to_dict() == rep.to_dict()
