"""Relabelled specs give the named spec's invariants, as the benchmark checks them.

Run from the root of a source checkout: python3 -m pytest bench_tests
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from maxcyc.cli import main  # noqa: E402
from relabel import generators, relabelled_spec  # noqa: E402
from run import invariants  # noqa: E402

SPECS = ["S(4)", "D(8) x C(3)", "Heis(3)"]


def relabel(spec: str, seed: int) -> str:
    return relabelled_spec(spec, generators([spec])[spec], seed)


def cli_invariants(capsys, command: str, spec: str) -> dict:
    assert main([command, spec, "--format", "json"]) == 0
    return invariants(command, json.loads(capsys.readouterr().out))


@pytest.mark.parametrize("spec", SPECS)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_relabelled_spec_keeps_invariants(capsys, spec, seed):
    text = relabel(spec, seed)
    assert text.startswith("Perm(")
    assert text == relabel(spec, seed)
    for command in ("eta", "normals", "gkgraph"):
        assert cli_invariants(capsys, command, text) == cli_invariants(capsys, command, spec)


def test_relabelled_p_group_keeps_xsub(capsys):
    text = relabel("Heis(3)", 5)
    assert cli_invariants(capsys, "xsub", text) == cli_invariants(capsys, "xsub", "Heis(3)")


def test_seeds_relabel_differently():
    texts = {relabel("S(4)", seed) for seed in range(1, 6)}
    assert len(texts) > 1


def test_seed_zero_keeps_named_spec():
    assert relabel("D(8) x C(3)", 0) == "D(8) x C(3)"
