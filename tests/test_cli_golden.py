"""Pinned `genus` outputs: exact stdout and exit code of every verb.

`golden_cli.json` holds the input files the cases read ("files") and, per
case, the argument vector, the exit code and the exact stdout. It covers
every catalog family with real and complex parameters (euler also with
a = 0) and a `file:` series, in text and `--json` form, plus usage errors.
An argument "{name}" stands for the path of input file `name`. Any change
to these outputs is a change of behaviour and must be made on purpose.
"""
import json
from pathlib import Path

import pytest

from hirzebruch.cli import main

GOLDEN = json.loads((Path(__file__).parent / "golden_cli.json").read_text())


@pytest.fixture(scope="module")
def input_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    paths = {}
    for name, data in GOLDEN["files"].items():
        paths[name] = root / f"{name}.json"
        paths[name].write_text(json.dumps(data))
    return paths


@pytest.mark.parametrize("case", GOLDEN["cases"], ids=lambda c: " ".join(c["args"]))
def test_cli_golden(case, input_paths, capsys):
    code = main([arg.format(**input_paths) for arg in case["args"]])
    assert (code, capsys.readouterr().out) == (case["exit"], case["stdout"])
