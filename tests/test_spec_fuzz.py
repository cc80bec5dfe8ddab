"""Spec fuzzer: mutated golden specs through the command line, in-process.

A mutation takes one value somewhere in a small golden spec and replaces
it with a value of another type, deletes it (a key or a list entry), or
adds an unknown key to an object on the way to it.  Whatever the input,
a command must end in exit code 0, 1, 2 or 3 with at most one line on
stderr and no traceback, and a second run must print exactly the same.
"""
from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from branchcover.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
SMALL_SPECS = ("sphere-p2-d2", "sphere-p3-d3", "sphere-p6-d3", "circle-d5",
               "s3-unknot-double", "suspension-torus", "pinched-torus")
TEXTS = {name: (GOLDEN / f"{name}.json").read_text(encoding="utf-8") for name in SMALL_SPECS}

COMMANDS = (["verify"], ["verify", "--format", "json"], ["verify", "--perversity", "upper"],
            ["fibers"], ["twisted"], ["ih"], ["homology"], ["generators"], ["cone-check"])

VALUES = {
    type(None): st.none(), bool: st.booleans(), int: st.integers(-3, 40),
    float: st.floats(allow_nan=True), str: st.text(max_size=6),
    list: st.lists(st.integers(-1, 6), max_size=3),
    dict: st.dictionaries(st.text(max_size=4), st.integers(-1, 6), max_size=2)}
OTHER_TYPE = {t: st.one_of([s for u, s in VALUES.items() if u is not t]) for t in VALUES}


def _mutate(data, text: str) -> dict:
    root = json.loads(text)
    path = [root]  # the containers from the root to the chosen value
    key = data.draw(st.sampled_from(sorted(root)))
    for _ in range(data.draw(st.integers(0, 3))):
        node = path[-1][key]
        if not isinstance(node, (dict, list)) or not node:
            break
        path.append(node)
        key = (data.draw(st.sampled_from(sorted(node))) if isinstance(node, dict)
               else data.draw(st.integers(0, len(node) - 1)))
    parent = path[-1]
    kind = data.draw(st.sampled_from(("retype", "delete", "unknown-key")))
    if kind == "retype":
        parent[key] = data.draw(OTHER_TYPE[type(parent[key])])
    elif kind == "delete":
        del parent[key]
    else:
        target = data.draw(st.sampled_from([c for c in path if isinstance(c, dict)]))
        target[data.draw(st.text(min_size=1, max_size=8).filter(lambda k: k not in target))] = (
            data.draw(st.one_of(*VALUES.values())))
    return root


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def spec_path(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("fuzz") / "spec.json"


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data(), name=st.sampled_from(SMALL_SPECS), command=st.sampled_from(COMMANDS))
def test_mutated_spec_exits_cleanly_and_deterministically(spec_path, data, name, command):
    spec_path.write_text(json.dumps(_mutate(data, TEXTS[name])), encoding="utf-8")
    argv = [command[0], str(spec_path), *command[1:]]
    code, out, err = _run(argv)
    assert code in (0, 1, 2, 3), (argv, code)
    assert err.count("\n") <= 1 and "Traceback" not in err, err
    assert _run(argv) == (code, out, err)
