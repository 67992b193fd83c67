"""Mutation census of the plate block of the documents.

Every path under ``plate`` of ``configs/world.json``, and of a session
simulated from it at seed 7, is deleted or set to each value of a fixed
list in turn. Each mutated document goes through its command as the CLI
runs it: ``simulate`` for the world, ``calibrate`` for the session, with
``RuntimeWarning`` as an error. A document that its decoder refuses with a
``SchemaError`` exits 2 with that error's text, so the decoder is called
directly and the command runs only on the documents it accepts.

Every case must end in an exit code of the CLI contract (0, 2, 3, 4 or 5)
with no exception escaping, and an exit-2 message must name the plate or
the mutated path. ``census_outcomes`` yields each case's exit code and
stderr text, so two versions of the package can be compared case by case.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import warnings
from pathlib import Path
from typing import Any, Iterator

from floorref.cli import main
from floorref.errors import SchemaError
from floorref.schemas import session_from_dict, world_from_dict

ROOT = Path(__file__).resolve().parent.parent
WORLD = ROOT / "configs" / "world.json"

DELETE = object()
MUTATIONS = (
    DELETE, None, True, "x", 1e300, -1e300, 0, -1, 1.5, [], {}, [1e300, 1e300, 1e300], 1e-300, 2**70,
)
EXIT_CODES = {0, 2, 3, 4, 5}


def _paths(value: Any, path: tuple) -> Iterator[tuple]:
    yield path
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _paths(item, (*path, key))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _paths(item, (*path, i))


def _mutated(doc: Any, path: tuple, value: Any) -> Any:
    """A copy of ``doc`` with ``path`` set to ``value`` or deleted; only the
    containers along the path are copied."""
    out = doc.copy()
    key = path[0]
    if len(path) > 1:
        out[key] = _mutated(doc[key], path[1:], value)
    elif value is DELETE:
        del out[key]
    else:
        out[key] = value
    return out


def _path_text(path: tuple) -> str:
    return "".join(f"[{key}]" if isinstance(key, int) else f".{key}" for key in path)[1:]


def _run(argv: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def census_outcomes(workdir: Path) -> Iterator[tuple[str, str, str, int, str]]:
    """(document, path, mutation, exit code, stderr) of every census case,
    run with ``workdir`` as the working directory."""
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, err = _run(["simulate", str(WORLD), "--seed", "7", "--out", "session.json"])
            assert (code, err) == (0, "")
            world = json.loads(WORLD.read_text())
            session = json.loads(Path("session.json").read_text())
            simulate = ["simulate", "doc.json", "--seed", "7", "--out", "out.json"]
            calibrate = ["calibrate", "doc.json", "--out", "out.json"]
            cases = (
                ("world", world, world_from_dict, simulate),
                ("session", session, session_from_dict, calibrate),
            )
            for name, doc, decode, argv in cases:
                for path in _paths(doc["plate"], ("plate",)):
                    for value in MUTATIONS:
                        mutated = _mutated(doc, path, value)
                        try:
                            decode(mutated)
                        except SchemaError as e:
                            code, err = 2, f"error: {e}\n"
                        else:
                            Path("doc.json").write_text(json.dumps(mutated))
                            code, err = _run(argv)
                        mutation = "delete" if value is DELETE else repr(value)
                        yield name, _path_text(path), mutation, code, err
    finally:
        os.chdir(cwd)


def test_every_plate_mutation_ends_in_a_named_exit(tmp_path):
    count = 0
    for name, path, mutation, code, err in census_outcomes(tmp_path):
        case = f"{name} {path} = {mutation}"
        assert code in EXIT_CODES, case
        if code == 2:
            assert err.startswith("error: ") and ("plate" in err or path in err), (case, err)
        count += 1
    # 119 paths under the plate of each document, 14 mutations each
    assert count == 2 * 119 * len(MUTATIONS)
