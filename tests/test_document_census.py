"""Mutation census of the measurement blocks of the documents.

Every path under ``plate`` of ``configs/world.json``, and under ``plate``,
``camera``, ``tracker_measurements``, ``image_observation`` and
``ground_truth`` of a session simulated from it at seed 7, is deleted or set
to each value of a fixed list in turn. Each mutated document goes through its
command as the CLI runs it: ``simulate`` for the world, ``calibrate`` for the
session, with ``RuntimeWarning`` as an error. A document that its decoders
refuse with a ``SchemaError`` exits 2 with that error's text, so the decoders
are called directly and the command runs only on the documents they accept.

Every case must end in an exit code of the CLI contract (0, 2, 3, 4 or 5)
with no exception escaping, and an exit-2 message must name the mutated
block or path. ``census_outcomes`` yields each case's exit code and stderr
text, and ``tests/data/census_sha256.json`` pins the exit code and the
sha256 of stderr of every case. The manifest records the numpy and BLAS
build it was made with, as ``tests/data/quickstart_sha256.json`` does, and
its test is skipped under another build. Regenerate it, only when a message
changes on purpose, with::

    PYTHONPATH=src python tests/test_document_census.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import warnings
from pathlib import Path
from typing import Any, Iterator

import pytest

from floorref.cli import main
from floorref.errors import SchemaError
from floorref.schemas import session_from_dict, session_ground_truth, world_from_dict
from test_quickstart_manifest import build

ROOT = Path(__file__).resolve().parent.parent
WORLD = ROOT / "configs" / "world.json"
MANIFEST = ROOT / "tests" / "data" / "census_sha256.json"

DELETE = object()
HUGE = 10**400  # an int beyond the float range
MUTATIONS = (
    DELETE, None, True, "x", 1e300, -1e300, 0, -1, 1.5, [], {}, [1e300, 1e300, 1e300], 1e-300, 2**70,
    HUGE,
)
# the blocks walked in each document
BLOCKS = {
    "world": ("plate",),
    "session": ("plate", "camera", "tracker_measurements", "image_observation", "ground_truth"),
}
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


def _label(value: Any) -> str:
    if value is DELETE:
        return "delete"
    return "10**400" if value is HUGE else repr(value)


def _run(argv: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def _decode_session(doc: dict) -> None:
    # what calibrate decodes of a session before its pipeline runs
    session_from_dict(doc)
    session_ground_truth(doc)


def census_outcomes(workdir: Path) -> Iterator[tuple[str, str, str, str, int, str]]:
    """(document, block, path, mutation, exit code, stderr) of every census
    case, run with ``workdir`` as the working directory."""
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
                ("session", session, _decode_session, calibrate),
            )
            for name, doc, decode, argv in cases:
                for block in BLOCKS[name]:
                    for path in _paths(doc[block], (block,)):
                        for value in MUTATIONS:
                            mutated = _mutated(doc, path, value)
                            try:
                                decode(mutated)
                            except SchemaError as e:
                                code, err = 2, f"error: {e}\n"
                            else:
                                Path("doc.json").write_text(json.dumps(mutated))
                                code, err = _run(argv)
                            yield name, block, _path_text(path), _label(value), code, err
    finally:
        os.chdir(cwd)


def _case_id(name: str, path: str, mutation: str) -> str:
    return f"{name} {path} = {mutation}"


def _digest(code: int, err: str) -> list:
    return [code, hashlib.sha256(err.encode()).hexdigest()]


@pytest.fixture(scope="module")
def outcomes(tmp_path_factory):
    return list(census_outcomes(tmp_path_factory.mktemp("census")))


def test_every_mutation_ends_in_a_named_exit(outcomes):
    for name, block, path, mutation, code, err in outcomes:
        case = _case_id(name, path, mutation)
        assert code in EXIT_CODES, case
        if code == 2:
            assert err.startswith("error: ") and (block in err or path in err), (case, err)
    # 119 paths under the plate of each document, and 12 under the session's
    # camera, 31 under its tracker measurements, 101 under its image
    # observation and 85 under its ground truth
    assert len(outcomes) == (2 * 119 + 12 + 31 + 101 + 85) * len(MUTATIONS)


def test_outcomes_match_the_manifest(outcomes):
    manifest = json.loads(MANIFEST.read_text(encoding="utf-8"))
    if manifest["build"] != build():
        pytest.skip(f"manifest recorded under {manifest['build']}, running {build()}")
    found = {_case_id(name, path, mutation): _digest(code, err) for name, _, path, mutation, code, err in outcomes}
    assert found.keys() == manifest["cases"].keys()
    assert [case for case, digest in found.items() if digest != manifest["cases"][case]] == []


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        cases = {
            _case_id(name, path, mutation): _digest(code, err)
            for name, _, path, mutation, code, err in census_outcomes(Path(tmp))
        }
    lines = [f"    {json.dumps(case)}: {json.dumps(digest)}" for case, digest in cases.items()]
    text = f'{{\n  "build": {json.dumps(build())},\n  "cases": {{\n' + ",\n".join(lines) + "\n  }\n}\n"
    MANIFEST.write_text(text, encoding="utf-8")
