"""Census of the settable surface: the options of each CLI subcommand and the
parameters of each public decoder.

Adding an option or a decoder parameter means adding it here too, so every new
setting shows up in review next to a reason for it.
"""

import argparse
import inspect

import pytest

from floorref import schemas
from floorref.cli import build_parser

OPTIONS = {
    "simulate": {"-h", "world", "--out", "--seed", "--reverse"},
    "calibrate": {"-h", "session", "--out", "--reversal"},
    "experiment": {"-h", "world", "result", "--plan", "--out-dir", "--seed", "--trials"},
    "metrics": {"-h", "measurements", "--out-dir"},
}

DECODERS = {
    "camera_from_dict": ["doc"],
    "plate_from_dict": ["doc"],
    "session_from_dict": ["doc"],
    "session_ground_truth": ["doc"],
    "result_from_dict": ["doc", "camera"],
    "world_from_dict": ["doc"],
    "plan_from_dict": ["doc"],
}


def _options(parser: argparse.ArgumentParser) -> set[str]:
    """Positional names and the first spelling of each option."""
    return {a.option_strings[0] if a.option_strings else a.dest for a in parser._actions}


def test_cli_option_census():
    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert _options(parser) == {"-h", "--version", "command"}
    assert {name: _options(p) for name, p in sub.choices.items()} == OPTIONS


@pytest.mark.parametrize("name", sorted(DECODERS))
def test_decoder_signature_census(name):
    params = inspect.signature(getattr(schemas, name)).parameters.values()
    assert [p.name for p in params] == DECODERS[name]
    assert all(p.default is inspect.Parameter.empty for p in params)
