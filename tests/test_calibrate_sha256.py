"""The plate fit and the reversal calibration, bit for bit.

Two sha256 digests are compared with ``tests/data/calibrate_sha256.json``:

- the image pose fits of the stress views 0 to 999 of ``test_camera`` (pose
  bytes, ``rms_px``, ``iterations`` and ``stop``, or the error type of a view
  the fit rejects), which include rejected trials and crawls of a few hundred
  iterations;
- 20 reversal calibrations shaped like the benchmark's calibrate op: a random
  world with a 0.25 mm plate bow, sessions A and B under glass noise
  (placements A and B, trials 1 and 2), both runs and their average, with
  every transform of each result and its residuals.

A change that only removes overhead keeps both. The floats come from numpy's
linear algebra, so the file records the numpy and BLAS build it was made with
(``test_quickstart_manifest.build``), and the test is skipped under another
build. Regenerate it, only when a result is meant to change, with::

    PYTHONPATH=src python tests/test_calibrate_sha256.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from floorref.camera import estimate_plate_pose_from_image
from floorref.errors import FloorRefError
from floorref.pipeline import compute_rob_h_cam, reversal_average
from floorref.simulate import (
    GLASS_NOISE,
    default_placements,
    inject_wooden_plate,
    random_world,
    simulate_referencing_session,
)
from test_camera import _stress_view
from test_quickstart_manifest import build

DIGESTS = Path(__file__).resolve().parent / "data" / "calibrate_sha256.json"
STRESS_VIEWS = 1000
CALIBRATIONS = 20


def _update(h, *parts) -> None:
    for p in parts:
        h.update(p if isinstance(p, bytes) else repr(p).encode())


def _transform_bytes(t) -> bytes:
    return t.rotation.tobytes() + t.translation.tobytes() + f"{t.source}>{t.dest}".encode()


def stress_fit_digest() -> str:
    h = hashlib.sha256()
    for seed in range(STRESS_VIEWS):
        m, obs = _stress_view(seed)
        try:
            fit = estimate_plate_pose_from_image(m, *obs)
        except FloorRefError as e:
            _update(h, seed, type(e).__name__)
            continue
        _update(h, seed, _transform_bytes(fit.h_cam_ref), fit.rms_px, fit.iterations, fit.stop)
    return h.hexdigest()


def _result_bytes(r) -> tuple:
    return (
        _transform_bytes(r.h_rob_cam),
        _transform_bytes(r.h_abs_scn),
        _transform_bytes(r.h_abs_rob),
        _transform_bytes(r.scene.h_cam_ref),
        _transform_bytes(r.scene.h_scn_ref),
        r.registration_rms_mm,
        r.reprojection_rms_px,
        r.suspect,
    )


def calibration_digest() -> str:
    h = hashlib.sha256()
    for k in range(CALIBRATIONS):
        world = inject_wooden_plate(random_world(k), 0.25)
        runs = [
            compute_rob_h_cam(
                simulate_referencing_session(
                    world, GLASS_NOISE, *default_placements(world, reverse=trial == 2), trial=trial
                )
            )
            for trial in (1, 2)
        ]
        for r in (*runs, reversal_average(*runs)):
            _update(h, k, *_result_bytes(r))
    return h.hexdigest()


@pytest.fixture(scope="module")
def digests():
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
    if recorded["build"] != build():
        pytest.skip(f"digests recorded under {recorded['build']}, running {build()}")
    return recorded


def test_stress_view_fits_match_the_digest(digests):
    assert stress_fit_digest() == digests["stress_view_fits"]


def test_reversal_calibrations_match_the_digest(digests):
    assert calibration_digest() == digests["reversal_calibrations"]


if __name__ == "__main__":
    DIGESTS.parent.mkdir(exist_ok=True)
    record = {
        "build": build(),
        "stress_view_fits": stress_fit_digest(),
        "reversal_calibrations": calibration_digest(),
    }
    DIGESTS.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
