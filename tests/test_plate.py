import numpy as np
import pytest

from floorref.errors import UnknownNest
from floorref.plate import ReferencingPlate, nest_to_smr, smr_points


def make_plate(delta=19.05):
    marks = {f"m{i}": np.array([100.0 + 10.0 * i, 50.0, 0.0]) for i in range(5)}
    return ReferencingPlate(
        marks=marks,
        nests={
            "r": np.array([40.0, 40.0, 0.0]),
            "g": np.array([560.0, 60.0, 0.0]),
            "b": np.array([300.0, 360.0, 0.0]),
        },
        delta_mm=delta,
        extent_mm=(600.0, 400.0),
    )


class TestPlateType:
    def test_marks_must_lie_on_surface(self):
        with pytest.raises(ValueError):
            ReferencingPlate(
                marks={"a": np.array([0.0, 0.0, 0.1])},
                nests=make_plate().nests,
                delta_mm=1.0,
                extent_mm=(600.0, 400.0),
            )

    @pytest.mark.parametrize(
        "bad, message",
        [
            ({"b": [1.0, 2.0, 0.5], "c": [np.nan, 0.0, 0.0]}, "mark 'b' must lie on the plate surface"),
            ({"b": [np.inf, 0.0, 0.0], "c": [1.0, 2.0, 0.5]}, r"point components must be finite, got \[inf"),
            ({"b": [1.0, 2.0], "c": [1.0, 2.0, 0.5]}, r"expected a 3-vector, got shape \(2,\)"),
            ({"b": "xyz", "c": [1.0, 2.0, 0.5]}, "could not convert string to float"),
        ],
    )
    def test_first_bad_mark_names_the_error(self, bad, message):
        # the marks are checked as one array; the error is that of the first bad mark
        with pytest.raises(ValueError, match=message):
            ReferencingPlate(
                marks={"a": [0.0, 1.0, 0.0], **bad},
                nests=make_plate().nests,
                delta_mm=1.0,
                extent_mm=(600.0, 400.0),
            )

    def test_marks_are_read_only_float_vectors(self):
        plate = ReferencingPlate(
            marks={"a": [0, 1, 0], 7: np.array([2.5, 1.5, 0.0])},
            nests=make_plate().nests,
            delta_mm=1.0,
            extent_mm=(600.0, 400.0),
        )
        assert list(plate.marks) == ["a", "7"]
        for p in plate.marks.values():
            assert p.dtype == np.float64 and p.shape == (3,) and not p.flags.writeable
        assert np.array_equal(plate.mark_array()[1], [[0.0, 1.0, 0.0], [2.5, 1.5, 0.0]])

    @pytest.mark.parametrize(
        "marks, nest_r, extent, message",
        [
            ({"a": [600.0, 400.0, 0.0]}, [40.0, 40.0, 0.0], (600.0, 400.0), None),
            ({"a": [0.0, 0.0, 0.0]}, [0.0, 400.0, 0.0], (600.0, 400.0), None),
            ({"a": [600.5, 10.0, 0.0]}, [40.0, 40.0, 0.0], (600.0, 400.0), r"mark 'a' at \(600\.5, 10\) mm"),
            ({"a": [10.0, -0.5, 0.0]}, [40.0, 40.0, 0.0], (600.0, 400.0), r"mark 'a' at \(10, -0\.5\) mm"),
            (
                {"a": [10.0, 10.0, 0.0], "b": [700.0, 10.0, 0.0], "c": [10.0, 500.0, 0.0]},
                [40.0, 40.0, 0.0],
                (600.0, 400.0),
                r"mark 'b' at \(700, 10\) mm",
            ),
            ({}, [40.0, 40.0, 0.0], (0.0, 0.0), r"nest 'r' at \(40, 40\) mm"),
            ({}, [40.0, 40.0, 0.0], (1e-300, 400.0), r"nest 'r' at \(40, 40\) mm"),
            ({}, [40.0, 40.0, 0.0], (-600.0, 400.0), r"nest 'r' at \(40, 40\) mm"),
            ({}, [40.0, 40.0, 0.0], (600.0, np.nan), r"nest 'r' at \(40, 40\) mm"),
        ],
        ids=[
            "corner", "origin-and-edge", "mark-beyond-x", "mark-below-y", "first-of-two-marks",
            "zero", "tiny", "negative", "nan",
        ],
    )
    def test_marks_and_nests_lie_on_the_extent(self, marks, nest_r, extent, message):
        # every mark and nest lies in 0 <= x <= extent_mm[0], 0 <= y <= extent_mm[1]
        def build():
            return ReferencingPlate(
                marks=marks,
                nests={**make_plate().nests, "r": np.array(nest_r)},
                delta_mm=1.0,
                extent_mm=extent,
            )

        if message is None:
            assert build().extent_mm == extent
        else:
            with pytest.raises(ValueError, match=rf"^{message} is off the plate: extent_mm \("):
                build()

    def test_negative_delta_rejected(self):
        with pytest.raises(ValueError):
            make_plate(delta=-0.5)

    def test_missing_nest_rejected(self):
        with pytest.raises(UnknownNest):
            ReferencingPlate(
                marks={},
                nests={"r": np.zeros(3), "g": np.array([500.0, 0.0, 0.0])},
                delta_mm=1.0,
                extent_mm=(600.0, 400.0),
            )

    def test_small_nest_triangle_rejected(self):
        with pytest.raises(ValueError):
            ReferencingPlate(
                marks={},
                nests={
                    "r": np.zeros(3),
                    "g": np.array([10.0, 0.0, 0.0]),
                    "b": np.array([0.0, 10.0, 0.0]),
                },
                delta_mm=1.0,
                extent_mm=(600.0, 400.0),
            )


class TestNestToSmr:
    def test_zero_delta_is_identity(self):
        plate = make_plate(delta=0.0)
        assert np.array_equal(nest_to_smr(plate, "r"), plate.nests["r"])

    def test_known_offset(self):
        plate = ReferencingPlate(
            marks={},
            nests={
                "r": np.array([100.0, 50.0, 0.0]),
                "g": np.array([560.0, 60.0, 0.0]),
                "b": np.array([300.0, 360.0, 0.0]),
            },
            delta_mm=11.3,
            extent_mm=(600.0, 400.0),
        )
        assert np.allclose(nest_to_smr(plate, "r"), [100.0, 50.0, -11.3], atol=0)

    def test_unknown_nest(self):
        with pytest.raises(UnknownNest):
            nest_to_smr(make_plate(), "x")

    def test_only_z_changes(self):
        plate = make_plate()
        for nid in ("r", "g", "b"):
            smr = nest_to_smr(plate, nid)
            assert smr[0] == plate.nests[nid][0]
            assert smr[1] == plate.nests[nid][1]
            assert smr[2] == plate.nests[nid][2] - plate.delta_mm

    def test_smr_plane_parallel_to_nest_plane(self):
        plate = make_plate()
        nests = np.array([plate.nests[n] for n in ("r", "g", "b")])
        smrs = smr_points(plate)
        n1 = np.cross(nests[1] - nests[0], nests[2] - nests[0])
        n2 = np.cross(smrs[1] - smrs[0], smrs[2] - smrs[0])
        cosang = (n1 @ n2) / (np.linalg.norm(n1) * np.linalg.norm(n2))
        assert abs(cosang - 1.0) < 1e-12
