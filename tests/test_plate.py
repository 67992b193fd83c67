import numpy as np
import pytest

from floorref.plate import ReferencingPlate, smr_points

NESTS = [[40.0, 40.0, 0.0], [560.0, 60.0, 0.0], [300.0, 360.0, 0.0]]
A = [0.0, 1.0, 0.0]  # a good mark


def make_plate(delta=19.05, **fields):
    args = {
        "mark_ids": tuple(f"m{i}" for i in range(5)),
        "mark_points": [[100.0 + 10.0 * i, 50.0, 0.0] for i in range(5)],
        "nest_points": NESTS,
        "delta_mm": delta,
        "extent_mm": (600.0, 400.0),
    }
    return ReferencingPlate(**{**args, **fields})


def marks(points: dict) -> dict:
    """The mark fields of a plate for a mapping of id -> point."""
    return {"mark_ids": tuple(points), "mark_points": np.reshape(list(points.values()), (-1, 3))}


class TestPlateType:
    def test_marks_must_lie_on_surface(self):
        with pytest.raises(ValueError):
            make_plate(delta=1.0, **marks({"a": [0.0, 0.0, 0.1]}))

    @pytest.mark.parametrize(
        "bad, message",
        [
            ([A, [1.0, 2.0, 0.5], [1.0, 2.0, 0.5]], "mark 'b' must lie on the plate surface"),
            ([A, [np.inf, 0.0, 0.0], [1.0, 2.0, 0.5]], r"point components must be finite, got \[inf"),
            ([[0.0, 1.0], [1.0, 2.0], [1.0, 2.0]], r"mark_points must have shape \(3, 3\), got \(3, 2\)"),
            ([A, list("xyz"), [1.0, 2.0, 0.5]], "could not convert string to float"),
            ([A, [1.0, 2.0, 0.5], [np.nan, 0.0, 0.0]], r"mark 'c': point components must be finite"),
        ],
    )
    def test_first_bad_mark_names_the_error(self, bad, message):
        # the marks are checked as one array: finiteness, then the surface,
        # each check naming its first failing row ('b' is the first bad row
        # of the first four cases; a non-finite 'c' comes before an
        # off-surface 'b')
        with pytest.raises(ValueError, match=message) as e:
            make_plate(delta=1.0, mark_ids=("a", "b", "c"), mark_points=bad)
        assert "'a'" not in str(e.value)

    def test_marks_are_read_only_float_vectors(self):
        given = np.array([[0, 1, 0], [2.5, 1.5, 0.0]])
        plate = make_plate(delta=1.0, mark_ids=["a", 7], mark_points=given)
        given[0, 0] = 99.0
        assert plate.mark_ids == ("a", "7")
        for a in (plate.mark_points, plate.nest_points):
            assert a.dtype == np.float64 and not a.flags.writeable
        assert np.array_equal(plate.mark_points, [[0.0, 1.0, 0.0], [2.5, 1.5, 0.0]])
        assert np.array_equal(plate.nest_points, NESTS)

    @pytest.mark.parametrize("ids", [(7, "7"), ("a", "b", "a")], ids=["int-and-str", "repeated"])
    def test_each_mark_id_is_listed_once(self, ids):
        points = [[10.0 * (i + 1), 10.0, 0.0] for i in range(len(ids))]
        with pytest.raises(ValueError, match="^mark ids must be listed once each$"):
            make_plate(mark_ids=ids, mark_points=points)

    def test_mark_rows_in_the_order_asked(self):
        plate = make_plate()
        assert plate.mark_rows(["m3", "m0", "m3"]) == [3, 0, 3]
        assert plate.mark_rows([]) == []
        assert np.array_equal(plate.mark_points[plate.mark_rows(["m4"])], [[140.0, 50.0, 0.0]])

    @pytest.mark.parametrize("ids, named, index", [(["m1", "zz", "yy"], "'zz'", 1), ([3], "3", 0)])
    def test_mark_rows_refuses_an_id_not_on_the_plate(self, ids, named, index):
        with pytest.raises(ValueError, match=rf"^mark {named} is not on the plate$") as info:
            make_plate().mark_rows(ids)
        assert info.value.index == index  # the first id not on the plate

    @pytest.mark.parametrize(
        "marks_xy, nest_r, extent, message",
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
            ({"a": [10.0, 10.0, 0.0]}, [40.0, 40.0, 0.0], (500.0, 400.0), r"nest 'g' at \(560, 60\) mm"),
            ({"a": [550.0, 10.0, 0.0]}, [40.0, 40.0, 0.0], (500.0, 400.0), r"nest 'g' at \(560, 60\) mm"),
        ],
        ids=[
            "corner", "origin-and-edge", "mark-beyond-x", "mark-below-y", "first-of-two-marks",
            "zero", "tiny", "negative", "nan", "first-bad-nest", "nests-before-marks",
        ],
    )
    def test_marks_and_nests_lie_on_the_extent(self, marks_xy, nest_r, extent, message):
        # every mark and nest lies in 0 <= x <= extent_mm[0], 0 <= y <= extent_mm[1]
        def build():
            return make_plate(
                delta=1.0, nest_points=[nest_r, *NESTS[1:]], extent_mm=extent, **marks(marks_xy)
            )

        if message is None:
            assert build().extent_mm == extent
        else:
            with pytest.raises(ValueError, match=rf"^{message} is off the plate: extent_mm \("):
                build()

    def test_negative_delta_rejected(self):
        with pytest.raises(ValueError, match="^nest offset must be non-negative, got -0.5$"):
            make_plate(delta=-0.5)

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"delta_mm": np.nan}, "^delta_mm must be finite, got nan$"),
            ({"delta_mm": np.inf}, "^delta_mm must be finite, got inf$"),
            ({"delta_mm": -np.inf}, "^delta_mm must be finite, got -inf$"),
            ({"extent_mm": (600.0,)}, "^extent_mm must hold 2 values, got 1$"),
            ({"extent_mm": (600.0, 400.0, 10.0)}, "^extent_mm must hold 2 values, got 3$"),
        ],
        ids=["delta-nan", "delta-inf", "delta-minus-inf", "extent-1", "extent-3"],
    )
    def test_non_finite_delta_and_extent_arity_rejected_by_name(self, fields, message):
        with pytest.raises(ValueError, match=message):
            make_plate(**fields)

    def test_missing_nest_rejected(self):
        # r, g and b are the rows of one (3, 3) array: a plate without nest b
        # is an array of the wrong shape
        with pytest.raises(ValueError, match=r"^nest_points must have shape \(3, 3\), got \(2, 3\)$"):
            make_plate(delta=1.0, nest_points=[[0.0, 0.0, 0.0], [500.0, 0.0, 0.0]])

    def test_first_non_finite_nest_named(self):
        nests = [NESTS[0], [np.nan, 60.0, 0.0], [np.inf, 360.0, 0.0]]
        with pytest.raises(ValueError, match=r"^nest 'g': point components must be finite, got \[nan"):
            make_plate(nest_points=nests)

    def test_small_nest_triangle_rejected(self):
        with pytest.raises(ValueError):
            make_plate(
                delta=1.0,
                nest_points=[[0.0, 0.0, 0.0], [10.0, 0.0, 0.0], [0.0, 10.0, 0.0]],
                **marks({}),
            )


class TestSmrPoints:
    def test_zero_delta_is_identity(self):
        plate = make_plate(delta=0.0)
        assert np.array_equal(smr_points(plate), plate.nest_points)

    def test_known_offset(self):
        plate = make_plate(
            delta=11.3, nest_points=[[100.0, 50.0, 0.0], *NESTS[1:]], **marks({})
        )
        assert np.allclose(smr_points(plate)[0], [100.0, 50.0, -11.3], atol=0)

    def test_only_z_changes(self):
        plate = make_plate()
        smrs = smr_points(plate)
        assert np.array_equal(smrs[:, :2], plate.nest_points[:, :2])
        assert np.array_equal(smrs[:, 2], plate.nest_points[:, 2] - plate.delta_mm)

    def test_smr_plane_parallel_to_nest_plane(self):
        plate = make_plate()
        nests = plate.nest_points
        smrs = smr_points(plate)
        n1 = np.cross(nests[1] - nests[0], nests[2] - nests[0])
        n2 = np.cross(smrs[1] - smrs[0], smrs[2] - smrs[0])
        cosang = (n1 @ n2) / (np.linalg.norm(n1) * np.linalg.norm(n2))
        assert abs(cosang - 1.0) < 1e-12
