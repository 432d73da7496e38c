"""Synthetic generators and the delimited loader."""

import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from polyaflow.data import (
    Dataset,
    _two_spirals,
    load_delimited,
    synth,
)


class TestEightGaussians:
    def test_shape_and_center(self):
        ds = synth("eight_gaussians", 100000, np.random.default_rng(0))
        assert ds.points.shape == (100000, 2)
        assert np.abs(ds.points.mean(axis=0)).max() < 0.02

    def test_modes_on_circle(self):
        ds = synth("eight_gaussians", 50000, np.random.default_rng(1))
        angles = 2.0 * np.pi * np.arange(8) / 8.0
        centers = 2.0 * np.stack([np.cos(angles), np.sin(angles)], axis=1)
        dist = np.linalg.norm(ds.points[:, None, :] - centers[None], axis=2)
        nearest = dist.min(axis=1)
        # component noise is isotropic sigma = 0.2: 5 sigma covers everything seen
        assert np.quantile(nearest, 0.999) < 5.0 * 0.2
        counts = np.bincount(dist.argmin(axis=1), minlength=8)
        expected = ds.points.shape[0] / 8.0
        assert np.abs(counts - expected).max() < 5.0 * np.sqrt(expected)


class TestTwoSpirals:
    def test_exact_balance(self):
        for n in [10, 11, 20000]:
            _, labels = _two_spirals(n, np.random.default_rng(3))
            assert int(labels.sum()) == n // 2

    def test_radius_profile(self):
        pts, labels = _two_spirals(50000, np.random.default_rng(4))
        radius = np.linalg.norm(pts, axis=1)
        assert radius.max() < 2.0 + 5.0 * 0.1
        # the two arms are each other's point reflection in law
        mean0 = pts[labels == 0].mean(axis=0)
        mean1 = pts[labels == 1].mean(axis=0)
        assert np.abs(mean0 + mean1).max() < 0.03

    def test_through_public_entry(self):
        ds = synth("two_spirals", 5000, np.random.default_rng(5))
        assert ds.points.shape == (5000, 2)


class TestCheckerboard:
    def test_support_is_black_cells(self):
        ds = synth("checkerboard", 30000, np.random.default_rng(6))
        assert np.all((ds.points >= -2.0) & (ds.points <= 2.0))
        cell = np.floor(ds.points + 2.0).astype(int)
        cell = np.clip(cell, 0, 3)
        assert np.all((cell.sum(axis=1)) % 2 == 0)

    def test_cells_equally_occupied(self):
        ds = synth("checkerboard", 40000, np.random.default_rng(7))
        cell = np.clip(np.floor(ds.points + 2.0).astype(int), 0, 3)
        flat = cell[:, 0] * 4 + cell[:, 1]
        counts = np.bincount(flat, minlength=16)
        black = [i * 4 + j for i in range(4) for j in range(4) if (i + j) % 2 == 0]
        expected = ds.points.shape[0] / 8.0
        assert np.abs(counts[black] - expected).max() < 4.0 * np.sqrt(expected)
        white = [k for k in range(16) if k not in black]
        assert counts[white].sum() == 0

    def test_corner_cell_is_black(self):
        ds = synth("checkerboard", 20000, np.random.default_rng(8))
        in_corner = np.all((ds.points >= -2.0) & (ds.points < -1.0), axis=1)
        assert in_corner.sum() > 0


class TestSplits:
    def test_fractions_within_one_row(self):
        for n in [100, 101, 1003]:
            ds = synth("eight_gaussians", n, np.random.default_rng(9))
            assert abs(len(ds.train_idx) - 0.7 * n) <= 1.0
            assert abs(len(ds.val_idx) - 0.15 * n) <= 1.0

    def test_partition_property(self):
        ds = synth("two_spirals", 997, np.random.default_rng(10))
        merged = np.sort(np.concatenate([ds.train_idx, ds.val_idx, ds.test_idx]))
        np.testing.assert_array_equal(merged, np.arange(997))

    def test_deterministic(self):
        a = synth("checkerboard", 500, np.random.default_rng(11))
        b = synth("checkerboard", 500, np.random.default_rng(11))
        np.testing.assert_array_equal(a.points, b.points)
        np.testing.assert_array_equal(a.train_idx, b.train_idx)

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown synthetic"):
            synth("moons", 100, np.random.default_rng(0))


class TestLoader:
    def _write(self, path, text):
        path.write_text(text)
        return str(path)

    def test_basic_load_and_standardize(self, tmp_path):
        rng = np.random.default_rng(13)
        pts = rng.normal([5.0, -3.0], [2.0, 0.5], size=(400, 2))
        lines = "\n".join(f"{float(a)!r},{float(b)!r}" for a, b in pts)
        ds = load_delimited(self._write(tmp_path / "d.csv", lines + "\n"))
        assert ds.points.shape == (400, 2)
        assert np.abs(ds.train.mean(axis=0)).max() < 1e-9
        np.testing.assert_allclose(ds.train.std(axis=0), 1.0, atol=1e-9)
        # the record inverts back to the original coordinates
        np.testing.assert_allclose(ds.destandardize(ds.points), pts, atol=1e-9)

    def test_header_and_delimiter(self, tmp_path):
        text = "a;b\n1.0;2.0\n3.0;4.0\n5.0;6.5\n"
        ds = load_delimited(self._write(tmp_path / "d.txt", text), delimiter=";",
                            has_header=True, standardize=False)
        np.testing.assert_array_equal(ds.points[:, 0], [1.0, 3.0, 5.0])

    def test_parse_error_location(self, tmp_path):
        text = "1.0,2.0\n3.0,oops\n"
        with pytest.raises(ValueError, match="row 2, column 2"):
            load_delimited(self._write(tmp_path / "bad.csv", text))

    def test_ragged_rows_rejected(self, tmp_path):
        text = "1.0,2.0\n3.0\n"
        with pytest.raises(ValueError, match="row 2"):
            load_delimited(self._write(tmp_path / "ragged.csv", text))

    def test_constant_column_dropped(self, tmp_path):
        rng = np.random.default_rng(14)
        lines = "\n".join(f"{float(v)!r},7.5" for v in rng.normal(size=300))
        ds = load_delimited(self._write(tmp_path / "c.csv", lines + "\n"))
        assert ds.dims == 1

    def test_deterministic_split(self, tmp_path):
        lines = "\n".join(f"{float(i)},{float(-i)}" for i in range(1, 101))
        path = self._write(tmp_path / "s.csv", lines + "\n")
        a = load_delimited(path, seed=3)
        b = load_delimited(path, seed=3)
        np.testing.assert_array_equal(a.train_idx, b.train_idx)
        c = load_delimited(path, seed=4)
        assert not np.array_equal(a.train_idx, c.train_idx)

    def test_standardize_new_points(self, tmp_path):
        lines = "\n".join(f"{float(i)},{float(2 * i)}" for i in range(1, 51))
        ds = load_delimited(self._write(tmp_path / "n.csv", lines + "\n"))
        fresh = np.array([[10.0, 20.0]])
        np.testing.assert_allclose(
            ds.standardize_new(fresh), (fresh - ds.mean) / ds.std, atol=1e-12
        )


class TestLoaderSyntax:
    """Cell syntax and error locations of the numpy-parsed loader."""

    def _load(self, tmp_path, text, **kwargs):
        path = tmp_path / "d.csv"
        path.write_text(text)
        return load_delimited(str(path), standardize=False, **kwargs)

    def test_whitespace_only_lines_skipped(self, tmp_path):
        ds = self._load(tmp_path, "1.0,2.0\n   \n\t\n3.0,4.0\n \n5.0,6.5\n")
        np.testing.assert_array_equal(ds.points, [[1.0, 2.0], [3.0, 4.0], [5.0, 6.5]])

    def test_quoted_and_padded_cells(self, tmp_path):
        ds = self._load(tmp_path, '"1.5",2\n3,"4"\n 5.0 ,6.5\t\n')
        np.testing.assert_array_equal(ds.points, [[1.5, 2.0], [3.0, 4.0], [5.0, 6.5]])

    def test_parse_error_after_header_and_blank_names_file_row(self, tmp_path):
        with pytest.raises(ValueError, match="could not parse 'x' .* row 4, column 2"):
            self._load(tmp_path, "a,b\n\n1,2\n3,x\n5,6\n", has_header=True)

    def test_ragged_row_after_blank_lines_names_file_row(self, tmp_path):
        with pytest.raises(ValueError, match="row 4 has 1 columns, expected 2"):
            self._load(tmp_path, "1,2\n\n\n3\n4,5\n")

    def test_header_only_file(self, tmp_path):
        with pytest.raises(ValueError, match="no data rows"):
            self._load(tmp_path, "a,b\n\n", has_header=True)

    def test_python_only_literal_is_a_parse_error(self, tmp_path):
        # Python's float() reads 1_000 as 1000.0; numpy's float parser rejects it
        with pytest.raises(ValueError, match="could not parse '1_000' .* row 2, column 1"):
            self._load(tmp_path, "1,2\n1_000,3\n4,5\n")

    def test_quote_left_open_names_its_row(self, tmp_path):
        # an open quote would carry the cell on into the next line ("4" + "5")
        with pytest.raises(ValueError, match="quoted cell left open at row 2"):
            self._load(tmp_path, '1,2\n3,"4\n5"\n6,7\n')

    @settings(max_examples=150, deadline=None)
    @given(arrays(np.float64, array_shapes(min_dims=2, max_dims=2, max_side=6),
                  elements=st.floats(allow_nan=False, allow_infinity=False)
                  | st.sampled_from([5e-324, -2.2250738585072014e-308, 1e308, -1e308])))
    @example(np.array([[5e-324, 1e308], [-1e308, 2.2250738585072014e-308], [1.0, -0.0]]))
    def test_repr_round_trip_is_bitwise(self, matrix):
        text = "".join(",".join(repr(float(v)) for v in row) + "\n" for row in matrix)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "m.csv")
            with open(path, "w") as fh:
                fh.write(text)
            with np.errstate(over="ignore", invalid="ignore"):
                try:
                    ds = load_delimited(path, standardize=False, splits=(1.0, 0.0, 0.0))
                except ValueError as err:
                    assert "every column is constant" in str(err)
                    return
                # the loader drops (near-)constant columns and keeps the rest bit for bit
                keep = matrix[ds.train_idx].std(axis=0) > 1e-12
        assert ds.points.tobytes() == np.ascontiguousarray(matrix[:, keep]).tobytes()


class TestLoaderNonFinite:
    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
    def test_non_finite_cell_rejected_with_location(self, tmp_path, cell):
        # a header and a blank line before the bad cell: the row is the file's row
        lines = ["x,y", "1.0,2.0", "", "3.0,4.5", f"5.0,{cell}", "6.0,7.0", "8.0,9.5"]
        path = tmp_path / "nonfinite.csv"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="non-finite .* row 5, column 2"):
            load_delimited(str(path), has_header=True)


class TestLoaderOverflow:
    """Finite cells whose standardization overflows float64 are rejected by column."""

    def _write(self, tmp_path, rows):
        path = tmp_path / "big.csv"
        path.write_text("".join(f"{float(a)!r},{float(b)!r}\n" for a, b in rows))
        return str(path)

    def test_column_near_float_max_rejected(self, tmp_path):
        # the cells parse exactly; the training-split mean and std of column 2 overflow
        rng = np.random.default_rng(15)
        rows = np.column_stack([rng.normal(size=50), rng.choice([1e308, -1e308, 5e307], 50)])
        path = self._write(tmp_path, rows)
        with pytest.raises(ValueError, match="column 2 overflows float64"):
            load_delimited(path)
        raw = load_delimited(path, standardize=False)
        assert raw.points.tobytes() == rows.tobytes()

    def test_overflow_outside_training_split_rejected(self, tmp_path):
        rows = np.column_stack([np.arange(40.0), np.arange(40.0) * 1e-3])
        split = load_delimited(self._write(tmp_path, rows), standardize=False, seed=2)
        rows[split.test_idx[0], 1] = 1e307            # / std of about 0.01: inf
        path = self._write(tmp_path, rows)
        with pytest.raises(ValueError, match="column 2 overflows float64"):
            load_delimited(path, seed=2)

    def test_saved_record_overflow_names_source_column(self, tmp_path):
        # column 1 is constant and dropped, so dataset column 2 is file column 3
        rows = np.column_stack([np.ones(30), np.arange(30.0), np.full(30, 1e308)])
        path = tmp_path / "three.csv"
        path.write_text("".join(",".join(repr(float(v)) for v in r) + "\n" for r in rows))
        raw = load_delimited(str(path), standardize=False)
        assert list(raw.columns) == [2, 3]
        ok = raw.standardized(np.zeros(2), np.ones(2))
        assert ok.points.tobytes() == raw.points.tobytes()
        with pytest.raises(ValueError, match="column 3 overflows float64"):
            raw.standardized(np.array([0.0, -1e308]), np.array([1.0, 1e-3]))
        with pytest.raises(ValueError, match="record has 3 columns, data has 2"):
            raw.standardized(np.zeros(3), np.ones(3))

    def test_ordinary_columns_standardize_as_before(self, tmp_path):
        rng = np.random.default_rng(16)
        rows = rng.normal([3.0, -1e5], [0.5, 2e4], size=(60, 2))
        ds = load_delimited(self._write(tmp_path, rows), seed=1)
        train = rows[ds.train_idx]
        mean, std = train.mean(axis=0), train.std(axis=0)
        assert ds.points.tobytes() == ((rows - mean) / std).tobytes()
        assert ds.mean.tobytes() == mean.tobytes() and ds.std.tobytes() == std.tobytes()
