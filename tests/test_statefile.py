import hashlib
import json
import os
import re
import subprocess
import sys
import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import STRING_ROW_DOCUMENTS, random_bipartite_state
from test_golden import GOLDEN, REPORTS
from qdverify import gaussian, statefile, tomo
from qdverify.errors import ParseError
from qdverify.phasespace import (GridGeometry, WignerGrid, square_geometry, wigner_from_fock,
                                 fock_state)


class TestFloatFormat:
    @pytest.mark.parametrize("x", [0.0, -0.0, 1 / 3, np.pi, 1e-300, 1e300,
                                   0.1 + 0.2, -2 / 3, 5e-324])
    def test_round_trip_exact(self, x):
        assert statefile.parse_float(json.loads(statefile.render({"v": x}))["v"]) == x

    def test_rejects_nan_inf(self):
        with pytest.raises(ParseError):
            statefile.render({"v": float("nan")})
        with pytest.raises(ParseError):
            statefile.parse_float("inf")
        with pytest.raises(ParseError):
            statefile.parse_float("not-a-number")

    @pytest.mark.parametrize("value", [True, False])
    def test_rejects_json_booleans(self, value):
        # float(True) is 1.0, so a grid bound of false once loaded as 0.0
        with pytest.raises(ParseError, match=f"bad float value {value}"):
            statefile.parse_float(value)

    def test_refused_write_leaves_no_file(self, tmp_path):
        # a NaN was once written as a bare NaN, which strict JSON readers refuse
        path = tmp_path / "v.json"
        with pytest.raises(ParseError, match="cannot serialize non-finite float"):
            statefile.write(str(path), {"v": float("nan")})
        assert not path.exists()


class TestDvDensityRoundTrip:
    def test_value_identical(self, tmp_path, bell):
        path = tmp_path / "bell.state"
        statefile.write(str(path), statefile.dv_density_doc(bell))
        sf = statefile.load(str(path))
        assert sf.kind == "dv_density"
        np.testing.assert_array_equal(sf.payload.matrix, bell.matrix)
        assert sf.payload.bipartition == (2, 2)

    def test_random_state_round_trip(self, tmp_path):
        rho = random_bipartite_state(3, 2, 3)
        path = tmp_path / "r.state"
        statefile.write(str(path), statefile.dv_density_doc(rho))
        back = statefile.load(str(path)).payload
        np.testing.assert_array_equal(back.matrix, rho.matrix)

    def test_fock_tag(self, tmp_path):
        from qdverify.linalg import DensityOperator
        rho = DensityOperator(fock_state(0, 8))
        path = tmp_path / "f.state"
        statefile.write(str(path), statefile.dv_density_doc(rho, fock_cutoff=8))
        sf = statefile.load(str(path))
        assert sf.fock_cutoff == 8

    @pytest.mark.parametrize("cutoff", [-1, -5])
    def test_negative_fock_cutoff_refused(self, tmp_path, bell, cutoff):
        # verify-dv and tomo once ran on a Bell file tagged with cutoff -5
        path = tmp_path / "neg.state"
        doc = json.loads(statefile.render(statefile.dv_density_doc(bell)))
        doc["fock_cutoff"] = cutoff
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: fock_cutoff "
                                             f"must be nonnegative, got {cutoff}$"):
            statefile.load(str(path))

    @pytest.mark.parametrize("cutoff", [0, 3, 5, 20])
    def test_fock_cutoff_not_matching_the_matrix_refused(self, tmp_path, bell, cutoff):
        # a 4x4 matrix is cutoff 3 and nothing else; load refuses for every command
        path = tmp_path / "tag.state"
        doc = json.loads(statefile.render(statefile.dv_density_doc(bell)))
        doc["fock_cutoff"] = cutoff
        path.write_text(json.dumps(doc))
        if cutoff == 3:
            assert statefile.load(str(path)).fock_cutoff == 3
            return
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: matrix shape "
                                             rf"\(4, 4\) does not match fock_cutoff {cutoff}$"):
            statefile.load(str(path))

    @pytest.mark.parametrize("cutoff", [-1, -5])
    def test_writer_refuses_negative_fock_cutoff(self, bell, cutoff):
        # the writer once wrote, without complaint, a file that load refuses
        with pytest.raises(ParseError, match=f"^fock_cutoff must be nonnegative, "
                                             f"got {cutoff}$"):
            statefile.dv_density_doc(bell, fock_cutoff=cutoff)

    @pytest.mark.parametrize("cutoff", [0, 5, 20])
    def test_writer_refuses_fock_cutoff_not_matching_the_matrix(self, bell, cutoff):
        # writer and reader refuse the same tags with the same message
        with pytest.raises(ParseError, match=rf"^matrix shape \(4, 4\) does not match "
                                             f"fock_cutoff {cutoff}$"):
            statefile.dv_density_doc(bell, fock_cutoff=cutoff)
        assert statefile.dv_density_doc(bell, fock_cutoff=3)["fock_cutoff"] == 3


class TestGaussianRoundTrip:
    def test_value_identical(self, tmp_path):
        g = gaussian.two_mode_squeezed_vacuum(0.37)
        path = tmp_path / "g.state"
        statefile.write(str(path), statefile.gaussian_doc(g))
        back = statefile.load(str(path)).payload
        np.testing.assert_array_equal(back.cov, g.cov)
        np.testing.assert_array_equal(back.mean, g.mean)

    def test_convention_tag_mandatory(self, tmp_path):
        g = gaussian.vacuum()
        doc = statefile.gaussian_doc(g)
        doc["convention"] = "vacuum-variance=1/2"
        path = tmp_path / "bad.state"
        statefile.write(str(path), doc)
        with pytest.raises(ParseError):
            statefile.load(str(path))


class TestShotRecordRoundTrip:
    def test_value_identical(self, tmp_path, bell, sic):
        rec = tomo.sample_joint(bell, sic, sic, 2000, seed=3)
        path = tmp_path / "rec.state"
        statefile.write(str(path), statefile.shot_record_doc(rec))
        back = statefile.load(str(path)).payload
        np.testing.assert_array_equal(back.counts, rec.counts)
        assert back.total == rec.total
        assert back.seed == rec.seed
        for a, b in zip(back.povm_a.effects, rec.povm_a.effects):
            np.testing.assert_array_equal(a, b)

    def test_counts_near_the_int64_limit_round_trip_exactly(self, tmp_path, sic):
        # 2^63 - 4 is not a binary64 value: a count written through float would move
        big = 2 ** 63 - 1
        counts = np.zeros((4, 4), dtype=np.int64)
        counts[0, 0], counts[1, 2], counts[3, 3] = big - 3, 2, 1
        path = tmp_path / "big.state"
        statefile.write(str(path), statefile.shot_record_doc(tomo.ShotRecord(sic, sic, counts,
                                                                             big, 0)))
        assert json.loads(path.read_text())["counts"] == counts.tolist()
        back = statefile.load(str(path)).payload
        np.testing.assert_array_equal(back.counts, counts)
        assert back.total == big

    @pytest.mark.parametrize("case", ["born_probabilities", "uint64_past_the_int64_limit",
                                      "int64_sum_past_the_int64_limit", "total_not_the_sum"])
    def test_writer_refuses_the_records_load_refuses(self, tmp_path, bell, sic, case):
        # each of these was once written without complaint and refused on load
        counts = tomo.sample_joint(bell, sic, sic, 2000, seed=3).counts
        total, message = 2000, "^counts do not sum to a total of at most 2\\^63 - 1$"
        if case == "born_probabilities":
            counts = np.clip(tomo.joint_probabilities(bell, sic, sic), 0.0, None)
            total, message = 1, "^counts must be integers, got dtype float64$"
        elif case == "uint64_past_the_int64_limit":
            counts = np.zeros((4, 4), dtype=np.uint64)
            counts[0, 0] = total = 2 ** 63 + 5
        elif case == "int64_sum_past_the_int64_limit":
            counts = np.full((4, 4), 2 ** 62, dtype=np.int64)
            total = 2 ** 66
        else:
            total = 1999
        with pytest.raises(ParseError, match=message):
            statefile.shot_record_doc(tomo.ShotRecord(sic, sic, counts, total, 0))
        doc = statefile.shot_record_doc(tomo.ShotRecord(sic, sic, np.zeros((4, 4), int), 0, 0))
        statefile.write(str(tmp_path / "bad.state"), {**doc, "counts": counts, "total": total})
        with pytest.raises(ParseError):
            statefile.load(str(tmp_path / "bad.state"))

    @pytest.mark.parametrize("counts, message", [
        ([[2 ** 63 + 5, 0, 0, 0]] + [[0] * 4] * 3,
         "counts must be within [-2^63, 2^63 - 1], got 9223372036854775813"),
        ([[1, 2, 3, 4], [5, 6, 7]] + [[0] * 4] * 2,
         "counts must be a non-empty list of equal-length lists"),
        ("0000", "counts must be a non-empty list of equal-length lists"),
    ], ids=["past_int64", "ragged", "string"])
    def test_load_refuses_a_count_table_in_its_own_words(self, tmp_path, sic, counts, message):
        # numpy's conversion once worded the first two, and the string was
        # read digit by digit
        doc = json.loads(statefile.render(statefile.shot_record_doc(
            tomo.ShotRecord(sic, sic, np.zeros((4, 4), int), 0, 0))))
        path = tmp_path / "bad.state"
        path.write_text(json.dumps({**doc, "counts": counts}))
        with pytest.raises(ParseError, match=f"^{re.escape(f'{path}: {message}')}$"):
            statefile.load(str(path))

    def test_count_total_mismatch_rejected(self, tmp_path, bell, sic):
        rec = tomo.sample_joint(bell, sic, sic, 2000, seed=3)
        doc = statefile.shot_record_doc(rec)
        doc["total"] = 1999
        path = tmp_path / "bad.state"
        statefile.write(str(path), doc)
        with pytest.raises(ParseError):
            statefile.load(str(path))


class TestWignerGridRoundTrip:
    def test_value_identical(self, tmp_path):
        geom = square_geometry(6.0, 16)
        grid = wigner_from_fock(fock_state(0, 8), geom)
        path = tmp_path / "w.state"
        statefile.write(str(path), statefile.wigner_grid_doc(replace(grid, value_stderr=1e-4)))
        sf = statefile.load(str(path))
        assert sf.payload.geometry == geom
        np.testing.assert_array_equal(sf.payload.values, grid.values)
        assert sf.payload.value_stderr == 1e-4


class TestBatchedMatrixWriters:
    EDGE_VALUES = [[-0.0, 5e-324, 1.7976931348623157e308],
                   [-1.7976931348623157e308, 1e-17, 1 / 3]]

    @staticmethod
    def grid(values):
        return SimpleNamespace(geometry=GridGeometry(-1.0, 1.0, -1.0, 2.0, 2, 3),
                               values=values, value_stderr=None)

    @staticmethod
    def tree(doc):
        return json.loads(statefile.render(doc))

    def test_grid_strings_match_per_element_format(self):
        doc = statefile.wigner_grid_doc(self.grid(np.array(self.EDGE_VALUES)))
        rows = self.tree(doc)["values"]
        assert rows == [[format(v, ".17g") for v in row] for row in self.EDGE_VALUES]
        assert rows[0][:2] == ["-0", "4.9406564584124654e-324"]

    def test_integer_bounds_and_stderr_are_written_as_floats(self):
        grid = WignerGrid(GridGeometry(-1, 1, -1, 2, 2, 3), np.array(self.EDGE_VALUES),
                          value_stderr=0)
        tree = self.tree(statefile.wigner_grid_doc(grid))
        assert [tree[k] for k in ("x_min", "x_max", "p_min", "p_max", "value_stderr")] == \
            ["-1", "1", "-1", "2", "0"]

    @pytest.mark.parametrize("a", [np.arange(6).reshape(2, 3), np.full((2, 2), 2 ** 63 - 1),
                                   np.array([2 ** 64 - 1], dtype=np.uint64),
                                   np.zeros(0, dtype=int)],
                             ids=["varied", "constant", "uint64", "empty"])
    def test_integer_arrays_are_written_as_json_writes_their_lists(self, a):
        assert statefile.render({"c": a}) == json.dumps({"c": a.tolist()}, indent=1) + "\n"

    def test_complex_strings_match_per_element_format(self):
        m = np.array(self.EDGE_VALUES) + 1j * np.array(self.EDGE_VALUES)[::-1]
        rho = SimpleNamespace(dim=2, bipartition=None, matrix=m)
        rows = self.tree(statefile.dv_density_doc(rho))["matrix"]
        assert rows == [[[format(v.real, ".17g"), format(v.imag, ".17g")] for v in row]
                        for row in m]

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_refused_without_warnings(self, bad):
        values = np.array(self.EDGE_VALUES)
        values[1, 1] = bad
        matrix = np.zeros((2, 2), dtype=complex)
        matrix.imag = values[:, :2]
        rho = SimpleNamespace(dim=2, bipartition=None, matrix=matrix)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParseError, match="cannot serialize non-finite float"):
                statefile.render(statefile.wigner_grid_doc(self.grid(values)))
            with pytest.raises(ParseError, match="cannot serialize non-finite float"):
                statefile.render(statefile.dv_density_doc(rho))


class TestBatchedMatrixReader:
    @pytest.mark.parametrize("rows", [
        None, "abc", [["1", "2"], ["3"]], [["1", "nan"]], [["1e999", "0"]],
        [["1", None]], [["1", [2]]],
        [], [[]], ["12", "34"],
    ], ids=["none", "string", "ragged", "nan", "overflow", "none_value", "nested", "empty",
            "empty_row", "string_rows"])
    def test_rejects_with_parse_error(self, rows):
        with pytest.raises(ParseError):
            statefile._fmatrix_in(rows)

    @pytest.mark.parametrize("name", sorted(STRING_ROW_DOCUMENTS))
    def test_string_rows_refused(self, tmp_path, name):
        # a string row was once read character by character, "12" as [1, 2]
        path = tmp_path / "s.state"
        path.write_text(json.dumps(STRING_ROW_DOCUMENTS[name]))
        with pytest.raises(ParseError):
            statefile.load(str(path))

    def test_accepts_numeric_json_values(self, tmp_path):
        g = gaussian.two_mode_squeezed_vacuum(0.37)
        doc = json.loads(statefile.render(statefile.gaussian_doc(g)))
        # JSON numbers in place of the decimal strings: floats, and 0 as an int
        doc["cov"] = [[float(v) or 0 for v in row] for row in doc["cov"]]
        assert any(type(v) is int for v in doc["cov"][0])
        path = tmp_path / "g.state"
        path.write_text(json.dumps(doc))
        np.testing.assert_array_equal(statefile.load(str(path)).payload.cov, g.cov)


class TestBatchedComplexMatrixReader:
    @pytest.mark.parametrize("rows", [
        None, "abc", [], [[]], [[["1", "0"]], []], [[["1", "0"], ["2", "0"]], [["3", "0"]]],
        [["1", "0"]], [[["1", "0", "0"]]], [[["1"]]], [[["1", None]]], [[None]],
        [[["1", ["2"]]]], [[[["1"], ["2"]]]], [[["nan", "0"]]], [[["0", "1e999"]]],
        [[["abc", "0"]]], [[[10 ** 400, 0]]], [[{"re": "1", "im": "0"}]],
    ], ids=["none", "string", "empty", "empty_row", "empty_second_row", "ragged",
            "non_pair", "three_element_pair", "one_element_pair", "none_value",
            "none_pair", "nested", "nested_pair", "nan", "overflow", "bad_string",
            "huge_int", "object"])
    def test_rejects_with_parse_error(self, rows):
        with pytest.raises(ParseError):
            statefile._cmatrix_in(rows)

    def test_reads_what_it_writes_bit_for_bit(self):
        rng = np.random.default_rng(5)
        m = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
        m[0, 0] = complex(-0.0, 5e-324)
        m[1, 1] = complex(1.7976931348623157e308, -0.0)
        text = statefile.render({"m": m})
        got = statefile._cmatrix_in(json.loads(text)["m"])
        assert got.dtype == complex and got.shape == (3, 4)
        np.testing.assert_array_equal(got.view(np.uint64), m.view(np.uint64))

    def test_accepts_numeric_json_values(self):
        np.testing.assert_array_equal(statefile._cmatrix_in([[[1, 0.5], ["-2", 1]]]),
                                      [[1 + 0.5j, -2 + 1j]])


class TestJsonBooleansRefused:
    @pytest.mark.parametrize("rows", [
        [[True, False]], [["0.5", True]], [[1, 0, 1.0, "0", False]], [[[1, 0.5], ["-2", True]]],
    ])
    def test_floats_in(self, rows):
        # a bool beside numbers or strings, at any depth, is refused
        with pytest.raises(ParseError, match="true and false are not numbers"):
            statefile._floats_in(rows, "x")

    def test_zeros_and_ones_that_are_numbers_pass(self):
        rows = [[0, 1, "0", "1", 0.0, 1.0, -0.0, "-0"]] * 3
        np.testing.assert_array_equal(statefile._floats_in(rows, "x"),
                                      np.array(rows, dtype=float))

    @pytest.mark.parametrize("field, value", [
        ("value_stderr", True), ("x_min", False), ("values", [[True] * 16] * 16),
    ])
    def test_in_a_wigner_grid(self, tmp_path, field, value):
        grid = wigner_from_fock(fock_state(0, 8), square_geometry(6.0, 16))
        doc = json.loads(statefile.render(statefile.wigner_grid_doc(grid)))
        doc[field] = value
        path = tmp_path / "g.state"
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: "):
            statefile.load(str(path))


class TestStrictMode:
    def test_unknown_field_rejected(self, tmp_path, bell):
        doc = statefile.dv_density_doc(bell)
        doc["comment"] = "hello"
        path = tmp_path / "x.state"
        statefile.write(str(path), doc)
        with pytest.raises(ParseError):
            statefile.load(str(path))

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.state"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            statefile.load(str(path))

    @pytest.mark.parametrize("text", [
        '{"format_version": "1", "kind": "dv_density", "dim": ' + "9" * 5000 + "}",
        "[" * 100000 + "]" * 100000,
    ], ids=["integer_past_digit_limit", "deep_nesting"])
    def test_undecodable_json(self, tmp_path, text):
        path = tmp_path / "odd.state"
        path.write_text(text)
        with pytest.raises(ParseError):
            statefile.load(str(path))

    def test_unknown_kind(self, tmp_path):
        path = tmp_path / "k.state"
        path.write_text(json.dumps({"format_version": "1", "kind": "mystery"}))
        with pytest.raises(ParseError):
            statefile.load(str(path))

    def test_bad_version(self, tmp_path, bell):
        doc = statefile.dv_density_doc(bell)
        doc["format_version"] = "2"
        path = tmp_path / "v.state"
        statefile.write(str(path), doc)
        with pytest.raises(ParseError):
            statefile.load(str(path))

    def test_missing_file(self):
        with pytest.raises(ParseError):
            statefile.load("/nonexistent/path.state")

    def test_invalid_density_payload(self, tmp_path):
        doc = {"format_version": "1", "kind": "dv_density", "dim": 2,
               "bipartition": None,
               "matrix": [[["1", "0"], ["0", "0"]], [["0", "0"], ["0.5", "0"]]]}
        path = tmp_path / "inv.state"
        statefile.write(str(path), doc)
        with pytest.raises(ParseError):
            statefile.load(str(path))

    @pytest.mark.parametrize("field", ["dim", "bipartition", "fock_cutoff", "nx", "np"])
    @pytest.mark.parametrize("bad", [float, str, lambda v: True], ids=["float", "string",
                                                                       "bool"])
    def test_integer_fields_refuse_non_integers(self, tmp_path, field, bad):
        # int() once read 4.0 and "4" as 4, and true as 1
        from qdverify.linalg import DensityOperator
        if field in ("nx", "np"):
            doc = statefile.wigner_grid_doc(
                wigner_from_fock(fock_state(0, 8), square_geometry(6.0, 16)))
        else:
            doc = statefile.dv_density_doc(
                DensityOperator(fock_state(0, 3), bipartition=(2, 2)), fock_cutoff=3)
        holder, key = (doc["bipartition"], 0) if field == "bipartition" else (doc, field)
        holder[key] = bad(holder[key])
        path = tmp_path / "i.state"
        statefile.write(str(path), doc)
        with pytest.raises(ParseError, match="must be an integer"):
            statefile.load(str(path))

    @pytest.mark.parametrize("bip, shown", [([2], "[2]"), (2, "2"), ("2x1", "'2x1'")],
                             ids=["one_entry", "integer", "string"])
    def test_malformed_bipartition_is_refused_by_name(self, tmp_path, bip, shown):
        from qdverify.linalg import DensityOperator
        doc = statefile.dv_density_doc(DensityOperator(np.eye(2) / 2))
        doc["bipartition"] = bip
        path = tmp_path / "b.state"
        statefile.write(str(path), doc)
        with pytest.raises(ParseError) as info:
            statefile.load(str(path))
        assert str(info.value) == f"{path}: bipartition must be a list of two integers, got {shown}"


def test_emitted_files_are_ascii_and_stable(tmp_path, bell):
    doc = statefile.dv_density_doc(bell)
    a = statefile.render(doc)
    b = statefile.render(statefile.dv_density_doc(bell))
    assert a == b
    a.encode("ascii")


# the files under golden/ that load accepts: all but the command reports,
# dv_density.state, whose edge values overflow its Hermiticity check, and
# gaussian.state, whose edge values overflow its physicality eigensolve
GOLDEN_STATES = sorted(p for p in GOLDEN.iterdir()
                       if p.name not in {*REPORTS, "dv_density.state", "gaussian.state"})


@pytest.mark.parametrize("path", GOLDEN_STATES, ids=lambda p: p.name)
def test_digest_is_sha256_of_the_bytes_read(path):
    assert statefile.load(str(path)).digest == \
        "sha256:" + hashlib.sha256(path.read_bytes()).hexdigest()


def test_digest_falls_back_to_hashlib(tmp_path):
    # an interpreter built without its own SHA-256 modules digests through
    # hashlib, to the same values
    code = ("import sys; sys.modules['_sha256'] = sys.modules['_sha2'] = None\n"
            "import hashlib, pathlib; from qdverify import statefile\n"
            "assert statefile.sha256 is hashlib.sha256\n"
            f"for p in {[str(p) for p in GOLDEN_STATES]!r}:\n"
            "    digest = 'sha256:' + hashlib.sha256(pathlib.Path(p).read_bytes()).hexdigest()\n"
            "    assert statefile.load(p).digest == digest, p\n"
            "print('ok')")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                         check=True, cwd=tmp_path, capture_output=True, text=True).stdout
    assert out == "ok\n"
