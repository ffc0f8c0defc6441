import json

import numpy as np
import pytest

from numrange_lab.cli import main
from numrange_lab.generators import flat_portion_example
from numrange_lab.matrixio import load_matrix, save_matrix


@pytest.fixture
def worked_example_path(tmp_path):
    path = tmp_path / "worked-example.json"
    save_matrix(path, flat_portion_example(), metadata={"label": "worked-example"})
    return str(path)


class TestMatrixIO:
    def test_round_trip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_matrix(p1, a)
        b, _, err = load_matrix(p1)
        assert np.array_equal(a, b)
        assert err == 0.0
        save_matrix(p2, b)
        assert p1.read_text() == p2.read_text()

    def test_rational_strings_with_conversion_error(self, tmp_path):
        doc = {"n": 1, "entries": [["63/52", "1/4"]]}
        path = tmp_path / "r.json"
        path.write_text(json.dumps(doc))
        a, _, err = load_matrix(path)
        assert abs(a[0, 0] - (63 / 52 + 0.25j)) < 1e-15
        assert 0 < err < 1e-15  # 63/52 is not a binary float

    def test_parse_errors(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        from numrange_lab.matrixio import MatrixParseError

        with pytest.raises(MatrixParseError):
            load_matrix(bad)
        short = tmp_path / "short.json"
        short.write_text(json.dumps({"n": 2, "entries": [[1, 0]]}))
        with pytest.raises(MatrixParseError):
            load_matrix(short)


class TestClassifyCommand:
    def test_worked_example_text(self, worked_example_path, capsys):
        rc = main(["classify", worked_example_path])
        out = capsys.readouterr().out
        assert rc == 0
        assert "k(A) = 3" in out
        assert "SeedPresent3" in out

    def test_worked_example_json(self, worked_example_path, capsys):
        rc = main(["classify", worked_example_path, "--format", "json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["result"]["k"] == 3
        assert len(doc["seeds"]) == 1
        assert doc["seeds"][0]["kind"] == "FlatPortion"

    def test_direct_sum_square(self, tmp_path, capsys):
        path = tmp_path / "square.json"
        save_matrix(path, np.diag([1.0, 1j, -1.0, -1j]))
        rc = main(["classify", str(path), "--format", "json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["result"]["k"] == 4
        assert doc["result"]["method"] == "DirectSum"

    def test_parse_error_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("nope")
        assert main(["classify", str(bad)]) == 2

    def test_unsupported_exit_3(self, tmp_path):
        rng = np.random.default_rng(1)
        path = tmp_path / "dense5.json"
        save_matrix(path, rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))
        assert main(["classify", str(path)]) == 3
        assert main(["classify", str(path), "--oracle"]) == 0

    def test_arrowhead_route_with_verify(self, tmp_path, capsys):
        from numrange_lab.generators import FamilySpec, generate

        path = tmp_path / "bal6.json"
        save_matrix(path, generate(FamilySpec("dichotomous-arrowhead-diag", n=6, seed=4)))
        rc = main(["classify", str(path), "--verify", "--format", "json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["result"]["method"] == "ArrowheadTheorem"
        assert doc["result"]["oracle_confirmed"] is True


class TestCurveCommand:
    def test_csv_schema(self, worked_example_path, capsys):
        rc = main(["curve", worked_example_path, "--samples", "64"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "branch,theta,re,im,on_boundary"
        assert len(lines) == 1 + 4 * 64
        first = lines[1].split(",")
        assert len(first) == 5

    def test_svg_output(self, worked_example_path, tmp_path):
        out = tmp_path / "fig.svg"
        rc = main(
            [
                "curve",
                worked_example_path,
                "--samples",
                "64",
                "--format",
                "svg",
                "--support-lines",
                "0,3.14159265,4.71238898",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        svg = out.read_text()
        assert svg.startswith("<svg")
        assert svg.count("stroke-dasharray") == 3  # the three dotted support lines
        assert svg.count("<circle") == 4  # images of the standard basis vectors
        assert "<polyline" in svg and "<polygon" in svg

    def test_two_by_two_single_ellipse(self, tmp_path, capsys):
        path = tmp_path / "e.json"
        save_matrix(path, np.array([[0, 1], [0, 0]], dtype=complex))
        rc = main(["curve", str(path), "--samples", "64"])
        lines = capsys.readouterr().out.strip().splitlines()[1:]
        # branch 1 is the boundary ellipse, flagged on_boundary
        top = [l for l in lines if l.startswith("1,")]
        assert all(l.endswith(",1") for l in top)

    def test_unwritable_output_exit_4(self, worked_example_path):
        assert main(["curve", worked_example_path, "--out", "/nonexistent-dir/x.csv"]) == 4

    def test_direct_sum_branches_inside_hull(self, tmp_path, capsys):
        # two ellipse blocks: all branch points lie inside the convex hull
        # spanned by the boundary-flagged points
        a = np.zeros((4, 4), dtype=complex)
        a[:2, :2] = np.array([[0, 2], [0, 0]])
        a[2:, 2:] = np.array([[1.0, 1.0], [0, 1.0 + 0.5j]])
        path = tmp_path / "pair.json"
        save_matrix(path, a)
        rc = main(["curve", str(path), "--samples", "128"])
        assert rc == 0
        rows = [l.split(",") for l in capsys.readouterr().out.strip().splitlines()[1:]]
        pts = np.array([float(r[2]) + 1j * float(r[3]) for r in rows])
        flags = np.array([r[4] == "1" for r in rows])
        hull_pts = pts[flags]
        # support test: every sampled point is dominated by the hull points
        for theta in np.linspace(0, 2 * np.pi, 64, endpoint=False):
            proj = np.real(np.exp(-1j * theta) * pts)
            hull_proj = np.real(np.exp(-1j * theta) * hull_pts)
            assert proj.max() <= hull_proj.max() + 1e-9


class TestGenerateAndVerify:
    def test_generate_passes_family_check(self, tmp_path, capsys):
        out = tmp_path / "gen.json"
        rc = main(["generate", "--family", "k4-split-31", "--seed", "7", "--out", str(out)])
        assert rc == 0
        a, meta, _ = load_matrix(out)
        assert meta["family"] == "k4-split-31"
        from numrange_lab.classify import k4_check

        ok, _ = k4_check(a)
        assert ok

    def test_verify_match_exit_0(self, worked_example_path, capsys):
        assert main(["verify", worked_example_path, "--claim", "3"]) == 0
        assert "match" in capsys.readouterr().out

    def test_verify_mismatch_exit_1(self, worked_example_path, capsys):
        assert main(["verify", worked_example_path, "--claim", "4"]) == 1

    def test_generate_infeasible_exit_5(self, tmp_path):
        rc = main(["generate", "--family", "reducible-mixed", "--n", "5", "--out", str(tmp_path / "x.json")])
        assert rc == 5

    def test_tolerance_env_override(self, worked_example_path, monkeypatch, capsys):
        monkeypatch.setenv("NUMRANGE_TOL", "1e-9")
        rc = main(["classify", worked_example_path, "--format", "json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["tolerances"]["eq_tol"] == 1e-9


class TestOutOfRangeInput:
    """Values the library cannot use are parse errors (exit 2 with an error
    line), never the default in disguise or a traceback with the mismatch code."""

    def check(self, argv, capsys):
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_zero_tolerance(self, worked_example_path, capsys):
        self.check(["classify", worked_example_path, "--tol", "0"], capsys)

    def test_negative_tolerance(self, worked_example_path, capsys):
        self.check(["classify", worked_example_path, "--tol=-1e-8"], capsys)

    def test_tolerance_env_not_a_number(self, worked_example_path, monkeypatch, capsys):
        monkeypatch.setenv("NUMRANGE_TOL", "abc")
        self.check(["classify", worked_example_path], capsys)

    def test_verify_negative_samples(self, worked_example_path, capsys):
        self.check(["verify", worked_example_path, "--claim", "3", "--samples", "-5"], capsys)

    def test_verify_zero_samples(self, worked_example_path, capsys):
        self.check(["verify", worked_example_path, "--claim", "3", "--samples", "0"], capsys)

    def test_curve_zero_samples(self, worked_example_path, capsys):
        self.check(["curve", worked_example_path, "--samples", "0"], capsys)
