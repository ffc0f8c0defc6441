import json
import os
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest

from conftest import balanced_arrowhead, near_normal4, random_matrix, rng_for
import numrange_lab
from numrange_lab import arrowhead, cli, numrange, oracle, reduction
from numrange_lab.classify import classify_any
from numrange_lab.cli import build_parser, main
from numrange_lab.generators import FamilySpec, flat_portion_example, generate
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

    @pytest.mark.parametrize(
        "doc",
        [
            {"n": "abc", "entries": [[1, 0]]},
            {"n": 1, "entries": 5},
            {"n": 2.5, "entries": [[1, 0]] * 4},
            {"n": True, "entries": [[1, 0]]},
            {"n": 1, "entries": [[True, 0]]},
        ],
        ids=["n-not-a-number", "entries-not-a-list", "n-fractional", "n-boolean", "entry-boolean"],
    )
    def test_malformed_fields_are_parse_errors(self, tmp_path, doc, capsys):
        from numrange_lab.matrixio import MatrixParseError

        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(MatrixParseError):
            load_matrix(path)
        assert main(["classify", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")


    @pytest.mark.parametrize(
        "text, problem",
        [
            ('{"n": 1, "entries": [["3/x", 0]]}', "bad numeric string '3/x'"),
            ('{"n": 1, "entries": [["1/0", 0]]}', "bad numeric string '1/0'"),
            ('{"entries": [[1, 0]]}', "needs 'n' and 'entries'"),
            ('{"n": 1}', "needs 'n' and 'entries'"),
            ('{"n": 1, "entries": [[1, 0, 0]]}', "entry 0 must be an [re, im] pair"),
            ('{"n": 2, "entries": [[1, 0], [0, 0], 5, [1, 0]]}', "entry 2 must be an [re, im] pair"),
            ('{"n": 1, "entries": [[NaN, 0]]}', "entry 0 is not finite"),
            ('{"n": 1, "entries": [[0, 1e400]]}', "entry 0 is not finite"),
            ('{"n": 1, "entries": [["1e400", 0]]}', "numeric string '1e400' is not finite as a float"),
        ],
        ids=["bad-string", "zero-denominator", "no-n", "no-entries", "triple", "scalar-entry", "nan", "inf",
             "string-overflow"],
    )
    def test_rejection_names_the_problem(self, tmp_path, text, problem, capsys):
        path = tmp_path / "m.json"
        path.write_text(text)
        assert main(["classify", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and problem in err


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

    def test_verify_report_says_where_k_lower_comes_from(self, tmp_path, capsys):
        # k = n: the route's witness passes, so nothing is searched; k = 2 < 4
        # with a cover that keeps a triangle: the search runs only for the sizes
        # above the claim; k = 2 with a proved cover: nothing is searched
        cases = (("dichotomous-arrowhead-diag", generate(FamilySpec("dichotomous-arrowhead-diag", n=6, seed=4)), [],
                  None),
                 ("near-normal", near_normal4(7100, 1e-3), [4, 3], None),
                 ("pure-almost-normal", generate(FamilySpec("pure-almost-normal", seed=4)), [], 2))
        for name, a, sizes, k_upper in cases:
            path = tmp_path / f"{name}.json"
            save_matrix(path, a)
            assert main(["classify", str(path), "--verify", "--format", "json"]) == 0
            oracle_ = json.loads(capsys.readouterr().out)["oracle"]
            provenance = oracle_["k_lower_source"], oracle_["witness_check"], oracle_["searched_sizes"]
            assert provenance == ("witness", "passed", sizes) and oracle_["k_upper"] == k_upper, name
            assert main(["classify", str(path), "--verify"]) == 0
            line = f"oracle: {oracle_['k_lower']} vectors from the witness; witness passed; sizes searched: "
            line += (", ".join(map(str, sizes)) or "none") + ("; k <= 2 proved by the cover" if k_upper else "")
            assert line in capsys.readouterr().out

    def test_json_report_carries_the_cover(self, tmp_path, capsys):
        path = tmp_path / "unbalanced.json"
        save_matrix(path, generate(FamilySpec("unbalanced-arrowhead", seed=5)))
        assert main(["classify", str(path), "--format", "json"]) == 0
        cover = json.loads(capsys.readouterr().out)["result"]["certificate"]["cover"]
        assert cover["status"] == "proved" and cover["k_upper"] == 2
        # one base-36 bisection depth per cell: the half-widths add up to pi
        depths = [int(d, 36) for d in cover["depths"]]
        assert len(depths) == cover["nodes"] >= 128 and sum(0.5 ** d for d in depths) == 128
        assert 0 < cover["largest_radius"] <= 0.05 and cover["margin"] > 0

    def test_parser_is_built_once(self, worked_example_path, monkeypatch):
        assert build_parser() is build_parser()
        # the cached parser holds no command function: main looks it up when it runs
        monkeypatch.setattr(cli, "cmd_verify", lambda args: 7)
        assert main(["verify", worked_example_path, "--claim", "3"]) == 7


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

    @pytest.mark.parametrize("flag, fam, knob", [("--config", "ellipse-pair", "crossed"),
                                                ("--edge", "k4-split-22", "reducible-zero-product")])
    def test_generate_knob_reaches_the_family(self, flag, fam, knob, tmp_path, capsys):
        out = tmp_path / "gen.json"
        assert main(["generate", "--family", fam, "--seed", "3", flag, knob, "--out", str(out)]) == 0
        assert capsys.readouterr().out == f"{out}\n"
        a, meta, _ = load_matrix(out)
        knobs = {flag[2:]: knob}
        assert meta == {"family": fam, "seed": 3, "knobs": knobs}
        assert a.tobytes() == np.asarray(generate(FamilySpec(fam, seed=3, knobs=knobs)), dtype=complex).tobytes()
        assert not np.array_equal(a, generate(FamilySpec(fam, seed=3)))

    def test_generate_unwritable_output_exit_4(self, tmp_path, capsys):
        out = tmp_path / "missing-dir" / "x.json"
        assert main(["generate", "--family", "k4-split-31", "--out", str(out)]) == 4
        assert capsys.readouterr().err.startswith("error:") and not out.exists()

    @pytest.mark.parametrize("command", [["curve"], ["verify", "--claim", "2"]])
    def test_unparsable_matrix_exit_2(self, command, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("nope")
        assert main([command[0], str(bad), *command[1:]]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_generate_infeasible_exit_5(self, tmp_path):
        rc = main(["generate", "--family", "reducible-mixed", "--n", "5", "--out", str(tmp_path / "x.json")])
        assert rc == 5

    def test_generate_negative_seed_exit_2(self, tmp_path, capsys):
        out = tmp_path / "x.json"
        rc = main(["generate", "--family", "k3-parallel-lines", "--seed", "-1", "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()

    def test_generate_ellipse_family_off_size_exit_5(self, tmp_path):
        out = tmp_path / "x.json"
        assert main(["generate", "--family", "ellipse-pair", "--n", "7", "--out", str(out)]) == 5
        assert not out.exists()

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

    @pytest.mark.parametrize("command", [["curve"], ["verify", "--claim", "3"]])
    def test_only_classify_takes_a_tolerance(self, command, worked_example_path, monkeypatch, capsys):
        # curve and verify read no tolerance: --tol is unknown to them, and
        # NUMRANGE_TOL, which only classify reads, does not reach them
        with pytest.raises(SystemExit) as exc:
            main([command[0], worked_example_path, *command[1:], "--tol", "1e-9"])
        assert exc.value.code == 2 and "--tol" in capsys.readouterr().err
        monkeypatch.setenv("NUMRANGE_TOL", "abc")
        assert main([command[0], worked_example_path, *command[1:]]) == 0

    def test_verify_negative_samples(self, worked_example_path, capsys):
        self.check(["verify", worked_example_path, "--claim", "3", "--samples", "-5"], capsys)

    def test_verify_zero_samples(self, worked_example_path, capsys):
        self.check(["verify", worked_example_path, "--claim", "3", "--samples", "0"], capsys)

    @pytest.mark.parametrize("claim", ["0", "5"])
    def test_verify_claim_outside_one_to_n(self, worked_example_path, claim, capsys):
        self.check(["verify", worked_example_path, "--claim", claim], capsys)

    def test_curve_zero_samples(self, worked_example_path, capsys):
        self.check(["curve", worked_example_path, "--samples", "0"], capsys)

    @pytest.mark.parametrize("lines", ["0,abc", "1,,2", "nan"], ids=["not-a-number", "empty-item", "not-finite"])
    def test_curve_bad_support_lines(self, worked_example_path, lines, capsys):
        argv = ["curve", worked_example_path, "--samples", "64", "--format", "svg", "--support-lines", lines]
        self.check(argv, capsys)


# the classification stages, wherever the package binds them
STAGES = {
    "detect_seeds": numrange.detect_seeds,
    "decompose": reduction.decompose,
    "dichotomy_check": arrowhead.dichotomy_check,
    "max_orthonormal_boundary_set": oracle.max_orthonormal_boundary_set,
}


@pytest.fixture
def stage_counts(monkeypatch, support_builds):
    """``take()`` returns the stage calls and SupportFunction builds since the
    previous ``take()``."""
    calls = Counter()
    for mod in [m for name, m in list(sys.modules.items()) if name.startswith("numrange_lab")]:
        for name, fn in STAGES.items():
            if getattr(mod, name, None) is fn:

                def counting(*args, _fn=fn, _name=name, **kwargs):
                    calls[_name] += 1
                    return _fn(*args, **kwargs)

                monkeypatch.setattr(mod, name, counting)

    def take():
        out = (dict(calls), dict(support_builds))
        calls.clear()
        support_builds.clear()
        return out

    return take


def _report(tmp_path, a, capsys, *extra, fmt="json"):
    path = tmp_path / "m.json"
    save_matrix(path, a)
    assert main(["classify", str(path), "--format", fmt, *extra]) == 0
    out = capsys.readouterr().out
    return json.loads(out) if fmt == "json" else out


class TestReportReadsTheRoute:
    """The report is built from what classify_any computed: the CLI runs no
    stage of its own, and a section is null when the route skipped its stage."""

    @pytest.mark.parametrize(
        "make, extra",
        [
            (flat_portion_example, ()),
            (lambda: balanced_arrowhead(21, 5).to_dense(), ()),
            (lambda: random_matrix(rng_for(1), 5), ("--oracle",)),
            (lambda: random_matrix(rng_for(1), 5), ("--oracle", "--verify")),
        ],
        ids=["worked-example", "balanced-arrowhead-5", "dense-5-oracle", "dense-5-oracle-verify"],
    )
    def test_no_stage_of_its_own(self, make, extra, tmp_path, stage_counts, capsys):
        a = make()
        classify_any(a, allow_oracle_only=bool(extra))
        bare = stage_counts()
        _report(tmp_path, a, capsys, *extra)
        assert stage_counts() == bare

    def test_seed_route(self, tmp_path, capsys):
        a = flat_portion_example()
        doc = _report(tmp_path, a, capsys)
        seeds = classify_any(a).work["seeds"]
        assert doc["result"]["method"] == "SeedPresent3" and seeds
        assert doc["seeds"] == [
            {"kind": s.kind, "theta": s.theta, "segment": [[z.real, z.imag] for z in s.segment]} for s in seeds
        ]
        assert doc["decomposition"] == {"block_sizes": [4]}
        assert doc["dichotomy"] is None

    def test_direct_sum_route(self, tmp_path, capsys):
        doc = _report(tmp_path, np.diag([1.0, 1j, -1.0, -1j]), capsys)
        assert doc["result"]["method"] == "DirectSum"
        assert doc["decomposition"] == {"block_sizes": [1, 1, 1, 1]}
        assert doc["dichotomy"] is None and doc["seeds"] is None

    def test_dichotomy_route(self, tmp_path, capsys):
        doc = _report(tmp_path, generate(FamilySpec("k4-split-22", seed=3000)), capsys)
        assert doc["result"]["method"] == "Dichotomy4"
        dich = doc["dichotomy"]
        assert dich["case"] == "2+2" and dich["theta"] == doc["result"]["certificate"]["theta"]
        assert dich["h0"] < dich["h1"]
        assert doc["decomposition"] == {"block_sizes": [4]}
        assert doc["seeds"] is None

    def test_dichotomy_route_text(self, tmp_path, capsys):
        a = generate(FamilySpec("k4-split-22", seed=3000))
        dich = _report(tmp_path, a, capsys)["dichotomy"]
        text = _report(tmp_path, a, capsys, fmt="text")
        levels = f"(levels {dich['h0']:.12g}, {dich['h1']:.12g})"
        assert f"dichotomy: case 2+2 at theta = {dich['theta']:.12g} {levels}\n" in text

    def test_conversion_error_text(self, tmp_path, capsys):
        path = tmp_path / "r.json"
        path.write_text(json.dumps({"n": 2, "entries": [["1/3", 0], [0, 0], [0, 0], ["2/7", "1/9"]]}))
        assert main(["classify", str(path)]) == 0
        err = load_matrix(path)[2]
        assert err > 0
        assert capsys.readouterr().out.endswith(f"rational-to-float conversion error: {err:.3e}\n")

    def test_tolerances_and_normalisation(self, tmp_path, capsys):
        doc = _report(tmp_path, flat_portion_example(), capsys)
        assert doc["tolerances"] == {"eq_tol": 1e-8, "cluster_tol": 1e-7, "gram_tol": 1e-6, "boundary_tol": 1e-8,
                                     "split_tol": 1e-12}
        assert doc["normalisation"] == doc["result"]["certificate"]["normalisation"]
        assert set(doc["normalisation"]) == {"shift", "scale"}

    def test_scaled_and_shifted_file(self, tmp_path, capsys):
        # a file holding 1e-20 A + shift gives A's answer, and its levels are
        # A's mapped by h -> Re(e^{-i theta} shift) + 1e-20 h
        a = generate(FamilySpec("k4-split-22", seed=3000))
        c, shift = 1e-20, 1e-20 * (3 - 2j)
        base = _report(tmp_path, a, capsys)
        doc = _report(tmp_path, c * a + shift * np.eye(4), capsys)
        assert (doc["result"]["k"], doc["result"]["method"]) == (base["result"]["k"], base["result"]["method"])
        theta = doc["dichotomy"]["theta"]
        assert abs(theta - base["dichotomy"]["theta"]) < 1e-8
        for key in ("h0", "h1"):
            h = (doc["dichotomy"][key] - (np.exp(-1j * theta) * shift).real) / c
            assert abs(h - base["dichotomy"][key]) <= 1e-8 * np.linalg.norm(a, 2)
        scale = base["normalisation"]["scale"]
        assert abs(doc["normalisation"]["scale"] / c - scale) <= 1e-12 * scale

    def test_balanced_arrowhead_route(self, tmp_path, capsys):
        a = balanced_arrowhead(21, 5).to_dense()
        doc = _report(tmp_path, a, capsys)
        assert doc["result"]["method"] == "ArrowheadTheorem"
        assert doc["dichotomy"] is None and doc["seeds"] is None and doc["decomposition"] is None
        text = _report(tmp_path, a, capsys, fmt="text")
        assert "k(A) = " in text
        assert not any(word in text for word in ("dichotomy", "seeds", "blocks"))


# one classification per family, searched as well, and one CLI report; prints
# the numpy.ma modules loaded by then
_FOOTPRINT_SCRIPT = """
import os, sys
from numrange_lab import cli
from numrange_lab.classify import classify_any
from numrange_lab.generators import ALL_FAMILIES, FamilySpec, generate
from numrange_lab.matrixio import save_matrix
for fam in ALL_FAMILIES:
    classify_any(generate(FamilySpec(fam, seed=0)), confirm_with_oracle=True)
path = os.path.join(sys.argv[1], "m.json")
save_matrix(path, generate(FamilySpec("k4-split-22", seed=0)))
assert cli.main(["classify", path, "--verify", "--format", "json", "--out", path + ".out"]) == 0
print(sorted(name for name in sys.modules if name.split(".")[:2] == ["numpy", "ma"]))
"""


def test_classification_and_report_leave_numpy_ma_unloaded(tmp_path):
    # numpy.ma, which np.unique, np.median and np.percentile import, added
    # 1.2 MB to the peak RSS of a classification process
    src = os.path.dirname(os.path.dirname(numrange_lab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", _FOOTPRINT_SCRIPT, str(tmp_path)], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out == "[]\n"
