"""CLI contract: schemas, exit codes, determinism, and the published files."""

import json
import math
import os

import jsonschema
import numpy as np
import pytest

import twosheet as ts
from twosheet.cli import main
from twosheet.schemas import OUTPUT_SCHEMAS, all_schema_files

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EVENTS = '"event_a": {"t": 0.0, "x": [0, 0, 0]}, "event_b": {"t": 2.0, "x": [0, 0, 0]}'


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


@pytest.fixture
def two_point_file(tmp_path):
    path = tmp_path / "two_point.json"
    ts.save_triple(ts.two_point_triple(2.0), path)
    return str(path)


@pytest.fixture
def scenario(tmp_path):
    def write(doc, name="scenario.json"):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)
    return write


class TestValidate:
    def test_two_point(self, capsys, two_point_file):
        code, doc = run_json(capsys, "validate", "--triple", two_point_file)
        assert code == 0
        assert doc["all_passed"] is True
        jsonschema.validate(doc, OUTPUT_SCHEMAS["validate"])

    def test_corrupted_triple_reports_failure(self, capsys, tmp_path):
        t = ts.two_point_triple(1.0)
        bad = ts.FiniteTriple(2, t.algebra_generators,
                              np.array([[0, 1], [2, 0]], dtype=complex))
        path = tmp_path / "bad.json"
        ts.save_triple(bad, path)
        code, doc = run_json(capsys, "validate", "--triple", str(path))
        assert code == 0  # failures are report entries, not errors
        assert doc["all_passed"] is False
        failed = {c["name"] for c in doc["checks"] if not c["passed"]}
        assert failed == {"dirac_hermitian"}


class TestDistance:
    def test_pure_states_m2(self, capsys, two_point_file):
        code, doc = run_json(capsys, "distance", "--triple", two_point_file,
                             "--state-a", "0", "--state-b", "1")
        assert code == 0
        assert doc["value"] == pytest.approx(0.5, abs=1e-9)
        jsonschema.validate(doc, OUTPUT_SCHEMAS["distance"])

    def test_weight_lists_and_oracle(self, capsys, two_point_file):
        code, doc = run_json(capsys, "distance", "--triple", two_point_file,
                             "--state-a", "[0.25, 0.75]", "--state-b", "[0.85, 0.15]",
                             "--oracle-step", "1e-3")
        assert code == 0
        assert doc["value"] == pytest.approx(0.6 / 2.0, abs=1e-9)
        assert doc["gap"] <= 2e-3
        jsonschema.validate(doc, OUTPUT_SCHEMAS["distance"])

    def test_infinite_distance_encoding(self, capsys, tmp_path):
        path = tmp_path / "degenerate.json"
        ts.save_triple(ts.two_point_triple(0.0), path)
        code, doc = run_json(capsys, "distance", "--triple", str(path),
                             "--state-a", "0", "--state-b", "1")
        assert code == 0
        assert doc["value"] == "inf"
        assert doc["maximizer"] is None
        jsonschema.validate(doc, OUTPUT_SCHEMAS["distance"])

    def test_huge_coupling(self, capsys, tmp_path):
        # the SVD of the unscaled commutators overflows and used to report "inf"
        path = tmp_path / "huge.json"
        ts.save_triple(ts.two_point_triple(1e308), path)
        code, doc = run_json(capsys, "distance", "--triple", str(path),
                             "--state-a", "0", "--state-b", "1")
        assert code == 0
        assert doc["value"] == pytest.approx(1e-308, rel=1e-12)
        jsonschema.validate(doc, OUTPUT_SCHEMAS["distance"])

    @pytest.mark.parametrize("step", ["-1", "0", "nan", "1e-9"])
    def test_bad_oracle_step_exit_1(self, capsys, two_point_file, step):
        # 1e-9 asks for a grid of 1e9 points, refused before np.arange allocates it
        code, doc = run_json(capsys, "distance", "--triple", two_point_file,
                             "--state-a", "0", "--state-b", "1", "--oracle-step", step)
        assert code == 1
        assert doc["error"] in {"DomainError", "OracleIntractable"}

    def test_unsupported_algebra_exit_1(self, capsys, tmp_path):
        path = tmp_path / "ew.json"
        ts.save_triple(ts.electroweak_triple(1.0), path)
        code, doc = run_json(capsys, "distance", "--triple", str(path),
                             "--state-a", "0", "--state-b", "1")
        assert code == 1
        assert doc["error"] == "UnsupportedAlgebra"


class TestCausal:
    def test_reflexive_same_sheet(self, capsys, scenario):
        doc = {"event_a": {"t": 0.0, "x": [0, 0, 0]},
               "event_b": {"t": 0.0, "x": [0, 0, 0]},
               "m": [1.0, 0.0], "sheets": [0, 0]}
        code, out = run_json(capsys, "causal", scenario(doc))
        assert code == 0
        assert out["related"] is True
        assert out["proper_time"] == 0.0
        jsonschema.validate(out, OUTPUT_SCHEMAS["causal"])

    def test_cross_sheet_threshold(self, capsys, scenario):
        doc = {"event_a": {"t": 0.0, "x": [0, 0, 0]},
               "event_b": {"t": math.pi / 2, "x": [0, 0, 0]},
               "m": [1.0, 0.0], "sheets": [0, 1]}
        code, out = run_json(capsys, "causal", scenario(doc))
        assert code == 0
        assert out["related"] is True
        assert out["threshold"] == pytest.approx(math.pi / 2)
        assert abs(out["L2m"]) < 1e-12

    def test_mixed_states(self, capsys, scenario):
        doc = {"event_a": {"t": 0.0, "x": [0, 0, 0]},
               "event_b": {"t": 2.0, "x": [0, 0, 0]},
               "m": [1.0, 0.0], "xis": [0.0, 1.0]}
        code, out = run_json(capsys, "causal", scenario(doc))
        assert code == 0
        assert out["related"] is True
        assert out["L2m"] is None
        assert out["threshold"] == pytest.approx(math.pi / 2)
        jsonschema.validate(out, OUTPUT_SCHEMAS["causal"])

    def test_degenerate_mass_infinite_threshold(self, capsys, scenario):
        doc = {"event_a": {"t": 0.0, "x": [0, 0, 0]},
               "event_b": {"t": 5.0, "x": [0, 0, 0]},
               "m": [0.0, 0.0], "sheets": [0, 1]}
        code, out = run_json(capsys, "causal", scenario(doc))
        assert code == 0
        assert out["related"] is False
        assert out["L2m"] == "inf"
        assert out["threshold"] == "inf"
        jsonschema.validate(out, OUTPUT_SCHEMAS["causal"])

    @pytest.mark.parametrize("m", [[0.0, 0.0], [1.3, 0.0], [-0.4, 2.1]])
    @pytest.mark.parametrize("xis", [[0.0, 1.0], [0.35, 0.35], [0.9, 0.2], [1, 0]])
    def test_mixed_threshold_matches_arcsin_formula(self, capsys, scenario, m, xis):
        doc = {"event_a": {"t": 0.0, "x": [0, 0, 0]},
               "event_b": {"t": 1.5, "x": [0.2, 0, 0]}, "m": m, "xis": xis}
        code, out = run(capsys, "causal", scenario(doc))
        assert code == 0
        xi, eta = xis
        mass = abs(complex(*m))
        if mass == 0:
            threshold = 0.0 if xi == eta else "inf"
            related = abs(xi - eta) <= 1e-12
        else:
            threshold = abs(math.asin(math.sqrt(eta)) - math.asin(math.sqrt(xi))) / mass
            related = math.sqrt(1.5**2 - 0.2**2) >= threshold - 1e-12
        expected = {"L2m": None, "proper_time": math.sqrt(1.5**2 - 0.2**2),
                    "related": related, "threshold": threshold}
        assert out == json.dumps(expected, sort_keys=True) + "\n"


class TestCone:
    def test_time_gradient(self, capsys, scenario):
        code, out = run_json(capsys, "cone", scenario({"k": [1.0, 0, 0, 0]}))
        assert code == 0
        assert out["causal"] is True
        assert out["worst_eigenvalue"] == pytest.approx(-1.0)
        jsonschema.validate(out, OUTPUT_SCHEMAS["cone"])

    def test_space_gradient(self, capsys, scenario):
        code, out = run_json(capsys, "cone", scenario({"k": [0.0, 1.0, 0, 0]}))
        assert code == 0
        assert out["causal"] is False
        assert out["worst_eigenvalue"] == pytest.approx(1.0)

    def test_two_sheet_element(self, capsys, scenario):
        doc = {"k0": [1.0, 0, 0, 0], "k1": [1.0, 0, 0, 0], "c0": 0.0, "c1": 0.0,
               "m": [1.0, 0.0],
               "box": {"t": [-1, 1], "x": [-1, 1], "y": [-1, 1], "z": [-1, 1], "n": 2}}
        code, out = run_json(capsys, "cone", scenario(doc))
        assert code == 0
        assert out["causal"] is True
        assert out["worst_eigenvalue"] == pytest.approx(-1.0)
        jsonschema.validate(out, OUTPUT_SCHEMAS["cone"])

    @pytest.mark.parametrize("seed", range(6))
    def test_box_matches_every_grid_event(self, capsys, scenario, basis, seed):
        # reference: the largest cone eigenvalue over every event of the grid
        rng = np.random.default_rng(seed)
        n = (1, 2, 3)[seed % 3]
        box = {name: sorted(float(v) for v in rng.uniform(-2, 2, size=2))
               for name in ("t", "x", "y", "z")}
        doc = {"k0": [float(v) for v in rng.normal(size=4)],
               "k1": [float(v) for v in rng.normal(size=4)],
               "c0": float(rng.normal()), "c1": float(rng.normal()),
               "m": [float(v) for v in rng.normal(size=2)], "box": {**box, "n": n}}
        m = complex(*doc["m"])
        axes = [np.linspace(*box[name], n) for name in ("t", "x", "y", "z")]
        worst = max(
            float(np.max(np.linalg.eigvalsh(ts.two_sheet_cone_matrix(
                doc["k0"], doc["k1"], doc["c0"], doc["c1"], m, ts.Event(t, [x, y, z]),
                basis))))
            for t in axes[0] for x in axes[1] for y in axes[2] for z in axes[3])
        code, out = run(capsys, "cone", scenario(doc))
        assert code == 0
        expected = {"causal": worst <= 1e-12, "worst_eigenvalue": worst}
        assert out == json.dumps(expected, sort_keys=True) + "\n"


class TestLightconeScan:
    def test_csv_boundary(self, capsys, scenario):
        doc = {"m": [1.0, 0.0], "t_min": 0.0, "t_max": 2.0, "t_steps": 5,
               "r_min": 0.0, "r_max": 1.0, "r_steps": 3}
        code, out = run(capsys, "lightcone-scan", scenario(doc))
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "t,r,sheet_crossing_allowed"
        assert len(lines) == 1 + 5 * 3
        rows = [line.split(",") for line in lines[1:]]
        # crossing from the origin needs proper time >= pi/2
        for t_str, r_str, flag in rows:
            t, r = float(t_str), float(r_str)
            expected = t >= r and t * t - r * r >= (math.pi / 2) ** 2 - 1e-12
            assert int(flag) == int(expected)

    @pytest.mark.parametrize("doc", [
        {"m": [0.8, -0.5], "t_min": -1.0, "t_max": 3.5, "t_steps": 23,
         "r_min": -0.5, "r_max": 2.5, "r_steps": 17},
        {"m": [0.0, 0.0], "t_min": -0.25, "t_max": 40.0, "t_steps": 9,
         "r_min": 0.0, "r_max": 1.0, "r_steps": 4},
        {"m": [2.0, 0.0], "t_min": 0.0, "t_max": math.pi / 4, "t_steps": 1,
         "r_min": 0.0, "r_max": 0.0, "r_steps": 1},
    ])
    def test_matches_cell_by_cell_relation(self, capsys, scenario, doc):
        m = complex(*doc["m"])
        origin = ts.SheetPoint(ts.Event(0.0, np.zeros(3)), 0)
        lines = ["t,r,sheet_crossing_allowed"]
        for t in np.linspace(doc["t_min"], doc["t_max"], doc["t_steps"]):
            for r in np.linspace(doc["r_min"], doc["r_max"], doc["r_steps"]):
                target = ts.SheetPoint(ts.Event(float(t), [float(r), 0.0, 0.0]), 1)
                allowed = ts.causally_related_pure(origin, target, m)
                lines.append(f"{float(t)!r},{float(r)!r},{int(allowed)}")
        code, out = run(capsys, "lightcone-scan", scenario(doc))
        assert code == 0
        assert out == "\n".join(lines) + "\n"


class TestClassify:
    def test_harmonic(self, capsys, scenario, tmp_path):
        path = tmp_path / "m4.json"
        ts.save_triple(ts.two_point_triple(4.0), path)
        doc = {"triple_file": str(path), "E": 5.0, "p": [3.0, 0.0, 0.0],
               "internal_index": 0}
        code, out = run_json(capsys, "classify", scenario(doc))
        assert code == 0
        assert out["class"] == "Harmonic"
        assert out["on_shell_E"] == pytest.approx(5.0)
        jsonschema.validate(out, OUTPUT_SCHEMAS["classify"])

    def test_internal_index_out_of_range_exit_1(self, capsys, scenario, two_point_file):
        doc = {"triple_file": two_point_file, "E": 1.0, "p": [0, 0, 0],
               "internal_index": 7}
        code, out = run_json(capsys, "classify", scenario(doc))
        assert code == 1
        assert out["error"] == "DomainError"


class TestFluctuate:
    def test_doublet_form(self, capsys, scenario):
        doc = {"m_e": [1.0, 0.0], "h1": [0.0, 0.0], "h2": [0.0, 0.0]}
        code, out = run_json(capsys, "fluctuate", scenario(doc))
        assert code == 0
        assert out["trace_phi_sq"] == pytest.approx(2.0)
        assert out["closed_form"] == pytest.approx(2.0)
        assert out["max_abs_diff"] <= 1e-10
        jsonschema.validate(out, OUTPUT_SCHEMAS["fluctuate"])

    def test_broken_form(self, capsys, scenario):
        doc = {"m_e": [2.0, 0.0], "v": 3.0, "h": 0.1}
        code, out = run_json(capsys, "fluctuate", scenario(doc))
        assert code == 0
        assert out["trace_phi_sq"] == pytest.approx(2 * 4 * 3.1**2)
        assert out["max_abs_diff"] <= 1e-10


class TestEWDispersion:
    def test_electron(self, capsys, scenario):
        doc = {"m_e": [1.0, 0.0], "v": 2.0, "h": 0.1, "p": [1.0, 0.0, 0.0],
               "state": "e_L"}
        code, out = run_json(capsys, "ew-dispersion", scenario(doc))
        assert code == 0
        assert out["E_on_shell"] == pytest.approx(math.sqrt(1 + 2.1**2))
        assert abs(out["residual"]) <= 1e-10
        jsonschema.validate(out, OUTPUT_SCHEMAS["ew-dispersion"])

    def test_neutrino(self, capsys, scenario):
        doc = {"m_e": [1.0, 0.0], "v": 2.0, "h": 0.1, "p": [1.0, 0.0, 0.0],
               "state": "nu_L"}
        code, out = run_json(capsys, "ew-dispersion", scenario(doc))
        assert code == 0
        assert out["E_on_shell"] == pytest.approx(1.0)
        assert abs(out["residual"]) <= 1e-10

    def test_unknown_state_exit_1(self, capsys, scenario):
        doc = {"m_e": [1.0, 0.0], "v": 2.0, "h": 0.1, "p": [1.0, 0.0, 0.0],
               "state": "tau_L"}
        code, out = run_json(capsys, "ew-dispersion", scenario(doc))
        assert code == 1
        assert out["error"] == "StateError"


class TestInputHandling:
    def test_malformed_json_exit_2(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, out = run_json(capsys, "causal", str(path))
        assert code == 2
        assert out["error"] == "MalformedInput"

    def test_unknown_field_rejected(self, capsys, scenario):
        doc = {"event_a": {"t": 0.0, "x": [0, 0, 0]},
               "event_b": {"t": 1.0, "x": [0, 0, 0]},
               "m": [1.0, 0.0], "sheets": [0, 0], "extra": 1}
        code, out = run_json(capsys, "causal", scenario(doc))
        assert code == 2
        assert out["error"] == "MalformedInput"

    def test_missing_file_exit_2(self, capsys):
        code, out = run_json(capsys, "causal", "/nonexistent/path.json")
        assert code == 2

    def test_bad_state_text_exit_2(self, capsys, two_point_file):
        code, out = run_json(capsys, "distance", "--triple", two_point_file,
                             "--state-a", "oops", "--state-b", "1")
        assert code == 2

    @pytest.mark.parametrize("command, text", [
        ("causal", '{%s, "m": [NaN, 0.0], "sheets": [0, 1]}' % EVENTS),
        ("causal", '{%s, "m": [Infinity, 0.0], "xis": [0.2, 0.7]}' % EVENTS),
        ("fluctuate", '{"m_e": [NaN, 0.0], "v": 1.0, "h": 0.5}'),
        ("causal", '{%s, "m": [1e400, 0.0], "xis": [0.2, 0.7]}' % EVENTS),
    ], ids=["nan-causal", "inf-causal", "nan-fluctuate", "overflow-causal"])
    def test_non_finite_numbers_exit_2(self, capsys, tmp_path, command, text):
        path = tmp_path / "scenario.json"
        path.write_text(text)
        code, out = run_json(capsys, command, str(path))
        assert code == 2
        assert out["error"] == "MalformedInput"

    def test_huge_integers_exit_2(self, capsys, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text('{"event_a": {"t": 0, "x": [0, 0, 0]},'
                        ' "event_b": {"t": 1%s, "x": [0, 0, 0]},'
                        ' "m": [1.0, 0.0], "sheets": [0, 1]}' % ("0" * 400))
        code, out = run_json(capsys, "causal", str(path))
        assert code == 2
        assert out["error"] == "MalformedInput"

    def test_non_finite_result_exit_1(self, capsys, scenario):
        # finite input whose proper time and L2m overflow to +inf and -inf
        doc = {"event_a": {"t": 0.0, "x": [0, 0, 0]}, "event_b": {"t": 1e200, "x": [0, 0, 0]},
               "m": [1.0, 0.0], "sheets": [0, 1]}
        code, out = run(capsys, "causal", scenario(doc))
        assert code == 1
        assert "Infinity" not in out
        assert json.loads(out)["error"] == "DomainError"

    @pytest.mark.parametrize("command, doc", [
        ("fluctuate", {"m_e": [1e300, 0], "v": 1e300, "h": 0}),
        ("fluctuate", {"m_e": [1e300, 0], "v": 1.0, "h": 0}),
        ("cone", {"k0": [1e300, 0, 0, 0], "k1": [0, 0, 0, 0], "c0": 0, "c1": 1e308,
                  "m": [1e300, 0], "box": {"t": [0, 1], "x": [0, 1], "y": [0, 1],
                                           "z": [0, 1], "n": 2}}),
        ("cone", {"k": [1e308, 1e308, 1e308, 1e308]}),
    ], ids=["fluctuate-doublet", "fluctuate-mass", "cone-two-sheet", "cone-affine"])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy's overflow warnings
    def test_overflowing_input_exit_1(self, capsys, scenario, command, doc):
        # finite, schema-valid input whose arithmetic leaves the double range
        code, out = run_json(capsys, command, scenario(doc))
        assert code == 1
        assert out["error"] == "DomainError"

    @pytest.mark.parametrize("weights", ["[NaN, 1.0]", "[-Infinity, 1.0]", "[1e400, 0.0]"])
    def test_non_finite_state_weights_exit_2(self, capsys, two_point_file, weights):
        for flag, other in (("--state-a", "--state-b"), ("--state-b", "--state-a")):
            code, out = run_json(capsys, "distance", "--triple", two_point_file,
                                 flag, weights, other, "0")
            assert code == 2
            assert out["error"] == "MalformedInput"


class TestDeterminism:
    def test_byte_identical_across_runs(self, capsys, two_point_file):
        args = ("distance", "--triple", two_point_file, "--state-a", "0", "--state-b", "1")
        _, first = run(capsys, *args)
        _, second = run(capsys, *args)
        assert first == second

    def test_output_file(self, capsys, scenario, tmp_path):
        doc = {"k": [1.0, 0, 0, 0]}
        out_path = tmp_path / "result.json"
        code, out = run(capsys, "cone", "--output", str(out_path), scenario(doc))
        assert code == 0
        assert out == ""
        assert json.loads(out_path.read_text())["causal"] is True


def test_published_schemas_match_source():
    directory = os.path.join(REPO_ROOT, "schemas")
    files = all_schema_files()
    published = {f for f in os.listdir(directory) if f.endswith(".json")}
    assert published == set(files)
    for fname, schema in files.items():
        with open(os.path.join(directory, fname), encoding="utf-8") as fh:
            assert json.load(fh) == schema
