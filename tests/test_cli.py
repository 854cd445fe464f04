import json

import numpy as np
import pytest

from banachlab import cli, reports
from banachlab.cli import dispatch
from banachlab.core_model import Measure, PLFunction, dump_function, dump_measure


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    d = tmp_path_factory.mktemp("clifiles")
    dump_function(PLFunction.constant(1.0), str(d / "one.json"))
    dump_function(PLFunction.tent(), str(d / "tent.json"))
    dump_measure(Measure.dirac(0.0), str(d / "dirac0.json"))
    dump_measure(Measure.dirac(0.5), str(d / "dirac_half.json"))
    dump_measure(Measure.lebesgue(), str(d / "leb.json"))
    (d / "sliceset.json").write_text(
        json.dumps({"kind": "slice", "dirac": 0.5, "eps": 0.3})
    )
    return d


def run(args, out=None):
    argv = list(args)
    if out is not None:
        argv = ["--out", str(out)] + argv
    return dispatch(argv)


class TestBasics:
    def test_norm_brackets_one(self, files, tmp_path):
        out = tmp_path / "r.json"
        assert run(["--base", "leveled:i=1,levels=8", "norm", "--fn", str(files / "one.json")], out) == 0
        rep = json.loads(out.read_text())
        assert rep["results"]["lo"] <= 1.0 <= rep["results"]["hi"]
        assert rep["subcommand"] == "norm"
        assert rep["version"] == "0.1.0"

    def test_seminorms_listing(self, files, tmp_path):
        out = tmp_path / "s.json"
        assert run(["seminorms", "--fn", str(files / "tent.json"), "--max-n", "4"], out) == 0
        rep = json.loads(out.read_text())
        assert len(rep["results"]["values"]) == 4

    def test_usage_error_unknown_flag(self, files):
        assert run(["norm", "--fn", str(files / "one.json"), "--bogus"]) == 1

    def test_missing_file_is_config_error(self):
        assert run(["norm", "--fn", "/nonexistent.json"]) == 1

    def test_seed_mandatory_for_stochastic(self, files):
        assert run(["dual-norm", "--measure", str(files / "dirac0.json")]) == 1

    def test_csv_limited_to_diam(self, files):
        assert run(["--format", "csv", "norm", "--fn", str(files / "one.json")]) == 1

    def test_precondition_exit_one(self, files):
        code = run(
            ["--seed", "1", "slice-witness", "--measure", str(files / "dirac_half.json"),
             "--fn", str(files / "one.json"), "--eps", "0.3", "--delta", "0.4"]
        )
        assert code == 1


class TestBadInputs:
    """Inputs that must end in a one-line ``error:`` and exit 1, not a traceback."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["--base", "leveled:i=abc", "nested", "--op", "product"],
            ["--base", "leveled:i=1.5", "nested", "--op", "product"],
            ["nested", "--op", "norm"],
            ["nested", "--op", "norm", "--vec", '[1,"a"]'],
            ["nested", "--op", "norm", "--vec", "[1e999]"],
            ["nested", "--p", "geometric:base=x", "--op", "product"],
            ["--out", "/nonexistent-banachlab-dir/r.json", "nested", "--op", "product"],
        ],
    )
    def test_one_line_error(self, argv, capsys):
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("cells", ["0", "-3"])
    def test_grid_below_one(self, files, cells, capsys):
        argv = ["--grid", cells, "--seed", "1", "dual-norm", "--measure", str(files / "dirac0.json")]
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: grid_cells must be >= 1") and err.count("\n") == 1

    def test_overflowing_witness(self, tmp_path, capsys):
        # the bracket's upper end is finite, but pairing the witness overflows
        m = tmp_path / "huge_density.json"
        rho = PLFunction(np.array([0.0, 0.5, 1.0]), np.array([1e308, -1e308, 1e308]))
        dump_measure(Measure(density=rho), str(m))
        assert run(["--seed", "1", "dual-norm", "--measure", str(m)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: overflow") and err.count("\n") == 1

    def test_non_finite_dual_norm(self, tmp_path, capsys):
        m = tmp_path / "huge.json"
        dump_measure(Measure(atoms=((0.0, 1e308), (1.0, 1e308))), str(m))
        assert run(["--seed", "1", "dual-norm", "--measure", str(m)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


class TestWitnessAndReports:
    def test_witness_report(self, files, tmp_path):
        out = tmp_path / "w.json"
        code = run(
            ["--seed", "2", "slice-witness", "--measure", str(files / "dirac_half.json"),
             "--fn", str(files / "one.json"), "--eps", "0.3", "--delta", "0.15"], out
        )
        assert code == 0
        rep = json.loads(out.read_text())
        assert rep["results"]["achieved_distance_lo"] > 1.7
        assert rep["results"]["achieved_functional"] > 0.7

    def test_certificate_failure_exit_two(self, files, monkeypatch):
        from banachlab import cli
        from banachlab.errors import CertificateFailure

        def boom(*a, **k):
            raise CertificateFailure("forged", inequality="flip distance lower bound")

        monkeypatch.setattr(cli, "tent_flip_witness", boom)
        code = run(
            ["--seed", "2", "slice-witness", "--measure", str(files / "dirac_half.json"),
             "--fn", str(files / "one.json"), "--eps", "0.3", "--delta", "0.15"]
        )
        assert code == 2

    def test_combo_diam_report(self, tmp_path):
        out = tmp_path / "c.json"
        assert run(["--seed", "7", "--budget", "600", "combo-diam", "--i", "2"], out) == 0
        rep = json.loads(out.read_text())
        assert rep["results"]["bound"] < 0.75
        assert rep["results"]["empirical_consistent"] is True

    def test_c0_control(self, tmp_path):
        out = tmp_path / "c0.json"
        assert run(["c0-control", "--dim", "2", "--eps", "0.5"], out) == 0
        rep = json.loads(out.read_text())
        assert rep["results"]["max_distance"] == 1.0

    def test_nested_product(self, tmp_path):
        out = tmp_path / "n.json"
        assert run(["nested", "--op", "product"], out) == 0
        rep = json.loads(out.read_text())
        assert rep["results"]["holds"] is True

    def test_subslice_report(self, files, tmp_path):
        out = tmp_path / "ss.json"
        code = run(
            ["--seed", "4", "subslice", "--measure", str(files / "dirac_half.json"),
             "--fn", str(files / "one.json"), "--eps", "0.3", "--delta", "0.15"], out
        )
        assert code == 0
        rep = json.loads(out.read_text())
        assert rep["results"]["epsilon"] == 0.15
        assert rep["results"]["functional"]["atoms"]

    def test_mlur_cert_and_modulus(self, files, tmp_path):
        out = tmp_path / "mc.json"
        assert run(["mlur-cert", "--fn", str(files / "one.json"), "--eps", "0.1"], out) == 0
        rep = json.loads(out.read_text())
        assert rep["results"]["conclusion_bound"] == 0.2
        out2 = tmp_path / "mm.json"
        assert run(
            ["--seed", "3", "--budget", "150", "mlur-modulus",
             "--fn", str(files / "one.json"), "--eps", "0.5"], out2
        ) == 0
        assert json.loads(out2.read_text())["results"]["modulus_upper"] >= 0.0

    def test_octa_local_report(self, files, tmp_path):
        out = tmp_path / "ol.json"
        assert run(
            ["--seed", "5", "--budget", "50", "octa-local",
             "--fn", str(files / "one.json"), "--eps", "0.3"], out
        ) == 0
        rep = json.loads(out.read_text())
        assert rep["results"]["found"] is True

    def test_rigidity_report(self, files, tmp_path):
        out = tmp_path / "rg.json"
        assert run(
            ["rigidity", "--fn", str(files / "one.json"),
             "--fn2", str(files / "one.json")], out
        ) == 0
        assert json.loads(out.read_text())["results"]["max_pointwise_gap"] == 0.0


class TestDeterminism:
    def test_dual_norm_byte_identical(self, files, tmp_path):
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            assert run(
                ["--seed", "5", "--budget", "300", "dual-norm",
                 "--measure", str(files / "dirac0.json")], out
            ) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_diam_byte_identical(self, files, tmp_path):
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            assert run(
                ["--seed", "9", "--budget", "400", "diam",
                 "--set", str(files / "sliceset.json")], out
            ) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_diam_csv_mode(self, files, tmp_path):
        out = tmp_path / "d.csv"
        assert run(
            ["--seed", "9", "--budget", "400", "--format", "csv", "diam",
             "--set", str(files / "sliceset.json")], out
        ) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "pair_index,distance_lo"
        assert len(lines) > 1


class TestSliceBracket:
    def test_grid_reaches_the_functional_bracket(self, files, monkeypatch):
        original, seen = cli.functional_bracket, []

        def recording(ctx, m, budget, seed, grid_cells):
            seen.append(grid_cells)
            return original(ctx, m, budget, seed, grid_cells)

        monkeypatch.setattr(cli, "functional_bracket", recording)
        code = run(
            ["--seed", "2", "--grid", "64", "slice-witness", "--measure",
             str(files / "dirac_half.json"), "--fn", str(files / "one.json"),
             "--eps", "0.3", "--delta", "0.15"]
        )
        assert code == 0 and seen == [64]


def test_canonical_json_escapes_control_characters():
    obj = {"a": "x\x01y\n", "k\x1f": "tab\there \\ \""}
    assert json.loads(reports.canonical_json(obj)) == obj
    # no control character: the same bytes as before, non-ASCII kept raw
    assert reports.canonical_json({"s": "‖x‖ \\ \""}) == '{"s":"‖x‖ \\\\ \\""}'
