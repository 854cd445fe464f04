import json
import os
import subprocess
import sys

import numpy as np
import pytest

from banachlab import cli, reports
from banachlab.cli import dispatch
from banachlab.core_model import Measure, PLFunction, dump_function, dump_measure
from banachlab.d_norm import DNormContext, d_norm
from banachlab.neighborhood_base import build_leveled, parse_base_spec


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    d = tmp_path_factory.mktemp("clifiles")
    dump_function(PLFunction.constant(1.0), str(d / "one.json"))
    dump_function(PLFunction(np.array([0.0, 0.5, 1.0]), np.ones(3)), str(d / "one_split.json"))
    dump_function(PLFunction.tent(), str(d / "tent.json"))
    dump_measure(Measure.dirac(0.0), str(d / "dirac0.json"))
    dump_measure(Measure.dirac(0.5), str(d / "dirac_half.json"))
    dump_measure(Measure.lebesgue(), str(d / "leb.json"))
    (d / "sliceset.json").write_text(
        json.dumps({"kind": "slice", "dirac": 0.5, "eps": 0.3})
    )
    (d / "combo.json").write_text(
        json.dumps({"kind": "combo", "slices": [{"dirac": 0, "eps": 0.3}, {"dirac": 1, "eps": 0.3}]})
    )
    ctx = DNormContext(build_leveled(1, levels=8))  # the default --base
    for name, f in (("one_unit.json", PLFunction.constant(1.0)), ("tent_unit.json", PLFunction.tent())):
        dump_function(f.scaled(1.0 / d_norm(ctx, f).hi), str(d / name))
    (d / "proj.json").write_text(json.dumps({"u": str(d / "one.json"), "m": str(d / "dirac0.json")}))
    # well-formed JSON of the wrong shape
    malformed = {
        "list.json": [1, 2],
        "str.json": "str",
        "one_item.json": [1],
        "object.json": {"a": 1},
        "str_values.json": {"breakpoints": [0, 1], "values": ["a", "b"]},
        "str_weight.json": {"atoms": [{"t": 0.5, "w": "x"}]},
        "measure_3.json": {"kind": "slice", "measure": 3, "eps": 0.3},
        "str_tau.json": {"kind": "shell", "dirac": 0.5, "eps": 0.3, "tau": "q"},
        # json writes NaN and Infinity, and reads them back
        "neg_tau.json": {"kind": "shell", "dirac": 0.5, "eps": 0.3, "tau": -1},
        "nan_tau.json": {"kind": "shell", "dirac": 0.5, "eps": 0.3, "tau": float("nan")},
        "inf_tau.json": {"kind": "shell", "dirac": 0.5, "eps": 0.3, "tau": float("inf")},
        "no_slices.json": {"kind": "combo", "slices": []},
        # two slices, one weight: the second slice used to be dropped silently
        "one_weight.json": {"kind": "combo", "weights": [1.0],
                            "slices": [{"dirac": 0.0, "eps": 0.3}, {"dirac": 1.0, "eps": 0.3}]},
    }
    for name, content in malformed.items():
        (d / name).write_text(json.dumps(content))
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

    @pytest.mark.parametrize("c", [1e-170, 1e160])
    def test_norm_of_a_constant_far_from_one(self, files, tmp_path, c):
        # its square under- or overflows: the norm used to read hi = 0 at
        # 1e-170, and to fail on an invalid enclosure [inf, inf] at 1e160
        fn, out = tmp_path / "c.json", tmp_path / "r.json"
        dump_function(PLFunction.constant(c), str(fn))
        assert run(["--base", "leveled:i=1,levels=8", "norm", "--fn", str(fn)], out) == 0
        res = json.loads(out.read_text())["results"]
        assert 0.0 < res["lo"] <= c * (1.0 + 1e-12)
        assert res["hi"] >= c * (1.0 - 1e-12)

    def test_seminorms_listing(self, files, tmp_path):
        out = tmp_path / "s.json"
        assert run(["seminorms", "--fn", str(files / "tent.json"), "--max-n", "4"], out) == 0
        rep = json.loads(out.read_text())
        assert len(rep["results"]["values"]) == 4

    @pytest.mark.parametrize("base, max_n", [
        ("leveled:i=1,levels=8", "32"),
        ("leveled:i=2,levels=3", "100"),  # above n_max = 28
        ("custom", "9"),  # above n_max = 3
    ])
    def test_seminorms_match_seminorm_per_index(self, files, tmp_path, base, max_n):
        from banachlab.d_norm import seminorms_all

        if base == "custom":
            path = tmp_path / "base.json"
            path.write_text(json.dumps([{"left": 0.0, "right": 0.6}, {"left": 0.3, "right": 1.0},
                                        {"left": 0.45, "right": 0.55, "left_open": False}]))
            base = f"custom:@{path}"
        f = PLFunction(np.array([0.0, 0.2, 0.5, 0.7, 1.0]), np.array([0.3, -1.25, 0.9, -0.1, 0.4]))
        dump_function(f, str(tmp_path / "f.json"))
        out = tmp_path / "s.json"
        assert run(["--base", base, "seminorms", "--fn", str(tmp_path / "f.json"),
                    "--max-n", max_n], out) == 0
        ctx = DNormContext(parse_base_spec(base))
        top = min(int(max_n), ctx.base.n_max)
        s = seminorms_all(ctx, f)
        expect = [{"n": n, "value": float(s[n - 1])} for n in range(1, top + 1)]
        assert json.loads(out.read_text())["results"]["values"] == expect

    def test_usage_error_unknown_flag(self, files):
        assert run(["norm", "--fn", str(files / "one.json"), "--bogus"]) == 1

    def test_missing_file_is_config_error(self):
        assert run(["norm", "--fn", "/nonexistent.json"]) == 1

    def test_seed_mandatory_for_stochastic(self, files):
        assert run(["diam", "--set", str(files / "sliceset.json")]) == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["dual-norm", "--measure", "{dir}/leb.json"],
            ["slice-witness", "--measure", "{dir}/dirac_half.json", "--fn", "{dir}/one.json",
             "--eps", "0.3", "--delta", "0.15"],
            ["slice-witness", "--measure", "{dir}/leb.json", "--fn", "{dir}/one_unit.json",
             "--eps", "0.45", "--delta", "0.1"],
            ["subslice", "--measure", "{dir}/dirac_half.json", "--fn", "{dir}/one.json",
             "--eps", "0.3", "--delta", "0.1"],
            ["octa-local", "--fn", "{dir}/one_unit.json", "--eps", "0.1"],
        ],
    )
    def test_seed_optional_where_nothing_is_sampled(self, files, argv, tmp_path):
        # neither the ‖m‖* bracket, the flip witness, the subslice nor the
        # flips of octa-local draw a random number
        argv = [a.replace("{dir}", str(files)) for a in argv]
        results = []
        for seed in ([], ["--seed", "7"]):
            out = tmp_path / "r.json"
            assert run(seed + argv, out) == 0
            results.append(json.loads(out.read_text())["results"])
        assert results[0] == results[1]

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
            ["nested", "--p", "geometric:base=1e308,count=3", "--op", "product"],
            ["nested", "--p", "list:2,nan", "--op", "product"],
            ["nested", "--p", "geometric:base=nan", "--op", "product"],
            ["nested", "--op", "norm", "--vec", "[[1,2],[3,4]]"],
            ["nested", "--op", "norm", "--vec", "3"],
            ["nested", "--op", "norm", "--vec", '["1"]'],
            ["nested", "--op", "norm", "--vec", "[1" + "0" * 400 + "]"],
            ["--budget", "-5", "--seed", "1", "nested", "--op", "slice"],
            ["nested", "--op", "norm", "--vec", "[" * 5000 + "]" * 5000],
            ["--tol", "0", "nested", "--op", "product"],
            ["--tol=-1e-3", "nested", "--op", "product"],
            ["--tol", "nan", "nested", "--op", "product"],
            ["--tol", "inf", "nested", "--op", "product"],
            ["nested", "--p", "geometric:base=1.001,count=10001", "--op", "product"],
            ["--base", "leveled:i=1,levels=8", "mlur-cert", "--fn", "{dir}/one.json", "--eps=nan"],
            ["--base", "leveled:i=1,levels=8", "mlur-cert", "--fn", "{dir}/one.json", "--eps=inf"],
            ["--seed", "1", "mlur-modulus", "--fn", "{dir}/one.json", "--eps=nan"],
            ["--seed", "1", "mlur-modulus", "--fn", "{dir}/one.json", "--eps=inf"],
            # above 1e154 the rescaled candidates overflowed into "inf"
            ["--seed", "1", "mlur-modulus", "--fn", "{dir}/one_unit.json", "--eps", "1e200"],
            ["--seed", "1", "mlur-modulus", "--fn", "{dir}/one_unit.json", "--eps", "3"],
            ["--seed", "1", "octa-local", "--fn", "{dir}/one.json", "--eps=nan"],
            ["--seed", "1", "octa-local", "--fn", "{dir}/one.json", "--eps=inf"],
            ["norm", "--fn", "{dir}/list.json"],
            ["norm", "--fn", "{dir}/str.json"],
            ["norm", "--fn", "{dir}/str_values.json"],
            ["--seed", "1", "dual-norm", "--measure", "{dir}/str_weight.json"],
            ["--seed", "1", "dual-norm", "--measure", "{dir}/list.json"],
            ["--seed", "1", "diam", "--set", "{dir}/list.json"],
            ["--seed", "1", "diam", "--set", "{dir}/str.json"],
            ["--seed", "1", "diam", "--set", "{dir}/measure_3.json"],
            ["--seed", "1", "diam", "--set", "{dir}/str_tau.json"],
            ["--seed", "1", "op-check", "--proj", "{dir}/list.json"],
            ["--base", "custom:@{dir}/one_item.json", "norm", "--fn", "{dir}/one.json"],
            ["--base", "custom:@{dir}/object.json", "norm", "--fn", "{dir}/one.json"],
            ["--seed", "1", "diam", "--set", "{dir}/no_slices.json"],
            ["--seed", "1", "--budget", "300", "diam", "--set", "{dir}/one_weight.json"],
            ["--seed", "-1", "dual-norm", "--measure", "{dir}/dirac0.json"],
            # one cell above the ceiling; 10^9 cells asked numpy for 7.45 GiB
            ["--grid", str(cli.MAX_GRID_CELLS + 1), "--budget", "1", "--seed", "1",
             "dual-norm", "--measure", "{dir}/dirac0.json"],
            ["c0-control", "--dim", "0"],
            # budget 0 reported "inf", "-inf" or an unrelated error; a negative
            # budget ran as some other budget
            ["--budget", "0", "--seed", "1", "mlur-modulus", "--fn", "{dir}/one_unit.json", "--eps", "0.1"],
            ["--budget", "0", "--seed", "1", "octa-gap", "--fn", "{dir}/one_unit.json",
             "--fn2", "{dir}/tent_unit.json"],
            ["--budget", "0", "--seed", "1", "op-check", "--proj", "{dir}/proj.json"],
            # a slice of any measure but one isolated atom runs the program
            ["--budget", "0", "slice-witness", "--measure", "{dir}/leb.json", "--fn", "{dir}/one.json",
             "--eps", "0.3", "--delta", "0.15"],
            ["--budget", "-5", "--seed", "1", "diam", "--set", "{dir}/sliceset.json"],
            ["--budget", "-5", "--seed", "1", "combo-diam", "--i", "2"],
            ["--budget", "-5", "--seed", "1", "octa-local", "--fn", "{dir}/one_unit.json", "--eps", "0.5"],
            ["--budget", "-5", "--seed", "1", "mlur-modulus", "--fn", "{dir}/one_unit.json", "--eps", "0.1"],
            ["--seed", "1", "combo-diam", "--i", "2", "--eta", "-0.5"],
            ["seminorms", "--fn", "{dir}/one.json", "--max-n", "0"],
            ["seminorms", "--fn", "{dir}/one.json", "--max-n", "-3"],
            # nan passed the seminorm premise for every pair
            ["rigidity", "--fn", "{dir}/one.json", "--fn2", "{dir}/tent.json", "--pair-tol", "nan"],
            # a shell's tau outside (0, 1] ended in "fewer than two shell
            # members sampled", or, above 1, in a report
            ["--seed", "1", "diam", "--set", "{dir}/neg_tau.json"],
            ["--seed", "1", "diam", "--set", "{dir}/nan_tau.json"],
            ["--seed", "1", "diam", "--set", "{dir}/inf_tau.json"],
            # 2ε overflowed, and the certificate concluded "inf"
            ["--base", "leveled:i=1,levels=8", "mlur-cert", "--fn", "{dir}/one.json", "--eps", "1e308"],
            # the same function on other breakpoints passed as distinct
            ["--seed", "1", "octa-gap", "--fn", "{dir}/one.json", "--fn2", "{dir}/one_split.json"],
            # misspelt keys ran at the defaults: levels 8, the default
            # overlap, base 2
            ["--base", "leveled:i=1,level=12", "norm", "--fn", "{dir}/one.json"],
            ["--base", "leveled:i=1,eps=0.01", "norm", "--fn", "{dir}/one.json"],
            ["--base", "dyadic:levels=4,ratio=0.25,eps=0.01", "norm", "--fn", "{dir}/one.json"],
            ["nested", "--p", "geometric:bse=3,count=4", "--op", "product"],
            ["nested", "--p", "geometric:base=3,cnt=4", "--op", "product"],
        ],
    )
    def test_one_line_error(self, argv, files, capsys):
        assert run([a.replace("{dir}", str(files)) for a in argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("eta", ["nan", "inf"])
    def test_non_finite_eta_named(self, files, eta, capsys):
        # a nan eta used to spend the flip's whole iteration cap
        assert run(["slice-witness", "--measure", str(files / "dirac_half.json"),
                    "--fn", str(files / "one.json"), "--eps", "0.3", "--delta", "0.15",
                    "--eta", eta]) == 1
        assert capsys.readouterr().err == "error: eta must be finite and positive\n"

    @pytest.mark.parametrize("delta", ["nan", "inf", "0", "-0.1"])
    def test_delta_outside_the_slice_named(self, files, delta, capsys):
        # nan and inf were told delta_target must be below epsilon, 0 and
        # -0.1 that the norm lower bound fails > 1-delta
        assert run(["--seed", "1", "slice-witness", "--measure", str(files / "dirac_half.json"),
                    "--fn", str(files / "one.json"), "--eps", "0.3", f"--delta={delta}"]) == 1
        assert capsys.readouterr().err == "error: delta must lie in (0, epsilon)\n"

    @pytest.mark.parametrize("tau", ["-1", "0", "NaN", "2"])
    def test_shell_tau_named(self, tmp_path, tau, capsys):
        # tau 2 reported a diameter, as if every slice member were in the shell
        spec = tmp_path / "shell.json"
        spec.write_text(f'{{"kind": "shell", "dirac": 0.5, "eps": 0.3, "tau": {tau}}}')
        assert run(["--seed", "1", "diam", "--set", str(spec)]) == 1
        assert capsys.readouterr().err == "error: tau must lie in (0, 1]\n"

    def test_subslice_without_a_containing_mix(self, files, tmp_path, capsys):
        # x = 0.8·(unit-norm bump at 0.5) has slice value 0.8 > 1 − 0.3, but
        # every mix of m̂ and its norming functional values it at ≤ 0.8 < 0.9
        from banachlab.slice_lab import norming_bump

        bump = norming_bump(DNormContext(build_leveled(1, levels=8)), 0.5)
        x = tmp_path / "bump08.json"
        dump_function(bump.scaled(0.8), str(x))
        argv = ["subslice", "--measure", str(files / "dirac_half.json"), "--fn", str(x),
                "--eps", "0.3", "--delta", "0.1"]
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "inclusion checks" not in err

    def test_forged_mlur_certificate_exits_two(self, files, monkeypatch, capsys):
        # a Lipschitz bound understated 4x picks a cover too coarse for 2ε
        true_lip = PLFunction.lipschitz_bound
        monkeypatch.setattr(PLFunction, "lipschitz_bound", lambda s: true_lip(s) / 4.0)
        tent = PLFunction.tent()
        x = files / "tent_unit.json"
        dump_function(tent.scaled(1.0 / d_norm(DNormContext(build_leveled(1, levels=8)), tent).hi), str(x))
        assert run(["--base", "leveled:i=1,levels=8", "mlur-cert", "--fn", str(x), "--eps", "0.1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("certificate failure [MLUR conclusion bound]") and err.count("\n") == 1

    @pytest.mark.parametrize("cells", ["0", "-3"])
    def test_grid_below_one(self, files, cells, capsys):
        argv = ["--grid", cells, "--seed", "1", "dual-norm", "--measure", str(files / "dirac0.json")]
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: grid_cells must be >= 1") and err.count("\n") == 1

    def test_overflowing_witness(self, tmp_path, capsys):
        # dual_norm runs on an exact power-of-two rescale, so a density near
        # the float limit gets a finite bracket
        m = tmp_path / "huge_density.json"
        out = tmp_path / "r.json"
        rho = PLFunction(np.array([0.0, 0.5, 1.0]), np.array([1e308, -1e308, 1e308]))
        dump_measure(Measure(density=rho), str(m))
        assert run(["--seed", "1", "dual-norm", "--measure", str(m)], out) == 0
        res = json.loads(out.read_text())["results"]
        assert 0.0 < res["lower"] <= res["upper"] < float("inf")

    def test_tiny_atom_gets_a_bracket(self, tmp_path):
        # unscaled, the coefficient norm underflowed to 0: "zero functional"
        m = tmp_path / "tiny.json"
        out = tmp_path / "r.json"
        dump_measure(Measure.dirac(0.1, 1e-200), str(m))
        assert run(["--seed", "1", "dual-norm", "--measure", str(m)], out) == 0
        res = json.loads(out.read_text())["results"]
        assert 0.0 < res["lower"] <= res["upper"] < 1e-190

    def test_non_finite_dual_norm(self, tmp_path, capsys):
        m = tmp_path / "huge.json"
        dump_measure(Measure(atoms=((0.0, 1e308), (1.0, 1e308))), str(m))
        assert run(["--seed", "1", "dual-norm", "--measure", str(m)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


    @pytest.mark.parametrize("flag", ["--fn", "--measure", "--set", "--proj", "--base"])
    def test_json_nested_too_deep(self, tmp_path, flag, capsys):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 5000)
        sub = {
            "--fn": ["norm", "--fn", str(deep)],
            "--measure": ["dual-norm", "--measure", str(deep)],
            "--set": ["diam", "--set", str(deep)],
            "--proj": ["op-check", "--proj", str(deep)],
            "--base": ["--base", f"custom:@{deep}", "norm", "--fn", str(deep)],
        }[flag]
        assert run(["--seed", "1"] + sub) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "nested too deeply" in err

    @pytest.mark.parametrize("fd", [0, 1])
    def test_proj_file_numbers_are_not_descriptors(self, files, tmp_path, fd, capsys):
        # open() takes an integer as a file descriptor: 0 read stdin, and 1
        # was opened for reading and closed, leaving the process without fd 1
        proj = tmp_path / "proj.json"
        proj.write_text(json.dumps({"u": fd, "m": str(files / "dirac0.json")}))
        assert run(["--seed", "1", "op-check", "--proj", str(proj)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        os.fstat(1)  # still open

    @pytest.mark.parametrize(
        "flag,content,message",
        [
            ("--proj", {"m": "m.json"}, 'a projection file has no "u" key'),
            ("--proj", {"u": "u.json"}, 'a projection file has no "m" key'),
            ("--set", {"kind": "shell", "dirac": 0.5, "eps": 0.3}, 'a shell set has no "tau" key'),
            ("--set", {"kind": "combo"}, 'a combo set has no "slices" key'),
            ("--set", {"kind": "slice", "eps": 0.3}, 'a slice has no "dirac" key'),
            ("--set", {"kind": "slice", "dirac": 0.5}, 'a slice has no "eps" key'),
            ("--measure", {"atoms": [{"t": 0.5}]}, 'an atom has no "w" key'),
            ("--measure", {"atoms": [{"w": 1.0}]}, 'an atom has no "t" key'),
            ("--measure", {"density": {"values": [1, 1]}}, 'a function has no "breakpoints" key'),
            ("--fn", {"breakpoints": [0, 1]}, 'a function has no "values" key'),
            ("--base", [{"left": 0.0}], 'an interval has no "right" key'),
            ("--base", [{"right": 1.0}], 'an interval has no "left" key'),
        ],
    )
    def test_missing_key_named(self, tmp_path, flag, content, message, capsys):
        path = tmp_path / "in.json"
        path.write_text(json.dumps(content))
        sub = {
            "--fn": ["norm", "--fn", str(path)],
            "--measure": ["dual-norm", "--measure", str(path)],
            "--set": ["diam", "--set", str(path)],
            "--proj": ["op-check", "--proj", str(path)],
            "--base": ["--base", f"custom:@{path}", "norm", "--fn", str(path)],
        }[flag]
        assert run(["--seed", "1"] + sub) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_program_key_error_is_not_an_input_error(self, monkeypatch):
        # only input errors end in exit 1; a KeyError is a fault of the program
        def broken(dim, eps):
            raise KeyError("internal")

        monkeypatch.setattr(cli, "c0_model_control", broken)
        with pytest.raises(KeyError):
            run(["c0-control"])

    @pytest.mark.parametrize("key", ["norm_lo", "norm_hi"])
    def test_set_file_bracket_is_never_read(self, tmp_path, key, capsys):
        # a norm_hi of 1e-9 made every sampled row a "certified" member
        spec = tmp_path / "set.json"
        spec.write_text(json.dumps({"kind": "slice", "dirac": 0.5, "eps": 0.3, key: 1e-9}))
        assert run(["--seed", "1", "diam", "--set", str(spec)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key}") and err.count("\n") == 1


class TestNestedEdges:
    def test_wur_memory_stays_linear(self, tmp_path):
        # one e_1 for all 24 sequence members: at count 2000 the parent's 24
        # identity matrices of 32 MB each peaked near 400 MB
        import tracemalloc

        out = tmp_path / "w.json"
        tracemalloc.start()
        try:
            code = run(["nested", "--p", "geometric:base=1.001,start=4,count=2000",
                        "--op", "wur"], out)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert len(json.loads(out.read_text())["results"]["levels"]) == 2001
        assert peak < 16 * 2**20

    def test_infinite_exponent_is_the_sup_limit(self, tmp_path):
        out = tmp_path / "n.json"
        assert run(["nested", "--p", "list:2,inf", "--op", "norm", "--vec", "[1,1,1]"], out) == 0
        assert json.loads(out.read_text())["results"]["norm"] == 2.0 ** 0.5

    def test_zero_budget_slice(self, tmp_path):
        out = tmp_path / "s.json"
        assert run(["--budget", "0", "--seed", "1", "nested", "--op", "slice"], out) == 0
        res = json.loads(out.read_text())["results"]
        assert res["members"] == 2 and res["best_distance"] == 2.0

    @pytest.mark.parametrize(
        "argv",
        [
            ["combo-diam", "--i", "2"],
            ["diam", "--set", "{dir}/sliceset.json"],
            ["octa-local", "--fn", "{dir}/one_unit.json", "--eps", "0.5"],
            # one isolated atom's slice takes the dirac formula: no sweeps
            ["slice-witness", "--measure", "{dir}/dirac_half.json", "--fn", "{dir}/one.json",
             "--eps", "0.3", "--delta", "0.15"],
            ["subslice", "--measure", "{dir}/dirac_half.json", "--fn", "{dir}/one.json",
             "--eps", "0.3", "--delta", "0.1"],
        ],
    )
    def test_zero_budget_stays_valid(self, files, argv, tmp_path):
        out = tmp_path / "r.json"
        argv = ["--budget", "0", "--seed", "1"] + [a.replace("{dir}", str(files)) for a in argv]
        assert run(argv, out) == 0
        if argv[4] == "combo-diam":  # budget 0 skips only the empirical check
            assert json.loads(out.read_text())["results"]["empirical_diameter"] is None

    @pytest.mark.parametrize("seed,evaluations", [("1", 62), ("2", 62)])
    def test_zero_budget_diam_still_samples(self, files, seed, evaluations, tmp_path):
        # a combination samples 8 members per slice at any budget: its
        # evaluations count the anchors' and members' rescales and the 28
        # pair distances of its 8 points
        out = tmp_path / "d.json"
        argv = ["--budget", "0", "--seed", seed, "diam", "--set", str(files / "combo.json")]
        assert run(argv, out) == 0
        res = json.loads(out.read_text())["results"]
        assert (res["feasible_samples"], res["evaluations"]) == (8, evaluations)

    def test_zero_budget_slice_diam_is_its_flip_pair(self, files, tmp_path):
        # a slice stands on its anchor's flip pair, whatever the budget
        out = tmp_path / "d.json"
        argv = ["--budget", "0", "--seed", "1", "diam", "--set", str(files / "sliceset.json")]
        assert run(argv, out) == 0
        res = json.loads(out.read_text())["results"]
        assert (res["feasible_samples"], res["evaluations"]) == (2, 3)
        assert res["value"] >= 2.0 - 2e-4


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

    @pytest.mark.parametrize("dim", [17, 10 ** 6])
    def test_c0_control_in_any_dimension(self, tmp_path, dim):
        # the closed form has no vertex loop, so no dimension ceiling
        out = tmp_path / "c0.json"
        assert run(["c0-control", "--dim", str(dim), "--eps", "0.5"], out) == 0
        rep = json.loads(out.read_text())["results"]
        assert rep["dim"] == dim and rep["max_distance"] == 1.0 and rep["equation_gap"] == 1.0

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

    @pytest.mark.parametrize("i", [1, 2])
    @pytest.mark.parametrize("f", [PLFunction.constant(1.0), PLFunction.tent()])
    def test_octa_local_report_is_small(self, i, f, tmp_path):
        # one flip per stored interval: about 800 breakpoints at i = 1 and
        # 1,600 at i = 2, where a zigzag had 32,769
        fn, out = tmp_path / "x.json", tmp_path / "ol.json"
        dump_function(f.scaled(1.0 / d_norm(DNormContext(build_leveled(i, levels=8)), f).hi), str(fn))
        base = f"leveled:i={i},levels=8"
        assert run(["--base", base, "octa-local", "--fn", str(fn), "--eps", "1e-6"], out) == 0
        assert out.stat().st_size <= 100_000
        assert json.loads(out.read_text())["results"]["achieved_lo"] >= 2.0 - 1e-6

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


    def test_diam_csv_independent_of_blas_threads(self, tmp_path):
        # every pair distance is one dot product per row, which no split of
        # the work between BLAS threads reorders
        combo = tmp_path / "combo.json"
        combo.write_text(json.dumps({"kind": "combo", "slices": [
            {"dirac": 0, "eps": 0.05}, {"dirac": 1, "eps": 0.05}]}))
        src = os.path.dirname(os.path.dirname(cli.__file__))
        outs = []
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                       OMP_NUM_THREADS=threads)
            res = subprocess.run(
                [sys.executable, "-m", "banachlab.cli", "--base", "leveled:i=2,levels=8",
                 "--seed", "1", "--budget", "500", "--format", "csv", "diam", "--set", str(combo)],
                env=env, check=True, capture_output=True, timeout=120)
            outs.append(res.stdout)
        assert len(outs[0].splitlines()) == 1 + 1891
        assert outs[0] == outs[1]


class TestInProcessCache:
    """dispatch builds its parser and each leveled base's context once per
    process; no report depends on what an earlier call left cached."""

    @pytest.mark.parametrize("argv", [
        ["--base", "leveled:i=2,levels=6", "norm", "--fn", "{dir}/tent.json"],
        ["--seed", "1", "--budget", "300", "dual-norm", "--measure", "{dir}/leb.json"],
        ["--seed", "9", "--budget", "400", "diam", "--set", "{dir}/sliceset.json"],
        ["--seed", "7", "--budget", "300", "combo-diam", "--i", "2", "--levels", "6"],
    ])
    def test_cold_warm_and_fresh_process_agree(self, files, tmp_path, argv):
        argv = [a.replace("{dir}", str(files)) for a in argv]
        cli._context.cache_clear()
        outs = []
        for name in ("cold.json", "warm.json"):
            assert run(argv, tmp_path / name) == 0
            outs.append((tmp_path / name).read_bytes())
        assert cli._context.cache_info().hits >= 1
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        fresh = tmp_path / "fresh.json"
        subprocess.run([sys.executable, "-m", "banachlab.cli", "--out", str(fresh), *argv],
                       env=env, check=True, capture_output=True, timeout=120)
        assert outs[0] == outs[1] == fresh.read_bytes()

    def test_custom_base_is_read_on_every_call(self, files, tmp_path):
        path = tmp_path / "base.json"
        spec = f"custom:@{path}"
        results = []
        for right in (1.0, 0.25):
            path.write_text(json.dumps([{"left": 0.0, "right": right}]))
            out = tmp_path / "n.json"
            assert run(["--base", spec, "norm", "--fn", str(files / "tent.json")], out) == 0
            enc = d_norm(DNormContext(parse_base_spec(spec)), PLFunction.tent())
            results.append(json.loads(out.read_text())["results"])
            assert results[-1] == {"lo": enc.lo, "hi": enc.hi, "tolerance_met": True}
        assert results[0] != results[1]

    def test_parser_is_built_once(self):
        assert cli._parser() is cli._parser()

    def test_failing_spec_fails_every_time(self, files, capsys):
        size = cli._context.cache_info().currsize
        for _ in range(2):
            assert run(["--base", "leveled:i=0,levels=8", "norm", "--fn", str(files / "one.json")]) == 1
            assert capsys.readouterr().err.startswith("error: ")
        assert cli._context.cache_info().currsize == size


LEBESGUE = {"atoms": [], "density": {"breakpoints": [0, 1], "values": [1, 1]}}


class TestOneDualNormSolve:
    # a non-dirac slice's flip pair starts from the witness of its own
    # bracket, and a combination's members perturb it on a grid that refines
    # it; `SliceSpec.anchor` solves nothing again
    @pytest.mark.parametrize("spec,solves,results", [
        ({"kind": "slice", "eps": 0.02, "measure": LEBESGUE}, 1,
         b'"results":{"evaluations":3,"feasible_samples":2,"value":1.9999988615027113}'),
        ({"kind": "combo", "slices": [{"eps": 0.3, "measure": LEBESGUE},
                                      {"eps": 0.3, "measure": {"atoms": [{"t": 0, "w": 1}, {"t": 1, "w": -1}]}}]},
         2, b'"results":{"evaluations":2258,"feasible_samples":64,"value":1.0173448747939635}'),
    ])
    def test_diam_solves_each_slice_once(self, tmp_path, monkeypatch, spec, solves, results):
        from banachlab import gridsearch, slice_lab

        d_norm = sys.modules["banachlab.d_norm"]  # the package exports d_norm()
        calls = []
        solve = d_norm.dual_norm
        counted = lambda *a, **k: calls.append(a[1]) or solve(*a, **k)
        for module in (d_norm, gridsearch, slice_lab):
            monkeypatch.setattr(module, "dual_norm", counted)
        (tmp_path / "set.json").write_text(json.dumps(spec))
        out = tmp_path / "d.json"
        assert run(["--seed", "1", "diam", "--set", str(tmp_path / "set.json")], out) == 0
        assert len(calls) == solves
        assert out.read_bytes() == (
            b'{"config":{"base":"leveled:i=1,levels=8","budget":2000,"grid":512,"seed":1,'
            b'"tol":9.9999999999999995e-07},' + results + b',"subcommand":"diam","version":"0.1.0"}'
        )


class TestDualNormGrid:
    def test_grid_leaves_dual_norm_unchanged(self, files, tmp_path):
        # the dual-norm program cuts cells at the base and the measure alone
        reports_by_grid = {}
        for cells in ("64", "512"):
            out = tmp_path / f"g{cells}.json"
            assert run(["--seed", "2", "--grid", cells, "dual-norm",
                        "--measure", str(files / "leb.json")], out) == 0
            reports_by_grid[cells] = out.read_bytes().replace(
                f'"grid":{cells},'.encode(), b"")
        assert reports_by_grid["64"] == reports_by_grid["512"]


def test_canonical_json_escapes_control_characters():
    obj = {"a": "x\x01y\n", "k\x1f": "tab\there \\ \""}
    assert json.loads(reports.canonical_json(obj)) == obj
    # no control character: the same bytes as before, non-ASCII kept raw
    assert reports.canonical_json({"s": "‖x‖ \\ \""}) == '{"s":"‖x‖ \\\\ \\""}'
