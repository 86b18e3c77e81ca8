import json
import os
import subprocess
import sys

import pytest

import mahler
from mahler import serialize
from mahler.cli import main
from mahler.errors import InvalidInput
from mahler.measure import Measure, dirac
from mahler.serialize import encode_measure


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def write_measure(tmp_path, name, mu):
    path = tmp_path / name
    path.write_text(json.dumps(encode_measure(mu)))
    return str(path)


class TestExitCodes:
    def test_success(self, capsys):
        code, out, err = run(capsys, ["padic", "factorial-valuation",
                                      "--n", "25", "--p", "5"])
        assert code == 0 and json.loads(out)["value"] == 6 and err == ""

    def test_invalid_input(self, capsys):
        code, _, err = run(capsys, ["class-group", "--disc", "-5"])
        assert code == 2 and "discriminant" in err

    def test_precision_exhausted(self, capsys, tmp_path):
        mu = Measure(3, dirac(2, 3, 6).mahler, finite=False)
        path = write_measure(tmp_path, "m.json", mu)
        code, _, err = run(capsys, ["measure", "restrict", "--file", path,
                                    "--prec", "9"])
        assert code == 3 and "precision" in err

    def test_search_bound_exhausted(self, capsys):
        code, _, err = run(capsys, ["quat", "hashimoto", "--delta", "6",
                                    "--p", "11", "--bound", "3"])
        assert code == 4

    def test_tolerance_path_is_reachable(self, capsys):
        # starved node counts must trip the tolerance gate, not lie
        code, out, err = run(capsys, ["arch", "local-factor", "--kappa", "2",
                                      "--r", "2", "--l", "2",
                                      "--nodes-a", "2", "--nodes-theta", "4"])
        assert code == 5 and "tolerance" in err


class TestPrimeArguments:
    """A --p that is not prime is invalid input (exit 2): no hang, no
    traceback, no silent result."""

    @pytest.fixture
    def delta_file(self, capsys, tmp_path):
        code, out, _ = run(capsys, ["modform", "delta", "--trunc", "24"])
        assert code == 0
        path = tmp_path / "delta.json"
        path.write_text(out)
        return str(path)

    @pytest.mark.parametrize("p", ["1", "0"])
    def test_factorial_valuation(self, capsys, p):
        code, out, err = run(capsys, ["padic", "factorial-valuation",
                                      "--n", "25", "--p", p])
        assert code == 2 and out == "" and "not prime" in err

    def test_deplete(self, capsys, delta_file):
        code, out, err = run(capsys, ["modform", "deplete", "--file", delta_file,
                                      "--p", "0"])
        assert code == 2 and out == "" and "not prime" in err

    def test_hecke(self, capsys, delta_file):
        code, out, err = run(capsys, ["modform", "hecke", "--file", delta_file,
                                      "--p", "4"])
        assert code == 2 and out == "" and "not prime" in err

    def test_euler_factor(self, capsys):
        code, out, err = run(capsys, ["modform", "euler-factor", "--a-p", "1",
                                      "--kappa", "1", "--p", "0"])
        assert code == 2 and out == "" and "not prime" in err


class TestZeroDenominator:
    """A rational argument with a zero denominator is invalid input (exit 2),
    not a ZeroDivisionError traceback."""

    @pytest.mark.parametrize("argv", [
        ["padic", "binomial-series", "--z", "1/0", "--p", "3"],
        ["modform", "euler-factor", "--a-p", "1/0", "--kappa", "1", "--p", "5"],
        ["modform", "euler-factor", "--a-p", "1", "--eps-p", "1/0", "--kappa", "1",
         "--p", "5"],
        ["modform", "euler-factor", "--a-p", "1", "--chi", "1/0", "--kappa", "1",
         "--p", "5"],
        ["quat", "hilbert", "--a=1/0", "--b=3", "--place", "3"],
        ["quat", "hilbert", "--a=3", "--b=-2/0", "--place", "3"],
        ["quat", "ramified", "--a", "1/0", "--b", "3"],
        ["quat", "conductor", "--matrix", "0,1/0;-4,0"],
        ["quat", "conductor", "--matrix", "0,1;-4,0", "--disc=-4/0"],
    ])
    def test_exits_2(self, capsys, argv):
        code, out, err = run(capsys, argv)
        assert code == 2 and out == "" and "zero denominator" in err


class TestJsonShape:
    """A JSON input whose top level is not an object, whose coefficient field
    is not an array, or whose integer fields and array entries have the wrong
    JSON type or shape, is invalid input (exit 2)."""

    TOPS = [[1, 2], "abc", 5]

    @pytest.fixture(params=TOPS, ids=["list", "string", "number"])
    def bad_file(self, request, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(request.param))
        return str(path)

    @pytest.mark.parametrize("command", [
        ["measure", "moments", "--r", "2"],
        ["measure", "restrict"],
        ["measure", "pair", "--rmax", "2"],
        ["modform", "hecke", "--p", "3"],
        ["modform", "maass"],
    ])
    def test_top_level(self, capsys, bad_file, command):
        code, out, err = run(capsys, command + ["--file", bad_file])
        assert code == 2 and out == "" and "JSON object" in err

    def test_config_top_level(self, capsys, bad_file):
        code, out, err = run(capsys, ["--config", bad_file, "class-group",
                                      "--disc", "-23"])
        assert code == 2 and out == "" and "JSON object" in err

    def test_inline_padic_top_level(self, capsys):
        code, out, err = run(capsys, ["padic", "arith", "--op", "inv",
                                      "--a", "[1, 2]"])
        assert code == 2 and out == "" and "JSON object" in err

    @pytest.mark.parametrize("decode, obj", [
        (serialize.decode_measure, {"p": 3, "order": 2, "finite": True, "mahler": "12"}),
        (serialize.decode_series, {"coeffs": 7}),
        (serialize.decode_qexpansion, {"k": 12, "N": 1, "eps": 1, "coeffs": []}),
        (serialize.decode_qexpansion, {"k": 12, "N": 1, "eps": ["1"], "coeffs": {"0": "1"}}),
        (serialize.decode_nearly_holomorphic, {"k": 0, "trunc": 2, "cells": 3}),
        (serialize.decode_algebraic, {"d": -1, "m": 1, "coeffs": "1"}),
        (serialize.decode_measure_pairs, {"pairs": [[{}]]}),
    ])
    def test_fields(self, decode, obj):
        with pytest.raises(InvalidInput):
            decode(obj)

    PADIC = {"p": 3, "val": 0, "unit": "1", "prec": 5}

    @pytest.mark.parametrize("decode, obj", [
        (serialize.decode_padic, dict(PADIC, p=[3])),
        (serialize.decode_padic, dict(PADIC, val={"v": 0})),
        (serialize.decode_padic, dict(PADIC, unit=None)),
        (serialize.decode_padic, dict(PADIC, prec=float("inf"))),
        (serialize.decode_measure, {"p": [3], "order": 2, "finite": True, "mahler": ["1"]}),
        (serialize.decode_qexpansion, {"k": [12], "N": 1, "eps": ["1"], "coeffs": ["0"]}),
        (serialize.decode_qexpansion, {"k": 12, "N": {}, "eps": ["1"], "coeffs": ["0"]}),
        (serialize.decode_nearly_holomorphic, {"k": None, "trunc": 2, "cells": []}),
        (serialize.decode_nearly_holomorphic, {"k": 0, "trunc": [2], "cells": []}),
        (serialize.decode_nearly_holomorphic, {"k": 0, "trunc": 2, "cells": [5]}),
        (serialize.decode_nearly_holomorphic, {"k": 0, "trunc": 2, "cells": [[[1], 0, "1"]]}),
        (serialize.decode_algebraic, {"d": [-3], "m": 1, "coeffs": []}),
        (serialize.decode_algebraic, {"d": -3, "m": {"m": 3}, "coeffs": []}),
        (serialize.decode_algebraic, {"d": -3, "m": 3, "coeffs": [5]}),
    ])
    def test_scalar_and_entry_types(self, decode, obj):
        with pytest.raises(InvalidInput):
            decode(obj)

    @pytest.mark.parametrize("command, obj", [
        (["measure", "moments", "--r", "2"],
         {"p": [3], "order": 2, "finite": True, "mahler": ["1"]}),
        (["measure", "moments", "--r", "2"],
         {"p": 3, "order": 1, "finite": True, "mahler": [dict(PADIC, val=[0])]}),
        (["modform", "hecke", "--p", "3"], {"k": [12], "N": 1, "eps": ["1"], "coeffs": ["0"]}),
        (["modform", "maass"], {"k": 0, "trunc": 2, "cells": [5]}),
        (["modform", "maass"], {"k": 0, "trunc": {}, "cells": []}),
    ])
    def test_scalar_and_entry_types_exit_2(self, capsys, tmp_path, command, obj):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        code, out, _ = run(capsys, command + ["--file", str(path)])
        assert code == 2 and out == ""

    @pytest.mark.parametrize("top", TOPS)
    @pytest.mark.parametrize("decode", [
        serialize.decode_padic, serialize.decode_series, serialize.decode_measure,
        serialize.decode_qexpansion, serialize.decode_nearly_holomorphic,
        serialize.decode_algebraic, serialize.decode_measure_pairs])
    def test_decoders(self, decode, top):
        with pytest.raises(InvalidInput):
            decode(top)


class TestImportFloor:
    """Importing the CLI loads neither sympy nor numpy; `arch` loads numpy
    when it runs."""

    def python(self, code: str) -> str:
        src = os.path.dirname(os.path.dirname(os.path.abspath(mahler.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        return done.stdout.splitlines()[-1]

    def test_cli_import_loads_no_heavy_module(self):
        last = self.python("import sys, mahler.cli; "
                           "print(sorted({'sympy', 'numpy'} & set(sys.modules)))")
        assert last == "[]"

    def test_arch_loads_numpy_on_demand(self):
        last = self.python(
            "import sys\n"
            "from mahler.cli import main\n"
            "before = 'numpy' in sys.modules\n"
            "code = main(['arch', 'local-factor', '--kappa', '1', '--r', '1', '--l', '1'])\n"
            "print(code, before, 'numpy' in sys.modules)")
        assert last == "0 False True"


class TestPrecisionEnvironment:
    def test_default_precision_comes_from_the_environment(self, capsys, monkeypatch):
        monkeypatch.setenv("MAHLER_PREC", "7")
        code, out, _ = run(capsys, ["padic", "binomial-series", "--z", "3",
                                    "--p", "5", "--order", "2"])
        assert code == 0
        assert json.loads(out)["coeffs"][1]["prec"] == 7

    def test_binomial_series_at_zero(self, capsys):
        # z = 0 embeds as the exact zero: C(0, n) = 0 exactly for n >= 1
        code, out, _ = run(capsys, ["padic", "binomial-series", "--z", "0",
                                    "--p", "3", "--order", "4"])
        assert code == 0
        coeffs = json.loads(out)["coeffs"]
        assert coeffs[0] == {"p": 3, "prec": 1, "unit": "1", "val": 0}
        assert coeffs[1:] == [{"p": 3, "prec": "inf", "unit": "0", "val": "inf"}] * 3

    def test_malformed_precision_is_invalid_input(self, capsys, monkeypatch):
        monkeypatch.setenv("MAHLER_PREC", "abc")
        code, out, err = run(capsys, ["padic", "binomial-series", "--z", "3",
                                      "--p", "5"])
        assert code == 2 and out == "" and "MAHLER_PREC" in err
        # commands that take no precision do not read it
        code, _, _ = run(capsys, ["class-group", "--disc", "-23"])
        assert code == 0


GOLDEN_SERIES_5 = (
    '{"coeffs":['
    '{"p":5,"prec":6,"unit":"1","val":0},{"p":5,"prec":6,"unit":"10419","val":0},'
    '{"p":5,"prec":6,"unit":"6946","val":0},{"p":5,"prec":6,"unit":"4244","val":0},'
    '{"p":5,"prec":6,"unit":"4501","val":0},{"p":5,"prec":5,"unit":"583","val":0},'
    '{"p":5,"prec":5,"unit":"1477","val":0},{"p":5,"prec":5,"unit":"268","val":0},'
    '{"p":5,"prec":5,"unit":"1927","val":0},{"p":5,"prec":5,"unit":"1333","val":0},'
    '{"p":5,"prec":5,"unit":"153","val":0},{"p":5,"prec":5,"unit":"1882","val":0},'
    '{"p":5,"prec":5,"unit":"2113","val":0},{"p":5,"prec":5,"unit":"432","val":0},'
    '{"p":5,"prec":5,"unit":"1903","val":0},{"p":5,"prec":5,"unit":"256","val":0},'
    '{"p":5,"prec":5,"unit":"839","val":0},{"p":5,"prec":5,"unit":"551","val":0},'
    '{"p":5,"prec":5,"unit":"14","val":0},{"p":5,"prec":5,"unit":"756","val":0},'
    '{"p":5,"prec":5,"unit":"499","val":1},{"p":5,"prec":5,"unit":"106","val":1},'
    '{"p":5,"prec":5,"unit":"554","val":1},{"p":5,"prec":5,"unit":"106","val":1},'
    '{"p":5,"prec":5,"unit":"499","val":1},{"p":5,"prec":4,"unit":"546","val":0},'
    '{"p":5,"prec":4,"unit":"149","val":0},{"p":5,"prec":4,"unit":"16","val":0},'
    '{"p":5,"prec":4,"unit":"224","val":0},{"p":5,"prec":4,"unit":"46","val":0}'
    '],"domain":"padic","order":30,"p":5}\n')

# C(2, n) for z = 2 known mod 3^4: the factor z - 2 is a zero known mod 3^4,
# and the zeros C(2, n), n >= 3, are known mod 3^3 and, from n = 9, mod 3^2
GOLDEN_SERIES_3 = (
    '{"coeffs":[{"p":3,"prec":4,"unit":"1","val":0},'
    '{"p":3,"prec":4,"unit":"2","val":0},{"p":3,"prec":4,"unit":"1","val":0}'
    + ',{"p":3,"prec":3,"unit":"0","val":"inf"}' * 6
    + ',{"p":3,"prec":2,"unit":"0","val":"inf"}' * 3
    + '],"domain":"padic","order":12,"p":3}\n')


class TestPadicCommands:
    def test_arith_add_and_round_trip(self, capsys):
        a = json.dumps({"p": 5, "val": 0, "unit": "2", "prec": 10})
        b = json.dumps({"p": 5, "val": 0, "unit": "3", "prec": 10})
        code, out, _ = run(capsys, ["padic", "arith", "--op", "add",
                                    "--a", a, "--b", b])
        assert code == 0
        data = json.loads(out)
        assert data["val"] == 1 and data["unit"] == "1"
        # output is valid input again
        code2, out2, _ = run(capsys, ["padic", "arith", "--op", "inv",
                                      "--a", out.strip()])
        assert code2 == 0

    def test_arith_missing_operand(self, capsys):
        a = json.dumps({"p": 5, "val": 0, "unit": "2", "prec": 10})
        code, _, err = run(capsys, ["padic", "arith", "--op", "mul", "--a", a])
        assert code == 2 and "--b" in err

    def test_stirling_and_series(self, capsys):
        code, out, _ = run(capsys, ["padic", "stirling-first", "--n", "3",
                                    "--i", "2"])
        assert code == 0 and json.loads(out)["value"] == "-3"
        code, out, _ = run(capsys, ["padic", "stirling-second", "--r", "4",
                                    "--n", "2"])
        assert code == 0 and json.loads(out)["value"] == "7"
        code, out, _ = run(capsys, ["padic", "binomial-series", "--z", "-1",
                                    "--p", "5", "--prec", "6", "--order", "4"])
        assert code == 0
        coeffs = json.loads(out)["coeffs"]
        assert [c["val"] for c in coeffs] == [0, 0, 0, 0]

    # (argv, exit code, stdout)
    GOLDEN = {
        "series-zero-factor": (["padic", "binomial-series", "--z", "2", "--p", "3",
                                "--prec", "4", "--order", "12"], 0, GOLDEN_SERIES_3),
        "series-rational": (["padic", "binomial-series", "--z", "7/3", "--p", "5",
                             "--prec", "6", "--order", "30"], 0, GOLDEN_SERIES_5),
        # the zero C(1, n), n >= 2, known mod 3^(1 - v_3(n!)), is lost at n = 3
        "series-exhausted": (["padic", "binomial-series", "--z", "1", "--p", "3",
                              "--prec", "1", "--order", "10"], 3, ""),
    }

    @pytest.mark.parametrize("name", list(GOLDEN))
    def test_golden_stdout(self, capsys, name):
        argv, code, expected = self.GOLDEN[name]
        assert run(capsys, argv)[:2] == (code, expected)


class TestDeepStirlingRows:
    """Row 600 of the Stirling table in a fresh process, whose tables start
    empty: the rows are built in a loop, so no depth limit applies."""

    def mahler(self, *argv):
        src = os.path.dirname(os.path.dirname(os.path.abspath(mahler.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-c", "from mahler.cli import entrypoint; entrypoint()", *argv],
            env=env, capture_output=True, text=True, timeout=60)
        return done.returncode, done.stdout, done.stderr

    def test_stirling_second(self):
        code, out, err = self.mahler("padic", "stirling-second", "--r", "600", "--n", "2")
        assert (code, err) == (0, "")
        assert json.loads(out)["value"] == str(2 ** 599 - 1)

    def test_moment(self, tmp_path):
        path = write_measure(tmp_path, "m.json", dirac(2, 3, 3))
        code, out, err = self.mahler("measure", "moments", "--file", path, "--r", "600")
        assert (code, err) == (0, "")
        assert json.loads(out)["moment"] == str(2 ** 600)


class TestMeasureCommands:
    def test_moments_of_dirac(self, capsys, tmp_path):
        path = write_measure(tmp_path, "m.json", dirac(2, 5, 6))
        code, out, _ = run(capsys, ["measure", "moments", "--file", path,
                                    "--r", "3"])
        assert code == 0 and json.loads(out)["moment"] == "8"

    def test_restrict_round_trips_own_output(self, capsys, tmp_path):
        path = write_measure(tmp_path, "m.json", dirac(2, 3, 8))
        code, out, _ = run(capsys, ["measure", "restrict", "--file", path])
        assert code == 0
        again = tmp_path / "res.json"
        again.write_text(out)
        code2, out2, _ = run(capsys, ["measure", "restrict", "--file",
                                      str(again)])
        assert code2 == 0 and out2 == out  # idempotent and schema-stable

    def test_cell_mass(self, capsys, tmp_path):
        path = write_measure(tmp_path, "m.json", dirac(2, 3, 6))
        code, out, _ = run(capsys, ["measure", "cell-mass", "--file", path,
                                    "--a", "2", "--nu", "1"])
        assert code == 0 and json.loads(out)["mass"] == "1"

    @pytest.mark.parametrize("nu", [12, 40])
    def test_cell_mass_deep_level(self, capsys, tmp_path, nu):
        # 7^nu residues, far above the order: no table of that size is built
        path = write_measure(tmp_path, "m.json", dirac(2, 7, 6))
        for a, mass in ((2, "1"), (3, "0"), (7 ** nu - 5, "0")):
            code, out, _ = run(capsys, ["measure", "cell-mass", "--file", path,
                                        "--a", str(a), "--nu", str(nu)])
            assert code == 0 and json.loads(out)["mass"] == mass

    def test_padic_coefficient_measure(self, capsys, tmp_path):
        from mahler.padic import PadicScalar
        z = PadicScalar.from_int(4, 3, 8)
        path = write_measure(tmp_path, "m.json", dirac(z, 3, 10))
        code, out, _ = run(capsys, ["measure", "moments", "--file", path,
                                    "--r", "2"])
        assert code == 0
        moment = json.loads(out)["moment"]
        assert moment["unit"] == "16" and moment["val"] == 0
        code2, out2, _ = run(capsys, ["measure", "restrict", "--file", path,
                                      "--prec", "2"])
        assert code2 == 0
        assert json.loads(out2)["order"] == 10 - 3 * 2

    def test_push_and_pair(self, capsys, tmp_path):
        p1 = write_measure(tmp_path, "m1.json", dirac(2, 7, 8))
        p2 = write_measure(tmp_path, "m2.json", dirac(3, 7, 8))
        code, out, _ = run(capsys, ["measure", "push", "--file1", p1,
                                    "--file2", p2, "--rmax", "6"])
        assert code == 0
        pushed = json.loads(out)
        pair_file = tmp_path / "pairs.json"
        pair_file.write_text(json.dumps(
            {"pairs": [[json.loads((tmp_path / "m1.json").read_text()),
                        json.loads((tmp_path / "m2.json").read_text())]]}))
        code2, out2, _ = run(capsys, ["measure", "pair", "--file",
                                      str(pair_file), "--rmax", "6"])
        assert code2 == 0
        assert json.loads(out2)["mahler"] == pushed["mahler"]


class TestModformCommands:
    def test_delta_depletion_chain(self, capsys, tmp_path):
        code, out, _ = run(capsys, ["modform", "delta", "--trunc", "24"])
        assert code == 0
        fpath = tmp_path / "delta.json"
        fpath.write_text(out)
        code2, out2, _ = run(capsys, ["modform", "deplete", "--file",
                                      str(fpath), "--p", "11"])
        assert code2 == 0
        coeffs = json.loads(out2)["coeffs"]
        assert coeffs[11] == "0" and coeffs[22] == "0" and coeffs[2] == "-24"

    def test_euler_factor(self, capsys):
        code, out, _ = run(capsys, ["modform", "euler-factor", "--a-p",
                                    "534612", "--kappa", "6", "--p", "11"])
        assert code == 0
        from fractions import Fraction
        value = Fraction(json.loads(out)["euler_factor"])
        assert value == 1 - Fraction(534612, 11 ** 12) + Fraction(1, 11 ** 13)

    def test_hecke_on_eisenstein(self, capsys, tmp_path):
        code, out, _ = run(capsys, ["modform", "eisenstein", "--k", "4",
                                    "--trunc", "21"])
        fpath = tmp_path / "e4.json"
        fpath.write_text(out)
        code2, out2, _ = run(capsys, ["modform", "hecke", "--file",
                                      str(fpath), "--p", "3"])
        assert code2 == 0
        got = json.loads(out2)["coeffs"]
        # E_4 is a T_3 eigenform with eigenvalue 1 + 3^3
        original = json.loads(out)["coeffs"]
        from fractions import Fraction
        for n in range(1, 8):
            assert Fraction(got[n]) == 28 * Fraction(original[n])

    def test_maass(self, capsys, tmp_path):
        nh = {"k": 4, "trunc": 2, "cells": [[0, 0, "1"], [1, 0, "5"]]}
        fpath = tmp_path / "nh.json"
        fpath.write_text(json.dumps(nh))
        code, out, _ = run(capsys, ["modform", "maass", "--file", str(fpath),
                                    "--r", "1"])
        assert code == 0
        cells = json.loads(out)["cells"]
        assert [0, 1, "-4"] in cells and [1, 0, "5"] in cells


GOLDEN_AVATAR = (
    '{"D":-47,"avatars":{"0":[{"p":11,"prec":4,"unit":"1","val":0},'
    '{"p":11,"prec":4,"unit":"1","val":0},{"p":11,"prec":4,"unit":"1","val":0},'
    '{"p":11,"prec":4,"unit":"1","val":0},'
    '{"p":11,"prec":4,"unit":"1","val":0}],'
    '"1":[{"p":11,"prec":4,"unit":"1","val":0},'
    '{"p":11,"prec":4,"unit":"2786","val":0},'
    '{"p":11,"prec":4,"unit":"7825","val":0},'
    '{"p":11,"prec":4,"unit":"1963","val":0},'
    '{"p":11,"prec":4,"unit":"2066","val":0}],'
    '"2":[{"p":11,"prec":4,"unit":"1","val":0},'
    '{"p":11,"prec":4,"unit":"2066","val":0},'
    '{"p":11,"prec":4,"unit":"1963","val":0},'
    '{"p":11,"prec":4,"unit":"2786","val":0},'
    '{"p":11,"prec":4,"unit":"7825","val":0}],'
    '"3":[{"p":11,"prec":4,"unit":"1","val":0},'
    '{"p":11,"prec":4,"unit":"1963","val":0},'
    '{"p":11,"prec":4,"unit":"2066","val":0},'
    '{"p":11,"prec":4,"unit":"7825","val":0},'
    '{"p":11,"prec":4,"unit":"2786","val":0}],'
    '"4":[{"p":11,"prec":4,"unit":"1","val":0},'
    '{"p":11,"prec":4,"unit":"7825","val":0},'
    '{"p":11,"prec":4,"unit":"2786","val":0},'
    '{"p":11,"prec":4,"unit":"2066","val":0},'
    '{"p":11,"prec":4,"unit":"1963","val":0}]},"p":11,"prec":4}'
    '\n')


class TestHeckeCommands:
    def test_class_group(self, capsys):
        code, out, _ = run(capsys, ["class-group", "--disc", "-23"])
        assert code == 0
        data = json.loads(out)
        assert data["h"] == 3 and [1, 1, 6] in data["forms"]

    def test_pair_orthogonality(self, capsys):
        code, out, _ = run(capsys, ["hecke", "pair", "--disc", "-23",
                                    "--chi", "1", "--psi", "2"])
        assert code == 0
        value = json.loads(out)["pairing"]
        # xi_1 and xi_2 are mutually inverse for h = 3
        assert value["coeffs"][0] == ["1", "0"]

    def test_pair_twist_inverse(self, capsys):
        # <xi, xi^-1>^psi is 1 exactly when psi is trivial
        code, out, _ = run(capsys, ["hecke", "pair", "--disc", "-23",
                                    "--chi", "1", "--psi", "0",
                                    "--twist-inverse"])
        assert code == 0
        assert json.loads(out)["pairing"]["coeffs"][0] == ["1", "0"]
        code, out, _ = run(capsys, ["hecke", "pair", "--disc", "-23",
                                    "--chi", "1", "--psi", "1",
                                    "--twist-inverse"])
        assert code == 0
        assert all(c == ["0", "0"] for c in json.loads(out)["pairing"]["coeffs"])

    def test_avatar(self, capsys):
        code, out, _ = run(capsys, ["hecke", "avatar", "--disc", "-23",
                                    "--p", "7", "--prec", "5"])
        assert code == 0
        data = json.loads(out)
        assert set(data["avatars"]) == {"0", "1", "2"}

    # h = 5, so the values live in Q(sqrt(-47))(zeta_5): the pairing is reduced
    # mod Phi_5 and the avatar embeds powers of zeta_5
    GOLDEN = {
        "avatar": (["hecke", "avatar", "--disc", "-47", "--p", "11", "--prec", "4"],
                   GOLDEN_AVATAR),
        "pair": (["hecke", "pair", "--disc", "-47", "--chi", "1", "--psi", "2",
                  "--twist-inverse"],
                 '{"D":-47,"chi":1,"pairing":{"coeffs":'
                 '[["0","0"],["0","0"],["0","0"],["0","0"]],"d":-47,"m":5},"psi":2}\n'),
        # h = 13 and h = 16: characters of order 13 and 16
        "pair-263": (["hecke", "pair", "--disc", "-263", "--chi", "1", "--psi", "12"],
                     '{"D":-263,"chi":1,"pairing":{"coeffs":[["1","0"]'
                     + ',["0","0"]' * 11 + '],"d":-263,"m":13},"psi":12}\n'),
        "pair-407": (["hecke", "pair", "--disc", "-407", "--chi", "3", "--psi", "5",
                      "--twist-inverse"],
                     '{"D":-407,"chi":3,"pairing":{"coeffs":[["0","0"]'
                     + ',["0","0"]' * 7 + '],"d":-407,"m":16},"psi":5}\n'),
    }

    @pytest.mark.parametrize("name", list(GOLDEN))
    def test_golden_stdout(self, capsys, name):
        argv, expected = self.GOLDEN[name]
        code, out, _ = run(capsys, argv)
        assert code == 0 and out == expected


class TestArchCommands:
    def test_local_factor_agreement(self, capsys):
        code, out, _ = run(capsys, ["arch", "local-factor", "--kappa", "1",
                                    "--r", "0", "--l", "0"])
        assert code == 0
        data = json.loads(out)
        assert float(data["rel_error"]) < 1e-6

    def test_vanishing_case_exits_zero(self, capsys):
        code, out, _ = run(capsys, ["arch", "local-factor", "--kappa", "1",
                                    "--r", "1", "--l", "0"])
        assert code == 0
        data = json.loads(out)
        assert abs(complex(float(data["quadrature"]["re"]),
                           float(data["quadrature"]["im"]))) < 1e-10

    def test_identity(self, capsys):
        code, out, _ = run(capsys, ["arch", "identity", "--r", "12"])
        assert code == 0 and json.loads(out)["holds"] is True


class TestQuatCommands:
    def test_hilbert(self, capsys):
        code, out, _ = run(capsys, ["quat", "hilbert", "--a", "-1", "--b",
                                    "-1", "--place", "2"])
        assert code == 0 and json.loads(out)["symbol"] == -1

    def test_ramified(self, capsys):
        code, out, _ = run(capsys, ["quat", "ramified", "--a", "-1", "--b", "-1"])
        data = json.loads(out)
        assert data["finite_places"] == [2] and data["infinite"] is True

    def test_hashimoto(self, capsys):
        code, out, _ = run(capsys, ["quat", "hashimoto", "--delta", "6",
                                    "--p", "11", "--bound", "1000"])
        assert code == 0 and json.loads(out) == {"q": 5, "b": 2}

    def test_conductor(self, capsys):
        code, out, _ = run(capsys, ["quat", "conductor", "--matrix",
                                    "0,1;-4,0", "--level", "1"])
        assert code == 0 and json.loads(out)["conductor"] == 2


class TestDeterminism:
    @pytest.mark.parametrize("argv", [
        ["class-group", "--disc", "-47"],
        ["quat", "ramified", "--a", "-6", "--b", "10"],
        ["arch", "local-factor", "--kappa", "1", "--r", "1", "--l", "1"],
        ["hecke", "avatar", "--disc", "-23", "--p", "7", "--prec", "6"],
    ])
    def test_byte_identical_runs(self, capsys, argv):
        code1, out1, _ = run(capsys, argv)
        code2, out2, _ = run(capsys, argv)
        assert code1 == code2 == 0
        assert out1 == out2


class TestConfig:
    def test_config_overrides(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"prec": 3}))
        code, out, _ = run(capsys, ["--config", str(cfg), "hecke", "avatar",
                                    "--disc", "-23", "--p", "7"])
        assert code == 0
        data = json.loads(out)
        assert data["prec"] == 3

    @pytest.mark.parametrize("overrides", [
        {"disc": [1]}, {"prec": "abc"}, {"prec": 2.5}, {"prec": True},
        {"prec": None}, {"p": {"x": 1}},
    ])
    def test_value_argparse_rejects_is_invalid_input(self, capsys, tmp_path, overrides):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(overrides))
        code, out, err = run(capsys, ["--config", str(cfg), "hecke", "avatar",
                                      "--disc", "-23", "--p", "7"])
        assert code == 2 and out == "" and "--config" in err

    def test_value_converted_like_argv(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"prec": "3"}))
        argv = ["hecke", "avatar", "--disc", "-23", "--p", "7"]
        code, out, _ = run(capsys, ["--config", str(cfg)] + argv)
        assert code == 0
        assert out == run(capsys, argv + ["--prec", "3"])[1]

    def test_choices_checked(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"op": "div"}))
        code, out, err = run(capsys, ["--config", str(cfg), "padic", "arith", "--op", "add",
                                      "--a", "{}", "--b", "{}"])
        assert code == 2 and out == "" and "--config" in err

    @pytest.mark.parametrize("flag, code", [(True, 0), (False, 0), (1, 2), ("yes", 2)])
    def test_flag_takes_a_boolean(self, capsys, tmp_path, flag, code):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"twist-inverse": flag}))
        argv = ["hecke", "pair", "--disc", "-23", "--chi", "1", "--psi", "0"]
        got, out, _ = run(capsys, ["--config", str(cfg)] + argv)
        assert got == code
        if code == 0:
            assert out == run(capsys, argv + ["--twist-inverse"] * flag)[1]
