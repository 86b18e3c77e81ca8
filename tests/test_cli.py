import contextlib
import hashlib
import io
import json
import math
import os
import random
import resource
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import mahler
from mahler import cli, serialize
from mahler.cli import COMMANDS, main
from mahler.errors import InvalidInput
from mahler.measure import Measure, dirac
from mahler.padic import PadicScalar, binomial_series
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

    @pytest.mark.parametrize("p", ["1", "0", "-1"])
    def test_binomial_series(self, capsys, p):
        code, out, err = run(capsys, ["padic", "binomial-series", "--z", "3",
                                      "--p", p, "--prec", "4"])
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

    @pytest.mark.parametrize("command, obj", [
        (["measure", "moments", "--r", "1"],
         {"p": 3, "order": 2, "finite": True, "mahler": ["1", "2/0"]}),
        (["modform", "hecke", "--p", "3"], {"k": 12, "N": 1, "eps": ["1"], "coeffs": ["1/0"]}),
        (["modform", "theta"], {"k": 12, "N": 2, "eps": ["0", "-1/0"], "coeffs": ["1"]}),
        (["modform", "maass"], {"k": 0, "trunc": 2, "cells": [[0, 0, "3/0"]]}),
    ])
    def test_json_exits_2(self, capsys, tmp_path, command, obj):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        code, out, err = run(capsys, command + ["--file", str(path)])
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
        # "finite" is a JSON boolean; a number is no boolean and 12.5 no integer
        (["measure", "restrict"],
         {"p": 3, "order": 2, "finite": "false", "mahler": ["1", "0"]}),
        (["measure", "restrict"], {"p": 3, "order": 2, "finite": 1, "mahler": ["1", "0"]}),
        (["measure", "moments", "--r", "1"],
         {"p": 3, "order": 2, "finite": True, "mahler": [True, "0"]}),
        (["measure", "moments", "--r", "1"],
         {"p": 3, "order": 1, "finite": True, "mahler": [dict(PADIC, prec=True)]}),
        (["modform", "maass"], {"k": 0, "trunc": 2, "cells": [[0, 0, False]]}),
        (["modform", "hecke", "--p", "3"], {"k": 12.5, "N": 1, "eps": ["1"], "coeffs": ["0"]}),
    ])
    def test_scalar_and_entry_types_exit_2(self, capsys, tmp_path, command, obj):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        code, out, _ = run(capsys, command + ["--file", str(path)])
        assert code == 2 and out == ""

    @pytest.mark.parametrize("order", [6, "6", 1])
    def test_measure_order_disagreeing_with_its_coefficients_exits_2(
            self, capsys, tmp_path, order):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"p": 3, "order": order, "finite": True,
                                    "mahler": ["1", "2"]}))
        code, out, err = run(capsys, ["measure", "restrict", "--file", str(path)])
        assert (code, out) == (2, "")
        assert f"field 'order' is {order}, but 'mahler' has 2 entries" in err

    def test_measure_order_agreeing_with_its_coefficients_is_read(self, capsys, tmp_path):
        outputs = []
        for obj in ({"p": 3, "order": 2, "finite": True, "mahler": ["1", "2"]},
                    {"p": 3, "order": "2", "finite": True, "mahler": ["1", "2"]},
                    {"p": 3, "finite": True, "mahler": ["1", "2"]}):
            path = tmp_path / "m.json"
            path.write_text(json.dumps(obj))
            code, out, err = run(capsys, ["measure", "restrict", "--file", str(path)])
            assert (code, err) == (0, "")
            outputs.append(out)
        assert outputs[0] == outputs[1] == outputs[2]
        assert json.loads(outputs[0])["order"] == 2

    def test_integral_float_is_an_integer(self):
        x = serialize.decode_padic({"p": 3.0, "val": 0.0, "unit": "2", "prec": 4.0})
        assert (x.prime, x.valuation, x.unit, x.precision) == (3, 0, 2, 4)
        assert type(x.prime) is int and type(x.precision) is int

    @pytest.mark.parametrize("field, value, message", [
        ("p", 3.9, "expected an integer, got 3.9"),
        ("prec", 4.7, "expected an integer, got 4.7"),
        ("prec", True, "expected an integer, got True"),
        ("val", False, "expected an integer, got False"),
    ])
    def test_inline_padic_misread_values_exit_2(self, capsys, field, value, message):
        a = json.dumps(dict(self.PADIC, unit="2", **{field: value}))
        code, out, err = run(capsys, ["padic", "arith", "--op", "inv", "--a", a])
        assert (code, out) == (2, "") and message in err

    MISSING = [
        (serialize.decode_padic, PADIC, "p"), (serialize.decode_padic, PADIC, "val"),
        (serialize.decode_padic, PADIC, "unit"), (serialize.decode_padic, PADIC, "prec"),
        (serialize.decode_measure, {"p": 3, "finite": True, "mahler": ["1"]}, "p"),
        (serialize.decode_measure, {"p": 3, "finite": True, "mahler": ["1"]}, "finite"),
        (serialize.decode_qexpansion, {"k": 12, "N": 1, "eps": ["1"], "coeffs": ["0"]}, "k"),
        (serialize.decode_qexpansion, {"k": 12, "N": 1, "eps": ["1"], "coeffs": ["0"]}, "N"),
        (serialize.decode_nearly_holomorphic, {"k": 0, "trunc": 2, "cells": []}, "k"),
        (serialize.decode_nearly_holomorphic, {"k": 0, "trunc": 2, "cells": []}, "trunc"),
        (serialize.decode_algebraic, {"d": -3, "m": 1, "coeffs": []}, "d"),
        (serialize.decode_algebraic, {"d": -3, "m": 1, "coeffs": []}, "m"),
    ]

    @pytest.mark.parametrize("decode, obj, key", MISSING)
    def test_missing_field_is_named(self, decode, obj, key):
        decode(obj)
        with pytest.raises(InvalidInput, match=f"missing field '{key}'"):
            decode({k: v for k, v in obj.items() if k != key})

    def test_missing_field_exits_2(self, capsys):
        # the message names the field, where a KeyError's repr gave "error: 'val'"
        a = json.dumps({"p": 3, "unit": "2", "prec": 4})
        code, out, err = run(capsys, ["padic", "arith", "--op", "inv", "--a", a])
        assert (code, out, err) == (2, "", "error: missing field 'val'\n")

    def test_empty_character_table_names_the_modulus(self, capsys, tmp_path):
        path = tmp_path / "q.json"
        path.write_text(json.dumps({"k": 12, "N": 1, "eps": [], "coeffs": ["0"]}))
        code, out, err = run(capsys, ["modform", "theta", "--file", str(path)])
        assert (code, out) == (2, "") and "the modulus must be >= 1" in err

    @pytest.mark.parametrize("top", TOPS)
    @pytest.mark.parametrize("decode", [
        serialize.decode_padic, serialize.decode_series, serialize.decode_measure,
        serialize.decode_qexpansion, serialize.decode_nearly_holomorphic,
        serialize.decode_algebraic, serialize.decode_measure_pairs])
    def test_decoders(self, decode, top):
        with pytest.raises(InvalidInput):
            decode(top)

    @pytest.mark.parametrize("z", [5, -7, Fraction(1, 2), Fraction(-7, 4),
                                   PadicScalar(3, 0, 5, 6), PadicScalar(3, 1, 2, 4)])
    def test_series_round_trip(self, z):
        # int, Fraction and PadicScalar coefficients decode to their fields
        def fields(series):
            return series.prime, [(type(c), c._fields() if type(c) is PadicScalar else c)
                                  for c in series.coeffs]
        series = binomial_series(z, 9)
        back = serialize.decode_series(json.loads(json.dumps(serialize.encode_series(series))))
        assert type(back) is type(series) and fields(back) == fields(series)
        assert {type(c) for c in series.coeffs} == (
            {PadicScalar} if type(z) is PadicScalar else {int, Fraction} if type(z) is Fraction
            else {int})


class TestImportFloor:
    """Importing the CLI loads neither sympy nor numpy; `arch` loads numpy
    when it runs; a command loads only the modules it uses, and `import
    mahler` loads none; `quat` and `arch` load no dataclasses."""

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

    def test_package_import_loads_no_compute_module(self):
        last = self.python("import sys, mahler; "
                           "print(sorted(m for m in sys.modules if m.startswith('mahler')))")
        assert last == "['mahler']"

    def test_measure_and_modform_load_six_modules(self):
        last = self.python("import sys\n"
                           "from mahler import measure, modform\n"
                           "print(sorted(m for m in sys.modules if m.startswith('mahler')))")
        assert last == str(['mahler', 'mahler.arith', 'mahler.errors', 'mahler.measure',
                            'mahler.modform', 'mahler.padic'])

    def test_heckechar_loads_its_floor(self):
        """heckechar loads four mahler modules and no module beyond them: the
        standard modules that it, arith, errors, padic and the package name
        are imported first, so what start-up happens to load does not count."""
        last = self.python("import __future__, array, fractions, functools, importlib\n"
                           "import itertools, math, operator, sys, types\n"
                           "before = set(sys.modules)\n"
                           "from mahler import heckechar\n"
                           "print(sorted(set(sys.modules) - before))")
        assert last == str(['mahler', 'mahler.arith', 'mahler.errors', 'mahler.heckechar',
                            'mahler.padic'])

    @pytest.mark.parametrize("argv, absent", [
        (["padic", "factorial-valuation", "--n", "25", "--p", "5"],
         ["archimedean", "heckechar", "measure", "modform", "quaternion", "serialize"]),
        (["measure", "restrict", "--file", "MEASURE"],
         ["archimedean", "heckechar", "modform", "quaternion"]),
        (["quat", "ramified", "--a", "-1", "--b", "-1"], ["heckechar", "measure"]),
    ])
    def test_command_loads_only_its_modules(self, tmp_path, argv, absent):
        path = write_measure(tmp_path, "m.json", dirac(2, 3, 4))
        argv = [path if a == "MEASURE" else a for a in argv]
        last = self.python(
            "import sys\n"
            "from mahler.cli import main\n"
            f"code = main({argv!r})\n"
            f"print(code, sorted({{'mahler.' + m for m in {absent!r}}} & set(sys.modules)))")
        assert last == "0 []"

    @pytest.mark.parametrize("argv", [["quat", "ramified", "--a", "-1", "--b", "-1"],
                                      ["arch", "identity", "--r", "3"]])
    def test_records_load_no_dataclasses(self, argv):
        # dataclasses imports inspect, which a cold call does not need
        last = self.python(
            "import sys\n"
            "from mahler.cli import main\n"
            f"code = main({argv!r})\n"
            "print(code, 'dataclasses' in sys.modules)")
        assert last == "0 False"


HELP_GOLDEN = json.loads((Path(__file__).parent / "cli_help.json").read_text())


class TestHelp:
    """`--help` at every level, byte for byte as recorded at 80 columns."""

    def test_golden_covers_every_level(self):
        paths = {""}
        for group, name, *_ in COMMANDS:
            paths |= {group or name, f"{group} {name}" if group else name}
        assert set(HELP_GOLDEN) == paths

    @pytest.mark.parametrize("path", list(HELP_GOLDEN))
    def test_help_text(self, capsys, monkeypatch, path):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exc:
            main(path.split() + ["--help"])
        out = capsys.readouterr()
        assert (exc.value.code, out.out, out.err) == (0, HELP_GOLDEN[path], "")


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

    def test_arith_zero_times_negative_valuation(self, capsys):
        # 0 + O(3) times 3^-3 is known only mod 3^-2: no precision is left
        a = json.dumps({"p": 3, "val": "inf", "unit": "0", "prec": 1})
        b = json.dumps({"p": 3, "val": -3, "unit": "1", "prec": 2})
        code, out, err = run(capsys, ["padic", "arith", "--op", "mul",
                                      "--a", a, "--b", b])
        assert code == 3 and out == "" and "no precision" in err

    def test_arith_sub(self, capsys):
        a = json.dumps({"p": 5, "val": 0, "unit": "7", "prec": 10})
        b = json.dumps({"p": 5, "val": 0, "unit": "2", "prec": 10})
        code, out, _ = run(capsys, ["padic", "arith", "--op", "sub",
                                    "--a", a, "--b", b])
        assert code == 0
        assert json.loads(out) == {"p": 5, "val": 1, "unit": "1", "prec": 10}

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


def cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (512 * 2 ** 20, 512 * 2 ** 20))


@contextlib.contextmanager
def no_str_digit_limit():
    """Lift Python's 4300-digit limit on int <-> str conversion in this process."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


class TestDeepStirlingRows:
    """Deep Stirling numbers and moments in a fresh process, whose tables
    start empty: the rows are built in a loop, so no depth limit applies,
    and S(r, n) is a sum of n + 1 terms, so no row is built for it.  An
    integer past the 4300-digit limit of str() is printed in chunks."""

    def mahler(self, *argv, timeout=60, preexec_fn=None):
        src = os.path.dirname(os.path.dirname(os.path.abspath(mahler.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-c", "from mahler.cli import entrypoint; entrypoint()", *argv],
            env=env, capture_output=True, text=True, timeout=timeout, preexec_fn=preexec_fn)
        return done.returncode, done.stdout, done.stderr

    def test_stirling_first_in_bounded_memory(self):
        # row 1500 is built from the rows before it, of which none is kept:
        # the call fits in 512 MB of address space.  s(1500, 1) has 4112
        # digits, below the 4300-digit limit of int-to-str conversion
        code, out, err = self.mahler("padic", "stirling-first", "--n", "1500", "--i", "1",
                                     preexec_fn=cap_address_space)
        assert (code, err) == (0, "")
        assert json.loads(out)["value"] == str(-math.factorial(1499))

    def test_stirling_first_past_the_digit_limit(self):
        # s(1700, 1) = -1699! has 4753 digits, printed in chunks
        code, out, err = self.mahler("padic", "stirling-first", "--n", "1700", "--i", "1")
        assert (code, err) == (0, "")
        with no_str_digit_limit():
            assert int(json.loads(out)["value"]) == -math.factorial(1699)

    def test_inverse_past_the_digit_limit(self):
        # the unit of 1/2 mod 3^9100 has 4342 digits
        code, out, err = self.mahler("padic", "arith", "--op", "inv", "--a",
                                     '{"p":3,"val":0,"unit":"2","prec":9100}')
        assert (code, err) == (0, "")
        got = json.loads(out)
        assert (got["p"], got["val"], got["prec"], len(got["unit"])) == (3, 0, 9100, 4342)
        with no_str_digit_limit():
            assert int(got["unit"]) * 2 % 3 ** 9100 == 1

    @pytest.mark.parametrize("n", [0, 7, -7, 10 ** 4214, 2 ** 13999 - 1, 2 ** 14000,
                                   -(10 ** 4299), 10 ** 4300, 10 ** 8000 + 7,
                                   -(3 ** 20000), 10 ** 12000],
                             ids=["0", "7", "-7", "10^4214", "2^13999-1", "2^14000",
                                  "-10^4299", "10^4300", "10^8000+7", "-3^20000",
                                  "10^12000"])
    def test_decimal_is_str(self, n):
        with no_str_digit_limit():
            expected = str(n)
        assert serialize._decimal(n) == serialize.encode_exact(n) == expected
        if n > 1:
            assert serialize.encode_exact(Fraction(-1, n)) == f"-1/{expected}"

    def test_stirling_second(self):
        code, out, err = self.mahler("padic", "stirling-second", "--r", "600", "--n", "2")
        assert (code, err) == (0, "")
        assert json.loads(out)["value"] == str(2 ** 599 - 1)

    def test_stirling_second_far_row(self):
        # 4215 digits, below the 4300-digit limit of int-to-str conversion
        code, out, err = self.mahler("padic", "stirling-second", "--r", "14000", "--n", "2",
                                     timeout=10)
        assert (code, err) == (0, "")
        assert json.loads(out)["value"] == str(2 ** 13999 - 1)

    def test_moment(self, tmp_path):
        path = write_measure(tmp_path, "m.json", dirac(2, 3, 3))
        code, out, err = self.mahler("measure", "moments", "--file", path, "--r", "600")
        assert (code, err) == (0, "")
        assert json.loads(out)["moment"] == str(2 ** 600)

    def test_moment_past_the_order_in_bounded_memory(self, tmp_path):
        # the Dirac measure at 3 of order 6: row 3000 is stepped to from row 5
        # through 6-wide rows, none kept, within 512 MB of address space
        path = tmp_path / "dirac.json"
        path.write_text('{"p":5,"order":6,"finite":true,"mahler":["1","3","3","1","0","0"]}')
        code, out, err = self.mahler("measure", "moments", "--file", str(path), "--r", "3000",
                                     preexec_fn=cap_address_space)
        assert (code, err) == (0, "")
        assert json.loads(out) == {"r": 3000, "moment": str(3 ** 3000)}


class TestModuleEntry:
    """`python -m mahler.cli` runs the command line, as `mahler` does."""

    def run_module(self, *argv):
        src = os.path.dirname(os.path.dirname(os.path.abspath(mahler.__file__)))
        done = subprocess.run([sys.executable, "-m", "mahler.cli", *argv],
                              env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, timeout=60)
        return done.returncode, done.stdout, done.stderr

    def test_success(self):
        code, out, err = self.run_module("padic", "factorial-valuation",
                                         "--n", "25", "--p", "5")
        assert (code, err) == (0, "") and json.loads(out)["value"] == 6

    def test_invalid_input(self):
        code, out, err = self.run_module("padic", "factorial-valuation",
                                         "--n", "25", "--p", "1")
        assert code == 2 and out == "" and "not prime" in err


class TestMeasureCommands:
    def test_moments_of_dirac(self, capsys, tmp_path):
        path = write_measure(tmp_path, "m.json", dirac(2, 5, 6))
        code, out, _ = run(capsys, ["measure", "moments", "--file", path,
                                    "--r", "3"])
        assert code == 0 and json.loads(out)["moment"] == "8"

    def test_moments_from_stdin(self, capsys, monkeypatch):
        text = json.dumps(encode_measure(dirac(2, 5, 6)))
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        code, out, _ = run(capsys, ["measure", "moments", "--file", "-", "--r", "3"])
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


class TestExactNumbersAtThePrecision:
    """An exact number that p^N divides enters p-adic arithmetic at
    precision N as the zero known mod p^N, in every command that meets one."""

    @staticmethod
    def zeros(p, prec, count):
        return [{"p": p, "prec": prec, "unit": "0", "val": "inf"}] * count

    def measure_file(self, tmp_path, obj):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(obj))
        return str(path)

    def test_binomial_series(self, capsys):
        # z = 27 known mod 3^3: C(27, 1) and C(27, 2) = 351 vanish mod 27
        code, out, err = run(capsys, ["padic", "binomial-series", "--z", "27", "--p", "3",
                                      "--prec", "3", "--order", "3"])
        assert (code, err) == (0, "")
        assert json.loads(out)["coeffs"] == \
            [{"p": 3, "prec": 3, "unit": "1", "val": 0}] + self.zeros(3, 3, 2)

    @pytest.mark.parametrize("prec", ["0", "-1"])
    def test_no_precision_is_refused(self, capsys, prec):
        assert run(capsys, ["padic", "binomial-series", "--z", "27", "--p", "3",
                            "--prec", prec, "--order", "3"]) == \
            (3, "", "precision exhausted: zero known to no precision\n")

    def test_restrict_of_exact_coefficients(self, capsys, tmp_path):
        path = self.measure_file(tmp_path, {"p": 3, "finite": False,
                                            "mahler": ["3", "3"] + ["0"] * 6})
        code, out, _ = run(capsys, ["measure", "restrict", "--file", path, "--prec", "1"])
        assert code == 0
        assert json.loads(out) == {"finite": False, "mahler": self.zeros(3, 1, 4),
                                   "order": 4, "p": 3}

    def test_cell_mass_of_exact_coefficients(self, capsys, tmp_path):
        path = self.measure_file(tmp_path, {"p": 3, "finite": False,
                                            "mahler": ["1", "9"] + ["0"] * 6})
        code, out, _ = run(capsys, ["measure", "cell-mass", "--file", path, "--a", "1",
                                    "--nu", "1", "--prec", "1"])
        assert code == 0
        assert json.loads(out) == {"a": 1, "mass": self.zeros(3, 1, 1)[0], "nu": 1}

    def test_mixed_coefficients(self, capsys, tmp_path):
        # 16 meets 1 + O(2^4) as the zero known mod 2^4
        path = self.measure_file(tmp_path, {"p": 2, "finite": True, "mahler": [
            "16", {"p": 2, "val": 0, "unit": "1", "prec": 4}]})
        code, out, _ = run(capsys, ["measure", "restrict", "--file", path])
        assert code == 0
        assert json.loads(out)["mahler"] == [{"p": 2, "prec": 4, "unit": "1", "val": 0}] * 2
        code, out, _ = run(capsys, ["measure", "cell-mass", "--file", path, "--a", "0",
                                    "--nu", "1"])
        assert code == 0  # 16 - (1 + O(2^4))
        assert json.loads(out)["mass"] == {"p": 2, "prec": 4, "unit": "15", "val": 0}


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

    def test_negative_counts_exit_2(self, capsys, tmp_path):
        fpath = tmp_path / "nh.json"
        fpath.write_text(json.dumps({"k": 4, "trunc": 2, "cells": [[0, 0, "1"]]}))
        for argv, message in ((["maass", "--file", str(fpath), "--r", "-2"],
                               "iteration count must be >= 0"),
                              (["eisenstein", "--k", "4", "--trunc", "-1"],
                               "truncation must be >= 0")):
            assert run(capsys, ["modform", *argv]) == (2, "", f"error: {message}\n")


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

# h = 16, one generator of order 16
GOLDEN_CLASS_GROUP_407 = (
    '{"D":-407,"forms":[[1,1,102],[2,-1,51],[2,1,51],[3,-1,34],[3,1,34],'
    '[4,-3,26],[4,3,26],[6,-5,18],[6,-1,17],[6,1,17],[6,5,18],[8,-3,13],'
    '[8,3,13],[9,-5,12],[9,5,12],[11,11,12]],"h":16,"identity":0,"table":['
    '[0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15],'
    '[1,6,0,8,7,2,12,14,15,4,3,5,13,10,11,9],'
    '[2,0,5,10,9,11,1,4,3,15,13,14,6,12,7,8],'
    '[3,8,10,14,0,13,15,1,11,2,7,12,9,4,6,5],'
    '[4,7,9,0,13,15,14,10,1,12,2,8,11,5,3,6],'
    '[5,2,11,13,15,14,0,9,10,8,12,7,1,6,4,3],'
    '[6,12,1,15,14,0,13,11,9,7,8,2,10,3,5,4],'
    '[7,14,4,1,10,9,11,3,6,13,0,15,5,2,8,12],'
    '[8,15,3,11,1,10,9,6,5,0,14,13,4,7,12,2],'
    '[9,4,15,2,12,8,7,13,0,6,5,3,14,11,10,1],'
    '[10,3,13,7,2,12,8,0,14,5,4,6,15,9,1,11],'
    '[11,5,14,12,8,7,2,15,13,3,6,4,0,1,9,10],'
    '[12,13,6,9,11,1,10,5,4,14,15,0,3,8,2,7],'
    '[13,10,12,4,5,6,3,2,7,11,9,1,8,15,0,14],'
    '[14,11,7,6,3,4,5,8,12,10,1,9,2,0,15,13],'
    '[15,9,8,5,6,3,4,12,2,1,11,10,7,14,13,0]]}\n'
)


class TestHeckeCommands:
    def test_class_group(self, capsys):
        code, out, _ = run(capsys, ["class-group", "--disc", "-23"])
        assert code == 0
        data = json.loads(out)
        assert data["h"] == 3 and [1, 1, 6] in data["forms"]

    def test_class_group_3299(self, capsys):
        # h = 27, generators of order 9 and 3 modulo the first: 2314 bytes,
        # recorded before the table was built from one row per generator and
        # pinned by their SHA-256
        code, out, _ = run(capsys, ["class-group", "--disc", "-3299"])
        assert code == 0 and len(out) == 2314
        assert hashlib.sha256(out.encode()).hexdigest() == \
            "27ef73584e404c5d1c32bebc97b52bb1dcbaaddb6190446ad2314fd1568343e3"

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

    @pytest.mark.parametrize("chi, psi", [("3", "0"), ("0", "-1")])
    def test_pair_character_out_of_range(self, capsys, chi, psi):
        code, out, err = run(capsys, ["hecke", "pair", "--disc", "-23",
                                      "--chi", chi, "--psi", psi])
        assert (code, out) == (2, "") and "out of range" in err

    def test_avatar(self, capsys):
        code, out, _ = run(capsys, ["hecke", "avatar", "--disc", "-23",
                                    "--p", "7", "--prec", "5"])
        assert code == 0
        data = json.loads(out)
        assert set(data["avatars"]) == {"0", "1", "2"}

    @pytest.mark.parametrize("chi", ["-1", "3", "-84"])
    def test_avatar_character_out_of_range(self, capsys, chi):
        code, out, err = run(capsys, ["hecke", "avatar", "--disc", "-23", "--p", "7",
                                      "--prec", "5", "--chi", chi])
        assert (code, out) == (2, "") and "out of range" in err

    # h = 5, so the values live in Q(sqrt(-47))(zeta_5): the pairing is reduced
    # mod Phi_5 and the avatar embeds powers of zeta_5
    GOLDEN = {
        "class-group-407": (["class-group", "--disc", "-407"], GOLDEN_CLASS_GROUP_407),
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

    def test_vanishing_case_reads_rel_error_with_zeta(self, capsys):
        # |zeta_u| = 10 scales the diagonal closed form that rel_error divides by
        code, out, err = run(capsys, ["arch", "local-factor", "--kappa", "1", "--r", "3",
                                      "--l", "1", "--zeta-re", "10"])
        assert (code, err) == (0, "")
        assert float(json.loads(out)["rel_error"]) < 1e-8

    def test_vanishing_case_fails_on_starved_nodes(self, capsys):
        code, out, err = run(capsys, ["arch", "local-factor", "--kappa", "1", "--r", "3",
                                      "--l", "1", "--nodes-theta", "4"])
        assert code == 5 and "vanishing case is not numerically zero" in err
        assert float(json.loads(out)["rel_error"]) > 1

    @pytest.mark.parametrize("l", ["0", "1"])
    def test_zero_zeta_exits_5(self, capsys, l):
        # the diagonal closed form is 0, so rel_error is inf for every l
        code, out, _ = run(capsys, ["arch", "local-factor", "--kappa", "1", "--r", "1",
                                    "--l", l, "--zeta-re", "0"])
        assert code == 5 and json.loads(out)["rel_error"] == "inf"

    def test_identity(self, capsys):
        code, out, _ = run(capsys, ["arch", "identity", "--r", "12"])
        assert code == 0 and json.loads(out)["holds"] is True

    def test_identity_past_the_digit_limit(self, capsys):
        # r!/2^r has 4302 digits at r = 1719, past str()'s 4300: printed in chunks
        code, out, err = run(capsys, ["arch", "identity", "--r", "1719"])
        assert (code, err) == (0, "")
        got = json.loads(out)
        with no_str_digit_limit():
            value = f"{Fraction(math.factorial(1719), 2 ** 1719)}*pi^-1719"
        assert got == {"r": 1719, "holds": True, "value": value}
        assert len(value.split("/")[0]) == 4302

    def test_identity_guard(self, capsys, monkeypatch):
        # a planted fault in the closed form: the exact sums disagree, which
        # is reported as a tolerance failure with nothing on stdout
        monkeypatch.setattr("mahler.archimedean.delta_diagonal_target", lambda r: 0)
        assert run(capsys, ["arch", "identity", "--r", "12"]) == (
            5, "", "tolerance not met: exact diagonal identity failed\n")

    def test_identity_refuses_negative_r(self, capsys):
        # refused by the library, not by factorial() of a negative number
        assert run(capsys, ["arch", "identity", "--r", "-1"]) == (2, "", "error: need r >= 0\n")

    @pytest.mark.parametrize("nodes", ["96", "256"])
    def test_non_finite_rule_exits_5(self, capsys, nodes):
        # numpy's Gauss-Laguerre rule is not finite from 187 nodes, and the
        # report also runs twice the nodes; no RuntimeWarning reaches stderr
        assert run(capsys, ["arch", "local-factor", "--kappa", "1", "--r", "1", "--l", "1",
                            "--nodes-a", nodes]) == \
            (5, "", "tolerance not met: a quadrature is not a finite number\n")

    @pytest.mark.parametrize("argv", [
        ["--kappa", "1", "--r", "1", "--l", "1", "--s", "170"],  # math.gamma
        ["--kappa", "1", "--r", "1", "--l", "1", "--s", "280"],  # a float power
        ["--kappa", "1", "--r", "200", "--l", "200", "--nodes-a", "4",
         "--nodes-theta", "4"],  # a Fraction weight as a float
        # numpy's u ** 152.5 at the largest nodes, whose weights would bring it back
        ["--kappa", "1", "--r", "1", "--l", "1", "--s", "150"]])
    def test_overflow_exits_5(self, argv):
        # in a fresh process, where numpy's overflow warnings are not errors
        src = os.path.dirname(os.path.dirname(os.path.abspath(mahler.__file__)))
        done = subprocess.run([sys.executable, "-m", "mahler.cli", "arch", "local-factor", *argv],
                              env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, timeout=60)
        assert (done.returncode, done.stdout) == (5, "")
        assert "Traceback" not in done.stderr
        assert "tolerance not met: a value left the float range: " in done.stderr

    @pytest.mark.parametrize("option, value", [("--s", "nan"), ("--tol", "nan"),
                                               ("--s", "inf")])
    def test_non_finite_float_exits_2(self, capsys, option, value):
        # a NaN argument used to print NaN everywhere and exit 0
        with pytest.raises(SystemExit) as exc:
            main(["arch", "local-factor", "--kappa", "1", "--r", "1", "--l", "1",
                  option, value])
        out = capsys.readouterr()
        assert exc.value.code == 2 and out.out == ""
        assert f"argument {option}: invalid" in out.err

    def test_non_finite_float_in_config_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"nu-abs": "inf"}')
        code, out, err = run(capsys, ["--config", str(cfg), "arch", "local-factor",
                                      "--kappa", "1", "--r", "1", "--l", "1"])
        assert (code, out) == (2, "") and "--config" in err


class TestQuatCommands:
    def test_negative_fraction_needs_the_equals_form(self, capsys):
        # README: argparse reads a separate "-4/7" as an option
        with pytest.raises(SystemExit) as exc:
            main(["quat", "hilbert", "--a", "-4/7", "--b", "3", "--place", "7"])
        out = capsys.readouterr()
        assert exc.value.code == 2 and out.out == ""
        assert "argument --a: expected one argument" in out.err
        code, out, _ = run(capsys, ["quat", "hilbert", "--a=-4/7", "--b", "3",
                                    "--place", "7"])
        assert (code, out) == (0, '{"a":"-4/7","b":"3","place":"7","symbol":-1}\n')

    def test_hilbert(self, capsys):
        code, out, _ = run(capsys, ["quat", "hilbert", "--a", "-1", "--b",
                                    "-1", "--place", "2"])
        assert code == 0 and json.loads(out)["symbol"] == -1

    def test_ramified(self, capsys):
        code, out, _ = run(capsys, ["quat", "ramified", "--a", "-1", "--b", "-1"])
        data = json.loads(out)
        assert data["finite_places"] == [2] and data["infinite"] is True

    def test_ramified_discriminant_is_the_product_of_the_finite_places(self, capsys):
        from mahler.quaternion import QuaternionAlgebra, discriminant
        rng = random.Random(31)
        for _ in range(200):
            a, b = (Fraction(rng.choice([v for v in range(-90, 91) if v]), rng.randrange(1, 13))
                    for _ in range(2))
            code, out, _ = run(capsys, ["quat", "ramified", f"--a={a}", f"--b={b}"])
            data = json.loads(out)
            assert code == 0 and data["discriminant"] == math.prod(data["finite_places"]) \
                == discriminant(QuaternionAlgebra(a, b))

    def test_hashimoto(self, capsys):
        code, out, _ = run(capsys, ["quat", "hashimoto", "--delta", "6",
                                    "--p", "11", "--bound", "1000"])
        assert code == 0 and json.loads(out) == {"q": 5, "b": 2}

    def test_conductor(self, capsys):
        code, out, _ = run(capsys, ["quat", "conductor", "--matrix",
                                    "0,1;-4,0", "--level", "1"])
        assert code == 0 and json.loads(out)["conductor"] == 2

    def test_conductor_disc_must_match(self, capsys):
        code, out, _ = run(capsys, ["quat", "conductor", "--matrix", "0,1;-4,0",
                                    "--disc=-4"])
        assert code == 0 and json.loads(out)["d"] == "-4"
        code, out, err = run(capsys, ["quat", "conductor", "--matrix", "0,1;-4,0",
                                      "--disc=-3"])
        assert (code, out) == (2, "") and "M^2 = -4 I, not -3" in err

    @pytest.mark.parametrize("matrix", ["0,1", "0,1;-4,0;1,1", "0,1,2;-4,0", "0;-4,0"])
    def test_conductor_malformed_matrix(self, capsys, matrix):
        code, out, err = run(capsys, ["quat", "conductor", "--matrix", matrix])
        assert (code, out) == (2, "") and 'matrix must look like "a,b;c,d"' in err

    def test_hilbert_infinite_place(self, capsys):
        for a, symbol in (("-1", -1), ("2", 1)):
            code, out, _ = run(capsys, ["quat", "hilbert", "--a", a, "--b", "-1",
                                        "--place", "inf"])
            assert code == 0 and json.loads(out) == {"a": a, "b": "-1", "place": "inf",
                                                     "symbol": symbol}


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


def _option_cases():
    for group, name, _, _, _, options in COMMANDS:
        for flag, keywords in options:
            yield pytest.param(group, name, options, flag, keywords,
                               id=f"{group or ''} {name} {flag}".strip())


class TestConfigMatchesArgv:
    """For every option of every command, a --config value converts, or is
    refused, exactly as its text does in argv; the refusal names --config."""

    VALUES = ["7", 7, "-3", "0", "2.5", 2.5, "1/2", "-4/7", "nan", "1e400",
              "x", "", "add", "inv", True, None]

    @staticmethod
    def base_argv(group, name, options):
        argv = [group, name] if group else [name]
        for flag, keywords in options:
            if keywords.get("required"):
                argv += [flag, keywords["choices"][0] if "choices" in keywords else "1"]
        return argv

    @pytest.mark.parametrize("group, name, options, flag, keywords", _option_cases())
    def test_option(self, capsys, tmp_path, group, name, options, flag, keywords):
        parser = cli._parser()
        argv = self.base_argv(group, name, options)
        key, dest = flag[2:], flag[2:].replace("-", "_")
        store_true = keywords.get("action") == "store_true"
        for value in [True, False, 1, "true", None] if store_true else self.VALUES:
            if store_true:  # argv says true by naming the flag; it takes no text
                from_argv = getattr(parser.parse_args(argv + [flag] * (value is True)), dest) \
                    if isinstance(value, bool) else "refused"
            else:
                try:
                    from_argv = getattr(parser.parse_args(argv + [f"{flag}={value}"]), dest)
                except SystemExit as exc:
                    assert exc.code == 2
                    from_argv = "refused"
                capsys.readouterr()
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({key: value}))
            args = parser.parse_args(["--config", str(cfg)] + argv)
            try:
                cli._apply_config(args)
                from_config = getattr(args, dest)
            except InvalidInput as exc:
                assert str(exc).startswith(f"--config {key!r}")
                from_config = "refused"
            assert (from_config, type(from_config)) == (from_argv, type(from_argv)), value


def padic_json(a: int, p: int, prec: int) -> dict:
    """The integer `a` known mod p^prec, as the CLI reads a p-adic scalar."""
    a %= p ** prec
    if a == 0:
        return {"p": p, "val": "inf", "unit": "0", "prec": prec}
    v = 0
    while a % p == 0:
        a //= p
        v += 1
    return {"p": p, "val": v, "unit": str(a), "prec": prec}


def truncated_json(points, p: int, order: int, prec: int) -> dict:
    """Σ w·δ_z over (w, z) in points, Dirac masses beyond the order, its
    first `order` Mahler coefficients Σ w C(z, n) known mod p^prec."""
    return {"p": p, "order": order, "finite": False,
            "mahler": [padic_json(sum(w * math.comb(z, n) for w, z in points), p, prec)
                       for n in range(order)]}


GOLDEN_RESTRICT = (
    '{"finite":false,"mahler":[{"p":3,"prec":4,"unit":"4","val":0},'
    '{"p":3,"prec":4,"unit":"11","val":0},{"p":3,"prec":4,"unit":"58","val":0},'
    '{"p":3,"prec":4,"unit":"62","val":0},{"p":3,"prec":4,"unit":"77","val":0},'
    '{"p":3,"prec":4,"unit":"8","val":1},{"p":3,"prec":4,"unit":"59","val":0},'
    '{"p":3,"prec":4,"unit":"11","val":0},{"p":3,"prec":4,"unit":"0","val":"inf"},'
    '{"p":3,"prec":4,"unit":"37","val":0},{"p":3,"prec":4,"unit":"61","val":0},'
    '{"p":3,"prec":4,"unit":"1","val":2},{"p":3,"prec":4,"unit":"1","val":0},'
    '{"p":3,"prec":4,"unit":"34","val":0}],"order":14,"p":3}\n')

GOLDEN_PAIR = (
    '{"finite":false,"mahler":[{"p":3,"prec":3,"unit":"2","val":1},'
    '{"p":3,"prec":3,"unit":"5","val":1},{"p":3,"prec":3,"unit":"8","val":1},'
    '{"p":3,"prec":2,"unit":"7","val":0},{"p":3,"prec":2,"unit":"5","val":0},'
    '{"p":3,"prec":2,"unit":"4","val":0},{"p":3,"prec":1,"unit":"2","val":0},'
    '{"p":3,"prec":1,"unit":"0","val":"inf"},{"p":3,"prec":1,"unit":"1","val":0}],'
    '"order":9,"p":3}\n')

GOLDEN_AVATAR_407 = (
    '{"D":-407,"avatars":{"5":[{"p":17,"prec":6,"unit":"1","val":0}'
    + "".join(',{"p":17,"prec":6,"unit":"%s","val":0}' % u for u in (
        "14139772", "21460637", "20689665", "21444846", "3447904", "2692723",
        "15511168", "2676932", "9997797", "8503601", "15633968", "8626401",
        "390112", "23747457", "24137568"))
    + ']},"p":17,"prec":6}\n')


class TestPadicMeasureGoldens:
    """Stdout of the p-adic measure and avatar commands, recorded before
    their kernels moved to integer residues: a truncated measure on Z_3 of
    order 24 with coefficients known mod 3^16 (restriction and cell masses,
    one accepted and one refused target each), the pairing measure of two
    pairs of truncated measures, one known only mod 3^3, and the avatars at
    D = -407 (h = 16)."""

    @pytest.fixture
    def files(self, tmp_path):
        mu = truncated_json([(1, 29), (-2, 40), (5, 61)], 3, 24, 16)
        nu = truncated_json([(2, 31), (1, 52)], 3, 24, 16)
        low = truncated_json([(1, 26), (-1, 44)], 3, 24, 3)
        (tmp_path / "mu.json").write_text(json.dumps(mu))
        (tmp_path / "pairs.json").write_text(json.dumps({"pairs": [[mu, nu], [low, mu]]}))
        return tmp_path

    # (argv with {} for the file directory, exit code, stdout)
    GOLDEN = {
        "restrict": (["measure", "restrict", "--file", "{}/mu.json", "--prec", "4"],
                     0, GOLDEN_RESTRICT),
        # order 24 supports restriction precision at most 10
        "restrict-refused": (["measure", "restrict", "--file", "{}/mu.json", "--prec", "11"],
                             3, ""),
        "cell-mass": (["measure", "cell-mass", "--file", "{}/mu.json", "--a", "4",
                       "--nu", "2", "--prec", "2"],
                      0, '{"a":4,"mass":{"p":3,"prec":2,"unit":"7","val":0},"nu":2}\n'),
        "cell-mass-nu1": (["measure", "cell-mass", "--file", "{}/mu.json", "--a", "2",
                           "--nu", "1", "--prec", "11"],
                          0, '{"a":2,"mass":{"p":3,"prec":11,"unit":"1","val":0},"nu":1}\n'),
        # the level-2 tail bound of order 24 is 2
        "cell-mass-refused": (["measure", "cell-mass", "--file", "{}/mu.json", "--a", "4",
                               "--nu", "2", "--prec", "3"], 3, ""),
        "pair": (["measure", "pair", "--file", "{}/pairs.json", "--rmax", "8"],
                 0, GOLDEN_PAIR),
        "avatar-407": (["hecke", "avatar", "--disc", "-407", "--p", "17", "--prec", "6",
                        "--chi", "5"], 0, GOLDEN_AVATAR_407),
    }

    @pytest.mark.parametrize("name", list(GOLDEN))
    def test_golden_stdout(self, capsys, files, name):
        argv, code, expected = self.GOLDEN[name]
        argv = [a.format(files) for a in argv]
        assert run(capsys, argv)[:2] == (code, expected)

    def test_all_avatars_407(self, capsys):
        # all 16 characters: 10957 bytes, pinned by their SHA-256
        code, out, _ = run(capsys, ["hecke", "avatar", "--disc", "-407", "--p", "17",
                                    "--prec", "6"])
        assert code == 0 and len(out) == 10957
        assert hashlib.sha256(out.encode()).hexdigest() == \
            "ab86d48e3d3b501553c9449d41486f5917ddd225781b84c996ea20d449851774"
