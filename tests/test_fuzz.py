"""Fuzz the CLI's JSON decoders, the inline scalars of `padic arith` and the
argv grammar of every command in the command table: whatever the input,
`main` returns a documented exit code (0, 2, 3, 4 or 5; argparse's refusal
counts as 2) within a per-case deadline and never raises.  The runs are
derandomized, so the suite sees the same cases every time."""

import contextlib
import io
import json
import math
from datetime import timedelta

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mahler.cli import COMMANDS, main
from mahler.measure import dirac
from mahler.modform import delta_qexpansion
from mahler.serialize import encode_measure, encode_qexpansion

EXIT_CODES = {0, 2, 3, 4, 5}

FUZZ = settings(max_examples=200, derandomize=True, database=None,
                deadline=timedelta(seconds=5),
                suppress_health_check=[HealthCheck.too_slow])

small = st.integers(-4, 12)
junk = st.recursive(
    st.none() | st.booleans() | small | st.sampled_from([0.5, "", "x", "inf", "1/0"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["p", "k", "x"]), inner, max_size=2),
    max_leaves=5)
prime = st.one_of(st.sampled_from([2, 3, 5, 7]), small, junk)
int_field = st.one_of(small, small.map(str), st.just("inf"), junk)
exact = st.one_of(small, st.builds("{}/{}".format, small, small), small.map(str), junk)
padic = st.fixed_dictionaries({"p": prime, "val": int_field, "unit": int_field,
                               "prec": int_field})
scalar = st.one_of(exact, padic)
measure = st.one_of(
    st.fixed_dictionaries({"p": prime, "order": int_field, "finite": st.booleans() | junk,
                           "mahler": st.lists(scalar, max_size=8) | junk}),
    junk)
qexpansion = st.one_of(
    st.fixed_dictionaries({"k": int_field, "N": int_field,
                           "eps": st.lists(exact, max_size=4) | junk,
                           "coeffs": st.lists(scalar, max_size=10) | junk}),
    junk)
nearly_holomorphic = st.one_of(
    st.fixed_dictionaries({"k": int_field, "trunc": int_field,
                           "cells": st.lists(st.tuples(int_field, int_field, exact)
                                             .map(list), max_size=4) | junk}),
    junk)
optional_prec = st.one_of(st.just([]), st.integers(-1, 5).map(lambda k: ["--prec", str(k)]))
flag = st.integers(-1, 8).map(str)


@pytest.fixture(scope="module")
def json_file(tmp_path_factory):
    folder = tmp_path_factory.mktemp("fuzz")

    def write(obj, name="input.json") -> str:
        path = folder / name
        path.write_text(json.dumps(obj))
        return str(path)
    return write


def exit_code(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


def decodable_padic(p):
    """p-adic scalars of prime p that the decoder mostly takes."""
    return st.fixed_dictionaries({
        "p": st.just(p), "val": st.integers(0, 2), "unit": st.integers(1, 50).map(str),
        "prec": st.integers(1, 6)})


def decodable_measure(p):
    """Measures of prime p, exact or p-adic coefficients, that the decoder
    mostly takes, so the command's own checks and arithmetic run."""
    scalar = st.one_of(small.map(str), decodable_padic(p))
    return st.fixed_dictionaries({"p": st.just(p), "finite": st.booleans(),
                                  "mahler": st.lists(scalar, min_size=1, max_size=6)})


def decodable_pair(p):
    return st.tuples(decodable_measure(p), decodable_measure(p)).map(list)


# a character the decoder takes: the trivial one mod m, or the real ones mod 4 and 3
character = st.one_of(
    st.integers(1, 6).map(lambda m: [str(int(math.gcd(n, m) == 1)) for n in range(m)]),
    st.sampled_from([["0", "1", "0", "-1"], ["0", "1", "-1"]]))


def decodable_qexpansion(p):
    """q-expansions that the decoder mostly takes, so the operators run: a
    level that the character's modulus divides, exact or p-adic coefficients
    of prime p."""
    scalar = st.one_of(small.map(str), st.builds("{}/{}".format, small, st.integers(1, 6)),
                       decodable_padic(p))
    return character.flatmap(lambda eps: st.fixed_dictionaries({
        "k": st.integers(0, 12), "N": st.integers(1, 4).map(lambda j: j * len(eps)),
        "eps": st.just(eps), "coeffs": st.lists(scalar, min_size=1, max_size=10)}))


small_prime = st.sampled_from([2, 3, 5, 7])
measure_pair = st.one_of(st.tuples(measure, measure).map(list),
                         small_prime.flatmap(decodable_pair))


@FUZZ
@given(command=st.sampled_from(["moments", "restrict", "cell-mass"]),
       mu=st.one_of(measure, small_prime.flatmap(decodable_measure)),
       r=flag, a=flag, nu=st.integers(0, 2).map(str), prec=optional_prec)
def test_measure_file(json_file, command, mu, r, a, nu, prec):
    argv = {"moments": ["--r", r], "restrict": prec,
            "cell-mass": ["--a", a, "--nu", nu] + prec}[command]
    assert exit_code(["measure", command, "--file", json_file(mu)] + argv) in EXIT_CODES


@FUZZ
@given(pairs=st.one_of(
    st.fixed_dictionaries({"pairs": st.lists(measure_pair, max_size=3) | junk}),
    small_prime.flatmap(lambda p: st.fixed_dictionaries(
        {"pairs": st.lists(decodable_pair(p), min_size=1, max_size=3)})),
    junk), rmax=st.integers(-1, 4).map(str))
def test_measure_pair(json_file, pairs, rmax):
    assert exit_code(["measure", "pair", "--file", json_file(pairs),
                      "--rmax", rmax]) in EXIT_CODES


@FUZZ
@given(pair=measure_pair, rmax=st.integers(-1, 4).map(str))
def test_measure_push(json_file, pair, rmax):
    mu1, mu2 = pair
    assert exit_code(["measure", "push", "--file1", json_file(mu1, "first.json"),
                      "--file2", json_file(mu2, "second.json"), "--rmax", rmax]) in EXIT_CODES


@FUZZ
@given(command=st.sampled_from(["hecke", "deplete", "theta"]),
       f=st.one_of(qexpansion, small_prime.flatmap(decodable_qexpansion)),
       p=st.integers(-1, 7).map(str), r=st.integers(0, 3).map(str))
def test_modform_file(json_file, command, f, p, r):
    argv = ["--r", r] if command == "theta" else ["--p", p]
    assert exit_code(["modform", command, "--file", json_file(f)] + argv) in EXIT_CODES


@FUZZ
@given(f=nearly_holomorphic, r=st.integers(0, 3).map(str))
def test_modform_maass(json_file, f, r):
    assert exit_code(["modform", "maass", "--file", json_file(f), "--r", r]) in EXIT_CODES


@FUZZ
@given(op=st.sampled_from(["add", "sub", "mul", "inv"]), a=padic | junk, b=padic | junk)
def test_padic_arith(op, a, b):
    argv = ["padic", "arith", "--op", op, "--a", json.dumps(a), "--b", json.dumps(b)]
    assert exit_code(argv) in EXIT_CODES


# -- the argv grammar -------------------------------------------------------------

word = st.sampled_from(["0", "1", "-3", "2/3", "-4/7", "0.25", "1/0", "x", "", "inf",
                        '{"p": 3, "val": 0, "unit": "2", "prec": 4}'])
TEXT = {"--place": st.sampled_from(["inf", "oo", "2", "3", "5", "-1", "0", "x"]),
        "--matrix": st.sampled_from(["1,2;3,-1", "0,1;-2,0", "1/2,1;-1,-1/2", "0,0;0,0",
                                     "1,1", "a,b;c,d", "1/0,1;1,-1"])}
NUMBER = {int: st.sampled_from([str(n) for n in (*range(13), -1, -3, -4, -15, -20, -23)]
                               + ["x", "1.5", ""]),
          float: st.sampled_from(["0", "0.5", "1", "-1", "2.5", "1e-9", "nan", "inf", "x"])}


@pytest.fixture(scope="module")
def argv_files(tmp_path_factory):
    """A strategy over input paths: a valid input of each kind the commands
    read, a --config file and a missing file."""
    folder = tmp_path_factory.mktemp("argv")
    inputs = {"measure": encode_measure(dirac(2, 3, 4)),
              "qexpansion": encode_qexpansion(delta_qexpansion(6)),
              "nearly": {"k": 12, "trunc": 4, "cells": [[1, 0, "1"], [2, 1, "-3/2"]]},
              "pairs": {"pairs": [[encode_measure(dirac(1, 3, 3)),
                                   encode_measure(dirac(2, 3, 3))]]},
              "config": {"r": 2, "p": "5", "prec": 3, "trunc": 7, "twist-inverse": True}}
    paths = [str(folder / "missing.json")]
    for name, obj in inputs.items():
        path = folder / f"{name}.json"
        path.write_text(json.dumps(obj))
        paths.append(str(path))
    return st.sampled_from(paths)


def one_in(data, n: int) -> bool:
    """True about once in n draws: the middle value, because Hypothesis
    draws the bounds of a range more often."""
    return data.draw(st.integers(0, n - 1)) == n // 2


@FUZZ
@given(row=st.sampled_from(COMMANDS), data=st.data())
def test_argv(argv_files, row, data):
    group, name, _, _, _, options = row
    argv = [name] if group is None else [group, name]
    if one_in(data, 8):
        argv = ["--config", data.draw(argv_files)] + argv
    for flag, keywords in options:
        if one_in(data, 16):  # the option left out
            continue
        if keywords.get("action") == "store_true":
            argv.append(flag)
        elif "choices" in keywords:
            argv += [flag, data.draw(st.sampled_from(keywords["choices"] + ["div"]))]
        elif flag.startswith("--file"):
            argv += [flag, data.draw(argv_files)]
        else:
            argv += [flag, data.draw(NUMBER.get(keywords.get("type"), TEXT.get(flag, word)))]
    if one_in(data, 16):
        argv.append(data.draw(st.sampled_from(["--unknown", "--unknown=1", "extra"])))
    try:
        code = exit_code(argv)
    except SystemExit as exc:  # argparse refuses argv
        code = exc.code
    assert code in EXIT_CODES
