"""Command-line front end: one subcommand tree over every module, JSON in and
out, deterministic output, machine-readable exit codes.

COMMANDS is the table of commands: per command its group, name, help, the
modules its handler takes, the handler and its options.  `build_parser`
builds the argparse tree from it, once per process for `main`, and `main`
imports a command's modules only when it runs, so a call loads only what its
command uses.

Exit codes: 0 success, 2 invalid input, 3 precision exhausted, 4 search bound
exhausted, 5 numerical tolerance not met.  Diagnostics go to stderr only.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import math
import operator
import os
import sys
from fractions import Fraction

from .errors import (InvalidInput, PrecisionExhausted, SearchBoundExhausted,
                     ToleranceNotMet)


def _precision(args) -> int:
    """--prec if given, else MAHLER_PREC, else 20; read when the command runs."""
    if args.prec is not None:
        return args.prec
    text = os.environ.get("MAHLER_PREC", "20")
    try:
        return int(text)
    except ValueError:
        raise InvalidInput(f"MAHLER_PREC must be an integer, not {text!r}") from None


def _rational(text) -> Fraction:
    """An exact rational argument ("3", "-4/7", "0.25"); a zero denominator
    is invalid input."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise InvalidInput(f"{text!r} has a zero denominator") from None


def _finite_float(text) -> float:
    """A float argument that is a finite number: "nan" and "inf", which
    float() takes, are invalid input (exit 2)."""
    value = float(text)
    if not abs(value) < float("inf"):
        raise ValueError(f"{text!r} is not a finite number")
    return value


def _emit(obj):
    sys.stdout.write(json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n")


def _read_json(path: str):
    if path == "-":
        return json.load(sys.stdin)
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _config_value(keywords: dict, key: str, value):
    """A --config value converted as argparse converts the same option in
    argv, read from the option's add_argument keywords: its text through the
    option's type, then checked against its choices; a flag takes a JSON
    boolean."""
    if keywords.get("action") == "store_true":
        if isinstance(value, bool):
            return value
        raise InvalidInput(f"--config {key!r} must be true or false, not {value!r}")
    try:
        converted = (keywords.get("type") or str)(str(value))
    except ValueError:
        raise InvalidInput(f"--config {key!r}: invalid value {value!r}") from None
    choices = keywords.get("choices")
    if choices is not None and converted not in choices:
        raise InvalidInput(f"--config {key!r}: {value!r} is not one of {list(choices)}")
    return converted


def _apply_config(args):
    cfg = getattr(args, "config", None)
    if cfg:
        overrides = _read_json(cfg)
        if not isinstance(overrides, dict):
            raise InvalidInput("--config must hold a JSON object")
        for key, value in overrides.items():
            attr = key.replace("-", "_")
            if attr in args.options:
                setattr(args, attr, _config_value(args.options[attr], key, value))


# -- padic ---------------------------------------------------------------------

def _cmd_padic_arith(args, ser):
    a = ser.decode_padic(json.loads(args.a))
    if args.op == "inv":
        value = a.inverse()
    elif args.b is None:
        raise InvalidInput(f"op {args.op!r} needs --b")
    else:
        value = getattr(operator, args.op)(a, ser.decode_padic(json.loads(args.b)))
    _emit(ser.encode_padic(value))


def _cmd_padic_stirling1(args, padic, ser):
    _emit({"n": args.n, "i": args.i,
           "value": ser.encode_exact(padic.stirling_first_signed(args.n, args.i))})


def _cmd_padic_stirling2(args, padic, ser):
    _emit({"r": args.r, "n": args.n,
           "value": ser.encode_exact(padic.stirling_second(args.r, args.n))})


def _cmd_padic_vfact(args, padic):
    _emit({"n": args.n, "p": args.p,
           "value": padic.factorial_valuation(args.n, args.p)})


def _cmd_padic_binom(args, padic, ser):
    z = padic.PadicScalar.from_rational(_rational(args.z), args.p, _precision(args))
    _emit(ser.encode_series(padic.binomial_series(z, args.order)))


# -- measure ---------------------------------------------------------------------

def _cmd_measure_moments(args, measure, ser):
    mu = ser.decode_measure(_read_json(args.file))
    _emit({"r": args.r, "moment": ser.encode_scalar(measure.moments(mu, args.r))})


def _cmd_measure_restrict(args, measure, ser):
    mu = ser.decode_measure(_read_json(args.file))
    out = measure.restrict_to_units(mu, precision=args.prec)
    _emit(ser.encode_measure(out))


def _cmd_measure_cell_mass(args, measure, ser):
    mu = ser.decode_measure(_read_json(args.file))
    mass = measure.cell_mass(mu, args.a, args.nu, precision=args.prec)
    _emit({"a": args.a, "nu": args.nu, "mass": ser.encode_scalar(mass)})


def _cmd_measure_push(args, measure, ser):
    mu1 = ser.decode_measure(_read_json(args.file1))
    mu2 = ser.decode_measure(_read_json(args.file2))
    _emit(ser.encode_measure(measure.mult_pushforward(mu1, mu2, args.rmax)))


def _cmd_measure_pair(args, measure, ser):
    pairs = ser.decode_measure_pairs(_read_json(args.file))
    _emit(ser.encode_measure(measure.pairing_measure(pairs, args.rmax)))


# -- modform ---------------------------------------------------------------------

def _cmd_modform_delta(args, modform, ser):
    _emit(ser.encode_qexpansion(modform.delta_qexpansion(args.trunc)))


def _cmd_modform_eisenstein(args, modform, ser):
    _emit(ser.encode_qexpansion(modform.eisenstein_qexpansion(args.k, args.trunc)))


def _cmd_modform_deplete(args, modform, ser):
    f = ser.decode_qexpansion(_read_json(args.file))
    _emit(ser.encode_qexpansion(modform.p_deplete(f, args.p)))


def _cmd_modform_hecke(args, modform, ser):
    f = ser.decode_qexpansion(_read_json(args.file))
    _emit(ser.encode_qexpansion(modform.hecke_operator(f, args.p)))


def _cmd_modform_theta(args, modform, ser):
    f = ser.decode_qexpansion(_read_json(args.file))
    _emit(ser.encode_qexpansion(modform.theta_operator(f, args.r)))


def _cmd_modform_euler(args, modform, ser):
    value = modform.interpolation_euler_factor(
        _rational(args.a_p), _rational(args.eps_p), _rational(args.chi),
        args.kappa, args.p)
    _emit({"euler_factor": ser.encode_exact(value)})


def _cmd_modform_maass(args, modform, ser):
    f = ser.decode_nearly_holomorphic(_read_json(args.file))
    _emit(ser.encode_nearly_holomorphic(modform.maass_raise(f, args.r)))


# -- class groups and characters -------------------------------------------------

def _cmd_class_group(args, heckechar):
    G = heckechar.class_group(args.disc)
    _emit({"D": G.discriminant, "h": G.h,
           "forms": [list(f) for f in G.forms],
           "identity": G.identity_index,
           "table": G.table})


def _cmd_hecke_pair(args, heckechar, ser):
    G = heckechar.class_group(args.disc)
    chars = heckechar.characters(G)
    if not (0 <= args.chi < len(chars) and 0 <= args.psi < len(chars)):
        raise InvalidInput("character index out of range")
    value = heckechar.twisted_pairing(chars[args.chi],
                                      chars[args.chi].inverse(),
                                      chars[args.psi]) \
        if args.twist_inverse else heckechar.pairing(chars[args.chi], chars[args.psi])
    _emit({"D": args.disc, "chi": args.chi, "psi": args.psi,
           "pairing": ser.encode_algebraic(value)})


def _cmd_hecke_avatar(args, heckechar, ser):
    G = heckechar.class_group(args.disc)
    chars = heckechar.characters(G)
    prec = _precision(args)
    emb = heckechar.admissible_embedding(G, args.p, prec)
    if args.chi is not None and not 0 <= args.chi < len(chars):
        raise InvalidInput("character index out of range")
    picks = range(len(chars)) if args.chi is None else [args.chi]
    table = {}
    for i in picks:
        table[str(i)] = [ser.encode_padic(x)
                         for x in heckechar.padic_avatar(chars[i], emb)]
    _emit({"D": args.disc, "p": args.p, "prec": prec, "avatars": table})


# -- archimedean ------------------------------------------------------------------

def _cmd_arch_local_factor(args, archimedean, ser):
    params = archimedean.LocalFactorParams(
        kappa=args.kappa, r=args.r, l=args.l, s=args.s,
        nu_u_abs=args.nu_abs, zeta_u=complex(args.zeta_re, args.zeta_im))
    report = archimedean.quadrature_report(params, args.nodes_a, args.nodes_theta)
    out = {
        "quadrature": ser.encode_complex(report["quadrature"]),
        "closed_form": ser.encode_complex(report["closed_form"]),
        "rel_error": ser.format_float(report["rel_error"]),
        "self_consistency": ser.format_float(report["self_consistency"]),
    }
    _emit(out)
    if args.l == args.r and report["rel_error"] > args.tol:
        raise ToleranceNotMet(
            f"relative error {report['rel_error']:.3e} exceeds {args.tol:.3e}")
    if args.l < args.r and report["rel_error"] > args.vanish_tol:
        raise ToleranceNotMet("vanishing case is not numerically zero")


def _cmd_arch_identity(args, archimedean):
    got = archimedean.delta_diagonal_sum(args.r)
    want = archimedean.delta_diagonal_target(args.r)
    if got != want:
        raise ToleranceNotMet("exact diagonal identity failed")
    _emit({"r": args.r, "holds": True, "value": repr(got)})


# -- quaternion -------------------------------------------------------------------

def _parse_place(text: str, quaternion):
    if text in ("inf", "oo", "infinity"):
        return quaternion.INFINITE_PLACE
    return int(text)


def _cmd_quat_hilbert(args, quaternion):
    symbol = quaternion.hilbert_symbol(_rational(args.a), _rational(args.b),
                                       _parse_place(args.place, quaternion))
    _emit({"a": args.a, "b": args.b, "place": args.place, "symbol": symbol})


def _cmd_quat_ramified(args, quaternion):
    alg = quaternion.QuaternionAlgebra(_rational(args.a), _rational(args.b))
    ram = quaternion.ramified_set(alg)
    finite = sorted(p for p in ram if p is not quaternion.INFINITE_PLACE)
    _emit({"a": args.a, "b": args.b,
           "finite_places": finite,
           "infinite": quaternion.INFINITE_PLACE in ram,
           "discriminant": math.prod(finite)})


def _cmd_quat_hashimoto(args, quaternion):
    data = quaternion.hashimoto_search(args.delta, args.p, args.bound)
    _emit({"q": data.q, "b": data.b_param})


def _parse_matrix(text: str):
    rows = text.split(";")
    if len(rows) != 2:
        raise InvalidInput('matrix must look like "a,b;c,d"')
    out = []
    for row in rows:
        cells = row.split(",")
        if len(cells) != 2:
            raise InvalidInput('matrix must look like "a,b;c,d"')
        out.append(tuple(_rational(c.strip()) for c in cells))
    return tuple(out)


def _cmd_quat_conductor(args, quaternion, ser):
    emb = quaternion.MatrixEmbedding(_parse_matrix(args.matrix), args.level)
    if args.disc is not None and _rational(args.disc) != emb.d:
        raise InvalidInput(f"M^2 = {emb.d} I, not {args.disc}")
    _emit({"matrix": args.matrix, "level": args.level,
           "d": ser.encode_exact(emb.d),
           "conductor": quaternion.embedding_conductor(emb)})


# -- the command table ------------------------------------------------------------

_REQUIRED = {"required": True}
_REQUIRED_INT = {"type": int, "required": True}


def _default(value, type=int) -> dict:
    return {"type": type, "default": value}


GROUPS = {"padic": "scalar and transform utilities", "measure": "measures on Z_p",
          "modform": "q-expansion operators", "hecke": "characters, pairings, avatars",
          "arch": "archimedean local factor", "quat": "quaternion algebra utilities"}

# (group or None for a top-level command, name, help, modules the handler takes
# after args, handler, [(option, add_argument keywords)]), in --help order
COMMANDS = (
    ("padic", "arith", None, ("serialize",), _cmd_padic_arith, [
        ("--op", {"required": True, "choices": ["add", "sub", "mul", "inv"]}),
        ("--a", {"required": True, "help": "inline JSON scalar"}),
        ("--b", {"help": "inline JSON scalar (unused for inv)"})]),
    ("padic", "stirling-first", None, ("padic", "serialize"), _cmd_padic_stirling1,
     [("--n", _REQUIRED_INT), ("--i", _REQUIRED_INT)]),
    ("padic", "stirling-second", None, ("padic", "serialize"), _cmd_padic_stirling2,
     [("--r", _REQUIRED_INT), ("--n", _REQUIRED_INT)]),
    ("padic", "factorial-valuation", None, ("padic",), _cmd_padic_vfact,
     [("--n", _REQUIRED_INT), ("--p", _REQUIRED_INT)]),
    ("padic", "binomial-series", None, ("padic", "serialize"), _cmd_padic_binom,
     [("--z", _REQUIRED), ("--p", _REQUIRED_INT), ("--prec", _default(None)),
      ("--order", _default(8))]),
    ("measure", "moments", None, ("measure", "serialize"), _cmd_measure_moments,
     [("--file", _REQUIRED), ("--r", _REQUIRED_INT)]),
    ("measure", "restrict", None, ("measure", "serialize"), _cmd_measure_restrict,
     [("--file", _REQUIRED), ("--prec", _default(None))]),
    ("measure", "cell-mass", None, ("measure", "serialize"), _cmd_measure_cell_mass,
     [("--file", _REQUIRED), ("--a", _REQUIRED_INT), ("--nu", _default(1)),
      ("--prec", _default(None))]),
    ("measure", "push", None, ("measure", "serialize"), _cmd_measure_push,
     [("--file1", _REQUIRED), ("--file2", _REQUIRED), ("--rmax", _REQUIRED_INT)]),
    ("measure", "pair", None, ("measure", "serialize"), _cmd_measure_pair,
     [("--file", {"required": True, "help": 'JSON {"pairs": [[mu, mu], ...]}'}),
      ("--rmax", _REQUIRED_INT)]),
    ("modform", "delta", None, ("modform", "serialize"), _cmd_modform_delta,
     [("--trunc", _default(50))]),
    ("modform", "eisenstein", None, ("modform", "serialize"), _cmd_modform_eisenstein,
     [("--k", _REQUIRED_INT), ("--trunc", _default(50))]),
    ("modform", "deplete", None, ("modform", "serialize"), _cmd_modform_deplete,
     [("--file", _REQUIRED), ("--p", _REQUIRED_INT)]),
    ("modform", "hecke", None, ("modform", "serialize"), _cmd_modform_hecke,
     [("--file", _REQUIRED), ("--p", _REQUIRED_INT)]),
    ("modform", "theta", None, ("modform", "serialize"), _cmd_modform_theta,
     [("--file", _REQUIRED), ("--r", _default(1))]),
    ("modform", "euler-factor", None, ("modform", "serialize"), _cmd_modform_euler,
     [("--a-p", _REQUIRED), ("--eps-p", _default("1", None)),
      ("--chi", _default("1", None)), ("--kappa", _REQUIRED_INT), ("--p", _REQUIRED_INT)]),
    ("modform", "maass", None, ("modform", "serialize"), _cmd_modform_maass,
     [("--file", _REQUIRED), ("--r", _default(1))]),
    (None, "class-group", "reduced forms and composition", ("heckechar",), _cmd_class_group,
     [("--disc", _REQUIRED_INT)]),
    ("hecke", "pair", None, ("heckechar", "serialize"), _cmd_hecke_pair, [
        ("--disc", _REQUIRED_INT), ("--chi", _REQUIRED_INT), ("--psi", _REQUIRED_INT),
        ("--twist-inverse", {"action": "store_true",
                             "help": "compute <chi, chi^-1>^psi instead of <chi, psi>"})]),
    ("hecke", "avatar", None, ("heckechar", "serialize"), _cmd_hecke_avatar,
     [("--disc", _REQUIRED_INT), ("--p", _REQUIRED_INT), ("--prec", _default(None)),
      ("--chi", _default(None))]),
    ("arch", "local-factor", None, ("archimedean", "serialize"), _cmd_arch_local_factor,
     [("--kappa", _REQUIRED_INT), ("--r", _REQUIRED_INT), ("--l", _REQUIRED_INT),
      ("--s", _default(0.5, _finite_float)), ("--nu-abs", _default(1.0, _finite_float)),
      ("--zeta-re", _default(1.0, _finite_float)), ("--zeta-im", _default(0.0, _finite_float)),
      ("--nodes-a", _default(64)), ("--nodes-theta", _default(256)),
      ("--tol", _default(1e-6, _finite_float)),
      ("--vanish-tol", _default(1e-8, _finite_float))]),
    ("arch", "identity", None, ("archimedean",), _cmd_arch_identity,
     [("--r", _REQUIRED_INT)]),
    ("quat", "hilbert", None, ("quaternion",), _cmd_quat_hilbert,
     [("--a", _REQUIRED), ("--b", _REQUIRED), ("--place", _REQUIRED)]),
    ("quat", "ramified", None, ("quaternion",), _cmd_quat_ramified,
     [("--a", _REQUIRED), ("--b", _REQUIRED)]),
    ("quat", "hashimoto", None, ("quaternion",), _cmd_quat_hashimoto,
     [("--delta", _REQUIRED_INT), ("--p", _REQUIRED_INT), ("--bound", _default(10000))]),
    ("quat", "conductor", None, ("quaternion", "serialize"), _cmd_quat_conductor, [
        ("--matrix", {"required": True, "help": '"a,b;c,d" with rational entries'}),
        ("--disc", {}), ("--level", _default(1))]),
)


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree of COMMANDS; a leaf's defaults name its handler, the
    modules the handler takes and its options as {dest: add_argument
    keywords}, which --config reads."""
    top = argparse.ArgumentParser(prog="mahler",
                                  description="p-adic measures and friends")
    top.add_argument("--config", help="JSON file overriding argument defaults")
    sub = top.add_subparsers(dest="command", required=True)
    groups = {}
    for group, name, summary, uses, handler, options in COMMANDS:
        if group is not None and group not in groups:
            groups[group] = sub.add_parser(group, help=GROUPS[group]).add_subparsers(
                dest="sub", required=True)
        parent = sub if group is None else groups[group]
        q = parent.add_parser(name, **({} if summary is None else {"help": summary}))
        for flag, keywords in options:
            q.add_argument(flag, **keywords)
        q.set_defaults(func=handler, uses=uses, options={
            flag[2:].replace("-", "_"): keywords for flag, keywords in options})
    return top


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser() once per process: parsing leaves the parser unchanged."""
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
        _apply_config(args)
        args.func(args, *[importlib.import_module(f"{__package__}.{name}")
                          for name in args.uses])
        return 0
    except InvalidInput as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PrecisionExhausted as exc:
        print(f"precision exhausted: {exc}", file=sys.stderr)
        return 3
    except SearchBoundExhausted as exc:
        print(f"search bound exhausted: {exc}", file=sys.stderr)
        return 4
    except ToleranceNotMet as exc:
        print(f"tolerance not met: {exc}", file=sys.stderr)
        return 5
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint():
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
