"""Command-line front end: one subcommand tree over every module, JSON in and
out, deterministic output, machine-readable exit codes.

Exit codes: 0 success, 2 invalid input, 3 precision exhausted, 4 search bound
exhausted, 5 numerical tolerance not met.  Diagnostics go to stderr only.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import archimedean, heckechar, measure, modform, padic, quaternion
from . import serialize as ser
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


def _emit(obj):
    sys.stdout.write(json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n")


def _read_json(path: str):
    if path == "-":
        return json.load(sys.stdin)
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _command_options(parser, args) -> dict:
    """dest -> action for every option of the (sub)command `args` names."""
    options = {}
    while parser is not None:
        chosen = None
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                chosen = action.choices[getattr(args, action.dest)]
            elif hasattr(args, action.dest):
                options[action.dest] = action
        parser = chosen
    return options


def _config_value(action, key: str, value):
    """A --config value converted as argparse converts the same option in
    argv: its text through the option's type, then checked against its
    choices; a flag takes a JSON boolean."""
    if action.nargs == 0:
        if isinstance(value, bool):
            return value
        raise InvalidInput(f"--config {key!r} must be true or false, not {value!r}")
    try:
        converted = (action.type or str)(str(value))
    except ValueError:
        raise InvalidInput(f"--config {key!r}: invalid value {value!r}") from None
    if action.choices is not None and converted not in action.choices:
        raise InvalidInput(f"--config {key!r}: {value!r} is not one of "
                           f"{list(action.choices)}")
    return converted


def _apply_config(parser, args):
    cfg = getattr(args, "config", None)
    if cfg:
        overrides = _read_json(cfg)
        if not isinstance(overrides, dict):
            raise InvalidInput("--config must hold a JSON object")
        options = _command_options(parser, args)
        for key, value in overrides.items():
            attr = key.replace("-", "_")
            if attr in options:
                setattr(args, attr, _config_value(options[attr], key, value))


# -- padic ---------------------------------------------------------------------

def _cmd_padic_arith(args):
    a = ser.decode_padic(json.loads(args.a))
    if args.op == "inv":
        b = a
    elif args.b is None:
        raise InvalidInput(f"op {args.op!r} needs --b")
    else:
        b = ser.decode_padic(json.loads(args.b))
    _emit(ser.encode_padic(padic.scalar_arith(a, b, args.op)))


def _cmd_padic_stirling1(args):
    _emit({"n": args.n, "i": args.i,
           "value": str(padic.stirling_first_signed(args.n, args.i))})


def _cmd_padic_stirling2(args):
    _emit({"r": args.r, "n": args.n,
           "value": str(padic.stirling_second(args.r, args.n))})


def _cmd_padic_vfact(args):
    _emit({"n": args.n, "p": args.p,
           "value": padic.factorial_valuation(args.n, args.p)})


def _cmd_padic_binom(args):
    z = padic.PadicScalar.from_rational(_rational(args.z), args.p, _precision(args))
    _emit(ser.encode_series(padic.binomial_series(z, args.order)))


# -- measure ---------------------------------------------------------------------

def _cmd_measure_moments(args):
    mu = ser.decode_measure(_read_json(args.file))
    _emit({"r": args.r, "moment": ser.encode_scalar(measure.moments(mu, args.r))})


def _cmd_measure_restrict(args):
    mu = ser.decode_measure(_read_json(args.file))
    out = measure.restrict_to_units(mu, precision=args.prec)
    _emit(ser.encode_measure(out))


def _cmd_measure_cell_mass(args):
    mu = ser.decode_measure(_read_json(args.file))
    mass = measure.cell_mass(mu, args.a, args.nu, precision=args.prec)
    _emit({"a": args.a, "nu": args.nu, "mass": ser.encode_scalar(mass)})


def _cmd_measure_push(args):
    mu1 = ser.decode_measure(_read_json(args.file1))
    mu2 = ser.decode_measure(_read_json(args.file2))
    _emit(ser.encode_measure(measure.mult_pushforward(mu1, mu2, args.rmax)))


def _cmd_measure_pair(args):
    pairs = ser.decode_measure_pairs(_read_json(args.file))
    _emit(ser.encode_measure(measure.pairing_measure(pairs, args.rmax)))


# -- modform ---------------------------------------------------------------------

def _cmd_modform_delta(args):
    _emit(ser.encode_qexpansion(modform.delta_qexpansion(args.trunc)))


def _cmd_modform_eisenstein(args):
    _emit(ser.encode_qexpansion(modform.eisenstein_qexpansion(args.k, args.trunc)))


def _cmd_modform_deplete(args):
    f = ser.decode_qexpansion(_read_json(args.file))
    _emit(ser.encode_qexpansion(modform.p_deplete(f, args.p)))


def _cmd_modform_hecke(args):
    f = ser.decode_qexpansion(_read_json(args.file))
    _emit(ser.encode_qexpansion(modform.hecke_operator(f, args.p)))


def _cmd_modform_theta(args):
    f = ser.decode_qexpansion(_read_json(args.file))
    _emit(ser.encode_qexpansion(modform.theta_operator(f, args.r)))


def _cmd_modform_euler(args):
    value = modform.interpolation_euler_factor(
        _rational(args.a_p), _rational(args.eps_p), _rational(args.chi),
        args.kappa, args.p)
    _emit({"euler_factor": ser.encode_exact(value)})


def _cmd_modform_maass(args):
    f = ser.decode_nearly_holomorphic(_read_json(args.file))
    _emit(ser.encode_nearly_holomorphic(modform.maass_raise(f, args.r)))


# -- class groups and characters -------------------------------------------------

def _cmd_class_group(args):
    G = heckechar.class_group(args.disc)
    _emit({"D": G.discriminant, "h": G.h,
           "forms": [list(f) for f in G.forms],
           "identity": G.identity_index,
           "table": G.table})


def _cmd_hecke_pair(args):
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


def _cmd_hecke_avatar(args):
    G = heckechar.class_group(args.disc)
    chars = heckechar.characters(G)
    prec = _precision(args)
    emb = heckechar.admissible_embedding(G, args.p, prec)
    picks = range(len(chars)) if args.chi is None else [args.chi]
    table = {}
    for i in picks:
        table[str(i)] = [ser.encode_padic(x)
                         for x in heckechar.padic_avatar(chars[i], emb)]
    _emit({"D": args.disc, "p": args.p, "prec": prec, "avatars": table})


# -- archimedean ------------------------------------------------------------------

def _cmd_arch_local_factor(args):
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
    if args.l == args.r:
        if report["rel_error"] > args.tol:
            raise ToleranceNotMet(
                f"relative error {report['rel_error']:.3e} exceeds {args.tol:.3e}")
    else:
        scale = abs(archimedean.local_factor_closed_form(
            archimedean.LocalFactorParams(args.kappa, args.r, args.r, args.s,
                                          args.nu_abs)))
        if abs(report["quadrature"]) > args.vanish_tol * scale:
            raise ToleranceNotMet("vanishing case is not numerically zero")


def _cmd_arch_identity(args):
    got = archimedean.delta_diagonal_sum(args.r)
    want = archimedean.delta_diagonal_target(args.r)
    if got != want:
        raise ToleranceNotMet("exact diagonal identity failed")
    _emit({"r": args.r, "holds": True, "value": repr(got)})


# -- quaternion -------------------------------------------------------------------

def _parse_place(text: str):
    if text in ("inf", "oo", "infinity"):
        return quaternion.INFINITE_PLACE
    return int(text)


def _cmd_quat_hilbert(args):
    symbol = quaternion.hilbert_symbol(_rational(args.a), _rational(args.b),
                                       _parse_place(args.place))
    _emit({"a": args.a, "b": args.b, "place": args.place, "symbol": symbol})


def _cmd_quat_ramified(args):
    alg = quaternion.QuaternionAlgebra(_rational(args.a), _rational(args.b))
    ram = quaternion.ramified_set(alg)
    finite = sorted(p for p in ram if p is not quaternion.INFINITE_PLACE)
    _emit({"a": args.a, "b": args.b,
           "finite_places": finite,
           "infinite": quaternion.INFINITE_PLACE in ram,
           "discriminant": quaternion.discriminant(alg)})


def _cmd_quat_hashimoto(args):
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


def _cmd_quat_conductor(args):
    emb = quaternion.MatrixEmbedding(_parse_matrix(args.matrix), args.level)
    if args.disc is not None and _rational(args.disc) != emb.d:
        raise InvalidInput(f"M^2 = {emb.d} I, not {args.disc}")
    _emit({"matrix": args.matrix, "level": args.level,
           "d": ser.encode_exact(emb.d),
           "conductor": quaternion.embedding_conductor(emb)})


# -- parser ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="mahler",
                                  description="p-adic measures and friends")
    top.add_argument("--config", help="JSON file overriding argument defaults")
    sub = top.add_subparsers(dest="command", required=True)

    p_padic = sub.add_parser("padic", help="scalar and transform utilities")
    ps = p_padic.add_subparsers(dest="sub", required=True)
    q = ps.add_parser("arith")
    q.add_argument("--op", required=True, choices=["add", "sub", "mul", "inv"])
    q.add_argument("--a", required=True, help="inline JSON scalar")
    q.add_argument("--b", help="inline JSON scalar (unused for inv)")
    q.set_defaults(func=_cmd_padic_arith)
    q = ps.add_parser("stirling-first")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--i", type=int, required=True)
    q.set_defaults(func=_cmd_padic_stirling1)
    q = ps.add_parser("stirling-second")
    q.add_argument("--r", type=int, required=True)
    q.add_argument("--n", type=int, required=True)
    q.set_defaults(func=_cmd_padic_stirling2)
    q = ps.add_parser("factorial-valuation")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--p", type=int, required=True)
    q.set_defaults(func=_cmd_padic_vfact)
    q = ps.add_parser("binomial-series")
    q.add_argument("--z", required=True)
    q.add_argument("--p", type=int, required=True)
    q.add_argument("--prec", type=int, default=None)
    q.add_argument("--order", type=int, default=8)
    q.set_defaults(func=_cmd_padic_binom)

    p_meas = sub.add_parser("measure", help="measures on Z_p")
    ms = p_meas.add_subparsers(dest="sub", required=True)
    q = ms.add_parser("moments")
    q.add_argument("--file", required=True)
    q.add_argument("--r", type=int, required=True)
    q.set_defaults(func=_cmd_measure_moments)
    q = ms.add_parser("restrict")
    q.add_argument("--file", required=True)
    q.add_argument("--prec", type=int, default=None)
    q.set_defaults(func=_cmd_measure_restrict)
    q = ms.add_parser("cell-mass")
    q.add_argument("--file", required=True)
    q.add_argument("--a", type=int, required=True)
    q.add_argument("--nu", type=int, default=1)
    q.add_argument("--prec", type=int, default=None)
    q.set_defaults(func=_cmd_measure_cell_mass)
    q = ms.add_parser("push")
    q.add_argument("--file1", required=True)
    q.add_argument("--file2", required=True)
    q.add_argument("--rmax", type=int, required=True)
    q.set_defaults(func=_cmd_measure_push)
    q = ms.add_parser("pair")
    q.add_argument("--file", required=True, help='JSON {"pairs": [[mu, mu], ...]}')
    q.add_argument("--rmax", type=int, required=True)
    q.set_defaults(func=_cmd_measure_pair)

    p_mf = sub.add_parser("modform", help="q-expansion operators")
    mf = p_mf.add_subparsers(dest="sub", required=True)
    q = mf.add_parser("delta")
    q.add_argument("--trunc", type=int, default=50)
    q.set_defaults(func=_cmd_modform_delta)
    q = mf.add_parser("eisenstein")
    q.add_argument("--k", type=int, required=True)
    q.add_argument("--trunc", type=int, default=50)
    q.set_defaults(func=_cmd_modform_eisenstein)
    q = mf.add_parser("deplete")
    q.add_argument("--file", required=True)
    q.add_argument("--p", type=int, required=True)
    q.set_defaults(func=_cmd_modform_deplete)
    q = mf.add_parser("hecke")
    q.add_argument("--file", required=True)
    q.add_argument("--p", type=int, required=True)
    q.set_defaults(func=_cmd_modform_hecke)
    q = mf.add_parser("theta")
    q.add_argument("--file", required=True)
    q.add_argument("--r", type=int, default=1)
    q.set_defaults(func=_cmd_modform_theta)
    q = mf.add_parser("euler-factor")
    q.add_argument("--a-p", required=True)
    q.add_argument("--eps-p", default="1")
    q.add_argument("--chi", default="1")
    q.add_argument("--kappa", type=int, required=True)
    q.add_argument("--p", type=int, required=True)
    q.set_defaults(func=_cmd_modform_euler)
    q = mf.add_parser("maass")
    q.add_argument("--file", required=True)
    q.add_argument("--r", type=int, default=1)
    q.set_defaults(func=_cmd_modform_maass)

    q = sub.add_parser("class-group", help="reduced forms and composition")
    q.add_argument("--disc", type=int, required=True)
    q.set_defaults(func=_cmd_class_group)

    p_hk = sub.add_parser("hecke", help="characters, pairings, avatars")
    hk = p_hk.add_subparsers(dest="sub", required=True)
    q = hk.add_parser("pair")
    q.add_argument("--disc", type=int, required=True)
    q.add_argument("--chi", type=int, required=True)
    q.add_argument("--psi", type=int, required=True)
    q.add_argument("--twist-inverse", action="store_true",
                   help="compute <chi, chi^-1>^psi instead of <chi, psi>")
    q.set_defaults(func=_cmd_hecke_pair)
    q = hk.add_parser("avatar")
    q.add_argument("--disc", type=int, required=True)
    q.add_argument("--p", type=int, required=True)
    q.add_argument("--prec", type=int, default=None)
    q.add_argument("--chi", type=int, default=None)
    q.set_defaults(func=_cmd_hecke_avatar)

    p_arch = sub.add_parser("arch", help="archimedean local factor")
    ar = p_arch.add_subparsers(dest="sub", required=True)
    q = ar.add_parser("local-factor")
    q.add_argument("--kappa", type=int, required=True)
    q.add_argument("--r", type=int, required=True)
    q.add_argument("--l", type=int, required=True)
    q.add_argument("--s", type=float, default=0.5)
    q.add_argument("--nu-abs", type=float, default=1.0)
    q.add_argument("--zeta-re", type=float, default=1.0)
    q.add_argument("--zeta-im", type=float, default=0.0)
    q.add_argument("--nodes-a", type=int, default=64)
    q.add_argument("--nodes-theta", type=int, default=256)
    q.add_argument("--tol", type=float, default=1e-6)
    q.add_argument("--vanish-tol", type=float, default=1e-8)
    q.set_defaults(func=_cmd_arch_local_factor)
    q = ar.add_parser("identity")
    q.add_argument("--r", type=int, required=True)
    q.set_defaults(func=_cmd_arch_identity)

    p_qu = sub.add_parser("quat", help="quaternion algebra utilities")
    qu = p_qu.add_subparsers(dest="sub", required=True)
    q = qu.add_parser("hilbert")
    q.add_argument("--a", required=True)
    q.add_argument("--b", required=True)
    q.add_argument("--place", required=True)
    q.set_defaults(func=_cmd_quat_hilbert)
    q = qu.add_parser("ramified")
    q.add_argument("--a", required=True)
    q.add_argument("--b", required=True)
    q.set_defaults(func=_cmd_quat_ramified)
    q = qu.add_parser("hashimoto")
    q.add_argument("--delta", type=int, required=True)
    q.add_argument("--p", type=int, required=True)
    q.add_argument("--bound", type=int, default=10000)
    q.set_defaults(func=_cmd_quat_hashimoto)
    q = qu.add_parser("conductor")
    q.add_argument("--matrix", required=True, help='"a,b;c,d" with rational entries')
    q.add_argument("--disc", default=None)
    q.add_argument("--level", type=int, default=1)
    q.set_defaults(func=_cmd_quat_conductor)

    return top


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _apply_config(parser, args)
        args.func(args)
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
