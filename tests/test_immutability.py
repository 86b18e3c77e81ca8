"""Every value is immutable: no field of a value class can be assigned or
deleted, and no container a value holds can be changed in place.  Every value
and record class follows the one protocol of `Frozen`: equal when its fields
are, unhashable unless it is a record, printed as its fields unless its class
prints a shorter form, and copied, deep-copied and pickled by rebuilding it
from its fields, a read-only map as a read-only map.  Every transform is a
function of its arguments' fields: on a value and on each of its rebuilds it
gives the same fields and types, or the same exception and message."""

import copy
import json
import pickle
import sys
import threading
from collections import Counter
from fractions import Fraction
from types import MappingProxyType

import pytest

from mahler.archimedean import LocalFactorParams, PiPolynomial
from mahler.errors import Frozen, InvalidInput, PrecisionExhausted
from mahler import measure, padic
from mahler.heckechar import (AlgebraicValue, PadicEmbedding, QuadOrder,
                              WeightFunction, admissible_embedding,
                              avatar_measure_family, characters, class_group,
                              pairing, smallest_admissible_prime, twisted_pairing)
from mahler.measure import (Measure, cell_mass, dirac, integrate_step, moments,
                            mult_pushforward, pairing_measure, plus_basis, restrict_to_units)
from mahler.modform import (DirichletCharacter, NearlyHolomorphic, QExpansion,
                            delta_qexpansion, p_deplete, u_operator, v_operator)
from mahler.padic import INF, PadicScalar, TruncatedSeries, binomial_series, factorial_valuation
from mahler.quaternion import HashimotoData, MatrixEmbedding, QuaternionAlgebra
from mahler.serialize import decode_measure, encode_measure
from paper_oracles import family_cases
from test_precision_oracle import generate, truncated

VALUES = {
    "PadicScalar": lambda: PadicScalar.from_int(5, 3, 4),
    "TruncatedSeries": lambda: binomial_series(3, 4),
    "Measure": lambda: dirac(1, 3, 4),
    "DirichletCharacter": lambda: DirichletCharacter.trivial(4),
    "QExpansion": lambda: delta_qexpansion(10),
    "NearlyHolomorphic": lambda: NearlyHolomorphic(10, 4, {(0, 0): 1, (1, 1): 2}),
    "QuadOrder": lambda: QuadOrder(-7),
    "IdealClassGroup": lambda: class_group(-23),
    "AlgebraicValue": lambda: AlgebraicValue.root_of_unity(1, -7, 3),
    "WeightFunction": lambda: characters(class_group(-23))[1],
    "PadicEmbedding": lambda: PadicEmbedding(7, 8, -3, 3),
    "PiPolynomial": lambda: PiPolynomial({1: 1, -2: 3}),
    # a zero is flagged by valuation `is INF`, which a rebuilt value must keep
    "PadicScalar zero mod 7^6": lambda: PadicScalar.zero(7, 6),
    "PadicScalar exact zero": lambda: PadicScalar.zero(7),
    "Measure of zeros": lambda: Measure(7, [PadicScalar.zero(7, 6), PadicScalar.zero(7)]),
    # a member whose `mahler` is built on first read
    "Measure family member": lambda: family_pairs()[1][1][0],
}

RECORDS = {
    "QuaternionAlgebra": lambda: QuaternionAlgebra(-1, -1),
    "HashimotoData": lambda: HashimotoData(6, 5, 2),
    "MatrixEmbedding": lambda: MatrixEmbedding(((0, 1), (-4, 0))),
    "LocalFactorParams": lambda: LocalFactorParams(1, 1, 1),
}

# each entry of VALUES and RECORDS with one field changed
CHANGED = {
    "PadicScalar": lambda: PadicScalar.from_int(7, 3, 4),
    "TruncatedSeries": lambda: binomial_series(4, 4),
    "Measure": lambda: dirac(2, 3, 4),
    "DirichletCharacter": lambda: DirichletCharacter(4, [0, 1, 0, -1]),
    "QExpansion": lambda: delta_qexpansion(11),
    "NearlyHolomorphic": lambda: NearlyHolomorphic(10, 4, {(0, 0): 1, (1, 1): 3}),
    "QuadOrder": lambda: QuadOrder(-7, 2),
    "IdealClassGroup": lambda: class_group(-47),
    "AlgebraicValue": lambda: AlgebraicValue.root_of_unity(2, -7, 3),
    "WeightFunction": lambda: characters(class_group(-23))[2],
    "PadicEmbedding": lambda: PadicEmbedding(7, 9, -3, 3),
    "PiPolynomial": lambda: PiPolynomial({1: 1, -2: 4}),
    "PadicScalar zero mod 7^6": lambda: PadicScalar.zero(5, 6),
    "PadicScalar exact zero": lambda: PadicScalar.zero(5),
    "Measure of zeros": lambda: Measure(7, [PadicScalar.zero(7, 6), PadicScalar.zero(7)], True),
    "Measure family member": lambda: family_pairs()[1][1][1],
    "QuaternionAlgebra": lambda: QuaternionAlgebra(-1, -3),
    "HashimotoData": lambda: HashimotoData(6, 5, 3),
    "MatrixEmbedding": lambda: MatrixEmbedding(((0, 1), (-4, 0)), 2),
    "LocalFactorParams": lambda: LocalFactorParams(1, 1, 1, 0.25),
}

ALL = {**VALUES, **RECORDS}


@pytest.mark.parametrize("name", list(ALL))
def test_fields_refuse_assignment_and_deletion(name):
    value = ALL[name]()
    assert type(value).__name__ == name.split()[0]
    assert isinstance(value, Frozen)
    before = {field: getattr(value, field) for field in type(value).__slots__}
    assert before
    for field in [*before, "other"]:
        with pytest.raises(AttributeError):
            setattr(value, field, 0)
        with pytest.raises(AttributeError):
            delattr(value, field)
    assert {field: getattr(value, field) for field in before} == before


CONTAINERS = {
    "series coeffs": (lambda: binomial_series(3, 4), "coeffs", 1, 99),
    "nearly-holomorphic cells": (lambda: NearlyHolomorphic(10, 4, {(0, 0): 1}),
                                 "cells", (1, 0), 0),
    "pi-polynomial terms": (lambda: PiPolynomial({1: 1}), "terms", 2, 5),
    "measure mahler": (lambda: dirac(1, 3, 4), "mahler", 0, 7),
    "algebraic terms": (lambda: AlgebraicValue.root_of_unity(1, -7, 3), "terms", 0, (1, 0)),
    "character exponents": (lambda: characters(class_group(-23))[1], "exponents", 0, 1),
}


@pytest.mark.parametrize("name", list(CONTAINERS))
def test_containers_refuse_change_in_place(name):
    make, field, key, item = CONTAINERS[name]
    value = make()
    container = getattr(value, field)
    with pytest.raises(TypeError):
        container[key] = item
    assert container == getattr(make(), field)


@pytest.mark.parametrize("name", list(ALL))
def test_equal_to_a_fresh_copy_and_not_to_a_changed_one(name):
    value, copy, changed = ALL[name](), ALL[name](), CHANGED[name]()
    assert value is not copy
    assert value == copy and not value != copy
    assert value != changed and not value == changed


@pytest.mark.parametrize("name", list(VALUES))
def test_values_are_unhashable(name):
    with pytest.raises(TypeError):
        hash(VALUES[name]())


@pytest.mark.parametrize("name", list(RECORDS))
def test_records_hash_by_their_fields(name):
    value, copy = RECORDS[name](), RECORDS[name]()
    fields = tuple(getattr(value, field) for field in type(value).__slots__)
    assert hash(value) == hash(copy) == hash(fields)
    assert len({value, copy, CHANGED[name]()}) == 2


@pytest.mark.parametrize("name", list(ALL))
def test_a_build_with_one_field_too_few_or_too_many_is_refused(name):
    value = ALL[name]()
    fields = value._fields()
    for wrong in (fields[:-1], (*fields, None)):
        with pytest.raises(ValueError, match=f"has {len(fields)} fields, not {len(wrong)}"):
            type(value)._from_fields(*wrong)


@pytest.mark.parametrize("name", list(ALL))
def test_equality_with_another_type_is_not_implemented(name):
    value = ALL[name]()
    assert value != object() and value != (value,)
    if type(value).__eq__ is Frozen.__eq__:
        assert value.__eq__(object()) is NotImplemented


@pytest.mark.parametrize("name", list(ALL))
def test_copies_are_rebuilt_from_the_fields(name):
    value = ALL[name]()
    for other in [copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))]:
        assert type(other) is type(value) and other == value
        assert repr(other) == repr(value)
        with pytest.raises(AttributeError):
            setattr(other, type(value).__slots__[0], 0)
        for field in type(value).__slots__:  # a rebuilt map is read-only again
            if isinstance(getattr(value, field), MappingProxyType):
                rebuilt = getattr(other, field)
                assert type(rebuilt) is MappingProxyType and rebuilt == getattr(value, field)
                with pytest.raises(TypeError):
                    rebuilt[next(iter(rebuilt))] = 0


@pytest.mark.parametrize("name", ["PadicScalar zero mod 7^6", "PadicScalar exact zero",
                                  "Measure of zeros"])
def test_rebuilt_zeros_compute_as_the_originals(name):
    # pickle makes math.inf anew: a rebuilt zero must still add, multiply and lift
    value = ALL[name]()
    for other in [copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))]:
        for x, y in zip(getattr(value, "mahler", [value]), getattr(other, "mahler", [other])):
            assert (repr(y + 1), repr(y * 2), y.lift(), y.is_zero) == \
                (repr(x + 1), repr(x * 2), x.lift(), x.is_zero)


# recorded while the records were frozen dataclasses and QuadOrder and
# PadicEmbedding each wrote their own repr
REPRS = [
    (lambda: QuadOrder(-7), "QuadOrder(d_K=-7, c=1)"),
    (lambda: QuadOrder.from_discriminant(-36), "QuadOrder(d_K=-4, c=3)"),
    (lambda: PadicEmbedding(7, 8, -3, 3),
     "PadicEmbedding(prime=7, precision=8, d=-3, m=3, sqrt_lift=988906, "
     "zeta_lift=2387947)"),
    (lambda: PadicEmbedding(7, 3, 14),
     "PadicEmbedding(prime=7, precision=3, d=14, m=1, sqrt_lift='ramified', "
     "zeta_lift=None)"),
    (lambda: QuaternionAlgebra(-1, -1),
     "QuaternionAlgebra(a=Fraction(-1, 1), b=Fraction(-1, 1))"),
    (lambda: QuaternionAlgebra(a=Fraction(3, 2), b=-5),
     "QuaternionAlgebra(a=Fraction(3, 2), b=Fraction(-5, 1))"),
    (lambda: HashimotoData(delta=10, q=13, b_param=4),
     "HashimotoData(delta=10, q=13, b_param=4)"),
    (lambda: MatrixEmbedding(((0, 1), (-4, 0))),
     "MatrixEmbedding(m=((Fraction(0, 1), Fraction(1, 1)), "
     "(Fraction(-4, 1), Fraction(0, 1))), level=1)"),
    (lambda: MatrixEmbedding(m=((1, 1), (-2, -1)), level=3),
     "MatrixEmbedding(m=((Fraction(1, 1), Fraction(1, 1)), "
     "(Fraction(-2, 1), Fraction(-1, 1))), level=3)"),
    (lambda: LocalFactorParams(1, 1, 1),
     "LocalFactorParams(kappa=1, r=1, l=1, s=0.5, nu_u_abs=1.0, zeta_u=(1+0j))"),
    (lambda: LocalFactorParams(kappa=2, r=3, l=1, s=0.25, nu_u_abs=2.0,
                               zeta_u=complex(0.6, 0.8)),
     "LocalFactorParams(kappa=2, r=3, l=1, s=0.25, nu_u_abs=2.0, zeta_u=(0.6+0.8j))"),
]


@pytest.mark.parametrize("make, text", REPRS, ids=[text for _, text in REPRS])
def test_field_repr(make, text):
    assert repr(make()) == text


def test_class_groups_compare_by_value():
    assert class_group(-23) == class_group(-23) != class_group(-47)


def exactly(value):
    """A value's class and fields, down to the type of every coefficient."""
    if isinstance(value, Frozen):
        return type(value), tuple(exactly(field) for field in value._fields())
    if type(value) is tuple:
        return tuple(exactly(item) for item in value)
    return type(value), value


def test_derived_values_skip_the_checks_and_equal_checked_builds(monkeypatch):
    """Values derived from checked ones come from `_from_fields`: over a small
    avatar pipeline, a Dirac measure at a family coefficient (the atom
    measure of `_avatar_member`, as a family member is), and U, V and
    depletion of Delta, nothing enters the `Measure`, `TruncatedSeries` or
    `QExpansion` constructors (the families pair through their atoms, with
    no `mahler_from_moments`); a class group's
    `QuadOrder` is built from the parts of its discriminant, and every
    `PadicScalar._make` ends in `_from_fields`.  Each value so
    built equals the public constructor's value on its fields.  The roots of
    unity that `characters` caches are built first, so that the set of
    recorded types does not depend on which tests ran before."""
    for D in (-23, -407):
        characters(class_group(D))
    entered, built = Counter(), []
    for cls in (Measure, TruncatedSeries, QExpansion):
        def init(self, *args, _cls=cls, _init=cls.__init__, **kwargs):
            entered[_cls.__name__, sys._getframe(1).f_code.co_name] += 1
            _init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", init)
    from_fields = Frozen._from_fields.__func__

    def record(cls, *fields):
        built.append(from_fields(cls, *fields))
        return built[-1]
    monkeypatch.setattr(Frozen, "_from_fields", classmethod(record))

    for D in (-23, -407):
        G = class_group(D)
        chars = characters(G)
        p = smallest_admissible_prime(G)
        emb = admissible_embedding(G, p, factorial_valuation(47, p) + 4)
        fam1 = avatar_measure_family(chars[0], chars[1] * chars[-1], emb, 48)
        fam2 = avatar_measure_family(chars[0].inverse(), chars[-1] ** 2, emb, 48)
        paired = pairing_measure(list(zip(fam1, fam2)), 40)
        restrict_to_units(fam1[0], 1)
        restrict_to_units(paired, 1)
        assert dirac(fam1[-1].mahler[1], p, 48).atoms is not None
    delta = delta_qexpansion(30)
    for operator, p in ((u_operator, 2), (v_operator, 3), (p_deplete, 5)):
        operator(delta, p)

    assert set(entered) == set()
    assert {type(value) for value in built} \
        == {Measure, QExpansion, WeightFunction, QuadOrder, PadicScalar}
    monkeypatch.undo()
    for value in built:
        if type(value) is Measure:  # the public constructor takes no atoms
            checked = Measure(*value._fields()[:3])
            assert exactly(checked)[1][:3] == exactly(value)[1][:3] and checked.atoms is None
        else:
            assert exactly(type(value)(*value._fields())) == exactly(value)


def family_pairs():
    """(p, the members of two avatar families at D = -23 paired class by class)."""
    G = class_group(-23)
    chars = characters(G)
    p = smallest_admissible_prime(G)
    emb = admissible_embedding(G, p, 6)
    return p, list(zip(avatar_measure_family(chars[0], chars[1], emb, 12),
                       avatar_measure_family(chars[0], chars[2], emb, 12)))


def test_a_family_members_atom_refuses_assignment_and_deletion():
    _, pairs = family_pairs()
    mu = pairs[0][0]
    atoms = mu.atoms
    assert len(atoms) == 1 and type(atoms[0][0]) is type(atoms[0][1]) is PadicScalar
    with pytest.raises(AttributeError):
        mu.atoms = None
    with pytest.raises(AttributeError):
        del mu.atoms
    assert mu.atoms is atoms


def test_a_family_member_equals_the_measure_of_its_fields():
    # `==` reads every field, atoms included, and `repr` reads prime, mahler
    # and finite; the public constructor, which takes those three, builds a
    # measure without atoms, which prints as the member and is not equal
    _, pairs = family_pairs()
    for mu in (mu for pair in pairs for mu in pair):
        plain = Measure(*mu._fields()[:3])
        assert mu == Measure._from_fields(*mu._fields()) and repr(mu) == repr(plain)
        assert mu != plain and plain == Measure._from_fields(*mu._fields()[:3], None)
        assert exactly(mu)[1][:3] == exactly(plain)[1][:3]
        assert plain.atoms is None and mu.atoms is not None


def test_copies_of_a_family_member_keep_the_atoms_and_pair_to_the_same_fields():
    # a copy is rebuilt from all four fields, atoms among them, so it pairs
    # through the atoms to the fields of the originals' pairing measure
    _, pairs = family_pairs()
    atoms = pairing_measure(pairs, 8)
    for rebuild in (copy.copy, copy.deepcopy, lambda mu: pickle.loads(pickle.dumps(mu))):
        copies = [tuple(map(rebuild, pair)) for pair in pairs]
        assert copies == pairs
        assert [exactly(mu) for pair in copies for mu in pair] == \
            [exactly(mu) for pair in pairs for mu in pair]
        assert exactly(pairing_measure(copies, 8)) == exactly(atoms)


# -- a family member builds its coefficients on first read --------------------

def unfilled(mu: Measure) -> bool:
    """Whether the `_mahler` slot of µ still holds a member's recipe, read
    without filling it."""
    return type(mu._mahler) is list


def test_an_unfilled_member_refuses_assignment_and_deletion_of_every_field():
    mu = family_pairs()[1][1][0]
    assert unfilled(mu)
    for field in [*type(mu).__slots__, "mahler", "other"]:
        with pytest.raises(AttributeError):
            setattr(mu, field, 0)
        with pytest.raises(AttributeError):
            delattr(mu, field)
    assert unfilled(mu) and mu.order == 12
    assert mu == family_pairs()[1][1][0]


def test_an_unfilled_member_reads_and_rebuilds_as_its_filled_twin():
    def member():
        mu = family_pairs()[1][1][0]
        assert unfilled(mu)
        return mu
    twin = member()
    assert type(twin.mahler) is tuple and not unfilled(twin)
    want = exactly(twin)
    assert exactly(member()) == want  # through `_fields()`
    assert member() == twin and twin == member() and not member() != twin
    assert repr(member()) == repr(twin)
    for how, rebuild in REBUILDS.items():
        assert exactly(rebuild(member())) == want, how


def test_reading_mahler_twice_gives_the_same_tuple():
    mu = family_pairs()[1][1][0]
    first = mu.mahler
    assert type(first) is tuple and len(first) == 12 and mu.mahler is first


def test_reading_the_other_fields_and_pairing_build_no_series(monkeypatch):
    _, pairs = family_pairs()
    members = [mu for pair in pairs for mu in pair]
    # the identity class has the avatar 1; every other lift is at least order - 1
    lifts = [mu.atoms[0][1].unit for mu in members]
    assert lifts[:2] == [1, 1] and min(lifts[2:]) >= 11
    assert [(mu.order, mu.prime, mu.finite) for mu in members] == [(12, 7, False)] * 6
    assert all(type(mu.atoms) is tuple for mu in members)
    # the call builds no row: order <= p^P is all a row needs to refuse nothing
    assert all(map(unfilled, members)) and [len(mu._mahler[1]) for mu in members] == [0] * 6
    pairing_measure(pairs, 8)
    pairing_measure(pairs, 11)
    # seven pairs at p = 7: the p-adic gate reads the atoms, not `mahler`
    with pytest.raises(InvalidInput, match="class count divisible by p"):
        pairing_measure((pairs * 3)[:7], 8)
    assert all(map(unfilled, members)) and [len(mu._mahler[1]) for mu in members] == [0] * 6
    calls = []
    fields = padic._binomial_fields
    monkeypatch.setattr(padic, "_binomial_fields",
                        lambda *args: calls.append(args) or fields(*args))
    members[0].mahler  # the first read builds the identity's row
    assert len(calls) == 1 and calls[0][0] == 1 and not unfilled(members[0])
    members[2].mahler
    assert len(calls) == 2 and unfilled(members[3])


def test_two_threads_reading_at_once_build_equal_tuples(monkeypatch):
    # both threads are held inside the build until each has entered it
    barrier, build = threading.Barrier(2, timeout=10), measure._atom_scalars

    def held(*args):
        barrier.wait()
        return build(*args)
    monkeypatch.setattr(measure, "_atom_scalars", held)
    mu = family_pairs()[1][1][0]
    got = [None, None]

    def read(i):
        got[i] = mu.mahler
    threads = [threading.Thread(target=read, args=(i,)) for i in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    assert not any(thread.is_alive() for thread in threads)
    assert got[0] == got[1] and got[0] is not got[1]
    assert any(mu.mahler is tuple_ for tuple_ in got)
    assert mu.mahler is mu.mahler and mu.order == 12


def test_many_threads_reading_a_family_at_once_see_its_filled_fields():
    # five fresh families, each read by eight threads on two vCPUs switching
    # every microsecond, every member by each, starting at different ones; a
    # thread may store its own build over another's, so reads are equal,
    # not one object, until every build is stored
    want = [exactly(mu.mahler) for pair in family_pairs()[1] for mu in pair]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            members = [mu for pair in family_pairs()[1] for mu in pair]
            seen = [None] * 8

            def read(i):
                seen[i] = [exactly(members[(i + k) % 6].mahler) for k in range(6)]
            threads = [threading.Thread(target=read, args=(i,)) for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
            assert seen == [want[i % 6:] + want[:i % 6] for i in range(8)]
            assert all(mu.mahler is mu.mahler for mu in members)
    finally:
        sys.setswitchinterval(interval)


def test_pairing_before_and_after_reading_gives_identical_fields():
    _, pairs = family_pairs()
    paired_first = exactly(pairing_measure(pairs, 11))
    read_after = [exactly(mu) for pair in pairs for mu in pair]
    _, pairs = family_pairs()
    read_first = [exactly(mu) for pair in pairs for mu in pair]
    assert read_first == read_after
    assert exactly(pairing_measure(pairs, 11)) == paired_first


# -- every transform is a function of its arguments' fields ------------------

REBUILDS = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda value: pickle.loads(pickle.dumps(value)),
    "fields": lambda value: type(value)._from_fields(*value._fields()),
}


def outcome(fn, *args):
    """`exactly` of fn(*args), or the exception type and message."""
    try:
        return exactly(fn(*args))
    except Exception as exc:
        return type(exc), str(exc)


def transforms(value) -> dict:
    """The library's transforms of one value, by its class; a measure is
    paired with itself, and r is its last stored index."""
    if type(value) is Measure:
        r = value.order - 1
        return {"pairing_measure": lambda mu: pairing_measure([(mu, mu)], r),
                "mult_pushforward": lambda mu: mult_pushforward(mu, mu, r),
                "restrict_to_units": lambda mu: restrict_to_units(mu, 1),
                "cell_mass": lambda mu: cell_mass(mu, 1, 1, 1),
                "integrate_step": lambda mu: integrate_step(mu, range(mu.prime), 1),
                "moments": lambda mu: moments(mu, r),
                "plus_basis": plus_basis}
    if type(value) is PadicScalar:
        return {"+": lambda x: x + 1, "*": lambda x: x * x, "/": lambda x: 2 / x,
                "lift": PadicScalar.lift}
    if type(value) is QExpansion:
        return {"U": lambda f: u_operator(f, 2), "V": lambda f: v_operator(f, 3),
                "deplete": lambda f: p_deplete(f, 5)}
    if type(value) is WeightFunction:
        return {"pairing": lambda chi: pairing(chi, chi),
                "twisted": lambda chi: twisted_pairing(chi, chi, chi)}
    return {}


def assert_rebuilds_compute_as(value):
    want = {name: outcome(fn, value) for name, fn in transforms(value).items()}
    for how, rebuild in REBUILDS.items():
        other = rebuild(value)
        got = {name: outcome(fn, other) for name, fn in transforms(other).items()}
        assert got == want, (how, value)


@pytest.mark.parametrize("name", [name for name in VALUES if name.split()[0] in (
    "Measure", "PadicScalar", "QExpansion", "WeightFunction")])
def test_rebuilt_values_compute_as_the_originals(name):
    assert_rebuilds_compute_as(VALUES[name]())


def test_rebuilt_seeded_measures_compute_as_the_originals():
    # the precision oracle's exact finite measures and their truncations
    for p, mu, precisions in generate(count=40):
        assert_rebuilds_compute_as(mu)
        assert_rebuilds_compute_as(truncated(mu, precisions))


def test_rebuilt_family_members_compute_as_the_originals():
    """Each family of `paper_oracles.family_cases` paired with itself at
    r_max = order - 1 and 8, rebuilt member by member, and the transforms of
    each member (FOUND 80: copies once lost their atoms and paired
    otherwise).  About 3 s on two shared vCPUs."""
    families = 0
    for chi0, chi, emb, order in family_cases():
        try:
            family = avatar_measure_family(chi0, chi, emb, order)
        except (InvalidInput, PrecisionExhausted):
            continue
        r_maxes = sorted({order - 1, min(order - 1, 8)})
        want = [outcome(pairing_measure, list(zip(family, family)), r) for r in r_maxes]
        for how, rebuild in REBUILDS.items():
            copies = [rebuild(mu) for mu in family]
            got = [outcome(pairing_measure, list(zip(copies, copies)), r) for r in r_maxes]
            assert got == want, (how, chi0, chi, emb, order)
        assert_rebuilds_compute_as(family[0])
        families += 1
    assert families > 250


def test_found_80_copies_and_scalings_by_one_pair_as_the_originals():
    # two families at D = -3, p = 5, embedding precision 5, order 48: their
    # copies and `.scale(1)` members once refused ("zero known to no
    # precision") the pairing that the originals give
    G = class_group(-3)
    chars = characters(G)
    emb = admissible_embedding(G, 5, 5)
    families = (avatar_measure_family(chars[0], chars[0], emb, 48),
                avatar_measure_family(chars[0], chars[-1].inverse(), emb, 48))
    want = exactly(pairing_measure(list(zip(*families)), 47))
    assert len(want[1][1]) == 48
    for rebuild in (*REBUILDS.values(), lambda mu: mu.scale(1)):
        copies = ([rebuild(mu) for mu in family] for family in families)
        assert exactly(pairing_measure(list(zip(*copies)), 47)) == want


# -- the JSON round trip -------------------------------------------------------

def no_more_precise(got, want, p: int) -> bool:
    """got agrees with want mod the lesser precision and is known to no more:
    measures field by field, lists entry by entry, an exact value as known
    to INF."""
    if type(want) is Measure:
        return type(got) is Measure and (got.prime, got.finite) == (want.prime, want.finite) \
            and no_more_precise(got.mahler, want.mahler, p)
    if type(want) in (tuple, list):
        return type(got) is type(want) and len(got) == len(want) and all(
            no_more_precise(x, y, p) for x, y in zip(got, want))
    N, M = (x.precision if type(x) is PadicScalar else INF for x in (got, want))
    diff = Fraction(got.lift() if type(got) is PadicScalar else got) \
        - Fraction(want.lift() if type(want) is PadicScalar else want)
    return N <= M and (diff == 0 or N is not INF and diff.numerator % p ** N == 0)


def attempt(fn, value):
    try:
        return fn(value)
    except (InvalidInput, PrecisionExhausted) as exc:
        return exc


def test_json_round_trips_agree_and_are_never_more_precise():
    """`decode_measure(encode_measure(mu))` over the measures of VALUES, 40
    of the precision oracle's seeded measures and their truncations, and
    filled and unfilled avatar family members: the coefficients and each
    transform's result agree with the original's mod the lesser precision,
    the decoded side never known to more.  A refusal is the same refusal;
    only a measure with atoms, which the format does not carry, may be
    refused where the original is not (it then pairs through moments, as
    `mahler measure pair` reads it).  About 2 s on two shared vCPUs."""
    corpus = [make() for name, make in VALUES.items() if name.split()[0] == "Measure"]
    for _, mu, precisions in generate(count=40):
        corpus += [mu, truncated(mu, precisions)]
    _, pairs = family_pairs()
    filled = [mu for pair in pairs for mu in pair]
    for mu in filled:
        mu.mahler
    corpus += filled
    for chi0, chi, emb, order in list(family_cases())[::10]:
        try:
            corpus += avatar_measure_family(chi0, chi, emb, order)
        except (InvalidInput, PrecisionExhausted):
            continue
    unbuilt = 0
    for mu in corpus:
        was_unfilled = unfilled(mu)
        encoded = encode_measure(mu)
        if was_unfilled:
            unbuilt += 1
            twin = type(mu)._from_fields(*mu._fields())
            assert json.dumps(encode_measure(twin)) == json.dumps(encoded)
        decoded = decode_measure(json.loads(json.dumps(encoded)))
        # the format carries no atoms, and `==` compares them
        assert decoded == Measure._from_fields(*mu._fields()[:3], None)
        assert (decoded == mu) is (mu.atoms is None) and no_more_precise(decoded, mu, mu.prime)
        for name, fn in transforms(mu).items():
            want, got = attempt(fn, mu), attempt(fn, decoded)
            if isinstance(want, Exception):
                assert (type(got), str(got)) == (type(want), str(want)), (name, mu)
            elif isinstance(got, Exception):
                assert mu.atoms is not None, (name, mu)
            else:
                assert no_more_precise(got, want, mu.prime), (name, mu)
    assert len(corpus) > 150 and unbuilt > 100 and not any(map(unfilled, corpus))


def test_equal_measures_give_equal_outputs():
    """For every two family lists X == Y among avatar families, their
    members scaled by an int or a Fraction, copies, atom-less rebuilds
    through `Measure` and JSON round trips: `pairing_measure` of the pairs
    (x, x), and `restrict_to_units`, `cell_mass` and `integrate_step` of
    the first members, around their tail bounds, refuse both with the same
    type and message or give outputs that compare ==.  A rebuild has no
    atoms, so it pairs, restricts and takes cells through its coefficients,
    and it is not equal to the member: its moment route refuses pairings
    that the atoms give.  About 1 s on two shared vCPUs."""
    def rebuilt(family):
        return [Measure(*mu._fields()[:3]) for mu in family]

    def round_trip(family):
        return [decode_measure(json.loads(json.dumps(encode_measure(mu)))) for mu in family]

    def outputs(family, cells):
        p, order = family[0].prime, family[0].order
        best = (order - 1) // (p - 1) - 1
        calls = {("pair", r): lambda r=r: pairing_measure([(mu, mu) for mu in family], r)
                 for r in {order - 1, min(8, order - 1)}}
        for i, mu in enumerate(family[:2]):
            for t in {1, best, best + 1} - {0}:
                calls["restrict", i, t] = lambda mu=mu, t=t: restrict_to_units(mu, t)
            for nu in (1, 2):
                bound = measure.cell_tail_valuation(order, nu, p)
                for a in (cells[i] % p ** nu, (cells[i] + 1) % p ** nu):
                    for t in {1, bound, bound + 1} - {0}:
                        calls["cell", i, nu, a, t] = \
                            lambda mu=mu, a=a, nu=nu, t=t: cell_mass(mu, a, nu, t)
                phi = [Fraction(a - 1, 2) for a in range(p ** nu)]
                calls["step", i, nu] = lambda mu=mu, phi=phi, t=bound: integrate_step(mu, phi, t)
        return {key: attempt(lambda call: call(), call) for key, call in calls.items()}

    compared = unequal = 0
    for chi0, chi, emb, order in list(family_cases())[::5]:
        try:
            family = avatar_measure_family(chi0, chi, emb, order)
        except (InvalidInput, PrecisionExhausted):
            continue
        cells = [mu.atoms[0][1].lift() for mu in family]
        scaled = [mu.scale(Fraction(emb.prime, 2) if order % 3 else 3) for mu in family]
        lists = [family, [copy.copy(mu) for mu in family], rebuilt(family),
                 round_trip(family), scaled, rebuilt(scaled), round_trip(scaled)]
        results = [outputs(xs, cells) for xs in lists]
        for i, x in enumerate(lists):
            for j in range(i + 1, len(lists)):
                if x != lists[j]:
                    unequal += 1
                    continue
                compared += 1
                for key, want in results[i].items():
                    got = results[j][key]
                    if isinstance(want, Exception) or isinstance(got, Exception):
                        assert (type(got), str(got)) == (type(want), str(want)), (key, chi0, emb)
                    else:
                        assert got == want, (key, chi0, emb)
    assert compared > 120 and unequal > 600
