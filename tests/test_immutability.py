"""Every value is immutable: no field of a value class can be assigned or
deleted, and no container a value holds can be changed in place.  Every value
and record class follows the one protocol of `Frozen`: equal when its fields
are, unhashable unless it is a record, printed as its fields unless its class
prints a shorter form, and copied, deep-copied and pickled by rebuilding it
from its fields, a read-only map as a read-only map."""

import copy
import pickle
import sys
from collections import Counter
from fractions import Fraction
from types import MappingProxyType

import pytest

from mahler.archimedean import LocalFactorParams, PiPolynomial
from mahler.errors import Frozen
from mahler.heckechar import (AlgebraicValue, PadicEmbedding, QuadOrder,
                              WeightFunction, admissible_embedding,
                              avatar_measure_family, characters, class_group,
                              smallest_admissible_prime)
from mahler.measure import Measure, dirac, pairing_measure, restrict_to_units
from mahler.modform import (DirichletCharacter, NearlyHolomorphic, QExpansion,
                            delta_qexpansion, p_deplete, u_operator, v_operator)
from mahler.padic import PadicScalar, TruncatedSeries, binomial_series, factorial_valuation
from mahler.quaternion import HashimotoData, MatrixEmbedding, QuaternionAlgebra

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
    "QuaternionAlgebra": lambda: QuaternionAlgebra(-1, -3),
    "HashimotoData": lambda: HashimotoData(6, 5, 3),
    "MatrixEmbedding": lambda: MatrixEmbedding(((0, 1), (-4, 0)), 2),
    "LocalFactorParams": lambda: LocalFactorParams(1, 1, 1, 0.25),
}

ALL = {**VALUES, **RECORDS}


@pytest.mark.parametrize("name", list(ALL))
def test_fields_refuse_assignment_and_deletion(name):
    value = ALL[name]()
    assert type(value).__name__ == name
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
    avatar pipeline, a Dirac measure at a family coefficient, and U, V and
    depletion of Delta, only
    `mahler_from_moments` enters `Measure.__init__` and nothing enters the
    `TruncatedSeries` or `QExpansion` constructors; a class group's
    `QuadOrder` is built from the parts of its discriminant.  Each value so
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
        dirac(fam1[-1].mahler[1], p, 48)
    delta = delta_qexpansion(30)
    for operator, p in ((u_operator, 2), (v_operator, 3), (p_deplete, 5)):
        operator(delta, p)

    assert set(entered) == {("Measure", "mahler_from_moments")}
    assert {type(value) for value in built} \
        == {Measure, TruncatedSeries, QExpansion, WeightFunction, QuadOrder}
    monkeypatch.undo()
    for value in built:
        assert exactly(type(value)(*value._fields())) == exactly(value)
