"""Every value is immutable: no field of a value class can be assigned or
deleted, and no container a value holds can be changed in place."""

import dataclasses

import pytest

from mahler.archimedean import LocalFactorParams, PiPolynomial
from mahler.errors import Frozen
from mahler.heckechar import (AlgebraicValue, PadicEmbedding, QuadOrder, characters,
                              class_group)
from mahler.measure import dirac
from mahler.modform import (DirichletCharacter, NearlyHolomorphic,
                            delta_qexpansion)
from mahler.padic import PadicScalar, binomial_series
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


def fields(value):
    if dataclasses.is_dataclass(value):
        return [f.name for f in dataclasses.fields(value)]
    return list(type(value).__slots__)


@pytest.mark.parametrize("name", list(VALUES) + list(RECORDS))
def test_fields_refuse_assignment_and_deletion(name):
    value = {**VALUES, **RECORDS}[name]()
    assert type(value).__name__ == name
    assert isinstance(value, Frozen) == (name in VALUES)
    before = {field: getattr(value, field) for field in fields(value)}
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
}


@pytest.mark.parametrize("name", list(CONTAINERS))
def test_containers_refuse_change_in_place(name):
    make, field, key, item = CONTAINERS[name]
    value = make()
    container = getattr(value, field)
    with pytest.raises(TypeError):
        container[key] = item
    assert container == getattr(make(), field)
