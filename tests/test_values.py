"""Value semantics of the immutable records (``padic.Value`` subclasses):
equality by class and fields, the hash of the field tuple, the repr,
refused assignment, keyword construction and the constructor checks."""

import copy
import pickle
from fractions import Fraction

import pytest

from asailocal.arch import CaseDatum, CChar, RChar
from asailocal.asai import AsaiInput, TwistedPair
from asailocal.characters import AddChar, MultChar, psi_to_E, standard_psi
from asailocal.factors import ArchFactor, NonArchFactor
from asailocal.padic import PAdicGround, QuadExtension
from asailocal.tate import ModBox
from asailocal.whittaker import InducedSection

F = PAdicGround(3)
E = QuadExtension(F, "ramified-up")
CHI_F = MultChar.trivial(F)
MU = MultChar.trivial(E)
PSI = standard_psi(F)
PSI_XI = psi_to_E(PSI, E, E.xi())

# class -> (positional args, field names); equal args build equal objects
CASES = {
    PAdicGround: ((5, 9), ("p", "precision")),
    QuadExtension: ((F, "ramified-p"), ("ground", "ext_type")),
    AddChar: ((F, Fraction(1, 3)), ("field", "mult")),
    NonArchFactor: ((3, 2.0 + 0j, 1, ((0.5j, 1, 0j),), ()), ("q", "c", "m", "num", "den")),
    ArchFactor: ((2.0, ((Fraction(1), 0.5 + 0j, 1),), ()), ("c", "gammas", "expos")),
    ModBox: ((1.5 + 0j, Fraction(0), Fraction(1, 3), 2), ("coef", "mult", "center", "level")),
    TwistedPair: ((CHI_F, CHI_F, 0.25), ("mu2", "nu2", "v2")),
    AsaiInput: ((E, MU, MU, PSI, E.xi()), ("E", "mu", "nu", "psi", "xi", "chi", "tau")),
    CChar: ((0.5, 1), ("lam", "n")),
    RChar: ((0.5, 1), ("lam", "m")),
    CaseDatum: (
        (1, (), ((0, 0),), 1.5, 1.5, 1 + 0j),
        ("case_id", "w_terms", "phi", "c_const", "c_dual_const", "eps_rs"),
    ),
    InducedSection: ((E, MU, MU, PSI_XI), ("E", "mu", "nu", "psi_xi")),
}


@pytest.mark.parametrize("cls", CASES, ids=lambda c: c.__name__)
def test_equal_fields_give_equal_objects_hashed_as_the_field_tuple(cls):
    args, names = CASES[cls]
    a, b = cls(*args), cls(*args)
    fields = tuple(getattr(a, name) for name in names)
    assert a == b and a is not b and not a != b
    assert hash(a) == hash(b) == hash(fields)
    assert a.__eq__(fields) is NotImplemented and a != fields
    assert cls(*fields) == a


@pytest.mark.parametrize("cls", CASES, ids=lambda c: c.__name__)
def test_assignment_and_deletion_raise(cls):
    args, names = CASES[cls]
    obj = cls(*args)
    for name in (names[0], "extra"):
        with pytest.raises(AttributeError):
            setattr(obj, name, 0)
    with pytest.raises(AttributeError):
        delattr(obj, names[0])
    assert getattr(obj, names[0]) == getattr(cls(*args), names[0])


def test_no_object_equals_another_class_with_the_same_fields():
    assert CChar(0.5, 1) != RChar(0.5, 1)
    assert RChar(0.5, 1) != CChar(0.5, 1)
    assert CChar(0.5, 1) != (0.5, 1)
    assert ArchFactor(2.0) != NonArchFactor(2.0)
    assert len({CChar(0.5, 1), RChar(0.5, 1)}) == 2


def test_repr_is_the_field_repr():
    assert repr(F) == "PAdicGround(p=3, precision=12)"
    # the invariants p, d, e, f and q stay out of the repr
    assert repr(E) == "QuadExtension(ground=PAdicGround(p=3, precision=12), ext_type='ramified-up')"
    box = ModBox(coef=0.5, mult=0, center=Fraction(1, 3), level=2)
    assert repr(box) == "ModBox(coef=0.5, mult=0, center=Fraction(1, 3), level=2)"


def test_keyword_construction():
    assert ModBox(coef=1.0, mult=0, center=Fraction(1), level=2) == ModBox(1.0, 0, Fraction(1), 2)
    assert ArchFactor(c=3.0) == ArchFactor(3.0, (), ())
    den = ((0.5 + 0j, 1, 0j),)
    assert NonArchFactor(5, den=den) == NonArchFactor(5, 1.0 + 0j, 0, (), den)
    assert NonArchFactor(5, den=den) == NonArchFactor.euler_inverse(5, 0.5)
    assert PAdicGround(5, precision=9) == PAdicGround(5, 9)
    assert QuadExtension(ground=F, ext_type="unramified").d == 2
    assert AddChar(F) == AddChar(F, 1) == PSI


def test_scaling_a_factor_keeps_its_other_fields():
    fac = NonArchFactor(5, 2.0 + 0j, 1, (), ((0.5 + 0j, 1, 0j),))
    assert fac * 3 == NonArchFactor(5, 6.0 + 0j, 1, (), fac.den)
    assert fac / 2 == NonArchFactor(5, 1.0 + 0j, 1, (), fac.den)
    arch = ArchFactor.zeta_R(0.5)
    assert arch * 3 == ArchFactor(3.0 + 0j, arch.gammas, arch.expos)


@pytest.mark.parametrize(
    "build",
    [
        lambda: PAdicGround(9),
        lambda: PAdicGround(2),
        lambda: PAdicGround(5, precision=7),
        lambda: QuadExtension(F, "ramified"),
        lambda: AsaiInput(E, MU, MU, PSI, E.elem(1, 1)),
    ],
    ids=["p=9", "p=2", "precision=7", "unknown-extension", "xi-with-trace"],
)
def test_constructor_checks_raise_value_error(build):
    with pytest.raises(ValueError):
        build()


@pytest.mark.parametrize("cls", [PAdicGround, QuadExtension, AddChar, NonArchFactor, ModBox, CChar])
def test_copy_and_pickle_rebuild_an_equal_object(cls):
    obj = cls(*CASES[cls][0])
    assert copy.copy(obj) == copy.deepcopy(obj) == pickle.loads(pickle.dumps(obj)) == obj


def test_invariants_and_chi_ratio_are_set_on_construction():
    assert (E.p, E.d, E.e, E.f, E.q) == (3, 6, 2, 1, 3)
    sec = InducedSection(*CASES[InducedSection][0])
    assert sec.chi_ratio.n == 0 and sec.chi_ratio.field is E
