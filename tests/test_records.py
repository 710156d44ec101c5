"""The package's record classes: immutable, equal field by field within
their class, hashed like the tuple of their fields, and shown by the repr
the reports and tests have always read."""

from types import SimpleNamespace

import pytest

from braidmf.bmf import Block, BmfFactor, BmfFactorization, Counts, SurfaceParams
from braidmf.f2sym import CrossSpace, F2BilinearForm, F2Quadratic
from braidmf.hurwitz import SearchResult
from braidmf.perm import Perm, Record
from braidmf.s4orbit import TauFactorization

PLANE = F2BilinearForm(2, (2, 1))
FACTOR = BmfFactor(("c", 1, 2), 1, ((("p", 1), -2),))
COUNTS = tuple(range(14))
T12 = Perm.transposition(1, 2, 4)

# class, field names, field values, values that differ in one field, the
# repr of the instance with the first values
RECORDS = [
    (
        SurfaceParams,
        "a b c d",
        (1, 2, 2, 1),
        (1, 2, 2, 2),
        "SurfaceParams(a=1, b=2, c=2, d=1)",
    ),
    (
        Counts,
        "m k nu t_f t_g t gR chi K2 r dim_lower dim_upper weighted_p weighted_q",
        COUNTS,
        COUNTS[:-1] + (14,),
        "Counts(m=0, k=1, nu=2, t_f=3, t_g=4, t=5, gR=6, chi=7, K2=8, r=9, "
        "dim_lower=10, dim_upper=11, weighted_p=12, weighted_q=13)",
    ),
    (
        BmfFactor,
        "twist exponent conjugator",
        (("c", 1, 2), 1, ((("p", 1), -2),)),
        (("c", 1, 2), 1, ()),
        "BmfFactor(twist=('c', 1, 2), exponent=1, conjugator=((('p', 1), -2),))",
    ),
    (
        Block,
        "kind rep factors",
        ("beta_f", 1, (FACTOR,)),
        ("beta_f", 2, (FACTOR,)),
        "Block(kind='beta_f', rep=1, factors=(BmfFactor(twist=('c', 1, 2), "
        "exponent=1, conjugator=((('p', 1), -2),)),))",
    ),
    (
        BmfFactorization,
        "params blocks",
        (SurfaceParams(1, 1, 1, 1), ()),
        (SurfaceParams(1, 1, 1, 2), ()),
        "BmfFactorization(params=SurfaceParams(a=1, b=1, c=1, d=1), blocks=())",
    ),
    (
        F2BilinearForm,
        "dim gram",
        (2, (2, 1)),
        (0, ()),
        "F2BilinearForm(dim=2, gram=(2, 1))",
    ),
    (
        F2Quadratic,
        "form basis_values",
        (PLANE, (0, 1)),
        (PLANE, (1, 1)),
        "F2Quadratic(form=F2BilinearForm(dim=2, gram=(2, 1)), basis_values=(0, 1))",
    ),
    (
        CrossSpace,
        "a c labels form",
        (2, 2, ("s", "a1"), PLANE),
        (2, 2, ("a1", "s"), PLANE),
        "CrossSpace(a=2, c=2, labels=('s', 'a1'), "
        "form=F2BilinearForm(dim=2, gram=(2, 1)))",
    ),
    (
        SearchResult,
        "found moves visited depth_reached",
        (True, [1, -2], 3, 1),
        (True, [1, 2], 3, 1),
        "SearchResult(found=True, moves=[1, -2], visited=3, depth_reached=1)",
    ),
    (
        TauFactorization,
        "b d factors",
        (1, 1, (T12,) * 8),
        (1, 1, (T12,) * 7 + (Perm.transposition(3, 4, 4),)),
        "TauFactorization(b=1, d=1, factors=("
        + ", ".join(["<(1 2) deg=4>"] * 8)
        + "))",
    ),
]

IDS = [cls.__name__ for cls, *_ in RECORDS]


def test_every_record_class_is_checked():
    # the four modules that define records are imported above
    assert sorted(cls.__name__ for cls in Record.__subclasses__()) == sorted(IDS)


@pytest.mark.parametrize("cls, names, values, changed, text", RECORDS, ids=IDS)
def test_record_fields_equality_and_repr(cls, names, values, changed, text):
    names = names.split()
    x = cls(*values)
    assert [getattr(x, n) for n in names] == list(values)
    assert repr(x) == text
    # equal to a record built again from equal values, even if the
    # containers are other objects
    twin = cls(*(v.copy() if isinstance(v, list) else v for v in values))
    assert x == twin and not x != twin
    # a different class holding the same fields is not equal
    other = SimpleNamespace(**dict(zip(names, values)))
    assert x != other and other != x
    assert x != values
    # one field changed makes it unequal
    assert x != cls(*changed) and not x == cls(*changed)


@pytest.mark.parametrize("cls, names, values, changed, text", RECORDS, ids=IDS)
def test_record_is_immutable(cls, names, values, changed, text):
    x = cls(*values)
    for name in (names.split()[0], "extra"):
        with pytest.raises(AttributeError):
            setattr(x, name, values[0])
        with pytest.raises(AttributeError):
            delattr(x, name)
    assert repr(x) == text


@pytest.mark.parametrize("cls, names, values, changed, text", RECORDS, ids=IDS)
def test_record_hash_is_the_hash_of_its_fields(cls, names, values, changed, text):
    x = cls(*values)
    if cls is SearchResult:  # it holds a list
        with pytest.raises(TypeError):
            hash(x)
        return
    # the tuple's hash, so sets and dicts of records keep their order
    assert hash(x) == hash(cls(*values)) == hash(tuple(values))
    assert len({x, cls(*values)}) == 1
    assert len({x, cls(*changed)}) == 2


# the records whose fields Record.__init__ sets
SHARED_INIT = [r for r in RECORDS if r[0] not in (BmfFactor, Block)]


@pytest.mark.parametrize(
    "cls, names, values, changed, text",
    SHARED_INIT,
    ids=[cls.__name__ for cls, *_ in SHARED_INIT],
)
def test_record_init_takes_one_value_per_field(cls, names, values, changed, text):
    # a TypeError, not the ValueError that the CLI reads as bad input
    for wrong in (values[:-1], (*values, values[-1])):
        with pytest.raises(TypeError):
            cls(*wrong)


def test_vars_gives_the_fields_in_order():
    p = SurfaceParams(3, 1, 4, 1)
    assert list(vars(p).items()) == [("a", 3), ("b", 1), ("c", 4), ("d", 1)]
    names = RECORDS[1][1].split()
    assert list(vars(Counts(*COUNTS)).items()) == list(zip(names, COUNTS))
