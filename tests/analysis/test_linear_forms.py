"""The validator's linear-form fast paths return exactly the merge and sort.

:mod:`repro.analysis.verify` keeps symbolic values as canonical linear
forms ``('lin', terms, const)``: the terms sorted by ``repr``, one per
atom, every coefficient and the constant reduced mod 2**32.  ``ladd``,
``lsub`` and ``lmulc`` skip the merge and the sort where the result is
already known (a constant operand, identical terms in a subtraction,
scaling by 1 or a one-term form), and ``SymState._disjoint`` skips the
subtraction.  Each must return what the plain merge-and-sort below
returns on every canonical input, so no fast path can change a form.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.verify import SymState, ladd, lmulc, lsub
from repro.binary.twos_complement import MASK32


def ref_ladd(a, b):
    acc: dict = {}
    for atom, k in a[1] + b[1]:
        acc[atom] = (acc.get(atom, 0) + k) & MASK32
    terms = tuple(sorted(((at, k) for at, k in acc.items() if k),
                         key=repr))
    return ("lin", terms, (a[2] + b[2]) & MASK32)


def ref_lmulc(a, c):
    c &= MASK32
    if c == 0:
        return ("lin", (), 0)
    terms = tuple(sorted(((at, (k * c) & MASK32) for at, k in a[1]),
                         key=repr))
    return ("lin", terms, (a[2] * c) & MASK32)


def ref_lsub(a, b):
    return ref_ladd(a, ref_lmulc(b, MASK32))


def latom(atom):
    return ("lin", ((atom, 1),), 0)


#: atoms of the shapes the validator builds: block-entry registers,
#: loads (with the writes they may see) and uninterpreted operations
ATOMS = [("reg0", r) for r in ("eax", "ebx", "ecx", "esp", "ebp")] + [
    ("mem", ("lin", ((("reg0", "ebp"), 1),), 4294967288), 4, ()),
    ("mem", ("lin", ((("reg0", "esp"), 1),), 0), 4,
     ((("lin", ((("reg0", "ebx"), 1),), 0), 4, ("lin", (), 7)),)),
    ("imul", latom(("reg0", "eax")), latom(("reg0", "ecx"))),
    ("bit", "andl", latom(("reg0", "ebx")), ("lin", (), 255)),
    ("quot", latom(("reg0", "ecx")), latom(("reg0", "edx")),
     latom(("reg0", "eax"))),
    ("ret_to", 3),
]

#: coefficients and constants: anything mod 2**32, with the edges and
#: the zero a product can leave behind drawn often
WORDS = st.one_of(st.sampled_from([0, 1, 2, 4, 1 << 31, MASK32 - 3,
                                   MASK32]),
                  st.integers(0, MASK32))


@st.composite
def forms(draw):
    coeffs = draw(st.dictionaries(st.sampled_from(ATOMS), WORDS,
                                  max_size=4))
    terms = tuple(sorted(coeffs.items(), key=repr))
    return ("lin", terms, draw(WORDS))


@st.composite
def pairs(draw):
    """Two forms, often sharing atoms or all of their terms."""
    a = draw(forms())
    shape = draw(st.sampled_from(["any", "same-terms", "const"]))
    if shape == "any":
        return a, draw(forms())
    if shape == "same-terms":
        return a, ("lin", a[1], draw(WORDS))
    return a, ("lin", (), draw(WORDS))


@settings(max_examples=400, deadline=None)
@given(pairs(), st.booleans())
def test_ladd_is_the_merge_and_sort(ab, swap):
    a, b = ab[::-1] if swap else ab
    assert ladd(a, b) == ref_ladd(a, b)


@settings(max_examples=400, deadline=None)
@given(pairs(), st.booleans())
def test_lsub_is_the_merge_and_sort(ab, swap):
    a, b = ab[::-1] if swap else ab
    assert lsub(a, b) == ref_lsub(a, b)


@settings(max_examples=400, deadline=None)
@given(forms(), WORDS)
def test_lmulc_is_the_merge_and_sort(a, c):
    assert lmulc(a, c) == ref_lmulc(a, c)


@settings(max_examples=400, deadline=None)
@given(pairs(), st.booleans())
def test_disjoint_reads_the_difference_as_lsub_builds_it(ab, swap):
    a, b = ab[::-1] if swap else ab
    d = ref_lsub(a, b)
    # with no bounds, only a constant difference proves disjointness
    expected = not d[1] and 4 <= d[2] <= MASK32 + 1 - 4
    assert SymState({})._disjoint(a, b) == expected
