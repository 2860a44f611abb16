"""Transmission-zero counts against exact rational arithmetic.

:func:`oracles.exact_root_count` decides the identically-zero verdict
and the number of finite, nonzero w-roots of a document exactly, since
every float is a rational.  :func:`phzero.scan_zeros` must agree on
documents whose exact problem is the intended one: the corpus, the
criterion-6 members that plant no relation in rounded floats, and
integer series chains.  The cases it gets wrong at this tree list
spurious roots near w = 0 and are strict xfails.
"""

import numpy as np
import pytest

from phzero import MultiSpeedSystem, load_system, reflect_positive, scan_zeros, split_commensurate

from conftest import CORPUS_DIR, criterion_6_ensemble
from ensembles import random_siso_system, series_chain
from oracles import exact_root_count

SPURIOUS = pytest.mark.xfail(strict=True, reason="spurious roots at w≈0 (ROADMAP items 1/3)")

KNOWN_WRONG = {"criterion-6-135", "criterion-6-147",
               "chain-9", "chain-32", "chain-33", "chain-35"}


def chain_parts(seed: int):
    """2 or 3 sparse integer SISO systems of order 2 to 4, to be put in
    series."""
    rng = np.random.default_rng([4242, seed])
    count = int(rng.integers(2, 4))
    return [random_siso_system(rng, n=int(rng.integers(2, 5)), sparse=True)
            for _ in range(count)]


def exact_cases():
    for path in sorted(CORPUS_DIR.glob("*.json")):
        system = load_system(path)
        if isinstance(system, MultiSpeedSystem):
            system = split_commensurate(reflect_positive(system))
        yield path.stem, system
    for i, system in enumerate(criterion_6_ensemble()):
        # the odd dense members plant Ky = c K0 in floats, so rounding
        # changes their exact problem
        if i % 2 == 0 or i % 3 == 0:
            yield f"criterion-6-{i}", system
    for seed in range(40):
        yield f"chain-{seed}", series_chain(chain_parts(seed))


@pytest.mark.parametrize("system", [
    pytest.param(system, id=name, marks=SPURIOUS if name in KNOWN_WRONG else ())
    for name, system in exact_cases()
])
def test_scan_zeros_matches_exact_count(system):
    scan = scan_zeros(system)
    exact = exact_root_count(system)
    assert scan.identically_zero == (exact is None)
    if exact is not None:
        assert len(scan.w_roots) == exact


def test_exact_count_of_a_chain_is_the_sum_of_its_parts():
    """The oracle on its own: a chain's transfer function is the product
    of its parts', so it vanishes identically iff a part's does, and
    otherwise its zeros are theirs."""
    for seed in range(40):
        parts = [exact_root_count(part) for part in chain_parts(seed)]
        chain = exact_root_count(series_chain(chain_parts(seed)))
        assert chain == (None if None in parts else sum(parts)), f"seed {seed}"
