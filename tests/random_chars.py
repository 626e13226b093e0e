"""Random characters for the tests: a uniform draw of the unit-part angles
on the generators of (O_K/pi^n)^x, then t = e(k/12), from one ``random.Random``."""

from fractions import Fraction

from asailocal.characters import MultChar, Phase
from asailocal.unitgroups import unit_group


def rand_char(K, n, rng):
    G = unit_group(K, n)
    angles = [Fraction(rng.randrange(d), d) for d in G.orders]
    return MultChar.from_angles(K, n, angles, Phase.exact(Fraction(rng.randrange(12), 12)))
