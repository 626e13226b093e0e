"""Random characters for the tests: a uniform draw of the unit-part angles
on the generators of (O_K/pi^n)^x, then t = e(k/12), from one ``random.Random``;
and the reference unit angle of a character, read off a dlog and its weights."""

from fractions import Fraction

from asailocal.characters import MultChar, Phase
from asailocal.unitgroups import unit_group


def rand_char(K, n, rng):
    G = unit_group(K, n)
    angles = [Fraction(rng.randrange(d), d) for d in G.orders]
    return MultChar.from_angles(K, n, angles, Phase.exact(Fraction(rng.randrange(12), 12)))


def unit_angle(chi, u) -> Fraction:
    """The angle in [0, 1) of chi's unit part at the unit u: the dlog of u
    in chi's group against chi's weights, with no evaluator of chi."""
    if chi.n == 0:
        return Fraction(0)
    num = sum(e * w for e, w in zip(chi.group.dlog(u), chi.unit_weights))
    return Fraction(num, chi.unit_den) % 1
