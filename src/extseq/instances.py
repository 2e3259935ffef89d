"""The named spaces the package builds on: the naturals, the convergent
sequence and the one-point spaces of the presheaf site (`sheaves`) and the
sigma and gluing suites.  The tests' own named spaces live with the tests."""

from __future__ import annotations

from .exteriority import ExtSpace, cocompact_ext_space, make_ext_space
from .spaces import Space, validate_space

NAT_TAIL = "n"


def point_space(name: str = "pt") -> Space:
    return validate_space((name,), {name: (name,)})


def nat_space() -> Space:
    """The discrete naturals: one unattached tail, no finite points."""
    return validate_space((), {}, (NAT_TAIL,), {NAT_TAIL: ()})


def nat_plus_space() -> Space:
    """The convergent sequence: one tail attached to its limit point, inf."""
    return validate_space(("inf",), {"inf": ("inf",)}, (NAT_TAIL,), {NAT_TAIL: ("inf",)})


def nat_cofinite() -> ExtSpace:
    """Discrete naturals with the cofinite externology."""
    return cocompact_ext_space(nat_space())


def discrete_point() -> ExtSpace:
    space = point_space()
    return make_ext_space(space)
