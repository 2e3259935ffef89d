"""The handful of named spaces used by fixtures, docs and tests."""

from __future__ import annotations

from .exteriority import ExtSpace, cocompact_ext_space, make_ext_space
from .spaces import Space, validate_space

NAT_TAIL = "n"


def empty_space() -> Space:
    return validate_space((), {})


def point_space(name: str = "pt") -> Space:
    return validate_space((name,), {name: (name,)})


def sierpinski_space() -> Space:
    """Two points; {1} open, {0} closed."""
    return validate_space(("0", "1"), {"0": ("0", "1"), "1": ("1",)})


def nat_space() -> Space:
    """The discrete naturals: one unattached tail, no finite points."""
    return validate_space((), {}, (NAT_TAIL,), {NAT_TAIL: ()})


def nat_plus_space() -> Space:
    """The convergent sequence: one tail attached to its limit point, inf."""
    return validate_space(("inf",), {"inf": ("inf",)}, (NAT_TAIL,), {NAT_TAIL: ("inf",)})


def mixed_space() -> Space:
    """One finite point, one tail converging to it, one escaping tail."""
    return validate_space(("v",), {"v": ("v",)}, ("t1", "t2"), {"t1": ("v",), "t2": ()})


def nat_cofinite() -> ExtSpace:
    """Discrete naturals with the cofinite externology."""
    return cocompact_ext_space(nat_space())


def indiscrete_point() -> ExtSpace:
    """One point whose only filter member is the whole space."""
    space = point_space()
    return make_ext_space(space, limits=space.points)


def discrete_point() -> ExtSpace:
    space = point_space()
    return make_ext_space(space)
