"""Decidable Boolean algebra of finitely presented subsets of a tail-space universe.

A universe consists of finitely many named finite points plus finitely many
tails, each tail a disjoint copy of the naturals.  A subset is presented by
its finite part together with, per tail, an eventual flag and a finite flip
set; the tail point (t, m) belongs iff eventual(t) XOR (m in flips(t)).
Subsets whose trace on some tail is neither finite nor cofinite are not
representable, which keeps every operation total and exact.

The algebra is exact in closed form.  On a tail, the flips of a cofinite
trace are its non-members and the flips of a finite trace are its members,
so each pair of eventual flags (ea, eb) fixes one set operation on the flip
sets (fa, fb):

    (ea, eb)               union      intersection
    cofinite, cofinite     fa & fb    fa | fb
    cofinite, finite       fa - fb    fb - fa
    finite,   cofinite     fb - fa    fa - fb
    finite,   finite       fa | fb    fa & fb

The result is cofinite iff ea or eb (union), ea and eb (intersection).  The
complement negates every eventual flag and keeps the flips.

A side with no flips is empty or full on that tail, so its flag alone fixes
the result's flips, and the operation builds no set there:

    one side               union                   intersection
    finite, no flips       the other side's flips  none
    cofinite, no flips     none                    the other side's flips

Likewise an empty finite part, or two equal ones, is already the canonical
result's.  Every result is a new EvSet; it shares only immutable tuples
with its operands.  A universe check reads `x is not y and x != y`: most
operands share one Universe, and identity costs about 20 ns where the
dataclass `!=` costs about 200 ns (CPython 3.11, an x86-64 Xeon core).

Every frozen value type of the package is declared through `value`, which
makes it a frozen, slotted dataclass and installs an `__init__` that
writes each field with its slot's own `__set__`, where a frozen
dataclass's generated `__init__` calls `object.__setattr__` per field.
The setters are bound once per class, in the closure of that `__init__`,
and nothing else calls them.  A `TailPoint(...)` then costs about 270 ns
against 440 ns, and a `SetProps(...)` 580 ns against 990 ns (the same
core).  Equality, hashing, repr, `__match_args__`, `replace`, pickling and
copying stay the dataclass's own; nothing is cached or interned.
"""

from __future__ import annotations

import inspect
from dataclasses import MISSING, dataclass, fields
from typing import Iterable, Mapping, TypeVar

from .errors import PresentationError, UniverseMismatch

_T = TypeVar("_T", bound=type)


def value(cls: _T) -> _T:
    """`cls` as a frozen dataclass whose `__init__` writes each field
    through its slot's own setter.

    The class gets `slots=True` unless it declares its own `__slots__`: the
    fields, then slots that are not fields, which `__init__` starts at
    None, so a reader tests for None rather than catching an
    AttributeError.  A class that defines `_check` has it called with the
    field values, in field order, before any field is written.  The
    dataclass generates no `__init__` of its own (`init=False`); the one
    installed here is compiled once per class, with the setters, the
    defaults and `_check` bound as closure cells.
    """
    # A class with no docstring gets the dataclass's, its name and
    # signature, written below: `dataclass` would read the signature with
    # `inspect` off the `__init__` of `object`, which costs more than the
    # rest of the class's set-up.
    doc = cls.__doc__
    cls.__doc__ = doc or cls.__name__
    cls = dataclass(frozen=True, init=False, slots="__slots__" not in cls.__dict__)(cls)
    names = [f.name for f in fields(cls)]
    cells: dict = {}
    params, signature = [], []
    for f in fields(cls):
        shown = f"{f.name}: {inspect.formatannotation(f.type)}"
        if f.default is MISSING:
            params.append(f.name)
        else:
            cells[f"_default_{f.name}"] = f.default
            params.append(f"{f.name}=_default_{f.name}")
            shown += f" = {f.default!r}"
        signature.append(shown)
    if not doc:
        cls.__doc__ = f"{cls.__name__}({', '.join(signature)})"
    body = []
    check = getattr(cls, "_check", None)
    if check is not None:
        cells["_check"] = check
        body.append(f"_check({', '.join(names)})")
    for slot in cls.__slots__:
        cells[f"_set_{slot}"] = getattr(cls, slot).__set__
        body.append(f"_set_{slot}(self, {slot if slot in names else None})")
    source = (
        f"def _make_init({', '.join(cells)}):\n"
        f" def __init__(self, {', '.join(params)}):\n"
        + "".join(f"  {line}\n" for line in body)
        + " return __init__\n"
    )
    scope: dict = {}
    exec(source, {}, scope)
    init = scope["_make_init"](**cells)
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__module__ = cls.__module__
    cls.__init__ = init
    return cls


@value
class FinitePoint:
    """A named point of the finite part."""

    id: str

    def __repr__(self) -> str:
        return f"pt({self.id})"


@value
class TailPoint:
    """The index-th point of the named tail."""

    tail: str
    index: int

    def __repr__(self) -> str:
        return f"tp({self.tail},{self.index})"


PointRef = FinitePoint | TailPoint


@value
class Universe:
    points: tuple[str, ...]
    tails: tuple[str, ...]

    def has_point(self, x: str) -> bool:
        return x in self.points

    def has_tail(self, t: str) -> bool:
        return t in self.tails

    def check_ref(self, p: PointRef, path: tuple = ()) -> None:
        """Refuse a reference to no point here; `path` names its field."""
        if isinstance(p, FinitePoint):
            if not self.has_point(p.id):
                raise PresentationError(f"unknown finite point {p.id!r}", path)
        elif isinstance(p, TailPoint):
            if not self.has_tail(p.tail):
                raise PresentationError(f"unknown tail {p.tail!r}", path)
            if p.index < 0:
                raise PresentationError(f"negative tail index {p.index}", path)
        else:
            raise PresentationError(f"not a point reference: {p!r}", path)


def _checked_names(
    points: Iterable[str], tails: Iterable[str]
) -> tuple[tuple[str, ...], tuple[str, ...], set[str]]:
    """The sorted point and tail names, and the set of point names, once no
    name repeats and no point shares a tail's name.  Set tests decide; only
    on a fault is the offender looked for, the first in sorted order."""
    pts = tuple(sorted(points))
    tls = tuple(sorted(tails))
    known = set(pts)
    if len(known) != len(pts) or len(set(tls)) != len(tls) or not known.isdisjoint(tls):
        for kind, names in (("point", pts), ("tail", tls)):
            for a, b in zip(names, names[1:]):
                if a == b:
                    raise PresentationError(f"repeated {kind} name {a!r}", (kind + "s",))
        clash = sorted(known.intersection(tls))
        raise PresentationError(f"point/tail namespaces overlap: {clash}")
    return pts, tls, known


def make_universe(points: Iterable[str], tails: Iterable[str]) -> Universe:
    pts, tls, _ = _checked_names(points, tails)
    return Universe(pts, tls)


@value
class EvSet:
    """Canonical presentation: finite part sorted, one row per tail, flips sorted.

    The `_masks` slot is not a field: it is None until
    `spaces.CompiledSpace.read` first reads the set, and then holds its
    (finite mask, eventual mask) pair, so equality, hashing, repr and the
    serial forms never see it.  `__init__` starts it at None (`value`), so
    that a first read tests for None rather than catching an
    AttributeError, which costs more than the read itself.  The reader
    writes it through the slot's own setter (`_store_masks`).
    """

    __slots__ = ("universe", "finite", "rows", "_masks")

    universe: Universe
    finite: tuple[str, ...]
    rows: tuple[tuple[str, bool, tuple[int, ...]], ...]

    def is_cofinite_on(self, tail: str) -> bool:
        """True iff all but finitely many points of the tail belong."""
        for t, ev, _ in self.rows:
            if t == tail:
                return ev
        raise PresentationError(f"unknown tail {tail!r}")

    def flips_on(self, tail: str) -> tuple[int, ...]:
        for t, _, fl in self.rows:
            if t == tail:
                return fl
        raise PresentationError(f"unknown tail {tail!r}")

    def member(self, p: PointRef) -> bool:
        self.universe.check_ref(p)
        if isinstance(p, FinitePoint):
            return p.id in self.finite
        return self.is_cofinite_on(p.tail) != (p.index in self.flips_on(p.tail))

    def __reduce__(self):
        # Pickle and copy the fields only; the masks are read again on use.
        return EvSet, (self.universe, self.finite, self.rows)

    def __repr__(self) -> str:
        tails = ", ".join(
            f"{t}:{'cof' if ev else 'fin'}{list(fl) if fl else ''}" for t, ev, fl in self.rows
        )
        return f"EvSet({list(self.finite)}; {tails})"


# The masks slot's own setter: a frozen dataclass refuses setattr, and
# `object.__setattr__` would look the slot up on every store.
_store_masks = EvSet._masks.__set__


def ev_set(
    universe: Universe,
    finite: Iterable[str] = (),
    eventual: Mapping[str, bool] | bool = False,
    flips: Mapping[str, Iterable[int]] | None = None,
) -> EvSet:
    """Build a canonical EvSet; unknown ids and negative indices are
    rejected, under the field names of the JSON form (`finite`, `tails`)."""
    fin = tuple(sorted(set(finite)))
    for x in fin:
        if not universe.has_point(x):
            raise PresentationError(f"unknown finite point {x!r}", ("finite",))
    ev_map: Mapping[str, bool]
    if isinstance(eventual, bool):
        ev_map = {t: eventual for t in universe.tails}
    else:
        ev_map = eventual
        for t in ev_map:
            if not universe.has_tail(t):
                raise PresentationError(f"unknown tail {t!r}", ("tails", t))
    flips = flips or {}
    for t in flips:
        if not universe.has_tail(t):
            raise PresentationError(f"unknown tail {t!r}", ("tails", t))
    rows = []
    for t in universe.tails:
        fl = tuple(sorted(set(flips.get(t, ()))))
        if fl and fl[0] < 0:
            raise PresentationError("flips must be at least 0", ("tails", t, "flips"))
        rows.append((t, bool(ev_map.get(t, False)), fl))
    return EvSet(universe, fin, tuple(rows))


def _check_same_universe(a: EvSet, b: EvSet) -> None:
    if a.universe is not b.universe and a.universe != b.universe:
        raise UniverseMismatch("EvSets over different universes")


def ev_union(a: EvSet, b: EvSet) -> EvSet:
    _check_same_universe(a, b)
    xa, xb = a.finite, b.finite
    if not xb or xa == xb:
        fin = xa
    elif not xa:
        fin = xb
    else:
        fin = tuple(sorted(set(xa).union(xb)))
    rows = []
    for (t, ea, fa), (_, eb, fb) in zip(a.rows, b.rows):
        if not fb:
            fl = () if eb else fa
        elif not fa:
            fl = () if ea else fb
        elif ea:
            fl = tuple(sorted(set(fa).intersection(fb) if eb else set(fa).difference(fb)))
        else:
            fl = tuple(sorted(set(fb).difference(fa) if eb else set(fa).union(fb)))
        rows.append((t, ea or eb, fl))
    return EvSet(a.universe, fin, tuple(rows))


def ev_intersect(a: EvSet, b: EvSet) -> EvSet:
    _check_same_universe(a, b)
    xa, xb = a.finite, b.finite
    if not xa or xa == xb:
        fin = xa
    elif not xb:
        fin = xb
    else:
        fin = tuple(sorted(set(xa).intersection(xb)))
    rows = []
    for (t, ea, fa), (_, eb, fb) in zip(a.rows, b.rows):
        if not fb:
            fl = fa if eb else ()
        elif not fa:
            fl = fb if ea else ()
        elif ea:
            fl = tuple(sorted(set(fa).union(fb) if eb else set(fb).difference(fa)))
        else:
            fl = tuple(sorted(set(fa).difference(fb) if eb else set(fa).intersection(fb)))
        rows.append((t, ea and eb, fl))
    return EvSet(a.universe, fin, tuple(rows))


def ev_complement(a: EvSet) -> EvSet:
    fin = tuple([x for x in a.universe.points if x not in a.finite])
    rows = tuple([(t, not ev, fl) for t, ev, fl in a.rows])
    return EvSet(a.universe, fin, rows)
