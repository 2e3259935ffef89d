"""The named property suites: each verified statement as a deterministic case stream.

A suite maps (seed, samples, budget) to a reproducible sequence of cases.
A case passes when its predicate returns exactly True and fails
otherwise, also when the predicate raises; the report counts both and
serializes a re-runnable witness for every failure, with the error of a
predicate that raised.  An error raised by a suite body (a draw or a
fixture build) is a fault of the generator, not a case, and propagates.
Instance scale follows the defaults: 200 generated instances per suite
(20 for the gluing suite), with per-instance sampling derived from the
samples parameter (sequences = samples/4, maps = samples/10, sets =
samples/2); statements about all sets of a space are checked on every
set shape (CompiledSpace.shapes).

Every decider is exact, so no case is undecided: the report's `unknown`
count is always 0, and the budget is only recorded.  Both stay in the
report, and budget in the suite signature, so that recorded reports keep
their shape.

Each statement is one predicate function, registered in PREDICATES under
its name with the kinds of its arguments (see serial.args_from_json).
Every case goes through `_check`, the only place a suite calls a
predicate: it decides the case and, when it fails, writes the witness
(`_witness`); recheck_witness decodes a witness's arguments and calls the
same function.  Fixtures take no arguments and rebuild their own
instance.  Every registered predicate checks a statement of the theory:
SUITES and PREDICATES hold no deliberately wrong decider.  The tests
exercise the failure path by registering one of their own for the length
of a test.

run_suites is the one runner.  A call draws each instance base (the
spaces and externologies of a (seed, count, profile) stream) once and
shares it between the suites that read it: a stream with maps extends
the shared base on its instances' rngs, rebuilt where the base draw
left them (`generate._rng_after`, from the words each base draw took),
so every extension is the stream generate_instances draws and the
spaces are the base's own objects.  The sequence suites read the base
itself (`_base`) and make an instance's sequence draws on such a
rebuilt rng (`_seq_draws`), so they are the draws of the sequences
generate_instances gives it.  A suite run alone (run_suites([name],
...)) draws its bases afresh, with the same report.  A suite's wall_ms
therefore includes generating only the bases it is the first to ask
for, and its own extensions and draws.
Presentations are validated where they enter (the generator, the named
instances, parsed files); the spaces, sequences and maps derived from
them are not validated again.  The memos are `_bases` and `_streams`
(the extended stream asked for last), held for one run_suites call; a
space holds its one-point compactification itself
(`CompiledSpace.plus`).

The set statements are decided on the (finite, eventual) masks of the
parent space's CompiledSpace, and build no space of their own.  The
compactness of the subspace on a set c is read off c's masks: its
capture mask for each cofinite trace t is captures(t) & fin, so the
subspace is compact, sequentially compact and countably compact exactly
when c is compact (suite_scompact_closure gives the argument).  The
complement of a set is its masks XOR the full masks, so
cocompact-closed-form needs no complement set either.

A drawn argument is passed to its predicate as its draw, so a passing
case builds nothing: a set as `(fin, ev, flips)` (`generate._draw_evset`,
`_draw_open_set`), read by the set predicates as its masks (`_masks`),
and a sequence as `(prefix, threads, bits)` (`generate._draw_seq`), read
by the sequence predicates as its thread bits (`_bits`); both readers
take a witness's decoded EvSet or Seq too.  Only a failing case builds
its draws, in `_witness`: the EvSet of a set draw, flips included, is
the one `sample_evset` or `sample_open_set` gives at that point of the
stream, and the Seq of a sequence draw the one `gen_seq` gives there.
"""

from __future__ import annotations

import random
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Iterable, Iterator

from .compactify import (
    _closed_s_compact,
    _s_compact,
    bar,
    based_iso,
    infinity,
    is_omega_sequential,
    plus,
    plus_map,
    wedge,
)
from .core import FinitePoint, TailPoint
from .errors import ParseError, PresentationError
from .exteriority import (
    ExtSpace,
    Externology,
    _e_open,
    _pair_masks,
    _seq_e_open,
    cocompact_ext_space,
    coreflect,
    e_report,
    make_ext_space,
)
from .generate import (
    _draw_base,
    _draw_evset,
    _draw_open_set,
    _draw_seq,
    _drawn_seq,
    _extend,
    _rng_after,
    _sampled_set,
    _words_drawn,
    gen_space,
    sub_rng,
)
from .instances import NAT_TAIL, discrete_point, nat_cofinite
from .maps import is_seq_continuous, is_seq_proper, map_properties
from .sequences import (
    Affine,
    ConstThread,
    Seq,
    WalkThread,
    _has_convergent_subseq,
    _no_conv_subseq,
    _proper,
    _tail_bits,
    const_seq,
    make_seq,
    seq_equal,
    subseq,
    walk_seq,
)
from .serial import _expand, args_from_json, args_to_json
from .sheaves import (
    INF,
    NAT,
    NAT_PLUS,
    ConvElem,
    Ideal,
    based_affine_conv,
    build_sigma,
    constant_conv,
    glue,
    is_cover,
    is_m_elem,
    make_ideal,
    restrict_family,
)
from .spaces import CompiledSpace, space_report

DEFAULT_SEED = 42
DEFAULT_SAMPLES = 200
DEFAULT_BUDGET = 8
SUITE_INSTANCES = 200
GLUE_INSTANCES = 20
GLUE_IDEALS = 30


@dataclass
class CheckReport:
    suite: str
    seed: int
    samples: int
    budget: int
    cases: int = 0
    passed: int = 0
    failed: int = 0
    unknown: int = 0  # always 0: a case passes or fails
    witnesses: list = field(default_factory=list)
    wall_ms: int = 0

    def to_json(self) -> dict:
        return asdict(self)


# -- predicates --------------------------------------------------------------
#
# A predicate returns a bool; a case passes only when it returns exactly True.

PREDICATES: dict[str, tuple[Callable, tuple[str, ...]]] = {}


def _predicate(name: str, *kinds: str):
    def deco(fn):
        PREDICATES[name] = (fn, kinds)
        return fn

    return deco


def _check(name: str, *args, instance: int | None = None) -> dict | None:
    """One case, and the only place a suite calls a predicate: None if the
    named predicate returns exactly True, and otherwise its witness
    (`_witness`), with the error if it raised.  A drawn argument is passed
    as its draw (see the module docstring)."""
    fn = PREDICATES[name][0]
    try:
        if fn(*args) is True:
            return None
        error = None
    except Exception as exc:
        error = f"{type(exc).__name__}: {exc}"
    return _witness(name, args, instance, error)


# The builder of a drawn argument, by its kind, on the case's space.
_BUILDERS = {
    "set": lambda space, draw: _sampled_set(space.compiled, *draw),
    "seq": _drawn_seq,
}


def _witness(name: str, args: tuple, instance: int | None, error: str | None) -> dict:
    """The witness of a failed case: the predicate's arguments, the
    instance, and the error its predicate raised as "<Type>: <message>", no
    traceback, so the witness stays reproducible.  The only place a draw
    becomes an object: a set or sequence argument passed as its draw (a
    tuple) is built on the case's first argument, its space, into the
    EvSet (flips included) or Seq the draw gives."""
    kinds = PREDICATES[name][1]
    args = [
        _BUILDERS[kind](args[0], a) if kind in _BUILDERS and type(a) is tuple else a
        for kind, a in zip(_expand(kinds, len(args)), args)
    ]
    witness = {"predicate": name, "args": args_to_json(kinds, args)}
    if instance is not None:
        witness["instance"] = instance
    if error is not None:
        witness["error"] = error
    return witness


def _bits(v: CompiledSpace, s) -> tuple[int, ...]:
    """A sequence argument as its thread bits: read off a draw
    (`generate._draw_seq`), or off a witness's Seq
    (`sequences._tail_bits`)."""
    return s[2] if type(s) is tuple else _tail_bits(v, s)


@_predicate("proper-eq-noconv", "space", "seq")
def _proper_eq_noconv(space, s):
    """`classify`'s two sides (`_proper`, `_no_conv_subseq`), read with its
    universe check and no limit set."""
    v = space.compiled
    bits = _bits(v, s)
    return _proper(v, bits) == _no_conv_subseq(v, bits)


@_predicate("countable-eq-seq-compact", "space", "seq*")
def _countable_eq_seq_compact(space, *seqs):
    """The sequences corroborate the sequential side: on a sequentially
    compact space each has a convergent subsequence, and otherwise some
    tail walk has none.  Only the first side reads the sequences."""
    report = space_report(space)
    if report.countably_compact != report.seq_compact:
        return False
    v = space.compiled
    if report.seq_compact:
        bits = [_bits(v, s) for s in seqs]
        return not any(_no_conv_subseq(v, b) for b in bits)
    return not all(_has_convergent_subseq(v, t) for t in space.tails)


@_predicate("proper-eq-seqproper", "map")
def _proper_eq_seqproper(f):
    mp = map_properties(f)
    return mp.proper == mp.seq_proper


@_predicate("seqproper-eq-plus-seqcontinuous", "map")
def _seqproper_eq_plus_seqcontinuous(f):
    return is_seq_proper(f) == is_seq_continuous(plus_map(f))


@_predicate("wedge-iso-plus", "space")
def _wedge_iso_plus(space):
    return based_iso(wedge(space), plus(space)) is not None


@_predicate("plus-space-sequential", "space")
def _plus_space_sequential(space):
    """s-compact equals closed compact, and every set shape of the one-point
    compactification is open iff sequentially open."""
    v = plus(space).space.compiled
    return is_omega_sequential(space) and all(
        v.seq_open(fin, ev) == v.open(fin, ev) for fin, ev in v.shapes()
    )


def _masks(v: CompiledSpace, c) -> tuple[int, int]:
    """A set argument as its (finite, eventual) masks: read off a draw
    (`generate._draw_evset`, `_draw_open_set`), or off a witness's EvSet."""
    return (c[0], c[1]) if type(c) is tuple else v.read(c)


@_predicate("closed-scompact-countably-compact", "space", "set")
def _closed_scompact_countably_compact(space, c):
    """The subspace on c is countably compact iff the set is compact (see
    suite_scompact_closure)."""
    v = space.compiled
    fin, ev = _masks(v, c)
    return not _closed_s_compact(v, fin, ev) or v.compact(fin, ev)


@_predicate("scompact-three-way", "space", "set")
def _scompact_three_way(space, c):
    """The subspace's compact, sequentially compact and countably compact all
    read the set's `compact` (see suite_scompact_closure)."""
    v = space.compiled
    fin, ev = _masks(v, c)
    return _s_compact(v, fin, ev) == v.compact(fin, ev)


@_predicate("infinity-bar-round-trip", "ext")
def _infinity_bar_round_trip(ext):
    """bar(b) is computed once, where the conjunction first reads it."""
    b, b2 = infinity(ext), plus(ext.space)
    return (
        based_iso(infinity(cocompact_ext_space(ext.space)), b2) is not None
        and (back := bar(b)) == ext
        and based_iso(infinity(back), b) is not None
        and based_iso(infinity(bar(b2)), b2) is not None
    )


@_predicate("cocompact-closed-form", "space", "set")
def _cocompact_closed_form(space, s):
    """e-open in the cocompact externology iff the complement is closed and
    compact.  The complement of s is its masks XOR the full masks, so its
    closedness is the openness of s.  The cocompact pair is ε(∅, unattached
    tails) (`cocompact_externology`), so its masks are (0, unattached)."""
    v = space.compiled
    fin, ev = _masks(v, s)
    direct = v.open(fin, ev) and v.compact(fin ^ v.all_points, ev ^ v.all_tails)
    return _e_open(v, 0, v.unattached, fin, ev) == direct


@_predicate("coreflection-identity", "ext", "pair")
def _coreflection_identity(ext, raw):
    """Identity on the canonical pair, idempotent on the raw one, and e-open
    agrees with sequentially e-open on every set shape."""
    v = ext.space.compiled
    lim, dt = _pair_masks(ext)
    return (
        coreflect(ext) == ext
        and e_report(ext).e_sequential
        and coreflect(coreflect(raw)) == coreflect(raw)
        and e_report(coreflect(raw)).e_sequential
        and all(
            _seq_e_open(v, lim, dt, fin, ev) == _e_open(v, lim, dt, fin, ev)
            for fin, ev in v.shapes()
        )
    )


@_predicate("covering-certificate", "ideal")
def _covering_certificate(ideal):
    return is_cover(ideal, "Je").status == "yes"


@_predicate("glue-round-trip", "ext", "seq", "ideal", "conv*")
def _glue_round_trip(ext, s, ideal, *conv_morphisms):
    fam, points, conv = restrict_family(s, ideal, conv_morphisms)
    res = glue(build_sigma(ext), ideal, fam, points, conv)
    return res.kind == "amalgamation" and seq_equal(res.seq, s)


@_predicate("non-covering-witness")
def _non_covering_witness():
    cover = is_cover(make_ideal("M", [Affine(2, 0)]), "Je")
    return cover.status == "no" and cover.witness == Affine(2, 1)


@_predicate("non-covering-no-amalgamation")
def _non_covering_no_amalgamation():
    """Glued candidate with a constant thread: consistent over the evens but
    not exterior, so no amalgamation exists."""
    nn = nat_cofinite()
    stuck = make_seq(
        nn.space.universe, (), (WalkThread(NAT_TAIL, 1, 0), ConstThread(TailPoint(NAT_TAIL, 5)))
    )
    fam = {Affine(2, 0): subseq(stuck, Affine(2, 0))}
    evens = make_ideal("M", [Affine(2, 0)])
    res = glue(build_sigma(nn), evens, fam, stuck, (), require_cover=False)
    return res.kind == "no_amalgamation"


@_predicate("incompatible-at-2")
def _incompatible_at_2():
    """A family conflicting with the point component at position 2."""
    nn = nat_cofinite()
    uni = nn.space.universe
    both = make_ideal("M", [Affine(2, 0), Affine(2, 1)])
    section = walk_seq(uni, NAT_TAIL)
    fam, points, conv = restrict_family(section, both, ())
    tampered = subseq(section, Affine(2, 0))
    fam[Affine(2, 0)] = make_seq(
        uni, (tampered.at(0), TailPoint(NAT_TAIL, 7)), (WalkThread(NAT_TAIL, 2, 4),)
    )
    res = glue(build_sigma(nn), both, fam, points, conv)
    return res.kind == "incompatible" and res.conflict is not None and res.conflict[2] == 2


@_predicate("sigma-one-constants")
def _sigma_one_constants():
    one = build_sigma(discrete_point())
    pt = FinitePoint("pt")
    return one.c_member(one.cte(pt)) and one.point_member(pt)


@_predicate("sigma-one-no-exterior")
def _sigma_one_no_exterior():
    one = discrete_point()
    return not build_sigma(one).e_member(const_seq(one.space.universe, FinitePoint("pt")))


@_predicate("sigma-natplus-conv", "conv")
def _sigma_natplus_conv(elem):
    independent = _independent_nat_plus_limit(elem.seq)
    accepted = build_sigma(make_ext_space(NAT_PLUS)).c_member(elem)
    return accepted == (independent is not None and independent == elem.limit)


@_predicate("sigma-natplus-no-exterior", "seq")
def _sigma_natplus_no_exterior(s):
    return not build_sigma(make_ext_space(NAT_PLUS)).e_member(s)


@_predicate("sigma-nat-exterior-monoid", "seq")
def _sigma_nat_exterior_monoid(s):
    return build_sigma(nat_cofinite()).e_member(s) == is_m_elem(s)


@_predicate("sigma-nat-constants", "conv")
def _sigma_nat_constants(ce):
    independent = all(
        isinstance(th, ConstThread) and th.point == ce.limit for th in ce.seq.threads
    )
    return build_sigma(nat_cofinite()).c_member(ce) == independent


@_predicate("sigma-nat-rejects-walks", "conv")
def _sigma_nat_rejects_walks(walk):
    return not build_sigma(nat_cofinite()).c_member(walk)


# -- instance streams ----------------------------------------------------------

# The memos of the running run_suites call; None outside one, so nothing
# drawn outlives it.  _bases holds each base draw, keyed by (seed, count,
# profile), with the number of words each instance's base draw took from
# its rng (`_base`); _streams holds the one extended stream asked for
# last, keyed by (seed, count, profile, maps_per).
_bases: dict | None = None
_streams: dict | None = None


def _base(seed: int, count: int, profile: str):
    """The base draw (`generate._draw_base`) of a (seed, count, profile)
    stream, drawn once per run_suites call and held for the whole call:
    its instances, and for each the number of words its base draw took
    from its rng (`generate._words_drawn`).  A stream with maps
    (`_instances`) and the sequence draws (`_seq_draws`) are drawn on rngs
    rebuilt from those counts (`generate._rng_after`), so no rng is
    held."""
    key = (seed, count, profile)
    if key not in _bases:
        insts, rngs = _draw_base(*key)
        _bases[key] = insts, list(map(_words_drawn, rngs))
    return _bases[key]


def _instances(seed: int, count: int, profile: str, maps_per: int):
    """The instance stream with `maps_per` maps and no sequences, as
    generate_instances draws it, drawn once per run_suites call; suites
    run only inside one.  It is the base (`_base`) extended on its
    rebuilt rngs (`generate._rng_after`).  Of the extended streams only
    the one asked for last is held, and any other request drops it."""
    insts, words = _base(seed, count, profile)
    key = (seed, count, profile, maps_per)
    if key in _streams:
        return _streams[key]
    _streams.clear()
    if not maps_per:
        return insts
    # One rng at a time: each is dropped once its instance is extended.
    rngs = (_rng_after(seed, profile, i, n) for i, n in enumerate(words))
    _streams[key] = _extend(insts, rngs, 0, maps_per)
    return _streams[key]


# -- suite bodies ------------------------------------------------------------


def _sampled_set_cases(name, space, seed, tag, i, draws, count, keep=None):
    """The cases of the set predicate `name` on `count` sets of instance i's
    stream sub_rng(seed, tag, i), set j drawn by draws[j % len(draws)]
    (`generate._draw_evset` or `_draw_open_set`).  Each draw is filtered
    by `keep(v, fin, ev)` if given and decided by `_check` on the draw
    itself, so only a failing case builds its set, flips included."""
    v = space.compiled
    rng = sub_rng(seed, tag, i)
    n = len(draws)
    for j in range(count):
        c = draws[j % n](rng, v)
        if keep is None or keep(v, c[0], c[1]):
            yield _check(name, space, c, instance=i)


def _seq_draws(rng: random.Random, space, count: int) -> Iterator[tuple]:
    """The first `count` sequence draws (`generate._draw_seq`) of an
    instance, made one at a time on its rebuilt base rng
    (`generate._rng_after`): the draws of the sequences
    generate_instances gives it."""
    for _ in range(count):
        yield _draw_seq(rng, space)


def suite_proper_vs_noconv(seed, samples, budget):
    """Properness coincides with having no convergent subsequence, on
    sequentially-Hausdorff sequential instances.  Each of an instance's
    `samples/4` sequences is decided on its draw (`_seq_draws`), and built
    as a Seq only for the witness of a failing case."""
    per = max(1, samples // 4)
    insts, words = _base(seed, SUITE_INSTANCES, "s2-only")
    for i, (inst, n) in enumerate(zip(insts, words)):
        space = inst.ext.space
        for draw in _seq_draws(_rng_after(seed, "s2-only", i, n), space, per):
            yield _check("proper-eq-noconv", space, draw, instance=i)


def suite_countable_vs_seq_compact(seed, samples, budget):
    """Countable compactness coincides with sequential compactness on T0
    instances; sampled sequences corroborate the sequential side.

    The statement compares two SpaceReport fields.  `countably_compact` is
    derived: it is `compact`, since countable spaces are Lindelöf.  On the
    whole space `compact` and `seq_compact` both read "every tail is
    captured by some point" off the capture table, so that comparison
    cannot fail; the sequences, decided by the subsequence rule
    (`sequences._no_conv_subseq`), are the other side.

    The predicate reads the sequences only on a sequentially compact
    space, so a space that is not is decided with none.  An instance's
    `samples/4` sequence draws (`_seq_draws`) are made only where they are
    read: on a sequentially compact space, which is decided on the draws,
    or for the witness of a failing case, which then gets the draws it
    did not need, so it carries the arguments a run that drew every
    stream would record."""
    name = "countable-eq-seq-compact"
    per = max(1, samples // 4)
    insts, words = _base(seed, SUITE_INSTANCES, "all")
    for i, (inst, n) in enumerate(zip(insts, words)):
        space = inst.ext.space
        report = space_report(space)
        if not report.t0:
            continue
        draws = []
        if report.seq_compact:
            draws = list(_seq_draws(_rng_after(seed, "all", i, n), space, per))
        witness = _check(name, space, *draws, instance=i)
        if witness is not None and not draws:
            draws = _seq_draws(_rng_after(seed, "all", i, n), space, per)
            witness = _witness(name, (space, *draws), i, witness.get("error"))
        yield witness


def suite_proper_vs_seqproper(seed, samples, budget):
    """A map is proper iff it is sequentially proper (domains in-class)."""
    insts = _instances(seed, SUITE_INSTANCES, "all", maps_per=max(1, samples // 10))
    for i, inst in enumerate(insts):
        for f in inst.maps:
            yield _check("proper-eq-seqproper", f, instance=i)


def suite_plus_map_continuity(seed, samples, budget):
    """A map is sequentially proper iff its based one-point extension is
    sequentially continuous."""
    insts = _instances(seed, SUITE_INSTANCES, "all", maps_per=max(1, samples // 10))
    for i, inst in enumerate(insts):
        for f in inst.maps:
            yield _check("seqproper-eq-plus-seqcontinuous", f, instance=i)


def suite_wedge_vs_plus(seed, samples, budget):
    """The sequential one-point compactification equals the Alexandroff one
    on sequentially-Hausdorff instances."""
    insts = _instances(seed, SUITE_INSTANCES, "s2-only", maps_per=0)
    for i, inst in enumerate(insts):
        yield _check("wedge-iso-plus", inst.ext.space, instance=i)


def suite_plus_sequential(seed, samples, budget):
    """Every instance has matching s-compact and closed compact families,
    and its one-point compactification is sequential (every set shape)."""
    insts = _instances(seed, SUITE_INSTANCES, "all", maps_per=0)
    for i, inst in enumerate(insts):
        yield _check("plus-space-sequential", inst.ext.space, instance=i)


def suite_scompact_closure(seed, samples, budget):
    """Closed s-compact sets are countably compact subspaces; on
    sequentially-Hausdorff instances the three compactness notions agree.

    Both statements are decided on the set's own masks, with no subspace
    built.  The subspace on c (`spaces.subspace`) keeps the members of c:
    minOpen(x) & fin for each finite member, a tail for each cofinite trace
    t with attach set captures(t) & fin, and an isolated point for each
    tail point on a finite trace.  Captures are up-closed (y in minOpen(x)
    gives minOpen(y) within minOpen(x)), so the subspace's capture mask of
    t is exactly captures(t) & fin.  Its compact, seq_compact and
    countably_compact therefore all read "every cofinite trace of c is
    captured by a member of c", which is `CompiledSpace.compact` of c's
    masks.  tests/test_spaces.py pins that identity on every set shape.

    Each set is decided on the masks of its draw (`_sampled_set_cases`),
    and built as an EvSet only for the witness of a failing case."""
    insts = _instances(seed, SUITE_INSTANCES, "all", maps_per=0)
    per = max(1, samples // 2)
    any_set = (_draw_evset,)
    for i, inst in enumerate(insts):
        yield from _sampled_set_cases(
            "closed-scompact-countably-compact", inst.ext.space, seed, "scompact", i, any_set,
            per, keep=_closed_s_compact,
        )
    insts2 = _instances(seed, SUITE_INSTANCES, "s2-only", maps_per=0)
    for i, inst in enumerate(insts2):
        yield from _sampled_set_cases(
            "scompact-three-way", inst.ext.space, seed, "scompact-s2", i, any_set, per
        )


def suite_infinity_diagram(seed, samples, budget):
    """The one-point construction over the cocompact externology is the
    Alexandroff compactification, and adding/removing the point at infinity
    are mutually inverse on presentations."""
    insts = _instances(seed, SUITE_INSTANCES, "all", maps_per=0)
    for i, inst in enumerate(insts):
        yield _check("infinity-bar-round-trip", inst.ext, instance=i)


def suite_cocompact_form(seed, samples, budget):
    """Membership in the cocompact externology agrees with the direct
    closed-compact-complement test on sampled sets, both decided on the
    set's masks and their complement.  Sets alternate between any set and
    an open one; each is decided on the masks of its draw, and built as an
    EvSet only for the witness of a failing case (`_sampled_set_cases`)."""
    insts = _instances(seed, SUITE_INSTANCES, "all", maps_per=0)
    per = max(1, samples // 2)
    alternating = (_draw_evset, _draw_open_set)
    for i, inst in enumerate(insts):
        yield from _sampled_set_cases(
            "cocompact-closed-form", inst.ext.space, seed, "ccform", i, alternating, per
        )


def suite_coreflection(seed, samples, budget):
    """The sequential coreflection is the identity on canonical instances,
    idempotent on raw pairs (a single limit point, not saturated), and
    detected by the counit; e-open and sequentially e-open agree on every
    set shape."""
    insts = _instances(seed, SUITE_INSTANCES, "all", maps_per=0)
    for i, inst in enumerate(insts):
        space = inst.ext.space
        points = space.points
        limits = (sub_rng(seed, "coreflect-raw", i).choice(points),) if points else ()
        raw = ExtSpace(space, Externology(limits, ()))
        yield _check("coreflection-identity", inst.ext, raw, instance=i)


def _covering_ideal(rng: random.Random) -> Ideal:
    modulus = 1 + rng.randrange(4)
    gens = [Affine(modulus, r + modulus * rng.randrange(2)) for r in range(modulus)]
    for _ in range(rng.randrange(3)):
        gens.append(Affine(1 + rng.randrange(8), rng.randrange(9)))
    return make_ideal("M", gens)


def suite_sheaf_glue(seed, samples, budget):
    """Restriction-then-glue over certificate-bearing covering ideals
    recovers the section uniquely; designed incompatible and non-covering
    fixtures produce their outcomes.  Every ideal is generated by affine
    injections, on which the residue-class covering certificate is exact,
    so a covering check is always decided."""
    for i in range(GLUE_INSTANCES):
        rng = sub_rng(seed, "glue", i)
        space = gen_space(rng, "tailed")
        limits = [x for x in space.points if rng.random() < 0.3]
        tails = {space.tails[0]} | {t for t in space.tails if rng.random() < 0.5}
        ext = make_ext_space(space, limits, tails)
        # D holds a tail, so e_sample draws all 3 sections.
        sections = build_sigma(ext).e_sample(rng, 3)
        for j in range(GLUE_IDEALS):
            ideal = _covering_ideal(rng)
            cover = _check("covering-certificate", ideal, instance=i)
            if cover is not None:
                yield cover
                continue
            conv = [_eventually_constant_conv(rng, NAT.universe, 0) for _ in range(3)]
            yield _check("glue-round-trip", ext, sections[j % len(sections)], ideal, *conv, instance=i)
    nn = nat_cofinite()
    both = make_ideal("M", [Affine(2, 0), Affine(2, 1)])
    yield _check("non-covering-witness")
    yield _check("covering-certificate", both)
    yield _check("non-covering-no-amalgamation")
    yield _check("incompatible-at-2")
    yield _check("glue-round-trip", nn, walk_seq(nn.space.universe, NAT_TAIL), both)


def suite_sigma_fixtures(seed, samples, budget):
    """The presheaf embedding on the three site objects matches their
    declared components, by decider-level agreement on sampled elements."""
    per = max(20, samples // 2)
    rng = sub_rng(seed, "sigma", 0)
    yield _check("sigma-one-constants")
    yield _check("sigma-one-no-exterior")
    for _ in range(per):
        elem = _sample_nat_plus_conv(rng)
        yield _check("sigma-natplus-conv", elem)
        yield _check("sigma-natplus-no-exterior", elem.seq)
    for _ in range(per):
        yield _check("sigma-nat-exterior-monoid", _sample_nat_seq(rng))
        yield _check("sigma-nat-constants", _eventually_constant_conv(rng, NAT.universe, 0))
        walk = ConvElem(_sample_walky_nat_seq(rng), TailPoint(NAT_TAIL, 0))
        yield _check("sigma-nat-rejects-walks", walk)


def _eventually_constant_conv(rng: random.Random, universe, min_prefix: int) -> ConvElem:
    """A sequence on the naturals tail, constant after a short prefix, with
    that constant as its limit."""
    limit = TailPoint(NAT_TAIL, rng.randrange(6))
    n = min_prefix + rng.randrange(3 - min_prefix)
    prefix = tuple(TailPoint(NAT_TAIL, rng.randrange(9)) for _ in range(n))
    return ConvElem(Seq(universe, prefix, (ConstThread(limit),)), limit)


def _sample_nat_plus_conv(rng: random.Random) -> ConvElem:
    uni = NAT_PLUS.universe
    shape = rng.randrange(4)
    if shape == 0:
        return based_affine_conv(Affine(1 + rng.randrange(3), rng.randrange(6)))
    if shape == 1:
        return constant_conv(rng.randrange(6))
    if shape == 2:
        return _eventually_constant_conv(rng, uni, 1)
    threads = []
    for _ in range(1 + rng.randrange(2)):
        if rng.random() < 0.5:
            threads.append(WalkThread(NAT_TAIL, 1 + rng.randrange(3), rng.randrange(6)))
        else:
            threads.append(ConstThread(INF if rng.random() < 0.7 else TailPoint(NAT_TAIL, 3)))
    seq = Seq(uni, (), tuple(threads))
    lim = _independent_nat_plus_limit(seq)
    return ConvElem(seq, lim if lim is not None else INF)


def _independent_nat_plus_limit(s: Seq):
    """Thread-shape limit for the convergent-sequence space: all constant at
    one point, or every thread escaping (walks and constants at the added
    point) with limit there."""
    first = s.threads[0]
    if all(isinstance(th, ConstThread) and th == first for th in s.threads):
        return first.point
    if all(
        isinstance(th, WalkThread)
        or (isinstance(th, ConstThread) and th.point == INF)
        for th in s.threads
    ):
        return INF
    return None


def _sample_nat_seq(rng: random.Random) -> Seq:
    threads = []
    for _ in range(1 + rng.randrange(2)):
        if rng.random() < 0.6:
            threads.append(WalkThread(NAT_TAIL, 1 + rng.randrange(3), rng.randrange(6)))
        else:
            threads.append(ConstThread(TailPoint(NAT_TAIL, rng.randrange(6))))
    prefix = tuple(TailPoint(NAT_TAIL, rng.randrange(9)) for _ in range(rng.randrange(3)))
    return Seq(NAT.universe, prefix, tuple(threads))


def _sample_walky_nat_seq(rng: random.Random) -> Seq:
    return Seq(NAT.universe, (), (WalkThread(NAT_TAIL, 1 + rng.randrange(3), rng.randrange(6)),))


# -- registry and runner -----------------------------------------------------


SUITES = {
    "proper-vs-noconv": (suite_proper_vs_noconv, "thm-2-5"),
    "countable-vs-seq-compact": (suite_countable_vs_seq_compact, "thm-2-4"),
    "proper-vs-seqproper": (suite_proper_vs_seqproper, "prop-3-4"),
    "plus-map-continuity": (suite_plus_map_continuity, "thm-3-2"),
    "wedge-vs-plus": (suite_wedge_vs_plus, "thm-3-8"),
    "plus-sequential": (suite_plus_sequential, "thm-3-9"),
    "scompact-closure": (suite_scompact_closure, "lem-3-7"),
    "infinity-diagram": (suite_infinity_diagram, "dia-4-2"),
    "cocompact-form": (suite_cocompact_form, "eps-cc"),
    "coreflection": (suite_coreflection, "prop-4-13"),
    "sheaf-glue": (suite_sheaf_glue, "thm-4-16"),
    "sigma-fixtures": (suite_sigma_fixtures, "yoneda"),
}

TAGS = {tag: name for name, (_, tag) in SUITES.items() if tag}
EXTRA_TAGS = {"prop-3-11": "scompact-closure"}
TAGS.update(EXTRA_TAGS)


def suite_names() -> list[str]:
    return list(SUITES)


def resolve_suite(name: str) -> str:
    if name in SUITES:
        return name
    if name in TAGS:
        return TAGS[name]
    raise PresentationError(f"unknown suite {name!r}")


def run_suites(
    names: Iterable[str],
    seed: int = DEFAULT_SEED,
    samples: int = DEFAULT_SAMPLES,
    budget: int = DEFAULT_BUDGET,
) -> list[CheckReport]:
    """One report per named suite (a name or tag), run in turn; the suites
    of this one call share their instance streams (see _instances), and
    none is held once it returns.  One suite alone is
    run_suites([name], ...)[0]."""
    global _bases, _streams
    _bases, _streams = {}, {}
    reports = []
    try:
        for name in names:
            resolved = resolve_suite(name)
            fn = SUITES[resolved][0]
            report = CheckReport(resolved, seed, samples, budget)
            started = time.perf_counter()
            for witness in fn(seed, samples, budget):
                report.cases += 1
                if witness is None:
                    report.passed += 1
                else:
                    report.failed += 1
                    report.witnesses.append(witness)
            report.wall_ms = int((time.perf_counter() - started) * 1000)
            reports.append(report)
    finally:
        _bases = _streams = None
    return reports


# -- witness rechecking -------------------------------------------------------


def recheck_witness(witness: dict) -> bool:
    """Re-evaluate a witness standalone through the predicate its suite ran:
    True if the case now passes, False if the failure reproduces.  A
    predicate that raised on the case (its witness's "error") raises
    again here."""
    name = witness.get("predicate") if isinstance(witness, dict) else None
    if not isinstance(name, str):
        raise ParseError("a witness needs a predicate name string", ("predicate",))
    if name not in PREDICATES:
        raise PresentationError(f"unknown witness predicate {name!r}")
    fn, kinds = PREDICATES[name]
    return fn(*args_from_json(kinds, witness.get("args", []))) is True
