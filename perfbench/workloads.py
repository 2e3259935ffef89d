"""The three benchmark workloads over the extseq library.

Each workload builds its inputs from the seed alone and then runs *passes*:
one pass is a fixed unit of work that yields its time, a list of per-item
latencies, a verdict count and the verdicts themselves (for the digest).
Times are taken by a ``Meter``, which scales them to a host of fixed speed.

- ``gate``: one pass is the acceptance gate ``extseq check --suite all`` at
  pinned settings; an item is one suite case.
- ``sets-hot``: one pass sweeps a fixed corpus of sets over 256 spaces; an
  item is one set (all set deciders on it) or one codomain set pulled back
  along every map.
- ``stream-cold``: one pass generates and decides a block of fresh
  instances; an item is one instance.

Which layer should move which end-to-end number (shares of traced self
time at seed 42 on a 2-CPU host):

- ``core`` and ``spaces`` self time and the cache hit ratio: ``sets-hot``
  (about 85%) and ``gate`` (about 58%); ``stream-cold`` only a little
  (about 17%).
- ``generate``: ``gate`` (about 18%) and ``stream-cold`` (about 12%); on
  ``sets-hot`` only ``setup_s``.
- ``compactify.is_omega_sequential``: ``gate`` through the
  ``plus-sequential`` suite (about 31% of a pass);
  ``compactify.based_iso``: the ``stream-cold`` latency tail.
- ``sequences`` and ``maps``: ``stream-cold`` (about 30%) and the
  ``proper-vs-seqproper`` and ``plus-map-continuity`` suites.
- ``serial``: ``stream-cold`` (about 24%, mostly the JSON encoder).
- ``sheaves``: ``stream-cold`` (about 5%) and ``sheaf-glue``; no workload
  is dominated by it.
- ``spaces.cache.entries``: ``peak_rss_mb`` on ``stream-cold``, where every
  new space adds entries to the unbounded caches.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import sys
import traceback
from pathlib import Path

from meter import Meter

# The package under test is the checkout's own src/, never an installed one.
SRC = Path(__file__).resolve().parent.parent / "src"
if not (SRC / "extseq" / "__init__.py").is_file():
    raise SystemExit(f"error: no extseq package under {SRC}; run from a full checkout")
sys.path.insert(0, str(SRC))

from extseq import cli, spaces, suites
from extseq.compactify import (
    bar,
    based_iso,
    epsilon_sc,
    infinity,
    is_s_compact,
    plus,
    wedge,
)
from extseq.core import TailPoint, ev_complement, ev_intersect, ev_union
from extseq.exteriority import (
    cocompact_ext_space,
    coreflect,
    e_report,
    is_e_open,
    sequentially_e_open,
)
from extseq.generate import (
    gen_ext,
    gen_map,
    gen_seq,
    gen_space,
    generate_instances,
    sample_evset,
    sample_open_set,
    sub_rng,
)
from extseq.maps import map_properties, preimage
from extseq.sequences import Affine, classify, convergence_ideal, interleave, subseq
from extseq.serial import canonical_dumps, entity_from_json, entity_to_json
from extseq.sheaves import build_sigma, glue, is_cover, make_ideal, restrict_family
from extseq.spaces import (
    is_open,
    is_sequentially_open,
    open_basic_neighborhood,
    set_properties,
    space_report,
)

# The process-wide lru_caches of the spaces layer; read for the cache
# metrics and cleared where a pass must start as cold as a fresh process.
CACHES = (spaces.min_open_map, spaces.attach_map, spaces.captures)


# Hits and misses counted before the last clear (cache_clear resets them).
_cleared = [0, 0]


def clear_caches() -> None:
    hits, misses, _ = cache_stats()
    _cleared[:] = hits, misses
    for cache in CACHES:
        cache.cache_clear()


def cache_stats() -> tuple[int, int, int]:
    """(hits, misses, entries) summed over the spaces caches; hits and
    misses count since the start of the process, across clears."""
    infos = [cache.cache_info() for cache in CACHES]
    return (
        _cleared[0] + sum(i.hits for i in infos),
        _cleared[1] + sum(i.misses for i in infos),
        sum(i.currsize for i in infos),
    )


# -- canonical verdict digests -------------------------------------------------


def canon(value):
    """A JSON-able form of a verdict that does not depend on hash order:
    dataclasses become [type, fields...] and sets and dicts are sorted."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if dataclasses.is_dataclass(value):
        return [type(value).__name__] + [
            canon(getattr(value, f.name)) for f in dataclasses.fields(value)
        ]
    if isinstance(value, (set, frozenset)):
        return sorted((canon(v) for v in value), key=_sort_key)
    if isinstance(value, dict):
        return sorted(([canon(k), canon(v)] for k, v in value.items()), key=_sort_key)
    if isinstance(value, (list, tuple)):
        return [canon(v) for v in value]
    raise TypeError(f"no canonical form for {type(value).__name__}")


def _sort_key(c) -> str:
    return json.dumps(c, sort_keys=True)


class Digest:
    """The digest recorded for a seed: the canonical verdicts of a
    workload's first ``digest_passes`` passes, hashed in order."""

    def __init__(self, passes: int):
        self.left = passes
        self._hash = hashlib.sha256()

    def add(self, verdicts) -> None:
        if self.left:
            text = json.dumps(canon(verdicts), sort_keys=True, separators=(",", ":"))
            self._hash.update(text.encode() + b"\n")
            self.left -= 1

    @property
    def complete(self) -> bool:
        return not self.left

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


def seed_digest(cls, seed: int, workdir: Path) -> str:
    """Run a workload's first passes for a seed, untimed, and digest them."""
    wl, meter, dig = cls(seed, workdir), Meter(), Digest(cls.digest_passes)
    while not dig.complete:
        dig.add(wl.run_pass(meter).verdicts)
    return dig.hexdigest()


# -- passes --------------------------------------------------------------------


@dataclasses.dataclass
class PassResult:
    seconds: float = 0.0  # scaled pass time
    latencies: list[float] = dataclasses.field(default_factory=list)  # scaled, per item
    decisions: int = 0  # decider verdicts produced
    failed: int = 0  # failed, unknown or raising items
    verdicts: object = None  # what the digest covers
    suite_s: dict = dataclasses.field(default_factory=dict)
    suite_cases: dict = dataclasses.field(default_factory=dict)


GATE_SAMPLES = 200
GATE_BUDGET = 8


class Gate:
    """``extseq check --suite all`` as a user runs it, every setting pinned
    on the command line (the budget default reads EXTSEQ_BUDGET)."""

    name = "gate"
    repeats = True  # every pass decides the same inputs
    digest_passes = 1
    # A run makes at least this many passes, and reads peak_rss_mb after
    # them.  A gate pass takes 10-20 s on a 2-core host.
    min_passes = 2

    def __init__(self, seed: int, workdir: Path):
        self.report = workdir / f"gate-report-{seed}.json"
        self.argv = [
            "check", "--suite", "all", "--seed", str(seed),
            "--samples", str(GATE_SAMPLES), "--budget", str(GATE_BUDGET),
            "--report", str(self.report),
        ]  # fmt: skip
        self._meter: Meter | None = None
        self._item_suites: list[str] = []
        if not Gate._wrapped:
            for name, (fn, tag) in list(suites.SUITES.items()):
                suites.SUITES[name] = (self._timed(name, fn), tag)
            Gate._wrapped = True

    # Each suite case is timed from outside: a suite is a generator of
    # cases, so the time between two yields is one case's latency (the
    # checking of the case before it included).  The suites are wrapped
    # once per process, for whichever gate is running a pass.
    _wrapped = False
    _running: Gate | None = None

    @staticmethod
    def _timed(name, fn):
        def timed_suite(seed, samples, budget):
            gate = Gate._running
            for case in fn(seed, samples, budget):
                gate._meter.item()
                gate._item_suites.append(name)
                yield case

        return timed_suite

    def run_pass(self, meter: Meter) -> PassResult:
        # A user's gate run starts in a fresh process, with empty caches.
        clear_caches()
        Gate._running, self._meter, self._item_suites = self, meter, []
        meter.begin()
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(self.argv)
        seconds, latencies = meter.end()
        res = PassResult(seconds, latencies)
        for name, lat in zip(self._item_suites, latencies):
            res.suite_s[name] = res.suite_s.get(name, 0.0) + lat
            res.suite_cases[name] = res.suite_cases.get(name, 0) + 1
        doc = json.loads(self.report.read_text(encoding="utf-8"))
        for rep in doc["suites"]:
            res.decisions += rep["cases"]
            res.failed += rep["failed"] + rep["unknown"]
            del rep["wall_ms"]
        res.verdicts = doc
        return res

    def oracle_failures(self, first: PassResult) -> int:
        return 0


# 256 spaces, so that every corpus holds several spaces of the largest
# size and the latency tail varies little between seeds; every space is
# still queried some 250 times per sweep, so its cache entries stay hot.
SETS_HOT_INSTANCES = 256
SETS_PER_SPACE = 25
PREIMAGE_SETS = 3


class SetsHot:
    """Set predicates over a fixed corpus built in set-up.  Every space is
    queried many times in each sweep and again in the next, so the spaces
    caches stay hot."""

    name = "sets-hot"
    repeats = True
    digest_passes = 1
    min_passes = 3

    def __init__(self, seed: int, workdir: Path):
        self.items = []
        for i, inst in enumerate(generate_instances(seed, SETS_HOT_INSTANCES, "all", seqs_per=0)):
            rng = sub_rng(seed, "sets-hot", i)
            space = inst.ext.space
            sets = [
                (sample_evset if j % 2 == 0 else sample_open_set)(rng, space)
                for j in range(SETS_PER_SPACE)
            ]
            for j, s in enumerate(sets):
                self.items.append(("set", inst.ext, s, sets[(j + 1) % len(sets)]))
            cod = inst.partner.space
            for j in range(PREIMAGE_SETS):
                cs = (sample_evset if j % 2 == 0 else sample_open_set)(rng, cod)
                self.items.append(("pre", inst.maps, cs, None))

    def run_pass(self, meter: Meter) -> PassResult:
        res = PassResult(verdicts=[])
        out = res.verdicts
        meter.begin()
        for kind, ctx, s, other in self.items:
            try:
                v = self._decide(kind, ctx, s, other)
            except Exception:
                traceback.print_exc()
                v = ("error",)
                res.failed += 1
            meter.item()
            out.append(v)
            res.decisions += len(v)
        res.seconds, res.latencies = meter.end()
        return res

    @staticmethod
    def _decide(kind, ctx, s, other):
        if kind == "pre":
            return tuple(preimage(f, s) for f in ctx)
        space = ctx.space
        return (
            is_open(space, s),
            is_sequentially_open(space, s),
            set_properties(space, s),
            is_s_compact(space, s),
            is_e_open(ctx, s),
            sequentially_e_open(ctx, s),
            ev_union(s, other),
            ev_intersect(s, other),
            ev_complement(s),
        )

    def oracle_failures(self, first: PassResult) -> int:
        """Check the recorded is_open verdicts against the definition of
        openness, and sequential openness against openness (every tail
        space is sequential)."""
        bad = 0
        for (kind, ctx, s, _), v in zip(self.items, first.verdicts):
            if kind != "set":
                continue
            opened = _open_by_definition(ctx.space, s)
            bad += (v[0] != opened) + (v[1] != opened)
        return bad


def _open_by_definition(space, s) -> bool:
    """Every finite member has a basic neighbourhood inside s.  The
    neighbourhoods shrink with k, so k past the largest flip index decides."""
    k = 1 + max((m for _, _, fl in s.rows for m in fl), default=-1)
    return all(_subset(open_basic_neighborhood(space, x, k), s) for x in s.finite)


def _subset(a, b) -> bool:
    """Pointwise inclusion, checked on every index up to the last flip of
    either set and on the eventual flags."""
    if not set(a.finite) <= set(b.finite):
        return False
    for (t, ev_a, fl_a), (_, ev_b, fl_b) in zip(a.rows, b.rows):
        if ev_a and not ev_b:
            return False
        for m in range(1 + max(fl_a + fl_b, default=-1)):
            if a.member(TailPoint(t, m)) and not b.member(TailPoint(t, m)):
                return False
    return True


STREAM_BLOCK = 100
STREAM_SEQS = 4
STREAM_MAPS = 2


class StreamCold:
    """Fresh instances generated and decided once each, so every space is
    new to the caches.  A pass is the next block of instance indices."""

    name = "stream-cold"
    repeats = False
    min_passes = 40  # the caches grow with every instance
    digest_passes = min_passes

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.next_index = 0

    def run_pass(self, meter: Meter) -> PassResult:
        res = PassResult(verdicts=[])
        meter.begin()
        for i in range(self.next_index, self.next_index + STREAM_BLOCK):
            try:
                v, ok = self._instance(i)
            except Exception:
                traceback.print_exc()
                v, ok = ["error"], False
            meter.item()
            res.verdicts.append(v)
            res.decisions += len(v)
            res.failed += not ok
        self.next_index += STREAM_BLOCK
        res.seconds, res.latencies = meter.end()
        return res

    def _instance(self, i: int):
        rng = sub_rng(self.seed, "stream-cold", i)
        space = gen_space(rng, "all")
        partner = gen_space(rng, "all")
        ext = gen_ext(rng, space)
        seqs = [gen_seq(rng, space) for _ in range(STREAM_SEQS)]
        maps = [gen_map(rng, space, partner) for _ in range(STREAM_MAPS)]
        u = Affine(rng.randrange(1, 4), rng.randrange(0, 5))
        ideal = _covering_ideal(rng)

        p, w = plus(space), wedge(space)
        v = [
            space_report(space), p, w, based_iso(w, p),
            cocompact_ext_space(space), epsilon_sc(space),
            coreflect(ext), e_report(ext), bar(infinity(ext)),
        ]  # fmt: skip
        for s in seqs:
            v += [classify(space, s), convergence_ideal(space, s), subseq(s, u)]
        v.append(interleave(seqs))
        v += [map_properties(f) for f in maps]

        cset = build_sigma(ext)
        cover = is_cover(ideal, "Je")
        v.append(cover)
        sections = cset.e_sample(rng, 1)
        if sections and cover.status == "yes":
            fam, points, conv = restrict_family(sections[0], ideal)
            v.append(glue(cset, ideal, fam, points, conv))

        ok = True
        for entity in [ext, *maps]:
            back = entity_from_json(json.loads(canonical_dumps(entity_to_json(entity))))
            ok = ok and back == entity
            v.append(back == entity)
        return v, ok

    def oracle_failures(self, first: PassResult) -> int:
        return 0


def _covering_ideal(rng):
    """A covering right ideal of the exterior monoid: one generator per
    residue class of a random modulus, plus a few random ones."""
    modulus = rng.randrange(1, 5)
    gens = [Affine(modulus, r + modulus * rng.randrange(0, 2)) for r in range(modulus)]
    gens += [Affine(rng.randrange(1, 9), rng.randrange(0, 9)) for _ in range(rng.randrange(0, 3))]
    return make_ideal("M", gens)


WORKLOADS = {w.name: w for w in (Gate, SetsHot, StreamCold)}
