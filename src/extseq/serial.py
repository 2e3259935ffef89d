"""UTF-8 JSON interchange for every entity, plus the file sniffer the CLI uses.

KINDS holds each kind's noun, writer and reader, and the entity type
written as it.  to_json, from_json and every nested read go through it.
from_json checks once that `raw` is an object ("<noun> must be an object")
and that a set or pair has its space, so every reader takes `(raw, space,
path)`, with `space` the space the value is read against, or None.

Formats (field names follow the type definitions):

  space        {"points": [...], "minOpen": {"x": ["x", "y"]},
                "tails": {"t": {"attach": ["x"]}}}
  externology  {"space": {...}, "L": [...], "D": [...]}, canonicalized when read
  sequence     {"prefix": [<point>...], "threads":
                 [{"const": <point>} | {"walk": {"tail": "t", "a": 1, "b": 0}}],
                optional "universe": {"points": [...], "tails": [...]}}
  map          {"dom": <space>, "cod": <space>, "onPoints": {"x": <point>}, "onTails": {"t":
                 {"toTail": {"tail": "u", "a": 1, "b": 0}, "exceptions": {"3": <point>}}
                 | {"toConst": <point>, "exceptions": {...}}}}
  evset        {"finite": [...], "tails": {"t": {"eventual": true, "flips": [0, 2]}}}
  pair         {"L": [...], "D": [...]}: an externology pair kept as written
  ideal        {"carrier": "M", "generators": [{"a": 2, "b": 0}]}
  conv         {"seq": <sequence>, "limit": <point>}
  based        a space with "basePoint": "inf"

A <point> is a plain string (finite point), {"id": "x"}, or
{"tail": "t", "index": 3}.

JSON types and shapes are checked here, and the presentation rules in the
constructors (`validate_space`, `ev_set`, `make_seq`, `make_map`, ...),
which name the field at fault; a ParseError reads that field under the
path of what was parsed.  A file is refused, as a ParseError, when it nests
too deeply, holds an integer too long for the json module to read, has an
object that repeats a key, which is named, or has a key or string with a
lone surrogate (a \\uD800-\\uDFFF escape outside a pair), whose field is
named.

`canonical_dumps` writes the canonical JSON text (sorted keys, a two-space
indent, non-ASCII kept) directly, in one recursive pass; it is the text
json.dumps writes with those settings, byte for byte, and the package's
only JSON writer.  A list whose items are all strings, the id lists
that make up most of an entity, is written in one join of the escaped
items.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Any

from .compactify import BasedSpace, make_based
from .core import EvSet, FinitePoint, PointRef, TailPoint, Universe, ev_set, make_universe
from .errors import ParseError, PresentationError
from .exteriority import ExtSpace, Externology, make_ext_space
from .maps import SpaceMap, TailToConst, TailToTail, make_map
from .sequences import Affine, ConstThread, Seq, WalkThread, make_seq
from .sheaves import ConvElem, Ideal, make_ideal
from .spaces import Space, validate_space


def _object_field(raw: dict, key: str, path: tuple) -> dict:
    value = raw.get(key, {})
    if not isinstance(value, dict):
        raise ParseError(f"{key} must be an object", path + (key,))
    return value


def _is_int(value: Any) -> bool:
    # JSON true and false parse as bool, which Python counts as int.
    return isinstance(value, int) and not isinstance(value, bool)


def _int_field(raw: dict, key: str, default: int, path: tuple) -> int:
    value = raw.get(key, default)
    if not _is_int(value):
        raise ParseError(f"{key} must be an integer", path + (key,))
    return value


def _affine_fields(raw: dict, path: tuple) -> tuple[int, int]:
    """The a and b of a re-indexing n -> a*n + b."""
    return _int_field(raw, "a", 1, path), _int_field(raw, "b", 0, path)


def _id_field(raw: dict, key: str, path: tuple) -> str:
    value = raw.get(key)
    if not isinstance(value, str):
        raise ParseError(f"{key} must be an id string", path + (key,))
    return value


def _list_field(raw: dict, key: str, path: tuple) -> list:
    value = raw.get(key, [])
    if not isinstance(value, list):
        raise ParseError(f"{key} must be a list", path + (key,))
    return value


def _str_list(raw: dict, key: str, path: tuple) -> list[str]:
    # A plain loop: `all()` over a generator costs twice as much on the
    # short id lists of a space or map file.
    value = raw.get(key, [])
    if isinstance(value, list):
        for x in value:
            if not isinstance(x, str):
                break
        else:
            return value
    raise ParseError(f"{key} must be a list of ids", path + (key,))


def point_to_json(p: PointRef) -> Any:
    if isinstance(p, FinitePoint):
        return p.id
    return {"tail": p.tail, "index": p.index}


def point_from_json(raw: Any, path: tuple = ()) -> PointRef:
    if isinstance(raw, str):
        return FinitePoint(raw)
    if isinstance(raw, dict):
        if "tail" in raw:
            tail = _id_field(raw, "tail", path)
            if not _is_int(raw.get("index")):
                raise ParseError("tail point needs an integer index", path + ("index",))
            return TailPoint(tail, raw["index"])
        if "id" in raw:
            return FinitePoint(_id_field(raw, "id", path))
    raise ParseError(f"not a point reference: {raw!r}", path)


def _build(path: tuple, constructor, *args, written: dict[tuple, tuple] | None = None):
    """Call a constructor; the field its PresentationError names is read
    under `path`, as a ParseError.  `written` maps a field as the
    constructor names it to the field as the input spells it, where the
    two differ."""
    try:
        return constructor(*args)
    except PresentationError as exc:
        field = (written or {}).get(exc.path, exc.path)
        raise ParseError(exc.message, path + field) from exc


# -- one writer and one reader per kind; a reader ignores a `_` space -----------


def _space_to_json(space: Space) -> dict:
    return {
        "points": list(space.points),
        "minOpen": {x: list(u) for x, u in space.min_open},
        "tails": {t: {"attach": list(a)} for t, a in space.attach},
    }


def _space_from_json(raw: dict, _, path: tuple) -> Space:
    points = _str_list(raw, "points", path)
    mo_raw = _object_field(raw, "minOpen", path)
    min_open = {x: _str_list(mo_raw, x, path + ("minOpen",)) for x in mo_raw}
    tails_raw = _object_field(raw, "tails", path)
    attach = {}
    for t, row in tails_raw.items():
        if not isinstance(row, dict):
            raise ParseError("tail entry must be an object", path + ("tails", t))
        attach[t] = _str_list(row, "attach", path + ("tails", t))
    return _build(path, validate_space, points, min_open, tails_raw.keys(), attach)


def _universe_to_json(uni: Universe) -> dict:
    return {"points": list(uni.points), "tails": list(uni.tails)}


def _universe_from_json(raw: dict, _, path: tuple) -> Universe:
    points, tails = _str_list(raw, "points", path), _str_list(raw, "tails", path)
    return _build(path, make_universe, points, tails)


def _evset_to_json(s: EvSet) -> dict:
    return {
        "finite": list(s.finite),
        "tails": {t: {"eventual": ev, "flips": list(fl)} for t, ev, fl in s.rows},
    }


def _evset_from_json(raw: dict, space: Space, path: tuple) -> EvSet:
    eventual, flips = {}, {}
    for t, row in _object_field(raw, "tails", path).items():
        rpath = path + ("tails", t)
        flips[t] = row.get("flips", []) if isinstance(row, dict) else None
        if not isinstance(flips[t], list) or not all(_is_int(m) for m in flips[t]):
            raise ParseError("tail row needs a list of integer flips", rpath)
        eventual[t] = row.get("eventual", False)
        if not isinstance(eventual[t], bool):
            raise ParseError("eventual must be a boolean", rpath + ("eventual",))
    finite = _str_list(raw, "finite", path)
    return _build(path, ev_set, space.universe, finite, eventual, flips)


def _seq_to_json(s: Seq) -> dict:
    threads = []
    for th in s.threads:
        if isinstance(th, ConstThread):
            threads.append({"const": point_to_json(th.point)})
        else:
            threads.append({"walk": {"tail": th.tail, "a": th.a, "b": th.b}})
    return {
        "prefix": [point_to_json(p) for p in s.prefix],
        "threads": threads,
        "universe": _universe_to_json(s.universe),
    }


def _seq_from_json(raw: dict, space: Space | None, path: tuple) -> Seq:
    """An inline universe wins; the space's serves sequences without one."""
    if "universe" in raw:
        universe = from_json("universe", raw["universe"], None, path + ("universe",))
    elif space is None:
        raise ParseError("sequence needs a universe (inline or from a space)", path)
    else:
        universe = space.universe
    prefix = [
        point_from_json(p, path + ("prefix", i))
        for i, p in enumerate(_list_field(raw, "prefix", path))
    ]
    threads = []
    for i, th in enumerate(_list_field(raw, "threads", path)):
        tpath = path + ("threads", i)
        if not isinstance(th, dict):
            raise ParseError("thread must be an object", tpath)
        if "const" in th:
            threads.append(ConstThread(point_from_json(th["const"], tpath + ("const",))))
        elif "walk" in th:
            w, wpath = th["walk"], tpath + ("walk",)
            if not isinstance(w, dict):
                raise ParseError("walk must be an object", wpath)
            tail = _id_field(w, "tail", wpath)
            threads.append(WalkThread(tail, *_affine_fields(w, wpath)))
        else:
            raise ParseError("thread must be const or walk", tpath)
    return _build(path, make_seq, universe, prefix, threads)


def _map_to_json(f: SpaceMap) -> dict:
    tails = {}
    for t, img in f.on_tails:
        exc = {str(m): point_to_json(p) for m, p in img.exceptions}
        if isinstance(img, TailToTail):
            tails[t] = {"toTail": {"tail": img.tail, "a": img.a, "b": img.b}, "exceptions": exc}
        else:
            tails[t] = {"toConst": point_to_json(img.point), "exceptions": exc}
    return {
        "onPoints": {x: point_to_json(p) for x, p in f.on_points},
        "onTails": tails,
        "dom": _space_to_json(f.dom),
        "cod": _space_to_json(f.cod),
    }


# An exception key is a decimal numeral; a leading "-" is read, so that
# make_map refuses the negative index.  int() would also take spaces, "+"
# and "_".
_INDEX_KEY = re.compile(r"-?[0-9]+")


def _map_from_json(raw: dict, _, path: tuple) -> SpaceMap:
    if "dom" not in raw:
        raise ParseError("map needs a domain", path)
    if "cod" not in raw:
        raise ParseError("map needs a codomain", path)
    dom = from_json("space", raw["dom"], None, path + ("dom",))
    cod = from_json("space", raw["cod"], None, path + ("cod",))
    on_points = {
        x: point_from_json(p, path + ("onPoints", x))
        for x, p in _object_field(raw, "onPoints", path).items()
    }
    on_tails = {}
    written = {}
    for t, img in _object_field(raw, "onTails", path).items():
        tpath = path + ("onTails", t)
        if not isinstance(img, dict):
            raise ParseError("tail image must be an object", tpath)
        exc: dict[int, PointRef] = {}
        for m, p in _object_field(img, "exceptions", tpath).items():
            epath = tpath + ("exceptions", m)
            if not _INDEX_KEY.fullmatch(m):
                raise ParseError("exception keys are indices", epath)
            try:
                idx = int(m)
            except ValueError:  # past sys.get_int_max_str_digits(), as in read_json
                raise ParseError("exception index is too long to read", epath) from None
            # "3" and "03" name one index: a rule of the JSON keys, which
            # make_map never sees.
            if idx in exc:
                raise ParseError(f"repeated exception index {idx}", epath)
            exc[idx] = point_from_json(p, epath)
            written["onTails", t, "exceptions", str(idx)] = ("onTails", t, "exceptions", m)
        if "toTail" in img:
            tt, ttpath = img["toTail"], tpath + ("toTail",)
            if not isinstance(tt, dict):
                raise ParseError("toTail must be an object", ttpath)
            target = _id_field(tt, "tail", ttpath)
            on_tails[t] = TailToTail(target, *_affine_fields(tt, ttpath), tuple(exc.items()))
        elif "toConst" in img:
            on_tails[t] = TailToConst(
                point_from_json(img["toConst"], tpath + ("toConst",)), tuple(exc.items())
            )
        else:
            raise ParseError("tail image must be toTail or toConst", tpath)
    return _build(path, make_map, dom, cod, on_points, on_tails, written=written)


def _ext_to_json(e: ExtSpace) -> dict:
    return {"space": _space_to_json(e.space), "L": list(e.ext.limits), "D": list(e.ext.tails)}


def _ext_from_json(raw: dict, _, path: tuple) -> ExtSpace:
    if "space" not in raw:
        raise ParseError("externology needs a space", path)
    space = from_json("space", raw["space"], None, path + ("space",))
    limits, tails = _str_list(raw, "L", path), _str_list(raw, "D", path)
    return _build(path, make_ext_space, space, limits, tails)


def _pair_to_json(e: ExtSpace) -> dict:
    return {"L": list(e.ext.limits), "D": list(e.ext.tails)}


def _pair_from_json(raw: dict, space: Space, path: tuple) -> ExtSpace:
    """An externology pair kept exactly as written, not canonicalized."""
    limits, tails = _str_list(raw, "L", path), _str_list(raw, "D", path)
    if not set(limits) <= set(space.points):
        raise ParseError("L names an unknown finite point", path + ("L",))
    if not set(tails) <= set(space.tails):
        raise ParseError("D names an unknown tail", path + ("D",))
    return ExtSpace(space, Externology(tuple(limits), tuple(tails)))


def _based_to_json(b: BasedSpace) -> dict:
    return {**_space_to_json(b.space), "basePoint": b.base_point}


def _based_from_json(raw: dict, _, path: tuple) -> BasedSpace:
    space = _space_from_json(raw, None, path)
    base = raw.get("basePoint")
    if not isinstance(base, str):
        raise ParseError("based space needs a basePoint", path + ("basePoint",))
    return _build(path, make_based, space, base)


def _ideal_to_json(ideal: Ideal) -> dict:
    return {
        "carrier": ideal.carrier,
        "generators": [{"a": g.a, "b": g.b} for g in ideal.generators],
    }


def _ideal_from_json(raw: dict, _, path: tuple) -> Ideal:
    """An ideal presented by affine generators."""
    gens = []
    for i, g in enumerate(_list_field(raw, "generators", path)):
        gpath = path + ("generators", i)
        if not isinstance(g, dict):
            raise ParseError("generator must be an object", gpath)
        gens.append(_build(gpath, Affine, *_affine_fields(g, gpath)))
    return _build(path, make_ideal, raw.get("carrier"), gens)


def _conv_to_json(ce: ConvElem) -> dict:
    return {"seq": _seq_to_json(ce.seq), "limit": point_to_json(ce.limit)}


def _conv_from_json(raw: dict, space: Space | None, path: tuple) -> ConvElem:
    seq = from_json("seq", raw.get("seq"), space, path + ("seq",))
    limit = point_from_json(raw.get("limit"), path + ("limit",))
    _build(path, seq.universe.check_ref, limit, ("limit",))
    return ConvElem(seq, limit)


# kind -> (noun, the entity type written as this kind or None, writer,
# reader).  "pair" is an externology pair as written; a universe is read
# only inside a sequence.
KINDS = {
    "space": ("space", Space, _space_to_json, _space_from_json),
    "universe": ("universe", None, _universe_to_json, _universe_from_json),
    "set": ("evset", EvSet, _evset_to_json, _evset_from_json),
    "seq": ("sequence", Seq, _seq_to_json, _seq_from_json),
    "map": ("map", SpaceMap, _map_to_json, _map_from_json),
    "ext": ("externology", ExtSpace, _ext_to_json, _ext_from_json),
    "pair": ("externology pair", None, _pair_to_json, _pair_from_json),
    "ideal": ("ideal", None, _ideal_to_json, _ideal_from_json),
    "conv": ("convergent element", None, _conv_to_json, _conv_from_json),
    "based": ("based space", BasedSpace, _based_to_json, _based_from_json),
}
ENTITY_KINDS = {typ: kind for kind, (_, typ, _, _) in KINDS.items() if typ is not None}


def _a(noun: str) -> str:
    """The noun with its indefinite article ("a universe": u takes "a")."""
    return f"{'an' if noun[0] in 'aeio' else 'a'} {noun}"


def to_json(kind: str, value) -> Any:
    return KINDS[kind][2](value)


def from_json(kind: str, raw: Any, space: Space | None = None, path: tuple = ()):
    """Read `raw` as `kind`; a set or pair is read against `space`, and so
    are a sequence or convergent element without an inline universe."""
    noun, _, _, reader = KINDS[kind]
    if space is None and kind in ("set", "pair"):
        raise ParseError(f"{_a(noun)} follows the space it lives over", path)
    if not isinstance(raw, dict):
        raise ParseError(f"{noun} must be an object", path)
    return reader(raw, space, path)


def entity_to_json(entity) -> dict:
    kind = ENTITY_KINDS.get(type(entity))
    if kind is None:
        raise PresentationError(f"cannot serialize {type(entity).__name__}")
    return to_json(kind, entity)


_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")
_SURROGATE = re.compile("[\ud800-\udfff]")


def read_json(path: str | Path) -> Any:
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ParseError(f"no such file: {p}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {p}: {exc}") from exc
    # json.loads would keep the last value of a repeated key silently.  The
    # objects that repeat one are kept as they are read, and only if there
    # are some is the tree searched, in document order, for where one sits.
    repeats: dict[int, tuple[str, dict]] = {}  # id -> (repeated key, object)

    def object_of(pairs: list) -> dict:
        obj = dict(pairs)
        if len(obj) < len(pairs):
            seen = set()
            for key, _ in pairs:
                if key in seen:
                    break
                seen.add(key)
            repeats[id(obj)] = (key, obj)
        return obj

    try:
        tree = json.loads(text, object_pairs_hook=object_of)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{p}: invalid JSON: {exc}") from exc
    except RecursionError:
        raise ParseError(f"{p}: invalid JSON: nested too deeply") from None
    except ValueError:  # int() refuses a numeral past sys.get_int_max_str_digits()
        raise ParseError(f"{p}: invalid JSON: an integer is too long to read") from None
    # A \uD800-\uDFFF escape outside a pair reads as a lone surrogate, a
    # string no UTF-8 output can print.  Only text with such an escape is
    # searched for one.
    surrogates = _SURROGATE_ESCAPE.search(text) is not None
    if not repeats and not surrogates:
        return tree
    # A repeating object whose value was overwritten is not in the tree, but
    # the one that overwrote it repeats a key and is.  An object's key is
    # met with its value, so the search runs in document order.
    stack = [((), tree)]
    while stack:
        where, node = stack.pop()
        key = where[-1] if where else None
        if surrogates and isinstance(key, str) and _SURROGATE.search(key):
            raise ParseError(f"key {key!r} holds a lone surrogate", (str(p), *where[:-1]))
        if id(node) in repeats:
            raise ParseError(f"repeated key {repeats[id(node)][0]!r}", (str(p), *where))
        if surrogates and isinstance(node, str) and _SURROGATE.search(node):
            raise ParseError(f"string {node!r} holds a lone surrogate", (str(p), *where))
        if isinstance(node, (dict, list)):
            items = node.items() if isinstance(node, dict) else enumerate(node)
            stack += reversed([(where + (k,), v) for k, v in items])
    return tree


def parse_entity(path: str | Path):
    """Sniff and validate one entity file; raises ParseError with a field path."""
    return entity_from_json(read_json(path), (str(path),))


def entity_kind(raw: Any, path: tuple) -> str:
    """Which entity shape a JSON object presents, judged by its fields."""
    if not isinstance(raw, dict):
        raise ParseError("entity must be a JSON object", path)
    kind = _shape(raw)
    if kind is None:
        raise ParseError("unrecognized entity shape", path)
    return kind


def _shape(raw: Any) -> str | None:
    """The entity shape of a JSON object by its fields, or None."""
    if not isinstance(raw, dict):
        return None
    if "minOpen" in raw or ("points" in raw and "L" not in raw and "threads" not in raw):
        return "space"
    if "L" in raw or "D" in raw:
        return "ext"
    if "threads" in raw:
        return "seq"
    if "onPoints" in raw or "onTails" in raw:
        return "map"
    if "finite" in raw:
        return "set"
    return None


def entity_from_json(raw: Any, path: tuple = ()):
    """One entity, sniffed; a space with a basePoint is read as a based space."""
    kind = entity_kind(raw, path)
    if kind == "set":
        raise ParseError("evsets are parsed against a space; use eval with a space file", path)
    if kind == "space" and "basePoint" in raw:
        kind = "based"
    return from_json(kind, raw, None, path)


# -- typed argument lists ----------------------------------------------------
# Sets, pairs and sequences without an inline universe are read against the
# nearest preceding space (a "space", or the space of an "ext" or "based").
# A last kind ending in "*" takes any number of arguments.

# The entity shape a file of each kind must have, where the shape is sniffable.
# A set or pair need not carry the field its shape is known by (`{}` is the
# empty set), so for these only the shape of another entity is refused.
_SHAPES = {
    "space": "space", "based": "space", "ext": "ext", "seq": "seq", "map": "map",
    "set": "set", "pair": "ext",
}  # fmt: skip
_UNMARKED = ("set", "pair")


def _expand(kinds: tuple[str, ...], count: int) -> list[str]:
    rest = kinds[-1][:-1] if kinds and kinds[-1].endswith("*") else None
    fixed = list(kinds[:-1] if rest else kinds)
    if count < len(fixed) or (rest is None and count > len(fixed)):
        raise ParseError(f"expected {len(fixed)}{'+' if rest else ''} argument(s): {' '.join(kinds)}")
    return fixed + [rest] * (count - len(fixed))


def args_to_json(kinds: tuple[str, ...], args) -> list:
    return [to_json(kind, a) for kind, a in zip(_expand(kinds, len(args)), args)]


def args_from_json(kinds: tuple[str, ...], raws: Any, names: list[str] | None = None) -> list:
    """Decode an argument list by kinds; `names` label the arguments in errors."""
    if not isinstance(raws, list):
        raise ParseError("arguments must be a list")
    out, space = [], None
    for i, (kind, raw) in enumerate(zip(_expand(kinds, len(raws)), raws)):
        path = (names[i] if names else i,)
        if kind in _SHAPES:
            found = _shape(raw) if kind in _UNMARKED else entity_kind(raw, path)
            if found not in (_SHAPES[kind], None):
                expected, got = _a(KINDS[kind][0]), _a(KINDS[found][0])
                raise ParseError(f"expected {expected}, found {got}", path)
        value = from_json(kind, raw, space, path)
        if kind in ("space", "ext", "based"):
            space = value if kind == "space" else value.space
        out.append(value)
    return out


# -- the canonical writer ------------------------------------------------------
# The text json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False)
# writes, built in one pass: with an indent, json.dumps runs its pure-Python
# encoder, a generator frame per container.  Its rules are kept exactly.

_escape = json.encoder.encode_basestring  # the C escaper json.dumps uses here
_INF = float("inf")


def _scalar_text(x: Any) -> str | None:
    """None, a bool, an int or a float as json writes it, as a value or a
    key, or None for any other value; bool is tested before int."""
    if x is None:
        return "null"
    if x is True:
        return "true"
    if x is False:
        return "false"
    if isinstance(x, int):
        return int.__repr__(x)
    if isinstance(x, float):
        if x != x:
            return "NaN"
        if x == _INF:
            return "Infinity"
        if x == -_INF:
            return "-Infinity"
        return float.__repr__(x)
    return None


def _key_text(key: Any) -> str:
    text = _scalar_text(key)
    if text is None:
        raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")
    return text


def _text(obj: Any, indent: str) -> str:
    """`obj` as canonical JSON; `indent` is the newline and indent its own
    line starts with.  A string item is escaped inline, the common case, so
    most calls are for containers, which are tested first, a plain dict or
    list by its type and a subclass or tuple by isinstance; the types
    tested are disjoint.  A list of ids, the commonest list, is written in
    one join."""
    cls = type(obj)
    if cls is dict or cls is not list and isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = indent + "  "
        # Sorted by the keys as given, before they are written as strings.
        # A loop, not a comprehension: most objects here hold one to three
        # items, and the comprehension's own frame costs more than they do.
        items = []
        for k, v in sorted(obj.items()):
            key = _escape(k if isinstance(k, str) else _key_text(k))
            items.append(key + ": " + (_escape(v) if type(v) is str else _text(v, inner)))
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if cls is list or isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = indent + "  "
        for v in obj:
            if type(v) is not str:
                items = [_escape(v) if type(v) is str else _text(v, inner) for v in obj]
                break
        else:
            items = map(_escape, obj)
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    if isinstance(obj, str):
        return _escape(obj)
    text = _scalar_text(obj)
    if text is None:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
    return text


def canonical_dumps(obj: Any) -> str:
    """Sorted keys, a two-space indent, non-ASCII kept, and a final newline."""
    return _text(obj, "\n") + "\n"
