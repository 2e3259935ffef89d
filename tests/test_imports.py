"""Module layout: every import sits at module level, the map deciders
depend on the externologies, never the other way round, and read them as
masks (no exterior space, canonical pair or set is built in `maps` but a
preimage, and `sheaves` builds a canonical pair only to sample), only `spaces`
touches the name-level read-outs of a space, only the outside entries
validate a presentation or build a set through `ev_set`, `serial` leaves
the presentation rules to the constructors and reads every argument kind
named elsewhere, `canonical_dumps` is the package's only JSON writer, no
public function lives for the tests alone (their constructions, oracles
and named instances are in `support.py`, and the few public functions
with no caller are listed with the reason each stays), every defaulted
parameter is passed by some call, no record is made of closures, every
dataclass with a slot beyond its fields reduces to its fields, a
`_masks` slot starts at None and only the two mask readers fill it, only
a class's `__init__` calls the setters of its field slots, no functools
cache lives in the package but the three name caches of `spaces`, in
`suites` only `_check` (and `recheck_witness`, for a witness) calls a
registered predicate, and only the three draw kernels of `generate` loop
on `getrandbits`."""

import ast
import dataclasses
import importlib
import inspect
import json
import subprocess
import sys
from pathlib import Path

import extseq
from extseq.cli import EVAL_OPS
from extseq.serial import KINDS
from extseq.suites import PREDICATES

PACKAGE = Path(extseq.__file__).parent
BENCH = Path(__file__).resolve().parents[1] / "perfbench"
TESTS = Path(__file__).resolve().parent


def parsed_modules():
    for path in sorted(PACKAGE.glob("*.py")):
        yield path.stem, ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_no_function_level_imports():
    found = []
    for name, tree in parsed_modules():
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(fn):
                    if isinstance(node, (ast.Import, ast.ImportFrom)):
                        found.append(f"{name}.{fn.name}:{node.lineno}")
    assert found == []


def imported_modules(tree) -> set[str]:
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                out.add(f"extseq.{node.module}" if node.module else "extseq")
                if not node.module:
                    out |= {f"extseq.{alias.name}" for alias in node.names}
            else:
                out.add(node.module)
    return out


def test_exteriority_does_not_import_maps():
    modules = dict(parsed_modules())
    assert "extseq.exteriority" in imported_modules(modules["maps"])
    assert "extseq.maps" not in imported_modules(modules["exteriority"])


def calls_by_scope(tree, names: set[str]) -> set[tuple[str, str]]:
    """(scope, name) of every call of one of `names`, by name or attribute,
    the scope being the innermost enclosing def, qualified by its class."""
    out = set()

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                walk(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            if isinstance(child, ast.Call):
                fn = child.func
                called = fn.id if isinstance(fn, ast.Name) else getattr(fn, "attr", None)
                if called in names:
                    out.add((scope or "<module>", called))
            walk(child, scope)

    walk(tree, "")
    return out


def test_map_and_sheaf_deciders_read_exteriority_on_masks():
    # The map deciders read each pair as masks (`_pair_masks`,
    # `_canonical_masks`, the cocompact (0, unattached)), and the pullback
    # reads the preimage's flags, so `maps` builds an EvSet only in
    # `preimage` and no exterior space, externology or canonical pair at
    # all; `Sigma.e_member` reads the same mask rule, so `sheaves` builds
    # a canonical pair only to draw from it.
    modules = dict(parsed_modules())
    built = {"ExtSpace", "Externology", "coreflect", "cocompact_ext_space", "EvSet"}
    assert calls_by_scope(modules["maps"], built) == {("preimage", "EvSet")}
    assert calls_by_scope(modules["sheaves"], {"coreflect"}) == {("Sigma.e_sample", "coreflect")}


def test_only_spaces_reads_spaces_by_name():
    helpers = {"min_open_map", "attach_map", "captures"}
    found = []
    for name, tree in parsed_modules():
        if name == "spaces":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                used = {alias.name for alias in node.names}
            elif isinstance(node, ast.Name):
                used = {node.id}
            elif isinstance(node, ast.Attribute):
                used = {node.attr}
            else:
                continue
            found += [f"{name}:{node.lineno}:{h}" for h in used & helpers]
    assert found == []


def test_only_outside_entries_validate():
    # Generated, named and parsed presentations are checked once, where they
    # enter; spaces derived from them (subspace, the one-point constructions,
    # bar) are built without a second check, and so are derived sets (a
    # preimage, a basic neighborhood, a base member), in canonical form.
    entries = {"generate", "instances", "serial", "cli"}
    found = []
    for name, tree in parsed_modules():
        if name in entries:
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                fn = node.func
                called = fn.id if isinstance(fn, ast.Name) else getattr(fn, "attr", None)
                if called in ("validate_space", "ev_set"):
                    found.append(f"{name}:{node.lineno}")
    assert found == []


def test_serial_leaves_presentation_rules_to_the_constructors():
    # serial checks JSON types and shapes.  Each presentation rule is
    # checked once, by its constructor, which names the field; one wrapper
    # reads that field under the path of what was parsed.
    tree = dict(parsed_modules())["serial"]
    assert names_used(tree) & {"has_point", "has_tail"} == set()
    handlers = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.ExceptHandler)
        and getattr(node.type, "id", None) == "PresentationError"
    ]
    assert len(handlers) == 1


def test_canonical_dumps_is_the_only_json_writer():
    # Every JSON text the package writes is canonical (sorted keys, a
    # two-space indent, non-ASCII kept), and written by serial's own writer.
    found = []
    for name, tree in parsed_modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "json":
                used = {alias.name for alias in node.names}
            elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "json":
                used = {node.attr}
            else:
                continue
            if used & {"dump", "dumps"}:
                found.append(f"{name}:{node.lineno}")
    assert found == []


# The draw kernels of `generate`: each writes out `_randbelow` on a bound
# `getrandbits` and stays for its measured saving over the stdlib call.
DRAW_KERNELS = {"_point_code", "_draw_seq", "_flips"}


def _draws_bits(node) -> bool:
    return isinstance(node, ast.Call) and (
        getattr(node.func, "id", None) == "bits"
        or getattr(node.func, "attr", None) == "getrandbits"
    )


def test_only_the_draw_kernels_write_out_a_draw():
    # A stream is pinned by its `_randbelow` draws.  Every draw is a
    # `random.Random` method call (`randrange`, `choice`, `sample`) except
    # in the kernels: only `generate` reads `getrandbits`, and only the
    # kernels loop on it.
    readers, loops = set(), set()
    for name, tree in parsed_modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "getrandbits":
                readers.add(name)
            if isinstance(node, ast.FunctionDef) and any(
                isinstance(loop, ast.While) and any(map(_draws_bits, ast.walk(loop)))
                for loop in ast.walk(node)
            ):
                loops.add(f"{name}.{node.name}")
    assert readers == {"generate"}
    assert loops == {f"generate.{fn}" for fn in DRAW_KERNELS}


# The functions of `suites` that call a registered predicate.
CASE_DECIDERS = {"_check", "recheck_witness"}


def test_only_check_decides_a_case():
    # One case path: outside CASE_DECIDERS, `suites` only registers a
    # predicate (`PREDICATES[name] = ...`) or reads its argument kinds
    # (`PREDICATES[name][1]`), so no other function can take the callable
    # out of PREDICATES or call it.
    tree = dict(parsed_modules())["suites"]
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    readers = set()
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Name) and node.id == "PREDICATES"):
            continue
        if isinstance(node.ctx, ast.Store):
            continue
        outer, inner = parents.get(parents[node]), parents[node]
        if isinstance(inner, ast.Subscript) and inner.value is node:
            if isinstance(inner.ctx, ast.Store):
                continue
            if (
                isinstance(outer, ast.Subscript)
                and outer.value is inner
                and isinstance(outer.slice, ast.Constant)
                and outer.slice.value == 1
            ):
                continue
        scope = node
        while scope in parents and not isinstance(scope, ast.FunctionDef):
            scope = parents[scope]
        readers.add(getattr(scope, "name", "<module>"))
    assert readers == CASE_DECIDERS


def test_argument_kinds_are_serial_kinds():
    # A mistyped kind would otherwise fail only when a witness is written.
    named = {kind for _, kinds in PREDICATES.values() for kind in kinds}
    named |= {kind for kinds, _, _ in EVAL_OPS.values() for kind in kinds}
    named = {kind.rstrip("*") for kind in named}
    assert "conv" in named and "based" in named
    assert sorted(named - KINDS.keys()) == []


# Public functions that nothing in the package or the benchmark names, and
# why each stays.
WITHOUT_CALLER = {
    "spaces.subspace": "reported by the benchmark's tracer",
    "maps.is_exterior_map": "the exterior-map decider; map_properties shares its pullback",
    "maps.is_e_sequential_map": "sequence-route oracle for is_exterior_map",
    "exteriority.exterior_base": "the base E*_k; oracle for the filter pullback",
    "exteriority.base_index_for": "oracle for the base index of a filter member",
    "sheaves.sigma_map": "the presheaf functor on maps, checked with c_map_check",
    "sheaves.c_map_check": "equivariance and naturality squares of a presheaf map",
    "suites.recheck_witness": "reads the witness format that a failing case writes",
}


def public_functions():
    """(module, name) of each public function a module defines, as the
    benchmark's tracer counts them: generators excepted."""
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "__init__":
            continue
        module = importlib.import_module(f"extseq.{path.stem}")
        for name, fn in vars(module).items():
            if (
                not name.startswith("_")
                and inspect.isfunction(fn)
                and fn.__module__ == module.__name__
                and not inspect.isgeneratorfunction(fn)
            ):
                yield path.stem, name


def names_used(tree, skip: str | None = None) -> set[str]:
    """Every name a tree reads or imports, outside the top-level def `skip`."""
    out = set()
    for top in tree.body:
        if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)) and top.name == skip:
            continue
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                out.add(node.id)
            elif isinstance(node, ast.Attribute):
                out.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                out |= {alias.name for alias in node.names}
    return out


def test_public_functions_have_a_caller():
    # A re-export from the package root is not a caller.
    trees = {name: tree for name, tree in parsed_modules() if name != "__init__"}
    bench = set()
    for path in sorted(BENCH.glob("*.py")):
        bench |= names_used(ast.parse(path.read_text(encoding="utf-8")))
    others = {name: names_used(tree) for name, tree in trees.items()}
    uncalled = set()
    for module, fn in public_functions():
        elsewhere = [bench, names_used(trees[module], skip=fn)]
        elsewhere += [used for m, used in others.items() if m != module]
        if not any(fn in used for used in elsewhere):
            uncalled.add(f"{module}.{fn}")
    assert sorted(uncalled - WITHOUT_CALLER.keys()) == []
    # Every listed function exists and still has no caller.
    assert sorted(WITHOUT_CALLER.keys() - uncalled) == []


def defaulted_parameters():
    """(module, function, parameter, position) of each parameter with a
    default of a module-level function; keyword-only ones have no position."""
    for name, tree in parsed_modules():
        for top in tree.body:
            if not isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            a = top.args
            positional = [p.arg for p in a.posonlyargs + a.args]
            for i in range(len(positional) - len(a.defaults), len(positional)):
                yield name, top.name, positional[i], i
            for p, d in zip(a.kwonlyargs, a.kw_defaults):
                if d is not None:
                    yield name, top.name, p.arg, None


def test_defaulted_parameters_are_passed():
    # A default that no call overrides is a constant dressed as a parameter.
    # Tests count as callers: only the pinned stream digest sets some of them.
    calls: dict[str, list[ast.Call]] = {}
    for folder in (PACKAGE, BENCH, TESTS):
        for path in sorted(folder.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Call):
                    fn = node.func
                    called = fn.id if isinstance(fn, ast.Name) else getattr(fn, "attr", None)
                    calls.setdefault(called, []).append(node)

    def passes(call, param, position):
        if any(isinstance(arg, ast.Starred) for arg in call.args):
            return True
        if any(kw.arg is None or kw.arg == param for kw in call.keywords):
            return True
        return position is not None and len(call.args) > position

    unpassed = [
        f"{module}.{fn}({param})"
        for module, fn, param, position in defaulted_parameters()
        if not any(passes(call, param, position) for call in calls.get(fn, []))
    ]
    assert unpassed == []


def _is_dataclass(cls: ast.ClassDef) -> bool:
    for deco in cls.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def test_no_dataclass_holds_callables():
    # A record of closures is an interface with one implementation: a value
    # with methods says the same, compares equal and hashes.  A presheaf map
    # stays one, because the tests hand c_map_check broken components.
    allowed = {"sheaves.CMap"}
    found = set()
    for name, tree in parsed_modules():
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef) or not _is_dataclass(cls):
                continue
            for stmt in cls.body:
                if isinstance(stmt, ast.AnnAssign) and any(
                    getattr(node, "id", getattr(node, "attr", None)) == "Callable"
                    for node in ast.walk(stmt.annotation)
                ):
                    found.add(f"{name}.{cls.name}")
    assert sorted(found - allowed) == []
    # The exception still exists and still needs to be one.
    assert found == allowed


def test_dataclasses_with_a_slot_beyond_their_fields_reduce_to_their_fields():
    # Without slots=True a frozen dataclass gets no __getstate__, and copy
    # and pickle restore its slots by setattr, which it refuses.
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module(f"extseq.{path.stem}")
        for cls in vars(module).values():
            if not (
                inspect.isclass(cls)
                and cls.__module__ == module.__name__
                and dataclasses.is_dataclass(cls)
            ):
                continue
            fields = {f.name for f in dataclasses.fields(cls)}
            if set(cls.__dict__.get("__slots__", ())) - fields:
                found[f"{path.stem}.{cls.__name__}"] = "__reduce__" in cls.__dict__
    assert found == {"core.EvSet": True, "exteriority.ExtSpace": True, "spaces.Space": True}


def _is_masks_setter(node) -> bool:
    """`X._masks.__set__`: a `_masks` slot's own setter."""
    return (
        isinstance(node, ast.Attribute)
        and node.attr == "__set__"
        and getattr(node.value, "attr", None) == "_masks"
    )


def _masks_writes(tree, setters, scope=()):
    """(`Class.function`, the value written) of each write of a `_masks`
    slot: by assignment, by a setattr call that names it, or by a call of
    one of the slot setters bound in `setters`.  The value is the constant
    written, or "masks" for anything else."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _masks_writes(node, setters, (*scope, node.name))
            continue
        for sub in ast.walk(node):
            value = None
            if isinstance(sub, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = sub.targets if isinstance(sub, ast.Assign) else [sub.target]
                if any(getattr(t, "attr", None) == "_masks" for t in targets):
                    value = sub.value
            elif isinstance(sub, ast.Call):
                if len(sub.args) == 3 and getattr(sub.args[1], "value", None) == "_masks":
                    value = sub.args[2]
                elif len(sub.args) == 2 and (
                    getattr(sub.func, "id", None) in setters or _is_masks_setter(sub.func)
                ):
                    value = sub.args[1]
            if value is not None:
                yield ".".join(scope), getattr(value, "value", "masks")


def test_only_the_mask_readers_write_a_masks_slot():
    # Each class binds its slot's setter once, at module level; `__init__`
    # starts the slot at None, and only the two readers fill it.
    bound = {
        f"{name}.{target.id}"
        for name, tree in parsed_modules()
        for node in tree.body
        if isinstance(node, ast.Assign) and _is_masks_setter(node.value)
        for target in node.targets
    }
    assert bound == {"core._store_masks", "exteriority._store_pair_masks"}
    setters = {b.split(".")[1] for b in bound}
    found = {
        (f"{name}.{fn}", value)
        for name, tree in parsed_modules()
        for fn, value in _masks_writes(tree, setters)
    }
    assert found == {
        ("core.EvSet.__init__", None),
        ("exteriority.ExtSpace.__init__", None),
        ("spaces.CompiledSpace.read", "masks"),
        ("exteriority._pair_masks", "masks"),
    }


def _slot_setter(node):
    """(`X`, `<field>`) of `X.<field>.__set__`, a slot's own setter, or None."""
    if (
        isinstance(node, ast.Attribute)
        and node.attr == "__set__"
        and isinstance(node.value, ast.Attribute)
        and isinstance(node.value.value, ast.Name)
    ):
        return node.value.value.id, node.value.attr
    return None


def _scoped(tree, scope=()):
    """Each node under `tree` with the names of the classes and functions
    around it."""
    for node in ast.iter_child_nodes(tree):
        yield scope, node
        inner = scope
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = (*scope, node.name)
        yield from _scoped(node, inner)


def test_only_init_calls_a_field_setter():
    # A field slot's own setter writes a frozen instance, so each class
    # binds its field setters once, at module level, and only its
    # `__init__` reads them: by name, as a module attribute, or by import.
    bound = {}
    for name, tree in parsed_modules():
        for node in tree.body:
            slot = isinstance(node, ast.Assign) and _slot_setter(node.value)
            if slot and slot[1] != "_masks":
                for target in node.targets:
                    bound[target.id] = (name, f"{slot[0]}.__init__")
    assert bound == {
        "_set_point_id": ("core", "FinitePoint.__init__"),
        "_set_point_tail": ("core", "TailPoint.__init__"),
        "_set_point_index": ("core", "TailPoint.__init__"),
        "_set_universe": ("core", "EvSet.__init__"),
        "_set_finite": ("core", "EvSet.__init__"),
        "_set_rows": ("core", "EvSet.__init__"),
        "_set_space": ("exteriority", "ExtSpace.__init__"),
        "_set_ext": ("exteriority", "ExtSpace.__init__"),
        "_set_affine_a": ("sequences", "Affine.__init__"),
        "_set_affine_b": ("sequences", "Affine.__init__"),
        "_set_const_point": ("sequences", "ConstThread.__init__"),
        "_set_walk_tail": ("sequences", "WalkThread.__init__"),
        "_set_walk_a": ("sequences", "WalkThread.__init__"),
        "_set_walk_b": ("sequences", "WalkThread.__init__"),
        "_set_seq_universe": ("sequences", "Seq.__init__"),
        "_set_seq_prefix": ("sequences", "Seq.__init__"),
        "_set_seq_threads": ("sequences", "Seq.__init__"),
    }
    found = set()
    for name, tree in parsed_modules():
        for scope, node in _scoped(tree):
            where = (name, ".".join(scope))
            if isinstance(node, ast.Name) and node.id in bound and isinstance(node.ctx, ast.Load):
                found.add((node.id, where))
            elif isinstance(node, ast.Attribute) and node.attr in bound:
                found.add((node.attr, ("attribute", *where)))
            elif isinstance(node, ast.ImportFrom):
                found |= {(a.name, ("import", *where)) for a in node.names if a.name in bound}
            slot = _slot_setter(node)
            if slot and slot[1] != "_masks" and scope:
                found.add((f"{slot[0]}.{slot[1]}.__set__", where))
    assert found == set(bound.items())


# Run in a fresh interpreter with perfbench/ on sys.path, as the benchmark
# runs: every module loads, and every function the tracer reports one by
# one is still defined by its layer.
_BENCH_PROBE = """
import importlib, json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
for name in ("run", "workloads", "tracer", "digests"):
    importlib.import_module(name)
from tracer import REPORTED
missing = [
    f"{layer}.{fn}"
    for layer, names in REPORTED.items()
    for fn in names
    if not callable(getattr(importlib.import_module("extseq." + layer), fn, None))
]
print(json.dumps({"layers": sorted(REPORTED), "missing": missing}))
"""


def test_benchmark_loads_and_finds_its_reported_functions():
    done = subprocess.run(
        [sys.executable, "-c", _BENCH_PROBE, str(BENCH), str(PACKAGE.parent)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    found = json.loads(done.stdout.splitlines()[-1])
    assert "maps" in found["layers"] and found["missing"] == []


_CACHES = {"lru_cache", "cache", "cached_property"}

# `perfbench` binds them as CACHES; ROADMAP item 1 removes them.
ALLOWED_CACHES = {"spaces.min_open_map", "spaces.attach_map", "spaces.captures"}


def process_wide_caches():
    """`module.name` of each functools cache in the package, used as a
    decorator or called: the decorated function, or the name the cached
    value is assigned to (the line number when there is none)."""
    for module, tree in parsed_modules():
        imported = {
            alias.asname or alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "functools"
            for alias in node.names
            if alias.name in _CACHES
        }
        owners = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                parts, owner = node.decorator_list, node.name
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                parts = [node.value] if node.value else []
                owner = ",".join(t.id for t in targets if isinstance(t, ast.Name))
            else:
                continue
            for part in parts:
                for sub in ast.walk(part):
                    owners.setdefault(id(sub), owner)
        for node in ast.walk(tree):
            named = (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "functools"
                and node.attr in _CACHES
            ) or (isinstance(node, ast.Name) and node.id in imported)
            if named:
                yield f"{module}.{owners.get(id(node), node.lineno)}"


def test_no_process_wide_cache_but_the_name_caches():
    # A cache keyed by equal values serves one caller's objects to another,
    # and lives as long as the process; a derived value lives on the object
    # it is derived from (`CompiledSpace.converging`, `.plus`).
    assert sorted(process_wide_caches()) == sorted(ALLOWED_CACHES)
