"""Every predicate a suite yields is registered, and its witnesses re-run
standalone through the same function after a JSON round trip.  The
wrong decider of the tests (`support.MUTANT`) is registered with its
suite, so its witnesses are checked the same way.  A malformed witness
is refused with an error, not a crash."""

import json

import pytest

from extseq import suites
from extseq.errors import ParseError, PresentationError
from extseq.exteriority import ExtSpace, Externology, coreflect
from extseq.instances import nat_plus_space
from extseq.serial import args_from_json, args_to_json, canonical_dumps
from extseq.suites import PREDICATES, SUITES, recheck_witness, run_suites
from support import MUTANT, register_mutant


@pytest.fixture(scope="module")
def forced_witnesses():
    """Run every suite, small, with each predicate negated: every case the
    real predicate passes becomes a failure carrying its arguments."""
    mp = pytest.MonkeyPatch()
    try:
        register_mutant(mp)
        originals = dict(PREDICATES)
        mp.setattr(suites, "SUITE_INSTANCES", 12)
        mp.setattr(suites, "GLUE_INSTANCES", 3)
        for name, (fn, kinds) in originals.items():
            mp.setitem(PREDICATES, name, (lambda *a, fn=fn: not fn(*a), kinds))
        first = {}
        for name in SUITES:
            report = run_suites([name], seed=7, samples=16)[0]
            assert report.failed == len(report.witnesses)
            for w in report.witnesses:
                first.setdefault(w["predicate"], json.loads(canonical_dumps(w)))
        forced = {name: PREDICATES[name] for name in originals}
    finally:
        mp.undo()
    return first, forced


@pytest.mark.usefixtures("mutant_suite")
def test_every_yielded_predicate_is_registered(forced_witnesses):
    first, _ = forced_witnesses
    assert set(first) == set(PREDICATES)
    assert MUTANT in first


@pytest.mark.usefixtures("mutant_suite")
@pytest.mark.parametrize("name", sorted({*PREDICATES, MUTANT}))
def test_forced_failure_rechecks_false(name, forced_witnesses, monkeypatch):
    first, forced = forced_witnesses
    witness = first[name]
    kinds = PREDICATES[name][1]
    # Decoding loses nothing: the decoded arguments encode back to the witness.
    assert args_to_json(kinds, args_from_json(kinds, witness["args"])) == witness["args"]
    # Through the real predicate the case holds; through the negated one
    # the recorded failure reproduces.
    assert recheck_witness(witness) is True
    monkeypatch.setitem(PREDICATES, name, forced[name])
    assert recheck_witness(witness) is False


@pytest.mark.parametrize("witness", [[], "x", None, {"predicate": ["a"]}])
def test_recheck_refuses_a_malformed_witness(witness):
    with pytest.raises(ParseError) as err:
        recheck_witness(witness)
    assert err.value.path == ("predicate",)


def test_recheck_refuses_an_unknown_predicate():
    with pytest.raises(PresentationError, match="unknown witness predicate"):
        recheck_witness({"predicate": "no-such-predicate", "args": []})


def test_pair_kind_keeps_a_raw_externology():
    space = nat_plus_space()
    raw = ExtSpace(space, Externology(("inf",), ()))
    assert coreflect(raw) != raw  # canonical form adds the captured tail
    doc = json.loads(canonical_dumps(args_to_json(("space", "pair"), (space, raw))))
    assert args_from_json(("space", "pair"), doc) == [space, raw]
