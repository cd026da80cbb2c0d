"""Formula nodes compute their structural hash once.

``repro.utils.hash_once`` caches the first hash of every FO node (``Atom``
through ``Exists``) and propositional node (``PVar``, ``PNot``, ``PAnd``,
``POr``) in the instance ``__dict__``.  String hashes are salted per
process, so the cache must not travel: pickles and copies drop it, and a
node unpickled under another ``PYTHONHASHSEED`` must still be found in a
dict keyed by a freshly parsed equal node.
"""

import copy
import dataclasses
import os
import pickle
import subprocess
import sys
import threading

import pytest

from repro.grounding.lineage import lineage
from repro.logic.parser import parse
from repro.logic.syntax import And, Atom, Formula, Not, Or, Var
from repro.propositional.formula import PAnd, PFormula, PNot, POr, PVar

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SENTENCE = "forall x. exists y. ((R(x, y) & ~S(y)) | (T(x) <-> R(y, x)))"


def _nodes(root):
    """Every formula node reachable from ``root`` through its fields."""
    found = []
    stack = [root]
    while stack:
        node = stack.pop()
        if isinstance(node, tuple):
            stack.extend(node)
        elif isinstance(node, (Formula, PFormula)):
            found.append(node)
            stack.extend(getattr(node, f.name) for f in dataclasses.fields(node))
    return found


def _cached(root):
    return [node for node in _nodes(root) if "_hash" in node.__dict__]


def _formulas():
    sentence = parse(SENTENCE)
    return [sentence, lineage(sentence, 2)]


class TestCache:
    @pytest.mark.parametrize("index", [0, 1], ids=["fo", "propositional"])
    def test_first_hash_caches_every_node_and_changes_nothing_else(self, index):
        formula = _formulas()[index]
        fields = [f.name for f in dataclasses.fields(formula)]
        text = repr(formula)
        value = hash(formula)
        assert _cached(formula)
        assert hash(formula) == value
        assert [f.name for f in dataclasses.fields(formula)] == fields
        assert repr(formula) == text
        assert formula == _formulas()[index]

    @pytest.mark.parametrize("roundtrip", [
        lambda f: pickle.loads(pickle.dumps(f)),
        copy.deepcopy,
        copy.copy,
    ], ids=["pickle", "deepcopy", "copy"])
    @pytest.mark.parametrize("index", [0, 1], ids=["fo", "propositional"])
    def test_roundtrip_carries_no_cached_hash(self, index, roundtrip):
        formula = _formulas()[index]
        value = hash(formula)
        clone = roundtrip(formula)
        assert "_hash" not in clone.__dict__
        if roundtrip is not copy.copy:  # a shallow copy shares children
            assert not _cached(clone)
        assert clone == formula
        assert hash(clone) == value


_PRODUCER = """
import pickle, sys
from repro.grounding.lineage import lineage
from repro.logic.parser import parse
sentence = parse(sys.argv[1])
formulas = (sentence, lineage(sentence, 2))
for f in formulas:
    hash(f)
sys.stdout.buffer.write(pickle.dumps(formulas))
"""

_CONSUMER = """
import pickle, sys
from repro.grounding.lineage import lineage
from repro.logic.parser import parse
loaded = pickle.loads(sys.stdin.buffer.read())
sentence = parse(sys.argv[1])
fresh = {sentence: "fo", lineage(sentence, 2): "propositional"}
print(",".join(str(fresh.get(f)) for f in loaded))
"""


def _run(code, seed, stdin=b""):
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = seed
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    result = subprocess.run(
        [sys.executable, "-c", code, SENTENCE], input=stdin,
        capture_output=True, env=env, cwd=REPO_ROOT, timeout=120)
    assert result.returncode == 0, result.stderr.decode()
    return result.stdout


def test_unpickled_formula_is_found_under_another_hash_seed():
    payload = _run(_PRODUCER, "1")
    found = _run(_CONSUMER, "2", stdin=payload).decode().strip()
    assert found == "fo,propositional"


def _cold_nodes(count):
    """Shared nodes nobody has hashed yet, FO and propositional."""
    nodes = []
    for i in range(count):
        atom = Atom("R", (Var("x{}".format(i)), Var("y")))
        label = PVar(("R", (i, i + 1)))
        nodes.append(Or((And((atom, Not(atom))), atom)))
        nodes.append(POr((PAnd((label, PNot(label))), label)))
    assert not any(_cached(node) for node in nodes)
    return nodes


def test_concurrent_threads_agree_on_every_hash():
    nodes = _cold_nodes(500)
    workers = 8
    barrier = threading.Barrier(workers)
    results = [None] * workers

    def run(slot):
        barrier.wait(timeout=30)
        order = nodes if slot % 2 == 0 else nodes[::-1]
        values = {id(node): hash(node) for node in order}
        results[slot] = [values[id(node)] for node in nodes]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(slot,), daemon=True)
                   for slot in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert all(result == results[0] for result in results)
    assert results[0] == [hash(node) for node in nodes]
