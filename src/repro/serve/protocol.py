"""Wire protocol for the ``repro serve`` daemon.

Requests and responses are JSON.  Exact rationals never degrade: every
:class:`~fractions.Fraction` crosses the wire as a ``"p/q"`` string (or
``"p"`` for integers) in both directions, so a served answer is
bit-identical to the library call it stands for.

Request fields (POST bodies):

``formula`` / ``query``
    An FO sentence in the :func:`repro.logic.parse` surface syntax.
``n``
    Domain size.
``weights``
    Optional ``{"R": ["w", "wbar"], ...}`` per-predicate weight pairs;
    unnamed predicates default to ``(1, 1)`` exactly like the CLI.
``vary`` / ``values`` / ``wbar``
    Weight-sweep axis (mirrors ``repro sweep``).
``mlns``
    A list of MLNs, each a list of ``[weight, formula]`` pairs where
    ``weight`` is a fraction string or ``"hard"``.
``deadline_ms``
    Per-request wall-clock deadline, mapped onto a
    :class:`~repro.resilience.limits.Budget` by the daemon.

Error payloads are typed: ``{"ok": false, "error": {"type", "message",
"retriable"}}`` with the HTTP status carrying the family —
400 input, 429 shed (``Retry-After``), 503 draining, 504 budget,
500 internal.
"""

from __future__ import annotations

import math
from fractions import Fraction

from ..errors import (
    BudgetExceededError,
    ReproError,
    ServiceDrainingError,
    ServiceOverloadedError,
)
from ..logic import Vocabulary, WeightedVocabulary, parse
from ..weights import WeightPair

__all__ = [
    "encode_result",
    "error_body",
    "error_status",
    "parse_deadline_ms",
    "parse_domain_size",
    "parse_formula",
    "parse_mlns",
    "parse_sweep",
    "parse_weights",
]

#: Error classes whose requests are safe to resubmit verbatim.
RETRIABLE = (BudgetExceededError, ServiceOverloadedError,
             ServiceDrainingError)


def encode_result(value):
    """JSON-encodable view of a result; Fractions become ``"p/q"``."""
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, (int, float, str)):
        return value
    if isinstance(value, dict):
        return {str(k): encode_result(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [encode_result(v) for v in value]
    return str(value)


def error_status(exc):
    """The HTTP status for an exception, per the family taxonomy."""
    if isinstance(exc, ServiceOverloadedError):
        return 429
    if isinstance(exc, ServiceDrainingError):
        return 503
    if isinstance(exc, BudgetExceededError):
        return 504
    if isinstance(exc, ReproError):
        return 400
    return 500


def error_body(exc):
    """The typed JSON error payload for an exception."""
    return {
        "ok": False,
        "error": {
            "type": type(exc).__name__,
            "message": str(exc) or type(exc).__name__,
            "retriable": isinstance(exc, RETRIABLE),
        },
    }


def _require(body, field, kinds, label):
    if field not in body:
        raise ReproError("missing required field {!r}".format(field))
    value = body[field]
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise ReproError("field {!r} must be {}".format(field, label))
    return value


def _fraction(text, field):
    if isinstance(text, bool) or not isinstance(text, (str, int)):
        raise ReproError(
            "field {!r} holds a non-rational value {!r}".format(field, text))
    try:
        return Fraction(str(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise ReproError(
            "bad fraction in field {!r}: {}".format(field, exc)) from None


def parse_formula(body, memo, field="formula"):
    """``(formula, vocabulary)`` for the sentence under ``field``.

    ``vocabulary`` holds the sentence's predicates sorted by name.
    Raises typed input errors.  ``memo``, an
    :class:`~repro.utils.LRUCache`, keeps the pair per exact text, so a
    sentence sent again skips the parser; text that fails to parse is
    not kept.
    """
    text = _require(body, field, str, "a formula string")
    entry = memo.get(text)
    if entry is None:
        formula = parse(text)
        entry = (formula, Vocabulary.of_formula(formula))
        memo.put(text, entry)
    return entry


def parse_domain_size(body):
    """The ``n`` field; range validation happens in the solver."""
    return _require(body, "n", int, "an integer domain size")


def parse_deadline_ms(body, default_ms=None):
    """The per-request deadline in milliseconds, or ``default_ms``.

    ``json.loads`` accepts ``NaN``, ``Infinity`` and overflowing
    literals such as ``1e400``; like negative values and integers past
    the float range, they are typed input errors, not deadlines.
    """
    raw = body.get("deadline_ms", default_ms)
    if raw is None:
        return None
    if not isinstance(raw, bool) and isinstance(raw, (int, float)):
        try:
            value = float(raw)
        except OverflowError:
            value = math.inf
        if math.isfinite(value) and value >= 0:
            return value
    raise ReproError(
        'field "deadline_ms" must be a finite, non-negative number')


def parse_weights(vocabulary, body):
    """The request's :class:`WeightedVocabulary` (CLI-equivalent rules)
    over the sentence's ``vocabulary`` from :func:`parse_formula`."""
    weights = {name: WeightPair(1, 1) for name in vocabulary.names()}
    raw = body.get("weights") or {}
    if not isinstance(raw, dict):
        raise ReproError('field "weights" must be an object of'
                         ' NAME: [w, wbar] pairs')
    for name, pair in raw.items():
        if name not in weights:
            raise ReproError(
                "predicate {} does not occur in the sentence".format(name))
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise ReproError(
                "weight for {} must be a [w, wbar] pair".format(name))
        weights[name] = WeightPair(_fraction(pair[0], "weights"),
                                   _fraction(pair[1], "weights"))
    return WeightedVocabulary(vocabulary, weights)


def parse_sweep(vocabulary, body):
    """``(values, vocabularies)`` for a weight sweep request."""
    base = parse_weights(vocabulary, body)
    vary = _require(body, "vary", str, "a predicate name")
    if vary not in base.vocabulary:
        raise ReproError(
            "predicate {} does not occur in the sentence".format(vary))
    raw_values = _require(body, "values", (list, tuple), "a list of weights")
    if not raw_values:
        raise ReproError('field "values" must be non-empty')
    wbar = _fraction(body.get("wbar", 1), "wbar")
    values = [_fraction(v, "values") for v in raw_values]
    vocabularies = [base.with_weight(vary, WeightPair(value, wbar))
                    for value in values]
    return values, vocabularies


def parse_mlns(body):
    """The list of :class:`~repro.mln.MLN` models of a query sweep."""
    from ..mln import HARD, MLN

    raw = _require(body, "mlns", (list, tuple), "a list of MLNs")
    if not raw:
        raise ReproError('field "mlns" must be non-empty')
    mlns = []
    for i, constraints in enumerate(raw):
        if not isinstance(constraints, (list, tuple)) or not constraints:
            raise ReproError(
                "mlns[{}] must be a non-empty list of [weight, formula]"
                " pairs".format(i))
        parsed = []
        for entry in constraints:
            if not isinstance(entry, (list, tuple)) or len(entry) != 2:
                raise ReproError(
                    "mlns[{}] entries must be [weight, formula]"
                    " pairs".format(i))
            weight_raw, formula_text = entry
            if isinstance(weight_raw, str) and weight_raw.lower() == "hard":
                weight = HARD
            else:
                weight = _fraction(weight_raw, "mlns")
            if not isinstance(formula_text, str):
                raise ReproError(
                    "mlns[{}] formulas must be strings".format(i))
            parsed.append((weight, parse(formula_text)))
        try:
            mlns.append(MLN(parsed))
        except ValueError as exc:
            raise ReproError("mlns[{}]: {}".format(i, exc)) from None
    return mlns
