"""The arithmetic-circuit IR: hash-consed DAG nodes over weight leaves.

A :class:`Circuit` is a d-DNNF-style arithmetic circuit in the symmetric
weight pairs of its leaves: evaluating it at a weight assignment
``key -> (w, wbar)`` reproduces an exact weighted model count, and
because every node is a polynomial in the leaf weights, the same DAG
also yields exact gradients by one reverse pass.  Circuits are produced
by running the counting engine's conflict-driven search in trace mode
(:func:`repro.propositional.counter.trace_cnf_clauses` via
:mod:`repro.compile.trace`), which builds nodes here instead of
multiplying weights, or by compiling the FO2 cell decomposition
(:mod:`repro.compile.wfomc`); the expensive search runs once, after
which any number of weight vectors are served by circuit evaluation.
The tracer keeps its templates with :meth:`CircuitBuilder.extract`
(leaf keys renamed to canonical slots) and stamps them out with
:meth:`CircuitBuilder.emit_template`.

Node kinds
----------

``("L", key, positive)``
    a weight leaf: evaluates to ``w`` of ``key``'s pair when
    ``positive`` else ``wbar``;
``("T", key)``
    a *total* leaf ``w + wbar`` — the full mass of an unconstrained
    variable, also the smoothing factor ``(x | ~x)`` of d-DNNF;
``("C", value)``
    an exact constant (int or Fraction);
``("*", children)`` / ``("+", children)``
    product / sum over earlier node ids (children may repeat: a product
    with a duplicated child is a square);
``("^", child, exponent)``
    integer power (exponent >= 2; smaller powers fold at build time).

Nodes are **hash-consed** by :class:`CircuitBuilder`: structurally equal
nodes share one id, so repeated subproblems become shared subcircuit
references and the DAG is no larger than the (cache-assisted) search
that produced it.  Children always have smaller ids than their parents,
so a single forward scan evaluates the circuit and a single backward
scan accumulates gradients — no recursion, no topological sort.

All arithmetic is exact, which is what makes compiled results
bit-identical to direct counting.  :meth:`Circuit.evaluate` and
:meth:`Circuit.gradient` run in ints and Fractions node by node (the
reference interpreter); :meth:`Circuit.evaluate_many` scales each weight
vector to integers once, by a common denominator ``D_k``, runs the
whole pass in Python ints and divides once per answer.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

__all__ = ["Circuit", "CircuitBuilder", "CIRCUIT_FORMAT"]

#: Serialization format tag; bump when the node layout changes so
#: persisted circuits self-invalidate instead of decoding wrongly.
CIRCUIT_FORMAT = 1

_LIT = "L"
_TOT = "T"
_CONST = "C"
_TIMES = "*"
_PLUS = "+"
_POW = "^"


def _exact(value):
    """Keep integer-valued weights as machine ints for fast arithmetic."""
    if isinstance(value, int):
        return value
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    frac = Fraction(value)
    return frac.numerator if frac.denominator == 1 else frac


class CircuitBuilder:
    """Bottom-up hash-consing constructor for :class:`Circuit` DAGs.

    ``times``/``plus``/``pow`` perform light algebraic folding (constant
    accumulation, neutral-element removal, singleton collapse) so traced
    circuits stay compact; they never change the computed value.
    """

    __slots__ = ("nodes", "_index")

    def __init__(self):
        self.nodes = []
        self._index = {}

    def _intern(self, row):
        idx = self._index.get(row)
        if idx is None:
            idx = len(self.nodes)
            self.nodes.append(row)
            self._index[row] = idx
        return idx

    # -- leaves ------------------------------------------------------------

    def const(self, value):
        return self._intern((_CONST, _exact(value)))

    def lit(self, key, positive):
        return self._intern((_LIT, key, bool(positive)))

    def tot(self, key):
        return self._intern((_TOT, key))

    # -- operators ---------------------------------------------------------

    def times(self, children):
        """Product node.  Constants fold; a zero annihilates; children
        are sorted (multiplication commutes) for maximal sharing —
        duplicates are kept, a repeated child is a genuine power."""
        const_val = 1
        kids = []
        nodes = self.nodes
        for c in children:
            row = nodes[c]
            if row[0] == _CONST:
                const_val *= row[1]
            else:
                kids.append(c)
        if const_val == 0 or not kids:
            return self.const(const_val)
        if const_val != 1:
            kids.append(self.const(const_val))
        if len(kids) == 1:
            return kids[0]
        kids.sort()
        return self._intern((_TIMES, tuple(kids)))

    def plus(self, children):
        """Sum node.  Constants fold; zeros vanish; children sorted."""
        const_val = 0
        kids = []
        nodes = self.nodes
        for c in children:
            row = nodes[c]
            if row[0] == _CONST:
                const_val += row[1]
            else:
                kids.append(c)
        if not kids:
            return self.const(const_val)
        if const_val != 0:
            kids.append(self.const(const_val))
        if len(kids) == 1:
            return kids[0]
        kids.sort()
        return self._intern((_PLUS, tuple(kids)))

    def is_zero(self, node):
        """True when ``node`` folded to the constant 0 — i.e. the
        subcircuit is structurally zero at *every* weight assignment."""
        row = self.nodes[node]
        return row[0] == _CONST and row[1] == 0

    def pow(self, child, exponent):
        """Integer power node; exponents 0/1 and constant bases fold."""
        if exponent == 0:
            return self.const(1)
        if exponent == 1:
            return child
        row = self.nodes[child]
        if row[0] == _CONST:
            return self.const(row[1] ** exponent)
        return self._intern((_POW, child, int(exponent)))

    # -- template emission -------------------------------------------------

    def inline(self, rows, root, lit_fn=None, tot_fn=None):
        """Re-emit a node-row list into this builder, remapping leaves.

        ``rows`` is a compact node list (children refer to earlier local
        indices, as produced by :meth:`extract` or
        :meth:`Circuit.rows`); ``lit_fn(key, positive)`` / ``tot_fn(key)``
        supply replacement nodes for the leaves (defaulting to plain
        re-interning).  Operator folding re-applies, so inlining a
        template with constants for some leaves simplifies on the fly.
        Returns the id of the re-emitted root.

        Child references are validated (ints pointing strictly at
        *earlier* rows, integer exponents): a structurally damaged row
        list — e.g. a corrupted persisted payload that still decodes —
        raises :class:`ValueError` instead of silently re-emitting a
        circuit that computes something else.
        """
        lit_fn = lit_fn or self.lit
        tot_fn = tot_fn or self.tot
        mapped = [0] * len(rows)
        for i, row in enumerate(rows):
            tag = row[0]
            if tag == _LIT:
                mapped[i] = lit_fn(row[1], row[2])
            elif tag == _TOT:
                mapped[i] = tot_fn(row[1])
            elif tag == _CONST:
                mapped[i] = self.const(row[1])
            elif tag == _TIMES or tag == _PLUS:
                for c in row[1]:
                    if not isinstance(c, int) or not 0 <= c < i:
                        raise ValueError(
                            "node {} has invalid child reference {!r}".format(
                                i, c))
                children = [mapped[c] for c in row[1]]
                mapped[i] = (self.times(children) if tag == _TIMES
                             else self.plus(children))
            elif tag == _POW:
                child, exponent = row[1], row[2]
                if not isinstance(child, int) or not 0 <= child < i:
                    raise ValueError(
                        "node {} has invalid child reference {!r}".format(
                            i, child))
                if not isinstance(exponent, int) or exponent < 0:
                    raise ValueError(
                        "node {} has invalid exponent {!r}".format(i, exponent))
                mapped[i] = self.pow(mapped[child], exponent)
            else:
                raise ValueError("unknown circuit node tag {!r}".format(tag))
        if not rows:
            return self.const(1)
        if not isinstance(root, int) or not 0 <= root < len(rows):
            raise ValueError("invalid root reference {!r}".format(root))
        return mapped[root]

    def emit_template(self, template, leaf_map):
        """Instantiate a canonical-space ``(rows, root)`` template.

        Leaf keys in the template are 1-based slot indices;
        ``leaf_map[slot - 1]`` names the concrete key each slot becomes.
        Hash-consing dedups against everything already in the builder,
        so instantiating the same template twice with the same map is a
        cascade of dictionary hits.
        """
        rows, root = template
        return self.inline(
            rows, root,
            lit_fn=lambda slot, positive: self.lit(leaf_map[slot - 1], positive),
            tot_fn=lambda slot: self.tot(leaf_map[slot - 1]),
        )

    def extract(self, root, rename=None):
        """``(rows, root)`` of the sub-DAG reachable from ``root``,
        with node ids remapped to a dense local numbering (a template).

        ``rename`` (a mapping) replaces every leaf key; it must be
        one-to-one on the sub-DAG's keys, so the rows stay distinct and
        folded.  The walk visits that sub-DAG only, so a tracer
        extracting small subcircuits from a large builder pays for their
        size alone.
        """
        nodes = self.nodes
        marked = bytearray(root + 1)
        marked[root] = 1
        found = [root]
        stack = [root]
        pop, push, add = stack.pop, stack.append, found.append
        while stack:
            row = nodes[pop()]
            tag = row[0]
            if tag == _TIMES or tag == _PLUS:
                kids = row[1]
            elif tag == _POW:
                kids = (row[1],)
            else:
                continue
            for c in kids:
                if not marked[c]:
                    marked[c] = 1
                    push(c)
                    add(c)
        found.sort()
        remap = {}
        rows = []
        for i in found:
            row = nodes[i]
            tag = row[0]
            if tag == _TIMES or tag == _PLUS:
                row = (tag, tuple([remap[c] for c in row[1]]))
            elif tag == _POW:
                row = (tag, remap[row[1]], row[2])
            elif rename is not None and tag != _CONST:
                row = (tag, rename[row[1]]) + row[2:]
            remap[i] = len(rows)
            rows.append(row)
        return tuple(rows), remap[root]

    def build(self, root):
        """Freeze the sub-DAG reachable from ``root`` into a Circuit."""
        return Circuit(*self.extract(root))


def _pair_lookup(weights):
    """Normalize a weight source to a ``key -> (w, wbar)`` callable.

    Accepts a mapping or a callable; pair values may be tuples or
    :class:`~repro.weights.WeightPair` (anything that unpacks to two
    exact values).
    """
    if callable(weights):
        return weights
    return weights.__getitem__


def _leaf_columns(keys, pair_fns):
    """Per-slot value columns across a batch of weight assignments.

    Key ``j`` owns slots ``2*j`` (``w``) and ``2*j + 1`` (``wbar``).
    Values are normalized by :func:`_exact` exactly as the interpreter
    normalizes leaves.  The normalization is memoized by pair-object
    identity: a pair function that returns one shared object per
    predicate (a vocabulary's :class:`~repro.weights.WeightPair`, see
    :meth:`~repro.compile.wfomc.CompiledWFOMC._pair_fn`) is normalized
    once per predicate and batch.  The memo keeps a reference to each
    pair, so an id cannot be recycled while it is a key, and the ``is``
    check re-verifies the match.
    """
    columns = [[] for _ in range(2 * len(keys))]
    memo = {}
    for pair_of in pair_fns:
        for j, key in enumerate(keys):
            pair = pair_of(key)
            cached = memo.get(id(pair))
            if cached is None or cached[0] is not pair:
                w, wbar = pair
                cached = memo[id(pair)] = (pair, _exact(w), _exact(wbar))
            columns[2 * j].append(cached[1])
            columns[2 * j + 1].append(cached[2])
    return columns


def _varying_slots(columns):
    """The slots whose column is not constant across the batch."""
    # list.count scans in C, cheaper than a Python-level any() on the
    # mostly-uniform columns of a weight sweep.
    return frozenset(
        i for i, col in enumerate(columns)
        if col.count(col[0]) != len(col))


def _scale_columns(columns, const_den, k):
    """Scale the leaf columns of a ``k``-vector batch to ints, in place.

    ``D_k`` is the lcm of the denominators of vector ``k``'s leaf values
    and of the circuit's Fraction constants (``const_den``).  A key with
    a non-integral value anywhere in the batch is *scaled*: both its
    slot columns become ``value_k * D_k``.  Returns the per-key scaled
    flags (0/1, a leaf's structural exponent), the ``D_k`` list, and the
    slots whose column varies across the batch.
    """
    varying = _varying_slots(columns)

    def fractional(i):
        # A uniform column is non-integral iff its first value is.
        col = columns[i] if i in varying else columns[i][:1]
        return any(isinstance(v, Fraction) for v in col)

    scaled = [int(fractional(2 * j) or fractional(2 * j + 1))
              for j in range(len(columns) // 2)]
    slots = [i for j, flag in enumerate(scaled) if flag
             for i in (2 * j, 2 * j + 1)]
    dens = [const_den] * k
    for i in slots:
        dens = [lcm(d, v.denominator) for d, v in zip(dens, columns[i])]
    for i in slots:
        columns[i] = [v.numerator * (d // v.denominator)
                      for v, d in zip(columns[i], dens)]
    if dens.count(dens[0]) != k:
        # value_k * D_k varies with D_k even where value_k does not.
        varying = varying | frozenset(slots)
    return scaled, dens, varying


def _integer_forward(rows, root, slot, columns, varying, scaled, dens):
    """The staged batch pass in Python ints; returns one Fraction per
    weight vector.

    Node ``i`` has a structural exponent ``e_i`` (leaves of scaled keys
    and Fraction constants 1, other leaves and constants 0; a product
    sums its children's, a sum takes their max, a power multiplies) and
    holds the ints ``value_k * D_k ** e_i``: a sum pads each child by
    ``D_k ** (e_i - e_child)``, so no node needs a gcd.  Values are
    K-long columns for nodes that depend on a varying slot and scalars
    for the rest; padding is a column only when ``D_k`` varies across
    the batch.  The root divides by ``D_k ** e_root`` once.
    """
    k = len(dens)
    uniform = dens.count(dens[0]) == k
    d0 = dens[0]
    powers = {}

    def pad(delta):
        p = powers.get(delta)
        if p is None:
            p = powers[delta] = (d0 ** delta if uniform
                                 else [d ** delta for d in dens])
        return p

    flags = [False] * len(rows)
    vals = [None] * len(rows)
    exps = [0] * len(rows)
    for i, row in enumerate(rows):
        tag = row[0]
        if tag == _LIT:
            j = slot[row[1]]
            idx = 2 * j + (0 if row[2] else 1)
            exps[i] = scaled[j]
            if idx in varying:
                flags[i] = True
                vals[i] = columns[idx]
            else:
                vals[i] = columns[idx][0]
        elif tag == _TOT:
            j = slot[row[1]]
            base = 2 * j
            exps[i] = scaled[j]
            if base in varying or base + 1 in varying:
                flags[i] = True
                vals[i] = [a + b for a, b in
                           zip(columns[base], columns[base + 1])]
            else:
                vals[i] = columns[base][0] + columns[base + 1][0]
        elif tag == _CONST:
            v = row[1]
            if isinstance(v, int):
                vals[i] = v
            else:
                exps[i] = 1
                if uniform:
                    vals[i] = v.numerator * (d0 // v.denominator)
                else:
                    flags[i] = True
                    vals[i] = [v.numerator * (d // v.denominator)
                               for d in dens]
        elif tag == _TIMES:
            e = 0
            s = 1
            col = None
            for c in row[1]:
                e += exps[c]
                if flags[c]:
                    col = (vals[c] if col is None
                           else [x * y for x, y in zip(col, vals[c])])
                else:
                    s *= vals[c]
            exps[i] = e
            if col is None or s == 0:
                vals[i] = s
            else:
                flags[i] = True
                vals[i] = col if s == 1 else [s * x for x in col]
        elif tag == _PLUS:
            kids = row[1]
            e = max(exps[c] for c in kids)
            exps[i] = e
            s = 0
            col = None
            for c in kids:
                v = vals[c]
                is_col = flags[c]
                delta = e - exps[c]
                if delta:
                    p = pad(delta)
                    if uniform:
                        v = [x * p for x in v] if is_col else v * p
                    elif is_col:
                        v = [x * y for x, y in zip(v, p)]
                    else:
                        v = [v * y for y in p]
                        is_col = True
                if is_col:
                    col = v if col is None else [x + y for x, y in zip(col, v)]
                else:
                    s += v
            if col is None:
                vals[i] = s
            else:
                flags[i] = True
                vals[i] = col if s == 0 else [s + x for x in col]
        else:  # _POW
            c, power = row[1], row[2]
            exps[i] = exps[c] * power
            if flags[c]:
                flags[i] = True
                vals[i] = [x ** power for x in vals[c]]
            else:
                vals[i] = vals[c] ** power

    value, den = vals[root], pad(exps[root])
    if uniform and not flags[root]:
        return [Fraction(value, den)] * k
    values = value if flags[root] else [value] * k
    dens_e = [den] * k if uniform else den
    return [Fraction(a, b) for a, b in zip(values, dens_e)]


class Circuit:
    """An immutable arithmetic circuit: node rows plus a root id.

    Rows are topologically ordered (children precede parents), so
    :meth:`evaluate` is one forward scan and :meth:`gradient` adds one
    backward scan.  Construct circuits through :class:`CircuitBuilder`.
    """

    __slots__ = ("rows", "root", "_leaves")

    def __init__(self, rows, root):
        self.rows = rows
        self.root = root
        self._leaves = None

    # -- inspection --------------------------------------------------------

    def __len__(self):
        return len(self.rows)

    def _leaf_index(self):
        """``(slot, const_den)``, scanned from the rows on first use:
        ``slot`` maps each distinct leaf key to its first-occurrence
        index, ``const_den`` is the lcm of the Fraction constants'
        denominators.  Both are weight-independent."""
        index = self._leaves
        if index is None:
            slot = {}
            const_den = 1
            for row in self.rows:
                tag = row[0]
                if tag == _LIT or tag == _TOT:
                    slot.setdefault(row[1], len(slot))
                elif tag == _CONST and isinstance(row[1], Fraction):
                    const_den = lcm(const_den, row[1].denominator)
            index = self._leaves = (slot, const_den)
        return index

    def leaf_keys(self):
        """The distinct leaf keys, in first-occurrence order."""
        return list(self._leaf_index()[0])

    def depth(self):
        """Longest leaf-to-root path (0 for a single-node circuit)."""
        depths = [0] * len(self.rows)
        for i, row in enumerate(self.rows):
            tag = row[0]
            if tag == _TIMES or tag == _PLUS:
                depths[i] = 1 + max(depths[c] for c in row[1])
            elif tag == _POW:
                depths[i] = 1 + depths[row[1]]
        return depths[self.root]

    def degree(self, key):
        """Polynomial degree of the circuit in ``key``'s weight pair."""
        deg = [0] * len(self.rows)
        for i, row in enumerate(self.rows):
            tag = row[0]
            if tag in (_LIT, _TOT):
                deg[i] = 1 if row[1] == key else 0
            elif tag == _TIMES:
                deg[i] = sum(deg[c] for c in row[1])
            elif tag == _PLUS:
                deg[i] = max(deg[c] for c in row[1])
            elif tag == _POW:
                deg[i] = deg[row[1]] * row[2]
        return deg[self.root]

    def stats(self):
        """Node/edge counts by kind, depth, and distinct leaf keys."""
        counts = {"leaf": 0, "tot": 0, "const": 0, "times": 0, "plus": 0,
                  "pow": 0}
        edges = 0
        for row in self.rows:
            tag = row[0]
            if tag == _LIT:
                counts["leaf"] += 1
            elif tag == _TOT:
                counts["tot"] += 1
            elif tag == _CONST:
                counts["const"] += 1
            elif tag == _TIMES:
                counts["times"] += 1
                edges += len(row[1])
            elif tag == _PLUS:
                counts["plus"] += 1
                edges += len(row[1])
            else:
                counts["pow"] += 1
                edges += 1
        counts["nodes"] = len(self.rows)
        counts["edges"] = edges
        counts["depth"] = self.depth()
        counts["vars"] = len(self.leaf_keys())
        return counts

    # -- evaluation --------------------------------------------------------

    def _forward(self, pair_of):
        """One forward pass: the exact value of every node, in order.

        The single evaluation loop shared by :meth:`evaluate` and
        :meth:`gradient` — a zero product short-circuits (its value is
        exactly 0 either way), and child values are always computed at
        their own rows, so the same pass serves backpropagation.
        """
        vals = [0] * len(self.rows)
        for i, row in enumerate(self.rows):
            tag = row[0]
            if tag == _TIMES:
                v = 1
                for c in row[1]:
                    v *= vals[c]
                    if v == 0:
                        break
                vals[i] = v
            elif tag == _PLUS:
                v = 0
                for c in row[1]:
                    v += vals[c]
                vals[i] = v
            elif tag == _LIT:
                w, wbar = pair_of(row[1])
                vals[i] = _exact(w) if row[2] else _exact(wbar)
            elif tag == _TOT:
                w, wbar = pair_of(row[1])
                vals[i] = _exact(w) + _exact(wbar)
            elif tag == _CONST:
                vals[i] = row[1]
            else:
                vals[i] = vals[row[1]] ** row[2]
        return vals

    def evaluate(self, weights):
        """Value at one weight assignment: the row interpreter.

        ``weights`` maps each leaf key to its ``(w, wbar)`` pair (a
        mapping or a callable).  Returns a :class:`Fraction`,
        bit-identical to what direct counting computes at the same
        weights.
        """
        return Fraction(self._forward(_pair_lookup(weights))[self.root])

    def evaluate_many(self, weight_list):
        """Values at many weight assignments, in input order.

        One staged pass over the node rows serves all K assignments: a
        node whose leaves do not vary across the batch is computed once
        as a scalar, the rest as K-long columns.  A weight sweep varies
        one or two predicates, so most of the circuit is evaluated once
        instead of K times.  The pass runs in Python ints: each vector
        is scaled by its common denominator ``D_k`` once, and each
        answer is one division (see :func:`_integer_forward`).  The
        result is bit-identical to ``[self.evaluate(w) for w in
        weight_list]``.
        """
        pair_fns = [_pair_lookup(w) for w in weight_list]
        if not pair_fns:
            return []
        slot, const_den = self._leaf_index()
        columns = _leaf_columns(slot, pair_fns)
        scaled, dens, varying = _scale_columns(columns, const_den,
                                               len(pair_fns))
        return _integer_forward(self.rows, self.root, slot, columns,
                                varying, scaled, dens)

    def gradient(self, weights):
        """``(value, grads)`` with ``grads[key] == (d/dw, d/dwbar)``.

        One forward pass computes node values, one reverse pass
        accumulates adjoints over the DAG (product nodes use
        prefix/suffix products, so zero-valued children need no
        division).  All arithmetic is exact.
        """
        pair_of = _pair_lookup(weights)
        rows = self.rows
        vals = self._forward(pair_of)

        adj = [0] * len(rows)
        adj[self.root] = 1
        grads = {}
        for i in range(self.root, -1, -1):
            a = adj[i]
            if a == 0:
                continue
            row = rows[i]
            tag = row[0]
            if tag == _TIMES:
                kids = row[1]
                prefix = [1]
                for c in kids:
                    prefix.append(prefix[-1] * vals[c])
                suffix = 1
                for j in range(len(kids) - 1, -1, -1):
                    c = kids[j]
                    adj[c] += a * prefix[j] * suffix
                    suffix *= vals[c]
            elif tag == _PLUS:
                for c in row[1]:
                    adj[c] += a
            elif tag == _POW:
                c, e = row[1], row[2]
                adj[c] += a * e * vals[c] ** (e - 1)
            elif tag == _LIT:
                gw, gwbar = grads.get(row[1], (0, 0))
                if row[2]:
                    grads[row[1]] = (gw + a, gwbar)
                else:
                    grads[row[1]] = (gw, gwbar + a)
            elif tag == _TOT:
                gw, gwbar = grads.get(row[1], (0, 0))
                grads[row[1]] = (gw + a, gwbar + a)
        for key in self.leaf_keys():
            grads.setdefault(key, (0, 0))
        return (
            Fraction(vals[self.root]),
            {k: (Fraction(gw), Fraction(gwb)) for k, (gw, gwb) in grads.items()},
        )

    # -- smoothing ---------------------------------------------------------

    def scopes(self):
        """Per-node leaf-key scopes (frozensets), index-aligned."""
        scopes = [frozenset()] * len(self.rows)
        for i, row in enumerate(self.rows):
            tag = row[0]
            if tag in (_LIT, _TOT):
                scopes[i] = frozenset((row[1],))
            elif tag == _TIMES or tag == _PLUS:
                s = frozenset()
                for c in row[1]:
                    s |= scopes[c]
                scopes[i] = s
            elif tag == _POW:
                scopes[i] = scopes[row[1]]
        return scopes

    def is_smooth(self):
        """True when every +-node's children share one leaf scope."""
        scopes = self.scopes()
        for row in self.rows:
            if row[0] == _PLUS:
                kids = row[1]
                first = scopes[kids[0]]
                if any(scopes[c] != first for c in kids[1:]):
                    return False
        return True

    def smooth(self):
        """A smoothed equivalent: +-children missing leaves of the node
        scope are multiplied by the ``w + wbar`` total of each missing
        key (exactly d-DNNF smoothing).  Traced circuits are smooth by
        construction, so this is a no-op-sized pass for them."""
        scopes = self.scopes()
        builder = CircuitBuilder()
        mapped = [0] * len(self.rows)
        for i, row in enumerate(self.rows):
            tag = row[0]
            if tag == _LIT:
                mapped[i] = builder.lit(row[1], row[2])
            elif tag == _TOT:
                mapped[i] = builder.tot(row[1])
            elif tag == _CONST:
                mapped[i] = builder.const(row[1])
            elif tag == _TIMES:
                mapped[i] = builder.times([mapped[c] for c in row[1]])
            elif tag == _POW:
                mapped[i] = builder.pow(mapped[row[1]], row[2])
            else:
                target = scopes[i]
                kids = []
                for c in row[1]:
                    missing = target - scopes[c]
                    child = mapped[c]
                    if missing:
                        child = builder.times(
                            [child] + [builder.tot(k)
                                       for k in sorted(missing, key=repr)])
                    kids.append(child)
                mapped[i] = builder.plus(kids)
        return builder.build(mapped[self.root])

    def map_leaves(self, key_fn):
        """Rebuild with leaves rewritten by ``key_fn(key)``.

        ``key_fn`` returns a tagged pair: ``("key", new_key)`` renames
        the leaf, ``("bake", (w, wbar))`` folds it into constants (lit
        becomes ``w`` / ``wbar``, tot becomes ``w + wbar``) — used to
        bake auxiliary Tseitin variables (fixed weight ``(1, 1)``) out
        of a traced circuit.  Folding re-applies, so baked-neutral
        leaves vanish entirely.
        """
        builder = CircuitBuilder()

        def lit_fn(key, positive):
            action, new = key_fn(key)
            if action == "bake":
                return builder.const(new[0] if positive else new[1])
            return builder.lit(new, positive)

        def tot_fn(key):
            action, new = key_fn(key)
            if action == "bake":
                return builder.const(_exact(new[0]) + _exact(new[1]))
            return builder.tot(new)

        root = builder.inline(self.rows, self.root, lit_fn=lit_fn,
                              tot_fn=tot_fn)
        return builder.build(root)

    # -- persistence -------------------------------------------------------

    def to_payload(self):
        """A store-codec-friendly serialization (tuples/ints/Fractions)."""
        return ("accirc", CIRCUIT_FORMAT, self.root, tuple(self.rows))

    @classmethod
    def from_payload(cls, payload):
        """Inverse of :meth:`to_payload`; ``None`` on a foreign payload.

        Rows are re-interned through a fresh builder, so a payload that
        decodes but is structurally damaged degrades to ``None`` rather
        than producing a circuit that fails later.
        """
        try:
            tag, version, root, rows = payload
            if tag != "accirc" or version != CIRCUIT_FORMAT:
                return None
            builder = CircuitBuilder()
            new_root = builder.inline(list(rows), root)
            return builder.build(new_root)
        except (TypeError, ValueError, IndexError, KeyError):
            return None

    def __repr__(self):
        return "Circuit(nodes={}, depth={}, vars={})".format(
            len(self.rows), self.depth(), len(self.leaf_keys()))
