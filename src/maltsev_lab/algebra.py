"""Finite algebras, terms, and the unary image machinery.

An algebra is a universe {0..n-1} together with named finitary operation
tables.  Tables are flat and row major with the leftmost argument most
significant: the entry for arguments (a0, ..., a_{m-1}) sits at index
a0*n^(m-1) + a1*n^(m-2) + ... + a_{m-1}.  Arity 0 is allowed and denotes a
constant (a table with a single entry).

Terms are formal composition trees of operation symbols and variables
x0, x1, ...  Evaluating a term in an algebra yields a term operation; the
set of all unary term operations forms a monoid under composition, and its
inclusion-minimal images drive the idempotent image construction exposed by
``minimal_unary_idempotent`` and ``restrict_to_image``.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import BudgetExceededError, ConsistencyError, TermError

DEFAULT_MONOID_BUDGET = 1_000_000


def flat_index(args, size: int) -> int:
    """Row-major index of an argument tuple, leftmost argument most significant."""
    idx = 0
    for a in args:
        idx = idx * size + a
    return idx


@dataclass(frozen=True)
class Operation:
    """A named basic operation given by its flat table."""

    symbol: str
    arity: int
    table: tuple[int, ...]


@dataclass(frozen=True)
class FiniteAlgebra:
    """A finite algebra: universe {0..size-1} plus an ordered list of operations."""

    name: str
    size: int
    ops: tuple[Operation, ...]
    _op_map: dict = field(init=False, repr=False, compare=False, hash=False)
    # lifted tables by (symbol, width), built on first use
    _lifted: dict = field(init=False, repr=False, compare=False, hash=False)
    # table-fixing argument transpositions by symbol, found on first use
    _swaps: dict = field(init=False, repr=False, compare=False, hash=False)

    def __post_init__(self):
        if self.size < 1:
            raise ValueError("algebra size must be at least 1")
        if not self.ops:
            raise ValueError("algebra must have at least one basic operation")
        op_map = {}
        for op in self.ops:
            if op.arity < 0:
                raise ValueError(f"operation {op.symbol}: negative arity")
            if op.symbol in op_map:
                raise ValueError(f"duplicate operation symbol {op.symbol!r}")
            # size^arity > length holds once 2^arity > length: decided
            # before the power is taken, which for a huge arity would not
            # finish
            length = len(op.table)
            if (
                self.size > 1 and op.arity >= length.bit_length()
            ) or self.size**op.arity != length:
                raise ValueError(
                    f"operation {op.symbol}: table has {length} entries, "
                    f"expected {self.size}^{op.arity}"
                )
            for v in op.table:
                if not 0 <= v < self.size:
                    raise ValueError(
                        f"operation {op.symbol}: table entry {v} outside universe"
                    )
            op_map[op.symbol] = op
        object.__setattr__(self, "_op_map", op_map)
        object.__setattr__(self, "_lifted", {})
        object.__setattr__(self, "_swaps", {})

    def operation(self, symbol: str) -> Operation:
        op = self._op_map.get(symbol)
        if op is None:
            raise TermError(f"unknown operation symbol {symbol!r}")
        return op

    @cached_property
    def max_arity(self) -> int:
        """The largest arity of a basic operation."""
        return max(op.arity for op in self.ops)

    @cached_property
    def table_arrays(self) -> dict:
        """Read-only int64 copies of the tables by symbol, built on first use."""
        arrays = {}
        for op in self.ops:
            arr = np.array(op.table, dtype=np.int64)
            arr.flags.writeable = False
            arrays[op.symbol] = arr
        return arrays

    def swaps(self, symbol: str) -> tuple:
        """The argument pairs (i, j), i < j, whose transposition leaves the
        operation's table unchanged: m(m-1)/2 table comparisons for arity m
        on first use, then cached."""
        swaps = self._swaps.get(symbol)
        if swaps is None:
            m = self.operation(symbol).arity
            table = self.table_arrays[symbol].reshape((self.size,) * m)
            swaps = tuple(
                (i, j) for i, j in itertools.combinations(range(m), 2)
                if np.array_equal(table, table.swapaxes(i, j))
            )
            self._swaps[symbol] = swaps
        return swaps

    def lifted_table(self, symbol: str, width: int) -> np.ndarray:
        """The operation acting coordinate-wise on rows of A^width, by key.

        A row's key is its base-n rank, first coordinate most significant.
        An m-ary operation's table has shape (n^width,) * m; its entry at
        (r1, ..., rm) is the key of the image of the rows with keys r1, ...,
        rm.  Built on first use one coordinate at a time, in arrays of at
        most (n^width)^m entries (the caller keeps that small), then cached
        read-only.
        """
        table = self._lifted.get((symbol, width))
        if table is None:
            n, m = self.size, self.operation(symbol).arity
            base = self.table_arrays[symbol].reshape((n,) * m)
            table = base
            # one more coordinate splits each axis into the narrower key and
            # the new digit, and an image's key into the narrower image's
            # key times n plus the new digit's image; on one element every
            # width has the base table
            for _ in range(width - 1 if n > 1 else 0):
                split = sum(((k, 1) for k in table.shape), ())
                wide = table.reshape(split) * n + base.reshape((1, n) * m)
                # asarray: a nullary operation's sum is a scalar
                table = np.asarray(wide).reshape(tuple(k * n for k in table.shape))
            table.flags.writeable = False
            self._lifted[(symbol, width)] = table
        return table

    @property
    def total_table_size(self) -> int:
        """Sum of all table sizes; the natural encoding size of the algebra."""
        return sum(len(op.table) for op in self.ops)


@dataclass(frozen=True)
class Variable:
    index: int


@dataclass(frozen=True)
class Apply:
    symbol: str
    children: tuple["Term", ...]


# a types.UnionType, not typing.Union: typing caches its subscriptions, and
# the cache would keep every re-imported copy of these classes alive
Term = Variable | Apply


def term_arity(t: Term) -> int:
    """Smallest k such that t is a k-ary term: 1 + largest variable index used."""
    high = -1
    stack = [t]
    while stack:
        node = stack.pop()
        if isinstance(node, Variable):
            high = max(high, node.index)
        else:
            stack.extend(node.children)
    return high + 1


def evaluate_columns(alg: FiniteAlgebra, t: Term, cols) -> np.ndarray:
    """Evaluate a term on many argument tuples at once.

    ``cols`` is an integer array of shape (k, W); column w is the argument
    tuple (cols[0, w], ..., cols[k-1, w]).  Returns the W values.  Each
    distinct subterm object costs one table gather over all W columns, so
    shared subterms are evaluated once.  The shape and the range of
    ``cols`` are checked here, the term node by node in ``_evaluate``.
    """
    cols = np.asarray(cols, dtype=np.int64)
    if cols.ndim != 2:
        raise TermError(f"argument columns must have shape (k, W), got {cols.shape}")
    if cols.size and (cols.min() < 0 or cols.max() >= alg.size):
        bad = cols[(cols < 0) | (cols >= alg.size)][0]
        raise TermError(f"argument {bad} outside universe of size {alg.size}")
    return _evaluate(alg, t, cols)


def _evaluate(alg: FiniteAlgebra, t: Term, cols: np.ndarray) -> np.ndarray:
    """``evaluate_columns`` on an int64 (k, W) array whose entries are in the
    universe, which the caller guarantees.  Each node is checked: a known
    symbol, its arity's number of children, a variable below k."""
    k, width = cols.shape
    memo: dict[int, np.ndarray] = {}

    def walk(node: Term) -> np.ndarray:
        key = id(node)
        got = memo.get(key)
        if got is not None:
            return got
        if isinstance(node, Variable):
            if not 0 <= node.index < k:
                raise TermError(
                    f"term references x{node.index} but only {k} arguments given"
                )
            val = cols[node.index]
        else:
            op = alg.operation(node.symbol)
            if len(node.children) != op.arity:
                raise TermError(
                    f"operation {node.symbol} expects {op.arity} children, "
                    f"got {len(node.children)}"
                )
            table = alg.table_arrays[node.symbol]
            if op.arity == 0:
                val = np.full(width, table[0])
            else:
                flat = walk(node.children[0])
                for child in node.children[1:]:
                    flat = flat * alg.size + walk(child)
                val = table[flat]
        memo[key] = val
        return val

    # a variable's values are a row of cols: the result must not share it
    return walk(t).copy() if isinstance(t, Variable) else walk(t)


def _argument_grid(values, arity: int) -> np.ndarray:
    """Every arity-tuple over ``values`` as the columns of a (arity, W) array,
    in row-major order with the leftmost argument most significant."""
    values = np.asarray(values, dtype=np.int64)
    index = np.indices((len(values),) * arity).reshape(arity, len(values) ** arity)
    return values[index]


def evaluate_term(alg: FiniteAlgebra, t: Term, args) -> int:
    """Evaluate a term at one argument tuple.

    Requires len(args) >= term_arity(t) and every argument in the universe.
    """
    args = np.asarray(tuple(args), dtype=np.int64)
    return int(evaluate_columns(alg, t, args.reshape(args.size, 1))[0])


def term_table(alg: FiniteAlgebra, t: Term, arity: int) -> tuple[int, ...]:
    """Materialize the k-ary term operation induced by t as a flat table.

    Uses the same row-major convention as basic operations.
    """
    if arity < 0:
        raise TermError("arity must be nonnegative")
    grid = _argument_grid(range(alg.size), arity)
    return tuple(evaluate_columns(alg, t, grid).tolist())


def idempotence_violation(alg: FiniteAlgebra) -> Optional[tuple[str, int, int]]:
    """First (symbol, element, value) with f(a,...,a) = value != a, or None."""
    for op in alg.ops:
        for a in range(alg.size):
            v = op.table[flat_index((a,) * op.arity, alg.size)]
            if v != a:
                return op.symbol, a, v
    return None


def is_idempotent(alg: FiniteAlgebra) -> bool:
    """True iff every basic operation f satisfies f(a,...,a) = a for all a."""
    return idempotence_violation(alg) is None


@dataclass(frozen=True)
class UnaryMap:
    """A unary map on the universe, given pointwise: images[a] = value at a."""

    images: tuple[int, ...]

    def compose(self, other: "UnaryMap") -> "UnaryMap":
        """self after other: (self . other)(a) = self(other(a))."""
        return UnaryMap(tuple(self.images[v] for v in other.images))

    def image(self) -> tuple[int, ...]:
        return tuple(sorted(set(self.images)))


def unary_term_monoid(
    alg: FiniteAlgebra, budget: int = DEFAULT_MONOID_BUDGET
) -> tuple[UnaryMap, ...]:
    """All unary term operations of the algebra, in canonical generation order.

    The unary term operations are the subpower of A^n generated by the
    identity map (x0 evaluated at every element), so this is that closure:
    operations in declaration order, argument combinations in lexicographic
    order over the maps found so far.  The identity counts toward
    ``budget``; raises BudgetExceededError when more than ``budget`` maps
    would be created.
    """
    # subpower imports this module
    from .subpower import generate_subpower

    try:
        # the identity is always kept, even under a budget below one
        rel = generate_subpower(alg, [tuple(range(alg.size))], max(budget, 1))
    except BudgetExceededError:
        raise BudgetExceededError(
            f"unary term monoid exceeds budget of {budget} maps"
        ) from None
    return tuple(UnaryMap(t) for t in rel.tuples)


def minimal_unary_idempotent(
    alg: FiniteAlgebra, budget: int = DEFAULT_MONOID_BUDGET
) -> tuple[UnaryMap, tuple[int, ...]]:
    """An idempotent unary term operation with inclusion-minimal image.

    Returns (alpha, B) where B = image(alpha) is sorted and alpha restricted
    to B is the identity, hence alpha . alpha = alpha.  The inclusion-minimal
    images of a monoid of maps are exactly its images of least size: for f
    with a minimal image and any g, f . g . f has image im f, so |im f| <=
    |im g|.  Ties: among them pick the lexicographically least image set,
    then the first map with that image in generation order; that map is
    raised to the power making it idempotent, which is the map followed by
    the inverse of the permutation it induces on its image.
    """
    monoid = unary_term_monoid(alg, budget=budget)
    images = [u.image() for u in monoid]
    least = min(map(len, images))
    b_sorted = min(image for image in images if len(image) == least)
    base = monoid[images.index(b_sorted)]
    # base restricted to its image is a permutation sigma (else a power of
    # base would have a strictly smaller image); for sigma's order d,
    # base^d = sigma^(d-1) . base, and sigma^(d-1) is sigma's inverse
    sigma = {b: base.images[b] for b in b_sorted}
    if set(sigma.values()) != set(b_sorted):
        raise ConsistencyError(
            "unary map is not a permutation of its inclusion-minimal image"
        )
    inverse = {v: b for b, v in sigma.items()}
    alpha = UnaryMap(tuple(inverse[v] for v in base.images))
    return alpha, b_sorted


def restrict_to_image(
    alg: FiniteAlgebra,
    alpha: UnaryMap,
    image_set,
    t: Term,
    arity: int,
) -> tuple[int, ...]:
    """Correct a term operation into an idempotent operation on alpha's image.

    With B = image_set and beta(b) = alpha(t(b, ..., b)), returns the table
    of beta^p . alpha . t on arguments from B, for the least p >= 1 with
    beta^(p+1) the identity on B; that power is beta's inverse.  The table
    is row major over sorted(B) and its values are universe elements lying
    in B.  The result satisfies u(b, ..., b) = b for every b in B.  Raises
    ValueError when beta does not permute B, or when alpha sends a value of
    t on B outside B.
    """
    b_sorted = tuple(sorted(image_set))
    diagonal = evaluate_columns(alg, t, np.tile(b_sorted, (arity, 1))).tolist()
    beta = {b: alpha.images[v] for b, v in zip(b_sorted, diagonal)}
    if set(beta.values()) != set(b_sorted):
        raise ValueError("diagonal map is not a permutation of the minimal image")
    inverse = {v: b for b, v in beta.items()}
    values = evaluate_columns(alg, t, _argument_grid(b_sorted, arity)).tolist()
    try:
        return tuple(inverse[alpha.images[v]] for v in values)
    except KeyError as exc:
        raise ValueError(
            f"alpha sends a value of the term to {exc.args[0]}, outside the minimal image"
        ) from None


def induced_image_algebra(
    alg: FiniteAlgebra, budget: int = DEFAULT_MONOID_BUDGET
) -> tuple[FiniteAlgebra, UnaryMap, tuple[int, ...]]:
    """The idempotent algebra induced on the minimal unary image.

    Each basic operation is corrected via restrict_to_image and relabeled
    onto the dense universe 0..|B|-1.  Returns (algebra, alpha, B) with B in
    the original element labels.
    """
    alpha, b_sorted = minimal_unary_idempotent(alg, budget=budget)
    relabel = {b: i for i, b in enumerate(b_sorted)}
    ops = []
    for op in alg.ops:
        t = Apply(op.symbol, tuple(Variable(i) for i in range(op.arity)))
        try:
            table = restrict_to_image(alg, alpha, b_sorted, t, op.arity)
        except ValueError as exc:
            # alpha and the term are this function's own: an internal fault
            raise ConsistencyError(str(exc)) from None
        ops.append(Operation(op.symbol, op.arity, tuple(relabel[v] for v in table)))
    induced = FiniteAlgebra(f"{alg.name}-image", len(b_sorted), tuple(ops))
    return induced, alpha, b_sorted
