"""Tournaments: construction, strong components, path reversal, realization.

A tournament is an orientation of the complete graph, stored here as bit
rows: one Python int per vertex, bit j of row i set iff i beats j.  The
centerpiece is :func:`realize`, which builds an explicit tournament with any
prescribed valid score sequence by running the down-jump walk on the
sequence and then replaying it in reverse as a series of path reversals
starting from a regular or nearly-regular tournament.  The replay works on
the same rows, and the result holds them as they are; every reader of a row
decodes it through ``_flags``.  numpy is imported only by the functions that
read or return an array: the constructor from a matrix, ``adjacency`` and
``scores()``.
"""

from __future__ import annotations

import operator
from collections import defaultdict
from dataclasses import dataclass
from functools import reduce
from itertools import compress, count
from typing import (
    TYPE_CHECKING,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from .sequences import (
    LandauSequence,
    _cyclic_triples,
    _order,
    _prefix_equalities,
    _sequence,
    down_trace,
    regular_sequence,
    validate_landau,
)

if TYPE_CHECKING:
    import numpy as np


class TournamentError(Exception):
    """Base class for tournament construction/manipulation failures."""


class SelfLoopError(TournamentError):
    pass


class DoublePairError(TournamentError):
    pass


class MissingPairError(TournamentError):
    pass


class UnreachableError(TournamentError):
    pass


class InvalidPathError(TournamentError):
    pass


class Tournament:
    """Orientation of the complete graph on n labeled vertices.

    Immutable: the out-sets are held as bit rows (bit j of row i set iff i
    beats j) and operations that change arcs return new instances.  The
    boolean matrix ``adjacency`` is built from the rows on first access.
    Entries given to the constructor must be 0, 1, False or True; anything
    else raises ``ValueError`` rather than becoming an arc.
    """

    __slots__ = ("_rows", "_adj")

    def __init__(self, adjacency):
        import numpy as np

        raw = np.asarray(adjacency)
        if raw.dtype != bool and not ((raw == 0) | (raw == 1)).all():
            raise ValueError("adjacency entries must be 0, 1, False or True")
        adj = np.array(raw, dtype=bool)
        if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
            raise ValueError("adjacency must be a square matrix")
        if adj.shape[0] < 1:
            raise ValueError("tournament needs at least one vertex")
        if adj.diagonal().any():
            raise SelfLoopError("vertex beats itself")
        if (adj & adj.T).any():
            raise DoublePairError("some pair is oriented both ways")
        neither = ~(adj | adj.T)
        np.fill_diagonal(neither, False)
        if neither.any():
            i, j = (int(x) for x in np.argwhere(neither)[0])
            raise MissingPairError(f"pair {{{i}, {j}}} has no orientation")
        adj.setflags(write=False)
        self._rows = tuple(_rows(adj))
        self._adj = adj

    @classmethod
    def _trusted(cls, rows: Iterable[int]) -> "Tournament":
        # Out-set ints known to form a tournament (a construction, or a path
        # reversal of one): copy them, no checks, no matrix until asked for.
        self = object.__new__(cls)
        self._rows = tuple(rows)
        self._adj = None
        return self

    @property
    def n(self) -> int:
        return len(self._rows)

    @property
    def adjacency(self) -> np.ndarray:
        """Read-only n x n boolean matrix; (i, j) true iff i beats j."""
        if self._adj is None:
            adj = _matrix(self._rows)
            adj.setflags(write=False)
            self._adj = adj
        return self._adj

    def _popcounts(self) -> List[int]:
        return [row.bit_count() for row in self._rows]

    def beats(self, i: int, j: int) -> bool:
        return bool(self._rows[i] >> range(self.n)[j] & 1)

    def out_set(self, i: int) -> Tuple[int, ...]:
        return tuple(_ids(self._rows[i]))

    def in_set(self, i: int) -> Tuple[int, ...]:
        # every pair is oriented: the in-set is the rest of the out-set's complement
        i = range(self.n)[i]
        return tuple(_ids(((1 << self.n) - 1) ^ self._rows[i] ^ (1 << i)))

    def score(self, i: int) -> int:
        return self._rows[i].bit_count()

    def scores(self) -> np.ndarray:
        """Out-degree of each vertex, indexed by vertex id."""
        import numpy as np

        return np.array(self._popcounts(), dtype=np.int_)

    def arcs(self) -> Iterator[Tuple[int, int]]:
        """All arcs (winner, loser), winners ascending, losers ascending."""
        for i, row in enumerate(self._rows):
            for j in _ids(row):
                yield i, j

    def __eq__(self, other) -> bool:
        if not isinstance(other, Tournament):
            return NotImplemented
        return self._rows == other._rows

    def __hash__(self):
        return hash(self._rows)

    def __repr__(self) -> str:
        return f"Tournament(n={self.n}, scores={self._popcounts()})"


def _tournament(t: Tournament) -> Tournament:
    """``t`` itself; ``TypeError`` unless it is a :class:`Tournament`."""
    if not isinstance(t, Tournament):
        raise TypeError(f"expected a Tournament, not {type(t).__name__}")
    return t


@dataclass(frozen=True)
class VertexPath:
    """A simple directed path, listed vertex by vertex; ids must be integers."""

    vertices: tuple

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(map(operator.index, self.vertices)))
        if len(self.vertices) < 2:
            raise ValueError("path needs at least two vertices")
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("path repeats a vertex")

    def __len__(self) -> int:
        return len(self.vertices)

    def __iter__(self):
        return iter(self.vertices)


@dataclass(frozen=True)
class StrongDecomposition:
    """Strong components in condensation order, terminal component first.

    Every vertex of a later component beats every vertex of an earlier one.
    """

    components: tuple


#: Vertex ids below this get bit rows in :func:`from_arcs`: its lists of rows
#: take at most 256 KiB, a row at most 2 KiB.  A tournament on more vertices
#: needs over 134M arcs.
_ARC_ROW_WIDTH = 1 << 14


def from_arcs(n: int, beats: Iterable[Tuple[int, int]]) -> Tournament:
    """Build a tournament from explicit (winner, loser) pairs.

    Every unordered pair must appear exactly once, in exactly one direction.
    Memory follows the arcs given, not n: the ids below ``_ARC_ROW_WIDTH``
    get bit rows, and a pair with a higher id is held in a dict.  The
    vertices are then checked in order for a missing pair, and each one
    passed holds n - 1 arcs.
    """
    n = _order(n)
    width = min(n, _ARC_ROW_WIDTH)
    rows, ins = [0] * width, [0] * width
    far = defaultdict(dict)  # far[i][j] is True iff i beats j
    for i, j in beats:
        i, j = operator.index(i), operator.index(j)
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"vertex out of range in arc ({i}, {j})")
        if i == j:
            raise SelfLoopError(f"self-loop at vertex {i}")
        if i < width > j:
            if (rows[i] | ins[i]) >> j & 1:
                raise DoublePairError(f"pair {{{i}, {j}}} oriented twice")
            rows[i] |= 1 << j
            ins[j] |= 1 << i
        else:
            if j in far[i]:
                raise DoublePairError(f"pair {{{i}, {j}}} oriented twice")
            far[i][j], far[j][i] = True, False
    for i in range(n):
        # the lowest id paired with neither i nor itself: the rows hold the
        # pairs of two ids below the width, ``far`` all the others
        j = _lowest(~(rows[i] | ins[i] | 1 << i)) if i < width else 0
        while j < n and (j == i or j in far[i]):
            j += 1
        if j < n:
            raise MissingPairError(f"pair {{{i}, {j}}} has no orientation")
    rows += [0] * (n - width)
    for i, wins in far.items():
        rows[i] |= sum(1 << j for j, won in wins.items() if won)
    return Tournament._trusted(rows)


def score_sequence(t: Tournament) -> LandauSequence:
    """Sorted out-degrees; always satisfies Landau's conditions."""
    result = validate_landau(sorted(_tournament(t)._popcounts()))
    if not isinstance(result, LandauSequence):
        raise TournamentError(f"out-degrees are not a score sequence: {result}")
    return result


def _regular_rows(n: int) -> List[int]:
    # vertex i beats the next s_i vertices mod n, s = regular_sequence(n)
    full = (1 << n) - 1
    rows = []
    for i, score in enumerate(regular_sequence(n).scores):
        wins = ((1 << score) - 1) << (i + 1)
        rows.append((wins | wins >> n) & full)
    return rows


def _rows(adj: np.ndarray) -> List[int]:
    """Out-sets as ints: bit j of ``rows[i]`` is set iff i beats j."""
    import numpy as np

    packed = np.packbits(adj, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def _matrix(rows: Sequence[int]) -> np.ndarray:
    """The n x n boolean matrix of out-set ints; inverse of :func:`_rows`."""
    import numpy as np

    n = len(rows)
    width = (n + 7) // 8
    data = b"".join([row.to_bytes(width, "little") for row in rows])
    packed = np.frombuffer(data, dtype=np.uint8).reshape(n, width)
    return np.unpackbits(packed, axis=1, count=n, bitorder="little").view(bool)


def rotational_regular(n: int) -> Tournament:
    """Regular tournament on odd n: vertex i beats the next (n-1)/2 vertices mod n."""
    n = operator.index(n)
    if n < 1 or n % 2 == 0:
        raise ValueError("n must be odd and >= 1")
    return Tournament._trusted(_regular_rows(n))


def nearly_regular(n: int) -> Tournament:
    """Nearly-regular tournament on even n: vertex i beats the next s_i
    vertices mod n, where s = ``regular_sequence(n)``.

    This is the rotational regular (n+1)-tournament less its highest-labeled
    vertex, relabeled in non-decreasing score order so vertex i carries the
    i-th sorted score.
    """
    n = operator.index(n)
    if n < 2 or n % 2 == 1:
        raise ValueError("n must be even and >= 2")
    return Tournament._trusted(_regular_rows(n))


def strong_components(t: Tournament) -> StrongDecomposition:
    """Strong components in condensation order, terminal component first.

    Read off the scores (Landau's condition with equality): the vertices,
    stably sorted by score, split wherever the sorted prefix sum is exactly
    C(k,2), lowest scores first.  Vertex ids ascend inside each component.
    """
    scores = _tournament(t)._popcounts()
    order = sorted(range(t.n), key=scores.__getitem__)
    cuts = [0, *_prefix_equalities(sorted(scores)), t.n]
    blocks = (sorted(order[a:b]) for a, b in zip(cuts, cuts[1:]))
    return StrongDecomposition(tuple(map(tuple, blocks)))


def is_strong(t: Tournament) -> bool:
    """True iff there is a directed path between every ordered vertex pair."""
    return len(strong_components(t).components) == 1


#: ``format(bits, "b")`` digits as bytes 0/1, for ``itertools.compress``
_BITS = bytes.maketrans(b"01", b"\x00\x01")


def _flags(bits: int) -> bytes:
    """Byte j is 1 iff bit j of ``bits`` is set; it ends at the highest set bit."""
    return format(bits, "b")[::-1].encode().translate(_BITS)


def _ids(bits: int) -> Iterator[int]:
    """The vertex ids of a bit set, ascending."""
    return compress(count(), _flags(bits))


def _lowest(bits: int) -> int:
    return (bits & -bits).bit_length() - 1


def _shortest_path(rows: Sequence[int], src: int, dst: int) -> Optional[List[int]]:
    """Shortest src -> dst path by BFS on out-set ints, or None if unreachable.

    ``rows[i]`` has bit j set iff i beats j; since every pair is oriented,
    the in-set of v is the complement of ``rows[v]`` without v itself.
    Tie-break: every vertex on the path is the smallest-id vertex of the
    previous BFS level that beats the next one.  The direct arc and the
    smallest-id middle vertex of a 2-path are tried first.  Past them no
    BFS level holds an in-neighbour of dst (the search ends at the first
    level that would), so at each level the path's last inner vertex is
    the smallest in-neighbour of dst that the level beats, if there is one.
    One probe decides the common case: if the level beats ``probe``, the
    smallest in-neighbour of all, that is the vertex, and the next level is
    never built.  Otherwise the next level is built top-down, as the union
    of the level's out-sets within the set of vertices not yet seen:
    ``_flags`` decodes the level from its lowest id up, ``compress`` picks
    the level's rows out of the slice of its id range, and ``reduce`` ORs
    them, all in C.  That is exactly the set of unvisited vertices the
    level beats, so its lowest in-neighbour of dst is the vertex sought; if
    it holds none, it leaves the unseen set and the search goes on from it.
    The path is rebuilt backwards from the lowest set bit of
    ``level & ~rows[cur]``.  Each step is one operation on n-bit ints, and
    the levels are disjoint, so a search makes at most n ORs: O(n^2 / 64)
    word operations, and O(n / 64) when a shortcut applies.  A level's
    decode and selection cost its id span, not its highest id: the levels
    of a long path are bands (at Tr_300, 31 vertices over 54 ids on
    average, where the highest id averages 150).
    """
    out = rows[src]
    if out >> dst & 1:
        return [src, dst]
    full = (1 << len(rows)) - 1
    into = full ^ rows[dst] ^ (1 << dst)
    # each (x & -x).bit_length() - 1 below is the lowest set bit of x
    mid = out & into
    if mid:
        return [src, (mid & -mid).bit_length() - 1, dst]
    if not into:
        return None
    probe = (into & -into).bit_length() - 1
    beats_probe = ~rows[probe]
    levels = [1 << src, out]
    unseen = full ^ levels[0] ^ out
    level = out
    while level:
        if level & beats_probe:
            last = probe
            break
        lo = (level & -level).bit_length() - 1
        window = compress(rows[lo : level.bit_length()], _flags(level >> lo))
        new = reduce(operator.or_, window, 0) & unseen
        hit = new & into
        if hit:
            last = (hit & -hit).bit_length() - 1
            break
        levels.append(new)
        unseen ^= new
        level = new
    else:
        return None
    path = [dst, last]
    for prev in reversed(levels):
        beaten = prev & ~rows[path[-1]]
        path.append((beaten & -beaten).bit_length() - 1)
    path.reverse()
    return path


def find_path(t: Tournament, src: int, dst: int) -> VertexPath:
    """Shortest directed path from src to dst, deterministic tie-breaking.

    Among the shortest paths, each vertex is the smallest-id vertex at its
    BFS distance from src that beats the next vertex on the path.  A search
    costs O(n^2 / 64) word operations at most (see ``_shortest_path``).
    """
    _tournament(t)
    src, dst = operator.index(src), operator.index(dst)
    if not (0 <= src < t.n and 0 <= dst < t.n):
        raise ValueError("vertex out of range")
    if src == dst:
        raise ValueError("path endpoints must differ")
    path = _shortest_path(t._rows, src, dst)
    if path is None:
        raise UnreachableError(f"no path from {src} to {dst}")
    return VertexPath(tuple(path))


def reverse_path(t: Tournament, path: VertexPath) -> Tournament:
    """Reverse every arc along the path; first vertex loses 1, last gains 1."""
    _tournament(t)
    if not isinstance(path, VertexPath):
        raise TypeError("path must be a VertexPath")
    if not all(0 <= v < t.n for v in path.vertices):
        raise ValueError("vertex out of range")
    rows = list(t._rows)
    for a, b in zip(path.vertices, path.vertices[1:]):
        if not rows[a] >> b & 1:
            raise InvalidPathError(f"({a}, {b}) is not an arc")
        rows[a] ^= 1 << b
        rows[b] ^= 1 << a
    return Tournament._trusted(rows)


def _replay(s: LandauSequence) -> Iterator[Tuple[List[int], List[int]]]:
    """Replay the down-jump walk of ``s`` in reverse on one list of out-sets.

    Yields ``(rows, path)``: the starting regular/nearly-regular rows (see
    ``_shortest_path`` for the layout) with an empty path, then the same list
    again after each path reversal with the path reversed, src first.  For a
    jump with positions (p, q), ``_shortest_path``, looked up at call time,
    finds a shortest path from vertex p-1 to vertex q-1, and each of its arcs
    is reversed by two XORs through a table of the n one-bit ints.  The walk
    is held as the trace's flat array of positions, 8 bytes a jump, and read
    from its end.
    """
    positions = reversed(down_trace(s)._pairs)
    rows = _regular_rows(s.n)
    bit = [1 << i for i in range(s.n)]
    yield rows, []
    for q, p in zip(positions, positions):
        path = _shortest_path(rows, p - 1, q - 1)
        if path is None:
            raise UnreachableError(
                f"no path from {p - 1} to {q - 1}: intermediate tournament is not strong"
            )
        vertices = iter(path)
        a = next(vertices)
        for b in vertices:
            rows[a] ^= bit[b]
            rows[b] ^= bit[a]
            a = b
        yield rows, path


def realize(s: LandauSequence) -> Tournament:
    """Construct a tournament whose sorted scores equal ``s``.

    Runs the down-jump walk from s to the regular sequence, starts from the
    rotational regular (or nearly-regular) tournament, and replays the walk
    in reverse: for each jump with positions (p, q), reverse a shortest path
    from vertex p-1 to vertex q-1.  Vertex i always carries the i-th sorted
    score, so the output has score s_i at vertex i.

    The replay makes d(R,S)/2 jumps, each one shortest-path search and one
    reversal on the bit rows: O(n^2 / 64) word operations a jump at most.
    No cap applies here: the transitive sequence takes n^2/8 jumps, so the
    bound is O(n^4 / 512) word operations in all.  ``landau realize`` reads
    d(R,S)/2 first and refuses more than ``cli.REALIZE_JUMP_CAP`` jumps.
    """
    for rows, _ in _replay(s):
        pass
    return Tournament._trusted(rows)


def realize_stages(s: LandauSequence) -> Iterator[Tournament]:
    """The intermediate tournaments of :func:`realize`, regular end first.

    The returned iterator runs from the starting regular/nearly-regular
    tournament down to the realization of ``s``; every stage except possibly
    the last is strong.  Each stage is made as the replay reaches it, so a
    caller that reads one stage at a time holds one stage at a time, and
    ``list(realize_stages(s))`` holds them all.  ``s`` is checked at the
    call, not at the first stage.
    """
    return (Tournament._trusted(rows) for rows, _ in _replay(_sequence(s)))


def count_3cycles(t: Tournament) -> int:
    """Number of cyclic triples, read off the out-degrees in O(n).

    C(n,3) - sum C(s_i,2) (Kendall & Babington Smith, 1940), which needs
    neither sorted scores nor a check of Landau's conditions.  The tests
    check it against ``oracle.three_cycles``, which counts on the arcs.
    """
    return _cyclic_triples(_tournament(t)._popcounts())
