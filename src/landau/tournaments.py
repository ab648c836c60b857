"""Tournaments: construction, strong components, path reversal, realization.

A tournament is an orientation of the complete graph, stored here as a dense
boolean matrix where entry (i, j) means "i beats j".  The centerpiece is
:func:`realize`, which builds an explicit tournament with any prescribed
valid score sequence by running the down-jump walk on the sequence and then
replaying it in reverse as a series of path reversals starting from a
regular or nearly-regular tournament.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Tuple

import numpy as np

from .sequences import (
    LandauSequence,
    _down_rule,
    _prefix_equalities,
    _walk,
    regular_sequence,
    validate_landau,
)


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

    Immutable: the adjacency matrix is frozen at construction and operations
    that change arcs return new instances.  Entries must be 0, 1, False or
    True; anything else raises ``ValueError`` rather than becoming an arc.
    """

    __slots__ = ("_adj",)

    def __init__(self, adjacency):
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
        self._adj = adj

    @property
    def n(self) -> int:
        return self._adj.shape[0]

    @property
    def adjacency(self) -> np.ndarray:
        """Read-only n x n boolean matrix; (i, j) true iff i beats j."""
        return self._adj

    def beats(self, i: int, j: int) -> bool:
        return bool(self._adj[i, j])

    def out_set(self, i: int) -> Tuple[int, ...]:
        return tuple(int(v) for v in np.flatnonzero(self._adj[i]))

    def in_set(self, i: int) -> Tuple[int, ...]:
        return tuple(int(v) for v in np.flatnonzero(self._adj[:, i]))

    def score(self, i: int) -> int:
        return int(self._adj[i].sum())

    def scores(self) -> np.ndarray:
        """Out-degree of each vertex, indexed by vertex id."""
        return self._adj.sum(axis=1)

    def arcs(self) -> Iterator[Tuple[int, int]]:
        """All arcs (winner, loser), winners ascending, losers ascending."""
        for i in range(self.n):
            for j in np.flatnonzero(self._adj[i]):
                yield i, int(j)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Tournament):
            return NotImplemented
        return self._adj.shape == other._adj.shape and bool(
            (self._adj == other._adj).all()
        )

    def __hash__(self):
        return hash(self._adj.tobytes())

    def __repr__(self) -> str:
        return f"Tournament(n={self.n}, scores={self.scores().tolist()})"


@dataclass(frozen=True)
class VertexPath:
    """A simple directed path, listed vertex by vertex."""

    vertices: tuple

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(int(v) for v in self.vertices))
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


def from_arcs(n: int, beats: Iterable[Tuple[int, int]]) -> Tournament:
    """Build a tournament from explicit (winner, loser) pairs.

    Every unordered pair must appear exactly once, in exactly one direction.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    adj = np.zeros((n, n), dtype=bool)
    for i, j in beats:
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"vertex out of range in arc ({i}, {j})")
        if i == j:
            raise SelfLoopError(f"self-loop at vertex {i}")
        if adj[j, i] or adj[i, j]:
            raise DoublePairError(f"pair {{{i}, {j}}} oriented twice")
        adj[i, j] = True
    return Tournament(adj)


def score_sequence(t: Tournament) -> LandauSequence:
    """Sorted out-degrees; always satisfies Landau's conditions."""
    result = validate_landau(sorted(int(x) for x in t.scores()))
    if not isinstance(result, LandauSequence):
        raise TournamentError(f"out-degrees are not a score sequence: {result}")
    return result


def _rotational_matrix(n: int) -> np.ndarray:
    # n odd: vertex i beats i+1, ..., i+(n-1)/2 (mod n)
    adj = np.zeros((n, n), dtype=bool)
    idx = np.arange(n)
    for x in range(1, (n - 1) // 2 + 1):
        adj[idx, (idx + x) % n] = True
    return adj


def _nearly_regular_matrix(n: int) -> np.ndarray:
    # n even: delete the last vertex of the rotational (n+1)-tournament,
    # then relabel so scores are non-decreasing in vertex id
    adj = _rotational_matrix(n + 1)[:n, :n].copy()
    perm = np.argsort(adj.sum(axis=1), kind="stable")
    return adj[np.ix_(perm, perm)]


def rotational_regular(n: int) -> Tournament:
    """Regular tournament on odd n: vertex i beats the next (n-1)/2 vertices mod n."""
    if n < 1 or n % 2 == 0:
        raise ValueError("n must be odd and >= 1")
    return Tournament(_rotational_matrix(n))


def nearly_regular(n: int) -> Tournament:
    """Nearly-regular tournament on even n.

    Deletes the highest-labeled vertex of the rotational regular
    (n+1)-tournament, then relabels vertices in non-decreasing score order
    so vertex i carries the i-th sorted score.
    """
    if n < 2 or n % 2 == 1:
        raise ValueError("n must be even and >= 2")
    return Tournament(_nearly_regular_matrix(n))


def strong_components(t: Tournament) -> StrongDecomposition:
    """Strong components in condensation order, terminal component first.

    Read off the scores (Landau's condition with equality): the vertices,
    stably sorted by score, split wherever the sorted prefix sum is exactly
    C(k,2), lowest scores first.  Vertex ids ascend inside each component.
    """
    scores = t.scores().tolist()
    order = sorted(range(t.n), key=scores.__getitem__)
    cuts = [0, *_prefix_equalities(sorted(scores)), t.n]
    blocks = (sorted(order[a:b]) for a, b in zip(cuts, cuts[1:]))
    return StrongDecomposition(tuple(map(tuple, blocks)))


def is_strong(t: Tournament) -> bool:
    """True iff there is a directed path between every ordered vertex pair."""
    return len(strong_components(t).components) == 1


def _shortest_path(adj: np.ndarray, src: int, dst: int) -> Optional[List[int]]:
    """Shortest src -> dst path by level-synchronous BFS, or None if unreachable.

    Tie-break: every vertex on the path is the smallest-id vertex of the
    previous BFS level that beats the next one (the direct arc and the
    smallest-id middle vertex of a 2-path are tried first).  Each level is
    expanded at once with one boolean row reduction, O(|level| * n), so a
    search costs O(n^2) in the worst case and O(n) when a shortcut applies.
    """
    if adj[src, dst]:
        return [src, dst]
    mid = np.flatnonzero(adj[src] & adj[:, dst])
    if mid.size:
        return [src, int(mid[0]), dst]
    visited = np.zeros(adj.shape[0], dtype=bool)
    visited[src] = True
    levels = [np.array([src])]
    while True:
        new = adj[levels[-1]].any(axis=0) & ~visited
        if new[dst]:
            break
        level = np.flatnonzero(new)
        if not level.size:
            return None
        visited[level] = True
        levels.append(level)
    path = [dst]
    for level in reversed(levels):
        path.append(int(level[np.argmax(adj[level, path[-1]])]))
    path.reverse()
    return path


def find_path(t: Tournament, src: int, dst: int) -> VertexPath:
    """Shortest directed path from src to dst, deterministic tie-breaking.

    Among the shortest paths, each vertex is the smallest-id vertex at its
    BFS distance from src that beats the next vertex on the path.  The
    search costs O(|level| * n) per BFS level, O(n^2) at most.
    """
    if not (0 <= src < t.n and 0 <= dst < t.n):
        raise ValueError("vertex out of range")
    if src == dst:
        raise ValueError("path endpoints must differ")
    path = _shortest_path(t.adjacency, src, dst)
    if path is None:
        raise UnreachableError(f"no path from {src} to {dst}")
    return VertexPath(tuple(path))


def _flip_path(adj: np.ndarray, path: List[int]) -> None:
    for a, b in zip(path, path[1:]):
        adj[a, b] = False
        adj[b, a] = True


def reverse_path(t: Tournament, path: VertexPath) -> Tournament:
    """Reverse every arc along the path; first vertex loses 1, last gains 1."""
    adj = t.adjacency.copy()
    for a, b in zip(path.vertices, path.vertices[1:]):
        if not adj[a, b]:
            raise InvalidPathError(f"({a}, {b}) is not an arc")
    _flip_path(adj, list(path.vertices))
    return Tournament(adj)


def _base_matrix(n: int) -> np.ndarray:
    return _rotational_matrix(n) if n % 2 == 1 else _nearly_regular_matrix(n)


def _replay(s: LandauSequence) -> Iterator[np.ndarray]:
    """Replay the down-jump walk of ``s`` in reverse on one working matrix.

    Yields the starting regular/nearly-regular matrix, then the same array
    again after each path reversal: for a jump with positions (p, q), a
    shortest path from vertex p-1 to vertex q-1 is reversed.
    """
    target = list(regular_sequence(s.n).scores)
    pairs = list(_walk(_down_rule, list(s.scores), target))
    adj = _base_matrix(s.n)
    yield adj
    for p, q in reversed(pairs):
        path = _shortest_path(adj, p - 1, q - 1)
        if path is None:
            raise UnreachableError(
                f"no path from {p - 1} to {q - 1}: intermediate tournament is not strong"
            )
        _flip_path(adj, path)
        yield adj


def realize(s: LandauSequence) -> Tournament:
    """Construct a tournament whose sorted scores equal ``s``.

    Runs the down-jump walk from s to the regular sequence, starts from the
    rotational regular (or nearly-regular) tournament, and replays the walk
    in reverse: for each jump with positions (p, q), reverse a shortest path
    from vertex p-1 to vertex q-1.  Vertex i always carries the i-th sorted
    score, so the output has score s_i at vertex i.
    """
    for adj in _replay(s):
        pass
    return Tournament(adj)


def realize_stages(s: LandauSequence) -> List[Tournament]:
    """All intermediate tournaments of :func:`realize`, regular end first.

    The returned list runs from the starting regular/nearly-regular
    tournament down to the realization of ``s``; every entry except possibly
    the last is strong.
    """
    return [Tournament(adj) for adj in _replay(s)]


def count_3cycles(t: Tournament) -> int:
    """Number of cyclic triples, counted directly from the arc structure."""
    a = t.adjacency.astype(np.int64)
    return int(np.trace(a @ a @ a)) // 3
