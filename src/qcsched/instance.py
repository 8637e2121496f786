"""Chip architectures, problem instances and the one file form.

A chip is a graph of qubits with colored 2-qubit gate edges; an instance adds
a goal set (pairs of qubit states that need a phase-separation gate), the
number of phase-separation stages, and the problem variant.

Every file the package writes (instance, schedule, run report) is
``to_json`` of its record: the record's fields by name.  ``write_json``
writes one and ``read_json`` reads one back with ``from_json``, the inverse
of ``to_json``, which reads each field by name and checks its declared type
with ``of_type``.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import deque
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from functools import cache, cached_property
from importlib import resources
from itertools import combinations
from pathlib import Path

BLUE = "blue"
RED = "red"
PS_COLORS = (RED, BLUE)

QCC = "qcc"
QCC_I = "qcc-i"
QCC_X = "qcc-x"
VARIANTS = (QCC, QCC_I, QCC_X)

PRESET_CHIPS = ("rigetti-8", "rigetti-21")
DATA = resources.files("qcsched.data")     # the bundled files

DEFAULT_SWAP_DURATION = 2
DEFAULT_MIX_DURATION = 1
DEFAULT_PS_DURATION = {BLUE: 3, RED: 4}


class ValidationError(ValueError):
    """An instance or chip violates a structural invariant."""


class ParseError(ValueError):
    """An instance or chip file is malformed."""


@dataclass(frozen=True)
class Edge:
    u: int
    v: int
    ps_color: str
    ps_duration: int
    swap_enabled: bool = True

    @property
    def pair(self) -> tuple[int, int]:
        return (min(self.u, self.v), max(self.u, self.v))


def _hop_counts(adj: dict[int, tuple[int, ...]], source: int) -> dict[int, int]:
    """Breadth-first hop counts from source to every qubit it reaches."""
    dist = {source: 0}
    queue = deque([source])
    while queue:
        q = queue.popleft()
        for n in adj[q]:
            if n not in dist:
                dist[n] = dist[q] + 1
                queue.append(n)
    return dist


@dataclass(frozen=True)
class Chip:
    """Qubits 1..qubit_count joined by colored gate edges.

    Tables that depend only on the graph (edge lookup, ps durations,
    neighbors, the swap adjacency, swap distances, swap rounds, next hops
    and their swap gates, diameter, placement ranks, crosstalk zones) are
    computed on first use and cached on the instance (the neighbors on
    construction, which checks connectivity on them); callers must not
    mutate them. They are not fields, so two chips with the same graph
    compare equal.

    Each qubit-pair fact has one table, and it reads the same in either
    order. ``edge_map`` is a dict keyed by both orders of each edge, as it
    looks up locations that come from outside the program; the others are
    lists indexed [qubit][qubit]. States move only over swap edges, which
    ``swap_distances`` measures; but a ps gate may also run on an edge that
    cannot swap, so ``swap_hops``, the exact search's routing bound, counts
    the swap rounds to an edge of either kind.
    """

    qubit_count: int
    edges: tuple[Edge, ...]
    swap_duration: int = DEFAULT_SWAP_DURATION
    mix_duration: int = DEFAULT_MIX_DURATION

    def __post_init__(self):
        if self.qubit_count < 1:
            raise ValidationError("qubit_count must be positive")
        if self.swap_duration < 1 or self.mix_duration < 1:
            raise ValidationError("gate durations must be positive")
        if not self.edges:
            raise ValidationError("chip has no edges")
        seen = set()
        for e in self.edges:
            if not (1 <= e.u <= self.qubit_count and 1 <= e.v <= self.qubit_count):
                raise ValidationError(f"edge {e.u}-{e.v} references an unknown qubit")
            if e.u == e.v:
                raise ValidationError(f"edge {e.u}-{e.v} is a self-loop")
            if e.pair in seen:
                raise ValidationError(f"duplicate edge {e.u}-{e.v}")
            seen.add(e.pair)
            if e.ps_color not in PS_COLORS:
                raise ValidationError(f"edge {e.u}-{e.v} has unknown color {e.ps_color!r}")
            if e.ps_duration < 1:
                raise ValidationError(f"edge {e.u}-{e.v} has nonpositive duration")
        # n qubits need n - 1 edges to connect: count before the adjacency
        if len(self.edges) < self.qubit_count - 1 or len(
                _hop_counts(self.neighbors, 1)) < self.qubit_count:
            raise ValidationError("chip graph is not connected")

    @property
    def qubits(self) -> range:
        return range(1, self.qubit_count + 1)

    @cached_property
    def edge_map(self) -> dict[tuple[int, int], Edge]:
        """Each edge, under ``(u, v)`` and ``(v, u)``."""
        out = {}
        for e in self.edges:
            out[(e.u, e.v)] = out[(e.v, e.u)] = e
        return out

    def _adjacency(self, edges) -> dict[int, tuple[int, ...]]:
        adj: dict[int, list[int]] = {q: [] for q in self.qubits}
        for e in edges:
            adj[e.u].append(e.v)
            adj[e.v].append(e.u)
        return {q: tuple(sorted(ns)) for q, ns in adj.items()}

    @cached_property
    def neighbors(self) -> dict[int, tuple[int, ...]]:
        return self._adjacency(self.edges)

    @cached_property
    def swap_edges(self) -> tuple[Edge, ...]:
        return tuple(e for e in self.edges if e.swap_enabled)

    @cached_property
    def swap_neighbors(self) -> dict[int, tuple[int, ...]]:
        return self._adjacency(self.swap_edges)

    @cached_property
    def swap_distances(self) -> list[list[float]]:
        """Indexed [qubit][qubit]: swap-edge hop counts, infinite where the
        swap edges do not connect the two qubits."""
        inf = float("inf")
        out: list[list[float]] = [[]]
        for q in self.qubits:
            d = _hop_counts(self.swap_neighbors, q)
            out.append([inf] + [d.get(p, inf) for p in self.qubits])
        return out

    @cached_property
    def placement_ranks(self) -> list[tuple[int, int]]:
        """Indexed by qubit: minus the size of its swap component, then its
        summed swap distance to that component. The lowest rank is the
        center of a largest component."""
        inf = float("inf")
        ranks = [(0, 0)]
        for row in self.swap_distances[1:]:
            reach = [d for d in row if d != inf]
            ranks.append((-len(reach), sum(reach)))
        return ranks

    @cached_property
    def swap_hops(self) -> list[list[float]]:
        """Indexed [qubit][qubit]: the fewest rounds of swaps before the
        states on the two qubits sit on the ends of one edge; 0 for a qubit
        with itself, infinite where no edge can join them.

        A state moves one swap edge per round, so reaching the ends of edge
        (a, b) takes max(d[u][a], d[v][b]) rounds for swap distances d.
        Over the swap edges the fewest is ceil((d[u][v] - 1) / 2) =
        d[u][v] // 2, since d[u][v] <= d[u][a] + 1 + d[b][v]; so only the
        edges that cannot swap are scanned besides."""
        inf = float("inf")
        dist = self.swap_distances
        fixed = [(e.u, e.v) for e in self.edges if not e.swap_enabled]
        fixed += [(b, a) for a, b in fixed]
        out: list[list[float]] = [[]]
        for u in self.qubits:
            du = dist[u]
            row = [0]
            for v in self.qubits:
                dv = dist[v]
                h = du[v] // 2 if du[v] != inf else inf
                for a, b in fixed:
                    h = min(h, max(du[a], dv[b]))
                row.append(h)
            out.append(row)
        return out

    @cached_property
    def swap_next_hops(self) -> list[list[tuple[int, ...]]]:
        """Indexed [target][qubit]: the qubit's swap neighbors one hop
        closer to the target, in ``swap_neighbors`` order; empty at the
        target and where the swap edges do not reach it."""
        inf = float("inf")
        out: list[list[tuple[int, ...]]] = [[]]
        for d in self.swap_distances[1:]:
            out.append([()] + [
                tuple(n for n in self.swap_neighbors[q] if d[n] == d[q] - 1)
                if d[q] != inf else () for q in self.qubits])
        return out

    @cached_property
    def swap_next_gates(self) -> list[list[int]]:
        """Indexed [target][qubit]: the gate bits of the swaps from the
        qubit to its ``swap_next_hops``, bit i for ``swap_edges[i]``; 0 at
        the target and where the swap edges do not reach it."""
        bit = {}
        for i, e in enumerate(self.swap_edges):
            bit[e.u, e.v] = bit[e.v, e.u] = 1 << i
        return [[sum(bit[q, n] for n in hops) for q, hops in enumerate(row)]
                for row in self.swap_next_hops]

    @cached_property
    def ps_durations(self) -> list[list[int]]:
        """Indexed [qubit][qubit]: the ps duration of the edge joining them,
        0 where no edge does."""
        out = [[0] * (self.qubit_count + 1)
               for _ in range(self.qubit_count + 1)]
        for e in self.edges:
            out[e.u][e.v] = out[e.v][e.u] = e.ps_duration
        return out

    @cached_property
    def swap_diameter(self) -> int:
        """Most swap hops between two qubits the swap edges connect."""
        inf = float("inf")
        return max(d for row in self.swap_distances for d in row if d != inf)

    @cached_property
    def crosstalk_zones(self) -> list[list[frozenset[int] | None]]:
        """Indexed [qubit][qubit]: the qubits disabled while a 2-qubit gate
        runs on the edge joining them, None where no edge does."""
        out: list[list[frozenset[int] | None]] = \
            [[None] * (self.qubit_count + 1)
             for _ in range(self.qubit_count + 1)]
        for e in self.edges:
            out[e.u][e.v] = out[e.v][e.u] = frozenset(
                self.neighbors[e.u] + self.neighbors[e.v]) - {e.u, e.v}
        return out

    @cached_property
    def max_ps_duration(self) -> int:
        return max(e.ps_duration for e in self.edges)

    @cached_property
    def min_ps_duration(self) -> int:
        return min(e.ps_duration for e in self.edges)


@dataclass(frozen=True)
class Instance:
    """Goals over the chip's states; the variant fixes the placement.

    Goal tables (index -> pair, state -> goal indices, the goal states) and
    the horizon are computed on first use and cached like the chip's; they
    are not fields.
    """

    chip: Chip
    goals: tuple[tuple[int, int], ...]
    stages: int = 1
    variant: str = QCC
    label: str = field(default="", compare=False)

    def __post_init__(self):
        if self.stages not in (1, 2):
            raise ValidationError(f"stages must be 1 or 2, got {self.stages}")
        if self.variant not in VARIANTS:
            raise ValidationError(f"unknown variant {self.variant!r}")
        beta = self.chip.qubit_count
        seen = set()
        for a, b in self.goals:
            if not (1 <= a <= beta and 1 <= b <= beta):
                raise ValidationError(f"goal ({a},{b}) references an unknown state")
            if a == b:
                raise ValidationError(f"goal ({a},{b}) pairs a state with itself")
            key = (min(a, b), max(a, b))
            if key in seen:
                raise ValidationError(f"duplicate goal ({a},{b})")
            seen.add(key)

    @property
    def goal_count(self) -> int:
        return len(self.goals)

    @property
    def state_count(self) -> int:
        return self.chip.qubit_count

    @cached_property
    def goal_pairs(self) -> dict[int, tuple[int, int]]:
        """1-based goal index -> state pair; stage 2 repeats stage 1."""
        return dict(enumerate(self.goals * self.stages, start=1))

    @cached_property
    def state_goals(self) -> dict[int, tuple[int, ...]]:
        """State -> the indices of the goals that name it, ascending."""
        out: dict[int, list[int]] = {s: [] for s in self.chip.qubits}
        for g, pair in self.goal_pairs.items():
            for s in pair:
                out[s].append(g)
        return {s: tuple(gs) for s, gs in out.items()}

    @cached_property
    def goal_states(self) -> tuple[int, ...]:
        """The states named by some goal, ascending."""
        return tuple(s for s, gs in self.state_goals.items() if gs)

    def goal_stage(self, goal_index: int) -> int:
        return 1 if goal_index <= len(self.goals) else 2

    @property
    def total_goals(self) -> int:
        return len(self.goals) * self.stages

    @cached_property
    def horizon(self) -> int:
        """Upper bound on the optimal makespan, from the sequential worst
        case: each goal is routed with at most ``diameter - 1`` swaps, the
        diameter taken over the chip's swap graph, and finished with the
        slowest gate. With two stages the stage blocks run back to back with
        one mixing window in between. Every gate of the exact model ends by
        it, and ``validate`` checks it as R9."""
        chip = self.chip
        swaps = max(chip.swap_diameter - 1, 0)
        single = self.goal_count * (swaps * chip.swap_duration
                                    + chip.max_ps_duration)
        if self.stages == 1:
            return single
        return 2 * single + chip.mix_duration

    @cached_property
    def content_digest(self) -> str:
        """Hash of the chip, goals, stages and variant, not of the label."""
        return hashlib.sha256(
            json.dumps(to_json(self), sort_keys=True).encode()
        ).hexdigest()[:12]

    @cached_property
    def instance_id(self) -> str:
        return self.label or self.content_digest


def build_preset_chip(name: str) -> Chip:
    """Load one of the bundled chips transcribed from the reference hardware."""
    if name not in PRESET_CHIPS:
        raise ValueError(f"unknown preset chip {name!r}; known: {PRESET_CHIPS}")
    return read_json(DATA / f"{name}.json", _chip_from_dict)


def build_grid_chip(side: int, coloring: str = "alternating") -> Chip:
    """Synthetic side x side grid chip, swaps everywhere, checkerboard colors."""
    if side < 2:
        raise ValueError(f"grid side must be >= 2, got {side}")
    if coloring not in ("alternating", "all-blue"):
        raise ValueError(f"unknown coloring {coloring!r}")

    def qid(r, c):
        return r * side + c + 1

    edges = []
    for r in range(side):
        for c in range(side):
            for dr, dc in ((0, 1), (1, 0)):
                rr, cc = r + dr, c + dc
                if rr < side and cc < side:
                    if coloring == "all-blue":
                        color = BLUE
                    else:
                        color = BLUE if (r + c) % 2 == 0 else RED
                    edges.append(Edge(qid(r, c), qid(rr, cc), color,
                                      DEFAULT_PS_DURATION[color]))
    return Chip(qubit_count=side * side, edges=tuple(edges))


def generate_instance(chip: Chip, goal_count: int, stages: int, variant: str,
                      seed: int, label: str = "") -> Instance:
    """Draw goal_count distinct state pairs uniformly; deterministic per seed."""
    beta = chip.qubit_count
    all_pairs = list(combinations(range(1, beta + 1), 2))
    if goal_count > len(all_pairs):
        raise ValueError(
            f"goal_count {goal_count} exceeds the {len(all_pairs)} distinct pairs")
    rng = random.Random(seed)
    goals = tuple(sorted(rng.sample(all_pairs, goal_count)))
    return Instance(
        chip=chip,
        goals=goals,
        stages=stages,
        variant=variant,
        label=label,
    )


# ---------------------------------------------------------------------------
# serialization

def to_json(value):
    """The file form of ``value``: a dataclass is an object of its compared
    fields by name (so an ``Instance``'s label, its file's stem, is not
    written), a NamedTuple an object of its fields, and a tuple or list a
    list; anything else is a JSON value already."""
    if is_dataclass(value):
        return {f.name: to_json(getattr(value, f.name))
                for f in fields(value) if f.compare}
    if isinstance(value, tuple) and hasattr(value, "_fields"):
        return {name: to_json(v) for name, v in zip(value._fields, value)}
    if isinstance(value, (tuple, list)):
        return [to_json(v) for v in value]
    return value


def write_json(value, path: str | Path) -> None:
    Path(path).write_text(json.dumps(to_json(value), indent=2) + "\n")


def read_json(path, decode):
    """``decode`` of the JSON in file ``path`` (a path, or a bundled
    resource); a ParseError or ValidationError it raises names the file."""
    try:
        try:
            data = json.loads((Path(path) if isinstance(path, str)
                               else path).read_text(encoding="utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError,
                RecursionError) as exc:     # too deep a nesting for the parser
            raise ParseError(f"not valid JSON: {exc}") from exc
        return decode(data)
    except (ParseError, ValidationError) as exc:
        raise type(exc)(f"{path}: {exc}") from exc


# The JSON form of each type a field may declare; an int is a float too.
_JSON_TYPES = {"bool": bool, "int": int, "float": (int, float), "str": str,
               "list": list, "dict": dict, "None": type(None)}


def of_type(value, declared: str, what: str):
    """``value`` if it is a JSON value of the type ``declared`` ("int",
    "float | None", ...), where a bool is only a bool; else a ParseError
    that names ``what``."""
    kinds = declared.split(" | ")
    if (isinstance(value, bool) and "bool" not in kinds) or not isinstance(
            value, tuple(_JSON_TYPES[kind] for kind in kinds)):
        raise ParseError(f"{what} {value!r} is not of type {declared}")
    return value


@cache
def _layout(cls) -> tuple[tuple[tuple[str, str], ...], frozenset[str]]:
    """The fields of ``cls`` that ``to_json`` writes, as (name, declared
    type) pairs, and the names of the fields with a default; worked out
    once per class."""
    if is_dataclass(cls):
        every = fields(cls)
        return (tuple((f.name, f.type) for f in every if f.compare),
                frozenset(f.name for f in every if f.default is not MISSING
                          or f.default_factory is not MISSING))
    # a NamedTuple, whose annotations are ForwardRefs
    return (tuple((name, t.__forward_arg__)
                  for name, t in cls.__annotations__.items()),
            frozenset(cls._field_defaults))


def from_json(cls, d, what: str, decode=None, required=(), **given):
    """The ``cls`` that ``to_json`` wrote as the object ``d`` (``what`` in
    errors), plus the fields ``given``. Each field it writes is read by
    name as its declared type, or as the JSON type that ``decode`` maps it
    to, with a reader for its value; a field with a default may be
    missing unless it is ``required``, and other keys are ignored."""
    if not isinstance(d, dict):
        raise ParseError(f"{what} {d!r} is not an object")
    declared, optional = _layout(cls)
    decode = decode or {}
    for name, kind in declared:
        if name in d:
            kind, read = decode.get(name, (kind, None))
            value = of_type(d[name], kind, f"{what} {name}")
            given[name] = read(value) if read and value is not None else value
        elif name not in optional or name in required:
            raise ParseError(f"missing field {name!r} in {what}")
    return cls(**given)


def _chip_from_dict(d: dict) -> Chip:
    # Unknown keys are ignored, so older files with a side_length still load.
    return from_json(Chip, d, "chip", {"edges": ("list", lambda raw: tuple(
        from_json(Edge, e, "edge") for e in raw))})


def _goals_from_list(raw: list) -> tuple[tuple[int, int], ...]:
    goals = []
    for pair in raw:
        if not (isinstance(pair, list) and len(pair) == 2):
            raise ParseError(f"goal entry {pair!r} is not a pair")
        goals.append(tuple(of_type(s, "int", "goal state") for s in pair))
    return tuple(goals)


def _instance_from_dict(d: dict, label: str = "") -> Instance:
    instance = from_json(Instance, d, "instance",
                         {"chip": ("dict", _chip_from_dict),
                          "goals": ("list", _goals_from_list)},
                         required=("stages", "variant"), label=label)
    # Older files name the placement too; it must agree with the variant.
    placement = "free" if instance.variant == QCC_I else "identity"
    if d.get("initial_mapping", placement) != placement:
        raise ValidationError(
            f"variant {instance.variant} requires "
            f"initial_mapping={placement!r}, got {d['initial_mapping']!r}")
    return instance


def write_instance(instance: Instance, path: str | Path) -> None:
    write_json(instance, path)


def read_instance(path: str | Path) -> Instance:
    return read_json(path, lambda d: _instance_from_dict(d, Path(path).stem))
