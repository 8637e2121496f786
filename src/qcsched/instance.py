"""Chip architectures, problem instances and the instance file format.

A chip is a graph of qubits with colored 2-qubit gate edges; an instance adds
a goal set (pairs of qubit states that need a phase-separation gate), the
number of phase-separation stages, and the problem variant.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
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

    def other(self, qubit: int) -> int:
        return self.v if qubit == self.u else self.u


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

    Tables that depend only on the graph (edge lookup, neighbors, the swap
    adjacency, all-pairs swap distances, their swap rounds and their
    diameter, crosstalk zones) are computed on first use and cached on the
    instance; callers must not mutate them. They are not fields, so two
    chips with the same graph compare equal.
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
        if len(_hop_counts(self._adjacency(self.edges), 1)) < self.qubit_count:
            raise ValidationError("chip graph is not connected")

    @property
    def qubits(self) -> range:
        return range(1, self.qubit_count + 1)

    @cached_property
    def edge_map(self) -> dict[tuple[int, int], Edge]:
        return {e.pair: e for e in self.edges}

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
    def swap_distances(self) -> dict[int, dict[int, int]]:
        """Swap-edge hop counts, source -> {reachable qubit: distance}."""
        return {q: _hop_counts(self.swap_neighbors, q) for q in self.qubits}

    @cached_property
    def swap_hops(self) -> list[list[float]]:
        """Rounds of swaps before the states on two qubits share an edge,
        ceil((d - 1) / 2) = d // 2 for swap distance d; indexed
        [qubit][qubit], infinite where the swap edges do not connect them."""
        return [[]] + [[0] + [d[p] // 2 if p in d else float("inf")
                              for p in self.qubits]
                       for d in self.swap_distances.values()]

    @cached_property
    def swap_diameter(self) -> int:
        """Most swap hops between two qubits the swap edges connect."""
        return max(max(d.values()) for d in self.swap_distances.values())

    @cached_property
    def crosstalk_zones(self) -> dict[tuple[int, int], frozenset[int]]:
        return {e.pair: frozenset(self.neighbors[e.u] + self.neighbors[e.v])
                - {e.u, e.v} for e in self.edges}

    @cached_property
    def max_ps_duration(self) -> int:
        return max(e.ps_duration for e in self.edges)

    @cached_property
    def min_ps_duration(self) -> int:
        return min(e.ps_duration for e in self.edges)

    def edge_between(self, u: int, v: int) -> Edge | None:
        return self.edge_map.get((min(u, v), max(u, v)))

    def crosstalk_zone(self, u: int, v: int) -> frozenset[int]:
        """Qubits disabled while a 2-qubit gate runs on edge (u, v)."""
        return self.crosstalk_zones[(min(u, v), max(u, v))]


@dataclass(frozen=True)
class Instance:
    """Goals over the chip's states; the variant fixes the placement.

    Goal tables (index -> pair, state -> goal indices, the goal states) are
    computed on first use and cached like the chip's; they are not fields.
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

    def goal_pair(self, goal_index: int) -> tuple[int, int]:
        """Goal for a 1-based goal index; indexes the first set then its duplicate."""
        try:
            return self.goal_pairs[goal_index]
        except KeyError:
            raise IndexError(f"goal index {goal_index} out of range") from None

    def goal_stage(self, goal_index: int) -> int:
        return 1 if goal_index <= len(self.goals) else 2

    @property
    def total_goals(self) -> int:
        return len(self.goals) * self.stages

    @cached_property
    def content_digest(self) -> str:
        """Hash of the chip, goals, stages and variant, not of the label."""
        return hashlib.sha256(
            json.dumps(_instance_to_dict(self), sort_keys=True).encode()
        ).hexdigest()[:12]

    @cached_property
    def instance_id(self) -> str:
        return self.label or self.content_digest


def build_preset_chip(name: str) -> Chip:
    """Load one of the bundled chips transcribed from the reference hardware."""
    if name not in PRESET_CHIPS:
        raise ValueError(f"unknown preset chip {name!r}; known: {PRESET_CHIPS}")
    raw = resources.files("qcsched.data").joinpath(f"{name}.json").read_text()
    return _chip_from_dict(json.loads(raw))


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

def _chip_to_dict(chip: Chip) -> dict:
    return {
        "qubit_count": chip.qubit_count,
        "swap_duration": chip.swap_duration,
        "mix_duration": chip.mix_duration,
        "edges": [
            {"u": e.u, "v": e.v, "ps_color": e.ps_color,
             "ps_duration": e.ps_duration, "swap_enabled": e.swap_enabled}
            for e in chip.edges
        ],
    }


def parse_int(value, what: str) -> int:
    """``value`` if it is an int (a bool is not one), else a ParseError."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ParseError(f"{what} {value!r} is not an integer")


def _require(d: dict, key: str, context: str):
    if not isinstance(d, dict) or key not in d:
        raise ParseError(f"missing field {key!r} in {context}")
    return d[key]


def _require_int(d: dict, key: str, context: str) -> int:
    return parse_int(_require(d, key, context), f"{context} {key}")


def require_list(d: dict, key: str, context: str) -> list:
    value = _require(d, key, context)
    if not isinstance(value, list):
        raise ParseError(f"{context} {key} {value!r} is not a list")
    return value


def _chip_from_dict(d: dict) -> Chip:
    # Unknown keys are ignored, so older files with a side_length still load.
    edges = []
    for raw in require_list(d, "edges", "chip"):
        u = _require_int(raw, "u", "edge")    # so raw is an object
        swap_enabled = raw.get("swap_enabled", True)
        if not isinstance(swap_enabled, bool):
            raise ParseError(f"edge swap_enabled {swap_enabled!r} is not a "
                             "boolean")
        edges.append(Edge(
            u=u,
            v=_require_int(raw, "v", "edge"),
            ps_color=_require(raw, "ps_color", "edge"),
            ps_duration=_require_int(raw, "ps_duration", "edge"),
            swap_enabled=swap_enabled,
        ))
    return Chip(
        qubit_count=_require_int(d, "qubit_count", "chip"),
        swap_duration=parse_int(d.get("swap_duration", DEFAULT_SWAP_DURATION),
                                "chip swap_duration"),
        mix_duration=parse_int(d.get("mix_duration", DEFAULT_MIX_DURATION),
                               "chip mix_duration"),
        edges=tuple(edges),
    )


def _instance_to_dict(instance: Instance) -> dict:
    return {
        "chip": _chip_to_dict(instance.chip),
        "goals": [list(g) for g in instance.goals],
        "stages": instance.stages,
        "variant": instance.variant,
    }


def _instance_from_dict(d: dict, label: str = "") -> Instance:
    goals = []
    for raw in require_list(d, "goals", "instance"):
        if not (isinstance(raw, list) and len(raw) == 2):
            raise ParseError(f"goal entry {raw!r} is not a pair")
        goals.append((parse_int(raw[0], "goal state"),
                      parse_int(raw[1], "goal state")))
    variant = _require(d, "variant", "instance")
    # Older files name the placement too; it must agree with the variant.
    placement = "free" if variant == QCC_I else "identity"
    if d.get("initial_mapping", placement) != placement:
        raise ValidationError(
            f"variant {variant} requires initial_mapping={placement!r}, "
            f"got {d['initial_mapping']!r}")
    return Instance(
        chip=_chip_from_dict(_require(d, "chip", "instance")),
        goals=tuple(goals),
        stages=_require_int(d, "stages", "instance"),
        variant=variant,
        label=label,
    )


def write_instance(instance: Instance, path: str | Path) -> None:
    Path(path).write_text(json.dumps(_instance_to_dict(instance), indent=2) + "\n")


def read_instance(path: str | Path) -> Instance:
    try:
        data = json.loads(Path(path).read_text())
        return _instance_from_dict(data, label=Path(path).stem)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: not valid JSON: {exc}") from exc
    except (ParseError, ValidationError) as exc:
        raise type(exc)(f"{path}: {exc}") from exc
