"""Weighted-shortest-path routing and routing policies.

The routing model follows classic traffic engineering: a policy assigns a
positive weight to every directed link; each demand is routed on its
weighted shortest path; the objective is the maximum link utilization
(MLU).  The RL policy (:class:`LearnedRouting`) maps the observed demand
matrix to link weights, in the spirit of "A Machine Learning Approach to
Routing" (Valadarsky et al.), which the paper cites as an RL protocol the
framework applies to.
"""

from __future__ import annotations

from typing import Mapping

import networkx as nx
import numpy as np

from repro.routing.demands import demand_pairs, gravity_demands
from repro.routing.topology import validate_topology
from repro.rl.env import Env
from repro.rl.policy import ActorCritic
from repro.rl.ppo import PPO, PPOConfig
from repro.rl.spaces import Box

__all__ = [
    "InverseCapacityRouting",
    "LearnedRouting",
    "RoutingEnv",
    "RoutingPolicy",
    "UnitWeightRouting",
    "max_link_utilization",
    "route_demands",
    "train_learned_routing",
]

_MIN_WEIGHT = 1e-3


def route_demands(
    graph: nx.DiGraph,
    demands: Mapping[tuple[int, int], float],
    weights: Mapping[tuple[int, int], float],
) -> dict[tuple[int, int], float]:
    """Route every demand on its weighted shortest path; return link loads."""
    for edge, w in weights.items():
        if w <= 0:
            raise ValueError(f"weight for edge {edge} must be positive")
    weighted = graph.copy()
    for (u, v), w in weights.items():
        weighted[u][v]["routing_weight"] = w
    for u, v in weighted.edges:
        weighted[u][v].setdefault("routing_weight", 1.0)
    loads: dict[tuple[int, int], float] = {edge: 0.0 for edge in graph.edges}
    paths = dict(nx.all_pairs_dijkstra_path(weighted, weight="routing_weight"))
    for (src, dst), rate in demands.items():
        if rate <= 0:
            continue
        path = paths[src][dst]
        for u, v in zip(path[:-1], path[1:]):
            loads[(u, v)] += rate
    return loads


def max_link_utilization(
    graph: nx.DiGraph, loads: Mapping[tuple[int, int], float]
) -> float:
    """MLU: the highest load/capacity ratio over all links."""
    return max(
        loads.get((u, v), 0.0) / data["capacity_mbps"]
        for u, v, data in graph.edges(data=True)
    )


class RoutingPolicy:
    """Maps a demand matrix to per-link routing weights."""

    name = "routing"

    def weights(
        self, graph: nx.DiGraph, demands: Mapping[tuple[int, int], float]
    ) -> dict[tuple[int, int], float]:
        raise NotImplementedError

    def mlu(self, graph: nx.DiGraph, demands: Mapping[tuple[int, int], float]) -> float:
        """Convenience: route the demands and return the resulting MLU."""
        loads = route_demands(graph, demands, self.weights(graph, demands))
        return max_link_utilization(graph, loads)


class UnitWeightRouting(RoutingPolicy):
    """Hop-count shortest paths (weight 1 on every link)."""

    name = "unit"

    def weights(self, graph, demands):
        return {edge: 1.0 for edge in graph.edges}


class InverseCapacityRouting(RoutingPolicy):
    """OSPF's recommended default: weight proportional to 1/capacity."""

    name = "inv-cap"

    def weights(self, graph, demands):
        return {
            (u, v): 1.0 / data["capacity_mbps"]
            for u, v, data in graph.edges(data=True)
        }


class LearnedRouting(RoutingPolicy):
    """An RL policy: demand matrix in, softplus link weights out."""

    name = "rl"

    def __init__(self, graph: nx.DiGraph, policy: ActorCritic,
                 total_mbps: float) -> None:
        validate_topology(graph)
        self.graph = graph
        self.policy = policy
        self.total_mbps = total_mbps
        self._pairs = demand_pairs(graph)
        self._edges = sorted(graph.edges)
        self._rng = np.random.default_rng(0)

    def _features(self, demands: Mapping[tuple[int, int], float]) -> np.ndarray:
        return np.array([demands.get(p, 0.0) for p in self._pairs]) / self.total_mbps

    def weights(self, graph, demands):
        action = self.policy.act(self._features(demands), self._rng, deterministic=True)
        raw = np.asarray(action, dtype=float)
        soft = np.log1p(np.exp(np.clip(raw, -20.0, 20.0))) + _MIN_WEIGHT
        return dict(zip(self._edges, soft))


class RoutingEnv(Env):
    """Training environment for :class:`LearnedRouting`.

    Each step presents a fresh gravity demand matrix; the action is the
    per-link weight vector; the reward is ``-MLU`` of the induced routing.
    """

    def __init__(
        self,
        graph: nx.DiGraph,
        total_mbps: float,
        episode_len: int = 16,
        concentration: float = 1.0,
        seed: int = 0,
    ) -> None:
        validate_topology(graph)
        self.graph = graph
        self.total_mbps = total_mbps
        self.episode_len = episode_len
        self.concentration = concentration
        self._rng = np.random.default_rng(seed)
        self._pairs = demand_pairs(graph)
        self._edges = sorted(graph.edges)
        n_pairs = len(self._pairs)
        n_edges = len(self._edges)
        self.observation_space = Box([-1e6] * n_pairs, [1e6] * n_pairs)
        self.action_space = Box([-10.0] * n_edges, [10.0] * n_edges)
        self._demands: dict[tuple[int, int], float] = {}
        self._t = 0

    def _observe(self) -> np.ndarray:
        return np.array([self._demands.get(p, 0.0) for p in self._pairs]) / self.total_mbps

    def _new_demands(self) -> None:
        self._demands = gravity_demands(
            self.graph, self._rng, self.total_mbps, self.concentration
        )

    def reset(self, *, seed: int | None = None) -> np.ndarray:
        if seed is not None:
            self._rng = np.random.default_rng(seed)
        self._t = 0
        self._new_demands()
        return self._observe()

    def step(self, action):
        raw = np.asarray(action, dtype=float)
        soft = np.log1p(np.exp(np.clip(raw, -20.0, 20.0))) + _MIN_WEIGHT
        weights = dict(zip(self._edges, soft))
        loads = route_demands(self.graph, self._demands, weights)
        mlu = max_link_utilization(self.graph, loads)
        self._t += 1
        self._new_demands()
        return self._observe(), -mlu, self._t >= self.episode_len, {"mlu": mlu}


def train_learned_routing(
    graph: nx.DiGraph,
    total_mbps: float,
    total_steps: int = 20_000,
    seed: int = 0,
    config: PPOConfig | None = None,
) -> tuple[LearnedRouting, PPO]:
    """Train an RL routing policy with PPO; returns (policy, trainer)."""
    env = RoutingEnv(graph, total_mbps, seed=seed)
    cfg = config or PPOConfig(
        n_steps=256, batch_size=64, n_epochs=4, learning_rate=1e-3,
        ent_coef=0.005, hidden=(64, 32), init_log_std=-0.5,
    )
    trainer = PPO(env, cfg, seed=seed)
    trainer.learn(total_steps)
    # Inference uses the trainer's observation normalizer implicitly via
    # raw features; weights come from the deterministic policy.
    policy = LearnedRouting(graph, trainer.policy, total_mbps)
    if cfg.normalize_obs:
        # Bake normalization into the inference path.
        rms = trainer.obs_rms

        original_features = policy._features

        def normalized_features(demands):
            return rms.normalize(original_features(demands))

        policy._features = normalized_features
    return policy, trainer
