"""Vectorized environments for batched rollout collection.

Two interchangeable backends implement the same VecEnv interface
(``reset``/``step``/``close`` with auto-reset and terminal observations):

- :class:`SyncVecEnv` steps ``n_envs`` independent environment instances
  in lockstep inside the calling process, so the PPO rollout loop can
  evaluate the policy on all observations in one stacked forward pass.
- :class:`SubprocVecEnv` splits the environments into contiguous shards
  hosted by worker processes (Pensieve's 16-actor trainer, Mao et al.
  SIGCOMM '17, is the pattern), so environments whose *step* -- not the
  policy pass -- dominates wall-clock (the packet-level CC emulator)
  advance on separate cores, with IPC per vec-step scaling with the
  worker count rather than the env count.

Semantics are shared by both backends:

- **Auto-reset.**  When an env reports ``done`` its terminal observation is
  stashed in ``info["terminal_observation"]`` and the env is immediately
  reset (seedless), so :meth:`step` always returns a valid next
  observation for every env.
- **Seeding.**  ``reset(seed=s)`` with one env forwards ``s`` verbatim, so
  a one-env VecEnv reproduces ``Env.reset(seed=s)`` bit for bit.  With
  several envs, ``np.random.SeedSequence(s)`` is spawned into one child
  per env; each child both seeds that env's first episode and backs a
  per-env :class:`numpy.random.Generator` in :attr:`rngs`, so every env's
  random stream is independent yet fully determined by ``s``.  The two
  backends derive identical per-env seeds, which is what makes their
  rollouts bitwise interchangeable (tests/test_vec_env.py).

PPO always trains through this interface: a bare :class:`Env` becomes a
one-env :class:`SyncVecEnv`.  Envs that can advance a whole batch in one
vectorized pass provide their own backend instead (``make_vec_env(...,
backend="batched")``, e.g. the ABR adversary's
:class:`~repro.adversary.batched_env.BatchedAbrVecEnv`).
"""

from __future__ import annotations

import copy
import multiprocessing as mp
import os
import traceback
from typing import Any, Callable, Sequence

import numpy as np

from repro.rl.env import Env

__all__ = ["SubprocVecEnv", "SyncVecEnv", "VecEnv", "make_vec_env"]


class VecEnv:
    """Interface and shared seeding logic for vectorized environments."""

    n_envs: int
    observation_space: Any
    action_space: Any

    def __init__(self, n_envs: int, seed: int | None = None) -> None:
        self.n_envs = n_envs
        #: Per-env generators (populated by a seeded reset; ``None`` before).
        self.rngs: list[np.random.Generator] | None = None
        self._pending_seed = seed

    def _consume_seed(self, seed: int | None) -> int | None:
        if seed is None:
            seed = self._pending_seed
        self._pending_seed = None
        return seed

    def _spawn_seeds(self, seed: int | None) -> list[int | None]:
        if seed is None:
            return [None] * self.n_envs
        if self.n_envs == 1:
            # Verbatim pass-through: a one-env VecEnv must reproduce
            # Env.reset(seed=...) exactly (tests/test_vec_env.py).
            self.rngs = [np.random.default_rng(seed)]
            return [int(seed)]
        children = np.random.SeedSequence(seed).spawn(self.n_envs)
        self.rngs = [np.random.default_rng(c) for c in children]
        return [int(rng.integers(2**31 - 1)) for rng in self.rngs]

    # -- abstract API ---------------------------------------------------------

    def reset(self, *, seed: int | None = None) -> np.ndarray:
        raise NotImplementedError

    def step(
        self, actions: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[dict]]:
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError

    def __len__(self) -> int:
        return self.n_envs

    def _check_actions(self, actions: np.ndarray) -> np.ndarray:
        actions = np.asarray(actions)
        if actions.ndim == 0:
            raise ValueError(
                f"expected one action per env ({self.n_envs}), got a 0-d "
                f"action {actions!r}; pass a sequence of length n_envs"
            )
        if len(actions) != self.n_envs:
            raise ValueError(
                f"expected {self.n_envs} actions, got {len(actions)}"
            )
        return actions


class SyncVecEnv(VecEnv):
    """N independent environments stepped in lockstep with auto-reset.

    Parameters
    ----------
    env_fns:
        One zero-argument factory per env.  Factories (rather than
        instances) guarantee the envs share no mutable state.
    seed:
        Optional master seed; forwarded to :meth:`reset` on first use.
    """

    def __init__(
        self,
        env_fns: Sequence[Callable[[], Env]],
        seed: int | None = None,
    ) -> None:
        if not env_fns:
            raise ValueError("need at least one environment factory")
        self.envs: list[Env] = [fn() for fn in env_fns]
        super().__init__(len(self.envs), seed=seed)
        self.observation_space = self.envs[0].observation_space
        self.action_space = self.envs[0].action_space
        for env in self.envs[1:]:
            if env.observation_space != self.observation_space:
                raise ValueError("all envs must share one observation space")
            if env.action_space != self.action_space:
                raise ValueError("all envs must share one action space")

    # -- env API ------------------------------------------------------------

    def reset(self, *, seed: int | None = None) -> np.ndarray:
        """Reset every env; return stacked observations ``(n_envs, obs_dim)``.

        ``seed`` (or the constructor seed, on first reset) deterministically
        derives one seed per env; see the module docstring for the exact
        single-env pass-through guarantee.
        """
        seeds = self._spawn_seeds(self._consume_seed(seed))
        obs = [env.reset(seed=s) for env, s in zip(self.envs, seeds)]
        return np.stack([np.asarray(o, dtype=float) for o in obs])

    def step(
        self, actions: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[dict]]:
        """Step all envs; returns ``(obs, rewards, dones, infos)``.

        ``obs`` is ``(n_envs, obs_dim)``; ``rewards`` and ``dones`` are
        ``(n_envs,)``.  Envs that finish are auto-reset and their terminal
        observation is preserved in ``info["terminal_observation"]``.
        Each env is stepped and (if done) reset before the next one moves
        -- the order a :class:`SubprocVecEnv` worker uses on its shard.
        """
        actions = self._check_actions(actions)
        n = self.n_envs
        # Rows are written into one preallocated block: on the one-env
        # path every PPO step runs through here, and np.stack would cost
        # as much as the bookkeeping below put together.
        stacked: np.ndarray | None = None
        rewards = np.empty(n)
        dones = np.empty(n, dtype=bool)
        infos: list[dict] = []
        for i, env in enumerate(self.envs):
            obs, reward, done, info = env.step(actions[i])
            if done:
                info = dict(info)
                info["terminal_observation"] = np.asarray(obs, dtype=float)
                obs = env.reset()
            if stacked is None:
                stacked = np.empty((n,) + np.shape(obs))
            stacked[i] = obs
            rewards[i] = reward
            dones[i] = done
            infos.append(info)
        return stacked, rewards, dones, infos

    def close(self) -> None:
        for env in self.envs:
            env.close()

    def __repr__(self) -> str:
        return f"SyncVecEnv({self.n_envs} x {type(self.envs[0]).__name__})"


def _subproc_worker(conn, env_fns: Sequence[Callable[[], Env]]) -> None:
    """Worker loop: build a shard of envs, then serve reset/step/close.

    A worker hosts one *contiguous shard* of the vec-env (one or more
    envs) and steps it serially in-process, so one pipe round trip moves
    the whole shard instead of one env -- IPC per vec-step scales with
    ``n_workers``, not ``n_envs``.  Serial in-process stepping is exactly
    what :class:`SyncVecEnv` does, which keeps the two backends bitwise
    interchangeable regardless of the sharding.

    The step reply carries post-auto-reset observations, with terminal
    observations stashed in the info dicts -- the exact contract of
    :meth:`SyncVecEnv.step` -- so the parent only stacks results.
    """
    envs: list[Env] = []
    try:
        envs = [fn() for fn in env_fns]
        conn.send(("ok", [(e.observation_space, e.action_space) for e in envs]))
        while True:
            cmd, data = conn.recv()
            if cmd == "step":
                out = []
                for env, action in zip(envs, data):
                    obs, reward, done, info = env.step(action)
                    if done:
                        info = dict(info)
                        info["terminal_observation"] = np.asarray(obs, dtype=float)
                        obs = env.reset()
                    out.append(
                        (np.asarray(obs, dtype=float), float(reward),
                         bool(done), info)
                    )
                conn.send(("ok", out))
            elif cmd == "reset":
                obs = [
                    np.asarray(env.reset(seed=s), dtype=float)
                    for env, s in zip(envs, data)
                ]
                conn.send(("ok", obs))
            elif cmd == "close":
                conn.send(("ok", None))
                break
            else:  # pragma: no cover - protocol misuse
                conn.send(("error", f"unknown command {cmd!r}"))
                break
    except (EOFError, KeyboardInterrupt):  # parent died or interrupt: exit quietly
        pass
    except Exception:
        try:
            conn.send(("error", traceback.format_exc()))
        except (BrokenPipeError, OSError):  # pragma: no cover
            pass
    finally:
        for env in envs:
            env.close()
        conn.close()


class SubprocVecEnv(VecEnv):
    """Worker processes hosting shards of envs, same interface as SyncVecEnv.

    Use this backend when the environment's *step* dominates wall-clock --
    the packet-level CC emulator burns its time in the per-packet event
    loop, which the sync backend serializes on one core.  For cheap env
    steps prefer :class:`SyncVecEnv` (IPC per step costs more than the
    step itself), and for the ABR adversary its ``"batched"`` backend.

    The ``n_envs`` environments are split into ``n_workers`` contiguous
    shards (one process each, defaulting to one worker per available
    core).  Each worker steps its shard serially, so the per-vec-step IPC
    cost is ``n_workers`` pipe round trips -- not ``n_envs`` -- while the
    stepping order within a shard matches :class:`SyncVecEnv` exactly.

    Parameters
    ----------
    env_fns:
        One zero-argument factory per env, executed inside its worker.
        With the default ``fork`` start method closures work as-is; under
        ``spawn`` the factories must be picklable.
    seed:
        Optional master seed; forwarded to :meth:`reset` on first use.
    start_method:
        Multiprocessing start method; defaults to ``fork`` where
        available (Linux), else the platform default.
    n_workers:
        Number of worker processes; defaults to
        ``min(n_envs, os.cpu_count())``.  More workers than cores only
        adds context switching; fewer trades parallelism for IPC.

    Worker failures surface as :class:`RuntimeError` carrying the remote
    traceback, and every remaining worker is shut down before raising, so
    a crashed env never leaves orphan processes behind.
    """

    def __init__(
        self,
        env_fns: Sequence[Callable[[], Env]],
        seed: int | None = None,
        start_method: str | None = None,
        n_workers: int | None = None,
    ) -> None:
        if not env_fns:
            raise ValueError("need at least one environment factory")
        super().__init__(len(env_fns), seed=seed)
        if n_workers is None:
            n_workers = min(self.n_envs, os.cpu_count() or 1)
        if not 1 <= n_workers <= self.n_envs:
            raise ValueError(
                f"n_workers must be in [1, n_envs], got {n_workers}"
            )
        self.n_workers = n_workers
        # Contiguous shard boundaries: worker w hosts envs
        # [_bounds[w], _bounds[w+1]).  Sizes differ by at most one.
        base, extra = divmod(self.n_envs, n_workers)
        bounds = [0]
        for w in range(n_workers):
            bounds.append(bounds[-1] + base + (1 if w < extra else 0))
        self._bounds = bounds
        if start_method is None:
            methods = mp.get_all_start_methods()
            start_method = "fork" if "fork" in methods else methods[0]
        ctx = mp.get_context(start_method)
        self._conns = []
        self._procs = []
        self._closed = False
        for w in range(n_workers):
            shard = list(env_fns[bounds[w]:bounds[w + 1]])
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=_subproc_worker, args=(child_conn, shard), daemon=True
            )
            proc.start()
            child_conn.close()
            self._conns.append(parent_conn)
            self._procs.append(proc)
        spaces = [s for conn in self._conns for s in self._recv(conn)]
        self.observation_space, self.action_space = spaces[0]
        for obs_space, act_space in spaces[1:]:
            if obs_space != self.observation_space:
                raise ValueError("all envs must share one observation space")
            if act_space != self.action_space:
                raise ValueError("all envs must share one action space")

    def _recv(self, conn):
        try:
            status, payload = conn.recv()
        except (EOFError, ConnectionResetError):
            self.close(terminate=True)
            raise RuntimeError("a SubprocVecEnv worker died unexpectedly")
        if status == "error":
            self.close(terminate=True)
            raise RuntimeError(f"SubprocVecEnv worker failed:\n{payload}")
        return payload

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("SubprocVecEnv has been closed")

    # -- env API ------------------------------------------------------------

    def reset(self, *, seed: int | None = None) -> np.ndarray:
        """Reset every env; return stacked observations ``(n_envs, obs_dim)``."""
        self._check_open()
        seeds = self._spawn_seeds(self._consume_seed(seed))
        bounds = self._bounds
        for w, conn in enumerate(self._conns):
            conn.send(("reset", seeds[bounds[w]:bounds[w + 1]]))
        obs = [o for conn in self._conns for o in self._recv(conn)]
        return np.stack(obs)

    def step(
        self, actions: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[dict]]:
        """Step all envs in parallel; same contract as :meth:`SyncVecEnv.step`."""
        self._check_open()
        actions = self._check_actions(actions)
        bounds = self._bounds
        for w, conn in enumerate(self._conns):
            conn.send(("step", actions[bounds[w]:bounds[w + 1]]))
        results = [r for conn in self._conns for r in self._recv(conn)]
        obs = np.stack([r[0] for r in results])
        rewards = np.array([r[1] for r in results], dtype=float)
        dones = np.array([r[2] for r in results], dtype=bool)
        infos = [r[3] for r in results]
        return obs, rewards, dones, infos

    def close(self, terminate: bool = False) -> None:
        """Shut every worker down (idempotent).

        ``terminate`` skips the polite close handshake -- used on error
        paths where workers may no longer be responsive.
        """
        if self._closed:
            return
        self._closed = True
        if not terminate:
            for conn in self._conns:
                try:
                    conn.send(("close", None))
                    conn.recv()
                except (BrokenPipeError, EOFError, OSError):
                    pass
        for conn in self._conns:
            conn.close()
        for proc in self._procs:
            if terminate and proc.is_alive():
                proc.terminate()
            proc.join(timeout=5.0)
            if proc.is_alive():  # pragma: no cover - last resort
                proc.kill()
                proc.join()

    def __del__(self) -> None:  # pragma: no cover - interpreter teardown
        try:
            self.close(terminate=True)
        except Exception:
            pass

    def __repr__(self) -> str:
        state = "closed" if self._closed else "live"
        return (
            f"SubprocVecEnv({self.n_envs} envs / "
            f"{self.n_workers} workers, {state})"
        )


def make_vec_env(
    env_fn: Callable[[], Env] | Env,
    n_envs: int,
    seed: int | None = None,
    backend: str = "sync",
) -> VecEnv:
    """Build a vectorized env from a factory or a prototype instance.

    Passing an :class:`Env` instance deep-copies it ``n_envs - 1`` times (the
    original becomes env 0), which is convenient for prototypes that are
    cheap to copy; envs needing distinct construction-time state (e.g. a
    per-env emulator seed) should pass explicit factories instead.

    ``backend`` selects :class:`SyncVecEnv` (``"sync"``, default),
    :class:`SubprocVecEnv` (``"subproc"``), or an env-provided fully
    vectorized backend (``"batched"``).  Prototype instances with the
    subproc backend rely on the ``fork`` start method (each worker inherits
    its copy at fork time).

    The ``"batched"`` backend is duck-typed: the prototype env (the given
    instance, or one built from the factory) must expose a
    ``batched_vec_env(n_envs, seed=None)`` hook returning a :class:`VecEnv`
    whose rollouts are bitwise identical to the sync backend's -- e.g.
    :meth:`AbrAdversaryEnv.batched_vec_env
    <repro.adversary.abr_env.AbrAdversaryEnv.batched_vec_env>`.  Envs
    without the hook (such as the CC adversary) raise ``ValueError``.
    """
    if n_envs <= 0:
        raise ValueError("n_envs must be positive")
    if backend not in ("sync", "subproc", "batched"):
        raise ValueError(f"unknown vec-env backend {backend!r}")
    if backend == "batched":
        prototype = env_fn if isinstance(env_fn, Env) else env_fn()
        hook = getattr(prototype, "batched_vec_env", None)
        if hook is None:
            raise ValueError(
                f"{type(prototype).__name__} does not support the 'batched' "
                "vec-env backend (no batched_vec_env hook); use 'sync' or "
                "'subproc'"
            )
        return hook(n_envs, seed=seed)
    vec_cls = SubprocVecEnv if backend == "subproc" else SyncVecEnv
    if isinstance(env_fn, Env):
        prototype = env_fn
        copies = [copy.deepcopy(prototype) for _ in range(n_envs - 1)]
        instances = [prototype] + copies
        return vec_cls([(lambda e=e: e) for e in instances], seed=seed)
    return vec_cls([env_fn] * n_envs, seed=seed)
