"""File formats: MDP specs, policies, episode sets, and tuple datasets.

MDP spec files are JSON documents mirroring the TabularMdp fields; a grid
world may instead be given as a "map" of row strings (S/F/H/G) plus a slip
probability.  Episode sets and tuple datasets are JSON lines, one record per
line; episode files start with a metadata header line carrying the state and
action space sizes and the generating discount.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .empirical import TupleDataset
from .errors import ValidationError
from .mdp import Episode, EpisodeSet, Policy, Step, TabularMdp, make_frozen_lake


def save_mdp(mdp: TabularMdp, path) -> None:
    doc = {
        "num_states": mdp.num_states,
        "num_actions": mdp.num_actions,
        "transitions": mdp.transitions.tolist(),
        "rewards": [
            [[[v, p] for v, p in mdp.rewards[s][a]] for a in range(mdp.num_actions)]
            for s in range(mdp.num_states)
        ],
        "initial_dist": mdp.initial_dist.tolist(),
        "discount": mdp.discount,
        "terminal_states": sorted(mdp.terminal_states),
        "r_max": mdp.r_max,
    }
    Path(path).write_text(json.dumps(doc))


def load_mdp(path) -> TabularMdp:
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ValidationError(f"cannot read MDP spec {path}: {exc}") from exc
    try:
        if "map" in doc:
            return make_frozen_lake(
                slip_prob=doc.get("slip_prob", 0.25),
                grid=doc["map"],
                discount=doc.get("discount", 0.999),
            )
        return TabularMdp(
            num_states=int(doc["num_states"]),
            num_actions=int(doc["num_actions"]),
            transitions=np.array(doc["transitions"], dtype=np.float64),
            rewards=doc["rewards"],
            initial_dist=np.array(doc["initial_dist"], dtype=np.float64),
            discount=float(doc["discount"]),
            terminal_states=frozenset(doc.get("terminal_states", [])),
            r_max=float(doc.get("r_max", 1.0)),
        )
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        raise ValidationError(f"malformed MDP spec {path}: {exc}") from exc


def save_policy(policy: Policy, path) -> None:
    Path(path).write_text(json.dumps({"probs": policy.probs.tolist()}))


def policy_from_doc(doc, source) -> Policy:
    """Policy from a ``{"probs": [[...], ...]}`` document read from ``source``."""
    try:
        return Policy(np.array(doc["probs"], dtype=np.float64))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"cannot read policy {source}: {exc}") from exc


def load_policy(path) -> Policy:
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ValidationError(f"cannot read policy {path}: {exc}") from exc
    return policy_from_doc(doc, path)


def save_episodes(episodes: EpisodeSet, path, discount: float | None = None) -> None:
    """One JSON line per episode, preceded by a metadata header line."""
    lines = [
        json.dumps(
            {
                "meta": {
                    "num_states": episodes.num_states,
                    "num_actions": episodes.num_actions,
                    "discount": discount,
                }
            }
        )
    ]
    for ep in episodes.episodes:
        steps = [
            [s.state, s.action, s.reward, s.next_state, s.behavior_prob, int(s.terminal)]
            for s in ep.steps
        ]
        lines.append(json.dumps({"initial_state": ep.initial_state, "steps": steps}))
    Path(path).write_text("\n".join(lines) + "\n")


def load_episodes(path) -> tuple:
    """Returns (EpisodeSet, discount-or-None)."""
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as exc:
        raise ValidationError(f"cannot read episodes {path}: {exc}") from exc
    if not lines:
        raise ValidationError(f"episodes file {path} is empty")
    try:
        header = json.loads(lines[0])["meta"]
        episodes = []
        for line in lines[1:]:
            if not line.strip():
                continue
            doc = json.loads(line)
            steps = tuple(
                Step(int(s), int(a), float(r), int(ns), float(bp), bool(term))
                for s, a, r, ns, bp, term in doc["steps"]
            )
            episodes.append(Episode(int(doc["initial_state"]), steps))
        return (
            EpisodeSet(tuple(episodes), int(header["num_states"]), int(header["num_actions"])),
            header.get("discount"),
        )
    except (json.JSONDecodeError, KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"malformed episodes file {path}: {exc}") from exc


def save_tuples(data: TupleDataset, path) -> None:
    lines = []
    for i in range(data.n):
        s0, s, a, r, sp = data.tuple_at(i)
        lines.append(json.dumps({"s0": s0, "s": s, "a": a, "r": r, "sp": sp}))
    Path(path).write_text("\n".join(lines) + "\n")


def load_tuples(path, num_states: int | None = None, num_actions: int | None = None) -> TupleDataset:
    """Sizes default to one past the largest index seen in the file."""
    try:
        records = [
            json.loads(line)
            for line in Path(path).read_text().splitlines()
            if line.strip()
        ]
        tuples = [(d["s0"], d["s"], d["a"], d["r"], d["sp"]) for d in records]
    except (OSError, json.JSONDecodeError, KeyError, TypeError) as exc:
        raise ValidationError(f"cannot read tuples {path}: {exc}") from exc
    if not tuples:
        raise ValidationError(f"tuples file {path} is empty")
    if num_states is None:
        num_states = 1 + max(max(t[0], t[1], t[4]) for t in tuples)
    if num_actions is None:
        num_actions = 1 + max(t[2] for t in tuples)
    return TupleDataset.from_tuples(tuples, num_states, num_actions)
