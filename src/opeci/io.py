"""File formats: MDP specs, policies and episode sets.

MDP spec files are JSON documents mirroring the TabularMdp fields; a grid
world may instead be given as a "map" of row strings (S/F/H/G) plus a slip
probability.  Episode sets are JSON lines, one episode per line after a
metadata header line carrying the state and action space sizes and the
generating discount.  Every input file is read through ``read_json``.
"""

from __future__ import annotations

import json
from itertools import islice
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .mdp import COLUMN_DTYPES, EpisodeSet, Policy, StepColumns, TabularMdp, make_frozen_lake


def read_json(path, what: str, *, lines: bool = False):
    """The JSON document in a UTF-8 file or, with ``lines``, an iterator over
    the documents on its non-blank lines, each parsed as it is reached.

    A file that cannot be opened, decoded or parsed raises ValidationError.
    """
    docs = _parse(path, what, lines)
    return docs if lines else next(docs)


def _parse(path, what: str, lines: bool):
    try:
        with open(path, encoding="utf-8") as fh:
            for text in fh if lines else [fh.read()]:
                if not lines or text.strip():
                    yield json.loads(text)
    # ValueError covers JSONDecodeError, UnicodeDecodeError and over-long
    # integers; deep nesting raises RecursionError.
    except (OSError, ValueError, RecursionError) as exc:
        raise ValidationError(f"cannot read {what} {path}: {exc}") from exc


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


def _checked(value, kinds: str, what: str):
    """``value`` once ``np.asarray(value)`` is empty or has a dtype kind in
    ``kinds``: "iu" admits JSON integers, "iuf" JSON numbers; bools, strings
    and nulls are rejected, not coerced."""
    array = np.asarray(value)
    if array.size and array.dtype.kind not in kinds:
        raise ValidationError(f"{what} must be JSON {'integers' if kinds == 'iu' else 'numbers'}")
    return value


def load_mdp(path) -> TabularMdp:
    doc = read_json(path, "MDP spec")
    try:
        if "map" in doc:
            return make_frozen_lake(
                slip_prob=_checked(doc.get("slip_prob", 0.25), "iuf", "slip_prob"),
                grid=doc["map"],
                discount=_checked(doc.get("discount", 0.999), "iuf", "discount"),
            )
        for row in doc["rewards"]:
            for support in row:
                _checked(support, "iuf", "reward supports")
        return TabularMdp(
            num_states=_checked(doc["num_states"], "iu", "num_states"),
            num_actions=_checked(doc["num_actions"], "iu", "num_actions"),
            transitions=np.array(_checked(doc["transitions"], "iuf", "transitions"), np.float64),
            rewards=doc["rewards"],
            initial_dist=np.array(_checked(doc["initial_dist"], "iuf", "initial_dist"), np.float64),
            discount=float(_checked(doc["discount"], "iuf", "discount")),
            terminal_states=_checked(doc.get("terminal_states", []), "iu", "terminal_states"),
            r_max=float(_checked(doc.get("r_max", 1.0), "iuf", "r_max")),
        )
    # AttributeError: a JSON list that holds "map" has no .get.
    except (KeyError, TypeError, IndexError, ValueError, OverflowError, AttributeError) as exc:
        raise ValidationError(f"malformed MDP spec {path}: {exc}") from exc


def save_policy(policy: Policy, path) -> None:
    Path(path).write_text(json.dumps({"probs": policy.probs.tolist()}))


def policy_from_doc(doc, source) -> Policy:
    """Policy from a ``{"probs": [[...], ...]}`` document read from ``source``."""
    try:
        return Policy(np.array(_checked(doc["probs"], "iuf", "policy probs"), np.float64))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"cannot read policy {source}: {exc}") from exc


def load_policy(path) -> Policy:
    return policy_from_doc(read_json(path, "policy"), path)


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
    cols = episodes.columns
    steps = zip(*(col.tolist() for col in cols[1:6]), cols.terminal.astype(np.int64).tolist())
    for s0, length in zip(cols.s0.tolist(), cols.lengths.tolist()):
        lines.append(json.dumps({"initial_state": s0, "steps": list(islice(steps, length))}))
    Path(path).write_text("\n".join(lines) + "\n")


def load_episodes(path) -> tuple:
    """Returns (EpisodeSet, discount-or-None).

    Indices must be JSON integers, rewards and behavior probabilities JSON
    numbers and terminal flags 0, 1, true or false; nothing is coerced.
    """
    docs = read_json(path, "episodes", lines=True)
    try:
        first = next(docs, None)
        if first is None:
            raise ValidationError(f"episodes file {path} is empty")
        header = first["meta"]
        num_states, num_actions = header["num_states"], header["num_actions"]
        discount = header.get("discount")
        if not {type(num_states), type(num_actions)} <= {int}:
            raise ValidationError("header state and action counts must be JSON integers")
        if discount is not None and type(discount) not in (int, float):
            raise ValidationError("header discount must be a JSON number or null")
        lists = StepColumns(*([] for _ in StepColumns._fields))
        for doc in docs:
            _extend(lists, doc)
        columns = StepColumns(*map(np.array, lists, COLUMN_DTYPES))
        return EpisodeSet(columns, num_states, num_actions), discount
    except ValidationError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"malformed episodes file {path}: {exc}") from exc


def _extend(lists: StepColumns, doc) -> None:
    """Append one episode line's checked fields to the column lists."""
    s0, rows = doc["initial_state"], doc["steps"]
    if type(rows) is not list or not set(map(len, rows)) <= {6}:
        raise ValidationError("steps must be a list of [s, a, r, s', p, terminal] lists")
    s, a, r, sp, p, terminal = zip(*rows) if rows else ((),) * 6
    # A bool is not an index here, and nothing is coerced.
    if not {type(s0), *map(type, s), *map(type, a), *map(type, sp)} <= {int}:
        raise ValidationError("logged states and actions must be JSON integers")
    if not {*map(type, r), *map(type, p)} <= {int, float}:
        raise ValidationError("logged rewards and behavior probabilities must be JSON numbers")
    if not (set(map(type, terminal)) <= {int, bool} and set(terminal) <= {0, 1}):
        raise ValidationError("logged terminal flags must be 0, 1, true or false")
    lists.s0.append(s0)
    for column, values in zip(lists[1:7], (s, a, r, sp, p, terminal)):
        column.extend(values)
    lists.lengths.append(len(rows))
