"""File formats: MDP specs, policies and episode sets.

MDP spec files are JSON documents mirroring the TabularMdp fields; a grid
world may instead be given as a "map" of row strings (S/F/H/G) plus a slip
probability.  Episode sets are JSON lines, one episode per line after a
metadata header line carrying the state and action space sizes and the
generating discount.  Every input file is read through ``read_json`` and
every output file written through ``write_text`` or ``write_lines``.

Episode lines are parsed by orjson, about four times as fast as json on the
lines ``opeci gen-data`` writes, and reading them is most of an ``opeci
interval`` call on a large file.  Whole documents (MDP specs, policies,
configs and report sidecars) are small and stay on json, whose ``NaN`` then
fails the field check that names the field; orjson refuses ``NaN`` at the
parse.  Every file is written in the bytes json writes, which the golden
files pin; ``save_episodes`` renders each distinct step once and joins the
texts into each episode's line.
"""

from __future__ import annotations

import json
from itertools import chain, islice, repeat
from pathlib import Path

import numpy as np
import orjson

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
            if not lines:
                yield json.loads(fh.read())
            for number, text in enumerate(fh if lines else (), 1):
                if text.strip():
                    try:
                        doc = _parse_line(text)
                    except ValueError as exc:
                        raise ValidationError(
                            f"cannot read {what} {path} line {number}: {exc}"
                        ) from exc
                    yield doc
    except ValidationError:
        raise
    # ValueError covers JSONDecodeError, UnicodeDecodeError and over-long
    # integers; a deeply nested document raises RecursionError.  Text is
    # decoded in blocks, so an undecodable byte names no line.
    except (OSError, ValueError, RecursionError) as exc:
        raise ValidationError(f"cannot read {what} {path}: {exc}") from exc


# orjson recurses once per level of nesting, with about 70 bytes of C stack
# a level, and overflows the stack on a line nested deep enough (about
# 150,000 levels on an 8 MB stack), where json stopped at the recursion
# limit.  A line long enough to nest deeper than this is measured before it
# is parsed and refused if it does; brackets inside strings count as well.
_MAX_DEPTH = 5000
_NOT_BRACKETS = bytes(sorted(set(range(256)) - set(b"[]{}")))
_DEPTH_STEPS = bytes(1 if c in b"[{" else 255 if c in b"]}" else 0 for c in range(256))


def _parse_line(text: str):
    """The JSON document on one line, parsed by orjson; ValueError otherwise."""
    if len(text) > 2 * _MAX_DEPTH:
        steps = np.frombuffer(text.encode().translate(_DEPTH_STEPS, _NOT_BRACKETS), np.int8)
        if np.cumsum(steps, dtype=np.int64).max(initial=0) > _MAX_DEPTH:
            raise ValueError(f"nested deeper than {_MAX_DEPTH} levels")
    try:
        return orjson.loads(text)
    except orjson.JSONDecodeError as exc:
        raise ValueError(f"{exc.msg} at column {exc.colno}") from None


def write_text(path, what: str, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8.

    A file that cannot be created or written raises ValidationError.
    """
    _write(path, what, [text])


def write_lines(path, what: str, lines) -> None:
    """Write each string of the iterable ``lines`` and a newline to ``path``
    as UTF-8, one line at a time; raises ValidationError as ``write_text``."""
    _write(path, what, (line + "\n" for line in lines))


def _write(path, what: str, chunks) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
    except OSError as exc:
        raise ValidationError(f"cannot write {what} {path}: {exc}") from exc


# JSON kinds as sets of Python types.  ``type(x)`` is tested, so ``True`` is
# never an integer or a number.
INTEGERS = frozenset({int})
NUMBERS = frozenset({int, float})
STRINGS = frozenset({str})
_LISTS = frozenset({list, tuple})
_KIND_NAMES = {INTEGERS: "JSON integers", NUMBERS: "JSON numbers", STRINGS: "JSON strings"}


def check_kinds(value, kinds: frozenset, what: str, depth: int = 0, *, must: str = ""):
    """``value`` once it is ``depth`` levels of lists around items whose types
    all lie in ``kinds``; nothing is coerced.  Otherwise raises
    ValidationError("<what> must be <must>"), ``must`` naming the kinds by
    default."""
    message = f"{what} must be {must or _KIND_NAMES[kinds]}"
    rows = [[value]]
    for _ in range(depth):
        if not _types(rows) <= _LISTS:
            raise ValidationError(message)
        rows = [*chain.from_iterable(rows)]
    if not _types(rows) <= kinds:
        raise ValidationError(message)
    return value


def _types(rows) -> set:
    """The types of the items of the lists in ``rows``, with no flattened copy."""
    return set().union(*map(map, repeat(type), rows))


def load_mdp(path) -> TabularMdp:
    doc = read_json(path, "MDP spec")
    try:
        if "map" in doc:
            return make_frozen_lake(
                slip_prob=check_kinds(doc.get("slip_prob", 0.25), NUMBERS, "slip_prob"),
                grid=check_kinds(doc["map"], STRINGS, "map", 1),
                discount=check_kinds(doc.get("discount", 0.999), NUMBERS, "discount"),
            )
        return TabularMdp(
            num_states=check_kinds(doc["num_states"], INTEGERS, "num_states"),
            num_actions=check_kinds(doc["num_actions"], INTEGERS, "num_actions"),
            transitions=check_kinds(doc["transitions"], NUMBERS, "transitions", 3),
            rewards=check_kinds(doc["rewards"], NUMBERS, "reward supports", 4),
            initial_dist=check_kinds(doc["initial_dist"], NUMBERS, "initial_dist", 1),
            discount=check_kinds(doc["discount"], NUMBERS, "discount"),
            terminal_states=check_kinds(
                doc.get("terminal_states", []), INTEGERS, "terminal_states", 1
            ),
            r_max=check_kinds(doc.get("r_max", 1.0), NUMBERS, "r_max"),
        )
    # AttributeError: a JSON list that holds "map" has no .get.
    except (KeyError, TypeError, IndexError, ValueError, OverflowError, AttributeError) as exc:
        raise ValidationError(f"malformed MDP spec {path}: {exc}") from exc


def policy_from_doc(doc, source) -> Policy:
    """Policy from a ``{"probs": [[...], ...]}`` document read from ``source``."""
    try:
        return Policy(check_kinds(doc["probs"], NUMBERS, "policy probs", 2))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"cannot read policy {source}: {exc}") from exc


def load_policy(path) -> Policy:
    return policy_from_doc(read_json(path, "policy"), path)


def _step_texts(cols):
    """An iterator over json's text of each step in order, each distinct step
    rendered once.

    Steps are compared on the bit patterns of their fields: -0.0 equals 0.0,
    but json writes them differently.  ``EpisodeSet`` keeps rewards and
    probabilities finite, and ``%r`` writes a finite float as json does.
    """
    fields = [*(col.view(np.uint64) for col in cols[1:6]), cols.terminal]
    mixed = np.zeros(cols.s.size, np.uint64)
    for column in fields:
        mixed *= np.uint64(0x9E3779B97F4A7C15)
        mixed += column
    # Sorted by its hash, each step sits next to its equals.  A step starts a
    # new group unless every field equals the step's before it, so a hash
    # collision can split a group but never merge two steps.
    order = np.argsort(mixed)
    new = np.zeros(order.size, bool)
    new[:1] = True
    for column in fields:
        ordered = column[order]
        new[1:] |= ordered[1:] != ordered[:-1]
    key = np.empty_like(order)
    key[order] = np.cumsum(new) - 1
    first = order[new]
    rows = zip(*(col[first].tolist() for col in cols[1:6]),
               cols.terminal[first].astype(np.int64).tolist())
    texts = map("[%d, %d, %r, %d, %r, %d]".__mod__, rows)
    return iter(np.array([*texts], object)[key].tolist())


def save_episodes(episodes: EpisodeSet, path, discount: float | None = None) -> None:
    """One JSON line per episode, preceded by a metadata header line; each
    line is written as it is made.

    Each distinct step is rendered once and its text joined into every line
    that holds it; the bytes are those json writes for the line.
    """
    header = {
        "meta": {
            "num_states": episodes.num_states,
            "num_actions": episodes.num_actions,
            "discount": discount,
        }
    }
    cols, texts = episodes.columns, _step_texts(episodes.columns)
    lines = (
        '{"initial_state": %d, "steps": [%s]}' % (s0, ", ".join(islice(texts, length)))
        for s0, length in zip(cols.s0.tolist(), cols.lengths.tolist())
    )
    write_lines(path, "episodes", chain([json.dumps(header)], lines))


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
        check_kinds([num_states, num_actions], INTEGERS, "header state and action counts", 1)
        check_kinds(discount, NUMBERS | {type(None)}, "header discount",
                    must="a JSON number or null")
        lists = StepColumns(*([] for _ in StepColumns._fields))
        for doc in docs:
            _extend(lists, doc)
        # Kinds are checked once per file, over whole columns.
        indices = [lists.s0, lists.s, lists.a, lists.sp]
        check_kinds(indices, INTEGERS, "logged states and actions", 2)
        check_kinds([lists.r, lists.behavior_prob], NUMBERS,
                    "logged rewards and behavior probabilities", 2)
        flags = "0, 1, true or false"
        check_kinds(lists.terminal, INTEGERS | {bool}, "logged terminal flags", 1, must=flags)
        if not set(lists.terminal) <= {0, 1}:
            raise ValidationError(f"logged terminal flags must be {flags}")
        columns = StepColumns(*map(np.array, lists, COLUMN_DTYPES))
        return EpisodeSet(columns, num_states, num_actions), discount
    except ValidationError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"malformed episodes file {path}: {exc}") from exc


def _extend(lists: StepColumns, doc) -> None:
    """Append one episode line's fields to the column lists."""
    s0, rows = doc["initial_state"], doc["steps"]
    if type(rows) is not list or not set(map(len, rows)) <= {6}:
        raise ValidationError("steps must be a list of [s, a, r, s', p, terminal] lists")
    lists.s0.append(s0)
    for column, values in zip(lists[1:7], zip(*rows) if rows else ((),) * 6):
        column.extend(values)
    lists.lengths.append(len(rows))
