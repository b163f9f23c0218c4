"""File-format round trips and input checks for MDPs, policies and episodes."""

import hashlib
import json

import numpy as np
import pytest

from opeci import (
    ValidationError,
    exact_policy_value,
    make_frozen_lake,
    make_random_mdp,
    make_random_policy,
    optimal_policy,
    sample_episodes,
)
from opeci.io import _MAX_DEPTH, load_episodes, load_mdp, load_policy, save_episodes
from opeci.mdp import Episode, Step

from _oracles import episode_set, save_episodes_reference, save_mdp, save_policy


class TestMdpFiles:
    def test_round_trip_preserves_evaluation(self, tmp_path):
        mdp = make_random_mdp(4, 3, 0.9, rng_seed=1)
        policy = make_random_policy(4, 3, rng_seed=2)
        path = tmp_path / "mdp.json"
        save_mdp(mdp, path)
        loaded = load_mdp(path)
        assert loaded.num_states == 4
        assert np.array_equal(loaded.transitions, mdp.transitions)
        assert loaded.rewards == mdp.rewards
        assert exact_policy_value(loaded, policy) == exact_policy_value(mdp, policy)

    def test_grid_spec_loads_as_lake(self, tmp_path):
        path = tmp_path / "lake.json"
        path.write_text(json.dumps({"map": ["SF", "FG"], "slip_prob": 0.0, "discount": 0.9}))
        mdp = load_mdp(path)
        assert mdp.num_states == 5  # 4 cells + sink
        assert mdp.discount == 0.9

    def test_terminal_states_survive(self, tmp_path):
        mdp = make_frozen_lake()
        path = tmp_path / "lake_full.json"
        save_mdp(mdp, path)
        assert load_mdp(path).terminal_states == mdp.terminal_states

    @pytest.mark.parametrize("doc", [
        {"map": ["SG"], "discount": "0.9"}, {"map": ["SG"], "slip_prob": False},
    ])
    def test_grid_field_of_wrong_json_kind_rejected(self, tmp_path, doc):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match="JSON numbers"):
            load_mdp(path)

    def test_malformed_file_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ValidationError):
            load_mdp(path)
        path.write_text(json.dumps({"num_states": 2}))
        with pytest.raises(ValidationError):
            load_mdp(path)
        with pytest.raises(ValidationError):
            load_mdp(tmp_path / "missing.json")


class TestPolicyFiles:
    def test_round_trip(self, tmp_path):
        policy = make_random_policy(5, 2, rng_seed=3)
        path = tmp_path / "policy.json"
        save_policy(policy, path)
        assert np.array_equal(load_policy(path).probs, policy.probs)

    def test_malformed_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"wrong": 1}))
        with pytest.raises(ValidationError):
            load_policy(path)


class TestEpisodeFiles:
    def test_round_trip_exact(self, tmp_path):
        mdp = make_frozen_lake()
        behavior = optimal_policy(mdp)
        episodes = sample_episodes(mdp, behavior, 12, 60, rng_seed=4)
        path = tmp_path / "episodes.jsonl"
        save_episodes(episodes, path, discount=mdp.discount)
        loaded, discount = load_episodes(path)
        assert loaded == episodes
        assert discount == mdp.discount

    def test_golden_file_bytes(self, tmp_path):
        # Hand-built, so the digest pins the writer and not the sampler: an
        # empty episode, a cut one, and numbers that json writes in exponent form.
        episodes = episode_set((
            Episode(2, ()),
            Episode(0, (Step(0, 1, -2.5e-07, 1, 1e-05, False), Step(1, 0, 1.0, 2, 0.5, True))),
            Episode(1, (Step(1, 2, 0.1 + 0.2, 1, 1 / 3, False),)),
        ), 3, 3)
        path = tmp_path / "episodes.jsonl"
        save_episodes(episodes, path, 0.999)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "e73b30d75a939133028bf270b11c741165167d56126ce9ef46cfc33cc75fb4d1"
        )

    def test_bytes_equal_reference_writer_whether_or_not_steps_repeat(self, tmp_path):
        # The lake repeats its steps and a 30-state random MDP's are mostly
        # distinct; then episodes of no steps, and signed zeros, the least
        # subnormal and a float json writes in exponent form.
        lake, mdp = make_frozen_lake(), make_random_mdp(30, 3, 0.9, 4)
        tricky = [Step(0, 1, r, 2, p, False)
                  for r, p in ((0.0, 5e-324), (-0.0, 1.0), (5e-324, 0.5), (1e16, 1e-05))]
        for episodes in (
            sample_episodes(lake, optimal_policy(lake), 50, 60, rng_seed=3),
            sample_episodes(mdp, make_random_policy(30, 3, 5), 50, 10, rng_seed=3),
            episode_set((Episode(2, ()), Episode(0, ())), 3, 3),
            episode_set((Episode(0, (*tricky, tricky[1], tricky[0])), Episode(1, (tricky[1],))), 3, 3),
        ):
            path, reference = tmp_path / "episodes.jsonl", tmp_path / "reference.jsonl"
            save_episodes(episodes, path, 0.9)
            save_episodes_reference(episodes, reference, 0.9)
            assert path.read_bytes() == reference.read_bytes()

    def test_one_json_line_per_episode_plus_header(self, tmp_path):
        mdp = make_frozen_lake()
        episodes = sample_episodes(mdp, optimal_policy(mdp), 5, 60, rng_seed=5)
        path = tmp_path / "episodes.jsonl"
        save_episodes(episodes, path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 6
        assert "meta" in json.loads(lines[0])
        for line in lines[1:]:
            json.loads(line)

    def test_empty_or_malformed_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("")
        with pytest.raises(ValidationError):
            load_episodes(path)
        path.write_text('{"meta": {"num_states": 1}}\n{"oops": 1}\n')
        with pytest.raises(ValidationError):
            load_episodes(path)


    def test_flags_and_integer_numbers_accepted(self, tmp_path):
        path = tmp_path / "kinds.jsonl"
        lines = [{"meta": {"num_states": 3, "num_actions": 2, "discount": 0}},
                 {"initial_state": 0, "steps": [[0, 1, 1, 2, 1, True], [2, 0, -0.5, 1, 0.5, False]]}]
        path.write_text("\n".join(json.dumps(d) for d in lines) + "\n")
        loaded, discount = load_episodes(path)
        first, second = loaded.episodes[0].steps
        assert first == Step(0, 1, 1.0, 2, 1.0, True) and second.terminal is False
        assert type(first.reward) is float and type(first.terminal) is bool
        assert discount == 0

    @pytest.mark.parametrize("field, value", [
        ("state", 1.5), ("action", 0.0), ("state", True), ("next state", "2"),
        ("reward", "1.0"), ("behavior probability", None), ("terminal", "false"), ("terminal", 2),
        ("terminal", 1.0), ("initial state", False), ("row", [0, 1, 0.0, 2, 1.0, 0, 7]),
        ("row", "abcdef"), ("steps", {}), ("steps", ""), ("meta", 3.0),
    ])
    def test_field_of_wrong_json_kind_rejected(self, tmp_path, field, value):
        meta = {"num_states": 3, "num_actions": 2, "discount": 0.9}
        episode = {"initial_state": 0, "steps": [[0, 1, 0.0, 2, 1.0, 0]]}
        fields = ["state", "action", "reward", "next state", "behavior probability", "terminal"]
        if field in fields:
            episode["steps"][0][fields.index(field)] = value
        elif field == "row":
            episode["steps"].append(value)
        elif field == "initial state":
            episode["initial_state"] = value
        elif field == "steps":
            episode["steps"] = value
        else:
            meta["num_states"] = value
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"meta": meta}) + "\n" + json.dumps(episode) + "\n")
        with pytest.raises(ValidationError):
            load_episodes(path)

    @pytest.mark.parametrize("field, value, message", [
        (3, True, "logged states and actions must be JSON integers"),
        (3, 2.0, "logged states and actions must be JSON integers"),
        (4, True, "logged rewards and behavior probabilities must be JSON numbers"),
    ])
    def test_wrong_kind_in_last_row_of_last_column_rejected(self, tmp_path, field, value, message):
        # Kinds are checked over whole columns; the one bad item is the last
        # one the check of its column reads.
        lines = self.clean_lines(tmp_path)
        last = json.loads(lines[-1])
        last["steps"][-1][field] = value
        lines[-1] = json.dumps(last) + "\n"
        path = tmp_path / "bad.jsonl"
        path.write_text("".join(lines))
        with pytest.raises(ValidationError, match=message):
            load_episodes(path)

    @staticmethod
    def clean_lines(tmp_path):
        """The lines of a 5-episode Frozen Lake file, each with its newline."""
        mdp = make_frozen_lake()
        path = tmp_path / "clean.jsonl"
        save_episodes(sample_episodes(mdp, optimal_policy(mdp), 5, 60, rng_seed=8), path, 0.9)
        return path.read_text().splitlines(keepends=True)

    @pytest.mark.parametrize("k", [1, 2, 6])
    def test_unparsable_line_is_named(self, tmp_path, k):
        lines = self.clean_lines(tmp_path)
        lines[k - 1] = lines[k - 1].replace(",", " ", 1)
        path = tmp_path / "bad.jsonl"
        path.write_text("".join(lines))
        with pytest.raises(ValidationError, match=rf"bad\.jsonl line {k}: "):
            load_episodes(path)

    # NaN, Infinity and 1e400 are no finite JSON number; orjson reads 2**64 as
    # a float, and 2**63 is an integer that overflows int64.
    @pytest.mark.parametrize("row", [
        "[0, 1, NaN, 2, 1.0, 0]", "[0, 1, Infinity, 2, 1.0, 0]", "[0, 1, -Infinity, 2, 1.0, 0]",
        "[0, 1, 1e400, 2, 1.0, 0]", "[18446744073709551616, 1, 0.0, 2, 1.0, 0]",
        "[9223372036854775808, 1, 0.0, 2, 1.0, 0]",
    ], ids=["NaN", "Infinity", "-Infinity", "1e400", "state-2**64", "state-2**63"])
    def test_non_finite_or_int64_overflowing_number_rejected(self, tmp_path, row):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"meta": {"num_states": 3, "num_actions": 2, "discount": 0.9}}\n'
                        f'{{"initial_state": 0, "steps": [{row}]}}\n')
        with pytest.raises(ValidationError):
            load_episodes(path)

    @pytest.mark.parametrize("extra", [0, 1])
    def test_nesting_deeper_than_limit_rejected(self, tmp_path, extra):
        # An ignored field nests the line _MAX_DEPTH levels deep, or one more.
        k = _MAX_DEPTH - 1 + extra
        path = tmp_path / "deep.jsonl"
        path.write_text('{"meta": {"num_states": 3, "num_actions": 2, "discount": 0.9}}\n'
                        '{"initial_state": 0, "steps": [[0, 1, 0.0, 2, 1.0, 0]], '
                        f'"x": {"[" * k}{"]" * k}}}\n')
        if extra:
            with pytest.raises(ValidationError, match="deep.jsonl line 2: nested deeper"):
                load_episodes(path)
        else:
            assert load_episodes(path)[0].columns.lengths.tolist() == [1]

    @pytest.mark.parametrize("edit", ["blank-lines", "crlf"])
    def test_blank_lines_and_crlf_load_the_same_columns(self, tmp_path, edit):
        lines = self.clean_lines(tmp_path)
        if edit == "blank-lines":
            text = "\n \t\n".join(lines) + "\n"
        else:
            text = "".join(line.replace("\n", "\r\n") for line in lines)
        path = tmp_path / "edited.jsonl"
        path.write_bytes(text.encode())
        assert (b"\r\n" in path.read_bytes()) == (edit == "crlf")
        loaded, discount = load_episodes(path)
        clean, clean_discount = load_episodes(tmp_path / "clean.jsonl")
        assert loaded == clean and discount == clean_discount == 0.9
        assert [c.dtype for c in loaded.columns] == [c.dtype for c in clean.columns]


@pytest.mark.parametrize("loader", [load_mdp, load_policy, load_episodes])
def test_non_utf8_file_is_validation_error(tmp_path, loader):
    path = tmp_path / "utf16.json"
    path.write_text(json.dumps({"probs": [[1.0]]}), encoding="utf-16")
    assert path.read_bytes().startswith(b"\xff\xfe")
    with pytest.raises(ValidationError):
        loader(path)
