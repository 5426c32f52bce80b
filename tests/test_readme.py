"""The README's library example runs as written and returns what it says."""

import pathlib
import re

from cardtable.env import GAME_IDS, REGISTRY, Transition

README = pathlib.Path(__file__).parent.parent / "README.md"


def five_line_example() -> str:
    section = README.read_text().split("## Library in five lines", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def hook_example() -> str:
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    (block,) = [b for b in blocks if "def my_planes" in b]
    return block


def test_library_in_five_lines():
    names = {}
    exec(five_line_example(), names)
    trajectories, payoffs = names["trajectories"], names["payoffs"]
    env = names["env"]
    assert isinstance(trajectories, list)
    assert len(trajectories) == len(payoffs) == env.num_players
    for seat_transitions in trajectories:
        assert type(seat_transitions) is tuple
        assert seat_transitions
        assert all(type(t) is Transition for t in seat_transitions)
        assert seat_transitions[-1].done


def test_replaced_hook_renders_its_own_planes():
    names = {}
    exec(hook_example(), names)
    trajectories, payoffs = names["trajectories"], names["payoffs"]
    assert len(trajectories) == len(payoffs) == 2
    states = [t.state for seat_transitions in trajectories for t in seat_transitions]
    assert states
    for obs in states:
        assert type(obs.planes) is list  # the engine's encode_planes returns an array
        assert obs.planes == names["my_planes"](obs.raw) == [obs.raw["my_chips"], obs.raw["opp_chips"]]


def test_game_table_matches_the_engines():
    """Each row's players and actions columns are the engine's SEATS and NUM_ACTIONS, one row per id."""
    rows = re.findall(r"^\| `(\w+)` \| ([\d-]+) \| (\d+) \|", README.read_text(), re.M)
    assert [game_id for game_id, _, _ in rows] == list(GAME_IDS)
    for game_id, players, actions in rows:
        lo, hi = REGISTRY[game_id].engine.SEATS
        assert players == (str(lo) if lo == hi else f"{lo}-{hi}")
        assert int(actions) == REGISTRY[game_id].module.NUM_ACTIONS
