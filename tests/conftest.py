import pathlib

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def load_ints(name: str) -> list[int]:
    return [int(line) for line in (FIXTURES / name).read_text().splitlines() if line.strip()]


def step_back(game, snaps: list) -> bool:
    """Restore the newest of a walk's own snapshots; False when none is left."""
    if not snaps:
        return False
    game.restore(snaps.pop())
    return True
