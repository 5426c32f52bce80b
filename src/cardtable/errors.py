"""Exception types shared across the toolkit."""


class CardTableError(Exception):
    """Base class for every error raised by this package."""


class InvalidParam(CardTableError):
    """A config carried an unknown or out-of-range parameter."""


class UnknownGame(InvalidParam):
    """game_id is not registered."""


class AgentsNotSet(CardTableError):
    """Agents were not attached, or their number does not match the seats
    they fill: Env.run before set_agents, or set_agents, make_single_agent,
    tournament or rollout_parallel given the wrong count."""


class IllegalAction(CardTableError):
    """An action id outside the current legal set was submitted."""


class IllegalMove(CardTableError):
    """A concrete move violates the game rules at this state."""


class GameOver(CardTableError):
    """step was called on a finished game."""


class GameNotOver(CardTableError):
    """Payoffs were requested before the game finished."""


class NotSingleAgentMode(CardTableError):
    """reset/sa_step require an env built with make_single_agent."""


class GameTooLarge(CardTableError):
    """A full tree walk would exceed the enumeration guard."""


class NotZeroSum(CardTableError):
    """compile_tree met a terminal whose payoffs are not (p, -p): exact
    solvers and exploitability need a two-player zero-sum tree."""


class WorkerFailure(CardTableError):
    """A rollout worker raised; carries the failing game index."""

    def __init__(self, game_index: int, message: str):
        super().__init__(f"game {game_index}: {message}")
        self.game_index = game_index


class InvalidPolicy(CardTableError, ValueError):
    """A policy entry has mismatched lengths, repeated action ids, or
    probabilities that are negative, non-finite or without positive mass;
    or a policy holds keys its game has no info set for."""


class ParseError(CardTableError):
    """A policy file, config file, or trajectory log is malformed."""
