"""The agent behavior contract and the uniform-random baseline.

eval_step receives the per-seat Rng stream the env derived for the
current game, so an agent's randomness never leaks across games or
seats. Env.run and the single-agent mode's opponents call it.
"""

from __future__ import annotations


class Agent:
    def eval_step(self, obs, rng) -> int:
        raise NotImplementedError


class RandomAgent(Agent):
    """Uniform over the legal actions."""

    def eval_step(self, obs, rng) -> int:
        return rng.choice(obs.legal_action_ids)
