"""Agents: the behavior contract, baselines, and tabular solvers."""

from cardtable.agents.base import Agent, RandomAgent
from cardtable.agents.cfr import CFRTrainer, cfr_train, regret_matching
from cardtable.agents.mccfr import MCCFRTrainer, mccfr_external_train
from cardtable.agents.policy import PolicyAgent, PolicyTable
from cardtable.agents.qlearning import QTable, qlearn_train

__all__ = [
    "Agent",
    "RandomAgent",
    "PolicyAgent",
    "PolicyTable",
    "CFRTrainer",
    "cfr_train",
    "regret_matching",
    "MCCFRTrainer",
    "mccfr_external_train",
    "QTable",
    "qlearn_train",
]
