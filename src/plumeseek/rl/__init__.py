"""Hybrid RL layer: discrete control over the Bayes-filter search loop."""

from .env import (
    Action,
    EpisodeDone,
    HybridEnv,
    HybridEnvConfig,
    N_ACTIONS,
    OBS_SIZE,
    RewardWeights,
)
from .qnet import Batch, QNet, ReplayBuffer, epsilon, loss_and_grads, td_train_step
from .train import (
    MODE_COMMUNICATING,
    MODE_INDIVIDUAL,
    TrainConfig,
    TrainResult,
    curves_to_csv,
    greedy_action,
    read_curves_csv,
    train,
)

__all__ = [name for name in dir() if not name.startswith("_")]
