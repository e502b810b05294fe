"""Built-in scenario definitions and run configuration records."""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
from numpy.typing import NDArray

from . import _native
from .errors import ConfigError
from .metapop import VARIANT_RESCALED, VARIANT_SLOW, VARIANTS
from .threestage import PATCHES, STAGES, ThreeStageParams

DEFAULT_SEED = 42
DEFAULT_HORIZON = 10_000
DEFAULT_TAIL = 6
DEFAULT_K_LIST = (1, 5, 10)
DEFAULT_INITIAL_STATE = (0.02, 0.02, 0.05, 0.05, 0.02, 0.02)

# --fast divides horizons by this; long-horizon scenarios stay representative
# because the attractors here are reached well before the full horizon.
FAST_DIVISOR = 100


@dataclass(frozen=True)
class ScenarioConfig:
    """One validated run request: model variant, parameters, and horizons.

    State order is (x1_1, x1_2, x2_1, x2_2, x3_1, x3_2): stages major,
    patches minor, matching the trajectory CSV columns.
    """

    name: str
    variant: str
    params: ThreeStageParams
    k_list: tuple[int, ...] = DEFAULT_K_LIST
    horizon: int = DEFAULT_HORIZON
    tail: int = DEFAULT_TAIL
    initial_state: NDArray[np.float64] = DEFAULT_INITIAL_STATE
    seed: int = DEFAULT_SEED
    # every config run has PATCHES patches (perfbench/record.py reads this);
    # it is a constant, not a config key
    patches = PATCHES

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigError("model.variant", f"must be one of {VARIANTS}")
        if not isinstance(self.params, ThreeStageParams):
            raise ConfigError("params", "expected a ThreeStageParams block")
        ks = tuple(int(k) for k in self.k_list)
        if len(ks) == 0 or any(k < 1 for k in ks):
            raise ConfigError("run.k_list", "need a nonempty list of integers >= 1")
        if len(set(ks)) != len(ks):  # each k is one series, one CSV block, one gap row
            raise ConfigError("run.k_list", "each k may appear only once")
        object.__setattr__(self, "k_list", ks)
        object.__setattr__(self, "horizon", int(self.horizon))
        object.__setattr__(self, "tail", int(self.tail))
        object.__setattr__(self, "seed", int(self.seed))
        if self.seed < 0:  # _pcg64 seeds the sample stream from the seed's 32-bit words
            raise ConfigError("run.seed", "must be >= 0")
        if self.horizon < 1:
            raise ConfigError("run.horizon", "must be >= 1")
        if self.horizon > _native.MAX_STEPS:  # the compiled loop counts steps in int64
            raise ConfigError("run.horizon", f"must be at most {_native.MAX_STEPS}")
        # a horizon of T yields T+1 recorded states (t = 0 .. T)
        if not 1 <= self.tail <= self.horizon + 1:
            raise ConfigError("run.tail", "must lie in [1, horizon + 1]")
        x0 = np.asarray(self.initial_state, dtype=float)
        if x0.shape != (STAGES * PATCHES,):
            raise ConfigError("init.x", f"need {STAGES * PATCHES} components")
        # NaN fails both comparisons, so this also rejects every non-finite value
        if not np.all((x0 >= 0.0) & (x0 <= _native.BOX_BOUND)):
            raise ConfigError("init.x", f"components must lie in [0, {_native.BOX_BOUND:g}]")
        object.__setattr__(self, "initial_state", x0)

    def with_overrides(self, fast: bool = False, tail: Optional[int] = None,
                       seed: Optional[int] = None) -> "ScenarioConfig":
        tail = self.tail if tail is None else tail
        horizon = self.horizon
        if fast:  # keep the horizon above the tail the run will use, never lengthen it
            horizon = min(max(horizon // FAST_DIVISOR, tail + 1, 10), horizon)
        return replace(
            self,
            horizon=horizon,
            tail=tail,
            seed=self.seed if seed is None else seed,
        )


@dataclass(frozen=True)
class Scenario:
    """A named bundle of configs plus what its runs are expected to show."""

    name: str
    description: str
    configs: tuple[ScenarioConfig, ...]
    include_local: bool = False  # also simulate each patch in isolation


def _homogeneous_params(phi: float, d: float, fractions) -> ThreeStageParams:
    return ThreeStageParams.from_fractions(
        survivals=np.full((STAGES, PATCHES), 0.5),
        fertilities=(phi, phi),
        crowding_c=(1.0, 1.0),
        crowding_d=(d, d),
        fractions=fractions,
    )


def fig2_params() -> ThreeStageParams:
    return _homogeneous_params(phi=3.1, d=10.0, fractions=(0.3, 7 / 8, 1 / 8))


def fig3_params() -> ThreeStageParams:
    return _homogeneous_params(phi=3.0003, d=5.5, fractions=(0.3, 3 / 8, 1 / 8))


def fig10_params() -> ThreeStageParams:
    return ThreeStageParams.from_fractions(
        survivals=np.array([[0.3, 0.5], [0.47, 0.5], [0.7, 0.5]]),
        fertilities=(3.8, 3.5),
        crowding_c=(1.0, 1.0),
        crowding_d=(5.3, 5.6),
        fractions=(0.3, 0.25, 0.1),
    )


def extinction_flip_params() -> ThreeStageParams:
    """Equal fertilities with strongly patch-skewed survivals.

    The rescaled variant averages survivals geometrically and the slow
    variant arithmetically, so the two reproduction numbers straddle 1
    here: 0.66 for rescaled against 1.5 for slow survival.
    """
    return ThreeStageParams.from_fractions(
        survivals=np.array([[0.9, 0.1], [0.8, 0.2], [0.7, 0.3]]),
        fertilities=(4.5, 4.5),
        crowding_c=(1.0, 1.0),
        crowding_d=(1.0, 1.0),
        fractions=(0.5, 0.5, 0.5),
    )


def _builtins() -> dict[str, Scenario]:
    fig2 = Scenario(
        name="fig2",
        description="local synchronous 2-cycles turn into a stable positive "
                    "equilibrium once fast dispersal couples the patches",
        configs=(ScenarioConfig(
            name="fig2", variant=VARIANT_SLOW, params=fig2_params(),
            k_list=(1, 5, 10, 50, 100), horizon=1_000_000, tail=8,
        ),),
        include_local=True,
    )
    fig3 = Scenario(
        name="fig3",
        description="local stable equilibria turn into a synchronous 2-cycle "
                    "once fast dispersal couples the patches",
        configs=(ScenarioConfig(
            name="fig3", variant=VARIANT_SLOW, params=fig3_params(),
            k_list=(1, 5, 10, 50, 100), horizon=1_000_000, tail=8,
        ),),
        include_local=True,
    )
    fig10 = Scenario(
        name="fig10",
        description="rescaled-survival model: complete-system totals approach "
                    "the reduced model as the time-scale ratio k grows",
        configs=(ScenarioConfig(
            name="fig10", variant=VARIANT_RESCALED, params=fig10_params(),
            k_list=(1, 5, 10), horizon=10_000, tail=6,
        ),),
    )
    flip = extinction_flip_params()
    sec42 = Scenario(
        name="sec42_compare",
        description="same parameters, opposite fates: the rescaled model goes "
                    "extinct while the slow-survival model persists",
        configs=(
            ScenarioConfig(name="sec42_compare", variant=VARIANT_SLOW,
                           params=flip, k_list=(1, 10), horizon=100_000, tail=8),
            ScenarioConfig(name="sec42_compare", variant=VARIANT_RESCALED,
                           params=flip, k_list=(1, 10), horizon=100_000, tail=8),
        ),
    )
    custom = Scenario(
        name="custom",
        description="run a user config file: twoscalepop run path/to/run.toml",
        configs=(),
    )
    # in listing order; "custom" documents the config-file entry point
    return {s.name: s for s in (fig2, fig3, fig10, sec42, custom)}


def builtin(name: str) -> Scenario:
    table = _builtins()
    if name not in table:
        known = ", ".join(table)
        raise ConfigError("scenario", f"unknown scenario {name!r}; known: {known}")
    scenario = table[name]
    if not scenario.configs:
        raise ConfigError("scenario", "custom runs take a config file path")
    return scenario


def describe() -> list[tuple[str, str]]:
    return [(name, s.description) for name, s in _builtins().items()]
