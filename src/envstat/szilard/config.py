"""Physical parameters of the one-molecule engine."""

from __future__ import annotations

import math
from dataclasses import dataclass

# most levels a config may keep; beyond it the regime is effectively classical
_LEVEL_BUDGET = 4096


@dataclass(frozen=True)
class EngineConfig:
    """Box, barrier, and bath parameters plus truncation control.

    Natural units (hbar = kB = 1, m = 1/2, L = pi) make the level unit
    epsilon equal 1, so every number is hand-checkable.  barrier_height may
    be math.inf, which selects the exact two-well limit (zero tunneling
    splitting); every other parameter must be finite and positive, and so
    must the derived scales epsilon, beta, eps_beta and epsilon_prime.  No
    float parameter may be a bool.  When n_trunc is omitted it is sized so
    that the Boltzmann tail beyond the last level is below 1e-12 and the
    measured pair count satisfies N^2 * eps * beta >= 20; either way it is
    an int of at most 4096 levels.
    """

    mass: float
    box_length: float
    barrier_width: float
    barrier_height: float
    temperature: float
    hbar: float = 1.0
    kb: float = 1.0
    n_trunc: int | None = None

    def __post_init__(self):
        for name in ("mass", "box_length", "barrier_width", "barrier_height",
                     "temperature", "hbar", "kb"):
            if isinstance(getattr(self, name), bool):
                raise ValueError(f"{name} must be a number, not a bool")
        for name in ("mass", "box_length", "barrier_width", "temperature", "hbar", "kb"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
            if value <= 0:
                raise ValueError(f"{name} must be positive")
        if not self.barrier_height > 0:  # also rejects NaN
            raise ValueError(
                f"barrier_height must be positive (math.inf allowed), got {self.barrier_height}")
        if self.barrier_width / self.box_length > 0.05:
            raise ValueError("thin-barrier regime requires d/L <= 0.05")
        for name in ("epsilon", "beta", "eps_beta", "epsilon_prime"):
            try:
                ok = 0.0 < getattr(self, name) < math.inf
            except (OverflowError, ZeroDivisionError):
                ok = False
            if not ok:
                raise ValueError(
                    f"derived scale {name} overflows or underflows double precision")
        if self.n_trunc is None:
            object.__setattr__(self, "n_trunc", self._auto_trunc())
        elif not isinstance(self.n_trunc, int) or isinstance(self.n_trunc, bool):
            raise ValueError(f"n_trunc must be an integer, got {self.n_trunc!r}")
        elif not 1 <= self.n_trunc <= _LEVEL_BUDGET:
            raise ValueError(
                f"n_trunc must lie in 1..{_LEVEL_BUDGET}, the desk-scale level "
                f"budget; got {self.n_trunc}")
        elif math.exp(-self.eps_beta * self.n_trunc**2) >= 1e-12:
            raise ValueError(
                "n_trunc too small: exp(-beta*eps*n^2) must fall below 1e-12")

    @property
    def epsilon(self) -> float:
        """Level unit of the bare box: pi^2 hbar^2 / (2 m L^2)."""
        return math.pi**2 * self.hbar**2 / (2.0 * self.mass * self.box_length**2)

    @property
    def beta(self) -> float:
        return 1.0 / (self.kb * self.temperature)

    @property
    def eps_beta(self) -> float:
        return self.epsilon * self.beta

    @property
    def epsilon_prime(self) -> float:
        """Level unit after the barrier narrows the box: eps * L^2/(L-d)^2."""
        return self.epsilon * self.box_length**2 / (self.box_length - self.barrier_width) ** 2

    def _auto_trunc(self) -> int:
        eb = self.eps_beta
        tail = math.ceil(math.sqrt(math.log(1e12) / eb)) + 2
        measured = 2 * math.ceil(math.sqrt(20.0 / eb))
        n = max(tail, measured, 2)
        if n > _LEVEL_BUDGET:
            raise ValueError(
                f"eps*beta = {eb:.3e} needs {n} levels, beyond the desk-scale "
                f"budget of {_LEVEL_BUDGET}; this regime is effectively classical")
        return n

    @staticmethod
    def natural(eps_beta: float = 1e-3,
                d_over_l: float = 0.01,
                barrier_height: float = math.inf,
                n_trunc: int | None = None) -> "EngineConfig":
        """Natural-unit engine: m = 1/2, L = pi, hbar = kB = 1, so eps = 1."""
        return EngineConfig(
            mass=0.5,
            box_length=math.pi,
            barrier_width=d_over_l * math.pi,
            barrier_height=barrier_height,
            temperature=1.0 / eps_beta,
            n_trunc=n_trunc,
        )
