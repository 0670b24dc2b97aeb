"""Deterministic random-number utilities.

Every stochastic component in the reproduction (execution noise, Bayesian
optimization sampling, workload input generation) draws from an explicit
:class:`RngStream` so that experiments are reproducible run-to-run and
independent components never share generator state by accident.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, List, Optional, Sequence

import numpy as np

__all__ = ["derive_seed", "RngStream", "spawn_streams"]

_SEED_MODULUS = 2**63 - 1


def derive_seed(base_seed: int, *labels: object) -> int:
    """Derive a child seed deterministically from ``base_seed`` and labels.

    The derivation hashes the base seed together with the string form of each
    label, so ``derive_seed(7, "chatbot", 3)`` always yields the same value
    and distinct labels yield (practically) independent seeds.

    Parameters
    ----------
    base_seed:
        Root seed of the experiment.
    labels:
        Arbitrary objects identifying the consumer (names, indices, ...).

    Returns
    -------
    int
        A non-negative seed strictly below ``2**63 - 1``.
    """
    hasher = hashlib.sha256()
    hasher.update(str(int(base_seed)).encode("utf-8"))
    for label in labels:
        hasher.update(b"\x1f")
        hasher.update(repr(label).encode("utf-8"))
    digest = hasher.digest()
    value = int.from_bytes(digest[:8], "big")
    return value % _SEED_MODULUS


class RngStream:
    """A labelled, seedable wrapper around :class:`numpy.random.Generator`.

    The wrapper exists so that call-sites carry a human-readable label (handy
    when debugging reproducibility issues) and so child streams can be spawned
    deterministically with :meth:`child`.

    The generator is built on first use: a stream handed to a consumer that
    never draws (e.g. a noise-free performance model) costs only its seed.
    Draws are identical to ``np.random.default_rng(seed)`` either way.
    """

    def __init__(self, seed: int, label: str = "root") -> None:
        self._seed = int(seed)
        self._label = str(label)
        self._generator: Optional[np.random.Generator] = None

    @property
    def seed(self) -> int:
        """Seed this stream was created with."""
        return self._seed

    @property
    def label(self) -> str:
        """Human-readable label of this stream."""
        return self._label

    @property
    def generator(self) -> np.random.Generator:
        """Underlying numpy generator (built on first access)."""
        generator = self._generator
        if generator is None:
            generator = self._generator = np.random.default_rng(self._seed)
        return generator

    def child(self, *labels: object) -> "RngStream":
        """Spawn an independent child stream keyed by ``labels``."""
        child_seed = derive_seed(self._seed, self._label, *labels)
        child_label = "/".join([self._label] + [str(l) for l in labels])
        return RngStream(child_seed, child_label)

    # -- convenience sampling wrappers ---------------------------------
    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        """Draw one uniform sample in ``[low, high)``."""
        return float(self.generator.uniform(low, high))

    def normal(self, mean: float = 0.0, std: float = 1.0) -> float:
        """Draw one Gaussian sample."""
        return float(self.generator.normal(mean, std))

    def lognormal(self, mean: float = 0.0, sigma: float = 1.0) -> float:
        """Draw one log-normal sample."""
        return float(self.generator.lognormal(mean, sigma))

    def exponential(self, scale: float = 1.0) -> float:
        """Draw one exponential sample with the given mean (``scale``)."""
        if scale <= 0:
            raise ValueError("scale must be positive")
        return float(self.generator.exponential(scale))

    def integers(self, low: int, high: int) -> int:
        """Draw one integer uniformly from ``[low, high)``."""
        return int(self.generator.integers(low, high))

    def choice(self, options: Sequence) -> object:
        """Pick one element of ``options`` uniformly at random."""
        if len(options) == 0:
            raise ValueError("cannot choose from an empty sequence")
        index = int(self.generator.integers(0, len(options)))
        return options[index]

    def shuffle(self, items: List) -> List:
        """Return a new list with ``items`` shuffled."""
        order = list(range(len(items)))
        self.generator.shuffle(order)
        return [items[i] for i in order]

    def multiplicative_noise(self, coefficient_of_variation: float) -> float:
        """Draw a positive noise factor with mean 1.

        The factor is log-normal with the requested coefficient of variation;
        a CV of zero returns exactly 1.0, which keeps experiments that disable
        noise bit-for-bit deterministic.
        """
        if coefficient_of_variation < 0:
            raise ValueError("coefficient_of_variation must be non-negative")
        if coefficient_of_variation == 0:
            return 1.0
        sigma2 = float(np.log(1.0 + coefficient_of_variation**2))
        sigma = float(np.sqrt(sigma2))
        return float(self.generator.lognormal(-sigma2 / 2.0, sigma))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RngStream(seed={self._seed}, label={self._label!r})"


def spawn_streams(
    base_seed: int, labels: Iterable[object], parent_label: Optional[str] = None
) -> List[RngStream]:
    """Create one independent stream per label.

    Parameters
    ----------
    base_seed:
        Root seed shared by all streams.
    labels:
        Iterable of labels; each produces one stream.
    parent_label:
        Optional prefix recorded on each stream for debugging.
    """
    parent = RngStream(base_seed, parent_label or "root")
    return [parent.child(label) for label in labels]
