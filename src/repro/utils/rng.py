"""Deterministic random-number utilities.

Every stochastic component in the reproduction (execution noise, Bayesian
optimization sampling, workload input generation) draws from an explicit
:class:`RngStream` so that experiments are reproducible run-to-run and
independent components never share generator state by accident.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["derive_seed", "first_randoms", "RngStream", "spawn_streams"]

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
    digest = hashlib.sha256(str(int(base_seed)).encode("utf-8") + _labels_bytes(labels)).digest()
    return int.from_bytes(digest[:8], "big") % _SEED_MODULUS


def _labels_bytes(labels: Tuple[object, ...]) -> bytes:
    """The labels' part of a derived seed's hash input: ``\\x1f`` and the
    ``repr`` of each label."""
    return ("\x1f%r" * len(labels) % tuple(labels)).encode("utf-8")


# -- NumPy's default_rng, vectorised over seeds --------------------------------------

_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_CHUNK_SEEDS = 2048


def _hash_constants(value: int, multiplier: int, steps: int) -> List[Tuple[int, int]]:
    """The ``(xor, multiply)`` constants of ``steps`` successive SeedSequence
    hash steps: each xors with the running constant, advances it by
    ``multiplier`` and multiplies by the advanced one."""
    pairs = []
    for _ in range(steps):
        advanced = value * multiplier & _MASK32
        pairs.append((value, advanced))
        value = advanced
    return pairs


# SeedSequence (numpy/random/bit_generator.pyx).  Its running hash constants
# evolve the same way whatever the seed, so they are fixed here: mix_entropy
# hashes each pool word once and then once per ordered pair of distinct pool
# words; generate_state(4, uint64) hashes eight output words.
_MIX_ENTROPY = _hash_constants(0x43B0D7E5, 0x931E8875, _POOL_SIZE * _POOL_SIZE)
_GENERATE_STATE = _hash_constants(0x8B51F9DD, 0x58F38DED, 2 * _POOL_SIZE)
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
# PCG64's 128-bit LCG multiplier (numpy/random/src/pcg64/pcg64.h), high limb
# first.
_PCG_MULT_HI, _PCG_MULT_LO = 0x2360ED051FC65DA4, 0x4385DF649FCCF645


def first_randoms(seeds: Sequence[int], count: int = 1) -> np.ndarray:
    """``np.random.default_rng(seed).random(count)`` for many seeds at once.

    Returns a ``(len(seeds), count)`` float64 array whose rows equal, bit for
    bit, each seed's own generator's first ``count`` draws.  Those draws are a
    fixed function of the seed: ``SeedSequence`` hash-mixes it into a pool of
    four 32-bit words and expands the pool into PCG64's 128-bit state and
    increment; each ``random()`` is then one 128-bit LCG step, the XSL-RR
    output and ``(x >> 11) * 2**-53``.  All of it is unsigned 32- and 64-bit
    arithmetic, done here in array passes over the seeds.  Array arithmetic
    wraps silently on overflow, as C's does, and every constant is typed, so
    the dtypes are the same under NumPy 1.x casting and NEP 50.

    Seeds must lie in ``[0, 2**64)``.  Below a few dozen seeds, building
    each seed's generator is faster.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    out = np.empty((len(seeds), count))
    # The passes hold a few hundred bytes of intermediates per seed; chunks
    # bound that memory at little cost in speed.
    for start in range(0, len(seeds), _CHUNK_SEEDS):
        stop = start + _CHUNK_SEEDS
        _first_randoms_into(seeds[start:stop], out[start:stop])
    return out


def _first_randoms_into(seeds: np.ndarray, out: np.ndarray) -> None:
    u32, u64 = np.uint32, np.uint64
    shift16, shift32, mask32 = u32(16), u64(32), u64(_MASK32)
    hash_steps = iter(_MIX_ENTROPY)

    def hashmix(word: np.ndarray) -> np.ndarray:
        xor, multiplier = next(hash_steps)
        word = (word ^ u32(xor)) * u32(multiplier)
        return word ^ (word >> shift16)

    # mix_entropy: a seed is one uint32 word, or two from 2**32 on; the
    # pool's remaining words hash a zero, as the high word of a small seed
    # does.
    low = (seeds & mask32).astype(np.uint32)
    zero = np.zeros_like(low)
    pool = [hashmix(word) for word in (low, (seeds >> shift32).astype(np.uint32), zero, zero)]
    for source in range(_POOL_SIZE):
        for target in range(_POOL_SIZE):
            if source != target:
                hashed = hashmix(pool[source])
                mixed = pool[target] * u32(_MIX_MULT_L) - hashed * u32(_MIX_MULT_R)
                pool[target] = mixed ^ (mixed >> shift16)
    # generate_state(4, uint64): eight words, read as four little-endian
    # uint64 values — PCG64's seed and increment, high limb first.
    words = []
    for index, (xor, multiplier) in enumerate(_GENERATE_STATE):
        word = (pool[index % _POOL_SIZE] ^ u32(xor)) * u32(multiplier)
        words.append((word ^ (word >> shift16)).astype(np.uint64))
    seed_hi, seed_lo, seq_hi, seq_lo = (
        words[i] | (words[i + 1] << shift32) for i in range(0, len(words), 2)
    )
    one = u64(1)
    inc_hi = (seq_hi << one) | (seq_lo >> u64(63))
    inc_lo = (seq_lo << one) | one
    mult_hi, mult_lo = u64(_PCG_MULT_HI), u64(_PCG_MULT_LO)
    mult_lo_low, mult_lo_high = u64(_PCG_MULT_LO & _MASK32), u64(_PCG_MULT_LO >> 32)

    def step(hi: np.ndarray, lo: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        # state * multiplier + increment (mod 2**128) on 64-bit limbs; the
        # high half of lo * mult_lo is assembled from 32-bit limbs.
        lo_low, lo_high = lo & mask32, lo >> shift32
        cross_a, cross_b = lo_low * mult_lo_high, lo_high * mult_lo_low
        middle = ((lo_low * mult_lo_low) >> shift32) + (cross_a & mask32) + (cross_b & mask32)
        mulhi = (
            lo_high * mult_lo_high + (cross_a >> shift32) + (cross_b >> shift32)
            + (middle >> shift32)
        )
        new_lo = lo * mult_lo + inc_lo
        carry = (new_lo < inc_lo).astype(np.uint64)
        return mulhi + hi * mult_lo + lo * mult_hi + inc_hi + carry, new_lo

    # Seeding: state = increment, add the seed, step once.
    lo = inc_lo + seed_lo
    hi, lo = step(inc_hi + seed_hi + (lo < inc_lo).astype(np.uint64), lo)
    for column in range(out.shape[1]):
        hi, lo = step(hi, lo)
        xored, rotation = hi ^ lo, hi >> u64(58)
        value = (xored >> rotation) | (xored << ((u64(64) - rotation) & u64(63)))
        out[:, column] = (value >> u64(11)).astype(np.float64) * 2.0**-53


class RngStream:
    """A labelled, seedable wrapper around :class:`numpy.random.Generator`.

    The wrapper exists so that call-sites carry a human-readable label (handy
    when debugging reproducibility issues) and so child streams can be spawned
    deterministically with :meth:`child`.

    The generator is built on first use: a stream handed to a consumer that
    never draws (e.g. a noise-free performance model) costs only its seed.
    A child stream goes further and derives even its seed and label on first
    use, so a child that is never drawn from costs no hash at all.  Draws are
    identical to ``np.random.default_rng(seed)`` either way.
    """

    def __init__(self, seed: int, label: str = "root") -> None:
        self._seed: Optional[int] = int(seed)
        self._label: Optional[str] = str(label)
        # A child not yet derived keeps its parent and labels instead.
        self._parent: Optional[RngStream] = None
        self._labels: Tuple[object, ...] = ()
        self._generator: Optional[np.random.Generator] = None

    def _derive(self) -> None:
        parent, labels = self._parent, self._labels
        self._seed = derive_seed(parent.seed, parent.label, *labels)
        self._label = "/".join([parent.label] + [str(label) for label in labels])
        self._parent, self._labels = None, ()

    @property
    def seed(self) -> int:
        """Seed this stream was created with."""
        if self._seed is None:
            self._derive()
        return self._seed

    @property
    def label(self) -> str:
        """Human-readable label of this stream."""
        if self._label is None:
            self._derive()
        return self._label

    @property
    def generator(self) -> np.random.Generator:
        """Underlying numpy generator (built on first access)."""
        generator = self._generator
        if generator is None:
            generator = self._generator = np.random.default_rng(self.seed)
        return generator

    def child(self, *labels: object) -> "RngStream":
        """Spawn an independent child stream keyed by ``labels``.

        Its seed is ``derive_seed(self.seed, self.label, *labels)`` and its
        label joins this stream's label and ``labels`` with ``/``; both are
        derived when first needed, so ``labels`` must be immutable (every
        caller passes ints and strings).
        """
        child = RngStream.__new__(RngStream)
        child._seed = child._label = child._generator = None
        child._parent, child._labels = self, labels
        return child

    def child_seeds(
        self,
        prefixes: Iterable[Tuple[object, ...]],
        suffixes: Sequence[Tuple[object, ...]] = ((),),
    ) -> List[int]:
        """``[self.child(*prefix, *suffix).seed for prefix in prefixes for
        suffix in suffixes]``, computed in bulk.

        A child's seed hashes this stream's seed and label, then each of its
        labels in order.  So this stream's part is hashed once, each prefix
        once on a copy of that state, and each suffix, formatted once, on a
        copy of its prefix's state.  With the default, ``prefixes`` are
        whole keys.
        """
        stream = hashlib.sha256(str(self.seed).encode("utf-8") + _labels_bytes((self.label,)))
        tails = [_labels_bytes(suffix) for suffix in suffixes]
        from_bytes = int.from_bytes
        seeds: List[int] = []
        append = seeds.append
        for prefix in prefixes:
            head = stream.copy()
            head.update(_labels_bytes(prefix))
            copy = head.copy
            for tail in tails:
                hasher = copy()
                hasher.update(tail)
                append(from_bytes(hasher.digest()[:8], "big") % _SEED_MODULUS)
        return seeds

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
        return f"RngStream(seed={self.seed}, label={self.label!r})"


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
