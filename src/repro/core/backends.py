"""Pluggable kernel backends for the library's bit-level hot loops.

The decode-side cost of the reproduction concentrates in a handful of
array kernels: the OLH support-count scan (``O(N * 2^d)``, the ``InpOLH``
bottleneck) and the popcount/parity folds behind the Hadamard machinery.
This module makes those kernels *swappable*: every implementation is a
:class:`KernelBackend` registered by name, and callers pick one through
:func:`resolve_backend` — explicit argument first, then the
``REPRO_KERNEL_BACKEND`` environment variable, then the process-wide
default (:func:`set_default_backend`), then an automatic choice.

Two backends ship:

* ``numpy`` — the reference-conformant blocked numpy implementation (the
  exact kernels proven against their references by the property suite).
* ``threaded`` — the same numpy kernels fanned out over a thread pool.
  numpy releases the GIL inside its ufunc loops, so user-partitioned
  support counting and chunked popcount/parity scale with cores while
  staying bit-for-bit identical (integer partial sums add exactly).

Every backend computes *identical* integer support counts — backend
choice is a pure performance knob and is treated exactly like
``decode_batch_size`` by the protocol layer (excluded from equality and
merge-signature comparisons).

This module is self-contained on purpose (numpy + exceptions only): it
*owns* the splitmix64 avalanche and the SWAR popcount so that both
``repro.core.bitops`` and ``repro.mechanisms.local_hashing`` can import
from here without circular imports.
"""

from __future__ import annotations

import logging
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from typing import Dict, Optional, Tuple

import numpy as np

from ..observability import get_registry, trace
from .exceptions import ProtocolConfigurationError

__all__ = [
    "BACKEND_ENV_VAR",
    "HAS_BITWISE_COUNT",
    "KernelBackend",
    "NumpyBackend",
    "ThreadedBackend",
    "available_backends",
    "registered_backends",
    "get_backend",
    "resolve_backend",
    "set_default_backend",
    "use_backend",
    "fold_buckets",
]

_logger = logging.getLogger(__name__)

#: Environment variable consulted by :func:`resolve_backend` when no
#: explicit backend name is passed.
BACKEND_ENV_VAR = "REPRO_KERNEL_BACKEND"

#: Whether this numpy ships the hardware-popcount ufunc (numpy >= 2.0).
HAS_BITWISE_COUNT = hasattr(np, "bitwise_count")


# --------------------------------------------------------------------- #
# shared scalar kernels (single definitions; everything imports these)

#: The (value, seed) pair is mixed as ``value + seed * _SEED_MIX`` before
#: the avalanche, so decode loops can hoist the per-seed term out of their
#: domain scans.
_SEED_MIX = np.uint64(0x9E3779B97F4A7C15)


def _avalanche(mixed: np.ndarray) -> np.ndarray:
    """The seed-independent splitmix64 finaliser (in-place on ``mixed``).

    The single definition of the OLH hash's bit mixing, shared by the
    client-side encoder and every backend's support-count scan — the two
    must agree exactly or support counts degrade to noise.
    """
    with np.errstate(over="ignore"):
        mixed ^= mixed >> np.uint64(30)
        mixed *= np.uint64(0xBF58476D1CE4E5B9)
        mixed ^= mixed >> np.uint64(27)
        mixed *= np.uint64(0x94D049BB133111EB)
        mixed ^= mixed >> np.uint64(31)
    return mixed


def fold_buckets(mixed: np.ndarray, num_buckets: int) -> np.ndarray:
    """Reduce avalanched ``uint64`` words onto ``[0, num_buckets)`` in place.

    For a power-of-two bucket count (the common case: the variance-optimal
    ``g = floor(e^eps) + 1`` is 4 for the paper's ``eps = ln 3``) the
    modulo is a bit mask, which avoids the slow vectorised 64-bit integer
    division.  ``x & (g - 1) == x % g`` exactly for unsigned ``x``, so the
    fast path is bit-identical, and both the client-side hash and every
    backend fold through this one helper so they cannot drift apart.
    """
    buckets = int(num_buckets)
    if buckets & (buckets - 1) == 0:
        mixed &= np.uint64(buckets - 1)
    else:
        mixed %= np.uint64(buckets)
    return mixed


# SWAR (SIMD-within-a-register) popcount constants for 64-bit words.
_SWAR_M1 = np.uint64(0x5555555555555555)
_SWAR_M2 = np.uint64(0x3333333333333333)
_SWAR_M4 = np.uint64(0x0F0F0F0F0F0F0F0F)
_SWAR_H01 = np.uint64(0x0101010101010101)


def _popcount_swar(words: np.ndarray) -> np.ndarray:
    """Branch-free popcount of a ``uint64`` array in five vector passes.

    The classic parallel bit-count: fold adjacent 1-, 2- and 4-bit fields
    into byte-wise counts, then sum the eight bytes with one overflowing
    multiply.  Used when :data:`HAS_BITWISE_COUNT` is false.
    """
    x = words.astype(np.uint64, copy=True)
    x -= (x >> np.uint64(1)) & _SWAR_M1
    x = (x & _SWAR_M2) + ((x >> np.uint64(2)) & _SWAR_M2)
    x = (x + (x >> np.uint64(4))) & _SWAR_M4
    with np.errstate(over="ignore"):
        x *= _SWAR_H01
    return (x >> np.uint64(56)).astype(np.int64)


#: Target element count of one (user block x domain block) intermediate of
#: the blocked support-count scan.
_DECODE_BLOCK_ELEMENTS = 1 << 20


# --------------------------------------------------------------------- #
# backends


class KernelBackend:
    """One implementation of the library's array hot-loop kernels.

    All methods receive pre-validated inputs (the public entry points in
    ``bitops``/``local_hashing`` own coercion and shape checks) and must
    return results bit-for-bit identical to :class:`NumpyBackend`.
    """

    #: Registry key; also what ``REPRO_KERNEL_BACKEND`` selects.
    name: str = "abstract"

    def popcount(self, words: np.ndarray) -> np.ndarray:
        """Set-bit count of a ``uint64`` array, as ``int64``."""
        raise NotImplementedError

    def parity(self, words: np.ndarray) -> np.ndarray:
        """Set-bit parity (0/1) of a ``uint64`` array, as ``int64``."""
        raise NotImplementedError

    def support_counts(
        self,
        seeds: np.ndarray,
        noisy_buckets: np.ndarray,
        domain_size: int,
        num_buckets: int,
        batch_size: int,
    ) -> np.ndarray:
        """OLH per-element support counts as an ``int64`` array.

        ``support[x]`` is the number of users whose noisy bucket equals
        their hash of ``x`` — an exact integer count, so any partition of
        the users (blocks, threads, processes) sums to the same result.
        """
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} name={self.name!r}>"


class NumpyBackend(KernelBackend):
    """The reference-conformant blocked numpy kernels (the default)."""

    name = "numpy"

    def popcount(self, words: np.ndarray) -> np.ndarray:
        if HAS_BITWISE_COUNT:
            return np.bitwise_count(words).astype(np.int64)
        return _popcount_swar(words)

    def parity(self, words: np.ndarray) -> np.ndarray:
        x = words
        for shift in (32, 16, 8, 4, 2, 1):
            x = x ^ (x >> np.uint64(shift))
        return (x & np.uint64(1)).astype(np.int64)

    def support_counts(
        self, seeds, noisy_buckets, domain_size, num_buckets, batch_size
    ) -> np.ndarray:
        with trace.span("kernel.support_counts") as span:
            span.annotate(backend=self.name, users=int(seeds.shape[0]))
            with np.errstate(over="ignore"):
                offsets = seeds.astype(np.uint64) * _SEED_MIX
            targets = noisy_buckets.astype(np.uint64)
            return self._scan(
                offsets, targets, domain_size, num_buckets, batch_size
            )

    @staticmethod
    def _scan(offsets, targets, domain_size, num_buckets, batch_size):
        """The cache-blocked scan over (domain blocks x user blocks).

        Runs entirely in ``uint64`` (no signed round-trip copy of the hash
        matrix), with the per-seed mixing offset hoisted out of the domain
        loop and matches accumulated into a lean ``int64`` counter.  Also
        the per-thread work unit of :class:`ThreadedBackend`.
        """
        num_users = offsets.shape[0]
        user_block = max(1, _DECODE_BLOCK_ELEMENTS // batch_size)
        support = np.zeros(domain_size, dtype=np.int64)
        for dstart in range(0, domain_size, batch_size):
            dstop = min(dstart + batch_size, domain_size)
            candidates = np.arange(dstart, dstop, dtype=np.uint64)[None, :]
            for ustart in range(0, num_users, user_block):
                ustop = min(ustart + user_block, num_users)
                with np.errstate(over="ignore"):
                    mixed = _avalanche(candidates + offsets[ustart:ustop, None])
                    fold_buckets(mixed, num_buckets)
                matches = mixed == targets[ustart:ustop, None]
                support[dstart:dstop] += np.count_nonzero(matches, axis=0)
        return support


class ThreadedBackend(KernelBackend):
    """The numpy kernels fanned out over a shared thread pool.

    Support counts partition the *users* across workers: each thread runs
    the full-domain blocked scan over its user slice and the ``int64``
    partials are summed — exact, because integer addition is associative
    and commutative.  popcount/parity chunk the input array the same way.
    Small inputs (below :attr:`min_work_elements` total work) skip the
    pool entirely; thread fan-out costs more than it saves there.
    """

    name = "threaded"

    #: Minimum total work (elements touched) before threads pay off.
    min_work_elements = 1 << 21

    def __init__(self, max_workers: Optional[int] = None):
        self._max_workers = max_workers
        self._pool: Optional[ThreadPoolExecutor] = None
        self._numpy = NumpyBackend()

    @property
    def workers(self) -> int:
        return self._max_workers or min(8, os.cpu_count() or 1)

    def _executor(self) -> ThreadPoolExecutor:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.workers, thread_name_prefix="repro-kernel"
            )
        return self._pool

    def _slices(self, total: int) -> Tuple[slice, ...]:
        workers = min(self.workers, total)
        step = -(-total // workers)
        return tuple(
            slice(start, min(start + step, total))
            for start in range(0, total, step)
        )

    def popcount(self, words: np.ndarray) -> np.ndarray:
        if words.size < self.min_work_elements or words.ndim != 1:
            return self._numpy.popcount(words)
        parts = self._executor().map(
            lambda part: self._numpy.popcount(part),
            [words[chunk] for chunk in self._slices(words.shape[0])],
        )
        return np.concatenate(list(parts))

    def parity(self, words: np.ndarray) -> np.ndarray:
        if words.size < self.min_work_elements or words.ndim != 1:
            return self._numpy.parity(words)
        parts = self._executor().map(
            lambda part: self._numpy.parity(part),
            [words[chunk] for chunk in self._slices(words.shape[0])],
        )
        return np.concatenate(list(parts))

    def support_counts(
        self, seeds, noisy_buckets, domain_size, num_buckets, batch_size
    ) -> np.ndarray:
        num_users = seeds.shape[0]
        if num_users * domain_size < self.min_work_elements or num_users < 2:
            return self._numpy.support_counts(
                seeds, noisy_buckets, domain_size, num_buckets, batch_size
            )
        with trace.span("kernel.support_counts") as span:
            span.annotate(backend=self.name, users=int(num_users))
            with np.errstate(over="ignore"):
                offsets = seeds.astype(np.uint64) * _SEED_MIX
            targets = noisy_buckets.astype(np.uint64)
            partials = self._executor().map(
                lambda chunk: NumpyBackend._scan(
                    offsets[chunk],
                    targets[chunk],
                    domain_size,
                    num_buckets,
                    batch_size,
                ),
                self._slices(num_users),
            )
            support = np.zeros(domain_size, dtype=np.int64)
            for partial in partials:
                support += partial
            return support


# --------------------------------------------------------------------- #
# registry and selection

_BACKENDS: Dict[str, KernelBackend] = {}
_DEFAULT_OVERRIDE: Optional[str] = None
_WARNED: set = set()

_DISPATCH_COUNTER = None


def _count_dispatch(backend_name: str) -> None:
    """One resolved kernel dispatch, labelled by the backend that won."""
    global _DISPATCH_COUNTER
    if _DISPATCH_COUNTER is None:
        _DISPATCH_COUNTER = get_registry().counter(
            "repro_kernel_dispatch_total",
            "Kernel-backend resolutions, by winning backend.",
            labels=("backend",),
        )
    _DISPATCH_COUNTER.labels(backend=backend_name).inc()


def _register(backend: KernelBackend) -> KernelBackend:
    _BACKENDS[backend.name] = backend
    return backend


_register(NumpyBackend())
_register(ThreadedBackend())


def registered_backends() -> Tuple[str, ...]:
    """Every registered backend name (sorted)."""
    return tuple(sorted(_BACKENDS))


def available_backends() -> Tuple[str, ...]:
    """The backend names that can run here: every registered one, since
    both shipped backends need nothing beyond numpy (sorted)."""
    return registered_backends()


def get_backend(name: str) -> KernelBackend:
    """The backend registered under ``name`` (which must exist)."""
    backend = _BACKENDS.get(name)
    if backend is None:
        raise ProtocolConfigurationError(
            f"unknown kernel backend {name!r}; registered backends: "
            f"{list(registered_backends())}"
        )
    return backend


def _auto_backend() -> KernelBackend:
    if (os.cpu_count() or 1) > 1:
        return _BACKENDS["threaded"]
    return _BACKENDS["numpy"]


def _warn_once(name: str, message: str) -> None:
    if name not in _WARNED:
        _WARNED.add(name)
        _logger.warning(message)


def resolve_backend(name: str = "") -> KernelBackend:
    """Pick the kernel backend for one call.

    Selection order: the explicit ``name`` argument (a protocol's
    ``kernel_backend`` tuning option), then the ``REPRO_KERNEL_BACKEND``
    environment variable, then the process-wide default installed by
    :func:`set_default_backend`, then automatic (``threaded`` on
    multi-core hosts, ``numpy`` otherwise).  ``"auto"`` at any level
    selects the automatic choice; an unknown name logs a warning (once
    per name) and falls through to the next level instead of failing —
    backend choice must never break an aggregation.
    """
    candidates = (
        (name, "requested"),
        (os.environ.get(BACKEND_ENV_VAR, ""), f"${BACKEND_ENV_VAR}"),
        (_DEFAULT_OVERRIDE or "", "default"),
    )
    for candidate, source in candidates:
        if not candidate:
            continue
        if candidate == "auto":
            backend = _auto_backend()
            _count_dispatch(backend.name)
            return backend
        backend = _BACKENDS.get(candidate)
        if backend is None:
            _warn_once(
                candidate,
                f"unknown kernel backend {candidate!r} ({source}); known "
                f"backends: {list(registered_backends())} — falling back",
            )
            continue
        _count_dispatch(backend.name)
        return backend
    backend = _auto_backend()
    _count_dispatch(backend.name)
    return backend


def set_default_backend(name: Optional[str]) -> None:
    """Install a process-wide default backend (``None``/``""`` clears it).

    The name must be registered (``"auto"`` is allowed).
    """
    global _DEFAULT_OVERRIDE
    if not name:
        _DEFAULT_OVERRIDE = None
        return
    if name != "auto" and name not in _BACKENDS:
        raise ProtocolConfigurationError(
            f"unknown kernel backend {name!r}; registered backends: "
            f"{list(registered_backends())}"
        )
    _DEFAULT_OVERRIDE = name


@contextmanager
def use_backend(name: str):
    """Temporarily install ``name`` as the process-wide default backend."""
    global _DEFAULT_OVERRIDE
    previous = _DEFAULT_OVERRIDE
    set_default_backend(name)
    try:
        yield resolve_backend()
    finally:
        _DEFAULT_OVERRIDE = previous
