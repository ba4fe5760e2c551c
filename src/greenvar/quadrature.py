"""Interior and boundary quadrature for the unit disk.

The interior rule is a Gauss-Legendre (radial) times uniform (angular)
background grid over the whole disk.  Integrands with ``1/|x - p|`` type
singularities at known pole points are handled by replacing each disk of
radius ``rho = RHO_FACTOR * min(pole separation, boundary gap)`` around a
pole with a pole-centered polar patch whose radial nodes follow the grading
``r ~ rho * (k / N_patch)^2``.  The handoff between background and patch
uses a smooth radial partition-of-unity window: the background integrates
``(1 - chi) f`` (its nodes inside the flat core of the window are dropped
outright), the patch integrates ``chi f``.  Patch weights
are normalized so the whole rule integrates constants exactly, independent
of how well the background grid resolves the window.  The window is 0
beyond ``rho``: the build windows only the background rings within ``rho`` of
each pole's modulus and the patches.  It sizes every piece first, allocates
the rule's buffers once and writes each node into them once: no piece is
built aside and copied in.  It measures no node, as the patch layout bounds
them all before anything is allocated.

Boundary integrals use the periodic trapezoid rule (spectrally accurate for
analytic boundary data), assembled by :func:`greenvar.conformal.boundary_grid`.

Summation is exactly rounded and therefore deterministic: every sum is the
double ``math.fsum`` returns.  Fewer than ``FSUM_EXTRACT_MIN`` values go to
``math.fsum`` itself; more to an error-free extraction sum in numpy, which
splits every value into parts on a few fixed grids, sums each grid's parts
exactly in any order and rounds the exact total once.  Non-finite values,
and magnitudes where the splitting constant would overflow, fall back to
``math.fsum`` (see ``_fsum``).  As the order does not matter, the sum takes
its values block by block: of an array, or of a stream that writes each
block into one reused buffer, as the volume route's closed form does.  So
the only array the size of a rule on that route is the rule itself.

Rules are shared and read-only.  :func:`disk_rule` holds the
``RECENT_RULES`` (two) rules it built last and hands out a held rule again
for equal inputs: a convergence ladder asks for each rung's rule once per
velocity, and a rung's coarse twin is the previous rung's rule.  Every
holder of a rule may be handed the same arrays, so ``nodes``, ``weights``
and ``poles`` are not writeable.  A rule holds what was worked out on its
``nodes``, keyed weakly on the objects that read them (:meth:`QuadratureRule.recall`):
the volume route's metric check, run on each rule before it is integrated, and
the sums of :func:`integrate` with a ``key``.  So a ladder checks each rule
once, and sums each integrand on it once.
"""

from __future__ import annotations

import itertools
import math
import weakref
from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, NamedTuple, Optional, Sequence, Union

import numpy as np

from .errors import CoincidentPoleError, ConfigError, DomainError, EvaluationError

__all__ = [
    "QuadratureRule",
    "IntegrationResult",
    "disk_rule",
    "check_rule",
    "integrate",
    "boundary_integrate",
]

# Pole patch radius: RHO_FACTOR * min(pole separation, pole-to-boundary
# distance), so patches never overlap or reach the boundary.  0.2 keeps the
# window transition wide enough for the background grid to resolve; smaller
# factors stall convergence.
RHO_FACTOR = 0.2

# integrate() flags a rule as converged when its value moves by less than
# this, relative, against the same rule at half resolution.
CONVERGENCE_TOL = 1e-3

# Window shape: chi = 1 for r <= WINDOW_FLAT * rho (background nodes there
# are dropped), then a C^5 polynomial smoothstep down to 0 at r = rho.
WINDOW_FLAT = 0.1
SMOOTHSTEP_ORDER = 5

# Angular nodes of a pole patch, as a multiple of its radial count.
PATCH_ANGULAR_FACTOR = 2

# _fsum sums arrays of at least this many values by error-free extraction,
# shorter ones with math.fsum.  Extraction costs a few numpy passes (25 to
# 45 us up to a few thousand values on a 2-core Xeon), fsum 40 to 55 ns a
# value: they tie near 1,024 values on the program's own sums (the boundary
# routes' 1,024-value sums), and at 2,048 extraction takes half the time.
# Twice the tie point keeps the boundary sums on fsum.
FSUM_EXTRACT_MIN = 2048

# _fsum and the closed form run over blocks of this many nodes, so that their
# temporaries stay in a 4 MB L2 cache, and the closed form streams into the sum
# one block at a time.  On the 196,041 nodes of a 256x512x128 rule (2-core
# x86_64, best of 15, on a noisy host), at 8,192 and then at the other sizes
# from 2,048 to 32,768: closed form 7.5 ms, 7.7-9.5; _fsum of an array with
# weights 1.2 ms, 1.0-2.6; the closed form streamed into _fsum 9.1 ms, 9.0-12.8.
# 8,192 halves the scratch of 16,384 at no measurable cost.
BLOCK = 8192

# disk_rule holds the rules it built last, this many.  Two hold a
# convergence ladder's working set: its rung's rule, asked for once per
# velocity, and that rule's coarse twin, which is the previous rung's rule
# (kept alive by the finer rule's _coarse in any case).  Every held rule
# stays alive while the next rung's rule is built, so more slots cost peak
# memory for hits that only repeated identical estimates would find.
RECENT_RULES = 2


class Count(NamedTuple):
    """An integer's range and default (a resolution count, or ``converge``'s
    levels), read by every builder, signature and config setting that takes it."""

    floor: int
    default: int
    ceiling: int
    rule = property(lambda self: f"must be an integer in [{self.floor}, {self.ceiling}]")

    def accepts(self, n) -> bool:
        """An ``int`` or numpy integer, not a ``bool``, in ``[floor, ceiling]``."""
        return (isinstance(n, (int, np.integer)) and not isinstance(n, bool)
                and self.floor <= n <= self.ceiling)

    def check(self, name: str, n):
        if not self.accepts(n):
            raise ConfigError(f"{name} {self.rule}")


# Ceilings.  n_r: leggauss is O(n^3), 0.15 s at 1,024 and 1.0 s at 2,048
# (2-core x86_64).  n_theta: with n_r's, 2.1M background nodes (120 MB peak).
# n_patch: 285 is the largest whose innermost ring, rho s_min^2 from its pole,
# clears the 1e-10 node guard at the largest patch radius rho = RHO_FACTOR (one
# pole at 0; 286 lands at 9.86e-11): a larger one fails for any poles.
N_R = Count(4, 64, 1024)
N_THETA = Count(8, 128, 2048)
N_PATCH = Count(8, 32, 285)


def _smoothstep_coeffs(order: int) -> np.ndarray:
    # ascending coefficients of S_N(w) = w^{N+1} sum_k C(N+k,k) C(2N+1,N-k) (-w)^k
    c = np.zeros(2 * order + 2)
    for k in range(order + 1):
        c[order + 1 + k] = ((-1) ** k * math.comb(order + k, k)
                            * math.comb(2 * order + 1, order - k))
    return c

_SS_COEFFS = _smoothstep_coeffs(SMOOTHSTEP_ORDER)


def _smoothstep(w):
    w = np.clip(w, 0.0, 1.0)
    out = np.zeros_like(w)
    for c in _SS_COEFFS[::-1]:
        out = out * w + c
    return out


def _window(dist, rho):
    """Radial partition-of-unity window: 1 at the pole, 0 beyond rho."""
    u = np.asarray(dist, dtype=float) / rho
    w = (u - WINDOW_FLAT) / (1.0 - WINDOW_FLAT)
    return np.where(u >= 1.0, 0.0, np.where(u <= WINDOW_FLAT, 1.0,
                                            1.0 - _smoothstep(w)))


def _blocks(x):
    """The blocks of ``x``: of an array, views of at most ``BLOCK`` values; of a stream (a
    function returning an iterator over blocks of values, see :func:`_fsum`), a new run."""
    return x() if callable(x) else (x[lo:lo + BLOCK] for lo in range(0, x.size, BLOCK))


def _fsum(x, w: Optional[np.ndarray] = None) -> float:
    """Correctly rounded sum of ``x``, or of its products ``w * x`` with weights ``w``:
    the double ``math.fsum`` returns, bit for bit.  ``x`` is a 1-d float array or a
    stream of ``w.size`` values: a function returning an iterator over consecutive
    blocks of at most ``BLOCK`` of them, each read before the next is asked for (so
    one buffer may hold them all in turn), called again wherever ``math.fsum`` decides.

    Below ``FSUM_EXTRACT_MIN`` values it is ``math.fsum``.  From there on it is an
    error-free extraction sum (Rump, Ogita and Oishi, SIAM J. Sci. Comput. 2008) over
    the blocks: with ``e`` the exponent of ``top = max |r| < 2^e`` and ``2^shift >= n +
    2`` for a block's ``n`` values, ``sigma = 2^(e + shift)`` splits the residual ``r``
    (first the block, its products formed in one reused buffer) exactly into ``q =
    (sigma + r) - sigma``, a multiple of ``2^-53 sigma``, and ``r - q``.  The values of
    ``q`` sum to less than ``sigma``, so every partial sum is exact in any order; each
    pass leaves ``|r| <= 2^(e + shift - 53)``, until ``r`` is all zero.  ``math.fsum``
    rounds the pass sums, whose total is exact, once.  Non-finite values and ``e + shift
    > 1023`` over all values go to ``math.fsum``, which returns or raises for them as it
    always has.
    """
    n = w.size if callable(x) else x.size
    if n < FSUM_EXTRACT_MIN:
        return _exact(x, w)
    shift = (n + 1).bit_length()            # ceil(log2(n + 2))
    taus, negative, q, r, lo = [], True, np.empty(BLOCK), np.empty(BLOCK), 0
    for rb in _blocks(x):                   # every block, so a stream runs to its end
        if w is not None:                   # x stays as given
            rb = np.multiply(w[lo:lo + rb.size], rb, out=r[:rb.size])
        qb, block_shift, lo = q[:rb.size], (rb.size + 1).bit_length(), lo + rb.size
        while True:
            top = max(float(rb.max()), -float(rb.min()))    # max |rb|; NaN if any is
            if not math.isfinite(top) or math.frexp(top)[1] + shift > 1023:
                return _exact(x, w)
            if not top:     # rb is all zeros: with no pass sum yet, so was every block
                negative = negative and not taus and bool(np.signbit(rb).all())
                break
            sigma = math.ldexp(1.0, math.frexp(top)[1] + block_shift)
            taus.append(float(np.subtract(np.add(rb, sigma, out=qb), sigma, out=qb).sum()))
            rb = np.subtract(rb, qb, out=r[:qb.size])
    if not taus:    # all zeros: math.fsum's zero, which is -0.0 only if every term is
        return math.fsum([-0.0] if negative else [0.0])
    return math.fsum(taus)


def _exact(x, w: Optional[np.ndarray]) -> float:
    """``math.fsum`` of ``x`` or ``w * x``, ``x`` an array or a stream (see :func:`_fsum`)."""
    if not callable(x):
        return math.fsum(memoryview(x if w is None else w * x))

    def products(lo=0):
        for b in x():
            yield memoryview(w[lo:lo + b.size] * b)
            lo += b.size
    return math.fsum(itertools.chain.from_iterable(products()))


@lru_cache(maxsize=64)
def _gauss_legendre(n: int, lo: float, hi: float):
    """Nodes and weights on ``[lo, hi]``; cached, hence read-only."""
    x, w = np.polynomial.legendre.leggauss(n)
    half = 0.5 * (hi - lo)
    nodes, weights = lo + half * (x + 1.0), half * w
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


@dataclass(eq=False)
class QuadratureRule:
    """Positive-weight rule over the open unit disk.

    ``nodes`` has shape ``(N, 2)``; all nodes are strictly interior and none
    lies within 1e-10 of a pole center.  ``sum(weights)`` equals the disk
    area pi to machine precision by construction.  A rule from
    :func:`disk_rule` may be shared with other callers, so its arrays are
    read-only; ``nodes`` views a complex buffer.  ``_held`` holds what was
    worked out on ``nodes`` (a passed metric check, an integrand's sum), weakly
    keyed on the objects it read: :meth:`recall` is its one reader and writer."""

    nodes: np.ndarray
    weights: np.ndarray
    poles: np.ndarray          # complex pole centers, possibly empty
    rho: Optional[float]
    n_r: int
    n_theta: int
    n_patch: int
    _coarse: Optional["QuadratureRule"] = field(default=None, repr=False)
    _held: list = field(default_factory=list, repr=False)

    @property
    def node_count(self) -> int:
        return self.nodes.shape[0]

    @property
    def total_weight(self) -> float:
        return _fsum(self.weights)

    def coarse(self) -> "QuadratureRule":
        """The same rule at half resolution (used for convergence flags)."""
        if self._coarse is None:
            self._coarse = disk_rule(
                max(N_R.floor, self.n_r // 2),
                max(N_THETA.floor, self.n_theta // 2),
                poles=self.poles,
                n_patch=max(N_PATCH.floor, self.n_patch // 2),
            )
        return self._coarse

    def recall(self, tag: str, objs: tuple, compute: Callable):
        """The value held under ``tag`` and ``objs``, compared by identity (a dead
        reference matches nothing, ``None`` only ``None``); else ``compute()``,
        held unless it raises, with weak references to ``objs`` (entries whose
        objects died are dropped)."""
        for t, refs, value in self._held:
            if t == tag and len(refs) == len(objs) and all(
                    o is None if r is None else r() is o is not None for r, o in zip(refs, objs)):
                return value
        value = compute()
        self._held = [e for e in self._held if all(r is None or r() is not None for r in e[1])]
        self._held.append((tag, [o if o is None else weakref.ref(o) for o in objs], value))
        return value

    def __repr__(self):
        return (f"QuadratureRule(n_r={self.n_r}, n_theta={self.n_theta}, "
                f"poles={len(self.poles)}, nodes={self.node_count})")


_recent = []        # (key, rule) of the rules disk_rule holds, oldest first


def disk_rule(n_r: int = N_R.default, n_theta: int = N_THETA.default,
              poles: Sequence = (), n_patch: int = N_PATCH.default) -> QuadratureRule:
    """Build the disk rule, optionally refined around pole points.

    Parameters
    ----------
    n_r, n_theta : int
        Background resolution (Gauss-Legendre radial x uniform angular).
    poles : sequence of complex
        Distinct points (in disk coordinates) where integrands may blow up
        like ``1/|x - p|``.  Each gets a patch of radius ``rho = RHO_FACTOR *
        min(separation, boundary gap)``.
    n_patch : int
        Radial node count of each pole patch.

    Only the patches and the background rings within ``rho`` of a pole's
    modulus are windowed (see :func:`_band`).  Rules are shared:
    the ``RECENT_RULES`` (two) rules built last are held, keyed on the exact
    inputs, and a call with equal inputs returns the held rule.  Two serve
    every repeat of a checked ``volume_variation`` ladder (see
    ``RECENT_RULES``).  So the rule's ``nodes``, ``weights`` and ``poles`` (a
    copy of the argument) are not writeable.  Inputs are validated on every
    call (``n_patch`` against its range also without poles), and only a rule
    whose build succeeded is held.
    """
    pole_arr = _rule_poles(n_r, n_theta, poles, n_patch)    # the build lays out the poles
    key = (n_r, n_theta, n_patch, pole_arr.shape, pole_arr.tobytes())
    return held(_recent, key, RECENT_RULES,
                lambda: _build_rule(n_r, n_theta, pole_arr, n_patch))


def check_rule(n_r: int, n_theta: int, poles: Sequence, n_patch: int):
    """Raise exactly what :func:`disk_rule` raises, before it builds the background
    grid: a count out of range, by name, poles that are not a 1-d sequence of
    complex numbers, or an error of the pole patches (see :func:`_patch_layout`)."""
    pole_arr = _rule_poles(n_r, n_theta, poles, n_patch)
    if pole_arr.size:
        _patch_layout(pole_arr, n_patch)


def _rule_poles(n_r: int, n_theta: int, poles: Sequence, n_patch: int) -> np.ndarray:
    """``poles`` as a 1-d complex array, the counts checked: on every :func:`disk_rule` call."""
    for name, n, count in (("n_r", n_r, N_R), ("n_theta", n_theta, N_THETA),
                           ("n_patch", n_patch, N_PATCH)):
        count.check(name, n)
    pole_arr = np.array(poles, dtype=complex)
    if pole_arr.ndim != 1:
        raise ConfigError(f"poles must be a sequence of complex numbers, got {poles!r}")
    return pole_arr


def held(store: list, key, keep: int, build: Callable):
    """The value held under ``key`` in ``store``, a list of at most ``keep``
    ``(key, value)`` pairs, least recently used first; else ``build()``, held."""
    for i, (k, value) in enumerate(store):
        if k == key:
            store.append(store.pop(i))
            return value
    value = build()
    store.append((key, value))
    del store[:max(len(store) - keep, 0)]
    return value


def _frozen_rule(z, w, poles, rho, n_r, n_theta, n_patch) -> QuadratureRule:
    nodes = z.view(np.float64).reshape(-1, 2)       # (N, 2), no copy
    for arr in (z, nodes, w, poles):
        arr.flags.writeable = False
    return QuadratureRule(nodes=nodes, weights=w, poles=poles, rho=rho,
                          n_r=n_r, n_theta=n_theta, n_patch=n_patch)


def _patch_layout(pole_arr: np.ndarray, n_patch: int):
    """``(rho, rad, wrad, ring)``: the patch radius, graded radial nodes and
    weights, and angular ring of a rule's pole patches, for an ``n_patch`` in
    its range.  Validates the poles, and raises the node guard's error where
    the innermost ring, ``rho s_min^2`` from its pole, is within 1e-10 (at
    ``rho = 0.1`` no ``n_patch`` above 239 passes).

    This is the rule's one certificate: once it passes, every node lies inside
    the circle and 1e-10 or more from every pole, and the patch weights sum to
    more than 0, so the build measures no node.  As ``s_min^2 <= 4.82e-4`` for
    every ``n_patch`` in range, ``rho >= 2.07e-7``.  A kept background node has
    every window below 1, so ``|z - p| > WINDOW_FLAT rho``, and ``|z| <= r[-1]
    < 1``.  A patch node lies ``rad_k >= rad_0`` from its pole, ``sep - rho >=
    4 rho`` from any other, and at ``|z| <= |p| + rho <= 1 - 0.8 gap``.  And
    ``window(rad_0) = 1``, ``wrad_0 > 0``."""
    mods = np.abs(pole_arr)
    if not np.all(mods < 1.0):
        raise DomainError("quadrature poles must lie inside the unit disk")
    gap = float(np.min(1.0 - mods))
    d = np.abs(pole_arr[:, None] - pole_arr[None, :])
    np.fill_diagonal(d, np.inf)
    sep = float(d.min())
    if sep == 0.0:
        raise CoincidentPoleError("quadrature poles must be distinct")
    rho = RHO_FACTOR * min(sep, gap)

    s_split = math.sqrt(WINDOW_FLAT)
    n_half = n_patch // 2
    s1, ws1 = _gauss_legendre(n_half, 0.0, s_split)
    s2, ws2 = _gauss_legendre(n_patch - n_half, s_split, 1.0)
    s = np.concatenate([s1, s2])
    ws = np.concatenate([ws1, ws2])
    rad = rho * s**2                       # grading r ~ rho (k/N)^2
    wrad = 2.0 * rho**2 * s**3 * ws        # r dr with dr = 2 rho s ds
    m_t = PATCH_ANGULAR_FACTOR * n_patch
    phi = 2.0 * np.pi * np.arange(m_t) / m_t
    ring = np.exp(1j * phi)
    for p in pole_arr:
        # the innermost ring's nodes, as the patch computes them
        d = np.min(np.abs((p + rad[0] * ring) - p))
        if d < 1e-10:
            raise ConfigError(f"node within {d:.2e} of pole {p:.6g}")
    return rho, rad, wrad, ring


def _build_rule(n_r: int, n_theta: int, pole_arr: np.ndarray,
                n_patch: int) -> QuadratureRule:
    """The rule :func:`disk_rule` describes, from validated counts and a
    1-d complex pole array that the rule takes over.  The pole patches are
    laid out (and certified) and every piece is sized before the node and
    weight buffers are allocated, once, at their exact size; each node is
    written into them once."""
    if pole_arr.size:
        rho, rad, wrad, ring = _patch_layout(pole_arr, n_patch)
    r, wr = _gauss_legendre(n_r, 0.0, 1.0)
    e = np.exp(1j * (2.0 * np.pi * np.arange(n_theta) / n_theta))
    w_ring = wr * r * (2.0 * np.pi / n_theta)
    if pole_arr.size == 0:
        return _frozen_rule((r[:, None] * e[None, :]).ravel(), np.repeat(w_ring, n_theta),
                            pole_arr, None, n_r, n_theta, n_patch)

    # background node j * n_theta + t, at r_j e_t: each pole's window, on its own
    # band rings (see _band), is exactly 0 beyond rho and patches never overlap,
    # so a node has at most one window chi; it keeps its weight times 1 - chi,
    # or is dead (dropped) where 1 - chi <= 1e-14.  b_chi is each window's weight.
    near, fac, b_chi = [], [], np.zeros(pole_arr.size)
    for i, (p, rows) in enumerate(zip(pole_arr, _band(r, pole_arr, rho))):
        rows = np.flatnonzero(rows)
        dist = np.abs((r[rows, None] * e).ravel() - p)
        k = np.flatnonzero(dist < rho)
        chi = _window(dist[k], rho)
        near.append(rows[k // n_theta] * n_theta + k % n_theta)
        b_chi[i] = _fsum(w_ring[near[-1] // n_theta] * chi)
        fac.append(1.0 - chi)
    near, fac = np.concatenate(near), np.concatenate(fac)
    dead = np.sort(near[fac <= 1e-14])
    near, fac = near[fac > 1e-14], fac[fac > 1e-14]

    # pole patches: graded polar rule over B(p, rho), windowed by chi, rescaled
    # so the patch contributes exactly the weight the windowed background gave
    # up.  A background too coarse to see the window at all (b_chi = 0)
    # degrades gracefully: the patch drops out.  Weights are constant on a
    # ring, so a ring is kept whole or dropped whole where its weight is 0.
    w_patch = wrad * _window(rad, rho) * (2.0 * np.pi / ring.size)
    raw = _fsum(np.repeat(w_patch, ring.size))
    w_rings = [w_patch * (b / raw) for b in b_chi]
    size = n_r * n_theta - dead.size + ring.size * sum(np.count_nonzero(w > 0.0) for w in w_rings)

    z_all, w_all = np.empty(size, dtype=complex), np.empty(size)
    at, lo = 0, 0       # the next node written, the next ring
    for j in [*np.unique(dead // n_theta), n_r]:    # each ring with a dead node, compressed
        run = z_all[at:at + (j - lo) * n_theta].reshape(-1, n_theta)
        np.multiply(r[lo:j, None], e, out=run)
        w_all[at:at + run.size].reshape(-1, n_theta)[...] = w_ring[lo:j, None]
        at += run.size
        if j < n_r:
            keep = np.ones(n_theta, dtype=bool)
            keep[dead[dead // n_theta == j] % n_theta] = False
            k = np.count_nonzero(keep)
            np.compress(keep, r[j] * e, out=z_all[at:at + k])
            w_all[at:at + k] = w_ring[j]
            at, lo = at + k, j + 1
    w_all[near - np.searchsorted(dead, near)] *= fac
    for p, w in zip(pole_arr, w_rings):
        kept = w > 0.0
        patch = z_all[at:at + ring.size * np.count_nonzero(kept)].reshape(-1, ring.size)
        np.add(np.multiply(rad[kept, None], ring, out=patch), p, out=patch)
        w_all[at:at + patch.size].reshape(-1, ring.size)[...] = w[kept, None]
        at += patch.size
    return _frozen_rule(z_all, w_all, pole_arr, rho, n_r, n_theta, n_patch)


def _band(r: np.ndarray, pole_arr: np.ndarray, rho: float) -> np.ndarray:
    """``(poles, rings)``: the rings (radii ``r``) within ``1.001 rho`` of each pole's
    modulus: all with a node within ``rho`` of that pole, since ``rho > 1e-10`` and
    ``|z - p|`` rounds by 1e-16."""
    return np.abs(r - np.abs(pole_arr)[:, None]) < 1.001 * rho


@dataclass(frozen=True)
class IntegrationResult:
    """Value of an integral plus a self-consistency convergence flag."""

    value: float
    converged: bool
    coarse_value: float
    rel_change: float

    def __float__(self):
        return self.value


def _weighted_sum(rule, f, what: str) -> float:
    """``sum(weights * values)`` over a rule or grid: ``f`` the values, or a callable on
    the nodes that returns them or a stream of them (an iterator over consecutive blocks,
    see :func:`_fsum`; a new run calls ``f`` again).  :class:`EvaluationError` unless
    they match the weights and are finite.  The values are scanned only when the sum is
    not finite or ``_fsum`` raises, one of which any non-finite value causes; finite
    values whose sum overflows give what ``_fsum`` gives.  A stream's own error comes
    first, as an array's would have come before its sum: it ends the run, and the scan
    runs a stream to its end."""
    vals, raised = f(rule.nodes) if callable(f) else f, []
    if isinstance(vals, Iterator):
        first = [vals]

        def vals():
            try:
                yield from (first.pop() if first else f(rule.nodes))
            except (OverflowError, ValueError) as exc:  # not to be taken for the sum's own
                raised.append(exc)
    else:
        vals = np.asarray(vals, dtype=float)
        if vals.shape != rule.weights.shape:
            raise EvaluationError(
                f"{what} has shape {vals.shape}, expected {rule.weights.shape}")
    try:
        total, failure = _fsum(vals, rule.weights), None
    except (OverflowError, ValueError) as exc:     # an overflow, or inf - inf
        total, failure = math.nan, exc
    bad, lo = [], 0
    if not (raised or math.isfinite(total)):
        for b in _blocks(vals):
            bad += [lo + int(i) for i in np.flatnonzero(~np.isfinite(b))[:1]]
            lo += b.size
    if raised:
        raise raised[0]
    if bad:
        raise EvaluationError(f"non-finite {what} at node {bad[0]} = "
                              f"{tuple(rule.nodes[bad[0]])}")
    if failure is not None:
        raise failure
    return total


def integrate(rule: QuadratureRule, f: Callable, check: bool = True,
              key: Optional[tuple] = None) -> IntegrationResult:
    """Apply the rule to a vectorized integrand ``f((N, 2) nodes) -> (N,)``, or to one
    that returns an iterator over its values in consecutive blocks of at most
    ``BLOCK`` (see :func:`_fsum`): then no array of ``N`` values is formed.

    The convergence flag compares against the same rule at half resolution;
    it is True when the relative change is below ``CONVERGENCE_TOL``, and
    False with ``rel_change`` NaN where that rule has the rule's own nodes.
    With ``check=False`` the flag is reported True without the comparison.
    With a ``key``, the objects ``f`` reads, each rule sums ``f`` once and
    holds the sum (see :meth:`QuadratureRule.recall`).
    """
    def total(r):
        if key is None:
            return _weighted_sum(r, f, "integrand value")
        return r.recall("sum", key, lambda: _weighted_sum(r, f, "integrand value"))

    value = total(rule)
    if not check:
        return IntegrationResult(value, True, value, 0.0)
    twin = rule.coarse()
    coarse = total(twin)
    scale = max(abs(value), abs(coarse), 1e-9)
    rel = math.nan if np.array_equal(twin.nodes, rule.nodes) else abs(value - coarse) / scale
    return IntegrationResult(value, rel < CONVERGENCE_TOL, coarse, rel)


def boundary_integrate(grid, f: Union[Callable, np.ndarray]) -> float:
    """Periodic trapezoid integral over a boundary grid.

    ``f`` is either per-node values or a vectorized callable on the nodes.
    """
    return _weighted_sum(grid, f, "boundary value")
