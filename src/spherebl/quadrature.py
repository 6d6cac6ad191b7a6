"""Seeded Monte Carlo estimators on spheres and balls, and the
product-versus-norms check built on them.

The estimators are :func:`mc_sphere_estimates` and
:func:`mc_ball_estimates`; the check is :func:`holder_verify`.

One function, :func:`_shard_streams`, draws every point that an estimator,
:func:`sample_sphere` or an experiment sees.  Points on the sphere are
normalized standard Gaussian vectors, which are exactly uniform in every
dimension.  Points in a ball are such a direction times radius * U^(1/dim),
with the radii U drawn from a sibling stream so that the points do not
depend on how a shard is cut into chunks.  Work is split into shards;
shard k draws from its own counter-based stream (numpy Philox keyed by
(seed, k), and (seed, k, 1) for ball radii), and partial results are
combined in shard order, so a result is a pure function of
(seed, samples, shards) regardless of how many worker threads ran the
shards.  The reproducibility contract is exactly that triple together with
the generator name in :data:`RNG_ALGORITHM`; bit equality across different
numpy builds is not promised.

One estimator pass evaluates any number of value series on one shared
stream of points; the experiments put every grid point and repetition into
a single pass this way.  A pass takes one callback, ``fill(points, out)``:
each shard job owns one (series, chunk) block of values, and for every
chunk of m points it hands ``fill`` a C-contiguous (series, m) view of that
block to overwrite, then reduces the block in place.  A fill may instead
reduce some of the points itself, write the others into the leading
columns and return its partial, which the engine merges in (see
:func:`mc_sphere_estimates`).  The chunk a pass evaluates at a time
shrinks with the number of series (:data:`_CHUNK_BUDGET`), so the last bit
of a sum can depend on the series count, never the points themselves.

The product-versus-norms check works in log space.
:attr:`IntegrandStack.fill` has the signature of ``fill`` but writes log f,
and the check turns those rows into the product exp(sum_j log f_j) and the
powers exp(p_j log f_j) in place.

Estimates carry the plain MC standard error (sample standard deviation /
sqrt(samples)).  The variance is merged from per-chunk (count, sum, sum of
squared deviations) in a fixed order, after Chan, Golub and LeVeque (1979),
so a large mean does not cancel the spread away.  Plain MC is used
deliberately: unbiasedness is what makes 3-sigma acceptance bands
meaningful for the verification experiments.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import NonFiniteSampleError
from .exponents import per_function_exponents
from .symmetry import Symmetry

RNG_ALGORITHM = "numpy-philox4x64"

#: Soft bound on floats held per evaluation chunk (values plus points).
#: Measured: 10^6 runs the 91-series Hoelder check faster than 4 * 10^6
#: (smaller chunks stay in cache) at less than half the peak memory.
_CHUNK_BUDGET = 1_000_000

#: Shard count of a :class:`QuadConfig` that does not set one.  A constant,
#: so such a config gives the same numbers on every machine; the number of
#: worker threads still follows the machine.
DEFAULT_SHARDS = 8

_WORKERS_ENV = "SPHEREBL_WORKERS"


@dataclass(frozen=True)
class QuadConfig:
    """Sampling budget, seed and shard layout of one estimate."""

    samples: int = 1_000_000
    seed: int = 0
    shards: int = DEFAULT_SHARDS

    def __post_init__(self):
        if self.samples < 100:
            raise ValueError(f"at least 100 samples required, got {self.samples}")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")
        if self.shards < 1:
            raise ValueError("shards must be >= 1")


@dataclass(frozen=True)
class Estimate:
    """A Monte Carlo value with its standard error and provenance."""

    value: float
    stderr: float
    samples: int
    seed: int


@dataclass(frozen=True)
class Integrand:
    """A nonnegative function on the sphere S^(n-1).

    ``eval`` is vectorized: it receives an (m, n) array of unit vectors and
    returns m values.  ``symmetry_tag`` declares the block symmetry the
    function claims to respect (invariance under rotations inside each
    block).  Functions are assumed even in each coordinate; nothing
    enforces either claim, but the verification records flag integrands
    whose symmetry is untagged.
    """

    n: int
    eval: Callable[[np.ndarray], np.ndarray]
    symmetry_tag: Symmetry | None = None


@dataclass(frozen=True)
class IntegrandStack:
    """Integrands on one sphere that are evaluated together.

    ``fill(points, out)`` writes the logarithm of the values of member i at
    the (m, n) points into row i of the (len(stack), m) array ``out`` (-inf
    where the value is 0), so one kernel can share work between the members
    and write straight into an estimator's rows, where the Hoelder check
    takes products and powers as exp of sums and multiples.  ``tags[i]`` is
    member i's symmetry tag, as in :class:`Integrand`.
    """

    n: int
    tags: tuple[Symmetry | None, ...]
    fill: Callable[[np.ndarray, np.ndarray], None]

    def __len__(self) -> int:
        return len(self.tags)

    @classmethod
    def of(cls, fs: Sequence[Integrand]) -> "IntegrandStack":
        """The stack that evaluates each of ``fs`` in turn and writes the
        logarithm of its values.  A negative value has no logarithm: its
        NaN makes the estimator raise :class:`NonFiniteSampleError`."""
        n = fs[0].n
        for j, f in enumerate(fs):
            if f.n != n:
                raise ValueError(f"integrand {j} has dimension {f.n}, integrand 0 has {n}")

        def fill(pts: np.ndarray, out: np.ndarray) -> None:
            with np.errstate(divide="ignore"):  # log 0 = -inf, and exp(-inf) = 0
                for f, row in zip(fs, out):
                    np.log(f.eval(pts), out=row)

        return cls(n=n, tags=tuple(f.symmetry_tag for f in fs), fill=fill)


def _worker_limit() -> int | None:
    """The worker count set by ``SPHEREBL_WORKERS``; None when it is unset
    or empty.  Raises ValueError unless it is a positive integer."""
    env = os.environ.get(_WORKERS_ENV)
    if not env:
        return None
    if not (env.isascii() and env.isdigit() and int(env) >= 1):
        raise ValueError(f"{_WORKERS_ENV} must be a positive integer, got {env!r}")
    return int(env)


def _worker_count(shards: int) -> int:
    width = _worker_limit() or os.cpu_count() or 1
    return max(1, min(width, shards))


def _shard_counts(samples: int, shards: int) -> list[int]:
    """The sample counts of the shards that hold samples: the first
    min(shards, samples), so a shard count far above the sample count
    costs nothing."""
    base, extra = divmod(samples, shards)
    return [base + (1 if k < extra else 0) for k in range(min(shards, samples))]


def _shard_rng(seed: int, *key: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=key)
    return np.random.Generator(np.random.Philox(ss))


def _chunk_size(dim: int, num_series: int) -> int:
    return max(1024, _CHUNK_BUDGET // max(1, dim + num_series))


def _sphere_chunk(rng: np.random.Generator, m: int, n: int) -> np.ndarray:
    g = rng.standard_normal((m, n))
    norms = np.sqrt((g * g).sum(axis=1))
    return g / norms[:, None]


def _shard_streams(cfg: QuadConfig, dim: int, chunk: int,
                   radius: float | None = None) -> Iterator[Iterator[np.ndarray]]:
    """The point chunks of every shard holding samples, in shard order: the
    one function that draws points.

    Shard k draws from the stream keyed by (seed, k), ``chunk`` points at a
    time: unit vectors in R^dim, or, given a ``radius``, points uniform in
    that ball, each a uniform direction times radius * U^(1/dim) with the
    radii U from the sibling stream (seed, k, 1), so the points do not
    depend on the chunk size.  Each shard's chunks are drawn lazily, by
    whoever iterates them.
    """

    def chunks(shard: int, count: int) -> Iterator[np.ndarray]:
        rng = _shard_rng(cfg.seed, shard)
        urng = None if radius is None else _shard_rng(cfg.seed, shard, 1)
        for start in range(0, count, chunk):
            m = min(chunk, count - start)
            if urng is None:
                yield _sphere_chunk(rng, m, dim)
            else:
                # scaled in place: locals of a generator outlive its yield,
                # so a separate scale or result array would stay allocated
                # while the chunk is evaluated
                g = rng.standard_normal((m, dim))
                g *= (radius * urng.random(m) ** (1.0 / dim)
                      / np.sqrt((g * g).sum(axis=1)))[:, None]
                yield g

    for shard, count in enumerate(_shard_counts(cfg.samples, cfg.shards)):
        yield chunks(shard, count)


def _merge(a, b):
    """Combine the (count, sums, M2) of two sample blocks, M2 being the sums
    of squared deviations from the block means (Chan, Golub & LeVeque).
    An empty block leaves the other unchanged."""
    na, sa, qa = a
    nb, sb, qb = b
    if na == 0:
        return b
    if nb == 0:
        return a
    n = na + nb
    delta = sb / nb - sa / na
    return n, sa + sb, qa + qb + delta * delta * (na * nb / n)


def _reduce(vals: np.ndarray):
    """The (count, sums, M2) of the columns of the (series, count) block
    ``vals``, which it overwrites with the squared deviations; (0, 0, 0)
    per series for no column.  Raises :class:`NonFiniteSampleError` when a
    value is not finite.  Callers silence numpy's warnings."""
    m = vals.shape[1]
    sums = vals.sum(axis=1)
    # a NaN or infinity anywhere in a row makes that row's sum non-finite
    if not np.isfinite(sums).all():
        raise NonFiniteSampleError(
            "integrand returned a non-finite value, or a negative value where its "
            "logarithm is taken (the Holder check); truncate the singularity or "
            "keep the function positive")
    vals -= (sums / m)[:, None]
    vals *= vals
    return m, sums, vals.sum(axis=1)


def _run_shard(points: Iterable[np.ndarray], fill, num_series: int, chunk: int):
    block = np.empty(num_series * chunk)
    acc = (0, np.zeros(num_series), np.zeros(num_series))
    # _reduce reports non-finite values, so numpy's warnings are silenced;
    # inside the job, since pool threads do not inherit errstate
    with np.errstate(all="ignore"):
        for pts in points:
            m = len(pts)
            vals = block[:num_series * m].reshape(num_series, m)
            rest = fill(pts, vals)
            # a fill that reduced some points itself wrote the others into
            # the leading columns
            lead = m if rest is None else m - rest[0]
            acc = _merge(acc, _reduce(vals[:, :lead]))
            if rest is not None:
                acc = _merge(acc, rest)
    return acc


def _mc_estimates(cfg: QuadConfig, dim: int, fill, num_series: int,
                  radius: float | None = None,
                  scales: Sequence[float] | None = None) -> list[Estimate]:
    """Shared engine: mean of each value series over the points of
    :func:`_shard_streams` (on the sphere, or in the ball of ``radius``),
    times its scale (1 when ``scales`` is None).

    Shard partials are reduced in index order for determinism; the value is
    the ordered sum over all samples divided by their count.
    """
    # no shard holds more than ceil(samples / shards) points
    chunk = min(_chunk_size(dim, num_series), -(-cfg.samples // cfg.shards))
    streams = list(_shard_streams(cfg, dim, chunk, radius))

    def job(points):
        return _run_shard(points, fill, num_series, chunk)

    workers = _worker_count(len(streams))
    # one worker runs the shards in this thread, not in a one-thread pool:
    # a pool thread gets its own malloc arena, which raised the one-worker
    # peak RSS of the benchmark's local growth run from 49.9 to 51.0 MB
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            partials = list(pool.map(job, streams))
    else:
        partials = [job(points) for points in streams]

    acc = (0, np.zeros(num_series), np.zeros(num_series))
    for part in partials:  # fixed order: active shards ascending
        acc = _merge(acc, part)
    _, s1, m2 = acc

    m = cfg.samples
    out = []
    for i in range(num_series):
        scale = 1.0 if scales is None else scales[i]
        var = float(m2[i]) / (m - 1)
        out.append(Estimate(
            value=float(s1[i]) / m * scale,
            stderr=math.sqrt(var / m) * abs(scale),
            samples=m,
            seed=cfg.seed,
        ))
    return out


def mc_sphere_estimates(n: int, cfg: QuadConfig, fill,
                        num_series: int) -> list[Estimate]:
    """Estimate several sphere integrals from one shared sample stream.

    ``fill(points, out)`` gets an (m, n) array of unit vectors and a
    C-contiguous (num_series, m) view of a block the engine reuses for every
    chunk, and writes series i into row i.  Either it writes every entry of
    ``out`` and returns None, or it reduces some of the points itself: it
    returns their (count, sums, M2) as :func:`_reduce` gives them, one sum
    and one M2 per series, and writes the other m - count points, in any
    order, into the leading columns ``out[:, :m - count]``.  The one
    eps-grid pass of the grid experiments (:mod:`spherebl.extremal`)
    reduces this way the points where no floor acts, whose values are the
    same at every grid point.  All series see the same
    points, which is what the paired grid experiments rely on.
    """
    if n < 2:
        raise ValueError("sphere sampling needs dimension >= 2")
    return _mc_estimates(cfg, n, fill, num_series)


def ball_volume(dim: int, radius: float = 1.0) -> float:
    """Lebesgue volume of the ball of ``radius`` in R^dim; raises ValueError
    when it exceeds the float range."""
    try:
        volume = math.pi ** (dim / 2) / math.gamma(dim / 2 + 1) * radius**dim
    except OverflowError:
        volume = math.inf
    if volume == math.inf:
        raise ValueError(f"the ball volume at radius {radius} exceeds the float range")
    return volume


def mc_ball_estimates(dim: int, radius: float, cfg: QuadConfig, fill,
                      num_series: int,
                      volumes: Sequence[float] | None = None) -> list[Estimate]:
    """Like :func:`mc_sphere_estimates` but uniform over the ball of the
    given radius, scaled by its volume (so the estimate targets the plain
    Lebesgue integral).  ``fill`` follows the same protocol.

    ``volumes`` gives each series its own volume factor instead: a fill
    that evaluates series i at R_i times the points of the unit ball, with
    ``volumes[i] = ball_volume(dim, R_i)``, estimates the integral over the
    ball of radius R_i for every i from one draw.
    """
    if dim < 1:
        raise ValueError("ball sampling needs dimension >= 1")
    if volumes is None:
        volumes = [ball_volume(dim, radius)] * num_series
    return _mc_estimates(cfg, dim, fill, num_series, radius, scales=volumes)


def sample_sphere(n: int, cfg: QuadConfig) -> Iterator[np.ndarray]:
    """Stream the sample points of each shard as (m, n) arrays of unit
    vectors, exactly the points the estimators consume."""
    if n < 2:
        raise ValueError("sphere sampling needs dimension >= 2")
    for points in _shard_streams(cfg, n, _chunk_size(n, 1)):
        yield from points


def _power_transform(est: Estimate, p: float) -> Estimate:
    """Delta-method transform of an estimate of m = ||f||_p^p to m^(1/p)."""
    if est.value <= 0.0:
        return Estimate(0.0, 0.0, est.samples, est.seed)
    value = est.value ** (1.0 / p)
    stderr = est.stderr * est.value ** (1.0 / p - 1.0) / p
    return Estimate(value, stderr, est.samples, est.seed)


@dataclass(frozen=True)
class VerificationRecord:
    """Outcome of one product-versus-norms check.

    ``passed`` is True when LHS <= RHS * (1 + 3 * joint relative stderr +
    :data:`HOLDER_ROUNDING`), the joint relative error combining the LHS
    error and the norm errors in quadrature.  ``flags`` lists soft warnings
    (e.g. untagged integrands whose assumed reflection symmetry could not be
    checked).
    """

    ps: tuple[float, ...]
    lhs: Estimate
    norms: tuple[Estimate, ...]
    rhs_value: float
    rhs_stderr: float
    margin: float
    rel_stderr_joint: float
    passed: bool
    flags: tuple[str, ...] = ()


#: Relative rounding allowance of the Hoelder verdict.  Constant functions
#: are the equality case and have zero standard error, so without it their
#: verdict would be decided by the last bits of the sums and powers; it lies
#: far below any Monte Carlo error.
HOLDER_ROUNDING = 1e-12


def _rel(est: Estimate) -> float:
    return est.stderr / abs(est.value) if est.value else 0.0


def _product_and_powers(out: np.ndarray, ps: Sequence[float]) -> None:
    """Complete the series of one product-versus-norms check in place.

    On entry ``out[1 + j]`` holds the logarithm of function j's values.
    The product exp(sum_j log f_j) goes into ``out[0]``, and row 1 + j
    becomes f_j^p_j = exp(p_j log f_j) in place, in one call for all rows.
    This spares a scalar libm ``pow`` per value."""
    logs = out[1:]
    np.add.reduce(logs, axis=0, out=out[0])
    np.exp(out[0], out=out[0])
    logs *= np.asarray(ps)[:, None]
    np.exp(logs, out=logs)


def _holder_record(ests: Sequence[Estimate], ps: list[float],
                   flags: Sequence[str]) -> VerificationRecord:
    lhs = ests[0]
    norms = tuple(_power_transform(e, p) for e, p in zip(ests[1:], ps))
    rhs = math.prod(e.value for e in norms)
    rel_rhs_sq = sum(_rel(e) ** 2 for e in norms)
    rhs_stderr = rhs * math.sqrt(rel_rhs_sq)
    rel_joint = math.sqrt(_rel(lhs) ** 2 + rel_rhs_sq)
    passed = lhs.value <= rhs * (1.0 + 3.0 * rel_joint + HOLDER_ROUNDING)
    return VerificationRecord(
        ps=tuple(ps),
        lhs=lhs,
        norms=norms,
        rhs_value=rhs,
        rhs_stderr=rhs_stderr,
        margin=rhs - lhs.value,
        rel_stderr_joint=rel_joint,
        passed=passed,
        flags=tuple(flags),
    )


def holder_verify(fams: Sequence[Symmetry], fs: Sequence[Integrand],
                  ps: Sequence[float], cfg: QuadConfig) -> VerificationRecord:
    """Check  int prod f_J dsigma <= prod ||f_J||_{p_J}  by Monte Carlo.

    ``fs[J]`` must be tagged with ``fams[J]`` (untagged integrands are
    accepted but flagged), and each ``ps[J]`` must reach the sharp
    per-function exponent of the family, below which the inequality has no
    guarantee.  The check works with the logarithms of the values, so a
    negative value, which has none, raises :class:`NonFiniteSampleError`.
    """
    return holder_verify_sets(fams, [fs], ps, cfg)[0]


def holder_verify_sets(fams: Sequence[Symmetry],
                       fs_sets: Sequence[Sequence[Integrand] | IntegrandStack],
                       ps: Sequence[float], cfg: QuadConfig) -> list[VerificationRecord]:
    """:func:`holder_verify` for several function sets of one family.

    Each set is an :class:`IntegrandStack` or a list of integrands, which
    is evaluated as the stack :meth:`IntegrandStack.of` makes of it.  Both
    sides of every check come from one sample stream: set k adds the
    product and the p-th powers of its functions as 1 + len(ps) series of a
    single estimator pass.  A stack writes the logarithms of its values
    straight into the engine's rows; the product and the powers are then
    taken there in place, as exp of their sum and of their multiples.
    """
    exps = per_function_exponents(fams)
    if len(ps) != len(fams) or any(len(fs) != len(fams) for fs in fs_sets):
        raise ValueError("fams, fs and ps must have equal lengths")
    stacks = [fs if isinstance(fs, IntegrandStack) else IntegrandStack.of(fs)
              for fs in fs_sets]
    ps = [float(p) for p in ps]
    for j, (p, e) in enumerate(zip(ps, exps)):
        if p < e - 1e-12:
            raise ValueError(f"p[{j}] = {p} is below the sharp exponent {e}")
    n = fams[0].n
    for stack in stacks:
        if stack.n != n:
            raise ValueError(f"integrands have dimension {stack.n}, family has {n}")
        for j, (s, tag) in enumerate(zip(fams, stack.tags)):
            if tag is not None and tag != s:
                raise ValueError(f"integrand {j} is tagged with a different symmetry")
    flags = [[f"integrand {j} untagged: symmetry and evenness not checked"
              for j, tag in enumerate(stack.tags) if tag is None]
             for stack in stacks]

    width = 1 + len(ps)

    def fill(pts: np.ndarray, out: np.ndarray) -> None:
        for stack, rows in zip(stacks, out.reshape(len(stacks), width, len(pts))):
            stack.fill(pts, rows[1:])
            _product_and_powers(rows, ps)

    ests = mc_sphere_estimates(n, cfg, fill, len(stacks) * width)
    return [_holder_record(ests[k * width:(k + 1) * width], ps, flags[k])
            for k in range(len(stacks))]
