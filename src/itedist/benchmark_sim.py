"""Benchmark data generator, closed-form truth, and coverage studies.

The benchmark population draws a latent bivariate-normal pair, turns each
coordinate into a uniform rank, and sets

* outcome ``Y = (eps + 1)^(2 + D)`` with ``eps`` the outcome rank,
* treatment ``D = 1(intercept + slope * Z + eta >= 0)`` with ``eta`` the
  selection rank and ``Z`` a fair-coin instrument.

Module constants fix the population to the study design: latent correlation
0.3, intercept -0.5, slope 0.5 and Pr[Z=1] = 0.5.

The effect of treatment for an individual with rank ``e`` is
``e * (1 + e)^2``, a strictly increasing map on [0, 1], which makes every
distributional quantity available in closed form.  The standard normal CDF
and quantile come from ``itedist._normal``, a port of the Cephes routines
that equals ``scipy.special.ndtr``/``ndtri`` bit for bit, so the package
needs no scipy at run time.  The module also provides
the asymptotic variance of the empirical CDF/quantile of the *estimated*
effects: a binomial part (the infeasible-estimator variance) plus an
estimation-error part assembled from the complier outcome density, the first
stage, and the effect map's inverse.  The estimation-error part is far too
delicate to plug in from data, which is why the inference products bootstrap
instead; here it serves as an oracle for validating the pipeline.
Simulated quantile estimates and the pointwise percentile band of the
coverage studies read their ranks through
:func:`itedist.empirical_dist.order_statistics`, the rule every inference
product uses.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from ._frozen import FrozenArrays
from ._normal import ndtr, ndtri
from ._rng import derive_seed, derive_stream, parallel_map
from .bootstrap_inference import (BootstrapConfig, BootstrapReplicates,
                                  IntervalResult, ReplicationError, _sorted_columns,
                                  ci_cdf, ci_prob_positive,
                                  ci_quantile_and_iqr, draw_replicates,
                                  ucb_cdf_constant, ucb_cdf_variable,
                                  ucb_quantile_constant, ucb_quantile_variable)
from .counterfactual import pseudo_ites
from .data_model import EstimabilityError, Sample, estimate_bounds
from .empirical_dist import Grid, ecdf, order_statistics


LATENT_CORRELATION = 0.3
SELECTION_INTERCEPT = -0.5
SELECTION_SLOPE = 0.5
INSTRUMENT_PROB = 0.5

# Treatment is taken iff the selection rank clears the threshold of the
# row's instrument value; indexed by that value.
_THRESHOLDS = (-SELECTION_INTERCEPT, -(SELECTION_INTERCEPT + SELECTION_SLOPE))
_LATENT_SCALE = math.sqrt(1.0 - LATENT_CORRELATION ** 2)


@dataclass(frozen=True, eq=False)
class GeneratedSample(FrozenArrays):
    """A benchmark sample plus the latent outcome ranks that produced it.

    The outcome rank exists solely for infeasible-estimator comparisons;
    estimation code only ever sees ``sample``.
    """

    sample: Sample
    outcome_rank: np.ndarray     # eps, uniform on [0, 1]


def generate(n: int, rng: np.random.Generator) -> GeneratedSample:
    """Draw a benchmark sample of size ``n`` (one covariate cell)."""
    if n < 1:
        raise ValueError(f"sample size must be positive, got {n}")
    draws = rng.standard_normal((n, 3))
    u = draws[:, 0]
    v = LATENT_CORRELATION * u + _LATENT_SCALE * draws[:, 1]
    eps = ndtr(u)
    eta = ndtr(v)
    z = (draws[:, 2] > ndtri(1.0 - INSTRUMENT_PROB)).astype(np.int8)
    d = (SELECTION_INTERCEPT + SELECTION_SLOPE * z + eta >= 0.0).astype(np.int8)
    y = (eps + 1.0) ** (2 + d)
    sample = Sample(outcomes=y, treatments=d, instruments=z,
                    covariates=np.zeros((n, 0), dtype=np.int64))
    return GeneratedSample(sample=sample, outcome_rank=eps)


def true_ites(generated: GeneratedSample) -> np.ndarray:
    """Latent per-row effects, for infeasible-estimator comparisons only."""
    if not isinstance(generated, GeneratedSample):
        raise TypeError("true effects exist only for generated benchmark samples")
    e = generated.outcome_rank
    return (e + 1.0) ** 3 - (e + 1.0) ** 2


class DgpOracle:
    """Closed-form distribution of the benchmark effect and its maps."""

    support = (0.0, 4.0)

    def ite(self, e):
        e = np.asarray(e, dtype=np.float64)
        return e * (1.0 + e) ** 2

    def ite_inverse(self, v):
        """Inverse of the effect map on [0, 4], by bisection (monotone cubic)."""
        v_arr = np.asarray(v, dtype=np.float64)
        if np.any(v_arr < self.support[0] - 1e-9) or np.any(v_arr > self.support[1] + 1e-9):
            raise ValueError(f"value outside the effect support {self.support}")
        lo = np.zeros_like(v_arr)
        hi = np.ones_like(v_arr)
        for _ in range(64):
            mid = 0.5 * (lo + hi)
            below = self.ite(mid) < v_arr
            lo = np.where(below, mid, lo)
            hi = np.where(below, hi, mid)
        root = 0.5 * (lo + hi)
        root = np.where(v_arr <= self.support[0], 0.0,
                        np.where(v_arr >= self.support[1], 1.0, root))
        return float(root) if np.isscalar(v) else root

    def cdf(self, v):
        v_arr = np.asarray(v, dtype=np.float64)
        clipped = np.clip(v_arr, *self.support)
        out = self.ite_inverse(clipped)
        return float(out) if np.isscalar(v) else out

    def quantile(self, tau):
        tau_arr = np.asarray(tau, dtype=np.float64)
        if np.any(tau_arr <= 0.0) or np.any(tau_arr >= 1.0):
            raise ValueError("quantile level must lie in (0, 1)")
        out = tau_arr * (1.0 + tau_arr) ** 2
        return float(out) if np.isscalar(tau) else out

    def density(self, v):
        v_arr = np.asarray(v, dtype=np.float64)
        inside = (v_arr >= self.support[0]) & (v_arr <= self.support[1])
        e = self.ite_inverse(np.clip(v_arr, *self.support))
        out = np.where(inside, 1.0 / ((1.0 + e) * (1.0 + 3.0 * e)), 0.0)
        return float(out) if np.isscalar(v) else out

    def iqr(self) -> float:
        return float(self.quantile(0.75) - self.quantile(0.25))

    def map_to_treated(self, y):
        """Counterfactual treated outcome for an untreated outcome ``y``."""
        y_arr = np.asarray(y, dtype=np.float64)
        out = y_arr ** 1.5
        return float(out) if np.isscalar(y) else out

    def map_to_control(self, y):
        """Counterfactual untreated outcome for a treated outcome ``y``."""
        y_arr = np.asarray(y, dtype=np.float64)
        out = y_arr ** (2.0 / 3.0)
        return float(out) if np.isscalar(y) else out


class TheoryVariance:
    """Asymptotic variances of the empirical CDF/quantile of estimated effects.

    ``cdf_sampling`` is the binomial variance the infeasible estimator would
    have; ``cdf_estimation`` is the extra variance contributed by estimating
    the effects, assembled from the complier outcome densities, the first
    stage, and the inverse effect map (a single monotone piece here).
    ``quantile_*`` divide by the squared effect density at the quantile.
    """

    oracle = DgpOracle()

    # -- latent-structure ingredients ---------------------------------------

    def _complier_rank_density(self, e):
        """Density of the outcome rank among compliers."""
        u = ndtri(np.asarray(e, dtype=np.float64))
        thr0, thr1 = _THRESHOLDS
        hi = (ndtri(thr0) - LATENT_CORRELATION * u) / _LATENT_SCALE
        lo = (ndtri(thr1) - LATENT_CORRELATION * u) / _LATENT_SCALE
        return (ndtr(hi) - ndtr(lo)) / (thr0 - thr1)

    def _treated_prob_given_rank(self, e):
        """Pr[treated | outcome rank]."""
        u = ndtri(np.asarray(e, dtype=np.float64))
        total = np.zeros_like(u)
        for z, pz in ((1, INSTRUMENT_PROB), (0, 1.0 - INSTRUMENT_PROB)):
            cut = (ndtri(_THRESHOLDS[z]) - LATENT_CORRELATION * u) / _LATENT_SCALE
            total = total + pz * (1.0 - ndtr(cut))
        return total

    def first_stage_gap(self, d: int) -> float:
        """Pr[D=d | Z=1] - Pr[D=d | Z=0]."""
        thr0, thr1 = _THRESHOLDS
        gap_treated = thr0 - thr1    # (1 - thr1) - (1 - thr0)
        return gap_treated if d == 1 else -gap_treated

    def _map_scale(self, d: int, e):
        """Complier outcome density pulled back through the outcome map.

        Equals the outcome-map Jacobian times the complier rank density times
        the signed first stage; positive under instrument relevance.
        """
        e = np.asarray(e, dtype=np.float64)
        sign = -1.0 if d == 0 else 1.0
        jacobian = (1.0 + e) ** (-(1 + d)) / (2 + d)
        return sign * self.first_stage_gap(d) * self._complier_rank_density(e) * jacobian

    # -- CDF-scale variances -------------------------------------------------

    def cdf_sampling(self, v):
        f = self.oracle.cdf(v)
        return f * (1.0 - f)

    def cdf_estimation(self, v):
        e = self.oracle.ite_inverse(np.asarray(v, dtype=np.float64))
        inv_slope = 1.0 / ((1.0 + e) * (1.0 + 3.0 * e))
        p_treated = self._treated_prob_given_rank(e)
        rho_by_d = {1: p_treated * inv_slope, 0: (1.0 - p_treated) * inv_slope}
        omega = -(np.abs(rho_by_d[1]) / self._map_scale(0, e)
                  + np.abs(rho_by_d[0]) / self._map_scale(1, e))
        weight = 1.0 / INSTRUMENT_PROB + 1.0 / (1.0 - INSTRUMENT_PROB)
        out = omega ** 2 * e * (1.0 - e) * weight
        return float(out) if np.isscalar(v) else out

    # -- quantile-scale variances ---------------------------------------------

    def quantile_sampling(self, tau):
        q = self.oracle.quantile(tau)
        return self.cdf_sampling(q) / self.oracle.density(q) ** 2

    def quantile_estimation(self, tau):
        q = self.oracle.quantile(tau)
        return self.cdf_estimation(q) / self.oracle.density(q) ** 2


def theory_variance(tau: float) -> tuple[float, float]:
    """(sampling, estimation) components of the asymptotic quantile variance."""
    if not 0.0 < tau < 1.0:
        raise ValueError("quantile level must lie in (0, 1)")
    theory = TheoryVariance()
    return (float(theory.quantile_sampling(tau)), float(theory.quantile_estimation(tau)))


# ---------------------------------------------------------------------------
# Monte Carlo quantile draws
# ---------------------------------------------------------------------------

def _quantile_draws(taus, n: int, reps: int, seed: int,
                    threads: int) -> tuple[np.ndarray, np.ndarray]:
    """(reps, levels) quantiles at ``taus`` of the estimated and of the true
    effects of ``reps`` benchmark samples of size ``n``; sample ``k`` is
    drawn from the stream keyed (seed, k)."""
    def one(k: int):
        gen = generate(n, derive_stream(seed, k))
        estimated = np.sort(pseudo_ites(gen.sample, estimate_bounds(gen.sample)).values)
        return (order_statistics(estimated, taus),
                order_statistics(np.sort(true_ites(gen)), taus))

    draws = parallel_map(one, range(reps), threads)
    return np.vstack([d[0] for d in draws]), np.vstack([d[1] for d in draws])


# ---------------------------------------------------------------------------
# Brute-force oracle for the estimation-error variance
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VarianceGapReport:
    """Simulated check of the estimation-error variance component, per level.

    ``gap`` is n * (var of feasible quantile - var of infeasible quantile),
    computed on common samples; it should approach ``theory``, the
    theoretical estimation component, as n grows.
    """

    gap: tuple[float, ...]
    theory: tuple[float, ...]

    @property
    def ratios(self) -> tuple[float, ...]:
        return tuple(g / t for g, t in zip(self.gap, self.theory))


def quantile_variance_gap(taus, n: int, reps: int, seed: int) -> VarianceGapReport:
    """Simulate feasible and infeasible quantile estimators on common draws.

    Both estimators are evaluated on the same generated samples, so their
    variance difference is estimated with far less noise than from
    independent runs.
    """
    taus = tuple(float(t) for t in np.atleast_1d(taus))
    feasible, infeasible = _quantile_draws(taus, n, reps, seed, threads=1)
    gap = n * feasible.var(axis=0, ddof=1) - n * infeasible.var(axis=0, ddof=1)
    return VarianceGapReport(gap=tuple(float(x) for x in gap),
                             theory=tuple(theory_variance(t)[1] for t in taus))


# ---------------------------------------------------------------------------
# Naive comparator and Gaussian diagnostic
# ---------------------------------------------------------------------------

def naive_ci_cdf(values, v: float, alpha: float) -> IntervalResult:
    """Textbook binomial interval around the empirical CDF.

    Ignores the effect-estimation error entirely, so it undercovers badly;
    kept as the documented invalid comparator.
    """
    cdf_fn = ecdf(values)
    estimate = float(cdf_fn(v))
    half = float(ndtri(1.0 - alpha / 2.0)) * math.sqrt(
        estimate * (1.0 - estimate) / cdf_fn.n)
    return IntervalResult(target="cdf-naive", at=float(v),
                          lo=estimate - half, hi=estimate + half,
                          b_used=0, redraws=0)


@dataclass(frozen=True, eq=False)
class GaussianDiagnostic(FrozenArrays):
    """Quantile-estimator draws, standardized against the limit law, with
    their mean, variance and 30-bin histogram."""

    estimates: np.ndarray
    standardized: np.ndarray
    mean: float
    variance: float
    bin_edges: np.ndarray
    bin_counts: np.ndarray


def gaussian_diagnostic(tau: float, n: int, reps: int, seed: int,
                        threads: int = 1) -> GaussianDiagnostic:
    """Draw ``reps`` quantile estimates and standardize by the theory variance.

    If the limit law is right, the standardized draws are approximately
    standard normal; the mean/variance summary feeds the sanity gates and the
    30-bin histogram feeds plotting.
    """
    if reps < 30:
        raise ValueError("need at least 30 replications for a meaningful histogram")
    oracle = DgpOracle()
    truth = oracle.quantile(tau)
    v1, v2 = theory_variance(tau)

    estimates = _quantile_draws((tau,), n, reps, seed, threads)[0][:, 0]
    standardized = (estimates - truth) * math.sqrt(n / (v1 + v2))
    counts, edges = np.histogram(standardized, bins=30)
    return GaussianDiagnostic(
        estimates=estimates, standardized=standardized, mean=float(standardized.mean()),
        variance=float(standardized.var(ddof=1)),
        bin_edges=edges, bin_counts=counts)


# ---------------------------------------------------------------------------
# Coverage studies
# ---------------------------------------------------------------------------

# What ``at`` must be for each kind of target: an evaluation point ``v``, a
# level ``tau``, a grid of values or of levels, or nothing.
_TARGET_AT = {
    "cdf-ci": "v", "cdf-ci-naive": "v", "quantile-ci": "tau",
    "iqr-ci": None, "prob-positive-ci": None,
    "cdf-band-constant": "values", "cdf-band-variable": "values",
    "cdf-band-interpolated": "values",
    "quantile-band-constant": "levels", "quantile-band-variable": "levels",
}


@dataclass(frozen=True)
class StudyTarget:
    """One inference product to evaluate in a coverage study, and where.

    ``at`` is what the kind's entry of ``_TARGET_AT`` asks for: a point ``v``
    for the CDF intervals, a level ``tau`` for the quantile interval, a
    :class:`Grid` of that kind for the bands, and ``None`` for the IQR and
    positive-share intervals.
    """

    kind: str
    at: float | Grid | None = None

    def __post_init__(self):
        if self.kind not in _TARGET_AT:
            raise ValueError(f"target kind must be one of {tuple(_TARGET_AT)}, "
                             f"got {self.kind!r}")
        wanted = _TARGET_AT[self.kind]
        if wanted is None:
            if self.at is not None:
                raise ValueError(f"{self.kind} takes no evaluation point, got {self.at!r}")
        elif wanted in ("v", "tau"):
            if self.at is None or isinstance(self.at, Grid):
                raise ValueError(f"{self.kind} needs a scalar {wanted}")
        elif not isinstance(self.at, Grid) or self.at.kind != wanted:
            raise ValueError(f"{self.kind} needs a grid of kind {wanted!r}")

    @property
    def label(self) -> str:
        wanted = _TARGET_AT[self.kind]
        if wanted is None:
            return self.kind
        if wanted in ("v", "tau"):
            return f"{self.kind}@{wanted}={self.at:g}"
        return f"{self.kind}@[{self.at.points[0]:g},{self.at.points[-1]:g}]"

    @property
    def needs_bootstrap(self) -> bool:
        return self.kind != "cdf-ci-naive"


@dataclass(frozen=True)
class CoverageReport:
    """Empirical coverage and size of one product at one nominal level."""

    target: str
    nominal: float
    coverage: float
    avg_length: float
    reps: int
    b_used: int
    n: int
    failures: int


def _truth(target: StudyTarget, oracle: DgpOracle) -> float | np.ndarray:
    """The closed-form value of what ``target`` estimates."""
    wanted, at = _TARGET_AT[target.kind], target.at
    if isinstance(at, Grid):
        at = at.points
    if wanted in ("v", "values"):
        return oracle.cdf(at)
    if wanted in ("tau", "levels"):
        return oracle.quantile(at)
    if target.kind == "iqr-ci":
        return oracle.iqr()
    return 1.0 - oracle.cdf(0.0)


def _evaluate_target(target: StudyTarget, level: float,
                     reps: BootstrapReplicates | None,
                     point_sorted: np.ndarray,
                     truth: float | np.ndarray) -> tuple[bool, float]:
    """(covered, length) of one product on one generated sample."""
    alpha = 1.0 - level
    kind, at = target.kind, target.at
    if kind == "cdf-band-interpolated":
        # Pointwise percentile intervals, scored on the grid points only.
        lo, hi = order_statistics(_sorted_columns(reps, at),
                                  (alpha / 2.0, 1.0 - alpha / 2.0), axis=0)
        return (bool(np.all((lo <= truth) & (truth <= hi))), float((hi - lo).mean()))
    # Built per call, so that each product is looked up by its module-level
    # name when it runs: the benchmark's tracer rebinds those names.
    bands = {"cdf-band-constant": ucb_cdf_constant, "cdf-band-variable": ucb_cdf_variable,
             "quantile-band-constant": ucb_quantile_constant,
             "quantile-band-variable": ucb_quantile_variable}
    if kind in bands:
        band = bands[kind](reps, alpha, at)
        return (band.covers(truth), band.average_width)
    if kind == "cdf-ci":
        interval = ci_cdf(reps, alpha, at)
    elif kind == "cdf-ci-naive":
        interval = naive_ci_cdf(point_sorted, at, alpha)
    elif kind == "quantile-ci":
        interval = ci_quantile_and_iqr(reps, alpha, at)[0]
    elif kind == "iqr-ci":
        interval = ci_quantile_and_iqr(reps, alpha, 0.5)[1]
    else:
        interval = ci_prob_positive(reps, alpha)
    return (interval.lo <= truth <= interval.hi, interval.length)


def run_coverage(targets, n: int, reps: int, levels, b: int, seed: int,
                 threads: int = 1, max_redraws: int = 100) -> list[CoverageReport]:
    """Monte Carlo coverage study over the benchmark population.

    Each replication generates a fresh sample from a derived stream, fits the
    requested products, and scores them against the closed-form truth.
    Deterministic given the master seed.  A replication whose sample cannot
    be fitted (an empty treatment arm or instrument margin, or a bootstrap
    replication still degenerate after its redraws) is counted as a failure
    and excluded from the averages.
    """
    targets = list(targets)
    if reps < 1:
        raise ValueError("need at least one Monte Carlo replication")
    levels = [float(l) for l in np.atleast_1d(levels)]
    if not all(0.0 < level < 1.0 for level in levels):
        raise ValueError(f"nominal levels must lie in (0, 1), got {levels}")
    oracle = DgpOracle()
    truths = [_truth(t, oracle) for t in targets]
    any_bootstrap = any(t.needs_bootstrap for t in targets)

    def one(k: int):
        gen = generate(n, derive_stream(seed, k, 0))
        try:
            bounds = estimate_bounds(gen.sample)
            if any_bootstrap:
                cfg = BootstrapConfig(n_replications=b, seed=derive_seed(seed, k, 1),
                                      max_redraws=max_redraws)
                rep_set = draw_replicates(gen.sample, bounds, cfg)
                point_sorted = rep_set.point_sorted
            else:
                rep_set = None
                point_sorted = np.sort(pseudo_ites(gen.sample, bounds).values)
        except (ReplicationError, EstimabilityError):   # counted, not fatal
            return None
        return [[_evaluate_target(t, level, rep_set, point_sorted, truth)
                 for level in levels] for t, truth in zip(targets, truths)]

    outcomes = parallel_map(one, range(reps), threads)
    failures = sum(1 for o in outcomes if o is None)
    kept = [o for o in outcomes if o is not None]
    reports = []
    for ti, target in enumerate(targets):
        for li, level in enumerate(levels):
            covered = np.array([o[ti][li][0] for o in kept], dtype=np.float64)
            lengths = np.array([o[ti][li][1] for o in kept], dtype=np.float64)
            coverage = float(covered.mean()) if len(kept) else float("nan")
            reports.append(CoverageReport(
                target=target.label, nominal=level, coverage=coverage,
                avg_length=float(lengths.mean()) if len(kept) else float("nan"),
                reps=len(kept), b_used=0 if not target.needs_bootstrap else b,
                n=n, failures=failures))
    return reports


# ---------------------------------------------------------------------------
# CSV emission (table and figure data)
# ---------------------------------------------------------------------------

def write_coverage_csv(reports, path) -> None:
    """Emit coverage results as one row per target with CP/length columns."""
    reports = list(reports)
    levels = sorted({r.nominal for r in reports})
    by_target: dict[str, dict[float, CoverageReport]] = {}
    meta: dict[str, CoverageReport] = {}
    for r in reports:
        by_target.setdefault(r.target, {})[r.nominal] = r
        meta[r.target] = r
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["target", "n", "reps", "bootstrap", "failures",
                         *(f"cp_{lv:g}" for lv in levels),
                         *(f"len_{lv:g}" for lv in levels)])
        for target in by_target:
            row = meta[target]
            cps = [by_target[target].get(lv) for lv in levels]
            writer.writerow([
                target, row.n, row.reps, row.b_used, row.failures,
                *(f"{c.coverage:.6g}" if c else "" for c in cps),
                *(f"{c.avg_length:.6g}" if c else "" for c in cps)])


def write_variance_profile_csv(path, taus) -> None:
    """Emit the two quantile-variance components over the levels ``taus``."""
    theory = TheoryVariance()
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["tau", "quantile_var_sampling", "quantile_var_estimation"])
        for t in np.atleast_1d(taus):
            writer.writerow([f"{float(t):.6g}",
                             f"{float(theory.quantile_sampling(t)):.10g}",
                             f"{float(theory.quantile_estimation(t)):.10g}"])


def write_diagnostic_csv(diag: GaussianDiagnostic, path) -> None:
    """Emit standardized draws and histogram bins as plot data."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["section", "index", "x", "y"])
        for i, (est, std) in enumerate(zip(diag.estimates, diag.standardized)):
            writer.writerow(["draw", i, repr(float(est)), repr(float(std))])
        centers = 0.5 * (diag.bin_edges[:-1] + diag.bin_edges[1:])
        for j, (center, count) in enumerate(zip(centers, diag.bin_counts)):
            writer.writerow(["bin", j, repr(float(center)), int(count)])
