"""InpRR — parallel randomized response on the full input vector.

Each user one-hot encodes their record over ``{0,1}^d`` and perturbs every
one of the ``2^d`` cells with per-bit randomized response (vanilla eps/2
symmetric RR or Wang et al.'s optimised probabilities).  The aggregator
averages the reports, de-biases each cell, and obtains any marginal by
aggregating the reconstructed distribution.

Table 2 summary: communication ``2^d`` bits per user, error behaviour
``2^{k/2} 2^d / (eps sqrt(N))`` — simple and accurate for small ``d`` but the
cost and error blow up exponentially with the number of attributes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.domain import Domain
from ..core.exceptions import AggregationError
from ..core.marginals import MarginalWorkload
from ..core.privacy import PrivacyBudget
from ..core.rng import RngLike, ensure_rng
from ..mechanisms.unary_encoding import UnaryEncoding
from .base import (
    Accumulator,
    DistributionEstimator,
    MarginalReleaseProtocol,
    as_record_matrix,
    record_indices,
    take_state_array,
)
from .wire import COUNT, ReportField, WireCodableReports, register_report_schema

__all__ = ["InpRR", "InpRRReports", "InpRRAccumulator"]


@dataclass(frozen=True)
class InpRRReports(WireCodableReports):
    """One encoded batch: per-cell sums of the perturbed one-hot bits.

    Only the column sums of the ``n x 2^d`` report matrix matter for
    aggregation, so the client-side simulation samples them directly
    (``O(2^d)`` memory per batch, see
    :meth:`UnaryEncoding.simulate_onehot_report_sums`).
    """

    report_sums: np.ndarray
    num_users: int


register_report_schema(
    "InpRR",
    InpRRReports,
    fields=(
        ReportField("report_sums", np.float64, COUNT, per_user=False, extent="2^d"),
    ),
    scalar_fields=("num_users",),
)


class InpRRAccumulator(Accumulator):
    """Mergeable per-cell bit sums over ``{0,1}^d``."""

    def __init__(self, workload: MarginalWorkload, mechanism: UnaryEncoding):
        super().__init__(workload)
        self._mechanism = mechanism
        self._sums = np.zeros(workload.domain.size, dtype=np.float64)

    def _ingest(self, reports: InpRRReports) -> None:
        sums = np.asarray(reports.report_sums, dtype=np.float64)
        if sums.shape != self._sums.shape:
            raise AggregationError(
                f"report sums must have shape {self._sums.shape}, got {sums.shape}"
            )
        self._sums += sums

    def _absorb(self, other: "InpRRAccumulator") -> None:
        self._sums += other._sums

    def _export_state(self):
        return {"sums": self._sums.copy()}

    def _import_state(self, state) -> None:
        self._sums = take_state_array(
            state, "sums", self._sums.shape, np.float64
        )

    def _merge_signature(self):
        return self._mechanism

    def finalize(self) -> DistributionEstimator:
        total = self._require_reports()
        distribution = self._mechanism.unbias_sums(self._sums, total)
        return DistributionEstimator(self._workload, distribution)


class InpRR(MarginalReleaseProtocol):
    """Parallel randomized response applied to the one-hot encoded input."""

    name = "InpRR"

    def __init__(
        self,
        budget: PrivacyBudget,
        max_width: int,
        optimized_probabilities: bool = True,
    ):
        super().__init__(budget, max_width)
        self._optimized = bool(optimized_probabilities)

    @property
    def optimized_probabilities(self) -> bool:
        """Whether Wang et al.'s OUE probabilities are used (paper's default)."""
        return self._optimized

    def spec_options(self):
        return {"optimized_probabilities": self._optimized}

    def mechanism(self) -> UnaryEncoding:
        """The per-bit perturbation mechanism at this protocol's budget."""
        return UnaryEncoding.from_budget(self.budget, optimized=self._optimized)

    def encode_batch(self, records, rng: RngLike = None) -> InpRRReports:
        generator = ensure_rng(rng)
        records = as_record_matrix(records)
        true_counts = np.bincount(
            record_indices(records), minlength=1 << records.shape[1]
        )
        report_sums = self.mechanism().simulate_onehot_report_sums(
            true_counts, records.shape[0], rng=generator
        )
        return InpRRReports(report_sums=report_sums, num_users=records.shape[0])

    def accumulator(self, domain: Domain) -> InpRRAccumulator:
        return InpRRAccumulator(self.workload_for(domain), self.mechanism())

    def communication_bits(self, dimension: int) -> int:
        """Each user sends the whole perturbed one-hot vector: ``2^d`` bits."""
        return 1 << dimension
