"""EWMA-predictive policy: act on where load is *going*, not where it is.

Per server the policy keeps an exponentially-weighted moving average of
the load ratio (``ALPHA``) plus a trend term (the EWMA's own
rate of change).  The effective load used for every threshold test is

    predicted_LR = ewma + trend * HORIZON_S

so a server that is ramping toward overload is relieved *before* it
crosses ``LR^high``, and a momentary spike that the EWMA smooths away
does not trigger churn.  Migration mechanics are shared with the greedy
policies (:func:`repro.core.policy.greedy.greedy_relief`); only the load
lens differs.
"""

from __future__ import annotations

from typing import ClassVar, Dict, Optional

from repro.core.config import DynamothConfig
from repro.core.policy.base import PolicyContext
from repro.core.policy.greedy import LoadFn, _GreedyBase
from repro.core.rebalance import LoadEstimator


class EwmaPredictivePolicy(_GreedyBase):
    """Trend-extrapolating variant of the greedy migration policy."""

    name: ClassVar[str] = "ewma_predictive"

    #: smoothing factor (weight of the newest load-ratio sample)
    ALPHA: ClassVar[float] = 0.30
    #: how far (seconds) the load trend is extrapolated
    HORIZON_S: ClassVar[float] = 5.0

    def __init__(self, config: DynamothConfig) -> None:
        super().__init__(config)
        self._ewma: Dict[str, float] = {}
        self._trend: Dict[str, float] = {}
        self._last_t: Optional[float] = None

    def _load_fn(self, ctx: PolicyContext, estimator: LoadEstimator) -> LoadFn:
        bias = self._update_predictions(ctx, estimator)

        def load(server: str) -> float:
            return estimator.load_ratio(server) + bias.get(server, 0.0)

        return load

    def _update_predictions(
        self, ctx: PolicyContext, estimator: LoadEstimator
    ) -> Dict[str, float]:
        """Advance per-server EWMA/trend state; return predicted-load biases.

        The bias (predicted minus measured) is what gets *added* to the
        live estimator ratio, so hypothetical migrations during the pass
        shift predicted loads exactly as they shift measured ones.
        """
        alpha = self.ALPHA
        horizon = self.HORIZON_S
        now = ctx.now
        if self._last_t is not None and now == self._last_t:
            # Repair and decide can both run at the same sim time; the
            # EWMA must advance once per time step, so re-derive biases
            # from the already-updated state.
            return {
                server: (
                    self._ewma.get(server, estimator.load_ratio(server))
                    + self._trend.get(server, 0.0) * horizon
                    - estimator.load_ratio(server)
                )
                for server in ctx.active_servers
            }
        dt = None if self._last_t is None else now - self._last_t
        bias: Dict[str, float] = {}
        next_ewma: Dict[str, float] = {}
        next_trend: Dict[str, float] = {}
        for server in ctx.active_servers:
            lr = estimator.load_ratio(server)
            prev_ewma = self._ewma.get(server)
            if prev_ewma is None:
                ewma = lr
                trend = 0.0
            else:
                ewma = alpha * lr + (1.0 - alpha) * prev_ewma
                if dt is not None and dt > 0:
                    trend = (ewma - prev_ewma) / dt
                else:
                    trend = self._trend.get(server, 0.0)
            next_ewma[server] = ewma
            next_trend[server] = trend
            predicted = ewma + trend * horizon
            bias[server] = predicted - lr
        # Servers that left the pool are forgotten wholesale.
        self._ewma = next_ewma
        self._trend = next_trend
        self._last_t = now
        return bias
