"""Accelerated engine tier (``ScenarioConfig.engine``).

``"exact"`` (the default) never routes through this package: the
per-frame simulator runs untouched and its rows, cache keys and golden
fixtures stay byte-identical.  ``"batched"`` runs the round-synchronous
pure-DCF contention model (:mod:`repro.accel.engine`), which draws from
per-station counter-keyed column streams (:mod:`repro.accel.rng`).
``ScenarioConfig`` refuses a batched config the model cannot represent
(:func:`fast_path_refusal` names the first condition that fails).

See DESIGN.md "Engine tiers" for the determinism contract of each tier.
"""

from .engine import fast_path_refusal, run_scenario
from .rng import BatchedRngAdapter, ColumnStream

__all__ = [
    "run_scenario",
    "fast_path_refusal",
    "BatchedRngAdapter",
    "ColumnStream",
]
