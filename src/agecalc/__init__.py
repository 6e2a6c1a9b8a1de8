"""Tail bounds and simulation for the freshness of sampled sensor data.

The library computes statistical upper bounds of network delay, peak
age-of-information, and peak deviation-of-information for time-triggered
and event-triggered sampling over a FIFO queue, using moment-generating
envelopes and Chernoff inversion, and validates every bound against a
built-in discrete-event simulator.
"""

from .models import (
    Deterministic,
    DistributionModel,
    Erlang,
    Exponential,
    sample,
)
from .envelopes import (
    EnvelopeSet,
    EventTriggered,
    TimeTriggered,
    TriggerPolicy,
    envelope_set,
)
from .bounds import (
    BoundResult,
    DoiBound,
    Metric,
    NoFeasibleTheta,
    Scenario,
    doi_epsilon_bound,
    doi_tail_probability,
    exact_mm1_tail,
    invert_to_quantile,
    log_aoi_mgf_bound,
    log_delay_mgf_bound,
    optimize_theta,
)
from .simulate import (
    CountTail,
    EmpiricalTail,
    EventStream,
    InsufficientSamples,
    MetricTails,
    derive_rng,
    run_replications,
)
from .sweeps import (
    CsvRow,
    SweepSpec,
    best_event_threshold,
    best_update_interval,
    bound_rows,
    make_model,
    params_for_utilization,
    round_threshold,
    simulation_rows,
    sweep_rows,
)

__version__ = "0.1.0"
