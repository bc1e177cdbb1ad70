"""What observability costs a traced delivery, as an absolute.

The perf ledger's ``traced_crash`` workload prices the flight recorder,
and ``ledger-compare`` only says "not worse than the base commit".  This
holds the number itself in tier-1: the chaos smoke run, streamed and SLA-
monitored, under the counting profile the ledger uses -- Python-level calls
in files under ``repro/obs/`` per ``DeliveryEvent``.  The smoke run's fan-out
is narrower than ``traced_crash``'s, so it emits more events per delivery
and reads higher (4.24 here against 2.93 there).

Counts are exact and the same on any machine; there is no wall clock here.
A change that needs more frames per delivery (hop records will) raises
``BUDGET`` in the same diff, on purpose.
"""

from repro.experiments.chaos import ChaosScenarioConfig, run_chaos
from repro.obs.sink import StreamingJsonlSink
from repro.obs.trace import DeliveryEvent, Tracer
from tests.helpers import python_calls_by_function

#: ``repro/obs`` calls per delivery: reads 4.24 (6.44 while a latency
#: sample was a ``Histogram.observe`` frame, 9.67 while every event went
#: through the sink's ``emit`` and a per-class line encoder).  The floor is
#: 2.6: ``Tracer.emit`` for each of the run's 1.62 events per delivery, then
#: per delivery the SLA handler; a histogram sample is an append, no frame.
BUDGET = 5.0


def test_obs_calls_per_delivery_within_budget(tmp_path):
    sink = StreamingJsonlSink(str(tmp_path / "smoke.jsonl"))
    tracer = Tracer(sink=sink)
    deliveries = []
    tracer.add_observer(deliveries.append, DeliveryEvent)

    def run():
        run_chaos(ChaosScenarioConfig.smoke(), tracer=tracer)
        sink.finalize(tracer)

    obs = {
        key: calls
        for key, calls in python_calls_by_function(run).items()
        if "/repro/obs/" in key[0]
    }
    per_delivery = sum(obs.values()) / len(deliveries)
    top = sorted(obs.items(), key=lambda item: -item[1])[:10]
    assert per_delivery <= BUDGET, (
        f"{per_delivery:.2f} repro/obs calls per delivery (budget {BUDGET}); top callees:\n"
        + "\n".join(
            f"  {calls:>7}  {path.rsplit('/repro/', 1)[1]}:{line} {name}"
            for (path, line, name), calls in top
        )
    )
