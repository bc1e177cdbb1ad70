"""Experiment harness: regenerates every figure of the paper's evaluation.

* :mod:`repro.experiments.experiment1` -- Figure 4a/4b (channel-level
  replication micro-benchmarks).
* :mod:`repro.experiments.run` -- the one RGame run behind Figures
  5a/5b/5c, 6 and 7, the headline "60% more clients" comparison, the
  policy lab and the chaos scenario: ``RunSpec`` / ``build`` / ``run`` /
  ``RunRecord`` and the ``SPECS`` table of named presets.
* :mod:`repro.experiments.chaos` -- broker-crash recovery milestones.
* :mod:`repro.experiments.records` -- low-footprint time-series recording.
* :mod:`repro.experiments.report` -- plain-text tables/series mirroring
  the paper's figures.
"""

from repro.experiments.records import BucketedStat, Sampler, SeriesRecorder

__all__ = ["BucketedStat", "Sampler", "SeriesRecorder"]
