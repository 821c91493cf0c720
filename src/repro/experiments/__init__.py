"""Experiment harness: per-figure data generators and deployments.

One function per evaluation figure (``figure04`` ... ``figure14``); each
returns a :class:`repro.experiments.series.FigureData` containing exactly
the series the paper plots, so the benchmarks can print paper-comparable
rows. Execution is delegated to
:class:`repro.experiments.runner.ExperimentRunner`, which shards trials
across processes and caches per-config results on disk.

Paper section: §4 (evaluation harness).
"""

from repro.experiments.series import FigureData, Series
from repro.experiments.deployment import Deployment, generate_deployment
from repro.experiments.montecarlo import (
    TrialSummary,
    run_trials,
    summarize,
    trial_seeds,
)
from repro.experiments.distributed import run_worker
from repro.experiments.runner import (
    ExperimentRunner,
    PipelineExperiment,
    ProgressEvent,
    ResultCache,
    RunStats,
    TrialError,
    cache_key,
    execute_pipeline,
)
from repro.experiments.svgplot import render_svg, save_svg
from repro.experiments.fieldmap import (
    FieldMap,
    MarkerGroup,
    pipeline_field_map,
    render_field_map,
)
from repro.experiments.validation import (
    proportion_consistent,
    proportion_z_score,
)
from repro.experiments import figures

__all__ = [
    "FigureData",
    "Series",
    "Deployment",
    "generate_deployment",
    "TrialSummary",
    "run_trials",
    "summarize",
    "trial_seeds",
    "ExperimentRunner",
    "PipelineExperiment",
    "ProgressEvent",
    "ResultCache",
    "RunStats",
    "TrialError",
    "cache_key",
    "execute_pipeline",
    "run_worker",
    "render_svg",
    "save_svg",
    "FieldMap",
    "MarkerGroup",
    "pipeline_field_map",
    "render_field_map",
    "proportion_consistent",
    "proportion_z_score",
    "figures",
]
