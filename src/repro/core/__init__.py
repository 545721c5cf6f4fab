"""The paper's contribution: the multi-level evaluation methodology."""

from repro.core.cache import (
    CACHE_SCHEMA_VERSION,
    CacheBackend,
    DiskBackend,
    MemoryBackend,
    ResultCache,
    ShardedBackend,
    job_key,
)
from repro.core.criteria import ADL_CRITERIA, Criterion, NS, PS, Rating, WS
from repro.core.evaluation import EvaluationReport, ToolEvaluation, evaluate_tools
from repro.core.jobs import MeasurementJob, execute_job
from repro.core.levels import ADL, APL, EvaluationLevel, STANDARD_LEVELS, TPL
from repro.core.metrics import (
    Measurement,
    MeasurementSet,
    aggregate_scores,
    rank_by_value,
    ratio_scores,
)
from repro.core.ranking import PRIMITIVE_CLASSES, primitive_rankings, summary_table
from repro.core.results import ResultSet
from repro.core.executors import (
    EXECUTOR_BACKENDS,
    Executor,
    JobOutcome,
    ProcessPoolExecutor,
    SerialExecutor,
    create_executor,
    resolve_workers,
)
from repro.core.progress import (
    CacheHit,
    JobFinished,
    JobStarted,
    Progress,
    RunCompleted,
    RunEvent,
)
from repro.core.scheduler import JobTelemetry, RunHandle, Scheduler
from repro.core.spec import DEFAULT_APP_PARAMS, DEFAULT_TPL_SIZES, EvaluationSpec
from repro.core.stats import SampleStats, summarize, t_critical
from repro.core.usability import USABILITY_MATRIX, adl_score, usability_ratings
from repro.core.weights import (
    APPLICATION_DEVELOPER,
    BALANCED,
    END_USER,
    PRESET_PROFILES,
    TOOL_DEVELOPER,
    WeightProfile,
)

__all__ = [
    "ADL",
    "ADL_CRITERIA",
    "APL",
    "APPLICATION_DEVELOPER",
    "BALANCED",
    "CACHE_SCHEMA_VERSION",
    "CacheBackend",
    "CacheHit",
    "Criterion",
    "EXECUTOR_BACKENDS",
    "Executor",
    "DEFAULT_APP_PARAMS",
    "DEFAULT_TPL_SIZES",
    "DiskBackend",
    "END_USER",
    "EvaluationLevel",
    "EvaluationReport",
    "EvaluationSpec",
    "JobFinished",
    "JobOutcome",
    "JobStarted",
    "JobTelemetry",
    "Measurement",
    "MeasurementJob",
    "MeasurementSet",
    "MemoryBackend",
    "NS",
    "ProcessPoolExecutor",
    "Progress",
    "ResultCache",
    "ResultSet",
    "RunCompleted",
    "RunEvent",
    "RunHandle",
    "SampleStats",
    "Scheduler",
    "SerialExecutor",
    "ShardedBackend",
    "PRESET_PROFILES",
    "PRIMITIVE_CLASSES",
    "PS",
    "Rating",
    "STANDARD_LEVELS",
    "TOOL_DEVELOPER",
    "TPL",
    "ToolEvaluation",
    "USABILITY_MATRIX",
    "WS",
    "WeightProfile",
    "adl_score",
    "aggregate_scores",
    "create_executor",
    "evaluate_tools",
    "execute_job",
    "job_key",
    "primitive_rankings",
    "rank_by_value",
    "ratio_scores",
    "resolve_workers",
    "summarize",
    "summary_table",
    "t_critical",
    "usability_ratings",
]
