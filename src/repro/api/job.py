"""Declarative tuning jobs — the input half of the solver API.

A :class:`TuningJob` pins down everything a solver needs to produce a
:class:`~repro.api.report.SolveReport`: the workload (model, cluster
shape, batch, sequence length), the search space and tuning-scale
preset, the interference-model policy, and the search budget
(``parallelism`` worker count for the outer (S, G) fan-out, ``keep_top``
candidate plans to execute).

Jobs are plain data: JSON round-trippable via :meth:`TuningJob.to_json`
/ :meth:`TuningJob.from_json`, and content-addressed via
:meth:`TuningJob.fingerprint` (the plan cache key). Spaces and scales
are stored either as registry slugs (``"mist"``, ``"quick"``) or as
fully inlined dicts for customized instances — both serialize.

Clusters default to the homogeneous shape implied by ``gpu`` /
``num_gpus``; an explicit ``cluster`` dict (the
:func:`repro.hardware.cluster_from_dict` schema, see ``docs/API.md``)
pins the exact topology and is how heterogeneous fleets — named device
groups with different GPU types — enter the API. Build such jobs with
:meth:`TuningJob.for_cluster`.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from typing import Any

from repro.core.spaces import SearchSpace, get_space, space_from_dict
from repro.symbolic import validate_engine
from repro.evaluation.workloads import (
    TuningScale,
    WorkloadSpec,
    get_scale,
    mixed_workload,
    scale_from_dict,
)
from repro.hardware import (
    ClusterSpec,
    HeterogeneousCluster,
    cluster_from_dict,
)

__all__ = ["TuningJob", "JobValidationError"]

#: interference-model policies a job may request
_INTERFERENCE_POLICIES = ("auto", "none")


class JobValidationError(ValueError):
    """A job's fields are inconsistent or out of range."""


@dataclass(frozen=True)
class TuningJob:
    """One declarative auto-tuning request.

    ``space`` / ``scale`` accept either a registry slug (see
    ``repro.core.spaces.NAMED_SPACES`` and
    ``repro.evaluation.workloads.SCALES``) or an inlined dict produced
    by ``space_to_dict`` / ``scale_to_dict``.
    """

    model: str
    num_gpus: int
    global_batch: int
    gpu: str = "L4"
    seq_len: int = 2048
    flash: bool = True
    space: str | dict = "mist"
    scale: str | dict = "quick"
    #: "auto" uses the committed calibration of the cluster fabric;
    #: "none" disables interference-aware prediction
    interference: str = "auto"
    #: worker threads for the outer (S, G) search; 1 = serial,
    #: 0 = one per CPU core
    parallelism: int = 1
    #: cost-model evaluation engine: "vectorized" (compiled numpy
    #: closures over whole config menus, the default) or "interpreted"
    #: (per-config tree walking — the slow differential-test reference).
    #: Solved plans are bit-identical across engines.
    engine: str = "vectorized"
    #: number of top predicted plans the solver may execute/verify
    keep_top: int = 3
    #: explicit cluster topology (repro.hardware.cluster_from_dict
    #: schema); None = homogeneous cluster implied by gpu/num_gpus
    cluster: dict | None = None
    #: free-form per-solver knobs (must stay JSON-serializable)
    options: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.num_gpus < 1:
            raise JobValidationError("num_gpus must be >= 1")
        if self.cluster is not None:
            try:
                parsed = cluster_from_dict(self.cluster)
            except (KeyError, TypeError, ValueError) as exc:
                raise JobValidationError(
                    f"invalid cluster description: {exc}"
                ) from exc
            if parsed.total_gpus != self.num_gpus:
                raise JobValidationError(
                    f"cluster has {parsed.total_gpus} GPUs but "
                    f"num_gpus={self.num_gpus}"
                )
        if self.global_batch < 1:
            raise JobValidationError("global_batch must be >= 1")
        if self.seq_len < 1:
            raise JobValidationError("seq_len must be >= 1")
        if self.parallelism < 0:
            raise JobValidationError("parallelism must be >= 0")
        if self.keep_top < 1:
            raise JobValidationError("keep_top must be >= 1")
        if self.interference not in _INTERFERENCE_POLICIES:
            raise JobValidationError(
                f"interference must be one of {_INTERFERENCE_POLICIES}, "
                f"got {self.interference!r}"
            )
        try:
            validate_engine(self.engine)
        except ValueError as exc:
            raise JobValidationError(str(exc)) from exc

    # -- resolution --------------------------------------------------------

    @property
    def workload(self) -> WorkloadSpec:
        return WorkloadSpec(
            model_spec=self.model, gpu_name=self.gpu,
            num_gpus=self.num_gpus, global_batch=self.global_batch,
            seq_len=self.seq_len, flash=self.flash,
            cluster_dict=self.cluster,
        )

    def resolved_cluster(self) -> "ClusterSpec | HeterogeneousCluster":
        """The cluster this job tunes for (explicit dict or implied)."""
        return self.workload.cluster

    @classmethod
    def from_workload(cls, spec: WorkloadSpec,
                      **overrides: Any) -> "TuningJob":
        if spec.cluster_dict is not None:
            overrides.setdefault("cluster", spec.cluster_dict)
        return cls(
            model=spec.model_spec, gpu=spec.gpu_name,
            num_gpus=spec.num_gpus, global_batch=spec.global_batch,
            seq_len=spec.seq_len, flash=spec.flash, **overrides,
        )

    @classmethod
    def for_cluster(cls,
                    cluster: "dict | ClusterSpec | HeterogeneousCluster",
                    *, model: str, global_batch: int, seq_len: int = 2048,
                    flash: bool = True, **kwargs: Any) -> "TuningJob":
        """Build a job for an explicit (possibly heterogeneous) cluster.

        ``num_gpus`` and ``gpu`` are derived from the cluster (via
        :func:`repro.evaluation.workloads.mixed_workload`); all other
        :class:`TuningJob` fields pass through ``kwargs``.
        """
        try:
            spec = mixed_workload(cluster, model, global_batch,
                                  seq_len=seq_len, flash=flash)
        except (KeyError, TypeError, ValueError) as exc:
            raise JobValidationError(
                f"invalid cluster description: {exc}"
            ) from exc
        return cls.from_workload(spec, **kwargs)

    def resolved_space(self) -> SearchSpace:
        if isinstance(self.space, str):
            return get_space(self.space)
        return space_from_dict(self.space)

    def resolved_scale(self) -> TuningScale:
        if isinstance(self.scale, str):
            return get_scale(self.scale)
        return scale_from_dict(self.scale)

    def with_(self, **changes: Any) -> "TuningJob":
        return replace(self, **changes)

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        out = {
            "model": self.model,
            "gpu": self.gpu,
            "num_gpus": self.num_gpus,
            "global_batch": self.global_batch,
            "seq_len": self.seq_len,
            "flash": self.flash,
            "space": self.space,
            "scale": self.scale,
            "interference": self.interference,
            "parallelism": self.parallelism,
            "keep_top": self.keep_top,
            "options": self.options,
        }
        # serialized only when explicit, so pre-existing jobs keep their
        # dict shape — and, below, their cache fingerprints
        if self.cluster is not None:
            out["cluster"] = self.cluster
        if self.engine != "vectorized":
            out["engine"] = self.engine
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "TuningJob":
        known = {f: data[f] for f in cls.__dataclass_fields__ if f in data}
        return cls(**known)

    def to_json(self, *, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "TuningJob":
        return cls.from_dict(json.loads(text))

    def fingerprint(self) -> str:
        """Stable content hash — the on-disk plan-cache key.

        ``parallelism`` and ``engine`` are excluded: they change how
        fast the search runs, never which plan it returns (the engines
        are bit-identical by contract, and the differential test suite
        holds them to it).
        """
        payload = self.to_dict()
        payload.pop("parallelism")
        payload.pop("engine", None)
        canonical = json.dumps(payload, sort_keys=True,
                               separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()[:20]
