"""Unified compilation pipeline: fingerprints -> artifacts -> cache -> fan-out.

The paper's §III premise is that CGRA mapping is too expensive to redo at
runtime; it is also too expensive to redo at *bench* time.  This package is
the single front door through which the rest of the codebase obtains
compiled kernels:

* **Fingerprints** — :meth:`repro.dfg.graph.DFG.fingerprint`,
  :meth:`repro.arch.cgra.CGRA.fingerprint` and
  :meth:`repro.compiler.ems.MapperConfig.fingerprint` are canonical
  structural hashes; together they content-address a compilation.
* **Artifacts** — :class:`CompiledKernel` carries the paged mapping, page
  need, baseline/paged IIs and the steady-state II table, with versioned
  canonical JSON serialization.
* **Store** — :class:`ArtifactStore` persists artifacts content-addressed
  by ``(dfg_fp, arch_fp, mapper_fp)`` with atomic writes, logged (never
  swallowed) corruption handling, and hit/miss/compile-time counters.
* **Dispatch** — :func:`compile_many` is the one batch driver: it probes
  the store, compiles each distinct content address once (misses race
  over one speculative probe pool at ``workers > 1``, byte-identical to
  the serial path), and isolates per-job failures before re-raising the
  first.  :func:`compile_job` is the one uncached single-job entry; it
  returns the artifact with its
  :class:`~repro.pipeline.compile.CompileStats`.

Typical use::

    from repro.pipeline import ArtifactStore, build_profiles

    store = ArtifactStore()                      # .repro_artifacts/
    profiles = build_profiles(4, 4, store=store, workers=4)
"""

from repro.pipeline.artifact import ARTIFACT_VERSION, ArtifactKey, CompiledKernel
from repro.pipeline.compile import (
    CompileJob,
    build_profiles,
    compile_job,
    compile_kernel,
    compile_many,
    job_key,
    make_layout,
)
from repro.pipeline.store import STORE_DIRNAME, ArtifactStore

__all__ = [
    "ARTIFACT_VERSION",
    "ArtifactKey",
    "CompiledKernel",
    "ArtifactStore",
    "STORE_DIRNAME",
    "CompileJob",
    "job_key",
    "compile_job",
    "compile_kernel",
    "compile_many",
    "build_profiles",
    "make_layout",
]
