"""The repo-specific checkers; importing this package registers them."""

from repro.analysis.checkers import (  # noqa: F401 - registration imports
    determinism,
    dtypes,
    gpu_imports,
    guarded,
    lockorder,
    serialization,
)
