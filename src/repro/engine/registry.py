"""Backend registry and factory for the unified query engine.

Every interval index in the library self-registers here (via the
:func:`register_backend` class decorator) under a short canonical key plus
the paper-comparison name as an alias:

======================  ==============================  =================
canonical name          class                           paper section
======================  ==============================  =================
``naive``               :class:`NaiveIndex`             -- (oracle)
``interval_tree``       :class:`IntervalTree`           Section 2 [16]
``grid1d``              :class:`Grid1D`                 Section 2 [15]
``timeline``            :class:`TimelineIndex`          Section 2 [19]
``period``              :class:`PeriodIndex`            Section 2 [4]
``hint_cf``             :class:`ComparisonFreeHINT`     Section 3.1
``hintm``               :class:`HINTm`                  Section 3.2
``hintm_sub``           :class:`SubdividedHINTm`        Section 4.1
``hintm_opt``           :class:`OptimizedHINTm`         Sections 4.2/4.3
``hintm_hybrid``        :class:`HybridHINTm`            Sections 3.4/4.4
======================  ==============================  =================

:func:`create_index` is the single construction entry point used by the
:class:`repro.engine.store.IntervalStore` facade, the paper's experiment
drivers and the CLI.  It adds two conveniences on top of calling
``cls.build(...)``:

* ``num_bits="auto"`` on the HINT^m family routes the choice of ``m``
  through the paper's analytical model with the walk priced
  (:func:`repro.hint.model.estimate_m_opt`), from the collection's
  statistics alone;
* the comparison-free HINT, which requires a discrete domain, defaults
  ``num_bits`` to the exact number of bits covering the data so that raw
  endpoints need no rescaling (queries then answer identically to every
  other backend).
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple, Type

from repro.core.base import IntervalIndex
from repro.core.domain import bit_length_for
from repro.core.errors import DomainError, UnknownBackendError
from repro.core.interval import IntervalCollection

__all__ = [
    "BackendSpec",
    "available_backends",
    "backend_specs",
    "create_index",
    "get_backend",
    "get_spec",
    "register_backend",
    "resolve_backend",
]

#: query extent (fraction of the domain) assumed by ``num_bits="auto"`` when
#: the caller gives no hint; the figure used throughout the paper's Section 5
_AUTO_EXTENT_FRACTION = 0.001


@dataclass(frozen=True)
class BackendSpec:
    """Registry entry describing one index backend.

    Attributes:
        name: canonical registry key (``"hintm_opt"``).
        cls: the :class:`IntervalIndex` subclass.
        aliases: accepted alternative names, such as the paper-comparison
            name (``"hint-m-opt"``).
        description: one-line human-readable summary.
        paper_section: where the structure is described in the paper.
        tunable: True when the backend takes the HINT ``num_bits``/``m``
            parameter and supports ``num_bits="auto"``.
        discrete_domain: True when endpoints must already lie in the discrete
            domain ``[0, 2^num_bits - 1]`` (the comparison-free HINT).
        composite: True for backends that wrap other registered backends
            (the sharded store) rather than compete with them.
    """

    name: str
    cls: Type[IntervalIndex]
    aliases: Tuple[str, ...] = ()
    description: str = ""
    paper_section: str = ""
    tunable: bool = False
    discrete_domain: bool = False
    composite: bool = False


_REGISTRY: Dict[str, BackendSpec] = {}
_ALIASES: Dict[str, str] = {}
_BACKENDS_LOADED = False


def register_backend(
    name: str,
    *,
    aliases: Tuple[str, ...] = (),
    description: str = "",
    paper_section: str = "",
    tunable: bool = False,
    discrete_domain: bool = False,
    composite: bool = False,
) -> Callable[[Type[IntervalIndex]], Type[IntervalIndex]]:
    """Class decorator registering an :class:`IntervalIndex` subclass.

    Raises:
        ValueError: if ``name`` or any alias is already taken.
    """

    def decorator(cls: Type[IntervalIndex]) -> Type[IntervalIndex]:
        spec = BackendSpec(
            name=name,
            cls=cls,
            aliases=tuple(aliases),
            description=description,
            paper_section=paper_section,
            tunable=tunable,
            discrete_domain=discrete_domain,
            composite=composite,
        )
        for key in (name, *spec.aliases):
            owner = _ALIASES.get(key)
            if owner is not None and _REGISTRY[owner].cls is not cls:
                raise ValueError(
                    f"backend name {key!r} already registered for "
                    f"{_REGISTRY[owner].cls.__name__}"
                )
        _REGISTRY[name] = spec
        for key in (name, *spec.aliases):
            _ALIASES[key] = name
        return cls

    return decorator


def _ensure_backends_loaded() -> None:
    """Import the index packages so their ``register_backend`` decorators run.

    Keeps the registry import-cycle free: this module never imports the index
    modules at import time (they import *us* for the decorator).
    """
    global _BACKENDS_LOADED
    if _BACKENDS_LOADED:
        return
    importlib.import_module("repro.baselines")
    importlib.import_module("repro.hint")
    importlib.import_module("repro.engine.sharded")
    _BACKENDS_LOADED = True


def available_backends(include_aliases: bool = False) -> List[str]:
    """Sorted backend names; with ``include_aliases`` also the legacy names."""
    _ensure_backends_loaded()
    if include_aliases:
        return sorted(_ALIASES)
    return sorted(_REGISTRY)


def backend_specs() -> List[BackendSpec]:
    """All registered :class:`BackendSpec` rows, sorted by canonical name."""
    _ensure_backends_loaded()
    return [_REGISTRY[name] for name in sorted(_REGISTRY)]


def resolve_backend(name: str) -> str:
    """Canonical name for ``name`` (which may be an alias).

    Raises:
        UnknownBackendError: for names nobody registered.
    """
    _ensure_backends_loaded()
    canonical = _ALIASES.get(name)
    if canonical is None:
        raise UnknownBackendError(
            f"unknown backend {name!r}; known: {available_backends(include_aliases=True)}"
        )
    return canonical


def get_spec(name: str) -> BackendSpec:
    """The :class:`BackendSpec` for ``name`` (canonical or alias)."""
    return _REGISTRY[resolve_backend(name)]


def get_backend(name: str) -> Type[IntervalIndex]:
    """The index class registered under ``name`` (canonical or alias)."""
    return get_spec(name).cls


def create_index(name: str, collection: IntervalCollection, **opts) -> IntervalIndex:
    """Build a registered backend over ``collection``.

    Args:
        name: canonical backend name or alias.
        collection: intervals to index.
        **opts: forwarded to the backend's ``build`` classmethod.  On the
            HINT family, ``num_bits="auto"`` picks ``m`` with the paper's
            analytical model; an optional ``query_extent`` opt (raw domain
            units) refines the model's workload assumption and is consumed
            here rather than forwarded.

    Raises:
        UnknownBackendError: for unregistered names.
        DomainError: when a discrete-domain backend gets data it cannot
            represent exactly (negative endpoints).
    """
    spec = get_spec(name)
    opts = dict(opts)
    query_extent = opts.pop("query_extent", None)
    if spec.discrete_domain:
        _resolve_discrete_bits(spec, collection, opts)
    elif spec.tunable and opts.get("num_bits") == "auto":
        opts["num_bits"] = _auto_num_bits(collection, query_extent)
    return spec.cls.build(collection, **opts)


def _auto_num_bits(collection: IntervalCollection, query_extent: Optional[float]) -> int:
    """Model-recommended ``m`` (Section 3.3) for ``collection``."""
    # local import: repro.hint imports this module for the decorator
    from repro.hint.model import DatasetStatistics, estimate_m_opt

    if not len(collection):
        return 1
    stats = DatasetStatistics.from_collection(collection)
    if query_extent is None:
        query_extent = _AUTO_EXTENT_FRACTION * stats.domain_length
    return estimate_m_opt(stats, max(query_extent, 1))


def _resolve_discrete_bits(
    spec: BackendSpec, collection: IntervalCollection, opts: Dict[str, object]
) -> None:
    """Default ``num_bits`` for discrete-domain backends to the exact bits.

    With the identity domain ``[0, 2^m - 1]`` covering every endpoint, raw
    queries answer identically to the rescaling backends, so the engine can
    treat the comparison-free HINT like any other backend.
    """
    if opts.get("num_bits") not in (None, "auto"):
        return
    if not len(collection):
        opts["num_bits"] = 1
        return
    lo, hi = collection.span()
    if lo < 0:
        raise DomainError(
            f"backend {spec.name!r} needs a discrete non-negative domain, but the "
            f"collection contains endpoint {lo}; rescale the data first "
            f"(repro.core.domain.Domain) or use a HINT^m backend"
        )
    opts["num_bits"] = bit_length_for(hi + 1)
