"""Engine configuration: circle handling mode and strand-count guard rails.

Two modes.  In "quotient" mode (the default), any composition result that
carries an essential circle is dropped: this is the category where the
projector calculus lives.  In "raw" mode those terms are kept on the
diagram as a circle count.  Inessential circles always turn into factors
of -2 regardless of mode.

Environment variables ATL_MODE and ATL_MAX_STRANDS seed the defaults,
read on the first `get_config()` (not at import); a bad value raises a
ValueError naming the variable.  Explicit set_config / configure calls
(and CLI flags) override them.
The config lives in a context variable, so each thread and each asyncio
task sees its own overrides; a new thread starts from the defaults.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, replace
from functools import lru_cache, wraps
from inspect import signature

MODE_QUOTIENT = "quotient"
MODE_RAW = "raw"
_MODES = (MODE_QUOTIENT, MODE_RAW)


@dataclass(frozen=True)
class EngineConfig:
    max_strands: int = 24
    mode: str = MODE_QUOTIENT

    def __post_init__(self):
        if self.mode not in _MODES:
            raise ValueError(f"unknown mode {self.mode!r}, expected one of {_MODES}")
        if self.max_strands < 0:
            raise ValueError("max_strands must be nonnegative")


@lru_cache(maxsize=None)
def _from_env() -> EngineConfig:
    """The defaults seeded by ATL_MAX_STRANDS and ATL_MODE, read once."""
    cfg = EngineConfig()
    for var, field, parse in (("ATL_MAX_STRANDS", "max_strands", int), ("ATL_MODE", "mode", str)):
        text = os.environ.get(var)
        if text is not None:
            try:
                cfg = replace(cfg, **{field: parse(text)})
            except ValueError as exc:
                raise ValueError(f"{var}={text!r}: {exc}") from None
    return cfg


# unset until a caller overrides it, so importing reads no environment
_config: ContextVar[EngineConfig] = ContextVar("atlq_config")


def get_config() -> EngineConfig:
    cfg = _config.get(None)
    return cfg if cfg is not None else _from_env()


def set_config(cfg: EngineConfig) -> None:
    _config.set(cfg)


@contextmanager
def configure(**kwargs):
    """Temporarily override config fields.

    >>> with configure(mode="raw"):
    ...     get_config().mode
    'raw'
    """
    cfg = replace(get_config(), **kwargs)
    token = _config.set(cfg)
    try:
        yield cfg
    finally:
        _config.reset(token)


def guard(n: int) -> None:
    """Refuse a strand count over the configured limit, or a negative one."""
    limit = get_config().max_strands
    if n > limit:
        raise ValueError(f"{n} strands exceeds the configured limit of {limit}")
    if n < 0:
        raise ValueError("negative strand count")


# the clear function of every engine memo and table, registered where it is
# declared, so a wrapper later patched over a public name leaves it reachable;
# not the diagram pool, which `clear_caches` shrinks after them
CACHE_CLEARS: list = []


def memo(strands=None):
    """Memoize an engine function without bound and register its clear.

    With `strands`, which maps the positional arguments to a strand count,
    the guard runs on every call before the lookup, so a result built under
    a looser limit is refused under a tighter one exactly as a fresh build
    would be.  Keyword arguments are bound to the signature first, so
    `f(3, e=-1)` is guarded and looked up as `f(3, -1)`.
    """

    def wrap(fn):
        cached = lru_cache(maxsize=None)(fn)
        CACHE_CLEARS.append(cached.cache_clear)
        if strands is None:
            return cached
        bind = signature(fn).bind

        @wraps(fn)
        def guarded(*args, **kwargs):
            if kwargs:
                args = bind(*args, **kwargs).args
            guard(strands(*args))
            return cached(*args)

        guarded.cache_info = cached.cache_info
        guarded.cache_clear = cached.cache_clear
        return guarded

    return wrap
