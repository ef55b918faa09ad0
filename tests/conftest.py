"""Shared fixtures."""

import inspect
import sys
from types import SimpleNamespace

import pytest

from zetagamma import summation


@pytest.fixture
def chunked_sums(monkeypatch):
    """Record every chunked sum: its ``k`` in ``.k`` and the size of every
    index array handed to its term callback in ``.indices``.

    ``chunked_parallel_sum`` and ``chunked_parallel_pair_sum`` are wrapped
    at every ``zetagamma`` module attribute bound to them, where callers
    look them up; the wrapper forwards all its arguments.
    """
    record = SimpleNamespace(k=[], indices=[])
    modules = [module for name, module in list(sys.modules.items())
               if name == "zetagamma" or name.startswith("zetagamma.")]

    def counted(original):
        signature = inspect.signature(original)

        def wrapper(fn, *args, **kwargs):
            record.k.append(signature.bind(fn, *args, **kwargs).arguments["k"])

            def traced(idx):
                record.indices.append(idx.size)
                return fn(idx)
            return original(traced, *args, **kwargs)
        return wrapper

    for name in ("chunked_parallel_sum", "chunked_parallel_pair_sum"):
        original = getattr(summation, name)
        wrapper = counted(original)
        for module in modules:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, wrapper)
    return record
