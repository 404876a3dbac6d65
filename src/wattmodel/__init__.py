"""Server power modeling: fit, predict, integrate, and cost out.

Fits Power = alpha + b_cpu*CPU + b_mem*Memory + b_disk*Disk + b_net*Network
to paired utilization/power-meter traces, evaluates prediction accuracy,
integrates watts into kWh, and projects multi-year cost under an
escalating tariff. A synthetic trace generator with a portable seeded RNG
closes the loop for testing.

The package exports the union of its modules' `__all__` lists. They load
on first use (PEP 562), so `import wattmodel` alone imports no numpy, and
`python -m wattmodel` can choose numpy's BLAS threads before it loads.
"""

import importlib

__version__ = "0.1.0"

_MODULES = ("energy", "powermodel", "regression", "simgen", "tariff", "trace")


def __getattr__(name: str):
    if name in _MODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if "__all__" not in globals():
        exported = []
        for module in map(__getattr__, _MODULES):
            globals().update((n, getattr(module, n)) for n in module.__all__)
            exported += module.__all__
        globals()["__all__"] = exported
    try:
        return globals()[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None


def __dir__() -> list[str]:
    return sorted({*globals(), *__getattr__("__all__"), *_MODULES})
