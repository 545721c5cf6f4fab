"""repro — reproduction of "Software Tool Evaluation Methodology" (1995).

A multi-level evaluation framework for parallel/distributed computing
(PDC) tools, together with every substrate the paper's experiments
need: a discrete-event simulation kernel, 1995-era network and node
models, runtime models of the Express, p4 and PVM message-passing
tools, and real implementations of the SU PDABS benchmark applications.

Quickstart
----------
>>> from repro import evaluate_tools
>>> report = evaluate_tools(platform="sun-ethernet", processors=4)
>>> print(report.summary())            # doctest: +SKIP
"""

from repro._version import __version__

__all__ = ["__version__", "WeightProfile", "evaluate_tools"]


def __getattr__(name):
    # Lazy imports keep `import repro.sim` cheap and avoid import cycles
    # between the convenience API and the subpackages implementing it.
    if name == "evaluate_tools":
        from repro.core.evaluation import evaluate_tools

        return evaluate_tools
    if name == "WeightProfile":
        from repro.core.weights import WeightProfile

        return WeightProfile
    raise AttributeError("module %r has no attribute %r" % (__name__, name))
