"""Surface budget: the public API may shrink, never silently grow.

Each bound is the count at the time it was set.  A change that removes
names lowers the bound with it; a change that adds a package export, a
constructor or request-method option or a field of a format record has
to raise the bound here, in the diff, where review sees it.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect

import pytest

#: Upper bounds on ``len(package.__all__)``.
EXPORT_BUDGET = {
    "repro": 8,
    "repro.kernels": 21,
    "repro.serve": 17,
    "repro.cluster": 32,
    "repro.formats": 18,
    "repro.gpu": 23,
    "repro.ops": 9,
    "repro.gnn": 19,
}

#: Upper bounds on constructor parameters (``self`` excluded), and on the
#: parameters of the request methods (``Class.method``), so a dispatch knob
#: cannot return to ``submit_*`` unseen.
OPTION_BUDGET = {
    ("repro.serve", "Server"): 8,
    ("repro.serve", "Server.submit_spmm"): 3,
    ("repro.serve", "Server.submit_sddmm"): 5,
    ("repro.serve", "Server.submit_layer"): 7,
    ("repro.serve", "ShardScheduler"): 0,
    ("repro.serve", "ShardScheduler.run_spmm"): 5,
    ("repro.serve", "ShardScheduler.run_sddmm"): 8,
    ("repro.serve", "ShardScheduler.run_layer"): 9,
    ("repro.cluster", "ClusterScheduler"): 15,
    ("repro.cluster", "ClusterScheduler.run_spmm"): 7,
    ("repro.cluster", "ClusterScheduler.run_sddmm"): 10,
    ("repro.cluster", "ClusterScheduler.run_layer"): 11,
    ("repro.gnn", "SparseBackend"): 8,
}

#: Upper bounds on dataclass fields of the format records: a cached array
#: added to the format has to raise its bound here.
FIELD_BUDGET = {
    ("repro.formats", "CSRMatrix"): 4,
    ("repro.formats", "WindowPartition"): 8,
    ("repro.formats", "LaneCSR"): 4,
    ("repro.formats", "BlockedVectorFormat"): 5,
}


@pytest.mark.parametrize("package", sorted(EXPORT_BUDGET))
def test_package_exports_stay_within_budget(package):
    exported = importlib.import_module(package).__all__
    assert len(set(exported)) == len(exported), "duplicate names in __all__"
    assert len(exported) <= EXPORT_BUDGET[package]


@pytest.mark.parametrize("module, name", sorted(OPTION_BUDGET))
def test_constructor_options_stay_within_budget(module, name):
    target = importlib.import_module(module)
    for part in name.split("."):
        target = getattr(target, part)
    if inspect.isclass(target):
        target = target.__init__
    params = list(inspect.signature(target).parameters)[1:]
    assert len(params) <= OPTION_BUDGET[(module, name)]


@pytest.mark.parametrize("module, name", sorted(FIELD_BUDGET))
def test_format_fields_stay_within_budget(module, name):
    cls = getattr(importlib.import_module(module), name)
    assert len(dataclasses.fields(cls)) <= FIELD_BUDGET[(module, name)]
