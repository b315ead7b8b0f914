"""Every export names something, once, and the package imports only exports."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import leapsim
from leapsim.alloc import build_plan, plan_full
from leapsim.experiment import run_experiment
from leapsim.hfl import (
    PreparedClient, SyntheticDataset, accuracy, local_train, predict, softmax_loss_and_grad,
)
from leapsim.scenario import Scenario


def test_every_export_exists_once_and_the_package_imports_only_exports():
    modules = {
        info.name: importlib.import_module(f"leapsim.{info.name}")
        for info in pkgutil.iter_modules(leapsim.__path__)
    }
    exporting = {name: module for name, module in modules.items() if hasattr(module, "__all__")}
    assert {"dist", "errors", "game", "netmodel", "alloc", "hfl", "experiment"} <= set(exporting)
    for name, module in exporting.items():
        missing = [export for export in module.__all__ if not hasattr(module, export)]
        assert missing == [], f"leapsim.{name}.__all__ names what the module lacks"
        assert len(set(module.__all__)) == len(module.__all__), f"leapsim.{name}.__all__ repeats"

    tree = ast.parse(Path(leapsim.__file__).read_text())
    imported = [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]
    assert imported
    unexported = [
        f"{module}.{name}" for module, name in imported if name not in exporting[module].__all__
    ]
    assert unexported == [], "leapsim/__init__.py imports names their modules do not export"


def test_no_signature_asks_for_a_count_its_arrays_hold():
    # the edge count is the width of channel_gains, the feature count that
    # of the features, the class count the model's rows, training is asked
    # for by giving its options, and a plan's avg JS is its partition's
    def names(callable_):
        return list(inspect.signature(callable_).parameters)

    assert names(Scenario) == ["config", "clients", "meta"]
    assert names(SyntheticDataset) == [
        "features", "labels", "client_sizes", "test_features", "test_labels", "n_classes"
    ]
    assert names(predict) == ["model", "features"]
    assert names(softmax_loss_and_grad) == ["weights", "chunk"]
    assert names(local_train) == ["chunk", "tau_c", "lr", "out"]
    assert names(PreparedClient) == ["design", "mean_design", "targets"]
    assert names(accuracy) == ["model", "features", "labels"]
    assert names(run_experiment) == [
        "scenario", "methods", "gp", "master_seed", "game_max_iters", "js_denominator",
        "train_options",
    ]
    assert names(plan_full) == ["partition", "clients", "config", "gp"]
    assert names(build_plan) == [
        "partition", "clients", "config", "bandwidth", "power", "surrogate_objective", "notes"
    ]
