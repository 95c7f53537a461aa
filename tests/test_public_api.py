"""The public API surface: __all__ consistency and import hygiene."""

import importlib
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro

PACKAGES = [
    "repro",
    "repro.geometry",
    "repro.model",
    "repro.index",
    "repro.kernels",
    "repro.cost",
    "repro.algorithms",
    "repro.data",
    "repro.bench",
    "repro.bench.macro",
    "repro.network",
    "repro.utils",
    "repro.analysis",
    "repro.exec",
    "repro.parallel",
    "repro.serve",
]


class TestAllConsistency:
    @pytest.mark.parametrize("name", PACKAGES)
    def test_all_names_resolve(self, name):
        module = importlib.import_module(name)
        assert hasattr(module, "__all__"), name
        for symbol in module.__all__:
            assert hasattr(module, symbol), "%s.%s missing" % (name, symbol)

    @pytest.mark.parametrize("name", PACKAGES)
    def test_no_duplicate_exports(self, name):
        module = importlib.import_module(name)
        assert len(module.__all__) == len(set(module.__all__)), name

    def test_every_submodule_importable(self):
        failures = []
        for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
            try:
                importlib.import_module(info.name)
            except Exception as exc:  # pragma: no cover - report which one
                failures.append((info.name, exc))
        assert not failures, failures


class TestImportHygiene:
    @pytest.mark.parametrize(
        "module", ["repro.serve.cli", "repro.bench.macro.datasets"]
    )
    def test_light_imports_leave_multiprocessing_out(self, module):
        """Package re-exports resolve on first use, not on import."""
        src = str(Path(repro.__file__).resolve().parent.parent)
        code = (
            "import sys; sys.path.insert(0, %r); import %s; "
            "print('multiprocessing' in sys.modules)" % (src, module)
        )
        completed = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=60
        )
        assert completed.returncode == 0, completed.stderr
        assert completed.stdout.strip() == "False"


class TestVersion:
    def test_version_string(self):
        assert repro.__version__.count(".") == 2


class TestDocstrings:
    @pytest.mark.parametrize("name", PACKAGES)
    def test_packages_documented(self, name):
        module = importlib.import_module(name)
        assert module.__doc__ and module.__doc__.strip(), name

    def test_public_classes_documented(self):
        undocumented = []
        for symbol in repro.__all__:
            obj = getattr(repro, symbol)
            if isinstance(obj, type) and not (obj.__doc__ or "").strip():
                undocumented.append(symbol)
        assert not undocumented, undocumented


class TestTopLevelConvenience:
    def test_headline_workflow_names_present(self):
        for symbol in (
            "Dataset",
            "Query",
            "SearchContext",
            "MaxSumExact",
            "MaxSumAppro",
            "DiaExact",
            "DiaAppro",
            "hotel_like",
            "generate_queries",
        ):
            assert symbol in repro.__all__
