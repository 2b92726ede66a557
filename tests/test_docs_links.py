"""Docs lint: every link and code reference in README.md and docs/*.md
must resolve, and every repro subpackage must be documented.

Static checks only (no network, no execution of examples):

* relative markdown links point at files that exist;
* backticked repo paths (``tests/...``, ``docs/...``, ``src/...``,
  ``benchmarks/...``, ``examples/...``) exist;
* dotted ``repro.*`` references import (attribute tails resolved with
  ``getattr`` walks);
* every package/module directly under ``src/repro`` has a module
  docstring and is mentioned in at least one docs page;
* every public symbol (``__all__``) of the serving and inference-engine
  APIs is mentioned in at least one docs page;
* every ``ServiceConfig`` field is documented, and every field the
  ``docs/serving.md`` configuration table names is a real field.
"""

import ast
import importlib
import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
DOC_FILES = sorted([REPO_ROOT / "README.md",
                    *(REPO_ROOT / "docs").glob("*.md")])

# [text](target) — excluding images; target split from any #fragment.
MD_LINK = re.compile(r"(?<!\!)\[[^\]]+\]\(([^)\s]+)\)")
# `tests/foo/bar.py` / `docs/x.md` / `src/...` style backticked paths.
CODE_PATH = re.compile(
    r"`((?:tests|docs|src|benchmarks|examples)/[\w./-]+)(?:::[\w:\[\]-]+)?`")
# Dotted module/attribute references: `repro.core.task_chunk_rng`, ...
DOTTED_REF = re.compile(r"\brepro(?:\.\w+)+")


def doc_ids():
    return [path.relative_to(REPO_ROOT).as_posix() for path in DOC_FILES]


@pytest.fixture(params=DOC_FILES, ids=doc_ids())
def doc(request):
    path = request.param
    return path, path.read_text()


class TestLinksResolve:
    def test_relative_links_exist(self, doc):
        path, text = doc
        broken = []
        for target in MD_LINK.findall(text):
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            resolved = (path.parent / target.split("#", 1)[0]).resolve()
            if not resolved.exists():
                broken.append(target)
        assert not broken, f"{path.name}: broken relative links {broken}"

    def test_backticked_paths_exist(self, doc):
        path, text = doc
        missing = [ref for ref in CODE_PATH.findall(text)
                   if not (REPO_ROOT / ref).exists()]
        assert not missing, f"{path.name}: nonexistent paths {missing}"

    def test_dotted_repro_references_import(self, doc):
        path, text = doc
        unresolved = []
        for ref in sorted(set(DOTTED_REF.findall(text))):
            if not self._resolves(ref):
                unresolved.append(ref)
        assert not unresolved, f"{path.name}: dangling references {unresolved}"

    @staticmethod
    def _resolves(dotted: str) -> bool:
        parts = dotted.split(".")
        for cut in range(len(parts), 0, -1):
            try:
                obj = importlib.import_module(".".join(parts[:cut]))
            except ImportError:
                continue
            try:
                for attr in parts[cut:]:
                    obj = getattr(obj, attr)
            except AttributeError:
                return False
            return True
        return False


def repro_modules():
    """Top-level subpackages/modules of repro, as (name, init_path)."""
    src = REPO_ROOT / "src" / "repro"
    modules = []
    for entry in sorted(src.iterdir()):
        if entry.is_dir() and (entry / "__init__.py").exists():
            modules.append((f"repro.{entry.name}", entry / "__init__.py"))
        elif entry.suffix == ".py" and entry.name != "__init__.py":
            modules.append((f"repro.{entry.stem}", entry))
    return modules


@pytest.mark.parametrize("name,path", repro_modules(),
                         ids=[n for n, _ in repro_modules()])
class TestEveryPackageDocumented:
    def test_has_module_docstring(self, name, path):
        docstring = ast.get_docstring(ast.parse(path.read_text()))
        assert docstring, f"{name} ({path}) lacks a module docstring"

    def test_mentioned_in_docs(self, name, path):
        assert any(name in text for _, text in
                   ((p, p.read_text()) for p in DOC_FILES)), (
            f"{name} is not mentioned in README.md or any docs/*.md page")


# User-facing API surfaces whose every public symbol must appear in docs.
DOCUMENTED_APIS = ["repro.serve", "repro.nn.inference", "repro.obs",
                   "repro.online"]


def api_symbols():
    pairs = []
    for module_name in DOCUMENTED_APIS:
        module = importlib.import_module(module_name)
        pairs.extend((module_name, symbol) for symbol in module.__all__)
    return pairs


@pytest.mark.parametrize("module_name,symbol", api_symbols(),
                         ids=[f"{m}.{s}" for m, s in api_symbols()])
class TestPublicSymbolsDocumented:
    """A symbol exported from a documented API without a docs mention is a
    docs bug: either document it or stop exporting it."""

    def test_symbol_mentioned_in_docs(self, module_name, symbol):
        assert any(symbol in text for text in
                   (p.read_text() for p in DOC_FILES)), (
            f"{module_name}.{symbol} is exported but never mentioned in "
            f"README.md or any docs/*.md page")


# Metric-name lint: every instrument name emitted by the serve tier
# (``self._counter("x")`` -> ``serve.x``), the online loop
# (``online.x``), or the trainer metrics sink (``self._name("x")`` ->
# ``trainer.x``) must appear in docs/observability.md — an operator
# grepping a dashboard name has to land somewhere.
SERVE_METRIC_CALL = re.compile(
    r"self\._(?:windowed_)?(?:counter|gauge|histogram)\(\s*f?\"([^\"]+)\"")
SINK_METRIC_CALL = re.compile(r"self\._name\(\s*\"([^\"]+)\"")


def emitted_metric_names():
    from repro.obs import TRACE_STAGES

    names = set()
    for source in sorted((REPO_ROOT / "src" / "repro" / "serve").glob("*.py")):
        for name in SERVE_METRIC_CALL.findall(source.read_text()):
            if "{stage}" in name:
                names.update(f"serve.{name.format(stage=stage)}"
                             for stage in TRACE_STAGES)
            else:
                names.add(f"serve.{name}")
    for source in sorted((REPO_ROOT / "src" / "repro" / "online").glob("*.py")):
        names.update(f"online.{name}"
                     for name in SERVE_METRIC_CALL.findall(source.read_text()))
    for source in sorted((REPO_ROOT / "src" / "repro" / "obs").glob("*.py")):
        names.update(f"trainer.{name}"
                     for name in SINK_METRIC_CALL.findall(source.read_text()))
    return sorted(names)


@pytest.mark.parametrize("metric", emitted_metric_names())
def test_metric_name_in_observability_docs(metric):
    text = (REPO_ROOT / "docs" / "observability.md").read_text()
    assert metric in text, (
        f"metric {metric!r} is emitted by the code but absent from "
        f"docs/observability.md")


def test_metric_extraction_found_the_core_metrics():
    # Canary: the regexes must keep matching the real emission sites
    # (a refactor that silently empties the lint would pass trivially).
    names = emitted_metric_names()
    assert "serve.latency_seconds" in names
    assert "serve.window.latency_seconds" in names
    assert "serve.stage.forward_seconds" in names
    assert "trainer.loss" in names
    assert "online.promotions_total" in names
    assert "serve.invalidation_evicted_total" in names
    assert "serve.assemble.degraded_total" in names


# Config surfaces: every tunable field of the serving config must be
# documented somewhere — an operator reading a config dataclass has to
# find each knob's meaning in the docs.
DOCUMENTED_CONFIGS = ["repro.serve.ServiceConfig"]


def config_fields():
    import dataclasses

    pairs = []
    for dotted in DOCUMENTED_CONFIGS:
        module_name, _, class_name = dotted.rpartition(".")
        cls = getattr(importlib.import_module(module_name), class_name)
        pairs.extend((dotted, field.name)
                     for field in dataclasses.fields(cls))
    return pairs


@pytest.mark.parametrize("config,field", config_fields(),
                         ids=[f"{c}.{f}" for c, f in config_fields()])
def test_config_field_documented(config, field):
    assert any(field in text for text in
               (p.read_text() for p in DOC_FILES)), (
        f"{config} field {field!r} is not mentioned in README.md or any "
        f"docs/*.md page")


def serving_table_fields():
    """Backticked field names in the first column of the ``docs/serving.md``
    configuration table (a row may name several: `a` / `b`)."""
    text = (REPO_ROOT / "docs" / "serving.md").read_text()
    section = text.split("## Configuration reference", 1)[1]
    section = section.split("\n## ", 1)[0]
    names = []
    for line in section.splitlines():
        cells = line.split("|")
        if len(cells) > 2 and line.startswith("|"):
            names.extend(re.findall(r"`(\w+)`", cells[1]))
    return names


def test_serving_table_names_only_real_fields():
    import dataclasses

    from repro.serve import ServiceConfig

    table = serving_table_fields()
    assert "context_users" in table and "export_path" in table  # canary
    real = {field.name for field in dataclasses.fields(ServiceConfig)}
    stale = [name for name in table if name not in real]
    assert not stale, (
        f"docs/serving.md configuration table lists {stale}, which are not "
        f"ServiceConfig fields")


def test_docs_readme_links_every_docs_page():
    """docs/README.md is the index: every docs/*.md page must be linked
    from it (and the links themselves resolve via TestLinksResolve)."""
    index = REPO_ROOT / "docs" / "README.md"
    assert index.is_file(), "docs/README.md index is missing"
    text = index.read_text()
    linked = {target.split("#", 1)[0] for target in MD_LINK.findall(text)}
    missing = [page.name for page in sorted((REPO_ROOT / "docs").glob("*.md"))
               if page.name != "README.md" and page.name not in linked]
    assert not missing, f"docs/README.md does not link {missing}"
