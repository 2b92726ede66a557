"""Docs lint: every link and code reference in README.md, EXPERIMENTS.md
and docs/*.md must resolve, and every repro subpackage must be documented.

Static checks only (no network, no execution of examples):

* relative markdown links point at files that exist;
* backticked repo paths (``tests/...``, ``docs/...``, ``src/...``,
  ``benchmarks/...``, ``examples/...``, ``tools/...``, ``results/...``,
  ``bench/...``) and root ``BENCH_*.json`` files exist;
* dotted ``repro.*`` references import (attribute tails resolved with
  ``getattr`` walks);
* every package/module directly under ``src/repro`` has a module
  docstring and is mentioned in at least one docs page;
* every public symbol (``__all__``) of the serving and inference-engine
  APIs is mentioned in at least one docs page;
* every field of the five configs (serving, training, fine-tuning, gate,
  online loop) is documented, every field a configuration table names is
  a real field, and each table's default column equals the config's
  defaults.
"""

import ast
import dataclasses
import importlib
import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
DOC_FILES = sorted([REPO_ROOT / "README.md",
                    *(REPO_ROOT / "docs").glob("*.md")])
# Links and references resolve in the experiment log too; the "documented
# somewhere" checks below still need README.md or a docs/*.md page.
LINKED_FILES = sorted([*DOC_FILES, REPO_ROOT / "EXPERIMENTS.md"])

# [text](target) — excluding images; target split from any #fragment.
MD_LINK = re.compile(r"(?<!\!)\[[^\]]+\]\(([^)\s]+)\)")
# `tests/foo/bar.py` / `docs/x.md` / `src/...` style backticked paths.
CODE_PATH = re.compile(
    r"`((?:tests|docs|src|benchmarks|examples|tools|results|bench)/[\w./-]+)"
    r"(?:::[\w:\[\]-]+)?`")
# `BENCH_<name>.json` — a benchmark file at the repo root.
BENCH_FILE = re.compile(r"`(BENCH_\w+\.json)`")
# Dotted module/attribute references: `repro.core.task_chunk_rng`, ...
DOTTED_REF = re.compile(r"\brepro(?:\.\w+)+")


def doc_ids():
    return [path.relative_to(REPO_ROOT).as_posix() for path in LINKED_FILES]


@pytest.fixture(params=LINKED_FILES, ids=doc_ids())
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
        refs = CODE_PATH.findall(text) + BENCH_FILE.findall(text)
        missing = [ref for ref in refs if not (REPO_ROOT / ref).exists()]
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
# (``online.x``), the trainer metrics sink (``self._name("x")`` ->
# ``trainer.x``) or the inference engine (``registry.counter("infer.x")``)
# must appear in docs/observability.md — an operator grepping a dashboard
# name has to land somewhere.
SERVE_METRIC_CALL = re.compile(
    r"self\._(?:windowed_)?(?:counter|gauge|histogram)\(\s*f?\"([^\"]+)\"")
SINK_METRIC_CALL = re.compile(r"self\._name\(\s*\"([^\"]+)\"")
INFER_METRIC_CALL = re.compile(
    r"\.(?:counter|gauge|histogram)\(\s*\"(infer\.[^\"]+)\"")


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
    engine = REPO_ROOT / "src" / "repro" / "nn" / "inference.py"
    names.update(INFER_METRIC_CALL.findall(engine.read_text()))
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
    assert {"infer.plan_cache.hit", "infer.plan_cache.miss",
            "infer.workspace_bytes"} <= set(names)


# Config surfaces: every tunable field of a config must be documented
# in its reference table — an operator reading a config dataclass has to
# find each knob's meaning, and who changes it, in the docs.  Each config
# maps to the docs page and heading whose table lists it.
DOCUMENTED_CONFIGS = {
    "repro.serve.ServiceConfig": ("serving.md", "## Configuration reference"),
    "repro.core.TrainerConfig": ("training_pipeline.md",
                                 "## Configuration reference"),
    "repro.online.FineTuneConfig": ("online_learning.md",
                                    "### `FineTuneConfig`"),
    "repro.online.GateConfig": ("online_learning.md", "### `GateConfig`"),
    "repro.online.OnlineConfig": ("online_learning.md", "### `OnlineConfig`"),
}


def config_class(dotted):
    module_name, _, class_name = dotted.rpartition(".")
    return getattr(importlib.import_module(module_name), class_name)


def config_fields():
    return [(dotted, field.name) for dotted in DOCUMENTED_CONFIGS
            for field in dataclasses.fields(config_class(dotted))]


@pytest.mark.parametrize("config,field", config_fields(),
                         ids=[f"{c}.{f}" for c, f in config_fields()])
def test_config_field_documented(config, field):
    assert any(field in text for text in
               (p.read_text() for p in DOC_FILES)), (
        f"{config} field {field!r} is not mentioned in README.md or any "
        f"docs/*.md page")


def config_table_rows(dotted):
    """``(field, default)`` pairs from a config's reference table: the
    table under its heading, up to the next heading, with backticked names
    in the first column and backticked defaults in the second (a row may
    name several: `a` / `b` with `1` / `2`)."""
    page, heading = DOCUMENTED_CONFIGS[dotted]
    text = (REPO_ROOT / "docs" / page).read_text()
    section = text.split("\n" + heading + "\n", 1)[1]
    section = section.split("\n#", 1)[0]
    rows = []
    for line in section.splitlines():
        cells = line.split("|")
        if len(cells) > 2 and line.startswith("|"):
            names = re.findall(r"`(\w+)`", cells[1])
            defaults = [part.strip().strip("`")
                        for part in cells[2].split(" / ")]
            if len(defaults) != len(names):
                defaults = [None] * len(names)  # unpaired: reads as stale
            rows.extend(zip(names, defaults))
    return rows


def check_table_names_only_real_fields(dotted):
    table = [name for name, _ in config_table_rows(dotted)]
    real = {field.name for field in dataclasses.fields(config_class(dotted))}
    stale = [name for name in table if name not in real]
    assert not stale, (
        f"the {dotted} configuration table lists {stale}, which are not "
        f"its fields")


def check_table_defaults_match_config(dotted):
    """The default column is what the config really holds: a stale
    default there misleads an operator more than a missing row."""
    cls = config_class(dotted)
    rows = config_table_rows(dotted)
    assert len(rows) == len(dataclasses.fields(cls))  # one row per field
    defaults = cls()
    stale = [(name, documented) for name, documented in rows
             if documented is None
             or ast.literal_eval(documented) != getattr(defaults, name)]
    assert not stale, (
        f"the {dotted} configuration table defaults {stale} differ from "
        f"{cls.__name__}()")


def test_serving_table_names_only_real_fields():
    table = [name for name, _ in config_table_rows("repro.serve.ServiceConfig")]
    assert "context_users" in table and "export_path" in table  # canary
    check_table_names_only_real_fields("repro.serve.ServiceConfig")


def test_serving_table_defaults_match_service_config():
    check_table_defaults_match_config("repro.serve.ServiceConfig")


OTHER_CONFIGS = [name for name in DOCUMENTED_CONFIGS
                 if name != "repro.serve.ServiceConfig"]


@pytest.mark.parametrize("config", OTHER_CONFIGS)
def test_config_table_names_only_real_fields(config):
    check_table_names_only_real_fields(config)


@pytest.mark.parametrize("config", OTHER_CONFIGS)
def test_config_table_defaults_match_config(config):
    check_table_defaults_match_config(config)


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
