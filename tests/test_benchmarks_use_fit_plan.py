"""Static guard: every benchmark runs its artifact through the registry.

``repro.experiments.runner``'s fit plan trains each distinct HIRE once per
process and shares it across scenarios and benchmark files.  A benchmark
that built its own ``HIRE``, ``HIREModel`` or ``HIRETrainer``, or its own
sweep settings, would train outside the plan.  One that passed its own
``max_tasks=`` or called a ``render_*`` function would score or write its
artifact differently from ``cli run``; the registry (``EXPERIMENTS``,
``run_experiment``, ``render_artifact`` behind the ``save`` fixture) holds
both.  Tokenising (rather than grepping) keeps docstrings and comments from
tripping the guard.
"""

import tokenize
from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"

CONSTRUCTORS = {"HIRE", "HIREModel", "HIRETrainer"}


def _offences(path: Path) -> list[str]:
    with tokenize.open(path) as handle:
        tokens = [t for t in tokenize.generate_tokens(handle.readline)
                  if t.type in (tokenize.NAME, tokenize.OP)]
    # The ``save`` fixture in conftest.py is the one caller of render_artifact.
    may_render = path.name == "conftest.py"
    found = []
    for token, following in zip(tokens, tokens[1:] + [None]):
        if token.type != tokenize.NAME:
            continue
        after = following.string if following is not None else ""
        if (token.string == "_sweep_settings"
                or (after == "(" and token.string in CONSTRUCTORS)
                or (after == "(" and token.string.startswith("render_")
                    and not may_render)
                or (after == "=" and token.string == "max_tasks")):
            found.append(f"{path.name}:{token.start[0]}: {token.string}")
    return found


def test_benchmarks_fit_hire_only_through_the_runner():
    files = sorted(BENCHMARKS.glob("*.py"))
    assert files, f"no benchmark files under {BENCHMARKS}"
    offences = [o for path in files for o in _offences(path)]
    assert not offences, (
        "benchmarks must run and save their artifact through the registry, "
        "whose fit plan trains each HIRE once:\n  " + "\n  ".join(offences))


def test_guard_flags_a_direct_fit(tmp_path):
    bench = tmp_path / "bench_direct.py"
    bench.write_text("model = HIRE(dataset, config)\n"
                     "HIRETrainer(model, split).fit()\n"
                     "from repro.experiments.runner import _sweep_settings\n"
                     "# HIREModel( in a comment is fine\n")
    assert [o.split(": ")[1] for o in _offences(bench)] == [
        "HIRE", "HIRETrainer", "_sweep_settings"]


def test_guard_flags_a_task_count_and_a_renderer(tmp_path):
    bench = tmp_path / "bench_own_protocol.py"
    bench.write_text("rows = run_ablation(scale='fast', max_tasks=5)\n"
                     "save('table6', render_ablation_table(rows))\n"
                     "# render_artifact( and max_tasks= in a comment are fine\n"
                     "assert rows[0]['max_tasks'] == 5\n")
    assert [o.split(": ")[1] for o in _offences(bench)] == [
        "max_tasks", "render_ablation_table"]
