"""Static guard: every HIRE fit under ``benchmarks/`` goes through the runner.

``repro.experiments.runner``'s fit plan trains each distinct HIRE once per
process and shares it across scenarios and benchmark files.  A benchmark
that built its own ``HIRE``, ``HIREModel`` or ``HIRETrainer``, or its own
sweep settings, would train outside the plan.  Tokenising (rather than
grepping) keeps docstrings and comments from tripping the guard.
"""

import tokenize
from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"

CONSTRUCTORS = {"HIRE", "HIREModel", "HIRETrainer"}


def _offences(path: Path) -> list[str]:
    with tokenize.open(path) as handle:
        tokens = [t for t in tokenize.generate_tokens(handle.readline)
                  if t.type in (tokenize.NAME, tokenize.OP)]
    found = []
    for token, following in zip(tokens, tokens[1:] + [None]):
        if token.type != tokenize.NAME:
            continue
        calls = following is not None and following.string == "("
        if token.string == "_sweep_settings" or (calls and token.string in CONSTRUCTORS):
            found.append(f"{path.name}:{token.start[0]}: {token.string}")
    return found


def test_benchmarks_fit_hire_only_through_the_runner():
    files = sorted(BENCHMARKS.glob("*.py"))
    assert files, f"no benchmark files under {BENCHMARKS}"
    offences = [o for path in files for o in _offences(path)]
    assert not offences, (
        "benchmarks must call runner functions, whose fit plan trains each "
        "HIRE once:\n  " + "\n  ".join(offences))


def test_guard_flags_a_direct_fit(tmp_path):
    bench = tmp_path / "bench_direct.py"
    bench.write_text("model = HIRE(dataset, config)\n"
                     "HIRETrainer(model, split).fit()\n"
                     "from repro.experiments.runner import _sweep_settings\n"
                     "# HIREModel( in a comment is fine\n")
    assert [o.split(": ")[1] for o in _offences(bench)] == [
        "HIRE", "HIRETrainer", "_sweep_settings"]
