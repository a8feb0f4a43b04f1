import inspect
import re
from pathlib import Path

import nbsmell as nb

ROOT = Path(__file__).resolve().parent.parent

# what the CLI, bench/*.py and README use of the package namespace
PUBLIC = {
    "CoverageEngine", "RunResult", "StepRecord", "run_coverage", "uncoverable_cells",
    "Cell", "CellState", "GridMap", "MapFormatError", "Pose",
    "parse_map", "serialize_map", "generate_map", "generate_random_grid", "shipped_map",
    "coverage_ratio", "shortest_distances", "SensorModel",
    "NAMED_CONFIGS", "WeightConfig", "FuzzyMeasure", "InvalidConfigError",
}


def exported():
    """The public non-module names of the package namespace."""
    return {name for name, value in vars(nb).items()
            if not name.startswith("_") and not inspect.ismodule(value)}


def readme_section(title):
    text = (ROOT / "README.md").read_text()
    return text.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def test_package_exports_exactly_the_public_surface():
    assert exported() == PUBLIC


def test_every_package_name_the_benchmark_reads_is_public():
    text = "\n".join(path.read_text() for path in sorted((ROOT / "bench").glob("*.py")))
    read = {name for name in re.findall(r"\bnb\.([A-Za-z_]\w*)", text)
            if not name.startswith("__") and not inspect.ismodule(getattr(nb, name, None))}
    assert read and read <= PUBLIC, read - PUBLIC


def test_readme_lists_the_public_surface():
    assert set(re.findall(r"`(\w+)`", readme_section("Public API"))) >= PUBLIC


def test_readme_quick_start_runs_as_written(tmp_path, monkeypatch, capsys):
    code = re.search(r"```python\n(.*?)```", readme_section("Quick start"), re.S)[1]
    (tmp_path / "map.txt").write_text(nb.serialize_map(nb.shipped_map("corridor")))
    monkeypatch.chdir(tmp_path)
    exec(compile(code, "README.md", "exec"), {})
    ops, total, satisfied = capsys.readouterr().out.split()
    assert int(ops) > 0 and float(total) > 0 and satisfied in ("True", "False")
