import ast
import sys
from pathlib import Path

import intervalgames

SOURCE = Path(__file__).resolve().parents[1] / "src" / "intervalgames"


def test_every_exported_name_resolves():
    names = intervalgames.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(intervalgames, name)]
    assert missing == []


def test_star_import_is_clean():
    namespace = {}
    exec("from intervalgames import *", namespace)
    assert set(intervalgames.__all__) <= set(namespace)


def test_runtime_imports_only_the_standard_library():
    modules = sorted(SOURCE.glob("*.py"))
    assert modules
    outside = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [(path.name, name) for name in names if name.split(".")[0] not in sys.stdlib_module_names]
    assert outside == []


def test_the_benchmark_reads_the_verdict_cache_through_the_cli():
    # perfbench reads both after every op; its own tests are not part of
    # this suite, so a refactor that dropped either would show only as a
    # failed benchmark run
    from intervalgames import classes, cli

    assert isinstance(classes.check_classical.cache_info().hits, int)
    assert cli.check_classical is classes.check_classical
