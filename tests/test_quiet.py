"""The library writes nothing to stdout or stderr and registers no exit
hooks: a caller (the CLI, a benchmark reading the last line of stdout)
owns its process's output and shutdown."""

import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pihall
from pihall import hall, structure, zoo
from pihall.arith import PiSet
from pihall.example_gl52 import run_example
from pihall.reduction import cpi_reduce
from pihall.structure import derived_subgroup
from pihall.suites import run_corpus
from test_pinned_answers import CORPUS_PAIRS


def test_library_calls_print_nothing():
    hall._classify_cache.clear()
    structure._table_cache.clear()
    pi = PiSet.parse("2,3")
    entries = [e for e in zoo.corpus_manifest()
               if (e["name"], e["pi"]) in CORPUS_PAIRS]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        hall.classify_ECD(zoo.build_named("gl3_2"), pi)
        cpi_reduce(zoo.build_named("sym5"), pi)
        S5 = zoo.build_named("sym5")
        hall.k_induced(S5, derived_subgroup(S5), pi)
        run_corpus(entries=entries)
        run_example()
    assert (out.getvalue(), err.getvalue()) == ("", "")


def test_imports_register_no_exit_hooks():
    src = str(Path(pihall.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import atexit, importlib, pkgutil\n"
            "before = atexit._ncallbacks()\n"
            "import pihall\n"
            "for m in pkgutil.iter_modules(pihall.__path__):\n"
            "    importlib.import_module('pihall.' + m.name)\n"
            "print(atexit._ncallbacks() - before)\n")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0\n", "")
