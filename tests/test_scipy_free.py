"""termforge runs on numpy alone; scipy is only a test oracle.  Within numpy,
a run loads nothing beyond what importing termforge loads.  The checks run
in a fresh interpreter, since the test suite itself imports scipy and more
of numpy."""
import json
import os
import subprocess
import sys
from pathlib import Path

import termforge
from termforge.matrices import REPRESENTATIONS

SRC = Path(termforge.__file__).resolve().parent.parent
REPO = Path(__file__).resolve().parent.parent


def run_python(code: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-c", code, *args], cwd=REPO, env=env,
                          capture_output=True, text=True, timeout=300)


def test_importing_termforge_loads_no_scipy():
    done = run_python(
        "import importlib, pkgutil, sys, termforge, termforge.cli\n"
        "for module in pkgutil.iter_modules(termforge.__path__):\n"
        "    importlib.import_module('termforge.' + module.name)\n"
        "print(sorted(k for k in sys.modules if k == 'scipy' or k.startswith('scipy.')))")
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def quick_start(out: Path) -> tuple[str, ...]:
    """The README quick start's arguments, writing to out."""
    return ("pipeline", "--corpus", "data/mini/corpus.conllu",
            "--gold", "data/mini/gold.tsv", "--out", str(out),
            "--sigma1", "2", "--sigma2", "0.5", "--k-min", "2", "--k-max", "10",
            "--reps", "3", "--seed", "7",
            "--nmf-rank", "10", "--w2v-dim", "32", "--w2v-epochs", "3")


def test_a_run_loads_no_numpy_module_beyond_the_imports(tmp_path):
    # numpy.ma cost about 1 MiB of RSS when np.median loaded it; a submodule
    # first loaded mid-run is a lazy import that a later change may make heavier
    done = run_python(
        "import importlib, pkgutil, sys, termforge, termforge.cli\n"
        "for module in pkgutil.iter_modules(termforge.__path__):\n"
        "    importlib.import_module('termforge.' + module.name)\n"
        "def numpy_modules():\n"
        "    return {k for k in sys.modules if k == 'numpy' or k.startswith('numpy.')}\n"
        "imported = numpy_modules()\n"
        "status = termforge.cli.main(sys.argv[1:])\n"
        "print(status, 'numpy.ma' in numpy_modules(), sorted(numpy_modules() - imported))",
        *quick_start(tmp_path / "mini_run"))
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "0 False []"


def test_pipeline_runs_with_scipy_blocked(tmp_path):
    out = tmp_path / "mini_run"
    done = run_python(
        "import sys\n"
        "sys.modules['scipy'] = None   # any scipy import now raises ImportError\n"
        "from termforge.cli import main\n"
        "sys.exit(main(sys.argv[1:]))",
        *quick_start(out))
    assert done.returncode == 0, done.stderr
    names = {p.name for p in out.iterdir()}
    expected = {"couples.tsv", "np_vpc.mtx", "np_vpc.mtx.rows", "np_vpc.mtx.cols",
                "np_vpc_tfidf.mtx", "np_vpc_tfidf.mtx.rows", "np_vpc_tfidf.mtx.cols",
                "embeddings.txt", "report.csv", "manifest.json",
                "rep_NP_VPC_NMF.txt", "rep_NP_w2v.txt"}
    for rep in REPRESENTATIONS:
        expected |= {f"curves_{rep}.csv", f"repetitions_{rep}.csv",
                     f"ap_{rep}.csv", f"ap_{rep}.csv.meta.json"}
    assert names == expected
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest["artifacts"]) | {"manifest.json"} == names
    assert all((out / name).stat().st_size > 0 for name in names)
