import subprocess
import sys

from conftest import DATA, REPO


def test_generator_reproduces_the_bundled_data(tmp_path):
    subprocess.run([sys.executable, str(REPO / "scripts" / "make_mini_corpus.py"),
                    "--data-dir", str(tmp_path)], check=True, capture_output=True)
    written = sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*") if p.is_file())
    bundled = sorted(p.relative_to(DATA) for p in DATA.rglob("*") if p.is_file())
    assert written == bundled
    for name in bundled:
        assert (tmp_path / name).read_bytes() == (DATA / name).read_bytes(), name
