import multiprocessing
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from auxnas.data import SyntheticDataset, gen_synthetic  # noqa: E402


@pytest.fixture(scope="session")
def std_ds(tmp_path_factory):
    """The standard synthetic 2-task set: 1024 train / 256 val at 32x32."""
    root = tmp_path_factory.mktemp("stdset") / "std"
    gen_synthetic(str(root), seed=100, n=1344, h=32, w=32, k=5, val_n=256, test_n=64)
    return SyntheticDataset(str(root))


@pytest.fixture(scope="module")
def tiny_ds(tmp_path_factory):
    """24 samples at 16x16: 16 train, 6 val, 2 test."""
    root = tmp_path_factory.mktemp("data") / "tiny"
    gen_synthetic(str(root), seed=3, n=24, h=16, w=16, val_n=6, test_n=2)
    return SyntheticDataset(str(root))


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process running, and stop the child."""
    yield
    alive = multiprocessing.active_children()
    for child in alive:
        child.terminate()
        child.join(10)
    assert not alive, f"child processes still running after the test: {alive}"
