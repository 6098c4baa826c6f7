"""``eval`` and ``verify`` spread large grids over forked workers
(``cli._map_points``): the output, the exit code and the message of the first
bad point are those of the one-process loop, and no child outlives a call."""

import errno
import hashlib
import math
import os
import random
import time

import pytest

from semiconformal import cli
from semiconformal.cli import main

AXIS_MESSAGE = "error: phi is singular on the z-axis for q = 1\n"


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def use_cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def count_forks(monkeypatch) -> list:
    forks, real_fork = [], os.fork

    def fork():
        forks.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    return forks


def refuse_forks(monkeypatch):
    def fork():
        raise AssertionError("os.fork was called")

    monkeypatch.setattr(os, "fork", fork)


def write_grid(path, n, axis_at=None, seed=3, far_at=None):
    """n random points of the unit region; the z-axis point (0, 0, 0.1) at
    index ``axis_at``, and at ``far_at`` a point (1e30, 1e30, 0.1) where an
    order-12 series overflows."""
    rng = random.Random(seed)
    lines = ["x,y,z"]
    for i in range(n):
        if i in (axis_at, far_at):
            lines.append("0.0,0.0,0.1" if i == axis_at else "1e+30,1e+30,0.1")
            continue
        r, theta = math.sqrt(2 * rng.uniform(0.001, 0.1)), rng.uniform(0, 2 * math.pi)
        lines.append(f"{r * math.cos(theta)!r},{r * math.sin(theta)!r},{rng.uniform(-0.3, 0.3)!r}")
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.fixture(scope="module")
def series(tmp_path_factory):
    """Float series solved by the CLI, q -> path."""
    root = tmp_path_factory.mktemp("series")
    paths = {}
    for q in (0, 1):
        boundary, out = root / f"bd{q}.json", root / f"psi{q}.json"
        boundary.write_text(f'{{"q": {q}, "order": 12, "data": [["1", "0"], ["0", "1"]]}}')
        assert main(["solve", "--input", str(boundary), "--out", str(out),
                     "--mode", "float"]) == 0
        paths[q] = out
    return paths


def run(command, series_path, q, grid, out):
    if out.exists():
        out.unlink()
    code = main([command, "--input", str(series_path), "--q", str(q),
                 "--grid", str(grid), "--out", str(out)])
    return code, out.read_bytes() if out.exists() else None


@pytest.mark.parametrize("command", ["eval", "verify"])
def test_output_is_the_same_on_one_cpu_and_on_several(tmp_path, monkeypatch, series,
                                                      capsys, command):
    grid, out = write_grid(tmp_path / "grid.csv", 300), tmp_path / "out"
    unpatched = run(command, series[0], 0, grid, out)
    use_cpus(monkeypatch, 1)
    one = run(command, series[0], 0, grid, out)
    use_cpus(monkeypatch, 3)
    forks = count_forks(monkeypatch)
    three = run(command, series[0], 0, grid, out)
    assert len(forks) == 2
    assert one[0] == 0 and one[1]
    assert unpatched == one == three
    capsys.readouterr()
    assert_no_children()


@pytest.mark.parametrize("command", ["eval", "verify"])
def test_one_cpu_and_small_grids_never_fork(tmp_path, monkeypatch, series, command):
    refuse_forks(monkeypatch)
    out = tmp_path / "out"
    for n in (16, 25):
        assert run(command, series[0], 0, write_grid(tmp_path / f"g{n}.csv", n), out)[0] == 0
    use_cpus(monkeypatch, 1)
    assert run(command, series[0], 0, write_grid(tmp_path / "g300.csv", 300), out)[0] == 0
    assert_no_children()


@pytest.mark.parametrize("axis_at", [250, 3], ids=["child-chunk", "parent-chunk"])
@pytest.mark.parametrize("command", ["eval", "verify"])
def test_the_first_bad_point_fails_as_in_one_process(tmp_path, monkeypatch, series,
                                                     capsys, command, axis_at):
    grid, out = write_grid(tmp_path / "grid.csv", 300, axis_at=axis_at), tmp_path / "out"
    use_cpus(monkeypatch, 1)
    assert run(command, series[1], 1, grid, out) == (2, None)
    assert capsys.readouterr().err == AXIS_MESSAGE
    use_cpus(monkeypatch, 3)
    forks = count_forks(monkeypatch)
    assert run(command, series[1], 1, grid, out) == (2, None)
    assert capsys.readouterr().err == AXIS_MESSAGE
    assert len(forks) == 2
    assert_no_children()


@pytest.mark.parametrize("command", ["eval", "verify"])
def test_a_non_finite_point_in_a_child_chunk_fails_as_in_one_process(tmp_path, monkeypatch,
                                                                     series, capsys, command):
    grid, out = write_grid(tmp_path / "grid.csv", 200, far_at=150), tmp_path / "out"
    use_cpus(monkeypatch, 1)
    assert run(command, series[0], 0, grid, out) == (2, None)
    err = capsys.readouterr().err
    assert err.startswith("error: non-finite ") and "(1e+30, 1e+30, 0.1)" in err
    use_cpus(monkeypatch, 2)
    forks = count_forks(monkeypatch)
    assert run(command, series[0], 0, grid, out) == (2, None)
    assert capsys.readouterr().err == err
    assert len(forks) == 1
    assert_no_children()


def test_a_failed_fork_leaves_the_work_to_the_parent(tmp_path, monkeypatch, series):
    grid, out = write_grid(tmp_path / "grid.csv", 300), tmp_path / "out"
    want = run("eval", series[0], 0, grid, out)

    def fork():
        raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

    use_cpus(monkeypatch, 3)
    monkeypatch.setattr(os, "fork", fork)
    assert run("eval", series[0], 0, grid, out) == want
    assert_no_children()


def test_chunks_are_contiguous_and_in_order(monkeypatch):
    use_cpus(monkeypatch, 3)
    results = cli._map_points(lambda p: (p, os.getpid()), list(range(300)))
    assert [p for p, _ in results] == list(range(300))
    pids = [pid for _, pid in results]
    assert pids[:100] == [os.getpid()] * 100
    assert len(set(pids[100:200])) == len(set(pids[200:])) == 1
    assert len(set(pids)) == 3
    assert_no_children()


def test_an_interrupt_in_the_parent_kills_the_children(monkeypatch):
    def f(p):
        if p == 3:
            raise KeyboardInterrupt
        if p >= 100:  # the children's chunks: 200 points of 50 ms
            time.sleep(0.05)
        return p

    use_cpus(monkeypatch, 3)
    start = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        cli._map_points(f, list(range(300)))
    assert time.perf_counter() - start < 3.0
    assert_no_children()


def test_children_leave_without_flushing_the_parent_buffers(tmp_path, monkeypatch):
    def f(p):
        if p == 250:
            raise ValueError("bad point")
        return p

    use_cpus(monkeypatch, 3)
    path = tmp_path / "buffered.txt"
    with open(path, "w") as handle:
        handle.write("parent\n")  # still in the buffer while the children run
        assert cli._map_points(lambda p: p, list(range(300))) == list(range(300))
        with pytest.raises(ValueError, match="bad point"):
            cli._map_points(f, list(range(300)))
    assert path.read_text() == "parent\n"
    assert_no_children()


# SHA-256 of ``eval --out`` and ``verify --out`` for a float order-30 q=0
# series on a seeded 200-point grid, computed on three forked workers.
# Pinned while every row and column value was a complex Horner pass; a pass
# over the parts that changes any printed digit breaks them.
FORKED_OUTPUT_SHA256 = {
    "eval": "9c2d409e40e8854ed0c63bb52ec6cbd5298a8777b081756d80ecfac5dde0ee30",
    "verify": "933b4e94dac2ce6891193be30a8b68b512b316b3f1b46802ff3a7f4de65b111c",
}


def write_plain_grid(path, n, seed):
    """n seeded points with u <= 0.04 and |z| <= 0.3, each coordinate one
    ``random.uniform`` draw, so the file is the same on every platform."""
    rng = random.Random(seed)
    rows = [f"{rng.uniform(-0.2, 0.2)!r},{rng.uniform(-0.2, 0.2)!r},{rng.uniform(-0.3, 0.3)!r}"
            for _ in range(n)]
    path.write_text("\n".join(["x,y,z", *rows]) + "\n")
    return path


@pytest.mark.parametrize("command", sorted(FORKED_OUTPUT_SHA256))
def test_forked_float_order30_outputs_are_pinned(tmp_path, monkeypatch, capsys, command):
    boundary, coeffs = tmp_path / "bd.json", tmp_path / "psi.json"
    boundary.write_text('{"q": 0, "order": 30, "data": [["1", "0"], ["0.5", "1"]]}')
    assert main(["solve", "--input", str(boundary), "--out", str(coeffs),
                 "--mode", "float"]) == 0
    grid = write_plain_grid(tmp_path / "grid.csv", 200, seed=37)
    use_cpus(monkeypatch, 3)
    forks = count_forks(monkeypatch)
    code, data = run(command, coeffs, 0, grid, tmp_path / "out")
    assert code == 0 and len(forks) == 2
    assert hashlib.sha256(data).hexdigest() == FORKED_OUTPUT_SHA256[command]
    assert_no_children()
