"""The two-thread moment kernel (padamp._kernels._in_halves) writes the bits of the one-piece path.

With SPLIT_ELEMENTS patched to 2 and the CPU and stall checks off, every
moment-kernel call of two or more elements is computed in two halves, the
second on the worker thread (or on the caller, when it finishes its half
first); the byte gates and the one-piece path must not see it.
"""

import gc
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
import warnings
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import padamp
import test_harness
import test_matrix
import test_optimizers
from padamp import _kernels
from padamp.core import HyperParams, ParamGroup, new_state, seeded_rng
from padamp.optimizers import make_step
from table_step import table_step

KINDS = ("padamp", "adamp", "padam", "adam", "amsgrad", "sgdm")


@pytest.fixture
def forced_split(monkeypatch):
    monkeypatch.setattr(_kernels, "SPLIT_ELEMENTS", 2)
    monkeypatch.setattr(_kernels, "_splits", lambda: True)


def _python(*argv, cwd=None):
    """sys.executable with these arguments, padamp's source first on PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(padamp.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *argv], cwd=cwd, env=env, capture_output=True,
                          text=True)


def _one_piece():
    return mock.patch.object(_kernels, "SPLIT_ELEMENTS", 1 << 62)


def test_behaviour_matrix_under_forced_split(forced_split, tmp_path):
    test_matrix.test_behaviour_matrix_matches_its_recording(tmp_path)


@pytest.mark.parametrize("name", list(test_harness._PINNED_TELEMETRY))
def test_pinned_digests_under_forced_split(forced_split, tmp_path, name):
    test_harness.test_telemetry_bytes_match_pinned_digests(tmp_path, name)


def _steps(kind, dims, p_now):
    """Four steps of kind on groups of these dims: the groups, the state's
    buffers and the table columns of each step."""
    rng = seeded_rng(dims)
    groups = [ParamGroup(f"g{i}", rng.standard_normal(d)) for i, d in enumerate(dims)]
    state = new_state(groups, HyperParams(weight_decay=0.01))
    out = []
    for _ in range(4):
        grads = {g.name: rng.standard_normal(g.dim) * 10.0 for g in groups}
        groups, cols = table_step(make_step(kind), state, groups, grads, 1e-2, p_now)
        out.append([g.values for g in groups])
        out.append(list(cols.values()))
    for buffers in (state.m, state.v, state.max_v, state.m_prev):
        out.append(list(buffers.values()))
    return [a.tobytes() for arrays in out for a in arrays]


@pytest.mark.parametrize("dims", [(3,), (7, 2), (101,)], ids=str)
@pytest.mark.parametrize("kind, p_now", [(k, None) for k in KINDS] + [("padamp", 0.125)])
def test_split_steps_at_odd_dims_match_the_one_piece_path(forced_split, kind, p_now, dims):
    # At odd d the halves are unequal: the worker's is one element longer.
    split = _steps(kind, dims, p_now)
    with _one_piece():
        assert _steps(kind, dims, p_now) == split


@settings(max_examples=150)
@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 301), st.booleans(), st.booleans(),
       st.one_of(st.just(0.5), st.just(0.25), st.floats(0.0, 0.5, exclude_min=True)),
       st.floats(-30.0, 30.0), st.sampled_from([None, np.nan, np.inf, -np.inf, 0.0]))
def test_split_kernel_calls_match_the_one_piece_path(seed, dim, use_max, power_eps, p,
                                                     log_scale, special):
    # From 100 elements numpy's pow takes its vector loop; at odd dim the
    # worker's half is one element longer.
    rng = seeded_rng(seed)
    scale = 2.0 ** log_scale
    m, g = rng.standard_normal((2, dim)) * scale
    v, max_v = rng.uniform(0.0, 1.0, (2, dim)) * scale * scale
    if special is not None:
        # A non-finite or zero entry in one of the inputs.
        x = [m, g, v, max_v][rng.integers(4)]
        x[rng.integers(dim)] = special
        assert any(np.logical_or.reduce(~np.isfinite(a) | (a == 0.0)) for a in (m, g, v, max_v))
    beta1t, beta2 = rng.uniform(0.0, 1.0, 2)
    found = []
    for threshold in (2, 1 << 62):
        state = [a.copy() for a in (m, v, max_v)]
        m_out = np.empty_like(m)
        with mock.patch.object(_kernels, "SPLIT_ELEMENTS", threshold), \
                mock.patch.object(_kernels, "_splits", lambda: True), \
                np.errstate(all="ignore"):
            d = _kernels.moment_direction(*state, g, beta1t, beta2, 0.1, 0.001, 1e-8, p,
                                          use_max, power_eps, m_out)
        found.append([a.tobytes() for a in (d, m_out, *state)])
    assert found[0] == found[1]


@pytest.mark.parametrize("hp, theta", [
    (HyperParams(weight_decay=0.0), -1e308),
    (HyperParams(weight_decay=10.0, wd_mode="coupled"), 1e308),
], ids=["update", "coupled_decay"])
def test_diverging_split_step_raises_without_a_warning(forced_split, hp, theta):
    # The worker's half overflows too, under the step's error state.
    test_optimizers.test_diverging_step_raises_without_a_warning(hp, theta)


@pytest.mark.parametrize("args", [
    ["--set", "schedule.eta0=1e308", "--set", "run.init_scale=100", "--steps", "3"],
    ["--set", "hp.wd_mode=coupled", "--set", "hp.weight_decay=1e307",
     "--set", "run.init_scale=100", "--steps", "3"],
], ids=["update", "coupled_decay"])
def test_diverging_split_run_prints_exactly_one_error_line(args, tmp_path):
    code = ("import sys; from padamp import _kernels; _kernels.SPLIT_ELEMENTS = 2; "
            "_kernels._splits = lambda: True; "
            "from padamp.cli import main; sys.exit(main(sys.argv[1:]))")
    proc = _python("-c", code, "run", *args, cwd=tmp_path)
    assert proc.returncode == 2
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), proc.stderr


def _on_the_worker(fn):
    """A body that calls fn on its second half, which it leaves to the worker:
    its first half waits until another thread has started the second. Also
    the list of the threads that ran fn."""
    started, ran_on = threading.Event(), []

    def body(s):
        if s.start == 0:
            assert started.wait(30)
        else:
            ran_on.append(threading.get_ident())
            started.set()
            fn(s)

    return body, ran_on


def test_the_worker_half_runs_under_the_callers_error_state():
    x = np.array([1.0, 1.0, 0.0])  # the zero is in the worker's half
    raising, ran_on = _on_the_worker(lambda s: np.divide(1.0, x[s]))
    with np.errstate(divide="raise"), pytest.raises(FloatingPointError, match="divide"):
        _kernels._in_halves(raising, 3)
    quiet, ran_too = _on_the_worker(lambda s: np.divide(1.0, x[s]))
    with np.errstate(divide="ignore"), warnings.catch_warnings():
        warnings.simplefilter("error")
        _kernels._in_halves(quiet, 3)
    assert len(ran_on + ran_too) == 2 and threading.get_ident() not in ran_on + ran_too


def test_a_split_call_returns_or_raises_only_once_both_halves_are_done():
    done = []

    def first_raises(s):
        if s.start == 0:
            raise ValueError("first half")
        time.sleep(0.05)
        done.append(s)

    with pytest.raises(ValueError, match="first half"):
        _kernels._in_halves(first_raises, 3)
    assert done == [slice(1, 3)]

    def second_raises(s):
        if s.start:
            raise KeyError("second half")
        done.append(s)

    with pytest.raises(KeyError, match="second half"):
        _kernels._in_halves(second_raises, 3)
    assert done[1:] == [slice(0, 1)]
    # A later call runs both halves.
    _kernels._in_halves(done.append, 4)
    assert sorted(done[2:], key=lambda s: s.start) == [slice(0, 2), slice(2, 4)]


def test_a_call_made_while_the_worker_is_busy_runs_both_halves_itself():
    # A call from inside the worker's half.
    inner = []
    nested, _ = _on_the_worker(lambda s: _kernels._in_halves(inner.append, 5))
    _kernels._in_halves(nested, 4)
    assert sorted(inner, key=lambda s: s.start) == [slice(0, 2), slice(2, 5)]

    # A call from this thread while the worker runs another thread's half.
    release = threading.Event()
    held, ran_on = _on_the_worker(lambda s: release.wait(30))
    other = threading.Thread(target=_kernels._in_halves, args=(held, 4))
    other.start()
    seen = []
    try:
        deadline = time.monotonic() + 30
        while not ran_on and time.monotonic() < deadline:
            time.sleep(0.001)
        _kernels._in_halves(lambda s: seen.append((s.start, threading.get_ident())), 6)
        assert other.is_alive()
    finally:
        release.set()
        other.join(30)
    me = threading.get_ident()
    assert sorted(seen) == [(0, me), (3, me)] and not other.is_alive()


def _writer(x):
    # The body holds x through this scope's cell, which the caller cannot clear.
    def body(s):
        x[s] += 1.0
    return body


def test_a_taken_back_half_holds_no_array_once_the_call_returns():
    # With the worker held by another thread's half, this thread takes its
    # second half back. The worker's queue keeps the taken-back half until the
    # worker is free; the half must not keep the call's array.
    release = threading.Event()
    held, ran_on = _on_the_worker(lambda s: release.wait(30))
    other = threading.Thread(target=_kernels._in_halves, args=(held, 4))
    other.start()
    try:
        deadline = time.monotonic() + 30
        while not ran_on and time.monotonic() < deadline:
            time.sleep(0.001)
        x = np.zeros(4)
        body, ref = _writer(x), weakref.ref(x)
        _kernels._in_halves(body, 4)
        assert x.tolist() == [1.0] * 4 and other.is_alive()
        del x, body
        gc.collect()
        assert ref() is None
    finally:
        release.set()
        other.join(30)
    assert not other.is_alive()


def _waits_in_halves(ident):
    """Whether thread ident is blocked in an _in_halves call's wait for the worker."""
    frame = sys._current_frames().get(ident)
    return frame is not None and frame.f_code is _kernels._Half.wait.__code__


@pytest.mark.skipif(not hasattr(signal, "pthread_kill"), reason="no pthread_kill")
def test_an_interrupted_wait_raises_only_once_the_workers_half_is_done(monkeypatch):
    # Ctrl-C while the caller waits for the worker's half: the half still
    # writes into the call's arrays, so the KeyboardInterrupt must wait for
    # it. _thread.interrupt_main() only sets the flag, which a thread blocked
    # on a lock reads once the lock is released; a real SIGINT wakes it. The
    # call is the first split, so it also starts the worker.
    monkeypatch.setattr(_kernels, "_jobs", None)
    main, started, finished = threading.get_ident(), threading.Event(), []

    def body(s):
        if s.start == 0:
            # Spins, so that the caller's only wait is _in_halves's own.
            deadline = time.monotonic() + 30
            while not started.is_set() and time.monotonic() < deadline:
                pass
            return
        started.set()
        deadline = time.monotonic() + 30
        while not _waits_in_halves(main) and time.monotonic() < deadline:
            time.sleep(0.001)
        signal.pthread_kill(main, signal.SIGINT)
        time.sleep(0.2)
        finished.append(s)

    assert threading.current_thread() is threading.main_thread()
    handler = signal.signal(signal.SIGINT, signal.default_int_handler)
    try:
        with pytest.raises(KeyboardInterrupt):
            _kernels._in_halves(body, 2)
        assert finished == [slice(1, 2)]
    finally:
        signal.signal(signal.SIGINT, handler)


@pytest.mark.parametrize("warm", [False, True], ids=["first_split_at_exit", "after_a_split"])
def test_a_split_call_at_interpreter_shutdown_returns_the_one_piece_bits(warm):
    # An atexit handler runs after threading._shutdown: a split call there,
    # the first of the process or not, must return the one-piece bits and
    # let the process exit.
    code = f"""
import atexit, hashlib
import numpy as np
from padamp import _kernels

def call():
    m, v, max_v, g = np.linspace(0.5, 2.0, 4 << 17).reshape(4, -1)
    d = _kernels.moment_direction(m, v, max_v, g, 0.9, 0.999, 0.1, 0.001, 1e-8, 0.25)
    return hashlib.sha256(d.tobytes() + m.tobytes() + v.tobytes()).hexdigest()

def at_exit():
    _kernels._skip = 0
    print(call(), _kernels._jobs is not None)

_kernels.SPLIT_ELEMENTS = 1 << 62
print(call())
_kernels.SPLIT_ELEMENTS = 1 << 16
_kernels._cpus = 2  # split even where this process may run on one CPU only
if {warm}:
    call()
    assert _kernels._jobs is not None
atexit.register(at_exit)
"""
    proc = _python("-c", code)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    want, got = proc.stdout.splitlines()
    assert got == f"{want} True"


def _moment(threshold):
    rng = seeded_rng(11)
    m, v, max_v, g = rng.standard_normal((4, 9))
    with mock.patch.object(_kernels, "SPLIT_ELEMENTS", threshold), \
            mock.patch.object(_kernels, "_cpus", 2):
        d = _kernels.moment_direction(m, np.abs(v), max_v, g, 0.9, 0.999, 0.1, 0.001,
                                      1e-8, 0.25)
    return d.tobytes() + m.tobytes()


def _split_in_child(want):
    # The child has none of its parent's threads; the fork handler dropped the
    # parent's worker, CPU count and pause, so the split call starts a worker.
    assert (_kernels._jobs, _kernels._cpus, _kernels._skip, _kernels._pause) == (None, None, 0, 1)
    assert _moment(2) == want
    assert _kernels._jobs is not None


def test_a_forked_child_starts_its_own_worker(monkeypatch):
    monkeypatch.setattr(_kernels, "_skip", 0)
    want = _moment(1 << 62)
    assert _moment(2) == want and _kernels._jobs is not None
    monkeypatch.setattr(_kernels, "_skip", 7)
    monkeypatch.setattr(_kernels, "_pause", 8)
    child = multiprocessing.get_context("fork").Process(target=_split_in_child, args=(want,))
    child.start()
    child.join(timeout=60)
    if child.is_alive():
        child.kill()
        child.join()
    assert child.exitcode == 0


def test_a_stall_runs_the_next_calls_in_one_piece(monkeypatch):
    # A half that sleeps blocks the caller 20 ms: a stall. The calls after a
    # stall run in one piece, twice as many after each stall up to
    # MAX_PAUSE, and a split call that computes 20 ms on the caller and
    # waits for nothing halves the pause.
    for name, value in (("_cpus", 2), ("_skip", 0), ("_pause", 1), ("MAX_PAUSE", 4)):
        monkeypatch.setattr(_kernels, name, value)

    def stalls(s):
        if s.start:
            time.sleep(0.02)

    def computes(s):
        if s.start == 0:
            end = time.thread_time() + 0.02
            while time.thread_time() < end:
                pass

    def splits(n):
        return [_kernels._splits() for _ in range(n)]

    assert splits(2) == [True, True]
    _kernels._in_halves(stalls, 4)
    assert splits(2) == [False, True]
    _kernels._in_halves(stalls, 4)
    assert splits(3) == [False, False, True]
    _kernels._in_halves(stalls, 4)
    _kernels._in_halves(stalls, 4)
    assert splits(5) == [False] * 4 + [True]
    _kernels._in_halves(computes, 4)
    assert _kernels._pause == 2
    _kernels._in_halves(stalls, 4)
    assert splits(3) == [False, False, True]


def test_a_process_on_one_cpu_starts_no_thread():
    if not hasattr(os, "sched_setaffinity"):
        pytest.skip("no sched_setaffinity on this platform")
    code = """
import os, threading
import numpy as np
from padamp import _kernels
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
m, v, max_v, g = np.ones((4, 2 * _kernels.SPLIT_ELEMENTS))
_kernels.moment_direction(m, v, max_v, g, 0.9, 0.999, 0.1, 0.001, 1e-8, 0.25)
assert _kernels._cpus == 1 and _kernels._jobs is None and threading.active_count() == 1
"""
    proc = _python("-c", code)
    assert proc.returncode == 0, proc.stderr


def test_a_small_run_starts_no_thread_and_imports_nothing_more():
    # Below SPLIT_ELEMENTS nothing is split, so the worker never starts.
    code = """
import sys, threading
from padamp import _kernels
from padamp.harness import build_config, run
run(build_config({}, {"objective.dim": "20", "run.steps": "50"}))
assert _kernels._jobs is None and threading.active_count() == 1
assert not {m for m in sys.modules if m.startswith(("queue", "concurrent"))}
"""
    proc = _python("-c", code)
    assert proc.returncode == 0, proc.stderr
