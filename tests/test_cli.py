import argparse
import errno
import hashlib
import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from detlinks import cache as cache_module
from detlinks import cli, polar
from detlinks import links as links_mod
from detlinks.cache import CacheFile, cache_dir, cache_load, cache_path, cache_store
from detlinks.cli import main
from detlinks.links import (
    DetSpec,
    betti_smooth_complex_link,
    euler_complex_link,
    hilbert_burch_chi_table,
)
from detlinks.polar import PolarProfile, compute_polar_profile

EXPECTED_OUTPUTS = Path(__file__).resolve().parents[1] / "perfbench" / "expected.json"


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("DETLINKS_CACHE", str(tmp_path))
    return tmp_path


@pytest.fixture
def parses(monkeypatch):
    """The keys of the entries the cache parser reads, in order."""
    seen = []
    parse = cache_module._parse_entry

    def spy(key, raw):
        seen.append(key)
        return parse(key, raw)

    monkeypatch.setattr(cache_module, "_parse_entry", spy)
    return seen


def json_text(entries: dict) -> str:
    """The cache file text as json writes it: the oracle of cache._file_text."""
    payload = {
        "version": cache_module.CACHE_VERSION,
        "entries": {key: {"values": [str(v) for v in prof.values]}
                    for key, prof in entries.items()},
    }
    return json.dumps(payload, indent=1, sort_keys=True) + "\n"


def edit_keeping_every_closed_form(values: list):
    """Add (1, 2, 1) at k = 1..3 of a list of value strings, and at
    k = kappa - 3..kappa - 1 as well when the values k <= kappa read the same
    backwards (a self-dual rank): the degree, the alternating sum, its first
    moment, the palindrome and, when kappa >= 3, the nonzero range stay as
    they were.  The mirrored edit keeps the sum and the moment because kappa
    is even."""
    kappa = max(k for k, v in enumerate(values) if v != "0")
    edits = [(1, 1), (2, 2), (3, 1)]
    if values[:kappa + 1] == values[kappa::-1]:
        edits += [(kappa - k, d) for k, d in edits]
    for k, d in edits:
        values[k] = str(int(values[k]) + d)


def child_env(unbuffered: bool, **extra) -> dict:
    """The environment of a ``detlinks.cli`` child process: this checkout's
    src on PYTHONPATH, ``extra``, and PYTHONUNBUFFERED set only if
    ``unbuffered``, whatever the caller exports."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src), **extra)
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class InlinePool:
    """Stands in for ProcessPoolExecutor: maps in this process and records
    the size of each pool opened in ``sizes``."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


@pytest.fixture
def inline_pool(monkeypatch):
    monkeypatch.setattr(InlinePool, "sizes", [])
    # pool sizes independent of the machine
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", InlinePool)
    return InlinePool


class TestPolarCommand:
    def test_csv_row_3x3(self, capsys):
        code, out, _ = run(capsys, "polar", "--m", "3", "--n", "3", "--r", "1",
                           "--format", "csv")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "m,n,r,k,e"
        assert [line.split(",")[-1] for line in lines[1:]] == ["6", "12", "12", "6", "3"]

    def test_md_2xn_table(self, capsys):
        code, out, _ = run(capsys, "polar", "--m", "2", "--n", "2..7", "--r", "1")
        assert code == 0
        assert "| 2 x 3 | 3 | 4 | 3 |" in out
        assert "| 2 x 7 | 7 | 12 | 7 |" in out

    def test_json_uses_decimal_strings(self, capsys):
        code, out, _ = run(capsys, "polar", "--m", "3", "--n", "4", "--r", "2",
                           "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["entries"][0]["e"] == ["6", "16", "27", "24", "10", "0", "0"]

    def test_empty_range_is_usage_error(self, capsys):
        for text in ("5..2", "3..2"):  # 3..2 is one short of the one-cell 3..3
            with pytest.raises(SystemExit) as exc:
                main(["polar", "--m", "3", "--n", text, "--r", "1"])
            assert exc.value.code == 2

    def test_bad_domain_is_exit_3(self, capsys):
        code, _, err = run(capsys, "polar", "--m", "3", "--n", "2", "--r", "1")
        assert code == 3
        assert "error" in err

    def test_deterministic_across_cache_states(self, capsys):
        args = ("polar", "--m", "3", "--n", "3..5", "--r", "1..2", "--format", "md")
        code1, cold, _ = run(capsys, *args)
        code2, warm, _ = run(capsys, *args)
        assert code1 == code2 == 0
        assert cold == warm

    def test_jobs_flag(self, capsys):
        code, out, _ = run(capsys, "polar", "--m", "2", "--n", "2..5", "--r", "1",
                           "--jobs", "2", "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == "m,n,r,k,e"

    def test_jobs_pool_sized_by_the_cells(self, capsys, inline_pool):
        code, out, _ = run(capsys, "polar", "--m", "2", "--n", "2..3", "--r", "1",
                           "--jobs", "4", "--format", "csv")
        assert code == 0
        assert inline_pool.sizes == [2]
        assert "2,3,1,0,3" in out

    @pytest.mark.parametrize("affinity, cpus, sizes", [
        (None, 2, [2]), (None, None, []), ({0}, 2, []), ({0, 1}, 4, [2])],
        ids=["two", "unknown", "affinity-one-of-two", "affinity-two-of-four"])
    def test_jobs_pool_capped_at_the_cpus(self, capsys, monkeypatch, inline_pool,
                                          affinity, cpus, sizes):
        # --jobs 8 over four cells: one worker per CPU this process may run on,
        # counted by the affinity mask where the platform has one, else by
        # os.cpu_count(); serial if the count is unknown
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        if affinity is None:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        else:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: affinity, raising=False)
        code, out, _ = run(capsys, "polar", "--m", "2", "--n", "2..5", "--r", "1",
                           "--jobs", "8", "--format", "csv")
        assert code == 0
        assert inline_pool.sizes == sizes
        assert "2,5,1,0,5" in out

    def test_serial_gather_counts_no_cpus(self, capsys, monkeypatch, inline_pool):
        def counted(*args):
            raise AssertionError("a serial gather needs no CPU count")

        monkeypatch.setattr(os, "cpu_count", counted)
        monkeypatch.setattr(os, "sched_getaffinity", counted, raising=False)
        code, out, _ = run(capsys, "polar", "--m", "2", "--n", "2..5", "--r", "1",
                           "--format", "csv")
        assert code == 0
        assert inline_pool.sizes == []
        assert "2,5,1,0,5" in out

    def test_verify_through_the_pool(self, capsys, inline_pool, monkeypatch):
        args = ("polar", "--m", "3", "--n", "4", "--r", "1..2")
        _, plain, _ = run(capsys, *args)

        def production(m, n, r):
            raise AssertionError("--verify must recompute a cache entry through the certifier")

        monkeypatch.setattr(cli, "compute_polar_profile", production)
        code, out, _ = run(capsys, *args, "--verify", "--jobs", "2")
        assert code == 0
        assert inline_pool.sizes == [2]
        assert sorted(cache_load().entries) == ["3,4,1", "3,4,2"]
        assert out == plain

    def test_verify_through_the_pool_catches_a_wrong_entry(self, capsys, inline_pool):
        args = ("polar", "--m", "3", "--n", "4", "--r", "1..2")
        run(capsys, *args)
        path = cache_path()
        payload = json.loads(path.read_text())
        payload["entries"]["3,4,1"]["values"][1] = "13"
        path.write_text(json.dumps(payload))
        code, _, err = run(capsys, *args, "--verify", "--jobs", "2")
        assert code == 4
        assert inline_pool.sizes == [2]
        assert "does not match recomputation" in err

    @pytest.mark.parametrize("jobs", ["1", "2"], ids=["serial", "jobs2"])
    def test_bad_cell_rejected_before_any_profile_is_computed(
            self, capsys, monkeypatch, inline_pool, jobs):
        # the bad cell sorts last, after two cells that would be computed first
        computed = []

        def spy(m, n, r, _real=cli.compute_polar_profile):
            computed.append((m, n, r))
            return _real(m, n, r)

        monkeypatch.setattr(cli, "compute_polar_profile", spy)
        code, out, err = run(capsys, "polar", "--m", "2..4", "--n", "3", "--r", "1",
                             "--jobs", jobs)
        assert code == 3
        assert err == "detlinks: error: need 0 <= r <= m <= n, got m=4, n=3, r=1\n"
        assert out == ""
        assert computed == []
        assert inline_pool.sizes == []
        assert not cache_path().exists()

    def test_bad_cell_under_verify_runs_neither_route(self, capsys, monkeypatch):
        called = []

        def route(m, n, r):
            called.append((m, n, r))
            raise AssertionError("a rejected cell reached a route")

        monkeypatch.setattr(cli, "compute_polar_profile", route)
        monkeypatch.setattr(cli, "certify_polar_profile", route)
        code, out, err = run(capsys, "polar", "--m", "4", "--n", "3", "--r", "2", "--verify")
        assert (code, out, called) == (3, "", [])
        assert err == "detlinks: error: need 0 <= r <= m <= n, got m=4, n=3, r=2\n"

    def test_one_cache_lookup_per_cell(self, capsys, monkeypatch):
        lookups = []
        get = CacheFile.get

        def spy(self, m, n, r):
            lookups.append((m, n, r))
            return get(self, m, n, r)

        monkeypatch.setattr(CacheFile, "get", spy)
        cells = [(3, n, r) for n in (4, 5) for r in (1, 2)]
        for state in ("cold", "warm"):
            lookups.clear()
            code, _, _ = run(capsys, "polar", "--m", "3", "--n", "4..5", "--r", "1..2")
            assert code == 0, state
            assert sorted(lookups) == cells, state

    @pytest.mark.parametrize("jobs", ["0", "-5", "two"])
    def test_jobs_below_one_is_usage_error(self, capsys, jobs):
        with pytest.raises(SystemExit) as exc:
            main(["polar", "--m", "2", "--n", "3", "--r", "1", "--jobs", jobs])
        assert exc.value.code == 2
        assert "--jobs" in capsys.readouterr().err

    def test_import_leaves_the_process_pool_unloaded(self):
        code = ("import sys, detlinks.cli; "
                "print('concurrent.futures.process' in sys.modules)")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        result = subprocess.run([sys.executable, "-c", code], env=env,
                                capture_output=True, text=True, check=True)
        assert result.stdout.strip() == "False"

    def test_import_loads_no_dataclasses(self):
        # dataclasses pulls in inspect, ast, dis and tokenize, a large share
        # of start-up; the value types the command line uses are named tuples
        code = ("import sys, detlinks.cli; "
                "print('dataclasses' in sys.modules, 'inspect' in sys.modules)")
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        result = subprocess.run([sys.executable, "-c", code], env=env,
                                capture_output=True, text=True, check=True)
        assert result.stdout.split() == ["False", "False"]

    @pytest.mark.parametrize("stdout", ["buffered", "unbuffered", "closed"])
    def test_closed_stdout_is_not_a_failure(self, isolated_cache, stdout):
        # a reader that stops early (``| head -1``) leaves a pipe with no
        # reader, and ``>&-`` starts the command with no stdout at all; the
        # command has stored its profiles by then and exits 0
        read_end, write_end = os.pipe()
        os.close(read_end)
        env = child_env(stdout == "unbuffered", DETLINKS_CACHE=str(isolated_cache))
        closed = stdout == "closed"
        argv = "polar --m 2..5 --n 6..12 --r 1..2 --format json".split()
        try:
            result = subprocess.run([sys.executable, "-m", "detlinks.cli", *argv], env=env,
                                    stdout=None if closed else write_end,
                                    preexec_fn=(lambda: os.close(1)) if closed else None,
                                    stderr=subprocess.PIPE, text=True)
        finally:
            os.close(write_end)
        assert (result.returncode, result.stderr) == (0, "")
        assert len(cache_load().entries) == 4 * 7 * 2

    @pytest.mark.parametrize("stdout", ["buffered", "unbuffered"])
    def test_help_on_an_unwritable_stdout_exits_0(self, stdout):
        # argparse drops a failed write of its help text; what a buffered
        # stdout still holds must not fail again at interpreter exit (120)
        with open(__file__, "rb") as unwritable:
            result = subprocess.run([sys.executable, "-m", "detlinks.cli", "polar", "--help"],
                                    env=child_env(stdout == "unbuffered"),
                                    stdout=unwritable, stderr=subprocess.PIPE)
        assert (result.returncode, result.stderr) == (0, b"")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_failed_output_write_is_one_error_line(self, isolated_cache):
        # a full device refuses the write: one error line, exit 1, and no
        # traceback when the interpreter flushes stdout at exit, buffered or not
        for unbuffered in (False, True):
            env = child_env(unbuffered, DETLINKS_CACHE=str(isolated_cache))
            with open("/dev/full", "w") as full:
                result = subprocess.run(
                    [sys.executable, "-m", "detlinks.cli", "polar", "--m", "2", "--n", "3",
                     "--r", "1"], env=env, stdout=full, stderr=subprocess.PIPE, text=True)
            assert (result.returncode, result.stderr) == (
                1, "detlinks: error: could not write the output: "
                   "[Errno 28] No space left on device\n")
        assert sorted(cache_load().entries) == ["2,3,1"]

    @pytest.mark.parametrize("error, raised", [
        (BrokenPipeError(errno.EPIPE, "Broken pipe"), False),
        (OSError(errno.ENOSPC, "No space left on device"), True),
    ], ids=["closed_pipe", "full_device"])
    def test_failed_flush_points_stdout_at_devnull(self, tmp_path, monkeypatch, error, raised):
        # whatever a stream still holds after a failed flush goes to
        # /dev/null at exit, not to the reader or device that refused it
        class Stdout:
            def write(self, text):
                return len(text)

            def flush(self):
                raise error

            def fileno(self):
                return fd

        fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
        try:
            monkeypatch.setattr(sys, "stdout", Stdout())
            if raised:
                with pytest.raises(cli._OutputError):
                    cli._emit("1,2")
            else:
                cli._emit("1,2")
            assert os.path.samestat(os.fstat(fd), os.stat(os.devnull))
        finally:
            os.close(fd)

    def test_served_commands_load_no_schubert_calculus(self, isolated_cache):
        # the certifier (tensor_calculus) and the Schubert ring (grass_ring)
        # load only for --verify; every other command runs without them, and
        # neither path builds a dataclass
        code = textwrap.dedent("""
            import json, sys
            from detlinks import cli
            def run(*argvs):
                return [cli.main(argv.split()) for argv in argvs]
            def loaded(*names):
                return [name for name in names if name in sys.modules]
            ring = ("detlinks.grass_ring", "detlinks.tensor_calculus")
            served = run("polar --m 3 --n 4..5 --r 1..2",
                         "euler --m 3 --n 4 --s 3 --codim 5..6",
                         "betti --m 3 --n 4 --s 3 --codim 6",
                         "euler --hilbert-burch --max-m 3",
                         "cache show")
            before = loaded(*ring)
            startup = loaded("dataclasses", "inspect")
            verified = run("polar --m 3 --n 4 --r 2 --verify")
            print(json.dumps([served, before, startup, verified, loaded(*ring),
                              loaded("dataclasses", "inspect")]))
        """)
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src), DETLINKS_CACHE=str(isolated_cache))
        result = subprocess.run([sys.executable, "-c", code], env=env,
                                capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        served, before, startup, verified, after, certifier = json.loads(
            result.stdout.splitlines()[-1])
        assert served == [0] * 5
        assert before == []
        assert startup == []
        assert verified == [0]
        assert after == ["detlinks.grass_ring", "detlinks.tensor_calculus"]
        assert certifier == []

    def test_ring_is_no_longer_a_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["ring", "--m", "4", "--r", "2"])
        assert exc.value.code == 2
        assert "invalid choice: 'ring'" in capsys.readouterr().err
        sub = next(action for action in cli._PARSER._actions
                   if isinstance(action, argparse._SubParsersAction))
        assert sorted(sub.choices) == ["betti", "cache", "euler", "polar"]


class TestEulerCommand:
    def test_worked_examples(self, capsys):
        code, out, _ = run(capsys, "euler", "--m", "3", "--n", "4", "--s", "3",
                           "--codim", "5..6", "--format", "csv")
        assert code == 0
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        assert rows == [["3", "4", "3", "5", "-7"], ["3", "4", "3", "6", "-7"]]

    def test_hilbert_burch_table(self, capsys):
        code, out, _ = run(capsys, "euler", "--hilbert-burch", "--max-m", "3")
        assert code == 0
        assert "| 0 | 1 | 3 | 6 |" in out
        assert "| 1 | 0 | -1 | -10 |" in out
        assert "| 2 | 0 | 2 | 17 |" in out
        assert "| 3 | 0 | 2 | -7 |" in out

    def test_hilbert_burch_loads_and_stores_once(self, capsys, monkeypatch):
        calls = []
        for name in ("cache_load", "cache_store"):
            def counted(*args, _real=getattr(cli, name), _name=name):
                calls.append(_name)
                return _real(*args)

            monkeypatch.setattr(cli, name, counted)
        code, out, _ = run(capsys, "euler", "--hilbert-burch", "--max-m", "4")
        assert code == 0
        assert calls == ["cache_load", "cache_store"]
        assert out == (
            "| d \\ m | 1 | 2 | 3 | 4 |\n"
            "| --- | --- | --- | --- | --- |\n"
            "| 0 | 1 | 3 | 6 | 10 |\n"
            "| 1 | 0 | -1 | -10 | -30 |\n"
            "| 2 | 0 | 2 | 17 | 75 |\n"
            "| 3 | 0 | 2 | -7 | -101 |\n"
        )
        assert sorted(cache_load().entries) == [
            CacheFile.key(m, m + 1, r) for m in range(2, 5) for r in range(1, m)
        ]

    def test_computes_only_the_strata_it_reads(self, capsys, monkeypatch):
        computed = []

        def spy(m, n, r, _real=cli.compute_polar_profile):
            computed.append((m, n, r))
            return _real(m, n, r)

        monkeypatch.setattr(cli, "compute_polar_profile", spy)
        # the rank-1 stratum has dimension 8 < 11 + 1
        code, out, _ = run(capsys, "euler", "--m", "4", "--n", "5", "--s", "4",
                           "--codim", "11")
        assert code == 0
        assert computed == [(4, 5, 2), (4, 5, 3)]
        assert f"| 11 | {euler_complex_link(DetSpec(4, 5, 4), 11)} |" in out

    def test_full_range_checks_the_sum_of_the_links(self, capsys, monkeypatch):
        # over codimensions 0..d-1 the Euler characteristics sum to mn
        # (TestLinkChiSum); a partial range is not checked
        code, out, _ = run(capsys, "euler", "--m", "3", "--n", "4", "--s", "3",
                           "--codim", "0..9", "--format", "csv")
        assert code == 0
        assert sum(int(line.split(",")[-1]) for line in out.split()[1:]) == 12
        real = links_mod.egz_factor
        monkeypatch.setattr(links_mod, "egz_factor", lambda spec, rank: -real(spec, rank))
        code, out, err = run(capsys, "euler", "--m", "3", "--n", "4", "--s", "3",
                             "--codim", "0..9")
        assert (code, out) == (4, "")
        assert err == ("detlinks: consistency failure: the link Euler characteristics of "
                       "DetSpec(m=3, n=4, s=3) over codimensions 0..9 sum to -12, "
                       "not mn = 12\n")
        code, _, _ = run(capsys, "euler", "--m", "3", "--n", "4", "--s", "3",
                         "--codim", "0..8")
        assert code == 0

    def test_codim_out_of_range_is_exit_3(self, capsys):
        code, _, err = run(capsys, "euler", "--m", "3", "--n", "4", "--s", "3",
                           "--codim", "99")
        assert code == 3
        assert "codimension" in err

    def test_missing_parameters_is_usage_error(self, capsys):
        code, _, err = run(capsys, "euler", "--m", "3")
        assert code == 2
        assert "usage" in err

    def test_hilbert_burch_with_spec_flags_is_usage_error(self, capsys):
        code, out, err = run(capsys, "euler", "--m", "2", "--n", "3", "--s", "2",
                             "--codim", "0", "--hilbert-burch", "--max-m", "2")
        assert (code, out) == (2, "")
        assert err == ("detlinks: usage error: "
                       "--hilbert-burch takes no --m, --n, --s or --codim\n")

    def test_max_m_without_hilbert_burch_is_usage_error(self, capsys):
        code, out, err = run(capsys, "euler", "--m", "2", "--n", "3", "--s", "2",
                             "--codim", "0", "--max-m", "2")
        assert (code, out) == (2, "")
        assert err == "detlinks: usage error: --hilbert-burch and --max-m go together\n"


class TestBettiCommand:
    def test_worked_example(self, capsys):
        code, out, _ = run(capsys, "betti", "--m", "3", "--n", "4", "--s", "3",
                           "--codim", "6", "--format", "csv")
        assert code == 0
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        assert [r[-1] for r in rows] == ["1", "0", "1", "9"]

    def test_classical_link_2x3(self, capsys):
        code, out, _ = run(capsys, "betti", "--m", "2", "--n", "3", "--s", "2",
                           "--codim", "0", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["links"][0]["betti"] == ["1", "0", "1", "0"]

    def test_three_coordinate_axes(self, capsys):
        # the generic curve of type (2, 3, 2) in C^3 smooths to the link at
        # codimension 2, and b_1 is its Milnor number 2 delta - branches + 1 = 2
        code, out, _ = run(capsys, "betti", "--m", "2", "--n", "3", "--s", "2",
                           "--codim", "2", "--format", "json")
        assert code == 0
        assert json.loads(out)["links"][0]["betti"] == ["1", "2"]

    def test_non_smooth_is_exit_3(self, capsys):
        code, _, err = run(capsys, "betti", "--m", "3", "--n", "4", "--s", "3",
                           "--codim", "5")
        assert code == 3
        assert "not smooth" in err


class TestRejectedLinkRequests:
    @pytest.mark.parametrize("argv, err", [
        (("betti", "--m", "4", "--n", "9", "--s", "4", "--codim", "2"),
         "link not smooth at codimension 2 for DetSpec(m=4, n=9, s=4): "
         "smooth range is 22..29"),
        (("betti", "--m", "3", "--n", "4", "--s", "3", "--codim", "5..7"),
         "link not smooth at codimension 5 for DetSpec(m=3, n=4, s=3): "
         "smooth range is 6..9"),
        (("euler", "--m", "3", "--n", "5", "--s", "3", "--codim", "-3"),
         "codimension -3 outside 0..11 for DetSpec(m=3, n=5, s=3)"),
        (("euler", "--m", "1", "--n", "2", "--s", "1", "--codim", "0"),
         "the germ of DetSpec(m=1, n=2, s=1) is a point and has no complex links"),
        (("euler", "--hilbert-burch", "--max-m", "0"), "max_m must be at least 1"),
    ], ids=["below_smooth", "range_starting_below_smooth", "negative", "point_germ",
            "hilbert_burch_max_m_0"])
    @pytest.mark.parametrize("verify", [(), ("--verify",)], ids=["plain", "verify"])
    def test_rejected_before_any_profile_is_gathered(
            self, capsys, monkeypatch, inline_pool, argv, err, verify):
        routes = []
        for name in ("compute_polar_profile", "certify_polar_profile"):
            def spy(m, n, r, _real=getattr(cli, name)):
                routes.append((m, n, r))
                return _real(m, n, r)

            monkeypatch.setattr(cli, name, spy)
        code, out, got = run(capsys, *argv, *verify, "--jobs", "2")
        assert (code, out, got) == (3, "", f"detlinks: error: {err}\n")
        assert routes == []
        assert inline_pool.sizes == []
        assert not cache_path().exists()


# argv, a cache entry the command reads, and the library call that computes
# its link numbers with an optional profile lookup
LINK_COMMANDS = {
    "euler": (("euler", "--m", "3", "--n", "4", "--s", "3", "--codim", "0..9"), "3,4,2",
              lambda *profile: [euler_complex_link(DetSpec(3, 4, 3), i, *profile)
                                for i in range(10)]),
    "betti": (("betti", "--m", "3", "--n", "4", "--s", "3", "--codim", "6..9"), "3,4,2",
              lambda *profile: [betti_smooth_complex_link(DetSpec(3, 4, 3), i, *profile)
                                for i in range(6, 10)]),
    "hilbert_burch": (("euler", "--hilbert-burch", "--max-m", "4"), "4,5,3",
                      lambda *profile: hilbert_burch_chi_table(4, *profile)),
}


class TestLinkCommandsReadOnlyWhatTheyGathered:
    @staticmethod
    def spy_on_production(monkeypatch) -> dict:
        """The cells the command line asks ``compute_polar_profile`` for, and
        the cells whose Bott integrals ``polar`` evaluates by any route, a
        library default ``profile`` included."""
        seen = {}
        for module, name in ((cli, "compute_polar_profile"), (polar, "_bott_integrals")):
            def spy(m, n, r, _real=getattr(module, name),
                    _seen=seen.setdefault(module.__name__, [])):
                _seen.append(CacheFile.key(m, n, r))
                return _real(m, n, r)

            monkeypatch.setattr(module, name, spy)
        return seen

    @pytest.mark.parametrize("extra", [(), ("--verify",), ("--jobs", "2")],
                             ids=["warm", "verify", "cold_jobs"])
    @pytest.mark.parametrize("command", LINK_COMMANDS)
    def test_computes_only_what_it_gathers(
            self, capsys, monkeypatch, inline_pool, command, extra):
        argv = LINK_COMMANDS[command][0]
        cold = extra == ("--jobs", "2")
        if not cold:
            run(capsys, *argv)
        seen = self.spy_on_production(monkeypatch)
        code, _, err = run(capsys, *argv, *extra)
        assert (code, err) == (0, "")
        assert sorted(seen["detlinks.cli"]) == (sorted(cache_load().entries) if cold else [])
        assert seen["detlinks.polar"] == seen["detlinks.cli"]

    @pytest.mark.parametrize("command", LINK_COMMANDS)
    def test_served_entry_shows_only_in_its_command(self, capsys, command):
        argv, key, library = LINK_COMMANDS[command]
        _, clean, _ = run(capsys, *argv)
        path = cache_path()
        payload = json.loads(path.read_text())
        edit_keeping_every_closed_form(payload["entries"][key]["values"])
        path.write_text(json.dumps(payload))
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert out != clean
        assert library() == library(compute_polar_profile)


class TestCache:
    def test_cache_dir_resolution(self, tmp_path, monkeypatch):
        # $DETLINKS_CACHE, then an absolute $XDG_CACHE_HOME, then ~/.cache;
        # a relative $XDG_CACHE_HOME is ignored, as the XDG Base Directory
        # spec says, so the cache does not follow the working directory
        home = tmp_path / "home"
        monkeypatch.setenv("HOME", str(home))
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        monkeypatch.setenv("DETLINKS_CACHE", str(tmp_path / "own"))
        assert cache_dir() == tmp_path / "own"
        monkeypatch.setenv("DETLINKS_CACHE", "")
        assert cache_dir() == tmp_path / "xdg" / "detlinks"
        monkeypatch.delenv("DETLINKS_CACHE")
        assert cache_dir() == tmp_path / "xdg" / "detlinks"
        for relative in ("rel", "./rel", ""):
            monkeypatch.setenv("XDG_CACHE_HOME", relative)
            assert cache_dir() == home / ".cache" / "detlinks", relative
        monkeypatch.delenv("XDG_CACHE_HOME")
        assert cache_dir() == home / ".cache" / "detlinks"

    def test_round_trip(self, monkeypatch):
        cache = CacheFile()
        cache.put(PolarProfile(3, 4, 2, (6, 16, 27, 24, 10, 0, 0),
                               (-1, 1, -1, 1, -1, 1, -1)))
        cache_store(cache)
        loaded = cache_load()
        assert loaded.entries == cache.entries
        monkeypatch.setattr(cache_module, "_written", None)
        assert cache_load().entries == cache.entries

    def test_store_uses_a_private_temp_file(self, tmp_path, monkeypatch):
        # another writer's temp file at the old fixed name must survive
        sentinel = tmp_path / "polar_profiles.tmp"
        sentinel.write_text("another writer's half-written cache")
        cache = CacheFile()
        cache.put(PolarProfile(2, 3, 1, (3, 4, 3, 0), (-1, 1, -1, 1)))
        cache_store(cache)
        assert sentinel.read_text() == "another writer's half-written cache"
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "polar_profiles.json", "polar_profiles.tmp"]
        assert cache_load().entries == cache.entries
        monkeypatch.setattr(cache_module, "_written", None)
        assert cache_load().entries == cache.entries

    def test_failed_store_leaves_no_temp_file(self, tmp_path, monkeypatch, capsys, parses):
        def refuse(src, dst):
            raise OSError("replace refused")

        with monkeypatch.context() as patch:
            patch.setattr("detlinks.cache.os.replace", refuse)
            cache_store(CacheFile())
        assert "could not write cache" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []
        # a refused store keeps nothing: not the text it meant to write, and
        # not the text of the store before it
        stored = CacheFile()
        stored.put(compute_polar_profile(2, 3, 1))
        cache_store(stored)
        refused = CacheFile(dict(stored.entries))
        refused.put(compute_polar_profile(2, 2, 1))
        with monkeypatch.context() as patch:
            patch.setattr("detlinks.cache.os.replace", refuse)
            cache_store(refused)
        assert "could not write cache" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["polar_profiles.json"]
        for cache in (stored, refused):
            cache_path().write_text(json_text(cache.entries))
            parses.clear()
            assert cache_load().entries == cache.entries
            assert sorted(parses) == sorted(cache.entries)

    @pytest.mark.parametrize("count", [0, 1, 2])
    def test_writer_matches_json(self, count):
        cache = CacheFile()
        for cell in [(3, 4, 2), (2, 3, 1)][:count]:
            cache.put(compute_polar_profile(*cell))
        assert cache_module._file_text(cache.entries) == json_text(cache.entries)
        cache_store(cache)
        assert cache_path().read_text() == json_text(cache.entries)

    def test_writer_matches_json_on_the_sweep(self, capsys, monkeypatch):
        for command in json.loads(EXPECTED_OUTPUTS.read_text())["sweep_outputs"]:
            assert run(capsys, *command.split())[0] == 0
        text = cache_path().read_text()
        monkeypatch.setattr(cache_module, "_written", None)
        entries = cache_load().entries
        assert len(entries) == 91
        assert cache_module._file_text(entries) == json_text(entries) == text

    def test_file_bytes_are_pinned(self, capsys):
        # the digest of the file json.dumps(indent=1, sort_keys=True) wrote
        assert run(capsys, "polar", "--m", "3", "--n", "3..5", "--r", "1..2")[0] == 0
        assert run(capsys, "euler", "--hilbert-burch", "--max-m", "4")[0] == 0
        assert hashlib.sha256(cache_path().read_bytes()).hexdigest() == (
            "ddbea7de8b6c3dc6c1f11609373498308601efb802c5e7fd66cc058c9574968a")

    def test_load_of_the_text_just_written_skips_the_parser(self, capsys, parses):
        run(capsys, "polar", "--m", "2", "--n", "3", "--r", "1", "--format", "csv")
        parses.clear()
        assert cache_load().get(2, 3, 1) == compute_polar_profile(2, 3, 1)
        assert parses == []

    def test_equal_entry_that_is_not_the_kept_object_is_parsed(self, capsys):
        # (3.0, 4.0, 3.0, 0.0) == (3, 4, 3, 0), but the store writes "3.0"
        stored = CacheFile()
        stored.put(compute_polar_profile(2, 3, 1))
        cache_store(stored)
        floats = CacheFile(dict(stored.entries))
        floats.put(PolarProfile(2, 3, 1, (3.0, 4.0, 3.0, 0.0), polar.sign_record(2, 3, 1)))
        cache_store(floats)
        assert cache_load().entries == {}
        assert capsys.readouterr().err == (
            f"detlinks: warning: dropping cache entry '2,3,1' of {cache_path()}: "
            "value '3.0' is not a non-negative decimal string\n")

    def test_store_after_a_load_from_the_memo_parses_only_what_was_put(
            self, capsys, parses):
        run(capsys, "polar", "--m", "2", "--n", "2..3", "--r", "1", "--format", "csv")
        parses.clear()
        cache = cache_load()
        cache.put(compute_polar_profile(3, 4, 2))
        cache_store(cache)
        assert parses == ["3,4,2"]
        parses.clear()
        assert cache_load().entries == cache.entries
        assert parses == []

    @pytest.mark.parametrize("edited, check", [
        ('"9"', "alternating sum is not C(m, r) = 2"),
        ('"-4"', "value '-4' is not a non-negative decimal string"),
    ], ids=["changed", "negative"])
    def test_hand_edit_after_a_store_is_parsed(self, capsys, edited, check):
        run(capsys, "polar", "--m", "2", "--n", "3", "--r", "1", "--format", "csv")
        path = cache_path()
        text = path.read_text()
        # 2,3,1 is (3, 4, 3, 0); "9" keeps the length of the file
        assert text.count('"4"') == 1
        path.write_text(text.replace('"4"', edited))
        code, out, err = run(capsys, "polar", "--m", "2", "--n", "3", "--r", "1",
                             "--format", "csv")
        assert code == 0
        assert "2,3,1,1,4" in out
        assert "dropping cache entry '2,3,1'" in err and check in err

    def test_loaded_entries_are_a_fresh_dict(self, capsys):
        run(capsys, "polar", "--m", "2", "--n", "2..3", "--r", "1", "--format", "csv")
        loaded = cache_load()
        del loaded.entries["2,3,1"]
        assert sorted(cache_load().entries) == ["2,2,1", "2,3,1"]
        stored = CacheFile()
        stored.put(compute_polar_profile(3, 4, 2))
        cache_store(stored)
        stored.entries.clear()
        assert sorted(cache_load().entries) == ["3,4,2"]

    @pytest.mark.parametrize("key, bad, warning", [
        ("2,3,1", PolarProfile(2, 3, 1, (3, 4, 3), polar.sign_record(2, 3, 1)),
         "entry 2,3,1 has 3 values, not 4"),
        ("2,3,1", PolarProfile(2, 3, 1, (3, -4, 3, 0), polar.sign_record(2, 3, 1)),
         "value '-4' is not a non-negative decimal string"),
        ("2,3,01", compute_polar_profile(2, 3, 1), "key 2,3,01 is not the canonical 2,3,1"),
        ("3,2,1", PolarProfile(3, 2, 1, (3, 4, 3, 0), polar.sign_record(3, 2, 1)),
         "need 0 <= r <= m <= n, got m=3, n=2, r=1"),
        ("2,3,1", PolarProfile(2, 3, 1, (3, 4, 3, 0), (1, 1, 1, 1)), None),
        ('2,3,"1', compute_polar_profile(2, 3, 1),
         "invalid literal for int() with base 10: '\"1'"),
    ], ids=["length", "negative", "key", "domain", "raw_signs", "quote"])
    def test_store_of_an_entry_the_parser_rejects(self, capsys, key, bad, warning):
        cache = CacheFile()
        cache.put(compute_polar_profile(2, 2, 1))
        cache.entries[key] = bad
        cache_store(cache)
        loaded = cache_load()
        err = capsys.readouterr().err
        assert loaded.get(2, 2, 1) == compute_polar_profile(2, 2, 1)
        if warning is None:  # the file holds no signs: the load rebuilds them
            assert loaded.get(2, 3, 1) == compute_polar_profile(2, 3, 1) != bad
            assert err == ""
        else:
            assert sorted(loaded.entries) == ["2,2,1"]
            assert f"dropping cache entry {key!r} of {cache_path()}: {warning}" in err

    def test_store_of_a_key_that_is_not_a_string(self, capsys):
        # json writes the int key bare, so the file is no JSON and nothing is kept
        cache_store(CacheFile({5: compute_polar_profile(2, 3, 1)}))
        assert cache_load().entries == {}
        assert "ignoring unreadable cache" in capsys.readouterr().err

    def test_populated_by_commands(self, capsys):
        run(capsys, "polar", "--m", "3", "--n", "4", "--r", "2", "--format", "csv")
        cache = cache_load()
        entry = cache.get(3, 4, 2)
        assert entry is not None
        assert entry.values == (6, 16, 27, 24, 10, 0, 0)

    def test_corrupt_file_ignored_with_warning(self, capsys):
        path = cache_path()
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("{ not json")
        code, out, err = run(capsys, "polar", "--m", "2", "--n", "2", "--r", "1",
                             "--format", "csv")
        assert code == 0
        assert "warning" in err
        assert "2,2,1,0,2" in out

    def test_store_writes_values_only(self, capsys):
        run(capsys, "polar", "--m", "3", "--n", "4", "--r", "2", "--format", "csv")
        payload = json.loads(cache_path().read_text())
        assert payload["version"] == 2
        assert payload["entries"] == {
            "3,4,2": {"values": ["6", "16", "27", "24", "10", "0", "0"]}}

    def test_version_bump_invalidates(self, capsys):
        for version in (1, 999):
            run(capsys, "polar", "--m", "2", "--n", "3", "--r", "1", "--format", "csv")
            path = cache_path()
            payload = json.loads(path.read_text())
            payload["version"] = version
            path.write_text(json.dumps(payload))
            code, out, err = run(capsys, "polar", "--m", "2", "--n", "3", "--r", "1",
                                 "--format", "csv")
            assert code == 0
            assert "version" in err

    def test_tampered_value_used_without_verify(self, capsys):
        run(capsys, "polar", "--m", "4", "--n", "5", "--r", "2", "--format", "csv")
        path = cache_path()
        payload = json.loads(path.read_text())
        # (50, 240, 595, 960, 1116, 960, 595, 240, 50, 0, 0)
        # -> (50, 241, 597, 961, 1116, 961, 597, 241, 50, 0, 0)
        edit_keeping_every_closed_form(payload["entries"]["4,5,2"]["values"])
        path.write_text(json.dumps(payload))
        code, out, _ = run(capsys, "polar", "--m", "4", "--n", "5", "--r", "2",
                           "--format", "csv")
        assert code == 0
        # documented: trusted unless verifying
        assert "4,5,2,1,241" in out and "4,5,2,7,241" in out

    def test_unmirrored_edit_of_a_self_dual_entry_is_recomputed(self, capsys):
        # (1, 2, 1) at k = 1..3 alone keeps the five other forms of 4,5,2
        argv = ("polar", "--m", "4", "--n", "5", "--r", "2", "--format", "csv")
        code, clean, _ = run(capsys, *argv)
        assert code == 0
        path = cache_path()
        payload = json.loads(path.read_text())
        values = payload["entries"]["4,5,2"]["values"]
        values[1:4] = ["241", "597", "961"]
        path.write_text(json.dumps(payload))
        code, out, err = run(capsys, *argv)
        assert (code, out) == (0, clean)
        assert err.startswith("detlinks: warning: dropping cache entry '4,5,2': ")
        assert "self-dual profile is not a palindrome" in err
        assert cache_load().get(4, 5, 2) == compute_polar_profile(4, 5, 2)

    def test_served_profile_stays_inside_its_command(self, capsys):
        run(capsys, "polar", "--m", "4", "--n", "5", "--r", "2", "--format", "csv")
        path = cache_path()
        payload = json.loads(path.read_text())
        edit_keeping_every_closed_form(payload["entries"]["4,5,2"]["values"])
        path.write_text(json.dumps(payload))
        code, out, _ = run(capsys, "polar", "--m", "4", "--n", "5", "--r", "2",
                           "--format", "csv")
        assert code == 0
        assert "4,5,2,1,241" in out
        assert compute_polar_profile(4, 5, 2).values == (
            50, 240, 595, 960, 1116, 960, 595, 240, 50, 0, 0)
        spec = DetSpec(4, 5, 3)
        assert [euler_complex_link(spec, i) for i in range(spec.d)] == [
            euler_complex_link(spec, i, compute_polar_profile) for i in range(spec.d)
        ]

    @pytest.mark.parametrize("edits, check", [
        ({2: "28"}, "alternating sum is not C(m, r) = 3"),
        ({0: "7"}, "zeroth value is not the degree 6"),
        # +1 at k = 1 and at k = 2 keeps the four other forms
        ({1: "17", 2: "28"}, "alternating first moment is not r(m - r) C(m, r) = 6"),
    ], ids=["alternating_sum", "degree", "first_moment"])
    def test_served_entry_failing_a_closed_form_is_recomputed(self, capsys, edits, check):
        code, clean, _ = run(capsys, "euler", "--m", "3", "--n", "4", "--s", "3",
                             "--codim", "0..6")
        assert code == 0
        path = cache_path()
        payload = json.loads(path.read_text())
        # 3,4,2 is (6, 16, 27, 24, 10, 0, 0); length and signs stay valid
        for position, value in edits.items():
            payload["entries"]["3,4,2"]["values"][position] = value
        path.write_text(json.dumps(payload))
        code, out, err = run(capsys, "euler", "--m", "3", "--n", "4", "--s", "3",
                             "--codim", "0..6")
        assert code == 0
        assert out == clean
        assert "detlinks: warning: dropping cache entry '3,4,2'" in err and check in err
        assert cache_load().get(3, 4, 2).values == (6, 16, 27, 24, 10, 0, 0)
        code, out, err = run(capsys, "polar", "--m", "3", "--n", "4", "--r", "2",
                             "--format", "csv")
        assert code == 0 and err == ""
        assert "3,4,2,2,27" in out

    def test_tampered_value_caught_by_verify(self, capsys):
        run(capsys, "polar", "--m", "2", "--n", "3", "--r", "1", "--format", "csv")
        path = cache_path()
        payload = json.loads(path.read_text())
        payload["entries"]["2,3,1"]["values"][1] = "999"
        path.write_text(json.dumps(payload))
        code, _, err = run(capsys, "polar", "--m", "2", "--n", "3", "--r", "1",
                           "--format", "csv", "--verify")
        assert code == 4
        assert "consistency" in err

    def test_verify_recomputes_through_the_certifier(self, capsys, monkeypatch):
        run(capsys, "polar", "--m", "3", "--n", "4", "--r", "1..2", "--format", "csv")

        def production_route(m, n, r):
            raise AssertionError("--verify must not rerun the production route")

        monkeypatch.setattr(cli, "compute_polar_profile", production_route)
        code, out, _ = run(capsys, "polar", "--m", "3", "--n", "4", "--r", "1..2",
                           "--format", "csv", "--verify")
        assert code == 0
        assert "3,4,2,2,27" in out

    def test_verify_over_cached_cells_stores_nothing(self, capsys, monkeypatch):
        # every entry is read and checked, none is new: the file is not rewritten
        run(capsys, "polar", "--m", "3", "--n", "4", "--r", "1..2", "--format", "csv")
        stores = []
        monkeypatch.setattr(cli, "cache_store", stores.append)
        code, out, _ = run(capsys, "polar", "--m", "3", "--n", "4", "--r", "1..2",
                           "--format", "csv", "--verify")
        assert code == 0
        assert "3,4,2,2,27" in out
        assert stores == []

    @pytest.mark.parametrize("jobs", ["1", "2"], ids=["serial", "jobs2"])
    def test_verify_on_a_miss_runs_both_routes(self, capsys, monkeypatch, inline_pool, jobs):
        routes = []
        for name in ("compute_polar_profile", "certify_polar_profile"):
            def spy(m, n, r, _real=getattr(cli, name), _name=name):
                routes.append((_name, m, n, r))
                return _real(m, n, r)

            monkeypatch.setattr(cli, name, spy)
        code, out, err = run(capsys, "polar", "--m", "4", "--n", "5", "--r", "1..2",
                             "--format", "csv", "--verify", "--jobs", jobs)
        assert (code, err) == (0, "")
        assert inline_pool.sizes == ([2] if jobs == "2" else [])
        assert sorted(routes) == [(name, 4, 5, r)
                                  for name in ("certify_polar_profile", "compute_polar_profile")
                                  for r in (1, 2)]
        assert sorted(cache_load().entries) == ["4,5,1", "4,5,2"]
        assert "4,5,2,0,50" in out

    @pytest.mark.parametrize("jobs", ["1", "2"], ids=["serial", "jobs2"])
    def test_verify_on_a_miss_catches_a_wrong_certifier(
            self, capsys, monkeypatch, inline_pool, jobs):
        certify = cli.certify_polar_profile

        def wrong_certifier(m, n, r):
            prof = certify(m, n, r)
            if (m, n, r) != (4, 5, 2):
                return prof
            values = list(prof.values)
            # (1, 2, 1) at k = 1..3 keeps every closed form
            values[1:4] = [v + d for v, d in zip(values[1:4], (1, 2, 1))]
            return PolarProfile(m, n, r, tuple(values), prof.raw_signs)

        monkeypatch.setattr(cli, "certify_polar_profile", wrong_certifier)
        code, out, err = run(capsys, "polar", "--m", "4", "--n", "5", "--r", "1..2",
                             "--verify", "--jobs", jobs)
        assert (code, out) == (4, "")
        assert inline_pool.sizes == ([2] if jobs == "2" else [])
        assert err.startswith("detlinks: consistency failure: profile 4,5,2 differs "
                              "between the routes")
        assert not cache_path().exists()

    def test_truncated_entry_rejected(self, capsys):
        # a hand edit that keeps two values must not change the link numbers
        run(capsys, "polar", "--m", "3", "--n", "4", "--r", "2", "--format", "csv")
        path = cache_path()
        payload = json.loads(path.read_text())
        payload["entries"]["3,4,2"] = {"values": ["7", "16"], "raw_signs": [1, -1]}
        path.write_text(json.dumps(payload))
        code, out, err = run(capsys, "euler", "--m", "3", "--n", "4", "--s", "3",
                             "--codim", "5")
        assert code == 0
        assert "warning" in err
        assert "| 5 | -7 |" in out

    def test_out_of_domain_key_rejected(self, capsys):
        run(capsys, "polar", "--m", "2", "--n", "2", "--r", "1", "--format", "csv")
        path = cache_path()
        payload = json.loads(path.read_text())
        size = (99 + 1) * 5 - 2 * 5 * 5 + 1  # well formed but for the domain
        payload["entries"]["99,1,5"] = {"values": ["1"] * size,
                                        "raw_signs": [(-1) ** k for k in range(size)]}
        path.write_text(json.dumps(payload))
        code, out, err = run(capsys, "cache", "show")
        assert code == 0
        assert "warning" in err
        assert "99,1,5" not in out

    def test_bad_entry_dropped_alone(self, capsys, monkeypatch):
        run(capsys, "polar", "--m", "3", "--n", "4", "--r", "1..2", "--format", "csv")
        path = cache_path()
        payload = json.loads(path.read_text())
        payload["entries"]["3,4,1"]["values"][1] = "-12"
        path.write_text(json.dumps(payload))
        # a store after the bad entry is dropped keeps the good ones
        code, _, err = run(capsys, "polar", "--m", "2", "--n", "3", "--r", "1")
        assert code == 0
        assert "'3,4,1'" in err and "negative" in err
        assert sorted(cache_load().entries) == ["2,3,1", "3,4,2"]

        def production_route(m, n, r):
            raise AssertionError("a good cache entry must be served, not recomputed")

        monkeypatch.setattr(cli, "compute_polar_profile", production_route)
        code, out, err = run(capsys, "polar", "--m", "3", "--n", "4", "--r", "2",
                             "--format", "csv")
        assert code == 0
        assert err == ""
        assert "3,4,2,2,27" in out

    @pytest.mark.parametrize("values", [
        '["3", Infinity, "3", "0"]',
        '["3", 1e400, "3", "0"]',
        '["3", 4.9, "3", "0"]',
        '["3", 4, "3", "0"]',
        '["3", " 4", "3", "0"]',
        '["3", "4_0", "3", "0"]',
        '["3", "\\u0664", "3", "0"]',
        '"3430"',
    ], ids=["infinity", "overflow", "float", "integer", "padded", "underscore",
            "non_ascii_digit", "bare_string"])
    def test_value_not_a_decimal_string_dropped(self, capsys, values):
        args = ("polar", "--m", "2", "--n", "3", "--r", "1", "--format", "csv")
        code, clean, _ = run(capsys, *args)
        assert code == 0
        path = cache_path()
        stored = path.read_bytes()
        path.write_text('{"version": 2, "entries": {"2,3,1": {"values": %s}}}' % values)
        code, out, err = run(capsys, *args)
        assert code == 0
        assert out == clean
        assert "detlinks: warning: dropping cache entry '2,3,1'" in err
        assert "decimal string" in err or "not a list" in err
        assert path.read_bytes() == stored  # recomputed and stored again

    def test_file_removed_after_it_was_seen_is_an_empty_cache(
            self, capsys, monkeypatch):
        # a concurrent ``cache clear`` between a check and the read
        monkeypatch.setattr(Path, "exists", lambda self: True)
        cache = cache_load()
        assert cache.entries == {}
        assert capsys.readouterr().err == ""

    def test_non_canonical_key_dropped(self, capsys):
        run(capsys, "polar", "--m", "3", "--n", "4", "--r", "2", "--format", "csv")
        path = cache_path()
        payload = json.loads(path.read_text())
        payload["entries"]["03,4,2"] = payload["entries"]["3,4,2"]
        path.write_text(json.dumps(payload))
        code, out, err = run(capsys, "cache", "show")
        assert code == 0
        assert "'03,4,2'" in err and "canonical" in err
        assert "03,4,2" not in out and "3,4,2" in out
        run(capsys, "polar", "--m", "2", "--n", "3", "--r", "1", "--format", "csv")
        assert sorted(json.loads(path.read_text())["entries"]) == ["2,3,1", "3,4,2"]

    def test_cache_subcommands(self, capsys):
        run(capsys, "polar", "--m", "2", "--n", "2", "--r", "1", "--format", "csv")
        code, out, _ = run(capsys, "cache", "show")
        assert code == 0
        assert "2,2,1" in out
        code, out, _ = run(capsys, "cache", "path")
        assert code == 0
        assert out.strip().endswith("polar_profiles.json")
        code, _, _ = run(capsys, "cache", "clear")
        assert code == 0
        assert not cache_path().exists()

    def test_show_leaves_out_an_entry_failing_a_closed_form(self, capsys):
        run(capsys, "polar", "--m", "2", "--n", "2..3", "--r", "1", "--format", "csv")
        path = cache_path()
        text = path.read_text()
        assert text.count('"3"') == 2  # 2,3,1 is (3, 4, 3, 0)
        path.write_text(text.replace('"3"', '"7"', 1))
        edited = path.read_bytes()
        code, out, err = run(capsys, "cache", "show")
        assert code == 0
        assert err == ("detlinks: warning: dropping cache entry '2,3,1': polar profile of "
                       "(m, n, r) = (2, 3, 1): zeroth value is not the degree 3: (7, 4, 3, 0)\n")
        assert "| 2,2,1 | 3 | 2 |" in out and "2,3,1" not in out
        assert path.read_bytes() == edited

    def test_deeply_nested_file_is_unreadable(self, capsys):
        path = cache_path()
        path.write_text("[" * 100_000)
        code, out, err = run(capsys, "cache", "show")
        assert (code, out.count("\n")) == (0, 2)  # the header rows only
        assert err.startswith(f"detlinks: warning: ignoring unreadable cache {path}: ")
        assert "recursion" in err and err.count("\n") == 1

    def test_clear_without_a_cache_file(self, capsys, monkeypatch):
        # also a concurrent ``cache clear`` that removed the file after it was seen
        monkeypatch.setattr(Path, "exists", lambda self: True)
        for _ in range(2):
            code, out, err = run(capsys, "cache", "clear")
            assert (code, out, err) == (0, f"cleared {cache_path()}\n", "")

    def test_clear_that_cannot_remove_the_file_is_one_line(self, capsys):
        cache_path().mkdir()
        code, out, err = run(capsys, "cache", "clear")
        assert (code, out) == (1, "")
        assert err.startswith("detlinks: error: could not clear the cache: ")
        assert str(cache_path()) in err and err.count("\n") == 1
        assert cache_path().is_dir()

    @pytest.mark.parametrize("value", ["-5", 7, "1e3", ""])
    def test_bad_value_named_and_dropped_alone(self, capsys, value):
        run(capsys, "polar", "--m", "3", "--n", "4", "--r", "1..2", "--format", "csv")
        path = cache_path()
        payload = json.loads(path.read_text())
        payload["entries"]["3,4,1"]["values"][1] = value
        path.write_text(json.dumps(payload))
        code, out, err = run(capsys, "cache", "show")
        assert code == 0
        assert err == (f"detlinks: warning: dropping cache entry '3,4,1' of {path}: "
                       f"value {value!r} is not a non-negative decimal string\n")
        assert "3,4,2" in out and "3,4,1" not in out

    @pytest.mark.parametrize("key, values, warning", [
        ("2,3,1", ["3", "x", "3"], "value 'x' is not a non-negative decimal string"),
        ("03,4,2", ["6", "16"], "key 03,4,2 is not the canonical 3,4,2"),
        ("3,4,2", [], "entry 3,4,2 has 0 values, not 7"),
        ("x,4,2", ["a"], "value 'a' is not a non-negative decimal string"),
        ("3,4", ["a"], "value 'a' is not a non-negative decimal string"),
    ], ids=["value_before_length", "key_before_length", "empty", "value_before_bad_digit",
            "value_before_short_key"])
    def test_first_fault_of_an_entry_is_named(self, capsys, key, values, warning):
        # the value, then the key, then the domain, then the length
        path = cache_path()
        path.write_text(json.dumps({"version": 2, "entries": {key: {"values": values}}}))
        code, out, err = run(capsys, "cache", "show")
        assert code == 0
        assert err == f"detlinks: warning: dropping cache entry {key!r} of {path}: {warning}\n"
        assert key not in out

    def test_key_outside_the_domain_dropped_alone(self, capsys):
        run(capsys, "polar", "--m", "3", "--n", "4", "--r", "2", "--format", "csv")
        path = cache_path()
        payload = json.loads(path.read_text())
        payload["entries"]["3,2,1"] = {"values": ["2", "2", "2"]}
        path.write_text(json.dumps(payload))
        code, out, err = run(capsys, "cache", "show")
        assert code == 0
        assert err == (f"detlinks: warning: dropping cache entry '3,2,1' of {path}: "
                       "need 0 <= r <= m <= n, got m=3, n=2, r=1\n")
        assert "3,4,2" in out and "3,2,1" not in out

    def test_short_entry_of_a_huge_key_dropped_before_its_signs(self, capsys, monkeypatch):
        # the sign record of 3000,3000,1500 has 4.5 million items; a one-value
        # entry must be rejected by its length without building them
        run(capsys, "polar", "--m", "3", "--n", "4", "--r", "2", "--format", "csv")
        path = cache_path()
        payload = json.loads(path.read_text())
        payload["entries"]["3000,3000,1500"] = {"values": ["1"]}
        path.write_text(json.dumps(payload))
        built = []
        real = cache_module.sign_record
        monkeypatch.setattr(cache_module, "sign_record",
                            lambda m, n, r: built.append((m, n, r)) or real(m, n, r))
        code, out, err = run(capsys, "cache", "show")
        assert code == 0
        assert err == (f"detlinks: warning: dropping cache entry '3000,3000,1500' of {path}: "
                       "entry 3000,3000,1500 has 1 values, not 4500001\n")
        assert "3,4,2" in out and "3000,3000,1500" not in out
        assert built == [(3, 4, 2)]


class TestKeyMemo:
    """``cache._cell`` checks each key string once per process; a key that
    fails is checked, and named, again on every load."""

    @pytest.fixture(autouse=True)
    def restore_written(self, monkeypatch):
        monkeypatch.setattr(cache_module, "_written", cache_module._written)

    @staticmethod
    def forget():
        """The next load parses the file, and no key has been checked."""
        cache_module._written = None
        cache_module._cell.cache_clear()

    @staticmethod
    def misses():
        return cache_module._cell.cache_info().misses

    def test_two_loads_of_the_sweep_check_each_key_once(self, capsys):
        for command in json.loads(EXPECTED_OUTPUTS.read_text())["sweep_outputs"]:
            assert run(capsys, *command.split())[0] == 0
        self.forget()
        counts = []
        for _ in range(2):
            assert len(cache_load().entries) == 91
            counts.append(self.misses())
        assert counts == [91, 91]

    @pytest.mark.parametrize("bad, values, warning", [
        ("03,4,2", ["6", "16", "27", "24", "10", "0", "0"],
         "key 03,4,2 is not the canonical 3,4,2"),
        ("5,4,2", ["1"] * 11, "need 0 <= r <= m <= n, got m=5, n=4, r=2"),
    ], ids=["non_canonical", "out_of_domain"])
    def test_bad_key_is_named_on_every_load(self, capsys, bad, values, warning):
        # 3,4,2 is checked first, and each bad entry has the length its key
        # names, so only the key check drops it
        path = cache_path()
        path.write_text(json.dumps({"version": 2, "entries": {
            "3,4,2": {"values": ["6", "16", "27", "24", "10", "0", "0"]},
            bad: {"values": values}}}))
        for _ in range(2):
            assert sorted(cache_load().entries) == ["3,4,2"]
            assert capsys.readouterr().err == (
                f"detlinks: warning: dropping cache entry {bad!r} of {path}: {warning}\n")

    def test_store_after_a_parsed_load_checks_no_key_again(self, capsys):
        run(capsys, "polar", "--m", "2..3", "--n", "4", "--r", "1", "--format", "csv")
        self.forget()
        cache = cache_load()
        assert self.misses() == len(cache.entries) == 2
        cache_store(cache)
        assert self.misses() == 2
        assert cache_load().entries == cache.entries


class TestServedCheckMemo:
    """``cli._check_served`` runs the closed forms once per process on each
    distinct served profile; a profile that fails is dropped and named again
    in every command, and the compute path checks every profile it builds."""

    ARGV = ("polar", "--m", "4", "--n", "5", "--r", "2", "--format", "csv")

    @pytest.fixture
    def checks(self, monkeypatch):
        """The cells ``polar._check_closed_forms`` is called on, in order."""
        seen = []
        check = polar._check_closed_forms

        def spy(m, n, r, values):
            seen.append((m, n, r))
            return check(m, n, r, values)

        monkeypatch.setattr(polar, "_check_closed_forms", spy)
        return seen

    @staticmethod
    def fail_the_alternating_sum():
        path = cache_path()
        payload = json.loads(path.read_text())
        # 4,5,2 is (50, 240, 595, 960, ...); 596 keeps the degree and the length
        payload["entries"]["4,5,2"]["values"][2] = "596"
        path.write_text(json.dumps(payload))

    def test_failing_entry_is_dropped_in_every_command(self, capsys):
        code, clean, err = run(capsys, *self.ARGV)
        assert (code, err) == (0, "")
        # served and checked once: the memo now holds the clean profile
        assert run(capsys, *self.ARGV) == (0, clean, "")
        for _ in range(2):
            self.fail_the_alternating_sum()
            code, out, err = run(capsys, *self.ARGV)
            assert (code, out) == (0, clean)
            assert err.startswith("detlinks: warning: dropping cache entry '4,5,2': ")
            assert "alternating sum is not C(m, r) = 6" in err
            assert err.count("\n") == 1
        assert cache_load().get(4, 5, 2) == compute_polar_profile(4, 5, 2)

    def test_identical_served_profile_is_checked_once(self, capsys, checks):
        code, clean, _ = run(capsys, *self.ARGV)  # computed: checked by polar._profile
        assert code == 0 and checks == [(4, 5, 2)]
        assert run(capsys, *self.ARGV) == (0, clean, "")  # served: checked
        assert checks == [(4, 5, 2)] * 2
        for argv in (self.ARGV, ("cache", "show")):  # served again: no check
            assert run(capsys, *argv)[0] == 0
        assert checks == [(4, 5, 2)] * 2

    def test_the_compute_path_checks_every_profile(self, monkeypatch):
        # the closed forms compute the degree with math.comb; a repeated cell
        # reads memoized Bott sums, so the check is all the comb calls it makes
        calls = []
        monkeypatch.setattr(polar, "comb", lambda a, b: calls.append((a, b)) or math.comb(a, b))
        counts = []
        for _ in range(3):
            compute_polar_profile(4, 5, 2)
            counts.append(len(calls))
        assert counts[0] > 0 and counts == [counts[0], 2 * counts[0], 3 * counts[0]]


class TestNoHomeDirectory:
    """With no $DETLINKS_CACHE, no $XDG_CACHE_HOME and no home directory (a
    uid with no passwd entry) there is no cache: commands warn and compute,
    and ``cache path`` and ``cache clear`` fail with one error line."""

    MESSAGE = "no cache directory: Could not determine home directory. Set $DETLINKS_CACHE."

    @pytest.fixture(autouse=True)
    def no_home(self, monkeypatch):
        def home(cls):
            raise RuntimeError("Could not determine home directory.")

        monkeypatch.delenv("DETLINKS_CACHE")
        monkeypatch.delenv("XDG_CACHE_HOME", raising=False)
        monkeypatch.setattr(Path, "home", classmethod(home))

    def test_cache_dir_raises_only_without_a_setting(self, tmp_path, monkeypatch):
        with pytest.raises(OSError, match="no cache directory"):
            cache_dir()
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        assert cache_dir() == tmp_path / "xdg" / "detlinks"
        monkeypatch.setenv("DETLINKS_CACHE", str(tmp_path / "own"))
        assert cache_dir() == tmp_path / "own"

    @pytest.mark.parametrize("argv", [
        "polar --m 2 --n 3 --r 1",
        "euler --m 3 --n 4 --s 3 --codim 0..6 --format json",
        "betti --m 3 --n 4 --s 3 --codim 6..9 --format csv",
    ])
    def test_command_warns_computes_and_exits_0(self, capsys, tmp_path, monkeypatch, argv):
        with monkeypatch.context() as patch:
            patch.setenv("DETLINKS_CACHE", str(tmp_path))
            code, expected, err = run(capsys, *argv.split())
        assert (code, err) == (0, "")
        assert run(capsys, *argv.split()) == (0, expected, (
            f"detlinks: warning: ignoring the cache: {self.MESSAGE}\n"
            f"detlinks: warning: could not write the cache: {self.MESSAGE}\n"))

    def test_cache_show_is_empty(self, capsys):
        assert run(capsys, "cache", "show") == (
            0, "| entry (m,n,r) | length | multiplicity |\n| --- | --- | --- |\n",
            f"detlinks: warning: ignoring the cache: {self.MESSAGE}\n")

    @pytest.mark.parametrize("action", ["path", "clear"])
    def test_cache_path_and_clear_exit_1(self, capsys, action):
        assert run(capsys, "cache", action) == (1, "", f"detlinks: error: {self.MESSAGE}\n")


class TestClosedStderr:
    """A closed or unwritable stderr drops the warning and error lines and
    nothing else, buffered or not: the exit code and the stdout bytes are those
    of the same run with stderr open."""

    FAILING_ENTRY = json.dumps(
        {"version": cache_module.CACHE_VERSION,
         "entries": {"2,3,1": {"values": ["3", "4", "3", "1"]}}})  # alternating sum 1
    CASES = {
        "domain": ("euler --m 3 --n 4 --s 3 --codim 99", None, 3, ""),
        "usage": ("euler --hilbert-burch", None, 2, ""),
        "argparse": ("polar --m 2", None, 2, ""),
        "failing-entry": ("polar --m 2 --n 3 --r 1", FAILING_ENTRY, 0, "| 2 x 3 | 3 | 4 | 3 |"),
        "garbage-cache": ("polar --m 2 --n 3 --r 1", "garbage", 0, "| 2 x 3 | 3 | 4 | 3 |"),
    }

    @staticmethod
    def _run(argv: str, cache_text, cache_dir: Path, stderr: str, unbuffered: bool):
        """Run the command in a fresh process on a fresh cache, with
        ``child_env(unbuffered)``.  ``stderr`` is "open" (a pipe), "closed" (fd 2 closed at
        start, so ``sys.stderr`` is None) or "read-only" (fd 2 open for
        reading, so every write fails)."""
        cache_dir.mkdir()
        if cache_text is not None:
            (cache_dir / cache_module.CACHE_FILENAME).write_text(cache_text)
        env = child_env(unbuffered, DETLINKS_CACHE=str(cache_dir))
        command = [sys.executable, "-m", "detlinks.cli", *argv.split()]
        if stderr == "read-only":
            with open(__file__, "rb") as unwritable:
                return subprocess.run(command, env=env, stdout=subprocess.PIPE,
                                      stderr=unwritable)
        return subprocess.run(command, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE if stderr == "open" else None,
                              preexec_fn=(lambda: os.close(2)) if stderr == "closed" else None)

    @pytest.mark.parametrize("stderr, unbuffered", [
        pytest.param(stderr, unbuffered, id=stderr + ("-unbuffered" if unbuffered else ""))
        for unbuffered in (False, True) for stderr in ("closed", "read-only")
    ])
    @pytest.mark.parametrize("case", list(CASES))
    def test_exit_code_and_stdout_unchanged(self, tmp_path, case, stderr, unbuffered):
        argv, cache_text, code, line = self.CASES[case]
        opened = self._run(argv, cache_text, tmp_path / "open", "open", unbuffered)
        assert opened.returncode == code and opened.stderr  # each case writes a diagnostic
        assert line.encode() in opened.stdout and bool(line) == bool(opened.stdout)
        shut = self._run(argv, cache_text, tmp_path / "shut", stderr, unbuffered)
        assert (shut.returncode, shut.stdout) == (code, opened.stdout)


class TestRecordedOutputs:
    def test_every_recorded_output_is_reproduced(self, capsys):
        # the sweep fills the cache that the warm commands are served from
        expected = json.loads(EXPECTED_OUTPUTS.read_text())
        differ = []
        for kind in ("sweep_outputs", "warm_outputs"):
            for command, digest in expected[kind].items():
                code, out, _ = run(capsys, *command.split())
                if code != 0 or hashlib.sha256(out.encode()).hexdigest() != digest:
                    differ.append(command)
        assert len(expected["sweep_outputs"]) + len(expected["warm_outputs"]) == 71
        assert differ == []
