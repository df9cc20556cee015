import argparse
import hashlib
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from detlinks import cache as cache_module
from detlinks import cli, polar
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
    monkeypatch.setattr(os, "cpu_count", lambda: 4)  # pool sizes independent of the machine
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
        with pytest.raises(SystemExit) as exc:
            main(["polar", "--m", "3", "--n", "5..2", "--r", "1"])
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

    @pytest.mark.parametrize("cpus, sizes", [(2, [2]), (None, [])], ids=["two", "unknown"])
    def test_jobs_pool_capped_at_the_cpus(self, capsys, monkeypatch, inline_pool, cpus, sizes):
        # --jobs 8 over four cells: one worker per CPU, serial if the count is unknown
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        code, out, _ = run(capsys, "polar", "--m", "2", "--n", "2..5", "--r", "1",
                           "--jobs", "8", "--format", "csv")
        assert code == 0
        assert inline_pool.sizes == sizes
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
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src), DETLINKS_CACHE=str(isolated_cache))
        env.pop("PYTHONUNBUFFERED", None)
        if stdout == "unbuffered":
            env["PYTHONUNBUFFERED"] = "1"
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

    def test_served_commands_load_no_schubert_calculus(self, isolated_cache):
        # the certifier (tensor_calculus) and the Schubert ring (grass_ring)
        # load only for --verify; every other command runs without them
        code = textwrap.dedent("""
            import json, sys
            from detlinks import cli
            def run(*argvs):
                return [cli.main(argv.split()) for argv in argvs]
            def loaded():
                return [name for name in ("detlinks.grass_ring", "detlinks.tensor_calculus")
                        if name in sys.modules]
            served = run("polar --m 3 --n 4..5 --r 1..2",
                         "euler --m 3 --n 4 --s 3 --codim 5..6",
                         "betti --m 3 --n 4 --s 3 --codim 6",
                         "euler --hilbert-burch --max-m 3",
                         "cache show")
            before = loaded()
            startup = [name for name in ("dataclasses", "inspect") if name in sys.modules]
            verified = run("polar --m 3 --n 4 --r 2 --verify")
            print(json.dumps([served, before, startup, verified, loaded()]))
        """)
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src), DETLINKS_CACHE=str(isolated_cache))
        result = subprocess.run([sys.executable, "-c", code], env=env,
                                capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        served, before, startup, verified, after = json.loads(result.stdout.splitlines()[-1])
        assert served == [0] * 5
        assert before == []
        assert startup == []  # the served path builds no dataclass
        assert verified == [0]
        assert after == ["detlinks.grass_ring", "detlinks.tensor_calculus"]

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
    ], ids=["below_smooth", "range_starting_below_smooth", "negative", "point_germ"])
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
    "hilbert_burch": (("euler", "--hilbert-burch", "--max-m", "4"), "2,3,1",
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
        # +1 at k = 1 and at k = 2 keeps every closed form
        values = payload["entries"][key]["values"]
        values[1:3] = [str(int(v) + 1) for v in values[1:3]]
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
        run(capsys, "polar", "--m", "2", "--n", "3", "--r", "1", "--format", "csv")
        path = cache_path()
        payload = json.loads(path.read_text())
        # (3, 4, 3, 0) -> (3, 5, 4, 0) keeps the degree, the alternating sum
        # and the nonzero range
        payload["entries"]["2,3,1"]["values"][1:3] = ["5", "4"]
        path.write_text(json.dumps(payload))
        code, out, _ = run(capsys, "polar", "--m", "2", "--n", "3", "--r", "1",
                           "--format", "csv")
        assert code == 0
        assert "2,3,1,1,5" in out  # documented: trusted unless verifying

    def test_served_profile_stays_inside_its_command(self, capsys):
        run(capsys, "polar", "--m", "2", "--n", "3", "--r", "1", "--format", "csv")
        path = cache_path()
        payload = json.loads(path.read_text())
        payload["entries"]["2,3,1"]["values"][1:3] = ["5", "4"]
        path.write_text(json.dumps(payload))
        code, out, _ = run(capsys, "polar", "--m", "2", "--n", "3", "--r", "1",
                           "--format", "csv")
        assert code == 0
        assert "2,3,1,1,5" in out
        assert compute_polar_profile(2, 3, 1).values == (3, 4, 3, 0)
        spec = DetSpec(2, 3, 2)
        assert [euler_complex_link(spec, i) for i in range(spec.d)] == [
            euler_complex_link(spec, i, compute_polar_profile) for i in range(spec.d)
        ]

    @pytest.mark.parametrize("position, value, check", [
        (2, "28", "alternating sum is not C(m, r) = 3"),
        (0, "7", "zeroth value is not the degree 6"),
    ], ids=["alternating_sum", "degree"])
    def test_served_entry_failing_a_closed_form_is_recomputed(
            self, capsys, position, value, check):
        code, clean, _ = run(capsys, "euler", "--m", "3", "--n", "4", "--s", "3",
                             "--codim", "0..6")
        assert code == 0
        path = cache_path()
        payload = json.loads(path.read_text())
        # 3,4,2 is (6, 16, 27, 24, 10, 0, 0); length and signs stay valid
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
            # +1 at k = 1 and at k = 2 keeps every closed form
            values[1:3] = [v + 1 for v in values[1:3]]
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

    @pytest.mark.parametrize("value", ["-5", 7, "1e3"])
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
