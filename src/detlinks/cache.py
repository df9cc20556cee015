"""Persistent JSON cache of polar profiles.

The cache is the one file ``cache_path()``, in the directory that
$DETLINKS_CACHE names, else in the platform cache directory; the load and
the store take no other path.  An entry is {"values": [...]}, a list of
decimal strings: profiles outgrow 64-bit integers well within the ranges
users ask for, and text keeps the file portable and diffable.
``polar.sign_record`` derives the sign record from the key.  A missing file
is an empty cache.  A version mismatch or a malformed file makes the whole
file be ignored (with a warning); an entry whose key is not the canonical
"m,n,r" or lies outside 0 <= r <= m <= n, whose values are not a list of
non-negative decimal strings, or whose length is not
``polar.profile_length`` is dropped alone, with a warning naming it and its
first bad value.  The command line checks every cell it serves from the
cache against the closed forms of ``polar._check_closed_forms`` (the degree,
the alternating sum C(m, r), the nonzero range and no negative value) and
drops and recomputes an entry that fails, with a warning naming it.  An edit
that keeps every one of these invariants is caught only by a verify pass,
which recomputes the digits through the independent Schubert route.  A
served entry is trusted only within the command that served it: the command
line passes it to that command's link sums as an argument.  The one process
memo of whole profiles is the text of this process's last ``cache_store``
and its entries: a load of a file that holds exactly that text returns a
copy of them and parses nothing.  That is exact, because the store keeps
them only when parsing its text gives back every entry unchanged
(``_parses_back``), and the command line checks a served cell against the
closed forms as it checks a parsed one.  The file format is unchanged.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from contextlib import suppress
from pathlib import Path

from .polar import PolarProfile, _validate_params, profile_length, sign_record

CACHE_VERSION = 2
CACHE_ENV = "DETLINKS_CACHE"
CACHE_FILENAME = "polar_profiles.json"


def cache_dir() -> Path:
    """Cache directory: $DETLINKS_CACHE, else the platform cache dir.  A
    relative $XDG_CACHE_HOME is ignored, as the XDG Base Directory spec says."""
    env = os.environ.get(CACHE_ENV)
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg and os.path.isabs(xdg) else Path.home() / ".cache"
    return base / "detlinks"


def cache_path() -> Path:
    return cache_dir() / CACHE_FILENAME


class CacheFile:
    """In-memory image of the cache: ``entries`` maps "m,n,r" to a PolarProfile."""

    def __init__(self, entries: dict | None = None):
        self.entries = {} if entries is None else entries

    @staticmethod
    def key(m: int, n: int, r: int) -> str:
        return f"{m},{n},{r}"

    def get(self, m: int, n: int, r: int) -> PolarProfile | None:
        return self.entries.get(self.key(m, n, r))

    def put(self, profile: PolarProfile):
        self.entries[self.key(profile.m, profile.n, profile.r)] = profile


def warn(msg: str):
    print(f"detlinks: warning: {msg}", file=sys.stderr)


def _values(texts) -> tuple:
    """The values of one entry, which must be a list of non-negative decimal
    strings, as cache_store writes them.  int() alone would also take a float
    (truncated), an infinity (OverflowError) or a bare string (read digit by
    digit)."""
    if type(texts) is not list:
        raise ValueError("values are not a list")
    with suppress(TypeError):  # raised by join for an item that is not a string
        digits = "".join(texts)
        if digits.isascii() and digits.isdigit():  # the common case, checked in one pass
            return tuple(map(int, texts))
    for text in texts:
        if not (isinstance(text, str) and text.isascii() and text.isdigit()):
            raise ValueError(f"value {text!r} is not a non-negative decimal string")
    return ()  # only an empty list gets here; the length check rejects it


def _check_entry(key: str, m: int, n: int, r: int, values: tuple):
    """The rules on one entry once its key and values are ints: the key is the
    canonical "m,n,r", 0 <= r <= m <= n and there are ``profile_length``
    values.  Both the parse of a loaded entry and the test of a stored one
    (``_parses_back``) apply them, so they are stated once."""
    if key != CacheFile.key(m, n, r):
        raise ValueError(f"key {key} is not the canonical {CacheFile.key(m, n, r)}")
    _validate_params(m, n, r)
    length = profile_length(m, n, r)  # before sign_record, which builds that many
    if len(values) != length:
        raise ValueError(f"entry {key} has {len(values)} values, not {length}")


def _parse_entry(key: str, raw) -> PolarProfile:
    m, n, r = (int(x) for x in key.split(","))
    values = _values(raw["values"])
    _check_entry(key, m, n, r, values)
    return PolarProfile(m, n, r, values, sign_record(m, n, r))


def _parses_back(key: str, prof) -> bool:
    """Whether ``_parse_entry`` rebuilds ``prof`` itself, field for field and
    with the same ``raw_signs`` tuple, from what cache_store writes for it
    under ``key``: m, n and r are ints, the values are what ``_values``
    returns (a tuple of non-negative ints), the entry passes ``_check_entry``,
    and its signs are the shared ``sign_record`` tuple."""
    if type(prof) is not PolarProfile:
        return False
    m, n, r, values, signs = prof
    if not (type(m) is type(n) is type(r) is int and type(values) is tuple
            and all(type(v) is int and v >= 0 for v in values)):
        return False
    try:
        _check_entry(key, m, n, r, values)
    except ValueError:
        return False
    return signs is sign_record(m, n, r)


def _file_text(entries: dict) -> str:
    """The text ``json.dumps(payload, indent=1, sort_keys=True) + "\\n"`` of
    the payload {"entries": {key: {"values": [...]}}, "version": ...}, built
    directly, because json encodes with an indent in pure Python.  Keys go
    through json, which escapes whatever a library caller put there; values
    are written as ``str`` gives them, decimal strings for the int values of
    a ``PolarProfile``, which need no escaping."""
    body = ",\n".join(
        f'  {json.dumps(key)}: {{\n   "values": [\n    "'
        + '",\n    "'.join(map(str, entries[key].values))
        + '"\n   ]\n  }'
        for key in sorted(entries)
    )
    body = f"{{\n{body}\n }}" if body else "{}"
    return f'{{\n "entries": {body},\n "version": {CACHE_VERSION}\n}}\n'


# (text, entries) of the last successful cache_store of this process whose
# every entry _parses_back; None when there is none
_written = None


def cache_load() -> CacheFile:
    """Load the cache at ``cache_path()``.  A missing file is an empty cache;
    an unreadable, version-mismatched or malformed file means an empty cache
    plus a warning; an entry that fails its checks is dropped alone, with a
    warning naming its key.  A file that holds exactly the text this
    process's last ``cache_store`` wrote is not parsed again: the result is
    a fresh dict of the entries that store kept, which are the entries that
    parsing that text returns, because the store kept them only if each one
    passed ``_parses_back``."""
    path, written = cache_path(), _written  # read once: a store may replace it
    try:
        text = path.read_text()
        if written is not None and text == written[0]:
            return CacheFile(dict(written[1]))
        raw = json.loads(text)
    except FileNotFoundError:
        return CacheFile()
    except (OSError, ValueError) as exc:
        warn(f"ignoring unreadable cache {path}: {exc}")
        return CacheFile()
    try:
        if raw["version"] != CACHE_VERSION:
            warn(
                f"ignoring cache {path} with version {raw['version']} "
                f"(current is {CACHE_VERSION})"
            )
            return CacheFile()
        items = raw["entries"].items()
    except (KeyError, TypeError, AttributeError) as exc:
        warn(f"ignoring malformed cache {path}: {exc}")
        return CacheFile()
    entries = {}
    for key, val in items:
        try:
            entries[key] = _parse_entry(key, val)
        except (KeyError, TypeError, ValueError) as exc:
            warn(f"dropping cache entry {key!r} of {path}: {exc}")
    return CacheFile(entries)


def cache_store(cache: CacheFile):
    """Atomically write the cache to ``cache_path()`` through a temp file of
    its own, so that concurrent writers never share one; I/O trouble is
    reported, never fatal.  After a successful write the text and a copy of
    the entries are kept for ``cache_load``, but only if every entry
    ``_parses_back``; otherwise nothing is kept, and the next load parses the
    file and warns about what it drops."""
    global _written
    _written = None
    path = cache_path()
    entries = dict(cache.entries)
    text = _file_text(entries)
    tmp = None
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
        tmp = None
    except OSError as exc:
        warn(f"could not write cache {path}: {exc}")
    else:
        if all(_parses_back(key, prof) for key, prof in entries.items()):
            _written = (text, entries)
    finally:
        if tmp is not None:
            with suppress(OSError):
                os.unlink(tmp)
