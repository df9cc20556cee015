"""Persistent JSON cache of polar profiles.

The cache is the one file ``cache_path()``, in the directory that
$DETLINKS_CACHE names, else in the platform cache directory; the load and
the store take no other path.  With no such directory (no home directory
either) the load is an empty cache and the store writes nothing, each with
a warning.  An entry is {"values": [...]}, a list of decimal strings:
profiles outgrow 64-bit integers well within the ranges users ask for, and
text keeps the file portable and diffable.
``polar.sign_record`` derives the sign record from the key.  A missing file
is an empty cache.  A version mismatch or a malformed file makes the whole
file be ignored (with a warning); an entry whose key is not the canonical
"m,n,r" or lies outside 0 <= r <= m <= n, whose values are not a list of
non-negative decimal strings, or whose length is not
``polar.profile_length`` is dropped alone, with a warning naming it and its
first bad value.  The command line checks every cell it serves from the
cache against the closed forms of ``polar._check_closed_forms`` (the degree,
the alternating sum C(m, r), the nonzero range, no negative value, the
alternating first moment r(m - r) C(m, r) and, at 2r = m, the palindrome)
and drops and recomputes an entry that fails, with a warning naming it; it
checks each identical served profile once per process
(``cli._check_served``), and a profile that fails is checked and named
again in every command.  An edit that keeps every one
of these invariants is caught only by a verify pass, which recomputes the
digits through the independent Schubert route.  A served entry is trusted
only within the command that served it: the command line passes it to that
command's link sums as an argument.  This module keeps two memos.  Its one
memo of whole profiles is the text of this process's last ``cache_store``
and what ``_parse_entry`` returns on the decimal strings that store wrote
for each entry: a load of a file that holds exactly that text returns a
copy of them and parses nothing.  That is exact by construction, since the
memo is the parser's own output; a store skips the parse of an entry only
when it is the very object the previous memo kept under the same key.  The
command line checks a served cell against the closed forms as it checks a
parsed one.  The other memo, ``_cell``, holds what a key string alone
determines, its (m, n, r) and profile length once the key has passed its
checks, and never a value: it is a pure function of the string, and a key
that fails is checked again on every load.  The file format is unchanged.
"""

from __future__ import annotations

import json
import os
import tempfile
from contextlib import suppress
from functools import lru_cache
from pathlib import Path

from .errors import report
from .polar import PolarProfile, _validate_params, profile_length, sign_record

CACHE_VERSION = 2
CACHE_ENV = "DETLINKS_CACHE"
CACHE_FILENAME = "polar_profiles.json"


def cache_dir() -> Path:
    """Cache directory: $DETLINKS_CACHE, else the platform cache dir.  A
    relative $XDG_CACHE_HOME is ignored, as the XDG Base Directory spec says.
    With neither set and no home directory (no $HOME and no passwd entry for
    the uid) there is no cache directory, and OSError is raised."""
    env = os.environ.get(CACHE_ENV)
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    if xdg and os.path.isabs(xdg):
        return Path(xdg) / "detlinks"
    try:
        home = Path.home()
    except RuntimeError as exc:  # pathlib's "Could not determine home directory."
        raise OSError(f"no cache directory: {exc} Set ${CACHE_ENV}.") from None
    return home / ".cache" / "detlinks"


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


def _values(texts) -> tuple:
    """The values of one entry, which must be a list of non-negative decimal
    strings, as cache_store writes them.  int() alone would also take a float
    (truncated), an infinity (OverflowError) or a bare string (read digit by
    digit)."""
    if type(texts) is not list:
        raise ValueError("values are not a list")
    try:  # the common case, checked in one pass; the join hides an empty item
        digits = "".join(texts)
        if digits.isascii() and digits.isdigit() and all(texts):
            return tuple(map(int, texts))
    except TypeError:  # raised by join for an item that is not a string
        pass
    for text in texts:
        if not (isinstance(text, str) and text.isascii() and text.isdigit()):
            raise ValueError(f"value {text!r} is not a non-negative decimal string")
    return ()  # only an empty list gets here; the length check rejects it


@lru_cache(maxsize=None)
def _cell(key: str) -> tuple:
    """(m, n, r, profile_length) of a key that is the canonical "m,n,r" with
    0 <= r <= m <= n.  Memoized on the string, which alone determines them
    ("03,4,2" is no hit for "3,4,2"); a key that fails raises, so it is not
    memoized and is named on every load."""
    m, n, r = map(int, key.split(","))
    if key != CacheFile.key(m, n, r):
        raise ValueError(f"key {key} is not the canonical {CacheFile.key(m, n, r)}")
    _validate_params(m, n, r)
    return m, n, r, profile_length(m, n, r)


def _parse_entry(key: str, raw) -> PolarProfile:
    """The profile of one entry: its values pass ``_values``, its key passes
    ``_cell`` (the canonical "m,n,r", then 0 <= r <= m <= n; checked once per
    key string in a process) and there are ``profile_length`` values.  The
    first of these that fails is named."""
    values = _values(raw["values"])
    m, n, r, length = _cell(key)
    if len(values) != length:  # before sign_record, which builds that many
        raise ValueError(f"entry {key} has {len(values)} values, not {length}")
    return PolarProfile(m, n, r, values, sign_record(m, n, r))


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
# every entry parses, the entries being what _parse_entry returned; else None
_written = None


def cache_load() -> CacheFile:
    """Load the cache at ``cache_path()``.  A missing file is an empty cache;
    no cache directory, or an unreadable, version-mismatched or malformed
    file, means an empty cache plus a warning; an entry that fails its
    checks is dropped alone, with a warning naming its key.  A file that
    holds exactly the text this process's last ``cache_store`` wrote is not
    parsed again: the result is a fresh dict of the entries that store kept,
    which are what ``_parse_entry`` returned on the strings it wrote."""
    try:
        path = cache_path()
    except OSError as exc:
        report("warning", f"ignoring the cache: {exc}")
        return CacheFile()
    written = _written  # read once: a store may replace it
    try:
        text = path.read_text()
        if written is not None and text == written[0]:
            return CacheFile(dict(written[1]))
        raw = json.loads(text)
    except FileNotFoundError:
        return CacheFile()
    except (OSError, ValueError, RecursionError) as exc:  # json: too deeply nested
        report("warning", f"ignoring unreadable cache {path}: {exc}")
        return CacheFile()
    try:
        if raw["version"] != CACHE_VERSION:
            report(
                "warning",
                f"ignoring cache {path} with version {raw['version']} "
                f"(current is {CACHE_VERSION})"
            )
            return CacheFile()
        items = raw["entries"].items()
    except (KeyError, TypeError, AttributeError) as exc:
        report("warning", f"ignoring malformed cache {path}: {exc}")
        return CacheFile()
    entries = {}
    for key, val in items:
        try:
            entries[key] = _parse_entry(key, val)
        except (KeyError, TypeError, ValueError) as exc:
            report("warning", f"dropping cache entry {key!r} of {path}: {exc}")
    return CacheFile(entries)


def cache_store(cache: CacheFile):
    """Atomically write the cache to ``cache_path()`` through a temp file of
    its own, so that concurrent writers never share one; I/O trouble, and
    no cache directory, is reported, never fatal.  After a successful write
    the text is kept for ``cache_load`` with what ``_parse_entry`` returns
    on the decimal strings written for each entry; an entry that is the very
    object the previous store kept under its key is that parse already and
    is kept as it is.  If
    an entry fails to parse nothing is kept, and the next load parses the
    file and warns about what it drops."""
    global _written
    kept = _written[1] if _written is not None else {}
    _written = None
    try:
        path = cache_path()
    except OSError as exc:
        report("warning", f"could not write the cache: {exc}")
        return
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
        report("warning", f"could not write cache {path}: {exc}")
    else:
        with suppress(AttributeError, ValueError):  # a key that is no str, a bad entry
            _written = (text, {
                key: prof if kept.get(key) is prof
                else _parse_entry(key, {"values": list(map(str, prof.values))})
                for key, prof in entries.items()
            })
    finally:
        if tmp is not None:
            with suppress(OSError):
                os.unlink(tmp)
