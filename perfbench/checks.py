"""Correctness checks applied to every operation the benchmark times.

A polar profile passes when it has length K + 1, strictly alternating raw
signs, the closed-form degree as values[0], the published values where
tests/reference_tables.py has them, and the digest recorded from the
reference outputs in expected.json.  A CLI output passes when its SHA-256
matches the recorded one.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
from math import comb, prod
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED_PATH = HERE / "expected.json"
REFERENCE_TABLES = ROOT / "tests" / "reference_tables.py"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def cell_key(m: int, n: int, r: int) -> str:
    return f"{m},{n},{r}"


def profile_digest(values, raw_signs) -> str:
    return sha256(" ".join(map(str, values)) + "|" + " ".join(map(str, raw_signs)))


def closed_form_degree(m: int, n: int, r: int) -> tuple:
    """values[0] = prod_{i < m-r} C(n+i, r) / C(r+i, r), as (numerator, denominator)."""
    num = prod(comb(n + i, r) for i in range(m - r))
    den = prod(comb(r + i, r) for i in range(m - r))
    return num, den


def load_reference_tables():
    spec = importlib.util.spec_from_file_location("reference_tables", REFERENCE_TABLES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def published_profiles(ref) -> dict:
    """(m, n, r) -> published nonzero prefix of the profile."""
    out = {}
    for table, m, r in (
        (ref.POLAR_2N_R1, 2, 1),
        (ref.POLAR_3N_R1, 3, 1),
        (ref.POLAR_4N_R1, 4, 1),
        (ref.POLAR_4N_R2, 4, 2),
        (ref.POLAR_5N_R1, 5, 1),
        (ref.POLAR_5N_R2, 5, 2),
    ):
        for n, values in table.items():
            out[(m, n, r)] = tuple(values)
    for n in ref.POLAR_3N_R1:
        out[(3, n, 2)] = tuple(ref.expected_3n_r2(n))
    for m, values in ref.HILBERT_BURCH.items():
        out[(m, m + 1, m - 1)] = tuple(values)
    return out


class Checker:
    """Compares profiles and CLI outputs with the reference data."""

    def __init__(self, expected: dict | None = None):
        if expected is None:
            expected = json.loads(EXPECTED_PATH.read_text())
        self.expected = expected
        ref = load_reference_tables()
        self.published = published_profiles(ref)
        self.euler_hb = [tuple(row) for row in ref.EULER_HB]

    def profile_errors(self, m: int, n: int, r: int, values, raw_signs) -> list:
        key = cell_key(m, n, r)
        values, raw_signs = tuple(values), tuple(raw_signs)
        length = (m + n) * r - 2 * r * r + 1
        if len(values) != length or len(raw_signs) != length:
            return [f"{key}: length {len(values)}, expected {length}"]
        errors = []
        if raw_signs[0] not in (1, -1) or any(
            s != raw_signs[0] * (-1) ** k for k, s in enumerate(raw_signs)
        ):
            errors.append(f"{key}: raw signs do not alternate")
        num, den = closed_form_degree(m, n, r)
        if values[0] * den != num:
            errors.append(f"{key}: degree {values[0]}, closed form {num}/{den}")
        published = self.published.get((m, n, r))
        if published is not None and values != published + (0,) * (length - len(published)):
            errors.append(f"{key}: differs from the published values")
        want = self.expected["profiles"].get(key)
        if want is None:
            errors.append(f"{key}: no recorded digest")
        elif profile_digest(values, raw_signs) != want:
            errors.append(f"{key}: digest differs from the recorded output")
        return errors

    def output_error(self, kind: str, name: str, text: str) -> str | None:
        want = self.expected[kind].get(name)
        if want is None:
            return f"{name!r}: no recorded digest"
        if sha256(text) != want:
            return f"{name!r}: output digest differs from the recorded output"
        return None

    def euler_hb_errors(self, text: str, max_m: int) -> list:
        """Rows d = 0..3 of a markdown Hilbert-Burch table against EULER_HB."""
        rows = {}
        for line in text.splitlines():
            cells = [c.strip() for c in line.strip().strip("|").split("|")]
            if cells and cells[0].isdigit():
                rows[int(cells[0])] = tuple(int(c) for c in cells[1:])
        want = {d: self.euler_hb[d][:max_m] for d in range(4)}
        return [] if rows == want else [f"Hilbert-Burch chi table differs from the published one: {rows}"]
