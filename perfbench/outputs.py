"""Parsers for the text the bellsim CLI prints and writes.

Every parser raises CheckError on text it cannot read, so a malformed
output fails its job instead of stopping the benchmark.
"""

from __future__ import annotations

import re

_NUM = r"[-+]?(?:nan|inf|\d+(?:\.\d*)?(?:[eE][-+]?\d+)?)"

_RATE_LABELS = {
    "t1,t2": "p_tt",
    "t1,t2'": "p_t_talt",
    "t1',t2": "p_talt_t",
    "t1',t2'": "p_talt_talt",
    "t1,any": "p_t_any",
    "t1',any": "p_talt_any",
    "any,t2": "p_any_t",
    "any,any": "p_any_any",
}


class CheckError(Exception):
    """An output could not be parsed or failed a check."""


def number(text, label):
    """The number printed after ``label =`` (or ``label:``), first occurrence."""
    match = re.search(r"(?<![\w'])" + re.escape(label) + r"\s*[=:]\s*(" + _NUM + ")", text)
    if not match:
        raise CheckError(f"no {label!r} value in output")
    return float(match.group(1))


def printed_half_ulp(token):
    """Half a unit in the last printed digit of a number token."""
    mantissa, _, exponent = token.lower().partition("e")
    decimals = len(mantissa.partition(".")[2])
    return 0.5 * 10.0 ** (int(exponent or 0) - decimals)


def reports(text):
    """Every CH report block printed by ``run``, in order.

    Each is a dict with the eight rates, f, the printed tail and its
    rounding, and the verdict.
    """
    blocks = text.split("angles: ")[1:]
    out = []
    for block in blocks:
        rates = {}
        for label, value in re.findall(r"P\(([^)]*)\)=(" + _NUM + ")", block):
            if label not in _RATE_LABELS:
                raise CheckError(f"unknown rate label P({label})")
            rates[_RATE_LABELS[label]] = float(value)
        if len(rates) != len(_RATE_LABELS):
            raise CheckError(f"report block has {len(rates)} rates, expected 8")
        tail = re.search(r"tail=(" + _NUM + ")", block)
        verdict = re.search(r"verdict: (.+)", block)
        if not tail or not verdict:
            raise CheckError("report block lacks tail or verdict")
        rates["f"] = number(block, "f")
        rates["tail"] = float(tail.group(1))
        rates["tail_rounding"] = printed_half_ulp(tail.group(1))
        rates["verdict"] = verdict.group(1).strip()
        out.append(rates)
    if not out:
        raise CheckError("no report in output")
    return out


def report_csv(data):
    """The one-row report CSV written by ``run --out``."""
    lines = data.decode("utf-8").splitlines()
    if len(lines) != 2:
        raise CheckError(f"report CSV has {len(lines)} lines, expected 2")
    head, row = lines[0].split(","), lines[1].split(",")
    if len(head) != len(row) or head[-1] != "verdict":
        raise CheckError("report CSV header and row disagree")
    out = {name: float(cell) for name, cell in zip(head[:-1], row[:-1])}
    out["verdict"] = row[-1]
    return out


SWEEP_HEADER = "u,v,kappa,f,neg_p_both,violated"


def sweep_csv(data):
    """Rows of a sweep CSV as (u, v, kappa, f, neg_p_both, violated)."""
    lines = data.decode("utf-8").splitlines()
    if not lines or lines[0] != SWEEP_HEADER:
        raise CheckError("sweep CSV header is missing or wrong")
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != 6 or cells[5] not in ("0", "1"):
            raise CheckError(f"malformed sweep row {line!r}")
        rows.append(tuple(float(c) for c in cells[:5]) + (int(cells[5]),))
    return rows


def scan(text):
    """``scan`` output: best angles, grid f and density, refined f, verdict."""
    match = re.search(
        r"best angles: theta1=(\S+) theta2=(\S+) theta1'=(\S+) theta2'=(\S+)", text
    )
    grid = re.search(r"grid f = (" + _NUM + r") over (\d+)\^4 points", text)
    verdict = re.search(r"verdict at best angles: (.+)", text)
    if not match or not grid or not verdict:
        raise CheckError("scan output lacks best angles, grid f or verdict")
    refined = re.search(r"refined f = (" + _NUM + ")", text)
    return {
        "angles": tuple(float(a) for a in match.groups()),
        "grid_f": float(grid.group(1)),
        "grid": int(grid.group(2)),
        "refined_f": float(refined.group(1)) if refined else None,
        "verdict": verdict.group(1).strip(),
    }
