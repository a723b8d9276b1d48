"""Exhaustive lower-bound search over the structured instance family.

Family members are integer (u, v) sequences with u_k + v_k even, every
demand at an odd 0-based position pinned to value D, and an odd clockwise
total.  Members are counted by a mixed-radix index: free positions range
over all even values 2..D with any admissible split ((D/2)^2 choices),
pinned positions over the D-1 splits of D.

Two members describe the same instance when a ring symmetry maps one to
the other.  The symmetries acting on sequences are generated by

  * node rotation (shift the sequence one step; the wrapped entry swaps
    u and v, because its stored endpoint moves past the ring seam),
  * reflection (reverse the sequence), and
  * the half-turn, which is rotation by m nodes and swaps u and v
    everywhere.

Only aligned images (value-D demands at every odd position) count for
canonicalization; the canonical form is the lexicographically smallest
aligned image.  Alignment is a property of the image, not of the group
element: an element that moves odd positions onto even ones (an odd
rotation, or a reflection) still gives an aligned image of a member
whose free positions all carry value D.  A shard (index, count) covers
a contiguous slice of the mixed-radix index space, evaluates exactly the
canonical members inside it, and reports those whose minimum possible
increase reaches the threshold; the union over all shards is exhaustive
and duplicate-free.

StructuredFamily checks a family once, the scan bounds m <= 256 and
D <= 1448 included; _scan builds the family's _Scan from it once per
process, and the scan's stages are its methods.

A shard is scanned in numpy blocks of whole parts.  An index splits into
its lead, the lowest digit group (positions 0 and 1, or position 0 alone
beyond D=80), and its part, the rest (index // the lead's radix).  Each
part is decoded once, and _Scan.candidates builds only the leads, as
codes (rows of the decode tables), that can pass the parity test and a
first-pair prefilter: at m=8, D=10 about one index in ten becomes a row.
_Scan.canonical keeps the canonical rows by packed lexicographic keys of
the images, in two halves; one minimum over the high keys of the
always-aligned images, each a part's term plus a lead's term gathered by
code, decides all but the value-D rows and the ties (0.6% of the
benchmark's m=8, D=10 rows), which compare every counted image.
_Scan.screen drops every row with a routing of increase at most
t = threshold - 1.  It meets in the middle: a row is feasible where, for
some end point y, the points its lead reaches from p(0) = 0 (the forward
exact.level_masks of its code) meet the points from which its part
reaches y (the backward exact.level_masks, once per part of a slice).
The same screen values the survivors (_Scan.values), swept up over the
odd numbers above t, the only values a minimum increase takes.  The lead
tables are caches, kept only if within _LEAD_TABLE_BYTES (the key terms
only if int64), and the start masks' table is built only by a block of
at least radix rows; otherwise the rows compute their own lead's share
from their codes, at any t.  Half keys at (D+1)^m >= 2^63 are Python
ints, and a block's first index is peeled as a Python int with int64
offsets from it, so the scan is exact at any index size.

Given a directory, a shard keeps its hit records (hit_record) and then its
last finished index in mM-dD-tT-shard-I-of-N.txt there, replaced atomically
(fsync, rename, fsync of the directory) as the scan goes on; a rerun
checks the kept records as one block of rows, by the scan's own stages,
restores the hits and resumes after the index.
"""

from __future__ import annotations

import json
import math
import os
import re
from collections import namedtuple
from collections.abc import Iterator
from functools import cache, partial
from pathlib import Path

import numpy as np

from .errors import InfeasibleParams, SchemaError
from .exact import level_masks, mask_columns
from .model import Record
from .reduction import rotated
from .scaled import Scaled, from_int, int_text, rational_str, unscale

Pairs = tuple[tuple[int, int], ...]  # plain-integer (u, v) sequences

# Indices per numpy block, in whole parts.  A shard is never held whole:
# at m=8, D=10 a block makes about 900 rows and peaks near 0.2 MB, and it
# runs 1.5 (m=8) to 2.8 (m=10) times as fast as blocks of 2048.
_BLOCK = 8192
_SHARDS = 64  # of search_parallel; fixed, so checkpoint names do not depend on jobs
_CHECKPOINT_STEP = 1 << 24  # indices between saves; a block that reaches one ends there
# Most bytes of one table that a scan keeps; a larger one is not built.  A
# lead table is only a cache: without it the rows of each block compute
# their own share, by the same algorithm.
_LEAD_TABLE_BYTES = 1 << 22


def _reflect(pairs: Pairs) -> Pairs:
    return tuple(reversed(pairs))


def _swap(pairs: Pairs) -> Pairs:
    return tuple((v, u) for u, v in pairs)


def _aligned(pairs: Pairs, D: int) -> bool:
    return all(u + v == D for u, v in pairs[1::2])


def symmetry_orbit(pairs: Pairs) -> set[Pairs]:
    """All images under ring rotations, reflection, and the half-turn."""
    images = set()
    for base in (pairs, _reflect(pairs)):
        for shift in range(len(pairs)):
            image = rotated(base, shift)
            images.add(image)
            images.add(_swap(image))
    return images


class CanonicalForm(Record):
    """CanonicalForm(pairs): a member's pairs, least aligned image of its symmetry orbit."""

    __slots__ = ("pairs",)

    @classmethod
    def of(cls, pairs: Pairs, D: int) -> "CanonicalForm":
        if not _aligned(pairs, D):
            raise InfeasibleParams("sequence has no value-D demand at odd positions")
        best = min(image for image in symmetry_orbit(pairs) if _aligned(image, D))
        return cls(best)


def _free_pair(code: int) -> tuple[int, int]:
    # pairs ordered by d = 2, 4, ..., D then u = 1..d-1; the block for
    # d = 2h starts at (h-1)^2 since 1 + 3 + ... + (2h-3) = (h-1)^2.
    h = math.isqrt(code) + 1
    u = code - (h - 1) * (h - 1) + 1
    return (u, 2 * h - u)


def _decode(
    lo: int, hi: int, groups: tuple[tuple[int, int], ...], U: np.ndarray, V: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The pairs of the digit groups of lo..hi-1 (lowest first), as (hi - lo, positions) arrays.

    groups and the tables U and V are a _Scan's.  lo is peeled as a Python
    int and the offsets from it stay int64, so any index size decodes.
    """
    n = hi - lo
    offset = np.arange(n, dtype=np.int64)
    codes = np.empty((n, len(groups)), dtype=np.int64)
    for g, (radix, first) in enumerate(groups):
        lo, rest = divmod(lo, radix)
        offset += rest
        codes[:, g] = offset % radix + first
        offset //= radix
    shape = (n, len(groups) * U.shape[1])
    return U.take(codes, axis=0).reshape(shape), V.take(codes, axis=0).reshape(shape)


def _pack(U: np.ndarray, V: np.ndarray, D: int) -> np.ndarray:
    """The pair keys [U (D+1) + V | V (D+1) + U], the columns the weight matrices act on."""
    base = D + 1
    return np.concatenate([U * base + V, V * base + U], axis=1)


def _fits(shape: tuple[int, ...], dtype: type) -> bool:
    """Whether a table of shape and dtype may be kept: int64 or uint64, within _LEAD_TABLE_BYTES."""
    return dtype in (np.int64, np.uint64) and math.prod(shape) * 8 <= _LEAD_TABLE_BYTES


class _Rows(namedtuple("_Rows", ("part_u", "part_v", "part", "code"))):
    """Family members as lead codes before the pairs of a part.

    Row r is row code[r] of a _Scan's tables U and V, the lead's pairs,
    followed by row part[r] of the arrays part_u and part_v, one row per
    part; all four are numpy arrays.
    """

    __slots__ = ()

    def select(self, rows: np.ndarray) -> "_Rows":
        return _Rows(self.part_u, self.part_v, self.part[rows], self.code[rows])


class _Scan:
    """The tables of a family's scan, and the scan's stages.

    A scan is built from its StructuredFamily, which has checked that the
    tables _fit; m, D and the free and pinned radices are the family's.

    Decode tables.  An index's mixed-radix digit groups, lowest first, are
    groups, each (radix, first table row), decoded by one % and one //.  A
    group is a (free, pinned) position pair of radix R = (D/2)^2 (D-1):
    row c of the (R, 2) tables U and V holds the pair at digit c.  Where
    the two tables would not _fit (D > 80), each position is a group of its
    own, and the (1-column) tables hold the free rows and then the pinned
    rows.

    Symmetry weights.  The images of the labels ((k, m + k) for k) under
    symmetry_orbit show where image position j takes its pair from: a
    first label k is source position k as is, a first label m + k is
    source position k with u and v swapped.  Column g of the (2m, G) high
    weight matrix puts B^(2(h-1-j)), B = D + 1, h = m/2, on that source's
    column of [U B + V | V B + U] for the image positions j < h, and low
    puts B^(2(m-1-j)) there for j >= h, so two matrix products pack all G
    images into a high and a low key, and (high, low) order is
    lexicographic order; column 0 is the identity.  Weights are int64 when
    B^(2h) < 2^63 and Python ints otherwise.  always[g] says that image g's
    odd positions read odd source positions, so it is aligned on every
    member; the first pairs of those images (even source positions, in both
    orientations) drive the first-pair prefilter.

    Lead tables.  The lead of an index is digit group 0, position 0 and
    position 1 too where positions are decoded in pairs; its code, index %
    radix, is its row of U and V, and part = index // radix holds the other
    positions.  keys[c] is lead c's first-pair key u0 (D + 1) + v0, or
    (D + 1)^2 where the first-pair prefilter drops the lead (u0 > v0, as the
    half-turn starts with (v0, u0), or another first pair of its own is
    smaller); parity[c] is the parity of the sum of its u's; value_d[c]
    says that the lead's positions all carry value D.  part_firsts are the
    columns over a part's positions that start an always-aligned image, and
    the lead and part weights are the rows of high over the lead's and the
    part's columns, in the always-aligned images' columns only (the
    identity first).  terms caches the lead's share of those high keys,
    row c of _pack(U, V, D) @ lead_weights over the lead codes; it is None
    where that table does not _fit.  Every table is read-only.
    """

    def __init__(self, family: StructuredFamily) -> None:
        self.family = family
        m, D = family.m, family.D
        F, P = family.free_choices, family.pinned_choices
        base, half = D + 1, m // 2

        labels = tuple((k, m + k) for k in range(m))
        images = [labels] + sorted(symmetry_orbit(labels) - {labels})
        dtype = np.int64 if base ** (2 * half) < 2**63 else object
        self.high = np.zeros((2 * m, len(images)), dtype=dtype)
        self.low = np.zeros_like(self.high)
        for g, image in enumerate(images):
            for j, (first, _) in enumerate(image):
                if j < half:
                    self.high[first, g] = base ** (2 * (half - 1 - j))
                else:
                    self.low[first, g] = base ** (2 * (m - 1 - j))
        odd_sources = np.array([[first % m for first, _ in image[1::2]] for image in images])
        self.always = (odd_sources % 2).all(axis=1)
        firsts = sorted({image[0][0] for image, aligned in zip(images, self.always) if aligned})

        evens = np.arange(2, D + 1, 2)
        free_u = np.concatenate([np.arange(1, d) for d in evens])  # the order of _free_pair
        free_v = np.repeat(evens, evens - 1) - free_u
        pinned_u = np.arange(1, D)
        if _fits((F * P, 4), np.int64):
            self.groups = ((F * P, 0),) * half
            self.U = np.stack([np.tile(free_u, P), np.repeat(pinned_u, F)], axis=1)
            self.V = np.stack([np.tile(free_v, P), np.repeat(D - pinned_u, F)], axis=1)
        else:
            self.groups = ((F, 0), (P, F)) * half
            self.U = np.concatenate([free_u, pinned_u])[:, None]
            self.V = np.concatenate([free_v, D - pinned_u])[:, None]

        self.radix, width = self.groups[0][0], self.U.shape[1]
        lead = [f for f in range(2 * m) if f % m < width]
        part = [f for f in range(2 * m) if f % m >= width]
        U, V = self.U[: self.radix], self.V[: self.radix]
        packed = _pack(U, V, D)
        kept = packed[:, 0] <= packed[:, [lead.index(f) for f in firsts if f in lead]].min(axis=1)
        self.keys = np.where(kept, packed[:, 0], base**2)
        self.parity = U.sum(axis=1) & 1
        self.value_d = (U + V == D).all(axis=1)
        self.part_firsts = [part.index(f) for f in firsts if f in part]
        self.lead_weights = self.high[lead][:, self.always]
        self.part_weights = self.high[part][:, self.always]
        terms = (self.radix, self.lead_weights.shape[1])
        self.terms = packed @ self.lead_weights if _fits(terms, dtype) else None
        for table in vars(self).values():
            if isinstance(table, np.ndarray):
                table.setflags(write=False)
        self._masks: tuple[int | None, np.ndarray | None] = (None, None)

    def pairs(self, rows: _Rows) -> tuple[np.ndarray, np.ndarray]:
        """The rows as (rows, m) arrays U and V."""
        return (
            np.concatenate([self.U[rows.code], rows.part_u[rows.part]], axis=1),
            np.concatenate([self.V[rows.code], rows.part_v[rows.part]], axis=1),
        )

    def candidates(self, lo: int, hi: int) -> _Rows:
        """The members lo..hi-1 with an odd clockwise total that pass the first-pair prefilter.

        The parts are decoded once each.  A part's odd total fixes the
        parity of its lead, and its smallest first-pair key over the part's
        columns in part_firsts bounds the lead's key; one mask over parts x
        lead codes selects the leads, in index order.
        """
        radix, D = self.radix, self.family.D
        first = lo // radix
        part_u, part_v = _decode(first, (hi - 1) // radix + 1, self.groups[1:], self.U, self.V)
        bound = _pack(part_u, part_v, D)[:, self.part_firsts].min(axis=1, initial=(D + 1) ** 2 - 1)
        need = 1 - (part_u.sum(axis=1) & 1)  # the lead's parity, for an odd total
        mask = (self.keys <= bound[:, None]) & (self.parity == need[:, None])
        offset = lo - first * radix
        local = np.flatnonzero(mask.ravel()[offset : offset + hi - lo]) + offset
        part, code = np.divmod(local, radix)
        return _Rows(part_u, part_v, part, code)

    def canonical(self, rows: _Rows) -> np.ndarray:
        """Row-wise "no aligned symmetry image is lexicographically smaller".

        An image counts where it is aligned: always-aligned images on every
        row, the others on rows whose free positions all carry value D
        (their odd positions read exactly the free positions).  The high
        keys of the always-aligned images decide most rows: a key is its
        part's term, computed once per part, plus its lead's, gathered by
        code from terms (packed row by row where they are not kept), and a
        row is canonical where every other key is above the identity's and
        not where one is below.  Value-D rows, whose other images count too,
        and rows where some key ties the identity's go to least.  Value-D
        flags are the part's and the code's.
        """
        D = self.family.D
        keys = (_pack(rows.part_u, rows.part_v, D) @ self.part_weights).take(rows.part, axis=0)
        if self.terms is None:
            keys += _pack(self.U[rows.code], self.V[rows.code], D) @ self.lead_weights
        else:
            keys += self.terms.take(rows.code, axis=0)
        value_d = (rows.part_u + rows.part_v == D).all(axis=1)[rows.part]
        value_d &= self.value_d[rows.code]
        # The minimum over a transposed copy runs down whole columns; over
        # axis 1 numpy would reduce each short row on its own, at twice the cost.
        others = keys[:, 1:].T.copy().min(axis=0)
        canonical = others > keys[:, 0]
        slow = np.flatnonzero(value_d | (others == keys[:, 0]))
        if slow.size:
            canonical[slow] = self.least(*self.pairs(rows.select(slow)), value_d[slow])
        return canonical

    def least(self, U: np.ndarray, V: np.ndarray, value_d: np.ndarray) -> np.ndarray:
        """canonical of whole (rows, m) arrays, comparing every counted image's keys.

        value_d[r] says that row r's free positions all carry value D.  A
        row's images are compared on their high keys, and those that tie
        the identity there on their low keys.  The products are int64 or
        Python ints, as the weights are.
        """
        packed = _pack(U, V, self.family.D)
        tied = self.always | value_d[:, None]
        smaller = np.zeros_like(tied)
        for weights in (self.high, self.low):
            keys = packed @ weights
            smaller |= (keys < keys[:, :1]) & tied
            tied &= keys == keys[:, :1]
        return ~smaller.any(axis=1)

    def lead_masks(self, t: int) -> np.ndarray | None:
        """The forward exact.level_masks of every lead code, a cache; None where it is not kept.

        Kept where the (radix, mask_columns(t)) table _fits, for the latest t only, read-only.
        """
        if self._masks[0] != t:
            masks = None
            if _fits((self.radix, mask_columns(t)), np.uint64):
                masks = level_masks(self.U[: self.radix], self.V[: self.radix], t)
                masks.setflags(write=False)
            self._masks = (t, masks)
        return self._masks[1]

    def screen(self, rows: _Rows, t: int) -> np.ndarray:
        """Row-wise "some routing has increase at most t", by exact.level_masks.

        The lead's start masks meet the part's end masks in the middle,
        gathered by code from lead_masks(t) if it is kept for t or the block
        has at least radix rows (building it costs radix rows), else computed
        by the rows.  Rows meet in slices whose masks fit _LEAD_TABLE_BYTES
        four times (a level holds up to four such arrays); a block without
        rows (common at m=10) runs no level at all.
        """
        masks = self.lead_masks(t) if self._masks[0] == t or len(rows.code) >= self.radix else None
        found = np.zeros(len(rows.code), dtype=bool)
        step = max(1, _LEAD_TABLE_BYTES // (32 * max(mask_columns(t), 1)))
        for lo in range(0, len(found), step):
            code, part = rows.code[lo : lo + step], rows.part[lo : lo + step]
            first, last = part.min(), part.max() + 1
            ends = level_masks(rows.part_u[first:last], rows.part_v[first:last], t, backward=True)
            ends = ends.take(part - first, axis=0)
            if masks is None:
                ends &= level_masks(self.U[code], self.V[code], t)
            else:
                ends &= masks.take(code, axis=0)
            found[lo : lo + step] = ends.any(axis=1)
        return found

    def values(self, rows: _Rows, t: int) -> np.ndarray:
        """The minimum increase of each row, for rows without a routing of increase at most t.

        A row not yet valued (0) takes the first odd number above t whose
        screen it passes; as every crossing instance has a routing of
        increase at most 19/14 D, each has one by 3D/2.  Every member's
        minimum increase is odd: each u_k + v_k is even (a free pair's by
        its range, a pinned one's as D is), so p(k) = u_0 + ... + u_(k-1)
        (mod 2) whatever the routing; the clockwise total is odd, so y =
        p(m) is odd, every |2 p(k) - y| is odd, and so is their maximum.
        """
        values = np.zeros(len(rows.code), dtype=np.int64)
        for s in range(t + 1 + t % 2, 3 * self.family.D // 2 + 1, 2):
            left = np.flatnonzero(values == 0)
            if not left.size:
                break
            values[left] = np.where(self.screen(rows.select(left), s), s, 0)
        assert values.all(), "none below 3/2 * D: the 19/14 * D guarantee failed"
        return values


@cache
def _scan(m: int, D: int) -> _Scan:
    """The (m, D) family's scan, built once per process."""
    return _Scan(StructuredFamily(m, D))


class StructuredFamily(Record):
    """StructuredFamily(m, D): the family, checked once for all that a scan of it needs.

    Even m, D >= 2, and scan tables that _fit: the (2m, 4m) symmetry
    weights grow as m^2 at any D, the free-pair table as (D/2)^2.  So
    m <= 256, D <= 1448, and at most (724^2 1447)^128 members, 1137
    digits: every index and size prints.
    """

    __slots__ = ("m", "D")

    def _check(self) -> None:
        m, D = self.m, self.D
        if m < 2 or m % 2 or D < 2 or D % 2:
            raise InfeasibleParams("structured family needs even m >= 2 and even D >= 2")
        if not _fits((2 * m, 4 * m), np.int64):
            raise InfeasibleParams(
                f"a scan needs m <= {math.isqrt(_LEAD_TABLE_BYTES // 64)}: at m={int_text(m)} each "
                f"of its two symmetry tables would take {int_text(64 * m * m)} bytes"
            )
        if not _fits((self.free_choices,), np.int64):
            raise InfeasibleParams(
                f"a scan needs D <= {2 * math.isqrt(_LEAD_TABLE_BYTES // 8)}: at D={int_text(D)} "
                f"its free-pair table would take {int_text(8 * self.free_choices)} bytes"
            )

    @property
    def free_choices(self) -> int:
        return (self.D // 2) ** 2

    @property
    def pinned_choices(self) -> int:
        return self.D - 1

    @property
    def size(self) -> int:
        return (self.free_choices * self.pinned_choices) ** (self.m // 2)

    def decode(self, index: int) -> Pairs:
        pairs, rest = [], index
        for pos in range(self.m):
            if pos % 2:
                rest, code = divmod(rest, self.pinned_choices)
                pairs.append((code + 1, self.D - code - 1))
            else:
                rest, code = divmod(rest, self.free_choices)
                pairs.append(_free_pair(code))
        if rest:  # the index was negative or at least size
            raise InfeasibleParams(f"the family has no member at index {int_text(index)}")
        return tuple(pairs)

    def encode(self, pairs: Pairs) -> int:
        if len(pairs) != self.m:
            raise InfeasibleParams(f"members have {self.m} pairs, not {len(pairs)}")
        index = 0
        for pos in range(self.m - 1, -1, -1):
            u, v = pairs[pos]
            if pos % 2:
                if u + v != self.D or not 1 <= u < self.D:
                    raise InfeasibleParams("pinned position must be (u, D - u), 1 <= u < D")
                index = index * self.pinned_choices + (u - 1)
            else:
                d = u + v
                if d % 2 or not 1 <= u < d or d > self.D:
                    raise InfeasibleParams("free position out of range")
                code = (d // 2 - 1) ** 2 + (u - 1)
                index = index * self.free_choices + code
        return index


class SearchHit(Record):
    """SearchHit(form, min_increase): a member found and its least load increase."""

    __slots__ = ("form", "min_increase")


def shard_range(total: int, shard: tuple[int, int]) -> tuple[int, int]:
    index, count = shard
    if not (count >= 1 and 0 <= index < count):
        raise InfeasibleParams(f"shard {index}/{count} is not valid")
    return total * index // count, total * (index + 1) // count


def hit_record(hit: SearchHit) -> str:
    """The JSON line that `ringload search` prints for a hit and checkpoints keep."""
    pairs = [[v, u] for u, v in hit.form.pairs]
    return json.dumps({"pairs": pairs, "min_increase": rational_str(hit.min_increase)})


def _resume(
    checkpoint: Path, scan: _Scan, t: int, start: int, stop: int
) -> tuple[list[SearchHit], int]:
    """The kept hits and the next index; SchemaError if the shard did not save them.

    t is the scan's.  The records are checked as one block of rows: one
    canonical call, one _Scan.screen at t, and one _Scan.values sweep.
    """
    family = scan.family
    try:
        *records, last = checkpoint.read_text().splitlines()
        cursor, hits, indices, values = int(last), [], [], []
        for line in records:
            *vu, value = map(int, re.findall(r"-?\d+", line))
            pairs = tuple(zip(vu[1::2], vu[::2]))
            indices.append(family.encode(pairs))
            hit = SearchHit(CanonicalForm(pairs), from_int(value))
            if hit_record(hit) != line or not t < value <= 3 * family.D // 2:
                raise ValueError(line)
            hits.append(hit)
            values.append(value)
        bounds = [start - 1, *indices, cursor + 1]
        if any(a >= b for a, b in zip(bounds, bounds[1:])):
            raise ValueError(checkpoint)  # records out of order or past the cursor
        if last != str(cursor) or not start - 1 <= cursor < stop:
            raise ValueError(last)
        members = np.array([hit.form.pairs for hit in hits], dtype=np.int64)
        U, V = np.moveaxis(members.reshape(len(hits), family.m, 2), 2, 0)
        width = scan.U.shape[1]
        codes = np.array([index % scan.radix for index in indices], dtype=np.int64)
        rows = _Rows(U[:, width:], V[:, width:], np.arange(len(hits)), codes)
        if not ((U.sum(axis=1) & 1).all() and scan.canonical(rows).all()):
            raise ValueError(checkpoint)  # an even total, or not canonical
        if scan.screen(rows, t).any() or scan.values(rows, t).tolist() != values:
            raise ValueError(checkpoint)  # not the minimum increase
    except (ValueError, IndexError):  # a line no save of the shard writes
        raise SchemaError(f"{checkpoint}: not hit records of this run, then an index") from None
    return hits, cursor + 1


def _blocks(first: int, stop: int, radix: int) -> Iterator[tuple[int, int]]:
    """The blocks (lo, hi) of a scan of first..stop-1.

    A block is about _BLOCK indices of whole parts (of radix indices each),
    or one part where that is longer.  A block that reaches a save point,
    first plus a multiple of _CHECKPOINT_STEP, ends at the last one it
    reaches, so each save's index is the end of a block.
    """
    lo = first
    while lo < stop:
        hi = min(max((lo + _BLOCK) // radix, lo // radix + 1) * radix, stop)
        save = hi - (hi - first) % _CHECKPOINT_STEP
        hi = save if save > lo else hi
        yield lo, hi
        lo = hi


def search_lower_bound(
    m: int,
    D: int,
    threshold: Scaled,
    shard: tuple[int, int] = (0, 1),
    checkpoint_dir: str | Path | None = None,
) -> list[SearchHit]:
    """Canonical members of the shard with min increase >= threshold, kept hits too."""
    scan = _scan(m, D)
    threshold_int = unscale(threshold)
    start, stop = shard_range(scan.family.size, shard)
    hits, first, checkpoint = [], start, None
    t = max(min(threshold_int - 1, 3 * D // 2), -1)  # 3D/2 bounds every increase; t < 0 has no y
    if checkpoint_dir is not None:
        name = f"m{m}-d{D}-t{threshold_int}-shard-{shard[0]}-of-{shard[1]}.txt"
        checkpoint = Path(checkpoint_dir) / name
        checkpoint.parent.mkdir(parents=True, exist_ok=True)
        if checkpoint.exists():
            hits, first = _resume(checkpoint, scan, t, start, stop)
    for lo, hi in _blocks(first, stop, scan.radix):
        rows = scan.candidates(lo, hi)
        rows = rows.select(scan.canonical(rows))
        rows = rows.select(~scan.screen(rows, t))
        U, V = scan.pairs(rows)
        for u_row, v_row, value in zip(U.tolist(), V.tolist(), scan.values(rows, t).tolist()):
            hits.append(SearchHit(CanonicalForm(tuple(zip(u_row, v_row))), from_int(value)))
        if checkpoint is not None and (hi == stop or (hi - first) % _CHECKPOINT_STEP == 0):
            temporary = checkpoint.with_name(name + ".partial")
            with temporary.open("w") as out:
                out.write("".join(hit_record(hit) + "\n" for hit in hits) + f"{hi - 1}\n")
                out.flush()
                os.fsync(out.fileno())  # on disk before the rename can be
            temporary.replace(checkpoint)  # atomic: a crash leaves the old file or the new
            directory = os.open(checkpoint.parent, os.O_RDONLY)
            try:
                os.fsync(directory)  # the rename on disk, so a power loss cannot undo it
            finally:
                os.close(directory)
    return hits


def search_parallel(
    m: int, D: int, threshold: Scaled, jobs: int, checkpoint_dir: str | Path | None = None
) -> list[SearchHit]:
    """search_lower_bound over _SHARDS shards on local processes, in shard order."""
    _scan(m, D)  # the family's checks, and its tables, before any worker starts
    scan = partial(search_lower_bound, m, D, threshold, checkpoint_dir=checkpoint_dir)
    shards = [(index, _SHARDS) for index in range(_SHARDS)]
    if jobs <= 1:
        return [hit for shard in shards for hit in scan(shard)]
    # imported here, so that importing ringload does not import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=min(jobs, _SHARDS)) as pool:
        return [hit for hits in pool.map(scan, shards) for hit in hits]
