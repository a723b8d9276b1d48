"""Structured-family search: canonicalization, sharding, thresholds."""

import concurrent.futures
import itertools
import json
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    Interrupted,
    canonical_mask,
    decode_block,
    dp_feasible_block,
    fail_after,
    scalar_feasible_any_y,
    scalar_levels,
    window_masks,
)
from ringload import exact, search
from ringload.errors import InfeasibleParams
from ringload.exact import dp_min_increase, level_masks
from ringload.instances import _CROSSING_VU
from ringload.reduction import rotated, standalone_crossing
from ringload.scaled import from_int, parse_rational, rational_str, unscale
from ringload.search import (
    CanonicalForm,
    SearchHit,
    StructuredFamily,
    _BLOCK,
    _aligned,
    search_lower_bound,
    search_parallel,
    shard_range,
    symmetry_orbit,
)

# Families small enough to canonicalize whole with the scalar oracle.
SMALL_FAMILIES = ((2, 4), (2, 6), (4, 4), (4, 6), (6, 4), (4, 8), (6, 6))


def dp_of(pairs, D):
    cross = standalone_crossing(
        tuple((from_int(u), from_int(v)) for u, v in pairs), from_int(D)
    )
    return dp_min_increase(cross)[1]


def smaller_aligned_images(pairs, D):
    return [image for image in symmetry_orbit(pairs) if _aligned(image, D) and image < pairs]


def _is_canonical(pairs, D):
    """Scalar canonicity oracle: no aligned image is smaller."""
    return not smaller_aligned_images(pairs, D)


def scalar_search(m, D, threshold, shard=(0, 1), checkpoint=None):
    """The per-index scan that the block path replaced, kept as its reference.

    A checkpoint file, when given, is resumed from (its JSON hit records,
    then the last finished index) and rewritten at the end the same way;
    the saves in between are not modelled.
    """
    family = StructuredFamily(m, D)
    threshold_int = unscale(threshold)
    start, stop = shard_range(family.size, shard)
    hits = []
    if checkpoint is not None and checkpoint.exists():
        *records, last = checkpoint.read_text().splitlines()
        for line in records:
            record = json.loads(line)
            pairs = tuple((u, v) for v, u in record["pairs"])
            hits.append(SearchHit(CanonicalForm(pairs), parse_rational(record["min_increase"])))
        start = int(last) + 1
    for index in range(start, stop):
        pairs = family.decode(index)
        if sum(u for u, _ in pairs) % 2 and _is_canonical(pairs, D):
            if scalar_feasible_any_y(pairs, threshold_int - 1) is None:
                value = dp_of(pairs, D)
                if value >= threshold:
                    hits.append(SearchHit(CanonicalForm(pairs), value))
    if checkpoint is not None:
        records = [
            json.dumps({"pairs": [[v, u] for u, v in hit.form.pairs],
                        "min_increase": rational_str(hit.min_increase)}) + "\n"
            for hit in hits
        ]
        checkpoint.write_text("".join(records) + f"{stop - 1}\n")
    return hits


def checkpoint_file(directory, m, D, threshold, shard=(0, 1)):
    return directory / f"m{m}-d{D}-t{threshold}-shard-{shard[0]}-of-{shard[1]}.txt"


def rows_of(U, V):
    return [tuple(zip(u, v)) for u, v in zip(U.tolist(), V.tolist())]


def assert_block_matches_decode(family, lo, hi):
    U, V = decode_block(family, lo, hi)
    assert U.shape == V.shape == (hi - lo, family.m)
    assert rows_of(U, V) == [family.decode(index) for index in range(lo, hi)]
    scan = search._scan(family.m, family.D)
    assert rows_of(*search._decode(lo, hi, scan.groups, scan.U, scan.V)) == rows_of(U, V)
    return U, V


def decode_indices(family, indices):
    blocks = [decode_block(family, index, index + 1) for index in indices]
    return np.concatenate([U for U, _ in blocks]), np.concatenate([V for _, V in blocks])


def assert_canonical_mask_matches_oracle(U, V, D):
    expected = [_is_canonical(pairs, D) for pairs in rows_of(U, V)]
    assert canonical_mask(U, V, D).tolist() == expected
    return expected


def decode_path_rows(family, lo, hi):
    """The canonical rows of lo..hi-1 by the decode path: every index, parity, canonical_mask."""
    U, V = decode_block(family, lo, hi)
    odd = np.flatnonzero(U.sum(axis=1) & 1)
    rows = odd[canonical_mask(U[odd], V[odd], family.D)]
    return U[rows], V[rows]


def assert_canonical_rows_match_decode_path(family, lo, hi):
    """search builds and keeps the rows of the decode path, in index order."""
    expected = rows_of(*decode_path_rows(family, lo, hi))
    scan = search._scan(family.m, family.D)
    rows = scan.candidates(lo, hi)
    assert rows_of(*scan.pairs(rows.select(scan.canonical(rows)))) == expected
    return expected


def decode_path_search(m, D, threshold, shard):
    """The decode-path scan of a shard: canonical rows, the DP screen, then the full DP."""
    family = StructuredFamily(m, D)
    U, V = decode_path_rows(family, *shard_range(family.size, shard))
    kept = ~dp_feasible_block(U, V, unscale(threshold) - 1)
    return [SearchHit(CanonicalForm(pairs), dp_of(pairs, D)) for pairs in rows_of(U[kept], V[kept])]


def assert_screen_matches_oracle(U, V, t):
    expected = [scalar_feasible_any_y(pairs, t) is not None for pairs in rows_of(U, V)]
    assert dp_feasible_block(U, V, t).tolist() == expected
    return expected


def odd_rows(family, lo, hi):
    """Every odd-total member lo..hi-1 as search rows, lead code and part, in index order."""
    scan = search._scan(family.m, family.D)
    radix = scan.radix
    first = lo // radix
    part_u, part_v = search._decode(first, (hi - 1) // radix + 1, scan.groups[1:], scan.U, scan.V)
    part, code = np.divmod(np.arange(hi - lo) + (lo - first * radix), radix)
    rows = search._Rows(part_u, part_v, part, code)
    return rows.select(np.flatnonzero(scan.pairs(rows)[0].sum(axis=1) & 1))


def member_rows(family, indices):
    """The members at indices as search rows of one part each, as a resume builds them."""
    scan = search._scan(family.m, family.D)
    U, V = decode_indices(family, indices)
    width = scan.U.shape[1]
    codes = np.array([index % scan.radix for index in indices], dtype=np.int64)
    return search._Rows(U[:, width:], V[:, width:], np.arange(len(indices)), codes)


def fallback_rows(scan, rows, monkeypatch):
    """scan.canonical is the full comparison row for row; the number of rows it sent there.

    The full comparison is _Scan.least over every row, and that is the
    decode path's canonical_mask.
    """
    least = search._Scan.least
    U, V = scan.pairs(rows)
    expected = least(scan, U, V, (U + V == scan.family.D).all(axis=1)).tolist()
    assert canonical_mask(U, V, scan.family.D).tolist() == expected
    sent = []

    def recorded(self, U, V, value_d):
        sent.append(len(U))
        return least(self, U, V, value_d)

    monkeypatch.setattr(search._Scan, "least", recorded)
    assert scan.canonical(rows).tolist() == expected
    monkeypatch.setattr(search._Scan, "least", least)
    return sum(sent)


def only_level_masks(monkeypatch):
    """Refuses exact's per-row DP kernels from now on; the (t, backward) of each level_masks call.

    Both the module that defines level_masks and the search that imports
    it are patched, so the screen's own calls are recorded too, and each
    call's masks are checked to have t // 64 + 1 words per end point.
    """
    calls = []

    def recorded(U, V, t, backward=False):
        masks = level_masks(U, V, t, backward)
        assert masks.shape == (len(U), (t // 64 + 1) * (2 * t + 1))
        calls.append((t, backward))
        return masks

    def refused(*args):
        raise AssertionError("a per-row DP kernel ran")

    for kernel in ("_lanes", "_lane_levels", "_probe"):
        monkeypatch.setattr(exact, kernel, refused)
    monkeypatch.setattr(exact, "level_masks", recorded)
    monkeypatch.setattr(search, "level_masks", recorded)
    return calls


def assert_lead_screen_matches_block_screen(rows, m, D, t, cached):
    """The search screen, from the lead table or not as cached says, is dp_feasible_block."""
    scan = search._scan(m, D)
    assert (scan.lead_masks(t) is not None) == cached
    expected = dp_feasible_block(*scan.pairs(rows), t).tolist()
    assert scan.screen(rows, t).tolist() == expected
    return expected


def test_symmetry_images_preserve_min_increase():
    rng = random.Random(81)
    for _ in range(10):
        family = StructuredFamily(rng.choice([2, 4, 6]), rng.choice([4, 6, 8]))
        pairs = family.decode(rng.randrange(family.size))
        reference = dp_of(pairs, family.D)
        for image in symmetry_orbit(pairs):
            assert dp_of(image, family.D) == reference


def test_canonical_form_of_a_non_aligned_sequence_is_refused():
    # Position 1 carries value 2, not D = 4.
    with pytest.raises(InfeasibleParams, match="no value-D demand at odd positions"):
        CanonicalForm.of(((1, 1), (1, 1)), 4)


def test_canonicalization_is_idempotent_and_orbit_constant():
    rng = random.Random(82)
    for _ in range(40):
        family = StructuredFamily(rng.choice([2, 4]), rng.choice([4, 6]))
        pairs = family.decode(rng.randrange(family.size))
        canonical = CanonicalForm.of(pairs, family.D)
        assert CanonicalForm.of(canonical.pairs, family.D) == canonical
        for image in symmetry_orbit(pairs):
            if all(u + v == family.D for u, v in image[1::2]):
                assert CanonicalForm.of(image, family.D) == canonical


def test_family_size_and_codec():
    family = StructuredFamily(8, 10)
    assert family.size == 25**4 * 9**4  # more than one billion members
    rng = random.Random(83)
    for _ in range(500):
        index = rng.randrange(family.size)
        pairs = family.decode(index)
        assert family.encode(pairs) == index
        assert all(u + v == 10 for u, v in pairs[1::2])
        assert all(2 <= u + v <= 10 and (u + v) % 2 == 0 for u, v in pairs[0::2])


def burnside_orbit_count(m, D):
    """Orbits of the 4m ring symmetries on the family's sequences, by Burnside's lemma.

    The symmetries map a member onto odd-total sequences pinned at the odd
    or at the even positions, and that set is closed under them.  Each
    orbit holds one canonical member, and the number of orbits is the
    average number of sequences that a symmetry fixes, which is the sum of
    every sequence's stabilizer size over 4m.
    """
    free = [(u, d - u) for d in range(2, D + 1, 2) for u in range(1, d)]
    pinned = [(u, D - u) for u in range(1, D)]
    sequences = set()
    for pin in (0, 1):
        choices = [pinned if pos % 2 == pin else free for pos in range(m)]
        sequences.update(p for p in itertools.product(*choices) if sum(u for u, _ in p) % 2)

    def images(pairs):
        for base in (pairs, pairs[::-1]):
            for shift in range(m):
                image = rotated(base, shift)
                yield image
                yield tuple((v, u) for u, v in image)

    fixed = sum(image == pairs for pairs in sequences for image in images(pairs))
    orbits, rest = divmod(fixed, 4 * m)
    assert rest == 0
    return orbits


@pytest.mark.parametrize("m, D, orbits", [
    (2, 4, 2), (2, 6, 6), (4, 4, 10), (4, 6, 124), (6, 4, 71), (4, 8, 774),
    (4, 10, 3110), (6, 6, 3574), (2, 82, 17220),  # beyond D = 80 the lead is position 0
])
def test_canonical_members_are_the_symmetry_orbits(m, D, orbits):
    assert burnside_orbit_count(m, D) == orbits
    assert len(search_lower_bound(m, D, 0)) == orbits


def test_family_rejects_bad_parameters():
    for m, D in ((3, 10), (8, 9), (0, 10), (2, 0)):
        with pytest.raises(InfeasibleParams):
            StructuredFamily(m, D)


def test_encode_rejects_pinned_pairs_with_a_zero_entry():
    family = StructuredFamily(4, 8)
    for pinned in ((0, 8), (8, 0)):
        with pytest.raises(InfeasibleParams):
            family.encode(((1, 1), pinned, (1, 1), (1, 7)))


def test_encode_rejects_free_pairs_of_odd_value_or_past_d():
    family = StructuredFamily(4, 8)
    for free in ((1, 2), (5, 5)):
        with pytest.raises(InfeasibleParams, match="free position"):
            family.encode((free, (1, 7), (1, 1), (1, 7)))


def test_encode_rejects_sequences_of_another_length():
    family = StructuredFamily(4, 8)
    member = family.decode(0)
    for pairs in (member[:3], member + ((1, 1),)):
        with pytest.raises(InfeasibleParams):
            family.encode(pairs)


def test_decode_rejects_indices_outside_the_family():
    family = StructuredFamily(2, 4)
    for index in (-1, family.size, 10**6):
        with pytest.raises(InfeasibleParams, match=f"no member at index {index}$"):
            family.decode(index)
    for index in (0, family.size - 1):
        assert family.encode(family.decode(index)) == index


def test_shard_range_partitions():
    total = StructuredFamily(4, 6).size
    pieces = [shard_range(total, (i, 7)) for i in range(7)]
    assert pieces[0][0] == 0 and pieces[-1][1] == total
    for (_, stop), (start, _) in zip(pieces, pieces[1:]):
        assert stop == start
    with pytest.raises(InfeasibleParams):
        shard_range(total, (7, 7))


def test_sharding_is_exhaustive_and_disjoint():
    # Tiny family: a single full pass equals the union of four shards.
    threshold = from_int(1)
    full = search_lower_bound(2, 4, threshold)
    parts = [search_lower_bound(2, 4, threshold, shard=(i, 4)) for i in range(4)]
    merged = [hit for part in parts for hit in part]
    assert sorted(hit.form.pairs for hit in merged) == sorted(
        hit.form.pairs for hit in full
    )
    assert len({hit.form.pairs for hit in merged}) == len(merged)


def test_threshold_above_universal_bound_is_empty():
    # 3/2 * D bounds every minimum increase, so 3D/2 + 1 finds nothing.
    assert search_lower_bound(2, 4, from_int(7)) == []
    assert search_lower_bound(4, 4, from_int(7), shard=(1, 3)) == []
    assert search_lower_bound(2, 4, from_int(10**20)) == []


def test_search_finds_fig6_in_its_slice():
    family = StructuredFamily(8, 10)
    fig6 = CanonicalForm.of(tuple((u, v) for v, u in _CROSSING_VU["fig6"]), 10)
    index = family.encode(fig6.pairs)
    count = 40000  # slices of ~64k indices
    shard = next(
        i for i in range(count) if shard_range(family.size, (i, count))[0] <= index
        and index < shard_range(family.size, (i, count))[1]
    )
    hits = search_lower_bound(8, 10, from_int(11), shard=(shard, count))
    assert any(hit.form == fig6 and hit.min_increase == from_int(11) for hit in hits)


def test_fig2_and_fig6_canonical_forms_hit_threshold_11():
    for vu in (_CROSSING_VU["fig2"], _CROSSING_VU["fig6"]):
        pairs = tuple((u, v) for v, u in vu)
        assert dp_of(pairs, 10) == from_int(11)
        canonical = CanonicalForm.of(pairs, 10)
        assert dp_of(canonical.pairs, 10) == from_int(11)


def test_checkpoint_resume(tmp_path):
    # The family is far shorter than _CHECKPOINT_STEP: only the end saves.
    threshold = from_int(1)
    full = search_lower_bound(2, 4, threshold)
    first = search_lower_bound(2, 4, threshold, checkpoint_dir=tmp_path)
    assert [hit.form for hit in first] == [hit.form for hit in full]
    checkpoint = checkpoint_file(tmp_path, 2, 4, 1)
    assert checkpoint.read_text().split()[-1] == str(StructuredFamily(2, 4).size - 1)
    # A finished checkpoint makes the rerun scan nothing and return the kept hits.
    assert search_lower_bound(2, 4, threshold, checkpoint_dir=tmp_path) == full


def test_parallel_search_matches_serial():
    threshold = from_int(1)
    serial = search_lower_bound(2, 4, threshold)
    assert serial
    # Shards are disjoint, consecutive index ranges: the concatenation in
    # shard order is the serial scan, pairs and values, in order.
    for jobs in (1, 2):
        assert search_parallel(2, 4, threshold, jobs=jobs) == serial


@pytest.mark.parametrize("m, D", SMALL_FAMILIES)
def test_block_decode_and_canonical_mask_on_whole_families(m, D):
    family = StructuredFamily(m, D)
    U, V = assert_block_matches_decode(family, 0, family.size)
    expected = assert_canonical_mask_matches_oracle(U, V, D)
    # Rows whose free positions all carry value D: there the misaligned
    # group elements give aligned images and must be counted.
    value_d = (U + V == D).all(axis=1)
    assert value_d.any()
    assert not all(expected[row] for row in np.flatnonzero(value_d))


def test_block_path_on_slices_of_the_m8_family():
    family = StructuredFamily(8, 10)
    rng = random.Random(84)
    for _ in range(6):
        lo = rng.randrange(family.size - 300)
        U, V = assert_block_matches_decode(family, lo, lo + 300)
        assert_canonical_mask_matches_oracle(U, V, 10)
        for t in (9, 10, 11):
            assert_screen_matches_oracle(U, V, t)


@pytest.mark.parametrize("m, D", [(2, 4), (2, 6), (4, 4), (4, 6), (6, 4)])
def test_block_screen_matches_scalar_screen_on_whole_families(m, D):
    family = StructuredFamily(m, D)
    U, V = decode_block(family, 0, family.size)
    outcomes = set()
    for t in range(-1, 3 * D // 2 + 2):
        outcomes.update(assert_screen_matches_oracle(U, V, t))
    assert outcomes == {True, False}


def test_block_screen_matches_scalar_screen_off_the_family():
    # Odd u + v, zero entries and m = 0 or 1 reach both parities and the
    # edge cases of the first step.
    rng = np.random.default_rng(85)
    for m in range(0, 7):
        U = rng.integers(0, 7, size=(60, m))
        V = rng.integers(0, 7, size=(60, m))
        for t in range(-1, 11):
            assert_screen_matches_oracle(U, V, t)


def test_block_screen_matches_scalar_screen_on_the_first_m4_d8_members():
    U, V = decode_block(StructuredFamily(4, 8), 0, 500)
    for t in range(-1, 13):
        assert_screen_matches_oracle(U, V, t)
    # A block without rows answers in bools, at one word per end point and
    # at several; the scan's rows have parts but no codes.
    empty = np.zeros((0, 4), dtype=np.int64)
    none = odd_rows(StructuredFamily(4, 8), 0, 64).select(np.zeros(0, dtype=np.int64))
    for t in (3, 63, 200):
        for backward in (False, True):
            assert level_masks(empty, empty, t, backward).shape == (0, (t // 64 + 1) * (2 * t + 1))
        for found in (dp_feasible_block(empty, empty, t), search._scan(4, 8).screen(none, t)):
            assert found.dtype == bool and found.shape == (0,)


def test_block_screen_on_probes_when_the_shifts_overflow_int64(monkeypatch):
    # Past t = 62 a window passes int64's 63 mask bits, and from t = 64 on
    # it takes two words: every row still runs on level_masks, one call for
    # the block at each t, never on packed lanes or probes.
    family = StructuredFamily(4, 70)
    rng = random.Random(86)
    U, V = decode_indices(family, [rng.randrange(family.size) for _ in range(300)])
    calls = only_level_masks(monkeypatch)
    outcomes = set()
    for t in (63, 70, 100):
        outcomes.update(assert_screen_matches_oracle(U, V, t))
    assert outcomes == {True, False}
    assert calls == [(63, False), (70, False), (100, False)]


def test_block_screen_past_62_bits_matches_scalar_oracle(monkeypatch):
    # Every t from 63 on puts a block past int64's 63 mask bits; odd u + v
    # and zeros reach both parities and the edge cases of a step.
    rng = np.random.default_rng(95)
    calls = only_level_masks(monkeypatch)
    outcomes = set()
    for m in range(1, 6):
        U = rng.integers(0, 71, size=(30, m))
        V = rng.integers(0, 71, size=(30, m))
        V[0, 0] = 70
        for t in (63, 64, 70, 80, 100):
            outcomes.update(assert_screen_matches_oracle(U, V, t))
    assert outcomes == {True, False}
    assert len(calls) == 25


@pytest.mark.parametrize("m, D", SMALL_FAMILIES)
def test_lead_screen_matches_block_screen_on_whole_families(m, D):
    # Every odd-total member, canonical or not, at every t the scan can use.
    family = StructuredFamily(m, D)
    rows = odd_rows(family, 0, family.size)
    outcomes = set()
    for t in range(-1, 3 * D // 2 + 1):
        outcomes.update(assert_lead_screen_matches_block_screen(rows, m, D, t, cached=True))
    assert outcomes == {True, False}


@pytest.mark.parametrize("m, D, ts", [
    (4, 82, (63, 65, 91, 123)),
    (10, 76, (63, 75, 100)),
])
def test_lead_screen_beyond_int64_masks(m, D, ts):
    # The masks pass int64 at these t and take more words from t = 64 on.
    # A lead table is kept where it fits _LEAD_TABLE_BYTES: at D = 82 (1681
    # leads of position 0 alone) up to t = 77, 2 x 155 words a lead, so at
    # t = 63 and 65 and not at 91 or 123; at m = 10, D = 76 (108300 leads)
    # never.  Every 50th row is checked against the scalar DP too.
    family = StructuredFamily(m, D)
    rng = random.Random(92 + D)
    outcomes = set()
    for _ in range(2):
        lo = rng.randrange(family.size - 1500)
        rows = odd_rows(family, lo, lo + 1500)
        for t in ts:
            assert t > 62  # beyond int64 masks
            cached = D == 82 and t <= 77
            expected = assert_lead_screen_matches_block_screen(rows, m, D, t, cached)
            sample = rows.select(np.arange(0, len(rows.code), 50))
            oracle = [scalar_feasible_any_y(pairs, t) is not None
                      for pairs in rows_of(*search._scan(m, D).pairs(sample))]
            assert oracle == expected[::50]
            outcomes.update(expected)
    assert outcomes == {True, False}


@pytest.mark.parametrize("m, D, t, past_int64", [
    (4, 40, 21, False), (8, 34, 27, False), (4, 70, 35, False), (4, 140, 63, True),
])
def test_the_screen_meets_in_the_middle_without_a_lead_table(monkeypatch, m, D, t, past_int64):
    # The lead table would pass _LEAD_TABLE_BYTES at these t, so it is not
    # kept; the rows compute their own leads' start masks and still meet
    # their parts' end masks, at any step size, within int64 and past it
    # alike: one level_masks call each, and no per-row kernel.  Every 7th
    # row is checked against the scalar DP.
    family = StructuredFamily(m, D)
    scan = search._scan(m, D)
    assert scan.lead_masks(t) is None
    assert not search._fits((scan.radix, exact.mask_columns(t)), np.uint64)
    assert (t > 62) == past_int64
    lo = random.Random(96 + D).randrange(family.size - 3000)
    rows = odd_rows(family, lo, lo + 3000)
    rows = rows.select(np.arange(0, len(rows.code), 7))
    oracle = [scalar_feasible_any_y(pairs, t) is not None for pairs in rows_of(*scan.pairs(rows))]
    calls = only_level_masks(monkeypatch)
    assert scan.screen(rows, t).tolist() == oracle
    assert set(oracle) == {True, False}
    assert calls == [(t, True), (t, False)]


def test_start_and_end_masks_meet_in_the_middle():
    # Any split k of any rows: a column of the start masks of the first k
    # pairs, shared by prefix, and the same column of the end masks of the
    # rest, shared by suffix, have a common point exactly where the whole
    # row is feasible from level 0.  U and V up to 51 step past the window
    # at t = 10 on both sides; odd u + v and zeros reach both parities and
    # the edge cases of a step.  Masks are one uint64 word per end point up
    # to t = 63 at any step, and two from t = 64 on.
    rng = np.random.default_rng(93)
    outcomes = set()
    for m in range(0, 7):
        for top in (7, 52):
            U = rng.integers(0, top, size=(40, m))
            V = rng.integers(0, top, size=(40, m))
            U[20:], V[20:] = U[:20], V[:20]
            for k in range(m + 1):
                heads, codes = np.unique(np.concatenate([U[:, :k], V[:, :k]], axis=1),
                                         axis=0, return_inverse=True)
                tails, parts = np.unique(np.concatenate([U[:, k:], V[:, k:]], axis=1),
                                         axis=0, return_inverse=True)
                for t in (-1, 0, 3, 10):
                    start = level_masks(heads[:, :k], heads[:, k:], t)
                    end = level_masks(tails[:, : m - k], tails[:, m - k :], t, backward=True)
                    joined = (start[codes.ravel()] & end[parts.ravel()]).any(axis=1).tolist()
                    expected = dp_feasible_block(U, V, t).tolist()
                    assert joined == expected
                    outcomes.update(expected)
    assert outcomes == {True, False}
    for backward in (False, True):
        for t, words in ((62, 1), (63, 1), (64, 2)):
            masks = level_masks(U + 1000, V + 1000, t, backward)
            assert masks.dtype == np.uint64 and masks.shape == (40, words * (2 * t + 1))


def test_lead_screen_in_column_chunks(monkeypatch):
    # A _MASK_BITS of 600 would split _probe's end points into many column
    # chunks at (4, 8); the end masks of the parts are not chunked:
    # one backward level_masks call covers all 2t + 1 end points.
    family = StructuredFamily(4, 8)
    scan = search._scan(4, 8)
    rows = odd_rows(family, 0, family.size)
    rows = rows.select(np.arange(0, len(rows.code), 97))
    expected = {t: dp_feasible_block(*scan.pairs(rows), t).tolist() for t in (3, 5, 12)}
    assert set(expected[3]) == set(expected[5]) == {True, False}
    chunks = []

    def recorded(U, V, t, backward=False):
        masks = level_masks(U, V, t, backward)
        chunks.append((backward, masks.shape[1]))
        return masks

    monkeypatch.setattr(exact, "_MASK_BITS", 600)
    monkeypatch.setattr(exact, "level_masks", recorded)
    monkeypatch.setattr(search, "level_masks", recorded)
    for t, feasible in expected.items():
        scan.lead_masks(t)  # built before the screen's calls are counted
        chunks.clear()
        assert scan.screen(rows, t).tolist() == feasible
        assert chunks == [(True, 2 * t + 1)]


@pytest.mark.parametrize("m, D", [
    (2, 4), (8, 10), (10, 10), (10, 76), (12, 40), (20, 10), (4, 82), (10, 82),
])
def test_lead_key_terms_and_flags_code_by_code(m, D):
    # The terms are cached where their (radix, G) table is int64 and fits
    # _LEAD_TABLE_BYTES: not at m=12, D=40, at m=20 or at m=10, D=82, which
    # pack keys in Python ints, nor at m=10, D=76 (35 MB).
    scan = search._scan(m, D)
    U, V = scan.U[: scan.radix], scan.V[: scan.radix]
    expected = search._pack(U, V, D) @ scan.lead_weights
    cached = expected.dtype == np.int64 and expected.nbytes <= search._LEAD_TABLE_BYTES
    assert cached == ((m, D) in {(2, 4), (8, 10), (10, 10), (4, 82)})
    if cached:
        assert scan.terms.dtype == np.int64
        assert (scan.terms == expected).all()
    else:
        assert scan.terms is None
    assert scan.value_d.tolist() == (U + V == D).all(axis=1).tolist()
    assert scan.value_d.any() and not scan.value_d.all()


@pytest.mark.parametrize("m, D, t", [
    (10, 76, 59), (4, 82, 59), (4, 82, 30), (4, 82, 123), (2, 46, 16), (12, 40, 21),
])
def test_lead_tables_stay_small(m, D, t):
    # All that a scan keeps, its decode tables, weights and lead tables and
    # the lead masks at t, traced from an empty start.
    tracemalloc.start()
    try:
        scan = search._Scan(StructuredFamily(m, D))
        scan.lead_masks(t)
        size, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert scan.radix > 1000
    assert size < 16 * 2**20


def test_lead_masks_keep_the_latest_table_read_only():
    scan = search._scan(8, 10)
    assert search._scan(8, 10) is scan
    masks = scan.lead_masks(10)
    assert scan.lead_masks(10) is masks
    assert not masks.flags.writeable
    assert not any(table.flags.writeable for table in vars(scan).values()
                   if isinstance(table, np.ndarray))
    scan.lead_masks(9)  # a scan at another t replaces the table
    assert scan.lead_masks(10) is not masks


def test_only_a_block_of_radix_rows_builds_the_lead_table():
    # The scan's blocks keep the lead table of its t.  A values sweep over a
    # few survivors computes their own lead masks at every other t, so the
    # table it finds afterwards is the same one, and a block of fewer rows
    # than lead codes builds none at all.  Row r passes the screen at s
    # exactly where its minimum increase is at most s.
    family = StructuredFamily(4, 8)
    rows = odd_rows(family, 0, family.size)
    scan = search._Scan(family)
    t = 4
    assert len(rows.code) >= scan.radix
    survivors = np.flatnonzero(~scan.screen(rows, t))
    kept, table = scan._masks
    assert kept == t and table is not None
    few = rows.select(survivors[:: len(survivors) // 20][:20])
    values = scan.values(few, t).tolist()
    assert values == [unscale(dp_of(pairs, 8)) for pairs in rows_of(*scan.pairs(few))]
    assert len(set(values)) > 1
    assert scan.lead_masks(t) is table
    fresh = search._Scan(family)
    assert fresh.screen(few, t + 3).tolist() == [value <= t + 3 for value in values]
    assert fresh._masks == (None, None)


def test_lead_masks_at_the_int64_edge():
    # At m=4, D=82 the lead table of position 0 alone fits _LEAD_TABLE_BYTES
    # at t = 62 to 64, and the leads reach v = 81, past the window: a window
    # takes up to t + 1 bits, all 63 below int64's sign bit at t = 62, all
    # 64 bits of a word at t = 63, and two words at t = 64.  The table is
    # kept at each, and its rows screen as the scalar DP does.
    family = StructuredFamily(4, 82)
    scan = search._scan(4, 82)
    U, V = scan.U[: scan.radix], scan.V[: scan.radix]
    assert scan.radix == 1681 and V.max() == 81
    rows = odd_rows(family, 10**6 * scan.radix, (10**6 + 1) * scan.radix)
    rows = rows.select(np.arange(0, len(rows.code), 13))
    outcomes = set()
    for t in (62, 63, 64):
        assert search._fits((scan.radix, exact.mask_columns(t)), np.uint64)
        masks = level_masks(U, V, t)  # every 13th lead against the scalar DP's last level
        for code, joined in zip(range(0, scan.radix, 13), window_masks(masks[::13], t)):
            pairs = tuple(zip(U[code].tolist(), V[code].tolist()))
            assert joined == [scalar_levels(pairs, t, y)[-1] for y in range(-t, t + 1)]
        expected = assert_lead_screen_matches_block_screen(rows, 4, 82, t, cached=True)
        pairs = rows_of(*scan.pairs(rows))
        assert expected == [scalar_feasible_any_y(row, t) is not None for row in pairs]
        outcomes.update(expected)
    assert outcomes == {True, False}


@pytest.mark.parametrize("m, D, threshold", [(2, 1000, 700), (10, 200, 150)])
def test_the_scan_without_lead_tables_matches_the_decode_path(m, D, threshold):
    # Past _LEAD_TABLE_BYTES neither the key terms nor the lead masks are
    # built; the rows pack their own leads and compute their own start
    # masks, of 11 and 3 words per end point.  The shard of about 2000
    # indices holds a canonical form.
    t = threshold - 1
    scan = search._scan(m, D)
    assert scan.terms is None and scan.lead_masks(t) is None
    family = StructuredFamily(m, D)
    pairs = family.decode(random.Random(94 + m).randrange(family.size))
    count = family.size // 2000
    shard = (family.encode(CanonicalForm.of(pairs, D).pairs) * count // family.size, count)
    kept = assert_canonical_rows_match_decode_path(family, *shard_range(family.size, shard))
    hits = search_lower_bound(m, D, from_int(threshold), shard=shard)
    assert hits == decode_path_search(m, D, from_int(threshold), shard)
    assert 0 < len(hits) < len(kept)  # the screen keeps some rows and drops others


def test_the_screen_meets_in_row_slices_that_bound_its_memory():
    # At m=2, D=1000 and t = 699 a row's masks take 11 words for each of
    # 1399 end points, 123 KB: the start masks of 2000 rows would take 246
    # MB, and a level makes several arrays of that size.  The screen meets
    # starts and ends in slices of rows whose masks fit _LEAD_TABLE_BYTES
    # four times over.
    family = StructuredFamily(2, 1000)
    scan = search._scan(2, 1000)
    t = 699
    lo = random.Random(99).randrange(family.size - 4000)
    rows = odd_rows(family, lo, lo + 4000)
    expected = dp_feasible_block(*scan.pairs(rows), t).tolist()
    tracemalloc.start()
    try:
        found = scan.screen(rows, t)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert found.tolist() == expected
    assert set(expected) == {True, False}
    assert len(rows.code) > 1900 and peak < 16 * 2**20
    # The block reference runs level_masks too: every 50th row against the scalar DP.
    sample = rows.select(np.arange(0, len(rows.code), 50))
    oracle = [scalar_feasible_any_y(pairs, t) is not None for pairs in rows_of(*scan.pairs(sample))]
    assert oracle == expected[::50]
    assert set(oracle) == {True, False}


def test_canonical_mask_on_python_ints_when_the_keys_overflow_int64():
    family = StructuredFamily(6, 1448)
    D = family.D
    assert (D + 1) ** family.m >= 2**63  # B^(2 (m/2)): a half-key overflows int64
    assert search._scan(family.m, D).high.dtype == object
    rng = random.Random(87)
    expected = []
    for _ in range(4):
        lo = rng.randrange(family.size - 200)
        U, V = assert_block_matches_decode(family, lo, lo + 200)
        expected += assert_canonical_mask_matches_oracle(U, V, D)
    # Members whose free positions all carry value D, and their canonical forms.
    members = [
        tuple((u, D - u) for u in (rng.randrange(1, D) for _ in range(6)))
        for _ in range(200)
    ]
    members += [CanonicalForm.of(pairs, D).pairs for pairs in members[:50]]
    U, V = decode_indices(family, [family.encode(pairs) for pairs in members])
    expected += assert_canonical_mask_matches_oracle(U, V, D)
    assert set(expected) == {True, False}


@pytest.mark.parametrize("D, dtype", [(8, np.int64), (10, np.int64), (76, np.int64), (78, object)])
def test_half_keys_of_m10_are_int64_up_to_d76(D, dtype):
    scan = search._scan(10, D)
    assert scan.high.dtype == scan.low.dtype == dtype
    assert (D + 1) ** 20 >= 2**63  # one whole-image key would overflow


# D = 76 is the largest D whose half-keys are int64 at m = 10.
@pytest.mark.parametrize("D", [8, 10, 76])
def test_canonical_mask_on_m10_slices(monkeypatch, D):
    family = StructuredFamily(10, D)
    rng = random.Random(88 + D)
    for _ in range(3):
        lo = rng.randrange(family.size - 300)
        U, V = assert_block_matches_decode(family, lo, lo + 300)
        assert_canonical_mask_matches_oracle(U, V, D)
        assert_canonical_rows_match_decode_path(family, lo, lo + 300)
    # Members whose free positions all carry value D, so the misaligned group
    # elements give aligned images, and their canonical forms.
    value_d = [
        tuple((u, D - u) for u in (rng.randrange(1, D) for _ in range(10)))
        for _ in range(150)
    ]
    value_d += [CanonicalForm.of(pairs, D).pairs for pairs in value_d[:50]]
    # Members of period two over positions 0..6: a rotation by two ties the
    # identity on the high half (positions 0..4), so the low half decides.
    # The repeated free pair is not above any free pair in either
    # orientation, so no image is smaller on the high half already.
    tied = []
    for _ in range(150):
        head = family.decode(rng.randrange(family.size))
        seventh, eighth, ninth = family.decode(rng.randrange(family.size))[7:]
        free = min(head[0], head[0][::-1])
        if min(eighth, eighth[::-1]) < free:
            eighth = free
        tied.append((free, head[1]) * 3 + (free, seventh, eighth, ninth))
    tied += [CanonicalForm.of(pairs, D).pairs for pairs in tied[:50]]
    decided_low = [
        bool(images) and all(image[:5] == pairs[:5] for image in images)
        for pairs, images in ((pairs, smaller_aligned_images(pairs, D)) for pairs in tied)
    ]
    assert sum(decided_low) >= 5
    fallback = 0
    for members in (value_d, tied):
        indices = [family.encode(pairs) for pairs in members]
        U, V = decode_indices(family, indices)
        assert set(assert_canonical_mask_matches_oracle(U, V, D)) == {True, False}
        kept = [bool(assert_canonical_rows_match_decode_path(family, index, index + 1))
                for index in indices if sum(family.decode(index)[k][0] for k in range(10)) % 2]
        assert set(kept) == {True, False}
        fallback += fallback_rows(search._scan(10, D), member_rows(family, indices), monkeypatch)
    assert fallback


@pytest.mark.parametrize("m, D", [(8, 10), (18, 10), (4, 80), (4, 82)])
def test_block_decode_carries_through_every_position_pair(m, D):
    family = StructuredFamily(m, D)
    groups = search._scan(m, D).groups
    assert len(groups) == (m if D > 80 else m // 2)  # beyond D = 80 a pair table is too large
    radix = family.free_choices * family.pinned_choices
    top = radix ** (m // 2 - 1)
    # At a multiple of top every pair below the last one carries; the ranges
    # start mid-way through the lowest pair's radix.
    for carry in (top, (radix - 1) * top):
        assert_block_matches_decode(family, carry - 337, carry + 263)
    assert (family.size >= 2**63) == (m == 18)


@pytest.mark.parametrize("D, width", [(80, 2), (82, 1)])
def test_decode_tables_pair_positions_up_to_d80(D, width):
    # Paired tables U and V have (D/2)^2 (D-1) rows of two int64 columns
    # each: 126400 rows (3.9 MB) at D = 80, and 136161, past
    # _LEAD_TABLE_BYTES, at D = 82, where each position is a group.
    scan = search._scan(4, D)
    groups, U, V = scan.groups, scan.U, scan.V
    F, P = (D // 2) ** 2, D - 1
    assert U.shape == V.shape == (F * P if width == 2 else F + P, width)
    assert groups == (((F * P, 0),) * 2 if width == 2 else ((F, 0), (P, F)) * 2)
    assert (F * P * 4 * 8 <= search._LEAD_TABLE_BYTES) == (width == 2)


def test_block_path_on_a_family_larger_than_int64():
    family = StructuredFamily(18, 10)
    assert family.size >= 2**63
    top = assert_block_matches_decode(family, family.size - 2000, family.size)
    assert_canonical_mask_matches_oracle(*top, 10)
    # A slice near the top that holds canonical members with increase 9.
    count = family.size // 2000
    shard = (count - 55434, count)
    lo, hi = shard_range(family.size, shard)
    assert lo >= 2**63 and hi - lo >= 2000
    U, V = assert_block_matches_decode(family, lo, hi)
    assert any(assert_canonical_mask_matches_oracle(U, V, 10))
    found = {}
    for threshold in (9, 10):
        found[threshold] = search_lower_bound(18, 10, from_int(threshold), shard=shard)
        assert found[threshold] == scalar_search(18, 10, from_int(threshold), shard=shard)
    assert found[9] and not found[10]


@pytest.mark.parametrize("shard", [(46568, 200000), (77770, 200000)])
def test_block_search_matches_scalar_search_on_m8_sub_shards(shard):
    threshold = from_int(11)
    hits = search_lower_bound(8, 10, threshold, shard=shard)
    assert hits == scalar_search(8, 10, threshold, shard=shard)


@pytest.mark.parametrize("m, D", SMALL_FAMILIES)
def test_values_match_the_dp_on_whole_families(m, D):
    # At threshold 0 the scan screens at t = -1, so every canonical member
    # is valued, each by a sweep of screens from t = 1.
    family = StructuredFamily(m, D)
    scan = search._scan(m, D)
    rows = odd_rows(family, 0, family.size)
    rows = rows.select(scan.canonical(rows))
    values = scan.values(rows, -1).tolist()
    assert values == [unscale(dp_of(pairs, D)) for pairs in rows_of(*scan.pairs(rows))]
    assert values


@pytest.mark.parametrize("m, D", SMALL_FAMILIES)
def test_every_minimum_increase_is_odd_on_whole_families(m, D):
    # The parity fact _Scan.values steps by: on every odd-total member,
    # canonical or not, a screen at an even t answers as at t - 1, so no
    # least feasible t is even.  The DP agrees on the canonical members.
    family = StructuredFamily(m, D)
    scan = search._scan(m, D)
    rows = odd_rows(family, 0, family.size)
    for t in range(0, 3 * D // 2 + 1, 2):
        assert scan.screen(rows, t).tolist() == scan.screen(rows, t - 1).tolist()
    canonical = rows_of(*scan.pairs(rows.select(scan.canonical(rows))))
    assert all(unscale(dp_of(pairs, D)) % 2 for pairs in canonical)


@pytest.mark.parametrize("m, D, t", [(4, 70, 55), (4, 84, 55), (6, 76, 55)])
def test_values_match_the_dp_past_62_bits(monkeypatch, m, D, t):
    # Canonical rows without a routing of increase at most t, from slices
    # around random canonical forms; every 8th is checked.  The sweep starts
    # at t + 1 for an even t and at t + 2 for an odd one, and meets in the
    # middle by level_masks alone on both sides of t = 63, where a window
    # first fills a word, never by a per-row kernel.
    family = StructuredFamily(m, D)
    scan = search._scan(m, D)
    rng = random.Random(97 + m)
    samples = []
    while sum(len(rows.code) for rows in samples) < 320:
        pairs = family.decode(rng.randrange(family.size))
        lo = family.encode(CanonicalForm.of(pairs, D).pairs) - rng.randrange(3000)
        rows = scan.candidates(lo, lo + 3000)
        rows = rows.select(scan.canonical(rows))
        samples.append(rows.select(~scan.screen(rows, t)))
    members = [pairs for rows in samples for pairs in rows_of(*scan.pairs(rows))][::8]
    expected = [unscale(dp_of(pairs, D)) for pairs in members]
    calls = only_level_masks(monkeypatch)
    values = scan.values(member_rows(family, [family.encode(pairs) for pairs in members]), t)
    assert values.tolist() == expected
    assert t < values.min() < 63 < values.max()
    sweep = list(range(t + 2, values.max() + 1, 2))
    assert [s for s, backward in calls if backward] == sweep  # one screen at each s
    assert {s for s, _ in calls} == set(sweep)


def test_block_search_matches_scalar_search_on_small_families():
    for m, D in SMALL_FAMILIES[:-1]:
        for threshold in range(0, 3 * D // 2 + 2):
            for shard in ((0, 1), (2, 3)):
                expected = scalar_search(m, D, from_int(threshold), shard=shard)
                assert search_lower_bound(m, D, from_int(threshold), shard=shard) == expected


@pytest.mark.parametrize("step", [1, 5, 7, 3000, 4096])
def test_checkpoint_file_matches_scalar_scan(tmp_path, monkeypatch, step):
    # (4, 8) has 12544 members, several blocks; shard 1/3 starts inside one.
    monkeypatch.setattr(search, "_CHECKPOINT_STEP", step)
    threshold = from_int(7)
    scalar_file = tmp_path / "scalar.txt"
    for shard in ((0, 1), (1, 3)):
        hits = search_lower_bound(4, 8, threshold, shard, tmp_path / "block")
        assert hits == scalar_search(4, 8, threshold, shard, scalar_file)
        assert hits
        block_file = checkpoint_file(tmp_path / "block", 4, 8, 7, shard)
        assert block_file.read_bytes() == scalar_file.read_bytes()
        block_file.unlink()
        scalar_file.unlink()


def test_checkpoints_are_on_disk_before_they_replace_the_old(tmp_path, monkeypatch):
    # Each save fsyncs the whole .partial file, renames that same file, and
    # then fsyncs the directory, so that the rename is on disk too.
    monkeypatch.setattr(search, "_CHECKPOINT_STEP", 4096)
    events = []
    fsync, replace = os.fsync, Path.replace

    def recorded_fsync(fd):
        stat = os.fstat(fd)
        events.append(("fsync", stat.st_ino, stat.st_size))
        return fsync(fd)

    def recorded_replace(self, target):
        stat = self.stat()
        events.append(("replace", stat.st_ino, stat.st_size))
        return replace(self, target)

    monkeypatch.setattr(os, "fsync", recorded_fsync)
    monkeypatch.setattr(Path, "replace", recorded_replace)
    search_lower_bound(4, 8, from_int(7), checkpoint_dir=tmp_path)
    assert [event[0] for event in events] == ["fsync", "replace", "fsync"] * 4  # 3 steps, the end
    for synced, renamed, directory in zip(events[::3], events[1::3], events[2::3]):
        assert synced[1:] == renamed[1:]
        assert directory[1] == tmp_path.stat().st_ino
    assert events[-2][2] == checkpoint_file(tmp_path, 4, 8, 7).stat().st_size


# A whole scan of the 12544 members of (4, 8) ends its first block at EDGE,
# so EDGE - 1 resumes on a block boundary and EDGE inside a part; after
# 8447 the rest is one block, so with no save in between only the end saves.
EDGE = next(search._blocks(0, 12544, search._scan(4, 8).radix))[1]


@pytest.mark.parametrize("resume_after", [0, EDGE - 1, EDGE, 5000, 8447, 12542, 12543])
def test_checkpoint_resume_from_the_middle_of_a_shard(tmp_path, resume_after):
    threshold = from_int(7)
    block_file, scalar_file = checkpoint_file(tmp_path, 4, 8, 7), tmp_path / "scalar.txt"
    for path in (block_file, scalar_file):
        path.write_text(f"{resume_after}\n")
    hits = search_lower_bound(4, 8, threshold, checkpoint_dir=tmp_path)
    assert hits == scalar_search(4, 8, threshold, checkpoint=scalar_file)
    assert block_file.read_bytes() == scalar_file.read_bytes()
    full = search_lower_bound(4, 8, threshold)
    family = StructuredFamily(4, 8)
    assert hits == [hit for hit in full if family.encode(hit.form.pairs) > resume_after]


@pytest.mark.parametrize("parallel", [False, True])
def test_an_interrupted_search_resumes_with_every_hit(tmp_path, monkeypatch, parallel):
    # Every valued row of this family is a hit, so the valuation fails
    # before it passes half of them.
    monkeypatch.setattr(search, "_CHECKPOINT_STEP", 4096)
    threshold = from_int(5)

    def scan():
        if parallel:
            return search_parallel(4, 8, threshold, jobs=1, checkpoint_dir=tmp_path)
        return search_lower_bound(4, 8, threshold, checkpoint_dir=tmp_path)

    full = search_lower_bound(4, 8, threshold)
    assert len(full) == 661
    fail_after(monkeypatch, len(full) // 2)
    with pytest.raises(Interrupted):
        scan()
    kept = sum(len(path.read_text().splitlines()) - 1 for path in tmp_path.iterdir())
    assert 0 < kept <= len(full) // 2
    resumed = fail_after(monkeypatch, len(full))
    assert scan() == full
    # Each member is valued once: the kept ones by their shard's resume,
    # before that shard's scan values the rest.
    assert resumed == [hit.form.pairs for hit in full]


def test_a_resume_checks_its_kept_records_as_one_block(tmp_path, monkeypatch):
    # A finished shard whose 661 canonical members are all hits: its resume
    # makes one canonical call, screens the records at the scan's t = 4, and
    # values them in one sweep, one screen call at each odd t from 5 to the
    # largest value; the scan values nothing.
    threshold = from_int(5)
    full = search_lower_bound(4, 8, threshold, checkpoint_dir=tmp_path)
    assert len(full) == 661
    calls = {"canonical": 0, "screen": 0}
    canonical, screen = search._Scan.canonical, search._Scan.screen

    def counted_canonical(scan, rows):
        calls["canonical"] += 1
        return canonical(scan, rows)

    def counted_screen(scan, rows, t):
        calls["screen"] += 1
        return screen(scan, rows, t)

    monkeypatch.setattr(search._Scan, "canonical", counted_canonical)
    monkeypatch.setattr(search._Scan, "screen", counted_screen)
    valued = fail_after(monkeypatch, len(full))
    assert search_lower_bound(4, 8, threshold, checkpoint_dir=tmp_path) == full
    assert valued == [hit.form.pairs for hit in full]
    assert calls["canonical"] == 1
    largest = max(unscale(hit.min_increase) for hit in full)
    assert calls["screen"] == 1 + len(range(5, largest + 1, 2))


@pytest.mark.parametrize("m, D", SMALL_FAMILIES)
def test_canonical_rows_match_the_decode_path_on_whole_families(m, D):
    family = StructuredFamily(m, D)
    assert_canonical_rows_match_decode_path(family, 0, family.size)
    radix = search._scan(m, D).radix
    rng = random.Random(89)
    for _ in range(25):
        index = rng.randrange(family.size)
        assert_canonical_rows_match_decode_path(family, index, index + 1)
        part = index - index % radix  # a range that starts and stops inside one part
        lo = rng.randrange(part, part + radix)
        assert_canonical_rows_match_decode_path(family, lo, rng.randrange(lo, part + radix) + 1)
        lo = rng.randrange(family.size)
        assert_canonical_rows_match_decode_path(family, lo, rng.randrange(lo, family.size) + 1)


@pytest.mark.parametrize("m, D", [(2, 4), (4, 8), (6, 6)])
def test_two_stage_canonical_matches_the_full_comparison_on_whole_families(monkeypatch, m, D):
    # Every odd-total member, through the prefilter or not.  The high keys
    # of the always-aligned images decide all rows but the value-D ones and
    # the ties, which go to the full comparison; the canonical rows are the
    # orbits.  At m=2 every odd row is value-D or ties its half-turn.
    family = StructuredFamily(m, D)
    scan = search._scan(m, D)
    rows = odd_rows(family, 0, family.size)
    sent = fallback_rows(scan, rows, monkeypatch)
    assert 0 < sent <= len(rows.code) and (m == 2 or sent < len(rows.code))
    assert scan.canonical(rows).sum() == burnside_orbit_count(m, D)


@pytest.mark.parametrize("m, D", [(18, 10), (20, 10), (12, 40), (10, 82), (4, 82)])
def test_canonical_rows_match_the_decode_path_on_large_families(m, D):
    # All but m=4 index above 2^63, and all but m=18 have parts above 2^63
    # too; m=20, m=12 at D=40 and m=10 at D=82 pack keys in Python ints;
    # beyond D=80 the lead is position 0.
    family = StructuredFamily(m, D)
    scan = search._scan(m, D)
    assert (family.size >= 2**63) == (m > 4)
    assert (family.size // scan.radix >= 2**63) == (m not in (4, 18))
    assert (scan.high.dtype == object) == (m in (12, 10, 20))
    assert scan.radix == (D // 2) ** 2 * (1 if D > 80 else D - 1)
    rng = random.Random(90 + m)
    starts = [family.size - 3000, 2**63 - 1500] if m > 4 else [family.size - 3000]
    for _ in range(3):  # slices around canonical forms, which are rare at random
        pairs = family.decode(rng.randrange(family.size))
        starts.append(family.encode(CanonicalForm.of(pairs, D).pairs) - rng.randrange(3000))
    kept = []
    for lo in starts:
        kept += assert_canonical_rows_match_decode_path(family, lo, lo + rng.randrange(1, 3000))
    assert kept


def test_decode_peels_python_ints_only_down_to_2_63():
    # Ranges that end at, cross and start at 2^63 (m=18), and parts of m=20
    # that are themselves above 2^63.
    family = StructuredFamily(18, 10)
    for lo, hi in ((2**63 - 5, 2**63), (2**63 - 5, 2**63 + 3), (2**63, 2**63 + 2)):
        assert_block_matches_decode(family, lo, hi)
    # Blocks at the bottom, the top and across 2^63 of families paired and
    # unpaired, with int64 and Python-int sizes.
    for m, D in ((8, 10), (20, 10), (10, 82), (4, 82), (12, 40)):
        family = StructuredFamily(m, D)
        for lo in {0, family.size - 2000, min(2**63 - 1000, family.size - 2000)}:
            assert_block_matches_decode(family, lo, lo + 2000)
    family = StructuredFamily(20, 10)
    scan = search._scan(20, 10)
    top = family.size // scan.radix
    assert top >= 2**63
    part_u, _ = search._decode(top - 40, top, scan.groups[1:], scan.U, scan.V)
    assert part_u.tolist() == [[u for u, _ in family.decode(part * 225)[2:]]
                               for part in range(top - 40, top)]


# Hit counts of the decode path: perfbench's fig6 shard and its throughput
# shard, m=10 slices at D = 8, 10 and 76, one table per position at m=4,
# D=82, a slice above 2^63, and shards of one index or of three indices
# inside one part.
M18_SLICES = StructuredFamily(18, 10).size // 2000


@pytest.mark.parametrize("m, D, threshold, shard, count", [
    (8, 10, 11, (46568, 200000), 1),
    (8, 10, 11, (77770, 200000), 0),
    (8, 10, 11, (465681, 2000000), 1),
    (10, 8, 7, (2142828, 5874472), 77),
    (10, 10, 9, (53388946, 192216796), 92),
    (10, 76, 60, (2801316916277516120243, 4966163668818810000000), 2),
    (4, 82, 60, (1736944, 6179939), 6),
    (18, 10, 9, (M18_SLICES - 55434, M18_SLICES), 5),
    (4, 8, 5, (257, 12544), 1),
    (4, 8, 5, (258, 12544), 0),
    (6, 6, 5, (1956, 30000), 1),
])
def test_search_matches_the_decode_path(m, D, threshold, shard, count):
    hits = search_lower_bound(m, D, from_int(threshold), shard=shard)
    assert hits == decode_path_search(m, D, from_int(threshold), shard)
    assert len(hits) == count


def test_small_shards_start_and_stop_inside_one_part():
    for m, D, shard in ((4, 8, (257, 12544)), (6, 6, (1956, 30000))):
        lo, hi = shard_range(StructuredFamily(m, D).size, shard)
        radix = search._scan(m, D).radix
        assert lo % radix and hi % radix and lo // radix == hi // radix


@pytest.mark.parametrize("shard", [(46568, 200000), (77770, 200000)])
def test_the_canonical_test_sees_about_one_index_in_ten(monkeypatch, shard):
    # Decoding every index would give the canonical test half of them.
    seen = []
    canonical = search._Scan.canonical

    def counted(scan, rows):
        seen.append(len(rows.part))
        return canonical(scan, rows)

    monkeypatch.setattr(search._Scan, "canonical", counted)
    search_lower_bound(8, 10, from_int(11), shard=shard)
    lo, hi = shard_range(StructuredFamily(8, 10).size, shard)
    assert 0 < sum(seen) <= 0.15 * (hi - lo)


def test_blocks_cover_the_scan_and_end_at_save_points(monkeypatch):
    rng = random.Random(91)
    for _ in range(300):
        radix = rng.choice([1, 7, 112, 225, 3000, 20000])
        step = rng.choice([1, 5, 4096, _BLOCK + 3, 1 << 24])
        monkeypatch.setattr(search, "_CHECKPOINT_STEP", step)
        first = rng.randrange(10**6)
        stop = first + rng.randrange(1, 60000)
        blocks = list(search._blocks(first, stop, radix))
        assert [lo for lo, _ in blocks] == [first] + [hi for _, hi in blocks[:-1]]
        assert blocks[-1][1] == stop
        for lo, hi in blocks:
            # whole parts, cut at the shard's ends and at save points
            assert hi - lo <= max(_BLOCK, radix)
            assert hi == stop or hi % radix == 0 or (hi - first) % step == 0
            saves = [i for i in range(lo + 1, hi + 1) if (i - first) % step == 0]
            assert not saves or hi == saves[-1]
        if step >= max(_BLOCK, radix):  # then every save point ends a block
            ends = {hi for _, hi in blocks}
            assert all(first + k * step in ends for k in range(1, (stop - first) // step + 1))


@pytest.mark.parametrize("jobs", [2, 100_000])
def test_a_parallel_search_starts_at_most_one_process_per_shard(monkeypatch, jobs):
    started = []

    class Pool:  # records the pool size and maps in this process
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    threshold = from_int(1)
    assert search_parallel(2, 4, threshold, jobs=jobs) == search_lower_bound(2, 4, threshold)
    assert started == [min(jobs, search._SHARDS)]


def test_importing_ringload_leaves_out_the_process_pool():
    # search_parallel imports the pool itself, for --full --jobs J > 1 only.
    code = "import sys, ringload; print('multiprocessing' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=os.environ | {"PYTHONPATH": str(Path(search.__file__).parents[1])},
                         check=True)
    assert out.stdout.strip() == "False"
