"""The one up-set layout: every query answers as the two-row layout
did, covers are derived rather than stored, and a lattice holds about
half the memory.

GOLDEN holds, for each lattice of the generator grid in
test_key_codes.py, a digest of lattice_to_json, atoms(), whitney_second(),
every up_set and a stride of joins, recorded on the layout that stored a
tuple per cover and both order masks with position q at bit q.  Any
change of order, label or value in those outputs changes the digest.
"""

import gc
import hashlib
import json
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geomsieve import generators
from geomsieve.poset import build_lattice, lattice_from_json, lattice_to_json

GOLDEN = {
    "partition:1": "40ac2e8b6ee26774",
    "partition:2": "0f53b6f926fd57bd",
    "partition:3": "b61edcc72059c337",
    "partition:4": "c8d2133fb89ee9e3",
    "partition:5": "a9e8def58079ccd5",
    "partition:6": "350ad2cd507c1a9a",
    "partition:7": "91698b71ce5ffe15",
    "partition:8": "d88135727ce73631",
    "dowling:0:1": "3e7a9771c93a571c",
    "dowling:1:1": "0e36cfb800bcab57",
    "dowling:2:1": "fcfe8bebc751266c",
    "dowling:3:1": "a9e1fc9902defd10",
    "dowling:4:1": "dc31213782cfe94b",
    "dowling:5:1": "7e22106ba0fedc02",
    "dowling:6:1": "3a9e51afa5f150b4",
    "dowling:7:1": "3ab7bb2751143eb5",
    "dowling:0:2": "3e7a9771c93a571c",
    "dowling:1:2": "0e36cfb800bcab57",
    "dowling:2:2": "a3550635a4a828da",
    "dowling:3:2": "00afb0e38923443c",
    "dowling:4:2": "43edccf6507d6e69",
    "dowling:5:2": "8d1c18d905415c79",
    "dowling:6:2": "1052d34b42ac6bc3",
    "dowling:0:3": "3e7a9771c93a571c",
    "dowling:1:3": "0e36cfb800bcab57",
    "dowling:2:3": "9e8ee9291debdd1a",
    "dowling:3:3": "8af3ccd8f30916c5",
    "dowling:4:3": "f51b6e56fa44c16f",
    "dowling:5:3": "76c4428e58f33e1c",
    "dowling:0:4": "3e7a9771c93a571c",
    "dowling:1:4": "0e36cfb800bcab57",
    "dowling:2:4": "35c906ddf7b635fa",
    "dowling:3:4": "3b17ba92b3f58e4b",
    "dowling:4:4": "6262e3beb2618992",
    "dowling:5:4": "6c1f269923756c22",
    "dowling:0:5": "3e7a9771c93a571c",
    "dowling:1:5": "0e36cfb800bcab57",
    "dowling:2:5": "d7256f42a4f1faf3",
    "dowling:3:5": "73f3a291d2594f98",
    "dowling:4:5": "fcb72b8c5ab84cdc",
    "dowling:0:6": "3e7a9771c93a571c",
    "dowling:1:6": "0e36cfb800bcab57",
    "dowling:2:6": "bb2c7b00912e972a",
    "dowling:3:6": "1bd60273ad4954d7",
    "dowling:4:6": "28ff6c576f725cc2",
    "dowling:0:7": "3e7a9771c93a571c",
    "dowling:1:7": "0e36cfb800bcab57",
    "dowling:2:7": "6168e86d344c78f5",
    "dowling:3:7": "21d9ad5d5773543c",
    "dowling:4:7": "f3d11a73f65789a6",
    "dowling:0:8": "3e7a9771c93a571c",
    "dowling:1:8": "0e36cfb800bcab57",
    "dowling:2:8": "c6ad6e50d1178390",
    "dowling:3:8": "d76422e5bb0377d9",
    "dowling:4:8": "bf37452845018c44",
    "dowling:3:16": "1cb63f4d54104a9d",
    "dowling:2:64": "aeebdb186b7a4db2",
    "uniform:0:0": "a578c728042ae0e3",
    "uniform:1:1": "c8238a56b28d7d51",
    "uniform:2:2": "487f5e1a0616e9e3",
    "uniform:2:3": "9fdbd80edb6b09e9",
    "uniform:3:3": "dc34800375a6a0e1",
    "uniform:2:4": "9d391985322e8a1b",
    "uniform:3:4": "563a3f3242b8beba",
    "uniform:4:4": "829c4eb319ee3d99",
    "uniform:2:5": "b81b54e88afee979",
    "uniform:3:5": "732918623698f522",
    "uniform:4:5": "7359f7ed07aa6293",
    "uniform:5:5": "d8da7088f4acaf55",
    "uniform:2:6": "6c8d8598f8096077",
    "uniform:3:6": "cbbc652ca9c9791e",
    "uniform:4:6": "84fd60b4e597331b",
    "uniform:5:6": "bbca5d1dce61c8f8",
    "uniform:6:6": "7a9136a4cc7e580a",
    "uniform:2:7": "46f9820c1c73e865",
    "uniform:3:7": "b777e14339709b6f",
    "uniform:4:7": "8596e6c529f2dc25",
    "uniform:5:7": "1a395d459bd2fae8",
    "uniform:6:7": "011b20ca18702d43",
    "uniform:7:7": "d5dcdba410dab9f3",
    "uniform:2:8": "676b2b3f3c340142",
    "uniform:3:8": "6a96aa4349d68895",
    "uniform:4:8": "64c13a29fd1250c9",
    "uniform:5:8": "04c65a55b7c00c88",
    "uniform:6:8": "b12e740108342b1f",
    "uniform:7:8": "ef2605ab144fdfae",
    "uniform:8:8": "84edf9fa370a9cc8",
    "uniform:2:9": "563b1423882d5e86",
    "uniform:3:9": "d21c20e6147162b4",
    "uniform:4:9": "51e8a621b05bfcc1",
    "uniform:5:9": "8ec76ee5e04ce1ec",
    "uniform:6:9": "1a678538f61baf7e",
    "uniform:7:9": "ed833c3cb3127d05",
    "uniform:8:9": "9e1315c1b8fd61c1",
    "uniform:9:9": "b4ef246735f0b409",
    "uniform:2:10": "67ac9a292c3dc157",
    "uniform:3:10": "56b91f8ed5be9377",
    "uniform:4:10": "e19e6ba5371710b9",
    "uniform:5:10": "c71190d31858b64a",
    "uniform:6:10": "3d0f28d021d11469",
    "uniform:7:10": "2c93b2aa5a4be46c",
    "uniform:8:10": "47e8ea7056374b88",
    "uniform:9:10": "89a0549024c0a103",
    "uniform:10:10": "d40b5f29f6fd65d9",
    "graphic:k4": "7b8b3c9efbabb147",
    "graphic:k5": "9171d243dbb0cf35",
    "boolean:0": "a578c728042ae0e3",
    "boolean:1": "c8238a56b28d7d51",
    "boolean:2": "487f5e1a0616e9e3",
    "boolean:3": "304a2bca313a6b00",
    "boolean:4": "a27cf5b5ed2d93c9",
    "boolean:5": "64290d5346c30c87",
    "boolean:6": "2fef6bd6a25a6c12",
    "boolean:7": "5caf4357d543513f",
    "boolean:8": "432cf59da5d0597f",
    "boolean:9": "7f28c6b515ac0222",
    "boolean:10": "8606fb41282dbdba",
    "boolean:11": "3d6b62831fb745c5",
    "boolean:12": "e35ceab41432c278",
}


def digest(lat):
    n = lat.n_elems
    step = max(1, n // 16)
    outputs = [
        lattice_to_json(lat), lat.atoms(), lat.whitney_second(),
        [lat.up_set(x) for x in range(n)],
        [lat.join(x, y) for x in range(n) for y in range(x % step, n, step)],
    ]
    text = json.dumps(outputs, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize("name", GOLDEN)
def test_outputs_match_the_two_row_layout(name):
    assert digest(generators.parse_named(name)) == GOLDEN[name]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["boolean:3", "partition:4", "dowling:2:3",
                        "uniform:3:5", "graphic:k4", "chain:4",
                        "divisor:12"]),
       st.randoms(use_true_random=False))
def test_covers_are_the_sorted_input_covers(name, rng):
    # relabel and shuffle a lattice's covers; whether they come as tuple
    # pairs or as JSON list pairs, lat.covers lists them sorted
    src = generators.parse_named(name)
    n = src.n_elems
    perm = list(range(n))
    rng.shuffle(perm)
    covers = [(perm[x], perm[y]) for x, y in src.covers]
    rng.shuffle(covers)
    want = tuple(sorted(covers))
    for lat in (build_lattice(n, covers),
                lattice_from_json({"n": n,
                                   "covers": list(map(list, covers))})):
        assert lat.covers == want
        assert lat.atoms() == sorted(y for x, y in want if x == lat.bottom)
        assert lat.whitney_second() == src.whitney_second()


def test_partition_8_keeps_no_covers_and_half_the_masks():
    # 4140 elements: the two full-width order masks and a tuple per
    # cover retained 6.37 MB of traced memory, one down-set and one
    # up-set each as long as the positions on its side 3.21 MB
    gc.collect()
    tracemalloc.start()
    try:
        lat = generators.partition_lattice(8)
        retained, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert "covers" not in vars(lat)
    assert len(lat.covers) == 28337
    assert retained <= 4.5e6, retained
