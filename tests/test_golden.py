"""Records pinned by hash across refactors and arithmetic backends.

Each case runs one command line and compares the sha256 of its record,
timing removed and serialised as the CLI prints it, with a value taken
from the implementation before the chain engine was unified; the n = 14
and 15 cases, which now run on the FFT backend, were taken before it
existed, on the integer multiply, the n = 12 and 19 factor cases
before the divisor search was sieved, and the n = 10..12 audits before
their chains ran, for a time, on a process pool.  A change in any
verdict, residue, count or field order shows here.
"""

import hashlib

import pytest

from conftest import run_cli

from fermatlab.records import dump, strip_timing

GOLDEN = {
    "audit --n-range 5..8":
        "64c1ff9490725450ee12f216878881ca213b780460cc43e0815d0b642cf15918",
    "audit --n-range 10..12 --bases 2,3,5,7,114689":
        "ca5da796ba2d13608948cdcfee3438dec6400c990a2586f6b03084e7b195a461",
    "audit --n-range 10..12 --bases 2,5,7,114689":
        "de9f530c14009fd44d4d56354eab2d4fe74cacc6b5a5754f71a9475b35f8c696",
    "classify 9 --base 7":
        "08f4873c3a56666b8061ec6fe21043c05814cbb8aa9c6a338e7d7bf0a6073a35",
    "factor 6 --k-max 1100":
        "95010fbe20a50f9163c9916448bcf007c65a426721e81c23d0f17e85c870b34d",
    "factor 12 --k-max 20000 --prime-filter":
        "52ec3964d7f975e1134c17294268672329e71b82b473d6a3fc4c7650895d678e",
    "factor 19 --k-max 40000":
        "fd99c633739a001ca7e34aaa0503908d87a5d5c3a50ba732c40910f6b13aa3dc",
    "order 5 --base 2":
        "31afa1a2b02b10b74c6a2513a66d4416ddd36e41d43f4eb8bd3827dfa7cc1e66",
    "order 5 --base 3":
        "4b34c6a828670ad8d4ba54faeb0bbe65ede10ac10993a372ef6bc0dbc0bb82b2",
    "order 5 --base 7":
        "b259755b09cb4ba5dea79eea636dcd69cec584b5c5a74630a7f9da9d10e9682d",
    "order 5 --base 11":
        "d3e046e8ea190499acbcc77ced02fcf4840eea6971cf1e58ff14a6c5f53f7538",
    "order 6 --base 2":
        "35c9081ca0f461bd89b6923f34b3053e0f5ef7419dadf9c53347c7eb8ec0fbef",
    "order 6 --base 3":
        "da202892b8ea9fbced055850ae7aac33c8fbf91c3af7b6032f4ef8594a82bcae",
    "order 6 --base 7":
        "f49c1f9f956f63057e7ac2f9aee2edbaa46ce012fe044c1f2a07b8a58e3bfd08",
    "order 6 --base 11":
        "171212cde930616f1e008d3a6fb35a77981377eb04f5011603597965b6e2a9d3",
    "order 7 --base 2":
        "008ef01164419d781e13558aba7fe5b38b35f828567ee946f80efc1a9142155c",
    "order 7 --base 3":
        "ac071cd060c63bb61b3d9f720a2eff9e32a69907c3243608b4dfbfcc41c84a9f",
    "order 7 --base 7":
        "6fbbc0e6c609895754d51acdd1126e3a0987e2d8c2d5c89fa10182a116c6c2a2",
    "order 7 --base 11":
        "201f6f8c8619dde7bcf3c5f823b1212bda2e9ba6187812ccdc91babb6e766ccf",
    "order 8 --base 2":
        "47e71b0cd21d1b0f9cb9eb604b417a5a35ab70c343b673c6f673d7c4cc1d03cb",
    "order 8 --base 3":
        "8642c8008646d9dd0f2ebe171d302338bf89965b0fc1a511ac13e791789d9215",
    "order 8 --base 7":
        "44f1a55be9c7a6e53da274cb2866a1a17797c9d17fb27b1db4dce408bcea4c3a",
    "order 8 --base 11":
        "336fa38d2ac77153bab07f3039b1631d1e0a7f5a95a6007117f6bfe4e39cd7ca",
    "order 9 --base 2":
        "d58296a389f2e74421dcac93bdba62e34f70d31cc96e584b80053e04d558a780",
    "order 9 --base 3":
        "cbb957f213fdf7c9f86c4e3b61d3a90e3d5fb4e38421f19b185361c98843e341",
    "order 9 --base 7":
        "1eedc6405db8ef3dfcca400cc6a474881d7ff574766088f4c63abd9c7e1de172",
    "order 9 --base 11":
        "8845fdd3c26f3339be80e9d106619356425018d5fddc94ebcf784c25ca9da158",
    "pepin 14":
        "172c3e2b24532f95739a03b4d13b905068c6d12d93e7637485b81450d1047631",
    "classify 14 --base 7":
        "0f4878262494bcbdbe4458333db7e8582e4b6e806f51739ce5f491a9574544c1",
    "order 14 --base 5":
        "7a97a5a8212b7bb9a71c1e7733818e21fef5fcf277ea6e94da294143110b3328",
}

# `pepin 8` paused after squaring 100, then resumed from its checkpoint;
# the paused record holds a temporary path and is not pinned
PEPIN_RESUMED = \
    "e0eb3b65c7420f84525e5c30813fd09430cc65450712b230e74cedc2538161b8"
# the same for `pepin 15` paused after squaring 5000
PEPIN_15_RESUMED = \
    "e779be0fe2944a029e0efe5df69b4a5163cd02c8cd9e92d1ed7c0b350ae7415c"


pytestmark = pytest.mark.usefixtures("fresh_prime_cache")


def record_digest(*args: str) -> str:
    res = run_cli(*args)
    assert res.code == 0, res.stderr
    text = dump(strip_timing(res.json()))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("command", list(GOLDEN),
                         ids=lambda command: command.replace(" ", "_"))
def test_record_matches_golden(command):
    assert record_digest(*command.split()) == GOLDEN[command]


def resumed_digest(directory, n: int, stop: int) -> str:
    paused = run_cli("pepin", str(n), "--checkpoint-dir", str(directory),
                     "--stop-after", str(stop))
    assert paused.code == 0
    assert paused.json()["record"] == "pepin-paused"
    return record_digest("pepin", str(n), "--checkpoint-dir", str(directory))


def test_resumed_pepin_matches_golden(tmp_path):
    assert resumed_digest(tmp_path, 8, 100) == PEPIN_RESUMED


def test_resumed_large_pepin_matches_golden(tmp_path):
    assert resumed_digest(tmp_path, 15, 5000) == PEPIN_15_RESUMED
